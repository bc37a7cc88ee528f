//! Whole-model layer graphs.

use std::fmt;

use crate::{Layer, ModelFamily, ModelId};

/// An ordered layer graph describing one benchmark model.
///
/// The paper's schedulers operate on layer-wise execution: the accelerator
/// runs one layer at a time and the scheduler is consulted at layer
/// boundaries. A `ModelGraph` captures everything those components need:
/// the per-layer shapes and costs, in execution order.
///
/// # Examples
///
/// ```
/// use dysta_models::zoo;
///
/// let bert = zoo::bert(384);
/// assert!(bert.num_layers() > 0);
/// let attn_layers = bert.layers().iter().filter(|l| l.is_dynamic_attention()).count();
/// assert_eq!(attn_layers, 24); // 12 blocks x (score + context)
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ModelGraph {
    id: ModelId,
    layers: Vec<Layer>,
}

impl ModelGraph {
    /// Builds a graph from an ordered list of layers.
    ///
    /// # Errors
    ///
    /// Returns [`GraphValidationError`] if the layer list is empty or two
    /// layers share a name.
    pub fn new(id: ModelId, layers: Vec<Layer>) -> Result<Self, GraphValidationError> {
        if layers.is_empty() {
            return Err(GraphValidationError::Empty { id });
        }
        let mut names = std::collections::HashSet::new();
        for layer in &layers {
            if !names.insert(layer.name().to_owned()) {
                return Err(GraphValidationError::DuplicateLayerName {
                    id,
                    name: layer.name().to_owned(),
                });
            }
        }
        Ok(ModelGraph { id, layers })
    }

    /// The model identifier.
    pub fn id(&self) -> ModelId {
        self.id
    }

    /// The model family (CNN or AttNN).
    pub fn family(&self) -> ModelFamily {
        self.id.family()
    }

    /// The layers in execution order.
    pub fn layers(&self) -> &[Layer] {
        &self.layers
    }

    /// Number of layers.
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// Layer at `index`, if any.
    pub fn layer(&self, index: usize) -> Option<&Layer> {
        self.layers.get(index)
    }

    /// Total dense MAC operations across all layers.
    pub fn total_macs(&self) -> u64 {
        self.layers.iter().map(Layer::macs).sum()
    }

    /// Total weight parameters across all layers.
    pub fn total_params(&self) -> u64 {
        self.layers.iter().map(Layer::params).sum()
    }

    /// Iterator over `(index, layer)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &Layer)> {
        self.layers.iter().enumerate()
    }

    /// Indices of layers followed by a ReLU (dynamic activation-sparsity
    /// sources in CNNs).
    pub fn relu_layer_indices(&self) -> Vec<usize> {
        self.layers
            .iter()
            .enumerate()
            .filter(|(_, l)| l.relu())
            .map(|(i, _)| i)
            .collect()
    }
}

impl fmt::Display for ModelGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} layers, {:.2} GMACs, {:.1} M params",
            self.id,
            self.num_layers(),
            self.total_macs() as f64 / 1e9,
            self.total_params() as f64 / 1e6
        )
    }
}

/// Error returned by [`ModelGraph::new`] for malformed layer lists.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphValidationError {
    /// The layer list was empty.
    Empty {
        /// Model the graph was being built for.
        id: ModelId,
    },
    /// Two layers shared a name.
    DuplicateLayerName {
        /// Model the graph was being built for.
        id: ModelId,
        /// The offending duplicate name.
        name: String,
    },
}

impl fmt::Display for GraphValidationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphValidationError::Empty { id } => {
                write!(f, "model {id} has no layers")
            }
            GraphValidationError::DuplicateLayerName { id, name } => {
                write!(f, "model {id} has duplicate layer name `{name}`")
            }
        }
    }
}

impl std::error::Error for GraphValidationError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LayerKind, Linear};

    fn linear_layer(name: &str) -> Layer {
        Layer::new(
            name,
            LayerKind::Linear(Linear {
                in_features: 8,
                out_features: 8,
                tokens: 1,
            }),
        )
    }

    #[test]
    fn rejects_empty_graph() {
        let err = ModelGraph::new(ModelId::Vgg16, vec![]).unwrap_err();
        assert_eq!(err, GraphValidationError::Empty { id: ModelId::Vgg16 });
    }

    #[test]
    fn rejects_duplicate_names() {
        let err = ModelGraph::new(ModelId::Vgg16, vec![linear_layer("a"), linear_layer("a")])
            .unwrap_err();
        assert!(matches!(
            err,
            GraphValidationError::DuplicateLayerName { ref name, .. } if name == "a"
        ));
        assert!(err.to_string().contains('a'));
    }

    #[test]
    fn totals_sum_layers() {
        let g =
            ModelGraph::new(ModelId::Vgg16, vec![linear_layer("a"), linear_layer("b")]).unwrap();
        assert_eq!(g.total_macs(), 2 * 64);
        assert_eq!(g.total_params(), 2 * 64);
        assert_eq!(g.num_layers(), 2);
    }

    #[test]
    fn relu_indices() {
        let g = ModelGraph::new(
            ModelId::Vgg16,
            vec![linear_layer("a").with_relu(), linear_layer("b")],
        )
        .unwrap();
        assert_eq!(g.relu_layer_indices(), vec![0]);
    }

    #[test]
    fn display_includes_id() {
        let g = ModelGraph::new(ModelId::MobileNet, vec![linear_layer("a")]).unwrap();
        assert!(g.to_string().contains("mobilenet"));
    }
}
