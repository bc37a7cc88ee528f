//! Identifiers for benchmark models and model families.

use std::fmt;
use std::str::FromStr;

/// The nine benchmark architectures used throughout the paper.
///
/// Table 3 lists the scheduling-benchmark models (SSD, ResNet-50, VGG-16,
/// MobileNet, BERT, BART, GPT-2); Table 2 additionally profiles GoogLeNet
/// and Inception-V3 for network-sparsity range.
///
/// # Examples
///
/// ```
/// use dysta_models::{ModelFamily, ModelId};
///
/// assert_eq!(ModelId::Bert.family(), ModelFamily::AttNn);
/// assert_eq!("resnet50".parse::<ModelId>(), Ok(ModelId::ResNet50));
/// assert_eq!(ModelId::Vgg16.to_string(), "vgg16");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[allow(missing_docs)]
pub enum ModelId {
    Ssd,
    ResNet50,
    Vgg16,
    MobileNet,
    GoogLeNet,
    InceptionV3,
    Bert,
    Gpt2,
    Bart,
}

impl ModelId {
    /// All benchmark models, in a stable order.
    pub const ALL: [ModelId; 9] = [
        ModelId::Ssd,
        ModelId::ResNet50,
        ModelId::Vgg16,
        ModelId::MobileNet,
        ModelId::GoogLeNet,
        ModelId::InceptionV3,
        ModelId::Bert,
        ModelId::Gpt2,
        ModelId::Bart,
    ];

    /// Which family (CNN or attention NN) this model belongs to.
    pub fn family(self) -> ModelFamily {
        match self {
            ModelId::Ssd
            | ModelId::ResNet50
            | ModelId::Vgg16
            | ModelId::MobileNet
            | ModelId::GoogLeNet
            | ModelId::InceptionV3 => ModelFamily::Cnn,
            ModelId::Bert | ModelId::Gpt2 | ModelId::Bart => ModelFamily::AttNn,
        }
    }

    /// Lower-case canonical name, identical to the [`fmt::Display`] output.
    pub fn as_str(self) -> &'static str {
        match self {
            ModelId::Ssd => "ssd",
            ModelId::ResNet50 => "resnet50",
            ModelId::Vgg16 => "vgg16",
            ModelId::MobileNet => "mobilenet",
            ModelId::GoogLeNet => "googlenet",
            ModelId::InceptionV3 => "inceptionv3",
            ModelId::Bert => "bert",
            ModelId::Gpt2 => "gpt2",
            ModelId::Bart => "bart",
        }
    }
}

impl fmt::Display for ModelId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Error returned when parsing a [`ModelId`] from a string fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseModelIdError {
    input: String,
}

impl fmt::Display for ParseModelIdError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown model id `{}`", self.input)
    }
}

impl std::error::Error for ParseModelIdError {}

impl FromStr for ModelId {
    type Err = ParseModelIdError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let lower = s.to_ascii_lowercase();
        ModelId::ALL
            .iter()
            .copied()
            .find(|m| m.as_str() == lower)
            .ok_or(ParseModelIdError {
                input: s.to_owned(),
            })
    }
}

/// The two model families distinguished by the paper.
///
/// CNNs exhibit ReLU-induced activation sparsity and static weight-sparsity
/// patterns; attention NNs exhibit input-dependent dynamic attention
/// sparsity. The two families also target different accelerators
/// (Eyeriss-V2 vs Sanger).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ModelFamily {
    /// Convolutional neural networks (vision tasks).
    Cnn,
    /// Attention-based neural networks (NLP tasks).
    AttNn,
}

impl fmt::Display for ModelFamily {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelFamily::Cnn => f.write_str("CNN"),
            ModelFamily::AttNn => f.write_str("AttNN"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_display_fromstr() {
        for id in ModelId::ALL {
            let parsed: ModelId = id.to_string().parse().expect("roundtrip");
            assert_eq!(parsed, id);
        }
    }

    #[test]
    fn parse_is_case_insensitive() {
        assert_eq!("ReSNet50".parse::<ModelId>(), Ok(ModelId::ResNet50));
        assert_eq!("BERT".parse::<ModelId>(), Ok(ModelId::Bert));
    }

    #[test]
    fn parse_rejects_unknown() {
        let err = "alexnet".parse::<ModelId>().unwrap_err();
        assert!(err.to_string().contains("alexnet"));
    }

    #[test]
    fn families_match_paper_taxonomy() {
        // The CNNs and attention NNs of Table 3's workloads.
        let cnns = [
            ModelId::Ssd,
            ModelId::ResNet50,
            ModelId::Vgg16,
            ModelId::MobileNet,
        ];
        for id in cnns {
            assert_eq!(id.family(), ModelFamily::Cnn);
        }
        for id in [ModelId::Bert, ModelId::Bart, ModelId::Gpt2] {
            assert_eq!(id.family(), ModelFamily::AttNn);
        }
    }

    #[test]
    fn all_contains_no_duplicates() {
        let mut seen = std::collections::HashSet::new();
        for id in ModelId::ALL {
            assert!(seen.insert(id), "duplicate model id {id}");
        }
    }
}
