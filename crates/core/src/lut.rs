//! Model-information lookup tables (the paper's latency / sparsity / shape
//! LUTs, Figure 8 and Algorithm 3).

use dysta_trace::{ModelTraces, TraceStore, VariantId};

/// LUT sparsity averages at or below this are "no dynamic-sparsity
/// source" — the layer is skipped by the predictor's coefficient.
pub(crate) const DYNAMIC_SPARSITY_EPS: f64 = 1e-6;

/// Densities are floored here before forming ratios, bounding the
/// coefficient for fully sparse layers.
pub(crate) const DENSITY_FLOOR: f64 = 1e-3;

/// Offline-profiled statistics of one sparse-model variant: the content of
/// the Dysta LUT entry for a model-pattern pair.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelInfo {
    avg_latency_ns: f64,
    avg_layer_latency_ns: Vec<f64>,
    avg_layer_sparsity: Vec<f64>,
    /// `suffix_latency_ns[j]` = average latency of layers `j..`.
    suffix_latency_ns: Vec<f64>,
    gamma_exponent: f64,
}

impl ModelInfo {
    /// Derives LUT statistics from Phase-1 traces.
    fn from_traces(traces: &ModelTraces) -> Self {
        let avg_layer_latency_ns = traces.avg_layer_latency_ns();
        let n = avg_layer_latency_ns.len();
        let mut suffix = vec![0.0; n + 1];
        for j in (0..n).rev() {
            suffix[j] = suffix[j + 1] + avg_layer_latency_ns[j];
        }
        let avg_layer_sparsity: Vec<f64> = (0..n).map(|j| traces.avg_layer_sparsity(j)).collect();
        let gamma_exponent = fit_gamma_exponent(traces, &avg_layer_sparsity);
        ModelInfo {
            avg_latency_ns: traces.avg_latency_ns(),
            avg_layer_sparsity,
            avg_layer_latency_ns,
            suffix_latency_ns: suffix,
            gamma_exponent,
        }
    }

    /// The profiled hardware-effectiveness exponent `κ`: how strongly the
    /// monitored density ratio translates into latency on this variant
    /// (the generalisation of the paper's per-pattern `α` calibration —
    /// fitted offline from the same Phase-1 traces that fill the LUTs).
    /// The predictor computes `γ = ratio^κ`.
    pub fn gamma_exponent(&self) -> f64 {
        self.gamma_exponent
    }

    /// Average end-to-end isolated latency (the latency-LUT entry used by
    /// Algorithm 1, line 5).
    pub fn avg_latency_ns(&self) -> f64 {
        self.avg_latency_ns
    }

    /// Average per-layer latency profile.
    pub fn avg_layer_latency_ns(&self) -> &[f64] {
        &self.avg_layer_latency_ns
    }

    /// Average monitored sparsity per layer (the sparsity-LUT entry used
    /// by Algorithm 3, line 4).
    pub fn avg_layer_sparsity(&self) -> &[f64] {
        &self.avg_layer_sparsity
    }

    /// Average remaining latency when the next layer to run is
    /// `next_layer` (clamped to 0 past the end).
    pub fn avg_remaining_ns(&self, next_layer: usize) -> f64 {
        let idx = next_layer.min(self.suffix_latency_ns.len() - 1);
        self.suffix_latency_ns[idx]
    }

    /// Number of layers.
    pub fn num_layers(&self) -> usize {
        self.avg_layer_latency_ns.len()
    }

    /// The floored average density of one layer, or `None` when the
    /// layer has no dynamic-sparsity source in this LUT entry
    /// (Algorithm 3's per-layer filter). The single home of the
    /// dynamic-layer epsilon and density floor — the software predictor
    /// and the FP16 hardware datapath both resolve layers through here,
    /// so the constants cannot drift apart.
    pub fn dynamic_layer_avg_density(&self, layer: usize) -> Option<f64> {
        let avg = *self.avg_layer_sparsity.get(layer)?;
        if avg <= DYNAMIC_SPARSITY_EPS {
            return None;
        }
        Some((1.0 - avg).max(DENSITY_FLOOR))
    }

    /// The monitored-vs-average density ratio for one executed layer, or
    /// `None` when the layer has no dynamic-sparsity source. The single
    /// definition [`crate::TaskState::record_layer`] folds into the
    /// task's [`crate::SparsitySummary`].
    pub fn density_ratio(&self, layer: usize, monitored_sparsity: f64) -> Option<f64> {
        let avg_density = self.dynamic_layer_avg_density(layer)?;
        let mon_density = (1.0 - monitored_sparsity).max(DENSITY_FLOOR);
        Some(mon_density / avg_density)
    }
}

/// Least-squares fit (through the origin, in log space) of the isolated
/// latency ratio against the first dynamic layer's monitored density
/// ratio: `ln(latency/avg) ≈ κ · ln(density/avg_density)`.
fn fit_gamma_exponent(traces: &ModelTraces, avg_layer_sparsity: &[f64]) -> f64 {
    let Some(first_dynamic) = avg_layer_sparsity.iter().position(|&s| s > 1e-6) else {
        return 1.0;
    };
    let avg_density = (1.0 - avg_layer_sparsity[first_dynamic]).max(1e-3);
    let avg_latency = traces.avg_latency_ns().max(1.0);
    let mut num = 0.0;
    let mut den = 0.0;
    for sample in traces.samples() {
        let density = (1.0 - sample.layers()[first_dynamic].sparsity).max(1e-3);
        let lr = (density / avg_density).ln();
        let lt = (sample.isolated_latency_ns() as f64 / avg_latency).ln();
        num += lr * lt;
        den += lr * lr;
    }
    if den < 1e-9 {
        1.0
    } else {
        (num / den).clamp(0.0, 2.0)
    }
}

/// The LUT collection: one [`ModelInfo`] per sparse-model variant, held
/// densely in [`VariantId`] order.
///
/// Built once per run from the run's [`TraceStore`] and borrowed by every
/// node and the front end. It holds no keys: a spec resolves to its id
/// in the store ([`TraceStore::variant_id`]), and every lookup here is
/// [`ModelInfoLut::info`], a bounds-checked array access.
///
/// # Examples
///
/// ```
/// use dysta_core::ModelInfoLut;
/// use dysta_trace::{ModelTraces, SparseModelSpec, TraceStore};
/// use dysta_models::ModelId;
/// use dysta_sparsity::SparsityPattern;
///
/// let spec = SparseModelSpec::new(ModelId::MobileNet, SparsityPattern::Dense, 0.0);
/// let mut store = TraceStore::new();
/// store.insert(ModelTraces::generate(&spec, 4, 0));
/// let lut = ModelInfoLut::from_store(&store);
/// let id = store.variant_id(&spec).unwrap();
/// assert_eq!(lut.info(id).avg_latency_ns(), store.by_id(id).avg_latency_ns());
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ModelInfoLut {
    /// LUT entries in the store's order; index = `VariantId`.
    entries: Vec<ModelInfo>,
}

impl ModelInfoLut {
    /// Builds the LUTs from a Phase-1 trace store. Variant ids are
    /// inherited from the store's sorted-key ranks.
    pub fn from_store(store: &TraceStore) -> Self {
        ModelInfoLut {
            entries: store.iter().map(ModelInfo::from_traces).collect(),
        }
    }

    /// The entry for an interned variant — the allocation-free fast path
    /// every per-decision lookup uses.
    ///
    /// # Panics
    ///
    /// Panics if the id was not minted by the store this LUT was built
    /// from.
    #[inline]
    pub fn info(&self, id: VariantId) -> &ModelInfo {
        self.try_info(id)
            .unwrap_or_else(|| panic!("no LUT entry for variant {}", id.index()))
    }

    /// The entry for an interned variant, `None` if the id is out of
    /// range for this LUT (an unprofiled variant).
    #[inline]
    pub fn try_info(&self, id: VariantId) -> Option<&ModelInfo> {
        self.entries.get(id.index())
    }

    /// Number of profiled variants.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if no variants are profiled.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dysta_models::ModelId;
    use dysta_sparsity::SparsityPattern;
    use dysta_trace::{ModelTraces, SparseModelSpec};

    /// The LUT entry of `model`'s dense variant, profiled alone.
    fn info_for(model: ModelId) -> ModelInfo {
        let spec = SparseModelSpec::new(model, SparsityPattern::Dense, 0.0);
        let mut store = TraceStore::new();
        store.insert(ModelTraces::generate(&spec, 8, 3));
        let id = store.variant_id(&spec).expect("profiled");
        ModelInfoLut::from_store(&store).info(id).clone()
    }

    #[test]
    fn suffix_sums_telescope() {
        let info = info_for(ModelId::MobileNet);
        assert!((info.avg_remaining_ns(0) - info.avg_latency_ns()).abs() < 1.0);
        assert_eq!(info.avg_remaining_ns(info.num_layers()), 0.0);
        // Remaining decreases monotonically.
        for j in 0..info.num_layers() {
            assert!(info.avg_remaining_ns(j) >= info.avg_remaining_ns(j + 1));
        }
    }

    #[test]
    fn remaining_clamps_past_end() {
        let info = info_for(ModelId::MobileNet);
        assert_eq!(info.avg_remaining_ns(9999), 0.0);
    }

    #[test]
    fn sparsity_lut_tracks_dynamic_layers() {
        let info = info_for(ModelId::Bert);
        assert!(info.avg_layer_sparsity().iter().any(|&s| s > 0.5));
    }
}
