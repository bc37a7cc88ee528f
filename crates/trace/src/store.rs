//! The keyed set of Phase-1 traces a run replays.

use crate::{ModelTraces, SparseModelSpec, VariantId};

/// A keyed collection of [`ModelTraces`].
///
/// Entries are held densely, sorted by [`SparseModelSpec::key`]; an
/// entry's rank is its [`VariantId`]. The store is the one place a spec
/// resolves to an id ([`TraceStore::variant_id`]): request sources
/// resolve each spec once and stamp the id on every request, and the
/// run's one `ModelInfoLut`, built from the store, is indexed by the
/// same ids.
///
/// # Examples
///
/// ```
/// use dysta_trace::{ModelTraces, SparseModelSpec, TraceStore};
/// use dysta_models::ModelId;
/// use dysta_sparsity::SparsityPattern;
///
/// let mut store = TraceStore::new();
/// let spec = SparseModelSpec::new(ModelId::MobileNet, SparsityPattern::Dense, 0.0);
/// store.insert(ModelTraces::generate(&spec, 4, 1));
/// assert!(store.get(&spec).is_some());
/// assert_eq!(store.variant_id(&spec).unwrap().index(), 0);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceStore {
    /// Spec keys, sorted; parallel to `traces`.
    keys: Vec<String>,
    /// Trace sets in key order; index = `VariantId`.
    traces: Vec<ModelTraces>,
}

impl TraceStore {
    /// An empty store.
    pub fn new() -> Self {
        TraceStore::default()
    }

    /// Inserts a trace set, replacing any existing entry for the same
    /// spec, and returns the replaced entry if any.
    ///
    /// Inserting a *new* spec shifts the sorted-key ranks of every entry
    /// that sorts after it, invalidating any [`VariantId`]s (and any
    /// `ModelInfoLut`) minted earlier: resolve ids and build LUTs only
    /// after the store's contents are final. (Replacing an existing
    /// spec's traces keeps all ids stable.)
    pub fn insert(&mut self, traces: ModelTraces) -> Option<ModelTraces> {
        let key = traces.spec().key();
        match self.keys.binary_search(&key) {
            Ok(i) => Some(std::mem::replace(&mut self.traces[i], traces)),
            Err(i) => {
                self.keys.insert(i, key);
                self.traces.insert(i, traces);
                None
            }
        }
    }

    /// The dense rank of a spec's entry, used to index the store and any
    /// LUT built from it. Stable until the next [`TraceStore::insert`].
    /// Formats the spec's key, so it belongs in construction code, not
    /// on per-request paths.
    pub fn variant_id(&self, spec: &SparseModelSpec) -> Option<VariantId> {
        self.keys
            .binary_search(&spec.key())
            .ok()
            .map(VariantId::from_index)
    }

    /// Looks up the traces for a spec (binary search on its key).
    pub fn get(&self, spec: &SparseModelSpec) -> Option<&ModelTraces> {
        self.variant_id(spec).map(|id| &self.traces[id.index()])
    }

    /// The traces stored under a variant id.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range for this store.
    pub fn by_id(&self, id: VariantId) -> &ModelTraces {
        &self.traces[id.index()]
    }

    /// Number of stored variants.
    pub fn len(&self) -> usize {
        self.traces.len()
    }

    /// True if no traces are stored.
    pub fn is_empty(&self) -> bool {
        self.traces.is_empty()
    }

    /// Iterator over stored trace sets, in [`VariantId`] order.
    pub fn iter(&self) -> impl Iterator<Item = &ModelTraces> {
        self.traces.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ModelTraces;
    use dysta_models::ModelId;
    use dysta_sparsity::SparsityPattern;

    #[test]
    fn insert_and_get() {
        let mut store = TraceStore::new();
        let spec = SparseModelSpec::new(ModelId::MobileNet, SparsityPattern::Dense, 0.0);
        let t = ModelTraces::generate(&spec, 2, 1);
        assert!(store.insert(t.clone()).is_none());
        assert_eq!(store.get(&spec), Some(&t));
        assert_eq!(store.len(), 1);
        // Replacement returns the old value.
        assert_eq!(store.insert(t.clone()), Some(t));
    }

    #[test]
    fn missing_spec_is_none() {
        let store = TraceStore::new();
        let spec = SparseModelSpec::new(ModelId::Vgg16, SparsityPattern::Dense, 0.0);
        assert!(store.get(&spec).is_none());
        assert!(store.variant_id(&spec).is_none());
        assert!(store.is_empty());
    }

    #[test]
    fn variant_ids_are_dense_sorted_key_ranks() {
        let mut store = TraceStore::new();
        let specs: Vec<SparseModelSpec> = [
            (ModelId::Vgg16, SparsityPattern::Dense, 0.0),
            (ModelId::MobileNet, SparsityPattern::RandomPointwise, 0.7),
            (ModelId::Bert, SparsityPattern::Dense, 0.0),
        ]
        .into_iter()
        .map(|(m, p, r)| SparseModelSpec::new(m, p, r))
        .collect();
        for s in &specs {
            store.insert(ModelTraces::generate(s, 2, 0));
        }
        // Ids cover 0..len and agree with iteration order.
        let mut seen = vec![false; store.len()];
        for s in &specs {
            let id = store.variant_id(s).expect("inserted");
            assert!(!seen[id.index()], "duplicate id");
            seen[id.index()] = true;
            assert_eq!(store.by_id(id).spec().key(), s.key());
        }
        assert!(seen.iter().all(|&s| s));
        for (rank, t) in store.iter().enumerate() {
            assert_eq!(
                store.variant_id(t.spec()),
                Some(VariantId::from_index(rank))
            );
        }
    }
}
