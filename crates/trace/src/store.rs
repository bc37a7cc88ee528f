//! Persistence for trace sets (the paper's "save as files" step).

use std::fmt;
use std::fs::File;
use std::io::{BufReader, BufWriter};
use std::path::Path;

use serde::{DeError, Deserialize, Serialize, Value};

use crate::{ModelTraces, SparseModelSpec, VariantId};

/// A keyed collection of [`ModelTraces`] with JSON save/load.
///
/// Entries are held densely, sorted by spec key; an entry's rank is its
/// [`VariantId`], shared with the `ModelInfoLut` built from the store so
/// hot paths can index by id instead of hashing string keys. Lookups by
/// spec ([`TraceStore::get`], [`TraceStore::variant_id`]) binary-search
/// with a stack-formatted key and never heap-allocate.
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
    pub fn variant_id(&self, spec: &SparseModelSpec) -> Option<VariantId> {
        let probe = spec.spec_key();
        self.keys
            .binary_search_by(|k| k.as_str().cmp(probe.as_str()))
            .ok()
            .map(VariantId::from_index)
    }

    /// Looks up the traces for a spec (allocation-free binary search).
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

    /// Serializes the store to a JSON file.
    ///
    /// # Errors
    ///
    /// Returns an error if the file cannot be created or written.
    pub fn save(&self, path: &Path) -> Result<(), TraceStoreError> {
        let file = File::create(path).map_err(TraceStoreError::Io)?;
        serde_json::to_writer(BufWriter::new(file), self).map_err(TraceStoreError::Json)
    }

    /// Loads a store from a JSON file written by [`TraceStore::save`].
    ///
    /// # Errors
    ///
    /// Returns an error if the file cannot be read or parsed.
    pub fn load(path: &Path) -> Result<Self, TraceStoreError> {
        let file = File::open(path).map_err(TraceStoreError::Io)?;
        serde_json::from_reader(BufReader::new(file)).map_err(TraceStoreError::Json)
    }
}

// The on-disk shape is unchanged from the map-backed implementation
// (`{"traces": {key: ModelTraces}}`); deserialization rebuilds entries
// through `insert` so key/order invariants hold for any input ordering.
impl Serialize for TraceStore {
    fn to_value(&self) -> Value {
        let entries = self
            .keys
            .iter()
            .zip(&self.traces)
            .map(|(k, t)| (k.clone(), t.to_value()))
            .collect();
        Value::Object(vec![("traces".to_string(), Value::Object(entries))])
    }
}

impl Deserialize for TraceStore {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        let traces = value.field("traces")?;
        let Value::Object(entries) = traces else {
            return Err(DeError::new(format!(
                "expected trace map, found {}",
                traces.kind()
            )));
        };
        let mut store = TraceStore::new();
        for (_, v) in entries {
            store.insert(ModelTraces::from_value(v)?);
        }
        Ok(store)
    }
}

/// Error saving or loading a [`TraceStore`].
#[derive(Debug)]
pub enum TraceStoreError {
    /// Underlying filesystem failure.
    Io(std::io::Error),
    /// Malformed JSON content.
    Json(serde_json::Error),
}

impl fmt::Display for TraceStoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceStoreError::Io(e) => write!(f, "trace store I/O failure: {e}"),
            TraceStoreError::Json(e) => write!(f, "trace store serialization failure: {e}"),
        }
    }
}

impl std::error::Error for TraceStoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceStoreError::Io(e) => Some(e),
            TraceStoreError::Json(e) => Some(e),
        }
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

    #[test]
    fn save_load_roundtrip() {
        let mut store = TraceStore::new();
        for (model, pattern) in [
            (ModelId::MobileNet, SparsityPattern::RandomPointwise),
            (ModelId::Bert, SparsityPattern::Dense),
        ] {
            let spec = SparseModelSpec::new(model, pattern, 0.5);
            store.insert(ModelTraces::generate(&spec, 3, 7));
        }
        let dir = std::env::temp_dir().join("dysta-trace-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("store.json");
        store.save(&path).unwrap();
        let loaded = TraceStore::load(&path).unwrap();
        assert_eq!(store, loaded);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn load_missing_file_errors() {
        let err = TraceStore::load(Path::new("/nonexistent/dysta.json")).unwrap_err();
        assert!(matches!(err, TraceStoreError::Io(_)));
        assert!(err.to_string().contains("I/O"));
    }
}
