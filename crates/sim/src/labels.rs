//! Trace labels of model variants, interned once per variant.

use std::fmt::Write as _;

use dysta_obs::Tracer;
use dysta_workload::Request;

/// The tracer label id of each model variant, interned on first use, so
/// steady-state recording formats no label.
#[derive(Debug)]
pub struct VariantLabels {
    /// Label id per model variant (index = the request's variant id).
    ids: Vec<Option<u32>>,
    /// Reusable label-formatting buffer.
    scratch: String,
}

impl VariantLabels {
    /// An empty table for `variants` model variants (the LUT's length).
    pub fn new(variants: usize) -> Self {
        VariantLabels {
            ids: vec![None; variants],
            scratch: String::new(),
        }
    }

    /// The label id of `request`'s model variant, interned into
    /// `tracer` the first time the variant is seen.
    ///
    /// # Panics
    ///
    /// Panics if the request's variant id is out of the table's range.
    pub fn id(&mut self, tracer: &impl Tracer, request: &Request) -> u32 {
        let slot = &mut self.ids[request.variant.index()];
        if let Some(id) = *slot {
            return id;
        }
        self.scratch.clear();
        write!(self.scratch, "{}", request.spec).expect("write to String");
        let id = tracer.intern(&self.scratch);
        *slot = Some(id);
        id
    }
}
