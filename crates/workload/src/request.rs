//! Inference request type.

use dysta_trace::{SparseModelSpec, TraceStore, VariantId};

/// One inference request of a multi-DNN workload — the paper's
/// `Reqst_n = ⟨Model_n, Pattn_n, input_n, SLO_n⟩` tuple (Algorithm 1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Request {
    /// Unique, monotonically increasing request id.
    pub id: u64,
    /// The sparse-model variant (model + pattern + rate + profile).
    pub spec: SparseModelSpec,
    /// `spec`'s id in the trace store of the source that minted the
    /// request, which also indexes the run's one `ModelInfoLut`. The
    /// source resolves each spec once in its store and stamps the id
    /// here, so per-request paths — trace lookup, enqueue, dispatch
    /// estimates — index by it and never format a spec key. Run entry
    /// points check it against `spec` once per request
    /// ([`Request::assert_variant_in`]).
    pub variant: VariantId,
    /// Which Phase-1 input sample this request carries.
    pub sample_index: u64,
    /// Arrival time in nanoseconds since workload start.
    pub arrival_ns: u64,
    /// Relative latency SLO in nanoseconds (`T_isol × M_slo`).
    pub slo_ns: u64,
}

impl Request {
    /// Absolute deadline: arrival plus SLO.
    pub fn deadline_ns(&self) -> u64 {
        self.arrival_ns.saturating_add(self.slo_ns)
    }

    /// Remaining slack at `now_ns` assuming the request still needs
    /// `est_remaining_ns` of service: positive means time to spare,
    /// negative means the deadline is already unreachable under the
    /// estimate. Saturates at the `i64` range so a relaxed (near-`MAX`)
    /// SLO cannot wrap.
    pub fn slack_ns(&self, now_ns: u64, est_remaining_ns: u64) -> i64 {
        let slack = self.deadline_ns() as i128 - now_ns as i128 - est_remaining_ns as i128;
        slack.clamp(i64::MIN as i128, i64::MAX as i128) as i64
    }

    /// True when `variant` names this request's `spec` in `store`. O(1)
    /// for an id its source stamped: the stored spec is compared by
    /// value, and only when the values differ are the two
    /// [`SparseModelSpec::key`]s formatted and compared (specs whose
    /// rates agree to the key's precision share one variant).
    pub(crate) fn variant_names_spec_in(&self, store: &TraceStore) -> bool {
        (self.variant.index() < store.len()) && {
            let named = store.by_id(self.variant).spec();
            *named == self.spec || named.key() == self.spec.key()
        }
    }

    /// Checks that `variant` names this request's `spec` in `store` (see
    /// [`Request::variant`]). Run entry points apply it to every request
    /// before trusting the id — in release builds too.
    ///
    /// # Panics
    ///
    /// Panics naming the request and its spec if `variant` is out of
    /// range for `store` or names another variant.
    pub fn assert_variant_in(&self, store: &TraceStore) {
        assert!(
            self.variant_names_spec_in(store),
            "request {} carries variant {}, which does not name its spec {} in the trace store",
            self.id,
            self.variant.index(),
            self.spec
        );
    }

    /// The same request demoted to a relaxed SLO class: its SLO
    /// multiplied by `multiplier` (saturating at `u64::MAX`, so an
    /// already deadline-free request stays deadline-free). Admission
    /// control uses this for degraded admissions — serve the work, but
    /// under a deadline it can actually hold.
    ///
    /// # Panics
    ///
    /// Panics if `multiplier` is below 1 or not finite (a "relaxation"
    /// must never tighten the deadline).
    pub fn relax_slo(&self, multiplier: f64) -> Request {
        assert!(
            multiplier >= 1.0 && multiplier.is_finite(),
            "SLO relaxation multiplier must be finite and >= 1"
        );
        let relaxed = self.slo_ns as f64 * multiplier;
        Request {
            slo_ns: if relaxed >= u64::MAX as f64 {
                u64::MAX
            } else {
                relaxed.round() as u64
            },
            ..*self
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dysta_models::ModelId;
    use dysta_sparsity::SparsityPattern;

    #[test]
    fn deadline_is_arrival_plus_slo() {
        let r = Request {
            id: 0,
            spec: SparseModelSpec::new(ModelId::Bert, SparsityPattern::Dense, 0.0),
            variant: VariantId::default(),
            sample_index: 0,
            arrival_ns: 100,
            slo_ns: 50,
        };
        assert_eq!(r.deadline_ns(), 150);
    }

    #[test]
    fn slack_shrinks_with_time_and_work() {
        let r = Request {
            id: 0,
            spec: SparseModelSpec::new(ModelId::Bert, SparsityPattern::Dense, 0.0),
            variant: VariantId::default(),
            sample_index: 0,
            arrival_ns: 100,
            slo_ns: 1_000,
        };
        assert_eq!(r.slack_ns(100, 0), 1_000);
        assert_eq!(r.slack_ns(600, 300), 200);
        // Past the point of no return the slack goes negative.
        assert_eq!(r.slack_ns(1_000, 500), -400);
        // A saturated deadline cannot wrap the signed range.
        let relaxed = Request {
            slo_ns: u64::MAX,
            ..r
        };
        assert_eq!(relaxed.slack_ns(0, 0), i64::MAX);
    }

    #[test]
    fn relax_slo_scales_and_saturates() {
        let r = Request {
            id: 0,
            spec: SparseModelSpec::new(ModelId::Bert, SparsityPattern::Dense, 0.0),
            variant: VariantId::default(),
            sample_index: 0,
            arrival_ns: 100,
            slo_ns: 1_000,
        };
        assert_eq!(r.relax_slo(1.0).slo_ns, 1_000);
        assert_eq!(r.relax_slo(4.0).slo_ns, 4_000);
        // Identity fields survive the re-classing.
        assert_eq!(r.relax_slo(4.0).id, r.id);
        assert_eq!(r.relax_slo(4.0).arrival_ns, r.arrival_ns);
        // A deadline-free request stays deadline-free.
        let free = Request {
            slo_ns: u64::MAX,
            ..r
        };
        assert_eq!(free.relax_slo(2.0).slo_ns, u64::MAX);
    }

    #[test]
    #[should_panic(expected = "must be finite and >= 1")]
    fn relax_slo_rejects_tightening() {
        let r = Request {
            id: 0,
            spec: SparseModelSpec::new(ModelId::Bert, SparsityPattern::Dense, 0.0),
            variant: VariantId::default(),
            sample_index: 0,
            arrival_ns: 0,
            slo_ns: 1_000,
        };
        let _ = r.relax_slo(0.5);
    }

    /// A one-variant store profiling `spec`, and a request for it.
    fn profiled(spec: SparseModelSpec) -> (TraceStore, Request) {
        let mut store = TraceStore::new();
        store.insert(dysta_trace::ModelTraces::generate(&spec, 2, 0));
        let request = Request {
            id: 7,
            spec,
            variant: store.variant_id(&spec).expect("profiled"),
            sample_index: 0,
            arrival_ns: 0,
            slo_ns: 1_000,
        };
        (store, request)
    }

    #[test]
    fn variant_check_accepts_the_specs_own_id() {
        let spec = SparseModelSpec::new(ModelId::MobileNet, SparsityPattern::RandomPointwise, 0.7);
        let (store, r) = profiled(spec);
        r.assert_variant_in(&store);
        // A rate that differs only past the key's precision names the
        // same variant: the check falls back to key equality.
        let close = Request {
            spec: SparseModelSpec {
                weight_rate: 0.700_000_01,
                ..spec
            },
            ..r
        };
        close.assert_variant_in(&store);
    }

    #[test]
    #[should_panic(expected = "request 7 carries variant 1, which does not name its spec")]
    fn variant_check_rejects_an_out_of_range_id() {
        let spec = SparseModelSpec::new(ModelId::MobileNet, SparsityPattern::Dense, 0.0);
        let (store, r) = profiled(spec);
        Request {
            variant: VariantId::from_index(1),
            ..r
        }
        .assert_variant_in(&store);
    }

    #[test]
    #[should_panic(expected = "does not name its spec")]
    fn variant_check_rejects_another_spec() {
        let spec = SparseModelSpec::new(ModelId::MobileNet, SparsityPattern::Dense, 0.0);
        let (store, r) = profiled(spec);
        Request {
            spec: SparseModelSpec::new(ModelId::Bert, SparsityPattern::Dense, 0.0),
            ..r
        }
        .assert_variant_in(&store);
    }

    #[test]
    fn deadline_saturates() {
        let r = Request {
            id: 0,
            spec: SparseModelSpec::new(ModelId::Bert, SparsityPattern::Dense, 0.0),
            variant: VariantId::default(),
            sample_index: 0,
            arrival_ns: u64::MAX,
            slo_ns: 50,
        };
        assert_eq!(r.deadline_ns(), u64::MAX);
    }
}
