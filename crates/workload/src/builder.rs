//! Workload construction: traces + Poisson arrivals + SLOs.

use dysta_trace::{ModelTraces, SampleTrace, SparseModelSpec, TraceStore};

use crate::{ArrivalProcess, PhaseSpec, Request, Scenario, SloModel, StreamSpec};

/// Default number of Phase-1 input samples per sparse-model variant.
const DEFAULT_SAMPLES_PER_VARIANT: u64 = 64;

/// Builder for [`Workload`]s: a steady-Poisson [`StreamSpec`] with one
/// phase, materialized by [`WorkloadBuilder::build`].
///
/// # Examples
///
/// ```
/// use dysta_workload::{Scenario, WorkloadBuilder};
///
/// let w = WorkloadBuilder::new(Scenario::MultiAttNn)
///     .arrival_rate(30.0)
///     .slo_multiplier(10.0)
///     .num_requests(100)
///     .seed(7)
///     .build();
/// assert!(w.requests().windows(2).all(|p| p[0].arrival_ns <= p[1].arrival_ns));
/// ```
#[derive(Debug, Clone)]
pub struct WorkloadBuilder {
    spec: StreamSpec,
}

impl WorkloadBuilder {
    /// Starts a builder from a scenario preset.
    pub fn new(scenario: Scenario) -> Self {
        WorkloadBuilder::steady(scenario.default_arrival_rate(), scenario.mix())
    }

    /// Starts a builder from an explicit weighted model mix.
    ///
    /// # Panics
    ///
    /// Panics if the mix is empty or any weight is non-positive.
    pub fn from_mix(mix: Vec<(SparseModelSpec, f64)>) -> Self {
        assert!(!mix.is_empty(), "mix must not be empty");
        assert!(
            mix.iter().all(|&(_, w)| w > 0.0),
            "weights must be positive"
        );
        WorkloadBuilder::steady(1.0, mix)
    }

    fn steady(rate: f64, mix: Vec<(SparseModelSpec, f64)>) -> Self {
        WorkloadBuilder {
            spec: StreamSpec {
                phases: vec![PhaseSpec::steady(0, rate, mix, SloModel::Fixed(10.0))],
                num_requests: 1000,
                samples_per_variant: DEFAULT_SAMPLES_PER_VARIANT,
                seed: 0,
            },
        }
    }

    /// Poisson arrival rate in samples per second.
    ///
    /// # Panics
    ///
    /// Panics unless the rate is positive and finite.
    pub fn arrival_rate(mut self, per_sec: f64) -> Self {
        assert!(
            per_sec > 0.0 && per_sec.is_finite(),
            "rate must be positive"
        );
        self.spec.phases[0].process = ArrivalProcess::Poisson { rate: per_sec };
        self
    }

    /// Latency SLO multiplier `M_slo` (SLO = `T_isol × M_slo`) for every
    /// request. Replaces an earlier [`WorkloadBuilder::slo_multiplier_range`]
    /// (the last SLO setter wins).
    ///
    /// # Panics
    ///
    /// Panics unless the multiplier is at least 1.
    pub fn slo_multiplier(mut self, m: f64) -> Self {
        assert!(m >= 1.0 && m.is_finite(), "multiplier must be >= 1");
        self.spec.phases[0].slo = SloModel::Fixed(m);
        self
    }

    /// Samples each request's SLO multiplier uniformly from `[lo, hi]`
    /// instead of using one fixed multiplier — models tenants with
    /// heterogeneous latency objectives (interactive vs batch), which is
    /// where deadline-aware scoring genuinely differentiates requests.
    /// Replaces an earlier [`WorkloadBuilder::slo_multiplier`] (the last
    /// SLO setter wins).
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= lo <= hi` and both are finite.
    pub fn slo_multiplier_range(mut self, lo: f64, hi: f64) -> Self {
        assert!(
            lo >= 1.0 && hi >= lo && hi.is_finite(),
            "need 1 <= lo <= hi"
        );
        self.spec.phases[0].slo = SloModel::Range { lo, hi };
        self
    }

    /// Total number of requests (the paper uses 1000).
    ///
    /// # Panics
    ///
    /// Panics if zero.
    pub fn num_requests(mut self, n: usize) -> Self {
        self.spec = self.spec.num_requests(n as u64);
        self
    }

    /// Number of distinct Phase-1 input samples traced per variant.
    ///
    /// # Panics
    ///
    /// Panics if zero.
    pub fn samples_per_variant(mut self, n: u64) -> Self {
        self.spec = self.spec.samples_per_variant(n);
        self
    }

    /// Random seed controlling arrivals, model sampling and traces.
    pub fn seed(mut self, seed: u64) -> Self {
        self.spec = self.spec.seed(seed);
        self
    }

    /// Generates traces and the request stream.
    pub fn build(&self) -> Workload {
        self.spec.materialize()
    }
}

/// A generated multi-DNN workload: the request stream plus the Phase-1
/// trace library backing it.
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    requests: Vec<Request>,
    store: TraceStore,
}

impl Workload {
    /// Assembles a workload from pre-built parts.
    ///
    /// # Panics
    ///
    /// Panics if requests are not sorted by arrival time or reference a
    /// variant missing from the store.
    pub fn from_parts(requests: Vec<Request>, store: TraceStore) -> Self {
        assert!(
            requests
                .windows(2)
                .all(|p| p[0].arrival_ns <= p[1].arrival_ns),
            "requests must be sorted by arrival"
        );
        for r in &requests {
            assert!(
                store.get(&r.spec).is_some(),
                "missing traces for {}",
                r.spec
            );
        }
        Workload { requests, store }
    }

    /// The request stream, sorted by arrival time.
    pub fn requests(&self) -> &[Request] {
        &self.requests
    }

    /// The Phase-1 trace library.
    pub fn store(&self) -> &TraceStore {
        &self.store
    }

    /// Traces of the variant a request uses.
    ///
    /// # Panics
    ///
    /// Panics if the variant is missing (impossible for built workloads).
    pub fn traces_for(&self, request: &Request) -> &ModelTraces {
        self.store
            .get(&request.spec)
            .expect("workload invariant: traces exist for every request")
    }

    /// The specific input-sample trace a request carries.
    pub fn trace_for(&self, request: &Request) -> &SampleTrace {
        self.traces_for(request).sample(request.sample_index)
    }

    /// The request's true isolated execution time `T_isol`.
    pub fn isolated_ns(&self, request: &Request) -> u64 {
        self.trace_for(request).isolated_latency_ns()
    }

    /// Offered load: mean isolated service time × arrival rate, a quick
    /// utilization estimate used by tests and the stress examples.
    pub fn offered_load(&self) -> f64 {
        if self.requests.len() < 2 {
            return 0.0;
        }
        let span_s =
            (self.requests.last().unwrap().arrival_ns - self.requests[0].arrival_ns) as f64 / 1e9;
        let busy_s: f64 = self
            .requests
            .iter()
            .map(|r| self.isolated_ns(r) as f64 / 1e9)
            .sum();
        busy_s / span_s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(scenario: Scenario) -> Workload {
        WorkloadBuilder::new(scenario)
            .num_requests(60)
            .samples_per_variant(8)
            .seed(3)
            .build()
    }

    #[test]
    fn arrivals_are_sorted_and_poisson_like() {
        let w = small(Scenario::MultiAttNn);
        let arr: Vec<u64> = w.requests().iter().map(|r| r.arrival_ns).collect();
        assert!(arr.windows(2).all(|p| p[0] <= p[1]));
        // Mean inter-arrival should be near 1/30 s.
        let gaps: Vec<f64> = arr.windows(2).map(|p| (p[1] - p[0]) as f64 / 1e9).collect();
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        assert!((mean - 1.0 / 30.0).abs() < 0.01, "mean gap {mean}");
    }

    #[test]
    fn slo_is_profiled_isolated_times_multiplier() {
        let w = small(Scenario::MultiCnn);
        for r in w.requests() {
            let profiled = w.traces_for(r).avg_latency_ns();
            assert_eq!(r.slo_ns, (profiled * 10.0).round() as u64);
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let a = small(Scenario::MultiCnn);
        let b = small(Scenario::MultiCnn);
        assert_eq!(a.requests(), b.requests());
    }

    #[test]
    fn different_seed_changes_arrivals() {
        let a = small(Scenario::MultiCnn);
        let b = WorkloadBuilder::new(Scenario::MultiCnn)
            .num_requests(60)
            .samples_per_variant(8)
            .seed(4)
            .build();
        assert_ne!(a.requests(), b.requests());
    }

    #[test]
    fn all_mix_variants_appear_in_large_workload() {
        let w = WorkloadBuilder::new(Scenario::MultiCnn)
            .num_requests(400)
            .samples_per_variant(4)
            .seed(5)
            .build();
        let used: std::collections::HashSet<String> =
            w.requests().iter().map(|r| r.spec.key()).collect();
        assert_eq!(used.len(), Scenario::MultiCnn.mix().len());
    }

    #[test]
    fn offered_load_is_moderate_at_default_rates() {
        // The paper's operating points put the accelerator under real but
        // feasible load; sanity-check both default mixes.
        let attnn = WorkloadBuilder::new(Scenario::MultiAttNn)
            .num_requests(200)
            .samples_per_variant(16)
            .seed(6)
            .build();
        let load = attnn.offered_load();
        assert!((0.3..1.05).contains(&load), "AttNN load {load}");

        let cnn = WorkloadBuilder::new(Scenario::MultiCnn)
            .num_requests(200)
            .samples_per_variant(16)
            .seed(6)
            .build();
        let load = cnn.offered_load();
        assert!((0.2..1.0).contains(&load), "CNN load {load}");
    }

    #[test]
    fn slo_range_produces_heterogeneous_deadlines() {
        let w = WorkloadBuilder::new(Scenario::MultiCnn)
            .slo_multiplier_range(5.0, 50.0)
            .num_requests(100)
            .samples_per_variant(4)
            .seed(8)
            .build();
        let mut multipliers: Vec<f64> = w
            .requests()
            .iter()
            .map(|r| r.slo_ns as f64 / w.traces_for(r).avg_latency_ns())
            .collect();
        multipliers.sort_by(f64::total_cmp);
        assert!(multipliers[0] >= 4.9);
        assert!(*multipliers.last().unwrap() <= 50.1);
        assert!(
            multipliers.last().unwrap() - multipliers[0] > 20.0,
            "range should actually spread"
        );
    }

    #[test]
    #[should_panic(expected = "need 1 <= lo <= hi")]
    fn slo_range_rejects_inverted_bounds() {
        let _ = WorkloadBuilder::new(Scenario::MultiCnn).slo_multiplier_range(50.0, 5.0);
    }

    #[test]
    #[should_panic(expected = "sorted by arrival")]
    fn from_parts_rejects_unsorted() {
        let w = small(Scenario::MultiCnn);
        let mut reqs = w.requests().to_vec();
        reqs.reverse();
        let _ = Workload::from_parts(reqs, w.store().clone());
    }
}
