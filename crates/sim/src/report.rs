//! Simulation results and summary metrics.

use serde::{Deserialize, Serialize};

use dysta_trace::SparseModelSpec;

/// The lifecycle record of one completed request.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CompletedRequest {
    /// Request id.
    pub id: u64,
    /// Sparse-model variant.
    pub spec: SparseModelSpec,
    /// Arrival time (ns).
    pub arrival_ns: u64,
    /// Completion time (ns).
    pub completion_ns: u64,
    /// Isolated execution time `T_isol` (ns).
    pub isolated_ns: u64,
    /// Relative latency SLO (ns).
    pub slo_ns: u64,
}

impl CompletedRequest {
    /// Turnaround time under multi-tenancy `T_multi` (ns).
    pub fn turnaround_ns(&self) -> u64 {
        self.completion_ns - self.arrival_ns
    }

    /// Normalized turnaround `T_multi / T_isol` (≥ 1).
    pub fn normalized_turnaround(&self) -> f64 {
        self.turnaround_ns() as f64 / self.isolated_ns.max(1) as f64
    }

    /// True if the request missed its latency SLO.
    pub fn violated(&self) -> bool {
        self.turnaround_ns() > self.slo_ns
    }
}

/// Aggregate metrics of one run — the paper's evaluation triple.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Metrics {
    /// Average normalized turnaround time (Eyerman & Eeckhout).
    pub antt: f64,
    /// Fraction of requests that missed their SLO, in `[0, 1]`.
    pub violation_rate: f64,
    /// System throughput in completed inferences per second.
    pub throughput_inf_s: f64,
}

/// Nearest-rank percentile of a set of nanosecond samples: the smallest
/// sample such that at least `p` percent of the set is `<=` it. Defined
/// as 0 for an empty set (mirroring the other neutral empty-report
/// metrics) and as the minimum for `p == 0`.
///
/// # Panics
///
/// Panics if `p` is outside `[0, 100]`.
///
/// # Examples
///
/// ```
/// use dysta_sim::percentile_ns;
///
/// let waits = [40, 10, 20, 30];
/// assert_eq!(percentile_ns(&waits, 50.0), 20);
/// assert_eq!(percentile_ns(&waits, 99.0), 40);
/// assert_eq!(percentile_ns(&[], 99.0), 0);
/// ```
pub fn percentile_ns(values: &[u64], p: f64) -> u64 {
    assert!(
        (0.0..=100.0).contains(&p),
        "percentile must be in [0, 100], got {p}"
    );
    if values.is_empty() {
        return 0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_unstable();
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// What [`summarize`] reads off a set of completion records.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompletionSummary<const N: usize> {
    /// ANTT, violation rate and throughput (each 0 for no records).
    pub metrics: Metrics,
    /// First arrival to last completion (ns; 0 for no records).
    pub span_ns: u64,
    /// Nearest-rank turnaround at each requested percentile (ns).
    pub turnaround_ns: [u64; N],
}

/// Summarizes completion records in one pass: the evaluation triple over
/// the observation window, and the nearest-rank turnaround
/// ([`percentile_ns`]) at each of `percentiles` (turnarounds are
/// collected only when `N > 0`). Sums run in iteration order.
///
/// # Panics
///
/// Panics if a percentile is outside `[0, 100]`.
pub fn summarize<'a, const N: usize>(
    completed: impl IntoIterator<Item = &'a CompletedRequest>,
    percentiles: [f64; N],
) -> CompletionSummary<N> {
    let (mut count, mut ntt_sum, mut violations) = (0usize, 0.0, 0usize);
    let (mut first, mut last) = (u64::MAX, 0);
    let mut turnarounds = Vec::new();
    for c in completed {
        count += 1;
        ntt_sum += c.normalized_turnaround();
        violations += usize::from(c.violated());
        first = first.min(c.arrival_ns);
        last = last.max(c.completion_ns);
        if N > 0 {
            turnarounds.push(c.turnaround_ns());
        }
    }
    let span_ns = last.saturating_sub(first);
    let n = count.max(1) as f64;
    CompletionSummary {
        metrics: Metrics {
            antt: ntt_sum / n,
            violation_rate: violations as f64 / n,
            throughput_inf_s: if span_ns == 0 {
                0.0
            } else {
                count as f64 / (span_ns as f64 / 1e9)
            },
        },
        span_ns,
        turnaround_ns: percentiles.map(|p| percentile_ns(&turnarounds, p)),
    }
}

/// The full outcome of one simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    completed: Vec<CompletedRequest>,
    preemptions: u64,
    scheduler_invocations: u64,
}

impl SimReport {
    /// Assembles a report. An empty completion list is allowed (a
    /// cluster node that was never routed a request reports one).
    pub fn new(
        completed: Vec<CompletedRequest>,
        preemptions: u64,
        scheduler_invocations: u64,
    ) -> Self {
        SimReport {
            completed,
            preemptions,
            scheduler_invocations,
        }
    }

    /// All completed requests, sorted by id.
    pub fn completed(&self) -> &[CompletedRequest] {
        &self.completed
    }

    /// Number of times execution switched between different requests.
    pub fn preemptions(&self) -> u64 {
        self.preemptions
    }

    /// Number of scheduling decisions taken (one per executed quantum),
    /// including the forced single-task ones the engine took without
    /// calling [`dysta_core::Scheduler::pick_next`].
    pub fn scheduler_invocations(&self) -> u64 {
        self.scheduler_invocations
    }

    /// Average normalized turnaround time (0 for an empty report).
    pub fn antt(&self) -> f64 {
        self.metrics().antt
    }

    /// SLO violation rate in `[0, 1]` (0 for an empty report).
    pub fn violation_rate(&self) -> f64 {
        self.metrics().violation_rate
    }

    /// System throughput: completions per second of wall-clock span
    /// (first arrival to last completion).
    pub fn throughput_inf_s(&self) -> f64 {
        self.metrics().throughput_inf_s
    }

    /// Nearest-rank percentile of per-request turnaround time — the
    /// tail-latency view serving systems are judged by (p99 next to the
    /// mean-centric ANTT). 0 for an empty report.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 100]`.
    pub fn turnaround_percentile_ns(&self, p: f64) -> u64 {
        summarize(&self.completed, [p]).turnaround_ns[0]
    }

    /// The three paper metrics as one value.
    pub fn metrics(&self) -> Metrics {
        summarize(&self.completed, []).metrics
    }

    /// Per-model breakdown: `(model, request count, ANTT, violation
    /// rate)`, sorted by model id. Shows *which* tenants a scheduler
    /// sacrifices (FCFS hurts short models, EDF hurts long ones).
    pub fn per_model(&self) -> Vec<(dysta_models::ModelId, usize, f64, f64)> {
        let mut by_model = std::collections::BTreeMap::<_, Vec<_>>::new();
        for c in &self.completed {
            by_model.entry(c.spec.model).or_default().push(c);
        }
        by_model
            .into_iter()
            .map(|(model, records)| {
                let m = summarize(records.iter().copied(), []).metrics;
                (model, records.len(), m.antt, m.violation_rate)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dysta_models::ModelId;
    use dysta_sparsity::SparsityPattern;

    fn req(id: u64, arrival: u64, completion: u64, isolated: u64, slo: u64) -> CompletedRequest {
        CompletedRequest {
            id,
            spec: SparseModelSpec::new(ModelId::MobileNet, SparsityPattern::Dense, 0.0),
            arrival_ns: arrival,
            completion_ns: completion,
            isolated_ns: isolated,
            slo_ns: slo,
        }
    }

    #[test]
    fn antt_formula() {
        // NTTs: 2.0 and 4.0 -> ANTT 3.0.
        let r = SimReport::new(vec![req(0, 0, 20, 10, 100), req(1, 0, 40, 10, 100)], 0, 0);
        assert!((r.antt() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn violation_rate_counts_misses() {
        let r = SimReport::new(
            vec![
                req(0, 0, 20, 10, 15), // violated (turnaround 20 > 15)
                req(1, 0, 12, 10, 15), // met
            ],
            0,
            0,
        );
        assert!((r.violation_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn throughput_spans_first_arrival_to_last_completion() {
        let r = SimReport::new(
            vec![
                req(0, 1_000_000_000, 2_000_000_000, 10, u64::MAX),
                req(1, 1_500_000_000, 3_000_000_000, 10, u64::MAX),
            ],
            0,
            0,
        );
        // 2 completions over 2 seconds.
        assert!((r.throughput_inf_s() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn per_model_breakdown_partitions_requests() {
        let mut bert_req = req(0, 0, 20, 10, 15);
        bert_req.spec = SparseModelSpec::new(ModelId::Bert, SparsityPattern::Dense, 0.0);
        let r = SimReport::new(vec![bert_req, req(1, 0, 12, 10, 15)], 0, 0);
        let breakdown = r.per_model();
        assert_eq!(breakdown.len(), 2);
        let total: usize = breakdown.iter().map(|(_, n, _, _)| n).sum();
        assert_eq!(total, 2);
        let bert = breakdown
            .iter()
            .find(|(m, ..)| *m == ModelId::Bert)
            .unwrap();
        assert_eq!(bert.1, 1);
        assert!((bert.2 - 2.0).abs() < 1e-12); // NTT 20/10
        assert_eq!(bert.3, 1.0); // violated
    }

    #[test]
    fn ntt_is_at_least_one_for_feasible_schedules() {
        let c = req(0, 0, 10, 10, 100);
        assert!(c.normalized_turnaround() >= 1.0);
        assert!(!c.violated());
    }
}
