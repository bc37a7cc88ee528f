//! Edge cases of the report metrics: degenerate inputs every aggregation
//! must handle without dividing by zero or inventing violations.

use dysta_models::ModelId;
use dysta_sim::{percentile_ns, CompletedRequest, SimReport};
use dysta_sparsity::SparsityPattern;
use dysta_trace::SparseModelSpec;

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
fn empty_report_yields_neutral_metrics() {
    // A cluster node that served nothing reports zero everywhere rather
    // than NaN (which would poison any cluster-level average).
    let r = SimReport::new(Vec::new(), 0, 0);
    assert_eq!(r.completed().len(), 0);
    assert_eq!(r.antt(), 0.0);
    assert_eq!(r.violation_rate(), 0.0);
    assert_eq!(r.throughput_inf_s(), 0.0);
    assert!(r.per_model().is_empty());
    assert!(!r.antt().is_nan());
}

#[test]
fn single_request_report() {
    // One request, served start-to-finish: NTT exactly 1, no violation,
    // throughput over its own span.
    let r = SimReport::new(
        vec![req(
            7,
            1_000_000_000,
            1_500_000_000,
            500_000_000,
            600_000_000,
        )],
        0,
        1,
    );
    assert_eq!(r.completed().len(), 1);
    assert!((r.antt() - 1.0).abs() < 1e-12);
    assert_eq!(r.violation_rate(), 0.0);
    // 1 completion over a 0.5 s span.
    assert!((r.throughput_inf_s() - 2.0).abs() < 1e-9);
    let breakdown = r.per_model();
    assert_eq!(breakdown.len(), 1);
    assert_eq!(breakdown[0].1, 1);
}

#[test]
fn single_instant_request_has_zero_span_and_zero_throughput() {
    // Completion at the arrival instant: the span is empty, throughput
    // must define itself as 0 rather than divide by zero.
    let r = SimReport::new(vec![req(0, 5, 5, 1, 10)], 0, 0);
    assert_eq!(r.throughput_inf_s(), 0.0);
}

#[test]
fn zero_slack_slo_boundary_is_not_a_violation() {
    // SLO equal to the achieved turnaround: the paper counts a request
    // violated only when turnaround *exceeds* the SLO.
    let exact = req(0, 100, 200, 100, 100); // turnaround 100 == slo 100
    assert!(!exact.violated());
    let over = req(1, 100, 201, 100, 100);
    assert!(over.violated());
    let r = SimReport::new(vec![exact, over], 0, 0);
    assert!((r.violation_rate() - 0.5).abs() < 1e-12);
}

#[test]
fn normalized_turnaround_clamps_zero_isolated_time() {
    // A degenerate trace with zero isolated time must not divide by
    // zero: the denominator clamps to 1 ns.
    let c = req(0, 0, 50, 0, 100);
    assert!((c.normalized_turnaround() - 50.0).abs() < 1e-12);
    assert!(c.normalized_turnaround().is_finite());
    let r = SimReport::new(vec![c], 0, 0);
    assert!(r.antt().is_finite());
}

#[test]
fn percentiles_match_hand_computed_values() {
    // Nearest-rank on {10, 20, 30, 40, 50}: rank = ceil(p/100 * 5).
    let v = [50, 10, 40, 20, 30]; // unsorted on purpose
    assert_eq!(percentile_ns(&v, 50.0), 30); // ceil(2.5) = 3rd
    assert_eq!(percentile_ns(&v, 90.0), 50); // ceil(4.5) = 5th
    assert_eq!(percentile_ns(&v, 99.0), 50);
    assert_eq!(percentile_ns(&v, 20.0), 10); // ceil(1.0) = 1st
    assert_eq!(percentile_ns(&v, 21.0), 20); // ceil(1.05) = 2nd
    assert_eq!(percentile_ns(&v, 0.0), 10); // minimum by convention
    assert_eq!(percentile_ns(&v, 100.0), 50);
    // Even count {10, 20, 30, 40}: the nearest-rank median is the 2nd.
    assert_eq!(percentile_ns(&[40, 30, 20, 10], 50.0), 20);
}

#[test]
fn percentiles_of_empty_and_single_value_sets() {
    // The empty set is 0 at every rank — including both boundary
    // percentiles, where an unguarded nearest-rank index would be out
    // of bounds rather than NaN-like.
    assert_eq!(percentile_ns(&[], 0.0), 0);
    assert_eq!(percentile_ns(&[], 50.0), 0);
    assert_eq!(percentile_ns(&[], 99.0), 0);
    assert_eq!(percentile_ns(&[], 100.0), 0);
    for p in [0.0, 50.0, 90.0, 99.0, 100.0] {
        assert_eq!(percentile_ns(&[7], p), 7, "p{p}");
    }
}

#[test]
#[should_panic(expected = "percentile must be in [0, 100]")]
fn out_of_range_percentile_rejected() {
    let _ = percentile_ns(&[1, 2, 3], 101.0);
}

#[test]
fn report_turnaround_percentiles() {
    // Turnarounds: 10, 20, 40 ns.
    let r = SimReport::new(
        vec![
            req(0, 0, 10, 5, 100),
            req(1, 5, 25, 5, 100),
            req(2, 10, 50, 5, 100),
        ],
        0,
        0,
    );
    assert_eq!(r.turnaround_percentile_ns(50.0), 20);
    assert_eq!(r.turnaround_percentile_ns(99.0), 40);
    // Empty report: percentiles are 0, like the other neutral metrics.
    let empty = SimReport::new(Vec::new(), 0, 0);
    assert_eq!(empty.turnaround_percentile_ns(99.0), 0);
    // Single request: every percentile is its turnaround.
    let single = SimReport::new(vec![req(0, 100, 130, 30, 100)], 0, 1);
    assert_eq!(single.turnaround_percentile_ns(50.0), 30);
    assert_eq!(single.turnaround_percentile_ns(99.0), 30);
}
