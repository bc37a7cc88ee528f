//! CI smoke check for the tracing layer: runs a small traced serving
//! scenario, validates the event stream, writes the Perfetto export to
//! a file, reads it back, and asserts the JSON parses with well-formed
//! per-request event sequences. Exits non-zero (with a human-readable
//! reason) on any malformation, so a broken exporter fails the build
//! rather than shipping an unopenable trace.
//!
//! Usage: `trace_check [--trace PATH]` (default
//! `target/trace_check.json`); any other argument prints a usage line
//! and exits with status 2.

use dysta::cluster::{
    simulate_cluster_traced, ClusterBuilder, ClusterPolicy, DispatchPolicy, FrontendConfig,
    TransferCostConfig,
};
use dysta::core::Policy;
use dysta::obs::RingTracer;
use dysta::workload::{Scenario, WorkloadBuilder};
use dysta_bench::trace_arg;

fn fail(msg: &str) -> ! {
    eprintln!("trace_check: {msg}");
    std::process::exit(1);
}

fn main() {
    let out = trace_arg("trace_check").unwrap_or_else(|| "target/trace_check.json".into());

    // Small but eventful: a heterogeneous pool with the full serving
    // front-end (batching, stealing, migration, costed transfers), so
    // the trace exercises every event kind the exporters handle.
    let workload = WorkloadBuilder::new(Scenario::MultiCnn)
        .arrival_rate(9.0)
        .slo_multiplier(10.0)
        .num_requests(60)
        .samples_per_variant(8)
        .seed(7)
        .build();
    let pool = ClusterBuilder::heterogeneous(1, 1, Policy::Dysta)
        .frontend(FrontendConfig::serving_costed())
        .transfer_cost(TransferCostConfig::default_costed())
        .build();
    let mut policy = ClusterPolicy::from_dispatch(DispatchPolicy::SparsityAffinity);
    let tracer = RingTracer::new(1 << 16);
    let report = simulate_cluster_traced(&workload, &mut policy, &pool, &tracer);

    if tracer.dropped() > 0 {
        fail("ring overflowed on the smoke scenario; grow the capacity");
    }
    if let Err(e) = tracer.validate() {
        fail(&format!("event stream malformed: {e}"));
    }

    // Per-request timelines must be consistent with the report.
    let timelines = tracer.timelines();
    if timelines.len() != workload.requests().len() {
        fail(&format!(
            "expected {} request timelines, got {}",
            workload.requests().len(),
            timelines.len()
        ));
    }
    let completed = timelines
        .iter()
        .filter(|t| t.completion_ns.is_some())
        .count();
    if completed != report.completed_total() {
        fail(&format!(
            "trace shows {completed} completions, report says {}",
            report.completed_total()
        ));
    }

    // Export must round-trip through a JSON parser.
    let json = tracer.perfetto_json();
    std::fs::write(&out, &json)
        .unwrap_or_else(|e| fail(&format!("cannot write {}: {e}", out.display())));
    let raw =
        std::fs::read_to_string(&out).unwrap_or_else(|e| fail(&format!("cannot re-read: {e}")));
    let parsed: serde::Value = serde_json::from_str(&raw)
        .unwrap_or_else(|e| fail(&format!("export is not valid JSON: {e}")));
    let events = match parsed
        .field("traceEvents")
        .unwrap_or_else(|e| fail(&format!("export lacks traceEvents: {e}")))
    {
        serde::Value::Array(a) => a,
        _ => fail("traceEvents is not an array"),
    };
    if events.is_empty() {
        fail("export holds no events");
    }
    // Every Chrome-trace record needs a phase and a pid.
    for e in events {
        if e.field("ph").is_err() || e.field("pid").is_err() {
            fail("trace event missing required ph/pid fields");
        }
    }

    println!(
        "trace_check: OK — {} events ({} requests, {} completed) exported to {} and re-parsed",
        events.len(),
        timelines.len(),
        completed,
        out.display(),
    );
}
