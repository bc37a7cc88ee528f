//! CI smoke check for the tracing layer: runs a small traced serving
//! scenario that fires every event kind, validates the event stream,
//! writes the Perfetto export to a file, reads it back, and asserts the
//! JSON parses with well-formed per-request event sequences and a
//! closed dispatch flow for every request. Exits
//! non-zero (with a human-readable reason) on any malformation or on a
//! kind the scenario never fired, so a broken exporter or a dropped
//! emit site fails the build rather than shipping an unopenable trace.
//!
//! Usage: `trace_check [--trace PATH]` (default
//! `target/trace_check.json`); any other argument prints a usage line
//! and exits with status 2.

use dysta::cluster::{
    balanced_mixed_serving_mix, simulate_cluster, ClusterPolicy, DispatchPolicy, FaultConfig,
    FaultSchedule, FrontendConfig, RecoveryConfig, SlackLoadShedding, TransferCostConfig,
};
use dysta::core::Policy;
use dysta::obs::{EventKind, RingTracer};
use dysta::workload::WorkloadBuilder;
use dysta_bench::serving::capacity_het_pool;
use dysta_bench::trace_arg;

fn fail(msg: &str) -> ! {
    eprintln!("trace_check: {msg}");
    std::process::exit(1);
}

fn main() {
    let out = trace_arg("trace_check").unwrap_or_else(|| "target/trace_check.json".into());

    // Small but eventful: mixed traffic at a tight SLO on the 2+2
    // capacity-heterogeneous pool behind the costed serving front-end
    // (batching, load shedding, stealing, migration), with crashes,
    // a brown-out and a transfer stall, so every event kind fires.
    let ms = 1_000_000;
    let workload = WorkloadBuilder::from_mix(balanced_mixed_serving_mix())
        .arrival_rate(9.0)
        .slo_multiplier(4.0)
        .num_requests(120)
        .samples_per_variant(8)
        .seed(7)
        .build();
    let schedule = FaultSchedule::new()
        .transient_crash(0, 1_000 * ms, 1_600 * ms)
        .transient_crash(0, 3_000 * ms, 3_500 * ms)
        .crash(1, 2_000 * ms)
        .crash(2, 2_600 * ms)
        .brownout(2, 800 * ms, 2_000 * ms, 0.5)
        .transfer_stall(3, 500 * ms, 3_000 * ms, 4.0);
    let pool = capacity_het_pool(Policy::Dysta)
        .frontend(FrontendConfig::serving_costed())
        .transfer_cost(TransferCostConfig::default_costed())
        .faults(FaultConfig {
            schedule,
            recovery: RecoveryConfig {
                salvage: true,
                max_retries: 1,
                reneging: true,
            },
        })
        .build();
    let mut policy = ClusterPolicy::from_dispatch(DispatchPolicy::EarliestDeadlineFirst)
        .with_admission(Box::new(SlackLoadShedding::new()));
    let tracer = RingTracer::new(1 << 16);
    let report = simulate_cluster(workload.source(), &mut policy, &pool, &tracer);

    if tracer.dropped() > 0 {
        fail("ring overflowed on the smoke scenario; grow the capacity");
    }
    if let Err(e) = tracer.validate() {
        fail(&format!("event stream malformed: {e}"));
    }

    let silent: Vec<&str> = EventKind::ALL
        .into_iter()
        .filter(|&kind| tracer.kind_count(kind) == 0)
        .map(EventKind::name)
        .collect();
    if !silent.is_empty() {
        fail(&format!("no {} event fired", silent.join(", no ")));
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
        .unwrap_or_else(|| fail("export lacks traceEvents"))
    {
        serde::Value::Array(a) => a,
        _ => fail("traceEvents is not an array"),
    };
    if events.is_empty() {
        fail("export holds no events");
    }
    // Every Chrome-trace record needs a phase and a pid, and every
    // request's dispatch flow must end (completion, renege or failure).
    let (mut starts, mut ends) = (0usize, 0usize);
    for e in events {
        match (e.field("ph"), e.field("pid")) {
            (Some(serde::Value::Str(ph)), Some(_)) if ph == "s" => starts += 1,
            (Some(serde::Value::Str(ph)), Some(_)) if ph == "f" => ends += 1,
            (Some(_), Some(_)) => {}
            _ => fail("trace event missing required ph/pid fields"),
        }
    }
    if starts != ends {
        fail(&format!(
            "{starts} flow starts but {ends} flow ends: a request's flow dangles"
        ));
    }

    println!(
        "trace_check: OK — {} events ({} requests, {} completed, all {} kinds) exported to {} \
         and re-parsed",
        events.len(),
        timelines.len(),
        completed,
        EventKind::COUNT,
        out.display(),
    );
}
