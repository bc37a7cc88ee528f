//! CI smoke for the shipped scenario files: every `scenarios/*.json`
//! must parse through the validating loader and actually serve — a
//! bounded streamed prefix is run through a small cluster so a file
//! that validates but generates garbage (or a loader/generator drift)
//! fails the pipeline instead of the first user who tries the example.
//!
//! Usage: `scenario_smoke [scenarios-dir]` (default `scenarios/`). An
//! unreadable directory, an invalid file, or a valid file whose stream
//! yields no requests prints one line naming the path and exits with
//! status 1. A flag or a second argument prints one usage line and
//! exits with status 2.

use dysta::cluster::{simulate_cluster, ClusterConfig, ClusterPolicy, DispatchPolicy};
use dysta::core::Policy;
use dysta::obs::NullTracer;
use dysta::workload::{load_scenario, RequestSource, StreamSpec};

/// Cap on the streamed prefix per file: enough to cross the shipped
/// phase boundaries' first seconds without burning CI minutes on the
/// files' full million-request-scale runs.
const MAX_REQUESTS: u64 = 1_000;

fn fail(msg: &str) -> ! {
    eprintln!("scenario_smoke: {msg}");
    std::process::exit(1);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let dir = match args.as_slice() {
        [] => "scenarios".to_string(),
        [dir] if !dir.starts_with('-') => dir.clone(),
        _ => {
            eprintln!(
                "scenario_smoke: cannot read arguments `{}`; usage: scenario_smoke [SCENARIOS_DIR]",
                args.join(" ")
            );
            std::process::exit(2);
        }
    };
    let entries = std::fs::read_dir(&dir)
        .and_then(|entries| entries.collect::<Result<Vec<_>, _>>())
        .unwrap_or_else(|e| fail(&format!("cannot read scenario dir {dir}: {e}")));
    let mut files: Vec<_> = entries
        .into_iter()
        .map(|entry| entry.path())
        .filter(|p| p.extension().is_some_and(|e| e == "json"))
        .collect();
    files.sort();
    if files.is_empty() {
        fail(&format!("no scenario files found under {dir}"));
    }

    for path in &files {
        let spec =
            load_scenario(path).unwrap_or_else(|e| fail(&format!("{}: {e}", path.display())));
        // Serve a bounded prefix: same phases, mix, and trace
        // resolution, capped request count.
        let capped = StreamSpec {
            num_requests: spec.num_requests.min(MAX_REQUESTS),
            ..spec
        };
        let store = capped.build_store();
        // A stream may end before its budget (arrivals past the end of
        // the clock), so count what it yields: for a capped prefix a
        // second generation pass is cheap.
        let streamed = capped.source(&store).count();
        let mut source = capped.source(&store);
        let Some(first_arrival) = source.peek_arrival_ns() else {
            fail(&format!("{}: stream yields no requests", path.display()));
        };
        let pool = ClusterConfig::heterogeneous(2, 2, Policy::Dysta);
        let mut policy = ClusterPolicy::from_dispatch(DispatchPolicy::SparsityAffinity);
        let report = simulate_cluster(source, &mut policy, &pool, NullTracer);
        assert_eq!(
            report.completed_total(),
            streamed,
            "{}: every streamed request must complete on the open pool",
            path.display()
        );
        println!(
            "ok {:<28} {} phases, {} requests streamed (first arrival {:.3} s), \
             p99 {:.2} ms, peak live {}",
            path.file_name().and_then(|n| n.to_str()).unwrap_or("?"),
            capped.phases.len(),
            streamed,
            first_arrival as f64 / 1e9,
            report.turnaround_percentile_ns(99.0) as f64 / 1e6,
            report.serving().peak_live_requests,
        );
    }
    println!(
        "{} scenario files parsed, validated, and served",
        files.len()
    );
}
