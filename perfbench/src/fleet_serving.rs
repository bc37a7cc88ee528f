//! `fleet_serving`: open-loop streams of 10 000 requests (OnOff bursts,
//! Zipfian popularity, SLO 5–15×) streamed into a 32 Eyeriss + 32
//! Sanger pool with EDF dispatch, slack load shedding, costed steals
//! and migrations, a transient crash, a brown-out, salvage and
//! reneging. One op is one `simulate_cluster_stream_with` run; runs
//! cycle through `FLEET_STREAMS` streams. The `cluster` front-end does
//! most of the work.

use crate::adapter::{self, FleetInputs, Outcome, FLEET_REQUESTS, FLEET_STREAMS};
use crate::layers::Layers;
use crate::measure::{median, quantile, same_as_first, Budget, HostSpeed, Ops, Report, Rotation};

/// Set-ups per stream; the last one's inputs are kept.
const SETUP_REPS: usize = 2;

fn check(outcome: &Outcome) -> Result<(), String> {
    outcome.check_conservation()?;
    if outcome.offered != FLEET_REQUESTS {
        return Err(format!(
            "offered {} of {FLEET_REQUESTS} requests",
            outcome.offered
        ));
    }
    Ok(())
}

/// Sets up every stream `SETUP_REPS` times; returns the kept inputs
/// and every set-up time at reference host speed.
fn setup(seed: u64) -> (Vec<FleetInputs>, Vec<f64>) {
    let mut speed = HostSpeed::start();
    let mut inputs = Vec::new();
    let mut secs = Vec::new();
    for stream in 0..FLEET_STREAMS {
        let mut kept = None;
        for _ in 0..SETUP_REPS {
            // Drop the previous copy first so memory holds one per stream.
            drop(kept.take());
            let (s, _) = adapter::fleet_setup(seed, stream);
            secs.push(s.secs / speed.slowdown());
            kept = Some(s.value);
        }
        inputs.push(kept.expect("at least one set-up"));
    }
    (inputs, secs)
}

/// One untraced op, checked; returns its host seconds and events.
fn op(inputs: &FleetInputs, ops: &mut Ops, reference: &mut Option<Outcome>) -> Option<(f64, u64)> {
    ops.run("simulate_cluster_stream_with", || {
        let run = adapter::fleet_run(inputs);
        check(&run.value)?;
        same_as_first(reference, &run.value, "outcome")?;
        Ok((run.secs, run.value.events))
    })
}

pub fn run(seed: u64, seconds: u64) -> Report {
    let budget = Budget::new(seconds);
    let mut ops = Ops::default();
    let (inputs, setup_secs) = setup(seed);
    let mut reference = vec![None; inputs.len()];
    let mut rotation = Rotation::new(inputs.len());
    let mut speed = HostSpeed::start();
    let mut runs = 0;
    // Every stream runs at least once, so its outcome and time are known.
    while budget.more(runs, inputs.len()) {
        let k = runs % inputs.len();
        runs += 1;
        let run = op(&inputs[k], &mut ops, &mut reference[k]);
        let slowdown = speed.slowdown();
        if let Some((secs, events)) = run {
            rotation.record(k, events, secs / slowdown);
        }
    }
    let outcomes: Vec<Outcome> = reference.into_iter().flatten().collect();
    let mut report = Report::new(ops);
    report.end_to_end(rotation.events_per_s(), &setup_secs, &outcomes);
    report
}

/// Alternates an untraced and a traced run of the first stream.
pub fn run_traced(seed: u64, seconds: u64) -> Report {
    let budget = Budget::new(seconds);
    let mut ops = Ops::default();
    let mut layers = Layers::default();
    let (setup, store_secs) = adapter::fleet_setup(seed, 0);
    let inputs = setup.value;
    layers.trace_store_ms = store_secs * 1e3;
    layers.trace_store_builds = 1.0;

    let mut reference = None;
    let mut op_secs = Vec::new();
    let mut overheads = Vec::new();
    let mut traced = None;
    let mut rounds = 0;
    while budget.more(rounds, 2) {
        rounds += 1;
        let Some((plain, _)) = op(&inputs, &mut ops, &mut reference) else {
            continue;
        };
        op_secs.push(plain);
        let run = ops.run("traced simulate_cluster_traced", || {
            let run = adapter::fleet_run_traced(&inputs);
            same_as_first(&mut reference, &run.outcome, "traced outcome")?;
            Ok(run)
        });
        if let Some(run) = run {
            overheads.push((run.secs / plain - 1.0) * 100.0);
            traced = Some(run);
        }
    }
    if let Some(run) = &traced {
        layers.workload_build_ms = run.generation_ns as f64 * 1e-6;
        layers.workload_next_request_ns_mean = run.generation_ns as f64 / run.requests as f64;
        layers.workload_requests = run.requests as f64;
        layers.cluster(
            std::slice::from_ref(&run.outcome),
            &run.profile,
            &run.policy,
            run.secs,
        );
    }
    layers.sim_run_ms_p50 = median(&op_secs) * 1e3;
    layers.sim_run_ms_p90 = quantile(&op_secs, 0.9) * 1e3;
    layers.obs_trace_overhead_pct = median(&overheads);

    let mut report = Report::new(ops);
    report.check(traced.is_some(), "a traced run completed");
    layers.emit(&mut report);
    report
}
