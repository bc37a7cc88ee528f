//! `paper_replay`: the Table 5 setup on one accelerator. Two traffic
//! classes (multi-AttNN at 30 req/s, multi-CNN at 3 req/s, SLO ×10,
//! 1000 requests, 64 trace samples per variant) × 5 workload seeds ×
//! every shipped policy, through `simulate`: 80 ops per pass over one
//! input set. Passes cycle through `PAPER_SETS` input sets, building
//! each set right before its pass. Only the `workload`, `trace`, `core`
//! and `sim` layers run here.

use crate::adapter::{
    self, Outcome, PaperInputs, Profile, SchedStats, PAPER_OPS_PER_SET, PAPER_REQUESTS, PAPER_SETS,
};
use crate::layers::Layers;
use crate::measure::{median, quantile, same_as_first, Budget, HostSpeed, Ops, Report, Rotation};

fn check(outcome: &Outcome) -> Result<(), String> {
    outcome.check_conservation()?;
    if outcome.completed != PAPER_REQUESTS as u64 {
        return Err(format!(
            "completed {} of {PAPER_REQUESTS} requests",
            outcome.completed
        ));
    }
    Ok(())
}

/// One untraced pass over every workload × policy. Returns the pass's
/// host seconds inside `simulate`, its events, and each op's seconds.
fn pass(
    inputs: &PaperInputs,
    ops: &mut Ops,
    reference: &mut [Option<Outcome>],
) -> (f64, u64, Vec<f64>) {
    let policies = adapter::paper_policies();
    let mut secs = 0.0;
    let mut events = 0;
    let mut op_secs = Vec::new();
    for w in 0..inputs.workloads() {
        for (p, name) in policies.iter().enumerate() {
            let slot = &mut reference[w * policies.len() + p];
            let run = ops.run(&format!("simulate workload {w} policy {name}"), || {
                let run = adapter::paper_run(inputs, w, p);
                check(&run.value)?;
                same_as_first(slot, &run.value, "outcome")?;
                Ok(run)
            });
            if let Some(run) = run {
                secs += run.secs;
                events += run.value.events;
                op_secs.push(run.secs);
            }
        }
    }
    (secs, events, op_secs)
}

/// Every input set's first outcomes, per op, against which each
/// repetition is checked.
fn references() -> Vec<Vec<Option<Outcome>>> {
    (0..PAPER_SETS)
        .map(|_| vec![None; PAPER_OPS_PER_SET])
        .collect()
}

pub fn run(seed: u64, seconds: u64) -> Report {
    let budget = Budget::new(seconds);
    let mut ops = Ops::default();
    let mut reference = references();
    let mut setup_secs = Vec::new();
    let mut rotation = Rotation::new(PAPER_SETS as usize);
    let mut passes = 0;
    let mut speed = HostSpeed::start();
    // Passes cycle through the input sets, at least once each, so every
    // set's simulated outcome and time are known.
    while budget.more(passes, PAPER_SETS as usize) {
        let set = passes % PAPER_SETS as usize;
        passes += 1;
        let setup = adapter::paper_setup(seed, set as u64);
        let (secs, events, _) = pass(&setup.value, &mut ops, &mut reference[set]);
        let slowdown = speed.slowdown();
        setup_secs.push(setup.secs / slowdown);
        rotation.record(set, events, secs / slowdown);
    }
    let outcomes: Vec<Outcome> = reference.into_iter().flatten().flatten().collect();
    let mut report = Report::new(ops);
    report.end_to_end(rotation.events_per_s(), &setup_secs, &outcomes);
    report
}

/// One traced pass: `simulate_traced` with every scheduler wrapped.
/// Returns the pass's host seconds and summed scheduler statistics per
/// policy, and checks each outcome against the untraced reference.
fn traced_pass(
    inputs: &PaperInputs,
    ops: &mut Ops,
    reference: &mut [Option<Outcome>],
    profile: &Profile,
    preemptions: &mut u64,
) -> (f64, Vec<SchedStats>) {
    let policies = adapter::paper_policies();
    let mut secs = 0.0;
    let mut stats = vec![SchedStats::default(); policies.len()];
    for w in 0..inputs.workloads() {
        for (p, name) in policies.iter().enumerate() {
            let slot = &mut reference[w * policies.len() + p];
            let run = ops.run(
                &format!("traced simulate workload {w} policy {name}"),
                || {
                    let (run, sched) = adapter::paper_run_traced(inputs, w, p, profile);
                    check(&run.value)?;
                    same_as_first(slot, &run.value, "traced outcome")?;
                    Ok((run, sched))
                },
            );
            if let Some((run, sched)) = run {
                secs += run.secs;
                *preemptions += run.value.preemptions;
                stats[p].add(&sched);
            }
        }
    }
    (secs, stats)
}

pub fn run_traced(seed: u64, seconds: u64) -> Report {
    let budget = Budget::new(seconds);
    let mut ops = Ops::default();
    let mut layers = Layers {
        trace_store_ms: adapter::paper_store_secs(seed, 0) * 1e3,
        ..Layers::default()
    };

    let mut reference = references();
    let profile = Profile::default();
    let mut setup_secs = Vec::new();
    let mut op_secs = Vec::new();
    let mut overheads = Vec::new();
    let mut traced_secs = 0.0;
    let mut events = 0;
    let mut preemptions = 0;
    let mut stats = vec![SchedStats::default(); adapter::paper_policies().len()];
    while budget.more(overheads.len(), 2) {
        let set = overheads.len() as u64 % PAPER_SETS;
        let setup = adapter::paper_setup(seed, set);
        setup_secs.push(setup.secs);
        let inputs = setup.value;
        layers.workload_requests = inputs.requests() as f64;
        layers.trace_store_builds = inputs.workloads() as f64;
        let reference = &mut reference[set as usize];
        let (plain, pass_events, secs) = pass(&inputs, &mut ops, reference);
        op_secs.extend(secs);
        let (traced, pass_stats) =
            traced_pass(&inputs, &mut ops, reference, &profile, &mut preemptions);
        overheads.push((traced / plain - 1.0) * 100.0);
        traced_secs += traced;
        for (acc, s) in stats.iter_mut().zip(&pass_stats) {
            acc.add(s);
        }
        events += pass_events;
    }
    layers.workload_build_ms = median(&setup_secs) * 1e3;
    let passes = overheads.len() as f64;
    let mut all = SchedStats::default();
    for s in &stats {
        all.add(s);
    }
    let per_pick = |s: &SchedStats| s.pick_ns as f64 / s.picks.max(1) as f64;
    layers.core_picks = all.picks as f64 / passes;
    layers.core_pick_ns_mean = per_pick(&all);
    for (slot, s) in layers.core_pick_ns.iter_mut().zip(&stats) {
        *slot = per_pick(s);
    }
    layers.core_hook_calls = all.hook_calls as f64 / passes;
    layers.core_hook_ns_mean = all.hook_ns as f64 / all.hook_calls.max(1) as f64;
    layers.core_queue_len_mean = all.queue_len_sum as f64 / all.picks.max(1) as f64;
    layers.core_queue_len_max = all.queue_len_max as f64;
    layers.core_pick_s = profile.pick_secs() / passes;
    layers.sim_run_ms_p50 = median(&op_secs) * 1e3;
    layers.sim_run_ms_p90 = quantile(&op_secs, 0.9) * 1e3;
    layers.sim_self_ns_per_event =
        (traced_secs * 1e9 - all.pick_ns as f64 - all.hook_ns as f64) / events as f64;
    layers.sim_execute_s = profile.execute_secs() / passes;
    layers.sim_preemptions = preemptions as f64 / passes;
    layers.obs_trace_overhead_pct = median(&overheads);

    let mut report = Report::new(ops);
    layers.emit(&mut report);
    report
}
