//! `sweep_grid`: the `fleet_sweep` full grid (2 + 2 pool, 5 seeds × 5
//! dispatchers × 2 scenarios, 1000 requests per cell) through
//! `SweepGrid::run` on every available core. One op is one whole grid.
//! Each cell builds its own trace library and dispatches immediately,
//! so this exercises the grid fan-out, per-cell trace generation and
//! the `cluster` engine in its simplest mode.
//!
//! `SweepGrid` rows carry no event counts or turnarounds, so a
//! sequential replay of the same cells by direct calls supplies them;
//! every grid run must reproduce the replay's rows exactly.

use crate::adapter::{self, Outcome, Replay, SweepInputs};
use crate::layers::Layers;
use crate::measure::{median, quantile, Budget, HostSpeed, Ops, Report, Rotation};

/// Set-up takes well under a microsecond, so each set-up time is the
/// mean of a batch, and the median is over many batches.
const SETUP_BATCH: usize = 64;
const SETUP_REPS: usize = 31;
const MIN_GRIDS: usize = 3;

fn workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Sets up `SETUP_REPS` times; returns the last inputs and every
/// set-up time at reference host speed.
fn setup(seed: u64) -> (SweepInputs, Vec<f64>) {
    let mut secs = Vec::new();
    let mut inputs = None;
    let mut speed = HostSpeed::start();
    for _ in 0..SETUP_REPS {
        let s = adapter::sweep_setup(seed, SETUP_BATCH);
        secs.push(s.secs);
        inputs = Some(s.value);
    }
    let slowdown = speed.slowdown();
    for s in &mut secs {
        *s /= slowdown;
    }
    (inputs.expect("at least one set-up"), secs)
}

fn check(outcome: &Outcome, requests: u64) -> Result<(), String> {
    outcome.check_conservation()?;
    if outcome.offered != requests || outcome.completed != requests {
        return Err(format!(
            "cell offered {} and completed {} of {requests} requests",
            outcome.offered, outcome.completed
        ));
    }
    Ok(())
}

/// A checked sequential replay; later replays must equal `reference`.
fn replay(inputs: &SweepInputs, ops: &mut Ops, reference: Option<&Replay>) -> Option<Replay> {
    ops.run("sequential replay", || {
        let replay = adapter::sweep_replay(inputs);
        for cell in &replay.cells {
            check(&cell.outcome, inputs.requests_per_cell())?;
        }
        if let Some(first) = reference {
            let same = first.rows == replay.rows
                && first
                    .cells
                    .iter()
                    .zip(&replay.cells)
                    .all(|(a, b)| a.outcome == b.outcome);
            if !same {
                return Err("replay differs from the first replay".into());
            }
        }
        Ok(replay)
    })
}

/// One checked grid run; returns its host seconds.
fn grid(inputs: &SweepInputs, ops: &mut Ops, reference: Option<&Replay>) -> Option<f64> {
    let workers = workers();
    ops.run("SweepGrid::run", || {
        let run = adapter::sweep_run(inputs, workers);
        match reference {
            Some(r) if r.rows == run.value => Ok(run.secs),
            Some(_) => Err("grid rows differ from the sequential replay".into()),
            None => Err("no sequential replay to check against".into()),
        }
    })
}

fn outcomes(replay: Option<&Replay>) -> Vec<Outcome> {
    replay.map_or_else(Vec::new, |r| {
        r.cells.iter().map(|c| c.outcome.clone()).collect()
    })
}

pub fn run(seed: u64, seconds: u64) -> Report {
    let budget = Budget::new(seconds);
    let mut ops = Ops::default();
    let (inputs, setup_secs) = setup(seed);
    println!("sweep_grid: {} workers", workers());
    let reference = replay(&inputs, &mut ops, None);
    let pass = outcomes(reference.as_ref());
    let events: u64 = pass.iter().map(|o| o.events).sum();
    let mut rotation = Rotation::new(1);
    let mut grids = 0;
    let mut speed = HostSpeed::start();
    while budget.more(grids, MIN_GRIDS) {
        grids += 1;
        let run = grid(&inputs, &mut ops, reference.as_ref());
        let slowdown = speed.slowdown();
        if let Some(secs) = run {
            rotation.record(0, events, secs / slowdown);
        }
    }
    let mut report = Report::new(ops);
    report.end_to_end(rotation.events_per_s(), &setup_secs, &pass);
    report
}

pub fn run_traced(seed: u64, seconds: u64) -> Report {
    let budget = Budget::new(seconds);
    let mut ops = Ops::default();
    let mut layers = Layers::default();
    let (inputs, _) = setup(seed);
    let workers = workers();
    println!("sweep_grid: {workers} workers");

    let reference = replay(&inputs, &mut ops, None);
    let mut walls = Vec::new();
    for _ in 0..MIN_GRIDS {
        walls.extend(grid(&inputs, &mut ops, reference.as_ref()));
    }
    let mut run_secs = Vec::new();
    let mut cell_secs = Vec::new();
    let mut grid_cell_secs = Vec::new();
    let mut overheads = Vec::new();
    let mut traced = None;
    let mut rounds = 0;
    while budget.more(rounds, 2) {
        rounds += 1;
        let Some(plain) = replay(&inputs, &mut ops, reference.as_ref()) else {
            continue;
        };
        for cell in &plain.cells {
            run_secs.push(cell.run_secs);
            cell_secs.push(cell.store_secs + cell.run_secs);
        }
        grid_cell_secs.push(
            plain
                .cells
                .iter()
                .map(|c| c.store_secs + c.run_secs)
                .sum::<f64>(),
        );
        let run = ops.run("traced replay", || {
            let run = adapter::sweep_replay_traced(&inputs);
            match &reference {
                Some(r) if r.rows == run.rows && outcomes(Some(r)) == run.outcomes => Ok(run),
                Some(_) => Err("traced replay differs from the untraced replay".into()),
                None => Err("no untraced replay to check against".into()),
            }
        });
        if let Some(run) = run {
            overheads.push((run.secs / plain.secs - 1.0) * 100.0);
            traced = Some(run);
        }
    }

    if let Some(run) = &traced {
        layers.workload_build_ms = run.generation_ns as f64 * 1e-6;
        layers.workload_next_request_ns_mean = run.generation_ns as f64 / run.requests as f64;
        layers.workload_requests = run.requests as f64;
        layers.cluster(&run.outcomes, &run.profile, &run.policy, run.run_secs);
    }
    if let Some(r) = &reference {
        layers.trace_store_ms = r.cells.iter().map(|c| c.store_secs).sum::<f64>() * 1e3;
        layers.trace_store_builds = r.cells.len() as f64;
    }
    layers.sim_run_ms_p50 = median(&run_secs) * 1e3;
    layers.sim_run_ms_p90 = quantile(&run_secs, 0.9) * 1e3;
    layers.sweep_cells = inputs.cells() as f64;
    layers.sweep_cell_ms_p50 = median(&cell_secs) * 1e3;
    layers.sweep_parallel_efficiency = median(&grid_cell_secs) / (workers as f64 * median(&walls));
    layers.obs_trace_overhead_pct = median(&overheads);

    let mut report = Report::new(ops);
    report.check(traced.is_some(), "a traced replay completed");
    layers.emit(&mut report);
    report
}
