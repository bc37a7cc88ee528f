//! Fleet-scale sweep grids: seed × policy × scenario × SLO cells fanned
//! over scoped threads, results in grid order.
//!
//! Every experiment figure in the paper reduces to a grid of
//! independent cluster runs — the same pool replayed across seeds,
//! dispatch policies, traffic scenarios, and SLO tightness. Each cell
//! is one [`crate::simulate_cluster`] run with its own stream
//! and node engines, so the grid is the natural parallel axis: threads
//! claim cells from a shared cursor and store each row in the slot of
//! its cell index, so the output `Vec<SweepRow>` — and therefore
//! [`SweepGrid::rows_to_json`] — is byte-identical regardless of the
//! thread count. The one thing neighbouring cells share is the trace
//! library: cells of one seed and scenario read the same
//! [`StreamSpec::build_store`] output, so each thread builds it once
//! per run of such cells it claims and keeps it until the key changes.
//!
//! # Examples
//!
//! ```
//! use dysta_cluster::{ClusterConfig, DispatchPolicy, SweepGrid, SweepScenario};
//! use dysta_core::Policy;
//! use dysta_workload::Scenario;
//!
//! let grid = SweepGrid::new(ClusterConfig::heterogeneous(1, 1, Policy::Dysta))
//!     .seeds(vec![1, 2])
//!     .policies(vec![DispatchPolicy::JoinShortestQueue, DispatchPolicy::LeastLoaded])
//!     .scenarios(vec![SweepScenario::new("attnn", Scenario::MultiAttNn, 20.0)])
//!     .slo_multipliers(vec![10.0])
//!     .requests(30)
//!     .samples_per_variant(4);
//! assert_eq!(grid.cell_count(), 4);
//! let sequential = grid.run(1);
//! let parallel = grid.run(4);
//! assert_eq!(
//!     SweepGrid::rows_to_json(&sequential),
//!     SweepGrid::rows_to_json(&parallel)
//! );
//! ```

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

use serde::Serialize;

use dysta_obs::NullTracer;
use dysta_trace::TraceStore;
use dysta_workload::{Scenario, StreamSpec};

use crate::{simulate_cluster, ClusterConfig, ClusterPolicy, DispatchPolicy};

/// One entry of the grid's scenario axis: a traffic scenario with its
/// arrival rate and the stable name the result rows carry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepScenario {
    /// Stable name reported in [`SweepRow::scenario`].
    pub name: &'static str,
    /// The traffic mix.
    pub scenario: Scenario,
    /// Poisson arrival rate in requests per second.
    pub rate: f64,
}

impl SweepScenario {
    /// A named scenario axis entry.
    pub fn new(name: &'static str, scenario: Scenario, rate: f64) -> Self {
        SweepScenario {
            name,
            scenario,
            rate,
        }
    }
}

/// One grid cell's aggregated report — the stable row format the
/// `fleet_sweep` binary emits and the CI sweep-smoke step diffs.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SweepRow {
    /// [`SweepScenario::name`] of the cell's scenario.
    pub scenario: String,
    /// [`DispatchPolicy::name`] of the cell's dispatcher.
    pub policy: String,
    /// Workload seed.
    pub seed: u64,
    /// Poisson arrival rate in requests per second.
    pub rate: f64,
    /// SLO multiplier the stream was generated with.
    pub slo_multiplier: f64,
    /// Average normalized turnaround time.
    pub antt: f64,
    /// Fraction of completions past their SLO.
    pub violation_rate: f64,
    /// Fraction of offered requests completed within their original SLO.
    pub goodput_rate: f64,
    /// Completed inferences per second over the run's span.
    pub throughput_inf_s: f64,
    /// Requests completed.
    pub completed: u64,
}

/// A seed × policy × scenario × SLO sweep over one cluster
/// configuration, one cell per thread at a time.
///
/// Cell order is canonical — seeds outermost, then policies, then
/// scenarios, then SLO multipliers — and [`SweepGrid::run`] returns
/// rows in exactly that order whatever the thread count.
#[derive(Debug, Clone)]
pub struct SweepGrid {
    /// The pool every cell replays.
    pub config: ClusterConfig,
    /// Workload seeds (outermost axis).
    pub seeds: Vec<u64>,
    /// Dispatch policies.
    pub policies: Vec<DispatchPolicy>,
    /// Traffic scenarios with arrival rates.
    pub scenarios: Vec<SweepScenario>,
    /// SLO multipliers (innermost axis).
    pub slo_multipliers: Vec<f64>,
    /// Requests per cell.
    pub requests: u64,
    /// Trace samples per model variant.
    pub samples_per_variant: u64,
}

/// One grid cell as an executor claims it.
struct Cell {
    /// Index of the cell's row in canonical grid order.
    slot: usize,
    /// (seed index, scenario index): what the cell's trace store
    /// depends on.
    store_key: (usize, usize),
    seed: u64,
    policy: DispatchPolicy,
    scenario: SweepScenario,
    slo: f64,
}

impl SweepGrid {
    /// A grid over `config` with empty axes and the quick-mode sizing
    /// (100 requests, 4 samples per variant); chain the axis setters.
    pub fn new(config: ClusterConfig) -> Self {
        SweepGrid {
            config,
            seeds: Vec::new(),
            policies: Vec::new(),
            scenarios: Vec::new(),
            slo_multipliers: Vec::new(),
            requests: 100,
            samples_per_variant: 4,
        }
    }

    /// Replaces the seed axis.
    pub fn seeds(mut self, seeds: Vec<u64>) -> Self {
        self.seeds = seeds;
        self
    }

    /// Replaces the policy axis.
    pub fn policies(mut self, policies: Vec<DispatchPolicy>) -> Self {
        self.policies = policies;
        self
    }

    /// Replaces the scenario axis.
    pub fn scenarios(mut self, scenarios: Vec<SweepScenario>) -> Self {
        self.scenarios = scenarios;
        self
    }

    /// Replaces the SLO-multiplier axis.
    pub fn slo_multipliers(mut self, slo_multipliers: Vec<f64>) -> Self {
        self.slo_multipliers = slo_multipliers;
        self
    }

    /// Sets the per-cell request count.
    pub fn requests(mut self, requests: u64) -> Self {
        self.requests = requests;
        self
    }

    /// Sets the per-cell trace samples per variant.
    pub fn samples_per_variant(mut self, samples: u64) -> Self {
        self.samples_per_variant = samples;
        self
    }

    /// Number of cells the grid will run.
    pub fn cell_count(&self) -> usize {
        self.seeds.len() * self.policies.len() * self.scenarios.len() * self.slo_multipliers.len()
    }

    /// Every cell in claim order — seeds, then scenarios, then
    /// policies, then SLO multipliers — so the cells of one trace-store
    /// key are adjacent. Each carries its slot in canonical grid order.
    fn cells(&self) -> Vec<Cell> {
        let (policies, scenarios, slos) = (
            self.policies.len(),
            self.scenarios.len(),
            self.slo_multipliers.len(),
        );
        let mut cells = Vec::with_capacity(self.cell_count());
        for (si, &seed) in self.seeds.iter().enumerate() {
            for (ci, &scenario) in self.scenarios.iter().enumerate() {
                for (pi, &policy) in self.policies.iter().enumerate() {
                    for (li, &slo) in self.slo_multipliers.iter().enumerate() {
                        cells.push(Cell {
                            slot: ((si * policies + pi) * scenarios + ci) * slos + li,
                            store_key: (si, ci),
                            seed,
                            policy,
                            scenario,
                            slo,
                        });
                    }
                }
            }
        }
        cells
    }

    /// The cell's stream: steady Poisson at the scenario's rate.
    fn spec(&self, cell: &Cell) -> StreamSpec {
        StreamSpec::steady_poisson(cell.scenario.scenario, cell.scenario.rate, cell.slo)
            .num_requests(self.requests)
            .samples_per_variant(self.samples_per_variant)
            .seed(cell.seed)
    }

    /// Runs one cell: a streaming cluster run over `store`, the trace
    /// library of the cell's store key.
    fn run_cell(&self, cell: &Cell, store: &TraceStore) -> SweepRow {
        let report = simulate_cluster(
            self.spec(cell).source(store),
            &mut ClusterPolicy::from_dispatch(cell.policy),
            &self.config,
            NullTracer,
        );
        SweepRow {
            scenario: cell.scenario.name.to_string(),
            policy: cell.policy.name().to_string(),
            seed: cell.seed,
            rate: cell.scenario.rate,
            slo_multiplier: cell.slo,
            antt: report.antt(),
            violation_rate: report.violation_rate(),
            goodput_rate: report.goodput_rate(),
            throughput_inf_s: report.throughput_inf_s(),
            completed: report.completed_total() as u64,
        }
    }

    /// Runs every cell on `threads` executors (the caller plus
    /// `threads - 1` scoped threads, clamped to `1..=cell_count()`) and
    /// returns the rows in canonical grid order.
    ///
    /// Each cell is its own run (own stream, own node engines), but
    /// cells of one store key — seed and scenario — share their
    /// executor's trace store: [`StreamSpec::build_store`] reads
    /// neither the rate nor the SLO, so the library is the same. An
    /// executor keeps the last store it built and rebuilds only when it
    /// claims a cell of another key; executors claim cells in key order
    /// from a shared cursor and write each row into the slot of its
    /// canonical index, so the returned rows — values and order — are
    /// identical for any thread count. `0` runs sequentially, like `1`.
    ///
    /// # Panics
    ///
    /// Panics if any axis is empty, or re-raises a panicking cell once
    /// every executor has stopped.
    pub fn run(&self, threads: usize) -> Vec<SweepRow> {
        let cells = self.cells();
        assert!(!cells.is_empty(), "sweep grid needs non-empty axes");
        let slots: Vec<OnceLock<SweepRow>> = cells.iter().map(|_| OnceLock::new()).collect();
        let cursor = AtomicUsize::new(0);
        let execute = || {
            // At most one store per executor: the old one is dropped
            // before the next is built.
            let mut held: Option<((usize, usize), TraceStore)> = None;
            loop {
                // `Relaxed` suffices: the cursor only hands out distinct
                // indices; rows are published by the `OnceLock`s and the
                // scope's join.
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(cell) = cells.get(i) else {
                    break;
                };
                if held.as_ref().is_none_or(|(key, _)| *key != cell.store_key) {
                    drop(held.take());
                    held = Some((cell.store_key, self.spec(cell).build_store()));
                }
                let (_, store) = held.as_ref().expect("store built above");
                slots[cell.slot]
                    .set(self.run_cell(cell, store))
                    .expect("each cell index is claimed once");
            }
        };
        std::thread::scope(|s| {
            for _ in 1..threads.clamp(1, cells.len()) {
                s.spawn(execute);
            }
            execute();
        });
        slots
            .into_iter()
            .map(|slot| slot.into_inner().expect("every cell ran"))
            .collect()
    }

    /// Serializes rows to the stable JSON document the CI sweep-smoke
    /// step compares across thread counts (one array, newline
    /// terminated).
    pub fn rows_to_json(rows: &[SweepRow]) -> String {
        let mut json = serde_json::to_string(&rows.to_vec()).expect("sweep rows serialize");
        json.push('\n');
        json
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AcceleratorKind;
    use dysta_core::Policy;

    fn quick_grid() -> SweepGrid {
        SweepGrid::new(ClusterConfig::homogeneous(
            2,
            AcceleratorKind::Sanger,
            Policy::Fcfs,
        ))
        .seeds(vec![1, 2])
        .policies(vec![
            DispatchPolicy::RoundRobin,
            DispatchPolicy::JoinShortestQueue,
        ])
        .scenarios(vec![SweepScenario::new(
            "attnn",
            Scenario::MultiAttNn,
            20.0,
        )])
        .slo_multipliers(vec![10.0, 20.0])
        .requests(20)
        .samples_per_variant(2)
    }

    #[test]
    fn rows_follow_canonical_grid_order() {
        let grid = quick_grid();
        assert_eq!(grid.cell_count(), 8);
        let rows = grid.run(1);
        assert_eq!(rows.len(), 8);
        // seeds outermost, SLO innermost.
        assert_eq!((rows[0].seed, rows[0].slo_multiplier), (1, 10.0));
        assert_eq!((rows[1].seed, rows[1].slo_multiplier), (1, 20.0));
        assert_eq!(rows[0].policy, "round-robin");
        assert_eq!(rows[2].policy, "jsq");
        assert_eq!(rows[4].seed, 2);
        assert!(rows.iter().all(|r| r.completed == 20));
    }

    #[test]
    fn parallel_rows_are_byte_identical_to_sequential() {
        let grid = quick_grid();
        let seq = grid.run(1);
        // 0 runs sequentially; 9 exceeds the 8 cells and is clamped.
        for threads in [0, 2, 4, 8, 9] {
            let par = grid.run(threads);
            assert_eq!(
                SweepGrid::rows_to_json(&seq),
                SweepGrid::rows_to_json(&par),
                "{threads}-thread sweep diverged"
            );
        }
    }

    #[test]
    fn rows_round_trip_through_json() {
        let grid = quick_grid().seeds(vec![1]).slo_multipliers(vec![10.0]);
        let rows = grid.run(2);
        let json = SweepGrid::rows_to_json(&rows);
        let back = serde_json::from_str(json.trim_end()).expect("parse rows");
        assert_eq!(back, rows.to_value());
        // Shortest-roundtrip float text is unique per bit pattern, so
        // equal text means every float came back bit for bit.
        assert_eq!(serde_json::to_string(&back).unwrap(), json.trim_end());
    }

    #[test]
    #[should_panic(expected = "capacity must be in (0, 1]")]
    fn panicking_cell_propagates_out_of_parallel_run() {
        // Every cell re-validates the config and panics; the run must
        // re-raise once all executors stop, not hang on a lost row.
        let mut grid = quick_grid();
        grid.config.nodes[0].capacity = 1.5;
        let _ = grid.run(4);
    }

    #[test]
    #[should_panic(expected = "non-empty axes")]
    fn empty_axis_rejected() {
        let grid = SweepGrid::new(ClusterConfig::homogeneous(
            1,
            AcceleratorKind::Sanger,
            Policy::Fcfs,
        ));
        let _ = grid.run(1);
    }
}
