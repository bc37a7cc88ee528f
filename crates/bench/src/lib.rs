//! Shared experiment-harness support for the figure/table binaries.
//!
//! Each `figNN_*` / `tableNN_*` binary in `src/bin/` regenerates the
//! paper figure or table it is named after (`EXPERIMENTS.md` records the
//! outcomes). Every seeded experiment replicates through one loop,
//! [`replicate`]: it builds each seed's workload once (sized by
//! [`Scale::workload`]), runs every configuration of the cell on it, so
//! policies are compared on identical request streams as in the paper,
//! and returns per-configuration [`SeedSums`] the rows take their means
//! and totals from. The rest is fixed-width table printing and the
//! `--trace PATH` reader and Perfetto export the trace-writing programs
//! share ([`trace_arg`], [`export_trace`]).
//!
//! The experiments the golden suite pins are defined once, in
//! [`paper`] (single accelerator) and [`serving`] (cluster): grid, policy
//! list, cell function and row type. The binaries print those rows and
//! `tests/golden_reports.rs` serializes the same rows at quick scale.

#![forbid(unsafe_code)]

pub mod paper;
pub mod serving;

use std::path::{Path, PathBuf};

use dysta::cluster::{simulate_cluster, ClusterConfig, ClusterPolicy, DispatchPolicy};
use dysta::core::{DystaConfig, Policy};
use dysta::obs::RingTracer;
use dysta::sim::{simulate, EngineConfig, Metrics};
use dysta::workload::{Scenario, Workload, WorkloadBuilder};

/// Experiment scale: the paper uses 1000 requests and 5 seeds. The
/// environment variable `DYSTA_QUICK=1` drops to a fast smoke-test scale
/// so the whole suite can run in CI.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// Requests per workload.
    pub requests: usize,
    /// Random seeds averaged per configuration.
    pub seeds: u64,
    /// Phase-1 samples traced per sparse-model variant.
    pub samples_per_variant: u64,
}

impl Scale {
    /// The paper's evaluation scale (1000 requests, 5 seeds).
    pub fn paper() -> Self {
        Scale {
            requests: 1000,
            seeds: 5,
            samples_per_variant: 64,
        }
    }

    /// Reduced scale for smoke testing.
    pub fn quick() -> Self {
        Scale {
            requests: 100,
            seeds: 2,
            samples_per_variant: 16,
        }
    }

    /// Picks the scale from the `DYSTA_QUICK` environment variable.
    pub fn from_env() -> Self {
        if std::env::var("DYSTA_QUICK")
            .map(|v| v == "1")
            .unwrap_or(false)
        {
            Scale::quick()
        } else {
            Scale::paper()
        }
    }

    /// The workload seeds the cluster experiments replicate over:
    /// replication `s` draws seed `s * 7919 + 13`, so no cluster cell
    /// shares a stream with the single-node experiments' seeds
    /// `0..seeds`.
    pub fn cluster_seeds(self) -> impl Iterator<Item = u64> {
        (0..self.seeds).map(|s| s * 7919 + 13)
    }

    /// `builder`'s workload at this scale's request count and trace
    /// resolution, drawn from `seed`.
    pub fn workload(self, builder: &WorkloadBuilder, seed: u64) -> Workload {
        builder
            .clone()
            .num_requests(self.requests)
            .samples_per_variant(self.samples_per_variant)
            .seed(seed)
            .build()
    }
}

/// One run configuration's columns summed over a seed set, as
/// [`replicate`] returns them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SeedSums<const K: usize> {
    /// Each column summed over the seeds, in seed order.
    pub sum: [f64; K],
    /// Each column's largest value over the seeds (0 if none is
    /// positive).
    pub max: [f64; K],
    seeds: usize,
}

impl<const K: usize> SeedSums<K> {
    /// Each column's mean over the seeds.
    pub fn mean(&self) -> [f64; K] {
        self.sum.map(|s| s / self.seeds as f64)
    }
}

/// The one replication loop under every experiment: for each seed in
/// `seeds` (`0..scale.seeds` on one node, [`Scale::cluster_seeds`] on a
/// pool) it builds that seed's input once with `input`, runs every one
/// of `configs` on it, and sums the `K` columns each run returns. The
/// result holds one [`SeedSums`] per configuration, in `configs` order,
/// so every configuration is compared on identical request streams.
/// Count columns sum exactly (as integers below 2^53).
pub fn replicate<W, C, const K: usize>(
    seeds: impl IntoIterator<Item = u64>,
    input: impl Fn(u64) -> W,
    configs: &[C],
    mut run: impl FnMut(&C, &W) -> [f64; K],
) -> Vec<SeedSums<K>> {
    let empty = SeedSums {
        sum: [0.0; K],
        max: [0.0; K],
        seeds: 0,
    };
    let mut sums = vec![empty; configs.len()];
    for seed in seeds {
        let input = input(seed);
        for (config, sums) in configs.iter().zip(&mut sums) {
            for (j, v) in run(config, &input).into_iter().enumerate() {
                sums.sum[j] += v;
                sums.max[j] = sums.max[j].max(v);
            }
            sums.seeds += 1;
        }
    }
    sums
}

/// One experiment cell: a policy's averaged metrics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PolicyMetrics {
    /// The scheduling policy.
    pub policy: Policy,
    /// Seed-averaged metrics.
    pub metrics: Metrics,
}

/// Runs `policies` over `seeds` replications of one workload
/// configuration, reusing each generated workload across all policies.
pub fn compare_policies(
    scenario: Scenario,
    arrival_rate: f64,
    slo_multiplier: f64,
    scale: Scale,
    policies: &[Policy],
    config: DystaConfig,
) -> Vec<PolicyMetrics> {
    let builder = WorkloadBuilder::new(scenario)
        .arrival_rate(arrival_rate)
        .slo_multiplier(slo_multiplier);
    let sums = replicate(
        0..scale.seeds,
        |seed| scale.workload(&builder, seed),
        policies,
        |policy, w| {
            let mut sched = policy.build_with(config);
            let m = simulate(w, sched.as_mut(), &EngineConfig::default()).metrics();
            [m.antt, m.violation_rate, m.throughput_inf_s]
        },
    );
    policies
        .iter()
        .zip(sums)
        .map(|(&policy, s)| {
            let [antt, violation_rate, throughput_inf_s] = s.mean();
            PolicyMetrics {
                policy,
                metrics: Metrics {
                    antt,
                    violation_rate,
                    throughput_inf_s,
                },
            }
        })
        .collect()
}

/// Prints an experiment banner.
pub fn banner(id: &str, title: &str) {
    println!("================================================================");
    println!("{id}: {title}");
    println!("================================================================");
}

/// Formats a probability-density histogram as an ASCII row series.
pub fn print_histogram(label: &str, centers: &[f64], density: &[f64]) {
    println!("--- {label} ---");
    let max = density.iter().cloned().fold(0.0f64, f64::max).max(1e-12);
    for (c, d) in centers.iter().zip(density) {
        let bar = "#".repeat((d / max * 50.0).round() as usize);
        println!("{c:>8.3} | {d:>8.4} {bar}");
    }
}

/// Reads the command line of a program whose one option is `--trace
/// PATH`: the path, or `None` when no argument is given. Anything else
/// (an unknown flag, a stray argument, `--trace` without a path) prints
/// one usage line to stderr and exits with status 2.
pub fn trace_arg(program: &str) -> Option<PathBuf> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.as_slice() {
        [] => None,
        [flag, path] if flag == "--trace" && !path.starts_with('-') => Some(path.into()),
        _ => {
            eprintln!(
                "{program}: cannot read arguments `{}`; usage: {program} [--trace PATH]",
                args.join(" ")
            );
            std::process::exit(2);
        }
    }
}

/// Replays `workload` on `pool` under sparsity-affinity dispatch
/// through a [`RingTracer`], checks the recorded event stream (a
/// malformed one only warns), writes its Perfetto/Chrome JSON to `path`
/// and prints where it went. Exits with status 1 if the file cannot be
/// written.
pub fn export_trace(path: &Path, workload: &Workload, pool: &ClusterConfig) {
    let tracer = RingTracer::new(1 << 20);
    let mut policy = ClusterPolicy::from_dispatch(DispatchPolicy::SparsityAffinity);
    simulate_cluster(workload.source(), &mut policy, pool, &tracer);
    if let Err(e) = tracer.validate() {
        eprintln!("warning: trace validation failed: {e}");
    }
    std::fs::write(path, tracer.perfetto_json()).unwrap_or_else(|e| {
        eprintln!("cannot write {}: {e}", path.display());
        std::process::exit(1);
    });
    println!(
        "\nwrote {} trace events ({} dropped) to {} — open at https://ui.perfetto.dev",
        tracer.len(),
        tracer.dropped(),
        path.display()
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use dysta::cluster::balanced_mixed_serving_mix;
    use dysta::obs::NullTracer;

    #[test]
    fn quick_scale_is_smaller() {
        let q = Scale::quick();
        let p = Scale::paper();
        assert!(q.requests < p.requests && q.seeds < p.seeds);
    }

    const TINY: Scale = Scale {
        requests: 20,
        seeds: 2,
        samples_per_variant: 4,
    };

    #[test]
    fn compare_policies_returns_one_row_per_policy() {
        let rows = compare_policies(
            Scenario::MultiCnn,
            3.0,
            10.0,
            Scale {
                requests: 20,
                seeds: 1,
                samples_per_variant: 4,
            },
            &[Policy::Fcfs, Policy::Dysta],
            DystaConfig::default(),
        );
        assert_eq!(rows.len(), 2);
        assert!(rows.iter().all(|r| r.metrics.antt >= 1.0));
    }

    #[test]
    fn compare_policies_rows_equal_each_policy_run_alone() {
        let policies = [Policy::Fcfs, Policy::Sjf, Policy::Dysta];
        let config = DystaConfig::default();
        let compare =
            |p: &[Policy]| compare_policies(Scenario::MultiAttNn, 30.0, 10.0, TINY, p, config);
        for (row, &policy) in compare(&policies).iter().zip(&policies) {
            assert_eq!(*row, compare(&[policy])[0], "{policy}");
        }
    }

    /// Asserts `replicate`'s means equal, bit for bit, those of the seed
    /// loop written out by hand: sums in seed order, then one divide.
    fn assert_hand_loop_means<C, const K: usize>(
        seeds: Vec<u64>,
        builder: &WorkloadBuilder,
        configs: &[C],
        run: impl Fn(&C, &Workload) -> [f64; K],
    ) {
        let sums = replicate(seeds.clone(), |s| TINY.workload(builder, s), configs, &run);
        for (config, sums) in configs.iter().zip(sums) {
            let mut total = [0.0; K];
            for &s in &seeds {
                let w = TINY.workload(builder, s);
                for (acc, v) in total.iter_mut().zip(run(config, &w)) {
                    *acc += v;
                }
            }
            let by_hand = total.map(|t| (t / seeds.len() as f64).to_bits());
            assert_eq!(sums.mean().map(f64::to_bits), by_hand);
        }
    }

    #[test]
    fn replicate_means_equal_a_hand_written_seed_loop() {
        let single = WorkloadBuilder::new(Scenario::MultiCnn).arrival_rate(3.0);
        let policies = [Policy::Fcfs, Policy::Dysta];
        assert_hand_loop_means(
            (0..TINY.seeds).collect(),
            &single,
            &policies,
            |policy, w| {
                let report = simulate(w, policy.build().as_mut(), &EngineConfig::default());
                let m = report.metrics();
                [m.antt, m.violation_rate, report.preemptions() as f64]
            },
        );
        let mixed = WorkloadBuilder::from_mix(balanced_mixed_serving_mix()).arrival_rate(20.0);
        let pool = ClusterConfig::heterogeneous(1, 1, Policy::Dysta);
        let dispatchers = [DispatchPolicy::RoundRobin, DispatchPolicy::SparsityAffinity];
        assert_hand_loop_means(
            TINY.cluster_seeds().collect(),
            &mixed,
            &dispatchers,
            |d, w| {
                let mut policy = ClusterPolicy::from_dispatch(*d);
                let report = simulate_cluster(w.source(), &mut policy, &pool, NullTracer);
                let m = report.metrics();
                [m.antt, m.violation_rate, report.goodput() as f64]
            },
        );
    }
}
