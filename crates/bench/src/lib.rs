//! Shared experiment-harness support for the figure/table binaries.
//!
//! Each `figNN_*` / `tableNN_*` binary in `src/bin/` regenerates the
//! paper figure or table it is named after (`EXPERIMENTS.md` records the
//! outcomes). The helpers here keep the binaries small: seeded
//! multi-replication runs that reuse each workload across all policies
//! (so policies are compared on identical request streams, as in the
//! paper), and fixed-width table printing.
//!
//! The experiments the golden suite pins are defined once, in
//! [`paper`] (single accelerator) and [`serving`] (cluster): grid, policy
//! list, cell function and row type. The binaries print those rows and
//! `tests/golden_reports.rs` serializes the same rows at quick scale.

#![forbid(unsafe_code)]

pub mod paper;
pub mod serving;

use dysta::core::{DystaConfig, Policy};
use dysta::sim::{simulate, EngineConfig, Metrics};
use dysta::workload::{Scenario, WorkloadBuilder};

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
    let mut acc = vec![
        Metrics {
            antt: 0.0,
            violation_rate: 0.0,
            throughput_inf_s: 0.0
        };
        policies.len()
    ];
    for seed in 0..scale.seeds {
        let workload = WorkloadBuilder::new(scenario)
            .arrival_rate(arrival_rate)
            .slo_multiplier(slo_multiplier)
            .num_requests(scale.requests)
            .samples_per_variant(scale.samples_per_variant)
            .seed(seed)
            .build();
        for (i, policy) in policies.iter().enumerate() {
            let mut sched = policy.build_with(config);
            let m = simulate(&workload, sched.as_mut(), &EngineConfig::default()).metrics();
            acc[i].antt += m.antt;
            acc[i].violation_rate += m.violation_rate;
            acc[i].throughput_inf_s += m.throughput_inf_s;
        }
    }
    let n = scale.seeds as f64;
    policies
        .iter()
        .zip(acc)
        .map(|(&policy, m)| PolicyMetrics {
            policy,
            metrics: Metrics {
                antt: m.antt / n,
                violation_rate: m.violation_rate / n,
                throughput_inf_s: m.throughput_inf_s / n,
            },
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_scale_is_smaller() {
        let q = Scale::quick();
        let p = Scale::paper();
        assert!(q.requests < p.requests && q.seeds < p.seeds);
    }

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
}
