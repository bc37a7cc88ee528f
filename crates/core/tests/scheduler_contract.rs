//! Property-based contract tests every scheduler implementation must
//! satisfy, over randomized queues.

use std::cell::Cell;

use proptest::prelude::*;

use dysta_core::{
    pick_max_score, pick_min_score, ModelInfoLut, MonitoredLayer, Policy, TaskQueue, TaskState,
};
use dysta_models::ModelId;
use dysta_sparsity::SparsityPattern;
use dysta_trace::{ModelTraces, SparseModelSpec, TraceStore};

fn build_lut() -> (Vec<SparseModelSpec>, ModelInfoLut) {
    let specs = vec![
        SparseModelSpec::new(ModelId::MobileNet, SparsityPattern::RandomPointwise, 0.7),
        SparseModelSpec::new(ModelId::ResNet50, SparsityPattern::ChannelWise, 0.6),
        SparseModelSpec::new(ModelId::Bert, SparsityPattern::Dense, 0.0),
    ];
    let mut store = TraceStore::new();
    for s in &specs {
        store.insert(ModelTraces::generate(s, 4, 0));
    }
    (specs.clone(), ModelInfoLut::from_store(&store))
}

#[derive(Debug, Clone)]
struct TaskParams {
    spec_idx: usize,
    arrival_ns: u64,
    slo_ns: u64,
    progress_frac: f64,
    sparsity: f64,
}

fn task_strategy() -> impl Strategy<Value = TaskParams> {
    (
        0usize..3,
        0u64..1_000_000_000,
        1_000_000u64..10_000_000_000,
        0.0f64..1.0,
        0.0f64..0.95,
    )
        .prop_map(
            |(spec_idx, arrival_ns, slo_ns, progress_frac, sparsity)| TaskParams {
                spec_idx,
                arrival_ns,
                slo_ns,
                progress_frac,
                sparsity,
            },
        )
}

fn materialize(
    params: &[TaskParams],
    specs: &[SparseModelSpec],
    lut: &ModelInfoLut,
) -> Vec<TaskState> {
    params
        .iter()
        .enumerate()
        .map(|(i, p)| {
            let spec = specs[p.spec_idx];
            let variant = lut.variant_id(&spec).expect("spec profiled");
            let info = lut.info(variant);
            let num_layers = info.num_layers();
            let next_layer = ((num_layers as f64 * p.progress_frac) as usize).min(num_layers - 1);
            let mut task = TaskState {
                next_layer,
                executed_ns: (info.avg_remaining_ns(0) - info.avg_remaining_ns(next_layer)).max(0.0)
                    as u64,
                monitored: (0..next_layer)
                    .map(|_| MonitoredLayer {
                        sparsity: p.sparsity,
                        latency_ns: 1000,
                    })
                    .collect(),
                true_remaining_ns: info.avg_remaining_ns(next_layer) as u64,
                ..TaskState::arrived(i as u64, spec, variant, p.arrival_ns, p.slo_ns, num_layers)
            };
            task.rebuild_sparsity_summary(info);
            task
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every policy returns an in-range index, for any queue, and is a
    /// pure function of (queue, now) for stateless inspection.
    #[test]
    fn pick_next_is_in_range_and_stable(
        params in prop::collection::vec(task_strategy(), 1..12),
        now in 0u64..2_000_000_000,
    ) {
        let (specs, lut) = build_lut();
        let tasks = materialize(&params, &specs, &lut);
        let queue = TaskQueue::dense(&tasks);
        for policy in Policy::ALL {
            let mut sched = policy.build();
            for t in &tasks {
                sched.on_arrival(t, &lut, t.arrival_ns);
            }
            let a = sched.pick_next(queue, &lut, now);
            prop_assert!(a < queue.len(), "{policy}: index {a}");
            // Immediately repeated decision with unchanged state picks
            // the same task (no hidden nondeterminism).
            let b = sched.pick_next(queue, &lut, now);
            prop_assert_eq!(a, b, "{} unstable", policy);
            // The Dysta family keeps no per-task state: a scheduler never
            // shown an arrival picks what one shown every arrival picks.
            if matches!(policy, Policy::Dysta | Policy::DystaStatic | Policy::Oracle) {
                let c = policy.build().pick_next(queue, &lut, now);
                prop_assert_eq!(a, c, "{} depends on on_arrival", policy);
            }
        }
    }

    /// Single-task queues leave no room for choice.
    #[test]
    fn singleton_queue_always_picks_zero(
        params in prop::collection::vec(task_strategy(), 1..2),
        now in 0u64..2_000_000_000,
    ) {
        let (specs, lut) = build_lut();
        let tasks = materialize(&params, &specs, &lut);
        for policy in Policy::ALL {
            let mut sched = policy.build();
            sched.on_arrival(&tasks[0], &lut, tasks[0].arrival_ns);
            prop_assert_eq!(sched.pick_next(TaskQueue::dense(&tasks), &lut, now), 0);
        }
    }

    /// An indexed queue (the engine's arena + live positions) and the
    /// equivalent dense queue yield the same decision for every policy —
    /// pinning that queue *representation* never leaks into scheduling.
    #[test]
    fn indexed_and_dense_queues_agree(
        params in prop::collection::vec(task_strategy(), 2..10),
        now in 0u64..2_000_000_000,
    ) {
        let (specs, lut) = build_lut();
        let tasks = materialize(&params, &specs, &lut);
        // Live subset: every other task, in shuffled-ish (reversed) order.
        let active: Vec<usize> = (0..tasks.len()).rev().step_by(2).collect();
        let subset: Vec<TaskState> = active.iter().map(|&i| tasks[i].clone()).collect();
        for policy in Policy::ALL {
            let mut sched_a = policy.build();
            let mut sched_b = policy.build();
            for t in &subset {
                sched_a.on_arrival(t, &lut, t.arrival_ns);
                sched_b.on_arrival(t, &lut, t.arrival_ns);
            }
            let via_index = sched_a.pick_next(TaskQueue::indexed(&tasks, &active), &lut, now);
            let via_dense = sched_b.pick_next(TaskQueue::dense(&subset), &lut, now);
            prop_assert_eq!(via_index, via_dense, "{} disagrees across representations", policy);
        }
    }
}

/// The single-pass pick helpers every shipped scheduler routes through
/// must evaluate the score exactly `queue.len()` times per invocation —
/// the regression test for the `min_by`-with-closure double-evaluation
/// bug class (scores used to be recomputed at every pairwise
/// comparison, turning O(n) picks into O(n log n)-ish with 2x-evaluated
/// closures).
#[test]
fn counting_scorer_sees_exactly_queue_len_evaluations() {
    let (specs, lut) = build_lut();
    for n in [1usize, 2, 3, 8, 33, 128] {
        let params: Vec<TaskParams> = (0..n)
            .map(|i| TaskParams {
                spec_idx: i % 3,
                arrival_ns: (i as u64) * 1_000,
                slo_ns: 5_000_000_000,
                progress_frac: (i as f64 * 0.37) % 1.0,
                sparsity: 0.4,
            })
            .collect();
        let tasks = materialize(&params, &specs, &lut);
        let queue = TaskQueue::dense(&tasks);

        let evals = Cell::new(0usize);
        let scorer = |t: &TaskState| {
            evals.set(evals.get() + 1);
            // A non-trivial score with ties, so tie-break paths run too.
            (t.id % 5) as f64
        };
        let _ = pick_min_score(queue, scorer);
        assert_eq!(evals.get(), n, "pick_min_score at n={n}");

        evals.set(0);
        let _ = pick_max_score(queue, |t| {
            evals.set(evals.get() + 1);
            (t.id % 5) as f64
        });
        assert_eq!(evals.get(), n, "pick_max_score at n={n}");
    }
}
