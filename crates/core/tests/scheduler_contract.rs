//! Property-based contract tests every scheduler implementation must
//! satisfy, over randomized queues.

use std::cell::Cell;

use proptest::prelude::*;

use dysta_core::{
    pick_max_score, pick_min_score, ModelInfoLut, MonitoredLayer, Policy, Scheduler, TaskQueue,
    TaskState,
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
    /// pure function of (queue, now).
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
            let a = sched.pick_next(queue, &lut, now);
            prop_assert!(a < queue.len(), "{policy}: index {a}");
            // Immediately repeated decision with unchanged state picks
            // the same task (no hidden nondeterminism).
            let b = sched.pick_next(queue, &lut, now);
            prop_assert_eq!(a, b, "{} unstable", policy);
            // No policy keeps state across picks: a fresh scheduler picks
            // what one that has picked before picks.
            let c = policy.build().pick_next(queue, &lut, now);
            prop_assert_eq!(a, c, "{} depends on an earlier pick", policy);
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
            let via_index = sched_a.pick_next(TaskQueue::indexed(&tasks, &active), &lut, now);
            let via_dense = sched_b.pick_next(TaskQueue::dense(&subset), &lut, now);
            prop_assert_eq!(via_index, via_dense, "{} disagrees across representations", policy);
        }
    }
}

/// One decision of a purity run: how far the clock moves before it, the
/// sub-queue it picks from, and the sub-queues of the extra picks made
/// on the way (as bit masks over the task list; see [`sub_queue`]).
type Step = (u64, (u64, u64), Vec<(u64, u64)>);

fn step_strategy() -> impl Strategy<Value = Step> {
    let sub = || (0u64..3, 0u64..4096);
    (0u64..20_000_000, sub(), prop::collection::vec(sub(), 0..3))
}

/// The task positions a `(kind, mask)` pair selects from `n` tasks:
/// kind 0 is the singleton `mask % n`, any other kind the tasks whose
/// bit is set in `mask` (the singleton again if none is).
fn sub_queue((kind, mask): (u64, u64), n: usize) -> Vec<usize> {
    let single = vec![(mask % n as u64) as usize];
    if kind == 0 {
        return single;
    }
    let set: Vec<usize> = (0..n).filter(|&i| mask >> i & 1 == 1).collect();
    if set.is_empty() {
        single
    } else {
        set
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every pick is pure, so the engine may skip one: extra
    /// `pick_next` calls between decisions, on any sub-queue (single
    /// tasks included, which is what the engine skips), never change a
    /// later decision compared with a twin that made none.
    #[test]
    fn pure_picks_leave_no_state_behind(
        params in prop::collection::vec(task_strategy(), 1..12),
        steps in prop::collection::vec(step_strategy(), 1..16),
    ) {
        // Arrivals within 50 ms of the first decision and steps of at
        // most 20 ms, against isolated latencies of 17-74 ms: PREMA's
        // tokens then cross their threshold during the run, where a
        // token kept across picks would show. (With arrivals spread
        // over 1 s every token is past the threshold at the first
        // decision.)
        const WINDOW_NS: u64 = 50_000_000;
        let params: Vec<TaskParams> = params
            .iter()
            .map(|p| TaskParams { arrival_ns: p.arrival_ns % WINDOW_NS, ..p.clone() })
            .collect();
        let (specs, lut) = build_lut();
        let tasks = materialize(&params, &specs, &lut);
        for policy in Policy::ALL {
            let mut probed = policy.build();
            let mut twin = policy.build();
            let mut now = WINDOW_NS;
            for (dt, decide, extras) in &steps {
                for (k, extra) in extras.iter().enumerate() {
                    let active = sub_queue(*extra, tasks.len());
                    let t = now + dt * (k as u64 + 1) / (extras.len() as u64 + 1);
                    probed.pick_next(TaskQueue::indexed(&tasks, &active), &lut, t);
                }
                now += dt;
                let active = sub_queue(*decide, tasks.len());
                let queue = TaskQueue::indexed(&tasks, &active);
                let a = probed.pick_next(queue, &lut, now);
                let b = twin.pick_next(queue, &lut, now);
                prop_assert_eq!(a, b, "{}: extra picks changed a decision", policy);
            }
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
