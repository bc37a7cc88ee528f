//! Pins the "no per-pick heap allocation" property of the scheduling hot
//! path: every shipped policy's `pick_next` and every predictor
//! `coefficient` strategy must run allocation-free once the system is in
//! steady state (all tasks arrived, per-task bookkeeping warmed up).
//!
//! A counting global allocator with a thread-local counter measures the
//! exact region under test; the counter is per-thread, so parallel test
//! execution cannot pollute the measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use dysta_core::{CoeffStrategy, ModelInfoLut, Policy, SparseLatencyPredictor, TaskState};
use dysta_models::ModelId;
use dysta_sparsity::SparsityPattern;
use dysta_trace::{ModelTraces, SparseModelSpec, TraceStore};

struct CountingAllocator;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

// Counting wrapper over the system allocator. The test crate is the only
// place this lives; the library crates stay `forbid(unsafe_code)`.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|c| c.set(c.get() + 1));
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|c| c.set(c.get() + 1));
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Heap allocations performed by `f` on this thread.
fn allocations_in(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

/// A mid-execution queue with populated monitor state and interned
/// variants, like the engine maintains.
fn mid_execution_queue(n: usize) -> (Vec<TaskState>, ModelInfoLut) {
    let specs = [
        SparseModelSpec::new(ModelId::Bert, SparsityPattern::Dense, 0.0),
        SparseModelSpec::new(ModelId::MobileNet, SparsityPattern::RandomPointwise, 0.7),
        SparseModelSpec::new(ModelId::ResNet50, SparsityPattern::ChannelWise, 0.6),
    ];
    let mut store = TraceStore::new();
    for s in &specs {
        store.insert(ModelTraces::generate(s, 4, 9));
    }
    let lut = ModelInfoLut::from_store(&store);

    let tasks: Vec<TaskState> = (0..n)
        .map(|i| {
            let spec = specs[i % specs.len()];
            let variant = store.variant_id(&spec).expect("profiled");
            let info = lut.info(variant);
            let traces = store.by_id(variant);
            let trace = traces.sample(i as u64);
            let upto = (i * 7) % trace.num_layers();
            let mut task = TaskState {
                true_remaining_ns: trace.remaining_ns(upto),
                ..TaskState::arrived(
                    i as u64,
                    spec,
                    variant,
                    (i as u64) * 10_000,
                    10_000_000_000,
                    trace.num_layers(),
                )
            };
            for layer in &trace.layers()[..upto] {
                task.record_layer(layer.sparsity, info);
            }
            task
        })
        .collect();
    (tasks, lut)
}

#[test]
fn steady_state_pick_next_never_allocates() {
    let (tasks, lut) = mid_execution_queue(64);
    let queue = &tasks;
    for policy in Policy::ALL {
        let mut sched = policy.build();
        // Warm up once, so only the steady state is measured.
        let _ = sched.pick_next(queue, &lut, 500_000);
        let allocs = allocations_in(|| {
            for step in 0..100u64 {
                let pick = sched.pick_next(queue, &lut, 1_000_000 + step * 1_000);
                assert!(pick < queue.len());
            }
        });
        assert_eq!(
            allocs, 0,
            "{policy}: pick_next allocated on the steady-state path"
        );
    }
}

#[test]
fn predictor_coefficient_never_allocates() {
    let (tasks, lut) = mid_execution_queue(16);
    for strategy in [
        CoeffStrategy::AverageAll,
        CoeffStrategy::LastThree,
        CoeffStrategy::LastOne,
        CoeffStrategy::Disabled,
    ] {
        let predictor = SparseLatencyPredictor::new(strategy);
        let allocs = allocations_in(|| {
            for t in &tasks {
                let info = lut.info(t.variant);
                let gamma = predictor.coefficient(t, info);
                assert!(gamma.is_finite());
            }
        });
        assert_eq!(allocs, 0, "{strategy:?}: coefficient allocated");
    }
}

#[test]
fn interned_lut_lookup_never_allocates() {
    let (tasks, lut) = mid_execution_queue(8);
    let allocs = allocations_in(|| {
        for t in &tasks {
            let info = lut.info(t.variant);
            assert!(info.avg_latency_ns() > 0.0);
        }
    });
    assert_eq!(allocs, 0, "interned LUT access allocated");
}
