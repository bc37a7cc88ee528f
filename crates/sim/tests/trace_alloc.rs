//! Pins the "no per-event heap allocation" property of the tracing hot
//! path: recording into a [`NullTracer`] is free, recording into a
//! [`RingTracer`] is allocation-free even across ring wraparound, and a
//! fully traced engine run allocates exactly as much as an untraced one.
//! Also pins that admitting into a node whose live list has grown
//! allocates nothing, that a task moved between nodes executes its
//! layers without allocating, like one admitted in place, and that
//! assembling a workload from requests a source stamped formats no
//! spec key.
//!
//! Same counting-global-allocator pattern as `crates/core/tests/
//! alloc_free.rs`: a thread-local counter measures the exact region
//! under test, immune to parallel test threads.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use dysta_core::{ModelInfoLut, Policy};
use dysta_obs::{EventKind, NullTracer, RingTracer, TraceEvent, Tracer};
use dysta_sim::{EngineConfig, NodeEngine};
use dysta_workload::{Request, Scenario, Workload, WorkloadBuilder};

struct CountingAllocator;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

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

fn event(kind: EventKind, t_ns: u64) -> TraceEvent {
    TraceEvent {
        t_ns,
        request: t_ns % 7,
        node: (t_ns % 3) as u32,
        kind,
        a: t_ns,
        b: t_ns as i64 - 500,
    }
}

#[test]
fn null_tracer_record_never_allocates() {
    let tracer = NullTracer;
    let allocs = allocations_in(|| {
        for i in 0..10_000u64 {
            tracer.record(event(EventKind::Segment, i));
            tracer.phase_ns(dysta_obs::Phase::Pick, i);
        }
    });
    assert_eq!(allocs, 0, "NullTracer is supposed to be free");
}

#[test]
fn warm_ring_tracer_record_never_allocates_even_across_wraparound() {
    // Small ring so 10k events wrap it ~39 times.
    let tracer = RingTracer::new(256);
    let allocs = allocations_in(|| {
        for i in 0..10_000u64 {
            let kind = EventKind::ALL[(i % EventKind::ALL.len() as u64) as usize];
            tracer.record(event(kind, i));
        }
    });
    assert_eq!(
        allocs, 0,
        "steady-state RingTracer::record allocated (ring wraparound)"
    );
    assert!(tracer.dropped() > 0, "test must actually exercise overflow");
}

fn alloc_workload() -> Workload {
    WorkloadBuilder::new(Scenario::MultiCnn)
        .num_requests(30)
        .samples_per_variant(4)
        .seed(42)
        .build()
}

/// Runs the engine over `w` against `tracer` and reports the heap
/// allocations of the *whole* run (engine construction + enqueue +
/// execution). Arrival events are recorded directly (no label
/// interning) so the traced and untraced runs do byte-for-byte the same
/// non-tracer work.
fn engine_run_allocs<T: Tracer + Copy>(w: &Workload, tracer: T) -> u64 {
    allocations_in(|| {
        let lut = ModelInfoLut::from_store(w.store());
        let mut sched = Policy::Dysta.build();
        let mut node: NodeEngine<'_, &mut dyn dysta_core::Scheduler, T> =
            NodeEngine::with_tracer(0, sched.as_mut(), EngineConfig::default(), &lut, tracer);
        for req in w.requests() {
            node.run_until(req.arrival_ns);
            tracer.record(TraceEvent {
                t_ns: req.arrival_ns,
                request: req.id,
                node: 0,
                kind: EventKind::Dispatch,
                a: 0,
                b: req.slo_ns as i64,
            });
            node.enqueue(req, w.trace_for(req), 1.0, req.arrival_ns);
        }
        node.run_to_completion();
        let report = node.into_report();
        assert_eq!(report.completed().len(), 30);
    })
}

#[test]
fn traced_engine_run_allocates_exactly_like_untraced() {
    let w = alloc_workload();
    // Warm-up run: sizes the ring tracer's metric keys and gauge slots
    // (and the allocator's own warm state for the untraced side).
    let tracer = RingTracer::new(1 << 15);
    let _ = engine_run_allocs(&w, NullTracer);
    let _ = engine_run_allocs(&w, &tracer);
    tracer.clear();

    let untraced = engine_run_allocs(&w, NullTracer);
    let traced = engine_run_allocs(&w, &tracer);
    assert_eq!(
        traced, untraced,
        "a steady-state traced run must not allocate beyond the untraced baseline"
    );
    assert!(
        tracer.kind_count(EventKind::Completion) > 0,
        "the traced run must actually record"
    );
}

/// Heap allocations performed while `node` executes all but the last
/// layer of its one queued task (the last layer's completion record may
/// grow the report, which is not layer execution).
fn layer_execution_allocs(node: &mut NodeEngine<'_>, num_layers: usize) -> u64 {
    allocations_in(|| {
        for _ in 1..num_layers {
            assert!(node.step());
        }
    })
}

#[test]
fn admitting_into_a_warm_node_allocates_nothing() {
    // A task's monitor state is a fixed-size part of `TaskState`, so
    // admission only pushes onto the node's live list: once the list
    // has grown to hold every request at once, admitting them all again
    // allocates nothing.
    let w = alloc_workload();
    let lut = ModelInfoLut::from_store(w.store());
    let mut node: NodeEngine<'_> =
        NodeEngine::new(0, Policy::Fcfs.build(), EngineConfig::default(), &lut);
    let requests = w.requests();
    let dispatch_ns = requests.last().expect("non-empty").arrival_ns;
    for req in requests {
        node.enqueue(req, w.trace_for(req), 1.0, dispatch_ns);
    }
    node.run_until(dispatch_ns + 1);
    assert_eq!(
        node.unstarted_tasks().count() + 1,
        requests.len(),
        "one quantum starts one of the admitted requests"
    );
    node.run_to_completion();

    let now_ns = node.now_ns();
    let allocs = allocations_in(|| {
        for req in requests {
            node.enqueue(req, w.trace_for(req), 1.0, now_ns);
        }
    });
    assert_eq!(node.unstarted_tasks().count(), requests.len());
    assert_eq!(allocs, 0, "admission into a warm node allocated");
}

#[test]
fn moved_tasks_execute_their_layers_without_allocating() {
    // A transfer moves the task out of the node's live list whole, its
    // fixed-size monitor state included, so executing its layers on
    // the receiving node never allocates. Both ways out of a node are
    // covered: a steal/migration withdrawal and a crash salvage of
    // never-started work.
    let w = alloc_workload();
    let lut = ModelInfoLut::from_store(w.store());
    // Every request is dispatched at the last arrival, so the node
    // admits them all before one quantum starts just one.
    let mut src: NodeEngine<'_> =
        NodeEngine::new(0, Policy::Fcfs.build(), EngineConfig::default(), &lut);
    let dispatch_ns = w.requests().last().expect("non-empty").arrival_ns;
    for req in w.requests() {
        src.enqueue(req, w.trace_for(req), 1.0, dispatch_ns);
    }
    assert!(src.step());
    let moved_at_ns = src.now_ns();
    let victim = src
        .unstarted_tasks()
        .map(|(t, _)| t.id)
        .min()
        .expect("unstarted work exists");
    let stolen = src.take_unstarted(victim).expect("victim is unstarted");
    // An unstarted task the crash moves out as is (started ones are
    // rebuilt).
    let queued = src
        .unstarted_tasks()
        .map(|(t, _)| t.id)
        .min()
        .expect("more unstarted work exists");
    let salvaged = src
        .crash_salvage()
        .into_iter()
        .map(|(t, _)| t)
        .find(|t| t.task().id == queued)
        .expect("the crash salvages every unfinished task");

    for transfer in [stolen, salvaged] {
        let num_layers = transfer.task().num_layers;
        assert!(num_layers > 1);
        let mut dst: NodeEngine<'_> =
            NodeEngine::new(1, Policy::Dysta.build(), EngineConfig::default(), &lut);
        dst.accept_transfer(transfer, 1.0, moved_at_ns, 0);
        assert_eq!(
            layer_execution_allocs(&mut dst, num_layers),
            0,
            "executing a moved task's layers must not allocate"
        );
        dst.run_to_completion();
        assert_eq!(dst.into_report().completed().len(), 1);
    }
}

#[test]
fn assembling_a_stamped_workload_formats_no_key() {
    // Every request a source yields carries its variant id, so workload
    // assembly checks each id in O(1) and resolves no spec by key: a
    // key is a heap `String`, so one formatted key would show here.
    let w = alloc_workload();
    let requests: Vec<Request> = w.requests().to_vec();
    let store = w.store().clone();
    let mut assembled = None;
    let allocs = allocations_in(|| {
        assembled = Some(Workload::from_parts(requests, store));
    });
    assert_eq!(allocs, 0, "workload assembly allocated");
    assert_eq!(assembled.as_ref(), Some(&w));
}
