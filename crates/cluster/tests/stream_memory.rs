//! Pins that a streamed cluster run's heap follows live work, not the
//! number of requests served.
//!
//! A thread-local counting allocator tracks live heap bytes and their
//! high-water mark over one streamed `simulate_cluster` call (trace
//! store included). The same steady stream runs at two lengths; since
//! peak concurrency is the same, the peak heap may grow only by what
//! the report keeps per request: a 56 B `CompletedRequest`, with slack
//! for `Vec` doubling. A node that kept finished tasks (then ~128 B
//! each plus a per-layer monitor buffer) measured ~886 B per request
//! here.
//!
//! Counting bytes rather than reading RSS keeps the check exact and
//! immune to the host: the numbers are deterministic, and each test
//! thread counts only its own allocations.
//!
//! A second test pins that a request budget far beyond what the
//! stream's arrival clock can yield sizes no buffer by itself: that
//! run's peak heap stays under 1 MiB.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use dysta_cluster::{
    simulate_cluster, AcceleratorKind, ClusterConfig, ClusterPolicy, DispatchPolicy,
};
use dysta_core::Policy;
use dysta_obs::NullTracer;
use dysta_workload::{Scenario, StreamSpec};

struct CountingAllocator;

thread_local! {
    static LIVE_BYTES: Cell<i64> = const { Cell::new(0) };
    static PEAK_BYTES: Cell<i64> = const { Cell::new(0) };
}

fn grow(bytes: usize) {
    let live = LIVE_BYTES.with(|c| {
        c.set(c.get() + bytes as i64);
        c.get()
    });
    PEAK_BYTES.with(|p| p.set(p.get().max(live)));
}

fn shrink(bytes: usize) {
    LIVE_BYTES.with(|c| c.set(c.get() - bytes as i64));
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // Old and new blocks can coexist while the contents move.
        grow(new_size);
        shrink(layout.size());
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrink(layout.size());
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Runs `f` and returns its result with the peak heap it reached above
/// its starting point, in bytes.
fn peak_heap_of<R>(f: impl FnOnce() -> R) -> (R, i64) {
    let base = LIVE_BYTES.with(Cell::get);
    PEAK_BYTES.with(|p| p.set(base));
    let result = f();
    (result, PEAK_BYTES.with(Cell::get) - base)
}

/// Streams `n` requests through an 8-node Eyeriss-V2 Dysta pool under
/// JSQ and returns the run's peak heap above its starting point, in
/// bytes, with the run's peak live-request count.
fn stream_peak_heap(n: u64) -> (i64, usize) {
    let spec = StreamSpec::steady_poisson(Scenario::MultiCnn, 20.0, 10.0)
        .num_requests(n)
        .samples_per_variant(4)
        .seed(1);
    let pool = ClusterConfig::homogeneous(8, AcceleratorKind::EyerissV2, Policy::Dysta);
    let mut policy = ClusterPolicy::from_dispatch(DispatchPolicy::JoinShortestQueue);
    let (peak_live, peak) = peak_heap_of(|| {
        let store = spec.build_store();
        let report = simulate_cluster(spec.source(&store), &mut policy, &pool, NullTracer);
        assert_eq!(
            report.completed_total() as u64,
            n,
            "every request completes"
        );
        report.serving().peak_live_requests
    });
    (peak, peak_live)
}

#[test]
fn streamed_heap_grows_only_by_the_per_request_report() {
    let (small_n, large_n) = (1_000u64, 10_000u64);
    let (small_peak, small_live) = stream_peak_heap(small_n);
    let (large_peak, large_live) = stream_peak_heap(large_n);
    assert_eq!(
        small_live, large_live,
        "both lengths must reach the same peak concurrency for the slope to mean anything"
    );
    let per_request = (large_peak - small_peak) as f64 / (large_n - small_n) as f64;
    assert!(
        per_request <= 160.0,
        "peak heap grew {per_request:.1} B per extra request \
         ({small_peak} B at {small_n}, {large_peak} B at {large_n}); \
         only the per-request report (56 B) should scale with the stream"
    );
}

#[test]
fn a_budget_beyond_the_arrival_clock_sizes_no_buffer() {
    // At 1e-9 requests/s the sim clock runs out after a few dozen
    // arrivals, so a budget of 10^15 requests is never reached:
    // pre-sizing any per-request buffer by it would ask for petabytes
    // and abort, and a capped reservation would still cost megabytes.
    let spec = StreamSpec::steady_poisson(Scenario::MultiCnn, 1e-9, 10.0)
        .num_requests(1_000_000_000_000_000);
    let pool = ClusterConfig::homogeneous(2, AcceleratorKind::EyerissV2, Policy::Dysta);
    let mut policy = ClusterPolicy::from_dispatch(DispatchPolicy::JoinShortestQueue);
    let store = spec.build_store();
    let yielded = spec.source(&store).count();
    assert!(yielded > 0 && yielded < 100, "the clock ends the stream");
    let (report, peak) =
        peak_heap_of(|| simulate_cluster(spec.source(&store), &mut policy, &pool, NullTracer));
    assert_eq!(report.completed_total(), yielded);
    assert_eq!(report.admitted_total(), yielded);
    assert!(
        peak < 1 << 20,
        "serving {yielded} requests peaked at {peak} B of heap"
    );
}
