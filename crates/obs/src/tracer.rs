//! The [`Tracer`] trait and its two implementations.
//!
//! Engines are generic over `T: Tracer` with [`NullTracer`] as the
//! default type parameter, so the untraced build monomorphizes every
//! hook to a no-op — zero cost, verified by the alloc-count and golden
//! tests. [`RingTracer`] is the recording implementation: a bounded
//! ring of `Copy` events plus per-kind counters, all behind `&self`
//! (interior mutability) so one tracer can be shared by every node of a
//! co-simulated cluster.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;

use crate::event::{EventKind, Phase, TraceEvent};

/// Observability sink threaded through the engines.
///
/// All methods take `&self`: implementations use interior mutability so
/// a single tracer instance (usually a `&RingTracer`) can serve a whole
/// node pool. Every method has a no-op default, which is exactly the
/// [`NullTracer`] behavior.
pub trait Tracer {
    /// True when events should be recorded. Engines gate any non-free
    /// bookkeeping (segment coalescing state) behind this, so a
    /// disabled tracer leaves the hot path bit-identical.
    fn enabled(&self) -> bool {
        false
    }

    /// True when wall-clock phase profiling is requested. Kept separate
    /// from [`Tracer::enabled`] because reading the OS clock twice per
    /// quantum is far more expensive than recording an event.
    fn profiling(&self) -> bool {
        false
    }

    /// Records one structured event.
    fn record(&self, event: TraceEvent) {
        let _ = event;
    }

    /// Attributes `wall_ns` nanoseconds of host wall-clock time to
    /// `phase`. Only called when [`Tracer::profiling`] is true.
    fn phase_ns(&self, phase: Phase, wall_ns: u64) {
        let _ = (phase, wall_ns);
    }

    /// Interns a free-form label (model-variant name), returning a
    /// stable id referenced by event payloads. Callers cache the id per
    /// variant so steady-state recording never re-interns.
    fn intern(&self, label: &str) -> u32 {
        let _ = label;
        0
    }

    /// Names a node for exports ("node0 EyerissV2").
    fn name_node(&self, node: u32, name: &str) {
        let _ = (node, name);
    }
}

/// The zero-cost default tracer: every hook is a no-op and
/// [`Tracer::enabled`] is `false`, so engine tracing branches compile
/// out entirely.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullTracer;

impl Tracer for NullTracer {}

// Shared references trace through to the underlying tracer, so a pool
// of engines can all borrow one `RingTracer`. Every method forwards
// explicitly — falling back to a trait default here would silently
// disconnect `&RingTracer`.
impl<T: Tracer + ?Sized> Tracer for &T {
    #[inline]
    fn enabled(&self) -> bool {
        (**self).enabled()
    }

    #[inline]
    fn profiling(&self) -> bool {
        (**self).profiling()
    }

    #[inline]
    fn record(&self, event: TraceEvent) {
        (**self).record(event);
    }

    #[inline]
    fn phase_ns(&self, phase: Phase, wall_ns: u64) {
        (**self).phase_ns(phase, wall_ns);
    }

    #[inline]
    fn intern(&self, label: &str) -> u32 {
        (**self).intern(label)
    }

    #[inline]
    fn name_node(&self, node: u32, name: &str) {
        (**self).name_node(node, name);
    }
}

/// Interned label table: id = first-intern order.
#[derive(Debug, Default)]
struct Interner {
    names: Vec<String>,
    ids: BTreeMap<String, u32>,
}

/// A recording tracer: bounded ring buffer of [`TraceEvent`]s (oldest
/// overwritten on overflow), per-kind event counters, and the
/// label/node-name tables the exporters need.
///
/// Recording an event is branch-free ring arithmetic on `Cell`s; the
/// steady state allocates nothing (pinned by the counting-allocator
/// tests).
#[derive(Debug)]
pub struct RingTracer {
    ring: Box<[Cell<TraceEvent>]>,
    /// Next write position.
    head: Cell<usize>,
    /// Live events (≤ capacity).
    len: Cell<usize>,
    /// Events overwritten after the ring filled.
    dropped: Cell<u64>,
    kind_counts: [Cell<u64>; EventKind::COUNT],
    interner: RefCell<Interner>,
    node_names: RefCell<BTreeMap<u32, String>>,
}

impl RingTracer {
    /// Creates a tracer holding up to `capacity` events (oldest are
    /// overwritten beyond that).
    ///
    /// # Panics
    ///
    /// Panics on zero capacity.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "ring needs room for at least one event");
        RingTracer {
            ring: vec![Cell::new(TraceEvent::EMPTY); capacity].into_boxed_slice(),
            head: Cell::new(0),
            len: Cell::new(0),
            dropped: Cell::new(0),
            kind_counts: std::array::from_fn(|_| Cell::new(0)),
            interner: RefCell::new(Interner::default()),
            node_names: RefCell::new(BTreeMap::new()),
        }
    }

    /// Number of events currently held (≤ capacity).
    pub fn len(&self) -> usize {
        self.len.get()
    }

    /// True when nothing has been recorded (or [`RingTracer::clear`]
    /// was just called).
    pub fn is_empty(&self) -> bool {
        self.len.get() == 0
    }

    /// Number of events lost to overflow (oldest-first overwrite).
    pub fn dropped(&self) -> u64 {
        self.dropped.get()
    }

    /// Total times `kind` was recorded, including dropped events.
    pub fn kind_count(&self, kind: EventKind) -> u64 {
        self.kind_counts[kind as usize].get()
    }

    /// The held events, oldest first. Copies out of the ring; intended
    /// for export/analysis after (or mid-) run, not for the hot path.
    pub fn events(&self) -> Vec<TraceEvent> {
        let len = self.len.get();
        let cap = self.ring.len();
        let start = if len < cap {
            0
        } else {
            self.head.get() // oldest surviving event
        };
        (0..len)
            .map(|i| self.ring[(start + i) % cap].get())
            .collect()
    }

    /// The interned label table, id order.
    pub fn labels(&self) -> Vec<String> {
        self.interner.borrow().names.clone()
    }

    /// The node-name table, node-id order.
    pub fn node_names(&self) -> Vec<(u32, String)> {
        self.node_names
            .borrow()
            .iter()
            .map(|(&n, s)| (n, s.clone()))
            .collect()
    }

    /// Drops all recorded events and resets the overflow counter, but
    /// keeps interned labels, node names and per-kind counts (so a warm
    /// tracer can be reused across runs without re-interning).
    pub fn clear(&self) {
        self.head.set(0);
        self.len.set(0);
        self.dropped.set(0);
    }
}

impl Tracer for RingTracer {
    #[inline]
    fn enabled(&self) -> bool {
        true
    }

    // Deliberately NOT `#[inline]`: record runs per *event* (rare),
    // not per quantum, and inlining this body at every engine call
    // site bloats the hot loop for no gain.
    fn record(&self, event: TraceEvent) {
        let cap = self.ring.len();
        let head = self.head.get();
        self.ring[head].set(event);
        // Compare-and-reset, not `% cap`: capacity is a runtime value,
        // so the modulo would be a real integer division per event.
        let next = head + 1;
        self.head.set(if next == cap { 0 } else { next });
        let len = self.len.get();
        if len < cap {
            self.len.set(len + 1);
        } else {
            self.dropped.set(self.dropped.get() + 1);
        }
        let count = &self.kind_counts[event.kind as usize];
        count.set(count.get() + 1);
    }

    fn intern(&self, label: &str) -> u32 {
        let mut interner = self.interner.borrow_mut();
        if let Some(&id) = interner.ids.get(label) {
            return id;
        }
        let id = u32::try_from(interner.names.len()).expect("label table fits in u32");
        interner.names.push(label.to_owned());
        interner.ids.insert(label.to_owned(), id);
        id
    }

    fn name_node(&self, node: u32, name: &str) {
        let mut names = self.node_names.borrow_mut();
        names.entry(node).or_insert_with(|| name.to_owned());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(t: u64, kind: EventKind) -> TraceEvent {
        TraceEvent {
            t_ns: t,
            request: t,
            node: 0,
            kind,
            a: 0,
            b: 0,
        }
    }

    #[test]
    fn null_tracer_is_disabled_and_inert() {
        let t = NullTracer;
        assert!(!t.enabled());
        assert!(!t.profiling());
        t.record(ev(1, EventKind::Arrival));
        t.phase_ns(Phase::Pick, 100);
        assert_eq!(t.intern("anything"), 0);
    }

    #[test]
    fn ring_holds_events_in_order_below_capacity() {
        let t = RingTracer::new(8);
        for i in 0..5 {
            t.record(ev(i, EventKind::Arrival));
        }
        assert_eq!(t.len(), 5);
        assert_eq!(t.dropped(), 0);
        let times: Vec<u64> = t.events().iter().map(|e| e.t_ns).collect();
        assert_eq!(times, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn ring_overflow_drops_oldest_and_counts() {
        let t = RingTracer::new(4);
        for i in 0..10 {
            t.record(ev(i, EventKind::Arrival));
        }
        assert_eq!(t.len(), 4);
        assert_eq!(t.dropped(), 6);
        // The four newest survive, oldest first.
        let times: Vec<u64> = t.events().iter().map(|e| e.t_ns).collect();
        assert_eq!(times, vec![6, 7, 8, 9]);
        // Counts include dropped events.
        assert_eq!(t.kind_count(EventKind::Arrival), 10);
    }

    #[test]
    fn ring_wraparound_is_seamless_at_exact_capacity_multiples() {
        let t = RingTracer::new(3);
        for i in 0..6 {
            t.record(ev(i, EventKind::Segment));
        }
        let times: Vec<u64> = t.events().iter().map(|e| e.t_ns).collect();
        assert_eq!(times, vec![3, 4, 5]);
        assert_eq!(t.dropped(), 3);
        t.record(ev(6, EventKind::Segment));
        let times: Vec<u64> = t.events().iter().map(|e| e.t_ns).collect();
        assert_eq!(times, vec![4, 5, 6]);
    }

    #[test]
    fn clear_resets_ring_but_keeps_tables_warm() {
        let t = RingTracer::new(4);
        let id = t.intern("resnet50");
        t.record(ev(1, EventKind::Arrival));
        t.name_node(0, "node0");
        t.clear();
        assert!(t.is_empty());
        assert_eq!(t.dropped(), 0);
        assert_eq!(t.intern("resnet50"), id, "labels survive clear");
        assert_eq!(t.node_names().len(), 1);
        assert_eq!(t.kind_count(EventKind::Arrival), 1, "counts survive");
    }

    #[test]
    fn interning_is_stable_and_dense() {
        let t = RingTracer::new(2);
        let a = t.intern("a");
        let b = t.intern("b");
        assert_ne!(a, b);
        assert_eq!(t.intern("a"), a);
        assert_eq!(t.labels(), vec!["a".to_string(), "b".to_string()]);
    }

    #[test]
    fn first_node_name_wins() {
        let t = RingTracer::new(2);
        t.name_node(3, "node3 EyerissV2");
        t.name_node(3, "other");
        assert_eq!(t.node_names(), vec![(3, "node3 EyerissV2".to_string())]);
    }

    #[test]
    fn shared_reference_forwards_to_the_ring() {
        let t = RingTracer::new(4);
        let shared: &RingTracer = &t;
        assert!(Tracer::enabled(&shared));
        Tracer::record(&shared, ev(7, EventKind::Dispatch));
        assert_eq!(t.len(), 1);
        assert_eq!(t.kind_count(EventKind::Dispatch), 1);
    }
}
