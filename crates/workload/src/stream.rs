//! Open-loop streaming workload generation (berserker-style).
//!
//! [`StreamSpec`] describes a request stream as a sequence of
//! [`PhaseSpec`]s — each phase owns an [`ArrivalProcess`] (steady
//! Poisson, bursty on/off, diurnal curve, flash crowd), a weighted
//! model mix reshaped by a [`Popularity`] model (Uniform / Zipfian),
//! and an [`SloModel`] — switching mix, rate, and SLO class at
//! sim-time boundaries. [`ArrivalSource`] streams the requests lazily
//! with a deterministic per-phase RNG, so a 10M-request run holds only
//! the live lookahead, never the materialized trace.
//!
//! This is the workspace's only request generator:
//! [`crate::WorkloadBuilder::build`] is [`StreamSpec::materialize`] over
//! one steady-Poisson phase. Each request draws its RNG in a fixed
//! order (gap → spec walk → sample → SLO multiplier), and the golden
//! fixtures, all built through the builder, pin that order byte for
//! byte.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use dysta_sparsity::distributions::exponential;
use dysta_trace::{ModelTraces, SampleTrace, SparseModelSpec, TraceStore, VariantId};

use crate::source::RequestSource;
use crate::{Request, Scenario, Workload};

/// How arrival instants are drawn within one phase. All rates are in
/// requests per second; all process clocks are relative to the phase's
/// start, so a phase switch restarts the profile.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalProcess {
    /// Steady Poisson arrivals (exponential gaps) — the builder's
    /// process.
    Poisson {
        /// Mean arrival rate (req/s).
        rate: f64,
    },
    /// Bursty on/off traffic: `on_s` seconds at `on_rate`, then
    /// `off_s` seconds at `off_rate`, repeating. A Poisson process
    /// with a periodic piecewise-constant rate (sampled exactly via
    /// unit-rate hazard integration, not per-segment thinning).
    OnOff {
        /// Rate inside a burst (req/s); must be positive.
        on_rate: f64,
        /// Rate between bursts (req/s); zero silences the off window.
        off_rate: f64,
        /// Burst length in seconds.
        on_s: f64,
        /// Quiet length in seconds.
        off_s: f64,
    },
    /// A sinusoidal day/night load curve:
    /// `rate(t) = base_rate × (1 + amplitude × sin(2πt / period_s))`,
    /// sampled by thinning against the curve's peak rate.
    Diurnal {
        /// Mean rate around which the curve oscillates (req/s).
        base_rate: f64,
        /// Relative swing in `[0, 1]` (1 silences the trough).
        amplitude: f64,
        /// Oscillation period in seconds.
        period_s: f64,
    },
    /// Steady traffic at `base_rate` with one burst window at
    /// `peak_rate` covering `[start_s, start_s + duration_s)` of the
    /// phase — the flash-crowd shape the load-curve figures sweep.
    FlashCrowd {
        /// Rate outside the crowd window (req/s).
        base_rate: f64,
        /// Rate inside the crowd window (req/s).
        peak_rate: f64,
        /// Window start, seconds after the phase begins.
        start_s: f64,
        /// Window length in seconds.
        duration_s: f64,
    },
}

impl ArrivalProcess {
    /// The next candidate arrival instant after `now_ns`, drawing from
    /// `rng`. Process profiles are anchored at `phase_start_ns`.
    /// Non-decreasing in `now_ns` (gaps can round to zero). An instant
    /// past the end of the `u64` clock saturates to `u64::MAX`, which
    /// the source reads as the end of the stream.
    fn next_arrival_ns(&self, rng: &mut StdRng, now_ns: u64, phase_start_ns: u64) -> u64 {
        match *self {
            // One exponential draw, the gap rounded to nanoseconds.
            ArrivalProcess::Poisson { rate } => {
                let gap_s = exponential(rng, rate);
                now_ns.saturating_add((gap_s * 1e9).round() as u64)
            }
            ArrivalProcess::OnOff {
                on_rate,
                off_rate,
                on_s,
                off_s,
            } => {
                let period = on_s + off_s;
                let rel_s = (now_ns - phase_start_ns) as f64 / 1e9;
                // Bound the hazard the walk can collect before the clock
                // ends: every whole period left plus two, counted twice
                // (a rounding stub may split a window), with each window
                // padded by two ulps of the clock's last instant. Once a
                // period is below a few ulps the padding alone exceeds
                // `max(rate) × span`, which bounds any walk.
                let span_s = (u64::MAX - phase_start_ns) as f64 / 1e9 - rel_s;
                let pad_s = 2.0 * f64::EPSILON * (span_s + rel_s);
                let per_period = on_rate * (on_s + pad_s) + off_rate * (off_s + pad_s);
                let hazard_left = 2.0 * per_period * ((span_s / period).ceil() + 2.0);
                let t_s = piecewise_next(rng, rel_s, hazard_left, |t| {
                    let pos = t % period;
                    if pos < on_s {
                        (on_rate, t + (on_s - pos))
                    } else {
                        (off_rate, t + (period - pos))
                    }
                });
                phase_start_ns.saturating_add((t_s * 1e9).round() as u64)
            }
            ArrivalProcess::Diurnal {
                base_rate,
                amplitude,
                period_s,
            } => {
                let rate_max = base_rate * (1.0 + amplitude);
                let mut t_s = (now_ns - phase_start_ns) as f64 / 1e9;
                loop {
                    t_s += exponential(rng, rate_max);
                    let rate = base_rate
                        * (1.0 + amplitude * (std::f64::consts::TAU * t_s / period_s).sin());
                    if rng.gen::<f64>() * rate_max <= rate {
                        break;
                    }
                }
                phase_start_ns.saturating_add((t_s * 1e9).round() as u64)
            }
            ArrivalProcess::FlashCrowd {
                base_rate,
                peak_rate,
                start_s,
                duration_s,
            } => {
                let end_s = start_s + duration_s;
                let rel_s = (now_ns - phase_start_ns) as f64 / 1e9;
                let t_s = piecewise_next(rng, rel_s, f64::INFINITY, |t| {
                    if t < start_s {
                        (base_rate, start_s)
                    } else if t < end_s {
                        (peak_rate, end_s)
                    } else {
                        (base_rate, f64::INFINITY)
                    }
                });
                phase_start_ns.saturating_add((t_s * 1e9).round() as u64)
            }
        }
    }
}

/// Exact next-event sampling for a piecewise-constant rate profile:
/// draw one unit-rate exponential and integrate the hazard
/// `rate(t) dt` forward from `start_s` until it is spent. `segment(t)`
/// returns the rate covering `t` and the instant that segment ends
/// (`f64::INFINITY` for an unbounded tail). Zero-rate segments are
/// skipped without consuming hazard.
///
/// `hazard_left` bounds from above the hazard the walk can collect
/// before the end of the `u64` clock. A draw that needs more can only
/// land past the clock, so the walk is skipped and `f64::INFINITY`
/// (which saturates to the end of the stream) returned at once; a draw
/// that lands inside the clock never takes this branch.
fn piecewise_next(
    rng: &mut StdRng,
    start_s: f64,
    hazard_left: f64,
    segment: impl Fn(f64) -> (f64, f64),
) -> f64 {
    let mut need = exponential(rng, 1.0);
    if need > hazard_left {
        return f64::INFINITY;
    }
    let mut t_s = start_s;
    loop {
        let (rate, seg_end) = segment(t_s);
        // Rounding can leave `t_s` a hair short of a boundary, so the
        // segment's end rounds back onto `t_s` itself: step to the next
        // representable instant so the walk always advances.
        let seg_end = if seg_end > t_s {
            seg_end
        } else {
            t_s.next_up()
        };
        if rate <= 0.0 {
            t_s = seg_end;
            continue;
        }
        let hazard = rate * (seg_end - t_s);
        if need <= hazard {
            return t_s + need / rate;
        }
        need -= hazard;
        t_s = seg_end;
    }
}

/// How request popularity distributes over a phase's model mix.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Popularity {
    /// Use the mix's own weights verbatim (the builder's behavior).
    Weighted,
    /// Every variant equally likely, ignoring mix weights.
    Uniform,
    /// Zipfian by mix position: the `i`-th variant (0-based) gets
    /// weight `1 / (i + 1)^exponent` — first entries dominate, the
    /// tail thins. Exponent 0 degenerates to uniform.
    Zipfian {
        /// The Zipf exponent `s ≥ 0` (1.0 is the classic curve).
        exponent: f64,
    },
}

impl Popularity {
    /// The effective sampling weight of each mix entry, in mix order.
    fn effective_weights(&self, mix: &[(SparseModelSpec, f64)]) -> Vec<f64> {
        match *self {
            Popularity::Weighted => mix.iter().map(|&(_, w)| w).collect(),
            Popularity::Uniform => vec![1.0; mix.len()],
            Popularity::Zipfian { exponent } => (0..mix.len())
                .map(|i| 1.0 / ((i + 1) as f64).powf(exponent))
                .collect(),
        }
    }
}

/// How a phase assigns SLOs, as a multiplier on the variant's profiled
/// isolated latency (`SLO = T_isol × M_slo`, the PREMA convention).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SloModel {
    /// One multiplier for every request (no RNG draw); set by
    /// [`crate::WorkloadBuilder::slo_multiplier`].
    Fixed(f64),
    /// Per-request multiplier drawn uniformly from `[lo, hi]`; set by
    /// [`crate::WorkloadBuilder::slo_multiplier_range`].
    Range {
        /// Lower multiplier bound (≥ 1).
        lo: f64,
        /// Upper multiplier bound (≥ `lo`).
        hi: f64,
    },
}

/// One phase of an open-loop stream: from `start_ns` until the next
/// phase begins (or the request budget runs out), arrivals follow
/// `process` over `mix` reshaped by `popularity`, with SLOs from `slo`.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseSpec {
    /// Phase start in nanoseconds of sim-time. The first phase must
    /// start at 0; starts must be strictly increasing.
    pub start_ns: u64,
    /// The arrival process active during this phase.
    pub process: ArrivalProcess,
    /// The weighted model mix requests sample from.
    pub mix: Vec<(SparseModelSpec, f64)>,
    /// How popularity reshapes the mix weights.
    pub popularity: Popularity,
    /// How SLOs are assigned.
    pub slo: SloModel,
}

impl PhaseSpec {
    /// A steady-Poisson phase over a mix at its native weights — the
    /// shape equivalent to one [`crate::WorkloadBuilder`] configuration.
    pub fn steady(
        start_ns: u64,
        rate: f64,
        mix: Vec<(SparseModelSpec, f64)>,
        slo: SloModel,
    ) -> Self {
        PhaseSpec {
            start_ns,
            process: ArrivalProcess::Poisson { rate },
            mix,
            popularity: Popularity::Weighted,
            slo,
        }
    }
}

/// A complete open-loop stream description: phases plus the global
/// request budget, trace fidelity, and seed. Validated by
/// [`StreamSpec::validate`] (in the scenario-file module); consumed by
/// [`StreamSpec::source`] / [`StreamSpec::materialize`].
#[derive(Debug, Clone, PartialEq)]
pub struct StreamSpec {
    /// The phase sequence, by ascending `start_ns`.
    pub phases: Vec<PhaseSpec>,
    /// Total number of requests the stream yields.
    pub num_requests: u64,
    /// Phase-1 input samples traced per variant.
    pub samples_per_variant: u64,
    /// Seed for arrivals, popularity, and SLO draws. Traces use
    /// `seed ^ 0xD15A`, so changing the arrival pattern keeps the trace
    /// library fixed, mirroring the paper's two-phase methodology.
    pub seed: u64,
}

/// The most requests [`ArrivalSource`]'s `len_hint` reports: the
/// [`RequestSource::len_hint`] contract allows a lower bound, and a
/// buffer pre-sized from the hint then costs at most 16 Mi entries
/// whatever the request budget.
const LEN_HINT_CAP: u64 = 1 << 24;

/// Per-phase RNG seed: phase 0 uses the stream seed verbatim (so a
/// [`crate::WorkloadBuilder`] seed is its arrival seed); later phases
/// decorrelate via a golden-ratio hash of their index.
fn phase_seed(seed: u64, phase: usize) -> u64 {
    seed ^ (phase as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

impl StreamSpec {
    /// A single steady-Poisson phase over a scenario preset — what
    /// `WorkloadBuilder::new(scenario)` builds, with the same defaults
    /// (1000 requests, 64 samples, seed 0).
    pub fn steady_poisson(scenario: Scenario, rate: f64, slo_multiplier: f64) -> Self {
        StreamSpec {
            phases: vec![PhaseSpec::steady(
                0,
                rate,
                scenario.mix(),
                SloModel::Fixed(slo_multiplier),
            )],
            num_requests: 1000,
            samples_per_variant: 64,
            seed: 0,
        }
    }

    /// Sets the total request budget (builder-style).
    ///
    /// # Panics
    ///
    /// Panics if zero.
    pub fn num_requests(mut self, n: u64) -> Self {
        assert!(n > 0, "need at least one request");
        self.num_requests = n;
        self
    }

    /// Sets the per-variant trace sample count (builder-style).
    ///
    /// # Panics
    ///
    /// Panics if zero.
    pub fn samples_per_variant(mut self, n: u64) -> Self {
        assert!(n > 0, "need at least one sample");
        self.samples_per_variant = n;
        self
    }

    /// Sets the stream seed (builder-style).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Generates the Phase-1 trace library backing every phase's mix:
    /// one [`dysta_trace::ModelTraces`] per distinct variant, seeded
    /// `seed ^ 0xD15A` (independent of the arrival draws).
    pub fn build_store(&self) -> TraceStore {
        let mut store = TraceStore::new();
        for phase in &self.phases {
            for (spec, _) in &phase.mix {
                if store.get(spec).is_some() {
                    continue;
                }
                store.insert(ModelTraces::generate(
                    spec,
                    self.samples_per_variant,
                    self.seed ^ 0xD15A,
                ));
            }
        }
        store
    }

    /// Opens a streaming [`ArrivalSource`] over a store built by
    /// [`StreamSpec::build_store`] (borrowed, so many sources can share
    /// one library — the sweep binaries reuse it across load factors).
    ///
    /// # Panics
    ///
    /// Panics if the spec fails [`StreamSpec::validate`] or the store
    /// is missing any mix variant.
    pub fn source<'w>(&self, store: &'w TraceStore) -> ArrivalSource<'w> {
        self.validate()
            .unwrap_or_else(|e| panic!("invalid stream spec: {e}"));
        let phases: Vec<RuntimePhase> = self
            .phases
            .iter()
            .enumerate()
            .map(|(i, phase)| {
                let weights = phase.popularity.effective_weights(&phase.mix);
                let specs: Vec<SparseModelSpec> = phase.mix.iter().map(|&(s, _)| s).collect();
                // Each spec is resolved once here; every request drawn
                // from the phase carries its id from then on.
                let variants: Vec<VariantId> = specs
                    .iter()
                    .map(|s| {
                        store
                            .variant_id(s)
                            .unwrap_or_else(|| panic!("store is missing traces for {s}"))
                    })
                    .collect();
                let isolated_ns: Vec<f64> = variants
                    .iter()
                    .map(|&v| store.by_id(v).avg_latency_ns())
                    .collect();
                RuntimePhase {
                    start_ns: phase.start_ns,
                    end_ns: self.phases.get(i + 1).map(|p| p.start_ns),
                    process: phase.process,
                    specs,
                    variants,
                    total_weight: weights.iter().sum(),
                    weights,
                    slo: phase.slo,
                    isolated_ns,
                }
            })
            .collect();
        ArrivalSource {
            store,
            phases,
            samples_per_variant: self.samples_per_variant,
            seed: self.seed,
            remaining: self.num_requests,
            next_id: 0,
            phase_idx: 0,
            rng: StdRng::seed_from_u64(phase_seed(self.seed, 0)),
            now_ns: 0,
            lookahead: None,
        }
    }

    /// Drains the stream into a fully-materialized [`Workload`] (what
    /// [`crate::WorkloadBuilder::build`] returns).
    pub fn materialize(&self) -> Workload {
        let store = self.build_store();
        let requests = {
            let source = self.source(&store);
            let mut requests = Vec::with_capacity(source.len_hint());
            requests.extend(source);
            requests
        };
        Workload::from_parts(requests, store)
    }
}

/// One phase compiled for generation: effective weights resolved,
/// isolated latencies cached, boundary precomputed.
struct RuntimePhase {
    start_ns: u64,
    /// The next phase's start (`None` for the last phase).
    end_ns: Option<u64>,
    process: ArrivalProcess,
    specs: Vec<SparseModelSpec>,
    /// Each spec's id in the source's store, in spec order.
    variants: Vec<VariantId>,
    weights: Vec<f64>,
    total_weight: f64,
    slo: SloModel,
    /// Profiled `T_isol` per spec (the SLO base), in spec order.
    isolated_ns: Vec<f64>,
}

/// The streaming generator: a lazy, deterministic [`RequestSource`]
/// over a [`StreamSpec`]. Holds one lookahead request and the current
/// phase RNG — constant live state regardless of `num_requests`.
///
/// A candidate arrival that crosses the next phase boundary is dropped
/// (its draws are consumed) and generation re-enters at the boundary
/// with that phase's own seed, so each phase's stream is independent
/// of how the previous phase ended. For the memoryless Poisson process
/// this restart is distribution-exact.
pub struct ArrivalSource<'w> {
    store: &'w TraceStore,
    phases: Vec<RuntimePhase>,
    samples_per_variant: u64,
    seed: u64,
    /// Requests still to yield (counts down to 0).
    remaining: u64,
    next_id: u64,
    phase_idx: usize,
    rng: StdRng,
    now_ns: u64,
    lookahead: Option<Request>,
}

impl<'w> ArrivalSource<'w> {
    /// Generates the next request, or `None` when the budget is spent
    /// or the next arrival would fall past the end of the clock.
    fn generate(&mut self) -> Option<Request> {
        if self.remaining == 0 {
            return None;
        }
        loop {
            let phase = &self.phases[self.phase_idx];
            let candidate =
                phase
                    .process
                    .next_arrival_ns(&mut self.rng, self.now_ns, phase.start_ns);
            if let Some(end) = phase.end_ns {
                if candidate >= end {
                    // The candidate lands beyond this phase: drop it and
                    // restart generation at the boundary under the next
                    // phase's own RNG.
                    self.phase_idx += 1;
                    self.now_ns = end;
                    self.rng = StdRng::seed_from_u64(phase_seed(self.seed, self.phase_idx));
                    continue;
                }
            }
            if candidate == u64::MAX {
                // The last phase's next arrival lies past the end of the
                // clock: the stream is over, budget or not.
                self.remaining = 0;
                return None;
            }
            self.now_ns = candidate;
            let phase = &self.phases[self.phase_idx];
            // Fixed draw order after the gap: spec walk, sample, SLO.
            let mut target = self.rng.gen::<f64>() * phase.total_weight;
            let mut chosen = phase.specs.len() - 1;
            for (i, &w) in phase.weights.iter().enumerate() {
                if target < w {
                    chosen = i;
                    break;
                }
                target -= w;
            }
            let sample_index = self.rng.gen_range(0..self.samples_per_variant);
            let multiplier = match phase.slo {
                SloModel::Fixed(m) => m,
                SloModel::Range { lo, hi } => self.rng.gen_range(lo..=hi),
            };
            // The SLO follows PREMA's convention, `T_isol × M_slo`, with
            // `T_isol` taken from offline profiling (the variant's
            // average isolated latency): the per-sample execution time
            // is unknown at request time, so the deadline must not
            // leak it.
            let slo_ns = (phase.isolated_ns[chosen] * multiplier).round() as u64;
            let id = self.next_id;
            self.next_id += 1;
            self.remaining -= 1;
            return Some(Request {
                id,
                spec: phase.specs[chosen],
                variant: phase.variants[chosen],
                sample_index,
                arrival_ns: candidate,
                slo_ns,
            });
        }
    }
}

impl<'w> RequestSource<'w> for ArrivalSource<'w> {
    fn peek_arrival_ns(&mut self) -> Option<u64> {
        if self.lookahead.is_none() {
            self.lookahead = self.generate();
        }
        self.lookahead.as_ref().map(|r| r.arrival_ns)
    }

    fn next_request(&mut self) -> Option<Request> {
        match self.lookahead.take() {
            Some(r) => Some(r),
            None => self.generate(),
        }
    }

    fn trace_for(&self, request: &Request) -> &'w SampleTrace {
        self.store
            .by_id(request.variant)
            .sample(request.sample_index)
    }

    fn store(&self) -> &'w TraceStore {
        self.store
    }

    /// The requests still to come, capped at `LEN_HINT_CAP`: callers
    /// pre-size buffers with it, and a budget far beyond what the arrival
    /// clock lets the stream yield must not become one huge allocation.
    fn len_hint(&self) -> usize {
        self.remaining
            .saturating_add(u64::from(self.lookahead.is_some()))
            .min(LEN_HINT_CAP) as usize
    }
}

impl Iterator for ArrivalSource<'_> {
    type Item = Request;

    fn next(&mut self) -> Option<Request> {
        self.next_request()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::WorkloadBuilder;

    #[test]
    fn slo_range_matches_builder_bit_exactly() {
        let built = WorkloadBuilder::new(Scenario::MultiAttNn)
            .arrival_rate(30.0)
            .slo_multiplier_range(5.0, 50.0)
            .num_requests(80)
            .samples_per_variant(4)
            .seed(3)
            .build();
        let mut spec = StreamSpec::steady_poisson(Scenario::MultiAttNn, 30.0, 10.0)
            .num_requests(80)
            .samples_per_variant(4)
            .seed(3);
        spec.phases[0].slo = SloModel::Range { lo: 5.0, hi: 50.0 };
        assert_eq!(built.requests(), spec.materialize().requests());
    }

    #[test]
    fn on_off_walk_advances_past_a_rounded_boundary() {
        // The second burst ends at 0.7 s, but `0.7 % 0.5` rounds a hair
        // below 0.2: the walk sees a burst whose remaining length is
        // below the precision of t.
        let process = ArrivalProcess::OnOff {
            on_rate: 50.0,
            off_rate: 4.0,
            on_s: 0.2,
            off_s: 0.3,
        };
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..100 {
            let next = process.next_arrival_ns(&mut rng, 700_000_000, 0);
            assert!(next >= 700_000_000);
        }
    }

    #[test]
    fn on_off_stream_with_vanishing_hazard_ends() {
        // Each on-window adds ~1e-300 of hazard, so a walk over periods
        // would need ~1e300 of them; the draw can only land past the
        // clock, which ends the stream.
        let process = ArrivalProcess::OnOff {
            on_rate: 1e-300,
            off_rate: 0.0,
            on_s: 1.0,
            off_s: 1.0,
        };
        let mut rng = StdRng::seed_from_u64(1);
        for now_ns in [0, 5_000_000_000, u64::MAX / 2] {
            assert_eq!(process.next_arrival_ns(&mut rng, now_ns, 0), u64::MAX);
        }
    }

    fn phase_change_spec() -> StreamSpec {
        StreamSpec {
            phases: vec![
                PhaseSpec::steady(0, 8.0, Scenario::MultiCnn.mix(), SloModel::Fixed(10.0)),
                PhaseSpec {
                    start_ns: 2_000_000_000,
                    process: ArrivalProcess::OnOff {
                        on_rate: 60.0,
                        off_rate: 2.0,
                        on_s: 0.25,
                        off_s: 0.75,
                    },
                    mix: Scenario::MultiAttNn.mix(),
                    popularity: Popularity::Zipfian { exponent: 1.0 },
                    slo: SloModel::Range { lo: 5.0, hi: 50.0 },
                },
                PhaseSpec {
                    start_ns: 5_000_000_000,
                    process: ArrivalProcess::FlashCrowd {
                        base_rate: 4.0,
                        peak_rate: 80.0,
                        start_s: 1.0,
                        duration_s: 0.5,
                    },
                    mix: Scenario::MultiCnn.mix(),
                    popularity: Popularity::Uniform,
                    slo: SloModel::Fixed(20.0),
                },
            ],
            num_requests: 400,
            samples_per_variant: 4,
            seed: 9,
        }
    }

    #[test]
    fn phase_change_is_deterministic_monotone_and_respects_boundaries() {
        let spec = phase_change_spec();
        let a = spec.materialize();
        let b = spec.materialize();
        assert_eq!(a.requests(), b.requests());
        assert_eq!(a.requests().len(), 400);
        // Ids are minted densely in arrival order; arrivals are
        // monotone (Workload::from_parts asserts that too).
        for (i, r) in a.requests().iter().enumerate() {
            assert_eq!(r.id, i as u64);
        }
        // Phase 2 requests (after 5 s) all use the uniform CNN mix with
        // the fixed ×20 SLO; phase 1 requests are AttNN.
        let cnn: Vec<_> = Scenario::MultiCnn.mix().iter().map(|&(s, _)| s).collect();
        for r in a.requests() {
            if r.arrival_ns >= 5_000_000_000 {
                assert!(cnn.contains(&r.spec), "phase 2 must draw the CNN mix");
            } else if r.arrival_ns >= 2_000_000_000 {
                assert!(!cnn.contains(&r.spec), "phase 1 must draw the AttNN mix");
            }
        }
    }

    #[test]
    fn streaming_and_materialized_agree() {
        let spec = phase_change_spec();
        let materialized = spec.materialize();
        let store = spec.build_store();
        let streamed: Vec<Request> = spec.source(&store).collect();
        assert_eq!(materialized.requests(), streamed.as_slice());
    }

    #[test]
    fn peek_is_idempotent_and_agrees_with_next() {
        let spec = phase_change_spec();
        let store = spec.build_store();
        let mut source = spec.source(&store);
        while let Some(peeked) = source.peek_arrival_ns() {
            assert_eq!(source.peek_arrival_ns(), Some(peeked));
            let r = source.next_request().expect("peeked request exists");
            assert_eq!(r.arrival_ns, peeked);
        }
        assert_eq!(source.next_request(), None);
    }

    #[test]
    fn on_off_bursts_are_bursty() {
        // Mean rate of a 1s@40 / 1s@0 cycle is ~20/s: the generated
        // span should sit between the pure-off and pure-on extremes,
        // and arrivals should cluster inside the on-windows.
        let spec = StreamSpec {
            phases: vec![PhaseSpec {
                start_ns: 0,
                process: ArrivalProcess::OnOff {
                    on_rate: 40.0,
                    off_rate: 0.0,
                    on_s: 1.0,
                    off_s: 1.0,
                },
                mix: Scenario::MultiCnn.mix(),
                popularity: Popularity::Weighted,
                slo: SloModel::Fixed(10.0),
            }],
            num_requests: 600,
            samples_per_variant: 2,
            seed: 5,
        };
        let w = spec.materialize();
        let in_on_window = w
            .requests()
            .iter()
            .filter(|r| (r.arrival_ns as f64 / 1e9) % 2.0 < 1.0)
            .count();
        assert_eq!(in_on_window, w.requests().len(), "off windows are silent");
        let span_s = w.requests().last().unwrap().arrival_ns as f64 / 1e9;
        assert!((25.0..40.0).contains(&span_s), "600 req at ~20/s: {span_s}");
    }

    #[test]
    fn diurnal_rate_oscillates() {
        let spec = StreamSpec {
            phases: vec![PhaseSpec {
                start_ns: 0,
                process: ArrivalProcess::Diurnal {
                    base_rate: 30.0,
                    amplitude: 0.9,
                    period_s: 10.0,
                },
                mix: Scenario::MultiCnn.mix(),
                popularity: Popularity::Weighted,
                slo: SloModel::Fixed(10.0),
            }],
            num_requests: 900,
            samples_per_variant: 2,
            seed: 6,
        };
        let w = spec.materialize();
        // First half-period (rising sine) must out-arrive the second.
        let crest = w
            .requests()
            .iter()
            .filter(|r| (r.arrival_ns as f64 / 1e9) % 10.0 < 5.0)
            .count();
        let trough = w.requests().len() - crest;
        assert!(
            crest > 2 * trough,
            "crest {crest} should dominate trough {trough}"
        );
    }

    #[test]
    fn vanishing_rates_end_the_stream_instead_of_overflowing_the_clock() {
        // Each spec is accepted by `validate`, yet its next gap is
        // ~1e300 s: past `u64::MAX` ns, so the arrival saturates and the
        // stream ends early rather than panicking (debug) or wrapping
        // to a non-monotone arrival (release).
        let tiny = 1e-300;
        let poisson = ArrivalProcess::Poisson { rate: tiny };
        let steady = ArrivalProcess::Poisson { rate: 8.0 };
        let diurnal = ArrivalProcess::Diurnal {
            base_rate: tiny,
            amplitude: 0.5,
            period_s: 10.0,
        };
        let crowd = ArrivalProcess::FlashCrowd {
            base_rate: tiny,
            peak_rate: tiny,
            start_s: 1.0,
            duration_s: 1.0,
        };
        let cases = [
            ("poisson, only phase", vec![poisson]),
            ("poisson, later phase", vec![steady, poisson]),
            ("diurnal, later phase", vec![steady, diurnal]),
            ("flash crowd, later phase", vec![steady, crowd]),
        ];
        for (name, processes) in cases {
            // Phase `i` starts at `i` seconds.
            let phases = (0u64..)
                .zip(processes)
                .map(|(i, process)| PhaseSpec {
                    start_ns: i * 1_000_000_000,
                    process,
                    mix: Scenario::MultiCnn.mix(),
                    popularity: Popularity::Weighted,
                    slo: SloModel::Fixed(10.0),
                })
                .collect();
            let spec = StreamSpec {
                phases,
                num_requests: 50,
                samples_per_variant: 2,
                seed: 1,
            };
            spec.validate()
                .unwrap_or_else(|e| panic!("{name}: spec must validate: {e}"));
            let store = spec.build_store();
            let mut source = spec.source(&store);
            let arrivals: Vec<u64> = source.by_ref().map(|r| r.arrival_ns).collect();
            assert!(
                arrivals.windows(2).all(|w| w[0] <= w[1]),
                "{name}: arrivals must be monotone: {arrivals:?}"
            );
            // Only the steady first phase (if any) yields, all before
            // the tiny-rate phase begins at 1 s.
            assert!(arrivals.len() < 50, "{name}: {} requests", arrivals.len());
            assert!(
                arrivals.iter().all(|&t| t < 1_000_000_000),
                "{name}: {arrivals:?}"
            );
            assert_eq!(source.next_request(), None, "{name}: the end is final");
        }
    }

    #[test]
    fn zipfian_popularity_skews_to_the_head() {
        let mut spec = StreamSpec::steady_poisson(Scenario::MultiCnn, 10.0, 10.0)
            .num_requests(600)
            .samples_per_variant(2)
            .seed(7);
        spec.phases[0].popularity = Popularity::Zipfian { exponent: 2.0 };
        let w = spec.materialize();
        let head = spec.phases[0].mix[0].0;
        let head_count = w.requests().iter().filter(|r| r.spec == head).count();
        assert!(
            head_count * 2 > w.requests().len(),
            "head variant should take the majority under s=2: {head_count}"
        );
    }
}
