//! Property-based tests on workload generation.

use proptest::prelude::*;

use dysta_trace::{TraceStore, VariantId};
use dysta_workload::{
    ArrivalProcess, PhaseSpec, Popularity, Request, Scenario, SloModel, StreamSpec, Workload,
    WorkloadBuilder,
};

fn scenario_strategy() -> impl Strategy<Value = Scenario> {
    prop::sample::select(vec![
        Scenario::MultiAttNn,
        Scenario::MultiCnn,
        Scenario::DataCenter,
        Scenario::ArVrWearable,
        Scenario::MobileAssistant,
    ])
}

const SCENARIOS: [Scenario; 5] = [
    Scenario::MultiAttNn,
    Scenario::MultiCnn,
    Scenario::DataCenter,
    Scenario::ArVrWearable,
    Scenario::MobileAssistant,
];

/// Arrival process number `kind % 4` at roughly `rate` req/s.
fn process(kind: usize, rate: f64) -> ArrivalProcess {
    match kind % 4 {
        0 => ArrivalProcess::Poisson { rate },
        1 => ArrivalProcess::OnOff {
            on_rate: rate * 3.0,
            off_rate: rate / 4.0,
            on_s: 0.2,
            off_s: 0.3,
        },
        2 => ArrivalProcess::Diurnal {
            base_rate: rate,
            amplitude: 0.8,
            period_s: 1.5,
        },
        _ => ArrivalProcess::FlashCrowd {
            base_rate: rate,
            peak_rate: rate * 5.0,
            start_s: 0.1,
            duration_s: 0.3,
        },
    }
}

/// Popularity number `kind % 3`.
fn popularity(kind: usize) -> Popularity {
    match kind % 3 {
        0 => Popularity::Weighted,
        1 => Popularity::Uniform,
        _ => Popularity::Zipfian { exponent: 1.2 },
    }
}

/// Four phases, one per arrival process (in an order rotated by
/// `rotation`), cycling through every popularity, each drawing from a
/// scenario mix picked from `mixes`.
fn multi_phase_spec(
    rotation: usize,
    mixes: &[usize],
    phase_s: f64,
    rate: f64,
    seed: u64,
) -> StreamSpec {
    let phases = (0..4)
        .map(|i| PhaseSpec {
            start_ns: (i as f64 * phase_s * 1e9) as u64,
            process: process(rotation + i, rate),
            mix: SCENARIOS[mixes[i] % SCENARIOS.len()].mix(),
            popularity: popularity(rotation + i),
            slo: SloModel::Range { lo: 2.0, hi: 20.0 },
        })
        .collect();
    StreamSpec {
        phases,
        num_requests: 150,
        samples_per_variant: 2,
        seed,
    }
}

/// Every request's id is its spec's id in `store`.
fn assert_ids_name_specs(requests: &[Request], store: &TraceStore) {
    for r in requests {
        prop_assert_eq!(
            store.variant_id(&r.spec),
            Some(r.variant),
            "request {}",
            r.id
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn minted_variant_ids_name_their_specs(
        rotation in 0usize..12,
        mixes in prop::collection::vec(0usize..5, 4),
        phase_s in 0.3f64..1.5,
        rate in 5.0f64..40.0,
        seed in 0u64..1000,
    ) {
        let spec = multi_phase_spec(rotation, &mixes, phase_s, rate, seed);
        let store = spec.build_store();
        // The streaming source mints the ids itself...
        let streamed: Vec<Request> = spec.source(&store).collect();
        prop_assert!(!streamed.is_empty());
        assert_ids_name_specs(&streamed, &store);
        // ...and a materialized workload keeps them.
        let w = spec.materialize();
        prop_assert_eq!(w.requests(), &streamed[..]);
        assert_ids_name_specs(w.requests(), w.store());
    }

    #[test]
    fn from_parts_resets_wrong_variant_ids(
        scenario in scenario_strategy(),
        seed in 0u64..500,
        shift in 1usize..40,
    ) {
        let w = WorkloadBuilder::new(scenario)
            .num_requests(30)
            .samples_per_variant(2)
            .seed(seed)
            .build();
        // Shifted ids name other variants or fall out of range.
        let wrong: Vec<Request> = w
            .requests()
            .iter()
            .map(|r| Request {
                variant: VariantId::from_index(r.variant.index() + shift),
                ..*r
            })
            .collect();
        let rebuilt = Workload::from_parts(wrong, w.store().clone());
        assert_ids_name_specs(rebuilt.requests(), rebuilt.store());
        prop_assert_eq!(rebuilt.requests(), w.requests());
    }

    #[test]
    fn workload_invariants(
        scenario in scenario_strategy(),
        seed in 0u64..500,
        rate in 0.5f64..50.0,
        slo in 1.0f64..100.0,
        n in 5usize..40,
    ) {
        let w = WorkloadBuilder::new(scenario)
            .arrival_rate(rate)
            .slo_multiplier(slo)
            .num_requests(n)
            .samples_per_variant(4)
            .seed(seed)
            .build();
        let reqs = w.requests();
        prop_assert_eq!(reqs.len(), n);
        // Ids are dense and arrivals sorted.
        for (i, r) in reqs.iter().enumerate() {
            prop_assert_eq!(r.id, i as u64);
            if i > 0 {
                prop_assert!(reqs[i - 1].arrival_ns <= r.arrival_ns);
            }
            // SLO formula: profiled average x multiplier.
            let profiled = w.store().by_id(r.variant).avg_latency_ns();
            prop_assert_eq!(r.slo_ns, (profiled * slo).round() as u64);
            // The trace library covers the request.
            prop_assert!(w.trace_for(r).isolated_latency_ns() > 0);
        }
    }

    #[test]
    fn doubling_rate_roughly_halves_the_span(
        seed in 0u64..200,
    ) {
        let span = |rate: f64| {
            let w = WorkloadBuilder::new(Scenario::MultiCnn)
                .arrival_rate(rate)
                .num_requests(60)
                .samples_per_variant(4)
                .seed(seed)
                .build();
            let reqs = w.requests();
            (reqs.last().unwrap().arrival_ns - reqs[0].arrival_ns) as f64
        };
        let slow = span(2.0);
        let fast = span(8.0);
        // 4x the rate: span shrinks to ~1/4; allow generous slack for the
        // exponential variance at 60 samples.
        prop_assert!(fast < slow * 0.65, "fast {fast} slow {slow}");
    }

    #[test]
    fn offered_load_scales_with_rate(seed in 0u64..200) {
        let load = |rate: f64| {
            WorkloadBuilder::new(Scenario::MultiAttNn)
                .arrival_rate(rate)
                .num_requests(80)
                .samples_per_variant(4)
                .seed(seed)
                .build()
                .offered_load()
        };
        prop_assert!(load(10.0) < load(40.0));
    }
}
