//! Phase-change streams (proptest): a multi-phase [`StreamSpec`] is
//! pinned against itself — two runs of the same spec must agree
//! request-for-request, arrivals must be monotone and land inside
//! their phase's half-open window, and ids must stay dense. (Single
//! steady phases are what `WorkloadBuilder` builds; the golden
//! fixtures pin those byte for byte.)

use proptest::prelude::*;

use dysta::workload::{ArrivalProcess, PhaseSpec, Popularity, Scenario, SloModel, StreamSpec};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Phase-change sequences: deterministic across runs, monotone
    /// arrivals, dense ids, and every arrival inside its phase window.
    #[test]
    fn phase_change_stream_is_deterministic_and_monotone(
        seed in 0u64..1_000_000,
        rate_a_centi in 50u64..2_000,
        rate_b_centi in 50u64..2_000,
        boundary_s in 1u64..30,
        num_requests in 1u64..300,
    ) {
        let boundary_ns = boundary_s * 1_000_000_000;
        let spec = StreamSpec {
            phases: vec![
                PhaseSpec::steady(
                    0,
                    rate_a_centi as f64 / 10.0,
                    Scenario::MultiAttNn.mix(),
                    SloModel::Fixed(10.0),
                ),
                PhaseSpec {
                    start_ns: boundary_ns,
                    process: ArrivalProcess::Poisson {
                        rate: rate_b_centi as f64 / 10.0,
                    },
                    mix: Scenario::MultiCnn.mix(),
                    popularity: Popularity::Zipfian { exponent: 1.0 },
                    slo: SloModel::Range { lo: 5.0, hi: 15.0 },
                },
            ],
            num_requests,
            samples_per_variant: 4,
            seed,
        };

        let store = spec.build_store();
        let first: Vec<_> = spec.source(&store).collect();
        let second: Vec<_> = spec.source(&store).collect();
        prop_assert_eq!(&first, &second);
        prop_assert_eq!(first.len() as u64, num_requests);

        let mut prev_arrival = 0u64;
        for (i, request) in first.iter().enumerate() {
            prop_assert_eq!(request.id, i as u64);
            prop_assert!(request.arrival_ns >= prev_arrival);
            prev_arrival = request.arrival_ns;
        }
        // Requests before the boundary draw from phase 0's mix, at and
        // after it from phase 1's (the window is half-open).
        let attnn = Scenario::MultiAttNn.mix();
        let cnn = Scenario::MultiCnn.mix();
        for request in &first {
            let mix = if request.arrival_ns < boundary_ns { &attnn } else { &cnn };
            prop_assert!(mix.iter().any(|(s, _)| *s == request.spec));
        }
    }
}
