//! Reproducibility guarantees: everything is a pure function of its seed.

use dysta::core::Policy;
use dysta::models::ModelId;
use dysta::obs::RingTracer;
use dysta::sim::{simulate, simulate_traced, EngineConfig};
use dysta::sparsity::SparsityPattern;
use dysta::trace::{ModelTraces, SparseModelSpec};
use dysta::workload::{Scenario, WorkloadBuilder};

#[test]
fn workloads_are_reproducible() {
    let build = || {
        WorkloadBuilder::new(Scenario::MultiAttNn)
            .num_requests(50)
            .samples_per_variant(8)
            .seed(99)
            .build()
    };
    let (a, b) = (build(), build());
    assert_eq!(a.requests(), b.requests());
    assert_eq!(a.store(), b.store());
}

#[test]
fn simulations_are_reproducible_for_every_policy() {
    let w = WorkloadBuilder::new(Scenario::MultiCnn)
        .num_requests(50)
        .samples_per_variant(8)
        .seed(17)
        .build();
    for policy in Policy::ALL {
        let a = simulate(&w, policy.build().as_mut(), &EngineConfig::default());
        let b = simulate(&w, policy.build().as_mut(), &EngineConfig::default());
        assert_eq!(a.completed(), b.completed(), "{policy}");
        assert_eq!(a.preemptions(), b.preemptions(), "{policy}");
    }
}

#[test]
fn traced_runs_match_untraced_and_export_byte_identically() {
    let w = WorkloadBuilder::new(Scenario::MultiCnn)
        .num_requests(50)
        .samples_per_variant(8)
        .seed(17)
        .build();
    for policy in Policy::ALL {
        // Tracing observes without perturbing: the traced report equals
        // the untraced one for every shipped policy.
        let plain = simulate(&w, policy.build().as_mut(), &EngineConfig::default());
        let run = || {
            let tracer = RingTracer::new(1 << 16);
            let report = simulate_traced(
                &w,
                policy.build().as_mut(),
                &EngineConfig::default(),
                &tracer,
            );
            tracer.validate().expect("well-formed event stream");
            (report, tracer.perfetto_json())
        };
        let (r1, json1) = run();
        let (r2, json2) = run();
        assert_eq!(plain.completed(), r1.completed(), "{policy}");
        assert_eq!(r1.completed(), r2.completed(), "{policy}");
        // The export itself is a pure function of the run.
        assert_eq!(json1, json2, "{policy}: trace export not deterministic");
    }
}

#[test]
fn traces_depend_on_seed_but_not_generation_order() {
    let spec = SparseModelSpec::new(ModelId::Gpt2, SparsityPattern::Dense, 0.0);
    let full = ModelTraces::generate(&spec, 8, 3);
    // Regenerating fewer samples yields a prefix (per-index determinism).
    let prefix = ModelTraces::generate(&spec, 4, 3);
    for i in 0..4 {
        assert_eq!(full.sample(i), prefix.sample(i));
    }
}

#[test]
fn seeds_actually_matter() {
    let w1 = WorkloadBuilder::new(Scenario::MultiCnn)
        .num_requests(50)
        .samples_per_variant(8)
        .seed(1)
        .build();
    let w2 = WorkloadBuilder::new(Scenario::MultiCnn)
        .num_requests(50)
        .samples_per_variant(8)
        .seed(2)
        .build();
    assert_ne!(w1.requests(), w2.requests());
}
