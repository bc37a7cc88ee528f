//! Ablation: the `β`/`η` hyperparameter trade-off curves.
//!
//! The paper parameterises both scoring levels so the operator can tune
//! the balance between ANTT and SLO violations (Section 4.2). `η` is
//! swept at the paper's operating points. For `β` a structural fact
//! surfaces first: with one *uniform* SLO multiplier, the static score
//! `Lat + β(SLO − Lat) = Lat(1 + β(M−1))` is a monotone transform of the
//! profiled latency, so β cannot change the ordering. The β sweep is
//! therefore run with heterogeneous per-request SLO multipliers
//! (interactive vs batch tenants), where slack genuinely differentiates
//! requests.

use dysta::core::{DystaConfig, DystaStaticScheduler, Policy};
use dysta::sim::{simulate, EngineConfig};
use dysta::workload::{Scenario, WorkloadBuilder};
use dysta_bench::{banner, compare_policies, replicate, Scale};

fn main() {
    banner("Ablation", "beta / eta trade-off curves");
    let scale = Scale::from_env();
    for (title, scenario, rate) in [
        ("Multi-AttNNs @ 30/s", Scenario::MultiAttNn, 30.0),
        ("Multi-CNNs @ 3/s", Scenario::MultiCnn, 3.0),
    ] {
        println!("--- {title}: dynamic-level eta (full Dysta, uniform SLO x10) ---");
        println!("{:<8} {:>8} {:>10}", "eta", "ANTT", "viol [%]");
        for eta in [0.0, 0.01, 0.03, 0.1, 0.3, 1.0] {
            let cfg = DystaConfig { beta: 0.5, eta };
            let rows = compare_policies(scenario, rate, 10.0, scale, &[Policy::Dysta], cfg);
            println!(
                "{:<8} {:>8.2} {:>9.1}%",
                eta,
                rows[0].metrics.antt,
                rows[0].metrics.violation_rate * 100.0
            );
        }
        println!("--- {title}: static-level beta (Dysta-w/o-sparse, SLO x5..x50) ---");
        println!("{:<8} {:>8} {:>10}", "beta", "ANTT", "viol [%]");
        let betas = [0.0, 0.1, 0.25, 0.5, 1.0];
        let builder = WorkloadBuilder::new(scenario)
            .arrival_rate(rate)
            .slo_multiplier_range(5.0, 50.0);
        let sums = replicate(
            0..scale.seeds,
            |seed| scale.workload(&builder, seed),
            &betas,
            |&beta, w| {
                let mut sched = DystaStaticScheduler::new(DystaConfig { beta, eta: 0.03 });
                let m = simulate(w, &mut sched, &EngineConfig::default()).metrics();
                [m.antt, m.violation_rate]
            },
        );
        for (beta, s) in betas.iter().zip(sums) {
            let [antt, viol] = s.mean();
            println!("{:<8} {:>8.2} {:>9.1}%", beta, antt, viol * 100.0);
        }
        println!();
    }
    println!("expectation: eta trades ANTT for violations (the knee is the");
    println!("deployed configuration); under heterogeneous SLOs, moderate");
    println!("beta lowers violations versus the beta=0 latency-only order");
}
