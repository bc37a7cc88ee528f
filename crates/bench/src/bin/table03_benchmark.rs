//! Table 3: the sparse multi-DNN benchmark summary — models, deployment
//! scenarios, and their profiled characteristics on the target hardware.

use dysta::models::{zoo, ModelFamily, ModelId};
use dysta::sparsity::SparsityPattern;
use dysta::trace::{ModelTraces, SparseModelSpec};
use dysta_bench::banner;

fn scenario_of(model: ModelId) -> (&'static str, &'static str) {
    match model {
        ModelId::Ssd => ("Data Center / AR-VR", "Object & Hand Detection"),
        ModelId::Vgg16 | ModelId::ResNet50 => ("Data Center", "Image Classification"),
        ModelId::MobileNet => ("AR/VR Wearables", "Gesture Recognition"),
        ModelId::GoogLeNet | ModelId::InceptionV3 => ("Profiling only", "Table 2 sparsity study"),
        ModelId::Bart | ModelId::Gpt2 => ("Mobile Phone", "Machine Translation"),
        ModelId::Bert => ("Mobile Phone", "Question & Answering"),
    }
}

fn main() {
    banner("Table 3", "benchmark models and scenarios");
    println!(
        "{:<12} {:<6} {:>7} {:>10} {:>10} {:>12} {:<22}",
        "model", "family", "layers", "GMACs", "Mparams", "isolated", "scenario"
    );
    for id in ModelId::ALL {
        let graph = zoo::build(id);
        let spec = SparseModelSpec::new(
            id,
            if id.family() == ModelFamily::Cnn {
                SparsityPattern::RandomPointwise
            } else {
                SparsityPattern::Dense
            },
            if id.family() == ModelFamily::Cnn {
                0.8
            } else {
                0.0
            },
        );
        let traces = ModelTraces::generate(&spec, 16, 0);
        let (scenario, task) = scenario_of(id);
        println!(
            "{:<12} {:<6} {:>7} {:>10.2} {:>10.1} {:>9.1} ms {:<22}",
            id.to_string(),
            graph.family().to_string(),
            graph.num_layers(),
            graph.total_macs() as f64 / 1e9,
            graph.total_params() as f64 / 1e6,
            traces.avg_latency_ns() / 1e6,
            format!("{scenario}: {task}"),
        );
    }
    println!();
    println!("isolated = profiled average on the family's target accelerator");
    println!("(Eyeriss-V2 for CNNs at 80% random weight sparsity, Sanger for");
    println!("AttNNs under dynamic attention sparsity)");
}
