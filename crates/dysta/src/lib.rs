//! Facade crate for the Sparse-DySta reproduction.
//!
//! Re-exports every subsystem under one roof so downstream users can
//! depend on a single crate:
//!
//! * [`models`] — DNN layer-graph zoo (SSD, ResNet-50, VGG-16, MobileNet,
//!   GoogLeNet, Inception-V3, BERT, GPT-2, BART).
//! * [`sparsity`] — weight-sparsity patterns and dynamic
//!   activation/attention sparsity profiles.
//! * [`accel`] — Eyeriss-V2 and Sanger performance models.
//! * [`trace`] — Phase-1 runtime-information traces.
//! * [`workload`] — Poisson request streams, scenario mixes, SLOs.
//! * [`core`] — the Dysta bi-level scheduler, baselines, predictor.
//! * [`sim`] — discrete-event engine (step-able [`sim::NodeEngine`])
//!   and metrics.
//! * [`cluster`] — multi-accelerator pools behind pluggable dispatch
//!   policies.
//! * [`hw`] — hardware scheduler model and FPGA resource costs.
//! * [`obs`] — sim-time tracing ([`obs::RingTracer`]) and Perfetto
//!   export for the engine stack.
//!
//! # Examples
//!
//! ```
//! use dysta::core::Policy;
//! use dysta::sim::{simulate, EngineConfig};
//! use dysta::workload::{Scenario, WorkloadBuilder};
//!
//! let workload = WorkloadBuilder::new(Scenario::MultiAttNn)
//!     .num_requests(20)
//!     .samples_per_variant(4)
//!     .seed(0)
//!     .build();
//! let report = simulate(&workload, Policy::Dysta.build().as_mut(), &EngineConfig::default());
//! println!("ANTT {:.2}, violations {:.1}%",
//!     report.antt(), report.violation_rate() * 100.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use dysta_accel as accel;
pub use dysta_cluster as cluster;
pub use dysta_core as core;
pub use dysta_hw as hw;
pub use dysta_models as models;
pub use dysta_obs as obs;
pub use dysta_sim as sim;
pub use dysta_sparsity as sparsity;
pub use dysta_trace as trace;
pub use dysta_workload as workload;
