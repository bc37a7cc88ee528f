//! Discrete-event simulator for preemptive multi-DNN execution
//! (the paper's Phase-2 *Scheduler Engine*).
//!
//! The engine models the paper's execution substrate: a single
//! time-shared accelerator (NPU) that executes one layer(-block) at a
//! time. At every layer completion — and at arrival when idle — the
//! engine decides which request runs next, which is exactly the
//! preemption granularity of the paper's Algorithm 2. The scheduler
//! makes that decision whenever two or more requests are runnable; a
//! pick is a pure function of the queue, so with one runnable request
//! the engine takes it without asking. Layer latencies are replayed
//! from the Phase-1 traces, so all schedulers see identical work and
//! differ only in ordering decisions.
//!
//! [`SimReport::metrics`] computes the paper's three evaluation metrics: average
//! normalized turnaround time (ANTT), latency-SLO violation rate, and
//! system throughput (STP).
//!
//! # Examples
//!
//! ```
//! use dysta_core::Policy;
//! use dysta_sim::{simulate, EngineConfig};
//! use dysta_workload::{Scenario, WorkloadBuilder};
//!
//! let workload = WorkloadBuilder::new(Scenario::MultiCnn)
//!     .num_requests(30)
//!     .samples_per_variant(8)
//!     .seed(1)
//!     .build();
//! let report = simulate(&workload, Policy::Dysta.build().as_mut(), &EngineConfig::default());
//! assert_eq!(report.completed().len(), 30);
//! assert!(report.antt() >= 1.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod engine;
mod node;
mod report;

pub use engine::{simulate, simulate_traced, EngineConfig};
pub use node::{NodeEngine, TransferableTask};
pub use report::{
    percentile_ns, summarize, CompletedRequest, CompletionSummary, Metrics, SimReport,
};
