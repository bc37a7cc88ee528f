//! The Dysta bi-level sparsity-aware scheduler and its baselines.
//!
//! This crate is the paper's primary contribution (its Sections 4–5
//! algorithms):
//!
//! * [`DystaScheduler`] — the bi-level scheduler. The software-level
//!   *static* component (Algorithm 1) assigns each arriving request an
//!   initial score `Lat + β·(SLO − Lat)` from pattern-aware LUT
//!   information; the hardware-level *dynamic* component (Algorithm 2)
//!   re-scores the queue at every layer boundary as
//!   `T̂_remain + η·(T_slack + T_penalty)` using the sparse latency
//!   predictor.
//! * [`SparseLatencyPredictor`] — Algorithm 3: a linear model
//!   `Lat = α·γ·Lat_avg` whose coefficient `γ` is the ratio of monitored
//!   to LUT-average layer density, with *average-all*, *last-three* and
//!   *last-one* estimation strategies (Table 4).
//! * Baselines — [`Fcfs`], [`Sjf`], [`Prema`], [`Planaria`], [`Sdrm3`]
//!   and the perfect-knowledge [`OracleScheduler`], the comparison set of
//!   Table 5.
//!
//! Schedulers implement the [`Scheduler`] trait and are driven by the
//! discrete-event engine in `dysta-sim` at layer-boundary granularity,
//! matching the preemptive time-multiplexed execution model the paper
//! assumes.
//!
//! # Examples
//!
//! ```
//! use dysta_core::{Policy, Scheduler};
//!
//! let mut sched = Policy::Dysta.build();
//! assert_eq!(sched.name(), "dysta");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod baselines;
mod dysta_sched;
mod lut;
mod policy;
mod predictor;
mod rounding;
mod scheduler;
mod task;

pub use baselines::{Fcfs, Planaria, Prema, Sdrm3, Sjf};
pub use dysta_sched::{DystaConfig, DystaScheduler, DystaStaticScheduler, OracleScheduler};
pub use lut::{ModelInfo, ModelInfoLut};
pub use policy::Policy;
pub use predictor::{CoeffStrategy, SparseLatencyPredictor};
pub use rounding::{round_ns, scale_ns};
pub use scheduler::{pick_min_score, Scheduler, TaskQueue};
pub use task::{SparsitySummary, TaskState};

// The interned variant handle travels with `TaskState`, so re-export it
// for downstream crates that only depend on the scheduler interface.
pub use dysta_trace::VariantId;
