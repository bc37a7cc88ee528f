//! Phase-1 runtime-information traces.
//!
//! The paper's evaluation methodology (its Figure 7) has two phases. In
//! *Phase 1: Hardware Simulation*, every (model, input) pair is pushed
//! through the target accelerator's simulator once, recording per-layer
//! latency and monitored sparsity; the paper saves the results as files.
//! In *Phase 2: Scheduling Evaluation*, the scheduler engine replays this
//! runtime information to simulate multi-tenant execution.
//!
//! This crate is Phase 1: [`ModelTraces::generate`] drives the
//! [`dysta_accel`] performance models over per-sample sparsity draws from
//! [`dysta_sparsity`], producing one [`ModelTraces`] per sparse-model
//! variant (the in-memory equivalent of the paper's CSV files) with the
//! derived statistics the Dysta LUTs need (average latency, average
//! per-layer sparsity). [`TraceStore`] keys the whole set by variant.
//! Every run regenerates its traces in memory from a seed; nothing is
//! written to files, since generation is deterministic.
//!
//! # Examples
//!
//! ```
//! use dysta_trace::{ModelTraces, SparseModelSpec};
//! use dysta_models::ModelId;
//! use dysta_sparsity::SparsityPattern;
//!
//! let spec = SparseModelSpec::new(ModelId::MobileNet, SparsityPattern::RandomPointwise, 0.8);
//! let traces = ModelTraces::generate(&spec, 16, 42);
//! assert_eq!(traces.num_samples(), 16);
//! assert!(traces.avg_latency_ns() > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod generate;
mod record;
mod store;

pub use record::{LayerRecord, ModelTraces, SampleTrace, SparseModelSpec, VariantId};
pub use store::TraceStore;
