//! Hardware design of the Dysta dynamic scheduler (the paper's Section 5).
//!
//! The paper implements the dynamic scheduler as a small RTL module
//! sitting between the host and the NPU (its Figure 10): request FIFOs, a
//! runtime sparsity monitor, LUTs, and a *reconfigurable compute unit*
//! shared between the sparsity-coefficient and score dataflows (Figure
//! 11), all in half-precision floating point. This crate reproduces that
//! design as a functional model plus an FPGA resource cost model:
//!
//! * [`fp16`] — IEEE 754 binary16 software emulation with round-to-nearest,
//!   used to verify that FP16 arithmetic preserves scheduling decisions.
//! * the shared reconfigurable compute unit — its two dataflows
//!   (coefficient / score), each a pure FP16 function that
//!   [`HardwareDystaScheduler`] evaluates.
//! * [`HardwareDystaScheduler`] — a [`dysta_core::Scheduler`] that runs
//!   Dysta's dynamic level through the FP16 datapath, demonstrating
//!   functional equivalence with the software scheduler. The request
//!   FIFO's depth (the paper evaluates 64 and 512) is modelled as its
//!   visibility window: each pick scores only the `fifo_depth` earliest
//!   arrivals.
//! * [`resources`] — component-level LUT/FF/DSP/BRAM costs for the three
//!   design points of Figure 16 (`Non_Opt_FP32`, `Opt_FP32`, `Opt_FP16`)
//!   and the Table 6 overhead comparison against Eyeriss-V2.
//!
//! # Examples
//!
//! ```
//! use dysta_hw::resources::{DesignPoint, Precision};
//!
//! let opt16 = DesignPoint::opt_fp16(64).usage();
//! let non_opt = DesignPoint::non_opt_fp32(64).usage();
//! assert!(opt16.luts < non_opt.luts);
//! assert!(opt16.dsps < non_opt.dsps);
//! # let _ = Precision::Fp16;
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod compute_unit;
pub mod fp16;
mod hw_scheduler;
pub mod resources;

pub use fp16::F16;
pub use hw_scheduler::HardwareDystaScheduler;
