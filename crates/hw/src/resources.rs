//! FPGA resource cost model (the paper's Figure 16 and Table 6).
//!
//! The paper synthesises three variants of the hardware scheduler on a
//! Xilinx Zynq ZU7EV at 200 MHz: `Non_Opt_FP32` (separate compute units
//! per dataflow, 32-bit floats), `Opt_FP32` (shared reconfigurable unit)
//! and `Opt_FP16` (shared unit + half precision). This module prices each
//! design from per-component costs typical of Xilinx floating-point
//! operator IP, calibrated so that `Opt_FP16` at FIFO depth 64 lands on
//! the paper's reported footprint (553 LUTs, 3 DSPs, ~0.5 KB of on-chip
//! RAM) and the relative savings of the two optimizations match
//! Figure 16.

/// Floating-point precision of the datapath.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Precision {
    /// 32-bit single precision.
    Fp32,
    /// 16-bit half precision.
    Fp16,
}

impl Precision {
    /// Operand width in bits.
    pub fn bits(self) -> u32 {
        match self {
            Precision::Fp32 => 32,
            Precision::Fp16 => 16,
        }
    }
}

/// Resource usage of a design.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ResourceUsage {
    /// Lookup tables.
    pub luts: u32,
    /// Flip-flops.
    pub ffs: u32,
    /// DSP slices.
    pub dsps: u32,
    /// On-chip RAM in kilobytes.
    pub ram_kb: f64,
}

impl ResourceUsage {
    /// Element-wise sum.
    pub fn plus(self, other: ResourceUsage) -> ResourceUsage {
        ResourceUsage {
            luts: self.luts + other.luts,
            ffs: self.ffs + other.ffs,
            dsps: self.dsps + other.dsps,
            ram_kb: self.ram_kb + other.ram_kb,
        }
    }

    /// Component-wise ratio against a baseline (used by Figure 16's
    /// normalised plot).
    pub fn normalized_to(self, base: ResourceUsage) -> (f64, f64, f64) {
        (
            self.luts as f64 / base.luts.max(1) as f64,
            self.ffs as f64 / base.ffs.max(1) as f64,
            self.dsps as f64 / base.dsps.max(1) as f64,
        )
    }
}

/// Per-operator costs (LUT, FF, DSP), typical of Xilinx FP operator IP.
fn mult_cost(p: Precision) -> (u32, u32, u32) {
    match p {
        Precision::Fp32 => (85, 120, 3),
        Precision::Fp16 => (25, 55, 1),
    }
}

fn addsub_cost(p: Precision) -> (u32, u32, u32) {
    match p {
        Precision::Fp32 => (220, 210, 0),
        Precision::Fp16 => (70, 85, 0),
    }
}

/// One 2:1 mux per operand bit costs half a LUT (fracturable LUT6).
fn mux_cost(p: Precision) -> u32 {
    p.bits() / 2
}

/// Controller FSM + request bookkeeping.
const CONTROLLER_LUTS: u32 = 120;
const CONTROLLER_FFS: u32 = 110;
/// Zero-counting sparsity monitor.
const MONITOR_LUTS: u32 = 40;
const MONITOR_FFS: u32 = 36;
/// Per-FIFO pointer/flag control logic.
const FIFO_CTRL_LUTS: u32 = 20;

/// Number of multipliers / adder-subtractors in the shared unit
/// (Figure 10: three of each, with the division folded into a
/// reciprocal multiplication).
const SHARED_MULTS: u32 = 3;
const SHARED_ADDSUBS: u32 = 3;
/// The non-optimised design duplicates the coefficient dataflow's two
/// multipliers in a separate unit.
const COEFF_UNIT_MULTS: u32 = 2;
/// Muxes/demuxes required to share the unit between the two dataflows.
const SHARED_MUXES: u32 = 6;

/// A point in the scheduler's design space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DesignPoint {
    /// Datapath precision.
    pub precision: Precision,
    /// Whether the compute unit is shared between dataflows.
    pub shared_unit: bool,
    /// Request FIFO depth.
    pub fifo_depth: u32,
}

impl DesignPoint {
    /// The paper's `Non_Opt_FP32` design.
    pub fn non_opt_fp32(fifo_depth: u32) -> Self {
        DesignPoint {
            precision: Precision::Fp32,
            shared_unit: false,
            fifo_depth,
        }
    }

    /// The paper's `Opt_FP32` design.
    pub fn opt_fp32(fifo_depth: u32) -> Self {
        DesignPoint {
            precision: Precision::Fp32,
            shared_unit: true,
            fifo_depth,
        }
    }

    /// The paper's `Opt_FP16` design (the deployed configuration).
    pub fn opt_fp16(fifo_depth: u32) -> Self {
        DesignPoint {
            precision: Precision::Fp16,
            shared_unit: true,
            fifo_depth,
        }
    }

    /// Display label matching the paper's Figure 16 legend.
    pub fn label(&self) -> &'static str {
        match (self.shared_unit, self.precision) {
            (false, Precision::Fp32) => "Non_Opt_FP32",
            (true, Precision::Fp32) => "Opt_FP32",
            (true, Precision::Fp16) => "Opt_FP16",
            (false, Precision::Fp16) => "Non_Opt_FP16",
        }
    }

    /// Prices the design.
    pub fn usage(&self) -> ResourceUsage {
        let p = self.precision;
        let (m_lut, m_ff, m_dsp) = mult_cost(p);
        let (a_lut, a_ff, a_dsp) = addsub_cost(p);

        let (mults, addsubs, muxes, extra_ffs) = if self.shared_unit {
            (SHARED_MULTS, SHARED_ADDSUBS, SHARED_MUXES, 0)
        } else {
            // Separate units: duplicate the coefficient multipliers, no
            // sharing muxes, plus inter-unit pipeline registers.
            (
                SHARED_MULTS + COEFF_UNIT_MULTS,
                SHARED_ADDSUBS,
                0,
                4 * p.bits(),
            )
        };

        let luts = mults * m_lut
            + addsubs * a_lut
            + muxes * mux_cost(p)
            + CONTROLLER_LUTS
            + MONITOR_LUTS
            + self.num_fifos() * FIFO_CTRL_LUTS;
        let ffs = mults * m_ff
            + addsubs * a_ff
            + CONTROLLER_FFS
            + MONITOR_FFS
            + extra_ffs
            + self.num_fifos() * 2 * log2_ceil(self.fifo_depth);
        let dsps = mults * m_dsp + addsubs * a_dsp;
        ResourceUsage {
            luts,
            ffs,
            dsps,
            ram_kb: self.fifo_bits() as f64 / 8.0 / 1024.0,
        }
    }

    /// Tag FIFO (8-bit) plus score, deadline and wait-timestamp FIFOs at
    /// datapath width.
    fn num_fifos(&self) -> u32 {
        4
    }

    fn fifo_bits(&self) -> u32 {
        let width = 8 + 3 * self.precision.bits();
        width * self.fifo_depth
    }
}

fn log2_ceil(x: u32) -> u32 {
    32 - x.max(1).saturating_sub(1).leading_zeros()
}

/// The Eyeriss-V2 accelerator footprint the paper measures against
/// (third-party implementation on the Zynq ZU7EV, Table 6).
pub fn eyeriss_v2_baseline() -> ResourceUsage {
    ResourceUsage {
        luts: 99_168,
        ffs: 86_000,
        dsps: 194,
        ram_kb: 140.0,
    }
}

/// Table 6: scheduler overhead relative to the accelerator, in percent
/// `(LUTs, DSPs, RAM)`.
pub fn overhead_percent(scheduler: ResourceUsage, accelerator: ResourceUsage) -> (f64, f64, f64) {
    (
        scheduler.luts as f64 / accelerator.luts as f64 * 100.0,
        scheduler.dsps as f64 / accelerator.dsps as f64 * 100.0,
        scheduler.ram_kb / accelerator.ram_kb * 100.0,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn opt_fp16_depth_64_matches_paper_footprint() {
        let u = DesignPoint::opt_fp16(64).usage();
        // Paper Table 6: 553 LUTs, 3 DSPs, 0.5 KB.
        assert!((500..=620).contains(&u.luts), "{} LUTs", u.luts);
        assert_eq!(u.dsps, 3);
        assert!((0.3..=0.6).contains(&u.ram_kb), "{} KB", u.ram_kb);
    }

    #[test]
    fn optimizations_strictly_reduce_every_resource() {
        for depth in [64, 512] {
            let non = DesignPoint::non_opt_fp32(depth).usage();
            let opt32 = DesignPoint::opt_fp32(depth).usage();
            let opt16 = DesignPoint::opt_fp16(depth).usage();
            assert!(
                opt32.luts < non.luts && opt32.dsps < non.dsps,
                "depth {depth}"
            );
            assert!(opt16.luts < opt32.luts, "depth {depth}");
            assert!(opt16.dsps < opt32.dsps, "depth {depth}");
            assert!(
                opt16.ffs < opt32.ffs && opt32.ffs < non.ffs,
                "depth {depth}"
            );
            assert!(opt16.ram_kb < opt32.ram_kb, "depth {depth}");
        }
    }

    #[test]
    fn overhead_is_negligible_vs_eyeriss() {
        let (lut, dsp, ram) =
            overhead_percent(DesignPoint::opt_fp16(64).usage(), eyeriss_v2_baseline());
        // Paper: 0.55% LUTs, 1.5% DSPs, 0.35% RAM.
        assert!(lut < 1.0, "LUT overhead {lut}%");
        assert!(dsp < 2.0, "DSP overhead {dsp}%");
        assert!(ram < 0.5, "RAM overhead {ram}%");
    }

    #[test]
    fn deeper_fifos_cost_ram_not_dsps() {
        let shallow = DesignPoint::opt_fp16(64).usage();
        let deep = DesignPoint::opt_fp16(512).usage();
        assert!(deep.ram_kb > shallow.ram_kb * 4.0);
        assert_eq!(deep.dsps, shallow.dsps);
    }

    #[test]
    fn normalization_against_non_opt() {
        let base = DesignPoint::non_opt_fp32(64).usage();
        let (l, f, d) = DesignPoint::opt_fp16(64).usage().normalized_to(base);
        assert!(l < 0.6 && f < 0.7 && d < 0.3, "({l:.2}, {f:.2}, {d:.2})");
    }

    #[test]
    fn log2_ceil_values() {
        assert_eq!(log2_ceil(1), 0);
        assert_eq!(log2_ceil(2), 1);
        assert_eq!(log2_ceil(64), 6);
        assert_eq!(log2_ceil(65), 7);
        assert_eq!(log2_ceil(512), 9);
    }
}
