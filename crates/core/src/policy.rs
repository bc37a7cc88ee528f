//! Policy selector: build any scheduler by name.

use std::fmt;
use std::str::FromStr;

use crate::{
    DystaConfig, DystaScheduler, DystaStaticScheduler, Fcfs, OracleScheduler, Planaria, Prema,
    Scheduler, Sdrm3, Sjf, SparseLatencyPredictor,
};

/// Every scheduling policy evaluated by the paper, as a constructible
/// enum (used by the benchmark harness to sweep the full comparison set).
///
/// # Examples
///
/// ```
/// use dysta_core::Policy;
///
/// let names: Vec<&str> = Policy::ALL.iter().map(|p| p.name()).collect();
/// assert!(names.contains(&"dysta") && names.contains(&"oracle"));
/// assert_eq!("sjf".parse::<Policy>(), Ok(Policy::Sjf));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum Policy {
    Fcfs,
    Sjf,
    Prema,
    Planaria,
    Sdrm3,
    DystaStatic,
    Dysta,
    Oracle,
}

impl Policy {
    /// All policies in the paper's table order (plus the ablation).
    pub const ALL: [Policy; 8] = [
        Policy::Fcfs,
        Policy::Sjf,
        Policy::Sdrm3,
        Policy::Prema,
        Policy::Planaria,
        Policy::DystaStatic,
        Policy::Dysta,
        Policy::Oracle,
    ];

    /// The Table 5 comparison set (no ablation, no oracle).
    pub const TABLE5: [Policy; 6] = [
        Policy::Fcfs,
        Policy::Sjf,
        Policy::Sdrm3,
        Policy::Prema,
        Policy::Planaria,
        Policy::Dysta,
    ];

    /// Stable lower-case name.
    pub fn name(self) -> &'static str {
        match self {
            Policy::Fcfs => "fcfs",
            Policy::Sjf => "sjf",
            Policy::Prema => "prema",
            Policy::Planaria => "planaria",
            Policy::Sdrm3 => "sdrm3",
            Policy::DystaStatic => "dysta-static",
            Policy::Dysta => "dysta",
            Policy::Oracle => "oracle",
        }
    }

    /// Instantiates the scheduler with default hyperparameters.
    pub fn build(self) -> Box<dyn Scheduler> {
        self.build_with(DystaConfig::default())
    }

    /// Instantiates the scheduler; Dysta-family policies use `config`.
    pub fn build_with(self, config: DystaConfig) -> Box<dyn Scheduler> {
        match self {
            Policy::Fcfs => Box::new(Fcfs::new()),
            Policy::Sjf => Box::new(Sjf::new()),
            Policy::Prema => Box::new(Prema),
            Policy::Planaria => Box::new(Planaria::new()),
            Policy::Sdrm3 => Box::new(Sdrm3::new()),
            Policy::DystaStatic => Box::new(DystaStaticScheduler::new(config)),
            Policy::Dysta => Box::new(DystaScheduler::new(
                config,
                SparseLatencyPredictor::default(),
            )),
            Policy::Oracle => Box::new(OracleScheduler::new(config)),
        }
    }
}

impl fmt::Display for Policy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Error returned when parsing a [`Policy`] fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsePolicyError(String);

impl fmt::Display for ParsePolicyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown policy `{}`", self.0)
    }
}

impl std::error::Error for ParsePolicyError {}

impl FromStr for Policy {
    type Err = ParsePolicyError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let lower = s.to_ascii_lowercase();
        Policy::ALL
            .iter()
            .copied()
            .find(|p| p.name() == lower)
            .ok_or_else(|| ParsePolicyError(s.to_owned()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_roundtrip() {
        for p in Policy::ALL {
            assert_eq!(p.name().parse::<Policy>(), Ok(p));
            assert_eq!(p.build().name(), p.name());
        }
    }

    #[test]
    fn unknown_policy_is_error() {
        assert!("edf".parse::<Policy>().is_err());
    }

    #[test]
    fn table5_subset_of_all() {
        for p in Policy::TABLE5 {
            assert!(Policy::ALL.contains(&p));
        }
        assert!(!Policy::TABLE5.contains(&Policy::Oracle));
    }
}
