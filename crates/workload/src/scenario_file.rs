//! The scenario file format: JSON descriptions of open-loop streams.
//!
//! A scenario file compiles to a [`StreamSpec`] — phases × mix × rate ×
//! popularity × SLO — through a validating loader whose errors name
//! the offending phase, field, and value, so a typo fails with an
//! actionable message instead of a panic deep in generation.
//!
//! ```json
//! {
//!   "seed": 7,
//!   "num_requests": 10000,
//!   "samples_per_variant": 16,
//!   "phases": [
//!     {
//!       "start_s": 0.0,
//!       "mix": "multi-cnn",
//!       "process": {"model": "poisson", "rate": 12.0},
//!       "popularity": {"model": "weighted"},
//!       "slo_multiplier": 10.0
//!     },
//!     {
//!       "start_s": 30.0,
//!       "mix": [{"model": "bert", "pattern": "dense", "weight": 2.0}],
//!       "process": {"model": "flash-crowd", "base_rate": 12.0,
//!                    "peak_rate": 60.0, "start_s": 5.0, "duration_s": 10.0},
//!       "popularity": {"model": "zipfian", "exponent": 1.0},
//!       "slo_multiplier": {"lo": 5.0, "hi": 50.0}
//!     }
//!   ]
//! }
//! ```
//!
//! `mix` is either a [`Scenario`] preset name (`"multi-attnn"`,
//! `"multi-cnn"`, `"datacenter"`, `"ar-vr-wearable"`,
//! `"mobile-assistant"`) or an explicit entry list (`model`, `pattern`,
//! optional `sparsity` rate in [0, 1], `weight`). `process` models:
//! `"poisson"`, `"on-off"`, `"diurnal"`, `"flash-crowd"`. `popularity`
//! (optional, default `"weighted"`): `"weighted"`, `"uniform"`,
//! `"zipfian"`. `slo_multiplier` is a number (fixed) or `{lo, hi}`
//! (per-request uniform). `samples_per_variant` defaults to 64 and
//! `seed` to 0; `num_requests` and `phases` are required.

use std::fmt;
use std::path::Path;
use std::str::FromStr;

use dysta_models::ModelId;
use dysta_sparsity::SparsityPattern;
use dysta_trace::SparseModelSpec;
use serde::Value;

use crate::stream::{ArrivalProcess, PhaseSpec, Popularity, SloModel, StreamSpec};
use crate::Scenario;

/// Why a scenario file (or a hand-built [`StreamSpec`]) is invalid.
/// Every variant renders to one actionable sentence naming the phase
/// and field at fault.
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioError {
    /// The file could not be read.
    Io(String),
    /// The text is not valid JSON, or a field has the wrong type.
    Malformed(String),
    /// A required field is absent.
    MissingField {
        /// Where the field was expected (e.g. `phase 2 process`).
        context: String,
        /// The missing key.
        field: &'static str,
    },
    /// The phase list is empty.
    EmptyPhases,
    /// `num_requests` is zero.
    ZeroRequests,
    /// `samples_per_variant` is zero.
    ZeroSamples,
    /// The first phase does not start at 0.
    FirstPhaseStart {
        /// The offending start, in seconds.
        start_s: f64,
    },
    /// Phase starts are not strictly increasing (overlap or reorder).
    PhaseOrder {
        /// The offending phase index.
        phase: usize,
        /// Its start, in seconds.
        start_s: f64,
        /// The previous phase's start, in seconds.
        prev_start_s: f64,
    },
    /// A phase's mix has no entries.
    EmptyMix {
        /// The offending phase index.
        phase: usize,
    },
    /// A mix preset name matched no [`Scenario`].
    UnknownMix {
        /// The offending phase index.
        phase: usize,
        /// The unmatched name.
        name: String,
    },
    /// A mix entry's model name matched no [`ModelId`].
    UnknownModel {
        /// The offending phase index.
        phase: usize,
        /// The unmatched name.
        name: String,
    },
    /// A mix entry's pattern name matched no [`SparsityPattern`].
    UnknownPattern {
        /// The offending phase index.
        phase: usize,
        /// The unmatched name.
        name: String,
    },
    /// A process `model` name matched no [`ArrivalProcess`].
    UnknownProcess {
        /// The offending phase index.
        phase: usize,
        /// The unmatched name.
        name: String,
    },
    /// A popularity `model` name matched no [`Popularity`].
    UnknownPopularity {
        /// The offending phase index.
        phase: usize,
        /// The unmatched name.
        name: String,
    },
    /// A rate that must be positive and finite is not.
    NonPositiveRate {
        /// The offending phase index.
        phase: usize,
        /// The offending field.
        field: &'static str,
        /// The rejected value.
        value: f64,
    },
    /// A mix weight that must be positive and finite is not.
    NonPositiveWeight {
        /// The offending phase index.
        phase: usize,
        /// The mix entry's model, for the message.
        model: String,
        /// The rejected value.
        value: f64,
    },
    /// An SLO multiplier constraint is violated.
    InvalidSlo {
        /// The offending phase index.
        phase: usize,
        /// What exactly is wrong.
        detail: String,
    },
    /// Any other per-field range violation.
    InvalidField {
        /// The offending phase index, when the field is per-phase.
        phase: Option<usize>,
        /// The offending field.
        field: &'static str,
        /// What exactly is wrong.
        detail: String,
    },
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioError::Io(e) => write!(f, "cannot read scenario file: {e}"),
            ScenarioError::Malformed(e) => write!(f, "malformed scenario: {e}"),
            ScenarioError::MissingField { context, field } => {
                write!(f, "{context}: missing required field `{field}`")
            }
            ScenarioError::EmptyPhases => {
                write!(f, "scenario has no phases: at least one phase is required")
            }
            ScenarioError::ZeroRequests => {
                write!(f, "`num_requests` must be at least 1")
            }
            ScenarioError::ZeroSamples => {
                write!(f, "`samples_per_variant` must be at least 1")
            }
            ScenarioError::FirstPhaseStart { start_s } => write!(
                f,
                "phase 0 must start at 0 s (sim-time origin), got start_s = {start_s}"
            ),
            ScenarioError::PhaseOrder {
                phase,
                start_s,
                prev_start_s,
            } => write!(
                f,
                "phase {phase} starts at {start_s} s, which does not follow phase {} \
                 (starts at {prev_start_s} s): phase starts must be strictly increasing \
                 — phases may not overlap",
                phase - 1
            ),
            ScenarioError::EmptyMix { phase } => {
                write!(f, "phase {phase}: mix has no entries")
            }
            ScenarioError::UnknownMix { phase, name } => write!(
                f,
                "phase {phase}: unknown mix preset `{name}` (expected one of multi-attnn, \
                 multi-cnn, datacenter, ar-vr-wearable, mobile-assistant, or an explicit \
                 entry list)"
            ),
            ScenarioError::UnknownModel { phase, name } => {
                write!(f, "phase {phase}: unknown model `{name}` (expected one of ")?;
                for (i, m) in ModelId::ALL.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{}", m.as_str())?;
                }
                write!(f, ")")
            }
            ScenarioError::UnknownPattern { phase, name } => write!(
                f,
                "phase {phase}: unknown sparsity pattern `{name}` (expected dense, random, \
                 channel, or an n:m block like 2:4)"
            ),
            ScenarioError::UnknownProcess { phase, name } => write!(
                f,
                "phase {phase}: unknown arrival process `{name}` (expected poisson, on-off, \
                 diurnal, or flash-crowd)"
            ),
            ScenarioError::UnknownPopularity { phase, name } => write!(
                f,
                "phase {phase}: unknown popularity model `{name}` (expected weighted, \
                 uniform, or zipfian)"
            ),
            ScenarioError::NonPositiveRate {
                phase,
                field,
                value,
            } => write!(
                f,
                "phase {phase}: `{field}` must be positive and finite, got {value}"
            ),
            ScenarioError::NonPositiveWeight {
                phase,
                model,
                value,
            } => write!(
                f,
                "phase {phase}: mix weight for `{model}` must be positive and finite, \
                 got {value}"
            ),
            ScenarioError::InvalidSlo { phase, detail } => {
                write!(f, "phase {phase}: invalid slo_multiplier: {detail}")
            }
            ScenarioError::InvalidField {
                phase,
                field,
                detail,
            } => match phase {
                Some(p) => write!(f, "phase {p}: invalid `{field}`: {detail}"),
                None => write!(f, "invalid `{field}`: {detail}"),
            },
        }
    }
}

impl std::error::Error for ScenarioError {}

impl StreamSpec {
    /// Checks every semantic invariant the generator relies on; the
    /// loader calls this after parsing, and [`StreamSpec::source`]
    /// re-checks it on hand-built specs.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant: empty phase list, zero
    /// request/sample budgets, non-increasing phase starts, empty
    /// mixes, non-positive rates or weights, weight-sparsity rates
    /// outside [0, 1], out-of-range process parameters, and SLO
    /// multipliers below 1 (or inverted ranges).
    pub fn validate(&self) -> Result<(), ScenarioError> {
        if self.phases.is_empty() {
            return Err(ScenarioError::EmptyPhases);
        }
        if self.num_requests == 0 {
            return Err(ScenarioError::ZeroRequests);
        }
        if self.samples_per_variant == 0 {
            return Err(ScenarioError::ZeroSamples);
        }
        if self.phases[0].start_ns != 0 {
            return Err(ScenarioError::FirstPhaseStart {
                start_s: self.phases[0].start_ns as f64 / 1e9,
            });
        }
        for (i, phase) in self.phases.iter().enumerate() {
            if i > 0 && phase.start_ns <= self.phases[i - 1].start_ns {
                return Err(ScenarioError::PhaseOrder {
                    phase: i,
                    start_s: phase.start_ns as f64 / 1e9,
                    prev_start_s: self.phases[i - 1].start_ns as f64 / 1e9,
                });
            }
            if phase.mix.is_empty() {
                return Err(ScenarioError::EmptyMix { phase: i });
            }
            for &(spec, w) in &phase.mix {
                if !(w > 0.0 && w.is_finite()) {
                    return Err(ScenarioError::NonPositiveWeight {
                        phase: i,
                        model: spec.model.as_str().to_owned(),
                        value: w,
                    });
                }
                let rate = spec.weight_rate;
                bounded(
                    i,
                    "sparsity",
                    rate,
                    (0.0..=1.0).contains(&rate),
                    "in [0, 1]",
                )?;
            }
            validate_process(i, &phase.process)?;
            validate_popularity(i, &phase.popularity)?;
            validate_slo(i, &phase.slo)?;
        }
        Ok(())
    }
}

fn positive_rate(phase: usize, field: &'static str, value: f64) -> Result<(), ScenarioError> {
    if value > 0.0 && value.is_finite() {
        Ok(())
    } else {
        Err(ScenarioError::NonPositiveRate {
            phase,
            field,
            value,
        })
    }
}

fn bounded(
    phase: usize,
    field: &'static str,
    value: f64,
    ok: bool,
    expect: &str,
) -> Result<(), ScenarioError> {
    if ok && value.is_finite() {
        Ok(())
    } else {
        Err(ScenarioError::InvalidField {
            phase: Some(phase),
            field,
            detail: format!("must be {expect}, got {value}"),
        })
    }
}

fn validate_process(phase: usize, process: &ArrivalProcess) -> Result<(), ScenarioError> {
    match *process {
        ArrivalProcess::Poisson { rate } => positive_rate(phase, "rate", rate),
        ArrivalProcess::OnOff {
            on_rate,
            off_rate,
            on_s,
            off_s,
        } => {
            positive_rate(phase, "on_rate", on_rate)?;
            bounded(phase, "off_rate", off_rate, off_rate >= 0.0, ">= 0")?;
            positive_rate(phase, "on_s", on_s)?;
            bounded(phase, "off_s", off_s, off_s >= 0.0, ">= 0")
        }
        ArrivalProcess::Diurnal {
            base_rate,
            amplitude,
            period_s,
        } => {
            positive_rate(phase, "base_rate", base_rate)?;
            bounded(
                phase,
                "amplitude",
                amplitude,
                (0.0..=1.0).contains(&amplitude),
                "within [0, 1]",
            )?;
            positive_rate(phase, "period_s", period_s)
        }
        ArrivalProcess::FlashCrowd {
            base_rate,
            peak_rate,
            start_s,
            duration_s,
        } => {
            positive_rate(phase, "base_rate", base_rate)?;
            positive_rate(phase, "peak_rate", peak_rate)?;
            bounded(phase, "start_s", start_s, start_s >= 0.0, ">= 0")?;
            positive_rate(phase, "duration_s", duration_s)
        }
    }
}

fn validate_popularity(phase: usize, popularity: &Popularity) -> Result<(), ScenarioError> {
    match *popularity {
        Popularity::Weighted | Popularity::Uniform => Ok(()),
        Popularity::Zipfian { exponent } => {
            bounded(phase, "exponent", exponent, exponent >= 0.0, ">= 0")
        }
    }
}

fn validate_slo(phase: usize, slo: &SloModel) -> Result<(), ScenarioError> {
    match *slo {
        SloModel::Fixed(m) => {
            if m >= 1.0 && m.is_finite() {
                Ok(())
            } else {
                Err(ScenarioError::InvalidSlo {
                    phase,
                    detail: format!("multiplier must be finite and >= 1, got {m}"),
                })
            }
        }
        SloModel::Range { lo, hi } => {
            if lo >= 1.0 && hi >= lo && hi.is_finite() {
                Ok(())
            } else {
                Err(ScenarioError::InvalidSlo {
                    phase,
                    detail: format!("need 1 <= lo <= hi, got lo = {lo}, hi = {hi}"),
                })
            }
        }
    }
}

/// Reads and parses a scenario file into a validated [`StreamSpec`].
///
/// # Errors
///
/// [`ScenarioError::Io`] on read failure, otherwise as
/// [`parse_scenario`].
pub fn load_scenario(path: impl AsRef<Path>) -> Result<StreamSpec, ScenarioError> {
    let path = path.as_ref();
    let text = std::fs::read_to_string(path)
        .map_err(|e| ScenarioError::Io(format!("{}: {e}", path.display())))?;
    parse_scenario(&text)
}

/// Parses scenario JSON into a validated [`StreamSpec`].
///
/// # Errors
///
/// Every parse error names the phase/field at fault; semantic
/// violations are reported via [`StreamSpec::validate`].
pub fn parse_scenario(text: &str) -> Result<StreamSpec, ScenarioError> {
    let value: Value =
        serde_json::from_str(text).map_err(|e| ScenarioError::Malformed(e.to_string()))?;
    let spec = parse_spec(&value)?;
    spec.validate()?;
    Ok(spec)
}

fn as_f64(v: &Value) -> Option<f64> {
    match *v {
        Value::UInt(u) => Some(u as f64),
        Value::Int(i) => Some(i as f64),
        Value::Float(x) => Some(x),
        _ => None,
    }
}

/// A required numeric field of `obj`, with `context` naming the spot
/// for the error message.
fn req_f64(obj: &Value, field: &'static str, context: &str) -> Result<f64, ScenarioError> {
    let v = obj
        .field(field)
        .ok_or_else(|| ScenarioError::MissingField {
            context: context.to_owned(),
            field,
        })?;
    as_f64(v).ok_or_else(|| {
        ScenarioError::Malformed(format!(
            "{context}: `{field}` must be a number, found {}",
            v.kind()
        ))
    })
}

fn opt_str<'v>(obj: &'v Value, field: &str) -> Option<&'v str> {
    match obj.field(field) {
        Some(Value::Str(s)) => Some(s.as_str()),
        _ => None,
    }
}

fn parse_spec(value: &Value) -> Result<StreamSpec, ScenarioError> {
    let phases_value = value
        .field("phases")
        .ok_or_else(|| ScenarioError::MissingField {
            context: "scenario".to_owned(),
            field: "phases",
        })?;
    let Value::Array(phase_values) = phases_value else {
        return Err(ScenarioError::Malformed(format!(
            "`phases` must be an array, found {}",
            phases_value.kind()
        )));
    };
    let num_requests = req_f64(value, "num_requests", "scenario")?;
    if !(num_requests >= 0.0 && num_requests.fract() == 0.0) {
        return Err(ScenarioError::InvalidField {
            phase: None,
            field: "num_requests",
            detail: format!("must be a non-negative integer, got {num_requests}"),
        });
    }
    let samples_per_variant = match value.field("samples_per_variant") {
        Some(v) => as_f64(v)
            .filter(|s| *s >= 0.0 && s.fract() == 0.0)
            .ok_or_else(|| ScenarioError::InvalidField {
                phase: None,
                field: "samples_per_variant",
                detail: format!("must be a non-negative integer, found {}", v.kind()),
            })? as u64,
        None => 64,
    };
    let seed = match value.field("seed") {
        Some(v) => as_f64(v)
            .filter(|s| *s >= 0.0 && s.fract() == 0.0)
            .ok_or_else(|| ScenarioError::InvalidField {
                phase: None,
                field: "seed",
                detail: format!("must be a non-negative integer, found {}", v.kind()),
            })? as u64,
        None => 0,
    };
    let phases = phase_values
        .iter()
        .enumerate()
        .map(|(i, p)| parse_phase(i, p))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(StreamSpec {
        phases,
        num_requests: num_requests as u64,
        samples_per_variant,
        seed,
    })
}

fn parse_phase(i: usize, value: &Value) -> Result<PhaseSpec, ScenarioError> {
    let context = format!("phase {i}");
    let start_s = req_f64(value, "start_s", &context)?;
    if !(start_s >= 0.0 && start_s.is_finite()) {
        return Err(ScenarioError::InvalidField {
            phase: Some(i),
            field: "start_s",
            detail: format!("must be >= 0 and finite, got {start_s}"),
        });
    }
    let mix = parse_mix(
        i,
        value
            .field("mix")
            .ok_or_else(|| ScenarioError::MissingField {
                context: context.clone(),
                field: "mix",
            })?,
    )?;
    let process = parse_process(
        i,
        value
            .field("process")
            .ok_or_else(|| ScenarioError::MissingField {
                context: context.clone(),
                field: "process",
            })?,
    )?;
    let popularity = match value.field("popularity") {
        Some(v) => parse_popularity(i, v)?,
        None => Popularity::Weighted,
    };
    let slo = parse_slo(
        i,
        value
            .field("slo_multiplier")
            .ok_or(ScenarioError::MissingField {
                context,
                field: "slo_multiplier",
            })?,
    )?;
    Ok(PhaseSpec {
        start_ns: (start_s * 1e9).round() as u64,
        process,
        mix,
        popularity,
        slo,
    })
}

fn parse_mix(i: usize, value: &Value) -> Result<Vec<(SparseModelSpec, f64)>, ScenarioError> {
    match value {
        Value::Str(name) => match name.to_ascii_lowercase().as_str() {
            "multi-attnn" | "multi_attnn" | "multiattnn" => Ok(Scenario::MultiAttNn.mix()),
            "multi-cnn" | "multi_cnn" | "multicnn" => Ok(Scenario::MultiCnn.mix()),
            "datacenter" | "data-center" => Ok(Scenario::DataCenter.mix()),
            "ar-vr-wearable" | "ar_vr_wearable" | "arvr" => Ok(Scenario::ArVrWearable.mix()),
            "mobile-assistant" | "mobile_assistant" => Ok(Scenario::MobileAssistant.mix()),
            _ => Err(ScenarioError::UnknownMix {
                phase: i,
                name: name.clone(),
            }),
        },
        Value::Array(entries) => entries
            .iter()
            .map(|entry| {
                let context = format!("phase {i} mix entry");
                let model_name = opt_str(entry, "model").ok_or(ScenarioError::MissingField {
                    context: context.clone(),
                    field: "model",
                })?;
                let model =
                    ModelId::from_str(model_name).map_err(|_| ScenarioError::UnknownModel {
                        phase: i,
                        name: model_name.to_owned(),
                    })?;
                let pattern = match opt_str(entry, "pattern") {
                    None | Some("") => SparsityPattern::Dense,
                    Some(name) => SparsityPattern::from_str(name).map_err(|_| {
                        ScenarioError::UnknownPattern {
                            phase: i,
                            name: name.to_owned(),
                        }
                    })?,
                };
                let sparsity = match entry.field("sparsity") {
                    Some(v) => as_f64(v).ok_or_else(|| {
                        ScenarioError::Malformed(format!(
                            "{context}: `sparsity` must be a number, found {}",
                            v.kind()
                        ))
                    })?,
                    None => 0.0,
                };
                let weight = req_f64(entry, "weight", &context)?;
                Ok((SparseModelSpec::new(model, pattern, sparsity), weight))
            })
            .collect(),
        other => Err(ScenarioError::Malformed(format!(
            "phase {i}: `mix` must be a preset name or an entry array, found {}",
            other.kind()
        ))),
    }
}

fn parse_process(i: usize, value: &Value) -> Result<ArrivalProcess, ScenarioError> {
    let context = format!("phase {i} process");
    let name = opt_str(value, "model").ok_or(ScenarioError::MissingField {
        context: context.clone(),
        field: "model",
    })?;
    match name.to_ascii_lowercase().as_str() {
        "poisson" => Ok(ArrivalProcess::Poisson {
            rate: req_f64(value, "rate", &context)?,
        }),
        "on-off" | "on_off" | "onoff" => Ok(ArrivalProcess::OnOff {
            on_rate: req_f64(value, "on_rate", &context)?,
            off_rate: req_f64(value, "off_rate", &context)?,
            on_s: req_f64(value, "on_s", &context)?,
            off_s: req_f64(value, "off_s", &context)?,
        }),
        "diurnal" => Ok(ArrivalProcess::Diurnal {
            base_rate: req_f64(value, "base_rate", &context)?,
            amplitude: req_f64(value, "amplitude", &context)?,
            period_s: req_f64(value, "period_s", &context)?,
        }),
        "flash-crowd" | "flash_crowd" | "flashcrowd" => Ok(ArrivalProcess::FlashCrowd {
            base_rate: req_f64(value, "base_rate", &context)?,
            peak_rate: req_f64(value, "peak_rate", &context)?,
            start_s: req_f64(value, "start_s", &context)?,
            duration_s: req_f64(value, "duration_s", &context)?,
        }),
        _ => Err(ScenarioError::UnknownProcess {
            phase: i,
            name: name.to_owned(),
        }),
    }
}

fn parse_popularity(i: usize, value: &Value) -> Result<Popularity, ScenarioError> {
    let context = format!("phase {i} popularity");
    let name = opt_str(value, "model").ok_or(ScenarioError::MissingField {
        context: context.clone(),
        field: "model",
    })?;
    match name.to_ascii_lowercase().as_str() {
        "weighted" => Ok(Popularity::Weighted),
        "uniform" => Ok(Popularity::Uniform),
        "zipfian" | "zipf" => Ok(Popularity::Zipfian {
            exponent: req_f64(value, "exponent", &context)?,
        }),
        _ => Err(ScenarioError::UnknownPopularity {
            phase: i,
            name: name.to_owned(),
        }),
    }
}

fn parse_slo(i: usize, value: &Value) -> Result<SloModel, ScenarioError> {
    if let Some(m) = as_f64(value) {
        return Ok(SloModel::Fixed(m));
    }
    if let Value::Object(_) = value {
        let context = format!("phase {i} slo_multiplier");
        return Ok(SloModel::Range {
            lo: req_f64(value, "lo", &context)?,
            hi: req_f64(value, "hi", &context)?,
        });
    }
    Err(ScenarioError::Malformed(format!(
        "phase {i}: `slo_multiplier` must be a number or {{lo, hi}}, found {}",
        value.kind()
    )))
}

#[cfg(test)]
mod tests {
    use super::*;

    const GOOD: &str = r#"{
        "seed": 7,
        "num_requests": 50,
        "samples_per_variant": 4,
        "phases": [
            {"start_s": 0.0, "mix": "multi-cnn",
             "process": {"model": "poisson", "rate": 12.0},
             "slo_multiplier": 10.0},
            {"start_s": 3.0,
             "mix": [{"model": "bert", "pattern": "dense", "weight": 2.0},
                      {"model": "gpt2", "weight": 1.0}],
             "process": {"model": "flash-crowd", "base_rate": 12.0,
                          "peak_rate": 60.0, "start_s": 0.5, "duration_s": 1.0},
             "popularity": {"model": "zipfian", "exponent": 1.0},
             "slo_multiplier": {"lo": 5.0, "hi": 50.0}}
        ]
    }"#;

    #[test]
    fn parses_a_full_two_phase_scenario() {
        let spec = parse_scenario(GOOD).expect("valid scenario");
        assert_eq!(spec.seed, 7);
        assert_eq!(spec.num_requests, 50);
        assert_eq!(spec.samples_per_variant, 4);
        assert_eq!(spec.phases.len(), 2);
        assert_eq!(spec.phases[0].mix, Scenario::MultiCnn.mix());
        assert_eq!(spec.phases[0].popularity, Popularity::Weighted);
        assert_eq!(spec.phases[1].start_ns, 3_000_000_000);
        assert_eq!(spec.phases[1].mix.len(), 2);
        assert_eq!(spec.phases[1].mix[0].0.model, ModelId::Bert);
        assert_eq!(spec.phases[1].slo, SloModel::Range { lo: 5.0, hi: 50.0 });
        // The parsed spec must actually generate.
        let w = spec.materialize();
        assert_eq!(w.requests().len(), 50);
    }

    #[test]
    fn defaults_samples_and_seed() {
        let spec = parse_scenario(
            r#"{"num_requests": 5, "phases": [
                {"start_s": 0, "mix": "multi-cnn",
                 "process": {"model": "poisson", "rate": 3.0},
                 "slo_multiplier": 10.0}]}"#,
        )
        .expect("valid");
        assert_eq!(spec.samples_per_variant, 64);
        assert_eq!(spec.seed, 0);
    }

    fn err_of(text: &str) -> ScenarioError {
        parse_scenario(text).expect_err("scenario must be rejected")
    }

    #[test]
    fn rejects_empty_phases() {
        let err = err_of(r#"{"num_requests": 5, "phases": []}"#);
        assert_eq!(err, ScenarioError::EmptyPhases);
        assert!(err.to_string().contains("at least one phase"));
    }

    #[test]
    fn rejects_zero_requests() {
        let err = err_of(
            r#"{"num_requests": 0, "phases": [
                {"start_s": 0, "mix": "multi-cnn",
                 "process": {"model": "poisson", "rate": 3.0},
                 "slo_multiplier": 10.0}]}"#,
        );
        assert_eq!(err, ScenarioError::ZeroRequests);
    }

    #[test]
    fn rejects_non_positive_rate() {
        let err = err_of(
            r#"{"num_requests": 5, "phases": [
                {"start_s": 0, "mix": "multi-cnn",
                 "process": {"model": "poisson", "rate": -2.0},
                 "slo_multiplier": 10.0}]}"#,
        );
        assert_eq!(
            err,
            ScenarioError::NonPositiveRate {
                phase: 0,
                field: "rate",
                value: -2.0
            }
        );
        assert!(err.to_string().contains("must be positive and finite"));
    }

    #[test]
    fn rejects_non_positive_weight() {
        let err = err_of(
            r#"{"num_requests": 5, "phases": [
                {"start_s": 0,
                 "mix": [{"model": "bert", "weight": 0.0}],
                 "process": {"model": "poisson", "rate": 3.0},
                 "slo_multiplier": 10.0}]}"#,
        );
        assert!(matches!(
            err,
            ScenarioError::NonPositiveWeight { phase: 0, value, .. } if value == 0.0
        ));
        assert!(err.to_string().contains("mix weight for `bert`"));
    }

    #[test]
    fn rejects_overlapping_phase_boundaries() {
        let err = err_of(
            r#"{"num_requests": 5, "phases": [
                {"start_s": 0, "mix": "multi-cnn",
                 "process": {"model": "poisson", "rate": 3.0},
                 "slo_multiplier": 10.0},
                {"start_s": 2.0, "mix": "multi-cnn",
                 "process": {"model": "poisson", "rate": 3.0},
                 "slo_multiplier": 10.0},
                {"start_s": 1.0, "mix": "multi-cnn",
                 "process": {"model": "poisson", "rate": 3.0},
                 "slo_multiplier": 10.0}]}"#,
        );
        assert_eq!(
            err,
            ScenarioError::PhaseOrder {
                phase: 2,
                start_s: 1.0,
                prev_start_s: 2.0
            }
        );
        assert!(err.to_string().contains("strictly increasing"));
    }

    #[test]
    fn rejects_first_phase_not_at_origin() {
        let err = err_of(
            r#"{"num_requests": 5, "phases": [
                {"start_s": 1.5, "mix": "multi-cnn",
                 "process": {"model": "poisson", "rate": 3.0},
                 "slo_multiplier": 10.0}]}"#,
        );
        assert_eq!(err, ScenarioError::FirstPhaseStart { start_s: 1.5 });
    }

    #[test]
    fn rejects_unknown_model_name() {
        let err = err_of(
            r#"{"num_requests": 5, "phases": [
                {"start_s": 0,
                 "mix": [{"model": "alexnet", "weight": 1.0}],
                 "process": {"model": "poisson", "rate": 3.0},
                 "slo_multiplier": 10.0}]}"#,
        );
        assert_eq!(
            err,
            ScenarioError::UnknownModel {
                phase: 0,
                name: "alexnet".to_owned()
            }
        );
        assert!(err.to_string().contains("expected one of ssd"));
    }

    #[test]
    fn rejects_unknown_mix_preset_process_and_popularity() {
        let base = |mix: &str, process: &str, popularity: &str| {
            format!(
                r#"{{"num_requests": 5, "phases": [
                    {{"start_s": 0, "mix": {mix},
                     "process": {process},
                     "popularity": {popularity},
                     "slo_multiplier": 10.0}}]}}"#
            )
        };
        let err = err_of(&base(
            "\"cnn-zoo\"",
            r#"{"model": "poisson", "rate": 3.0}"#,
            r#"{"model": "weighted"}"#,
        ));
        assert!(
            matches!(err, ScenarioError::UnknownMix { phase: 0, ref name } if name == "cnn-zoo")
        );
        let err = err_of(&base(
            "\"multi-cnn\"",
            r#"{"model": "pareto", "rate": 3.0}"#,
            r#"{"model": "weighted"}"#,
        ));
        assert!(
            matches!(err, ScenarioError::UnknownProcess { phase: 0, ref name } if name == "pareto")
        );
        let err = err_of(&base(
            "\"multi-cnn\"",
            r#"{"model": "poisson", "rate": 3.0}"#,
            r#"{"model": "pareto"}"#,
        ));
        assert!(
            matches!(err, ScenarioError::UnknownPopularity { phase: 0, ref name } if name == "pareto")
        );
    }

    #[test]
    fn rejects_inverted_slo_range_and_sub_one_multiplier() {
        let err = err_of(
            r#"{"num_requests": 5, "phases": [
                {"start_s": 0, "mix": "multi-cnn",
                 "process": {"model": "poisson", "rate": 3.0},
                 "slo_multiplier": {"lo": 50.0, "hi": 5.0}}]}"#,
        );
        assert!(matches!(err, ScenarioError::InvalidSlo { phase: 0, .. }));
        let err = err_of(
            r#"{"num_requests": 5, "phases": [
                {"start_s": 0, "mix": "multi-cnn",
                 "process": {"model": "poisson", "rate": 3.0},
                 "slo_multiplier": 0.5}]}"#,
        );
        assert!(matches!(err, ScenarioError::InvalidSlo { phase: 0, .. }));
    }

    #[test]
    fn rejects_missing_required_fields_and_bad_json() {
        let err = err_of(r#"{"phases": []}"#);
        assert!(matches!(
            err,
            ScenarioError::MissingField {
                field: "num_requests",
                ..
            }
        ));
        let err = err_of(
            r#"{"num_requests": 5, "phases": [
                {"start_s": 0, "mix": "multi-cnn",
                 "slo_multiplier": 10.0}]}"#,
        );
        assert!(matches!(
            err,
            ScenarioError::MissingField {
                field: "process",
                ..
            }
        ));
        let err = err_of("not json at all");
        assert!(matches!(err, ScenarioError::Malformed(_)));
    }

    #[test]
    fn rejects_out_of_range_weight_sparsity() {
        for sparsity in ["1e300", "2.0", "-0.5"] {
            let err = err_of(&format!(
                r#"{{"num_requests": 5, "phases": [
                    {{"start_s": 0,
                     "mix": [{{"model": "resnet50", "pattern": "random",
                               "sparsity": {sparsity}, "weight": 1.0}}],
                     "process": {{"model": "poisson", "rate": 3.0}},
                     "slo_multiplier": 10.0}}]}}"#
            ));
            assert!(
                matches!(
                    err,
                    ScenarioError::InvalidField {
                        phase: Some(0),
                        field: "sparsity",
                        ..
                    }
                ),
                "sparsity {sparsity}: {err}"
            );
        }
    }

    #[test]
    fn rejects_out_of_range_diurnal_amplitude() {
        let err = err_of(
            r#"{"num_requests": 5, "phases": [
                {"start_s": 0, "mix": "multi-cnn",
                 "process": {"model": "diurnal", "base_rate": 3.0,
                              "amplitude": 1.5, "period_s": 10.0},
                 "slo_multiplier": 10.0}]}"#,
        );
        assert!(matches!(
            err,
            ScenarioError::InvalidField {
                phase: Some(0),
                field: "amplitude",
                ..
            }
        ));
    }
}
