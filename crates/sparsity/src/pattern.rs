//! Weight-sparsity pattern taxonomy (the paper's Section 2.3.2, Figure 6).

use std::fmt;
use std::str::FromStr;

/// The mask structure used when sparsifying a model's weights.
///
/// The paper adopts three pruning methods for CNNs — random point-wise
/// (Han et al.), N:M block-wise (NVIDIA Ampere style) and channel-wise
/// (He et al.) — plus the dense baseline. Attention models use *dynamic*
/// sparsity instead, which is a property of the input, not of the weights
/// (see [`crate::dynamicity`]).
///
/// # Examples
///
/// ```
/// use dysta_sparsity::SparsityPattern;
///
/// let p: SparsityPattern = "2:4".parse()?;
/// assert_eq!(p, SparsityPattern::BlockNm { n: 2, m: 4 });
/// assert_eq!(p.to_string(), "2:4");
/// # Ok::<(), dysta_sparsity::ParsePatternError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SparsityPattern {
    /// No weight pruning.
    Dense,
    /// Unstructured i.i.d. point-wise pruning.
    RandomPointwise,
    /// Keep `n` of every `m` consecutive weights (e.g. 2:4 on Ampere
    /// sparse tensor cores).
    BlockNm {
        /// Weights kept per block.
        n: u8,
        /// Block size.
        m: u8,
    },
    /// Prune entire input channels / features.
    ChannelWise,
}

impl SparsityPattern {
    /// All pattern archetypes evaluated by the paper (with 2:4 as the
    /// representative N:M configuration).
    pub const ALL: [SparsityPattern; 4] = [
        SparsityPattern::Dense,
        SparsityPattern::RandomPointwise,
        SparsityPattern::BlockNm { n: 2, m: 4 },
        SparsityPattern::ChannelWise,
    ];

    /// Stable short name for table headers and LUT keys (the `Display`
    /// impl writes the same characters without allocating — hot key
    /// formatting goes through that).
    pub fn short_name(self) -> String {
        self.to_string()
    }
}

impl fmt::Display for SparsityPattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SparsityPattern::Dense => f.write_str("dense"),
            SparsityPattern::RandomPointwise => f.write_str("random"),
            SparsityPattern::BlockNm { n, m } => write!(f, "{n}:{m}"),
            SparsityPattern::ChannelWise => f.write_str("channel"),
        }
    }
}

/// Error returned when parsing a [`SparsityPattern`] fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsePatternError {
    input: String,
}

impl fmt::Display for ParsePatternError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown sparsity pattern `{}`", self.input)
    }
}

impl std::error::Error for ParsePatternError {}

impl FromStr for SparsityPattern {
    type Err = ParsePatternError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let lower = s.to_ascii_lowercase();
        match lower.as_str() {
            "dense" => return Ok(SparsityPattern::Dense),
            "random" | "random_pointwise" | "pointwise" => {
                return Ok(SparsityPattern::RandomPointwise)
            }
            "channel" | "channelwise" | "channel_wise" => return Ok(SparsityPattern::ChannelWise),
            _ => {}
        }
        if let Some((n, m)) = lower.split_once(':') {
            let n: u8 = n.trim().parse().map_err(|_| ParsePatternError {
                input: s.to_owned(),
            })?;
            let m: u8 = m.trim().parse().map_err(|_| ParsePatternError {
                input: s.to_owned(),
            })?;
            if n == 0 || m == 0 || n > m {
                return Err(ParsePatternError {
                    input: s.to_owned(),
                });
            }
            return Ok(SparsityPattern::BlockNm { n, m });
        }
        Err(ParsePatternError {
            input: s.to_owned(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_parse_roundtrip() {
        for p in SparsityPattern::ALL {
            let parsed: SparsityPattern = p.to_string().parse().expect("roundtrip");
            assert_eq!(parsed, p);
        }
    }

    #[test]
    fn rejects_invalid_nm() {
        assert!("4:2".parse::<SparsityPattern>().is_err());
        assert!("0:4".parse::<SparsityPattern>().is_err());
        assert!("a:4".parse::<SparsityPattern>().is_err());
    }

    #[test]
    fn error_reports_input() {
        let err = "blocky".parse::<SparsityPattern>().unwrap_err();
        assert_eq!(err.to_string(), "unknown sparsity pattern `blocky`");
    }
}
