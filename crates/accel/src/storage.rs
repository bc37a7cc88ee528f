//! Sparse-storage format modeling.
//!
//! Sparse accelerators obtain part of their speedup from compressed
//! weight/activation storage (the paper's Section 2.2 mentions "efficient
//! sparse-storage schemes"). Which format wins depends on the sparsity
//! rate and pattern: bitmaps cost a fixed bit per element, CSR-style
//! coordinate lists cost per non-zero, run-length coding exploits
//! clustered zeros (channel pruning). This module prices each format in
//! bytes, which the storage ablation bench compares per pattern and rate.

use dysta_sparsity::SparsityPattern;

/// A compressed tensor representation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StorageFormat {
    /// Uncompressed 8-bit values.
    Dense,
    /// One validity bit per element plus packed non-zero payloads
    /// (Eyeriss-style compressed sparse storage).
    Bitmap,
    /// Compressed sparse row: per-non-zero payload + column index, plus
    /// row pointers (Sanger-style pack-and-split input).
    Csr {
        /// Bits per column index (log2 of the row length, rounded up).
        index_bits: u32,
    },
    /// Run-length coding of zero runs; effective for clustered sparsity.
    RunLength {
        /// Bits per run-length counter.
        run_bits: u32,
    },
}

impl StorageFormat {
    /// Compressed size in bytes of a tensor with `elements` 8-bit values
    /// at the given `sparsity`, whose zeros are clustered into runs of
    /// `mean_zero_run` on average (1.0 = fully scattered).
    ///
    /// # Panics
    ///
    /// Panics if `sparsity` is outside `[0, 1]` or `mean_zero_run < 1`.
    pub fn bytes(&self, elements: u64, sparsity: f64, mean_zero_run: f64) -> f64 {
        assert!((0.0..=1.0).contains(&sparsity), "sparsity out of range");
        assert!(mean_zero_run >= 1.0, "runs contain at least one zero");
        let n = elements as f64;
        let nnz = n * (1.0 - sparsity);
        match self {
            StorageFormat::Dense => n,
            StorageFormat::Bitmap => n / 8.0 + nnz,
            StorageFormat::Csr { index_bits } => {
                // Row-pointer overhead amortises to ~0 for the large flat
                // tensors modelled here.
                nnz * (1.0 + *index_bits as f64 / 8.0)
            }
            StorageFormat::RunLength { run_bits } => {
                let runs = (n * sparsity / mean_zero_run).max(0.0);
                nnz + runs * (*run_bits as f64 / 8.0)
            }
        }
    }

    /// The format the paper's target accelerators pair with each weight
    /// pattern: bitmap for scattered point-wise zeros, dense(-ish) N:M
    /// metadata modelled as bitmap, run-length for channel pruning where
    /// zeros arrive in whole-filter runs.
    pub fn preferred_for(pattern: SparsityPattern) -> StorageFormat {
        match pattern {
            SparsityPattern::Dense => StorageFormat::Dense,
            SparsityPattern::RandomPointwise | SparsityPattern::BlockNm { .. } => {
                StorageFormat::Bitmap
            }
            SparsityPattern::ChannelWise => StorageFormat::RunLength { run_bits: 16 },
        }
    }

    /// Mean zero-run length a pattern produces at a given rate over
    /// filters of `filter_size` weights.
    pub fn typical_zero_run(pattern: SparsityPattern, rate: f64, filter_size: u64) -> f64 {
        match pattern {
            SparsityPattern::Dense => 1.0,
            // Geometric runs: expected run of i.i.d. zeros is 1/(1-rate).
            SparsityPattern::RandomPointwise => (1.0 / (1.0 - rate).max(1e-3)).min(64.0),
            SparsityPattern::BlockNm { n, m } => ((m - n) as f64).max(1.0),
            // Whole filters are zeroed at once.
            SparsityPattern::ChannelWise => filter_size.max(1) as f64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_is_one_byte_per_element() {
        assert_eq!(StorageFormat::Dense.bytes(1000, 0.9, 1.0), 1000.0);
    }

    #[test]
    fn bitmap_beats_dense_above_one_eighth_sparsity() {
        let f = StorageFormat::Bitmap;
        assert!(f.bytes(1000, 0.2, 1.0) < 1000.0);
        assert!(f.bytes(1000, 0.05, 1.0) > 1000.0);
        // The crossover: one mask bit per element costs exactly the
        // payload an eighth of zeros saves.
        assert_eq!(f.bytes(1000, 0.125, 1.0), 1000.0);
    }

    #[test]
    fn csr_wins_at_extreme_sparsity() {
        let csr = StorageFormat::Csr { index_bits: 16 };
        let bitmap = StorageFormat::Bitmap;
        // At 99% sparsity CSR (3 B/nnz on 10 nnz) beats the bitmap's
        // fixed 125 B of mask bits.
        assert!(csr.bytes(1000, 0.99, 1.0) < bitmap.bytes(1000, 0.99, 1.0));
        // At 50% the bitmap wins.
        assert!(bitmap.bytes(1000, 0.5, 1.0) < csr.bytes(1000, 0.5, 1.0));
    }

    #[test]
    fn run_length_exploits_clustered_zeros() {
        let rle = StorageFormat::RunLength { run_bits: 16 };
        let scattered = rle.bytes(10_000, 0.8, 1.5);
        let clustered = rle.bytes(10_000, 0.8, 576.0); // whole filters
        assert!(clustered < scattered);
        // Clustered RLE approaches the information floor (nnz bytes).
        assert!(clustered < 10_000.0 * 0.2 * 1.02);
    }

    #[test]
    fn preferred_formats_follow_pattern_structure() {
        assert_eq!(
            StorageFormat::preferred_for(SparsityPattern::ChannelWise),
            StorageFormat::RunLength { run_bits: 16 }
        );
        assert_eq!(
            StorageFormat::preferred_for(SparsityPattern::RandomPointwise),
            StorageFormat::Bitmap
        );
    }

    #[test]
    fn typical_runs_grow_with_structure() {
        let random = StorageFormat::typical_zero_run(SparsityPattern::RandomPointwise, 0.8, 576);
        let nm = StorageFormat::typical_zero_run(SparsityPattern::BlockNm { n: 2, m: 4 }, 0.5, 576);
        let channel = StorageFormat::typical_zero_run(SparsityPattern::ChannelWise, 0.5, 576);
        assert!(random < channel);
        assert!(nm < channel);
        assert_eq!(channel, 576.0);
    }

    #[test]
    #[should_panic(expected = "sparsity out of range")]
    fn rejects_bad_sparsity() {
        let _ = StorageFormat::Dense.bytes(10, 1.5, 1.0);
    }
}
