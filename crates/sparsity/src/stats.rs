//! Statistical estimators used by the paper's profiling figures.

/// Arithmetic mean; 0 for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Population standard deviation; 0 for fewer than two points.
pub fn std_dev(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    (xs.iter().map(|x| (x - m).powi(2)).sum::<f64>() / xs.len() as f64).sqrt()
}

/// Pearson product-moment correlation coefficient, as used in the paper's
/// Figure 9. Returns `None` if either input is degenerate (fewer than two
/// points or zero variance).
pub fn pearson(xs: &[f64], ys: &[f64]) -> Option<f64> {
    if xs.len() != ys.len() || xs.len() < 2 {
        return None;
    }
    let mx = mean(xs);
    let my = mean(ys);
    let mut cov = 0.0;
    let mut vx = 0.0;
    let mut vy = 0.0;
    for (x, y) in xs.iter().zip(ys) {
        cov += (x - mx) * (y - my);
        vx += (x - mx).powi(2);
        vy += (y - my).powi(2);
    }
    if vx == 0.0 || vy == 0.0 {
        return None;
    }
    Some(cov / (vx * vy).sqrt())
}

/// Pearson correlation matrix across the columns of `rows` (each row is one
/// observation, each column one variable). Diagonal entries are 1;
/// degenerate pairs yield 0.
///
/// # Panics
///
/// Panics if rows have inconsistent lengths.
pub fn correlation_matrix(rows: &[Vec<f64>]) -> Vec<Vec<f64>> {
    let Some(first) = rows.first() else {
        return Vec::new();
    };
    let cols = first.len();
    assert!(
        rows.iter().all(|r| r.len() == cols),
        "inconsistent row lengths"
    );
    let columns: Vec<Vec<f64>> = (0..cols)
        .map(|c| rows.iter().map(|r| r[c]).collect())
        .collect();
    (0..cols)
        .map(|i| {
            (0..cols)
                .map(|j| {
                    if i == j {
                        1.0
                    } else {
                        pearson(&columns[i], &columns[j]).unwrap_or(0.0)
                    }
                })
                .collect()
        })
        .collect()
}

/// Relative range `(max - min) / mean`, the Table 2 statistic.
/// Returns 0 for empty input or zero mean.
pub fn relative_range(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let m = mean(xs);
    if m == 0.0 {
        return 0.0;
    }
    let min = xs.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    (max - min) / m
}

/// A fixed-bin histogram over a closed interval, used to print the
/// probability-density figures (Figures 2–4).
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    counts: Vec<u64>,
    total: u64,
}

impl Histogram {
    /// Creates a histogram with `bins` equal-width bins over `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `bins == 0` or `lo >= hi`.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(bins > 0, "need at least one bin");
        assert!(lo < hi, "lo must be below hi");
        Histogram {
            lo,
            hi,
            counts: vec![0; bins],
            total: 0,
        }
    }

    /// Adds one observation; values outside the range clamp to the edge
    /// bins.
    pub fn add(&mut self, x: f64) {
        let bins = self.counts.len();
        let frac = (x - self.lo) / (self.hi - self.lo);
        let idx = ((frac * bins as f64).floor() as i64).clamp(0, bins as i64 - 1) as usize;
        self.counts[idx] += 1;
        self.total += 1;
    }

    /// Adds every observation in the iterator.
    pub fn extend<I: IntoIterator<Item = f64>>(&mut self, xs: I) {
        for x in xs {
            self.add(x);
        }
    }

    /// Bin centers.
    pub fn centers(&self) -> Vec<f64> {
        let bins = self.counts.len();
        let w = (self.hi - self.lo) / bins as f64;
        (0..bins).map(|i| self.lo + (i as f64 + 0.5) * w).collect()
    }

    /// Probability density per bin (integrates to 1 over the range).
    pub fn density(&self) -> Vec<f64> {
        let bins = self.counts.len();
        let w = (self.hi - self.lo) / bins as f64;
        if self.total == 0 {
            return vec![0.0; bins];
        }
        self.counts
            .iter()
            .map(|&c| c as f64 / (self.total as f64 * w))
            .collect()
    }

    /// Raw bin counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_std() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert!((mean(&xs) - 2.5).abs() < 1e-12);
        assert!((std_dev(&xs) - (1.25f64).sqrt()).abs() < 1e-12);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(std_dev(&[1.0]), 0.0);
    }

    #[test]
    fn pearson_perfect_correlation() {
        let xs = [1.0, 2.0, 3.0];
        let ys = [2.0, 4.0, 6.0];
        assert!((pearson(&xs, &ys).unwrap() - 1.0).abs() < 1e-12);
        let neg = [3.0, 2.0, 1.0];
        assert!((pearson(&xs, &neg).unwrap() + 1.0).abs() < 1e-12);
    }

    #[test]
    fn pearson_degenerate_cases() {
        assert_eq!(pearson(&[1.0], &[1.0]), None);
        assert_eq!(pearson(&[1.0, 1.0], &[1.0, 2.0]), None);
        assert_eq!(pearson(&[1.0, 2.0], &[1.0]), None);
    }

    #[test]
    fn correlation_matrix_shape_and_diagonal() {
        let rows = vec![
            vec![1.0, 2.0, 0.5],
            vec![2.0, 4.0, 0.4],
            vec![3.0, 6.0, 0.9],
        ];
        let m = correlation_matrix(&rows);
        assert_eq!(m.len(), 3);
        for (i, row) in m.iter().enumerate() {
            assert!((row[i] - 1.0).abs() < 1e-12);
        }
        assert!((m[0][1] - 1.0).abs() < 1e-12);
        assert!((m[0][1] - m[1][0]).abs() < 1e-12);
    }

    #[test]
    fn relative_range_matches_definition() {
        let xs = [0.4, 0.5, 0.6];
        assert!((relative_range(&xs) - 0.4).abs() < 1e-12);
        assert_eq!(relative_range(&[]), 0.0);
    }

    #[test]
    fn histogram_density_integrates_to_one() {
        let mut h = Histogram::new(0.0, 1.0, 10);
        h.extend((0..1000).map(|i| i as f64 / 1000.0));
        let w = 0.1;
        let integral: f64 = h.density().iter().map(|d| d * w).sum();
        assert!((integral - 1.0).abs() < 1e-9);
        assert_eq!(h.counts().iter().sum::<u64>(), 1000);
    }

    #[test]
    fn histogram_clamps_outliers() {
        let mut h = Histogram::new(0.0, 1.0, 4);
        h.add(-5.0);
        h.add(5.0);
        assert_eq!(h.counts()[0], 1);
        assert_eq!(h.counts()[3], 1);
    }
}
