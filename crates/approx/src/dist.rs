//! Symmetric pairwise-distance matrices and metric-property checks.

use std::fmt;

/// A violation of the metric properties found by
/// [`DistanceMatrix::check_metric`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MetricViolation {
    /// `d(i, j) < 0`.
    Negative { i: usize, j: usize, d: f64 },
    /// `d(i, i) != 0`.
    NonZeroDiagonal { i: usize, d: f64 },
    /// `d(i, j) > d(i, k) + d(k, j)` beyond tolerance.
    Triangle {
        i: usize,
        j: usize,
        k: usize,
        excess: f64,
    },
}

impl fmt::Display for MetricViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MetricViolation::Negative { i, j, d } => write!(f, "d({i},{j}) = {d} is negative"),
            MetricViolation::NonZeroDiagonal { i, d } => write!(f, "d({i},{i}) = {d} is nonzero"),
            MetricViolation::Triangle { i, j, k, excess } => write!(
                f,
                "triangle inequality violated: d({i},{j}) exceeds d({i},{k}) + d({k},{j}) by {excess}"
            ),
        }
    }
}

/// A symmetric `n × n` matrix of pairwise distances, stored densely.
///
/// `set` writes both `(i, j)` and `(j, i)`, so the matrix is symmetric by
/// construction; the diagonal starts at zero.
#[derive(Debug, Clone, PartialEq)]
pub struct DistanceMatrix {
    n: usize,
    d: Vec<f64>,
}

impl DistanceMatrix {
    /// Creates an `n × n` zero matrix.
    pub fn new(n: usize) -> Self {
        DistanceMatrix {
            n,
            d: vec![0.0; n * n],
        }
    }

    /// Builds a matrix from a symmetric function `f(i, j)` (evaluated once
    /// per unordered pair; the diagonal is forced to zero).
    pub fn from_fn<F: FnMut(usize, usize) -> f64>(n: usize, mut f: F) -> Self {
        let mut m = Self::new(n);
        for i in 0..n {
            for j in (i + 1)..n {
                m.set(i, j, f(i, j));
            }
        }
        m
    }

    /// Builds the Euclidean distance matrix of a point set.
    ///
    /// # Panics
    /// Panics if points have differing dimensions.
    pub fn euclidean(points: &[Vec<f64>]) -> Self {
        let dim = points.first().map_or(0, Vec::len);
        assert!(
            points.iter().all(|p| p.len() == dim),
            "all points must share one dimension"
        );
        Self::from_fn(points.len(), |i, j| {
            points[i]
                .iter()
                .zip(&points[j])
                .map(|(a, b)| (a - b) * (a - b))
                .sum::<f64>()
                .sqrt()
        })
    }

    /// Number of points.
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// True if the matrix covers zero points.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// `d(i, j)`.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        self.d[i * self.n + j]
    }

    /// Sets `d(i, j) = d(j, i) = v`.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        self.d[i * self.n + j] = v;
        self.d[j * self.n + i] = v;
    }

    /// Mean off-diagonal distance (`None` when `n < 2`).
    pub fn mean_distance(&self) -> Option<f64> {
        if self.n < 2 {
            return None;
        }
        let mut sum = 0.0;
        for i in 0..self.n {
            for j in (i + 1)..self.n {
                sum += self.get(i, j);
            }
        }
        Some(sum / (self.n * (self.n - 1) / 2) as f64)
    }

    /// Verifies non-negativity, zero diagonal, and the triangle inequality
    /// (within `tol`), returning the first violation found.
    ///
    /// Symmetry holds by construction. `O(n³)` — the paper performs this
    /// verification experimentally before invoking t-clustering
    /// (Section 5.3.2), since Gonzalez's 2-approximation guarantee requires
    /// metric distances.
    pub fn check_metric(&self, tol: f64) -> Result<(), MetricViolation> {
        for i in 0..self.n {
            let dii = self.get(i, i);
            if dii.abs() > tol {
                return Err(MetricViolation::NonZeroDiagonal { i, d: dii });
            }
            for j in 0..self.n {
                let dij = self.get(i, j);
                if dij < -tol {
                    return Err(MetricViolation::Negative { i, j, d: dij });
                }
            }
        }
        for k in 0..self.n {
            for i in 0..self.n {
                let dik = self.get(i, k);
                for j in (i + 1)..self.n {
                    let excess = self.get(i, j) - dik - self.get(k, j);
                    if excess > tol {
                        return Err(MetricViolation::Triangle { i, j, k, excess });
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn symmetric_by_construction() {
        let mut m = DistanceMatrix::new(3);
        m.set(0, 2, 1.5);
        assert_eq!(m.get(2, 0), 1.5);
        assert_eq!(m.get(0, 0), 0.0);
    }

    #[test]
    fn euclidean_matrix() {
        let pts = vec![vec![0.0, 0.0], vec![3.0, 4.0], vec![0.0, 1.0]];
        let m = DistanceMatrix::euclidean(&pts);
        assert!((m.get(0, 1) - 5.0).abs() < 1e-12);
        assert!((m.get(0, 2) - 1.0).abs() < 1e-12);
        assert!(m.check_metric(1e-9).is_ok());
    }

    #[test]
    fn detects_triangle_violation() {
        let mut m = DistanceMatrix::new(3);
        m.set(0, 1, 10.0);
        m.set(1, 2, 1.0);
        m.set(0, 2, 1.0);
        match m.check_metric(1e-9) {
            Err(MetricViolation::Triangle { .. }) => {}
            other => panic!("expected triangle violation, got {other:?}"),
        }
    }

    #[test]
    fn detects_negative_and_diagonal() {
        let mut m = DistanceMatrix::new(2);
        m.set(0, 1, -1.0);
        assert!(matches!(
            m.check_metric(1e-9),
            Err(MetricViolation::Negative { .. })
        ));
        let mut m = DistanceMatrix::new(2);
        m.d[0] = 0.5; // corrupt the diagonal directly
        assert!(matches!(
            m.check_metric(1e-9),
            Err(MetricViolation::NonZeroDiagonal { .. })
        ));
    }

    #[test]
    fn mean_distance() {
        let mut m = DistanceMatrix::new(3);
        m.set(0, 1, 1.0);
        m.set(0, 2, 2.0);
        m.set(1, 2, 3.0);
        assert!((m.mean_distance().unwrap() - 2.0).abs() < 1e-12);
        assert_eq!(DistanceMatrix::new(1).mean_distance(), None);
    }

    #[test]
    #[should_panic(expected = "share one dimension")]
    fn ragged_points_panic() {
        DistanceMatrix::euclidean(&[vec![0.0], vec![0.0, 1.0]]);
    }
}
