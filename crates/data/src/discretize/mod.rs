//! Discretization of real-valued columns into the value domain `1..=k`.
//!
//! The paper's experiments use **equi-depth partitioning** via *k-threshold
//! vectors* (Section 5.1.1); the worked examples of Chapter 3 use fixed cut
//! points (the Gene and Personal-Interest databases) and direct value mapping
//! (the Patient database, `⌊aᵢ/10⌋`). All three are provided, behind one
//! trait, plus equal-width cuts for completeness.
//!
//! Every discretizer follows a *fit/apply* split: fitting learns cut points
//! from training data; applying maps any column (training or held-out) into
//! `1..=k` using the learned cuts. This keeps in-sample and out-sample data
//! on the same scale when required.

mod equi_depth;
mod equi_width;
mod fixed;
mod mapping;

pub use equi_depth::EquiDepth;
pub use equi_width::EquiWidth;
pub use fixed::FixedCuts;
pub use mapping::discretize_by;

use crate::database::{Database, DatabaseError, Value};

/// A fitted per-column discretizer: `k - 1` ascending cut points
/// `⟨a₁, …, a_{k−1}⟩` mapping reals into `1..=k`.
///
/// `apply(x) = 1` if `x < a₁`; `= i` if `a_{i−1} ≤ x < a_i`; `= k` if
/// `x ≥ a_{k−1}` — the paper's "entry lies in the range `[a_{i−1}, a_i)`"
/// with the two open ends closed off.
#[derive(Debug, Clone, PartialEq)]
pub struct ThresholdVector {
    cuts: Vec<f64>,
}

impl ThresholdVector {
    /// Creates a threshold vector from ascending cut points. `cuts` may be
    /// empty (`k = 1`: everything maps to value 1).
    ///
    /// # Panics
    /// Panics if the cuts are not non-decreasing or not finite.
    pub fn new(cuts: Vec<f64>) -> Self {
        assert!(
            cuts.iter().all(|c| c.is_finite()),
            "cut points must be finite"
        );
        assert!(
            cuts.windows(2).all(|w| w[0] <= w[1]),
            "cut points must be non-decreasing"
        );
        assert!(cuts.len() < u8::MAX as usize, "at most 254 cut points");
        ThresholdVector { cuts }
    }

    /// The number of output values `k` (`cuts.len() + 1`).
    pub fn k(&self) -> Value {
        (self.cuts.len() + 1) as Value
    }

    /// The cut points.
    pub fn cuts(&self) -> &[f64] {
        &self.cuts
    }

    /// Maps one real to its value in `1..=k`.
    pub fn apply(&self, x: f64) -> Value {
        // partition_point returns the count of cuts ≤ x, i.e. the 0-based
        // bucket; +1 shifts into the paper's 1-based value domain.
        (self.cuts.partition_point(|&c| c <= x) + 1) as Value
    }

    /// Maps a whole column.
    pub fn apply_column(&self, col: &[f64]) -> Vec<Value> {
        col.iter().map(|&x| self.apply(x)).collect()
    }
}

/// A discretization scheme that can be fitted to a real-valued column.
pub trait Discretizer {
    /// Learns cut points from `col`.
    fn fit(&self, col: &[f64]) -> ThresholdVector;

    /// Convenience: fit on `col` and immediately apply to it.
    fn fit_apply(&self, col: &[f64]) -> Vec<Value> {
        self.fit(col).apply_column(col)
    }
}

/// Fits `disc` to each column independently and assembles a [`Database`]
/// over the value domain `1..=k`.
///
/// Also returns the per-column [`ThresholdVector`]s so held-out data can be
/// discretized on the same scale.
pub fn discretize_columns<D: Discretizer>(
    names: Vec<String>,
    k: Value,
    columns: &[Vec<f64>],
    disc: &D,
) -> Result<(Database, Vec<ThresholdVector>), DatabaseError> {
    let mut out = Vec::with_capacity(columns.len());
    let mut tvs = Vec::with_capacity(columns.len());
    for col in columns {
        let tv = disc.fit(col);
        out.push(tv.apply_column(col));
        tvs.push(tv);
    }
    let db = Database::from_columns(names, k, out)?;
    Ok((db, tvs))
}

/// Applies previously fitted threshold vectors to new columns, producing a
/// database on the same value scale (e.g. out-of-sample data discretized
/// with in-sample thresholds).
pub fn apply_thresholds(
    names: Vec<String>,
    k: Value,
    columns: &[Vec<f64>],
    tvs: &[ThresholdVector],
) -> Result<Database, DatabaseError> {
    assert_eq!(columns.len(), tvs.len(), "one threshold vector per column");
    let out: Vec<Vec<Value>> = columns
        .iter()
        .zip(tvs)
        .map(|(col, tv)| tv.apply_column(col))
        .collect();
    Database::from_columns(names, k, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn threshold_vector_mapping() {
        let tv = ThresholdVector::new(vec![0.0, 1.0]);
        assert_eq!(tv.k(), 3);
        assert_eq!(tv.apply(-5.0), 1);
        assert_eq!(tv.apply(0.0), 2); // boundary goes right: x >= a1
        assert_eq!(tv.apply(0.5), 2);
        assert_eq!(tv.apply(1.0), 3);
        assert_eq!(tv.apply(42.0), 3);
    }

    #[test]
    fn empty_cuts_is_k1() {
        let tv = ThresholdVector::new(vec![]);
        assert_eq!(tv.k(), 1);
        assert_eq!(tv.apply(123.0), 1);
    }

    #[test]
    #[should_panic(expected = "non-decreasing")]
    fn rejects_descending_cuts() {
        ThresholdVector::new(vec![1.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn rejects_nan_cuts() {
        ThresholdVector::new(vec![f64::NAN]);
    }

    #[test]
    fn discretize_columns_roundtrip() {
        let cols = vec![vec![1.0, 2.0, 3.0, 4.0], vec![-1.0, 0.0, 1.0, 2.0]];
        let (db, tvs) =
            discretize_columns(vec!["a".into(), "b".into()], 2, &cols, &EquiDepth::new(2)).unwrap();
        assert_eq!(db.num_attrs(), 2);
        assert_eq!(db.k(), 2);
        assert_eq!(tvs.len(), 2);
        // Apply the fitted thresholds to fresh data.
        let held_out = vec![vec![0.0, 10.0], vec![-5.0, 5.0]];
        let db2 = apply_thresholds(vec!["a".into(), "b".into()], 2, &held_out, &tvs).unwrap();
        assert_eq!(db2.column(crate::AttrId::new(0)), &[1, 2]);
        assert_eq!(db2.column(crate::AttrId::new(1)), &[1, 2]);
    }
}
