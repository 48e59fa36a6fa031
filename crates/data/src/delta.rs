//! The delta (fractional change) transform for time-series.
//!
//! Section 5.1.1: "for each financial time-series … we create a *delta
//! time-series*, a list of real numbers whose i'th entry is the fractional
//! change in the closing stock price of the (i+1)'th day relative to the
//! closing stock price of the i'th day."

use std::fmt;

/// A price that cannot be delta-transformed: zero, negative, or not
/// finite. A zero price divides by zero (`inf`/`NaN` deltas); a negative
/// price silently flips the sign of the fractional change. Both would
/// poison downstream discretization, so [`try_delta_series`] /
/// [`try_delta_matrix`] reject them up front.
#[derive(Debug, Clone, PartialEq)]
pub struct DeltaError {
    /// Index of the offending series in the input matrix (0 for
    /// [`try_delta_series`]).
    pub series: usize,
    /// Index of the offending price within its series.
    pub index: usize,
    /// The offending price.
    pub price: f64,
}

impl fmt::Display for DeltaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "price {} at series {}, entry {} is not a positive finite number",
            self.price, self.series, self.index
        )
    }
}

impl std::error::Error for DeltaError {}

/// Computes the delta series of `prices`: `delta[i] = (p[i+1] - p[i]) / p[i]`.
///
/// The result has length `prices.len() - 1` (empty for fewer than two
/// prices). Non-positive prices yield whatever IEEE arithmetic produces
/// (`inf` and `NaN` included) — use [`try_delta_series`] for data that has
/// not already been validated; the market simulator guarantees positive
/// prices and the CSV loader rejects non-positive ones at parse time.
pub fn delta_series(prices: &[f64]) -> Vec<f64> {
    prices.windows(2).map(|w| (w[1] - w[0]) / w[0]).collect()
}

/// Applies [`delta_series`] to every column of a price matrix.
pub fn delta_matrix(prices: &[Vec<f64>]) -> Vec<Vec<f64>> {
    prices.iter().map(|p| delta_series(p)).collect()
}

/// [`delta_series`] with validation: every price must be a positive
/// finite number, otherwise the offending entry is reported instead of
/// emitting `inf`/`NaN` deltas.
pub fn try_delta_series(prices: &[f64]) -> Result<Vec<f64>, DeltaError> {
    validate_prices(0, prices)?;
    Ok(delta_series(prices))
}

/// [`delta_matrix`] with validation: every price of every series must be
/// a positive finite number.
pub fn try_delta_matrix(prices: &[Vec<f64>]) -> Result<Vec<Vec<f64>>, DeltaError> {
    for (series, p) in prices.iter().enumerate() {
        validate_prices(series, p)?;
    }
    Ok(delta_matrix(prices))
}

fn validate_prices(series: usize, prices: &[f64]) -> Result<(), DeltaError> {
    for (index, &price) in prices.iter().enumerate() {
        if !(price.is_finite() && price > 0.0) {
            return Err(DeltaError {
                series,
                index,
                price,
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_fractional_changes() {
        let d = delta_series(&[100.0, 110.0, 99.0]);
        assert_eq!(d.len(), 2);
        assert!((d[0] - 0.10).abs() < 1e-12);
        assert!((d[1] - (-0.10)).abs() < 1e-12);
    }

    #[test]
    fn short_inputs() {
        assert!(delta_series(&[]).is_empty());
        assert!(delta_series(&[5.0]).is_empty());
    }

    #[test]
    fn constant_series_is_all_zero() {
        let d = delta_series(&[3.0; 10]);
        assert_eq!(d.len(), 9);
        assert!(d.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn matrix_applies_per_column() {
        let m = delta_matrix(&[vec![1.0, 2.0], vec![4.0, 2.0, 1.0]]);
        assert_eq!(m[0], vec![1.0]);
        assert_eq!(m[1], vec![-0.5, -0.5]);
    }

    #[test]
    fn checked_variant_rejects_zero_prices() {
        // A zero price would emit an inf delta (division by zero).
        let err = try_delta_series(&[100.0, 0.0, 50.0]).unwrap_err();
        assert_eq!(
            err,
            DeltaError {
                series: 0,
                index: 1,
                price: 0.0
            }
        );
        // The unchecked variant really does produce non-finite output here,
        // which is exactly what the checked variant guards against.
        assert!(delta_series(&[100.0, 0.0, 50.0])
            .iter()
            .any(|d| !d.is_finite()));
    }

    #[test]
    fn checked_variant_rejects_negative_and_non_finite_prices() {
        let err = try_delta_series(&[-3.0, 2.0]).unwrap_err();
        assert_eq!(err.index, 0);
        assert_eq!(err.price, -3.0);
        assert!(try_delta_series(&[1.0, f64::NAN]).is_err());
        assert!(try_delta_series(&[1.0, f64::INFINITY]).is_err());
        // Error formatting names the location.
        assert!(err.to_string().contains("entry 0"));
    }

    #[test]
    fn checked_variants_accept_valid_input() {
        let d = try_delta_series(&[100.0, 110.0, 99.0]).unwrap();
        assert_eq!(d, delta_series(&[100.0, 110.0, 99.0]));
        assert!(try_delta_series(&[]).unwrap().is_empty());
        let m = try_delta_matrix(&[vec![1.0, 2.0], vec![4.0, 2.0]]).unwrap();
        assert_eq!(m, delta_matrix(&[vec![1.0, 2.0], vec![4.0, 2.0]]));
    }

    #[test]
    fn matrix_error_reports_the_series() {
        let err = try_delta_matrix(&[vec![1.0, 2.0], vec![3.0, -1.0]]).unwrap_err();
        assert_eq!(err.series, 1);
        assert_eq!(err.index, 1);
        assert_eq!(err.price, -1.0);
    }
}
