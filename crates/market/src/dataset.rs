//! Bridging markets to mined databases.
//!
//! Reproduces Section 5.1.1 end to end: prices → delta series → equi-depth
//! discretization with k-threshold vectors → a `Database` whose attributes
//! are the tickers and whose observations are trading days.

use crate::model::Market;
use hypermine_data::discretize::{
    apply_thresholds, discretize_columns, EquiDepth, ThresholdVector,
};
use hypermine_data::{try_delta_matrix, Database, DatabaseError, DeltaError, Value};
use std::fmt;
use std::ops::Range;

/// Errors raised by [`discretize_prices`] — the loader-facing pipeline
/// entry, which must report bad external data instead of panicking.
#[derive(Debug, Clone, PartialEq)]
pub enum PriceError {
    /// A price is zero, negative, or not finite.
    Price(DeltaError),
    /// The input shape is invalid: symbol/series count mismatch, ragged
    /// series (e.g. missing trading days in one ticker), or `k = 0`.
    Shape(DatabaseError),
}

impl fmt::Display for PriceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PriceError::Price(e) => write!(f, "{e}"),
            PriceError::Shape(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for PriceError {}

/// A discretized market: the database plus the fitted per-ticker threshold
/// vectors (needed to discretize held-out data on the same scale).
#[derive(Debug, Clone)]
pub struct DiscretizedMarket {
    /// The mined database: one attribute per ticker, one observation per
    /// delta-series day.
    pub database: Database,
    /// Per-ticker fitted k-threshold vectors.
    pub thresholds: Vec<ThresholdVector>,
}

/// Discretizes the *delta* series of every ticker over the day range
/// `days` (indices into the delta series; `None` = everything) with
/// equi-depth partitioning into `1..=k`.
pub fn discretize_market(
    market: &Market,
    k: Value,
    days: Option<Range<usize>>,
) -> DiscretizedMarket {
    let deltas = market.deltas();
    let len = deltas.first().map_or(0, Vec::len);
    let range = days.unwrap_or(0..len);
    let range = range.start.min(len)..range.end.min(len);
    let cols: Vec<Vec<f64>> = deltas.iter().map(|d| d[range.clone()].to_vec()).collect();
    let (database, thresholds) =
        discretize_columns(market.universe().symbols(), k, &cols, &EquiDepth::new(k))
            .expect("discretizer output is always in 1..=k");
    DiscretizedMarket {
        database,
        thresholds,
    }
}

/// Discretizes a raw price matrix (e.g. loaded via [`crate::csv::read_csv`])
/// the same way [`discretize_market`] treats simulated prices: delta
/// transform, then per-series equi-depth partitioning into `1..=k`.
///
/// This is the loader-facing entry point, so everything external data can
/// get wrong is reported as an error instead of panicking: the **checked**
/// delta transform rejects zero, negative, and non-finite prices (which
/// would poison the discretizer with `inf`/`NaN` deltas), and shape
/// problems — symbol/series count mismatch, ragged series, `k = 0` —
/// surface as [`PriceError::Shape`]. (The CSV parser already rejects bad
/// prices; data arriving by other routes gets the same guarantees here.)
pub fn discretize_prices(
    symbols: Vec<String>,
    k: Value,
    prices: &[Vec<f64>],
) -> Result<DiscretizedMarket, PriceError> {
    if k == 0 {
        // EquiDepth::new panics on k = 0; report it like every other
        // shape problem instead.
        return Err(PriceError::Shape(DatabaseError::ZeroK));
    }
    let deltas = try_delta_matrix(prices).map_err(PriceError::Price)?;
    let (database, thresholds) =
        discretize_columns(symbols, k, &deltas, &EquiDepth::new(k)).map_err(PriceError::Shape)?;
    Ok(DiscretizedMarket {
        database,
        thresholds,
    })
}

impl DiscretizedMarket {
    /// Discretizes another day range of the same market with *these*
    /// thresholds (e.g. an out-of-sample year on the in-sample scale).
    pub fn discretize_more(&self, market: &Market, days: Range<usize>) -> Database {
        let deltas = market.deltas();
        let len = deltas.first().map_or(0, Vec::len);
        let range = days.start.min(len)..days.end.min(len);
        let cols: Vec<Vec<f64>> = deltas.iter().map(|d| d[range.clone()].to_vec()).collect();
        apply_thresholds(
            market.universe().symbols(),
            self.database.k(),
            &cols,
            &self.thresholds,
        )
        .expect("thresholds map into 1..=k")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::SimConfig;
    use crate::universe::Universe;
    use hypermine_data::AttrId;

    fn market() -> Market {
        Market::simulate(
            Universe::sp500(20),
            &SimConfig {
                n_days: 500,
                seed: 3,
                ..SimConfig::default()
            },
        )
    }

    #[test]
    fn database_shape() {
        let m = market();
        let d = discretize_market(&m, 3, None);
        assert_eq!(d.database.num_attrs(), 20);
        assert_eq!(d.database.num_obs(), 499); // deltas: one fewer than days
        assert_eq!(d.database.k(), 3);
        assert_eq!(d.thresholds.len(), 20);
    }

    #[test]
    fn equi_depth_buckets_are_balanced() {
        let m = market();
        let d = discretize_market(&m, 3, None);
        for a in d.database.attrs() {
            let counts = d.database.value_counts(a);
            let m_obs = d.database.num_obs() as f64;
            for &c in &counts {
                let frac = c as f64 / m_obs;
                assert!(
                    (frac - 1.0 / 3.0).abs() < 0.05,
                    "bucket fraction {frac} too far from 1/3"
                );
            }
        }
    }

    #[test]
    fn day_range_restriction() {
        let m = market();
        let d = discretize_market(&m, 3, Some(0..100));
        assert_eq!(d.database.num_obs(), 100);
    }

    #[test]
    fn held_out_discretization_uses_training_scale() {
        let m = market();
        let train = discretize_market(&m, 3, Some(0..400));
        let test = train.discretize_more(&m, 400..499);
        assert_eq!(test.num_obs(), 99);
        assert_eq!(test.k(), 3);
        // Same ticker order.
        assert_eq!(
            test.attr_name(AttrId::new(0)),
            train.database.attr_name(AttrId::new(0))
        );
    }

    #[test]
    fn price_loader_path_discretizes_and_validates() {
        let m = market();
        // The loader path on valid prices matches the market path exactly.
        let via_market = discretize_market(&m, 3, None);
        let via_prices = discretize_prices(m.universe().symbols(), 3, m.prices()).unwrap();
        assert_eq!(via_prices.database, via_market.database);
        // Zero and negative prices are rejected with their location
        // instead of producing inf/NaN deltas.
        let mut bad = m.prices().to_vec();
        bad[4][10] = 0.0;
        match discretize_prices(m.universe().symbols(), 3, &bad) {
            Err(PriceError::Price(e)) => {
                assert_eq!((e.series, e.index, e.price), (4, 10, 0.0));
            }
            other => panic!("expected a price error, got {other:?}"),
        }
        bad[4][10] = -12.5;
        match discretize_prices(m.universe().symbols(), 3, &bad) {
            Err(PriceError::Price(e)) => assert_eq!(e.price, -12.5),
            other => panic!("expected a price error, got {other:?}"),
        }
    }

    #[test]
    fn price_loader_reports_shape_errors_instead_of_panicking() {
        // Symbol/series count mismatch.
        let err =
            discretize_prices(vec!["A".into()], 3, &[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap_err();
        assert!(matches!(
            err,
            PriceError::Shape(hypermine_data::DatabaseError::NameCountMismatch { .. })
        ));
        // Ragged series (a ticker with missing trading days).
        let err = discretize_prices(
            vec!["A".into(), "B".into()],
            3,
            &[vec![1.0, 2.0, 3.0], vec![1.0, 2.0]],
        )
        .unwrap_err();
        assert!(matches!(
            err,
            PriceError::Shape(hypermine_data::DatabaseError::RaggedColumns { .. })
        ));
        // k = 0 is a shape error too, and the messages render.
        let err = discretize_prices(vec!["A".into()], 0, &[vec![1.0, 2.0]]).unwrap_err();
        assert!(matches!(
            err,
            PriceError::Shape(hypermine_data::DatabaseError::ZeroK)
        ));
        assert!(!err.to_string().is_empty());
    }

    #[test]
    fn ranges_are_clamped() {
        let m = market();
        let d = discretize_market(&m, 3, Some(450..10_000));
        assert_eq!(d.database.num_obs(), 49);
    }
}
