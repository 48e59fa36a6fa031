//! Shared fixtures for the Criterion benchmarks.
//!
//! Every bench target regenerates the computation behind one of the
//! paper's tables or figures (the README's "Running things" section lists
//! the report's per-table and per-figure sections) on a bench-sized
//! market, so `cargo bench` finishes in minutes while still exercising the
//! same code paths as the full report binary.

use hypermine_core::{AssociationModel, ModelConfig};
use hypermine_market::{discretize_market, DiscretizedMarket, Market, SimConfig, Universe};

/// A bench-scale built model plus its inputs.
pub struct BenchFixture {
    pub market: Market,
    pub disc: DiscretizedMarket,
    pub model: AssociationModel,
}

/// Simulates `tickers` over `days` days, discretizes at `k`, builds a C1
/// (γ) model. Deterministic for a given seed.
pub fn fixture(tickers: usize, days: usize, k: u8, seed: u64) -> BenchFixture {
    let market = Market::simulate(
        Universe::sp500(tickers),
        &SimConfig {
            n_days: days,
            seed,
            ..SimConfig::default()
        },
    );
    let disc = discretize_market(&market, k, None);
    let model = AssociationModel::build(&disc.database, &ModelConfig::c1())
        .expect("paper gammas are valid");
    BenchFixture {
        market,
        disc,
        model,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixture_builds() {
        let f = fixture(20, 260, 3, 1);
        assert_eq!(f.model.num_attrs(), 20);
        assert!(f.model.hypergraph().num_edges() > 0);
    }
}
