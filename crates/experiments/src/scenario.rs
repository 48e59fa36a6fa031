//! Experiment scenarios: the simulated market, its discretizations, and the
//! association models for the paper's configurations C1 and C2.

use hypermine_core::{AssociationModel, ModelConfig};
use hypermine_data::{Database, Value};
use hypermine_market::{
    calendar, discretize_market, DiscretizedMarket, Market, SimConfig, Universe,
};
use std::ops::Range;

/// Experiment scale: how much of the paper's full setup to instantiate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// Universe size (the paper uses 346).
    pub tickers: usize,
    /// Simulated whole years (the paper spans 15: 1995–2009).
    pub years: usize,
}

impl Scale {
    /// The scale `dims` describes (dims must span whole years, which
    /// every [`crate::registry::PAPER_DIMS`] entry does).
    fn from_dims(dims: crate::registry::MarketDims) -> Scale {
        debug_assert_eq!(dims.days % calendar::TRADING_DAYS_PER_YEAR, 0);
        Scale {
            tickers: dims.tickers,
            years: dims.days / calendar::TRADING_DAYS_PER_YEAR,
        }
    }

    /// Tiny scale for unit tests (~seconds end to end).
    pub fn tiny() -> Scale {
        Scale::from_dims(crate::registry::PAPER_DIMS.tiny)
    }

    /// The default reporting scale: large enough to reproduce every
    /// qualitative result, small enough to run the whole report in minutes
    /// on two cores.
    pub fn default_scale() -> Scale {
        Scale::from_dims(crate::registry::PAPER_DIMS.default_scale)
    }

    /// The paper's full setup (346 tickers, 15 years). Model construction
    /// for C2 (k = 5) takes tens of minutes on a two-core machine.
    pub fn full() -> Scale {
        Scale::from_dims(crate::registry::PAPER_DIMS.full)
    }

    /// The [`crate::registry::RunScale`] scales, mapped through the
    /// registry's paper dimensions.
    pub fn at(scale: crate::registry::RunScale) -> Scale {
        Scale::from_dims(crate::registry::PAPER_DIMS.at(scale))
    }
}

/// A named parameter configuration (Section 5.1.2).
#[derive(Debug, Clone, PartialEq)]
pub struct Configuration {
    /// `"C1"` or `"C2"`.
    pub name: &'static str,
    /// Discretization arity.
    pub k: Value,
    /// γ parameters.
    pub model: ModelConfig,
}

impl Configuration {
    /// C1: k = 3, γ₁→₁ = 1.15, γ₂→₁ = 1.05.
    pub fn c1() -> Configuration {
        Configuration {
            name: "C1",
            k: 3,
            model: ModelConfig::c1(),
        }
    }

    /// C2: k = 5, γ₁→₁ = 1.20, γ₂→₁ = 1.12.
    pub fn c2() -> Configuration {
        Configuration {
            name: "C2",
            k: 5,
            model: ModelConfig::c2(),
        }
    }
}

/// A simulated market with its train/test day split (delta-series indices).
#[derive(Debug, Clone)]
pub struct Scenario {
    /// The simulated market.
    pub market: Market,
    /// In-sample delta-series days (all but the final year).
    pub in_days: Range<usize>,
    /// Out-of-sample delta-series days (the final year).
    pub out_days: Range<usize>,
}

impl Scenario {
    /// Simulates a market at `scale` with the given seed. The final year is
    /// held out (the paper trains on Jan 1996 – Dec 2008 and tests on
    /// 2009).
    pub fn new(scale: Scale, seed: u64) -> Scenario {
        assert!(
            scale.years >= 2,
            "need at least one train and one test year"
        );
        let n_days = calendar::days_in_years(scale.years);
        let market = Market::simulate(
            Universe::sp500(scale.tickers),
            &SimConfig {
                n_days,
                seed,
                ..SimConfig::default()
            },
        );
        // Delta series has n_days - 1 entries.
        let split = calendar::days_in_years(scale.years - 1);
        Scenario {
            market,
            in_days: 0..split,
            out_days: split..n_days - 1,
        }
    }

    /// Discretizes and builds the association model for one configuration.
    pub fn build(&self, cfg: &Configuration) -> BuiltConfig {
        let disc = discretize_market(&self.market, cfg.k, Some(self.in_days.clone()));
        let test_db = disc.discretize_more(&self.market, self.out_days.clone());
        let model =
            AssociationModel::build(&disc.database, &cfg.model).expect("paper gammas are >= 1");
        BuiltConfig {
            config: cfg.clone(),
            train_db: disc.database.clone(),
            test_db,
            disc,
            model,
        }
    }
}

/// One configuration, fully materialized.
#[derive(Debug, Clone)]
pub struct BuiltConfig {
    /// The configuration this was built under.
    pub config: Configuration,
    /// Discretization artifacts (threshold vectors and the training
    /// database).
    pub disc: DiscretizedMarket,
    /// In-sample discretized database (== `disc.database`).
    pub train_db: Database,
    /// Out-of-sample database, discretized with the in-sample thresholds.
    pub test_db: Database,
    /// The association hypergraph model built on the training database.
    pub model: AssociationModel,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_split_covers_delta_series() {
        let s = Scenario::new(Scale::tiny(), 3);
        let total = s.market.n_days() - 1;
        assert_eq!(s.in_days.end, s.out_days.start);
        assert_eq!(s.out_days.end, total);
        // One year held out.
        assert_eq!(s.out_days.len(), calendar::TRADING_DAYS_PER_YEAR - 1);
    }

    #[test]
    fn build_produces_consistent_artifacts() {
        let s = Scenario::new(Scale::tiny(), 3);
        let b = s.build(&Configuration::c1());
        assert_eq!(b.train_db.k(), 3);
        assert_eq!(b.test_db.k(), 3);
        assert_eq!(b.train_db.num_attrs(), 30);
        assert_eq!(b.model.num_attrs(), 30);
        assert_eq!(b.train_db.num_obs(), s.in_days.len());
        assert_eq!(b.test_db.num_obs(), s.out_days.len());
        assert!(b.model.hypergraph().num_edges() > 0);
    }

    #[test]
    fn configurations_match_paper() {
        let c1 = Configuration::c1();
        assert_eq!(
            (c1.k, c1.model.gamma_edge, c1.model.gamma_hyper),
            (3, 1.15, 1.05)
        );
        let c2 = Configuration::c2();
        assert_eq!(
            (c2.k, c2.model.gamma_edge, c2.model.gamma_hyper),
            (5, 1.20, 1.12)
        );
    }

    #[test]
    #[should_panic(expected = "at least one train")]
    fn one_year_scale_rejected() {
        Scenario::new(
            Scale {
                tickers: 20,
                years: 1,
            },
            0,
        );
    }
}
