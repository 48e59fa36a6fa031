//! Synthetic S&P 500-style financial time-series.
//!
//! The paper evaluates on Yahoo-Finance daily closes for 346 S&P 500 tickers
//! (Jan 1995 – Dec 2009) across 12 industrial sectors and 104 sub-sectors.
//! That data set is not redistributable, so this crate provides the closest
//! synthetic equivalent: a seeded **three-level factor model** over a
//! universe with the paper's exact sector/sub-sector schema, including the
//! ~60 ticker symbols the paper names. The substitution preserves the
//! evaluated behaviour because the paper's findings rest on co-movement
//! structure (sub-sector and sector clusters, the producer/consumer
//! asymmetry), which the factor model reproduces by construction (see the
//! module docs of `model.rs`).
//!
//! ```
//! use hypermine_market::{Market, SimConfig, Universe};
//!
//! let market = Market::simulate(
//!     Universe::sp500(40),
//!     &SimConfig { n_days: 300, seed: 7, ..SimConfig::default() },
//! );
//! let disc = hypermine_market::discretize_market(&market, 3, None);
//! assert_eq!(disc.database.num_attrs(), 40);
//! assert_eq!(disc.database.num_obs(), 299);
//! ```

pub mod calendar;
pub mod csv;
mod dataset;
mod model;
mod sector;
mod universe;

pub use dataset::{discretize_market, discretize_prices, DiscretizedMarket, PriceError};
pub use model::{correlation, Market, RegimeConfig, SimConfig, TickerParams};
pub use sector::Sector;
pub use universe::{Ticker, Universe, PAPER_TICKERS};
