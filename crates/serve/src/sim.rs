//! The sim side of the serve split: a deterministic market stream
//! feeding the writer.
//!
//! [`MarketFeed`] pre-generates a simulated market (same generator as
//! the paper experiments), fits discretization thresholds on the
//! initial window only — how a live system discretizes incoming days on
//! the training scale — and then serves the remaining days as stream
//! rows. [`MarketFeed::cycle_row`] wraps around for endless benchmark
//! runs, so the writer never starves while throughput is measured.

use hypermine_data::{Database, Value};
use hypermine_market::{discretize_market, Market, SimConfig, Universe};

/// Stream shape: how much market to simulate and how to discretize it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FeedConfig {
    /// Number of tickers (= attributes).
    pub tickers: usize,
    /// Initial window width in delta days; also the threshold-fitting
    /// range.
    pub window: usize,
    /// Discretization arity (paper C2 uses `k = 5`).
    pub k: Value,
    /// Total simulated trading days (delta days = `n_days - 1`).
    pub n_days: usize,
    /// Simulation seed; equal seeds reproduce identical feeds.
    pub seed: u64,
}

impl Default for FeedConfig {
    fn default() -> Self {
        FeedConfig {
            tickers: 40,
            window: 252,
            k: 5,
            n_days: 2 * 252,
            seed: 11,
        }
    }
}

/// A pre-generated, replayable stream of discretized market rows.
#[derive(Debug, Clone)]
pub struct MarketFeed {
    initial: Database,
    rows: Vec<Vec<Value>>,
    pos: usize,
}

impl MarketFeed {
    /// Simulates and discretizes a market per `cfg`.
    ///
    /// # Panics
    /// Panics when `cfg` yields no full initial window (too few days).
    pub fn new(cfg: &FeedConfig) -> MarketFeed {
        let market = Market::simulate(
            Universe::sp500(cfg.tickers),
            &SimConfig {
                n_days: cfg.n_days,
                seed: cfg.seed,
                ..SimConfig::default()
            },
        );
        let disc = discretize_market(&market, cfg.k, Some(0..cfg.window));
        let stream = disc.discretize_more(&market, 0..usize::MAX);
        assert!(
            stream.num_obs() > cfg.window,
            "feed needs at least one day beyond the initial window"
        );
        let initial = stream.slice_obs(0..cfg.window);
        let rows = (cfg.window..stream.num_obs())
            .map(|o| stream.attrs().map(|a| stream.value(a, o)).collect())
            .collect();
        MarketFeed {
            initial,
            rows,
            pos: 0,
        }
    }

    /// The initial window to build the served model from.
    pub fn initial(&self) -> &Database {
        &self.initial
    }

    /// Number of stream rows beyond the initial window.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the feed has no stream rows (never, per the `new`
    /// assertion, but clippy rightly wants `len` paired).
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The next stream row, or `None` once exhausted.
    pub fn next_row(&mut self) -> Option<&[Value]> {
        let row = self.rows.get(self.pos)?;
        self.pos += 1;
        Some(row)
    }

    /// The next stream row, wrapping around at the end — an endless
    /// stationary stream for throughput runs.
    pub fn cycle_row(&mut self) -> &[Value] {
        if self.pos >= self.rows.len() {
            self.pos = 0;
        }
        let row = &self.rows[self.pos];
        self.pos += 1;
        row
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn feed_is_deterministic_and_cycles() {
        let cfg = FeedConfig {
            tickers: 12, // sp500 universes clamp to >= 12 tickers
            window: 60,
            n_days: 100,
            ..FeedConfig::default()
        };
        let mut f1 = MarketFeed::new(&cfg);
        let mut f2 = MarketFeed::new(&cfg);
        assert_eq!(f1.initial(), f2.initial());
        assert_eq!(f1.initial().num_obs(), 60);
        assert_eq!(f1.initial().num_attrs(), 12);
        assert_eq!(f1.len(), 99 - 60); // n_days - 1 delta days total
        let first = f1.cycle_row().to_vec();
        assert_eq!(f2.next_row().unwrap(), &first[..]);
        for _ in 1..f1.len() {
            f1.cycle_row();
        }
        assert_eq!(f1.cycle_row(), &first[..], "wraps to the first row");
        assert!(!f1.is_empty());
    }

    #[test]
    fn rows_are_valid_stream_input() {
        let cfg = FeedConfig {
            tickers: 12,
            window: 40,
            n_days: 80,
            k: 3,
            ..FeedConfig::default()
        };
        let mut feed = MarketFeed::new(&cfg);
        while let Some(row) = feed.next_row() {
            assert_eq!(row.len(), 12);
            assert!(row.iter().all(|&v| (1..=3).contains(&v)));
        }
    }
}
