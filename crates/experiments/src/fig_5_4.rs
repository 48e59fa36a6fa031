//! Figure 5.4: classification-confidence distribution of the
//! association-based classifier over expanding training windows.
//!
//! The paper trains on Jan 1996 → Dec of year Y (Y = 1996…2008) and tests
//! on year Y+1, using the C1 dominator at the top-40% ACV threshold; both
//! dominator algorithms are shown (subfigures (a) and (b)). We reproduce
//! the series: per window, the ABC's mean classification confidence in- and
//! out-of-sample.

use crate::dominator_tables::DominatorAlgorithm;
use crate::paper;
use crate::scenario::{Configuration, Scenario};
use hypermine_core::{
    attr_of, dominating_adaptation, node_of, set_cover_adaptation, AssociationClassifier,
    AssociationModel, SetCoverOptions, StopRule,
};
use hypermine_data::AttrId;
use hypermine_hypergraph::NodeId;
use hypermine_market::{calendar, discretize_market};
use std::fmt;

/// One expanding-window evaluation point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowPoint {
    /// Number of whole years in the training window.
    pub train_years: usize,
    /// Mean classification confidence on the training window.
    pub in_sample: f64,
    /// Mean classification confidence on the following year.
    pub out_sample: f64,
    /// Dominator size for this window.
    pub dominator_size: usize,
}

/// The Figure 5.4 series for one dominator algorithm.
#[derive(Debug, Clone)]
pub struct ExpandingWindowReport {
    pub algorithm: DominatorAlgorithm,
    pub points: Vec<WindowPoint>,
}

/// Runs the expanding-window experiment on configuration C1 at the
/// top-`fraction` ACV threshold.
pub fn expanding_windows(
    scenario: &Scenario,
    algorithm: DominatorAlgorithm,
    fraction: f64,
) -> ExpandingWindowReport {
    let cfg = Configuration::c1();
    let total_days = scenario.market.n_days() - 1;
    let total_years = total_days.div_ceil(calendar::TRADING_DAYS_PER_YEAR);
    let mut points = Vec::new();
    for train_years in 1..total_years {
        let split = calendar::days_in_years(train_years).min(total_days);
        let test_end = calendar::days_in_years(train_years + 1).min(total_days);
        if test_end <= split {
            break;
        }
        let disc = discretize_market(&scenario.market, cfg.k, Some(0..split));
        let test_db = disc.discretize_more(&scenario.market, split..test_end);
        let model =
            AssociationModel::build(&disc.database, &cfg.model).expect("paper gammas are valid");
        let Some(threshold) = model.acv_percentile_threshold(fraction) else {
            continue;
        };
        let filtered = model.filter_by_acv(threshold);
        let nodes: Vec<NodeId> = model.attrs().map(node_of).collect();
        let result = match algorithm {
            DominatorAlgorithm::DominatingSet => {
                dominating_adaptation(filtered.hypergraph(), &nodes, StopRule::NoCrossGain)
            }
            DominatorAlgorithm::SetCover => {
                set_cover_adaptation(filtered.hypergraph(), &nodes, &SetCoverOptions::default())
            }
        };
        let dominator: Vec<AttrId> = result.dominator.iter().map(|&n| attr_of(n)).collect();
        if dominator.is_empty() {
            continue;
        }
        let targets: Vec<AttrId> = model.attrs().filter(|a| !dominator.contains(a)).collect();
        let clf = AssociationClassifier::new(&filtered, &dominator);
        points.push(WindowPoint {
            train_years,
            in_sample: clf.evaluate(&disc.database, &targets).mean_confidence(),
            out_sample: clf.evaluate(&test_db, &targets).mean_confidence(),
            dominator_size: dominator.len(),
        });
    }
    ExpandingWindowReport { algorithm, points }
}

impl ExpandingWindowReport {
    /// `(min, max)` confidence across both series — the paper reports the
    /// band 0.60–0.75.
    pub fn confidence_band(&self) -> Option<(f64, f64)> {
        let all: Vec<f64> = self
            .points
            .iter()
            .flat_map(|p| [p.in_sample, p.out_sample])
            .collect();
        if all.is_empty() {
            return None;
        }
        Some((
            all.iter().copied().fold(f64::INFINITY, f64::min),
            all.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        ))
    }
}

impl fmt::Display for ExpandingWindowReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let label = match self.algorithm {
            DominatorAlgorithm::DominatingSet => "(a) Algorithm 5 dominator",
            DominatorAlgorithm::SetCover => "(b) Algorithm 6 dominator",
        };
        writeln!(
            f,
            "Figure 5.4 {label}: expanding training windows (C1, top 40%)"
        )?;
        writeln!(f, "    train-years  |Dom|  in-sample  out-sample")?;
        for p in &self.points {
            writeln!(
                f,
                "    {:>10}  {:>5}  {:>9.3}  {:>10.3}",
                p.train_years, p.dominator_size, p.in_sample, p.out_sample
            )?;
        }
        if let Some((lo, hi)) = self.confidence_band() {
            writeln!(
                f,
                "    measured band [{lo:.2}, {hi:.2}]  (paper: [{:.2}, {:.2}])",
                paper::FIG_5_4.min_confidence,
                paper::FIG_5_4.max_confidence
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Scale;

    #[test]
    fn windows_cover_all_years() {
        let s = Scenario::new(
            Scale {
                tickers: 30,
                years: 4,
            },
            23,
        );
        let r = expanding_windows(&s, DominatorAlgorithm::DominatingSet, 0.4);
        // 4 years -> train windows of 1, 2, 3 years.
        assert_eq!(r.points.len(), 3);
        for (i, p) in r.points.iter().enumerate() {
            assert_eq!(p.train_years, i + 1);
            assert!((0.0..=1.0).contains(&p.in_sample));
            assert!((0.0..=1.0).contains(&p.out_sample));
            assert!(p.dominator_size > 0);
        }
        let (lo, hi) = r.confidence_band().unwrap();
        assert!(lo <= hi);
        let _ = r.to_string();
    }

    #[test]
    fn both_algorithms_produce_series() {
        let s = Scenario::new(
            Scale {
                tickers: 30,
                years: 3,
            },
            23,
        );
        for alg in [
            DominatorAlgorithm::DominatingSet,
            DominatorAlgorithm::SetCover,
        ] {
            let r = expanding_windows(&s, alg, 0.4);
            assert!(!r.points.is_empty(), "{alg:?}");
        }
    }
}
