//! Figure 5.2: association-based similarity (in-sim / out-sim) versus
//! Euclidean similarity.
//!
//! The paper's scatter plots show Euclidean similarity failing to
//! differentiate pairs that the association measures separate clearly. We
//! reproduce the data behind the figure — for sampled ticker pairs, the
//! triples `(in-sim, out-sim, ES)` — and summarize: per-measure spread
//! (higher = more discriminative), the Pearson correlation between the
//! measures, and the mean ES within association-similarity deciles.

use crate::scenario::{BuiltConfig, Scenario};
use hypermine_core::euclidean_similarity;
use hypermine_data::AttrId;
use hypermine_market::correlation;
use std::fmt;

/// One sampled pair's similarity triple.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimilarityPoint {
    pub in_sim: f64,
    pub out_sim: f64,
    pub euclidean: f64,
}

/// The measured Figure 5.2 data and its summary.
#[derive(Debug, Clone)]
pub struct SimilarityReport {
    pub config: &'static str,
    pub points: Vec<SimilarityPoint>,
    /// Sample standard deviations: (in-sim, out-sim, ES).
    pub spreads: (f64, f64, f64),
    /// Pearson correlations: (in-sim vs ES, out-sim vs ES).
    pub correlations: (f64, f64),
}

fn std_dev(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mean = xs.iter().sum::<f64>() / xs.len() as f64;
    (xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / xs.len() as f64).sqrt()
}

/// Computes similarity triples over up to `max_pairs` attribute pairs
/// (deterministic stride sampling), using the in-sample delta series for
/// the Euclidean side exactly as Section 5.3.1 defines it.
pub fn similarity_report(
    scenario: &Scenario,
    built: &BuiltConfig,
    max_pairs: usize,
) -> SimilarityReport {
    let n = built.model.num_attrs();
    let deltas = scenario.market.deltas();
    let range = scenario.in_days.clone();
    let all_pairs = n * (n - 1) / 2;
    let stride = all_pairs.div_ceil(max_pairs.max(1)).max(1);

    let mut points = Vec::new();
    let mut idx = 0usize;
    for i in 0..n {
        for j in (i + 1)..n {
            if idx % stride == 0 {
                let a = AttrId::new(i as u32);
                let b = AttrId::new(j as u32);
                points.push(SimilarityPoint {
                    in_sim: built.model.in_similarity(a, b),
                    out_sim: built.model.out_similarity(a, b),
                    euclidean: euclidean_similarity(
                        &deltas[i][range.clone()],
                        &deltas[j][range.clone()],
                    ),
                });
            }
            idx += 1;
        }
    }
    let ins: Vec<f64> = points.iter().map(|p| p.in_sim).collect();
    let outs: Vec<f64> = points.iter().map(|p| p.out_sim).collect();
    let es: Vec<f64> = points.iter().map(|p| p.euclidean).collect();
    SimilarityReport {
        config: built.config.name,
        spreads: (std_dev(&ins), std_dev(&outs), std_dev(&es)),
        correlations: (correlation(&ins, &es), correlation(&outs, &es)),
        points,
    }
}

impl SimilarityReport {
    /// Relative spread (coefficient of variation) per measure:
    /// `(in-sim, out-sim, ES)`. The paper's Figure 5.2 claim — "Euclidean
    /// similarity does not differentiate pairs as distinctly" — is about
    /// *contrast*: ES values sit in a narrow band around a high mean, while
    /// association similarities spread widely relative to theirs.
    pub fn relative_spreads(&self) -> (f64, f64, f64) {
        let mean = |f: fn(&SimilarityPoint) -> f64| {
            self.points.iter().map(f).sum::<f64>() / self.points.len().max(1) as f64
        };
        let m_in = mean(|p| p.in_sim).max(1e-12);
        let m_out = mean(|p| p.out_sim).max(1e-12);
        let m_es = mean(|p| p.euclidean).max(1e-12);
        (
            self.spreads.0 / m_in,
            self.spreads.1 / m_out,
            self.spreads.2 / m_es,
        )
    }

    /// Mean ES per in-sim decile — the textual rendering of the scatter.
    pub fn decile_profile(&self) -> Vec<(f64, f64, usize)> {
        let mut bins = [(0.0f64, 0usize); 10];
        for p in &self.points {
            let b = ((p.in_sim * 10.0) as usize).min(9);
            bins[b].0 += p.euclidean;
            bins[b].1 += 1;
        }
        bins.iter()
            .enumerate()
            .map(|(i, &(sum, c))| (i as f64 / 10.0, if c > 0 { sum / c as f64 } else { 0.0 }, c))
            .collect()
    }
}

impl fmt::Display for SimilarityReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Figure 5.2 ({}): association vs Euclidean similarity over {} pairs",
            self.config,
            self.points.len()
        )?;
        writeln!(
            f,
            "  spread (sd): in-sim {:.3}, out-sim {:.3}, euclidean {:.3}",
            self.spreads.0, self.spreads.1, self.spreads.2
        )?;
        let (rin, rout, res) = self.relative_spreads();
        writeln!(
            f,
            "  relative spread (sd/mean): in-sim {rin:.3}, out-sim {rout:.3}, euclidean {res:.3}"
        )?;
        writeln!(
            f,
            "  correlation with ES: in-sim {:.3}, out-sim {:.3}",
            self.correlations.0, self.correlations.1
        )?;
        writeln!(f, "  in-sim decile -> mean ES (count):")?;
        for (lo, mean_es, count) in self.decile_profile() {
            if count > 0 {
                writeln!(
                    f,
                    "    [{:.1}, {:.1}) -> {mean_es:.3} ({count})",
                    lo,
                    lo + 0.1
                )?;
            }
        }
        writeln!(
            f,
            "  paper's claim: Euclidean similarity does not differentiate pairs as distinctly\n  (expect ES spread << association-similarity spread)"
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{Configuration, Scale};

    #[test]
    fn report_values_in_range() {
        let s = Scenario::new(Scale::tiny(), 13);
        let b = s.build(&Configuration::c1());
        let r = similarity_report(&s, &b, 100);
        assert!(!r.points.is_empty());
        assert!(r.points.len() <= 120);
        for p in &r.points {
            assert!((0.0..=1.0).contains(&p.in_sim));
            assert!((0.0..=1.0).contains(&p.out_sim));
            assert!((0.0..=1.0).contains(&p.euclidean));
        }
        let _ = r.to_string();
    }

    #[test]
    fn association_similarity_more_discriminative_than_euclidean() {
        // The paper's central Figure 5.2 claim, as relative contrast: the
        // association measures spread widely relative to their mean while
        // Euclidean similarity sits in a narrow band.
        let s = Scenario::new(
            Scale {
                tickers: 60,
                years: 6,
            },
            13,
        );
        let b = s.build(&Configuration::c1());
        let r = similarity_report(&s, &b, 500);
        let (rin, rout, res) = r.relative_spreads();
        assert!(
            rin > res && rout > res,
            "relative spreads in {rin:.3} out {rout:.3} should exceed ES {res:.3}"
        );
    }

    #[test]
    fn decile_profile_counts_match_points() {
        let s = Scenario::new(Scale::tiny(), 13);
        let b = s.build(&Configuration::c1());
        let r = similarity_report(&s, &b, 50);
        let total: usize = r.decile_profile().iter().map(|&(_, _, c)| c).sum();
        assert_eq!(total, r.points.len());
    }
}
