//! Figure 5.1: weighted in-/out-degree distributions, plus the Section 5.2
//! producer/consumer analysis (top-25 sector composition).

use crate::paper;
use crate::scenario::BuiltConfig;
use hypermine_hypergraph::stats::{DegreeStats, Histogram, Summary};
use hypermine_market::{Sector, Universe};
use std::fmt;

/// Measured counterpart of Figure 5.1 plus the top-25 sector shares.
#[derive(Debug, Clone)]
pub struct DegreeReport {
    pub config: &'static str,
    /// Histogram of weighted in-degrees.
    pub in_histogram: Histogram,
    /// Histogram of weighted out-degrees.
    pub out_histogram: Histogram,
    /// Summary statistics of both degree vectors.
    pub in_summary: Summary,
    pub out_summary: Summary,
    /// Top-25 nodes by weighted in-degree: `(ticker, sector, degree)`.
    pub top_in: Vec<(String, Sector, f64)>,
    /// Top-25 nodes by weighted out-degree.
    pub top_out: Vec<(String, Sector, f64)>,
    /// Share of `top_in` in producer-leaning sectors (BM, E, SV).
    pub producer_share_in: f64,
    /// Share of `top_out` in consumer-leaning sectors (H, SV, T).
    pub consumer_share_out: f64,
}

/// Computes the Figure 5.1 report over a built configuration's hypergraph.
pub fn degree_report(built: &BuiltConfig, universe: &Universe) -> DegreeReport {
    let stats = DegreeStats::compute(built.model.hypergraph());
    let named = |pairs: Vec<(hypermine_hypergraph::NodeId, f64)>| -> Vec<(String, Sector, f64)> {
        pairs
            .into_iter()
            .map(|(n, d)| {
                let t = universe.ticker(n.index());
                (t.symbol.clone(), t.sector, d)
            })
            .collect()
    };
    let top_in = named(stats.top_by_in_degree(25));
    let top_out = named(stats.top_by_out_degree(25));
    let producer_share_in = top_in
        .iter()
        .filter(|(_, s, _)| s.is_producer_leaning())
        .count() as f64
        / top_in.len().max(1) as f64;
    let consumer_share_out = top_out
        .iter()
        .filter(|(_, s, _)| s.is_consumer_leaning())
        .count() as f64
        / top_out.len().max(1) as f64;
    DegreeReport {
        config: built.config.name,
        in_histogram: Histogram::from_values(&stats.weighted_in, 12).unwrap_or(Histogram {
            min: 0.0,
            max: 0.0,
            counts: vec![],
        }),
        out_histogram: Histogram::from_values(&stats.weighted_out, 12).unwrap_or(Histogram {
            min: 0.0,
            max: 0.0,
            counts: vec![],
        }),
        in_summary: Summary::of(&stats.weighted_in).expect("models have nodes"),
        out_summary: Summary::of(&stats.weighted_out).expect("models have nodes"),
        top_in,
        top_out,
        producer_share_in,
        consumer_share_out,
    }
}

fn render_histogram(f: &mut fmt::Formatter<'_>, h: &Histogram) -> fmt::Result {
    let max = h.counts.iter().copied().max().unwrap_or(1).max(1);
    for (i, &c) in h.counts.iter().enumerate() {
        let (lo, hi) = h.bin_range(i);
        let bar = "#".repeat(c * 40 / max);
        writeln!(f, "    [{lo:>8.2}, {hi:>8.2}) {c:>5} {bar}")?;
    }
    Ok(())
}

impl fmt::Display for DegreeReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Figure 5.1 ({}): weighted degree distributions",
            self.config
        )?;
        writeln!(
            f,
            "  (a) in-degree:  mean {:.2} sd {:.2} max {:.2}",
            self.in_summary.mean, self.in_summary.std_dev, self.in_summary.max
        )?;
        render_histogram(f, &self.in_histogram)?;
        writeln!(
            f,
            "  (b) out-degree: mean {:.2} sd {:.2} max {:.2}",
            self.out_summary.mean, self.out_summary.std_dev, self.out_summary.max
        )?;
        render_histogram(f, &self.out_histogram)?;
        let fmt_top = |f: &mut fmt::Formatter<'_>, list: &[(String, Sector, f64)]| -> fmt::Result {
            for (sym, sector, d) in list.iter().take(5) {
                write!(f, " {sym} ({sector}) {d:.1};")?;
            }
            Ok(())
        };
        write!(f, "  top-5 in-degree: ")?;
        fmt_top(f, &self.top_in)?;
        writeln!(f)?;
        write!(f, "  top-5 out-degree:")?;
        fmt_top(f, &self.top_out)?;
        writeln!(f)?;
        writeln!(
            f,
            "  producer share of top-25 in-degree:  {:.0}%  (paper: {:.0}%)",
            self.producer_share_in * 100.0,
            paper::DEGREE_FINDINGS.top25_in_producer_share * 100.0
        )?;
        writeln!(
            f,
            "  consumer share of top-25 out-degree: {:.0}%  (paper: {:.0}%)",
            self.consumer_share_out * 100.0,
            paper::DEGREE_FINDINGS.top25_out_consumer_share * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{Configuration, Scale, Scenario};

    #[test]
    fn report_structure() {
        let s = Scenario::new(
            Scale {
                tickers: 60,
                years: 3,
            },
            11,
        );
        let b = s.build(&Configuration::c1());
        let r = degree_report(&b, s.market.universe());
        assert_eq!(r.top_in.len(), 25);
        assert_eq!(r.top_out.len(), 25);
        assert!((0.0..=1.0).contains(&r.producer_share_in));
        assert!((0.0..=1.0).contains(&r.consumer_share_out));
        assert_eq!(r.in_histogram.total(), 60);
        // Top lists are sorted descending.
        assert!(r.top_in.windows(2).all(|w| w[0].2 >= w[1].2));
        let text = r.to_string();
        assert!(text.contains("Figure 5.1"));
    }

    #[test]
    fn producers_dominate_in_degree() {
        // The paper: 72% of the top-25 weighted in-degree nodes come from
        // producer-leaning sectors (BM/E/SV), 84% of the top-25 out-degree
        // from consumer-leaning ones (H/SV/T). Producer-leaning tickers are
        // ~30% of the universe, so anything well above 0.30 reproduces the
        // in-degree finding. The out-degree side reproduces only weakly on
        // Gaussian-factor synthetic data (γ₂-hyperedge participation counts
        // wash out the consumer signal; the `paper_market` summaries under
        // `replication/` pin the models, and `report --only f51` prints
        // both shares beside the paper's), so it is asserted above
        // chance/2 only. Needs the 15-year horizon: shorter
        // samples drown the γ filter in pair-count noise.
        let s = Scenario::new(
            Scale {
                tickers: 100,
                years: 15,
            },
            11,
        );
        let b = s.build(&Configuration::c1());
        let r = degree_report(&b, s.market.universe());
        assert!(
            r.producer_share_in >= 0.40,
            "producer share {}",
            r.producer_share_in
        );
        assert!(
            r.consumer_share_out >= 0.15,
            "consumer share {}",
            r.consumer_share_out
        );
    }
}
