//! Figure 5.3: clusters of financial time-series under configuration C1.
//!
//! The paper draws the similarity graph; its quantitative claims are what we
//! reproduce: t = 104 clusters (one per sub-sector), first center from the
//! largest sector (Technology), mean cluster diameter 0.83 versus overall
//! mean distance 0.89, and a largest cluster (size 29) drawn entirely from
//! sector T. We additionally verify the metric properties the 2-approximation
//! requires (the paper: "we experimentally verified that the weight function
//! … satisfies the triangle inequality").

use crate::paper;
use crate::scenario::BuiltConfig;
use hypermine_core::{cluster_attributes, node_of, AttributeClustering};
use hypermine_data::AttrId;
use hypermine_market::{Sector, Universe};
use std::fmt;

/// The measured Figure 5.3 statistics.
#[derive(Debug, Clone)]
pub struct ClusterReport {
    pub config: &'static str,
    /// Number of clusters requested (the universe's sub-sector count).
    pub t: usize,
    pub mean_cluster_diameter: f64,
    pub mean_distance: f64,
    /// `(size, majority sector, purity)` of the largest cluster.
    pub largest_cluster: (usize, Sector, f64),
    /// Cluster sizes, descending.
    pub sizes: Vec<usize>,
    /// Number of clusters of size > 6 (the paper only displays those).
    pub displayed_clusters: usize,
    /// Whether the similarity distance satisfied the metric properties.
    pub metric_ok: bool,
    /// Mean sector purity over clusters of size > 1.
    pub mean_purity: f64,
}

fn majority_sector(universe: &Universe, members: &[AttrId]) -> (Sector, f64) {
    let mut counts = [0usize; 12];
    for &a in members {
        counts[universe.ticker(a.index()).sector.index()] += 1;
    }
    let (best, &count) = counts
        .iter()
        .enumerate()
        .max_by_key(|&(_, c)| *c)
        .expect("twelve sectors");
    (
        Sector::ALL[best],
        count as f64 / members.len().max(1) as f64,
    )
}

/// Clusters every attribute of the built model and assembles the report.
/// `t` defaults to the universe's sub-sector count; the first center comes
/// from the largest sector.
pub fn cluster_report(built: &BuiltConfig, universe: &Universe) -> ClusterReport {
    let attrs: Vec<AttrId> = built.model.attrs().collect();
    // The paper sets t to the number of sub-sectors (104 at full scale);
    // reduced universes use their populated sub-sector count.
    let t = universe.used_subsectors().min(attrs.len());
    let largest = universe.largest_sector();
    let first = attrs
        .iter()
        .copied()
        .find(|a| universe.ticker(a.index()).sector == largest);
    let clustering: AttributeClustering = cluster_attributes(&built.model, &attrs, t, first);

    let mut sizes = clustering.clustering.sizes();
    let mut purities = Vec::new();
    let mut largest_cluster = (0usize, Sector::Technology, 0.0f64);
    for c in 0..clustering.clustering.centers.len() {
        let members = clustering.cluster_members(c);
        if members.len() > 1 {
            let (sector, purity) = majority_sector(universe, &members);
            purities.push(purity);
            if members.len() > largest_cluster.0 {
                largest_cluster = (members.len(), sector, purity);
            }
        }
    }
    sizes.sort_unstable_by(|a, b| b.cmp(a));
    let metric_ok = clustering.distances.check_metric(1e-9).is_ok();

    ClusterReport {
        config: built.config.name,
        t,
        mean_cluster_diameter: clustering.mean_cluster_diameter(),
        mean_distance: clustering.mean_distance(),
        largest_cluster,
        displayed_clusters: sizes.iter().filter(|&&s| s > 6).count(),
        sizes,
        metric_ok,
        mean_purity: if purities.is_empty() {
            1.0
        } else {
            purities.iter().sum::<f64>() / purities.len() as f64
        },
    }
}

/// Checks that the model's nodes correspond to universe tickers (sanity
/// helper for callers mixing universes).
pub fn consistent_with_universe(built: &BuiltConfig, universe: &Universe) -> bool {
    built.model.num_attrs() == universe.len()
        && built
            .model
            .attrs()
            .all(|a| universe.ticker(node_of(a).index()).symbol == built.model.attr_name(a))
}

impl fmt::Display for ClusterReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Figure 5.3 ({}): t-clustering with t = {} (first center from largest sector)",
            self.config, self.t
        )?;
        writeln!(
            f,
            "  mean cluster diameter {:.2} vs mean distance {:.2}   (paper: {:.2} vs {:.2})",
            self.mean_cluster_diameter,
            self.mean_distance,
            paper::CLUSTER_STATS.mean_cluster_diameter,
            paper::CLUSTER_STATS.mean_distance
        )?;
        writeln!(
            f,
            "  largest cluster: {} members, majority sector {} (purity {:.0}%)   (paper: {} members, pure T)",
            self.largest_cluster.0,
            self.largest_cluster.1,
            self.largest_cluster.2 * 100.0,
            paper::CLUSTER_STATS.largest_cluster_size
        )?;
        writeln!(
            f,
            "  clusters of size > 6: {}; mean sector purity {:.0}%; metric properties: {}",
            self.displayed_clusters,
            self.mean_purity * 100.0,
            if self.metric_ok {
                "verified"
            } else {
                "VIOLATED"
            }
        )?;
        write!(f, "  sizes: ")?;
        for s in self.sizes.iter().take(15) {
            write!(f, "{s} ")?;
        }
        writeln!(f, "…")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{Configuration, Scale, Scenario};

    #[test]
    fn report_shape() {
        let s = Scenario::new(
            Scale {
                tickers: 60,
                years: 3,
            },
            17,
        );
        let b = s.build(&Configuration::c1());
        assert!(consistent_with_universe(&b, s.market.universe()));
        let r = cluster_report(&b, s.market.universe());
        assert_eq!(r.sizes.iter().sum::<usize>(), 60);
        assert!(r.mean_cluster_diameter <= 1.0);
        assert!(r.mean_distance <= 1.0);
        assert!((0.0..=1.0).contains(&r.mean_purity));
        let _ = r.to_string();
    }

    #[test]
    fn clusters_tighter_than_graph_and_sector_pure() {
        let s = Scenario::new(
            Scale {
                tickers: 100,
                years: 4,
            },
            17,
        );
        let b = s.build(&Configuration::c1());
        let r = cluster_report(&b, s.market.universe());
        // The paper's headline shape: clusters are tighter than the graph
        // at large, and the largest cluster is sector-dominated.
        assert!(
            r.mean_cluster_diameter < r.mean_distance,
            "diameter {:.3} vs distance {:.3}",
            r.mean_cluster_diameter,
            r.mean_distance
        );
        assert!(
            r.largest_cluster.2 >= 0.5,
            "largest cluster purity {:.2}",
            r.largest_cluster.2
        );
    }
}
