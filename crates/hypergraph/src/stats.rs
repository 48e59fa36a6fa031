//! Degree statistics and small histogram utilities used to reproduce the
//! paper's Figure 5.1 (weighted in-/out-degree distributions).

use crate::edge::NodeId;
use crate::graph::DirectedHypergraph;

/// Per-node weighted degree vectors for a hypergraph.
#[derive(Debug, Clone, PartialEq)]
pub struct DegreeStats {
    /// `weighted_in[v]` = Σ over edges with `v` in the head of `w/|H|`.
    pub weighted_in: Vec<f64>,
    /// `weighted_out[v]` = Σ over edges with `v` in the tail of `w/|T|`.
    pub weighted_out: Vec<f64>,
}

impl DegreeStats {
    /// Computes both degree vectors in one pass over the edges.
    pub fn compute(g: &DirectedHypergraph) -> Self {
        let mut weighted_in = vec![0.0; g.num_nodes()];
        let mut weighted_out = vec![0.0; g.num_nodes()];
        for (_, e) in g.edges() {
            let wi = e.weight() / e.head_len() as f64;
            for &h in e.head() {
                weighted_in[h.index()] += wi;
            }
            let wo = e.weight() / e.tail_len() as f64;
            for &t in e.tail() {
                weighted_out[t.index()] += wo;
            }
        }
        DegreeStats {
            weighted_in,
            weighted_out,
        }
    }

    /// Nodes sorted by weighted in-degree, highest first.
    pub fn top_by_in_degree(&self, count: usize) -> Vec<(NodeId, f64)> {
        top_k(&self.weighted_in, count)
    }

    /// Nodes sorted by weighted out-degree, highest first.
    pub fn top_by_out_degree(&self, count: usize) -> Vec<(NodeId, f64)> {
        top_k(&self.weighted_out, count)
    }
}

fn top_k(values: &[f64], count: usize) -> Vec<(NodeId, f64)> {
    let mut pairs: Vec<(NodeId, f64)> = values
        .iter()
        .enumerate()
        .map(|(i, &v)| (NodeId::new(i as u32), v))
        .collect();
    pairs.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("degrees are finite"));
    pairs.truncate(count);
    pairs
}

/// A fixed-width histogram over `[min, max]`.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    /// Inclusive lower bound of the first bin.
    pub min: f64,
    /// Inclusive upper bound of the last bin.
    pub max: f64,
    /// Bin counts.
    pub counts: Vec<usize>,
}

impl Histogram {
    /// Builds a histogram with `bins` equal-width bins spanning the data
    /// range. Non-finite values are ignored (a single `inf` would make
    /// every width infinite and a `NaN` bin index silently lands in the
    /// first bin — the same filtering rule as `EquiDepth::fit`). Returns
    /// `None` for `bins == 0` or when no finite value remains.
    pub fn from_values(values: &[f64], bins: usize) -> Option<Self> {
        if bins == 0 {
            return None;
        }
        let finite = values.iter().copied().filter(|v| v.is_finite());
        let min = finite.clone().fold(f64::INFINITY, f64::min);
        let max = finite.clone().fold(f64::NEG_INFINITY, f64::max);
        if min > max {
            // No finite values survived the filter.
            return None;
        }
        let mut counts = vec![0usize; bins];
        let width = (max - min) / bins as f64;
        for v in finite {
            let idx = if width == 0.0 {
                0
            } else {
                (((v - min) / width) as usize).min(bins - 1)
            };
            counts[idx] += 1;
        }
        Some(Histogram { min, max, counts })
    }

    /// The `(lo, hi)` range of bin `i`.
    pub fn bin_range(&self, i: usize) -> (f64, f64) {
        let width = (self.max - self.min) / self.counts.len() as f64;
        (
            self.min + i as f64 * width,
            self.min + (i + 1) as f64 * width,
        )
    }

    /// Total number of samples.
    pub fn total(&self) -> usize {
        self.counts.iter().sum()
    }
}

/// Summary statistics over a slice of values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub count: usize,
    pub mean: f64,
    pub std_dev: f64,
    pub min: f64,
    pub max: f64,
}

impl Summary {
    /// Computes count/mean/std/min/max. Returns `None` for empty input.
    pub fn of(values: &[f64]) -> Option<Self> {
        if values.is_empty() {
            return None;
        }
        let count = values.len();
        let mean = values.iter().sum::<f64>() / count as f64;
        let var = values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / count as f64;
        Some(Summary {
            count,
            mean,
            std_dev: var.sqrt(),
            min: values.iter().copied().fold(f64::INFINITY, f64::min),
            max: values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn degree_stats_match_graph_methods() {
        let mut g = DirectedHypergraph::new(4);
        g.add_edge(&[n(0), n(1)], &[n(2)], 0.8).unwrap();
        g.add_edge(&[n(0)], &[n(3)], 0.5).unwrap();
        g.add_edge(&[n(3)], &[n(0)], 0.1).unwrap();
        let s = DegreeStats::compute(&g);
        for v in g.nodes() {
            assert!((s.weighted_in[v.index()] - g.weighted_in_degree(v)).abs() < 1e-12);
            assert!((s.weighted_out[v.index()] - g.weighted_out_degree(v)).abs() < 1e-12);
        }
    }

    #[test]
    fn top_k_ordering() {
        let mut g = DirectedHypergraph::new(3);
        g.add_edge(&[n(0)], &[n(1)], 0.9).unwrap();
        g.add_edge(&[n(0)], &[n(2)], 0.3).unwrap();
        g.add_edge(&[n(1)], &[n(2)], 0.3).unwrap();
        let s = DegreeStats::compute(&g);
        let top = s.top_by_in_degree(2);
        assert_eq!(top[0].0, n(1)); // in-degree 0.9 beats 0.6
        assert_eq!(top[1].0, n(2));
        let top_out = s.top_by_out_degree(1);
        assert_eq!(top_out[0].0, n(0)); // out 1.2
    }

    #[test]
    fn histogram_bins() {
        let values = [0.0, 0.1, 0.5, 0.9, 1.0];
        let h = Histogram::from_values(&values, 2).unwrap();
        assert_eq!(h.counts, vec![2, 3]); // [0,0.5): {0,0.1}; [0.5,1]: rest
        assert_eq!(h.total(), 5);
        let (lo, hi) = h.bin_range(1);
        assert!((lo - 0.5).abs() < 1e-12 && (hi - 1.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_degenerate_cases() {
        assert!(Histogram::from_values(&[], 3).is_none());
        assert!(Histogram::from_values(&[1.0], 0).is_none());
        // All-equal values land in bin 0.
        let h = Histogram::from_values(&[2.0, 2.0, 2.0], 4).unwrap();
        assert_eq!(h.counts, vec![3, 0, 0, 0]);
    }

    #[test]
    fn histogram_ignores_non_finite_values() {
        // inf used to poison max (width inf: everything in bin 0) and NaN
        // indices silently cast to bin 0 — both are filtered now.
        let values = [0.0, f64::NAN, 0.6, f64::INFINITY, 1.0, f64::NEG_INFINITY];
        let h = Histogram::from_values(&values, 2).unwrap();
        assert_eq!(h.min, 0.0);
        assert_eq!(h.max, 1.0);
        assert_eq!(h.counts, vec![1, 2]); // [0, 0.5): {0.0}; [0.5, 1]: {0.6, 1.0}
        assert_eq!(h.total(), 3);
        // Purely non-finite input has no histogram.
        assert!(Histogram::from_values(&[f64::NAN], 3).is_none());
        assert!(Histogram::from_values(&[f64::INFINITY, f64::NEG_INFINITY], 3).is_none());
    }

    #[test]
    fn summary_statistics() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(s.count, 4);
        assert!((s.mean - 2.5).abs() < 1e-12);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 4.0);
        assert!((s.std_dev - (1.25f64).sqrt()).abs() < 1e-12);
        assert!(Summary::of(&[]).is_none());
    }
}
