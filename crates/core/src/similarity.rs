//! Association-based similarity (Section 3.3, Definition 3.11).
//!
//! Two attributes are **out-similar** when replacing one by the other in the
//! tail sets of its outgoing hyperedges tends to land on hyperedges that also
//! exist (they predict through the same company); **in-similar** likewise for
//! head sets (they are predicted by the same company). Both are weighted by
//! ACVs: matched pairs contribute `min(ACV(e), ACV(f))` to the numerator and
//! `max(ACV(e), ACV(f))` to the denominator, unmatched edges contribute their
//! own ACV to the denominator only.
//!
//! Matching is the symmetrized ⊗ relation: `(e, f)` is matched iff
//! `e = f|T:A₂→A₁` **or** `f = e|T:A₁→A₂` (respectively for heads). The
//! unmatched sets are the edges participating in no matched pair. This
//! coincides with Notation 3.10 in every case except tails containing *both*
//! attributes, where the paper's one-sided substitution is asymmetric (and
//! its ⊕ clauses mutually inconsistent); the symmetrized reading keeps
//! `⊕ ⊇ ⊗`, similarity within `[0, 1]`, and — as a similarity measure
//! should be — symmetric in its arguments.

use crate::model::{node_of, AssociationModel};
use hypermine_data::AttrId;
use hypermine_hypergraph::fx::FxHashSet;
use hypermine_hypergraph::{DirectedHypergraph, NodeId};

/// Replaces `from` by `to` in a sorted node set (set semantics: `from` is
/// dropped, `to` inserted if absent). Returns a sorted vector.
fn substitute(set: &[NodeId], from: NodeId, to: NodeId) -> Vec<NodeId> {
    let mut out: Vec<NodeId> = set.iter().copied().filter(|&v| v != from).collect();
    if !out.contains(&to) {
        out.push(to);
        out.sort_unstable();
    }
    out
}

/// Generic engine for both directions. `star` extracts the relevant edge
/// list (out- or in-edges); `replaced` and `kept` extract the substituted
/// and unchanged sides of an edge.
fn similarity_by<'g>(
    g: &'g DirectedHypergraph,
    n1: NodeId,
    n2: NodeId,
    star: impl Fn(NodeId) -> &'g [hypermine_hypergraph::EdgeId],
    sides: impl Fn(hypermine_hypergraph::EdgeRef<'g>) -> (&'g [NodeId], &'g [NodeId]),
    lookup: impl Fn(&DirectedHypergraph, &[NodeId], &[NodeId]) -> Option<hypermine_hypergraph::EdgeId>,
) -> f64 {
    if n1 == n2 {
        return 1.0;
    }
    type Eid = hypermine_hypergraph::EdgeId;
    let mut pairs: FxHashSet<(Eid, Eid)> = FxHashSet::default();
    let mut matched_left: FxHashSet<Eid> = FxHashSet::default();
    let mut matched_right: FxHashSet<Eid> = FxHashSet::default();

    // Direction 1: f ∈ star(A2), preimage e = f|A2→A1.
    for &f in star(n2) {
        let fe = g.edge(f);
        let (replaced_side, kept_side) = sides(fe);
        let preimage = substitute(replaced_side, n2, n1);
        if let Some(e) = lookup(g, &preimage, kept_side) {
            pairs.insert((e, f));
            matched_left.insert(e);
            matched_right.insert(f);
        }
    }
    // Direction 2: e ∈ star(A1), image f = e|A1→A2.
    for &e in star(n1) {
        let ee = g.edge(e);
        let (replaced_side, kept_side) = sides(ee);
        let image = substitute(replaced_side, n1, n2);
        if let Some(f) = lookup(g, &image, kept_side) {
            pairs.insert((e, f));
            matched_left.insert(e);
            matched_right.insert(f);
        }
    }

    let mut num = 0.0;
    let mut den = 0.0;
    for &(e, f) in &pairs {
        let (we, wf) = (g.edge(e).weight(), g.edge(f).weight());
        num += we.min(wf);
        den += we.max(wf);
    }
    for &e in star(n1) {
        if !matched_left.contains(&e) {
            den += g.edge(e).weight();
        }
    }
    for &f in star(n2) {
        if !matched_right.contains(&f) {
            den += g.edge(f).weight();
        }
    }
    if den == 0.0 {
        // Both stars empty: no evidence either way; the conservative choice.
        0.0
    } else {
        num / den
    }
}

/// `out-sim_H(A₁, A₂)` over a raw hypergraph (Definition 3.11(1)).
pub fn out_similarity_graph(g: &DirectedHypergraph, n1: NodeId, n2: NodeId) -> f64 {
    similarity_by(
        g,
        n1,
        n2,
        |n| g.out_edges(n),
        |e| (e.tail(), e.head()),
        |g, tail, head| g.find_edge(tail, head),
    )
}

/// `in-sim_H(A₁, A₂)` over a raw hypergraph (Definition 3.11(2)).
pub fn in_similarity_graph(g: &DirectedHypergraph, n1: NodeId, n2: NodeId) -> f64 {
    similarity_by(
        g,
        n1,
        n2,
        |n| g.in_edges(n),
        |e| (e.head(), e.tail()),
        |g, head, tail| g.find_edge(tail, head),
    )
}

impl AssociationModel {
    /// `out-sim(A₁, A₂)`: weighted agreement of outgoing association
    /// structure.
    pub fn out_similarity(&self, a1: AttrId, a2: AttrId) -> f64 {
        out_similarity_graph(&self.graph, node_of(a1), node_of(a2))
    }

    /// `in-sim(A₁, A₂)`: weighted agreement of incoming association
    /// structure.
    pub fn in_similarity(&self, a1: AttrId, a2: AttrId) -> f64 {
        in_similarity_graph(&self.graph, node_of(a1), node_of(a2))
    }

    /// The similarity-graph edge weight of Definition 3.13:
    /// `d(A₁, A₂) = 1 − (in-sim + out-sim) / 2`.
    pub fn similarity_distance(&self, a1: AttrId, a2: AttrId) -> f64 {
        1.0 - (self.in_similarity(a1, a2) + self.out_similarity(a1, a2)) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    /// The hypergraph of the paper's Example 3.12:
    /// a = ({A1,A3},{A6}) 0.4, b = ({A1,A4},{A6}) 0.5,
    /// c = ({A2,A3},{A6}) 0.6, d = ({A2,A4,A5},{A6}) 0.7,
    /// e = ({A4,A5},{A6}) 0.8. (Attributes A1..A6 are nodes 0..5.)
    fn example_3_12() -> DirectedHypergraph {
        let mut g = DirectedHypergraph::new(6);
        g.add_edge(&[n(0), n(2)], &[n(5)], 0.4).unwrap();
        g.add_edge(&[n(0), n(3)], &[n(5)], 0.5).unwrap();
        g.add_edge(&[n(1), n(2)], &[n(5)], 0.6).unwrap();
        g.add_edge(&[n(1), n(3), n(4)], &[n(5)], 0.7).unwrap();
        g.add_edge(&[n(3), n(4)], &[n(5)], 0.8).unwrap();
        g
    }

    #[test]
    fn paper_example_3_12_out_similarity() {
        let g = example_3_12();
        // out-sim(A1, A2) = 0.4 / (0.6 + 0.5 + 0.7) = 0.2222…
        let s = out_similarity_graph(&g, n(0), n(1));
        assert!((s - 0.4 / 1.8).abs() < 1e-12, "got {s}");
    }

    #[test]
    fn out_similarity_is_symmetric() {
        let g = example_3_12();
        for i in 0..6u32 {
            for j in 0..6u32 {
                let sij = out_similarity_graph(&g, n(i), n(j));
                let sji = out_similarity_graph(&g, n(j), n(i));
                assert!((sij - sji).abs() < 1e-12, "out-sim({i},{j}) {sij} vs {sji}");
                let iij = in_similarity_graph(&g, n(i), n(j));
                let iji = in_similarity_graph(&g, n(j), n(i));
                assert!((iij - iji).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn self_similarity_is_one() {
        let g = example_3_12();
        for i in 0..6u32 {
            assert_eq!(out_similarity_graph(&g, n(i), n(i)), 1.0);
            assert_eq!(in_similarity_graph(&g, n(i), n(i)), 1.0);
        }
    }

    #[test]
    fn perfectly_parallel_structure_scores_one() {
        // 0 and 1 point at 2 with equal ACVs: swapping tails maps each edge
        // onto the other.
        let mut g = DirectedHypergraph::new(3);
        g.add_edge(&[n(0)], &[n(2)], 0.5).unwrap();
        g.add_edge(&[n(1)], &[n(2)], 0.5).unwrap();
        assert_eq!(out_similarity_graph(&g, n(0), n(1)), 1.0);
    }

    #[test]
    fn differing_acvs_reduce_similarity() {
        let mut g = DirectedHypergraph::new(3);
        g.add_edge(&[n(0)], &[n(2)], 0.2).unwrap();
        g.add_edge(&[n(1)], &[n(2)], 0.8).unwrap();
        assert!((out_similarity_graph(&g, n(0), n(1)) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn in_similarity_matches_head_substitution() {
        // 2 -> 0 and 2 -> 1: nodes 0, 1 share an incoming structure.
        let mut g = DirectedHypergraph::new(3);
        g.add_edge(&[n(2)], &[n(0)], 0.6).unwrap();
        g.add_edge(&[n(2)], &[n(1)], 0.3).unwrap();
        assert!((in_similarity_graph(&g, n(0), n(1)) - 0.5).abs() < 1e-12);
        // Out-similarity of 0 and 1 is 0 (no outgoing edges at all).
        assert_eq!(out_similarity_graph(&g, n(0), n(1)), 0.0);
    }

    #[test]
    fn isolated_pair_scores_zero() {
        let g = DirectedHypergraph::new(4);
        assert_eq!(out_similarity_graph(&g, n(0), n(1)), 0.0);
        assert_eq!(in_similarity_graph(&g, n(0), n(1)), 0.0);
    }

    #[test]
    fn similarity_stays_in_unit_interval() {
        let g = example_3_12();
        for i in 0..6u32 {
            for j in 0..6u32 {
                for s in [
                    out_similarity_graph(&g, n(i), n(j)),
                    in_similarity_graph(&g, n(i), n(j)),
                ] {
                    assert!((0.0..=1.0).contains(&s), "sim({i},{j}) = {s}");
                }
            }
        }
    }

    #[test]
    fn head_substitution_blocked_by_tail_membership() {
        // f = ({0}, {1}): preimage under head 1→0 would be ({0}, {0}),
        // invalid, so it can never match — f counts as unmatched.
        let mut g = DirectedHypergraph::new(3);
        g.add_edge(&[n(0)], &[n(1)], 0.9).unwrap();
        assert_eq!(in_similarity_graph(&g, n(0), n(1)), 0.0);
    }
}
