//! Leading indicators via dominators in association hypergraphs
//! (Chapter 4, Algorithms 5–8).
//!
//! A **dominator** for a vertex set `S` is a set `X` such that every
//! `u ∈ S − X` is the head of some hyperedge whose tail lies entirely inside
//! `X` (Definition 4.1). The paper's hypothesis: a dominator of the
//! association hypergraph is a *leading indicator* — knowing the values of
//! `X` lets us infer (via the association-based classifier) the values of
//! everything else in `S`.
//!
//! Both greedy algorithms run on a (typically ACV-thresholded) hypergraph:
//!
//! - [`dominating_adaptation`] (Algorithm 5) scores individual nodes by
//!   `α(u) = [u ∈ S uncovered] + Σ_v max_{e: u∈T(e), v∈H(e)} w(e)/|T(e)∖Dom|`;
//! - [`set_cover_adaptation`] (Algorithm 6) scores whole tail sets, with
//!   Enhancement 1 (tie-break toward fewer new members, Algorithm 7) and
//!   Enhancement 2 (drop subsumed tail sets, Algorithm 8).
//!
//! ### Stopping rule
//!
//! As printed, both algorithms loop until `CoveredSet = S`, but because any
//! uncovered node can always "cover itself" by joining the dominator, a
//! literal reading degenerates to `X = S` whenever edges run out — yet the
//! paper's Tables 5.3/5.4 report dominators of 13–40 nodes covering 78–99%
//! of 346 series. [`StopRule::NoCrossGain`] (the default used by the
//! experiments) therefore stops once no candidate can contribute anything
//! beyond self-coverage, and reports the fraction covered;
//! [`StopRule::FullCover`] is the literal pseudocode.

use hypermine_hypergraph::fx::FxHashMap;
use hypermine_hypergraph::{one_step_cover, DirectedHypergraph, EdgeId, EdgeRef, NodeId};

/// When to stop growing the dominator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StopRule {
    /// Stop when no candidate covers anything beyond its own members
    /// (matches the paper's "percent covered" reporting).
    #[default]
    NoCrossGain,
    /// Keep adding until `S` is fully covered (the literal pseudocode; the
    /// dominator may absorb every isolated node of `S`).
    FullCover,
}

/// Result of a dominator computation.
#[derive(Debug, Clone, PartialEq)]
pub struct DominatorResult {
    /// The dominator `X`, in pick order (Algorithm 6 flattens each chosen
    /// tail set in node order).
    pub dominator: Vec<NodeId>,
    /// Per-node coverage flags after termination.
    pub covered: Vec<bool>,
    /// Number of `S` members covered.
    pub covered_in_s: usize,
    /// `|S|`.
    pub s_size: usize,
    /// Greedy iterations executed.
    pub iterations: usize,
}

impl DominatorResult {
    /// Fraction of `S` covered (the paper's "Percent Covered" column).
    pub fn percent_covered(&self) -> f64 {
        if self.s_size == 0 {
            1.0
        } else {
            self.covered_in_s as f64 / self.s_size as f64
        }
    }

    /// Dominator size (the paper's "Dominator Size" column).
    pub fn size(&self) -> usize {
        self.dominator.len()
    }
}

/// Checks Definition 4.1: is `x` a dominator for `s` in `g`?
pub fn is_dominator(g: &DirectedHypergraph, s: &[NodeId], x: &[NodeId]) -> bool {
    let covered = one_step_cover(g, x);
    s.iter().all(|&u| covered[u.index()])
}

fn make_flags(n: usize, nodes: &[NodeId]) -> Vec<bool> {
    let mut flags = vec![false; n];
    for &v in nodes {
        flags[v.index()] = true;
    }
    flags
}

/// Recomputes coverage: `Covered ∪ {v ∈ S : ∃e, v ∈ H(e), T(e) ⊆ Dom}`.
/// Returns the number of *new* S members covered.
fn absorb_dominated(
    g: &DirectedHypergraph,
    in_s: &[bool],
    in_dom: &[bool],
    covered: &mut [bool],
) -> usize {
    let mut gained = 0;
    for (_, e) in g.edges() {
        if e.tail().iter().all(|t| in_dom[t.index()]) {
            for &h in e.head() {
                if in_s[h.index()] && !covered[h.index()] {
                    covered[h.index()] = true;
                    gained += 1;
                }
            }
        }
    }
    gained
}

/// Algorithm 5: the graph-dominating-set adaptation.
///
/// Each iteration scores every node `u ∉ Dom` with
/// `α(u) = [u ∈ S ∖ Covered] + Σ_{v ∈ S ∖ Covered} L(u, v)` where
/// `L(u, v) = max_{e : u ∈ T(e) ∧ v ∈ H(e)} w(e) / |T(e) ∖ Dom|`, adds the
/// maximizer (ties toward the smaller node id), and recomputes coverage.
/// Runs in `O(|S| · |V| · |E|)` worst case.
pub fn dominating_adaptation(
    g: &DirectedHypergraph,
    s: &[NodeId],
    stop: StopRule,
) -> DominatorResult {
    let n = g.num_nodes();
    let in_s = make_flags(n, s);
    let s_size = in_s.iter().filter(|&&b| b).count();
    let mut in_dom = vec![false; n];
    let mut covered = vec![false; n];
    let mut covered_in_s = 0usize;
    let mut dominator = Vec::new();
    let mut iterations = 0usize;
    // Scratch for per-head maxima, reset via touch list.
    let mut best_l = vec![0.0f64; n];
    let mut touched: Vec<usize> = Vec::new();

    while covered_in_s < s_size {
        iterations += 1;
        let mut best: Option<(NodeId, f64, f64)> = None; // (node, alpha, self part)
        for u in g.nodes() {
            if in_dom[u.index()] {
                continue;
            }
            let self_part = if in_s[u.index()] && !covered[u.index()] {
                1.0
            } else {
                0.0
            };
            let mut alpha = self_part;
            touched.clear();
            for &eid in g.out_edges(u) {
                let e = g.edge(eid);
                let remaining = e.tail().iter().filter(|t| !in_dom[t.index()]).count();
                if remaining == 0 {
                    continue; // its heads are already absorbed
                }
                let l = e.weight() / remaining as f64;
                for &v in e.head() {
                    if in_s[v.index()] && !covered[v.index()] && l > best_l[v.index()] {
                        if best_l[v.index()] == 0.0 {
                            touched.push(v.index());
                        }
                        best_l[v.index()] = l;
                    }
                }
            }
            for &t in &touched {
                alpha += best_l[t];
                best_l[t] = 0.0;
            }
            let better = match best {
                None => alpha > 0.0,
                Some((_, ba, _)) => alpha > ba + 1e-12,
            };
            if better {
                best = Some((u, alpha, self_part));
            }
        }
        let Some((u0, alpha, self_part)) = best else {
            break; // nothing can make progress
        };
        if stop == StopRule::NoCrossGain && alpha <= self_part + 1e-12 {
            break; // only self-coverage left
        }
        in_dom[u0.index()] = true;
        dominator.push(u0);
        if !covered[u0.index()] {
            covered[u0.index()] = true;
            if in_s[u0.index()] {
                covered_in_s += 1;
            }
        }
        covered_in_s += absorb_dominated(g, &in_s, &in_dom, &mut covered);
    }

    DominatorResult {
        dominator,
        covered,
        covered_in_s,
        s_size,
        iterations,
    }
}

/// Options for [`set_cover_adaptation`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SetCoverOptions {
    /// Stopping rule (see [`StopRule`]).
    pub stop: StopRule,
    /// Enhancement 1 (Algorithm 7): among equal-α candidates prefer the one
    /// contributing the fewest new members to the dominator.
    pub enhancement1: bool,
    /// Enhancement 2 (Algorithm 8): drop tail sets already contained in the
    /// dominator from future iterations.
    pub enhancement2: bool,
}

impl Default for SetCoverOptions {
    fn default() -> Self {
        SetCoverOptions {
            stop: StopRule::NoCrossGain,
            enhancement1: true,
            enhancement2: true,
        }
    }
}

/// Algorithm 6: the set-cover adaptation.
///
/// Candidates are the distinct tail sets `T* = {T(e) : e ∈ E}`. Each
/// iteration scores `α(t*) = |{u ∈ t* ∩ (S ∖ Covered)}| + #edges e with
/// `T(e) ⊆ t*` and an uncovered `S` head (per the pseudocode, every such
/// edge counts once), picks the maximizer, merges it into the dominator and
/// recomputes coverage. Zero-α candidates are discarded permanently
/// (Line 18).
///
/// This is [`set_cover_adaptation_filtered`] keeping every edge; see there
/// for the cost model.
pub fn set_cover_adaptation(
    g: &DirectedHypergraph,
    s: &[NodeId],
    opts: &SetCoverOptions,
) -> DominatorResult {
    set_cover_adaptation_filtered(g, s, opts, |_, _| true)
}

/// [`set_cover_adaptation`] over the edges `keep` accepts: the same
/// [`DominatorResult`] as `set_cover_adaptation(&g.filter_edges(keep), s,
/// opts)`, without building the filtered graph. Section 5.4 runs the
/// adaptation on the strongest edges by ACV (`keep = w(e) ≥ threshold`).
///
/// One pass over the edges interns the kept edges' tail sets — numbered
/// in first-appearance (edge-id) order, through a map keyed by the
/// graph's own node slices, once per run of adjacent edges sharing a
/// tail — and lays the kept `(edge, head)` pairs out as runs of one
/// tail-set id over a flat head array. Each tail set keeps a CSR list of
/// its subsets that are themselves tail sets (itself included; tails of
/// up to 16 nodes). An iteration is then one pass over the head array
/// counting every tail id's uncovered `S` heads, and each live
/// candidate's edge term is the sum of its subsets' counts; coverage is
/// recomputed over the runs whose tail set lies inside the dominator.
/// Nothing is hashed or allocated after set-up. Cost per iteration is
/// `O(|E_kept| + Σ_{t*} 2^{|t*|})`, after one `O(|E|)` set-up pass. On an
/// 80-attribute, 252-day window at k = 5 (~248k edges, the strongest 40%
/// kept: ~107k edges in ~3.2k tail runs) the filtered adaptation takes
/// about 4 ms single-threaded on a 2-vCPU AVX2 host, where copying the
/// kept edges into a new graph and covering that took 8–12 ms.
pub fn set_cover_adaptation_filtered<F>(
    g: &DirectedHypergraph,
    s: &[NodeId],
    opts: &SetCoverOptions,
    mut keep: F,
) -> DominatorResult
where
    F: FnMut(EdgeId, EdgeRef<'_>) -> bool,
{
    let n = g.num_nodes();
    let in_s = make_flags(n, s);
    let s_size = in_s.iter().filter(|&&b| b).count();
    let mut in_dom = vec![false; n];
    let mut covered = vec![false; n];
    let mut covered_in_s = 0usize;
    let mut dominator = Vec::new();
    let mut iterations = 0usize;
    if s_size == 0 {
        // Nothing to cover: no candidate is ever scored.
        return DominatorResult {
            dominator,
            covered,
            covered_in_s,
            s_size,
            iterations,
        };
    }

    // Distinct tail sets of the kept edges, in first-appearance order
    // (determinism), and the kept edges' heads in edge order, as runs of
    // one tail-set id: run `r` owns `heads[run_end[r - 1]..run_end[r]]`.
    // Edges are walked in runs of one tail (a mined graph stores the
    // edges of one tail together, so runs are long), and a run's tail is
    // interned once, when the run ends with a kept edge in it. Every
    // edge's heads are written and kept only by advancing `len`, so the
    // walk does not branch on `keep`.
    let mut ids: FxHashMap<&[NodeId], u32> = FxHashMap::default();
    let mut tailsets: Vec<&[NodeId]> = Vec::new();
    let mut run_tail: Vec<u32> = Vec::new();
    let mut run_end: Vec<usize> = Vec::new();
    let mut heads = vec![NodeId::new(0); g.num_edges()];
    let mut len = 0;
    let mut tail: &[NodeId] = &[];
    let mut run_start = 0;
    for (id, e) in g.edges() {
        if e.tail() != tail {
            if len > run_start {
                run_tail.push(intern(&mut ids, &mut tailsets, tail));
                run_end.push(len);
            }
            tail = e.tail();
            run_start = len;
        }
        let hs = e.head();
        if heads.len() < len + hs.len() {
            heads.resize(len + hs.len(), NodeId::new(0));
        }
        match hs {
            [h] => heads[len] = *h,
            _ => heads[len..len + hs.len()].copy_from_slice(hs),
        }
        len += usize::from(keep(id, e)) * hs.len();
    }
    if len > run_start {
        run_tail.push(intern(&mut ids, &mut tailsets, tail));
        run_end.push(len);
    }
    heads.truncate(len);
    let runs = || {
        let starts = std::iter::once(0).chain(run_end.iter().copied());
        run_tail.iter().zip(starts.zip(run_end.iter().copied()))
    };
    // CSR: the ids of each tail set's subsets that are tail sets, so
    // `T(e) ⊆ t*` is a walk over `subsets[sub_offsets[i]..sub_offsets[i + 1]]`.
    let mut sub_offsets = Vec::with_capacity(tailsets.len() + 1);
    let mut subsets: Vec<u32> = Vec::new();
    sub_offsets.push(0usize);
    let mut sub = [NodeId::new(0); 16];
    for t in &tailsets {
        assert!(t.len() <= 16, "tail sets of up to 16 nodes supported");
        for mask in 1u32..(1 << t.len()) {
            let mut len = 0;
            for (i, &v) in t.iter().enumerate() {
                if mask & (1 << i) != 0 {
                    sub[len] = v;
                    len += 1;
                }
            }
            if let Some(&j) = ids.get(&sub[..len]) {
                subsets.push(j);
            }
        }
        sub_offsets.push(subsets.len());
    }
    let mut alive = vec![true; tailsets.len()];
    // `open[v]`: `v ∈ S ∖ Covered`.
    let mut open = in_s.clone();
    // Uncovered `S` heads of the kept edges with exactly tail set `i`.
    let mut heads_by_tail = vec![0usize; tailsets.len()];
    // Tail sets lying inside the dominator.
    let mut inside = vec![false; tailsets.len()];

    while covered_in_s < s_size {
        iterations += 1;
        heads_by_tail.fill(0);
        for (&t, (lo, hi)) in runs() {
            heads_by_tail[t as usize] += heads[lo..hi].iter().filter(|h| open[h.index()]).count();
        }
        // (index, alpha, new_members)
        let mut best: Option<(usize, usize, usize)> = None;
        let mut any_cross = false;
        for (i, t) in tailsets.iter().enumerate() {
            if !alive[i] {
                continue;
            }
            let self_gain = t.iter().filter(|u| open[u.index()]).count();
            let edge_gain: usize = subsets[sub_offsets[i]..sub_offsets[i + 1]]
                .iter()
                .map(|&j| heads_by_tail[j as usize])
                .sum();
            let alpha = self_gain + edge_gain;
            if alpha == 0 {
                alive[i] = false; // Line 18
                continue;
            }
            if edge_gain > 0 {
                any_cross = true;
            }
            let new_members = t.iter().filter(|u| !in_dom[u.index()]).count();
            let better = match best {
                None => true,
                Some((_, ba, bm)) => {
                    alpha > ba || (alpha == ba && opts.enhancement1 && new_members < bm)
                }
            };
            if better {
                best = Some((i, alpha, new_members));
            }
        }
        let Some((bi, _alpha, _members)) = best else {
            break; // T* exhausted: the rest of S is unreachable
        };
        if opts.stop == StopRule::NoCrossGain && !any_cross {
            break;
        }
        for &u in tailsets[bi] {
            if !in_dom[u.index()] {
                in_dom[u.index()] = true;
                dominator.push(u);
            }
            if !covered[u.index()] {
                covered[u.index()] = true;
                if in_s[u.index()] {
                    open[u.index()] = false;
                    covered_in_s += 1;
                }
            }
        }
        // Coverage: `S` heads of kept edges whose tail lies inside the
        // dominator.
        for (flag, t) in inside.iter_mut().zip(&tailsets) {
            *flag = t.iter().all(|u| in_dom[u.index()]);
        }
        for (&t, (lo, hi)) in runs() {
            if inside[t as usize] {
                for &h in &heads[lo..hi] {
                    if open[h.index()] {
                        open[h.index()] = false;
                        covered[h.index()] = true;
                        covered_in_s += 1;
                    }
                }
            }
        }
        if opts.enhancement2 {
            for (flag, &inside) in alive.iter_mut().zip(&inside) {
                *flag &= !inside;
            }
        }
    }

    DominatorResult {
        dominator,
        covered,
        covered_in_s,
        s_size,
        iterations,
    }
}

/// The id of tail set `t`, numbering it next if it is new.
fn intern<'g>(
    ids: &mut FxHashMap<&'g [NodeId], u32>,
    tailsets: &mut Vec<&'g [NodeId]>,
    t: &'g [NodeId],
) -> u32 {
    *ids.entry(t).or_insert_with(|| {
        tailsets.push(t);
        (tailsets.len() - 1) as u32
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    fn all_nodes(g: &DirectedHypergraph) -> Vec<NodeId> {
        g.nodes().collect()
    }

    /// A hub graph: node 0 predicts 1..=4 individually.
    fn hub() -> DirectedHypergraph {
        let mut g = DirectedHypergraph::new(5);
        for v in 1..5 {
            g.add_edge(&[n(0)], &[n(v)], 0.5).unwrap();
        }
        g
    }

    #[test]
    fn hub_dominated_by_center_alg5() {
        let g = hub();
        let s = all_nodes(&g);
        let r = dominating_adaptation(&g, &s, StopRule::NoCrossGain);
        assert_eq!(r.dominator, vec![n(0)]);
        assert_eq!(r.percent_covered(), 1.0);
        assert!(is_dominator(&g, &s, &r.dominator));
    }

    #[test]
    fn hub_dominated_by_center_alg6() {
        let g = hub();
        let s = all_nodes(&g);
        let r = set_cover_adaptation(&g, &s, &SetCoverOptions::default());
        assert_eq!(r.dominator, vec![n(0)]);
        assert_eq!(r.percent_covered(), 1.0);
        assert!(is_dominator(&g, &s, &r.dominator));
    }

    /// Pair tails: {0,1} -> 2, {0,1} -> 3; plus a lone edge 4 -> 5.
    fn pair_graph() -> DirectedHypergraph {
        let mut g = DirectedHypergraph::new(6);
        g.add_edge(&[n(0), n(1)], &[n(2)], 0.6).unwrap();
        g.add_edge(&[n(0), n(1)], &[n(3)], 0.6).unwrap();
        g.add_edge(&[n(4)], &[n(5)], 0.9).unwrap();
        g
    }

    #[test]
    fn alg5_assembles_multi_node_tails() {
        let g = pair_graph();
        let s = all_nodes(&g);
        let r = dominating_adaptation(&g, &s, StopRule::FullCover);
        assert!(is_dominator(&g, &s, &r.dominator));
        assert!(r.dominator.contains(&n(0)) && r.dominator.contains(&n(1)));
        assert!(r.dominator.contains(&n(4)));
        assert_eq!(r.percent_covered(), 1.0);
    }

    #[test]
    fn alg6_picks_whole_tailsets() {
        let g = pair_graph();
        let s = all_nodes(&g);
        let r = set_cover_adaptation(&g, &s, &SetCoverOptions::default());
        assert!(is_dominator(&g, &s, &r.dominator));
        // {0,1} covers itself + 2 heads = alpha 4, picked first.
        assert_eq!(&r.dominator[..2], &[n(0), n(1)]);
        assert_eq!(r.percent_covered(), 1.0);
    }

    #[test]
    fn no_cross_gain_stops_before_absorbing_isolated_nodes() {
        // Node 3 is isolated: FullCover absorbs it, NoCrossGain reports
        // partial coverage instead.
        let mut g = DirectedHypergraph::new(4);
        g.add_edge(&[n(0)], &[n(1)], 0.9).unwrap();
        g.add_edge(&[n(0)], &[n(2)], 0.9).unwrap();
        let s = all_nodes(&g);

        let partial = dominating_adaptation(&g, &s, StopRule::NoCrossGain);
        assert_eq!(partial.dominator, vec![n(0)]);
        assert_eq!(partial.covered_in_s, 3);
        assert!((partial.percent_covered() - 0.75).abs() < 1e-12);

        let full = dominating_adaptation(&g, &s, StopRule::FullCover);
        assert_eq!(full.percent_covered(), 1.0);
        assert!(full.dominator.contains(&n(3)));

        let partial6 = set_cover_adaptation(&g, &s, &SetCoverOptions::default());
        assert_eq!(partial6.dominator, vec![n(0)]);
        assert!((partial6.percent_covered() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn alg6_full_cover_absorbs_reachable_self_covers() {
        // 4 isolated in S but present in a tail set: {4} -> nothing? No
        // edges from 4; it is in no tail set, so even FullCover cannot
        // absorb it via T*. It stays uncovered and the loop breaks.
        let mut g = DirectedHypergraph::new(5);
        g.add_edge(&[n(0)], &[n(1)], 0.5).unwrap();
        let s = all_nodes(&g);
        let r = set_cover_adaptation(
            &g,
            &s,
            &SetCoverOptions {
                stop: StopRule::FullCover,
                ..SetCoverOptions::default()
            },
        );
        // Covered: 0 (dominator member), 1 (head). 2,3,4 unreachable.
        assert_eq!(r.covered_in_s, 2);
        assert!(r.percent_covered() < 1.0);
    }

    #[test]
    fn enhancement1_prefers_fewer_new_members() {
        // Tail {3} and tail {1,2} both cover exactly one new S head with
        // equal alpha once 1 is already in the dominator... construct:
        // edges: {1,2}->4, {3}->4 — S = {4} only. alpha({1,2}) = 1,
        // alpha({3}) = 1. Enh1 prefers {3} (1 new member vs 2).
        let mut g = DirectedHypergraph::new(5);
        g.add_edge(&[n(1), n(2)], &[n(4)], 0.5).unwrap();
        g.add_edge(&[n(3)], &[n(4)], 0.5).unwrap();
        let s = [n(4)];
        let with = set_cover_adaptation(&g, &s, &SetCoverOptions::default());
        assert_eq!(with.dominator, vec![n(3)]);
        // Without Enh1 the first tail set found wins the tie.
        let without = set_cover_adaptation(
            &g,
            &s,
            &SetCoverOptions {
                enhancement1: false,
                ..SetCoverOptions::default()
            },
        );
        assert_eq!(without.dominator, vec![n(1), n(2)]);
    }

    #[test]
    fn enhancement2_drops_subsumed_tailsets() {
        // After {0,1} joins, tail sets {0} and {1} are subsumed.
        let mut g = DirectedHypergraph::new(6);
        g.add_edge(&[n(0), n(1)], &[n(2)], 0.9).unwrap();
        g.add_edge(&[n(0), n(1)], &[n(3)], 0.9).unwrap();
        g.add_edge(&[n(0)], &[n(4)], 0.2).unwrap();
        g.add_edge(&[n(1)], &[n(5)], 0.2).unwrap();
        let s = all_nodes(&g);
        let r = set_cover_adaptation(&g, &s, &SetCoverOptions::default());
        // Everything covered by the single tail set {0,1} (its sub-tails
        // fire automatically once both nodes are in the dominator).
        assert_eq!(r.dominator, vec![n(0), n(1)]);
        assert_eq!(r.percent_covered(), 1.0);
    }

    #[test]
    fn empty_s_is_trivially_covered() {
        let g = hub();
        let r = dominating_adaptation(&g, &[], StopRule::FullCover);
        assert!(r.dominator.is_empty());
        assert_eq!(r.percent_covered(), 1.0);
        let r = set_cover_adaptation(&g, &[], &SetCoverOptions::default());
        assert!(r.dominator.is_empty());
        assert_eq!(r.percent_covered(), 1.0);
    }

    #[test]
    fn edgeless_graph() {
        let g = DirectedHypergraph::new(3);
        let s = all_nodes(&g);
        let r5 = dominating_adaptation(&g, &s, StopRule::NoCrossGain);
        assert!(r5.dominator.is_empty());
        assert_eq!(r5.covered_in_s, 0);
        // FullCover absorbs every node by self-coverage.
        let r5f = dominating_adaptation(&g, &s, StopRule::FullCover);
        assert_eq!(r5f.dominator.len(), 3);
        assert_eq!(r5f.percent_covered(), 1.0);
        // Alg 6 has no tail sets at all: immediate break.
        let r6 = set_cover_adaptation(&g, &s, &SetCoverOptions::default());
        assert!(r6.dominator.is_empty());
    }

    #[test]
    fn is_dominator_checks_definition() {
        let g = pair_graph();
        assert!(is_dominator(&g, &[n(2), n(3)], &[n(0), n(1)]));
        assert!(!is_dominator(&g, &[n(2), n(3)], &[n(0)])); // half a tail
        assert!(is_dominator(&g, &[n(0)], &[n(0)])); // membership counts
        assert!(is_dominator(&g, &[], &[]));
    }

    #[test]
    fn weights_steer_alg5_choices() {
        // 0 and 1 both cover {2,3}; 1 has heavier edges and must be chosen.
        let mut g = DirectedHypergraph::new(4);
        g.add_edge(&[n(0)], &[n(2)], 0.3).unwrap();
        g.add_edge(&[n(0)], &[n(3)], 0.3).unwrap();
        g.add_edge(&[n(1)], &[n(2)], 0.9).unwrap();
        g.add_edge(&[n(1)], &[n(3)], 0.9).unwrap();
        let s = [n(2), n(3)];
        let r = dominating_adaptation(&g, &s, StopRule::NoCrossGain);
        assert_eq!(r.dominator, vec![n(1)]);
    }
}
