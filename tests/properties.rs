//! Property-based tests (proptest) for the core invariants:
//! counting correctness, Theorem 3.8 monotonicity, γ-filter soundness,
//! similarity symmetry, classifier normalization, discretizer behaviour,
//! approximation-quality bounds versus brute force on small instances,
//! and the publish-time indexes (rule ranking, set cover, in-edge
//! rankings, ACV threshold) against their straightforward originals.

use hypermine::approx::{greedy_set_cover, t_clustering, DistanceMatrix};
use hypermine::core::{
    attr_of, dominating_adaptation, in_similarity_graph, is_dominator, node_of,
    out_similarity_graph, set_cover_adaptation, set_cover_adaptation_filtered, top_rules,
    AssociationClassifier, AssociationModel, CountingEngine, DominatorResult, MinedRule,
    ModelConfig, SetCoverOptions, StopRule,
};
use hypermine::data::discretize::{Discretizer, EquiDepth};
use hypermine::data::{AttrId, Database, Value};
use hypermine::hypergraph::fx::{FxHashMap, FxHashSet};
use hypermine::hypergraph::{DirectedHypergraph, EdgeId, EdgeRef, NodeId};
use hypermine::serve::{ModelSnapshot, SnapshotSpec};
use proptest::prelude::*;

/// Strategy: a small random database (2..=5 attrs, 5..=60 obs, k in 2..=4).
fn small_db() -> impl Strategy<Value = Database> {
    (2usize..=5, 5usize..=60, 2u8..=4).prop_flat_map(|(n_attrs, n_obs, k)| {
        proptest::collection::vec(proptest::collection::vec(1..=k, n_obs), n_attrs).prop_map(
            move |cols| {
                Database::from_columns((0..cols.len()).map(|i| format!("A{i}")).collect(), k, cols)
                    .expect("generated values are in range")
            },
        )
    })
}

/// Strategy for the rule-ranking oracle: a random database with
/// k ∈ {2, 3, 5} whose last column duplicates the first, so edges from
/// one tail into the two copies tie exactly on strength, tail and tail
/// values. The first `window` observations are mined; the rest are slid
/// in one `advance` at a time.
fn rule_db() -> impl Strategy<Value = (Database, usize)> {
    (3usize..=5, 10usize..=40, 0usize..3, 1usize..=3).prop_flat_map(
        |(n_attrs, window, ki, slides)| {
            let k = [2u8, 3, 5][ki];
            proptest::collection::vec(proptest::collection::vec(1..=k, window + slides), n_attrs)
                .prop_map(move |mut cols| {
                    cols.push(cols[0].clone());
                    let names = (0..cols.len()).map(|i| format!("A{i}")).collect();
                    let db = Database::from_columns(names, k, cols)
                        .expect("generated values are in range");
                    (db, window)
                })
        },
    )
}

/// Every mined row of every kept edge, in edge-id then row order, from
/// naively recounted tables: the enumeration half of the original
/// `top_rules`.
fn reference_rows(model: &AssociationModel) -> Vec<MinedRule> {
    let engine = CountingEngine::new(model.database());
    let mut rules = Vec::new();
    for (_, edge) in model.hypergraph().edges() {
        let tail: Vec<AttrId> = edge.tail().iter().map(|&n| attr_of(n)).collect();
        let table = engine.naive_table(&tail, attr_of(edge.head()[0]));
        for row in table.rows() {
            let Some(head_value) = row.best_head else {
                continue;
            };
            rules.push(MinedRule {
                tail: table.tail().to_vec(),
                tail_values: row.tail_values,
                head: table.head(),
                head_value,
                support: row.support,
                confidence: row.confidence,
            });
        }
    }
    rules
}

/// The ranking half of the original `top_rules`: filter by the floors,
/// stable-sort by strength descending then tail and tail values, truncate.
fn reference_top_rules(
    rows: &[MinedRule],
    min_support: f64,
    min_confidence: f64,
    limit: usize,
) -> Vec<MinedRule> {
    let mut rules: Vec<MinedRule> = rows
        .iter()
        .filter(|r| r.support >= min_support && r.confidence >= min_confidence)
        .cloned()
        .collect();
    rules.sort_by(|a, b| {
        b.strength()
            .partial_cmp(&a.strength())
            .expect("finite measures")
            .then_with(|| a.tail.cmp(&b.tail))
            .then_with(|| a.tail_values.cmp(&b.tail_values))
    });
    rules.truncate(limit);
    rules
}

/// A rule with its measures as bits, for exact comparison.
type RuleBits = (Vec<AttrId>, Vec<Value>, AttrId, Value, u64, u64);

fn rule_bits(rules: &[MinedRule]) -> Vec<RuleBits> {
    rules
        .iter()
        .map(|r| {
            (
                r.tail.clone(),
                r.tail_values.clone(),
                r.head,
                r.head_value,
                r.support.to_bits(),
                r.confidence.to_bits(),
            )
        })
        .collect()
}

/// `top_rules` against the reference at every floor pair and limit.
fn check_top_rules(model: &AssociationModel) -> Result<(), TestCaseError> {
    const FLOORS: [f64; 5] = [0.0, 0.3, 0.9, 2.0, f64::NAN];
    const LIMITS: [usize; 5] = [0, 1, 7, 32, usize::MAX];
    let rows = reference_rows(model);
    for min_support in FLOORS {
        for min_confidence in FLOORS {
            for limit in LIMITS {
                let got = top_rules(model, min_support, min_confidence, limit);
                let want = reference_top_rules(&rows, min_support, min_confidence, limit);
                prop_assert!(
                    rule_bits(&got) == rule_bits(&want),
                    "floors ({min_support}, {min_confidence}), limit {limit}, epoch {}: \
                     got {got:?}, want {want:?}",
                    model.epoch()
                );
                prop_assert_eq!(got.capacity(), got.len());
            }
        }
    }
    Ok(())
}

/// Strategy for the set-cover oracle: a general hypergraph over 4..=10
/// nodes built with `add_edge`, a random membership mask for `S`, and a
/// random keep mask over edge ids. Tails of 1–3 nodes are drawn from a
/// pool of at most six, so tail sets repeat across heads; heads have 1–2
/// nodes; weights come from four levels, so they tie. Candidates
/// `add_edge` rejects (a tail/head overlap, a repeated `(T, H)`) are
/// skipped, and nodes no kept edge touches stay isolated.
fn cover_graph() -> impl Strategy<Value = (DirectedHypergraph, Vec<bool>, Vec<bool>)> {
    (4usize..=10).prop_flat_map(|n| {
        (
            proptest::collection::vec(proptest::collection::vec(0..n, 1..=3), 1..=6),
            proptest::collection::vec(
                (0usize..6, proptest::collection::vec(0..n, 1..=2), 1u8..=4),
                0..=24,
            ),
            proptest::collection::vec(0u8..=1, n),
            proptest::collection::vec(0u8..=1, 24),
        )
            .prop_map(move |(pool, edges, mask, keep)| {
                let set = |ids: &[usize]| -> Vec<NodeId> {
                    let mut v: Vec<NodeId> = ids.iter().map(|&i| NodeId::new(i as u32)).collect();
                    v.sort_unstable();
                    v.dedup();
                    v
                };
                let mut g = DirectedHypergraph::new(n);
                for (ti, head, w) in edges {
                    let tail = set(&pool[ti % pool.len()]);
                    let _ = g.add_edge(&tail, &set(&head), f64::from(w) / 4.0);
                }
                let flags = |bits: Vec<u8>| bits.into_iter().map(|b| b == 1).collect();
                (g, flags(mask), flags(keep))
            })
    })
}

/// Every `SetCoverOptions`: both stop rules × Enhancement 1 × Enhancement 2.
fn all_cover_options() -> Vec<SetCoverOptions> {
    let mut opts = Vec::new();
    for stop in [StopRule::NoCrossGain, StopRule::FullCover] {
        for enhancement1 in [false, true] {
            for enhancement2 in [false, true] {
                opts.push(SetCoverOptions {
                    stop,
                    enhancement1,
                    enhancement2,
                });
            }
        }
    }
    opts
}

/// The original Algorithm 6: distinct tail sets held as boxed slices in
/// a hash set, and every candidate's subsets materialized and looked up
/// by hashing in every iteration.
fn reference_set_cover(
    g: &DirectedHypergraph,
    s: &[NodeId],
    opts: &SetCoverOptions,
) -> DominatorResult {
    let n = g.num_nodes();
    let mut in_s = vec![false; n];
    for &v in s {
        in_s[v.index()] = true;
    }
    let s_size = in_s.iter().filter(|&&b| b).count();
    let mut seen: FxHashSet<Box<[NodeId]>> = FxHashSet::default();
    let mut tailsets: Vec<Vec<NodeId>> = Vec::new();
    for (_, e) in g.edges() {
        if seen.insert(e.tail().to_vec().into_boxed_slice()) {
            tailsets.push(e.tail().to_vec());
        }
    }
    let mut alive = vec![true; tailsets.len()];
    let mut edges_by_tail: FxHashMap<Box<[NodeId]>, Vec<EdgeId>> = FxHashMap::default();
    for (id, e) in g.edges() {
        edges_by_tail
            .entry(e.tail().to_vec().into_boxed_slice())
            .or_default()
            .push(id);
    }
    let subsets_of = |t: &[NodeId]| -> Vec<Box<[NodeId]>> {
        assert!(t.len() <= 16, "tail sets of up to 16 nodes supported");
        (1u32..(1 << t.len()))
            .map(|mask| {
                t.iter()
                    .enumerate()
                    .filter(|(i, _)| mask & (1 << i) != 0)
                    .map(|(_, &v)| v)
                    .collect()
            })
            .collect()
    };
    let absorb = |in_dom: &[bool], covered: &mut [bool]| -> usize {
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
    };
    let mut in_dom = vec![false; n];
    let mut covered = vec![false; n];
    let mut covered_in_s = 0usize;
    let mut dominator = Vec::new();
    let mut iterations = 0usize;
    while covered_in_s < s_size {
        iterations += 1;
        let mut best: Option<(usize, usize, usize)> = None;
        let mut any_cross = false;
        for (i, t) in tailsets.iter().enumerate() {
            if !alive[i] {
                continue;
            }
            let self_gain = t
                .iter()
                .filter(|u| in_s[u.index()] && !covered[u.index()])
                .count();
            let mut edge_gain = 0usize;
            for sub in subsets_of(t) {
                if let Some(edges) = edges_by_tail.get(&sub) {
                    for &eid in edges {
                        for &h in g.edge(eid).head() {
                            if in_s[h.index()] && !covered[h.index()] {
                                edge_gain += 1;
                            }
                        }
                    }
                }
            }
            let alpha = self_gain + edge_gain;
            if alpha == 0 {
                alive[i] = false;
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
        let Some((bi, _, _)) = best else {
            break;
        };
        if opts.stop == StopRule::NoCrossGain && !any_cross {
            break;
        }
        for &u in &tailsets[bi] {
            if !in_dom[u.index()] {
                in_dom[u.index()] = true;
                dominator.push(u);
            }
            if !covered[u.index()] {
                covered[u.index()] = true;
                if in_s[u.index()] {
                    covered_in_s += 1;
                }
            }
        }
        covered_in_s += absorb(&in_dom, &mut covered);
        if opts.enhancement2 {
            for (i, t) in tailsets.iter().enumerate() {
                if alive[i] && t.iter().all(|u| in_dom[u.index()]) {
                    alive[i] = false;
                }
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

/// `set_cover_adaptation` against the reference under every option set,
/// and the filtered set cover against `set_cover_adaptation` on a
/// filtered copy for keep masks none, all and `keep` (indexed by edge
/// id).
fn check_set_cover(
    g: &DirectedHypergraph,
    s: &[NodeId],
    keep: &[bool],
) -> Result<(), TestCaseError> {
    let none = vec![false; g.num_edges()];
    let all = vec![true; g.num_edges()];
    for opts in all_cover_options() {
        let got = set_cover_adaptation(g, s, &opts);
        let want = reference_set_cover(g, s, &opts);
        prop_assert!(
            got == want,
            "{opts:?}, S = {s:?}: got {got:?}, want {want:?}"
        );
        for mask in [&none[..], &all[..], keep] {
            let kept = |id: EdgeId, _: EdgeRef<'_>| mask[id.index()];
            let got = set_cover_adaptation_filtered(g, s, &opts, kept);
            let want = set_cover_adaptation(&g.filter_edges(kept), s, &opts);
            prop_assert!(
                got == want,
                "{opts:?}, S = {s:?}, keep {mask:?}: got {got:?}, want {want:?}"
            );
        }
    }
    Ok(())
}

/// The original threshold: a full descending sort of a weight copy.
fn reference_threshold(g: &DirectedHypergraph, fraction: f64) -> Option<f64> {
    if g.num_edges() == 0 || fraction <= 0.0 {
        return None;
    }
    let mut ws: Vec<f64> = g.edges().map(|(_, e)| e.weight()).collect();
    ws.sort_unstable_by(|a, b| b.partial_cmp(a).expect("weights are finite"));
    let keep = ((ws.len() as f64 * fraction).ceil() as usize).clamp(1, ws.len());
    Some(ws[keep - 1])
}

/// `weight_percentile_threshold` against the full sort, by bits.
fn check_threshold(g: &DirectedHypergraph) -> Result<(), TestCaseError> {
    for fraction in [1e-9, 0.4, 1.0, 3.0, f64::NAN, 0.0, -1.0] {
        let got = g.weight_percentile_threshold(fraction).map(f64::to_bits);
        let want = reference_threshold(g, fraction).map(f64::to_bits);
        prop_assert_eq!(got, want);
    }
    Ok(())
}

/// The snapshot's per-head rankings and best edges against the original
/// comparator sort and the model's own best-edge scans.
fn check_rankings(model: &AssociationModel) -> Result<(), TestCaseError> {
    let snap = ModelSnapshot::build(model, &SnapshotSpec::default());
    let g = model.hypergraph();
    for a in model.attrs() {
        let mut want = g.in_edges(node_of(a)).to_vec();
        want.sort_unstable_by(|&x, &y| {
            g.edge(y)
                .weight()
                .partial_cmp(&g.edge(x).weight())
                .expect("ACVs are finite")
                .then(x.cmp(&y))
        });
        prop_assert_eq!(snap.ranked_in_edges(a), &want[..]);
        prop_assert_eq!(snap.best_in_edge(a), model.best_in_edge(a));
        prop_assert_eq!(snap.best_in_hyperedge(a), model.best_in_hyperedge(a));
    }
    Ok(())
}

/// Set cover on the ACV-filtered graph and the threshold itself, for the
/// strongest 40% and all edges (filtered set cover keeping every third
/// edge dropped).
fn check_filtered_cover(model: &AssociationModel) -> Result<(), TestCaseError> {
    let nodes: Vec<NodeId> = model.attrs().map(node_of).collect();
    check_threshold(model.hypergraph())?;
    for fraction in [0.4, 1.0] {
        if let Some(thr) = model.acv_percentile_threshold(fraction) {
            let g = model.filter_by_acv(thr);
            let keep: Vec<bool> = (0..g.hypergraph().num_edges())
                .map(|i| i % 3 != 0)
                .collect();
            check_set_cover(g.hypergraph(), &nodes, &keep)?;
        }
    }
    Ok(())
}

/// A snapshot's dominator and coverage against set cover on the
/// ACV-filtered copy of the graph (every edge without a threshold), for
/// keep fractions that filter, keep everything, keep the strongest edge
/// only (1e-9, NaN), and none.
fn check_snapshot_dominator(model: &AssociationModel) -> Result<(), TestCaseError> {
    let nodes: Vec<NodeId> = model.attrs().map(node_of).collect();
    for fraction in [Some(0.4), Some(1.0), Some(1e-9), Some(f64::NAN), None] {
        let spec = SnapshotSpec {
            acv_keep_fraction: fraction,
            ..SnapshotSpec::default()
        };
        let snap = ModelSnapshot::build(model, &spec);
        let want = match fraction.and_then(|f| model.acv_percentile_threshold(f)) {
            Some(thr) => set_cover_adaptation(
                model.filter_by_acv(thr).hypergraph(),
                &nodes,
                &spec.set_cover,
            ),
            None => set_cover_adaptation(model.hypergraph(), &nodes, &spec.set_cover),
        };
        let mut dominator = want.dominator.clone();
        dominator.sort_unstable();
        prop_assert!(
            snap.dominator() == &dominator[..]
                && snap.coverage().to_bits() == want.percent_covered().to_bits(),
            "keep fraction {fraction:?}: got {:?} covering {}, want {dominator:?} covering {}",
            snap.dominator(),
            snap.coverage(),
            want.percent_covered()
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The bitset counting engine agrees with the naive recount on every
    /// edge and hyperedge table.
    #[test]
    fn bitset_counting_matches_naive(db in small_db()) {
        let engine = CountingEngine::new(&db);
        let attrs: Vec<AttrId> = db.attrs().collect();
        for &a in &attrs {
            for &h in &attrs {
                if a == h { continue; }
                prop_assert_eq!(engine.edge_table(a, h), engine.naive_table(&[a], h));
            }
        }
        if attrs.len() >= 3 {
            let pair = engine.pair_rows(attrs[0], attrs[1]);
            for &h in &attrs[2..] {
                prop_assert_eq!(engine.hyper_table(&pair, h), engine.naive_table(&[attrs[0], attrs[1]], h));
            }
        }
    }

    /// The support-bounded `top_rules` returns exactly the rules, order,
    /// and measure bits of enumerating every row and stable-sorting them,
    /// at every floor (NaN admits nothing) and limit, on fresh models and
    /// after slides. Under γ = 1 every edge is kept, so the duplicated
    /// column's heads produce exact ties that only edge order breaks.
    #[test]
    fn top_rules_match_the_full_sort((db, window) in rule_db(), gamma_one in 0u8..=1) {
        let mut cfg = ModelConfig { threads: 1, ..ModelConfig::default() };
        if gamma_one == 1 {
            (cfg.gamma_edge, cfg.gamma_hyper) = (1.0, 1.0);
        }
        let mut model = AssociationModel::build(&db.slice_obs(0..window), &cfg).unwrap();
        if gamma_one == 1 {
            let all = reference_top_rules(&reference_rows(&model), 0.0, 0.0, usize::MAX);
            prop_assert!(
                all.windows(2).any(|w| w[0].strength() == w[1].strength()
                    && w[0].tail == w[1].tail
                    && w[0].tail_values == w[1].tail_values),
                "the duplicated column yields exact ties"
            );
        }
        check_top_rules(&model)?;
        let mut row = vec![0 as Value; db.num_attrs()];
        for obs in window..db.num_obs() {
            for a in db.attrs() {
                row[a.index()] = db.value(a, obs);
            }
            model.advance(&row).unwrap();
            check_top_rules(&model)?;
        }
    }

    /// The integer-id set cover returns the same `DominatorResult` as
    /// the hash-keyed original on general hypergraphs (repeated tail
    /// sets, 2-node heads, isolated nodes), for `S` = every node, a
    /// random subset, and nothing, under all eight option sets, and set
    /// cover over a random edge subset matches it on a filtered copy;
    /// the selection-based threshold matches the full sort bit for bit
    /// on their tied weights.
    #[test]
    fn set_cover_matches_the_hash_keyed_reference((g, mask, keep) in cover_graph()) {
        let all: Vec<NodeId> = g.nodes().collect();
        let some: Vec<NodeId> = g.nodes().filter(|v| mask[v.index()]).collect();
        check_set_cover(&g, &all, &keep)?;
        check_set_cover(&g, &some, &keep)?;
        check_set_cover(&g, &[], &keep)?;
        check_threshold(&g)?;
        check_threshold(&DirectedHypergraph::new(g.num_nodes()))?;
    }

    /// On mined models — fresh, after 1–3 slides, and after a
    /// `retire_oldest` that shrinks the window (so every ACV level is
    /// re-derived over a new `m`) — set cover over the ACV-filtered graph
    /// matches the original, the threshold matches the full sort, a
    /// snapshot's dominator and coverage match set cover on the filtered
    /// copy, and its in-edge rankings and best edges match the comparator
    /// sort and the model's scans. The duplicated column gives exact ACV
    /// ties (present under γ = 1), which only edge ids break.
    #[test]
    fn publish_indexes_match_the_originals((db, window) in rule_db(), gamma_one in 0u8..=1) {
        let mut cfg = ModelConfig { threads: 1, ..ModelConfig::default() };
        if gamma_one == 1 {
            (cfg.gamma_edge, cfg.gamma_hyper) = (1.0, 1.0);
        }
        let mut model = AssociationModel::build(&db.slice_obs(0..window), &cfg).unwrap();
        if gamma_one == 1 {
            let g = model.hypergraph();
            prop_assert!(
                model.attrs().any(|a| {
                    let ws: Vec<u64> =
                        g.in_edges(node_of(a)).iter().map(|&e| g.edge(e).weight().to_bits()).collect();
                    ws.iter().enumerate().any(|(i, w)| ws[..i].contains(w))
                }),
                "the duplicated column yields exact ACV ties"
            );
        }
        let check = |model: &AssociationModel| -> Result<(), TestCaseError> {
            check_filtered_cover(model)?;
            check_snapshot_dominator(model)?;
            check_rankings(model)
        };
        check(&model)?;
        let mut row = vec![0 as Value; db.num_attrs()];
        for obs in window..db.num_obs() {
            for a in db.attrs() {
                row[a.index()] = db.value(a, obs);
            }
            model.advance(&row).unwrap();
            check(&model)?;
        }
        model.retire_oldest().unwrap();
        check(&model)?;
    }

    /// Theorem 3.8: ACV(∅,h) <= ACV({a},h) <= ACV({a,b},h); all in [0,1].
    #[test]
    fn theorem_3_8_monotonicity(db in small_db()) {
        let engine = CountingEngine::new(&db);
        let attrs: Vec<AttrId> = db.attrs().collect();
        for &h in &attrs {
            let base = engine.baseline_acv(h);
            prop_assert!((0.0..=1.0).contains(&base));
            for &a in &attrs {
                if a == h { continue; }
                let acv1 = engine.edge_acv(a, h);
                prop_assert!((0.0..=1.0).contains(&acv1));
                prop_assert!(acv1 + 1e-12 >= base);
                for &b in &attrs {
                    if b == h || b <= a { continue; }
                    let pair = engine.pair_rows(a, b);
                    let acv2 = engine.hyper_acv(&pair, h);
                    prop_assert!((0.0..=1.0).contains(&acv2));
                    prop_assert!(acv2 + 1e-12 >= acv1.max(engine.edge_acv(b, h)));
                }
            }
        }
    }

    /// Every edge kept by the builder satisfies its γ inequality, and edge
    /// weights equal their tables' ACVs.
    #[test]
    fn gamma_filter_sound(db in small_db()) {
        let cfg = ModelConfig::default();
        let model = AssociationModel::build(&db, &cfg).unwrap();
        let tables = model.tables();
        for (id, e) in model.hypergraph().edges() {
            let t = tables.table(id);
            prop_assert!((t.acv() - e.weight()).abs() < 1e-12);
            match t.tail() {
                [a] => {
                    let _ = a;
                    let head = t.head();
                    prop_assert!(e.weight() + 1e-12 >= cfg.gamma_edge * model.baseline_acv(head));
                }
                [a, b] => {
                    let head = t.head();
                    let floor = model.raw_edge_acv(*a, head).max(model.raw_edge_acv(*b, head));
                    prop_assert!(e.weight() + 1e-12 >= cfg.gamma_hyper * floor);
                }
                _ => prop_assert!(false, "unexpected tail arity"),
            }
        }
    }

    /// In-/out-similarity are symmetric, bounded in [0,1], and reflexive.
    #[test]
    fn similarity_symmetric_bounded(db in small_db()) {
        let model = AssociationModel::build(&db, &ModelConfig::default()).unwrap();
        let g = model.hypergraph();
        let nodes: Vec<NodeId> = model.attrs().map(node_of).collect();
        for &x in &nodes {
            prop_assert_eq!(out_similarity_graph(g, x, x), 1.0);
            prop_assert_eq!(in_similarity_graph(g, x, x), 1.0);
            for &y in &nodes {
                let o1 = out_similarity_graph(g, x, y);
                let o2 = out_similarity_graph(g, y, x);
                prop_assert!((o1 - o2).abs() < 1e-12);
                prop_assert!((0.0..=1.0).contains(&o1));
                let i1 = in_similarity_graph(g, x, y);
                let i2 = in_similarity_graph(g, y, x);
                prop_assert!((i1 - i2).abs() < 1e-12);
                prop_assert!((0.0..=1.0).contains(&i1));
            }
        }
    }

    /// Classifier predictions: scores normalize, confidence in [0,1], and
    /// the predicted value maximizes the accumulator.
    #[test]
    fn classifier_scores_normalized(db in small_db(), obs_idx in 0usize..60) {
        prop_assume!(db.num_attrs() >= 2 && db.num_obs() > 0);
        let model = AssociationModel::build(&db, &ModelConfig::default()).unwrap();
        let attrs: Vec<AttrId> = db.attrs().collect();
        let known = &attrs[..attrs.len() - 1];
        let target = attrs[attrs.len() - 1];
        let clf = AssociationClassifier::new(&model, known);
        let obs = obs_idx % db.num_obs();
        let values: Vec<Value> = known.iter().map(|&a| db.value(a, obs)).collect();
        if let Some(p) = clf.predict(&values, target) {
            prop_assert!((0.0..=1.0 + 1e-12).contains(&p.confidence));
            let total: f64 = p.scores.iter().sum();
            prop_assert!(total > 0.0);
            let max = p.scores.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            prop_assert!((p.scores[(p.value - 1) as usize] - max).abs() < 1e-15);
            prop_assert!((p.confidence - max / total).abs() < 1e-12);
        }
    }

    /// Dominators: FullCover covers everything reachable; results satisfy
    /// Definition 4.1 on the covered subset.
    #[test]
    fn dominators_valid(db in small_db()) {
        let model = AssociationModel::build(&db, &ModelConfig::default()).unwrap();
        let g = model.hypergraph();
        let nodes: Vec<NodeId> = model.attrs().map(node_of).collect();
        let r5 = dominating_adaptation(g, &nodes, StopRule::FullCover);
        // FullCover of Algorithm 5 always covers all of S (self-cover).
        prop_assert_eq!(r5.covered_in_s, nodes.len());
        for opts in [SetCoverOptions::default(), SetCoverOptions { stop: StopRule::FullCover, ..Default::default() }] {
            let r6 = set_cover_adaptation(g, &nodes, &opts);
            let covered: Vec<NodeId> = nodes
                .iter()
                .copied()
                .filter(|n| r6.covered[n.index()])
                .collect();
            prop_assert!(is_dominator(g, &covered, &r6.dominator));
            prop_assert!(r6.covered_in_s <= nodes.len());
        }
    }

    /// Equi-depth discretization: outputs lie in 1..=k and bucket counts
    /// differ by at most ~1/k of the data for continuous (duplicate-free)
    /// inputs.
    #[test]
    fn equi_depth_balanced(mut raw in proptest::collection::vec(-1e6f64..1e6, 30..200), k in 2u8..=5) {
        raw.sort_by(|a, b| a.partial_cmp(b).unwrap());
        raw.dedup();
        prop_assume!(raw.len() >= 2 * k as usize);
        let vals = EquiDepth::new(k).fit_apply(&raw);
        prop_assert!(vals.iter().all(|&v| v >= 1 && v <= k));
        let mut counts = vec![0usize; k as usize];
        for v in &vals {
            counts[(*v - 1) as usize] += 1;
        }
        let ideal = raw.len() as f64 / k as f64;
        for &c in &counts {
            prop_assert!((c as f64 - ideal).abs() <= ideal * 0.5 + 2.0,
                "bucket {c} vs ideal {ideal} (counts {counts:?})");
        }
    }

    /// Greedy set cover returns a valid cover within (ln n + 1) of the
    /// brute-force optimum on small instances.
    #[test]
    fn set_cover_near_optimal(
        sets in proptest::collection::vec(proptest::collection::vec(0usize..8, 1..5), 1..8),
        universe in 1usize..=8,
    ) {
        let r = greedy_set_cover(universe, &sets);
        // Brute force smallest complete cover.
        let mut best: Option<usize> = None;
        for mask in 0u32..(1 << sets.len()) {
            let mut covered = vec![false; universe];
            for (i, s) in sets.iter().enumerate() {
                if mask & (1 << i) != 0 {
                    for &e in s {
                        if e < universe {
                            covered[e] = true;
                        }
                    }
                }
            }
            if covered.iter().all(|&c| c) {
                let size = mask.count_ones() as usize;
                best = Some(best.map_or(size, |b: usize| b.min(size)));
            }
        }
        match best {
            Some(opt) => {
                prop_assert!(r.complete);
                let h: f64 = (1..=universe).map(|i| 1.0 / i as f64).sum();
                prop_assert!(r.chosen.len() as f64 <= h * opt as f64 + 1e-9,
                    "greedy {} vs opt {opt}", r.chosen.len());
            }
            None => prop_assert!(!r.complete),
        }
    }

    /// Gonzalez t-clustering is a 2-approximation of the optimal diameter
    /// on small metric instances (brute-force over all assignments).
    #[test]
    fn gonzalez_two_approximation(
        points in proptest::collection::vec((0.0f64..100.0, 0.0f64..100.0), 2..8),
        t in 1usize..=3,
    ) {
        let pts: Vec<Vec<f64>> = points.iter().map(|&(x, y)| vec![x, y]).collect();
        let d = DistanceMatrix::euclidean(&pts);
        let c = t_clustering(&d, t, None);
        let t = c.centers.len();
        // Brute force optimal diameter over all t-partitions.
        let n = pts.len();
        let mut opt = f64::INFINITY;
        let mut assignment = vec![0usize; n];
        loop {
            let mut diam: f64 = 0.0;
            for i in 0..n {
                for j in (i + 1)..n {
                    if assignment[i] == assignment[j] {
                        diam = diam.max(d.get(i, j));
                    }
                }
            }
            opt = opt.min(diam);
            // Next assignment in base-t.
            let mut carry = true;
            for slot in assignment.iter_mut() {
                if carry {
                    *slot += 1;
                    if *slot == t {
                        *slot = 0;
                    } else {
                        carry = false;
                    }
                }
            }
            if carry {
                break;
            }
        }
        prop_assert!(c.diameter(&d) <= 2.0 * opt + 1e-9,
            "gonzalez {} vs 2*opt {}", c.diameter(&d), 2.0 * opt);
    }
}
