//! Association-hypergraph construction (Section 3.2.1).
//!
//! Both passes — directed edges over every ordered attribute pair, then
//! 2-to-1 hyperedges over every `(unordered pair, head)` combination — run
//! the observation-major sweeps of `crate::counting` (every head of one
//! tail counted in one pass over the tail's rows) through the
//! scoped-thread harness in `crate::parallel`. Pass 1 (uniform per-tail
//! cost, short work list) uses contiguous chunks; pass 2 uses
//! work-stealing fixed-size blocks claimed off an atomic cursor. Either
//! way results are merged in work-list order, so edge ids are
//! deterministic at every thread count. Pass 2 never builds `PairRows`:
//! each worker re-buckets the pair's observations into a thread-local
//! `PairBuckets` scratch and sweeps those buckets directly.

use crate::config::ModelConfig;
use crate::counting::{CountingEngine, HeadCounter};
use crate::model::{node_of, AssociationModel};
use crate::parallel::{parallel_blocks, parallel_chunks, steal_block_size};
use hypermine_data::{AttrId, Database, PairBuckets};
use hypermine_hypergraph::DirectedHypergraph;

pub(crate) fn build(db: &Database, cfg: &ModelConfig) -> AssociationModel {
    let mut engine = CountingEngine::new(db);
    engine.restrict_kernel(cfg.kernel_cap);
    engine.set_simd_policy(cfg.simd);
    let n = db.num_attrs();
    let attrs: Vec<AttrId> = db.attrs().collect();
    let threads = cfg.effective_threads();

    let baseline: Vec<f64> = attrs.iter().map(|&h| engine.baseline_acv(h)).collect();
    let majority: Vec<_> = attrs
        .iter()
        .map(|&a| db.majority_value(a).map(|(v, _)| v))
        .collect();

    // Pass 1: every ordered pair's directed-edge ACV, parallel over tail
    // attributes (k rows per tail). The raw ACV matrix is retained in full —
    // the γ tests for 2-to-1 edges need it.
    let acv_chunks: Vec<Vec<f64>> = parallel_chunks(&attrs, threads, |slice| {
        let mut counter = HeadCounter::new(n, db.k());
        let mut out = Vec::with_capacity(slice.len() * n);
        for &t in slice {
            engine.edge_acv_all_heads(t, &mut counter);
            out.extend(
                attrs
                    .iter()
                    .map(|&h| if h == t { 0.0 } else { counter.acv(h) }),
            );
        }
        out
    });
    let mut raw_edge_acv = Vec::with_capacity(n * n);
    for chunk in acv_chunks {
        raw_edge_acv.extend(chunk);
    }

    // Pass 2: all (unordered pair, head) combinations, parallel over pairs
    // (k² rows per pair). The γ₂-kept candidates are collected first; the
    // graph itself is assembled afterwards through the same `assemble_into`
    // the streaming engine uses, so batch and incremental edge ids cannot
    // diverge.
    let candidates: Vec<Vec<(AttrId, AttrId, AttrId, f64)>> = if cfg.with_hyperedges && n >= 3 {
        let mut pairs: Vec<(AttrId, AttrId)> = Vec::with_capacity(n * (n - 1) / 2);
        for i in 0..n {
            for j in (i + 1)..n {
                pairs.push((attrs[i], attrs[j]));
            }
        }
        // Kept candidates: (a, b, h, acv). Blocks are claimed off an atomic
        // cursor (work stealing), sized by the shared `BLOCKS_PER_THREAD`
        // rule so uneven per-pair costs rebalance across workers; each
        // worker thread keeps one HeadCounter + PairBuckets scratch across
        // all its blocks.
        let block = steal_block_size(pairs.len(), threads);
        let raw = &raw_edge_acv;
        let (engine, attrs) = (&engine, &attrs);
        // Blocks are fixed contiguous pair ranges returned in block order
        // no matter which worker claimed them, so iterating the blocks in
        // order keeps edge ids deterministic regardless of thread count.
        // The per-block candidate vectors are handed to `assemble_into`
        // as-is — flattening millions of kept candidates into one vector
        // first would only copy them again.
        parallel_blocks(&pairs, threads, block, || {
            let mut counter = HeadCounter::new(n, db.k());
            let mut buckets = PairBuckets::new();
            move |slice: &[(AttrId, AttrId)]| {
                let mut out = Vec::new();
                for &(a, b) in slice {
                    engine.bucket_pair(a, b, &mut buckets);
                    engine.hyper_acv_all_heads(&buckets, &mut counter);
                    for &h in attrs {
                        if h == a || h == b {
                            continue;
                        }
                        let acv = counter.acv(h);
                        let floor = raw[a.index() * n + h.index()]
                            .max(raw[b.index() * n + h.index()]);
                        if acv > 0.0 && acv >= cfg.gamma_hyper * floor {
                            out.push((a, b, h, acv));
                        }
                    }
                }
                out
            }
        })
    } else {
        Vec::new()
    };

    let mut graph = DirectedHypergraph::new(n);
    assemble_into(
        &mut graph,
        &attrs,
        &raw_edge_acv,
        &baseline,
        cfg.gamma_edge,
        &candidates,
    );

    AssociationModel {
        graph,
        db: db.clone(),
        k: db.k(),
        baseline,
        majority,
        raw_edge_acv,
        cfg: cfg.clone(),
        epoch: 0,
        incremental: None,
    }
}

/// Whether the directed edge `({t}, {h})` passes the γ₁ test (given the
/// raw pass-1 ACV matrix and the per-head baselines). Shared by batch
/// assembly, streaming reassembly, and the streaming kept-mask scan.
#[inline]
pub(crate) fn edge_kept(
    raw_edge_acv: &[f64],
    baseline: &[f64],
    gamma_edge: f64,
    n: usize,
    t: AttrId,
    h: AttrId,
) -> bool {
    let acv = raw_edge_acv[t.index() * n + h.index()];
    t != h && acv > 0.0 && acv >= gamma_edge * baseline[h.index()]
}

/// Fills an **empty** graph with the kept edges of one model state: the
/// γ₁-kept directed edges in tail-major order, then the already-filtered
/// 2-to-1 hyperedge candidates in `(pair, head)` order — passed as the
/// per-block vectors the parallel pass produced (concatenating the
/// blocks in order is exactly the sequential candidate order). Both the
/// batch builder and the streaming engine's per-slide reassembly go
/// through here, which is what makes their edge ids provably identical:
/// same input order, same insertion order, same ids.
///
/// Capacities are reserved exactly before insertion (the kept set is
/// known up front), and edges are inserted through the hypergraph's
/// unchecked bulk path — tails/heads arrive sorted, distinct, and unique
/// by construction.
pub(crate) fn assemble_into(
    graph: &mut DirectedHypergraph,
    attrs: &[AttrId],
    raw_edge_acv: &[f64],
    baseline: &[f64],
    gamma_edge: f64,
    candidate_blocks: &[Vec<(AttrId, AttrId, AttrId, f64)>],
) {
    let n = attrs.len();
    debug_assert_eq!(graph.num_edges(), 0, "assemble_into needs an empty graph");
    debug_assert_eq!(graph.num_nodes(), n);
    let kept = |t: AttrId, h: AttrId| edge_kept(raw_edge_acv, baseline, gamma_edge, n, t, h);

    // Size everything once: per-node degrees across both passes.
    let mut out_deg = vec![0usize; n];
    let mut in_deg = vec![0usize; n];
    let mut kept1 = 0usize;
    for &t in attrs {
        for &h in attrs {
            if kept(t, h) {
                kept1 += 1;
                out_deg[t.index()] += 1;
                in_deg[h.index()] += 1;
            }
        }
    }
    let kept2: usize = candidate_blocks.iter().map(Vec::len).sum();
    for (a, b, h, _) in candidate_blocks.iter().flatten() {
        out_deg[a.index()] += 1;
        out_deg[b.index()] += 1;
        in_deg[h.index()] += 1;
    }
    graph.reserve_edges(kept1 + kept2);
    for &a in attrs {
        graph.reserve_incidence(node_of(a), out_deg[a.index()], in_deg[a.index()]);
    }

    for &t in attrs {
        for &h in attrs {
            if kept(t, h) {
                let acv = raw_edge_acv[t.index() * n + h.index()];
                graph.add_edge_unchecked(&[node_of(t)], &[node_of(h)], acv);
            }
        }
    }
    for &(a, b, h, acv) in candidate_blocks.iter().flatten() {
        graph.add_edge_unchecked(&[node_of(a), node_of(b)], &[node_of(h)], acv);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::AssociationModel;
    use hypermine_data::Value;

    /// Deterministic multi-attribute fixture with mixed association
    /// strengths.
    fn db(n_attrs: usize, n_obs: usize) -> Database {
        let mut cols = Vec::with_capacity(n_attrs);
        for a in 0..n_attrs {
            cols.push(
                (0..n_obs)
                    .map(|o| {
                        // Attributes 0/1 track each other; the rest cycle at
                        // attribute-specific periods.
                        let v = match a {
                            0 => o % 3,
                            1 => (o + usize::from(o % 17 == 0)) % 3,
                            _ => (o / (a + 1)) % 3,
                        };
                        (v + 1) as Value
                    })
                    .collect(),
            );
        }
        Database::from_columns(
            (0..n_attrs).map(|i| format!("A{i}")).collect(),
            3,
            cols,
        )
        .unwrap()
    }

    fn assert_same_model(m: &AssociationModel, m1: &AssociationModel, what: &str) {
        assert_eq!(
            m.hypergraph().num_edges(),
            m1.hypergraph().num_edges(),
            "{what}"
        );
        for (id, e) in m.hypergraph().edges() {
            let e1 = m1.hypergraph().edge(id);
            assert_eq!(e.tail(), e1.tail(), "{what}");
            assert_eq!(e.head(), e1.head(), "{what}");
            assert_eq!(e.weight().to_bits(), e1.weight().to_bits(), "{what}");
        }
    }

    #[test]
    fn thread_count_does_not_change_the_model() {
        let d = db(8, 240);
        let base = ModelConfig {
            threads: 1,
            ..ModelConfig::default()
        };
        let m1 = AssociationModel::build(&d, &base).unwrap();
        for threads in [2, 3, 7] {
            let cfg = ModelConfig {
                threads,
                ..ModelConfig::default()
            };
            let m = AssociationModel::build(&d, &cfg).unwrap();
            assert_same_model(&m, &m1, &format!("threads = {threads}"));
        }
    }

    #[test]
    fn gamma_filter_is_sound() {
        // Every kept edge must actually satisfy its γ inequality.
        let d = db(6, 300);
        let m = AssociationModel::build(&d, &ModelConfig::default()).unwrap();
        let tables = m.tables();
        for (id, e) in m.hypergraph().edges() {
            let t = tables.table(id);
            let head = t.head();
            match t.tail() {
                [a] => {
                    assert!(
                        e.weight() + 1e-12 >= 1.15 * m.baseline_acv(head),
                        "edge {a:?}->{head:?}"
                    );
                }
                [a, b] => {
                    let floor = m.raw_edge_acv(*a, head).max(m.raw_edge_acv(*b, head));
                    assert!(e.weight() + 1e-12 >= 1.05 * floor);
                }
                other => panic!("unexpected tail {other:?}"),
            }
        }
    }

    #[test]
    fn edge_weights_match_recomputed_table_acvs() {
        let d = db(5, 200);
        let m = AssociationModel::build(&d, &ModelConfig::default()).unwrap();
        let tables = m.tables();
        for (id, e) in m.hypergraph().edges() {
            assert!((tables.table(id).acv() - e.weight()).abs() < 1e-15);
        }
    }

    #[test]
    fn two_attr_database_has_no_hyperedges() {
        let d = db(2, 60);
        let m = AssociationModel::build(&d, &ModelConfig::default()).unwrap();
        assert_eq!(m.stats().num_hyperedges, 0);
    }

    #[test]
    fn empty_database_builds_empty_model() {
        let d = Database::from_columns(
            vec!["x".into(), "y".into(), "z".into()],
            3,
            vec![vec![], vec![], vec![]],
        )
        .unwrap();
        let m = AssociationModel::build(&d, &ModelConfig::default()).unwrap();
        assert_eq!(m.hypergraph().num_edges(), 0);
        assert_eq!(m.baseline_acv(AttrId::new(0)), 0.0);
        assert_eq!(m.majority_value(AttrId::new(0)), None);
    }

    #[test]
    fn constant_attribute_baseline_blocks_edges_into_it() {
        // h constant: baseline ACV = 1, so no edge into h can satisfy
        // γ > 1 (ACV <= 1 always).
        let d = Database::from_columns(
            vec!["x".into(), "h".into()],
            2,
            vec![vec![1, 2, 1, 2, 1, 2], vec![1, 1, 1, 1, 1, 1]],
        )
        .unwrap();
        let m = AssociationModel::build(&d, &ModelConfig::default()).unwrap();
        assert!(m.best_in_edge(AttrId::new(1)).is_none());
        // But the constant attribute predicts x no better than baseline
        // either; its edge is blocked too (ACV = baseline < γ·baseline).
        assert!(m.best_in_edge(AttrId::new(0)).is_none());
    }
}
