//! The `ablations` section: the paper's design choices timed against
//! their alternatives on one window, the registry's `perf_construction`
//! fixture at k = 3 (its C1 gammas, one worker thread):
//!
//! - `tables`: every kept 2-to-1 hyperedge's association table through
//!   the per-head bitset path (`ModelTables::tables_for_edges`:
//!   `pair_rows` once per tail pair, then `hyper_table` per head) and
//!   through the naive per-observation recount
//!   (`CountingEngine::naive_table`), which must agree table for table;
//! - `set_cover`: Algorithm 6 on the graph filtered to its strongest 40%
//!   of edges by ACV (Section 5.4), with Enhancements 1 and 2
//!   (Algorithms 7–8) both off, each on alone, and both on, next to each
//!   result's dominator size, coverage and iterations;
//! - `hyperedges`: the build without 2-to-1 hyperedges (a plain directed
//!   graph) next to the full build (Definition 3.7), with both edge
//!   counts.
//!
//! Every entry reports a best-of-`RUNS` time as `"ablation_ms"` and its
//! `"ratio"` to the first variant of its ablation, measured in the same
//! run. No entry carries `"millis"`, so none enters the calibrated
//! timing gate: like the publish and durability entries, they are
//! informational.

use super::{best_ms, config, fixture, Summary, RUNS};
use crate::json::{Entries, Obj};
use hypermine_core::{
    attr_of, node_of, set_cover_adaptation, AssociationModel, ModelConfig, SetCoverOptions,
};
use hypermine_experiments::registry::RunScale;
use hypermine_market::discretize_market;

/// The ablated window's domain size: the registry's `k3` run.
const K: u8 = 3;

/// The share of edges, strongest by ACV, that set cover runs on.
const TOP_FRACTION: f64 = 0.4;

/// One entry: `ms` and its ratio to the same ablation's first variant
/// (`base_ms`); the caller adds the variant's own members.
pub(crate) fn entry(ablation: &str, variant: &str, ms: f64, base_ms: f64) -> Obj {
    Obj::default()
        .val("k", K)
        .str("ablation", ablation)
        .str("variant", variant)
        .ms("ablation_ms", ms)
        .ratio("ratio", ms / base_ms)
}

/// Runs the three ablations and writes the section's JSON member.
pub(crate) fn run(scale: RunScale, out: &mut Summary) {
    let (spec, dims, market) = fixture("perf_construction", scale);
    let run = spec.runs.iter().find(|run| run.k == K);
    let disc = discretize_market(&market, K, None);
    let cfg = config(run.expect("a k = 3 run"), dims.tickers, 1);
    let directed_cfg = ModelConfig {
        with_hyperedges: false,
        ..cfg.clone()
    };
    let build = |cfg| AssociationModel::build(&disc.database, cfg).expect("valid gammas");
    let (full_ms, model) = best_ms(RUNS, || build(&cfg));
    let (directed_ms, directed) = best_ms(RUNS, || build(&directed_cfg));
    let graph = model.hypergraph();
    let mut entries = Entries::new("ablations");

    let hyperedges: Vec<_> = graph
        .edges()
        .filter(|(_, e)| e.tail().len() == 2)
        .map(|(id, _)| id)
        .collect();
    let tables = model.tables();
    let (bitset_ms, bitset) = best_ms(RUNS, || tables.tables_for_edges(&hyperedges));
    let (naive_ms, naive) = best_ms(RUNS, || {
        hyperedges
            .iter()
            .map(|&id| {
                let e = graph.edge(id);
                let tail: Vec<_> = e.tail().iter().map(|&v| attr_of(v)).collect();
                tables.engine().naive_table(&tail, attr_of(e.head()[0]))
            })
            .collect::<Vec<_>>()
    });
    assert!(bitset == naive, "the bitset and naive tables differ");
    for (variant, ms) in [("bitset", bitset_ms), ("naive", naive_ms)] {
        entries.push(entry("tables", variant, ms, bitset_ms).val("tables", hyperedges.len()));
    }

    let threshold = model
        .acv_percentile_threshold(TOP_FRACTION)
        .expect("the model has edges");
    let strongest = model.filter_by_acv(threshold);
    let s: Vec<_> = model.attrs().map(node_of).collect();
    let mut reference_ms = None;
    for (variant, enhancement1, enhancement2) in [
        ("neither", false, false),
        ("enh1", true, false),
        ("enh2", false, true),
        ("both", true, true),
    ] {
        let opts = SetCoverOptions {
            enhancement1,
            enhancement2,
            ..SetCoverOptions::default()
        };
        let (ms, result) = best_ms(RUNS, || {
            set_cover_adaptation(strongest.hypergraph(), &s, &opts)
        });
        let reference = *reference_ms.get_or_insert(ms);
        entries.push(
            entry("set_cover", variant, ms, reference)
                .val("dominator", result.size())
                .share("covered", result.percent_covered())
                .val("iterations", result.iterations),
        );
    }

    for (variant, ms, m) in [
        ("obsmajor", full_ms, &model),
        ("directed_only", directed_ms, &directed),
    ] {
        let edges = m.hypergraph().num_edges();
        entries.push(entry("hyperedges", variant, ms, full_ms).val("edges", edges));
    }

    let section = Obj::default()
        .val("tickers", dims.tickers)
        .val("days", dims.days)
        .val("seed", spec.seed)
        .val("k", K)
        .str("gammas", "c1")
        .val("threads", 1)
        .val("runs", RUNS)
        .val("top_fraction", TOP_FRACTION)
        .val("entries", entries);
    out.member("ablations", section);
}
