//! Streaming leading indicators, served: a rolling 252-day window over
//! two simulated trading years, advanced one day at a time through the
//! concurrent serving layer.
//!
//! Production framing of Section 5.1.1's flagship workload: every new
//! trading day appends one discretized delta observation, the oldest
//! day retires, and a [`ModelServer`] slides the association model along
//! (bit-identical to re-mining the window from scratch, at a fraction of
//! the cost) and publishes an immutable epoch-tagged [`ModelSnapshot`]
//! after every slide. The leading-indicator (dominator) set is
//! precomputed into each snapshot at publish time, so the daily report
//! is a lock-free read — no set-cover run on the query path. The
//! monthly report shows how the set drifts.
//!
//! ```bash
//! cargo run --release --example streaming_market
//! ```

use hypermine::core::{AssociationModel, ModelConfig};
use hypermine::data::{AttrId, Value};
use hypermine::market::{discretize_market, Market, SimConfig, Universe};
use hypermine::serve::{ModelServer, SnapshotSpec};
use std::time::Instant;

const TICKERS: usize = 40;
const WINDOW: usize = 252; // one trading year of delta observations
const K: u8 = 5; // paper configuration C2

fn main() {
    // Two simulated years of closes -> 503 delta days: one year to fit
    // the initial model, one year to stream through it.
    let market = Market::simulate(
        Universe::sp500(TICKERS),
        &SimConfig {
            n_days: 2 * 252,
            seed: 11,
            ..SimConfig::default()
        },
    );
    // Thresholds are fitted on the initial window only and then frozen —
    // exactly how a live system discretizes incoming days on the
    // training scale.
    let disc = discretize_market(&market, K, Some(0..WINDOW));
    let stream_db = disc.discretize_more(&market, 0..usize::MAX);
    let n_days = stream_db.num_obs();
    println!(
        "{} tickers, k = {K}, {WINDOW}-day window sliding over {} delta days",
        TICKERS, n_days
    );

    let cfg = ModelConfig {
        gamma_edge: 1.20, // C2
        gamma_hyper: 1.12,
        ..ModelConfig::default()
    };
    let build_start = Instant::now();
    let model = AssociationModel::build(&stream_db.slice_obs(0..WINDOW), &cfg).unwrap();
    println!(
        "initial batch build: {} edges in {:.1} ms",
        model.hypergraph().num_edges(),
        build_start.elapsed().as_secs_f64() * 1e3
    );

    // Wrap the model in the serving layer: the server owns the live
    // model (single writer); readers get immutable snapshots with the
    // dominator set, per-head rankings, and association tables already
    // materialized. The spec keeps the top 40% of edges by ACV before
    // the set-cover adaptation — the same derivation the batch pipeline
    // uses for leading indicators. `rule_limit: 0` skips the rule
    // pre-ranking because this report never reads rules. Ranking is
    // support-bounded, so keeping it would cost only ~2 ms of a ~13 ms
    // publish on this ~30k-edge window (sorting every row took ~1.1 s).
    let spec = SnapshotSpec {
        rule_limit: 0,
        ..SnapshotSpec::default()
    };
    let mut server = ModelServer::new(model, spec);
    let mut reader = server.reader();
    let mut dom: Vec<AttrId> = reader.load().known().to_vec();
    println!(
        "day {WINDOW:>4}: initial dominator set has {} leading indicators",
        dom.len()
    );

    let mut row = vec![0 as Value; stream_db.num_attrs()];
    let mut slide_ms = Vec::with_capacity(n_days - WINDOW);
    for day in WINDOW..n_days {
        for (a, v) in row.iter_mut().enumerate() {
            *v = stream_db.value(AttrId::new(a as u32), day);
        }
        // One timed step = slide the model AND publish the refreshed
        // snapshot (serving indexes included) — the full cost of making
        // the new day visible to every reader.
        let t = Instant::now();
        server.advance(&row).expect("stream rows are valid");
        slide_ms.push(t.elapsed().as_secs_f64() * 1e3);
        // The day's leading indicators are a field read on the
        // published snapshot, not a recomputation.
        let snap = reader.load();
        let new_dom = snap.known();
        let entered = new_dom.iter().filter(|v| !dom.contains(v)).count();
        let left = dom.iter().filter(|v| !new_dom.contains(v)).count();
        if (day - WINDOW + 1) % 21 == 0 {
            let names: Vec<&str> = new_dom.iter().take(6).map(|&a| snap.attr_name(a)).collect();
            println!(
                "day {day:>4}: epoch {:>3}, {} edges, |Dom| {} (+{entered}/-{left} today, \
                 {:.0}% covered), covering {}…",
                snap.epoch(),
                snap.graph().num_edges(),
                new_dom.len(),
                snap.coverage() * 100.0,
                names.join(" ")
            );
        }
        dom = new_dom.to_vec();
    }

    // The whole point: the streamed model equals a from-scratch rebuild
    // of its final window, bit for bit — and so does the snapshot the
    // readers see.
    let rebuild_start = Instant::now();
    let batch = AssociationModel::build(server.model().database(), &cfg).unwrap();
    let rebuild = rebuild_start.elapsed().as_secs_f64() * 1e3;
    let republish_start = Instant::now();
    server.publish();
    let republish = republish_start.elapsed().as_secs_f64() * 1e3;
    let snap = reader.load();
    assert_eq!(batch.hypergraph().num_edges(), snap.graph().num_edges());
    for (id, e) in batch.hypergraph().edges() {
        let o = snap.graph().edge(id);
        assert_eq!(e.tail(), o.tail());
        assert_eq!(e.head(), o.head());
        assert_eq!(e.weight().to_bits(), o.weight().to_bits());
    }
    assert!(
        snap.verify_digest(),
        "published snapshot is internally consistent"
    );
    println!("\nserved snapshot verified bit-identical to a batch rebuild of the final window");
    let total: f64 = slide_ms.iter().sum();
    let mean = total / slide_ms.len() as f64;
    let mut sorted = slide_ms.clone();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
    println!(
        "{} slide+publish steps: mean {:.2} ms, median {:.2} ms, p95 {:.2} ms \
         (first slide incl. state build {:.1} ms); \
         rebuild-and-republish from scratch {:.1} ms => {:.1}x per served day",
        slide_ms.len(),
        mean,
        sorted[sorted.len() / 2],
        sorted[sorted.len() * 95 / 100],
        slide_ms[0],
        rebuild + republish,
        (rebuild + republish) / sorted[sorted.len() / 2],
    );
}
