//! Quickstart: the full association-mining pipeline in ~60 lines.
//!
//! ```bash
//! cargo run --release --example quickstart
//! ```
//!
//! Simulates a small S&P-500-style market, builds the association
//! hypergraph (configuration C1), and runs all three applications: top
//! associations, leading indicators, and value prediction.

use hypermine::core::{
    attr_of, dominating_adaptation, node_of, AssociationClassifier, AssociationModel, ModelConfig,
    StopRule,
};
use hypermine::data::AttrId;
use hypermine::market::{discretize_market, Market, SimConfig, Universe};
use hypermine_hypergraph::NodeId;

fn main() {
    // 1. A 40-ticker market over ~2 years of trading days.
    let market = Market::simulate(
        Universe::sp500(40),
        &SimConfig {
            n_days: 500,
            seed: 42,
            ..SimConfig::default()
        },
    );

    // 2. Delta series -> equi-depth discretization into k = 3 buckets.
    let disc = discretize_market(&market, 3, Some(0..400));
    let test_db = disc.discretize_more(&market, 400..499);

    // 3. The association hypergraph (paper configuration C1).
    let model = AssociationModel::build(&disc.database, &ModelConfig::c1()).unwrap();
    let stats = model.stats();
    println!(
        "model: {} directed edges (mean ACV {:.3}), {} 2-to-1 hyperedges (mean ACV {:.3})",
        stats.num_directed_edges,
        stats.mean_acv_directed.unwrap_or(0.0),
        stats.num_hyperedges,
        stats.mean_acv_hyper.unwrap_or(0.0),
    );

    // 4. Strongest association into the first ticker.
    let subject = AttrId::new(0);
    if let Some(e) = model.best_in_hyperedge(subject) {
        let edge = model.hypergraph().edge(e);
        let t1 = model.attr_name(attr_of(edge.tail()[0]));
        let t2 = model.attr_name(attr_of(edge.tail()[1]));
        println!(
            "best predictor of {}: {{{t1}, {t2}}} with ACV {:.3}",
            model.attr_name(subject),
            edge.weight()
        );
    }

    // 5. A leading indicator: dominator over the top-40% edges.
    let threshold = model.acv_percentile_threshold(0.4).unwrap();
    let filtered = model.filter_by_acv(threshold);
    let nodes: Vec<NodeId> = model.attrs().map(node_of).collect();
    let dom = dominating_adaptation(filtered.hypergraph(), &nodes, StopRule::NoCrossGain);
    let dominator: Vec<AttrId> = dom.dominator.iter().map(|&n| attr_of(n)).collect();
    println!(
        "leading indicator ({} tickers, {:.0}% coverage): {:?}",
        dominator.len(),
        dom.percent_covered() * 100.0,
        dominator
            .iter()
            .map(|&a| model.attr_name(a))
            .collect::<Vec<_>>()
    );

    // 6. Predict everything else out of sample from the indicator alone.
    let targets: Vec<AttrId> = model.attrs().filter(|a| !dominator.contains(a)).collect();
    let clf = AssociationClassifier::new(&filtered, &dominator);
    let eval = clf.evaluate(&test_db, &targets);
    println!(
        "association-based classifier: mean out-of-sample confidence {:.3} over {} targets \
         (chance would be ~0.33)",
        eval.mean_confidence(),
        targets.len()
    );
}
