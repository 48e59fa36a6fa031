//! End-to-end integration tests spanning every crate: market simulation →
//! discretization → association hypergraph → similarity/clustering →
//! leading indicators → classification, plus the ML baselines on the same
//! data.

use hypermine::core::{
    attr_of, dominating_adaptation, is_dominator, node_of, set_cover_adaptation,
    AssociationClassifier, AssociationModel, ModelConfig, SetCoverOptions, StopRule,
};
use hypermine::data::AttrId;
use hypermine::market::{discretize_market, Market, SimConfig, Universe};
use hypermine::ml::{accuracy, MultiClassPerceptron, TabularDataset};
use hypermine_hypergraph::NodeId;

fn market() -> Market {
    Market::simulate(
        Universe::sp500(40),
        &SimConfig {
            n_days: 6 * 252,
            seed: 77,
            ..SimConfig::default()
        },
    )
}

#[test]
fn full_pipeline_beats_chance_out_of_sample() {
    let m = market();
    let split = 5 * 252;
    let disc = discretize_market(&m, 3, Some(0..split));
    let test_db = disc.discretize_more(&m, split..m.n_days() - 1);
    let model = AssociationModel::build(&disc.database, &ModelConfig::c1()).unwrap();

    // Leading indicator on the top-40% graph.
    let thr = model.acv_percentile_threshold(0.4).unwrap();
    let filtered = model.filter_by_acv(thr);
    let nodes: Vec<NodeId> = model.attrs().map(node_of).collect();
    let dom = dominating_adaptation(filtered.hypergraph(), &nodes, StopRule::NoCrossGain);
    assert!(!dom.dominator.is_empty());
    assert!(
        dom.percent_covered() > 0.5,
        "coverage {}",
        dom.percent_covered()
    );

    let dominator: Vec<AttrId> = dom.dominator.iter().map(|&n| attr_of(n)).collect();
    let targets: Vec<AttrId> = model.attrs().filter(|a| !dominator.contains(a)).collect();
    let clf = AssociationClassifier::new(&filtered, &dominator);
    let out = clf.evaluate(&test_db, &targets).mean_confidence();
    // Equi-depth k = 3 buckets: chance is 1/3.
    assert!(out > 0.40, "out-of-sample confidence {out}");
}

#[test]
fn both_dominator_algorithms_agree_on_validity() {
    let m = market();
    let disc = discretize_market(&m, 3, None);
    let model = AssociationModel::build(&disc.database, &ModelConfig::c1()).unwrap();
    let thr = model.acv_percentile_threshold(0.3).unwrap();
    let filtered = model.filter_by_acv(thr);
    let nodes: Vec<NodeId> = model.attrs().map(node_of).collect();

    for dominator in [
        dominating_adaptation(filtered.hypergraph(), &nodes, StopRule::NoCrossGain).dominator,
        set_cover_adaptation(filtered.hypergraph(), &nodes, &SetCoverOptions::default()).dominator,
    ] {
        assert!(!dominator.is_empty());
        // Whatever each algorithm marked covered really is dominated.
        let covered = hypermine_hypergraph::one_step_cover(filtered.hypergraph(), &dominator);
        let covered_nodes: Vec<NodeId> = nodes
            .iter()
            .copied()
            .filter(|n| covered[n.index()])
            .collect();
        assert!(is_dominator(
            filtered.hypergraph(),
            &covered_nodes,
            &dominator
        ));
    }
}

#[test]
fn classifier_beats_majority_baseline_in_sample() {
    let m = market();
    let disc = discretize_market(&m, 3, None);
    let model = AssociationModel::build(&disc.database, &ModelConfig::c1()).unwrap();
    let nodes: Vec<NodeId> = model.attrs().map(node_of).collect();
    let dom = dominating_adaptation(model.hypergraph(), &nodes, StopRule::NoCrossGain);
    let dominator: Vec<AttrId> = dom.dominator.iter().map(|&n| attr_of(n)).collect();
    let targets: Vec<AttrId> = model
        .attrs()
        .filter(|a| !dominator.contains(a))
        .take(10)
        .collect();
    let clf = AssociationClassifier::new(&model, &dominator);
    let eval = clf.evaluate(&disc.database, &targets);
    // Majority baseline under equi-depth terciles is ~1/3.
    assert!(
        eval.mean_confidence() > 0.38,
        "in-sample {}",
        eval.mean_confidence()
    );
}

#[test]
fn ml_baselines_runnable_on_market_data() {
    // Cross-crate check: one-hot encodings built from the discretized
    // market feed the perceptron, which must beat chance on a correlated
    // target in sample.
    let m = market();
    let disc = discretize_market(&m, 3, None);
    let db = &disc.database;
    // Predict ticker 1 from tickers 2..6 (same-sector neighbours likely
    // correlate; in-sample fit only).
    let features: Vec<AttrId> = (2..7).map(AttrId::new).collect();
    let target = AttrId::new(1);
    let ds = TabularDataset::one_hot_from_db(db, &features, target);
    let p = MultiClassPerceptron::train(&ds, 30);
    let acc = accuracy(&ds, |x| p.predict(x));
    assert!(acc > 0.34, "perceptron in-sample accuracy {acc}");
}

#[test]
fn filtered_models_preserve_tables_and_names() {
    let m = market();
    let disc = discretize_market(&m, 3, Some(0..400));
    let model = AssociationModel::build(&disc.database, &ModelConfig::c1()).unwrap();
    let thr = model.acv_percentile_threshold(0.5).unwrap();
    let filtered = model.filter_by_acv(thr);
    assert_eq!(filtered.num_attrs(), model.num_attrs());
    let tables = filtered.tables();
    for (id, e) in filtered.hypergraph().edges().take(50) {
        let t = tables.table(id);
        assert!((t.acv() - e.weight()).abs() < 1e-12);
    }
    // Names survive filtering.
    let a0 = AttrId::new(0);
    assert_eq!(filtered.attr_name(a0), model.attr_name(a0));
}
