//! The paper's Gene database (Tables 3.3–3.4, Example 3.4) and its
//! future-work application (Chapter 6): model gene interactions with an
//! association hypergraph, find co-expressed gene clusters, and predict
//! expression levels of unmeasured genes from a measured subset.
//!
//! The raw table, its discretization cuts, and the paper-pinned rule
//! outcomes all come from the `gene_expression` entry of the scenario
//! registry — the same spec the `replication` binary gates — so this
//! example cannot drift from the committed summary.
//!
//! ```bash
//! cargo run --example gene_expression
//! ```

use hypermine::core::{
    attr_of, cluster_attributes, node_of, set_cover_adaptation, AssociationClassifier,
    AssociationModel, MvaRule, SetCoverOptions,
};
use hypermine::data::AttrId;
use hypermine::experiments::registry::{self, Source};
use hypermine::experiments::replicate::paper_database;
use hypermine::hypergraph::NodeId;

/// Expression buckets: ↓ (1) for 0..=333, ↔ (2) for 334..=666, ↑ (3) above.
fn arrows(v: u8) -> &'static str {
    match v {
        1 => "v",
        2 => "-",
        _ => "^",
    }
}

fn main() {
    let spec = registry::find("gene_expression").expect("registered scenario");
    let db = paper_database(spec).expect("inline scenario");
    let Source::Inline(table) = spec.source else {
        unreachable!("gene_expression is an inline scenario")
    };

    println!("Discretized Gene database (Table 3.4):");
    for o in 0..db.num_obs() {
        let row: Vec<&str> = db.attrs().map(|a| arrows(db.value(a, o))).collect();
        println!("  patient {}: {}", o + 1, row.join(" "));
    }

    // The paper's rule: G2 under ∧ G3 under ⟹ G4 over;
    // Supp = 0.875, Conf = 0.857.
    for check in table.rules {
        let rule = MvaRule::new(
            check
                .antecedent
                .iter()
                .map(|&(a, v)| (AttrId::new(a), v))
                .collect(),
            vec![(AttrId::new(check.consequent.0), check.consequent.1)],
        )
        .unwrap();
        println!(
            "\n{}: Supp {:.3} (paper {}/{}), Conf {:.3} (paper {}/{})",
            rule.display(&db),
            rule.antecedent_support(&db),
            check.support.0,
            check.support.1,
            rule.confidence(&db).unwrap(),
            check.confidence.0,
            check.confidence.1,
        );
    }

    // Chapter 6 problem (1): clusters of similar genes.
    let cfg = spec.runs[0].model_config(db.num_attrs());
    let model = AssociationModel::build(&db, &cfg).unwrap();
    let attrs: Vec<AttrId> = model.attrs().collect();
    let clusters = cluster_attributes(&model, &attrs, 2, None);
    println!("\ngene clusters (t = 2):");
    for (c, center) in clusters.center_attrs().iter().enumerate() {
        let members: Vec<&str> = clusters
            .cluster_members(c)
            .iter()
            .map(|&a| model.attr_name(a))
            .collect();
        println!(
            "  cluster around {}: {:?}",
            model.attr_name(*center),
            members
        );
    }

    // Chapter 6 problem (2): knowing a leading subset of genes, predict the
    // expression values of the rest.
    let nodes: Vec<NodeId> = model.attrs().map(node_of).collect();
    let dom = set_cover_adaptation(model.hypergraph(), &nodes, &SetCoverOptions::default());
    let measured: Vec<AttrId> = dom.dominator.iter().map(|&n| attr_of(n)).collect();
    if measured.is_empty() {
        println!("\nno leading genes found at this toy scale");
        return;
    }
    let targets: Vec<AttrId> = model.attrs().filter(|a| !measured.contains(a)).collect();
    let clf = AssociationClassifier::new(&model, &measured);
    println!(
        "\nmeasuring {:?} predicts the remaining genes:",
        measured
            .iter()
            .map(|&a| model.attr_name(a))
            .collect::<Vec<_>>()
    );
    for &t in &targets {
        let values: Vec<u8> = measured.iter().map(|&a| db.value(a, 0)).collect();
        if let Some(p) = clf.predict(&values, t) {
            println!(
                "  patient 1: {} predicted {} (confidence {:.2}), actual {}",
                model.attr_name(t),
                arrows(p.value),
                p.confidence,
                arrows(db.value(t, 0))
            );
        }
    }
}
