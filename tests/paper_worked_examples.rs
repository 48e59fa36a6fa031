//! Every worked example in the paper, as exact-value integration tests:
//! the Patient / Gene / Personal-Interest databases (Examples 3.3–3.5)
//! sourced from the scenario registry, their Chapter 6 worked outputs
//! (gene clusters, dominator sets, predicted expression values, the
//! Patient edge list, the interest-similarity matrix), the
//! association-similarity Example 3.12, and Theorem 3.8.

use hypermine::core::{
    attr_of, cluster_attributes, node_of, out_similarity_graph, set_cover_adaptation,
    AssociationClassifier, AssociationModel, CountingEngine, SetCoverOptions,
};
use hypermine::data::{confidence, support, AttrId, Database};
use hypermine::experiments::registry::{self, RuleCheck, ScenarioSpec, Source};
use hypermine::experiments::replicate::paper_database;
use hypermine::hypergraph::{DirectedHypergraph, NodeId};

fn a(i: u32) -> AttrId {
    AttrId::new(i)
}

/// The registry spec + discretized database of an inline paper scenario.
fn paper_fixture(name: &str) -> (&'static ScenarioSpec, Database) {
    let spec = registry::find(name).unwrap_or_else(|| panic!("{name} not registered"));
    let db = paper_database(spec).expect("inline scenario");
    (spec, db)
}

/// Asserts one registry-pinned rule outcome bit-exactly against `db`.
fn assert_rule(db: &Database, check: &RuleCheck) {
    let x: Vec<(AttrId, u8)> = check
        .antecedent
        .iter()
        .map(|&(attr, v)| (a(attr), v))
        .collect();
    let y = [(a(check.consequent.0), check.consequent.1)];
    let expect_supp = f64::from(check.support.0) / f64::from(check.support.1);
    let expect_conf = f64::from(check.confidence.0) / f64::from(check.confidence.1);
    assert!((support(db, &x) - expect_supp).abs() < 1e-12);
    assert!((confidence(db, &x, &y).unwrap() - expect_conf).abs() < 1e-12);
}

/// The C1 model of an inline scenario (its single registered run).
fn paper_model(spec: &ScenarioSpec, db: &Database) -> AssociationModel {
    AssociationModel::build(db, &spec.runs[0].model_config(db.num_attrs())).unwrap()
}

/// Example 3.3: the Patient database, discretized with ⌊v/10⌋.
#[test]
fn example_3_3_patient_database() {
    let (spec, db) = paper_fixture("patient_db");

    // Table 3.2 row checks.
    assert_eq!(db.value(a(0), 0), 2); // age 25 -> 2
    assert_eq!(db.value(a(1), 1), 16); // cholesterol 160 -> 16
    assert_eq!(db.value(a(2), 7), 15); // BP 155 -> 15
    assert_eq!(db.value(a(3), 3), 6); // HR 67 -> 6

    // X = {(A,3),(C,12)}, Y = {(B,13)}: Supp 3/8, Conf 2/3.
    for check in match spec.source {
        Source::Inline(t) => t.rules,
        Source::Market { .. } => unreachable!(),
    } {
        assert_rule(&db, check);
    }
}

/// Example 3.3 continued: the C1 association hypergraph over the Patient
/// database keeps exactly the 12 directed edges and the single 2-to-1
/// hyperedge Cholesterol ∧ Blood-Pressure ⟹ Age (ACV 1.0).
#[test]
fn example_3_3_patient_edge_list() {
    let (spec, db) = paper_fixture("patient_db");
    let model = paper_model(spec, &db);
    let stats = model.stats();
    assert_eq!(stats.num_directed_edges, 12);
    assert_eq!(stats.num_hyperedges, 1);

    let tables = model.tables();
    let mut hyper = Vec::new();
    for (id, edge) in model.hypergraph().edges() {
        let t = tables.table(id);
        if t.tail().len() == 2 {
            hyper.push((t.tail().to_vec(), t.head(), edge.weight()));
        }
    }
    assert_eq!(hyper.len(), 1);
    let (tail, head, weight) = &hyper[0];
    // Cholesterol (1) & Blood-Pressure (2) -> Age (0) at full confidence.
    assert_eq!(tail.as_slice(), &[a(1), a(2)]);
    assert_eq!(*head, a(0));
    assert!((weight - 1.0).abs() < 1e-12);
}

/// Example 3.4: the Gene database with fixed expression cuts.
#[test]
fn example_3_4_gene_database() {
    let (spec, db) = paper_fixture("gene_expression");

    // Table 3.4: patient 1 = (↓, ↓, ↔, ↔); patient 8 = (↑, ↓, ↓, ↑).
    assert_eq!(
        (0..4).map(|c| db.value(a(c), 0)).collect::<Vec<_>>(),
        vec![1, 1, 2, 2]
    );
    assert_eq!(
        (0..4).map(|c| db.value(a(c), 7)).collect::<Vec<_>>(),
        vec![3, 1, 1, 3]
    );

    // X = {(G2,↓),(G3,↓)}, Y = {(G4,↑)}: Supp 7/8, Conf 6/7.
    for check in match spec.source {
        Source::Inline(t) => t.rules,
        Source::Market { .. } => unreachable!(),
    } {
        assert_rule(&db, check);
    }
}

/// Chapter 6 problem (1) on the Gene database: t = 2 clustering splits
/// the genes into {G1, G3, G4} around G1 and the singleton {G2}.
#[test]
fn chapter_6_gene_clusters() {
    let (spec, db) = paper_fixture("gene_expression");
    let model = paper_model(spec, &db);
    let attrs: Vec<AttrId> = model.attrs().collect();
    let clusters = cluster_attributes(&model, &attrs, 2, None);

    let mut rendered: Vec<(String, Vec<String>)> = clusters
        .center_attrs()
        .iter()
        .enumerate()
        .map(|(c, &center)| {
            let mut members: Vec<String> = clusters
                .cluster_members(c)
                .iter()
                .map(|&m| model.attr_name(m).to_string())
                .collect();
            members.sort();
            (model.attr_name(center).to_string(), members)
        })
        .collect();
    rendered.sort();
    assert_eq!(
        rendered,
        vec![
            (
                "G1".to_string(),
                vec!["G1".into(), "G3".into(), "G4".into()]
            ),
            ("G2".to_string(), vec!["G2".into()]),
        ]
    );
}

/// Chapter 6 problem (2) on the Gene database: the set-cover dominator
/// is {G3}, and measuring it predicts patient 1's unmeasured expression
/// values exactly — G1 ↓ and G4 ↔, both at full confidence.
#[test]
fn chapter_6_gene_expression_prediction() {
    let (spec, db) = paper_fixture("gene_expression");
    let model = paper_model(spec, &db);
    let nodes: Vec<NodeId> = model.attrs().map(node_of).collect();
    let dom = set_cover_adaptation(model.hypergraph(), &nodes, &SetCoverOptions::default());
    let measured: Vec<AttrId> = dom.dominator.iter().map(|&n| attr_of(n)).collect();
    assert_eq!(measured, vec![a(2)], "set-cover dominator is G3");

    let clf = AssociationClassifier::new(&model, &measured);
    let values: Vec<u8> = measured.iter().map(|&m| db.value(m, 0)).collect();
    let mut predicted = Vec::new();
    for t in model.attrs().filter(|t| !measured.contains(t)) {
        if let Some(p) = clf.predict(&values, t) {
            assert_eq!(
                p.value,
                db.value(t, 0),
                "prediction for {}",
                model.attr_name(t)
            );
            assert!((p.confidence - 1.0).abs() < 1e-12);
            predicted.push((model.attr_name(t).to_string(), p.value));
        }
    }
    // G1 ↓ (1) and G4 ↔ (2); G2 has no kept edge from G3 to predict with.
    assert_eq!(
        predicted,
        vec![("G1".to_string(), 1), ("G4".to_string(), 2)]
    );
}

/// Example 3.5: the Personal-Interest database with l/m/h cuts.
#[test]
fn example_3_5_personal_interest_database() {
    let (spec, db) = paper_fixture("personal_interest");

    // Table 3.6 row checks: person 1 = (h,h,l,m); person 7 = (m,m,m,m).
    assert_eq!(
        (0..4).map(|c| db.value(a(c), 0)).collect::<Vec<_>>(),
        vec![3, 3, 1, 2]
    );
    assert_eq!(
        (0..4).map(|c| db.value(a(c), 6)).collect::<Vec<_>>(),
        vec![2, 2, 2, 2]
    );

    // X = {(R,h),(P,h)}, Y = {(M,l)}: Supp 4/8, Conf 3/4.
    for check in match spec.source {
        Source::Inline(t) => t.rules,
        Source::Market { .. } => unreachable!(),
    } {
        assert_rule(&db, check);
    }
}

/// Example 3.5 continued: the association-distance matrix over the
/// interest attributes matches the committed replication summary —
/// reading and playing closest (0.71), reading and eating farthest
/// (0.95).
#[test]
fn example_3_5_interest_similarity_matrix() {
    let (spec, db) = paper_fixture("personal_interest");
    let model = paper_model(spec, &db);
    let stats = model.stats();
    assert_eq!(stats.num_directed_edges, 8);
    assert_eq!(stats.num_hyperedges, 3);

    // Upper triangle at the summary's two-decimal precision.
    let expected = [
        ((0u32, 1u32), 0.71),
        ((0, 2), 0.86),
        ((0, 3), 0.95),
        ((1, 2), 0.70),
        ((1, 3), 0.64),
        ((2, 3), 0.78),
    ];
    for ((i, j), want) in expected {
        let got = model.similarity_distance(a(i), a(j));
        assert!(
            (got - want).abs() < 0.005,
            "distance({i},{j}) = {got:.4}, summary pins {want}"
        );
        // The matrix is symmetric with a zero diagonal.
        assert!((model.similarity_distance(a(j), a(i)) - got).abs() < 1e-12);
    }
    for i in 0..4u32 {
        assert!(model.similarity_distance(a(i), a(i)).abs() < 1e-12);
    }
}

/// Example 3.12: weighted out-similarity = 0.4 / (0.6 + 0.5 + 0.7).
#[test]
fn example_3_12_out_similarity() {
    let n = NodeId::new;
    let mut g = DirectedHypergraph::new(6);
    g.add_edge(&[n(0), n(2)], &[n(5)], 0.4).unwrap(); // a
    g.add_edge(&[n(0), n(3)], &[n(5)], 0.5).unwrap(); // b
    g.add_edge(&[n(1), n(2)], &[n(5)], 0.6).unwrap(); // c
    g.add_edge(&[n(1), n(3), n(4)], &[n(5)], 0.7).unwrap(); // d
    g.add_edge(&[n(3), n(4)], &[n(5)], 0.8).unwrap(); // e
    let s = out_similarity_graph(&g, n(0), n(1));
    assert!((s - 0.4 / 1.8).abs() < 1e-12, "got {s}");
}

/// Theorem 3.8 on the paper's own Gene fixture: adding tail attributes
/// never lowers an ACV.
#[test]
fn theorem_3_8_on_gene_fixture() {
    let (_, db) = paper_fixture("gene_expression");
    let engine = CountingEngine::new(&db);
    for h in 0..4u32 {
        let baseline = engine.baseline_acv(a(h));
        for x in 0..4u32 {
            if x == h {
                continue;
            }
            let acv1 = engine.edge_acv(a(x), a(h));
            assert!(acv1 + 1e-12 >= baseline, "part 1 fails at ({x},{h})");
            for y in 0..4u32 {
                if y == h || y <= x {
                    continue;
                }
                let pair = engine.pair_rows(a(x), a(y));
                let acv2 = engine.hyper_acv(&pair, a(h));
                let floor = acv1.max(engine.edge_acv(a(y), a(h)));
                assert!(acv2 + 1e-12 >= floor, "part 2 fails at ({x},{y},{h})");
            }
        }
    }
}
