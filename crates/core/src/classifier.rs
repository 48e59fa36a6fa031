//! The association-based classifier (Section 4.2, Algorithm 9).
//!
//! Given values for a known attribute set `S` (typically a dominator /
//! leading indicator), the classifier predicts each target attribute `Y` by
//! accumulating, over every kept hyperedge `e = (T, {Y})` with `T ⊆ S`, the
//! contribution `Supp(row) × Conf(row ⟹ (Y, y*))` into `val[y*]`, where the
//! row is `e`'s association-table row selected by the current values of `T`.
//! The answer is `argmax val` with confidence `val[y*] / Σ_y val[y]`.
//!
//! Pooling weighted contributions from *all* relevant rules (rather than
//! committing to a single high-confidence rule) is the paper's hedge against
//! both overfitting and underfitting.

use crate::model::AssociationModel;
use crate::table::AssociationTable;
use hypermine_data::{AttrId, Database, Value};

/// A single value prediction.
#[derive(Debug, Clone, PartialEq)]
pub struct Prediction {
    /// The best classified value `y*`.
    pub value: Value,
    /// Normalized classification confidence `val[y*] / Σ val[y] ∈ [0, 1]`.
    pub confidence: f64,
    /// The raw accumulator `val[y]` per value (index 0 = value 1).
    pub scores: Vec<f64>,
}

/// The classifier: a model plus the known attribute set `S`.
///
/// Construction materializes (once) the association tables of every kept
/// hyperedge whose tail lies inside `S` — the only tables Algorithm 9 ever
/// consults — so prediction itself is pure table lookups.
#[derive(Debug, Clone)]
pub struct AssociationClassifier<'m> {
    model: &'m AssociationModel,
    known: Vec<AttrId>,
    in_known: Vec<bool>,
    /// Per head attribute: the tables of kept edges with tail ⊆ S.
    relevant: Vec<Vec<AssociationTable>>,
}

impl<'m> AssociationClassifier<'m> {
    /// Prepares a classifier for the known set `known` (the paper's `S`,
    /// with values supplied per prediction call). Precomputes, per target,
    /// the association tables of hyperedges whose tails lie inside `S`.
    pub fn new(model: &'m AssociationModel, known: &[AttrId]) -> Self {
        let n = model.num_attrs();
        let mut in_known = vec![false; n];
        for &a in known {
            in_known[a.index()] = true;
        }
        // Collect the relevant (target, edge) pairs first, then materialize
        // their tables in one batch: `tables_for_edges` builds each shared
        // unordered tail pair's row bitsets once instead of once per edge.
        let mut targets_and_ids = Vec::new();
        for (id, e) in model.hypergraph().edges() {
            if e.tail().iter().all(|t| in_known[t.index()]) {
                for &h in e.head() {
                    if !in_known[h.index()] {
                        targets_and_ids.push((h.index(), id));
                    }
                }
            }
        }
        let ids: Vec<_> = targets_and_ids.iter().map(|&(_, id)| id).collect();
        let batch = model.tables().tables_for_edges(&ids);
        let mut relevant = vec![Vec::new(); n];
        for ((h, _), table) in targets_and_ids.into_iter().zip(batch) {
            relevant[h].push(table);
        }
        AssociationClassifier {
            model,
            known: known.to_vec(),
            in_known,
            relevant,
        }
    }

    /// The known attribute set `S`.
    pub fn known(&self) -> &[AttrId] {
        &self.known
    }

    /// Number of hyperedges that can vote for `target`.
    pub fn relevant_edge_count(&self, target: AttrId) -> usize {
        self.relevant[target.index()].len()
    }

    /// Predicts `target`'s value given `values[i]` = the current value of
    /// `self.known()[i]`. Returns `None` when no relevant hyperedge casts a
    /// positive vote (e.g. every matching table row has zero support).
    ///
    /// # Panics
    /// Panics if `values` does not align with the known set, contains
    /// out-of-range values, or `target ∈ S`.
    pub fn predict(&self, values: &[Value], target: AttrId) -> Option<Prediction> {
        assert_eq!(
            values.len(),
            self.known.len(),
            "one value per known attribute"
        );
        assert!(
            !self.in_known[target.index()],
            "target must not be one of the known attributes"
        );
        let k = self.model.k() as usize;
        assert!(
            values.iter().all(|&v| v >= 1 && (v as usize) <= k),
            "values must lie in 1..=k"
        );
        // Value of each known attribute, indexed by attribute.
        let mut value_of = vec![0 as Value; self.model.num_attrs()];
        for (&a, &v) in self.known.iter().zip(values) {
            value_of[a.index()] = v;
        }

        let mut scores = vec![0.0f64; k];
        let mut tail_vals: Vec<Value> = Vec::with_capacity(2);
        for table in &self.relevant[target.index()] {
            tail_vals.clear();
            tail_vals.extend(table.tail().iter().map(|t| value_of[t.index()]));
            let (best, vote) = table.row_vote(&tail_vals);
            if let Some(best) = best {
                scores[best as usize - 1] += vote;
            }
        }
        let total: f64 = scores.iter().sum();
        if total <= 0.0 {
            return None;
        }
        let (best_idx, &best_val) = scores
            .iter()
            .enumerate()
            .max_by(|(ia, a), (ib, b)| a.partial_cmp(b).unwrap().then(ib.cmp(ia)))
            .expect("k >= 1");
        Some(Prediction {
            value: (best_idx + 1) as Value,
            confidence: best_val / total,
            scores,
        })
    }

    /// Predicts `target` for observation `obs` of `db`, reading the known
    /// attributes' values from the same observation. Falls back to the
    /// model's training majority value when no hyperedge votes.
    pub fn predict_observation(&self, db: &Database, obs: usize, target: AttrId) -> Value {
        let values: Vec<Value> = self.known.iter().map(|&a| db.value(a, obs)).collect();
        match self.predict(&values, target) {
            Some(p) => p.value,
            None => self.model.majority_value(target).unwrap_or(1),
        }
    }

    /// Evaluates the classifier over every observation of `db` (which must
    /// share the training database's schema): for each target, the fraction
    /// of observations whose predicted value equals the actual value — the
    /// paper's *classification confidence* for a series (Section 5.5).
    pub fn evaluate(&self, db: &Database, targets: &[AttrId]) -> ClassifierEval {
        let mut per_target = Vec::with_capacity(targets.len());
        for &t in targets {
            let mut hits = 0usize;
            for obs in 0..db.num_obs() {
                if self.predict_observation(db, obs, t) == db.value(t, obs) {
                    hits += 1;
                }
            }
            let frac = if db.num_obs() == 0 {
                0.0
            } else {
                hits as f64 / db.num_obs() as f64
            };
            per_target.push((t, frac));
        }
        ClassifierEval { per_target }
    }
}

/// Per-target classification confidences plus their mean.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassifierEval {
    /// `(target, fraction of observations predicted exactly)`.
    pub per_target: Vec<(AttrId, f64)>,
}

impl ClassifierEval {
    /// Mean classification confidence over all targets (the number the
    /// paper's Tables 5.3/5.4 report).
    pub fn mean_confidence(&self) -> f64 {
        if self.per_target.is_empty() {
            return 0.0;
        }
        self.per_target.iter().map(|(_, c)| c).sum::<f64>() / self.per_target.len() as f64
    }

    /// The per-target confidences as a plain vector (Figure 5.4's
    /// distribution).
    pub fn confidences(&self) -> Vec<f64> {
        self.per_target.iter().map(|&(_, c)| c).collect()
    }
}

/// Convenience: evaluate using the edges pointing *into* each target from a
/// dominator computed on (a filtered version of) the same model.
pub fn classify_targets(
    model: &AssociationModel,
    dominator: &[AttrId],
    db: &Database,
    targets: &[AttrId],
) -> ClassifierEval {
    AssociationClassifier::new(model, dominator).evaluate(db, targets)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ModelConfig;
    use hypermine_data::Database;

    fn a(i: u32) -> AttrId {
        AttrId::new(i)
    }

    /// y follows x exactly; z follows x with noise; w is independent.
    fn db() -> Database {
        let m = 300;
        let x: Vec<Value> = (0..m).map(|o| (o % 3 + 1) as Value).collect();
        let y = x.clone();
        let z: Vec<Value> = x
            .iter()
            .enumerate()
            .map(|(o, &v)| if o % 5 == 0 { (v % 3) + 1 } else { v })
            .collect();
        let w: Vec<Value> = (0..m).map(|o| ((o / 11) % 3 + 1) as Value).collect();
        Database::from_columns(
            vec!["x".into(), "y".into(), "z".into(), "w".into()],
            3,
            vec![x, y, z, w],
        )
        .unwrap()
    }

    fn model(d: &Database) -> AssociationModel {
        AssociationModel::build(d, &ModelConfig::default()).unwrap()
    }

    #[test]
    fn predicts_deterministic_copy_perfectly() {
        let d = db();
        let m = model(&d);
        let clf = AssociationClassifier::new(&m, &[a(0)]);
        let eval = clf.evaluate(&d, &[a(1)]);
        assert!((eval.mean_confidence() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn noisy_target_scores_below_perfect_but_above_chance() {
        let d = db();
        let m = model(&d);
        let clf = AssociationClassifier::new(&m, &[a(0)]);
        let eval = clf.evaluate(&d, &[a(2)]);
        let c = eval.mean_confidence();
        assert!(c > 0.7 && c < 1.0, "confidence {c}");
    }

    #[test]
    fn prediction_structure() {
        let d = db();
        let m = model(&d);
        let clf = AssociationClassifier::new(&m, &[a(0)]);
        let p = clf.predict(&[2], a(1)).expect("x -> y edge exists");
        assert_eq!(p.value, 2);
        assert!(p.confidence > 0.9);
        assert_eq!(p.scores.len(), 3);
        let sum: f64 = p.scores.iter().sum();
        assert!((p.scores[1] / sum - p.confidence).abs() < 1e-12);
    }

    #[test]
    fn batched_table_construction_leaves_predictions_unchanged() {
        // Regression for the pair-grouped table materialization: votes must
        // be bit-identical to accumulating per-edge tables in edge-id order
        // (the pre-batching code path).
        let d = db();
        let m = model(&d);
        let known = [a(0), a(2)];
        let clf = AssociationClassifier::new(&m, &known);
        let tables = m.tables();
        let k = m.k() as usize;
        for target in [a(1), a(3)] {
            for obs in 0..d.num_obs() {
                let values: Vec<Value> = known.iter().map(|&s| d.value(s, obs)).collect();
                // Old path: one table per relevant edge, in edge-id order.
                let mut scores = vec![0.0f64; k];
                for (id, e) in m.hypergraph().edges() {
                    let tail_attrs: Vec<AttrId> =
                        e.tail().iter().map(|&n| crate::model::attr_of(n)).collect();
                    if !tail_attrs.iter().all(|t| known.contains(t))
                        || crate::model::attr_of(e.head()[0]) != target
                    {
                        continue;
                    }
                    let table = tables.table(id);
                    let tail_vals: Vec<Value> = table
                        .tail()
                        .iter()
                        .map(|t| values[known.iter().position(|s| s == t).unwrap()])
                        .collect();
                    let (best, vote) = table.row_vote(&tail_vals);
                    if let Some(best) = best {
                        scores[best as usize - 1] += vote;
                    }
                }
                let expected = clf.predict(&values, target);
                if scores.iter().sum::<f64>() <= 0.0 {
                    assert_eq!(expected, None);
                } else {
                    let p = expected.expect("votes were cast");
                    for (s, e) in p.scores.iter().zip(&scores) {
                        assert_eq!(s.to_bits(), e.to_bits());
                    }
                }
            }
        }
    }

    #[test]
    fn no_vote_falls_back_to_majority() {
        let d = db();
        let m = model(&d);
        // w has no incoming edges from {x}: it is independent, so the edge
        // x -> w should have failed the γ test.
        let clf = AssociationClassifier::new(&m, &[a(0)]);
        if clf.relevant_edge_count(a(3)) == 0 {
            assert_eq!(clf.predict(&[1], a(3)), None);
            let v = clf.predict_observation(&d, 0, a(3));
            assert_eq!(Some(v), m.majority_value(a(3)));
        }
    }

    #[test]
    fn hyperedges_join_the_vote() {
        let d = db();
        let m = model(&d);
        let clf = AssociationClassifier::new(&m, &[a(0), a(2)]);
        // Edges {x}->y, {z}->y, and possibly {x,z}->y all vote.
        assert!(clf.relevant_edge_count(a(1)) >= 2);
        let eval = clf.evaluate(&d, &[a(1)]);
        assert!(eval.mean_confidence() > 0.95);
    }

    #[test]
    fn relevant_edges_exclude_tails_outside_s() {
        let d = db();
        let m = model(&d);
        let clf = AssociationClassifier::new(&m, &[a(2)]);
        for table in &clf.relevant[a(1).index()] {
            assert_eq!(table.tail(), &[a(2)]);
        }
    }

    #[test]
    #[should_panic(expected = "target must not be one of the known")]
    fn target_in_s_rejected() {
        let d = db();
        let m = model(&d);
        let clf = AssociationClassifier::new(&m, &[a(0)]);
        let _ = clf.predict(&[1], a(0));
    }

    #[test]
    #[should_panic(expected = "one value per known attribute")]
    fn misaligned_values_rejected() {
        let d = db();
        let m = model(&d);
        let clf = AssociationClassifier::new(&m, &[a(0)]);
        let _ = clf.predict(&[1, 2], a(1));
    }

    #[test]
    fn eval_mean_over_targets() {
        let d = db();
        let m = model(&d);
        let eval = classify_targets(&m, &[a(0)], &d, &[a(1), a(2)]);
        assert_eq!(eval.per_target.len(), 2);
        let mean = eval.mean_confidence();
        let manual: f64 = eval.per_target.iter().map(|(_, c)| c).sum::<f64>() / 2.0;
        assert!((mean - manual).abs() < 1e-12);
    }
}
