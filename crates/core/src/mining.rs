//! Direct mva-type rule mining: rank the strongest rules of a model.
//!
//! The association hypergraph aggregates rules into ACVs; downstream users
//! often also want the classic rule-mining view — "give me the individual
//! mva-type rules above a support/confidence floor" (the constraint-based
//! mining the paper's related work discusses, Section 1.1). This module
//! ranks the association-table rows of kept edges as [`MinedRule`]s.
//!
//! A row's ranking key is its term of the edge's ACV (Definition 3.6):
//! `Supp(row) · Conf(row ⟹ best)`. Its support is known from the tail
//! row's popcount alone, before any head value is counted, and bounds the
//! key from above — so [`top_rules`] counts a row's best head only when
//! that bound can still beat the weakest rule it holds, and builds a
//! [`MinedRule`] only for the rules it returns.

use crate::counting::{CountingEngine, PairRows};
use crate::model::{attr_of, AssociationModel};
use hypermine_data::{AttrId, Value};
use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

/// One mined rule `{(t₁,v₁),…} ⟹ {(h, v*)}` with its measures.
#[derive(Debug, Clone, PartialEq)]
pub struct MinedRule {
    /// Tail attributes.
    pub tail: Vec<AttrId>,
    /// Tail value assignment, aligned with `tail`.
    pub tail_values: Vec<Value>,
    /// Head attribute.
    pub head: AttrId,
    /// Best head value for this assignment.
    pub head_value: Value,
    /// `Supp(tail assignment)`.
    pub support: f64,
    /// `Conf(tail ⟹ head value)`.
    pub confidence: f64,
}

impl MinedRule {
    /// `support × confidence` — the rule's contribution to its edge's ACV,
    /// used as the ranking key.
    pub fn strength(&self) -> f64 {
        self.support * self.confidence
    }
}

/// Ranks every association-table row of every kept edge with
/// `support ≥ min_support` and `confidence ≥ min_confidence` by
/// [`MinedRule::strength`] descending, then tail and tail values
/// ascending, then edge id, and returns the first `limit` rules. A `NaN`
/// floor admits nothing; `limit = 0` returns at once, counting nothing.
///
/// Rows are never materialized as tables or rules: a row is skipped
/// before its head is counted when its support misses the floor, or —
/// once `limit` rules are held — when its support (an upper bound on its
/// strength, since confidence ≤ 1) is below the weakest held rule's
/// strength. Only the winners become [`MinedRule`]s, so the selection
/// costs `O(rows · log limit)`, allocates `O(min(limit, rows))`, and
/// returns a vector whose capacity is its length. Ranking the top 32 of
/// the `perf_incremental` window (40 tickers × 756 days, single thread,
/// 2-vCPU AVX2 host) takes 0.7–1.1 / 2.1–3.0 / 4.9–5.3 ms at
/// k = 3 / 5 / 8 (about 12,000 / 30,500 / 31,200 kept edges);
/// enumerating and sorting every row took 86–88 ms / 1.0–1.1 s /
/// 2.5–2.9 s.
pub fn top_rules(
    model: &AssociationModel,
    min_support: f64,
    min_confidence: f64,
    limit: usize,
) -> Vec<MinedRule> {
    if limit == 0 {
        return Vec::new();
    }
    let engine = CountingEngine::new(&model.db);
    let mut ranking = Ranking {
        num_obs: model.db.num_obs() as f64,
        min_support,
        min_confidence,
        limit,
        held: BinaryHeap::new(),
    };
    let k = model.k;
    // Edges are stored pair-major, so remembering the last pair's rows
    // builds each unordered tail pair's bitsets once (as
    // `ModelTables::table` does). Its rows are visited by descending
    // tail count: once one cannot rank, no later row of the edge can.
    let mut last_pair: Option<PairRows> = None;
    let mut by_count: Vec<(usize, [Value; 2])> = Vec::new();
    for (position, (_, edge)) in model.graph.edges().enumerate() {
        let head = attr_of(edge.head()[0]);
        match *edge.tail() {
            [t] => {
                let a = attr_of(t);
                for va in 1..=k {
                    let (bits, count) = engine.value_row(a, va);
                    if ranking.may_rank(count) {
                        let row = Row::new(position, &[a], &[va], head);
                        ranking.offer(&engine, bits, count, row);
                    }
                }
            }
            [t1, t2] => {
                let (a, b) = (attr_of(t1), attr_of(t2));
                if last_pair.as_ref().is_none_or(|p| p.pair() != (a, b)) {
                    let pair = engine.pair_rows(a, b);
                    by_count.clear();
                    for va in 1..=k {
                        for vb in 1..=k {
                            by_count.push((pair.row_count(va, vb), [va, vb]));
                        }
                    }
                    by_count.sort_unstable_by_key(|&(count, _)| Reverse(count));
                    last_pair = Some(pair);
                }
                let pair = last_pair.as_ref().expect("just built");
                for &(count, [va, vb]) in &by_count {
                    if !ranking.may_rank(count) {
                        break;
                    }
                    let row = Row::new(position, &[a, b], &[va, vb], head);
                    ranking.offer(&engine, pair.row_bits(va, vb), count, row);
                }
            }
            _ => panic!("association tables support |T| in {{1, 2}}"),
        }
    }
    ranking.into_rules()
}

/// One association-table row, identified inline (tails have at most two
/// attributes) so ranking it allocates nothing.
#[derive(Debug, Clone, Copy)]
struct Row {
    /// The edge's position in edge-id order: the last tie-break.
    position: usize,
    arity: usize,
    tail: [AttrId; 2],
    tail_values: [Value; 2],
    head: AttrId,
}

impl Row {
    fn new(position: usize, tail: &[AttrId], tail_values: &[Value], head: AttrId) -> Row {
        let mut row = Row {
            position,
            arity: tail.len(),
            tail: [AttrId::new(0); 2],
            tail_values: [0; 2],
            head,
        };
        row.tail[..tail.len()].copy_from_slice(tail);
        row.tail_values[..tail.len()].copy_from_slice(tail_values);
        row
    }

    fn tail(&self) -> &[AttrId] {
        &self.tail[..self.arity]
    }

    fn tail_values(&self) -> &[Value] {
        &self.tail_values[..self.arity]
    }
}

/// A row that passed both floors, with its measures.
#[derive(Debug, Clone, Copy)]
struct Candidate {
    strength: f64,
    row: Row,
    head_value: Value,
    support: f64,
    confidence: f64,
}

impl Candidate {
    fn to_rule(self) -> MinedRule {
        MinedRule {
            tail: self.row.tail().to_vec(),
            tail_values: self.row.tail_values().to_vec(),
            head: self.row.head,
            head_value: self.head_value,
            support: self.support,
            confidence: self.confidence,
        }
    }
}

/// Rank order, strongest first: `Less` means `self` ranks ahead of
/// `other`. Strength descending, then tail, tail values, and edge
/// position ascending — the order a stable sort by the first three keys
/// gives rows enumerated in edge-id order. Strengths are finite and
/// positive, where `total_cmp` agrees with `partial_cmp`.
impl Ord for Candidate {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .strength
            .total_cmp(&self.strength)
            .then_with(|| self.row.tail().cmp(other.row.tail()))
            .then_with(|| self.row.tail_values().cmp(other.row.tail_values()))
            .then_with(|| self.row.position.cmp(&other.row.position))
    }
}

impl PartialOrd for Candidate {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Candidate {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Candidate {}

/// Bounded selection of the `limit` best candidates under the floors: a
/// max-heap in rank order, so its top is the weakest rule held.
struct Ranking {
    num_obs: f64,
    min_support: f64,
    min_confidence: f64,
    limit: usize,
    held: BinaryHeap<Candidate>,
}

impl Ranking {
    /// Whether a tail row matched by `count` observations could still be
    /// selected: it occurs, meets the support floor, and — once `limit`
    /// rules are held — its support reaches the weakest held strength.
    /// Exact, not a heuristic: `support × confidence ≤ support` in f64
    /// (confidence ≤ 1 and rounding is monotone), so a row below that bar
    /// ranks behind every held rule. Monotone in `count`.
    fn may_rank(&self, count: usize) -> bool {
        let support = count as f64 / self.num_obs;
        count > 0
            && support >= self.min_support
            && (self.held.len() < self.limit
                || self.held.peek().is_some_and(|w| support >= w.strength))
    }

    /// Counts a row's best head and keeps the row if it meets the
    /// confidence floor and outranks the weakest held rule.
    fn offer(&mut self, engine: &CountingEngine<'_>, bits: &[u64], count: usize, row: Row) {
        let (head_value, best_count) = engine.best_head(bits, count, row.head);
        let support = count as f64 / self.num_obs;
        let confidence = best_count as f64 / count as f64;
        let candidate = Candidate {
            strength: support * confidence,
            row,
            head_value,
            support,
            confidence,
        };
        if confidence >= self.min_confidence {
            if self.held.len() < self.limit {
                self.held.push(candidate);
            } else if let Some(mut weakest) = self.held.peek_mut() {
                if candidate < *weakest {
                    *weakest = candidate;
                }
            }
        }
    }

    /// The held rules, strongest first, in a vector of exactly their
    /// number.
    fn into_rules(self) -> Vec<MinedRule> {
        self.held
            .into_sorted_vec()
            .iter()
            .copied()
            .map(Candidate::to_rule)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ModelConfig;
    use hypermine_data::Database;

    fn model() -> AssociationModel {
        // y copies x exactly; z is weakly related.
        let x: Vec<Value> = (0..90).map(|i| (i % 3 + 1) as Value).collect();
        let z: Vec<Value> = (0..90)
            .map(|i| if i % 4 == 0 { 1 } else { (i % 3 + 1) as Value })
            .collect();
        let db = Database::from_columns(
            vec!["x".into(), "y".into(), "z".into()],
            3,
            vec![x.clone(), x, z],
        )
        .unwrap();
        AssociationModel::build(&db, &ModelConfig::c1()).unwrap()
    }

    #[test]
    fn strongest_rules_are_exact_copies() {
        let m = model();
        let rules = top_rules(&m, 0.0, 0.0, 10);
        assert!(!rules.is_empty());
        // The top rule must have confidence 1 (x ⟹ y is deterministic).
        assert_eq!(rules[0].confidence, 1.0);
        // Sorted by strength.
        for w in rules.windows(2) {
            assert!(w[0].strength() >= w[1].strength());
        }
    }

    #[test]
    fn floors_filter_rules() {
        let m = model();
        let all = top_rules(&m, 0.0, 0.0, usize::MAX);
        let confident = top_rules(&m, 0.0, 0.9, usize::MAX);
        assert!(confident.len() < all.len());
        assert!(confident.iter().all(|r| r.confidence >= 0.9));
        let supported = top_rules(&m, 0.3, 0.0, usize::MAX);
        assert!(supported.iter().all(|r| r.support >= 0.3));
        assert!(top_rules(&m, f64::NAN, 0.0, 10).is_empty());
        assert!(top_rules(&m, 0.0, f64::NAN, 10).is_empty());
    }

    #[test]
    fn limit_truncates() {
        let m = model();
        assert_eq!(top_rules(&m, 0.0, 0.0, 3).len(), 3);
        assert!(top_rules(&m, 2.0, 0.0, 10).is_empty()); // impossible floor
        assert!(top_rules(&m, 0.0, 0.0, 0).is_empty());
    }

    #[test]
    fn truncated_rankings_hold_no_spare_capacity() {
        // Regression: the ranking used to truncate a vector holding every
        // row of every edge, and snapshots kept that allocation alive.
        let m = model();
        assert!(top_rules(&m, 0.0, 0.0, 3).capacity() <= 3);
        assert_eq!(top_rules(&m, 0.0, 0.0, 0).capacity(), 0);
    }

    #[test]
    fn rules_align_tail_and_values() {
        let m = model();
        for r in top_rules(&m, 0.0, 0.0, 50) {
            assert_eq!(r.tail.len(), r.tail_values.len());
            assert!(!r.tail.contains(&r.head));
            assert!((0.0..=1.0).contains(&r.support));
            assert!((0.0..=1.0).contains(&r.confidence));
        }
    }
}
