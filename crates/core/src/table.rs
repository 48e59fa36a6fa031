//! Association tables (Definition 3.6(2), Table 3.7).

use hypermine_data::{AttrId, Value};

/// One row of an association table, as presented to callers: the mva-type
/// rule `{(t₁,v₁), …, (t_r,v_r)} ⟹ {(h, v*)}` with its support and
/// confidence.
#[derive(Debug, Clone, PartialEq)]
pub struct AtRow {
    /// Tail value assignment `(v₁..v_r)`, aligned with the table's tail
    /// attributes.
    pub tail_values: Vec<Value>,
    /// `Supp({(t₁,v₁), …})` — fraction of observations matching the tail.
    pub support: f64,
    /// The most frequent head value `v*` given the tail assignment, or
    /// `None` when the assignment never occurs (zero support).
    pub best_head: Option<Value>,
    /// `Conf(tail ⟹ {(h, v*)})`; 0 when the assignment never occurs.
    pub confidence: f64,
}

/// Raw counts for one row, the storage format: supports and confidences are
/// derived exactly (`support = tail_count / m`,
/// `confidence = best_count / tail_count`), which keeps a table at 12 bytes
/// per row — association hypergraphs can hold hundreds of thousands of
/// hyperedges.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RowCounts {
    /// Observations matching the tail assignment.
    pub tail_count: u32,
    /// Of those, observations where the head takes its most frequent value.
    pub best_count: u32,
    /// The most frequent head value, or 0 when `tail_count == 0`.
    pub best_head: u8,
}

/// The association table of a directed hyperedge `(T, {h})`: one row per
/// possible tail value assignment, in mixed-radix order (last tail attribute
/// varies fastest).
#[derive(Debug, Clone, PartialEq)]
pub struct AssociationTable {
    tail: Vec<AttrId>,
    head: AttrId,
    k: Value,
    num_obs: u32,
    rows: Vec<RowCounts>,
}

impl AssociationTable {
    /// Assembles a table from per-row counts over a database of `num_obs`
    /// observations.
    ///
    /// # Panics
    /// Panics unless exactly `k^|T|` rows are supplied, or if any row's
    /// counts are inconsistent (`best_count > tail_count`, or a zero
    /// `tail_count` with a nonzero best head).
    pub fn from_counts(
        tail: Vec<AttrId>,
        head: AttrId,
        k: Value,
        num_obs: u32,
        rows: Vec<RowCounts>,
    ) -> Self {
        let expected = (k as usize).pow(tail.len() as u32);
        assert_eq!(rows.len(), expected, "need k^|T| rows");
        for r in &rows {
            assert!(
                r.best_count <= r.tail_count,
                "best_count exceeds tail_count"
            );
            assert!(
                (r.tail_count == 0) == (r.best_head == 0),
                "best_head must be 0 exactly for empty rows"
            );
            assert!(r.best_head as Value <= k, "best_head out of range");
        }
        AssociationTable {
            tail,
            head,
            k,
            num_obs,
            rows,
        }
    }

    fn index_of(&self, values: &[Value]) -> usize {
        values
            .iter()
            .fold(0usize, |acc, &v| acc * self.k as usize + (v as usize - 1))
    }

    /// Validates a tail value assignment before mixed-radix encoding: a
    /// wrong-length or out-of-range assignment (e.g. the reserved value 0)
    /// would otherwise silently index the wrong row or panic opaquely.
    fn checked_index_of(&self, values: &[Value]) -> usize {
        assert_eq!(values.len(), self.tail.len(), "one value per tail attr");
        assert!(
            values.iter().all(|&v| v >= 1 && v <= self.k),
            "values must lie in 1..=k"
        );
        self.index_of(values)
    }

    fn decode(&self, mut idx: usize) -> Vec<Value> {
        let mut vals = vec![0 as Value; self.tail.len()];
        for slot in (0..self.tail.len()).rev() {
            vals[slot] = (idx % self.k as usize) as Value + 1;
            idx /= self.k as usize;
        }
        vals
    }

    fn view(&self, idx: usize) -> AtRow {
        let r = &self.rows[idx];
        let m = self.num_obs as f64;
        AtRow {
            tail_values: self.decode(idx),
            support: if self.num_obs == 0 {
                0.0
            } else {
                r.tail_count as f64 / m
            },
            best_head: if r.best_head == 0 {
                None
            } else {
                Some(r.best_head as Value)
            },
            confidence: if r.tail_count == 0 {
                0.0
            } else {
                r.best_count as f64 / r.tail_count as f64
            },
        }
    }

    /// The tail attributes `T`, in row-encoding order.
    pub fn tail(&self) -> &[AttrId] {
        &self.tail
    }

    /// The head attribute `h`.
    pub fn head(&self) -> AttrId {
        self.head
    }

    /// The value-domain size.
    pub fn k(&self) -> Value {
        self.k
    }

    /// Number of observations the counts were taken over.
    pub fn num_obs(&self) -> u32 {
        self.num_obs
    }

    /// Heap bytes this table retains (tail ids + packed row counts) —
    /// the unit `ModelSnapshot`-style byte accounting sums over the
    /// pre-materialized hot set.
    pub fn heap_bytes(&self) -> usize {
        self.tail.capacity() * std::mem::size_of::<AttrId>()
            + self.rows.capacity() * std::mem::size_of::<RowCounts>()
    }

    /// Number of rows (`k^|T|`).
    pub fn num_rows(&self) -> usize {
        self.rows.len()
    }

    /// All rows in mixed-radix tail-value order.
    pub fn rows(&self) -> impl Iterator<Item = AtRow> + '_ {
        (0..self.rows.len()).map(|i| self.view(i))
    }

    /// The row for a specific tail value assignment (one value per tail
    /// attribute, each in `1..=k`).
    ///
    /// # Panics
    /// Panics on a wrong-length assignment or out-of-range values.
    pub fn row(&self, tail_values: &[Value]) -> AtRow {
        self.view(self.checked_index_of(tail_values))
    }

    /// The weighted vote of a row for the classifier:
    /// `Supp(row) · Conf(row ⟹ best)` = `best_count / m`, computed exactly.
    ///
    /// # Panics
    /// Panics on a wrong-length assignment or out-of-range values, exactly
    /// like [`AssociationTable::row`].
    pub fn row_vote(&self, tail_values: &[Value]) -> (Option<Value>, f64) {
        let r = &self.rows[self.checked_index_of(tail_values)];
        if r.best_head == 0 || self.num_obs == 0 {
            (None, 0.0)
        } else {
            (
                Some(r.best_head as Value),
                r.best_count as f64 / self.num_obs as f64,
            )
        }
    }

    /// The association confidence value of the edge this table describes
    /// (Definition 3.6(1)): `ACV = Σ_rows Supp(row) · Conf(row ⟹ best)`,
    /// computed exactly as `Σ best_count / m`.
    pub fn acv(&self) -> f64 {
        if self.num_obs == 0 {
            return 0.0;
        }
        let total: u64 = self.rows.iter().map(|r| r.best_count as u64).sum();
        total as f64 / self.num_obs as f64
    }

    /// Total support mass across rows (1.0 on a non-empty database; rows
    /// partition the observations).
    pub fn total_support(&self) -> f64 {
        if self.num_obs == 0 {
            return 0.0;
        }
        let total: u64 = self.rows.iter().map(|r| r.tail_count as u64).sum();
        total as f64 / self.num_obs as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a(i: u32) -> AttrId {
        AttrId::new(i)
    }

    fn rc(tail_count: u32, best_count: u32, best_head: u8) -> RowCounts {
        RowCounts {
            tail_count,
            best_count,
            best_head,
        }
    }

    /// A miniature version of the paper's Table 3.7 with k = 2, m = 8.
    fn table() -> AssociationTable {
        AssociationTable::from_counts(
            vec![a(0), a(1)],
            a(2),
            2,
            8,
            vec![rc(2, 1, 2), rc(2, 2, 1), rc(4, 3, 2), rc(0, 0, 0)],
        )
    }

    #[test]
    fn row_lookup_mixed_radix() {
        let t = table();
        let r = t.row(&[1, 1]);
        assert_eq!(r.best_head, Some(2));
        assert!((r.support - 0.25).abs() < 1e-12);
        assert!((r.confidence - 0.5).abs() < 1e-12);
        assert_eq!(t.row(&[1, 2]).confidence, 1.0);
        assert_eq!(t.row(&[2, 1]).support, 0.5);
        let empty = t.row(&[2, 2]);
        assert_eq!(empty.best_head, None);
        assert_eq!(empty.support, 0.0);
        assert_eq!(empty.confidence, 0.0);
    }

    #[test]
    fn rows_iterate_with_decoded_tails() {
        let t = table();
        let rows: Vec<AtRow> = t.rows().collect();
        assert_eq!(rows.len(), 4);
        assert_eq!(rows[0].tail_values, vec![1, 1]);
        assert_eq!(rows[1].tail_values, vec![1, 2]);
        assert_eq!(rows[2].tail_values, vec![2, 1]);
        assert_eq!(rows[3].tail_values, vec![2, 2]);
    }

    #[test]
    fn acv_is_sum_of_best_counts_over_m() {
        let t = table();
        assert!((t.acv() - 6.0 / 8.0).abs() < 1e-15);
        assert!((t.total_support() - 1.0).abs() < 1e-15);
    }

    #[test]
    fn row_vote_matches_support_times_confidence() {
        let t = table();
        let (v, w) = t.row_vote(&[2, 1]);
        assert_eq!(v, Some(2));
        assert!((w - 3.0 / 8.0).abs() < 1e-15);
        assert_eq!(t.row_vote(&[2, 2]), (None, 0.0));
    }

    #[test]
    #[should_panic(expected = "k^|T| rows")]
    fn wrong_row_count_rejected() {
        AssociationTable::from_counts(vec![a(0)], a(1), 3, 8, vec![]);
    }

    #[test]
    #[should_panic(expected = "best_count exceeds")]
    fn inconsistent_counts_rejected() {
        AssociationTable::from_counts(vec![a(0)], a(1), 1, 8, vec![rc(1, 2, 1)]);
    }

    #[test]
    #[should_panic(expected = "empty rows")]
    fn zero_row_with_head_rejected() {
        AssociationTable::from_counts(vec![a(0)], a(1), 1, 8, vec![rc(0, 0, 1)]);
    }

    #[test]
    #[should_panic(expected = "one value per tail attr")]
    fn wrong_arity_lookup_rejected() {
        table().row(&[1]);
    }

    #[test]
    #[should_panic(expected = "1..=k")]
    fn out_of_range_lookup_rejected() {
        table().row(&[1, 3]);
    }

    #[test]
    #[should_panic(expected = "one value per tail attr")]
    fn wrong_arity_vote_rejected() {
        // Regression: row_vote used to skip validation, computing a garbage
        // mixed-radix index for a wrong-length assignment.
        table().row_vote(&[1]);
    }

    #[test]
    #[should_panic(expected = "1..=k")]
    fn out_of_range_vote_rejected() {
        // Regression: value 0 is reserved as invalid; unvalidated it
        // underflows the mixed-radix encoding and reads the wrong row.
        table().row_vote(&[1, 0]);
    }

    #[test]
    #[should_panic(expected = "1..=k")]
    fn above_range_vote_rejected() {
        table().row_vote(&[3, 1]);
    }

    #[test]
    fn empty_database_table() {
        let t = AssociationTable::from_counts(vec![a(0)], a(1), 2, 0, vec![rc(0, 0, 0); 2]);
        assert_eq!(t.acv(), 0.0);
        assert_eq!(t.row(&[1]).support, 0.0);
    }
}
