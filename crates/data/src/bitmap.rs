//! Observation bitsets per `(attribute, value)` pair.
//!
//! `ValueIndex` stores, for every attribute `a` and value `v`, the set of
//! observations where `a = v` as a packed `u64` bitset. Support counting of a
//! value combination then becomes word-level AND + popcount. This backs the
//! **per-head** counting path of `hypermine_core`'s counting engine
//! (association tables, rule ranking, one edge at a time): evaluating
//! every head of one tail pair costs `O(heads · k² · (k−1) · m/64)` word
//! operations (one AND+popcount per `(row, head value)` combination).
//!
//! That per-head cost grows cubically with `k`, so construction instead
//! runs the **observation-major** sweep at every `k`: stream each tail
//! row's observations once (pass 1 via these bitsets, the pair pass via
//! `PairBuckets` — no intersections at all) and bump per-head value
//! counters from the row-major `ObsMatrix`, costing `O(m·heads)` per pair
//! independent of `k³` and of `m/64`; see `hypermine_core::counting` for
//! the details.
//!
//! Both of those count over a fixed window. For a
//! **sliding** window the index is maintained *incrementally* instead:
//! `hypermine_core`'s incremental row-recount fallback builds it once
//! over the window and treats observation ids as ring slots, and
//! [`ValueIndex::set_obs`] / [`ValueIndex::clear_obs`] flip exactly one
//! observation's bit per attribute in `O(n)` — the retired
//! observation's slot is reused by the appended one, so no other bit
//! moves. Support counts are
//! order-invariant, which is why slot-indexed counting matches a
//! chronological batch build bit for bit.

use crate::database::{AttrId, Database, Value};

/// Packed observation bitsets for every `(attribute, value)` pair of a
/// [`Database`].
#[derive(Debug, Clone)]
pub struct ValueIndex {
    k: usize,
    num_obs: usize,
    words: usize,
    /// Layout: `bits[(attr * k + (value-1)) * words ..][..words]`.
    bits: Vec<u64>,
}

impl ValueIndex {
    /// Builds the index in one pass over the database.
    pub fn build(db: &Database) -> Self {
        let k = db.k() as usize;
        let num_obs = db.num_obs();
        let words = num_obs.div_ceil(64);
        let mut bits = vec![0u64; db.num_attrs() * k * words];
        for a in db.attrs() {
            let col = db.column(a);
            let base = a.index() * k * words;
            for (o, &v) in col.iter().enumerate() {
                let row = base + (v as usize - 1) * words;
                bits[row + o / 64] |= 1u64 << (o % 64);
            }
        }
        ValueIndex {
            k,
            num_obs,
            words,
            bits,
        }
    }

    /// Sets observation `o`'s bit in every attribute's value bitset
    /// (`row[a]` is the value of attribute `a`). `O(n)` — one word write
    /// per attribute.
    pub fn set_obs(&mut self, o: usize, row: &[Value]) {
        debug_assert!(o < self.num_obs, "observation id out of range");
        for (a, &v) in row.iter().enumerate() {
            debug_assert!(v >= 1 && (v as usize) <= self.k);
            let base = (a * self.k + (v as usize - 1)) * self.words;
            self.bits[base + o / 64] |= 1u64 << (o % 64);
        }
    }

    /// Clears observation `o`'s bit in every attribute's value bitset;
    /// `row` must be the same values the observation was set with.
    pub fn clear_obs(&mut self, o: usize, row: &[Value]) {
        debug_assert!(o < self.num_obs, "observation id out of range");
        for (a, &v) in row.iter().enumerate() {
            debug_assert!(v >= 1 && (v as usize) <= self.k);
            let base = (a * self.k + (v as usize - 1)) * self.words;
            self.bits[base + o / 64] &= !(1u64 << (o % 64));
        }
    }

    /// Number of 64-bit words per bitset.
    #[inline]
    pub fn words(&self) -> usize {
        self.words
    }

    /// Number of observations covered by the index.
    #[inline]
    pub fn num_obs(&self) -> usize {
        self.num_obs
    }

    /// The bitset of observations where `a = v`.
    #[inline]
    pub fn bitset(&self, a: AttrId, v: Value) -> &[u64] {
        debug_assert!(v >= 1 && (v as usize) <= self.k);
        let start = (a.index() * self.k + (v as usize - 1)) * self.words;
        &self.bits[start..start + self.words]
    }

    /// `|{o : a(o) = v}|`.
    pub fn count1(&self, a: AttrId, v: Value) -> usize {
        popcount(self.bitset(a, v))
    }

    /// Writes `bitset(a,va) & bitset(b,vb)` into `dst` (length `words()`).
    pub fn intersect_into(&self, a: AttrId, va: Value, b: AttrId, vb: Value, dst: &mut [u64]) {
        debug_assert_eq!(dst.len(), self.words);
        let (x, y) = (self.bitset(a, va), self.bitset(b, vb));
        for ((d, &x), &y) in dst.iter_mut().zip(x).zip(y) {
            *d = x & y;
        }
    }

    /// Popcount of `row & bitset(c, vc)` for a caller-provided row bitset —
    /// the inner loop of ACV computation for 2-to-1 hyperedges.
    #[inline]
    pub fn count_with(&self, row: &[u64], c: AttrId, vc: Value) -> usize {
        and_popcount(row, self.bitset(c, vc))
    }
}

/// Popcount of a bitset.
#[inline]
pub(crate) fn popcount(x: &[u64]) -> usize {
    x.iter().map(|&w| w.count_ones() as usize).sum()
}

/// Popcount of the AND of two equal-length bitsets.
#[inline]
pub(crate) fn and_popcount(x: &[u64], y: &[u64]) -> usize {
    debug_assert_eq!(x.len(), y.len());
    x.iter()
        .zip(y)
        .map(|(&x, &y)| (x & y).count_ones() as usize)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::support::support_count;

    fn a(i: u32) -> AttrId {
        AttrId::new(i)
    }

    fn db() -> Database {
        Database::from_rows(
            vec!["x".into(), "y".into(), "z".into()],
            3,
            &[
                [1, 2, 3],
                [1, 2, 1],
                [2, 2, 3],
                [3, 1, 3],
                [1, 2, 3],
                [2, 3, 2],
                [1, 1, 1],
            ],
        )
        .unwrap()
    }

    #[test]
    fn counts_match_naive_support() {
        let d = db();
        let idx = ValueIndex::build(&d);
        for at in d.attrs() {
            for v in 1..=d.k() {
                assert_eq!(idx.count1(at, v), support_count(&d, &[(at, v)]));
            }
        }
        let mut row = vec![0u64; idx.words()];
        for v1 in 1..=d.k() {
            for v2 in 1..=d.k() {
                idx.intersect_into(a(0), v1, a(1), v2, &mut row);
                assert_eq!(popcount(&row), support_count(&d, &[(a(0), v1), (a(1), v2)]));
                for v3 in 1..=d.k() {
                    assert_eq!(
                        idx.count_with(&row, a(2), v3),
                        support_count(&d, &[(a(0), v1), (a(1), v2), (a(2), v3)])
                    );
                }
            }
        }
    }

    #[test]
    fn intersect_into_and_count_with() {
        let d = db();
        let idx = ValueIndex::build(&d);
        let mut row = vec![0u64; idx.words()];
        idx.intersect_into(a(0), 1, a(1), 2, &mut row);
        // Observations with x=1 ∧ y=2: rows 0, 1, 4.
        assert_eq!(popcount(&row), 3);
        // Of those, z=3 holds in rows 0 and 4.
        assert_eq!(idx.count_with(&row, a(2), 3), 2);
        assert_eq!(idx.count_with(&row, a(2), 1), 1);
        assert_eq!(idx.count_with(&row, a(2), 2), 0);
    }

    #[test]
    fn value_partition_covers_all_observations() {
        let d = db();
        let idx = ValueIndex::build(&d);
        for at in d.attrs() {
            let total: usize = (1..=d.k()).map(|v| idx.count1(at, v)).sum();
            assert_eq!(total, d.num_obs());
        }
    }

    #[test]
    fn exact_multiple_of_64_observations() {
        // 64 observations → exactly one word, no partial-word issues.
        let col: Vec<Value> = (0..64).map(|i| if i % 2 == 0 { 1 } else { 2 }).collect();
        let d = Database::from_columns(vec!["x".into()], 2, vec![col]).unwrap();
        let idx = ValueIndex::build(&d);
        assert_eq!(idx.words(), 1);
        assert_eq!(idx.count1(a(0), 1), 32);
        assert_eq!(idx.count1(a(0), 2), 32);
    }

    #[test]
    fn incremental_set_and_clear_match_a_batch_build() {
        let d = db();
        let batch = ValueIndex::build(&d);
        let mut inc = ValueIndex::build(&d);
        let row_of = |o: usize| -> Vec<Value> { d.attrs().map(|at| d.value(at, o)).collect() };
        // Clearing every observation empties the index; setting them
        // back restores the batch build.
        for o in 0..d.num_obs() {
            inc.clear_obs(o, &row_of(o));
        }
        for at in d.attrs() {
            for v in 1..=d.k() {
                assert_eq!(inc.count1(at, v), 0, "{at:?} = {v} after clearing");
            }
        }
        for o in 0..d.num_obs() {
            inc.set_obs(o, &row_of(o));
        }
        for at in d.attrs() {
            for v in 1..=d.k() {
                assert_eq!(inc.bitset(at, v), batch.bitset(at, v));
            }
        }
        // Clearing an observation removes exactly its bits.
        let row = row_of(3);
        inc.clear_obs(3, &row);
        for at in d.attrs() {
            for v in 1..=d.k() {
                let expected = batch.count1(at, v) - usize::from(d.value(at, 3) == v);
                assert_eq!(inc.count1(at, v), expected, "{at:?} = {v}");
            }
        }
        // Re-setting restores the batch state exactly.
        inc.set_obs(3, &row);
        for at in d.attrs() {
            for v in 1..=d.k() {
                assert_eq!(inc.bitset(at, v), batch.bitset(at, v));
            }
        }
    }

    #[test]
    fn empty_database_index() {
        let d = Database::from_columns(vec!["x".into()], 2, vec![vec![]]).unwrap();
        let idx = ValueIndex::build(&d);
        assert_eq!(idx.words(), 0);
        assert_eq!(idx.count1(a(0), 1), 0);
    }
}
