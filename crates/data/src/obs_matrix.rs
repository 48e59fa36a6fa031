//! Row-major observation code matrix and pair-row observation buckets.
//!
//! [`Database`] stores columns contiguously, which is what the per-value
//! bitsets want. The observation-major counting sweeps instead stream
//! whole observations: for each observation in a tail row they read
//! the value of *every* candidate head attribute. [`ObsMatrix`] is the
//! cache-friendly transpose supporting that access pattern — an `m × n`
//! byte matrix whose row `o` holds observation `o`'s value for every
//! attribute, so one sweep touches `n` contiguous bytes per observation.
//!
//! [`SlotMatrix`] precomputes the counting sweeps' *addressing* on top of
//! that transpose: the multi-head bump loop increments
//! `counts[head · stride + (value − 1)]`, and since that slot index
//! depends only on `(head, value)` — never on the swept tail — it can be
//! materialized once per database as an `m × n` matrix of integer lanes
//! (`u16` where every slot fits 16 bits, `u32` beyond; see
//! [`SlotLane`]). The inner loop then reads one contiguous stripe per
//! observation and increments `counts[slot]` directly: no per-head
//! multiply, no byte widening, no segment branches, which is what lets
//! the hot pass-2 loop run several observations' stripes in lockstep.
//!
//! [`PairBuckets`] complements both for the pair pass: the
//! observation-major sweep over a tail pair `{a, b}` only needs to know
//! *which* observations fall into each `(v_a, v_b)` row, not the row
//! bitsets themselves. One counting-sort pass over the two value columns
//! groups the `m` obs ids by row into a reusable CSR layout — `O(m + k²)`
//! with no per-pair allocation once the scratch is warm, versus the `k²`
//! bitset intersections (`k²·m/64` words) of a `PairRows` build.

use crate::database::{AttrId, Database, Value};

/// Row-major `m × n` value matrix of a [`Database`]: `row(o)[a.index()]`
/// is the value of attribute `a` in observation `o`.
#[derive(Debug, Clone)]
pub struct ObsMatrix {
    num_attrs: usize,
    num_obs: usize,
    /// Layout: `codes[o * num_attrs + attr]`.
    codes: Vec<Value>,
}

impl ObsMatrix {
    /// Transposes the database in one pass over its columns.
    pub fn build(db: &Database) -> Self {
        Self::build_with_capacity(db, db.num_obs())
    }

    /// [`ObsMatrix::build`] into a matrix of `num_obs ≥ db.num_obs()`
    /// rows; the rows past the database hold the invalid value 0 until
    /// [`ObsMatrix::set_row`] fills them — scratch rows a sliding window
    /// can count alongside its live observations.
    pub fn build_with_capacity(db: &Database, num_obs: usize) -> Self {
        assert!(num_obs >= db.num_obs(), "capacity below the database size");
        let num_attrs = db.num_attrs();
        let mut codes = vec![0 as Value; num_attrs * num_obs];
        for a in db.attrs() {
            let col = db.column(a);
            let ai = a.index();
            for (o, &v) in col.iter().enumerate() {
                codes[o * num_attrs + ai] = v;
            }
        }
        ObsMatrix {
            num_attrs,
            num_obs,
            codes,
        }
    }

    /// Overwrites observation `o`'s row (`row[a]` is attribute `a`'s
    /// value). `O(n)` — one contiguous byte copy.
    pub fn set_row(&mut self, o: usize, row: &[Value]) {
        assert_eq!(row.len(), self.num_attrs, "row has wrong arity");
        self.codes[o * self.num_attrs..(o + 1) * self.num_attrs].copy_from_slice(row);
    }

    /// Number of attributes `n` (row width).
    #[inline]
    pub fn num_attrs(&self) -> usize {
        self.num_attrs
    }

    /// Number of observations `m` (row count).
    #[inline]
    pub fn num_obs(&self) -> usize {
        self.num_obs
    }

    /// Observation `o`'s values, one byte per attribute.
    #[inline]
    pub fn row(&self, o: usize) -> &[Value] {
        &self.codes[o * self.num_attrs..(o + 1) * self.num_attrs]
    }

    /// The whole row-major code matrix (`codes[o * num_attrs + attr]`) —
    /// the input of the vertical dense-row counting kernel, which walks
    /// many observations' rows at vector width and needs the backing
    /// slice rather than one `row` borrow at a time.
    #[inline]
    pub fn codes(&self) -> &[Value] {
        &self.codes
    }
}

/// The counter-array stride per head for domain size `k`: `k` rounded
/// up to a multiple of four lanes, shared between the slot values a
/// [`SlotMatrix`] stores and the counter arrays indexed by them, so
/// every head's counter chunk is lane-aligned and a vector max over the
/// full chunk covers whole registers at every `k`.
#[inline]
pub fn counter_stride(k: usize) -> usize {
    k.div_ceil(4) * 4
}

/// The integer width of a [`SlotMatrix`]'s lanes: `u16` or `u32`.
pub trait SlotLane: Copy + Send + Sync + std::fmt::Debug + 'static {
    /// How many slot indices a lane holds: `2^16` for `u16`, `2^32` for
    /// `u32`.
    const SLOTS: u64;
    /// The lane holding slot index `slot`, which must be below
    /// [`SlotLane::SLOTS`].
    fn from_slot(slot: usize) -> Self;
    /// The slot index this lane holds.
    fn index(self) -> usize;
}

impl SlotLane for u16 {
    const SLOTS: u64 = 1 << 16;

    #[inline]
    fn from_slot(slot: usize) -> Self {
        slot as u16
    }

    #[inline]
    fn index(self) -> usize {
        self as usize
    }
}

impl SlotLane for u32 {
    const SLOTS: u64 = 1 << 32;

    #[inline]
    fn from_slot(slot: usize) -> Self {
        slot as u32
    }

    #[inline]
    fn index(self) -> usize {
        self as usize
    }
}

/// Row-major `m × n` matrix of precomputed counter-slot indices:
/// `row(o)[h]` is `h · stride + (value(h, o) − 1)`, the slot the
/// multi-head bump loop increments for head `h` of observation `o`,
/// where `stride` is `k` rounded up to a multiple of four
/// ([`counter_stride`]) so every head's counter chunk is lane-aligned
/// and the fold's per-head max reduction runs over even vector lanes at
/// every `k` (the padding lanes are never bumped and stay zero).
///
/// Slots are stored in lanes of `L` ([`SlotLane`]), which must hold
/// every slot index: `n · stride ≤ 65536` for `u16`, `≤ 2^32` for
/// `u32`. Every counting sweep then reads one contiguous stripe per
/// observation instead of widening bytes and multiplying per head.
#[derive(Debug, Clone)]
pub struct SlotMatrix<L> {
    num_attrs: usize,
    num_obs: usize,
    k: usize,
    /// Layout: `slots[o * num_attrs + h] = h·stride + (value − 1)`.
    slots: Vec<L>,
}

impl<L: SlotLane> SlotMatrix<L> {
    /// Whether every slot of a `num_attrs`-attribute database over
    /// `1..=k` fits a lane of `L`: `num_attrs · stride ≤ L::SLOTS`.
    pub fn fits(num_attrs: usize, k: usize) -> bool {
        num_attrs
            .checked_mul(counter_stride(k))
            .is_some_and(|s| s as u64 <= L::SLOTS)
    }

    /// Builds the slot matrix in one pass over the database's columns,
    /// into `num_obs ≥ db.num_obs()` rows, mirroring
    /// [`ObsMatrix::build_with_capacity`]: the rows past the database
    /// hold slot 0 until [`SlotMatrix::set_row`] fills them.
    ///
    /// # Panics
    /// Panics when `num_obs < db.num_obs()`, and when the slots do not
    /// fit a lane of `L` ([`SlotMatrix::fits`]). For `u32` that takes
    /// `n · stride > 2^32`: at least 16.7 M attributes even at
    /// `k = 255`, a universe no build over its Θ(n²) attribute pairs
    /// could finish.
    pub fn build_with_capacity(db: &Database, num_obs: usize) -> Self {
        assert!(num_obs >= db.num_obs(), "capacity below the database size");
        let num_attrs = db.num_attrs();
        let k = db.k() as usize;
        let stride = counter_stride(k);
        assert!(
            Self::fits(num_attrs, k),
            "{num_attrs} attributes at counter stride {stride} overflow {}-bit slot lanes; \
             no build over that many attribute pairs can finish",
            8 * std::mem::size_of::<L>()
        );
        let mut slots = vec![L::from_slot(0); num_attrs * num_obs];
        for a in db.attrs() {
            let ai = a.index();
            let base = ai * stride;
            for (o, &v) in db.column(a).iter().enumerate() {
                slots[o * num_attrs + ai] = L::from_slot(base + (v as usize - 1));
            }
        }
        SlotMatrix {
            num_attrs,
            num_obs,
            k,
            slots,
        }
    }

    /// Overwrites observation `o`'s slot row from its values (`row[h]` is
    /// head `h`'s value, in `1..=k`), as [`ObsMatrix::set_row`] does for
    /// the codes. `O(n)`.
    pub fn set_row(&mut self, o: usize, row: &[Value]) {
        assert_eq!(row.len(), self.num_attrs, "row has wrong arity");
        let stride = counter_stride(self.k);
        let dst = &mut self.slots[o * self.num_attrs..(o + 1) * self.num_attrs];
        for (h, (s, &v)) in dst.iter_mut().zip(row).enumerate() {
            *s = L::from_slot(h * stride + (v as usize - 1));
        }
    }

    /// Number of attributes `n` (row width).
    #[inline]
    pub fn num_attrs(&self) -> usize {
        self.num_attrs
    }

    /// Number of observations `m` (row count).
    #[inline]
    pub fn num_obs(&self) -> usize {
        self.num_obs
    }

    /// The value-domain size `k` the slots were computed for.
    #[inline]
    pub fn k(&self) -> usize {
        self.k
    }

    /// Observation `o`'s slot stripe, one lane per attribute.
    #[inline]
    pub fn row(&self, o: usize) -> &[L] {
        &self.slots[o * self.num_attrs..(o + 1) * self.num_attrs]
    }

    /// The sub-stripe of observation `o` covering heads `h0..h1` (the
    /// input of one head-tile bump pass).
    #[inline]
    pub fn stripe(&self, o: usize, h0: usize, h1: usize) -> &[L] {
        &self.slots[o * self.num_attrs + h0..o * self.num_attrs + h1]
    }
}

/// Observation ids of a tail pair `{a, b}` grouped by `(v_a, v_b)` row —
/// the PairRows-free input of the observation-major pair sweep.
///
/// Rows are stored in one CSR-style layout: `row((va−1)·k + (vb−1))` is
/// the ascending slice of obs ids with `a = va ∧ b = vb`. The struct is a
/// reusable scratch: allocate once per worker thread with
/// [`PairBuckets::new`] and refill per pair with [`PairBuckets::rebuild`]
/// (one counting-sort pass over the two value columns, no allocation once
/// the buffers are warm).
#[derive(Debug, Clone)]
pub struct PairBuckets {
    a: AttrId,
    b: AttrId,
    k: usize,
    /// CSR offsets: row `r` (`r = (v_a−1)·k + (v_b−1)`) spans
    /// `obs[starts[r] as usize..starts[r + 1] as usize]`.
    starts: Vec<u32>,
    /// Obs ids grouped by row, ascending within each row.
    obs: Vec<u32>,
    /// Placement cursors for the counting sort (scratch).
    cursor: Vec<u32>,
}

impl Default for PairBuckets {
    fn default() -> Self {
        Self::new()
    }
}

impl PairBuckets {
    /// An empty scratch; fill it with [`PairBuckets::rebuild`].
    pub fn new() -> Self {
        PairBuckets {
            a: AttrId::new(0),
            b: AttrId::new(0),
            k: 0,
            starts: Vec::new(),
            obs: Vec::new(),
            cursor: Vec::new(),
        }
    }

    /// Regroups the scratch for the pair `{a, b}` of `db` (`a ≠ b`):
    /// one counting-sort pass over the two value columns.
    ///
    /// # Panics
    /// Panics if `a == b`.
    pub fn rebuild(&mut self, db: &Database, a: AttrId, b: AttrId) {
        assert_ne!(a, b, "pair attributes must differ");
        let k = db.k() as usize;
        let m = db.num_obs();
        assert!(m <= u32::MAX as usize, "obs ids are stored as u32");
        let (ca, cb) = (db.column(a), db.column(b));
        self.a = a;
        self.b = b;
        self.k = k;
        self.starts.clear();
        self.starts.resize(k * k + 1, 0);
        for (&va, &vb) in ca.iter().zip(cb) {
            self.starts[(va as usize - 1) * k + (vb as usize - 1) + 1] += 1;
        }
        for r in 1..=k * k {
            self.starts[r] += self.starts[r - 1];
        }
        self.cursor.clear();
        self.cursor.extend_from_slice(&self.starts[..k * k]);
        self.obs.clear();
        self.obs.resize(m, 0);
        for (o, (&va, &vb)) in ca.iter().zip(cb).enumerate() {
            let r = (va as usize - 1) * k + (vb as usize - 1);
            self.obs[self.cursor[r] as usize] = o as u32;
            self.cursor[r] += 1;
        }
    }

    /// The pair these buckets were last built for.
    #[inline]
    pub fn pair(&self) -> (AttrId, AttrId) {
        (self.a, self.b)
    }

    /// The value-domain size `k` the buckets were last built for.
    #[inline]
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of bucketed observations.
    #[inline]
    pub fn num_obs(&self) -> usize {
        self.obs.len()
    }

    /// Number of `(v_a, v_b)` rows (`k²`).
    #[inline]
    pub fn num_rows(&self) -> usize {
        self.k * self.k
    }

    /// The ascending obs ids of row index `r` (`r = (v_a−1)·k + (v_b−1)`).
    #[inline]
    pub fn row(&self, r: usize) -> &[u32] {
        &self.obs[self.starts[r] as usize..self.starts[r + 1] as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transpose_matches_database() {
        let db = Database::from_rows(
            vec!["x".into(), "y".into(), "z".into()],
            3,
            &[[1, 2, 3], [3, 1, 2], [2, 2, 1]],
        )
        .unwrap();
        let m = ObsMatrix::build(&db);
        assert_eq!(m.num_attrs(), 3);
        assert_eq!(m.num_obs(), 3);
        assert_eq!(m.row(0), &[1, 2, 3]);
        assert_eq!(m.row(1), &[3, 1, 2]);
        assert_eq!(m.row(2), &[2, 2, 1]);
        for a in db.attrs() {
            for o in 0..db.num_obs() {
                assert_eq!(m.row(o)[a.index()], db.value(a, o));
            }
        }
    }

    #[test]
    fn empty_database() {
        let db = Database::from_columns(vec!["x".into()], 2, vec![vec![]]).unwrap();
        let m = ObsMatrix::build(&db);
        assert_eq!(m.num_obs(), 0);
        assert_eq!(m.num_attrs(), 1);
    }

    #[test]
    fn spare_rows_follow_the_transpose() {
        let db = Database::from_rows(vec!["x".into(), "y".into()], 3, &[[1, 2], [3, 1]]).unwrap();
        let mut m = ObsMatrix::build_with_capacity(&db, 3);
        assert_eq!(m.num_obs(), 3);
        assert_eq!(m.row(0), &[1, 2]);
        assert_eq!(m.row(1), &[3, 1]);
        assert_eq!(m.row(2), &[0, 0], "spare rows hold the invalid 0");
        m.set_row(2, &[2, 2]);
        assert_eq!(&m.codes()[4..], &[2, 2]);
    }

    #[test]
    fn incremental_row_writes_match_a_batch_transpose() {
        let db = Database::from_rows(
            vec!["x".into(), "y".into(), "z".into()],
            3,
            &[[1, 2, 3], [3, 1, 2], [2, 2, 1]],
        )
        .unwrap();
        let batch = ObsMatrix::build(&db);
        let mut inc = ObsMatrix::build(&db);
        // Rows written in another order land where they belong.
        for o in [2, 0, 1] {
            inc.set_row(o, &[1, 1, 1]);
        }
        for o in [1, 2, 0] {
            let row: Vec<Value> = db.attrs().map(|a| db.value(a, o)).collect();
            inc.set_row(o, &row);
        }
        for o in 0..3 {
            assert_eq!(inc.row(o), batch.row(o));
        }
        // Overwriting replaces exactly one row.
        inc.set_row(1, &[1, 1, 1]);
        assert_eq!(inc.row(1), &[1, 1, 1]);
        assert_eq!(inc.row(0), batch.row(0));
        assert_eq!(inc.row(2), batch.row(2));
    }

    fn a(i: u32) -> AttrId {
        AttrId::new(i)
    }

    /// The ascending obs ids with `a = va ∧ b = vb` (1-based values).
    fn row_of(buckets: &PairBuckets, va: usize, vb: usize) -> &[u32] {
        buckets.row((va - 1) * buckets.k() + (vb - 1))
    }

    #[test]
    fn slot_matrix_points_at_padded_counter_slots() {
        let db = Database::from_rows(
            vec!["x".into(), "y".into(), "z".into()],
            3,
            &[[1, 2, 3], [3, 1, 2], [2, 2, 1]],
        )
        .unwrap();
        let m = SlotMatrix::<u16>::build_with_capacity(&db, db.num_obs());
        assert_eq!((m.num_attrs(), m.num_obs(), m.k()), (3, 3, 3));
        let stride = counter_stride(3);
        assert_eq!(stride, 4);
        for o in 0..db.num_obs() {
            for h in db.attrs() {
                assert_eq!(
                    m.row(o)[h.index()].index(),
                    h.index() * stride + db.value(h, o) as usize - 1,
                    "obs {o}, head {h:?}"
                );
            }
            // Stripes are sub-slices of the row.
            assert_eq!(m.stripe(o, 1, 3), &m.row(o)[1..3]);
        }
    }

    #[test]
    fn slot_matrix_declines_past_the_u16_slot_range() {
        // 16385 attrs x stride 4 (k = 3) = 65540 > 65536; one fewer fits.
        assert!(!SlotMatrix::<u16>::fits(16385, 3));
        assert!(SlotMatrix::<u16>::fits(16384, 3));
        assert!(SlotMatrix::<u32>::fits(16385, 3));
        // 2^24 attrs x stride 256 (k = 255) = 2^32 still fits u32 lanes.
        assert!(SlotMatrix::<u32>::fits(1 << 24, 255));
        assert!(!SlotMatrix::<u32>::fits((1 << 24) + 1, 255));
        assert!(
            !SlotMatrix::<u32>::fits(usize::MAX, 3),
            "overflow is not a fit"
        );
        let db = Database::from_columns(
            (0..16385).map(|i| format!("A{i}")).collect(),
            3,
            vec![vec![1, 2]; 16385],
        )
        .unwrap();
        let built =
            std::panic::catch_unwind(|| SlotMatrix::<u16>::build_with_capacity(&db, db.num_obs()));
        assert!(built.is_err(), "a u16 build past the slot range panics");
        assert_eq!(counter_stride(255), 256);
        assert_eq!(counter_stride(8), 8);
        assert_eq!(counter_stride(5), 8);
    }

    #[test]
    fn wide_slot_matrix_matches_the_u16_matrix_where_both_exist() {
        let db = Database::from_rows(
            vec!["x".into(), "y".into(), "z".into()],
            3,
            &[[1, 2, 3], [3, 1, 2], [2, 2, 1]],
        )
        .unwrap();
        let narrow = SlotMatrix::<u16>::build_with_capacity(&db, db.num_obs());
        let wide = SlotMatrix::<u32>::build_with_capacity(&db, db.num_obs());
        assert_eq!(
            (wide.num_attrs(), wide.num_obs(), wide.k()),
            (narrow.num_attrs(), narrow.num_obs(), narrow.k())
        );
        for o in 0..db.num_obs() {
            let n16: Vec<u32> = narrow.row(o).iter().map(|&s| s as u32).collect();
            assert_eq!(wide.row(o), &n16[..]);
            assert_eq!(wide.stripe(o, 1, 3), &wide.row(o)[1..3]);
        }
    }

    #[test]
    fn wide_slot_matrix_exists_past_the_u16_range() {
        // 16385 attrs x stride 4 is past the u16 lanes but not the u32.
        let db = Database::from_columns(
            (0..16385).map(|i| format!("A{i}")).collect(),
            3,
            vec![vec![1, 2]; 16385],
        )
        .unwrap();
        let wide = SlotMatrix::<u32>::build_with_capacity(&db, db.num_obs());
        let stride = counter_stride(3);
        assert_eq!(wide.row(0)[16384], (16384 * stride) as u32);
        assert_eq!(wide.row(1)[0], 1);
    }

    /// Rows written one by one into a matrix built with spare capacity —
    /// including the spare row past the database — equal a batch build
    /// over the same rows, at both lane widths.
    fn row_writes_match_a_batch_build<L: SlotLane + PartialEq>() {
        let rows = [[1, 2, 3], [3, 1, 2], [2, 2, 1], [3, 3, 1]];
        let names = vec!["x".into(), "y".into(), "z".into()];
        let full = Database::from_rows(names.clone(), 3, &rows).unwrap();
        let batch = SlotMatrix::<L>::build_with_capacity(&full, full.num_obs());
        let seeded = Database::from_rows(names, 3, &rows[..3]).unwrap();
        let mut inc = SlotMatrix::<L>::build_with_capacity(&seeded, 4);
        assert_eq!((inc.num_attrs(), inc.num_obs(), inc.k()), (3, 4, 3));
        assert!(
            inc.row(3).iter().all(|s| s.index() == 0),
            "spare holds slot 0"
        );
        inc.set_row(3, &rows[3]);
        for o in 0..4 {
            assert_eq!(inc.row(o), batch.row(o), "row {o}");
        }
        // Overwriting replaces exactly one row.
        inc.set_row(1, &rows[0]);
        assert_eq!(inc.row(1), batch.row(0));
        assert_eq!(inc.row(0), batch.row(0));
        assert_eq!(inc.row(2), batch.row(2));
    }

    #[test]
    fn slot_row_writes_match_a_batch_build() {
        row_writes_match_a_batch_build::<u16>();
        row_writes_match_a_batch_build::<u32>();
    }

    #[test]
    fn pair_buckets_partition_the_observations() {
        let db = Database::from_rows(
            vec!["x".into(), "y".into(), "z".into()],
            3,
            &[
                [1, 1, 2],
                [1, 2, 1],
                [2, 2, 3],
                [3, 1, 3],
                [1, 2, 3],
                [2, 3, 2],
                [1, 1, 1],
                [2, 2, 3],
            ],
        )
        .unwrap();
        let mut buckets = PairBuckets::new();
        buckets.rebuild(&db, a(0), a(1));
        assert_eq!(buckets.pair(), (a(0), a(1)));
        assert_eq!(buckets.k(), 3);
        assert_eq!(buckets.num_rows(), 9);
        assert_eq!(buckets.num_obs(), db.num_obs());
        // Rows against the fixture: x=1∧y=1 → obs {0, 6}; x=2∧y=2 → {2, 7}.
        assert_eq!(row_of(&buckets, 1, 1), &[0, 6]);
        assert_eq!(row_of(&buckets, 1, 2), &[1, 4]);
        assert_eq!(row_of(&buckets, 2, 2), &[2, 7]);
        assert_eq!(row_of(&buckets, 3, 3), &[] as &[u32]);
        // Every observation lands in exactly the row its values name, rows
        // partition 0..m, and ids ascend within each row.
        let mut seen = vec![false; db.num_obs()];
        for r in 0..buckets.num_rows() {
            let ids = buckets.row(r);
            assert!(ids.windows(2).all(|w| w[0] < w[1]), "row {r} not ascending");
            for &o in ids {
                let o = o as usize;
                assert!(!seen[o]);
                seen[o] = true;
                let va = db.value(a(0), o) as usize;
                let vb = db.value(a(1), o) as usize;
                assert_eq!(r, (va - 1) * 3 + (vb - 1));
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn pair_buckets_scratch_is_reusable_across_pairs_and_k() {
        let db1 = Database::from_columns(
            vec!["x".into(), "y".into()],
            2,
            vec![vec![1, 2, 1, 2], vec![2, 2, 1, 1]],
        )
        .unwrap();
        let db2 = Database::from_columns(
            vec!["x".into(), "y".into()],
            4,
            vec![vec![4, 1, 3], vec![1, 4, 2]],
        )
        .unwrap();
        let mut buckets = PairBuckets::new();
        buckets.rebuild(&db1, a(0), a(1));
        assert_eq!(row_of(&buckets, 1, 2), &[0]);
        assert_eq!(row_of(&buckets, 2, 1), &[3]);
        // Refill with a larger k: previous contents must not leak through.
        buckets.rebuild(&db2, a(1), a(0));
        assert_eq!(buckets.pair(), (a(1), a(0)));
        assert_eq!(buckets.k(), 4);
        assert_eq!(buckets.num_rows(), 16);
        assert_eq!(row_of(&buckets, 1, 4), &[0]);
        assert_eq!(row_of(&buckets, 4, 1), &[1]);
        assert_eq!(row_of(&buckets, 2, 3), &[2]);
        let total: usize = (0..16).map(|r| buckets.row(r).len()).sum();
        assert_eq!(total, 3);
    }

    #[test]
    fn pair_buckets_on_empty_database() {
        let db =
            Database::from_columns(vec!["x".into(), "y".into()], 2, vec![vec![], vec![]]).unwrap();
        let mut buckets = PairBuckets::new();
        buckets.rebuild(&db, a(0), a(1));
        assert_eq!(buckets.num_obs(), 0);
        for r in 0..buckets.num_rows() {
            assert!(buckets.row(r).is_empty());
        }
    }

    #[test]
    #[should_panic(expected = "must differ")]
    fn pair_buckets_reject_self_pair() {
        let db = Database::from_columns(vec!["x".into()], 2, vec![vec![1, 2]]).unwrap();
        PairBuckets::new().rebuild(&db, a(0), a(0));
    }
}
