//! A sliding observation window over ring-buffered columns.
//!
//! The paper's flagship workload — delta series over daily closing prices
//! (Section 5.1.1) — is a *stream* in production: every new trading day
//! appends one observation and the oldest one leaves the mining window.
//! [`WindowedDatabase`] is the data-layer half of that lifecycle: a
//! fixed-capacity ring of validated observations with
//! [`append_obs`](WindowedDatabase::append_obs) /
//! [`retire_oldest`](WindowedDatabase::retire_oldest) /
//! [`advance`](WindowedDatabase::advance), exposing both **logical**
//! (chronological) and **physical** (ring-slot) addressing.
//!
//! Physical slots are what make incremental index maintenance cheap: a
//! slide reuses the retired observation's slot for the appended one, so
//! the `ValueIndex` bitsets and the `ObsMatrix` row of every *other*
//! observation are untouched — one `clear_obs`/`set_obs`/`set_row` per
//! slide instead of a full rebuild. Association confidence values are
//! counts of value combinations and therefore invariant under observation
//! order, which is why slot-indexed counting produces models bit-identical
//! to a chronological batch build (`hypermine_core`'s streaming tests
//! prove it).

use crate::database::{AttrId, Database, DatabaseError, Value};

/// One event of a gap-aware observation stream.
///
/// Real calendars have holes — market holidays, instrument outages,
/// missing lab batches. A naive sliding window silently stretches over
/// such a hole, mixing stale observations into the mining window. The
/// gap-aware protocol instead *contracts*: each [`StreamEvent::Gap`]
/// retires the oldest live observation without appending a replacement,
/// so the window keeps covering a fixed span of calendar time rather
/// than a fixed count of observed days.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamEvent<'a> {
    /// A real observation row (one value per attribute, each in `1..=k`).
    Obs(&'a [Value]),
    /// A calendar hole: no data arrived, the oldest observation ages out.
    Gap,
}

/// A fixed-capacity sliding window of observations over `n` attributes
/// with values `1..=k`, stored as ring-buffered columns.
///
/// Logical index `0` is the **oldest** live observation; logical index
/// `len − 1` the newest. [`WindowedDatabase::slot_of`] maps a logical
/// index to its physical ring slot (`0..capacity`), which stays fixed for
/// an observation's whole lifetime.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowedDatabase {
    names: Vec<String>,
    k: Value,
    capacity: usize,
    /// Ring slot of logical observation 0.
    start: usize,
    /// Number of live observations (`≤ capacity`).
    len: usize,
    /// One ring per attribute, each `capacity` slots; retired slots hold
    /// stale values and are never read through the public API.
    columns: Vec<Vec<Value>>,
}

impl WindowedDatabase {
    /// An empty window for `names.len()` attributes over values `1..=k`
    /// holding at most `capacity` observations.
    pub fn new(names: Vec<String>, k: Value, capacity: usize) -> Result<Self, DatabaseError> {
        if k == 0 {
            return Err(DatabaseError::ZeroK);
        }
        if capacity == 0 {
            return Err(DatabaseError::ZeroCapacity);
        }
        let columns = vec![vec![0 as Value; capacity]; names.len()];
        Ok(WindowedDatabase {
            names,
            k,
            capacity,
            start: 0,
            len: 0,
            columns,
        })
    }

    /// A window seeded with the **last** `min(db.num_obs(), capacity)`
    /// observations of `db`, in chronological order starting at slot 0.
    pub fn from_database(db: &Database, capacity: usize) -> Result<Self, DatabaseError> {
        let mut w = Self::new(db.attr_names().to_vec(), db.k(), capacity)?;
        let m = db.num_obs();
        let first = m.saturating_sub(capacity);
        for (a, col) in w.columns.iter_mut().enumerate() {
            let src = &db.column(AttrId::new(a as u32))[first..];
            col[..src.len()].copy_from_slice(src);
        }
        w.len = m - first;
        Ok(w)
    }

    /// Number of attributes `n`.
    #[inline]
    pub fn num_attrs(&self) -> usize {
        self.columns.len()
    }

    /// Number of live observations.
    #[inline]
    pub fn num_obs(&self) -> usize {
        self.len
    }

    /// Maximum number of live observations.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// True when another append requires retiring the oldest observation.
    #[inline]
    pub fn is_full(&self) -> bool {
        self.len == self.capacity
    }

    /// True when the window holds no observations.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The value-domain size `k`.
    #[inline]
    pub fn k(&self) -> Value {
        self.k
    }

    /// All attribute names, in column order.
    pub fn attr_names(&self) -> &[String] {
        &self.names
    }

    /// The name of attribute `a`.
    #[inline]
    pub fn attr_name(&self, a: AttrId) -> &str {
        &self.names[a.index()]
    }

    /// The physical ring slot of logical (chronological) observation
    /// `logical` (`0` = oldest live observation).
    #[inline]
    pub fn slot_of(&self, logical: usize) -> usize {
        debug_assert!(logical < self.len, "logical index out of window");
        (self.start + logical) % self.capacity
    }

    /// The value of attribute `a` in the logical (chronological)
    /// observation `logical`.
    #[inline]
    pub fn value(&self, a: AttrId, logical: usize) -> Value {
        self.columns[a.index()][self.slot_of(logical)]
    }

    /// The value of attribute `a` in the physical ring slot `slot` (which
    /// must be live).
    #[inline]
    pub fn value_at_slot(&self, a: AttrId, slot: usize) -> Value {
        self.columns[a.index()][slot]
    }

    /// Validates one observation row against the window's arity and value
    /// domain (`obs` is only used for error reporting).
    fn validate_row(&self, row: &[Value], obs: usize) -> Result<(), DatabaseError> {
        if row.len() != self.num_attrs() {
            return Err(DatabaseError::RaggedColumns {
                expected: self.num_attrs(),
                got: row.len(),
            });
        }
        for (attr, &v) in row.iter().enumerate() {
            if v == 0 || v > self.k {
                return Err(DatabaseError::ValueOutOfRange {
                    attr,
                    obs,
                    value: v,
                });
            }
        }
        Ok(())
    }

    /// Appends one observation (one value per attribute, each in `1..=k`)
    /// and returns the ring slot it landed in. Fails with
    /// [`DatabaseError::WindowFull`] when the window is at capacity —
    /// retire first, or use [`WindowedDatabase::advance`].
    pub fn append_obs(&mut self, row: &[Value]) -> Result<usize, DatabaseError> {
        if self.is_full() {
            return Err(DatabaseError::WindowFull {
                capacity: self.capacity,
            });
        }
        self.validate_row(row, self.len)?;
        let slot = (self.start + self.len) % self.capacity;
        for (col, &v) in self.columns.iter_mut().zip(row) {
            col[slot] = v;
        }
        self.len += 1;
        Ok(slot)
    }

    /// Retires the oldest observation, returning its freed ring slot
    /// (`None` on an empty window). The slot's values stay readable until
    /// the next append overwrites them.
    pub fn retire_oldest(&mut self) -> Option<usize> {
        if self.is_empty() {
            return None;
        }
        let slot = self.start;
        self.start = (self.start + 1) % self.capacity;
        self.len -= 1;
        Some(slot)
    }

    /// Slides the window: retires the oldest observation if the window is
    /// full, then appends `row`. Returns the ring slot the new observation
    /// landed in (on a full window, the slot just vacated). On a
    /// validation error the window is left unchanged.
    pub fn advance(&mut self, row: &[Value]) -> Result<usize, DatabaseError> {
        self.validate_row(row, self.len)?;
        if self.is_full() {
            self.retire_oldest();
        }
        self.append_obs(row)
    }

    /// Applies one gap-aware stream event:
    ///
    /// * [`StreamEvent::Obs`] behaves like [`WindowedDatabase::advance`] —
    ///   slide if full, else append — returning `Some(slot)`.
    /// * [`StreamEvent::Gap`] behaves like
    ///   [`WindowedDatabase::retire_oldest`] — the window *contracts* by
    ///   one, returning the freed slot, or `None` if already empty.
    ///
    /// Model maintenance mirrors the same protocol with
    /// `AssociationModel::advance` / `AssociationModel::retire_oldest`, and
    /// the retire-only path stays bit-identical to a batch rebuild of the
    /// contracted window (see the `streaming` integration tests).
    pub fn apply(&mut self, event: StreamEvent<'_>) -> Result<Option<usize>, DatabaseError> {
        match event {
            StreamEvent::Obs(row) => self.advance(row).map(Some),
            StreamEvent::Gap => Ok(self.retire_oldest()),
        }
    }

    /// Materializes the live window as a chronological [`Database`]
    /// (observation 0 = oldest).
    pub fn to_database(&self) -> Database {
        let columns = (0..self.num_attrs())
            .map(|a| {
                (0..self.len)
                    .map(|i| self.columns[a][self.slot_of(i)])
                    .collect()
            })
            .collect();
        Database::from_validated_parts(self.names.clone(), self.k, self.len, columns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a(i: u32) -> AttrId {
        AttrId::new(i)
    }

    fn window() -> WindowedDatabase {
        WindowedDatabase::new(vec!["x".into(), "y".into()], 3, 3).unwrap()
    }

    #[test]
    fn construction_guards() {
        assert_eq!(
            WindowedDatabase::new(vec!["x".into()], 0, 3),
            Err(DatabaseError::ZeroK)
        );
        assert_eq!(
            WindowedDatabase::new(vec!["x".into()], 3, 0),
            Err(DatabaseError::ZeroCapacity)
        );
        let w = window();
        assert!(w.is_empty());
        assert!(!w.is_full());
        assert_eq!(w.num_attrs(), 2);
        assert_eq!(w.capacity(), 3);
        assert_eq!(w.k(), 3);
        assert_eq!(w.attr_name(a(1)), "y");
    }

    #[test]
    fn append_validates_rows() {
        let mut w = window();
        assert_eq!(
            w.append_obs(&[1]),
            Err(DatabaseError::RaggedColumns {
                expected: 2,
                got: 1
            })
        );
        assert_eq!(
            w.append_obs(&[1, 4]),
            Err(DatabaseError::ValueOutOfRange {
                attr: 1,
                obs: 0,
                value: 4
            })
        );
        assert_eq!(
            w.append_obs(&[0, 2]),
            Err(DatabaseError::ValueOutOfRange {
                attr: 0,
                obs: 0,
                value: 0
            })
        );
        assert!(w.is_empty(), "failed appends leave the window unchanged");
    }

    #[test]
    fn append_retire_and_wraparound() {
        let mut w = window();
        assert_eq!(w.append_obs(&[1, 1]).unwrap(), 0);
        assert_eq!(w.append_obs(&[2, 2]).unwrap(), 1);
        assert_eq!(w.append_obs(&[3, 3]).unwrap(), 2);
        assert!(w.is_full());
        assert_eq!(
            w.append_obs(&[1, 1]),
            Err(DatabaseError::WindowFull { capacity: 3 })
        );
        // Retire frees slot 0; the next append reuses it.
        assert_eq!(w.retire_oldest(), Some(0));
        assert_eq!(w.num_obs(), 2);
        assert_eq!(w.value(a(0), 0), 2, "logical 0 is now the old second obs");
        assert_eq!(w.append_obs(&[1, 2]).unwrap(), 0);
        // Logical order: [2,2], [3,3], [1,2]; slots 1, 2, 0.
        assert_eq!(w.slot_of(0), 1);
        assert_eq!(w.slot_of(2), 0);
        assert_eq!(w.value(a(1), 2), 2);
        assert_eq!(w.value_at_slot(a(0), 0), 1);
    }

    #[test]
    fn advance_slides_a_full_window() {
        let mut w = window();
        for v in 1..=3 {
            w.append_obs(&[v, v]).unwrap();
        }
        // advance on a full window reuses the vacated slot.
        assert_eq!(w.advance(&[1, 3]).unwrap(), 0);
        assert!(w.is_full());
        let d = w.to_database();
        assert_eq!(d.column(a(0)), &[2, 3, 1]);
        assert_eq!(d.column(a(1)), &[2, 3, 3]);
        // advance on a non-full window is a plain append.
        let mut w2 = window();
        w2.append_obs(&[1, 1]).unwrap();
        assert_eq!(w2.advance(&[2, 2]).unwrap(), 1);
        assert_eq!(w2.num_obs(), 2);
        // A failed advance leaves a full window intact.
        assert!(w.advance(&[9, 1]).is_err());
        assert_eq!(w.num_obs(), 3);
        assert_eq!(w.to_database().column(a(0)), &[2, 3, 1]);
    }

    #[test]
    fn retire_on_empty_window() {
        let mut w = window();
        assert_eq!(w.retire_oldest(), None);
    }

    #[test]
    fn apply_drives_gap_contraction_across_wraparound() {
        let mut w = window();
        for v in 1..=3 {
            w.append_obs(&[v, v]).unwrap();
        }
        // Slide once so the ring start has wrapped past slot 0.
        assert_eq!(w.apply(StreamEvent::Obs(&[1, 2])).unwrap(), Some(0));
        assert_eq!(w.slot_of(0), 1);
        // Two calendar gaps: the window contracts across the wrap boundary.
        assert_eq!(w.apply(StreamEvent::Gap).unwrap(), Some(1));
        assert_eq!(w.apply(StreamEvent::Gap).unwrap(), Some(2));
        assert_eq!(w.num_obs(), 1);
        assert_eq!(w.to_database().column(a(0)), &[1]);
        // An Obs after contraction is a plain append (window not full).
        assert_eq!(w.apply(StreamEvent::Obs(&[3, 3])).unwrap(), Some(1));
        assert_eq!(w.num_obs(), 2);
        // Contract to empty; a Gap on an empty window is a no-op.
        assert_eq!(w.apply(StreamEvent::Gap).unwrap(), Some(0));
        assert_eq!(w.apply(StreamEvent::Gap).unwrap(), Some(1));
        assert_eq!(w.apply(StreamEvent::Gap).unwrap(), None);
        // Validation errors pass through and leave the window unchanged.
        assert!(w.apply(StreamEvent::Obs(&[9, 1])).is_err());
        assert!(w.is_empty());
    }

    #[test]
    fn seeding_from_a_database_keeps_the_tail() {
        let d = Database::from_rows(
            vec!["x".into(), "y".into()],
            3,
            &[[1, 1], [2, 2], [3, 3], [1, 2], [2, 1]],
        )
        .unwrap();
        // Capacity larger than the database: everything fits, not full.
        let w = WindowedDatabase::from_database(&d, 8).unwrap();
        assert_eq!(w.num_obs(), 5);
        assert!(!w.is_full());
        assert_eq!(w.to_database(), d);
        // Capacity smaller: only the last `capacity` observations survive.
        let w = WindowedDatabase::from_database(&d, 3).unwrap();
        assert_eq!(w.num_obs(), 3);
        assert!(w.is_full());
        assert_eq!(w.to_database(), d.slice_obs(2..5));
    }

    #[test]
    fn to_database_round_trips_chronological_order_after_wrap() {
        let mut w = window();
        for v in 1..=3 {
            w.append_obs(&[v, (v % 3) + 1]).unwrap();
        }
        for v in [2, 3] {
            w.advance(&[v, v]).unwrap();
        }
        let d = w.to_database();
        assert_eq!(d.column(a(0)), &[3, 2, 3]);
        assert_eq!(d.column(a(1)), &[1, 2, 3]);
        assert_eq!(d.num_obs(), 3);
        assert_eq!(d.k(), 3);
        assert_eq!(d.attr_names(), w.attr_names());
    }
}
