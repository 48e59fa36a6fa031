//! The columnar multi-valued attribute database.

use std::fmt;

/// A discrete attribute value. The paper fixes `V = {1, 2, …, k}`; value `0`
/// is reserved as invalid.
pub type Value = u8;

/// Identifier of an attribute (a column of the database; a node of the
/// association hypergraph).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AttrId(u32);

impl AttrId {
    /// Creates an attribute id from a raw column index.
    #[inline]
    pub fn new(index: u32) -> Self {
        AttrId(index)
    }

    /// The raw column index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The raw `u32` value.
    #[inline]
    pub fn raw(self) -> u32 {
        self.0
    }
}

impl fmt::Display for AttrId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "A{}", self.0)
    }
}

/// Errors raised while constructing a [`Database`] or appending an
/// observation to one ([`Database::append_obs`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DatabaseError {
    /// A value was 0 or exceeded `k`.
    ValueOutOfRange {
        attr: usize,
        obs: usize,
        value: Value,
    },
    /// Column lengths disagree (or an appended observation row had the
    /// wrong number of values).
    RaggedColumns { expected: usize, got: usize },
    /// The number of names differs from the number of columns.
    NameCountMismatch { names: usize, columns: usize },
    /// `k` was zero.
    ZeroK,
}

impl fmt::Display for DatabaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DatabaseError::ValueOutOfRange { attr, obs, value } => write!(
                f,
                "value {value} at attribute {attr}, observation {obs} is outside 1..=k"
            ),
            DatabaseError::RaggedColumns { expected, got } => {
                write!(f, "column length {got} differs from expected {expected}")
            }
            DatabaseError::NameCountMismatch { names, columns } => {
                write!(f, "{names} names given for {columns} columns")
            }
            DatabaseError::ZeroK => write!(f, "k (the value-domain size) must be at least 1"),
        }
    }
}

impl std::error::Error for DatabaseError {}

/// A database `D(A, O, V)`: `n` attributes × `m` observations over values
/// `1..=k`, stored column-major (one contiguous `Vec<Value>` per attribute)
/// so the counting layer can stream whole columns.
#[derive(Debug, Clone, PartialEq)]
pub struct Database {
    names: Vec<String>,
    k: Value,
    num_obs: usize,
    columns: Vec<Vec<Value>>,
}

impl Database {
    /// Builds a database from per-attribute columns.
    ///
    /// Every value must lie in `1..=k`; all columns must have equal length;
    /// `names.len()` must equal `columns.len()`.
    pub fn from_columns(
        names: Vec<String>,
        k: Value,
        columns: Vec<Vec<Value>>,
    ) -> Result<Self, DatabaseError> {
        if k == 0 {
            return Err(DatabaseError::ZeroK);
        }
        if names.len() != columns.len() {
            return Err(DatabaseError::NameCountMismatch {
                names: names.len(),
                columns: columns.len(),
            });
        }
        let num_obs = columns.first().map_or(0, Vec::len);
        for (a, col) in columns.iter().enumerate() {
            if col.len() != num_obs {
                return Err(DatabaseError::RaggedColumns {
                    expected: num_obs,
                    got: col.len(),
                });
            }
            for (o, &v) in col.iter().enumerate() {
                if v == 0 || v > k {
                    return Err(DatabaseError::ValueOutOfRange {
                        attr: a,
                        obs: o,
                        value: v,
                    });
                }
            }
        }
        Ok(Database {
            names,
            k,
            num_obs,
            columns,
        })
    }

    /// Builds a database from observation rows (each row one value per
    /// attribute). Convenient for literal test fixtures.
    pub fn from_rows<const N: usize>(
        names: Vec<String>,
        k: Value,
        rows: &[[Value; N]],
    ) -> Result<Self, DatabaseError> {
        let mut columns = vec![Vec::with_capacity(rows.len()); N];
        for row in rows {
            for (c, &v) in row.iter().enumerate() {
                columns[c].push(v);
            }
        }
        Self::from_columns(names, k, columns)
    }

    /// Number of attributes `n = |A|`.
    #[inline]
    pub fn num_attrs(&self) -> usize {
        self.columns.len()
    }

    /// Number of observations `m = |O|`.
    #[inline]
    pub fn num_obs(&self) -> usize {
        self.num_obs
    }

    /// The value-domain size `k = |V|`.
    #[inline]
    pub fn k(&self) -> Value {
        self.k
    }

    /// All attribute ids.
    pub fn attrs(&self) -> impl Iterator<Item = AttrId> + '_ {
        (0..self.columns.len() as u32).map(AttrId::new)
    }

    /// The column of attribute `a`.
    #[inline]
    pub fn column(&self, a: AttrId) -> &[Value] {
        &self.columns[a.index()]
    }

    /// The value of attribute `a` in observation `o`.
    #[inline]
    pub fn value(&self, a: AttrId, o: usize) -> Value {
        self.columns[a.index()][o]
    }

    /// The name of attribute `a`.
    #[inline]
    pub fn attr_name(&self, a: AttrId) -> &str {
        &self.names[a.index()]
    }

    /// All attribute names, in column order.
    pub fn attr_names(&self) -> &[String] {
        &self.names
    }

    /// Looks up an attribute by name (linear scan; databases have at most a
    /// few hundred attributes in this workspace).
    pub fn attr_by_name(&self, name: &str) -> Option<AttrId> {
        self.names
            .iter()
            .position(|n| n == name)
            .map(|i| AttrId::new(i as u32))
    }

    /// Appends one observation row (one value per attribute, each in
    /// `1..=k`). The streaming model uses this (with
    /// [`Database::retire_oldest_obs`]) to slide its training database in
    /// place instead of rematerializing it.
    pub fn append_obs(&mut self, row: &[Value]) -> Result<(), DatabaseError> {
        if row.len() != self.columns.len() {
            return Err(DatabaseError::RaggedColumns {
                expected: self.columns.len(),
                got: row.len(),
            });
        }
        for (attr, &v) in row.iter().enumerate() {
            if v == 0 || v > self.k {
                return Err(DatabaseError::ValueOutOfRange {
                    attr,
                    obs: self.num_obs,
                    value: v,
                });
            }
        }
        for (col, &v) in self.columns.iter_mut().zip(row) {
            col.push(v);
        }
        self.num_obs += 1;
        Ok(())
    }

    /// Removes the oldest observation (row 0); no-op on an empty
    /// database. `O(n·m)` — one memmove per column.
    pub fn retire_oldest_obs(&mut self) {
        if self.num_obs == 0 {
            return;
        }
        for col in &mut self.columns {
            col.remove(0);
        }
        self.num_obs -= 1;
    }

    /// A new database containing only observations `range` (e.g. an
    /// in-sample/out-sample split of a time-indexed database, or the
    /// window a streaming model currently covers). Out-of-range and
    /// inverted ranges are clamped to the valid empty/partial slice.
    pub fn slice_obs(&self, range: std::ops::Range<usize>) -> Database {
        let end = range.end.min(self.num_obs);
        let range = range.start.min(end)..end;
        Database {
            names: self.names.clone(),
            k: self.k,
            num_obs: range.len(),
            columns: self
                .columns
                .iter()
                .map(|c| c[range.clone()].to_vec())
                .collect(),
        }
    }

    /// A new database containing only the given attributes, in the given
    /// order.
    pub fn select_attrs(&self, attrs: &[AttrId]) -> Database {
        Database {
            names: attrs
                .iter()
                .map(|&a| self.names[a.index()].clone())
                .collect(),
            k: self.k,
            num_obs: self.num_obs,
            columns: attrs
                .iter()
                .map(|&a| self.columns[a.index()].clone())
                .collect(),
        }
    }

    /// Frequency of each value `1..=k` in column `a` (index 0 = value 1).
    pub fn value_counts(&self, a: AttrId) -> Vec<usize> {
        let mut counts = vec![0usize; self.k as usize];
        for &v in self.column(a) {
            counts[(v - 1) as usize] += 1;
        }
        counts
    }

    /// The most frequent value of column `a` and its count (ties broken
    /// toward the smaller value). Returns `None` when there are no
    /// observations.
    pub fn majority_value(&self, a: AttrId) -> Option<(Value, usize)> {
        if self.num_obs == 0 {
            return None;
        }
        let counts = self.value_counts(a);
        let (idx, &cnt) = counts
            .iter()
            .enumerate()
            .max_by(|(ia, ca), (ib, cb)| ca.cmp(cb).then(ib.cmp(ia)))
            .expect("k >= 1");
        Some(((idx + 1) as Value, cnt))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn db() -> Database {
        Database::from_rows(
            vec!["x".into(), "y".into()],
            3,
            &[[1, 2], [2, 2], [3, 1], [1, 2]],
        )
        .unwrap()
    }

    #[test]
    fn construction_and_access() {
        let d = db();
        assert_eq!(d.num_attrs(), 2);
        assert_eq!(d.num_obs(), 4);
        assert_eq!(d.k(), 3);
        assert_eq!(d.column(AttrId::new(0)), &[1, 2, 3, 1]);
        assert_eq!(d.value(AttrId::new(1), 2), 1);
        assert_eq!(d.attr_name(AttrId::new(1)), "y");
        assert_eq!(d.attr_by_name("y"), Some(AttrId::new(1)));
        assert_eq!(d.attr_by_name("zzz"), None);
    }

    #[test]
    fn rejects_bad_values() {
        let err = Database::from_columns(vec!["x".into()], 2, vec![vec![1, 3]]);
        assert_eq!(
            err,
            Err(DatabaseError::ValueOutOfRange {
                attr: 0,
                obs: 1,
                value: 3
            })
        );
        let err = Database::from_columns(vec!["x".into()], 2, vec![vec![1, 0]]);
        assert!(matches!(err, Err(DatabaseError::ValueOutOfRange { .. })));
    }

    #[test]
    fn rejects_structural_problems() {
        assert_eq!(
            Database::from_columns(vec!["x".into()], 0, vec![vec![]]),
            Err(DatabaseError::ZeroK)
        );
        assert_eq!(
            Database::from_columns(vec!["x".into()], 2, vec![vec![1], vec![1]]),
            Err(DatabaseError::NameCountMismatch {
                names: 1,
                columns: 2
            })
        );
        assert_eq!(
            Database::from_columns(vec!["x".into(), "y".into()], 2, vec![vec![1, 2], vec![1]]),
            Err(DatabaseError::RaggedColumns {
                expected: 2,
                got: 1
            })
        );
    }

    #[test]
    fn slicing_observations() {
        let d = db();
        let s = d.slice_obs(1..3);
        assert_eq!(s.num_obs(), 2);
        assert_eq!(s.column(AttrId::new(0)), &[2, 3]);
        // Out-of-range ends are clamped.
        let s = d.slice_obs(3..99);
        assert_eq!(s.num_obs(), 1);
        let s = d.slice_obs(10..20);
        assert_eq!(s.num_obs(), 0);
    }

    #[test]
    // Inverted ranges are constructed on purpose: callers computing
    // window bounds can produce them, and slice_obs must clamp.
    #[allow(clippy::reversed_empty_ranges)]
    fn slicing_edge_cases() {
        let d = db();
        // Empty range.
        let s = d.slice_obs(2..2);
        assert_eq!(s.num_obs(), 0);
        assert_eq!(s.num_attrs(), 2);
        assert_eq!(s.k(), 3);
        assert_eq!(s.attr_names(), d.attr_names());
        // Full range reproduces the database exactly.
        assert_eq!(d.slice_obs(0..d.num_obs()), d);
        // Inverted range clamps to empty instead of panicking.
        let s = d.slice_obs(3..1);
        assert_eq!(s.num_obs(), 0);
        // Inverted range beyond the end also clamps.
        assert_eq!(d.slice_obs(99..1).num_obs(), 0);
    }

    #[test]
    fn selecting_attributes() {
        let d = db();
        let s = d.select_attrs(&[AttrId::new(1)]);
        assert_eq!(s.num_attrs(), 1);
        assert_eq!(s.attr_name(AttrId::new(0)), "y");
        assert_eq!(s.column(AttrId::new(0)), &[2, 2, 1, 2]);
    }

    #[test]
    fn selecting_attributes_edge_cases() {
        let d = db();
        // Empty selection keeps shape metadata.
        let s = d.select_attrs(&[]);
        assert_eq!(s.num_attrs(), 0);
        assert_eq!(s.k(), 3);
        // num_obs is preserved even with no columns to witness it.
        assert_eq!(s.num_obs(), d.num_obs());
        // Out-of-order selection reorders names and columns together.
        let s = d.select_attrs(&[AttrId::new(1), AttrId::new(0)]);
        assert_eq!(s.attr_names(), &["y".to_string(), "x".to_string()]);
        assert_eq!(s.column(AttrId::new(0)), d.column(AttrId::new(1)));
        assert_eq!(s.column(AttrId::new(1)), d.column(AttrId::new(0)));
        // Repeated selection duplicates the column.
        let s = d.select_attrs(&[AttrId::new(0), AttrId::new(0)]);
        assert_eq!(s.num_attrs(), 2);
        assert_eq!(s.column(AttrId::new(0)), s.column(AttrId::new(1)));
        // Full identity selection reproduces the database.
        let all: Vec<AttrId> = d.attrs().collect();
        assert_eq!(d.select_attrs(&all), d);
    }

    #[test]
    fn append_and_retire_slide_in_place() {
        let mut d = db();
        let orig = d.clone();
        d.append_obs(&[3, 1]).unwrap();
        assert_eq!(d.num_obs(), 5);
        assert_eq!(d.column(AttrId::new(0)), &[1, 2, 3, 1, 3]);
        d.retire_oldest_obs();
        assert_eq!(d.num_obs(), 4);
        assert_eq!(d.column(AttrId::new(0)), &[2, 3, 1, 3]);
        assert_eq!(d.column(AttrId::new(1)), &[2, 1, 2, 1]);
        // Validation failures leave the database unchanged.
        assert!(d.append_obs(&[1]).is_err());
        assert!(d.append_obs(&[0, 1]).is_err());
        assert!(d.append_obs(&[1, 4]).is_err());
        assert_eq!(d.num_obs(), 4);
        // Slide equivalence with slice + rebuild.
        let mut slid = orig.clone();
        slid.retire_oldest_obs();
        slid.append_obs(&[3, 1]).unwrap();
        let mut cols: Vec<Vec<Value>> = (0..2)
            .map(|a| orig.column(AttrId::new(a)).to_vec())
            .collect();
        for (a, col) in cols.iter_mut().enumerate() {
            col.remove(0);
            col.push([3, 1][a]);
        }
        let expect = Database::from_columns(orig.attr_names().to_vec(), orig.k(), cols).unwrap();
        assert_eq!(slid, expect);
        // Retiring an empty database is a no-op.
        let mut empty = Database::from_columns(vec!["x".into()], 2, vec![vec![]]).unwrap();
        empty.retire_oldest_obs();
        assert_eq!(empty.num_obs(), 0);
    }

    #[test]
    fn value_counts_and_majority() {
        let d = db();
        assert_eq!(d.value_counts(AttrId::new(0)), vec![2, 1, 1]);
        assert_eq!(d.majority_value(AttrId::new(0)), Some((1, 2)));
        assert_eq!(d.majority_value(AttrId::new(1)), Some((2, 3)));
        let empty = Database::from_columns(vec!["x".into()], 2, vec![vec![]]).unwrap();
        assert_eq!(empty.majority_value(AttrId::new(0)), None);
    }

    #[test]
    fn majority_tie_breaks_to_smaller_value() {
        let d = Database::from_columns(vec!["x".into()], 3, vec![vec![2, 1, 2, 1]]).unwrap();
        assert_eq!(d.majority_value(AttrId::new(0)), Some((1, 2)));
    }

    #[test]
    fn empty_database_is_valid() {
        let d = Database::from_columns(vec![], 3, vec![]).unwrap();
        assert_eq!(d.num_attrs(), 0);
        assert_eq!(d.num_obs(), 0);
    }
}
