//! Multi-valued attribute databases `D(A, O, V)` and discretization.
//!
//! The paper models any database as an `m × n` table whose rows are
//! *observations* `O = {O₁..O_m}` and whose columns are *multi-valued
//! attributes* `A = {A₁..A_n}`; every entry is a value from a fixed finite set
//! `V = {1..k}` (Section 3.1). This crate provides:
//!
//! - [`Database`]: the columnar table, with validation and range slicing;
//! - [`support`] / [`confidence`]: the support and confidence
//!   measures of Definition 3.2 over [`Pattern`]s;
//! - [`ValueIndex`]: per `(attribute, value)` observation bitsets enabling
//!   counting of value combinations via word-level intersections — the
//!   workhorse of the per-head counting path;
//! - [`ObsMatrix`]: the row-major `m × n` transpose backing the
//!   observation-major counting sweeps (stream each observation once,
//!   count all heads simultaneously);
//! - [`SlotMatrix`]: the precomputed counter-slot lanes
//!   (`head·stride + value − 1` as contiguous u16 stripes, stride = `k`
//!   padded to a multiple of four) that flatten the observation-major
//!   bump loops into plain `counts[slot] += 1` over contiguous lanes;
//! - [`WideSlotMatrix`]: the u32 twin of those lanes for universes past
//!   the u16 slot range (`n·stride > 65536` or `m > 65535`);
//! - [`PairBuckets`]: obs ids grouped by `(v_a, v_b)` row via one
//!   counting-sort pass — the PairRows-free input of the observation-major
//!   pair sweep;
//! - [`WindowedDatabase`]: a fixed-capacity sliding window over
//!   ring-buffered columns (`append_obs`/`retire_oldest`/`advance`) — the
//!   data-layer half of the streaming model lifecycle, paired with
//!   incremental `ValueIndex`/`ObsMatrix` maintenance
//!   (`set_obs`/`clear_obs`/`set_row`);
//! - [`discretize`]: equi-depth k-threshold vectors (Section 5.1.1),
//!   equi-width cuts, fixed cut points, and arbitrary mapping discretizers;
//! - [`delta_series`] / [`try_delta_series`]: the fractional-change
//!   transform for financial time-series (Section 5.1.1), with a checked
//!   variant that rejects non-positive prices.
//!
//! ```
//! use hypermine_data::{Database, AttrId, support, confidence};
//!
//! // The paper's discretized Patient database (Table 3.2), columns
//! // Age, Cholesterol, Blood-Pressure, Heart-Rate.
//! let db = Database::from_rows(
//!     vec!["A".into(), "C".into(), "B".into(), "H".into()],
//!     16,
//!     &[
//!         [2, 10, 13, 7], [6, 16, 16, 8], [3, 12, 13, 7], [1, 9, 10, 6],
//!         [3, 12, 13, 7], [3, 12, 11, 7], [4, 13, 14, 7], [8, 12, 15, 7],
//!     ],
//! ).unwrap();
//!
//! let x = [(AttrId::new(0), 3), (AttrId::new(1), 12)];
//! let y = [(AttrId::new(2), 13)];
//! assert!((support(&db, &x) - 0.375).abs() < 1e-12);
//! assert!((confidence(&db, &x, &y).unwrap() - 2.0 / 3.0).abs() < 1e-12);
//! ```

mod bitmap;
mod database;
mod delta;
pub mod discretize;
mod obs_matrix;
mod support;
mod windowed;

pub use bitmap::ValueIndex;
pub use database::{AttrId, Database, DatabaseError, Value};
pub use obs_matrix::{ObsMatrix, PairBuckets, SlotMatrix, WideSlotMatrix};
pub use delta::{delta_matrix, delta_series, try_delta_matrix, try_delta_series, DeltaError};
pub use support::{confidence, support, support_count, Pattern};
pub use windowed::{StreamEvent, WindowedDatabase};
