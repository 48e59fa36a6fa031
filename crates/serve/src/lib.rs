//! Read-mostly concurrent serving for association models.
//!
//! The paper's flagship use case — leading indicators that predict the
//! movement of other stocks (Section 5.1) — is a *query* workload: a
//! stream slides the observation window while clients continuously ask
//! "which attributes lead?", "what drives attribute `Y`?", and "given
//! today's indicator values, what will `Y` do?". This crate turns the
//! incremental mining engine into that system:
//!
//! - **One writer, many readers.** A single writer owns the live
//!   [`AssociationModel`], applies `advance` / `advance_batch` /
//!   `retire_oldest`, and publishes an immutable, epoch-tagged
//!   [`ModelSnapshot`] after every mutation ([`ModelServer`]).
//! - **Cached, allocation-free reads.** Snapshots are published
//!   through [`ArcCell`], a `Mutex<Arc<T>>` with a version counter
//!   ([`cell`]). Each reader caches the `Arc` it last loaded: a load is
//!   one atomic load of the version, and takes the lock only on the
//!   first load after a publish. No read allocates, and readers query
//!   the snapshot through precomputed indexes ([`snapshot`]).
//! - **Publish-time precompute.** Each snapshot carries per-head
//!   in-edge rankings, the cached dominator set, per-head best edges,
//!   pre-materialized association tables for the classifier's hot edge
//!   set, and pre-ranked mined rules — a query is pointer-chasing, not
//!   recounting, and classification is bit-identical to
//!   [`AssociationClassifier`] on the same window.
//! - **Sim / host split.** [`MarketFeed`] (the sim) generates a
//!   deterministic discretized market stream; [`ServeHost`] (the host)
//!   runs the writer on its own thread behind a bounded queue of
//!   [`WalRecord`]s whose one send blocks while it is full.
//!   [`throughput::measure_qps`] measures aggregate reader queries/sec
//!   during live slides — the number the `serve` CLI prints and
//!   `perf_summary` gates in CI.
//! - **Crash safety + fault containment.** A durable host persists a
//!   checksummed checkpoint of the windowed database + config and an
//!   append-only observation WAL ([`store`]); [`ServeHost::recover`]
//!   folds the log tail into the checkpoint's window and builds once,
//!   yielding a model bit-identical to the pre-crash writer at its last
//!   durable record. Writer panics are
//!   contained per record ([`HostHealth`], [`WriterStats`]), and a
//!   deterministic fault-injection harness (`faults`, behind the
//!   `fault-injection` feature) drives the chaos suite.
//!
//! ```
//! use hypermine_core::{AssociationModel, ModelConfig};
//! use hypermine_data::Database;
//! use hypermine_serve::{ModelServer, SnapshotSpec};
//!
//! let x: Vec<u8> = (0..90).map(|i| (i % 3 + 1) as u8).collect();
//! let db = Database::from_columns(
//!     vec!["x".into(), "y".into()], 3, vec![x.clone(), x],
//! ).unwrap();
//! let model = AssociationModel::build(&db, &ModelConfig::default()).unwrap();
//!
//! let mut server = ModelServer::new(model, SnapshotSpec::default());
//! let mut reader = server.reader(); // movable to any thread
//! let snapshot = reader.load();     // the reader's cached snapshot
//! assert_eq!(snapshot.epoch(), 0);
//! assert!(snapshot.graph().num_edges() > 0);
//! ```
//!
//! [`AssociationModel`]: hypermine_core::AssociationModel
//! [`AssociationClassifier`]: hypermine_core::AssociationClassifier

#![forbid(unsafe_code)]

pub mod cell;
#[cfg(feature = "fault-injection")]
pub mod faults;
pub mod host;
pub mod sim;
pub mod snapshot;
pub mod store;
pub mod throughput;
pub mod writer;

pub use cell::{ArcCell, ReaderHandle, SnapshotGuard};
#[cfg(feature = "fault-injection")]
pub use faults::FaultPlan;
pub use host::{DurabilityOptions, HostHealth, HostOptions, ServeHost, WriterStats};
pub use sim::{FeedConfig, MarketFeed};
pub use snapshot::{
    ModelSnapshot, PublishLaps, PublishPhase, QueryScratch, SnapshotMemory, SnapshotSpec,
};
pub use store::{RecoverError, RecoverLaps, RecoverPhase, RecoveryInfo, WalRecord, WalStore};
pub use throughput::{measure_qps, QpsRun};
pub use writer::ModelServer;
