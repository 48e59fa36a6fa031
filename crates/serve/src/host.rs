//! The host side of the serve split: a dedicated writer thread draining
//! a bounded command queue while readers query published snapshots.
//!
//! [`ServeHost::spawn`] moves a [`ModelServer`] onto its own thread and
//! returns a handle that (a) enqueues stream commands with backpressure
//! — a bounded [`std::sync::mpsc::sync_channel`], so a slow writer
//! throttles the feed instead of buffering unboundedly — and (b) hands
//! out lock-free [`ReaderHandle`]s that keep working for as long as any
//! handle to the snapshot cell lives, even after shutdown.
//!
//! Three robustness layers ride on that split:
//!
//! - **Fault containment.** Command processing runs under
//!   [`std::panic::catch_unwind`]: a poison command is quarantined into
//!   [`WriterStats`] (`panics` + `last_error`) while the last good
//!   snapshot keeps serving, and [`ServeHost::health`] — readable from
//!   any thread — reports [`HostHealth::Degraded`]. A panic that escapes
//!   containment kills the writer thread; the non-panicking join in
//!   `shutdown`/`Drop` surfaces that as [`HostHealth::Failed`] instead
//!   of re-panicking (which, during unwinding, would abort the process).
//! - **Backpressure policy.** [`OverflowPolicy`] picks what a full queue
//!   does to the feed: block (default), drop the newest command, or
//!   coalesce advances into one batch; [`ServeHost::send_timeout`] bounds
//!   the wait explicitly.
//! - **Durability.** With [`DurabilityOptions`], every accepted mutation
//!   is appended to a [`crate::store`] WAL after it applies (a commit
//!   log: rejected commands never replay), segments rotate through fresh
//!   checkpoints, and [`ServeHost::recover`] rebuilds a bit-identical
//!   host from the newest checkpoint + log tail after a crash.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::mpsc::{sync_channel, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use hypermine_data::Value;

use crate::cell::{ArcCell, ReaderHandle};
use crate::snapshot::{ModelSnapshot, SnapshotSpec};
use crate::store::{self, RecoverError, RecoveryInfo, WalRecord, WalStore};
use crate::writer::ModelServer;

#[cfg(feature = "fault-injection")]
use crate::faults::FaultPlan;

/// One unit of stream input for the writer thread.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StreamCmd {
    /// Slide the window one observation forward.
    Advance(Vec<Value>),
    /// Slide the window several steps in one batch (one publish).
    AdvanceBatch(Vec<Vec<Value>>),
    /// Contract the window from the old end (calendar gap).
    Retire,
    /// Drain nothing further and exit the writer thread.
    Shutdown,
}

impl StreamCmd {
    /// Compact description for `WriterStats::last_error`.
    fn describe(&self) -> String {
        match self {
            StreamCmd::Advance(row) => format!("Advance({} values)", row.len()),
            StreamCmd::AdvanceBatch(rows) => format!("AdvanceBatch({} rows)", rows.len()),
            StreamCmd::Retire => "Retire".into(),
            StreamCmd::Shutdown => "Shutdown".into(),
        }
    }

    /// The durable form of an *accepted* command (`Shutdown` is control
    /// flow, not state).
    fn into_wal_record(self) -> Option<WalRecord> {
        match self {
            StreamCmd::Advance(row) => Some(WalRecord::Advance(row)),
            StreamCmd::AdvanceBatch(rows) => Some(WalRecord::AdvanceBatch(rows)),
            StreamCmd::Retire => Some(WalRecord::Retire),
            StreamCmd::Shutdown => None,
        }
    }
}

/// Liveness of a host's writer thread, readable from any thread at any
/// time (one atomic load).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HostHealth {
    /// No contained panics, durability (if enabled) intact.
    Healthy,
    /// Still serving, but something was lost: a command panicked inside
    /// the containment, or a WAL append failed and durability froze at
    /// the last durable record.
    Degraded,
    /// The writer thread is gone (a panic escaped containment); the last
    /// published snapshot keeps serving, but no further commands apply.
    Failed,
}

const HEALTH_HEALTHY: u8 = 0;
const HEALTH_DEGRADED: u8 = 1;
const HEALTH_FAILED: u8 = 2;

fn decode_health(raw: u8) -> HostHealth {
    match raw {
        HEALTH_DEGRADED => HostHealth::Degraded,
        HEALTH_FAILED => HostHealth::Failed,
        _ => HostHealth::Healthy,
    }
}

/// What a full command queue does to the feed (chosen at spawn).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OverflowPolicy {
    /// [`ServeHost::send`] blocks until the writer drains a slot — the
    /// queue is the feed's backpressure.
    #[default]
    Block,
    /// [`ServeHost::send`] drops the command it was given (returning
    /// `false` and counting `WriterStats::dropped`) instead of blocking —
    /// for feeds where staleness beats latency.
    DropNewest,
    /// Overflowing [`StreamCmd::Advance`] rows park in a host-side buffer
    /// (counting `WriterStats::coalesced`) and enter the queue as one
    /// [`StreamCmd::AdvanceBatch`] when a slot frees — same observations,
    /// fewer publishes. Non-advance commands flush the buffer first
    /// (blocking) so ordering is preserved; shutdown flushes the rest.
    CoalesceBatch,
}

/// Where and how a durable host persists its state (see [`crate::store`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DurabilityOptions {
    /// Directory for checkpoints + WAL segments.
    pub dir: PathBuf,
    /// Segment rotation budget in bytes; `0` means
    /// [`store::DEFAULT_SEGMENT_BYTES`].
    pub segment_bytes: u64,
}

impl DurabilityOptions {
    /// Durability under `dir` with the default segment budget.
    pub fn new(dir: impl Into<PathBuf>) -> DurabilityOptions {
        DurabilityOptions {
            dir: dir.into(),
            segment_bytes: 0,
        }
    }
}

/// Everything [`ServeHost::spawn_with`] / [`ServeHost::recover`] accept
/// beyond the model itself. `..Default::default()` keeps call sites
/// stable as options grow.
#[derive(Debug, Clone, Default)]
pub struct HostOptions {
    /// Command-queue depth (0 is clamped to 1).
    pub queue: usize,
    /// Full-queue behavior.
    pub overflow: OverflowPolicy,
    /// `Some` makes the host durable.
    pub durability: Option<DurabilityOptions>,
    /// Deterministic fault schedule (test harness only).
    #[cfg(feature = "fault-injection")]
    pub faults: Option<FaultPlan>,
}

impl HostOptions {
    /// Just a queue depth, everything else default — the options form of
    /// [`ServeHost::spawn`]'s second argument.
    pub fn queue(queue: usize) -> HostOptions {
        HostOptions {
            queue,
            ..HostOptions::default()
        }
    }
}

/// What the writer thread did before exiting.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct WriterStats {
    /// Snapshots published (successful mutations).
    pub published: u64,
    /// Commands rejected by the model (e.g. malformed rows). The
    /// previous snapshot stays served across a rejection.
    pub rejected: u64,
    /// The last published epoch.
    pub last_epoch: u64,
    /// Commands whose processing panicked inside the containment; the
    /// poison command is quarantined (described in `last_error`) and the
    /// previous snapshot stays served.
    pub panics: u64,
    /// WAL records appended durably (0 for a non-durable host).
    pub wal_records: u64,
    /// Commands dropped by [`OverflowPolicy::DropNewest`].
    pub dropped: u64,
    /// Advance rows deferred into a batch by
    /// [`OverflowPolicy::CoalesceBatch`].
    pub coalesced: u64,
    /// The most recent rejection, panic, or WAL failure, with the
    /// offending command described.
    pub last_error: Option<String>,
}

/// A running serve instance: writer thread + snapshot cell.
#[derive(Debug)]
pub struct ServeHost {
    cell: Arc<ArcCell<ModelSnapshot>>,
    tx: Option<SyncSender<StreamCmd>>,
    writer: Option<JoinHandle<WriterStats>>,
    health: Arc<AtomicU8>,
    overflow: OverflowPolicy,
    dropped: AtomicU64,
    coalesced: AtomicU64,
    pending: Mutex<Vec<Vec<Value>>>,
}

/// Flips health to `Failed` if the writer thread unwinds past the
/// containment, so readers learn about the death without joining.
struct FailGuard {
    health: Arc<AtomicU8>,
}

impl Drop for FailGuard {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.health.store(HEALTH_FAILED, Ordering::SeqCst);
        }
    }
}

impl ServeHost {
    /// Spawns the writer thread around `server` with a command queue of
    /// depth `queue` (senders block when it is full — that is the
    /// feed's backpressure). Non-durable; see [`ServeHost::spawn_with`].
    pub fn spawn(server: ModelServer, queue: usize) -> ServeHost {
        Self::spawn_with(server, HostOptions::queue(queue))
            .expect("spawning a non-durable host performs no i/o")
    }

    /// Spawns with explicit [`HostOptions`]. Fails only when durability
    /// is requested and creating the store does (i/o).
    pub fn spawn_with(server: ModelServer, options: HostOptions) -> std::io::Result<ServeHost> {
        let store = match &options.durability {
            None => None,
            Some(d) => Some(WalStore::create(&d.dir, d.segment_bytes, server.model())?),
        };
        Ok(Self::spawn_inner(server, options, store))
    }

    /// Rebuilds a crashed durable host from `dir`: the newest
    /// checkpoint's window with the WAL tail folded in, built once (see
    /// [`store::recover`] for the fold and the tolerance contract), then
    /// continues durably in the same directory — a fresh
    /// checkpoint at the next segment sequence, pre-crash files
    /// untouched. The recovered model is bit-identical to the pre-crash
    /// writer at its last durable record; readers created from the
    /// returned host resume at the recovered epoch.
    ///
    /// `options.durability` supplies the segment budget (its `dir`, if
    /// set, must agree with `dir`); when `None`, the recovered host is
    /// durable under `dir` with the default budget.
    pub fn recover(
        dir: impl AsRef<Path>,
        spec: SnapshotSpec,
        options: HostOptions,
    ) -> Result<(ServeHost, RecoveryInfo), RecoverError> {
        let dir = dir.as_ref();
        let mut options = options;
        let durability = options
            .durability
            .take()
            .unwrap_or_else(|| DurabilityOptions::new(dir));
        if durability.dir != dir {
            return Err(RecoverError::Io(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!(
                    "recover dir {} disagrees with durability dir {}",
                    dir.display(),
                    durability.dir.display()
                ),
            )));
        }
        let (model, info) = store::recover(dir)?;
        let store = WalStore::continue_from(dir, durability.segment_bytes, &model, info.seq + 1)?;
        let server = ModelServer::new(model, spec);
        Ok((Self::spawn_inner(server, options, Some(store)), info))
    }

    fn spawn_inner(
        server: ModelServer,
        options: HostOptions,
        store: Option<WalStore>,
    ) -> ServeHost {
        let cell = Arc::clone(server.cell());
        let health = Arc::new(AtomicU8::new(HEALTH_HEALTHY));
        let (tx, rx) = sync_channel::<StreamCmd>(options.queue.max(1));
        #[cfg(feature = "fault-injection")]
        let faults = options.faults.clone();
        #[cfg(feature = "fault-injection")]
        let store = match (store, &faults) {
            (Some(s), Some(plan)) => Some(s.with_faults(plan.clone())),
            (s, _) => s,
        };
        let writer_health = Arc::clone(&health);
        let writer = std::thread::Builder::new()
            .name("hypermine-serve-writer".into())
            .spawn(move || {
                let _fail_guard = FailGuard {
                    health: Arc::clone(&writer_health),
                };
                let mut server = server;
                let mut store = store;
                let mut stats = WriterStats {
                    last_epoch: server.model().epoch(),
                    ..WriterStats::default()
                };
                #[cfg(feature = "fault-injection")]
                let mut command_idx: u64 = 0;
                while let Ok(cmd) = rx.recv() {
                    if matches!(cmd, StreamCmd::Shutdown) {
                        break;
                    }
                    #[cfg(feature = "fault-injection")]
                    if let Some(plan) = &faults {
                        plan.wait_if_stalled();
                        // Outside the containment below: this one is
                        // meant to kill the thread.
                        plan.check_lethal_panic(command_idx);
                    }
                    let outcome = catch_unwind(AssertUnwindSafe(|| {
                        #[cfg(feature = "fault-injection")]
                        if let Some(plan) = &faults {
                            plan.check_contained_panic(command_idx);
                        }
                        match &cmd {
                            StreamCmd::Advance(row) => server.advance(row),
                            StreamCmd::AdvanceBatch(rows) => server.advance_batch(rows),
                            StreamCmd::Retire => server.retire_oldest(),
                            StreamCmd::Shutdown => unreachable!("handled above"),
                        }
                    }));
                    #[cfg(feature = "fault-injection")]
                    {
                        command_idx += 1;
                    }
                    match outcome {
                        Ok(Ok(epoch)) => {
                            stats.published += 1;
                            stats.last_epoch = epoch;
                            if let Some(wal) = store.as_mut() {
                                let record = cmd
                                    .into_wal_record()
                                    .expect("only loggable commands reach here");
                                let appended = wal
                                    .append(&record)
                                    .and_then(|()| wal.maybe_rotate(server.model()).map(|_| ()));
                                match appended {
                                    Ok(()) => stats.wal_records += 1,
                                    Err(e) => {
                                        // A hole in the log would replay
                                        // out of order, so durability
                                        // freezes at the last durable
                                        // record; serving continues.
                                        stats.last_error = Some(format!("wal append failed: {e}"));
                                        writer_health.fetch_max(HEALTH_DEGRADED, Ordering::SeqCst);
                                        store = None;
                                    }
                                }
                            }
                        }
                        Ok(Err(e)) => {
                            stats.rejected += 1;
                            stats.last_error = Some(format!("{} rejected: {e}", cmd.describe()));
                        }
                        Err(payload) => {
                            stats.panics += 1;
                            stats.last_error = Some(format!(
                                "{} panicked: {}",
                                cmd.describe(),
                                // `&*`: coerce the *contents* of the box,
                                // not the `Box` itself, to `dyn Any` — a
                                // bare `&payload` unsizes the box and the
                                // downcasts always miss.
                                panic_message(&*payload)
                            ));
                            writer_health.fetch_max(HEALTH_DEGRADED, Ordering::SeqCst);
                        }
                    }
                }
                if let Some(wal) = store.as_mut() {
                    let _ = wal.sync();
                }
                stats
            })
            .expect("spawning the writer thread");
        ServeHost {
            cell,
            tx: Some(tx),
            writer: Some(writer),
            health,
            overflow: options.overflow,
            dropped: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
            pending: Mutex::new(Vec::new()),
        }
    }

    /// A lock-free reader of the published snapshot; independent of the
    /// host's lifetime (the cell is ref-counted).
    pub fn reader(&self) -> ReaderHandle<ModelSnapshot> {
        self.cell.reader()
    }

    /// The snapshot cell, e.g. to create readers on other threads.
    pub fn cell(&self) -> &Arc<ArcCell<ModelSnapshot>> {
        &self.cell
    }

    /// Current writer liveness — one atomic load, callable from any
    /// thread, meaningful before *and* after shutdown.
    pub fn health(&self) -> HostHealth {
        decode_health(self.health.load(Ordering::SeqCst))
    }

    /// Enqueues a command under the host's [`OverflowPolicy`]. Returns
    /// `false` if the writer already exited, or — under
    /// [`OverflowPolicy::DropNewest`] — if the command was dropped.
    pub fn send(&self, cmd: StreamCmd) -> bool {
        match self.overflow {
            OverflowPolicy::Block => self.send_blocking(cmd),
            OverflowPolicy::DropNewest => match self.try_send_raw(cmd) {
                Ok(()) => true,
                Err(TrySendError::Disconnected(_)) => false,
                Err(TrySendError::Full(_)) => {
                    self.dropped.fetch_add(1, Ordering::Relaxed);
                    false
                }
            },
            OverflowPolicy::CoalesceBatch => self.send_coalescing(cmd),
        }
    }

    fn send_blocking(&self, cmd: StreamCmd) -> bool {
        self.tx
            .as_ref()
            .map(|tx| tx.send(cmd).is_ok())
            .unwrap_or(false)
    }

    fn try_send_raw(&self, cmd: StreamCmd) -> Result<(), TrySendError<StreamCmd>> {
        match self.tx.as_ref() {
            None => Err(TrySendError::Disconnected(cmd)),
            Some(tx) => tx.try_send(cmd),
        }
    }

    fn send_coalescing(&self, cmd: StreamCmd) -> bool {
        let mut pending = self.pending.lock().expect("pending buffer poisoned");
        match cmd {
            StreamCmd::Advance(row) => {
                if pending.is_empty() {
                    match self.try_send_raw(StreamCmd::Advance(row)) {
                        Ok(()) => true,
                        Err(TrySendError::Disconnected(_)) => false,
                        Err(TrySendError::Full(StreamCmd::Advance(row))) => {
                            pending.push(row);
                            self.coalesced.fetch_add(1, Ordering::Relaxed);
                            true
                        }
                        Err(TrySendError::Full(_)) => unreachable!("commands come back unchanged"),
                    }
                } else {
                    pending.push(row);
                    self.coalesced.fetch_add(1, Ordering::Relaxed);
                    let batch = std::mem::take(&mut *pending);
                    match self.try_send_raw(StreamCmd::AdvanceBatch(batch)) {
                        Ok(()) => true,
                        Err(TrySendError::Full(StreamCmd::AdvanceBatch(batch))) => {
                            // Still no slot: the rows stay parked for the
                            // next send (or the shutdown flush).
                            *pending = batch;
                            true
                        }
                        Err(TrySendError::Disconnected(_)) => false,
                        Err(TrySendError::Full(_)) => unreachable!("commands come back unchanged"),
                    }
                }
            }
            other => {
                // Ordering: buffered advances precede any later command.
                if !pending.is_empty() {
                    let batch = std::mem::take(&mut *pending);
                    drop(pending);
                    if !self.send_blocking(StreamCmd::AdvanceBatch(batch)) {
                        return false;
                    }
                } else {
                    drop(pending);
                }
                self.send_blocking(other)
            }
        }
    }

    /// Enqueues a command without blocking. Returns the command back
    /// when the queue is full (`Err`), so feeds can drop or retry.
    pub fn try_send(&self, cmd: StreamCmd) -> Result<(), StreamCmd> {
        match self.try_send_raw(cmd) {
            Ok(()) => Ok(()),
            Err(TrySendError::Full(c)) | Err(TrySendError::Disconnected(c)) => Err(c),
        }
    }

    /// Enqueues with a bounded wait: retries a full queue until
    /// `timeout` elapses, then hands the command back. Ignores the
    /// overflow policy — the timeout *is* the caller's policy here.
    pub fn send_timeout(&self, cmd: StreamCmd, timeout: Duration) -> Result<(), StreamCmd> {
        let deadline = Instant::now() + timeout;
        let mut cmd = cmd;
        loop {
            match self.try_send_raw(cmd) {
                Ok(()) => return Ok(()),
                Err(TrySendError::Disconnected(c)) => return Err(c),
                Err(TrySendError::Full(c)) => {
                    if Instant::now() >= deadline {
                        return Err(c);
                    }
                    cmd = c;
                    std::thread::sleep(Duration::from_micros(100));
                }
            }
        }
    }

    /// Convenience: [`StreamCmd::Advance`] under the overflow policy.
    pub fn advance(&self, row: Vec<Value>) -> bool {
        self.send(StreamCmd::Advance(row))
    }

    /// Drains the queue, stops the writer, and returns its stats. Never
    /// panics: a writer that died earlier comes back as
    /// [`HostHealth::Failed`] with partial stats (`last_error` set).
    pub fn shutdown(mut self) -> WriterStats {
        self.shutdown_inner()
    }

    fn shutdown_inner(&mut self) -> WriterStats {
        if let Some(tx) = self.tx.take() {
            // Flush rows still parked by CoalesceBatch — with a bounded
            // retry, not a blocking send: a writer that never drains
            // (dead, or deliberately stalled by a fault plan) must not
            // hang shutdown forever.
            let parked =
                std::mem::take(&mut *self.pending.lock().expect("pending buffer poisoned"));
            if !parked.is_empty() {
                let mut cmd = StreamCmd::AdvanceBatch(parked);
                let deadline = Instant::now() + Duration::from_secs(5);
                loop {
                    match tx.try_send(cmd) {
                        Ok(()) | Err(TrySendError::Disconnected(_)) => break,
                        Err(TrySendError::Full(c)) => {
                            if Instant::now() >= deadline {
                                break;
                            }
                            cmd = c;
                            std::thread::sleep(Duration::from_micros(100));
                        }
                    }
                }
            }
            // Dropping the sender disconnects the channel: the writer
            // drains whatever is buffered, then `recv` errors and the
            // loop exits. (A blocking Shutdown send here could wedge on
            // a full queue whose writer died or is parked — the exact
            // situation shutdown must survive.)
            drop(tx);
        }
        let mut stats = match self.writer.take() {
            Some(handle) => match handle.join() {
                Ok(stats) => stats,
                Err(payload) => {
                    // The writer died mid-command; its counters died with
                    // it. Surface the death, don't re-panic (a Drop-time
                    // re-panic during unwinding aborts the process).
                    self.health.store(HEALTH_FAILED, Ordering::SeqCst);
                    WriterStats {
                        panics: 1,
                        last_error: Some(format!(
                            "writer thread died: {}",
                            panic_message(&*payload)
                        )),
                        ..WriterStats::default()
                    }
                }
            },
            None => WriterStats::default(),
        };
        stats.dropped = self.dropped.load(Ordering::Relaxed);
        stats.coalesced = self.coalesced.load(Ordering::Relaxed);
        stats
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".into()
    }
}

impl Drop for ServeHost {
    fn drop(&mut self) {
        if self.writer.is_some() {
            self.shutdown_inner();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::SnapshotSpec;
    use hypermine_core::{AssociationModel, ModelConfig};
    use hypermine_data::Database;

    fn server() -> (Database, ModelServer) {
        let x: Vec<Value> = (0..120).map(|i| (i % 3 + 1) as Value).collect();
        let z: Vec<Value> = (0..120).map(|i| ((i / 7) % 3 + 1) as Value).collect();
        let d = Database::from_columns(
            vec!["x".into(), "y".into(), "z".into()],
            3,
            vec![x.clone(), x, z],
        )
        .unwrap();
        let model = AssociationModel::build(&d.slice_obs(0..100), &ModelConfig::default()).unwrap();
        (d, ModelServer::new(model, SnapshotSpec::default()))
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("hypermine-host-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn host_streams_commands_through_the_writer() {
        let (d, server) = server();
        let host = ServeHost::spawn(server, 8);
        let mut reader = host.reader();
        for o in 100..110 {
            assert!(host.advance(d.attrs().map(|a| d.value(a, o)).collect()));
        }
        assert!(host.send(StreamCmd::Retire));
        // Enqueuing succeeds; the *writer* rejects the malformed row.
        assert!(host.send(StreamCmd::Advance(vec![1])));
        assert_eq!(host.health(), HostHealth::Healthy);
        let stats = host.shutdown();
        assert_eq!(stats.published, 11);
        assert_eq!(stats.rejected, 1);
        assert_eq!(stats.last_epoch, 11);
        assert_eq!(stats.panics, 0);
        let err = stats.last_error.expect("the rejection is recorded");
        assert!(err.contains("Advance(1 values) rejected"), "{err}");
        // The cell outlives the host's writer.
        assert_eq!(reader.load().epoch(), 11);
    }

    #[test]
    fn try_send_reports_a_full_queue_instead_of_blocking() {
        let (d, server) = server();
        let host = ServeHost::spawn(server, 1);
        let row: Vec<Value> = d.attrs().map(|a| d.value(a, 100)).collect();
        let mut accepted = 0u64;
        let mut refused = 0u64;
        for _ in 0..64 {
            match host.try_send(StreamCmd::Advance(row.clone())) {
                Ok(()) => accepted += 1,
                Err(StreamCmd::Advance(_)) => refused += 1,
                Err(_) => unreachable!("commands come back unchanged"),
            }
        }
        assert!(accepted >= 1);
        let stats = host.shutdown();
        assert_eq!(stats.published, accepted);
        assert!(refused + accepted == 64);
    }

    #[test]
    fn drop_without_shutdown_joins_the_writer() {
        let (d, server) = server();
        {
            let host = ServeHost::spawn(server, 4);
            host.advance(d.attrs().map(|a| d.value(a, 100)).collect());
        } // Drop joins; no leaked thread, no panic.
    }

    #[test]
    fn send_timeout_delivers_when_a_slot_is_free() {
        let (d, server) = server();
        let host = ServeHost::spawn(server, 4);
        let row: Vec<Value> = d.attrs().map(|a| d.value(a, 100)).collect();
        assert!(host
            .send_timeout(StreamCmd::Advance(row), Duration::from_secs(5))
            .is_ok());
        let stats = host.shutdown();
        assert_eq!(stats.published, 1);
    }

    #[test]
    fn durable_host_logs_what_it_publishes_and_recovers_bit_identically() {
        let (d, server) = server();
        let dir = tmp_dir("durable");
        let reference_digest;
        {
            let host = ServeHost::spawn_with(
                server,
                HostOptions {
                    queue: 8,
                    durability: Some(DurabilityOptions::new(&dir)),
                    ..HostOptions::default()
                },
            )
            .expect("store create");
            let mut reader = host.reader();
            for o in 100..110 {
                assert!(host.advance(d.attrs().map(|a| d.value(a, o)).collect()));
            }
            assert!(host.send(StreamCmd::Retire));
            // A rejected command must NOT reach the log.
            assert!(host.send(StreamCmd::Advance(vec![9])));
            let stats = host.shutdown();
            assert_eq!(stats.published, 11);
            assert_eq!(stats.wal_records, 11);
            assert_eq!(stats.rejected, 1);
            reference_digest = reader.load().digest();
        }
        let (host, info) = ServeHost::recover(&dir, SnapshotSpec::default(), HostOptions::queue(4))
            .expect("recover");
        assert_eq!(info.replayed, 11);
        assert_eq!(info.epoch, 11);
        assert!(!info.torn_tail);
        let mut reader = host.reader();
        assert_eq!(reader.load().digest(), reference_digest);
        assert_eq!(host.health(), HostHealth::Healthy);
        // The recovered host keeps serving *and* stays durable.
        assert!(host.advance(d.attrs().map(|a| d.value(a, 111)).collect()));
        let stats = host.shutdown();
        assert_eq!(stats.published, 1);
        assert_eq!(stats.wal_records, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recover_rejects_a_mismatched_durability_dir() {
        let dir = tmp_dir("mismatch");
        let other = tmp_dir("mismatch-other");
        let err = ServeHost::recover(
            &dir,
            SnapshotSpec::default(),
            HostOptions {
                durability: Some(DurabilityOptions::new(&other)),
                ..HostOptions::default()
            },
        )
        .unwrap_err();
        assert!(matches!(err, RecoverError::Io(_)), "{err}");
    }

    #[test]
    fn drop_newest_counts_drops_once_the_writer_is_gone() {
        // A deterministic full-queue without fault injection: kill the
        // writer via shutdown…-like path is racy, so instead verify the
        // disconnected path returns false and Block/Drop agree on a live
        // writer; the stalled-writer drop/coalesce behavior is pinned in
        // the fault-injected chaos suite.
        let (d, server) = server();
        let host = ServeHost::spawn_with(
            server,
            HostOptions {
                queue: 1,
                overflow: OverflowPolicy::DropNewest,
                ..HostOptions::default()
            },
        )
        .unwrap();
        let row: Vec<Value> = d.attrs().map(|a| d.value(a, 100)).collect();
        let mut sent = 0u64;
        let mut dropped = 0u64;
        for _ in 0..64 {
            if host.send(StreamCmd::Advance(row.clone())) {
                sent += 1;
            } else {
                dropped += 1;
            }
        }
        let stats = host.shutdown();
        assert_eq!(stats.published, sent);
        assert_eq!(stats.dropped, dropped);
        assert_eq!(sent + dropped, 64);
    }

    #[test]
    fn coalesce_preserves_every_row_across_a_tiny_queue() {
        let (d, server) = server();
        let host = ServeHost::spawn_with(
            server,
            HostOptions {
                queue: 1,
                overflow: OverflowPolicy::CoalesceBatch,
                ..HostOptions::default()
            },
        )
        .unwrap();
        for o in 100..116 {
            assert!(host.advance(d.attrs().map(|a| d.value(a, o)).collect()));
        }
        let stats = host.shutdown();
        // Every row applied exactly once — the epoch counts rows, not
        // publishes — whether it went direct or through a batch.
        assert_eq!(stats.last_epoch, 16);
        assert_eq!(stats.rejected, 0);
        assert!(stats.published <= 16);
    }
}
