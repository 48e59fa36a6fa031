//! Multi-reader / single-writer stress tests for the serving layer.
//!
//! Three properties, each load-bearing for correctness claims the crate
//! makes:
//!
//! 1. **Epoch monotonicity** — per reader, observed epochs never
//!    regress, across advances, batch advances, and retirements.
//! 2. **Each observed epoch is the writer's** — the content digest of
//!    every snapshot a host's reader observed equals the digest a
//!    synchronous replay of the same records publishes at that epoch.
//! 3. **Per-epoch bit-identity** — every snapshot any reader ever
//!    observed is bit-identical (edges, dominator, classifier votes,
//!    content digest) to a from-scratch batch rebuild of that epoch's
//!    window.
//!
//! Both content checks also fail on a snapshot that is consistent but
//! wrong, which a digest recomputed from the snapshot itself cannot.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread::ScopedJoinHandle;

use hypermine_core::{AssociationClassifier, AssociationModel, ModelConfig};
use hypermine_data::{Database, Value};
use hypermine_serve::{
    DurabilityOptions, HostHealth, HostOptions, ModelServer, ModelSnapshot, ReaderHandle,
    ServeHost, SnapshotSpec, WalRecord,
};

/// Three correlated attributes + one noise attribute, enough structure
/// for a non-trivial hypergraph and dominator at every window.
fn stream_db(len: usize) -> Database {
    let x: Vec<Value> = (0..len).map(|i| (i % 3 + 1) as Value).collect();
    let y: Vec<Value> = x
        .iter()
        .enumerate()
        .map(|(i, &v)| if i % 10 == 0 { (v % 3) + 1 } else { v })
        .collect();
    let z: Vec<Value> = (0..len).map(|i| ((i / 7) % 3 + 1) as Value).collect();
    let w: Vec<Value> = (0..len).map(|i| ((i * 5 / 3) % 3 + 1) as Value).collect();
    Database::from_columns(
        vec!["x".into(), "y".into(), "z".into(), "w".into()],
        3,
        vec![x, y, z, w],
    )
    .unwrap()
}

fn row_at(d: &Database, obs: usize) -> Vec<Value> {
    d.attrs().map(|a| d.value(a, obs)).collect()
}

/// Asserts `snap` is bit-identical to a fresh batch rebuild of
/// `window` at the snapshot's epoch: hypergraph, dominator, classifier
/// votes and content digest.
fn assert_snapshot_matches_batch_rebuild(snap: &ModelSnapshot, window: &Database) {
    let cfg = snap.config().clone();
    let rebuilt =
        AssociationModel::restore(window, &cfg, snap.epoch()).expect("windows use valid gammas");
    assert_eq!(snap.graph().num_edges(), rebuilt.hypergraph().num_edges());
    for (id, e) in rebuilt.hypergraph().edges() {
        let o = snap.graph().edge(id);
        assert_eq!(e.tail(), o.tail());
        assert_eq!(e.head(), o.head());
        assert_eq!(e.weight().to_bits(), o.weight().to_bits());
    }
    // The cached dominator equals one freshly derived from the rebuild.
    let fresh = ModelSnapshot::build(&rebuilt, &SnapshotSpec::default());
    assert_eq!(snap.dominator(), fresh.dominator());
    assert_eq!(snap.digest(), fresh.digest(), "content digest");
    // Classifier parity on a probe row (values all in range by
    // construction of the fixture).
    let clf = AssociationClassifier::new(&rebuilt, snap.known());
    let mut scratch = snap.scratch();
    for obs in [0, window.num_obs() / 2, window.num_obs() - 1] {
        let row = row_at(window, obs);
        let values: Vec<Value> = snap.known().iter().map(|&a| row[a.index()]).collect();
        for target in window.attrs().filter(|&t| !snap.is_leading(t)) {
            let got = snap.predict_into(&mut scratch, &row, target);
            match clf.predict(&values, target) {
                None => assert_eq!(got, None),
                Some(p) => {
                    let (v, c) = got.expect("vote parity");
                    assert_eq!(v, p.value);
                    assert_eq!(c.to_bits(), p.confidence.to_bits());
                }
            }
        }
    }
}

/// The digest a synchronous [`ModelServer`] publishes at each epoch as
/// it applies `records` to `model`, the starting epoch included.
fn replay_digests(model: AssociationModel, records: &[WalRecord]) -> BTreeMap<u64, u64> {
    let mut server = ModelServer::new(model, SnapshotSpec::default());
    let mut reader = server.reader();
    let first = reader.load_owned();
    let mut digests = BTreeMap::from([(first.epoch(), first.digest())]);
    for record in records {
        let epoch = match record {
            WalRecord::Advance(row) => server.advance(row),
            WalRecord::AdvanceBatch(rows) => server.advance_batch(rows),
            WalRecord::Retire => server.retire_oldest(),
        }
        .expect("the host accepted every record");
        digests.insert(epoch, reader.load().digest());
    }
    digests
}

/// A host reader: loads until `done` (once more after it is set),
/// asserting that epochs never regress and the snapshot is queryable,
/// and records the content digest of each new epoch it sees.
fn record_epochs(mut reader: ReaderHandle<ModelSnapshot>, done: &AtomicBool) -> Vec<(u64, u64)> {
    let mut seen: Vec<(u64, u64)> = Vec::new();
    let mut finish = false;
    while !finish {
        finish = done.load(Ordering::Acquire);
        let snap = reader.load();
        assert_eq!(snap.num_attrs(), 4);
        let epoch = snap.epoch();
        let last = seen.last().map(|&(e, _)| e);
        assert!(last.is_none_or(|l| epoch >= l), "epoch regressed");
        if last != Some(epoch) {
            seen.push((epoch, snap.digest()));
        }
    }
    seen
}

/// Joins the `record_epochs` readers and asserts every digest they
/// recorded equals the replay's at that epoch. Returns the newest epoch
/// any of them saw.
fn assert_readers_match_replay(
    readers: Vec<ScopedJoinHandle<'_, Vec<(u64, u64)>>>,
    replay: &BTreeMap<u64, u64>,
) -> u64 {
    let mut newest = 0;
    for reader in readers {
        let seen = reader.join().expect("a reader's check failed");
        for &(epoch, digest) in &seen {
            assert_eq!(
                replay.get(&epoch),
                Some(&digest),
                "epoch {epoch} differs from the synchronous replay"
            );
            newest = newest.max(epoch);
        }
    }
    newest
}

/// Decrements a live-reader count when its reader thread exits, by
/// returning or by panicking.
struct ReaderExit<'a>(&'a AtomicUsize);

impl Drop for ReaderExit<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

#[test]
fn concurrent_readers_see_monotone_untorn_bit_identical_epochs() {
    const WINDOW: usize = 80;
    const SLIDES: usize = 24;
    let d = stream_db(WINDOW + SLIDES);
    let cfg = ModelConfig::default();
    let model = AssociationModel::build(&d.slice_obs(0..WINDOW), &cfg).unwrap();
    let mut server = ModelServer::new(model, SnapshotSpec::default());

    // Every window the writer will publish, keyed by epoch. Epoch 0 is
    // the initial window; a retirement halfway through contracts it.
    let windows = Mutex::new(BTreeMap::<u64, Database>::new());
    windows
        .lock()
        .unwrap()
        .insert(0, server.model().database().clone());

    let done = AtomicBool::new(false);
    let observed = Mutex::new(BTreeMap::<u64, std::sync::Arc<ModelSnapshot>>::new());
    // The newest epoch any reader has recorded in `observed`, and the
    // readers still running.
    let recorded = AtomicU64::new(0);
    let live = AtomicUsize::new(3);
    std::thread::scope(|s| {
        for _ in 0..3 {
            let mut reader = server.reader();
            let done = &done;
            let observed = &observed;
            let recorded = &recorded;
            let exit = ReaderExit(&live);
            s.spawn(move || {
                let _exit = exit;
                let mut last = 0u64;
                let mut finish = false;
                while !finish {
                    // One guaranteed load *after* `done` (release/acquire
                    // pairs it with the final publish), so every reader
                    // also observes the last epoch.
                    finish = done.load(Ordering::Acquire);
                    let snap = reader.load_owned();
                    // 1: epochs never regress for one reader.
                    assert!(snap.epoch() >= last, "epoch regressed");
                    last = snap.epoch();
                    observed
                        .lock()
                        .unwrap()
                        .entry(snap.epoch())
                        .or_insert_with(|| std::sync::Arc::clone(&snap));
                    recorded.fetch_max(snap.epoch(), Ordering::SeqCst);
                }
            });
        }

        // The writer: slides with a mid-stream retirement, recording
        // each published epoch's exact window. After its first publish
        // it waits until a reader has recorded that epoch, so readers
        // see at least two epochs however fast the writer runs (a reader
        // that panicked ends the wait; the scope then reports it).
        for (i, obs) in (WINDOW..WINDOW + SLIDES).enumerate() {
            let epoch = if i == SLIDES / 2 {
                server.retire_oldest().unwrap()
            } else {
                server.advance(&row_at(&d, obs)).unwrap()
            };
            windows
                .lock()
                .unwrap()
                .insert(epoch, server.model().database().clone());
            if i == 0 {
                while recorded.load(Ordering::SeqCst) < epoch && live.load(Ordering::SeqCst) > 0 {
                    std::thread::yield_now();
                }
            }
        }
        done.store(true, Ordering::Release);
    });

    let windows = windows.into_inner().unwrap();
    let observed = observed.into_inner().unwrap();
    // Readers raced a fast writer, so they saw a subset of epochs: the
    // first published one (the writer waited for it) and the latest
    // (readers spin past `done`).
    assert!(observed.contains_key(&(SLIDES as u64)));
    assert!(observed.len() >= 2, "readers observed multiple epochs");
    // 3: everything observed is bit-identical to a batch rebuild, its
    // content digest included.
    for (epoch, snap) in &observed {
        let window = windows.get(epoch).expect("only published epochs observed");
        assert_eq!(snap.database(), window);
        assert_snapshot_matches_batch_rebuild(snap, window);
    }
}

#[test]
fn host_keeps_epochs_monotone_across_mixed_commands() {
    const WINDOW: usize = 60;
    let d = stream_db(WINDOW + 30);
    let model = AssociationModel::build(&d.slice_obs(0..WINDOW), &ModelConfig::default()).unwrap();
    let host = ServeHost::spawn(ModelServer::new(model.clone(), SnapshotSpec::default()), 4);
    let mut obs = WINDOW;
    let records: Vec<WalRecord> = (0..12)
        .map(|i| match i % 4 {
            3 => WalRecord::Retire,
            2 => {
                obs += 2;
                WalRecord::AdvanceBatch(vec![row_at(&d, obs - 2), row_at(&d, obs - 1)])
            }
            _ => {
                obs += 1;
                WalRecord::Advance(row_at(&d, obs - 1))
            }
        })
        .collect();

    let done = AtomicBool::new(false);
    let newest = std::thread::scope(|s| {
        let readers: Vec<_> = (0..2)
            .map(|_| {
                let reader = host.reader();
                let done = &done;
                s.spawn(move || record_epochs(reader, done))
            })
            .collect();
        for record in &records {
            assert!(host.send(record.clone()));
        }
        let stats = host.shutdown();
        assert_eq!(stats.rejected, 0);
        assert_eq!(stats.published, 12);
        // 6 advances + 3 batches of 2 + 3 retires = 15 epochs.
        assert_eq!(stats.last_epoch, 15);
        done.store(true, Ordering::Release);
        // 2: every epoch a reader saw is the one a synchronous writer
        // publishes.
        assert_readers_match_replay(readers, &replay_digests(model, &records))
    });
    assert_eq!(newest, 15, "the readers' last load saw the final epoch");
}

/// Satellite property for crash recovery: readers created from a
/// *recovered* host resume exactly where the pre-crash writer left off —
/// the first load is the recovered epoch, every later load is monotone
/// and equals the snapshot a never-crashed synchronous writer publishes
/// at that epoch, and the final snapshot is bit-identical to a batch
/// rebuild of its window.
#[test]
fn readers_on_a_recovered_host_resume_monotone_digest_valid_epochs() {
    const WINDOW: usize = 60;
    const BEFORE_CRASH: usize = 14;
    const AFTER_RECOVER: usize = 10;
    let d = stream_db(WINDOW + BEFORE_CRASH + AFTER_RECOVER);
    let dir = std::env::temp_dir().join(format!(
        "hypermine-concurrency-recover-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);

    // Every record of the stream: the advances before the crash, then
    // advances with a retirement halfway through after recovery.
    let mut records: Vec<WalRecord> = (WINDOW..WINDOW + BEFORE_CRASH)
        .map(|obs| WalRecord::Advance(row_at(&d, obs)))
        .collect();
    let mut obs = WINDOW + BEFORE_CRASH;
    for i in 0..AFTER_RECOVER {
        if i == AFTER_RECOVER / 2 {
            records.push(WalRecord::Retire);
        } else {
            records.push(WalRecord::Advance(row_at(&d, obs)));
            obs += 1;
        }
    }
    let (before, after) = records.split_at(BEFORE_CRASH);

    // Pre-crash durable host: stream, then drop the host. Recovery only
    // reads what the WAL holds, so a clean shutdown is incidental.
    let model = AssociationModel::build(&d.slice_obs(0..WINDOW), &ModelConfig::default()).unwrap();
    let host = ServeHost::spawn_with(
        ModelServer::new(model.clone(), SnapshotSpec::default()),
        HostOptions {
            durability: Some(DurabilityOptions::new(&dir)),
            ..HostOptions::queue(4)
        },
    )
    .expect("store create");
    for record in before {
        assert!(host.send(record.clone()));
    }
    let stats = host.shutdown();
    assert_eq!(stats.wal_records, BEFORE_CRASH as u64);

    let (host, info) =
        ServeHost::recover(&dir, SnapshotSpec::default(), HostOptions::queue(4)).expect("recover");
    assert_eq!(info.epoch, BEFORE_CRASH as u64);
    assert_eq!(host.health(), HostHealth::Healthy);

    let done = AtomicBool::new(false);
    std::thread::scope(|s| {
        let readers: Vec<_> = (0..2)
            .map(|_| {
                let reader = host.reader();
                let done = &done;
                s.spawn(move || {
                    let seen = record_epochs(reader, done);
                    // The very first load already serves the recovered
                    // epoch.
                    assert!(
                        seen[0].0 >= BEFORE_CRASH as u64,
                        "reader saw a pre-crash epoch"
                    );
                    seen
                })
            })
            .collect();
        for record in after {
            assert!(host.send(record.clone()));
        }
        let mut reader = host.reader();
        let stats = host.shutdown();
        assert_eq!(stats.rejected, 0);
        assert_eq!(stats.last_epoch, (BEFORE_CRASH + AFTER_RECOVER) as u64);
        done.store(true, Ordering::Release);
        // Every epoch the recovered host served is the one a writer that
        // never crashed publishes.
        let newest = assert_readers_match_replay(readers, &replay_digests(model, &records));
        assert_eq!(newest, (BEFORE_CRASH + AFTER_RECOVER) as u64);
        // The stream the recovered host served is bit-identical to a
        // from-scratch batch rebuild of the final window.
        let snap = reader.load();
        assert_eq!(snap.epoch(), (BEFORE_CRASH + AFTER_RECOVER) as u64);
        assert_snapshot_matches_batch_rebuild(&snap, snap.database());
    });
    let _ = std::fs::remove_dir_all(&dir);
}
