//! Chaos suite for the durability + fault-containment layer
//! (`--features fault-injection`; compiles to nothing without it).
//!
//! The headline property: for EVERY kill point k in a ≥200-record stream
//! — mixed `Advance`/`AdvanceBatch`/`Retire`, spanning many segment
//! rotations, killed both cleanly between records and mid-write (torn)
//! — recovery yields a model bit-identical (content digest, which folds
//! in edges, ids, ACVs, and the epoch) to the live writer at the last
//! durable record. On-disk crash states are reconstructed exactly from
//! the live run's own files, so the sweep is O(N) live work + N
//! recoveries instead of N full reruns.
//!
//! Set `HYPERMINE_RECOVERY_TRACE=<path>` to dump a JSON-lines trace of
//! every kill point's recovery (CI uploads it next to `bench-summary`).

#![cfg(feature = "fault-injection")]

use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use hypermine_core::{AssociationModel, ModelConfig};
use hypermine_data::{Database, Value};
use hypermine_serve::store::{self, WalRecord, WalStore};
use hypermine_serve::{
    DurabilityOptions, FaultPlan, HostHealth, HostOptions, ModelServer, ModelSnapshot, ServeHost,
    SnapshotSpec,
};

const WINDOW: usize = 40;
const SOURCE_ROWS: usize = 320;
/// Tiny rotation budget so the sweep crosses many checkpoint rotations.
const SEGMENT_BYTES: u64 = 256;

fn stream_db() -> Database {
    let x: Vec<Value> = (0..SOURCE_ROWS).map(|i| (i % 3 + 1) as Value).collect();
    let y: Vec<Value> = (0..SOURCE_ROWS)
        .map(|i| ((i / 5) % 3 + 1) as Value)
        .collect();
    let z: Vec<Value> = (0..SOURCE_ROWS)
        .map(|i| ((i / 7) % 3 + 1) as Value)
        .collect();
    let w: Vec<Value> = (0..SOURCE_ROWS)
        .map(|i| ((i * 2 + i / 11) % 3 + 1) as Value)
        .collect();
    Database::from_columns(
        vec!["x".into(), "y".into(), "z".into(), "w".into()],
        3,
        vec![x, y, z, w],
    )
    .unwrap()
}

fn row_at(d: &Database, o: usize) -> Vec<Value> {
    d.attrs().map(|a| d.value(a, o)).collect()
}

/// ≥200 records mixing all three durable variants: every 11th record is
/// a 2-row batch (so kills land mid-batch-record), every 13th a retire.
fn schedule(d: &Database) -> Vec<WalRecord> {
    let mut records = Vec::new();
    let mut next = WINDOW;
    let mut i = 0usize;
    while records.len() < 208 {
        if i % 13 == 5 {
            records.push(WalRecord::Retire);
        } else if i % 11 == 3 {
            records.push(WalRecord::AdvanceBatch(vec![
                row_at(d, next),
                row_at(d, next + 1),
            ]));
            next += 2;
        } else {
            records.push(WalRecord::Advance(row_at(d, next)));
            next += 1;
        }
        i += 1;
    }
    assert!(next <= SOURCE_ROWS, "fixture too short for the schedule");
    records
}

fn apply(model: &mut AssociationModel, record: &WalRecord) {
    match record {
        WalRecord::Advance(row) => model.advance(row).unwrap(),
        WalRecord::AdvanceBatch(rows) => model.advance_batch(rows).unwrap(),
        WalRecord::Retire => model.retire_oldest().unwrap(),
    };
}

fn digest(model: &AssociationModel) -> u64 {
    ModelSnapshot::build(model, &SnapshotSpec::default()).digest()
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hypermine-chaos-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// Byte spans of the records inside one WAL segment (skipping the
/// 16-byte header), parsed off the length prefixes.
fn record_spans(segment: &[u8]) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    let mut pos = 16;
    while pos < segment.len() {
        let len = u32::from_le_bytes(segment[pos..pos + 4].try_into().unwrap()) as usize;
        let end = pos + 4 + len + 8;
        assert!(end <= segment.len(), "live run left a torn record");
        spans.push((pos, end));
        pos = end;
    }
    spans
}

/// The full-sweep property: kill at EVERY record index, clean and torn,
/// recover, verify bit-identity against the live model's state at the
/// last durable record.
#[test]
fn recovery_is_bit_identical_at_every_kill_point() {
    let d = stream_db();
    let cfg = ModelConfig::default();
    let records = schedule(&d);
    let n = records.len();
    assert!(n >= 200);

    // Live run: one model, one durable store, a digest captured after
    // every record.
    let live_dir = tmp_dir("live");
    let mut model = AssociationModel::build(&d.slice_obs(0..WINDOW), &cfg).unwrap();
    let mut store = WalStore::create(&live_dir, SEGMENT_BYTES, &model).unwrap();
    let mut digests = vec![digest(&model)];
    for record in &records {
        apply(&mut model, record);
        store.append(record).unwrap();
        store.maybe_rotate(&model).unwrap();
        digests.push(digest(&model));
    }
    let last_seq = store.seq();
    drop(store);
    assert!(last_seq >= 4, "budget too large to exercise rotation");

    // Map every record index to (segment seq, byte span in that file).
    let segment_bytes_of =
        |seq: u64| -> Vec<u8> { fs::read(live_dir.join(format!("wal-{seq:08}.log"))).unwrap() };
    let mut map: Vec<(u64, usize, usize)> = Vec::new();
    for seq in 0..=last_seq {
        let bytes = segment_bytes_of(seq);
        for (start, end) in record_spans(&bytes) {
            map.push((seq, start, end));
        }
    }
    assert_eq!(map.len(), n);

    let trace_path = std::env::var_os("HYPERMINE_RECOVERY_TRACE");
    let mut trace = trace_path.as_ref().map(|p| {
        if let Some(parent) = Path::new(p).parent() {
            let _ = fs::create_dir_all(parent);
        }
        fs::File::create(p).expect("recovery trace file")
    });

    let crash_dir = tmp_dir("crash");
    for kill in 0..=n {
        // Reconstruct the on-disk state of a crash after `kill` durable
        // records: the newest checkpoint at that moment plus its paired
        // segment, truncated at the kill record. Odd kill points tear
        // the next record mid-write instead of cutting cleanly.
        let (seq, cut, torn) = if kill == n {
            let bytes = segment_bytes_of(last_seq);
            (last_seq, bytes.len(), false)
        } else {
            let (seq, start, end) = map[kill];
            if kill % 2 == 1 {
                (seq, start + (end - start) / 2, true)
            } else {
                (seq, start, false)
            }
        };
        let _ = fs::remove_dir_all(&crash_dir);
        fs::create_dir_all(&crash_dir).unwrap();
        let ckpt = format!("checkpoint-{seq:08}.bin");
        fs::copy(live_dir.join(&ckpt), crash_dir.join(&ckpt)).unwrap();
        let segment = segment_bytes_of(seq);
        fs::write(crash_dir.join(format!("wal-{seq:08}.log")), &segment[..cut]).unwrap();

        let (recovered, info) = store::recover(&crash_dir).expect("recovery");
        assert_eq!(
            digest(&recovered),
            digests[kill],
            "kill point {kill} (seq {seq}, torn {torn}) diverged"
        );
        assert_eq!(info.seq, seq);
        assert_eq!(info.torn_tail, torn);
        assert_eq!(
            info.checkpoint_epoch + count_epochs(&records[kill - info.replayed as usize..kill]),
            info.epoch
        );
        if let Some(out) = trace.as_mut() {
            writeln!(
                out,
                "{{\"kill\": {kill}, \"seq\": {seq}, \"torn\": {torn}, \"replayed\": {}, \"epoch\": {}, \"digest\": {}}}",
                info.replayed, info.epoch, digests[kill]
            )
            .unwrap();
        }
    }

    let _ = fs::remove_dir_all(&live_dir);
    let _ = fs::remove_dir_all(&crash_dir);
}

/// Epoch delta the given records contribute (batch counts its rows).
fn count_epochs(records: &[WalRecord]) -> u64 {
    records
        .iter()
        .map(|r| match r {
            WalRecord::Advance(_) => 1,
            WalRecord::AdvanceBatch(rows) => rows.len() as u64,
            WalRecord::Retire => 1,
        })
        .sum()
}

/// A seeded plan drives the store to a deterministic freeze point;
/// recovery lands exactly on the live model at that point.
#[test]
fn seeded_fault_plans_freeze_and_recover_deterministically() {
    let d = stream_db();
    let cfg = ModelConfig::default();
    let records = schedule(&d);
    for seed in [3u64, 17, 91] {
        let dir = tmp_dir(&format!("seeded-{seed}"));
        let mut model = AssociationModel::build(&d.slice_obs(0..WINDOW), &cfg).unwrap();
        let mut store = WalStore::create(&dir, 0, &model)
            .unwrap()
            .with_faults(FaultPlan::seeded(seed, records.len() as u64));
        let mut durable = 0usize;
        let mut frozen_digest = digest(&model);
        for record in &records {
            apply(&mut model, record);
            // The host freezes durability on the first failed append;
            // mirror that contract here.
            if store.append(record).is_err() {
                break;
            }
            durable += 1;
            frozen_digest = digest(&model);
        }
        drop(store);
        let (recovered, info) = store::recover(&dir).expect("recovery");
        assert_eq!(info.replayed, durable as u64);
        assert_eq!(digest(&recovered), frozen_digest, "seed {seed} diverged");
        let _ = fs::remove_dir_all(&dir);
    }
}

// ---------------------------------------------------------------------------
// Host-level fault containment
// ---------------------------------------------------------------------------

fn host_fixture() -> (Database, ModelServer) {
    let d = stream_db();
    let model = AssociationModel::build(&d.slice_obs(0..WINDOW), &ModelConfig::default()).unwrap();
    (d, ModelServer::new(model, SnapshotSpec::default()))
}

fn wait_for_health(host: &ServeHost, want: HostHealth) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while host.health() != want {
        assert!(Instant::now() < deadline, "health never became {want:?}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

#[test]
fn injected_io_error_freezes_durability_but_keeps_serving() {
    let (d, server) = host_fixture();
    let dir = tmp_dir("io-freeze");
    let host = ServeHost::spawn_with(
        server,
        HostOptions {
            queue: 4,
            durability: Some(DurabilityOptions::new(&dir)),
            faults: Some(FaultPlan::new().io_error_at(5)),
        },
    )
    .unwrap();
    let mut reader = host.reader();
    for o in WINDOW..WINDOW + 12 {
        assert!(host.advance(row_at(&d, o)));
    }
    wait_for_health(&host, HostHealth::Degraded);
    let stats = host.shutdown();
    // All 12 commands applied and published; the log froze at record 5.
    assert_eq!(stats.published, 12);
    assert_eq!(stats.wal_records, 5);
    assert!(stats.last_error.unwrap().contains("wal append failed"));
    assert_eq!(reader.load().epoch(), 12);

    // Recovery honestly reflects only the durable prefix.
    let (recovered, info) = store::recover(&dir).unwrap();
    assert_eq!(info.replayed, 5);
    assert_eq!(recovered.epoch(), 5);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn torn_write_leaves_a_recoverable_tail() {
    let (d, server) = host_fixture();
    let dir = tmp_dir("torn-host");
    let host = ServeHost::spawn_with(
        server,
        HostOptions {
            queue: 4,
            durability: Some(DurabilityOptions::new(&dir)),
            faults: Some(FaultPlan::new().torn_write_at(7)),
        },
    )
    .unwrap();
    for o in WINDOW..WINDOW + 10 {
        assert!(host.advance(row_at(&d, o)));
    }
    let stats = host.shutdown();
    assert_eq!(stats.wal_records, 7);
    let (recovered, info) = store::recover(&dir).unwrap();
    assert!(info.torn_tail, "the half-written record reads as torn");
    assert_eq!(info.replayed, 7);
    assert_eq!(recovered.epoch(), 7);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn contained_panic_quarantines_the_command_and_keeps_the_stream_alive() {
    let (d, server) = host_fixture();
    let dir = tmp_dir("contained");
    let host = ServeHost::spawn_with(
        server,
        HostOptions {
            queue: 4,
            durability: Some(DurabilityOptions::new(&dir)),
            faults: Some(FaultPlan::new().panic_at(3)),
        },
    )
    .unwrap();
    let mut reader = host.reader();
    for o in WINDOW..WINDOW + 10 {
        assert!(host.advance(row_at(&d, o)));
    }
    wait_for_health(&host, HostHealth::Degraded);
    let stats = host.shutdown();
    // Command 3 was quarantined; the other 9 applied, published, and —
    // because a panicked command never reaches the log — stayed in
    // lockstep with the WAL.
    assert_eq!(stats.panics, 1);
    assert_eq!(stats.published, 9);
    assert_eq!(stats.wal_records, 9);
    let err = stats.last_error.unwrap();
    assert!(err.contains("injected writer panic at command 3"), "{err}");
    assert_eq!(reader.load().epoch(), 9);

    let (recovered, info) = store::recover(&dir).unwrap();
    assert_eq!(info.replayed, 9);
    assert_eq!(
        ModelSnapshot::build(&recovered, &SnapshotSpec::default()).digest(),
        reader.load().digest(),
        "recovery equals the live post-quarantine model"
    );
    let _ = fs::remove_dir_all(&dir);
}

/// The satellite regression: a writer killed by an uncontained panic
/// must never abort the process via Drop — not on a plain drop, and not
/// on a drop that happens *during unwinding* (the double-panic case the
/// old `join().expect(...)` turned into an abort).
#[test]
fn dead_writer_drop_never_aborts() {
    // Plain drop of a host whose writer panicked.
    let (d, server) = host_fixture();
    let host = ServeHost::spawn_with(
        server,
        HostOptions {
            queue: 4,
            faults: Some(FaultPlan::new().lethal_panic_at(1)),
            ..HostOptions::default()
        },
    )
    .unwrap();
    assert!(host.advance(row_at(&d, WINDOW)));
    host.advance(row_at(&d, WINDOW + 1));
    wait_for_health(&host, HostHealth::Failed);
    drop(host); // must not panic, must not abort

    // Drop during unwinding: the host dies inside a panicking thread.
    let (d, server) = host_fixture();
    let host = ServeHost::spawn_with(
        server,
        HostOptions {
            queue: 4,
            faults: Some(FaultPlan::new().lethal_panic_at(0)),
            ..HostOptions::default()
        },
    )
    .unwrap();
    host.advance(row_at(&d, WINDOW));
    wait_for_health(&host, HostHealth::Failed);
    let outcome = std::thread::spawn(move || {
        let _owned = host;
        panic!("unwind with a dead-writer host in scope");
    })
    .join();
    // The panic propagates as an Err — the process did NOT abort.
    assert!(outcome.is_err());
}

#[test]
fn shutdown_of_a_dead_writer_reports_failed_health_and_partial_stats() {
    let (d, server) = host_fixture();
    // Read before the lethal record, from a snapshot of its own.
    let epoch_0 = ModelSnapshot::build(server.model(), server.spec()).digest();
    let host = ServeHost::spawn_with(
        server,
        HostOptions {
            queue: 4,
            faults: Some(FaultPlan::new().lethal_panic_at(0)),
            ..HostOptions::default()
        },
    )
    .unwrap();
    let mut reader = host.reader();
    host.advance(row_at(&d, WINDOW));
    wait_for_health(&host, HostHealth::Failed);
    let stats = host.shutdown();
    assert!(stats.panics >= 1);
    let err = stats.last_error.unwrap();
    assert!(err.contains("writer thread died"), "{err}");
    // The last good snapshot keeps serving.
    assert_eq!(reader.load().epoch(), 0);
    assert_eq!(reader.load().digest(), epoch_0);
}

// ---------------------------------------------------------------------------
// The blocking send under a deterministically stalled writer
// ---------------------------------------------------------------------------

/// A full queue blocks the sender until the writer drains a slot; no row
/// is dropped and every row applies once.
#[test]
fn send_blocks_on_a_full_queue_until_the_writer_drains_it() {
    let (d, server) = host_fixture();
    let plan = FaultPlan::new();
    plan.stall();
    let host = ServeHost::spawn_with(
        server,
        HostOptions {
            queue: 1,
            faults: Some(plan.clone()),
            ..HostOptions::default()
        },
    )
    .unwrap();
    let start_epoch = host.reader().load().epoch();
    // Row 0 parks in the writer's hand at the gate; row 1 waits for
    // that handoff, then fills the only queue slot.
    assert!(host.advance(row_at(&d, WINDOW)));
    assert!(host.advance(row_at(&d, WINDOW + 1)));
    let sent = AtomicBool::new(false);
    let (early, delivered) = std::thread::scope(|s| {
        let feeder = s.spawn(|| {
            let delivered = host.advance(row_at(&d, WINDOW + 2));
            sent.store(true, Ordering::SeqCst);
            delivered
        });
        // The slot stays full while the writer is parked, so row 2
        // cannot have been handed over yet.
        std::thread::sleep(Duration::from_millis(100));
        let early = sent.load(Ordering::SeqCst);
        plan.release();
        (early, feeder.join().unwrap())
    });
    assert!(!early, "send returned while the queue was full");
    assert!(delivered, "the writer took row 2");
    let stats = host.shutdown();
    assert_eq!(stats.published, 3);
    assert_eq!(stats.dropped, 0);
    assert_eq!(stats.last_epoch, start_epoch + 3);
}

/// A test that fails while the writer is parked at a closed stall gate
/// fails instead of hanging: the unwind drops the host, and the host
/// opens its plan's gate before it joins the writer.
#[test]
#[should_panic(expected = "failed while the writer is stalled")]
fn a_test_that_fails_while_the_writer_is_stalled_finishes() {
    let (d, server) = host_fixture();
    let plan = FaultPlan::new();
    plan.stall();
    let host = ServeHost::spawn_with(
        server,
        HostOptions {
            queue: 1,
            faults: Some(plan),
            ..HostOptions::default()
        },
    )
    .unwrap();
    assert!(host.advance(row_at(&d, WINDOW)));
    panic!("failed while the writer is stalled");
}
