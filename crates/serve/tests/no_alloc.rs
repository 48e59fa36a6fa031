//! The zero-allocation gate: after snapshot acquisition, the single-
//! reader query path must not touch the heap.
//!
//! A counting `#[global_allocator]` wraps the system allocator; the
//! measured region pins snapshots and runs the full query mix —
//! dominator membership, ranked edges, best edges, rule reads, and
//! classification into a pre-sized scratch — and the allocation counter
//! must not move. This is its own integration binary because a global
//! allocator is process-wide. The counter is per thread: the test
//! harness runs the tests on parallel threads, and one test's setup must
//! not count against another's measured region.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use hypermine_core::{AssociationModel, ModelConfig};
use hypermine_data::{AttrId, Database, Value};
use hypermine_serve::{ModelServer, SnapshotSpec};

struct CountingAlloc;

thread_local! {
    // `const`-initialized and drop-free, so touching it never allocates.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// Allocations made so far by the calling thread.
fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

fn count_allocation() {
    // `try_with`: a thread's last frees and reallocations can run after
    // its thread-locals are gone.
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[test]
fn query_path_does_not_allocate_after_snapshot_acquisition() {
    // Setup may allocate freely: model, server, first snapshot, reader
    // handle, scratch, probe row.
    let x: Vec<Value> = (0..120).map(|i| (i % 3 + 1) as Value).collect();
    let y: Vec<Value> = x
        .iter()
        .enumerate()
        .map(|(i, &v)| if i % 10 == 0 { (v % 3) + 1 } else { v })
        .collect();
    let z: Vec<Value> = (0..120).map(|i| ((i / 7) % 3 + 1) as Value).collect();
    let d = Database::from_columns(
        vec!["x".into(), "y".into(), "z".into()],
        3,
        vec![x, y, z],
    )
    .unwrap();
    let model = AssociationModel::build(&d, &ModelConfig::default()).unwrap();
    let mut server = ModelServer::new(model, SnapshotSpec::default());
    server.advance(&[1, 1, 2]).unwrap(); // exercise a post-slide snapshot
    let mut reader = server.reader();
    let mut scratch = reader.load().scratch();
    let row: Vec<Value> = vec![2, 2, 1];
    let n = 3u32;

    // Warm-up: one full mix, so any lazy init (there should be none)
    // happens outside the measured region.
    let mut sink = 0u64;
    for probe in 0..n {
        let snap = reader.load();
        let a = AttrId::new(probe);
        sink ^= snap.epoch() ^ snap.is_leading(a) as u64;
        if let Some((v, _)) = (!snap.is_leading(a))
            .then(|| snap.predict_into(&mut scratch, &row, a))
            .flatten()
        {
            sink ^= v as u64;
        }
    }

    let before = allocations();
    for round in 0..10_000u32 {
        // Pin the current snapshot: two atomic loads + one store.
        let snap = reader.load();
        let a = AttrId::new(round % n);
        sink ^= snap.epoch();
        sink ^= snap.is_leading(a) as u64;
        if let Some(&e) = snap.ranked_in_edges(a).first() {
            sink ^= snap.edge(e).weight().to_bits();
        }
        if let Some(e) = snap.best_in_edge(a) {
            sink ^= e.index() as u64;
        }
        if let Some(rule) = snap.top_rules().first() {
            sink ^= rule.support.to_bits();
        }
        if !snap.is_leading(a) {
            // Classification into the pre-sized scratch.
            if let Some((v, c)) = snap.predict_into(&mut scratch, &row, a) {
                sink ^= v as u64 ^ c.to_bits();
            }
            sink ^= snap.predict_or_majority(&mut scratch, &row, a) as u64;
        }
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "the post-acquisition query path allocated (sink {sink})"
    );
}

#[test]
fn load_owned_does_not_allocate() {
    let x: Vec<Value> = (0..90).map(|i| (i % 3 + 1) as Value).collect();
    let d = Database::from_columns(vec!["x".into(), "y".into()], 3, vec![x.clone(), x]).unwrap();
    let model = AssociationModel::build(&d, &ModelConfig::default()).unwrap();
    let server = ModelServer::new(model, SnapshotSpec::default());
    let mut reader = server.reader();
    let warm = reader.load_owned();
    drop(warm);

    let before = allocations();
    let mut sink = 0u64;
    for _ in 0..1_000 {
        // An owned pin is one strong-count increment, not a clone.
        let snap = reader.load_owned();
        sink ^= snap.epoch();
    }
    let after = allocations();
    assert_eq!(after - before, 0, "load_owned allocated (sink {sink})");
}
