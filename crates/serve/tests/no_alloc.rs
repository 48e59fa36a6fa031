//! The zero-allocation gate: after snapshot acquisition, the single-
//! reader query path must not touch the heap.
//!
//! A counting `#[global_allocator]` wraps the system allocator; the
//! measured region pins snapshots and runs the full query mix —
//! dominator membership, ranked edges, best edges, rule reads, and
//! classification into a pre-sized scratch — and the allocation counter
//! must not move. The same query mix also backs the check that serving
//! never derives the graph's incidence CSR. This is its own integration
//! binary because a global allocator is process-wide. The counter is
//! per thread: the test harness runs the tests on parallel threads, and
//! one test's setup must not count against another's measured region.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use hypermine_core::{AssociationModel, ModelConfig};
use hypermine_data::{AttrId, Database, Value};
use hypermine_serve::{ModelServer, ModelSnapshot, QueryScratch, ReaderHandle, SnapshotSpec};

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

/// Three attributes over 120 observations: `y` tracks `x` except every
/// tenth observation, `z` cycles at its own period.
fn db() -> Database {
    let x: Vec<Value> = (0..120).map(|i| (i % 3 + 1) as Value).collect();
    let y: Vec<Value> = x
        .iter()
        .enumerate()
        .map(|(i, &v)| if i % 10 == 0 { (v % 3) + 1 } else { v })
        .collect();
    let z: Vec<Value> = (0..120).map(|i| ((i / 7) % 3 + 1) as Value).collect();
    Database::from_columns(vec!["x".into(), "y".into(), "z".into()], 3, vec![x, y, z]).unwrap()
}

/// The reader query mix, `rounds` times over every attribute in turn:
/// pin the current snapshot, then membership, ranked and best edges, a
/// rule read and classification into `scratch`. Returns a sink of the
/// answers so nothing is optimized away.
fn query_mix(
    reader: &mut ReaderHandle<ModelSnapshot>,
    scratch: &mut QueryScratch,
    row: &[Value],
    rounds: u32,
) -> u64 {
    let mut sink = 0u64;
    for round in 0..rounds {
        // Pin the current snapshot: two atomic loads + one store.
        let snap = reader.load();
        let a = AttrId::new(round % snap.num_attrs() as u32);
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
            if let Some((v, c)) = snap.predict_into(scratch, row, a) {
                sink ^= v as u64 ^ c.to_bits();
            }
            sink ^= snap.predict_or_majority(scratch, row, a) as u64;
        }
    }
    sink
}

#[test]
fn query_path_does_not_allocate_after_snapshot_acquisition() {
    // Setup may allocate freely: model, server, first snapshot, reader
    // handle, scratch, probe row.
    let model = AssociationModel::build(&db(), &ModelConfig::default()).unwrap();
    let mut server = ModelServer::new(model, SnapshotSpec::default());
    server.advance(&[1, 1, 2]).unwrap(); // exercise a post-slide snapshot
    let mut reader = server.reader();
    let mut scratch = reader.load().scratch();
    let row: Vec<Value> = vec![2, 2, 1];

    // Warm-up: one full mix, so any lazy init (there should be none)
    // happens outside the measured region.
    let mut sink = query_mix(&mut reader, &mut scratch, &row, 3);

    let before = allocations();
    sink ^= query_mix(&mut reader, &mut scratch, &row, 10_000);
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "the post-acquisition query path allocated (sink {sink})"
    );
}

/// No serving path derives the graph's incidence CSR: after a build, an
/// advance on the tensor path or on the row-recount fallback, a publish
/// and the query mix, neither the writer's graph nor the published
/// snapshot's holds an incidence entry.
#[test]
fn serving_builds_no_incidence() {
    for (budget, tensor) in [(None, true), (Some(0), false)] {
        let cfg = ModelConfig {
            triple_tensor_max_bytes: budget,
            ..ModelConfig::default()
        };
        let model = AssociationModel::build(&db(), &cfg).unwrap();
        assert!(model.hypergraph().num_edges() > 0);
        let mut server = ModelServer::new(model, SnapshotSpec::default());
        server.advance(&[1, 1, 2]).unwrap();
        let stats = server.model().incremental_stats().expect("advanced");
        assert_eq!(stats.uses_triple_tensor, tensor, "budget {budget:?}");
        server.publish();
        let mut reader = server.reader();
        let mut scratch = reader.load().scratch();
        query_mix(&mut reader, &mut scratch, &[2, 2, 1], 30);
        let snap = reader.load();
        assert_eq!(
            server.model().hypergraph().memory().incidence_entries,
            0,
            "the writer's graph, budget {budget:?}"
        );
        assert_eq!(
            snap.graph().memory().incidence_entries,
            0,
            "the snapshot's graph, budget {budget:?}"
        );
    }
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
