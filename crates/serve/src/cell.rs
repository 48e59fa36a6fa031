//! A hand-rolled atomic `Arc` swap cell with hazard-pointer reclamation.
//!
//! The serving layer needs one thing from its synchronization primitive:
//! a writer that *publishes* a new immutable snapshot must never block a
//! reader, and a reader must never block anyone — no locks, no allocation,
//! no reference-count contention on the shared cell — while still freeing
//! superseded snapshots promptly. `std` offers nothing off the shelf
//! (`RwLock` blocks writers on readers, `Mutex<Arc<T>>` serializes
//! readers, and the build environment has no crates.io access for
//! `arc-swap`), so [`ArcCell`] implements the classic hazard-pointer
//! scheme directly over [`AtomicPtr`] and [`Arc::into_raw`].
//!
//! # Protocol
//!
//! The cell holds the current snapshot as a raw pointer obtained from
//! [`Arc::into_raw`], plus a fixed array of per-reader *hazard slots*.
//!
//! - **Read** ([`ReaderHandle::load`]): loop `{ p = current; hazard = p;
//!   if current == p → done }`. Once the re-check passes, the object at
//!   `p` is protected: it cannot be freed while the hazard slot holds it.
//! - **Publish** ([`ArcCell::store`]): swap `current` to the new pointer,
//!   push the old pointer onto a retire list, then scan every hazard
//!   slot and free exactly the retired pointers no slot protects.
//!
//! # Memory ordering
//!
//! Every operation that the safety argument relies on — the reader's two
//! `current` loads and its hazard store, the writer's swap and its hazard
//! scan — uses [`Ordering::SeqCst`], so all of them lie on one total
//! order `S`. Suppose a reader's load/re-check succeeded for pointer `p`:
//!
//! ```text
//!   (reader)  hazard.store(p)  ≺  current.load() == p          … in S
//!   (writer)  current.swap(new) retiring p  ≺  hazard scan     … in S
//! ```
//!
//! The re-check saw `p` still current, so the swap that retires `p`
//! comes *after* the re-check in `S`, hence after the hazard store; the
//! writer's scan comes later still and must observe the hazard slot
//! holding `p`, so it does not free it. Conversely, if the swap precedes
//! the re-check, the re-check sees the new pointer and the reader
//! retries. There is no interleaving in which a reader holds a freed
//! pointer.
//!
//! The unprotected window between the first load and the hazard store is
//! safe because the guard never dereferences `p` before the re-check
//! validates it. The ABA case — `p` freed in that window and a *new*
//! snapshot allocated at the same address — is benign: the re-check only
//! concludes "the object at `p` is current **now**", which is exactly
//! the guarantee the guard needs, regardless of which allocation's
//! lifetime the address previously belonged to.
//!
//! Slot claim/release and hazard clearing use acquire/release — they
//! only sequence a slot's reuse, not reclamation itself.
//!
//! # Reclamation guarantees
//!
//! A retired pointer that *is* protected at scan time stays on the
//! retire list and is re-examined at the next [`ArcCell::store`]; if no
//! further store happens it is freed when the cell drops. The retire
//! list is behind a [`Mutex`], but only writers ever touch it — the read
//! path takes no lock and performs no allocation.

use std::marker::PhantomData;
use std::ops::Deref;
use std::ptr;
use std::sync::atomic::{AtomicBool, AtomicPtr, Ordering};
use std::sync::{Arc, Mutex};

/// Default number of hazard slots (= concurrently live [`ReaderHandle`]s)
/// per cell. Far above any sane reader-thread count; override with
/// [`ArcCell::with_slots`] if needed.
pub const DEFAULT_READER_SLOTS: usize = 64;

/// An atomically swappable `Arc<T>` with lock-free, allocation-free
/// reads. See the [module docs](self) for the protocol and the memory
/// ordering argument.
pub struct ArcCell<T> {
    /// The published value, as `Arc::into_raw`. Never null.
    current: AtomicPtr<T>,
    /// One hazard slot per claimed reader handle; null = not reading.
    hazards: Box<[AtomicPtr<T>]>,
    /// Which hazard slots are claimed by a live handle.
    claimed: Box<[AtomicBool]>,
    /// Superseded pointers awaiting an unprotected scan. Writer-side only.
    retired: Mutex<Vec<*mut T>>,
}

// Raw pointers poison the auto traits, but every pointer in the cell is
// an `Arc<T>` in disguise; the cell is exactly as shareable as the `T`s
// it hands out.
unsafe impl<T: Send + Sync> Send for ArcCell<T> {}
unsafe impl<T: Send + Sync> Sync for ArcCell<T> {}

impl<T> ArcCell<T> {
    /// A cell publishing `initial`, with [`DEFAULT_READER_SLOTS`] hazard
    /// slots.
    pub fn new(initial: Arc<T>) -> Self {
        Self::with_slots(initial, DEFAULT_READER_SLOTS)
    }

    /// A cell publishing `initial` with room for exactly `slots`
    /// concurrently live reader handles.
    pub fn with_slots(initial: Arc<T>, slots: usize) -> Self {
        assert!(slots > 0, "a cell without reader slots cannot be read");
        ArcCell {
            current: AtomicPtr::new(Arc::into_raw(initial) as *mut T),
            hazards: (0..slots)
                .map(|_| AtomicPtr::new(ptr::null_mut()))
                .collect(),
            claimed: (0..slots).map(|_| AtomicBool::new(false)).collect(),
            retired: Mutex::new(Vec::new()),
        }
    }

    /// Claims a hazard slot and returns a reader handle that owns it (and
    /// keeps the cell alive through its `Arc`). Each handle yields one
    /// guard at a time — [`ReaderHandle::load`] takes `&mut self` — which
    /// is what makes a single slot per handle sufficient.
    ///
    /// # Panics
    /// Panics when every slot is claimed; size the cell with
    /// [`ArcCell::with_slots`] for unusual reader counts.
    pub fn reader(self: &Arc<Self>) -> ReaderHandle<T> {
        for slot in 0..self.claimed.len() {
            if self.claimed[slot]
                .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                return ReaderHandle {
                    cell: Arc::clone(self),
                    slot,
                };
            }
        }
        panic!(
            "all {} reader slots of this ArcCell are claimed",
            self.claimed.len()
        );
    }

    /// Publishes `new` and retires the previous value, freeing every
    /// retired value no reader currently protects. Lock-free for readers;
    /// concurrent writers serialize only on the retire list.
    pub fn store(&self, new: Arc<T>) {
        let fresh = Arc::into_raw(new) as *mut T;
        let old = self.current.swap(fresh, Ordering::SeqCst);
        let mut retired = self.retired.lock().expect("retire list never poisoned");
        retired.push(old);
        retired.retain(|&p| {
            let protected = self.hazards.iter().any(|h| h.load(Ordering::SeqCst) == p);
            if !protected {
                // No hazard slot holds `p` at a point after it left
                // `current`, so no guard exists or can be created for it.
                unsafe { drop(Arc::from_raw(p)) };
            }
            protected
        });
    }

    /// Clones the current `Arc` out of the cell without claiming a reader
    /// slot. **Writer-side convenience only** — it briefly claims a slot
    /// internally, so it panics under the same slot exhaustion as
    /// [`ArcCell::reader`].
    pub fn load_full(self: &Arc<Self>) -> Arc<T> {
        self.reader().load_owned()
    }
}

impl<T> Drop for ArcCell<T> {
    fn drop(&mut self) {
        // `&mut self`: no guards or handles remain (both hold an `Arc` to
        // the cell), so every pointer is unprotected.
        unsafe {
            drop(Arc::from_raw(self.current.load(Ordering::SeqCst)));
            for p in self.retired.get_mut().expect("unpoisoned").drain(..) {
                drop(Arc::from_raw(p));
            }
        }
    }
}

impl<T> std::fmt::Debug for ArcCell<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ArcCell")
            .field("slots", &self.hazards.len())
            .finish_non_exhaustive()
    }
}

/// A claimed hazard slot on an [`ArcCell`]. One per reader thread;
/// cheap to create, movable across threads, releases its slot on drop.
#[derive(Debug)]
pub struct ReaderHandle<T> {
    cell: Arc<ArcCell<T>>,
    slot: usize,
}

impl<T> ReaderHandle<T> {
    /// Acquires the current snapshot — lock-free, allocation-free. The
    /// guard pins the snapshot until dropped; `&mut self` statically
    /// enforces the one-guard-per-handle invariant the hazard slot needs.
    pub fn load(&mut self) -> SnapshotGuard<'_, T> {
        let hazard = &self.cell.hazards[self.slot];
        loop {
            let p = self.cell.current.load(Ordering::SeqCst);
            hazard.store(p, Ordering::SeqCst);
            if self.cell.current.load(Ordering::SeqCst) == p {
                // `p` was current *after* the hazard published it: any
                // store retiring it scans later and sees our slot.
                return SnapshotGuard {
                    hazard,
                    ptr: p,
                    _borrow: PhantomData,
                };
            }
            // A publish raced between load and hazard store; retry. The
            // writer swaps at most once per published snapshot, so this
            // loop is effectively wait-free in a single-writer setup.
        }
    }

    /// Acquires the current snapshot as an owned `Arc` (one atomic
    /// ref-count increment; no lock, no heap allocation). Use when the
    /// snapshot must outlive the next `load`, e.g. to diff epochs.
    pub fn load_owned(&mut self) -> Arc<T> {
        let guard = self.load();
        // Safe while the guard pins `ptr`: the allocation is live, and
        // bumping the strong count keeps it live past the guard.
        unsafe {
            Arc::increment_strong_count(guard.ptr as *const T);
            Arc::from_raw(guard.ptr as *const T)
        }
    }

    /// The cell this handle reads from.
    pub fn cell(&self) -> &Arc<ArcCell<T>> {
        &self.cell
    }
}

impl<T> Drop for ReaderHandle<T> {
    fn drop(&mut self) {
        // No guard outlives the handle (guards borrow it), so the hazard
        // slot is already null; release the slot for the next reader.
        self.cell.hazards[self.slot].store(ptr::null_mut(), Ordering::Release);
        self.cell.claimed[self.slot].store(false, Ordering::Release);
    }
}

/// A pinned snapshot: dereferences to `&T`, un-pins on drop. Holding a
/// guard never blocks the writer — it only defers reclamation of this
/// one superseded snapshot.
#[derive(Debug)]
pub struct SnapshotGuard<'h, T> {
    hazard: &'h AtomicPtr<T>,
    ptr: *mut T,
    _borrow: PhantomData<&'h T>,
}

impl<T> Deref for SnapshotGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        // Pinned by the hazard slot since before the validating re-load.
        unsafe { &*self.ptr }
    }
}

impl<T> Drop for SnapshotGuard<'_, T> {
    fn drop(&mut self) {
        self.hazard.store(ptr::null_mut(), Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    /// Counts drops so reclamation is observable.
    struct Tracked {
        value: u64,
        drops: Arc<AtomicUsize>,
    }

    impl Drop for Tracked {
        fn drop(&mut self) {
            self.drops.fetch_add(1, Ordering::SeqCst);
        }
    }

    fn tracked(value: u64, drops: &Arc<AtomicUsize>) -> Arc<Tracked> {
        Arc::new(Tracked {
            value,
            drops: Arc::clone(drops),
        })
    }

    #[test]
    fn load_sees_the_latest_store() {
        let drops = Arc::new(AtomicUsize::new(0));
        let cell = Arc::new(ArcCell::new(tracked(0, &drops)));
        let mut reader = cell.reader();
        assert_eq!(reader.load().value, 0);
        for i in 1..=10 {
            cell.store(tracked(i, &drops));
            assert_eq!(reader.load().value, i);
        }
    }

    #[test]
    fn unprotected_snapshots_are_freed_on_store() {
        let drops = Arc::new(AtomicUsize::new(0));
        let cell = Arc::new(ArcCell::new(tracked(0, &drops)));
        for i in 1..=5 {
            cell.store(tracked(i, &drops));
        }
        // Each store retires its predecessor; with no readers, each scan
        // frees everything retired so far.
        assert_eq!(drops.load(Ordering::SeqCst), 5);
        drop(cell);
        assert_eq!(drops.load(Ordering::SeqCst), 6);
    }

    #[test]
    fn a_guard_defers_reclamation_until_dropped() {
        let drops = Arc::new(AtomicUsize::new(0));
        let cell = Arc::new(ArcCell::new(tracked(0, &drops)));
        let mut reader = cell.reader();
        let guard = reader.load();
        cell.store(tracked(1, &drops));
        // The guarded snapshot survived the scan.
        assert_eq!(drops.load(Ordering::SeqCst), 0);
        assert_eq!(guard.value, 0);
        drop(guard);
        // Reclamation is lazy: the next store's scan frees it.
        cell.store(tracked(2, &drops));
        assert_eq!(drops.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn load_owned_outlives_subsequent_stores() {
        let drops = Arc::new(AtomicUsize::new(0));
        let cell = Arc::new(ArcCell::new(tracked(0, &drops)));
        let mut reader = cell.reader();
        let old = reader.load_owned();
        cell.store(tracked(1, &drops));
        cell.store(tracked(2, &drops));
        assert_eq!(old.value, 0);
        assert_eq!(reader.load().value, 2);
        drop(old);
    }

    #[test]
    fn slots_are_recycled() {
        let cell = Arc::new(ArcCell::with_slots(Arc::new(7u64), 2));
        let r1 = cell.reader();
        let _r2 = cell.reader();
        drop(r1);
        let mut r3 = cell.reader(); // reuses r1's slot
        assert_eq!(*r3.load(), 7);
    }

    #[test]
    #[should_panic(expected = "reader slots")]
    fn slot_exhaustion_panics() {
        let cell = Arc::new(ArcCell::with_slots(Arc::new(0u64), 1));
        let _r1 = cell.reader();
        let _r2 = cell.reader();
    }

    #[test]
    fn hammered_by_threads_every_load_is_torn_free() {
        // Writer publishes (i, !i) pairs; readers must never observe a
        // mixed pair, and every Tracked must be freed exactly once.
        let drops = Arc::new(AtomicUsize::new(0));
        let pair = |i: u64, d: &Arc<AtomicUsize>| {
            Arc::new(Tracked {
                value: i,
                drops: Arc::clone(d),
            })
        };
        let cell = Arc::new(ArcCell::new(pair(0, &drops)));
        let stop = Arc::new(AtomicBool::new(false));
        let stores = 2000u64;
        std::thread::scope(|s| {
            for _ in 0..4 {
                let mut reader = cell.reader();
                let stop = Arc::clone(&stop);
                s.spawn(move || {
                    let mut last = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        let g = reader.load();
                        // Published values only, and (single writer)
                        // monotonically non-decreasing per reader.
                        assert!(g.value <= stores && g.value >= last);
                        last = g.value;
                    }
                });
            }
            for i in 1..=stores {
                cell.store(pair(i, &drops));
            }
            stop.store(true, Ordering::Relaxed);
        });
        drop(cell);
        assert_eq!(drops.load(Ordering::SeqCst), stores as usize + 1);
    }
}
