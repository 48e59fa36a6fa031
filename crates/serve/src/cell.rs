//! A shared `Arc` cell with one writer and cached, allocation-free reads.
//!
//! The cell holds the current value as a `Mutex<Arc<T>>` plus an
//! [`AtomicU64`] version that every [`ArcCell::store`] bumps under the
//! lock. Each [`ReaderHandle`] caches an `Arc<T>` and the version it
//! saw:
//!
//! - **Read** ([`ReaderHandle::load`]): one `Acquire` load of the
//!   version. Only when it moved does the handle take the lock, clone the
//!   current `Arc` and read the version under the lock, so the two always
//!   match. Every other load is a field read of the cached `Arc`. No load
//!   allocates.
//! - **Publish** ([`ArcCell::store`]): lock, swap, bump the version,
//!   unlock, then drop the previous `Arc` outside the lock.
//!
//! # Reclamation
//!
//! A superseded value lives as long as some handle still caches it: it
//! is freed when the last handle that cached it loads again or is
//! dropped, or at the `store` that supersedes it when no handle cached
//! it (an owned `Arc` from [`ReaderHandle::load_owned`] or
//! [`ArcCell::load_full`] keeps it alive too, like any clone). So an idle
//! handle pins exactly one value, its last-loaded one (the value current
//! when it was created, before its first load). Handles are unbounded in
//! number.

use std::ops::Deref;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// A shared `Arc<T>` that one writer replaces and any number of
/// [`ReaderHandle`]s read. See the [module docs](self).
pub struct ArcCell<T> {
    current: Mutex<Arc<T>>,
    /// Bumped by every store, under the lock.
    version: AtomicU64,
}

impl<T> ArcCell<T> {
    /// A cell publishing `initial`.
    pub fn new(initial: Arc<T>) -> Self {
        ArcCell {
            current: Mutex::new(initial),
            version: AtomicU64::new(0),
        }
    }

    /// The lock. Nothing that holds it can panic between its reads and
    /// writes, so a poisoned lock still guards a whole `Arc`.
    fn lock(&self) -> MutexGuard<'_, Arc<T>> {
        self.current.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// A reader handle caching the current value. Each handle yields one
    /// guard at a time ([`ReaderHandle::load`] takes `&mut self`).
    pub fn reader(self: &Arc<Self>) -> ReaderHandle<T> {
        let current = self.lock();
        ReaderHandle {
            cell: Arc::clone(self),
            cached: Arc::clone(&current),
            seen: self.version.load(Ordering::Relaxed),
        }
    }

    /// Publishes `new`. The previous value is dropped here, outside the
    /// lock, unless a handle still caches it.
    pub fn store(&self, new: Arc<T>) {
        let mut current = self.lock();
        let old = std::mem::replace(&mut *current, new);
        self.version.fetch_add(1, Ordering::Release);
        drop(current);
        drop(old);
    }

    /// A clone of the current `Arc`, taken under the lock.
    pub fn load_full(&self) -> Arc<T> {
        Arc::clone(&self.lock())
    }
}

impl<T> std::fmt::Debug for ArcCell<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ArcCell")
            .field("version", &self.version.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

/// One reader of an [`ArcCell`]: the cached value and the version it was
/// current at. Cheap to create, movable across threads.
pub struct ReaderHandle<T> {
    cell: Arc<ArcCell<T>>,
    cached: Arc<T>,
    seen: u64,
}

impl<T> ReaderHandle<T> {
    /// Brings the cached value up to date: the lock is taken only when
    /// the version moved, and the superseded value is dropped after it
    /// is released.
    fn refresh(&mut self) {
        // Pairs with the store's `Release` bump. This load only decides
        // whether to take the lock; the lock orders the `Arc` itself.
        if self.cell.version.load(Ordering::Acquire) == self.seen {
            return;
        }
        let current = self.cell.lock();
        let fresh = Arc::clone(&current);
        // Stores bump the version under the lock, so it matches `fresh`.
        self.seen = self.cell.version.load(Ordering::Relaxed);
        drop(current);
        self.cached = fresh;
    }

    /// The current value, allocation-free. The guard borrows the handle,
    /// so the handle yields one guard at a time.
    pub fn load(&mut self) -> SnapshotGuard<'_, T> {
        self.refresh();
        SnapshotGuard {
            cached: &self.cached,
        }
    }

    /// The current value as an owned `Arc` (one reference-count
    /// increment, no allocation). Use when it must outlive the next
    /// `load`, e.g. to diff epochs.
    pub fn load_owned(&mut self) -> Arc<T> {
        self.refresh();
        Arc::clone(&self.cached)
    }

    /// The cell this handle reads from.
    pub fn cell(&self) -> &Arc<ArcCell<T>> {
        &self.cell
    }
}

impl<T> std::fmt::Debug for ReaderHandle<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReaderHandle")
            .field("seen", &self.seen)
            .finish_non_exhaustive()
    }
}

/// A loaded value: dereferences to the handle's cached `T`.
#[derive(Debug)]
pub struct SnapshotGuard<'h, T> {
    cached: &'h T,
}

impl<T> Deref for SnapshotGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        self.cached
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicUsize};

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

    fn dropped(drops: &AtomicUsize) -> usize {
        drops.load(Ordering::SeqCst)
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
    fn load_full_returns_the_current_value() {
        let drops = Arc::new(AtomicUsize::new(0));
        let cell = ArcCell::new(tracked(0, &drops));
        assert_eq!(cell.load_full().value, 0);
        cell.store(tracked(1, &drops));
        let full = cell.load_full();
        assert_eq!(full.value, 1);
        cell.store(tracked(2, &drops));
        assert_eq!(cell.load_full().value, 2);
        // The owned clone keeps its value past the store.
        assert_eq!((full.value, dropped(&drops)), (1, 1));
        drop(full);
        assert_eq!(dropped(&drops), 2);
    }

    #[test]
    fn unprotected_snapshots_are_freed_on_store() {
        let drops = Arc::new(AtomicUsize::new(0));
        let cell = Arc::new(ArcCell::new(tracked(0, &drops)));
        for i in 1..=5 {
            cell.store(tracked(i, &drops));
            // No handle cached the predecessor, so its store freed it.
            assert_eq!(dropped(&drops), i as usize);
        }
        drop(cell);
        assert_eq!(dropped(&drops), 6);
    }

    #[test]
    fn a_guard_defers_reclamation_until_dropped() {
        let drops = Arc::new(AtomicUsize::new(0));
        let cell = Arc::new(ArcCell::new(tracked(0, &drops)));
        let mut reader = cell.reader();
        {
            let guard = reader.load();
            cell.store(tracked(1, &drops));
            // The guarded value survived the store.
            assert_eq!(dropped(&drops), 0);
            assert_eq!(guard.value, 0);
        }
        // Its handle still caches it until the handle itself drops.
        assert_eq!(dropped(&drops), 0);
        drop(reader);
        assert_eq!(dropped(&drops), 1);
    }

    #[test]
    fn a_superseded_value_is_freed_once_every_handle_that_cached_it_moved_on() {
        let drops = Arc::new(AtomicUsize::new(0));
        let cell = Arc::new(ArcCell::new(tracked(0, &drops)));
        let (mut r1, mut r2) = (cell.reader(), cell.reader());
        assert_eq!((r1.load().value, r2.load().value), (0, 0));
        cell.store(tracked(1, &drops));
        assert_eq!(dropped(&drops), 0, "both handles cache value 0");
        assert_eq!(r1.load().value, 1);
        assert_eq!(dropped(&drops), 0, "r2 still caches value 0");
        assert_eq!(r2.load().value, 1);
        assert_eq!(
            dropped(&drops),
            1,
            "the last handle that cached it moved on"
        );

        cell.store(tracked(2, &drops));
        drop(r1);
        assert_eq!(dropped(&drops), 1, "r2 still caches value 1");
        drop(r2);
        assert_eq!(dropped(&drops), 2, "dropping the last handle frees it");
        drop(cell);
        assert_eq!(dropped(&drops), 3);
    }

    #[test]
    fn an_idle_handle_pins_exactly_its_last_loaded_value() {
        let drops = Arc::new(AtomicUsize::new(0));
        let cell = Arc::new(ArcCell::new(tracked(0, &drops)));
        let mut idle = cell.reader();
        assert_eq!(idle.load().value, 0);
        for i in 1..=5 {
            cell.store(tracked(i, &drops));
        }
        // Values 1..=4 were freed by the stores that superseded them;
        // value 0 lives on in the idle handle, and value 5 is current.
        assert_eq!(dropped(&drops), 4);
        assert_eq!(idle.load().value, 5);
        assert_eq!(dropped(&drops), 5, "the reload freed value 0");
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
    fn hammered_by_threads_every_load_is_torn_free() {
        // Readers must only ever see published values, monotone per
        // reader, and every Tracked must be freed exactly once.
        let drops = Arc::new(AtomicUsize::new(0));
        let cell = Arc::new(ArcCell::new(tracked(0, &drops)));
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
                cell.store(tracked(i, &drops));
            }
            stop.store(true, Ordering::Relaxed);
        });
        drop(cell);
        assert_eq!(dropped(&drops), stores as usize + 1);
    }
}
