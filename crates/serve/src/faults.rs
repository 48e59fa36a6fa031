//! Deterministic fault injection for the durability layer
//! (`--features fault-injection` only; nothing here exists in a normal
//! build, like the allocation-counting harness the crate already
//! carries for its zero-alloc guarantee).
//!
//! A [`FaultPlan`] is a pre-declared, index-addressed schedule of
//! failures — *which record* tears, *which append* errors, *which
//! command* panics — so a chaos test can replay the exact same crash on
//! every run and assert byte-level recovery outcomes, instead of hoping
//! a random sleep hits the window. Clones share state: hand one clone to
//! [`crate::HostOptions::faults`] (or [`crate::WalStore::with_faults`])
//! and keep the other to steer the run from the test thread.
//!
//! Three fault families, two index spaces:
//!
//! - **I/O faults** ([`FaultPlan::io_error_at`], [`FaultPlan::torn_write_at`])
//!   are indexed by *WAL record* (the n-th append since the store
//!   opened). An error append writes nothing; a torn append writes a
//!   strict prefix of the record and then fails — the on-disk state a
//!   crash mid-`write_all` leaves behind.
//! - **Writer panics** ([`FaultPlan::panic_at`], [`FaultPlan::lethal_panic_at`])
//!   are indexed by *command* (the n-th record the writer drains). A
//!   plain panic fires inside the writer's `catch_unwind` containment
//!   (the host degrades and keeps serving); a *lethal* panic
//!   fires outside it, killing the writer thread — the scenario the
//!   non-aborting `Drop`/[`crate::HostHealth::Failed`] path exists for.
//! - **The stall gate** ([`FaultPlan::stall`] / [`FaultPlan::release`])
//!   parks the writer *between* records, so a test can fill the bounded
//!   queue deterministically and check that [`crate::ServeHost::send`]
//!   blocks on it, without racing the drain.
//!
//! [`FaultPlan::seeded`] derives a reproducible schedule from a seed for
//! soak-style sweeps; every index is also settable explicitly.

use std::collections::BTreeSet;
use std::sync::{Arc, Condvar, Mutex};

/// What an injected I/O fault does to the append that hits it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum IoFault {
    /// The append fails before writing anything.
    Error,
    /// A strict prefix of the record reaches the file, then the append
    /// fails — a torn final write.
    Torn,
}

#[derive(Debug, Default)]
struct Shared {
    stalled: Mutex<bool>,
    resume: Condvar,
}

/// A deterministic, shareable fault schedule. See the module docs.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    io_errors: BTreeSet<u64>,
    torn: BTreeSet<u64>,
    panics: BTreeSet<u64>,
    lethal: BTreeSet<u64>,
    shared: Arc<Shared>,
}

impl FaultPlan {
    /// An empty plan: no faults, gate open.
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// Derives a reproducible schedule from `seed`: one clean I/O error,
    /// one torn write, and one contained writer panic, each at a
    /// pseudo-random index below `horizon` (xorshift64*, so the same
    /// seed yields the same crash on every machine).
    pub fn seeded(seed: u64, horizon: u64) -> FaultPlan {
        let horizon = horizon.max(1);
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state.wrapping_mul(0x2545_f491_4f6c_dd1d) % horizon
        };
        FaultPlan::new()
            .io_error_at(next())
            .torn_write_at(next())
            .panic_at(next())
    }

    /// Fails the append of the given WAL record index (0-based) with an
    /// I/O error, writing nothing.
    pub fn io_error_at(mut self, record: u64) -> FaultPlan {
        self.io_errors.insert(record);
        self
    }

    /// Tears the append of the given WAL record index: a strict prefix
    /// of the record's bytes is written, then the append fails.
    pub fn torn_write_at(mut self, record: u64) -> FaultPlan {
        self.torn.insert(record);
        self
    }

    /// Panics while *processing* the given command index (0-based over
    /// the records the writer drains) — inside the containment, so
    /// the host degrades but keeps serving.
    pub fn panic_at(mut self, command: u64) -> FaultPlan {
        self.panics.insert(command);
        self
    }

    /// Panics *outside* the containment at the given command index,
    /// killing the writer thread (host health becomes `Failed`).
    pub fn lethal_panic_at(mut self, command: u64) -> FaultPlan {
        self.lethal.insert(command);
        self
    }

    /// Closes the gate: the writer parks holding the next record it
    /// receives, before applying it, until [`FaultPlan::release`] is
    /// called.
    pub fn stall(&self) {
        *self.shared.stalled.lock().unwrap() = true;
    }

    /// Opens the gate and wakes a stalled writer.
    pub fn release(&self) {
        *self.shared.stalled.lock().unwrap() = false;
        self.shared.resume.notify_all();
    }

    pub(crate) fn io_fault(&self, record: u64) -> Option<IoFault> {
        if self.io_errors.contains(&record) {
            Some(IoFault::Error)
        } else if self.torn.contains(&record) {
            Some(IoFault::Torn)
        } else {
            None
        }
    }

    pub(crate) fn wait_if_stalled(&self) {
        let mut stalled = self.shared.stalled.lock().unwrap();
        while *stalled {
            stalled = self.shared.resume.wait(stalled).unwrap();
        }
    }

    pub(crate) fn check_contained_panic(&self, command: u64) {
        if self.panics.contains(&command) {
            panic!("injected writer panic at command {command}");
        }
    }

    pub(crate) fn check_lethal_panic(&self, command: u64) {
        if self.lethal.contains(&command) {
            panic!("injected lethal writer panic at command {command}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_plans_are_reproducible_and_in_range() {
        let a = FaultPlan::seeded(9, 50);
        let b = FaultPlan::seeded(9, 50);
        assert_eq!(a.io_errors, b.io_errors);
        assert_eq!(a.torn, b.torn);
        assert_eq!(a.panics, b.panics);
        for idx in a.io_errors.iter().chain(&a.torn).chain(&a.panics) {
            assert!(*idx < 50);
        }
        let c = FaultPlan::seeded(10, 50);
        assert!(a.io_errors != c.io_errors || a.torn != c.torn || a.panics != c.panics);
    }

    #[test]
    fn clones_share_the_stall_gate() {
        let plan = FaultPlan::new();
        let clone = plan.clone();
        plan.stall();
        assert!(*clone.shared.stalled.lock().unwrap());
        clone.release();
        assert!(!*plan.shared.stalled.lock().unwrap());
        // An open gate never blocks.
        plan.wait_if_stalled();
    }

    #[test]
    fn fault_lookups_hit_only_their_indices() {
        let plan = FaultPlan::new()
            .io_error_at(3)
            .torn_write_at(5)
            .panic_at(7)
            .lethal_panic_at(9);
        assert_eq!(plan.io_fault(3), Some(IoFault::Error));
        assert_eq!(plan.io_fault(5), Some(IoFault::Torn));
        assert_eq!(plan.io_fault(4), None);
        plan.check_contained_panic(6); // no panic
        plan.check_lethal_panic(8); // no panic
    }

    #[test]
    #[should_panic(expected = "injected writer panic at command 2")]
    fn contained_panic_fires_at_its_index() {
        FaultPlan::new().panic_at(2).check_contained_panic(2);
    }
}
