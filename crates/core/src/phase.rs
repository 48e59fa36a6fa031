//! Always-on phase timing for multi-stage operations.
//!
//! A [`PhaseTimer`] splits one operation's wall time into named phases:
//! a fixed array of nanosecond accumulators indexed by a phase enum
//! ([`Phase`]), advanced with one [`Instant`] read per phase boundary.
//! There is no knob and no allocation, so callers keep it on in
//! production paths and hand the finished [`PhaseLaps`] to whoever
//! reports the split (a snapshot keeps its publish laps; `perf_summary`
//! prints them next to the end-to-end time they divide).

use std::marker::PhantomData;
use std::time::Instant;

/// A phase enum usable as a [`PhaseTimer`] index.
pub trait Phase: Copy + 'static {
    /// Every phase, in accumulator (and normally execution) order;
    /// `ALL[p.index()] == p`.
    const ALL: &'static [Self];
    /// The phase's accumulator slot, `0..ALL.len()`.
    fn index(self) -> usize;
    /// A short stable name for reports.
    fn name(self) -> &'static str;
}

/// Finished per-phase nanoseconds of one timed operation. `N` is the
/// phase count (`P::ALL.len()`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseLaps<P, const N: usize> {
    nanos: [u64; N],
    phase: PhantomData<P>,
}

impl<P, const N: usize> Default for PhaseLaps<P, N> {
    /// All phases at zero.
    fn default() -> Self {
        PhaseLaps {
            nanos: [0; N],
            phase: PhantomData,
        }
    }
}

impl<P: Phase, const N: usize> PhaseLaps<P, N> {
    /// Nanoseconds charged to `phase`.
    pub fn nanos(&self, phase: P) -> u64 {
        self.nanos[phase.index()]
    }

    /// Nanoseconds across all phases.
    pub fn total_nanos(&self) -> u64 {
        self.nanos.iter().sum()
    }

    /// `(phase, nanoseconds)` in accumulator order.
    pub fn iter(&self) -> impl Iterator<Item = (P, u64)> + '_ {
        P::ALL.iter().map(|&p| (p, self.nanos(p)))
    }
}

impl<P, const N: usize> std::ops::AddAssign for PhaseLaps<P, N> {
    /// Adds another operation's laps phase by phase — the split of a
    /// run of timed operations.
    fn add_assign(&mut self, other: Self) {
        for (mine, theirs) in self.nanos.iter_mut().zip(other.nanos) {
            *mine += theirs;
        }
    }
}

/// A running phase timer: each [`PhaseTimer::lap`] charges the time since
/// the previous lap to one phase.
#[derive(Debug)]
pub struct PhaseTimer<P, const N: usize> {
    laps: PhaseLaps<P, N>,
    mark: Instant,
}

impl<P: Phase, const N: usize> PhaseTimer<P, N> {
    /// Starts timing now.
    ///
    /// # Panics
    /// Panics if `N` is not the phase count.
    pub fn start() -> Self {
        assert_eq!(N, P::ALL.len(), "one accumulator per phase");
        PhaseTimer {
            laps: PhaseLaps::default(),
            mark: Instant::now(),
        }
    }

    /// Charges the time since the previous lap (or the start) to `phase`.
    #[inline]
    pub fn lap(&mut self, phase: P) {
        let now = Instant::now();
        let ns = now.duration_since(self.mark).as_nanos();
        self.laps.nanos[phase.index()] += u64::try_from(ns).unwrap_or(u64::MAX);
        self.mark = now;
    }

    /// The laps so far; time since the last lap is not charged anywhere.
    pub fn finish(self) -> PhaseLaps<P, N> {
        self.laps
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Step {
        Load,
        Work,
    }

    impl Phase for Step {
        const ALL: &'static [Self] = &[Step::Load, Step::Work];
        fn index(self) -> usize {
            self as usize
        }
        fn name(self) -> &'static str {
            match self {
                Step::Load => "load",
                Step::Work => "work",
            }
        }
    }

    #[test]
    fn laps_accumulate_per_phase_and_sum_to_the_wall_time() {
        let wall = Instant::now();
        let mut t = PhaseTimer::<Step, 2>::start();
        std::thread::sleep(Duration::from_millis(2));
        t.lap(Step::Work);
        t.lap(Step::Load);
        std::thread::sleep(Duration::from_millis(1));
        t.lap(Step::Work);
        let laps = t.finish();
        let wall = wall.elapsed().as_nanos() as u64;
        assert!(laps.nanos(Step::Work) >= 3_000_000);
        assert!(laps.nanos(Step::Load) < laps.nanos(Step::Work));
        assert_eq!(
            laps.total_nanos(),
            laps.nanos(Step::Load) + laps.nanos(Step::Work)
        );
        assert!(laps.total_nanos() <= wall);
        let names: Vec<&str> = laps.iter().map(|(p, _)| p.name()).collect();
        assert_eq!(names, ["load", "work"]);
        let mut run = laps;
        run += laps;
        assert_eq!(run.nanos(Step::Work), 2 * laps.nanos(Step::Work));
        assert_eq!(run.total_nanos(), 2 * laps.total_nanos());
    }

    #[test]
    #[should_panic(expected = "one accumulator per phase")]
    fn the_array_length_must_match_the_phase_count() {
        let _ = PhaseTimer::<Step, 3>::start();
    }
}
