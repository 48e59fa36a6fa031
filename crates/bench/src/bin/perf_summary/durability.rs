//! The `durability` section, on the `perf_serve` stream: the mean
//! per-publish cost of [`DURABILITY_SLIDES`] advances through the serve
//! host with the observation WAL off and on (the cost of crash safety,
//! informational), and a `recovery` entry: `store::recover` of the WAL-on
//! run's store beside an `AssociationModel::restore` of the window it
//! recovers, with the recovery's phase split. A queue of 1 makes each
//! `advance` effectively synchronous, so the wall clock over the run is
//! the writer's per-publish work (apply and snapshot build, plus the
//! append on the durable run). No entry carries `"millis"`.

use super::{best_ms, per_call, Check, Summary};
use crate::json::{Entries, Obj};
use hypermine_core::AssociationModel;
use hypermine_experiments::registry::RunScale;
use hypermine_serve::{
    store, DurabilityOptions, HostOptions, MarketFeed, ModelServer, RecoverLaps, ServeHost,
    SnapshotSpec,
};
use std::path::Path;
use std::time::Instant;

/// Publishes timed per entry (WAL off and on).
const DURABILITY_SLIDES: usize = 64;

/// Recovery ceiling: `store::recover` of the WAL-on store (a checkpoint
/// plus `DURABILITY_SLIDES` records) may cost at most this multiple of
/// the same run's `AssociationModel::restore` of the window it recovers.
/// Recovery folds the log into the checkpoint's window and restores
/// once, so the ratio is one build plus reading and folding the store.
/// Over ten `--only construction,incremental,durability` runs on a 2-vCPU
/// AVX2 host it measured 0.82–1.42× (the two builds are ~0.4 ms each, so
/// the spread is mostly thread scheduling); the ceiling is 1.5× the
/// largest. Replaying each record through the incremental engine
/// instead, as recovery once did, measured 4.2–8.6× on the same fixture
/// (fifteen runs).
const RECOVER_RATIO_LIMIT: f64 = 2.13;

/// Best-of runs per recovery timing. A recovery of this store takes
/// about a millisecond, so many runs cost nothing and steady the ratio.
const RECOVERY_RUNS: usize = 15;

pub(crate) fn run(scale: RunScale, out: &mut Summary) {
    let (feed_cfg, model_cfg) = super::serve::fixture(scale);
    let mut entries = Entries::new("durability");
    let mut recovery = None;
    for wal_on in [false, true] {
        let mut feed = MarketFeed::new(&feed_cfg);
        let model = AssociationModel::build(feed.initial(), &model_cfg).expect("valid gammas");
        let wal_dir = wal_on.then(|| {
            std::env::temp_dir().join(format!("hypermine-perf-wal-{}", std::process::id()))
        });
        if let Some(dir) = &wal_dir {
            let _ = std::fs::remove_dir_all(dir);
        }
        let host = ServeHost::spawn_with(
            ModelServer::new(model, SnapshotSpec::default()),
            HostOptions {
                queue: 1,
                durability: wal_dir.as_ref().map(DurabilityOptions::new),
                ..HostOptions::default()
            },
        )
        .expect("temp-dir WAL store");
        let start = Instant::now();
        for _ in 0..DURABILITY_SLIDES {
            let row = feed.cycle_row().to_vec();
            assert!(host.advance(row), "writer exited mid-measurement");
        }
        let stats = host.shutdown();
        let micros = start.elapsed().as_secs_f64() * 1e6 / DURABILITY_SLIDES as f64;
        if let Some(dir) = &wal_dir {
            // Recovery only reads the store the run just wrote.
            recovery = Some(recovery_entry(dir, feed_cfg.k, out));
            let _ = std::fs::remove_dir_all(dir);
        }
        entries.push(
            Obj::default()
                .val("wal", wal_on)
                .ms("micros_per_publish", micros)
                .val("slides", DURABILITY_SLIDES)
                .val("wal_records", stats.wal_records),
        );
    }
    let section = Obj::default()
        .val("slides", DURABILITY_SLIDES)
        .val("entries", entries)
        .val("recovery", recovery.expect("the WAL-on run recovers"));
    out.member("durability", section);
}

/// Times `store::recover` of the store under `dir` and, beside it, an
/// `AssociationModel::restore` of the window it recovers, best of
/// [`RECOVERY_RUNS`] each; adds the recovery's rows to the check table
/// and returns its entry.
fn recovery_entry(dir: &Path, k: u8, out: &mut Summary) -> Obj {
    // `best_ms` keeps the fastest wall time; keep the smallest phase
    // total beside it. Both are minima over the calls, so their quotient
    // cannot exceed 1, and it falls when work escapes the phases.
    let mut fastest: Option<RecoverLaps> = None;
    let (recover_ms, (model, info)) = best_ms(RECOVERY_RUNS, || {
        let out = store::recover(dir).expect("the run's own store recovers");
        let laps = out.1.phases;
        if fastest.is_none_or(|f| laps.total_nanos() < f.total_nanos()) {
            fastest = Some(laps);
        }
        out
    });
    let (restore_ms, _) = best_ms(RECOVERY_RUNS, || {
        AssociationModel::restore(model.database(), model.config(), info.epoch)
            .expect("the recovered config is valid")
    });
    let laps = fastest.expect("best_ms calls its closure");
    let (_, phases, cover) = per_call(recover_ms, &laps, 1);
    let ratio = recover_ms / restore_ms;
    // Replaying the log through the incremental engine instead of
    // folding it costs a state build plus the slides on top of the
    // restore.
    let row = Check::at_most("recover/restore", ratio, RECOVER_RATIO_LIMIT);
    out.checks.push(row);
    out.cover("recover", k, cover);
    Obj::default()
        .val("k", k)
        .ms("recover_ms", recover_ms)
        .ms("restore_ms", restore_ms)
        .ratio("ratio", ratio)
        .val("replayed", info.replayed)
        .val("epoch", info.epoch)
        .phases(phases, cover)
        .str("simd", model.simd_level())
}
