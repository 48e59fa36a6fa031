//! The `incremental` section, on the registry's `perf_incremental`
//! fixture at each k of its runs, single-threaded. A model of the first
//! window takes one untimed advance (it builds the incremental counting
//! state), then [`SLIDES`] timed steady slides:
//!
//! - `inc-slide`: per-slide [`AssociationModel::advance`] on the
//!   triple-tensor path, with its speedup over `inc-rebuild`, the
//!   best-of-[`RUNS`] batch build of the window the slides end on, and
//!   the live tensor bytes;
//! - `inc-slide-fallback`: the same slides forced onto the row-recount
//!   fallback (`triple_tensor_max_bytes: Some(0)`), as `slide_ms` beside
//!   the same rebuild;
//! - `publish`: the median of [`PUBLISH_RUNS`] default-spec
//!   `ModelSnapshot::build`s of the slid model, with its `ratio` to a
//!   slide;
//! - `batch-slide` (k = 3 only): the same days as one-trading-week
//!   `advance_batch` calls, with its speedup over single slides.
//!
//! Only `inc-slide`, `inc-rebuild` and `batch-slide` carry `"millis"`;
//! the other entries are gated by same-run ratios alone.

use super::{best_ms, config, fixture, per_call, time_advances, Check, Summary, RUNS};
use crate::json::{Entries, Obj};
use hypermine_core::{AssociationModel, ModelConfig};
use hypermine_experiments::registry::RunScale;
use hypermine_market::discretize_market;
use hypermine_serve::{ModelSnapshot, PublishLaps, SnapshotSpec};
use std::time::Instant;

/// Timed steady-state slides per incremental entry.
const SLIDES: usize = 100;

/// Days per `advance_batch` call of the k = 3 batched entry (one trading
/// week).
const BATCH_DAYS: usize = 5;

/// Timed default-spec publishes per k (the entry reports their median).
const PUBLISH_RUNS: usize = 7;

/// Publish-cost ceilings `(k, multiple)`: a default-spec
/// `ModelSnapshot::build` of the slid model must cost at most this
/// multiple of one slide. Over ten runs on a 2-vCPU AVX2 host k = 3
/// measured 1.58–2.06×, k = 5 3.78–5.72× and k = 8 6.05–10.00×. Each
/// ceiling is 1.5× the largest ratio measured, so that host noise leaves
/// headroom; k = 5 keeps its earlier, tighter 7.40×. The slide is the
/// denominator, so a cheaper slide raises the ratios: when the graph
/// stopped maintaining incidence on every splice, the k = 3 slide fell
/// from ~1.0 to ~0.7 ms while the publish held at ~1.3 ms, and k = 3
/// moved up from 0.93–1.62× (ceiling 2.43×). With 128-bit ranking sort
/// keys and a filtered graph copy for set cover the ratios were
/// 1.4–2.8× and 3.9–5.6×; with per-head comparator sorts and a
/// hash-keyed set cover ~4× and ~8.5×; ranking rules by sorting every
/// mined row made k = 3 ~60×.
const PUBLISH_RATIO_LIMITS: [(u8, f64); 3] = [(3, 3.09), (5, 7.40), (8, 15.0)];

/// Floor of the k = 5 slide's speedup over a rebuild of its window. The
/// rebuild is the denominator, and the SIMD vertical kernel roughly
/// halved it while the incremental path (which touches only what one
/// observation changes, with no dense-row sweeps to vectorize) stayed
/// flat, so the pre-SIMD ≥ 13× measurement became 3.6–7.6× across k and
/// runs. A broken incremental path shows ~1×, so the floor still bites
/// while run-to-run wobble on ~1 ms slides does not.
const SLIDE_SPEEDUP_FLOOR: f64 = 3.0;

/// Floor of one k = 3 `advance_batch(BATCH_DAYS)` call's speedup over
/// `BATCH_DAYS` single slides. Single slides once sped up ~25% while the
/// batch's absolute time stayed put, moving 1.98-2.28× to 1.49-1.65×; a
/// broken batcher, one that degenerates to looping single advances,
/// still shows ~1×.
const BATCH_SPEEDUP_FLOOR: f64 = 1.3;

pub(crate) fn run(scale: RunScale, out: &mut Summary) {
    let (spec, dims, market) = fixture("perf_incremental", scale);
    let window = dims.window;
    let mut entries = Entries::new("incremental");
    let (mut k5_speedup, mut batch_speedup) = (f64::NAN, f64::NAN);
    let mut publish_ratios = Vec::new();
    for run in spec.runs {
        let k = run.k;
        let disc = discretize_market(&market, k, None);
        let db = &disc.database;
        let cfg = config(run, dims.tickers, 1);
        // Day `window` is the untimed first advance; the SLIDES days
        // after it are timed.
        let days: Vec<Vec<u8>> = (window..=window + SLIDES)
            .map(|day| db.attrs().map(|a| db.value(a, day)).collect())
            .collect();
        let slid = |cfg: &ModelConfig, batch: usize| {
            let mut model = AssociationModel::build(&db.slice_obs(0..window), cfg).unwrap();
            model.advance(&days[0]).unwrap();
            let timed = time_advances(&mut model, &days[1..], batch);
            (model, timed)
        };
        let (model, (slide_ms, phases, cover)) = slid(&cfg, 1);
        let stats = model.incremental_stats().expect("state built");
        let edges = model.hypergraph().num_edges();
        let agrees = |other: &AssociationModel| other.hypergraph().num_edges() == edges;
        // A full rebuild of exactly the window the model now covers.
        let window_db = model.database().clone();
        let (rebuild_ms, rebuilt) =
            best_ms(RUNS, || AssociationModel::build(&window_db, &cfg).unwrap());
        assert!(
            agrees(&rebuilt),
            "advanced model diverged from the batch rebuild"
        );
        let speedup = rebuild_ms / slide_ms;
        if k == 5 {
            k5_speedup = speedup;
        }
        out.slide("inc-slide", k, cover, slide_ms, rebuild_ms);
        entries.push(
            Obj::entry(k, "inc-slide")
                .ms("millis", slide_ms)
                .ratio("speedup", speedup)
                .val("edges", edges)
                .val("tensor", stats.uses_triple_tensor)
                .val("tensor_bytes", stats.triple_tensor_bytes)
                .phases(phases, cover)
                .str("simd", stats.simd),
        );
        entries.push(
            Obj::entry(k, "inc-rebuild")
                .ms("millis", rebuild_ms)
                .str("simd", stats.simd),
        );

        // The same slides on the row-recount fallback: the path every
        // stream past the tensor budget takes.
        let fallback_cfg = ModelConfig {
            triple_tensor_max_bytes: Some(0),
            ..cfg.clone()
        };
        let (fallback, (fb_ms, fb_phases, fb_cover)) = slid(&fallback_cfg, 1);
        assert!(
            agrees(&fallback),
            "the fallback diverged from the tensor path"
        );
        out.slide("inc-slide-fallback", k, fb_cover, fb_ms, rebuild_ms);
        entries.push(
            Obj::entry(k, "inc-slide-fallback")
                .ms("slide_ms", fb_ms)
                .ms("rebuild_ms", rebuild_ms)
                .val("tensor", false)
                .phases(fb_phases, fb_cover)
                .str("simd", stats.simd),
        );

        // Default-spec publishes of the slid model against the slide they
        // follow: the write path's two halves, same model, same run. Each
        // snapshot is dropped after its clock stops, and the median
        // publish reports its own phase split.
        let mut publishes: Vec<(f64, PublishLaps)> = (0..PUBLISH_RUNS)
            .map(|_| {
                let start = Instant::now();
                let snapshot = ModelSnapshot::build(&model, &SnapshotSpec::default());
                let ms = start.elapsed().as_secs_f64() * 1e3;
                (ms, *snapshot.publish_phases())
            })
            .collect();
        publishes.sort_by(|a, b| a.0.total_cmp(&b.0));
        let (publish_ms, laps) = publishes[PUBLISH_RUNS / 2];
        let (_, phases, cover) = per_call(publish_ms, &laps, 1);
        let ratio = publish_ms / slide_ms;
        publish_ratios.push((k, ratio));
        out.cover("publish", k, cover);
        entries.push(
            Obj::entry(k, "publish")
                .ms("publish_ms", publish_ms)
                .ms("slide_ms", slide_ms)
                .ratio("ratio", ratio)
                .phases(phases, cover)
                .val("runs", PUBLISH_RUNS)
                .str("simd", stats.simd),
        );

        // Batched advance at k = 3, the regime where a single slide's
        // fixed γ re-test cost dominates: the same days as
        // `advance_batch` calls on a fresh model, against the single
        // slides above. The final models must agree exactly.
        if k == 3 {
            let (batched, (batch_ms, phases, cover)) = slid(&cfg, BATCH_DAYS);
            assert!(
                agrees(&batched),
                "batched advance diverged from single advances"
            );
            batch_speedup = slide_ms * BATCH_DAYS as f64 / batch_ms;
            out.slide("batch-slide", k, cover, batch_ms, rebuild_ms);
            entries.push(
                Obj::entry(k, "batch-slide")
                    .ms("millis", batch_ms)
                    .val("days", BATCH_DAYS)
                    .ratio("speedup", batch_speedup)
                    .phases(phases, cover)
                    .str("simd", stats.simd),
            );
        }
    }
    let speedup = Check::at_least("inc-slide k=5 speedup", k5_speedup, SLIDE_SPEEDUP_FLOOR);
    out.checks.push(speedup);
    let batch = Check::at_least(
        "batch-slide k=3 speedup",
        batch_speedup,
        BATCH_SPEEDUP_FLOOR,
    );
    out.checks.push(batch);
    for (k, limit) in PUBLISH_RATIO_LIMITS {
        let ratio = publish_ratios.iter().find(|r: &&(u8, f64)| r.0 == k);
        let ratio = ratio.map_or(f64::NAN, |r| r.1);
        out.checks
            .push(Check::at_most(format!("publish/slide k={k}"), ratio, limit));
    }
    let section = Obj::default()
        .val("window", window)
        .val("days", dims.days)
        .val("slides", SLIDES)
        .val("entries", entries);
    out.member("incremental", section);
}
