//! The `wide` section: the registry's `perf_wide240` fixture (240
//! tickers × 504 days; its `Gammas::Preset` runs resolve to the C1
//! gammas at this width), built best-of-[`WIDE_RUNS`] at every k and at
//! 1, 4 and 8 worker threads (`wide-obsmajor`, `-t4`, `-t8`), each entry
//! with its kernel path, graph bytes and bytes per kept edge: the
//! large-n guard for the blocked flat kernels and the parallel pair
//! sweep. One more k = 8 build under `SimdPolicy::ForceScalar`
//! (`wide-scalar`) gives the same-run SIMD speedup. The section reports
//! its peak RSS for the memory rows.

use super::{best_ms, config, fixture, fmt_peak, threaded_label, with_peak_rss};
use super::{Check, Footprint, Summary, THREADS};
use crate::json::{Entries, Obj};
use hypermine_core::{AssociationModel, ModelConfig, SimdLevel, SimdPolicy};
use hypermine_experiments::registry::RunScale;
use hypermine_market::discretize_market;

/// Timed runs per build: the builds already take tens of seconds.
const WIDE_RUNS: usize = 2;

/// Parallel-efficiency floor: the k = 8 build must speed up at least
/// this much from 1 to 4 worker threads. Gated only on hosts with 4+
/// cores: below that the workers time-slice and the ratio measures the
/// scheduler, not the work-stealing sweep.
const EFFICIENCY_FLOOR: f64 = 2.5;

/// SIMD-speedup floor: the k = 8 single-thread build under the auto
/// policy must beat the same-run `ForceScalar` build by at least this
/// much whenever a vector tier is engaged (skipped on scalar-only hosts,
/// where both builds run the same code). The vertical kernel measures
/// 2.2–3.3× on AVX2, so the floor has ample noise headroom.
const SIMD_FLOOR: f64 = 1.2;

/// Runs the section and keeps its largest model's footprint.
pub(crate) fn run(scale: RunScale, out: &mut Summary) {
    let (spec, dims, market) = fixture("perf_wide240", scale);
    let mut entries = Entries::new("wide");
    let mut largest = Footprint::default();
    // The k = 8 build time per THREADS slot.
    let mut k8 = [f64::NAN; THREADS.len()];
    let (scalar_ms, peak) = with_peak_rss(|| {
        for run in spec.runs {
            let disc = discretize_market(&market, run.k, None);
            for (slot, threads) in THREADS.into_iter().enumerate() {
                let cfg = config(run, dims.tickers, threads);
                let (best, model) = best_ms(WIDE_RUNS, || {
                    AssociationModel::build(&disc.database, &cfg).unwrap()
                });
                if run.k == 8 {
                    k8[slot] = best;
                }
                // The memory rows compare single-thread builds.
                let (edges, graph_bytes, bytes_per_edge) = largest.measure(&model, threads == 1);
                entries.push(
                    Obj::entry(run.k, &threaded_label("wide-obsmajor", threads))
                        .val("threads", threads)
                        .ms("millis", best)
                        .val("edges", edges)
                        .str("kernel", model.kernel_path())
                        .str("simd", model.simd_level())
                        .val("graph_bytes", graph_bytes)
                        .ratio("bytes_per_edge", bytes_per_edge),
                );
            }
        }
        let run = spec.runs.iter().find(|r| r.k == 8).expect("a k = 8 run");
        let disc = discretize_market(&market, run.k, None);
        let cfg = ModelConfig {
            simd: SimdPolicy::ForceScalar,
            ..config(run, dims.tickers, 1)
        };
        let (scalar_ms, model) = best_ms(WIDE_RUNS, || {
            AssociationModel::build(&disc.database, &cfg).unwrap()
        });
        entries.push(
            Obj::entry(8, "wide-scalar")
                .val("threads", 1)
                .ms("millis", scalar_ms)
                .str("kernel", model.kernel_path())
                .str("simd", "scalar"),
        );
        scalar_ms
    });
    largest.peak_rss = peak;
    let simd = SimdPolicy::Auto.resolve();
    let simd_speedup = scalar_ms / k8[0];
    let scaling = Check::at_least("wide k=8 1 -> 4 threads", k8[0] / k8[1], EFFICIENCY_FLOOR);
    out.checks.push(scaling.on_4_cores());
    let vector = Check::at_least("wide k=8 simd speedup", simd_speedup, SIMD_FLOOR);
    out.checks
        .push(vector.skip_if(simd == SimdLevel::Scalar, "scalar tier"));
    let section = Obj::default()
        .val("tickers", dims.tickers)
        .val("days", dims.days)
        .val("seed", spec.seed)
        .val("threads", format_args!("{THREADS:?}"))
        .val("runs", WIDE_RUNS)
        .str("simd", simd)
        .ratio("simd_speedup", simd_speedup)
        .val("peak_rss_bytes", fmt_peak(peak))
        .val("entries", entries);
    out.member("wide", section);
    out.n240 = Some(largest);
}
