//! The `wide500` section: the registry's `perf_wide500` fixture (500
//! tickers × 504 days at the `GammaPreset::WideDefault` gammas its
//! `Gammas::Preset` runs resolve to), single-threaded for the runtime
//! budget. One build per k (each covers ~125k pairs, so a second run buys
//! little at this cost), each entry with its kernel path, graph bytes and
//! bytes per kept edge, plus the median of [`WIDE500_SLIDES`] k = 3
//! steady slides (`wide500-slide`), which at this width take the
//! row-recount fallback: the triple tensor would need gigabytes. The
//! section reports its peak RSS for the memory rows.

use super::{config, fixture, fmt_peak, time_advances, with_peak_rss, Footprint, Summary};
use crate::json::{Entries, Obj};
use hypermine_core::AssociationModel;
use hypermine_experiments::registry::RunScale;
use hypermine_market::discretize_market;
use std::time::Instant;

/// Timed steady-state slides of the k = 3 model (the entry reports their
/// median).
const WIDE500_SLIDES: usize = 3;

/// Runs the section and keeps its largest model's footprint.
pub(crate) fn run(scale: RunScale, out: &mut Summary) {
    let (spec, dims, market) = fixture("perf_wide500", scale);
    let mut entries = Entries::new("wide500");
    let mut largest = Footprint::default();
    let ((), peak) = with_peak_rss(|| {
        for run in spec.runs {
            let k = run.k;
            let disc = discretize_market(&market, k, None);
            let cfg = config(run, dims.tickers, 1);
            let start = Instant::now();
            let mut model = AssociationModel::build(&disc.database, &cfg).unwrap();
            let build_ms = start.elapsed().as_secs_f64() * 1e3;
            let (edges, graph_bytes, bytes_per_edge) = largest.measure(&model, true);
            entries.push(
                Obj::entry(k, "wide500-obsmajor")
                    .ms("millis", build_ms)
                    .val("edges", edges)
                    .str("kernel", model.kernel_path())
                    .str("simd", model.simd_level())
                    .val("graph_bytes", graph_bytes)
                    .ratio("bytes_per_edge", bytes_per_edge),
            );
            if k != 3 {
                continue;
            }
            // The first advance builds the incremental state (untimed);
            // the next WIDE500_SLIDES are steady slides, reported by
            // their median with its phase split.
            let db = &disc.database;
            let days: Vec<Vec<u8>> = (0..=WIDE500_SLIDES)
                .map(|day| db.attrs().map(|a| db.value(a, day)).collect())
                .collect();
            model.advance(&days[0]).unwrap();
            let stats = model.incremental_stats().expect("state built");
            let mut slides: Vec<_> = days[1..]
                .iter()
                .map(|day| time_advances(&mut model, std::slice::from_ref(day), 1))
                .collect();
            slides.sort_by(|a, b| a.0.total_cmp(&b.0));
            let (slide_ms, phases, cover) = slides.swap_remove(WIDE500_SLIDES / 2);
            out.slide("wide500-slide", k, cover, slide_ms, build_ms);
            entries.push(
                Obj::entry(k, "wide500-slide")
                    .ms("millis", slide_ms)
                    .val("slides", WIDE500_SLIDES)
                    .ms("rebuild_ms", build_ms)
                    .str("kernel", stats.kernel_path)
                    .str("simd", stats.simd)
                    .val("tensor", stats.uses_triple_tensor)
                    .phases(phases, cover),
            );
        }
    });
    largest.peak_rss = peak;
    let section = Obj::default()
        .val("tickers", dims.tickers)
        .val("days", dims.days)
        .val("seed", spec.seed)
        .val("threads", 1)
        .val("runs", 1)
        .str("gammas", "wide-default")
        .val("peak_rss_bytes", fmt_peak(peak))
        .val("entries", entries);
    out.member("wide500", section);
    out.n500 = Some(largest);
}
