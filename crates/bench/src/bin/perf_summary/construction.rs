//! The `construction` section: best-of-[`RUNS`] builds of the registry's
//! `perf_construction` fixture at every k of its runs and at 1, 4 and 8
//! worker threads (`obsmajor`, `obsmajor-t4`, `obsmajor-t8`; every build
//! runs the one observation-major counting path). Its entries carry
//! `"millis"`, so the calibrated comparison is their only gate.

use super::{best_ms, config, fixture, threaded_label, Summary, RUNS, THREADS};
use crate::json::{Entries, Obj};
use hypermine_core::AssociationModel;
use hypermine_experiments::registry::RunScale;
use hypermine_market::discretize_market;

pub(crate) fn run(scale: RunScale, out: &mut Summary) {
    let (spec, dims, market) = fixture("perf_construction", scale);
    let mut entries = Entries::new("construction");
    for run in spec.runs {
        let disc = discretize_market(&market, run.k, None);
        // Explicit thread counts (rather than `threads: 0` = all cores)
        // keep summaries comparable across hosts with different core
        // counts: every host measures the same three configurations, and
        // the label says which one it was.
        for threads in THREADS {
            let cfg = config(run, dims.tickers, threads);
            let (best, model) = best_ms(RUNS, || {
                AssociationModel::build(&disc.database, &cfg).unwrap()
            });
            entries.push(
                Obj::entry(run.k, &threaded_label("obsmajor", threads))
                    .val("threads", threads)
                    .str("simd", model.simd_level())
                    .ms("millis", best)
                    .val("edges", model.hypergraph().num_edges()),
            );
        }
    }
    let fixture = Obj::default()
        .val("tickers", dims.tickers)
        .val("days", dims.days)
        .val("seed", spec.seed)
        .str("gammas", "c1")
        .val("threads", format_args!("{THREADS:?}"))
        .val("runs", RUNS);
    out.member("fixture", fixture);
    out.member("construction", entries);
}
