//! Live-slide throughput measurement: reader queries/sec while the
//! writer continuously advances the window.
//!
//! Shared by the `serve` CLI and the bench crate's `perf_summary`, so
//! the number CI gates on is the number the CLI prints. One *query
//! round* is three answered queries against one pinned snapshot — a
//! dominator-membership lookup, a top-γ ranked-edge lookup, and a
//! classification (or best-edge fallback when the probed attribute is
//! itself a leading indicator) — the mixed read workload the paper's
//! use case implies.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use hypermine_core::{AssociationModel, ModelConfig};
use hypermine_data::AttrId;

use crate::host::ServeHost;
use crate::sim::MarketFeed;
use crate::snapshot::SnapshotSpec;
use crate::writer::ModelServer;

/// One throughput run at a fixed reader count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QpsRun {
    /// Concurrent reader threads.
    pub readers: usize,
    /// Total queries answered across all readers (3 per round).
    pub queries: u64,
    /// Wall-clock time the readers ran.
    pub elapsed: Duration,
    /// Aggregate queries per second.
    pub qps: f64,
    /// Snapshots the writer published during the run.
    pub published: u64,
    /// Highest epoch any reader observed.
    pub max_epoch_seen: u64,
}

/// Measures aggregate reader throughput at `readers` threads for
/// roughly `duration`, with the writer sliding the window as fast as
/// the queue's backpressure allows. Deterministic feed, wall-clock
/// measurement.
pub fn measure_qps(
    feed: &MarketFeed,
    model_cfg: &ModelConfig,
    spec: &SnapshotSpec,
    readers: usize,
    duration: Duration,
) -> QpsRun {
    assert!(readers >= 1, "at least one reader");
    let model =
        AssociationModel::build(feed.initial(), model_cfg).expect("feed configs use valid gammas");
    let n = feed.initial().num_attrs();
    let host = ServeHost::spawn(ModelServer::new(model, spec.clone()), 4);
    let stop = AtomicBool::new(false);

    let mut queries = 0u64;
    let mut max_epoch_seen = 0u64;
    let mut elapsed = Duration::ZERO;
    std::thread::scope(|s| {
        // The feed half: keep the writer sliding until readers finish.
        s.spawn(|| {
            let mut feed = feed.clone();
            while !stop.load(Ordering::Relaxed) {
                host.advance(feed.cycle_row().to_vec());
            }
        });

        let started = Instant::now();
        let workers: Vec<_> = (0..readers)
            .map(|r| {
                let mut handle = host.reader();
                let mut rows = feed.clone();
                // Stagger starting rows so readers do not probe in
                // lockstep.
                for _ in 0..(r * 7) % rows.len().max(1) {
                    rows.cycle_row();
                }
                let stop = &stop;
                s.spawn(move || {
                    let mut scratch = handle.load().scratch();
                    let mut row = rows.cycle_row().to_vec();
                    let mut count = 0u64;
                    let mut last_epoch = 0u64;
                    let mut probe = r;
                    while !stop.load(Ordering::Relaxed) {
                        let snap = handle.load();
                        let epoch = snap.epoch();
                        assert!(epoch >= last_epoch, "epochs regress");
                        last_epoch = epoch;
                        let a = AttrId::new((probe % n) as u32);
                        probe = probe.wrapping_add(1);
                        // 1: dominator membership; 2: top-γ ranking.
                        let leading = snap.is_leading(a);
                        let _strongest = snap.ranked_in_edges(a).first().copied();
                        // 3: classification (or the leading indicator's
                        // own strongest driver when it can't be a
                        // target).
                        if leading {
                            let _ = snap.best_in_edge(a);
                        } else {
                            let _ = snap.predict_or_majority(&mut scratch, &row, a);
                        }
                        count += 3;
                        if probe % 64 == 0 {
                            row.copy_from_slice(rows.cycle_row());
                        }
                    }
                    (count, last_epoch)
                })
            })
            .collect();

        std::thread::sleep(duration);
        stop.store(true, Ordering::Relaxed);
        for w in workers {
            let (count, epoch) = w.join().expect("reader threads don't panic");
            queries += count;
            max_epoch_seen = max_epoch_seen.max(epoch);
        }
        elapsed = started.elapsed();
    });
    let stats = host.shutdown();
    QpsRun {
        readers,
        queries,
        elapsed,
        qps: queries as f64 / elapsed.as_secs_f64(),
        published: stats.published,
        max_epoch_seen,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::FeedConfig;

    #[test]
    fn a_short_run_answers_queries_and_observes_slides() {
        let cfg = FeedConfig {
            tickers: 8,
            window: 60,
            n_days: 100,
            ..FeedConfig::default()
        };
        let feed = MarketFeed::new(&cfg);
        let mut run = measure_qps(
            &feed,
            &ModelConfig::default(),
            &SnapshotSpec::default(),
            2,
            Duration::from_millis(150),
        );
        // On a heavily loaded single-core machine the writer may not get
        // a slice in a short run; retry with longer windows before
        // judging.
        for _ in 0..3 {
            if run.max_epoch_seen >= 1 {
                break;
            }
            run = measure_qps(
                &feed,
                &ModelConfig::default(),
                &SnapshotSpec::default(),
                2,
                Duration::from_millis(400),
            );
        }
        assert_eq!(run.readers, 2);
        assert!(run.queries > 0 && run.queries % 3 == 0);
        assert!(run.qps > 0.0);
        assert!(run.published >= 1, "the writer slid during the run");
        assert!(run.max_epoch_seen >= 1, "readers saw a slide land");
    }
}
