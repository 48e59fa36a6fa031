//! `serve` — drive the concurrent serving layer from the command line.
//!
//! Runs the sim/host split end to end: a deterministic market feed
//! slides the window through the writer thread while reader threads
//! hammer the published snapshots, then prints per-reader-count
//! throughput. With `--inspect`, prints one snapshot's serving view
//! (dominator, strongest rules) instead of benchmarking.
//!
//! ```bash
//! cargo run --release -p hypermine-serve --bin serve -- \
//!     --tickers 40 --window 252 --readers 1,4,8 --duration-ms 1000
//! ```
//!
//! With `--wal-dir DIR`, the stream runs through a *durable* host:
//! every applied observation lands in an append-only WAL under `DIR`
//! (checkpoint + segments, see `hypermine_serve::store`). After a
//! crash, `--wal-dir DIR --recover` rebuilds the model from the newest
//! checkpoint plus the log tail and keeps serving from where the
//! pre-crash writer left off.

use std::path::PathBuf;
use std::time::Duration;

use hypermine_core::{ModelConfig, Phase};
use hypermine_serve::{
    measure_qps, DurabilityOptions, FeedConfig, HostOptions, MarketFeed, ModelServer, ServeHost,
    SnapshotSpec,
};

struct Args {
    feed: FeedConfig,
    readers: Vec<usize>,
    duration: Duration,
    inspect: bool,
    wal_dir: Option<PathBuf>,
    recover: bool,
}

fn parse_args() -> Args {
    let mut args = Args {
        feed: FeedConfig::default(),
        readers: vec![1, 4, 8],
        duration: Duration::from_millis(1000),
        inspect: false,
        wal_dir: None,
        recover: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .unwrap_or_else(|| panic!("{name} requires a value"))
        };
        match flag.as_str() {
            "--tickers" => args.feed.tickers = value("--tickers").parse().expect("usize"),
            "--window" => args.feed.window = value("--window").parse().expect("usize"),
            "--days" => args.feed.n_days = value("--days").parse().expect("usize"),
            "--k" => args.feed.k = value("--k").parse().expect("1..=16"),
            "--seed" => args.feed.seed = value("--seed").parse().expect("u64"),
            "--readers" => {
                args.readers = value("--readers")
                    .split(',')
                    .map(|r| r.trim().parse().expect("comma-separated reader counts"))
                    .collect()
            }
            "--duration-ms" => {
                args.duration = Duration::from_millis(value("--duration-ms").parse().expect("ms"))
            }
            "--inspect" => args.inspect = true,
            "--wal-dir" => args.wal_dir = Some(PathBuf::from(value("--wal-dir"))),
            "--recover" => args.recover = true,
            other => {
                eprintln!(
                    "unknown flag {other}; flags: --tickers --window --days --k --seed \
                     --readers a,b,c --duration-ms --inspect --wal-dir DIR --recover"
                );
                std::process::exit(2);
            }
        }
    }
    args
}

/// C2 (γ = 1.20 / 1.12), the configuration the paper's market
/// experiments serve under.
fn model_config() -> ModelConfig {
    ModelConfig {
        gamma_edge: 1.20,
        gamma_hyper: 1.12,
        ..ModelConfig::default()
    }
}

fn inspect(feed: &MarketFeed) {
    let model = hypermine_core::AssociationModel::build(feed.initial(), &model_config())
        .expect("valid gammas");
    let server = ModelServer::new(model, SnapshotSpec::default());
    let mut reader = server.reader();
    let snap = reader.load();
    println!(
        "epoch {} | {} attrs, {} edges, window {} obs",
        snap.epoch(),
        snap.num_attrs(),
        snap.graph().num_edges(),
        snap.database().num_obs()
    );
    let names: Vec<&str> = snap.known().iter().map(|&a| snap.attr_name(a)).collect();
    println!(
        "dominator ({} indicators, {:.1}% covered): {}",
        names.len(),
        snap.coverage() * 100.0,
        names.join(" ")
    );
    println!("strongest rules:");
    for rule in snap.top_rules().iter().take(8) {
        let tail: Vec<String> = rule
            .tail
            .iter()
            .zip(&rule.tail_values)
            .map(|(&a, v)| format!("{}={v}", snap.attr_name(a)))
            .collect();
        println!(
            "  {{{}}} => {}={}  (supp {:.3}, conf {:.3})",
            tail.join(", "),
            snap.attr_name(rule.head),
            rule.head_value,
            rule.support,
            rule.confidence
        );
    }
}

/// Streams the whole feed through `host`, shuts down, and prints what
/// the writer did (including how much of it is durable).
fn drain_feed(mut feed: MarketFeed, host: ServeHost) {
    let mut sent = 0usize;
    while let Some(row) = feed.next_row() {
        let row = row.to_vec();
        if !host.advance(row) {
            break;
        }
        sent += 1;
    }
    let mut reader = host.reader();
    let health = host.health();
    let stats = host.shutdown();
    println!(
        "streamed {sent} observations: {} published, {} rejected, {} wal records, \
         epoch {}, health {health:?}",
        stats.published, stats.rejected, stats.wal_records, stats.last_epoch
    );
    let snap = reader.load();
    println!(
        "serving epoch {} | {} edges over {} obs",
        snap.epoch(),
        snap.graph().num_edges(),
        snap.database().num_obs()
    );
}

fn run_durable(feed: MarketFeed, dir: &PathBuf, recover: bool) {
    let options = HostOptions {
        durability: Some(DurabilityOptions::new(dir)),
        ..HostOptions::queue(64)
    };
    if recover {
        let (host, info) = match ServeHost::recover(dir, SnapshotSpec::default(), options) {
            Ok(recovered) => recovered,
            Err(e) => {
                eprintln!("recovery from {} failed: {e}", dir.display());
                std::process::exit(1);
            }
        };
        let phases: Vec<String> = info
            .phases
            .iter()
            .map(|(phase, ns)| format!("{} {:.1} ms", phase.name(), ns as f64 / 1e6))
            .collect();
        println!(
            "recovered from {}: checkpoint seq {} (epoch {}), {} records replayed ({}){}, \
             resuming at epoch {}",
            dir.display(),
            info.seq,
            info.checkpoint_epoch,
            info.replayed,
            phases.join(", "),
            if info.torn_tail {
                ", torn final record discarded"
            } else {
                ""
            },
            info.epoch
        );
        drain_feed(feed, host);
    } else {
        let model = hypermine_core::AssociationModel::build(feed.initial(), &model_config())
            .expect("valid gammas");
        let host = match ServeHost::spawn_with(
            ModelServer::new(model, SnapshotSpec::default()),
            options,
        ) {
            Ok(host) => host,
            Err(e) => {
                eprintln!("creating the WAL store under {} failed: {e}", dir.display());
                std::process::exit(1);
            }
        };
        println!("durable host: checkpoint + WAL under {}", dir.display());
        drain_feed(feed, host);
    }
}

fn main() {
    let args = parse_args();
    if args.recover && args.wal_dir.is_none() {
        eprintln!("--recover requires --wal-dir DIR");
        std::process::exit(2);
    }
    println!(
        "feed: {} tickers, {}-day window, {} days, k = {}, seed {}",
        args.feed.tickers, args.feed.window, args.feed.n_days, args.feed.k, args.feed.seed
    );
    let feed = MarketFeed::new(&args.feed);
    if args.inspect {
        inspect(&feed);
        return;
    }
    if let Some(dir) = &args.wal_dir {
        run_durable(feed, dir, args.recover);
        return;
    }

    let cfg = model_config();
    let spec = SnapshotSpec::default();
    let mut base_qps = None;
    for &readers in &args.readers {
        let run = measure_qps(&feed, &cfg, &spec, readers, args.duration);
        let base = *base_qps.get_or_insert(run.qps);
        println!(
            "{:>2} readers: {:>12.0} queries/s  ({:>7} queries, {} publishes, \
             epoch reached {}, x{:.2} vs 1 reader)",
            run.readers,
            run.qps,
            run.queries,
            run.published,
            run.max_epoch_seen,
            run.qps / base
        );
    }
}
