//! Emits a machine-readable construction-performance summary as JSON —
//! build times on the registry's `perf_construction` fixture at
//! **threads ∈ {1, 4, 8}** (`obsmajor`, `obsmajor-t4`, `obsmajor-t8`:
//! every build runs the one observation-major counting path), the
//! **incremental sliding-window** latencies (`inc-slide` = steady-state
//! per-slide `AssociationModel::advance` on the triple-tensor path,
//! `inc-rebuild` = full batch build on the same window; the slide entry
//! also carries the measured speedup and the live `incremental_stats`
//! tensor bytes; `inc-slide-fallback` = the same slides forced onto the
//! row-recount fallback, as `slide_ms` next to the rebuild; `publish` =
//! the median default-spec `ModelSnapshot::build` of the slid model, with
//! its `ratio` to the slide), the **batched advance** latency
//! (`batch-slide` = one `advance_batch(5)` call at k = 3, gated at
//! ≥ 1.3× over five single advances), each slide and publish entry
//! with its per-stage split (`phases_ms`, from
//! `AssociationModel::advance_phases` / `ModelSnapshot::publish_phases`)
//! and the share of the wall time those stages cover (`phases_cover`),
//! the **wide fixture** (240 tickers × 504 days,
//! observation-major construction at k ∈ {3, 5, 8}, also at
//! threads ∈ {1, 4, 8} — the large-n regression guard for the blocked
//! flat kernels and the parallel pair sweep — plus one `wide-scalar`
//! build at k = 8 under `SimdPolicy::ForceScalar`, whose same-run
//! ratio against the auto entry is the recorded **SIMD speedup**), the
//! **wide-universe fixture** (500 tickers × 504 days at the
//! `GammaPreset::WideDefault` gammas, single-threaded for runtime
//! budget, one build per k plus the median of three k = 3 slides on the
//! row-recount fallback, each entry carrying the chosen kernel path,
//! resident graph bytes, and bytes per kept edge, each section its peak
//! RSS),
//! and the **serve fixture** (aggregate reader queries/sec against
//! live epoch-tagged snapshots at 1/4/8 reader threads while the
//! writer slides the window — the `hypermine-serve` concurrency
//! story), plus a **durability section** (mean publish latency through
//! the serve host with the observation WAL on vs off — the measured
//! cost of crash safety, informational — and a `recovery` entry:
//! `store::recover` of the WAL-on run's store next to a `restore` of
//! the window it recovers, with the recovery's `phases_ms`) and an
//! **ablations section** (the paper's design choices against their
//! alternatives on the `perf_construction` k = 3 window: bitset vs
//! naive association tables, Algorithm 6 with Enhancements 1/2 off,
//! each alone and both on, and the build with vs without hyperedges —
//! same-run ratios, informational; see the `ablations` module) — so CI
//! can upload it as an artifact. Every timing entry
//! carries the engaged `"kernel"`-style `"simd"` level
//! (`avx2`/`neon`/`scalar`, see `hypermine_core::SimdLevel`), so a
//! runner silently losing its vector tier is visible in the artifact.
//!
//! Optionally **gates** against a committed baseline: with
//! `--baseline <path>` the run fails (exit 1) if any `(k, strategy)`
//! entry's time regresses more than the tolerance over the baseline's
//! (after the machine-speed calibration under `--raw` below), if the
//! k = 5 slide speedup drops below 3× (the pre-SIMD floor was 10×;
//! the vertical kernel halved the batch-rebuild denominator while the
//! tensor path has no dense sweeps to vectorize), if the k = 3
//! batch speedup
//! drops below 1.3× (the single slides it is compared against sped up
//! post-SIMD), if a default-spec publish costs more than 3.09× a slide
//! at k = 3, 7.40× at k = 5 or 15.0× at k = 8, if the durability
//! section's recovery costs more than `RECOVER_RATIO_LIMIT` times the
//! same run's restore of the recovered window, if the stages of a
//! reported publish, slide or recovery sum to less
//! than 95% of its wall time, if any slide entry (`inc-slide`,
//! `inc-slide-fallback`, `batch-slide`, `wide500-slide`) is slower than
//! the same run's rebuild of its window, if reader throughput fails to
//! scale from 1 → 8
//! readers (hardware-aware: ≥ 3× on 8+ cores, ≥ 2× on 4–7; skipped
//! below 4 cores, where reader threads time-slice one core instead of
//! scaling), if the wide k = 8 build fails to speed up ≥ 2.5× from 1
//! to 4 threads (same-machine ratio, gated only on 4+ cores — below
//! that the workers time-slice and the ratio measures the scheduler),
//! if the wide k = 8 SIMD speedup falls below 1.2× while a vector
//! tier is engaged (skipped on scalar-only hosts), or if the n = 500
//! fixture's memory per kept edge — exact graph-byte accounting, and
//! section-local peak RSS where `/proc` exposes it — exceeds twice
//! the n = 240 fixture's same-run figure.
//!
//! Serve entries carry `"qps"` rather than `"millis"`, which keeps
//! them out of the calibrated timing gate by construction — throughput
//! under a deliberately oversubscribed reader count is far too
//! machine-shaped to gate on absolute numbers; only the same-machine
//! 1 → 8 scaling ratio is gated. Publish entries carry `"publish_ms"`,
//! fallback slides `"slide_ms"`, the recovery `"recover_ms"` and
//! ablations `"ablation_ms"` for the same reason: their numbers are
//! same-run ratios, and leaving them out keeps the committed baseline
//! valid.
//!
//! Every fixture's universe dimensions, seed, k sweep, and γ settings
//! come from the scenario registry
//! (`hypermine_experiments::registry`, entries `perf_construction`,
//! `perf_incremental`, `perf_wide240`, `perf_wide500`, `perf_serve`, at
//! [`RunScale::Default`]) — this binary owns only its measurement knobs
//! (run counts, slide counts, durations) and gate floors. Change a
//! fixture in the registry and the `replication` gate and this summary
//! move together.
//!
//! Usage: `perf_summary [OUTPUT_PATH] [--baseline PATH] [--tolerance FRAC]
//! [--raw] [--only SECTION[,SECTION...]]`
//!
//! - `OUTPUT_PATH`: also write the JSON there (stdout always gets it).
//! - `--only SECTION[,...]`: run only the named sections (`construction`,
//!   `incremental`, `wide`, `wide500`, `serve`, `durability`,
//!   `ablations`); the JSON holds only those, a gate whose section did
//!   not run prints "skipped", and the calibrated gate compares only the
//!   baseline entries of the sections that ran. `--only incremental`
//!   times slides and publishes in seconds without paying for wide500
//!   (~60 s and ~3.8 GB peak RSS). Without the flag every section runs,
//!   as in CI.
//! - `--baseline PATH`: compare against a previous summary (e.g. the
//!   committed `bench-baseline.json`) and fail on regressions.
//! - `--tolerance FRAC`: allowed fractional slowdown before failing
//!   (default 0.25, i.e. fail beyond +25%); generous because shared CI
//!   runners jitter, while real regressions from a counting-engine change
//!   are typically ≥ 2×.
//! - `--raw`: compare absolute times. By default the gate **calibrates**
//!   for hardware speed first: the median `new/old` ratio of the matched
//!   **single-thread** entries (labels without a `-t<N>` suffix) is
//!   treated as the machine-speed factor, and every matched entry,
//!   threaded ones included, is gated against it. So a uniformly slower
//!   (or faster) runner than the baseline's author machine doesn't trip
//!   (or mask) the gate — only entries regressing relative to the rest of
//!   the suite do. Threaded entries stay out of the factor because their
//!   ratio also depends on both hosts' core counts: the host that
//!   recorded the committed baseline got no speedup from threads, so on a
//!   runner that does, the threaded entries' ratios (two thirds of the
//!   construction and wide entries) read well below the single-thread
//!   ones and would pull the factor down until single-thread entries
//!   failed. The tradeoff: a change that slows *every* entry uniformly is
//!   attributed to hardware; the per-entry shape is what's gated.

use hypermine_core::{
    AdvanceLaps, AssociationModel, GammaPreset, ModelConfig, Phase, PhaseLaps, SimdLevel,
    SimdPolicy,
};
use hypermine_experiments::registry::{find, RunScale, ScenarioSpec};
use hypermine_market::discretize_market;
use hypermine_serve::{
    measure_qps, store, DurabilityOptions, FeedConfig, HostOptions, MarketFeed, ModelServer,
    ModelSnapshot, PublishLaps, QpsRun, RecoverLaps, ServeHost, SnapshotSpec,
};
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::{Duration, Instant};

// Beside this file rather than in `src/bin/`, where Cargo would take it
// for a binary of its own.
#[path = "perf_summary/ablations.rs"]
mod ablations;

/// Best-of runs per construction timing (min is the most stable point
/// estimate on shared CI runners).
const RUNS: usize = 3;

/// Timed steady-state slides per incremental entry.
const SLIDES: usize = 100;

/// Batched-advance knob: the k = 3 streaming window advanced in 5-day
/// batches (one trading week per `advance_batch` call).
const BATCH_DAYS: usize = 5;

/// Timed default-spec publishes per incremental k (the entry reports
/// their median).
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

/// Phase-coverage floor: the phases of each reported publish
/// (`ModelSnapshot::publish_phases`) and slide
/// (`AssociationModel::advance_phases`) must sum to at least this share
/// of its measured wall time.
const PHASE_COVER_FLOOR: f64 = 0.95;

/// Timed steady-state slides of the n = 500 fixture (the entry reports
/// their median).
const WIDE500_SLIDES: usize = 3;

/// Fewer timed runs on the wide fixture: the three builds already take
/// tens of seconds of CI time.
const WIDE_RUNS: usize = 2;

/// Memory-gate ceiling: the n = 500 fixture's bytes per kept edge —
/// exact graph accounting and peak RSS alike — must stay under this
/// multiple of the n = 240 fixture's same-run figure.
const MEM_PER_EDGE_LIMIT: f64 = 2.0;

/// Reader counts and per-count duration for the serve fixture.
const SERVE_READERS: [usize; 3] = [1, 4, 8];
const SERVE_MS: u64 = 500;

/// Publishes timed per durability entry (WAL on vs off). Like the serve
/// entries, these are reported without a `"millis"` key so they stay
/// out of the calibrated timing gate — the number is informational (the
/// cost of crash safety), not a gated floor.
const DURABILITY_SLIDES: usize = 64;

/// Recovery ceiling: `store::recover` of the durability section's
/// WAL-on store (a checkpoint plus `DURABILITY_SLIDES` records) may cost
/// at most this multiple of the same run's `AssociationModel::restore`
/// of the window it recovers. Recovery folds the log into the
/// checkpoint's window and restores once, so the ratio is one build
/// plus reading and folding the store. Over ten `--only
/// construction,incremental,durability` runs on a 2-vCPU AVX2 host it
/// measured 0.82–1.42× (the two builds are ~0.4 ms each, so the spread
/// is mostly thread scheduling); the ceiling is 1.5× the largest.
/// Replaying each record through the incremental engine instead, as
/// recovery once did, measured 4.2–8.6× on the same fixture (fifteen
/// runs).
const RECOVER_RATIO_LIMIT: f64 = 2.13;

/// Best-of runs per recovery entry timing. A recovery of the serve
/// fixture's store takes about a millisecond, so more runs than
/// [`RUNS`] cost nothing and steady the ratio.
const RECOVERY_RUNS: usize = 15;

/// Worker-thread counts for the construction and wide240 sections. The
/// single-thread entry keeps the bare label (so old baselines keep
/// matching); the others get a `-t4`/`-t8` suffix. The wide500
/// section stays single-threaded for runtime budget.
const THREADS: [usize; 3] = [1, 4, 8];

/// Parallel-efficiency floor: the wide k = 8 build must speed up at
/// least this much from 1 to 4 worker threads — gated only on hosts
/// with 4+ cores (below that the workers time-slice and the ratio
/// measures the scheduler, not the work-stealing sweep).
const EFFICIENCY_FLOOR: f64 = 2.5;

/// SIMD-speedup floor: the wide k = 8 single-thread build under the
/// auto policy must beat the same-run `ForceScalar` build by at least
/// this much whenever a vector tier is engaged (skipped on scalar-only
/// hosts). The vertical kernel measures 2.2–3.3× on AVX2, so the floor
/// has ample noise headroom.
const SIMD_FLOOR: f64 = 1.2;

/// Looks a perf scenario up in the registry; its absence is a bug, not
/// an input error.
fn spec(name: &str) -> &'static ScenarioSpec {
    find(name).unwrap_or_else(|| panic!("{name} is not in the scenario registry"))
}

/// The summary's sections, in run order; `--only` selects among them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Section {
    Construction,
    Incremental,
    Wide,
    Wide500,
    Serve,
    Durability,
    Ablations,
}

impl Section {
    const ALL: [Section; 7] = [
        Section::Construction,
        Section::Incremental,
        Section::Wide,
        Section::Wide500,
        Section::Serve,
        Section::Durability,
        Section::Ablations,
    ];

    fn name(self) -> &'static str {
        match self {
            Section::Construction => "construction",
            Section::Incremental => "incremental",
            Section::Wide => "wide",
            Section::Wide500 => "wide500",
            Section::Serve => "serve",
            Section::Durability => "durability",
            Section::Ablations => "ablations",
        }
    }

    /// The section an `--only` name selects.
    fn parse(name: &str) -> Option<Section> {
        Section::ALL.into_iter().find(|s| s.name() == name)
    }

    /// The section that measures a calibrated-gate entry, by its label.
    fn of_strategy(label: &str) -> Section {
        if label.starts_with("inc-") || label == "batch-slide" {
            Section::Incremental
        } else if label.starts_with("wide500-") {
            Section::Wide500
        } else if label.starts_with("wide-") {
            Section::Wide
        } else {
            Section::Construction
        }
    }
}

struct Args {
    output: Option<String>,
    baseline: Option<String>,
    tolerance: f64,
    raw: bool,
    /// `None` runs every section.
    only: Option<Vec<Section>>,
}

impl Args {
    fn runs(&self, section: Section) -> bool {
        self.only
            .as_ref()
            .is_none_or(|only| only.contains(&section))
    }
}

fn parse_args() -> Args {
    let mut args = Args {
        output: None,
        baseline: None,
        tolerance: 0.25,
        raw: false,
        only: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--baseline" => {
                args.baseline = Some(
                    it.next()
                        .unwrap_or_else(|| usage("--baseline needs a path")),
                )
            }
            "--tolerance" => {
                let v = it
                    .next()
                    .unwrap_or_else(|| usage("--tolerance needs a value"));
                args.tolerance = v
                    .parse()
                    .unwrap_or_else(|_| usage("--tolerance must be a number"));
            }
            "--raw" => args.raw = true,
            "--only" => {
                let list = it.next().unwrap_or_else(|| usage("--only needs a section"));
                let sections = list
                    .split(',')
                    .map(|name| {
                        Section::parse(name).unwrap_or_else(|| {
                            let names: Vec<&str> = Section::ALL.iter().map(|s| s.name()).collect();
                            usage(&format!(
                                "unknown section {name}; sections: {}",
                                names.join(", ")
                            ))
                        })
                    })
                    .collect();
                args.only = Some(sections);
            }
            _ if arg.starts_with("--") => usage(&format!("unknown flag {arg}")),
            _ if args.output.is_none() => args.output = Some(arg),
            _ => usage("at most one output path"),
        }
    }
    args
}

/// Peak resident set size (`VmHWM`) in bytes, if the platform exposes
/// it (Linux `/proc`; `None` elsewhere — the RSS gate is then skipped
/// and only the exact graph-byte accounting gates).
fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

/// Resets the kernel's peak-RSS watermark to the current RSS (Linux
/// `clear_refs`), so the next [`peak_rss_bytes`] read is local to the
/// section that follows instead of remembering every earlier fixture.
fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// A section-local peak RSS as JSON (`null` when unavailable).
fn fmt_peak(peak: Option<u64>) -> String {
    peak.map_or_else(|| "null".to_string(), |v| v.to_string())
}

/// A phase split as JSON object members (`"name": ms`), each phase's
/// time divided by `per` operations.
fn phases_json<P: Phase, const N: usize>(laps: &PhaseLaps<P, N>, per: usize) -> String {
    laps.iter()
        .map(|(phase, ns)| format!("\"{}\": {:.3}", phase.name(), ns as f64 / 1e6 / per as f64))
        .collect::<Vec<_>>()
        .join(", ")
}

/// One warm-up call of `f`, then the best of `runs` timed calls in
/// milliseconds (min is the most stable point estimate on shared CI
/// runners); returns the time and the warm-up call's result.
fn best_ms<T>(runs: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let out = f();
    let mut best = f64::INFINITY;
    for _ in 0..runs {
        let start = Instant::now();
        black_box(f());
        best = best.min(start.elapsed().as_secs_f64() * 1e3);
    }
    (best, out)
}

/// Times `store::recover` of the store under `dir` and, beside it, an
/// `AssociationModel::restore` of the window it recovers, best of
/// [`RECOVERY_RUNS`] each. Returns the JSON entry, the recover/restore
/// ratio and the share of the recovery's wall time its phases cover.
fn recovery_entry(dir: &std::path::Path, k: u8) -> (String, f64, f64) {
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
    let ratio = recover_ms / restore_ms;
    let cover = laps.total_nanos() as f64 / 1e6 / recover_ms;
    let phases_ms = phases_json(&laps, 1);
    eprintln!(
        "durability recover: {recover_ms:.3} ms for {} records vs restore {restore_ms:.3} ms \
         ({ratio:.2}x; phases {phases_ms}, {:.1}% of the wall time)",
        info.replayed,
        cover * 100.0
    );
    let entry = format!(
        "{{\"k\": {k}, \"recover_ms\": {recover_ms:.3}, \"restore_ms\": {restore_ms:.3}, \
         \"ratio\": {ratio:.3}, \"replayed\": {}, \"epoch\": {}, \"phases_ms\": {{{phases_ms}}}, \
         \"phases_cover\": {cover:.4}, \"simd\": \"{}\"}}",
        info.replayed,
        info.epoch,
        model.simd_level()
    );
    (entry, ratio, cover)
}

/// Times one steady-state advance per row (or one `advance_batch` per
/// chunk of `batch` rows): the total milliseconds and the summed phase
/// laps of the calls.
fn time_advances(
    model: &mut AssociationModel,
    rows: &[Vec<u8>],
    batch: usize,
) -> (f64, AdvanceLaps) {
    let mut laps = AdvanceLaps::default();
    let start = Instant::now();
    for chunk in rows.chunks(batch) {
        if batch == 1 {
            model.advance(&chunk[0]).unwrap();
        } else {
            model.advance_batch(chunk).unwrap();
        }
        laps += model.advance_phases().expect("the advance built the state");
    }
    (start.elapsed().as_secs_f64() * 1e3, laps)
}

fn usage(msg: &str) -> ! {
    eprintln!("perf_summary: {msg}");
    eprintln!(
        "usage: perf_summary [OUTPUT_PATH] [--baseline PATH] [--tolerance FRAC] [--raw] \
         [--only SECTION[,SECTION...]]"
    );
    std::process::exit(2);
}

/// Whether a timing label names a multi-threaded entry: a `-t<N>` suffix
/// (`obsmajor-t4`, `wide-obsmajor-t8`).
fn is_threaded(label: &str) -> bool {
    label
        .rsplit_once("-t")
        .is_some_and(|(_, n)| !n.is_empty() && n.bytes().all(|b| b.is_ascii_digit()))
}

/// One measured `(k, strategy)` construction time.
struct Entry {
    k: u8,
    strategy: String,
    millis: f64,
}

/// Extracts `(k, strategy, millis)` entries from a summary JSON produced
/// by this binary (minimal field scan — the format is our own; serde is
/// not vendored).
fn parse_entries(json: &str) -> Vec<Entry> {
    let mut out = Vec::new();
    for obj in json.split('{').skip(1) {
        let field = |name: &str| -> Option<&str> {
            let start = obj.find(&format!("\"{name}\":"))? + name.len() + 3;
            let rest = obj[start..].trim_start();
            let end = rest.find([',', '}', '\n']).unwrap_or(rest.len());
            Some(rest[..end].trim().trim_matches('"'))
        };
        let (Some(k), Some(strategy), Some(millis)) =
            (field("k"), field("strategy"), field("millis"))
        else {
            continue;
        };
        let (Ok(k), Ok(millis)) = (k.parse(), millis.parse()) else {
            continue;
        };
        out.push(Entry {
            k,
            strategy: strategy.to_string(),
            millis,
        });
    }
    out
}

fn main() {
    let args = parse_args();
    // Every fixture below is a registry scenario instantiated at the
    // documented reporting scale; the tiny variants of the same entries
    // are what `replication --scale tiny` gates bit-exactly.
    let scale = RunScale::Default;
    let mut measured: Vec<Entry> = Vec::new();
    // The JSON summary's top-level members, in output order.
    let mut sections: Vec<String> = Vec::new();
    if args.runs(Section::Construction) {
        let con_spec = spec("perf_construction");
        let con_dims = con_spec.dims(scale).expect("market-backed");
        let market = con_spec.simulate(scale).expect("market-backed");
        let mut entries = String::new();
        for run in con_spec.runs {
            let k = run.k;
            let disc = discretize_market(&market, k, None);
            // The explicit thread counts (rather than `threads: 0` = all
            // cores) keep snapshots comparable across CI runners with
            // different core counts: every machine measures the same three
            // worker configurations, and the per-entry label says which one
            // it was.
            for &threads in &THREADS {
                let label = if threads == 1 {
                    "obsmajor".to_string()
                } else {
                    format!("obsmajor-t{threads}")
                };
                let cfg = ModelConfig {
                    threads,
                    ..run.model_config(con_dims.tickers)
                };
                let (best, model) = best_ms(RUNS, || {
                    AssociationModel::build(&disc.database, &cfg).unwrap()
                });
                if !entries.is_empty() {
                    entries.push_str(",\n");
                }
                write!(
                    entries,
                    "    {{\"k\": {k}, \"strategy\": \"{label}\", \"threads\": {threads}, \
                     \"simd\": \"{}\", \"millis\": {best:.3}, \"edges\": {}}}",
                    model.simd_level(),
                    model.hypergraph().num_edges()
                )
                .expect("writing to a String cannot fail");
                measured.push(Entry {
                    k,
                    strategy: label,
                    millis: best,
                });
            }
        }
        sections.push(format!(
            "  \"fixture\": {{\"tickers\": {}, \"days\": {}, \"seed\": {}, \
             \"gammas\": \"c1\", \"threads\": [1, 4, 8], \"runs\": {RUNS}}},\n  \
             \"construction\": [\n{entries}\n  ]",
            con_dims.tickers, con_dims.days, con_spec.seed,
        ));
    }

    // Incremental sliding-window section: one batch model per k, then
    // SLIDES steady-state advances (the first advance, which lazily
    // builds the incremental counting state, is excluded) against a full
    // rebuild of the same window — on the triple-tensor path and again
    // on the row-recount fallback (`triple_tensor_max_bytes: Some(0)`).
    let mut k5_speedup = 0.0f64;
    let mut batch_speedup = 0.0f64;
    // Per k: the median publish's ratio to a slide.
    let mut publish_ratios: Vec<(u8, f64)> = Vec::new();
    // Per reported publish and slide: the share of its wall time its
    // phase laps account for, and (slides only) its time against the
    // same run's rebuild of the same window.
    let mut phase_covers: Vec<(String, u8, f64)> = Vec::new();
    let mut slide_rebuilds: Vec<(String, u8, f64, f64)> = Vec::new();
    if args.runs(Section::Incremental) {
        let inc_spec = spec("perf_incremental");
        let inc_dims = inc_spec.dims(scale).expect("market-backed");
        let window = inc_dims.window;
        let market_inc = inc_spec.simulate(scale).expect("market-backed");
        let mut inc_entries = String::new();
        for run in inc_spec.runs {
            let k = run.k;
            let disc = discretize_market(&market_inc, k, None);
            let db = &disc.database;
            let cfg = ModelConfig {
                threads: 1,
                ..run.model_config(inc_dims.tickers)
            };
            // Day `window` is the untimed first advance (it builds the
            // incremental state); the SLIDES days after it are timed.
            let days: Vec<Vec<u8>> = (window..=window + SLIDES)
                .map(|day| db.attrs().map(|a| db.value(a, day)).collect())
                .collect();
            let mut model = AssociationModel::build(&db.slice_obs(0..window), &cfg).unwrap();
            model.advance(&days[0]).unwrap();
            let inc_stats = model.incremental_stats().expect("state built");
            let (total_ms, laps) = time_advances(&mut model, &days[1..], 1);
            let slide_ms = total_ms / SLIDES as f64;
            let cover = laps.total_nanos() as f64 / 1e6 / total_ms;
            // Full rebuild of exactly the window the model now covers.
            let window_db = model.database().clone();
            let (rebuild_ms, rebuilt) =
                best_ms(RUNS, || AssociationModel::build(&window_db, &cfg).unwrap());
            assert_eq!(
                rebuilt.hypergraph().num_edges(),
                model.hypergraph().num_edges(),
                "advanced model diverged from the batch rebuild"
            );
            let speedup = rebuild_ms / slide_ms;
            if k == 5 {
                k5_speedup = speedup;
            }
            phase_covers.push(("inc-slide".to_string(), k, cover));
            slide_rebuilds.push(("inc-slide".to_string(), k, slide_ms, rebuild_ms));
            let phases_ms = phases_json(&laps, SLIDES);
            eprintln!(
                "incremental k={k}: slide {slide_ms:.3} ms vs rebuild {rebuild_ms:.3} ms \
                 ({speedup:.1}x, {} edges, tensor {} bytes; phases {phases_ms}, \
                 {:.1}% of the wall time)",
                model.hypergraph().num_edges(),
                inc_stats.triple_tensor_bytes,
                cover * 100.0
            );
            if !inc_entries.is_empty() {
                inc_entries.push_str(",\n");
            }
            write!(
                inc_entries,
                "    {{\"k\": {k}, \"strategy\": \"inc-slide\", \"millis\": {slide_ms:.3}, \
                 \"speedup\": {speedup:.2}, \"edges\": {}, \"tensor\": {}, \
                 \"tensor_bytes\": {}, \"phases_ms\": {{{phases_ms}}}, \
                 \"phases_cover\": {cover:.4}, \"simd\": \"{simd}\"}},\n    \
                 {{\"k\": {k}, \"strategy\": \"inc-rebuild\", \"millis\": {rebuild_ms:.3}, \
                 \"simd\": \"{simd}\"}}",
                model.hypergraph().num_edges(),
                inc_stats.uses_triple_tensor,
                inc_stats.triple_tensor_bytes,
                simd = inc_stats.simd
            )
            .expect("writing to a String cannot fail");
            measured.push(Entry {
                k,
                strategy: "inc-slide".to_string(),
                millis: slide_ms,
            });
            measured.push(Entry {
                k,
                strategy: "inc-rebuild".to_string(),
                millis: rebuild_ms,
            });
            // The same slides on the row-recount fallback: the path every
            // stream past the tensor budget takes, measured on this window
            // against the same rebuild. The entry carries `"slide_ms"`,
            // not `"millis"`, so it stays out of the calibrated baseline
            // gate; its gates are the same-run ones below.
            let fb_cfg = ModelConfig {
                triple_tensor_max_bytes: Some(0),
                ..cfg.clone()
            };
            let mut fallback = AssociationModel::build(&db.slice_obs(0..window), &fb_cfg).unwrap();
            fallback.advance(&days[0]).unwrap();
            let (fb_total_ms, fb_laps) = time_advances(&mut fallback, &days[1..], 1);
            assert_eq!(
                fallback.hypergraph().num_edges(),
                model.hypergraph().num_edges(),
                "the fallback diverged from the tensor path"
            );
            let fb_ms = fb_total_ms / SLIDES as f64;
            let fb_cover = fb_laps.total_nanos() as f64 / 1e6 / fb_total_ms;
            phase_covers.push(("inc-slide-fallback".to_string(), k, fb_cover));
            slide_rebuilds.push(("inc-slide-fallback".to_string(), k, fb_ms, rebuild_ms));
            let fb_phases = phases_json(&fb_laps, SLIDES);
            eprintln!(
                "incremental fallback k={k}: slide {fb_ms:.3} ms vs rebuild {rebuild_ms:.3} ms \
                 (phases {fb_phases}, {:.1}% of the wall time)",
                fb_cover * 100.0
            );
            write!(
                inc_entries,
                ",\n    {{\"k\": {k}, \"strategy\": \"inc-slide-fallback\", \
                 \"slide_ms\": {fb_ms:.3}, \"rebuild_ms\": {rebuild_ms:.3}, \
                 \"tensor\": false, \"phases_ms\": {{{fb_phases}}}, \
                 \"phases_cover\": {fb_cover:.4}, \"simd\": \"{}\"}}",
                inc_stats.simd
            )
            .expect("writing to a String cannot fail");
            // Default-spec publish of the slid model against the slide it
            // follows: the write path's two halves, same machine, same
            // model. The entry carries no `"millis"`, so it stays out of
            // the calibrated baseline gate; the ratios are gated below.
            // Each snapshot is dropped after its clock stops, and the
            // median publish reports its own phase split.
            let mut publishes: Vec<(f64, PublishLaps)> = (0..PUBLISH_RUNS)
                .map(|_| {
                    let start = Instant::now();
                    let snapshot = ModelSnapshot::build(&model, &SnapshotSpec::default());
                    (
                        start.elapsed().as_secs_f64() * 1e3,
                        *snapshot.publish_phases(),
                    )
                })
                .collect();
            publishes.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("timings are finite"));
            let (publish_ms, laps) = publishes[PUBLISH_RUNS / 2];
            let publish_ratio = publish_ms / slide_ms;
            let cover = laps.total_nanos() as f64 / 1e6 / publish_ms;
            publish_ratios.push((k, publish_ratio));
            phase_covers.push(("publish".to_string(), k, cover));
            let phases_ms = phases_json(&laps, 1);
            eprintln!(
                "publish k={k}: {publish_ms:.3} ms median of {PUBLISH_RUNS} default-spec \
                 snapshots ({publish_ratio:.1}x a slide; phases {phases_ms}, \
                 {:.1}% of the wall time)",
                cover * 100.0
            );
            write!(
                inc_entries,
                ",\n    {{\"k\": {k}, \"strategy\": \"publish\", \"publish_ms\": {publish_ms:.3}, \
                 \"slide_ms\": {slide_ms:.3}, \"ratio\": {publish_ratio:.2}, \
                 \"phases_ms\": {{{phases_ms}}}, \"phases_cover\": {cover:.4}, \
                 \"runs\": {PUBLISH_RUNS}, \"simd\": \"{}\"}}",
                inc_stats.simd
            )
            .expect("writing to a String cannot fail");
            // Batched advance (k = 3 only — the regime where a single
            // slide's fixed γ re-test cost dominates): the same SLIDES days
            // applied as one-trading-week `advance_batch` calls on a fresh
            // model, compared against the single-slide latency measured
            // above. Same machine, same fixture — the ratio needs no
            // hardware calibration and the final models must agree exactly.
            if k == 3 {
                let mut batched = AssociationModel::build(&db.slice_obs(0..window), &cfg).unwrap();
                batched.advance(&days[0]).unwrap();
                let (total_ms, laps) = time_advances(&mut batched, &days[1..], BATCH_DAYS);
                let calls = SLIDES / BATCH_DAYS;
                let batch_ms = total_ms / calls as f64;
                assert_eq!(
                    batched.hypergraph().num_edges(),
                    model.hypergraph().num_edges(),
                    "batched advance diverged from single advances"
                );
                batch_speedup = slide_ms * BATCH_DAYS as f64 / batch_ms;
                let cover = laps.total_nanos() as f64 / 1e6 / total_ms;
                phase_covers.push(("batch-slide".to_string(), k, cover));
                slide_rebuilds.push(("batch-slide".to_string(), k, batch_ms, rebuild_ms));
                let phases_ms = phases_json(&laps, calls);
                eprintln!(
                    "batched advance k={k}: advance_batch({BATCH_DAYS}) {batch_ms:.3} ms vs \
                     {BATCH_DAYS} single slides {:.3} ms ({batch_speedup:.2}x; phases \
                     {phases_ms}, {:.1}% of the wall time)",
                    slide_ms * BATCH_DAYS as f64,
                    cover * 100.0
                );
                write!(
                    inc_entries,
                    ",\n    {{\"k\": {k}, \"strategy\": \"batch-slide\", \"millis\": {batch_ms:.3}, \
                     \"days\": {BATCH_DAYS}, \"speedup\": {batch_speedup:.2}, \
                     \"phases_ms\": {{{phases_ms}}}, \"phases_cover\": {cover:.4}, \
                     \"simd\": \"{}\"}}",
                    inc_stats.simd
                )
                .expect("writing to a String cannot fail");
                measured.push(Entry {
                    k,
                    strategy: "batch-slide".to_string(),
                    millis: batch_ms,
                });
            }
        }
        sections.push(format!(
            "  \"incremental\": {{\"window\": {window}, \"days\": {}, \"slides\": {SLIDES}, \
             \"entries\": [\n{inc_entries}\n  ]}}",
            inc_dims.days
        ));
    }

    // Wide-attribute fixture: large-n construction through the blocked
    // flat kernels. Observation-major only — the per-strategy shape at
    // n = 240 is what the large-n work optimizes and what must never
    // silently regress. The registry runs carry `Gammas::Preset`, which
    // at 240 attributes resolves to the Exact (C1) gammas.
    let wide_spec = spec("perf_wide240");
    let n240 = wide_spec.dims(scale).expect("market-backed").tickers;
    // The per-edge memory references the n = 240 fixture's largest model
    // (most edges → the per-edge figure least diluted by fixed costs).
    let mut wide_max_edges = 0usize;
    let mut wide_bpe = 0.0f64;
    let mut wide_peak = None;
    // Wide k = 8 best times per THREADS slot (the parallel-efficiency
    // ratio) and the same-run SIMD speedup inputs.
    let mut wide_k8_by_threads = [f64::NAN; THREADS.len()];
    let mut simd_speedup = 1.0f64;
    let mut simd_level = SimdLevel::Scalar;
    if args.runs(Section::Wide) {
        let wide_dims = wide_spec.dims(scale).expect("market-backed");
        let market_wide = wide_spec.simulate(scale).expect("market-backed");
        let rss_section = reset_peak_rss();
        let mut wide_entries = String::new();
        let mut wide_k8_auto = f64::NAN;
        for run in wide_spec.runs {
            let k = run.k;
            let disc = discretize_market(&market_wide, k, None);
            for (ti, &threads) in THREADS.iter().enumerate() {
                let label = if threads == 1 {
                    "wide-obsmajor".to_string()
                } else {
                    format!("wide-obsmajor-t{threads}")
                };
                let cfg = ModelConfig {
                    threads,
                    ..run.model_config(n240)
                };
                let (best, model) = best_ms(WIDE_RUNS, || {
                    AssociationModel::build(&disc.database, &cfg).unwrap()
                });
                if k == 8 {
                    wide_k8_by_threads[ti] = best;
                    if threads == 1 {
                        wide_k8_auto = best;
                    }
                }
                let edges = model.hypergraph().num_edges();
                let graph_bytes = model.hypergraph().memory().total_bytes();
                let bpe = graph_bytes as f64 / edges.max(1) as f64;
                if threads == 1 && edges > wide_max_edges {
                    wide_max_edges = edges;
                    wide_bpe = bpe;
                }
                eprintln!(
                    "wide n={} k={k} obsmajor t{threads}: {best:.1} ms ({edges} edges, \
                     kernel {}, simd {}, graph {:.1} MiB = {bpe:.1} B/edge)",
                    disc.database.num_attrs(),
                    model.kernel_path(),
                    model.simd_level(),
                    graph_bytes as f64 / (1024.0 * 1024.0),
                );
                if !wide_entries.is_empty() {
                    wide_entries.push_str(",\n");
                }
                write!(
                    wide_entries,
                    "    {{\"k\": {k}, \"strategy\": \"{label}\", \"threads\": {threads}, \
                     \"millis\": {best:.3}, \"edges\": {edges}, \"kernel\": \"{}\", \
                     \"simd\": \"{}\", \"graph_bytes\": {graph_bytes}, \
                     \"bytes_per_edge\": {bpe:.2}}}",
                    model.kernel_path(),
                    model.simd_level()
                )
                .expect("writing to a String cannot fail");
                measured.push(Entry {
                    k,
                    strategy: label,
                    millis: best,
                });
            }
        }
        // Same-run SIMD speedup: the k = 8 single-thread build again under
        // `ForceScalar`. The ratio against the auto entry above is a
        // same-machine comparison (no hardware calibration needed) and is
        // what the SIMD gate checks; the scalar time itself also enters the
        // calibrated timing gate like any other entry.
        if let Some(run) = wide_spec.runs.iter().find(|r| r.k == 8) {
            let disc = discretize_market(&market_wide, run.k, None);
            let cfg = ModelConfig {
                threads: 1,
                simd: SimdPolicy::ForceScalar,
                ..run.model_config(n240)
            };
            let (scalar_best, model) = best_ms(WIDE_RUNS, || {
                AssociationModel::build(&disc.database, &cfg).unwrap()
            });
            simd_level = SimdPolicy::Auto.resolve();
            simd_speedup = scalar_best / wide_k8_auto;
            eprintln!(
                "wide n={n240} k=8 force-scalar: {scalar_best:.1} ms \
                 (simd speedup {simd_speedup:.2}x at level {simd_level})"
            );
            write!(
                wide_entries,
                ",\n    {{\"k\": 8, \"strategy\": \"wide-scalar\", \"threads\": 1, \
                 \"millis\": {scalar_best:.3}, \"kernel\": \"{}\", \"simd\": \"scalar\"}}",
                model.kernel_path()
            )
            .expect("writing to a String cannot fail");
            measured.push(Entry {
                k: 8,
                strategy: "wide-scalar".to_string(),
                millis: scalar_best,
            });
        }
        wide_peak = rss_section.then(peak_rss_bytes).flatten();
        sections.push(format!(
            "  \"wide\": {{\"tickers\": {n240}, \"days\": {}, \"seed\": {}, \
             \"threads\": [1, 4, 8], \"runs\": {WIDE_RUNS}, \"simd\": \"{simd_level}\", \
             \"simd_speedup\": {simd_speedup:.3}, \"peak_rss_bytes\": {}, \
             \"entries\": [\n{wide_entries}\n  ]}}",
            wide_dims.days,
            wide_spec.seed,
            fmt_peak(wide_peak),
        ));
    }

    // Wide-universe fixture: n = 500 at the gammas
    // `GammaPreset::for_num_attrs` recommends. One run per k (each build
    // covers ~125k pairs — a second run buys little at this cost), plus
    // WIDE500_SLIDES timed k = 3 slides through the incremental engine
    // (whose pass-2 state at this width always takes the row-recount
    // fallback — the triple tensor would need gigabytes).
    let w500_spec = spec("perf_wide500");
    let n500 = w500_spec.dims(scale).expect("market-backed").tickers;
    let mut wide500_max_edges = 0usize;
    let mut wide500_bpe = 0.0f64;
    let mut wide500_peak = None;
    if args.runs(Section::Wide500) {
        let w500_dims = w500_spec.dims(scale).expect("market-backed");
        let market_500 = w500_spec.simulate(scale).expect("market-backed");
        // The registry runs say `Gammas::Preset`; name the resolved preset
        // so the log shows which tier the attribute count selected.
        let preset = GammaPreset::for_num_attrs(n500);
        let rss_section = reset_peak_rss();
        let mut wide500_entries = String::new();
        for run in w500_spec.runs {
            let k = run.k;
            let disc = discretize_market(&market_500, k, None);
            let cfg = ModelConfig {
                threads: 1,
                ..run.model_config(n500)
            };
            let start = Instant::now();
            let mut model = AssociationModel::build(&disc.database, &cfg).unwrap();
            let best = start.elapsed().as_secs_f64() * 1e3;
            let edges = model.hypergraph().num_edges();
            let graph_bytes = model.hypergraph().memory().total_bytes();
            let bpe = graph_bytes as f64 / edges.max(1) as f64;
            if edges > wide500_max_edges {
                wide500_max_edges = edges;
                wide500_bpe = bpe;
            }
            eprintln!(
                "wide n={n500} k={k} obsmajor ({preset:?}): {best:.1} ms \
                 ({edges} edges, kernel {}, simd {}, graph {:.1} MiB = {bpe:.1} B/edge)",
                model.kernel_path(),
                model.simd_level(),
                graph_bytes as f64 / (1024.0 * 1024.0),
            );
            if !wide500_entries.is_empty() {
                wide500_entries.push_str(",\n");
            }
            write!(
                wide500_entries,
                "    {{\"k\": {k}, \"strategy\": \"wide500-obsmajor\", \"millis\": {best:.3}, \
                 \"edges\": {edges}, \"kernel\": \"{}\", \"simd\": \"{}\", \
                 \"graph_bytes\": {graph_bytes}, \"bytes_per_edge\": {bpe:.2}}}",
                model.kernel_path(),
                model.simd_level()
            )
            .expect("writing to a String cannot fail");
            measured.push(Entry {
                k,
                strategy: "wide500-obsmajor".to_string(),
                millis: best,
            });
            if k == 3 {
                // The first advance builds the incremental state
                // (untimed); the next WIDE500_SLIDES are steady-state
                // slides, reported by their median with its phase split.
                let db = &disc.database;
                let days: Vec<Vec<u8>> = (0..=WIDE500_SLIDES)
                    .map(|day| db.attrs().map(|a| db.value(a, day)).collect())
                    .collect();
                model.advance(&days[0]).unwrap();
                let inc_stats = model.incremental_stats().expect("state built");
                let mut slides: Vec<(f64, AdvanceLaps)> = days[1..]
                    .iter()
                    .map(|day| time_advances(&mut model, std::slice::from_ref(day), 1))
                    .collect();
                slides.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("timings are finite"));
                let (slide_ms, laps) = slides[WIDE500_SLIDES / 2];
                let cover = laps.total_nanos() as f64 / 1e6 / slide_ms;
                phase_covers.push(("wide500-slide".to_string(), k, cover));
                slide_rebuilds.push(("wide500-slide".to_string(), k, slide_ms, best));
                let phases_ms = phases_json(&laps, 1);
                eprintln!(
                    "wide n={n500} k={k} slide: {slide_ms:.1} ms median of {WIDE500_SLIDES} \
                     vs build {best:.1} ms (kernel {}, simd {}, tensor {}; phases {phases_ms}, \
                     {:.1}% of the wall time)",
                    inc_stats.kernel_path,
                    inc_stats.simd,
                    inc_stats.uses_triple_tensor,
                    cover * 100.0
                );
                write!(
                    wide500_entries,
                    ",\n    {{\"k\": {k}, \"strategy\": \"wide500-slide\", \
                     \"millis\": {slide_ms:.3}, \"slides\": {WIDE500_SLIDES}, \
                     \"rebuild_ms\": {best:.3}, \"kernel\": \"{}\", \"simd\": \"{}\", \
                     \"tensor\": {}, \"phases_ms\": {{{phases_ms}}}, \
                     \"phases_cover\": {cover:.4}}}",
                    inc_stats.kernel_path, inc_stats.simd, inc_stats.uses_triple_tensor
                )
                .expect("writing to a String cannot fail");
                measured.push(Entry {
                    k,
                    strategy: "wide500-slide".to_string(),
                    millis: slide_ms,
                });
            }
        }
        wide500_peak = rss_section.then(peak_rss_bytes).flatten();
        sections.push(format!(
            "  \"wide500\": {{\"tickers\": {n500}, \"days\": {}, \"seed\": {}, \"threads\": 1, \
             \"runs\": 1, \"gammas\": \"wide-default\", \"peak_rss_bytes\": {}, \
             \"entries\": [\n{wide500_entries}\n  ]}}",
            w500_dims.days,
            w500_spec.seed,
            fmt_peak(wide500_peak),
        ));
    }

    // The serve and durability sections share one registry stream.
    let serve_scn = spec("perf_serve");
    let serve_dims = serve_scn.dims(scale).expect("market-backed");
    let serve_run = &serve_scn.runs[0];
    let serve_feed_cfg = FeedConfig {
        tickers: serve_dims.tickers,
        window: serve_dims.window,
        n_days: serve_dims.days,
        k: serve_run.k,
        seed: serve_scn.seed,
    };
    let serve_model_cfg = serve_run.model_config(serve_dims.tickers);
    let serve_spec = SnapshotSpec::default();
    let serve_feed = (args.runs(Section::Serve) || args.runs(Section::Durability))
        .then(|| MarketFeed::new(&serve_feed_cfg));

    // Serve section: aggregate reader throughput against live
    // epoch-tagged snapshots at each reader count, writer sliding
    // continuously. `"qps"` instead of `"millis"` keeps these entries
    // out of the calibrated timing gate (see the module docs); the
    // gated quantity is the same-machine 1 → 8 scaling ratio below.
    let mut serve_runs: Vec<QpsRun> = Vec::new();
    if let (true, Some(serve_feed)) = (args.runs(Section::Serve), &serve_feed) {
        let mut serve_entries = String::new();
        for &readers in &SERVE_READERS {
            let mut run = measure_qps(
                serve_feed,
                &serve_model_cfg,
                &serve_spec,
                readers,
                Duration::from_millis(SERVE_MS),
            );
            // On a starved runner the writer may never get a slice inside a
            // short run; the qps number only means "throughput during live
            // slides" if at least one slide landed, so retry longer.
            for _ in 0..2 {
                if run.max_epoch_seen >= 1 {
                    break;
                }
                run = measure_qps(
                    serve_feed,
                    &serve_model_cfg,
                    &serve_spec,
                    readers,
                    Duration::from_millis(SERVE_MS * 2),
                );
            }
            eprintln!(
                "serve {readers} reader(s): {:.0} queries/s ({} queries, {} publishes, \
                 epoch reached {})",
                run.qps, run.queries, run.published, run.max_epoch_seen
            );
            if !serve_entries.is_empty() {
                serve_entries.push_str(",\n");
            }
            write!(
                serve_entries,
                "    {{\"readers\": {readers}, \"strategy\": \"serve-qps\", \"qps\": {:.0}, \
                 \"queries\": {}, \"published\": {}, \"max_epoch\": {}}}",
                run.qps, run.queries, run.published, run.max_epoch_seen
            )
            .expect("writing to a String cannot fail");
            serve_runs.push(run);
        }
        sections.push(format!(
            "  \"serve\": {{\"tickers\": {}, \"window\": {}, \"days\": {}, \"k\": {}, \
             \"seed\": {}, \"gammas\": \"c2\", \"duration_ms\": {SERVE_MS}, \
             \"entries\": [\n{serve_entries}\n  ]}}",
            serve_feed_cfg.tickers,
            serve_feed_cfg.window,
            serve_feed_cfg.n_days,
            serve_feed_cfg.k,
            serve_feed_cfg.seed,
        ));
    }

    // Durability section: mean publish latency through the serve host
    // with the observation WAL on vs off — the measured cost of crash
    // safety. A queue of 1 makes `advance` effectively synchronous, so
    // the wall clock over the run is the writer's per-publish work
    // (apply + snapshot build, plus append on the durable run).
    let mut recover_ratio: Option<f64> = None;
    if let (true, Some(serve_feed)) = (args.runs(Section::Durability), &serve_feed) {
        let mut durability_entries = String::new();
        let mut recovery = String::new();
        for wal_on in [false, true] {
            let model = AssociationModel::build(serve_feed.initial(), &serve_model_cfg)
                .expect("valid gammas");
            let wal_dir = wal_on.then(|| {
                std::env::temp_dir().join(format!("hypermine-perf-wal-{}", std::process::id()))
            });
            if let Some(dir) = &wal_dir {
                let _ = std::fs::remove_dir_all(dir);
            }
            let host = ServeHost::spawn_with(
                ModelServer::new(model, serve_spec.clone()),
                HostOptions {
                    queue: 1,
                    durability: wal_dir.as_ref().map(DurabilityOptions::new),
                    ..HostOptions::default()
                },
            )
            .expect("temp-dir WAL store");
            let mut feed = MarketFeed::new(&serve_feed_cfg);
            let start = Instant::now();
            for _ in 0..DURABILITY_SLIDES {
                let row = feed.cycle_row().to_vec();
                assert!(host.advance(row), "writer exited mid-measurement");
            }
            let stats = host.shutdown();
            let micros = start.elapsed().as_secs_f64() * 1e6 / DURABILITY_SLIDES as f64;
            if let Some(dir) = &wal_dir {
                // Recovery only reads the store the run just wrote.
                let (entry, ratio, cover) = recovery_entry(dir, serve_feed_cfg.k);
                recovery = entry;
                recover_ratio = Some(ratio);
                phase_covers.push(("recover".to_string(), serve_feed_cfg.k, cover));
                let _ = std::fs::remove_dir_all(dir);
            }
            eprintln!(
                "durability wal={}: {micros:.1} us/publish over {DURABILITY_SLIDES} slides \
                 ({} wal records)",
                if wal_on { "on" } else { "off" },
                stats.wal_records
            );
            if !durability_entries.is_empty() {
                durability_entries.push_str(",\n");
            }
            write!(
                durability_entries,
                "    {{\"wal\": {wal_on}, \"micros_per_publish\": {micros:.1}, \
                 \"slides\": {DURABILITY_SLIDES}, \"wal_records\": {}}}",
                stats.wal_records
            )
            .expect("writing to a String cannot fail");
        }
        sections.push(format!(
            "  \"durability\": {{\"slides\": {DURABILITY_SLIDES}, \
             \"entries\": [\n{durability_entries}\n  ],\n  \"recovery\": {recovery}}}"
        ));
    }

    if args.runs(Section::Ablations) {
        sections.push(ablations::section(scale));
    }

    let json = format!("{{\n{}\n}}\n", sections.join(",\n"));
    print!("{json}");
    if let Some(path) = &args.output {
        if let Some(dir) = std::path::Path::new(path).parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        std::fs::write(path, &json).unwrap_or_else(|e| {
            eprintln!("failed to write {path}: {e}");
            std::process::exit(1);
        });
        eprintln!("wrote {path}");
    }
    let Some(path) = &args.baseline else {
        return;
    };
    let skipped = |gate: &str, section: Section| {
        eprintln!(
            "{gate} gate skipped: section {} not selected",
            section.name()
        );
    };
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("failed to read baseline {path}: {e}");
        std::process::exit(1);
    });
    let baseline = parse_entries(&text);
    if baseline.is_empty() {
        eprintln!("baseline {path} holds no (k, strategy, millis) entries");
        std::process::exit(1);
    }
    // Only the sections that ran are compared; every baseline row of
    // those must have been measured.
    let baseline: Vec<Entry> = baseline
        .into_iter()
        .filter(|e| args.runs(Section::of_strategy(&e.strategy)))
        .collect();
    let matched: Vec<(&Entry, &Entry)> = baseline
        .iter()
        .filter_map(|old| {
            measured
                .iter()
                .find(|e| e.k == old.k && e.strategy == old.strategy)
                .map(|new| (old, new))
        })
        .collect();
    if matched.len() < baseline.len() {
        // A baseline row with no counterpart means the sweep shrank —
        // the gate would silently stop checking that path. Hard error.
        for old in &baseline {
            if !matched.iter().any(|(o, _)| std::ptr::eq(*o, old)) {
                eprintln!(
                    "baseline entry k={} strategy={} was not measured this run",
                    old.k, old.strategy
                );
            }
        }
        std::process::exit(1);
    }
    if matched.is_empty() {
        eprintln!("calibrated timing gate skipped: no timed section selected");
    } else {
        // Machine-speed calibration: the median new/old ratio of the
        // single-thread entries is what a hardware difference between the
        // baseline's machine and this one looks like; gate every entry
        // against it (see the module docs).
        let factor = if args.raw {
            1.0
        } else {
            let mut ratios: Vec<f64> = matched
                .iter()
                .filter(|(old, _)| !is_threaded(&old.strategy))
                .map(|(o, n)| n.millis / o.millis)
                .collect();
            if ratios.is_empty() {
                eprintln!("calibrated timing gate: no single-thread entry to calibrate on");
                std::process::exit(1);
            }
            ratios.sort_by(|a, b| a.partial_cmp(b).expect("timings are finite"));
            let factor = ratios[ratios.len() / 2];
            eprintln!(
                "machine-speed calibration factor (median new/old of {} single-thread \
                 entries): {factor:.3}",
                ratios.len()
            );
            factor
        };
        // Absolute noise floor on top of the fractional tolerance:
        // timing noise has an additive component (scheduler quantum,
        // cache state, noisy neighbours) that dominates entries in the
        // ~1-30 ms range — a best-of-3 there has been observed to
        // wobble 2× run-to-run on shared runners, far beyond 25%. The
        // floor is negligible against the multi-second wide entries
        // the gate chiefly protects, and slides are not left unguarded
        // by the slack — the speedup floors below are same-machine
        // ratios and stay exact.
        const NOISE_FLOOR_MS: f64 = 15.0;
        let mut regressed = 0usize;
        for (old, new) in &matched {
            let limit = old.millis * factor * (1.0 + args.tolerance) + NOISE_FLOOR_MS;
            let verdict = if new.millis > limit {
                regressed += 1;
                "REGRESSED"
            } else {
                "ok"
            };
            eprintln!(
                "k={:<2} {:<8} {:>9.3} ms vs baseline {:>9.3} ms (limit {:>9.3}) {}",
                old.k, old.strategy, new.millis, old.millis, limit, verdict
            );
        }
        if regressed > 0 {
            eprintln!(
                "{regressed} construction timing(s) regressed more than {:.0}% over {path}",
                args.tolerance * 100.0
            );
            std::process::exit(1);
        }
    }
    if args.runs(Section::Incremental) {
        // The incremental-slide and batched-advance speedups are
        // same-machine ratios, so they need no hardware calibration:
        // gate the headline claims directly. The slide ratio's
        // denominator is a *batch rebuild*, which the SIMD vertical
        // kernel roughly halved while the incremental path (which
        // touches only what one observation changes — no dense-row
        // sweeps to vectorize) stayed flat, so the pre-SIMD ≥ 13×
        // measurement became 3.6–7.6× across k and runs; 3× is the
        // committed floor — a broken incremental path shows ~1×, so
        // the floor still bites while run-to-run wobble on ~1 ms
        // slides doesn't. The batch ratio's baseline moved the same
        // way — single slides sped up ~25% while `advance_batch`'s
        // absolute time stayed put, so the measured 1.98-2.28× became
        // 1.49-1.65×; 1.3× is the floor (a broken batcher — one that
        // degenerates to looping single advances — still shows ~1×).
        if k5_speedup < 3.0 {
            eprintln!("incremental slide speedup at k=5 is {k5_speedup:.1}x, below the 3x floor");
            std::process::exit(1);
        }
        if batch_speedup < 1.3 {
            eprintln!(
                "advance_batch({BATCH_DAYS}) speedup at k=3 is {batch_speedup:.2}x, \
                 below the 1.3x floor"
            );
            std::process::exit(1);
        }
        // Publish gates: a default-spec publish may cost at most a small
        // multiple of the slide it follows (same-run ratio, no
        // calibration), at k = 3, 5 and 8. A regression to ranking by
        // sorting every mined row shows ~60x at k = 3.
        for &(k, limit) in &PUBLISH_RATIO_LIMITS {
            let ratio = publish_ratios
                .iter()
                .find(|&&(pk, _)| pk == k)
                .map_or(f64::NAN, |&(_, r)| r);
            if ratio.is_nan() || ratio > limit {
                eprintln!(
                    "default-spec publish at k={k} costs {ratio:.1}x a slide, above the \
                     {limit}x ceiling"
                );
                std::process::exit(1);
            }
            eprintln!("publish gate: k={k} publish {ratio:.1}x a slide <= {limit}x");
        }
    } else {
        skipped("slide speedup, batch and publish", Section::Incremental);
    }
    if phase_covers.is_empty() {
        eprintln!(
            "phase-cover and slide <= rebuild gates skipped: sections incremental, \
             wide500 and durability not selected"
        );
    } else {
        // Phase-coverage gate: the phases of every reported publish,
        // slide and recovery must account for its wall time, so untimed
        // work cannot hide between them.
        for (label, k, cover) in &phase_covers {
            if *cover < PHASE_COVER_FLOOR {
                eprintln!(
                    "{label} phases at k={k} sum to {:.1}% of the wall time, below {:.0}%",
                    cover * 100.0,
                    PHASE_COVER_FLOOR * 100.0
                );
                std::process::exit(1);
            }
        }
        eprintln!(
            "phase gate: phases cover >= {:.0}% of every reported publish, slide and \
             recovery",
            PHASE_COVER_FLOOR * 100.0
        );
        // Slide gate: a slide (or a batch of slides) slower than a
        // rebuild of the same window, measured in the same run, is a
        // bug — `advance` could have rebuilt instead.
        for (label, k, slide_ms, rebuild_ms) in &slide_rebuilds {
            if slide_ms > rebuild_ms {
                eprintln!(
                    "{label} at k={k} takes {slide_ms:.3} ms, slower than the same run's \
                     {rebuild_ms:.3} ms rebuild"
                );
                std::process::exit(1);
            }
            eprintln!("slide gate: {label} k={k} {slide_ms:.3} ms <= rebuild {rebuild_ms:.3} ms");
        }
    }
    // Recovery gate: a same-run ratio like the publish gates. Replaying
    // the log through the incremental engine instead of folding it
    // costs a state build plus the slides on top of the restore.
    if let Some(ratio) = recover_ratio {
        if ratio > RECOVER_RATIO_LIMIT {
            eprintln!(
                "recovery costs {ratio:.2}x a restore of the recovered window, above the \
                 {RECOVER_RATIO_LIMIT}x ceiling"
            );
            std::process::exit(1);
        }
        eprintln!("recovery gate: recover {ratio:.2}x a restore <= {RECOVER_RATIO_LIMIT}x");
    } else {
        skipped("recovery", Section::Durability);
    }
    // Serve scaling gate: aggregate reader throughput must grow
    // with reader threads during live slides. A same-machine ratio
    // like the speedup floors above (no hardware calibration), but
    // it does need cores to scale onto, so the floor is
    // hardware-aware: lock-free reads should deliver near-linear
    // reader scaling when cores are plentiful (≥ 3× from 1 → 8
    // readers on 8+ cores), a softer ≥ 2× when the writer + feeder
    // threads eat a meaningful share of 4–7 cores, and nothing at
    // all below 4 cores — there the readers time-slice one or two
    // cores and the ratio measures the scheduler, not the serving
    // layer.
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let base_run = serve_runs.iter().find(|r| r.readers == 1);
    let top_run = serve_runs.iter().max_by_key(|r| r.readers);
    if let (Some(base), Some(top)) = (base_run, top_run) {
        let scaling = top.qps / base.qps;
        let floor = if cores >= 8 {
            Some(3.0)
        } else if cores >= 4 {
            Some(2.0)
        } else {
            None
        };
        match floor {
            Some(floor) if scaling < floor => {
                eprintln!(
                    "serve qps scaling 1 -> {} readers is {scaling:.2}x, below the \
                     {floor:.1}x floor for {cores} cores",
                    top.readers
                );
                std::process::exit(1);
            }
            Some(floor) => eprintln!(
                "serve qps scaling 1 -> {} readers: {scaling:.2}x >= {floor:.1}x \
                 ({cores} cores)",
                top.readers
            ),
            None => eprintln!(
                "serve qps scaling gate skipped: {cores} core(s) < 4 \
                 (measured {scaling:.2}x from 1 -> {} readers)",
                top.readers
            ),
        }
    } else {
        skipped("serve qps scaling", Section::Serve);
    }
    if args.runs(Section::Wide) {
        // Parallel-efficiency gate: the wide k=8 build must speed up by
        // EFFICIENCY_FLOOR from 1 to 4 worker threads. A same-machine
        // ratio like the serve gate above, and hardware-aware the same
        // way: below 4 cores the "4 workers" time-slice the same
        // core(s) and the ratio measures scheduling overhead, so the
        // gate is skipped (the measured ratio is still logged and lands
        // in the summary for the record).
        let t1 = wide_k8_by_threads[0];
        let t4 = wide_k8_by_threads[1];
        if t1.is_finite() && t4.is_finite() && t4 > 0.0 {
            let efficiency = t1 / t4;
            if cores >= 4 {
                if efficiency < EFFICIENCY_FLOOR {
                    eprintln!(
                        "wide k=8 thread scaling 1 -> 4 is {efficiency:.2}x, below \
                         the {EFFICIENCY_FLOOR:.1}x floor for {cores} cores"
                    );
                    std::process::exit(1);
                }
                eprintln!(
                    "wide k=8 thread scaling 1 -> 4: {efficiency:.2}x >= \
                     {EFFICIENCY_FLOOR:.1}x ({cores} cores)"
                );
            } else {
                eprintln!(
                    "thread-scaling gate skipped: {cores} core(s) < 4 \
                     (measured {efficiency:.2}x from 1 -> 4 threads)"
                );
            }
        }
        // SIMD gate: the vectorized dense-row kernel must beat the
        // forced-scalar build by SIMD_FLOOR on the wide k=8 fixture.
        // Same-run, same-machine ratio — no calibration. Skipped when
        // runtime detection resolves to the scalar tier (no AVX2/NEON,
        // or HYPERMINE_FORCE_SCALAR set), where the two builds run the
        // same code and the ratio is pure noise.
        if simd_level == SimdLevel::Scalar {
            eprintln!(
                "simd speedup gate skipped: runtime detection resolved to the \
                 scalar tier (measured {simd_speedup:.2}x)"
            );
        } else if simd_speedup < SIMD_FLOOR {
            eprintln!(
                "wide k=8 simd speedup is {simd_speedup:.2}x at level {simd_level}, \
                 below the {SIMD_FLOOR:.1}x floor"
            );
            std::process::exit(1);
        } else {
            eprintln!(
                "wide k=8 simd speedup: {simd_speedup:.2}x >= {SIMD_FLOOR:.1}x \
                 (level {simd_level})"
            );
        }
    } else {
        skipped("thread-scaling and simd speedup", Section::Wide);
    }
    if !args.runs(Section::Wide) || !args.runs(Section::Wide500) {
        let missing = if args.runs(Section::Wide) {
            Section::Wide500
        } else {
            Section::Wide
        };
        skipped("wide memory", missing);
    } else {
        // Wide-universe memory gate: growing the attribute set from 240
        // to 500 must not super-linearly inflate per-edge storage. Two
        // same-run ratios (no hardware calibration, no baseline entry):
        //
        // 1. Exact accounting — `HypergraphMemory::total_bytes()` per
        //    kept edge at each fixture's largest model. Deterministic;
        //    this is the primary gate.
        // 2. Peak RSS per kept edge — section-local `VmHWM` over the
        //    largest model's edge count, catching transient blow-ups the
        //    resident-graph accounting can't see (counting scratch,
        //    intermediate buffers). Skipped when `/proc` watermark
        //    resets are unavailable.
        let bpe_limit = wide_bpe * MEM_PER_EDGE_LIMIT;
        if wide500_bpe > bpe_limit {
            eprintln!(
                "wide n={n500} graph bytes/edge {wide500_bpe:.1} exceeds \
                 {MEM_PER_EDGE_LIMIT}x the n={n240} figure ({wide_bpe:.1} \
                 B/edge, limit {bpe_limit:.1})"
            );
            std::process::exit(1);
        }
        eprintln!(
            "wide memory gate: n={n500} graph {wide500_bpe:.1} B/edge <= \
             {bpe_limit:.1} ({MEM_PER_EDGE_LIMIT}x n={n240}'s {wide_bpe:.1})"
        );
        match (wide_peak, wide500_peak) {
            (Some(p240), Some(p500)) => {
                let rss_240 = p240 as f64 / wide_max_edges.max(1) as f64;
                let rss_500 = p500 as f64 / wide500_max_edges.max(1) as f64;
                let rss_limit = rss_240 * MEM_PER_EDGE_LIMIT;
                if rss_500 > rss_limit {
                    eprintln!(
                        "wide n={n500} peak RSS/edge {rss_500:.1} exceeds \
                         {MEM_PER_EDGE_LIMIT}x the n={n240} figure \
                         ({rss_240:.1} B/edge, limit {rss_limit:.1})"
                    );
                    std::process::exit(1);
                }
                eprintln!(
                    "wide RSS gate: n={n500} peak {rss_500:.1} B/edge <= \
                     {rss_limit:.1} ({MEM_PER_EDGE_LIMIT}x n={n240}'s {rss_240:.1})"
                );
            }
            _ => eprintln!(
                "wide RSS gate skipped: /proc peak-RSS watermark unavailable \
                 (exact graph-byte accounting gated above)"
            ),
        }
    }
    eprintln!("every selected gate passed against {path}");
}

#[cfg(test)]
mod tests {
    use super::{ablations, is_threaded, parse_entries, Section};

    #[test]
    fn ablation_entries_stay_out_of_the_calibrated_gate() {
        assert_eq!(Section::parse("ablations"), Some(Section::Ablations));
        let entry = ablations::entry("hyperedges", "directed_only", 0.4, 3.2, "\"edges\": 1560");
        let json = format!("{{\n  \"ablations\": {{\"entries\": [\n{entry}\n  ]}}\n}}\n");
        assert!(json.contains("\"ablation_ms\": 0.400"), "{json}");
        assert!(parse_entries(&json).is_empty(), "{json}");
    }

    #[test]
    fn only_thread_suffixed_labels_are_threaded() {
        for label in ["obsmajor-t4", "obsmajor-t8", "wide-obsmajor-t4"] {
            assert!(is_threaded(label), "{label}");
        }
        for label in [
            "obsmajor",
            "wide-obsmajor",
            "wide-scalar",
            "wide500-obsmajor",
            "wide500-slide",
            "inc-slide",
            "batch-slide",
            "obsmajor-t",
        ] {
            assert!(!is_threaded(label), "{label}");
        }
    }
}
