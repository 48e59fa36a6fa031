//! `perf_summary`: the in-repo performance summary and its gates, for the
//! construction (Section 3.2.1), sliding-window, serving and dominator
//! (Algorithms 6–8) code.
//!
//! Every fixture comes from the scenario registry
//! (`hypermine_experiments::registry`, the `perf_*` entries at
//! [`RunScale::Default`]), so a fixture changed there moves this summary
//! and the `replication` gate together; this binary owns only its
//! measurement knobs (run, slide and publish counts, durations) and its
//! gate limits. The sections, one module each, run in this order:
//!
//! - `construction`: builds at every k and at 1, 4 and 8 worker threads;
//! - `incremental`: first advances (the state build) and steady slides
//!   on the triple-tensor path and on the forced row-recount fallback,
//!   against a rebuild of the same window;
//!   a default-spec publish of the slid model; batched advances at k = 3;
//! - `wide`: the n = 240 fixture at 1, 4 and 8 threads, and once under
//!   `SimdPolicy::ForceScalar` at k = 8;
//! - `wide500`: the n = 500 fixture, one build per k and the median of
//!   three k = 3 slides (~60 s and ~3 GB of peak RSS);
//! - `serve`: reader queries/s against live snapshots at 1, 4 and 8
//!   readers;
//! - `durability`: publishes through the serve host with the WAL off and
//!   on, and `store::recover` of the WAL-on store beside a `restore` of
//!   the window it recovers;
//! - `ablations`: the paper's design choices against their alternatives.
//!
//! Each section writes its JSON member through the one writer in `json`,
//! which also logs every entry to stderr as it lands. Every timing entry
//! names the SIMD level it ran at (`avx2`/`neon`/`scalar`), and slide,
//! publish and recovery entries carry their stage split (`phases_ms`) and
//! the share of the wall time it covers (`phases_cover`), the slide
//! entries also their first advance's (`first_phases_ms`,
//! `first_phases_cover`).
//!
//! **The check table.** Every gate is one row: a label, the measured
//! value, a limit, a direction (at least or at most) and, where the gate
//! cannot apply, a skip reason. Each section builds its rows as it
//! measures; the n = 500 vs n = 240 memory rows are built here from both
//! wide sections. Every run evaluates every row in one pass, prints every
//! verdict and exits 1 if any row failed. A row whose value was never
//! measured (NaN) fails; a skipped row neither passes nor fails. Rows are
//! skipped when their section was not selected, on hosts that cannot
//! exercise them (thread and reader scaling below 4 cores, the SIMD floor
//! on the scalar tier), and for peak RSS where `/proc` has no watermark.
//! The rows, by section:
//!
//! - incremental: the k = 5 slide is ≥ 3× faster than a rebuild; one
//!   `advance_batch(5)` is ≥ 1.3× faster than five single slides at
//!   k = 3; a publish costs ≤ 3.09×, 7.40× and 15.0× a slide at k = 3, 5
//!   and 8; every slide is no slower than the same run's rebuild; the
//!   k = 3 tensor-path first advance (the state build) costs ≤ 2.77× the
//!   rebuild;
//! - wide: the k = 8 build is ≥ 2.5× faster at 4 threads than at 1, and
//!   ≥ 1.2× faster than the forced-scalar build;
//! - wide500: its slide is no slower than its build;
//! - serve: 8 readers reach ≥ 3× the queries/s of 1 on 8+ cores, ≥ 2× on
//!   4–7;
//! - durability: recovery costs ≤ `RECOVER_RATIO_LIMIT` times a restore;
//! - every slide, first advance, publish and recovery: its phases cover
//!   ≥ 95% of its wall time;
//! - wide and wide500 together: the n = 500 bytes per kept edge, exact
//!   graph accounting and section-local peak RSS alike, stay under twice
//!   the n = 240 figure.
//!
//! **The calibrated comparison.** `--baseline PATH` adds one row per
//! `(k, strategy, millis)` entry of that summary (the committed
//! `bench-baseline.json`) whose section ran: this run's time may exceed
//! the baseline's, scaled by a machine-speed factor, by at most
//! [`TOLERANCE`] plus [`NOISE_FLOOR_MS`]. The factor is the median
//! new/old ratio of the single-thread entries (labels without a `-t<N>`
//! suffix), so a uniformly slower or faster host neither trips nor masks
//! the gate; only entries that regress against the rest of the suite do.
//! Threaded entries stay out of the factor because their ratio also
//! depends on both hosts' core counts. The cost: a change that slows
//! every entry alike is taken for hardware. A baseline entry this run did
//! not measure fails. Entries that carry their time under another key
//! (`qps`, `publish_ms`, `slide_ms`, `recover_ms`, `ablation_ms`) never
//! enter this comparison: their gates are same-run ratios.
//!
//! Usage: `perf_summary [OUTPUT_PATH] [--baseline PATH] [--only
//! SECTION[,SECTION...]]`. The JSON always goes to stdout, and also to
//! `OUTPUT_PATH` when given. `--only` runs the named sections and leaves
//! the JSON members and check rows of the others out (their rows print
//! as skipped); `--only incremental` gates slides and publishes in
//! seconds. Without it every section runs, as in CI.

use hypermine_core::{AdvanceLaps, AssociationModel, ModelConfig, Phase, PhaseLaps};
use hypermine_experiments::registry::{find, GammaRun, MarketDims, RunScale, ScenarioSpec};
use hypermine_market::Market;
use json::Obj;
use std::fmt::Display;
use std::hint::black_box;
use std::time::Instant;

mod ablations;
mod construction;
mod durability;
mod incremental;
mod json;
mod serve;
mod wide;
mod wide500;

/// Best-of runs per construction timing (min is the most stable point
/// estimate on shared CI runners).
const RUNS: usize = 3;

/// Worker-thread counts of the construction and wide sections. The
/// single-thread entry keeps the bare label, so old baselines keep
/// matching; the others get a `-t4`/`-t8` suffix.
const THREADS: [usize; 3] = [1, 4, 8];

/// Phase-coverage floor: the phases of each reported publish, slide,
/// first advance and recovery must sum to at least this share of its
/// wall time, so untimed work cannot hide between them.
const PHASE_COVER_FLOOR: f64 = 0.95;

/// Memory ceiling: the n = 500 fixture's bytes per kept edge, exact graph
/// accounting and peak RSS alike, must stay under this multiple of the
/// n = 240 fixture's same-run figure.
const MEM_PER_EDGE_LIMIT: f64 = 2.0;

/// Allowed fractional slowdown in the calibrated comparison; generous
/// because shared CI runners jitter, while real regressions from a
/// counting-engine change are typically ≥ 2×.
const TOLERANCE: f64 = 0.25;

/// Absolute noise floor on top of [`TOLERANCE`]: timing noise has an
/// additive component (scheduler quantum, cache state, noisy neighbours)
/// that dominates entries in the ~1-30 ms range — a best-of-3 there has
/// been observed to wobble 2× run-to-run on shared runners, far beyond
/// 25%. The floor is negligible against the multi-second wide entries the
/// comparison chiefly protects, and slides are not left unguarded by the
/// slack: their speedup floors are same-run ratios.
const NOISE_FLOOR_MS: f64 = 15.0;

/// Looks a perf scenario up in the registry; its absence is a bug, not
/// an input error.
fn spec(name: &str) -> &'static ScenarioSpec {
    find(name).unwrap_or_else(|| panic!("{name} is not in the scenario registry"))
}

/// The cores this host offers.
fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// A market-backed perf scenario, its dimensions at `scale` and its
/// simulated market.
fn fixture(name: &str, scale: RunScale) -> (&'static ScenarioSpec, MarketDims, Market) {
    let spec = spec(name);
    let dims = spec.dims(scale).expect("market-backed");
    (spec, dims, spec.simulate(scale).expect("market-backed"))
}

/// A registry run's model configuration over `tickers` attributes at
/// `threads` worker threads.
fn config(run: &GammaRun, tickers: usize, threads: usize) -> ModelConfig {
    let cfg = run.model_config(tickers);
    ModelConfig { threads, ..cfg }
}

/// A section's entry point: it times its fixture, writes its JSON member
/// and adds its rows to the check table.
type Run = fn(RunScale, &mut Summary);

/// The summary's sections, in run order; `--only` selects among them by
/// name.
const SECTIONS: [(&str, Run); 7] = [
    ("construction", construction::run),
    ("incremental", incremental::run),
    ("wide", wide::run),
    ("wide500", wide500::run),
    ("serve", serve::run),
    ("durability", durability::run),
    ("ablations", ablations::run),
];

/// The section that measures a calibrated-comparison entry, by its label.
fn section_of(label: &str) -> &str {
    match label.split('-').next() {
        Some("inc" | "batch") => "incremental",
        Some(section @ ("wide" | "wide500")) => section,
        _ => "construction",
    }
}

#[derive(Default)]
struct Args {
    output: Option<String>,
    baseline: Option<String>,
    /// `None` runs every section.
    only: Option<Vec<String>>,
}

impl Args {
    fn runs(&self, section: &str) -> bool {
        self.only
            .as_ref()
            .is_none_or(|only| only.iter().any(|s| s == section))
    }
}

fn parse_args() -> Args {
    let mut args = Args::default();
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--baseline" => args.baseline = it.next().or_else(|| usage("--baseline needs a path")),
            "--only" => {
                let list = it.next().unwrap_or_else(|| usage("--only needs a section"));
                let names: Vec<&str> = SECTIONS.iter().map(|(name, _)| *name).collect();
                if let Some(bad) = list.split(',').find(|s| !names.contains(s)) {
                    usage(&format!(
                        "unknown section {bad}; sections: {}",
                        names.join(", ")
                    ));
                }
                args.only = Some(list.split(',').map(String::from).collect());
            }
            _ if arg.starts_with("--") => usage(&format!("unknown flag {arg}")),
            _ if args.output.is_none() => args.output = Some(arg),
            _ => usage("at most one output path"),
        }
    }
    args
}

fn usage(msg: &str) -> ! {
    eprintln!("perf_summary: {msg}");
    eprintln!("usage: perf_summary [OUTPUT_PATH] [--baseline PATH] [--only SECTION[,SECTION...]]");
    std::process::exit(2);
}

/// One row of the check table: `value` must be at least (or at most)
/// `limit`. A NaN value, a gate whose input was not measured, fails; a row
/// with a skip reason neither passes nor fails.
struct Check {
    label: String,
    value: f64,
    limit: f64,
    at_most: bool,
    skip: Option<String>,
}

impl Check {
    fn at_least(label: impl Into<String>, value: f64, limit: f64) -> Check {
        Check {
            label: label.into(),
            value,
            limit,
            at_most: false,
            skip: None,
        }
    }

    fn at_most(label: impl Into<String>, value: f64, limit: f64) -> Check {
        Check {
            at_most: true,
            ..Check::at_least(label, value, limit)
        }
    }

    /// A row with nothing measured, skipped for `reason`.
    fn skipped(label: impl Into<String>, reason: impl Into<String>) -> Check {
        Check::at_least(label, f64::NAN, f64::NAN).skip_if(true, reason)
    }

    /// Marks the row skipped for `reason` when `skip` holds.
    fn skip_if(mut self, skip: bool, reason: impl Into<String>) -> Check {
        self.skip = skip.then(|| reason.into());
        self
    }

    /// Skips the row below 4 cores, where worker or reader threads
    /// time-slice one or two cores and a scaling ratio measures the
    /// scheduler, not the code.
    fn on_4_cores(self) -> Check {
        let cores = cores();
        self.skip_if(cores < 4, format!("{cores} core(s) < 4"))
    }

    fn passes(&self) -> bool {
        if self.at_most {
            self.value <= self.limit
        } else {
            self.value >= self.limit
        }
    }
}

/// Evaluates every row in one pass: the report (one verdict per row, then
/// a last line naming every failed row) and whether the run passes.
fn evaluate(checks: &[Check]) -> (String, bool) {
    let (mut report, mut failed) = (String::new(), Vec::new());
    for c in checks {
        let (verdict, why) = match &c.skip {
            Some(why) => ("skipped", format!(" ({why})")),
            None if c.passes() => ("ok", String::new()),
            None => {
                failed.push(c.label.as_str());
                ("FAILED", String::new())
            }
        };
        let op = if c.at_most { "<=" } else { ">=" };
        let measured = if c.skip.is_some() && c.value.is_nan() {
            String::new()
        } else {
            format!(": {:.3} {op} {:.3}", c.value, c.limit)
        };
        report += &format!("{verdict:<7} {}{measured}{why}\n", c.label);
    }
    let skipped = checks.iter().filter(|c| c.skip.is_some()).count();
    let (n, passed) = (failed.len(), checks.len() - skipped - failed.len());
    let named = if n == 0 {
        String::new()
    } else {
        format!(": {}", failed.join(", "))
    };
    report += &format!("{passed} passed, {skipped} skipped, {n} failed{named}\n");
    (report, n == 0)
}

/// What the sections write: the document's top-level members in order,
/// the rows of the check table, and the wide sections' footprints for the
/// memory rows.
#[derive(Default)]
struct Summary {
    members: Vec<(&'static str, String)>,
    checks: Vec<Check>,
    n240: Option<Footprint>,
    n500: Option<Footprint>,
}

impl Summary {
    fn member(&mut self, key: &'static str, value: impl Display) {
        self.members.push((key, value.to_string()));
    }

    /// The phase-cover row of a slide, first advance, publish or
    /// recovery entry.
    fn cover(&mut self, label: &str, k: u8, cover: f64) {
        let label = format!("{label} k={k} phase cover");
        self.checks
            .push(Check::at_least(label, cover, PHASE_COVER_FLOOR));
    }

    /// A slide's rows: its phase cover, and no slower than the same run's
    /// rebuild of its window (a slower one is a bug: `advance` could have
    /// rebuilt instead).
    fn slide(&mut self, label: &str, k: u8, cover: f64, slide_ms: f64, rebuild_ms: f64) {
        self.cover(label, k, cover);
        let label = format!("{label} k={k} ms vs rebuild");
        self.checks
            .push(Check::at_most(label, slide_ms, rebuild_ms));
    }
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

/// `calls` calls that took `total_ms` with the summed phase `laps`: the
/// per-call milliseconds, the per-call phase split as a JSON object and
/// the share of the wall time the phases cover.
fn per_call<P: Phase, const N: usize>(
    total_ms: f64,
    laps: &PhaseLaps<P, N>,
    calls: usize,
) -> (f64, Obj, f64) {
    let phases = laps.iter().fold(Obj::default(), |phases, (phase, ns)| {
        phases.ms(phase.name(), ns as f64 / 1e6 / calls as f64)
    });
    let cover = laps.total_nanos() as f64 / 1e6 / total_ms;
    (total_ms / calls as f64, phases, cover)
}

/// Times one steady-state advance per row (or one `advance_batch` per
/// chunk of `batch` rows), as [`per_call`] reports it.
fn time_advances(model: &mut AssociationModel, rows: &[Vec<u8>], batch: usize) -> (f64, Obj, f64) {
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
    let total_ms = start.elapsed().as_secs_f64() * 1e3;
    per_call(total_ms, &laps, rows.len().div_ceil(batch))
}

/// The label of a timing entry at `threads` worker threads.
fn threaded_label(base: &str, threads: usize) -> String {
    if threads == 1 {
        base.to_string()
    } else {
        format!("{base}-t{threads}")
    }
}

/// Whether a timing label names a multi-threaded entry: a `-t<N>` suffix
/// (`obsmajor-t4`, `wide-obsmajor-t8`).
fn is_threaded(label: &str) -> bool {
    label
        .rsplit_once("-t")
        .is_some_and(|(_, n)| !n.is_empty() && n.bytes().all(|b| b.is_ascii_digit()))
}

/// The largest model of a wide section (most edges, so the per-edge
/// figure least diluted by fixed costs) and the section's peak RSS: the
/// inputs of the memory rows.
#[derive(Default)]
struct Footprint {
    edges: usize,
    bytes_per_edge: f64,
    peak_rss: Option<u64>,
}

impl Footprint {
    /// The edges, graph bytes and bytes per edge of `model`. A
    /// `candidate` model is kept if it is the largest so far.
    fn measure(&mut self, model: &AssociationModel, candidate: bool) -> (usize, usize, f64) {
        let edges = model.hypergraph().num_edges();
        let bytes = model.hypergraph().memory().total_bytes();
        let bytes_per_edge = bytes as f64 / edges.max(1) as f64;
        if candidate && edges > self.edges {
            (self.edges, self.bytes_per_edge) = (edges, bytes_per_edge);
        }
        (edges, bytes, bytes_per_edge)
    }

    /// Peak RSS per kept edge (NaN without a watermark).
    fn rss_per_edge(&self) -> f64 {
        self.peak_rss
            .map_or(f64::NAN, |peak| peak as f64 / self.edges.max(1) as f64)
    }
}

/// Runs `f` and returns its result with the peak resident set size
/// (`VmHWM`) it reached, where Linux `/proc` lets the watermark be reset
/// first (`None` elsewhere, which skips the RSS row).
fn with_peak_rss<T>(f: impl FnOnce() -> T) -> (T, Option<u64>) {
    let reset = std::fs::write("/proc/self/clear_refs", "5").is_ok();
    let out = f();
    let peak = || {
        let status = std::fs::read_to_string("/proc/self/status").ok()?;
        let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
        let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
        Some(kb * 1024)
    };
    (out, reset.then(peak).flatten())
}

/// A peak RSS as JSON (`null` when unavailable).
fn fmt_peak(peak: Option<u64>) -> String {
    peak.map_or_else(|| "null".to_string(), |v| v.to_string())
}

/// The wide-universe memory rows: growing the attribute set from 240 to
/// 500 must not inflate per-edge storage super-linearly. Exact graph
/// accounting is deterministic and the primary row; peak RSS catches
/// transient blow-ups (counting scratch, intermediate buffers) that the
/// resident graph cannot show.
fn memory_checks(n240: &Footprint, n500: &Footprint) -> [Check; 2] {
    let no_rss = n240.peak_rss.is_none() || n500.peak_rss.is_none();
    [
        Check::at_most(
            "n=500 graph bytes/edge vs 2x n=240",
            n500.bytes_per_edge,
            n240.bytes_per_edge * MEM_PER_EDGE_LIMIT,
        ),
        Check::at_most(
            "n=500 peak RSS/edge vs 2x n=240",
            n500.rss_per_edge(),
            n240.rss_per_edge() * MEM_PER_EDGE_LIMIT,
        )
        .skip_if(no_rss, "/proc peak-RSS watermark unavailable"),
    ]
}

/// One `(k, strategy)` time of the calibrated comparison.
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

/// Reads the `--baseline` summary's entries; an unreadable or empty
/// baseline ends the run before any section is timed.
fn read_baseline(path: &str) -> Vec<Entry> {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("failed to read baseline {path}: {e}");
        std::process::exit(1);
    });
    let entries = parse_entries(&text);
    if entries.is_empty() {
        eprintln!("baseline {path} holds no (k, strategy, millis) entries");
        std::process::exit(1);
    }
    entries
}

/// The calibrated comparison's rows: every baseline entry of a section
/// that ran, against this run's time for it (NaN when it was not
/// measured, which fails: the sweep shrank).
fn calibrated_checks(baseline: &[Entry], measured: &[Entry], args: &Args) -> Vec<Check> {
    let pairs: Vec<(&Entry, f64)> = baseline
        .iter()
        .filter(|old| args.runs(section_of(&old.strategy)))
        .map(|old| {
            let new = measured
                .iter()
                .find(|e| (e.k, &e.strategy) == (old.k, &old.strategy));
            (old, new.map_or(f64::NAN, |e| e.millis))
        })
        .collect();
    if pairs.is_empty() {
        return vec![Check::skipped("calibrated", "no timed section ran")];
    }
    let mut ratios: Vec<f64> = pairs
        .iter()
        .filter(|(old, new)| !is_threaded(&old.strategy) && !new.is_nan())
        .map(|(old, new)| new / old.millis)
        .collect();
    ratios.sort_by(f64::total_cmp);
    let factor = ratios.get(ratios.len() / 2).copied().unwrap_or(f64::NAN);
    let n = ratios.len();
    eprintln!("machine-speed factor (median new/old of {n} single-thread entries): {factor:.3}");
    pairs
        .into_iter()
        .map(|(old, new)| {
            let label = format!("calibrated k={} {} ms", old.k, old.strategy);
            let limit = old.millis * factor * (1.0 + TOLERANCE) + NOISE_FLOOR_MS;
            Check::at_most(label, new, limit)
        })
        .collect()
}

fn main() {
    let args = parse_args();
    let baseline = args.baseline.as_deref().map(read_baseline);
    // Every fixture is a registry scenario at the documented reporting
    // scale; the tiny variants of the same entries are what `replication
    // --scale tiny` gates bit-exactly.
    let scale = RunScale::Default;
    let mut out = Summary::default();
    for (name, run) in SECTIONS {
        if args.runs(name) {
            run(scale, &mut out);
        } else {
            out.checks
                .push(Check::skipped(format!("{name} section"), "not selected"));
        }
    }
    let memory = match (&out.n240, &out.n500) {
        (Some(n240), Some(n500)) => memory_checks(n240, n500).into(),
        _ => vec![Check::skipped("n=500 memory", "needs wide and wide500")],
    };
    out.checks.extend(memory);
    let json = json::document(&out.members);
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
    if let Some(baseline) = &baseline {
        let rows = calibrated_checks(baseline, &parse_entries(&json), &args);
        out.checks.extend(rows);
    }
    let (report, passed) = evaluate(&out.checks);
    eprint!("{report}");
    if !passed {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::{ablations, evaluate, is_threaded, parse_entries, Check, SECTIONS};

    #[test]
    fn ablation_entries_stay_out_of_the_calibrated_gate() {
        assert!(SECTIONS.iter().any(|(name, _)| *name == "ablations"));
        let entry = ablations::entry("hyperedges", "directed_only", 0.4, 3.2).val("edges", 1560);
        let json = format!("{{\n  \"ablations\": {{\"entries\": [\n    {entry}\n  ]}}\n}}\n");
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

    #[test]
    fn a_failing_row_among_passing_ones_fails_the_run_and_every_failure_is_named() {
        let rows = [
            Check::at_least("speedup", 3.5, 3.0),
            Check::at_most("publish ratio", 4.0, 3.09),
            Check::at_most("slide ms vs rebuild", 1.0, 10.0),
            Check::at_least("phase cover", 0.90, 0.95),
            Check::at_least("boundary", 1.3, 1.3),
        ];
        let (report, passed) = evaluate(&rows);
        assert!(!passed, "{report}");
        for label in ["publish ratio", "phase cover"] {
            assert!(report.contains(&format!("FAILED  {label}: ")), "{report}");
        }
        for label in ["speedup", "slide ms vs rebuild", "boundary"] {
            assert!(report.contains(&format!("ok      {label}: ")), "{report}");
        }
        let last = report.lines().last().unwrap();
        assert_eq!(
            last,
            "3 passed, 0 skipped, 2 failed: publish ratio, phase cover"
        );
        let (report, passed) = evaluate(&rows[..1]);
        assert!(passed, "{report}");
    }

    #[test]
    fn a_nan_or_missing_value_fails_in_either_direction() {
        for row in [
            Check::at_most("publish k=3", f64::NAN, 3.09),
            Check::at_least("slide speedup k=5", f64::NAN, 3.0),
            Check::at_most("calibrated", 1.0, f64::NAN),
        ] {
            let (report, passed) = evaluate(&[row]);
            assert!(!passed, "{report}");
            assert!(report.starts_with("FAILED"), "{report}");
        }
    }

    #[test]
    fn a_skipped_row_neither_passes_nor_fails() {
        let rows = [
            Check::at_least("qps scaling", 1.1, 2.0).skip_if(true, "2 core(s) < 4"),
            Check::skipped("wide section", "not selected"),
            Check::at_least("simd speedup", 2.4, 1.2).skip_if(false, "scalar tier"),
            Check::at_most("rss", 9.0, 1.0).skip_if(true, "no watermark"),
        ];
        let (report, passed) = evaluate(&rows);
        assert!(passed, "{report}");
        let expected = [
            "skipped qps scaling: 1.100 >= 2.000 (2 core(s) < 4)",
            "skipped wide section (not selected)",
            "ok      simd speedup: 2.400 >= 1.200",
            "skipped rss: 9.000 <= 1.000 (no watermark)",
            "1 passed, 3 skipped, 0 failed",
        ];
        assert_eq!(report.lines().collect::<Vec<_>>(), expected);
        let skipped = Check::at_least("qps scaling", 1.1, 2.0).skip_if(true, "2 cores");
        let (report, passed) = evaluate(&[skipped, Check::at_least("failing", 0.5, 1.0)]);
        assert!(!passed, "{report}");
        assert!(
            report.ends_with("0 passed, 1 skipped, 1 failed: failing\n"),
            "{report}"
        );
    }
}
