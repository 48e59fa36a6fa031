//! Runs a registered [`ScenarioSpec`] and
//! renders a **deterministic** summary of what the models found.
//!
//! Summaries are the replication contract: the `replication` binary
//! regenerates them and diffs against the copies committed under
//! `replication/`, so every value recorded here must be a pure function
//! of the spec — model statistics, dominators, rule outcomes, pinned to
//! a fixed precision. No timings, no RSS, no machine-dependent numbers
//! (the perf gates live in `perf_summary`, which is allowed to be
//! noisy). Model construction is bit-identical at every thread count
//! (the core crate's tests prove it), so thread count is not a
//! determinism hazard either.

use crate::registry::{
    DiscretizerSpec, InlineExtra, InlineTable, MarketShape, RunScale, ScenarioSpec, Source,
    WindowPolicy,
};
use crate::scenario::{BuiltConfig, Configuration, Scenario};
use hypermine_core::{
    attr_of, cluster_attributes, node_of, set_cover_adaptation, AssociationClassifier,
    AssociationModel, ModelConfig, MvaRule, SetCoverOptions,
};
use hypermine_data::discretize::{discretize_by, Discretizer, FixedCuts};
use hypermine_data::{AttrId, Database, Value};
use hypermine_market::{calendar, discretize_market, Market};
use hypermine_serve::store::{self, WalRecord, WalStore};

/// One recorded value, with its rendering pinned down so a summary is
/// byte-stable across runs and machines.
#[derive(Debug, Clone, PartialEq)]
pub enum SummaryValue {
    /// An exact count.
    UInt(u64),
    /// A float rendered at exactly `prec` decimal places.
    Float {
        /// The value.
        v: f64,
        /// Decimal places in both JSON and markdown.
        prec: usize,
    },
    /// A short string (kernel path, rule display, …).
    Text(String),
    /// An ordered list of strings (edge lists, dominators, rows).
    List(Vec<String>),
    /// A yes/no fact (e.g. "bit-identical to a batch rebuild").
    Bool(bool),
}

impl SummaryValue {
    fn render(&self) -> String {
        match self {
            SummaryValue::UInt(v) => v.to_string(),
            SummaryValue::Float { v, prec } => format_float(*v, *prec),
            SummaryValue::Text(s) => s.clone(),
            SummaryValue::List(items) => items.join("; "),
            SummaryValue::Bool(b) => b.to_string(),
        }
    }
}

/// `v` at `prec` decimals, with `-0.000…` normalized to `0.000…` so the
/// sign of a rounded-away epsilon can't flip a summary byte.
fn format_float(v: f64, prec: usize) -> String {
    let s = format!("{v:.prec$}");
    if s.starts_with('-') && s[1..].chars().all(|c| c == '0' || c == '.') {
        s[1..].to_string()
    } else {
        s
    }
}

/// A titled group of recorded `(key, value)` facts, in insertion order.
#[derive(Debug, Clone, PartialEq)]
pub struct SummarySection {
    /// Section name (`"scenario"`, `"run:C1"`, …).
    pub name: String,
    /// Ordered facts.
    pub items: Vec<(String, SummaryValue)>,
}

impl SummarySection {
    fn new(name: impl Into<String>) -> Self {
        SummarySection {
            name: name.into(),
            items: Vec::new(),
        }
    }

    fn push(&mut self, key: &str, value: SummaryValue) {
        self.items.push((key.to_string(), value));
    }

    fn uint(&mut self, key: &str, v: usize) {
        self.push(key, SummaryValue::UInt(v as u64));
    }

    fn float(&mut self, key: &str, v: f64, prec: usize) {
        self.push(key, SummaryValue::Float { v, prec });
    }

    fn text(&mut self, key: &str, v: impl Into<String>) {
        self.push(key, SummaryValue::Text(v.into()));
    }

    fn list(&mut self, key: &str, v: Vec<String>) {
        self.push(key, SummaryValue::List(v));
    }

    fn flag(&mut self, key: &str, v: bool) {
        self.push(key, SummaryValue::Bool(v));
    }
}

/// The canonical record of one scenario run at one scale.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSummary {
    /// Registry name.
    pub name: String,
    /// Human title from the spec.
    pub title: String,
    /// Scale name (`tiny` | `default` | `full`).
    pub scale: String,
    /// The spec's seed (recorded so a summary is self-describing).
    pub seed: u64,
    /// Ordered sections.
    pub sections: Vec<SummarySection>,
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

impl ScenarioSummary {
    /// The canonical JSON rendering (hand-rolled: the workspace is
    /// offline, no serde) that `replication` diffs byte-for-byte.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("  \"name\": \"{}\",\n", json_escape(&self.name)));
        out.push_str(&format!("  \"title\": \"{}\",\n", json_escape(&self.title)));
        out.push_str(&format!("  \"scale\": \"{}\",\n", json_escape(&self.scale)));
        out.push_str(&format!("  \"seed\": {},\n", self.seed));
        out.push_str("  \"sections\": [\n");
        for (si, section) in self.sections.iter().enumerate() {
            out.push_str("    {\n");
            out.push_str(&format!(
                "      \"name\": \"{}\",\n",
                json_escape(&section.name)
            ));
            out.push_str("      \"items\": {\n");
            for (ii, (key, value)) in section.items.iter().enumerate() {
                let rendered = match value {
                    SummaryValue::UInt(v) => v.to_string(),
                    SummaryValue::Float { v, prec } => format_float(*v, *prec),
                    SummaryValue::Bool(b) => b.to_string(),
                    SummaryValue::Text(s) => format!("\"{}\"", json_escape(s)),
                    SummaryValue::List(items) => {
                        let parts: Vec<String> = items
                            .iter()
                            .map(|s| format!("\"{}\"", json_escape(s)))
                            .collect();
                        format!("[{}]", parts.join(", "))
                    }
                };
                let comma = if ii + 1 < section.items.len() {
                    ","
                } else {
                    ""
                };
                out.push_str(&format!(
                    "        \"{}\": {rendered}{comma}\n",
                    json_escape(key)
                ));
            }
            out.push_str("      }\n");
            let comma = if si + 1 < self.sections.len() {
                ","
            } else {
                ""
            };
            out.push_str(&format!("    }}{comma}\n"));
        }
        out.push_str("  ]\n");
        out.push_str("}\n");
        out
    }

    /// The human-readable markdown twin of [`ScenarioSummary::to_json`].
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("# {} ({})\n\n", self.name, self.scale));
        out.push_str(&format!("{}. Seed {}.\n", self.title, self.seed));
        for section in &self.sections {
            out.push_str(&format!("\n## {}\n\n", section.name));
            for (key, value) in &section.items {
                match value {
                    SummaryValue::List(items) => {
                        out.push_str(&format!("- {key}:\n"));
                        for item in items {
                            out.push_str(&format!("  - {item}\n"));
                        }
                    }
                    other => out.push_str(&format!("- {key}: {}\n", other.render())),
                }
            }
        }
        out
    }
}

/// Every kept edge of `model` in a canonical order with exact weight
/// bits: the comparison key behind the "incremental ≡ batch rebuild"
/// assertions.
fn canonical_edges(model: &AssociationModel) -> Vec<(Vec<u32>, u32, u64)> {
    let tables = model.tables();
    let mut edges: Vec<(Vec<u32>, u32, u64)> = model
        .hypergraph()
        .edges()
        .map(|(id, edge)| {
            let t = tables.table(id);
            let mut tail: Vec<u32> = t.tail().iter().map(|a| a.index() as u32).collect();
            tail.sort_unstable();
            (tail, t.head().index() as u32, edge.weight().to_bits())
        })
        .collect();
    edges.sort();
    edges
}

/// Records the standard model facts shared by every run section.
fn record_model(section: &mut SummarySection, cfg: &ModelConfig, model: &AssociationModel) {
    let stats = model.stats();
    section.float("gamma_edge", cfg.gamma_edge, 2);
    section.float("gamma_hyper", cfg.gamma_hyper, 2);
    section.uint("directed_edges", stats.num_directed_edges);
    section.uint("hyperedges", stats.num_hyperedges);
    section.float(
        "mean_acv_directed",
        stats.mean_acv_directed.unwrap_or(0.0),
        6,
    );
    section.float("mean_acv_hyper", stats.mean_acv_hyper.unwrap_or(0.0), 6);
    section.text("kernel", model.kernel_path().to_string());
}

/// Runs one registered scenario at `scale` and returns its summary.
/// Panics if a pinned expectation (a paper rule outcome, a bit-identity
/// invariant) does not hold — the replication gate treats that as drift
/// at the source.
pub fn run_scenario(spec: &ScenarioSpec, scale: RunScale) -> ScenarioSummary {
    let mut summary = ScenarioSummary {
        name: spec.name.to_string(),
        title: spec.title.to_string(),
        scale: scale.name().to_string(),
        seed: spec.seed,
        sections: Vec::new(),
    };
    match spec.source {
        Source::Inline(table) => run_inline(spec, table, &mut summary),
        Source::Market { .. } => run_market(spec, scale, &mut summary),
    }
    summary
}

/// The discretized database of an inline (paper-table) scenario —
/// `None` for market-backed specs. The single constructor behind the
/// promoted examples, the worked-example tests, and the replication
/// summaries, so all three see the identical table.
pub fn paper_database(spec: &ScenarioSpec) -> Option<Database> {
    match spec.source {
        Source::Inline(table) => Some(inline_database(spec, table)),
        Source::Market { .. } => None,
    }
}

/// Builds the discretized database of an inline paper table.
fn inline_database(spec: &ScenarioSpec, table: &InlineTable) -> Database {
    let n_attrs = table.attr_names.len();
    let columns: Vec<Vec<Value>> = (0..n_attrs)
        .map(|c| {
            let raw: Vec<f64> = table.rows.iter().map(|r| r[c]).collect();
            match spec.discretizer {
                DiscretizerSpec::FixedCuts { cuts, .. } => {
                    FixedCuts::new(cuts.to_vec()).fit_apply(&raw)
                }
                DiscretizerSpec::FloorDiv { divisor, .. } => {
                    discretize_by(&raw, |x| (x / divisor).floor() as Value)
                }
                DiscretizerSpec::EquiDepthDeltas => {
                    unreachable!("inline scenarios use explicit discretizers")
                }
            }
        })
        .collect();
    let k = match spec.discretizer {
        DiscretizerSpec::FixedCuts { k, .. } | DiscretizerSpec::FloorDiv { k, .. } => k,
        DiscretizerSpec::EquiDepthDeltas => unreachable!(),
    };
    Database::from_columns(
        table.attr_names.iter().map(|s| s.to_string()).collect(),
        k,
        columns,
    )
    .expect("registry inline tables are valid by construction")
}

fn run_inline(spec: &ScenarioSpec, table: &InlineTable, summary: &mut ScenarioSummary) {
    let db = inline_database(spec, table);

    let mut section = SummarySection::new("database");
    section.uint("attrs", db.num_attrs());
    section.uint("obs", db.num_obs());
    section.uint("k", db.k() as usize);
    let rows: Vec<String> = (0..db.num_obs())
        .map(|o| {
            let vals: Vec<String> = db.attrs().map(|a| db.value(a, o).to_string()).collect();
            vals.join(" ")
        })
        .collect();
    section.list("discretized_rows", rows);
    summary.sections.push(section);

    let mut rules = SummarySection::new("rules");
    for check in table.rules {
        let rule = MvaRule::new(
            check
                .antecedent
                .iter()
                .map(|&(a, v)| (AttrId::new(a), v))
                .collect(),
            vec![(AttrId::new(check.consequent.0), check.consequent.1)],
        )
        .expect("registry rules are well-formed");
        let support = rule.antecedent_support(&db);
        let confidence = rule.confidence(&db).expect("pinned rules have support");
        let want_support = check.support.0 as f64 / check.support.1 as f64;
        let want_confidence = check.confidence.0 as f64 / check.confidence.1 as f64;
        assert!(
            (support - want_support).abs() < 1e-12,
            "{}: support {support} != paper {}/{}",
            spec.name,
            check.support.0,
            check.support.1
        );
        assert!(
            (confidence - want_confidence).abs() < 1e-12,
            "{}: confidence {confidence} != paper {}/{}",
            spec.name,
            check.confidence.0,
            check.confidence.1
        );
        rules.text("rule", rule.display(&db).to_string());
        rules.float("support", support, 6);
        rules.float("confidence", confidence, 6);
    }
    summary.sections.push(rules);

    let run = &spec.runs[0];
    let cfg = run.model_config(db.num_attrs());
    let model = AssociationModel::build(&db, &cfg).expect("paper gammas are >= 1");
    let mut section = SummarySection::new(format!("run:{}", run.label));
    record_model(&mut section, &cfg, &model);
    summary.sections.push(section);

    for extra in table.extras {
        match extra {
            InlineExtra::EdgeList => {
                let tables = model.tables();
                let edges: Vec<String> = model
                    .hypergraph()
                    .edges()
                    .map(|(id, edge)| {
                        let t = tables.table(id);
                        let tail: Vec<&str> =
                            t.tail().iter().map(|&a| model.attr_name(a)).collect();
                        format!(
                            "{} -> {} ({})",
                            tail.join(" & "),
                            model.attr_name(t.head()),
                            format_float(edge.weight(), 3)
                        )
                    })
                    .collect();
                let mut section = SummarySection::new("edges");
                section.list("kept_edges", edges);
                summary.sections.push(section);
            }
            InlineExtra::Clusters => {
                let attrs: Vec<AttrId> = model.attrs().collect();
                let clusters = cluster_attributes(&model, &attrs, 2, None);
                let lines: Vec<String> = clusters
                    .center_attrs()
                    .iter()
                    .enumerate()
                    .map(|(c, &center)| {
                        let members: Vec<&str> = clusters
                            .cluster_members(c)
                            .iter()
                            .map(|&a| model.attr_name(a))
                            .collect();
                        format!("{}: {}", model.attr_name(center), members.join(" "))
                    })
                    .collect();
                let mut section = SummarySection::new("clusters");
                section.uint("t", 2);
                section.list("clusters", lines);
                summary.sections.push(section);
            }
            InlineExtra::Predictions => {
                let nodes: Vec<_> = model.attrs().map(node_of).collect();
                let dom =
                    set_cover_adaptation(model.hypergraph(), &nodes, &SetCoverOptions::default());
                let measured: Vec<AttrId> = dom.dominator.iter().map(|&n| attr_of(n)).collect();
                let mut section = SummarySection::new("predictions");
                section.list(
                    "measured",
                    measured
                        .iter()
                        .map(|&a| model.attr_name(a).to_string())
                        .collect(),
                );
                section.float("percent_covered", dom.percent_covered(), 4);
                let clf = AssociationClassifier::new(&model, &measured);
                let values: Vec<Value> = measured.iter().map(|&a| db.value(a, 0)).collect();
                let lines: Vec<String> = model
                    .attrs()
                    .filter(|a| !measured.contains(a))
                    .filter_map(|t| {
                        clf.predict(&values, t).map(|p| {
                            format!(
                                "{}: predicted {} (confidence {}), actual {}",
                                model.attr_name(t),
                                p.value,
                                format_float(p.confidence, 2),
                                db.value(t, 0)
                            )
                        })
                    })
                    .collect();
                section.list("obs0_predictions", lines);
                summary.sections.push(section);
            }
            InlineExtra::SimilarityMatrix => {
                let attrs: Vec<AttrId> = model.attrs().collect();
                let lines: Vec<String> = attrs
                    .iter()
                    .map(|&a| {
                        let row: Vec<String> = attrs
                            .iter()
                            .map(|&b| format_float(model.similarity_distance(a, b), 2))
                            .collect();
                        format!("{}: {}", model.attr_name(a), row.join(" "))
                    })
                    .collect();
                let mut section = SummarySection::new("similarity");
                section.list("distance_matrix", lines);
                summary.sections.push(section);
            }
        }
    }
}

/// Sample excess kurtosis of one series (0 for a Gaussian).
fn excess_kurtosis(xs: &[f64]) -> f64 {
    let n = xs.len() as f64;
    if xs.is_empty() {
        return 0.0;
    }
    let mean = xs.iter().sum::<f64>() / n;
    let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
    if var == 0.0 {
        return 0.0;
    }
    let m4 = xs.iter().map(|x| (x - mean).powi(4)).sum::<f64>() / n;
    m4 / (var * var) - 3.0
}

/// Records the shape-specific market facts (tail weight, regime mix).
fn record_market_shape(summary: &mut ScenarioSummary, spec: &ScenarioSpec, market: &Market) {
    let Source::Market { shape, .. } = spec.source else {
        return;
    };
    match shape {
        MarketShape::Baseline => {}
        MarketShape::HeavyTails { df } => {
            let deltas = market.deltas();
            let mean_kurt =
                deltas.iter().map(|d| excess_kurtosis(d)).sum::<f64>() / deltas.len() as f64;
            let mut section = SummarySection::new("market");
            section.uint("tail_df", df);
            section.float("mean_excess_kurtosis", mean_kurt, 4);
            summary.sections.push(section);
        }
        MarketShape::RegimeShifts { .. } => {
            let flags = market.crisis_days();
            let crisis: Vec<usize> = (0..flags.len()).filter(|&d| flags[d]).collect();
            let calm: Vec<usize> = (0..flags.len()).filter(|&d| !flags[d]).collect();
            let deltas = market.deltas();
            let n = deltas.len() as f64;
            let day_mean = |d: usize| deltas.iter().map(|s| s[d]).sum::<f64>() / n;
            let rms = |days: &[usize]| {
                (days.iter().map(|&d| day_mean(d).powi(2)).sum::<f64>() / days.len().max(1) as f64)
                    .sqrt()
            };
            let mut section = SummarySection::new("market");
            section.uint("crisis_days", crisis.len());
            section.uint("calm_days", calm.len());
            section.float(
                "crisis_to_calm_move_ratio",
                rms(&crisis) / rms(&calm).max(1e-12),
                4,
            );
            summary.sections.push(section);
        }
    }
}

fn run_market(spec: &ScenarioSpec, scale: RunScale, summary: &mut ScenarioSummary) {
    let dims = spec.dims(scale).expect("market scenarios have dims");
    let market = spec.simulate(scale).expect("market scenarios simulate");

    let mut section = SummarySection::new("scenario");
    section.uint("tickers", dims.tickers);
    section.uint("days", dims.days);
    if dims.window > 0 {
        section.uint("window", dims.window);
    }
    summary.sections.push(section);
    record_market_shape(summary, spec, &market);

    match spec.windowing {
        WindowPolicy::Batch => {
            for run in spec.runs {
                let disc = discretize_market(&market, run.k, None);
                let cfg = run.model_config(disc.database.num_attrs());
                let model = AssociationModel::build(&disc.database, &cfg).expect("gammas are >= 1");
                let mut section = SummarySection::new(format!("run:{}", run.label));
                section.uint("k", run.k as usize);
                section.uint("obs", disc.database.num_obs());
                record_model(&mut section, &cfg, &model);
                summary.sections.push(section);
            }
        }
        WindowPolicy::HoldoutFinalYear => run_holdout(spec, &market, summary),
        WindowPolicy::Sliding { gaps } => run_sliding(spec, &market, dims.window, gaps, summary),
        WindowPolicy::DurableSliding { kill_every } => {
            run_crash_recovery(spec, &market, dims.window, kill_every, summary)
        }
    }
}

/// The paper's train/holdout evaluation: model statistics, the set-cover
/// dominator at the top-40% ACV threshold, and the association-based
/// classifier's mean confidence in and out of sample.
fn run_holdout(spec: &ScenarioSpec, market: &Market, summary: &mut ScenarioSummary) {
    let n_days = market.n_days();
    assert!(
        n_days > 2 * calendar::TRADING_DAYS_PER_YEAR - 1,
        "holdout scenarios need at least two simulated years"
    );
    let split = n_days - calendar::TRADING_DAYS_PER_YEAR;
    let scenario = Scenario {
        market: market.clone(),
        in_days: 0..split,
        out_days: split..n_days - 1,
    };
    for run in spec.runs {
        let cfg = Configuration {
            name: run.label,
            k: run.k,
            model: run.model_config(market.universe().len()),
        };
        let built = scenario.build(&cfg);
        let mut section = SummarySection::new(format!("run:{}", run.label));
        section.uint("k", run.k as usize);
        section.uint("train_obs", built.train_db.num_obs());
        section.uint("test_obs", built.test_db.num_obs());
        record_model(&mut section, &cfg.model, &built.model);
        record_dominator(&mut section, &built);
        summary.sections.push(section);
    }
}

/// Set-cover dominator at the top-40% ACV threshold + classifier
/// confidences (the Table 5.4 pattern, one row).
fn record_dominator(section: &mut SummarySection, built: &BuiltConfig) {
    let model = &built.model;
    let Some(threshold) = model.acv_percentile_threshold(0.4) else {
        section.flag("dominator_found", false);
        return;
    };
    let filtered = model.filter_by_acv(threshold);
    let all_nodes: Vec<_> = model.attrs().map(node_of).collect();
    let result = set_cover_adaptation(
        filtered.hypergraph(),
        &all_nodes,
        &SetCoverOptions::default(),
    );
    let dominator: Vec<AttrId> = result.dominator.iter().map(|&n| attr_of(n)).collect();
    if dominator.is_empty() {
        section.flag("dominator_found", false);
        return;
    }
    section.float("acv_threshold_top40", threshold, 6);
    section.uint("dominator_size", dominator.len());
    section.float("percent_covered", result.percent_covered(), 4);
    section.list(
        "dominator",
        dominator
            .iter()
            .map(|&a| model.attr_name(a).to_string())
            .collect(),
    );
    let targets: Vec<AttrId> = model.attrs().filter(|a| !dominator.contains(a)).collect();
    let clf = AssociationClassifier::new(&filtered, &dominator);
    section.float(
        "abc_confidence_in_sample",
        clf.evaluate(&built.train_db, &targets).mean_confidence(),
        4,
    );
    section.float(
        "abc_confidence_out_sample",
        clf.evaluate(&built.test_db, &targets).mean_confidence(),
        4,
    );
}

/// The streaming runner: builds the model over the first `window`
/// observations, then drives the remaining days through
/// `advance` — injecting retire-only contractions on the gap
/// schedule — and asserts the final model is bit-identical to a batch
/// rebuild of the final window.
fn run_sliding(
    spec: &ScenarioSpec,
    market: &Market,
    window: usize,
    gaps: Option<crate::registry::GapSchedule>,
    summary: &mut ScenarioSummary,
) {
    for run in spec.runs {
        let disc = discretize_market(market, run.k, None);
        let db = &disc.database;
        let total = db.num_obs();
        assert!(window > 1 && window < total, "dims leave room to slide");
        let cfg = run.model_config(db.num_attrs());
        let seed_db = db.slice_obs(0..window);
        let mut model = AssociationModel::build(&seed_db, &cfg).expect("gammas are >= 1");

        let mut row = vec![0 as Value; db.num_attrs()];
        let mut live = window;
        let mut min_live = live;
        let mut slides = 0usize;
        let mut gap_days = 0usize;
        let mut observed_since_gap = 0usize;
        for day in window..total {
            if let Some(g) = gaps {
                if observed_since_gap >= g.every {
                    // A calendar hole: `len` missing days, each retiring
                    // the oldest observation with no replacement.
                    for _ in 0..g.len {
                        model.retire_oldest().expect("window stays non-trivial");
                        live -= 1;
                        gap_days += 1;
                    }
                    observed_since_gap = 0;
                    min_live = min_live.min(live);
                }
            }
            for (a, v) in row.iter_mut().enumerate() {
                *v = db.value(AttrId::new(a as u32), day);
            }
            // A fixed-width slide at the current (possibly contracted)
            // length: the model's advance retires and appends in one step.
            model.advance(&row).expect("validated rows advance");
            slides += 1;
            observed_since_gap += 1;
        }

        // The replication contract for every streaming scenario: the
        // incrementally maintained model — including retire-only
        // contractions — covers exactly the stream's newest `live` days
        // and is bit-identical to a batch rebuild over them.
        let final_db = db.slice_obs(total - live..total);
        assert_eq!(
            model.database(),
            &final_db,
            "{}/{}: the model's window is not the stream's newest {live} days",
            spec.name,
            run.label
        );
        let batch = AssociationModel::build(&final_db, &cfg).expect("gammas are >= 1");
        let identical =
            canonical_edges(&model) == canonical_edges(&batch) && model.stats() == batch.stats();
        assert!(
            identical,
            "{}/{}: incremental model diverged from batch rebuild",
            spec.name, run.label
        );

        let mut section = SummarySection::new(format!("run:{}", run.label));
        section.uint("k", run.k as usize);
        section.uint("slides", slides);
        section.uint("gap_days", gap_days);
        section.uint("final_window", live);
        if gaps.is_some() {
            section.uint("min_window", min_live);
        }
        section.uint("epoch", model.epoch() as usize);
        record_model(&mut section, &cfg, &model);
        section.flag("identical_to_batch_rebuild", identical);
        summary.sections.push(section);
    }
}

/// The durable streaming runner: the sliding stream runs through a
/// WAL-backed store, and every `kill_every`-th applied record the
/// writer is "killed" — the store is dropped mid-stream, the model is
/// rebuilt from the newest checkpoint plus the log tail, and the
/// recovered model must be bit-identical to the one that just died.
/// Serving then resumes *on the recovered model*, so each kill also
/// proves the post-recovery store is a working continuation, not just a
/// read-back. Small segments force several checkpoint rotations per
/// scale, so recovery exercises checkpoint + tail rather than one long
/// replay.
fn run_crash_recovery(
    spec: &ScenarioSpec,
    market: &Market,
    window: usize,
    kill_every: usize,
    summary: &mut ScenarioSummary,
) {
    const SEGMENT_BYTES: u64 = 512;
    for run in spec.runs {
        let disc = discretize_market(market, run.k, None);
        let db = &disc.database;
        let total = db.num_obs();
        assert!(window > 1 && window < total, "dims leave room to slide");
        let cfg = run.model_config(db.num_attrs());
        let seed_db = db.slice_obs(0..window);
        let mut model = AssociationModel::build(&seed_db, &cfg).expect("gammas are >= 1");

        let dir = std::env::temp_dir().join(format!(
            "hypermine-replication-wal-{}-{}-{}",
            std::process::id(),
            spec.name,
            run.label
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let mut store = Some(WalStore::create(&dir, SEGMENT_BYTES, &model).expect("fresh WAL dir"));

        let mut applied = 0usize;
        let mut kills = 0usize;
        let mut retires = 0usize;
        let mut batches = 0usize;
        let mut all_identical = true;
        let row_at = |day: usize| -> Vec<Value> {
            (0..db.num_attrs())
                .map(|a| db.value(AttrId::new(a as u32), day))
                .collect()
        };
        let mut day = window;
        while day < total {
            // The same command mix the chaos suite uses: mostly single
            // advances, an occasional two-row batch, an occasional
            // retire-only contraction.
            let record = if applied > 0 && applied % 13 == 0 {
                WalRecord::Retire
            } else if applied > 0 && applied % 11 == 0 && day + 1 < total {
                WalRecord::AdvanceBatch(vec![row_at(day), row_at(day + 1)])
            } else {
                WalRecord::Advance(row_at(day))
            };
            match &record {
                WalRecord::Advance(row) => {
                    model.advance(row).expect("validated rows advance");
                    day += 1;
                }
                WalRecord::AdvanceBatch(rows) => {
                    model.advance_batch(rows).expect("validated rows advance");
                    day += rows.len();
                    batches += 1;
                }
                WalRecord::Retire => {
                    model.retire_oldest().expect("window stays non-trivial");
                    retires += 1;
                }
            }
            // Commit-log order: the record lands only after the model
            // accepted it, exactly as the serving host does.
            let s = store.as_mut().expect("store is live between kills");
            s.append(&record).expect("wal append");
            s.maybe_rotate(&model).expect("wal rotate");
            applied += 1;

            if applied % kill_every == 0 || day >= total {
                // Kill the writer: drop the store handle (the crash),
                // recover from disk, and demand bit-identity with the
                // model that was live at the moment of death.
                drop(store.take());
                let (recovered, info) = store::recover(&dir).expect("recovery succeeds");
                let identical = canonical_edges(&recovered) == canonical_edges(&model)
                    && recovered.stats() == model.stats()
                    && recovered.epoch() == model.epoch();
                assert!(
                    identical,
                    "{}/{}: recovery diverged from the live model at record {applied}",
                    spec.name, run.label
                );
                assert!(!info.torn_tail, "clean kills leave no torn tail");
                all_identical &= identical;
                kills += 1;
                model = recovered;
                store = Some(
                    WalStore::continue_from(&dir, SEGMENT_BYTES, &model, info.seq + 1)
                        .expect("continuing a recovered store"),
                );
            }
        }
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);

        let mut section = SummarySection::new(format!("run:{}", run.label));
        section.uint("k", run.k as usize);
        section.uint("records", applied);
        section.uint("batches", batches);
        section.uint("retires", retires);
        section.uint("kills", kills);
        section.uint("epoch", model.epoch() as usize);
        section.uint("final_window", model.database().num_obs());
        record_model(&mut section, &cfg, &model);
        record_model_dominator(&mut section, &model);
        section.flag("recovery_bit_identical_at_every_kill", all_identical);
        summary.sections.push(section);
    }
}

/// The set-cover dominator of a standalone model at the top-40% ACV
/// threshold — the pinned-summary half of [`record_dominator`], for
/// runners that have no holdout split to score a classifier against.
fn record_model_dominator(section: &mut SummarySection, model: &AssociationModel) {
    let Some(threshold) = model.acv_percentile_threshold(0.4) else {
        section.flag("dominator_found", false);
        return;
    };
    let filtered = model.filter_by_acv(threshold);
    let all_nodes: Vec<_> = model.attrs().map(node_of).collect();
    let result = set_cover_adaptation(
        filtered.hypergraph(),
        &all_nodes,
        &SetCoverOptions::default(),
    );
    let dominator: Vec<AttrId> = result.dominator.iter().map(|&n| attr_of(n)).collect();
    if dominator.is_empty() {
        section.flag("dominator_found", false);
        return;
    }
    section.float("acv_threshold_top40", threshold, 6);
    section.uint("dominator_size", dominator.len());
    section.float("percent_covered", result.percent_covered(), 4);
    section.list(
        "dominator",
        dominator
            .iter()
            .map(|&a| model.attr_name(a).to_string())
            .collect(),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{find, REGISTRY};

    #[test]
    fn inline_scenarios_replicate_the_paper_rules() {
        for name in ["gene_expression", "patient_db", "personal_interest"] {
            let spec = find(name).unwrap();
            let summary = run_scenario(spec, RunScale::Tiny);
            assert_eq!(summary.name, name);
            let rules = summary
                .sections
                .iter()
                .find(|s| s.name == "rules")
                .expect("inline scenarios record rules");
            assert!(rules.items.iter().any(|(k, _)| k == "confidence"));
            // Inline summaries are scale-invariant.
            assert_eq!(
                summary.sections,
                run_scenario(spec, RunScale::Full).sections
            );
        }
    }

    #[test]
    fn gene_summary_pins_discretization_and_rule() {
        let summary = run_scenario(find("gene_expression").unwrap(), RunScale::Tiny);
        let db = &summary.sections[0];
        assert_eq!(db.name, "database");
        let rows = db
            .items
            .iter()
            .find(|(k, _)| k == "discretized_rows")
            .map(|(_, v)| match v {
                SummaryValue::List(rows) => rows.clone(),
                _ => panic!("rows are a list"),
            })
            .unwrap();
        // Table 3.4, patient 1: G1 down, G2 down, G3 mid, G4 mid.
        assert_eq!(rows[0], "1 1 2 2");
        assert_eq!(rows.len(), 8);
    }

    #[test]
    fn calendar_gap_scenario_contracts_and_matches_batch() {
        let spec = find("stress_calendar_gaps").unwrap();
        let summary = run_scenario(spec, RunScale::Tiny);
        let run = summary
            .sections
            .iter()
            .find(|s| s.name.starts_with("run:"))
            .unwrap();
        let get = |key: &str| {
            run.items
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v.clone())
                .unwrap_or_else(|| panic!("missing {key}"))
        };
        assert!(matches!(get("gap_days"), SummaryValue::UInt(g) if g > 0));
        assert_eq!(get("identical_to_batch_rebuild"), SummaryValue::Bool(true));
        let (final_w, min_w, window) = match (
            get("final_window"),
            get("min_window"),
            spec.dims(RunScale::Tiny).unwrap().window,
        ) {
            (SummaryValue::UInt(f), SummaryValue::UInt(m), w) => (f as usize, m as usize, w),
            _ => panic!("window facts are counts"),
        };
        assert!(
            min_w <= final_w && final_w < window,
            "gaps contracted the window"
        );
    }

    #[test]
    fn summaries_are_deterministic_and_render_both_formats() {
        let spec = find("perf_serve").unwrap();
        let a = run_scenario(spec, RunScale::Tiny);
        let b = run_scenario(spec, RunScale::Tiny);
        assert_eq!(a, b);
        let json = a.to_json();
        assert!(json.contains("\"name\": \"perf_serve\""));
        assert!(json.contains("identical_to_batch_rebuild"));
        let md = a.to_markdown();
        assert!(md.starts_with("# perf_serve (tiny)"));
        assert!(md.contains("## run:k5"));
    }

    #[test]
    fn every_registered_scenario_runs_at_tiny() {
        // The replication binary's core loop, as a test: every scenario
        // must produce a non-empty summary at tiny scale.
        for spec in REGISTRY {
            let summary = run_scenario(spec, RunScale::Tiny);
            assert!(!summary.sections.is_empty(), "{} empty", spec.name);
        }
    }

    #[test]
    fn float_formatting_is_canonical() {
        assert_eq!(format_float(0.12345, 3), "0.123");
        assert_eq!(format_float(-0.0001, 3), "0.000");
        assert_eq!(format_float(-1.5, 2), "-1.50");
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }
}
