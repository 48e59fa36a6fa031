//! The scenario registry: every workload this repository evaluates —
//! paper replication, perf fixtures, the paper's worked example
//! databases, and synthetic stress shapes — described declaratively as a
//! [`ScenarioSpec`] and registered under a stable name in [`REGISTRY`].
//!
//! Before this module existed, `report` hand-wired the paper market,
//! `perf_summary` grew its own fixture constants, and the worked-example
//! databases lived as print-only examples. A spec captures everything
//! needed to reproduce a workload from scratch — universe dimensions per
//! scale, market shape (plain factor model, heavy tails, regime
//! schedule), discretizer, γ settings per run, window policy, and the
//! RNG seed — so the `replication` binary can regenerate any scenario's
//! summary and diff it against the committed one, and `report` /
//! `perf_summary` can source their fixtures from the same single place.
//!
//! Adding a scenario is one static entry here plus a committed summary
//! under `replication/` (see the README's *Scenario registry* section).

use hypermine_core::{GammaPreset, ModelConfig};
use hypermine_data::Value;
use hypermine_market::{calendar, Market, RegimeConfig, SimConfig, Universe};

/// Which of the three fixture sizes of a scenario to instantiate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunScale {
    /// Seconds end to end; what CI gates on.
    Tiny,
    /// The documented reporting size (minutes on two cores).
    Default,
    /// The paper's full setup where one exists; otherwise == `Default`.
    Full,
}

impl RunScale {
    /// Parses a `--scale` argument (`tiny` | `default` | `full`).
    pub fn parse(s: &str) -> Option<RunScale> {
        match s {
            "tiny" => Some(RunScale::Tiny),
            "default" => Some(RunScale::Default),
            "full" => Some(RunScale::Full),
            _ => None,
        }
    }

    /// The canonical lower-case name (also the summary directory name).
    pub fn name(self) -> &'static str {
        match self {
            RunScale::Tiny => "tiny",
            RunScale::Default => "default",
            RunScale::Full => "full",
        }
    }
}

/// Universe dimensions of one scale of a market-backed scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MarketDims {
    /// Universe size (tickers = attributes).
    pub tickers: usize,
    /// Simulated trading days (delta series get `days - 1` entries).
    pub days: usize,
    /// Sliding-window capacity in observations; only meaningful under
    /// [`WindowPolicy::Sliding`] (0 elsewhere).
    pub window: usize,
}

impl MarketDims {
    /// Dimensions spanning `years` whole trading years (no window).
    pub const fn years(tickers: usize, years: usize) -> MarketDims {
        MarketDims {
            tickers,
            days: years * calendar::TRADING_DAYS_PER_YEAR,
            window: 0,
        }
    }

    /// Batch dimensions: `tickers` × `days`, no window.
    pub const fn batch(tickers: usize, days: usize) -> MarketDims {
        MarketDims {
            tickers,
            days,
            window: 0,
        }
    }

    /// Sliding dimensions: `tickers` × `days` with a `window`-observation
    /// sliding window.
    pub const fn sliding(tickers: usize, days: usize, window: usize) -> MarketDims {
        MarketDims {
            tickers,
            days,
            window,
        }
    }
}

/// The per-scale dimensions of a market-backed scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScaleDims {
    /// Dimensions at [`RunScale::Tiny`].
    pub tiny: MarketDims,
    /// Dimensions at [`RunScale::Default`].
    pub default_scale: MarketDims,
    /// Dimensions at [`RunScale::Full`].
    pub full: MarketDims,
}

impl ScaleDims {
    /// The dimensions at `scale`.
    pub const fn at(&self, scale: RunScale) -> MarketDims {
        match scale {
            RunScale::Tiny => self.tiny,
            RunScale::Default => self.default_scale,
            RunScale::Full => self.full,
        }
    }
}

/// The statistical shape of a simulated market.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MarketShape {
    /// The plain three-level factor model every pre-registry fixture used.
    Baseline,
    /// Student-t idiosyncratic noise with `df` degrees of freedom:
    /// heavy-tailed deltas (excess kurtosis well above the Gaussian 0)
    /// at unchanged overall variance.
    HeavyTails {
        /// Degrees of freedom (≥ 3 keeps variance finite and normalized).
        df: usize,
    },
    /// A two-state calm/crisis schedule ([`RegimeConfig`]): crises swell
    /// the market factor and every ticker's loading on it, producing
    /// correlated regime shifts.
    RegimeShifts {
        /// Expected calm-segment length in days.
        calm_len: usize,
        /// Expected crisis-segment length in days.
        crisis_len: usize,
        /// Market-factor s.d. multiplier in a crisis.
        crisis_vol: f64,
        /// Market-loading multiplier in a crisis.
        crisis_beta: f64,
        /// Idiosyncratic-noise multiplier in a crisis.
        crisis_idio: f64,
    },
}

impl MarketShape {
    /// The [`SimConfig`] realizing this shape over `days` trading days.
    pub fn sim_config(&self, days: usize, seed: u64) -> SimConfig {
        let base = SimConfig {
            n_days: days,
            seed,
            ..SimConfig::default()
        };
        match *self {
            MarketShape::Baseline => base,
            MarketShape::HeavyTails { df } => SimConfig {
                tail_df: df,
                ..base
            },
            MarketShape::RegimeShifts {
                calm_len,
                crisis_len,
                crisis_vol,
                crisis_beta,
                crisis_idio,
            } => SimConfig {
                regimes: Some(RegimeConfig {
                    calm_len,
                    crisis_len,
                    crisis_vol,
                    crisis_beta,
                    crisis_idio,
                }),
                ..base
            },
        }
    }
}

/// Deterministic calendar holes injected into a sliding stream: after
/// every `every` observed days, `len` consecutive days are missing. Each
/// missing day retires the oldest observation without a replacement
/// (`AssociationModel::retire_oldest`), contracting the window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GapSchedule {
    /// Observed days between gap bursts.
    pub every: usize,
    /// Missing days per burst.
    pub len: usize,
}

/// How a scenario turns its day range into train/test windows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WindowPolicy {
    /// One model over all days.
    Batch,
    /// Train on all but the final trading year, test on that year (the
    /// paper's split: train Jan 1996 – Dec 2008, test 2009).
    HoldoutFinalYear,
    /// Maintain a sliding window of [`MarketDims::window`] observations,
    /// advancing one day at a time — with optional calendar gaps driving
    /// retire-only contraction.
    Sliding {
        /// Deterministic missing-day schedule, if any.
        gaps: Option<GapSchedule>,
    },
    /// [`WindowPolicy::Sliding`] run through the durable serving store
    /// (`hypermine_serve::store`): every advance and retire is WAL-
    /// logged, and after every `kill_every` applied records the writer
    /// is killed and the model recovered from the newest checkpoint +
    /// log tail, asserting bit-identity with the live model before the
    /// stream continues. Retires ride the same schedule as
    /// [`WindowPolicy::Sliding`] with no gaps plus a fixed mid-stream
    /// mix (see the `replication` runner).
    DurableSliding {
        /// Applied records between scheduled kill/recover points.
        kill_every: usize,
    },
}

/// How raw values become the discrete `1..=k` domain.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DiscretizerSpec {
    /// Equi-depth buckets over delta series (the financial pipeline);
    /// arity comes from each [`GammaRun::k`].
    EquiDepthDeltas,
    /// Fixed cut points (paper Tables 3.4 / 3.6 style): value < `cuts[0]`
    /// ⇒ 1, < `cuts[1]` ⇒ 2, … up to `k`.
    FixedCuts {
        /// Ascending interior cut points (`cuts.len() == k - 1`).
        cuts: &'static [f64],
        /// Discrete arity.
        k: Value,
    },
    /// `⌊value / divisor⌋` (paper Table 3.2 style).
    FloorDiv {
        /// The divisor (10.0 in the paper's Patient database).
        divisor: f64,
        /// Discrete arity (max bucket index the data reaches).
        k: Value,
    },
}

/// γ thresholds of one run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Gammas {
    /// Explicit `(γ₁→₁, γ₂→₁)`.
    Fixed {
        /// Directed-edge threshold γ₁→₁.
        edge: f64,
        /// Hyperedge threshold γ₂→₁.
        hyper: f64,
    },
    /// Whatever [`GammaPreset::for_num_attrs`] recommends for the
    /// scenario's attribute count (Exact below the wide crossover,
    /// WideDefault above).
    Preset,
}

/// One model build within a scenario: a label, a discretization arity,
/// and γ thresholds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GammaRun {
    /// Stable label (`"C1"`, `"k5"`, …) used in summaries and section
    /// names.
    pub label: &'static str,
    /// Discretization arity for [`DiscretizerSpec::EquiDepthDeltas`]
    /// scenarios (inline tables carry their own `k`).
    pub k: Value,
    /// γ thresholds.
    pub gammas: Gammas,
}

impl GammaRun {
    /// The paper's configuration C1 (k = 3, γ = 1.15 / 1.05).
    pub const C1: GammaRun = GammaRun {
        label: "C1",
        k: 3,
        gammas: Gammas::Fixed {
            edge: 1.15,
            hyper: 1.05,
        },
    };

    /// The paper's configuration C2 (k = 5, γ = 1.20 / 1.12).
    pub const C2: GammaRun = GammaRun {
        label: "C2",
        k: 5,
        gammas: Gammas::Fixed {
            edge: 1.20,
            hyper: 1.12,
        },
    };

    /// A `k`-labelled run at the C1 gammas (the perf fixtures' sweep
    /// points).
    pub const fn perf(label: &'static str, k: Value) -> GammaRun {
        GammaRun {
            label,
            k,
            gammas: Gammas::Fixed {
                edge: 1.15,
                hyper: 1.05,
            },
        }
    }

    /// A `k`-labelled run whose gammas follow
    /// [`GammaPreset::for_num_attrs`].
    pub const fn preset(label: &'static str, k: Value) -> GammaRun {
        GammaRun {
            label,
            k,
            gammas: Gammas::Preset,
        }
    }

    /// The [`ModelConfig`] for this run over `num_attrs` attributes
    /// (every non-γ field at its default).
    pub fn model_config(&self, num_attrs: usize) -> ModelConfig {
        match self.gammas {
            Gammas::Fixed { edge, hyper } => ModelConfig {
                gamma_edge: edge,
                gamma_hyper: hyper,
                ..ModelConfig::default()
            },
            Gammas::Preset => ModelConfig::with_preset(GammaPreset::for_num_attrs(num_attrs)),
        }
    }
}

/// An expected mva-rule outcome pinned from the paper, as exact
/// fractions (`(numerator, denominator)`) so the check is bit-exact.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RuleCheck {
    /// `(attribute index, value)` conjuncts of the antecedent.
    pub antecedent: &'static [(u32, Value)],
    /// The consequent `(attribute index, value)`.
    pub consequent: (u32, Value),
    /// Expected antecedent support as an exact fraction.
    pub support: (u32, u32),
    /// Expected confidence as an exact fraction.
    pub confidence: (u32, u32),
}

/// Extra summary sections an inline scenario records beyond its
/// discretized table and rule checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InlineExtra {
    /// Every kept edge/hyperedge with its ACV (the Patient database's
    /// Example 3.3 output).
    EdgeList,
    /// t = 2 attribute clusters (the Gene database's Chapter 6 problem 1).
    Clusters,
    /// Set-cover dominators + predictions for the held-out attributes of
    /// observation 0 (the Gene database's Chapter 6 problem 2).
    Predictions,
    /// The pairwise association-distance matrix (the Personal-Interest
    /// database's similarity output).
    SimilarityMatrix,
}

/// A small literal database from the paper (Tables 3.1–3.6), with its
/// expected rule outcomes pinned as exact fractions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InlineTable {
    /// Attribute (column) names.
    pub attr_names: &'static [&'static str],
    /// Raw rows, one per observation (all paper tables are 8 × 4).
    pub rows: &'static [[f64; 4]],
    /// Paper-pinned rule outcomes, asserted on every replication run.
    pub rules: &'static [RuleCheck],
    /// Extra recorded sections.
    pub extras: &'static [InlineExtra],
}

/// Where a scenario's observations come from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Source {
    /// A simulated market of the given per-scale dimensions and shape.
    Market {
        /// Universe dimensions per [`RunScale`].
        dims: ScaleDims,
        /// Statistical shape of the simulation.
        shape: MarketShape,
    },
    /// A literal paper table; scale-invariant.
    Inline(&'static InlineTable),
}

/// One fully-specified, reproducible workload.
///
/// Everything the `replication` binary needs to regenerate the
/// scenario's summary lives here; nothing is hand-wired in a binary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScenarioSpec {
    /// Stable registry name (also the summary file stem).
    pub name: &'static str,
    /// One-line human description.
    pub title: &'static str,
    /// RNG seed; the *only* seed any binary may use for this scenario.
    pub seed: u64,
    /// Observation source.
    pub source: Source,
    /// Raw-value → `1..=k` mapping.
    pub discretizer: DiscretizerSpec,
    /// Train/test window policy.
    pub windowing: WindowPolicy,
    /// Model builds to perform, in order.
    pub runs: &'static [GammaRun],
}

impl ScenarioSpec {
    /// The market dimensions at `scale` (`None` for inline sources).
    pub fn dims(&self, scale: RunScale) -> Option<MarketDims> {
        match self.source {
            Source::Market { dims, .. } => Some(dims.at(scale)),
            Source::Inline(_) => None,
        }
    }

    /// Simulates this scenario's market at `scale` (`None` for inline
    /// sources). The seed is the spec's — by construction there is no
    /// other place a fixture seed can come from.
    pub fn simulate(&self, scale: RunScale) -> Option<Market> {
        match self.source {
            Source::Market { dims, shape } => {
                let d = dims.at(scale);
                Some(Market::simulate(
                    Universe::sp500(d.tickers),
                    &shape.sim_config(d.days, self.seed),
                ))
            }
            Source::Inline(_) => None,
        }
    }

    /// The repository-relative path of the committed expected summary at
    /// `scale`.
    pub fn expected_summary(&self, scale: RunScale) -> String {
        format!("replication/{}/{}.json", scale.name(), self.name)
    }
}

/// Looks a scenario up by registry name.
pub fn find(name: &str) -> Option<&'static ScenarioSpec> {
    REGISTRY.iter().find(|s| s.name == name)
}

/// The paper market's per-scale dimensions: the single source of truth
/// behind `Scale::tiny/default_scale/full` (30 t × 2 y, 120 t × 10 y,
/// and the paper's 346 t × 15 y).
pub const PAPER_DIMS: ScaleDims = ScaleDims {
    tiny: MarketDims::years(30, 2),
    default_scale: MarketDims::years(120, 10),
    full: MarketDims::years(346, 15),
};

/// The `report` binary's sections, with the paper artifact each
/// regenerates. `report --only` validates against this list.
pub static REPORT_SECTIONS: &[(&str, &str)] = &[
    ("stats", "Section 5.1.2: configuration statistics"),
    ("t51", "Table 5.1: top directed edge and 2-to-1 hyperedge"),
    ("t52", "Table 5.2: hyperedge vs constituent directed edges"),
    ("t53", "Table 5.3: dominators via Algorithm 5"),
    (
        "t54",
        "Table 5.4: dominators via Algorithm 6 (+ Enhancements 1 & 2)",
    ),
    ("f51", "Figure 5.1: weighted degree distributions"),
    ("f52", "Figure 5.2: association vs Euclidean similarity"),
    ("f53", "Figure 5.3: t-clustering of all series"),
    (
        "f54",
        "Figure 5.4: expanding-window classification confidence",
    ),
];

/// The paper's Gene database (Tables 3.3–3.4, Example 3.4): raw
/// expression values for 4 genes × 8 patients.
static GENE_TABLE: InlineTable = InlineTable {
    attr_names: &["G1", "G2", "G3", "G4"],
    rows: &[
        [54.23, 66.22, 342.32, 422.21],
        [541.21, 324.21, 165.21, 852.21],
        [321.67, 125.98, 139.43, 71.11],
        [123.87, 95.54, 105.88, 678.65],
        [388.44, 129.33, 135.65, 754.32],
        [399.98, 121.54, 117.55, 719.33],
        [414.33, 134.73, 145.32, 733.22],
        [855.78, 125.93, 155.76, 789.43],
    ],
    // G2↓ ∧ G3↓ ⟹ G4↑: Supp 7/8 = 0.875, Conf 6/7 ≈ 0.857.
    rules: &[RuleCheck {
        antecedent: &[(1, 1), (2, 1)],
        consequent: (3, 3),
        support: (7, 8),
        confidence: (6, 7),
    }],
    extras: &[InlineExtra::Clusters, InlineExtra::Predictions],
};

/// The paper's Patient database (Tables 3.1–3.2, Example 3.3).
static PATIENT_TABLE: InlineTable = InlineTable {
    attr_names: &["Age", "Cholesterol", "Blood-Pressure", "Heart-Rate"],
    rows: &[
        [25.0, 105.0, 135.0, 75.0],
        [62.0, 160.0, 165.0, 85.0],
        [32.0, 125.0, 139.0, 71.0],
        [12.0, 95.0, 105.0, 67.0],
        [38.0, 129.0, 135.0, 75.0],
        [39.0, 121.0, 117.0, 71.0],
        [41.0, 134.0, 145.0, 73.0],
        [85.0, 125.0, 155.0, 78.0],
    ],
    // Age 30–39 ∧ Cholesterol 120–129 ⟹ BP 130–139: Supp 3/8, Conf 2/3.
    rules: &[RuleCheck {
        antecedent: &[(0, 3), (1, 12)],
        consequent: (2, 13),
        support: (3, 8),
        confidence: (2, 3),
    }],
    extras: &[InlineExtra::EdgeList],
};

/// The paper's Personal-Interest database (Tables 3.5–3.6, Example 3.5).
static INTEREST_TABLE: InlineTable = InlineTable {
    attr_names: &["Read", "Play", "Music", "Eat"],
    rows: &[
        [10.0, 10.0, 3.0, 5.0],
        [7.0, 9.0, 4.0, 6.0],
        [3.0, 1.0, 9.0, 10.0],
        [5.0, 1.0, 10.0, 7.0],
        [9.0, 8.0, 2.0, 6.0],
        [8.0, 10.0, 7.0, 6.0],
        [5.0, 4.0, 6.0, 5.0],
        [8.0, 10.0, 1.0, 8.0],
    ],
    // Read high ∧ Play high ⟹ Music low: Supp 4/8 = 0.5, Conf 3/4.
    rules: &[RuleCheck {
        antecedent: &[(0, 3), (1, 3)],
        consequent: (2, 1),
        support: (4, 8),
        confidence: (3, 4),
    }],
    extras: &[InlineExtra::SimilarityMatrix],
};

/// Every registered scenario. `replication` runs them all; `report` and
/// `perf_summary` source their fixtures from the entries named in their
/// docs.
pub static REGISTRY: &[ScenarioSpec] = &[
    ScenarioSpec {
        name: "paper_market",
        title: "Chapter 5 financial evaluation: C1/C2 over the synthetic S&P market",
        seed: 7,
        source: Source::Market {
            dims: PAPER_DIMS,
            shape: MarketShape::Baseline,
        },
        discretizer: DiscretizerSpec::EquiDepthDeltas,
        windowing: WindowPolicy::HoldoutFinalYear,
        runs: &[GammaRun::C1, GammaRun::C2],
    },
    ScenarioSpec {
        name: "perf_construction",
        title: "Construction-time fixture: one build per k at the C1 gammas",
        seed: 5,
        source: Source::Market {
            dims: ScaleDims {
                tiny: MarketDims::batch(24, 252),
                default_scale: MarketDims::batch(40, 504),
                full: MarketDims::batch(40, 504),
            },
            shape: MarketShape::Baseline,
        },
        discretizer: DiscretizerSpec::EquiDepthDeltas,
        windowing: WindowPolicy::Batch,
        runs: &[
            GammaRun::perf("k3", 3),
            GammaRun::perf("k5", 5),
            GammaRun::perf("k8", 8),
            GammaRun::perf("k12", 12),
        ],
    },
    ScenarioSpec {
        name: "perf_incremental",
        title: "Streaming fixture: sliding-window advances vs batch rebuilds",
        seed: 5,
        source: Source::Market {
            dims: ScaleDims {
                tiny: MarketDims::sliding(16, 378, 252),
                default_scale: MarketDims::sliding(40, 1008, 756),
                full: MarketDims::sliding(40, 1008, 756),
            },
            shape: MarketShape::Baseline,
        },
        discretizer: DiscretizerSpec::EquiDepthDeltas,
        windowing: WindowPolicy::Sliding { gaps: None },
        runs: &[
            GammaRun::perf("k3", 3),
            GammaRun::perf("k5", 5),
            GammaRun::perf("k8", 8),
        ],
    },
    ScenarioSpec {
        name: "perf_wide240",
        title: "Wide fixture: 240 tickers through the blocked flat kernels",
        seed: 5,
        source: Source::Market {
            dims: ScaleDims {
                tiny: MarketDims::batch(48, 252),
                default_scale: MarketDims::batch(240, 504),
                full: MarketDims::batch(240, 504),
            },
            shape: MarketShape::Baseline,
        },
        discretizer: DiscretizerSpec::EquiDepthDeltas,
        windowing: WindowPolicy::Batch,
        runs: &[
            GammaRun::preset("k3", 3),
            GammaRun::preset("k5", 5),
            GammaRun::preset("k8", 8),
        ],
    },
    ScenarioSpec {
        name: "perf_wide500",
        title: "Wide-universe fixture: 500 tickers at the WideDefault gammas",
        seed: 5,
        source: Source::Market {
            dims: ScaleDims {
                tiny: MarketDims::batch(96, 252),
                default_scale: MarketDims::batch(500, 504),
                full: MarketDims::batch(500, 504),
            },
            shape: MarketShape::Baseline,
        },
        discretizer: DiscretizerSpec::EquiDepthDeltas,
        windowing: WindowPolicy::Batch,
        runs: &[
            GammaRun::preset("k3", 3),
            GammaRun::preset("k5", 5),
            GammaRun::preset("k8", 8),
        ],
    },
    ScenarioSpec {
        name: "perf_serve",
        title: "Serve fixture: concurrent snapshot reads during live slides",
        seed: 11,
        source: Source::Market {
            dims: ScaleDims {
                tiny: MarketDims::sliding(12, 120, 60),
                default_scale: MarketDims::sliding(16, 240, 120),
                full: MarketDims::sliding(16, 240, 120),
            },
            shape: MarketShape::Baseline,
        },
        discretizer: DiscretizerSpec::EquiDepthDeltas,
        windowing: WindowPolicy::Sliding { gaps: None },
        runs: &[GammaRun {
            label: "k5",
            k: 5,
            gammas: Gammas::Fixed {
                edge: 1.20,
                hyper: 1.12,
            },
        }],
    },
    ScenarioSpec {
        name: "gene_expression",
        title: "Gene database (Tables 3.3-3.4): clusters + expression prediction",
        seed: 0,
        source: Source::Inline(&GENE_TABLE),
        discretizer: DiscretizerSpec::FixedCuts {
            cuts: &[334.0, 667.0],
            k: 3,
        },
        windowing: WindowPolicy::Batch,
        runs: &[GammaRun::C1],
    },
    ScenarioSpec {
        name: "patient_db",
        title: "Patient database (Tables 3.1-3.2): mva rules + edge list",
        seed: 0,
        source: Source::Inline(&PATIENT_TABLE),
        discretizer: DiscretizerSpec::FloorDiv {
            divisor: 10.0,
            k: 16,
        },
        windowing: WindowPolicy::Batch,
        runs: &[GammaRun::C1],
    },
    ScenarioSpec {
        name: "personal_interest",
        title: "Personal-Interest database (Tables 3.5-3.6): rules + similarity",
        seed: 0,
        source: Source::Inline(&INTEREST_TABLE),
        discretizer: DiscretizerSpec::FixedCuts {
            cuts: &[4.0, 8.0],
            k: 3,
        },
        windowing: WindowPolicy::Batch,
        runs: &[GammaRun::C1],
    },
    ScenarioSpec {
        name: "stress_heavy_tails",
        title: "Stress: Student-t(3) idiosyncratic noise (heavy-tailed deltas)",
        seed: 29,
        source: Source::Market {
            dims: ScaleDims {
                tiny: MarketDims::batch(16, 220),
                default_scale: MarketDims::batch(60, 756),
                full: MarketDims::batch(120, 1260),
            },
            shape: MarketShape::HeavyTails { df: 3 },
        },
        discretizer: DiscretizerSpec::EquiDepthDeltas,
        windowing: WindowPolicy::Batch,
        runs: &[GammaRun::C1],
    },
    ScenarioSpec {
        name: "stress_regime_shifts",
        title: "Stress: correlated calm/crisis regime shifts",
        seed: 31,
        source: Source::Market {
            dims: ScaleDims {
                tiny: MarketDims::batch(16, 300),
                default_scale: MarketDims::batch(60, 756),
                full: MarketDims::batch(120, 1512),
            },
            shape: MarketShape::RegimeShifts {
                calm_len: 120,
                crisis_len: 30,
                crisis_vol: 2.5,
                crisis_beta: 1.6,
                crisis_idio: 0.6,
            },
        },
        discretizer: DiscretizerSpec::EquiDepthDeltas,
        windowing: WindowPolicy::Batch,
        runs: &[GammaRun::C1],
    },
    ScenarioSpec {
        name: "stress_calendar_gaps",
        title: "Stress: calendar gaps driving retire-only window contraction",
        seed: 37,
        source: Source::Market {
            dims: ScaleDims {
                tiny: MarketDims::sliding(12, 160, 96),
                default_scale: MarketDims::sliding(40, 504, 252),
                full: MarketDims::sliding(80, 756, 378),
            },
            shape: MarketShape::Baseline,
        },
        discretizer: DiscretizerSpec::EquiDepthDeltas,
        windowing: WindowPolicy::Sliding {
            gaps: Some(GapSchedule { every: 21, len: 3 }),
        },
        runs: &[GammaRun::C1],
    },
    ScenarioSpec {
        name: "stress_crash_recovery",
        title: "Stress: scheduled writer kills + WAL recovery during live slides",
        seed: 43,
        source: Source::Market {
            dims: ScaleDims {
                tiny: MarketDims::sliding(12, 160, 96),
                default_scale: MarketDims::sliding(32, 504, 252),
                full: MarketDims::sliding(64, 756, 378),
            },
            shape: MarketShape::Baseline,
        },
        discretizer: DiscretizerSpec::EquiDepthDeltas,
        windowing: WindowPolicy::DurableSliding { kill_every: 17 },
        runs: &[GammaRun::C1],
    },
    // Stress shapes compose: [`MarketShape`] (the simulation's
    // statistics) and [`WindowPolicy`] gaps (the stream's calendar) are
    // orthogonal axes of a spec, so one scenario can exercise both —
    // heavy-tailed deltas sliding through a gapped calendar, the
    // adverse combination neither single-axis stress covers.
    ScenarioSpec {
        name: "stress_tails_with_gaps",
        title: "Stress: heavy-tailed deltas composed with calendar-gap contraction",
        seed: 41,
        source: Source::Market {
            dims: ScaleDims {
                tiny: MarketDims::sliding(12, 160, 96),
                default_scale: MarketDims::sliding(40, 504, 252),
                full: MarketDims::sliding(80, 756, 378),
            },
            shape: MarketShape::HeavyTails { df: 3 },
        },
        discretizer: DiscretizerSpec::EquiDepthDeltas,
        windowing: WindowPolicy::Sliding {
            gaps: Some(GapSchedule { every: 21, len: 3 }),
        },
        runs: &[GammaRun::C1],
    },
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_unique_and_findable() {
        for (i, s) in REGISTRY.iter().enumerate() {
            assert!(
                REGISTRY[..i].iter().all(|p| p.name != s.name),
                "duplicate scenario name {}",
                s.name
            );
            assert!(std::ptr::eq(find(s.name).unwrap(), s));
            assert!(!s.runs.is_empty(), "{} has no runs", s.name);
        }
        assert_eq!(find("no_such_scenario"), None);
    }

    #[test]
    fn required_scenarios_are_registered() {
        for name in [
            "paper_market",
            "perf_construction",
            "perf_incremental",
            "perf_wide240",
            "perf_wide500",
            "perf_serve",
            "gene_expression",
            "patient_db",
            "personal_interest",
            "stress_heavy_tails",
            "stress_regime_shifts",
            "stress_calendar_gaps",
            "stress_tails_with_gaps",
            "stress_crash_recovery",
        ] {
            assert!(find(name).is_some(), "{name} missing from REGISTRY");
        }
    }

    /// The composed stress scenario carries both axes at once — a
    /// non-baseline [`MarketShape`] *and* a gapped sliding window —
    /// and its simulation actually realizes the shape.
    #[test]
    fn stress_shapes_compose_in_one_spec() {
        let s = find("stress_tails_with_gaps").unwrap();
        match s.source {
            Source::Market { shape, .. } => {
                assert_eq!(shape, MarketShape::HeavyTails { df: 3 });
            }
            Source::Inline(_) => panic!("composed stress scenario is market-backed"),
        }
        match s.windowing {
            WindowPolicy::Sliding { gaps: Some(g) } => {
                assert_eq!(g, GapSchedule { every: 21, len: 3 });
            }
            other => panic!("expected gapped sliding windowing, got {other:?}"),
        }
        let m = s.simulate(RunScale::Tiny).unwrap();
        assert_eq!(m.n_days(), 160);
        assert!(m.crisis_days().is_empty(), "tails are not regimes");
        // Distinct seed from the single-axis stress scenarios: the
        // composed run is its own fixture, not a re-read of either.
        for other in ["stress_heavy_tails", "stress_calendar_gaps"] {
            assert_ne!(s.seed, find(other).unwrap().seed);
        }
    }

    #[test]
    fn sliding_scenarios_have_windows_and_room_to_slide() {
        for s in REGISTRY {
            if let WindowPolicy::Sliding { .. } | WindowPolicy::DurableSliding { .. } = s.windowing
            {
                for scale in [RunScale::Tiny, RunScale::Default, RunScale::Full] {
                    let d = s.dims(scale).expect("sliding scenarios are market-backed");
                    assert!(d.window > 0, "{} has no window at {:?}", s.name, scale);
                    assert!(
                        d.days - 1 > d.window,
                        "{} cannot slide at {:?}",
                        s.name,
                        scale
                    );
                }
            }
        }
    }

    /// The crash-recovery stress scenario kills often enough to recover
    /// several times per run at every scale.
    #[test]
    fn crash_recovery_scenario_kills_several_times_per_scale() {
        let s = find("stress_crash_recovery").unwrap();
        let WindowPolicy::DurableSliding { kill_every } = s.windowing else {
            panic!("stress_crash_recovery must use DurableSliding");
        };
        assert!(kill_every > 0);
        for scale in [RunScale::Tiny, RunScale::Default, RunScale::Full] {
            let d = s.dims(scale).expect("market-backed");
            let records = d.days - 1 - d.window;
            assert!(
                records / kill_every >= 3,
                "{:?} yields only {} kill points",
                scale,
                records / kill_every
            );
        }
    }

    #[test]
    fn inline_tables_are_square_and_rules_well_formed() {
        for s in REGISTRY {
            if let Source::Inline(t) = s.source {
                assert_eq!(t.attr_names.len(), 4);
                assert_eq!(t.rows.len(), 8);
                for r in t.rules {
                    assert!(!r.antecedent.is_empty());
                    for &(a, _) in r.antecedent {
                        assert!((a as usize) < t.attr_names.len());
                    }
                    assert!((r.consequent.0 as usize) < t.attr_names.len());
                    assert!(r.support.1 > 0 && r.confidence.1 > 0);
                }
            }
        }
    }

    #[test]
    fn paper_dims_match_the_published_scales() {
        assert_eq!(PAPER_DIMS.tiny.tickers, 30);
        assert_eq!(PAPER_DIMS.tiny.days, 2 * calendar::TRADING_DAYS_PER_YEAR);
        assert_eq!(PAPER_DIMS.default_scale.tickers, 120);
        assert_eq!(PAPER_DIMS.full.tickers, 346);
        assert_eq!(PAPER_DIMS.full.days, 15 * calendar::TRADING_DAYS_PER_YEAR);
    }

    #[test]
    fn simulate_respects_shape_and_seed() {
        let spec = find("stress_regime_shifts").unwrap();
        let m = spec.simulate(RunScale::Tiny).unwrap();
        assert_eq!(m.n_days(), 300);
        assert_eq!(m.universe().len(), 16);
        assert!(!m.crisis_days().is_empty());
        let baseline = find("perf_construction").unwrap();
        let b = baseline.simulate(RunScale::Tiny).unwrap();
        assert!(b.crisis_days().is_empty());
        assert!(find("gene_expression")
            .unwrap()
            .simulate(RunScale::Tiny)
            .is_none());
    }

    #[test]
    fn expected_summary_paths_are_stable() {
        assert_eq!(
            find("paper_market")
                .unwrap()
                .expected_summary(RunScale::Tiny),
            "replication/tiny/paper_market.json"
        );
    }

    #[test]
    fn gamma_runs_resolve_paper_and_preset_configs() {
        let c1 = GammaRun::C1.model_config(40);
        assert_eq!((c1.gamma_edge, c1.gamma_hyper), (1.15, 1.05));
        let c2 = GammaRun::C2.model_config(40);
        assert_eq!((c2.gamma_edge, c2.gamma_hyper), (1.20, 1.12));
        // Preset runs pick Exact below the wide crossover, WideDefault at it.
        let narrow = GammaRun::preset("k3", 3).model_config(240);
        assert_eq!((narrow.gamma_edge, narrow.gamma_hyper), (1.15, 1.05));
        let wide = GammaRun::preset("k3", 3).model_config(500);
        assert_eq!(
            (wide.gamma_edge, wide.gamma_hyper),
            GammaPreset::WideDefault.gammas()
        );
    }
}
