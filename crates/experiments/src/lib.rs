//! The experiment harness: regenerates every table and figure of the
//! paper's Chapter 5 evaluation on the synthetic S&P 500 market.
//!
//! One module per artifact:
//!
//! | Module | Paper artifact |
//! |---|---|
//! | [`config_stats`] | Section 5.1.2 edge counts / mean ACVs for C1, C2 |
//! | [`table_5_1`] | Table 5.1 — top directed edge & 2-to-1 hyperedge per subject |
//! | [`table_5_2`] | Table 5.2 — hyperedge vs constituent directed edges |
//! | [`dominator_tables`] | Tables 5.3 & 5.4 — dominators + classifier comparison |
//! | [`fig_5_1`] | Figure 5.1 — weighted degree distributions |
//! | [`fig_5_2`] | Figure 5.2 — association vs Euclidean similarity |
//! | [`fig_5_3`] | Figure 5.3 — t-clustering of all series |
//! | [`fig_5_4`] | Figure 5.4 — expanding-window classification confidence |
//!
//! [`paper`] holds the paper's reported numbers for side-by-side output;
//! the summaries committed under `replication/` (written by [`replicate`],
//! diffed by the `replication` binary) record what the models find for
//! every registered scenario at its pinned seed. The `report` binary runs
//! everything:
//!
//! ```bash
//! cargo run --release -p hypermine-experiments --bin report -- --scale default
//! ```

pub mod baselines;
pub mod config_stats;
pub mod dominator_tables;
pub mod fig_5_1;
pub mod fig_5_2;
pub mod fig_5_3;
pub mod fig_5_4;
pub mod gamma_sweep;
pub mod paper;
pub mod registry;
pub mod replicate;
pub mod scenario;
pub mod table_5_1;
pub mod table_5_2;

pub use registry::{RunScale, ScenarioSpec, REGISTRY};
pub use replicate::{paper_database, run_scenario, ScenarioSummary};
pub use scenario::{BuiltConfig, Configuration, Scale, Scenario};
