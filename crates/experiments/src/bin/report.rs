//! Regenerates every table and figure of the paper's evaluation.
//!
//! Usage: `report [--scale tiny|default|full] [--seed N] [--only SECTION]`.
//! Sections are enumerated from the scenario registry
//! (`registry::REPORT_SECTIONS`); run `report --only help` to list them.
//! The market, its per-scale dimensions, and the default seed come from
//! the registry's `paper_market` scenario, so `report` reproduces exactly
//! what the `replication` binary gates.

use hypermine_experiments::baselines::BaselineConfig;
use hypermine_experiments::dominator_tables::{dominator_table, DominatorAlgorithm};
use hypermine_experiments::registry::{self, RunScale, REPORT_SECTIONS};
use hypermine_experiments::{
    config_stats, fig_5_1, fig_5_2, fig_5_3, fig_5_4, table_5_1, table_5_2, Configuration, Scale,
    Scenario,
};
use std::time::Instant;

/// Prints the registry-sourced section list (the `--only` domain).
fn print_sections(to_stderr: bool) {
    for (name, description) in REPORT_SECTIONS {
        let line = format!("  {name:<6} {description}");
        if to_stderr {
            eprintln!("{line}");
        } else {
            println!("{line}");
        }
    }
}

fn parse_args() -> (Scale, u64, Option<String>) {
    let spec = registry::find("paper_market").expect("paper_market is registered");
    let mut scale = Scale::default_scale();
    let mut seed = spec.seed;
    let mut only = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scale" => match args.next().as_deref().and_then(RunScale::parse) {
                Some(s) => scale = Scale::at(s),
                None => {
                    eprintln!("unknown scale (tiny|default|full)");
                    std::process::exit(2);
                }
            },
            "--seed" => {
                seed = args.next().and_then(|s| s.parse().ok()).unwrap_or_else(|| {
                    eprintln!("--seed needs an integer");
                    std::process::exit(2);
                });
            }
            "--only" => {
                let section = args.next().unwrap_or_else(|| {
                    eprintln!("--only needs a section; valid sections:");
                    print_sections(true);
                    std::process::exit(2);
                });
                if section == "help" {
                    println!("report sections:");
                    print_sections(false);
                    std::process::exit(0);
                }
                if !REPORT_SECTIONS.iter().any(|(name, _)| *name == section) {
                    eprintln!("unknown section {section:?}; valid sections:");
                    print_sections(true);
                    std::process::exit(2);
                }
                only = Some(section);
            }
            other => {
                eprintln!("unknown argument {other}");
                std::process::exit(2);
            }
        }
    }
    (scale, seed, only)
}

/// One line per built model: edge count, the counting-kernel tier the
/// build engaged (wide universes degrade to `flat_u32` — visibly, not
/// silently), the SIMD level runtime detection resolved, and the
/// hypergraph's resident bytes.
fn log_build(t0: &Instant, name: &str, model: &hypermine_core::AssociationModel) {
    let mem = model.hypergraph().memory();
    println!(
        "[{:?}] {name} model built: {} edges (kernel {}, simd {}, graph {:.1} MiB)",
        t0.elapsed(),
        model.hypergraph().num_edges(),
        model.kernel_path(),
        model.simd_level(),
        mem.total_bytes() as f64 / (1024.0 * 1024.0),
    );
}

fn main() {
    let (scale, seed, only) = parse_args();
    let t0 = Instant::now();
    println!(
        "== hypermine report: {} tickers, {} years, seed {seed} ==\n",
        scale.tickers, scale.years
    );

    let scenario = Scenario::new(scale, seed);
    let c1 = scenario.build(&Configuration::c1());
    log_build(&t0, "C1", &c1.model);
    let c2 = scenario.build(&Configuration::c2());
    log_build(&t0, "C2", &c2.model);
    println!();

    let baseline_cfg = BaselineConfig::default();
    let fractions = [0.4, 0.3, 0.2];
    // Dispatch each registry section in declared order; `--only` (already
    // validated against the registry) restricts to one.
    for (section, description) in REPORT_SECTIONS {
        if only.as_deref().is_some_and(|o| o != *section) {
            continue;
        }
        match *section {
            "stats" => {
                println!("---- {description} ----");
                println!("{}", config_stats::config_stats(&c1));
                println!("{}", config_stats::config_stats(&c2));
            }
            "t51" => {
                println!("---- {description} ----");
                for built in [&c1, &c2] {
                    for row in table_5_1::table_5_1(built, scenario.market.universe()) {
                        println!("{row}");
                    }
                }
                println!();
            }
            "t52" => {
                println!("---- {description} ----");
                for built in [&c1, &c2] {
                    let rows = table_5_2::table_5_2(built);
                    let wins = rows.iter().filter(|r| r.hyperedge_wins()).count();
                    for row in &rows {
                        println!("{row}");
                    }
                    println!(
                        "  -> hyperedge beats both constituents in {wins}/{} rows",
                        rows.len()
                    );
                }
                println!();
            }
            "t53" => {
                println!("---- {description} ----");
                for built in [&c1, &c2] {
                    for row in dominator_table(
                        built,
                        DominatorAlgorithm::DominatingSet,
                        &fractions,
                        &baseline_cfg,
                    ) {
                        println!("{row}");
                    }
                }
                println!("[{:?}]\n", t0.elapsed());
            }
            "t54" => {
                println!("---- {description} ----");
                for built in [&c1, &c2] {
                    for row in dominator_table(
                        built,
                        DominatorAlgorithm::SetCover,
                        &fractions,
                        &baseline_cfg,
                    ) {
                        println!("{row}");
                    }
                }
                println!("[{:?}]\n", t0.elapsed());
            }
            "f51" => println!(
                "{}",
                fig_5_1::degree_report(&c1, scenario.market.universe())
            ),
            "f52" => println!("{}", fig_5_2::similarity_report(&scenario, &c1, 2000)),
            "f53" => println!(
                "{}",
                fig_5_3::cluster_report(&c1, scenario.market.universe())
            ),
            "f54" => {
                for report in [
                    fig_5_4::expanding_windows(&scenario, DominatorAlgorithm::DominatingSet, 0.4),
                    fig_5_4::expanding_windows(&scenario, DominatorAlgorithm::SetCover, 0.4),
                ] {
                    println!("{report}");
                }
            }
            other => unreachable!("unhandled registry section {other}"),
        }
    }

    println!("== done in {:?} ==", t0.elapsed());
}
