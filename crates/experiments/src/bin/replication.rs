//! One-command replication: runs every registered scenario, writes its
//! canonical JSON + markdown summaries, and diffs them against the
//! copies committed under `replication/` — exiting non-zero on drift.
//!
//! ```bash
//! # Regenerate every scenario at tiny scale and gate against the
//! # committed summaries (what CI runs):
//! cargo run --release --bin replication -- --scale tiny
//!
//! # Intentionally changed an output? Refresh the committed summaries:
//! cargo run --release --bin replication -- --scale tiny --update
//! ```
//!
//! Flags: `--scale tiny|default|full` (default `tiny`), `--only NAME`
//! (one scenario), `--update` (rewrite committed summaries instead of
//! diffing), `--dir PATH` (summary root, default the repository's
//! `replication/`), `--out PATH` (also copy generated summaries there,
//! for CI artifacts), `--list` (print registered scenarios and exit).

use hypermine_experiments::registry::{find, RunScale, ScenarioSpec, REGISTRY};
use hypermine_experiments::replicate::run_scenario;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

struct Args {
    scale: RunScale,
    only: Option<String>,
    update: bool,
    dir: PathBuf,
    out: Option<PathBuf>,
    list: bool,
}

fn default_dir() -> PathBuf {
    // crates/experiments -> repository root.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("replication")
}

fn parse_args() -> Args {
    let mut args = Args {
        scale: RunScale::Tiny,
        only: None,
        update: false,
        dir: default_dir(),
        out: None,
        list: false,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--scale" => match argv.next().as_deref().and_then(RunScale::parse) {
                Some(scale) => args.scale = scale,
                None => {
                    eprintln!("--scale needs tiny|default|full");
                    std::process::exit(2);
                }
            },
            "--only" => args.only = argv.next(),
            "--update" => args.update = true,
            "--dir" => match argv.next() {
                Some(d) => args.dir = PathBuf::from(d),
                None => {
                    eprintln!("--dir needs a path");
                    std::process::exit(2);
                }
            },
            "--out" => match argv.next() {
                Some(d) => args.out = Some(PathBuf::from(d)),
                None => {
                    eprintln!("--out needs a path");
                    std::process::exit(2);
                }
            },
            "--list" => args.list = true,
            other => {
                eprintln!("unknown argument {other}");
                eprintln!(
                    "usage: replication [--scale tiny|default|full] [--only NAME] \
                     [--update] [--dir PATH] [--out PATH] [--list]"
                );
                std::process::exit(2);
            }
        }
    }
    args
}

fn write_summary(dir: &Path, name: &str, json: &str, md: &str) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    std::fs::write(dir.join(format!("{name}.json")), json)?;
    std::fs::write(dir.join(format!("{name}.md")), md)?;
    Ok(())
}

/// Diffs one generated document against the committed file. Returns a
/// human-readable description of the drift, or `None` when identical.
fn diff_against(path: &Path, generated: &str) -> Option<String> {
    let committed = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(_) => {
            return Some(format!(
                "{} is missing (run with --update to create it)",
                path.display()
            ))
        }
    };
    if committed == generated {
        return None;
    }
    let mismatch = committed
        .lines()
        .zip(generated.lines())
        .enumerate()
        .find(|(_, (c, g))| c != g);
    Some(match mismatch {
        Some((line, (c, g))) => format!(
            "{} drifted at line {}:\n  committed: {c}\n  generated: {g}",
            path.display(),
            line + 1
        ),
        None => format!(
            "{} drifted in length ({} committed vs {} generated lines)",
            path.display(),
            committed.lines().count(),
            generated.lines().count()
        ),
    })
}

fn main() -> ExitCode {
    let args = parse_args();
    if args.list {
        println!("registered scenarios:");
        for spec in REGISTRY {
            println!("  {:<22} {}", spec.name, spec.title);
        }
        return ExitCode::SUCCESS;
    }

    let selected: Vec<&ScenarioSpec> = match args.only.as_deref() {
        Some(name) => match find(name) {
            Some(spec) => vec![spec],
            None => {
                eprintln!("unknown scenario {name:?}; registered scenarios are:");
                for spec in REGISTRY {
                    eprintln!("  {}", spec.name);
                }
                return ExitCode::from(2);
            }
        },
        None => REGISTRY.iter().collect(),
    };

    let scale_dir = args.dir.join(args.scale.name());
    let out_dir = args.out.as_ref().map(|o| o.join(args.scale.name()));
    let mut drift: Vec<String> = Vec::new();
    for spec in selected {
        let t0 = std::time::Instant::now();
        let summary = run_scenario(spec, args.scale);
        let json = summary.to_json();
        let md = summary.to_markdown();
        println!(
            "{:<22} {:>2} sections in {:?}",
            spec.name,
            summary.sections.len(),
            t0.elapsed()
        );
        if let Some(out) = &out_dir {
            if let Err(e) = write_summary(out, spec.name, &json, &md) {
                eprintln!("cannot write {}: {e}", out.display());
                return ExitCode::FAILURE;
            }
        }
        if args.update {
            if let Err(e) = write_summary(&scale_dir, spec.name, &json, &md) {
                eprintln!("cannot write {}: {e}", scale_dir.display());
                return ExitCode::FAILURE;
            }
            continue;
        }
        for (ext, generated) in [("json", &json), ("md", &md)] {
            let path = scale_dir.join(format!("{}.{ext}", spec.name));
            if let Some(d) = diff_against(&path, generated) {
                drift.push(d);
            }
        }
    }

    if args.update {
        println!("summaries updated under {}", scale_dir.display());
        return ExitCode::SUCCESS;
    }
    if drift.is_empty() {
        println!("all summaries match {}", scale_dir.display());
        ExitCode::SUCCESS
    } else {
        eprintln!("\nsummary drift detected ({} file(s)):", drift.len());
        for d in &drift {
            eprintln!("- {d}");
        }
        eprintln!(
            "\nif the change is intentional, refresh with: replication --scale tiny --update"
        );
        ExitCode::FAILURE
    }
}
