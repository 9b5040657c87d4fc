//! `po_analyze` — the static-analysis driver.
//!
//! ```text
//! po_analyze trace  [--cow] [--cores N] [--oms-limit BYTES] [--frag-slack F]
//!                   [--crash-at N]... [--json] FILE...
//! po_analyze events [--json] FILE...
//! ```
//!
//! * `trace` — verify `.trace` files by replaying them through the
//!   simulation harness (PA-V000..V007).
//!   `--cow` verifies under the copy-on-write baseline config instead
//!   of the overlay config; `--oms-limit` arms the OMS-budget rule and
//!   `--frag-slack F` pads its peak-demand check by a fragmentation
//!   headroom fraction (e.g. `0.5` demands the budget cover 1.5× the
//!   peak — the §4.4.3 allocator strands freed bytes under churn);
//!   each `--crash-at N` arms the crash-point reachability rule for
//!   query index N; `--cores N` verifies against an N-core machine
//!   (timed ops then issue on the core `OnCore` selects, and PA-V007
//!   checks selectors against N).
//! * `events` — replay exported telemetry journals (`.jsonl`) through
//!   the happens-before concurrency verifier (PA-C000..PA-C006).
//!
//! Exit status: 0 when no finding reaches warn severity, 1 when one
//! does, 2 on usage or I/O errors.

use po_analyze::verifier::{analyze_jsonl, verify_trace_text, VerifierOptions};
use po_analyze::{Report, Severity};
use po_sim::SystemConfig;
use std::path::PathBuf;
use std::process::ExitCode;

struct Cli {
    command: String,
    json: bool,
    cow: bool,
    oms_limit: Option<u64>,
    frag_slack: f64,
    crash_at: Vec<u64>,
    cores: Option<usize>,
    files: Vec<PathBuf>,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: po_analyze trace  [--cow] [--cores N] [--oms-limit BYTES] [--frag-slack F] \
         [--crash-at N]... [--json] FILE...\n\
         \x20      po_analyze events [--json] FILE..."
    );
    ExitCode::from(2)
}

fn parse_args(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        command: args.first().cloned().ok_or("missing command")?,
        json: false,
        cow: false,
        oms_limit: None,
        frag_slack: 0.0,
        crash_at: Vec::new(),
        cores: None,
        files: Vec::new(),
    };
    if !matches!(cli.command.as_str(), "trace" | "events") {
        return Err(format!("unknown command {}", cli.command));
    }
    let mut it = args[1..].iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--json" => cli.json = true,
            "--cow" => cli.cow = true,
            "--oms-limit" => {
                let v = it.next().ok_or("--oms-limit needs a value")?;
                cli.oms_limit = Some(v.parse().map_err(|_| format!("bad --oms-limit {v}"))?);
            }
            "--frag-slack" => {
                let v = it.next().ok_or("--frag-slack needs a value")?;
                cli.frag_slack = v.parse().map_err(|_| format!("bad --frag-slack {v}"))?;
                if !cli.frag_slack.is_finite() || cli.frag_slack < 0.0 {
                    return Err(format!("--frag-slack must be a finite fraction ≥ 0, got {v}"));
                }
            }
            "--crash-at" => {
                let v = it.next().ok_or("--crash-at needs a value")?;
                cli.crash_at.push(v.parse().map_err(|_| format!("bad --crash-at {v}"))?);
            }
            "--cores" => {
                let v = it.next().ok_or("--cores needs a value")?;
                let n: usize = v.parse().map_err(|_| format!("bad --cores {v}"))?;
                if n == 0 {
                    return Err("--cores must be at least 1".to_string());
                }
                cli.cores = Some(n);
            }
            f if !f.starts_with('-') => cli.files.push(PathBuf::from(f)),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if cli.files.is_empty() {
        return Err(format!("{} needs at least one FILE", cli.command));
    }
    Ok(cli)
}

/// Verifies one trace under the configuration `cli` asks for.
fn verify_trace(cli: &Cli, text: &str, label: &str) -> Report {
    let mut config = if cli.cow { SystemConfig::table2() } else { SystemConfig::table2_overlay() };
    if let Some(n) = cli.cores {
        config.cores = n;
    }
    let opts = VerifierOptions {
        oms_limit: cli.oms_limit,
        frag_slack: cli.frag_slack,
        crash_queries: cli.crash_at.clone(),
    };
    verify_trace_text(&config, text, &opts, label).report
}

fn run(cli: &Cli) -> Result<Report, String> {
    let mut report = Report::new();
    for f in &cli.files {
        let text =
            std::fs::read_to_string(f).map_err(|e| format!("cannot read {}: {e}", f.display()))?;
        let label = f.display().to_string();
        report.extend(if cli.command == "trace" {
            verify_trace(cli, &text, &label)
        } else {
            analyze_jsonl(&text, &label)
        });
    }
    report.sort();
    Ok(report)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_args(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("po_analyze: {e}");
            return usage();
        }
    };
    match run(&cli) {
        Ok(report) => {
            if cli.json {
                print!("{}", report.to_json());
            } else {
                print!("{}", report.to_human());
            }
            if report.clean_at(Severity::Warn) {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("po_analyze: {e}");
            ExitCode::from(2)
        }
    }
}
