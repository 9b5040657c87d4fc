//! CI performance ratchet over `bench_results/summary.json`.
//!
//! Re-measures every summarized workload with the same deterministic
//! parameters the checked-in snapshot was produced with, and compares
//! cycle counts per workload against the baseline:
//!
//! * a workload whose cycles grew more than the tolerance (default 5%)
//!   **fails** the ratchet,
//! * a workload present in the baseline but no longer measured fails
//!   too (lost coverage is a regression),
//! * a workload new since the baseline is reported but passes — it is
//!   gated once the baseline is re-committed.
//!
//! An intentional slowdown is committed by regenerating the baseline
//! (`cargo run --release -p po-bench --bin summary_json`) in the same
//! change that causes it, so the diff carries the price tag.
//!
//! The ratchet also holds a **fragmentation ceiling**: a fixed seeded
//! churn stream (the `po_soak` generator) replayed through the full
//! differential harness must end with the OMS fragmentation ratio
//! under `--frag-ceiling` (default 0.5) — §4.4.2 compaction keeps long
//! churn off the fragmentation wall, and this line fails if it stops
//! doing so, independent of cycle counts.
//!
//! ```text
//! perf_ratchet [--baseline PATH] [--tolerance PCT]
//!              [--warmup <instr>] [--post <instr>] [--seed <n>]
//!              [--frag-ceiling F]
//! ```
//!
//! Exits 0 when the ratchet holds, 1 on regression, 2 when the
//! baseline is missing or unreadable.

use po_bench::{summary, Args, ShardPool};
use po_sim::{generate_soak_ops, run_job, SystemConfig, WorkloadJob};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args = Args::from_env();
    let baseline_path: String = args.get("baseline", "bench_results/summary.json".to_string());
    let tolerance: f64 = args.get("tolerance", 5.0);
    let warmup_instr: u64 = args.get("warmup", 40_000);
    let post_instr: u64 = args.get("post", 60_000);
    let seed: u64 = args.get("seed", 42);
    let frag_ceiling: f64 = args.get("frag-ceiling", 0.5);
    args.finish();

    let baseline_text = match std::fs::read_to_string(&baseline_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("perf_ratchet: cannot read {baseline_path}: {e}");
            return ExitCode::from(2);
        }
    };
    let baseline = match summary::parse_cycles(&baseline_text) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("perf_ratchet: {baseline_path} is not a summary snapshot: {e}");
            return ExitCode::from(2);
        }
    };

    // Simulated cycles are shard-invariant, but the ratchet measures at
    // one shard anyway so its numbers never depend on host parallelism.
    let rows = match summary::collect(&ShardPool::serial(), warmup_instr, post_instr, seed) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perf_ratchet: measurement failed: {e}");
            return ExitCode::from(2);
        }
    };

    let report = summary::compare(&baseline, &rows, tolerance);
    println!("perf ratchet vs {baseline_path} (tolerance {tolerance}%):");
    for l in &report.lines {
        let verdict = if l.regressed { "REGRESSED" } else { "ok" };
        match (l.baseline, l.current, l.delta_pct) {
            (Some(b), Some(c), Some(d)) => {
                println!("  {:<16} {b:>8} -> {c:>8} cycles ({d:+.2}%)  {verdict}", l.workload);
            }
            (Some(b), None, _) => {
                println!("  {:<16} {b:>8} -> (not measured)  {verdict}", l.workload);
            }
            (None, Some(c), _) => {
                println!("  {:<16} (new) -> {c:>8} cycles  {verdict}", l.workload);
            }
            _ => unreachable!("a ratchet line always has at least one side"),
        }
    }
    println!("geomean cycle ratio current/baseline: {:.4}", report.geomean_ratio);

    let soak_ops = generate_soak_ops(seed, 1500);
    let soak = WorkloadJob::soak(
        0,
        "ratchet-churn".to_string(),
        SystemConfig::table2_overlay(),
        soak_ops,
        frag_ceiling,
    )
    .with_seed(seed);
    let frag_ok = match run_job(soak) {
        Ok(result) => match result.outcome.as_soak() {
            Some(s) => {
                let verdict = match &s.verdict {
                    Ok(()) => "ok".to_string(),
                    Err(e) => format!("FAIL: {e}"),
                };
                println!(
                    "fragmentation ratchet: churn frag={:.3} (ceiling {frag_ceiling:.3}), \
                     {} compaction passes  {verdict}",
                    s.final_fragmentation, s.compaction_passes,
                );
                s.verdict.is_ok()
            }
            None => false,
        },
        Err(e) => {
            eprintln!("perf_ratchet: churn replay died: {e:?}");
            false
        }
    };

    if report.pass() && frag_ok {
        println!("ratchet holds: no workload regressed beyond {tolerance}%");
        ExitCode::SUCCESS
    } else {
        let n = report.lines.iter().filter(|l| l.regressed).count();
        if n > 0 {
            eprintln!(
                "perf_ratchet: {n} workload(s) regressed beyond {tolerance}% — if intentional, \
                 regenerate the baseline with summary_json and commit it with the cause"
            );
        }
        if !frag_ok {
            eprintln!(
                "perf_ratchet: the churn stream breached the {frag_ceiling:.3} fragmentation \
                 ceiling (or failed outright) — compaction has regressed"
            );
        }
        ExitCode::from(1)
    }
}
