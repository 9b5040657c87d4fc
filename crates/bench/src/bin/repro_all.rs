//! One-command reproduction: runs every quantitative experiment and
//! writes `bench_results/report.md` with the paper-vs-measured summary.
//!
//! The numbers come from [`po_bench::figures`], the same functions the
//! per-figure binaries print. All machine-driving work fans out over
//! the shared shard pool; every fork job records into a private
//! telemetry sink and the per-job streams are merged — ordered by
//! `(job, seq)` — into `bench_results/repro.events.jsonl` and
//! `repro.report.txt`. Both the report and the merged exports are
//! byte-identical at any `--shards` value; the `shard-determinism` CI
//! job diffs them.
//!
//! Usage: `cargo run --release -p po-bench --bin repro_all
//! [--post <instr>] [--warmup <instr>] [--scale <f>] [--seed <n>]
//! [--shards <n>]`
//!
//! (The per-figure binaries print the full tables; this target produces
//! the headline numbers in one pass — a few seconds at defaults.)

use po_bench::figures::{self, fork_suite, line_size_overheads, spmv_vs_csr};
use po_bench::{Args, ShardPool};
use po_sim::{hardware_cost, BackendKind, SystemConfig};
use po_telemetry::TelemetryMerge;
use std::fmt::Write as _;

/// Ring capacity of each fork job's private event journal.
const JOB_EVENT_CAPACITY: usize = 4096;

fn main() {
    let args = Args::from_env();
    let warmup_instr: u64 = args.get("warmup", figures::DEFAULT_WARMUP);
    let post_instr: u64 = args.get("post", figures::DEFAULT_POST);
    let scale: f64 = args.get("scale", figures::DEFAULT_SCALE);
    let seed: u64 = args.get("seed", figures::DEFAULT_SEED);
    let pool = ShardPool::from_args(&args);
    args.finish();

    let mut report = String::new();
    let w = &mut report;
    writeln!(w, "# page-overlays reproduction report\n").unwrap();
    writeln!(
        w,
        "Parameters: warmup={warmup_instr} post={post_instr} instructions, \
         sparse scale={scale}, seed={seed}.\n"
    )
    .unwrap();

    // ---- §4.5 hardware cost ------------------------------------------
    let cost = hardware_cost(&SystemConfig::table2());
    writeln!(
        w,
        "## §4.5 hardware cost\n\n\
         OMT cache {} B + TLB extension {} B + tag extension {} B = **{:.1} KB** \
         (paper: 94.5 KB).\n",
        cost.omt_cache_bytes,
        cost.tlb_extension_bytes,
        cost.tag_extension_bytes,
        cost.total_bytes() as f64 / 1024.0
    )
    .unwrap();

    // ---- Figures 8 & 9 ----------------------------------------------
    println!(
        "running the 15-benchmark fork experiment (Figures 8 & 9) on {} shard(s)…",
        pool.shards()
    );
    let fork = fork_suite(
        &pool,
        BackendKind::Overlay,
        warmup_instr,
        post_instr,
        seed,
        Some(JOB_EVENT_CAPACITY),
    )
    .expect("fork suite");
    let mut merge = TelemetryMerge::new();
    writeln!(w, "## Figures 8 & 9 — fork: CoW vs OoW\n").unwrap();
    writeln!(w, "| benchmark | type | mem oow/cow | cpi oow/cow |").unwrap();
    writeln!(w, "|---|---|---|---|").unwrap();
    for row in &fork.rows {
        merge.absorb(row.pair.cow.id, &row.pair.cow.telemetry);
        merge.absorb(row.pair.oow.id, &row.pair.oow.telemetry);
        writeln!(
            w,
            "| {} | {:?} | {:.3} | {:.3} |",
            row.pair.spec.name, row.pair.spec.wtype, row.mem_ratio, row.cpi_ratio
        )
        .unwrap();
    }
    writeln!(
        w,
        "\n**Measured:** OoW saves {:.0}% memory (paper: 53%) and runs {:.0}% faster \
         (paper: 15%).\n",
        (1.0 - fork.mem_geomean) * 100.0,
        (1.0 - fork.cpi_geomean) * 100.0
    )
    .unwrap();

    // ---- Figure 10 ----------------------------------------------------
    println!("running the 87-matrix SpMV sweep (Figure 10)…");
    let spmv = spmv_vs_csr(&pool, scale, seed).expect("SpMV timing");
    let hi = spmv.extreme();
    writeln!(
        w,
        "## Figure 10 — SpMV overlays vs CSR\n\n\
         Overlays beat CSR on **{}/{}** matrices (paper: 34/87); first win at \
         L = {:.2} (paper: ≈4.5). At L = {:.1}: **{:.0}% faster, {:.0}% less \
         memory** than CSR (paper raefsky4: 92% faster, 34% less).\n",
        spmv.wins,
        spmv.rows.len(),
        spmv.first_win_locality.unwrap_or(f64::NAN),
        hi.locality,
        (hi.perf_vs_csr - 1.0) * 100.0,
        (1.0 - hi.mem_vs_csr) * 100.0
    )
    .unwrap();

    // ---- Figure 11 -----------------------------------------------------
    println!("computing the line-size overhead sweep (Figure 11)…");
    let lines = line_size_overheads(scale, seed);
    writeln!(
        w,
        "## Figure 11 — storage granularity\n\n\
         Geomean overhead vs ideal: 64 B lines {:.1}x, 4 KB pages **{:.1}x** \
         (paper: 53x at page granularity; our scatter families reach {:.0}x).\n",
        lines.at(64).geomean,
        lines.at(4096).geomean,
        lines.worst_page_overhead()
    )
    .unwrap();

    std::fs::create_dir_all("bench_results").expect("mkdir");
    std::fs::write("bench_results/report.md", &report).expect("write report");
    std::fs::write("bench_results/repro.events.jsonl", merge.journal_jsonl())
        .expect("write events");
    std::fs::write(
        "bench_results/repro.report.txt",
        merge.run_report("repro_all fork suite (merged over jobs)"),
    )
    .expect("write telemetry report");
    println!("\n{report}");
    println!("report written to bench_results/report.md");
    println!("merged telemetry: bench_results/repro.events.jsonl, bench_results/repro.report.txt");
}
