//! Ablation: OMT-cache size (Table 2 uses 64 entries).
//!
//! The OMT cache hides the 1000-cycle OMT walk on overlay-space misses.
//! Sequential scans keep only one overlay page live at a time, so this
//! microbenchmark interleaves overlay reads across blocks of 64 pages
//! (line 0 of every page, then line 1 of every page, …): the OMT
//! working set is exactly 64 entries, producing the knee at Table 2's
//! size. The five cache sizes run as shard-pool jobs.
//!
//! Usage: `cargo run --release -p po-bench --bin ablation_omt_cache
//! [--shards <n>]`

use po_bench::suite::run_jobs;
use po_bench::{Args, ResultTable, ShardPool};
use po_sim::{SystemConfig, TraceJob, TraceOp, WorkloadJob};
use po_types::geometry::{LINE_SIZE, PAGE_SIZE};
use po_types::{VirtAddr, Vpn};

const BASE_VPN: u64 = 0x8_0000;
const PAGES: u64 = 512;
const LINES_PER_PAGE_USED: u64 = 16;
const BLOCK: u64 = 64;

fn trace() -> Vec<TraceOp> {
    let mut ops = Vec::new();
    for block in 0..PAGES / BLOCK {
        for line in 0..LINES_PER_PAGE_USED {
            for p in 0..BLOCK {
                let vpn = BASE_VPN + block * BLOCK + p;
                ops.push(TraceOp::Load(VirtAddr::new(
                    vpn * PAGE_SIZE as u64 + line * LINE_SIZE as u64,
                )));
                ops.push(TraceOp::Compute(4));
            }
        }
    }
    ops
}

fn main() {
    let args = Args::from_env();
    let pool = ShardPool::from_args(&args);
    args.finish();
    let ops = trace();
    let seed_lines: Vec<(u64, usize, u8)> = (0..PAGES)
        .flat_map(|p| (0..LINES_PER_PAGE_USED).map(move |l| (p, l as usize, 1u8)))
        .collect();

    let sizes = [1usize, 4, 16, 64, 256];
    let jobs = sizes
        .iter()
        .enumerate()
        .map(|(i, &entries)| {
            let mut config = SystemConfig::table2_overlay();
            config.overlay.omt_cache_entries = entries;
            WorkloadJob::trace(
                i as u64,
                format!("omt_cache/{entries}"),
                config,
                TraceJob {
                    base_vpn: Vpn::new(BASE_VPN),
                    mapped_pages: PAGES,
                    shared_zero: true,
                    seed_lines: seed_lines.clone(),
                    ops: ops.clone(),
                },
            )
        })
        .collect();
    let results = run_jobs(&pool, jobs).expect("sweep failed");

    let mut table = ResultTable::new(
        "Ablation: OMT cache size (interleaved overlay reads, 64-page blocks)",
        &["omt_entries", "cycles", "omt_hit_rate", "vs_table2"],
    );
    let trace_of = |i: usize| results[i].outcome.as_trace().expect("trace job outcome");
    let table2_cycles =
        sizes.iter().position(|&e| e == 64).map(|i| trace_of(i).stats.cycles).expect("64 in sweep")
            as f64;
    for (i, &entries) in sizes.iter().enumerate() {
        let t = trace_of(i);
        table.row(&[
            &entries,
            &t.stats.cycles,
            &format!("{:.1}%", t.omt_cache_hit_rate * 100.0),
            &format!("{:+.1}%", (t.stats.cycles as f64 / table2_cycles - 1.0) * 100.0),
        ]);
    }
    table.print();
    println!("\n(Expected: a knee at 64 entries — the block working set; Table 2's choice.)");
    table.save_csv("ablation_omt_cache").expect("csv");
}
