//! Figure 8: additional memory consumed after a fork — copy-on-write vs
//! overlay-on-write, across the 15 workloads.
//!
//! Usage: `cargo run --release -p po-bench --bin fig8_fork_memory
//! [--backend <overlay|seg>] [--post <instr>] [--warmup <instr>]
//! [--seed <n>] [--shards <n>]`
//!
//! The paper runs 200 M warmup + 300 M post-fork instructions; defaults
//! here are scaled down 500x (the generators are rate-parameterized, so
//! the CoW/OoW ratio — the paper's 53% mean reduction — is stable under
//! scaling; see DESIGN.md §5). The 30 runs go through the shared shard
//! pool; the table is identical at any `--shards`. The numbers come
//! from [`po_bench::figures::fork_suite`].
//!
//! `--backend` picks the address-translation backend for *both*
//! halves of every pair: on `seg` (no overlay support) the OoW half
//! degrades to classic CoW and the reduction collapses toward 0% —
//! the comparative-lab control run.

use po_bench::figures::{self, fork_suite};
use po_bench::{human_bytes, Args, ResultTable, ShardPool};
use po_sim::BackendKind;

fn main() {
    let args = Args::from_env();
    let warmup_instr: u64 = args.get("warmup", figures::DEFAULT_WARMUP);
    let post_instr: u64 = args.get("post", figures::DEFAULT_POST);
    let seed: u64 = args.get("seed", figures::DEFAULT_SEED);
    let backend: BackendKind = args.get("backend", BackendKind::Overlay);
    let pool = ShardPool::from_args(&args);
    args.finish();

    let fig = fork_suite(&pool, backend, warmup_instr, post_instr, seed, None)
        .expect("fork suite failed");

    let mut table = ResultTable::new(
        &format!("Figure 8: additional memory after fork (CoW vs OoW, backend: {backend})"),
        &["benchmark", "type", "cow", "oow", "oow/cow"],
    );
    for row in &fig.rows {
        let (cow, oow) = (row.pair.cow(), row.pair.oow());
        table.row(&[
            &row.pair.spec.name,
            &format!("{:?}", row.pair.spec.wtype),
            &human_bytes(cow.extra_memory_bytes),
            &human_bytes(oow.extra_memory_bytes),
            &format!("{:.3}", row.mem_ratio),
        ]);
    }
    let n = fig.rows.len() as u64;
    table.row(&[
        &"mean",
        &"-",
        &human_bytes(fig.rows.iter().map(|r| r.pair.cow().extra_memory_bytes).sum::<u64>() / n),
        &human_bytes(fig.rows.iter().map(|r| r.pair.oow().extra_memory_bytes).sum::<u64>() / n),
        &format!("{:.3}", fig.mem_geomean),
    ]);
    table.print();
    println!(
        "\nOverlay-on-write uses {:.0}% less additional memory than copy-on-write \
         (geomean; paper: 53% average reduction).",
        (1.0 - fig.mem_geomean) * 100.0
    );
    let csv_name = match backend {
        BackendKind::Overlay => "fig8_fork_memory".to_string(),
        other => format!("fig8_fork_memory_{other}"),
    };
    let path = table.save_csv(&csv_name).expect("csv");
    println!("CSV written to {}", path.display());
}
