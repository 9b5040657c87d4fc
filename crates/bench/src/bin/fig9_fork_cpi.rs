//! Figure 9: cycles-per-instruction of the post-fork window (lower is
//! better) — copy-on-write vs overlay-on-write across the 15 workloads.
//!
//! Usage: `cargo run --release -p po-bench --bin fig9_fork_cpi
//! [--post <instr>] [--warmup <instr>] [--seed <n>] [--shards <n>]`
//!
//! Expected shape (paper §5.1): Type 1 shows no difference; Type 2 OoW
//! wins except `cactus` (tight write bursts favor CoW's high-MLP page
//! copy); Type 3 OoW wins clearly; ~15% mean performance improvement.
//! Runs go through the shared shard pool; simulated cycles do not
//! depend on `--shards`. The numbers come from
//! [`po_bench::figures::fork_suite`].

use po_bench::figures::{self, fork_suite};
use po_bench::{Args, ResultTable, ShardPool};
use po_sim::BackendKind;

fn main() {
    let args = Args::from_env();
    let warmup_instr: u64 = args.get("warmup", figures::DEFAULT_WARMUP);
    let post_instr: u64 = args.get("post", figures::DEFAULT_POST);
    let seed: u64 = args.get("seed", figures::DEFAULT_SEED);
    let pool = ShardPool::from_args(&args);
    args.finish();

    let fig = fork_suite(&pool, BackendKind::Overlay, warmup_instr, post_instr, seed, None)
        .expect("fork suite failed");

    let mut table = ResultTable::new(
        "Figure 9: CPI after fork (lower is better)",
        &["benchmark", "type", "cow_cpi", "oow_cpi", "oow/cow", "pages_copied", "ovl_writes"],
    );
    for row in &fig.rows {
        let (cow, oow) = (row.pair.cow(), row.pair.oow());
        table.row(&[
            &row.pair.spec.name,
            &format!("{:?}", row.pair.spec.wtype),
            &format!("{:.3}", cow.cpi),
            &format!("{:.3}", oow.cpi),
            &format!("{:.3}", row.cpi_ratio),
            &cow.pages_copied,
            &oow.overlaying_writes,
        ]);
    }
    table.row(&[&"mean", &"-", &"-", &"-", &format!("{:.3}", fig.cpi_geomean), &"-", &"-"]);
    table.print();
    println!(
        "\nOverlay-on-write improves post-fork performance by {:.0}% \
         (geomean CPI ratio; paper: 15% average improvement).",
        (1.0 - fig.cpi_geomean) * 100.0
    );
    let path = table.save_csv("fig9_fork_cpi").expect("csv");
    println!("CSV written to {}", path.display());
}
