//! Ablation: overlay-promotion threshold (§4.3.4).
//!
//! "When using overlay-on-write, if most of the cache lines within a
//! virtual page are modified, maintaining them in an overlay does not
//! provide any advantage." This sweep varies the line-count threshold
//! at which an overlay is promoted (copy-and-commit) to a private page,
//! on the densest Type 2 workload (lbm, 64 lines per dirty page). The
//! six thresholds run as shard-pool jobs.
//!
//! Usage: `cargo run --release -p po-bench --bin ablation_promotion
//! [--shards <n>]`

use po_bench::suite::{fork_job, run_jobs};
use po_bench::{human_bytes, Args, ResultTable, ShardPool};
use po_sim::SystemConfig;
use po_workloads::spec_suite;

fn main() {
    let args = Args::from_env();
    let warmup_instr: u64 = args.get("warmup", 300_000);
    let post_instr: u64 = args.get("post", 500_000);
    let seed: u64 = args.get("seed", 42);
    let pool = ShardPool::from_args(&args);
    args.finish();

    let spec = spec_suite().into_iter().find(|s| s.name == "lbm").expect("lbm exists");
    let thresholds = [8usize, 16, 32, 48, 64, 65];
    let jobs = thresholds
        .iter()
        .enumerate()
        .map(|(i, &threshold)| {
            let mut config = SystemConfig::table2_overlay();
            config.promote_threshold = threshold;
            fork_job(
                i as u64,
                format!("promotion/{threshold}"),
                config,
                &spec,
                warmup_instr,
                post_instr,
                seed,
            )
        })
        .collect();
    let results = run_jobs(&pool, jobs).expect("sweep failed");

    let mut table = ResultTable::new(
        "Ablation: promotion threshold (lbm, full-page writer)",
        &["threshold", "cpi", "extra_memory", "ovl_writes"],
    );
    for (&threshold, result) in thresholds.iter().zip(&results) {
        let r = result.outcome.as_fork().expect("fork job outcome");
        table.row(&[
            &(if threshold > 64 { "never".to_string() } else { threshold.to_string() }),
            &format!("{:.3}", r.cpi),
            &human_bytes(r.extra_memory_bytes),
            &r.overlaying_writes,
        ]);
    }
    table.print();
    println!(
        "\n(Expected: aggressive promotion (low thresholds) pays page copies like CoW; \
         never-promote keeps full-page overlays in 4 KB segments — same memory, \
         no copy. The paper leaves the policy to the system; Table 2 runs use 64.)"
    );
    table.save_csv("ablation_promotion").expect("csv");
}
