//! Ablation: fine-grained segments vs page-per-overlay storage.
//!
//! §4.4 notes the memory controller *could* "use a full physical page
//! to store each overlay — forgoing the memory capacity benefit". This
//! ablation reruns the Figure 8 memory measurement for the Type 3
//! workloads with the full segment set (256 B…4 KB) against the
//! page-per-overlay fallback, as fine/coarse job pairs on the shard
//! pool.
//!
//! Usage: `cargo run --release -p po-bench --bin ablation_segments
//! [--shards <n>]`

use po_bench::suite::{fork_job, run_jobs};
use po_bench::{human_bytes, Args, ResultTable, ShardPool};
use po_overlay::SegmentClass;
use po_sim::SystemConfig;
use po_workloads::{spec_suite, WorkloadType};

fn main() {
    let args = Args::from_env();
    let warmup_instr: u64 = args.get("warmup", 300_000);
    let post_instr: u64 = args.get("post", 500_000);
    let seed: u64 = args.get("seed", 42);
    let pool = ShardPool::from_args(&args);
    args.finish();

    let specs: Vec<_> =
        spec_suite().into_iter().filter(|s| s.wtype == WorkloadType::SparsePages).collect();
    let mut jobs = Vec::with_capacity(specs.len() * 2);
    for (i, spec) in specs.iter().enumerate() {
        jobs.push(fork_job(
            2 * i as u64,
            format!("segments/{}/fine", spec.name),
            SystemConfig::table2_overlay(),
            spec,
            warmup_instr,
            post_instr,
            seed,
        ));
        let mut coarse_cfg = SystemConfig::table2_overlay();
        coarse_cfg.overlay.min_segment_class = SegmentClass::K4;
        jobs.push(fork_job(
            2 * i as u64 + 1,
            format!("segments/{}/coarse", spec.name),
            coarse_cfg,
            spec,
            warmup_instr,
            post_instr,
            seed,
        ));
    }
    let results = run_jobs(&pool, jobs).expect("runs failed");

    let mut table = ResultTable::new(
        "Ablation: OMS segment granularity (extra memory after fork, Type 3)",
        &["benchmark", "fine_segments", "page_per_overlay", "ratio"],
    );
    for (i, spec) in specs.iter().enumerate() {
        let fine = results[2 * i].outcome.as_fork().expect("fork job outcome");
        let coarse = results[2 * i + 1].outcome.as_fork().expect("fork job outcome");
        table.row(&[
            &spec.name,
            &human_bytes(fine.extra_memory_bytes),
            &human_bytes(coarse.extra_memory_bytes),
            &format!(
                "{:.2}x",
                coarse.extra_memory_bytes as f64 / fine.extra_memory_bytes.max(1) as f64
            ),
        ]);
    }
    table.print();
    println!(
        "\n(Expected: page-per-overlay storage costs several times more memory for \
         sparse writers, while still beating CoW on work — the trade-off §4.4 describes.)"
    );
    table.save_csv("ablation_segments").expect("csv");
}
