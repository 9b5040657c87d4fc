//! Extension experiment: *periodic* fork checkpointing (§5.1's
//! motivating scenario run to steady state).
//!
//! The paper measures one post-fork interval; this extension runs many:
//! each interval forks a fresh checkpoint child, the parent keeps
//! mutating, and overlays are committed at the next fork (the
//! checkpoint-commit of §5.3.2). Reported: steady-state CPI, peak
//! per-interval extra memory, and total copy/overlay volume for CoW vs
//! OoW. The benchmark/mode grid runs as shard-pool jobs.
//!
//! Usage: `cargo run --release -p po-bench --bin ext_periodic_checkpoint
//! [--intervals <n>] [--interval-instr <instr>] [--shards <n>]`

use po_bench::suite::run_jobs;
use po_bench::{human_bytes, Args, ResultTable, ShardPool};
use po_sim::{SystemConfig, WorkloadJob};
use po_workloads::spec_suite;

fn main() {
    let args = Args::from_env();
    let intervals: u64 = args.get("intervals", 8);
    let interval_instr: u64 = args.get("interval-instr", 200_000);
    let seed: u64 = args.get("seed", 42);
    let pool = ShardPool::from_args(&args);
    args.finish();

    let names = ["sphinx3", "lbm", "mcf"];
    let modes = [("cow", SystemConfig::table2()), ("oow", SystemConfig::table2_overlay())];
    let mut jobs = Vec::with_capacity(names.len() * modes.len());
    for (b, name) in names.iter().enumerate() {
        let spec = spec_suite().into_iter().find(|s| &s.name == name).expect("known benchmark");
        let mapped = spec.mapped_pages(interval_instr * intervals);
        let warmup = spec.generate_warmup(interval_instr, seed);
        let interval = spec.generate_post_fork(interval_instr, seed);
        for (m, (mode, config)) in modes.iter().enumerate() {
            jobs.push(
                WorkloadJob::periodic_checkpoint(
                    (b * modes.len() + m) as u64,
                    format!("checkpoint/{name}/{mode}"),
                    config.clone(),
                    spec.base_vpn(),
                    mapped,
                    warmup.clone(),
                    interval.clone(),
                    intervals,
                )
                .with_seed(seed),
            );
        }
    }
    let results = run_jobs(&pool, jobs).expect("periodic run");

    let mut table = ResultTable::new(
        "Extension: periodic fork checkpointing (steady state)",
        &["benchmark", "mode", "cpi", "peak_extra_mem", "pages_copied", "ovl_writes"],
    );
    for (b, name) in names.iter().enumerate() {
        for (m, (mode, _)) in modes.iter().enumerate() {
            let r = results[b * modes.len() + m]
                .outcome
                .as_periodic_checkpoint()
                .expect("checkpoint job outcome");
            table.row(&[
                name,
                mode,
                &format!("{:.3}", r.cpi),
                &human_bytes(r.peak_extra_memory_bytes),
                &r.pages_copied,
                &r.overlaying_writes,
            ]);
        }
    }
    table.print();
    println!(
        "\n({} intervals of {} instructions each. OoW's advantages persist in steady \
         state: every interval re-diverges through overlays, which are committed at \
         the next checkpoint fork.)",
        intervals, interval_instr
    );
    table.save_csv("ext_periodic_checkpoint").expect("csv");
}
