//! Ablation: instruction-window size.
//!
//! Overlay-on-write wins partly because its per-line latencies hide in
//! the out-of-order window, while copy-on-write's page copy is one big
//! synchronous stall. A smaller window should therefore *shrink*
//! overlay-on-write's advantage. This sweep reruns the mcf fork
//! experiment across window sizes, as CoW/OoW job pairs on the shard
//! pool.
//!
//! Usage: `cargo run --release -p po-bench --bin ablation_window
//! [--shards <n>]`

use po_bench::suite::{fork_job, run_jobs};
use po_bench::{Args, ResultTable, ShardPool};
use po_sim::SystemConfig;
use po_workloads::spec_suite;

fn main() {
    let args = Args::from_env();
    let warmup_instr: u64 = args.get("warmup", 300_000);
    let post_instr: u64 = args.get("post", 500_000);
    let seed: u64 = args.get("seed", 42);
    let pool = ShardPool::from_args(&args);
    args.finish();

    let spec = spec_suite().into_iter().find(|s| s.name == "mcf").expect("mcf exists");
    let windows = [8usize, 16, 32, 64, 128, 256];
    let mut jobs = Vec::with_capacity(windows.len() * 2);
    for (i, &window) in windows.iter().enumerate() {
        let mut cow_cfg = SystemConfig::table2();
        cow_cfg.window_entries = window;
        let mut oow_cfg = SystemConfig::table2_overlay();
        oow_cfg.window_entries = window;
        jobs.push(fork_job(
            2 * i as u64,
            format!("window/{window}/cow"),
            cow_cfg,
            &spec,
            warmup_instr,
            post_instr,
            seed,
        ));
        jobs.push(fork_job(
            2 * i as u64 + 1,
            format!("window/{window}/oow"),
            oow_cfg,
            &spec,
            warmup_instr,
            post_instr,
            seed,
        ));
    }
    let results = run_jobs(&pool, jobs).expect("sweep failed");

    let mut table = ResultTable::new(
        "Ablation: instruction window size (mcf fork experiment)",
        &["window", "cow_cpi", "oow_cpi", "oow/cow"],
    );
    for (i, &window) in windows.iter().enumerate() {
        let cow = results[2 * i].outcome.as_fork().expect("fork job outcome");
        let oow = results[2 * i + 1].outcome.as_fork().expect("fork job outcome");
        table.row(&[
            &window,
            &format!("{:.3}", cow.cpi),
            &format!("{:.3}", oow.cpi),
            &format!("{:.3}", oow.cpi / cow.cpi),
        ]);
    }
    table.print();
    println!("\n(Table 2's window is 64 entries.)");
    table.save_csv("ablation_window").expect("csv");
}
