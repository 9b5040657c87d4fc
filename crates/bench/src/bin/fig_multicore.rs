//! The contended-fork multi-core figure: the §5.1 fork scenario driven
//! by 1/2/4/8 cores over the same shared pages, showing how
//! shared-resource contention (`Layer::Contention`) and §4.3.3 overlay
//! coherence traffic scale with core count.
//!
//! Each core count is one shard-pool job running
//! [`po_mc::run_contended_fork`] on its own machine with a private
//! telemetry sink; results come back in submission order and the merged
//! exports — `bench_results/fig_multicore.summary.json`,
//! `fig_multicore.events.jsonl`, `fig_multicore.report.txt` — are
//! byte-identical at any `--shards` value and any host thread count
//! (the `multicore-smoke` CI job diffs them).
//!
//! Usage: `cargo run --release -p po-bench --bin fig_multicore
//! [--ops <n per core>] [--seed <n>] [--shards <n>]`

use po_bench::{Args, ResultTable, ShardPool};
use po_mc::{run_contended_fork, ContendedForkOutcome, ContendedForkSpec};
use po_sim::SystemConfig;
use po_telemetry::{Layer, TelemetryMerge, TelemetrySink};
use std::fmt::Write as _;

/// Ring capacity of each job's private event journal.
const JOB_EVENT_CAPACITY: usize = 2048;

/// Core counts swept, in output order.
const CORE_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn main() {
    let args = Args::from_env();
    let ops_per_core: usize = args.get("ops", 3000);
    let seed: u64 = args.get("seed", 42);
    let pool = ShardPool::from_args(&args);
    args.finish();

    println!(
        "running the contended-fork workload at {CORE_COUNTS:?} cores on {} shard(s)…",
        pool.shards()
    );
    let results: Vec<(usize, ContendedForkOutcome, TelemetrySink)> = pool.run(
        CORE_COUNTS.to_vec(),
        |&cores| (cores * ops_per_core) as u64,
        move |cores| {
            let spec =
                ContendedForkSpec { ops_per_core, ..ContendedForkSpec::standard(cores, seed) };
            let sink = TelemetrySink::with_capacity(JOB_EVENT_CAPACITY, 256);
            let out = run_contended_fork(SystemConfig::table2_overlay(), &spec, sink.clone())
                .expect("contended fork");
            (cores, out, sink)
        },
    );

    let mut table = ResultTable::new(
        "contended fork: contention and overlay coherence vs core count",
        &[
            "cores",
            "cycles",
            "cpi",
            "contention_stalls",
            "contention_cpi",
            "obit_msgs",
            "invalidations",
            "coherence_stalls",
            "fingerprint",
        ],
    );
    let mut merge = TelemetryMerge::new();
    let mut json = String::from("{\n");
    for (i, (cores, out, sink)) in results.iter().enumerate() {
        merge.absorb(*cores as u64, sink);
        let contention_cpi =
            sink.cpi_stack().map(|s| s.layer_cpi(Layer::Contention)).unwrap_or(0.0);
        table.row(&[
            cores,
            &out.sched.stats.cycles,
            &format!("{:.4}", out.cpi),
            &out.contention_stall_cycles(),
            &format!("{contention_cpi:.5}"),
            &out.coherence_obit_msgs(),
            &out.coherence_invalidations(),
            &out.coherence_stall_cycles(),
            &format!("{:016x}", out.snapshot_fingerprint),
        ]);
        let _ = write!(
            json,
            "  \"cores_{cores}\": {{ \"cycles\": {}, \"cpi\": {:.6}, \
             \"contention_stall_cycles\": {}, \"coherence_obit_msgs\": {}, \
             \"coherence_invalidations\": {}, \"coherence_stall_cycles\": {}, \
             \"snapshot_fingerprint\": \"{:016x}\" }}",
            out.sched.stats.cycles,
            out.cpi,
            out.contention_stall_cycles(),
            out.coherence_obit_msgs(),
            out.coherence_invalidations(),
            out.coherence_stall_cycles(),
            out.snapshot_fingerprint,
        );
        json.push_str(if i + 1 < results.len() { ",\n" } else { "\n" });
    }
    json.push_str("}\n");

    table.print();
    table.save_csv("fig_multicore").expect("save csv");

    std::fs::create_dir_all("bench_results").expect("create bench_results");
    std::fs::write("bench_results/fig_multicore.summary.json", &json).expect("write summary");
    std::fs::write("bench_results/fig_multicore.events.jsonl", merge.journal_jsonl())
        .expect("write events");
    std::fs::write(
        "bench_results/fig_multicore.report.txt",
        merge.run_report("contended fork (merged over core counts)"),
    )
    .expect("write report");

    let four = results.iter().find(|(c, _, _)| *c == 4).map(|(_, out, _)| out);
    if let Some(out) = four {
        assert!(
            out.contention_stall_cycles() > 0 && out.coherence_obit_msgs() > 0,
            "4-core contended fork must show contention and coherence traffic"
        );
    }
    println!("exports: bench_results/fig_multicore.summary.json, .events.jsonl, .report.txt");
}
