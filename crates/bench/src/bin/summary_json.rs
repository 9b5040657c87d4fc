//! Machine-readable benchmark summary: `bench_results/summary.json`.
//!
//! Runs the §5.1 fork experiment for every workload of the SPEC-like
//! suite plus the Figure 10 SpMV kernel — on a selectable
//! address-translation backend — and writes one JSON object per
//! workload:
//!
//! ```json
//! { "workload": { "cycles": .., "cpi": .., "memory_overhead_pct": ..,
//!                 "omt_cache_hit_rate": .., "overlay_bytes": .. } }
//! ```
//!
//! * `cycles` / `cpi` — the measured window (post-fork segment for the
//!   suite, one iteration for SpMV).
//! * `memory_overhead_pct` — extra memory after the fork relative to
//!   the mapped working set (for SpMV: representation footprint
//!   relative to the dense array).
//! * `omt_cache_hit_rate` — OMT-cache hits / accesses over the run.
//! * `overlay_bytes` — Overlay Memory Store bytes in use (segment
//!   footprint for SpMV).
//!
//! `--backend overlay` (the default) writes the checked-in
//! `bench_results/summary.json`; any other backend writes
//! `bench_results/summary_<backend>.json` with the same row names, so
//! the files compare row-by-row. Whenever the rival backend's summary
//! is already on disk, a per-workload comparison table (cycles and the
//! cycle ratio) is printed — the comparative-lab view.
//!
//! Deterministic: same arguments, byte-identical file — the overlay
//! snapshot is checked in to seed the repo's performance trajectory,
//! and the `perf_ratchet` binary gates CI on cycle regressions against
//! it. The measurement and encoding live in [`po_bench::summary`] so
//! both binaries agree on them by construction.
//!
//! Workload runs fan out over the shared shard pool (`--shards N` /
//! `PO_SHARDS`); the bytes written are identical at any shard count —
//! the `perf-ratchet` CI job regenerates the checked-in file under
//! `PO_SHARDS=1` and `PO_SHARDS=8` and diffs it.
//!
//! Usage: `cargo run --release -p po-bench --bin summary_json
//! [--backend <overlay|seg>] [--warmup <instr>] [--post <instr>]
//! [--seed <n>] [--shards <n>]`

use po_bench::{summary, Args, ResultTable, ShardPool};
use po_sim::BackendKind;

/// Where `backend`'s summary lives (the overlay file name is the
/// historical, ratchet-gated one).
fn summary_path(backend: BackendKind) -> String {
    match backend {
        BackendKind::Overlay => "bench_results/summary.json".to_string(),
        other => format!("bench_results/summary_{other}.json"),
    }
}

fn main() {
    let args = Args::from_env();
    let warmup_instr: u64 = args.get("warmup", 40_000);
    let post_instr: u64 = args.get("post", 60_000);
    let seed: u64 = args.get("seed", 42);
    let backend: BackendKind = args.get("backend", BackendKind::Overlay);
    let pool = ShardPool::from_args(&args);
    args.finish();

    let rows = summary::collect_for_backend(&pool, backend, warmup_instr, post_instr, seed)
        .expect("summary workload failed");
    let json = summary::to_json(&rows);

    std::fs::create_dir_all("bench_results").expect("create bench_results");
    let path = summary_path(backend);
    std::fs::write(&path, &json).expect("write summary json");
    println!("{} workloads summarized to {path} (backend: {backend})", rows.len());

    // The comparative-lab view: pair these rows against every rival
    // backend whose summary is already on disk.
    for rival in BackendKind::ALL {
        if rival == backend {
            continue;
        }
        let Ok(text) = std::fs::read_to_string(summary_path(rival)) else {
            continue;
        };
        let parsed = match summary::parse_cycles(&text) {
            Ok(p) => p,
            Err(e) => {
                eprintln!("summary_json: cannot parse {}: {e}", summary_path(rival));
                continue;
            }
        };
        let mut table = ResultTable::new(
            &format!("Backend comparison: {backend} vs {rival} (cycles)"),
            &["workload", &backend.to_string(), &rival.to_string(), "ratio"],
        );
        for cmp in summary::compare_backends(&rows, &parsed) {
            table.row(&[
                &cmp.workload,
                &cmp.current,
                &cmp.rival.map_or_else(|| "-".to_string(), |c| c.to_string()),
                &cmp.ratio.map_or_else(|| "-".to_string(), |r| format!("{r:.3}")),
            ]);
        }
        table.print();
    }
}
