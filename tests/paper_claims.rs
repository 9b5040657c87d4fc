//! The paper's headline claims, asserted on the figures the bench
//! binaries print.
//!
//! Every figure test calls a `po_bench::figures` function at its
//! binary's default arguments, so the numbers checked here are the
//! numbers in `bench_results/` and EXPERIMENTS.md. Each headline must
//! stay inside a band around the measured value, and each figure keeps
//! the shape the paper describes; each documented deviation from the
//! paper is pinned as a deviation, so that closing (or widening) one is
//! a deliberate change that updates EXPERIMENTS.md with this file. The
//! §4.5 hardware cost is exact.

use page_overlays::sim::{hardware_cost, BackendKind, SystemConfig};
use page_overlays::workloads::WorkloadType;
use po_bench::figures::{
    self, fork_suite, line_size_overheads, sparsity_sweep, spmv_vs_csr, ForkFigure, ForkRow,
    LINE_SIZES,
};
use po_bench::{geomean, ShardPool};
use std::sync::OnceLock;

fn pool() -> ShardPool {
    ShardPool::new(std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// The fork suite behind Figures 8 and 9, run once for both tests.
fn fork() -> &'static ForkFigure {
    static FIG: OnceLock<ForkFigure> = OnceLock::new();
    FIG.get_or_init(|| {
        fork_suite(
            &pool(),
            BackendKind::Overlay,
            figures::DEFAULT_WARMUP,
            figures::DEFAULT_POST,
            figures::DEFAULT_SEED,
            None,
        )
        .expect("fork suite")
    })
}

/// The fork-suite row of workload `name`.
fn fork_row(name: &str) -> &'static ForkRow {
    fork().rows.iter().find(|r| r.pair.spec.name == name).expect("the workload is in the suite")
}

#[track_caller]
fn assert_band(figure: &str, what: &str, value: f64, lo: f64, hi: f64) {
    assert!(
        (lo..=hi).contains(&value),
        "{figure}: {what} = {value:.4}, outside its band [{lo}, {hi}]"
    );
}

#[test]
fn figure8_overlay_on_write_saves_60_percent_memory() {
    let fig = fork();
    assert_eq!(fig.rows.len(), 15, "Figure 8: the suite has 15 workloads");
    // Paper: 53% average reduction. Measured: 60% (geomean of ratios).
    assert_band("Figure 8", "memory saving", 1.0 - fig.mem_geomean, 0.57, 0.63);
    for row in &fig.rows {
        assert!(
            row.pair.oow().extra_memory_bytes <= row.pair.cow().extra_memory_bytes,
            "Figure 8: {} uses more extra memory under OoW",
            row.pair.spec.name
        );
    }
    // Type 3 (sparse writes) saves far more than Type 2 (dense writes).
    let type_ratio = |t: WorkloadType| {
        let ratios: Vec<f64> =
            fig.rows.iter().filter(|r| r.pair.spec.wtype == t).map(|r| r.mem_ratio).collect();
        geomean(&ratios)
    };
    let (t2, t3) = (type_ratio(WorkloadType::DensePages), type_ratio(WorkloadType::SparsePages));
    assert!(t3 < 0.5, "Figure 8: Type 3 OoW/CoW memory = {t3:.3}, not below 0.5");
    assert!(t3 < t2, "Figure 8: Type 3 ({t3:.3}) saves no more than Type 2 ({t2:.3})");
}

#[test]
fn figure9_overlay_on_write_runs_13_percent_faster() {
    let fig = fork();
    // Paper: 15% average improvement. Measured: 13% (geomean CPI ratio).
    assert_band("Figure 9", "CPI improvement", 1.0 - fig.cpi_geomean, 0.11, 0.15);
    // A Type 1 workload stays near parity; a Type 3 one gains over 5%.
    assert_band("Figure 9", "tonto OoW/CoW CPI", fork_row("tonto").cpi_ratio, 0.9, 1.05);
    let mcf = fork_row("mcf").cpi_ratio;
    assert!(mcf < 0.95, "Figure 9: mcf OoW/CoW CPI = {mcf:.3}, a gain of 5% or less");
    // Documented deviation: the paper's cactus is the one benchmark
    // where CoW beats OoW; here it stays an OoW win (0.931).
    let cactus = fork_row("cactus").cpi_ratio;
    assert_band("Figure 9 (deviation: cactus)", "OoW/CoW CPI", cactus, 0.90, 0.999);
}

#[test]
fn figure10_overlays_win_at_high_locality() {
    let fig =
        spmv_vs_csr(&pool(), figures::DEFAULT_SCALE, figures::DEFAULT_SEED).expect("SpMV timing");
    assert_eq!(fig.rows.len(), 87, "Figure 10: the suite has 87 matrices");
    // Paper raefsky4 (L = 8): 92% faster, 34% less memory.
    // Measured: 81% faster, 34% less memory.
    let lo = &fig.rows[0];
    assert!(
        lo.perf_vs_csr < 1.0,
        "Figure 10: {} (L = {:.2}, the lowest) beats CSR ({:.3})",
        lo.name,
        lo.locality,
        lo.perf_vs_csr
    );
    let hi = fig.extreme();
    assert_band("Figure 10", "L at the right extreme", hi.locality, 7.99, 8.0);
    assert_band("Figure 10", "speedup at L = 8", hi.perf_vs_csr - 1.0, 0.76, 0.86);
    assert_band("Figure 10", "memory saving at L = 8", 1.0 - hi.mem_vs_csr, 0.31, 0.37);
    // Paper: 34 of 87 wins. Measured: 25.
    assert!((22..=28).contains(&fig.wins), "Figure 10: {} wins, outside [22, 28]", fig.wins);
    // Documented deviation: the first win sits at L 3.0, not near 4.5.
    let first = fig.first_win_locality.expect("Figure 10: overlays win somewhere");
    assert_band("Figure 10 (deviation: crossover)", "first-win L", first, 2.95, 3.05);
}

#[test]
fn figure11_page_granularity_is_21x_ideal() {
    let fig = line_size_overheads(figures::DEFAULT_SCALE, figures::DEFAULT_SEED);
    // Documented deviation: the paper's 4 KB geomean is 53×; the scaled
    // synthetic suite gives about 21×.
    assert_band(
        "Figure 11 (deviation: 4 KB geomean)",
        "overhead",
        fig.at(4096).geomean,
        19.0,
        23.0,
    );
    for pair in fig.summary.windows(2) {
        assert!(
            pair[0].geomean <= pair[1].geomean,
            "Figure 11: overhead must grow with granularity ({}B > {}B)",
            pair[0].line_bytes,
            pair[1].line_bytes
        );
    }
    let at = |row: &figures::LineSizeRow, bytes| {
        row.overheads[LINE_SIZES.iter().position(|&b| b == bytes).expect("a line size")]
    };
    for row in &fig.rows {
        assert!(
            at(row, 4096) >= at(row, 64),
            "Figure 11: {}: 4 KB stores less than 64 B",
            row.name
        );
    }
    let worst = fig.worst_page_overhead();
    assert!(worst > 50.0, "Figure 11: worst 4 KB overhead = {worst:.1}, not above 50x");
}

#[test]
fn sparsity_sweep_overlays_never_lose_to_dense() {
    let fig = sparsity_sweep(
        &pool(),
        figures::DEFAULT_SWEEP_ROWS,
        figures::DEFAULT_SWEEP_COLS,
        figures::DEFAULT_SEED,
    )
    .expect("SpMV timing");
    for row in &fig.rows {
        assert!(
            row.overlay_cycles <= fig.dense_cycles,
            "§5.2: overlays lose to dense at {:.0}% zero lines ({} > {} cycles)",
            row.zero_line_fraction * 100.0,
            row.overlay_cycles,
            fig.dense_cycles
        );
    }
    assert_band("§5.2", "speedup at 99% zero lines", fig.peak_speedup(), 10.0, 13.5);
    // Documented deviation: zero lines are drawn binomially, so on this
    // seed the 75% point dips below the 50% point.
    let at = |f: f64| fig.rows.iter().find(|r| r.zero_line_fraction == f).expect("a sweep point");
    assert!(
        at(0.75).speedup < at(0.5).speedup,
        "§5.2 (deviation: 75% dip): 75% speedup {:.2} is no longer below 50% speedup {:.2}",
        at(0.75).speedup,
        at(0.5).speedup
    );
}

#[test]
fn hardware_cost_is_the_papers_94_5_kb() {
    // §4.5: a 4 KB OMT cache, 8.5 KB of TLB extensions and 82 KB of tag
    // extensions, 94.5 KB in all.
    assert_eq!(hardware_cost(&SystemConfig::table2()).total_bytes(), 96768);
}
