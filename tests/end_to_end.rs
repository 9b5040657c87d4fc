//! End-to-end shape tests: the paper's headline shapes must hold off the
//! default arguments too.
//!
//! `paper_claims` pins each figure's numbers at its binary's default
//! arguments. These tests call the same `po_bench::figures` functions on
//! scaled-down inputs and other seeds, so a shape that holds only at the
//! one recorded configuration fails here.

use page_overlays::sim::BackendKind;
use page_overlays::workloads::WorkloadType;
use po_bench::figures::{
    fork_suite, line_size_overheads, sparsity_sweep, spmv_vs_csr, ForkFigure, LINE_SIZES,
};
use po_bench::{geomean, ShardPool};
use std::sync::OnceLock;

const WARMUP: u64 = 150_000;
const POST: u64 = 250_000;
const SCALE: f64 = 0.1;

fn pool() -> ShardPool {
    ShardPool::new(std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// The scaled-down fork suite behind the Figure 8 and 9 shapes, run once
/// for both tests.
fn fork() -> &'static ForkFigure {
    static FIG: OnceLock<ForkFigure> = OnceLock::new();
    FIG.get_or_init(|| {
        fork_suite(&pool(), BackendKind::Overlay, WARMUP, POST, 1, None).expect("fork suite")
    })
}

#[test]
fn figure8_shape_overlay_uses_less_memory() {
    let fig = fork();
    for row in &fig.rows {
        assert!(
            row.pair.oow().extra_memory_bytes <= row.pair.cow().extra_memory_bytes,
            "{}: OoW must never use more extra memory",
            row.pair.spec.name
        );
    }
    // Type 3 must show a much bigger reduction than Type 2.
    let type_ratio = |t: WorkloadType| {
        let ratios: Vec<f64> =
            fig.rows.iter().filter(|r| r.pair.spec.wtype == t).map(|r| r.mem_ratio).collect();
        geomean(&ratios)
    };
    let (t2, t3) = (type_ratio(WorkloadType::DensePages), type_ratio(WorkloadType::SparsePages));
    assert!(t3 < 0.5, "Type 3 reduction must be large, got ratio {t3}");
    assert!(t3 < t2, "Type 3 ({t3}) must save more than Type 2 ({t2})");
}

#[test]
fn figure9_shape_overlay_is_faster_where_it_matters() {
    let ratio = |name: &str| {
        fork().rows.iter().find(|r| r.pair.spec.name == name).expect("a suite workload").cpi_ratio
    };
    let tonto = ratio("tonto");
    assert!((0.9..1.05).contains(&tonto), "tonto: Type 1 must be near parity, got {tonto:.3}");
    let mcf = ratio("mcf");
    assert!(mcf < 0.95, "mcf: Type 3 must gain >5%, got ratio {mcf:.3}");
}

#[test]
fn figure10_shape_crossover_by_locality() {
    // Overlays lose to CSR at the lowest L and win at the highest.
    let fig = spmv_vs_csr(&pool(), SCALE, 9).expect("SpMV timing");
    let lo = &fig.rows[0];
    assert!(lo.perf_vs_csr < 1.0, "{} (L={:.1}): CSR must win", lo.name, lo.locality);
    let hi = fig.extreme();
    assert!(hi.perf_vs_csr > 1.0, "{} (L={:.1}): overlay must win", hi.name, hi.locality);
}

#[test]
fn figure11_shape_page_granularity_is_catastrophic() {
    let fig = line_size_overheads(SCALE, 11);
    let at = |overheads: &[f64], bytes| {
        overheads[LINE_SIZES.iter().position(|&b| b == bytes).expect("a line size")]
    };
    for row in &fig.rows {
        assert!(
            at(&row.overheads, 4096) >= at(&row.overheads, 64),
            "{}: overhead must grow with granularity",
            row.name
        );
    }
    let geomean_4k = fig.at(4096).geomean;
    assert!(
        geomean_4k > 5.0,
        "page granularity must be many times ideal on average, got {geomean_4k:.1}"
    );
    let worst = fig.worst_page_overhead();
    assert!(worst > 50.0, "scatter matrices must show ~50x+ page overhead, got {worst:.1}");
}

#[test]
fn sparsity_sweep_shape_overlay_never_loses_to_dense() {
    let fig = sparsity_sweep(&pool(), 48, 512, 3).expect("SpMV timing");
    for row in &fig.rows {
        assert!(
            row.overlay_cycles <= fig.dense_cycles,
            "overlay ({}) must not lose to dense ({}) at {} zero lines",
            row.overlay_cycles,
            fig.dense_cycles,
            row.zero_line_fraction
        );
    }
}
