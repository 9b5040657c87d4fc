//! The paper's evaluation, computed once.
//!
//! One function per figure: the §5.1 fork suite behind Figures 8 and 9
//! ([`fork_suite`]), Figure 10's SpMV-vs-CSR sweep ([`spmv_vs_csr`]),
//! Figure 11's line-size overheads ([`line_size_overheads`]) and the
//! §5.2 sparsity sweep ([`sparsity_sweep`]). Each returns typed rows plus
//! the figure's headline values. The figure binaries, `repro_all` and
//! the workspace's `paper_claims` test only print, save or assert what
//! these functions return, so a number quoted in EXPERIMENTS.md has a
//! single source.
//!
//! The `DEFAULT_*` constants are the binaries' default arguments, so a
//! test can call a figure exactly as its binary runs it.

use crate::geomean;
use crate::pool::ShardPool;
use crate::suite::{run_fork_suite_pairs_on, ForkPair};
use po_sim::BackendKind;
use po_sparse::{
    csr_bytes, gen, ideal_bytes, nonzero_locality, overhead_vs_ideal, uf_like_suite, CsrMatrix,
    OverlayMatrix, TimedSpmv,
};
use po_types::PoResult;

/// Default seed of every figure.
pub const DEFAULT_SEED: u64 = 42;
/// Default warm-up instructions of the fork suite (the paper's 200 M,
/// scaled down 500×).
pub const DEFAULT_WARMUP: u64 = 400_000;
/// Default post-fork instructions of the fork suite (the paper's 300 M,
/// scaled down 500×).
pub const DEFAULT_POST: u64 = 600_000;
/// Default non-zero scale of the 87-matrix sparse suite.
pub const DEFAULT_SCALE: f64 = 0.3;
/// Default row count of the §5.2 sparsity-sweep matrix.
pub const DEFAULT_SWEEP_ROWS: usize = 64;
/// Default column count of the §5.2 sparsity-sweep matrix.
pub const DEFAULT_SWEEP_COLS: usize = 512;

/// Figure 11's storage granularities, in bytes.
pub const LINE_SIZES: [usize; 7] = [16, 32, 64, 256, 1024, 2048, 4096];

/// The §5.2 zero-line fractions.
pub const ZERO_LINE_FRACTIONS: [f64; 7] = [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99];

/// One workload of the fork suite (a bar of Figures 8 and 9).
#[derive(Clone, Debug)]
pub struct ForkRow {
    /// The workload's CoW and OoW runs, with their telemetry when the
    /// suite ran with a telemetry capacity.
    pub pair: ForkPair,
    /// Figure 8: OoW extra memory over CoW extra memory (1.0 when CoW
    /// used none).
    pub mem_ratio: f64,
    /// Figure 9: OoW post-fork CPI over CoW post-fork CPI.
    pub cpi_ratio: f64,
}

/// Figures 8 and 9: the 15-workload fork suite under CoW and OoW.
#[derive(Clone, Debug)]
pub struct ForkFigure {
    /// One row per workload, in suite order.
    pub rows: Vec<ForkRow>,
    /// Geomean of [`ForkRow::mem_ratio`] (paper: 0.47).
    pub mem_geomean: f64,
    /// Geomean of [`ForkRow::cpi_ratio`] (paper: 0.85).
    pub cpi_geomean: f64,
}

/// Runs the fork suite on `backend` and derives Figures 8 and 9.
///
/// # Errors
///
/// The first machine fault.
pub fn fork_suite(
    pool: &ShardPool,
    backend: BackendKind,
    warmup_instr: u64,
    post_instr: u64,
    seed: u64,
    telemetry_capacity: Option<usize>,
) -> PoResult<ForkFigure> {
    let rows: Vec<ForkRow> =
        run_fork_suite_pairs_on(pool, backend, warmup_instr, post_instr, seed, telemetry_capacity)?
            .into_iter()
            .map(|pair| {
                let (cow, oow) = (pair.cow(), pair.oow());
                let mem_ratio = if cow.extra_memory_bytes == 0 {
                    1.0
                } else {
                    oow.extra_memory_bytes as f64 / cow.extra_memory_bytes as f64
                };
                let cpi_ratio = oow.cpi / cow.cpi;
                ForkRow { pair, mem_ratio, cpi_ratio }
            })
            .collect();
    let mem_geomean = geomean(&rows.iter().map(|r| r.mem_ratio).collect::<Vec<_>>());
    let cpi_geomean = geomean(&rows.iter().map(|r| r.cpi_ratio).collect::<Vec<_>>());
    Ok(ForkFigure { rows, mem_geomean, cpi_geomean })
}

/// One matrix of Figure 10.
#[derive(Clone, Debug)]
pub struct SpmvRow {
    /// Matrix name.
    pub name: String,
    /// Non-zero locality L (non-zeros per non-zero 64 B line).
    pub locality: f64,
    /// CSR cycles over overlay cycles (> 1: overlays faster).
    pub perf_vs_csr: f64,
    /// Overlay bytes over CSR bytes (< 1: overlays smaller).
    pub mem_vs_csr: f64,
}

/// Figure 10: overlay SpMV normalized to CSR over the 87-matrix suite.
#[derive(Clone, Debug)]
pub struct SpmvFigure {
    /// One row per matrix, sorted by L (ties keep suite order).
    pub rows: Vec<SpmvRow>,
    /// Matrices where overlays beat CSR (paper: 34 of 87).
    pub wins: usize,
    /// L of the lowest-L win (paper: crossover near 4.5).
    pub first_win_locality: Option<f64>,
    /// Geomean speedup and memory ratio over the winning matrices
    /// (paper: 1.27× and 0.92×).
    pub winners_mean: Option<(f64, f64)>,
}

impl SpmvFigure {
    /// The highest-L matrix: the figure's right extreme (paper
    /// raefsky4, L = 8: 92% faster, 34% less memory).
    pub fn extreme(&self) -> &SpmvRow {
        self.rows.last().expect("the sparse suite is nonempty")
    }
}

/// Times one SpMV iteration per suite matrix, overlay against CSR.
///
/// # Errors
///
/// The first machine fault, in suite order.
pub fn spmv_vs_csr(pool: &ShardPool, scale: f64, seed: u64) -> PoResult<SpmvFigure> {
    let timed: PoResult<Vec<SpmvRow>> = pool
        .run(
            uf_like_suite(scale, seed),
            |spec| spec.matrix.nnz() as u64,
            |spec| {
                let timed = TimedSpmv::table2();
                let tc = timed.time_csr(&CsrMatrix::from_triplets(&spec.matrix))?;
                let to = timed.time_overlay(&OverlayMatrix::from_triplets(&spec.matrix))?;
                Ok(SpmvRow {
                    locality: nonzero_locality(&spec.matrix, 64),
                    name: spec.name,
                    perf_vs_csr: tc.cycles as f64 / to.cycles as f64,
                    mem_vs_csr: to.memory_bytes as f64 / tc.memory_bytes as f64,
                })
            },
        )
        .into_iter()
        .collect();
    let mut rows = timed?;
    rows.sort_by(|a, b| a.locality.total_cmp(&b.locality));
    let winners: Vec<&SpmvRow> = rows.iter().filter(|r| r.perf_vs_csr > 1.0).collect();
    let winners_mean = (!winners.is_empty()).then(|| {
        let perf: Vec<f64> = winners.iter().map(|r| r.perf_vs_csr).collect();
        let mem: Vec<f64> = winners.iter().map(|r| r.mem_vs_csr).collect();
        (geomean(&perf), geomean(&mem))
    });
    Ok(SpmvFigure {
        wins: winners.len(),
        first_win_locality: winners.first().map(|r| r.locality),
        winners_mean,
        rows,
    })
}

/// One matrix of Figure 11: storage overheads relative to the ideal
/// representation (non-zero values only).
#[derive(Clone, Debug)]
pub struct LineSizeRow {
    /// Matrix name.
    pub name: String,
    /// Non-zero locality L.
    pub locality: f64,
    /// CSR bytes over ideal bytes.
    pub csr: f64,
    /// Overhead at each of [`LINE_SIZES`].
    pub overheads: [f64; LINE_SIZES.len()],
}

/// One granularity of Figure 11's summary.
#[derive(Clone, Copy, Debug)]
pub struct LineSizeSummary {
    /// Granularity in bytes.
    pub line_bytes: usize,
    /// Geomean overhead vs ideal over the suite.
    pub geomean: f64,
    /// Matrices on which this granularity stores fewer bytes than CSR.
    pub beats_csr: usize,
}

/// Figure 11: storage overhead vs granularity over the 87-matrix suite.
#[derive(Clone, Debug)]
pub struct LineSizeFigure {
    /// One row per matrix, sorted by L (ties keep suite order).
    pub rows: Vec<LineSizeRow>,
    /// Geomean CSR overhead vs ideal.
    pub csr_geomean: f64,
    /// One entry per [`LINE_SIZES`] granularity.
    pub summary: [LineSizeSummary; LINE_SIZES.len()],
}

impl LineSizeFigure {
    /// Summary of granularity `line_bytes`, one of [`LINE_SIZES`].
    pub fn at(&self, line_bytes: usize) -> &LineSizeSummary {
        self.summary.iter().find(|s| s.line_bytes == line_bytes).expect("a Figure 11 line size")
    }

    /// The largest page-granularity (4 KB) overhead of any matrix.
    pub fn worst_page_overhead(&self) -> f64 {
        self.rows.iter().map(|r| r.overheads[LINE_SIZES.len() - 1]).fold(0.0, f64::max)
    }
}

/// Computes Figure 11's storage overheads (no timing, so no pool).
pub fn line_size_overheads(scale: f64, seed: u64) -> LineSizeFigure {
    let mut rows: Vec<LineSizeRow> = uf_like_suite(scale, seed)
        .into_iter()
        .map(|spec| {
            let ideal = ideal_bytes(&spec.matrix) as f64;
            LineSizeRow {
                locality: nonzero_locality(&spec.matrix, 64),
                csr: csr_bytes(&spec.matrix) as f64 / ideal,
                overheads: LINE_SIZES.map(|ls| overhead_vs_ideal(&spec.matrix, ls)),
                name: spec.name,
            }
        })
        .collect();
    rows.sort_by(|a, b| a.locality.total_cmp(&b.locality));
    let csr_geomean = geomean(&rows.iter().map(|r| r.csr).collect::<Vec<_>>());
    let summary = std::array::from_fn(|i| {
        let overheads: Vec<f64> = rows.iter().map(|r| r.overheads[i]).collect();
        let beats_csr = rows.iter().filter(|r| r.overheads[i] < r.csr).count();
        LineSizeSummary { line_bytes: LINE_SIZES[i], geomean: geomean(&overheads), beats_csr }
    });
    LineSizeFigure { rows, csr_geomean, summary }
}

/// One zero-line fraction of the §5.2 sweep.
#[derive(Clone, Copy, Debug)]
pub struct SparsityRow {
    /// Fraction of the matrix's cache lines that are all zero.
    pub zero_line_fraction: f64,
    /// Cycles of one overlay SpMV iteration.
    pub overlay_cycles: u64,
    /// Dense cycles over overlay cycles.
    pub speedup: f64,
}

/// §5.2: overlay SpMV against the dense representation as the
/// zero-line fraction grows.
#[derive(Clone, Debug)]
pub struct SparsityFigure {
    /// Cycles of one dense SpMV iteration (the same for every row).
    pub dense_cycles: u64,
    /// One row per [`ZERO_LINE_FRACTIONS`] entry.
    pub rows: Vec<SparsityRow>,
}

impl SparsityFigure {
    /// The largest speedup over dense.
    pub fn peak_speedup(&self) -> f64 {
        self.rows.iter().map(|r| r.speedup).fold(0.0, f64::max)
    }
}

/// Times dense SpMV once and overlay SpMV at every zero-line fraction of
/// a `rows`×`cols` matrix.
///
/// # Errors
///
/// The first machine fault.
pub fn sparsity_sweep(
    pool: &ShardPool,
    rows: usize,
    cols: usize,
    seed: u64,
) -> PoResult<SparsityFigure> {
    let dense_cycles = TimedSpmv::table2().time_dense(rows, cols)?.cycles;
    let timed: PoResult<Vec<SparsityRow>> = pool
        .run(
            ZERO_LINE_FRACTIONS.to_vec(),
            |_| 1,
            |zero_line_fraction| {
                let t = gen::with_zero_line_fraction(rows, cols, zero_line_fraction, seed);
                let overlay_cycles =
                    TimedSpmv::table2().time_overlay(&OverlayMatrix::from_triplets(&t))?.cycles;
                Ok(SparsityRow {
                    zero_line_fraction,
                    overlay_cycles,
                    speedup: dense_cycles as f64 / overlay_cycles as f64,
                })
            },
        )
        .into_iter()
        .collect();
    Ok(SparsityFigure { dense_cycles, rows: timed? })
}
