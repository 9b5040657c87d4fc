//! Timed SpMV on the simulated machine (Figure 10).
//!
//! One SpMV iteration is a stream of trace ops — the loads of the
//! matrix representation, the `x` gathers, the `y` updates, and the
//! multiply-accumulate compute — issued to the Table 2 machine as they
//! are generated.
//! Three representations are timed:
//!
//! * **dense** — every line of the row-major array is read,
//! * **CSR** — per non-zero: a 4 B column index, an 8 B value and the
//!   `x[col]` gather (plus row pointers),
//! * **overlay** — only non-zero lines are read, through the overlay
//!   address space (zero physical page + overlays, seeded into the
//!   simulated Overlay Memory Store).
//!
//! The relative shapes of Figure 10 come out of the memory system: CSR
//! touches `~12 B x nnz` but with an extra dependent gather per element;
//! overlays touch `64 B x nonzero_lines` with streaming locality and no
//! index metadata — so overlays win when lines are mostly full (high L)
//! and lose when lines are mostly zeros (low L).

use crate::matrix::CsrMatrix;
use crate::overlay_repr::{OverlayMatrix, VALUES_PER_LINE};
use po_overlay::SegmentClass;
use po_sim::{run_streamed, Machine, SimStats, SystemConfig, TraceOp};
use po_telemetry::TelemetrySink;
use po_types::geometry::{LINE_SIZE, PAGE_SIZE};
use po_types::{Asid, LineData, PoResult, VirtAddr, Vpn};

/// Result of one timed SpMV iteration.
#[derive(Clone, Debug)]
pub struct SpmvTiming {
    /// Cycles for the iteration.
    pub cycles: u64,
    /// Instructions executed.
    pub instructions: u64,
    /// Representation footprint in bytes (segment-granular for
    /// overlays).
    pub memory_bytes: u64,
}

impl SpmvTiming {
    /// Cycles per instruction.
    pub fn cpi(&self) -> f64 {
        po_types::stats::ratio(self.cycles, self.instructions)
    }
}

/// Virtual layout of the SpMV working set (page numbers).
const A_VPN: u64 = 0x1_0000;
const VALUES_VPN: u64 = 0x2_0000;
const COLIDX_VPN: u64 = 0x3_0000;
const ROWPTR_VPN: u64 = 0x4_0000;
const X_VPN: u64 = 0x5_0000;
const Y_VPN: u64 = 0x6_0000;

/// Multiply + add per value processed.
const MAC_OPS_PER_VALUE: u32 = 2;

fn va(vpn_base: u64, byte_off: u64) -> VirtAddr {
    VirtAddr::new(vpn_base * PAGE_SIZE as u64 + byte_off)
}

fn pages_for(bytes: usize) -> u64 {
    (bytes.div_ceil(PAGE_SIZE)) as u64
}

/// Times SpMV for the three representations on the Table 2 machine.
#[derive(Clone, Debug)]
pub struct TimedSpmv {
    config: SystemConfig,
    sink: TelemetrySink,
}

impl TimedSpmv {
    /// Uses the given system configuration (overlay runs force
    /// `overlay_mode` on).
    pub fn new(config: SystemConfig) -> Self {
        Self { config, sink: TelemetrySink::noop() }
    }

    /// The Table 2 machine.
    pub fn table2() -> Self {
        Self::new(SystemConfig::table2_overlay())
    }

    /// Installs `sink` on every machine the timer constructs, so a run
    /// can be decomposed into a per-layer CPI stack and event journal;
    /// each machine publishes its stats counters when its run ends.
    #[must_use]
    pub fn with_telemetry(mut self, sink: TelemetrySink) -> Self {
        self.sink = sink;
        self
    }

    /// A fresh machine carrying the timer's telemetry sink, with one
    /// process spawned; `overlay_mode` forces the mode on.
    fn machine(&self, overlay_mode: bool) -> PoResult<(Machine, Asid)> {
        let mut config = self.config.clone();
        config.overlay_mode |= overlay_mode;
        let mut m = Machine::new(config)?;
        m.install_telemetry(self.sink.clone());
        let pid = m.spawn_process()?;
        Ok((m, pid))
    }

    fn dense_machine(&self, rows: usize, cols: usize) -> PoResult<(Machine, Asid)> {
        let (mut m, pid) = self.machine(false)?;
        m.map_range(pid, Vpn::new(A_VPN), pages_for(rows * cols * 8))?;
        m.map_range(pid, Vpn::new(X_VPN), pages_for(cols * 8))?;
        m.map_range(pid, Vpn::new(Y_VPN), pages_for(rows * 8))?;
        Ok((m, pid))
    }

    fn csr_machine(&self, csr: &CsrMatrix) -> PoResult<(Machine, Asid)> {
        let (mut m, pid) = self.machine(false)?;
        m.map_range(pid, Vpn::new(VALUES_VPN), pages_for(csr.nnz() * 8).max(1))?;
        m.map_range(pid, Vpn::new(COLIDX_VPN), pages_for(csr.nnz() * 4).max(1))?;
        m.map_range(pid, Vpn::new(ROWPTR_VPN), pages_for((csr.rows() + 1) * 4).max(1))?;
        m.map_range(pid, Vpn::new(X_VPN), pages_for(csr.cols() * 8))?;
        m.map_range(pid, Vpn::new(Y_VPN), pages_for(csr.rows() * 8))?;
        Ok((m, pid))
    }

    /// The overlay machine: `A` is the shared zero page, and its
    /// non-zero lines are seeded into the simulated Overlay Memory
    /// Store.
    fn overlay_machine(&self, ovl: &OverlayMatrix) -> PoResult<(Machine, Asid)> {
        let (mut m, pid) = self.machine(true)?;
        let a_pages = pages_for(ovl.rows() * ovl.cols() * 8).max(1);
        m.map_shared_zero_range(pid, Vpn::new(A_VPN), a_pages)?;
        m.map_range(pid, Vpn::new(X_VPN), pages_for(ovl.cols() * 8))?;
        m.map_range(pid, Vpn::new(Y_VPN), pages_for(ovl.rows() * 8))?;
        let lines_per_page = PAGE_SIZE / LINE_SIZE;
        for (line, vals) in ovl.iter_lines() {
            let vpn = Vpn::new(A_VPN + (line / lines_per_page) as u64);
            let mut arr = [0.0f64; VALUES_PER_LINE];
            arr.copy_from_slice(vals);
            m.seed_overlay_line(pid, vpn, line % lines_per_page, LineData::from_f64x8(arr))?;
        }
        Ok((m, pid))
    }

    /// Times a dense SpMV over a `rows x cols` matrix.
    ///
    /// # Errors
    ///
    /// Propagates machine faults.
    ///
    /// # Panics
    ///
    /// Panics unless `cols` is a multiple of 8 (one line = 8 values).
    pub fn time_dense(&self, rows: usize, cols: usize) -> PoResult<SpmvTiming> {
        assert_eq!(cols % VALUES_PER_LINE, 0, "cols must be line-aligned");
        let (mut m, pid) = self.dense_machine(rows, cols)?;
        let stats = dense_kernel(&mut m, pid, rows, cols)?;
        Ok(timing(&m, &stats, (rows * cols * 8) as u64))
    }

    /// Times a CSR SpMV.
    ///
    /// # Errors
    ///
    /// Propagates machine faults.
    pub fn time_csr(&self, csr: &CsrMatrix) -> PoResult<SpmvTiming> {
        let (mut m, pid) = self.csr_machine(csr)?;
        let stats = csr_kernel(&mut m, pid, csr)?;
        Ok(timing(&m, &stats, crate::metrics::csr_bytes_from_parts(csr.nnz(), csr.rows())))
    }

    /// Times an overlay SpMV: non-zero lines are seeded into the
    /// simulated Overlay Memory Store and read through the overlay
    /// address path.
    ///
    /// # Errors
    ///
    /// Propagates machine faults.
    ///
    /// # Panics
    ///
    /// Panics unless `cols` is a multiple of 8.
    pub fn time_overlay(&self, ovl: &OverlayMatrix) -> PoResult<SpmvTiming> {
        assert_eq!(ovl.cols() % VALUES_PER_LINE, 0, "cols must be line-aligned");
        let (mut m, pid) = self.overlay_machine(ovl)?;
        let stats = overlay_kernel(&mut m, pid, ovl)?;
        Ok(timing(&m, &stats, overlay_segment_bytes(ovl)))
    }
}

/// Publishes the finished machine's stats and reports its run.
fn timing(m: &Machine, stats: &SimStats, memory_bytes: u64) -> SpmvTiming {
    m.publish_stats();
    SpmvTiming { cycles: stats.cycles, instructions: stats.instructions, memory_bytes }
}

// The three kernels issue each op straight into the machine as they
// generate it: a trace of the 1M-non-zero CSR kernel would be ~4M ops
// (~100 MB) built before the first one runs.

/// Dense: every line of each row of `A`, its `x` line, the
/// multiply-accumulates, then the row's `y` store.
fn dense_kernel(m: &mut Machine, pid: Asid, rows: usize, cols: usize) -> PoResult<SimStats> {
    let lines_per_row = cols / VALUES_PER_LINE;
    run_streamed(m, |m| {
        let mut issue = |op: TraceOp| m.execute(pid, &op);
        for r in 0..rows {
            for lr in 0..lines_per_row {
                let line = r * lines_per_row + lr;
                issue(TraceOp::Load(va(A_VPN, (line * LINE_SIZE) as u64)))?;
                issue(TraceOp::Load(va(X_VPN, (lr * LINE_SIZE) as u64)))?;
                issue(TraceOp::Compute(MAC_OPS_PER_VALUE * VALUES_PER_LINE as u32))?;
            }
            issue(TraceOp::Store(va(Y_VPN, (r * 8) as u64)))?;
        }
        Ok(())
    })
}

/// CSR: per row its row pointer; per non-zero its column index, its
/// value, the `x[col]` gather and the multiply-accumulate; then the
/// row's `y` store.
fn csr_kernel(m: &mut Machine, pid: Asid, csr: &CsrMatrix) -> PoResult<SimStats> {
    run_streamed(m, |m| {
        let mut issue = |op: TraceOp| m.execute(pid, &op);
        for r in 0..csr.rows() {
            issue(TraceOp::Load(va(ROWPTR_VPN, (r * 4) as u64)))?;
            let (lo, hi) = (csr.row_ptr()[r] as usize, csr.row_ptr()[r + 1] as usize);
            for i in lo..hi {
                let col = csr.col_idx()[i] as usize;
                issue(TraceOp::Load(va(COLIDX_VPN, (i * 4) as u64)))?;
                issue(TraceOp::Load(va(VALUES_VPN, (i * 8) as u64)))?;
                issue(TraceOp::Load(va(X_VPN, (col * 8) as u64)))?;
                issue(TraceOp::Compute(MAC_OPS_PER_VALUE))?;
            }
            issue(TraceOp::Store(va(Y_VPN, (r * 8) as u64)))?;
        }
        Ok(())
    })
}

/// Overlay: per non-zero line of `A`, the line, its `x` line and the
/// multiply-accumulates; a row's `y` store comes after its first line.
fn overlay_kernel(m: &mut Machine, pid: Asid, ovl: &OverlayMatrix) -> PoResult<SimStats> {
    let lines_per_row = ovl.cols() / VALUES_PER_LINE;
    run_streamed(m, |m| {
        let mut issue = |op: TraceOp| m.execute(pid, &op);
        let mut last_row = usize::MAX;
        for (line, _) in ovl.iter_lines() {
            let row = line / lines_per_row;
            let line_in_row = line % lines_per_row;
            issue(TraceOp::Load(va(A_VPN, (line * LINE_SIZE) as u64)))?;
            issue(TraceOp::Load(va(X_VPN, (line_in_row * LINE_SIZE) as u64)))?;
            issue(TraceOp::Compute(MAC_OPS_PER_VALUE * VALUES_PER_LINE as u32))?;
            if row != last_row {
                issue(TraceOp::Store(va(Y_VPN, (row * 8) as u64)))?;
                last_row = row;
            }
        }
        Ok(())
    })
}

/// Segment-granular footprint of an overlay matrix: each page's overlay
/// occupies the smallest segment class that fits its line count
/// (§4.4.2).
pub fn overlay_segment_bytes(ovl: &OverlayMatrix) -> u64 {
    let lines_per_page = PAGE_SIZE / LINE_SIZE;
    let mut total = 0u64;
    for page in 0..ovl.total_pages() {
        let count = ovl.obitvec(page).len();
        if count > 0 {
            total += SegmentClass::for_lines(count.min(lines_per_page)).bytes() as u64;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;
    use crate::matrix::TripletMatrix;
    use po_sim::run_trace;

    fn timed() -> TimedSpmv {
        TimedSpmv::table2()
    }

    #[test]
    fn overlay_beats_dense_on_sparse_input() {
        // 25% of lines non-zero: overlay reads 4x less.
        let t = gen::with_zero_line_fraction(64, 512, 0.75, 1);
        let ovl = OverlayMatrix::from_triplets(&t);
        let o = timed().time_overlay(&ovl).unwrap();
        let d = timed().time_dense(64, 512).unwrap();
        assert!(
            o.cycles < d.cycles,
            "overlay ({}) must beat dense ({}) at 75% zero lines",
            o.cycles,
            d.cycles
        );
    }

    #[test]
    fn overlay_beats_csr_at_high_locality() {
        let t = gen::clustered(40, 512, 20_000, 8, true, 3);
        let csr = CsrMatrix::from_triplets(&t);
        let ovl = OverlayMatrix::from_triplets(&t);
        assert!(ovl.locality() > 6.0, "L = {}", ovl.locality());
        let c = timed().time_csr(&csr).unwrap();
        let o = timed().time_overlay(&ovl).unwrap();
        assert!(
            o.cycles < c.cycles,
            "overlay ({}) must beat CSR ({}) at L = {:.1}",
            o.cycles,
            c.cycles,
            ovl.locality()
        );
        assert!(o.memory_bytes < c.memory_bytes);
    }

    #[test]
    fn csr_beats_overlay_at_low_locality() {
        let t = gen::uniform_random(256, 512, 4_000, 5);
        let csr = CsrMatrix::from_triplets(&t);
        let ovl = OverlayMatrix::from_triplets(&t);
        assert!(ovl.locality() < 1.5, "L = {}", ovl.locality());
        let c = timed().time_csr(&csr).unwrap();
        let o = timed().time_overlay(&ovl).unwrap();
        assert!(
            c.cycles < o.cycles,
            "CSR ({}) must beat overlay ({}) at L = {:.1}",
            c.cycles,
            o.cycles,
            ovl.locality()
        );
        assert!(c.memory_bytes < o.memory_bytes);
    }

    // The op lists the kernels issued before they streamed, built here
    // on their own so the streamed loops are checked against them.

    fn dense_trace(rows: usize, cols: usize) -> Vec<TraceOp> {
        let lines_per_row = cols / VALUES_PER_LINE;
        let mut trace = Vec::new();
        for r in 0..rows {
            for lr in 0..lines_per_row {
                let line = r * lines_per_row + lr;
                trace.push(TraceOp::Load(va(A_VPN, (line * LINE_SIZE) as u64)));
                trace.push(TraceOp::Load(va(X_VPN, (lr * LINE_SIZE) as u64)));
                trace.push(TraceOp::Compute(MAC_OPS_PER_VALUE * VALUES_PER_LINE as u32));
            }
            trace.push(TraceOp::Store(va(Y_VPN, (r * 8) as u64)));
        }
        trace
    }

    fn csr_trace(csr: &CsrMatrix) -> Vec<TraceOp> {
        let mut trace = Vec::new();
        for r in 0..csr.rows() {
            trace.push(TraceOp::Load(va(ROWPTR_VPN, (r * 4) as u64)));
            let (lo, hi) = (csr.row_ptr()[r] as usize, csr.row_ptr()[r + 1] as usize);
            for i in lo..hi {
                let col = csr.col_idx()[i] as usize;
                trace.push(TraceOp::Load(va(COLIDX_VPN, (i * 4) as u64)));
                trace.push(TraceOp::Load(va(VALUES_VPN, (i * 8) as u64)));
                trace.push(TraceOp::Load(va(X_VPN, (col * 8) as u64)));
                trace.push(TraceOp::Compute(MAC_OPS_PER_VALUE));
            }
            trace.push(TraceOp::Store(va(Y_VPN, (r * 8) as u64)));
        }
        trace
    }

    fn overlay_trace(ovl: &OverlayMatrix) -> Vec<TraceOp> {
        let lines_per_row = ovl.cols() / VALUES_PER_LINE;
        let mut trace = Vec::new();
        let mut last_row = usize::MAX;
        for (line, _) in ovl.iter_lines() {
            let row = line / lines_per_row;
            let line_in_row = line % lines_per_row;
            trace.push(TraceOp::Load(va(A_VPN, (line * LINE_SIZE) as u64)));
            trace.push(TraceOp::Load(va(X_VPN, (line_in_row * LINE_SIZE) as u64)));
            trace.push(TraceOp::Compute(MAC_OPS_PER_VALUE * VALUES_PER_LINE as u32));
            if row != last_row {
                trace.push(TraceOp::Store(va(Y_VPN, (row * 8) as u64)));
                last_row = row;
            }
        }
        trace
    }

    /// Checks that the public timer's result, the streamed `kernel` and
    /// `run_trace` over `trace` agree, each on a machine from `build`,
    /// and that the last two leave the machine in the same state.
    fn check_streamed(
        what: &str,
        timing: SpmvTiming,
        build: impl Fn() -> PoResult<(Machine, Asid)>,
        kernel: impl FnOnce(&mut Machine, Asid) -> PoResult<SimStats>,
        trace: &[TraceOp],
    ) {
        let (mut listed_m, pid) = build().unwrap();
        let listed = run_trace(&mut listed_m, pid, trace).unwrap();
        let (mut streamed_m, pid) = build().unwrap();
        let streamed = kernel(&mut streamed_m, pid).unwrap();
        let want = (listed.cycles, listed.instructions);
        assert_eq!((timing.cycles, timing.instructions), want, "{what}: SpmvTiming");
        assert_eq!((streamed.cycles, streamed.instructions), want, "{what}: streamed stats");
        assert!(listed_m.save_snapshot() == streamed_m.save_snapshot(), "{what}: machine state");
    }

    #[test]
    fn streamed_kernels_match_the_listed_traces() {
        let timed = timed();
        let matrices = [
            ("clustered", gen::clustered(24, 128, 1_200, 5, true, 3)),
            ("uniform_random", gen::uniform_random(48, 128, 400, 5)),
            ("banded", gen::banded(64, 2, 7)),
            ("block_random", gen::block_random(32, 128, 3, 600, 11)),
        ];
        for (name, t) in &matrices {
            let (rows, cols) = (t.rows(), t.cols());
            let csr = CsrMatrix::from_triplets(t);
            let ovl = OverlayMatrix::from_triplets(t);
            check_streamed(
                &format!("{name} dense"),
                timed.time_dense(rows, cols).unwrap(),
                || timed.dense_machine(rows, cols),
                |m, pid| dense_kernel(m, pid, rows, cols),
                &dense_trace(rows, cols),
            );
            check_streamed(
                &format!("{name} CSR"),
                timed.time_csr(&csr).unwrap(),
                || timed.csr_machine(&csr),
                |m, pid| csr_kernel(m, pid, &csr),
                &csr_trace(&csr),
            );
            check_streamed(
                &format!("{name} overlay"),
                timed.time_overlay(&ovl).unwrap(),
                || timed.overlay_machine(&ovl),
                |m, pid| overlay_kernel(m, pid, &ovl),
                &overlay_trace(&ovl),
            );
        }
    }

    #[test]
    fn segment_accounting_matches_classes() {
        let mut t = TripletMatrix::new(8, 64); // exactly one page
        t.push(0, 0, 1.0); // 1 line → 256 B segment
        let ovl = OverlayMatrix::from_triplets(&t);
        assert_eq!(overlay_segment_bytes(&ovl), 256);
        for c in 0..32 {
            t.push(1, c, 1.0); // +4 lines → 8 total... keep it simple
        }
        let ovl = OverlayMatrix::from_triplets(&t);
        // 1 + 4 = 5 lines → 512 B segment.
        assert_eq!(ovl.nonzero_lines(), 5);
        assert_eq!(overlay_segment_bytes(&ovl), 512);
    }
}
