//! Timed SpMV on the simulated machine (Figure 10).
//!
//! One SpMV iteration is expressed as a memory trace — the loads of the
//! matrix representation, the `x` gathers, the `y` updates, and the
//! multiply-accumulate compute — and executed on the Table 2 machine.
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
use po_sim::{run_trace, Machine, SystemConfig, TraceOp};
use po_telemetry::TelemetrySink;
use po_types::geometry::{LINE_SIZE, PAGE_SIZE};
use po_types::{LineData, PoResult, VirtAddr, Vpn};

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
        let mut m = Machine::new(self.config.clone())?;
        m.install_telemetry(self.sink.clone());
        let pid = m.spawn_process()?;
        m.map_range(pid, Vpn::new(A_VPN), pages_for(rows * cols * 8))?;
        m.map_range(pid, Vpn::new(X_VPN), pages_for(cols * 8))?;
        m.map_range(pid, Vpn::new(Y_VPN), pages_for(rows * 8))?;

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
        let stats = run_trace(&mut m, pid, &trace)?;
        m.publish_stats();
        Ok(SpmvTiming {
            cycles: stats.cycles,
            instructions: stats.instructions,
            memory_bytes: (rows * cols * 8) as u64,
        })
    }

    /// Times a CSR SpMV.
    ///
    /// # Errors
    ///
    /// Propagates machine faults.
    pub fn time_csr(&self, csr: &CsrMatrix) -> PoResult<SpmvTiming> {
        let mut m = Machine::new(self.config.clone())?;
        m.install_telemetry(self.sink.clone());
        let pid = m.spawn_process()?;
        m.map_range(pid, Vpn::new(VALUES_VPN), pages_for(csr.nnz() * 8).max(1))?;
        m.map_range(pid, Vpn::new(COLIDX_VPN), pages_for(csr.nnz() * 4).max(1))?;
        m.map_range(pid, Vpn::new(ROWPTR_VPN), pages_for((csr.rows() + 1) * 4).max(1))?;
        m.map_range(pid, Vpn::new(X_VPN), pages_for(csr.cols() * 8))?;
        m.map_range(pid, Vpn::new(Y_VPN), pages_for(csr.rows() * 8))?;

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
        let stats = run_trace(&mut m, pid, &trace)?;
        m.publish_stats();
        Ok(SpmvTiming {
            cycles: stats.cycles,
            instructions: stats.instructions,
            memory_bytes: crate::metrics::csr_bytes_from_parts(csr.nnz(), csr.rows()),
        })
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
        let mut config = self.config.clone();
        config.overlay_mode = true;
        let mut m = Machine::new(config)?;
        m.install_telemetry(self.sink.clone());
        let pid = m.spawn_process()?;
        let a_pages = pages_for(ovl.rows() * ovl.cols() * 8).max(1);
        m.map_shared_zero_range(pid, Vpn::new(A_VPN), a_pages)?;
        m.map_range(pid, Vpn::new(X_VPN), pages_for(ovl.cols() * 8))?;
        m.map_range(pid, Vpn::new(Y_VPN), pages_for(ovl.rows() * 8))?;

        // Materialize the overlays in the OMS.
        let lines_per_page = PAGE_SIZE / LINE_SIZE;
        for (line, vals) in ovl.iter_lines() {
            let vpn = Vpn::new(A_VPN + (line / lines_per_page) as u64);
            let mut arr = [0.0f64; VALUES_PER_LINE];
            arr.copy_from_slice(vals);
            m.seed_overlay_line(pid, vpn, line % lines_per_page, LineData::from_f64x8(arr))?;
        }

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
        let stats = run_trace(&mut m, pid, &trace)?;
        m.publish_stats();
        Ok(SpmvTiming {
            cycles: stats.cycles,
            instructions: stats.instructions,
            memory_bytes: overlay_segment_bytes(ovl),
        })
    }
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
