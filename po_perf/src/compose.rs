//! The traced run: each workload's scenario composed from the same
//! public calls the library makes, with a host-time measurement around
//! every call and, in the telemetry pass, an active telemetry sink on
//! every machine.
//!
//! The compositions mirror `po_sim::scenario::run_fork_experiment_on`,
//! `TimedSpmv::{time_overlay, time_csr}`, `po_mc::run_contended_fork`
//! (with `run_interleaved`'s schedule) and the runner's harness loop;
//! unit tests pin each one to its library twin, so the traced run
//! simulates exactly what the untraced run does.

use crate::replay::{self, ReplayTotals};
use crate::workload::{ForkRun, Inputs, McRun, SimSummary, SpmvInputs};
use po_sim::{Machine, SimHarness, SystemConfig, TraceOp};
use po_sparse::metrics::csr_bytes_from_parts;
use po_sparse::overlay_repr::VALUES_PER_LINE;
use po_sparse::timed::overlay_segment_bytes;
use po_sparse::{CsrMatrix, OverlayMatrix, SpmvTiming};
use po_telemetry::{CpiStack, TelemetrySink};
use po_types::geometry::{LINES_PER_PAGE, LINE_SIZE, PAGE_SIZE};
use po_types::{fingerprint64_bytes, Asid, LineData, PoResult, VirtAddr, Vpn};
use std::time::{Duration, Instant};

/// Journal ring shared out among a workload's machines: each of `n`
/// machines keeps the newest `JOURNAL_EVENTS / n` events for replay.
pub const JOURNAL_EVENTS: usize = 1 << 20;

/// The harness checkers are re-timed on the same state after every
/// `CHECK_EVERY`-th op.
const CHECK_EVERY: usize = 64;

// SpMV virtual layout and per-value compute, as `po_sparse::timed` lays
// the kernels out.
const A_VPN: u64 = 0x1_0000;
const VALUES_VPN: u64 = 0x2_0000;
const COLIDX_VPN: u64 = 0x3_0000;
const ROWPTR_VPN: u64 = 0x4_0000;
const X_VPN: u64 = 0x5_0000;
const Y_VPN: u64 = 0x6_0000;
const MAC_OPS_PER_VALUE: u32 = 2;

fn va(vpn_base: u64, byte_off: u64) -> VirtAddr {
    VirtAddr::new(vpn_base * PAGE_SIZE as u64 + byte_off)
}

fn pages_for(bytes: usize) -> u64 {
    bytes.div_ceil(PAGE_SIZE) as u64
}

/// The overlay SpMV kernel's trace: each non-zero line of A, its `x`
/// line, the multiply-adds, and one `y` store per row.
fn spmv_overlay_trace(ovl: &OverlayMatrix) -> Vec<TraceOp> {
    let lines_per_row = ovl.cols() / VALUES_PER_LINE;
    let mut trace = Vec::new();
    let mut last_row = usize::MAX;
    for (line, _) in ovl.iter_lines() {
        let row = line / lines_per_row;
        trace.push(TraceOp::Load(va(A_VPN, (line * LINE_SIZE) as u64)));
        trace.push(TraceOp::Load(va(X_VPN, ((line % lines_per_row) * LINE_SIZE) as u64)));
        trace.push(TraceOp::Compute(MAC_OPS_PER_VALUE * VALUES_PER_LINE as u32));
        if row != last_row {
            trace.push(TraceOp::Store(va(Y_VPN, (row * 8) as u64)));
            last_row = row;
        }
    }
    trace
}

/// Ops in the two SpMV kernels' traces, counted without building them.
pub fn spmv_ops(ovl: &OverlayMatrix, csr: &CsrMatrix) -> usize {
    let lines_per_row = ovl.cols() / VALUES_PER_LINE;
    let mut rows = 0;
    let mut last_row = usize::MAX;
    for (line, _) in ovl.iter_lines() {
        if line / lines_per_row != last_row {
            rows += 1;
            last_row = line / lines_per_row;
        }
    }
    3 * ovl.nonzero_lines() + rows + 2 * csr.rows() + 4 * csr.nnz()
}

/// The CSR SpMV kernel's trace: row pointer, then per non-zero its
/// column index, value and `x` gather, then the `y` store.
fn spmv_csr_trace(csr: &CsrMatrix) -> Vec<TraceOp> {
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

/// A fresh machine with one process mapping `pages` pages at `base`.
fn mapped_machine(config: SystemConfig, base: Vpn, pages: u64) -> PoResult<(Machine, Asid)> {
    let mut m = Machine::new(config)?;
    let pid = m.spawn_process()?;
    m.map_range(pid, base, pages)?;
    Ok((m, pid))
}

/// The overlay kernel's machine: A through the shared zero page with
/// every non-zero line seeded into the OMS, plus `x` and `y`.
fn spmv_overlay_machine(config: &SystemConfig, ovl: &OverlayMatrix) -> PoResult<(Machine, Asid)> {
    let config = SystemConfig { overlay_mode: true, ..config.clone() };
    let mut m = Machine::new(config)?;
    let pid = m.spawn_process()?;
    let a_pages = pages_for(ovl.rows() * ovl.cols() * 8).max(1);
    m.map_shared_zero_range(pid, Vpn::new(A_VPN), a_pages)?;
    m.map_range(pid, Vpn::new(X_VPN), pages_for(ovl.cols() * 8))?;
    m.map_range(pid, Vpn::new(Y_VPN), pages_for(ovl.rows() * 8))?;
    for (line, vals) in ovl.iter_lines() {
        let vpn = Vpn::new(A_VPN + (line / LINES_PER_PAGE) as u64);
        m.seed_overlay_line(pid, vpn, line % LINES_PER_PAGE, LineData::from_f64x8(*vals))?;
    }
    Ok((m, pid))
}

/// The CSR kernel's machine: values, column indices, row pointers,
/// `x` and `y`, each in private pages.
fn spmv_csr_machine(config: &SystemConfig, csr: &CsrMatrix) -> PoResult<(Machine, Asid)> {
    let mut m = Machine::new(config.clone())?;
    let pid = m.spawn_process()?;
    m.map_range(pid, Vpn::new(VALUES_VPN), pages_for(csr.nnz() * 8).max(1))?;
    m.map_range(pid, Vpn::new(COLIDX_VPN), pages_for(csr.nnz() * 4).max(1))?;
    m.map_range(pid, Vpn::new(ROWPTR_VPN), pages_for((csr.rows() + 1) * 4).max(1))?;
    m.map_range(pid, Vpn::new(X_VPN), pages_for(csr.cols() * 8))?;
    m.map_range(pid, Vpn::new(Y_VPN), pages_for(csr.rows() * 8))?;
    Ok((m, pid))
}

fn mc_config(m: &McRun) -> SystemConfig {
    SystemConfig { cores: m.spec.cores.max(1), ..m.config.clone() }
}

/// Builds, maps and drops every machine one rep of `inputs` uses — the
/// machine half of the benchmark's set-up time.
///
/// # Errors
///
/// Machine faults.
pub fn build_machines(inputs: &Inputs) -> PoResult<()> {
    match inputs {
        Inputs::Fork(runs) => {
            for r in runs {
                mapped_machine(r.config.clone(), r.base_vpn, r.mapped_pages)?;
            }
        }
        Inputs::Spmv(s) => {
            spmv_overlay_machine(&s.config, &s.ovl)?;
            spmv_csr_machine(&s.config, &s.csr)?;
        }
        Inputs::Mc(runs) => {
            for m in runs {
                mapped_machine(mc_config(m), Vpn::new(m.spec.base_vpn), m.spec.pages)?;
            }
        }
        Inputs::Soak(s) => {
            for _ in &s.streams {
                SimHarness::new(s.config.clone())?;
            }
        }
    }
    Ok(())
}

/// Index of a trace op's kind in [`crate::metrics::OP_KINDS`].
pub fn op_kind(op: &TraceOp) -> usize {
    match op {
        TraceOp::Compute(_) => 0,
        TraceOp::Load(_) => 1,
        TraceOp::Store(_) => 2,
        TraceOp::Spawn => 3,
        TraceOp::Map { .. } => 4,
        TraceOp::Fork { .. } => 5,
        TraceOp::Poke { .. } => 6,
        TraceOp::Peek { .. } => 7,
        TraceOp::SeedLine { .. } => 8,
        TraceOp::CommitPage { .. } => 9,
        TraceOp::DiscardPage { .. } => 10,
        TraceOp::Flush => 11,
        TraceOp::Reclaim => 12,
        TraceOp::Compact => 13,
        TraceOp::OnCore { .. } => 14,
    }
}

/// A timed public call.
#[derive(Clone, Copy, Debug)]
pub enum Call {
    /// `Machine::execute[_at_core]` of a `Load`, `Store` or `Compute`.
    Execute(usize),
    Fork,
    FlushOverlays,
    /// `save_snapshot` plus its FNV-1a fingerprint.
    Fingerprint,
    /// The whole multi-core schedule.
    Schedule,
    /// `SimHarness::apply` of an op of the given kind.
    Apply(usize),
    VerifyInvariants,
    CheckRefinement,
    CheckAll,
}

const CALLS: usize = 7 + 2 * crate::metrics::OP_KINDS.len();

impl Call {
    fn index(self) -> usize {
        let kinds = crate::metrics::OP_KINDS.len();
        match self {
            Call::Execute(k) => k,
            Call::Apply(k) => kinds + k,
            Call::Fork => 2 * kinds,
            Call::FlushOverlays => 2 * kinds + 1,
            Call::Fingerprint => 2 * kinds + 2,
            Call::Schedule => 2 * kinds + 3,
            Call::VerifyInvariants => 2 * kinds + 4,
            Call::CheckRefinement => 2 * kinds + 5,
            Call::CheckAll => 2 * kinds + 6,
        }
    }
}

/// Host time and call counts per [`Call`].
#[derive(Clone, Debug)]
pub struct Timings {
    ns: [u128; CALLS],
    calls: [u64; CALLS],
}

impl Default for Timings {
    fn default() -> Self {
        Self { ns: [0; CALLS], calls: [0; CALLS] }
    }
}

impl Timings {
    fn add(&mut self, call: Call, d: Duration) {
        self.ns[call.index()] += d.as_nanos();
        self.calls[call.index()] += 1;
    }

    fn time<R>(&mut self, call: Call, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let r = f();
        self.add(call, t.elapsed());
        r
    }

    /// Mean nanoseconds per call (0 when never called).
    pub fn mean_ns(&self, call: Call) -> f64 {
        let i = call.index();
        if self.calls[i] == 0 {
            0.0
        } else {
            self.ns[i] as f64 / self.calls[i] as f64
        }
    }

    /// Total nanoseconds across calls.
    pub fn total_ns(&self, call: Call) -> f64 {
        self.ns[call.index()] as f64
    }
}

/// Exact simulated counters summed over a workload's machines.
#[derive(Clone, Debug, Default)]
pub struct Counts {
    pub tlb_lookups: u64,
    pub tlb_l1_hits: u64,
    pub tlb_misses: u64,
    pub cache_accesses: u64,
    pub cache_l1_hits: u64,
    pub cache_l2_hits: u64,
    pub cache_l3_hits: u64,
    pub cache_misses: u64,
    pub prefetch_issued: u64,
    pub omt_cache_hits: u64,
    pub omt_cache_misses: u64,
    pub oms_allocations: u64,
    pub oms_bytes_in_use: u64,
    /// The worst end-of-run fragmentation ratio among the machines.
    pub oms_fragmentation: f64,
    pub dram_reads: u64,
    pub dram_writes: u64,
    pub dram_row_hits: u64,
    pub dram_row_accesses: u64,
    pub pages_copied: u64,
    pub overlaying_writes: u64,
    pub promotions: u64,
    pub reclaims: u64,
    pub obit_msgs: u64,
    pub invalidations: u64,
    pub coh_stall_cycles: u64,
    pub contention_stall_cycles: u64,
}

impl Counts {
    /// Adds `m`'s counters, read through its public stats accessors.
    pub fn add(&mut self, m: &Machine) {
        for c in 0..m.cores() {
            let t = m.tlb_of(c).stats();
            self.tlb_l1_hits += t.l1_hits.get();
            self.tlb_misses += t.misses.get();
            self.tlb_lookups += t.l1_hits.get() + t.l2_hits.get() + t.misses.get();
        }
        let h = m.caches().stats();
        self.cache_accesses += h.accesses.get();
        self.cache_l1_hits += h.l1_hits.get();
        self.cache_l2_hits += h.l2_hits.get();
        self.cache_l3_hits += h.l3_hits.get();
        self.cache_misses += h.misses.get();
        self.prefetch_issued += m.caches().prefetcher().stats().issued.get();
        let overlay = m.overlay();
        self.omt_cache_hits += overlay.omt_cache().stats().hits.get();
        self.omt_cache_misses += overlay.omt_cache().stats().misses.get();
        self.oms_allocations += overlay.store().stats().allocations.get();
        self.oms_bytes_in_use += overlay.store().bytes_in_use();
        self.oms_fragmentation = self.oms_fragmentation.max(overlay.store().fragmentation_ratio());
        self.reclaims += overlay.stats().reclaims.get();
        let d = m.dram().stats();
        self.dram_reads += d.reads.get();
        self.dram_writes += d.writes.get();
        self.dram_row_hits += d.row_hits.get();
        self.dram_row_accesses += d.row_hits.get() + d.row_closed.get() + d.row_conflicts.get();
        let s = m.snapshot();
        self.pages_copied += s.pages_copied.get();
        self.overlaying_writes += s.overlaying_writes.get();
        self.promotions += s.promotions.get();
        self.obit_msgs += s.coherence_obit_msgs.get();
        self.invalidations += s.coherence_invalidations.get();
        self.coh_stall_cycles += s.coherence_stall_cycles.get();
        self.contention_stall_cycles += s.contention_stall_cycles.get();
    }
}

/// Everything one traced rep produced.
#[derive(Debug, Default)]
pub struct Traced {
    /// This rep ran with an active telemetry sink (journal and CPI
    /// stack); otherwise only the per-call host timings were taken.
    pub telemetry: bool,
    pub summary: Option<SimSummary>,
    /// Host seconds of the composed scenario (replays, stats reads and
    /// checker re-timings excluded).
    pub secs: f64,
    pub timings: Timings,
    pub counts: Counts,
    pub cpi: CpiStack,
    pub replays: ReplayTotals,
    /// Scheduling quanta (multi-core only).
    pub quanta: u64,
    /// Live harness processes at the end of a stream, on average (soak
    /// only).
    pub procs: u64,
}

impl Traced {
    /// A machine's sink: one whose journal keeps `events` records when
    /// this rep runs with telemetry (the span ring is off; the CPI stack
    /// aggregates regardless), otherwise the no-op sink.
    fn sink(&self, events: usize) -> TelemetrySink {
        if self.telemetry {
            TelemetrySink::with_capacity(events.max(1), 0)
        } else {
            TelemetrySink::noop()
        }
    }
}

/// Per-machine epilogue: read the counters, fold the CPI stack, replay
/// the journal. None of it is part of the scenario's host time.
fn absorb(t: &mut Traced, m: &Machine, sink: &TelemetrySink) {
    t.counts.add(m);
    if let Some(stack) = sink.cpi_stack() {
        t.cpi.merge(&stack);
    }
    let records = sink.with_core(|c| c.journal().records().copied().collect::<Vec<_>>());
    replay::replay(m.config(), &records.unwrap_or_default(), &mut t.replays);
}

/// Host nanoseconds the timing of one call adds (an `Instant::now` and
/// an `elapsed`): the part of every per-call timing that is the timer.
pub fn timer_ns() -> f64 {
    const N: u32 = 100_000;
    let start = Instant::now();
    let mut total = Duration::ZERO;
    for _ in 0..N {
        let t = Instant::now();
        total += std::hint::black_box(t.elapsed());
    }
    std::hint::black_box(total);
    start.elapsed().as_nanos() as f64 / f64::from(N)
}

/// Executes `ops` on core `core` as `pid`, timing each call by kind.
fn execute(
    t: &mut Timings,
    m: &mut Machine,
    core: usize,
    pid: Asid,
    ops: &[TraceOp],
) -> PoResult<()> {
    for op in ops {
        let s = Instant::now();
        m.execute_at_core(core, pid, op)?;
        t.add(Call::Execute(op_kind(op)), s.elapsed());
    }
    Ok(())
}

/// Runs one traced rep of `inputs`: per-call host timings always, and
/// an active telemetry sink on every machine when `telemetry` is set.
///
/// # Errors
///
/// A machine fault or harness finding, described.
pub fn run_traced(inputs: &Inputs, telemetry: bool) -> Result<Traced, String> {
    let mut t = Traced { telemetry, ..Traced::default() };
    let mut parts = Vec::new();
    match inputs {
        Inputs::Fork(runs) => {
            let events = JOURNAL_EVENTS / runs.len().max(1);
            for r in runs {
                parts.push(
                    traced_fork(&mut t, r, events)
                        .map_err(|e| format!("fork/{}: {e:?}", r.name))?,
                );
            }
        }
        Inputs::Spmv(s) => {
            let (o, c) = traced_spmv(&mut t, s).map_err(|e| format!("spmv: {e:?}"))?;
            parts = vec![SimSummary::spmv_kernel(&o, true), SimSummary::spmv_kernel(&c, false)];
        }
        Inputs::Mc(runs) => {
            let events = JOURNAL_EVENTS / runs.len().max(1);
            for run in runs {
                parts.push(
                    traced_mc(&mut t, run, events).map_err(|e| format!("contended fork: {e:?}"))?,
                );
            }
        }
        Inputs::Soak(s) => {
            let events = JOURNAL_EVENTS / s.streams.len().max(1);
            for (i, ops) in s.streams.iter().enumerate() {
                parts.push(
                    traced_soak(&mut t, &s.config, ops, events)
                        .map_err(|e| format!("stream {i}: {e}"))?,
                );
            }
            t.procs /= s.streams.len().max(1) as u64;
        }
    }
    t.summary = Some(SimSummary::total(&parts));
    Ok(t)
}

/// `run_fork_experiment_on` plus the runner's final fingerprint.
fn traced_fork(t: &mut Traced, r: &ForkRun, events: usize) -> PoResult<SimSummary> {
    let sink = t.sink(events);
    let start = Instant::now();
    let (mut m, parent) = mapped_machine(r.config.clone(), r.base_vpn, r.mapped_pages)?;
    m.install_telemetry(sink.clone());
    execute(&mut t.timings, &mut m, 0, parent, &r.warmup)?;
    t.timings.time(Call::Fork, || m.fork(parent))?;
    m.mark_memory_epoch();
    let before = m.snapshot();
    execute(&mut t.timings, &mut m, 0, parent, &r.post)?;
    let after = m.snapshot();
    t.timings.time(Call::FlushOverlays, || m.flush_overlays())?;
    let extra_bytes = m.extra_memory_bytes();
    let fingerprint = t.timings.time(Call::Fingerprint, || fingerprint64_bytes(&m.save_snapshot()));
    t.secs += start.elapsed().as_secs_f64();
    absorb(t, &m, &sink);
    Ok(SimSummary {
        fingerprint,
        cycles: after.cycles - before.cycles,
        instructions: after.instructions - before.instructions,
        extra_bytes,
        base_bytes: r.mapped_pages * PAGE_SIZE as u64,
    })
}

/// One SpMV kernel: `run_trace` on a freshly built machine. The trace
/// is built before the clock starts (`TimedSpmv` builds its own inside
/// the call, so the traced kernels run slightly shorter).
fn spmv_kernel(
    t: &mut Traced,
    build: impl FnOnce() -> PoResult<(Machine, Asid)>,
    trace: &[TraceOp],
    memory_bytes: u64,
) -> PoResult<SpmvTiming> {
    let sink = t.sink(JOURNAL_EVENTS / 2);
    let start = Instant::now();
    let (mut m, pid) = build()?;
    m.install_telemetry(sink.clone());
    let before = m.snapshot();
    execute(&mut t.timings, &mut m, 0, pid, trace)?;
    let after = m.snapshot();
    t.timings.time(Call::Fingerprint, || fingerprint64_bytes(&m.save_snapshot()));
    t.secs += start.elapsed().as_secs_f64();
    absorb(t, &m, &sink);
    Ok(SpmvTiming {
        cycles: after.cycles - before.cycles,
        instructions: after.instructions - before.instructions,
        memory_bytes,
    })
}

/// `TimedSpmv::time_overlay` then `time_csr`.
fn traced_spmv(t: &mut Traced, s: &SpmvInputs) -> PoResult<(SpmvTiming, SpmvTiming)> {
    let overlay_bytes = overlay_segment_bytes(&s.ovl);
    let csr_bytes = csr_bytes_from_parts(s.csr.nnz(), s.csr.rows());
    let trace = spmv_overlay_trace(&s.ovl);
    let o = spmv_kernel(t, || spmv_overlay_machine(&s.config, &s.ovl), &trace, overlay_bytes)?;
    let trace = spmv_csr_trace(&s.csr);
    let c = spmv_kernel(t, || spmv_csr_machine(&s.config, &s.csr), &trace, csr_bytes)?;
    Ok((o, c))
}

/// `run_contended_fork`: warm every line on core 0, fork, then the
/// per-core streams in `run_interleaved`'s schedule — the unfinished
/// core with the smallest `(cycles, core)` runs the next quantum.
fn traced_mc(t: &mut Traced, mc: &McRun, events: usize) -> PoResult<SimSummary> {
    let spec = &mc.spec;
    let sink = t.sink(events);
    let start = Instant::now();
    let (mut m, parent) = mapped_machine(mc_config(mc), Vpn::new(spec.base_vpn), spec.pages)?;
    m.install_telemetry(sink.clone());
    let warmup: Vec<TraceOp> = (0..spec.pages)
        .flat_map(|page| {
            (0..LINES_PER_PAGE).map(move |line| {
                TraceOp::Store(va(spec.base_vpn + page, (line * LINE_SIZE) as u64))
            })
        })
        .collect();
    execute(&mut t.timings, &mut m, 0, parent, &warmup)?;
    t.timings.time(Call::Fork, || m.fork(parent))?;
    m.mark_memory_epoch();

    let sched = Instant::now();
    let before = m.snapshot();
    let streams = &mc.streams;
    let quantum = spec.quantum_ops.max(1);
    let mut cursors = vec![0usize; streams.len()];
    loop {
        let next = (0..streams.len())
            .filter(|&c| cursors[c] < streams[c].len())
            .min_by_key(|&c| (m.core_cycles(c), c));
        let Some(core) = next else { break };
        t.quanta += 1;
        let end = (cursors[core] + quantum).min(streams[core].len());
        execute(&mut t.timings, &mut m, core, parent, &streams[core][cursors[core]..end])?;
        cursors[core] = end;
    }
    let after = m.snapshot();
    t.timings.add(Call::Schedule, sched.elapsed());

    t.timings.time(Call::FlushOverlays, || m.flush_overlays())?;
    let extra_bytes = m.extra_memory_bytes();
    let fingerprint = t.timings.time(Call::Fingerprint, || fingerprint64_bytes(&m.save_snapshot()));
    t.secs += start.elapsed().as_secs_f64();
    absorb(t, &m, &sink);
    Ok(SimSummary {
        fingerprint,
        cycles: after.cycles - before.cycles,
        instructions: after.instructions - before.instructions,
        extra_bytes,
        base_bytes: spec.pages * PAGE_SIZE as u64,
    })
}

/// The runner's harness loop (`drive_ops` then `check_all`). Without
/// telemetry the `&self` checkers are also re-timed on the same state
/// every [`CHECK_EVERY`] ops; re-timing is measurement, so it is left
/// out of the rep's time.
fn traced_soak(
    t: &mut Traced,
    config: &SystemConfig,
    ops: &[TraceOp],
    events: usize,
) -> Result<SimSummary, String> {
    let sink = t.sink(events);
    let start = Instant::now();
    let mut rechecks = Duration::ZERO;
    let mut h = SimHarness::new(config.clone()).map_err(|e| format!("harness: {e:?}"))?;
    h.machine.install_telemetry(sink.clone());
    for (i, op) in ops.iter().enumerate() {
        let s = Instant::now();
        h.apply(op).map_err(|e| format!("op {i}: {e}"))?;
        t.timings.add(Call::Apply(op_kind(op)), s.elapsed());
        if !t.telemetry && i % CHECK_EVERY == CHECK_EVERY - 1 {
            let s = Instant::now();
            t.timings
                .time(Call::VerifyInvariants, || h.machine.verify_invariants())
                .map_err(|e| format!("invariants after op {i}: {e:?}"))?;
            t.timings
                .time(Call::CheckRefinement, || h.spec.check_refinement(&h.machine, &h.procs))?;
            t.timings.time(Call::CheckAll, || h.check_all())?;
            rechecks += s.elapsed();
        }
    }
    t.timings.time(Call::CheckAll, || h.check_all())?;
    let summary = t.timings.time(Call::Fingerprint, || SimSummary::soak_stream(&h));
    t.secs += (start.elapsed() - rechecks).as_secs_f64();
    t.procs += h.procs.len() as u64;
    absorb(t, &h.machine, &sink);
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::tests::TINY;
    use crate::workload::{setup, warm_up, Workload};
    use po_sparse::TimedSpmv;

    #[test]
    fn traced_scenarios_match_the_library_runs() {
        for w in Workload::ALL {
            let (mut inputs, _) = setup(w, &TINY, 11).unwrap();
            let untraced = warm_up(&mut inputs).unwrap();
            for telemetry in [false, true] {
                let traced = run_traced(&inputs, telemetry).unwrap();
                assert_eq!(traced.summary, Some(untraced.summary), "{}", w.name());
                assert!(traced.secs > 0.0);
                assert_eq!(traced.replays.cache.calls > 0, telemetry, "{}: cache replay", w.name());
                assert_eq!(traced.cpi.instructions() > 0, telemetry, "{}: CPI stack", w.name());
            }
        }
    }

    #[test]
    fn spmv_traces_match_timed_spmv() {
        let (inputs, _) = setup(Workload::Spmv, &TINY, 2).unwrap();
        let Inputs::Spmv(sp) = &inputs else { panic!("spmv inputs") };
        let traces = spmv_overlay_trace(&sp.ovl).len() + spmv_csr_trace(&sp.csr).len();
        assert_eq!(inputs.ops() as usize, traces);
        let mut t = Traced::default();
        let (o, c) = traced_spmv(&mut t, sp).unwrap();
        let timed = TimedSpmv::new(sp.config.clone());
        let (lo, lc) = (timed.time_overlay(&sp.ovl).unwrap(), timed.time_csr(&sp.csr).unwrap());
        assert_eq!(
            (o.cycles, o.instructions, o.memory_bytes),
            (lo.cycles, lo.instructions, lo.memory_bytes)
        );
        assert_eq!(
            (c.cycles, c.instructions, c.memory_bytes),
            (lc.cycles, lc.instructions, lc.memory_bytes)
        );
    }

    #[test]
    fn mc_schedule_matches_run_interleaved() {
        let (inputs, _) = setup(Workload::Mc4Contended, &TINY, 4).unwrap();
        let Inputs::Mc(runs) = &inputs else { panic!("mc inputs") };
        let mc = &runs[0];
        let out =
            po_mc::run_contended_fork(mc.config.clone(), &mc.spec, TelemetrySink::noop()).unwrap();
        let mut t = Traced::default();
        let summary = traced_mc(&mut t, mc, JOURNAL_EVENTS).unwrap();
        assert_eq!(t.quanta, out.sched.quanta);
        assert_eq!(summary.fingerprint, out.snapshot_fingerprint);
        assert!(t.counts.obit_msgs > 0, "the contended fork must exchange OBitVector updates");
    }

    #[test]
    fn every_op_kind_has_a_distinct_index() {
        let ops = [
            TraceOp::Compute(1),
            TraceOp::Load(VirtAddr::new(0)),
            TraceOp::Store(VirtAddr::new(0)),
            TraceOp::Spawn,
            TraceOp::Map { proc_sel: 0, start: 0, count: 1 },
            TraceOp::Fork { proc_sel: 0 },
            TraceOp::Poke { proc_sel: 0, va: VirtAddr::new(0), value: 0 },
            TraceOp::Peek { proc_sel: 0, va: VirtAddr::new(0) },
            TraceOp::SeedLine { proc_sel: 0, vpn: 0, line: 0, value: 0 },
            TraceOp::CommitPage { proc_sel: 0, vpn: 0 },
            TraceOp::DiscardPage { proc_sel: 0, vpn: 0 },
            TraceOp::Flush,
            TraceOp::Reclaim,
            TraceOp::Compact,
            TraceOp::OnCore { core_sel: 0 },
        ];
        let idx: Vec<usize> = ops.iter().map(op_kind).collect();
        assert_eq!(idx, (0..crate::metrics::OP_KINDS.len()).collect::<Vec<_>>());
    }
}
