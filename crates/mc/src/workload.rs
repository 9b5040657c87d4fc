//! The contended-fork workload: the §5.1 fork scenario driven by
//! several cores at once, built to make every multi-core mechanism
//! fire on purpose.
//!
//! Shape: a parent process maps and warms a page range, forks (every
//! page becomes CoW-shared — overlay-enabled in overlay mode), then
//! each core drives its own post-fork stream against the *same* pages:
//!
//! * every core first sweeps the range with loads, so every core's TLB
//!   holds a copy of every page's OBitVector;
//! * each core then stores to its own *slice of lines* within each
//!   page — overlaying writes whose §4.3.3 OBitVector-update messages
//!   land on the other cores' live TLB copies (`coherence_obit_msgs`),
//!   with loads of the other cores' slices mixed in to keep the copies
//!   hot;
//! * the slices jointly cover whole pages, so the core that writes the
//!   last line triggers a promotion (§4.3.4) whose shootdown
//!   invalidates every other core's entry (`coherence_invalidations`);
//! * concurrent misses from cores whose frontiers the scheduler keeps
//!   aligned pile onto the shared L3 banks and the DRAM-bandwidth
//!   bucket (`contention_stall_cycles`, `Layer::Contention`).

use crate::sched::{run_interleaved, McSchedule};
use po_sim::{Machine, SystemConfig, TraceOp};
use po_telemetry::TelemetrySink;
use po_types::geometry::{LINES_PER_PAGE, LINE_SIZE, PAGE_SIZE};
use po_types::{fingerprint64_bytes, PoResult, SplitMix64, VirtAddr, Vpn};

/// Parameters of one contended-fork run.
#[derive(Clone, Debug)]
pub struct ContendedForkSpec {
    /// Cores driving the post-fork phase (the machine is built with
    /// this many; clamped to at least 1).
    pub cores: usize,
    /// First shared page.
    pub base_vpn: u64,
    /// Shared pages (all cores hammer the same range).
    pub pages: u64,
    /// Timed ops per core in the post-fork phase.
    pub ops_per_core: usize,
    /// Scheduling quantum, in ops.
    pub quantum_ops: usize,
    /// Stream-generation seed.
    pub seed: u64,
}

impl ContendedForkSpec {
    /// A spec sized for the `fig_multicore` bench: 16 shared pages,
    /// enough stores per core that the per-core line slices jointly
    /// promote pages.
    pub fn standard(cores: usize, seed: u64) -> Self {
        Self {
            cores: cores.max(1),
            base_vpn: 0x400,
            pages: 16,
            ops_per_core: 3000,
            quantum_ops: 16,
            seed,
        }
    }
}

/// Builds the per-core post-fork streams described in the module docs.
/// `streams[c]` is core `c`'s stream; with one core the single stream
/// is the whole workload (the uncontended baseline).
pub fn build_core_streams(spec: &ContendedForkSpec) -> Vec<Vec<TraceOp>> {
    let cores = spec.cores.max(1);
    let lines_per_core = (LINES_PER_PAGE / cores).max(1);
    let addr = |page: u64, line: usize| {
        VirtAddr::new((spec.base_vpn + page) * PAGE_SIZE as u64 + (line * LINE_SIZE) as u64)
    };
    (0..cores)
        .map(|c| {
            let mut rng =
                SplitMix64::new(spec.seed ^ (c as u64).wrapping_mul(0xA076_1D64_78BD_642F));
            let mut ops = Vec::with_capacity(spec.ops_per_core);
            // Sweep: one load per page fills this core's TLB with the
            // shared entries the other cores' writes will update.
            for page in 0..spec.pages {
                ops.push(TraceOp::Load(addr(page, (c * lines_per_core) % LINES_PER_PAGE)));
            }
            // This core's line slice, walked in page-major order so
            // writes from different cores to the same page interleave
            // in simulated time.
            let first_line = c * lines_per_core;
            let last_line =
                if c == cores - 1 { LINES_PER_PAGE } else { first_line + lines_per_core };
            let mut page = 0u64;
            let mut line = first_line;
            while ops.len() < spec.ops_per_core {
                let r = rng.next_u64();
                match r % 8 {
                    // Stores dominate: each advances this core's slice.
                    0..=3 => {
                        ops.push(TraceOp::Store(addr(page, line)));
                        line += 1;
                        if line >= last_line {
                            line = first_line;
                            page = (page + 1) % spec.pages;
                        }
                    }
                    // Loads of a *different* core's slice keep remote
                    // lines (and this core's TLB copies) hot.
                    4..=5 => {
                        let other = ((r >> 8) as usize) % LINES_PER_PAGE;
                        ops.push(TraceOp::Load(addr((r >> 16) % spec.pages, other)));
                    }
                    _ => ops.push(TraceOp::Compute(1 + ((r >> 24) % 8) as u32)),
                }
            }
            ops
        })
        .collect()
}

/// What one contended-fork run reports.
#[derive(Clone, Debug)]
pub struct ContendedForkOutcome {
    /// Cores the machine ran with.
    pub cores: usize,
    /// The scheduled run: stats delta, per-core lanes, quanta.
    pub sched: McSchedule,
    /// CPI of the post-fork phase.
    pub cpi: f64,
    /// Extra memory since the post-fork epoch, bytes.
    pub extra_memory_bytes: u64,
    /// FNV-1a fingerprint of the machine's final byte-stable snapshot —
    /// identical across host thread counts by construction.
    pub snapshot_fingerprint: u64,
}

impl ContendedForkOutcome {
    /// Cycles timed accesses stalled on shared-resource contention.
    pub fn contention_stall_cycles(&self) -> u64 {
        self.sched.stats.contention_stall_cycles.get()
    }

    /// §4.3.3 single-line OBitVector updates delivered to remote cores.
    pub fn coherence_obit_msgs(&self) -> u64 {
        self.sched.stats.coherence_obit_msgs.get()
    }

    /// Remote TLB entries invalidated by cross-core promotions/commits.
    pub fn coherence_invalidations(&self) -> u64 {
        self.sched.stats.coherence_invalidations.get()
    }

    /// Cycles stalled on coherence delivery to remote cores.
    pub fn coherence_stall_cycles(&self) -> u64 {
        self.sched.stats.coherence_stall_cycles.get()
    }
}

/// Runs the contended-fork workload: warmup on core 0, fork, epoch
/// mark, then the per-core streams interleaved by simulated time.
/// `config.cores` is overridden by the spec.
///
/// # Errors
///
/// Propagates machine faults.
pub fn run_contended_fork(
    config: SystemConfig,
    spec: &ContendedForkSpec,
    sink: TelemetrySink,
) -> PoResult<ContendedForkOutcome> {
    let cores = spec.cores.max(1);
    let config = SystemConfig { cores, ..config };
    let mut machine = Machine::new(config)?;
    machine.install_telemetry(sink);
    let parent = machine.spawn_process()?;
    machine.map_range(parent, Vpn::new(spec.base_vpn), spec.pages)?;

    // Warmup (core 0): touch every line so the fork shares real data.
    for page in 0..spec.pages {
        for line in 0..LINES_PER_PAGE {
            let va = VirtAddr::new(
                (spec.base_vpn + page) * PAGE_SIZE as u64 + (line * LINE_SIZE) as u64,
            );
            machine.execute_at_core(0, parent, &TraceOp::Store(va))?;
        }
    }
    let _checkpoint = machine.fork(parent)?;
    machine.mark_memory_epoch();

    let streams = build_core_streams(spec);
    let sched = run_interleaved(&mut machine, parent, &streams, spec.quantum_ops)?;
    machine.flush_overlays()?;
    machine.publish_stats();
    let cpi = sched.stats.cpi();
    Ok(ContendedForkOutcome {
        cores,
        cpi,
        extra_memory_bytes: machine.extra_memory_bytes(),
        snapshot_fingerprint: fingerprint64_bytes(&machine.save_snapshot()),
        sched,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use po_telemetry::Layer;

    fn spec(cores: usize) -> ContendedForkSpec {
        ContendedForkSpec { ops_per_core: 1200, ..ContendedForkSpec::standard(cores, 0xF0_4C) }
    }

    #[test]
    fn four_core_run_shows_contention_and_coherence_traffic() {
        let sink = TelemetrySink::with_capacity(64, 64);
        let out =
            run_contended_fork(SystemConfig::table2_overlay(), &spec(4), sink.clone()).unwrap();
        assert!(out.contention_stall_cycles() > 0, "shared L3/DRAM must queue: {out:?}");
        assert!(out.coherence_obit_msgs() > 0, "remote OBitVector copies must be updated");
        assert!(out.coherence_invalidations() > 0, "cross-core promotions must shoot down");
        let stack = sink.cpi_stack().expect("sink is active");
        assert!(
            stack.layer_cycles(Layer::Contention) > 0,
            "contention stalls must surface as the Contention CPI slice"
        );
    }

    #[test]
    fn single_core_run_has_no_contention_or_coherence_traffic() {
        let out =
            run_contended_fork(SystemConfig::table2_overlay(), &spec(1), TelemetrySink::noop())
                .unwrap();
        assert_eq!(out.contention_stall_cycles(), 0);
        assert_eq!(out.coherence_obit_msgs(), 0);
        assert_eq!(out.coherence_invalidations(), 0);
        assert_eq!(out.coherence_stall_cycles(), 0);
    }

    #[test]
    fn contended_fork_is_deterministic() {
        let a = run_contended_fork(SystemConfig::table2_overlay(), &spec(4), TelemetrySink::noop())
            .unwrap();
        let b = run_contended_fork(SystemConfig::table2_overlay(), &spec(4), TelemetrySink::noop())
            .unwrap();
        assert_eq!(a.snapshot_fingerprint, b.snapshot_fingerprint);
        assert_eq!(a.sched.stats.cycles, b.sched.stats.cycles);
        assert_eq!(a.coherence_obit_msgs(), b.coherence_obit_msgs());
    }

    #[test]
    fn contention_slows_the_contended_run_down() {
        // Same total work, 4 cores vs 1: the multi-core run finishes in
        // fewer elapsed cycles (parallelism) but pays nonzero stall
        // cycles the serial run never sees.
        let four =
            run_contended_fork(SystemConfig::table2_overlay(), &spec(4), TelemetrySink::noop())
                .unwrap();
        let one =
            run_contended_fork(SystemConfig::table2_overlay(), &spec(1), TelemetrySink::noop())
                .unwrap();
        assert!(four.sched.stats.cycles < one.sched.stats.cycles * 4);
        assert!(four.contention_stall_cycles() > one.contention_stall_cycles());
    }
}
