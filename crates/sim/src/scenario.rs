//! The paper's fork/checkpoint experiment (§5.1, Figures 8 & 9).
//!
//! "Our evaluation models a scenario where a process is checkpointed at
//! regular intervals using the fork system call": run a warmup segment,
//! `fork`, then run the parent for a post-fork segment while the child
//! idles. Measured: the additional memory consumed after the fork
//! (Figure 8) and the cycles-per-instruction of the post-fork segment
//! (Figure 9), under copy-on-write vs overlay-on-write.

use crate::config::SystemConfig;
use crate::machine::Machine;
use crate::trace::{run_trace, TraceOp};
use po_telemetry::TelemetrySink;
use po_types::{PoResult, Vpn};

/// Result of one fork experiment.
#[derive(Clone, Debug)]
pub struct ForkExperimentResult {
    /// Instructions executed after the fork.
    pub post_instructions: u64,
    /// Cycles consumed after the fork.
    pub post_cycles: u64,
    /// CPI of the post-fork segment (Figure 9's metric).
    pub cpi: f64,
    /// Additional memory consumed after the fork, bytes (Figure 8's
    /// metric).
    pub extra_memory_bytes: u64,
    /// Whole pages copied by CoW faults.
    pub pages_copied: u64,
    /// Overlaying writes performed.
    pub overlaying_writes: u64,
    /// OMT-cache hit rate over the whole run (0 when never accessed,
    /// i.e. in CoW mode).
    pub omt_cache_hit_rate: f64,
    /// Overlay Memory Store bytes in use after the post-fork segment,
    /// captured before the final flush folds overlays back into their
    /// pages (0 in CoW mode).
    pub overlay_bytes: u64,
}

/// Runs the §5.1 scenario: map `mapped_pages` pages at `base_vpn`, run
/// `warmup`, fork, mark the memory epoch, run `post` on the parent
/// (child idles), flush overlay residue, and report.
///
/// # Errors
///
/// Propagates machine faults.
pub fn run_fork_experiment(
    config: SystemConfig,
    base_vpn: Vpn,
    mapped_pages: u64,
    warmup: &[TraceOp],
    post: &[TraceOp],
) -> PoResult<ForkExperimentResult> {
    run_fork_experiment_instrumented(
        config,
        base_vpn,
        mapped_pages,
        warmup,
        post,
        TelemetrySink::noop(),
    )
}

/// [`run_fork_experiment`] with a caller-supplied telemetry sink
/// installed on the machine for the whole run, so the post-fork segment
/// can be decomposed into a per-layer CPI stack and an event journal.
/// The machine's stats counters are published into the sink at the end.
///
/// # Errors
///
/// Propagates machine faults.
pub fn run_fork_experiment_instrumented(
    config: SystemConfig,
    base_vpn: Vpn,
    mapped_pages: u64,
    warmup: &[TraceOp],
    post: &[TraceOp],
    sink: TelemetrySink,
) -> PoResult<ForkExperimentResult> {
    let mut machine = Machine::new(config)?;
    machine.install_telemetry(sink);
    let result = run_fork_experiment_on(&mut machine, base_vpn, mapped_pages, warmup, post)?;
    machine.publish_stats();
    Ok(result)
}

/// The fork experiment against a caller-built [`Machine`] (fresh — the
/// scenario spawns its own process). This is the form the workload
/// runner drives, so the machine outlives the experiment and its final
/// snapshot can be fingerprinted.
///
/// # Errors
///
/// Propagates machine faults.
pub fn run_fork_experiment_on(
    machine: &mut Machine,
    base_vpn: Vpn,
    mapped_pages: u64,
    warmup: &[TraceOp],
    post: &[TraceOp],
) -> PoResult<ForkExperimentResult> {
    let parent = machine.spawn_process()?;
    machine.map_range(parent, base_vpn, mapped_pages)?;

    run_trace(machine, parent, warmup)?;
    let _child = machine.fork(parent)?;
    machine.mark_memory_epoch();

    let stats = run_trace(machine, parent, post)?;
    let overlay_bytes = machine.overlay().store().bytes_in_use();
    machine.flush_overlays()?;

    let total = machine.snapshot();
    Ok(ForkExperimentResult {
        post_instructions: stats.instructions,
        post_cycles: stats.cycles,
        cpi: stats.cpi(),
        extra_memory_bytes: machine.extra_memory_bytes(),
        pages_copied: total.pages_copied.get(),
        overlaying_writes: total.overlaying_writes.get(),
        omt_cache_hit_rate: machine.overlay().omt_cache().stats().hit_rate(),
        overlay_bytes,
    })
}

/// Result of the periodic-checkpoint extension experiment.
#[derive(Clone, Debug)]
pub struct PeriodicCheckpointResult {
    /// Checkpoints (forks) taken.
    pub intervals: u64,
    /// CPI over the whole run.
    pub cpi: f64,
    /// Peak extra memory across intervals, bytes.
    pub peak_extra_memory_bytes: u64,
    /// Pages copied (CoW) over the whole run.
    pub pages_copied: u64,
    /// Overlaying writes over the whole run.
    pub overlaying_writes: u64,
}

/// The full §5.1 motivation — "a process is checkpointed at regular
/// intervals using the fork system call" — run for `intervals` rounds:
/// each round forks a checkpoint child (discarding the previous one),
/// marks the memory epoch, and runs one `interval` trace. The paper
/// measures one interval; this extension shows the steady-state
/// behaviour across many (divergence re-accumulates after every fork).
///
/// # Errors
///
/// Propagates machine faults.
pub fn run_periodic_checkpoint_experiment(
    config: SystemConfig,
    base_vpn: Vpn,
    mapped_pages: u64,
    warmup: &[TraceOp],
    interval: &[TraceOp],
    intervals: u64,
) -> PoResult<PeriodicCheckpointResult> {
    let mut machine = Machine::new(config)?;
    run_periodic_checkpoint_experiment_on(
        &mut machine,
        base_vpn,
        mapped_pages,
        warmup,
        interval,
        intervals,
    )
}

/// The periodic-checkpoint experiment against a caller-built, fresh
/// [`Machine`] — the workload-runner form (see
/// [`run_fork_experiment_on`]).
///
/// # Errors
///
/// Propagates machine faults.
pub fn run_periodic_checkpoint_experiment_on(
    machine: &mut Machine,
    base_vpn: Vpn,
    mapped_pages: u64,
    warmup: &[TraceOp],
    interval: &[TraceOp],
    intervals: u64,
) -> PoResult<PeriodicCheckpointResult> {
    let parent = machine.spawn_process()?;
    machine.map_range(parent, base_vpn, mapped_pages)?;
    run_trace(machine, parent, warmup)?;

    let start = machine.snapshot();
    let mut peak = 0u64;
    for _ in 0..intervals {
        let _checkpoint_child = machine.fork(parent)?;
        machine.mark_memory_epoch();
        run_trace(machine, parent, interval)?;
        machine.flush_overlays()?;
        peak = peak.max(machine.extra_memory_bytes());
    }
    let end = machine.snapshot();
    let instr = end.instructions - start.instructions;
    let cycles = end.cycles - start.cycles;
    Ok(PeriodicCheckpointResult {
        intervals,
        cpi: po_types::stats::ratio(cycles, instr),
        peak_extra_memory_bytes: peak,
        pages_copied: end.pages_copied.get(),
        overlaying_writes: end.overlaying_writes.get(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use po_types::geometry::{LINE_SIZE, PAGE_SIZE};
    use po_types::VirtAddr;

    /// A tiny hand-built workload: touch `pages` pages, writing
    /// `lines_per_page` lines in each, with compute gaps.
    fn writes(base: u64, pages: u64, lines_per_page: u64, gap: u32) -> Vec<TraceOp> {
        let mut ops = Vec::new();
        for p in 0..pages {
            for l in 0..lines_per_page {
                ops.push(TraceOp::Store(VirtAddr::new(
                    (base + p) * PAGE_SIZE as u64 + l * LINE_SIZE as u64,
                )));
                ops.push(TraceOp::Compute(gap));
            }
        }
        ops
    }

    #[test]
    fn sparse_writer_uses_far_less_memory_with_overlays() {
        // Type-3 shape: 8 pages, 2 lines per page.
        let base = 0x200;
        let warmup = writes(base, 8, 1, 10);
        let post = writes(base, 8, 2, 50);
        let cow = run_fork_experiment(SystemConfig::table2(), Vpn::new(base), 16, &warmup, &post)
            .unwrap();
        let oow =
            run_fork_experiment(SystemConfig::table2_overlay(), Vpn::new(base), 16, &warmup, &post)
                .unwrap();
        assert_eq!(cow.pages_copied, 8);
        assert_eq!(oow.pages_copied, 0);
        assert_eq!(oow.overlaying_writes, 16);
        assert!(
            oow.extra_memory_bytes * 4 < cow.extra_memory_bytes,
            "overlay ({}) must be far below CoW ({})",
            oow.extra_memory_bytes,
            cow.extra_memory_bytes
        );
        assert!(
            oow.cpi < cow.cpi,
            "OoW CPI ({:.3}) must beat CoW CPI ({:.3}) for sparse writers",
            oow.cpi,
            cow.cpi
        );
    }

    #[test]
    fn periodic_checkpointing_runs_to_steady_state() {
        let base = 0x400;
        let warmup = writes(base, 2, 1, 10);
        let interval = writes(base, 4, 2, 30);
        for config in [SystemConfig::table2(), SystemConfig::table2_overlay()] {
            let overlay_mode = config.overlay_mode;
            let r = run_periodic_checkpoint_experiment(
                config,
                Vpn::new(base),
                16,
                &warmup,
                &interval,
                5,
            )
            .unwrap();
            assert_eq!(r.intervals, 5);
            assert!(r.cpi > 1.0);
            if overlay_mode {
                assert_eq!(r.pages_copied, 0, "OoW never page-copies in the fault path");
                assert_eq!(r.overlaying_writes, 5 * 8, "8 line divergences per interval");
            } else {
                assert_eq!(r.pages_copied, 5 * 4, "4 dirty pages per interval");
            }
        }
    }

    #[test]
    fn no_writes_means_no_extra_memory() {
        let base = 0x300;
        let mut post = Vec::new();
        for l in 0..32u64 {
            post.push(TraceOp::Load(VirtAddr::new(base * PAGE_SIZE as u64 + l * LINE_SIZE as u64)));
            post.push(TraceOp::Compute(20));
        }
        for config in [SystemConfig::table2(), SystemConfig::table2_overlay()] {
            let r = run_fork_experiment(config, Vpn::new(base), 4, &[], &post).unwrap();
            assert_eq!(r.extra_memory_bytes, 0);
            assert_eq!(r.pages_copied, 0);
        }
    }
}
