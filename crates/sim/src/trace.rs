//! Trace-driven execution.

use crate::machine::Machine;
use crate::stats::SimStats;
use po_types::{Asid, PoResult, VirtAddr};

/// One operation of a trace.
///
/// The first three variants are core-level (timed) operations consumed
/// by [`Machine::execute`]. The remainder are **harness-level**
/// operations used by the deterministic-simulation harness
/// ([`crate::sim_test`]) and the differential fuzzer: they act on the
/// whole machine (processes, mappings, overlay promotions) and are
/// rejected by [`Machine::execute`].
///
/// Harness ops name processes by a *selector*, resolved as
/// `proc_sel % live_process_count` at apply time (no-op when no process
/// exists). This makes **every subsequence of a trace a valid trace** —
/// the property the fuzzer's trace shrinker relies on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceOp {
    /// `n` non-memory instructions (1 cycle each, single issue).
    Compute(u32),
    /// A demand load.
    Load(VirtAddr),
    /// A demand store.
    Store(VirtAddr),
    /// Harness: spawn a new process.
    Spawn,
    /// Harness: map `count` writable anonymous pages at VPN `start` for
    /// the selected process.
    Map {
        /// Process selector (modulo live process count).
        proc_sel: u32,
        /// First virtual page number of the range.
        start: u64,
        /// Pages to map.
        count: u32,
    },
    /// Harness: fork the selected process.
    Fork {
        /// Process selector.
        proc_sel: u32,
    },
    /// Harness: functional one-byte write ([`Machine::poke`]).
    Poke {
        /// Process selector.
        proc_sel: u32,
        /// Target address.
        va: VirtAddr,
        /// Byte to write.
        value: u8,
    },
    /// Harness: functional one-byte read ([`Machine::peek`]), compared
    /// against the differential oracle.
    Peek {
        /// Process selector.
        proc_sel: u32,
        /// Address to read.
        va: VirtAddr,
    },
    /// Harness: seed one overlay line directly into the OMS
    /// ([`Machine::seed_overlay_line`] with a splatted byte).
    SeedLine {
        /// Process selector.
        proc_sel: u32,
        /// Virtual page number.
        vpn: u64,
        /// Line index within the page (0..64; enforced by the trace
        /// parser).
        line: u8,
        /// Byte splatted across the line.
        value: u8,
    },
    /// Harness: commit the page's overlay ([`Machine::commit_overlay`]).
    CommitPage {
        /// Process selector.
        proc_sel: u32,
        /// Virtual page number.
        vpn: u64,
    },
    /// Harness: discard the page's overlay
    /// ([`Machine::discard_overlay`]).
    DiscardPage {
        /// Process selector.
        proc_sel: u32,
        /// Virtual page number.
        vpn: u64,
    },
    /// Harness: flush every cache-resident dirty overlay line into the
    /// OMS ([`Machine::flush_overlays`]).
    Flush,
    /// Harness: reclaim overlay memory by collapsing cold overlays
    /// ([`Machine::recover_overlay_memory`]).
    Reclaim,
    /// Harness: run one OMS compaction pass
    /// ([`Machine::compact_overlay_memory`]) — coalesce free space and
    /// relocate live segments downward. Semantically invisible: no
    /// functional state the oracle or spec tracks changes.
    Compact,
    /// Harness: route subsequent timed ops (`Compute`/`Load`/`Store`)
    /// to core `core_sel % cores` — the multi-core analogue of the
    /// process selector. On a single-core machine this always resolves
    /// to core 0, so every trace stays valid at every core count.
    OnCore {
        /// Core selector (modulo configured core count).
        core_sel: u32,
    },
}

impl TraceOp {
    /// Instructions this op represents (harness-level ops execute no
    /// instructions).
    pub fn instructions(&self) -> u64 {
        match self {
            TraceOp::Compute(n) => *n as u64,
            TraceOp::Load(_) | TraceOp::Store(_) => 1,
            _ => 0,
        }
    }

    /// `true` for harness-level ops (everything except
    /// `Compute`/`Load`/`Store`).
    pub fn is_harness_op(&self) -> bool {
        !matches!(self, TraceOp::Compute(_) | TraceOp::Load(_) | TraceOp::Store(_))
    }
}

/// A sequence of trace operations.
pub type Trace = Vec<TraceOp>;

/// Runs `ops` on `machine` as process `asid`, returning the statistics
/// *delta* for instructions/cycles (counters are cumulative machine
/// totals).
///
/// # Errors
///
/// Propagates access faults.
///
/// # Example
///
/// See the [crate docs](crate).
pub fn run_trace(machine: &mut Machine, asid: Asid, ops: &[TraceOp]) -> PoResult<SimStats> {
    run_streamed(machine, |m| ops.iter().try_for_each(|op| m.execute(asid, op)))
}

/// Runs `issue` on `machine` and returns the same statistics delta as
/// [`run_trace`]. `issue` executes its ops itself, so a kernel can
/// stream each op into the machine as it generates it instead of
/// building a trace first.
///
/// # Errors
///
/// Propagates the first error `issue` returns.
pub fn run_streamed(
    machine: &mut Machine,
    issue: impl FnOnce(&mut Machine) -> PoResult<()>,
) -> PoResult<SimStats> {
    let before = machine.snapshot();
    issue(machine)?;
    let mut after = machine.snapshot();
    after.instructions -= before.instructions;
    after.cycles -= before.cycles;
    Ok(after)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemConfig;
    use po_types::Vpn;

    #[test]
    fn trace_instruction_accounting() {
        let mut m = Machine::new(SystemConfig::table2()).unwrap();
        let pid = m.spawn_process().unwrap();
        m.map_range(pid, Vpn::new(1), 2).unwrap();
        let trace = vec![
            TraceOp::Compute(5),
            TraceOp::Load(VirtAddr::new(0x1000)),
            TraceOp::Compute(5),
            TraceOp::Store(VirtAddr::new(0x1040)),
        ];
        let stats = run_trace(&mut m, pid, &trace).unwrap();
        assert_eq!(stats.instructions, 12);
        assert!(stats.cpi() > 1.0);
    }

    #[test]
    fn two_runs_report_deltas() {
        let mut m = Machine::new(SystemConfig::table2()).unwrap();
        let pid = m.spawn_process().unwrap();
        m.map_range(pid, Vpn::new(1), 1).unwrap();
        let t = vec![TraceOp::Compute(10)];
        let s1 = run_trace(&mut m, pid, &t).unwrap();
        let s2 = run_trace(&mut m, pid, &t).unwrap();
        assert_eq!(s1.instructions, 10);
        assert_eq!(s2.instructions, 10);
    }

    #[test]
    fn op_instruction_counts() {
        assert_eq!(TraceOp::Compute(7).instructions(), 7);
        assert_eq!(TraceOp::Load(VirtAddr::new(0)).instructions(), 1);
        assert_eq!(TraceOp::Store(VirtAddr::new(0)).instructions(), 1);
    }
}
