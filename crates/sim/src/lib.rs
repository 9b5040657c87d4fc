//! # po-sim — the event-driven timing simulator (Table 2)
//!
//! Ties every substrate together into the system the paper simulates: a
//! 2.67 GHz single-issue out-of-order core with a 64-entry instruction
//! window, the OBitVector-extended TLBs, the three-level cache
//! hierarchy with stream prefetching, and the DDR3-1066 memory system
//! with the overlay-aware memory controller (OMT cache + Overlay Memory
//! Store).
//!
//! Structure:
//!
//! * [`SystemConfig`] — all Table 2 parameters plus the overlay-framework
//!   costs; [`hardware_cost`] reproduces the §4.5 storage accounting
//!   (94.5 KB total). Its [`BackendKind`] field picks the paper's
//!   design or the segmentation-over-paging comparison (a quarter-cost
//!   walk, no overlays) — one translation structure, two settings.
//! * [`CoreModel`] — the bounded-instruction-window timing model:
//!   instructions issue one per cycle, memory operations occupy window
//!   entries until they complete, a full window stalls issue. This is
//!   what turns per-access latencies into CPI with realistic
//!   memory-level parallelism.
//! * [`Machine`] — the full system: translates, looks up caches, walks
//!   the OMT on overlay misses, schedules DRAM, performs copy-on-write
//!   *or* overlay-on-write on stores to shared pages.
//! * [`Trace`] / [`run_trace`] / [`run_streamed`] — trace-driven execution.
//! * [`scenario`] — the paper's fork/checkpoint experiment (§5.1).
//! * [`runner`] — the shared workload runner every bench driver uses:
//!   a [`WorkloadJob`] (config + scenario/trace + fault plan + seed)
//!   executes on its own machine into a [`JobResult`] (outcome +
//!   snapshot fingerprint + private telemetry sink), so jobs can be
//!   farmed out to shard threads with deterministic, order-insensitive
//!   merges.
//!
//! # Example
//!
//! ```
//! use po_sim::{Machine, SystemConfig, TraceOp, run_trace};
//! use po_types::Vpn;
//!
//! let mut m = Machine::new(SystemConfig::table2())?;
//! let pid = m.spawn_process()?;
//! m.map_range(pid, Vpn::new(0x100), 4)?;
//! let trace = vec![
//!     TraceOp::Load(po_types::VirtAddr::new(0x100_000)),
//!     TraceOp::Compute(10),
//!     TraceOp::Store(po_types::VirtAddr::new(0x100_040)),
//! ];
//! let stats = run_trace(&mut m, pid, &trace)?;
//! assert_eq!(stats.instructions, 12);
//! assert!(stats.cycles > 12, "misses cost more than 1 cycle each");
//! # Ok::<(), po_types::PoError>(())
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod config;
pub mod core_model;
pub mod machine;
pub mod oracle;
pub mod runner;
pub mod scenario;
pub mod sim_test;
pub mod spec_mirror;
pub mod stats;
mod tlbs;
pub mod trace;
pub mod trace_io;

pub use config::{hardware_cost, BackendKind, HardwareCost, SystemConfig};
pub use core_model::CoreModel;
pub use machine::Machine;
pub use oracle::DiffOracle;
pub use runner::{
    run_job, JobKind, JobOutcome, JobResult, SoakOutcome, TraceJob, TraceOutcome, WorkloadJob,
};
pub use scenario::{
    run_fork_experiment, run_fork_experiment_instrumented, run_fork_experiment_on,
    run_periodic_checkpoint_experiment, run_periodic_checkpoint_experiment_on,
    ForkExperimentResult, PeriodicCheckpointResult,
};
pub use sim_test::{
    clamp_line, clamp_va, clamp_vpn, generate_mc_ops, generate_ops, generate_soak_ops,
    run_crash_convergence, run_crash_convergence_staged, run_ops, run_ops_traced, shrink_by,
    shrink_ops, shrink_ops_filtered, SimHarness, FAILURE_EVENT_TAIL, MAX_MAP_PAGES, MAX_VPN_SPAN,
    VPN_BASE,
};
pub use spec_mirror::SpecMirror;
pub use stats::SimStats;
pub use trace::{run_streamed, run_trace, Trace, TraceOp};
pub use trace_io::{read_trace, write_trace, write_trace_with_seed, TraceIoError};
