//! The shared workload runner: one execution core under every bench
//! driver (DESIGN.md §12).
//!
//! Every bench binary used to carry its own copy of the same loop —
//! build a [`Machine`], spawn, map, maybe seed overlay lines, drive a
//! trace, read back stats. This module extracts that loop once:
//!
//! * [`WorkloadJob`] — a self-contained description of one run: system
//!   config, scenario or trace, optional fault plan, seed, and optional
//!   telemetry capacity. Jobs are plain data, `Send`, and carry an `id`
//!   assigned at submission time so merged telemetry exports have a
//!   worker-independent total order.
//! * [`run_job`] — executes one job on a machine it builds itself and
//!   returns a [`JobResult`]: the scenario outcome, an FNV-1a
//!   fingerprint of the machine's final byte-stable snapshot, and the
//!   job's private [`TelemetrySink`].
//! * [`drive_ops`] — the one op-application loop the deterministic
//!   simulation harness's golden / crashy / replay runs all share.
//!
//! Because a job owns everything it touches (machine, oracle, sink),
//! jobs can run on any thread in any order: the shard pool in po-bench
//! schedules them longest-first and the results are position-stable, so
//! `--shards 8` produces byte-identical exports to `--shards 1`.

use crate::config::SystemConfig;
use crate::machine::Machine;
use crate::scenario::{
    run_fork_experiment_on, run_periodic_checkpoint_experiment_on, ForkExperimentResult,
    PeriodicCheckpointResult,
};
use crate::sim_test::SimHarness;
use crate::stats::SimStats;
use crate::trace::{run_trace, TraceOp};
use po_telemetry::TelemetrySink;
use po_types::{fingerprint64_bytes, FaultPlan, LineData, PoResult, Vpn};

/// The machine (and everything a job owns) must be `Send`: the shard
/// pool moves jobs to worker threads. These asserts make "someone added
/// an `Rc` to a simulator layer" a compile error here, next to the
/// reason, instead of a trait-bound error at the pool's call site.
const fn assert_send<T: Send>() {}
const _: () = {
    assert_send::<Machine>();
    assert_send::<SimHarness>();
    assert_send::<WorkloadJob>();
    assert_send::<JobResult>();
};

/// A plain trace-driven job: map a range, optionally through a shared
/// zero frame with pre-seeded overlay lines (the sparse-structure
/// setup), then drive the ops.
#[derive(Clone, Debug)]
pub struct TraceJob {
    /// First virtual page to map.
    pub base_vpn: Vpn,
    /// Pages to map at `base_vpn`.
    pub mapped_pages: u64,
    /// Map through one shared zero frame with overlays enabled
    /// ([`Machine::map_shared_zero_range`]) instead of private frames.
    pub shared_zero: bool,
    /// Overlay lines to seed before the trace runs, as
    /// `(page offset from base_vpn, line-in-page, byte value)`.
    pub seed_lines: Vec<(u64, usize, u8)>,
    /// The ops to drive.
    pub ops: Vec<TraceOp>,
}

/// What a [`WorkloadJob`] runs.
#[derive(Clone, Debug)]
pub enum JobKind {
    /// The §5.1 fork experiment
    /// ([`crate::scenario::run_fork_experiment`]).
    Fork {
        /// First mapped page.
        base_vpn: Vpn,
        /// Pages mapped.
        mapped_pages: u64,
        /// Pre-fork warmup segment.
        warmup: Vec<TraceOp>,
        /// Measured post-fork segment.
        post: Vec<TraceOp>,
    },
    /// The periodic-checkpoint extension
    /// ([`crate::scenario::run_periodic_checkpoint_experiment`]).
    PeriodicCheckpoint {
        /// First mapped page.
        base_vpn: Vpn,
        /// Pages mapped.
        mapped_pages: u64,
        /// Warmup segment before the first checkpoint.
        warmup: Vec<TraceOp>,
        /// The per-interval segment.
        interval: Vec<TraceOp>,
        /// Checkpoints taken.
        intervals: u64,
    },
    /// A plain trace drive (ablations, sweeps).
    Trace(TraceJob),
    /// Differential-harness ops ([`SimHarness`]): the machine runs in
    /// lockstep with the byte oracle and the outcome is the harness
    /// verdict rather than stats.
    HarnessOps {
        /// The harness-level op stream.
        ops: Vec<TraceOp>,
        /// Arm the harness's deliberate divergence bug (fuzzer
        /// self-test).
        inject_bug: bool,
    },
    /// Sustained-pressure soak ([`crate::sim_test::generate_soak_ops`]):
    /// a churn stream driven through the full differential harness
    /// (byte oracle + spec refinement + invariant sweep after every op),
    /// then judged against an end-of-run fragmentation ceiling. The
    /// outcome reports the degradation-ladder telemetry (compaction
    /// passes, relocated bytes, fragmentation) alongside the verdict.
    Soak {
        /// The churn op stream.
        ops: Vec<TraceOp>,
        /// Maximum tolerated end-of-run [`fragmentation ratio`]
        /// (0.0–1.0); exceeding it is a finding.
        ///
        /// [`fragmentation ratio`]:
        /// po_overlay::OverlayMemoryStore::fragmentation_ratio
        frag_ceiling: f64,
    },
}

/// One schedulable unit of bench work: config + scenario/trace + fault
/// plan + seed. Construct with [`WorkloadJob::fork`] and friends, then
/// chain `with_*` builders.
#[derive(Clone, Debug)]
pub struct WorkloadJob {
    /// Submission-order id; the major key of merged telemetry exports.
    pub id: u64,
    /// Human-readable label (workload name, config variant).
    pub label: String,
    /// The machine configuration.
    pub config: SystemConfig,
    /// Fault plan to install, if any.
    pub plan: Option<FaultPlan>,
    /// The seed the job's traces were generated from (bookkeeping — the
    /// ops are already materialized).
    pub seed: u64,
    /// `Some(capacity)` arms a private telemetry sink with
    /// journal/span rings of that size.
    pub telemetry_capacity: Option<usize>,
    /// What to run.
    pub kind: JobKind,
}

impl WorkloadJob {
    fn new(id: u64, label: impl Into<String>, config: SystemConfig, kind: JobKind) -> Self {
        Self {
            id,
            label: label.into(),
            config,
            plan: None,
            seed: 0,
            telemetry_capacity: None,
            kind,
        }
    }

    /// A fork-experiment job.
    pub fn fork(
        id: u64,
        label: impl Into<String>,
        config: SystemConfig,
        base_vpn: Vpn,
        mapped_pages: u64,
        warmup: Vec<TraceOp>,
        post: Vec<TraceOp>,
    ) -> Self {
        Self::new(id, label, config, JobKind::Fork { base_vpn, mapped_pages, warmup, post })
    }

    /// A periodic-checkpoint job.
    #[expect(clippy::too_many_arguments, reason = "mirrors the scenario entry point's signature")]
    pub fn periodic_checkpoint(
        id: u64,
        label: impl Into<String>,
        config: SystemConfig,
        base_vpn: Vpn,
        mapped_pages: u64,
        warmup: Vec<TraceOp>,
        interval: Vec<TraceOp>,
        intervals: u64,
    ) -> Self {
        Self::new(
            id,
            label,
            config,
            JobKind::PeriodicCheckpoint { base_vpn, mapped_pages, warmup, interval, intervals },
        )
    }

    /// A plain trace-drive job.
    pub fn trace(id: u64, label: impl Into<String>, config: SystemConfig, job: TraceJob) -> Self {
        Self::new(id, label, config, JobKind::Trace(job))
    }

    /// A sustained-pressure soak job.
    pub fn soak(
        id: u64,
        label: impl Into<String>,
        config: SystemConfig,
        ops: Vec<TraceOp>,
        frag_ceiling: f64,
    ) -> Self {
        Self::new(id, label, config, JobKind::Soak { ops, frag_ceiling })
    }

    /// A differential-harness job.
    pub fn harness_ops(
        id: u64,
        label: impl Into<String>,
        config: SystemConfig,
        ops: Vec<TraceOp>,
        inject_bug: bool,
    ) -> Self {
        Self::new(id, label, config, JobKind::HarnessOps { ops, inject_bug })
    }

    /// Installs a fault plan on the job's machine.
    #[must_use]
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.plan = Some(plan);
        self
    }

    /// Records the generating seed (bookkeeping only).
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Arms a private telemetry sink with the given ring capacity.
    #[must_use]
    pub fn with_telemetry(mut self, capacity: usize) -> Self {
        self.telemetry_capacity = Some(capacity);
        self
    }

    /// Scheduling weight: total ops the job will drive. The shard pool
    /// sorts longest-first so a long job never starts last and stalls
    /// the whole batch behind one straggler.
    pub fn weight(&self) -> u64 {
        match &self.kind {
            JobKind::Fork { warmup, post, .. } => (warmup.len() + post.len()) as u64,
            JobKind::PeriodicCheckpoint { warmup, interval, intervals, .. } => {
                warmup.len() as u64 + interval.len() as u64 * intervals
            }
            JobKind::Trace(t) => t.ops.len() as u64,
            JobKind::HarnessOps { ops, .. } | JobKind::Soak { ops, .. } => ops.len() as u64,
        }
    }
}

/// Stats a [`JobKind::Trace`] job reports.
#[derive(Clone, Debug)]
pub struct TraceOutcome {
    /// Whole-run machine stats.
    pub stats: SimStats,
    /// OMT-cache hit rate over the run (0 when never accessed).
    pub omt_cache_hit_rate: f64,
    /// Overlay Memory Store bytes in use when the trace ended.
    pub overlay_bytes: u64,
}

/// What a [`JobKind::Soak`] job reports: the harness verdict plus the
/// degradation-ladder counters a soak campaign trends over time.
#[derive(Clone, Debug)]
pub struct SoakOutcome {
    /// `Err` is a divergence, refinement violation, invariant failure,
    /// or a fragmentation-ceiling breach.
    pub verdict: Result<(), String>,
    /// Ops driven (the whole stream; soak findings do not stop early —
    /// they come from the final sweep).
    pub ops_applied: u64,
    /// Live processes when the stream ended (fork churn depth).
    pub procs: u64,
    /// Compaction passes the pressure ladder (or explicit `O` ops) ran.
    pub compaction_passes: u64,
    /// Bytes of live segments relocated across all passes.
    pub relocated_bytes: u64,
    /// End-of-run OMS fragmentation ratio (0.0–1.0).
    pub final_fragmentation: f64,
    /// OMS bytes still live when the stream ended.
    pub overlay_bytes: u64,
}

/// The scenario-specific result inside a [`JobResult`].
#[derive(Clone, Debug)]
pub enum JobOutcome {
    /// Fork-experiment result.
    Fork(ForkExperimentResult),
    /// Periodic-checkpoint result.
    PeriodicCheckpoint(PeriodicCheckpointResult),
    /// Trace-drive stats.
    Trace(TraceOutcome),
    /// The harness verdict: `Err` is a divergence or unexpected machine
    /// failure (a finding, not a fault).
    Harness(Result<(), String>),
    /// Soak result: verdict plus degradation-ladder counters.
    Soak(SoakOutcome),
}

impl JobOutcome {
    /// The fork result, if this outcome is one.
    pub fn as_fork(&self) -> Option<&ForkExperimentResult> {
        match self {
            JobOutcome::Fork(r) => Some(r),
            _ => None,
        }
    }

    /// The periodic-checkpoint result, if this outcome is one.
    pub fn as_periodic_checkpoint(&self) -> Option<&PeriodicCheckpointResult> {
        match self {
            JobOutcome::PeriodicCheckpoint(r) => Some(r),
            _ => None,
        }
    }

    /// The trace stats, if this outcome is a trace drive.
    pub fn as_trace(&self) -> Option<&TraceOutcome> {
        match self {
            JobOutcome::Trace(r) => Some(r),
            _ => None,
        }
    }

    /// The harness verdict, if this outcome is one.
    pub fn as_harness(&self) -> Option<&Result<(), String>> {
        match self {
            JobOutcome::Harness(r) => Some(r),
            _ => None,
        }
    }

    /// The soak result, if this outcome is one.
    pub fn as_soak(&self) -> Option<&SoakOutcome> {
        match self {
            JobOutcome::Soak(r) => Some(r),
            _ => None,
        }
    }
}

/// Everything one job produced.
#[derive(Clone, Debug)]
pub struct JobResult {
    /// The job's submission-order id.
    pub id: u64,
    /// The job's label, carried through for reporting.
    pub label: String,
    /// The scenario-specific result.
    pub outcome: JobOutcome,
    /// FNV-1a fingerprint of the machine's final byte-stable snapshot
    /// ([`Machine::save_snapshot`]). Identical jobs produce identical
    /// fingerprints on any shard count — the cheap half of the
    /// determinism invariant.
    pub snapshot_fingerprint: u64,
    /// The job's private sink (`Noop` unless the job armed telemetry),
    /// holding the machine's published stats counters
    /// ([`Machine::publish_stats`]); feed to
    /// `po_telemetry::TelemetryMerge` keyed by [`JobResult::id`].
    pub telemetry: TelemetrySink,
}

/// Runs one job start to finish on a machine (or harness) built from
/// the job's own config, plan, and telemetry capacity.
///
/// # Errors
///
/// Propagates machine faults. Harness *findings* do not error — they
/// come back as [`JobOutcome::Harness`]`(Err(..))`.
pub fn run_job(job: WorkloadJob) -> PoResult<JobResult> {
    let sink = match job.telemetry_capacity {
        Some(capacity) => TelemetrySink::with_capacity(capacity, capacity),
        None => TelemetrySink::noop(),
    };
    let (outcome, fingerprint) = match job.kind {
        JobKind::HarnessOps { ops, inject_bug } => {
            let mut h = SimHarness::new(job.config)?;
            if let Some(plan) = job.plan {
                h.machine.install_fault_plan(plan);
            }
            h.machine.install_telemetry(sink.clone());
            h.inject_bug = inject_bug;
            let verdict = drive_ops(&mut h, &ops, 0, "", |_, _| {}, |_, _| Ok(false))
                .map(|_| ())
                .and_then(|()| h.check_all());
            h.machine.publish_stats();
            let fp = fingerprint64_bytes(&h.machine.save_snapshot());
            (JobOutcome::Harness(verdict), fp)
        }
        JobKind::Soak { ops, frag_ceiling } => {
            let mut h = SimHarness::new(job.config)?;
            if let Some(plan) = job.plan {
                h.machine.install_fault_plan(plan);
            }
            h.machine.install_telemetry(sink.clone());
            let verdict = drive_ops(&mut h, &ops, 0, "", |_, _| {}, |_, _| Ok(false))
                .map(|_| ())
                .and_then(|()| h.check_all())
                .and_then(|()| {
                    let frag = h.machine.overlay().store().fragmentation_ratio();
                    if frag > frag_ceiling {
                        Err(format!(
                            "end-of-soak fragmentation {frag:.3} exceeds the ceiling \
                             {frag_ceiling:.3}"
                        ))
                    } else {
                        Ok(())
                    }
                });
            let store = h.machine.overlay().store();
            let outcome = SoakOutcome {
                verdict,
                ops_applied: ops.len() as u64,
                procs: h.procs.len() as u64,
                compaction_passes: store.stats().compaction_passes.get(),
                relocated_bytes: store.stats().relocated_bytes.get(),
                final_fragmentation: store.fragmentation_ratio(),
                overlay_bytes: store.bytes_in_use(),
            };
            h.machine.publish_stats();
            let fp = fingerprint64_bytes(&h.machine.save_snapshot());
            (JobOutcome::Soak(outcome), fp)
        }
        kind => {
            let mut machine = Machine::new(job.config)?;
            if let Some(plan) = job.plan {
                machine.install_fault_plan(plan);
            }
            machine.install_telemetry(sink.clone());
            let outcome = match kind {
                JobKind::Fork { base_vpn, mapped_pages, warmup, post } => JobOutcome::Fork(
                    run_fork_experiment_on(&mut machine, base_vpn, mapped_pages, &warmup, &post)?,
                ),
                JobKind::PeriodicCheckpoint {
                    base_vpn,
                    mapped_pages,
                    warmup,
                    interval,
                    intervals,
                } => JobOutcome::PeriodicCheckpoint(run_periodic_checkpoint_experiment_on(
                    &mut machine,
                    base_vpn,
                    mapped_pages,
                    &warmup,
                    &interval,
                    intervals,
                )?),
                JobKind::Trace(t) => {
                    let pid = machine.spawn_process()?;
                    if t.shared_zero {
                        machine.map_shared_zero_range(pid, t.base_vpn, t.mapped_pages)?;
                    } else {
                        machine.map_range(pid, t.base_vpn, t.mapped_pages)?;
                    }
                    for &(page, line, value) in &t.seed_lines {
                        machine.seed_overlay_line(
                            pid,
                            Vpn::new(t.base_vpn.raw() + page),
                            line,
                            LineData::splat(value),
                        )?;
                    }
                    let stats = run_trace(&mut machine, pid, &t.ops)?;
                    JobOutcome::Trace(TraceOutcome {
                        stats,
                        omt_cache_hit_rate: machine.overlay().omt_cache().stats().hit_rate(),
                        overlay_bytes: machine.overlay().store().bytes_in_use(),
                    })
                }
                JobKind::HarnessOps { .. } | JobKind::Soak { .. } => {
                    unreachable!("handled in the outer match")
                }
            };
            machine.publish_stats();
            (outcome, fingerprint64_bytes(&machine.save_snapshot()))
        }
    };
    Ok(JobResult {
        id: job.id,
        label: job.label,
        outcome,
        snapshot_fingerprint: fingerprint,
        telemetry: sink,
    })
}

/// The one op-application loop every harness run shares (plain runs,
/// golden/crashy crash-convergence runs, journal replay):
///
/// * `first_index` offsets the reported op index (replay resumes at the
///   snapshot point);
/// * `label` prefixes apply errors — `"{label}op {i}: {e}"` — so
///   "golden op 12: ..." and "replay op 40: ..." keep their shapes;
/// * `before(h, i)` runs ahead of each op (snapshot cadence);
/// * `after(h, i)` runs behind it; `Ok(true)` stops the loop (a crash
///   point fired) and its `Err` passes through unprefixed.
///
/// Returns the index `after` stopped at, or `None` if the loop ran out.
///
/// # Errors
///
/// A prefixed [`SimHarness::apply`] error, or `after`'s own error.
pub fn drive_ops(
    h: &mut SimHarness,
    ops: &[TraceOp],
    first_index: usize,
    label: &str,
    mut before: impl FnMut(&mut SimHarness, usize),
    mut after: impl FnMut(&mut SimHarness, usize) -> Result<bool, String>,
) -> Result<Option<usize>, String> {
    for (j, op) in ops.iter().enumerate() {
        let i = first_index + j;
        before(h, i);
        h.apply(op).map_err(|e| format!("{label}op {i}: {e}"))?;
        if after(h, i)? {
            return Ok(Some(i));
        }
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim_test::generate_ops;
    use po_types::geometry::{LINE_SIZE, PAGE_SIZE};
    use po_types::VirtAddr;

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
    fn fork_job_matches_the_direct_scenario_call() {
        let base = 0x200;
        let warmup = writes(base, 8, 1, 10);
        let post = writes(base, 8, 2, 50);
        let direct = crate::scenario::run_fork_experiment(
            SystemConfig::table2_overlay(),
            Vpn::new(base),
            16,
            &warmup,
            &post,
        )
        .unwrap();
        let job = WorkloadJob::fork(
            0,
            "oow",
            SystemConfig::table2_overlay(),
            Vpn::new(base),
            16,
            warmup,
            post,
        );
        let result = run_job(job).unwrap();
        let via_runner = result.outcome.as_fork().unwrap();
        assert_eq!(via_runner.post_cycles, direct.post_cycles);
        assert_eq!(via_runner.extra_memory_bytes, direct.extra_memory_bytes);
        assert_eq!(via_runner.overlaying_writes, direct.overlaying_writes);
        assert_ne!(result.snapshot_fingerprint, 0);
    }

    #[test]
    fn identical_jobs_fingerprint_identically_and_deterministically() {
        let mk = |id| {
            WorkloadJob::trace(
                id,
                "trace",
                SystemConfig::table2_overlay(),
                TraceJob {
                    base_vpn: Vpn::new(0x300),
                    mapped_pages: 4,
                    shared_zero: true,
                    seed_lines: vec![(0, 0, 7), (1, 3, 9)],
                    ops: writes(0x300, 4, 2, 20),
                },
            )
        };
        let a = run_job(mk(0)).unwrap();
        let b = run_job(mk(1)).unwrap();
        assert_eq!(a.snapshot_fingerprint, b.snapshot_fingerprint);
        let (ta, tb) = (a.outcome.as_trace().unwrap(), b.outcome.as_trace().unwrap());
        assert_eq!(ta.stats.cycles, tb.stats.cycles);
        assert!(ta.overlay_bytes > 0, "seeded lines live in the OMS");
    }

    #[test]
    fn harness_job_reports_findings_without_erroring() {
        let ops = generate_ops(3, 200);
        let clean = run_job(WorkloadJob::harness_ops(
            0,
            "clean",
            SystemConfig::table2_overlay(),
            ops.clone(),
            false,
        ))
        .unwrap();
        assert_eq!(clean.outcome.as_harness().unwrap(), &Ok(()));
        let buggy = run_job(
            WorkloadJob::harness_ops(1, "buggy", SystemConfig::table2_overlay(), ops, true)
                .with_telemetry(64),
        )
        .unwrap();
        assert!(buggy.outcome.as_harness().unwrap().is_err(), "injected bug must be found");
        assert!(buggy.telemetry.is_active());
    }

    #[test]
    fn job_weight_orders_longest_first() {
        let short = WorkloadJob::trace(
            0,
            "s",
            SystemConfig::table2(),
            TraceJob {
                base_vpn: Vpn::new(1),
                mapped_pages: 1,
                shared_zero: false,
                seed_lines: vec![],
                ops: writes(1, 1, 1, 1),
            },
        );
        let long = WorkloadJob::fork(
            1,
            "l",
            SystemConfig::table2(),
            Vpn::new(1),
            1,
            writes(1, 4, 4, 1),
            writes(1, 4, 4, 1),
        );
        assert!(long.weight() > short.weight());
    }
}
