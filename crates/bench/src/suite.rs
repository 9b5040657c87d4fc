//! Job-building helpers shared by the bench binaries.
//!
//! Every figure/ablation binary describes its work as
//! [`WorkloadJob`]s and hands them to one [`ShardPool`]; the machine
//! drive loops live in `po_sim::runner`. This module holds the
//! recurring job shapes: the §5.1
//! CoW/OoW fork pair over the 15-workload suite, and the generic
//! "run these jobs, propagate the first machine fault" funnel.

use crate::pool::ShardPool;
use po_sim::runner::{run_job, JobResult, WorkloadJob};
use po_sim::{BackendKind, ForkExperimentResult, SystemConfig};
use po_types::PoResult;
use po_workloads::{spec_suite, WorkloadSpec};

/// Runs `jobs` on the pool (heaviest first) and returns their results
/// in submission order, failing on the first machine fault.
///
/// # Errors
///
/// The first job's machine fault, by submission order.
pub fn run_jobs(pool: &ShardPool, jobs: Vec<WorkloadJob>) -> PoResult<Vec<JobResult>> {
    pool.run(jobs, WorkloadJob::weight, run_job).into_iter().collect()
}

/// Builds the §5.1 fork-experiment job for `spec` under `config`:
/// mapped pages and warmup/post traces come from the spec's generators,
/// exactly as every figure binary derived them.
pub fn fork_job(
    id: u64,
    label: impl Into<String>,
    config: SystemConfig,
    spec: &WorkloadSpec,
    warmup_instr: u64,
    post_instr: u64,
    seed: u64,
) -> WorkloadJob {
    WorkloadJob::fork(
        id,
        label,
        config,
        spec.base_vpn(),
        spec.mapped_pages(warmup_instr.max(post_instr)),
        spec.generate_warmup(warmup_instr, seed),
        spec.generate_post_fork(post_instr, seed),
    )
    .with_seed(seed)
}

/// One workload's CoW and OoW fork runs (Figures 8 & 9 share this).
#[derive(Clone, Debug)]
pub struct ForkPair {
    /// The workload that was run.
    pub spec: WorkloadSpec,
    /// The copy-on-write run (`SystemConfig::table2`).
    pub cow: JobResult,
    /// The overlay-on-write run (`SystemConfig::table2_overlay`).
    pub oow: JobResult,
}

impl ForkPair {
    /// The CoW fork result.
    pub fn cow(&self) -> &ForkExperimentResult {
        self.cow.outcome.as_fork().expect("fork job outcome")
    }

    /// The OoW fork result.
    pub fn oow(&self) -> &ForkExperimentResult {
        self.oow.outcome.as_fork().expect("fork job outcome")
    }
}

/// Runs the whole 15-workload suite as CoW/OoW pairs through the pool.
/// With `telemetry_capacity = Some(n)` every job records into a private
/// sink of that ring size (for merged exports); job ids are
/// `2*spec_index` (CoW) and `2*spec_index + 1` (OoW). Shorthand for
/// [`run_fork_suite_pairs_on`] with the canonical overlay backend.
///
/// # Errors
///
/// The first machine fault.
pub fn run_fork_suite_pairs(
    pool: &ShardPool,
    warmup_instr: u64,
    post_instr: u64,
    seed: u64,
    telemetry_capacity: Option<usize>,
) -> PoResult<Vec<ForkPair>> {
    run_fork_suite_pairs_on(
        pool,
        BackendKind::Overlay,
        warmup_instr,
        post_instr,
        seed,
        telemetry_capacity,
    )
}

/// [`run_fork_suite_pairs`] with every machine translating through
/// `backend`. On a backend without overlay support the "oow" half
/// degrades to classic CoW by construction — the CoW/OoW gap closing
/// to 1.0 is exactly what the comparative lab measures there.
///
/// # Errors
///
/// The first machine fault.
pub fn run_fork_suite_pairs_on(
    pool: &ShardPool,
    backend: BackendKind,
    warmup_instr: u64,
    post_instr: u64,
    seed: u64,
    telemetry_capacity: Option<usize>,
) -> PoResult<Vec<ForkPair>> {
    let cow = SystemConfig { backend, ..SystemConfig::table2() };
    let oow = SystemConfig { backend, ..SystemConfig::table2_overlay() };
    let specs = spec_suite();
    let mut jobs = Vec::with_capacity(specs.len() * 2);
    for (i, spec) in specs.iter().enumerate() {
        for (half, mode, config) in [(0, "cow", cow.clone()), (1, "oow", oow.clone())] {
            let mut job = fork_job(
                (2 * i + half) as u64,
                format!("fork/{}/{mode}", spec.name),
                config,
                spec,
                warmup_instr,
                post_instr,
                seed,
            );
            if let Some(capacity) = telemetry_capacity {
                job = job.with_telemetry(capacity);
            }
            jobs.push(job);
        }
    }
    let mut results = run_jobs(pool, jobs)?.into_iter();
    Ok(specs
        .into_iter()
        .map(|spec| {
            let cow = results.next().expect("one result per job");
            let oow = results.next().expect("one result per job");
            ForkPair { spec, cow, oow }
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_pairs_are_shard_invariant() {
        // Tiny instruction budgets: this is a determinism test, not a
        // measurement. Every per-pair number and fingerprint must agree
        // between a serial pool and a 4-shard pool.
        let serial = run_fork_suite_pairs(&ShardPool::serial(), 2_000, 3_000, 7, None).unwrap();
        let sharded = run_fork_suite_pairs(&ShardPool::new(4), 2_000, 3_000, 7, None).unwrap();
        assert_eq!(serial.len(), 15);
        for (s, p) in serial.iter().zip(&sharded) {
            assert_eq!(s.spec.name, p.spec.name);
            assert_eq!(s.cow.snapshot_fingerprint, p.cow.snapshot_fingerprint);
            assert_eq!(s.oow.snapshot_fingerprint, p.oow.snapshot_fingerprint);
            assert_eq!(s.cow().post_cycles, p.cow().post_cycles);
            assert_eq!(s.oow().post_cycles, p.oow().post_cycles);
            assert_eq!(s.oow().extra_memory_bytes, p.oow().extra_memory_bytes);
        }
    }
}
