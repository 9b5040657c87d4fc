//! The five workloads: their inputs, generated once per set-up from the
//! seed, and one untraced repetition through the library's own entry
//! points: the fork scenario as the workload runner drives it,
//! `run_contended_fork`, `TimedSpmv`, and the runner's harness loop.

use crate::compose;
use crate::metrics::median;
use po_mc::{build_core_streams, run_contended_fork, ContendedForkSpec};
use po_sim::runner::drive_ops;
use po_sim::{
    generate_soak_ops, run_fork_experiment_on, Machine, SimHarness, SystemConfig, TraceOp,
};
use po_sparse::{gen, CsrMatrix, OverlayMatrix, SpmvTiming, TimedSpmv};
use po_telemetry::TelemetrySink;
use po_types::geometry::{LINES_PER_PAGE, PAGE_SIZE};
use po_types::{fingerprint64_bytes, Vpn};
use po_workloads::spec_suite;
use std::time::Instant;

/// One benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// §5.1 fork suite under overlay-on-write.
    ForkOow,
    /// The same traces under copy-on-write.
    ForkCow,
    /// Figure 10's overlay and CSR SpMV kernels.
    Spmv,
    /// 4-core contended forks.
    Mc4Contended,
    /// Churn streams through the differential harness.
    SoakHarness,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::ForkOow,
        Workload::ForkCow,
        Workload::Spmv,
        Workload::Mc4Contended,
        Workload::SoakHarness,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ForkOow => "fork-oow",
            Workload::ForkCow => "fork-cow",
            Workload::Spmv => "spmv",
            Workload::Mc4Contended => "mc4-contended",
            Workload::SoakHarness => "soak-harness",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input sizes. [`Params::FULL`] is what the benchmark measures; tests
/// use tiny sizes of the same shapes.
#[derive(Clone, Copy, Debug)]
pub struct Params {
    /// Fork suite: pre-fork instructions per benchmark.
    pub fork_warmup: u64,
    /// Fork suite: measured post-fork instructions per benchmark.
    pub fork_post: u64,
    /// SpMV matrix rows.
    pub spmv_rows: usize,
    /// SpMV matrix columns (a multiple of 8).
    pub spmv_cols: usize,
    /// SpMV non-zero target.
    pub spmv_nnz: usize,
    /// SpMV run length of consecutive non-zeros (line-aligned).
    pub spmv_run: usize,
    /// Contended fork: independent runs per rep.
    pub mc_runs: u64,
    /// Contended fork: simulated cores.
    pub mc_cores: usize,
    /// Contended fork: shared pages.
    pub mc_pages: u64,
    /// Contended fork: post-fork ops per core.
    pub mc_ops_per_core: usize,
    /// Soak: independent churn streams per rep.
    pub soak_streams: usize,
    /// Soak: ops per stream.
    pub soak_ops: usize,
}

impl Params {
    /// The measured sizes. The contended fork and the soak split their
    /// work into many independent runs because one long run varies too
    /// much from seed to seed (README.md, "Workloads").
    pub const FULL: Params = Params {
        fork_warmup: 400_000,
        fork_post: 600_000,
        spmv_rows: 2000,
        spmv_cols: 512,
        spmv_nnz: 1_000_000,
        spmv_run: 8,
        mc_runs: 8,
        mc_cores: 4,
        mc_pages: 256,
        mc_ops_per_core: 20_000,
        soak_streams: 256,
        soak_ops: 250,
    };
}

/// A rep's exact simulated outcome. Two reps of the same inputs must
/// agree on every field; `expected.json` pins them for recorded seeds.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SimSummary {
    /// FNV-1a over the final machine snapshots (for SpMV, whose machines
    /// the library keeps private, over the kernels' exact outputs).
    pub fingerprint: u64,
    /// Simulated cycles of the measured windows.
    pub cycles: u64,
    /// Instructions retired in the measured windows.
    pub instructions: u64,
    /// Memory the workload's metric counts as extra, bytes.
    pub extra_bytes: u64,
    /// The base `extra_bytes` is a share of, bytes.
    pub base_bytes: u64,
}

impl SimSummary {
    pub fn cpi(&self) -> f64 {
        po_types::stats::ratio(self.cycles, self.instructions)
    }

    pub fn extra_memory_pct(&self) -> f64 {
        100.0 * po_types::stats::ratio(self.extra_bytes, self.base_bytes)
    }

    /// The sum of a workload's parts (machines, kernels, runs, streams):
    /// counts add, fingerprints fold in order.
    pub fn total(parts: &[SimSummary]) -> SimSummary {
        SimSummary {
            fingerprint: fold(&parts.iter().map(|p| p.fingerprint).collect::<Vec<_>>()),
            cycles: parts.iter().map(|p| p.cycles).sum(),
            instructions: parts.iter().map(|p| p.instructions).sum(),
            extra_bytes: parts.iter().map(|p| p.extra_bytes).sum(),
            base_bytes: parts.iter().map(|p| p.base_bytes).sum(),
        }
    }

    /// An SpMV kernel's part. The memory metric is the overlay
    /// footprint as a share of CSR's (Figure 10's memory axis), so the
    /// overlay kernel contributes the numerator and CSR the base.
    pub fn spmv_kernel(t: &SpmvTiming, overlay: bool) -> SimSummary {
        SimSummary {
            fingerprint: fold(&[t.cycles, t.instructions, t.memory_bytes]),
            cycles: t.cycles,
            instructions: t.instructions,
            extra_bytes: if overlay { t.memory_bytes } else { 0 },
            base_bytes: if overlay { 0 } else { t.memory_bytes },
        }
    }

    /// A soak stream's part: the harness machine's whole-run cycles, and
    /// its physical memory (frames, OMS, resident overlay lines) as a
    /// share of the memory its processes map.
    pub fn soak_stream(h: &SimHarness) -> SimSummary {
        let stats = h.machine.snapshot();
        let mapped_pages: usize = h.procs.iter().map(|&p| h.oracle.mapped_pages(p).len()).sum();
        SimSummary {
            fingerprint: fingerprint64_bytes(&h.machine.save_snapshot()),
            cycles: stats.cycles,
            instructions: stats.instructions,
            extra_bytes: h.machine.extra_memory_bytes(),
            base_bytes: mapped_pages as u64 * PAGE_SIZE as u64,
        }
    }
}

/// FNV-1a over a sequence of words.
pub fn fold(words: &[u64]) -> u64 {
    let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
    fingerprint64_bytes(&bytes)
}

/// SpMV inputs: the matrix in both representations.
#[derive(Clone, Debug)]
pub struct SpmvInputs {
    pub config: SystemConfig,
    pub csr: CsrMatrix,
    pub ovl: OverlayMatrix,
}

/// One fork-suite benchmark: the §5.1 scenario's mapping and traces.
#[derive(Clone, Debug)]
pub struct ForkRun {
    pub name: &'static str,
    pub config: SystemConfig,
    pub base_vpn: Vpn,
    pub mapped_pages: u64,
    pub warmup: Vec<TraceOp>,
    pub post: Vec<TraceOp>,
}

/// One contended-fork run: the spec and the per-core streams it yields.
#[derive(Clone, Debug)]
pub struct McRun {
    pub config: SystemConfig,
    pub spec: ContendedForkSpec,
    pub streams: Vec<Vec<TraceOp>>,
}

/// Soak inputs: the streams, and where to find replacements for any
/// the harness rejects.
#[derive(Clone, Debug)]
pub struct SoakInputs {
    pub config: SystemConfig,
    pub seed: u64,
    pub len: usize,
    pub streams: Vec<Vec<TraceOp>>,
    /// Index of the next candidate stream.
    pub next: u64,
    /// Candidates the harness rejected while settling.
    pub rejected: u64,
}

impl SoakInputs {
    fn candidate(&mut self) -> Vec<TraceOp> {
        let ops = generate_soak_ops(sub_seed(self.seed, self.next), self.len);
        self.next += 1;
        ops
    }
}

/// A workload's generated inputs.
#[derive(Clone, Debug)]
pub enum Inputs {
    Fork(Vec<ForkRun>),
    Spmv(SpmvInputs),
    Mc(Vec<McRun>),
    Soak(SoakInputs),
}

impl Inputs {
    /// Trace ops one rep applies.
    pub fn ops(&self) -> u64 {
        let n: usize = match self {
            Inputs::Fork(runs) => runs.iter().map(|r| r.warmup.len() + r.post.len()).sum(),
            Inputs::Spmv(s) => compose::spmv_ops(&s.ovl, &s.csr),
            Inputs::Mc(runs) => runs
                .iter()
                .map(|r| {
                    r.spec.pages as usize * LINES_PER_PAGE
                        + r.streams.iter().map(Vec::len).sum::<usize>()
                })
                .sum(),
            Inputs::Soak(s) => s.streams.iter().map(Vec::len).sum(),
        };
        n as u64
    }
}

/// The `i`-th seed derived from `seed`, for workloads made of several
/// independent runs.
pub fn sub_seed(seed: u64, i: u64) -> u64 {
    fold(&[seed, i])
}

/// How long one set-up took, in parts.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupTimes {
    /// Whole set-up wall time.
    pub total_s: f64,
    /// Trace generation.
    pub tracegen_s: f64,
    /// Matrix generation and conversion (SpMV only).
    pub matrix_build_s: f64,
    /// Building and mapping every machine one rep uses.
    pub machine_new_ms: f64,
}

impl SetupTimes {
    /// Each part's median over `rounds`.
    pub fn median(rounds: &[SetupTimes]) -> SetupTimes {
        let part = |f: fn(&SetupTimes) -> f64| median(&rounds.iter().map(f).collect::<Vec<_>>());
        SetupTimes {
            total_s: part(|r| r.total_s),
            tracegen_s: part(|r| r.tracegen_s),
            matrix_build_s: part(|r| r.matrix_build_s),
            machine_new_ms: part(|r| r.machine_new_ms),
        }
    }
}

/// Generates `w`'s inputs from `seed`, then builds and maps (and drops)
/// every machine one rep uses, timing each part.
///
/// # Errors
///
/// A machine fault while building the machines.
pub fn setup(w: Workload, p: &Params, seed: u64) -> Result<(Inputs, SetupTimes), String> {
    let start = Instant::now();
    let mut matrix_build_s = 0.0;
    let inputs = match w {
        Workload::ForkOow | Workload::ForkCow => {
            let config = if w == Workload::ForkOow {
                SystemConfig::table2_overlay()
            } else {
                SystemConfig::table2()
            };
            let window = p.fork_warmup.max(p.fork_post);
            let runs = spec_suite()
                .into_iter()
                .map(|spec| ForkRun {
                    name: spec.name,
                    config: config.clone(),
                    base_vpn: spec.base_vpn(),
                    mapped_pages: spec.mapped_pages(window),
                    warmup: spec.generate_warmup(p.fork_warmup, seed),
                    post: spec.generate_post_fork(p.fork_post, seed),
                })
                .collect();
            Inputs::Fork(runs)
        }
        Workload::Spmv => {
            let triplets =
                gen::clustered(p.spmv_rows, p.spmv_cols, p.spmv_nnz, p.spmv_run, true, seed);
            let csr = CsrMatrix::from_triplets(&triplets);
            let ovl = OverlayMatrix::from_triplets(&triplets);
            matrix_build_s = start.elapsed().as_secs_f64();
            Inputs::Spmv(SpmvInputs { config: SystemConfig::table2_overlay(), csr, ovl })
        }
        Workload::Mc4Contended => Inputs::Mc(
            (0..p.mc_runs)
                .map(|i| {
                    let spec = ContendedForkSpec {
                        pages: p.mc_pages,
                        ops_per_core: p.mc_ops_per_core,
                        ..ContendedForkSpec::standard(p.mc_cores, sub_seed(seed, i))
                    };
                    let streams = build_core_streams(&spec);
                    McRun { config: SystemConfig::table2_overlay(), spec, streams }
                })
                .collect(),
        ),
        Workload::SoakHarness => {
            let mut s = SoakInputs {
                config: SystemConfig::table2_overlay(),
                seed,
                len: p.soak_ops,
                streams: Vec::with_capacity(p.soak_streams),
                next: 0,
                rejected: 0,
            };
            for _ in 0..p.soak_streams {
                let ops = s.candidate();
                s.streams.push(ops);
            }
            Inputs::Soak(s)
        }
    };
    let tracegen_s = start.elapsed().as_secs_f64() - matrix_build_s;
    let t = Instant::now();
    compose::build_machines(&inputs).map_err(|e| format!("set-up machine build failed: {e:?}"))?;
    let machine_new_ms = t.elapsed().as_secs_f64() * 1e3;
    let times = SetupTimes {
        total_s: start.elapsed().as_secs_f64(),
        tracegen_s,
        matrix_build_s,
        machine_new_ms,
    };
    Ok((inputs, times))
}

/// One untraced rep.
#[derive(Clone, Debug)]
pub struct Rep {
    pub summary: SimSummary,
    /// Host seconds of each part (fork benchmark, SpMV kernel, contended
    /// fork, soak stream) inside the library calls, in input order.
    pub part_secs: Vec<f64>,
}

impl Rep {
    pub fn secs(&self) -> f64 {
        self.part_secs.iter().sum()
    }
}

/// Runs `part`, recording its outcome and host seconds.
fn timed_part(
    rep: &mut (Vec<SimSummary>, Vec<f64>),
    part: impl FnOnce() -> Result<SimSummary, String>,
) -> Result<(), String> {
    let t = Instant::now();
    let summary = part()?;
    rep.1.push(t.elapsed().as_secs_f64());
    rep.0.push(summary);
    Ok(())
}

/// One fork-suite benchmark as the workload runner runs a fork job:
/// `run_fork_experiment_on` on a fresh machine, then the fingerprint of
/// its final snapshot. The traces are borrowed, so a rep copies nothing.
fn fork_run(r: &ForkRun) -> po_types::PoResult<SimSummary> {
    let mut m = Machine::new(r.config.clone())?;
    let out = run_fork_experiment_on(&mut m, r.base_vpn, r.mapped_pages, &r.warmup, &r.post)?;
    Ok(SimSummary {
        fingerprint: fingerprint64_bytes(&m.save_snapshot()),
        cycles: out.post_cycles,
        instructions: out.post_instructions,
        extra_bytes: out.extra_memory_bytes,
        base_bytes: r.mapped_pages * PAGE_SIZE as u64,
    })
}

/// One soak stream through the runner's harness loop, then the final
/// sweep, as `run_job` drives a soak job.
fn soak_stream(config: &SystemConfig, ops: &[TraceOp]) -> Result<SimSummary, String> {
    let mut h = SimHarness::new(config.clone()).map_err(|e| format!("harness: {e:?}"))?;
    drive_ops(&mut h, ops, 0, "", |_, _| {}, |_, _| Ok(false))?;
    h.check_all()?;
    Ok(SimSummary::soak_stream(&h))
}

/// Runs one untraced rep of `inputs`.
///
/// # Errors
///
/// A machine fault or a harness finding, described.
pub fn run_rep(inputs: &Inputs) -> Result<Rep, String> {
    let mut rep = (Vec::new(), Vec::new());
    match inputs {
        Inputs::Fork(runs) => {
            for r in runs {
                timed_part(&mut rep, || {
                    fork_run(r).map_err(|e| format!("fork/{}: {e:?}", r.name))
                })?;
            }
        }
        Inputs::Spmv(s) => {
            let timed = TimedSpmv::new(s.config.clone());
            timed_part(&mut rep, || {
                let t = timed.time_overlay(&s.ovl).map_err(|e| format!("overlay kernel: {e:?}"))?;
                Ok(SimSummary::spmv_kernel(&t, true))
            })?;
            timed_part(&mut rep, || {
                let t = timed.time_csr(&s.csr).map_err(|e| format!("csr kernel: {e:?}"))?;
                Ok(SimSummary::spmv_kernel(&t, false))
            })?;
        }
        Inputs::Mc(runs) => {
            for run in runs {
                timed_part(&mut rep, || {
                    let out =
                        run_contended_fork(run.config.clone(), &run.spec, TelemetrySink::noop())
                            .map_err(|e| format!("contended fork: {e:?}"))?;
                    Ok(SimSummary {
                        fingerprint: out.snapshot_fingerprint,
                        cycles: out.sched.stats.cycles,
                        instructions: out.sched.stats.instructions,
                        extra_bytes: out.extra_memory_bytes,
                        base_bytes: run.spec.pages * PAGE_SIZE as u64,
                    })
                })?;
            }
        }
        Inputs::Soak(s) => {
            for (i, ops) in s.streams.iter().enumerate() {
                timed_part(&mut rep, || {
                    soak_stream(&s.config, ops).map_err(|e| format!("stream {i}: {e}"))
                })?;
            }
        }
    }
    Ok(Rep { summary: SimSummary::total(&rep.0), part_secs: rep.1 })
}

/// The discarded warm-up rep. For the soak it also settles the inputs:
/// a stream the harness rejects — a divergence the harness exists to
/// find (README.md, "Known issues") — is replaced by the next
/// candidate, so every timed rep runs streams that complete.
///
/// # Errors
///
/// As [`run_rep`]; for the soak, only when candidates keep failing.
pub fn warm_up(inputs: &mut Inputs) -> Result<Rep, String> {
    let Inputs::Soak(s) = inputs else { return run_rep(inputs) };
    let config = s.config.clone();
    let parts = settle(s, |ops| soak_stream(&config, ops))?;
    Ok(Rep { summary: SimSummary::total(&parts), part_secs: Vec::new() })
}

/// Runs every stream, replacing each one `run` rejects by the next
/// candidate; returns the accepted streams' outcomes in order.
fn settle(
    s: &mut SoakInputs,
    run: impl Fn(&[TraceOp]) -> Result<SimSummary, String>,
) -> Result<Vec<SimSummary>, String> {
    let mut parts = Vec::with_capacity(s.streams.len());
    for i in 0..s.streams.len() {
        loop {
            match run(&s.streams[i]) {
                Ok(part) => {
                    parts.push(part);
                    break;
                }
                Err(e) => {
                    s.rejected += 1;
                    eprintln!(
                        "po_perf: soak stream {i} rejected, replaced by candidate {}: {e}",
                        s.next
                    );
                    if s.rejected > s.streams.len() as u64 {
                        return Err(format!("the harness rejected {} soak streams", s.rejected));
                    }
                    s.streams[i] = s.candidate();
                }
            }
        }
    }
    Ok(parts)
}

#[cfg(test)]
pub mod tests {
    use super::*;
    use po_sim::runner::{run_job, WorkloadJob};

    /// The benchmark's shapes at sizes a unit test can afford.
    pub const TINY: Params = Params {
        fork_warmup: 4_000,
        fork_post: 6_000,
        spmv_rows: 40,
        spmv_cols: 128,
        spmv_nnz: 2_000,
        spmv_run: 8,
        mc_runs: 2,
        mc_cores: 4,
        mc_pages: 16,
        mc_ops_per_core: 1_500,
        soak_streams: 3,
        soak_ops: 100,
    };

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn two_runs_agree_exactly_on_every_simulated_metric() {
        for w in Workload::ALL {
            let (mut a, _) = setup(w, &TINY, 3).unwrap();
            let (b, _) = setup(w, &TINY, 3).unwrap();
            assert_eq!(a.ops(), b.ops(), "{}", w.name());
            let ra = warm_up(&mut a).unwrap();
            let rb = run_rep(&b).unwrap();
            assert_eq!(ra.summary, rb.summary, "{}", w.name());
            assert!(ra.summary.cycles > 0 && ra.summary.instructions > 0, "{}", w.name());
            assert!(ra.summary.extra_memory_pct() > 0.0, "{}", w.name());
        }
    }

    #[test]
    fn a_fork_run_is_the_runner_fork_job() {
        let (inputs, _) = setup(Workload::ForkOow, &TINY, 6).unwrap();
        let Inputs::Fork(runs) = &inputs else { panic!("fork inputs") };
        for r in runs {
            let job = WorkloadJob::fork(
                0,
                r.name,
                r.config.clone(),
                r.base_vpn,
                r.mapped_pages,
                r.warmup.clone(),
                r.post.clone(),
            );
            let via_runner = run_job(job).unwrap();
            let out = via_runner.outcome.as_fork().unwrap();
            let ours = fork_run(r).unwrap();
            assert_eq!(ours.fingerprint, via_runner.snapshot_fingerprint, "{}", r.name);
            assert_eq!((ours.cycles, ours.extra_bytes), (out.post_cycles, out.extra_memory_bytes));
        }
    }

    #[test]
    fn a_soak_stream_is_the_runner_soak_job() {
        let (inputs, _) = setup(Workload::SoakHarness, &TINY, 5).unwrap();
        let Inputs::Soak(soak) = &inputs else { panic!("soak inputs") };
        let ops = soak.streams[0].clone();
        let job = WorkloadJob::soak(0, "soak", soak.config.clone(), ops.clone(), 1.0);
        let via_runner = run_job(job).unwrap();
        assert_eq!(via_runner.outcome.as_soak().unwrap().verdict, Ok(()));
        assert_eq!(
            soak_stream(&soak.config, &ops).unwrap().fingerprint,
            via_runner.snapshot_fingerprint
        );
    }

    #[test]
    fn settling_replaces_a_rejected_soak_stream() {
        let (mut inputs, _) = setup(Workload::SoakHarness, &TINY, 5).unwrap();
        let Inputs::Soak(soak) = &mut inputs else { panic!("soak inputs") };
        let sentinel = vec![TraceOp::Flush];
        soak.streams[1] = sentinel.clone();
        let parts = settle(soak, |ops| {
            if ops == sentinel.as_slice() {
                Err("rejected".into())
            } else {
                Ok(SimSummary { cycles: ops.len() as u64, ..SimSummary::default() })
            }
        })
        .unwrap();
        assert_eq!(parts.len(), TINY.soak_streams);
        assert_eq!(soak.rejected, 1);
        assert_eq!(soak.streams[1].len(), TINY.soak_ops);
        assert_eq!(soak.next, TINY.soak_streams as u64 + 1);
    }
}
