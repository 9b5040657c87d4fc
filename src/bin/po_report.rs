//! Telemetry run reports for the paper's two headline workloads.
//!
//! Runs the §5.1 fork/checkpoint experiment and the Figure 10 SpMV
//! kernel with an active [`TelemetrySink`], then prints a per-layer CPI
//! stack, the metrics registry, and the journal summary for each.
//! A third report, `soak`, replays a seeded churn stream through the
//! differential harness and summarizes fragmentation and §4.4.2
//! compaction activity from the telemetry gauges and counters.
//! Optionally exports the raw telemetry next to the report.
//!
//! ```text
//! po_report [--workload fork|spmv|soak|all] [--out DIR]
//!           [--spec NAME] [--warmup N] [--post N] [--seed N]
//! ```
//!
//! * `--workload` — which report(s) to produce (default `all`).
//! * `--out` — directory to write `<workload>.trace.json` (Chrome
//!   `trace_event` format, loadable in `chrome://tracing`/Perfetto) and
//!   `<workload>.events.jsonl` (the cycle-stamped event journal).
//! * `--spec` — fork workload from the SPEC-like suite (default `mcf`,
//!   a Type 3 sparse writer).
//! * `--warmup` / `--post` — instruction budget before/after the fork
//!   (defaults 40 000 / 60 000).
//! * `--seed` — workload generator seed (default 42).
//!
//! Everything here is deterministic: same arguments, byte-identical
//! reports and exports.
//!
//! [`TelemetrySink`]: page_overlays::telemetry::TelemetrySink

use page_overlays::sim::{generate_soak_ops, run_job, SystemConfig, WorkloadJob};
use page_overlays::sparse::gen as matrix_gen;
use page_overlays::sparse::{CsrMatrix, OverlayMatrix, TimedSpmv};
use page_overlays::telemetry::TelemetrySink;
use page_overlays::workloads::spec_suite;
use std::path::Path;
use std::process::ExitCode;

/// Journal/span capacity for report runs: large enough that the CPI
/// stack aggregates every access, with the journal ring bounding memory.
const REPORT_CAPACITY: usize = 65_536;

struct Options {
    workload: String,
    out: Option<String>,
    spec: String,
    warmup: u64,
    post: u64,
    seed: u64,
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        workload: "all".to_string(),
        out: None,
        spec: "mcf".to_string(),
        warmup: 40_000,
        post: 60_000,
        seed: 42,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |what: &str| args.next().ok_or(format!("{what} needs a value"));
        match arg.as_str() {
            "--workload" => opts.workload = value("--workload")?,
            "--out" => opts.out = Some(value("--out")?),
            "--spec" => opts.spec = value("--spec")?,
            "--warmup" => {
                opts.warmup = value("--warmup")?.parse().map_err(|e| format!("--warmup: {e}"))?;
            }
            "--post" => {
                opts.post = value("--post")?.parse().map_err(|e| format!("--post: {e}"))?;
            }
            "--seed" => {
                opts.seed = value("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
            }
            other => return Err(format!("unknown argument {other} (see the module docs)")),
        }
    }
    if !matches!(opts.workload.as_str(), "fork" | "spmv" | "soak" | "all") {
        return Err(format!("--workload must be fork, spmv, soak, or all, not {}", opts.workload));
    }
    Ok(opts)
}

/// Writes the Chrome trace and event journal under `dir`.
fn export(sink: &TelemetrySink, dir: &str, tag: &str) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let trace = Path::new(dir).join(format!("{tag}.trace.json"));
    std::fs::write(&trace, sink.chrome_trace_json())?;
    println!("Chrome trace written to {}", trace.display());
    let events = Path::new(dir).join(format!("{tag}.events.jsonl"));
    std::fs::write(&events, sink.journal_jsonl())?;
    println!("event journal written to {}", events.display());
    Ok(())
}

fn fork_report(opts: &Options) -> Result<(), String> {
    let spec = spec_suite()
        .into_iter()
        .find(|s| s.name == opts.spec)
        .ok_or_else(|| format!("no workload named {} in the SPEC-like suite", opts.spec))?;
    let job = WorkloadJob::fork(
        0,
        format!("fork/{} (overlay-on-write)", spec.name),
        SystemConfig::table2_overlay(),
        spec.base_vpn(),
        spec.mapped_pages(opts.warmup.max(opts.post)),
        spec.generate_warmup(opts.warmup, opts.seed),
        spec.generate_post_fork(opts.post, opts.seed),
    )
    .with_seed(opts.seed)
    .with_telemetry(REPORT_CAPACITY);
    let run = run_job(job).map_err(|e| format!("fork experiment failed: {e:?}"))?;
    let result = run.outcome.as_fork().expect("fork job outcome");

    print!("{}", run.telemetry.run_report(&run.label));
    println!(
        "\npost-fork CPI {:.3}, extra memory {} B, overlay bytes {} B, OMT cache hit rate {:.3}\n",
        result.cpi, result.extra_memory_bytes, result.overlay_bytes, result.omt_cache_hit_rate
    );
    if let Some(dir) = &opts.out {
        export(&run.telemetry, dir, "fork").map_err(|e| format!("export failed: {e}"))?;
    }
    Ok(())
}

fn spmv_report(opts: &Options) -> Result<(), String> {
    // A clustered matrix with high line locality — the regime where the
    // overlay representation beats CSR (Figure 10, high L).
    let triplets = matrix_gen::clustered(40, 512, 20_000, 8, true, opts.seed);
    let csr = CsrMatrix::from_triplets(&triplets);
    let ovl = OverlayMatrix::from_triplets(&triplets);

    let sink = TelemetrySink::with_capacity(REPORT_CAPACITY, REPORT_CAPACITY);
    let timed = TimedSpmv::new(SystemConfig::table2_overlay()).with_telemetry(sink.clone());
    let timing = timed.time_overlay(&ovl).map_err(|e| format!("overlay SpMV failed: {e:?}"))?;
    let csr_timing = TimedSpmv::new(SystemConfig::table2_overlay())
        .time_csr(&csr)
        .map_err(|e| format!("CSR SpMV failed: {e:?}"))?;

    print!(
        "{}",
        sink.run_report(&format!("SpMV overlay representation (L = {:.1})", ovl.locality()))
    );
    println!(
        "\noverlay: {} cycles, CPI {:.3}, {} B; CSR: {} cycles, CPI {:.3}, {} B\n",
        timing.cycles,
        timing.cpi(),
        timing.memory_bytes,
        csr_timing.cycles,
        csr_timing.cpi(),
        csr_timing.memory_bytes
    );
    if let Some(dir) = &opts.out {
        export(&sink, dir, "spmv").map_err(|e| format!("export failed: {e}"))?;
    }
    Ok(())
}

/// Ops per soak-report churn stream — matches the `po_soak` default.
const SOAK_OPS: usize = 2000;
/// End-of-run fragmentation ceiling — matches the `po_soak` default.
const SOAK_FRAG_CEILING: f64 = 0.9;

fn soak_report(opts: &Options) -> Result<(), String> {
    let job = WorkloadJob::soak(
        0,
        "soak churn (overlay-on-write)".to_string(),
        SystemConfig::table2_overlay(),
        generate_soak_ops(opts.seed, SOAK_OPS),
        SOAK_FRAG_CEILING,
    )
    .with_seed(opts.seed)
    .with_telemetry(REPORT_CAPACITY);
    let run = run_job(job).map_err(|e| format!("soak churn failed: {e:?}"))?;
    let soak = run.outcome.as_soak().expect("soak job outcome");
    soak.verdict.as_ref().map_err(|e| format!("soak verdict: {e}"))?;

    print!("{}", run.telemetry.run_report(&run.label));
    // The fragmentation figure is the gauge the manager sets after each
    // compaction pass ("oms.fragmentation_pmille"), so it is checkable
    // against an `--out` export.
    let frag_pmille = run
        .telemetry
        .metrics()
        .and_then(|m| m.gauge_value("oms.fragmentation_pmille"))
        .unwrap_or(0);
    println!(
        "\nsoak: {} ops, {} live procs, {} B overlay; compaction: {} passes, {} B relocated, \
         fragmentation {:.3} final ({} ‰ at last pass, ceiling {:.3})\n",
        soak.ops_applied,
        soak.procs,
        soak.overlay_bytes,
        soak.compaction_passes,
        soak.relocated_bytes,
        soak.final_fragmentation,
        frag_pmille,
        SOAK_FRAG_CEILING,
    );
    if let Some(dir) = &opts.out {
        export(&run.telemetry, dir, "soak").map_err(|e| format!("export failed: {e}"))?;
    }
    Ok(())
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("po_report: {e}");
            return ExitCode::from(2);
        }
    };
    let run = |r: Result<(), String>| match r {
        Ok(()) => true,
        Err(e) => {
            eprintln!("po_report: {e}");
            false
        }
    };
    let mut ok = true;
    if matches!(opts.workload.as_str(), "fork" | "all") {
        ok &= run(fork_report(&opts));
    }
    if matches!(opts.workload.as_str(), "spmv" | "all") {
        ok &= run(spmv_report(&opts));
    }
    if matches!(opts.workload.as_str(), "soak" | "all") {
        ok &= run(soak_report(&opts));
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
