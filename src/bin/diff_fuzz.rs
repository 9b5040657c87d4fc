//! Differential fuzzer for the page-overlay machine.
//!
//! Generates seeded op streams (maps, pokes/peeks, forks, overlay
//! commits/discards/flushes/reclaims, timed loads/stores), runs each
//! against the machine and the byte-level [`DiffOracle`], and — on
//! divergence — shrinks the stream to a locally minimal trace and
//! writes it as a replayable trace file.
//!
//! Shrinking is coupled to the `po_analyze` abstract verifier: delta
//! debugging discards any candidate the verifier proves degenerate
//! (ops that are provably dead or must fail — PA-V001/PA-V002), so the
//! expensive differential replay is never spent on noise and the
//! emitted minimal trace carries no dead weight. The final trace is
//! verified once more before it is written; a rejection there is an
//! internal error, not a fuzzing result.
//!
//! ```text
//! diff_fuzz [--seed N] [--runs N] [--ops N] [--cores N] [--cow]
//!           [--backend overlay|seg] [--faults] [--inject-bug]
//!           [--spec] [--out PATH]
//! ```
//!
//! * `--seed` — first stream seed (default 1; run `i` uses `seed + i`).
//! * `--runs` — streams to try (default 20).
//! * `--ops` — ops per stream (default 400).
//! * `--cores` — cores on the fuzzed machine (default 1). With more
//!   than one, streams carry `OnCore` directives so timed ops hop
//!   between cores and the §4.3.3 coherence paths are in play.
//! * `--cow` — fuzz the copy-on-write baseline instead of overlay mode.
//! * `--backend` — address-translation backend to fuzz (default
//!   `overlay`). A backend without overlay support (`seg`) degrades
//!   every shared-page store to classic CoW; the byte oracle, the
//!   invariant sweep, and the refinement spec all follow suit.
//! * `--faults` — install a PR-1 style fault plan (OMS allocation
//!   failures, grow refusals, frame exhaustion) seeded per run.
//! * `--inject-bug` — enable the deliberate test-only divergence (a
//!   poke of `0x42` writes `0x43`): the fuzzer must catch it.
//! * `--spec` — run the spec-refinement positive control first: a
//!   machine that skips one OMS free must be caught by the refinement
//!   oracle (the executable spec every run steps in lockstep anyway).
//!   CI's `refinement` job passes this flag.
//! * `--race` — run the seeded-race positive control first: a machine
//!   that delivers one remote OBitVector update without annotating it
//!   must be caught by the PA-C happens-before verifier — and by
//!   *nothing else* (the byte oracle, the invariant sweep, and the
//!   refinement spec all stay green, because the functional TLB patch
//!   still lands). The witness is ddmin-shrunk under the "PA-C001
//!   still fires" predicate and written next to `--out` as
//!   `<out>.race.trace`. CI's `analyze` job passes this flag.
//! * `--out` — where to write the shrunk failing trace
//!   (default `diff_fuzz_failure.trace`).
//!
//! With `--cores` above 1, every converged stream — and any shrunk
//! divergence witness — is additionally replayed through the PA-C
//! concurrency verifier; a finding there fails the run even when the
//! byte oracle agrees.
//!
//! Exits 0 if every run converges, 1 on divergence (after writing the
//! shrunk trace and, next to it, `<out>.events.jsonl` — the last 256
//! telemetry events of the minimal failing replay), 2 on usage errors.
//!
//! [`DiffOracle`]: page_overlays::sim::DiffOracle

use page_overlays::analyze::verifier::{analyze_jsonl, replay_and_analyze, replay_events_jsonl};
use page_overlays::analyze::{self, Verdict, VerifierOptions};
use page_overlays::sim::{
    generate_mc_ops, run_ops, run_ops_traced, shrink_by, shrink_ops_filtered,
    write_trace_with_seed, BackendKind, SimHarness, SystemConfig, TraceOp, VPN_BASE,
};
use page_overlays::types::VirtAddr;
use page_overlays::types::{FaultPlan, FaultSite};
use std::process::ExitCode;

struct Options {
    seed: u64,
    runs: u64,
    ops: usize,
    cores: usize,
    cow: bool,
    backend: BackendKind,
    faults: bool,
    inject_bug: bool,
    spec: bool,
    race: bool,
    out: String,
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        seed: 1,
        runs: 20,
        ops: 400,
        cores: 1,
        cow: false,
        backend: BackendKind::Overlay,
        faults: false,
        inject_bug: false,
        spec: false,
        race: false,
        out: "diff_fuzz_failure.trace".to_string(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |what: &str| args.next().ok_or(format!("{what} needs a value"));
        match arg.as_str() {
            "--seed" => opts.seed = value("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--runs" => opts.runs = value("--runs")?.parse().map_err(|e| format!("--runs: {e}"))?,
            "--ops" => opts.ops = value("--ops")?.parse().map_err(|e| format!("--ops: {e}"))?,
            "--cores" => {
                opts.cores = value("--cores")?.parse().map_err(|e| format!("--cores: {e}"))?;
                if opts.cores == 0 {
                    return Err("--cores must be at least 1".into());
                }
            }
            "--cow" => opts.cow = true,
            "--backend" => {
                opts.backend = value("--backend")?.parse().map_err(|e| format!("--backend: {e}"))?
            }
            "--faults" => opts.faults = true,
            "--inject-bug" => opts.inject_bug = true,
            "--spec" => opts.spec = true,
            "--race" => opts.race = true,
            "--out" => opts.out = value("--out")?,
            other => return Err(format!("unknown argument {other} (see the module docs)")),
        }
    }
    Ok(opts)
}

/// Positive control for the refinement oracle: arm the one-shot
/// OMS-free skip, drive a minimal overlay lifecycle, and demand that
/// the *spec* (not the byte oracle or an internal invariant sweep)
/// calls the leak out at the discard.
fn refinement_canary() -> Result<(), String> {
    let mut h = SimHarness::new(SystemConfig::table2_overlay())
        .map_err(|e| format!("harness construction failed: {e:?}"))?;
    h.machine.set_inject_oms_leak(true);
    let ops = [
        TraceOp::Spawn,
        TraceOp::Map { proc_sel: 0, start: VPN_BASE, count: 1 },
        TraceOp::Fork { proc_sel: 0 },
        TraceOp::SeedLine { proc_sel: 0, vpn: VPN_BASE, line: 0, value: 0xAB },
        TraceOp::DiscardPage { proc_sel: 0, vpn: VPN_BASE },
    ];
    for op in &ops {
        match h.apply(op) {
            Ok(()) => {}
            Err(e) if e.contains("spec refinement violated") => return Ok(()),
            Err(e) => return Err(format!("the canary tripped the wrong check: {e}")),
        }
    }
    Err("the skipped OMS free went undetected by the refinement oracle".into())
}

/// Positive control for the concurrency verifier: arm the one-shot
/// suppressed remote OBitVector-update annotation, drive the §4.3.3
/// remote-update pattern across two cores under a generated multi-core
/// tail, and demand that PA-C001 — and *only* the happens-before
/// analysis — calls out the deleted synchronization edge. The replay
/// itself runs the byte oracle, the invariant sweep, and the
/// refinement spec in lockstep, so a clean journal return already
/// proves every functional check stayed green. The witness is then
/// ddmin-shrunk under the "PA-C001 still fires" predicate and written
/// as a replayable trace.
fn race_canary(out: &str) -> Result<(), String> {
    let config = SystemConfig { cores: 2, ..SystemConfig::table2_overlay() };
    // Deterministic victim pattern: core 1 caches the page, core 0's
    // overlaying store broadcasts the single-line update (suppressed by
    // the canary), core 1 reads the line it never saw created.
    let mut ops = vec![
        TraceOp::Spawn,
        TraceOp::Map { proc_sel: 0, start: VPN_BASE, count: 2 },
        TraceOp::Fork { proc_sel: 0 },
        TraceOp::OnCore { core_sel: 1 },
        TraceOp::Load(VirtAddr::new(VPN_BASE << 12)),
        TraceOp::OnCore { core_sel: 0 },
        TraceOp::Store(VirtAddr::new(VPN_BASE << 12)),
        TraceOp::OnCore { core_sel: 1 },
        TraceOp::Load(VirtAddr::new(VPN_BASE << 12)),
    ];
    // A generated tail gives the shrinker real work.
    ops.extend(generate_mc_ops(0xCA9A87, 80, 2));

    // Negative control: unarmed, the same stream must be PA-C clean.
    let control = replay_and_analyze(&config, &ops, "<race-control>")
        .map_err(|e| format!("the unarmed control replay failed: {e}"))?;
    if !control.findings.is_empty() {
        return Err(format!(
            "the unarmed control replay is not PA-C clean:\n{}",
            control.to_human()
        ));
    }

    // Armed: functional oracles stay green (a replay error here means
    // the canary tripped the wrong check), PA-C001 must fire.
    let armed_race = |cand: &[TraceOp]| {
        replay_events_jsonl(&config, cand, true)
            .map(|journal| {
                analyze_jsonl(&journal, "<race-canary>")
                    .findings
                    .iter()
                    .any(|f| f.rule == "PA-C001")
            })
            .unwrap_or(false)
    };
    let journal = replay_events_jsonl(&config, &ops, true)
        .map_err(|e| format!("the canary tripped a functional oracle: {e}"))?;
    let report = analyze_jsonl(&journal, "<race-canary>");
    if !report.findings.iter().any(|f| f.rule == "PA-C001") {
        return Err("the suppressed update annotation went undetected by PA-C001".into());
    }

    let shrunk = shrink_by(&ops, armed_race);
    println!("race canary: shrunk {} ops -> {} ops", ops.len(), shrunk.len());
    let mut bytes = Vec::new();
    write_trace_with_seed(&mut bytes, &shrunk, None)
        .map_err(|e| format!("cannot serialize the shrunk race witness: {e}"))?;
    let race_out = format!("{out}.race.trace");
    std::fs::write(&race_out, &bytes).map_err(|e| format!("cannot write {race_out}: {e}"))?;
    println!("minimal race witness written to {race_out}");
    Ok(())
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("diff_fuzz: {e}");
            return ExitCode::from(2);
        }
    };
    let base = if opts.cow { SystemConfig::table2() } else { SystemConfig::table2_overlay() };
    let config = SystemConfig { cores: opts.cores, backend: opts.backend, ..base };

    if opts.spec {
        match refinement_canary() {
            Ok(()) => println!("spec refinement positive control: leak caught"),
            Err(e) => {
                eprintln!("diff_fuzz: spec refinement positive control FAILED — {e}");
                return ExitCode::from(1);
            }
        }
    }

    if opts.race {
        match race_canary(&opts.out) {
            Ok(()) => println!("race positive control: lost update caught by PA-C001 alone"),
            Err(e) => {
                eprintln!("diff_fuzz: race positive control FAILED — {e}");
                return ExitCode::from(1);
            }
        }
    }

    for i in 0..opts.runs {
        let seed = opts.seed.wrapping_add(i);
        let ops = generate_mc_ops(seed, opts.ops, opts.cores);
        let plan = opts.faults.then(|| {
            FaultPlan::new(seed ^ 0xFA17)
                .with_probability(FaultSite::OmsAllocFailed, 0.05)
                .with_probability(FaultSite::OmsGrowRefused, 0.05)
                .with_probability(FaultSite::FrameAllocExhausted, 0.02)
        });
        match run_ops(&config, plan.as_ref(), &ops, opts.inject_bug) {
            Ok(()) if opts.cores > 1 => {
                // The byte oracle agrees — now the coherence annotation
                // stream must also carry a race-free happens-before
                // order. (The replay runs on a clean machine: fault
                // plans perturb scheduling, not the HB requirement.)
                match replay_and_analyze(&config, &ops, &format!("seed {seed}")) {
                    Ok(report) if report.findings.is_empty() => {
                        println!("seed {seed}: ok ({} ops, PA-C clean)", ops.len());
                    }
                    Ok(report) => {
                        eprintln!(
                            "diff_fuzz: seed {seed} converged but the concurrency verifier \
                             found:\n{}",
                            report.to_human()
                        );
                        return ExitCode::from(1);
                    }
                    Err(e) => {
                        eprintln!("diff_fuzz: seed {seed} PA-C replay failed — {e}");
                        return ExitCode::from(1);
                    }
                }
            }
            Ok(()) => println!("seed {seed}: ok ({} ops)", ops.len()),
            Err(e) => {
                println!("seed {seed}: DIVERGENCE — {e}");
                // Delta debugging, with the abstract verifier as a
                // pre-filter: a candidate containing an op the verifier
                // proves dead or must-fail (PA-V001/PA-V002) is noise —
                // skip the replay and never let it become the result.
                // Under --faults nothing is provable, so the filter is
                // vacuously permissive (assume_faults degrades it).
                let vopts = VerifierOptions { assume_faults: opts.faults, ..Default::default() };
                let clean = |cand: &[TraceOp]| {
                    !analyze::verify_ops(&config, cand, &vopts, "<candidate>")
                        .report
                        .findings
                        .iter()
                        .any(|f| f.rule == "PA-V001" || f.rule == "PA-V002")
                };
                let shrunk =
                    shrink_ops_filtered(&config, plan.as_ref(), &ops, opts.inject_bug, clean);
                println!("shrunk {} ops -> {} ops", ops.len(), shrunk.len());
                // Serialize, then verify the exact bytes about to land
                // on disk: the artifact must parse and replay.
                let mut bytes = Vec::new();
                if let Err(e) = write_trace_with_seed(&mut bytes, &shrunk, Some(seed)) {
                    eprintln!("diff_fuzz: cannot serialize the shrunk trace: {e}");
                    return ExitCode::from(2);
                }
                let text = String::from_utf8_lossy(&bytes);
                let analysis = analyze::verify_trace_text(&config, &text, &vopts, &opts.out);
                if analysis.verdict == Verdict::Reject {
                    eprintln!(
                        "diff_fuzz: internal error — the shrunk trace does not verify:\n{}",
                        analysis.report.to_human()
                    );
                    return ExitCode::from(2);
                }
                if !analysis.report.findings.is_empty() {
                    println!(
                        "verifier notes on the minimal trace:\n{}",
                        analysis.report.to_human()
                    );
                }
                if let Err(e) = std::fs::write(&opts.out, &bytes) {
                    eprintln!("diff_fuzz: cannot write {}: {e}", opts.out);
                    return ExitCode::from(2);
                }
                println!("minimal failing trace written to {} (verifier-checked)", opts.out);
                // Replay the minimal trace with telemetry armed and dump
                // the event tail: what the machine was doing as it broke.
                if let Err((_, tail)) =
                    run_ops_traced(&config, plan.as_ref(), &shrunk, opts.inject_bug)
                {
                    if tail.is_empty() {
                        // A fully-shrunk trace can be purely functional
                        // (spawn/map/poke) and never touch a timed,
                        // event-emitting path.
                        println!("no telemetry events in the minimal replay (functional ops only)");
                    } else {
                        let events_out = format!("{}.events.jsonl", opts.out);
                        match std::fs::write(&events_out, tail) {
                            Ok(()) => println!("event tail written to {events_out}"),
                            Err(e) => eprintln!("diff_fuzz: cannot write {events_out}: {e}"),
                        }
                    }
                }
                return ExitCode::from(1);
            }
        }
    }
    println!("{} runs converged", opts.runs);
    ExitCode::SUCCESS
}
