//! The trace verifier.
//!
//! Replays validated `.trace` files (the deterministic simulation
//! harness format) through the harness itself ([`SimHarness::step`]) and
//! reports operations that are dead, that must fail, or that are
//! wasteful. With no fault plan armed the machine is deterministic, so
//! one replay decides each property exactly: a finding describes the
//! one execution the trace has.
//!
//! Each op is judged from the harness state just before it: the
//! process list and its pid mapping, and the mapping, PTE flags and
//! overlay lines of the spec mirror ([`SpecMirror::state`]), which the
//! harness reconciles with the machine after every op. OMS demand is
//! `SpecState::oms_bound_bytes` of the exact line sets; the
//! resident-tail rule asks the machine's overlay manager which lines
//! have no OMS slot yet. PA-V004 and PA-V007 read the op list alone.
//!
//! # Rule catalog
//!
//! | Rule    | Severity | Meaning |
//! |---------|----------|---------|
//! | PA-V000 | error    | the trace does not parse (format v2 violation) |
//! | PA-V001 | warn     | dead op: before any process, past the ASID cap, or a zero-page map |
//! | PA-V002 | warn     | op targets a page that is never mapped: must fail |
//! | PA-V003 | info     | dead overlay op: seed/commit/discard/reclaim with nothing to act on |
//! | PA-V004 | warn     | crash point scheduled past the trace's total poll count |
//! | PA-V005 | warn     | lazy overlay allocation can exceed the configured OMS budget |
//! | PA-V006 | info     | trace ends with overlay lines resident but not OMS-backed |
//! | PA-V007 | warn     | `OnCore` selects a core id at or past the configured core count |
//!
//! Findings carry the 1-based op ordinal as their line, or 0 for a
//! whole-trace finding. A replay the harness itself cannot complete (a
//! machine fault, not a property of the trace) stops the per-op rules
//! at that op; PA-V004, PA-V005 and PA-V007 are still judged, and
//! PA-V006, which speaks of the trace's end, is not. A trace is
//! [`Verdict::Reject`]ed only for PA-V000 — the harness treats benign
//! runtime failures as skips, so every well-formed trace replays.
//!
//! The multi-core **concurrency verifier** (PA-C000..PA-C006) is the
//! second analysis, documented in [`concurrency`]: it replays the
//! machine's coherence annotation stream with per-core vector clocks.
//!
//! [`SpecMirror::state`]: po_sim::SpecMirror::state

pub mod coh_events;
pub mod concurrency;
pub mod protocol;
pub mod vclock;

pub use coh_events::{parse_jsonl, CohRecord};
pub use concurrency::{analyze_jsonl, analyze_records, replay_and_analyze, replay_events_jsonl};
pub use vclock::VClock;

use crate::findings::{Finding, Report, Severity};
use po_sim::{clamp_line, clamp_va, clamp_vpn, read_trace, SimHarness, SystemConfig, TraceOp};
use po_types::geometry::LINES_PER_PAGE;
use po_types::{Asid, Opn, Vpn};

/// Options for one verification run.
#[derive(Clone, Debug, Default)]
pub struct VerifierOptions {
    /// Overlay-store budget in bytes: enables the PA-V005 (possible OMS
    /// overflow) rule against this limit.
    pub oms_limit: Option<u64>,
    /// Crash-point query indices (0-based, one poll per op — the
    /// `run_crash_convergence` schedule): enables PA-V004 (unreachable
    /// crash point) for each.
    pub crash_queries: Vec<u64>,
    /// Fragmentation headroom for PA-V005, as a fraction of peak
    /// demand: the §4.4.3 allocator strands freed bytes in the small
    /// segment classes, so a budget that only covers the live peak can
    /// still overflow under class churn. With slack `F` the rule fires
    /// when `peak × (1 + F)` exceeds the budget. `0.0` (the default)
    /// checks the raw peak; §4.4.2 compaction is what keeps small
    /// slack values honest on the real machine.
    pub frag_slack: f64,
}

/// Whether the artifact is usable at all.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// The trace parses and replays (findings may still exist).
    Accept,
    /// The trace is rejected outright (parse error).
    Reject,
}

/// The complete result of verifying one trace.
#[derive(Clone, Debug)]
pub struct Analysis {
    /// [`Verdict::Reject`] iff the trace failed to parse.
    pub verdict: Verdict,
    /// All findings, sorted.
    pub report: Report,
}

/// Process cap of the OS model: ASIDs are 15-bit and the first one is
/// 1, so at most `Asid::MAX` processes ever spawn.
const PROC_CAP: usize = Asid::MAX as usize;

/// One per-op finding: rule, severity, message.
type Judgement = (&'static str, Severity, String);

/// Judges `op` against the harness state just before it runs.
fn judge(h: &SimHarness, op: &TraceOp) -> Option<Judgement> {
    let warn = |rule, msg| Some((rule, Severity::Warn, msg));
    let dead = |msg| Some(("PA-V003", Severity::Info, msg));
    // What the op is called in a finding, and its process selector
    // (`None`: timed ops run on the first process).
    let (what, sel) = match *op {
        TraceOp::Spawn if h.procs.len() >= PROC_CAP => {
            return warn(
                "PA-V001",
                format!("spawn after the {PROC_CAP}-process ASID space is exhausted: must fail"),
            )
        }
        TraceOp::Reclaim if h.spec.state().pages().all(|(_, p)| p.overlay == 0) => {
            return dead("reclaim with provably no overlay to collapse: the op is dead".into())
        }
        TraceOp::Spawn
        | TraceOp::Reclaim
        | TraceOp::Flush
        | TraceOp::Compact
        | TraceOp::OnCore { .. } => return None,
        TraceOp::Map { proc_sel, .. } => ("map", Some(proc_sel)),
        TraceOp::Fork { proc_sel } => ("fork", Some(proc_sel)),
        TraceOp::Poke { proc_sel, .. } => ("poke", Some(proc_sel)),
        TraceOp::Peek { proc_sel, .. } => ("peek", Some(proc_sel)),
        TraceOp::SeedLine { proc_sel, .. } => ("seed", Some(proc_sel)),
        TraceOp::CommitPage { proc_sel, .. } => ("commit", Some(proc_sel)),
        TraceOp::DiscardPage { proc_sel, .. } => ("discard", Some(proc_sel)),
        TraceOp::Compute(_) => ("timed compute", None),
        TraceOp::Load(_) => ("timed load", None),
        TraceOp::Store(_) => ("timed store", None),
    };
    let Some(&first) = h.procs.first() else {
        return warn("PA-V001", format!("{what} before any process is spawned: the op is dead"));
    };
    let asid = match sel {
        Some(sel) => h.resolve(sel)?,
        None => first,
    };
    let pid = h.spec.pid_of(asid)?;
    let spec = h.spec.state();
    let unmapped = |vpn: Vpn| spec.page(pid, vpn.raw()).is_none();
    match *op {
        TraceOp::Map { count: 0, .. } => {
            warn("PA-V001", "map of zero pages: the op is dead".to_string())
        }
        TraceOp::Fork { .. } if h.procs.len() >= PROC_CAP => warn(
            "PA-V001",
            format!("fork after the {PROC_CAP}-process ASID space is exhausted: must fail"),
        ),
        TraceOp::Poke { va, .. } if unmapped(clamp_va(va).vpn()) => {
            let vpn = clamp_va(va).vpn().raw();
            warn("PA-V002", format!("poke targets vpn {vpn:#x}, which is never mapped: must fail"))
        }
        TraceOp::Peek { va, .. } if unmapped(clamp_va(va).vpn()) => {
            let vpn = clamp_va(va).vpn().raw();
            warn(
                "PA-V002",
                format!("peek targets vpn {vpn:#x}, which is never mapped: reads nothing"),
            )
        }
        // Timed ops are not clamped.
        TraceOp::Load(va) if unmapped(va.vpn()) => warn(
            "PA-V002",
            format!("timed load of vpn {:#x}, which is never mapped: must fault", va.vpn().raw()),
        ),
        TraceOp::Store(va) if unmapped(va.vpn()) => warn(
            "PA-V002",
            format!("timed store to vpn {:#x}, which is never mapped: must fault", va.vpn().raw()),
        ),
        TraceOp::SeedLine { vpn, line, .. } => {
            let (vpn, line) = (clamp_vpn(vpn).raw(), clamp_line(line));
            // The harness seeds only overlay-enabled pages, and only
            // lines not already overlaid.
            let why = match spec.page(pid, vpn) {
                None => "the page is never mapped",
                Some(p) if !p.enabled => "the page is never overlay-enabled",
                Some(p) if p.overlay >> line & 1 == 1 => "the line is already in the overlay",
                Some(_) => return None,
            };
            dead(format!("seed of vpn {vpn:#x} line {line}: {why}, the op is dead"))
        }
        TraceOp::CommitPage { vpn, .. } | TraceOp::DiscardPage { vpn, .. } => {
            let vpn = clamp_vpn(vpn).raw();
            if spec.overlay_raw(pid, vpn) != 0 {
                return None;
            }
            dead(format!("{what} of vpn {vpn:#x}, which never has an overlay: the op is dead"))
        }
        _ => None,
    }
}

/// PA-V006 at the end of a completed replay: per overlaid page, the
/// overlay lines the machine holds cache-resident with no OMS slot.
fn resident_tails(h: &SimHarness) -> Vec<String> {
    let overlay = h.machine.overlay();
    let mut out = Vec::new();
    for (&(pid, vpn), page) in h.spec.state().pages().filter(|(_, p)| p.overlay != 0) {
        let Some(&asid) = h.procs.get(pid) else { continue };
        let opn = Opn::encode(asid, Vpn::new(vpn));
        let n = (0..LINES_PER_PAGE)
            .filter(|&l| page.overlay >> l & 1 == 1 && overlay.line_needs_materialization(opn, l))
            .count();
        if n > 0 {
            out.push(format!(
                "trace ends with {n} overlay line(s) of process {pid} vpn {vpn:#x} resident \
                 without a guaranteed OMS backing slot; a final flush (U) would settle them"
            ));
        }
    }
    out
}

/// The PA-V005 message when `peak` bytes of OMS demand, padded by the
/// fragmentation slack, exceed the budget.
fn oms_overflow(peak: u64, opts: &VerifierOptions) -> Option<String> {
    let limit = opts.oms_limit?;
    let padded = (peak as f64 * (1.0 + opts.frag_slack)).ceil() as u64;
    if padded <= limit {
        return None;
    }
    Some(if opts.frag_slack > 0.0 {
        format!(
            "lazy overlay allocation can demand {peak} bytes of OMS segments at its peak — \
             {padded} bytes with the {:.0}% fragmentation slack — exceeding the {limit}-byte \
             budget",
            opts.frag_slack * 100.0
        )
    } else {
        format!(
            "lazy overlay allocation can demand {peak} bytes of OMS segments at its peak, \
             exceeding the {limit}-byte budget"
        )
    })
}

/// Verifies an already-parsed op list by replaying it under `config`.
/// Never rejects. Findings use `subject` as the file name.
#[must_use]
pub fn verify_ops(
    config: &SystemConfig,
    ops: &[TraceOp],
    opts: &VerifierOptions,
    subject: &str,
) -> Analysis {
    let mut report = Report::new();
    let mut push = |rule, severity, line, msg| {
        report.push(Finding::new(rule, severity, subject, line, msg));
    };

    // PA-V007: the harness wraps an out-of-range core selector.
    let cores = config.cores.max(1);
    for (i, op) in ops.iter().enumerate() {
        if let TraceOp::OnCore { core_sel } = *op {
            if core_sel as usize >= cores {
                push(
                    "PA-V007",
                    Severity::Warn,
                    i + 1,
                    format!(
                        "OnCore selects core {core_sel}, but the machine is configured with \
                         {cores} core(s): the harness wraps it to core {}",
                        core_sel as usize % cores
                    ),
                );
            }
        }
    }

    // PA-V004: run_crash_convergence polls the crash site once per op,
    // so a 0-based query index ≥ ops.len() can never fire.
    let polls = ops.len() as u64;
    for &q in opts.crash_queries.iter().filter(|&&q| q >= polls) {
        push(
            "PA-V004",
            Severity::Warn,
            0,
            format!(
                "crash point scheduled at query {q} can never fire: the trace polls the crash \
                 site only {polls} times (once per op)"
            ),
        );
    }

    let mut peak_oms = 0;
    if let Ok(mut h) = SimHarness::new(config.clone()) {
        let mut completed = true;
        for (i, op) in ops.iter().enumerate() {
            if let Some((rule, severity, msg)) = judge(&h, op) {
                push(rule, severity, i + 1, msg);
            }
            if h.step(op).is_err() {
                completed = false;
                break;
            }
            peak_oms = peak_oms.max(h.spec.state().oms_bound_bytes());
        }
        if completed {
            for msg in resident_tails(&h) {
                push("PA-V006", Severity::Info, 0, msg);
            }
        }
    }

    if let Some(msg) = oms_overflow(peak_oms, opts) {
        push("PA-V005", Severity::Warn, 0, msg);
    }

    report.sort();
    Analysis { verdict: Verdict::Accept, report }
}

/// Parses `text` as a v2 `.trace` document and verifies it. A parse
/// error yields PA-V000 and [`Verdict::Reject`].
#[must_use]
pub fn verify_trace_text(
    config: &SystemConfig,
    text: &str,
    opts: &VerifierOptions,
    subject: &str,
) -> Analysis {
    match read_trace(text.as_bytes()) {
        Ok(ops) => verify_ops(config, &ops, opts, subject),
        Err(e) => {
            let mut report = Report::new();
            report.push(Finding::new(
                "PA-V000",
                Severity::Error,
                subject,
                0,
                format!("trace does not parse: {e}"),
            ));
            Analysis { verdict: Verdict::Reject, report }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use po_types::VirtAddr;

    fn overlay_cfg() -> SystemConfig {
        SystemConfig::table2_overlay()
    }

    fn verify(config: &SystemConfig, ops: &[TraceOp], opts: &VerifierOptions) -> Report {
        verify_ops(config, ops, opts, "<t>").report
    }

    fn rules(report: &Report) -> Vec<&'static str> {
        report.findings.iter().map(|f| f.rule).collect()
    }

    fn rules_of(ops: &[TraceOp]) -> Vec<&'static str> {
        rules(&verify(&overlay_cfg(), ops, &VerifierOptions::default()))
    }

    /// Spawn, map `count` pages at 0x100, fork, and poke line 0 of page
    /// 0x100: one overlaid line, cache-resident with no OMS slot.
    fn forked_poke(count: u32) -> Vec<TraceOp> {
        vec![
            TraceOp::Spawn,
            TraceOp::Map { proc_sel: 0, start: 0x100, count },
            TraceOp::Fork { proc_sel: 0 },
            TraceOp::Poke { proc_sel: 0, va: VirtAddr::new(0x100_000), value: 1 },
        ]
    }

    #[test]
    fn parse_error_rejects_with_v000() {
        let a = verify_trace_text(
            &overlay_cfg(),
            "!trace-version 2\nBOGUS 1\n",
            &VerifierOptions::default(),
            "bad.trace",
        );
        assert_eq!(a.verdict, Verdict::Reject);
        assert_eq!(rules(&a.report), vec!["PA-V000"]);
        assert_eq!(a.report.findings[0].severity, Severity::Error);
    }

    #[test]
    fn well_formed_trace_accepts() {
        let a = verify_trace_text(
            &overlay_cfg(),
            "!trace-version 2\nP\nM 0 100 2\n",
            &VerifierOptions::default(),
            "ok.trace",
        );
        assert_eq!(a.verdict, Verdict::Accept);
        assert!(a.report.findings.is_empty(), "{}", a.report.to_human());
    }

    #[test]
    fn clean_trace_has_no_findings() {
        let ops = vec![
            TraceOp::Spawn,
            TraceOp::Map { proc_sel: 0, start: 0x100, count: 4 },
            TraceOp::Fork { proc_sel: 0 },
            TraceOp::Poke { proc_sel: 0, va: VirtAddr::new(0x100_040), value: 7 },
            TraceOp::Peek { proc_sel: 0, va: VirtAddr::new(0x100_040) },
            TraceOp::Flush,
        ];
        assert!(rules_of(&ops).is_empty());
    }

    #[test]
    fn op_before_spawn_is_dead() {
        let ops = vec![TraceOp::Map { proc_sel: 0, start: 0x100, count: 1 }, TraceOp::Spawn];
        assert_eq!(rules_of(&ops), vec!["PA-V001"]);
    }

    #[test]
    fn poke_on_unmapped_page_must_fail() {
        let ops = vec![
            TraceOp::Spawn,
            TraceOp::Map { proc_sel: 0, start: 0x100, count: 1 },
            TraceOp::Poke { proc_sel: 0, va: VirtAddr::new(0x999_000), value: 1 },
        ];
        assert_eq!(rules_of(&ops), vec!["PA-V002"]);
    }

    #[test]
    fn commit_without_overlay_is_dead_and_with_overlay_privatizes() {
        let dead = vec![
            TraceOp::Spawn,
            TraceOp::Map { proc_sel: 0, start: 0x100, count: 1 },
            TraceOp::CommitPage { proc_sel: 0, vpn: 0x100 },
        ];
        assert_eq!(rules_of(&dead), vec!["PA-V003"]);

        let mut live = forked_poke(1);
        live.push(TraceOp::CommitPage { proc_sel: 0, vpn: 0x100 });
        assert!(rules_of(&live).is_empty());
    }

    #[test]
    fn unreachable_crash_point_reported() {
        let ops = vec![TraceOp::Spawn, TraceOp::Flush];
        let opts = VerifierOptions { crash_queries: vec![1, 2, 100], ..Default::default() };
        // Queries 2 and 100 are past the 2 polls this trace performs.
        assert_eq!(rules(&verify(&overlay_cfg(), &ops, &opts)), vec!["PA-V004", "PA-V004"]);
    }

    #[test]
    fn oms_budget_overflow_reported() {
        let mut ops = vec![
            TraceOp::Spawn,
            TraceOp::Map { proc_sel: 0, start: 0x100, count: 2 },
            TraceOp::Fork { proc_sel: 0 },
        ];
        // 4 seeded lines per page → each page needs a 512 B segment.
        for vpn in [0x100u64, 0x101] {
            for line in 0..4u8 {
                ops.push(TraceOp::SeedLine { proc_sel: 0, vpn, line, value: 1 });
            }
        }
        let budget = |oms_limit, frag_slack| VerifierOptions {
            oms_limit: Some(oms_limit),
            frag_slack,
            ..Default::default()
        };
        let report = verify(&overlay_cfg(), &ops, &budget(768, 0.0));
        assert_eq!(rules(&report), vec!["PA-V005"]);
        assert!(report.findings[0].message.contains("demand 1024 bytes"), "{}", report.to_human());
        assert!(verify(&overlay_cfg(), &ops, &budget(1024, 0.0)).findings.is_empty());

        // Fragmentation slack pads the peak: a budget that covers the
        // raw 1024-byte peak but not 1024 × 1.5 fires the same rule.
        let report = verify(&overlay_cfg(), &ops, &budget(1280, 0.5));
        assert_eq!(rules(&report), vec!["PA-V005"]);
        assert!(report.findings[0].message.contains("1536 bytes with the 50%"));
        assert!(verify(&overlay_cfg(), &ops, &budget(1280, 0.0)).findings.is_empty());
    }

    #[test]
    fn resident_tail_reported_and_settled_by_flush() {
        let mut ops = forked_poke(1);
        assert_eq!(rules_of(&ops), vec!["PA-V006"]);
        ops.push(TraceOp::Flush);
        assert!(rules_of(&ops).is_empty());
    }

    #[test]
    fn resident_tail_survives_a_timed_access_to_another_page() {
        // A timed load of page 0x101 leaves the poked overlay line of
        // page 0x100 cache-resident. An analysis that cannot tell which
        // lines a timed access evicts has to withhold this finding.
        let mut ops = forked_poke(2);
        ops.push(TraceOp::Load(VirtAddr::new(0x101_000)));
        let report = verify(&overlay_cfg(), &ops, &VerifierOptions::default());
        assert_eq!(rules(&report), vec!["PA-V006"], "{}", report.to_human());
        assert!(report.findings[0].message.contains("1 overlay line(s) of process 0 vpn 0x100"));
    }

    #[test]
    fn cow_mode_never_builds_overlays() {
        let mut ops = forked_poke(1);
        ops.push(TraceOp::Store(VirtAddr::new(0x100_040)));
        assert!(verify(&SystemConfig::table2(), &ops, &VerifierOptions::default())
            .findings
            .is_empty());
    }

    #[test]
    fn discard_leaves_only_the_new_overlaying_store_resident() {
        let mut ops = forked_poke(1);
        ops.push(TraceOp::DiscardPage { proc_sel: 0, vpn: 0x100 });
        ops.push(TraceOp::Store(VirtAddr::new(0x100_040)));
        // The page is still shared CoW after the discard, so the store
        // overlays line 1, which the trace leaves resident.
        let report = verify(&overlay_cfg(), &ops, &VerifierOptions::default());
        assert_eq!(rules(&report), vec!["PA-V006"], "{}", report.to_human());
    }

    #[test]
    fn oncore_past_core_count_is_v007() {
        let cfg = SystemConfig { cores: 2, ..overlay_cfg() };
        let ops = vec![
            TraceOp::Spawn,
            TraceOp::OnCore { core_sel: 1 },
            TraceOp::OnCore { core_sel: 5 },
            TraceOp::OnCore { core_sel: 2 },
        ];
        let report = verify(&cfg, &ops, &VerifierOptions::default());
        assert_eq!(rules(&report), vec!["PA-V007", "PA-V007"], "{}", report.to_human());
        assert!(report.findings[0].message.contains("wraps it to core 1"));

        // On the single-core default every selector wraps to core 0 —
        // still reported: the trace asks for cores the machine lacks.
        assert_eq!(rules_of(&[TraceOp::Spawn, TraceOp::OnCore { core_sel: 1 }]), vec!["PA-V007"]);
    }

    #[test]
    fn asid_exhaustion_makes_spawns_dead() {
        let mut ops = vec![TraceOp::Spawn; PROC_CAP + 3];
        ops.push(TraceOp::Fork { proc_sel: 0 });
        // 3 dead spawns + 1 dead fork.
        assert_eq!(rules_of(&ops), vec!["PA-V001"; 4]);
    }
}
