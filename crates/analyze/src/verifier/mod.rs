//! The abstract trace verifier.
//!
//! Symbolically executes validated `.trace` files (the deterministic
//! simulation harness format) over a must/may abstraction of the
//! overlay state machine and reports operations that are provably dead,
//! provably failing, or provably wasteful — without running the timing
//! simulator.
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
//! The multi-core **concurrency verifier** (PA-C000..PA-C006) is the
//! second analysis, documented in [`concurrency`]: it replays the machine's
//! coherence annotation stream with per-core vector clocks instead of
//! symbolically executing the trace.
//!
//! Every semantic rule is gated on the interpreter still being
//! *precise*: once an allocation may fail (physical memory upper bound
//! crossed, or `assume_faults`), must-claims are withheld rather than
//! risked. A trace is [`Verdict::Reject`]ed only for PA-V000 — the
//! harness treats benign runtime failures as skips, so every
//! well-formed trace replays.

pub mod coh_events;
pub mod concurrency;
pub mod interp;
pub mod lattice;
pub mod protocol;
pub mod vclock;

pub use coh_events::{parse_jsonl, CohEvent, CohRecord};
pub use concurrency::{analyze_jsonl, analyze_records, replay_and_analyze, replay_events_jsonl};
pub use interp::{AbsPage, AbsState, TlbView, VerifierOptions};
pub use lattice::{LineSet, Tri};
pub use vclock::VClock;

use crate::findings::{Finding, Report, Severity};
use po_sim::{read_trace, SystemConfig, TraceOp};

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
    /// Final abstract state (empty when the trace was rejected).
    pub state: AbsState,
}

/// Verifies an already-parsed op list. Never rejects.
#[must_use]
pub fn verify_ops(
    config: &SystemConfig,
    ops: &[TraceOp],
    opts: &VerifierOptions,
    subject: &str,
) -> Analysis {
    let (report, state) = interp::verify_ops(config, ops, opts, subject);
    Analysis { verdict: Verdict::Accept, report, state }
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
            Analysis { verdict: Verdict::Reject, report, state: AbsState::default() }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_error_rejects_with_v000() {
        let a = verify_trace_text(
            &SystemConfig::table2_overlay(),
            "!trace-version 2\nBOGUS 1\n",
            &VerifierOptions::default(),
            "bad.trace",
        );
        assert_eq!(a.verdict, Verdict::Reject);
        assert_eq!(a.report.findings.len(), 1);
        assert_eq!(a.report.findings[0].rule, "PA-V000");
        assert_eq!(a.report.findings[0].severity, Severity::Error);
    }

    #[test]
    fn well_formed_trace_accepts() {
        let a = verify_trace_text(
            &SystemConfig::table2_overlay(),
            "!trace-version 2\nP\nM 0 100 2\n",
            &VerifierOptions::default(),
            "ok.trace",
        );
        assert_eq!(a.verdict, Verdict::Accept);
        assert!(a.report.findings.is_empty(), "{}", a.report.to_human());
        assert_eq!(a.state.procs, 1);
    }
}
