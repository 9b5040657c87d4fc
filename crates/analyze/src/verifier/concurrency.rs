//! Front 3: the happens-before concurrency verifier (PA-C family).
//!
//! Replays the multi-core machine's coherence annotation stream
//! (`Coh*` telemetry events, see `crates/telemetry/src/journal.rs`)
//! with one vector clock per core, modeling the §4.3.3/§4.3.4 coherence
//! messages and shootdowns as the *only* synchronization edges:
//!
//! * program order — a core's clock ticks at each of its accesses;
//! * `CohObitUpdate` — the message carries the writer's clock into the
//!   receiver's TLB-entry view;
//! * `CohFill` — a TLB refill reads the coherent page tables / OMT, so
//!   the entry view acquires the page's publication clock;
//! * `CohReadExclusive` / `CohShootdownEnd` — publish the acting core's
//!   clock to the page clock future fills acquire;
//! * `CohShootdownAck` — the initiator joins each acker's clock before
//!   the end is published.
//!
//! A conflicting pair left unordered by these edges is a stream a
//! correct machine cannot produce — exactly the bug class the paper's
//! coherence argument (§4.3.3) rules out, and the one the seeded race
//! canary ([`po_sim::Machine::set_inject_obit_race`]) plants.
//!
//! # Rule catalog
//!
//! | Rule    | Severity | Meaning |
//! |---------|----------|---------|
//! | PA-C000 | error    | the event stream does not parse (malformed `Coh*` line) |
//! | PA-C001 | warn     | data race: an access rides a TLB view that never observed the line's overlaying write |
//! | PA-C002 | warn     | OBitVector-update message not covered by a read-exclusive acquisition |
//! | PA-C003 | warn     | promotion visible on a remote core before its shootdown completed |
//! | PA-C004 | warn     | two happens-before-unordered update messages to the same line (one delivery can be lost) |
//! | PA-C005 | warn     | stale-TLB access inside a shootdown window before the core acknowledged |
//! | PA-C006 | warn     | coherence-message ordering violates the per-line protocol state machine |

use super::coh_events::{parse_jsonl, CohRecord};
use super::protocol::{LineProtocol, ShootdownWindow};
use super::vclock::VClock;
use crate::findings::{Finding, Report, Severity};
use po_sim::{SimHarness, SystemConfig, TraceOp};
use po_telemetry::{Event, TelemetrySink};
use std::collections::{BTreeMap, BTreeSet};

/// A line-creation record: the writer's clock at its
/// `CohReadExclusive`, plus provenance for the finding message.
#[derive(Clone, Debug)]
struct Creation {
    clock: VClock,
    core: u32,
    seq: u64,
}

/// The last update message sent for a line (PA-C004 ordering check).
#[derive(Clone, Debug)]
struct LastUpdate {
    clock: VClock,
    src: u32,
    seq: u64,
}

/// The happens-before replay state.
#[derive(Debug, Default)]
struct Analyzer {
    /// Per-core vector clocks, keyed by the ids the stream names.
    clocks: BTreeMap<u32, VClock>,
    /// Per-page publication clock: joined by read-exclusive
    /// acquisitions and completed shootdowns; acquired by TLB fills.
    page_clock: BTreeMap<u64, VClock>,
    /// Per-(core, page) TLB-entry view: the clock the core's cached
    /// entry has observed, via its fill and delivered update messages.
    entry_view: BTreeMap<(u32, u64), VClock>,
    /// Last creation (overlaying write) per (opn, line).
    creation: BTreeMap<(u64, u8), Creation>,
    /// Last update message per (opn, line).
    last_update: BTreeMap<(u64, u8), LastUpdate>,
    /// The per-line MSI-style protocol states.
    protocol: LineProtocol,
    /// Open shootdown windows by page.
    windows: BTreeMap<u64, ShootdownWindow>,
    /// Pages whose `CohPromote` has fired but whose shootdown window
    /// has not opened yet.
    pending_promote: BTreeSet<u64>,
}

impl Analyzer {
    fn clock_mut(&mut self, core: u32) -> &mut VClock {
        self.clocks.entry(core).or_default()
    }

    fn clock(&self, core: u32) -> VClock {
        self.clocks.get(&core).cloned().unwrap_or_default()
    }

    fn step(&mut self, r: &CohRecord, subject: &str, report: &mut Report) {
        let warn = |report: &mut Report, rule: &'static str, msg: String| {
            report.push(Finding::new(rule, Severity::Warn, subject, r.line_no, msg));
        };
        match r.event {
            Event::CohAccess { core, opn, line, write } => {
                self.clock_mut(core).tick(core as usize);
                // Shootdown-window visibility rules.
                if let Some(w) = self.windows.get(&opn) {
                    if core != w.initiator {
                        if !w.acked.contains(&core) {
                            warn(
                                report,
                                "PA-C005",
                                format!(
                                    "core {core} accessed opn {opn} line {line} through a stale \
                                     TLB entry inside the shootdown window opened by core {} \
                                     (no ack from core {core} yet)",
                                    w.initiator
                                ),
                            );
                        } else if w.promote {
                            warn(
                                report,
                                "PA-C003",
                                format!(
                                    "core {core} observed the promotion of opn {opn} (access to \
                                     line {line}) before core {}'s shootdown completed",
                                    w.initiator
                                ),
                            );
                        }
                    }
                }
                // Data-race rule: the access must ride a TLB view that
                // has observed the line's creating overlaying write.
                if let Some(c) = self.creation.get(&(opn, line)) {
                    if c.core != core {
                        let view = match self.entry_view.get(&(core, opn)) {
                            Some(v) => v.clone(),
                            None => {
                                // No recorded fill for this entry: adopt
                                // the core's own clock (lenient — an
                                // entry the verifier never saw filled is
                                // not evidence of a race).
                                let v = self.clock(core);
                                self.entry_view.insert((core, opn), v.clone());
                                v
                            }
                        };
                        if !c.clock.le(&view) {
                            let kind = if write { "store" } else { "load" };
                            warn(
                                report,
                                "PA-C001",
                                format!(
                                    "data race: core {core} {kind} to opn {opn} line {line} rides \
                                     a TLB view that never observed core {}'s overlaying write \
                                     (event seq {}) — the update message was lost or never sent",
                                    c.core, c.seq
                                ),
                            );
                        }
                    }
                }
            }
            Event::CohFill { core, opn } => {
                if let Some(pc) = self.page_clock.get(&opn).cloned() {
                    self.clock_mut(core).join(&pc);
                }
                let view = self.clock(core);
                self.entry_view.insert((core, opn), view);
            }
            Event::CohReadExclusive { core, opn, line } => {
                // Re-acquisition is legal (a refilled entry re-runs the
                // §4.3.3 path); acquiring while the page is mid-
                // shootdown is a message order no correct machine
                // produces.
                if self.windows.contains_key(&opn) {
                    warn(
                        report,
                        "PA-C006",
                        format!(
                            "core {core} acquired read-exclusive on opn {opn} line {line} inside \
                             the page's open shootdown window"
                        ),
                    );
                }
                self.protocol.acquire_exclusive(opn, line, core);
                let clock = self.clock(core);
                self.creation
                    .insert((opn, line), Creation { clock: clock.clone(), core, seq: r.seq });
                self.page_clock.entry(opn).or_default().join(&clock);
                self.entry_view.entry((core, opn)).or_default().join(&clock);
            }
            Event::CohObitUpdate { src, dest, opn, line } => {
                if src == dest {
                    warn(
                        report,
                        "PA-C006",
                        format!(
                            "self-directed OBitVector-update message on core {src} for opn {opn} \
                             line {line}"
                        ),
                    );
                }
                if self.protocol.owner(opn, line) != Some(src) {
                    warn(
                        report,
                        "PA-C002",
                        format!(
                            "OBitVector update for opn {opn} line {line} sent by core {src} \
                             without a covering read-exclusive acquisition"
                        ),
                    );
                }
                let msg_clock = self.clock(src);
                if let Some(prev) = self.last_update.get(&(opn, line)) {
                    if !prev.clock.le(&msg_clock) {
                        warn(
                            report,
                            "PA-C004",
                            format!(
                                "unordered OBitVector updates to opn {opn} line {line}: core \
                                 {src}'s message (seq {}) is not ordered after core {}'s (seq \
                                 {}) — one delivery can be lost",
                                r.seq, prev.src, prev.seq
                            ),
                        );
                    }
                }
                self.last_update
                    .insert((opn, line), LastUpdate { clock: msg_clock.clone(), src, seq: r.seq });
                self.entry_view.entry((dest, opn)).or_default().join(&msg_clock);
            }
            Event::CohPromote { opn, .. } => {
                self.pending_promote.insert(opn);
            }
            Event::CohShootdownBegin { core, opn } => {
                let promote = self.pending_promote.remove(&opn);
                if self.windows.contains_key(&opn) {
                    warn(
                        report,
                        "PA-C006",
                        format!(
                            "core {core} opened a shootdown window for opn {opn} while another \
                             window for the same page is still open"
                        ),
                    );
                }
                self.windows.insert(
                    opn,
                    ShootdownWindow {
                        initiator: core,
                        acked: BTreeSet::new(),
                        promote,
                        opened_at: r.line_no,
                    },
                );
            }
            Event::CohShootdownAck { core, from, opn } => {
                let valid = match self.windows.get_mut(&opn) {
                    None => {
                        warn(
                            report,
                            "PA-C006",
                            format!(
                                "shootdown ack from core {from} for opn {opn} with no open window"
                            ),
                        );
                        false
                    }
                    Some(w) if w.initiator != core => {
                        warn(
                            report,
                            "PA-C006",
                            format!(
                                "shootdown ack for opn {opn} names initiator {core} but the open \
                                 window was begun by core {}",
                                w.initiator
                            ),
                        );
                        false
                    }
                    Some(w) => {
                        if from == core {
                            warn(
                                report,
                                "PA-C006",
                                format!(
                                    "initiator core {core} acknowledged its own shootdown of opn \
                                     {opn}"
                                ),
                            );
                            false
                        } else if !w.acked.insert(from) {
                            warn(
                                report,
                                "PA-C006",
                                format!("duplicate shootdown ack from core {from} for opn {opn}"),
                            );
                            false
                        } else {
                            true
                        }
                    }
                };
                if valid {
                    let acker = self.clock(from);
                    self.clock_mut(core).join(&acker);
                }
            }
            Event::CohShootdownEnd { core, opn } => {
                match self.windows.remove(&opn) {
                    None => warn(
                        report,
                        "PA-C006",
                        format!("shootdown end for opn {opn} with no open window"),
                    ),
                    Some(w) if w.initiator != core => warn(
                        report,
                        "PA-C006",
                        format!(
                            "shootdown end for opn {opn} names initiator {core} but the window \
                             was begun by core {}",
                            w.initiator
                        ),
                    ),
                    Some(_) => {}
                }
                let clock = self.clock(core);
                self.page_clock.entry(opn).or_default().join(&clock);
                // Every cached translation of the page is gone: the
                // next access on any core must go through a fill.
                self.entry_view.retain(|&(_, o), _| o != opn);
                self.protocol.reset_page(opn);
            }
            // The parser decodes only the `Coh*` kinds.
            _ => {}
        }
    }

    fn finish(&mut self, subject: &str, report: &mut Report) {
        for (opn, w) in &self.windows {
            report.push(Finding::new(
                "PA-C006",
                Severity::Warn,
                subject,
                w.opened_at,
                format!(
                    "shootdown window for opn {opn} opened by core {} never closed",
                    w.initiator
                ),
            ));
        }
    }
}

/// Replays decoded coherence records through the happens-before
/// analysis and returns the (sorted) findings.
#[must_use]
pub fn analyze_records(records: &[CohRecord], subject: &str) -> Report {
    let mut a = Analyzer::default();
    let mut report = Report::new();
    for r in records {
        a.step(r, subject, &mut report);
    }
    a.finish(subject, &mut report);
    report.sort();
    report
}

/// Parses a journal JSONL export and analyzes its coherence stream.
/// Malformed coherence lines yield PA-C000 errors; the remaining
/// records are still analyzed.
#[must_use]
pub fn analyze_jsonl(text: &str, subject: &str) -> Report {
    let (records, mut report) = parse_jsonl(text, subject);
    report.extend(analyze_records(&records, subject));
    report.sort();
    report
}

/// Replays `ops` through a fresh [`SimHarness`] with a never-evicting
/// telemetry journal installed and returns the journal's JSONL export —
/// the concurrency verifier's input. With `arm_race_canary` the
/// machine's one-shot OBitVector-update race is armed first (the
/// positive control: the functional state stays correct, only the
/// annotation is lost, so nothing but this verifier can see it).
///
/// # Errors
///
/// The harness's own divergence / refinement / invariant errors — a
/// trace that fails to replay is not analyzable.
pub fn replay_events_jsonl(
    config: &SystemConfig,
    ops: &[TraceOp],
    arm_race_canary: bool,
) -> Result<String, String> {
    let mut h = SimHarness::new(config.clone())
        .map_err(|e| format!("machine construction failed: {e:?}"))?;
    // Capacity usize::MAX keeps the ring from ever evicting, so the
    // JSONL export holds the complete event stream.
    h.machine.install_telemetry(TelemetrySink::with_capacity(usize::MAX, 0));
    if arm_race_canary {
        h.machine.set_inject_obit_race(true);
    }
    for (i, op) in ops.iter().enumerate() {
        h.apply(op).map_err(|e| format!("op {i} failed during replay: {e}"))?;
    }
    Ok(h.machine.telemetry().journal_jsonl())
}

/// Replays `ops` on a clean machine and runs the happens-before
/// analysis on the produced coherence stream.
///
/// # Errors
///
/// Replay failure (see [`replay_events_jsonl`]).
pub fn replay_and_analyze(
    config: &SystemConfig,
    ops: &[TraceOp],
    subject: &str,
) -> Result<Report, String> {
    let text = replay_events_jsonl(config, ops, false)?;
    Ok(analyze_jsonl(&text, subject))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(line_no: usize, event: Event) -> CohRecord {
        CohRecord { seq: line_no as u64, cycle: line_no as u64, line_no, event }
    }

    fn rules(report: &Report) -> Vec<&'static str> {
        report.findings.iter().map(|f| f.rule).collect()
    }

    /// The clean §4.3.3 exchange: core 0 creates a line, the message
    /// reaches core 1's cached entry, core 1 then reads the line.
    #[test]
    fn delivered_update_orders_the_reader() {
        let records = vec![
            rec(1, Event::CohFill { core: 1, opn: 9 }),
            rec(2, Event::CohAccess { core: 1, opn: 9, line: 3, write: false }),
            rec(3, Event::CohAccess { core: 0, opn: 9, line: 3, write: true }),
            rec(4, Event::CohReadExclusive { core: 0, opn: 9, line: 3 }),
            rec(5, Event::CohObitUpdate { src: 0, dest: 1, opn: 9, line: 3 }),
            rec(6, Event::CohAccess { core: 1, opn: 9, line: 3, write: false }),
        ];
        let report = analyze_records(&records, "t");
        assert!(report.findings.is_empty(), "{}", report.to_human());
    }

    /// A huge core id costs one clock component, not a clock that long,
    /// and findings still name the id.
    #[test]
    fn hostile_core_id_is_analyzed_in_bounded_memory() {
        let line = r#"{"seq":1,"cycle":0,"kind":"CohAccess","core":4000000000,"opn":1,"line":0,"write":false}"#;
        assert!(analyze_jsonl(line, "t").findings.is_empty());
        let lost = [
            rec(1, Event::CohFill { core: u32::MAX, opn: 9 }),
            rec(2, Event::CohAccess { core: 7, opn: 9, line: 3, write: true }),
            rec(3, Event::CohReadExclusive { core: 7, opn: 9, line: 3 }),
            rec(4, Event::CohAccess { core: u32::MAX, opn: 9, line: 3, write: false }),
        ];
        let report = analyze_records(&lost, "t");
        assert!(report.findings[0].message.contains("data race: core 4294967295 load"));
    }

    /// The canary shape: the update message to core 1 is lost, so its
    /// next access rides a view that never observed the write.
    #[test]
    fn lost_update_is_a_c001_race() {
        let records = vec![
            rec(1, Event::CohFill { core: 1, opn: 9 }),
            rec(2, Event::CohAccess { core: 0, opn: 9, line: 3, write: true }),
            rec(3, Event::CohReadExclusive { core: 0, opn: 9, line: 3 }),
            // No ObitUpdate, no Fill: core 1 still has its old entry.
            rec(4, Event::CohAccess { core: 1, opn: 9, line: 3, write: false }),
        ];
        let report = analyze_records(&records, "t");
        assert_eq!(rules(&report), vec!["PA-C001"], "{}", report.to_human());
    }

    /// A fill after the write re-synchronizes the view: no race.
    #[test]
    fn refill_after_write_is_ordered() {
        let records = vec![
            rec(1, Event::CohAccess { core: 0, opn: 9, line: 3, write: true }),
            rec(2, Event::CohReadExclusive { core: 0, opn: 9, line: 3 }),
            rec(3, Event::CohFill { core: 1, opn: 9 }),
            rec(4, Event::CohAccess { core: 1, opn: 9, line: 3, write: false }),
        ];
        let report = analyze_records(&records, "t");
        assert!(report.findings.is_empty(), "{}", report.to_human());
    }

    #[test]
    fn update_without_read_exclusive_is_c002() {
        let records = vec![rec(1, Event::CohObitUpdate { src: 0, dest: 1, opn: 9, line: 3 })];
        let report = analyze_records(&records, "t");
        assert_eq!(rules(&report), vec!["PA-C002"], "{}", report.to_human());
    }

    #[test]
    fn promotion_visible_before_shootdown_end_is_c003() {
        let records = vec![
            rec(1, Event::CohPromote { core: 0, opn: 9 }),
            rec(2, Event::CohShootdownBegin { core: 0, opn: 9 }),
            rec(3, Event::CohShootdownAck { core: 0, from: 1, opn: 9 }),
            rec(4, Event::CohAccess { core: 1, opn: 9, line: 0, write: false }),
            rec(5, Event::CohShootdownEnd { core: 0, opn: 9 }),
        ];
        let report = analyze_records(&records, "t");
        assert_eq!(rules(&report), vec!["PA-C003"], "{}", report.to_human());
    }

    #[test]
    fn unordered_updates_to_one_line_are_c004() {
        let records = vec![
            rec(1, Event::CohAccess { core: 0, opn: 9, line: 3, write: true }),
            rec(2, Event::CohReadExclusive { core: 0, opn: 9, line: 3 }),
            rec(3, Event::CohObitUpdate { src: 0, dest: 2, opn: 9, line: 3 }),
            // Core 1 never synchronized with core 0, yet sends its own
            // update for the same line (it also never acquired the
            // line, so C002 fires alongside; ownership check uses the
            // transferred owner after the first acquisition).
            rec(4, Event::CohObitUpdate { src: 1, dest: 2, opn: 9, line: 3 }),
        ];
        let report = analyze_records(&records, "t");
        assert!(rules(&report).contains(&"PA-C004"), "{}", report.to_human());
    }

    #[test]
    fn stale_access_inside_window_is_c005() {
        let records = vec![
            rec(1, Event::CohShootdownBegin { core: 0, opn: 9 }),
            rec(2, Event::CohAccess { core: 1, opn: 9, line: 0, write: false }),
            rec(3, Event::CohShootdownAck { core: 0, from: 1, opn: 9 }),
            rec(4, Event::CohShootdownEnd { core: 0, opn: 9 }),
        ];
        let report = analyze_records(&records, "t");
        assert_eq!(rules(&report), vec!["PA-C005"], "{}", report.to_human());
    }

    #[test]
    fn protocol_violations_are_c006() {
        let report =
            analyze_records(&[rec(1, Event::CohShootdownAck { core: 0, from: 1, opn: 9 })], "t");
        assert_eq!(rules(&report), vec!["PA-C006"], "{}", report.to_human());

        // Re-acquisition alone is legal (refilled entries re-run the
        // overlaying-write path); acquisition inside an open shootdown
        // window is not.
        let report = analyze_records(
            &[
                rec(1, Event::CohReadExclusive { core: 0, opn: 9, line: 3 }),
                rec(2, Event::CohReadExclusive { core: 1, opn: 9, line: 3 }),
            ],
            "t",
        );
        assert!(report.findings.is_empty(), "{}", report.to_human());
        let report = analyze_records(
            &[
                rec(1, Event::CohShootdownBegin { core: 0, opn: 9 }),
                rec(2, Event::CohReadExclusive { core: 1, opn: 9, line: 3 }),
                rec(3, Event::CohShootdownAck { core: 0, from: 1, opn: 9 }),
                rec(4, Event::CohShootdownEnd { core: 0, opn: 9 }),
            ],
            "t",
        );
        assert_eq!(rules(&report), vec!["PA-C006"], "{}", report.to_human());

        let report = analyze_records(&[rec(1, Event::CohShootdownBegin { core: 0, opn: 9 })], "t");
        assert_eq!(rules(&report), vec!["PA-C006"], "never-closed window: {}", report.to_human());
    }

    #[test]
    fn shootdown_end_forces_refills_everywhere() {
        // After a completed shootdown, the old creation is published
        // through the page clock: a refilled core is ordered, and the
        // initiator's own next access (post-refill) is too.
        let records = vec![
            rec(1, Event::CohFill { core: 1, opn: 9 }),
            rec(2, Event::CohAccess { core: 0, opn: 9, line: 3, write: true }),
            rec(3, Event::CohReadExclusive { core: 0, opn: 9, line: 3 }),
            rec(4, Event::CohObitUpdate { src: 0, dest: 1, opn: 9, line: 3 }),
            rec(5, Event::CohPromote { core: 0, opn: 9 }),
            rec(6, Event::CohShootdownBegin { core: 0, opn: 9 }),
            rec(7, Event::CohShootdownAck { core: 0, from: 1, opn: 9 }),
            rec(8, Event::CohShootdownEnd { core: 0, opn: 9 }),
            rec(9, Event::CohFill { core: 1, opn: 9 }),
            rec(10, Event::CohAccess { core: 1, opn: 9, line: 3, write: false }),
        ];
        let report = analyze_records(&records, "t");
        assert!(report.findings.is_empty(), "{}", report.to_human());
    }

    #[test]
    fn jsonl_entry_point_merges_parse_errors() {
        let text = "\
{\"seq\":0,\"cycle\":0,\"kind\":\"CohFill\"}\n\
{\"seq\":1,\"cycle\":1,\"kind\":\"CohObitUpdate\",\"src\":0,\"dest\":1,\"opn\":9,\"line\":3}\n";
        let report = analyze_jsonl(text, "t");
        let r = rules(&report);
        assert!(r.contains(&"PA-C000"), "{}", report.to_human());
        assert!(r.contains(&"PA-C002"), "{}", report.to_human());
    }
}
