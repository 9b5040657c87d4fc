//! PA-L006 — coherence-message emission sites thread the telemetry
//! sink and bump their mirrored counter.
//!
//! The multi-core concurrency verifier (PA-C) replays the machine's
//! coherence annotation stream; a TLB patch or shootdown performed
//! without emitting its event *silently removes a happens-before edge*
//! — exactly the bug shape the seeded race canary plants on purpose.
//! So every function in the simulator or multi-core machinery (`sim/`,
//! `mc/` paths) that delivers an OBitVector update
//! (`.coherence_obit_update(`) or invalidates an entry (`.shootdown(`)
//! must both reference the telemetry sink and bump a `coherence_*`
//! stat counter, so the event stream, the stats, and the functional
//! state move together.
//!
//! Deliberate functional-only paths (the byte oracle's `poke`, which
//! models end state rather than traffic) carry
//! `// po-analyze: allow(PA-L006)` on or above the call line.

use super::tokenizer::ScannedFile;
use crate::findings::{Finding, Report, Severity};

/// The rule identifier.
pub const RULE: &str = "PA-L006";

/// Call patterns that emit coherence traffic. The leading dot keeps
/// `fn shootdown(` definitions (the TLB crate's own implementation)
/// out of scope.
const MARKERS: [&str; 2] = [".coherence_obit_update(", ".shootdown("];

/// Whether `path` (repo-relative, `/`-separated) hosts machine-driving
/// code whose coherence traffic the PA-C verifier replays. The TLB
/// crate itself (the mechanism) and bench code are out of scope.
fn in_scope(path: &str) -> bool {
    path.contains("sim/") || path.contains("mc/")
}

/// Runs the rule over one scanned file.
pub fn check(path: &str, file: &ScannedFile, report: &mut Report) {
    if !in_scope(path) {
        return;
    }
    for block in file.blocks("fn") {
        let body = &file.lines[block.start..=block.end];
        let threads_sink = body.iter().any(|l| l.contains("sink"));
        let bumps_counter = body
            .iter()
            .any(|l| l.contains("coherence_") && (l.contains(".inc(") || l.contains(".add(")));
        if threads_sink && bumps_counter {
            continue;
        }
        for i in block.start..=block.end {
            if file.test_lines[i] || file.allowed(i, RULE) {
                continue;
            }
            let Some(marker) = MARKERS.iter().find(|m| file.lines[i].contains(*m)) else {
                continue;
            };
            let missing = match (threads_sink, bumps_counter) {
                (false, false) => {
                    "neither threads the telemetry sink nor bumps a mirrored \
                                   `coherence_*` counter"
                }
                (false, true) => "never threads the telemetry sink",
                (true, false) => "never bumps a mirrored `coherence_*` counter",
                (true, true) => unreachable!("accounted functions are skipped above"),
            };
            report.push(Finding::new(
                RULE,
                Severity::Warn,
                path,
                i + 1,
                format!(
                    "coherence message emitted (`{marker}`) but fn `{}` {missing}: the PA-C \
                     happens-before verifier replays the annotation stream, and an unannotated \
                     message silently deletes a synchronization edge",
                    block.name
                ),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(path: &str, src: &str) -> Report {
        let file = ScannedFile::scan(src);
        let mut r = Report::new();
        check(path, &file, &mut r);
        r
    }

    const UNACCOUNTED: &str = "\
fn deliver(&mut self) {
    for tlb in &mut self.tlbs {
        tlb.coherence_obit_update(asid, vpn, line, true);
    }
}
";

    #[test]
    fn unaccounted_delivery_fires_in_scope() {
        let rep = run("crates/mc/src/sched.rs", UNACCOUNTED);
        assert_eq!(rep.findings.len(), 1, "{}", rep.to_human());
        assert_eq!(rep.findings[0].rule, RULE);
        assert!(rep.findings[0].message.contains("neither threads"), "{}", rep.to_human());
    }

    #[test]
    fn tlb_crate_and_bench_are_out_of_scope() {
        assert!(run("crates/tlb/src/coherence.rs", UNACCOUNTED).findings.is_empty());
        assert!(run("crates/bench/benches/components.rs", UNACCOUNTED).findings.is_empty());
    }

    #[test]
    fn fn_definitions_do_not_count_as_emission() {
        let src = "\
fn shootdown(&mut self, asid: Asid, vpn: Vpn) -> bool {
    self.l1.invalidate(asid, vpn) | self.l2.invalidate(asid, vpn)
}
";
        assert!(run("crates/sim/src/machine.rs", src).findings.is_empty());
    }

    #[test]
    fn accounted_site_is_clean() {
        let src = "\
fn promote(&mut self) {
    for (i, tlb) in self.tlbs.iter_mut().enumerate() {
        if tlb.shootdown(asid, vpn) {
            self.stats.coherence_invalidations.inc();
        }
        self.sink.emit(|| TelemetryEvent::CohShootdownAck { core: 0, from: i as u32, opn: 0 });
    }
}
";
        assert!(run("crates/sim/src/machine.rs", src).findings.is_empty());
    }

    #[test]
    fn sink_without_counter_names_the_gap() {
        let src = "\
fn promote(&mut self) {
    for tlb in &mut self.tlbs {
        tlb.shootdown(asid, vpn);
    }
    self.sink.emit(|| TelemetryEvent::CohShootdownEnd { core: 0, opn: 0 });
}
";
        let rep = run("crates/sim/src/machine.rs", src);
        assert_eq!(rep.findings.len(), 1, "{}", rep.to_human());
        assert!(rep.findings[0].message.contains("never bumps"), "{}", rep.to_human());
    }

    #[test]
    fn allow_comment_suppresses() {
        let src = "\
fn poke(&mut self) {
    for tlb in &mut self.tlbs {
        // po-analyze: allow(PA-L006)
        tlb.coherence_obit_update(asid, vpn, line, true);
    }
}
";
        assert!(run("crates/sim/src/machine.rs", src).findings.is_empty());
    }
}
