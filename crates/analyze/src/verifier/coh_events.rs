//! Parser for the coherence annotation stream.
//!
//! The multi-core machine exports its telemetry journal as JSONL with a
//! fixed key order (`crates/telemetry/src/journal.rs`). The concurrency
//! verifier consumes only the `Coh*` kinds; every other event kind is
//! skipped. The parser is deliberately self-contained (no serde — the
//! registry is offline) and lenient about unknown kinds but strict
//! about the shape of the coherence events themselves: a malformed
//! `Coh*` line is a PA-C000 error, the analog of the trace verifier's
//! PA-V000.

use crate::findings::{Finding, Report, Severity};
use po_telemetry::Event;

/// A decoded coherence event with its journal stamps and the 1-based
/// line it came from (the finding anchor).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CohRecord {
    /// Journal sequence number.
    pub seq: u64,
    /// Simulated cycle stamp.
    pub cycle: u64,
    /// 1-based line number in the JSONL document.
    pub line_no: usize,
    /// The event: always one of the eight `Coh*` variants.
    pub event: Event,
}

/// Extracts the integer value of `"name":<digits>` from a JSONL line.
fn field_u64(line: &str, name: &str) -> Option<u64> {
    let key = format!("\"{name}\":");
    let at = line.find(&key)? + key.len();
    let rest = &line[at..];
    let end = rest.find(|c: char| !c.is_ascii_digit()).unwrap_or(rest.len());
    if end == 0 {
        return None;
    }
    rest[..end].parse().ok()
}

/// Extracts the boolean value of `"name":true|false`.
fn field_bool(line: &str, name: &str) -> Option<bool> {
    let key = format!("\"{name}\":");
    let at = line.find(&key)? + key.len();
    let rest = &line[at..];
    if rest.starts_with("true") {
        Some(true)
    } else if rest.starts_with("false") {
        Some(false)
    } else {
        None
    }
}

/// Extracts the string value of `"kind":"..."`.
fn field_kind(line: &str) -> Option<&str> {
    let key = "\"kind\":\"";
    let at = line.find(key)? + key.len();
    let rest = &line[at..];
    Some(&rest[..rest.find('"')?])
}

/// The journal kinds the concurrency verifier reads.
const COH_KINDS: [&str; 8] = [
    "CohReadExclusive",
    "CohObitUpdate",
    "CohPromote",
    "CohShootdownBegin",
    "CohShootdownAck",
    "CohShootdownEnd",
    "CohAccess",
    "CohFill",
];

/// Decodes the fields of a `Coh*` line of kind `kind` (one of
/// [`COH_KINDS`]). `None` when a field is missing or out of range.
fn decode(kind: &str, line: &str) -> Option<Event> {
    let u32_field = |name| field_u64(line, name).and_then(|v| u32::try_from(v).ok());
    let core = || u32_field("core");
    let opn = || field_u64(line, "opn");
    let idx = || field_u64(line, "line").and_then(|v| u8::try_from(v).ok());
    Some(match kind {
        "CohReadExclusive" => Event::CohReadExclusive { core: core()?, opn: opn()?, line: idx()? },
        "CohObitUpdate" => Event::CohObitUpdate {
            src: u32_field("src")?,
            dest: u32_field("dest")?,
            opn: opn()?,
            line: idx()?,
        },
        "CohPromote" => Event::CohPromote { core: core()?, opn: opn()? },
        "CohShootdownBegin" => Event::CohShootdownBegin { core: core()?, opn: opn()? },
        "CohShootdownAck" => {
            Event::CohShootdownAck { core: core()?, from: u32_field("from")?, opn: opn()? }
        }
        "CohShootdownEnd" => Event::CohShootdownEnd { core: core()?, opn: opn()? },
        "CohAccess" => Event::CohAccess {
            core: core()?,
            opn: opn()?,
            line: idx()?,
            write: field_bool(line, "write")?,
        },
        "CohFill" => Event::CohFill { core: core()?, opn: opn()? },
        _ => return None,
    })
}

/// Parses a journal JSONL export, returning the coherence records plus
/// a report holding one PA-C000 error per malformed coherence line.
/// Non-coherence kinds and blank lines are skipped silently.
#[must_use]
pub fn parse_jsonl(text: &str, subject: &str) -> (Vec<CohRecord>, Report) {
    let mut records = Vec::new();
    let mut report = Report::new();
    for (i, raw) in text.lines().enumerate() {
        let line_no = i + 1;
        let line = raw.trim();
        if line.is_empty() {
            continue;
        }
        let Some(kind) = field_kind(line) else {
            report.push(Finding::new(
                "PA-C000",
                Severity::Error,
                subject,
                line_no,
                "event line has no \"kind\" field".to_string(),
            ));
            continue;
        };
        if !COH_KINDS.contains(&kind) {
            continue;
        }
        match decode(kind, line) {
            Some(event) => records.push(CohRecord {
                seq: field_u64(line, "seq").unwrap_or(line_no as u64),
                cycle: field_u64(line, "cycle").unwrap_or(0),
                line_no,
                event,
            }),
            None => report.push(Finding::new(
                "PA-C000",
                Severity::Error,
                subject,
                line_no,
                format!("malformed {kind} event: missing or out-of-range field"),
            )),
        }
    }
    (records, report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_coherence_kinds_and_skips_the_rest() {
        let text = "\
{\"seq\":0,\"cycle\":5,\"kind\":\"TlbLookup\",\"asid\":1,\"vpn\":2,\"level\":\"L1\",\"latency\":1}\n\
{\"seq\":1,\"cycle\":6,\"kind\":\"CohReadExclusive\",\"core\":0,\"opn\":9,\"line\":3}\n\
{\"seq\":2,\"cycle\":7,\"kind\":\"CohObitUpdate\",\"src\":0,\"dest\":1,\"opn\":9,\"line\":3}\n\
{\"seq\":3,\"cycle\":8,\"kind\":\"CohAccess\",\"core\":1,\"opn\":9,\"line\":3,\"write\":false}\n";
        let (records, report) = parse_jsonl(text, "t");
        assert!(report.findings.is_empty(), "{}", report.to_human());
        assert_eq!(records.len(), 3);
        assert_eq!(records[0].seq, 1);
        assert_eq!(records[0].event, Event::CohReadExclusive { core: 0, opn: 9, line: 3 });
        assert_eq!(records[1].event, Event::CohObitUpdate { src: 0, dest: 1, opn: 9, line: 3 });
        assert_eq!(records[2].event, Event::CohAccess { core: 1, opn: 9, line: 3, write: false });
        assert_eq!(records[2].line_no, 4);
    }

    #[test]
    fn malformed_coherence_line_is_c000() {
        let (records, report) =
            parse_jsonl("{\"seq\":1,\"cycle\":0,\"kind\":\"CohFill\",\"core\":0}\n", "t");
        assert!(records.is_empty());
        assert_eq!(report.findings.len(), 1);
        assert_eq!(report.findings[0].rule, "PA-C000");
        assert_eq!(report.findings[0].severity, Severity::Error);
    }

    #[test]
    fn out_of_range_line_index_is_c000() {
        let (records, report) = parse_jsonl(
            "{\"seq\":1,\"cycle\":0,\"kind\":\"CohAccess\",\"core\":0,\"opn\":1,\"line\":300,\"write\":true}\n",
            "t",
        );
        assert!(records.is_empty());
        assert_eq!(report.findings[0].rule, "PA-C000");
    }

    #[test]
    fn kindless_line_is_c000() {
        let (_, report) = parse_jsonl("{\"seq\":1}\n", "t");
        assert_eq!(report.findings[0].rule, "PA-C000");
    }
}
