//! The finding model shared by both analyses: a flat, sortable list of
//! diagnostics with deterministic JSON and human renderings.
//!
//! Findings carry a stable rule identifier (`PA-Vxxx` for the trace
//! verifier, `PA-Cxxx` for the journal race checker) so CI can gate on
//! them and fixtures can assert that a specific rule fired.

use std::fmt;

/// How serious a finding is.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Informational: surfaced in reports, never gates.
    Info,
    /// Suspicious but replayable/compilable; gates in CI (`-D` mode).
    Warn,
    /// The artifact is unusable (e.g. a trace the parser rejects).
    Error,
}

impl Severity {
    /// Lowercase label used in both renderings.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warn => "warn",
            Severity::Error => "error",
        }
    }
}

/// One diagnostic from either analysis.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// Stable rule identifier (`PA-V003`, `PA-C001`, ...).
    pub rule: &'static str,
    /// Severity class.
    pub severity: Severity,
    /// Subject file: the trace path (or `<trace>`) for the verifier,
    /// the journal path for the race checker.
    pub file: String,
    /// 1-based line: op ordinal for the verifier, journal line for the
    /// race checker (0 = whole-artifact finding).
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

impl Finding {
    /// Builds a finding.
    #[must_use]
    pub fn new(
        rule: &'static str,
        severity: Severity,
        file: impl Into<String>,
        line: usize,
        message: impl Into<String>,
    ) -> Self {
        Self { rule, severity, file: file.into(), line, message: message.into() }
    }
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} [{}] {}:{}: {}",
            self.severity.label(),
            self.rule,
            self.severity.label(),
            self.file,
            self.line,
            self.message
        )
    }
}

/// An ordered collection of findings with the two renderings.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// The findings, in the order the rules emitted them.
    pub findings: Vec<Finding>,
}

impl Report {
    /// An empty report.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a finding.
    pub fn push(&mut self, finding: Finding) {
        self.findings.push(finding);
    }

    /// Merges another report into this one.
    pub fn extend(&mut self, other: Report) {
        self.findings.extend(other.findings);
    }

    /// Sorts by (file, line, rule) for deterministic output regardless
    /// of rule execution order.
    pub fn sort(&mut self) {
        self.findings.sort_by(|a, b| {
            (&a.file, a.line, a.rule, &a.message).cmp(&(&b.file, b.line, b.rule, &b.message))
        });
    }

    /// True when no finding reaches `min` severity.
    #[must_use]
    pub fn clean_at(&self, min: Severity) -> bool {
        self.findings.iter().all(|f| f.severity < min)
    }

    /// Highest severity present, if any finding exists.
    #[must_use]
    pub fn max_severity(&self) -> Option<Severity> {
        self.findings.iter().map(|f| f.severity).max()
    }

    /// Deterministic machine-readable rendering (one JSON document).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"tool\":\"po-analyze\",\"findings\":[");
        for (i, f) in self.findings.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"rule\":{},\"severity\":{},\"file\":{},\"line\":{},\"message\":{}}}",
                json_str(f.rule),
                json_str(f.severity.label()),
                json_str(&f.file),
                f.line,
                json_str(&f.message)
            ));
        }
        out.push_str("]}\n");
        out
    }

    /// Human rendering: one line per finding plus a summary line.
    #[must_use]
    pub fn to_human(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            out.push_str(&format!(
                "{} {} {}:{}: {}\n",
                f.severity.label(),
                f.rule,
                f.file,
                f.line,
                f.message
            ));
        }
        let errors = self.findings.iter().filter(|f| f.severity == Severity::Error).count();
        let warns = self.findings.iter().filter(|f| f.severity == Severity::Warn).count();
        let infos = self.findings.iter().filter(|f| f.severity == Severity::Info).count();
        out.push_str(&format!(
            "{} finding(s): {errors} error(s), {warns} warning(s), {infos} info\n",
            self.findings.len()
        ));
        out
    }
}

/// Escapes a string as a JSON string literal.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_is_escaped_and_deterministic() {
        let mut r = Report::new();
        r.push(Finding::new("PA-V002", Severity::Warn, "a\"b.trace", 3, "odd \\ path\n"));
        let j = r.to_json();
        assert!(j.contains("\\\"b.trace"), "{j}");
        assert!(j.contains("odd \\\\ path\\n"), "{j}");
        assert_eq!(j, r.to_json());
    }

    #[test]
    fn sort_orders_by_file_then_line() {
        let mut r = Report::new();
        r.push(Finding::new("PA-C001", Severity::Warn, "b.jsonl", 1, "x"));
        r.push(Finding::new("PA-V002", Severity::Warn, "a.trace", 9, "y"));
        r.push(Finding::new("PA-V002", Severity::Warn, "a.trace", 2, "z"));
        r.sort();
        let order: Vec<_> = r.findings.iter().map(|f| (f.file.as_str(), f.line)).collect();
        assert_eq!(order, vec![("a.trace", 2), ("a.trace", 9), ("b.jsonl", 1)]);
    }

    #[test]
    fn severity_gating() {
        let mut r = Report::new();
        assert!(r.clean_at(Severity::Info));
        r.push(Finding::new("PA-V006", Severity::Info, "t", 0, "m"));
        assert!(r.clean_at(Severity::Warn));
        r.push(Finding::new("PA-V001", Severity::Warn, "t", 1, "m"));
        assert!(!r.clean_at(Severity::Warn));
        assert!(r.clean_at(Severity::Error));
        assert_eq!(r.max_severity(), Some(Severity::Warn));
    }
}
