//! Front 2: project-specific source lints.
//!
//! Four rules, each encoding a repo convention whose violation is a
//! real bug rather than a style nit:
//!
//! | Rule    | Severity | Meaning |
//! |---------|----------|---------|
//! | PA-L003 | warn     | `FaultSite` variant missing from `ALL` or threaded nowhere |
//! | PA-L004 | warn     | component sink field with no telemetry installer |
//! | PA-L005 | warn     | binary target drives a machine outside the shared runner |
//! | PA-L006 | warn     | coherence message emitted without sink threading + mirrored counter |
//!
//! PA-L001 (snapshot field pairing) and PA-L002 (counter with no backing
//! stat) are retired: stats structs are declared once through
//! `po_types::stats!`, which generates their codecs and telemetry
//! counters, and every other codec is pinned by the byte-identical
//! save→restore→save tests.
//!
//! All rules run on a [`tokenizer::ScannedFile`] — a self-contained
//! scanner with no compiler or registry dependencies — and honour a
//! `// po-analyze: allow(PA-Lxxx)` comment on the offending line or the
//! line above it.

pub mod coherence_accounting;
pub mod fault_threading;
pub mod runner_usage;
pub mod sink_threading;
pub mod tokenizer;

use crate::findings::Report;
use std::fs;
use std::path::{Path, PathBuf};
use tokenizer::ScannedFile;

/// Directory components never linted: build output, vendored shims
/// (external-API stand-ins), seeded true-positive fixtures, VCS state.
const SKIP_DIRS: [&str; 5] = ["target", "shims", "fixtures", ".git", "related"];

/// Runs the per-file rules (PA-L004/5/6) over one source text.
#[must_use]
pub fn lint_source(path_label: &str, text: &str) -> Report {
    let file = ScannedFile::scan(text);
    let mut report = Report::new();
    sink_threading::check(path_label, &file, &mut report);
    runner_usage::check(path_label, &file, &mut report);
    coherence_accounting::check(path_label, &file, &mut report);
    report
}

/// Collects every `.rs` file under `root` (skipping [`SKIP_DIRS`]),
/// sorted for deterministic reports.
fn collect_sources(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if !SKIP_DIRS.contains(&name.as_ref()) {
                    stack.push(path);
                }
            } else if name.ends_with(".rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    Ok(out)
}

/// Runs every lint rule over the source tree rooted at `root`,
/// reporting paths relative to it.
///
/// # Errors
///
/// Propagates filesystem errors from the walk.
pub fn run_lints(root: &Path) -> std::io::Result<Report> {
    let mut report = Report::new();
    let mut scanned: Vec<(String, ScannedFile)> = Vec::new();
    for path in collect_sources(root)? {
        let rel = path.strip_prefix(root).unwrap_or(&path).to_string_lossy().replace('\\', "/");
        let text = fs::read_to_string(&path)?;
        let file = ScannedFile::scan(&text);
        sink_threading::check(&rel, &file, &mut report);
        runner_usage::check(&rel, &file, &mut report);
        coherence_accounting::check(&rel, &file, &mut report);
        scanned.push((rel, file));
    }
    fault_threading::check(&scanned, &mut report);
    report.sort();
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lint_source_runs_all_per_file_rules() {
        // One machine-driving source violating L004 and L006 at once.
        let src = "\
pub struct M {
    sink: TelemetrySink,
}
fn route(tlb: &mut Tlb) {
    tlb.shootdown(asid, vpn);
}
";
        let report = lint_source("crates/sim/src/x.rs", src);
        let rules: Vec<_> = report.findings.iter().map(|f| f.rule).collect();
        assert!(rules.contains(&"PA-L004"), "{rules:?}");
        assert!(rules.contains(&"PA-L006"), "{rules:?}");
    }
}
