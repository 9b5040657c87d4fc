//! Every po-analyze rule has a seeded true-positive fixture under
//! `fixtures/`, and the current source tree runs clean. These tests pin
//! both halves: a rule that stops firing on its fixture has regressed,
//! and a finding on the tree is a real defect (or needs an explicit
//! `po-analyze: allow`).

use po_analyze::lints::{self, fault_threading, tokenizer::ScannedFile};
use po_analyze::verifier::analyze_jsonl;
use po_analyze::{verify_trace_text, Report, Severity, Verdict, VerifierOptions};
use po_sim::SystemConfig;
use std::path::{Path, PathBuf};

fn fixture(rel: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures").join(rel);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

fn rules(report: &Report) -> Vec<&'static str> {
    report.findings.iter().map(|f| f.rule).collect()
}

fn verify_fixture(rel: &str, opts: &VerifierOptions) -> po_analyze::Analysis {
    verify_trace_text(&SystemConfig::table2_overlay(), &fixture(rel), opts, rel)
}

#[test]
fn v000_malformed_trace_is_rejected() {
    let a = verify_fixture("traces/dirty/v000_malformed.trace", &VerifierOptions::default());
    assert_eq!(a.verdict, Verdict::Reject);
    assert_eq!(rules(&a.report), vec!["PA-V000"]);
    assert_eq!(a.report.max_severity(), Some(Severity::Error));
}

#[test]
fn v001_dead_op_fires() {
    let a = verify_fixture("traces/dirty/v001_dead_op.trace", &VerifierOptions::default());
    assert_eq!(a.verdict, Verdict::Accept);
    assert_eq!(rules(&a.report), vec!["PA-V001"], "{}", a.report.to_human());
}

#[test]
fn v002_unmapped_poke_fires() {
    let a = verify_fixture("traces/dirty/v002_unmapped_poke.trace", &VerifierOptions::default());
    assert_eq!(rules(&a.report), vec!["PA-V002"], "{}", a.report.to_human());
}

#[test]
fn v003_dead_commit_fires() {
    let a = verify_fixture("traces/dirty/v003_dead_commit.trace", &VerifierOptions::default());
    assert_eq!(rules(&a.report), vec!["PA-V003"], "{}", a.report.to_human());
}

#[test]
fn v004_unreachable_crash_point_fires() {
    let opts = VerifierOptions { crash_queries: vec![5], ..Default::default() };
    let a = verify_fixture("traces/dirty/v004_short_trace.trace", &opts);
    assert_eq!(rules(&a.report), vec!["PA-V004"], "{}", a.report.to_human());
    // Without the query the same trace is clean.
    let a = verify_fixture("traces/dirty/v004_short_trace.trace", &VerifierOptions::default());
    assert!(a.report.findings.is_empty(), "{}", a.report.to_human());
}

#[test]
fn v005_oms_overflow_fires_under_tight_budget() {
    let opts = VerifierOptions { oms_limit: Some(768), ..Default::default() };
    let a = verify_fixture("traces/dirty/v005_oms_overflow.trace", &opts);
    assert_eq!(rules(&a.report), vec!["PA-V005"], "{}", a.report.to_human());
    // A budget covering the 1024-byte peak settles it.
    let opts = VerifierOptions { oms_limit: Some(1024), ..Default::default() };
    let a = verify_fixture("traces/dirty/v005_oms_overflow.trace", &opts);
    assert!(a.report.findings.is_empty(), "{}", a.report.to_human());
}

#[test]
fn v005_frag_slack_fires_only_with_headroom_armed() {
    // The budget covers the raw 1024-byte peak, so without slack the
    // trace is clean; demanding 50 % fragmentation headroom trips it.
    let opts = VerifierOptions { oms_limit: Some(1280), frag_slack: 0.5, ..Default::default() };
    let a = verify_fixture("traces/dirty/v005_frag_slack.trace", &opts);
    assert_eq!(rules(&a.report), vec!["PA-V005"], "{}", a.report.to_human());
    assert!(
        a.report.findings[0].message.contains("fragmentation slack"),
        "{}",
        a.report.to_human()
    );
    let opts = VerifierOptions { oms_limit: Some(1280), ..Default::default() };
    let a = verify_fixture("traces/dirty/v005_frag_slack.trace", &opts);
    assert!(a.report.findings.is_empty(), "{}", a.report.to_human());
}

#[test]
fn v006_resident_tail_fires() {
    let a = verify_fixture("traces/dirty/v006_resident_tail.trace", &VerifierOptions::default());
    assert_eq!(rules(&a.report), vec!["PA-V006"], "{}", a.report.to_human());
}

#[test]
fn v007_oncore_out_of_range_fires() {
    // On the default single-core config, `A 3` wraps — and warns.
    let a = verify_fixture("traces/dirty/v007_oncore_range.trace", &VerifierOptions::default());
    assert_eq!(a.verdict, Verdict::Accept);
    assert_eq!(rules(&a.report), vec!["PA-V007"], "{}", a.report.to_human());
    assert!(a.report.findings[0].message.contains("wraps it to core 0"), "{}", a.report.to_human());
    // With enough configured cores the same trace is clean.
    let mut config = SystemConfig::table2_overlay();
    config.cores = 8;
    let a = verify_trace_text(
        &config,
        &fixture("traces/dirty/v007_oncore_range.trace"),
        &VerifierOptions::default(),
        "v007",
    );
    assert!(a.report.findings.is_empty(), "{}", a.report.to_human());
}

#[test]
fn clean_traces_are_clean() {
    for rel in ["traces/clean/fork_poke_flush.trace", "traces/clean/commit_discard.trace"] {
        let a = verify_fixture(rel, &VerifierOptions::default());
        assert_eq!(a.verdict, Verdict::Accept, "{rel}");
        assert!(a.report.findings.is_empty(), "{rel}:\n{}", a.report.to_human());
    }
}

#[test]
fn l003_unthreaded_variant_fires() {
    let corpus = vec![(
        "l003.rs".to_string(),
        ScannedFile::scan(&fixture("lints/l003_unthreaded_variant.rs")),
    )];
    let mut report = Report::new();
    fault_threading::check(&corpus, &mut report);
    let fired = rules(&report);
    assert!(fired.iter().all(|r| *r == "PA-L003"), "{}", report.to_human());
    assert!(
        report.findings.iter().any(|f| f.message.contains("missing from FaultSite::ALL")),
        "{}",
        report.to_human()
    );
    assert!(
        report.findings.iter().any(|f| f.message.contains("never threaded")),
        "{}",
        report.to_human()
    );
}

#[test]
fn l004_orphan_sink_fires() {
    let report = lints::lint_source("l004.rs", &fixture("lints/l004_orphan_sink.rs"));
    assert_eq!(rules(&report), vec!["PA-L004"], "{}", report.to_human());
}

#[test]
fn l005_private_drive_loop_fires() {
    // The rule only scopes binary targets, so the fixture is linted
    // under a `src/bin/…` label.
    let report =
        lints::lint_source("src/bin/l005.rs", &fixture("lints/l005_private_drive_loop.rs"));
    let fired = rules(&report);
    assert_eq!(fired, vec!["PA-L005", "PA-L005", "PA-L005"], "{}", report.to_human());
    assert!(report.findings[0].message.contains("shared runner"), "{}", report.to_human());
    // Outside a bin path the same source is not this rule's business.
    let report = lints::lint_source("l005.rs", &fixture("lints/l005_private_drive_loop.rs"));
    assert!(rules(&report).is_empty(), "{}", report.to_human());
}

#[test]
fn l005_runner_submission_is_clean() {
    let report =
        lints::lint_source("src/bin/l005_clean.rs", &fixture("lints/l005_clean_runner_use.rs"));
    assert!(report.findings.is_empty(), "{}", report.to_human());
}

#[test]
fn c_rule_event_fixtures_fire_their_encoded_rule() {
    // Every dirty events fixture trips exactly the rule its filename
    // encodes (cNNN_*.jsonl → PA-CNNN), mirroring the CI race-analyze
    // job's filename convention.
    for (name, rule) in [
        ("c000_malformed_event", "PA-C000"),
        ("c001_lost_update", "PA-C001"),
        ("c002_unowned_update", "PA-C002"),
        ("c003_early_promotion_visibility", "PA-C003"),
        ("c004_unordered_updates", "PA-C004"),
        ("c005_stale_window_access", "PA-C005"),
        ("c006_orphan_ack", "PA-C006"),
    ] {
        let text = fixture(&format!("events/dirty/{name}.jsonl"));
        let report = analyze_jsonl(&text, name);
        let fired: std::collections::BTreeSet<_> = rules(&report).into_iter().collect();
        assert_eq!(fired.len(), 1, "{name} fired {fired:?}:\n{}", report.to_human());
        assert!(fired.contains(rule), "{name} fired {fired:?}, want {rule}");
    }
}

#[test]
fn clean_event_fixtures_are_clean() {
    for name in ["delivered_update", "promotion_shootdown"] {
        let report = analyze_jsonl(&fixture(&format!("events/clean/{name}.jsonl")), name);
        assert!(report.findings.is_empty(), "{name}:\n{}", report.to_human());
    }
}

#[test]
fn clean_lint_fixture_is_clean() {
    let text = fixture("lints/clean.rs");
    let report = lints::lint_source("clean.rs", &text);
    assert!(report.findings.is_empty(), "{}", report.to_human());
    let corpus = vec![("clean.rs".to_string(), ScannedFile::scan(&text))];
    let mut report = Report::new();
    fault_threading::check(&corpus, &mut report);
    assert!(report.findings.is_empty(), "{}", report.to_human());
}

#[test]
fn source_tree_lints_clean() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let report = lints::run_lints(&root).expect("walk workspace");
    assert!(
        report.findings.is_empty(),
        "the tree must lint clean (or carry explicit allows):\n{}",
        report.to_human()
    );
}
