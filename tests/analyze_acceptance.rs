//! Verifier well-formedness agreement: a trace text parses
//! (`read_trace` Ok) iff the trace verifier accepts it, and every
//! accepted generated trace replays through `run_ops`.

use po_analyze::{verify_trace_text, Verdict, VerifierOptions};
use po_sim::{generate_ops, read_trace, run_ops, write_trace, SystemConfig};

#[test]
fn acceptance_matches_run_ops_and_parser() {
    let config = SystemConfig::table2_overlay();
    for seed in 0..20u64 {
        let ops = generate_ops(seed, 80);
        // Round-trip through the text format: still parses, still accepted.
        let mut text = Vec::new();
        write_trace(&mut text, &ops).expect("serialize");
        let text = String::from_utf8(text).expect("trace text is ascii");
        assert!(read_trace(text.as_bytes()).is_ok(), "seed {seed}: round-trip parses");
        let analysis = verify_trace_text(&config, &text, &VerifierOptions::default(), "roundtrip");
        assert_eq!(analysis.verdict, Verdict::Accept, "seed {seed}");
        assert!(run_ops(&config, None, &ops, false).is_ok(), "seed {seed}: machine replays");
    }
}

#[test]
fn rejection_matches_parser() {
    let config = SystemConfig::table2_overlay();
    let malformed = [
        "!trace-version 2\nBOGUS 1\n",
        "!trace-version 2\n!ops 3\nP\n",
        "!trace-version 2\nK 0 100 64 1\n",
        "!trace-version 1\nP\n",
        "!trace-version 2\n!trace-version 2\nP\n",
        "!trace-version 2\nM 0 zz 1\n",
    ];
    for text in malformed {
        assert!(read_trace(text.as_bytes()).is_err(), "parser must reject: {text:?}");
        let analysis = verify_trace_text(&config, text, &VerifierOptions::default(), "bad");
        assert_eq!(analysis.verdict, Verdict::Reject, "verifier must reject: {text:?}");
        assert_eq!(analysis.report.findings[0].rule, "PA-V000");
    }
}
