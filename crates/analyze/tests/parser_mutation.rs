//! Seeded byte-mutation robustness of the untrusted-input parsers: the
//! journal reader behind `po_analyze events` (`parse_jsonl`,
//! `analyze_jsonl`) and `po_sim::read_trace`. Every mutant of a real
//! input must come back as findings or an `Err` — never a panic or an
//! allocation sized by a number it read.

use po_analyze::verifier::{analyze_jsonl, parse_jsonl, replay_events_jsonl};
use po_sim::{generate_mc_ops, read_trace, write_trace, SystemConfig};
use po_types::SplitMix64;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;

/// Numbers that break code trusting what it parsed: ids, counts and
/// indices at and past every integer width.
const HOSTILE: [&str; 6] = ["4000000000", "4294967296", "18446744073709551615", "1e99", "-1", "0"];

/// One to four edits: overwrite, insert or delete a byte, replace the
/// next number with a hostile one, duplicate a line, or truncate.
fn mutate(input: &[u8], seed: u64) -> Vec<u8> {
    let mut rng = SplitMix64::new(seed);
    let mut next = |n: usize| (rng.next_u64() % n as u64) as usize;
    let mut b = input.to_vec();
    for _ in 0..1 + next(4) {
        let at = next(b.len() + 1);
        let line_end = b[at..].iter().position(|&c| c == b'\n').map_or(b.len(), |i| at + i + 1);
        match next(6) {
            0 if at < b.len() => b[at] = next(256) as u8,
            1 => b.insert(at, next(256) as u8),
            2 if at < b.len() => {
                b.remove(at);
            }
            3 => {
                let start = (at..b.len()).find(|&i| b[i].is_ascii_digit()).unwrap_or(b.len());
                let end = (start..b.len()).find(|&i| !b[i].is_ascii_digit()).unwrap_or(b.len());
                b.splice(start..end, HOSTILE[next(HOSTILE.len())].bytes());
            }
            4 => {
                let start = b[..at].iter().rposition(|&c| c == b'\n').map_or(0, |i| i + 1);
                let line = b[start..line_end].to_vec();
                b.splice(line_end..line_end, line);
            }
            _ => b.truncate(at),
        }
    }
    b
}

/// Every clean and dirty fixture under `fixtures/<kind>/`, sorted.
fn fixtures(kind: &str) -> Vec<Vec<u8>> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures").join(kind);
    let mut paths: Vec<_> = ["clean", "dirty"]
        .iter()
        .flat_map(|d| std::fs::read_dir(root.join(d)).expect("fixture dir"))
        .map(|e| e.expect("dir entry").path())
        .collect();
    paths.sort();
    paths.iter().map(|p| std::fs::read(p).expect("fixture")).collect()
}

/// Feeds 200 seeded mutants of each corpus entry to `rejects` (true
/// on a finding or an `Err`). A panic fails with the seed and the
/// mutant; a sweep that rejects nothing fails as vacuous.
fn sweep(what: &str, corpus: &[Vec<u8>], rejects: impl Fn(&[u8]) -> bool) {
    let mut rejected = 0;
    for (i, input) in corpus.iter().enumerate() {
        for seed in 0..200u64 {
            let bytes = mutate(input, seed ^ ((i as u64) << 32));
            let Ok(r) = catch_unwind(AssertUnwindSafe(|| rejects(&bytes))) else {
                panic!(
                    "{what} panicked on mutant {seed} of input {i}:\n{}",
                    String::from_utf8_lossy(&bytes)
                );
            };
            rejected += usize::from(r);
        }
    }
    assert!(rejected > 0, "{what}: no mutant was rejected — the sweep tests nothing");
}

#[test]
fn journal_parser_survives_byte_mutation() {
    let mut corpus = fixtures("events");
    // A real two-core journal: every `Coh*` kind, interleaved with the
    // access-path events the parser skips.
    let config = SystemConfig { cores: 2, ..SystemConfig::table2_overlay() };
    let journal = replay_events_jsonl(&config, &generate_mc_ops(5, 120, 2), false).expect("replay");
    corpus.push(journal.into_bytes());
    sweep("parse_jsonl/analyze_jsonl", &corpus, |bytes| {
        let text = String::from_utf8_lossy(bytes);
        let (_, parsed) = parse_jsonl(&text, "mutant");
        !parsed.findings.is_empty() || !analyze_jsonl(&text, "mutant").findings.is_empty()
    });
}

#[test]
fn trace_reader_survives_byte_mutation() {
    let mut corpus = fixtures("traces");
    let mut trace = Vec::new();
    write_trace(&mut trace, &generate_mc_ops(9, 150, 4)).expect("write");
    corpus.push(trace);
    sweep("read_trace", &corpus, |bytes| read_trace(bytes).is_err());
}
