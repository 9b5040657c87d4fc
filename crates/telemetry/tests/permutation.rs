//! Property tests for the telemetry merge laws: absorbing per-shard
//! telemetry in **every permutation** of shard order yields byte-for-byte
//! the serialization a serial (single-sink) run produces. This is the
//! algebra the shard-determinism CI job leans on — commutativity and
//! associativity with an empty identity — pinned exhaustively for small
//! shard counts rather than sampled.

use po_telemetry::{Event, Journal, Log2Histogram, MetricsRegistry, TelemetryMerge, TelemetrySink};

/// All permutations of `0..n` in lexicographic order (Heap's algorithm
/// reorders; we want determinism, so generate recursively).
fn permutations(n: usize) -> Vec<Vec<usize>> {
    if n == 0 {
        return vec![Vec::new()];
    }
    let mut out = Vec::new();
    for rest in permutations(n - 1) {
        for slot in 0..=rest.len() {
            let mut p = rest.clone();
            p.insert(slot, n - 1);
            out.push(p);
        }
    }
    out.sort();
    out
}

/// A deterministic per-shard value stream: `xorshift`-style but fixed,
/// so the test never depends on process state.
fn values(shard: u64, n: u64) -> impl Iterator<Item = u64> {
    (0..n).map(move |i| {
        let mut x = shard.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(i + 1);
        x ^= x >> 33;
        x = x.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
        (x >> 40) + 1
    })
}

#[test]
fn registry_merge_matches_serial_under_every_permutation() {
    const SHARDS: usize = 4;
    // The serial run: every shard's values recorded into one registry.
    let mut serial = MetricsRegistry::new();
    let mut shards: Vec<MetricsRegistry> = Vec::new();
    for s in 0..SHARDS as u64 {
        let mut reg = MetricsRegistry::new();
        for v in values(s, 16 + s) {
            for r in [&mut serial, &mut reg] {
                r.count("omt.walks", v);
                r.observe("omt.walk_latency", v);
            }
        }
        // Gauges are high-water marks: the serial run sees the max.
        reg.gauge("oms.high_water", (s * 100) as i64);
        serial.gauge("oms.high_water", (s * 100) as i64);
        shards.push(reg);
    }
    let expected = serial.to_json();
    for perm in permutations(SHARDS) {
        let mut merged = MetricsRegistry::new();
        for &s in &perm {
            merged.merge(&shards[s]);
        }
        assert_eq!(merged.to_json(), expected, "permutation {perm:?}");
        assert_eq!(
            merged.counter("omt.walks"),
            serial.counter("omt.walks"),
            "permutation {perm:?}"
        );
    }
}

#[test]
fn histogram_merge_matches_serial_under_every_permutation() {
    const SHARDS: usize = 4;
    let mut serial = Log2Histogram::new();
    let mut shards: Vec<Log2Histogram> = Vec::new();
    for s in 0..SHARDS as u64 {
        let mut h = Log2Histogram::new();
        for v in values(s, 24) {
            h.observe(v);
            serial.observe(v);
        }
        shards.push(h);
    }
    for perm in permutations(SHARDS) {
        let mut merged = Log2Histogram::new();
        for &s in &perm {
            merged.merge(&shards[s]);
        }
        assert_eq!(merged.to_json(), serial.to_json(), "permutation {perm:?}");
        assert_eq!(merged.count(), serial.count());
        assert_eq!(merged.sum(), serial.sum());
        assert_eq!(merged.min(), serial.min());
        assert_eq!(merged.max(), serial.max());
    }
}

#[test]
fn journal_merge_orders_by_job_seq_under_every_permutation() {
    const JOBS: usize = 4;
    let journals: Vec<Journal> = (0..JOBS as u64)
        .map(|j| {
            let mut journal = Journal::new(64);
            for (i, v) in values(j, 5 + j).enumerate() {
                journal.push(v, Event::OmtWalk { opn: j * 100 + i as u64, latency: v });
            }
            journal
        })
        .collect();
    // The reference export: jobs absorbed in submission order.
    let mut reference = po_telemetry::MergedJournal::new();
    for (j, journal) in journals.iter().enumerate() {
        reference.absorb(j as u64, journal);
    }
    let expected = reference.to_jsonl();
    assert!(!expected.is_empty());
    for perm in permutations(JOBS) {
        let mut merged = po_telemetry::MergedJournal::new();
        for &j in &perm {
            merged.absorb(j as u64, &journals[j]);
        }
        assert_eq!(merged.to_jsonl(), expected, "permutation {perm:?}");
        assert_eq!(merged.total_emitted(), reference.total_emitted());
    }
}

#[test]
fn full_sink_merge_is_permutation_invariant_end_to_end() {
    const JOBS: usize = 4;
    let sinks: Vec<TelemetrySink> = (0..JOBS as u64)
        .map(|j| {
            let sink = TelemetrySink::active();
            for (i, v) in values(j, 8).enumerate() {
                sink.set_now(j * 1000 + i as u64);
                sink.emit(|| Event::OmtWalk { opn: j * 10 + i as u64, latency: v });
                sink.add_counters([("omt.walks", 1)]);
                sink.observe("omt.walk_latency", v);
            }
            sink.gauge("oms.high_water", (j * 7) as i64);
            sink.instructions(8);
            sink
        })
        .collect();
    let mut reference = TelemetryMerge::new();
    for (j, sink) in sinks.iter().enumerate() {
        assert!(reference.absorb(j as u64, sink));
    }
    for perm in permutations(JOBS) {
        let mut merged = TelemetryMerge::new();
        for &j in &perm {
            merged.absorb(j as u64, &sinks[j]);
        }
        assert_eq!(merged.journal_jsonl(), reference.journal_jsonl(), "permutation {perm:?}");
        assert_eq!(merged.registry().to_json(), reference.registry().to_json());
        assert_eq!(merged.cpi_stack().to_json(), reference.cpi_stack().to_json());
        assert_eq!(merged.run_report("perm"), reference.run_report("perm"));
    }
}
