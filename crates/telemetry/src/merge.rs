//! Order-insensitive merging of per-shard telemetry.
//!
//! The shard pool gives every workload job its own [`TelemetrySink`],
//! so workers never contend on one shared core — but the exports CI
//! byte-diffs (`summary.json`, journal JSONL, run reports) must not
//! depend on which worker finished first. This module is the other half
//! of that bargain: everything a sink records merges under laws that
//! are commutative and associative with an empty identity, and the
//! merged journal is totally ordered by `(job, seq)` — the job id is
//! assigned at submission time and `seq` orders events within a job (it
//! advances with the job's simulated cycle), so the serialized bytes
//! are a pure function of the job set, never of worker interleaving.
//!
//! Merge laws: counters, histograms, CPI-stack cycles, ops, and
//! instruction counts *add*; gauges (all high-water marks) take the
//! elementwise *maximum*; journal records *union* under the `(job,
//! seq)` order.

use crate::journal::{EventRecord, Journal};
use crate::metrics::MetricsRegistry;
use crate::sink::{TelemetryCore, TelemetrySink};
use crate::span::CpiStack;
use std::fmt::Write as _;

/// The union of per-job event journals, totally ordered by
/// `(job, seq)` so exports are byte-identical however the journals
/// arrive.
#[derive(Clone, Debug, Default)]
pub struct MergedJournal {
    entries: Vec<(u64, EventRecord)>,
    total_emitted: u64,
    dropped: u64,
    flushed: u64,
    jobs: u64,
}

impl MergedJournal {
    /// An empty merged journal.
    pub fn new() -> Self {
        Self::default()
    }

    /// Absorbs one job's journal. Job ids must be distinct per absorbed
    /// journal — they are the major sort key of the export.
    pub fn absorb(&mut self, job_id: u64, journal: &Journal) {
        self.entries.extend(journal.records().map(|&r| (job_id, r)));
        self.total_emitted += journal.total_emitted();
        self.dropped += journal.dropped();
        self.flushed += journal.flushed();
        self.jobs += 1;
    }

    /// Records currently held across all absorbed journals.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` if no records are held.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Journals absorbed.
    pub fn jobs(&self) -> u64 {
        self.jobs
    }

    /// Total events emitted across all absorbed journals.
    pub fn total_emitted(&self) -> u64 {
        self.total_emitted
    }

    /// Events dropped across all absorbed journals.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Events flushed to incremental streams across absorbed journals.
    pub fn flushed(&self) -> u64 {
        self.flushed
    }

    /// All records as JSONL in `(job, seq)` order, each line the
    /// record's own serialization with a leading `"job"` key:
    /// `{"job":..,"seq":..,"cycle":..,"kind":"..",..}`.
    pub fn to_jsonl(&self) -> String {
        let mut order: Vec<usize> = (0..self.entries.len()).collect();
        order.sort_by_key(|&i| (self.entries[i].0, self.entries[i].1.seq));
        let mut s = String::with_capacity(self.entries.len() * 96);
        for i in order {
            let (job, record) = &self.entries[i];
            let line = record.to_jsonl();
            let _ = write!(s, "{{\"job\":{job},{}", &line[1..]);
            s.push('\n');
        }
        s
    }
}

/// Accumulates per-job telemetry cores into one merged view: registry,
/// CPI stack, and journal, each under its order-insensitive law.
#[derive(Clone, Debug, Default)]
pub struct TelemetryMerge {
    registry: MetricsRegistry,
    stack: CpiStack,
    journal: MergedJournal,
}

impl TelemetryMerge {
    /// An empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Absorbs one job's core under the merge laws.
    pub fn absorb_core(&mut self, job_id: u64, core: &TelemetryCore) {
        self.registry.merge(core.registry());
        self.stack.merge(core.cpi_stack());
        self.journal.absorb(job_id, core.journal());
    }

    /// Absorbs one job's sink; returns `false` (and absorbs nothing)
    /// for a `Noop` sink.
    pub fn absorb(&mut self, job_id: u64, sink: &TelemetrySink) -> bool {
        sink.with_core(|core| self.absorb_core(job_id, core)).is_some()
    }

    /// The merged metrics registry.
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// The merged CPI stack.
    pub fn cpi_stack(&self) -> &CpiStack {
        &self.stack
    }

    /// The merged journal.
    pub fn journal(&self) -> &MergedJournal {
        &self.journal
    }

    /// The merged journal as JSONL (see [`MergedJournal::to_jsonl`]).
    pub fn journal_jsonl(&self) -> String {
        self.journal.to_jsonl()
    }

    /// The merged human-readable run report: same shape as a single
    /// job's report, with the journal line counting absorbed jobs.
    pub fn run_report(&self, title: &str) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "=== {title} ===");
        if self.stack.ops() > 0 || self.stack.total_cycles() > 0 {
            let _ = writeln!(s, "\nCPI stack (per-layer cycle attribution):");
            s.push_str(&self.stack.render_text());
        }
        if !self.registry.is_empty() {
            let _ = writeln!(s, "\nmetrics:");
            s.push_str(&self.registry.render_text());
        }
        let _ = writeln!(
            s,
            "\nevent journal: {} emitted across {} jobs, {} held, {} dropped",
            self.journal.total_emitted(),
            self.journal.jobs(),
            self.journal.len(),
            self.journal.dropped()
        );
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::Event;
    use crate::span::Layer;

    fn job_sink(job: u64, events: u64) -> TelemetrySink {
        let sink = TelemetrySink::active();
        for i in 0..events {
            sink.set_now(100 * job + i);
            sink.emit(|| Event::OmtWalk { opn: job * 10 + i, latency: 1 + i });
            sink.add_counters([("omt.walks", 1)]);
            sink.observe("omt.walk_latency", 1 + i);
        }
        sink.gauge("oms.high_water", (job * 7) as i64);
        sink.begin_access(false, 0x1000 * job);
        sink.layer(Layer::Dram, 30);
        sink.end_access(32);
        sink.instructions(events);
        sink
    }

    #[test]
    fn merge_is_order_insensitive_byte_for_byte() {
        let sinks: Vec<_> = (0..4).map(|j| (j, job_sink(j, 3 + j))).collect();
        let mut forward = TelemetryMerge::new();
        for (job, sink) in &sinks {
            assert!(forward.absorb(*job, sink));
        }
        let mut reverse = TelemetryMerge::new();
        for (job, sink) in sinks.iter().rev() {
            reverse.absorb(*job, sink);
        }
        assert_eq!(forward.journal_jsonl(), reverse.journal_jsonl());
        assert_eq!(forward.registry().to_json(), reverse.registry().to_json());
        assert_eq!(forward.cpi_stack().to_json(), reverse.cpi_stack().to_json());
        assert_eq!(forward.run_report("t"), reverse.run_report("t"));
    }

    #[test]
    fn merged_journal_lines_carry_the_job_key_in_order() {
        let mut m = MergedJournal::new();
        let mut a = Journal::new(8);
        a.push(5, Event::OmtWalk { opn: 1, latency: 2 });
        let mut b = Journal::new(8);
        b.push(1, Event::OmtWalk { opn: 2, latency: 3 });
        m.absorb(1, &a);
        m.absorb(0, &b);
        let jsonl = m.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("{\"job\":0,\"seq\":0,"), "job 0 first: {}", lines[0]);
        assert!(lines[1].starts_with("{\"job\":1,\"seq\":0,"), "job 1 second: {}", lines[1]);
        assert_eq!(m.jobs(), 2);
        assert_eq!(m.total_emitted(), 2);
    }

    #[test]
    fn noop_sink_absorbs_nothing() {
        let mut m = TelemetryMerge::new();
        assert!(!m.absorb(0, &TelemetrySink::noop()));
        assert!(m.journal().is_empty());
        assert!(m.registry().is_empty());
    }
}
