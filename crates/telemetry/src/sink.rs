//! The [`TelemetrySink`] handle threaded through every simulator layer.
//!
//! Mirrors the `FaultInjector` distribution pattern: the machine builds
//! one sink and hands clones to the OS model, the TLBs, the cache
//! hierarchies, the overlay manager (which forwards to the Overlay
//! Memory Store) and the DRAM model. All clones share one
//! [`TelemetryCore`], so a single report covers every layer.
//!
//! Layers emit events, spans, gauges and histograms as they happen.
//! Counters are not tallied here: each component keeps its own stats
//! struct, and the machine publishes those into the registry once,
//! when a run ends ([`TelemetrySink::add_counters`]).
//!
//! The default sink is [`TelemetrySink::Noop`]: a unit variant whose
//! every method is a single discriminant test — no allocation, no lock,
//! no argument evaluation (event construction is behind a closure).
//! Simulation state is never read *from* telemetry, so enabling or
//! disabling a sink cannot perturb execution: a telemetry-on run and a
//! telemetry-off run reach bit-identical machine snapshots.

use crate::journal::{Event, Journal};
use crate::metrics::MetricsRegistry;
use crate::span::{AccessSpan, CpiStack, Layer, SpanTracker};
use std::sync::{Arc, Mutex};

/// Default journal ring capacity.
pub const DEFAULT_JOURNAL_CAPACITY: usize = 4096;
/// Default completed-span ring capacity.
pub const DEFAULT_SPAN_CAPACITY: usize = 4096;

/// The shared state behind an active sink.
#[derive(Debug)]
pub struct TelemetryCore {
    /// Current simulated cycle, set by the machine at each timed
    /// operation so layers without a time context can stamp events.
    now: u64,
    /// The bounded structured event journal.
    journal: Journal,
    /// Span tracking + aggregate CPI stack.
    spans: SpanTracker,
    /// Counters, gauges, histograms.
    registry: MetricsRegistry,
}

impl TelemetryCore {
    fn new(journal_capacity: usize, span_capacity: usize) -> Self {
        Self {
            now: 0,
            journal: Journal::new(journal_capacity),
            spans: SpanTracker::new(span_capacity),
            registry: MetricsRegistry::new(),
        }
    }

    /// Current simulated cycle.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// The event journal.
    pub fn journal(&self) -> &Journal {
        &self.journal
    }

    /// Completed spans, oldest first.
    pub fn spans(&self) -> impl Iterator<Item = &AccessSpan> + '_ {
        self.spans.spans()
    }

    /// The aggregate CPI stack.
    pub fn cpi_stack(&self) -> &CpiStack {
        self.spans.stack()
    }

    /// The metrics registry.
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }
}

/// A cloneable telemetry handle; see the module docs.
///
/// All clones of an `Active` sink share one [`TelemetryCore`].
#[derive(Clone, Debug, Default)]
pub enum TelemetrySink {
    /// Inert: every operation is a single discriminant test.
    #[default]
    Noop,
    /// Recording into the shared core.
    Active(Arc<Mutex<TelemetryCore>>),
}

impl TelemetrySink {
    /// The inert sink (also `Default`).
    #[inline]
    pub const fn noop() -> Self {
        TelemetrySink::Noop
    }

    /// An active sink with default ring capacities.
    pub fn active() -> Self {
        Self::with_capacity(DEFAULT_JOURNAL_CAPACITY, DEFAULT_SPAN_CAPACITY)
    }

    /// An active sink with explicit journal/span ring capacities.
    pub fn with_capacity(journal_capacity: usize, span_capacity: usize) -> Self {
        TelemetrySink::Active(Arc::new(Mutex::new(TelemetryCore::new(
            journal_capacity,
            span_capacity,
        ))))
    }

    /// `true` if this sink records anything.
    #[inline]
    pub fn is_active(&self) -> bool {
        matches!(self, TelemetrySink::Active(_))
    }

    #[inline]
    fn with_core_mut<R>(&self, f: impl FnOnce(&mut TelemetryCore) -> R) -> Option<R> {
        match self {
            TelemetrySink::Noop => None,
            TelemetrySink::Active(core) => Some(Self::record(core, f)),
        }
    }

    /// The recording arm, kept out of line so that a `Noop` sink costs
    /// its callers exactly one discriminant test — inlining the lock
    /// and ring/registry updates into every instrumented hot path would
    /// bloat those functions even when telemetry is off.
    #[cold]
    #[inline(never)]
    fn record<R>(core: &Mutex<TelemetryCore>, f: impl FnOnce(&mut TelemetryCore) -> R) -> R {
        // Lock poisoning cannot occur: no code panics while holding the
        // core lock, so a poisoned guard is simply recovered.
        f(&mut core.lock().unwrap_or_else(|e| e.into_inner()))
    }

    /// Runs `f` against the shared core (None when `Noop`). This is the
    /// exporters' read path.
    pub fn with_core<R>(&self, f: impl FnOnce(&TelemetryCore) -> R) -> Option<R> {
        self.with_core_mut(|core| f(core))
    }

    // --- time ---------------------------------------------------------

    /// Sets the current simulated cycle; the machine calls this at each
    /// timed operation so every layer's events carry cycle stamps.
    #[inline]
    pub fn set_now(&self, cycle: u64) {
        self.with_core_mut(|core| core.now = cycle);
    }

    /// Current simulated cycle (0 when `Noop`).
    #[inline]
    pub fn now(&self) -> u64 {
        self.with_core(|core| core.now).unwrap_or(0)
    }

    // --- events -------------------------------------------------------

    /// Appends an event to the journal, stamped with the current cycle.
    /// The closure is never called on a `Noop` sink, so argument
    /// construction costs nothing when telemetry is off.
    #[inline]
    pub fn emit(&self, make: impl FnOnce() -> Event) {
        self.with_core_mut(|core| {
            let now = core.now;
            core.journal.push(now, make());
        });
    }

    // --- metrics ------------------------------------------------------

    /// Adds every `(name, value)` pair to the registry's counters.
    pub fn add_counters(&self, counters: impl IntoIterator<Item = (&'static str, u64)>) {
        self.with_core_mut(|core| {
            for (name, n) in counters {
                core.registry.count(name, n);
            }
        });
    }

    /// Sets a named gauge.
    #[inline]
    pub fn gauge(&self, name: &'static str, v: i64) {
        self.with_core_mut(|core| core.registry.gauge(name, v));
    }

    /// Records a histogram observation.
    #[inline]
    pub fn observe(&self, name: &'static str, v: u64) {
        self.with_core_mut(|core| core.registry.observe(name, v));
    }

    /// Reads back a counter (0 when `Noop` or never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        self.with_core(|core| core.registry.counter(name)).unwrap_or(0)
    }

    // --- spans --------------------------------------------------------

    /// Opens a span for a memory operation issued at the current cycle.
    #[inline]
    pub fn begin_access(&self, write: bool, va: u64) {
        self.with_core_mut(|core| {
            let now = core.now;
            core.spans.begin(write, va, now);
        });
    }

    /// Attributes `cycles` to `layer` — to the open span if one exists,
    /// otherwise straight to the aggregate CPI stack.
    #[inline]
    pub fn layer(&self, layer: Layer, cycles: u64) {
        if cycles == 0 {
            return;
        }
        self.with_core_mut(|core| core.spans.attribute(layer, cycles));
    }

    /// Closes the open span with its total latency and folds it into
    /// the CPI stack (also records the latency histogram).
    #[inline]
    pub fn end_access(&self, total: u64) {
        self.with_core_mut(|core| {
            if core.spans.end(total).is_some() {
                core.registry.observe("machine.access_latency", total);
            }
        });
    }

    /// Counts retired instructions (the CPI-stack denominator).
    #[inline]
    pub fn instructions(&self, n: u64) {
        self.with_core_mut(|core| core.spans.add_instructions(n));
    }

    // --- streaming ----------------------------------------------------

    /// Installs an incremental JSONL writer on the journal: records
    /// evicted on ring wrap are flushed to it instead of dropped.
    /// No-op on `Noop`.
    pub fn set_journal_stream(&self, stream: Box<dyn std::io::Write + Send>) {
        self.with_core_mut(|core| core.journal.set_stream(stream));
    }

    /// Removes and returns the journal's incremental writer, flushing
    /// it first (`None` when `Noop` or no stream was installed).
    pub fn take_journal_stream(&self) -> Option<Box<dyn std::io::Write + Send>> {
        self.with_core_mut(|core| core.journal.take_stream()).flatten()
    }

    // --- exports ------------------------------------------------------

    /// All journaled events as JSONL (empty when `Noop`).
    pub fn journal_jsonl(&self) -> String {
        self.with_core(|core| core.journal.to_jsonl()).unwrap_or_default()
    }

    /// The newest `n` journaled events as JSONL (empty when `Noop`).
    pub fn tail_jsonl(&self, n: usize) -> String {
        self.with_core(|core| core.journal.tail_jsonl(n)).unwrap_or_default()
    }

    /// A copy of the aggregate CPI stack (None when `Noop`).
    pub fn cpi_stack(&self) -> Option<CpiStack> {
        self.with_core(|core| *core.cpi_stack())
    }

    /// A copy of the metrics registry (None when `Noop`).
    pub fn metrics(&self) -> Option<MetricsRegistry> {
        self.with_core(|core| core.registry().clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::HitLevel;

    #[test]
    fn noop_is_inert_and_free_of_side_effects() {
        let sink = TelemetrySink::noop();
        assert!(!sink.is_active());
        sink.set_now(100);
        assert_eq!(sink.now(), 0);
        let mut called = false;
        sink.emit(|| {
            called = true;
            Event::FaultInjected { site: "x" }
        });
        assert!(!called, "event constructor must not run on Noop");
        sink.add_counters([("c", 1)]);
        assert_eq!(sink.counter("c"), 0);
        assert_eq!(sink.journal_jsonl(), "");
        assert!(sink.cpi_stack().is_none());
    }

    #[test]
    fn clones_share_one_core() {
        let sink = TelemetrySink::active();
        let clone = sink.clone();
        sink.set_now(42);
        clone.emit(|| Event::TlbLookup { asid: 1, vpn: 2, level: HitLevel::L1, latency: 1 });
        clone.add_counters([("tlb.l1_hits", 1), ("tlb.l1_hits", 2)]);
        assert_eq!(sink.counter("tlb.l1_hits"), 3);
        let jsonl = sink.journal_jsonl();
        assert!(
            jsonl.contains("\"cycle\":42"),
            "clone saw the cycle set via the original: {jsonl}"
        );
    }

    #[test]
    fn span_flow_through_sink() {
        let sink = TelemetrySink::active();
        sink.set_now(10);
        sink.begin_access(true, 0x2000);
        sink.layer(Layer::Tlb, 1);
        sink.layer(Layer::Dram, 29);
        sink.end_access(35);
        let stack = sink.cpi_stack().expect("active");
        assert_eq!(stack.layer_cycles(Layer::Tlb), 1);
        assert_eq!(stack.layer_cycles(Layer::Dram), 29);
        assert_eq!(stack.layer_cycles(Layer::Other), 5);
        assert_eq!(stack.ops(), 1);
        let m = sink.metrics().expect("active");
        assert_eq!(m.histogram("machine.access_latency").map(|h| h.count()), Some(1));
    }
}
