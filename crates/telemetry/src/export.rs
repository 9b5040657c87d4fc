//! Exporters: Chrome `trace_event` JSON and the human-readable run
//! report. (JSONL export lives on [`Journal`](crate::journal::Journal)
//! itself since it is also the divergence-dump format.)
//!
//! Chrome traces use the *JSON array format* of the Trace Event
//! specification: a top-level object with a `traceEvents` array of
//! complete (`"ph":"X"`), instant (`"ph":"i"`) and metadata (`"ph":"M"`)
//! events. Timestamps are simulated cycles reported as microseconds
//! (1 cycle = 1 µs), so a 2.67 GHz run renders ~2670× slower than
//! "real time" — irrelevant for inspection, which only needs relative
//! structure. Load the file in `chrome://tracing` or Perfetto.

use crate::journal::Event;
use crate::sink::{TelemetryCore, TelemetrySink};
use crate::span::Layer;
use std::fmt::Write as _;

/// Track (tid) layout of the exported trace.
const TRACKS: [(u64, &str); 8] = [
    (0, "access spans"),
    (1, "tlb"),
    (2, "cache"),
    (3, "omt"),
    (4, "dram"),
    (5, "overlay"),
    (6, "faults"),
    (7, "coherence"),
];

fn track_of(event: &Event) -> u64 {
    match event {
        Event::TlbLookup { .. } => 1,
        Event::CacheAccess { .. } => 2,
        Event::OBitCheck { .. } | Event::OmtWalk { .. } | Event::OmsResolve { .. } => 3,
        Event::DramAccess { .. } => 4,
        Event::OverlayingWrite { .. } | Event::Reclaim { .. } | Event::Compaction { .. } => 5,
        Event::FaultInjected { .. } => 6,
        Event::CohReadExclusive { .. }
        | Event::CohObitUpdate { .. }
        | Event::CohPromote { .. }
        | Event::CohShootdownBegin { .. }
        | Event::CohShootdownAck { .. }
        | Event::CohShootdownEnd { .. }
        | Event::CohAccess { .. }
        | Event::CohFill { .. } => 7,
    }
}

/// Serializes the core's journal and spans as a Chrome `trace_event`
/// JSON document.
pub fn chrome_trace(core: &TelemetryCore) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    let mut first = true;
    let mut push = |s: &str, out: &mut String| {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(s);
    };

    push(
        "{\"ph\":\"M\",\"pid\":0,\"tid\":0,\"name\":\"process_name\",\"args\":{\"name\":\"po-sim\"}}",
        &mut out,
    );
    for (tid, name) in TRACKS {
        push(
            &format!(
                "{{\"ph\":\"M\",\"pid\":0,\"tid\":{tid},\"name\":\"thread_name\",\"args\":{{\"name\":\"{name}\"}}}}"
            ),
            &mut out,
        );
    }

    for span in core.spans() {
        let mut args = String::new();
        for layer in Layer::ALL {
            let c = span.layer(layer);
            if c > 0 {
                let _ = write!(args, ",\"{}\":{}", layer.as_str(), c);
            }
        }
        push(
            &format!(
                "{{\"ph\":\"X\",\"pid\":0,\"tid\":0,\"ts\":{},\"dur\":{},\"name\":\"{}\",\"cat\":\"access\",\"args\":{{\"va\":{}{args}}}}}",
                span.start,
                span.total.max(1),
                if span.write { "store" } else { "load" },
                span.va
            ),
            &mut out,
        );
    }

    for rec in core.journal().records() {
        let tid = track_of(&rec.event);
        let name = rec.event.kind();
        match rec.event.duration() {
            Some(dur) => push(
                &format!(
                    "{{\"ph\":\"X\",\"pid\":0,\"tid\":{tid},\"ts\":{},\"dur\":{},\"name\":\"{name}\",\"cat\":\"event\",\"args\":{{\"seq\":{}}}}}",
                    rec.cycle,
                    dur.max(1),
                    rec.seq
                ),
                &mut out,
            ),
            None => push(
                &format!(
                    "{{\"ph\":\"i\",\"pid\":0,\"tid\":{tid},\"ts\":{},\"s\":\"t\",\"name\":\"{name}\",\"cat\":\"event\",\"args\":{{\"seq\":{}}}}}",
                    rec.cycle, rec.seq
                ),
                &mut out,
            ),
        }
    }

    out.push_str("]}");
    out
}

/// Renders the human-readable run report: CPI stack, metrics registry,
/// and journal summary.
pub fn run_report(title: &str, core: &TelemetryCore) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "=== {title} ===");
    let stack = core.cpi_stack();
    if stack.ops() > 0 || stack.total_cycles() > 0 {
        let _ = writeln!(s, "\nCPI stack (per-layer cycle attribution):");
        s.push_str(&stack.render_text());
    }
    let registry = core.registry();
    if !registry.is_empty() {
        let _ = writeln!(s, "\nmetrics:");
        s.push_str(&registry.render_text());
    }
    let j = core.journal();
    let _ = writeln!(
        s,
        "\nevent journal: {} emitted, {} held (capacity {}), {} dropped",
        j.total_emitted(),
        j.len(),
        j.capacity(),
        j.dropped()
    );
    s
}

impl TelemetrySink {
    /// Chrome `trace_event` JSON of everything recorded (empty document
    /// when `Noop`).
    pub fn chrome_trace_json(&self) -> String {
        self.with_core(chrome_trace)
            .unwrap_or_else(|| "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[]}".to_string())
    }

    /// The human-readable run report.
    pub fn run_report(&self, title: &str) -> String {
        self.with_core(|core| run_report(title, core))
            .unwrap_or_else(|| format!("=== {title} ===\n(telemetry disabled)\n"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::HitLevel;

    fn populated_sink() -> TelemetrySink {
        let sink = TelemetrySink::active();
        sink.set_now(100);
        sink.begin_access(false, 0x1000);
        sink.layer(Layer::Tlb, 1);
        sink.emit(|| Event::TlbLookup { asid: 1, vpn: 1, level: HitLevel::L1, latency: 1 });
        sink.layer(Layer::Cache, 9);
        sink.emit(|| Event::CacheAccess {
            addr: 0x1000,
            write: false,
            level: HitLevel::Miss,
            latency: 9,
        });
        sink.emit(|| Event::OverlayingWrite { opn: 7, line: 3 });
        sink.end_access(40);
        sink.add_counters([("cache.accesses", 1)]);
        sink.instructions(1);
        sink
    }

    #[test]
    fn chrome_trace_is_balanced_json_with_metadata() {
        let trace = populated_sink().chrome_trace_json();
        assert!(trace.starts_with('{') && trace.ends_with('}'));
        assert_eq!(
            trace.matches('{').count(),
            trace.matches('}').count(),
            "balanced braces: {trace}"
        );
        assert!(trace.contains("\"traceEvents\":["));
        assert!(trace.contains("\"thread_name\""));
        assert!(trace.contains("\"ph\":\"X\""));
        assert!(trace.contains("\"ph\":\"i\""), "instant event for OverlayingWrite");
        assert!(trace.contains("\"name\":\"load\""));
    }

    #[test]
    fn noop_trace_is_valid_empty_document() {
        let trace = TelemetrySink::noop().chrome_trace_json();
        assert_eq!(trace, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[]}");
    }

    #[test]
    fn run_report_mentions_everything() {
        let report = populated_sink().run_report("unit test");
        assert!(report.contains("=== unit test ==="));
        assert!(report.contains("CPI stack"));
        assert!(report.contains("tlb"));
        assert!(report.contains("cache.accesses"));
        assert!(report.contains("event journal: 3 emitted"));
    }

    #[test]
    fn deterministic_export_bytes() {
        let a = populated_sink();
        let b = populated_sink();
        assert_eq!(a.chrome_trace_json(), b.chrome_trace_json());
        assert_eq!(a.journal_jsonl(), b.journal_jsonl());
        assert_eq!(a.run_report("t"), b.run_report("t"));
    }
}
