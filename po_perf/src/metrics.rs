//! Metric names and units, summary statistics, and the result report.
//!
//! The tables here are the benchmark's contract: `BENCHMARK.json` at the
//! repository root lists exactly these names and units (a unit test
//! keeps the two in step), and every run prints every metric of its
//! kind — end-to-end without `--trace`, per-layer with it.

use crate::json;
use po_telemetry::Layer;

/// End-to-end metrics: `(name, unit)`. All but `ops_per_s` are better
/// lower. The three `sim_*`/`extra_*` metrics are simulated and exact.
pub const END_TO_END: [(&str, &str); 6] = [
    ("ops_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("sim_cycles", "cycles"),
    ("sim_cpi", "cycles/instr"),
    ("extra_memory_pct", "%"),
];

/// Stable names of the trace-op kinds, indexed by [`crate::compose::op_kind`].
pub const OP_KINDS: [&str; 15] = [
    "compute",
    "load",
    "store",
    "spawn",
    "map",
    "fork",
    "poke",
    "peek",
    "seed_line",
    "commit_page",
    "discard_page",
    "flush",
    "reclaim",
    "compact",
    "on_core",
];

/// Per-layer metrics other than the per-op-kind harness timings and the
/// CPI slices, which [`per_layer`] splices in.
const LAYER_HEAD: [(&str, &str); 13] = [
    ("workloads.tracegen_s", "s"),
    ("sparse.matrix_build_s", "s"),
    ("sim.machine_new_ms", "ms"),
    ("sim.load_ns", "ns"),
    ("sim.store_ns", "ns"),
    ("sim.compute_ns", "ns"),
    ("sim.fork_ms", "ms"),
    ("sim.flush_overlays_ms", "ms"),
    ("sim.fingerprint_ms", "ms"),
    ("sparse.time_overlay_ms", "ms"),
    ("sparse.time_csr_ms", "ms"),
    ("mc.run_interleaved_s", "s"),
    ("mc.quanta", "count"),
];

const LAYER_HARNESS: [(&str, &str); 4] = [
    ("harness.verify_invariants_us", "us"),
    ("harness.check_refinement_us", "us"),
    ("harness.check_all_ms", "ms"),
    ("harness.procs", "count"),
];

const LAYER_TAIL: [(&str, &str); 37] = [
    ("tlb.replay_ns", "ns"),
    ("tlb.replay_hit_rate", "ratio"),
    ("tlb.traced_hit_rate", "ratio"),
    ("cache.replay_ns", "ns"),
    ("cache.replay_hit_rate", "ratio"),
    ("cache.traced_hit_rate", "ratio"),
    ("omt_cache.replay_ns", "ns"),
    ("omt_cache.replay_hit_rate", "ratio"),
    ("omt_cache.traced_hit_rate", "ratio"),
    ("dram.replay_ns", "ns"),
    ("dram.replay_row_hit_rate", "ratio"),
    ("tlb.l1_hit_rate", "ratio"),
    ("tlb.misses", "count"),
    ("cache.l1_hit_rate", "ratio"),
    ("cache.l3_hit_rate", "ratio"),
    ("cache.misses", "count"),
    ("prefetch.issued", "count"),
    ("omt_cache.hit_rate", "ratio"),
    ("omt.walks", "count"),
    ("oms.allocations", "count"),
    ("oms.bytes_in_use", "bytes"),
    ("oms.fragmentation", "ratio"),
    ("dram.reads", "count"),
    ("dram.writes", "count"),
    ("dram.row_hit_rate", "ratio"),
    ("cow.pages_copied", "count"),
    ("overlay.overlaying_writes", "count"),
    ("overlay.promotions", "count"),
    ("overlay.reclaims", "count"),
    ("coh.obit_msgs", "count"),
    ("coh.invalidations", "count"),
    ("coh.stall_cycles", "cycles"),
    ("contention.stall_cycles", "cycles"),
    ("trace.overhead_pct", "%"),
    ("telemetry.overhead_pct", "%"),
    ("trace.timer_ns", "ns"),
    ("trace.events", "count"),
];

/// Every per-layer metric, `(name, unit)`, in report order.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let owned = |t: &[(&str, &'static str)]| -> Vec<(String, &'static str)> {
        t.iter().map(|&(n, u)| (n.to_string(), u)).collect()
    };
    let mut out = owned(&LAYER_HEAD);
    out.extend(OP_KINDS.iter().map(|k| (format!("harness.apply_us.{k}"), "us")));
    out.extend(owned(&LAYER_HARNESS));
    out.extend(owned(&LAYER_TAIL));
    out.extend(Layer::ALL.iter().map(|l| (format!("cpi.{}", l.as_str()), "cycles/instr")));
    out
}

/// The median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartiles by the "exclusive" method of Python's
/// `statistics.quantiles(values, n=4)`, so printed spreads match what a
/// script computes from the same samples. Fewer than two values give
/// the value itself for both.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let q = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (q(1), q(3))
}

/// One run's result: correctness tallies plus named metrics.
#[derive(Clone, Debug, Default)]
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)` in report order.
    pub metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    /// The one-line JSON result: keys `correct`, `attempted`, `failed`
    /// and `metrics`, each metric as `{"value": v, "unit": u}`.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json::quote(name),
                    json::number(*value),
                    json::quote(unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// Every metric as a `name value unit` line.
    pub fn lines(&self) -> Vec<String> {
        self.metrics.iter().map(|(n, v, u)| format!("{n} {v} {u}")).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use std::collections::BTreeSet;

    /// Whether `name` is a valid metric name: starts with a letter or digit,
    /// then at most 63 more letters, digits, `_`, `.` or `-`.
    fn valid_name(name: &str) -> bool {
        let mut chars = name.chars();
        chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.len() <= 64
            && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn every_metric_name_is_valid_and_unique() {
        let layer = per_layer();
        assert!(layer.len() <= 128, "{} per-layer metrics", layer.len());
        let mut seen = BTreeSet::new();
        for name in
            END_TO_END.iter().map(|(n, _)| n.to_string()).chain(layer.into_iter().map(|(n, _)| n))
        {
            assert!(valid_name(&name), "{name}");
            assert!(seen.insert(name.clone()), "{name} listed twice");
        }
        assert!(
            !valid_name("")
                && !valid_name("_x")
                && !valid_name("a b")
                && !valid_name(&"a".repeat(65))
        );
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        assert_eq!(median(&v), 5.5);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        assert_eq!(quartiles(&[4.0]), (4.0, 4.0));
    }

    #[test]
    fn report_json_round_trips() {
        let report = Report {
            correct: true,
            attempted: 1000,
            failed: 0,
            metrics: vec![
                ("ops_per_s".into(), 1.234_567_89e7, "1/s"),
                ("sim_cpi".into(), 0.1 + 0.2, "cycles/instr"),
            ],
        };
        let parsed = crate::json::parse(&report.to_json()).unwrap();
        let Json::Obj(top) = &parsed else { panic!("not an object") };
        assert_eq!(top.keys().collect::<Vec<_>>(), ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(parsed.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(parsed.get("attempted").and_then(Json::as_f64), Some(1000.0));
        let m = parsed.get("metrics").unwrap();
        for (name, value, unit) in &report.metrics {
            let entry = m.get(name).unwrap();
            assert_eq!(entry.get("value").and_then(Json::as_f64), Some(*value), "{name}");
            assert_eq!(entry.get("unit").and_then(Json::as_str), Some(*unit));
        }
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let doc = crate::json::parse(include_str!("../../BENCHMARK.json")).unwrap();
        let listed = |key: &str| -> Vec<(String, String)> {
            let Some(Json::Arr(items)) = doc.get(key) else { panic!("{key} missing") };
            items
                .iter()
                .map(|m| {
                    let name = m.get("name").and_then(Json::as_str).unwrap().to_string();
                    let unit = m.get("unit").and_then(Json::as_str).unwrap().to_string();
                    (name, unit)
                })
                .collect()
        };
        let ours = |v: Vec<(String, &str)>| -> Vec<(String, String)> {
            v.into_iter().map(|(n, u)| (n, u.to_string())).collect()
        };
        assert_eq!(
            listed("end_to_end"),
            ours(END_TO_END.iter().map(|&(n, u)| (n.to_string(), u)).collect())
        );
        assert_eq!(listed("per_layer"), ours(per_layer()));
        let Some(Json::Arr(workloads)) = doc.get("workloads") else { panic!("workloads missing") };
        let names: Vec<&str> = workloads.iter().filter_map(|w| w.get("name")?.as_str()).collect();
        let ours: Vec<&str> = crate::workload::Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(names, ours);
    }
}
