//! Acceptance tests for the po-telemetry subsystem: determinism of the
//! exported artifacts, zero observable effect on simulation state, and
//! registry counters that are the components' own statistics, published
//! when a telemetry-armed run ends.

use page_overlays::sim::{
    generate_mc_ops, generate_ops, run_fork_experiment_instrumented, run_job, run_trace, Machine,
    SimHarness, SystemConfig, WorkloadJob,
};
use page_overlays::sparse::{gen as matrix_gen, OverlayMatrix, TimedSpmv};
use page_overlays::telemetry::{Layer, TelemetrySink};
use page_overlays::workloads::spec_suite;

/// Drives the §5.1 fork scenario on a machine the test keeps hold of.
fn drive_fork(sink: TelemetrySink) -> Machine {
    let spec = spec_suite().into_iter().find(|s| s.name == "mcf").expect("mcf in suite");
    let warmup = spec.generate_warmup(20_000, 7);
    let post = spec.generate_post_fork(30_000, 7);
    let mut machine = Machine::new(SystemConfig::table2_overlay()).expect("machine");
    machine.install_telemetry(sink);
    let parent = machine.spawn_process().expect("spawn");
    machine.map_range(parent, spec.base_vpn(), spec.mapped_pages(30_000)).expect("map");
    run_trace(&mut machine, parent, &warmup).expect("warmup");
    machine.fork(parent).expect("fork");
    run_trace(&mut machine, parent, &post).expect("post");
    machine.flush_overlays().expect("flush");
    machine
}

#[test]
fn counters_match_stats_over_fork_workload() {
    let spec = spec_suite().into_iter().find(|s| s.name == "mcf").expect("mcf in suite");
    let job = WorkloadJob::fork(
        0,
        "fork/mcf",
        SystemConfig::table2_overlay(),
        spec.base_vpn(),
        spec.mapped_pages(30_000),
        spec.generate_warmup(20_000, 7),
        spec.generate_post_fork(30_000, 7),
    )
    .with_telemetry(64);
    let run = run_job(job).expect("fork job");
    let result = run.outcome.as_fork().expect("fork outcome");
    let sink = &run.telemetry;
    // The runner publishes the machine's stats when the job ends.
    assert!(sink.counter("tlb.l1_hits") > 0, "the fork job must publish its TLB stats");
    assert_eq!(sink.counter("sim.overlaying_writes"), result.overlaying_writes);
    assert_eq!(sink.counter("sim.pages_copied"), result.pages_copied);
    assert!(sink.counter("overlay.overlaying_writes") > 0, "OoW fork must overlay");
}

#[test]
fn counters_match_stats_over_fuzz_workload() {
    let config = SystemConfig { cores: 2, ..SystemConfig::table2_overlay() };
    for seed in [3, 17] {
        let ops = generate_mc_ops(seed, 400, 2);
        let job = WorkloadJob::harness_ops(0, "fuzz", config.clone(), ops.clone(), false)
            .with_telemetry(64);
        let run = run_job(job).expect("harness job");
        assert_eq!(run.outcome.as_harness(), Some(&Ok(())), "seed {seed}");
        // The same stream on a telemetry-off harness: the published
        // counters are that machine's stats, TLBs summed over cores.
        let mut h = SimHarness::new(config.clone()).expect("harness");
        for op in &ops {
            h.apply(op).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        }
        let m = &h.machine;
        let tlb = |f: fn(&page_overlays::tlb::TlbStats) -> u64| {
            (0..m.cores()).map(|c| f(m.tlb_of(c).stats())).sum::<u64>()
        };
        let expected = [
            ("tlb.l1_hits", tlb(|s| s.l1_hits.get())),
            ("tlb.l2_hits", tlb(|s| s.l2_hits.get())),
            ("tlb.misses", tlb(|s| s.misses.get())),
            ("cache.accesses", m.caches().stats().accesses.get()),
            ("dram.reads", m.dram().stats().reads.get()),
            ("omt_cache.hits", m.overlay().omt_cache().stats().hits.get()),
            ("overlay.overlaying_writes", m.overlay().stats().overlaying_writes.get()),
            ("oms.allocations", m.overlay().store().stats().allocations.get()),
            ("os.frames_allocated", m.os().stats().frames_allocated.get()),
        ];
        for (name, value) in expected {
            assert_eq!(run.telemetry.counter(name), value, "seed {seed}: {name}");
        }
    }
}

#[test]
fn counters_are_internally_consistent_over_spmv() {
    let triplets = matrix_gen::clustered(40, 512, 20_000, 8, true, 3);
    let ovl = OverlayMatrix::from_triplets(&triplets);
    let sink = TelemetrySink::active();
    let timed = TimedSpmv::new(SystemConfig::table2_overlay()).with_telemetry(sink.clone());
    timed.time_overlay(&ovl).expect("overlay SpMV");

    // Every timed memory op runs exactly one TLB lookup and (because the
    // SpMV trace never triggers overlay/CoW side fetches) one cache
    // access; the span tracker saw the same ops.
    let stack = sink.cpi_stack().expect("active sink");
    let tlb =
        sink.counter("tlb.l1_hits") + sink.counter("tlb.l2_hits") + sink.counter("tlb.misses");
    assert_eq!(tlb, stack.ops(), "one TLB lookup per access span");
    assert_eq!(sink.counter("cache.accesses"), stack.ops(), "one cache access per access span");
    // Reads through the overlay address space resolve at the controller.
    let omt = sink.counter("omt_cache.hits") + sink.counter("omt_cache.misses");
    assert!(omt > 0, "overlay reads must consult the OMT cache");
    assert!(sink.counter("oms.allocations") > 0, "seeded overlays allocate OMS segments");
}

#[test]
fn journal_is_byte_identical_across_identical_seeded_runs() {
    let run = || {
        let sink = TelemetrySink::active();
        let mut h = SimHarness::new(SystemConfig::table2_overlay()).expect("harness");
        h.machine.install_telemetry(sink.clone());
        for op in &generate_ops(11, 300) {
            h.apply(op).expect("op");
        }
        (sink.journal_jsonl(), sink.chrome_trace_json(), sink.run_report("t"))
    };
    let (j1, c1, r1) = run();
    let (j2, c2, r2) = run();
    assert_eq!(j1, j2, "JSONL journals must be byte-identical");
    assert_eq!(c1, c2, "Chrome traces must be byte-identical");
    assert_eq!(r1, r2, "run reports must be byte-identical");
    assert!(j1.lines().count() > 100, "journal must actually contain events");
}

#[test]
fn fork_experiment_journal_is_deterministic() {
    let run = || {
        let spec = spec_suite().into_iter().find(|s| s.name == "Gems").expect("Gems in suite");
        let sink = TelemetrySink::with_capacity(16_384, 16_384);
        run_fork_experiment_instrumented(
            SystemConfig::table2_overlay(),
            spec.base_vpn(),
            spec.mapped_pages(20_000),
            &spec.generate_warmup(10_000, 5),
            &spec.generate_post_fork(20_000, 5),
            sink.clone(),
        )
        .expect("fork experiment");
        sink.journal_jsonl()
    };
    assert_eq!(run(), run());
}

#[test]
fn telemetry_on_and_off_reach_identical_machine_snapshots() {
    let ops = generate_ops(23, 350);
    let mut on = SimHarness::new(SystemConfig::table2_overlay()).expect("harness");
    on.enable_telemetry(256);
    let mut off = SimHarness::new(SystemConfig::table2_overlay()).expect("harness");
    for (i, op) in ops.iter().enumerate() {
        on.apply(op).expect("telemetry-on op");
        off.apply(op).expect("telemetry-off op");
        // Lockstep: state must agree at every step, not just at the end.
        if i % 50 == 0 || i + 1 == ops.len() {
            assert_eq!(
                on.machine.save_snapshot(),
                off.machine.save_snapshot(),
                "telemetry must not perturb simulation state (diverged by op {i})"
            );
        }
    }
}

#[test]
fn chrome_trace_is_format_valid_for_fork_workload() {
    let sink = TelemetrySink::with_capacity(8192, 8192);
    drive_fork(sink.clone());
    let trace = sink.chrome_trace_json();
    assert!(trace.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
    assert!(trace.ends_with("]}"));
    assert_eq!(trace.matches('{').count(), trace.matches('}').count(), "balanced braces");
    assert_eq!(trace.matches('[').count(), trace.matches(']').count(), "balanced brackets");
    for needle in ["\"ph\":\"M\"", "\"ph\":\"X\"", "\"thread_name\"", "\"name\":\"store\""] {
        assert!(trace.contains(needle), "trace must contain {needle}");
    }
    // The report decomposes accesses into per-layer contributions.
    let stack = sink.cpi_stack().expect("active sink");
    assert!(stack.layer_cycles(Layer::Tlb) > 0);
    assert!(stack.layer_cycles(Layer::Cache) > 0);
    assert!(stack.layer_cycles(Layer::Dram) > 0);
}
