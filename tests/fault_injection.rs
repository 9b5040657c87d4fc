//! End-to-end fault injection (DESIGN.md "Fault model & degradation").
//!
//! The acceptance bar for graceful degradation: a fork/overlay workload
//! in which the OS refuses OMS grow chunks with ≥10 % probability must
//! run to completion with **zero data divergence** from the no-fault
//! run — the machine collapses cold overlays back into physical pages
//! instead of failing — while `OverlayStats::reclaims` shows the
//! pressure path actually ran.

use page_overlays::overlay::OverlayStats;
use page_overlays::sim::{run_crash_convergence, Machine, SimHarness, SystemConfig, TraceOp};
use page_overlays::telemetry::TelemetrySink;
use page_overlays::types::{AccessKind, Asid, FaultPlan, FaultSite, VirtAddr, Vpn};

const BASE_VPN: u64 = 0x100;
const PAGES: u64 = 24;
const PAGE: u64 = 4096;
const LINE: u64 = 64;

fn va(page: u64, line: u64) -> VirtAddr {
    VirtAddr::new((BASE_VPN + page) * PAGE + line * LINE)
}

/// Runs the workload: init 24 pages, fork, then the parent diverges on
/// a rolling subset of lines across several flush rounds (each flush
/// pushes dirty overlay lines into the OMS, which is where grow chunks
/// get requested — and, under the plan, refused). Returns the final
/// logical bytes of both address spaces plus the overlay stats.
fn run(plan: Option<FaultPlan>) -> (Vec<u8>, Vec<u8>, OverlayStats) {
    let mut config = SystemConfig::table2_overlay();
    // One-frame grow chunks: every ~4 KB of overlay growth asks the OS
    // for memory, so a probabilistic refusal actually gets queried.
    config.overlay.oms_chunk_frames = 1;
    let mut m = Machine::new(config).unwrap();
    if let Some(p) = plan {
        m.install_fault_plan(p);
    }
    let parent = m.spawn_process().unwrap();
    m.map_range(parent, Vpn::new(BASE_VPN), PAGES).unwrap();
    for page in 0..PAGES {
        for line in 0..64 {
            let v = (page * 7 + line * 13) as u8;
            m.poke(parent, va(page, line), v).unwrap();
        }
    }
    let child = m.fork(parent).unwrap();

    // Divergence in rounds: every round touches every page on a
    // different line window, then flushes, so earlier rounds' segments
    // sit cold in the OMS when later rounds hit refused grants.
    let mut now = 0;
    for round in 0..6u64 {
        for page in 0..PAGES {
            for i in 0..8u64 {
                let line = (round * 8 + i) % 64;
                // A few timed stores keep the cache/writeback eviction
                // path (and its reclaim-on-pressure handling) exercised.
                // They run first: the timed path pulls the line into the
                // cache under its overlay tag, so the poke below is a
                // plain update of an existing overlay line.
                if i == 0 {
                    now += m.access_at(now, parent, va(page, line), AccessKind::Write).unwrap();
                }
                m.poke(parent, va(page, line), (0x80 + round * 16 + i) as u8).unwrap();
            }
        }
        m.flush_overlays().unwrap();
        m.verify_invariants().unwrap();
    }

    let dump = |m: &Machine, asid: Asid| -> Vec<u8> {
        let mut out = Vec::with_capacity((PAGES * PAGE) as usize);
        for page in 0..PAGES {
            for byte in 0..PAGE {
                let addr = VirtAddr::new((BASE_VPN + page) * PAGE + byte);
                out.push(m.peek(asid, addr).unwrap());
            }
        }
        out
    };
    let p = dump(&m, parent);
    let c = dump(&m, child);
    (p, c, m.overlay_stats())
}

#[test]
fn grow_refusals_reclaim_instead_of_diverging() {
    let (p0, c0, base_stats) = run(None);
    let plan = FaultPlan::new(0xfa117).with_probability(FaultSite::OmsGrowRefused, 0.25);
    let (p1, c1, stats) = run(Some(plan));

    assert_eq!(p0, p1, "parent bytes diverged under injected grow refusals");
    assert_eq!(c0, c1, "child bytes diverged under injected grow refusals");
    assert!(
        stats.reclaims.get() > 0,
        "refused grants never drove a reclaim: injected={}, retries={}",
        stats.injected_faults.get(),
        stats.alloc_retries.get()
    );
    assert!(stats.reclaim_freed_bytes.get() > 0);
    assert!(stats.alloc_retries.get() > 0);
    assert!(stats.injected_faults.get() > 0, "plan installed but nothing fired");
    // The no-fault run pays nothing for the machinery.
    assert_eq!(base_stats.injected_faults.get(), 0);
    assert_eq!(base_stats.reclaims.get(), 0);
}

#[test]
fn mixed_fault_soup_preserves_isolation_and_invariants() {
    // Every site at once, low probability: transient DRAM retries and
    // OMT-cache scrubs are latency-only, allocation-class faults are
    // absorbed by reclaim — logical contents must still match the
    // clean run bit for bit.
    let plan = FaultPlan::new(42)
        .with_probability(FaultSite::OmsGrowRefused, 0.15)
        .with_probability(FaultSite::FrameAllocExhausted, 0.02)
        .with_probability(FaultSite::OmtCacheCorruption, 0.05)
        .with_probability(FaultSite::DramReadError, 0.05)
        .with_probability(FaultSite::TlbShootdownTimeout, 0.10);
    let (p0, c0, _) = run(None);
    let (p1, c1, stats) = run(Some(plan));
    assert_eq!(p0, p1);
    assert_eq!(c0, c1);
    assert!(stats.injected_faults.get() > 0);
}

#[test]
fn relocation_failure_aborts_compaction_cleanly_and_retry_succeeds() {
    // Fragment the store so a compaction pass has real work: one-line
    // overlays on 8 pages land 8 B256 segments in flush (VPN) order,
    // then committing the first 4 frees the *low* slots, leaving the
    // high segments as improving moves.
    let mut config = SystemConfig::table2_overlay();
    config.overlay.oms_chunk_frames = 1;
    let mut m = Machine::new(config).unwrap();
    let parent = m.spawn_process().unwrap();
    m.map_range(parent, Vpn::new(BASE_VPN), 8).unwrap();
    let _child = m.fork(parent).unwrap();
    for page in 0..8 {
        m.poke(parent, va(page, 0), 0xC0 ^ page as u8).unwrap();
    }
    m.flush_overlays().unwrap();
    for page in 0..4 {
        m.commit_overlay(parent, Vpn::new(BASE_VPN + page)).unwrap();
    }

    // The very first relocation copy fails: the pass must abort
    // gracefully — destination released, nothing moved, store sound.
    m.install_fault_plan(FaultPlan::new(7).at_queries(FaultSite::CompactionRelocationFailed, [0]));
    let aborted = m.compact_overlay_memory().unwrap();
    assert!(aborted.aborted, "injected copy failure did not abort the pass");
    assert_eq!(aborted.moves, 0, "moves landed before the first (failed) relocation");
    m.verify_invariants().unwrap();

    // The fault was one-shot; the retry must relocate for real.
    let retried = m.compact_overlay_memory().unwrap();
    assert!(!retried.aborted);
    assert!(retried.moves > 0, "nothing moved on retry despite freed low slots");
    m.verify_invariants().unwrap();

    // Overlay contents survived the failed pass and the successful one.
    for page in 0..8 {
        assert_eq!(m.peek(parent, va(page, 0)).unwrap(), 0xC0 ^ page as u8);
    }
}

#[test]
fn scheduled_faults_fire_exactly_once() {
    // A schedule pinned to one specific grow query (the 4th — by then
    // earlier grants have stocked the OMS, so reclaim has something to
    // collapse; refusing query 0 would correctly surface OutOfMemory
    // since an empty store has nothing to give back). Deterministic
    // regression anchor for the retry loop.
    let plan = FaultPlan::new(1).at_queries(FaultSite::OmsGrowRefused, [3]);
    let (p1, c1, stats) = run(Some(plan));
    let (p0, c0, _) = run(None);
    assert_eq!(p0, p1);
    assert_eq!(c0, c1);
    assert_eq!(stats.injected_faults.get(), 1);
}

/// A harness stream that reaches every fault site: backed pages (frame
/// allocation, DRAM reads), one-line overlays on eight forked pages
/// flushed into the OMS (grow grant, segment allocation), the low four
/// committed so compaction has segments to move down, a timed load of a
/// flushed overlay line (OMT-cache lookup), and a timed store to every
/// line of one page (core promotion and its shootdown).
fn every_site_stream() -> Vec<TraceOp> {
    let mut ops = vec![TraceOp::Spawn, TraceOp::Map { proc_sel: 0, start: BASE_VPN, count: 8 }];
    ops.extend((0..8).map(|page| TraceOp::Store(va(page, 0))));
    ops.push(TraceOp::Fork { proc_sel: 0 });
    ops.extend((0..8).map(|page| TraceOp::SeedLine {
        proc_sel: 0,
        vpn: BASE_VPN + page,
        line: 1,
        value: 0xA0 + page as u8,
    }));
    ops.push(TraceOp::Flush);
    ops.extend((0..4).map(|page| TraceOp::CommitPage { proc_sel: 0, vpn: BASE_VPN + page }));
    ops.push(TraceOp::Compact);
    ops.push(TraceOp::Load(va(6, 1)));
    ops.extend((0..64).map(|line| TraceOp::Store(va(7, line))));
    ops
}

/// Every fault site is wired into the machine. Armed alone at its first
/// query, each site fires exactly once. Each site but the crash point
/// then journals one `FaultInjected` event under its name, which shows
/// that the component firing it holds the sink
/// `Machine::install_telemetry` installed. The crash point belongs to no
/// component and has no event; the crash-convergence runner, which owns
/// that site, must see it fire.
#[test]
fn every_fault_site_fires_once_and_journals_its_name() {
    let config = SystemConfig::table2_overlay();
    let ops = every_site_stream();
    for site in FaultSite::ALL {
        let name = site.name();
        if site == FaultSite::CrashPoint {
            let fired = run_crash_convergence(&config, &ops, &FaultPlan::new(1), 0, 4)
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(fired, "{name}: armed at query 0 but never fired");
            continue;
        }
        let plan = FaultPlan::new(1).at_queries(site, [0]);
        let mut h = SimHarness::with_fault_plan(config.clone(), plan).expect("harness");
        let sink = TelemetrySink::with_capacity(1 << 16, 0);
        h.machine.install_telemetry(sink.clone());
        for op in &ops {
            h.apply(op).unwrap_or_else(|e| panic!("{name}: {e}"));
        }
        let injected = h.machine.overlay_stats().injected_faults.get();
        assert_eq!(injected, 1, "{name}: armed at query 0, injected {injected} times");
        let journal = sink.journal_jsonl();
        let events: Vec<&str> =
            journal.lines().filter(|l| l.contains("\"kind\":\"FaultInjected\"")).collect();
        let expected = format!("\"kind\":\"FaultInjected\",\"site\":\"{name}\"");
        assert!(
            events.len() == 1 && events[0].contains(&expected),
            "{name}: fired once but journalled {events:?} (no emit at the site, or no sink installed)"
        );
    }
}
