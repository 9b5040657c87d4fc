//! `seg` parity differential tests (DESIGN.md §17): the same op stream
//! driven under `backend: Overlay` (the paper's design) and under the
//! `backend: Seg` config value (segmentation-over-paging: quarter-cost
//! walks, overlays off) must produce identical *functional* outcomes —
//! every load, store, and fork-visibility decision — while timing and
//! stats are free to differ (that difference is the comparison's
//! signal).
//!
//! Both settings share one translation structure, so what this pins is
//! the config plumbing: `seg` must really switch overlays off (every
//! divergence becomes a page-granular copy) without changing a byte of
//! program-visible memory.
//!
//! The shared corpus is [`generate_ops`] minus the two op kinds whose
//! functional meaning depends on overlays by design:
//!
//! * `SeedLine` force-populates an overlay; the harness only issues it
//!   on pages reading through an overlay (`overlay_enabled`), so under
//!   `seg` it is skipped — dropping it keeps the two byte histories
//!   aligned.
//! * `DiscardPage` reverts a page's divergence under overlay semantics
//!   but has nothing to revert once a store privatized the page via
//!   classic CoW — the one deliberate semantic difference.
//!
//! Ops are generated once and filtered; subsequences of a generated
//! stream are valid streams, so the filtered corpus needs no repair.

use page_overlays::sim::{generate_ops, BackendKind, SimHarness, SystemConfig, TraceOp};
use page_overlays::types::geometry::{LINES_PER_PAGE, LINE_SIZE, PAGE_SIZE};
use page_overlays::types::VirtAddr;

/// The shared corpus for one seed.
fn parity_ops(seed: u64, count: usize) -> Vec<TraceOp> {
    generate_ops(seed, count)
        .into_iter()
        .filter(|op| !matches!(op, TraceOp::SeedLine { .. } | TraceOp::DiscardPage { .. }))
        .collect()
}

fn config_for(backend: BackendKind) -> SystemConfig {
    SystemConfig { backend, ..SystemConfig::table2_overlay() }
}

/// Drives `ops` through a fresh harness on `backend`, failing the test
/// on any internal divergence (byte oracle, invariants, refinement).
fn run_on(backend: BackendKind, ops: &[TraceOp], seed: u64) -> SimHarness {
    let mut h = SimHarness::new(config_for(backend)).expect("harness construction");
    for op in ops {
        h.apply(op).unwrap_or_else(|e| panic!("seed {seed} on {backend}: {op:?} failed: {e}"));
    }
    h
}

/// Cross-machine functional comparison: identical process lists,
/// identical mapped-page sets, identical memory contents (one probe
/// byte per line of every mapped page, covering fork visibility).
fn assert_functionally_equal(a: &SimHarness, b: &SimHarness, seed: u64) {
    assert_eq!(a.procs, b.procs, "seed {seed}: process lists diverged");
    for &asid in &a.procs {
        let pages_a = a.machine.os().pages(asid).expect("enumerate (overlay)");
        let pages_b = b.machine.os().pages(asid).expect("enumerate (seg)");
        let vpns_a: Vec<_> = pages_a.map(|(vpn, _)| vpn).collect();
        let vpns_b: Vec<_> = pages_b.map(|(vpn, _)| vpn).collect();
        assert_eq!(vpns_a, vpns_b, "seed {seed}: mapped pages diverged for asid {}", asid.raw());
        for vpn in vpns_a {
            for line in 0..LINES_PER_PAGE {
                let va = VirtAddr::new(vpn.raw() * PAGE_SIZE as u64 + (line * LINE_SIZE) as u64);
                let byte_a = a.machine.peek(asid, va);
                let byte_b = b.machine.peek(asid, va);
                assert_eq!(
                    byte_a,
                    byte_b,
                    "seed {seed}: asid {} va {:#x} diverged between overlay and seg",
                    asid.raw(),
                    va.raw()
                );
            }
        }
    }
}

/// 100 fixed seeds: loads, stores, forks, commits, flushes, reclaims,
/// and compactions behave identically under both settings.
#[test]
fn backends_agree_functionally_over_100_seeds() {
    let mut overlay_diverged_somewhere = false;
    for seed in 0..100u64 {
        let ops = parity_ops(seed, 150);
        let a = run_on(BackendKind::Overlay, &ops, seed);
        let b = run_on(BackendKind::Seg, &ops, seed);
        assert_functionally_equal(&a, &b, seed);
        // `seg` never builds overlays; the paper's design may.
        assert_eq!(b.machine.overlay().overlay_count(), 0, "seed {seed}: seg grew an overlay");
        overlay_diverged_somewhere |= a.machine.overlay().overlay_count() > 0
            || a.machine.snapshot().overlaying_writes.get() > 0;
    }
    // The corpus must actually exercise the overlay machinery on the
    // overlay side, or the parity above is vacuous.
    assert!(
        overlay_diverged_somewhere,
        "no seed drove the overlay setting through an overlaying write"
    );
}

/// Timing is allowed to differ — and does: `seg`'s walk is a quarter
/// of the radix walk by construction, so a TLB-miss-heavy stream
/// completes in fewer cycles under it. This pins that the comparison
/// rows in the bench exports measure a real difference.
#[test]
fn backends_differ_in_timing_not_function() {
    let seed = 7u64;
    let ops = parity_ops(seed, 300);
    let a = run_on(BackendKind::Overlay, &ops, seed);
    let b = run_on(BackendKind::Seg, &ops, seed);
    assert_functionally_equal(&a, &b, seed);
    let cycles_a = a.machine.snapshot().cycles;
    let cycles_b = b.machine.snapshot().cycles;
    assert_ne!(cycles_a, cycles_b, "identical cycle counts would make the seg comparison moot");
}
