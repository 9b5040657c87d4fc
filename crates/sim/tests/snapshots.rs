//! Snapshot bytes as a fixed contract.
//!
//! The golden test pins `fingerprint64_bytes(save_snapshot())` for small
//! deterministic machines: any change to the snapshot layout, to
//! `SystemConfig`'s `Debug` text (hashed into the header), or to the
//! simulated state those machines reach shows up here before it shows
//! up as failed ops in the `po_perf` benchmark's fingerprint check.
//!
//! The round-trip test restores each of those snapshots into a fresh
//! machine, requires the re-save to be byte-identical, and then drives
//! both machines on in lockstep: every component codec (TLBs, caches,
//! DRAM, core models, multi-core contention, stats) must restore
//! exactly the state it saved, or the bytes or the continued run
//! diverge.
//!
//! The corruption test truncates and bit-flips those snapshots and
//! asserts that restoring them either fails cleanly or succeeds — it
//! never panics.

use po_sim::{BackendKind, Machine, SystemConfig, TraceOp};
use po_types::geometry::{LINE_SIZE, PAGE_SIZE};
use po_types::{fingerprint64_bytes, Asid, LineData, VirtAddr, Vpn};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::panic::{catch_unwind, AssertUnwindSafe};

fn va(vpn: u64, line: u64) -> VirtAddr {
    VirtAddr::new(vpn * PAGE_SIZE as u64 + line * LINE_SIZE as u64)
}

/// The four configurations under test, by name.
fn configs() -> Vec<(&'static str, SystemConfig)> {
    vec![
        ("table2", SystemConfig::table2()),
        ("table2_overlay", SystemConfig::table2_overlay()),
        ("seg", SystemConfig { backend: BackendKind::Seg, ..SystemConfig::table2_overlay() }),
        ("cores4", SystemConfig { cores: 4, ..SystemConfig::table2_overlay() }),
    ]
}

/// Spawn, map, poke, a few timed accesses, fork, poke both sides, timed
/// accesses in the child, then a seeded shared-zero range: enough to
/// exercise page tables, overlays (where enabled), TLB walks, caches,
/// DRAM and the statistics. Returns the machine and the parent process.
fn build(config: SystemConfig) -> (Machine, Asid) {
    let mut m = Machine::new(config).unwrap();
    let parent = m.spawn_process().unwrap();
    m.map_range(parent, Vpn::new(0x40), 4).unwrap();
    for (i, vpn) in (0x40..0x44u64).enumerate() {
        m.poke(parent, va(vpn, i as u64), 0x10 + i as u8).unwrap();
    }
    m.execute(parent, &TraceOp::Store(va(0x41, 7))).unwrap();
    m.execute(parent, &TraceOp::Load(va(0x42, 2))).unwrap();
    let child = m.fork(parent).unwrap();
    m.poke(child, va(0x40, 3), 0xAB).unwrap();
    m.poke(parent, va(0x43, 9), 0xCD).unwrap();
    m.execute(child, &TraceOp::Store(va(0x42, 5))).unwrap();
    m.execute(child, &TraceOp::Load(va(0x41, 7))).unwrap();
    // A shared zero range with one seeded line: overlay-capable configs
    // enable overlays on it even in CoW mode (`table2`); `seg` copies.
    m.map_shared_zero_range(parent, Vpn::new(0x80), 2).unwrap();
    m.seed_overlay_line(parent, Vpn::new(0x80), 5, LineData::splat(0x5A)).unwrap();
    m.execute(parent, &TraceOp::Load(va(0x80, 5))).unwrap();
    (m, parent)
}

/// One step of the work driven after a restore: timed stores and loads
/// spread over every core (per-core TLBs and core models, and contention
/// on `cores4`), a second fork, and an overlay flush.
fn step(m: &mut Machine, parent: Asid, i: usize) {
    let core = i % m.cores();
    let vpn = 0x40 + (i as u64 % 4);
    let line = (i as u64 * 7) % 64;
    match i {
        12 => {
            m.fork(parent).unwrap();
        }
        23 => m.flush_overlays().unwrap(),
        _ if i.is_multiple_of(3) => {
            m.execute_at_core(core, parent, &TraceOp::Load(va(vpn, line))).unwrap()
        }
        _ => m.execute_at_core(core, parent, &TraceOp::Store(va(vpn, line))).unwrap(),
    }
}

#[test]
fn snapshot_fingerprints_are_pinned() {
    let expected: [(&str, u64); 4] = [
        ("table2", 0xcc25dabe4bd39776),
        ("table2_overlay", 0x6a046ecdce78dc4e),
        ("seg", 0x5042443851169611),
        ("cores4", 0x0f719ab2a7c59a75),
    ];
    let got: Vec<(&str, u64)> = configs()
        .into_iter()
        .map(|(name, config)| (name, fingerprint64_bytes(&build(config).0.save_snapshot())))
        .collect();
    assert_eq!(got, expected.to_vec());
}

#[test]
fn snapshots_round_trip_and_continue_in_lockstep() {
    for (name, config) in configs() {
        let (mut original, parent) = build(config.clone());
        let bytes = original.save_snapshot();
        let mut restored = Machine::new(config).unwrap();
        restored.restore_snapshot(&bytes).unwrap();
        assert!(restored.save_snapshot() == bytes, "{name}: re-save differs from the snapshot");
        for i in 0..24 {
            step(&mut original, parent, i);
            step(&mut restored, parent, i);
            assert!(
                original.save_snapshot() == restored.save_snapshot(),
                "{name}: restored machine diverged at step {i}"
            );
        }
    }
}

/// Bytes of the fixed header: magic, version, config fingerprint.
const HEADER: usize = 16;

/// The translation state (page tables, OMT, OMS, grant ledger) follows
/// the header; half of the body mutations aim at its neighbourhood, the
/// rest land anywhere (mostly in the far larger cache arrays).
const TRANSLATION_WINDOW: usize = 4096;

#[test]
fn corrupted_snapshots_fail_cleanly() {
    let mut rng = StdRng::seed_from_u64(0x5eed_c0de);
    for (name, config) in configs() {
        let bytes = build(config.clone()).0.save_snapshot();
        let mut target = Machine::new(config).unwrap();
        for case in 0..150 {
            let mut bad = bytes.clone();
            let end = if rng.gen::<bool>() { HEADER + TRANSLATION_WINDOW } else { bytes.len() };
            match case % 3 {
                // Truncation at an arbitrary length.
                0 => bad.truncate(rng.gen_range(0..end)),
                // A single flipped bit in the body.
                1 => bad[rng.gen_range(HEADER..end)] ^= 1u8 << rng.gen_range(0..8u32),
                // An 8-byte run of random garbage in the body.
                _ => {
                    let i = rng.gen_range(HEADER..end - 8);
                    bad[i..i + 8].copy_from_slice(&rng.gen::<u64>().to_le_bytes());
                }
            }
            let restored = catch_unwind(AssertUnwindSafe(|| {
                let _ = target.restore_snapshot(&bad);
            }));
            assert!(restored.is_ok(), "{name}: case {case} panicked on restore");
        }
    }
}
