//! Snapshot bytes as a fixed contract.
//!
//! The golden test pins `fingerprint64_bytes(save_snapshot())` for small
//! deterministic machines: any change to the snapshot layout, to
//! `SystemConfig`'s `Debug` text (hashed into the header), or to the
//! simulated state those machines reach shows up here before it shows
//! up as failed ops in the `po_perf` benchmark's fingerprint check.
//!
//! The corruption test truncates and bit-flips those snapshots and
//! asserts that restoring them either fails cleanly or succeeds — it
//! never panics.

use po_sim::{BackendKind, Machine, SystemConfig, TraceOp};
use po_types::geometry::{LINE_SIZE, PAGE_SIZE};
use po_types::{fingerprint64_bytes, LineData, VirtAddr, Vpn};
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
/// DRAM and the statistics.
fn build(config: SystemConfig) -> Machine {
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
    m
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
        .map(|(name, config)| (name, fingerprint64_bytes(&build(config).save_snapshot())))
        .collect();
    assert_eq!(got, expected.to_vec());
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
        let bytes = build(config.clone()).save_snapshot();
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
