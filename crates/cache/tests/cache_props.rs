//! Property tests for the set-associative cache: structural invariants
//! that must hold under arbitrary access/fill/invalidate/retag
//! interleavings, for both replacement policies, and a snapshot codec
//! that round-trips every such state byte for byte.

use po_cache::{CacheConfig, PolicyKind, SetAssocCache};
use po_types::{PhysAddr, SnapshotReader, SnapshotWriter};
use proptest::prelude::*;
use std::collections::BTreeSet;

fn config(policy: PolicyKind) -> CacheConfig {
    CacheConfig {
        capacity_bytes: 2048, // 32 lines
        ways: 4,              // 8 sets
        tag_latency: 1,
        data_latency: 1,
        parallel_tag_data: true,
        policy,
    }
}

#[derive(Clone, Debug)]
enum Op {
    Access { line: u64, write: bool },
    Fill { line: u64, dirty: bool },
    Invalidate { line: u64 },
    Retag { from: u64, to: u64 },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let line = 0u64..64; // twice the capacity: plenty of conflict
    prop_oneof![
        (line.clone(), any::<bool>()).prop_map(|(line, write)| Op::Access { line, write }),
        (line.clone(), any::<bool>()).prop_map(|(line, dirty)| Op::Fill { line, dirty }),
        line.clone().prop_map(|line| Op::Invalidate { line }),
        (line.clone(), line).prop_map(|(from, to)| Op::Retag { from, to }),
    ]
}

fn addr(line: u64) -> PhysAddr {
    PhysAddr::new(line * 64)
}

fn apply(cache: &mut SetAssocCache, op: &Op) {
    match *op {
        Op::Access { line, write } => {
            cache.access(addr(line), write);
        }
        Op::Fill { line, dirty } => {
            cache.fill(addr(line), dirty);
        }
        Op::Invalidate { line } => {
            cache.invalidate_line(addr(line));
        }
        Op::Retag { from, to } => {
            cache.retag(addr(from), addr(to));
        }
    }
}

fn encode(cache: &SetAssocCache) -> Vec<u8> {
    let mut w = SnapshotWriter::new();
    cache.encode_snapshot(&mut w);
    w.finish()
}

/// Ways the encoding shows as invalid but still tagged: the snapshot
/// leads with one 10-byte `(tag u64 LE, valid, dirty)` record per way,
/// set-major.
fn stale_tagged_ways(bytes: &[u8], ways: usize) -> usize {
    bytes[..ways * 10].chunks_exact(10).filter(|rec| rec[8] == 0 && rec[..8] != [0; 8]).count()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn cache_structural_invariants(
        policy_drrip in any::<bool>(),
        ops in prop::collection::vec(op_strategy(), 1..250),
    ) {
        let policy = if policy_drrip { PolicyKind::Drrip } else { PolicyKind::Lru };
        let mut cache = SetAssocCache::new(config(policy));
        // Oracle: the set of lines that *may* be resident (filled, not
        // invalidated). Eviction can remove a member at any time, so the
        // invariant is resident ⊆ may_be_resident.
        let mut may_be_resident: BTreeSet<u64> = BTreeSet::new();

        for op in &ops {
            match *op {
                Op::Access { line, write } => {
                    let hit = cache.access(addr(line), write);
                    if hit {
                        prop_assert!(
                            may_be_resident.contains(&(line * 64)),
                            "hit on a line that was never filled (line {line})"
                        );
                    }
                }
                Op::Fill { line, dirty } => {
                    if let Some(evicted) = cache.fill(addr(line), dirty) {
                        let key = evicted.addr.raw();
                        prop_assert!(
                            may_be_resident.remove(&key),
                            "evicted a line that was never filled ({key:#x})"
                        );
                    }
                    may_be_resident.insert(line * 64);
                }
                Op::Invalidate { line } => {
                    if cache.invalidate_line(addr(line)).is_some() {
                        prop_assert!(may_be_resident.remove(&(line * 64)));
                    }
                }
                Op::Retag { from, to } => {
                    if from != to {
                        if let Some(evicted) = cache.retag(addr(from), addr(to)) {
                            let key = evicted.addr.raw();
                            prop_assert!(may_be_resident.remove(&key));
                        }
                        if may_be_resident.remove(&(from * 64)) {
                            may_be_resident.insert(to * 64);
                        }
                    }
                }
            }
            // Residency is a subset of the oracle; no duplicates; bounded.
            let resident: Vec<u64> = cache.resident_lines().map(|a| a.raw()).collect();
            let unique: BTreeSet<u64> = resident.iter().copied().collect();
            prop_assert_eq!(unique.len(), resident.len(), "duplicate tags in the cache");
            prop_assert!(resident.len() <= 32, "occupancy exceeds capacity");
            for r in &unique {
                prop_assert!(
                    may_be_resident.contains(r),
                    "resident line {r:#x} not in the oracle"
                );
            }
            prop_assert_eq!(cache.occupancy(), resident.len());
        }
    }

    /// encode → decode → encode is byte-identical, whatever state the
    /// ops leave — including invalidated ways that keep stale tags.
    #[test]
    fn snapshot_round_trips_byte_for_byte(
        policy_drrip in any::<bool>(),
        ops in prop::collection::vec(op_strategy(), 1..250),
        stale in 1u64..64,
    ) {
        let policy = if policy_drrip { PolicyKind::Drrip } else { PolicyKind::Lru };
        let mut cache = SetAssocCache::new(config(policy));
        for op in &ops {
            apply(&mut cache, op);
        }
        // End on an invalidation so at least one way holds a stale tag.
        apply(&mut cache, &Op::Fill { line: stale, dirty: true });
        apply(&mut cache, &Op::Invalidate { line: stale });
        let bytes = encode(&cache);
        prop_assert!(stale_tagged_ways(&bytes, 32) >= 1, "no stale tag survived");

        let mut r = SnapshotReader::new(&bytes);
        let mut decoded = SetAssocCache::decode_snapshot(config(policy), &mut r).unwrap();
        prop_assert_eq!(encode(&decoded), bytes);
        // The decoded cache also behaves the same from here on.
        for op in &ops {
            apply(&mut cache, op);
            apply(&mut decoded, op);
        }
        prop_assert_eq!(encode(&decoded), encode(&cache));
    }

    /// Probe never disagrees with access about presence.
    #[test]
    fn probe_matches_access(fills in prop::collection::vec(0u64..64, 1..60)) {
        let mut cache = SetAssocCache::new(config(PolicyKind::Lru));
        for &line in &fills {
            cache.fill(addr(line), false);
        }
        for line in 0..64u64 {
            let probed = cache.probe(addr(line));
            let accessed = cache.access(addr(line), false);
            prop_assert_eq!(probed, accessed, "probe/access disagree on line {}", line);
        }
    }
}
