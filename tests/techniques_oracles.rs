//! Property tests for the §5.3 techniques (DESIGN.md invariants 7-8):
//! dedup, checkpointing and speculation all reconstruct a flat oracle;
//! TLB coherence keeps every TLB's OBitVector consistent without
//! shootdowns.

use page_overlays::techniques::{Checkpointer, DifferenceEngine, SpeculativeRegion};
use page_overlays::tlb::{Tlb, TlbConfig, TlbEntry};
use page_overlays::types::{Asid, LineData, OBitVector, Opn, Ppn, Vpn};
use page_overlays::vm::{Pte, PteFlags};
use proptest::prelude::*;
use std::collections::BTreeMap;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Dedup: arbitrary page families reconstruct bit-exactly, at any
    /// threshold.
    #[test]
    fn dedup_reconstructs_all_pages(
        diffs in prop::collection::vec(prop::collection::vec((0usize..64, any::<u8>()), 0..8), 1..12),
        threshold in 1usize..=64,
    ) {
        let mut engine = DifferenceEngine::new(threshold);
        let template = [LineData::splat(0x5A); 64];
        let mut originals = Vec::new();
        for (i, page_diffs) in diffs.iter().enumerate() {
            let mut page = template;
            for &(line, fill) in page_diffs {
                page[line] = LineData::splat(fill);
            }
            let opn = Opn::encode(Asid::new(1), Vpn::new(i as u64));
            engine.insert_page(opn, &page).unwrap();
            originals.push((opn, page));
        }
        for (opn, page) in &originals {
            prop_assert_eq!(&engine.read_page(*opn).unwrap(), page);
        }
        // Dedup never uses more memory than the naive scheme plus one
        // base page of slack.
        prop_assert!(engine.memory_bytes() <= engine.naive_bytes() + 4096);
    }

    /// Checkpointing: restore(i) equals a flat replay oracle at every
    /// checkpoint index.
    #[test]
    fn checkpoint_restore_matches_oracle(
        intervals in prop::collection::vec(
            prop::collection::vec((0u64..6, 0usize..64, any::<u8>()), 0..20),
            1..6,
        ),
    ) {
        let mut ck = Checkpointer::new(6);
        let mut oracle: BTreeMap<(u64, usize), u8> = BTreeMap::new();
        let mut snapshots = Vec::new();
        for writes in &intervals {
            for &(page, line, fill) in writes {
                ck.write(page, line, LineData::splat(fill)).unwrap();
                oracle.insert((page, line), fill);
            }
            ck.take_checkpoint().unwrap();
            snapshots.push(oracle.clone());
        }
        for (i, snap) in snapshots.iter().enumerate() {
            let image = ck.restore(i);
            for page in 0..6u64 {
                for (line, &got) in image[page as usize].iter().enumerate() {
                    let expect = snap
                        .get(&(page, line))
                        .map(|&f| LineData::splat(f))
                        .unwrap_or(LineData::zeroed());
                    prop_assert_eq!(got, expect,
                        "checkpoint {}, page {}, line {}", i, page, line);
                }
            }
        }
    }

    /// Speculation: any sequence of (txn, writes, commit|abort) matches
    /// a flat oracle that applies only committed transactions.
    #[test]
    fn speculation_matches_commit_only_oracle(
        txns in prop::collection::vec(
            (prop::collection::vec((0u64..4, 0usize..64, any::<u8>()), 1..15), any::<bool>(), any::<bool>()),
            1..8,
        ),
    ) {
        let mut region = SpeculativeRegion::new(4);
        let mut oracle: BTreeMap<(u64, usize), u8> = BTreeMap::new();
        for (writes, commit, evict) in &txns {
            region.begin().unwrap();
            for &(page, line, fill) in writes {
                region.spec_write(page, line, LineData::splat(fill)).unwrap();
            }
            if *evict {
                region.evict_speculative_state().unwrap();
            }
            if *commit {
                region.commit().unwrap();
                for &(page, line, fill) in writes {
                    oracle.insert((page, line), fill);
                }
            } else {
                region.abort().unwrap();
            }
        }
        for page in 0..4u64 {
            for line in 0..64usize {
                let expect = oracle
                    .get(&(page, line))
                    .map(|&f| LineData::splat(f))
                    .unwrap_or(LineData::zeroed());
                prop_assert_eq!(region.read(page, line).unwrap(), expect);
            }
        }
    }

    /// TLB coherence (invariant 7): after arbitrary overlaying-write
    /// broadcasts, every TLB that caches a page holds exactly the lines
    /// broadcast for that page, and zero shootdowns occurred.
    #[test]
    fn tlb_coherence_without_shootdowns(
        cached in prop::collection::vec((0usize..4, 0u64..8), 1..16),
        updates in prop::collection::vec((0u64..8, 0usize..64), 1..40),
    ) {
        let asid = Asid::new(5);
        let mut tlbs: Vec<Tlb> = (0..4).map(|_| Tlb::new(TlbConfig::table2())).collect();
        let entry = |vpn: u64| TlbEntry {
            asid,
            vpn: Vpn::new(vpn),
            pte: Pte {
                ppn: Ppn::new(vpn + 100),
                flags: PteFlags { present: true, writable: false, cow: true, overlay_enabled: true },
            },
            obitvec: OBitVector::EMPTY,
        };
        let mut holds: std::collections::BTreeSet<(usize, u64)> = Default::default();
        for &(tlb_idx, vpn) in &cached {
            tlbs[tlb_idx].fill(entry(vpn));
            holds.insert((tlb_idx, vpn));
        }
        let mut expected: BTreeMap<u64, OBitVector> = BTreeMap::new();
        for &(vpn, line) in &updates {
            // Every core's TLB snoops the update, as the machine's
            // overlaying-write path delivers it.
            for tlb in &mut tlbs {
                tlb.coherence_obit_update(asid, Vpn::new(vpn), line, true);
            }
            expected.entry(vpn).or_insert(OBitVector::EMPTY).set(line);
        }
        for &(tlb_idx, vpn) in &holds {
            if let Some(e) = tlbs[tlb_idx].peek(asid, Vpn::new(vpn)) {
                let want = expected.get(&vpn).copied().unwrap_or(OBitVector::EMPTY);
                prop_assert_eq!(e.obitvec, want, "tlb {} vpn {:#x}", tlb_idx, vpn);
            }
        }
        for tlb in &tlbs {
            prop_assert_eq!(tlb.stats().shootdowns.get(), 0);
        }
    }
}
