//! Property tests for the page table and the OS model, checked against
//! flat-map oracles.

use po_dram::DataStore;
use po_types::{Ppn, VirtAddr, Vpn};
use po_vm::{OsModel, PageTable, Pte, PteFlags, VmConfig};
use proptest::prelude::*;
use std::collections::BTreeMap;

#[derive(Clone, Debug)]
enum Op {
    Map { vpn: u64, ppn: u64 },
    Unmap { vpn: u64 },
    FlagFlip { vpn: u64 },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // VPNs chosen from a mix of dense low values and sparse high ones.
    let vpn = prop_oneof![0u64..32, (1u64 << 18)..(1 << 18) + 8, (1u64 << 35)..(1 << 35) + 8];
    prop_oneof![
        (vpn.clone(), 0u64..1024).prop_map(|(vpn, ppn)| Op::Map { vpn, ppn }),
        vpn.clone().prop_map(|vpn| Op::Unmap { vpn }),
        vpn.prop_map(|vpn| Op::FlagFlip { vpn }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn page_table_matches_btreemap_oracle(ops in prop::collection::vec(op_strategy(), 1..150)) {
        let mut pt = PageTable::new();
        let mut oracle: BTreeMap<u64, Pte> = BTreeMap::new();
        for op in &ops {
            match *op {
                Op::Map { vpn, ppn } => {
                    let pte = Pte {
                        ppn: Ppn::new(ppn),
                        flags: PteFlags { present: true, writable: true, ..Default::default() },
                    };
                    pt.map(Vpn::new(vpn), pte);
                    oracle.insert(vpn, pte);
                }
                Op::Unmap { vpn } => {
                    let got = pt.unmap(Vpn::new(vpn));
                    prop_assert_eq!(got, oracle.remove(&vpn));
                }
                Op::FlagFlip { vpn } => {
                    let got = pt.entry_mut(Vpn::new(vpn)).map(|e| {
                        e.flags.cow = !e.flags.cow;
                        *e
                    });
                    let expect = oracle.get_mut(&vpn).map(|e| {
                        e.flags.cow = !e.flags.cow;
                        *e
                    });
                    prop_assert_eq!(got, expect);
                }
            }
            prop_assert_eq!(pt.mapped_pages(), oracle.len());
        }
        // Full enumeration agrees, in VPN order.
        let listed: Vec<(u64, Pte)> = pt.iter().map(|(v, p)| (v.raw(), p)).collect();
        let expected: Vec<(u64, Pte)> = oracle.into_iter().collect();
        prop_assert_eq!(listed, expected);
    }

    /// The OS byte-level read/write path agrees with a flat oracle even
    /// through fork + CoW divergence.
    #[test]
    fn os_read_write_matches_oracle(
        writes in prop::collection::vec((0u64..4, 0u64..4096, any::<u8>()), 1..60),
    ) {
        let mut os = OsModel::new(VmConfig { total_frames: 512 });
        let mut mem = DataStore::new();
        let p = os.spawn().unwrap();
        os.map_range(p, Vpn::new(10), 4, true).unwrap();
        let mut oracle: BTreeMap<u64, u8> = BTreeMap::new();
        for &(page, off, val) in &writes {
            let va = VirtAddr::new((10 + page) * 4096 + off);
            os.write(p, va, val, &mut mem).unwrap();
            oracle.insert(va.raw(), val);
        }
        for (&addr, &val) in &oracle {
            prop_assert_eq!(os.read(p, VirtAddr::new(addr), &mem).unwrap(), val);
        }
        // Fork, diverge the parent, verify the child still sees `oracle`.
        let c = os.fork(p).unwrap();
        for &(page, off, _) in writes.iter().take(10) {
            let va = VirtAddr::new((10 + page) * 4096 + off);
            let cur = os.read(p, va, &mem).unwrap();
            os.write(p, va, cur.wrapping_add(1), &mut mem).unwrap();
        }
        for (&addr, &val) in &oracle {
            prop_assert_eq!(
                os.read(c, VirtAddr::new(addr), &mem).unwrap(),
                val,
                "child must keep the pre-fork bytes"
            );
        }
    }
}
