//! The per-process page table: an ordered map from VPN to PTE.
//!
//! The table is functional: the TLB model charges the 1000-cycle walk
//! cost of Table 2 and nothing reads intermediate levels, so the table
//! is the abstract `VPN → PTE` view of an x86-64 radix table rather than
//! the radix tree itself. The map is ordered, so enumeration (`fork`,
//! snapshots, the refinement walk) comes out in VPN order.

use po_types::geometry::PAGE_SHIFT;
use po_types::{Ppn, VirtAddr, Vpn};
use std::collections::BTreeMap;

/// Per-page mapping flags.
///
/// `cow` and `overlay_enabled` are the two bits the paper adds to the
/// conventional set: `cow` marks pages shared in copy-on-write mode
/// (§2.2: "the OS explicitly indicates to the hardware, through the page
/// tables, that the pages should be copied-on-write"), and
/// `overlay_enabled` turns the overlay semantics on for a mapping
/// (overlays are "an inexpensive feature that can be turned on or off",
/// §1).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct PteFlags {
    /// Mapping exists.
    pub present: bool,
    /// Writes permitted without a fault.
    pub writable: bool,
    /// Shared copy-on-write page: a write triggers the CoW (or
    /// overlay-on-write) handler.
    pub cow: bool,
    /// Overlay semantics enabled for this page.
    pub overlay_enabled: bool,
}

/// A leaf page-table entry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Pte {
    /// The mapped physical frame.
    pub ppn: Ppn,
    /// Flags.
    pub flags: PteFlags,
}

/// The per-process table.
///
/// # Example
///
/// ```
/// use po_vm::{PageTable, Pte, PteFlags};
/// use po_types::{Ppn, Vpn};
///
/// let mut pt = PageTable::new();
/// pt.map(Vpn::new(0x42), Pte { ppn: Ppn::new(7), flags: PteFlags { present: true, writable: true, ..Default::default() } });
/// assert_eq!(pt.lookup(Vpn::new(0x42)).unwrap().ppn, Ppn::new(7));
/// ```
#[derive(Clone, Debug, Default)]
pub struct PageTable {
    entries: BTreeMap<u64, Pte>,
}

impl FromIterator<(Vpn, Pte)> for PageTable {
    fn from_iter<I: IntoIterator<Item = (Vpn, Pte)>>(iter: I) -> Self {
        Self { entries: iter.into_iter().map(|(vpn, pte)| (vpn.raw(), pte)).collect() }
    }
}

impl PageTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Installs (or replaces) the mapping for `vpn`.
    pub fn map(&mut self, vpn: Vpn, pte: Pte) {
        self.entries.insert(vpn.raw(), pte);
    }

    /// Removes the mapping for `vpn`, returning the old entry.
    pub fn unmap(&mut self, vpn: Vpn) -> Option<Pte> {
        self.entries.remove(&vpn.raw())
    }

    /// Looks up the entry for `vpn`.
    pub fn lookup(&self, vpn: Vpn) -> Option<Pte> {
        self.entries.get(&vpn.raw()).copied()
    }

    /// Looks up the entry for the page containing `vaddr`.
    pub fn translate(&self, vaddr: VirtAddr) -> Option<Pte> {
        self.lookup(vaddr.vpn())
    }

    /// Mutable access to the entry for `vpn` (flag updates by fault
    /// handlers).
    pub fn entry_mut(&mut self, vpn: Vpn) -> Option<&mut Pte> {
        self.entries.get_mut(&vpn.raw())
    }

    /// Number of mapped pages.
    pub fn mapped_pages(&self) -> usize {
        self.entries.len()
    }

    /// Every `(vpn, pte)` pair, in VPN order.
    pub fn iter(&self) -> impl Iterator<Item = (Vpn, Pte)> + '_ {
        self.entries.iter().map(|(&vpn, &pte)| (Vpn::new(vpn), pte))
    }

    /// Every `(vpn, entry)` pair with the entry mutable, in VPN order.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (Vpn, &mut Pte)> {
        self.entries.iter_mut().map(|(&vpn, pte)| (Vpn::new(vpn), pte))
    }

    /// Translates a full virtual address to a physical byte address.
    pub fn translate_addr(&self, vaddr: VirtAddr) -> Option<u64> {
        let pte = self.translate(vaddr)?;
        Some(pte.ppn.base().raw() | (vaddr.raw() & ((1 << PAGE_SHIFT) - 1)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pte(ppn: u64) -> Pte {
        Pte {
            ppn: Ppn::new(ppn),
            flags: PteFlags { present: true, writable: true, ..Default::default() },
        }
    }

    #[test]
    fn map_lookup_unmap() {
        let mut pt = PageTable::new();
        assert!(pt.lookup(Vpn::new(5)).is_none());
        pt.map(Vpn::new(5), pte(9));
        assert_eq!(pt.lookup(Vpn::new(5)).unwrap().ppn, Ppn::new(9));
        assert_eq!(pt.mapped_pages(), 1);
        assert_eq!(pt.unmap(Vpn::new(5)).unwrap().ppn, Ppn::new(9));
        assert!(pt.lookup(Vpn::new(5)).is_none());
        assert_eq!(pt.mapped_pages(), 0);
    }

    #[test]
    fn distinct_vpns_do_not_collide() {
        let mut pt = PageTable::new();
        // VPNs that share their low 27 bits.
        let a = Vpn::new(0x1);
        let b = Vpn::new(0x1 | (1 << 27));
        pt.map(a, pte(1));
        pt.map(b, pte(2));
        assert_eq!(pt.lookup(a).unwrap().ppn, Ppn::new(1));
        assert_eq!(pt.lookup(b).unwrap().ppn, Ppn::new(2));
    }

    #[test]
    fn remap_replaces_without_count_growth() {
        let mut pt = PageTable::new();
        pt.map(Vpn::new(3), pte(1));
        pt.map(Vpn::new(3), pte(2));
        assert_eq!(pt.mapped_pages(), 1);
        assert_eq!(pt.lookup(Vpn::new(3)).unwrap().ppn, Ppn::new(2));
    }

    #[test]
    fn entry_mut_updates_flags() {
        let mut pt = PageTable::new();
        pt.map(Vpn::new(7), pte(1));
        pt.entry_mut(Vpn::new(7)).unwrap().flags.writable = false;
        assert!(!pt.lookup(Vpn::new(7)).unwrap().flags.writable);
    }

    #[test]
    fn iter_enumerates_in_vpn_order() {
        let mut pt = PageTable::new();
        for v in [9u64, 3, 7, 1_000_000] {
            pt.map(Vpn::new(v), pte(v));
        }
        let vpns: Vec<u64> = pt.iter().map(|(v, _)| v.raw()).collect();
        assert_eq!(vpns, vec![3, 7, 9, 1_000_000]);
    }

    #[test]
    fn translate_addr_combines_frame_and_offset() {
        let mut pt = PageTable::new();
        pt.map(Vpn::new(2), pte(5));
        let pa = pt.translate_addr(VirtAddr::new(2 * 4096 + 0x123)).unwrap();
        assert_eq!(pa, 5 * 4096 + 0x123);
    }
}
