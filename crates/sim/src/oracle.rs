//! The differential oracle: a deliberately boring model of what the
//! machine's *functional* memory contents must be.
//!
//! The oracle keeps, per process, a flat byte image split in two layers:
//!
//! * **base** — bytes whose home is the physical page (or that have been
//!   committed/collapsed there), and
//! * **delta** — bytes currently living in a page's *overlay*, which a
//!   [`DiscardPage`](crate::trace::TraceOp::DiscardPage) can still revert.
//!
//! Reads see delta-over-base; unwritten bytes of a mapped page read as
//! zero (anonymous mappings are zero-filled, and the simulated
//! [`DataStore`](po_dram::DataStore) is zero-default). The oracle does
//! **not** re-derive the machine's routing rules (CoW flags, OBitVectors,
//! promotion thresholds): the harness probes the machine for *where* a
//! write lands and tells the oracle, while the oracle independently
//! tracks *what value* every byte must hold. A machine bug that corrupts
//! data — a bad segment slot, a wrong commit merge, a snapshot that
//! resurrects stale lines — shows up as a byte mismatch even though the
//! routing probe came from the machine itself.

use po_types::geometry::{LINE_SIZE, PAGE_SIZE};
use po_types::{Asid, VirtAddr, Vpn};
use std::collections::{BTreeMap, BTreeSet};

/// One process's expected memory image.
#[derive(Clone, Debug, Default)]
struct ProcImage {
    /// Committed bytes, keyed by virtual address. Absent = zero.
    base: BTreeMap<u64, u8>,
    /// Overlay bytes, keyed by VPN then byte offset within the page.
    /// Revertible until merged (commit/collapse) or dropped (discard).
    delta: BTreeMap<u64, BTreeMap<u32, u8>>,
    /// Mapped virtual page numbers.
    mapped: BTreeSet<u64>,
}

/// The reference model. See the [module docs](self) for the contract.
#[derive(Clone, Debug, Default)]
pub struct DiffOracle {
    procs: BTreeMap<u16, ProcImage>,
}

impl DiffOracle {
    /// Creates an oracle with no processes.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a freshly spawned process (empty address space).
    pub fn spawn(&mut self, asid: Asid) {
        self.procs.insert(asid.raw(), ProcImage::default());
    }

    /// `true` if `asid` has been spawned.
    pub fn knows(&self, asid: Asid) -> bool {
        self.procs.contains_key(&asid.raw())
    }

    /// Records that `vpn` is mapped (zero-filled anonymous page) for
    /// `asid`. Idempotent.
    pub fn note_mapped(&mut self, asid: Asid, vpn: Vpn) {
        self.procs.entry(asid.raw()).or_default().mapped.insert(vpn.raw());
    }

    /// `true` if the oracle believes `asid` has `vpn` mapped.
    pub fn is_mapped(&self, asid: Asid, vpn: Vpn) -> bool {
        self.procs.get(&asid.raw()).is_some_and(|p| p.mapped.contains(&vpn.raw()))
    }

    /// Mapped VPNs of `asid`, ascending.
    pub fn mapped_pages(&self, asid: Asid) -> Vec<Vpn> {
        self.procs
            .get(&asid.raw())
            .map(|p| p.mapped.iter().map(|&v| Vpn::new(v)).collect())
            .unwrap_or_default()
    }

    /// Writes a byte whose home is the physical page.
    pub fn write_base(&mut self, asid: Asid, va: VirtAddr, value: u8) {
        self.procs.entry(asid.raw()).or_default().base.insert(va.raw(), value);
    }

    /// Writes a byte into the page's overlay (revertible by discard).
    pub fn write_delta(&mut self, asid: Asid, va: VirtAddr, value: u8) {
        let off = (va.raw() % PAGE_SIZE as u64) as u32;
        self.procs
            .entry(asid.raw())
            .or_default()
            .delta
            .entry(va.vpn().raw())
            .or_default()
            .insert(off, value);
    }

    /// Splats `value` across a whole overlay line (the
    /// [`SeedLine`](crate::trace::TraceOp::SeedLine) semantics).
    pub fn write_delta_line(&mut self, asid: Asid, vpn: Vpn, line: usize, value: u8) {
        let page = self.procs.entry(asid.raw()).or_default().delta.entry(vpn.raw()).or_default();
        let start = (line * LINE_SIZE) as u32;
        for off in start..start + LINE_SIZE as u32 {
            page.insert(off, value);
        }
    }

    /// Expected byte at `va`, or `None` if the page is unmapped.
    pub fn read(&self, asid: Asid, va: VirtAddr) -> Option<u8> {
        let p = self.procs.get(&asid.raw())?;
        let vpn = va.vpn().raw();
        if !p.mapped.contains(&vpn) {
            return None;
        }
        let off = (va.raw() % PAGE_SIZE as u64) as u32;
        if let Some(&v) = p.delta.get(&vpn).and_then(|d| d.get(&off)) {
            return Some(v);
        }
        Some(p.base.get(&va.raw()).copied().unwrap_or(0))
    }

    /// Folds `vpn`'s delta into base: the overlay was committed (or
    /// collapsed) into the physical page, so a later discard can no
    /// longer revert these bytes. No-op when there is no delta.
    pub fn merge_delta(&mut self, asid: Asid, vpn: Vpn) {
        if let Some(p) = self.procs.get_mut(&asid.raw()) {
            if let Some(d) = p.delta.remove(&vpn.raw()) {
                let page_base = vpn.raw() * PAGE_SIZE as u64;
                for (off, v) in d {
                    p.base.insert(page_base + off as u64, v);
                }
            }
        }
    }

    /// [`merge_delta`](Self::merge_delta) for every page of `asid` —
    /// `fork` materializes all of the parent's overlays before sharing.
    pub fn merge_all_deltas(&mut self, asid: Asid) {
        let pages: Vec<u64> = self
            .procs
            .get(&asid.raw())
            .map(|p| p.delta.keys().copied().collect())
            .unwrap_or_default();
        for vpn in pages {
            self.merge_delta(asid, Vpn::new(vpn));
        }
    }

    /// Drops `vpn`'s delta: the overlay was discarded and the page
    /// reverts to its committed contents.
    pub fn drop_delta(&mut self, asid: Asid, vpn: Vpn) {
        if let Some(p) = self.procs.get_mut(&asid.raw()) {
            p.delta.remove(&vpn.raw());
        }
    }

    /// Clones the parent's image for a fork child. The caller must
    /// [`merge_all_deltas`](Self::merge_all_deltas) on the parent first
    /// (mirroring the machine's materialize-then-share order).
    pub fn clone_process(&mut self, parent: Asid, child: Asid) {
        let img = self.procs.get(&parent.raw()).cloned().unwrap_or_default();
        self.procs.insert(child.raw(), img);
    }

    /// Expected contents of page `vpn`, delta over base, as [`read`]
    /// sees them byte by byte (zeros where the oracle holds no value).
    /// The final sweep compares it with the machine a line at a time.
    ///
    /// [`read`]: Self::read
    pub fn page_image(&self, asid: Asid, vpn: Vpn) -> [u8; PAGE_SIZE] {
        let mut image = [0u8; PAGE_SIZE];
        let Some(p) = self.procs.get(&asid.raw()) else { return image };
        let lo = vpn.raw() * PAGE_SIZE as u64;
        for (&va, &v) in p.base.range(lo..lo + PAGE_SIZE as u64) {
            image[(va - lo) as usize] = v;
        }
        for (&off, &v) in p.delta.get(&vpn.raw()).into_iter().flatten() {
            image[off as usize] = v;
        }
        image
    }

    /// `(asid, vpn)` pairs that currently hold a non-empty delta, in
    /// deterministic order — the set the harness probes against the
    /// machine to detect commits it did not issue itself (promotions,
    /// pressure-driven collapses).
    pub fn delta_pages(&self) -> Vec<(Asid, Vpn)> {
        let mut out = Vec::new();
        for (&asid, p) in &self.procs {
            for (&vpn, d) in &p.delta {
                if !d.is_empty() {
                    out.push((Asid::new(asid), Vpn::new(vpn)));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a(n: u16) -> Asid {
        Asid::new(n)
    }

    #[test]
    fn delta_overrides_base_until_dropped() {
        let mut o = DiffOracle::new();
        o.spawn(a(1));
        o.note_mapped(a(1), Vpn::new(5));
        let va = VirtAddr::new(5 * PAGE_SIZE as u64 + 7);
        o.write_base(a(1), va, 0x11);
        assert_eq!(o.read(a(1), va), Some(0x11));
        o.write_delta(a(1), va, 0x22);
        assert_eq!(o.read(a(1), va), Some(0x22));
        o.drop_delta(a(1), Vpn::new(5));
        assert_eq!(o.read(a(1), va), Some(0x11));
    }

    #[test]
    fn merge_makes_delta_permanent() {
        let mut o = DiffOracle::new();
        o.spawn(a(1));
        o.note_mapped(a(1), Vpn::new(5));
        let va = VirtAddr::new(5 * PAGE_SIZE as u64);
        o.write_delta(a(1), va, 0x33);
        o.merge_delta(a(1), Vpn::new(5));
        o.drop_delta(a(1), Vpn::new(5));
        assert_eq!(o.read(a(1), va), Some(0x33));
        assert!(o.delta_pages().is_empty());
    }

    #[test]
    fn fork_clones_merged_image() {
        let mut o = DiffOracle::new();
        o.spawn(a(1));
        o.note_mapped(a(1), Vpn::new(2));
        let va = VirtAddr::new(2 * PAGE_SIZE as u64 + 100);
        o.write_delta(a(1), va, 0x44);
        o.merge_all_deltas(a(1));
        o.clone_process(a(1), a(2));
        assert_eq!(o.read(a(2), va), Some(0x44));
        // Diverge the child; the parent is unaffected.
        o.write_base(a(2), va, 0x55);
        assert_eq!(o.read(a(1), va), Some(0x44));
    }

    #[test]
    fn unmapped_reads_are_none_and_mapped_default_zero() {
        let mut o = DiffOracle::new();
        o.spawn(a(1));
        assert_eq!(o.read(a(1), VirtAddr::new(0)), None);
        o.note_mapped(a(1), Vpn::new(0));
        assert_eq!(o.read(a(1), VirtAddr::new(63)), Some(0));
    }

    #[test]
    fn seed_line_splat() {
        let mut o = DiffOracle::new();
        o.spawn(a(1));
        o.note_mapped(a(1), Vpn::new(1));
        o.write_delta_line(a(1), Vpn::new(1), 2, 0xAB);
        let base = PAGE_SIZE as u64 + 2 * LINE_SIZE as u64;
        assert_eq!(o.read(a(1), VirtAddr::new(base)), Some(0xAB));
        assert_eq!(o.read(a(1), VirtAddr::new(base + 63)), Some(0xAB));
        assert_eq!(o.read(a(1), VirtAddr::new(base + 64)), Some(0));
    }
}
