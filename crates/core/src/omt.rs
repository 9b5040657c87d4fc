//! The Overlay Mapping Table (OMT, §4.2 / §4.4.4).
//!
//! Maps each overlay page (OPN) to: the page's **OBitVector** and the
//! location of its overlay in the Overlay Memory Store (segment base,
//! class, and the segment's metadata line). The paper stores the OMT
//! hierarchically in main memory, walked by the memory controller on an
//! OMT-cache miss; the walk cost is charged by the timing layer
//! ([`crate::OverlayConfig::omt_walk_latency`]).

use crate::segment::{SegmentClass, SegmentMeta};
use po_types::geometry::LINE_SIZE;
use po_types::snapshot::{SnapshotReader, SnapshotWriter};
use po_types::{FxHashMap, MainMemAddr, OBitVector, Opn, PoError, PoResult};

/// Where an overlay lives in the OMS.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SegmentRef {
    /// Base address of the segment in main memory (`OMSaddr`).
    pub base: MainMemAddr,
    /// Segment size class.
    pub class: SegmentClass,
    /// The segment's metadata line (slot pointers + free vector).
    pub meta: SegmentMeta,
}

/// One OMT entry (Figure 6: `OBitVector` + `OMSaddr` + segment metadata).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OmtEntry {
    /// Which lines of the page are in the overlay.
    pub obitvec: OBitVector,
    /// The overlay's OMS segment; `None` until the first dirty overlay
    /// line is evicted (allocation is lazy, §4.3.3).
    pub segment: Option<SegmentRef>,
}

impl OmtEntry {
    /// A fresh entry for a newly created overlay: empty vector, no
    /// segment.
    pub fn empty() -> Self {
        Self { obitvec: OBitVector::EMPTY, segment: None }
    }
}

/// The table itself. Functionally a map OPN → entry; the hierarchical
/// radix layout of the in-memory table only affects the (constant) walk
/// cost, which the timing layer charges.
#[derive(Clone, Debug, Default)]
pub struct Omt {
    entries: FxHashMap<Opn, OmtEntry>,
}

impl Omt {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Looks up an entry.
    pub fn get(&self, opn: Opn) -> Option<&OmtEntry> {
        self.entries.get(&opn)
    }

    /// Mutable lookup.
    pub fn get_mut(&mut self, opn: Opn) -> Option<&mut OmtEntry> {
        self.entries.get_mut(&opn)
    }

    /// Inserts or replaces an entry.
    pub fn insert(&mut self, opn: Opn, entry: OmtEntry) {
        self.entries.insert(opn, entry);
    }

    /// Removes an entry (overlay destroyed).
    pub fn remove(&mut self, opn: Opn) -> Option<OmtEntry> {
        self.entries.remove(&opn)
    }

    /// Number of pages that currently have overlays.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` if no page has an overlay.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates over all `(opn, entry)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&Opn, &OmtEntry)> {
        self.entries.iter()
    }

    /// Serializes every entry in ascending OPN order (byte-stable
    /// regardless of hash-map iteration order). Segment metadata reuses
    /// the in-memory line encoding of [`SegmentMeta::encode`].
    pub fn encode_snapshot(&self, w: &mut SnapshotWriter) {
        let mut opns: Vec<Opn> = self.entries.keys().copied().collect();
        opns.sort_unstable_by_key(|o| o.raw());
        w.put_len(opns.len());
        for opn in opns {
            let e = &self.entries[&opn];
            w.put_u64(opn.raw());
            w.put_u64(e.obitvec.raw());
            match e.segment {
                None => w.put_bool(false),
                Some(seg) => {
                    w.put_bool(true);
                    // Statically infallible: ALL enumerates every class.
                    let tag = SegmentClass::ALL
                        .iter()
                        .position(|&c| c == seg.class)
                        .expect("member of ALL");
                    w.put_u8(tag as u8);
                    w.put_u64(seg.base.raw());
                    w.put_bytes(&seg.meta.encode());
                }
            }
        }
    }

    /// Rebuilds a table from [`Omt::encode_snapshot`] bytes.
    ///
    /// # Errors
    ///
    /// [`PoError::Corrupted`] on truncation or an unknown segment class.
    pub fn decode_snapshot(r: &mut SnapshotReader) -> PoResult<Self> {
        let n = r.get_len()?;
        let mut entries = FxHashMap::with_capacity_and_hasher(n, Default::default());
        for _ in 0..n {
            let opn = Opn::from_raw(r.get_u64()?);
            let obitvec = OBitVector::from_raw(r.get_u64()?);
            let segment = if r.get_bool()? {
                let tag = r.get_u8()? as usize;
                let class = *SegmentClass::ALL
                    .get(tag)
                    .ok_or(PoError::Corrupted("snapshot segment class tag unknown"))?;
                let base = MainMemAddr::new(r.get_u64()?);
                let mut line = [0u8; LINE_SIZE];
                line.copy_from_slice(r.get_bytes(LINE_SIZE)?);
                Some(SegmentRef { base, class, meta: SegmentMeta::decode(class, &line) })
            } else {
                None
            };
            entries.insert(opn, OmtEntry { obitvec, segment });
        }
        Ok(Self { entries })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use po_types::{Asid, Vpn};

    fn opn(v: u64) -> Opn {
        Opn::encode(Asid::new(1), Vpn::new(v))
    }

    #[test]
    fn insert_get_remove() {
        let mut omt = Omt::new();
        assert!(omt.is_empty());
        omt.insert(opn(1), OmtEntry::empty());
        assert_eq!(omt.len(), 1);
        assert!(omt.get(opn(1)).unwrap().obitvec.is_empty());
        assert!(omt.get(opn(2)).is_none());
        assert!(omt.remove(opn(1)).is_some());
        assert!(omt.is_empty());
    }

    #[test]
    fn entry_mutation_sticks() {
        let mut omt = Omt::new();
        omt.insert(opn(3), OmtEntry::empty());
        omt.get_mut(opn(3)).unwrap().obitvec.set(7);
        assert!(omt.get(opn(3)).unwrap().obitvec.contains(7));
    }

    #[test]
    fn fresh_entry_has_no_segment() {
        let e = OmtEntry::empty();
        assert!(e.segment.is_none());
        assert!(e.obitvec.is_empty());
    }
}
