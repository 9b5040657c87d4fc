//! The two-level TLB with OBitVector-extended entries.

use po_telemetry::HitLevel;
use po_types::snapshot::{SnapshotReader, SnapshotWriter};
use po_types::{Asid, Counter, OBitVector, PoError, PoResult, Ppn, Vpn};
use po_vm::{Pte, PteFlags};

/// TLB geometry and latencies (defaults = Table 2).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TlbConfig {
    /// L1 entries (Table 2: 64).
    pub l1_entries: usize,
    /// L1 associativity (Table 2: 4-way).
    pub l1_ways: usize,
    /// L1 hit latency in cycles (Table 2: 1).
    pub l1_latency: u64,
    /// L2 entries (Table 2: 1024).
    pub l2_entries: usize,
    /// L2 associativity (8-way; Table 2 gives only size).
    pub l2_ways: usize,
    /// L2 hit latency in cycles (Table 2: 10).
    pub l2_latency: u64,
    /// Full-miss (page-table walk) latency in cycles (Table 2: 1000).
    pub miss_latency: u64,
    /// Extra fill latency when the walk must also fetch the OBitVector
    /// from the OMT (the cost the paper accepts in §4.3: "this
    /// potentially increases the cost of each TLB miss").
    pub obitvector_fill_latency: u64,
}

impl TlbConfig {
    /// The Table 2 configuration.
    pub fn table2() -> Self {
        Self {
            l1_entries: 64,
            l1_ways: 4,
            l1_latency: 1,
            l2_entries: 1024,
            l2_ways: 8,
            l2_latency: 10,
            miss_latency: 1000,
            obitvector_fill_latency: 0,
        }
    }
}

impl Default for TlbConfig {
    fn default() -> Self {
        Self::table2()
    }
}

/// One TLB entry: translation plus the overlay bit vector (Figure 6 Ì).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TlbEntry {
    /// Owning process.
    pub asid: Asid,
    /// Virtual page.
    pub vpn: Vpn,
    /// Cached translation and flags.
    pub pte: Pte,
    /// Which lines of the page live in its overlay.
    pub obitvec: OBitVector,
}

/// Where a lookup was satisfied.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TlbOutcome {
    /// Hit in the L1 TLB.
    L1Hit,
    /// Hit in the L2 TLB (entry promoted to L1).
    L2Hit,
    /// Missed both levels; the caller must walk the page table and
    /// [`Tlb::fill`].
    Miss,
}

impl TlbOutcome {
    /// The outcome as a journal hit level (`TlbLookup` events).
    pub fn hit_level(self) -> HitLevel {
        match self {
            TlbOutcome::L1Hit => HitLevel::L1,
            TlbOutcome::L2Hit => HitLevel::L2,
            TlbOutcome::Miss => HitLevel::Miss,
        }
    }
}

/// Result of a lookup: outcome, latency, and the entry if present.
#[derive(Clone, Copy, Debug)]
pub struct TlbLookup {
    /// Hit level or miss.
    pub outcome: TlbOutcome,
    /// Cycles consumed by the lookup (miss latency is *not* included —
    /// the walk is charged by the caller via [`TlbConfig::miss_latency`]).
    pub latency: u64,
    /// The entry, on a hit.
    pub entry: Option<TlbEntry>,
}

po_types::stats! {
    /// TLB statistics.
    #[derive(Clone, Debug, Default)]
    pub struct TlbStats: "tlb" {
        /// L1 hits.
        pub l1_hits: Counter,
        /// L2 hits.
        pub l2_hits: Counter,
        /// Full misses.
        pub misses: Counter,
        /// Whole-page invalidations (classic shootdowns).
        pub shootdowns: Counter,
        /// Single-line OBitVector updates delivered by coherence (§4.3.3) —
        /// the operations that *replace* shootdowns under overlay-on-write.
        pub obit_updates: Counter,
    }
}

#[derive(Clone, Debug)]
struct TlbArray {
    sets: usize,
    ways: usize,
    entries: Vec<Option<TlbEntry>>,
    /// Per-way LRU rank (0 = MRU), permutation per set.
    ranks: Vec<u8>,
}

impl TlbArray {
    fn new(entries: usize, ways: usize) -> Self {
        assert!(entries.is_multiple_of(ways), "TLB entries must divide evenly into ways");
        let sets = entries / ways;
        Self {
            sets,
            ways,
            entries: vec![None; entries],
            ranks: (0..entries).map(|i| (i % ways) as u8).collect(),
        }
    }

    fn set_of(&self, vpn: Vpn) -> usize {
        (vpn.raw() % self.sets as u64) as usize
    }

    fn touch(&mut self, set: usize, way: usize) {
        let base = set * self.ways;
        let old = self.ranks[base + way];
        for w in 0..self.ways {
            if w == way {
                self.ranks[base + w] = 0;
            } else if self.ranks[base + w] < old {
                self.ranks[base + w] += 1;
            }
        }
    }

    fn find(&self, asid: Asid, vpn: Vpn) -> Option<(usize, usize)> {
        let set = self.set_of(vpn);
        let base = set * self.ways;
        for w in 0..self.ways {
            if let Some(e) = &self.entries[base + w] {
                if e.asid == asid && e.vpn == vpn {
                    return Some((set, w));
                }
            }
        }
        None
    }

    fn lookup(&mut self, asid: Asid, vpn: Vpn) -> Option<TlbEntry> {
        let (set, way) = self.find(asid, vpn)?;
        self.touch(set, way);
        self.entries[set * self.ways + way]
    }

    fn insert(&mut self, entry: TlbEntry) {
        let set = self.set_of(entry.vpn);
        let base = set * self.ways;
        // Replace an existing copy of the same page if present.
        if let Some((s, w)) = self.find(entry.asid, entry.vpn) {
            self.entries[s * self.ways + w] = Some(entry);
            self.touch(s, w);
            return;
        }
        // Otherwise pick an invalid way, else the LRU way (way 0 is
        // unreachable fallback: `new` guarantees at least one way).
        let way = (0..self.ways)
            .find(|&w| self.entries[base + w].is_none())
            .or_else(|| (0..self.ways).max_by_key(|&w| self.ranks[base + w]))
            .unwrap_or(0);
        self.entries[base + way] = Some(entry);
        self.touch(set, way);
    }

    fn invalidate(&mut self, asid: Asid, vpn: Vpn) -> bool {
        if let Some((set, way)) = self.find(asid, vpn) {
            self.entries[set * self.ways + way] = None;
            true
        } else {
            false
        }
    }

    fn entry_mut(&mut self, asid: Asid, vpn: Vpn) -> Option<&mut TlbEntry> {
        let (set, way) = self.find(asid, vpn)?;
        self.entries[set * self.ways + way].as_mut()
    }

    fn flush_asid(&mut self, asid: Asid) {
        for e in self.entries.iter_mut() {
            if e.map(|x| x.asid == asid).unwrap_or(false) {
                *e = None;
            }
        }
    }

    fn occupancy(&self) -> usize {
        self.entries.iter().filter(|e| e.is_some()).count()
    }

    fn encode_snapshot(&self, w: &mut SnapshotWriter) {
        for e in &self.entries {
            match e {
                None => w.put_bool(false),
                Some(e) => {
                    w.put_bool(true);
                    w.put_u16(e.asid.raw());
                    w.put_u64(e.vpn.raw());
                    w.put_u64(e.pte.ppn.raw());
                    let f = e.pte.flags;
                    w.put_u8(
                        f.present as u8
                            | (f.writable as u8) << 1
                            | (f.cow as u8) << 2
                            | (f.overlay_enabled as u8) << 3,
                    );
                    w.put_u64(e.obitvec.raw());
                }
            }
        }
        for rank in &self.ranks {
            w.put_u8(*rank);
        }
    }

    fn decode_snapshot(r: &mut SnapshotReader, entries: usize, ways: usize) -> PoResult<Self> {
        let mut array = TlbArray::new(entries, ways);
        for slot in array.entries.iter_mut() {
            *slot = if r.get_bool()? {
                let raw_asid = r.get_u16()?;
                if raw_asid > Asid::MAX {
                    return Err(PoError::Corrupted("snapshot TLB ASID exceeds 15 bits"));
                }
                let asid = Asid::new(raw_asid);
                let vpn = Vpn::new(r.get_u64()?);
                let ppn = Ppn::new(r.get_u64()?);
                let f = r.get_u8()?;
                if f & !0xF != 0 {
                    return Err(PoError::Corrupted("snapshot TLB PTE flags have unknown bits"));
                }
                let flags = PteFlags {
                    present: f & 1 != 0,
                    writable: f & 2 != 0,
                    cow: f & 4 != 0,
                    overlay_enabled: f & 8 != 0,
                };
                let obitvec = OBitVector::from_raw(r.get_u64()?);
                Some(TlbEntry { asid, vpn, pte: Pte { ppn, flags }, obitvec })
            } else {
                None
            };
        }
        for rank in array.ranks.iter_mut() {
            let v = r.get_u8()?;
            if v as usize >= ways {
                return Err(PoError::Corrupted("snapshot TLB LRU rank exceeds ways"));
            }
            *rank = v;
        }
        Ok(array)
    }
}

/// The two-level TLB. See the [crate docs](crate) for an example.
#[derive(Clone, Debug)]
pub struct Tlb {
    config: TlbConfig,
    l1: TlbArray,
    l2: TlbArray,
    stats: TlbStats,
}

impl Tlb {
    /// Creates an empty TLB.
    pub fn new(config: TlbConfig) -> Self {
        let l1 = TlbArray::new(config.l1_entries, config.l1_ways);
        let l2 = TlbArray::new(config.l2_entries, config.l2_ways);
        Self { config, l1, l2, stats: TlbStats::default() }
    }

    /// Returns the configuration.
    pub fn config(&self) -> &TlbConfig {
        &self.config
    }

    /// Returns accumulated statistics.
    pub fn stats(&self) -> &TlbStats {
        &self.stats
    }

    /// Looks up a translation. On an L2 hit the entry is promoted to L1.
    pub fn lookup(&mut self, asid: Asid, vpn: Vpn) -> TlbLookup {
        if let Some(e) = self.l1.lookup(asid, vpn) {
            self.stats.l1_hits.inc();
            return TlbLookup {
                outcome: TlbOutcome::L1Hit,
                latency: self.config.l1_latency,
                entry: Some(e),
            };
        }
        if let Some(e) = self.l2.lookup(asid, vpn) {
            self.stats.l2_hits.inc();
            self.l1.insert(e);
            return TlbLookup {
                outcome: TlbOutcome::L2Hit,
                latency: self.config.l1_latency + self.config.l2_latency,
                entry: Some(e),
            };
        }
        self.stats.misses.inc();
        TlbLookup {
            outcome: TlbOutcome::Miss,
            latency: self.config.l1_latency + self.config.l2_latency,
            entry: None,
        }
    }

    /// Latency of the page-table walk plus OBitVector fetch charged on a
    /// miss.
    pub fn miss_penalty(&self) -> u64 {
        self.config.miss_latency + self.config.obitvector_fill_latency
    }

    /// Installs a walked translation into both levels.
    pub fn fill(&mut self, entry: TlbEntry) {
        self.l2.insert(entry);
        self.l1.insert(entry);
    }

    /// Classic single-page shootdown (invalidate everywhere). This is the
    /// expensive operation overlay-on-write avoids; counted separately
    /// from OBitVector updates. Returns `true` if a cached entry was
    /// actually dropped — the multi-core machine uses this to account
    /// cross-core invalidations.
    pub fn shootdown(&mut self, asid: Asid, vpn: Vpn) -> bool {
        self.stats.shootdowns.inc();
        let l1 = self.l1.invalidate(asid, vpn);
        let l2 = self.l2.invalidate(asid, vpn);
        l1 || l2
    }

    /// Delivers a coherence-carried OBitVector update for one line
    /// (§4.3.3): if this TLB caches the page, the bit is set (overlaying
    /// write) or cleared in place. Returns `true` if any cached entry was
    /// updated.
    pub fn coherence_obit_update(
        &mut self,
        asid: Asid,
        vpn: Vpn,
        line: usize,
        present: bool,
    ) -> bool {
        let mut hit = false;
        for array in [&mut self.l1, &mut self.l2] {
            if let Some(e) = array.entry_mut(asid, vpn) {
                if present {
                    e.obitvec.set(line);
                } else {
                    e.obitvec.clear(line);
                }
                hit = true;
            }
        }
        if hit {
            self.stats.obit_updates.inc();
        }
        hit
    }

    /// Replaces the whole OBitVector of a cached page (promotion actions,
    /// §4.3.4, clear the vector in one step).
    pub fn replace_obitvec(&mut self, asid: Asid, vpn: Vpn, obitvec: OBitVector) -> bool {
        let mut hit = false;
        for array in [&mut self.l1, &mut self.l2] {
            if let Some(e) = array.entry_mut(asid, vpn) {
                e.obitvec = obitvec;
                hit = true;
            }
        }
        hit
    }

    /// Reads the cached entry without updating LRU state (tests and
    /// invariant checks).
    pub fn peek(&self, asid: Asid, vpn: Vpn) -> Option<TlbEntry> {
        self.l1.find(asid, vpn).and_then(|(s, w)| self.l1.entries[s * self.l1.ways + w]).or_else(
            || self.l2.find(asid, vpn).and_then(|(s, w)| self.l2.entries[s * self.l2.ways + w]),
        )
    }

    /// Flushes all entries of a process (context destruction).
    pub fn flush_asid(&mut self, asid: Asid) {
        self.l1.flush_asid(asid);
        self.l2.flush_asid(asid);
    }

    /// Total valid entries across both levels.
    pub fn occupancy(&self) -> usize {
        self.l1.occupancy() + self.l2.occupancy()
    }

    /// Serializes both levels (entries plus LRU ranks) and statistics.
    /// Geometry comes from the config and is not re-encoded.
    pub fn encode_snapshot(&self, w: &mut SnapshotWriter) {
        self.l1.encode_snapshot(w);
        self.l2.encode_snapshot(w);
        self.stats.encode_snapshot(w);
    }

    /// Rebuilds a TLB with `config` geometry from [`encode_snapshot`]
    /// bytes.
    ///
    /// # Errors
    ///
    /// Returns [`PoError::Corrupted`] on truncation or malformed data;
    /// the caller must pass the same config the snapshot was taken with.
    pub fn decode_snapshot(config: TlbConfig, r: &mut SnapshotReader) -> PoResult<Self> {
        let l1 = TlbArray::decode_snapshot(r, config.l1_entries, config.l1_ways)?;
        let l2 = TlbArray::decode_snapshot(r, config.l2_entries, config.l2_ways)?;
        let stats = TlbStats::decode_snapshot(r)?;
        Ok(Self { config, l1, l2, stats })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use po_types::Ppn;
    use po_vm::PteFlags;

    fn entry(asid: u16, vpn: u64) -> TlbEntry {
        TlbEntry {
            asid: Asid::new(asid),
            vpn: Vpn::new(vpn),
            pte: Pte {
                ppn: Ppn::new(vpn + 1000),
                flags: PteFlags { present: true, writable: true, ..Default::default() },
            },
            obitvec: OBitVector::EMPTY,
        }
    }

    #[test]
    fn miss_fill_hit_progression() {
        let mut tlb = Tlb::new(TlbConfig::table2());
        let a = Asid::new(1);
        assert_eq!(tlb.lookup(a, Vpn::new(5)).outcome, TlbOutcome::Miss);
        tlb.fill(entry(1, 5));
        assert_eq!(tlb.lookup(a, Vpn::new(5)).outcome, TlbOutcome::L1Hit);
        assert_eq!(tlb.stats().misses.get(), 1);
        assert_eq!(tlb.stats().l1_hits.get(), 1);
    }

    #[test]
    fn latencies_match_table2() {
        let mut tlb = Tlb::new(TlbConfig::table2());
        tlb.fill(entry(1, 5));
        assert_eq!(tlb.lookup(Asid::new(1), Vpn::new(5)).latency, 1);
        let miss = tlb.lookup(Asid::new(1), Vpn::new(99));
        assert_eq!(miss.latency, 11);
        assert_eq!(tlb.miss_penalty(), 1000);
    }

    #[test]
    fn l2_hit_promotes_to_l1() {
        let mut tlb = Tlb::new(TlbConfig::table2());
        tlb.fill(entry(1, 7));
        // Evict vpn 7 from L1 by filling conflicting entries: L1 has 16
        // sets, so vpns 7+16k collide.
        for k in 1..=4u64 {
            tlb.fill(entry(1, 7 + 16 * k));
        }
        let l = tlb.lookup(Asid::new(1), Vpn::new(7));
        assert_eq!(l.outcome, TlbOutcome::L2Hit);
        assert_eq!(tlb.lookup(Asid::new(1), Vpn::new(7)).outcome, TlbOutcome::L1Hit);
    }

    #[test]
    fn asid_disambiguates_identical_vpns() {
        let mut tlb = Tlb::new(TlbConfig::table2());
        let mut e1 = entry(1, 9);
        e1.pte.ppn = Ppn::new(111);
        let mut e2 = entry(2, 9);
        e2.pte.ppn = Ppn::new(222);
        tlb.fill(e1);
        tlb.fill(e2);
        assert_eq!(tlb.lookup(Asid::new(1), Vpn::new(9)).entry.unwrap().pte.ppn, Ppn::new(111));
        assert_eq!(tlb.lookup(Asid::new(2), Vpn::new(9)).entry.unwrap().pte.ppn, Ppn::new(222));
    }

    #[test]
    fn shootdown_removes_both_levels() {
        let mut tlb = Tlb::new(TlbConfig::table2());
        tlb.fill(entry(1, 3));
        assert!(tlb.shootdown(Asid::new(1), Vpn::new(3)), "entry was resident");
        assert!(!tlb.shootdown(Asid::new(1), Vpn::new(3)), "nothing left to drop");
        assert_eq!(tlb.lookup(Asid::new(1), Vpn::new(3)).outcome, TlbOutcome::Miss);
        assert_eq!(tlb.stats().shootdowns.get(), 2);
    }

    #[test]
    fn coherence_update_flips_single_bit_without_invalidation() {
        let mut tlb = Tlb::new(TlbConfig::table2());
        tlb.fill(entry(1, 4));
        assert!(tlb.coherence_obit_update(Asid::new(1), Vpn::new(4), 10, true));
        let e = tlb.peek(Asid::new(1), Vpn::new(4)).unwrap();
        assert!(e.obitvec.contains(10));
        assert_eq!(e.obitvec.len(), 1);
        // Entry is still resident — no shootdown happened.
        assert_eq!(tlb.lookup(Asid::new(1), Vpn::new(4)).outcome, TlbOutcome::L1Hit);
        assert_eq!(tlb.stats().shootdowns.get(), 0);
        assert_eq!(tlb.stats().obit_updates.get(), 1);
    }

    #[test]
    fn coherence_update_misses_cleanly() {
        let mut tlb = Tlb::new(TlbConfig::table2());
        assert!(!tlb.coherence_obit_update(Asid::new(1), Vpn::new(4), 10, true));
        assert_eq!(tlb.stats().obit_updates.get(), 0);
    }

    #[test]
    fn replace_obitvec_clears_on_promotion() {
        let mut tlb = Tlb::new(TlbConfig::table2());
        let mut e = entry(1, 6);
        e.obitvec = OBitVector::from_raw(0xff);
        tlb.fill(e);
        assert!(tlb.replace_obitvec(Asid::new(1), Vpn::new(6), OBitVector::EMPTY));
        assert!(tlb.peek(Asid::new(1), Vpn::new(6)).unwrap().obitvec.is_empty());
    }

    #[test]
    fn flush_asid_clears_only_that_process() {
        let mut tlb = Tlb::new(TlbConfig::table2());
        tlb.fill(entry(1, 1));
        tlb.fill(entry(2, 2));
        tlb.flush_asid(Asid::new(1));
        assert_eq!(tlb.lookup(Asid::new(1), Vpn::new(1)).outcome, TlbOutcome::Miss);
        assert_eq!(tlb.lookup(Asid::new(2), Vpn::new(2)).outcome, TlbOutcome::L1Hit);
    }

    #[test]
    fn capacity_is_bounded() {
        let mut tlb = Tlb::new(TlbConfig::table2());
        for v in 0..5000u64 {
            tlb.fill(entry(1, v));
        }
        assert!(tlb.occupancy() <= 64 + 1024);
    }
}
