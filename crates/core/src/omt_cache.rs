//! The OMT cache at the memory controller (§4.4.4, Figure 6 Ë).
//!
//! Caches recently used OMT entries (OBitVector, OMSaddr, segment
//! metadata). Accessed only when an overlay-space request misses the
//! entire cache hierarchy, so a small (64-entry, Table 2) fully
//! associative structure suffices. The authoritative entry data lives in
//! [`crate::Omt`]; this model tracks which OPNs are cached, LRU
//! recency, dirtiness (entries modified by the controller are written
//! back on eviction) and hit/miss statistics — everything the timing and
//! cost models need.

use po_types::snapshot::{SnapshotReader, SnapshotWriter};
use po_types::{Counter, Opn, PoError, PoResult};

po_types::stats! {
    /// OMT-cache statistics.
    #[derive(Clone, Debug, Default)]
    pub struct OmtCacheStats: "omt_cache" {
        /// Lookup hits.
        pub hits: Counter,
        /// Lookup misses (each costs an OMT walk).
        pub misses: Counter,
        /// Dirty entries written back to the in-memory OMT on eviction.
        pub writebacks: Counter,
    }
}

impl OmtCacheStats {
    /// Hit rate over all lookups.
    pub fn hit_rate(&self) -> f64 {
        po_types::stats::ratio(self.hits.get(), self.hits.get() + self.misses.get())
    }
}

#[derive(Clone, Copy, Debug)]
struct Slot {
    opn: Opn,
    dirty: bool,
    last_used: u64,
}

/// The 64-entry OMT cache.
///
/// # Example
///
/// ```
/// use po_overlay::OmtCache;
/// use po_types::{Asid, Opn, Vpn};
///
/// let mut cache = OmtCache::new(64);
/// let opn = Opn::encode(Asid::new(1), Vpn::new(7));
/// assert!(!cache.access(opn, false)); // cold miss
/// assert!(cache.access(opn, false));  // now cached
/// ```
#[derive(Clone, Debug)]
pub struct OmtCache {
    capacity: usize,
    slots: Vec<Slot>,
    tick: u64,
    stats: OmtCacheStats,
}

impl OmtCache {
    /// Creates an empty cache of `capacity` entries (Table 2: 64).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "OMT cache needs at least one entry");
        Self { capacity, slots: Vec::new(), tick: 0, stats: OmtCacheStats::default() }
    }

    /// Returns statistics.
    pub fn stats(&self) -> &OmtCacheStats {
        &self.stats
    }

    /// Looks up `opn`, inserting it on a miss (the controller always
    /// walks and fills). `modify` marks the cached entry dirty (the
    /// controller updated the OBitVector or segment metadata). Returns
    /// `true` on a hit.
    pub fn access(&mut self, opn: Opn, modify: bool) -> bool {
        self.tick += 1;
        if let Some(slot) = self.slots.iter_mut().find(|s| s.opn == opn) {
            slot.last_used = self.tick;
            slot.dirty |= modify;
            self.stats.hits.inc();
            return true;
        }
        self.stats.misses.inc();
        let new = Slot { opn, dirty: modify, last_used: self.tick };
        if self.slots.len() < self.capacity {
            self.slots.push(new);
        } else {
            // Statically infallible: this branch means slots.len() >=
            // capacity, and new() asserts capacity > 0.
            let victim = self.slots.iter_mut().min_by_key(|s| s.last_used).expect("capacity > 0");
            if victim.dirty {
                self.stats.writebacks.inc();
            }
            *victim = new;
        }
        false
    }

    /// Drops `opn` from the cache (overlay destroyed); counts a
    /// writeback if the entry was dirty.
    pub fn invalidate(&mut self, opn: Opn) {
        if let Some(pos) = self.slots.iter().position(|s| s.opn == opn) {
            if self.slots[pos].dirty {
                self.stats.writebacks.inc();
            }
            self.slots.swap_remove(pos);
        }
    }

    /// Whether `opn` is currently cached (no state change).
    pub fn contains(&self, opn: Opn) -> bool {
        self.slots.iter().any(|s| s.opn == opn)
    }

    /// Current occupancy.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// `true` when no entries are cached.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Serializes the slot table (in table order), the LRU tick and
    /// stats. The capacity is configuration, not state, and is not
    /// re-encoded.
    pub fn encode_snapshot(&self, w: &mut SnapshotWriter) {
        w.put_u64(self.tick);
        w.put_len(self.slots.len());
        for s in &self.slots {
            w.put_u64(s.opn.raw());
            w.put_bool(s.dirty);
            w.put_u64(s.last_used);
        }
        self.stats.encode_snapshot(w);
    }

    /// Rebuilds a cache of `capacity` entries from
    /// [`OmtCache::encode_snapshot`] bytes.
    ///
    /// # Errors
    ///
    /// [`PoError::Corrupted`] on truncation or an oversized slot table.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero (as [`OmtCache::new`] does).
    pub fn decode_snapshot(capacity: usize, r: &mut SnapshotReader) -> PoResult<Self> {
        let mut cache = Self::new(capacity);
        cache.tick = r.get_u64()?;
        let n = r.get_len()?;
        if n > capacity {
            return Err(PoError::Corrupted("snapshot OMT-cache slots exceed capacity"));
        }
        for _ in 0..n {
            let opn = Opn::from_raw(r.get_u64()?);
            let dirty = r.get_bool()?;
            let last_used = r.get_u64()?;
            cache.slots.push(Slot { opn, dirty, last_used });
        }
        cache.stats = OmtCacheStats::decode_snapshot(r)?;
        Ok(cache)
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
    fn miss_then_hit() {
        let mut c = OmtCache::new(4);
        assert!(!c.access(opn(1), false));
        assert!(c.access(opn(1), false));
        assert_eq!(c.stats().hits.get(), 1);
        assert_eq!(c.stats().misses.get(), 1);
    }

    #[test]
    fn lru_eviction() {
        let mut c = OmtCache::new(2);
        c.access(opn(1), false);
        c.access(opn(2), false);
        c.access(opn(1), false); // 2 is now LRU
        c.access(opn(3), false); // evicts 2
        assert!(c.contains(opn(1)));
        assert!(!c.contains(opn(2)));
        assert!(c.contains(opn(3)));
    }

    #[test]
    fn dirty_eviction_counts_writeback() {
        let mut c = OmtCache::new(1);
        c.access(opn(1), true);
        c.access(opn(2), false); // evicts dirty 1
        assert_eq!(c.stats().writebacks.get(), 1);
        c.access(opn(3), false); // evicts clean 2
        assert_eq!(c.stats().writebacks.get(), 1);
    }

    #[test]
    fn invalidate_removes_and_writes_back() {
        let mut c = OmtCache::new(4);
        c.access(opn(1), true);
        c.invalidate(opn(1));
        assert!(!c.contains(opn(1)));
        assert_eq!(c.stats().writebacks.get(), 1);
        c.invalidate(opn(9)); // absent: no-op
        assert_eq!(c.stats().writebacks.get(), 1);
    }

    #[test]
    fn hit_rate_reflects_locality() {
        let mut c = OmtCache::new(64);
        for _ in 0..10 {
            for v in 0..8 {
                c.access(opn(v), false);
            }
        }
        assert!(c.stats().hit_rate() > 0.85);
    }
}
