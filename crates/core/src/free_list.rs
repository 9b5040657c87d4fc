//! In-memory free-segment lists (§4.4.3).
//!
//! The paper stores OMS free lists *in the free segments themselves*:
//! "For each segment size, the memory controller maintains a memory
//! location or register that points to a free segment of that size.
//! Each free segment in turn stores a pointer to another free segment
//! of the same size… To reduce the number of memory operations needed
//! to manage free segments, we use a grouped-linked-list mechanism,
//! similar to the one used by some file systems."
//!
//! This module implements both variants against the functional
//! [`DataStore`], counting the DRAM line accesses each needs:
//!
//! * [`NaiveFreeList`] — classic single-linked list: every pop reads the
//!   head segment's next-pointer line; every push writes one.
//! * [`GroupedFreeList`] — FFS-style grouping: a *leader* free segment
//!   holds up to G pointers to other free segments plus a link to the
//!   next leader. The controller keeps the current leader's pointer
//!   block in a register, so G consecutive pops/pushes cost one line
//!   access instead of G.
//!
//! [`crate::OverlayMemoryStore`] models the same structure at the
//! accounting level; `tests` below check that the two agree on
//! behavior and quantify the memory-operation savings.

use crate::segment::SegmentClass;
use po_dram::DataStore;
use po_types::{Counter, MainMemAddr};

/// Memory-operation counts (the §4.4.3 optimization target).
#[derive(Clone, Debug, Default)]
pub struct FreeListStats {
    /// DRAM line reads performed by list maintenance.
    pub line_reads: Counter,
    /// DRAM line writes performed by list maintenance.
    pub line_writes: Counter,
}

impl FreeListStats {
    /// Total line accesses.
    pub fn total(&self) -> u64 {
        self.line_reads.get() + self.line_writes.get()
    }
}

fn read_u64(mem: &DataStore, addr: MainMemAddr) -> u64 {
    let line = mem.read_line(addr.line_base());
    let off = addr.line_offset() & !7;
    let mut b = [0u8; 8];
    b.copy_from_slice(&line.as_bytes()[off..off + 8]);
    u64::from_le_bytes(b)
}

fn write_u64(mem: &mut DataStore, addr: MainMemAddr, value: u64) {
    let mut line = mem.read_line(addr.line_base());
    let off = addr.line_offset() & !7;
    line.as_mut_bytes()[off..off + 8].copy_from_slice(&value.to_le_bytes());
    mem.write_line(addr.line_base(), line);
}

/// Sentinel for "no segment".
const NIL: u64 = u64::MAX;

/// The classic single-linked free list: each free segment's first word
/// points to the next free segment.
#[derive(Clone, Debug)]
pub struct NaiveFreeList {
    head: u64,
    len: usize,
    stats: FreeListStats,
}

impl NaiveFreeList {
    /// Creates an empty list.
    pub fn new() -> Self {
        Self { head: NIL, len: 0, stats: FreeListStats::default() }
    }

    /// Number of free segments.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when no segment is free.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Memory-operation statistics.
    pub fn stats(&self) -> &FreeListStats {
        &self.stats
    }

    /// Adds a free segment: writes its next-pointer (one line write).
    pub fn push(&mut self, mem: &mut DataStore, seg: MainMemAddr) {
        write_u64(mem, seg, self.head);
        self.stats.line_writes.inc();
        self.head = seg.raw();
        self.len += 1;
    }

    /// Takes a free segment: reads the head's next-pointer (one line
    /// read).
    pub fn pop(&mut self, mem: &DataStore) -> Option<MainMemAddr> {
        if self.head == NIL {
            return None;
        }
        let seg = MainMemAddr::new(self.head);
        self.head = read_u64(mem, seg);
        self.stats.line_reads.inc();
        self.len -= 1;
        Some(seg)
    }
}

impl Default for NaiveFreeList {
    fn default() -> Self {
        Self::new()
    }
}

/// The grouped free list of §4.4.3.
///
/// Leader layout (in the leader segment's first cache line):
/// `[count: u64][next_leader: u64][ptr[0..G]: u64…]` with
/// `G = min(6, class capacity)` pointers per 64 B line (two header
/// words + six pointers). The controller caches the active leader's
/// line in a register, so pushes and pops within a group cost **zero**
/// additional line accesses until the group fills/empties.
///
/// # Example
///
/// ```
/// use po_overlay::free_list::GroupedFreeList;
/// use po_overlay::SegmentClass;
/// use po_dram::DataStore;
/// use po_types::MainMemAddr;
///
/// let mut mem = DataStore::new();
/// let mut list = GroupedFreeList::new(SegmentClass::B256);
/// for i in 0..10u64 {
///     list.push(&mut mem, MainMemAddr::new(0x10_0000 + i * 256));
/// }
/// assert_eq!(list.len(), 10);
/// let seg = list.pop(&mut mem).unwrap();
/// assert_eq!(list.len(), 9);
/// assert_eq!(seg.raw() % 256, 0);
/// ```
#[derive(Clone, Debug)]
pub struct GroupedFreeList {
    class: SegmentClass,
    /// Address of the current leader segment (NIL when empty).
    leader: u64,
    /// Register-cached copy of the leader's header: (count, next_leader,
    /// pointers).
    cached: Option<(u64, u64, [u64; Self::GROUP])>,
    len: usize,
    stats: FreeListStats,
}

impl GroupedFreeList {
    /// Pointers per leader line: 64 B line minus two u64 header words.
    pub const GROUP: usize = 6;

    /// Creates an empty grouped list for `class` segments.
    pub fn new(class: SegmentClass) -> Self {
        Self { class, leader: NIL, cached: None, len: 0, stats: FreeListStats::default() }
    }

    /// The segment class managed.
    pub fn class(&self) -> SegmentClass {
        self.class
    }

    /// Number of free segments (leaders included).
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when no segment is free.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Memory-operation statistics.
    pub fn stats(&self) -> &FreeListStats {
        &self.stats
    }

    fn load_leader(&mut self, mem: &DataStore) {
        if self.cached.is_some() || self.leader == NIL {
            return;
        }
        let base = MainMemAddr::new(self.leader);
        let count = read_u64(mem, base);
        let next = read_u64(mem, base.add(8));
        let mut ptrs = [NIL; Self::GROUP];
        for (i, p) in ptrs.iter_mut().enumerate() {
            *p = read_u64(mem, base.add(16 + 8 * i as u64));
        }
        // One line holds the whole header: a single line read.
        self.stats.line_reads.inc();
        self.cached = Some((count, next, ptrs));
    }

    fn store_leader(&mut self, mem: &mut DataStore) {
        if let (Some((count, next, ptrs)), leader) = (&self.cached, self.leader) {
            if leader != NIL {
                let base = MainMemAddr::new(leader);
                write_u64(mem, base, *count);
                write_u64(mem, base.add(8), *next);
                for (i, p) in ptrs.iter().enumerate() {
                    write_u64(mem, base.add(16 + 8 * i as u64), *p);
                }
                // One line write (all words share the leader's first line).
                self.stats.line_writes.inc();
            }
        }
    }

    /// Adds a free segment.
    pub fn push(&mut self, mem: &mut DataStore, seg: MainMemAddr) {
        debug_assert_eq!(seg.raw() % self.class.bytes() as u64, 0, "misaligned segment");
        self.load_leader(mem);
        match &mut self.cached {
            Some((count, _, ptrs)) if (*count as usize) < Self::GROUP => {
                ptrs[*count as usize] = seg.raw();
                *count += 1;
                // Register-cached update: no memory op until spill.
            }
            _ => {
                // Current leader full (or no leader): `seg` becomes the
                // new leader; the old leader is linked behind it.
                self.store_leader(mem);
                let old_leader = self.leader;
                self.leader = seg.raw();
                self.cached = Some((0, old_leader, [NIL; Self::GROUP]));
            }
        }
        self.len += 1;
    }

    /// Takes a free segment.
    pub fn pop(&mut self, mem: &mut DataStore) -> Option<MainMemAddr> {
        if self.leader == NIL {
            return None;
        }
        self.load_leader(mem);
        // Statically infallible: load_leader just populated `cached`.
        let (count, next, ptrs) = self.cached.as_mut().expect("leader loaded");
        if *count > 0 {
            *count -= 1;
            let seg = ptrs[*count as usize];
            self.len -= 1;
            return Some(MainMemAddr::new(seg));
        }
        // Group empty: hand out the leader itself and advance.
        let seg = self.leader;
        self.leader = *next;
        self.cached = None;
        self.len -= 1;
        Some(MainMemAddr::new(seg))
    }

    /// Flushes the register-cached leader header back to memory (e.g. on
    /// controller context save).
    pub fn flush(&mut self, mem: &mut DataStore) {
        self.store_leader(mem);
    }
}

/// A fully memory-backed Overlay Memory Store allocator: five
/// [`GroupedFreeList`]s (one per segment class) whose bookkeeping lives
/// in the free segments themselves, with larger segments split on
/// demand — the complete §4.4.3 realization. Behaviorally equivalent to
/// the accounting-level [`crate::OverlayMemoryStore`] (see the
/// equivalence test below); additionally reports the memory operations
/// its management costs.
#[derive(Debug)]
pub struct MemoryBackedOms {
    lists: [GroupedFreeList; 5],
    managed_bytes: u64,
    used_bytes: u64,
}

impl MemoryBackedOms {
    /// Creates an empty store.
    pub fn new() -> Self {
        let mut classes = SegmentClass::ALL.into_iter();
        Self {
            lists: std::array::from_fn(|_| {
                // Statically infallible: the array and ALL have equal length.
                GroupedFreeList::new(classes.next().expect("five classes"))
            }),
            managed_bytes: 0,
            used_bytes: 0,
        }
    }

    fn idx(class: SegmentClass) -> usize {
        // Statically infallible: ALL enumerates every SegmentClass.
        SegmentClass::ALL.iter().position(|&c| c == class).expect("member")
    }

    /// Adds `frames` 4 KB pages at `base` (page-aligned) to the store.
    ///
    /// # Panics
    ///
    /// Panics if `base` is not page-aligned.
    pub fn add_chunk(&mut self, mem: &mut DataStore, base: MainMemAddr, frames: u64) {
        assert_eq!(base.page_offset(), 0, "OMS chunks must be page-aligned");
        for i in 0..frames {
            let addr = MainMemAddr::new(base.raw() + i * SegmentClass::K4.bytes() as u64);
            self.lists[Self::idx(SegmentClass::K4)].push(mem, addr);
        }
        self.managed_bytes += frames * SegmentClass::K4.bytes() as u64;
    }

    /// Allocates a segment of `class`, splitting larger segments when the
    /// class's list is dry.
    ///
    /// # Errors
    ///
    /// [`po_types::PoError::OverlayStoreExhausted`] when no segment of
    /// this or any larger class is free.
    pub fn allocate(
        &mut self,
        mem: &mut DataStore,
        class: SegmentClass,
    ) -> po_types::PoResult<MainMemAddr> {
        let i = Self::idx(class);
        if let Some(seg) = self.lists[i].pop(mem) {
            self.used_bytes += class.bytes() as u64;
            return Ok(seg);
        }
        let larger = class.next_larger().ok_or(po_types::PoError::OverlayStoreExhausted)?;
        // Split one larger segment into two of this class; keep one.
        let big = self.allocate_for_split(mem, larger)?;
        let half = class.bytes() as u64;
        self.lists[i].push(mem, MainMemAddr::new(big.raw() + half));
        self.used_bytes += half;
        Ok(big)
    }

    fn allocate_for_split(
        &mut self,
        mem: &mut DataStore,
        class: SegmentClass,
    ) -> po_types::PoResult<MainMemAddr> {
        let i = Self::idx(class);
        if let Some(seg) = self.lists[i].pop(mem) {
            return Ok(seg);
        }
        let larger = class.next_larger().ok_or(po_types::PoError::OverlayStoreExhausted)?;
        let big = self.allocate_for_split(mem, larger)?;
        let half = class.bytes() as u64;
        self.lists[i].push(mem, MainMemAddr::new(big.raw() + half));
        Ok(big)
    }

    /// Returns a segment to its class's free list.
    pub fn free(&mut self, mem: &mut DataStore, base: MainMemAddr, class: SegmentClass) {
        self.lists[Self::idx(class)].push(mem, base);
        self.used_bytes -= class.bytes() as u64;
    }

    /// Bytes currently allocated.
    pub fn bytes_in_use(&self) -> u64 {
        self.used_bytes
    }

    /// Bytes under management.
    pub fn bytes_managed(&self) -> u64 {
        self.managed_bytes
    }

    /// Total memory operations spent on free-list maintenance.
    pub fn management_memory_ops(&self) -> u64 {
        self.lists.iter().map(|l| l.stats().total()).sum()
    }
}

impl Default for MemoryBackedOms {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn seg(i: u64) -> MainMemAddr {
        MainMemAddr::new(0x100_0000 + i * 256)
    }

    #[test]
    fn naive_lifo_behavior() {
        let mut mem = DataStore::new();
        let mut list = NaiveFreeList::new();
        assert!(list.pop(&mem).is_none());
        for i in 0..5 {
            list.push(&mut mem, seg(i));
        }
        assert_eq!(list.len(), 5);
        for i in (0..5).rev() {
            assert_eq!(list.pop(&mem), Some(seg(i)));
        }
        assert!(list.is_empty());
    }

    #[test]
    fn grouped_returns_every_segment_exactly_once() {
        let mut mem = DataStore::new();
        let mut list = GroupedFreeList::new(SegmentClass::B256);
        let n = 100u64;
        for i in 0..n {
            list.push(&mut mem, seg(i));
        }
        assert_eq!(list.len(), n as usize);
        let mut got = BTreeSet::new();
        while let Some(s) = list.pop(&mut mem) {
            assert!(got.insert(s.raw()), "duplicate segment {s}");
        }
        assert_eq!(got.len(), n as usize);
        let expected: BTreeSet<u64> = (0..n).map(|i| seg(i).raw()).collect();
        assert_eq!(got, expected);
    }

    #[test]
    fn grouped_survives_interleaved_push_pop() {
        let mut mem = DataStore::new();
        let mut list = GroupedFreeList::new(SegmentClass::B256);
        let mut live: BTreeSet<u64> = BTreeSet::new();
        let mut tick = 0u64;
        for round in 0..50u64 {
            for k in 0..(round % 9) {
                let s = seg(1000 + tick + k);
                list.push(&mut mem, s);
                live.insert(s.raw());
            }
            tick += 9;
            for _ in 0..(round % 7) {
                if let Some(s) = list.pop(&mut mem) {
                    assert!(live.remove(&s.raw()), "popped unknown segment {s}");
                }
            }
            assert_eq!(list.len(), live.len());
        }
        while let Some(s) = list.pop(&mut mem) {
            assert!(live.remove(&s.raw()));
        }
        assert!(live.is_empty());
    }

    #[test]
    fn grouping_reduces_memory_operations() {
        let n = 600u64;
        let mut mem1 = DataStore::new();
        let mut naive = NaiveFreeList::new();
        for i in 0..n {
            naive.push(&mut mem1, seg(i));
        }
        while naive.pop(&mem1).is_some() {}

        let mut mem2 = DataStore::new();
        let mut grouped = GroupedFreeList::new(SegmentClass::B256);
        for i in 0..n {
            grouped.push(&mut mem2, seg(i));
        }
        while grouped.pop(&mut mem2).is_some() {}

        let naive_ops = naive.stats().total();
        let grouped_ops = grouped.stats().total();
        assert!(
            grouped_ops * 3 < naive_ops,
            "grouped list ({grouped_ops} ops) must need far fewer memory ops \
             than the naive list ({naive_ops} ops)"
        );
    }

    #[test]
    fn leader_flush_persists_state_across_cache_loss() {
        let mut mem = DataStore::new();
        let mut list = GroupedFreeList::new(SegmentClass::B256);
        for i in 0..10 {
            list.push(&mut mem, seg(i));
        }
        list.flush(&mut mem);
        // Simulate a controller losing its register cache: rebuild from
        // the leader pointer alone.
        let mut reborn = GroupedFreeList::new(SegmentClass::B256);
        reborn.leader = list.leader;
        reborn.len = list.len;
        let mut got = BTreeSet::new();
        while let Some(s) = reborn.pop(&mut mem) {
            got.insert(s.raw());
        }
        assert_eq!(got.len(), 10);
    }

    #[test]
    fn empty_pop_is_none_and_free() {
        let mut mem = DataStore::new();
        let mut list = GroupedFreeList::new(SegmentClass::K4);
        assert!(list.pop(&mut mem).is_none());
        assert_eq!(list.stats().total(), 0);
    }

    #[test]
    fn memory_backed_oms_matches_accounting_store() {
        // Drive the memory-backed store and the accounting-level
        // `OverlayMemoryStore` with the same operation sequence: the
        // Ok/Err pattern and the byte accounting must agree step by step.
        use crate::store::OverlayMemoryStore;
        let mut mem = DataStore::new();
        let mut backed = MemoryBackedOms::new();
        let mut model = OverlayMemoryStore::new();
        backed.add_chunk(&mut mem, MainMemAddr::new(0x40_0000), 3);
        model.add_chunk(MainMemAddr::new(0x40_0000), 3);

        let classes = [
            SegmentClass::B256,
            SegmentClass::K1,
            SegmentClass::B256,
            SegmentClass::K4,
            SegmentClass::B512,
            SegmentClass::K2,
            SegmentClass::B256,
            SegmentClass::K4, // exhaustion expected here
            SegmentClass::B512,
        ];
        let mut live_backed = Vec::new();
        let mut live_model = Vec::new();
        for &class in &classes {
            let a = backed.allocate(&mut mem, class);
            let b = model.allocate(class);
            assert_eq!(a.is_ok(), b.is_ok(), "allocation outcome diverged for {class:?}");
            if let (Ok(x), Ok(y)) = (a, b) {
                live_backed.push((x, class));
                live_model.push((y, class));
            }
            assert_eq!(backed.bytes_in_use(), model.bytes_in_use());
        }
        // Free everything; both return to zero use.
        for ((x, cx), (y, cy)) in live_backed.into_iter().zip(live_model) {
            backed.free(&mut mem, x, cx);
            model.free(y, cy).unwrap();
            assert_eq!(backed.bytes_in_use(), model.bytes_in_use());
        }
        assert_eq!(backed.bytes_in_use(), 0);
        model.check_conservation().unwrap();
        // With so few live segments every list stayed within its
        // register-cached leader group: zero maintenance memory ops —
        // exactly the behaviour the grouped design buys (§4.4.3).
        assert_eq!(backed.management_memory_ops(), 0);
    }

    #[test]
    fn memory_backed_oms_segments_do_not_overlap() {
        let mut mem = DataStore::new();
        let mut s = MemoryBackedOms::new();
        s.add_chunk(&mut mem, MainMemAddr::new(0x80_0000), 2);
        let mut spans: Vec<(u64, u64)> = Vec::new();
        for &class in &[
            SegmentClass::B256,
            SegmentClass::B512,
            SegmentClass::B256,
            SegmentClass::K1,
            SegmentClass::K2,
            SegmentClass::B256,
        ] {
            let seg = s.allocate(&mut mem, class).unwrap();
            let lo = seg.raw();
            let hi = lo + class.bytes() as u64;
            for &(olo, ohi) in &spans {
                assert!(hi <= olo || lo >= ohi, "[{lo:#x},{hi:#x}) overlaps [{olo:#x},{ohi:#x})");
            }
            assert_eq!(lo % class.bytes() as u64, 0, "alignment");
            spans.push((lo, hi));
        }
    }
}
