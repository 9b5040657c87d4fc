//! The OS model: processes, `fork`, and classic copy-on-write.
//!
//! This is the baseline mechanism of the paper's §2.2/Figure 3a: on
//! `fork`, parent and child share every frame read-only in CoW mode; the
//! first write to a shared page (1) allocates a new frame, (2) copies
//! the *entire* 4 KB page, and (3) remaps with a TLB shootdown — all on
//! the critical path of the write. `po-sim` charges the corresponding
//! latencies; `po-overlay` replaces this path with overlay-on-write.

use crate::frame::FrameAllocator;
use crate::page_table::{PageTable, Pte, PteFlags};
use po_dram::DataStore;
use po_telemetry::{Event as TelemetryEvent, TelemetrySink};
use po_types::geometry::PAGE_SIZE;
use po_types::snapshot::{SnapshotReader, SnapshotWriter};
use po_types::{
    Asid, Counter, FaultInjector, FaultSite, FxHashMap, MainMemAddr, PoError, PoResult, Ppn,
    VirtAddr, Vpn,
};

/// Configuration of the VM substrate.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VmConfig {
    /// Main-memory size in 4 KB frames (default: 1 GiB).
    pub total_frames: u64,
}

impl Default for VmConfig {
    fn default() -> Self {
        Self { total_frames: 1 << 18 } // 1 GiB
    }
}

/// What a write did (returned so the timing layer can charge it).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct WriteOutcome {
    /// A copy-on-write fault copied a whole page.
    pub copied_page: bool,
    /// The frame newly allocated by the fault, if any.
    pub new_ppn: Option<Ppn>,
    /// The remap required a TLB shootdown.
    pub tlb_shootdown: bool,
}

po_types::stats! {
    /// OS statistics.
    #[derive(Clone, Debug, Default)]
    pub struct OsStats: "os" {
        /// `fork` calls.
        pub forks: Counter,
        /// Copy-on-write faults taken.
        pub cow_faults: Counter,
        /// Whole pages copied by CoW.
        pub pages_copied: Counter,
        /// Bytes copied by CoW.
        pub bytes_copied: Counter,
        /// TLB shootdowns issued by remaps.
        pub tlb_shootdowns: Counter,
        /// Frames handed out by [`OsModel::alloc_checked`]-guarded paths.
        pub frames_allocated: Counter,
        /// Contiguous chunks granted to the Overlay Memory Store (§4.4.3).
        pub oms_chunks_granted: Counter,
    }
}

/// The OS model. See the [crate docs](crate) for a `fork` example.
#[derive(Clone, Debug)]
pub struct OsModel {
    allocator: FrameAllocator,
    processes: FxHashMap<Asid, PageTable>,
    refcounts: FxHashMap<Ppn, u32>,
    next_asid: u16,
    stats: OsStats,
    faults: FaultInjector,
    /// Telemetry handle (never serialized; the machine re-installs it
    /// after a snapshot restore).
    sink: TelemetrySink,
}

impl OsModel {
    /// Boots the OS model.
    pub fn new(config: VmConfig) -> Self {
        Self {
            allocator: FrameAllocator::new(config.total_frames),
            processes: FxHashMap::default(),
            refcounts: FxHashMap::default(),
            next_asid: 1,
            stats: OsStats::default(),
            faults: FaultInjector::none(),
            sink: TelemetrySink::noop(),
        }
    }

    /// Installs the telemetry sink (a clone sharing the machine's core).
    pub fn set_telemetry(&mut self, sink: TelemetrySink) {
        self.sink = sink;
    }

    /// Installs a fault injector; [`FaultSite::OmsGrowRefused`] and
    /// [`FaultSite::FrameAllocExhausted`] are honored here.
    pub fn set_fault_injector(&mut self, faults: FaultInjector) {
        self.faults = faults;
    }

    /// Returns OS statistics.
    pub fn stats(&self) -> &OsStats {
        &self.stats
    }

    /// Returns the frame allocator (memory-consumption accounting).
    pub fn allocator(&self) -> &FrameAllocator {
        &self.allocator
    }

    /// Creates a new, empty process.
    ///
    /// # Errors
    ///
    /// Returns [`PoError::OutOfMemory`] if the 15-bit ASID space is
    /// exhausted.
    pub fn spawn(&mut self) -> PoResult<Asid> {
        if self.next_asid > Asid::MAX {
            return Err(PoError::OutOfMemory);
        }
        let asid = Asid::new(self.next_asid);
        self.next_asid += 1;
        self.processes.insert(asid, PageTable::new());
        Ok(asid)
    }

    /// Frame allocation with the [`FaultSite::FrameAllocExhausted`]
    /// guard: an injected fault makes the allocator report exhaustion
    /// without consuming capacity.
    fn alloc_checked(&mut self) -> PoResult<Ppn> {
        if self.faults.fire(FaultSite::FrameAllocExhausted) {
            self.sink.emit(|| TelemetryEvent::FaultInjected {
                site: FaultSite::FrameAllocExhausted.name(),
            });
            return Err(PoError::OutOfMemory);
        }
        self.stats.frames_allocated.inc();
        self.allocator.alloc()
    }

    fn table(&self, asid: Asid) -> PoResult<&PageTable> {
        self.processes.get(&asid).ok_or(PoError::Corrupted("unknown process"))
    }

    fn table_mut(&mut self, asid: Asid) -> PoResult<&mut PageTable> {
        self.processes.get_mut(&asid).ok_or(PoError::Corrupted("unknown process"))
    }

    /// Maps a fresh anonymous (zero) page at `vpn`.
    ///
    /// # Errors
    ///
    /// Propagates allocator exhaustion.
    pub fn map_anonymous(&mut self, asid: Asid, vpn: Vpn, writable: bool) -> PoResult<Ppn> {
        let ppn = self.alloc_checked()?;
        self.refcounts.insert(ppn, 1);
        let pte = Pte {
            ppn,
            flags: PteFlags { present: true, writable, cow: false, overlay_enabled: false },
        };
        self.table_mut(asid)?.map(vpn, pte);
        Ok(ppn)
    }

    /// Maps a range of `count` anonymous pages starting at `start`.
    pub fn map_range(
        &mut self,
        asid: Asid,
        start: Vpn,
        count: u64,
        writable: bool,
    ) -> PoResult<()> {
        for i in 0..count {
            self.map_anonymous(asid, Vpn::new(start.raw() + i), writable)?;
        }
        Ok(())
    }

    /// Allocates a bare frame without mapping it (e.g. the shared zero
    /// page of the sparse-data technique). The frame starts with zero
    /// references; map it with [`OsModel::map_shared_frame`].
    ///
    /// # Errors
    ///
    /// Propagates allocator exhaustion.
    pub fn alloc_frame(&mut self) -> PoResult<Ppn> {
        let ppn = self.alloc_checked()?;
        self.refcounts.insert(ppn, 0);
        Ok(ppn)
    }

    /// Maps `vpn` to an existing frame, sharing it (read-only + CoW).
    /// Used by the sparse-data-structure technique (§5.2): "all virtual
    /// pages of the data structure map to a zero physical page".
    ///
    /// # Errors
    ///
    /// Returns an error if the process does not exist.
    pub fn map_shared_frame(&mut self, asid: Asid, vpn: Vpn, ppn: Ppn) -> PoResult<()> {
        *self.refcounts.entry(ppn).or_insert(0) += 1;
        let pte = Pte {
            ppn,
            flags: PteFlags { present: true, writable: false, cow: true, overlay_enabled: false },
        };
        self.table_mut(asid)?.map(vpn, pte);
        Ok(())
    }

    /// Enables overlay semantics on an existing mapping (the OS-visible
    /// switch of §1: overlays can be "turned on or off").
    pub fn enable_overlays(&mut self, asid: Asid, vpn: Vpn) -> PoResult<()> {
        let pte = self.table_mut(asid)?.entry_mut(vpn).ok_or(PoError::Unmapped(vpn.base()))?;
        pte.flags.overlay_enabled = true;
        Ok(())
    }

    /// `fork`: clones the parent's address space; every present page
    /// becomes shared copy-on-write in both parent and child (§2.2).
    ///
    /// # Errors
    ///
    /// Propagates ASID exhaustion.
    pub fn fork(&mut self, parent: Asid) -> PoResult<Asid> {
        let child = self.spawn()?;
        let Self { processes, refcounts, .. } = self;
        let shared: PageTable = processes
            .get_mut(&parent)
            .ok_or(PoError::Corrupted("unknown process"))?
            .iter_mut()
            .filter(|(_, pte)| pte.flags.present)
            .map(|(vpn, pte)| {
                *refcounts.entry(pte.ppn).or_insert(1) += 1;
                pte.flags.cow = true;
                pte.flags.writable = false;
                (vpn, *pte)
            })
            .collect();
        processes.insert(child, shared);
        self.stats.forks.inc();
        Ok(child)
    }

    /// Translates `vaddr` in process `asid`.
    ///
    /// # Errors
    ///
    /// Returns [`PoError::Unmapped`] for an absent mapping.
    pub fn translate(&self, asid: Asid, vaddr: VirtAddr) -> PoResult<Pte> {
        self.table(asid)?
            .translate(vaddr)
            .filter(|p| p.flags.present)
            .ok_or(PoError::Unmapped(vaddr))
    }

    /// Physical byte address of `vaddr` in `asid`.
    pub fn phys_addr(&self, asid: Asid, vaddr: VirtAddr) -> PoResult<MainMemAddr> {
        let pte = self.translate(asid, vaddr)?;
        Ok(MainMemAddr::new(pte.ppn.base().raw() | vaddr.page_offset() as u64))
    }

    /// Reads one byte through the page tables.
    ///
    /// # Errors
    ///
    /// Returns [`PoError::Unmapped`] for an absent mapping.
    pub fn read(&self, asid: Asid, vaddr: VirtAddr, mem: &DataStore) -> PoResult<u8> {
        Ok(mem.read_byte(self.phys_addr(asid, vaddr)?))
    }

    /// Writes one byte through the page tables, taking a copy-on-write
    /// fault if needed. Returns what the fault did so the timing layer
    /// can charge it.
    ///
    /// # Errors
    ///
    /// Returns [`PoError::Unmapped`] for an absent mapping and
    /// [`PoError::ProtectionViolation`] for a write to a non-CoW
    /// read-only page.
    pub fn write(
        &mut self,
        asid: Asid,
        vaddr: VirtAddr,
        value: u8,
        mem: &mut DataStore,
    ) -> PoResult<WriteOutcome> {
        let outcome = self.prepare_write(asid, vaddr, mem)?;
        let pa = self.phys_addr(asid, vaddr)?;
        mem.write_byte(pa, value);
        Ok(outcome)
    }

    /// Resolves write permission for `vaddr`, performing the classic CoW
    /// copy if the page is shared. Does not write any data. This is the
    /// hook `po-sim` uses before timing the actual store.
    ///
    /// # Errors
    ///
    /// Same as [`OsModel::write`].
    pub fn prepare_write(
        &mut self,
        asid: Asid,
        vaddr: VirtAddr,
        mem: &mut DataStore,
    ) -> PoResult<WriteOutcome> {
        let vpn = vaddr.vpn();
        let pte = self.translate(asid, vaddr)?;
        if pte.flags.writable {
            return Ok(WriteOutcome::default());
        }
        if !pte.flags.cow {
            return Err(PoError::ProtectionViolation(vaddr));
        }
        self.stats.cow_faults.inc();
        let refs = self.refcounts.get(&pte.ppn).copied().unwrap_or(1);
        if refs == 1 {
            // Sole owner: just re-enable writes.
            let e = self
                .table_mut(asid)?
                .entry_mut(vpn)
                .ok_or(PoError::Corrupted("entry vanished between translate and update"))?;
            e.flags.cow = false;
            e.flags.writable = true;
            // Dropping CoW still requires the remap to be visible.
            self.stats.tlb_shootdowns.inc();
            return Ok(WriteOutcome { copied_page: false, new_ppn: None, tlb_shootdown: true });
        }
        // Shared: copy the whole page to a fresh frame (Figure 3a).
        let new_ppn = self.alloc_checked()?;
        mem.copy_frame(FrameAllocator::frame_addr(pte.ppn), FrameAllocator::frame_addr(new_ppn));
        *self
            .refcounts
            .get_mut(&pte.ppn)
            .ok_or(PoError::Corrupted("shared frame missing from refcounts"))? -= 1;
        self.refcounts.insert(new_ppn, 1);
        let e = self
            .table_mut(asid)?
            .entry_mut(vpn)
            .ok_or(PoError::Corrupted("entry vanished between translate and update"))?;
        e.ppn = new_ppn;
        e.flags.cow = false;
        e.flags.writable = true;
        self.stats.pages_copied.inc();
        self.stats.bytes_copied.add(PAGE_SIZE as u64);
        self.stats.tlb_shootdowns.inc();
        Ok(WriteOutcome { copied_page: true, new_ppn: Some(new_ppn), tlb_shootdown: true })
    }

    /// Unmaps a page, freeing its frame when the last reference drops.
    ///
    /// # Errors
    ///
    /// Returns [`PoError::Unmapped`] if the page was not mapped.
    pub fn unmap(&mut self, asid: Asid, vpn: Vpn, mem: &mut DataStore) -> PoResult<()> {
        let pte = self.table_mut(asid)?.unmap(vpn).ok_or(PoError::Unmapped(vpn.base()))?;
        let refs = self.refcounts.entry(pte.ppn).or_insert(1);
        *refs -= 1;
        if *refs == 0 {
            self.refcounts.remove(&pte.ppn);
            mem.free_frame(FrameAllocator::frame_addr(pte.ppn));
            self.allocator.free(pte.ppn);
        }
        Ok(())
    }

    /// Destroys a process, releasing all its frames.
    ///
    /// # Errors
    ///
    /// Returns an error if the process does not exist.
    pub fn kill(&mut self, asid: Asid, mem: &mut DataStore) -> PoResult<()> {
        let table = self.processes.remove(&asid).ok_or(PoError::Corrupted("unknown process"))?;
        for (_, pte) in table.iter() {
            let refs = self.refcounts.entry(pte.ppn).or_insert(1);
            *refs -= 1;
            if *refs == 0 {
                self.refcounts.remove(&pte.ppn);
                mem.free_frame(FrameAllocator::frame_addr(pte.ppn));
                self.allocator.free(pte.ppn);
            }
        }
        Ok(())
    }

    /// Grants the memory controller a contiguous chunk of `frames` frames
    /// for the Overlay Memory Store (§4.4.3: "the OS proactively
    /// allocates a chunk of free pages to the memory controller").
    ///
    /// # Errors
    ///
    /// Propagates allocator exhaustion.
    pub fn grant_oms_chunk(&mut self, frames: u64) -> PoResult<MainMemAddr> {
        if self.faults.fire(FaultSite::OmsGrowRefused) {
            // The OS is under memory pressure and declines to grow the
            // OMS (§4.4.3); the manager must reclaim or fail the access.
            self.sink
                .emit(|| TelemetryEvent::FaultInjected { site: FaultSite::OmsGrowRefused.name() });
            return Err(PoError::OutOfMemory);
        }
        self.stats.oms_chunks_granted.inc();
        let base = self.allocator.alloc_contiguous(frames)?;
        Ok(FrameAllocator::frame_addr(base))
    }

    /// Number of frames currently allocated (memory-footprint metric for
    /// Figure 8).
    pub fn frames_allocated(&self) -> u64 {
        self.allocator.allocated()
    }

    /// Every mapped page of a process, in VPN order.
    ///
    /// # Errors
    ///
    /// Returns an error if the process does not exist.
    pub fn pages(&self, asid: Asid) -> PoResult<impl Iterator<Item = (Vpn, Pte)> + '_> {
        Ok(self.table(asid)?.iter())
    }

    /// Serializes the OS model (allocator, page tables, refcounts,
    /// stats). Maps are emitted in sorted key order so the encoding is
    /// byte-stable. The fault injector is *not* serialized here — the
    /// machine snapshots it once and redistributes it on restore.
    pub fn encode_snapshot(&self, w: &mut SnapshotWriter) {
        self.allocator.encode_snapshot(w);
        w.put_u16(self.next_asid);
        let mut asids: Vec<Asid> = self.processes.keys().copied().collect();
        asids.sort_unstable_by_key(|a| a.raw());
        w.put_len(asids.len());
        for asid in asids {
            w.put_u16(asid.raw());
            let table = &self.processes[&asid];
            w.put_len(table.mapped_pages());
            for (vpn, pte) in table.iter() {
                w.put_u64(vpn.raw());
                w.put_u64(pte.ppn.raw());
                let f = pte.flags;
                w.put_u8(
                    f.present as u8
                        | (f.writable as u8) << 1
                        | (f.cow as u8) << 2
                        | (f.overlay_enabled as u8) << 3,
                );
            }
        }
        let mut refs: Vec<(u64, u32)> = self.refcounts.iter().map(|(p, c)| (p.raw(), *c)).collect();
        refs.sort_unstable();
        w.put_len(refs.len());
        for (ppn, count) in refs {
            w.put_u64(ppn);
            w.put_u32(count);
        }
        self.stats.encode_snapshot(w);
    }

    /// Rebuilds an OS model from [`encode_snapshot`] bytes. The restored
    /// model carries an inert fault injector; install the machine's via
    /// [`OsModel::set_fault_injector`].
    ///
    /// # Errors
    ///
    /// Returns [`PoError::Corrupted`] on truncation or malformed data.
    pub fn decode_snapshot(r: &mut SnapshotReader) -> PoResult<Self> {
        let allocator = FrameAllocator::decode_snapshot(r)?;
        let next_asid = r.get_u16()?;
        let nproc = r.get_len()?;
        let mut processes = FxHashMap::with_capacity_and_hasher(nproc, Default::default());
        for _ in 0..nproc {
            let raw_asid = r.get_u16()?;
            if raw_asid > Asid::MAX {
                return Err(PoError::Corrupted("snapshot ASID exceeds 15 bits"));
            }
            let asid = Asid::new(raw_asid);
            let n = r.get_len()?;
            let mut table = PageTable::new();
            for _ in 0..n {
                let vpn = Vpn::new(r.get_u64()?);
                let ppn = Ppn::new(r.get_u64()?);
                let f = r.get_u8()?;
                if f & !0xF != 0 {
                    return Err(PoError::Corrupted("snapshot PTE flags have unknown bits"));
                }
                let flags = PteFlags {
                    present: f & 1 != 0,
                    writable: f & 2 != 0,
                    cow: f & 4 != 0,
                    overlay_enabled: f & 8 != 0,
                };
                table.map(vpn, Pte { ppn, flags });
            }
            processes.insert(asid, table);
        }
        let nrefs = r.get_len()?;
        let mut refcounts = FxHashMap::with_capacity_and_hasher(nrefs, Default::default());
        for _ in 0..nrefs {
            let ppn = Ppn::new(r.get_u64()?);
            refcounts.insert(ppn, r.get_u32()?);
        }
        let stats = OsStats::decode_snapshot(r)?;
        Ok(Self {
            allocator,
            processes,
            refcounts,
            next_asid,
            stats,
            faults: FaultInjector::none(),
            sink: TelemetrySink::noop(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (OsModel, DataStore, Asid) {
        let mut os = OsModel::new(VmConfig { total_frames: 4096 });
        let mem = DataStore::new();
        let p = os.spawn().unwrap();
        (os, mem, p)
    }

    #[test]
    fn unmapped_access_faults() {
        let (mut os, mut mem, p) = setup();
        let va = VirtAddr::new(0x5000);
        assert!(matches!(os.read(p, va, &mem), Err(PoError::Unmapped(_))));
        assert!(matches!(os.write(p, va, 1, &mut mem), Err(PoError::Unmapped(_))));
    }

    #[test]
    fn write_read_roundtrip() {
        let (mut os, mut mem, p) = setup();
        os.map_anonymous(p, Vpn::new(4), true).unwrap();
        let va = VirtAddr::new(4 * 4096 + 17);
        os.write(p, va, 0xCD, &mut mem).unwrap();
        assert_eq!(os.read(p, va, &mem).unwrap(), 0xCD);
    }

    #[test]
    fn fork_shares_then_copies_on_write() {
        let (mut os, mut mem, p) = setup();
        os.map_anonymous(p, Vpn::new(1), true).unwrap();
        let va = VirtAddr::new(0x1000);
        os.write(p, va, 7, &mut mem).unwrap();

        let frames_before = os.frames_allocated();
        let c = os.fork(p).unwrap();
        assert_eq!(os.frames_allocated(), frames_before, "fork allocates nothing");

        // Both see the pre-fork data.
        assert_eq!(os.read(p, va, &mem).unwrap(), 7);
        assert_eq!(os.read(c, va, &mem).unwrap(), 7);

        // Parent write triggers a full-page copy.
        let out = os.write(p, va, 9, &mut mem).unwrap();
        assert!(out.copied_page);
        assert!(out.tlb_shootdown);
        assert_eq!(os.frames_allocated(), frames_before + 1);

        // Isolation: child still sees the old value.
        assert_eq!(os.read(p, va, &mem).unwrap(), 9);
        assert_eq!(os.read(c, va, &mem).unwrap(), 7);
    }

    #[test]
    fn sole_owner_cow_skips_the_copy() {
        let (mut os, mut mem, p) = setup();
        os.map_anonymous(p, Vpn::new(1), true).unwrap();
        os.write(p, VirtAddr::new(0x1000), 5, &mut mem).unwrap();
        let c = os.fork(p).unwrap();
        // Parent copies on its write...
        os.write(p, VirtAddr::new(0x1000), 6, &mut mem).unwrap();
        let frames = os.frames_allocated();
        // ...after which the child is sole owner: its write must not copy.
        let out = os.write(c, VirtAddr::new(0x1000), 8, &mut mem).unwrap();
        assert!(!out.copied_page);
        assert_eq!(os.frames_allocated(), frames);
        assert_eq!(os.read(c, VirtAddr::new(0x1000), &mem).unwrap(), 8);
    }

    #[test]
    fn second_write_to_same_page_is_fault_free() {
        let (mut os, mut mem, p) = setup();
        os.map_anonymous(p, Vpn::new(1), true).unwrap();
        let _c = os.fork(p).unwrap();
        os.write(p, VirtAddr::new(0x1000), 1, &mut mem).unwrap();
        let out = os.write(p, VirtAddr::new(0x1040), 2, &mut mem).unwrap();
        assert!(!out.copied_page, "page already private");
        assert_eq!(os.stats().pages_copied.get(), 1);
    }

    #[test]
    fn write_to_plain_readonly_page_is_a_violation() {
        let (mut os, mut mem, p) = setup();
        os.map_anonymous(p, Vpn::new(2), false).unwrap();
        assert!(matches!(
            os.write(p, VirtAddr::new(0x2000), 1, &mut mem),
            Err(PoError::ProtectionViolation(_))
        ));
    }

    #[test]
    fn unmap_frees_frames_when_last_ref_drops() {
        let (mut os, mut mem, p) = setup();
        os.map_anonymous(p, Vpn::new(1), true).unwrap();
        let c = os.fork(p).unwrap();
        let before = os.frames_allocated();
        os.unmap(p, Vpn::new(1), &mut mem).unwrap();
        assert_eq!(os.frames_allocated(), before, "child still references the frame");
        os.unmap(c, Vpn::new(1), &mut mem).unwrap();
        assert_eq!(os.frames_allocated(), before - 1);
    }

    #[test]
    fn kill_releases_everything() {
        let (mut os, mut mem, p) = setup();
        os.map_range(p, Vpn::new(0), 10, true).unwrap();
        assert_eq!(os.frames_allocated(), 10);
        os.kill(p, &mut mem).unwrap();
        assert_eq!(os.frames_allocated(), 0);
    }

    #[test]
    fn map_range_maps_each_page() {
        let (mut os, mut mem, p) = setup();
        os.map_range(p, Vpn::new(100), 4, true).unwrap();
        for i in 0..4u64 {
            os.write(p, VirtAddr::new((100 + i) * 4096), i as u8, &mut mem).unwrap();
        }
        for i in 0..4u64 {
            assert_eq!(os.read(p, VirtAddr::new((100 + i) * 4096), &mem).unwrap(), i as u8);
        }
    }

    #[test]
    fn grant_oms_chunk_consumes_frames() {
        let (mut os, _mem, _p) = setup();
        let before = os.frames_allocated();
        let addr = os.grant_oms_chunk(16).unwrap();
        assert_eq!(addr.page_offset(), 0);
        assert_eq!(os.frames_allocated(), before + 16);
    }

    #[test]
    fn enable_overlays_sets_flag() {
        let (mut os, _mem, p) = setup();
        os.map_anonymous(p, Vpn::new(3), true).unwrap();
        os.enable_overlays(p, Vpn::new(3)).unwrap();
        assert!(os.translate(p, VirtAddr::new(0x3000)).unwrap().flags.overlay_enabled);
    }
}
