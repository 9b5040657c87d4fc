//! The full simulated system.
//!
//! A [`Machine`] owns every hardware model and the [`Translation`]
//! state (page tables, OMT, OMS), and implements the complete
//! memory-access path of Figure 6: TLB (with OBitVector) → L1/L2/L3 →
//! memory controller (OMT cache → Overlay Memory Store) → DRAM, plus
//! the two write-divergence mechanisms under comparison: classic
//! **copy-on-write** (page copy + shootdown on the critical path,
//! Figure 3a) and **overlay-on-write** (single-line remap via
//! coherence, Figure 3b).
//!
//! All translation — walks, fills, privatization, fork, overlay
//! promotion — goes through [`Translation`]'s methods; its fields are
//! private to `po-xlate`. The segmentation-over-paging comparison is a
//! configuration value (`SystemConfig::backend`): the machine asks it
//! for the walk cost and whether overlays exist.

use crate::config::SystemConfig;
use crate::core_model::CoreModel;
use crate::stats::SimStats;
use crate::tlbs::{CoreTlbs, ShootdownCause};
use po_cache::{CacheHierarchy, L3BankQueue, Level, LookupResult, Prefetches, Writebacks};
use po_dram::{BandwidthBucket, DataStore, DramModel};
use po_overlay::{OverlayManager, OverlayStats};
use po_telemetry::{Event as TelemetryEvent, Layer, TelemetrySink};
use po_tlb::{Tlb, TlbEntry};
use po_types::geometry::{LINES_PER_PAGE, LINE_SIZE, PAGE_SIZE};
use po_types::snapshot::{fingerprint64, SnapshotReader, SnapshotWriter};
use po_types::{
    AccessKind, Asid, CrashStage, Cycle, FaultInjector, FaultPlan, FaultSite, LineData,
    MainMemAddr, OBitVector, Opn, PhysAddr, PoError, PoResult, Ppn, VirtAddr, Vpn,
};
use po_vm::OsModel;
use po_vm::WriteOutcome;
use po_xlate::Translation;

/// Shared-resource contention state, instantiated only with more than
/// one core (single-core runs never queue, so their timing is exactly
/// the pre-multi-core timing).
#[derive(Clone, Debug)]
struct Contention {
    /// Shared L3 bank queue.
    l3: L3BankQueue,
    /// DRAM channel-bandwidth token bucket.
    dram_bw: BandwidthBucket,
}

impl Contention {
    fn new(config: &SystemConfig) -> Self {
        Self {
            l3: L3BankQueue::new(config.l3_banks, config.l3_bank_occupancy),
            dram_bw: BandwidthBucket::new(config.dram_bandwidth_cycles_per_line),
        }
    }
}

/// Memory-consumption baseline recorded by
/// [`Machine::mark_memory_epoch`].
#[derive(Clone, Copy, Debug, Default)]
struct MemoryEpoch {
    /// Regular frames in use (excluding OMS grants) at the epoch.
    frames_net: u64,
    /// Overlay store bytes in use at the epoch.
    overlay_used: u64,
}

/// The simulated system. See the [crate docs](crate) for an example.
#[derive(Debug)]
pub struct Machine {
    config: SystemConfig,
    /// Address translation: the OS model plus the overlay machinery and
    /// the OMS grant ledger.
    xlate: Translation,
    mem: DataStore,
    /// Per-core TLBs and the coherence messages that keep them current.
    tlbs: CoreTlbs,
    caches: CacheHierarchy,
    dram: DramModel,
    /// Per-core timing models (index 0 is the core the single-threaded
    /// experiments run on).
    cores: Vec<CoreModel>,
    /// Shared-resource contention (L3 bank queue + DRAM bandwidth);
    /// `Some` iff more than one core is configured.
    contention: Option<Contention>,
    stats: SimStats,
    epoch: MemoryEpoch,
    faults: FaultInjector,
    /// Telemetry handle; clones are distributed to the layers that emit
    /// from inside their own logic by [`Machine::install_telemetry`].
    /// Never serialized into snapshots — telemetry-on and telemetry-off
    /// machines produce identical bytes.
    sink: TelemetrySink,
}

/// Bound on allocation attempts per access: each retry first reclaims
/// overlay memory, so attempts only repeat while reclaim keeps freeing
/// space (or a transient injected refusal clears).
const MAX_ALLOC_ATTEMPTS: usize = 8;

/// `"POSN"` — leading bytes of every machine snapshot.
const SNAPSHOT_MAGIC: u32 = 0x504F_534E;
/// Bumped whenever the snapshot byte layout changes (DESIGN.md §8).
/// v3: compaction counters in `StoreStats`, a new fault site in the
/// injector's per-site arrays.
/// v4: per-core timing models (len-prefixed), shared-resource
/// contention state on multi-core configurations, and the coherence /
/// contention counters in `SimStats`.
/// v5: a translation-design tag (`BackendKind::tag`) after the config
/// fingerprint, with the translation state block (OS model, overlay
/// manager, OMS grant ledger) serialized contiguously right after it.
const SNAPSHOT_VERSION: u32 = 5;

impl Machine {
    /// Builds a machine from a configuration.
    ///
    /// # Errors
    ///
    /// Currently infallible; reserved for configurations that pre-allocate
    /// resources.
    pub fn new(config: SystemConfig) -> PoResult<Self> {
        Ok(Self {
            xlate: Translation::new(config.overlay.clone(), config.vm.clone()),
            mem: DataStore::new(),
            tlbs: CoreTlbs::new(&config.tlb, config.cores.max(1)),
            caches: CacheHierarchy::new(config.hierarchy.clone()),
            dram: DramModel::new(config.dram.clone()),
            cores: (0..config.cores.max(1))
                .map(|_| CoreModel::new(config.window_entries))
                .collect(),
            contention: (config.cores > 1).then(|| Contention::new(&config)),
            stats: SimStats::default(),
            epoch: MemoryEpoch::default(),
            faults: FaultInjector::none(),
            sink: TelemetrySink::noop(),
            config,
        })
    }

    /// Arms telemetry for the whole machine, mirroring
    /// [`Machine::install_fault_plan`]: clones of one sink (sharing one
    /// core) go to the OS model, the DRAM model and the overlay manager
    /// (which forwards to the OMS); the machine itself journals the TLB,
    /// cache and coherence events. Pass [`TelemetrySink::noop`] to turn
    /// telemetry back off. Telemetry never feeds back into simulation
    /// state: runs with and without it reach byte-identical snapshots.
    pub fn install_telemetry(&mut self, sink: TelemetrySink) {
        self.xlate.set_telemetry(sink.clone());
        self.dram.set_telemetry(sink.clone());
        self.sink = sink;
    }

    /// The machine's telemetry sink (Noop unless installed).
    pub fn telemetry(&self) -> &TelemetrySink {
        &self.sink
    }

    /// Publishes every component's statistics into the installed sink as
    /// named counters (`tlb.*` summed over cores, `cache.*`,
    /// `prefetch.*`, `dram.*`, `os.*`, `overlay.*`, `omt_cache.*`,
    /// `oms.*`, `sim.*`). Call once, when a telemetry-armed run ends:
    /// counters add, so machines sharing one sink each publish their own
    /// totals. A no-op on a `Noop` sink; never touches machine state.
    pub fn publish_stats(&self) {
        let sink = &self.sink;
        for tlb in self.tlbs.iter() {
            sink.add_counters(tlb.stats().counters());
        }
        sink.add_counters(self.caches.stats().counters());
        sink.add_counters(self.caches.prefetcher().stats().counters());
        sink.add_counters(self.dram.stats().counters());
        sink.add_counters(self.os().stats().counters());
        let overlay = self.overlay();
        let mut overlay_stats = overlay.stats().clone();
        overlay_stats.injected_faults = self.faults.total_injected().into();
        sink.add_counters(overlay_stats.counters());
        sink.add_counters(overlay.omt_cache().stats().counters());
        sink.add_counters(overlay.store().stats().counters());
        sink.add_counters(self.snapshot().counters());
    }

    /// Arms fault injection for the whole machine: one shared injector is
    /// distributed to the OS model (frame allocation, OMS grants), the
    /// DRAM model (transient read errors), the overlay manager (OMT-cache
    /// corruption) and its store (allocation failures), and the machine
    /// itself (TLB-shootdown timeouts). With no plan installed every
    /// fault check is a single discriminant test on the fast path.
    pub fn install_fault_plan(&mut self, plan: FaultPlan) {
        let inj = FaultInjector::from_plan(plan);
        self.xlate.set_fault_injector(inj.clone());
        self.dram.set_fault_injector(inj.clone());
        self.faults = inj;
    }

    /// Overlay statistics with [`OverlayStats::injected_faults`] synced
    /// from the shared injector.
    pub fn overlay_stats(&mut self) -> OverlayStats {
        self.xlate.overlay_stats()
    }

    /// Returns the configuration.
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// Returns the OS model (read-only observation).
    pub fn os(&self) -> &OsModel {
        self.xlate.os()
    }

    /// Returns the overlay manager (read-only observation).
    pub fn overlay(&self) -> &OverlayManager {
        self.xlate.overlay()
    }

    /// Every page that currently has an overlay, in OPN order.
    pub fn overlay_pages(&self) -> Vec<Opn> {
        self.xlate.overlay_pages()
    }

    /// Returns core 0's TLB.
    pub fn tlb(&self) -> &Tlb {
        self.tlbs.get(0)
    }

    /// Returns core `core`'s TLB.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn tlb_of(&self, core: usize) -> &Tlb {
        self.tlbs.get(core)
    }

    /// Number of simulated cores.
    pub fn cores(&self) -> usize {
        self.tlbs.len()
    }

    /// Returns the cache hierarchy.
    pub fn caches(&self) -> &CacheHierarchy {
        &self.caches
    }

    /// Returns the DRAM model.
    pub fn dram(&self) -> &DramModel {
        &self.dram
    }

    /// Returns core 0's timing model.
    pub fn core(&self) -> &CoreModel {
        &self.cores[0]
    }

    /// Returns core `core`'s timing model.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn core_of(&self, core: usize) -> &CoreModel {
        &self.cores[core]
    }

    /// Simulated cycles retired by core `core` — the scheduling key the
    /// multi-core interleaver orders cores by.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn core_cycles(&self, core: usize) -> Cycle {
        self.cores[core].cycles()
    }

    /// Returns the functional data store (read-only).
    pub fn mem(&self) -> &DataStore {
        &self.mem
    }

    /// Creates a process.
    ///
    /// # Errors
    ///
    /// Propagates ASID exhaustion.
    pub fn spawn_process(&mut self) -> PoResult<Asid> {
        self.xlate.spawn()
    }

    /// Maps `count` writable anonymous pages at `start` for `asid`.
    ///
    /// # Errors
    ///
    /// Propagates allocator exhaustion.
    pub fn map_range(&mut self, asid: Asid, start: Vpn, count: u64) -> PoResult<()> {
        self.xlate.map_range(asid, start, count, true)
    }

    /// Maps `count` virtual pages at `start` all onto a single shared
    /// zero frame, with overlays enabled — the layout of the
    /// sparse-data-structure technique (§5.2): "all virtual pages of the
    /// data structure map to a zero physical page and each virtual page
    /// is mapped to an overlay that contains only the non-zero cache
    /// lines". Returns the shared frame.
    ///
    /// # Errors
    ///
    /// Propagates allocator exhaustion.
    pub fn map_shared_zero_range(
        &mut self,
        asid: Asid,
        start: Vpn,
        count: u64,
    ) -> PoResult<po_types::Ppn> {
        let zero = self.xlate.alloc_frame()?;
        for i in 0..count {
            let vpn = Vpn::new(start.raw() + i);
            self.xlate.map_shared_frame(asid, vpn, zero)?;
            // With overlays configured the pages resolve through the
            // OMT even in CoW mode (seeded sparse structures live
            // there); `seg` leaves them plain CoW.
            if self.config.backend.supports_overlays() {
                self.xlate.protect_for_share(asid, vpn)?;
            }
        }
        Ok(zero)
    }

    /// Functionally installs `data` as overlay line `line` of page `vpn`
    /// and pushes it straight into the Overlay Memory Store, so later
    /// timed reads resolve through the OMT (pre-built sparse structures).
    ///
    /// # Errors
    ///
    /// Propagates overlay/OMS failures.
    pub fn seed_overlay_line(
        &mut self,
        asid: Asid,
        vpn: Vpn,
        line: usize,
        data: po_types::LineData,
    ) -> PoResult<()> {
        if self.config.backend.supports_overlays() {
            let opn = Opn::encode(asid, vpn);
            self.xlate.overlaying_write(opn, line, data)?;
            self.evict_line_reclaiming(opn, line)?;
        } else {
            // Page-granular fallback: privatize the shared page (classic
            // CoW copy) and write the line into the private frame — the
            // memory-bloat side of the sparse-structure comparison.
            self.prepare_write_retrying(asid, vpn.base())?;
            let pte = self.xlate.walk(asid, vpn.base())?;
            self.mem.write_line(MainMemAddr::new(pte.ppn.line_addr(line).raw()), data);
        }
        Ok(())
    }

    /// `fork`: clones the address space with copy-on-write; in overlay
    /// mode also enables overlay semantics on every shared page
    /// (overlay-on-write, §2.2).
    ///
    /// # Errors
    ///
    /// Propagates OS failures.
    pub fn fork(&mut self, parent: Asid) -> PoResult<Asid> {
        // The parent's logical page contents include its overlays; before
        // re-sharing the frames (e.g. a second checkpoint fork), every
        // overlay must be materialized into a private frame — the
        // checkpoint-commit step of §5.3.2 ("the overlays are then
        // committed"). Otherwise the new child would read the stale
        // physical page underneath the parent's divergence.
        let overlay = self.config.overlay_semantics();
        if overlay {
            // In VPN order, so frame allocation (and seeded fault plans)
            // reproduce.
            let overlaid: Vec<Vpn> = self
                .xlate
                .pages(parent)?
                .map(|(vpn, _)| vpn)
                .filter(|&vpn| self.xlate.has_overlay(Opn::encode(parent, vpn)))
                .collect();
            for vpn in overlaid {
                self.materialize_overlay(parent, vpn)?;
            }
        }
        // Translation rewrites PTE flags and reports which address
        // spaces now hold stale cached translations; the machine owns
        // the TLBs and performs the flushes.
        let out = self.xlate.fork(parent, overlay)?;
        for &asid in &out.flush {
            self.tlbs.flush_asid(asid);
        }
        Ok(out.child)
    }

    /// Commits `vpn`'s overlay into a private frame (copy-and-commit when
    /// the underlying frame is shared), leaving the page overlay-free and
    /// writable. Used before re-sharing pages at `fork` time.
    fn materialize_overlay(&mut self, asid: Asid, vpn: Vpn) -> PoResult<()> {
        let opn = Opn::encode(asid, vpn);
        // Obtain a private writable frame (copies the shared page if
        // refcount > 1); then merge the overlay on top of it.
        self.prepare_write_retrying(asid, vpn.base())?;
        // The page is privatized but the overlay not yet merged: the
        // commit/reclaim window the DST harness crashes inside.
        self.interior_crash(CrashStage::MidReclaim)?;
        let pte = self.xlate.walk(asid, vpn.base())?;
        let frame = MainMemAddr::new(pte.ppn.base().raw());
        self.xlate.commit_overlay_to(opn, frame, &mut self.mem)?;
        self.invalidate_overlay_lines(opn);
        Ok(())
    }

    /// Drops every cached line of `opn`'s overlay: the page's overlay
    /// address space died (commit, collapse or discard).
    fn invalidate_overlay_lines(&mut self, opn: Opn) {
        for l in 0..LINES_PER_PAGE {
            self.caches.invalidate_line(opn.line_addr(l));
        }
    }

    /// Records the current memory consumption as the baseline for
    /// [`Machine::extra_memory_bytes`] (called at the fork in Figure 8).
    pub fn mark_memory_epoch(&mut self) {
        self.epoch = MemoryEpoch {
            frames_net: self.xlate.frames_allocated() - self.xlate.oms_frames(),
            overlay_used: self.xlate.overlay_memory_bytes(),
        };
    }

    /// Additional memory consumed since the epoch: regular frames (page
    /// granularity) plus overlay-store bytes (segment granularity) plus
    /// cache-resident dirty overlay lines (line granularity) — the
    /// Figure 8 metric.
    pub fn extra_memory_bytes(&self) -> u64 {
        let frames_net = self.xlate.frames_allocated() - self.xlate.oms_frames();
        let frame_bytes = frames_net.saturating_sub(self.epoch.frames_net) * PAGE_SIZE as u64;
        let overlay_bytes =
            self.xlate.overlay_memory_bytes().saturating_sub(self.epoch.overlay_used);
        let resident_bytes = self.xlate.resident_lines() as u64 * LINE_SIZE as u64;
        frame_bytes + overlay_bytes + resident_bytes
    }

    /// Flushes every cache-resident dirty overlay line into the Overlay
    /// Memory Store (so segment-level accounting is complete before a
    /// measurement or checkpoint).
    ///
    /// # Errors
    ///
    /// Propagates OMS growth failures.
    pub fn flush_overlays(&mut self) -> PoResult<()> {
        // overlay_pages is OPN-ordered, so the grant-query stream (and
        // with it any seeded fault plan) is reproducible.
        for opn in self.xlate.overlay_pages() {
            let mut last = Ok(());
            for attempt in 0..MAX_ALLOC_ATTEMPTS {
                match self.xlate.evict_all_of(opn, &mut self.mem) {
                    Err(e @ (PoError::OverlayStoreExhausted | PoError::OutOfMemory)) => {
                        last = Err(e);
                        if attempt + 1 == MAX_ALLOC_ATTEMPTS || !self.relieve_pressure(Some(opn))? {
                            return last;
                        }
                    }
                    r => {
                        last = r.map(|_| ());
                        break;
                    }
                }
            }
            last?;
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Graceful degradation under memory pressure.
    // ------------------------------------------------------------------

    /// Evicts one dirty overlay line into the OMS, walking the
    /// degradation ladder (reclaim → compact → grow, DESIGN.md §14) with
    /// bounded retries if the store is exhausted or the OS refuses to
    /// grow it. Surfaces the error only once no rung frees anything.
    fn evict_line_reclaiming(
        &mut self,
        opn: Opn,
        line: usize,
    ) -> PoResult<po_overlay::EvictOutcome> {
        let mut last = Err(PoError::OverlayStoreExhausted);
        for attempt in 0..MAX_ALLOC_ATTEMPTS {
            match self.xlate.evict_line(opn, line, &mut self.mem) {
                Err(e @ (PoError::OverlayStoreExhausted | PoError::OutOfMemory)) => {
                    last = Err(e);
                    if attempt + 1 == MAX_ALLOC_ATTEMPTS || !self.relieve_pressure(Some(opn))? {
                        return last;
                    }
                }
                r => return r,
            }
        }
        last
    }

    /// One rung-descent of the §4.4.2 pressure ladder: try reclaim
    /// (collapse a cold overlay); if that frees nothing, try a
    /// compaction pass (coalescing may reassemble the larger segment the
    /// allocation needs even when no overlay is collapsible). Returns
    /// whether anything changed — `false` means a retry is pointless and
    /// the caller should surface the allocation failure.
    fn relieve_pressure(&mut self, exempt: Option<Opn>) -> PoResult<bool> {
        if self.recover_overlay_memory(exempt)? > 0 {
            return Ok(true);
        }
        let out = self.compact_overlay_memory()?;
        Ok(out.moves > 0 || out.merges > 0)
    }

    /// Releases overlay memory under pressure by collapsing cold overlays
    /// back into physical pages (the §4.3.4 commit promotion, driven by
    /// the OS instead of the promotion threshold). Stops after the first
    /// candidate that frees bytes; returns the total freed. `exempt`
    /// protects the page whose access triggered the pressure.
    ///
    /// # Errors
    ///
    /// Propagates commit failures; candidates whose pages are unmapped or
    /// cannot be privatized are skipped, not errors.
    pub fn recover_overlay_memory(&mut self, exempt: Option<Opn>) -> PoResult<u64> {
        self.xlate.note_alloc_retry();
        let mut freed = 0u64;
        for opn in self.xlate.reclaim_candidates(exempt) {
            let (asid, vpn) = opn.decode();
            // Privatize the frame first: committing onto a still-shared
            // page would leak the divergence to the other sharers. A page
            // that is gone or cannot be copied is skipped.
            if self.xlate.privatize(asid, vpn.base(), &mut self.mem).is_err() {
                continue;
            }
            self.interior_crash(CrashStage::MidReclaim)?;
            let pte = self.xlate.walk(asid, vpn.base())?;
            let frame = MainMemAddr::new(pte.ppn.base().raw());
            freed += self.xlate.collapse_overlay(opn, frame, &mut self.mem)?;
            // The overlay address space for this page is dead: drop stale
            // cache lines and cached translations everywhere.
            self.invalidate_overlay_lines(opn);
            self.shootdown(0, asid, vpn, ShootdownCause::OsPromotion);
            if freed > 0 {
                break;
            }
        }
        Ok(freed)
    }

    /// Broadcasts a shootdown of `(asid, vpn)` from `core` and counts
    /// the coherence invalidations it caused.
    fn shootdown(&mut self, core: usize, asid: Asid, vpn: Vpn, cause: ShootdownCause) {
        let invalidations = self.tlbs.shootdown(&self.sink, core, asid, vpn, cause);
        self.stats.coherence_invalidations.add(invalidations);
    }

    /// A core-initiated shootdown on a store's critical path: one
    /// shootdown round trip, plus a second when a straggler core acks
    /// the IPI late (an injected [`FaultSite::TlbShootdownTimeout`];
    /// correctness unchanged). Returns the latency.
    fn timed_shootdown(&mut self, core: usize, asid: Asid, vpn: Vpn, cause: ShootdownCause) -> u64 {
        let site = FaultSite::TlbShootdownTimeout;
        let timed_out = self.faults.fire(site);
        if timed_out {
            self.sink.emit(|| TelemetryEvent::FaultInjected { site: site.name() });
        }
        let rounds = 1 + u64::from(timed_out);
        self.shootdown(core, asid, vpn, cause);
        rounds * self.config.tlb_shootdown_latency
    }

    /// Copies frame `src` to frame `dst` through DRAM from cycle `t0`:
    /// 64 reads issued together (high MLP), each write posted when its
    /// read returns. Returns the cycle the last read completes.
    fn copy_page(&mut self, t0: Cycle, src: Ppn, dst: Ppn) -> Cycle {
        let (src, dst) = (MainMemAddr::new(src.base().raw()), MainMemAddr::new(dst.base().raw()));
        let mut done_max = t0;
        for l in 0..LINES_PER_PAGE as u64 {
            let d = self.dram.read(t0, src.add(l * LINE_SIZE as u64));
            done_max = done_max.max(d);
            self.dram.write(d, dst.add(l * LINE_SIZE as u64));
        }
        done_max
    }

    /// Runs one live OMS compaction pass (§4.4.2): the overlay manager
    /// relocates live segments downward and repoints their OMT entries;
    /// the machine then shoots down cached translations of every moved
    /// page (mirroring the promotion paths — the OMT-cache copies were
    /// already invalidated per-move by the manager). A no-op returning
    /// an empty outcome when [`SystemConfig::oms_compaction`] is off.
    ///
    /// # Errors
    ///
    /// [`PoError::Crashed`] when an armed
    /// [`CrashStage::MidCompaction`] crash fires (DST recovery path);
    /// [`PoError::Corrupted`] on broken accounting.
    pub fn compact_overlay_memory(&mut self) -> PoResult<po_overlay::CompactionOutcome> {
        if !self.config.oms_compaction {
            return Ok(po_overlay::CompactionOutcome::default());
        }
        let (outcome, moved) = self.xlate.compact_store(&mut self.mem)?;
        for opn in moved {
            let (asid, vpn) = opn.decode();
            self.shootdown(0, asid, vpn, ShootdownCause::OsCompaction);
        }
        self.stats.compactions.inc();
        Ok(outcome)
    }

    /// `prepare_write` with bounded retry: a refused frame allocation
    /// (e.g. an injected [`FaultSite::FrameAllocExhausted`]) triggers an
    /// overlay-memory reclaim before surfacing `OutOfMemory`.
    fn prepare_write_retrying(&mut self, asid: Asid, va: VirtAddr) -> PoResult<WriteOutcome> {
        let mut last = Err(PoError::OutOfMemory);
        for attempt in 0..MAX_ALLOC_ATTEMPTS {
            match self.xlate.privatize(asid, va, &mut self.mem) {
                Err(PoError::OutOfMemory) => {
                    last = Err(PoError::OutOfMemory);
                    if attempt + 1 == MAX_ALLOC_ATTEMPTS
                        || self.recover_overlay_memory(Some(Opn::encode(asid, va.vpn())))? == 0
                    {
                        return last;
                    }
                }
                r => return r,
            }
        }
        last
    }

    /// Structural self-check tying the layers together (DESIGN.md "Fault
    /// model & degradation"): overlay-manager invariants (byte accounting,
    /// OBitVector backing, free-list layout) plus the machine-level grant
    /// ledger — the OMS must manage exactly the bytes of the frames the
    /// OS granted it.
    ///
    /// # Errors
    ///
    /// [`PoError::Corrupted`] naming the violated invariant.
    pub fn verify_invariants(&self) -> PoResult<()> {
        self.xlate.verify()
    }

    // ------------------------------------------------------------------
    // Deterministic simulation testing: snapshot/restore, crash points,
    // and the harness-level overlay promotions (DESIGN.md §8).
    // ------------------------------------------------------------------

    /// Serializes the complete machine state — page tables, OMT and OMT
    /// cache, OMS, resident overlay lines, TLBs, caches, DRAM timing and
    /// contents, core window, statistics, and the fault injector's RNG —
    /// into a versioned, byte-stable buffer. Two machines in the same
    /// state produce identical bytes; [`Machine::restore_snapshot`]
    /// followed by [`Machine::save_snapshot`] is the identity.
    pub fn save_snapshot(&self) -> Vec<u8> {
        let mut w = SnapshotWriter::new();
        w.put_u32(SNAPSHOT_MAGIC);
        w.put_u32(SNAPSHOT_VERSION);
        // The config's `Debug` text is hashed into every snapshot:
        // renaming, reordering or adding a `SystemConfig` field changes
        // snapshot bytes and the fingerprints in `po_perf/expected.json`.
        w.put_u64(fingerprint64(&format!("{:?}", self.config)));
        w.put_u8(self.config.backend.tag());
        self.xlate.encode_snapshot(&mut w);
        self.mem.encode_snapshot(&mut w);
        self.tlbs.encode_snapshot(&mut w);
        self.caches.encode_snapshot(&mut w);
        self.dram.encode_snapshot(&mut w);
        w.put_len(self.cores.len());
        for core in &self.cores {
            core.encode_snapshot(&mut w);
        }
        if let Some(c) = &self.contention {
            c.l3.encode_snapshot(&mut w);
            c.dram_bw.encode_snapshot(&mut w);
        }
        self.stats.encode_snapshot(&mut w);
        w.put_u64(self.epoch.frames_net);
        w.put_u64(self.epoch.overlay_used);
        self.faults.encode_snapshot(&mut w);
        w.finish()
    }

    /// Restores the machine to the exact state captured by
    /// [`Machine::save_snapshot`]. The snapshot must come from a machine
    /// built with the same configuration (checked via a fingerprint in
    /// the header). The fault injector — including its RNG position and
    /// remaining schedules — is restored and redistributed to every
    /// layer, so replayed runs make the same injection decisions.
    ///
    /// # Errors
    ///
    /// [`PoError::Corrupted`] on a bad magic, unsupported version,
    /// configuration mismatch, truncation, trailing bytes, or any
    /// structurally invalid component state.
    pub fn restore_snapshot(&mut self, bytes: &[u8]) -> PoResult<()> {
        let mut r = SnapshotReader::new(bytes);
        if r.get_u32()? != SNAPSHOT_MAGIC {
            return Err(PoError::Corrupted("snapshot magic mismatch"));
        }
        if r.get_u32()? != SNAPSHOT_VERSION {
            return Err(PoError::Corrupted("snapshot version unsupported"));
        }
        if r.get_u64()? != fingerprint64(&format!("{:?}", self.config)) {
            return Err(PoError::Corrupted("snapshot built under a different configuration"));
        }
        if r.get_u8()? != self.config.backend.tag() {
            return Err(PoError::Corrupted("snapshot built under a different translation backend"));
        }
        let xlate = Translation::decode_snapshot(self.config.overlay.clone(), &mut r)?;
        let mem = DataStore::decode_snapshot(&mut r)?;
        let tlbs = self.tlbs.decode_snapshot(&self.config.tlb, &mut r)?;
        let caches = CacheHierarchy::decode_snapshot(self.config.hierarchy.clone(), &mut r)?;
        let dram = DramModel::decode_snapshot(self.config.dram.clone(), &mut r)?;
        let n_cores = r.get_len()?;
        if n_cores != self.cores.len() {
            return Err(PoError::Corrupted("snapshot core count disagrees with configuration"));
        }
        let mut cores = Vec::with_capacity(n_cores);
        for _ in 0..n_cores {
            cores.push(CoreModel::decode_snapshot(self.config.window_entries, &mut r)?);
        }
        let contention = if self.config.cores > 1 {
            Some(Contention {
                l3: L3BankQueue::decode_snapshot(
                    self.config.l3_banks,
                    self.config.l3_bank_occupancy,
                    &mut r,
                )?,
                dram_bw: BandwidthBucket::decode_snapshot(
                    self.config.dram_bandwidth_cycles_per_line,
                    &mut r,
                )?,
            })
        } else {
            None
        };
        let stats = SimStats::decode_snapshot(&mut r)?;
        let epoch = MemoryEpoch { frames_net: r.get_u64()?, overlay_used: r.get_u64()? };
        let faults = FaultInjector::decode_snapshot(&mut r)?;
        r.expect_end()?;
        // All decodes succeeded: commit, then redistribute the restored
        // injector exactly as install_fault_plan does.
        self.xlate = xlate;
        self.mem = mem;
        self.tlbs = tlbs;
        self.caches = caches;
        self.dram = dram;
        self.cores = cores;
        self.contention = contention;
        self.stats = stats;
        self.epoch = epoch;
        self.xlate.set_fault_injector(faults.clone());
        self.dram.set_fault_injector(faults.clone());
        self.faults = faults;
        // Decoded components come up with inert sinks; re-arm them from
        // the machine's (never-serialized) telemetry handle.
        self.xlate.set_telemetry(self.sink.clone());
        self.dram.set_telemetry(self.sink.clone());
        Ok(())
    }

    /// Polls the [`FaultSite::CrashPoint`] site: `true` means the fault
    /// plan scheduled a crash at this op boundary. The caller (the
    /// deterministic-simulation harness) abandons the machine and
    /// restores the last snapshot.
    pub fn poll_crash_point(&mut self) -> bool {
        self.faults.fire_crash(CrashStage::OpBoundary)
    }

    /// Polls an *interior* crash stage (§DESIGN.md §13): a fault plan
    /// armed at `stage` can lose power in the middle of a multi-step
    /// transition. Returns [`PoError::Crashed`] when the scheduled crash
    /// fires; polls at other stages are invisible to the plan.
    fn interior_crash(&self, stage: CrashStage) -> PoResult<()> {
        if self.faults.fire_crash(stage) {
            return Err(PoError::Crashed(stage));
        }
        Ok(())
    }

    /// Disarms one fault site across every layer sharing the injector —
    /// used after a crash-point fires so the replayed suffix does not
    /// crash at the same op again.
    pub fn clear_fault_trigger(&mut self, site: FaultSite) {
        self.faults.clear_trigger(site);
    }

    /// Arms the deliberately-injected canary bug (skip exactly one OMS
    /// free on the next overlay destroy) used to prove the refinement
    /// oracle catches real accounting bugs. Test-only by intent.
    pub fn set_inject_oms_leak(&mut self, armed: bool) {
        self.xlate.set_inject_oms_leak(armed);
    }

    /// Arms the deliberately-injected race canary: the next single-line
    /// OBitVector-update message delivered to a remote core loses its
    /// coherence annotation — no [`TelemetryEvent::CohObitUpdate`], no
    /// message count, no delivery stall — while the functional TLB patch
    /// still lands. Byte state, the invariant sweep, and the refinement
    /// oracle are all blind to it by construction; only the
    /// happens-before analysis over the annotation stream can see the
    /// victim's next access ride a view that never observed the write.
    /// One-shot: disarms after firing. Test-only by intent.
    pub fn set_inject_obit_race(&mut self, armed: bool) {
        self.tlbs.inject_obit_race = armed;
    }

    /// Whether the race canary is still armed (i.e. has not fired yet).
    pub fn obit_race_armed(&self) -> bool {
        self.tlbs.inject_obit_race
    }

    /// Commits `vpn`'s overlay into a private physical frame (§4.3.4
    /// commit promotion, driven explicitly). The page ends overlay-free
    /// and writable; reads are unchanged.
    ///
    /// # Errors
    ///
    /// [`PoError::NoOverlay`] if the page has no overlay; propagates
    /// allocation failures from the privatization step.
    pub fn commit_overlay(&mut self, asid: Asid, vpn: Vpn) -> PoResult<()> {
        if !self.xlate.has_overlay(Opn::encode(asid, vpn)) {
            return Err(PoError::NoOverlay(Opn::encode(asid, vpn)));
        }
        self.materialize_overlay(asid, vpn)?;
        // The promotion dissolved the overlay and rewrote the PTE: a
        // cached translation would keep routing reads of formerly
        // overlaid lines to the dead overlay through its stale
        // OBitVector. Promotions are rare (§4.3.4), so a shootdown —
        // symmetric with discard — is the right coherence action.
        self.shootdown(0, asid, vpn, ShootdownCause::OsPromotion);
        Ok(())
    }

    /// Discards `vpn`'s overlay (§4.3.4 discard promotion): the page
    /// reverts to its physical contents.
    ///
    /// # Errors
    ///
    /// [`PoError::NoOverlay`] if the page has no overlay.
    pub fn discard_overlay(&mut self, asid: Asid, vpn: Vpn) -> PoResult<()> {
        let opn = Opn::encode(asid, vpn);
        self.xlate.discard_overlay(opn)?;
        self.invalidate_overlay_lines(opn);
        self.shootdown(0, asid, vpn, ShootdownCause::OsPromotion);
        Ok(())
    }

    /// Executes one core-level trace operation through the core model.
    /// Harness-level ops (process/overlay management) belong to the
    /// deterministic-simulation harness, not the core.
    ///
    /// # Errors
    ///
    /// Propagates access faults (unmapped addresses, protection);
    /// [`PoError::Corrupted`] for harness-level ops.
    pub fn execute(&mut self, asid: Asid, op: &crate::trace::TraceOp) -> PoResult<()> {
        self.execute_at_core(0, asid, op)
    }

    /// Executes one core-level trace operation on core `core`: the op
    /// issues through that core's private window and TLB, while caches,
    /// OMT, and DRAM are shared (and, with more than one core, subject
    /// to the contention models).
    ///
    /// # Errors
    ///
    /// Same as [`Machine::execute`].
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn execute_at_core(
        &mut self,
        core: usize,
        asid: Asid,
        op: &crate::trace::TraceOp,
    ) -> PoResult<()> {
        use crate::trace::TraceOp;
        match op {
            TraceOp::Compute(n) => {
                self.cores[core].issue_compute(*n as u64);
                self.sink.layer(Layer::Core, *n as u64);
                self.sink.instructions(*n as u64);
            }
            TraceOp::Load(va) => {
                let t = self.cores[core].next_issue_cycle();
                let lat = self.access_at_core(t, core, asid, *va, AccessKind::Read)?;
                self.cores[core].complete(t, lat);
                self.stats.loads.inc();
                self.sink.instructions(1);
            }
            TraceOp::Store(va) => {
                let t = self.cores[core].next_issue_cycle();
                let lat = self.access_at_core(t, core, asid, *va, AccessKind::Write)?;
                self.cores[core].complete(t, lat);
                self.stats.stores.inc();
                self.sink.instructions(1);
            }
            _ => {
                return Err(PoError::Corrupted(
                    "harness-level trace op handed to the core executor",
                ))
            }
        }
        Ok(())
    }

    /// Returns a snapshot of cumulative statistics (instructions, cycles,
    /// counters, memory metric).
    pub fn snapshot(&self) -> SimStats {
        let mut s = self.stats.clone();
        // Instructions add across cores; elapsed time is the slowest
        // core's retirement frontier (cores run concurrently).
        s.instructions = self.cores.iter().map(CoreModel::instructions).sum();
        s.cycles = self.cores.iter().map(CoreModel::cycles).max().unwrap_or(0);
        s.bus_bytes = self.dram.stats().bus_bytes.get();
        s.extra_memory_bytes = self.extra_memory_bytes();
        s
    }

    // ------------------------------------------------------------------
    // The memory-access path (Figure 6).
    // ------------------------------------------------------------------

    /// Performs a demand access at cycle `now` on core 0, returning its
    /// latency.
    ///
    /// # Errors
    ///
    /// [`PoError::Unmapped`] / [`PoError::ProtectionViolation`] on
    /// translation failures.
    pub fn access_at(
        &mut self,
        now: Cycle,
        asid: Asid,
        va: VirtAddr,
        kind: AccessKind,
    ) -> PoResult<u64> {
        self.access_at_core(now, 0, asid, va, kind)
    }

    /// Performs a demand access at cycle `now` on core `core` (private
    /// TLB; shared caches and memory). Overlaying writes broadcast their
    /// OBitVector update to every other core's TLB via the coherence
    /// network (§4.3.3) — no shootdown.
    ///
    /// # Errors
    ///
    /// Same as [`Machine::access_at`].
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn access_at_core(
        &mut self,
        now: Cycle,
        core: usize,
        asid: Asid,
        va: VirtAddr,
        kind: AccessKind,
    ) -> PoResult<u64> {
        let vpn = va.vpn();
        let line = va.line_in_page();
        let opn = Opn::encode(asid, vpn);
        let mut lat: u64 = 0;
        self.sink.set_now(now);
        self.sink.begin_access(kind.is_write(), va.raw());

        // 1. Translate (TLB, then walk + OMT OBitVector fetch on a miss).
        let lookup = self.tlbs.lookup(&self.sink, core, asid, vpn);
        lat += lookup.latency;
        self.sink.layer(Layer::Tlb, lookup.latency);
        let mut entry = match lookup.entry {
            Some(e) => e,
            None => {
                // The walk cost depends on the configured design: the
                // full 4-level radix walk, or `seg`'s flat lookup.
                let walk = self.config.backend.walk_cycles(self.tlbs.get(core).miss_penalty());
                lat += walk;
                self.sink.layer(Layer::Tlb, walk);
                let pte = self.xlate.walk(asid, va)?;
                let obitvec = if pte.flags.overlay_enabled {
                    // The walk fetches the OBitVector from the OMT
                    // (Figure 6), leaving the entry in the controller's
                    // OMT cache as a side effect.
                    self.xlate.fill_obitvec(opn)
                } else {
                    OBitVector::EMPTY
                };
                let e = TlbEntry { asid, vpn, pte, obitvec };
                self.tlbs.fill(&self.sink, core, e);
                e
            }
        };
        if entry.pte.flags.overlay_enabled && self.tlbs.len() > 1 {
            self.sink.emit(|| TelemetryEvent::CohAccess {
                core: core as u32,
                opn: opn.raw(),
                line: line as u8,
                write: kind.is_write(),
            });
        }

        // 2. Stores to non-writable pages: CoW or overlaying write.
        if kind.is_write() && !entry.pte.flags.writable {
            if !entry.pte.flags.cow {
                return Err(PoError::ProtectionViolation(va));
            }
            if self.config.overlay_semantics() && entry.pte.flags.overlay_enabled {
                if !entry.obitvec.contains(line) {
                    lat +=
                        self.overlaying_write_path(now + lat, core, asid, vpn, line, &mut entry)?;
                }
                // A store to a line already in the overlay is a simple
                // write (§4.3.2): no extra work.
            } else {
                let cow = self.cow_fault_path(now + lat, core, asid, va, &mut entry)?;
                // The CoW path drives DRAM/caches directly (not through
                // fetch_line), so its whole latency is the CoW overhead.
                self.sink.layer(Layer::CowFault, cow);
                lat += cow;
            }
        }

        // 3. Pick the cache address: overlay or regular page (§4.3.1).
        let use_overlay = entry.pte.flags.overlay_enabled && entry.obitvec.contains(line);
        if entry.pte.flags.overlay_enabled {
            self.sink.emit(|| TelemetryEvent::OBitCheck {
                opn: opn.raw(),
                line: line as u8,
                set: use_overlay,
            });
        }
        let cache_addr = if use_overlay {
            opn.line_addr(line)
        } else {
            PhysAddr::new(entry.pte.ppn.line_addr(line).raw())
        };

        // 4. Caches, then memory.
        lat += self.fetch_line(now + lat, cache_addr, kind)?;
        self.sink.end_access(lat);
        Ok(lat)
    }

    /// Runs one line access through the hierarchy, going to memory (and
    /// the OMT) on a full miss. Returns the latency.
    fn fetch_line(&mut self, now: Cycle, cache_addr: PhysAddr, kind: AccessKind) -> PoResult<u64> {
        let mut out = self.caches.access(cache_addr, kind);
        self.sink.emit(|| TelemetryEvent::CacheAccess {
            addr: cache_addr.raw(),
            write: kind.is_write(),
            level: out.result.hit_level(),
            latency: out.latency,
        });
        let mut lat = out.latency;
        self.sink.layer(Layer::Cache, out.latency);
        self.handle_writebacks(now + lat, out.writebacks)?;
        // Shared-resource contention (multi-core only): accesses that
        // reach the shared L3 queue on its bank port, and full misses
        // additionally take a DRAM-bandwidth token. Single-core runs
        // have `contention == None` and are byte-identical to before.
        if let Some(c) = self.contention.as_mut() {
            let reaches_l3 =
                matches!(out.result, LookupResult::Miss | LookupResult::Hit { level: Level::L3 });
            let mut stall = 0;
            if reaches_l3 {
                stall += c.l3.admit(now + lat, cache_addr);
            }
            if matches!(out.result, LookupResult::Miss) {
                stall += c.dram_bw.admit(now + lat + stall);
            }
            if stall > 0 {
                lat += stall;
                self.stats.contention_stall_cycles.add(stall);
                self.sink.layer(Layer::Contention, stall);
            }
        }
        if matches!(out.result, LookupResult::Miss) {
            let (mm_addr, extra) = self.resolve_memory(cache_addr, kind.is_write())?;
            self.sink.layer(Layer::OmtWalk, extra);
            lat += extra;
            let done = self.dram.read(now + lat, mm_addr);
            lat = done.saturating_sub(now);
            // Everything past the cache lookup and the OMT walk is the
            // DRAM round trip (bank timing + bus occupancy).
            self.sink.layer(Layer::Dram, lat.saturating_sub(out.latency + extra));
            let wbs = self.caches.fill(cache_addr, kind.is_write());
            self.handle_writebacks(done, wbs)?;
        }
        // Prefetches are issued off the critical path. A miss to an
        // overlay address additionally triggers overlay-aware prefetch:
        // the hardware knows the OBitVector, so it prefetches the next
        // *present* overlay lines, skipping the holes that would break a
        // plain stream prefetcher (§5.2: "the hardware ... can
        // efficiently prefetch the overlay cache lines"). Both kinds go
        // into the outcome's own list, read in place: copying the list
        // out cost a `memcpy` on every access, L1 hits included.
        if cache_addr.is_overlay()
            && matches!(out.result, LookupResult::Miss)
            && self.config.hierarchy.prefetcher.enabled
        {
            self.overlay_prefetch_candidates(cache_addr, &mut out.prefetches);
        }
        for &pf in out.prefetches.iter() {
            if self.caches.probe(pf) {
                continue;
            }
            if let Ok((mm_addr, _)) = self.resolve_memory(pf, false) {
                self.dram.read(now + lat, mm_addr);
                let wbs = self.caches.fill_prefetch(pf);
                self.handle_writebacks(now + lat, wbs)?;
            }
        }
        Ok(lat)
    }

    /// Appends to `out` up to `degree` next present overlay lines after
    /// `addr`, following the OBitVector across page boundaries
    /// (consecutive VPNs have consecutive OPNs under the direct mapping,
    /// so the scan is a pure address walk).
    fn overlay_prefetch_candidates(&self, addr: PhysAddr, out: &mut Prefetches) {
        let degree = self.config.hierarchy.prefetcher.degree;
        let distance = self.config.hierarchy.prefetcher.distance;
        let opn = addr.opn();
        let (asid, vpn) = opn.decode();
        let mut found = 0;
        let mut line = addr.line_in_page() + 1;
        let mut page_off = 0u64;
        let mut obv = self.xlate.obitvec(opn).unwrap_or(OBitVector::EMPTY);
        for _ in 0..distance {
            if line >= LINES_PER_PAGE {
                line = 0;
                page_off += 1;
                let next = Opn::encode(asid, Vpn::new(vpn.raw() + page_off));
                match self.xlate.obitvec(next) {
                    Ok(v) => obv = v,
                    Err(_) => break, // no further overlays to stream
                }
            }
            if obv.contains(line) {
                let o = Opn::encode(asid, Vpn::new(vpn.raw() + page_off));
                out.push(o.line_addr(line));
                found += 1;
                if found >= degree {
                    break;
                }
            }
            line += 1;
        }
    }

    /// Maps a cache (physical-space) address to a main-memory address,
    /// returning any extra latency (an OMT walk on an OMT-cache miss).
    fn resolve_memory(&mut self, addr: PhysAddr, modify: bool) -> PoResult<(MainMemAddr, u64)> {
        if addr.is_overlay() {
            let opn = addr.opn();
            let line = addr.line_in_page();
            // A functional overlaying write can leave its line resident
            // in the manager with no OMS home (allocation is lazy,
            // §4.3.3). The controller's first touch materializes it via
            // the normal eviction path instead of faulting.
            if self.xlate.line_needs_materialization(opn, line) {
                self.evict_line_reclaiming(opn, line)?;
            }
            let (mm, omt_hit) = self.xlate.controller_resolve(opn, line, modify)?;
            let extra = if omt_hit { 0 } else { self.config.overlay.omt_walk_latency };
            if !omt_hit {
                self.sink.emit(|| TelemetryEvent::OmtWalk { opn: opn.raw(), latency: extra });
            }
            Ok((mm, extra))
        } else {
            Ok((MainMemAddr::new(addr.raw()), 0))
        }
    }

    /// Posts dirty evictions to memory; overlay-line evictions trigger
    /// the lazy OMS allocation of §4.3.3.
    fn handle_writebacks(&mut self, now: Cycle, writebacks: Writebacks) -> PoResult<()> {
        for wb in writebacks {
            if wb.is_overlay() {
                let opn = wb.opn();
                let line = wb.line_in_page();
                match self.evict_line_reclaiming(opn, line) {
                    Ok(_) => {
                        if let Ok((mm, _)) = self.xlate.controller_resolve(opn, line, true) {
                            self.dram.write(now, mm);
                        }
                    }
                    // A stale writeback after a promotion/discard: drop it.
                    Err(PoError::NoOverlay(_)) | Err(PoError::LineNotInOverlay { .. }) => {}
                    Err(e) => return Err(e),
                }
            } else {
                self.dram.write(now, MainMemAddr::new(wb.raw()));
            }
        }
        Ok(())
    }

    /// Classic copy-on-write fault (Figure 3a): trap, copy 64 lines with
    /// full bank parallelism, remap with a TLB shootdown — all on the
    /// store's critical path.
    fn cow_fault_path(
        &mut self,
        now: Cycle,
        core: usize,
        asid: Asid,
        va: VirtAddr,
        entry: &mut TlbEntry,
    ) -> PoResult<u64> {
        let mut lat = self.config.cow_fault_overhead;
        let old_ppn = entry.pte.ppn;
        let outcome = self.prepare_write_retrying(asid, va)?;
        self.stats.cow_faults.inc();

        if let Some(new_ppn) = outcome.new_ppn {
            let t0 = now + lat;
            let done_max = self.copy_page(t0, old_ppn, new_ppn);
            lat += done_max - t0;
            // The copy pollutes the cache hierarchy with the whole page
            // (the paper's analysis of Type-2 benchmarks, §5.1).
            for l in 0..LINES_PER_PAGE {
                let addr = PhysAddr::new(new_ppn.line_addr(l).raw());
                let wbs = self.caches.fill(addr, true);
                self.handle_writebacks(done_max, wbs)?;
            }
            self.stats.pages_copied.inc();
        }

        if outcome.tlb_shootdown {
            lat += self.timed_shootdown(core, asid, va.vpn(), ShootdownCause::CowRemap);
        }

        // The handler installs the new translation before returning.
        let pte = self.xlate.walk(asid, va)?;
        let new_entry = TlbEntry { asid, vpn: va.vpn(), pte, obitvec: OBitVector::EMPTY };
        self.tlbs.fill(&self.sink, core, new_entry);
        *entry = new_entry;
        Ok(lat)
    }

    /// Overlay-on-write (Figure 3b, §4.3.3): fetch the line, retag it
    /// into the overlay address space, broadcast the overlaying-read-
    /// exclusive message, and continue — no page copy, no shootdown, no
    /// OS involvement.
    fn overlaying_write_path(
        &mut self,
        now: Cycle,
        core: usize,
        asid: Asid,
        vpn: Vpn,
        line: usize,
        entry: &mut TlbEntry,
    ) -> PoResult<u64> {
        let opn = Opn::encode(asid, vpn);
        let phys_addr = PhysAddr::new(entry.pte.ppn.line_addr(line).raw());
        let overlay_addr = opn.line_addr(line);

        // Step 1: bring the original line into the cache (read path) and
        // update its tag to the overlay page (§4.3.3 step 1).
        let mut lat = self.fetch_line(now, phys_addr, AccessKind::Read)?;
        let data = self.mem.read_line(MainMemAddr::new(phys_addr.raw()));
        let (wbs, _) = self.caches.retag(phys_addr, overlay_addr);
        self.handle_writebacks(now + lat, wbs)?;

        // Step 2: coherence-carried OBitVector update, broadcast to
        // every core's TLB over the coherence network (no shootdown).
        lat += self.config.coherence_update_latency;
        // fetch_line above already attributed its cycles to the cache/
        // DRAM layers; only the coherence broadcast is overlay overhead.
        self.sink.layer(Layer::OverlayWrite, self.config.coherence_update_latency);
        let msgs = self.tlbs.read_exclusive(&self.sink, core, asid, vpn, line);
        self.stats.coherence_read_exclusive.add(msgs.requests);
        if msgs.remote_updates > 0 {
            // A remote core actually held a copy: the single-line
            // OBitVector update message crosses the network and the
            // store stalls for one extra delivery round.
            self.stats.coherence_obit_msgs.add(msgs.remote_updates);
            let stall = self.config.coherence_update_latency;
            lat += stall;
            self.stats.coherence_stall_cycles.add(stall);
            self.sink.layer(Layer::Contention, stall);
        }
        self.xlate.overlaying_write(opn, line, data)?;
        entry.obitvec.set(line);
        self.stats.overlaying_writes.inc();

        // Optional promotion (§4.3.4) once the overlay covers enough of
        // the page.
        if entry.obitvec.len() >= self.config.promote_threshold {
            let promo = self.promote(now + lat, core, asid, vpn, entry)?;
            self.sink.layer(Layer::Promotion, promo);
            lat += promo;
        }
        Ok(lat)
    }

    /// Copy-and-commit promotion: materialize the merged page in a fresh
    /// frame and retire the overlay.
    fn promote(
        &mut self,
        now: Cycle,
        core: usize,
        asid: Asid,
        vpn: Vpn,
        entry: &mut TlbEntry,
    ) -> PoResult<u64> {
        let opn = Opn::encode(asid, vpn);
        let old_ppn = entry.pte.ppn;
        // The page must become private: reuse the CoW machinery to get a
        // fresh writable frame, then merge the overlay into it.
        let outcome = self.prepare_write_retrying(asid, vpn.base())?;
        // Privatized (page table updated) but the overlay still live:
        // the §4.3.4 promotion window the DST harness crashes inside.
        self.interior_crash(CrashStage::MidPromotion)?;
        let new_ppn = outcome.new_ppn.unwrap_or(old_ppn);
        let dst = MainMemAddr::new(new_ppn.base().raw());
        // prepare_write already copied old→new if the frame was shared,
        // so committing the overlay on top of dst yields the merged page
        // (for the sole-owner case src == dst and the copy is implicit).
        self.xlate.commit_overlay_to(opn, dst, &mut self.mem)?;
        self.invalidate_overlay_lines(opn);
        // Remap: shootdown + refreshed entry with a cleared OBitVector.
        let mut lat = self.timed_shootdown(core, asid, vpn, ShootdownCause::CorePromotion);
        let pte = self.xlate.walk(asid, vpn.base())?;
        let new_entry = TlbEntry { asid, vpn, pte, obitvec: OBitVector::EMPTY };
        self.tlbs.fill(&self.sink, core, new_entry);
        *entry = new_entry;
        // Copy cost: the page copy ran through DRAM.
        lat += self.copy_page(now, old_ppn, new_ppn) - now;
        self.stats.promotions.inc();
        Ok(lat)
    }

    // ------------------------------------------------------------------
    // Functional (untimed) access path — used by examples and
    // correctness oracles.
    // ------------------------------------------------------------------

    /// Functionally writes one byte, honoring overlay semantics: a write
    /// to a CoW page in overlay mode lands in the overlay; otherwise the
    /// classic OS path is used.
    ///
    /// # Errors
    ///
    /// Propagates translation/protection failures.
    pub fn poke(&mut self, asid: Asid, va: VirtAddr, value: u8) -> PoResult<()> {
        let pte = self.xlate.walk(asid, va)?;
        let vpn = va.vpn();
        let opn = Opn::encode(asid, vpn);
        let line = va.line_in_page();
        let in_overlay = self.xlate.obitvec(opn).map(|v| v.contains(line)).unwrap_or(false);
        let overlay_write = pte.flags.overlay_enabled
            && (in_overlay
                || (self.config.overlay_semantics() && pte.flags.cow && !pte.flags.writable));
        if overlay_write {
            let phys = MainMemAddr::new(pte.ppn.line_addr(line).raw());
            let mut data = self.xlate.resolve_read(opn, line, phys, &self.mem)?;
            data.as_mut_bytes()[va.line_offset()] = value;
            if in_overlay {
                self.xlate.write_overlay_line(opn, line, data)?;
            } else {
                self.xlate.overlaying_write(opn, line, data)?;
                self.tlbs.patch_obit(asid, vpn, line);
            }
            Ok(())
        } else {
            self.xlate.write_byte(asid, va, value, &mut self.mem).map(|_| ())
        }
    }

    /// Functionally reads one byte with overlay semantics (§2.1).
    ///
    /// # Errors
    ///
    /// Propagates translation failures.
    pub fn peek(&self, asid: Asid, va: VirtAddr) -> PoResult<u8> {
        Ok(self.peek_line(asid, va)?.as_bytes()[va.line_offset()])
    }

    /// Functionally reads the line containing `va` with overlay
    /// semantics (§2.1): the one-line case of [`Machine::peek_page`].
    ///
    /// # Errors
    ///
    /// Propagates translation failures.
    pub fn peek_line(&self, asid: Asid, va: VirtAddr) -> PoResult<LineData> {
        let mut data = LineData::zeroed();
        self.peek_lines(asid, va.vpn(), va.line_in_page(), data.as_mut_bytes())?;
        Ok(data)
    }

    /// Functionally reads the whole page `vpn` with overlay semantics
    /// into `out`: one translation and one OMT lookup for the page, each
    /// line resolved as [`Machine::peek_line`] resolves it.
    ///
    /// # Errors
    ///
    /// Propagates translation failures, and overlay read failures at the
    /// first failing line.
    pub fn peek_page(&self, asid: Asid, vpn: Vpn, out: &mut [u8; PAGE_SIZE]) -> PoResult<()> {
        self.peek_lines(asid, vpn, 0, out)
    }

    /// Reads whole lines of `vpn` from line `first` on into `out`: the
    /// physical bytes, then the overlaid lines over them when the page
    /// reads through its overlay.
    fn peek_lines(&self, asid: Asid, vpn: Vpn, first: usize, out: &mut [u8]) -> PoResult<()> {
        let pte = self.xlate.walk(asid, vpn.base())?;
        self.mem.read_into(MainMemAddr::new(pte.ppn.line_addr(first).raw()), out);
        if pte.flags.overlay_enabled {
            self.xlate.resolve_lines(Opn::encode(asid, vpn), first, out, &self.mem)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceOp;

    fn machine(overlay_mode: bool) -> (Machine, Asid) {
        let config =
            if overlay_mode { SystemConfig::table2_overlay() } else { SystemConfig::table2() };
        let mut m = Machine::new(config).unwrap();
        let pid = m.spawn_process().unwrap();
        m.map_range(pid, Vpn::new(0x100), 16).unwrap();
        (m, pid)
    }

    fn va(page: u64, line: u64) -> VirtAddr {
        VirtAddr::new((0x100 + page) * PAGE_SIZE as u64 + line * LINE_SIZE as u64)
    }

    #[test]
    fn cold_access_costs_tlb_walk_and_dram() {
        let (mut m, pid) = machine(false);
        let lat = m.access_at(0, pid, va(0, 0), AccessKind::Read).unwrap();
        assert!(lat > 1000, "cold access must include the 1000-cycle walk, got {lat}");
        let lat2 = m.access_at(lat, pid, va(0, 0), AccessKind::Read).unwrap();
        assert!(lat2 <= 3, "hot access is an L1 + TLB hit, got {lat2}");
    }

    #[test]
    fn cow_store_copies_page_on_critical_path() {
        let (mut m, pid) = machine(false);
        m.poke(pid, va(0, 0), 7).unwrap();
        let _child = m.fork(pid).unwrap();
        m.mark_memory_epoch();
        let lat = m.access_at(0, pid, va(0, 0), AccessKind::Write).unwrap();
        assert!(
            lat > m.config().cow_fault_overhead + m.config().tlb_shootdown_latency,
            "CoW store must pay fault + copy + shootdown, got {lat}"
        );
        assert_eq!(m.snapshot().pages_copied.get(), 1);
        assert_eq!(m.extra_memory_bytes(), PAGE_SIZE as u64);
    }

    #[test]
    fn overlay_store_is_much_cheaper_than_cow() {
        let (mut m_cow, pid_c) = machine(false);
        let (mut m_ovl, pid_o) = machine(true);
        for (m, pid) in [(&mut m_cow, pid_c), (&mut m_ovl, pid_o)] {
            m.poke(pid, va(0, 0), 1).unwrap();
            let _ = m.fork(pid).unwrap();
            m.mark_memory_epoch();
        }
        let lat_cow = m_cow.access_at(0, pid_c, va(0, 0), AccessKind::Write).unwrap();
        let lat_ovl = m_ovl.access_at(0, pid_o, va(0, 0), AccessKind::Write).unwrap();
        assert!(
            lat_ovl * 2 < lat_cow,
            "overlaying write ({lat_ovl}) must be far cheaper than CoW ({lat_cow})"
        );
        assert_eq!(m_ovl.snapshot().overlaying_writes.get(), 1);
        assert_eq!(m_ovl.snapshot().pages_copied.get(), 0);
    }

    #[test]
    fn overlay_memory_is_line_granular() {
        let (mut m, pid) = machine(true);
        m.poke(pid, va(0, 0), 1).unwrap();
        let _child = m.fork(pid).unwrap();
        m.mark_memory_epoch();
        // One store → one overlay line.
        m.access_at(0, pid, va(0, 3), AccessKind::Write).unwrap();
        m.flush_overlays().unwrap();
        let extra = m.extra_memory_bytes();
        assert!(extra <= 256, "one diverged line must cost one small segment, got {extra} bytes");
    }

    #[test]
    fn overlay_reads_come_from_overlay_after_divergence() {
        let (mut m, pid) = machine(true);
        m.poke(pid, va(0, 0), 0x11).unwrap();
        let child = m.fork(pid).unwrap();
        m.poke(pid, va(0, 0), 0x22).unwrap(); // parent diverges via overlay
        assert_eq!(m.peek(pid, va(0, 0)).unwrap(), 0x22);
        assert_eq!(m.peek(child, va(0, 0)).unwrap(), 0x11, "child unaffected");
    }

    #[test]
    fn fork_isolation_matches_under_both_modes() {
        // DESIGN.md invariant 4: parent/child isolation identical in CoW
        // and OoW modes.
        for mode in [false, true] {
            let (mut m, pid) = machine(mode);
            for i in 0..32u64 {
                m.poke(pid, va(i % 4, i % 64), i as u8).unwrap();
            }
            let child = m.fork(pid).unwrap();
            for i in 0..32u64 {
                m.poke(pid, va(i % 4, i % 64), 100 + i as u8).unwrap();
            }
            for i in 0..32u64 {
                let child_sees = m.peek(child, va(i % 4, i % 64)).unwrap();
                let parent_sees = m.peek(pid, va(i % 4, i % 64)).unwrap();
                assert_eq!(parent_sees, 100 + i as u8, "mode={mode}");
                assert_ne!(child_sees, parent_sees, "mode={mode} i={i}");
            }
        }
    }

    #[test]
    fn execute_accumulates_instructions_and_cycles() {
        let (mut m, pid) = machine(false);
        m.execute(pid, &TraceOp::Compute(100)).unwrap();
        m.execute(pid, &TraceOp::Load(va(0, 0))).unwrap();
        m.execute(pid, &TraceOp::Store(va(0, 1))).unwrap();
        let s = m.snapshot();
        assert_eq!(s.instructions, 102);
        assert_eq!(s.loads.get(), 1);
        assert_eq!(s.stores.get(), 1);
        assert!(s.cycles > 1000, "TLB walk dominates the first access");
    }

    #[test]
    fn unmapped_access_errors() {
        let (mut m, pid) = machine(false);
        assert!(matches!(
            m.access_at(0, pid, VirtAddr::new(0xdead_f000), AccessKind::Read),
            Err(PoError::Unmapped(_))
        ));
    }

    #[test]
    fn machine_snapshot_round_trip_is_byte_identical() {
        let (mut m, pid) = machine(true);
        m.poke(pid, va(0, 0), 1).unwrap();
        let child = m.fork(pid).unwrap();
        for i in 0..40u64 {
            m.access_at(i * 10, pid, va(i % 4, i % 64), AccessKind::Write).unwrap();
        }
        m.flush_overlays().unwrap();
        m.mark_memory_epoch();
        let bytes = m.save_snapshot();

        // Restoring into a fresh machine of the same config reproduces
        // the bytes and the observable state.
        let mut fresh = Machine::new(SystemConfig::table2_overlay()).unwrap();
        fresh.restore_snapshot(&bytes).unwrap();
        assert_eq!(fresh.save_snapshot(), bytes);
        fresh.verify_invariants().unwrap();
        assert_eq!(fresh.peek(pid, va(0, 0)).unwrap(), m.peek(pid, va(0, 0)).unwrap());
        assert_eq!(fresh.peek(child, va(0, 0)).unwrap(), 1);

        // And the two machines stay in lockstep on further execution.
        for i in 0..10u64 {
            m.access_at(0, pid, va(i % 4, (i * 7) % 64), AccessKind::Write).unwrap();
            fresh.access_at(0, pid, va(i % 4, (i * 7) % 64), AccessKind::Write).unwrap();
        }
        assert_eq!(fresh.save_snapshot(), m.save_snapshot());
    }

    #[test]
    fn snapshot_rejects_wrong_config_and_corruption() {
        let (m, _) = machine(true);
        let bytes = m.save_snapshot();
        let mut other = Machine::new(SystemConfig::table2()).unwrap();
        assert!(matches!(other.restore_snapshot(&bytes), Err(PoError::Corrupted(_))));
        let mut same = Machine::new(SystemConfig::table2_overlay()).unwrap();
        assert!(same.restore_snapshot(&bytes[..bytes.len() - 1]).is_err());
        let mut garbled = bytes.clone();
        garbled[0] ^= 0xFF; // magic
        assert!(same.restore_snapshot(&garbled).is_err());
        same.restore_snapshot(&bytes).unwrap();
    }

    #[test]
    fn commit_and_discard_overlay_change_page_contents_correctly() {
        let (mut m, pid) = machine(true);
        m.poke(pid, va(1, 2), 0x11).unwrap();
        let _child = m.fork(pid).unwrap();
        m.poke(pid, va(1, 2), 0x22).unwrap(); // diverges via overlay
        assert!(m.overlay().has_overlay(Opn::encode(pid, va(1, 2).vpn())));
        // Commit keeps the new value but drops the overlay.
        m.commit_overlay(pid, va(1, 2).vpn()).unwrap();
        assert!(!m.overlay().has_overlay(Opn::encode(pid, va(1, 2).vpn())));
        assert_eq!(m.peek(pid, va(1, 2)).unwrap(), 0x22);

        // Discard reverts to the pre-divergence contents.
        let child2 = m.fork(pid).unwrap();
        m.poke(pid, va(1, 2), 0x33).unwrap();
        assert_eq!(m.peek(pid, va(1, 2)).unwrap(), 0x33);
        m.discard_overlay(pid, va(1, 2).vpn()).unwrap();
        assert_eq!(m.peek(pid, va(1, 2)).unwrap(), 0x22);
        assert_eq!(m.peek(child2, va(1, 2)).unwrap(), 0x22);
        assert!(matches!(m.discard_overlay(pid, Vpn::new(0x9999)), Err(PoError::NoOverlay(_))));
    }

    fn mc_machine(cores: usize, promote_threshold: usize) -> (Machine, Asid) {
        let config = SystemConfig { cores, promote_threshold, ..SystemConfig::table2_overlay() };
        let mut m = Machine::new(config).unwrap();
        let pid = m.spawn_process().unwrap();
        m.map_range(pid, Vpn::new(0x100), 16).unwrap();
        (m, pid)
    }

    #[test]
    fn cross_core_promotion_invalidates_remote_tlb_obitvec_copies() {
        let (mut m, pid) = mc_machine(2, 4);
        m.poke(pid, va(0, 0), 1).unwrap();
        let _child = m.fork(pid).unwrap();
        // Both cores read the shared page: each private TLB now holds a
        // copy of its OBitVector.
        m.access_at_core(0, 0, pid, va(0, 0), AccessKind::Read).unwrap();
        m.access_at_core(0, 1, pid, va(0, 0), AccessKind::Read).unwrap();
        // Core 0 diverges line after line: every overlaying write must
        // deliver the §4.3.3 single-line update to core 1's live copy,
        // and the write that crosses the promotion threshold must shoot
        // core 1's entry down.
        let mut now = 0;
        for line in 0..4u64 {
            now += m.access_at_core(now, 0, pid, va(0, line), AccessKind::Write).unwrap();
        }
        let s = m.snapshot();
        assert!(s.promotions.get() > 0, "threshold 4 must promote after 4 diverged lines");
        assert!(
            s.coherence_obit_msgs.get() > 0,
            "core 1 held a copy — overlaying writes must update it remotely"
        );
        assert!(
            s.coherence_invalidations.get() > 0,
            "the promotion must invalidate core 1's obitvec copy"
        );
        assert!(s.coherence_stall_cycles.get() > 0, "remote updates cost delivery cycles");
        assert!(
            s.coherence_read_exclusive.get() >= 4,
            "each overlaying write issues an overlaying-read-exclusive"
        );
    }

    #[test]
    fn single_core_machine_generates_no_coherence_traffic() {
        let (mut m, pid) = mc_machine(1, 4);
        m.poke(pid, va(0, 0), 1).unwrap();
        let _child = m.fork(pid).unwrap();
        let mut now = 0;
        for line in 0..4u64 {
            now += m.access_at(now, pid, va(0, line), AccessKind::Write).unwrap();
        }
        let s = m.snapshot();
        assert!(s.promotions.get() > 0);
        assert_eq!(s.coherence_read_exclusive.get(), 0);
        assert_eq!(s.coherence_obit_msgs.get(), 0);
        assert_eq!(s.coherence_invalidations.get(), 0);
        assert_eq!(s.contention_stall_cycles.get(), 0);
    }

    #[test]
    fn multicore_snapshot_round_trips_and_continues_in_lockstep() {
        let (mut m, pid) = mc_machine(4, 64);
        m.poke(pid, va(0, 0), 1).unwrap();
        let _child = m.fork(pid).unwrap();
        // Distinct per-core histories: frontiers, window residue, TLB
        // contents, and contention-queue state all differ across cores.
        for i in 0..60u64 {
            let core = (i % 4) as usize;
            m.execute_at_core(core, pid, &TraceOp::Store(va(i % 8, (i * 7) % 64))).unwrap();
            m.execute_at_core(core, pid, &TraceOp::Compute(1 + (core as u32))).unwrap();
        }
        let bytes = m.save_snapshot();
        let mut twin = Machine::new(m.config().clone()).unwrap();
        twin.restore_snapshot(&bytes).unwrap();
        assert_eq!(twin.save_snapshot(), bytes, "restore must be byte-identical");
        for c in 0..4 {
            assert_eq!(twin.core_cycles(c), m.core_cycles(c), "core {c} frontier");
            assert_eq!(
                twin.core_of(c).instructions(),
                m.core_of(c).instructions(),
                "core {c} instructions"
            );
        }
        // Lockstep continuation across every core.
        for i in 0..24u64 {
            let core = (i % 4) as usize;
            let op = TraceOp::Load(va((i * 3) % 8, (i * 11) % 64));
            m.execute_at_core(core, pid, &op).unwrap();
            twin.execute_at_core(core, pid, &op).unwrap();
        }
        assert_eq!(twin.save_snapshot(), m.save_snapshot(), "lockstep continuation diverged");

        // A machine configured with a different core count must refuse
        // the snapshot rather than misassign per-core state.
        let mut wrong =
            Machine::new(SystemConfig { cores: 2, ..SystemConfig::table2_overlay() }).unwrap();
        assert!(matches!(wrong.restore_snapshot(&bytes), Err(PoError::Corrupted(_))));
    }

    #[test]
    fn simple_write_after_overlaying_write_is_cheap() {
        let (mut m, pid) = machine(true);
        m.poke(pid, va(0, 0), 1).unwrap();
        let _child = m.fork(pid).unwrap();
        let first = m.access_at(0, pid, va(0, 5), AccessKind::Write).unwrap();
        let second = m.access_at(first, pid, va(0, 5), AccessKind::Write).unwrap();
        assert!(second < 10, "simple overlay write must be a cache hit, got {second}");
        assert!(first > second);
    }
}
