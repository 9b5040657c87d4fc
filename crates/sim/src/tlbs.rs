//! The per-core TLBs and the coherence protocol over them.
//!
//! [`CoreTlbs`] is the only owner of the machine's TLBs. Every change to
//! a cached translation is one method here — lookup, fill, shootdown
//! broadcast, the overlaying-read-exclusive broadcast that keeps remote
//! OBitVector copies current (§4.3.3), and the functional patch of the
//! untimed path. Every message-bearing transition (shootdown,
//! read-exclusive) journals its messages and returns their counts for
//! the machine's stats, so no caller can send one without its event.
//! The untimed patch and `flush_asid` send no message and journal
//! nothing; `fill` journals `CohFill` only where the verifier needs it.

use po_telemetry::{Event as TelemetryEvent, TelemetrySink};
use po_tlb::{Tlb, TlbConfig, TlbEntry, TlbLookup};
use po_types::snapshot::{SnapshotReader, SnapshotWriter};
use po_types::{Asid, Opn, PoError, PoResult, Vpn};

/// Why a TLB shootdown broadcast is happening — decides its coherence
/// annotations and invalidation-counting convention.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum ShootdownCause {
    /// OS-driven overlay promotion (reclaim, explicit commit/discard).
    OsPromotion,
    /// OS-driven OMS compaction moved the page's segment.
    OsCompaction,
    /// A core's CoW fault remapped the page.
    CowRemap,
    /// A core's overlaying write crossed the promotion threshold.
    CorePromotion,
}

impl ShootdownCause {
    /// Promotions announce themselves with a `CohPromote` annotation.
    fn is_promotion(self) -> bool {
        matches!(self, ShootdownCause::OsPromotion | ShootdownCause::CorePromotion)
    }

    /// OS-driven maintenance counts every dropped entry (it has no core
    /// of its own); core-initiated remaps count remote cores only.
    fn is_os_driven(self) -> bool {
        matches!(self, ShootdownCause::OsPromotion | ShootdownCause::OsCompaction)
    }
}

/// Messages one overlaying-read-exclusive broadcast sent.
#[must_use]
#[derive(Clone, Copy, Debug)]
pub(crate) struct ReadExclusive {
    /// Read-exclusive requests: 1 with more than one core, else 0.
    pub(crate) requests: u64,
    /// Single-line OBitVector updates delivered to remote cores.
    pub(crate) remote_updates: u64,
}

/// The per-core TLBs (index 0 is the core the single-threaded
/// experiments run on) and the one-shot race canary.
#[derive(Clone, Debug)]
pub(crate) struct CoreTlbs {
    tlbs: Vec<Tlb>,
    /// When armed, the next remote OBitVector update still lands but
    /// its annotation (event and message count) is lost in flight.
    /// Harness-side instrumentation: never serialized.
    pub(crate) inject_obit_race: bool,
}

impl CoreTlbs {
    pub(crate) fn new(config: &TlbConfig, cores: usize) -> Self {
        Self {
            tlbs: (0..cores).map(|_| Tlb::new(config.clone())).collect(),
            inject_obit_race: false,
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.tlbs.len()
    }

    /// Core `core`'s TLB. Panics if `core` is out of range.
    pub(crate) fn get(&self, core: usize) -> &Tlb {
        &self.tlbs[core]
    }

    pub(crate) fn iter(&self) -> impl Iterator<Item = &Tlb> {
        self.tlbs.iter()
    }

    /// Looks `vpn` up in core `core`'s TLB; journals a `TlbLookup`.
    pub(crate) fn lookup(
        &mut self,
        sink: &TelemetrySink,
        core: usize,
        asid: Asid,
        vpn: Vpn,
    ) -> TlbLookup {
        let lookup = self.tlbs[core].lookup(asid, vpn);
        sink.emit(|| TelemetryEvent::TlbLookup {
            asid: asid.raw(),
            vpn: vpn.raw(),
            level: lookup.outcome.hit_level(),
            latency: lookup.latency,
        });
        lookup
    }

    /// Installs a walked translation in core `core`'s TLB. With more
    /// than one core, the copy of an overlay-enabled page's OBitVector
    /// is announced by a `CohFill`.
    pub(crate) fn fill(&mut self, sink: &TelemetrySink, core: usize, entry: TlbEntry) {
        self.tlbs[core].fill(entry);
        if entry.pte.flags.overlay_enabled && self.tlbs.len() > 1 {
            let opn = Opn::encode(entry.asid, entry.vpn).raw();
            sink.emit(|| TelemetryEvent::CohFill { core: core as u32, opn });
        }
    }

    /// One all-core shootdown of `(asid, vpn)` initiated by `core` (0
    /// for OS-driven maintenance), with its coherence annotations — the
    /// single implementation behind every remap path. Returns the
    /// coherence invalidations: OS-driven causes count every dropped
    /// entry, core-initiated ones only remote cores'.
    #[must_use]
    pub(crate) fn shootdown(
        &mut self,
        sink: &TelemetrySink,
        core: usize,
        asid: Asid,
        vpn: Vpn,
        cause: ShootdownCause,
    ) -> u64 {
        let opn = Opn::encode(asid, vpn).raw();
        let core32 = core as u32;
        let multi = self.tlbs.len() > 1;
        if multi {
            if cause.is_promotion() {
                sink.emit(|| TelemetryEvent::CohPromote { core: core32, opn });
            }
            sink.emit(|| TelemetryEvent::CohShootdownBegin { core: core32, opn });
        }
        let mut invalidations = 0;
        for (i, tlb) in self.tlbs.iter_mut().enumerate() {
            let dropped = tlb.shootdown(asid, vpn);
            let counted =
                if cause.is_os_driven() { dropped && multi } else { dropped && i != core };
            invalidations += u64::from(counted);
            if multi && i != core {
                sink.emit(|| TelemetryEvent::CohShootdownAck { core: core32, from: i as u32, opn });
            }
        }
        if multi {
            sink.emit(|| TelemetryEvent::CohShootdownEnd { core: core32, opn });
        }
        invalidations
    }

    /// Core `core`'s overlaying write to `line` (§4.3.3 step 2): with
    /// more than one core it sends a read-exclusive request, and every
    /// TLB holding the page sets the line's bit in place — no
    /// shootdown. Each remote copy updated is one `CohObitUpdate`,
    /// unless the armed race canary swallows it (one-shot).
    pub(crate) fn read_exclusive(
        &mut self,
        sink: &TelemetrySink,
        core: usize,
        asid: Asid,
        vpn: Vpn,
        line: usize,
    ) -> ReadExclusive {
        let (opn, line8, src) = (Opn::encode(asid, vpn).raw(), line as u8, core as u32);
        let requests = u64::from(self.tlbs.len() > 1);
        if requests > 0 {
            sink.emit(|| TelemetryEvent::CohReadExclusive { core: src, opn, line: line8 });
        }
        let mut remote_updates = 0;
        for (i, tlb) in self.tlbs.iter_mut().enumerate() {
            if tlb.coherence_obit_update(asid, vpn, line, true) && i != core {
                if self.inject_obit_race {
                    self.inject_obit_race = false;
                    continue;
                }
                remote_updates += 1;
                let dest = i as u32;
                sink.emit(|| TelemetryEvent::CohObitUpdate { src, dest, opn, line: line8 });
            }
        }
        ReadExclusive { requests, remote_updates }
    }

    /// The untimed path's OBitVector patch: every TLB holding the page
    /// sets `line`'s bit. Only the end state is modeled, no message and
    /// no event — so only `Machine::poke` may call it; a timed store
    /// uses [`CoreTlbs::read_exclusive`].
    pub(crate) fn patch_obit(&mut self, asid: Asid, vpn: Vpn, line: usize) {
        for tlb in &mut self.tlbs {
            tlb.coherence_obit_update(asid, vpn, line, true);
        }
    }

    /// Drops every core's cached translations of `asid`.
    pub(crate) fn flush_asid(&mut self, asid: Asid) {
        for tlb in &mut self.tlbs {
            tlb.flush_asid(asid);
        }
    }

    /// The core count, then every TLB in core order.
    pub(crate) fn encode_snapshot(&self, w: &mut SnapshotWriter) {
        w.put_len(self.tlbs.len());
        for tlb in &self.tlbs {
            tlb.encode_snapshot(w);
        }
    }

    /// Decodes [`CoreTlbs::encode_snapshot`] bytes; the core count must
    /// match `self`'s, and the canary carries over from `self`.
    ///
    /// # Errors
    ///
    /// [`PoError::Corrupted`] on a core-count mismatch or a malformed TLB.
    pub(crate) fn decode_snapshot(
        &self,
        config: &TlbConfig,
        r: &mut SnapshotReader,
    ) -> PoResult<Self> {
        if r.get_len()? != self.tlbs.len() {
            return Err(PoError::Corrupted("snapshot TLB count disagrees with configuration"));
        }
        let tlbs = (0..self.tlbs.len())
            .map(|_| Tlb::decode_snapshot(config.clone(), r))
            .collect::<PoResult<_>>()?;
        Ok(Self { tlbs, inject_obit_race: self.inject_obit_race })
    }
}
