//! Component replays: the traced run's journal supplies each hardware
//! model's input stream, which is replayed into a fresh component so
//! the model's host cost per public call is measured on its own.
//!
//! A replay sees only what the journal records (no shootdowns, no
//! prefetch fills, one TLB for every core), so each one reports its own
//! hit rate beside the traced run's over the same events: the closer
//! the two, the more faithful the replayed stream.

use crate::metrics::median;
use po_cache::{CacheHierarchy, LookupResult};
use po_dram::DramModel;
use po_overlay::OmtCache;
use po_sim::SystemConfig;
use po_telemetry::{Event, EventRecord, HitLevel};
use po_tlb::{Tlb, TlbEntry};
use po_types::{AccessKind, Asid, MainMemAddr, OBitVector, Opn, PhysAddr, Ppn, Vpn};
use po_vm::{Pte, PteFlags};
use std::hint::black_box;
use std::time::Instant;

/// Timed passes per stream; the median pass is kept.
const PASSES: usize = 3;

/// One component's replay totals, summed over a workload's machines.
#[derive(Clone, Debug, Default)]
pub struct Replay {
    /// Public calls made (lookups or accesses; a miss's fill is part of
    /// the same call).
    pub calls: u64,
    /// Host nanoseconds of the median pass.
    pub ns: f64,
    /// Hits in the replay, over `hit_events`.
    pub replay_hits: u64,
    /// Hits the traced run recorded for the same events.
    pub traced_hits: u64,
    /// Events a hit rate is taken over.
    pub hit_events: u64,
}

impl Replay {
    pub fn ns_per_call(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.ns / self.calls as f64
        }
    }

    pub fn replay_hit_rate(&self) -> f64 {
        po_types::stats::ratio(self.replay_hits, self.hit_events)
    }

    pub fn traced_hit_rate(&self) -> f64 {
        po_types::stats::ratio(self.traced_hits, self.hit_events)
    }
}

/// The four replays.
#[derive(Clone, Debug, Default)]
pub struct ReplayTotals {
    pub tlb: Replay,
    pub cache: Replay,
    pub omt_cache: Replay,
    pub dram: Replay,
    /// Journal events read.
    pub events: u64,
}

/// Runs `pass` [`PASSES`] times on fresh state; returns the median
/// pass's nanoseconds and the last pass's hit count.
fn passes(mut pass: impl FnMut() -> (f64, u64)) -> (f64, u64) {
    let mut times = Vec::with_capacity(PASSES);
    let mut hits = 0;
    for _ in 0..PASSES {
        let (ns, h) = pass();
        times.push(ns);
        hits = h;
    }
    (median(&times), hits)
}

fn elapsed_ns(t: Instant) -> f64 {
    t.elapsed().as_nanos() as f64
}

/// Replays one machine's journal `records` into fresh components built
/// from `config`, adding to `totals`.
pub fn replay(config: &SystemConfig, records: &[EventRecord], totals: &mut ReplayTotals) {
    let mut tlb = Vec::new();
    let mut cache = Vec::new();
    let mut omt = Vec::new();
    let mut dram = Vec::new();
    for r in records {
        match r.event {
            Event::TlbLookup { asid, vpn, level, .. } => {
                tlb.push((Asid::new(asid), Vpn::new(vpn), level != HitLevel::Miss));
            }
            Event::CacheAccess { addr, write, level, .. } => {
                cache.push((PhysAddr::new(addr), write, level != HitLevel::Miss));
            }
            Event::OmsResolve { opn, cache_hit, .. } => omt.push((Opn::from_raw(opn), cache_hit)),
            Event::DramAccess { addr, write, .. } => {
                dram.push((r.cycle, MainMemAddr::new(addr), write));
            }
            _ => {}
        }
    }
    totals.events += records.len() as u64;

    // TLB: lookup, and on a miss fill the walked translation.
    let (ns, hits) = passes(|| {
        let mut t = Tlb::new(config.tlb.clone());
        let mut hits = 0;
        let start = Instant::now();
        for &(asid, vpn, _) in &tlb {
            if black_box(t.lookup(asid, vpn)).entry.is_some() {
                hits += 1;
            } else {
                let pte = Pte {
                    ppn: Ppn::new(vpn.raw()),
                    flags: PteFlags { present: true, ..PteFlags::default() },
                };
                t.fill(TlbEntry { asid, vpn, pte, obitvec: OBitVector::EMPTY });
            }
        }
        (elapsed_ns(start), hits)
    });
    add(&mut totals.tlb, tlb.len(), ns, hits, tlb.iter().filter(|e| e.2).count(), tlb.len());

    // Cache hierarchy: access, and on a full miss the demand fill.
    let (ns, hits) = passes(|| {
        let mut c = CacheHierarchy::new(config.hierarchy.clone());
        let mut hits = 0;
        let start = Instant::now();
        for &(addr, write, _) in &cache {
            let kind = if write { AccessKind::Write } else { AccessKind::Read };
            let out = black_box(c.access(addr, kind));
            if matches!(out.result, LookupResult::Miss) {
                black_box(c.fill(addr, write));
            } else {
                hits += 1;
            }
        }
        (elapsed_ns(start), hits)
    });
    add(
        &mut totals.cache,
        cache.len(),
        ns,
        hits,
        cache.iter().filter(|e| e.2).count(),
        cache.len(),
    );

    // OMT cache: one access per controller resolution.
    let (ns, hits) = passes(|| {
        let mut o = OmtCache::new(config.overlay.omt_cache_entries);
        let mut hits = 0;
        let start = Instant::now();
        for &(opn, _) in &omt {
            if black_box(o.access(opn, false)) {
                hits += 1;
            }
        }
        (elapsed_ns(start), hits)
    });
    add(&mut totals.omt_cache, omt.len(), ns, hits, omt.iter().filter(|e| e.1).count(), omt.len());

    // DRAM: reads and posted writes at the cycles the journal stamped.
    // Its hit rate is the row-buffer hit rate, which the journal does
    // not record: compare it with the whole-run `dram.row_hit_rate`.
    let mut row = (0, 0);
    let (ns, _) = passes(|| {
        let mut d = DramModel::new(config.dram.clone());
        let start = Instant::now();
        for &(cycle, addr, write) in &dram {
            black_box(if write { d.write(cycle, addr) } else { d.read(cycle, addr) });
        }
        let ns = elapsed_ns(start);
        let s = d.stats();
        row = (s.row_hits.get(), s.row_hits.get() + s.row_closed.get() + s.row_conflicts.get());
        (ns, 0)
    });
    add(&mut totals.dram, dram.len(), ns, row.0, 0, row.1 as usize);
}

fn add(r: &mut Replay, calls: usize, ns: f64, hits: u64, traced_hits: usize, events: usize) {
    r.calls += calls as u64;
    r.ns += ns;
    r.replay_hits += hits;
    r.traced_hits += traced_hits as u64;
    r.hit_events += events as u64;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(seq: u64, event: Event) -> EventRecord {
        EventRecord { seq, cycle: seq * 10, event }
    }

    #[test]
    fn a_repeated_stream_hits_after_its_first_touch() {
        let config = SystemConfig::table2_overlay();
        let mut records = Vec::new();
        for i in 0..4 {
            records.push(rec(
                i,
                Event::TlbLookup { asid: 1, vpn: 7, level: HitLevel::L1, latency: 1 },
            ));
            records.push(rec(
                i,
                Event::CacheAccess { addr: 0x4000, write: false, level: HitLevel::L1, latency: 4 },
            ));
            records.push(rec(i, Event::OmsResolve { opn: 9, line: 0, cache_hit: true }));
            records.push(rec(i, Event::DramAccess { addr: 0x8000, write: false, latency: 100 }));
        }
        let mut totals = ReplayTotals::default();
        replay(&config, &records, &mut totals);
        assert_eq!(totals.events, 16);
        for r in [&totals.tlb, &totals.cache, &totals.omt_cache] {
            assert_eq!(r.calls, 4);
            assert_eq!(r.replay_hits, 3, "cold miss, then hits");
            assert_eq!(r.traced_hit_rate(), 1.0);
        }
        assert_eq!(totals.dram.calls, 4);
        assert!(totals.dram.replay_hit_rate() > 0.0, "same row, so row hits after the first open");
    }
}
