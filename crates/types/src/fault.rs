//! Deterministic fault injection for robustness testing.
//!
//! The paper's only discussed failure mode — the Overlay Memory Store
//! running dry and the OS refusing to grow it (§4.4.3) — is one of
//! several ways a real overlay-capable memory system can degrade. This
//! module provides a seeded, reproducible way to exercise all of them:
//! a [`FaultPlan`] names the [`FaultSite`]s that may fire (each with a
//! per-query probability or an explicit schedule of query indices), and
//! a [`FaultInjector`] handle is threaded through the OS model, the
//! overlay manager, the DRAM model and the machine. The default
//! injector is inert: [`FaultInjector::none`] carries no state and its
//! [`fire`](FaultInjector::fire) fast-path is a single `Option`
//! discriminant test, so benchmarks and production-style runs pay
//! nothing.
//!
//! Determinism contract: with the same plan (same seed, same site
//! configuration) the same sequence of `fire` calls produces the same
//! sequence of decisions, independent of wall-clock or platform.
//!
//! # Example
//!
//! ```
//! use po_types::fault::{FaultInjector, FaultPlan, FaultSite};
//!
//! // Refuse ~30% of OMS grow requests, deterministically.
//! let plan = FaultPlan::new(0xC0FFEE).with_probability(FaultSite::OmsGrowRefused, 0.3);
//! let inj = FaultInjector::from_plan(plan);
//! let refusals = (0..1000).filter(|_| inj.fire(FaultSite::OmsGrowRefused)).count();
//! assert!(refusals > 200 && refusals < 400);
//! assert_eq!(inj.injected(FaultSite::OmsGrowRefused), refusals as u64);
//!
//! // The default injector never fires and costs nothing.
//! let none = FaultInjector::none();
//! assert!(!none.fire(FaultSite::OmsGrowRefused));
//! ```

use crate::rng::SplitMix64;
use crate::snapshot::{SnapshotReader, SnapshotWriter};
use crate::{PoError, PoResult};
use std::collections::BTreeSet;
use std::sync::{Arc, Mutex};

/// Places in the simulated system where a fault can be injected.
///
/// Each variant corresponds to one guarded decision point in a model
/// crate; the enum lives here in `po-types` so every layer shares the
/// same vocabulary.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[non_exhaustive]
pub enum FaultSite {
    /// The OS refuses to grant the overlay manager another OMS chunk
    /// (§4.4.3: memory pressure — the one failure mode the paper names).
    OmsGrowRefused,
    /// The OS frame allocator is exhausted: `alloc_frame` fails even
    /// though the simulated DRAM capacity is not actually consumed.
    FrameAllocExhausted,
    /// An OMT-cache entry is corrupted: the entry is dropped and the
    /// controller must re-walk the in-memory OMT (detected-and-
    /// discarded ECC model, not silent data corruption).
    OmtCacheCorruption,
    /// A DRAM read suffers a transient (correctable) error and must be
    /// retried, costing extra latency.
    DramReadError,
    /// A TLB shootdown IPI times out and must be re-sent, stalling the
    /// initiating core for an extra round-trip.
    TlbShootdownTimeout,
    /// The OMS allocator transiently fails an allocation even though
    /// free segments exist (controller metadata glitch), forcing the
    /// caller through the grow/reclaim path.
    OmsAllocFailed,
    /// The whole machine "loses power" at an operation boundary: the
    /// simulation-test harness polls this site between ops and, when it
    /// fires, abandons the in-flight run, restores the last snapshot and
    /// replays the journaled suffix (deterministic simulation testing).
    CrashPoint,
    /// The segment copy inside an OMS compaction pass fails (transient
    /// copy-engine error). The pass must abort cleanly — the destination
    /// segment is released, the OMT keeps pointing at the old segment —
    /// and the caller may retry the whole pass later.
    CompactionRelocationFailed,
}

impl FaultSite {
    /// All sites, for iteration in reports and tests.
    pub const ALL: [FaultSite; 8] = [
        FaultSite::OmsGrowRefused,
        FaultSite::FrameAllocExhausted,
        FaultSite::OmtCacheCorruption,
        FaultSite::DramReadError,
        FaultSite::TlbShootdownTimeout,
        FaultSite::OmsAllocFailed,
        FaultSite::CrashPoint,
        FaultSite::CompactionRelocationFailed,
    ];

    #[inline]
    fn index(self) -> usize {
        match self {
            FaultSite::OmsGrowRefused => 0,
            FaultSite::FrameAllocExhausted => 1,
            FaultSite::OmtCacheCorruption => 2,
            FaultSite::DramReadError => 3,
            FaultSite::TlbShootdownTimeout => 4,
            FaultSite::OmsAllocFailed => 5,
            FaultSite::CrashPoint => 6,
            FaultSite::CompactionRelocationFailed => 7,
        }
    }
}

const NUM_SITES: usize = FaultSite::ALL.len();

/// Where in an operation a [`FaultSite::CrashPoint`] query is polled.
///
/// PR-1's crash machinery only polled at op boundaries, so the states
/// mid-way through a multi-step transition — exactly the ones the
/// paper's atomicity argument (§4.4.2) is about — were never exercised.
/// A [`FaultPlan`] now carries one armed stage; polls at any *other*
/// stage are transparent (they neither count nor fire), so the
/// crash-point query stream stays aligned between a golden run and a
/// crashy run regardless of which stage is armed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CrashStage {
    /// Between two trace ops — the PR-1 behaviour, and the default.
    #[default]
    OpBoundary,
    /// Inside promotion (§4.4.2): after the destination page has been
    /// privatized (CoW resolved) but before the overlay is committed
    /// into it.
    MidPromotion,
    /// Inside reclaim/commit materialization: after the destination
    /// page has been privatized but before the overlay collapses.
    MidReclaim,
    /// Between the OMT entry removal and the OMS segment free during
    /// overlay destruction — the window where the store still holds a
    /// segment no OMT entry points at.
    OmtFreeWindow,
    /// Inside an OMS compaction relocation: either after the segment
    /// bytes are copied but before the OMT entry is repointed, or after
    /// the repoint but before the old segment is freed. Both windows
    /// leave exactly one orphaned segment in the store and no abstract
    /// state change — compaction is semantically invisible.
    MidCompaction,
}

impl CrashStage {
    /// All stages, for iteration in matrices and tests.
    pub const ALL: [CrashStage; 5] = [
        CrashStage::OpBoundary,
        CrashStage::MidPromotion,
        CrashStage::MidReclaim,
        CrashStage::OmtFreeWindow,
        CrashStage::MidCompaction,
    ];

    /// The interior (non-boundary) stages.
    pub const INTERIOR: [CrashStage; 4] = [
        CrashStage::MidPromotion,
        CrashStage::MidReclaim,
        CrashStage::OmtFreeWindow,
        CrashStage::MidCompaction,
    ];

    #[inline]
    fn index(self) -> u8 {
        match self {
            CrashStage::OpBoundary => 0,
            CrashStage::MidPromotion => 1,
            CrashStage::MidReclaim => 2,
            CrashStage::OmtFreeWindow => 3,
            CrashStage::MidCompaction => 4,
        }
    }

    fn from_index(i: u8) -> Option<Self> {
        Self::ALL.into_iter().find(|s| s.index() == i)
    }

    /// Stable display name (used in test matrices and reports).
    pub fn name(self) -> &'static str {
        match self {
            CrashStage::OpBoundary => "op-boundary",
            CrashStage::MidPromotion => "mid-promotion",
            CrashStage::MidReclaim => "mid-reclaim",
            CrashStage::OmtFreeWindow => "omt-free-window",
            CrashStage::MidCompaction => "mid-compaction",
        }
    }
}

/// How one site decides whether a given query fires.
#[derive(Clone, Debug, Default)]
enum Trigger {
    /// Never fires (default for unconfigured sites).
    #[default]
    Never,
    /// Fires independently on each query with this probability.
    Probability(f64),
    /// Fires exactly on these 0-based query indices (per-site counter).
    Schedule(BTreeSet<u64>),
}

/// A seeded description of which faults fire where.
///
/// Build one with [`FaultPlan::new`], then chain
/// [`with_probability`](FaultPlan::with_probability) /
/// [`at_queries`](FaultPlan::at_queries) calls, and hand it to
/// [`FaultInjector::from_plan`].
#[derive(Clone, Debug)]
pub struct FaultPlan {
    seed: u64,
    triggers: [Trigger; NUM_SITES],
    crash_stage: CrashStage,
}

impl FaultPlan {
    /// An empty plan (no site fires) with the given RNG seed.
    pub fn new(seed: u64) -> Self {
        Self { seed, triggers: Default::default(), crash_stage: CrashStage::default() }
    }

    /// Makes `site` fire independently on each query with probability
    /// `p` (clamped to `[0, 1]`).
    #[must_use]
    pub fn with_probability(mut self, site: FaultSite, p: f64) -> Self {
        self.triggers[site.index()] = Trigger::Probability(p.clamp(0.0, 1.0));
        self
    }

    /// Makes `site` fire exactly on the given 0-based query indices
    /// (each site counts its own queries).
    #[must_use]
    pub fn at_queries<I: IntoIterator<Item = u64>>(mut self, site: FaultSite, queries: I) -> Self {
        self.triggers[site.index()] = Trigger::Schedule(queries.into_iter().collect());
        self
    }

    /// Arms [`FaultSite::CrashPoint`] polls at `stage` instead of the
    /// default [`CrashStage::OpBoundary`]. Polls at other stages are
    /// transparent: they neither count nor fire.
    #[must_use]
    pub fn with_crash_stage(mut self, stage: CrashStage) -> Self {
        self.crash_stage = stage;
        self
    }

    /// The stage at which crash-point polls are live.
    pub fn crash_stage(&self) -> CrashStage {
        self.crash_stage
    }
}

/// Mutable per-injector state, shared by all clones of a handle.
#[derive(Debug)]
struct FaultState {
    rng: SplitMix64,
    triggers: [Trigger; NUM_SITES],
    queries: [u64; NUM_SITES],
    injected: [u64; NUM_SITES],
    crash_stage: CrashStage,
}

/// A cloneable handle asked "does a fault fire here?" at each guarded
/// decision point.
///
/// All clones of a handle share one state: the machine hands clones to
/// the OS model, the overlay manager and the DRAM model, and a single
/// report covers them all. [`FaultInjector::none`] (also `Default`) is
/// inert and allocation-free.
#[derive(Clone, Debug, Default)]
pub struct FaultInjector(Option<Arc<Mutex<FaultState>>>);

impl FaultInjector {
    /// The inert injector: never fires, never allocates.
    #[inline]
    pub const fn none() -> Self {
        Self(None)
    }

    /// Builds an active injector executing `plan`.
    pub fn from_plan(plan: FaultPlan) -> Self {
        Self(Some(Arc::new(Mutex::new(FaultState {
            rng: SplitMix64::new(plan.seed),
            triggers: plan.triggers,
            queries: [0; NUM_SITES],
            injected: [0; NUM_SITES],
            crash_stage: plan.crash_stage,
        }))))
    }

    /// `true` if this handle can ever fire (i.e. was built from a plan).
    #[inline]
    pub fn is_active(&self) -> bool {
        self.0.is_some()
    }

    /// Asks whether a fault fires at `site`. Counts the query, and the
    /// injection if it fires. The no-plan fast path is a single
    /// discriminant test.
    #[inline]
    pub fn fire(&self, site: FaultSite) -> bool {
        match &self.0 {
            None => false,
            Some(state) => Self::fire_slow(state, site),
        }
    }

    fn fire_slow(state: &Mutex<FaultState>, site: FaultSite) -> bool {
        // Lock poisoning cannot occur: no code panics while holding
        // this mutex (the closure below is panic-free), so unwrap_or_else
        // recovers the guard rather than crashing the simulation.
        let mut s = state.lock().unwrap_or_else(|e| e.into_inner());
        let i = site.index();
        let q = s.queries[i];
        s.queries[i] += 1;
        let fires = match &s.triggers[i] {
            Trigger::Never => false,
            Trigger::Probability(p) => {
                let p = *p;
                s.rng.next_f64() < p
            }
            Trigger::Schedule(set) => set.contains(&q),
        };
        if fires {
            s.injected[i] += 1;
        }
        fires
    }

    /// Polls [`FaultSite::CrashPoint`] at a named [`CrashStage`]. When
    /// `stage` matches the armed stage of the plan, this is exactly
    /// [`fire`](FaultInjector::fire) on the crash-point site; when it
    /// does not, the poll is transparent — it neither counts a query
    /// nor consumes RNG state — so the crash-point query stream is
    /// identical however many *other* stages the run passes through.
    #[inline]
    pub fn fire_crash(&self, stage: CrashStage) -> bool {
        match &self.0 {
            None => false,
            Some(state) => {
                {
                    let s = state.lock().unwrap_or_else(|e| e.into_inner());
                    if s.crash_stage != stage {
                        return false;
                    }
                }
                Self::fire_slow(state, FaultSite::CrashPoint)
            }
        }
    }

    /// The crash stage this injector is armed at.
    pub fn crash_stage(&self) -> CrashStage {
        self.0.as_ref().map_or(CrashStage::OpBoundary, |s| {
            s.lock().unwrap_or_else(|e| e.into_inner()).crash_stage
        })
    }

    /// Number of times `site` has been queried.
    pub fn queries(&self, site: FaultSite) -> u64 {
        self.0
            .as_ref()
            .map_or(0, |s| s.lock().unwrap_or_else(|e| e.into_inner()).queries[site.index()])
    }

    /// Number of faults injected at `site`.
    pub fn injected(&self, site: FaultSite) -> u64 {
        self.0
            .as_ref()
            .map_or(0, |s| s.lock().unwrap_or_else(|e| e.into_inner()).injected[site.index()])
    }

    /// Total faults injected across all sites.
    pub fn total_injected(&self) -> u64 {
        self.0
            .as_ref()
            .map_or(0, |s| s.lock().unwrap_or_else(|e| e.into_inner()).injected.iter().sum())
    }

    /// Disarms `site` on this injector (and all clones sharing its
    /// state): subsequent queries at the site still count but never
    /// fire. The crash-replay harness uses this to clear the
    /// [`FaultSite::CrashPoint`] schedule after restoring a snapshot so
    /// the replay run does not crash again at the same op.
    pub fn clear_trigger(&self, site: FaultSite) {
        if let Some(state) = &self.0 {
            let mut s = state.lock().unwrap_or_else(|e| e.into_inner());
            s.triggers[site.index()] = Trigger::Never;
        }
    }

    /// Serializes the injector (RNG position, triggers, per-site query
    /// and injection counters) so a restored machine makes the *same*
    /// future fault decisions the original would have.
    pub fn encode_snapshot(&self, w: &mut SnapshotWriter) {
        match &self.0 {
            None => w.put_bool(false),
            Some(state) => {
                w.put_bool(true);
                let s = state.lock().unwrap_or_else(|e| e.into_inner());
                w.put_u64(s.rng.state);
                w.put_u8(s.crash_stage.index());
                for t in &s.triggers {
                    match t {
                        Trigger::Never => w.put_u8(0),
                        Trigger::Probability(p) => {
                            w.put_u8(1);
                            w.put_f64(*p);
                        }
                        Trigger::Schedule(set) => {
                            w.put_u8(2);
                            w.put_len(set.len());
                            for q in set {
                                w.put_u64(*q);
                            }
                        }
                    }
                }
                for q in &s.queries {
                    w.put_u64(*q);
                }
                for n in &s.injected {
                    w.put_u64(*n);
                }
            }
        }
    }

    /// Rebuilds an injector from [`encode_snapshot`] bytes.
    ///
    /// # Errors
    ///
    /// Returns [`PoError::Corrupted`] on truncation or malformed tags.
    pub fn decode_snapshot(r: &mut SnapshotReader) -> PoResult<Self> {
        if !r.get_bool()? {
            return Ok(Self::none());
        }
        let rng = SplitMix64 { state: r.get_u64()? };
        let crash_stage = CrashStage::from_index(r.get_u8()?)
            .ok_or(PoError::Corrupted("snapshot crash stage unknown"))?;
        let mut triggers: [Trigger; NUM_SITES] = Default::default();
        for t in &mut triggers {
            *t = match r.get_u8()? {
                0 => Trigger::Never,
                1 => Trigger::Probability(r.get_f64()?),
                2 => {
                    let n = r.get_len()?;
                    let mut set = BTreeSet::new();
                    for _ in 0..n {
                        set.insert(r.get_u64()?);
                    }
                    Trigger::Schedule(set)
                }
                _ => return Err(PoError::Corrupted("snapshot fault trigger tag unknown")),
            };
        }
        let mut queries = [0u64; NUM_SITES];
        for q in &mut queries {
            *q = r.get_u64()?;
        }
        let mut injected = [0u64; NUM_SITES];
        for n in &mut injected {
            *n = r.get_u64()?;
        }
        Ok(Self(Some(Arc::new(Mutex::new(FaultState {
            rng,
            triggers,
            queries,
            injected,
            crash_stage,
        })))))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inert_injector_never_fires_and_counts_nothing() {
        let inj = FaultInjector::none();
        for site in FaultSite::ALL {
            for _ in 0..100 {
                assert!(!inj.fire(site));
            }
            assert_eq!(inj.queries(site), 0);
            assert_eq!(inj.injected(site), 0);
        }
        assert!(!inj.is_active());
        assert_eq!(inj.total_injected(), 0);
    }

    #[test]
    fn probability_trigger_is_deterministic_per_seed() {
        let mk = || {
            FaultInjector::from_plan(
                FaultPlan::new(42).with_probability(FaultSite::DramReadError, 0.5),
            )
        };
        let (a, b) = (mk(), mk());
        let fa: Vec<bool> = (0..256).map(|_| a.fire(FaultSite::DramReadError)).collect();
        let fb: Vec<bool> = (0..256).map(|_| b.fire(FaultSite::DramReadError)).collect();
        assert_eq!(fa, fb);
        assert!(fa.iter().any(|&x| x) && fa.iter().any(|&x| !x));
    }

    #[test]
    fn schedule_trigger_fires_exactly_on_listed_queries() {
        let inj = FaultInjector::from_plan(
            FaultPlan::new(0).at_queries(FaultSite::OmsGrowRefused, [0, 3, 4]),
        );
        let fired: Vec<bool> = (0..6).map(|_| inj.fire(FaultSite::OmsGrowRefused)).collect();
        assert_eq!(fired, [true, false, false, true, true, false]);
        assert_eq!(inj.injected(FaultSite::OmsGrowRefused), 3);
        assert_eq!(inj.queries(FaultSite::OmsGrowRefused), 6);
    }

    #[test]
    fn sites_count_independently_and_clones_share_state() {
        let inj = FaultInjector::from_plan(
            FaultPlan::new(7)
                .with_probability(FaultSite::OmsGrowRefused, 1.0)
                .with_probability(FaultSite::FrameAllocExhausted, 0.0),
        );
        let clone = inj.clone();
        assert!(clone.fire(FaultSite::OmsGrowRefused));
        assert!(!clone.fire(FaultSite::FrameAllocExhausted));
        assert_eq!(inj.injected(FaultSite::OmsGrowRefused), 1);
        assert_eq!(inj.injected(FaultSite::FrameAllocExhausted), 0);
        assert_eq!(inj.total_injected(), 1);
    }

    #[test]
    fn snapshot_round_trip_preserves_future_decisions() {
        let inj = FaultInjector::from_plan(
            FaultPlan::new(0xFEED)
                .with_probability(FaultSite::DramReadError, 0.5)
                .at_queries(FaultSite::CrashPoint, [2, 5]),
        );
        // Advance past some queries so RNG position and counters matter.
        for _ in 0..10 {
            inj.fire(FaultSite::DramReadError);
        }
        inj.fire(FaultSite::CrashPoint);

        let mut w = SnapshotWriter::new();
        inj.encode_snapshot(&mut w);
        let bytes = w.finish();
        let mut r = SnapshotReader::new(&bytes);
        let restored = FaultInjector::decode_snapshot(&mut r).unwrap();
        r.expect_end().unwrap();

        assert_eq!(restored.queries(FaultSite::DramReadError), 10);
        assert_eq!(restored.injected(FaultSite::CrashPoint), 0);
        let a: Vec<bool> = (0..64).map(|_| inj.fire(FaultSite::DramReadError)).collect();
        let b: Vec<bool> = (0..64).map(|_| restored.fire(FaultSite::DramReadError)).collect();
        assert_eq!(a, b);
        // Schedule sites stay aligned too (query 2 fires on both).
        assert_eq!(inj.fire(FaultSite::CrashPoint), restored.fire(FaultSite::CrashPoint));
        assert!(inj.fire(FaultSite::CrashPoint));
        assert!(restored.fire(FaultSite::CrashPoint));
    }

    #[test]
    fn inert_injector_snapshot_round_trips() {
        let mut w = SnapshotWriter::new();
        FaultInjector::none().encode_snapshot(&mut w);
        let bytes = w.finish();
        let mut r = SnapshotReader::new(&bytes);
        let restored = FaultInjector::decode_snapshot(&mut r).unwrap();
        r.expect_end().unwrap();
        assert!(!restored.is_active());
    }

    #[test]
    fn clear_trigger_disarms_site_across_clones() {
        let inj = FaultInjector::from_plan(
            FaultPlan::new(1).with_probability(FaultSite::CrashPoint, 1.0),
        );
        let clone = inj.clone();
        assert!(inj.fire(FaultSite::CrashPoint));
        clone.clear_trigger(FaultSite::CrashPoint);
        assert!(!inj.fire(FaultSite::CrashPoint));
        assert_eq!(inj.queries(FaultSite::CrashPoint), 2);
    }

    #[test]
    fn mismatched_stage_polls_are_transparent() {
        let inj = FaultInjector::from_plan(
            FaultPlan::new(9)
                .at_queries(FaultSite::CrashPoint, [1])
                .with_crash_stage(CrashStage::MidPromotion),
        );
        // Polls at every *other* stage never count nor fire.
        for stage in [CrashStage::OpBoundary, CrashStage::MidReclaim, CrashStage::OmtFreeWindow] {
            for _ in 0..10 {
                assert!(!inj.fire_crash(stage), "{}", stage.name());
            }
        }
        assert_eq!(inj.queries(FaultSite::CrashPoint), 0);
        // Matched polls follow the schedule (query 1 fires).
        assert!(!inj.fire_crash(CrashStage::MidPromotion));
        assert!(inj.fire_crash(CrashStage::MidPromotion));
        assert_eq!(inj.queries(FaultSite::CrashPoint), 2);
        assert_eq!(inj.injected(FaultSite::CrashPoint), 1);
    }

    #[test]
    fn fire_crash_at_default_stage_matches_fire() {
        let a = FaultInjector::from_plan(FaultPlan::new(3).at_queries(FaultSite::CrashPoint, [2]));
        let b = FaultInjector::from_plan(FaultPlan::new(3).at_queries(FaultSite::CrashPoint, [2]));
        for _ in 0..4 {
            assert_eq!(a.fire_crash(CrashStage::OpBoundary), b.fire(FaultSite::CrashPoint));
        }
        assert_eq!(FaultInjector::none().crash_stage(), CrashStage::OpBoundary);
        assert!(!FaultInjector::none().fire_crash(CrashStage::MidReclaim));
    }

    #[test]
    fn snapshot_round_trip_preserves_crash_stage() {
        let inj = FaultInjector::from_plan(
            FaultPlan::new(0xABCD)
                .at_queries(FaultSite::CrashPoint, [0, 4])
                .with_crash_stage(CrashStage::OmtFreeWindow),
        );
        assert!(inj.fire_crash(CrashStage::OmtFreeWindow));
        let mut w = SnapshotWriter::new();
        inj.encode_snapshot(&mut w);
        let bytes = w.finish();
        let mut r = SnapshotReader::new(&bytes);
        let restored = FaultInjector::decode_snapshot(&mut r).unwrap();
        r.expect_end().unwrap();
        assert_eq!(restored.crash_stage(), CrashStage::OmtFreeWindow);
        assert_eq!(restored.queries(FaultSite::CrashPoint), 1);
        // Stage gating survives the round-trip: boundary polls stay
        // transparent, window polls track the schedule in lockstep.
        assert!(!restored.fire_crash(CrashStage::OpBoundary));
        for _ in 0..4 {
            assert_eq!(
                inj.fire_crash(CrashStage::OmtFreeWindow),
                restored.fire_crash(CrashStage::OmtFreeWindow)
            );
        }
    }

    #[test]
    fn probability_is_clamped() {
        let always = FaultInjector::from_plan(
            FaultPlan::new(1).with_probability(FaultSite::TlbShootdownTimeout, 7.5),
        );
        assert!(always.fire(FaultSite::TlbShootdownTimeout));
        let never = FaultInjector::from_plan(
            FaultPlan::new(1).with_probability(FaultSite::TlbShootdownTimeout, -3.0),
        );
        assert!(!never.fire(FaultSite::TlbShootdownTimeout));
    }
}
