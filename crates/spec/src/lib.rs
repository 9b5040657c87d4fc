//! # po-spec — a timing-free executable specification of VM+overlay semantics
//!
//! This crate is the *abstract machine* the concrete simulator must refine
//! (DESIGN.md §13). It models exactly the functional state the paper's
//! framework manages — per-process page tables, copy-on-write sharing, the
//! overlay mapping table with OBitVectors as plain sets, and the Overlay
//! Memory Store as a capacity-checked multiset of segments — and nothing
//! else: no caches, no TLBs, no cycles, no segment addresses.
//!
//! Three APIs matter:
//!
//! * [`SpecState::step`] — apply one [`SpecOp`], returning a
//!   [`SpecOutcome`]. Deterministic and total: an illegal op returns
//!   [`SpecOutcome::Illegal`] and leaves the state untouched.
//! * [`SpecState::legal_interior_states`] — for each multi-step transition
//!   (commit, discard, promotion, fork materialisation), the exact list of
//!   states a crash inside the transition may legally expose.
//! * [`SpecState::admits_interior`] — the membership test the DST harness
//!   uses after an interior crash: the observed (abstracted) machine state
//!   must be a legal interior state *modulo* concurrent memory-pressure
//!   collapses, which may independently commit any overlay page.
//!
//! The simulator side (α, the abstraction function, and the lockstep
//! driver) lives in `po-sim::spec_mirror`; this crate depends only on
//! `po-types` so any future backend can be checked against the same spec.

#![cfg_attr(not(test), deny(clippy::unwrap_used))]

use po_types::geometry::LINES_PER_PAGE;
use std::collections::BTreeMap;

/// The OMS segment-size ladder of §4.4.2: (capacity in overlay lines,
/// segment bytes). Sub-4 KB segments spend one line on metadata, so a
/// 256 B segment holds 3 overlay lines, and so on.
pub const SEGMENT_LADDER: [(usize, u64); 5] =
    [(3, 256), (7, 512), (15, 1024), (31, 2048), (64, 4096)];

/// Largest segment size in [`SEGMENT_LADDER`]; the slack allowed for one
/// orphaned segment when judging a crash inside the OMT-write→OMS-free
/// window.
pub const MAX_SEGMENT_BYTES: u64 = 4096;

/// Parameters the spec shares with the concrete configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpecParams {
    /// `true` = stores to shared pages use overlay-on-write;
    /// `false` = classic copy-on-write.
    pub overlay_mode: bool,
    /// Promote an overlay to a full page once this many lines are in it
    /// (§4.3.4).
    pub promote_threshold: usize,
    /// Smallest segment the OMS allocator will hand out, in bytes
    /// (`min_segment_class` of the concrete store).
    pub min_seg_bytes: u64,
}

impl Default for SpecParams {
    fn default() -> Self {
        Self { overlay_mode: true, promote_threshold: LINES_PER_PAGE, min_seg_bytes: 256 }
    }
}

/// One page of spec state: the frame it maps to (an abstract id — only
/// the *sharing partition* is meaningful, not the number), the PTE flags
/// the framework manages, and the overlay line set as a 64-bit mask
/// (0 = no overlay; the concrete machine never keeps an empty overlay).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpecPage {
    /// Abstract frame id; pages with equal ids share a frame.
    pub frame: u64,
    /// Write permission.
    pub writable: bool,
    /// Copy-on-write: shared until the first write privatises it.
    pub cow: bool,
    /// Overlays enabled on this mapping (§4.1).
    pub enabled: bool,
    /// OBitVector as a plain set: bit `l` = line `l` is in the overlay.
    pub overlay: u64,
}

/// One operation of the abstract machine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpecOp {
    /// Create a new empty process.
    Spawn,
    /// Map a fresh anonymous page (writable, not shared, overlays off).
    Map {
        /// Process index.
        pid: usize,
        /// Virtual page number (raw).
        vpn: u64,
    },
    /// Fork `parent`: commit its overlays (ascending VPN), share every
    /// page copy-on-write, and (in overlay mode) enable overlays on all
    /// pages of both processes.
    Fork {
        /// Parent process index.
        parent: usize,
    },
    /// Write one byte somewhere in line `line` of `vpn`. `timed` writes
    /// go through the hardware path and may promote (§4.3.4); untimed
    /// debug pokes never promote.
    Write {
        /// Process index.
        pid: usize,
        /// Virtual page number (raw).
        vpn: u64,
        /// Line index within the page (0..64).
        line: usize,
        /// Whether the write goes through the timed path (can promote).
        timed: bool,
    },
    /// Force line `line` into the overlay without changing PTE flags
    /// (the harness's `seed_overlay_line`).
    SeedLine {
        /// Process index.
        pid: usize,
        /// Virtual page number (raw).
        vpn: u64,
        /// Line index within the page (0..64).
        line: usize,
    },
    /// Commit the overlay of `vpn`: privatise the page, merge the lines,
    /// destroy the overlay.
    Commit {
        /// Process index.
        pid: usize,
        /// Virtual page number (raw).
        vpn: u64,
    },
    /// Discard the overlay of `vpn` without merging. Flags unchanged.
    Discard {
        /// Process index.
        pid: usize,
        /// Virtual page number (raw).
        vpn: u64,
    },
    /// Observation-guided commit: the concrete machine collapsed this
    /// overlay under memory pressure (or promoted it); the spec follows.
    /// Semantically identical to [`SpecOp::Commit`].
    ForceCommit {
        /// Process index.
        pid: usize,
        /// Virtual page number (raw).
        vpn: u64,
    },
}

/// Result of [`SpecState::step`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpecOutcome {
    /// The op applied and changed state.
    Applied,
    /// A process was created (by `Spawn` or `Fork`).
    Spawned {
        /// Index of the new process.
        pid: usize,
    },
    /// A write landed; reports the route the spec predicts.
    Wrote {
        /// `true` = the write went to the overlay; `false` = base page.
        overlay_route: bool,
        /// The write pushed the overlay over the promotion threshold.
        promoted: bool,
    },
    /// The op was legal but changed nothing.
    NoOp,
    /// The op is not allowed in this state; the state is unchanged.
    Illegal(&'static str),
}

/// The full abstract state: a map-of-maps page table (keyed
/// `(pid, vpn)`), with overlays and sharing folded into [`SpecPage`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpecState {
    params: SpecParams,
    procs: usize,
    pages: BTreeMap<(usize, u64), SpecPage>,
    next_frame: u64,
}

/// Bytes of the smallest §4.4.2 segment that holds `lines` overlay
/// lines, respecting the allocator's minimum class.
pub fn segment_bytes_for(lines: usize, min_seg_bytes: u64) -> u64 {
    let b = SEGMENT_LADDER
        .iter()
        .find(|&&(cap, _)| cap >= lines)
        .map(|&(_, bytes)| bytes)
        .unwrap_or(MAX_SEGMENT_BYTES);
    b.max(min_seg_bytes)
}

impl SpecState {
    /// Fresh state with no processes.
    pub fn new(params: SpecParams) -> Self {
        Self { params, procs: 0, pages: BTreeMap::new(), next_frame: 0 }
    }

    /// Builds an *observed* state from an abstraction function over a
    /// concrete machine (frame ids are the machine's physical page
    /// numbers — only the sharing partition is compared against spec
    /// states, never the raw ids). Such a state is for judging, not for
    /// stepping.
    pub fn observed(
        params: SpecParams,
        procs: usize,
        pages: impl IntoIterator<Item = ((usize, u64), SpecPage)>,
    ) -> Self {
        Self { params, procs, pages: pages.into_iter().collect(), next_frame: 0 }
    }

    /// The parameters this state was built with.
    pub fn params(&self) -> SpecParams {
        self.params
    }

    /// Number of processes spawned so far.
    pub fn procs(&self) -> usize {
        self.procs
    }

    /// The page table entry for `(pid, vpn)`, if mapped.
    pub fn page(&self, pid: usize, vpn: u64) -> Option<&SpecPage> {
        self.pages.get(&(pid, vpn))
    }

    /// All pages, in deterministic `(pid, vpn)` order.
    pub fn pages(&self) -> impl ExactSizeIterator<Item = (&(usize, u64), &SpecPage)> {
        self.pages.iter()
    }

    /// The overlay line mask of `(pid, vpn)` (0 if unmapped or none).
    pub fn overlay_raw(&self, pid: usize, vpn: u64) -> u64 {
        self.pages.get(&(pid, vpn)).map_or(0, |p| p.overlay)
    }

    /// Upper bound on the concrete Overlay Memory Store's
    /// `bytes_in_use`: one smallest-fitting segment per live overlay.
    /// Sound because the concrete allocator never migrates beyond the
    /// smallest class that fits the OBitVector, and tight after a full
    /// flush (every line evicted ⇒ every segment exactly this size).
    pub fn oms_bound_bytes(&self) -> u64 {
        self.pages
            .values()
            .filter(|p| p.overlay != 0)
            .map(|p| segment_bytes_for(p.overlay.count_ones() as usize, self.params.min_seg_bytes))
            .sum()
    }

    /// Deterministic textual encoding of the full state (BTreeMap order),
    /// used by the determinism property test.
    pub fn encode(&self) -> String {
        format!("{self:?}")
    }

    fn fresh_frame(&mut self) -> u64 {
        let f = self.next_frame;
        self.next_frame += 1;
        f
    }

    fn frame_refs(&self, frame: u64) -> usize {
        self.pages.values().filter(|p| p.frame == frame).count()
    }

    /// Resolve copy-on-write for a pending write to `(pid, vpn)`: flip
    /// in place if this is the frame's sole reference, else move the
    /// page to a private copy. No-op if already writable.
    fn resolve_cow(&mut self, pid: usize, vpn: u64) {
        let Some(pg) = self.pages.get(&(pid, vpn)).copied() else { return };
        if pg.writable {
            return;
        }
        let fresh = if self.frame_refs(pg.frame) > 1 { Some(self.fresh_frame()) } else { None };
        if let Some(pg) = self.pages.get_mut(&(pid, vpn)) {
            if let Some(f) = fresh {
                pg.frame = f;
            }
            pg.writable = true;
            pg.cow = false;
        }
    }

    /// Commit `(pid, vpn)`'s overlay: privatise, then drop the line set.
    fn commit_page(&mut self, pid: usize, vpn: u64) -> SpecOutcome {
        if self.overlay_raw(pid, vpn) == 0 {
            return SpecOutcome::NoOp;
        }
        self.resolve_cow(pid, vpn);
        if let Some(pg) = self.pages.get_mut(&(pid, vpn)) {
            pg.overlay = 0;
        }
        SpecOutcome::Applied
    }

    /// Whether a write to `line` of `(pid, vpn)` routes to the overlay
    /// (§4.1: overlay if the line is already there, or overlay-on-write
    /// applies to a shared page with overlays enabled).
    pub fn write_routes_to_overlay(&self, pid: usize, vpn: u64, line: usize) -> Option<bool> {
        let pg = self.pages.get(&(pid, vpn))?;
        let in_overlay = pg.overlay & (1u64 << line) != 0;
        Some(pg.enabled && (in_overlay || (self.params.overlay_mode && pg.cow && !pg.writable)))
    }

    /// Apply one operation. Total and deterministic; `Illegal` leaves
    /// the state untouched.
    pub fn step(&mut self, op: SpecOp) -> SpecOutcome {
        match op {
            SpecOp::Spawn => {
                let pid = self.procs;
                self.procs += 1;
                SpecOutcome::Spawned { pid }
            }
            SpecOp::Map { pid, vpn } => {
                if pid >= self.procs {
                    return SpecOutcome::Illegal("map: no such process");
                }
                if self.pages.contains_key(&(pid, vpn)) {
                    return SpecOutcome::NoOp;
                }
                let frame = self.fresh_frame();
                self.pages.insert(
                    (pid, vpn),
                    SpecPage { frame, writable: true, cow: false, enabled: false, overlay: 0 },
                );
                SpecOutcome::Applied
            }
            SpecOp::Fork { parent } => {
                if parent >= self.procs {
                    return SpecOutcome::Illegal("fork: no such process");
                }
                // 1. Materialise (commit) every parent overlay, ascending VPN.
                let overlaid: Vec<u64> = self
                    .pages
                    .range((parent, 0)..=(parent, u64::MAX))
                    .filter(|(_, p)| p.overlay != 0)
                    .map(|(&(_, vpn), _)| vpn)
                    .collect();
                for vpn in overlaid {
                    self.commit_page(parent, vpn);
                }
                // 2. Share every page copy-on-write with the child.
                let child = self.procs;
                self.procs += 1;
                let parent_pages: Vec<(u64, SpecPage)> = self
                    .pages
                    .range((parent, 0)..=(parent, u64::MAX))
                    .map(|(&(_, vpn), &p)| (vpn, p))
                    .collect();
                for (vpn, mut pg) in parent_pages {
                    pg.cow = true;
                    pg.writable = false;
                    pg.overlay = 0;
                    if let Some(parent_pg) = self.pages.get_mut(&(parent, vpn)) {
                        parent_pg.cow = true;
                        parent_pg.writable = false;
                    }
                    self.pages.insert((child, vpn), pg);
                }
                // 3. In overlay mode the OS enables overlays on both.
                if self.params.overlay_mode {
                    for (&(p, _), pg) in self.pages.range_mut((parent, 0)..=(parent, u64::MAX)) {
                        debug_assert_eq!(p, parent);
                        pg.enabled = true;
                    }
                    for (_, pg) in self.pages.range_mut((child, 0)..=(child, u64::MAX)) {
                        pg.enabled = true;
                    }
                }
                SpecOutcome::Spawned { pid: child }
            }
            SpecOp::Write { pid, vpn, line, timed } => {
                if line >= LINES_PER_PAGE {
                    return SpecOutcome::Illegal("write: line out of range");
                }
                let Some(overlay_route) = self.write_routes_to_overlay(pid, vpn, line) else {
                    return SpecOutcome::Illegal("write: page not mapped");
                };
                // Verified against the state; safe to unwrap-like access.
                let Some(pg) = self.pages.get(&(pid, vpn)).copied() else {
                    return SpecOutcome::Illegal("write: page not mapped");
                };
                if overlay_route {
                    let bit = 1u64 << line;
                    let mut promoted = false;
                    if pg.overlay & bit == 0 {
                        if let Some(pg) = self.pages.get_mut(&(pid, vpn)) {
                            pg.overlay |= bit;
                        }
                        let len = self.overlay_raw(pid, vpn).count_ones() as usize;
                        if timed && len >= self.params.promote_threshold {
                            self.commit_page(pid, vpn);
                            promoted = true;
                        }
                    }
                    SpecOutcome::Wrote { overlay_route: true, promoted }
                } else {
                    if !pg.writable {
                        if !pg.cow {
                            return SpecOutcome::Illegal("write: protection violation");
                        }
                        self.resolve_cow(pid, vpn);
                    }
                    SpecOutcome::Wrote { overlay_route: false, promoted: false }
                }
            }
            SpecOp::SeedLine { pid, vpn, line } => {
                if line >= LINES_PER_PAGE {
                    return SpecOutcome::Illegal("seed: line out of range");
                }
                let Some(pg) = self.pages.get_mut(&(pid, vpn)) else {
                    return SpecOutcome::NoOp;
                };
                let bit = 1u64 << line;
                if !pg.enabled || pg.overlay & bit != 0 {
                    return SpecOutcome::NoOp;
                }
                pg.overlay |= bit;
                SpecOutcome::Applied
            }
            SpecOp::Commit { pid, vpn } | SpecOp::ForceCommit { pid, vpn } => {
                self.commit_page(pid, vpn)
            }
            SpecOp::Discard { pid, vpn } => {
                let Some(pg) = self.pages.get_mut(&(pid, vpn)) else {
                    return SpecOutcome::NoOp;
                };
                if pg.overlay == 0 {
                    return SpecOutcome::NoOp;
                }
                pg.overlay = 0;
                SpecOutcome::Applied
            }
        }
    }

    /// Clone of this state with `(pid, vpn)` privatised (CoW resolved)
    /// but its overlay kept — the state between the page-table update
    /// and the overlay merge of a commit/promotion.
    fn with_privatized(&self, pid: usize, vpn: u64) -> SpecState {
        let mut s = self.clone();
        s.resolve_cow(pid, vpn);
        s
    }

    /// All states a crash *inside* `op` may legally expose, in
    /// transition order, starting with the pre-state and ending with the
    /// post-state. Assumes no concurrent memory-pressure collapse; use
    /// [`SpecState::admits_interior`] for the full membership test.
    pub fn legal_interior_states(&self, op: &SpecOp) -> Vec<SpecState> {
        let mut states = vec![self.clone()];
        let push_post = |states: &mut Vec<SpecState>| {
            let mut post = self.clone();
            post.step(*op);
            states.push(post);
        };
        match *op {
            SpecOp::Commit { pid, vpn } | SpecOp::ForceCommit { pid, vpn } => {
                if self.overlay_raw(pid, vpn) != 0 {
                    // prepare_write done, merge/destroy not yet.
                    states.push(self.with_privatized(pid, vpn));
                    push_post(&mut states);
                }
            }
            SpecOp::Discard { pid, vpn } => {
                if self.overlay_raw(pid, vpn) != 0 {
                    push_post(&mut states);
                }
            }
            SpecOp::Write { pid, vpn, line, timed } => {
                if self.write_routes_to_overlay(pid, vpn, line) == Some(true)
                    && self.overlay_raw(pid, vpn) & (1u64 << line) == 0
                {
                    let mut with_line = self.clone();
                    if let Some(pg) = with_line.pages.get_mut(&(pid, vpn)) {
                        pg.overlay |= 1u64 << line;
                    }
                    let promotes = timed
                        && with_line.overlay_raw(pid, vpn).count_ones() as usize
                            >= self.params.promote_threshold;
                    states.push(with_line.clone());
                    if promotes {
                        states.push(with_line.with_privatized(pid, vpn));
                    }
                }
                push_post(&mut states);
            }
            SpecOp::Fork { parent } => {
                // Materialisation commits parent overlays one page at a
                // time (ascending VPN); each commit has its own interior
                // privatised point. The fork proper (table clone) is
                // atomic from the crash machinery's point of view.
                let overlaid: Vec<u64> = self
                    .pages
                    .range((parent, 0)..=(parent, u64::MAX))
                    .filter(|(_, p)| p.overlay != 0)
                    .map(|(&(_, vpn), _)| vpn)
                    .collect();
                let mut s = self.clone();
                for vpn in overlaid {
                    states.push(s.with_privatized(parent, vpn));
                    s.commit_page(parent, vpn);
                    states.push(s.clone());
                }
                push_post(&mut states);
            }
            SpecOp::Spawn | SpecOp::Map { .. } | SpecOp::SeedLine { .. } => {
                push_post(&mut states);
            }
        }
        states
    }

    /// Judge an observed (abstracted) machine state captured by a crash
    /// *inside* `op`, with `self` as the pre-op state.
    ///
    /// Page-wise: every page must be its pre-state, the pre-state plus
    /// the op's target line (write/seed landed, nothing else yet), a
    /// privatised variant (CoW resolved, overlay kept or merged — the
    /// window inside commit/promotion, and what a concurrent
    /// memory-pressure collapse leaves behind on *any* page), or — for
    /// the op's target page only — cleared with flags untouched (the
    /// discard / OMT-write→OMS-free window). Sharing may only be split
    /// by a crash, never merged, and `enabled` never changes
    /// mid-transition.
    pub fn admits_interior(&self, observed: &SpecState, op: &SpecOp) -> Result<(), String> {
        if observed.procs != self.procs {
            return Err(format!(
                "interior state has {} processes, pre-state has {}",
                observed.procs, self.procs
            ));
        }
        if !observed.pages.keys().eq(self.pages.keys()) {
            return Err("interior state maps a different page set".into());
        }
        let target = match *op {
            SpecOp::Write { pid, vpn, line, .. } | SpecOp::SeedLine { pid, vpn, line } => {
                Some((pid, vpn, Some(line)))
            }
            SpecOp::Commit { pid, vpn }
            | SpecOp::ForceCommit { pid, vpn }
            | SpecOp::Discard { pid, vpn } => Some((pid, vpn, None)),
            _ => None,
        };
        for (key, pre) in &self.pages {
            let Some(o) = observed.pages.get(key) else { continue };
            let (is_target, tline) = match target {
                Some((pid, vpn, l)) if (pid, vpn) == *key => (true, l),
                _ => (false, None),
            };
            if o.enabled != pre.enabled {
                return Err(format!("page {key:?}: `enabled` changed mid-transition"));
            }
            let with_line = tline.map(|l| pre.overlay | (1u64 << l));
            let flags_same = o.writable == pre.writable && o.cow == pre.cow;
            let privatized = o.writable && !o.cow;
            let ok = (flags_same && o.overlay == pre.overlay)
                || (is_target && flags_same && Some(o.overlay) == with_line)
                || (privatized
                    && (o.overlay == pre.overlay
                        || o.overlay == 0
                        || Some(o.overlay) == with_line))
                || (is_target && flags_same && o.overlay == 0);
            if !ok {
                return Err(format!(
                    "page {key:?}: observed {o:?} is not a legal interior variant of {pre:?}"
                ));
            }
        }
        self.admits_partition_split(observed)
    }

    /// [`SpecState::admits_interior`] for transitions with no single
    /// target page (flush, reclaim, timed reads whose writebacks evict):
    /// only pressure variants — privatised, possibly with the overlay
    /// merged away — are legal, on any page.
    pub fn admits_interior_untargeted(&self, observed: &SpecState) -> Result<(), String> {
        self.admits_interior(observed, &SpecOp::Spawn)
    }

    fn admits_partition_split(&self, observed: &SpecState) -> Result<(), String> {
        // Sharing partition: a crash may split groups (CoW resolution)
        // but can never merge two frames.
        let mut rep: BTreeMap<u64, u64> = BTreeMap::new();
        for (key, o) in &observed.pages {
            let Some(pre) = self.pages.get(key) else { continue };
            if let Some(&prev) = rep.get(&o.frame) {
                if prev != pre.frame {
                    return Err(format!(
                        "pages sharing observed frame {} were not shared pre-op",
                        o.frame
                    ));
                }
            } else {
                rep.insert(o.frame, pre.frame);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn overlay_params(threshold: usize) -> SpecParams {
        SpecParams { overlay_mode: true, promote_threshold: threshold, min_seg_bytes: 256 }
    }

    fn forked_pair() -> (SpecState, usize, usize) {
        let mut s = SpecState::new(overlay_params(64));
        let SpecOutcome::Spawned { pid } = s.step(SpecOp::Spawn) else { panic!() };
        assert_eq!(s.step(SpecOp::Map { pid, vpn: 0x100 }), SpecOutcome::Applied);
        let SpecOutcome::Spawned { pid: child } = s.step(SpecOp::Fork { parent: pid }) else {
            panic!()
        };
        (s, pid, child)
    }

    #[test]
    fn map_then_write_is_base_route() {
        let mut s = SpecState::new(overlay_params(64));
        s.step(SpecOp::Spawn);
        s.step(SpecOp::Map { pid: 0, vpn: 1 });
        let out = s.step(SpecOp::Write { pid: 0, vpn: 1, line: 0, timed: false });
        assert_eq!(out, SpecOutcome::Wrote { overlay_route: false, promoted: false });
        assert_eq!(s.overlay_raw(0, 1), 0);
    }

    #[test]
    fn fork_shares_cow_and_enables_overlays() {
        let (s, parent, child) = forked_pair();
        for pid in [parent, child] {
            let pg = s.page(pid, 0x100).expect("mapped");
            assert!(pg.cow && !pg.writable && pg.enabled);
        }
        assert_eq!(s.page(parent, 0x100).map(|p| p.frame), s.page(child, 0x100).map(|p| p.frame));
    }

    #[test]
    fn overlay_write_after_fork_routes_to_overlay_and_promotes_at_threshold() {
        let mut s = SpecState::new(overlay_params(3));
        s.step(SpecOp::Spawn);
        s.step(SpecOp::Map { pid: 0, vpn: 7 });
        s.step(SpecOp::Fork { parent: 0 });
        for line in 0..2 {
            let out = s.step(SpecOp::Write { pid: 0, vpn: 7, line, timed: true });
            assert_eq!(out, SpecOutcome::Wrote { overlay_route: true, promoted: false });
        }
        assert_eq!(s.overlay_raw(0, 7).count_ones(), 2);
        let out = s.step(SpecOp::Write { pid: 0, vpn: 7, line: 2, timed: true });
        assert_eq!(out, SpecOutcome::Wrote { overlay_route: true, promoted: true });
        let pg = s.page(0, 7).expect("mapped");
        assert_eq!(pg.overlay, 0);
        assert!(pg.writable && !pg.cow, "promotion privatises the page");
        // The child still points at the original frame.
        assert_ne!(pg.frame, s.page(1, 7).expect("child page").frame);
    }

    #[test]
    fn untimed_pokes_never_promote() {
        let mut s = SpecState::new(overlay_params(2));
        s.step(SpecOp::Spawn);
        s.step(SpecOp::Map { pid: 0, vpn: 7 });
        s.step(SpecOp::Fork { parent: 0 });
        for line in 0..8 {
            let out = s.step(SpecOp::Write { pid: 0, vpn: 7, line, timed: false });
            assert_eq!(out, SpecOutcome::Wrote { overlay_route: true, promoted: false });
        }
        assert_eq!(s.overlay_raw(0, 7).count_ones(), 8);
    }

    #[test]
    fn commit_privatises_and_clears_discard_only_clears() {
        let (mut s, parent, child) = forked_pair();
        s.step(SpecOp::Write { pid: parent, vpn: 0x100, line: 5, timed: false });
        let mut t = s.clone();
        assert_eq!(s.step(SpecOp::Commit { pid: parent, vpn: 0x100 }), SpecOutcome::Applied);
        let pg = s.page(parent, 0x100).expect("mapped");
        assert!(pg.writable && !pg.cow && pg.overlay == 0);
        assert_ne!(pg.frame, s.page(child, 0x100).expect("child").frame);
        assert_eq!(t.step(SpecOp::Discard { pid: parent, vpn: 0x100 }), SpecOutcome::Applied);
        let pg = t.page(parent, 0x100).expect("mapped");
        assert!(!pg.writable && pg.cow && pg.overlay == 0, "discard leaves flags alone");
        assert_eq!(pg.frame, t.page(child, 0x100).expect("child").frame);
    }

    #[test]
    fn sole_owner_commit_flips_in_place() {
        let (mut s, parent, _child) = forked_pair();
        s.step(SpecOp::SeedLine { pid: parent, vpn: 0x100, line: 1 });
        // Commit the child's view first so the parent becomes sole owner.
        let f_before = s.page(parent, 0x100).expect("pg").frame;
        s.step(SpecOp::Write { pid: 1, vpn: 0x100, line: 0, timed: false });
        s.step(SpecOp::Commit { pid: 1, vpn: 0x100 });
        s.step(SpecOp::Commit { pid: parent, vpn: 0x100 });
        let pg = s.page(parent, 0x100).expect("pg");
        assert!(pg.writable && !pg.cow);
        assert_eq!(pg.frame, f_before, "sole owner keeps its frame");
    }

    #[test]
    fn fork_commits_parent_overlays_first() {
        let (mut s, parent, _child) = forked_pair();
        s.step(SpecOp::Write { pid: parent, vpn: 0x100, line: 3, timed: false });
        let SpecOutcome::Spawned { pid: c2 } = s.step(SpecOp::Fork { parent }) else { panic!() };
        assert_eq!(s.overlay_raw(parent, 0x100), 0, "fork materialises parent overlays");
        let pg = s.page(parent, 0x100).expect("pg");
        assert!(pg.cow && !pg.writable, "then re-shares with the child");
        assert_eq!(pg.frame, s.page(c2, 0x100).expect("pg").frame);
    }

    #[test]
    fn oms_bound_follows_segment_ladder() {
        assert_eq!(segment_bytes_for(1, 256), 256);
        assert_eq!(segment_bytes_for(3, 256), 256);
        assert_eq!(segment_bytes_for(4, 256), 512);
        assert_eq!(segment_bytes_for(16, 256), 2048);
        assert_eq!(segment_bytes_for(64, 256), 4096);
        assert_eq!(segment_bytes_for(1, 1024), 1024, "respects the allocator minimum");
        let (mut s, parent, child) = forked_pair();
        for line in 0..5 {
            s.step(SpecOp::Write { pid: parent, vpn: 0x100, line, timed: false });
        }
        s.step(SpecOp::Write { pid: child, vpn: 0x100, line: 0, timed: false });
        assert_eq!(s.oms_bound_bytes(), 512 + 256);
    }

    #[test]
    fn illegal_ops_leave_state_untouched() {
        let (s, parent, _) = forked_pair();
        let mut t = s.clone();
        assert!(matches!(
            t.step(SpecOp::Write { pid: parent, vpn: 0xDEAD, line: 0, timed: false }),
            SpecOutcome::Illegal(_)
        ));
        assert!(matches!(t.step(SpecOp::Map { pid: 99, vpn: 1 }), SpecOutcome::Illegal(_)));
        assert_eq!(s, t);
    }

    #[test]
    fn legal_interior_states_for_commit() {
        let (mut s, parent, _) = forked_pair();
        s.step(SpecOp::Write { pid: parent, vpn: 0x100, line: 9, timed: false });
        let op = SpecOp::Commit { pid: parent, vpn: 0x100 };
        let states = s.legal_interior_states(&op);
        assert_eq!(states.len(), 3, "pre, privatised, post");
        assert_eq!(states[0], s);
        let mid = &states[1];
        let pg = mid.page(parent, 0x100).expect("pg");
        assert!(pg.writable && !pg.cow && pg.overlay != 0);
        let mut post = s.clone();
        post.step(op);
        assert_eq!(states[2], post);
        // Every enumerated state passes the membership test.
        for st in &states {
            s.admits_interior(st, &op).expect("enumerated state must be admitted");
        }
    }

    #[test]
    fn admits_interior_accepts_pressure_collapse_and_rejects_merges() {
        let (mut s, parent, child) = forked_pair();
        s.step(SpecOp::Map { pid: parent, vpn: 0x200 });
        s.step(SpecOp::SeedLine { pid: parent, vpn: 0x100, line: 2 });
        let op = SpecOp::SeedLine { pid: parent, vpn: 0x100, line: 7 };

        // A concurrent reclaim may commit a *different* overlay page.
        let mut pressure = s.clone();
        pressure.step(SpecOp::Write { pid: child, vpn: 0x100, line: 1, timed: false });
        pressure.step(SpecOp::ForceCommit { pid: child, vpn: 0x100 });
        s.step(SpecOp::Write { pid: child, vpn: 0x100, line: 1, timed: false });
        s.admits_interior(&pressure, &op).expect("pressure collapse is legal");

        // Adding a line the op did not target is not legal.
        let mut rogue = s.clone();
        if let Some(pg) = rogue.pages.get_mut(&(parent, 0x100)) {
            pg.overlay |= 1 << 40;
        }
        assert!(s.admits_interior(&rogue, &op).is_err(), "spurious line must be rejected");

        // Merging two unshared frames is not legal.
        let mut merged = s.clone();
        let f = merged.pages[&(parent, 0x100)].frame;
        if let Some(pg) = merged.pages.get_mut(&(parent, 0x200)) {
            pg.frame = f;
        }
        assert!(s.admits_interior(&merged, &op).is_err(), "frame merge must be rejected");

        // Flipping `enabled` mid-transition is not legal.
        let mut toggled = s.clone();
        if let Some(pg) = toggled.pages.get_mut(&(parent, 0x200)) {
            pg.enabled = true;
        }
        assert!(s.admits_interior(&toggled, &op).is_err(), "enabled flip must be rejected");
    }

    #[test]
    fn interior_states_of_promotion_include_line_and_privatised_variants() {
        let mut s = SpecState::new(overlay_params(2));
        s.step(SpecOp::Spawn);
        s.step(SpecOp::Map { pid: 0, vpn: 4 });
        s.step(SpecOp::Fork { parent: 0 });
        s.step(SpecOp::Write { pid: 0, vpn: 4, line: 0, timed: false });
        let op = SpecOp::Write { pid: 0, vpn: 4, line: 1, timed: true };
        let states = s.legal_interior_states(&op);
        // pre, line-added, line-added+privatised, post.
        assert_eq!(states.len(), 4);
        assert_eq!(states[1].overlay_raw(0, 4).count_ones(), 2);
        let pg = states[2].page(0, 4).expect("pg");
        assert!(pg.writable && !pg.cow && pg.overlay.count_ones() == 2);
        assert_eq!(states[3].overlay_raw(0, 4), 0, "post-promotion overlay is gone");
        for st in &states {
            s.admits_interior(st, &op).expect("enumerated state must be admitted");
        }
    }

    #[test]
    fn encode_is_deterministic() {
        let build = || {
            let (mut s, parent, child) = forked_pair();
            s.step(SpecOp::Write { pid: parent, vpn: 0x100, line: 3, timed: false });
            s.step(SpecOp::Write { pid: child, vpn: 0x100, line: 9, timed: false });
            s.step(SpecOp::Commit { pid: child, vpn: 0x100 });
            s.encode()
        };
        assert_eq!(build(), build());
    }
}
