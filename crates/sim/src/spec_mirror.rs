//! The refinement oracle: po-spec stepped in lockstep with the
//! [`Machine`] (DESIGN.md §13).
//!
//! [`SpecMirror`] owns a [`SpecState`] plus the `pid ↔ Asid` mapping,
//! and exposes:
//!
//! * per-op stepping hooks the harness calls exactly where it does its
//!   byte-oracle bookkeeping (`on_spawn`, `on_map`, `on_write`, …);
//! * [`SpecMirror::reconcile`] — the observation-guided sweep mirroring
//!   the machine's autonomous commits (promotions and pressure
//!   collapses happen deep inside the timed path, invisible to the op
//!   stream; an overlay the machine no longer has is force-committed in
//!   the spec);
//! * [`SpecMirror::check_refinement`] — the abstraction function α over
//!   the machine (page tables, flags, OBitVectors, sharing partition,
//!   OMS bytes) compared field-by-field against the spec after every
//!   transition;
//! * [`SpecMirror::check_interior`] — after an interior crash, α of the
//!   half-finished machine must be a state
//!   [`SpecState::admits_interior`] accepts.
//!
//! The mirror lives entirely outside the timed path: it steps on
//! functional outcomes only and never feeds back into the machine, so
//! timing baselines are unaffected.

use crate::config::SystemConfig;
use crate::machine::Machine;
use po_spec::{SpecOp, SpecOutcome, SpecPage, SpecParams, SpecState, MAX_SEGMENT_BYTES};
use po_types::{Asid, FxHashMap, Opn, VirtAddr, Vpn};

/// The spec half of the lockstep pair. Cheap to clone (snapshotted by
/// the crash-convergence runner alongside the byte oracle).
#[derive(Clone, Debug)]
pub struct SpecMirror {
    spec: SpecState,
    /// `asids[pid]` is the machine process the spec's `pid` mirrors.
    asids: Vec<Asid>,
}

impl SpecMirror {
    /// A mirror for a machine built from `config`, with no processes.
    pub fn new(config: &SystemConfig) -> Self {
        let params = SpecParams {
            overlay_mode: config.overlay_semantics(),
            promote_threshold: config.promote_threshold,
            min_seg_bytes: config.overlay.min_segment_class.bytes() as u64,
        };
        Self { spec: SpecState::new(params), asids: Vec::new() }
    }

    /// The current abstract state.
    pub fn state(&self) -> &SpecState {
        &self.spec
    }

    /// The spec process index mirroring `asid`.
    pub fn pid_of(&self, asid: Asid) -> Option<usize> {
        self.asids.iter().position(|&a| a == asid)
    }

    fn pid(&self, asid: Asid) -> Result<usize, String> {
        self.pid_of(asid)
            .ok_or_else(|| format!("asid {} is unknown to the spec mirror", asid.raw()))
    }

    /// A process was spawned.
    pub fn on_spawn(&mut self, asid: Asid) {
        self.spec.step(SpecOp::Spawn);
        self.asids.push(asid);
    }

    /// One page was mapped.
    ///
    /// # Errors
    ///
    /// The spec considers the map illegal — a refinement finding.
    pub fn on_map(&mut self, asid: Asid, vpn: Vpn) -> Result<(), String> {
        let pid = self.pid(asid)?;
        match self.spec.step(SpecOp::Map { pid, vpn: vpn.raw() }) {
            SpecOutcome::Illegal(why) => Err(format!("spec rejects map of {vpn:?}: {why}")),
            _ => Ok(()),
        }
    }

    /// `parent` forked into `child`.
    ///
    /// # Errors
    ///
    /// The spec considers the fork illegal — a refinement finding.
    pub fn on_fork(&mut self, parent: Asid, child: Asid) -> Result<(), String> {
        let pid = self.pid(parent)?;
        match self.spec.step(SpecOp::Fork { parent: pid }) {
            SpecOutcome::Illegal(why) => {
                Err(format!("spec rejects fork of asid {}: {why}", parent.raw()))
            }
            _ => {
                self.asids.push(child);
                Ok(())
            }
        }
    }

    /// A write landed (functionally succeeded) at `va`. Returns the
    /// route the spec predicts so the harness can compare it with the
    /// machine's.
    ///
    /// # Errors
    ///
    /// The spec considers the write illegal — a refinement finding.
    pub fn on_write(
        &mut self,
        asid: Asid,
        va: VirtAddr,
        timed: bool,
    ) -> Result<SpecOutcome, String> {
        let pid = self.pid(asid)?;
        let op = SpecOp::Write { pid, vpn: va.vpn().raw(), line: va.line_in_page(), timed };
        match self.spec.step(op) {
            SpecOutcome::Illegal(why) => Err(format!(
                "spec rejects a write the machine performed at asid {} va {:#x}: {why}",
                asid.raw(),
                va.raw()
            )),
            out => Ok(out),
        }
    }

    /// A line was force-seeded into the overlay of `(asid, vpn)`.
    pub fn on_seed(&mut self, asid: Asid, vpn: Vpn, line: usize) {
        if let Some(pid) = self.pid_of(asid) {
            self.spec.step(SpecOp::SeedLine { pid, vpn: vpn.raw(), line });
        }
    }

    /// The overlay of `(asid, vpn)` was committed (or found already
    /// gone).
    pub fn on_commit(&mut self, asid: Asid, vpn: Vpn) {
        if let Some(pid) = self.pid_of(asid) {
            self.spec.step(SpecOp::Commit { pid, vpn: vpn.raw() });
        }
    }

    /// The overlay of `(asid, vpn)` was discarded.
    pub fn on_discard(&mut self, asid: Asid, vpn: Vpn) {
        if let Some(pid) = self.pid_of(asid) {
            self.spec.step(SpecOp::Discard { pid, vpn: vpn.raw() });
        }
    }

    /// After a *benign* write failure (resource exhaustion mid-op): the
    /// overlay line may have landed before the failure. Believe the
    /// machine's OBitVector for the one line the op targeted, exactly as
    /// the byte oracle does.
    pub fn repair_line(&mut self, machine: &Machine, asid: Asid, va: VirtAddr) {
        let line = va.line_in_page();
        let landed = machine
            .overlay()
            .obitvec(Opn::encode(asid, va.vpn()))
            .map(|v| v.contains(line))
            .unwrap_or(false);
        if landed {
            self.on_seed(asid, va.vpn(), line);
        }
    }

    /// Observation-guided sweep: any spec overlay the machine no longer
    /// holds was promoted or pressure-collapsed inside the op —
    /// force-commit it (same privatise-then-merge semantics).
    pub fn reconcile(&mut self, machine: &Machine) {
        let vanished: Vec<(usize, u64)> = self
            .spec
            .pages()
            .filter(|(_, p)| p.overlay != 0)
            .map(|(&(pid, vpn), _)| (pid, vpn))
            .filter(|&(pid, vpn)| {
                !machine.overlay().has_overlay(Opn::encode(self.asids[pid], Vpn::new(vpn)))
            })
            .collect();
        for (pid, vpn) in vanished {
            self.spec.step(SpecOp::ForceCommit { pid, vpn });
        }
    }

    /// The abstraction function α, page by page and lazily, in
    /// `(pid, vpn)` order: each tracked process's page table (frame ids
    /// = raw PPNs; only the partition matters) with its OBitVectors.
    ///
    /// # Errors
    ///
    /// A machine process the mirror tracks cannot be enumerated.
    fn observe<'a>(
        &'a self,
        machine: &'a Machine,
    ) -> Result<impl Iterator<Item = ((usize, u64), SpecPage)> + 'a, String> {
        let tables = self
            .asids
            .iter()
            .map(|&asid| {
                let table = machine.os().pages(asid);
                table
                    .map(|t| (asid, t))
                    .map_err(|e| format!("α: cannot enumerate asid {}: {e:?}", asid.raw()))
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(tables.into_iter().enumerate().flat_map(move |(pid, (asid, table))| {
            table.map(move |(vpn, pte)| {
                let overlay = machine.overlay().obitvec(Opn::encode(asid, vpn));
                let page = SpecPage {
                    frame: pte.ppn.raw(),
                    writable: pte.flags.writable,
                    cow: pte.flags.cow,
                    enabled: pte.flags.overlay_enabled,
                    overlay: overlay.map_or(0, |v| v.raw()),
                };
                ((pid, vpn.raw()), page)
            })
        }))
    }

    /// α(machine) as a whole observed [`SpecState`].
    fn alpha(&self, machine: &Machine) -> Result<SpecState, String> {
        Ok(SpecState::observed(self.spec.params(), self.asids.len(), self.observe(machine)?))
    }

    /// Refinement check: α(machine) must equal the spec state — same
    /// processes, same mapped pages, same flags, same overlay sets, an
    /// isomorphic sharing partition — and the machine's overlay store
    /// must fit under the spec's segment-ladder bound.
    ///
    /// One ordered walk of [`observe`](Self::observe) beside the spec's
    /// pages. The sharing partitions are isomorphic iff every page has
    /// the same canonical representative on both sides: the first page,
    /// in walk order, that maps its frame.
    ///
    /// # Errors
    ///
    /// A human-readable description of the first violation.
    pub fn check_refinement(&self, machine: &Machine, procs: &[Asid]) -> Result<(), String> {
        if procs != self.asids {
            return Err("harness process list diverged from the spec mirror".into());
        }
        if self.spec.procs() != self.asids.len() {
            return Err(format!(
                "spec tracks {} processes, mirror {}",
                self.spec.procs(),
                self.asids.len()
            ));
        }
        let (mut observed, mut spec) = (self.observe(machine)?, self.spec.pages());
        // Each frame's canonical representative, per side.
        let (mut spec_reps, mut machine_reps) = (FxHashMap::default(), FxHashMap::default());
        // Pages with a non-empty overlay: given the per-page comparison,
        // every machine overlay is one of them iff the counts match.
        let mut overlays = 0;
        loop {
            let (key, o, s) = match (observed.next(), spec.next()) {
                (None, None) => break,
                (Some((key, o)), Some((&k, s))) if k == key => (key, o, s),
                (o, s) => {
                    return Err(format!(
                        "mapped page sets differ: next spec page {:?}, next machine page {:?}",
                        s.map(|(k, _)| k),
                        o.map(|(k, _)| k)
                    ))
                }
            };
            if (s.writable, s.cow, s.enabled) != (o.writable, o.cow, o.enabled) {
                return Err(format!(
                    "flags diverge on page {key:?}: spec (writable={}, cow={}, enabled={}), \
                     machine (writable={}, cow={}, enabled={})",
                    s.writable, s.cow, s.enabled, o.writable, o.cow, o.enabled
                ));
            }
            if s.overlay != o.overlay {
                return Err(format!(
                    "overlay line sets diverge on page {key:?}: spec {:#018x}, machine {:#018x}",
                    s.overlay, o.overlay
                ));
            }
            overlays += usize::from(o.overlay != 0);
            let spec_rep = *spec_reps.entry(s.frame).or_insert(key);
            let machine_rep = *machine_reps.entry(o.frame).or_insert(key);
            if spec_rep != machine_rep {
                return Err(format!(
                    "sharing partition diverges on page {key:?}: spec shares with {spec_rep:?}, \
                     machine with {machine_rep:?}"
                ));
            }
        }
        if machine.overlay().overlay_count() != overlays {
            let unknown = machine.overlay_pages().into_iter().find(|opn| {
                let (asid, vpn) = opn.decode();
                self.pid_of(asid).is_none_or(|pid| self.spec.overlay_raw(pid, vpn.raw()) == 0)
            });
            return Err(format!(
                "machine holds an overlay the spec does not know about: {unknown:?}"
            ));
        }
        let bytes = machine.overlay().overlay_memory_bytes();
        let bound = self.spec.oms_bound_bytes();
        if bytes > bound {
            return Err(format!(
                "OMS holds {bytes} bytes, above the spec's segment-ladder bound of {bound}"
            ));
        }
        Ok(())
    }

    /// After an interior crash inside `op` (`None` = an op with no
    /// single target page): α of the half-finished machine must be a
    /// legal mid-transition state, and the OMS may exceed the bound by
    /// at most one orphaned segment (the OMT-write→OMS-free window).
    ///
    /// # Errors
    ///
    /// A human-readable description of why the state is illegal.
    pub fn check_interior(
        &self,
        machine: &Machine,
        procs: &[Asid],
        op: Option<&SpecOp>,
    ) -> Result<(), String> {
        if procs != self.asids {
            return Err("harness process list diverged from the spec mirror".into());
        }
        let observed = self.alpha(machine)?;
        match op {
            Some(op) => self.spec.admits_interior(&observed, op)?,
            None => self.spec.admits_interior_untargeted(&observed)?,
        }
        let bytes = machine.overlay().overlay_memory_bytes();
        let bound = observed.oms_bound_bytes() + MAX_SEGMENT_BYTES;
        if bytes > bound {
            return Err(format!(
                "OMS holds {bytes} bytes mid-crash, above the bound {bound} (one orphan allowed)"
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim_test::{generate_soak_ops, SimHarness};

    type Pages = Vec<((usize, u64), SpecPage)>;
    type Edit<'a> = (&'a str, &'a dyn Fn(&mut Pages));

    /// Replaces the spec with α(machine) after a short soak stream, with
    /// exactly one edit per violation class, and asserts the class's
    /// message. The unedited observation must refine.
    #[test]
    fn each_violation_class_is_caught() {
        let mut h = SimHarness::new(SystemConfig::table2_overlay()).unwrap();
        for op in &generate_soak_ops(11, 400) {
            h.apply(op).unwrap();
        }
        let pages: Pages =
            h.spec.alpha(&h.machine).unwrap().pages().map(|(&k, &p)| (k, p)).collect();
        let mid = pages.len() / 2;
        let frame_of = |i: usize| pages[i].1.frame;
        let shared = (0..pages.len())
            .find(|&i| pages.iter().filter(|(_, p)| p.frame == frame_of(i)).count() > 1)
            .expect("the stream leaves a shared frame");
        let other = pages.iter().position(|(_, p)| p.frame != frame_of(0)).expect("two frames");
        let overlaid = pages.iter().position(|(_, p)| p.overlay != 0).expect("a live overlay");
        let edits: [Edit; 8] = [
            ("", &|_| {}),
            ("mapped page sets differ", &|p| {
                p.remove(mid);
            }),
            ("flags diverge", &|p| p[mid].1.writable ^= true),
            ("flags diverge", &|p| p[mid].1.cow ^= true),
            ("flags diverge", &|p| p[mid].1.enabled ^= true),
            ("overlay line sets diverge", &|p| {
                p[overlaid].1.overlay &= p[overlaid].1.overlay - 1;
            }),
            ("sharing partition diverges", &|p| p[other].1.frame = frame_of(0)),
            ("sharing partition diverges", &|p| p[shared].1.frame = u64::MAX),
        ];
        for (class, edit) in edits {
            let mut edited = pages.clone();
            edit(&mut edited);
            h.spec.spec = SpecState::observed(h.spec.spec.params(), h.procs.len(), edited);
            match h.spec.check_refinement(&h.machine, &h.procs) {
                Ok(()) => assert_eq!(class, "", "{class} went unnoticed"),
                Err(e) => assert!(!class.is_empty() && e.contains(class), "{class:?}: {e}"),
            }
        }
    }
}
