//! Deterministic simulation testing: the differential harness, the
//! seeded op-stream generator, the crash-convergence runner, and the
//! trace shrinker (DESIGN.md §8).
//!
//! The pieces compose into two test shapes:
//!
//! * **Differential run** — [`SimHarness::apply`] executes one
//!   [`TraceOp`] against the machine *and* the [`DiffOracle`], probing
//!   the machine for routing (does this write land in an overlay?) while
//!   the oracle independently tracks every byte's expected value. Each
//!   `Peek` is compared on the spot; [`SimHarness::check_all`] sweeps at
//!   the end; [`Machine::verify_invariants`] runs after every op.
//! * **Crash convergence** — [`run_crash_convergence`] runs the same
//!   trace twice: a golden run, and a run that crashes at a scheduled
//!   [`FaultSite::CrashPoint`] query, restores the last
//!   [`Machine::save_snapshot`], replays the journaled op suffix (after
//!   a round-trip through [`crate::trace_io`]), and must end
//!   byte-identical to the golden snapshot.
//!
//! Harness-level ops resolve their `proc_sel` modulo the live process
//! count and clamp page numbers into a bounded window, so **every
//! subsequence of a valid trace is itself valid** — the property the
//! [`shrink_ops`] delta-debugging loop relies on.

use crate::config::SystemConfig;
use crate::machine::Machine;
use crate::oracle::DiffOracle;
use crate::runner::drive_ops;
use crate::spec_mirror::SpecMirror;
use crate::trace::TraceOp;
use crate::trace_io::{read_trace, write_trace};
use po_spec::{SpecOp, SpecOutcome};
use po_telemetry::TelemetrySink;
use po_types::geometry::{LINES_PER_PAGE, LINE_SIZE, PAGE_SIZE};
use po_types::SplitMix64;
use po_types::{Asid, CrashStage, FaultPlan, FaultSite, LineData, Opn, PoError, VirtAddr, Vpn};

/// Journal/span ring capacity the traced harness entry points install:
/// enough context to see what led up to a divergence, small enough to
/// dump next to a shrunk trace.
pub const FAILURE_EVENT_TAIL: usize = 256;

/// First virtual page the generator maps (mirrors the scenario setups).
pub const VPN_BASE: u64 = 0x100;
/// Harness-level VPNs are taken modulo this span (fits the 36-bit OPN
/// VPN field with slack, keeps arbitrary trace files safe to replay).
/// See [`clamp_vpn`] and [`clamp_va`].
pub const MAX_VPN_SPAN: u64 = 1 << 20;
/// Upper bound on pages a single `Map` op may create.
pub const MAX_MAP_PAGES: u32 = 64;

/// Machine errors the harness treats as benign outcomes of an op (the
/// op is skipped; resource exhaustion and unmapped targets are normal
/// under fault injection and random traces). Everything else is a bug.
fn benign(e: &PoError) -> bool {
    matches!(
        e,
        PoError::Unmapped(_)
            | PoError::OutOfMemory
            | PoError::OverlayStoreExhausted
            | PoError::NoOverlay(_)
    )
}

/// The address a functional op (`Poke`, `Peek`) targets: `va` folded
/// into the [`MAX_VPN_SPAN`] window.
#[must_use]
pub fn clamp_va(va: VirtAddr) -> VirtAddr {
    VirtAddr::new(va.raw() % (MAX_VPN_SPAN * PAGE_SIZE as u64))
}

/// The page an overlay op (`SeedLine`, `CommitPage`, `DiscardPage`)
/// targets: `vpn` folded into the [`MAX_VPN_SPAN`] window.
#[must_use]
pub fn clamp_vpn(vpn: u64) -> Vpn {
    Vpn::new(vpn % MAX_VPN_SPAN)
}

/// The line a `SeedLine` op targets.
#[must_use]
pub fn clamp_line(line: u8) -> usize {
    line as usize % LINES_PER_PAGE
}

/// Where a functional write will land, per the machine's own state.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Route {
    Unmapped,
    Base,
    Delta,
}

/// How [`SimHarness::apply_inner`] stopped short of a clean op: a
/// scheduled interior crash (normal under the crash-convergence
/// runners, a finding everywhere else), or a genuine failure.
enum Interrupt {
    Crash(CrashStage),
    Fail(String),
}

impl From<String> for Interrupt {
    fn from(e: String) -> Self {
        Interrupt::Fail(e)
    }
}

/// Classifies a hard machine error: a simulated power loss becomes
/// [`Interrupt::Crash`] (the site-specific message is dropped — the
/// stage says everything), anything else keeps its description.
fn interrupt(e: &PoError, msg: String) -> Interrupt {
    match e {
        PoError::Crashed(stage) => Interrupt::Crash(*stage),
        _ => Interrupt::Fail(msg),
    }
}

/// The differential harness: a [`Machine`] and its [`DiffOracle`] in
/// lockstep, plus the live process list that `proc_sel` selectors
/// resolve against.
pub struct SimHarness {
    /// The machine under test.
    pub machine: Machine,
    /// The reference byte model.
    pub oracle: DiffOracle,
    /// Live processes in spawn order.
    pub procs: Vec<Asid>,
    /// The executable spec stepped in lockstep; refinement is asserted
    /// against it after every clean op (DESIGN.md §13).
    pub spec: SpecMirror,
    /// Core the next timed op issues on (set by [`TraceOp::OnCore`],
    /// already resolved modulo the configured core count; 0 initially).
    pub current_core: usize,
    /// Test-only deliberate bug: a `Poke` of `0x42` writes `0x43` into
    /// the machine (the oracle keeps `0x42`) — used to prove the fuzzer
    /// detects and shrinks real divergence.
    pub inject_bug: bool,
    /// Set when the last op was cut short by a scheduled interior crash;
    /// consumed by [`SimHarness::take_crashed`].
    crashed: Option<CrashStage>,
}

impl SimHarness {
    /// Creates a harness with no processes and no fault plan.
    ///
    /// # Errors
    ///
    /// Propagates machine construction failures.
    pub fn new(config: SystemConfig) -> po_types::PoResult<Self> {
        let spec = SpecMirror::new(&config);
        Ok(Self {
            machine: Machine::new(config)?,
            oracle: DiffOracle::new(),
            procs: Vec::new(),
            spec,
            current_core: 0,
            inject_bug: false,
            crashed: None,
        })
    }

    /// [`SimHarness::new`] plus an installed [`FaultPlan`].
    ///
    /// # Errors
    ///
    /// Propagates machine construction failures.
    pub fn with_fault_plan(config: SystemConfig, plan: FaultPlan) -> po_types::PoResult<Self> {
        let mut h = Self::new(config)?;
        h.machine.install_fault_plan(plan);
        Ok(h)
    }

    /// Arms the machine with an active telemetry sink whose journal and
    /// span rings hold `capacity` entries, so a later failure report can
    /// include the event tail ([`SimHarness::telemetry_tail`]).
    pub fn enable_telemetry(&mut self, capacity: usize) {
        self.machine.install_telemetry(TelemetrySink::with_capacity(capacity, capacity));
    }

    /// Last `n` journal events as JSONL (empty when telemetry is off).
    #[must_use]
    pub fn telemetry_tail(&self, n: usize) -> String {
        self.machine.telemetry().tail_jsonl(n)
    }

    /// The live process a `proc_sel` selector names: taken modulo the
    /// process count, `None` before the first spawn.
    #[must_use]
    pub fn resolve(&self, sel: u32) -> Option<Asid> {
        if self.procs.is_empty() {
            None
        } else {
            Some(self.procs[sel as usize % self.procs.len()])
        }
    }

    /// Applies one op to the machine, the oracle, and the spec mirror,
    /// then re-syncs committed overlays, asserts refinement against the
    /// spec, and checks machine invariants.
    ///
    /// A scheduled interior crash is **not** an error here: the op stops
    /// mid-transition, [`SimHarness::take_crashed`] reports the stage,
    /// and the post-op checks are skipped (the machine is deliberately
    /// half-way through a transition — the crash-convergence runner
    /// judges it with [`SimHarness::check_interior_crash`] instead).
    ///
    /// # Errors
    ///
    /// `Err` means **divergence, a refinement violation, or an
    /// unexpected machine failure** — a genuine finding, not a benign
    /// skip.
    pub fn apply(&mut self, op: &TraceOp) -> Result<(), String> {
        if !self.advance(op)? {
            return Ok(());
        }
        // Refinement runs before the machine's own invariant sweep so a
        // semantic bug is attributed to the spec oracle even when it
        // also corrupts an internal accounting invariant.
        self.spec
            .check_refinement(&self.machine, &self.procs)
            .map_err(|e| format!("spec refinement violated after {op:?}: {e}"))?;
        self.machine
            .verify_invariants()
            .map_err(|e| format!("invariant violated after {op:?}: {e:?}"))
    }

    /// [`SimHarness::apply`] without the refinement check and the
    /// invariant sweep: the op runs on the machine, the oracle and the
    /// spec mirror, committed overlays are re-synced, and the mirror is
    /// reconciled with the machine, so [`SpecMirror::state`] is exact
    /// afterwards.
    ///
    /// # Errors
    ///
    /// Divergence or an unexpected machine failure, as for `apply`.
    pub fn step(&mut self, op: &TraceOp) -> Result<(), String> {
        self.advance(op).map(drop)
    }

    /// The shared half of [`apply`](Self::apply) and
    /// [`step`](Self::step). Returns `false` when a scheduled interior
    /// crash cut the op short (the mirrors are then left as the crash
    /// froze them).
    fn advance(&mut self, op: &TraceOp) -> Result<bool, String> {
        match self.apply_inner(op) {
            Ok(()) => {}
            Err(Interrupt::Crash(stage)) => {
                self.crashed = Some(stage);
                return Ok(false);
            }
            Err(Interrupt::Fail(e)) => return Err(e),
        }
        self.sync_committed();
        self.spec.reconcile(&self.machine);
        Ok(true)
    }

    /// The stage of the interior crash that cut the last op short, if
    /// any. Consuming: the flag resets so the next op starts clean.
    pub fn take_crashed(&mut self) -> Option<CrashStage> {
        self.crashed.take()
    }

    /// The spec op mirroring `op`'s target, for interior-crash
    /// legality. `None` when the op has no single target page (timed
    /// reads, flush, reclaim) or resolves to no process.
    fn interior_spec_op(&self, op: &TraceOp) -> Option<SpecOp> {
        match *op {
            TraceOp::Store(va) => {
                let pid = self.spec.pid_of(self.procs.first().copied()?)?;
                Some(SpecOp::Write {
                    pid,
                    vpn: va.vpn().raw(),
                    line: va.line_in_page(),
                    timed: true,
                })
            }
            TraceOp::Fork { proc_sel } => {
                let pid = self.spec.pid_of(self.resolve(proc_sel)?)?;
                Some(SpecOp::Fork { parent: pid })
            }
            TraceOp::SeedLine { proc_sel, vpn, line, .. } => {
                let pid = self.spec.pid_of(self.resolve(proc_sel)?)?;
                Some(SpecOp::SeedLine { pid, vpn: clamp_vpn(vpn).raw(), line: clamp_line(line) })
            }
            TraceOp::CommitPage { proc_sel, vpn } => {
                let pid = self.spec.pid_of(self.resolve(proc_sel)?)?;
                Some(SpecOp::Commit { pid, vpn: clamp_vpn(vpn).raw() })
            }
            TraceOp::DiscardPage { proc_sel, vpn } => {
                let pid = self.spec.pid_of(self.resolve(proc_sel)?)?;
                Some(SpecOp::Discard { pid, vpn: clamp_vpn(vpn).raw() })
            }
            _ => None,
        }
    }

    /// After an interior crash inside `op`: asserts the machine froze in
    /// a state the spec's [`po_spec::SpecState::admits_interior`]
    /// membership test accepts.
    ///
    /// # Errors
    ///
    /// The machine is in a mid-transition state the spec declares
    /// unreachable.
    pub fn check_interior_crash(&self, op: &TraceOp) -> Result<(), String> {
        let spec_op = self.interior_spec_op(op);
        self.spec.check_interior(&self.machine, &self.procs, spec_op.as_ref())
    }

    /// Oracle-side bookkeeping for commits the harness did not issue
    /// itself: promotions and pressure-driven collapses fold an overlay
    /// into its physical page from deep inside the timed path. An
    /// overlay the machine no longer has can never be discarded again,
    /// so its delta becomes permanent.
    fn sync_committed(&mut self) {
        for (asid, vpn) in self.oracle.delta_pages() {
            if !self.machine.overlay().has_overlay(Opn::encode(asid, vpn)) {
                self.oracle.merge_delta(asid, vpn);
            }
        }
    }

    /// Replicates the machine's write-routing decision from its own
    /// observable state (PTE flags + OBitVector).
    fn route_of(&self, asid: Asid, va: VirtAddr) -> Route {
        let Ok(pte) = self.machine.os().translate(asid, va) else {
            return Route::Unmapped;
        };
        let opn = Opn::encode(asid, va.vpn());
        let in_overlay = self
            .machine
            .overlay()
            .obitvec(opn)
            .map(|v| v.contains(va.line_in_page()))
            .unwrap_or(false);
        let overlay_write = pte.flags.overlay_enabled
            && (in_overlay
                || (self.machine.config().overlay_semantics()
                    && pte.flags.cow
                    && !pte.flags.writable));
        if overlay_write {
            Route::Delta
        } else {
            Route::Base
        }
    }

    fn apply_inner(&mut self, op: &TraceOp) -> Result<(), Interrupt> {
        match *op {
            TraceOp::Compute(_) | TraceOp::Load(_) | TraceOp::Store(_) => {
                let Some(asid) = self.procs.first().copied() else { return Ok(()) };
                match self.machine.execute_at_core(self.current_core, asid, op) {
                    Ok(()) => {
                        if let TraceOp::Store(va) = *op {
                            // `timed: false`: whether a store promotes
                            // depends on the issuing core's TLB copy of
                            // the OBitVector (which can lag the OMT), so
                            // the mirror never predicts promotion — the
                            // reconcile sweep mirrors whichever overlays
                            // the machine actually collapsed.
                            let out =
                                self.spec.on_write(asid, va, false).map_err(Interrupt::Fail)?;
                            // The route itself can also be unpredictable:
                            // a fork that died mid-materialize leaves
                            // privatized pages with stale TLB entries
                            // (the flush happens only when fork
                            // succeeds), so the store may overlay-route
                            // where the page table — and the spec — say
                            // base. Believe the OBitVector for the one
                            // line the op targeted, as `repair_line`
                            // does on the failure path.
                            if !matches!(out, SpecOutcome::Wrote { overlay_route: true, .. }) {
                                self.spec.repair_line(&self.machine, asid, va);
                            }
                        }
                        Ok(())
                    }
                    Err(e) if benign(&e) => {
                        if let TraceOp::Store(va) = *op {
                            // The overlay write may have landed before
                            // the failure; believe the OBitVector.
                            self.spec.repair_line(&self.machine, asid, va);
                        }
                        Ok(())
                    }
                    Err(e) => Err(interrupt(&e, format!("timed op {op:?} failed: {e:?}"))),
                }
            }
            TraceOp::Spawn => match self.machine.spawn_process() {
                Ok(asid) => {
                    self.procs.push(asid);
                    self.oracle.spawn(asid);
                    self.spec.on_spawn(asid);
                    Ok(())
                }
                Err(e) if benign(&e) => Ok(()),
                Err(e) => Err(interrupt(&e, format!("spawn failed: {e:?}"))),
            },
            TraceOp::Map { proc_sel, start, count } => {
                let Some(asid) = self.resolve(proc_sel) else { return Ok(()) };
                let start = start % MAX_VPN_SPAN;
                for i in 0..count.min(MAX_MAP_PAGES) as u64 {
                    let vpn = Vpn::new(start + i);
                    // Remapping would swap in a fresh zero frame under
                    // live data; the harness only ever extends.
                    if self.machine.os().translate(asid, vpn.base()).is_ok() {
                        continue;
                    }
                    match self.machine.map_range(asid, vpn, 1) {
                        Ok(()) => {
                            self.oracle.note_mapped(asid, vpn);
                            self.spec.on_map(asid, vpn).map_err(Interrupt::Fail)?;
                        }
                        Err(e) if benign(&e) => {}
                        Err(e) => {
                            return Err(interrupt(
                                &e,
                                format!("map of vpn {:#x} failed: {e:?}", vpn.raw()),
                            ))
                        }
                    }
                }
                Ok(())
            }
            TraceOp::Fork { proc_sel } => {
                let Some(parent) = self.resolve(proc_sel) else { return Ok(()) };
                match self.machine.fork(parent) {
                    Ok(child) => {
                        // fork materialized (committed) every parent
                        // overlay before sharing the frames.
                        self.oracle.merge_all_deltas(parent);
                        self.oracle.clone_process(parent, child);
                        self.procs.push(child);
                        self.spec.on_fork(parent, child).map_err(Interrupt::Fail)?;
                        Ok(())
                    }
                    // A fork that dies mid-materialize leaves some parent
                    // overlays committed; sync_committed picks those up.
                    Err(e) if benign(&e) => Ok(()),
                    Err(e) => {
                        Err(interrupt(&e, format!("fork of asid {} failed: {e:?}", parent.raw())))
                    }
                }
            }
            TraceOp::Poke { proc_sel, va, value } => {
                let Some(asid) = self.resolve(proc_sel) else { return Ok(()) };
                let va = clamp_va(va);
                let route = self.route_of(asid, va);
                if (route != Route::Unmapped) != self.oracle.is_mapped(asid, va.vpn()) {
                    return Err(Interrupt::Fail(format!(
                        "mapping disagreement at asid {} va {:#x}: machine {}, oracle {}",
                        asid.raw(),
                        va.raw(),
                        if route == Route::Unmapped { "unmapped" } else { "mapped" },
                        if self.oracle.is_mapped(asid, va.vpn()) { "mapped" } else { "unmapped" },
                    )));
                }
                let wire = if self.inject_bug && value == 0x42 { value ^ 1 } else { value };
                match self.machine.poke(asid, va, wire) {
                    Ok(()) => {
                        match route {
                            Route::Delta => self.oracle.write_delta(asid, va, value),
                            Route::Base => self.oracle.write_base(asid, va, value),
                            Route::Unmapped => {
                                return Err(Interrupt::Fail(format!(
                                    "poke at va {:#x} succeeded on a page the translation probe \
                                     called unmapped",
                                    va.raw()
                                )))
                            }
                        }
                        let out = self.spec.on_write(asid, va, false).map_err(Interrupt::Fail)?;
                        let spec_delta =
                            matches!(out, SpecOutcome::Wrote { overlay_route: true, .. });
                        if (route == Route::Delta) != spec_delta {
                            return Err(Interrupt::Fail(format!(
                                "spec refinement violated: write route disagreement at asid {} \
                                 va {:#x}: machine routed to the {}, spec to the {}",
                                asid.raw(),
                                va.raw(),
                                if route == Route::Delta { "overlay" } else { "base page" },
                                if spec_delta { "overlay" } else { "base page" },
                            )));
                        }
                        Ok(())
                    }
                    Err(PoError::Unmapped(_)) if route == Route::Unmapped => Ok(()),
                    // Frame exhaustion during the CoW copy: no byte lands.
                    Err(e) if benign(&e) => Ok(()),
                    Err(e) => {
                        Err(interrupt(&e, format!("poke at va {:#x} failed: {e:?}", va.raw())))
                    }
                }
            }
            TraceOp::Peek { proc_sel, va } => {
                let Some(asid) = self.resolve(proc_sel) else { return Ok(()) };
                self.check_byte(asid, clamp_va(va)).map_err(Interrupt::Fail)
            }
            TraceOp::SeedLine { proc_sel, vpn, line, value } => {
                let Some(asid) = self.resolve(proc_sel) else { return Ok(()) };
                let vpn = clamp_vpn(vpn);
                let line = clamp_line(line);
                let opn = Opn::encode(asid, vpn);
                // Seed only lines the machine will make visible (the page
                // reads through the overlay) and that are not already
                // overlaid — mirrors the sparse-structure setup path.
                let visible = self
                    .machine
                    .os()
                    .translate(asid, vpn.base())
                    .map(|pte| pte.flags.overlay_enabled)
                    .unwrap_or(false);
                let in_overlay = |m: &Machine| {
                    m.overlay().obitvec(opn).map(|v| v.contains(line)).unwrap_or(false)
                };
                if !visible || in_overlay(&self.machine) {
                    return Ok(());
                }
                match self.machine.seed_overlay_line(asid, vpn, line, LineData::splat(value)) {
                    Ok(()) => {
                        self.oracle.write_delta_line(asid, vpn, line, value);
                        self.spec.on_seed(asid, vpn, line);
                        Ok(())
                    }
                    Err(e) if benign(&e) => {
                        // The overlay write itself may have landed before
                        // the OMS eviction failed; believe the OBitVector.
                        if in_overlay(&self.machine) {
                            self.oracle.write_delta_line(asid, vpn, line, value);
                            self.spec.on_seed(asid, vpn, line);
                        }
                        Ok(())
                    }
                    Err(e) => Err(interrupt(
                        &e,
                        format!("seed of vpn {:#x} line {line} failed: {e:?}", vpn.raw()),
                    )),
                }
            }
            TraceOp::CommitPage { proc_sel, vpn } => {
                let Some(asid) = self.resolve(proc_sel) else { return Ok(()) };
                let vpn = clamp_vpn(vpn);
                match self.machine.commit_overlay(asid, vpn) {
                    // NoOverlay covers both "never overlaid" (empty
                    // delta, merge is a no-op) and "already collapsed"
                    // (the delta is committed either way).
                    Ok(()) | Err(PoError::NoOverlay(_)) => {
                        self.oracle.merge_delta(asid, vpn);
                        self.spec.on_commit(asid, vpn);
                        Ok(())
                    }
                    Err(e) if benign(&e) => Ok(()),
                    Err(e) => {
                        Err(interrupt(&e, format!("commit of vpn {:#x} failed: {e:?}", vpn.raw())))
                    }
                }
            }
            TraceOp::DiscardPage { proc_sel, vpn } => {
                let Some(asid) = self.resolve(proc_sel) else { return Ok(()) };
                let vpn = clamp_vpn(vpn);
                let had = self.machine.overlay().has_overlay(Opn::encode(asid, vpn));
                match self.machine.discard_overlay(asid, vpn) {
                    Ok(()) => {
                        if had {
                            self.oracle.drop_delta(asid, vpn);
                            self.spec.on_discard(asid, vpn);
                        }
                        Ok(())
                    }
                    // No overlay left to revert (never created, or the
                    // machine collapsed it — sync merges any stale delta).
                    Err(PoError::NoOverlay(_)) => Ok(()),
                    Err(e) if benign(&e) => Ok(()),
                    Err(e) => {
                        Err(interrupt(&e, format!("discard of vpn {:#x} failed: {e:?}", vpn.raw())))
                    }
                }
            }
            // Flush spills dirty overlay lines into the OMS (no
            // functional change the spec tracks); reclaim collapses
            // overlays wholesale — the spec mirrors whatever vanished
            // through the reconcile sweep (force-commit).
            TraceOp::Flush => match self.machine.flush_overlays() {
                Ok(()) => Ok(()),
                Err(e) if benign(&e) => Ok(()),
                Err(e) => Err(interrupt(&e, format!("flush failed: {e:?}"))),
            },
            TraceOp::Reclaim => match self.machine.recover_overlay_memory(None) {
                Ok(_) => Ok(()),
                Err(e) if benign(&e) => Ok(()),
                Err(e) => Err(interrupt(&e, format!("reclaim failed: {e:?}"))),
            },
            // Compaction moves OMS segments without changing any byte
            // the oracle tracks or any page state the spec tracks — the
            // post-op refinement sweep is the whole check.
            TraceOp::Compact => match self.machine.compact_overlay_memory() {
                Ok(_) => Ok(()),
                Err(e) if benign(&e) => Ok(()),
                Err(e) => Err(interrupt(&e, format!("compaction failed: {e:?}"))),
            },
            // Pure harness routing: no machine, oracle, or spec state
            // changes — only where subsequent timed ops issue. Resolved
            // modulo the core count so any trace runs on any machine.
            TraceOp::OnCore { core_sel } => {
                self.current_core = core_sel as usize % self.machine.config().cores.max(1);
                Ok(())
            }
        }
    }

    /// Compares one byte between machine and oracle.
    ///
    /// # Errors
    ///
    /// `Err` describes the divergence.
    pub fn check_byte(&self, asid: Asid, va: VirtAddr) -> Result<(), String> {
        match (self.machine.peek(asid, va), self.oracle.read(asid, va)) {
            (Ok(got), Some(want)) if got == want => Ok(()),
            (Ok(got), Some(want)) => Err(format!(
                "divergence at asid {} va {:#x}: machine has {got:#04x}, oracle expects \
                 {want:#04x}",
                asid.raw(),
                va.raw()
            )),
            (Err(PoError::Unmapped(_)), None) => Ok(()),
            (Ok(got), None) => Err(format!(
                "machine reads {got:#04x} at asid {} va {:#x} but the oracle says unmapped",
                asid.raw(),
                va.raw()
            )),
            (Err(e), Some(want)) => Err(format!(
                "machine cannot read asid {} va {:#x} (oracle expects {want:#04x}): {e:?}",
                asid.raw(),
                va.raw()
            )),
            (Err(e), None) => Err(format!(
                "unexpected read failure on unmapped asid {} va {:#x}: {e:?}",
                asid.raw(),
                va.raw()
            )),
        }
    }

    /// Sweeps every byte of every mapped page: the machine's page
    /// against the oracle's page image, so a stray write anywhere shows.
    /// A page that differs, or that the machine cannot read, is swept
    /// again a line at a time to name its first divergent byte.
    ///
    /// # Errors
    ///
    /// The first divergence found.
    pub fn check_all(&self) -> Result<(), String> {
        let mut got = [0u8; PAGE_SIZE];
        for &asid in &self.procs {
            for vpn in self.oracle.mapped_pages(asid) {
                let want = self.oracle.page_image(asid, vpn);
                if self.machine.peek_page(asid, vpn, &mut got).is_err() || got != want {
                    self.check_lines(asid, vpn, &want)?;
                }
            }
        }
        Ok(())
    }

    /// [`check_all`](Self::check_all) for one page, a line at a time:
    /// a line that differs (or cannot be read) is reported by
    /// [`check_byte`](Self::check_byte) at its first differing byte.
    fn check_lines(&self, asid: Asid, vpn: Vpn, image: &[u8; PAGE_SIZE]) -> Result<(), String> {
        for (line, want) in image.chunks_exact(LINE_SIZE).enumerate() {
            let va = VirtAddr::new(vpn.base().raw() + (line * LINE_SIZE) as u64);
            let off = match self.machine.peek_line(asid, va) {
                Ok(got) if got.as_bytes() == want => continue,
                Ok(got) => got.as_bytes().iter().zip(want).take_while(|(g, w)| g == w).count(),
                Err(_) => 0,
            };
            self.check_byte(asid, VirtAddr::new(va.raw() + off as u64))?;
        }
        Ok(())
    }
}

// ----------------------------------------------------------------------
// Seeded op-stream generation.
// ----------------------------------------------------------------------

/// Generates a deterministic op stream of length `count` from `seed`,
/// biased toward a small page window (VPNs `VPN_BASE..VPN_BASE+8`) so
/// ops collide and exercise overlay creation, commit, discard, fork
/// sharing, and reclaim against each other. Pokes hit `0x42` often —
/// the trigger byte of [`SimHarness::inject_bug`].
pub fn generate_ops(seed: u64, count: usize) -> Vec<TraceOp> {
    let mut rng = SplitMix64::new(seed ^ 0x5EED_D157);
    let mut ops = Vec::with_capacity(count);
    // Every stream starts alive: one process with a small working set.
    ops.push(TraceOp::Spawn);
    ops.push(TraceOp::Map { proc_sel: 0, start: VPN_BASE, count: 8 });
    while ops.len() < count {
        let r = rng.next_u64();
        let sel = ((r >> 8) % 8) as u32;
        let vpn = VPN_BASE + (r >> 16) % 8;
        let va = VirtAddr::new(vpn * PAGE_SIZE as u64 + (r >> 24) % PAGE_SIZE as u64);
        let value = if (r >> 40).is_multiple_of(4) { 0x42 } else { (r >> 48) as u8 };
        let op = match r % 100 {
            0..=1 => TraceOp::Spawn,
            2..=6 => TraceOp::Map { proc_sel: sel, start: vpn, count: 1 + ((r >> 36) % 3) as u32 },
            7..=11 => TraceOp::Fork { proc_sel: sel },
            12..=38 => TraceOp::Poke { proc_sel: sel, va, value },
            39..=58 => TraceOp::Peek { proc_sel: sel, va },
            59..=62 => TraceOp::SeedLine {
                proc_sel: sel,
                vpn,
                line: ((r >> 36) % LINES_PER_PAGE as u64) as u8,
                value,
            },
            63..=67 => TraceOp::CommitPage { proc_sel: sel, vpn },
            68..=72 => TraceOp::DiscardPage { proc_sel: sel, vpn },
            73..=74 => TraceOp::Flush,
            75..=76 => TraceOp::Reclaim,
            77..=78 => TraceOp::Compact,
            79..=80 => TraceOp::Compute(1 + (r >> 36) as u32 % 16),
            81..=90 => TraceOp::Load(va),
            _ => TraceOp::Store(va),
        };
        ops.push(op);
    }
    ops
}

/// Generates a deterministic *soak* stream of length `count` from
/// `seed`: sustained overlay churn rather than the balanced mix of
/// [`generate_ops`]. Forks are frequent (fork-per-snapshot process
/// churn), overlay lifecycles dominate (seed → flush → commit/discard
/// cycles force the OMS through repeated segment-class reallocation),
/// and the page window is wider (16 pages per process) so free lists
/// fragment the way the paper's §4.4.2 compaction-free allocator does.
/// Explicit `Compact` ops appear at a low rate; the pressure ladder
/// supplies the rest.
pub fn generate_soak_ops(seed: u64, count: usize) -> Vec<TraceOp> {
    let mut rng = SplitMix64::new(seed ^ 0x50AC_50AC);
    let mut ops = Vec::with_capacity(count);
    ops.push(TraceOp::Spawn);
    ops.push(TraceOp::Map { proc_sel: 0, start: VPN_BASE, count: 16 });
    while ops.len() < count {
        let r = rng.next_u64();
        let sel = ((r >> 8) % 16) as u32;
        let vpn = VPN_BASE + (r >> 16) % 16;
        let va = VirtAddr::new(vpn * PAGE_SIZE as u64 + (r >> 24) % PAGE_SIZE as u64);
        let value = (r >> 48) as u8;
        let op = match r % 100 {
            0 => TraceOp::Spawn,
            1..=4 => TraceOp::Map { proc_sel: sel, start: vpn, count: 1 + ((r >> 36) % 4) as u32 },
            5..=14 => TraceOp::Fork { proc_sel: sel },
            15..=44 => TraceOp::SeedLine {
                proc_sel: sel,
                vpn,
                line: ((r >> 36) % LINES_PER_PAGE as u64) as u8,
                value,
            },
            45..=52 => TraceOp::Poke { proc_sel: sel, va, value },
            53..=62 => TraceOp::CommitPage { proc_sel: sel, vpn },
            63..=72 => TraceOp::DiscardPage { proc_sel: sel, vpn },
            73..=82 => TraceOp::Flush,
            83..=86 => TraceOp::Reclaim,
            87..=89 => TraceOp::Compact,
            90..=94 => TraceOp::Peek { proc_sel: sel, va },
            _ => TraceOp::Store(va),
        };
        ops.push(op);
    }
    ops
}

/// [`generate_ops`] with core-affinity directives woven in: every few
/// ops a [`TraceOp::OnCore`] rotates the issuing core, so on a
/// multi-core machine the stream's timed ops interleave across cores
/// (cross-core promotions, coherence OBitVector updates, shootdowns).
/// With `cores <= 1` the stream is exactly [`generate_ops`]'s — the
/// single-core fuzz corpus is unchanged. Subsequences stay valid, so
/// the shrinker works on these streams too.
pub fn generate_mc_ops(seed: u64, count: usize, cores: usize) -> Vec<TraceOp> {
    let base = generate_ops(seed, count);
    if cores <= 1 {
        return base;
    }
    let mut rng = SplitMix64::new(seed ^ 0xC04E_5EED);
    let mut ops = Vec::with_capacity(base.len() + base.len() / 4 + 1);
    for (i, op) in base.into_iter().enumerate() {
        // A rotation roughly every 4 ops gives quanta short enough that
        // timed ops from different cores genuinely contend.
        if i % 4 == 0 {
            ops.push(TraceOp::OnCore { core_sel: (rng.next_u64() % cores as u64) as u32 });
        }
        ops.push(op);
    }
    ops
}

/// Builds a harness, applies `ops`, and runs the final sweep.
///
/// # Errors
///
/// The first divergence or unexpected machine failure.
pub fn run_ops(
    config: &SystemConfig,
    plan: Option<&FaultPlan>,
    ops: &[TraceOp],
    inject_bug: bool,
) -> Result<(), String> {
    let mut h = match plan {
        Some(p) => SimHarness::with_fault_plan(config.clone(), p.clone()),
        None => SimHarness::new(config.clone()),
    }
    .map_err(|e| format!("machine construction failed: {e:?}"))?;
    h.inject_bug = inject_bug;
    drive_ops(&mut h, ops, 0, "", |_, _| {}, crash_is_finding)?;
    h.check_all()
}

/// After-callback for runners that do not model recovery: a scheduled
/// interior crash has no restore path here, so it is a hard error.
fn crash_is_finding(h: &mut SimHarness, _i: usize) -> Result<bool, String> {
    match h.take_crashed() {
        Some(stage) => Err(format!(
            "interior crash ({}) fired outside a crash-convergence runner",
            stage.name()
        )),
        None => Ok(false),
    }
}

/// [`run_ops`] with telemetry armed: on divergence the error comes back
/// with the last [`FAILURE_EVENT_TAIL`] journal events as JSONL, so the
/// fuzzer can dump what the machine was doing alongside the shrunk
/// trace. Telemetry never feeds back into simulation state, so a trace
/// fails here iff it fails under [`run_ops`].
///
/// # Errors
///
/// `(description, event_tail_jsonl)` for the first divergence or
/// unexpected machine failure.
pub fn run_ops_traced(
    config: &SystemConfig,
    plan: Option<&FaultPlan>,
    ops: &[TraceOp],
    inject_bug: bool,
) -> Result<(), (String, String)> {
    let mut h = match plan {
        Some(p) => SimHarness::with_fault_plan(config.clone(), p.clone()),
        None => SimHarness::new(config.clone()),
    }
    .map_err(|e| (format!("machine construction failed: {e:?}"), String::new()))?;
    h.enable_telemetry(FAILURE_EVENT_TAIL);
    h.inject_bug = inject_bug;
    drive_ops(&mut h, ops, 0, "", |_, _| {}, crash_is_finding)
        .map(|_| ())
        .and_then(|()| h.check_all())
        .map_err(|e| (e, h.telemetry_tail(FAILURE_EVENT_TAIL)))
}

// ----------------------------------------------------------------------
// Crash convergence.
// ----------------------------------------------------------------------

/// Runs `ops` twice under `base_plan` (which must not schedule
/// [`FaultSite::CrashPoint`] itself — the runner owns that site):
///
/// * **golden** — straight through, polling the crash point after every
///   op (so fault-query streams match the crashy run);
/// * **crashy** — same, plus a crash scheduled at the `crash_at`-th
///   crash-point query. On crash: restore the last snapshot (taken
///   every `snapshot_every` ops), clear the crash trigger, round-trip
///   the journaled op suffix through the trace format, and replay it.
///
/// Both runs then clear the crash-point trigger and must produce
/// byte-identical [`Machine::save_snapshot`] images.
///
/// Returns whether the crash actually fired.
///
/// # Errors
///
/// Divergence (machine bytes or oracle), replay corruption, or an
/// unexpected machine failure.
pub fn run_crash_convergence(
    config: &SystemConfig,
    ops: &[TraceOp],
    base_plan: &FaultPlan,
    crash_at: u64,
    snapshot_every: usize,
) -> Result<bool, String> {
    run_crash_convergence_staged(
        config,
        ops,
        base_plan,
        crash_at,
        snapshot_every,
        CrashStage::OpBoundary,
    )
}

/// [`run_crash_convergence`] with the crash armed at an arbitrary
/// [`CrashStage`]: `OpBoundary` reproduces the classic between-ops
/// crash; the interior stages (`MidPromotion`, `MidReclaim`,
/// `OmtFreeWindow`) fire *inside* a multi-step transition, leaving the
/// machine half-way through. On an interior crash the runner first asks
/// the spec whether the frozen state is a legal mid-transition state
/// ([`SimHarness::check_interior_crash`]), then restores and replays as
/// usual — recovery must converge byte-identically with the golden run
/// no matter where inside a transition the power was cut.
///
/// Returns whether the crash actually fired.
///
/// # Errors
///
/// Divergence, a spec-illegal interior state, replay corruption, or an
/// unexpected machine failure.
pub fn run_crash_convergence_staged(
    config: &SystemConfig,
    ops: &[TraceOp],
    base_plan: &FaultPlan,
    crash_at: u64,
    snapshot_every: usize,
    stage: CrashStage,
) -> Result<bool, String> {
    let every = snapshot_every.max(1);
    // Both plans carry the stage so the two runs' fault-injector
    // snapshots stay byte-identical; only the scheduled query differs.
    let golden_plan =
        base_plan.clone().at_queries(FaultSite::CrashPoint, []).with_crash_stage(stage);
    let crashy_plan =
        base_plan.clone().at_queries(FaultSite::CrashPoint, [crash_at]).with_crash_stage(stage);

    // Golden run.
    let mut golden = SimHarness::with_fault_plan(config.clone(), golden_plan)
        .map_err(|e| format!("machine construction failed: {e:?}"))?;
    drive_ops(
        &mut golden,
        ops,
        0,
        "golden ",
        |_, _| {},
        |h, _| {
            if h.take_crashed().is_some() || h.machine.poll_crash_point() {
                Err("crash point fired in the golden run".into())
            } else {
                Ok(false)
            }
        },
    )?;
    golden.machine.clear_fault_trigger(FaultSite::CrashPoint);

    // Crashy run. Telemetry rides along (it survives the restore — the
    // machine re-installs its sink) so a convergence failure can show
    // the replayed tail; it never affects the compared snapshot bytes.
    let mut h = SimHarness::with_fault_plan(config.clone(), crashy_plan)
        .map_err(|e| format!("machine construction failed: {e:?}"))?;
    h.enable_telemetry(FAILURE_EVENT_TAIL);
    // Recovery state captured at a snapshot boundary: the machine image
    // plus the harness-side mirrors that must rewind with it.
    struct Saved {
        bytes: Vec<u8>,
        oracle: DiffOracle,
        spec: SpecMirror,
        procs: Vec<Asid>,
        core: usize,
        from: usize,
    }
    let mut saved: Option<Saved> = None;
    let crashed_at = drive_ops(
        &mut h,
        ops,
        0,
        "crashy ",
        |h, i| {
            if i % every == 0 {
                saved = Some(Saved {
                    bytes: h.machine.save_snapshot(),
                    oracle: h.oracle.clone(),
                    spec: h.spec.clone(),
                    procs: h.procs.clone(),
                    core: h.current_core,
                    from: i,
                });
            }
        },
        |h, i| {
            if let Some(stage) = h.take_crashed() {
                // The machine froze mid-transition: the spec decides
                // whether this interior state is legal before recovery
                // wipes it.
                h.check_interior_crash(&ops[i]).map_err(|e| {
                    format!(
                        "spec-illegal interior state after {} crash inside op {i} ({:?}): {e}",
                        stage.name(),
                        ops[i]
                    )
                })?;
                return Ok(true);
            }
            Ok(h.machine.poll_crash_point())
        },
    )?;
    let crashed = crashed_at.is_some();
    if let Some(i) = crashed_at {
        let Saved { bytes, oracle, spec, procs, core, from } =
            saved.take().ok_or("crash fired before the first snapshot")?;
        h.machine
            .restore_snapshot(&bytes)
            .map_err(|e| format!("restore after crash at op {i} failed: {e:?}"))?;
        h.machine.clear_fault_trigger(FaultSite::CrashPoint);
        h.oracle = oracle;
        h.spec = spec;
        h.procs = procs;
        h.current_core = core;
        // The journal is the op suffix since the snapshot; round-trip
        // it through the trace format, as a real recovery would.
        let mut buf = Vec::new();
        write_trace(&mut buf, &ops[from..]).map_err(|e| format!("journal write failed: {e}"))?;
        let journal =
            read_trace(buf.as_slice()).map_err(|e| format!("journal read failed: {e}"))?;
        if journal != ops[from..] {
            return Err("journal did not round-trip through the trace format".into());
        }
        drive_ops(
            &mut h,
            &journal,
            from,
            "replay ",
            |_, _| {},
            |h, _| {
                if h.take_crashed().is_some() || h.machine.poll_crash_point() {
                    Err("crash point re-fired during replay".into())
                } else {
                    Ok(false)
                }
            },
        )?;
    }
    h.machine.clear_fault_trigger(FaultSite::CrashPoint);

    if golden.machine.save_snapshot() != h.machine.save_snapshot() {
        let tail = h.telemetry_tail(FAILURE_EVENT_TAIL);
        return Err(format!(
            "crashed-and-replayed machine diverged from the golden run (crash_at={crash_at}, \
             snapshot_every={every}); last events:\n{tail}"
        ));
    }
    golden.check_all().map_err(|e| format!("golden final sweep: {e}"))?;
    h.check_all().map_err(|e| format!("crashy final sweep: {e}"))?;
    Ok(crashed)
}

// ----------------------------------------------------------------------
// Trace shrinking.
// ----------------------------------------------------------------------

/// Shrinks a failing trace to a locally minimal one by delta debugging:
/// remove chunks of decreasing size, keeping any candidate that still
/// fails [`run_ops`]. Because subsequences of valid traces stay valid,
/// every candidate is directly replayable.
///
/// Returns the shrunk trace (the input itself if it does not fail).
pub fn shrink_ops(
    config: &SystemConfig,
    plan: Option<&FaultPlan>,
    ops: &[TraceOp],
    inject_bug: bool,
) -> Vec<TraceOp> {
    shrink_ops_filtered(config, plan, ops, inject_bug, |_| true)
}

/// [`shrink_ops`] with a candidate pre-filter: candidates for which
/// `keep` returns `false` are discarded without the (expensive)
/// differential replay. The fuzzer hands in a static-verifier check so
/// delta debugging never wastes a replay on — or emits — a trace the
/// verifier can prove degenerate.
///
/// `keep` must accept the original failing trace, or shrinking cannot
/// start and the input is returned unshrunk.
pub fn shrink_ops_filtered(
    config: &SystemConfig,
    plan: Option<&FaultPlan>,
    ops: &[TraceOp],
    inject_bug: bool,
    keep: impl Fn(&[TraceOp]) -> bool,
) -> Vec<TraceOp> {
    shrink_by(ops, |candidate| {
        keep(candidate) && run_ops(config, plan, candidate, inject_bug).is_err()
    })
}

/// The bare delta-debugging loop with a caller-supplied failure
/// predicate. [`shrink_ops_filtered`] instantiates it with "the
/// differential replay diverges"; the race-canary positive control
/// instantiates it with "the concurrency verifier still reports
/// PA-C001 on the armed replay" — a property no `run_ops` error can
/// express, since the canary is invisible to every functional oracle.
///
/// Returns the input unshrunk if `fails` rejects it.
pub fn shrink_by(ops: &[TraceOp], fails: impl Fn(&[TraceOp]) -> bool) -> Vec<TraceOp> {
    let mut cur = ops.to_vec();
    if !fails(&cur) {
        return cur;
    }
    let mut chunk = (cur.len() / 2).max(1);
    loop {
        let mut i = 0;
        while i < cur.len() {
            let mut cand = cur.clone();
            cand.drain(i..(i + chunk).min(cand.len()));
            if fails(&cand) {
                cur = cand;
            } else {
                i += chunk;
            }
        }
        if chunk == 1 {
            break;
        }
        chunk = (chunk / 2).max(1);
    }
    cur
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn differential_run_is_clean_in_both_modes() {
        let ops = generate_ops(7, 300);
        run_ops(&SystemConfig::table2_overlay(), None, &ops, false).unwrap();
        run_ops(&SystemConfig::table2(), None, &ops, false).unwrap();
    }

    #[test]
    fn injected_bug_is_detected_and_shrinks_small() {
        let config = SystemConfig::table2_overlay();
        // Find a seed whose stream trips the bug (0x42 pokes are common).
        let ops = generate_ops(3, 200);
        let err = run_ops(&config, None, &ops, true).unwrap_err();
        assert!(err.contains("divergence") || err.contains("oracle"), "{err}");
        let shrunk = shrink_ops(&config, None, &ops, true);
        assert!(shrunk.len() <= 10, "shrunk to {} ops: {shrunk:?}", shrunk.len());
        assert!(run_ops(&config, None, &shrunk, true).is_err());
        // The shrunk trace replays through the trace format.
        let mut buf = Vec::new();
        crate::trace_io::write_trace(&mut buf, &shrunk).unwrap();
        let back = crate::trace_io::read_trace(buf.as_slice()).unwrap();
        assert_eq!(back, shrunk);
        assert!(run_ops(&config, None, &back, true).is_err());
    }

    #[test]
    fn crash_convergence_basic() {
        let config = SystemConfig::table2_overlay();
        let ops = generate_ops(11, 150);
        let plan = FaultPlan::new(0xC0FFEE);
        let crashed = run_crash_convergence(&config, &ops, &plan, 70, 16).unwrap();
        assert!(crashed);
        // A crash point past the end of the trace never fires.
        let crashed = run_crash_convergence(&config, &ops, &plan, 10_000, 16).unwrap();
        assert!(!crashed);
    }

    #[test]
    fn crash_convergence_under_fault_plan() {
        let config = SystemConfig::table2_overlay();
        let ops = generate_ops(13, 150);
        let plan = FaultPlan::new(0xFA117)
            .with_probability(FaultSite::OmsAllocFailed, 0.05)
            .with_probability(FaultSite::OmsGrowRefused, 0.05);
        let crashed = run_crash_convergence(&config, &ops, &plan, 40, 8).unwrap();
        assert!(crashed);
    }

    #[test]
    fn crash_convergence_at_interior_stages() {
        // A low promotion threshold makes MidPromotion reachable on a
        // short stream; the other interior stages ride the same ops.
        let config = SystemConfig { promote_threshold: 4, ..SystemConfig::table2_overlay() };
        let ops = generate_ops(17, 150);
        let plan = FaultPlan::new(0xBEEF);
        let mut fired = 0;
        for stage in CrashStage::INTERIOR {
            for crash_at in [0, 1, 2] {
                if run_crash_convergence_staged(&config, &ops, &plan, crash_at, 16, stage).unwrap()
                {
                    fired += 1;
                }
            }
        }
        assert!(fired > 0, "no interior stage fired on this stream");
    }

    #[test]
    fn generated_streams_are_deterministic() {
        assert_eq!(generate_ops(42, 100), generate_ops(42, 100));
        assert_ne!(generate_ops(42, 100), generate_ops(43, 100));
    }

    #[test]
    fn final_sweep_catches_a_stray_byte_the_oracle_never_saw() {
        let mut h = SimHarness::new(SystemConfig::table2_overlay()).unwrap();
        let page = VirtAddr::new((VPN_BASE + 1) * PAGE_SIZE as u64);
        let ops = [
            TraceOp::Spawn,
            TraceOp::Map { proc_sel: 0, start: VPN_BASE, count: 4 },
            TraceOp::Fork { proc_sel: 0 },
            TraceOp::Poke { proc_sel: 0, va: VirtAddr::new(page.raw() + 5), value: 0x11 },
        ];
        for op in &ops {
            h.apply(op).unwrap();
        }
        h.check_all().unwrap();
        // Byte 17 of line 3: neither a line head nor a byte any op wrote.
        let child = h.procs[1];
        let stray = VirtAddr::new(page.raw() + 3 * LINE_SIZE as u64 + 17);
        h.machine.poke(child, stray, 0x5a).unwrap();
        let err = h.check_all().unwrap_err();
        let want = format!("divergence at asid {} va {:#x}:", child.raw(), stray.raw());
        assert!(err.starts_with(&want), "{err}");
    }

    /// The final sweep a line at a time over every page: the reference
    /// the page-granular [`SimHarness::check_all`] must match message
    /// for message.
    fn line_loop_sweep(h: &SimHarness) -> Result<(), String> {
        for &asid in &h.procs {
            for vpn in h.oracle.mapped_pages(asid) {
                h.check_lines(asid, vpn, &h.oracle.page_image(asid, vpn))?;
            }
        }
        Ok(())
    }

    /// A parent and a forked child over `VPN_BASE..VPN_BASE+4`, and the
    /// child's overlay holding line 3 of page `VPN_BASE + 1` (poked at
    /// byte 5 of that line).
    fn child_with_overlay_line() -> (SimHarness, Asid, VirtAddr) {
        let mut h = SimHarness::new(SystemConfig::table2_overlay()).unwrap();
        let line = VirtAddr::new((VPN_BASE + 1) * PAGE_SIZE as u64 + 3 * LINE_SIZE as u64);
        let ops = [
            TraceOp::Spawn,
            TraceOp::Map { proc_sel: 0, start: VPN_BASE, count: 4 },
            TraceOp::Fork { proc_sel: 0 },
            TraceOp::Poke { proc_sel: 1, va: VirtAddr::new(line.raw() + 5), value: 0x11 },
        ];
        for op in &ops {
            h.apply(op).unwrap();
        }
        let child = h.procs[1];
        let opn = Opn::encode(child, line.vpn());
        assert!(h.machine.overlay().obitvec(opn).unwrap().contains(3), "line 3 is overlaid");
        h.check_all().unwrap();
        (h, child, line)
    }

    #[test]
    fn final_sweep_reports_a_stray_overlay_byte_as_the_line_loop_does() {
        let (mut h, child, line) = child_with_overlay_line();
        let opn = Opn::encode(child, line.vpn());
        let stray = VirtAddr::new(line.raw() + 40);
        h.machine.poke(child, stray, 0x5a).unwrap();
        let want = format!("divergence at asid {} va {:#x}:", child.raw(), stray.raw());
        // Cache-resident: the stray byte sits in the resident copy.
        assert_eq!(h.machine.overlay().resident_lines_of(opn), 1);
        let err = h.check_all().unwrap_err();
        assert!(err.starts_with(&want), "{err}");
        assert_eq!(Err(err), line_loop_sweep(&h));
        // Flushed: the same byte now reads from the overlay's OMS slot.
        h.machine.flush_overlays().unwrap();
        assert_eq!(h.machine.overlay().resident_lines_of(opn), 0);
        assert!(h.machine.overlay().omt().get(opn).unwrap().segment.is_some());
        let err = h.check_all().unwrap_err();
        assert!(err.starts_with(&want), "{err}");
        assert_eq!(Err(err), line_loop_sweep(&h));
    }

    #[test]
    fn final_sweep_reports_an_untranslatable_page_as_the_line_loop_does() {
        let (mut h, child, line) = child_with_overlay_line();
        // Roll the machine back to before either process mapped a page:
        // the oracle still holds the pages, the machine cannot translate
        // them.
        let mut early = SimHarness::new(SystemConfig::table2_overlay()).unwrap();
        for op in [TraceOp::Spawn, TraceOp::Spawn] {
            early.apply(&op).unwrap();
        }
        assert_eq!(early.procs, h.procs);
        h.machine.restore_snapshot(&early.machine.save_snapshot()).unwrap();
        assert!(h.machine.peek(child, line).is_err());
        let err = h.check_all().unwrap_err();
        assert!(err.starts_with("machine cannot read asid"), "{err}");
        assert_eq!(Err(err), line_loop_sweep(&h));
    }

    #[test]
    fn peek_page_equals_a_peek_line_per_line_on_soak_streams() {
        let mut page = [0u8; PAGE_SIZE];
        let mut pages = 0;
        for seed in [1, 7, 42] {
            let mut h = SimHarness::new(SystemConfig::table2_overlay()).unwrap();
            for (i, op) in generate_soak_ops(seed, 400).iter().enumerate() {
                h.apply(op).unwrap();
                if i % 50 != 49 {
                    continue;
                }
                for &asid in &h.procs {
                    for vpn in h.oracle.mapped_pages(asid) {
                        let by_line = (0..LINES_PER_PAGE)
                            .map(|l| h.machine.peek_line(asid, vpn.line_addr(l)))
                            .map(|line| line.map(|d| *d.as_bytes()))
                            .collect::<Result<Vec<_>, _>>()
                            .map(|lines| lines.concat());
                        let by_page =
                            h.machine.peek_page(asid, vpn, &mut page).map(|()| page.to_vec());
                        assert_eq!(by_page, by_line, "seed {seed} op {i} asid {asid:?} {vpn:?}");
                        pages += 1;
                    }
                }
            }
        }
        assert!(pages > 1000, "only {pages} pages compared");
    }
}
