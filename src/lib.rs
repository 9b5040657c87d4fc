//! # page-overlays — reproduction of the ISCA 2015 page-overlay framework
//!
//! A from-scratch Rust implementation of *"Page Overlays: An Enhanced
//! Virtual Memory Framework to Enable Fine-grained Memory Management"*
//! (Seshadri et al., ISCA 2015): the overlay framework itself, every
//! substrate its evaluation depends on (DDR3 DRAM, a three-level cache
//! hierarchy with DRRIP and stream prefetching, OBitVector-extended
//! TLBs, page tables and a fork/CoW OS model), the Table 2 timing
//! simulator, and all seven of the paper's application techniques.
//!
//! This crate is a facade: it re-exports each subsystem under a short
//! module name and surfaces the most commonly used types at the root.
//! See the README for the architecture overview, `DESIGN.md` for the
//! system inventory, and `EXPERIMENTS.md` for paper-vs-measured results.
//!
//! # Quickstart: overlay-on-write vs copy-on-write
//!
//! ```
//! use page_overlays::sim::{Machine, SystemConfig};
//! use page_overlays::types::{VirtAddr, Vpn};
//!
//! // A Table 2 machine with overlay-on-write enabled.
//! let mut m = Machine::new(SystemConfig::table2_overlay())?;
//! let parent = m.spawn_process()?;
//! m.map_range(parent, Vpn::new(0x100), 4)?;
//! m.poke(parent, VirtAddr::new(0x100_000), 7)?;
//!
//! let child = m.fork(parent)?;
//! m.poke(parent, VirtAddr::new(0x100_000), 9)?; // one overlay line, no page copy
//! assert_eq!(m.peek(parent, VirtAddr::new(0x100_000))?, 9);
//! assert_eq!(m.peek(child, VirtAddr::new(0x100_000))?, 7);
//! assert_eq!(m.overlay().overlay_count(), 1);
//! # Ok::<(), page_overlays::types::PoError>(())
//! ```

/// Foundational types: addresses, OBitVector, line data, errors.
pub use po_types as types;

/// Deterministic tracing, metrics, and run reports (cycle-stamped event
/// journal, per-layer CPI stacks, JSONL/Chrome-trace exporters).
pub use po_telemetry as telemetry;

/// DDR3-1066 DRAM model and the functional data store.
pub use po_dram as dram;

/// Three-level cache hierarchy (LRU/DRRIP) and stream prefetcher.
pub use po_cache as cache;

/// Page tables, frame allocation, fork/copy-on-write OS model.
pub use po_vm as vm;

/// OBitVector-extended TLBs and shootdown-free coherence updates.
pub use po_tlb as tlb;

/// The page-overlay framework: OMT, OMT cache, Overlay Memory Store,
/// overlay manager (the paper's core contribution).
pub use po_overlay as overlay;

/// Address translation as one concrete type: page tables plus the OMT
/// and the OMS grant ledger. The `seg` comparison is a configuration
/// value ([`BackendKind`], `--backend`), not a second implementation.
pub use po_xlate as xlate;

/// The Table 2 timing simulator and the fork experiment.
pub use po_sim as sim;

/// The timing-free executable specification of VM+overlay semantics —
/// the refinement oracle the DST harness steps in lockstep.
pub use po_spec as spec;

/// Overlay-backed sparse data structures and the SpMV evaluation.
pub use po_sparse as sparse;

/// SPEC-like write-working-set workload generators.
pub use po_workloads as workloads;

/// The five additional §5.3 techniques (dedup, checkpointing,
/// speculation, shadow metadata, flexible super-pages).
pub use po_techniques as techniques;

/// Static analysis: the replaying trace verifier and the journal race
/// checker behind the `po_analyze` binary.
pub use po_analyze as analyze;

pub use po_overlay::{OverlayConfig, OverlayManager};
pub use po_sim::{BackendKind, Machine, SystemConfig};
pub use po_types::{
    Asid, LineData, MainMemAddr, OBitVector, Opn, PhysAddr, PoError, PoResult, Ppn, VirtAddr, Vpn,
};
