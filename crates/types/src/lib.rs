//! # po-types — foundational types for the page-overlays reproduction
//!
//! This crate defines the vocabulary shared by every subsystem in the
//! reproduction of *"Page Overlays: An Enhanced Virtual Memory Framework to
//! Enable Fine-grained Memory Management"* (Seshadri et al., ISCA 2015):
//!
//! * strongly-typed addresses and page numbers ([`VirtAddr`], [`PhysAddr`],
//!   [`MainMemAddr`], [`Vpn`], [`Ppn`], [`Opn`], [`Asid`]),
//! * the machine geometry used throughout the paper (4 KB pages, 64 B cache
//!   lines, 64 lines per page — see [`geometry`]),
//! * the per-page **overlay bit vector** ([`OBitVector`], §3.1 of the paper),
//! * cache-line payloads ([`LineData`]),
//! * access kinds and shared error types.
//!
//! The paper's virtual-to-overlay mapping (§4.1) — the concatenation
//! `overlay_bit ‖ ASID ‖ vaddr` — is implemented on [`PhysAddr`] /
//! [`Opn`] in [`addr`].
//!
//! # Example
//!
//! ```
//! use po_types::{VirtAddr, Asid, Opn, OBitVector, geometry::LINES_PER_PAGE};
//!
//! let va = VirtAddr::new(0x7f00_1234_5678);
//! let vpn = va.vpn();
//! let opn = Opn::encode(Asid::new(7), vpn);
//! assert_eq!(opn.decode(), (Asid::new(7), vpn));
//!
//! let mut obv = OBitVector::EMPTY;
//! obv.set(va.line_in_page());
//! assert!(obv.contains(va.line_in_page()));
//! assert_eq!(obv.len(), 1);
//! assert!(obv.len() <= LINES_PER_PAGE);
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod access;
pub mod addr;
pub mod error;
pub mod fault;
pub mod geometry;
pub mod line;
pub mod obitvec;
pub mod rng;
pub mod snapshot;
pub mod stats;

pub use access::{AccessKind, MemoryAccess};
pub use addr::{Asid, MainMemAddr, Opn, PhysAddr, Ppn, VirtAddr, Vpn};
pub use error::{PoError, PoResult};
pub use fault::{CrashStage, FaultInjector, FaultPlan, FaultSite};
pub use line::LineData;
pub use obitvec::OBitVector;
pub use rng::SplitMix64;
pub use snapshot::{fingerprint64, fingerprint64_bytes, SnapshotReader, SnapshotWriter};
pub use stats::Counter;

/// A simulation timestamp measured in CPU cycles.
///
/// All timing in the reproduction is expressed in cycles of the simulated
/// 2.67 GHz core (Table 2 of the paper).
pub type Cycle = u64;
