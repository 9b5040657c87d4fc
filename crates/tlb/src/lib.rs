//! # po-tlb — OBitVector-extended translation lookaside buffers
//!
//! Table 2 configures a 64-entry 4-way L1 TLB (1 cycle), a 1024-entry L2
//! TLB (10 cycles) and a 1000-cycle miss (page-table walk). The paper
//! extends every TLB entry with the 64-bit **OBitVector** (§4.3, change
//! Ì in Figure 6) so the processor can decide, during address
//! translation, whether an access targets the overlay or the regular
//! physical page.
//!
//! The crate also implements the paper's TLB-coherence scheme for
//! overlaying writes (§4.3.3): instead of a TLB shootdown, a new
//! *overlaying read exclusive* coherence message carries the overlay page
//! number — which uniquely identifies `(ASID, VPN)` because overlays are
//! never shared — and every TLB holding the page flips the single
//! OBitVector bit in place ([`Tlb::coherence_obit_update`]). The
//! broadcast itself is delivered by the simulator's per-core TLB owner
//! (`po_sim`'s private `CoreTlbs`), which also journals each message;
//! this crate holds no telemetry sink. [`TlbOutcome::hit_level`] maps a
//! lookup's outcome onto the journal's hit levels.
//!
//! # Example
//!
//! ```
//! use po_tlb::{Tlb, TlbConfig, TlbEntry, TlbOutcome};
//! use po_types::{Asid, OBitVector, Vpn};
//! use po_vm::{Pte, PteFlags};
//!
//! let mut tlb = Tlb::new(TlbConfig::table2());
//! let asid = Asid::new(1);
//! let vpn = Vpn::new(0x42);
//! assert!(matches!(tlb.lookup(asid, vpn).outcome, TlbOutcome::Miss));
//! tlb.fill(TlbEntry {
//!     asid, vpn,
//!     pte: Pte { ppn: po_types::Ppn::new(7), flags: PteFlags { present: true, writable: true, ..Default::default() } },
//!     obitvec: OBitVector::EMPTY,
//! });
//! let hit = tlb.lookup(asid, vpn);
//! assert!(matches!(hit.outcome, TlbOutcome::L1Hit));
//! assert_eq!(hit.latency, 1);
//! ```
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod tlb;

pub use tlb::{Tlb, TlbConfig, TlbEntry, TlbLookup, TlbOutcome, TlbStats};
