//! # po-analyze — static analysis of traces and telemetry journals
//!
//! [`verifier`] holds both analyses:
//!
//! * an abstract interpreter over deterministic-simulation `.trace`
//!   files. It symbolically executes the overlay state machine
//!   (per-page must/may OBitVectors, three-valued PTE flags, OMS demand
//!   accounting, TLB-staleness tracking) and proves properties no
//!   concrete replay can: ops that must fail, crash points that can
//!   never fire, overlay allocation that can exceed an OMS budget,
//!   traces that end with resident-but-unbacked overlay lines;
//! * a happens-before checker over exported telemetry journals
//!   (`.jsonl`) that finds coherence races no byte comparison sees.
//!
//! Both emit [`findings::Report`]s with deterministic JSON and human
//! renderings; the `po_analyze` binary drives them, and CI requires
//! every seeded fixture to trip its rule and every clean one to pass.

#![cfg_attr(not(test), deny(clippy::unwrap_used))]
#![deny(missing_docs)]

pub mod findings;
pub mod verifier;

pub use findings::{Finding, Report, Severity};
pub use verifier::{verify_ops, verify_trace_text, Analysis, Verdict, VerifierOptions};
