//! # po-analyze — static analysis of traces and telemetry journals
//!
//! [`verifier`] holds both analyses:
//!
//! * a trace verifier over deterministic-simulation `.trace` files. It
//!   replays the trace once through the simulation harness (machine,
//!   byte oracle and spec mirror) and reads off properties of that one
//!   deterministic execution: ops that must fail or are dead, crash
//!   points that can never fire, overlay allocation that exceeds an
//!   OMS budget, traces that end with resident-but-unbacked overlay
//!   lines;
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
