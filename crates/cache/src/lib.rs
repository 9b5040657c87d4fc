//! # po-cache — the three-level cache hierarchy of Table 2
//!
//! Implements the processor-side cache system the paper simulates:
//!
//! * a generic set-associative, write-back/write-allocate cache
//!   ([`SetAssocCache`]) with **wide tags** that accommodate the overlay
//!   address space (the paper widens every cache tag by 16 bits, §4.5 —
//!   tags here are full 64-bit line addresses, so overlay addresses are
//!   first-class),
//! * two replacement policies: classic **LRU** (L1/L2) and **DRRIP**
//!   (last-level cache, per Table 2) with 2-bit re-reference prediction
//!   values and set dueling ([`replacement`]),
//! * a **multi-stream prefetcher** modeled after the IBM POWER6-style
//!   stream engine the paper configures: 16 streams, degree 4, distance
//!   24, trained by L2 misses, filling into L3 ([`StreamPrefetcher`]),
//! * the assembled hierarchy ([`CacheHierarchy`]) producing per-access
//!   latency, writeback traffic, and prefetch requests.
//!
//! Caches here are *timing/state* models: they track tags, dirtiness and
//! replacement state. Data movement is handled by the functional layer
//! (`po-dram::DataStore` plus the overlay manager), keeping timing and
//! function independently testable.
//!
//! # Example
//!
//! ```
//! use po_cache::{CacheHierarchy, HierarchyConfig, LookupResult};
//! use po_types::{AccessKind, PhysAddr};
//!
//! let mut h = CacheHierarchy::new(HierarchyConfig::table2());
//! let a = PhysAddr::new(0x4000);
//! let miss = h.access(a, AccessKind::Read);
//! assert!(matches!(miss.result, LookupResult::Miss));
//! h.fill(a, false);
//! let hit = h.access(a, AccessKind::Read);
//! assert!(matches!(hit.result, LookupResult::Hit { .. }));
//! assert!(hit.latency < miss.latency);
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod config;
pub mod contention;
pub mod hierarchy;
pub mod lines;
pub mod prefetch;
pub mod replacement;
pub mod set_assoc;

pub use config::{CacheConfig, HierarchyConfig, PrefetcherConfig};
pub use contention::L3BankQueue;
pub use hierarchy::{AccessOutcome, CacheHierarchy, HierarchyStats, Level, LookupResult};
pub use lines::{LineList, Prefetches, Writebacks};
pub use prefetch::StreamPrefetcher;
pub use replacement::PolicyKind;
pub use set_assoc::{CacheStats, Evicted, SetAssocCache};
