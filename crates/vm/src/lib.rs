//! # po-vm — the conventional virtual-memory substrate
//!
//! The page-overlay framework deliberately "retains the structure of the
//! existing virtual memory framework" (§1 of the paper): virtual pages
//! still map to physical pages through ordinary page tables, and the
//! overlay machinery is layered *on top*. This crate is that existing
//! framework, built from scratch:
//!
//! * a per-process **page table** ([`PageTable`]), an ordered
//!   `VPN → PTE` map with per-entry flags (present / writable /
//!   copy-on-write / overlays-enabled),
//! * a physical **frame allocator** ([`FrameAllocator`]) over the
//!   main-memory address space,
//! * per-process **address spaces** and an **OS model** ([`OsModel`])
//!   implementing `fork` with classic copy-on-write — the baseline the
//!   paper's overlay-on-write is evaluated against (§2.2, §5.1),
//! * 2 MB **super-page** mappings used by the flexible-super-page
//!   technique (§5.3.5).
//!
//! # Example: fork + copy-on-write
//!
//! ```
//! use po_vm::{OsModel, VmConfig};
//! use po_dram::DataStore;
//! use po_types::{Asid, VirtAddr, Vpn};
//!
//! let mut mem = DataStore::new();
//! let mut os = OsModel::new(VmConfig::default());
//! let parent = os.spawn().unwrap();
//! os.map_anonymous(parent, Vpn::new(0x10), true).unwrap();
//!
//! let child = os.fork(parent).unwrap();
//! // Both processes share the frame read-only until a write faults.
//! let fault = os.write(parent, VirtAddr::new(0x10_000), 42, &mut mem).unwrap();
//! assert!(fault.copied_page, "CoW must copy the whole page on first write");
//! assert_eq!(os.read(child, VirtAddr::new(0x10_000), &mem).unwrap(), 0);
//! ```
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod frame;
pub mod os;
pub mod page_table;
pub mod superpage;

pub use frame::FrameAllocator;
pub use os::{OsModel, OsStats, VmConfig, WriteOutcome};
pub use page_table::{PageTable, Pte, PteFlags};
pub use superpage::{SuperPageMapping, SUPERPAGE_PAGES};
