//! Shared error types.

use crate::addr::{Opn, VirtAddr};
use crate::fault::CrashStage;
use core::fmt;

/// Result alias with [`PoError`].
pub type PoResult<T> = Result<T, PoError>;

/// Errors surfaced by the page-overlay framework and its substrates.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum PoError {
    /// A virtual address was accessed with no mapping present.
    Unmapped(VirtAddr),
    /// A write was issued to a read-only mapping.
    ProtectionViolation(VirtAddr),
    /// The physical frame allocator is out of memory.
    OutOfMemory,
    /// The Overlay Memory Store could not be grown (the OS refused to
    /// provide more 4 KB pages, §4.4.3).
    OverlayStoreExhausted,
    /// An overlay operation was issued against a page that has no overlay.
    NoOverlay(Opn),
    /// An overlay line was requested that the OBitVector does not mark as
    /// present.
    LineNotInOverlay {
        /// Overlay page.
        opn: Opn,
        /// Line index within the page (0..64).
        line: usize,
    },
    /// The operation requires overlays to be enabled on the mapping.
    OverlaysDisabled(VirtAddr),
    /// An invariant of a hardware structure was violated (bug guard;
    /// carries a human-readable description).
    Corrupted(&'static str),
    /// The machine "lost power" at an interior crash stage of a
    /// multi-step transition. The DST harness treats this as a signal
    /// to restore the last snapshot and replay, never as a real fault.
    Crashed(CrashStage),
}

impl fmt::Display for PoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PoError::Unmapped(va) => write!(f, "virtual address {va} is not mapped"),
            PoError::ProtectionViolation(va) => {
                write!(f, "write to read-only mapping at {va}")
            }
            PoError::OutOfMemory => f.write_str("physical memory exhausted"),
            PoError::OverlayStoreExhausted => {
                f.write_str("overlay memory store exhausted and OS refused to grow it")
            }
            PoError::NoOverlay(opn) => write!(f, "page {opn} has no overlay"),
            PoError::LineNotInOverlay { opn, line } => {
                write!(f, "line {line} of overlay page {opn} is not present in the overlay")
            }
            PoError::OverlaysDisabled(va) => {
                write!(f, "overlays are not enabled on the mapping of {va}")
            }
            PoError::Corrupted(what) => write!(f, "internal invariant violated: {what}"),
            PoError::Crashed(stage) => {
                write!(f, "simulated power loss at crash stage {}", stage.name())
            }
        }
    }
}

impl std::error::Error for PoError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_nonempty_and_lowercase() {
        let errs = [
            PoError::Unmapped(VirtAddr::new(0x1000)),
            PoError::OutOfMemory,
            PoError::OverlayStoreExhausted,
            PoError::Corrupted("free list cycle"),
        ];
        for e in errs {
            let s = e.to_string();
            assert!(!s.is_empty());
            assert!(s.chars().next().unwrap().is_lowercase());
        }
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<PoError>();
    }
}
