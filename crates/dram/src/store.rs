//! Functional backing store: sparse main-memory contents.
//!
//! Frames are materialized on first write; unwritten memory reads as
//! zeros. This lets the sparse-data-structure experiments (§5.2) model a
//! shared all-zero page without allocating gigabytes, and lets every
//! overlay state transition be validated against real bytes.

use po_types::geometry::{LINE_SIZE, PAGE_SIZE};
use po_types::{FxHashMap, LineData, MainMemAddr};

/// Sparse byte-addressable main memory.
///
/// # Example
///
/// ```
/// use po_dram::DataStore;
/// use po_types::{LineData, MainMemAddr};
///
/// let mut mem = DataStore::new();
/// assert!(mem.read_line(MainMemAddr::new(0x1000)).is_zero());
/// mem.write_line(MainMemAddr::new(0x1000), LineData::splat(7));
/// assert_eq!(mem.read_line(MainMemAddr::new(0x1000)), LineData::splat(7));
/// ```
#[derive(Clone, Debug, Default)]
pub struct DataStore {
    frames: FxHashMap<u64, Box<[u8; PAGE_SIZE]>>,
}

impl DataStore {
    /// Creates an empty (all-zero) memory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of frames that have been materialized by writes.
    pub fn resident_frames(&self) -> usize {
        self.frames.len()
    }

    /// Reads the 64 B line containing `addr` (zeros if never written).
    pub fn read_line(&self, addr: MainMemAddr) -> LineData {
        let base = addr.line_base();
        match self.frames.get(&base.frame()) {
            Some(frame) => {
                let off = base.page_offset();
                let mut bytes = [0u8; LINE_SIZE];
                bytes.copy_from_slice(&frame[off..off + LINE_SIZE]);
                LineData::from_bytes(bytes)
            }
            None => LineData::zeroed(),
        }
    }

    /// Writes the 64 B line containing `addr`.
    pub fn write_line(&mut self, addr: MainMemAddr, data: LineData) {
        let base = addr.line_base();
        let frame = self.frames.entry(base.frame()).or_insert_with(|| Box::new([0u8; PAGE_SIZE]));
        let off = base.page_offset();
        frame[off..off + LINE_SIZE].copy_from_slice(data.as_bytes());
    }

    /// Reads a single byte.
    pub fn read_byte(&self, addr: MainMemAddr) -> u8 {
        match self.frames.get(&addr.frame()) {
            Some(frame) => frame[addr.page_offset()],
            None => 0,
        }
    }

    /// Writes a single byte.
    pub fn write_byte(&mut self, addr: MainMemAddr, value: u8) {
        let frame = self.frames.entry(addr.frame()).or_insert_with(|| Box::new([0u8; PAGE_SIZE]));
        frame[addr.page_offset()] = value;
    }

    /// Copies a whole 4 KB frame from `src` to `dst` (both page-aligned
    /// addresses), as the copy-on-write fault handler does.
    ///
    /// # Panics
    ///
    /// Panics if either address is not page-aligned.
    pub fn copy_frame(&mut self, src: MainMemAddr, dst: MainMemAddr) {
        assert_eq!(src.page_offset(), 0, "source must be page-aligned");
        assert_eq!(dst.page_offset(), 0, "destination must be page-aligned");
        match self.frames.get(&src.frame()).cloned() {
            Some(frame) => {
                self.frames.insert(dst.frame(), frame);
            }
            None => {
                // Copying an unmaterialized (all-zero) frame clears dst.
                self.frames.remove(&dst.frame());
            }
        }
    }

    /// Drops a frame, returning memory to the all-zero state.
    pub fn free_frame(&mut self, addr: MainMemAddr) {
        self.frames.remove(&addr.frame());
    }

    /// Serializes every materialized frame in sorted frame order
    /// (byte-stable regardless of hash-map iteration order).
    pub fn encode_snapshot(&self, w: &mut po_types::SnapshotWriter) {
        let mut frames: Vec<u64> = self.frames.keys().copied().collect();
        frames.sort_unstable();
        w.put_len(frames.len());
        for f in frames {
            w.put_u64(f);
            w.put_bytes(&self.frames[&f][..]);
        }
    }

    /// Rebuilds a memory from [`encode_snapshot`] bytes.
    ///
    /// # Errors
    ///
    /// Returns [`po_types::PoError::Corrupted`] on truncation.
    pub fn decode_snapshot(r: &mut po_types::SnapshotReader) -> po_types::PoResult<Self> {
        let n = r.get_len()?;
        let mut frames = FxHashMap::with_capacity_and_hasher(n, Default::default());
        for _ in 0..n {
            let f = r.get_u64()?;
            let bytes = r.get_bytes(PAGE_SIZE)?;
            let mut frame = Box::new([0u8; PAGE_SIZE]);
            frame.copy_from_slice(bytes);
            frames.insert(f, frame);
        }
        Ok(Self { frames })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unwritten_memory_reads_zero() {
        let mem = DataStore::new();
        assert!(mem.read_line(MainMemAddr::new(0x0dea_d000)).is_zero());
        assert_eq!(mem.read_byte(MainMemAddr::new(12345)), 0);
        assert_eq!(mem.resident_frames(), 0);
    }

    #[test]
    fn line_roundtrip() {
        let mut mem = DataStore::new();
        let addr = MainMemAddr::new(0x4_2040);
        mem.write_line(addr, LineData::splat(0x5a));
        assert_eq!(mem.read_line(addr), LineData::splat(0x5a));
        // Unaligned read within the same line sees the same data.
        assert_eq!(mem.read_line(MainMemAddr::new(0x4_2077)), LineData::splat(0x5a));
        assert_eq!(mem.resident_frames(), 1);
    }

    #[test]
    fn byte_roundtrip() {
        let mut mem = DataStore::new();
        mem.write_byte(MainMemAddr::new(0x1003), 0xEE);
        assert_eq!(mem.read_byte(MainMemAddr::new(0x1003)), 0xEE);
        assert_eq!(mem.read_byte(MainMemAddr::new(0x1004)), 0);
    }

    #[test]
    fn copy_frame_duplicates_contents() {
        let mut mem = DataStore::new();
        mem.write_byte(MainMemAddr::new(0x1000), 1);
        mem.write_byte(MainMemAddr::new(0x1fff), 2);
        mem.copy_frame(MainMemAddr::new(0x1000), MainMemAddr::new(0x9000));
        assert_eq!(mem.read_byte(MainMemAddr::new(0x9000)), 1);
        assert_eq!(mem.read_byte(MainMemAddr::new(0x9fff)), 2);
        // Copies are independent afterwards.
        mem.write_byte(MainMemAddr::new(0x9000), 9);
        assert_eq!(mem.read_byte(MainMemAddr::new(0x1000)), 1);
    }

    #[test]
    fn copy_of_zero_frame_zeroes_destination() {
        let mut mem = DataStore::new();
        mem.write_byte(MainMemAddr::new(0x9000), 7);
        mem.copy_frame(MainMemAddr::new(0x1000), MainMemAddr::new(0x9000));
        assert_eq!(mem.read_byte(MainMemAddr::new(0x9000)), 0);
    }

    #[test]
    fn free_frame_zeroes() {
        let mut mem = DataStore::new();
        mem.write_byte(MainMemAddr::new(0x2000), 3);
        mem.free_frame(MainMemAddr::new(0x2000));
        assert_eq!(mem.read_byte(MainMemAddr::new(0x2000)), 0);
    }

    #[test]
    #[should_panic(expected = "page-aligned")]
    fn copy_frame_requires_alignment() {
        let mut mem = DataStore::new();
        mem.copy_frame(MainMemAddr::new(0x10), MainMemAddr::new(0x2000));
    }
}
