//! Versioned, byte-stable snapshot codec primitives.
//!
//! The deterministic simulation-testing layer (crash points, restore +
//! replay, differential fuzzing) needs a serialization of the full
//! machine state that is *byte-stable*: encoding the same logical state
//! twice must produce the same bytes, on any platform, so snapshots can
//! be compared with `==` to prove convergence. This module provides the
//! low-level codec both halves share:
//!
//! * [`SnapshotWriter`] — append-only little-endian encoder. Floating
//!   point goes through [`f64::to_bits`]; collections are the caller's
//!   responsibility to emit in a canonical (sorted) order.
//! * [`SnapshotReader`] — bounds-checked cursor whose getters return
//!   [`PoError::Corrupted`] on truncation or malformed tags instead of
//!   panicking, so a damaged snapshot degrades into an error, never UB
//!   or a crash.
//! * [`fingerprint64`] — FNV-1a over a string, used to stamp a config
//!   fingerprint into snapshot headers so a snapshot is never restored
//!   into a machine with different geometry.
//!
//! # Example
//!
//! ```
//! use po_types::snapshot::{SnapshotReader, SnapshotWriter};
//!
//! let mut w = SnapshotWriter::new();
//! w.put_u64(0xDEAD_BEEF);
//! w.put_bool(true);
//! w.put_len(3);
//! w.put_bytes(&[7, 8, 9]);
//! let bytes = w.finish();
//!
//! let mut r = SnapshotReader::new(&bytes);
//! assert_eq!(r.get_u64()?, 0xDEAD_BEEF);
//! assert!(r.get_bool()?);
//! let n = r.get_len()?;
//! assert_eq!(r.get_bytes(n)?, &[7, 8, 9]);
//! r.expect_end()?;
//! # Ok::<(), po_types::PoError>(())
//! ```

use crate::{PoError, PoResult};

/// Append-only little-endian snapshot encoder.
#[derive(Debug, Default)]
pub struct SnapshotWriter {
    buf: Vec<u8>,
}

impl SnapshotWriter {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a single byte.
    #[inline]
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `u16` little-endian.
    #[inline]
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u32` little-endian.
    #[inline]
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64` little-endian.
    #[inline]
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `i64` little-endian.
    #[inline]
    pub fn put_i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a bool as one byte (0 or 1).
    #[inline]
    pub fn put_bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    /// Appends an `f64` via its IEEE-754 bit pattern (byte-stable,
    /// including for NaN payloads the encoder itself produced).
    #[inline]
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Appends a collection length as `u64`.
    #[inline]
    pub fn put_len(&mut self, n: usize) {
        self.put_u64(n as u64);
    }

    /// Appends raw bytes verbatim (caller encodes the length separately
    /// if it is not implied by the format).
    #[inline]
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Number of bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// `true` if nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consumes the writer, returning the encoded bytes.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }
}

/// Bounds-checked snapshot decoder. Every getter fails with
/// [`PoError::Corrupted`] rather than panicking.
#[derive(Debug)]
pub struct SnapshotReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

const TRUNCATED: PoError = PoError::Corrupted("snapshot truncated");

impl<'a> SnapshotReader<'a> {
    /// A reader positioned at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    #[inline]
    fn take(&mut self, n: usize) -> PoResult<&'a [u8]> {
        let end = self.pos.checked_add(n).ok_or(TRUNCATED)?;
        if end > self.buf.len() {
            return Err(TRUNCATED);
        }
        let out = &self.buf[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    /// Reads one byte.
    pub fn get_u8(&mut self) -> PoResult<u8> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u16`.
    pub fn get_u16(&mut self) -> PoResult<u16> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    /// Reads a little-endian `u32`.
    pub fn get_u32(&mut self) -> PoResult<u32> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian `u64`.
    pub fn get_u64(&mut self) -> PoResult<u64> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
    }

    /// Reads a little-endian `i64`.
    pub fn get_i64(&mut self) -> PoResult<i64> {
        Ok(self.get_u64()? as i64)
    }

    /// Reads a bool, rejecting any byte other than 0 or 1.
    pub fn get_bool(&mut self) -> PoResult<bool> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(PoError::Corrupted("snapshot bool is not 0 or 1")),
        }
    }

    /// Reads an `f64` from its bit pattern.
    pub fn get_f64(&mut self) -> PoResult<f64> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Reads a collection length, rejecting values that could not
    /// possibly fit in the remaining buffer (cheap sanity bound: each
    /// element takes at least one byte).
    pub fn get_len(&mut self) -> PoResult<usize> {
        let n = self.get_u64()?;
        if n > self.remaining() as u64 {
            return Err(PoError::Corrupted("snapshot length exceeds remaining bytes"));
        }
        Ok(n as usize)
    }

    /// Reads `n` raw bytes.
    pub fn get_bytes(&mut self, n: usize) -> PoResult<&'a [u8]> {
        self.take(n)
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Fails unless every byte has been consumed — catches encoder and
    /// decoder drift in round-trip tests.
    pub fn expect_end(&self) -> PoResult<()> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(PoError::Corrupted("snapshot has trailing bytes"))
        }
    }
}

/// FNV-1a hash of a string, used to fingerprint configurations in
/// snapshot headers (stable across runs and platforms, unlike
/// `std::hash`).
pub fn fingerprint64(s: &str) -> u64 {
    fingerprint64_bytes(s.as_bytes())
}

/// FNV-1a hash of a byte slice — the same function [`fingerprint64`]
/// applies to strings. The workload runner uses it to fingerprint whole
/// machine snapshots so sharded and serial runs can assert they ended
/// in identical states without shipping the snapshot bytes around.
///
/// Snapshots are mostly zeros (idle cache ways, unwritten frame bytes),
/// and FNV-1a folds a zero byte in as a bare multiply by the prime, so
/// an all-zero 8-byte word folds in as one multiply by the prime's
/// eighth power. Every other word takes the byte loop: the hash is
/// exactly byte-at-a-time FNV-1a.
pub fn fingerprint64_bytes(bytes: &[u8]) -> u64 {
    let (words, tail) = bytes.as_chunks::<8>();
    let mut h = FNV_OFFSET;
    for word in words {
        h = if u64::from_ne_bytes(*word) == 0 {
            h.wrapping_mul(FNV_PRIME_POW8)
        } else {
            fnv1a(h, word)
        };
    }
    fnv1a(h, tail)
}

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;
/// `FNV_PRIME^8` (wrapping): eight zero bytes in one step.
const FNV_PRIME_POW8: u64 = {
    let p2 = FNV_PRIME.wrapping_mul(FNV_PRIME);
    let p4 = p2.wrapping_mul(p2);
    p4.wrapping_mul(p4)
};

/// Folds `bytes` into the running FNV-1a state `h`, a byte at a time.
#[inline]
fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_every_primitive() {
        let mut w = SnapshotWriter::new();
        w.put_u8(0xAB);
        w.put_u16(0xBEEF);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(u64::MAX - 3);
        w.put_i64(-42);
        w.put_bool(true);
        w.put_bool(false);
        w.put_f64(std::f64::consts::PI);
        w.put_len(2);
        w.put_bytes(&[1, 2, 3]);
        let bytes = w.finish();

        let mut r = SnapshotReader::new(&bytes);
        assert_eq!(r.get_u8().unwrap(), 0xAB);
        assert_eq!(r.get_u16().unwrap(), 0xBEEF);
        assert_eq!(r.get_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.get_u64().unwrap(), u64::MAX - 3);
        assert_eq!(r.get_i64().unwrap(), -42);
        assert!(r.get_bool().unwrap());
        assert!(!r.get_bool().unwrap());
        assert_eq!(r.get_f64().unwrap(), std::f64::consts::PI);
        assert_eq!(r.get_len().unwrap(), 2);
        assert_eq!(r.get_bytes(3).unwrap(), &[1, 2, 3]);
        r.expect_end().unwrap();
    }

    #[test]
    fn truncation_is_an_error_not_a_panic() {
        let mut w = SnapshotWriter::new();
        w.put_u32(7);
        let bytes = w.finish();
        let mut r = SnapshotReader::new(&bytes);
        assert!(r.get_u64().is_err());
        // The failed read must not advance the cursor past the end.
        let mut r = SnapshotReader::new(&bytes[..2]);
        assert!(r.get_u32().is_err());
        assert!(r.get_u16().is_ok());
    }

    #[test]
    fn bad_bool_rejected() {
        let mut r = SnapshotReader::new(&[2]);
        assert_eq!(r.get_bool(), Err(PoError::Corrupted("snapshot bool is not 0 or 1")));
    }

    #[test]
    fn absurd_length_rejected() {
        let mut w = SnapshotWriter::new();
        w.put_u64(u64::MAX);
        let bytes = w.finish();
        let mut r = SnapshotReader::new(&bytes);
        assert!(r.get_len().is_err());
    }

    #[test]
    fn trailing_bytes_detected() {
        let mut w = SnapshotWriter::new();
        w.put_u8(1);
        w.put_u8(2);
        let bytes = w.finish();
        let mut r = SnapshotReader::new(&bytes);
        r.get_u8().unwrap();
        assert!(r.expect_end().is_err());
        r.get_u8().unwrap();
        assert!(r.expect_end().is_ok());
    }

    #[test]
    fn fingerprint_is_stable_and_discriminating() {
        assert_eq!(fingerprint64("abc"), fingerprint64("abc"));
        assert_ne!(fingerprint64("abc"), fingerprint64("abd"));
        // Known FNV-1a vector: empty string hashes to the offset basis.
        assert_eq!(fingerprint64(""), 0xCBF2_9CE4_8422_2325);
    }

    /// Byte-at-a-time FNV-1a, written out independently of the module.
    fn fnv1a_reference(bytes: &[u8]) -> u64 {
        let mut h: u64 = 0xCBF2_9CE4_8422_2325;
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        h
    }

    #[test]
    fn fingerprint_equals_byte_at_a_time_fnv1a() {
        let check = |bytes: &[u8]| {
            assert_eq!(fingerprint64_bytes(bytes), fnv1a_reference(bytes), "{bytes:02x?}");
        };
        // Zero runs of every length 0..=24 at every start offset 0..8,
        // framed by non-zero bytes so each run straddles word edges.
        for start in 0..8 {
            for run in 0..=24 {
                let mut buf = vec![0xA5u8; start];
                buf.extend(std::iter::repeat_n(0, run));
                check(&buf);
                buf.push(0x5A);
                check(&buf);
            }
        }
        // Non-zero words that contain zero bytes: one non-zero byte at
        // each position of an otherwise zero word, and the converse.
        for pos in 0..8 {
            let mut word = [0u8; 16];
            word[pos] = 1;
            check(&word);
            let mut word = [0xFFu8; 16];
            word[pos] = 0;
            check(&word);
        }
        // Seeded random buffers of every length 0..=200 (most are not a
        // multiple of 8), seven bytes in eight zero, so about a third of
        // their words are all zero.
        let mut rng = crate::SplitMix64::new(0xF1A7);
        for len in 0..=200 {
            let buf: Vec<u8> = (0..len)
                .map(|_| {
                    let r = rng.next_u64();
                    if !r.is_multiple_of(8) {
                        0
                    } else {
                        (r >> 8) as u8
                    }
                })
                .collect();
            check(&buf);
        }
    }
}
