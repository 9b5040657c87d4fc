//! SplitMix64 (Steele, Lea, Flood 2014): the one seeded generator every
//! crate uses — fault plans, generated op streams, test mutators — so
//! nothing depends on ambient entropy. The same engine as the rand shim,
//! kept here so `po-types` stays dependency-free.

/// A SplitMix64 stream. Equal seeds give equal streams.
#[derive(Clone, Debug)]
pub struct SplitMix64 {
    pub(crate) state: u64,
}

impl SplitMix64 {
    /// A stream starting from `seed`.
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// The next 64 random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform `f64` in `[0, 1)`.
    #[inline]
    pub(crate) fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}
