//! Lightweight statistics counters used by every hardware model.

use core::fmt;

/// A saturating event counter.
///
/// # Example
///
/// ```
/// use po_types::Counter;
///
/// let mut hits = Counter::new();
/// hits.add(3);
/// hits.inc();
/// assert_eq!(hits.get(), 4);
/// ```
#[derive(Clone, Copy, Default, PartialEq, Eq)]
pub struct Counter(u64);

impl Counter {
    /// Creates a zeroed counter.
    #[inline]
    pub const fn new() -> Self {
        Self(0)
    }

    /// Increments the counter by one.
    #[inline]
    pub fn inc(&mut self) {
        self.0 = self.0.saturating_add(1);
    }

    /// Adds `n` to the counter.
    #[inline]
    pub fn add(&mut self, n: u64) {
        self.0 = self.0.saturating_add(n);
    }

    /// Returns the current count.
    #[inline]
    pub const fn get(self) -> u64 {
        self.0
    }

    /// Resets the counter to zero.
    #[inline]
    pub fn reset(&mut self) {
        self.0 = 0;
    }
}

impl fmt::Debug for Counter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Counter({})", self.0)
    }
}

impl fmt::Display for Counter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<u64> for Counter {
    fn from(n: u64) -> Self {
        Self(n)
    }
}

impl From<Counter> for u64 {
    fn from(c: Counter) -> Self {
        c.0
    }
}

/// Declares a component statistics struct once and derives everything
/// else that lists its fields from that one declaration. Fields are
/// [`Counter`]s or plain `u64` totals:
///
/// * the struct itself, fields and attributes as written;
/// * `encode_snapshot` / `decode_snapshot`, which write or read every
///   field as a `u64` in declaration order;
/// * `counters()`, which yields `("<prefix>.<field>", value)` pairs —
///   the telemetry counters a run publishes when it ends.
///
/// # Example
///
/// ```
/// use po_types::{Counter, SnapshotReader, SnapshotWriter};
///
/// po_types::stats! {
///     /// Widget statistics.
///     #[derive(Clone, Debug, Default)]
///     pub struct WidgetStats: "widget" {
///         /// Pokes served.
///         pub pokes: Counter,
///         /// Bytes moved.
///         pub bytes: u64,
///     }
/// }
///
/// let mut s = WidgetStats::default();
/// s.pokes.add(3);
/// s.bytes = 64;
/// let counters: Vec<_> = s.counters().collect();
/// assert_eq!(counters, [("widget.pokes", 3), ("widget.bytes", 64)]);
///
/// let mut w = SnapshotWriter::new();
/// s.encode_snapshot(&mut w);
/// let bytes = w.finish();
/// let back = WidgetStats::decode_snapshot(&mut SnapshotReader::new(&bytes)).unwrap();
/// assert_eq!((back.pokes.get(), back.bytes), (3, 64));
/// ```
#[macro_export]
macro_rules! stats {
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident: $prefix:literal {
            $( $(#[$field_meta:meta])* pub $field:ident: $ty:ty ),* $(,)?
        }
    ) => {
        $(#[$meta])*
        $vis struct $name {
            $( $(#[$field_meta])* pub $field: $ty, )*
        }

        impl $name {
            /// Serializes every field as a `u64`, in declaration order.
            pub fn encode_snapshot(&self, w: &mut $crate::SnapshotWriter) {
                $( w.put_u64(u64::from(self.$field)); )*
            }

            /// Rebuilds the statistics from `encode_snapshot` bytes.
            ///
            /// # Errors
            ///
            /// Returns [`PoError::Corrupted`]($crate::PoError::Corrupted)
            /// on truncation.
            pub fn decode_snapshot(r: &mut $crate::SnapshotReader) -> $crate::PoResult<Self> {
                Ok(Self { $( $field: <$ty>::from(r.get_u64()?), )* })
            }

            /// Every field as a `("<prefix>.<field>", value)` telemetry
            /// counter, in declaration order.
            pub fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> {
                [$( (
                    concat!($prefix, ".", stringify!($field)),
                    u64::from(self.$field),
                ) ),*]
                .into_iter()
            }
        }
    };
}

/// Computes a ratio, returning 0.0 when the denominator is zero; used all
/// over the stats reporting (hit rates, CPI, normalized figures).
#[inline]
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_ops() {
        let mut c = Counter::new();
        c.inc();
        c.add(9);
        assert_eq!(c.get(), 10);
        c.reset();
        assert_eq!(c.get(), 0);
    }

    #[test]
    fn ratio_handles_zero_denominator() {
        assert_eq!(ratio(5, 0), 0.0);
        assert_eq!(ratio(1, 2), 0.5);
    }

    #[test]
    fn counter_saturates() {
        let mut c = Counter::new();
        c.add(u64::MAX);
        c.inc();
        assert_eq!(c.get(), u64::MAX);
    }
}
