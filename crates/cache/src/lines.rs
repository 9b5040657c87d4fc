//! Fixed-capacity inline lists of line addresses.
//!
//! Every timed access reports the dirty lines its fills displaced and
//! the lines the prefetchers want fetched. Both are bounded by the
//! hierarchy's shape, so they travel in inline arrays instead of heap
//! vectors: a timed access allocates nothing.

use crate::config::PrefetcherConfig;
use po_types::PhysAddr;

/// Up to `N` line addresses, stored inline.
///
/// # Example
///
/// ```
/// use po_cache::LineList;
/// use po_types::PhysAddr;
///
/// let mut l = LineList::<2>::new();
/// l.push(PhysAddr::new(0x40));
/// assert_eq!(l.as_slice(), &[PhysAddr::new(0x40)]);
/// ```
#[derive(Clone, Copy, Debug)]
pub struct LineList<const N: usize> {
    len: usize,
    lines: [PhysAddr; N],
}

/// Dirty lines displaced by one access or fill: at most one per level.
pub type Writebacks = LineList<3>;

/// Prefetch candidates of one access: the stream prefetcher's `degree`
/// lines plus as many overlay-aware candidates.
pub type Prefetches = LineList<{ 2 * PrefetcherConfig::MAX_DEGREE }>;

impl<const N: usize> LineList<N> {
    /// The empty list.
    pub const fn new() -> Self {
        Self { len: 0, lines: [PhysAddr::new(0); N] }
    }

    /// Appends `line`.
    ///
    /// # Panics
    ///
    /// Panics if the list already holds `N` lines; the capacities are
    /// bounds of the hierarchy, so an overflow is a bug, never data to
    /// drop.
    #[inline]
    pub fn push(&mut self, line: PhysAddr) {
        assert!(self.len < N, "line list over its capacity of {N}");
        self.lines[self.len] = line;
        self.len += 1;
    }

    /// The lines, in push order.
    #[inline]
    pub fn as_slice(&self) -> &[PhysAddr] {
        &self.lines[..self.len]
    }
}

impl<const N: usize> Default for LineList<N> {
    fn default() -> Self {
        Self::new()
    }
}

impl<const N: usize> std::ops::Deref for LineList<N> {
    type Target = [PhysAddr];

    fn deref(&self) -> &[PhysAddr] {
        self.as_slice()
    }
}

impl<const N: usize> IntoIterator for LineList<N> {
    type Item = PhysAddr;
    type IntoIter = std::iter::Take<std::array::IntoIter<PhysAddr, N>>;

    fn into_iter(self) -> Self::IntoIter {
        self.lines.into_iter().take(self.len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keeps_push_order() {
        let mut l = LineList::<3>::new();
        assert!(l.is_empty());
        l.push(PhysAddr::new(0x80));
        l.push(PhysAddr::new(0x40));
        assert_eq!(l.len(), 2);
        assert_eq!(l.into_iter().collect::<Vec<_>>(), [PhysAddr::new(0x80), PhysAddr::new(0x40)]);
    }

    #[test]
    #[should_panic(expected = "over its capacity")]
    fn overflow_panics() {
        let mut l = LineList::<1>::new();
        l.push(PhysAddr::new(0));
        l.push(PhysAddr::new(64));
    }
}
