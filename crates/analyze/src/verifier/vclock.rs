//! Per-core vector clocks for the happens-before analysis.
//!
//! A [`VClock`] maps core ids to event counts. The concurrency verifier
//! keeps one clock per core, advances a core's own component at each of
//! its observation points, and joins clocks along synchronization edges
//! (coherence messages, TLB fills, shootdown acks). Two events are
//! ordered by happens-before iff the earlier one's clock is ≤ the view
//! the later one executed under.

use std::collections::BTreeMap;

/// A vector clock over core ids. Components default to zero and are
/// stored sparsely, so the verifier needs no up-front core count and a
/// clock's memory follows how many cores it has heard from, not how
/// large their ids are (ids come from untrusted journals).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct VClock {
    comps: BTreeMap<usize, u64>,
}

impl VClock {
    /// The zero clock.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// This clock's component for `core`.
    #[must_use]
    pub fn get(&self, core: usize) -> u64 {
        self.comps.get(&core).copied().unwrap_or(0)
    }

    /// Advances `core`'s own component by one (a local event).
    pub fn tick(&mut self, core: usize) {
        *self.comps.entry(core).or_insert(0) += 1;
    }

    /// Pointwise maximum: after `self.join(other)` every component of
    /// `other` happens-before `self`'s current point.
    pub fn join(&mut self, other: &VClock) {
        for (&core, &c) in &other.comps {
            let mine = self.comps.entry(core).or_insert(0);
            *mine = (*mine).max(c);
        }
    }

    /// `true` iff every component of `self` is ≤ the matching component
    /// of `other` — i.e. the point `self` captures happens-before (or
    /// equals) the view `other` captures.
    #[must_use]
    pub fn le(&self, other: &VClock) -> bool {
        self.comps.iter().all(|(&core, &c)| c <= other.get(core))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tick_and_get() {
        let mut c = VClock::new();
        assert_eq!(c.get(3), 0);
        c.tick(3);
        c.tick(3);
        c.tick(0);
        assert_eq!(c.get(3), 2);
        assert_eq!(c.get(0), 1);
        assert_eq!(c.get(7), 0);
    }

    #[test]
    fn join_is_pointwise_max() {
        let mut a = VClock::new();
        a.tick(0);
        a.tick(0);
        let mut b = VClock::new();
        b.tick(1);
        b.join(&a);
        assert_eq!(b.get(0), 2);
        assert_eq!(b.get(1), 1);
    }

    #[test]
    fn le_orders_joined_clocks_only() {
        let mut w = VClock::new();
        w.tick(0); // the write
        let mut synced = VClock::new();
        synced.tick(1);
        synced.join(&w); // received the message
        let mut stale = VClock::new();
        stale.tick(1); // never synchronized
        assert!(w.le(&synced), "message receipt orders the write before the reader");
        assert!(!w.le(&stale), "an unsynchronized view leaves the pair unordered");
        assert!(w.le(&w), "le is reflexive");
    }
}
