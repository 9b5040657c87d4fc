//! Shared L3 bank-queue contention model for multi-core runs.
//!
//! The L3 is banked; concurrent accesses from different cores that map
//! to the same bank serialize on the bank's tag/data port. Single-core
//! runs never queue (each access starts after the previous one
//! retires), so the machine only instantiates this model when more
//! than one core is configured — the queue then *stretches* access
//! latency by the time the target bank is still busy with an earlier
//! access from another core.
//!
//! The model is deliberately simple and fully deterministic: one
//! `busy_until` horizon per bank, advanced in simulated-cycle order by
//! the scheduler's interleaving. No host-time or thread-count input
//! exists, so merged exports stay byte-identical at any parallelism.

use po_types::{Cycle, PhysAddr};

/// Queueing model for a banked shared L3.
#[derive(Clone, Debug)]
pub struct L3BankQueue {
    /// Per-bank busy horizon: the cycle at which the bank next accepts
    /// a request.
    busy_until: Vec<Cycle>,
    /// Cycles one access occupies its bank (tag + data port).
    occupancy: u64,
}

impl L3BankQueue {
    /// A queue over `banks` banks (at least one), each held `occupancy`
    /// cycles per access.
    ///
    /// # Panics
    ///
    /// Panics if `banks` is not a power of two (lines interleave across
    /// banks by a mask).
    pub fn new(banks: usize, occupancy: u64) -> Self {
        let banks = banks.max(1);
        assert!(banks.is_power_of_two(), "L3 bank count {banks} is not a power of two");
        Self { busy_until: vec![0; banks], occupancy }
    }

    #[inline]
    fn bank_of(&self, addr: PhysAddr) -> usize {
        let line = addr.raw() >> po_types::geometry::LINE_SHIFT;
        (line & (self.busy_until.len() as u64 - 1)) as usize
    }

    /// Admits an access to the bank holding `addr`'s line at `now`.
    /// Returns the queueing delay (0 when the bank is idle) and marks
    /// the bank busy for `occupancy` cycles starting when the access
    /// actually proceeds.
    pub fn admit(&mut self, now: Cycle, addr: PhysAddr) -> u64 {
        let bank = self.bank_of(addr);
        let start = now.max(self.busy_until[bank]);
        self.busy_until[bank] = start + self.occupancy;
        start - now
    }

    /// Serializes the bank horizons (geometry comes from config).
    pub fn encode_snapshot(&self, w: &mut po_types::SnapshotWriter) {
        for &b in &self.busy_until {
            w.put_u64(b);
        }
    }

    /// Rebuilds a queue with the given geometry from
    /// [`encode_snapshot`] bytes.
    ///
    /// # Errors
    ///
    /// Returns [`po_types::PoError::Corrupted`] on truncation.
    pub fn decode_snapshot(
        banks: usize,
        occupancy: u64,
        r: &mut po_types::SnapshotReader,
    ) -> po_types::PoResult<Self> {
        let mut q = Self::new(banks, occupancy);
        for b in q.busy_until.iter_mut() {
            *b = r.get_u64()?;
        }
        Ok(q)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_bank_admits_without_delay() {
        let mut q = L3BankQueue::new(8, 4);
        assert_eq!(q.admit(100, PhysAddr::new(0)), 0);
    }

    #[test]
    fn same_bank_back_to_back_queues() {
        let mut q = L3BankQueue::new(8, 4);
        let a = PhysAddr::new(0);
        assert_eq!(q.admit(100, a), 0);
        // Second access at the same instant waits out the occupancy.
        assert_eq!(q.admit(100, a), 4);
        // Third waits behind both.
        assert_eq!(q.admit(100, a), 8);
    }

    #[test]
    fn different_banks_do_not_interfere() {
        let mut q = L3BankQueue::new(8, 4);
        assert_eq!(q.admit(100, PhysAddr::new(0)), 0);
        // Next line maps to the next bank.
        assert_eq!(q.admit(100, PhysAddr::new(64)), 0);
    }

    #[test]
    fn delay_expires_with_time() {
        let mut q = L3BankQueue::new(8, 4);
        let a = PhysAddr::new(0);
        q.admit(100, a);
        assert_eq!(q.admit(104, a), 0, "bank is free again after occupancy");
    }

    #[test]
    #[should_panic(expected = "not a power of two")]
    fn non_power_of_two_bank_count_is_rejected() {
        L3BankQueue::new(6, 4);
    }

    #[test]
    fn snapshot_round_trips() {
        let mut q = L3BankQueue::new(4, 7);
        q.admit(10, PhysAddr::new(0));
        q.admit(10, PhysAddr::new(64));
        let mut w = po_types::SnapshotWriter::new();
        q.encode_snapshot(&mut w);
        let bytes = w.finish();
        let mut r = po_types::SnapshotReader::new(&bytes);
        let mut q2 = L3BankQueue::decode_snapshot(4, 7, &mut r).unwrap();
        assert_eq!(q2.admit(10, PhysAddr::new(0)), q.admit(10, PhysAddr::new(0)));
    }
}
