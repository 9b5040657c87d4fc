//! Bank-accurate DRAM timing model.
//!
//! Models the paper's memory system (Table 2): open-row policy, FR-FCFS
//! scheduling with posted writes through a 64-entry write buffer drained
//! when full, eight banks sharing one data bus.
//!
//! Requests are admitted one at a time by the memory controller model in
//! `po-sim`; memory-level parallelism arises from per-bank readiness
//! times and the shared-bus occupancy window, so independent requests to
//! different banks overlap while same-bank row conflicts serialize.

use crate::config::DramConfig;
use po_telemetry::{Event as TelemetryEvent, TelemetrySink};
use po_types::{Counter, Cycle, FaultInjector, FaultSite, MainMemAddr};

/// Outcome of a row-buffer lookup, used for stats and latency selection.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum RowOutcome {
    Hit,
    Closed,
    Conflict,
}

#[derive(Clone, Debug, Default)]
struct Bank {
    open_row: Option<u64>,
    ready_at: Cycle,
}

po_types::stats! {
    /// Statistics accumulated by the DRAM model.
    #[derive(Clone, Debug, Default)]
    pub struct DramStats: "dram" {
        /// Demand + writeback reads serviced.
        pub reads: Counter,
        /// Writes accepted into the write buffer.
        pub writes: Counter,
        /// Row-buffer hits.
        pub row_hits: Counter,
        /// Accesses to a closed bank.
        pub row_closed: Counter,
        /// Row-buffer conflicts.
        pub row_conflicts: Counter,
        /// Write-buffer drains triggered by a full buffer.
        pub drains: Counter,
        /// Total bytes moved over the data bus.
        pub bus_bytes: Counter,
        /// Reads retried after an injected transient (correctable) error.
        pub read_retries: Counter,
    }
}

impl DramStats {
    /// Row-buffer hit rate over all serviced requests.
    pub fn row_hit_rate(&self) -> f64 {
        let total = self.row_hits.get() + self.row_closed.get() + self.row_conflicts.get();
        po_types::stats::ratio(self.row_hits.get(), total)
    }
}

/// The DDR3 timing model.
///
/// See the [crate-level documentation](crate) for an example.
#[derive(Clone, Debug)]
pub struct DramModel {
    config: DramConfig,
    /// `log2(row_buffer_bytes)`: address bits within one row chunk.
    row_shift: u32,
    /// `log2(banks)`: chunk bits that pick the bank.
    bank_shift: u32,
    banks: Vec<Bank>,
    bus_free_at: Cycle,
    /// Pending posted writes (line addresses) awaiting a drain.
    write_buffer: Vec<MainMemAddr>,
    stats: DramStats,
    faults: FaultInjector,
    /// Telemetry handle (never serialized; the machine re-installs it
    /// after a snapshot restore).
    sink: TelemetrySink,
}

impl DramModel {
    /// Creates a model with all banks closed.
    ///
    /// # Panics
    ///
    /// Panics if the bank count or the row-buffer size is not a power of
    /// two (the address interleaving is a shift and a mask).
    pub fn new(config: DramConfig) -> Self {
        assert!(config.banks.is_power_of_two(), "DRAM bank count is not a power of two");
        assert!(
            config.row_buffer_bytes.is_power_of_two(),
            "DRAM row-buffer size is not a power of two"
        );
        Self {
            row_shift: config.row_buffer_bytes.trailing_zeros(),
            bank_shift: config.banks.trailing_zeros(),
            banks: vec![Bank::default(); config.banks],
            bus_free_at: 0,
            write_buffer: Vec::with_capacity(config.write_buffer_entries),
            config,
            stats: DramStats::default(),
            faults: FaultInjector::none(),
            sink: TelemetrySink::noop(),
        }
    }

    /// Installs a fault injector; [`FaultSite::DramReadError`] is
    /// honored here.
    pub fn set_fault_injector(&mut self, faults: FaultInjector) {
        self.faults = faults;
    }

    /// Installs the telemetry sink (a clone sharing the machine's core).
    pub fn set_telemetry(&mut self, sink: TelemetrySink) {
        self.sink = sink;
    }

    /// Returns the configuration.
    pub fn config(&self) -> &DramConfig {
        &self.config
    }

    /// Returns accumulated statistics.
    pub fn stats(&self) -> &DramStats {
        &self.stats
    }

    fn bank_and_row(&self, addr: MainMemAddr) -> (usize, u64) {
        // Row:Bank:Column interleaving — consecutive row-buffer-sized
        // chunks rotate across banks, rows stride across all banks.
        let chunk = addr.raw() >> self.row_shift;
        let bank = (chunk & ((1 << self.bank_shift) - 1)) as usize;
        (bank, chunk >> self.bank_shift)
    }

    fn service(&mut self, now: Cycle, addr: MainMemAddr) -> Cycle {
        let (bank_idx, row) = self.bank_and_row(addr);
        let bank = &mut self.banks[bank_idx];
        let outcome = match bank.open_row {
            Some(open) if open == row => RowOutcome::Hit,
            Some(_) => RowOutcome::Conflict,
            None => RowOutcome::Closed,
        };
        let latency = match outcome {
            RowOutcome::Hit => {
                self.stats.row_hits.inc();
                self.config.row_hit_latency()
            }
            RowOutcome::Closed => {
                self.stats.row_closed.inc();
                self.config.row_closed_latency()
            }
            RowOutcome::Conflict => {
                self.stats.row_conflicts.inc();
                self.config.row_conflict_latency()
            }
        };
        bank.open_row = Some(row);
        // The access starts when both the bank and (for the data burst at
        // the tail of the access) the shared bus are available: the burst
        // window [done - t_burst, done] must begin after the previous
        // burst has released the bus.
        let start = now
            .max(bank.ready_at)
            .max((self.bus_free_at + self.config.t_burst).saturating_sub(latency));
        let done = start + latency;
        bank.ready_at = done;
        // The burst occupies the bus at the tail of the access.
        self.bus_free_at = done;
        self.stats.bus_bytes.add(po_types::geometry::LINE_SIZE as u64);
        done
    }

    /// Services a demand read of the 64 B line containing `addr`,
    /// returning the completion cycle.
    pub fn read(&mut self, now: Cycle, addr: MainMemAddr) -> Cycle {
        self.stats.reads.inc();
        let mut done = self.service(now, addr.line_base());
        if self.faults.fire(FaultSite::DramReadError) {
            // Transient correctable error: the controller re-issues the
            // read; the data is intact, only latency is lost.
            self.stats.read_retries.inc();
            self.sink
                .emit(|| TelemetryEvent::FaultInjected { site: FaultSite::DramReadError.name() });
            done = self.service(done, addr.line_base());
        }
        if self.sink.is_active() {
            self.sink.emit(|| TelemetryEvent::DramAccess {
                addr: addr.raw(),
                write: false,
                latency: done.saturating_sub(now),
            });
            self.sink.observe("dram.read_latency", done.saturating_sub(now));
        }
        done
    }

    /// Posts a write of the line containing `addr` into the write buffer.
    ///
    /// Returns the cycle at which the write is *accepted* (usually `now`):
    /// writes are posted and leave the critical path, per the paper's
    /// FR-FCFS drain-when-full policy. If the buffer is full, it is
    /// drained first and the acceptance is delayed until the drain ends.
    pub fn write(&mut self, now: Cycle, addr: MainMemAddr) -> Cycle {
        self.stats.writes.inc();
        self.sink.emit(|| TelemetryEvent::DramAccess { addr: addr.raw(), write: true, latency: 0 });
        let mut t = now;
        if self.write_buffer.len() >= self.config.write_buffer_entries {
            t = self.drain(now);
        }
        self.write_buffer.push(addr.line_base());
        t
    }

    /// Drains every buffered write, returning the cycle at which the drain
    /// finishes. Invoked automatically when the buffer fills; callers may
    /// also force a drain (e.g. at a checkpoint boundary).
    pub fn drain(&mut self, now: Cycle) -> Cycle {
        if self.write_buffer.is_empty() {
            return now;
        }
        self.stats.drains.inc();
        let mut done = now;
        // Indexing keeps the buffer (and its capacity) in place while
        // `service` borrows the model.
        for i in 0..self.write_buffer.len() {
            done = self.service(done, self.write_buffer[i]);
        }
        self.write_buffer.clear();
        done
    }

    /// Number of writes currently buffered.
    pub fn pending_writes(&self) -> usize {
        self.write_buffer.len()
    }

    /// Resets all statistics (bank and buffer state is kept).
    pub fn reset_stats(&mut self) {
        self.stats = DramStats::default();
    }

    /// Serializes bank state, bus occupancy, the write buffer (in
    /// order) and stats. The fault injector is snapshotted at machine
    /// level, not here.
    pub fn encode_snapshot(&self, w: &mut po_types::SnapshotWriter) {
        for bank in &self.banks {
            match bank.open_row {
                None => w.put_bool(false),
                Some(row) => {
                    w.put_bool(true);
                    w.put_u64(row);
                }
            }
            w.put_u64(bank.ready_at);
        }
        w.put_u64(self.bus_free_at);
        w.put_len(self.write_buffer.len());
        for addr in &self.write_buffer {
            w.put_u64(addr.raw());
        }
        self.stats.encode_snapshot(w);
    }

    /// Rebuilds a model with `config` from [`encode_snapshot`] bytes.
    /// The restored model carries an inert fault injector; install the
    /// machine's via [`DramModel::set_fault_injector`].
    ///
    /// # Errors
    ///
    /// Returns [`po_types::PoError::Corrupted`] on truncation.
    pub fn decode_snapshot(
        config: DramConfig,
        r: &mut po_types::SnapshotReader,
    ) -> po_types::PoResult<Self> {
        let mut model = Self::new(config);
        for bank in model.banks.iter_mut() {
            bank.open_row = if r.get_bool()? { Some(r.get_u64()?) } else { None };
            bank.ready_at = r.get_u64()?;
        }
        model.bus_free_at = r.get_u64()?;
        let n = r.get_len()?;
        model.write_buffer.reserve(n);
        for _ in 0..n {
            model.write_buffer.push(MainMemAddr::new(r.get_u64()?));
        }
        model.stats = DramStats::decode_snapshot(r)?;
        Ok(model)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> DramModel {
        DramModel::new(DramConfig::table2())
    }

    #[test]
    fn first_access_is_row_closed() {
        let mut m = model();
        let done = m.read(0, MainMemAddr::new(0));
        assert_eq!(done, m.config().row_closed_latency());
        assert_eq!(m.stats().row_closed.get(), 1);
    }

    #[test]
    fn same_row_hits() {
        let mut m = model();
        let t1 = m.read(0, MainMemAddr::new(0));
        let t2 = m.read(t1, MainMemAddr::new(64));
        assert_eq!(t2 - t1, m.config().row_hit_latency());
        assert_eq!(m.stats().row_hits.get(), 1);
    }

    #[test]
    fn different_row_same_bank_conflicts() {
        let mut m = model();
        let row_bytes = m.config().row_buffer_bytes as u64;
        let banks = m.config().banks as u64;
        let t1 = m.read(0, MainMemAddr::new(0));
        // Same bank, different row: stride = banks * row_buffer.
        let t2 = m.read(t1, MainMemAddr::new(row_bytes * banks));
        assert_eq!(t2 - t1, m.config().row_conflict_latency());
        assert_eq!(m.stats().row_conflicts.get(), 1);
    }

    #[test]
    fn different_banks_overlap() {
        let mut m = model();
        let row_bytes = m.config().row_buffer_bytes as u64;
        // Issue two closed-bank reads at the same instant to two banks.
        let t1 = m.read(0, MainMemAddr::new(0));
        let t2 = m.read(0, MainMemAddr::new(row_bytes)); // next bank
                                                         // The second overlaps except for bus serialization: it must finish
                                                         // well before 2x the full closed latency.
        assert!(t2 < t1 + m.config().row_closed_latency());
        assert!(t2 > t1, "bus still serializes the bursts");
    }

    #[test]
    fn writes_are_posted_until_buffer_full() {
        let mut m = model();
        for i in 0..m.config().write_buffer_entries {
            let t = m.write(100, MainMemAddr::new((i * 64) as u64));
            assert_eq!(t, 100, "posted writes are accepted immediately");
        }
        assert_eq!(m.pending_writes(), m.config().write_buffer_entries);
        // The next write forces a drain.
        let t = m.write(100, MainMemAddr::new(1 << 20));
        assert!(t > 100, "drain delays acceptance");
        assert_eq!(m.stats().drains.get(), 1);
        assert_eq!(m.pending_writes(), 1);
    }

    #[test]
    fn explicit_drain_empties_buffer() {
        let mut m = model();
        m.write(0, MainMemAddr::new(0));
        m.write(0, MainMemAddr::new(64));
        let done = m.drain(0);
        assert!(done > 0);
        assert_eq!(m.pending_writes(), 0);
        // Draining an empty buffer is free.
        assert_eq!(m.drain(done), done);
    }

    #[test]
    fn row_hit_rate_reflects_locality() {
        let mut m = model();
        let mut t = 0;
        for i in 0..100u64 {
            t = m.read(t, MainMemAddr::new(i * 64)); // sequential: same row
        }
        assert!(m.stats().row_hit_rate() > 0.9);
    }

    #[test]
    #[should_panic(expected = "bank count is not a power of two")]
    fn non_power_of_two_bank_count_is_rejected() {
        DramModel::new(DramConfig { banks: 6, ..DramConfig::table2() });
    }

    #[test]
    fn drain_keeps_the_write_buffer_capacity() {
        let mut m = model();
        for i in 0..=m.config().write_buffer_entries as u64 {
            m.write(0, MainMemAddr::new(i * 64));
        }
        let cap = m.write_buffer.capacity();
        m.drain(0);
        assert_eq!(m.write_buffer.capacity(), cap);
    }

    #[test]
    fn bus_bytes_accumulate() {
        let mut m = model();
        let t = m.read(0, MainMemAddr::new(0));
        m.read(t, MainMemAddr::new(4096));
        assert_eq!(m.stats().bus_bytes.get(), 128);
    }
}
