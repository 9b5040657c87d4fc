//! Simulation statistics.

use po_types::Counter;

po_types::stats! {
    /// Aggregate statistics of a simulation run.
    #[derive(Clone, Debug, Default)]
    pub struct SimStats: "sim" {
        /// Instructions executed.
        pub instructions: u64,
        /// Cycles elapsed.
        pub cycles: u64,
        /// Demand loads.
        pub loads: Counter,
        /// Demand stores.
        pub stores: Counter,
        /// Copy-on-write faults taken (CoW mode).
        pub cow_faults: Counter,
        /// Full pages copied by CoW.
        pub pages_copied: Counter,
        /// Overlaying writes performed (OoW mode).
        pub overlaying_writes: Counter,
        /// Overlay promotions to full pages.
        pub promotions: Counter,
        /// OMS compaction passes run by the pressure ladder (§4.4.2).
        pub compactions: Counter,
        /// Overlaying-read-exclusive coherence requests issued (§4.3.3,
        /// multi-core only).
        pub coherence_read_exclusive: Counter,
        /// Single-line OBitVector update messages delivered to *remote*
        /// cores' TLB copies over the coherence network (§4.3.3).
        pub coherence_obit_msgs: Counter,
        /// Remote-core TLB entries invalidated by cross-core promotions,
        /// commits, discards, and CoW remaps.
        pub coherence_invalidations: Counter,
        /// Cycles timed accesses stalled on coherence delivery to remote
        /// cores (multi-core only).
        pub coherence_stall_cycles: Counter,
        /// Cycles timed accesses stalled on shared-resource contention
        /// (L3 bank queue + DRAM bandwidth; multi-core only).
        pub contention_stall_cycles: Counter,
        /// Bytes of demand + copy traffic moved over the memory bus.
        pub bus_bytes: u64,
        /// Extra physical memory allocated since the measurement epoch
        /// (regular frames + overlay store), in bytes — the Figure 8 metric.
        pub extra_memory_bytes: u64,
    }
}

impl SimStats {
    /// Cycles per instruction.
    pub fn cpi(&self) -> f64 {
        po_types::stats::ratio(self.cycles, self.instructions)
    }
}
