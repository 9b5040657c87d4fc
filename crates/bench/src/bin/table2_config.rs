//! Table 2: the simulated system's parameters, plus the §4.5 hardware
//! cost accounting (94.5 KB).
//!
//! Usage: `cargo run --release -p po-bench --bin table2_config`

use po_bench::{Args, ResultTable};
use po_sim::{hardware_cost, SystemConfig};

fn main() {
    // Takes no options, so any argument is an error.
    Args::from_env().finish();
    let c = SystemConfig::table2();
    let mut t = ResultTable::new(
        "Table 2: main parameters of the simulated system",
        &["component", "configuration"],
    );
    t.row(&[
        &"Processor",
        &"2.67 GHz, single issue, out-of-order, 64-entry instruction window, 64 B cache lines",
    ]);
    t.row(&[&"TLB", &format!(
        "4K pages, {}-entry {}-way L1 ({} cycle), {}-entry L2 ({} cycles), TLB miss = {} cycles",
        c.tlb.l1_entries, c.tlb.l1_ways, c.tlb.l1_latency, c.tlb.l2_entries, c.tlb.l2_latency, c.tlb.miss_latency
    )]);
    t.row(&[
        &"L1 cache",
        &format!(
            "{} KB, {}-way, tag/data = {}/{} cycles, parallel lookup, LRU",
            c.hierarchy.l1.capacity_bytes / 1024,
            c.hierarchy.l1.ways,
            c.hierarchy.l1.tag_latency,
            c.hierarchy.l1.data_latency
        ),
    ]);
    t.row(&[
        &"L2 cache",
        &format!(
            "{} KB, {}-way, tag/data = {}/{} cycles, parallel lookup, LRU",
            c.hierarchy.l2.capacity_bytes / 1024,
            c.hierarchy.l2.ways,
            c.hierarchy.l2.tag_latency,
            c.hierarchy.l2.data_latency
        ),
    ]);
    t.row(&[&"Prefetcher", &format!(
        "stream prefetcher, monitors L2 misses, prefetches into L3, {} entries, degree {}, distance {}",
        c.hierarchy.prefetcher.streams, c.hierarchy.prefetcher.degree, c.hierarchy.prefetcher.distance
    )]);
    t.row(&[
        &"L3 cache",
        &format!(
            "{} MB, {}-way, tag/data = {}/{} cycles, serial lookup, DRRIP",
            c.hierarchy.l3.capacity_bytes / 1024 / 1024,
            c.hierarchy.l3.ways,
            c.hierarchy.l3.tag_latency,
            c.hierarchy.l3.data_latency
        ),
    ]);
    t.row(&[&"DRAM controller", &format!(
        "open row, FR-FCFS drain-when-full, {}-entry write buffer, {}-entry OMT cache, OMT miss = {} cycles",
        c.dram.write_buffer_entries, c.overlay.omt_cache_entries, c.overlay.omt_walk_latency
    )]);
    t.row(&[
        &"DRAM & bus",
        &format!(
            "DDR3-1066, 1 channel, 1 rank, {} banks, 8 B bus, burst 8, {} KB row buffer",
            c.dram.banks,
            c.dram.row_buffer_bytes / 1024
        ),
    ]);
    t.print();

    let cost = hardware_cost(&c);
    let mut hc = ResultTable::new(
        "Section 4.5: hardware storage cost",
        &["structure", "bytes", "kilobytes"],
    );
    hc.row(&[
        &"OMT cache (64 x 512 bits)",
        &cost.omt_cache_bytes,
        &format!("{:.1}", cost.omt_cache_bytes as f64 / 1024.0),
    ]);
    hc.row(&[
        &"TLB OBitVector extension",
        &cost.tlb_extension_bytes,
        &format!("{:.1}", cost.tlb_extension_bytes as f64 / 1024.0),
    ]);
    hc.row(&[
        &"Cache tag extension (16 bits/line)",
        &cost.tag_extension_bytes,
        &format!("{:.1}", cost.tag_extension_bytes as f64 / 1024.0),
    ]);
    hc.row(&[&"total", &cost.total_bytes(), &format!("{:.1}", cost.total_bytes() as f64 / 1024.0)]);
    hc.print();
    println!("\n(The paper reports 4 KB + 8.5 KB + 82 KB = 94.5 KB.)");
    hc.save_csv("hardware_cost").expect("csv");
}
