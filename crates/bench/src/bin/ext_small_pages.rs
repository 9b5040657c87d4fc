//! Extension experiment: why not just shrink the page size? (§1)
//!
//! The paper's motivation: "simply reducing the page size results in an
//! unacceptable increase in virtual-to-physical mapping table overhead
//! and TLB pressure." This experiment quantifies both costs.
//!
//! Emulation: the machine's page geometry is fixed at 4 KB, so a page
//! size of `P < 4096` is emulated by scaling the TLB entry counts down
//! by `4096 / P` — the TLB then covers exactly the reach it would have
//! with P-byte pages — while the mapping-table overhead is computed
//! directly (one 8 B leaf PTE per P bytes of mapped memory, plus ~0.2%
//! interior nodes). Overlays deliver 64 B granularity while keeping the
//! 4 KB TLB reach and page-table size. The five configurations run as
//! shard-pool jobs.
//!
//! Usage: `cargo run --release -p po-bench --bin ext_small_pages
//! [--shards <n>]`

use po_bench::suite::{fork_job, run_jobs};
use po_bench::{human_bytes, Args, ResultTable, ShardPool};
use po_sim::SystemConfig;
use po_workloads::spec_suite;

fn page_table_bytes(footprint_bytes: u64, page_size: u64) -> u64 {
    let leaves = footprint_bytes.div_ceil(page_size) * 8;
    leaves + leaves / 512 // interior levels (~0.2%)
}

fn main() {
    let args = Args::from_env();
    let warmup_instr: u64 = args.get("warmup", 300_000);
    let post_instr: u64 = args.get("post", 500_000);
    let seed: u64 = args.get("seed", 42);
    let pool = ShardPool::from_args(&args);
    args.finish();

    let spec = spec_suite().into_iter().find(|s| s.name == "mcf").expect("mcf exists");
    let footprint_bytes = spec.mapped_pages(warmup_instr.max(post_instr)) * 4096;

    let page_sizes = [4096u64, 2048, 1024, 512];
    let mut jobs = Vec::with_capacity(page_sizes.len() + 1);
    for (i, &page_size) in page_sizes.iter().enumerate() {
        let scale = (4096 / page_size) as usize;
        let mut config = SystemConfig::table2();
        config.tlb.l1_entries = (config.tlb.l1_entries / scale).max(config.tlb.l1_ways);
        config.tlb.l2_entries = (config.tlb.l2_entries / scale).max(config.tlb.l2_ways);
        jobs.push(fork_job(
            i as u64,
            format!("small_pages/{page_size}B/cow"),
            config,
            &spec,
            warmup_instr,
            post_instr,
            seed,
        ));
    }
    jobs.push(fork_job(
        page_sizes.len() as u64,
        "small_pages/4096B/oow",
        SystemConfig::table2_overlay(),
        &spec,
        warmup_instr,
        post_instr,
        seed,
    ));
    let results = run_jobs(&pool, jobs).expect("run failed");

    let mut table = ResultTable::new(
        "Extension: shrinking the page size vs overlays (mcf)",
        &["scheme", "granularity", "cpi", "page_table", "divergence_mem"],
    );
    for (i, &page_size) in page_sizes.iter().enumerate() {
        let r = results[i].outcome.as_fork().expect("fork job outcome");
        // CoW at page granularity: divergence memory scales with the page
        // size (each dirty page copies page_size bytes).
        let divergence = r.pages_copied * page_size;
        table.row(&[
            &format!("{}B pages + CoW", page_size),
            &format!("{page_size}B"),
            &format!("{:.3}", r.cpi),
            &human_bytes(page_table_bytes(footprint_bytes, page_size)),
            &human_bytes(divergence),
        ]);
    }

    // The overlay framework: full 4 KB TLB reach, 4 KB page tables, 64 B
    // divergence granularity.
    let oow = results[page_sizes.len()].outcome.as_fork().expect("fork job outcome");
    table.row(&[
        &"4096B pages + overlays",
        &"64B",
        &format!("{:.3}", oow.cpi),
        &human_bytes(page_table_bytes(footprint_bytes, 4096)),
        &human_bytes(oow.extra_memory_bytes),
    ]);

    table.print();
    println!(
        "\n(Shrinking pages multiplies page-table storage and shreds TLB reach — CPI \
         rises — yet still only reaches 512 B granularity. Overlays get 64 B \
         granularity with 4 KB-page costs: the paper's §1 argument, quantified.)"
    );
    table.save_csv("ext_small_pages").expect("csv");
}
