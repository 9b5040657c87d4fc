//! Ablation: stream + overlay-aware prefetching.
//!
//! The paper argues overlays stay competitive with dense layouts partly
//! because "the hardware … can efficiently prefetch the overlay cache
//! lines" (§5.2). This ablation times dense and overlay SpMV with the
//! prefetcher on and off; the two configurations run as shard-pool
//! tasks.
//!
//! Usage: `cargo run --release -p po-bench --bin ablation_prefetch
//! [--shards <n>]`

use po_bench::{Args, ResultTable, ShardPool};
use po_sim::SystemConfig;
use po_sparse::{gen, OverlayMatrix, TimedSpmv};

fn main() {
    let args = Args::from_env();
    let seed: u64 = args.get("seed", 42);
    let pool = ShardPool::from_args(&args);
    args.finish();
    let t = gen::with_zero_line_fraction(64, 512, 0.5, seed);
    let ovl = OverlayMatrix::from_triplets(&t);

    let configs = [("prefetch on (Table 2)", true), ("prefetch off", false)];
    let timings = pool.run(
        configs.to_vec(),
        |_| 1,
        |(_, enabled)| {
            let mut config = SystemConfig::table2_overlay();
            config.hierarchy.prefetcher.enabled = enabled;
            let timed = TimedSpmv::new(config);
            let d = timed.time_dense(64, 512).expect("dense");
            let o = timed.time_overlay(&ovl).expect("overlay");
            (d, o)
        },
    );

    let mut table = ResultTable::new(
        "Ablation: prefetching on/off (SpMV cycles, 50% zero lines)",
        &["config", "dense", "overlay", "overlay/dense"],
    );
    for ((label, _), (d, o)) in configs.iter().zip(&timings) {
        table.row(&[
            label,
            &d.cycles,
            &o.cycles,
            &format!("{:.2}", o.cycles as f64 / d.cycles as f64),
        ]);
    }
    table.print();
    println!(
        "\n(Expected: disabling prefetch hurts both, but the overlay path depends on \
         OBitVector-guided prefetch to hide its Overlay-Memory-Store latency.)"
    );
    table.save_csv("ablation_prefetch").expect("csv");
}
