//! Figure 10: SpMV with page overlays vs CSR over the 87-matrix suite,
//! sorted by the non-zero locality metric L.
//!
//! For each matrix, one SpMV iteration is timed on the Table 2 machine
//! for the overlay and CSR representations; the figure's two series are
//! the overlay's performance (CSR cycles / overlay cycles; >1 = overlay
//! faster) and relative memory (overlay bytes / CSR bytes; <1 = overlay
//! smaller), both normalized to CSR. The paper's crossover sits near
//! L ≈ 4.5, with overlays winning on 34 of 87 matrices. Matrices fan
//! out over the shard pool (each timing runs on its own machine, so the
//! numbers are shard-invariant). The numbers come from
//! [`po_bench::figures::spmv_vs_csr`].
//!
//! Usage: `cargo run --release -p po-bench --bin fig10_spmv
//! [--scale <f>] [--seed <n>] [--shards <n>]` (scale multiplies
//! non-zero counts; default 0.3 keeps the sweep under a minute).

use po_bench::figures::{self, spmv_vs_csr};
use po_bench::{Args, ResultTable, ShardPool};

fn main() {
    let args = Args::from_env();
    let scale: f64 = args.get("scale", figures::DEFAULT_SCALE);
    let seed: u64 = args.get("seed", figures::DEFAULT_SEED);
    let pool = ShardPool::from_args(&args);
    args.finish();

    let fig = spmv_vs_csr(&pool, scale, seed).expect("SpMV timing failed");

    let mut table = ResultTable::new(
        "Figure 10: overlay SpMV normalized to CSR (sorted by L)",
        &["matrix", "L", "perf_vs_csr", "mem_vs_csr(x)"],
    );
    for row in &fig.rows {
        table.row(&[
            &row.name,
            &format!("{:.2}", row.locality),
            &format!("{:.3}", row.perf_vs_csr),
            &format!("{:.3}", row.mem_vs_csr),
        ]);
    }
    table.print();

    println!(
        "\nOverlays outperform CSR on {} of {} matrices (paper: 34 of 87).",
        fig.wins,
        fig.rows.len()
    );
    if let Some(l) = fig.first_win_locality {
        println!("First overlay win at L = {l:.2} (paper: crossover near L = 4.5).");
    }
    if let Some((mean_perf, mean_mem)) = fig.winners_mean {
        println!(
            "On winning matrices: {:.0}% faster, {:.2}x CSR's memory \
             (paper: 27% faster, 0.92x memory on its 34 winners).",
            (mean_perf - 1.0) * 100.0,
            mean_mem
        );
    }
    let path = table.save_csv("fig10_spmv").expect("csv");
    println!("CSV written to {}", path.display());
}
