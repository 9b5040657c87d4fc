//! Figure 11: memory overhead of fine-grained sparse storage at
//! different granularities (16 B … 4 KB), normalized to the ideal
//! representation that stores only non-zero values; CSR shown for
//! reference.
//!
//! Headline shapes from the paper: page-granularity (4 KB) storage
//! costs ~53x ideal on average, while 64 B lines stay in the low single
//! digits, and finer-than-64 B granularity beats CSR on more matrices.
//! The numbers come from [`po_bench::figures::line_size_overheads`].
//!
//! Usage: `cargo run --release -p po-bench --bin fig11_linesize
//! [--scale <f>] [--seed <n>]`

use po_bench::figures::{self, line_size_overheads};
use po_bench::{Args, ResultTable};
use std::fmt::Display;

fn main() {
    let args = Args::from_env();
    let scale: f64 = args.get("scale", figures::DEFAULT_SCALE);
    let seed: u64 = args.get("seed", figures::DEFAULT_SEED);
    args.finish();

    let fig = line_size_overheads(scale, seed);

    let mut table = ResultTable::new(
        "Figure 11: memory overhead vs ideal (stores only non-zeros)",
        &["matrix", "L", "CSR", "16B", "32B", "64B", "256B", "1KB", "2KB", "4KB"],
    );
    for row in &fig.rows {
        let cells: Vec<String> = std::iter::once(row.name.clone())
            .chain([row.locality, row.csr].iter().chain(&row.overheads).map(|v| format!("{v:.2}")))
            .collect();
        table.row(&cells.iter().map(|c| c as &dyn Display).collect::<Vec<_>>());
    }
    table.print();

    // Summary: mean overhead per granularity, and how many matrices each
    // granularity beats CSR on (the circles in the paper's figure).
    let mut summary = ResultTable::new(
        "Summary: geomean overhead and #matrices where granularity beats CSR",
        &["granularity", "geomean_overhead", "beats_csr_on"],
    );
    summary.row(&[&"CSR", &format!("{:.2}", fig.csr_geomean), &"-"]);
    for s in &fig.summary {
        summary.row(&[
            &format!("{}B", s.line_bytes),
            &format!("{:.2}", s.geomean),
            &format!("{}/{}", s.beats_csr, fig.rows.len()),
        ]);
    }
    summary.print();
    println!(
        "\nPage-granularity (4KB) storage costs {:.0}x ideal on average \
         (paper: 53x); finer granularities beat CSR on progressively more matrices.",
        fig.at(4096).geomean
    );
    let path = table.save_csv("fig11_linesize").expect("csv");
    println!("CSV written to {}", path.display());
    summary.save_csv("fig11_summary").expect("csv");
}
