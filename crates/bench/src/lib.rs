//! # po-bench — the benchmark harness
//!
//! One binary per table/figure of the paper (see DESIGN.md §4 for the
//! full experiment index), plus ablations, extensions and CI tools:
//!
//! | target | regenerates |
//! |---|---|
//! | `table2_config` | Table 2 parameters + §4.5 hardware cost |
//! | `fig8_fork_memory` | Figure 8: extra memory after fork, CoW vs OoW |
//! | `fig9_fork_cpi` | Figure 9: CPI after fork, CoW vs OoW |
//! | `fig10_spmv` | Figure 10: SpMV perf/memory vs CSR over 87 matrices |
//! | `fig11_linesize` | Figure 11: memory overhead vs line size |
//! | `sparsity_sweep` | §5.2 random-sparsity sensitivity study |
//! | `repro_all` | the headlines of all of the above in `report.md` |
//! | `ablation_*` | design-choice ablations: OMT cache, prefetch, promotion, segments, window |
//! | `ext_periodic_checkpoint`, `ext_small_pages` | extension experiments beyond the paper |
//! | `fig_multicore` | the contended-fork figure over 1/2/4/8 cores |
//! | `summary_json` | `summary.json`, the performance snapshot |
//! | `perf_ratchet` | CI gate: re-measures `summary.json`'s workloads |
//!
//! The figures' numbers are computed in one place, [`figures`]: the
//! figure binaries and `repro_all` only print and save what its
//! functions return, and the workspace's `paper_claims` test asserts
//! the same values. Host-clock benchmarks live in the separate
//! `po_perf` package.
//!
//! The binaries take `--key value` options ([`Args`]): `--seed <n>`
//! (default 42) on every seeded run, `--warmup`/`--post <instructions>` on the
//! fork experiments and `--scale <f>` (non-zero multiplier, default
//! 0.3) on the sparse suite. A value that does not parse, or an
//! argument the binary does not take, is an error (exit status 2).
//! Each prints an aligned table to stdout and writes its CSV under
//! `bench_results/`.
//!
//! Machine-driving work goes through the shared shard pool
//! ([`pool::ShardPool`]) as `po_sim::runner` jobs (helpers in
//! [`suite`]): `--shards N` / `PO_SHARDS` picks the worker count, and
//! results — tables, `summary.json`, merged telemetry exports — are
//! byte-identical at any shard count.

#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod figures;
pub mod pool;
pub mod suite;
pub mod summary;

pub use pool::ShardPool;

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Display;
use std::fs;
use std::path::PathBuf;

/// Minimal argument parsing: `--key value` pairs and bare `--key` flags.
#[derive(Clone, Debug)]
pub struct Args {
    raw: Vec<String>,
    /// Every name a [`get`](Args::get) (`true`: takes a value) or
    /// [`flag`](Args::flag) (`false`) call asked for.
    asked: RefCell<BTreeMap<String, bool>>,
}

/// Prints `error: {msg}` and exits with status 2, the bench binaries'
/// usage-error status.
pub(crate) fn usage_error(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2)
}

impl Args {
    /// Parses the process arguments.
    pub fn from_env() -> Self {
        Self::new(std::env::args().skip(1).collect())
    }

    fn new(raw: Vec<String>) -> Self {
        Self { raw, asked: RefCell::default() }
    }

    /// Value of `--name`, parsed, or `default` when the flag is absent.
    /// A value that does not parse, or a missing value, ends the process
    /// with exit status 2 and a message naming the flag: a typo must not
    /// quietly run the default.
    pub fn get<T: std::str::FromStr>(&self, name: &str, default: T) -> T {
        self.try_get(name, default).unwrap_or_else(|msg| usage_error(&msg))
    }

    /// [`Args::get`] without the exit: `Err` names the flag and the
    /// value that did not parse.
    fn try_get<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        self.asked.borrow_mut().insert(name.to_string(), true);
        let key = format!("--{name}");
        let Some(i) = self.raw.iter().position(|a| a == &key) else {
            return Ok(default);
        };
        let value = self.raw.get(i + 1).ok_or_else(|| format!("{key} needs a value"))?;
        value.parse().map_err(|_| format!("{key}: cannot parse {value:?}"))
    }

    /// Whether the bare flag `--name` is present.
    pub fn flag(&self, name: &str) -> bool {
        self.asked.borrow_mut().insert(name.to_string(), false);
        let key = format!("--{name}");
        self.raw.iter().any(|a| a == &key)
    }

    /// Ends option parsing: an argument no [`get`](Args::get) or
    /// [`flag`](Args::flag) call asked for ends the process with exit
    /// status 2 and a message naming it, so a misspelled option cannot
    /// quietly run the defaults. Call it once every option is read.
    pub fn finish(&self) {
        if let Some(arg) = self.unknown() {
            usage_error(&format!("unknown argument {arg:?}"));
        }
    }

    /// The first argument that is neither an asked-for option nor the
    /// value of one.
    fn unknown(&self) -> Option<&str> {
        let asked = self.asked.borrow();
        let mut args = self.raw.iter();
        while let Some(arg) = args.next() {
            match arg.strip_prefix("--").and_then(|name| asked.get(name)) {
                Some(&takes_value) => {
                    if takes_value {
                        args.next();
                    }
                }
                None => return Some(arg),
            }
        }
        None
    }
}

impl Default for Args {
    fn default() -> Self {
        Self::from_env()
    }
}

/// A simple result table that prints aligned to stdout and saves a CSV.
#[derive(Clone, Debug)]
pub struct ResultTable {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl ResultTable {
    /// Creates a table with the given title and column headers.
    pub fn new(title: &str, headers: &[&str]) -> Self {
        Self {
            title: title.to_string(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the cell count differs from the header count.
    pub fn row(&mut self, cells: &[&dyn Display]) {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells.iter().map(|c| c.to_string()).collect());
    }

    /// Prints the table aligned to stdout.
    pub fn print(&self) {
        println!("\n== {} ==", self.title);
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let fmt_row = |cells: &[String]| {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:>width$}", c, width = widths[i]))
                .collect::<Vec<_>>()
                .join("  ")
        };
        println!("{}", fmt_row(&self.headers));
        println!("{}", "-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        for row in &self.rows {
            println!("{}", fmt_row(row));
        }
    }

    /// Writes the table as CSV under `bench_results/<name>.csv`.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn save_csv(&self, name: &str) -> std::io::Result<PathBuf> {
        let dir = PathBuf::from("bench_results");
        fs::create_dir_all(&dir)?;
        let path = dir.join(format!("{name}.csv"));
        let mut out = String::new();
        out.push_str(&self.headers.join(","));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.join(","));
            out.push('\n');
        }
        fs::write(&path, out)?;
        Ok(path)
    }
}

/// Geometric mean of positive values (the paper's "mean" bars).
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = values.iter().map(|v| v.max(1e-12).ln()).sum();
    (log_sum / values.len() as f64).exp()
}

/// Formats a byte count human-readably (B/KB/MB).
pub fn human_bytes(bytes: u64) -> String {
    if bytes >= 1 << 20 {
        format!("{:.2}MB", bytes as f64 / (1 << 20) as f64)
    } else if bytes >= 1 << 10 {
        format!("{:.1}KB", bytes as f64 / (1 << 10) as f64)
    } else {
        format!("{bytes}B")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_of_uniform_is_value() {
        assert!((geomean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-9);
        assert_eq!(geomean(&[]), 0.0);
    }

    #[test]
    fn human_bytes_units() {
        assert_eq!(human_bytes(512), "512B");
        assert_eq!(human_bytes(2048), "2.0KB");
        assert_eq!(human_bytes(3 << 20), "3.00MB");
    }

    #[test]
    fn args_reject_values_that_do_not_parse() {
        let args = Args::new(
            ["--seed", "0x2a", "--scale", "0,3", "--post", "7"].map(String::from).to_vec(),
        );
        assert_eq!(args.try_get("seed", 42u64), Err("--seed: cannot parse \"0x2a\"".to_string()));
        assert_eq!(args.try_get("scale", 0.3f64), Err("--scale: cannot parse \"0,3\"".to_string()));
        assert_eq!(args.try_get("post", 1u64), Ok(7));
        assert_eq!(args.try_get("warmup", 5u64), Ok(5));
        let dangling = Args::new(vec!["--seed".to_string()]);
        assert_eq!(dangling.try_get("seed", 42u64), Err("--seed needs a value".to_string()));
    }

    #[test]
    fn args_name_the_first_argument_nobody_asked_for() {
        let args = |raw: &[&str]| {
            let args = Args::new(raw.iter().map(|a| a.to_string()).collect());
            let _ = args.try_get("seed", 42u64);
            args.flag("json");
            args
        };
        assert_eq!(args(&["--seed", "7", "--json"]).unknown(), None);
        assert_eq!(args(&["--sead", "7"]).unknown(), Some("--sead"));
        assert_eq!(args(&["--seed", "7", "--out", "x.csv"]).unknown(), Some("--out"));
        // A bare flag takes no value, so what follows it is checked too.
        assert_eq!(args(&["--json", "extra"]).unknown(), Some("extra"));
        // A value that looks like a flag is still the value.
        assert_eq!(args(&["--seed", "--json"]).unknown(), None);
    }

    #[test]
    fn table_roundtrip() {
        let mut t = ResultTable::new("t", &["a", "b"]);
        t.row(&[&1, &"x"]);
        assert_eq!(t.rows.len(), 1);
    }
}
