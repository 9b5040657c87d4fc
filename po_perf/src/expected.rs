//! `expected.json`: each workload's exact simulated outcome at the
//! recorded seeds (42, the default, and 7, held out for claims).
//!
//! A run at a recorded seed counts every rep whose outcome differs from
//! the file as failed. `--bless` rewrites the entry for the run's
//! workload and seed, for a deliberate modelling change.

use crate::json::{self, Json};
use crate::workload::{SimSummary, Workload};
use std::collections::BTreeMap;
use std::path::PathBuf;

const TEXT: &str = include_str!("../expected.json");

fn path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("expected.json")
}

fn field(v: &Json, key: &str) -> Result<u64, String> {
    let n = v.get(key).and_then(Json::as_f64).ok_or_else(|| format!("missing {key}"))?;
    if n < 0.0 || n.fract() != 0.0 || n >= 2f64.powi(53) {
        return Err(format!("{key} = {n} is not an exact count"));
    }
    Ok(n as u64)
}

fn from_json(v: &Json) -> Result<SimSummary, String> {
    let fp = v.get("fingerprint").and_then(Json::as_str).ok_or("missing fingerprint")?;
    let fingerprint = u64::from_str_radix(fp.trim_start_matches("0x"), 16)
        .map_err(|e| format!("fingerprint {fp}: {e}"))?;
    Ok(SimSummary {
        fingerprint,
        cycles: field(v, "cycles")?,
        instructions: field(v, "instructions")?,
        extra_bytes: field(v, "extra_bytes")?,
        base_bytes: field(v, "base_bytes")?,
    })
}

fn to_json(s: &SimSummary) -> Json {
    let num = |n: u64| Json::Num(n as f64);
    Json::Obj(BTreeMap::from([
        ("fingerprint".to_string(), Json::Str(format!("{:#018x}", s.fingerprint))),
        ("cycles".to_string(), num(s.cycles)),
        ("instructions".to_string(), num(s.instructions)),
        ("extra_bytes".to_string(), num(s.extra_bytes)),
        ("base_bytes".to_string(), num(s.base_bytes)),
    ]))
}

/// The entry for `workload` at `seed` in `text`, if recorded.
///
/// # Errors
///
/// A malformed file or entry.
pub fn lookup_in(text: &str, workload: Workload, seed: u64) -> Result<Option<SimSummary>, String> {
    let doc = json::parse(text)?;
    match doc.get(workload.name()).and_then(|w| w.get(&seed.to_string())) {
        Some(entry) => from_json(entry)
            .map(Some)
            .map_err(|e| format!("expected.json {} seed {seed}: {e}", workload.name())),
        None => Ok(None),
    }
}

/// The compiled-in entry for `workload` at `seed`, if recorded.
///
/// # Errors
///
/// A malformed file or entry.
pub fn lookup(workload: Workload, seed: u64) -> Result<Option<SimSummary>, String> {
    lookup_in(TEXT, workload, seed)
}

/// `text` with the entry for `workload` at `seed` set to `summary`, one
/// line per entry.
///
/// # Errors
///
/// A malformed `text`.
pub fn with_entry(
    text: &str,
    workload: Workload,
    seed: u64,
    summary: &SimSummary,
) -> Result<String, String> {
    let Json::Obj(mut doc) = json::parse(text)? else {
        return Err("expected.json is not an object".into());
    };
    let entries =
        doc.entry(workload.name().to_string()).or_insert_with(|| Json::Obj(BTreeMap::new()));
    let Json::Obj(entries) = entries else {
        return Err(format!("expected.json {} is not an object", workload.name()));
    };
    entries.insert(seed.to_string(), to_json(summary));
    let mut out = String::from("{\n");
    for (wi, (name, seeds)) in doc.iter().enumerate() {
        out.push_str(&format!("  {}: {{\n", json::quote(name)));
        if let Json::Obj(seeds) = seeds {
            for (si, (seed, entry)) in seeds.iter().enumerate() {
                let comma = if si + 1 < seeds.len() { "," } else { "" };
                out.push_str(&format!("    {}: {}{comma}\n", json::quote(seed), entry.render()));
            }
        }
        out.push_str(if wi + 1 < doc.len() { "  },\n" } else { "  }\n" });
    }
    out.push_str("}\n");
    Ok(out)
}

/// Records `summary` as the expected outcome of `workload` at `seed`
/// in the source tree's `expected.json`.
///
/// # Errors
///
/// Filesystem errors, or a malformed existing file.
pub fn bless(workload: Workload, seed: u64, summary: &SimSummary) -> Result<PathBuf, String> {
    let path = path();
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let updated = with_entry(&text, workload, seed, summary)?;
    std::fs::write(&path, updated).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_checked_in_file_parses_and_covers_every_workload_at_both_seeds() {
        for w in Workload::ALL {
            for seed in [42, 7] {
                assert!(
                    lookup(w, seed).unwrap().is_some(),
                    "{} seed {seed} not recorded",
                    w.name()
                );
            }
        }
    }

    #[test]
    fn entries_round_trip_through_the_file_format() {
        let s = SimSummary {
            fingerprint: u64::MAX - 5,
            cycles: 123_456_789,
            instructions: 42,
            extra_bytes: 4096,
            base_bytes: 1 << 40,
        };
        let text = with_entry("{}", Workload::Spmv, 9, &s).unwrap();
        let text = with_entry(&text, Workload::ForkOow, 9, &s).unwrap();
        assert_eq!(lookup_in(&text, Workload::Spmv, 9).unwrap(), Some(s));
        assert_eq!(lookup_in(&text, Workload::ForkOow, 9).unwrap(), Some(s));
        assert_eq!(lookup_in(&text, Workload::Spmv, 10).unwrap(), None);
        assert!(lookup_in("{\"spmv\": {\"9\": {}}}", Workload::Spmv, 9).is_err());
    }
}
