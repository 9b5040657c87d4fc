//! The shard pool: deterministic fan-out of workload jobs over OS
//! threads (DESIGN.md §12).
//!
//! Every bench driver funnels its machine-driving work through one
//! [`ShardPool`]. The pool is deliberately tiny — `std::thread::scope`,
//! an atomic cursor, no work stealing, no rayon — because the
//! determinism argument has to fit in a paragraph:
//!
//! * items are scheduled **longest-job-first** (by a caller-supplied
//!   weight) so one straggler never starts last;
//! * each worker claims the next unclaimed item via an atomic cursor —
//!   which worker runs which item is racy and irrelevant;
//! * results land in a slot vector indexed by **submission order**, so
//!   the returned `Vec` is identical for `--shards 1` and `--shards 8`.
//!
//! Simulated cycles are unaffected by sharding (every job runs on its
//! own [`po_sim::Machine`]); only wall-clock changes. The perf ratchet
//! therefore always measures at one shard.

use crate::{usage_error, Args};
use std::cmp::Reverse;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Environment variable consulted when `--shards` is absent.
pub const SHARDS_ENV: &str = "PO_SHARDS";

/// The shard count a `PO_SHARDS` value asks for: `None` when the
/// variable is unset, `Err` naming it when it does not parse.
fn shards_from_env(value: Option<&str>) -> Result<Option<usize>, String> {
    value.map(|v| v.parse().map_err(|_| format!("{SHARDS_ENV}: cannot parse {v:?}"))).transpose()
}

/// A fixed-width pool of worker threads for bench jobs.
#[derive(Clone, Debug)]
pub struct ShardPool {
    shards: usize,
}

impl ShardPool {
    /// A pool with exactly `shards` workers (clamped to at least 1).
    pub fn new(shards: usize) -> Self {
        Self { shards: shards.max(1) }
    }

    /// A single-shard pool: every job runs inline on the caller's
    /// thread. The perf ratchet pins itself here so its wall-clock
    /// numbers are comparable across hosts.
    pub fn serial() -> Self {
        Self::new(1)
    }

    /// Shard count from `--shards N`, else the `PO_SHARDS` environment
    /// variable, else [`std::thread::available_parallelism`]. A
    /// `PO_SHARDS` that does not parse ends the process with exit status
    /// 2, like a bad `--shards`.
    pub fn from_args(args: &Args) -> Self {
        let env = std::env::var(SHARDS_ENV).ok();
        let fallback = shards_from_env(env.as_deref())
            .unwrap_or_else(|msg| usage_error(&msg))
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()));
        Self::new(args.get("shards", fallback))
    }

    /// Worker count.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Runs `work` over every item, heaviest first, and returns the
    /// results **in submission order** regardless of shard count or
    /// completion order. With one shard (or one item) everything runs
    /// inline in submission order — the serial baseline the determinism
    /// CI job diffs against.
    pub fn run<T, R>(
        &self,
        items: Vec<T>,
        weight: impl Fn(&T) -> u64,
        work: impl Fn(T) -> R + Sync,
    ) -> Vec<R>
    where
        T: Send,
        R: Send,
    {
        let n = items.len();
        if self.shards == 1 || n <= 1 {
            return items.into_iter().map(work).collect();
        }

        // Claim order: heaviest first, submission index as tiebreak so
        // the schedule itself is deterministic.
        let mut order: Vec<usize> = (0..n).collect();
        let weights: Vec<u64> = items.iter().map(&weight).collect();
        order.sort_by_key(|&i| (Reverse(weights[i]), i));

        let slots: Vec<Mutex<Option<T>>> =
            items.into_iter().map(|item| Mutex::new(Some(item))).collect();
        let results: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
        let cursor = AtomicUsize::new(0);

        std::thread::scope(|scope| {
            for _ in 0..self.shards.min(n) {
                scope.spawn(|| loop {
                    let at = cursor.fetch_add(1, Ordering::Relaxed);
                    let Some(&index) = order.get(at) else { break };
                    // The cursor hands each index to exactly one worker,
                    // so both takes see untouched slots; a poisoned lock
                    // is unreachable (no panics while holding it).
                    let item = slots[index]
                        .lock()
                        .unwrap_or_else(|e| e.into_inner())
                        .take()
                        .expect("each slot is claimed exactly once");
                    let result = work(item);
                    *results[index].lock().unwrap_or_else(|e| e.into_inner()) = Some(result);
                });
            }
        });

        results
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .unwrap_or_else(|e| e.into_inner())
                    .expect("every slot is filled when the scope joins")
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::sync::Condvar;
    use std::time::{Duration, Instant};

    #[test]
    fn results_keep_submission_order_at_any_shard_count() {
        let items: Vec<u64> = (0..37).collect();
        let expected: Vec<u64> = items.iter().map(|x| x * x).collect();
        for shards in [1, 2, 4, 8] {
            let got = ShardPool::new(shards).run(items.clone(), |&x| x, |x| x * x);
            assert_eq!(got, expected, "shards={shards}");
        }
    }

    #[test]
    fn every_item_runs_exactly_once() {
        let ran = AtomicU64::new(0);
        let results = ShardPool::new(4).run(
            (0..100u64).collect(),
            |_| 1,
            |x| {
                ran.fetch_add(1, Ordering::Relaxed);
                x
            },
        );
        assert_eq!(ran.load(Ordering::Relaxed), 100);
        assert_eq!(results.len(), 100);
    }

    #[test]
    fn shards_run_concurrently() {
        // Each item waits until all four are in flight. A pool that ran
        // them one at a time would leave the first waiting until the
        // shared deadline, so the test fails instead of hanging.
        let in_flight = (Mutex::new(0usize), Condvar::new());
        let deadline = Instant::now() + Duration::from_secs(10);
        let all_met = ShardPool::new(4).run(
            vec![(); 4],
            |_| 1,
            |()| {
                let (count, cv) = &in_flight;
                let mut n = count.lock().unwrap();
                *n += 1;
                cv.notify_all();
                while *n < 4 {
                    let left = deadline.saturating_duration_since(Instant::now());
                    if left.is_zero() {
                        return false;
                    }
                    n = cv.wait_timeout(n, left).unwrap().0;
                }
                true
            },
        );
        assert_eq!(all_met, [true; 4], "four shards must run four items at once");
    }

    #[test]
    fn shards_env_must_parse_when_set() {
        assert_eq!(shards_from_env(None), Ok(None));
        assert_eq!(shards_from_env(Some("8")), Ok(Some(8)));
        assert_eq!(shards_from_env(Some("abc")), Err("PO_SHARDS: cannot parse \"abc\"".into()));
        assert_eq!(shards_from_env(Some("")), Err("PO_SHARDS: cannot parse \"\"".into()));
    }

    #[test]
    fn zero_shards_clamps_to_one_and_empty_input_is_fine() {
        let pool = ShardPool::new(0);
        assert_eq!(pool.shards(), 1);
        let empty: Vec<u64> = ShardPool::new(4).run(Vec::new(), |&x| x, |x: u64| x);
        assert!(empty.is_empty());
    }

    #[test]
    fn more_shards_than_items_still_covers_everything() {
        let got = ShardPool::new(16).run(vec![10u64, 20, 30], |&x| x, |x| x + 1);
        assert_eq!(got, vec![11, 21, 31]);
    }
}
