//! Multi-stream prefetcher (Table 2: "Stream prefetcher, monitor L2
//! misses and prefetch into L3, 16 entries, degree = 4, distance = 24" —
//! modeled after the feedback-directed/IBM POWER6 stream engines the
//! paper cites [33, 48]).
//!
//! A stream entry is trained by two ascending (or descending) misses in
//! the same 4 KB-aligned region; once trained, each further demand miss
//! that matches the stream issues `degree` prefetches, never running more
//! than `distance` lines ahead of the demand stream.

use crate::config::PrefetcherConfig;
use crate::lines::Prefetches;
use po_types::{Counter, PhysAddr};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum StreamState {
    /// Saw one miss; waiting for a second to learn the direction.
    Allocated,
    /// Trained; actively prefetching.
    Active,
}

#[derive(Clone, Copy, Debug)]
struct Stream {
    /// Line number (addr >> 6) of the most recent matching demand miss.
    last_demand: u64,
    /// Line number one past the last prefetch issued.
    next_prefetch: u64,
    /// +1 or -1.
    direction: i64,
    state: StreamState,
    /// LRU stamp for entry replacement.
    last_used: u64,
}

po_types::stats! {
    /// Prefetcher statistics.
    #[derive(Clone, Debug, Default)]
    pub struct PrefetchStats: "prefetch" {
        /// Demand misses observed (training inputs).
        pub trainings: Counter,
        /// Prefetch requests issued.
        pub issued: Counter,
        /// Streams allocated.
        pub allocations: Counter,
    }
}

/// The stream prefetcher.
///
/// # Example
///
/// ```
/// use po_cache::{Prefetches, PrefetcherConfig, StreamPrefetcher};
/// use po_types::PhysAddr;
///
/// let mut p = StreamPrefetcher::new(PrefetcherConfig::table2());
/// let mut issued = Prefetches::new();
/// p.train(PhysAddr::new(0x0), &mut issued);  // first miss: allocate
/// assert!(issued.is_empty());
/// p.train(PhysAddr::new(0x40), &mut issued); // second: trained
/// assert!(!issued.is_empty());
/// ```
#[derive(Clone, Debug)]
pub struct StreamPrefetcher {
    config: PrefetcherConfig,
    streams: Vec<Stream>,
    tick: u64,
    stats: PrefetchStats,
}

impl StreamPrefetcher {
    /// Creates an idle prefetcher.
    ///
    /// # Panics
    ///
    /// Panics if `config.degree` exceeds [`PrefetcherConfig::MAX_DEGREE`],
    /// the bound of the inline [`Prefetches`] list.
    pub fn new(config: PrefetcherConfig) -> Self {
        assert!(
            config.degree <= PrefetcherConfig::MAX_DEGREE,
            "prefetch degree {} exceeds the supported maximum of {}",
            config.degree,
            PrefetcherConfig::MAX_DEGREE
        );
        Self {
            streams: Vec::with_capacity(config.streams),
            config,
            tick: 0,
            stats: PrefetchStats::default(),
        }
    }

    /// Returns the configuration.
    pub fn config(&self) -> &PrefetcherConfig {
        &self.config
    }

    /// Returns accumulated statistics.
    pub fn stats(&self) -> &PrefetchStats {
        &self.stats
    }

    /// Observes a demand miss (the paper trains on L2 misses) and
    /// appends the line addresses to prefetch (into L3) to `out`.
    pub fn train(&mut self, addr: PhysAddr, out: &mut Prefetches) {
        if !self.config.enabled {
            return;
        }
        self.stats.trainings.inc();
        self.tick += 1;
        let line = addr.line_base().raw() >> po_types::geometry::LINE_SHIFT;

        // Match an existing stream: the miss must land within `distance`
        // lines of the stream head, on the stream's side.
        let window = self.config.distance as u64;
        if let Some(idx) = self.streams.iter().position(|s| {
            let delta = line as i64 - s.last_demand as i64;
            match s.state {
                StreamState::Allocated => delta.unsigned_abs() <= window && delta != 0,
                StreamState::Active => delta * s.direction > 0 && delta.unsigned_abs() <= window,
            }
        }) {
            let degree = self.config.degree as u64;
            let s = &mut self.streams[idx];
            s.last_used = self.tick;
            match s.state {
                StreamState::Allocated => {
                    s.direction = if line > s.last_demand { 1 } else { -1 };
                    s.state = StreamState::Active;
                    s.last_demand = line;
                    s.next_prefetch = (line as i64 + s.direction) as u64;
                }
                StreamState::Active => {
                    s.last_demand = line;
                }
            }
            // Issue up to `degree` prefetches, staying within `distance`
            // lines of the demand head.
            let before = out.len();
            let limit = s.last_demand as i64 + s.direction * window as i64;
            for _ in 0..degree {
                let next = s.next_prefetch as i64;
                let within = if s.direction > 0 { next <= limit } else { next >= limit };
                if !within || next < 0 {
                    break;
                }
                out.push(PhysAddr::new((next as u64) << po_types::geometry::LINE_SHIFT));
                s.next_prefetch = (next + s.direction) as u64;
            }
            self.stats.issued.add((out.len() - before) as u64);
            return;
        }

        // No match: allocate (LRU-replace when full).
        self.stats.allocations.inc();
        let entry = Stream {
            last_demand: line,
            next_prefetch: line + 1,
            direction: 1,
            state: StreamState::Allocated,
            last_used: self.tick,
        };
        if self.streams.len() < self.config.streams {
            self.streams.push(entry);
        } else if let Some(victim) = self.streams.iter_mut().min_by_key(|s| s.last_used) {
            *victim = entry;
        }
    }

    /// Number of streams currently tracked.
    pub fn active_streams(&self) -> usize {
        self.streams.len()
    }

    /// Serializes stream entries (in table order), the LRU tick and
    /// stats.
    pub fn encode_snapshot(&self, w: &mut po_types::SnapshotWriter) {
        w.put_u64(self.tick);
        w.put_len(self.streams.len());
        for s in &self.streams {
            w.put_u64(s.last_demand);
            w.put_u64(s.next_prefetch);
            w.put_i64(s.direction);
            w.put_bool(matches!(s.state, StreamState::Active));
            w.put_u64(s.last_used);
        }
        self.stats.encode_snapshot(w);
    }

    /// Rebuilds a prefetcher with `config` from [`encode_snapshot`]
    /// bytes.
    ///
    /// # Errors
    ///
    /// Returns [`po_types::PoError::Corrupted`] on truncation or an
    /// oversized stream table.
    pub fn decode_snapshot(
        config: PrefetcherConfig,
        r: &mut po_types::SnapshotReader,
    ) -> po_types::PoResult<Self> {
        let mut p = Self::new(config);
        p.tick = r.get_u64()?;
        let n = r.get_len()?;
        if n > p.config.streams {
            return Err(po_types::PoError::Corrupted("snapshot stream table exceeds capacity"));
        }
        for _ in 0..n {
            let last_demand = r.get_u64()?;
            let next_prefetch = r.get_u64()?;
            let direction = r.get_i64()?;
            if direction != 1 && direction != -1 {
                return Err(po_types::PoError::Corrupted("snapshot stream direction invalid"));
            }
            let state = if r.get_bool()? { StreamState::Active } else { StreamState::Allocated };
            let last_used = r.get_u64()?;
            p.streams.push(Stream { last_demand, next_prefetch, direction, state, last_used });
        }
        p.stats = PrefetchStats::decode_snapshot(r)?;
        Ok(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pf() -> StreamPrefetcher {
        StreamPrefetcher::new(PrefetcherConfig::table2())
    }

    fn line(n: u64) -> PhysAddr {
        PhysAddr::new(n * 64)
    }

    /// Trains on one miss and returns what it issued.
    fn train(p: &mut StreamPrefetcher, addr: PhysAddr) -> Prefetches {
        let mut out = Prefetches::new();
        p.train(addr, &mut out);
        out
    }

    #[test]
    fn two_ascending_misses_train_a_stream() {
        let mut p = pf();
        assert!(train(&mut p, line(100)).is_empty());
        let issued = train(&mut p, line(101));
        assert_eq!(issued.len(), 4); // degree
        assert_eq!(issued[0], line(102));
        assert_eq!(issued[3], line(105));
    }

    #[test]
    fn descending_stream_is_detected() {
        let mut p = pf();
        train(&mut p, line(200));
        let issued = train(&mut p, line(199));
        assert_eq!(issued[0], line(198));
        assert_eq!(issued[3], line(195));
    }

    #[test]
    fn stream_respects_distance() {
        let mut p = pf();
        train(&mut p, line(0));
        let mut issued_total = 0;
        // Demand stays at line 1; repeated matches may not run >24 ahead.
        issued_total += train(&mut p, line(1)).len();
        for _ in 0..20 {
            issued_total += train(&mut p, line(2)).len();
        }
        // distance=24 from head at line 2 ⇒ max prefetch line 26,
        // starting from 2 ⇒ at most 24 prefetches.
        assert!(issued_total <= 24 + 4, "issued {issued_total}");
    }

    #[test]
    fn disabled_prefetcher_is_silent() {
        let mut p = StreamPrefetcher::new(PrefetcherConfig::disabled());
        assert!(train(&mut p, line(1)).is_empty());
        assert!(train(&mut p, line(2)).is_empty());
        assert_eq!(p.stats().issued.get(), 0);
    }

    #[test]
    fn stream_table_is_bounded_with_lru_replacement() {
        let mut p = pf();
        // 40 unrelated misses, far apart: only 16 streams survive.
        for i in 0..40u64 {
            train(&mut p, line(i * 10_000));
        }
        assert_eq!(p.active_streams(), 16);
    }

    #[test]
    fn far_jump_does_not_match_stream() {
        let mut p = pf();
        train(&mut p, line(100));
        train(&mut p, line(101)); // trained
        let issued = train(&mut p, line(500)); // new region
        assert!(issued.is_empty(), "far miss must allocate, not prefetch");
    }
}
