//! Replacement policies: LRU and DRRIP.
//!
//! Table 2 uses LRU for L1/L2 and **DRRIP** (Dynamic Re-Reference Interval
//! Prediction, Jaleel et al., ISCA 2010 — the paper's reference \[27\]) for
//! the last-level cache.
//!
//! DRRIP here is the standard formulation: 2-bit re-reference prediction
//! values (RRPV); SRRIP inserts at RRPV = 2 ("long"), BRRIP inserts at
//! RRPV = 3 ("distant") except with 1/32 probability; 32 leader sets for
//! each flavor feed a 10-bit PSEL set-dueling counter that picks the
//! policy used by follower sets. Hits promote to RRPV = 0.

/// Which replacement policy a cache uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PolicyKind {
    /// Least-recently-used (Table 2: L1, L2).
    Lru,
    /// Dynamic re-reference interval prediction (Table 2: L3).
    Drrip,
}

const RRPV_MAX: u8 = 3; // 2-bit RRPV
const RRPV_LONG: u8 = 2;
const PSEL_BITS: u32 = 10;
const PSEL_MAX: u16 = (1 << PSEL_BITS) - 1;
const DUELING_PERIOD: usize = 32; // one SRRIP + one BRRIP leader per 32 sets
const BRRIP_LOW_PROB_MOD: u32 = 32; // BRRIP inserts "long" 1/32 of the time

/// Per-cache replacement state (per-way ranks plus DRRIP dueling state).
#[derive(Clone, Debug)]
pub struct Replacement {
    kind: PolicyKind,
    sets: usize,
    ways: usize,
    /// LRU: recency rank (0 = MRU). DRRIP: RRPV.
    state: Vec<u8>,
    /// DRRIP set-dueling selector (>= midpoint ⇒ BRRIP wins).
    psel: u16,
    /// Deterministic counter driving BRRIP's occasional long insertion.
    brrip_tick: u32,
}

/// The role a set plays in DRRIP set dueling.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum SetRole {
    SrripLeader,
    BrripLeader,
    Follower,
}

impl Replacement {
    /// Creates replacement state for `sets` x `ways` lines.
    pub fn new(kind: PolicyKind, sets: usize, ways: usize) -> Self {
        let state = match kind {
            // LRU ranks must start as a permutation per set so that ties
            // never arise (0 = MRU .. ways-1 = LRU).
            PolicyKind::Lru => (0..sets * ways).map(|i| (i % ways) as u8).collect(),
            PolicyKind::Drrip => vec![RRPV_MAX; sets * ways],
        };
        Self { kind, sets, ways, state, psel: PSEL_MAX / 2, brrip_tick: 0 }
    }

    #[inline]
    fn idx(&self, set: usize, way: usize) -> usize {
        set * self.ways + way
    }

    fn role(&self, set: usize) -> SetRole {
        match set % DUELING_PERIOD {
            0 => SetRole::SrripLeader,
            1 => SetRole::BrripLeader,
            _ => SetRole::Follower,
        }
    }

    /// Records a hit on `(set, way)`.
    pub fn on_hit(&mut self, set: usize, way: usize) {
        match self.kind {
            PolicyKind::Lru => self.touch_lru(set, way),
            PolicyKind::Drrip => {
                let i = self.idx(set, way);
                self.state[i] = 0;
            }
        }
    }

    fn touch_lru(&mut self, set: usize, way: usize) {
        let base = self.idx(set, 0);
        let ranks = &mut self.state[base..base + self.ways];
        let old = ranks[way];
        for rank in ranks.iter_mut() {
            if *rank < old {
                *rank += 1;
            }
        }
        ranks[way] = 0;
    }

    /// Records a fill into `(set, way)`.
    pub fn on_fill(&mut self, set: usize, way: usize) {
        match self.kind {
            PolicyKind::Lru => self.touch_lru(set, way),
            PolicyKind::Drrip => {
                // A miss in a leader set trains PSEL toward the other
                // policy (misses are "votes against" the leader's policy).
                match self.role(set) {
                    SetRole::SrripLeader => self.psel = (self.psel + 1).min(PSEL_MAX),
                    SetRole::BrripLeader => self.psel = self.psel.saturating_sub(1),
                    SetRole::Follower => {}
                }
                let use_brrip = match self.role(set) {
                    SetRole::SrripLeader => false,
                    SetRole::BrripLeader => true,
                    SetRole::Follower => self.psel > PSEL_MAX / 2,
                };
                let i = self.idx(set, way);
                self.state[i] = if use_brrip {
                    self.brrip_tick = self.brrip_tick.wrapping_add(1);
                    if self.brrip_tick.is_multiple_of(BRRIP_LOW_PROB_MOD) {
                        RRPV_LONG
                    } else {
                        RRPV_MAX
                    }
                } else {
                    RRPV_LONG
                };
            }
        }
    }

    /// Chooses the victim way in a full `set` (the cache fills free ways
    /// itself, lowest first, before asking).
    pub fn victim(&mut self, set: usize) -> usize {
        let base = self.idx(set, 0);
        let ranks = &mut self.state[base..base + self.ways];
        match self.kind {
            PolicyKind::Lru => {
                // Evict the way with the highest recency rank (ties go
                // to the highest way, matching max_by_key's last-max).
                let mut victim = 0;
                for (w, &rank) in ranks.iter().enumerate().skip(1) {
                    if rank >= ranks[victim] {
                        victim = w;
                    }
                }
                victim
            }
            PolicyKind::Drrip => {
                // The lowest way with the highest RRPV; if that is below
                // RRPV_MAX, age every way by the gap first (the same
                // outcome as aging one step at a time until a way
                // reaches RRPV_MAX).
                let mut victim = 0;
                for (w, &rrpv) in ranks.iter().enumerate().skip(1) {
                    if rrpv > ranks[victim] {
                        victim = w;
                    }
                }
                let gap = RRPV_MAX - ranks[victim];
                if gap > 0 {
                    ranks.iter_mut().for_each(|r| *r += gap);
                }
                victim
            }
        }
    }

    /// Number of sets this state covers.
    pub fn sets(&self) -> usize {
        self.sets
    }

    /// Serializes the mutable replacement state (geometry and policy come
    /// from the cache config and are not re-encoded).
    pub fn encode_snapshot(&self, w: &mut po_types::SnapshotWriter) {
        for s in &self.state {
            w.put_u8(*s);
        }
        w.put_u16(self.psel);
        w.put_u32(self.brrip_tick);
    }

    /// Rebuilds replacement state for a `kind`/`sets`/`ways` cache from
    /// [`encode_snapshot`] bytes.
    ///
    /// # Errors
    ///
    /// Returns [`po_types::PoError::Corrupted`] on truncation or
    /// out-of-range values.
    pub fn decode_snapshot(
        kind: PolicyKind,
        sets: usize,
        ways: usize,
        r: &mut po_types::SnapshotReader,
    ) -> po_types::PoResult<Self> {
        let mut out = Self::new(kind, sets, ways);
        let bound = match kind {
            PolicyKind::Lru => ways as u8,
            PolicyKind::Drrip => RRPV_MAX + 1,
        };
        for s in out.state.iter_mut() {
            let v = r.get_u8()?;
            if v >= bound {
                return Err(po_types::PoError::Corrupted("snapshot replacement rank too large"));
            }
            *s = v;
        }
        out.psel = r.get_u16()?;
        if out.psel > PSEL_MAX {
            return Err(po_types::PoError::Corrupted("snapshot PSEL exceeds 10 bits"));
        }
        out.brrip_tick = r.get_u32()?;
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut r = Replacement::new(PolicyKind::Lru, 1, 4);
        for w in 0..4 {
            r.on_fill(0, w);
        }
        // Touch 0..3 in order: way 0 is now LRU.
        for w in 0..4 {
            r.on_hit(0, w);
        }
        assert_eq!(r.victim(0), 0);
        r.on_hit(0, 0); // promote 0; way 1 becomes LRU
        assert_eq!(r.victim(0), 1);
    }

    #[test]
    fn drrip_hit_promotes_to_zero_and_survives() {
        let mut r = Replacement::new(PolicyKind::Drrip, DUELING_PERIOD, 4);
        let set = 5; // follower
        for w in 0..4 {
            r.on_fill(set, w);
        }
        r.on_hit(set, 2);
        // Way 2 has RRPV 0; the victim must be a different way.
        assert_ne!(r.victim(set), 2);
    }

    #[test]
    fn drrip_scan_resistance() {
        // A long streaming scan through a follower set should not force
        // out a frequently re-referenced line: insertions never enter at
        // RRPV 0, so the hot line (RRPV 0) survives each victim search.
        let mut r = Replacement::new(PolicyKind::Drrip, DUELING_PERIOD, 4);
        let set = 7;
        for w in 0..4 {
            r.on_fill(set, w);
        }
        r.on_hit(set, 0); // hot line in way 0
        for _ in 0..64 {
            let v = r.victim(set);
            assert_ne!(v, 0, "scan must not evict the re-referenced line");
            r.on_fill(set, v);
            r.on_hit(set, 0); // keep way 0 hot
        }
    }

    #[test]
    fn dueling_moves_psel() {
        let mut r = Replacement::new(PolicyKind::Drrip, DUELING_PERIOD * 2, 2);
        let before = r.psel;
        // Misses in the SRRIP leader set push PSEL up.
        for _ in 0..16 {
            r.on_fill(0, 0);
        }
        assert!(r.psel > before);
        // Misses in the BRRIP leader set push it back down.
        for _ in 0..32 {
            r.on_fill(1, 0);
        }
        assert!(r.psel < before);
    }
}
