//! Set-associative cache model (LRU, write-back, write-allocate).
//!
//! The hierarchy mirrors the paper's Table 3: split 16 KB 4-way private L1s
//! (we model the D-side the traces exercise) in front of a shared 8 MB
//! 16-way L2. The L2 miss stream — classified per region — is exactly the
//! paper's "last level cache misses ... to blocks with ABFT protection and
//! without ABFT protection" (Table 4).

use crate::config::CacheConfig;

/// Result of a cache lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// Line present.
    Hit,
    /// Line absent; optionally a dirty victim (by line address) was evicted.
    Miss {
        /// Dirty line address pushed out, if any.
        writeback: Option<u64>,
    },
}

/// Marks a way that holds no line.
const INVALID: u64 = u64::MAX;

/// One set-associative write-back cache.
#[derive(Debug, Clone)]
pub struct Cache {
    cfg: CacheConfig,
    set_mask: usize,
    line_shift: u32,
    /// `entries[set * ways..][..ways]` is one set, most recently used
    /// first: `line << 1 | dirty`, or [`INVALID`]. Position is the LRU
    /// state, so a lookup touches one contiguous run of words. Ways are
    /// only ever invalid from construction, and a fill enters at the
    /// front and drops the tail, so the invalid ways are always the last
    /// ones: "first invalid way, else LRU" is simply "the tail".
    entries: Vec<u64>,
    /// Statistics.
    pub hits: u64,
    /// Statistics.
    pub misses: u64,
}

impl Cache {
    /// Build a cache from its geometry.
    pub fn new(cfg: CacheConfig) -> Self {
        let sets = cfg.sets();
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        // A line address shares its word with the dirty bit and must
        // stay clear of `INVALID`: 62 bits, true of any address once a
        // line is four bytes.
        assert!(
            cfg.line_bytes.is_power_of_two() && cfg.line_bytes >= 4,
            "line size must be a power of two of at least 4 bytes"
        );
        Cache {
            cfg,
            set_mask: sets - 1,
            line_shift: cfg.line_bytes.trailing_zeros(),
            entries: vec![INVALID; sets * cfg.ways],
            hits: 0,
            misses: 0,
        }
    }

    /// Geometry.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Access `addr`; on miss the line is filled (write-allocate) and a
    /// dirty victim, if any, is reported for write-back.
    #[inline(always)]
    pub fn access(&mut self, addr: u64, write: bool) -> CacheOutcome {
        let line = addr >> self.line_shift;
        let set = line as usize & self.set_mask;
        // The probe is one body instantiated per set length, chosen from
        // the geometry: Table 3's 4-way L1 and 16-way L2 get a set whose
        // length the compiler knows (a shift for the base, the swap chain
        // unrolled), any other associativity the slice.
        let displaced = match self.cfg.ways {
            4 => probe(&mut self.entries.as_chunks_mut::<4>().0[set], line, write),
            16 => probe(&mut self.entries.as_chunks_mut::<16>().0[set], line, write),
            ways => probe(&mut self.entries[set * ways..][..ways], line, write),
        };
        let Some(displaced) = displaced else {
            self.hits += 1;
            return CacheOutcome::Hit;
        };
        self.misses += 1;
        let dirty_victim = displaced != INVALID && displaced & 1 == 1;
        CacheOutcome::Miss { writeback: dirty_victim.then(|| displaced >> 1 << self.line_shift) }
    }

    /// Hit rate so far.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// One pass from the MRU end is the hit probe, the LRU update and the
/// victim choice: the line enters at the front and every entry passed
/// moves down a way, until the line's old entry is met (a hit: the shift
/// stops there, the dirty bit is kept — `None`) or the tail falls off (a
/// miss: the tail was the LRU way, or an invalid one — `Some(tail)`).
#[inline(always)]
fn probe<S: AsMut<[u64]> + ?Sized>(set: &mut S, line: u64, write: bool) -> Option<u64> {
    let set = set.as_mut();
    let fill = line << 1 | write as u64;
    let mut displaced = fill;
    for way in 0..set.len() {
        displaced = std::mem::replace(&mut set[way], displaced);
        if displaced >> 1 == line {
            set[0] = fill | displaced;
            return None;
        }
    }
    Some(displaced)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 4 sets x 2 ways x 64B = 512B.
        Cache::new(CacheConfig { capacity: 512, ways: 2, line_bytes: 64, latency_cycles: 1 })
    }

    #[test]
    fn first_access_misses_then_hits() {
        let mut c = tiny();
        assert!(matches!(c.access(0x1000, false), CacheOutcome::Miss { writeback: None }));
        assert_eq!(c.access(0x1000, false), CacheOutcome::Hit);
        assert_eq!(c.access(0x103F, false), CacheOutcome::Hit, "same line");
        assert!(matches!(c.access(0x1040, false), CacheOutcome::Miss { .. }), "next line");
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = tiny();
        // Set 0 lines: line addresses with set bits == 0: stride 4*64=256.
        c.access(0x0000, false);
        c.access(0x0100, false);
        c.access(0x0000, false); // refresh line 0
                                 // Fill third line in set 0: victim must be 0x0100.
        c.access(0x0200, false);
        assert_eq!(c.access(0x0000, false), CacheOutcome::Hit);
        assert!(matches!(c.access(0x0100, false), CacheOutcome::Miss { .. }));
    }

    #[test]
    fn dirty_eviction_reports_writeback() {
        let mut c = tiny();
        c.access(0x0000, true); // dirty
        c.access(0x0100, false);
        let out = c.access(0x0200, false); // evicts 0x0000
        assert_eq!(out, CacheOutcome::Miss { writeback: Some(0x0000) });
    }

    #[test]
    fn clean_eviction_has_no_writeback() {
        let mut c = tiny();
        c.access(0x0000, false);
        c.access(0x0100, false);
        assert_eq!(c.access(0x0200, false), CacheOutcome::Miss { writeback: None });
    }

    #[test]
    fn write_hit_marks_dirty() {
        let mut c = tiny();
        c.access(0x0000, false);
        c.access(0x0000, true); // hit, now dirty
        c.access(0x0100, false);
        let out = c.access(0x0200, false);
        assert_eq!(out, CacheOutcome::Miss { writeback: Some(0x0000) });
    }

    #[test]
    fn hit_rate_tracks() {
        let mut c = tiny();
        c.access(0, false);
        c.access(0, false);
        c.access(0, false);
        c.access(64, false);
        assert!((c.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn working_set_larger_than_capacity_thrashes() {
        let mut c = tiny();
        // 3 passes over 1 KB (16 lines) in a 512B cache with stride
        // mapping all lines across 4 sets x 2 ways: pure capacity misses.
        for _ in 0..3 {
            for i in 0..16u64 {
                c.access(i * 64, false);
            }
        }
        assert_eq!(c.hits, 0);
        assert_eq!(c.misses, 48);
    }
}
