//! Set-associative cache timing model (tags only — data lives in the flat
//! functional memory).

/// Geometry of one cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    pub sets: u32,
    pub ways: u32,
    pub line_bytes: u32,
}

impl CacheConfig {
    pub fn capacity_bytes(&self) -> u32 {
        self.sets * self.ways * self.line_bytes
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct Way {
    tag: u32,
    valid: bool,
    last_used: u64,
}

/// An LRU set-associative cache.
#[derive(Debug, Clone)]
pub struct Cache {
    cfg: CacheConfig,
    /// `log2(line_bytes)`: line sizes are powers of two, so the per-lane
    /// line split is a shift, never a divide.
    line_shift: u32,
    ways: Vec<Way>,
    pub hits: u64,
    pub misses: u64,
}

impl Cache {
    pub fn new(cfg: CacheConfig) -> Self {
        assert!(cfg.sets.is_power_of_two(), "sets must be a power of two");
        assert!(
            cfg.line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        Cache {
            cfg,
            line_shift: cfg.line_bytes.trailing_zeros(),
            ways: vec![Way::default(); (cfg.sets * cfg.ways) as usize],
            hits: 0,
            misses: 0,
        }
    }

    pub fn config(&self) -> CacheConfig {
        self.cfg
    }

    /// Line address (byte address / line size) of `addr`.
    pub fn line_of(&self, addr: u32) -> u32 {
        addr >> self.line_shift
    }

    /// Access the line containing `addr` at time `now`; returns true on hit.
    /// A miss allocates (LRU victim) — the caller charges the fill latency.
    ///
    /// One walk over the set finds the hit or the victim: the first
    /// invalid way, otherwise the first least-recently-used one.
    pub fn access(&mut self, addr: u32, now: u64) -> bool {
        let line = self.line_of(addr);
        let set = line & (self.cfg.sets - 1);
        let tag = line >> self.cfg.sets.trailing_zeros();
        let base = (set * self.cfg.ways) as usize;
        let set_ways = &mut self.ways[base..base + self.cfg.ways as usize];
        let mut victim = 0;
        // (valid, last_used) orders invalid ways before every valid one;
        // the strict `<` keeps the first of equal keys.
        let mut victim_key = (true, u64::MAX);
        for (i, w) in set_ways.iter_mut().enumerate() {
            let key = if w.valid {
                if w.tag == tag {
                    w.last_used = now;
                    self.hits += 1;
                    return true;
                }
                (true, w.last_used)
            } else {
                (false, 0)
            };
            if i == 0 || key < victim_key {
                victim = i;
                victim_key = key;
            }
        }
        self.misses += 1;
        let victim = &mut set_ways[victim];
        victim.tag = tag;
        victim.valid = true;
        victim.last_used = now;
        false
    }

    /// Set index the line containing `addr` maps to.
    pub fn set_of(&self, addr: u32) -> u32 {
        self.line_of(addr) & (self.cfg.sets - 1)
    }

    /// Adopt `src`'s residency/LRU state for one set (same geometry
    /// assumed). Tag state only — the hit/miss counters are left alone.
    pub fn copy_set_from(&mut self, src: &Cache, set: u32) {
        let b = (set * self.cfg.ways) as usize;
        let e = b + self.cfg.ways as usize;
        self.ways[b..e].copy_from_slice(&src.ways[b..e]);
    }

    /// (hits, misses) — the counter pair the simulator folds into
    /// [`SimStats`](crate::SimStats), mirroring `DramModel::stats`.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Invalidate everything (used between kernel launches).
    pub fn flush(&mut self) {
        for w in &mut self.ways {
            w.valid = false;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Cache {
        Cache::new(CacheConfig {
            sets: 2,
            ways: 2,
            line_bytes: 64,
        })
    }

    #[test]
    fn hit_after_fill() {
        let mut c = small();
        assert!(!c.access(0x1000, 0));
        assert!(c.access(0x1000, 1));
        assert!(c.access(0x103C, 2), "same line");
        assert_eq!(c.hits, 2);
        assert_eq!(c.misses, 1);
    }

    #[test]
    fn lru_evicts_oldest() {
        let mut c = small();
        // Three distinct lines mapping to set 0 (line addr even).
        let a = 0; // line 0, set 0
        let b = 2 * 64 * 2;
        let d = 4 * 64 * 2;
        assert!(!c.access(a, 0));
        assert!(!c.access(b, 1));
        assert!(c.access(a, 2), "a still resident");
        assert!(!c.access(d, 3), "d fills, evicting b (LRU)");
        assert!(!c.access(b, 4), "b was evicted; refilling evicts a (LRU)");
        assert!(c.access(d, 5), "d survived (more recent than a was)");
        assert!(!c.access(a, 6), "a was the LRU victim of step 4");
    }

    /// The two-pass rule the one-pass walk replaced: after a missed hit
    /// scan, the first minimum of (valid, last_used).
    fn two_pass_victim(ways: &[Way]) -> usize {
        ways.iter()
            .enumerate()
            .min_by_key(|(_, w)| if w.valid { (1, w.last_used) } else { (0, 0) })
            .expect("at least one way")
            .0
    }

    #[test]
    fn one_pass_victim_matches_the_two_pass_rule() {
        let mut rng = repro_util::rng::Rng::new(0xcac4e);
        for _ in 0..2000 {
            let mut c = Cache::new(CacheConfig {
                sets: 1,
                ways: 4,
                line_bytes: 64,
            });
            // A mix of invalid ways and tied last_used values.
            for (i, w) in c.ways.iter_mut().enumerate() {
                w.valid = rng.below(3) != 0;
                w.tag = 100 + i as u32;
                w.last_used = rng.below(3);
            }
            let before = c.ways.clone();
            let victim = two_pass_victim(&before);
            assert!(!c.access(0, 99), "tag 0 is resident nowhere");
            for (i, (w, b)) in c.ways.iter().zip(&before).enumerate() {
                let got = (w.tag, w.valid, w.last_used);
                if i == victim {
                    assert_eq!(got, (0, true, 99), "way {i} should be the victim");
                } else {
                    assert_eq!(got, (b.tag, b.valid, b.last_used), "way {i} untouched");
                }
            }
        }
    }

    #[test]
    fn capacity_math() {
        assert_eq!(
            CacheConfig {
                sets: 64,
                ways: 4,
                line_bytes: 64
            }
            .capacity_bytes(),
            16384
        );
    }

    #[test]
    fn flush_clears_residency() {
        let mut c = small();
        c.access(0x40, 0);
        c.flush();
        assert!(!c.access(0x40, 1));
    }
}
