//! Performance counters, mirroring the counters SimX reports.

/// Why a core failed to issue in a given cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StallKind {
    /// Next instruction's registers busy (RAW / WAW hazard).
    Scoreboard,
    /// LSU had no free MSHR for a memory instruction.
    LsuFull,
    /// All runnable warps waiting at a barrier.
    Barrier,
    /// No active warp at all (tail of execution).
    Idle,
}

impl StallKind {
    /// Every kind, in the fixed order profilers index by.
    pub const ALL: [StallKind; 4] = [
        StallKind::Scoreboard,
        StallKind::LsuFull,
        StallKind::Barrier,
        StallKind::Idle,
    ];

    /// Position in [`StallKind::ALL`] (stable, used as an array index).
    pub fn index(self) -> usize {
        match self {
            StallKind::Scoreboard => 0,
            StallKind::LsuFull => 1,
            StallKind::Barrier => 2,
            StallKind::Idle => 3,
        }
    }

    /// Human-readable label for reports and trace tracks.
    pub fn label(self) -> &'static str {
        match self {
            StallKind::Scoreboard => "scoreboard",
            StallKind::LsuFull => "lsu",
            StallKind::Barrier => "barrier",
            StallKind::Idle => "idle",
        }
    }
}

/// Aggregated counters for one simulation. `Eq` so differential tests can
/// assert the event-driven scheduler reproduces the dense loop bit-for-bit.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SimStats {
    pub cycles: u64,
    pub instructions: u64,
    pub stall_scoreboard: u64,
    pub stall_lsu: u64,
    pub stall_barrier: u64,
    pub stall_idle: u64,
    pub loads: u64,
    pub stores: u64,
    pub dcache_hits: u64,
    pub dcache_misses: u64,
    pub l2_hits: u64,
    pub l2_misses: u64,
    pub dram_accesses: u64,
    pub dram_row_hits: u64,
}

/// Per-core counters merged into [`SimStats`] at the end of a run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CoreStats {
    pub instructions: u64,
    pub stall_scoreboard: u64,
    pub stall_lsu: u64,
    pub stall_barrier: u64,
    pub stall_idle: u64,
    pub loads: u64,
    pub stores: u64,
    pub dcache_hits: u64,
    pub dcache_misses: u64,
}

impl CoreStats {
    /// Charge `cycles` stall cycles of the given kind — the single place
    /// both the dense tick and the fast-forward bulk accounting go through,
    /// so the two loops cannot classify differently.
    pub(crate) fn stall(&mut self, kind: StallKind, cycles: u64) {
        *self.stall_counter(kind) += cycles;
    }

    /// Take back `cycles` stall cycles charged earlier: the budget trip's
    /// correction of a stall span charged past the epoch boundary.
    pub(crate) fn unstall(&mut self, kind: StallKind, cycles: u64) {
        *self.stall_counter(kind) -= cycles;
    }

    fn stall_counter(&mut self, kind: StallKind) -> &mut u64 {
        match kind {
            StallKind::Scoreboard => &mut self.stall_scoreboard,
            StallKind::LsuFull => &mut self.stall_lsu,
            StallKind::Barrier => &mut self.stall_barrier,
            StallKind::Idle => &mut self.stall_idle,
        }
    }
}

impl SimStats {
    pub(crate) fn merge_core(&mut self, c: &CoreStats) {
        self.instructions += c.instructions;
        self.stall_scoreboard += c.stall_scoreboard;
        self.stall_lsu += c.stall_lsu;
        self.stall_barrier += c.stall_barrier;
        self.stall_idle += c.stall_idle;
        self.loads += c.loads;
        self.stores += c.stores;
        self.dcache_hits += c.dcache_hits;
        self.dcache_misses += c.dcache_misses;
    }

    /// Stalled cycles attributed to `kind`.
    pub fn stall_of(&self, kind: StallKind) -> u64 {
        match kind {
            StallKind::Scoreboard => self.stall_scoreboard,
            StallKind::LsuFull => self.stall_lsu,
            StallKind::Barrier => self.stall_barrier,
            StallKind::Idle => self.stall_idle,
        }
    }

    /// Total stalled cycles across every kind.
    pub fn stall_total(&self) -> u64 {
        StallKind::ALL.iter().map(|&k| self.stall_of(k)).sum()
    }

    /// Instructions per cycle across the whole machine.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }

    /// D-cache hit rate in [0, 1].
    pub fn dcache_hit_rate(&self) -> f64 {
        let total = self.dcache_hits + self.dcache_misses;
        if total == 0 {
            0.0
        } else {
            self.dcache_hits as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_and_derived_metrics() {
        let mut s = SimStats {
            cycles: 100,
            ..Default::default()
        };
        s.merge_core(&CoreStats {
            instructions: 50,
            dcache_hits: 30,
            dcache_misses: 10,
            ..Default::default()
        });
        s.merge_core(&CoreStats {
            instructions: 25,
            ..Default::default()
        });
        assert_eq!(s.instructions, 75);
        assert!((s.ipc() - 0.75).abs() < 1e-9);
        assert!((s.dcache_hit_rate() - 0.75).abs() < 1e-9);
    }

    #[test]
    fn zero_cycle_metrics_are_zero() {
        let s = SimStats::default();
        assert_eq!(s.ipc(), 0.0);
        assert_eq!(s.dcache_hit_rate(), 0.0);
    }
}
