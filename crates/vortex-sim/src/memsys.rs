//! Epoch-quantized shared memory system: the coupling point between cores.
//!
//! Cores interact only through the shared L2 / DRAM timing models and
//! functional memory. To let cores simulate concurrently *and* bit-identically
//! to the dense reference loop, the shared timing state is quantized into fixed
//! cycle epochs (`SimConfig::epoch_cycles`): within an epoch every core runs
//! against its own [`MemView`] — a private clone of the L2/DRAM state frozen
//! at the epoch boundary — and logs each access it makes. At the boundary the
//! logs are replayed into the master models in canonical core order (the
//! recomputed outcomes are discarded; the outcomes each core *observed*
//! stand), and the views are re-cloned from the refreshed master.
//!
//! Crucially, **both run loops share these semantics**: the dense reference
//! loop calls [`MemSystem::advance_to`] as the clock passes each boundary,
//! so it sees exactly the epoch-frozen timing the epoch loop sees. That
//! makes "epoch loop ≡ dense loop" a theorem rather than a schedule
//! accident: within an epoch a core's evolution
//! depends only on its own state and its frozen view, so the worker
//! interleaving cannot be observed.
//!
//! With a single core there is nothing to decouple: the view *is* the
//! authoritative state, commits are skipped entirely, and the timing is
//! bit-identical to the pre-epoch simulator (the view starts as a clone of
//! the master and no other core ever perturbs it).

use crate::cache::{Cache, CacheConfig};
use crate::dram::{DramConfig, DramModel};
use crate::mem::{DeviceMem, SimMemory};
use crate::SimError;
use rustc_hash::FxHashMap;

/// One logged shared-memory-system access, replayed into the master models
/// at the epoch boundary.
#[derive(Debug, Clone, Copy)]
enum Access {
    L2 { addr: u32, at: u64 },
    Dram { addr: u32, bytes: u32, at: u64 },
}

/// One core's private window onto the shared L2/DRAM: a clone of the master
/// state at the last epoch boundary, plus the access log to replay and the
/// counters for what this core actually observed (which is what the stats
/// and trace events report — the replay only advances master *state*).
#[derive(Debug)]
pub struct MemView {
    l2: Cache,
    dram: DramModel,
    log: Vec<Access>,
    /// False in the single-core machine: the view is authoritative and
    /// nothing is ever replayed.
    log_enabled: bool,
    pub l2_hits: u64,
    pub l2_misses: u64,
    pub dram_accesses: u64,
    pub dram_row_hits: u64,
}

impl MemView {
    /// L2 lookup as seen by this core, counted and logged.
    pub fn l2_access(&mut self, addr: u32, now: u64) -> bool {
        if self.log_enabled {
            self.log.push(Access::L2 { addr, at: now });
        }
        let hit = self.l2.access(addr, now);
        if hit {
            self.l2_hits += 1;
        } else {
            self.l2_misses += 1;
        }
        hit
    }

    /// DRAM transaction as seen by this core, counted and logged.
    pub fn dram_access(&mut self, addr: u32, bytes: u32, now: u64) -> (u64, bool) {
        if self.log_enabled {
            self.log.push(Access::Dram {
                addr,
                bytes,
                at: now,
            });
        }
        let (done, row_hit) = self.dram.access_info(addr, bytes, now);
        self.dram_accesses += 1;
        if row_hit {
            self.dram_row_hits += 1;
        }
        (done, row_hit)
    }
}

/// The master L2/DRAM models plus one [`MemView`] per core.
pub struct MemSystem {
    master_l2: Cache,
    master_dram: DramModel,
    views: Vec<MemView>,
    /// Epoch length in cycles; boundaries sit at multiples of this.
    epoch_cycles: u64,
    /// The boundary up to which all logged accesses have been merged.
    committed: u64,
    /// Commit scratch: L2 sets touched this epoch (`touched_sets` is the
    /// membership bitmap, `set_list` the dense list to iterate and clear).
    /// A view can differ from the master only where its own accesses
    /// landed, so refreshing the touched sets instead of cloning the whole
    /// cache makes commit cost proportional to the epoch's traffic, not
    /// the cache size — which is what lets the epochs stay short.
    touched_sets: Vec<bool>,
    set_list: Vec<u32>,
    /// Commit scratch: DRAM banks touched this epoch, same scheme.
    touched_banks: Vec<bool>,
    bank_list: Vec<u32>,
}

impl MemSystem {
    pub fn new(l2: CacheConfig, dram: DramConfig, cores: u32, epoch_cycles: u64) -> Self {
        let master_l2 = Cache::new(l2);
        let master_dram = DramModel::new(dram);
        let views = (0..cores)
            .map(|_| MemView {
                l2: master_l2.clone(),
                dram: master_dram.clone(),
                log: Vec::new(),
                log_enabled: cores > 1,
                l2_hits: 0,
                l2_misses: 0,
                dram_accesses: 0,
                dram_row_hits: 0,
            })
            .collect();
        MemSystem {
            master_l2,
            master_dram,
            views,
            epoch_cycles: epoch_cycles.max(1),
            committed: 0,
            touched_sets: vec![false; l2.sets as usize],
            set_list: Vec::new(),
            touched_banks: vec![false; dram.banks as usize],
            bank_list: Vec::new(),
        }
    }

    pub fn epoch_cycles(&self) -> u64 {
        self.epoch_cycles
    }

    /// The first epoch boundary strictly after `cycle`.
    pub fn epoch_end_after(&self, cycle: u64) -> u64 {
        let q = self.epoch_cycles;
        ((cycle / q) + 1).saturating_mul(q)
    }

    pub fn view_mut(&mut self, core: usize) -> &mut MemView {
        &mut self.views[core]
    }

    /// All views at once, for the epoch loop's per-core fan-out.
    pub fn views_mut(&mut self) -> &mut [MemView] {
        &mut self.views
    }

    /// Sum of the per-core observed counters `(l2_hits, l2_misses,
    /// dram_accesses, dram_row_hits)`. These accumulate across launches,
    /// like the shared-device counters they replace; `run_with_sink`
    /// snapshots them per launch.
    pub fn observed(&self) -> (u64, u64, u64, u64) {
        let mut t = (0, 0, 0, 0);
        for v in &self.views {
            t.0 += v.l2_hits;
            t.1 += v.l2_misses;
            t.2 += v.dram_accesses;
            t.3 += v.dram_row_hits;
        }
        t
    }

    /// Commit every epoch boundary at or before `cycle`: replay the views'
    /// logs into the master models in canonical core order and refresh the
    /// views. Must be called before any core ticks at `cycle`; all logged
    /// accesses so far came from ticks before the boundary being committed.
    pub fn advance_to(&mut self, cycle: u64) {
        if self.views.len() <= 1 {
            return;
        }
        let boundary = cycle - (cycle % self.epoch_cycles);
        if boundary > self.committed {
            self.commit();
            self.committed = boundary;
        }
    }

    /// A launch restarts the clock at cycle 0: fold any tail-of-run logs
    /// into the master (device caches persist across launches) and restart
    /// the epoch sequence.
    pub fn begin_run(&mut self) {
        if self.views.len() <= 1 {
            return;
        }
        self.commit();
        self.committed = 0;
    }

    fn commit(&mut self) {
        // Replay in canonical core order, collecting which L2 sets and
        // DRAM banks the epoch touched. A view mutates exactly where its
        // own logged accesses land and every logged access is replayed
        // here, so the touched sets/banks (plus the shared bus cursor) are
        // the only state where any view can differ from the master.
        let mut any_dram = false;
        for v in &mut self.views {
            for a in v.log.drain(..) {
                match a {
                    Access::L2 { addr, at } => {
                        self.master_l2.access(addr, at);
                        let s = self.master_l2.set_of(addr);
                        if !self.touched_sets[s as usize] {
                            self.touched_sets[s as usize] = true;
                            self.set_list.push(s);
                        }
                    }
                    Access::Dram { addr, bytes, at } => {
                        self.master_dram.access_info(addr, bytes, at);
                        let b = self.master_dram.bank_of(addr);
                        if !self.touched_banks[b as usize] {
                            self.touched_banks[b as usize] = true;
                            self.bank_list.push(b);
                        }
                        any_dram = true;
                    }
                }
            }
        }
        // Refresh every view on exactly the touched state.
        for v in &mut self.views {
            for &s in &self.set_list {
                v.l2.copy_set_from(&self.master_l2, s);
            }
            for &b in &self.bank_list {
                v.dram.copy_bank_from(&self.master_dram, b);
            }
            if any_dram {
                v.dram.copy_bus_from(&self.master_dram);
            }
        }
        for s in self.set_list.drain(..) {
            self.touched_sets[s as usize] = false;
        }
        for b in self.bank_list.drain(..) {
            self.touched_banks[b as usize] = false;
        }
    }
}

/// Per-core functional-memory facade for the parallel phase of an epoch:
/// reads go through the core's private write-buffer first, then the shared
/// snapshot; writes are buffered (after full validation, so errors surface
/// at the identical instruction as a direct store) and applied to the
/// master memory in canonical core order at the epoch boundary.
///
/// Cross-core *plain* loads/stores to the same address within a launch are
/// a data race under the SIMT model (barriers are core-local; cross-core
/// synchronization is only defined through atomics, which the epoch loop
/// serializes in cycle order against the master memory), so a racy
/// program may observe different — but still deterministic — values here
/// than under the dense loop. Race-free programs observe identical memory
/// in both loops, at any worker count.
pub struct ShardedMem<'a> {
    pub master: &'a SimMemory,
    pub wbuf: &'a mut WriteBuf,
}

impl DeviceMem for ShardedMem<'_> {
    #[inline]
    fn load(&self, core: u32, addr: u32) -> Result<u32, SimError> {
        if let Some(v) = self.wbuf.get(addr) {
            return Ok(v);
        }
        self.master.load(core, addr)
    }

    #[inline]
    fn store(&mut self, core: u32, addr: u32, v: u32) -> Result<(), SimError> {
        self.master.check_store(core, addr)?;
        self.wbuf.insert(addr, v);
        Ok(())
    }
}

/// An epoch's buffered plain stores (addr → last value), with the address
/// range of everything ever buffered this epoch kept alongside. Kernels
/// overwhelmingly load from streams they never store to (think vecadd's
/// `a`/`b` arrays vs its `c`), so the range check turns the per-lane-load
/// hash probe of the epoch loop into two compares for every address
/// outside the written span. The range is conservative (never shrinks on
/// remove) — a false positive only costs the hash probe it replaced.
#[derive(Debug)]
pub struct WriteBuf {
    map: FxHashMap<u32, u32>,
    /// Lowest / highest buffered address; `lo > hi` ⇔ nothing buffered yet.
    lo: u32,
    hi: u32,
}

impl Default for WriteBuf {
    fn default() -> Self {
        WriteBuf::new()
    }
}

impl WriteBuf {
    pub fn new() -> Self {
        WriteBuf {
            map: FxHashMap::default(),
            lo: u32::MAX,
            hi: 0,
        }
    }

    #[inline]
    pub fn get(&self, addr: u32) -> Option<u32> {
        if addr < self.lo || addr > self.hi {
            return None;
        }
        self.map.get(&addr).copied()
    }

    #[inline]
    pub fn insert(&mut self, addr: u32, v: u32) {
        self.lo = self.lo.min(addr);
        self.hi = self.hi.max(addr);
        self.map.insert(addr, v);
    }

    #[inline]
    pub fn remove(&mut self, addr: u32) {
        self.map.remove(&addr);
    }

    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    pub fn clear(&mut self) {
        self.map.clear();
        self.lo = u32::MAX;
        self.hi = 0;
    }

    /// Drain every buffered (addr, value) pair, resetting the range.
    pub fn drain(&mut self) -> std::collections::hash_map::Drain<'_, u32, u32> {
        self.lo = u32::MAX;
        self.hi = 0;
        self.map.drain()
    }
}

/// Facade for executing a pending atomic during the serialized amo phase:
/// the read-modify-write's load sees the core's own buffered stores over
/// the master (a plain store earlier in the epoch must feed the amo), and
/// its write goes to the master immediately — so later atomics in global
/// (cycle, core) order observe it — while the address is *dropped* from
/// the write-buffer. The master is now authoritative for that address: if
/// the stale buffered value survived, the epoch-end flush (which replays
/// write-buffers in core order, not cycle order) would clobber atomics
/// other cores executed later in the serialized order. The core's own
/// subsequent reads fall through the buffer to the master, which holds
/// exactly the value the amo produced.
pub struct AmoMem<'a> {
    pub master: &'a mut SimMemory,
    pub wbuf: &'a mut WriteBuf,
}

impl DeviceMem for AmoMem<'_> {
    #[inline]
    fn load(&self, core: u32, addr: u32) -> Result<u32, SimError> {
        if let Some(v) = self.wbuf.get(addr) {
            return Ok(v);
        }
        self.master.load(core, addr)
    }

    #[inline]
    fn store(&mut self, core: u32, addr: u32, v: u32) -> Result<(), SimError> {
        self.master.store(core, addr, v)?;
        self.wbuf.remove(addr);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> (CacheConfig, DramConfig) {
        (
            CacheConfig {
                sets: 4,
                ways: 2,
                line_bytes: 64,
            },
            DramConfig::default(),
        )
    }

    /// With one core the view is authoritative and commits never run:
    /// timings match the pre-epoch simulator exactly.
    #[test]
    fn single_core_never_commits() {
        let (l2, dram) = small();
        let mut ms = MemSystem::new(l2, dram, 1, 64);
        let miss_first = ms.view_mut(0).l2_access(0x100, 5);
        assert!(!miss_first);
        ms.advance_to(1 << 20);
        let hit_second = ms.view_mut(0).l2_access(0x100, 6);
        assert!(hit_second, "view state survives advance_to with one core");
        assert_eq!(ms.observed(), (1, 1, 0, 0));
    }

    /// Two cores: accesses in epoch N become visible to the *other* core's
    /// view only after the boundary commit.
    #[test]
    fn cross_core_visibility_is_epoch_quantized() {
        let (l2, dram) = small();
        let mut ms = MemSystem::new(l2, dram, 2, 64);
        assert!(!ms.view_mut(0).l2_access(0x100, 5), "cold: miss");
        // Same epoch, other core: the line is not in its frozen view.
        assert!(!ms.view_mut(1).l2_access(0x100, 6), "same epoch: miss");
        ms.advance_to(64);
        assert!(ms.view_mut(1).l2_access(0x100, 70), "next epoch: hit");
        // Observed counters kept the per-core outcomes, not the replay's.
        assert_eq!(ms.observed(), (1, 2, 0, 0));
    }

    /// Replays happen in canonical core order regardless of access times,
    /// and begin_run folds the tail so state persists across launches.
    #[test]
    fn begin_run_commits_the_tail() {
        let (l2, dram) = small();
        let mut ms = MemSystem::new(l2, dram, 2, 1 << 30);
        ms.view_mut(1).l2_access(0x200, 3);
        ms.begin_run();
        assert!(
            ms.view_mut(0).l2_access(0x200, 0),
            "core 0 sees core 1's line after the inter-launch commit"
        );
    }

    /// Interleaved cross-core atomics must land in serialized (cycle, core)
    /// order: an amo result lives in the master only, so the epoch-end
    /// write-buffer flush (core order) can never resurrect a stale value
    /// over an atomic another core executed later in cycle order.
    #[test]
    fn amo_results_survive_the_epoch_flush() {
        let mut master = SimMemory::new(4096, 2, 256);
        let mut wbuf0 = WriteBuf::new();
        let mut wbuf1 = WriteBuf::new();
        // Serialized order: core0 amo@5 (=1), core1 amo@6 (=2), core0 amo@7 (=3).
        AmoMem {
            master: &mut master,
            wbuf: &mut wbuf0,
        }
        .store(0, 16, 1)
        .unwrap();
        AmoMem {
            master: &mut master,
            wbuf: &mut wbuf1,
        }
        .store(1, 16, 2)
        .unwrap();
        AmoMem {
            master: &mut master,
            wbuf: &mut wbuf0,
        }
        .store(0, 16, 3)
        .unwrap();
        // Epoch-end flush in core order: nothing buffered, nothing clobbered.
        for wbuf in [&mut wbuf0, &mut wbuf1] {
            for (addr, v) in wbuf.drain() {
                master.store(0, addr, v).unwrap();
            }
        }
        assert_eq!(master.load(0, 16).unwrap(), 3, "last amo in cycle order");
    }

    /// A plain buffered store earlier in the epoch feeds a same-core amo's
    /// read-modify-write; the amo's result subsumes it in the master.
    #[test]
    fn amo_reads_through_own_write_buffer() {
        let mut master = SimMemory::new(4096, 1, 256);
        let mut wbuf = WriteBuf::new();
        wbuf.insert(16, 40); // buffered plain store
        let mut amo = AmoMem {
            master: &mut master,
            wbuf: &mut wbuf,
        };
        let seen = amo.load(0, 16).unwrap();
        amo.store(0, 16, seen + 2).unwrap();
        assert_eq!(master.load(0, 16).unwrap(), 42);
        assert!(wbuf.is_empty(), "master is authoritative after the amo");
    }

    #[test]
    fn sharded_mem_buffers_writes_and_reads_through() {
        let master = SimMemory::new(4096, 1, 256);
        let mut wbuf = WriteBuf::new();
        let mut sm = ShardedMem {
            master: &master,
            wbuf: &mut wbuf,
        };
        assert_eq!(sm.load(0, 16).unwrap(), 0);
        sm.store(0, 16, 7).unwrap();
        assert_eq!(sm.load(0, 16).unwrap(), 7, "own store visible");
        assert_eq!(master.load(0, 16).unwrap(), 0, "master untouched");
        // Errors surface exactly as a direct store would raise them.
        assert!(matches!(
            sm.store(0, 17, 1),
            Err(SimError::Misaligned { addr: 17, .. })
        ));
        assert!(matches!(
            sm.store(0, 8192, 1),
            Err(SimError::BadAccess { addr: 8192, .. })
        ));
    }
}
