//! One SIMT core: warps, register files, scoreboard, LSU and the Vortex
//! SIMT control-flow semantics (Figure 4 of the paper).

use crate::cache::Cache;
use crate::mem::{DeviceMem, SimMemory};
use crate::memsys::MemView;
use crate::stats::{CoreStats, StallKind};
use crate::tcache::{MacroOp, TraceCache};
use crate::trace::{CacheLevel, TraceEvent, TraceSink};
use crate::{SimConfig, SimError};
use vortex_isa::layout::{PRINTF_BASE, PRINTF_STRIDE};
use vortex_isa::{
    AluOp, AmoOp, BranchCond, Csr, CvtOp, FpCmpOp, FpOp, FpUnOp, Instr, MulOp, PrintArg, Program,
};

/// IPDOM stack entries for SPLIT/JOIN (§II-D).
#[derive(Debug, Clone, Copy)]
enum Ipdom {
    /// Restore this mask and continue at the join target.
    Reconv { mask: u64 },
    /// Run the else path at `pc` with this mask, keeping the Reconv entry
    /// below for the second JOIN.
    Else { mask: u64, pc: u32 },
}

#[derive(Debug, Clone)]
struct Warp {
    active: bool,
    pc: u32,
    tmask: u64,
    stack: Vec<Ipdom>,
    /// Some((id, count)) while waiting at a barrier.
    barrier: Option<(u32, u32)>,
}

/// Scoreboard slots of one instruction, pre-resolved into the per-warp
/// 64-entry ready array: integer register `r` is slot `r`, float register
/// `r` is slot `32 + r`. Slot 0 is `x0`, whose ready time is never
/// written, so it doubles as "no register".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Operands {
    /// Slots the scoreboard checks before issue: the sources, then the
    /// destination (WAW). Unused entries are 0.
    check: [u8; 3],
    /// Slot written back at completion; 0 = none (also for `rd = x0`).
    dst: u8,
}

/// Scoreboard slot of float register `r`.
const fn fslot(r: u8) -> u8 {
    32 + r
}

impl Operands {
    /// `srcs` then `dst` as the checked slots. No instruction reads three
    /// registers, so the destination always fits.
    fn new(srcs: &[u8], dst: u8) -> Operands {
        let mut check = [0; 3];
        check[..srcs.len()].copy_from_slice(srcs);
        check[srcs.len()] = dst;
        Operands { check, dst }
    }
}

/// Per-warp scoreboard: the first cycle each slot (see [`Operands`]) is
/// ready.
type Ready = [u64; 64];

/// Latest ready-cycle over an instruction's checked slots: the first cycle
/// at which the scoreboard no longer blocks it. Three loads, two `max`.
#[inline]
fn ready_of(ready: &Ready, ops: &Operands) -> u64 {
    // Slots are < 64 by construction; the mask only lets the compiler drop
    // the bounds checks.
    let [a, b, c] = ops.check;
    ready[a as usize & 63]
        .max(ready[b as usize & 63])
        .max(ready[c as usize & 63])
}

/// Outcome of one [`Core::tick`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TickResult {
    /// A warp-instruction issued this cycle.
    Issued,
    /// Nothing could issue; the cycle was accounted to a stall counter.
    Stalled,
    /// The chosen warp would issue an atomic, but the caller asked to stop
    /// before atomics (`amo_ok = false`). Nothing was executed, accounted,
    /// or emitted: re-ticking the same cycle with `amo_ok = true` issues
    /// it. Only the epoch run loop ever sees this — atomics are the one
    /// cross-core-ordered operation, so it executes them serially at the
    /// commit point in global cycle order.
    AmoPending,
}

/// Iterator over the set bits of a thread mask — the active lanes of a
/// warp. Replaces a per-instruction `Vec<u32>` collect in the execute
/// stage.
#[derive(Debug, Clone, Copy)]
struct Lanes(u64);

impl Iterator for Lanes {
    type Item = u32;

    #[inline]
    fn next(&mut self) -> Option<u32> {
        if self.0 == 0 {
            return None;
        }
        let t = self.0.trailing_zeros();
        self.0 &= self.0 - 1;
        Some(t)
    }
}

/// Scoreboard slots of an instruction. The trace cache pre-resolves this
/// per PC; only the reference path, cache fills and the debug cross-checks
/// call it directly.
pub(crate) fn regs_of(i: &Instr) -> Operands {
    match *i {
        Instr::Lui { rd, .. } | Instr::Jal { rd, .. } | Instr::CsrRead { rd, .. } => {
            Operands::new(&[], rd)
        }
        Instr::OpImm { rd, rs1, .. } | Instr::Lw { rd, rs1, .. } | Instr::Jalr { rd, rs1, .. } => {
            Operands::new(&[rs1], rd)
        }
        Instr::Op { rd, rs1, rs2, .. }
        | Instr::MulDiv { rd, rs1, rs2, .. }
        | Instr::Amo { rd, rs1, rs2, .. } => Operands::new(&[rs1, rs2], rd),
        Instr::Sw { rs1, rs2, .. }
        | Instr::Branch { rs1, rs2, .. }
        | Instr::Wspawn { rs1, rs2 }
        | Instr::Pred { rs1, rs2, .. }
        | Instr::Bar { rs1, rs2 } => Operands::new(&[rs1, rs2], 0),
        Instr::Tmc { rs1 } | Instr::Split { rs1, .. } => Operands::new(&[rs1], 0),
        Instr::Join { .. } | Instr::Halt | Instr::Print { .. } => Operands::new(&[], 0),
        Instr::Flw { rd, rs1, .. } => Operands::new(&[rs1], fslot(rd)),
        Instr::Fsw { rs1, rs2, .. } => Operands::new(&[rs1, fslot(rs2)], 0),
        Instr::FpOp { rd, rs1, rs2, .. } => Operands::new(&[fslot(rs1), fslot(rs2)], fslot(rd)),
        Instr::FpUn { rd, rs1, .. } => Operands::new(&[fslot(rs1)], fslot(rd)),
        Instr::FpCmp { rd, rs1, rs2, .. } => Operands::new(&[fslot(rs1), fslot(rs2)], rd),
        Instr::FpCvt { op, rd, rs1 } => match op {
            CvtOp::F2I | CvtOp::F2U | CvtOp::MvF2X => Operands::new(&[fslot(rs1)], rd),
            CvtOp::I2F | CvtOp::U2F | CvtOp::MvX2F => Operands::new(&[rs1], fslot(rd)),
        },
    }
}

/// True for the instructions that go through the LSU (and so need an MSHR
/// and can stall the warp on memory).
pub(crate) fn is_mem(i: &Instr) -> bool {
    matches!(
        i,
        Instr::Lw { .. }
            | Instr::Sw { .. }
            | Instr::Flw { .. }
            | Instr::Fsw { .. }
            | Instr::Amo { .. }
    )
}

/// A single core.
pub struct Core {
    id: u32,
    warps_n: u32,
    threads_n: u32,
    warps: Vec<Warp>,
    /// Integer registers: [warp][reg][lane].
    iregs: Vec<u32>,
    /// Float registers, same layout.
    fregs: Vec<u32>,
    /// Scoreboard, one [`Ready`] array per warp: ints in slots 0–31,
    /// floats in 32–63 (see [`Operands`]).
    reg_ready: Vec<Ready>,
    /// MSHR slots: cycle each becomes free.
    mshr_free: Vec<u64>,
    /// Cached `min(mshr_free)`. Slot times only move at miss allocation
    /// (and reset), so the issue scan reads this instead of re-scanning
    /// the slots every tick.
    mshr_min: u64,
    /// LSU pipeline: next cycle the LSU can accept a line.
    lsu_next_free: u64,
    dcache: Cache,
    rr_next: usize,
    full_mask: u64,
    /// Live warp count, maintained at the activation/halt sites so
    /// [`any_active`](Core::any_active) — which every run loop polls — is
    /// O(1) instead of an O(warps) scan.
    active_n: u32,
    /// Pre-decoded macro-op cache, lazily built on first fetch. `None` in
    /// `reference_mode` (never constructed — the dense loop stays on the
    /// from-scratch decode path) and after a program swap.
    tcache: Option<TraceCache>,
    tcache_enabled: bool,
    /// Per-warp issue snapshots, one flat array or bit mask per field: the
    /// macro-op at the warp's PC (`scan_mop`), the first cycle its
    /// scoreboard operands are ready (`scan_tsb`), whether it goes through
    /// the LSU (`mem_mask`) and whether the PC is outside the program
    /// (`bad_pc`). All of it is a function of the warp's PC and its own
    /// register ready-times, which change only when the warp itself
    /// issues, is respawned or is reset; other warps' issues touch shared
    /// LSU/MSHR state, which stays out of the snapshot. So the per-cycle
    /// scan reads 8 bytes per blocked warp instead of re-walking operands
    /// and re-fetching the macro-op. [`refresh_slot`](Core::refresh_slot)
    /// writes all four; `scan_tsb = u64::MAX` marks a stale snapshot, and
    /// a bad PC reads as "ready now" (0) so the scan funnels the warp into
    /// the issue path, which faults on it.
    scan_mop: Vec<MacroOp>,
    scan_tsb: Vec<u64>,
    mem_mask: u64,
    bad_pc: u64,
    /// Bit per warp: active and not parked at a barrier — the candidates
    /// the per-cycle issue scan must consider. Maintained at the
    /// activation/halt/park/release sites so the scan reads *no* per-warp
    /// state for warps that cannot issue.
    ready_mask: u64,
    /// Bit per warp: active but parked at a barrier (the scan's
    /// barrier-stall classification).
    parked_mask: u64,
    /// Warps currently parked per (barrier id, release count), updated at
    /// arrival time so barrier release costs O(arrivals), not a per-cycle
    /// O(warps²) rescan. At most a handful of barriers are ever live, so a
    /// small vec beats a hash map.
    barrier_waiters: Vec<((u32, u32), u32)>,
    /// After a tick that issued nothing: the earliest cycle some warp could
    /// issue (`u64::MAX` if only barrier-parked warps remain). Computed as
    /// a by-product of the issue scan so the event-driven run loop never
    /// needs a second pass over the warps.
    next_event: u64,
    // Cached latencies.
    lat_alu: u32,
    lat_mul: u32,
    lat_div: u32,
    lat_fpu: u32,
    lat_fdiv: u32,
    lat_sfu: u32,
    lat_dcache: u32,
    lat_l2: u32,
    num_cores: u32,
    pub stats: CoreStats,
}

impl Core {
    pub fn new(id: u32, cfg: &SimConfig) -> Self {
        let w = cfg.hw.warps;
        let t = cfg.hw.threads;
        assert!(t <= 64, "thread mask is 64 bits");
        assert!(w <= 64, "warp mask is 64 bits");
        let regs = (w * 32 * t) as usize;
        Core {
            id,
            warps_n: w,
            threads_n: t,
            warps: vec![
                Warp {
                    active: false,
                    pc: 0,
                    tmask: 0,
                    stack: Vec::new(),
                    barrier: None,
                };
                w as usize
            ],
            iregs: vec![0; regs],
            fregs: vec![0; regs],
            reg_ready: vec![[0; 64]; w as usize],
            mshr_free: vec![0; cfg.mshrs as usize],
            mshr_min: 0,
            lsu_next_free: 0,
            dcache: Cache::new(cfg.dcache),
            rr_next: 0,
            full_mask: if t == 64 { u64::MAX } else { (1u64 << t) - 1 },
            active_n: 0,
            tcache: None,
            tcache_enabled: !cfg.reference_mode,
            scan_mop: vec![MacroOp::decode(Instr::Halt); w as usize],
            scan_tsb: vec![u64::MAX; w as usize],
            mem_mask: 0,
            bad_pc: 0,
            ready_mask: 0,
            parked_mask: 0,
            barrier_waiters: Vec::new(),
            next_event: 0,
            lat_alu: cfg.lat_alu,
            lat_mul: cfg.lat_mul,
            lat_div: cfg.lat_div,
            lat_fpu: cfg.lat_fpu,
            lat_fdiv: cfg.lat_fdiv,
            lat_sfu: cfg.lat_sfu,
            lat_dcache: cfg.lat_dcache,
            lat_l2: cfg.lat_l2,
            num_cores: cfg.hw.cores,
            stats: CoreStats::default(),
        }
    }

    /// Activate warp 0 with one thread at `entry` (runtime doorbell).
    pub fn reset_for_launch(&mut self, entry: u32) {
        for w in &mut self.warps {
            w.active = false;
            w.tmask = 0;
            w.stack.clear();
            w.barrier = None;
        }
        self.warps[0].active = true;
        self.warps[0].pc = entry;
        self.warps[0].tmask = 1;
        self.active_n = 1;
        self.ready_mask = 1;
        self.parked_mask = 0;
        self.iregs.fill(0);
        self.fregs.fill(0);
        self.reg_ready.fill([0; 64]);
        self.mshr_free.fill(0);
        self.mshr_min = 0;
        self.lsu_next_free = 0;
        self.dcache.flush();
        self.rr_next = 0;
        self.scan_tsb.fill(u64::MAX);
        self.barrier_waiters.clear();
        self.next_event = 0;
        // Counters are per-launch: each `Simulator::run` reports only its
        // own work, so a launch's issued + stalled cycles tile its runtime.
        self.stats = CoreStats::default();
    }

    /// True while any warp is live.
    pub fn any_active(&self) -> bool {
        debug_assert_eq!(
            self.active_n > 0,
            self.warps.iter().any(|w| w.active),
            "live-warp count drifted from the warp states"
        );
        self.active_n > 0
    }

    /// Drop the macro-op cache: the loaded binary is about to change. The
    /// issue snapshots hold macro-ops resolved from it, so they go too.
    pub(crate) fn invalidate_tcache(&mut self) {
        self.tcache = None;
        self.scan_tsb.fill(u64::MAX);
    }

    /// Re-resolve one warp's issue snapshot from its current PC and
    /// register ready-times. The macro-op is copied straight from the
    /// trace-cache slot into `scan_mop`; in `reference_mode` it is decoded
    /// from scratch.
    #[inline]
    fn refresh_slot(&mut self, wi: usize, program: &Program) {
        let pc = self.warps[wi].pc;
        let dst = &mut self.scan_mop[wi];
        let found = if self.tcache_enabled {
            self.tcache
                .get_or_insert_with(|| TraceCache::new(program.instrs.len()))
                .get(pc, program)
                .map(|m| *dst = *m)
        } else {
            program
                .instrs
                .get(pc as usize)
                .map(|&i| *dst = MacroOp::decode(i))
        };
        if found.is_some() {
            let mop = &self.scan_mop[wi];
            self.scan_tsb[wi] = ready_of(&self.reg_ready[wi], &mop.ops);
            self.mem_mask = self.mem_mask & !(1 << wi) | (mop.is_mem as u64) << wi;
            self.bad_pc &= !(1 << wi);
        } else {
            self.scan_tsb[wi] = 0;
            self.mem_mask &= !(1 << wi);
            self.bad_pc |= 1 << wi;
        }
    }

    /// Whether the macro-op cache has been materialized (the zero-overhead
    /// tests assert it never is in `reference_mode`).
    pub fn trace_cache_built(&self) -> bool {
        self.tcache.is_some()
    }

    /// Drain the macro-op cache counters `(hits, misses, fused_ops, runs)`
    /// for the metrics registry.
    pub(crate) fn take_tcache_counters(&mut self) -> (u64, u64, u64, u64) {
        match &mut self.tcache {
            Some(tc) => {
                let c = (tc.hits, tc.misses, tc.fused_ops, tc.runs);
                tc.hits = 0;
                tc.misses = 0;
                tc.fused_ops = 0;
                tc.runs = 0;
                c
            }
            None => (0, 0, 0, 0),
        }
    }

    #[inline]
    fn ireg_idx(&self, warp: u32, reg: u8, lane: u32) -> usize {
        ((warp * 32 + reg as u32) * self.threads_n + lane) as usize
    }

    fn read_int(&self, warp: u32, reg: u8, lane: u32) -> u32 {
        if reg == 0 {
            0
        } else {
            self.iregs[self.ireg_idx(warp, reg, lane)]
        }
    }

    fn write_int(&mut self, warp: u32, reg: u8, lane: u32, v: u32) {
        if reg != 0 {
            let i = self.ireg_idx(warp, reg, lane);
            self.iregs[i] = v;
        }
    }

    fn read_fp(&self, warp: u32, reg: u8, lane: u32) -> u32 {
        self.fregs[self.ireg_idx(warp, reg, lane)]
    }

    fn write_fp(&mut self, warp: u32, reg: u8, lane: u32, v: u32) {
        let i = self.ireg_idx(warp, reg, lane);
        self.fregs[i] = v;
    }

    /// Value of an integer register in the first active lane (used by the
    /// warp-uniform instructions: branches, tmc, wspawn, bar, jalr).
    fn read_uniform(&self, warp: u32, reg: u8) -> u32 {
        let lane = self.warps[warp as usize].tmask.trailing_zeros();
        self.read_int(warp, reg, lane.min(self.threads_n - 1))
    }

    fn mark_dest(&mut self, warp: u32, ops: &Operands, ready_at: u64) {
        if ops.dst != 0 {
            self.reg_ready[warp as usize][ops.dst as usize & 63] = ready_at;
        }
    }

    /// Advance this core by one cycle: try to issue one warp-instruction,
    /// round-robin. A [`TickResult::Stalled`] cycle is accounted to the
    /// stall counters exactly as [`fast_forward_stalls`] would account it
    /// in bulk. Every observable step is mirrored into `sink`; with
    /// [`NopSink`](crate::trace::NopSink) the emission sites monomorphize
    /// away.
    ///
    /// `amo_ok = false` (the epoch loop only) makes the tick stop *before*
    /// executing an atomic, returning [`TickResult::AmoPending`] with no
    /// state change at all.
    ///
    /// [`fast_forward_stalls`]: Core::fast_forward_stalls
    #[allow(clippy::too_many_arguments)]
    pub fn tick<M: DeviceMem, S: TraceSink>(
        &mut self,
        now: u64,
        program: &Program,
        mem: &mut M,
        view: &mut MemView,
        printf_out: &mut Vec<String>,
        sink: &mut S,
        amo_ok: bool,
    ) -> Result<TickResult, SimError> {
        // Pick a ready warp, round-robin, from the per-warp issue
        // snapshots — one cached ready-time compare per warp instead of an
        // operand walk. Along the way, collect each blocked warp's exact
        // first-issuable cycle so a failed tick leaves `next_event` behind
        // for the event-driven run loop at no extra cost.
        #[cfg(debug_assertions)]
        {
            let mut r = 0u64;
            let mut p = 0u64;
            for (i, w) in self.warps.iter().enumerate() {
                if w.active {
                    if w.barrier.is_some() {
                        p |= 1 << i;
                    } else {
                        r |= 1 << i;
                    }
                }
            }
            debug_assert_eq!(
                (self.ready_mask, self.parked_mask),
                (r, p),
                "issue-scan masks drifted from the warp states"
            );
        }
        let n = self.warps_n as usize;
        let mut blocked: Option<StallKind> = None;
        let mut next_event = u64::MAX;
        // The MSHR floor is shared across warps and can only move when an
        // issue goes through memory, so the cached min serves the whole
        // tick.
        let mshr_min = self.mshr_min;
        // Round-robin over the candidate mask: warps >= rr_next ascending,
        // then the wrap. Inactive and barrier-parked warps cost nothing —
        // they are simply absent from the mask.
        let rr = self.rr_next;
        for part in [
            self.ready_mask & (u64::MAX << rr),
            self.ready_mask & !(u64::MAX << rr),
        ] {
            let mut m = part;
            while m != 0 {
                let wi = m.trailing_zeros() as usize;
                m &= m - 1;
                // Flat-array fast path: one ready-cycle load per blocked
                // warp; the full snapshot is only read on an actual issue.
                let mut t_sb = self.scan_tsb[wi];
                if t_sb == u64::MAX {
                    self.refresh_slot(wi, program);
                    t_sb = self.scan_tsb[wi];
                }
                let t_ready = if self.mem_mask & (1 << wi) != 0 {
                    // Both conditions must hold at once; both are monotone,
                    // so the max is the exact first issuable cycle.
                    t_sb.max(mshr_min)
                } else {
                    t_sb
                };
                if t_ready > now {
                    blocked.get_or_insert(if t_sb > now {
                        StallKind::Scoreboard
                    } else {
                        StallKind::LsuFull
                    });
                    next_event = next_event.min(t_ready);
                    continue;
                }
                if self.bad_pc & (1 << wi) != 0 {
                    return Err(SimError::BadPc {
                        core: self.id,
                        warp: wi as u32,
                        pc: self.warps[wi].pc,
                    });
                }
                let mop = self.scan_mop[wi];
                #[cfg(debug_assertions)]
                self.check_snapshot(wi, &mop, program);
                if !amo_ok && matches!(mop.instr, Instr::Amo { .. }) {
                    return Ok(TickResult::AmoPending);
                }
                // Issue.
                self.rr_next = if wi + 1 == n { 0 } else { wi + 1 };
                self.stats.instructions += 1;
                sink.event(&TraceEvent::Issue {
                    core: self.id,
                    warp: wi as u32,
                    cycle: now,
                    pc: self.warps[wi].pc,
                });
                self.execute(now, wi as u32, mop, program, mem, view, printf_out, sink)?;
                // The issue moved the warp's PC and its register ready-times.
                self.scan_tsb[wi] = u64::MAX;
                return Ok(TickResult::Issued);
            }
        }
        self.next_event = next_event;
        let kind = if self.parked_mask != 0 && blocked.is_none() {
            StallKind::Barrier
        } else {
            blocked.unwrap_or(StallKind::Idle)
        };
        self.stats.stall(kind, 1);
        sink.event(&TraceEvent::Stall {
            core: self.id,
            kind,
            from: now,
            to: now + 1,
        });
        Ok(TickResult::Stalled)
    }

    /// Earliest cycle at which some warp of this core could issue, given
    /// that the tick at `now` issued nothing. Scoreboard ready-times and
    /// MSHR free-times are monotone facts that only an *issue* can change,
    /// so until this cycle the core is provably idle. Returns `u64::MAX`
    /// when every live warp is parked at a barrier: arrivals can only come
    /// from this core's own warps, so the core can never progress again and
    /// only the cycle limit bounds the run.
    ///
    /// This is the from-scratch recomputation of the value `tick` caches in
    /// [`next_event`](Core::next_event); the run loop uses the cache and
    /// debug-asserts it against this.
    pub fn next_issue_cycle(&self, now: u64, program: &Program) -> u64 {
        let mut t = u64::MAX;
        for (wi, w) in self.warps.iter().enumerate() {
            if !w.active || w.barrier.is_some() {
                continue;
            }
            let Some(instr) = program.instrs.get(w.pc as usize) else {
                // Bad PC: step densely so the next tick reports it.
                return now + 1;
            };
            let mut ready = self.operands_ready_at(wi, instr);
            if is_mem(instr) {
                ready = ready.max(self.mshr_min);
            }
            t = t.min(ready);
        }
        debug_assert!(t > now, "next_issue_cycle called while a warp is issuable");
        t
    }

    /// Bulk-account the stall cycles in `[from, to)` exactly as `to - from`
    /// dense ticks would have. During a no-issue span nothing about the
    /// core changes, so the dense loop's per-cycle classification is fully
    /// determined by the state at `from`:
    ///
    /// * no active non-barrier warp → every cycle is a barrier stall;
    /// * otherwise the first active non-barrier warp in round-robin order
    ///   is the classifying warp: scoreboard stalls until its operands are
    ///   ready, and (for memory instructions) LSU stalls from then on while
    ///   it waits for an MSHR.
    ///
    /// `stall_idle` cannot occur here: a core with no active warp is never
    /// ticked or fast-forwarded.
    ///
    /// The skipped span is mirrored into `sink` as aggregate stall events
    /// with the same classification, so a fast-forward trace canonicalizes
    /// to the dense loop's per-cycle trace.
    pub fn fast_forward_stalls<S: TraceSink>(
        &mut self,
        from: u64,
        to: u64,
        program: &Program,
        sink: &mut S,
    ) {
        if to <= from {
            return;
        }
        for (kind, a, b) in self.stall_segments(from, to, program) {
            if b > a {
                self.stats.stall(kind, b - a);
                sink.event(&TraceEvent::Stall {
                    core: self.id,
                    kind,
                    from: a,
                    to: b,
                });
            }
        }
    }

    /// Take back the stall cycles [`fast_forward_stalls`] charged over
    /// `[from, to)`. The run loop charges a stall span in full when it
    /// opens; an instruction-budget trip at an epoch boundary inside the
    /// span hands back the part past the boundary, so the partial stats
    /// match the dense loop's at that boundary. The span's trace event is
    /// already out and is left as charged.
    ///
    /// [`fast_forward_stalls`]: Core::fast_forward_stalls
    pub fn retract_stalls(&mut self, from: u64, to: u64, program: &Program) {
        if to <= from {
            return;
        }
        for (kind, a, b) in self.stall_segments(from, to, program) {
            if b > a {
                self.stats.unstall(kind, b - a);
            }
        }
    }

    /// The dense loop's classification of the no-issue cycles `[from, to)`
    /// as at most two `(kind, start, end)` segments (an empty one has
    /// `end <= start`). Splitting a span at any cycle classifies the two
    /// halves exactly as the whole, which is what makes a charge
    /// retractable.
    fn stall_segments(
        &mut self,
        from: u64,
        to: u64,
        program: &Program,
    ) -> [(StallKind, u64, u64); 2] {
        let n = self.warps_n as usize;
        let first = (0..n)
            .map(|k| (self.rr_next + k) % n)
            .find(|&wi| self.warps[wi].active && self.warps[wi].barrier.is_none());
        let Some(wi) = first else {
            return [(StallKind::Barrier, from, to), (StallKind::Barrier, to, to)];
        };
        if self.scan_tsb[wi] == u64::MAX {
            self.refresh_slot(wi, program);
        }
        // next_issue_cycle forces dense stepping on a bad PC, so no span
        // is ever opened over one.
        debug_assert_eq!(self.bad_pc & (1 << wi), 0, "stall span over a bad PC");
        let split = self.scan_tsb[wi].clamp(from, to);
        if self.mem_mask & (1 << wi) != 0 {
            [
                (StallKind::Scoreboard, from, split),
                (StallKind::LsuFull, split, to),
            ]
        } else {
            // A non-memory warp blocks only on the scoreboard, so its
            // operands cannot come ready inside the span.
            debug_assert_eq!(split, to);
            [
                (StallKind::Scoreboard, from, to),
                (StallKind::Scoreboard, to, to),
            ]
        }
    }

    /// Scoreboard-ready cycle of `i` for warp `wi` from a from-scratch
    /// decode — the trace-cache-independent path the cross-checks use.
    fn operands_ready_at(&self, wi: usize, i: &Instr) -> u64 {
        ready_of(&self.reg_ready[wi], &regs_of(i))
    }

    /// Debug cross-check at issue time: the cached snapshot must equal a
    /// from-scratch decode of the warp's PC and a fresh scoreboard walk, so
    /// a missed invalidation shows on the first issue it affects.
    #[cfg(debug_assertions)]
    fn check_snapshot(&self, wi: usize, mop: &MacroOp, program: &Program) {
        let instr = program.instrs[self.warps[wi].pc as usize];
        debug_assert_eq!(*mop, MacroOp::decode(instr), "stale issue snapshot");
        debug_assert_eq!(
            self.scan_tsb[wi],
            self.operands_ready_at(wi, &instr),
            "stale scoreboard-ready cycle in the issue snapshot"
        );
    }

    /// The next-event cycle cached by the last tick that issued nothing.
    pub fn next_event(&self) -> u64 {
        self.next_event
    }

    /// The warps of this core that are parked at a barrier, with their
    /// resume PC (the instruction after the barrier) and how many warps
    /// have arrived so far — the payload of a deadlock report. Pure state
    /// inspection, so both scheduler loops report the identical set.
    pub fn stuck_warps(&self) -> Vec<repro_diag::StuckWarp> {
        self.warps
            .iter()
            .enumerate()
            .filter(|(_, w)| w.active && w.barrier.is_some())
            .map(|(wi, w)| {
                let key = w.barrier.expect("filtered to parked warps");
                let arrived = self
                    .barrier_waiters
                    .iter()
                    .find(|(k, _)| *k == key)
                    .map(|(_, n)| *n)
                    .unwrap_or(0);
                repro_diag::StuckWarp {
                    core: self.id,
                    warp: wi as u32,
                    pc: w.pc,
                    barrier: Some(key),
                    arrived,
                }
            })
            .collect()
    }

    /// True if some warp slot is not running (halted or never spawned).
    /// Under a deadlock this distinguishes divergence (the barrier count
    /// was reachable had this warp participated) from a count that no
    /// schedule could ever satisfy.
    pub fn has_inactive_warp(&self) -> bool {
        self.warps.iter().any(|w| !w.active)
    }

    /// A warp arrived at barrier `(id, count)`: bump the waiter count and,
    /// once `count` warps are parked, release them all. Doing this at
    /// arrival is observably identical to a start-of-cycle release scan —
    /// parked warps cannot execute, so between the arrival and the next
    /// cycle nothing can see the difference — and it removes the scan from
    /// the per-cycle path entirely.
    fn barrier_arrive<S: TraceSink>(
        &mut self,
        warp: u32,
        now: u64,
        id: u32,
        count: u32,
        sink: &mut S,
    ) {
        let key = (id, count);
        let waiting = match self.barrier_waiters.iter_mut().find(|(k, _)| *k == key) {
            Some(entry) => {
                entry.1 += 1;
                entry.1
            }
            None => {
                self.barrier_waiters.push((key, 1));
                1
            }
        };
        sink.event(&TraceEvent::BarrierArrive {
            core: self.id,
            warp,
            cycle: now,
            id,
            count,
            waiting,
        });
        if waiting >= count {
            let mut released = 0;
            for (i, w) in self.warps.iter_mut().enumerate() {
                if w.barrier == Some(key) {
                    w.barrier = None;
                    self.ready_mask |= 1 << i;
                    self.parked_mask &= !(1 << i);
                    released += 1;
                }
            }
            self.barrier_waiters.retain(|(k, _)| *k != key);
            sink.event(&TraceEvent::BarrierRelease {
                core: self.id,
                cycle: now,
                id,
                count,
                released,
            });
        }
    }

    /// A parked warp left barrier `key` without releasing it (its slot was
    /// overwritten by WSPAWN).
    fn barrier_leave(&mut self, key: (u32, u32)) {
        if let Some(pos) = self.barrier_waiters.iter().position(|(k, _)| *k == key) {
            self.barrier_waiters[pos].1 -= 1;
            if self.barrier_waiters[pos].1 == 0 {
                self.barrier_waiters.swap_remove(pos);
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn execute<M: DeviceMem, S: TraceSink>(
        &mut self,
        now: u64,
        wi: u32,
        mop: MacroOp,
        program: &Program,
        mem: &mut M,
        view: &mut MemView,
        printf_out: &mut Vec<String>,
        sink: &mut S,
    ) -> Result<(), SimError> {
        let instr = mop.instr;
        let tmask = self.warps[wi as usize].tmask;
        let pc = self.warps[wi as usize].pc;
        let mut next_pc = pc.wrapping_add(1);
        let mut lat = self.lat_alu;
        let lanes = Lanes(tmask);
        match instr {
            Instr::Lui { rd, imm } => {
                for t in lanes {
                    self.write_int(wi, rd, t, (imm as u32) << 12);
                }
            }
            Instr::OpImm { op, rd, rs1, imm } => {
                for t in lanes {
                    let a = self.read_int(wi, rs1, t);
                    self.write_int(wi, rd, t, alu(op, a, imm as u32));
                }
            }
            Instr::Op { op, rd, rs1, rs2 } => {
                for t in lanes {
                    let a = self.read_int(wi, rs1, t);
                    let b = self.read_int(wi, rs2, t);
                    self.write_int(wi, rd, t, alu(op, a, b));
                }
            }
            Instr::MulDiv { op, rd, rs1, rs2 } => {
                lat = match op {
                    MulOp::Mul | MulOp::Mulh | MulOp::Mulhu => self.lat_mul,
                    _ => self.lat_div,
                };
                for t in lanes {
                    let a = self.read_int(wi, rs1, t);
                    let b = self.read_int(wi, rs2, t);
                    self.write_int(wi, rd, t, muldiv(op, a, b));
                }
            }
            Instr::Lw { rd, rs1, imm } | Instr::Flw { rd, rs1, imm } => {
                self.stats.loads += 1;
                let is_fp = matches!(instr, Instr::Flw { .. });
                let mut addrs = [0u32; 64];
                let mut na = 0usize;
                for t in lanes {
                    let addr = self.read_int(wi, rs1, t).wrapping_add(imm as u32);
                    let v = mem.load(self.id, addr).map_err(|e| at_pc(e, pc))?;
                    if is_fp {
                        self.write_fp(wi, rd, t, v);
                    } else {
                        self.write_int(wi, rd, t, v);
                    }
                    addrs[na] = addr;
                    na += 1;
                }
                let done = self.memory_time(now, &addrs[..na], view, sink);
                self.mark_dest(wi, &mop.ops, done);
                self.warps[wi as usize].pc = next_pc;
                return Ok(());
            }
            Instr::Sw { rs1, rs2, imm } | Instr::Fsw { rs1, rs2, imm } => {
                self.stats.stores += 1;
                let is_fp = matches!(instr, Instr::Fsw { .. });
                let mut addrs = [0u32; 64];
                let mut na = 0usize;
                for t in lanes {
                    let addr = self.read_int(wi, rs1, t).wrapping_add(imm as u32);
                    let v = if is_fp {
                        self.read_fp(wi, rs2, t)
                    } else {
                        self.read_int(wi, rs2, t)
                    };
                    mem.store(self.id, addr, v).map_err(|e| at_pc(e, pc))?;
                    addrs[na] = addr;
                    na += 1;
                }
                // Stores retire through the same LSU path (write-through),
                // consuming bandwidth but not blocking a destination.
                let _ = self.memory_time(now, &addrs[..na], view, sink);
                self.warps[wi as usize].pc = next_pc;
                return Ok(());
            }
            Instr::Amo { op, rd, rs1, rs2 } => {
                self.stats.loads += 1;
                self.stats.stores += 1;
                // Atomics bypass coalescing: one serialized access per lane.
                let mut done = now;
                for t in lanes {
                    let addr = self.read_int(wi, rs1, t);
                    let v = self.read_int(wi, rs2, t);
                    let old = mem.load(self.id, addr).map_err(|e| at_pc(e, pc))?;
                    let new = amo(op, old, v);
                    mem.store(self.id, addr, new).map_err(|e| at_pc(e, pc))?;
                    self.write_int(wi, rd, t, old);
                    done = done.max(self.memory_time(now, &[addr], view, sink));
                }
                self.mark_dest(wi, &mop.ops, done);
                self.warps[wi as usize].pc = next_pc;
                return Ok(());
            }
            Instr::Branch {
                cond,
                rs1,
                rs2,
                offset,
            } => {
                // Branches are warp-uniform by construction: the compiler
                // SPLIT-lowers divergent conditions (§II-D), so evaluating
                // in the first active lane is sound.
                let a = self.read_uniform(wi, rs1);
                let b = self.read_uniform(wi, rs2);
                let taken = match cond {
                    BranchCond::Eq => a == b,
                    BranchCond::Ne => a != b,
                    BranchCond::Lt => (a as i32) < (b as i32),
                    BranchCond::Ge => (a as i32) >= (b as i32),
                    BranchCond::Ltu => a < b,
                    BranchCond::Geu => a >= b,
                };
                if taken {
                    next_pc = pc.wrapping_add(offset as u32);
                }
            }
            Instr::Jal { rd, offset } => {
                for t in lanes {
                    self.write_int(wi, rd, t, pc + 1);
                }
                next_pc = pc.wrapping_add(offset as u32);
            }
            Instr::Jalr { rd, rs1, imm } => {
                let target = self.read_uniform(wi, rs1).wrapping_add(imm as u32);
                for t in lanes {
                    self.write_int(wi, rd, t, pc + 1);
                }
                next_pc = target;
            }
            Instr::FpOp { op, rd, rs1, rs2 } => {
                lat = match op {
                    FpOp::Div => self.lat_fdiv,
                    _ => self.lat_fpu,
                };
                for t in lanes {
                    let a = f32::from_bits(self.read_fp(wi, rs1, t));
                    let b = f32::from_bits(self.read_fp(wi, rs2, t));
                    let r = match op {
                        FpOp::Add => a + b,
                        FpOp::Sub => a - b,
                        FpOp::Mul => a * b,
                        FpOp::Div => a / b,
                        FpOp::Min => a.min(b),
                        FpOp::Max => a.max(b),
                        FpOp::Sgnj => a.copysign(b),
                        FpOp::SgnjN => a.copysign(-b),
                        FpOp::SgnjX => f32::from_bits(a.to_bits() ^ (b.to_bits() & 0x8000_0000)),
                    };
                    self.write_fp(wi, rd, t, r.to_bits());
                }
            }
            Instr::FpUn { op, rd, rs1 } => {
                lat = match op {
                    FpUnOp::Sqrt => self.lat_fdiv,
                    _ => self.lat_sfu,
                };
                for t in lanes {
                    let a = f32::from_bits(self.read_fp(wi, rs1, t));
                    let r = match op {
                        FpUnOp::Sqrt => a.sqrt(),
                        FpUnOp::Exp => a.exp(),
                        FpUnOp::Log => a.ln(),
                        FpUnOp::Sin => a.sin(),
                        FpUnOp::Cos => a.cos(),
                        FpUnOp::Floor => a.floor(),
                    };
                    self.write_fp(wi, rd, t, r.to_bits());
                }
            }
            Instr::FpCmp { op, rd, rs1, rs2 } => {
                lat = self.lat_fpu;
                for t in lanes {
                    let a = f32::from_bits(self.read_fp(wi, rs1, t));
                    let b = f32::from_bits(self.read_fp(wi, rs2, t));
                    let r = match op {
                        FpCmpOp::Eq => a == b,
                        FpCmpOp::Lt => a < b,
                        FpCmpOp::Le => a <= b,
                    };
                    self.write_int(wi, rd, t, r as u32);
                }
            }
            Instr::FpCvt { op, rd, rs1 } => {
                lat = self.lat_fpu;
                for t in lanes {
                    match op {
                        CvtOp::F2I => {
                            let a = f32::from_bits(self.read_fp(wi, rs1, t));
                            let v = if a.is_nan() {
                                i32::MAX
                            } else {
                                (a as i64).clamp(i32::MIN as i64, i32::MAX as i64) as i32
                            };
                            self.write_int(wi, rd, t, v as u32);
                        }
                        CvtOp::F2U => {
                            let a = f32::from_bits(self.read_fp(wi, rs1, t));
                            let v = if a.is_nan() || a < 0.0 {
                                0
                            } else {
                                (a as u64).min(u32::MAX as u64) as u32
                            };
                            self.write_int(wi, rd, t, v);
                        }
                        CvtOp::I2F => {
                            let a = self.read_int(wi, rs1, t) as i32;
                            self.write_fp(wi, rd, t, (a as f32).to_bits());
                        }
                        CvtOp::U2F => {
                            let a = self.read_int(wi, rs1, t);
                            self.write_fp(wi, rd, t, (a as f32).to_bits());
                        }
                        CvtOp::MvF2X => {
                            let a = self.read_fp(wi, rs1, t);
                            self.write_int(wi, rd, t, a);
                        }
                        CvtOp::MvX2F => {
                            let a = self.read_int(wi, rs1, t);
                            self.write_fp(wi, rd, t, a);
                        }
                    }
                }
            }
            Instr::CsrRead { rd, csr } => {
                for t in lanes {
                    let v = match csr {
                        Csr::ThreadId => t,
                        Csr::WarpId => wi,
                        Csr::CoreId => self.id,
                        Csr::NumThreads => self.threads_n,
                        Csr::NumWarps => self.warps_n,
                        Csr::NumCores => self.num_cores,
                        Csr::Tmask => tmask as u32,
                    };
                    self.write_int(wi, rd, t, v);
                }
            }
            Instr::Tmc { rs1 } => {
                lat = self.lat_sfu;
                let mask = self.read_uniform(wi, rs1) as u64 & self.full_mask;
                let w = &mut self.warps[wi as usize];
                w.tmask = mask;
                if mask == 0 {
                    w.active = false;
                    self.active_n -= 1;
                    self.ready_mask &= !(1 << wi);
                }
            }
            Instr::Wspawn { rs1, rs2 } => {
                lat = self.lat_sfu;
                let count = self.read_uniform(wi, rs1).min(self.warps_n);
                let entry = self.read_uniform(wi, rs2);
                sink.event(&TraceEvent::Wspawn {
                    core: self.id,
                    warp: wi,
                    cycle: now,
                    count,
                    entry,
                });
                for w in 1..count {
                    let warp = &mut self.warps[w as usize];
                    if !warp.active {
                        self.active_n += 1;
                    }
                    warp.active = true;
                    warp.pc = entry;
                    warp.tmask = 1;
                    warp.stack.clear();
                    // The spawn rewrote this warp's PC out from under its
                    // issue snapshot.
                    self.scan_tsb[w as usize] = u64::MAX;
                    self.ready_mask |= 1 << w;
                    self.parked_mask &= !(1 << w);
                    if let Some(key) = warp.barrier.take() {
                        // Respawning a parked warp shrinks its barrier group.
                        self.barrier_leave(key);
                    }
                }
            }
            Instr::Split { rs1, else_off } => {
                lat = self.lat_sfu;
                let mut taken = 0u64;
                for t in lanes {
                    if self.read_int(wi, rs1, t) != 0 {
                        taken |= 1 << t;
                    }
                }
                let else_mask = tmask & !taken;
                let w = &mut self.warps[wi as usize];
                if else_mask == 0 {
                    // No divergence, all true: push reconv only.
                    w.stack.push(Ipdom::Reconv { mask: tmask });
                } else if taken == 0 {
                    // All false: jump straight to else.
                    w.stack.push(Ipdom::Reconv { mask: tmask });
                    next_pc = pc.wrapping_add(else_off as u32);
                } else {
                    w.stack.push(Ipdom::Reconv { mask: tmask });
                    w.stack.push(Ipdom::Else {
                        mask: else_mask,
                        pc: pc.wrapping_add(else_off as u32),
                    });
                    w.tmask = taken;
                }
            }
            Instr::Join { off } => {
                lat = self.lat_sfu;
                let w = &mut self.warps[wi as usize];
                match w.stack.pop() {
                    Some(Ipdom::Else { mask, pc: else_pc }) => {
                        w.tmask = mask;
                        next_pc = else_pc;
                    }
                    Some(Ipdom::Reconv { mask }) => {
                        w.tmask = mask;
                        next_pc = pc.wrapping_add(off as u32);
                    }
                    None => {
                        // Unbalanced join: treat as no-op jump (compiler
                        // never emits this; hand-written tests might).
                        next_pc = pc.wrapping_add(off as u32);
                    }
                }
            }
            Instr::Pred { rs1, rs2, exit_off } => {
                lat = self.lat_sfu;
                let mut live = 0u64;
                for t in lanes {
                    if self.read_int(wi, rs1, t) != 0 {
                        live |= 1 << t;
                    }
                }
                if live != 0 {
                    self.warps[wi as usize].tmask = live;
                } else {
                    let restore = self.read_uniform(wi, rs2) as u64 & self.full_mask;
                    self.warps[wi as usize].tmask = restore;
                    next_pc = pc.wrapping_add(exit_off as u32);
                }
            }
            Instr::Bar { rs1, rs2 } => {
                lat = self.lat_sfu;
                let id = self.read_uniform(wi, rs1);
                let count = self.read_uniform(wi, rs2).max(1);
                self.warps[wi as usize].barrier = Some((id, count));
                self.ready_mask &= !(1 << wi);
                self.parked_mask |= 1 << wi;
                self.barrier_arrive(wi, now, id, count, sink);
            }
            Instr::Print { fmt } => {
                let entry = program.printf_table.get(fmt as usize).cloned().unwrap_or(
                    vortex_isa::PrintfFmt {
                        fmt: format!("<bad printf id {fmt}>"),
                        args: vec![],
                    },
                );
                for t in lanes {
                    let hart = (self.id * self.warps_n + wi) * self.threads_n + t;
                    let buf = PRINTF_BASE + hart * PRINTF_STRIDE;
                    let mut out = String::with_capacity(entry.fmt.len() + 8);
                    let mut argi = 0u32;
                    let mut chars = entry.fmt.chars().peekable();
                    while let Some(c) = chars.next() {
                        if c == '{' && chars.peek() == Some(&'}') {
                            chars.next();
                            let bits = mem
                                .load(self.id, buf + argi * 4)
                                .map_err(|e| at_pc(e, pc))?;
                            match entry.args.get(argi as usize) {
                                Some(PrintArg::F32) => {
                                    out.push_str(&format!("{}", f32::from_bits(bits)))
                                }
                                Some(PrintArg::I32) => out.push_str(&format!("{}", bits as i32)),
                                _ => out.push_str(&format!("{bits}")),
                            }
                            argi += 1;
                        } else {
                            out.push(c);
                        }
                    }
                    printf_out.push(out);
                }
            }
            Instr::Halt => {
                let w = &mut self.warps[wi as usize];
                w.tmask = 0;
                w.active = false;
                self.active_n -= 1;
                self.ready_mask &= !(1 << wi);
            }
        }
        let done = now + lat as u64;
        self.mark_dest(wi, &mop.ops, done);
        self.warps[wi as usize].pc = next_pc;
        Ok(())
    }

    /// Timing for a warp memory access over the given lane addresses:
    /// coalesce to lines, walk D-cache → L2 → DRAM, consume LSU + MSHR
    /// resources. Local-window accesses complete at D-cache speed.
    fn memory_time<S: TraceSink>(
        &mut self,
        now: u64,
        addrs: &[u32],
        view: &mut MemView,
        sink: &mut S,
    ) -> u64 {
        // Collect distinct lines in ascending order. Lane addresses are
        // usually monotone (consecutive lanes touch consecutive words), so
        // dedup adjacent repeats on the fly and only fall back to a full
        // sort + dedup when an out-of-order line shows up.
        let mut line_buf = [0u32; 64];
        let mut raw = 0usize;
        let mut last = u32::MAX;
        let mut sorted = true;
        for &a in addrs {
            if !SimMemory::is_local(a) {
                let l = self.dcache.line_of(a);
                if l != last {
                    if raw > 0 && l < last {
                        sorted = false;
                    }
                    line_buf[raw] = l;
                    raw += 1;
                    last = l;
                }
            }
        }
        let nl = if sorted {
            raw
        } else {
            line_buf[..raw].sort_unstable();
            let mut nl = 0usize;
            for i in 0..raw {
                if nl == 0 || line_buf[i] != line_buf[nl - 1] {
                    line_buf[nl] = line_buf[i];
                    nl += 1;
                }
            }
            nl
        };
        let lines = &line_buf[..nl];
        if lines.is_empty() {
            // Pure local-memory access: SRAM-speed, with bank-conflict
            // serialization of distinct words beyond the bank count (4).
            let words = addrs.len().div_ceil(4) as u64;
            self.lsu_next_free = self.lsu_next_free.max(now) + words;
            return self.lsu_next_free + self.lat_dcache as u64;
        }
        // The banked D-cache ingests at most 4 lane requests per cycle, so
        // wide warps occupy the LSU for T/4 cycles even on hits — the
        // per-thread cost §III-C attributes vecadd's LSU stalls to.
        let lane_cycles = (addrs.len().div_ceil(4) as u64).saturating_sub(lines.len() as u64);
        self.lsu_next_free = self.lsu_next_free.max(now) + lane_cycles;
        let line_bytes = self.dcache.config().line_bytes;
        let mut done = now;
        for &line in lines {
            // LSU accepts one line per cycle.
            self.lsu_next_free = self.lsu_next_free.max(now) + 1;
            let t0 = self.lsu_next_free;
            let addr = line * line_bytes;
            let dcache_hit = self.dcache.access(addr, t0);
            sink.event(&TraceEvent::CacheAccess {
                core: self.id,
                level: CacheLevel::Dcache,
                cycle: t0,
                line_addr: addr,
                hit: dcache_hit,
            });
            if dcache_hit {
                self.stats.dcache_hits += 1;
                done = done.max(t0 + self.lat_dcache as u64);
            } else {
                self.stats.dcache_misses += 1;
                // Take the earliest-free MSHR (backpressure as latency).
                let slot = self.mshr_free.iter_mut().min().expect("at least one MSHR");
                let start = t0.max(*slot);
                let l2_hit = view.l2_access(addr, start);
                sink.event(&TraceEvent::CacheAccess {
                    core: self.id,
                    level: CacheLevel::L2,
                    cycle: start,
                    line_addr: addr,
                    hit: l2_hit,
                });
                let fill = if l2_hit {
                    start + self.lat_l2 as u64
                } else {
                    let issue = start + self.lat_l2 as u64;
                    let (fill, row_hit) = view.dram_access(addr, line_bytes, issue);
                    sink.event(&TraceEvent::Dram {
                        core: self.id,
                        cycle: issue,
                        line_addr: addr,
                        row_hit,
                        done: fill,
                    });
                    fill
                };
                *slot = fill;
                self.mshr_min = self.mshr_free.iter().copied().min().unwrap_or(0);
                sink.event(&TraceEvent::MshrAcquire {
                    core: self.id,
                    cycle: start,
                    fill,
                });
                done = done.max(fill + self.lat_dcache as u64);
            }
        }
        done
    }
}

fn at_pc(e: SimError, pc: u32) -> SimError {
    match e {
        SimError::BadAccess { addr, .. } => SimError::BadAccess { addr, pc },
        SimError::Misaligned { addr, .. } => SimError::Misaligned { addr, pc },
        other => other,
    }
}

fn alu(op: AluOp, a: u32, b: u32) -> u32 {
    match op {
        AluOp::Add => a.wrapping_add(b),
        AluOp::Sub => a.wrapping_sub(b),
        AluOp::Sll => a.wrapping_shl(b & 31),
        AluOp::Slt => ((a as i32) < (b as i32)) as u32,
        AluOp::Sltu => (a < b) as u32,
        AluOp::Xor => a ^ b,
        AluOp::Srl => a.wrapping_shr(b & 31),
        AluOp::Sra => ((a as i32).wrapping_shr(b & 31)) as u32,
        AluOp::Or => a | b,
        AluOp::And => a & b,
    }
}

fn muldiv(op: MulOp, a: u32, b: u32) -> u32 {
    match op {
        MulOp::Mul => a.wrapping_mul(b),
        MulOp::Mulh => (((a as i32 as i64) * (b as i32 as i64)) >> 32) as u32,
        MulOp::Mulhu => (((a as u64) * (b as u64)) >> 32) as u32,
        MulOp::Div => {
            let (x, y) = (a as i32, b as i32);
            if y == 0 {
                u32::MAX
            } else if x == i32::MIN && y == -1 {
                x as u32
            } else {
                (x / y) as u32
            }
        }
        MulOp::Divu => a.checked_div(b).unwrap_or(u32::MAX),
        MulOp::Rem => {
            let (x, y) = (a as i32, b as i32);
            if y == 0 {
                a
            } else if x == i32::MIN && y == -1 {
                0
            } else {
                (x % y) as u32
            }
        }
        MulOp::Remu => a.checked_rem(b).unwrap_or(a),
    }
}

fn amo(op: AmoOp, old: u32, v: u32) -> u32 {
    match op {
        AmoOp::Add => old.wrapping_add(v),
        AmoOp::Swap => v,
        AmoOp::And => old & v,
        AmoOp::Or => old | v,
        AmoOp::Xor => old ^ v,
        AmoOp::Min => ((old as i32).min(v as i32)) as u32,
        AmoOp::Max => ((old as i32).max(v as i32)) as u32,
        AmoOp::Minu => old.min(v),
        AmoOp::Maxu => old.max(v),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::NopSink;
    use fpga_arch::VortexConfig;
    use vortex_isa::abi;

    fn test_core(warps: u32, threads: u32) -> Core {
        let cfg = SimConfig::new(VortexConfig::new(1, warps, threads));
        let mut core = Core::new(0, &cfg);
        core.reset_for_launch(0);
        core
    }

    fn one_instr(i: Instr) -> Program {
        Program {
            instrs: vec![i],
            printf_table: vec![],
            entry: 0,
        }
    }

    #[test]
    fn next_event_is_the_scoreboard_ready_time() {
        let mut core = test_core(2, 4);
        let p = one_instr(Instr::OpImm {
            op: AluOp::Add,
            rd: abi::T0,
            rs1: abi::T0,
            imm: 1,
        });
        core.reg_ready[0][abi::T0 as usize] = 40;
        assert_eq!(core.next_issue_cycle(7, &p), 40);
        // The whole span is a scoreboard stall for a non-memory instruction.
        core.fast_forward_stalls(8, 40, &p, &mut NopSink);
        assert_eq!(core.stats.stall_scoreboard, 32);
        assert_eq!(core.stats.stall_lsu, 0);
        assert_eq!(core.stats.stall_barrier, 0);
    }

    #[test]
    fn next_event_waits_for_an_mshr_on_memory_instructions() {
        let mut core = test_core(1, 4);
        let p = one_instr(Instr::Lw {
            rd: abi::T1,
            rs1: abi::T0,
            imm: 0,
        });
        core.reg_ready[0][abi::T0 as usize] = 10;
        core.mshr_free.fill(33);
        core.mshr_min = 33;
        // Operands ready at 10, but every MSHR is busy until 33.
        assert_eq!(core.next_issue_cycle(7, &p), 33);
        // Cycles 8..10 classify as scoreboard, 10..33 as LSU — exactly what
        // the dense loop would count tick by tick.
        core.fast_forward_stalls(8, 33, &p, &mut NopSink);
        assert_eq!(core.stats.stall_scoreboard, 2);
        assert_eq!(core.stats.stall_lsu, 23);
    }

    #[test]
    fn next_event_with_only_barrier_warps_is_unbounded() {
        let mut core = test_core(2, 4);
        core.warps[0].barrier = Some((0, 2));
        let p = one_instr(Instr::Halt);
        assert_eq!(core.next_issue_cycle(5, &p), u64::MAX);
        core.fast_forward_stalls(6, 20, &p, &mut NopSink);
        assert_eq!(core.stats.stall_barrier, 14);
        assert_eq!(core.stats.stall_scoreboard, 0);
    }

    /// Integer sources, float sources, integer destination, float
    /// destination.
    type TwoFile = (Vec<u8>, Vec<u8>, Option<u8>, Option<u8>);

    /// The two-file operand walk the slot scoreboard replaced.
    fn two_file(i: &Instr) -> TwoFile {
        match *i {
            Instr::Lui { rd, .. } | Instr::Jal { rd, .. } | Instr::CsrRead { rd, .. } => {
                (vec![], vec![], Some(rd), None)
            }
            Instr::OpImm { rd, rs1, .. }
            | Instr::Lw { rd, rs1, .. }
            | Instr::Jalr { rd, rs1, .. } => (vec![rs1], vec![], Some(rd), None),
            Instr::Op { rd, rs1, rs2, .. }
            | Instr::MulDiv { rd, rs1, rs2, .. }
            | Instr::Amo { rd, rs1, rs2, .. } => (vec![rs1, rs2], vec![], Some(rd), None),
            Instr::Sw { rs1, rs2, .. }
            | Instr::Branch { rs1, rs2, .. }
            | Instr::Wspawn { rs1, rs2 }
            | Instr::Pred { rs1, rs2, .. }
            | Instr::Bar { rs1, rs2 } => (vec![rs1, rs2], vec![], None, None),
            Instr::Tmc { rs1 } | Instr::Split { rs1, .. } => (vec![rs1], vec![], None, None),
            Instr::Join { .. } | Instr::Halt | Instr::Print { .. } => (vec![], vec![], None, None),
            Instr::Flw { rd, rs1, .. } => (vec![rs1], vec![], None, Some(rd)),
            Instr::Fsw { rs1, rs2, .. } => (vec![rs1], vec![rs2], None, None),
            Instr::FpOp { rd, rs1, rs2, .. } => (vec![], vec![rs1, rs2], None, Some(rd)),
            Instr::FpUn { rd, rs1, .. } => (vec![], vec![rs1], None, Some(rd)),
            Instr::FpCmp { rd, rs1, rs2, .. } => (vec![], vec![rs1, rs2], Some(rd), None),
            Instr::FpCvt { op, rd, rs1 } => match op {
                CvtOp::F2I | CvtOp::F2U | CvtOp::MvF2X => (vec![], vec![rs1], Some(rd), None),
                CvtOp::I2F | CvtOp::U2F | CvtOp::MvX2F => (vec![rs1], vec![], None, Some(rd)),
            },
        }
    }

    /// One instance of every `Instr` variant (every `FpCvt` direction).
    fn every_variant(rd: u8, rs1: u8, rs2: u8) -> Vec<Instr> {
        let mut v = vec![
            Instr::Lui { rd, imm: 1 },
            Instr::OpImm {
                op: AluOp::Add,
                rd,
                rs1,
                imm: 1,
            },
            Instr::Op {
                op: AluOp::Add,
                rd,
                rs1,
                rs2,
            },
            Instr::MulDiv {
                op: MulOp::Mul,
                rd,
                rs1,
                rs2,
            },
            Instr::Lw { rd, rs1, imm: 0 },
            Instr::Sw { rs1, rs2, imm: 0 },
            Instr::Branch {
                cond: BranchCond::Eq,
                rs1,
                rs2,
                offset: 1,
            },
            Instr::Jal { rd, offset: 1 },
            Instr::Jalr { rd, rs1, imm: 0 },
            Instr::Flw { rd, rs1, imm: 0 },
            Instr::Fsw { rs1, rs2, imm: 0 },
            Instr::FpOp {
                op: FpOp::Add,
                rd,
                rs1,
                rs2,
            },
            Instr::FpUn {
                op: FpUnOp::Sqrt,
                rd,
                rs1,
            },
            Instr::FpCmp {
                op: FpCmpOp::Lt,
                rd,
                rs1,
                rs2,
            },
            Instr::Amo {
                op: AmoOp::Add,
                rd,
                rs1,
                rs2,
            },
            Instr::CsrRead {
                rd,
                csr: Csr::ThreadId,
            },
            Instr::Tmc { rs1 },
            Instr::Wspawn { rs1, rs2 },
            Instr::Split { rs1, else_off: 1 },
            Instr::Join { off: 1 },
            Instr::Pred {
                rs1,
                rs2,
                exit_off: 1,
            },
            Instr::Bar { rs1, rs2 },
            Instr::Print { fmt: 0 },
            Instr::Halt,
        ];
        for op in [
            CvtOp::F2I,
            CvtOp::F2U,
            CvtOp::MvF2X,
            CvtOp::I2F,
            CvtOp::U2F,
            CvtOp::MvX2F,
        ] {
            v.push(Instr::FpCvt { op, rd, rs1 });
        }
        v
    }

    #[test]
    fn slot_scoreboard_matches_the_two_file_walk() {
        let mut rng = repro_util::rng::Rng::new(0x5c0e);
        for _ in 0..300 {
            // Small register numbers, so x0/f0 and repeats come up often.
            let [rd, rs1, rs2] = [(); 3].map(|_| rng.below(4) as u8);
            let mut ready: Ready = [0; 64];
            for r in &mut ready[1..] {
                *r = rng.below(50);
            }
            for i in every_variant(rd, rs1, rs2) {
                let (ints, floats, idst, fdst) = two_file(&i);
                assert!(
                    ints.len() + floats.len() + idst.iter().len() + fdst.iter().len() <= 3,
                    "{i:?} needs more than 3 scoreboard slots"
                );
                let want = ints
                    .iter()
                    .chain(&idst)
                    .map(|&r| ready[r as usize])
                    .chain(floats.iter().chain(&fdst).map(|&r| ready[32 + r as usize]))
                    .max()
                    .unwrap_or(0);
                let ops = regs_of(&i);
                assert_eq!(ready_of(&ready, &ops), want, "{i:?}");
                let want_dst = match (idst, fdst) {
                    (Some(r), None) => r,
                    (None, Some(r)) => fslot(r),
                    (None, None) => 0,
                    (Some(_), Some(_)) => unreachable!("one destination per instruction"),
                };
                assert_eq!(ops.dst, want_dst, "{i:?}");
            }
        }
    }

    #[test]
    fn x0_never_blocks_and_is_never_marked() {
        let mut core = test_core(1, 4);
        core.reg_ready[0][1..].fill(500);
        let x0_only = Instr::Op {
            op: AluOp::Add,
            rd: abi::ZERO,
            rs1: abi::ZERO,
            rs2: abi::ZERO,
        };
        assert_eq!(core.operands_ready_at(0, &x0_only), 0, "x0 never blocks");
        core.mark_dest(0, &regs_of(&x0_only), 900);
        assert_eq!(core.reg_ready[0][0], 0, "x0 is never marked");
    }

    #[test]
    fn f0_destination_blocks_a_later_reader() {
        let mut core = test_core(1, 4);
        let write_f0 = Instr::FpUn {
            op: FpUnOp::Sqrt,
            rd: 0,
            rs1: 1,
        };
        core.mark_dest(0, &regs_of(&write_f0), 30);
        let read_f0 = Instr::FpOp {
            op: FpOp::Add,
            rd: 2,
            rs1: 3,
            rs2: 0,
        };
        assert_eq!(core.operands_ready_at(0, &read_f0), 30);
        let p = one_instr(read_f0);
        assert_eq!(core.next_issue_cycle(7, &p), 30);
        let read_x0 = Instr::Tmc { rs1: abi::ZERO };
        assert_eq!(core.operands_ready_at(0, &read_x0), 0, "f0 is not x0");
    }

    #[test]
    fn barrier_releases_exactly_at_count() {
        let mut core = test_core(4, 2);
        core.warps[1].active = true;
        core.warps[2].active = true;
        core.warps[0].barrier = Some((1, 3));
        core.barrier_arrive(0, 0, 1, 3, &mut NopSink);
        core.warps[1].barrier = Some((1, 3));
        core.barrier_arrive(0, 0, 1, 3, &mut NopSink);
        assert!(core.warps[0].barrier.is_some(), "2 of 3 arrived: parked");
        core.warps[2].barrier = Some((1, 3));
        core.barrier_arrive(0, 0, 1, 3, &mut NopSink);
        assert!(
            core.warps.iter().all(|w| w.barrier.is_none()),
            "third arrival releases the whole group"
        );
        assert!(core.barrier_waiters.is_empty());
    }

    #[test]
    fn wspawn_over_a_parked_warp_shrinks_its_barrier_group() {
        let mut core = test_core(4, 2);
        core.warps[1].active = true;
        core.warps[1].barrier = Some((0, 2));
        core.barrier_arrive(1, 0, 0, 2, &mut NopSink);
        // WSPAWN re-targets warp 1, abandoning its barrier slot.
        core.warps[1].barrier = None;
        core.barrier_leave((0, 2));
        // A later arrival must not see the abandoned slot as progress.
        core.warps[2].active = true;
        core.warps[2].barrier = Some((0, 2));
        core.barrier_arrive(1, 0, 0, 2, &mut NopSink);
        assert!(
            core.warps[2].barrier.is_some(),
            "group restarted from zero after the leave"
        );
    }

    #[test]
    fn alu_semantics() {
        assert_eq!(alu(AluOp::Add, 2, 3), 5);
        assert_eq!(alu(AluOp::Sub, 2, 3), u32::MAX);
        assert_eq!(alu(AluOp::Sra, 0x8000_0000, 31), u32::MAX);
        assert_eq!(alu(AluOp::Srl, 0x8000_0000, 31), 1);
        assert_eq!(alu(AluOp::Slt, u32::MAX, 0), 1, "-1 < 0 signed");
        assert_eq!(alu(AluOp::Sltu, u32::MAX, 0), 0);
    }

    #[test]
    fn muldiv_riscv_edge_cases() {
        assert_eq!(muldiv(MulOp::Div, 7, 0), u32::MAX);
        assert_eq!(muldiv(MulOp::Rem, 7, 0), 7);
        assert_eq!(
            muldiv(MulOp::Div, i32::MIN as u32, -1i32 as u32),
            i32::MIN as u32
        );
        assert_eq!(muldiv(MulOp::Mulh, -2i32 as u32, 3), u32::MAX);
        assert_eq!(muldiv(MulOp::Mulhu, 1 << 31, 2), 1);
    }

    #[test]
    fn amo_semantics() {
        assert_eq!(amo(AmoOp::Add, 5, 3), 8);
        assert_eq!(amo(AmoOp::Min, -5i32 as u32, 3), -5i32 as u32);
        assert_eq!(amo(AmoOp::Maxu, 5, u32::MAX), u32::MAX);
        assert_eq!(amo(AmoOp::Swap, 1, 2), 2);
    }
}
