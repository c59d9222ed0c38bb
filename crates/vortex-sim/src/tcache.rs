//! Pre-decoded macro-op trace cache.
//!
//! The issue scan and the execute stage used to re-derive the scoreboard
//! operands (`regs_of`) and the memory-op classification of the *same*
//! instruction every cycle a warp sat at a PC. Kernel code is immutable per
//! launch, so each core instead decodes straight-line runs once — on first
//! touch of a PC the whole run from there to the next instruction that can
//! redirect or stall the warp (branch/jump/SIMT op/barrier/memory op/halt)
//! is fused into per-PC [`MacroOp`] slots with the operands and the
//! memory-op flag pre-resolved. The hot loop then dispatches over a flat
//! `Vec` lookup; nothing is ever invalidated within a launch, and
//! [`crate::Simulator::set_program`] drops the cache when the loaded binary
//! actually changes.
//!
//! The cache is not constructed in `reference_mode` (the dense loop is the
//! semantic baseline and stays on the from-scratch decode path), which the
//! zero-overhead tests assert.

use crate::core::{is_mem, regs_of, Operands};
use vortex_isa::{Instr, Program};

/// One pre-decoded instruction: the raw instruction plus everything the
/// per-cycle paths would otherwise re-derive from it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct MacroOp {
    pub instr: Instr,
    pub ops: Operands,
    pub is_mem: bool,
}

impl MacroOp {
    /// From-scratch decode of one instruction: what a cache fill stores,
    /// and all `reference_mode` ever uses.
    pub fn decode(instr: Instr) -> MacroOp {
        MacroOp {
            instr,
            ops: regs_of(&instr),
            is_mem: is_mem(&instr),
        }
    }
}

/// Per-core trace cache: one slot per PC, filled a straight-line run at a
/// time. Counters feed the `sim.trace_cache.*` metrics.
#[derive(Debug)]
pub(crate) struct TraceCache {
    slots: Vec<Option<MacroOp>>,
    pub hits: u64,
    pub misses: u64,
    /// Macro-ops decoded across all runs (Σ run lengths).
    pub fused_ops: u64,
    /// Straight-line runs decoded.
    pub runs: u64,
}

/// True if `i` ends a straight-line run: anything that can redirect the
/// warp's PC, change its thread mask, park it, or stall in the LSU.
fn ends_run(i: &Instr) -> bool {
    is_mem(i)
        || matches!(
            i,
            Instr::Branch { .. }
                | Instr::Jal { .. }
                | Instr::Jalr { .. }
                | Instr::Split { .. }
                | Instr::Join { .. }
                | Instr::Pred { .. }
                | Instr::Tmc { .. }
                | Instr::Wspawn { .. }
                | Instr::Bar { .. }
                | Instr::Print { .. }
                | Instr::Halt
        )
}

impl TraceCache {
    pub fn new(program_len: usize) -> Self {
        TraceCache {
            slots: vec![None; program_len],
            hits: 0,
            misses: 0,
            fused_ops: 0,
            runs: 0,
        }
    }

    /// The macro-op at `pc`, decoding its straight-line run on first touch.
    /// `None` means the PC is outside the program (the caller raises the
    /// same `BadPc` the raw fetch would). The caller copies the slot
    /// straight into its issue snapshot.
    #[inline]
    pub fn get(&mut self, pc: u32, program: &Program) -> Option<&MacroOp> {
        let i = pc as usize;
        match self.slots.get(i)? {
            Some(_) => self.hits += 1,
            None => self.fill_run(i, program),
        }
        self.slots[i].as_ref()
    }

    /// Decode the straight-line run starting at `pc` into the cache. Stops
    /// at (and includes) the first run-ending instruction, at the end of
    /// the program, or where it meets an already-decoded slot.
    #[cold]
    fn fill_run(&mut self, pc: usize, program: &Program) {
        self.misses += 1;
        self.runs += 1;
        let mut j = pc;
        loop {
            let m = MacroOp::decode(program.instrs[j]);
            self.slots[j] = Some(m);
            self.fused_ops += 1;
            if ends_run(&m.instr) {
                break;
            }
            j += 1;
            if j >= self.slots.len() || self.slots[j].is_some() {
                break;
            }
        }
    }
}
