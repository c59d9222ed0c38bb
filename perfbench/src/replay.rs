//! Spanned replays of one suite benchmark on each back end.
//!
//! These repeat the steps of `ocl_suite::run_vortex_at`, `run_on_interp`
//! and `run_hls_at` as separate calls into each layer's public API, so the
//! traced run can time every layer from outside the program. Results must
//! equal the program's own: the callers compare them.

use fpga_arch::Device;
use ocl_ir::interp::{self, KernelArg, Limits, Memory};
use ocl_ir::passes::OptLevel;
use ocl_suite::{Benchmark, HostData, LArg, Scale, Workload};
use repro_diag::ReproError;
use repro_sched::JobStats;
use vortex_rt::{Arg, VxSession};
use vortex_sim::{SimConfig, SimStats};

use crate::trace::Recorder;

/// Interpreter and HLS model memory size, as the suite runner uses.
const MEMORY_BYTES: u32 = 32 << 20;

fn verify(rec: &mut Recorder, wl: &Workload, words: Vec<Vec<u32>>) -> Result<(), ReproError> {
    rec.time("suite.verify", || {
        let finals: Vec<HostData> = wl
            .buffers
            .iter()
            .zip(words)
            .map(|(h, w)| h.from_words(w))
            .collect();
        (wl.check)(&finals)
    })
    .map_err(|message| ReproError::WrongResult { message })
}

/// Vortex flow: cache lookup, workload, session set-up, launches,
/// readback, verification. Returns the summed statistics of all launches.
pub fn vortex(
    rec: &mut Recorder,
    b: &Benchmark,
    scale: Scale,
    cfg: SimConfig,
    level: OptLevel,
) -> Result<SimStats, ReproError> {
    let kernels = rec.time("cache.hit", || {
        repro_cache::global().codegen_vortex(b.source, Some(level), cfg.hw.threads)
    })?;
    let wl = rec.time("suite.workload", || (b.workload)(scale));
    let (mut sess, bufs) = rec.time("vortex_rt.setup", || {
        let mut sess = VxSession::with_kernels(cfg, kernels);
        let bufs = wl
            .buffers
            .iter()
            .map(|h| sess.alloc_u32(&h.to_words()))
            .collect::<Result<Vec<_>, _>>();
        (sess, bufs)
    });
    let bufs = bufs?;
    let mut total = SimStats::default();
    for l in &wl.launches {
        let args: Vec<Arg> = l
            .args
            .iter()
            .map(|a| match a {
                LArg::Buf(i) => Arg::Buf(bufs[*i]),
                LArg::I32(v) => Arg::I32(*v),
                LArg::U32(v) => Arg::U32(*v),
                LArg::F32(v) => Arg::F32(*v),
            })
            .collect();
        let r = rec.time("vortex_rt.launch", || {
            sess.launch_named(l.kernel, &args, &l.nd)
        })?;
        total = add(&total, &r.stats);
    }
    let words = rec.time("vortex_rt.readback", || {
        wl.buffers
            .iter()
            .zip(&bufs)
            .map(|(h, &buf)| sess.read_u32(buf, h.words()))
            .collect::<Result<Vec<_>, _>>()
    })?;
    verify(rec, &wl, words)?;
    Ok(total)
}

/// Which IR executor runs the launches.
pub enum Executes<'a> {
    Interp,
    Hls(&'a Device),
}

/// Reference interpreter or HLS pipelined model. The HLS flow first looks
/// up its synthesis outcome; a Table I ✗ ends the job with that failure.
pub fn ir(
    rec: &mut Recorder,
    b: &Benchmark,
    scale: Scale,
    level: OptLevel,
    on: Executes,
) -> Result<JobStats, ReproError> {
    if let Executes::Hls(device) = on {
        let synth = rec.time("cache.hit", || {
            repro_cache::global().synthesize_hls(b.source, device)
        })?;
        synth?;
    }
    let module = rec.time("cache.hit", || {
        repro_cache::global().optimize(b.source, level)
    })?;
    let wl = rec.time("suite.workload", || (b.workload)(scale));
    let mut mem = Memory::new(MEMORY_BYTES);
    let addrs: Vec<u32> = wl
        .buffers
        .iter()
        .map(|h| mem.try_alloc_u32(&h.to_words()))
        .collect::<Result<_, _>>()?;
    let mut stats = JobStats::default();
    for l in &wl.launches {
        let kernel = module
            .kernel(l.kernel)
            .ok_or_else(|| ReproError::harness(format!("kernel `{}` missing", l.kernel)))?;
        let args: Vec<KernelArg> = l
            .args
            .iter()
            .map(|a| match a {
                LArg::Buf(i) => KernelArg::Ptr(addrs[*i]),
                LArg::I32(v) => KernelArg::I32(*v),
                LArg::U32(v) => KernelArg::U32(*v),
                LArg::F32(v) => KernelArg::F32(*v),
            })
            .collect();
        match on {
            Executes::Interp => {
                let r = rec.time("ir.interp", || {
                    interp::run_ndrange(kernel, &args, &l.nd, &mut mem, &Limits::default())
                })?;
                stats.instructions += r.steps;
            }
            Executes::Hls(device) => {
                let r = rec.time("hls.execute", || {
                    hls_flow::execute_ndrange(kernel, &args, &l.nd, &mut mem, device)
                })?;
                stats.cycles += r.cycles;
                stats.instructions += r.exec.steps;
            }
        }
    }
    let words = wl
        .buffers
        .iter()
        .zip(&addrs)
        .map(|(h, &a)| mem.read_u32_slice(a, h.words()))
        .collect();
    verify(rec, &wl, words)?;
    Ok(stats)
}

pub fn add(a: &SimStats, b: &SimStats) -> SimStats {
    SimStats {
        cycles: a.cycles + b.cycles,
        instructions: a.instructions + b.instructions,
        stall_scoreboard: a.stall_scoreboard + b.stall_scoreboard,
        stall_lsu: a.stall_lsu + b.stall_lsu,
        stall_barrier: a.stall_barrier + b.stall_barrier,
        stall_idle: a.stall_idle + b.stall_idle,
        loads: a.loads + b.loads,
        stores: a.stores + b.stores,
        dcache_hits: a.dcache_hits + b.dcache_hits,
        dcache_misses: a.dcache_misses + b.dcache_misses,
        l2_hits: a.l2_hits + b.l2_hits,
        l2_misses: a.l2_misses + b.l2_misses,
        dram_accesses: a.dram_accesses + b.dram_accesses,
        dram_row_hits: a.dram_row_hits + b.dram_row_hits,
    }
}
