//! Differential harness for the simulator's two run loops: run each
//! benchmark under the dense reference loop (`SimConfig::reference_mode`)
//! and the epoch loop at 1, 2 and 4 worker threads (`SimConfig::sim_threads`)
//! and require *bit-identical* results — per-launch cycle counts, the full
//! stall breakdown, cache/DRAM counters, final buffer contents, printf
//! output, and canonical per-core trace events — both for runs that finish
//! and for runs whose instruction budget trips.
//!
//! The benchmark set is chosen to cover the stall sources the scheduler
//! reasons about: vecadd/transpose (MSHR/LSU pressure and DRAM row
//! behavior), dotproduct and backprop (BAR barriers and WSPAWN fan-out,
//! multi-kernel launches), gaussian (divergent control flow with long
//! dependence chains), across single- and multi-core shapes.

use fpga_gpu_repro::arch::VortexConfig;
use fpga_gpu_repro::suite::{
    benchmark, run_vortex_events, run_vortex_trace, Benchmark, LArg, Scale, DEFAULT_OPT,
};
use fpga_gpu_repro::vrt::{Arg, RtError, VxSession};
use fpga_gpu_repro::vsim::{
    canonical_core_events, RecordingSink, SimConfig, SimError, SimStats, TraceEvent,
};

// Shapes must satisfy each benchmark's group-size constraint (dotproduct
// runs 16-wide work groups, backprop 64-wide: the group must be a multiple
// of threads/warp and fit in warps×threads).
type Shape = (u32, u32, u32);

const SHAPES: &[Shape] = &[(1, 4, 4), (1, 2, 8), (2, 4, 8), (2, 8, 16), (1, 16, 4)];
const WIDE_SHAPES: &[Shape] = &[(1, 8, 8), (1, 4, 16), (2, 8, 8), (2, 16, 4)];

fn bench_matrix() -> Vec<(&'static str, &'static [Shape])> {
    vec![
        ("Vecadd", SHAPES),
        ("Dotproduct", SHAPES),
        ("Transpose", SHAPES),
        ("Gaussian", SHAPES),
        ("Backprop", WIDE_SHAPES),
    ]
}

#[test]
fn fast_forward_is_bit_identical_to_dense_loop() {
    for (name, shapes) in bench_matrix() {
        let b = benchmark(name).expect("benchmark exists");
        for &(c, w, t) in shapes {
            let mut fast_cfg = SimConfig::new(VortexConfig::new(c, w, t));
            assert!(!fast_cfg.reference_mode, "fast-forward must be the default");
            let fast = run_vortex_trace(&b, Scale::Test, &fast_cfg)
                .unwrap_or_else(|e| panic!("{name} {c}c{w}w{t}t fast: {e}"));

            fast_cfg.reference_mode = true;
            let dense = run_vortex_trace(&b, Scale::Test, &fast_cfg)
                .unwrap_or_else(|e| panic!("{name} {c}c{w}w{t}t dense: {e}"));

            assert_eq!(
                fast.launch_stats, dense.launch_stats,
                "{name} {c}c{w}w{t}t: stats diverge between schedulers"
            );
            assert_eq!(
                fast.buffers, dense.buffers,
                "{name} {c}c{w}w{t}t: final memory diverges between schedulers"
            );
            assert_eq!(
                fast.printf_output, dense.printf_output,
                "{name} {c}c{w}w{t}t: printf output diverges between schedulers"
            );
        }
    }
}

/// Both run loops — dense reference, and the traced epoch loop inline and
/// at 2 and 4 worker threads — must agree
/// bit-for-bit on every observable: launch stats (cycles, stall breakdown,
/// cache/DRAM counters), final memory, printf output, and the canonical
/// per-core trace event stream. The dense loop is the oracle; each
/// configuration's raw event stream is canonicalized per core (bulk spans
/// merged) before comparison, which is exactly the equivalence the epoch
/// design promises.
#[test]
fn all_loops_bit_identical_across_sim_threads() {
    for (name, shapes) in bench_matrix() {
        let b = benchmark(name).expect("benchmark exists");
        for &(c, w, t) in shapes {
            let mut cfg = SimConfig::new(VortexConfig::new(c, w, t));
            cfg.reference_mode = true;
            let (oracle, oracle_events) = run_vortex_events(&b, Scale::Test, &cfg)
                .unwrap_or_else(|e| panic!("{name} {c}c{w}w{t}t dense: {e}"));
            let canon = |launches: &Vec<Vec<fpga_gpu_repro::vsim::TraceEvent>>| -> Vec<_> {
                launches
                    .iter()
                    .map(|evs| {
                        (0..c)
                            .map(|core| canonical_core_events(evs, core))
                            .collect::<Vec<_>>()
                    })
                    .collect()
            };
            let oracle_canon = canon(&oracle_events);
            for threads in [1u32, 2, 4] {
                let mut cfg = SimConfig::new(VortexConfig::new(c, w, t));
                cfg.sim_threads = threads;
                let (got, got_events) = run_vortex_events(&b, Scale::Test, &cfg)
                    .unwrap_or_else(|e| panic!("{name} {c}c{w}w{t}t {threads}thr: {e}"));
                let what = format!("{name} {c}c{w}w{t}t at {threads} sim threads");
                assert_eq!(got.launch_stats, oracle.launch_stats, "{what}: stats");
                assert_eq!(got.buffers, oracle.buffers, "{what}: final memory");
                assert_eq!(got.printf_output, oracle.printf_output, "{what}: printf");
                assert_eq!(canon(&got_events), oracle_canon, "{what}: trace events");
            }
        }
    }
}

/// Everything a run leaves behind when it stops at its first fault (or
/// finishes): each launch's stats (the faulting launch's partial ones),
/// the fault, each launch's canonical per-core events, printf output and
/// final memory.
#[derive(Debug, PartialEq)]
struct Stopped {
    stats: Vec<SimStats>,
    error: Option<SimError>,
    events: Vec<Vec<Vec<TraceEvent>>>,
    printf: Vec<String>,
    buffers: Vec<Vec<u32>>,
}

/// Run every launch of `b` at test scale under `cfg`, stopping at the
/// first fault. A launch's stall spans are clipped at its final cycle: the
/// epoch loop charges a stall span in full when it opens, and a budget trip
/// inside the span corrects the counters but not the event already sent.
fn run_until_fault(b: &Benchmark, cfg: &SimConfig) -> Stopped {
    let kernels = fpga_gpu_repro::cache::global()
        .codegen_vortex(b.source, Some(DEFAULT_OPT), cfg.hw.threads)
        .expect("benchmark compiles");
    let w = (b.workload)(Scale::Test);
    let mut sess = VxSession::with_kernels(cfg.clone(), kernels);
    let bufs: Vec<_> = w
        .buffers
        .iter()
        .map(|h| sess.alloc_u32(&h.to_words()).expect("device alloc"))
        .collect();
    let mut out = Stopped {
        stats: Vec::new(),
        error: None,
        events: Vec::new(),
        printf: Vec::new(),
        buffers: Vec::new(),
    };
    for l in &w.launches {
        let args: Vec<Arg> = l
            .args
            .iter()
            .map(|a| match *a {
                LArg::Buf(i) => Arg::Buf(bufs[i]),
                LArg::I32(v) => Arg::I32(v),
                LArg::U32(v) => Arg::U32(v),
                LArg::F32(v) => Arg::F32(v),
            })
            .collect();
        let mut sink = RecordingSink::default();
        let (r, error) = match sess.launch_named_with_sink(l.kernel, &args, &l.nd, &mut sink) {
            Ok(r) => (r, None),
            Err(RtError::Fault(f)) => (f.partial, Some(f.error)),
            Err(e) => panic!("{}: launch {}: {e}", b.name, l.kernel),
        };
        let end = r.stats.cycles;
        let clipped: Vec<TraceEvent> = sink
            .events
            .iter()
            .filter_map(|ev| match *ev {
                TraceEvent::Stall { from, .. } if from >= end => None,
                TraceEvent::Stall {
                    core,
                    kind,
                    from,
                    to,
                } => Some(TraceEvent::Stall {
                    core,
                    kind,
                    from,
                    to: to.min(end),
                }),
                other => Some(other),
            })
            .collect();
        out.events.push(
            (0..cfg.hw.cores)
                .map(|core| canonical_core_events(&clipped, core))
                .collect(),
        );
        out.stats.push(r.stats);
        out.printf.extend(r.printf_output);
        if error.is_some() {
            out.error = error;
            break;
        }
    }
    out.buffers = w
        .buffers
        .iter()
        .zip(&bufs)
        .map(|(h, &buf)| sess.read_u32(buf, h.words()).expect("readback"))
        .collect();
    out
}

/// Budgeted runs that trip: the instruction budget is half the busiest
/// launch's work, checked every 128 cycles (so test-scale launches cross
/// several boundaries) and at the default epoch length. The dense loop and
/// the epoch loop at 1, 2 and 4 threads must stop with the same error, at
/// the same cycle, with identical partial stats, canonical events, printf
/// output and memory — on single- and multi-core machines alike.
#[test]
fn budget_trips_are_bit_identical_across_loops_and_threads() {
    let mut trips = 0;
    for (name, shapes) in bench_matrix() {
        let b = benchmark(name).expect("benchmark exists");
        for &(c, w, t) in shapes {
            for epoch in [128u64, 2048] {
                let mut cfg = SimConfig::new(VortexConfig::new(c, w, t));
                cfg.epoch_cycles = epoch;
                cfg.reference_mode = true;
                let clean = run_until_fault(&b, &cfg);
                assert_eq!(
                    clean.error, None,
                    "{name} {c}c{w}w{t}t: unbudgeted run faulted"
                );
                let busiest = clean.stats.iter().map(|s| s.instructions).max().unwrap();
                cfg.max_instructions = busiest / 2;
                let oracle = run_until_fault(&b, &cfg);
                if oracle.error.is_some() {
                    assert_eq!(oracle.error, Some(SimError::InstrLimit(busiest / 2)));
                    let tripped = oracle.stats.last().unwrap();
                    assert!(
                        tripped.cycles.is_multiple_of(epoch),
                        "trips land on a boundary"
                    );
                    trips += 1;
                }
                cfg.reference_mode = false;
                for threads in [1u32, 2, 4] {
                    cfg.sim_threads = threads;
                    let got = run_until_fault(&b, &cfg);
                    assert_eq!(
                        got,
                        oracle,
                        "{name} {c}c{w}w{t}t, epoch {epoch}, budget {}, {threads} threads",
                        busiest / 2
                    );
                }
            }
        }
    }
    assert!(trips >= 20, "only {trips} budgeted runs tripped");
}

/// The stall breakdown must tile the timeline in both modes: every cycle a
/// core is live is either an issue or exactly one kind of stall, so the
/// bulk-accounted fast path can't silently drop or double-count cycles.
#[test]
fn stall_breakdown_accounts_for_every_cycle_single_core() {
    for &name in &["Vecadd", "Dotproduct", "Gaussian"] {
        let b = benchmark(name).expect("benchmark exists");
        let cfg = SimConfig::new(VortexConfig::new(1, 4, 8));
        let trace =
            run_vortex_trace(&b, Scale::Test, &cfg).unwrap_or_else(|e| panic!("{name}: {e}"));
        for (li, s) in trace.launch_stats.iter().enumerate() {
            let accounted =
                s.instructions + s.stall_scoreboard + s.stall_lsu + s.stall_barrier + s.stall_idle;
            assert_eq!(
                accounted, s.cycles,
                "{name} launch {li}: {} issued + stalled cycles vs {} total",
                accounted, s.cycles
            );
        }
    }
}
