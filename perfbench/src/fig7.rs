//! `fig7-sweep`: the paper's full Fig. 7 grid at paper scale, run through
//! `repro_core::fig7_grid` the way `repro fig7` runs it, with the compile
//! cache warm. Nearly all host time is the simulator's run loop, so this
//! workload moves with simulator speed and model changes and bypasses the
//! scheduler, serve and the compile pipeline. The cells are fixed by the
//! paper, so the seed does not change the inputs.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use fpga_arch::VortexConfig;
use ocl_suite::{benchmark, Scale, DEFAULT_OPT};
use repro_core::fig7::{fig7_grid, fig7_summary, Fig7Grid};
use repro_diag::ReproError;
use repro_util::{Json, ToJson};
use vortex_sim::{SimConfig, SimStats};

use crate::setup::Setup;
use crate::trace::{self, Recorder};
use crate::{cpu, oracle, replay, setup, stats, Ctx, Outcome};

const KERNELS: [&str; 2] = ["Vecadd", "Transpose"];
const CORES: u32 = 4;
const WARPS: [u32; 4] = [2, 4, 8, 16];
const THREADS: [u32; 4] = [2, 4, 8, 16];
const CELLS: usize = KERNELS.len() * WARPS.len() * THREADS.len();
/// Every run measures at least this many sweeps, however short `--seconds`.
const MIN_SWEEPS: usize = 3;

pub fn params() -> Json {
    Json::obj(vec![
        ("kernels", KERNELS.to_vec().to_json()),
        ("cores", CORES.to_json()),
        ("warps", WARPS.to_vec().to_json()),
        ("threads", THREADS.to_vec().to_json()),
        ("scale", "paper".to_json()),
        ("opt", DEFAULT_OPT.flag_name().to_json()),
    ])
}

pub fn run(ctx: &Ctx) -> Result<Outcome, ReproError> {
    let budget = if ctx.trace {
        ctx.seconds / 2.0
    } else {
        ctx.seconds
    };
    let (exec, mut setup) = setup::start(1, budget, |cache| {
        for name in KERNELS {
            let b = benchmark(name).expect("Fig. 7 kernels are suite benchmarks");
            for t in THREADS {
                cache.codegen_vortex(b.source, Some(DEFAULT_OPT), t)?;
            }
        }
        Ok(())
    })?;
    let mut out = Outcome::new(params());
    let sweeps = untraced_sweeps(budget, &mut setup, &mut out);
    let samples = setup.samples(&mut out);
    out.setup(&samples);
    let secs: Vec<f64> = sweeps.iter().map(|s| s.secs).collect();
    let cpu_secs: Vec<f64> = sweeps.iter().map(|s| s.cpu_secs).collect();
    let sweep_s = stats::median(&secs);
    let ms = |xs: &[f64]| xs.iter().map(|s| s * 1e3).collect::<Vec<_>>();
    out.latency(&ms(&cpu_secs), &ms(&secs));
    // Throughput at the median sweep: a few slow seconds on a shared host
    // move it no more than they move the median.
    out.metric("ops_per_cpu_s", CELLS as f64 / stats::median(&cpu_secs));
    out.named("ops_per_s", CELLS as f64 / sweep_s, "1/s");

    let reference = sweeps.iter().find_map(|s| s.grids.as_ref());
    if let Some((va, tr)) = reference {
        let summary = fig7_summary(va, tr);
        let err = oracle::fig7_err_pts(&summary);
        let cycles: u64 = va.cells.iter().chain(&tr.cells).map(|c| c.cycles).sum();
        for g in [va, tr] {
            for c in &g.cells {
                out.counts.record(
                    format!("cycles/{}/{}w{}t", g.benchmark, c.warps, c.threads),
                    c.cycles,
                );
            }
        }
        out.counts.record("fig7_err_pts", format!("{err:.9}"));
        out.metric("fig7.err_pts", err);
        out.metric(
            "fig7.optima_matched",
            f64::from(oracle::fig7_optima_matched(&summary)),
        );
        out.metric("fig7.sim_mcycles_per_s", cycles as f64 / sweep_s / 1e6);
        out.named("sweep_s", sweep_s, "s");
        out.named(
            "sim_mcycles_per_s",
            cycles as f64 / sweep_s / 1e6,
            "Mcycles/s",
        );
        out.named("fig7_err_pts", err, "pts");
        out.extra("fig7_summary", summary_json(&summary));
        if ctx.trace {
            traced_phase(ctx, budget, va, tr, sweep_s, &mut out);
        }
    }
    drop(exec);
    Ok(out)
}

struct Sweep {
    secs: f64,
    /// CPU seconds of all the sweep's threads.
    cpu_secs: f64,
    grids: Option<(Fig7Grid, Fig7Grid)>,
}

/// Sweep the grid through `fig7_grid` until `budget` seconds have passed.
/// Every cell's workload check runs inside; a failing check panics the
/// sweep, which counts all its cells as failed. Cycle counts must repeat
/// exactly from sweep to sweep.
fn untraced_sweeps(budget: f64, setup: &mut Setup, out: &mut Outcome) -> Vec<Sweep> {
    let started = Instant::now();
    let mut sweeps: Vec<Sweep> = Vec::new();
    while sweeps.len() < MIN_SWEEPS || started.elapsed().as_secs_f64() < budget {
        let (t, cpu0) = (Instant::now(), cpu::process_ns());
        let grids = std::panic::catch_unwind(|| {
            let va = fig7_grid(KERNELS[0], CORES, &WARPS, &THREADS, Scale::Paper);
            let tr = fig7_grid(KERNELS[1], CORES, &WARPS, &THREADS, Scale::Paper);
            (va, tr)
        });
        let secs = t.elapsed().as_secs_f64();
        let cpu_secs = (cpu::process_ns() - cpu0) as f64 / 1e9;
        out.attempted += CELLS as u64;
        let grids = match grids {
            Ok(g) => Some(g),
            Err(_) => {
                out.fail(CELLS as u64, "a Fig. 7 sweep panicked".to_string());
                None
            }
        };
        if let (Some((va, tr)), Some((rva, rtr))) =
            (&grids, sweeps.iter().find_map(|s: &Sweep| s.grids.as_ref()))
        {
            for (g, r) in [(va, rva), (tr, rtr)] {
                for (c, rc) in g.cells.iter().zip(&r.cells) {
                    if c.cycles != rc.cycles {
                        out.fail(
                            1,
                            format!(
                                "{} {}w{}t: {} cycles, first sweep {}",
                                g.benchmark, c.warps, c.threads, c.cycles, rc.cycles
                            ),
                        );
                    }
                }
            }
        }
        sweeps.push(Sweep {
            secs,
            cpu_secs,
            grids,
        });
        setup.tick(out);
    }
    sweeps
}

fn summary_json(s: &repro_core::fig7::Fig7Summary) -> Json {
    let ours = oracle::fig7_degradation(s);
    Json::Array(
        oracle::PAPER_FIG7_DEGRADATION
            .iter()
            .zip(ours)
            .map(|(&(cell, paper), ours)| {
                Json::obj(vec![
                    ("cell", cell.to_json()),
                    ("paper_pct", paper.to_json()),
                    ("ours_pct", ours.to_json()),
                ])
            })
            .collect(),
    )
}

/// One traced worker thread's spans and cell results, by cell index.
type WorkerRun = (Vec<trace::Span>, Vec<(usize, Result<SimStats, ReproError>)>);

/// The traced sweep: the same 32 cells, on as many threads as `fig7_grid`
/// uses, each cell replaying `run_vortex`'s steps as spanned calls.
fn traced_phase(
    ctx: &Ctx,
    budget: f64,
    va: &Fig7Grid,
    tr: &Fig7Grid,
    untraced_sweep_s: f64,
    out: &mut Outcome,
) {
    let cells: Vec<(&str, u32, u32, u64)> = [va, tr]
        .iter()
        .zip(KERNELS)
        .flat_map(|(g, name)| {
            g.cells
                .iter()
                .map(move |c| (name, c.warps, c.threads, c.cycles))
        })
        .collect();
    let epoch = Instant::now();
    let hits_before = repro_cache::global().stats();
    let mut span_parts = Vec::new();
    let mut sweep_secs = Vec::new();
    let mut sweep_stats: Option<Vec<SimStats>> = None;
    let workers = crate::header::nproc().min(cells.len());
    while sweep_secs.len() < MIN_SWEEPS || epoch.elapsed().as_secs_f64() < budget {
        let t = Instant::now();
        let next = AtomicUsize::new(0);
        let results: Vec<WorkerRun> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..workers)
                .map(|tid| {
                    let (next, cells) = (&next, &cells);
                    s.spawn(move || {
                        let mut rec = Recorder::new(epoch, tid as u32);
                        let mut done = Vec::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            let Some(&(name, w, th, _)) = cells.get(i) else {
                                break;
                            };
                            let b = benchmark(name).expect("Fig. 7 kernels are suite benchmarks");
                            let cfg = SimConfig::new(VortexConfig::new(CORES, w, th));
                            let r = rec.scope("cell", |rec| {
                                replay::vortex(rec, &b, Scale::Paper, cfg, DEFAULT_OPT)
                            });
                            done.push((i, r));
                        }
                        (rec.into_spans(), done)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("traced Fig. 7 worker panicked"))
                .collect()
        });
        sweep_secs.push(t.elapsed().as_secs_f64());
        let mut per_cell: Vec<Option<SimStats>> = vec![None; cells.len()];
        for (spans, done) in results {
            span_parts.push(spans);
            for (i, r) in done {
                out.attempted += 1;
                let (name, w, th, want) = cells[i];
                match r {
                    Ok(s) if s.cycles == want => per_cell[i] = Some(s),
                    Ok(s) => out.fail(
                        1,
                        format!(
                            "traced {name} {w}w{th}t: {} cycles, fig7_grid {want}",
                            s.cycles
                        ),
                    ),
                    Err(e) => out.fail(1, format!("traced {name} {w}w{th}t: {e}")),
                }
            }
        }
        if sweep_stats.is_none() && per_cell.iter().all(Option::is_some) {
            sweep_stats = Some(per_cell.into_iter().flatten().collect());
        }
    }
    let hits_after = repro_cache::global().stats();
    let spans = trace::merge(span_parts);

    let med = |name: &str| stats::median(&trace::durations(&spans, name));
    out.metric("suite.workload_ms", med("suite.workload") / 1e6);
    out.metric("suite.verify_us", med("suite.verify") / 1e3);
    out.metric("vortex_rt.setup_us", med("vortex_rt.setup") / 1e3);
    out.metric("vortex_rt.launch_ms", med("vortex_rt.launch") / 1e6);
    out.metric("vortex_rt.readback_us", med("vortex_rt.readback") / 1e3);
    out.metric("cache.hit_us", med("cache.hit") / 1e3);
    let lookups =
        (hits_after.hits() + hits_after.misses) - (hits_before.hits() + hits_before.misses);
    if lookups > 0 {
        out.metric(
            "cache.hit_ratio",
            (hits_after.hits() - hits_before.hits()) as f64 / lookups as f64,
        );
    }
    if let Some(per_cell) = &sweep_stats {
        let total = per_cell
            .iter()
            .fold(SimStats::default(), |acc, s| replay::add(&acc, s));
        let launch_ns: f64 = trace::durations(&spans, "vortex_rt.launch").iter().sum();
        let traced_cycles = total.cycles as f64 * sweep_secs.len() as f64;
        out.metric("vortex_sim.host_ns_per_cycle", launch_ns / traced_cycles);
        sim_counts(&total, out);
        for (&(name, w, th, _), s) in cells.iter().zip(per_cell) {
            out.counts
                .record(format!("simstats/{name}/{w}w{th}t"), format!("{s:?}"));
        }
    }
    let traced_sweep_s = stats::median(&sweep_secs);
    out.metric(
        "trace.overhead_pct",
        100.0 * (traced_sweep_s - untraced_sweep_s) / untraced_sweep_s,
    );
    out.set_spans(spans, ctx);
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Exact simulator counts of one whole sweep (all 32 cells summed).
fn sim_counts(s: &SimStats, out: &mut Outcome) {
    out.metric("vortex_sim.cycles", s.cycles as f64);
    out.metric("vortex_sim.instructions", s.instructions as f64);
    out.metric("vortex_sim.ipc", ratio(s.instructions, s.cycles));
    out.metric("vortex_sim.stall_scoreboard", s.stall_scoreboard as f64);
    out.metric("vortex_sim.stall_lsu", s.stall_lsu as f64);
    out.metric("vortex_sim.stall_barrier", s.stall_barrier as f64);
    out.metric("vortex_sim.stall_idle", s.stall_idle as f64);
    out.metric(
        "vortex_sim.dcache_hit_ratio",
        ratio(s.dcache_hits, s.dcache_hits + s.dcache_misses),
    );
    out.metric(
        "vortex_sim.l2_hit_ratio",
        ratio(s.l2_hits, s.l2_hits + s.l2_misses),
    );
    out.metric("vortex_sim.dram_accesses", s.dram_accesses as f64);
    out.metric(
        "vortex_sim.dram_row_hit_ratio",
        ratio(s.dram_row_hits, s.dram_accesses),
    );
}
