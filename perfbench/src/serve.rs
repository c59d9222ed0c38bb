//! `serve-mix`: one client in a closed loop on one connection to
//! `repro_core::serve_lines`, backed by a 2-worker executor, with live
//! observability armed as `repro serve` arms it. The seed draws a stream of
//! test-scale batches over the 28 benchmarks × {vortex, interp, hls} ×
//! {basic, reuse, loop} × a few machine configurations, with a
//! `{"cmd":"stats"}` poll every few batches as `repro top` sends. Jobs take
//! 0.1–10 ms, so the fixed per-job costs (NDJSON parse and write, queueing,
//! cache-hit decode, span trees, metric recording) are a visible share.
//! The traced run ends with cold compiles (`compile.rs`): the cache's miss
//! path beside the hit path the loop exercises.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::time::Instant;

use fpga_arch::Device;
use ocl_ir::passes::OptLevel;
use ocl_suite::{all_benchmarks, benchmark, instantiate, run_oneshot, Scale, DEFAULT_OPT};
use repro_core::{serve_lines, ServeOptions};
use repro_diag::ReproError;
use repro_sched::{Executor, Flow, JobRequest, JobStats, Payload};
use repro_util::{Json, Rng, ToJson};

use crate::replay::{self, Executes};
use crate::setup::Setup;
use crate::trace::{self, Recorder};
use crate::{compile, cpu, oracle, setup, stats, Ctx, Outcome};

const WORKERS: usize = 2;
const FLOWS: [Flow; 3] = [Flow::Vortex, Flow::Interp, Flow::Hls];
const OPTS: [OptLevel; 3] = [OptLevel::Basic, OptLevel::VariableReuse, OptLevel::Loop];
/// Simulated machines as (cores, warps, threads). Each has 64 lanes per
/// core: Backprop's group-mode kernels need a whole 64-item group on one
/// core.
const CONFIGS: [(u32, u32, u32); 3] = [(1, 4, 16), (2, 8, 8), (4, 4, 16)];
const BATCH_JOBS: (u64, u64) = (4, 32);
/// A stats poll follows every this many batches.
const STATS_EVERY: u64 = 4;
/// Mixed into the seed so this stream differs from other seeded draws.
const STREAM_SALT: u64 = 0x5e12_7e00_0000_0001;

pub fn params() -> Json {
    Json::obj(vec![
        ("workers", (WORKERS as u64).to_json()),
        (
            "flows",
            FLOWS.iter().map(|f| f.name()).collect::<Vec<_>>().to_json(),
        ),
        (
            "opts",
            OPTS.iter()
                .map(|o| o.flag_name())
                .collect::<Vec<_>>()
                .to_json(),
        ),
        (
            "configs",
            CONFIGS
                .iter()
                .map(|(c, w, t)| format!("{c}c{w}w{t}t"))
                .collect::<Vec<_>>()
                .to_json(),
        ),
        ("batch_jobs", vec![BATCH_JOBS.0, BATCH_JOBS.1].to_json()),
        ("stats_every_batches", STATS_EVERY.to_json()),
        ("scale", "test".to_json()),
        ("loop", "closed, 1 client, 1 unix socket".to_json()),
        ("traced_cold_compiles", compile::params()),
    ])
}

/// The seeded request stream: an endless sequence of batches.
pub struct Stream {
    rng: Rng,
    names: Vec<&'static str>,
    next_id: u64,
}

impl Stream {
    pub fn new(seed: u64) -> Stream {
        Stream {
            rng: Rng::new(seed ^ STREAM_SALT),
            names: all_benchmarks().iter().map(|b| b.name).collect(),
            next_id: 0,
        }
    }

    pub fn next_batch(&mut self) -> Vec<JobRequest> {
        let n = BATCH_JOBS.0 + self.rng.below(BATCH_JOBS.1 - BATCH_JOBS.0 + 1);
        (0..n)
            .map(|_| {
                let name = *self.rng.pick(&self.names);
                let flow = *self.rng.pick(&FLOWS);
                let (cores, warps, threads) = *self.rng.pick(&CONFIGS);
                let mut req = JobRequest::bench(name, flow);
                req.opt = Some(*self.rng.pick(&OPTS));
                req.cores = cores;
                req.warps = warps;
                req.threads = threads;
                req.id = self.next_id;
                self.next_id += 1;
                req
            })
            .collect()
    }
}

/// The outcome-determining part of a request: the machine only matters on
/// the Vortex flow.
fn key(req: &JobRequest) -> String {
    match req.flow {
        Flow::Vortex => format!(
            "{}@{}c{}w{}t",
            req.label(),
            req.cores,
            req.warps,
            req.threads
        ),
        _ => req.label(),
    }
}

fn signature(r: &Result<JobStats, ReproError>) -> String {
    match r {
        Ok(s) => format!("ok {}c {}i", s.cycles, s.instructions),
        Err(e) => format!("err {} {}", e.kind(), e),
    }
}

/// The same, read from a serve outcome line.
fn wire_signature(line: &Json) -> String {
    match line.get("ok").and_then(Json::as_bool) {
        Some(true) => format!(
            "ok {}c {}i",
            line.get("cycles")
                .and_then(Json::as_u64)
                .unwrap_or(u64::MAX),
            line.get("instructions")
                .and_then(Json::as_u64)
                .unwrap_or(u64::MAX)
        ),
        _ => {
            let e = line.get("error");
            let field = |k| {
                e.and_then(|e| e.get(k))
                    .and_then(Json::as_str)
                    .unwrap_or("?")
            };
            format!("err {} {}", field("kind"), field("message"))
        }
    }
}

/// Every request the stream can draw, one per key.
fn universe() -> Vec<JobRequest> {
    let mut reqs = Vec::new();
    for b in all_benchmarks() {
        for opt in OPTS {
            for flow in FLOWS {
                let configs: &[(u32, u32, u32)] = if flow == Flow::Vortex {
                    &CONFIGS
                } else {
                    &CONFIGS[..1]
                };
                for &(cores, warps, threads) in configs {
                    let mut req = JobRequest::bench(b.name, flow);
                    req.opt = Some(opt);
                    req.cores = cores;
                    req.warps = warps;
                    req.threads = threads;
                    reqs.push(req);
                }
            }
        }
    }
    reqs
}

/// Sequential `run_oneshot` references for every key, checked against
/// Table I: Vortex and the interpreter run everything, HLS fails exactly
/// the paper's six.
fn references(out: &mut Outcome) -> HashMap<String, String> {
    let mut refs = HashMap::new();
    for req in universe() {
        let r = run_oneshot(&req);
        let Payload::Bench { name, .. } = &req.payload else {
            unreachable!("the stream draws suite benchmarks only")
        };
        let failure = r.as_ref().err().map(|e| e.to_string());
        let expected = match req.flow {
            Flow::Hls => oracle::hls_matches_table_i(name, failure.as_deref()),
            _ => failure.is_none(),
        };
        let k = key(&req);
        let sig = signature(&r);
        out.counts.record(format!("job/{k}"), &sig);
        if expected {
            refs.insert(k, sig);
        } else {
            out.fail(1, format!("reference {k} disagrees with Table I: {sig}"));
        }
    }
    refs
}

struct Client {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
    bytes: u64,
}

impl Client {
    fn send(&mut self, line: &str) -> std::io::Result<()> {
        self.bytes += line.len() as u64 + 1;
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()
    }

    fn recv(&mut self) -> std::io::Result<Json> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(std::io::Error::other("serve closed the connection"));
        }
        self.bytes += line.len() as u64;
        Json::parse(line.trim()).map_err(|e| std::io::Error::other(format!("bad reply: {e}")))
    }

    /// Send one batch and read outcome lines until its summary line.
    fn batch(&mut self, reqs: &[JobRequest]) -> std::io::Result<Vec<Json>> {
        let items: Vec<String> = reqs.iter().map(|r| r.to_json().to_compact()).collect();
        self.send(&format!("[{}]", items.join(",")))?;
        let mut lines = Vec::with_capacity(reqs.len());
        loop {
            let line = self.recv()?;
            if line.get("batch").is_some() {
                return Ok(lines);
            }
            lines.push(line);
        }
    }

    fn stats(&mut self) -> std::io::Result<bool> {
        self.send(r#"{"cmd":"stats"}"#)?;
        let reply = self.recv()?;
        Ok(reply.get("cmd").and_then(Json::as_str) == Some("stats")
            && reply.get("ok").and_then(Json::as_bool) == Some(true))
    }
}

/// What one phase of the closed loop measured.
#[derive(Default)]
struct Phase {
    batch_ms: Vec<f64>,
    /// The process's CPU time per batch round trip: client, serve loop and
    /// workers together.
    batch_cpu_ms: Vec<f64>,
    /// Jobs per second over each successive second of the loop.
    second_rates: Vec<f64>,
    /// Jobs per CPU-second over the same seconds.
    second_cpu_rates: Vec<f64>,
    stats_ms: Vec<f64>,
    jobs: u64,
    batches: u64,
    wall_s: f64,
    bytes: u64,
    steals: u64,
    parks: u64,
    cache_hits: u64,
    cache_lookups: u64,
    /// Traced phase only: per batch, (round trip − `Executor::run`) per job
    /// in µs, `Executor::run` ms, summed job wall ms, busy fraction.
    overhead_us: Vec<f64>,
    sched_ms: Vec<f64>,
    exec_ms: Vec<f64>,
    busy: Vec<f64>,
}

impl Phase {
    fn jobs_per_s(&self) -> f64 {
        self.jobs as f64 / self.wall_s
    }
}

struct Loop<'a, 'f> {
    client: Client,
    stream: Stream,
    refs: &'a HashMap<String, String>,
    exec: &'a Executor,
    setup: &'a mut Setup<'f>,
}

impl Loop<'_, '_> {
    fn check(&self, reqs: &[JobRequest], lines: &[Json], out: &mut Outcome) {
        out.attempted += reqs.len() as u64;
        if lines.len() != reqs.len() {
            out.fail(
                reqs.len() as u64,
                format!("{} outcome lines for {} jobs", lines.len(), reqs.len()),
            );
            return;
        }
        for (req, line) in reqs.iter().zip(lines) {
            let k = key(req);
            let got = wire_signature(line);
            let id = line.get("id").and_then(Json::as_u64);
            match self.refs.get(&k) {
                Some(want) if *want == got && id == Some(req.id) => {}
                Some(want) => out.fail(1, format!("job {k}: served {got}, reference {want}")),
                None => out.fail(1, format!("job {k}: no valid reference")),
            }
        }
    }

    /// Run batches until `budget` seconds pass. With a recorder, every
    /// batch is also run through `Executor::run` and replayed job by job
    /// through spanned layer calls.
    fn phase(&mut self, budget: f64, out: &mut Outcome, mut rec: Option<&mut Recorder>) -> Phase {
        let mut p = Phase::default();
        let bytes0 = self.client.bytes;
        let (steals0, parks0) = (self.exec.stats().steals(), self.exec.stats().parks());
        let cache0 = repro_cache::global().stats();
        let started = Instant::now();
        // Set-up repeats between batches are not the loop's time.
        let (mut paused, mut paused_cpu) = (0.0, 0);
        let (mut second_start, mut second_jobs) = (0.0, 0);
        let mut second_cpu_start = cpu::process_ns();
        while p.batches < 2 || started.elapsed().as_secs_f64() < budget {
            let reqs = self.stream.next_batch();
            if let Some(rec) = rec.as_deref_mut() {
                rec.enter("batch");
            }
            let (t, cpu0) = (Instant::now(), cpu::process_ns());
            let served = match rec.as_deref_mut() {
                Some(rec) => rec.time("serve.round_trip", || self.client.batch(&reqs)),
                None => self.client.batch(&reqs),
            };
            let round_trip = t.elapsed().as_secs_f64();
            p.batch_cpu_ms.push((cpu::process_ns() - cpu0) as f64 / 1e6);
            match served {
                Ok(lines) => self.check(&reqs, &lines, out),
                Err(e) => {
                    out.attempted += reqs.len() as u64;
                    out.fail(reqs.len() as u64, format!("batch lost: {e}"));
                }
            }
            p.batch_ms.push(round_trip * 1e3);
            p.jobs += reqs.len() as u64;
            p.batches += 1;
            if p.batches % STATS_EVERY == 0 {
                let t = Instant::now();
                let ok = match rec.as_deref_mut() {
                    Some(rec) => rec.time("serve.stats", || self.client.stats()),
                    None => self.client.stats(),
                };
                p.stats_ms.push(t.elapsed().as_secs_f64() * 1e3);
                out.attempted += 1;
                if !matches!(ok, Ok(true)) {
                    out.fail(1, format!("stats poll failed: {ok:?}"));
                }
            }
            if let Some(rec) = rec.as_deref_mut() {
                self.traced_batch(rec, &reqs, round_trip, &mut p, out);
                rec.exit();
            } else {
                let c = cpu::process_ns();
                paused += self.setup.tick(out);
                paused_cpu += cpu::process_ns() - c;
            }
            second_jobs += reqs.len();
            let now = started.elapsed().as_secs_f64() - paused;
            if now - second_start >= 1.0 {
                let cpu_now = cpu::process_ns() - paused_cpu;
                p.second_rates
                    .push(second_jobs as f64 / (now - second_start));
                p.second_cpu_rates
                    .push(second_jobs as f64 * 1e9 / (cpu_now - second_cpu_start) as f64);
                (second_start, second_jobs, second_cpu_start) = (now, 0, cpu_now);
            }
        }
        p.wall_s = started.elapsed().as_secs_f64() - paused;
        if p.second_rates.is_empty() {
            p.second_rates.push(p.jobs_per_s());
            let cpu_s: f64 = p.batch_cpu_ms.iter().sum::<f64>() / 1e3;
            p.second_cpu_rates.push(p.jobs as f64 / cpu_s);
        }
        p.bytes = self.client.bytes - bytes0;
        p.steals = self.exec.stats().steals() - steals0;
        p.parks = self.exec.stats().parks() - parks0;
        let cache1 = repro_cache::global().stats();
        p.cache_hits = cache1.hits() - cache0.hits();
        p.cache_lookups = p.cache_hits + cache1.misses - cache0.misses;
        p
    }

    /// The traced part of a batch: the same jobs through `Executor::run`,
    /// then each job replayed through the layers one call at a time.
    fn traced_batch(
        &self,
        rec: &mut Recorder,
        reqs: &[JobRequest],
        round_trip: f64,
        p: &mut Phase,
        out: &mut Outcome,
    ) {
        let t = Instant::now();
        let outcomes = rec.time("sched.run", || {
            self.exec
                .run(reqs.iter().cloned().map(instantiate).collect())
        });
        let sched_s = t.elapsed().as_secs_f64();
        let exec_s: f64 = outcomes.iter().map(|o| o.wall_secs).sum();
        p.sched_ms.push(sched_s * 1e3);
        p.exec_ms.push(exec_s * 1e3);
        p.busy.push(exec_s / (WORKERS as f64 * sched_s));
        p.overhead_us
            .push((round_trip - sched_s) * 1e6 / reqs.len() as f64);
        for (req, oc) in reqs.iter().zip(&outcomes) {
            let replayed = rec.scope("job.replay", |rec| replay_job(rec, req));
            let k = key(req);
            let want = self.refs.get(&k);
            for (what, got) in [
                ("scheduled", signature(&oc.result)),
                ("replayed", signature(&replayed)),
            ] {
                if want != Some(&got) {
                    out.fail(1, format!("{what} {k}: {got}, reference {want:?}"));
                }
            }
        }
        out.attempted += 2 * reqs.len() as u64;
    }
}

fn replay_job(rec: &mut Recorder, req: &JobRequest) -> Result<JobStats, ReproError> {
    let Payload::Bench { name, .. } = &req.payload else {
        unreachable!("the stream draws suite benchmarks only")
    };
    let b = benchmark(name).expect("stream names are suite benchmarks");
    let level = req.opt.unwrap_or(DEFAULT_OPT);
    match req.flow {
        Flow::Vortex => {
            let cfg = ocl_suite::jobs::sim_config(req);
            replay::vortex(rec, &b, Scale::Test, cfg, level).map(|s| JobStats {
                cycles: s.cycles,
                instructions: s.instructions,
            })
        }
        Flow::Interp => replay::ir(rec, &b, Scale::Test, level, Executes::Interp),
        Flow::Hls => replay::ir(
            rec,
            &b,
            Scale::Test,
            level,
            Executes::Hls(&Device::mx2100()),
        ),
    }
}

/// The cache fill: every compile artifact the stream can ask for.
fn fill(cache: &repro_cache::Cache) -> Result<(), ReproError> {
    let mut widths: Vec<u32> = CONFIGS.iter().map(|c| c.2).collect();
    widths.sort_unstable();
    widths.dedup();
    for b in all_benchmarks() {
        for opt in OPTS {
            cache.optimize(b.source, opt)?;
            for &t in &widths {
                cache.codegen_vortex(b.source, Some(opt), t)?;
            }
        }
        // A Table I ✗ is an artifact too.
        let _ = cache.synthesize_hls(b.source, &Device::mx2100())?;
    }
    Ok(())
}

pub fn run(ctx: &Ctx) -> Result<Outcome, ReproError> {
    let share = if ctx.trace {
        ctx.seconds / 4.0
    } else {
        ctx.seconds
    };
    let (exec, mut setup) = setup::start(WORKERS, share, fill)?;
    let mut out = Outcome::new(params());
    let refs = references(&mut out);
    // `repro serve` arms live observability at its entry point.
    repro_util::metrics::window_enable();
    repro_obs::arm();

    let opts = ServeOptions {
        workers: exec.workers(),
        ..ServeOptions::default()
    };
    let (client_end, server_end) =
        UnixStream::pair().map_err(|e| ReproError::harness(format!("socket pair: {e}")))?;
    let server_read = server_end
        .try_clone()
        .map_err(|e| ReproError::harness(format!("socket clone: {e}")))?;
    let client = Client {
        reader: BufReader::new(
            client_end
                .try_clone()
                .map_err(|e| ReproError::harness(format!("socket clone: {e}")))?,
        ),
        writer: client_end,
        bytes: 0,
    };
    let served = std::thread::scope(|s| {
        let server =
            s.spawn(|| serve_lines(&exec, &opts, BufReader::new(server_read), &server_end));
        let mut lp = Loop {
            client,
            stream: Stream::new(ctx.seed),
            refs: &refs,
            exec: &exec,
            setup: &mut setup,
        };
        measure(ctx, share, &mut lp, &mut out);
        // EOF ends the serve loop.
        let _ = lp.client.writer.shutdown(std::net::Shutdown::Write);
        server.join().expect("serve thread panicked")
    });
    match served {
        Ok(summary) if summary.rejected == 0 => {}
        Ok(summary) => out.fail(
            summary.rejected,
            format!("serve rejected {} lines", summary.rejected),
        ),
        Err(e) => out.fail(1, format!("serve loop failed: {e}")),
    }
    let samples = setup.samples(&mut out);
    out.setup(&samples);
    Ok(out)
}

fn measure(ctx: &Ctx, share: f64, lp: &mut Loop, out: &mut Outcome) {
    let armed = lp.phase(share, out, None);
    // The median one-second throughput: a few slow seconds on a shared
    // host move it no more than they move the median batch.
    out.metric("ops_per_cpu_s", stats::median(&armed.second_cpu_rates));
    out.latency(&armed.batch_cpu_ms, &armed.batch_ms);
    out.named("jobs_per_s", stats::median(&armed.second_rates), "1/s");
    out.named("batch_p50_ms", stats::median(&armed.batch_ms), "ms");
    out.named("batch_tail_ms", stats::tail(&armed.batch_ms).value, "ms");
    if !ctx.trace {
        return;
    }
    repro_obs::disarm();
    repro_util::metrics::window_disable();
    let disarmed = lp.phase(share, out, None);
    repro_util::metrics::window_enable();
    repro_obs::arm();
    let epoch = Instant::now();
    let mut rec = Recorder::new(epoch, 0);
    let traced = lp.phase(share, out, Some(&mut rec));
    let mut spans = rec.into_spans();
    match compile::traced(ctx.seed, share, epoch, &ctx.scratch, out) {
        Ok(cold) => spans = trace::merge(vec![spans, cold]),
        Err(e) => out.fail(1, format!("cold-compile set-up failed: {e}")),
    }

    let per_batch = |n: u64| n as f64 / armed.batches as f64;
    out.metric("sched.steals", per_batch(armed.steals));
    out.metric("sched.parks", per_batch(armed.parks));
    out.metric(
        "serve.bytes_per_job",
        armed.bytes as f64 / armed.jobs as f64,
    );
    let polls: Vec<f64> = [&armed, &traced]
        .iter()
        .flat_map(|p| p.stats_ms.iter().copied())
        .collect();
    out.metric("serve.stats_ms", stats::median(&polls));
    if armed.cache_lookups > 0 {
        out.metric(
            "cache.hit_ratio",
            armed.cache_hits as f64 / armed.cache_lookups as f64,
        );
    }
    out.metric(
        "obs.armed_cost_pct",
        100.0 * (1.0 - stats::median(&armed.second_rates) / stats::median(&disarmed.second_rates)),
    );
    out.metric("sched.batch_ms", stats::median(&traced.sched_ms));
    out.metric("sched.exec_ms", stats::median(&traced.exec_ms));
    out.metric("sched.busy_frac", stats::median(&traced.busy));
    out.metric(
        "serve.overhead_us_per_job",
        stats::median(&traced.overhead_us),
    );
    let med = |name: &str| stats::median(&trace::durations(&spans, name));
    out.metric("jobs.replay_ms", med("job.replay") / 1e6);
    out.metric("cache.hit_us", med("cache.hit") / 1e3);
    out.metric("suite.workload_ms", med("suite.workload") / 1e6);
    out.metric("suite.verify_us", med("suite.verify") / 1e3);
    out.metric("vortex_rt.setup_us", med("vortex_rt.setup") / 1e3);
    out.metric("vortex_rt.launch_ms", med("vortex_rt.launch") / 1e6);
    out.metric("vortex_rt.readback_us", med("vortex_rt.readback") / 1e3);
    out.metric("ir.interp_ms", med("ir.interp") / 1e6);
    out.metric("hls.execute_ms", med("hls.execute") / 1e6);
    let armed_p50 = stats::median(&armed.batch_ms);
    out.metric(
        "trace.overhead_pct",
        100.0 * (stats::median(&traced.batch_ms) - armed_p50) / armed_p50,
    );
    out.named(
        "disarmed_jobs_per_s",
        stats::median(&disarmed.second_rates),
        "1/s",
    );
    out.named(
        "traced_jobs_per_s",
        stats::median(&traced.second_rates),
        "1/s",
    );
    out.set_spans(spans, ctx);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn batches(seed: u64, n: usize) -> Vec<Vec<String>> {
        let mut s = Stream::new(seed);
        (0..n)
            .map(|_| {
                s.next_batch()
                    .iter()
                    .map(|r| r.to_json().to_compact())
                    .collect()
            })
            .collect()
    }

    #[test]
    fn stream_is_deterministic_per_seed_and_differs_across_seeds() {
        assert_eq!(batches(7, 50), batches(7, 50));
        assert_ne!(batches(7, 50), batches(8, 50));
    }

    #[test]
    fn stream_stays_inside_the_universe() {
        let keys: std::collections::HashSet<String> = universe().iter().map(key).collect();
        assert_eq!(keys.len(), universe().len(), "universe keys are unique");
        let mut s = Stream::new(1);
        let mut sizes = Vec::new();
        for _ in 0..300 {
            let b = s.next_batch();
            sizes.push(b.len() as u64);
            for r in &b {
                assert!(keys.contains(&key(r)), "{}", key(r));
            }
        }
        assert_eq!(*sizes.iter().min().unwrap(), BATCH_JOBS.0);
        assert_eq!(*sizes.iter().max().unwrap(), BATCH_JOBS.1);
    }
}
