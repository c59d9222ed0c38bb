//! Cold compiles: the kernel developer's rebuild path, timed layer by
//! layer in the last part of `serve-mix`'s traced run. Each op compiles
//! one suite source for Vortex (`codegen_vortex`) and for HLS
//! (`synthesize_hls`) through a new `repro_cache::Cache` that has never
//! seen it, the same over an empty disk store (as the `repro` binary
//! configures its cache), and then through the direct stage calls. The
//! seed draws (benchmark, opt level, warp width, device) tuples. This is
//! the cache's miss and write path, beside the hit path the rest of
//! `serve-mix` exercises.
//!
//! It was a workload of its own with bounded end-to-end metrics, and was
//! dropped as one: its ops (allocation-heavy, 0.2–0.3 ms) moved with the
//! shared host's load by up to 46% within minutes, in CPU time as in wall
//! time, so ten runs of the same build spread past every bound.

use std::collections::HashMap;
use std::path::Path;
use std::time::Instant;

use fpga_arch::Device;
use hls_flow::{SynthFailure, SynthOptions, SynthReport};
use ocl_ir::passes::OptLevel;
use ocl_suite::{all_benchmarks, Benchmark, Scale, DEFAULT_OPT};
use repro_cache::wire::{encode, fnv1a};
use repro_cache::{Cache, CacheConfig};
use repro_diag::ReproError;
use repro_util::{Json, Rng, ToJson};
use vortex_cc::CompiledKernel;
use vortex_sim::SimConfig;

use crate::replay::{self, Executes};
use crate::trace::{self, Recorder};
use crate::{oracle, stats, Outcome};

const OPTS: [OptLevel; 4] = OptLevel::ALL;
const THREADS: [u32; 3] = [4, 8, 16];
const DEVICES: [&str; 2] = ["mx2100", "sx2800"];
/// Set-up verification runs each Vortex artifact on 2 cores of this many
/// lanes (warps × threads): Backprop's group-mode kernels need a whole
/// 64-item group on one core.
const VERIFY_LANES: u32 = 64;
const STREAM_SALT: u64 = 0xc0_1dc0_de00_0002;
/// Every run measures at least this many ops, however short `--seconds`.
const MIN_OPS: usize = 50;

fn device(i: usize) -> Device {
    match i {
        0 => Device::mx2100(),
        _ => Device::sx2800(),
    }
}

pub fn params() -> Json {
    Json::obj(vec![
        (
            "opts",
            OPTS.iter()
                .map(|o| o.flag_name())
                .collect::<Vec<_>>()
                .to_json(),
        ),
        ("threads", THREADS.to_vec().to_json()),
        ("devices", DEVICES.to_vec().to_json()),
        (
            "cache",
            "new per op: memory LRU, then memory LRU over an empty disk store".to_json(),
        ),
    ])
}

/// One op's inputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tuple {
    pub bench: usize,
    pub opt: OptLevel,
    pub threads: u32,
    pub device: usize,
}

pub struct Stream {
    rng: Rng,
    benches: usize,
}

impl Stream {
    pub fn new(seed: u64, benches: usize) -> Stream {
        Stream {
            rng: Rng::new(seed ^ STREAM_SALT),
            benches,
        }
    }

    pub fn next_tuple(&mut self) -> Tuple {
        Tuple {
            bench: self.rng.below(self.benches as u64) as usize,
            opt: *self.rng.pick(&OPTS),
            threads: *self.rng.pick(&THREADS),
            device: self.rng.below(DEVICES.len() as u64) as usize,
        }
    }
}

type Hls = Result<SynthReport, SynthFailure>;

fn digest_vortex(k: &[CompiledKernel]) -> u64 {
    fnv1a(&encode(&k.to_vec()))
}

fn digest_hls(h: &Hls) -> u64 {
    fnv1a(&encode(h))
}

fn code_words(k: &[CompiledKernel]) -> usize {
    k.iter().map(|k| k.program.instrs.len()).sum()
}

/// Artifact digests compiled and verified at set-up.
struct References {
    vortex: HashMap<(usize, u8, u32), u64>,
    hls: HashMap<(usize, usize), u64>,
}

fn fill(benches: &[Benchmark]) -> impl Fn(&Cache) -> Result<(), ReproError> + '_ {
    move |cache| {
        for b in benches {
            for opt in OPTS {
                for t in THREADS {
                    cache.codegen_vortex(b.source, Some(opt), t)?;
                }
            }
            for d in 0..DEVICES.len() {
                // A Table I ✗ is an artifact too.
                let _ = cache.synthesize_hls(b.source, &device(d))?;
            }
        }
        Ok(())
    }
}

/// Digest every artifact the global cache holds after set-up, and verify
/// each by executing it: Vortex kernels run the benchmark's workload under
/// its check, HLS reports must match Table I on the MX2100 and, where
/// synthesis succeeds, the pipelined model must pass the check too.
fn references(benches: &[Benchmark], out: &mut Outcome) -> Result<References, ReproError> {
    let cache = repro_cache::global();
    let mut rec = Recorder::new(Instant::now(), 0);
    let mut refs = References {
        vortex: HashMap::new(),
        hls: HashMap::new(),
    };
    let (mut insts, mut words) = (0usize, 0usize);
    for (bi, b) in benches.iter().enumerate() {
        for opt in OPTS {
            let module = cache.optimize(b.source, opt)?;
            let n: usize = module
                .kernels
                .iter()
                .flat_map(|k| &k.blocks)
                .map(|bl| bl.insts.len())
                .sum();
            insts += n;
            out.counts
                .record(format!("ir/{}/{}", b.name, opt.flag_name()), n);
            for t in THREADS {
                let k = cache.codegen_vortex(b.source, Some(opt), t)?;
                let (digest, w) = (digest_vortex(&k), code_words(&k));
                words += w;
                let id = format!("vortex/{}/{}/{t}t", b.name, opt.flag_name());
                out.counts.record(&id, format!("{digest:016x} {w} words"));
                let cfg = SimConfig::new(fpga_arch::VortexConfig::new(2, VERIFY_LANES / t, t));
                match replay::vortex(&mut rec, b, Scale::Test, cfg, opt) {
                    Ok(_) => {
                        refs.vortex.insert((bi, opt as u8, t), digest);
                    }
                    Err(e) => out.fail(1, format!("{id} fails verification: {e}")),
                }
            }
        }
        for (d, dev_name) in DEVICES.iter().enumerate() {
            let dev = device(d);
            let h = cache.synthesize_hls(b.source, &dev)?;
            let id = format!("hls/{}/{dev_name}", b.name);
            let failure = h.as_ref().err().map(|f| f.reason());
            out.counts.record(
                &id,
                format!(
                    "{:016x} {}",
                    digest_hls(&h),
                    failure.as_deref().unwrap_or("ok")
                ),
            );
            if d == 0 && !oracle::hls_matches_table_i(b.name, failure.as_deref()) {
                out.fail(1, format!("{id} disagrees with Table I: {failure:?}"));
                continue;
            }
            if h.is_ok() {
                let run = replay::ir(&mut rec, b, Scale::Test, DEFAULT_OPT, Executes::Hls(&dev));
                if let Err(e) = run {
                    out.fail(1, format!("{id} fails verification: {e}"));
                    continue;
                }
            }
            refs.hls.insert((bi, d), digest_hls(&h));
        }
    }
    out.metric("ir.insts_after_opt", insts as f64);
    out.metric("vortex_cc.code_words", words as f64);
    Ok(refs)
}

/// One op through the cache: both flows through a cache that has never
/// seen the source.
fn cached_compile(cache: &Cache, b: &Benchmark, t: Tuple) -> Result<(u64, u64), ReproError> {
    let k = cache.codegen_vortex(b.source, Some(t.opt), t.threads)?;
    let h = cache.synthesize_hls(b.source, &device(t.device))?;
    Ok((digest_vortex(&k), digest_hls(&h)))
}

/// The same artifacts from direct stage calls, each in its own span.
fn direct_compile(rec: &mut Recorder, b: &Benchmark, t: Tuple) -> Result<(u64, u64), ReproError> {
    let lowered = rec.time("frontend.lower", || ocl_front::compile(b.source))?;
    let optimized = rec.time("ir.optimize", || {
        let mut m = lowered.clone();
        ocl_ir::passes::optimize_module(&mut m, t.opt);
        m
    });
    rec.time("ir.verify", || ocl_ir::verify::verify_module(&optimized))
        .map_err(|e| ReproError::Verify {
            message: e.to_string(),
        })?;
    let kernels = rec.time("vortex_cc.codegen", || {
        let opts = vortex_cc::CodegenOpts { threads: t.threads };
        optimized
            .kernels
            .iter()
            .map(|k| vortex_cc::compile_kernel(k, &opts))
            .collect::<Result<Vec<_>, _>>()
    })?;
    let h = rec.time("hls.synth", || {
        hls_flow::synthesize(&lowered, &device(t.device), &SynthOptions::default())
    });
    Ok((digest_vortex(&kernels), digest_hls(&h)))
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .map(|e| match e.metadata() {
                    Ok(m) if m.is_dir() => dir_bytes(&e.path()),
                    Ok(m) => m.len(),
                    Err(_) => 0,
                })
                .sum()
        })
        .unwrap_or(0)
}

struct Ops<'a> {
    benches: &'a [Benchmark],
    refs: &'a References,
    stream: Stream,
    /// The traced run's disk store directory.
    dir: &'a Path,
}

impl Ops<'_> {
    fn check(&self, t: Tuple, got: Result<(u64, u64), ReproError>, what: &str, out: &mut Outcome) {
        let b = &self.benches[t.bench];
        let want = (
            self.refs.vortex.get(&(t.bench, t.opt as u8, t.threads)),
            self.refs.hls.get(&(t.bench, t.device)),
        );
        match (got, want) {
            (Ok((v, h)), (Some(&rv), Some(&rh))) if v == rv && h == rh => {}
            (got, _) => out.fail(
                1,
                format!(
                    "{what} {} {} {}t {}: {:?} differs from the set-up artifacts",
                    b.name,
                    t.opt.flag_name(),
                    t.threads,
                    DEVICES[t.device],
                    got.map(|(v, h)| format!("{v:016x}/{h:016x}"))
                ),
            ),
        }
    }

    /// The traced ops: each runs the op through a memory-only cache, the
    /// same op over an empty disk store, and the direct stage calls, under
    /// one root span. Returns the memory-only ops' latencies in ms and the
    /// disk store's bytes after each op.
    fn traced(
        &mut self,
        budget: f64,
        rec: &mut Recorder,
        out: &mut Outcome,
    ) -> (Vec<f64>, Vec<f64>) {
        let mut ms = Vec::new();
        let mut disk = Vec::new();
        let started = Instant::now();
        while ms.len() < MIN_OPS || started.elapsed().as_secs_f64() < budget {
            let t = self.stream.next_tuple();
            let b = &self.benches[t.bench];
            let cache = Cache::new(CacheConfig::default());
            // One directory, emptied after each op, serves every op's disk
            // store: a new directory per op would also time the file
            // system's allocation of directories.
            let on_disk = Cache::new(CacheConfig {
                disk_dir: Some(self.dir.to_path_buf()),
                ..CacheConfig::default()
            });
            rec.enter("op");
            let t0 = Instant::now();
            let got = rec.time("cache.miss", || cached_compile(&cache, b, t));
            ms.push(t0.elapsed().as_secs_f64() * 1e3);
            let got_disk = rec.time("cache.disk_miss", || cached_compile(&on_disk, b, t));
            let direct = direct_compile(rec, b, t);
            rec.exit();
            out.attempted += 3;
            self.check(t, got, "cached", out);
            self.check(t, got_disk, "disk-cached", out);
            self.check(t, direct, "direct", out);
            disk.push(dir_bytes(self.dir) as f64);
            if let Err(e) = on_disk.clear_disk() {
                out.fail(1, format!("could not empty {}: {e}", self.dir.display()));
            }
        }
        (ms, disk)
    }
}

/// The cold-compile part of a traced run: fill the process-global cache
/// with every artifact of the tuple space and verify each (untimed), then
/// run ops until `budget` seconds pass. Adds the compile layers' metrics
/// to `out` and returns the ops' spans.
pub fn traced(
    seed: u64,
    budget: f64,
    epoch: Instant,
    scratch: &Path,
    out: &mut Outcome,
) -> Result<Vec<trace::Span>, ReproError> {
    let benches = all_benchmarks();
    fill(&benches)(repro_cache::global())?;
    let refs = references(&benches, out)?;
    let mut ops = Ops {
        benches: &benches,
        refs: &refs,
        stream: Stream::new(seed, benches.len()),
        dir: &scratch.join("ops"),
    };
    let mut rec = Recorder::new(epoch, 0);
    let (ms, disk) = ops.traced(budget, &mut rec, out);
    let spans = rec.into_spans();
    let med = |name: &str| stats::median(&trace::durations(&spans, name)) / 1e3;
    out.metric("cache.miss_us", med("cache.miss"));
    out.metric("cache.disk_miss_us", med("cache.disk_miss"));
    out.metric("frontend.lower_us", med("frontend.lower"));
    out.metric("ir.optimize_us", med("ir.optimize"));
    out.metric("ir.verify_us", med("ir.verify"));
    out.metric("vortex_cc.codegen_us", med("vortex_cc.codegen"));
    out.metric("hls.synth_us", med("hls.synth"));
    out.metric(
        "cache.overhead_us",
        stats::median(&cache_overhead_us(&spans)),
    );
    out.metric("cache.disk_bytes_per_op", stats::median(&disk));
    out.named(
        "compiles_per_s",
        ms.len() as f64 / (ms.iter().sum::<f64>() / 1e3),
        "1/s",
    );
    out.named("compile_p50_us", stats::median(&ms) * 1e3, "us");
    out.named("compile_tail_us", stats::tail(&ms).value * 1e3, "us");
    Ok(spans)
}

/// Per op: the cached compile's time minus the direct stage calls' time,
/// in µs — what the cache itself costs on a miss.
fn cache_overhead_us(spans: &[trace::Span]) -> Vec<f64> {
    let mut per_op: HashMap<usize, (f64, f64)> = HashMap::new();
    for s in spans {
        let Some(p) = s.parent else { continue };
        let e = per_op.entry(p).or_default();
        match s.name {
            "cache.miss" => e.0 += s.dur_ns as f64,
            "cache.disk_miss" => {}
            _ => e.1 += s.dur_ns as f64,
        }
    }
    per_op
        .values()
        .map(|(miss, direct)| (miss - direct) / 1e3)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tuple_stream_is_deterministic_per_seed_and_differs_across_seeds() {
        let draw = |seed| {
            let mut s = Stream::new(seed, 28);
            (0..200).map(|_| s.next_tuple()).collect::<Vec<_>>()
        };
        assert_eq!(draw(5), draw(5));
        assert_ne!(draw(5), draw(6));
        let all = draw(5);
        assert!(all.iter().all(|t| t.bench < 28 && t.device < DEVICES.len()));
        assert!(all.iter().any(|t| t.device == 1) && all.iter().any(|t| t.device == 0));
    }
}
