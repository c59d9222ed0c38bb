//! The repository benchmark. See `perfbench/README.md`.
//!
//! ```text
//! perfbench --workload <fig7-sweep|serve-mix> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one seeded workload in-process against the workspace crates'
//! public functions, checks every outcome, and prints one JSON object as
//! the last line of standard output: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics of the traced run with `--trace 1`.
//! A result record with the comparability header goes to
//! `.perfbench/results/`, the traced run's spans to `.perfbench/traces/`.

mod compile;
mod cpu;
mod exact;
mod fig7;
mod header;
mod oracle;
mod replay;
mod serve;
mod setup;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use repro_util::{Json, ToJson};

/// Everything the benchmark writes lives under this directory of the
/// working directory.
const OUT_DIR: &str = ".perfbench";

/// The end-to-end metrics, measured with tracing off on every workload.
/// What an "op" is differs per workload; see README.md. Ops are timed in
/// the process's CPU time (see `cpu.rs`); their wall-clock figures go to
/// the result record.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("ops_per_cpu_s", "1/s"),
    ("op_cpu_p50_ms", "ms"),
    ("op_cpu_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics of the traced run. A layer a workload does not
/// call reads 0 there.
pub const PER_LAYER: [(&str, &str); 47] = [
    ("suite.workload_ms", "ms"),
    ("suite.verify_us", "us"),
    ("vortex_rt.setup_us", "us"),
    ("vortex_rt.launch_ms", "ms"),
    ("vortex_rt.readback_us", "us"),
    ("vortex_sim.host_ns_per_cycle", "ns"),
    ("vortex_sim.cycles", "count"),
    ("vortex_sim.instructions", "count"),
    ("vortex_sim.ipc", "ratio"),
    ("vortex_sim.stall_scoreboard", "count"),
    ("vortex_sim.stall_lsu", "count"),
    ("vortex_sim.stall_barrier", "count"),
    ("vortex_sim.stall_idle", "count"),
    ("vortex_sim.dcache_hit_ratio", "ratio"),
    ("vortex_sim.l2_hit_ratio", "ratio"),
    ("vortex_sim.dram_accesses", "count"),
    ("vortex_sim.dram_row_hit_ratio", "ratio"),
    ("fig7.optima_matched", "count"),
    ("fig7.err_pts", "pts"),
    ("fig7.sim_mcycles_per_s", "Mcycles/s"),
    ("cache.hit_us", "us"),
    ("cache.hit_ratio", "ratio"),
    ("cache.miss_us", "us"),
    ("cache.disk_miss_us", "us"),
    ("cache.overhead_us", "us"),
    ("cache.disk_bytes_per_op", "bytes"),
    ("frontend.lower_us", "us"),
    ("ir.optimize_us", "us"),
    ("ir.verify_us", "us"),
    ("vortex_cc.codegen_us", "us"),
    ("hls.synth_us", "us"),
    ("ir.insts_after_opt", "count"),
    ("vortex_cc.code_words", "count"),
    ("ir.interp_ms", "ms"),
    ("hls.execute_ms", "ms"),
    ("sched.batch_ms", "ms"),
    ("sched.exec_ms", "ms"),
    ("sched.busy_frac", "ratio"),
    ("sched.steals", "count"),
    ("sched.parks", "count"),
    ("serve.overhead_us_per_job", "us"),
    ("serve.bytes_per_job", "bytes"),
    ("serve.stats_ms", "ms"),
    ("obs.armed_cost_pct", "%"),
    ("jobs.replay_ms", "ms"),
    ("unattributed_pct", "%"),
    ("trace.overhead_pct", "%"),
];

const WORKLOADS: [&str; 2] = ["fig7-sweep", "serve-mix"];

/// Command-line settings shared by every workload.
pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Per-run scratch directory (the traced disk store), removed at exit.
    pub scratch: PathBuf,
}

/// What one workload run measured.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    metrics: BTreeMap<&'static str, f64>,
    /// The per-workload metric names of the benchmark's design notes
    /// (`sweep_s`, `jobs_per_s`, ...), kept in the result record.
    named: Vec<(&'static str, f64, &'static str)>,
    extra: Vec<(&'static str, Json)>,
    params: Json,
    pub counts: exact::Counts,
    spans: Vec<trace::Span>,
}

impl Outcome {
    pub fn new(params: Json) -> Outcome {
        Outcome {
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            metrics: BTreeMap::new(),
            named: Vec::new(),
            extra: Vec::new(),
            params,
            counts: exact::Counts::default(),
            spans: Vec::new(),
        }
    }

    pub fn metric(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(&PER_LAYER).any(|(n, _)| *n == name),
            "unlisted metric {name}"
        );
        self.metrics.insert(name, value);
    }

    pub fn named(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.named.push((name, value, unit));
    }

    pub fn extra(&mut self, key: &'static str, value: Json) {
        self.extra.push((key, value));
    }

    pub fn fail(&mut self, ops: u64, why: String) {
        self.failed += ops;
        if self.failures.len() < 20 {
            self.failures.push(why);
        }
    }

    /// `setup_s` is the median of the set-up samples.
    pub fn setup(&mut self, samples: &[f64]) {
        self.metric("setup_s", stats::median(samples));
        self.extra("setup_samples_s", samples.to_vec().to_json());
    }

    /// `op_cpu_p50_ms` and `op_cpu_tail_ms` from per-op CPU times in ms.
    /// The same ops' wall-clock times go to the record as `op_p50_ms` and
    /// `op_tail_ms`.
    pub fn latency(&mut self, cpu_ms: &[f64], wall_ms: &[f64]) {
        let tail = stats::tail(cpu_ms);
        self.metric("op_cpu_p50_ms", stats::median(cpu_ms));
        self.metric("op_cpu_tail_ms", tail.value);
        self.named("op_p50_ms", stats::median(wall_ms), "ms");
        self.named("op_tail_ms", stats::tail(wall_ms).value, "ms");
        self.extra(
            "latency",
            Json::obj(vec![
                ("samples", (cpu_ms.len() as u64).to_json()),
                ("tail_pct", tail.pct.to_json()),
                ("tail_beyond", (tail.beyond as u64).to_json()),
                ("cpu_samples_ms", cpu_ms.to_vec().to_json()),
                ("wall_samples_ms", wall_ms.to_vec().to_json()),
            ]),
        );
    }

    /// Keep the traced run's spans; adds the table-derived metrics.
    pub fn set_spans(&mut self, spans: Vec<trace::Span>, ctx: &Ctx) {
        let table = trace::table(&spans);
        eprint!(
            "{}",
            table.render(&format!("{} traced run, seed {}", ctx.workload, ctx.seed))
        );
        self.metric("unattributed_pct", table.unattributed_pct());
        self.extra("layer_table", table.to_json());
        self.spans = spans;
    }

    pub fn value(&self, name: &str) -> f64 {
        self.metrics.get(name).copied().unwrap_or(0.0)
    }
}

fn usage() -> String {
    format!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    )
}

fn parse_args(args: &[String]) -> Result<Ctx, String> {
    let flag = |name: &str| -> Result<&str, String> {
        let i = args
            .iter()
            .position(|a| a == name)
            .ok_or_else(|| format!("missing {name}\n{}", usage()))?;
        args.get(i + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{name} needs a value"))
    };
    let workload = flag("--workload")?.to_string();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload `{workload}`\n{}", usage()));
    }
    let seed = flag("--seed")?
        .parse::<u64>()
        .map_err(|_| "--seed expects a non-negative integer".to_string())?;
    let seconds = flag("--seconds")?
        .parse::<f64>()
        .ok()
        .filter(|s| s.is_finite() && *s > 0.0)
        .ok_or_else(|| "--seconds expects a positive number".to_string())?;
    let trace = match flag("--trace")? {
        "0" => false,
        "1" => true,
        _ => return Err("--trace expects 0 or 1".to_string()),
    };
    let scratch = Path::new(OUT_DIR)
        .join("tmp")
        .join(format!("{workload}-{}", std::process::id()));
    Ok(Ctx {
        workload,
        seed,
        seconds,
        trace,
        scratch,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let ctx = match parse_args(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    // Every `repro` invocation records into the metrics registry.
    repro_util::metrics::enable();
    let result = match ctx.workload.as_str() {
        "fig7-sweep" => fig7::run(&ctx),
        _ => serve::run(&ctx),
    };
    let _ = std::fs::remove_dir_all(&ctx.scratch);
    let mut out = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {} set-up failed: {e}", ctx.workload);
            return ExitCode::FAILURE;
        }
    };
    out.metric("peak_rss_mb", header::peak_rss_mb());
    match finish(&ctx, &mut out) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: could not write results: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Apply the determinism guard, write the result record (and spans), and
/// return the final JSON line.
fn finish(ctx: &Ctx, out: &mut Outcome) -> std::io::Result<String> {
    let out_dir = Path::new(OUT_DIR);
    let exe = header::exe_digest();
    let mismatches =
        exact::check_and_store(&out_dir.join("exact"), &exe, &ctx.workload, &out.counts)?;
    for m in mismatches {
        out.fail(1, format!("exact count changed: {m}"));
    }
    for (name, v) in out.metrics.iter_mut() {
        if !v.is_finite() {
            eprintln!("perfbench: {name} is not finite; reported as 0");
            *v = 0.0;
        }
    }
    let correct = out.failed == 0 && out.attempted > 0;
    let listed: &[(&str, &str)] = if ctx.trace { &PER_LAYER } else { &END_TO_END };
    let metrics = Json::Object(
        listed
            .iter()
            .map(|&(name, unit)| {
                (
                    name.to_string(),
                    Json::obj(vec![
                        ("value", out.value(name).to_json()),
                        ("unit", unit.to_json()),
                    ]),
                )
            })
            .collect(),
    );
    let window = ctx.workload == "serve-mix";
    let head = header::header(header::RunInfo {
        workload: &ctx.workload,
        seed: ctx.seed,
        seconds: ctx.seconds,
        params: std::mem::replace(&mut out.params, Json::Null),
        instrumentation: header::Instrumentation {
            metrics: repro_util::metrics::enabled(),
            window,
            obs_armed: window,
            traced: ctx.trace,
        },
    });
    let tag = format!(
        "{}-seed{}-trace{}",
        ctx.workload,
        ctx.seed,
        u8::from(ctx.trace)
    );
    let mut record = vec![
        ("header", head),
        ("exe_digest", exe.to_json()),
        ("correct", Json::Bool(correct)),
        ("ops", out.attempted.to_json()),
        ("ops_failed", out.failed.to_json()),
        ("failures", out.failures.to_json()),
        ("metrics", metrics.clone()),
        (
            "all_metrics",
            Json::Object(
                out.metrics
                    .iter()
                    .map(|(k, v)| (k.to_string(), v.to_json()))
                    .collect(),
            ),
        ),
        (
            "named_metrics",
            Json::Object(
                out.named
                    .iter()
                    .map(|&(k, v, unit)| {
                        (
                            k.to_string(),
                            Json::obj(vec![("value", v.to_json()), ("unit", unit.to_json())]),
                        )
                    })
                    .collect(),
            ),
        ),
        ("exact_digest", out.counts.digest().to_json()),
        ("exact_counts", out.counts.to_json()),
    ];
    record.extend(std::mem::take(&mut out.extra));
    write_file(
        &out_dir.join("results").join(format!("{tag}.json")),
        &Json::obj(record).to_pretty(),
    )?;
    if ctx.trace {
        write_file(
            &out_dir.join("traces").join(format!("{tag}.json")),
            &trace::chrome_json(&out.spans).to_compact(),
        )?;
    }
    for f in &out.failures {
        eprintln!("perfbench: FAILED {f}");
    }
    for (name, v, unit) in &out.named {
        eprintln!("perfbench: {name} = {v} {unit}");
    }
    eprintln!(
        "perfbench: {} seed {}: {} ops, {} failed; record {}/results/{tag}.json",
        ctx.workload, ctx.seed, out.attempted, out.failed, OUT_DIR
    );
    Ok(Json::obj(vec![
        ("correct", Json::Bool(correct)),
        ("attempted", out.attempted.to_json()),
        ("failed", out.failed.to_json()),
        ("metrics", metrics),
    ])
    .to_compact())
}

fn write_file(path: &Path, text: &str) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, text)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn benchmark_json() -> Json {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json"))
            .expect("BENCHMARK.json parses")
    }

    fn listed(j: &Json, key: &str) -> Vec<(String, String)> {
        j.get(key)
            .and_then(Json::as_array)
            .expect("metric list")
            .iter()
            .map(|m| {
                (
                    m.get("name").and_then(Json::as_str).unwrap().to_string(),
                    m.get("unit").and_then(Json::as_str).unwrap().to_string(),
                )
            })
            .collect()
    }

    fn ours(list: &[(&str, &str)]) -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn metric_lists_match_benchmark_json() {
        let j = benchmark_json();
        assert_eq!(listed(&j, "end_to_end"), ours(&END_TO_END));
        assert_eq!(listed(&j, "per_layer"), ours(&PER_LAYER));
        let names: Vec<&str> = j
            .get("workloads")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        assert_eq!(names, WORKLOADS);
    }

    #[test]
    fn arguments_are_checked() {
        let args = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
        let ok = parse_args(&args("--workload serve-mix --seed 3 --seconds 2 --trace 1")).unwrap();
        assert_eq!((ok.seed, ok.seconds, ok.trace), (3, 2.0, true));
        assert!(parse_args(&args("--workload nope --seed 3 --seconds 2 --trace 1")).is_err());
        assert!(parse_args(&args(
            "--workload serve-mix --seed -1 --seconds 2 --trace 1"
        ))
        .is_err());
        assert!(parse_args(&args("--workload serve-mix --seed 1 --seconds 0 --trace 1")).is_err());
        assert!(parse_args(&args("--workload serve-mix --seed 1 --seconds 2 --trace 2")).is_err());
        assert!(parse_args(&args("--workload serve-mix --seed 1 --seconds 2")).is_err());
    }
}
