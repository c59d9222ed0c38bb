//! The comparability header every result record carries: enough host,
//! build and run context to decide whether two runs can be compared.

use std::path::Path;
use std::process::Command;

use repro_cache::wire::fnv1a;
use repro_util::{Json, ToJson};

/// Files whose bytes decide what the benchmark measures.
const SOURCE_ROOTS: [&str; 6] = [
    "Cargo.toml",
    "Cargo.lock",
    "crates",
    "src",
    "perfbench/Cargo.toml",
    "perfbench/src",
];

/// What was switched on while the run measured.
pub struct Instrumentation {
    pub metrics: bool,
    pub window: bool,
    pub obs_armed: bool,
    pub traced: bool,
}

pub struct RunInfo<'a> {
    pub workload: &'a str,
    pub seed: u64,
    pub seconds: f64,
    pub params: Json,
    pub instrumentation: Instrumentation,
}

pub fn header(run: RunInfo) -> Json {
    let (rev, dirty) = git_rev();
    let i = &run.instrumentation;
    Json::obj(vec![
        ("workload", run.workload.to_json()),
        ("seed", run.seed.to_json()),
        ("seconds", run.seconds.to_json()),
        ("params", run.params),
        (
            "instrumentation",
            Json::obj(vec![
                ("metrics", Json::Bool(i.metrics)),
                ("window", Json::Bool(i.window)),
                ("obs_armed", Json::Bool(i.obs_armed)),
                ("traced", Json::Bool(i.traced)),
            ]),
        ),
        ("nproc", (nproc() as u64).to_json()),
        ("cpu_model", cpu_model().to_json()),
        ("os", std::env::consts::OS.to_json()),
        ("arch", std::env::consts::ARCH.to_json()),
        ("git_rev", rev.to_json()),
        ("git_dirty", dirty.map_or(Json::Null, Json::Bool)),
        ("source_digest", source_digest().to_json()),
        ("rustc", rustc_version().to_json()),
        (
            "build_profile",
            if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }
            .to_json(),
        ),
    ])
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Run a command to completion and return its trimmed stdout on success.
fn command_stdout(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// Short commit id and dirty flag, when the working directory is itself
/// the top of a git checkout; `("none", None)` otherwise (an exported
/// tree, where `source_digest` identifies the code instead).
fn git_rev() -> (String, Option<bool>) {
    let here = std::env::current_dir().and_then(|d| d.canonicalize()).ok();
    let top = command_stdout("git", &["rev-parse", "--show-toplevel"])
        .and_then(|t| Path::new(&t).canonicalize().ok());
    if here.is_none() || here != top {
        return ("none".to_string(), None);
    }
    let rev = command_stdout("git", &["rev-parse", "--short", "HEAD"]);
    let status = command_stdout("git", &["status", "--porcelain"]);
    match rev {
        Some(rev) => (rev, status.map(|s| !s.is_empty())),
        None => ("none".to_string(), None),
    }
}

fn rustc_version() -> String {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    command_stdout(&rustc, &["--version"]).unwrap_or_else(|| "unknown".to_string())
}

/// FNV-1a over the relative paths and bytes of every source file, in path
/// order: equal digests mean the same code was built.
pub fn source_digest() -> String {
    let mut files = Vec::new();
    for root in SOURCE_ROOTS {
        collect_files(Path::new(root), &mut files);
    }
    files.sort();
    let mut buf = Vec::new();
    for f in &files {
        buf.extend_from_slice(f.to_string_lossy().as_bytes());
        buf.push(0);
        buf.extend_from_slice(&std::fs::read(f).unwrap_or_default());
        buf.push(0);
    }
    format!("{:016x}", fnv1a(&buf))
}

fn collect_files(p: &Path, out: &mut Vec<std::path::PathBuf>) {
    if p.is_file() {
        out.push(p.to_path_buf());
    } else if let Ok(entries) = std::fs::read_dir(p) {
        for e in entries.flatten() {
            collect_files(&e.path(), out);
        }
    }
}

/// Digest of the running executable: runs of the same build share it.
pub fn exe_digest() -> String {
    let bytes = std::env::current_exe()
        .and_then(std::fs::read)
        .unwrap_or_default();
    format!("{:016x}", fnv1a(&bytes))
}

/// Peak resident set size of this process, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
