//! Process-wide instrumentation core — the pipeline's observability spine.
//!
//! Every stage of the reproduction (front end, pass manager, HLS synthesis,
//! Vortex codegen, suite runner, scheduler, `repro serve`) records through
//! this one module. It keeps three sinks:
//!
//! * the **cumulative registry** of three instrument kinds:
//!   * **counters** — monotone event tallies (`suite.runs.vortex`,
//!     `ir.rewrites.cse`). Additions saturate at `u64::MAX` instead of
//!     wrapping, so a counter can never lie by going backwards.
//!   * **gauges** — last-write-wins scalars (`sim.warps_configured`).
//!   * **histograms** — wall-clock span observations in seconds
//!     (`frontend.parse`, `ir.pass.licm`, `hls.synthesize`). Snapshots
//!     report count / total / p50 / p95 / max per series.
//! * the **windows** — the same counters and histograms over a rolling
//!   5-minute horizon, for a live service's `{"cmd":"stats"}`;
//! * the **span trees** — one nested tree of wall-clock frames per job,
//!   recorded on the worker thread that executes it ([`begin_job`] /
//!   [`end_job`]). Every [`time`] call site is also a frame, so the tree
//!   and the histograms come from the same two clock reads.
//!
//! One process-wide level gates all three:
//!
//! | level | records |
//! |---|---|
//! | Off (default) | nothing |
//! | Cumulative ([`enable`]) | counters, gauges, histograms |
//! | Live ([`window_enable`], `repro_obs::arm`) | Cumulative + windows, span trees, the event ring |
//!
//! Mirroring the simulator's `NopSink` contract, every record point starts
//! with one relaxed load of the level and, while Off, returns before
//! touching a clock, a lock, thread-local state, or an allocation; [`time`]
//! calls its closure directly. The trace goldens and Table I–IV artifacts
//! are byte-identical at every level because nothing here feeds back into
//! what the pipeline computes.
//!
//! All timestamps — span starts, event times, [`uptime_secs`], window
//! periods — are measured from one process epoch, fixed no later than the
//! first [`enable`] or [`window_enable`]. Raising the level is explicit
//! and meant for harness entry points (the `repro` binary, `perf-report`
//! collection, `repro serve`), never libraries. Percentiles use the
//! nearest-rank method: `pXX` is the smallest sample such that at least
//! XX% of samples are ≤ it.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use crate::{Json, ToJson};

const OFF: u8 = 0;
const CUMULATIVE: u8 = 1;
const LIVE: u8 = 2;

/// The one instrumentation gate. Relaxed: the level publishes no data, it
/// only decides whether a record point records.
static LEVEL: AtomicU8 = AtomicU8::new(OFF);

fn level() -> u8 {
    LEVEL.load(Ordering::Relaxed)
}

/// Raise the level to at least Cumulative. Never lowers a Live level.
/// Starts the process clock if nothing has yet.
pub fn enable() {
    epoch();
    LEVEL.fetch_max(CUMULATIVE, Ordering::Relaxed);
}

/// Set the level to Off (the default state).
pub fn disable() {
    LEVEL.store(OFF, Ordering::Relaxed);
}

/// Whether the cumulative registry is recording (level Cumulative or Live).
pub fn enabled() -> bool {
    level() >= CUMULATIVE
}

/// Raise the level to Live: windows, span trees and the event ring record
/// on top of the cumulative registry. `repro_obs::arm` is the same switch.
/// Starts the process clock if nothing has yet.
pub fn window_enable() {
    epoch();
    LEVEL.store(LIVE, Ordering::Relaxed);
}

/// Lower a Live level back to Cumulative (no-op at any other level).
/// `repro_obs::disarm` is the same switch.
pub fn window_disable() {
    let _ = LEVEL.compare_exchange(LIVE, CUMULATIVE, Ordering::Relaxed, Ordering::Relaxed);
}

/// Whether the level is Live.
pub fn live() -> bool {
    level() == LIVE
}

/// The process epoch every timestamp is measured from.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Microseconds from the process epoch to `t` (0 for instants before it).
fn micros(t: Instant) -> u64 {
    t.saturating_duration_since(epoch()).as_micros() as u64
}

/// Microseconds since the process epoch.
pub fn now_us() -> u64 {
    micros(Instant::now())
}

/// Seconds since the process epoch — the service uptime
/// `{"cmd":"health"}` reports.
pub fn uptime_secs() -> f64 {
    epoch().elapsed().as_secs_f64()
}

#[derive(Default)]
struct Inner {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Vec<f64>>,
}

fn registry() -> &'static Mutex<Inner> {
    static REG: OnceLock<Mutex<Inner>> = OnceLock::new();
    REG.get_or_init(|| Mutex::new(Inner::default()))
}

/// Clear every instrument (does not change the level).
pub fn reset() {
    let mut r = registry().lock().unwrap();
    *r = Inner::default();
}

/// Add `n` to counter `name`, saturating at `u64::MAX`. No-op while Off.
pub fn counter_add(name: &str, n: u64) {
    let level = level();
    if level == OFF {
        return;
    }
    {
        let mut r = registry().lock().unwrap();
        let c = r.counters.entry(name.to_string()).or_insert(0);
        *c = c.saturating_add(n);
    }
    if level == LIVE {
        windows()
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .counter_add(name, n, current_period());
    }
}

/// Set gauge `name` to `v` (last write wins). No-op while Off.
pub fn gauge_set(name: &str, v: f64) {
    if level() == OFF {
        return;
    }
    registry()
        .lock()
        .unwrap()
        .gauges
        .insert(name.to_string(), v);
}

/// Record one observation (seconds) into histogram `name`. No-op while
/// Off.
pub fn observe_secs(name: &str, secs: f64) {
    record_sample(level(), name, secs);
}

fn record_sample(level: u8, name: &str, secs: f64) {
    if level == OFF {
        return;
    }
    registry()
        .lock()
        .unwrap()
        .histograms
        .entry(name.to_string())
        .or_default()
        .push(secs);
    if level == LIVE {
        windows()
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .observe(name, secs, current_period());
    }
}

/// Time `f` into histogram `name` and, at Live inside a job, record it as
/// a frame of the job's span tree. One clock read at entry and one at exit
/// feed both. While Off this is a direct call — no clock is read.
pub fn time<R>(name: &str, f: impl FnOnce() -> R) -> R {
    let level = level();
    if level == OFF {
        return f();
    }
    let t0 = Instant::now();
    let framed = level == LIVE && enter_frame(name, t0);
    let r = f();
    let t1 = Instant::now();
    record_sample(level, name, (t1 - t0).as_secs_f64());
    if framed {
        exit_frame(t1);
    }
    r
}

/// Record `f` as a frame named `name` of the current job's span tree, with
/// no histogram. A direct call below Live or outside a job.
pub fn span<R>(name: &str, f: impl FnOnce() -> R) -> R {
    if !live() || !enter_frame(name, Instant::now()) {
        return f();
    }
    let r = f();
    exit_frame(Instant::now());
    r
}

/// Summary of one histogram series at snapshot time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistogramSummary {
    pub count: u64,
    /// Sum of all observations, in seconds.
    pub total: f64,
    /// Nearest-rank 50th percentile.
    pub p50: f64,
    /// Nearest-rank 95th percentile.
    pub p95: f64,
    pub max: f64,
}

fn sample_cmp(a: &f64, b: &f64) -> std::cmp::Ordering {
    a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal)
}

/// Nearest-rank percentile of a non-empty sample set: the smallest element
/// such that at least `q` of the distribution is ≤ it. Selection, not a
/// sort: `samples` comes back partially reordered.
fn percentile(samples: &mut [f64], q: f64) -> f64 {
    debug_assert!(!samples.is_empty());
    let rank = (q * samples.len() as f64).ceil() as usize;
    *samples
        .select_nth_unstable_by(rank.clamp(1, samples.len()) - 1, sample_cmp)
        .1
}

impl HistogramSummary {
    /// Summarise a non-empty sample set, taking ownership so the samples
    /// are copied at most once per snapshot.
    fn from_samples(mut samples: Vec<f64>) -> HistogramSummary {
        // Summed in recording order, before selection reorders the samples.
        let total = samples.iter().sum();
        HistogramSummary {
            count: samples.len() as u64,
            total,
            max: samples.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            p50: percentile(&mut samples, 0.50),
            p95: percentile(&mut samples, 0.95),
        }
    }
}

/// A point-in-time copy of every instrument, sorted by name.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    pub counters: Vec<(String, u64)>,
    pub gauges: Vec<(String, f64)>,
    pub histograms: Vec<(String, HistogramSummary)>,
}

impl Snapshot {
    /// True when nothing has been recorded since the last reset.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Histogram summary by exact name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSummary> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h)
    }

    /// Counter value by exact name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }
}

/// Copy the current state of every instrument out of the registry. Works
/// whether or not collection is enabled (a disabled registry snapshots as
/// whatever was recorded before it was disabled).
pub fn snapshot() -> Snapshot {
    let r = registry().lock().unwrap();
    Snapshot {
        counters: r.counters.iter().map(|(k, &v)| (k.clone(), v)).collect(),
        gauges: r.gauges.iter().map(|(k, &v)| (k.clone(), v)).collect(),
        histograms: r
            .histograms
            .iter()
            .map(|(k, v)| (k.clone(), HistogramSummary::from_samples(v.clone())))
            .collect(),
    }
}

impl ToJson for HistogramSummary {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("count", self.count.to_json()),
            ("total_secs", self.total.to_json()),
            ("p50_secs", self.p50.to_json()),
            ("p95_secs", self.p95.to_json()),
            ("max_secs", self.max.to_json()),
        ])
    }
}

impl ToJson for Snapshot {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            (
                "counters",
                Json::Object(
                    self.counters
                        .iter()
                        .map(|(k, v)| (k.clone(), v.to_json()))
                        .collect(),
                ),
            ),
            (
                "gauges",
                Json::Object(
                    self.gauges
                        .iter()
                        .map(|(k, v)| (k.clone(), v.to_json()))
                        .collect(),
                ),
            ),
            (
                "histograms",
                Json::Object(
                    self.histograms
                        .iter()
                        .map(|(k, h)| (k.clone(), h.to_json()))
                        .collect(),
                ),
            ),
        ])
    }
}

/// Rebuild a [`Snapshot`] from the JSON form [`ToJson`] produces — the
/// manifest-reading half of baseline comparison.
pub fn snapshot_from_json(j: &Json) -> Option<Snapshot> {
    let objects = |v: &Json| match v {
        Json::Object(fields) => Some(fields.clone()),
        _ => None,
    };
    let counters = objects(j.get("counters")?)?
        .into_iter()
        .filter_map(|(k, v)| v.as_u64().map(|v| (k, v)))
        .collect();
    let gauges = objects(j.get("gauges")?)?
        .into_iter()
        .filter_map(|(k, v)| v.as_f64().map(|v| (k, v)))
        .collect();
    let histograms = objects(j.get("histograms")?)?
        .into_iter()
        .filter_map(|(k, v)| {
            Some((
                k,
                HistogramSummary {
                    count: v.get("count")?.as_u64()?,
                    total: v.get("total_secs")?.as_f64()?,
                    p50: v.get("p50_secs")?.as_f64()?,
                    p95: v.get("p95_secs")?.as_f64()?,
                    max: v.get("max_secs")?.as_f64()?,
                },
            ))
        })
        .collect();
    Some(Snapshot {
        counters,
        gauges,
        histograms,
    })
}

// ---------------------------------------------------------------------------
// Windowed time-series
//
// The cumulative registry above answers "what happened since the process
// started" — useless for an operator watching a live `repro serve`, where
// the interesting question is "what is happening *now*". The windowed
// layer keeps, per counter and histogram name, a fixed ring of per-10s
// buckets spanning a rolling 5-minute horizon. Buckets are reset lazily on
// reuse (stamped with their period id), so rotation costs nothing when a
// name goes quiet.
//
// Windows record only at Live, on the same record points as the cumulative
// registry; below Live they cost nothing beyond the level load those record
// points already make.
// ---------------------------------------------------------------------------

/// Seconds covered by one window bucket.
pub const WINDOW_BUCKET_SECS: u64 = 10;
/// Buckets in the ring: 30 × 10 s = a rolling 5-minute horizon.
pub const WINDOW_BUCKETS: usize = 30;

/// Clear every window ring (does not change the level).
pub fn window_reset() {
    let mut w = windows().lock().unwrap_or_else(|e| e.into_inner());
    *w = WindowSet::new();
}

fn windows() -> &'static Mutex<WindowSet> {
    static WIN: OnceLock<Mutex<WindowSet>> = OnceLock::new();
    WIN.get_or_init(|| Mutex::new(WindowSet::new()))
}

/// Window period ids count `WINDOW_BUCKET_SECS` intervals since the
/// process epoch.
fn current_period() -> u64 {
    epoch().elapsed().as_secs() / WINDOW_BUCKET_SECS
}

/// One counter's bucket ring: `(period stamp, value)` per slot, indexed by
/// `period % WINDOW_BUCKETS`. A slot whose stamp is stale logically holds
/// zero and is reset on the next write to it.
#[derive(Debug, Clone)]
struct CounterRing {
    slots: Vec<(u64, u64)>,
}

impl CounterRing {
    fn new() -> CounterRing {
        CounterRing {
            slots: vec![(u64::MAX, 0); WINDOW_BUCKETS],
        }
    }

    fn add(&mut self, n: u64, period: u64) {
        let slot = &mut self.slots[(period as usize) % WINDOW_BUCKETS];
        if slot.0 != period {
            *slot = (period, 0);
        }
        slot.1 = slot.1.saturating_add(n);
    }

    /// Sum over the horizon ending at `now_period` (inclusive).
    fn total(&self, now_period: u64) -> u64 {
        self.slots
            .iter()
            .filter(|(stamp, _)| in_horizon(*stamp, now_period))
            .map(|&(_, v)| v)
            .sum()
    }
}

/// One histogram's bucket ring: raw samples per bucket, bounded by the
/// horizon (stale buckets are reset on reuse, and snapshots ignore them).
#[derive(Debug, Clone)]
struct HistoRing {
    slots: Vec<(u64, Vec<f64>)>,
}

impl HistoRing {
    fn new() -> HistoRing {
        HistoRing {
            slots: vec![(u64::MAX, Vec::new()); WINDOW_BUCKETS],
        }
    }

    fn observe(&mut self, secs: f64, period: u64) {
        let slot = &mut self.slots[(period as usize) % WINDOW_BUCKETS];
        if slot.0 != period {
            slot.0 = period;
            slot.1.clear();
        }
        slot.1.push(secs);
    }

    fn samples(&self, now_period: u64) -> Vec<f64> {
        let mut out = Vec::new();
        for (stamp, vals) in &self.slots {
            if in_horizon(*stamp, now_period) {
                out.extend_from_slice(vals);
            }
        }
        out
    }
}

/// Whether a bucket stamped `stamp` is inside the horizon ending at
/// `now_period`: the `WINDOW_BUCKETS` most recent periods, current one
/// included. `u64::MAX` (the never-written sentinel) is always outside.
fn in_horizon(stamp: u64, now_period: u64) -> bool {
    stamp <= now_period && stamp + (WINDOW_BUCKETS as u64) > now_period
}

/// The windowed registry core. Period ids are an explicit argument on
/// every method so rotation is testable without a clock; the global
/// wrapper derives them from the process epoch.
#[derive(Debug, Default)]
pub struct WindowSet {
    counters: BTreeMap<String, CounterRing>,
    histograms: BTreeMap<String, HistoRing>,
}

impl WindowSet {
    pub fn new() -> WindowSet {
        WindowSet::default()
    }

    /// Add `n` to counter `name` in the bucket for `period`.
    pub fn counter_add(&mut self, name: &str, n: u64, period: u64) {
        self.counters
            .entry(name.to_string())
            .or_insert_with(CounterRing::new)
            .add(n, period);
    }

    /// Record one observation into histogram `name`'s bucket for `period`.
    pub fn observe(&mut self, name: &str, secs: f64, period: u64) {
        self.histograms
            .entry(name.to_string())
            .or_insert_with(HistoRing::new)
            .observe(secs, period);
    }

    /// Summarise the horizon ending at `now_period`. Names whose every
    /// bucket has aged out vanish from the snapshot entirely — a windowed
    /// snapshot reports recent activity, not lifetime presence.
    pub fn snapshot_at(&self, now_period: u64) -> WindowSnapshot {
        let counters = self
            .counters
            .iter()
            .filter_map(|(k, ring)| match ring.total(now_period) {
                0 => None,
                v => Some((k.clone(), v)),
            })
            .collect();
        let histograms = self
            .histograms
            .iter()
            .filter_map(|(k, ring)| {
                let samples = ring.samples(now_period);
                if samples.is_empty() {
                    None
                } else {
                    Some((k.clone(), HistogramSummary::from_samples(samples)))
                }
            })
            .collect();
        WindowSnapshot {
            horizon_secs: (WINDOW_BUCKETS as u64) * WINDOW_BUCKET_SECS,
            counters,
            histograms,
        }
    }
}

/// A point-in-time summary of the rolling window, sorted by name.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WindowSnapshot {
    /// Seconds the window spans (bucket size × bucket count).
    pub horizon_secs: u64,
    /// Per-counter sums within the horizon.
    pub counters: Vec<(String, u64)>,
    /// Per-histogram summaries over the samples within the horizon.
    pub histograms: Vec<(String, HistogramSummary)>,
}

impl WindowSnapshot {
    /// Counter sum within the window, by exact name (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |&(_, v)| v)
    }

    /// Histogram summary within the window, by exact name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSummary> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h)
    }

    /// Events per second for counter `name`, over the smaller of the
    /// horizon and the observed age — so a 20-second-old server reports
    /// jobs/sec against 20 s, not against an empty 5-minute window.
    pub fn rate(&self, name: &str, age_secs: f64) -> f64 {
        let denom = age_secs.min(self.horizon_secs as f64).max(1e-9);
        self.counter(name) as f64 / denom
    }
}

impl ToJson for WindowSnapshot {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("horizon_secs", self.horizon_secs.to_json()),
            (
                "counters",
                Json::Object(
                    self.counters
                        .iter()
                        .map(|(k, v)| (k.clone(), v.to_json()))
                        .collect(),
                ),
            ),
            (
                "histograms",
                Json::Object(
                    self.histograms
                        .iter()
                        .map(|(k, h)| (k.clone(), h.to_json()))
                        .collect(),
                ),
            ),
        ])
    }
}

/// Summarise the global window rings as of now. Works at any level (rings
/// never written at Live snapshot as empty).
pub fn window_snapshot() -> WindowSnapshot {
    windows()
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .snapshot_at(current_period())
}

// ---------------------------------------------------------------------------
// Per-job span trees
//
// At Live the executor brackets each job with `begin_job` / `end_job` on the
// worker thread that runs it; every `time` and `span` call in between pushes
// a frame onto that thread's recorder. Closing a frame folds it into its
// parent's children, so the finished tree nests exactly as the calls did.
// ---------------------------------------------------------------------------

/// One node of a job's span tree. Times are microseconds since the process
/// epoch; durations are wall-clock and therefore nondeterministic —
/// everything else (name, nesting, child order) is a pure function of what
/// the job executed.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanNode {
    pub name: String,
    pub start_us: u64,
    pub dur_us: u64,
    pub children: Vec<SpanNode>,
}

impl SpanNode {
    /// Total nodes in this subtree (root included).
    pub fn count(&self) -> usize {
        1 + self.children.iter().map(SpanNode::count).sum::<usize>()
    }

    /// The duration-free shape of the tree: nested names only. Two runs of
    /// the same job must produce equal signatures regardless of pool width
    /// or which worker executed them — the span-determinism tests compare
    /// exactly this.
    pub fn signature(&self) -> String {
        let mut out = String::new();
        self.write_signature(&mut out);
        out
    }

    fn write_signature(&self, out: &mut String) {
        out.push_str(&self.name);
        if !self.children.is_empty() {
            out.push('(');
            for (i, c) in self.children.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                c.write_signature(out);
            }
            out.push(')');
        }
    }

    /// Whether every child lies inside its parent and no parent's children
    /// sum to more than the parent (self time ≥ 0), recursively.
    fn well_formed(&self) -> bool {
        let end = self.start_us + self.dur_us;
        let inside = |c: &SpanNode| c.start_us >= self.start_us && c.start_us + c.dur_us <= end;
        self.children.iter().all(inside)
            && self.children.iter().map(|c| c.dur_us).sum::<u64>() <= self.dur_us
            && self.children.iter().all(SpanNode::well_formed)
    }
}

impl ToJson for SpanNode {
    fn to_json(&self) -> Json {
        let mut fields = vec![
            ("name", self.name.to_json()),
            ("start_us", self.start_us.to_json()),
            ("dur_us", self.dur_us.to_json()),
        ];
        if !self.children.is_empty() {
            fields.push((
                "children",
                Json::Array(self.children.iter().map(ToJson::to_json).collect()),
            ));
        }
        Json::obj(fields)
    }
}

/// Parse a span tree back from its wire form ([`SpanNode::to_json`]
/// inverse). `None` on any missing or mistyped field.
pub fn parse_span(j: &Json) -> Option<SpanNode> {
    let name = j.get("name")?.as_str()?.to_string();
    let start_us = j.get("start_us")?.as_u64()?;
    let dur_us = j.get("dur_us")?.as_u64()?;
    let children = match j.get("children") {
        None => Vec::new(),
        Some(c) => c
            .as_array()?
            .iter()
            .map(parse_span)
            .collect::<Option<Vec<_>>>()?,
    };
    Some(SpanNode {
        name,
        start_us,
        dur_us,
        children,
    })
}

/// An open (not yet closed) span frame on the recorder stack.
struct Frame {
    name: String,
    start_us: u64,
    children: Vec<SpanNode>,
}

/// Per-thread span recorder for one job. The stack holds the chain of
/// currently-open frames; index 0 is the synthetic `job` root.
struct Recorder {
    stack: Vec<Frame>,
}

impl Recorder {
    fn enter(&mut self, name: &str, now_us: u64) {
        self.stack.push(Frame {
            name: name.to_string(),
            start_us: now_us,
            children: Vec::new(),
        });
    }

    fn exit(&mut self, now_us: u64) {
        // Never pop the root: a stray exit is dropped rather than
        // corrupting the tree.
        if self.stack.len() <= 1 {
            return;
        }
        let frame = self.stack.pop().expect("len checked above");
        let node = SpanNode {
            name: frame.name,
            start_us: frame.start_us,
            dur_us: now_us.saturating_sub(frame.start_us),
            children: frame.children,
        };
        self.stack
            .last_mut()
            .expect("root always present")
            .children
            .push(node);
    }

    /// Close every still-open frame (a panicked job unwinds past its
    /// frames) and return the finished tree.
    fn finish(mut self, now_us: u64) -> SpanNode {
        while self.stack.len() > 1 {
            self.exit(now_us);
        }
        let root = self.stack.pop().expect("root always present");
        let tree = SpanNode {
            name: root.name,
            start_us: root.start_us,
            dur_us: now_us.saturating_sub(root.start_us),
            children: root.children,
        };
        debug_assert!(tree.well_formed(), "malformed span tree: {tree:?}");
        tree
    }
}

thread_local! {
    static RECORDER: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Start recording a span tree on the current thread for a job submitted
/// at `submitted`. The `job` root starts at submission, and the interval
/// until now is its first child, `queue_wait`, so every later frame lies
/// inside the root after it. Replaces any recorder a previous (possibly
/// panicked) job left behind. No-op below Live.
pub fn begin_job(submitted: Instant) {
    if !live() {
        return;
    }
    let (start_us, now_us) = (micros(submitted), now_us());
    let queue_wait = SpanNode {
        name: "queue_wait".to_string(),
        start_us,
        dur_us: now_us.saturating_sub(start_us),
        children: Vec::new(),
    };
    let root = Frame {
        name: "job".to_string(),
        start_us,
        children: vec![queue_wait],
    };
    RECORDER.with(|r| *r.borrow_mut() = Some(Recorder { stack: vec![root] }));
}

/// Finish the current thread's job recording and return the completed span
/// tree. Frames still open (a panicked job unwound past them) are closed
/// at the root's end time, so the tree always nests. `None` if
/// [`begin_job`] did not record on this thread.
pub fn end_job() -> Option<SpanNode> {
    RECORDER
        .with(|r| r.borrow_mut().take())
        .map(|rec| rec.finish(now_us()))
}

/// Push a frame starting at `t` onto the current thread's recorder, if one
/// is active. Returns whether a frame was opened, so the matching
/// [`exit_frame`] is skipped when it wasn't.
fn enter_frame(name: &str, t: Instant) -> bool {
    RECORDER.with(|r| match r.borrow_mut().as_mut() {
        Some(rec) => {
            rec.enter(name, micros(t));
            true
        }
        None => false,
    })
}

/// Close the innermost open frame at `t`.
fn exit_frame(t: Instant) {
    RECORDER.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            rec.exit(micros(t));
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The registry is process-global; tests that mutate it must not
    /// interleave. (`cargo test` runs `#[test]`s on threads.)
    fn serial() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_registry_records_nothing() {
        let _g = serial();
        disable();
        reset();
        counter_add("c", 3);
        gauge_set("g", 1.0);
        observe_secs("h", 0.5);
        let mut calls = 0;
        let v = time("span", || {
            calls += 1;
            7
        });
        assert_eq!((v, calls), (7, 1), "closure still runs exactly once");
        assert!(snapshot().is_empty());
    }

    #[test]
    fn counters_saturate_instead_of_wrapping() {
        let _g = serial();
        enable();
        reset();
        counter_add("sat", u64::MAX - 1);
        counter_add("sat", 5);
        counter_add("sat", u64::MAX);
        let s = snapshot();
        disable();
        assert_eq!(s.counter("sat"), Some(u64::MAX));
    }

    #[test]
    fn histogram_percentiles_on_known_distribution() {
        let _g = serial();
        enable();
        reset();
        // 1..=100 milliseconds, inserted shuffled to prove order-independence.
        let mut rng = crate::Rng::new(0xfeed);
        let mut vals: Vec<u64> = (1..=100).collect();
        for i in (1..vals.len()).rev() {
            vals.swap(i, rng.below(i as u64 + 1) as usize);
        }
        for v in vals {
            observe_secs("d", v as f64 * 1e-3);
        }
        let s = snapshot();
        disable();
        let h = *s.histogram("d").unwrap();
        assert_eq!(h.count, 100);
        assert!((h.total - 5.050).abs() < 1e-9, "total {}", h.total);
        // Nearest-rank: p50 of 1..=100 ms is exactly 50 ms, p95 is 95 ms.
        assert!((h.p50 - 0.050).abs() < 1e-12, "p50 {}", h.p50);
        assert!((h.p95 - 0.095).abs() < 1e-12, "p95 {}", h.p95);
        assert!((h.max - 0.100).abs() < 1e-12, "max {}", h.max);
    }

    #[test]
    fn single_sample_percentiles_are_the_sample() {
        let _g = serial();
        enable();
        reset();
        observe_secs("one", 2.5);
        let s = snapshot();
        disable();
        let h = *s.histogram("one").unwrap();
        assert_eq!((h.count, h.p50, h.p95, h.max), (1, 2.5, 2.5, 2.5));
    }

    #[test]
    fn snapshot_json_round_trips() {
        let _g = serial();
        enable();
        reset();
        counter_add("runs", 2);
        gauge_set("threads", 8.0);
        observe_secs("span", 0.25);
        observe_secs("span", 0.75);
        let s = snapshot();
        disable();
        use crate::ToJson;
        let j = s.to_json();
        let parsed = crate::Json::parse(&j.to_pretty()).unwrap();
        let back = snapshot_from_json(&parsed).unwrap();
        assert_eq!(back, s);
        assert_eq!(back.histogram("span").unwrap().count, 2);
    }

    #[test]
    fn window_counter_rotates_out_at_horizon_boundary() {
        let mut w = WindowSet::new();
        w.counter_add("jobs", 5, 0);
        w.counter_add("jobs", 3, 1);
        // Period 0's bucket is visible through period WINDOW_BUCKETS - 1...
        let last_in = WINDOW_BUCKETS as u64 - 1;
        assert_eq!(w.snapshot_at(0).counter("jobs"), 5);
        assert_eq!(w.snapshot_at(last_in).counter("jobs"), 8);
        // ...and gone exactly one period later; period 1's bucket follows.
        assert_eq!(w.snapshot_at(last_in + 1).counter("jobs"), 3);
        assert_eq!(w.snapshot_at(last_in + 2).counter("jobs"), 0);
        // An aged-out name disappears from the snapshot entirely.
        assert!(w.snapshot_at(last_in + 2).counters.is_empty());
    }

    #[test]
    fn window_bucket_slot_resets_on_reuse_one_full_turn_later() {
        let mut w = WindowSet::new();
        w.counter_add("c", 100, 2);
        // One full ring revolution later the same slot is reused; the old
        // value must not bleed into the new period's count.
        let reuse = 2 + WINDOW_BUCKETS as u64;
        w.counter_add("c", 7, reuse);
        assert_eq!(w.snapshot_at(reuse).counter("c"), 7);
    }

    #[test]
    fn window_percentiles_are_nearest_rank_over_window_samples_only() {
        let mut w = WindowSet::new();
        // 100 samples of 1..=100 ms spread over periods 0..4, plus a huge
        // outlier far in the past that must age out of the window.
        w.observe("lat", 999.0, 0);
        for v in 1..=100u64 {
            w.observe("lat", v as f64 * 1e-3, v % 5 + WINDOW_BUCKETS as u64);
        }
        let now = WINDOW_BUCKETS as u64 + 4;
        let h = *w.snapshot_at(now).histogram("lat").unwrap();
        assert_eq!(h.count, 100, "outlier aged out");
        assert!((h.p50 - 0.050).abs() < 1e-12, "p50 {}", h.p50);
        assert!((h.p95 - 0.095).abs() < 1e-12, "p95 {}", h.p95);
        assert!((h.max - 0.100).abs() < 1e-12, "max {}", h.max);
    }

    #[test]
    fn window_snapshot_json_shape() {
        let mut w = WindowSet::new();
        w.counter_add("jobs.done", 4, 0);
        w.observe("job.wall", 0.5, 0);
        let snap = w.snapshot_at(0);
        assert!((snap.rate("jobs.done", 2.0) - 2.0).abs() < 1e-12);
        use crate::ToJson;
        let j = crate::Json::parse(&snap.to_json().to_compact()).unwrap();
        assert_eq!(
            j.get("horizon_secs").and_then(|v| v.as_u64()),
            Some(WINDOW_BUCKET_SECS * WINDOW_BUCKETS as u64)
        );
        assert_eq!(
            j.get("counters")
                .and_then(|c| c.get("jobs.done"))
                .and_then(|v| v.as_u64()),
            Some(4)
        );
        assert_eq!(
            j.get("histograms")
                .and_then(|h| h.get("job.wall"))
                .and_then(|h| h.get("count"))
                .and_then(|v| v.as_u64()),
            Some(1)
        );
    }

    #[test]
    fn span_tree_nests_and_tiles() {
        let _g = serial();
        window_enable();
        begin_job(Instant::now());
        span("compile", || {
            span("lower", || {});
            span("codegen", || {});
        });
        span("launch", || {});
        let tree = end_job().expect("recording was live");
        disable();
        assert_eq!(tree.name, "job");
        let names: Vec<&str> = tree.children.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, ["queue_wait", "compile", "launch"]);
        let inner: Vec<&str> = tree.children[1]
            .children
            .iter()
            .map(|c| c.name.as_str())
            .collect();
        assert_eq!(inner, ["lower", "codegen"]);
        assert!(tree.well_formed(), "{tree:?}");
        // Round trip through the wire form.
        let parsed =
            parse_span(&Json::parse(&tree.to_json().to_pretty()).unwrap()).expect("parses back");
        assert_eq!(parsed.signature(), tree.signature());
        assert_eq!(parsed.name, "job");
    }

    #[test]
    fn unclosed_frames_are_closed_at_end_job() {
        let _g = serial();
        window_enable();
        begin_job(Instant::now());
        // Simulate a panic unwinding past an open frame: enter without exit.
        assert!(enter_frame("doomed", Instant::now()));
        let tree = end_job().unwrap();
        assert_eq!(tree.children.len(), 2);
        assert_eq!(tree.children[1].name, "doomed");
        // A fresh job is unaffected by the leak.
        begin_job(Instant::now());
        let tree = end_job().unwrap();
        disable();
        assert_eq!(tree.signature(), "job(queue_wait)");
    }

    #[test]
    fn time_outside_a_job_at_live_records_its_histogram_and_no_frame() {
        let _g = serial();
        window_enable();
        reset();
        assert_eq!(time("outside", || 5), 5);
        let opened = end_job();
        let s = snapshot();
        disable();
        assert_eq!(s.histogram("outside").map(|h| h.count), Some(1));
        assert!(opened.is_none(), "no recorder, so no frame: {opened:?}");
    }

    #[test]
    fn selection_percentiles_match_a_full_sort() {
        let mut rng = crate::rng::Rng::new(0x5e1ec7);
        for n in 1..=257usize {
            // Few distinct values, so every length has duplicates.
            let samples: Vec<f64> = (0..n)
                .map(|_| rng.below(n as u64 / 3 + 2) as f64 * 1e-3)
                .collect();
            let mut sorted = samples.clone();
            sorted.sort_by(sample_cmp);
            let rank = |q: f64| sorted[((q * n as f64).ceil() as usize).clamp(1, n) - 1];
            let h = HistogramSummary::from_samples(samples.clone());
            assert_eq!(h.count, n as u64);
            assert_eq!(h.total.to_bits(), samples.iter().sum::<f64>().to_bits());
            assert_eq!(h.p50.to_bits(), rank(0.50).to_bits(), "p50 at n={n}");
            assert_eq!(h.p95.to_bits(), rank(0.95).to_bits(), "p95 at n={n}");
            assert_eq!(h.max.to_bits(), sorted[n - 1].to_bits(), "max at n={n}");
        }
    }
}
