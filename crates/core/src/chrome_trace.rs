//! Chrome-trace (chrome://tracing / Perfetto "JSON Array Format") export of
//! the simulator's event stream.
//!
//! Mapping: one trace *process* (`pid`) per simulated core; one *thread*
//! (`tid`) per warp carrying its issued instructions as 1-cycle complete
//! ("X") events; per-core auxiliary tracks (tids from [`STALL_TID`] up)
//! carry stall spans, barrier traffic, cache/DRAM transactions and MSHR
//! occupancy. Cycle numbers are used directly as timestamps. Multi-launch
//! runs are laid out back-to-back on one timeline — launch `i+1` starts
//! [`LAUNCH_GAP`] cycles after the last event of launch `i` — and every
//! event carries its launch index in `args`, so per-launch invariants stay
//! checkable after export.
//!
//! Events are sorted by `(pid, tid, ts)`, making per-track timestamps
//! monotone — a property the trace-invariant tests pin down.

use repro_util::{metrics, Json};
use vortex_sim::{CacheLevel, TraceEvent};

/// First auxiliary (non-warp) track id. Warp counts are tiny, so any tid at
/// or above this is an auxiliary per-core track.
pub const STALL_TID: u64 = 1_000_000;
/// Barrier arrive/release instants.
pub const BARRIER_TID: u64 = 1_000_001;
/// D-cache and L2 access instants.
pub const MEM_TID: u64 = 1_000_002;
/// MSHR occupancy spans (acquire → fill).
pub const MSHR_TID: u64 = 1_000_003;
/// DRAM transaction spans.
pub const DRAM_TID: u64 = 1_000_004;

/// Idle cycles inserted between consecutive launches on the shared
/// timeline, so launch boundaries are visible in the viewer.
pub const LAUNCH_GAP: u64 = 10;

/// End cycle of an event: where its span stops, or the instant itself.
fn end_cycle(ev: &TraceEvent) -> u64 {
    match *ev {
        TraceEvent::Issue { cycle, .. } => cycle + 1,
        TraceEvent::Stall { to, .. } => to,
        TraceEvent::MshrAcquire { fill, .. } => fill,
        TraceEvent::Dram { done, .. } => done,
        TraceEvent::BarrierArrive { cycle, .. }
        | TraceEvent::BarrierRelease { cycle, .. }
        | TraceEvent::Wspawn { cycle, .. }
        | TraceEvent::CacheAccess { cycle, .. } => cycle,
    }
}

struct Row {
    pid: u64,
    tid: u64,
    ts: u64,
    json: Json,
}

fn complete(
    pid: u64,
    tid: u64,
    ts: u64,
    dur: u64,
    name: String,
    launch: usize,
    mut args: Vec<(&str, Json)>,
) -> Row {
    args.push(("launch", Json::UInt(launch as u64)));
    Row {
        pid,
        tid,
        ts,
        json: Json::obj(vec![
            ("name", Json::Str(name)),
            ("ph", Json::Str("X".into())),
            ("pid", Json::UInt(pid)),
            ("tid", Json::UInt(tid)),
            ("ts", Json::UInt(ts)),
            ("dur", Json::UInt(dur)),
            ("args", Json::obj(args)),
        ]),
    }
}

fn instant(
    pid: u64,
    tid: u64,
    ts: u64,
    name: String,
    launch: usize,
    mut args: Vec<(&str, Json)>,
) -> Row {
    args.push(("launch", Json::UInt(launch as u64)));
    Row {
        pid,
        tid,
        ts,
        json: Json::obj(vec![
            ("name", Json::Str(name)),
            ("ph", Json::Str("i".into())),
            ("s", Json::Str("t".into())),
            ("pid", Json::UInt(pid)),
            ("tid", Json::UInt(tid)),
            ("ts", Json::UInt(ts)),
            ("args", Json::obj(args)),
        ]),
    }
}

fn metadata(pid: u64, tid: Option<u64>, name: &str, label: String) -> Json {
    let mut fields = vec![
        ("name", Json::Str(name.into())),
        ("ph", Json::Str("M".into())),
        ("pid", Json::UInt(pid)),
    ];
    if let Some(tid) = tid {
        fields.push(("tid", Json::UInt(tid)));
    }
    fields.push(("args", Json::obj(vec![("name", Json::Str(label))])));
    Json::obj(fields)
}

/// Export one run — `launches[i]` is the recorded event stream of launch
/// `i` — as a chrome://tracing document.
pub fn chrome_trace(launches: &[Vec<TraceEvent>]) -> Json {
    let mut rows: Vec<Row> = Vec::new();
    let mut offset = 0u64;
    for (li, events) in launches.iter().enumerate() {
        let mut span_end = 0u64;
        for ev in events {
            span_end = span_end.max(end_cycle(ev));
            rows.push(event_row(ev, li, offset));
        }
        offset += span_end + LAUNCH_GAP;
    }
    rows.sort_by_key(|r| (r.pid, r.tid, r.ts));

    let mut seen: Vec<(u64, u64)> = rows
        .iter()
        .map(|r| (r.pid, r.tid))
        .collect::<std::collections::BTreeSet<_>>()
        .into_iter()
        .collect();
    seen.dedup();
    let mut out: Vec<Json> = Vec::with_capacity(rows.len() + seen.len());
    let mut named_pid = u64::MAX;
    for &(pid, tid) in &seen {
        if pid != named_pid {
            named_pid = pid;
            out.push(metadata(pid, None, "process_name", format!("core {pid}")));
        }
        let label = match tid {
            STALL_TID => "stalls".into(),
            BARRIER_TID => "barriers".into(),
            MEM_TID => "cache".into(),
            MSHR_TID => "mshr".into(),
            DRAM_TID => "dram".into(),
            w => format!("warp {w}"),
        };
        out.push(metadata(pid, Some(tid), "thread_name", label));
    }
    out.extend(rows.into_iter().map(|r| r.json));
    Json::obj(vec![
        ("traceEvents", Json::Array(out)),
        ("displayTimeUnit", Json::Str("ns".into())),
    ])
}

fn event_row(ev: &TraceEvent, launch: usize, offset: u64) -> Row {
    match *ev {
        TraceEvent::Issue {
            core,
            warp,
            cycle,
            pc,
        } => complete(
            core as u64,
            warp as u64,
            offset + cycle,
            1,
            format!("pc {pc}"),
            launch,
            vec![("pc", Json::UInt(pc as u64))],
        ),
        TraceEvent::Stall {
            core,
            kind,
            from,
            to,
        } => complete(
            core as u64,
            STALL_TID,
            offset + from,
            to - from,
            kind.label().to_string(),
            launch,
            vec![],
        ),
        TraceEvent::BarrierArrive {
            core,
            warp,
            cycle,
            id,
            count,
            waiting,
        } => instant(
            core as u64,
            BARRIER_TID,
            offset + cycle,
            format!("bar {id} arrive"),
            launch,
            vec![
                ("warp", Json::UInt(warp as u64)),
                ("count", Json::UInt(count as u64)),
                ("waiting", Json::UInt(waiting as u64)),
            ],
        ),
        TraceEvent::BarrierRelease {
            core,
            cycle,
            id,
            count,
            released,
        } => instant(
            core as u64,
            BARRIER_TID,
            offset + cycle,
            format!("bar {id} release"),
            launch,
            vec![
                ("count", Json::UInt(count as u64)),
                ("released", Json::UInt(released as u64)),
            ],
        ),
        TraceEvent::Wspawn {
            core,
            warp,
            cycle,
            count,
            entry,
        } => instant(
            core as u64,
            warp as u64,
            offset + cycle,
            format!("wspawn {count}"),
            launch,
            vec![
                ("count", Json::UInt(count as u64)),
                ("entry", Json::UInt(entry as u64)),
            ],
        ),
        TraceEvent::CacheAccess {
            core,
            level,
            cycle,
            line_addr,
            hit,
        } => {
            let lvl = match level {
                CacheLevel::Dcache => "dcache",
                CacheLevel::L2 => "l2",
            };
            let what = if hit { "hit" } else { "miss" };
            instant(
                core as u64,
                MEM_TID,
                offset + cycle,
                format!("{lvl} {what}"),
                launch,
                vec![("line", Json::UInt(line_addr as u64))],
            )
        }
        TraceEvent::MshrAcquire { core, cycle, fill } => complete(
            core as u64,
            MSHR_TID,
            offset + cycle,
            fill.saturating_sub(cycle),
            "mshr".into(),
            launch,
            vec![],
        ),
        TraceEvent::Dram {
            core,
            cycle,
            line_addr,
            row_hit,
            done,
        } => complete(
            core as u64,
            DRAM_TID,
            offset + cycle,
            done.saturating_sub(cycle),
            if row_hit {
                "dram row-hit"
            } else {
                "dram row-miss"
            }
            .to_string(),
            launch,
            vec![("line", Json::UInt(line_addr as u64))],
        ),
    }
}

/// The single trace *process* every serve-log span lands in; workers map
/// to threads beneath it.
pub const SERVE_PID: u64 = 1;

/// Export a `repro serve` session log (NDJSON, one outcome per line) as a
/// chrome://tracing document — the host-time counterpart of
/// [`chrome_trace`]'s cycle-time view.
///
/// Every outcome line whose service ran with `repro-obs` armed carries a
/// `spans` tree; each node becomes one complete ("X") event with
/// microsecond timestamps (span times are already µs since the process
/// epoch, which is exactly the chrome-trace unit). Layout: one process
/// (`repro serve`), one thread per worker, and every event's `args` carry
/// the job's `trace_id` and label so a lane can be filtered back to its
/// request. Lines without spans (summaries, command replies, disarmed
/// outcomes) are skipped; unparseable lines are skipped too, so a log with
/// interleaved stderr noise still exports.
pub fn chrome_trace_serve(log: &str) -> Result<Json, String> {
    let mut rows: Vec<Row> = Vec::new();
    let mut jobs = 0usize;
    for (lineno, raw) in log.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() {
            continue;
        }
        let Ok(j) = Json::parse(line) else { continue };
        let Some(spans) = j.get("spans") else {
            continue;
        };
        let tree = metrics::parse_span(spans)
            .ok_or_else(|| format!("line {}: malformed span tree", lineno + 1))?;
        let trace_id = j.get("trace_id").and_then(Json::as_str).unwrap_or("");
        let label = j.get("label").and_then(Json::as_str).unwrap_or("");
        let worker = j.get("worker").and_then(Json::as_u64).unwrap_or(0);
        jobs += 1;
        serve_span_rows(&mut rows, &tree, worker, trace_id, label);
    }
    if jobs == 0 {
        return Err("no outcome lines with span trees found \
             (was the service run with observability armed?)"
            .to_string());
    }
    rows.sort_by_key(|r| (r.pid, r.tid, r.ts));
    let tids: Vec<u64> = rows
        .iter()
        .map(|r| r.tid)
        .collect::<std::collections::BTreeSet<_>>()
        .into_iter()
        .collect();
    let mut out: Vec<Json> = Vec::with_capacity(rows.len() + tids.len() + 1);
    out.push(metadata(
        SERVE_PID,
        None,
        "process_name",
        "repro serve".into(),
    ));
    for &tid in &tids {
        out.push(metadata(
            SERVE_PID,
            Some(tid),
            "thread_name",
            format!("worker {tid}"),
        ));
    }
    out.extend(rows.into_iter().map(|r| r.json));
    Ok(Json::obj(vec![
        ("traceEvents", Json::Array(out)),
        ("displayTimeUnit", Json::Str("ms".into())),
    ]))
}

fn serve_span_rows(
    rows: &mut Vec<Row>,
    node: &metrics::SpanNode,
    worker: u64,
    trace_id: &str,
    label: &str,
) {
    rows.push(Row {
        pid: SERVE_PID,
        tid: worker,
        ts: node.start_us,
        json: Json::obj(vec![
            ("name", Json::Str(node.name.clone())),
            ("ph", Json::Str("X".into())),
            ("pid", Json::UInt(SERVE_PID)),
            ("tid", Json::UInt(worker)),
            ("ts", Json::UInt(node.start_us)),
            ("dur", Json::UInt(node.dur_us)),
            (
                "args",
                Json::obj(vec![
                    ("trace_id", Json::Str(trace_id.to_string())),
                    ("label", Json::Str(label.to_string())),
                ]),
            ),
        ]),
    });
    for c in &node.children {
        serve_span_rows(rows, c, worker, trace_id, label);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vortex_sim::StallKind;

    #[test]
    fn exports_sorted_named_tracks() {
        let launches = vec![
            vec![
                TraceEvent::Stall {
                    core: 0,
                    kind: StallKind::Idle,
                    from: 1,
                    to: 4,
                },
                TraceEvent::Issue {
                    core: 0,
                    warp: 0,
                    cycle: 0,
                    pc: 3,
                },
            ],
            vec![TraceEvent::Issue {
                core: 0,
                warp: 0,
                cycle: 0,
                pc: 4,
            }],
        ];
        let doc = chrome_trace(&launches);
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        let phases: Vec<&str> = events
            .iter()
            .map(|e| e.get("ph").unwrap().as_str().unwrap())
            .collect();
        // Metadata first (process + two tracks), then the sorted rows.
        assert_eq!(phases, ["M", "M", "M", "X", "X", "X"]);
        // Warp-0 track sorts before the stall track; launch 1 is offset past
        // launch 0's span (end 4) plus the gap.
        let xs: Vec<(u64, u64)> = events
            .iter()
            .filter(|e| e.get("dur").is_some())
            .map(|e| {
                (
                    e.get("tid").unwrap().as_u64().unwrap(),
                    e.get("ts").unwrap().as_u64().unwrap(),
                )
            })
            .collect();
        assert_eq!(xs, [(0, 0), (0, 4 + LAUNCH_GAP), (STALL_TID, 1)]);
        // Round-trips through the parser.
        let parsed = Json::parse(&doc.to_pretty()).unwrap();
        assert_eq!(parsed, doc);
    }

    #[test]
    fn serve_log_exports_span_trees_per_worker() {
        let log = concat!(
            "{\"batch\":1,\"jobs\":2,\"ok\":2}\n",
            "not json at all\n",
            "{\"id\":1,\"label\":\"Vecadd/vortex\",\"worker\":0,\
             \"trace_id\":\"00000000deadbeef\",\"spans\":{\"name\":\"job\",\
             \"start_us\":10,\"dur_us\":90,\"children\":[{\"name\":\
             \"queue_wait\",\"start_us\":10,\"dur_us\":5},{\"name\":\
             \"flow.vortex\",\"start_us\":15,\"dur_us\":80,\"children\":[\
             {\"name\":\"cache.vortex\",\"start_us\":16,\"dur_us\":70}]}]}}\n",
            "{\"id\":2,\"label\":\"Saxpy/interp\",\"worker\":1,\
             \"trace_id\":\"0000000000000abc\",\"spans\":{\"name\":\"job\",\
             \"start_us\":12,\"dur_us\":40}}\n",
        );
        let doc = chrome_trace_serve(log).expect("two span trees export");
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        // 1 process metadata + 2 worker threads + 4 spans + 1 span.
        assert_eq!(events.len(), 8);
        let xs: Vec<(&str, u64, u64)> = events
            .iter()
            .filter(|e| e.get("dur").is_some())
            .map(|e| {
                (
                    e.get("name").unwrap().as_str().unwrap(),
                    e.get("tid").unwrap().as_u64().unwrap(),
                    e.get("ts").unwrap().as_u64().unwrap(),
                )
            })
            .collect();
        assert_eq!(
            xs,
            [
                ("job", 0, 10),
                ("queue_wait", 0, 10),
                ("flow.vortex", 0, 15),
                ("cache.vortex", 0, 16),
                ("job", 1, 12),
            ]
        );
        let args = events
            .iter()
            .find(|e| e.get("name").unwrap().as_str() == Some("cache.vortex"))
            .unwrap()
            .get("args")
            .unwrap();
        assert_eq!(
            args.get("trace_id").unwrap().as_str(),
            Some("00000000deadbeef")
        );
        assert_eq!(args.get("label").unwrap().as_str(), Some("Vecadd/vortex"));
        // Round-trips through the parser.
        let parsed = Json::parse(&doc.to_pretty()).unwrap();
        assert_eq!(parsed, doc);
    }

    #[test]
    fn serve_log_without_spans_is_a_helpful_error() {
        let err = chrome_trace_serve("{\"batch\":1,\"jobs\":0}\n").unwrap_err();
        assert!(err.contains("observability"), "{err}");
    }
}
