//! The traced run's span recorder and its per-layer table.
//!
//! Spans are recorded by the benchmark around its own calls into each
//! layer's public API, never inside the program. They stay in memory until
//! the run ends, when [`chrome_json`] writes them out. Every span lies
//! inside its parent and siblings never overlap (one recorder per thread,
//! strictly nested enter/exit), so each span's self time is its duration
//! minus its children's, and the self times of all spans add up to the
//! root durations exactly.

use std::collections::BTreeMap;
use std::time::Instant;

use repro_util::{Json, ToJson};

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Index of the parent span in the same span list.
    pub parent: Option<usize>,
    pub tid: u32,
    pub start_ns: u64,
    pub dur_ns: u64,
}

/// Per-thread recorder. Spans from several recorders are combined with
/// [`merge`].
pub struct Recorder {
    epoch: Instant,
    tid: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new(epoch: Instant, tid: u32) -> Recorder {
        Recorder {
            epoch,
            tid,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str) {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            tid: self.tid,
            start_ns,
            dur_ns: 0,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Close the innermost open span.
    pub fn exit(&mut self) {
        let i = self.open.pop().expect("exit without a matching enter");
        self.spans[i].dur_ns = self.now_ns() - self.spans[i].start_ns;
    }

    /// Run `f` inside a leaf span called `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.enter(name);
        let r = f();
        self.exit();
        r
    }

    /// Run `f` inside a span that may hold child spans.
    pub fn scope<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> R) -> R {
        self.enter(name);
        let r = f(self);
        self.exit();
        r
    }

    pub fn into_spans(self) -> Vec<Span> {
        assert!(self.open.is_empty(), "recorder dropped with open spans");
        self.spans
    }
}

/// Concatenate the span lists of several recorders, fixing parent indices.
pub fn merge(parts: Vec<Vec<Span>>) -> Vec<Span> {
    let mut out: Vec<Span> = Vec::new();
    for part in parts {
        let base = out.len();
        out.extend(part.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }
    out
}

/// Durations, in nanoseconds, of every span called `name`.
pub fn durations(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns as f64)
        .collect()
}

/// One row of the per-layer table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Row {
    pub name: String,
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Where the traced time went: one row per span name below the roots, and
/// the roots' own self time as the `unattributed` row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table {
    /// Sum of root span durations.
    pub total_ns: u64,
    pub rows: Vec<Row>,
    /// Root self time: harness work between the layer calls.
    pub unattributed_ns: u64,
}

impl Table {
    pub fn unattributed_pct(&self) -> f64 {
        pct(self.unattributed_ns, self.total_ns)
    }

    /// Markdown rendering: total, self and share per layer.
    pub fn render(&self, title: &str) -> String {
        let ms = |ns: u64| ns as f64 / 1e6;
        let mut s = format!(
            "### {title}\n\n| layer | calls | total ms | self ms | share |\n|---|---:|---:|---:|---:|\n"
        );
        for r in &self.rows {
            s += &format!(
                "| {} | {} | {:.3} | {:.3} | {:.1}% |\n",
                r.name,
                r.calls,
                ms(r.total_ns),
                ms(r.self_ns),
                pct(r.self_ns, self.total_ns)
            );
        }
        s += &format!(
            "| unattributed | | | {:.3} | {:.1}% |\n| **total** | | {:.3} | | 100.0% |\n",
            ms(self.unattributed_ns),
            self.unattributed_pct(),
            ms(self.total_ns)
        );
        s
    }
}

impl ToJson for Table {
    fn to_json(&self) -> Json {
        let row = |r: &Row| {
            Json::obj(vec![
                ("layer", r.name.to_json()),
                ("calls", r.calls.to_json()),
                ("total_ns", r.total_ns.to_json()),
                ("self_ns", r.self_ns.to_json()),
                ("share_pct", pct(r.self_ns, self.total_ns).to_json()),
            ])
        };
        Json::obj(vec![
            ("total_ns", self.total_ns.to_json()),
            ("rows", Json::Array(self.rows.iter().map(row).collect())),
            ("unattributed_ns", self.unattributed_ns.to_json()),
            ("unattributed_pct", self.unattributed_pct().to_json()),
        ])
    }
}

fn pct(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        100.0 * part as f64 / whole as f64
    }
}

/// Fold spans into the per-layer table.
pub fn table(spans: &[Span]) -> Table {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.dur_ns;
        }
    }
    let mut rows: BTreeMap<&str, Row> = BTreeMap::new();
    let mut total_ns = 0;
    let mut unattributed_ns = 0;
    for (s, &children) in spans.iter().zip(&child_ns) {
        let self_ns = s
            .dur_ns
            .checked_sub(children)
            .expect("children outlast their parent span");
        match s.parent {
            None => {
                total_ns += s.dur_ns;
                unattributed_ns += self_ns;
            }
            Some(_) => {
                let row = rows.entry(s.name).or_insert_with(|| Row {
                    name: s.name.to_string(),
                    calls: 0,
                    total_ns: 0,
                    self_ns: 0,
                });
                row.calls += 1;
                row.total_ns += s.dur_ns;
                row.self_ns += self_ns;
            }
        }
    }
    let mut rows: Vec<Row> = rows.into_values().collect();
    rows.sort_by(|a, b| b.self_ns.cmp(&a.self_ns).then(a.name.cmp(&b.name)));
    Table {
        total_ns,
        rows,
        unattributed_ns,
    }
}

/// The spans as a Chrome trace (`chrome://tracing`, Perfetto).
pub fn chrome_json(spans: &[Span]) -> Json {
    let events = spans
        .iter()
        .enumerate()
        .map(|(i, s)| {
            Json::obj(vec![
                ("name", s.name.to_json()),
                ("ph", "X".to_json()),
                ("ts", (s.start_ns as f64 / 1e3).to_json()),
                ("dur", (s.dur_ns as f64 / 1e3).to_json()),
                ("pid", 1u64.to_json()),
                ("tid", u64::from(s.tid).to_json()),
                (
                    "args",
                    Json::obj(vec![
                        ("id", (i as u64).to_json()),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| (p as u64).to_json()),
                        ),
                    ]),
                ),
            ])
        })
        .collect();
    Json::obj(vec![("traceEvents", Json::Array(events))])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn busy(us: u64) {
        let t = Instant::now();
        while t.elapsed().as_micros() < u128::from(us) {
            std::hint::black_box(0);
        }
    }

    fn sample_spans() -> Vec<Span> {
        let epoch = Instant::now();
        let mut parts = Vec::new();
        for tid in 0..2 {
            let mut rec = Recorder::new(epoch, tid);
            for _ in 0..3 {
                rec.scope("op", |rec| {
                    busy(20);
                    rec.time("layer.a", || busy(50));
                    rec.scope("layer.b", |rec| {
                        busy(10);
                        rec.time("layer.c", || busy(30));
                    });
                    busy(5);
                });
            }
            parts.push(rec.into_spans());
        }
        merge(parts)
    }

    #[test]
    fn self_times_and_unattributed_sum_to_the_total() {
        let spans = sample_spans();
        let t = table(&spans);
        let self_sum: u64 = t.rows.iter().map(|r| r.self_ns).sum();
        assert_eq!(self_sum + t.unattributed_ns, t.total_ns);
        assert!(t.unattributed_ns > 0);
        let names: Vec<&str> = t.rows.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(names.len(), 3);
        assert!(t.rows.iter().all(|r| r.calls == 6));
        // layer.b's self time excludes its nested layer.c.
        let b = t.rows.iter().find(|r| r.name == "layer.b").unwrap();
        let c = t.rows.iter().find(|r| r.name == "layer.c").unwrap();
        assert_eq!(b.total_ns, b.self_ns + c.total_ns);
    }

    #[test]
    fn merged_parents_point_into_their_own_thread() {
        let spans = sample_spans();
        for s in &spans {
            if let Some(p) = s.parent {
                let parent = &spans[p];
                assert_eq!(parent.tid, s.tid);
                assert!(parent.start_ns <= s.start_ns);
                assert!(s.start_ns + s.dur_ns <= parent.start_ns + parent.dur_ns);
            }
        }
        let json = chrome_json(&spans).to_compact();
        assert!(Json::parse(&json).is_ok());
    }
}
