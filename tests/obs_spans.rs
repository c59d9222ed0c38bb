//! Span-tree determinism: the *shape* of a job's span tree (names,
//! nesting, child order) is a pure function of what the job executed, and
//! its trace id is a pure function of the request — neither may depend on
//! pool width, which worker ran the job, or wall-clock luck.
//!
//! Lives in its own integration binary on purpose: the instrumentation
//! level is process-global, and at Live every `metrics::time` call site is
//! also a span frame — sharing a process with tests that assert empty
//! registries or byte-identical serve output would race.
//!
//! The batch is run once sequentially first to warm the global compile
//! cache, so both pool widths execute fully cache-hit and their trees
//! can't differ by who compiled first.

use fpga_gpu_repro::obs;
use fpga_gpu_repro::sched::{ExecConfig, Executor, Flow, JobRequest};
use fpga_gpu_repro::suite::{instantiate, run_oneshot};
use repro_util::metrics::SpanNode;
use repro_util::{metrics, ToJson};

fn batch() -> Vec<JobRequest> {
    ["Vecadd", "Saxpy", "Sfilter"]
        .iter()
        .flat_map(|name| {
            [Flow::Vortex, Flow::Interp]
                .into_iter()
                .map(|flow| JobRequest::bench(name, flow))
        })
        .collect()
}

fn run_at(workers: usize) -> Vec<(u64, String, usize)> {
    let exec = Executor::new(ExecConfig::with_workers(workers));
    let outcomes = exec.run(batch().into_iter().map(instantiate).collect());
    outcomes
        .iter()
        .map(|oc| {
            let spans = oc
                .spans
                .as_ref()
                .unwrap_or_else(|| panic!("armed run must attach spans to {}", oc.label));
            (oc.trace_id, spans.signature(), spans.count())
        })
        .collect()
}

#[test]
fn span_trees_are_identical_across_pool_widths_and_reruns() {
    metrics::enable();
    obs::arm();
    // Warm the compile cache so every scheduled run below is a cache hit.
    for req in batch() {
        run_oneshot(&req).expect("warm-up run succeeds");
    }
    let narrow = run_at(1);
    let wide = run_at(4);
    let again = run_at(4);
    assert_eq!(narrow.len(), 6);
    // Same structure and node counts at any width; durations are the only
    // nondeterministic part of a tree and are excluded by signature().
    assert_eq!(narrow, wide, "pool width must not change span structure");
    assert_eq!(wide, again, "reruns must not change span structure");
    for (trace_id, sig, count) in &narrow {
        assert!(sig.starts_with("job("), "root is the synthetic job: {sig}");
        assert!(sig.contains("queue_wait"), "{sig}");
        assert!(sig.contains("flow."), "{sig}");
        assert!(*count >= 3, "job + queue_wait + flow at minimum: {sig}");
        assert_ne!(*trace_id, 0);
    }
    // Trace ids are a pure function of (request, slot): recomputing from
    // the wire form reproduces them.
    for (i, (req, (trace_id, _, _))) in batch().iter().zip(&narrow).enumerate() {
        assert_eq!(
            *trace_id,
            obs::trace_id(&req.to_json().to_compact(), i),
            "trace id must be derivable from the request alone"
        );
    }
    // Distinct slots get distinct ids even for identical payloads.
    let mut ids: Vec<u64> = narrow.iter().map(|(t, _, _)| *t).collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), 6);
}

/// Assert that every child interval lies inside its parent's, recursively.
fn assert_nested(node: &SpanNode, path: &str) {
    let end = node.start_us + node.dur_us;
    for c in &node.children {
        let path = format!("{path}/{}", c.name);
        assert!(
            c.start_us >= node.start_us && c.start_us + c.dur_us <= end,
            "{path} [{}, +{}] escapes its parent [{}, +{}]",
            c.start_us,
            c.dur_us,
            node.start_us,
            node.dur_us
        );
        assert_nested(c, &path);
    }
}

#[test]
fn every_span_lies_inside_its_parent() {
    metrics::enable();
    obs::arm();
    // One worker: every job after the first waits in the queue, so each
    // tree has a nonzero `queue_wait` that must still nest under `job`.
    let exec = Executor::new(ExecConfig::with_workers(1));
    let outcomes = exec.run(batch().into_iter().map(instantiate).collect());
    for oc in &outcomes {
        let tree = oc
            .spans
            .as_ref()
            .unwrap_or_else(|| panic!("armed run must attach spans to {}", oc.label));
        assert_nested(tree, &oc.label);
    }
}

#[test]
fn vortex_and_interp_flows_record_their_own_stage_spans() {
    metrics::enable();
    obs::arm();
    for req in batch() {
        run_oneshot(&req).expect("warm-up run succeeds");
    }
    let exec = Executor::new(ExecConfig::with_workers(2));
    let outcomes = exec.run(batch().into_iter().map(instantiate).collect());
    let sig_of = |flow: Flow| {
        outcomes
            .iter()
            .zip(batch())
            .find(|(_, req)| req.flow == flow)
            .map(|(oc, _)| oc.spans.as_ref().unwrap().signature())
            .unwrap()
    };
    let vortex = sig_of(Flow::Vortex);
    assert!(vortex.contains("flow.vortex("), "{vortex}");
    assert!(vortex.contains("suite.vortex.launch"), "{vortex}");
    let interp = sig_of(Flow::Interp);
    assert!(interp.contains("flow.interp("), "{interp}");
    assert!(interp.contains("suite.interp.launch"), "{interp}");
}
