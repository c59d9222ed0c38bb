//! `repro-obs` — the service half of host-time observability.
//!
//! The instrumentation core — the level gate, the clock, the histograms,
//! the 5-minute windows and the per-job span trees — lives in
//! [`repro_util::metrics`]. This crate adds what only a long-running
//! service needs on top of it:
//!
//! * **Trace ids** ([`trace_id`]) — a deterministic correlation id per
//!   job, under which the executor attaches the job's span tree to its
//!   outcome.
//! * **Structured events** ([`event`], [`drain_events`]) — a bounded ring
//!   of service-level happenings (admissions, sheds, retries, drains,
//!   cache degradations) that `repro serve` flushes on
//!   `{"cmd":"events"}`.
//! * **Arming** ([`arm`], [`disarm`]) — the service entry point's switch
//!   to the Live level, where span trees, windows and events record.
//!
//! Everything here is **off by default and observably free while off**:
//! [`event`] checks one relaxed load of the level and returns before
//! touching a clock, a lock, or an allocation. Batch commands never arm;
//! `repro serve` does.
//!
//! Determinism: span *structure* (names, nesting, child order) is a pure
//! function of what the job executed, never of which worker ran it or how
//! wide the pool was; only the recorded durations are wall-clock. The
//! `trace_id` is a pure hash of the request's canonical wire form and its
//! batch position, so reruns of the same plan yield the same ids.

use std::sync::{Mutex, OnceLock};

use repro_util::fnv::fnv1a;
use repro_util::metrics;
use repro_util::{Json, ToJson};

mod events;

pub use events::{drain_events, event, Event, EVENT_RING_CAPACITY};

/// Raise the instrumentation level to Live (idempotent): every
/// [`metrics::time`] call site then also nests into the current job's span
/// tree, and the windows and the event ring record.
pub fn arm() {
    metrics::window_enable();
}

/// Lower a Live level back to Cumulative.
pub fn disarm() {
    metrics::window_disable();
}

/// SplitMix64 finalizer — spreads the batch index so two identical
/// requests in one batch still get distinct ids.
fn mix(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Deterministic correlation id for one job: a pure hash of the request's
/// canonical wire form and its position in the submitted batch. No clock,
/// no randomness — the same seeded plan reruns to the same ids.
pub fn trace_id(canonical_request: &str, index: usize) -> u64 {
    mix(fnv1a(canonical_request.as_bytes()) ^ mix(index as u64 + 1))
}

/// The wire spelling of a trace id: 16 lowercase hex digits. JSON numbers
/// are f64 in too many consumers to trust a raw u64 across the wire.
pub fn trace_id_hex(id: u64) -> String {
    format!("{id:016x}")
}

/// Parse the wire spelling back ([`trace_id_hex`] round trip).
pub fn parse_trace_id(s: &str) -> Option<u64> {
    if s.len() != 16 {
        return None;
    }
    u64::from_str_radix(s, 16).ok()
}

/// The global event ring, shared with the [`events`] module.
fn ring() -> &'static Mutex<events::Ring> {
    static RING: OnceLock<Mutex<events::Ring>> = OnceLock::new();
    RING.get_or_init(|| Mutex::new(events::Ring::new()))
}

impl ToJson for Event {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("seq", self.seq.to_json()),
            ("t_secs", (self.t_us as f64 * 1e-6).to_json()),
            ("kind", self.kind.to_json()),
            ("detail", self.detail.to_json()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The level, registry and event ring are process-global; tests that
    /// touch them must not interleave.
    fn serial() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn trace_ids_are_deterministic_and_index_sensitive() {
        let a = trace_id(r#"{"bench":"Vecadd"}"#, 0);
        let b = trace_id(r#"{"bench":"Vecadd"}"#, 0);
        let c = trace_id(r#"{"bench":"Vecadd"}"#, 1);
        let d = trace_id(r#"{"bench":"Saxpy"}"#, 0);
        assert_eq!(a, b, "same request + index => same id");
        assert_ne!(a, c, "same request at another batch position differs");
        assert_ne!(a, d, "different request differs");
        let hex = trace_id_hex(a);
        assert_eq!(hex.len(), 16);
        assert_eq!(parse_trace_id(&hex), Some(a));
        assert_eq!(parse_trace_id("zz"), None);
    }

    #[test]
    fn disarmed_records_nothing() {
        let _g = serial();
        disarm();
        metrics::begin_job(std::time::Instant::now());
        let mut calls = 0;
        let v = metrics::span("work", || {
            calls += 1;
            3
        });
        assert_eq!((v, calls), (3, 1));
        assert!(metrics::end_job().is_none());
        event("shed", "never recorded");
        let (evs, dropped) = drain_events();
        assert!(evs.is_empty());
        assert_eq!(dropped, 0);
    }

    /// What one probe records at the current level: a histogram sample, a
    /// window sample, a span frame, and an event.
    fn probe() -> [bool; 4] {
        metrics::reset();
        metrics::window_reset();
        drain_events();
        metrics::begin_job(std::time::Instant::now());
        metrics::time("gate.probe", || {});
        event("gate", "probe");
        let tree = metrics::end_job();
        [
            metrics::snapshot().histogram("gate.probe").is_some(),
            metrics::window_snapshot().histogram("gate.probe").is_some(),
            tree.is_some_and(|t| t.signature() == "job(queue_wait,gate.probe)"),
            !drain_events().0.is_empty(),
        ]
    }

    #[test]
    fn one_level_gates_every_sink_through_the_benchmark_sequence() {
        let _g = serial();
        metrics::disable();
        assert_eq!(probe(), [false; 4], "off");
        metrics::enable();
        assert_eq!(probe(), [true, false, false, false], "enable");
        metrics::window_enable();
        arm();
        assert_eq!(probe(), [true; 4], "window_enable + arm");
        disarm();
        metrics::window_disable();
        assert_eq!(
            probe(),
            [true, false, false, false],
            "disarm + window_disable"
        );
        metrics::window_enable();
        arm();
        assert_eq!(probe(), [true; 4], "window_enable + arm again");
        metrics::disable();
        assert_eq!(probe(), [false; 4], "disable");
        assert!(!metrics::enabled() && !metrics::live());
    }

    #[test]
    fn event_ring_is_bounded_and_counts_drops() {
        let _g = serial();
        arm();
        drain_events(); // reset any residue from other tests
        for i in 0..(EVENT_RING_CAPACITY + 10) {
            event("retry", &format!("job {i}"));
        }
        let (evs, dropped) = drain_events();
        disarm();
        assert_eq!(evs.len(), EVENT_RING_CAPACITY);
        assert_eq!(dropped, 10);
        // Oldest were dropped: the survivors are the most recent ones.
        assert!(evs[0].detail.ends_with("10"));
        assert!(evs.windows(2).all(|w| w[0].seq + 1 == w[1].seq));
        // Drained means drained.
        let (evs, dropped) = drain_events();
        assert!(evs.is_empty());
        assert_eq!(dropped, 0);
    }
}
