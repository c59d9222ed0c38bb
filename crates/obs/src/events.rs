//! Bounded structured event ring: service-level happenings (admissions,
//! sheds, retries, drains, cache degradations) kept in memory until an
//! operator flushes them with `{"cmd":"events"}`.
//!
//! The ring is deliberately small and lossy-at-the-tail: under a burst it
//! keeps the newest [`EVENT_RING_CAPACITY`] events and counts what it
//! dropped, so the service's memory stays bounded no matter how noisy a
//! chaos run gets.

use std::collections::VecDeque;

/// Maximum events held between drains; older entries are dropped (and
/// counted) when the ring is full.
pub const EVENT_RING_CAPACITY: usize = 256;

/// One recorded service event.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Monotonic sequence number (process-wide, never reset) — gaps after
    /// a drop tell the reader exactly how much history is missing.
    pub seq: u64,
    /// Microseconds since the process epoch ([`repro_util::metrics::now_us`]).
    pub t_us: u64,
    /// Short machine-readable kind: `admit`, `shed`, `retry`, `drain`,
    /// `cache_degraded`, ...
    pub kind: String,
    /// Free-form human detail (job label, error class, ...).
    pub detail: String,
}

pub(crate) struct Ring {
    buf: VecDeque<Event>,
    next_seq: u64,
    dropped: u64,
}

impl Ring {
    pub(crate) fn new() -> Ring {
        Ring {
            buf: VecDeque::with_capacity(EVENT_RING_CAPACITY),
            next_seq: 0,
            dropped: 0,
        }
    }

    fn push(&mut self, kind: &str, detail: &str, t_us: u64) {
        if self.buf.len() == EVENT_RING_CAPACITY {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(Event {
            seq: self.next_seq,
            t_us,
            kind: kind.to_string(),
            detail: detail.to_string(),
        });
        self.next_seq += 1;
    }

    fn drain(&mut self) -> (Vec<Event>, u64) {
        let evs = self.buf.drain(..).collect();
        let dropped = std::mem::take(&mut self.dropped);
        (evs, dropped)
    }
}

/// Record one service event at the Live level. One relaxed atomic load
/// below it.
pub fn event(kind: &str, detail: &str) {
    if !repro_util::metrics::live() {
        return;
    }
    let t_us = repro_util::metrics::now_us();
    let mut ring = crate::ring().lock().unwrap_or_else(|e| e.into_inner());
    ring.push(kind, detail, t_us);
}

/// Flush the ring: all buffered events (oldest first) plus how many were
/// dropped since the previous drain.
pub fn drain_events() -> (Vec<Event>, u64) {
    let mut ring = crate::ring().lock().unwrap_or_else(|e| e.into_inner());
    ring.drain()
}
