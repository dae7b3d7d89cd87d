//! Span collection for the traced run, through `robo-trace`'s public
//! `install`/`span`/`take`.
//!
//! The collector buffers every span in memory, and the serving workloads
//! record a few hundred thousand spans a second, so the buffer is drained
//! every [`DRAIN_EVERY`]: each drain folds per-kind counts and durations
//! into the span table and keeps events for the Chrome trace until the
//! traced phase (one `start`..`stop`) holds [`KEEP_PER_PHASE`].

use robo_trace::{SpanEvent, Trace};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

const DRAIN_EVERY: Duration = Duration::from_millis(200);
const KEEP_PER_PHASE: usize = 20_000;

/// Per-kind span totals over every drained chunk.
#[derive(Debug, Default, Clone, Copy)]
pub struct KindTotals {
    pub count: u64,
    pub total_us: f64,
}

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    /// When the collector was last installed; `None` while not collecting.
    chunk_start: Option<Instant>,
    /// Events kept from the current phase.
    phase_kept: usize,
    kept: Trace,
    pub table: BTreeMap<String, KindTotals>,
    pub events: u64,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            chunk_start: None,
            phase_kept: 0,
            kept: Trace::new(),
            table: BTreeMap::new(),
            events: 0,
        }
    }

    fn install(&mut self) {
        assert!(robo_trace::install(), "no other collector is installed");
        self.chunk_start = Some(Instant::now());
    }

    /// Starts a traced phase.
    pub fn start(&mut self) {
        if self.chunk_start.is_none() {
            self.phase_kept = 0;
            self.install();
        }
    }

    /// Drains the collector if the current chunk is old enough.
    pub fn poll(&mut self) {
        if self.chunk_start.is_some_and(|t| t.elapsed() >= DRAIN_EVERY) {
            self.drain();
            self.install();
        }
    }

    /// Ends the traced phase.
    pub fn stop(&mut self) {
        self.drain();
    }

    /// Stops collecting and folds the chunk in.
    fn drain(&mut self) {
        let Some(chunk_start) = self.chunk_start.take() else {
            return;
        };
        let Some(trace) = robo_trace::take() else {
            return;
        };
        self.events += trace.events.len() as u64;
        for (name, durations) in trace.durations_us_by_name() {
            let t = self.table.entry(name).or_default();
            t.count += durations.len() as u64;
            t.total_us += durations.iter().sum::<f64>();
        }
        let offset_us = (chunk_start - self.origin).as_secs_f64() * 1e6;
        let room = KEEP_PER_PHASE.saturating_sub(self.phase_kept);
        let before = self.kept.events.len();
        self.kept
            .events
            .extend(trace.events.into_iter().take(room).map(|e| SpanEvent {
                ts_us: e.ts_us + offset_us,
                ..e
            }));
        self.phase_kept += self.kept.events.len() - before;
        for (tid, name) in trace.threads {
            if !self.kept.threads.iter().any(|(t, _)| *t == tid) {
                self.kept.threads.push((tid, name));
            }
        }
    }

    /// Writes the kept events as Chrome-trace JSON with `meta` as its
    /// provenance block.
    pub fn write_chrome(
        &mut self,
        path: &std::path::Path,
        meta: Vec<(String, String)>,
    ) -> std::io::Result<()> {
        self.stop();
        self.kept.meta = meta;
        self.kept.write_chrome(path)
    }
}
