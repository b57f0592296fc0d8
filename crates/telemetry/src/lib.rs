//! # hnd-telemetry — zero-dependency observability for the serving stack
//!
//! One [`TelemetryHub`] per [`SessionServer`] owns the three pillars:
//!
//! 1. **Flight-recorder tracing** ([`trace`]) — per-worker ring buffers of
//!    typed [`TraceEvent`]s covering the whole command lifecycle (enqueue →
//!    mailbox dwell → checkout/rehydrate/restore → patch/rebuild → solve,
//!    including early-termination and skip verdicts → WAL append → reply).
//!    Exported as a [`TraceDump`] on demand or automatically when a
//!    command errors.
//! 2. **Latency histograms** ([`hist`]) — log-bucketed HDR-style fixed
//!    arrays, one per [`Stage`], recording queue-wait, solve, patch,
//!    restore, fsync, WAL-append, and end-to-end command latency with
//!    p50/p90/p99/p999 extraction.
//! 3. **A unified metrics registry** — [`MetricsSnapshot`] folds counters,
//!    gauges, and per-stage histogram summaries from every layer into one
//!    serde-serializable value with a text exposition format.
//!
//! The hub is default-on and built to be provably cheap: histogram
//! recording is wait-free (two relaxed atomic adds), event recording is a
//! fixed-size store behind a worker-private mutex, and neither allocates —
//! pinned by the `zero_alloc` battery in `hnd-core` and the `telemetry`
//! bench group's on/off pair gate (≤5% overhead on serving wave rounds).
//! When constructed disabled, every record call is a single branch on a
//! `bool` and the rings hold no memory.
//!
//! [`SessionServer`]: ../hnd_service/server/struct.SessionServer.html

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod hist;
pub mod trace;

pub use hist::{
    bucket_bounds, bucket_of, HistogramData, HistogramSummary, LatencyHistogram, BUCKETS, SUB_BITS,
};
pub use trace::{
    CheckoutKind, CommandKind, EventKind, SkipRefusal, TraceDump, TraceEvent, WorkerTrace,
};

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use serde::{Serialize, Value};
use trace::EventRing;

/// Events retained per ring before the oldest are overwritten.
pub const RING_CAPACITY: usize = 512;

/// The pipeline stages with a dedicated latency histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Mailbox dwell: enqueue → worker pickup.
    QueueWait,
    /// Spectral solve (warm or cold, any tier).
    Solve,
    /// In-place delta patch of the kernel context.
    Patch,
    /// Full kernel-context rebuild.
    Rebuild,
    /// Engine restore: rehydrate from log or load from the durable store.
    Restore,
    /// WAL frame append (excluding fsync).
    WalAppend,
    /// Durable fsync (`sync_data`).
    Fsync,
    /// End-to-end command latency: enqueue → reply.
    Command,
}

impl Stage {
    /// Every stage, in exposition order.
    pub const ALL: [Stage; 8] = [
        Stage::QueueWait,
        Stage::Solve,
        Stage::Patch,
        Stage::Rebuild,
        Stage::Restore,
        Stage::WalAppend,
        Stage::Fsync,
        Stage::Command,
    ];

    /// Stable snake_case name (JSON / text-exposition key).
    pub fn name(self) -> &'static str {
        match self {
            Stage::QueueWait => "queue_wait",
            Stage::Solve => "solve",
            Stage::Patch => "patch",
            Stage::Rebuild => "rebuild",
            Stage::Restore => "restore",
            Stage::WalAppend => "wal_append",
            Stage::Fsync => "fsync",
            Stage::Command => "command",
        }
    }
}

/// Number of [`Counter`] variants.
const COUNTERS: usize = 9;

/// Hub-level counters (everything else comes from the layer stats structs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Counter {
    /// Commands accepted into a mailbox (or served directly).
    CommandsEnqueued,
    /// Commands that resolved successfully.
    RepliesOk,
    /// Commands that resolved with an error.
    RepliesErr,
    /// Quiescent-session queries served without a worker round-trip.
    DirectServes,
    /// Error trace dumps captured automatically.
    ErrorDumps,
    /// Commands rejected at admission (mailbox or in-flight budget full).
    CommandsShed,
    /// Commands dropped at dequeue because their deadline had passed.
    CommandsExpired,
    /// Sessions quarantined after a panic during command execution.
    SessionsQuarantined,
    /// Rehydrations and restores that installed the session's carried
    /// warm state (the `warm` flag of a [`EventKind::Checkout`]).
    WarmCheckouts,
}

impl Counter {
    const ALL: [Counter; COUNTERS] = [
        Counter::CommandsEnqueued,
        Counter::RepliesOk,
        Counter::RepliesErr,
        Counter::DirectServes,
        Counter::ErrorDumps,
        Counter::CommandsShed,
        Counter::CommandsExpired,
        Counter::SessionsQuarantined,
        Counter::WarmCheckouts,
    ];

    /// Stable snake_case name (text-exposition key suffix).
    pub fn name(self) -> &'static str {
        match self {
            Counter::CommandsEnqueued => "commands_enqueued",
            Counter::RepliesOk => "replies_ok",
            Counter::RepliesErr => "replies_err",
            Counter::DirectServes => "direct_serves",
            Counter::ErrorDumps => "error_dumps",
            Counter::CommandsShed => "commands_shed",
            Counter::CommandsExpired => "commands_expired",
            Counter::SessionsQuarantined => "sessions_quarantined",
            Counter::WarmCheckouts => "warm_checkouts",
        }
    }
}

/// The per-server telemetry hub: one flight-recorder ring per worker (plus
/// a client ring for enqueue-side events), one latency histogram per
/// [`Stage`], and the hub counters. Shared by `Arc` across workers, the
/// store, and every checked-out engine.
pub struct TelemetryHub {
    enabled: bool,
    epoch: Instant,
    stages: [LatencyHistogram; 8],
    counters: [AtomicU64; COUNTERS],
    rings: Vec<Mutex<EventRing>>,
    seq: AtomicU64,
    last_error: Mutex<Option<TraceDump>>,
}

impl TelemetryHub {
    /// A hub with `rings` flight-recorder rings (workers + 1 client ring).
    /// When `enabled` is false every record call is a branch and the rings
    /// hold no memory.
    pub fn new(rings: usize, enabled: bool) -> Arc<Self> {
        let cap = if enabled { RING_CAPACITY } else { 0 };
        Arc::new(TelemetryHub {
            enabled,
            epoch: Instant::now(),
            stages: std::array::from_fn(|_| LatencyHistogram::new()),
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            rings: (0..rings.max(1))
                .map(|_| Mutex::new(EventRing::new(cap)))
                .collect(),
            seq: AtomicU64::new(0),
            last_error: Mutex::new(None),
        })
    }

    /// A disabled hub (for telemetry-off construction paths).
    pub fn disabled() -> Arc<Self> {
        Self::new(1, false)
    }

    /// Whether recording is active.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Nanoseconds since the hub was created. Fits ~584 years in a `u64`.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// The next command sequence number (unique per hub lifetime).
    pub fn next_seq(&self) -> u64 {
        self.seq.fetch_add(1, Ordering::Relaxed)
    }

    /// The index of the client-side ring (enqueue / direct-serve events).
    pub fn client_ring(&self) -> usize {
        self.rings.len() - 1
    }

    /// Appends one event to `ring`, stamped with the current hub time.
    /// Allocation-free; locks only the target ring (uncontended for a
    /// worker's own ring).
    pub fn record(&self, ring: usize, session: u64, seq: u64, kind: EventKind) {
        if !self.enabled {
            return;
        }
        let event = TraceEvent {
            at_ns: self.now_ns(),
            session,
            seq,
            kind,
        };
        if let Ok(mut r) = self.rings[ring].lock() {
            r.push(event);
        }
    }

    /// Records one duration into a stage histogram. Wait-free.
    pub fn record_stage(&self, stage: Stage, ns: u64) {
        if !self.enabled {
            return;
        }
        self.stages[stage as usize].record(ns);
    }

    /// Increments a hub counter.
    pub fn bump(&self, counter: Counter) {
        if !self.enabled {
            return;
        }
        self.counters[counter as usize].fetch_add(1, Ordering::Relaxed);
    }

    /// A hub counter's current value.
    pub fn counter(&self, counter: Counter) -> u64 {
        self.counters[counter as usize].load(Ordering::Relaxed)
    }

    /// A plain snapshot of one stage histogram.
    pub fn stage_data(&self, stage: Stage) -> HistogramData {
        self.stages[stage as usize].snapshot()
    }

    /// Percentile summaries for every stage that recorded at least one
    /// sample, in [`Stage::ALL`] order.
    pub fn stage_summaries(&self) -> Vec<StageSummary> {
        Stage::ALL
            .iter()
            .filter(|s| self.stages[**s as usize].count() > 0)
            .map(|&s| StageSummary {
                stage: s.name().to_string(),
                summary: self.stages[s as usize].snapshot().summary(),
            })
            .collect()
    }

    /// The flight recorder's current contents: the last [`RING_CAPACITY`]
    /// events per ring, oldest first.
    pub fn trace_dump(&self) -> TraceDump {
        let workers = self
            .rings
            .iter()
            .enumerate()
            .map(|(i, ring)| WorkerTrace {
                ring: if i == self.client_ring() {
                    "client".to_string()
                } else {
                    format!("worker-{i}")
                },
                events: ring.lock().map(|r| r.ordered()).unwrap_or_default(),
            })
            .collect();
        TraceDump {
            taken_at_ns: self.now_ns(),
            workers,
        }
    }

    /// Captures the current flight-recorder contents as the last-error
    /// trace (called by the server when a command resolves with an error).
    pub fn capture_error(&self) {
        if !self.enabled {
            return;
        }
        let dump = self.trace_dump();
        self.bump(Counter::ErrorDumps);
        if let Ok(mut slot) = self.last_error.lock() {
            *slot = Some(dump);
        }
    }

    /// The trace dump captured at the most recent command error, if any.
    pub fn last_error_trace(&self) -> Option<TraceDump> {
        self.last_error.lock().ok().and_then(|slot| slot.clone())
    }

    /// Folds the hub's counters and stage summaries into `snapshot`.
    pub fn fill(&self, snapshot: &mut MetricsSnapshot) {
        for c in Counter::ALL {
            snapshot.counter(&format!("telemetry_{}", c.name()), self.counter(c));
        }
        snapshot.stages = self.stage_summaries();
    }
}

/// A per-engine recording handle: the hub, the worker's ring index, and
/// the session/command identity to stamp on events. Cloned into each
/// checked-out engine so instrumentation deep in the solve path needs no
/// plumbed-through arguments.
#[derive(Clone)]
pub struct Probe {
    hub: Arc<TelemetryHub>,
    ring: usize,
    session: u64,
    seq: u64,
}

impl Probe {
    /// A probe recording to `ring` on behalf of `session`.
    pub fn new(hub: Arc<TelemetryHub>, ring: usize, session: u64) -> Self {
        Probe {
            hub,
            ring,
            session,
            seq: 0,
        }
    }

    /// Points the probe at the command currently executing.
    pub fn set_seq(&mut self, seq: u64) {
        self.seq = seq;
    }

    /// The hub this probe records into.
    pub fn hub(&self) -> &Arc<TelemetryHub> {
        &self.hub
    }

    /// Records one flight-recorder event stamped with this probe's
    /// session and command.
    pub fn event(&self, kind: EventKind) {
        self.hub.record(self.ring, self.session, self.seq, kind);
    }

    /// Records one duration into a stage histogram.
    pub fn stage(&self, stage: Stage, ns: u64) {
        self.hub.record_stage(stage, ns);
    }
}

/// One stage's percentile summary inside a [`MetricsSnapshot`].
#[derive(Debug, Clone, PartialEq)]
pub struct StageSummary {
    /// The stage name ([`Stage::name`]).
    pub stage: String,
    /// Its percentile summary.
    pub summary: HistogramSummary,
}

impl Serialize for StageSummary {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("stage".into(), Value::String(self.stage.clone())),
            ("summary".into(), self.summary.to_value()),
        ])
    }
}

/// The unified metrics registry: every counter, gauge, and stage summary
/// from every serving layer in one serde-serializable value. Produced by
/// `SessionServer::metrics()`; renders to a Prometheus-style text format
/// via [`MetricsSnapshot::to_text`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Monotonic counters, `(name, value)`.
    pub counters: Vec<(String, u64)>,
    /// Point-in-time gauges, `(name, value)`.
    pub gauges: Vec<(String, f64)>,
    /// Per-stage latency summaries.
    pub stages: Vec<StageSummary>,
}

impl MetricsSnapshot {
    /// An empty snapshot.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a counter.
    pub fn counter(&mut self, name: &str, value: u64) {
        self.counters.push((name.to_string(), value));
    }

    /// Appends a gauge.
    pub fn gauge(&mut self, name: &str, value: f64) {
        self.gauges.push((name.to_string(), value));
    }

    /// Looks up a counter by name.
    pub fn get_counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// Looks up a gauge by name.
    pub fn get_gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// Looks up a stage summary by stage name.
    pub fn stage(&self, name: &str) -> Option<&HistogramSummary> {
        self.stages
            .iter()
            .find(|s| s.stage == name)
            .map(|s| &s.summary)
    }

    /// Prometheus-style text exposition: one `hnd_<name> <value>` line per
    /// counter and gauge, stages flattened to
    /// `hnd_stage_<stage>_{count,p50_ns,p90_ns,p99_ns,p999_ns,max_ns}`.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for (name, value) in &self.counters {
            out.push_str(&format!("hnd_{name} {value}\n"));
        }
        for (name, value) in &self.gauges {
            out.push_str(&format!("hnd_{name} {value}\n"));
        }
        for s in &self.stages {
            let p = &s.summary;
            for (field, value) in [
                ("count", p.count),
                ("p50_ns", p.p50_ns),
                ("p90_ns", p.p90_ns),
                ("p99_ns", p.p99_ns),
                ("p999_ns", p.p999_ns),
                ("max_ns", p.max_ns),
            ] {
                out.push_str(&format!("hnd_stage_{}_{field} {value}\n", s.stage));
            }
        }
        out
    }
}

impl Serialize for MetricsSnapshot {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            (
                "counters".into(),
                Value::Object(
                    self.counters
                        .iter()
                        .map(|(n, v)| (n.clone(), Value::Int(*v as i64)))
                        .collect(),
                ),
            ),
            (
                "gauges".into(),
                Value::Object(
                    self.gauges
                        .iter()
                        .map(|(n, v)| (n.clone(), Value::Float(*v)))
                        .collect(),
                ),
            ),
            (
                "stages".into(),
                Value::Array(self.stages.iter().map(Serialize::to_value).collect()),
            ),
        ])
    }
}

/// A global fallback hub used by layers that can run without a server
/// (the store's standalone constructors). Disabled until a server
/// installs a real hub; never replaces an installed one.
static GLOBAL_FALLBACK: OnceLock<Arc<TelemetryHub>> = OnceLock::new();

/// The process-wide fallback hub (disabled unless a server installed one).
pub fn fallback_hub() -> Arc<TelemetryHub> {
    GLOBAL_FALLBACK.get_or_init(TelemetryHub::disabled).clone()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hub_records_stages_and_counters() {
        let hub = TelemetryHub::new(2, true);
        hub.record_stage(Stage::Solve, 1_000);
        hub.record_stage(Stage::Solve, 2_000);
        hub.bump(Counter::RepliesOk);
        let summaries = hub.stage_summaries();
        assert_eq!(summaries.len(), 1);
        assert_eq!(summaries[0].stage, "solve");
        assert_eq!(summaries[0].summary.count, 2);
        assert!(summaries[0].summary.p50_ns >= 1_000);
        assert_eq!(hub.counter(Counter::RepliesOk), 1);
    }

    #[test]
    fn disabled_hub_is_inert() {
        let hub = TelemetryHub::disabled();
        hub.record_stage(Stage::Solve, 1_000);
        hub.record(0, 1, 1, EventKind::SolveStart { warm: false });
        hub.bump(Counter::RepliesOk);
        hub.capture_error();
        assert!(hub.stage_summaries().is_empty());
        assert!(hub.trace_dump().is_empty());
        assert!(hub.last_error_trace().is_none());
        assert_eq!(hub.counter(Counter::RepliesOk), 0);
    }

    #[test]
    fn trace_dump_names_rings_and_orders_events() {
        let hub = TelemetryHub::new(3, true);
        let seq = hub.next_seq();
        hub.record(
            hub.client_ring(),
            4,
            seq,
            EventKind::Enqueue {
                cmd: CommandKind::TopK,
            },
        );
        hub.record(
            0,
            4,
            seq,
            EventKind::Reply {
                cmd: CommandKind::TopK,
                ok: true,
                e2e_ns: 50,
            },
        );
        let dump = hub.trace_dump();
        assert_eq!(dump.workers.len(), 3);
        assert_eq!(dump.workers[2].ring, "client");
        let lifecycle = dump.command_events(seq);
        assert_eq!(lifecycle.len(), 2);
        assert!(matches!(lifecycle[0].kind, EventKind::Enqueue { .. }));
        assert!(matches!(lifecycle[1].kind, EventKind::Reply { .. }));
        for pair in lifecycle.windows(2) {
            assert!(pair[0].at_ns <= pair[1].at_ns);
        }
    }

    #[test]
    fn capture_error_stores_last_dump() {
        let hub = TelemetryHub::new(1, true);
        hub.record(0, 9, 1, EventKind::SolveStart { warm: true });
        hub.capture_error();
        let dump = hub.last_error_trace().expect("dump captured");
        assert_eq!(dump.len(), 1);
        assert_eq!(hub.counter(Counter::ErrorDumps), 1);
    }

    #[test]
    fn metrics_text_exposition() {
        let mut snap = MetricsSnapshot::new();
        snap.counter("engine_rebuilds", 3);
        snap.gauge("server_sessions", 12.0);
        snap.stages.push(StageSummary {
            stage: "solve".into(),
            summary: HistogramSummary {
                count: 10,
                p99_ns: 1234,
                ..Default::default()
            },
        });
        let text = snap.to_text();
        assert!(text.contains("hnd_engine_rebuilds 3\n"));
        assert!(text.contains("hnd_server_sessions 12\n"));
        assert!(text.contains("hnd_stage_solve_p99_ns 1234\n"));
        assert_eq!(snap.get_counter("engine_rebuilds"), Some(3));
        let json = serde_json::to_string(&snap).expect("snapshot serializes");
        assert!(json.contains("\"engine_rebuilds\":3"));
    }
}
