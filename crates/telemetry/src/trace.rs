//! The flight recorder: per-worker ring buffers of typed trace events.
//!
//! Every serving-layer action appends one fixed-size [`TraceEvent`] to the
//! ring of the worker that performed it (client-side actions — enqueue,
//! direct log serves — go to a dedicated client ring). Rings are
//! preallocated and overwrite their oldest entry when full, so recording
//! is an index store behind a worker-private mutex: no allocation, no
//! cross-worker contention, bounded memory however long the server runs.
//! [`TraceDump`] is the serializable export — the last N events per ring,
//! taken on demand ([`crate::TelemetryHub::trace_dump`]) or automatically
//! when a command errors.

use serde::{Serialize, Value};

/// Which server command a lifecycle event belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommandKind {
    /// `submit` — commit a response batch.
    Submit,
    /// `ranking` — full exact ranking.
    Ranking,
    /// `top_k` — certified head query.
    TopK,
    /// `rank_of` — single-user rank query.
    RankOf,
    /// `catch_up` — compacted client resync delta.
    CatchUp,
    /// `stats` — engine counters.
    Stats,
    /// `snapshot` — the unified engine+manager+store+telemetry snapshot.
    Snapshot,
    /// `session_log` — durable-log clone.
    SessionLog,
    /// `close_session`.
    Close,
    /// Test-only fault injection (`inject_panic`).
    Inject,
}

impl CommandKind {
    /// Stable lowercase name (JSON field value).
    pub fn name(self) -> &'static str {
        match self {
            CommandKind::Submit => "submit",
            CommandKind::Ranking => "ranking",
            CommandKind::TopK => "top_k",
            CommandKind::RankOf => "rank_of",
            CommandKind::CatchUp => "catch_up",
            CommandKind::Stats => "stats",
            CommandKind::Snapshot => "snapshot",
            CommandKind::SessionLog => "session_log",
            CommandKind::Close => "close",
            CommandKind::Inject => "inject",
        }
    }
}

/// How a worker obtained a session's engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckoutKind {
    /// The engine was resident.
    Live,
    /// Rebuilt from the in-memory durable log (idle eviction).
    Rehydrate,
    /// Loaded from the durable store: snapshot + WAL-tail replay.
    Restore,
}

impl CheckoutKind {
    /// Stable lowercase name (JSON field value).
    pub fn name(self) -> &'static str {
        match self {
            CheckoutKind::Live => "live",
            CheckoutKind::Rehydrate => "rehydrate",
            CheckoutKind::Restore => "restore",
        }
    }
}

/// Why the delta-skip fast path declined to serve a stale certified head.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SkipRefusal {
    /// No calibrated influence rates yet (never skips before the first
    /// observed wave→perturbation measurement).
    Uncalibrated,
    /// The pending wave exceeds the evaluable span.
    SpanOverflow,
    /// The cost model priced the evaluation as not worthwhile.
    Unprofitable,
    /// The stability margin did not clear the noise band.
    MarginTooThin,
}

impl SkipRefusal {
    /// Stable lowercase name (JSON field value).
    pub fn name(self) -> &'static str {
        match self {
            SkipRefusal::Uncalibrated => "uncalibrated",
            SkipRefusal::SpanOverflow => "span_overflow",
            SkipRefusal::Unprofitable => "unprofitable",
            SkipRefusal::MarginTooThin => "margin_too_thin",
        }
    }
}

/// One typed flight-recorder event. `Copy` and fixed-size by design: the
/// rings hold them inline and recording never allocates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EventKind {
    /// A command entered its session mailbox.
    Enqueue {
        /// The command.
        cmd: CommandKind,
    },
    /// A worker picked the command up; `dwell_ns` is the mailbox wait.
    Dequeue {
        /// The command.
        cmd: CommandKind,
        /// Nanoseconds spent queued before a worker picked it up.
        dwell_ns: u64,
    },
    /// The worker obtained the session's engine.
    Checkout {
        /// Live, rehydrate, or restore.
        kind: CheckoutKind,
        /// WAL edits replayed (restore only).
        replayed: u64,
        /// The rebuild installed the session's carried warm state, so its
        /// first solve warm-starts (always `false` for a live checkout).
        warm: bool,
    },
    /// A delta was patched into the kernel context in place.
    Patch {
        /// Sparse-lane edits in the delta (the slack-burning kind).
        sparse_edits: u32,
        /// Patch duration.
        ns: u64,
    },
    /// The kernel context was rebuilt from scratch.
    Rebuild {
        /// Rebuild duration.
        ns: u64,
    },
    /// A spectral solve started.
    SolveStart {
        /// Whether a cached state warm-started it.
        warm: bool,
    },
    /// A spectral solve finished.
    SolveEnd {
        /// Iterations run.
        iterations: u32,
        /// Whether a certified approximation target stopped it early.
        early_terminated: bool,
        /// Solve duration.
        ns: u64,
    },
    /// The delta-skip fast path served a stale certified head — no solve.
    SkipServe {
        /// The `k` served.
        k: u32,
    },
    /// The delta-skip fast path declined; a solve follows.
    SkipRefuse {
        /// Why.
        reason: SkipRefusal,
    },
    /// The session's committed tail was shipped to its WAL.
    WalAppend {
        /// Duration of the sync (append + any group-commit fsync).
        ns: u64,
    },
    /// The command resolved; `e2e_ns` spans enqueue → reply.
    Reply {
        /// The command.
        cmd: CommandKind,
        /// Whether it succeeded.
        ok: bool,
        /// End-to-end latency from enqueue.
        e2e_ns: u64,
    },
    /// Admission control rejected the command (mailbox or budget full).
    Shed {
        /// The command.
        cmd: CommandKind,
        /// Commands in flight across the server when it was shed.
        inflight: u64,
    },
    /// The command's deadline had passed when a worker dequeued it.
    Expired {
        /// The command.
        cmd: CommandKind,
        /// Nanoseconds past the deadline at dequeue.
        late_ns: u64,
    },
    /// A panic during command execution quarantined the session.
    Quarantine {
        /// The command that panicked.
        cmd: CommandKind,
    },
}

impl EventKind {
    /// Stable lowercase event-type name (JSON `"type"` field).
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::Enqueue { .. } => "enqueue",
            EventKind::Dequeue { .. } => "dequeue",
            EventKind::Checkout { .. } => "checkout",
            EventKind::Patch { .. } => "patch",
            EventKind::Rebuild { .. } => "rebuild",
            EventKind::SolveStart { .. } => "solve_start",
            EventKind::SolveEnd { .. } => "solve_end",
            EventKind::SkipServe { .. } => "skip_serve",
            EventKind::SkipRefuse { .. } => "skip_refuse",
            EventKind::WalAppend { .. } => "wal_append",
            EventKind::Reply { .. } => "reply",
            EventKind::Shed { .. } => "shed",
            EventKind::Expired { .. } => "expired",
            EventKind::Quarantine { .. } => "quarantine",
        }
    }
}

/// One recorded event: a nanosecond stamp (relative to the hub's epoch),
/// the session and command it belongs to, and the typed payload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceEvent {
    /// Nanoseconds since the hub's epoch (server start).
    pub at_ns: u64,
    /// The session the event belongs to.
    pub session: u64,
    /// The command sequence number (assigned at enqueue, unique per hub).
    pub seq: u64,
    /// The typed payload.
    pub kind: EventKind,
}

/// A fixed-capacity overwrite-oldest ring of [`TraceEvent`]s.
pub(crate) struct EventRing {
    buf: Vec<TraceEvent>,
    cap: usize,
    next: usize,
}

impl EventRing {
    pub(crate) fn new(cap: usize) -> Self {
        EventRing {
            buf: Vec::with_capacity(cap),
            cap,
            next: 0,
        }
    }

    /// Appends, overwriting the oldest entry when full. Allocation-free:
    /// the buffer was reserved at construction.
    pub(crate) fn push(&mut self, event: TraceEvent) {
        if self.cap == 0 {
            return;
        }
        if self.buf.len() < self.cap {
            self.buf.push(event);
        } else {
            self.buf[self.next] = event;
        }
        self.next = (self.next + 1) % self.cap;
    }

    /// The retained events, oldest first.
    pub(crate) fn ordered(&self) -> Vec<TraceEvent> {
        if self.buf.len() < self.cap {
            self.buf.clone()
        } else {
            let mut out = Vec::with_capacity(self.cap);
            out.extend_from_slice(&self.buf[self.next..]);
            out.extend_from_slice(&self.buf[..self.next]);
            out
        }
    }
}

/// The events of one ring (one worker, or the client-side ring) inside a
/// [`TraceDump`], oldest first.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkerTrace {
    /// `"worker-<k>"` or `"client"`.
    pub ring: String,
    /// Retained events, oldest first.
    pub events: Vec<TraceEvent>,
}

/// A serializable export of the flight recorder: the last N events per
/// ring at one instant. Produced by [`crate::TelemetryHub::trace_dump`],
/// captured automatically on command errors, and written as a CI artifact
/// by the failure-injection suite.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceDump {
    /// When the dump was taken (nanoseconds since the hub epoch).
    pub taken_at_ns: u64,
    /// One entry per ring.
    pub workers: Vec<WorkerTrace>,
}

impl TraceDump {
    /// Total events across all rings.
    pub fn len(&self) -> usize {
        self.workers.iter().map(|w| w.events.len()).sum()
    }

    /// `true` when no ring retained any event.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Every event of one command (by sequence number) across all rings,
    /// sorted by timestamp — the reconstructed lifecycle
    /// (enqueue → dequeue → checkout → solve → reply) of that command.
    pub fn command_events(&self, seq: u64) -> Vec<TraceEvent> {
        let mut events: Vec<TraceEvent> = self
            .workers
            .iter()
            .flat_map(|w| w.events.iter().copied())
            .filter(|e| e.seq == seq)
            .collect();
        events.sort_by_key(|e| e.at_ns);
        events
    }

    /// The dump as pretty-printed JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).unwrap_or_else(|e| format!("{{\"error\": \"{e}\"}}"))
    }
}

fn int(v: u64) -> Value {
    Value::Int(v as i64)
}

impl Serialize for TraceEvent {
    fn to_value(&self) -> Value {
        let mut fields: Vec<(String, Value)> = vec![
            ("at_ns".into(), int(self.at_ns)),
            ("session".into(), int(self.session)),
            ("seq".into(), int(self.seq)),
            ("type".into(), Value::String(self.kind.name().into())),
        ];
        match self.kind {
            EventKind::Enqueue { cmd } => {
                fields.push(("cmd".into(), Value::String(cmd.name().into())));
            }
            EventKind::Dequeue { cmd, dwell_ns } => {
                fields.push(("cmd".into(), Value::String(cmd.name().into())));
                fields.push(("dwell_ns".into(), int(dwell_ns)));
            }
            EventKind::Checkout {
                kind,
                replayed,
                warm,
            } => {
                fields.push(("kind".into(), Value::String(kind.name().into())));
                fields.push(("replayed".into(), int(replayed)));
                fields.push(("warm".into(), Value::Bool(warm)));
            }
            EventKind::Patch { sparse_edits, ns } => {
                fields.push(("sparse_edits".into(), int(u64::from(sparse_edits))));
                fields.push(("ns".into(), int(ns)));
            }
            EventKind::Rebuild { ns } => fields.push(("ns".into(), int(ns))),
            EventKind::SolveStart { warm } => fields.push(("warm".into(), Value::Bool(warm))),
            EventKind::SolveEnd {
                iterations,
                early_terminated,
                ns,
            } => {
                fields.push(("iterations".into(), int(u64::from(iterations))));
                fields.push(("early_terminated".into(), Value::Bool(early_terminated)));
                fields.push(("ns".into(), int(ns)));
            }
            EventKind::SkipServe { k } => fields.push(("k".into(), int(u64::from(k)))),
            EventKind::SkipRefuse { reason } => {
                fields.push(("reason".into(), Value::String(reason.name().into())));
            }
            EventKind::WalAppend { ns } => fields.push(("ns".into(), int(ns))),
            EventKind::Reply { cmd, ok, e2e_ns } => {
                fields.push(("cmd".into(), Value::String(cmd.name().into())));
                fields.push(("ok".into(), Value::Bool(ok)));
                fields.push(("e2e_ns".into(), int(e2e_ns)));
            }
            EventKind::Shed { cmd, inflight } => {
                fields.push(("cmd".into(), Value::String(cmd.name().into())));
                fields.push(("inflight".into(), int(inflight)));
            }
            EventKind::Expired { cmd, late_ns } => {
                fields.push(("cmd".into(), Value::String(cmd.name().into())));
                fields.push(("late_ns".into(), int(late_ns)));
            }
            EventKind::Quarantine { cmd } => {
                fields.push(("cmd".into(), Value::String(cmd.name().into())));
            }
        }
        Value::Object(fields)
    }
}

impl Serialize for WorkerTrace {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("ring".into(), Value::String(self.ring.clone())),
            (
                "events".into(),
                Value::Array(self.events.iter().map(Serialize::to_value).collect()),
            ),
        ])
    }
}

impl Serialize for TraceDump {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("taken_at_ns".into(), int(self.taken_at_ns)),
            (
                "workers".into(),
                Value::Array(self.workers.iter().map(Serialize::to_value).collect()),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(seq: u64, at_ns: u64) -> TraceEvent {
        TraceEvent {
            at_ns,
            session: 7,
            seq,
            kind: EventKind::Enqueue {
                cmd: CommandKind::Ranking,
            },
        }
    }

    #[test]
    fn ring_overwrites_oldest_when_full() {
        let mut ring = EventRing::new(4);
        for i in 0..6 {
            ring.push(event(i, i * 10));
        }
        let kept: Vec<u64> = ring.ordered().iter().map(|e| e.seq).collect();
        assert_eq!(kept, vec![2, 3, 4, 5]);
    }

    #[test]
    fn command_events_sort_across_rings() {
        let dump = TraceDump {
            taken_at_ns: 100,
            workers: vec![
                WorkerTrace {
                    ring: "worker-0".into(),
                    events: vec![event(1, 50), event(2, 60)],
                },
                WorkerTrace {
                    ring: "client".into(),
                    events: vec![event(1, 10)],
                },
            ],
        };
        let lifecycle = dump.command_events(1);
        assert_eq!(lifecycle.len(), 2);
        assert!(lifecycle[0].at_ns <= lifecycle[1].at_ns);
        let json = dump.to_json();
        assert!(json.contains("\"type\": \"enqueue\""));
        assert!(json.contains("worker-0"));
    }
}
