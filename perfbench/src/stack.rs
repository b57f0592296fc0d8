//! The untraced run: a store-backed `SessionServer` fed open-loop by one
//! sender thread, with one collector thread timing the replies, then a
//! closed saturation phase.

use crate::stats::Timing;
use crate::sys;
use crate::workload::{Cmd, Generated, Op, Spec};
use hnd_service::{
    EngineOpts, Reply, ResponseDelta, ServerError, ServerOpts, SessionId, SessionServer,
    SessionStore, StoreOpts,
};
use std::path::Path;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Worker threads of the pool (pinned, see `main`).
pub const WORKERS: usize = 2;
/// Per-session mailbox bound of admission control.
pub const MAILBOX_CAP: usize = 512;
/// Server-wide in-flight bound of admission control.
pub const MAX_INFLIGHT: usize = 2048;
/// Outstanding commands of the closed saturation phase.
pub const CLOSED_WINDOW: usize = 16;
/// Shortest pause of the reply collector between polls.
const POLL_GAP: Duration = Duration::from_micros(20);
/// Longest pause of the reply collector between polls.
const MAX_POLL_GAP: Duration = Duration::from_millis(2);

/// The collector's pause while replies are pending: 1/32 of the youngest
/// pending command's age, so a reply is stamped late by at most ~3% of
/// its latency (plus timer slack) while long solves cost few wake-ups.
fn poll_gap(youngest_age: Duration) -> Duration {
    (youngest_age / 32).clamp(POLL_GAP, MAX_POLL_GAP)
}

/// The server configuration every workload uses.
pub fn server_opts(spec: &Spec, engine: EngineOpts) -> ServerOpts {
    ServerOpts {
        workers: WORKERS,
        idle_threshold: spec.idle_threshold,
        engine,
        cold_batch: 0,
        telemetry: true,
        mailbox_cap: MAILBOX_CAP,
        max_inflight: MAX_INFLIGHT,
    }
}

/// Bulk-loads every session, solves each once, and for workloads with an
/// idle threshold spills the idle ones: the state traffic starts from.
pub fn load_server(
    gen: &Generated,
    opts: ServerOpts,
    dir: &Path,
) -> (SessionServer, Vec<SessionId>) {
    let store = SessionStore::open(dir, StoreOpts::default()).expect("open the store directory");
    let srv = SessionServer::with_store(opts, Arc::new(store));
    let ids: Vec<SessionId> = gen
        .sessions
        .iter()
        .map(|s| {
            srv.create_session_from_log(s.initial_log())
                .expect("bulk load a generated session")
        })
        .collect();
    // First solves, a few in flight at a time so none waits long in a
    // mailbox.
    for chunk in ids.chunks(WORKERS * 2) {
        let replies: Vec<_> = chunk.iter().map(|&id| srv.ranking(id)).collect();
        for reply in replies {
            reply
                .wait_settled()
                .expect("first solve of a bulk-loaded session");
        }
    }
    if gen.spec.idle_threshold.is_some() {
        srv.evict_idle();
    }
    (srv, ids)
}

/// Whether a command is a write or a read, for the latency classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    Submit,
    Read,
}

/// What happened to one sent command.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub timing: Timing,
    pub class: Class,
    /// `Ok(Some(version))` for an acked submit, `Ok(None)` for a read.
    pub result: Result<Option<u64>, ServerError>,
}

enum Pending {
    Submit(Reply<u64>),
    RankOf(Reply<usize>),
    TopK(Reply<Vec<(usize, f64)>>),
    CatchUp(Reply<ResponseDelta>),
}

impl Pending {
    fn send(srv: &SessionServer, id: SessionId, op: &Op) -> Pending {
        match op {
            Op::Submit(edits) => Pending::Submit(srv.submit(id, edits.iter().copied())),
            Op::RankOf(user) => Pending::RankOf(srv.rank_of(id, *user)),
            Op::TopK(k) => Pending::TopK(srv.top_k(id, *k)),
            Op::CatchUp(from) => Pending::CatchUp(srv.catch_up(id, *from)),
        }
    }

    /// The reply if it has resolved, without blocking.
    fn poll(&self) -> Option<Result<Option<u64>, ServerError>> {
        let now = Duration::ZERO;
        match self {
            Pending::Submit(r) => r.wait_timeout(now).map(|r| r.map(Some)),
            Pending::RankOf(r) => r.wait_timeout(now).map(|r| r.map(|_| None)),
            Pending::TopK(r) => r.wait_timeout(now).map(|r| r.map(|_| None)),
            Pending::CatchUp(r) => r.wait_timeout(now).map(|r| r.map(|_| None)),
        }
    }
}

fn class_of(op: &Op) -> Class {
    if op.is_submit() {
        Class::Submit
    } else {
        Class::Read
    }
}

fn nanos_since(epoch: Instant) -> u64 {
    epoch.elapsed().as_nanos() as u64
}

/// Replays `trace` open-loop: each command is sent at its scheduled time
/// whatever the state of earlier ones. Returns one outcome per command
/// and the CPU seconds the sender and collector threads used.
pub fn open_loop(srv: &SessionServer, ids: &[SessionId], trace: &[Cmd]) -> (Vec<Outcome>, f64) {
    let (tx, rx) = mpsc::channel::<(usize, u64, Pending)>();
    let epoch = Instant::now();
    std::thread::scope(|scope| {
        let sender = scope.spawn(move || {
            let cpu0 = sys::thread_cpu_s();
            for (i, cmd) in trace.iter().enumerate() {
                let due = epoch + Duration::from_nanos(cmd.at_ns);
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                let sent = nanos_since(epoch);
                let pending = Pending::send(srv, ids[cmd.session], &cmd.op);
                tx.send((i, sent, pending)).expect("collector alive");
            }
            sys::thread_cpu_s() - cpu0
        });
        let collector = scope.spawn(move || {
            let cpu0 = sys::thread_cpu_s();
            let outcomes = collect(rx, trace, epoch);
            (outcomes, sys::thread_cpu_s() - cpu0)
        });
        let (outcomes, collector_cpu) = collector.join().expect("collector thread");
        (
            outcomes,
            collector_cpu + sender.join().expect("sender thread"),
        )
    })
}

/// The reply collector: polls every pending reply, stamping each the
/// moment it is seen resolved.
fn collect(
    rx: mpsc::Receiver<(usize, u64, Pending)>,
    trace: &[Cmd],
    epoch: Instant,
) -> Vec<Outcome> {
    let mut outcomes: Vec<Option<Outcome>> = vec![None; trace.len()];
    let mut pending: Vec<(usize, u64, Pending)> = Vec::new();
    let mut sender_done = false;
    while !(sender_done && pending.is_empty()) {
        loop {
            match rx.try_recv() {
                Ok(p) => pending.push(p),
                Err(mpsc::TryRecvError::Empty) => break,
                Err(mpsc::TryRecvError::Disconnected) => {
                    sender_done = true;
                    break;
                }
            }
        }
        let mut progressed = false;
        pending.retain(|(i, sent, p)| match p.poll() {
            Some(result) => {
                let cmd = &trace[*i];
                outcomes[*i] = Some(Outcome {
                    timing: Timing {
                        scheduled_ns: cmd.at_ns,
                        sent_ns: *sent,
                        done_ns: nanos_since(epoch),
                    },
                    class: class_of(&cmd.op),
                    result,
                });
                progressed = true;
                false
            }
            None => true,
        });
        if progressed {
            continue;
        }
        let gap = match pending.iter().map(|(i, _, _)| trace[*i].at_ns).max() {
            Some(youngest) => poll_gap(Duration::from_nanos(
                nanos_since(epoch).saturating_sub(youngest),
            )),
            None => MAX_POLL_GAP,
        };
        if sender_done {
            std::thread::sleep(gap);
        } else {
            // Wakes early when the sender sends: the new command is the
            // youngest and shortens the gap.
            match rx.recv_timeout(gap) {
                Ok(p) => pending.push(p),
                Err(mpsc::RecvTimeoutError::Timeout) => {}
                Err(mpsc::RecvTimeoutError::Disconnected) => sender_done = true,
            }
        }
    }
    outcomes
        .into_iter()
        .map(|o| o.expect("every sent command resolves"))
        .collect()
}

/// What the closed phase sent and how fast it completed.
pub struct ClosedRun {
    /// `(segment index, result)` of every command sent, in send order.
    pub results: Vec<(usize, Result<Option<u64>, ServerError>)>,
    /// Successful completions per [`CLOSED_BUCKET`] of the phase.
    pub per_bucket: Vec<u64>,
}

/// Throughput bucket of the closed phase.
pub const CLOSED_BUCKET: Duration = Duration::from_millis(500);

/// The closed saturation phase: keeps [`CLOSED_WINDOW`] commands
/// outstanding for `duration` (or until the segment runs out).
pub fn closed_loop(
    srv: &SessionServer,
    ids: &[SessionId],
    segment: &[Cmd],
    duration: Duration,
) -> ClosedRun {
    let buckets = (duration.as_nanos() / CLOSED_BUCKET.as_nanos()).max(1) as usize;
    let mut per_bucket = vec![0u64; buckets];
    let started = Instant::now();
    let mut next = 0usize;
    let mut pending: Vec<(usize, Pending)> = Vec::new();
    let mut done = Vec::new();
    loop {
        while pending.len() < CLOSED_WINDOW && next < segment.len() && started.elapsed() < duration
        {
            let cmd = &segment[next];
            pending.push((next, Pending::send(srv, ids[cmd.session], &cmd.op)));
            next += 1;
        }
        if pending.is_empty() {
            break;
        }
        let before = done.len();
        pending.retain(|(i, p)| match p.poll() {
            Some(result) => {
                let bucket = (started.elapsed().as_nanos() / CLOSED_BUCKET.as_nanos()) as usize;
                if result.is_ok() && bucket < buckets {
                    per_bucket[bucket] += 1;
                }
                done.push((*i, result));
                false
            }
            None => true,
        });
        if done.len() == before {
            std::thread::sleep(POLL_GAP);
        }
    }
    done.sort_by_key(|(i, _)| *i);
    ClosedRun {
        results: done,
        per_bucket,
    }
}
