//! The concurrent serving front-end: a worker pool over per-session
//! mailboxes.
//!
//! [`SessionServer`] turns the synchronous [`SessionManager`] into a
//! thread-safe service. Every session owns a **mailbox** (a FIFO command
//! queue); a pool of worker threads drains ready mailboxes, and while a
//! worker is processing a session it holds that session's engine *checked
//! out* of the manager ([`SessionManager::take_engine`]) — so each session
//! is strictly single-writer while different sessions solve fully in
//! parallel. The global mutex guards only queue bookkeeping and engine
//! checkout/check-in, never a solve.
//!
//! ```text
//!   clients (any thread)               worker pool (HND_THREADS)
//!   ──────────────────────             ─────────────────────────
//!   submit ─┐                          pop ready session id
//!   ranking ─┼─▶ session mailbox ──▶   check out engine
//!   catch_up┘    (FIFO per id)         drain mailbox, process commands
//!        ▲                             check engine back in
//!        └──────── Reply<V> ◀───────── send each reply
//! ```
//!
//! * **Ordering.** Commands to one session execute in enqueue order
//!   (FIFO mailbox + single writer). Commands to different sessions have
//!   no ordering relationship — that is what buys the parallelism.
//! * **Worker count.** [`ServerOpts::workers`] follows the `HND_THREADS`
//!   convention of [`hnd_linalg::parallel`]: `0` means "one worker per
//!   effective thread". Inside a worker, kernel parallelism is scaled down
//!   to `threads / workers` so the pool and the gather kernels do not
//!   oversubscribe the machine; at `HND_THREADS=1` the server degrades to
//!   one worker running fully serial kernels.
//! * **Replies.** Every call returns a [`Reply`] immediately; [`Reply::wait`]
//!   blocks for the result. Pipelining (enqueue many, wait later) is how
//!   batch clients get throughput. [`Reply::wait_settled`] additionally
//!   blocks until the worker checked the session back in — the barrier
//!   tests and orderly teardowns need before observing manager state.
//! * **Overload.** Admission control is enforced at enqueue:
//!   [`ServerOpts::mailbox_cap`] bounds each session's queue and
//!   [`ServerOpts::max_inflight`] bounds the server-wide count of
//!   admitted, unfinished commands. A full server sheds with
//!   [`ServerError::Overloaded`] (carrying a retry hint derived from the
//!   observed median command latency) instead of queueing unboundedly.
//!   Shedding is priority-aware: mutating/bulk commands (`submit`,
//!   `catch_up`, `session_log`) shed first at ~7/8 of the global budget,
//!   cheap certified reads (`ranking`, `top_k`, `rank_of`, `stats`,
//!   `snapshot`) only at the full budget, and `close_session` is never
//!   shed (it frees capacity).
//! * **Deadlines.** [`SessionServer::with_deadline`] stamps commands with
//!   a [`Deadline`]; a worker drops a command whose deadline passed while
//!   it sat queued ([`ServerError::DeadlineExceeded`], counted and
//!   trace-recorded) rather than spending a solve on a reply nobody is
//!   waiting for.
//! * **Panic isolation.** A panic while executing a command poisons *only
//!   its session*: the worker survives, salvages what it can of the
//!   session's log, and the manager quarantines the session. Later
//!   commands fail fast with [`ServerError::Quarantined`]; the durable
//!   log is untouched, and [`SessionServer::revive_session`] rebuilds the
//!   session from it. Other sessions' rankings are bit-identical to a run
//!   without the panic.
//! * **Eviction.** The manager's idle policy (logical-clock ticks, see
//!   [`SessionManager::set_idle_threshold`]) sweeps at check-ins on an
//!   amortized stride; checked-out (busy) sessions are never evicted, and
//!   rehydration runs outside the global lock: the worker receives the
//!   durable log (or, for a spilled session, loads it from the store
//!   itself) and rebuilds the engine with the session's carried warm
//!   state ([`RankingEngine::rehydrate`]).
//! * **Catch-up.** [`SessionServer::catch_up`] returns the compacted delta
//!   from any cached client version to head
//!   ([`ResponseLog::compact_range`](hnd_response::ResponseLog::compact_range)),
//!   so reconnecting clients resync in one `apply_delta` instead of
//!   re-downloading a snapshot.
//! * **Shutdown.** Dropping the server drains the ready queue, resolves
//!   late commands with [`ServerError::Terminated`], and joins the pool.

use crate::engine::{EngineOpts, EngineStats, RankingEngine, WarmState};
use crate::session::{Checkout, Dormant, ManagerStats, SessionError, SessionId, SessionManager};
use hnd_linalg::parallel;
use hnd_response::{
    rank_many, RankError, Ranking, ResponseDelta, ResponseError, ResponseLog, ResponseMatrix,
};
use hnd_store::{SessionStore, StoreStats};
use hnd_telemetry::{
    CheckoutKind, CommandKind, Counter, EventKind, MetricsSnapshot, Probe, Stage, StageSummary,
    TelemetryHub, TraceDump,
};
use std::collections::{BTreeMap, VecDeque};
use std::panic::AssertUnwindSafe;
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Configuration of a [`SessionServer`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServerOpts {
    /// Worker threads in the pool; `0` (the default) = one per effective
    /// kernel thread (the `HND_THREADS` convention).
    pub workers: usize,
    /// Idle-eviction threshold in manager ticks (`None` = never evict),
    /// forwarded to [`SessionManager::set_idle_threshold`].
    pub idle_threshold: Option<u64>,
    /// Engine configuration for every session.
    pub engine: EngineOpts,
    /// Cold solves a worker batches per pass: when a rehydration needs a
    /// solve, up to this many *other* evicted solve-hungry sessions are
    /// pulled into the same pass and solved together through
    /// [`rank_many`] (batch-level parallelism during reconnect storms).
    /// The batched pass re-prepares each session's matrix from scratch —
    /// cross-session parallelism is what buys that back, so on a fully
    /// subscribed box batching is a measured net loss (the `serving_cold`
    /// bench pins both regimes). `0` (the default) = auto: batch 8 when
    /// the worker has inner kernel threads to spend, one-at-a-time
    /// otherwise. `1` disables batching unconditionally.
    pub cold_batch: usize,
    /// Whether the telemetry hub records (flight-recorder events, stage
    /// histograms, hub counters). Default **on** — the `telemetry` bench
    /// group's pair gate holds the overhead at ≤5% of a serving wave
    /// round. Off, every record site is a single branch and the trace
    /// rings hold no memory.
    pub telemetry: bool,
    /// Most commands one session's mailbox may hold; enqueues beyond it
    /// shed with [`ServerError::Overloaded`]. `0` (the default) =
    /// unbounded — the pre-admission-control behaviour.
    pub mailbox_cap: usize,
    /// Most admitted-but-unfinished commands server-wide (queued in any
    /// mailbox or drained into a worker's pass). Low-priority commands
    /// shed at `cap − cap/8`, cheap reads at `cap`; `close_session` is
    /// always admitted. `0` (the default) = unbounded.
    pub max_inflight: usize,
}

impl Default for ServerOpts {
    fn default() -> Self {
        ServerOpts {
            workers: 0,
            idle_threshold: None,
            engine: EngineOpts::default(),
            cold_batch: 0,
            telemetry: true,
            mailbox_cap: 0,
            max_inflight: 0,
        }
    }
}

/// The unified per-session observability snapshot returned by
/// [`SessionServer::snapshot`]: every layer's counters in one reply, taken
/// through the session's own mailbox so it is ordered with the commands
/// around it. Worker-local store-error counts accrued in the same pass are
/// already folded into `manager`.
#[derive(Debug, Clone)]
pub struct ServerSnapshot {
    /// The session's engine counters.
    pub engine: EngineStats,
    /// Fleet lifecycle counters (evictions, rehydrations, spills,
    /// restores, store errors — including this pass's).
    pub manager: ManagerStats,
    /// Durable-tier counters (`None` without a store).
    pub store: Option<StoreStats>,
    /// Per-stage latency summaries from the telemetry hub (empty with
    /// telemetry off).
    pub telemetry: Vec<StageSummary>,
}

/// Errors surfaced to server clients.
#[derive(Debug, Clone, PartialEq)]
pub enum ServerError {
    /// The session id is unknown (never created, or already closed).
    UnknownSession(SessionId),
    /// The session's log rejected the request.
    Response(ResponseError),
    /// The solve failed.
    Rank(RankError),
    /// The durable store could not serve the request (stringly typed:
    /// `hnd_store::StoreError` wraps `std::io::Error`, which is neither
    /// `Clone` nor `PartialEq`).
    Store(String),
    /// Admission control shed the command: the session's mailbox or the
    /// server-wide in-flight budget is full. Back off for roughly
    /// `retry_after_ms` (the observed median command latency — the time
    /// one queued slot takes to clear) and retry.
    Overloaded {
        /// Suggested client backoff in milliseconds.
        retry_after_ms: u64,
    },
    /// The command's [`Deadline`] passed while it sat queued; it was
    /// dropped at dequeue without executing.
    DeadlineExceeded,
    /// The session was poisoned by a panic and sits in quarantine; revive
    /// it from its durable log with [`SessionServer::revive_session`].
    Quarantined(SessionId),
    /// The server is shutting down (or a worker died mid-request).
    Terminated,
}

impl std::fmt::Display for ServerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServerError::UnknownSession(id) => write!(f, "unknown session {id}"),
            ServerError::Response(e) => write!(f, "{e}"),
            ServerError::Rank(e) => write!(f, "{e}"),
            ServerError::Store(detail) => write!(f, "{detail}"),
            ServerError::Overloaded { retry_after_ms } => {
                write!(f, "server overloaded; retry after ~{retry_after_ms}ms")
            }
            ServerError::DeadlineExceeded => write!(f, "deadline exceeded before execution"),
            ServerError::Quarantined(id) => write!(f, "session {id} is quarantined"),
            ServerError::Terminated => write!(f, "server terminated"),
        }
    }
}

impl std::error::Error for ServerError {}

impl From<ResponseError> for ServerError {
    fn from(e: ResponseError) -> Self {
        ServerError::Response(e)
    }
}

impl From<RankError> for ServerError {
    fn from(e: RankError) -> Self {
        ServerError::Rank(e)
    }
}

impl From<SessionError> for ServerError {
    fn from(e: SessionError) -> Self {
        match e {
            SessionError::Unknown(id) => ServerError::UnknownSession(id),
            SessionError::Quarantined(id) => ServerError::Quarantined(id),
            SessionError::Response(e) => ServerError::Response(e),
            SessionError::Rank(e) => ServerError::Rank(e),
            SessionError::Store(detail) => ServerError::Store(detail),
            // Checkout-discipline violations never escape the server's
            // single-writer protocol; surface them as internal errors.
            other => ServerError::Store(other.to_string()),
        }
    }
}

/// A per-command execution deadline, resolved against the queue: a worker
/// drops (never executes) a command whose deadline passed while it waited
/// in its mailbox, failing its reply with
/// [`ServerError::DeadlineExceeded`]. [`Deadline::NONE`] — the default for
/// every plain [`SessionServer`] method — never expires.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Deadline(Option<Instant>);

impl Deadline {
    /// No deadline: the command waits as long as it takes.
    pub const NONE: Deadline = Deadline(None);

    /// A deadline `budget` from now.
    pub fn within(budget: Duration) -> Self {
        Deadline(Instant::now().checked_add(budget))
    }

    /// A deadline at an absolute instant.
    pub fn at(at: Instant) -> Self {
        Deadline(Some(at))
    }

    /// `true` once the deadline has passed.
    pub fn expired(self) -> bool {
        self.0.is_some_and(|at| Instant::now() > at)
    }

    /// Nanoseconds past the deadline (0 when unexpired or `NONE`).
    fn late_ns(self) -> u64 {
        self.0.map_or(0, |at| {
            Instant::now().saturating_duration_since(at).as_nanos() as u64
        })
    }
}

/// A pending server reply. Obtain the value with [`Reply::wait`]; holding
/// several replies before waiting pipelines commands through the pool.
#[derive(Debug)]
pub struct Reply<V> {
    rx: Receiver<Result<V, ServerError>>,
    settled: Receiver<()>,
}

impl<V> Reply<V> {
    fn pair() -> (Sender<Result<V, ServerError>>, Sender<()>, Self) {
        let (tx, rx) = channel();
        let (settle, settled) = channel();
        (tx, settle, Reply { rx, settled })
    }

    /// Blocks until the command has been processed.
    pub fn wait(self) -> Result<V, ServerError> {
        self.rx.recv().unwrap_or(Err(ServerError::Terminated))
    }

    /// Blocks until the command has been processed, but at most `timeout`.
    /// `None` means the reply has not resolved yet — the command is still
    /// queued or executing, and the `Reply` stays valid for another wait.
    pub fn wait_timeout(&self, timeout: Duration) -> Option<Result<V, ServerError>> {
        match self.rx.recv_timeout(timeout) {
            Ok(result) => Some(result),
            Err(RecvTimeoutError::Timeout) => None,
            Err(RecvTimeoutError::Disconnected) => Some(Err(ServerError::Terminated)),
        }
    }

    /// Like [`Reply::wait`], but additionally blocks until the worker that
    /// processed the command has checked the session back into the
    /// manager. `wait` returns at execution time — *before* check-in — so
    /// manager-level state (eviction flags, [`ManagerStats`], quarantine)
    /// observed right after a plain `wait` can race the check-in;
    /// `wait_settled` closes that window. Commands that never reach a
    /// worker (rejected, shed, served directly off the durable log) settle
    /// immediately.
    pub fn wait_settled(self) -> Result<V, ServerError> {
        let result = self.rx.recv().unwrap_or(Err(ServerError::Terminated));
        // Resolves on the worker's post-check-in send, or on disconnect
        // when the command never reached a worker.
        let _ = self.settled.recv();
        result
    }
}

/// One queued command; each carries its reply channel.
enum Command {
    Submit(
        Vec<(usize, usize, Option<u16>)>,
        Sender<Result<u64, ServerError>>,
    ),
    Ranking(Sender<Result<Ranking, ServerError>>),
    #[allow(clippy::type_complexity)]
    TopK(usize, Sender<Result<Vec<(usize, f64)>, ServerError>>),
    RankOf(usize, Sender<Result<usize, ServerError>>),
    CatchUp(u64, Sender<Result<ResponseDelta, ServerError>>),
    Stats(Sender<Result<EngineStats, ServerError>>),
    Snapshot(Sender<Result<ServerSnapshot, ServerError>>),
    SessionLog(Sender<Result<ResponseLog, ServerError>>),
    Close(Sender<Result<(), ServerError>>),
    /// Test-only: panics inside the worker's execution guard, exercising
    /// the quarantine path end to end.
    InjectPanic(Sender<Result<(), ServerError>>),
}

impl Command {
    /// Whether executing this command runs (or may run) a spectral solve —
    /// the commands worth batching cold rehydrations for.
    fn needs_solve(&self) -> bool {
        matches!(
            self,
            Command::Ranking(_) | Command::TopK(..) | Command::RankOf(..)
        )
    }

    /// The command's flight-recorder tag.
    fn kind(&self) -> CommandKind {
        match self {
            Command::Submit(..) => CommandKind::Submit,
            Command::Ranking(_) => CommandKind::Ranking,
            Command::TopK(..) => CommandKind::TopK,
            Command::RankOf(..) => CommandKind::RankOf,
            Command::CatchUp(..) => CommandKind::CatchUp,
            Command::Stats(_) => CommandKind::Stats,
            Command::Snapshot(_) => CommandKind::Snapshot,
            Command::SessionLog(_) => CommandKind::SessionLog,
            Command::Close(_) => CommandKind::Close,
            Command::InjectPanic(_) => CommandKind::Inject,
        }
    }

    /// Whether admission control may shed this command early (at
    /// `cap − cap/8` of the global budget). Cheap certified reads shed
    /// last; `Close` is never shed at all (it *frees* capacity).
    fn sheds_early(&self) -> bool {
        matches!(
            self,
            Command::Submit(..)
                | Command::CatchUp(..)
                | Command::SessionLog(_)
                | Command::InjectPanic(_)
        )
    }

    /// Resolves the command's reply with `err` without executing it.
    fn reject(self, err: ServerError) {
        match self {
            Command::Submit(_, tx) => drop(tx.send(Err(err))),
            Command::Ranking(tx) => drop(tx.send(Err(err))),
            Command::TopK(_, tx) => drop(tx.send(Err(err))),
            Command::RankOf(_, tx) => drop(tx.send(Err(err))),
            Command::CatchUp(_, tx) => drop(tx.send(Err(err))),
            Command::Stats(tx) => drop(tx.send(Err(err))),
            Command::Snapshot(tx) => drop(tx.send(Err(err))),
            Command::SessionLog(tx) => drop(tx.send(Err(err))),
            Command::Close(tx) => drop(tx.send(Err(err))),
            Command::InjectPanic(tx) => drop(tx.send(Err(err))),
        }
    }

    /// Executes against a checked-out engine; sets `close` on
    /// [`Command::Close`]. With a store attached, commits stream into the
    /// session's WAL and catch-up falls through to it when the in-memory
    /// history has been truncated; store *write* failures never fail the
    /// client (the commit already happened) — they accumulate in
    /// `store_errors` for the check-in to fold into [`ManagerStats`].
    /// `record` runs with the reply's `Ok`/`Err` outcome *before* the
    /// reply is sent, so a client whose [`Reply::wait`] has returned is
    /// guaranteed to find its command already in the telemetry hub — no
    /// sampling race between `wait` and [`SessionServer::metrics`].
    #[allow(clippy::too_many_arguments)]
    fn execute(
        self,
        id: SessionId,
        engine: &mut RankingEngine,
        store: Option<&SessionStore>,
        store_errors: &mut u64,
        close: &mut bool,
        mgr_stats: ManagerStats,
        hub: &TelemetryHub,
        record: &dyn Fn(bool),
    ) {
        match self {
            Command::Submit(batch, tx) => {
                let result = engine.submit_responses(batch).map_err(ServerError::from);
                if result.is_ok() {
                    if let Some(store) = store {
                        let started = engine.probe().map(|_| Instant::now());
                        let synced = store.sync_from(id, engine.log());
                        if let (Some(started), Some(p)) = (started, engine.probe()) {
                            p.event(EventKind::WalAppend {
                                ns: started.elapsed().as_nanos() as u64,
                            });
                        }
                        if synced.is_err() {
                            *store_errors += 1;
                        }
                    }
                }
                record(result.is_ok());
                let _ = tx.send(result);
            }
            Command::Ranking(tx) => {
                let result = engine.current_ranking().map_err(ServerError::from);
                record(result.is_ok());
                let _ = tx.send(result);
            }
            Command::TopK(k, tx) => {
                let result = engine.top_k(k).map_err(ServerError::from);
                record(result.is_ok());
                let _ = tx.send(result);
            }
            Command::RankOf(user, tx) => {
                let result = engine.rank_of(user).map_err(ServerError::from);
                record(result.is_ok());
                let _ = tx.send(result);
            }
            Command::CatchUp(from, tx) => {
                let head = engine.version();
                let result = match engine.log().compact_range(from, head) {
                    Ok(delta) => Ok(delta),
                    // The ledger no longer reaches back to the client's
                    // version (history_retention truncated it), but the
                    // session's WAL does: serve the delta off disk
                    // instead of failing the resync.
                    Err(ResponseError::HistoryUnavailable { .. }) if store.is_some() => store
                        .expect("checked above")
                        .catch_up(id, from)
                        .map_err(|e| ServerError::Store(e.to_string())),
                    Err(e) => Err(ServerError::from(e)),
                };
                record(result.is_ok());
                let _ = tx.send(result);
            }
            Command::Stats(tx) => {
                record(true);
                let _ = tx.send(Ok(engine.stats()));
            }
            Command::Snapshot(tx) => {
                // Fold this pass's accrued store errors in so the caller
                // sees a count consistent with the commands ordered before
                // the snapshot in the same mailbox drain.
                let mut manager = mgr_stats;
                manager.store_errors += *store_errors;
                record(true);
                let _ = tx.send(Ok(ServerSnapshot {
                    engine: engine.stats(),
                    manager,
                    store: store.map(SessionStore::stats),
                    telemetry: hub.stage_summaries(),
                }));
            }
            Command::SessionLog(tx) => {
                record(true);
                let _ = tx.send(Ok(engine.log().clone()));
            }
            Command::Close(tx) => {
                *close = true;
                record(true);
                let _ = tx.send(Ok(()));
            }
            Command::InjectPanic(tx) => {
                // The reply channel dies with the unwind: the injecting
                // caller's `wait` resolves `Terminated`, every *later*
                // command on the session gets `Quarantined`.
                record(false);
                drop(tx);
                panic!("injected worker panic");
            }
        }
    }
}

/// A command sitting in a mailbox, stamped for the flight recorder at
/// enqueue time (`seq`/`at_ns` are zero with telemetry off).
struct Queued {
    cmd: Command,
    /// Checked at dequeue: expired commands are dropped, not executed.
    deadline: Deadline,
    /// Fired (or dropped) once the session is checked back in — the
    /// [`Reply::wait_settled`] barrier.
    settle: Sender<()>,
    /// Hub-global command sequence number (links the client ring's
    /// `Enqueue` event to the worker ring's lifecycle events).
    seq: u64,
    /// Hub-epoch nanosecond stamp taken at enqueue (dwell = dequeue − this).
    at_ns: u64,
}

/// Per-session command queue.
struct Mailbox {
    queue: VecDeque<Queued>,
    /// Engine checked out: a worker is processing this session.
    busy: bool,
    /// Already sitting in the ready queue (at most one entry per session).
    enqueued: bool,
}

impl Mailbox {
    fn empty() -> Self {
        Mailbox {
            queue: VecDeque::new(),
            busy: false,
            enqueued: false,
        }
    }
}

struct Inner {
    mgr: SessionManager,
    mailboxes: BTreeMap<SessionId, Mailbox>,
    ready: VecDeque<SessionId>,
    /// Admitted commands not yet finished: queued in any mailbox or
    /// drained into a worker's pass. Decremented at check-in (and on every
    /// reject of an already-admitted command), so it bounds work in the
    /// system, not just queue depth.
    inflight: u64,
    shutdown: bool,
}

struct Shared {
    state: Mutex<Inner>,
    work: Condvar,
}

/// How one session's pass through a worker ended.
enum Outcome {
    /// Commands executed; the engine comes back (or the session closed).
    Done {
        engine: Box<RankingEngine>,
        close: bool,
    },
    /// A command panicked (or rehydration failed): quarantine the session,
    /// preserving whatever log the worker could salvage from the engine.
    Quarantine { salvage: Option<ResponseLog> },
}

/// The concurrent session server: a worker pool draining per-session
/// mailboxes over a [`SessionManager`]. See the module docs for the
/// architecture.
pub struct SessionServer {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
    workers: usize,
    hub: Arc<TelemetryHub>,
    mailbox_cap: usize,
    max_inflight: usize,
}

/// Suppresses stderr noise from the *injected* test panic (and only it):
/// the quarantine batteries fire `inject_panic` on purpose, and the
/// default hook's backtrace spam would drown their output. Real panics
/// still reach the previously installed hook. Installed once per process,
/// the first time a server starts.
fn install_panic_filter() {
    static INSTALL: std::sync::Once = std::sync::Once::new();
    INSTALL.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<&str>()
                .is_some_and(|s| s.contains("injected worker panic"))
                || info
                    .payload()
                    .downcast_ref::<String>()
                    .is_some_and(|s| s.contains("injected worker panic"));
            if !injected {
                prev(info);
            }
        }));
    });
}

impl SessionServer {
    /// Starts the worker pool. With `opts.workers == 0` the pool follows
    /// the effective kernel thread count (`HND_THREADS` convention).
    pub fn new(opts: ServerOpts) -> Self {
        Self::start(opts, SessionManager::new(opts.engine))
    }

    /// Starts the worker pool over a durable [`SessionStore`]: every
    /// session the store already holds is adopted (same ids, rehydrated
    /// lazily from snapshot + WAL on first touch — the restart path),
    /// commits stream into per-session WALs, idle evictions spill to disk,
    /// and [`SessionServer::catch_up`] serves pre-truncation versions off
    /// the WAL instead of failing with `HistoryUnavailable`.
    pub fn with_store(opts: ServerOpts, store: Arc<SessionStore>) -> Self {
        Self::start(opts, SessionManager::with_store(opts.engine, store))
    }

    fn start(opts: ServerOpts, mut mgr: SessionManager) -> Self {
        install_panic_filter();
        let total = parallel::threads();
        // The single resolution point for the HND_THREADS convention —
        // benches/examples sizing their own pools go through it too.
        let workers = parallel::resolve_workers(opts.workers);
        // Split the machine between the pool and the in-solve kernels so a
        // fleet of sessions does not oversubscribe: workers × inner ≈ total.
        let inner_threads = (total / workers).max(1);
        // Resolve the auto cold-batch: without inner parallelism the
        // batched pass has nothing to amortize its duplicated prepares.
        let cold_batch = match opts.cold_batch {
            0 if inner_threads > 1 => 8,
            0 => 1,
            n => n,
        };
        mgr.set_idle_threshold(opts.idle_threshold);
        // One flight-recorder ring per worker plus the client ring (direct
        // serves and rejects record from caller threads).
        let hub = TelemetryHub::new(workers + 1, opts.telemetry);
        let store = mgr.store().cloned();
        if let Some(store) = &store {
            store.attach_telemetry(hub.clone());
        }
        // Adopted (spilled) sessions need mailboxes from the start.
        let mailboxes: BTreeMap<SessionId, Mailbox> = mgr
            .session_ids()
            .into_iter()
            .map(|id| (id, Mailbox::empty()))
            .collect();
        let shared = Arc::new(Shared {
            state: Mutex::new(Inner {
                mgr,
                mailboxes,
                ready: VecDeque::new(),
                inflight: 0,
                shutdown: false,
            }),
            work: Condvar::new(),
        });

        let handles = (0..workers)
            .map(|k| {
                let shared = Arc::clone(&shared);
                let store = store.clone();
                let hub = hub.clone();
                std::thread::Builder::new()
                    .name(format!("hnd-serve-{k}"))
                    .spawn(move || worker_loop(&shared, inner_threads, cold_batch, store, hub, k))
                    .expect("spawn server worker")
            })
            .collect();
        SessionServer {
            shared,
            handles,
            workers,
            hub,
            mailbox_cap: opts.mailbox_cap,
            max_inflight: opts.max_inflight,
        }
    }

    /// Number of worker threads in the pool.
    pub fn workers(&self) -> usize {
        self.workers
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.shared.state.lock().expect("server state poisoned")
    }

    /// Opens a session over an empty roster; returns its id immediately
    /// (session creation is cheap and needs no mailbox round-trip).
    ///
    /// # Errors
    /// Rejects empty user/item sets and zero-option items.
    pub fn create_session(
        &self,
        n_users: usize,
        n_items: usize,
        options_per_item: &[u16],
    ) -> Result<SessionId, ServerError> {
        let mut st = self.lock();
        if st.shutdown {
            return Err(ServerError::Terminated);
        }
        let id = st.mgr.create_session(n_users, n_items, options_per_item)?;
        st.mailboxes.insert(id, Mailbox::empty());
        Ok(id)
    }

    /// Opens a session over a pre-filled log (bulk load / rehydration of
    /// externally durable state).
    pub fn create_session_from_log(&self, log: ResponseLog) -> Result<SessionId, ServerError> {
        let mut st = self.lock();
        if st.shutdown {
            return Err(ServerError::Terminated);
        }
        let id = st.mgr.create_session_from_log(log)?;
        st.mailboxes.insert(id, Mailbox::empty());
        Ok(id)
    }

    /// Flight-records a command served directly off the durable log (no
    /// mailbox round-trip) on the client ring, and feeds the end-to-end
    /// histogram so direct serves show up in the latency profile.
    fn record_direct(&self, id: SessionId, seq: u64, at_ns: u64, kind: CommandKind, ok: bool) {
        if !self.hub.enabled() {
            return;
        }
        let e2e_ns = self.hub.now_ns().saturating_sub(at_ns);
        self.hub.record(
            self.hub.client_ring(),
            id,
            seq,
            EventKind::Reply {
                cmd: kind,
                ok,
                e2e_ns,
            },
        );
        self.hub.record_stage(Stage::Command, e2e_ns);
        self.hub.bump(if ok {
            Counter::RepliesOk
        } else {
            Counter::RepliesErr
        });
        self.hub.bump(Counter::DirectServes);
        if !ok {
            self.hub.capture_error();
        }
    }

    /// Flight-records a command rejected before reaching a worker
    /// (unknown session, shutdown, quarantine, shed).
    fn record_reject(&self, id: SessionId, seq: u64, at_ns: u64, kind: CommandKind) {
        if !self.hub.enabled() {
            return;
        }
        let e2e_ns = self.hub.now_ns().saturating_sub(at_ns);
        self.hub.record(
            self.hub.client_ring(),
            id,
            seq,
            EventKind::Reply {
                cmd: kind,
                ok: false,
                e2e_ns,
            },
        );
        self.hub.bump(Counter::RepliesErr);
    }

    /// The shed reply's retry hint: the `Command` stage's median
    /// end-to-end latency — roughly the time one queued slot takes to
    /// clear — clamped to `[1ms, 10s]`; `1ms` before any command has
    /// completed (or with telemetry off).
    fn retry_after_hint_ms(&self) -> u64 {
        let data = self.hub.stage_data(Stage::Command);
        if data.count == 0 {
            return 1;
        }
        (data.summary().p50_ns / 1_000_000).clamp(1, 10_000)
    }

    fn enqueue(&self, id: SessionId, cmd: Command, deadline: Deadline, settle: Sender<()>) {
        let st = self.lock();
        // Stamp the command for the flight recorder before anything can
        // serve it; with telemetry off both stamps are zero and no event
        // is recorded anywhere downstream.
        let (seq, at_ns) = if self.hub.enabled() {
            let seq = self.hub.next_seq();
            let at_ns = self.hub.now_ns();
            self.hub.record(
                self.hub.client_ring(),
                id,
                seq,
                EventKind::Enqueue { cmd: cmd.kind() },
            );
            self.hub.bump(Counter::CommandsEnqueued);
            (seq, at_ns)
        } else {
            (0, 0)
        };
        if st.shutdown {
            drop(st);
            let kind = cmd.kind();
            cmd.reject(ServerError::Terminated);
            self.record_reject(id, seq, at_ns, kind);
            return;
        }
        // Read-only log commands against an evicted, quiescent session are
        // answered straight from the durable log: rehydrating an O(nnz)
        // kernel context to read bytes the log already holds would defeat
        // eviction (think reconnect storms full of catch_up calls). Only
        // safe when the mailbox is idle — queued commands must stay FIFO.
        let quiescent = st
            .mailboxes
            .get(&id)
            .is_some_and(|mb| mb.queue.is_empty() && !mb.busy);
        if quiescent && !st.mgr.is_quarantined(id) {
            // A *spilled* session has nothing in memory at all: log reads
            // go straight to the store's files (clone the Arc, drop the
            // lock, read disk unlocked) — rehydrating an engine to answer
            // a catch_up would defeat the spill.
            if st.mgr.is_spilled(id) {
                if let Some(store) = st.mgr.store().cloned() {
                    match cmd {
                        Command::CatchUp(from, tx) => {
                            drop(st);
                            let result = store
                                .catch_up(id, from)
                                .map_err(|e| ServerError::Store(e.to_string()));
                            let ok = result.is_ok();
                            let _ = tx.send(result);
                            self.record_direct(id, seq, at_ns, CommandKind::CatchUp, ok);
                            return;
                        }
                        Command::SessionLog(tx) => {
                            drop(st);
                            let result = store
                                .load(id)
                                .map(|(log, _)| log)
                                .map_err(|e| ServerError::Store(e.to_string()));
                            let ok = result.is_ok();
                            let _ = tx.send(result);
                            self.record_direct(id, seq, at_ns, CommandKind::SessionLog, ok);
                            return;
                        }
                        other => {
                            return self.enqueue_locked(
                                st,
                                id,
                                Queued {
                                    cmd: other,
                                    deadline,
                                    settle,
                                    seq,
                                    at_ns,
                                },
                            )
                        }
                    }
                }
            }
            if let Some(log) = st.mgr.evicted_log(id) {
                match cmd {
                    Command::CatchUp(from, tx) => {
                        // Copy the raw slice under the lock (memcpy), run
                        // the O(range) composition after releasing it.
                        let head = log.version();
                        let raw = log.history_range(from, head).map(<[_]>::to_vec);
                        // History truncated under the client? The WAL
                        // still reaches back — resolve off disk.
                        let store = match &raw {
                            Err(ResponseError::HistoryUnavailable { .. }) => {
                                st.mgr.store().cloned()
                            }
                            _ => None,
                        };
                        drop(st);
                        let result = match (raw, store) {
                            (Ok(edits), _) => Ok(ResponseDelta::compacted(from, head, &edits)),
                            (Err(_), Some(store)) => store
                                .catch_up(id, from)
                                .map_err(|e| ServerError::Store(e.to_string())),
                            (Err(e), None) => Err(ServerError::from(e)),
                        };
                        let ok = result.is_ok();
                        let _ = tx.send(result);
                        self.record_direct(id, seq, at_ns, CommandKind::CatchUp, ok);
                        return;
                    }
                    Command::SessionLog(tx) => {
                        let log = log.clone();
                        drop(st);
                        let _ = tx.send(Ok(log));
                        self.record_direct(id, seq, at_ns, CommandKind::SessionLog, true);
                        return;
                    }
                    other => {
                        // Engine-bound command: fall through to the mailbox
                        // (the worker rehydrates).
                        return self.enqueue_locked(
                            st,
                            id,
                            Queued {
                                cmd: other,
                                deadline,
                                settle,
                                seq,
                                at_ns,
                            },
                        );
                    }
                }
            }
        }
        self.enqueue_locked(
            st,
            id,
            Queued {
                cmd,
                deadline,
                settle,
                seq,
                at_ns,
            },
        )
    }

    fn enqueue_locked(&self, mut st: std::sync::MutexGuard<'_, Inner>, id: SessionId, q: Queued) {
        let Queued { seq, at_ns, .. } = q;
        let kind = q.cmd.kind();
        if !st.mailboxes.contains_key(&id) {
            drop(st);
            q.cmd.reject(ServerError::UnknownSession(id));
            self.record_reject(id, seq, at_ns, kind);
            return;
        }
        // Fail fast on a poisoned session: its worker pass already
        // rejected everything queued, and nothing new may join until
        // `revive_session` rebuilds it from the durable log.
        if st.mgr.is_quarantined(id) {
            drop(st);
            q.cmd.reject(ServerError::Quarantined(id));
            self.record_reject(id, seq, at_ns, kind);
            return;
        }
        // Admission control. `Close` is always admitted — it frees
        // capacity, and refusing it would wedge an overloaded server.
        if !matches!(q.cmd, Command::Close(_)) {
            let mailbox_full = self.mailbox_cap != 0
                && st.mailboxes.get(&id).expect("checked above").queue.len() >= self.mailbox_cap;
            let budget_full = self.max_inflight != 0 && {
                let cap = self.max_inflight as u64;
                // Mutating/bulk commands shed first: the last 1/8 of the
                // budget is reserved for the cheap certified reads that
                // callers poll under load.
                let threshold = if q.cmd.sheds_early() {
                    cap - cap / 8
                } else {
                    cap
                };
                st.inflight >= threshold.max(1)
            };
            if mailbox_full || budget_full {
                let inflight = st.inflight;
                drop(st);
                if self.hub.enabled() {
                    self.hub.record(
                        self.hub.client_ring(),
                        id,
                        seq,
                        EventKind::Shed {
                            cmd: kind,
                            inflight,
                        },
                    );
                    self.hub.bump(Counter::CommandsShed);
                }
                let retry_after_ms = self.retry_after_hint_ms();
                q.cmd.reject(ServerError::Overloaded { retry_after_ms });
                self.record_reject(id, seq, at_ns, kind);
                return;
            }
        }
        st.inflight += 1;
        let mailbox = st.mailboxes.get_mut(&id).expect("checked above");
        mailbox.queue.push_back(q);
        if !mailbox.busy && !mailbox.enqueued {
            mailbox.enqueued = true;
            st.ready.push_back(id);
            drop(st);
            self.shared.work.notify_one();
        }
    }

    /// A client handle whose commands all carry `deadline`: a worker drops
    /// any of them whose deadline passed while queued
    /// ([`ServerError::DeadlineExceeded`]) instead of executing it. The
    /// plain [`SessionServer`] methods are equivalent to
    /// `with_deadline(Deadline::NONE)`.
    pub fn with_deadline(&self, deadline: Deadline) -> DeadlineClient<'_> {
        DeadlineClient {
            srv: self,
            deadline,
        }
    }

    /// Commits a batch of `(user, item, choice)` responses; the reply is
    /// the session's new version.
    pub fn submit(
        &self,
        id: SessionId,
        responses: impl IntoIterator<Item = (usize, usize, Option<u16>)>,
    ) -> Reply<u64> {
        self.with_deadline(Deadline::NONE).submit(id, responses)
    }

    /// The session's current ranking (cache hit, incremental delta+warm
    /// solve, or cold rehydration solve — whatever the engine needs).
    pub fn ranking(&self, id: SessionId) -> Reply<Ranking> {
        self.with_deadline(Deadline::NONE).ranking(id)
    }

    /// The session's best `k` users as `(user, score)` pairs at the
    /// engine's default certified tier: the solve early-terminates once
    /// the top-`k` set and order are certified decided, or is skipped
    /// outright when the pending wave provably cannot change them.
    pub fn top_k(&self, id: SessionId, k: usize) -> Reply<Vec<(usize, f64)>> {
        self.with_deadline(Deadline::NONE).top_k(id, k)
    }

    /// `user`'s current rank (0 = best) at the certified tier.
    pub fn rank_of(&self, id: SessionId, user: usize) -> Reply<usize> {
        self.with_deadline(Deadline::NONE).rank_of(id, user)
    }

    /// The compacted delta from a client's cached version to the session's
    /// head: apply it with
    /// [`ResponseMatrix::apply_delta`](hnd_response::ResponseMatrix::apply_delta)
    /// to resync in one step.
    pub fn catch_up(&self, id: SessionId, from_version: u64) -> Reply<ResponseDelta> {
        self.with_deadline(Deadline::NONE)
            .catch_up(id, from_version)
    }

    /// The session's serving counters.
    pub fn stats(&self, id: SessionId) -> Reply<EngineStats> {
        self.with_deadline(Deadline::NONE).stats(id)
    }

    /// Every layer's counters in one ordered reply — engine, manager
    /// (store errors from the same pass folded in), store, and the
    /// telemetry hub's per-stage latency summaries. Rides the session's
    /// mailbox, so it observes exactly the commands enqueued before it.
    pub fn snapshot(&self, id: SessionId) -> Reply<ServerSnapshot> {
        self.with_deadline(Deadline::NONE).snapshot(id)
    }

    /// A clone of the session's durable log (the serial-replay oracle of
    /// the concurrency tests; also the handoff format for re-sharding).
    pub fn session_log(&self, id: SessionId) -> Reply<ResponseLog> {
        self.with_deadline(Deadline::NONE).session_log(id)
    }

    /// Closes the session after the commands already queued ahead of it;
    /// later commands fail with [`ServerError::UnknownSession`]. Never
    /// shed by admission control.
    pub fn close_session(&self, id: SessionId) -> Reply<()> {
        let (tx, settle, reply) = Reply::pair();
        self.enqueue(id, Command::Close(tx), Deadline::NONE, settle);
        reply
    }

    /// Test-only: makes the session's worker panic mid-command,
    /// exercising panic isolation and quarantine end to end. The reply
    /// resolves [`ServerError::Terminated`] (its channel dies with the
    /// unwind); every later command gets [`ServerError::Quarantined`].
    #[doc(hidden)]
    pub fn inject_panic(&self, id: SessionId) -> Reply<()> {
        let (tx, settle, reply) = Reply::pair();
        self.enqueue(id, Command::InjectPanic(tx), Deadline::NONE, settle);
        reply
    }

    /// `true` when the session exists and is quarantined (poisoned by a
    /// panic, serving only [`ServerError::Quarantined`]).
    pub fn is_quarantined(&self, id: SessionId) -> bool {
        self.lock().mgr.is_quarantined(id)
    }

    /// Revives a quarantined session from its durable state (the salvaged
    /// log, or snapshot + WAL replay through the store) and returns the
    /// restored version. The session comes back evicted: its next
    /// engine-bound command rehydrates it cold, exactly like a restart.
    pub fn revive_session(&self, id: SessionId) -> Result<u64, ServerError> {
        let mut st = self.lock();
        if st.shutdown {
            return Err(ServerError::Terminated);
        }
        Ok(st.mgr.revive_session(id)?)
    }

    /// Runs the idle-eviction sweep now (it also runs at every check-in);
    /// returns the ids evicted by this call.
    pub fn evict_idle(&self) -> Vec<SessionId> {
        self.lock().mgr.evict_idle()
    }

    /// `true` when the session exists and is currently torn down to its
    /// durable log.
    pub fn is_evicted(&self, id: SessionId) -> bool {
        self.lock().mgr.is_evicted(id)
    }

    /// Fleet lifecycle counters (evictions, rehydrations, spills,
    /// restores, store errors, quarantines, revivals).
    pub fn manager_stats(&self) -> ManagerStats {
        self.lock().mgr.stats()
    }

    /// The durable tier's cumulative counters (`None` when the server was
    /// built without a store).
    pub fn store_stats(&self) -> Option<StoreStats> {
        self.lock().mgr.store().map(|s| s.stats())
    }

    /// The unified fleet-wide metrics snapshot: engine counters aggregated
    /// across every session (live and retired), manager and store
    /// counters, hub counters, and per-stage latency histograms — the one
    /// structure the text exposition format and the example summary tables
    /// render. The per-layer stats accessors remain as thin views of the
    /// same numbers.
    pub fn metrics(&self) -> MetricsSnapshot {
        let (engine, manager, store, sessions) = {
            let st = self.lock();
            (
                st.mgr.aggregate_engine_stats(),
                st.mgr.stats(),
                st.mgr.store().map(|s| s.stats()),
                st.mgr.len(),
            )
        };
        let mut snap = MetricsSnapshot::new();
        snap.gauge("server_workers", self.workers as f64);
        snap.gauge("server_sessions", sessions as f64);
        snap.counter("engine_delta_applies", engine.delta_applies);
        snap.counter("engine_rebuilds", engine.rebuilds);
        snap.counter("engine_warm_solves", engine.warm_solves);
        snap.counter("engine_cold_solves", engine.cold_solves);
        snap.counter("engine_sharded_solves", engine.sharded_solves);
        snap.counter("engine_shard_rebalances", engine.shard_rebalances);
        snap.counter("engine_shard_rebuilds", engine.shard_rebuilds);
        snap.counter("engine_plan_replans", engine.plan_replans);
        snap.counter("engine_predicted_patch_ns", engine.predicted_patch_ns);
        snap.counter("engine_actual_patch_ns", engine.actual_patch_ns);
        snap.counter("engine_predicted_rebuild_ns", engine.predicted_rebuild_ns);
        snap.counter("engine_actual_rebuild_ns", engine.actual_rebuild_ns);
        snap.counter("engine_predicted_solve_ns", engine.predicted_solve_ns);
        snap.counter("engine_actual_solve_ns", engine.actual_solve_ns);
        snap.counter("engine_skipped_solves", engine.skipped_solves);
        snap.counter("engine_early_terminations", engine.early_terminations);
        snap.counter("engine_iterations_saved", engine.iterations_saved);
        snap.counter("engine_wal_replayed", engine.wal_replayed);
        snap.gauge("engine_bitmap_rows", engine.formats.bitmap_rows as f64);
        snap.gauge("engine_sparse_rows", engine.formats.sparse_rows as f64);
        snap.gauge("engine_bitmap_cols", engine.formats.bitmap_cols as f64);
        snap.gauge("engine_sparse_cols", engine.formats.sparse_cols as f64);
        snap.counter("manager_evictions", manager.evictions);
        snap.counter("manager_rehydrations", manager.rehydrations);
        snap.counter("manager_spills", manager.spills);
        snap.counter("manager_restores", manager.restores);
        snap.counter("manager_warm_restores", manager.warm_restores);
        snap.counter("manager_store_errors", manager.store_errors);
        snap.counter("manager_quarantines", manager.quarantines);
        snap.counter("manager_revivals", manager.revivals);
        if let Some(store) = store {
            snap.counter("store_frames_appended", store.frames_appended);
            snap.counter("store_edits_appended", store.edits_appended);
            snap.counter("store_fsyncs", store.fsyncs);
            snap.counter("store_snapshots_written", store.snapshots_written);
            snap.counter("store_wal_rotations", store.wal_rotations);
            snap.counter("store_loads", store.loads);
            snap.counter("store_replayed_edits", store.replayed_edits);
            snap.counter("store_damaged_frames", store.damaged_frames());
            snap.counter("store_snapshot_failures", store.snapshot_failures);
            snap.counter("store_retries_append", store.retries_append);
            snap.counter("store_retries_fsync", store.retries_fsync);
            snap.counter("store_retries_read", store.retries_read);
            snap.counter("store_retries_snapshot", store.retries_snapshot);
            snap.counter("store_faults_transient", store.faults_transient);
            snap.counter("store_faults_hard", store.faults_hard);
            snap.counter("store_faults_torn", store.faults_torn);
        }
        self.hub.fill(&mut snap);
        snap
    }

    /// Serializes the flight recorder: the last [`hnd_telemetry::RING_CAPACITY`]
    /// events per worker ring (plus the client ring), chronological within
    /// each ring. Cheap enough to call on demand; empty with telemetry off.
    pub fn trace_dump(&self) -> TraceDump {
        self.hub.trace_dump()
    }

    /// The trace dump captured automatically when a command last resolved
    /// with an error (`None` when no command has failed, or telemetry is
    /// off). The failure-injection suite writes this to disk as its
    /// post-mortem artifact.
    pub fn last_error_trace(&self) -> Option<TraceDump> {
        self.hub.last_error_trace()
    }

    /// Forces every session's group-commit WAL debt to disk (checkpoint /
    /// orderly-shutdown barrier); `Ok` and a no-op without a store.
    pub fn flush_store(&self) -> Result<(), ServerError> {
        let store = self.lock().mgr.store().cloned();
        match store {
            Some(store) => store
                .flush_all()
                .map_err(|e| ServerError::Store(e.to_string())),
            None => Ok(()),
        }
    }

    /// Number of sessions (live, evicted, or busy).
    pub fn len(&self) -> usize {
        self.lock().mgr.len()
    }

    /// `true` when no sessions exist.
    pub fn is_empty(&self) -> bool {
        self.lock().mgr.is_empty()
    }
}

/// A borrowed [`SessionServer`] handle that stamps every command with one
/// [`Deadline`]; see [`SessionServer::with_deadline`].
#[derive(Clone, Copy)]
pub struct DeadlineClient<'a> {
    srv: &'a SessionServer,
    deadline: Deadline,
}

impl DeadlineClient<'_> {
    /// [`SessionServer::submit`] under this client's deadline.
    pub fn submit(
        &self,
        id: SessionId,
        responses: impl IntoIterator<Item = (usize, usize, Option<u16>)>,
    ) -> Reply<u64> {
        let (tx, settle, reply) = Reply::pair();
        self.srv.enqueue(
            id,
            Command::Submit(responses.into_iter().collect(), tx),
            self.deadline,
            settle,
        );
        reply
    }

    /// [`SessionServer::ranking`] under this client's deadline.
    pub fn ranking(&self, id: SessionId) -> Reply<Ranking> {
        let (tx, settle, reply) = Reply::pair();
        self.srv
            .enqueue(id, Command::Ranking(tx), self.deadline, settle);
        reply
    }

    /// [`SessionServer::top_k`] under this client's deadline.
    pub fn top_k(&self, id: SessionId, k: usize) -> Reply<Vec<(usize, f64)>> {
        let (tx, settle, reply) = Reply::pair();
        self.srv
            .enqueue(id, Command::TopK(k, tx), self.deadline, settle);
        reply
    }

    /// [`SessionServer::rank_of`] under this client's deadline.
    pub fn rank_of(&self, id: SessionId, user: usize) -> Reply<usize> {
        let (tx, settle, reply) = Reply::pair();
        self.srv
            .enqueue(id, Command::RankOf(user, tx), self.deadline, settle);
        reply
    }

    /// [`SessionServer::catch_up`] under this client's deadline.
    pub fn catch_up(&self, id: SessionId, from_version: u64) -> Reply<ResponseDelta> {
        let (tx, settle, reply) = Reply::pair();
        self.srv.enqueue(
            id,
            Command::CatchUp(from_version, tx),
            self.deadline,
            settle,
        );
        reply
    }

    /// [`SessionServer::stats`] under this client's deadline.
    pub fn stats(&self, id: SessionId) -> Reply<EngineStats> {
        let (tx, settle, reply) = Reply::pair();
        self.srv
            .enqueue(id, Command::Stats(tx), self.deadline, settle);
        reply
    }

    /// [`SessionServer::snapshot`] under this client's deadline.
    pub fn snapshot(&self, id: SessionId) -> Reply<ServerSnapshot> {
        let (tx, settle, reply) = Reply::pair();
        self.srv
            .enqueue(id, Command::Snapshot(tx), self.deadline, settle);
        reply
    }

    /// [`SessionServer::session_log`] under this client's deadline.
    pub fn session_log(&self, id: SessionId) -> Reply<ResponseLog> {
        let (tx, settle, reply) = Reply::pair();
        self.srv
            .enqueue(id, Command::SessionLog(tx), self.deadline, settle);
        reply
    }
}

impl Drop for SessionServer {
    fn drop(&mut self) {
        {
            let mut st = self.lock();
            st.shutdown = true;
        }
        self.shared.work.notify_all();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
        // Workers have exited: resolve everything still queued, then pay
        // off any group-commit debt so shutdown loses nothing durable.
        let mut st = self.lock();
        for (_, mailbox) in std::mem::take(&mut st.mailboxes) {
            for q in mailbox.queue {
                q.cmd.reject(ServerError::Terminated);
            }
        }
        if let Some(store) = st.mgr.store() {
            let _ = store.flush_all();
        }
    }
}

/// Pulls up to `cap − 1` additional *evicted, solve-hungry* sessions
/// without warm state out of the ready queue into the worker's pass (the
/// cold-storm batch: a session carrying warm state solves faster on its
/// own than in a cold `rank_many`). Unselected ids keep their queue
/// position and `enqueued` flag.
fn collect_cold_batch(
    st: &mut Inner,
    batch: &mut Vec<(SessionId, Vec<Queued>, Checkout)>,
    cap: usize,
) {
    let mut passed: Vec<SessionId> = Vec::new();
    while batch.len() < cap {
        let Some(id) = st.ready.pop_front() else {
            break;
        };
        let eligible = st.mgr.is_cold_evicted(id)
            && st
                .mailboxes
                .get(&id)
                .is_some_and(|mb| !mb.busy && mb.queue.iter().any(|q| q.cmd.needs_solve()));
        if !eligible {
            passed.push(id);
            continue;
        }
        let mailbox = st.mailboxes.get_mut(&id).expect("checked above");
        mailbox.enqueued = false;
        let commands: Vec<Queued> = mailbox.queue.drain(..).collect();
        match st.mgr.checkout(id) {
            Ok(checkout) => {
                st.mailboxes.get_mut(&id).expect("checked above").busy = true;
                batch.push((id, commands, checkout));
            }
            Err(e) => {
                st.inflight = st.inflight.saturating_sub(commands.len() as u64);
                let err = ServerError::from(e);
                for q in commands {
                    q.cmd.reject(err.clone());
                }
            }
        }
    }
    // Unselected ids return to the front in their original order.
    for id in passed.into_iter().rev() {
        st.ready.push_front(id);
    }
}

/// One worker: pop a ready session, check its engine out, drain its
/// mailbox outside the lock, check back in (re-enqueueing if commands
/// arrived meanwhile). Exits once shutdown is set and the ready queue is
/// drained.
///
/// When the popped session is an evicted one without warm state needing a
/// solve, up to `cold_batch − 1` more such sessions join the pass: their
/// engines are rebuilt outside the lock and their cold solves run together
/// through [`rank_many`] (batch-level parallelism), each result seeded
/// into its engine's cache before the commands execute.
fn worker_loop(
    shared: &Shared,
    inner_threads: usize,
    cold_batch: usize,
    store: Option<Arc<SessionStore>>,
    hub: Arc<TelemetryHub>,
    ring: usize,
) {
    loop {
        // Acquire one or more sessions to process (or exit).
        let (batch, engine_opts, mgr_stats) = {
            let mut st = shared.state.lock().expect("server state poisoned");
            'acquire: loop {
                while let Some(id) = st.ready.pop_front() {
                    let Some(mailbox) = st.mailboxes.get_mut(&id) else {
                        continue; // closed while queued
                    };
                    mailbox.enqueued = false;
                    if mailbox.busy || mailbox.queue.is_empty() {
                        continue;
                    }
                    let commands: Vec<Queued> = mailbox.queue.drain(..).collect();
                    // checkout (not take_engine): an evicted session hands
                    // back its log (a spilled one only its warm state) so
                    // the store load and the O(nnz) rebuild run outside
                    // the lock — the mutex guards bookkeeping only.
                    match st.mgr.checkout(id) {
                        Ok(checkout) => {
                            st.mailboxes
                                .get_mut(&id)
                                .expect("mailbox checked above")
                                .busy = true;
                            let opts = st.mgr.engine_opts();
                            // Manager counters as of this pass, for any
                            // Snapshot command in the drained queue.
                            let mgr_stats = st.mgr.stats();
                            let mut batch = vec![(id, commands, checkout)];
                            if cold_batch > 1
                                && batch[0].2.is_cold()
                                && batch[0].1.iter().any(|q| q.cmd.needs_solve())
                            {
                                collect_cold_batch(&mut st, &mut batch, cold_batch);
                            }
                            break 'acquire (batch, opts, mgr_stats);
                        }
                        Err(e) => {
                            // The manager cannot serve the id (closed
                            // concurrently, quarantined): fail the drained
                            // batch, keep popping.
                            st.inflight = st.inflight.saturating_sub(commands.len() as u64);
                            let err = ServerError::from(e);
                            for q in commands {
                                q.cmd.reject(err.clone());
                            }
                        }
                    }
                }
                if st.shutdown {
                    return;
                }
                st = shared.work.wait(st).expect("server state poisoned");
            }
        };

        // Process the batch outside the lock: each session is single-writer
        // (its engine is checked out), other sessions proceed in parallel.
        let enabled = hub.enabled();
        let mut items: Vec<(SessionId, Vec<Queued>, RankingEngine)> =
            Vec::with_capacity(batch.len());
        // Sessions whose rehydration build failed or panicked: their
        // durable state is still on disk (salvage `None`) — quarantine
        // them at check-in instead of taking the worker down.
        let mut broken: Vec<(SessionId, Vec<Queued>)> = Vec::new();
        // Spilled sessions whose store load failed: handed back to the
        // manager (and their commands rejected) at check-in.
        let mut unloadable: Vec<(SessionId, Vec<Queued>, Option<WarmState>, String)> = Vec::new();
        let mut cold: Vec<usize> = Vec::new();
        let batched = batch.len() > 1;
        let rebuild = |log: ResponseLog, replayed: u64, warm: Option<WarmState>| {
            std::panic::catch_unwind(AssertUnwindSafe(|| {
                RankingEngine::rehydrate(log, engine_opts, replayed, warm)
            }))
            .ok()
            .and_then(Result::ok)
        };
        for (id, commands, checkout) in batch {
            // The checkout event carries the first queued command's seq so
            // a trace reader can tie the rebuild to the command that paid
            // for it.
            let seq0 = commands.first().map_or(0, |q| q.seq);
            let kind0 = commands
                .first()
                .map_or(CommandKind::Close, |q| q.cmd.kind());
            let started = Instant::now();
            let (kind, engine, replayed, warm) = match checkout {
                Checkout::Live(engine) => (CheckoutKind::Live, Some(*engine), 0, false),
                Checkout::Rehydrate(Dormant { log, warm }) => {
                    let carried = warm.is_some();
                    (CheckoutKind::Rehydrate, rebuild(log, 0, warm), 0, carried)
                }
                Checkout::Restore { warm } => {
                    let loaded = store
                        .as_deref()
                        .expect("spilled session without an attached store")
                        .load(id);
                    match loaded {
                        Ok((log, report)) => {
                            let (replayed, carried) = (report.replayed_edits, warm.is_some());
                            let engine = rebuild(log, replayed, warm);
                            (CheckoutKind::Restore, engine, replayed, carried)
                        }
                        Err(e) => {
                            unloadable.push((id, commands, warm, e.to_string()));
                            continue;
                        }
                    }
                }
            };
            let rebuilt = kind != CheckoutKind::Live;
            match engine {
                Some(mut engine) => {
                    if enabled {
                        hub.record(
                            ring,
                            id,
                            seq0,
                            EventKind::Checkout {
                                kind,
                                replayed,
                                warm,
                            },
                        );
                        if rebuilt {
                            if warm {
                                hub.bump(Counter::WarmCheckouts);
                            }
                            hub.record_stage(Stage::Restore, started.elapsed().as_nanos() as u64);
                        }
                    }
                    // Cold indices are assigned only after a successful
                    // build so a broken session never corrupts the
                    // batched-solve index set.
                    if batched && rebuilt && !warm {
                        cold.push(items.len());
                    }
                    // (Re)install the probe every checkout: the engine may
                    // have last run on a different worker's ring.
                    engine.set_probe(enabled.then(|| Probe::new(hub.clone(), ring, id)));
                    items.push((id, commands, engine));
                }
                None => {
                    if enabled {
                        hub.record(ring, id, seq0, EventKind::Quarantine { cmd: kind0 });
                        hub.bump(Counter::SessionsQuarantined);
                        hub.capture_error();
                    }
                    broken.push((id, commands));
                }
            }
        }
        let (mut finished, store_errors, mut consumed) =
            parallel::with_threads(inner_threads, || {
                // Batched pass: one rank_many over the cold engines' matrices,
                // results seeded so the queued ranking commands hit the cache.
                // A failed slot just falls through to the per-command solve
                // (which reports the error to its own caller).
                if !cold.is_empty() {
                    let solver = engine_opts.solver.build(engine_opts.solver_opts);
                    let matrices: Vec<&ResponseMatrix> =
                        cold.iter().map(|&i| items[i].2.matrix()).collect();
                    let solved = rank_many(solver.as_ranker(), &matrices);
                    for (&i, result) in cold.iter().zip(solved) {
                        if let Ok(ranking) = result {
                            items[i].2.seed_solution(ranking);
                        }
                    }
                }
                let mut finished: Vec<(SessionId, Outcome, Vec<Sender<()>>)> =
                    Vec::with_capacity(items.len());
                let mut store_errors = 0u64;
                let mut consumed = 0u64;
                for (id, commands, mut engine) in items {
                    consumed += commands.len() as u64;
                    let mut close = false;
                    let mut settles: Vec<Sender<()>> = Vec::with_capacity(commands.len());
                    let mut panicked = false;
                    let mut iter = commands.into_iter();
                    for q in iter.by_ref() {
                        let Queued {
                            cmd,
                            deadline,
                            settle,
                            seq,
                            at_ns,
                        } = q;
                        if close {
                            // Ordered after a Close in the same batch: the
                            // session is already logically gone.
                            cmd.reject(ServerError::UnknownSession(id));
                            continue;
                        }
                        let kind = cmd.kind();
                        // Deadline check at dequeue: a command nobody is
                        // waiting for anymore is dropped, not executed —
                        // under overload this converts queue debt into fast
                        // failures instead of late useless solves.
                        if deadline.expired() {
                            if enabled {
                                hub.record(
                                    ring,
                                    id,
                                    seq,
                                    EventKind::Expired {
                                        cmd: kind,
                                        late_ns: deadline.late_ns(),
                                    },
                                );
                                hub.bump(Counter::CommandsExpired);
                                hub.bump(Counter::RepliesErr);
                            }
                            cmd.reject(ServerError::DeadlineExceeded);
                            continue;
                        }
                        if enabled {
                            let dwell_ns = hub.now_ns().saturating_sub(at_ns);
                            hub.record(
                                ring,
                                id,
                                seq,
                                EventKind::Dequeue {
                                    cmd: kind,
                                    dwell_ns,
                                },
                            );
                            hub.record_stage(Stage::QueueWait, dwell_ns);
                            engine.set_probe_seq(seq);
                        }
                        // Recording runs inside `execute`, before the reply is
                        // sent: once a client's `wait` returns, the command is
                        // already visible to `metrics()`/`trace_dump()`.
                        let record = |ok: bool| {
                            if enabled {
                                let e2e_ns = hub.now_ns().saturating_sub(at_ns);
                                hub.record(
                                    ring,
                                    id,
                                    seq,
                                    EventKind::Reply {
                                        cmd: kind,
                                        ok,
                                        e2e_ns,
                                    },
                                );
                                hub.record_stage(Stage::Command, e2e_ns);
                                hub.bump(if ok {
                                    Counter::RepliesOk
                                } else {
                                    Counter::RepliesErr
                                });
                                if !ok {
                                    hub.capture_error();
                                }
                            }
                        };
                        // The panic guard: an unwinding command must not take
                        // the worker (and every other session's mailbox) down
                        // with it. The engine may be mid-mutation — quarantine
                        // the session, never reuse the engine.
                        let guarded = std::panic::catch_unwind(AssertUnwindSafe(|| {
                            cmd.execute(
                                id,
                                &mut engine,
                                store.as_deref(),
                                &mut store_errors,
                                &mut close,
                                mgr_stats,
                                &hub,
                                &record,
                            );
                        }));
                        match guarded {
                            Ok(()) => settles.push(settle),
                            Err(_) => {
                                if enabled {
                                    hub.record(ring, id, seq, EventKind::Quarantine { cmd: kind });
                                    hub.bump(Counter::SessionsQuarantined);
                                    hub.capture_error();
                                }
                                // Settle with the rest so wait_settled on the
                                // injecting command observes the quarantine.
                                settles.push(settle);
                                panicked = true;
                                break;
                            }
                        }
                    }
                    if panicked {
                        // Everything queued behind the panic fails fast.
                        for q in iter {
                            q.cmd.reject(ServerError::Quarantined(id));
                        }
                        // Salvage the log out of the poisoned engine — the
                        // committed prefix survives a mid-submit panic
                        // structurally valid. If even that unwinds, the store
                        // tier still holds the durable copy.
                        let salvage =
                            std::panic::catch_unwind(AssertUnwindSafe(move || engine.into_log()))
                                .ok();
                        finished.push((id, Outcome::Quarantine { salvage }, settles));
                    } else {
                        finished.push((
                            id,
                            Outcome::Done {
                                engine: Box::new(engine),
                                close,
                            },
                            settles,
                        ));
                    }
                }
                (finished, store_errors, consumed)
            });
        // Fold rehydration failures in as salvage-free quarantines; their
        // replies resolve here (outside the lock), their sessions
        // transition at check-in below.
        for (id, commands) in broken {
            consumed += commands.len() as u64;
            for q in commands {
                q.cmd.reject(ServerError::Quarantined(id));
            }
            finished.push((id, Outcome::Quarantine { salvage: None }, Vec::new()));
        }

        // Check back in.
        let mut st = shared.state.lock().expect("server state poisoned");
        if store_errors > 0 {
            st.mgr.note_store_errors(store_errors);
        }
        let mut dropped = 0u64;
        let mut notify = false;
        // Failed restores: the slot goes back to spilled with its warm
        // state and the drained commands fail with the store error.
        for (id, commands, warm, msg) in unloadable {
            st.mgr.abort_restore(id, warm);
            consumed += commands.len() as u64;
            let err = ServerError::from(SessionError::Store(msg));
            for q in commands {
                q.cmd.reject(err.clone());
            }
            if let Some(mailbox) = st.mailboxes.get_mut(&id) {
                mailbox.busy = false;
                if !mailbox.queue.is_empty() && !mailbox.enqueued {
                    mailbox.enqueued = true;
                    st.ready.push_back(id);
                    notify = true;
                }
            }
        }
        for (id, outcome, settles) in finished {
            match outcome {
                Outcome::Done { engine, close } => {
                    if close {
                        st.mgr.drop_session(id);
                        if let Some(mailbox) = st.mailboxes.remove(&id) {
                            dropped += mailbox.queue.len() as u64;
                            for q in mailbox.queue {
                                q.cmd.reject(ServerError::UnknownSession(id));
                            }
                        }
                    } else {
                        st.mgr
                            .put_engine(id, *engine)
                            .expect("worker holds this session's checkout");
                        if let Some(mailbox) = st.mailboxes.get_mut(&id) {
                            mailbox.busy = false;
                            if !mailbox.queue.is_empty() && !mailbox.enqueued {
                                mailbox.enqueued = true;
                                st.ready.push_back(id);
                                notify = true;
                            }
                        }
                    }
                }
                Outcome::Quarantine { salvage } => {
                    st.mgr.quarantine_session(id, salvage);
                    if let Some(mailbox) = st.mailboxes.get_mut(&id) {
                        mailbox.busy = false;
                        dropped += mailbox.queue.len() as u64;
                        for q in mailbox.queue.drain(..) {
                            q.cmd.reject(ServerError::Quarantined(id));
                        }
                    }
                }
            }
            // The wait_settled barrier: the session's state transition
            // above is visible before any of its clients proceed.
            for settle in settles {
                let _ = settle.send(());
            }
        }
        st.inflight = st.inflight.saturating_sub(consumed + dropped);
        drop(st);
        if notify {
            shared.work.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hnd_core::{SolverKind, SolverOpts};

    fn server(workers: usize) -> SessionServer {
        SessionServer::new(ServerOpts {
            workers,
            engine: EngineOpts {
                solver: SolverKind::Power,
                solver_opts: SolverOpts {
                    orient: false,
                    ..Default::default()
                },
                ..Default::default()
            },
            ..Default::default()
        })
    }

    fn staircase(m: usize) -> Vec<(usize, usize, Option<u16>)> {
        (0..m)
            .flat_map(|j| (0..m - 1).map(move |i| (j, i, Some(u16::from(j > i)))))
            .collect()
    }

    #[test]
    fn submit_then_rank_roundtrip() {
        let srv = server(2);
        let id = srv.create_session(6, 5, &[2; 5]).unwrap();
        let version = srv.submit(id, staircase(6)).wait().unwrap();
        assert_eq!(version, 30);
        let ranking = srv.ranking(id).wait().unwrap();
        assert_eq!(ranking.len(), 6);
    }

    #[test]
    fn pipelined_commands_keep_fifo_order_per_session() {
        let srv = server(4);
        let id = srv.create_session(5, 4, &[2; 4]).unwrap();
        // Enqueue a pipeline without waiting: versions must be monotone.
        let r1 = srv.submit(id, vec![(0, 0, Some(0))]);
        let r2 = srv.submit(id, vec![(1, 0, Some(1))]);
        let rank = srv.ranking(id);
        let r3 = srv.submit(id, vec![(2, 1, Some(0))]);
        assert_eq!(r1.wait().unwrap(), 1);
        assert_eq!(r2.wait().unwrap(), 2);
        assert_eq!(rank.wait().unwrap().len(), 5);
        assert_eq!(r3.wait().unwrap(), 3);
    }

    #[test]
    fn unknown_and_closed_sessions_error() {
        let srv = server(2);
        assert_eq!(
            srv.ranking(99).wait().unwrap_err(),
            ServerError::UnknownSession(99)
        );
        let id = srv.create_session(4, 3, &[2; 3]).unwrap();
        srv.close_session(id).wait().unwrap();
        assert_eq!(
            srv.submit(id, vec![(0, 0, Some(0))]).wait().unwrap_err(),
            ServerError::UnknownSession(id)
        );
        assert!(srv.is_empty());
    }

    #[test]
    fn catch_up_resyncs_a_stale_client() {
        let srv = server(2);
        let id = srv.create_session(5, 4, &[3; 4]).unwrap();
        srv.submit(id, staircase(5)).wait().unwrap();
        // Client caches the version-20 state.
        let cached = srv.session_log(id).wait().unwrap();
        let mut client_matrix = cached.to_matrix();
        // The session moves on (including an overwrite of an old answer).
        srv.submit(id, vec![(0, 0, Some(2)), (1, 2, Some(1)), (0, 0, Some(1))])
            .wait()
            .unwrap();
        let delta = srv.catch_up(id, cached.version()).wait().unwrap();
        assert!(delta.len() <= 2, "compacted: at most one edit per cell");
        client_matrix.apply_delta(&delta).unwrap();
        assert_eq!(
            client_matrix,
            srv.session_log(id).wait().unwrap().to_matrix()
        );
    }

    #[test]
    fn log_reads_on_evicted_sessions_skip_rehydration() {
        let srv = SessionServer::new(ServerOpts {
            workers: 2,
            idle_threshold: Some(2),
            engine: EngineOpts {
                solver: SolverKind::Power,
                solver_opts: SolverOpts {
                    orient: false,
                    ..Default::default()
                },
                ..Default::default()
            },
            ..Default::default()
        });
        let quiet = srv.create_session(5, 4, &[2; 4]).unwrap();
        let loud = srv.create_session(5, 4, &[2; 4]).unwrap();
        srv.submit(quiet, staircase(5)).wait().unwrap();
        let head = srv.ranking(quiet).wait().unwrap();
        // Reply::wait returns when a command *executes*, before its worker
        // checks the engine back in — so the quiet session's last-touch
        // (stamped at check-in) can land mid-way through this traffic.
        // Keep the loud session ticking until the idle sweep catches the
        // quiet one; the bound only trips on a real eviction bug.
        let mut round = 0u16;
        while !srv.is_evicted(quiet) {
            assert!(round < 64, "quiet session never evicted");
            srv.submit(loud, vec![(0, 0, Some(round % 2))])
                .wait()
                .unwrap();
            round += 1;
        }
        assert!(srv.is_evicted(quiet));
        // (the loud session may itself have evicted+rehydrated during
        // setup with this aggressive threshold — baseline against that)
        let base = srv.manager_stats().rehydrations;

        // catch_up and session_log answer from the durable log without
        // waking the engine back up…
        let delta = srv.catch_up(quiet, 0).wait().unwrap();
        assert_eq!(delta.to_version, 20);
        assert_eq!(srv.session_log(quiet).wait().unwrap().version(), 20);
        assert!(srv.is_evicted(quiet), "log reads must not rehydrate");
        assert_eq!(srv.manager_stats().rehydrations, base);

        // …while an actual ranking read rehydrates as before.
        let after = srv.ranking(quiet).wait().unwrap();
        assert!(!srv.is_evicted(quiet));
        assert_eq!(srv.manager_stats().rehydrations, base + 1);
        assert_eq!(head.len(), after.len());
    }

    #[test]
    fn expired_deadline_drops_at_dequeue() {
        let srv = server(1);
        let id = srv.create_session(5, 4, &[2; 4]).unwrap();
        // A deadline already in the past: the worker must drop it unserved.
        let past = Deadline::at(Instant::now() - Duration::from_millis(5));
        let late = srv.with_deadline(past).ranking(id);
        assert_eq!(late.wait().unwrap_err(), ServerError::DeadlineExceeded);
        // The session itself is unharmed…
        srv.submit(id, staircase(5)).wait().unwrap();
        assert_eq!(srv.ranking(id).wait().unwrap().len(), 5);
        // …and Deadline::NONE never expires.
        assert!(!Deadline::NONE.expired());
    }

    #[test]
    fn wait_timeout_resolves_or_times_out() {
        let srv = server(2);
        let id = srv.create_session(4, 3, &[2; 3]).unwrap();
        let reply = srv.submit(id, vec![(0, 0, Some(0))]);
        // The command resolves within a generous bounded wait…
        let mut out = None;
        for _ in 0..200 {
            out = reply.wait_timeout(Duration::from_millis(50));
            if out.is_some() {
                break;
            }
        }
        assert_eq!(out.unwrap().unwrap(), 1);
        // …and an instant timeout on a never-resolving reply returns None.
        let (_tx, _settle, pending) = Reply::<u64>::pair();
        assert!(pending.wait_timeout(Duration::from_millis(1)).is_none());
    }

    #[test]
    fn mailbox_cap_sheds_with_retry_hint() {
        // One worker and a cap-1 mailbox: a deep pipeline must shed.
        let srv = SessionServer::new(ServerOpts {
            workers: 1,
            mailbox_cap: 1,
            engine: EngineOpts {
                solver: SolverKind::Power,
                solver_opts: SolverOpts {
                    orient: false,
                    ..Default::default()
                },
                ..Default::default()
            },
            ..Default::default()
        });
        let id = srv.create_session(5, 4, &[2; 4]).unwrap();
        let replies: Vec<Reply<u64>> = (0..64)
            .map(|k| srv.submit(id, vec![(k % 5, k % 4, Some(0))]))
            .collect();
        let mut shed = 0;
        for reply in replies {
            match reply.wait() {
                Ok(_) => {}
                Err(ServerError::Overloaded { retry_after_ms }) => {
                    assert!((1..=10_000).contains(&retry_after_ms));
                    shed += 1;
                }
                Err(other) => panic!("unexpected error: {other}"),
            }
        }
        assert!(shed > 0, "cap-1 mailbox under a 64-deep pipeline must shed");
        // Close is exempt from admission control.
        srv.close_session(id).wait().unwrap();
    }

    #[test]
    fn panic_quarantines_only_its_session() {
        let srv = server(2);
        let healthy = srv.create_session(6, 5, &[2; 5]).unwrap();
        let doomed = srv.create_session(6, 5, &[2; 5]).unwrap();
        srv.submit(healthy, staircase(6)).wait().unwrap();
        srv.submit(doomed, staircase(6)).wait().unwrap();
        let before = srv.ranking(healthy).wait().unwrap();

        // Panic mid-command: the injecting reply's channel dies with the
        // unwind; wait_settled returns only after the quarantine landed.
        assert_eq!(
            srv.inject_panic(doomed).wait_settled().unwrap_err(),
            ServerError::Terminated
        );
        assert!(srv.is_quarantined(doomed));
        assert_eq!(
            srv.ranking(doomed).wait().unwrap_err(),
            ServerError::Quarantined(doomed)
        );
        assert_eq!(srv.manager_stats().quarantines, 1);

        // The healthy session is bit-identical to before the panic.
        let after = srv.ranking(healthy).wait().unwrap();
        assert_eq!(before.scores, after.scores);

        // Revive from the salvaged log: full state back, serving again.
        let version = srv.revive_session(doomed).unwrap();
        assert_eq!(version, 30);
        assert!(!srv.is_quarantined(doomed));
        assert_eq!(srv.ranking(doomed).wait().unwrap().len(), 6);
        assert_eq!(srv.manager_stats().revivals, 1);
    }

    #[test]
    fn wait_settled_observes_check_in() {
        let srv = SessionServer::new(ServerOpts {
            workers: 1,
            idle_threshold: Some(1),
            engine: EngineOpts {
                solver: SolverKind::Power,
                solver_opts: SolverOpts {
                    orient: false,
                    ..Default::default()
                },
                ..Default::default()
            },
            ..Default::default()
        });
        let idle = srv.create_session(5, 4, &[2; 4]).unwrap();
        let busy = srv.create_session(5, 4, &[2; 4]).unwrap();
        // After wait_settled the engine is back in the manager — not
        // CheckedOut — so once the clock advances past the threshold an
        // explicit sweep evicts it deterministically (a plain `wait`
        // races the check-in here and would make this assertion flaky).
        srv.submit(idle, staircase(5)).wait_settled().unwrap();
        srv.submit(busy, vec![(0, 0, Some(0))])
            .wait_settled()
            .unwrap();
        // (The amortized sweep at the second check-in may beat the
        // explicit call to it — either way the idle session must be out.)
        let evicted = srv.evict_idle();
        assert!(
            evicted.contains(&idle) || srv.is_evicted(idle),
            "settled session must be evictable"
        );
    }

    #[test]
    fn many_sessions_proceed_in_parallel() {
        let srv = server(4);
        let ids: Vec<SessionId> = (0..8)
            .map(|k| {
                let id = srv.create_session(6 + k, 5, &[2; 5]).unwrap();
                srv.submit(id, staircase(6 + k));
                id
            })
            .collect();
        let replies: Vec<Reply<Ranking>> = ids.iter().map(|&id| srv.ranking(id)).collect();
        for (k, reply) in replies.into_iter().enumerate() {
            assert_eq!(reply.wait().unwrap().len(), 6 + k);
        }
    }
}
