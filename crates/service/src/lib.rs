#![warn(missing_docs)]

//! # hnd-service
//!
//! The incremental ranking engine and warm-start serving layer: the
//! production face of the HITSnDIFFS reproduction for traffic where
//! responses arrive as a **stream of edits** rather than finished
//! matrices.
//!
//! ## Why incremental
//!
//! The paper's pipeline recomputes the second eigenvector of the update
//! matrix from scratch per response matrix: build the one-hot pattern
//! (`O(nnz)` sort-and-mirror), then iterate to convergence (tens of
//! `O(mn)` passes). Under serving traffic both costs are avoidable:
//!
//! * **The pattern barely changes.** A batch of k answers touches k rows
//!   and k columns of `C`. `hnd_response::ResponseOps::apply_delta`
//!   patches the slack-capacity CSR/CSC pattern and its degree scalings in
//!   `O(nnz(delta))` (`hnd_linalg::BinaryCsr::apply_delta`).
//! * **The spectrum barely moves.** Power/Arnoldi/Lanczos iterations
//!   restarted from the previous eigenpair (`hnd_core::SolveState`)
//!   converge in a handful of steps — spectral state is an excellent warm
//!   start under small perturbations.
//!
//! ## Architecture
//!
//! ```text
//!   clients (any thread)
//!        │  submit / ranking / catch_up …
//!        ▼
//!   SessionServer ── worker pool (HND_THREADS convention) draining
//!        │           per-session mailboxes: FIFO per session, sessions
//!        │           in parallel, each session single-writer (engine
//!        │           checkout) ── Reply<V> back to the caller
//!        ▼
//!   SessionManager (fleet: idle sessions evict to their durable logs
//!        │           and lazily rehydrate on touch; warm sessions
//!        │           refresh incrementally, cold ones batch through
//!        ▼           rank_many)
//!   RankingEngine ──────▶ Ranking
//!        │  kernel backend, auto-selected per EngineOpts::shard_plan:
//!        │    · ResponseOps (single-shard fast path, in-place patched)
//!        │    · hnd_shard::ShardedOps (huge sessions: user-range shards,
//!        │      shard-parallel kernels, per-shard delta routing,
//!        │      skew-triggered re-splits — results ≡ single ≤1e-12)
//!        │  Box<dyn SpectralSolver> (unified family)
//!        │  WarmStartCache (version-keyed LRU of rankings + states)
//!        ▲
//!   ResponseLog ──delta──▶ (versioned edit ledger: the durable state;
//!                           compact_range serves one-delta client
//!                           catch-up across any version span)
//! ```
//!
//! Every solve is keyed by the [`ResponseLog`](hnd_response::ResponseLog)
//! **version** (one monotone counter per committed edit), so repeat reads
//! are cache hits, deltas compose exactly (enforced by proptests against
//! full rebuilds), and a version mismatch can always fall back to a cold
//! rebuild without serving anything stale.
//!
//! ## Concurrency model
//!
//! [`SessionServer`] is the thread-safe front-end: every session owns a
//! FIFO **mailbox**, a scoped pool of workers (sized by the `HND_THREADS`
//! convention of [`hnd_linalg::parallel`]) drains ready mailboxes, and a
//! worker processes a session only while holding its engine *checked out*
//! of the [`SessionManager`] — per-session single-writer, cross-session
//! parallel, no lock held during a solve. Commands return [`Reply`]
//! handles immediately; waiting is the client's choice, so batch clients
//! pipeline. The concurrency battery (`tests/concurrency_stress.rs`)
//! pins the model down: under seeded multi-threaded storms every
//! session's final ranking matches a serial replay of its own log.
//!
//! ## Lifecycle: eviction, rehydration, catch-up — and the durable tier
//!
//! The durable state of a session is its log, nothing else. Idle sessions
//! (logical-clock threshold, see [`SessionManager::set_idle_threshold`])
//! are torn down to that log plus an in-memory [`WarmState`] (the last
//! solve's vector) and transparently rebuilt on the next touch, whose
//! first solve warm-starts; reconnecting clients resync from any cached version with one compacted
//! delta ([`ResponseLog::compact_range`](hnd_response::ResponseLog::compact_range)
//! via [`SessionServer::catch_up`]).
//!
//! With a [`SessionStore`] attached ([`SessionServer::with_store`] /
//! [`SessionManager::with_store`]) the log itself leaves memory: commits
//! stream into per-session crash-safe WALs (group-commit fsync batching),
//! idle evictions **spill** — binary snapshot + flushed WAL on disk, only
//! the warm state resident — and the next touch **restores** by snapshot
//! read + WAL-tail replay. A fresh process over the same store directory adopts
//! every session where the last one left off, and `catch_up` from a
//! version older than the in-memory history serves off the WAL instead of
//! failing. `tests/failure_injection.rs` pins restart and catch-up
//! equivalence; the crash/corruption battery lives in `hnd-store` itself.
//!
//! ## Overload & fault resilience
//!
//! The server is load-shedding, deadline-aware, and panic-isolating:
//!
//! * **Admission control** — per-session mailboxes are bounded
//!   ([`ServerOpts::mailbox_cap`]) and a global in-flight budget
//!   ([`ServerOpts::max_inflight`]) caps admitted-unfinished commands.
//!   Rejected commands fail *fast* with
//!   [`ServerError::Overloaded`] carrying a `retry_after_ms` hint derived
//!   from the live command-stage latency histogram. Shedding is
//!   priority-aware: mutating and bulk commands shed first (at ⅞ of the
//!   budget), cheap reads shed only at the hard cap, and `Close` is never
//!   shed.
//! * **Deadlines** — any command can carry a [`Deadline`] (see
//!   [`SessionServer::with_deadline`]); expired commands are dropped at
//!   dequeue with [`ServerError::DeadlineExceeded`] instead of wasting a
//!   solve, and [`Reply::wait_timeout`] bounds the client's wait.
//! * **Panic isolation** — a panic while a worker drives a session
//!   poisons *only that session*: its slot is quarantined (later commands
//!   get [`ServerError::Quarantined`]), its durable log is salvaged, all
//!   other sessions keep serving bit-identical results, and
//!   [`SessionServer::revive_session`] rebuilds the session from its log.
//! * **Chaos-tested durability** — the store layer accepts a
//!   deterministic seed-driven [`FaultPlan`] injecting transient / hard /
//!   torn faults per I/O class; transients are absorbed by bounded
//!   exponential backoff (retries counted in [`StoreStats`]). The chaos
//!   battery (`tests/resilience.rs`, `hnd-store/tests/chaos_proptests.rs`)
//!   proves every fault schedule ends bit-identical to a fault-free run or
//!   in counted, typed errors — never a hang, never silent loss.
//!
//! ## Quickstart
//!
//! ```
//! use hnd_service::{EngineOpts, RankingEngine};
//!
//! // A classroom of 4 students × 3 questions (2 options each).
//! let mut engine = RankingEngine::new(4, 3, &[2, 2, 2], EngineOpts::default()).unwrap();
//! engine.submit_responses([
//!     (0, 0, Some(0)), (1, 0, Some(0)), (2, 0, Some(1)), (3, 0, Some(1)),
//! ]).unwrap();
//! let before = engine.current_ranking().unwrap();
//!
//! // More answers trickle in: the next ranking is a delta-patch plus a
//! // warm-started solve, not a rebuild.
//! engine.submit_responses([(0, 1, Some(0)), (3, 1, Some(1))]).unwrap();
//! let after = engine.current_ranking().unwrap();
//! assert_eq!(before.len(), after.len());
//! assert_eq!(engine.stats().rebuilds, 0);
//! ```

pub mod cache;
pub mod engine;
pub mod server;
pub mod session;

pub use cache::{CachedSolve, WarmStartCache};
pub use engine::{EngineOpts, EngineStats, QueryTier, RankingEngine, WarmState, COARSE_MAX_ITER};
pub use server::{
    Deadline, DeadlineClient, Reply, ServerError, ServerOpts, ServerSnapshot, SessionServer,
};
pub use session::{Checkout, Dormant, ManagerStats, SessionError, SessionId, SessionManager};

// Re-export the building blocks callers configure the service with.
pub use hnd_core::{SolveOutcome, SolveState, SolverKind, SolverOpts, SpectralSolver, Target};
pub use hnd_plan::{PlanDecision, PlanMode, Planner};
pub use hnd_response::{
    RankError, Ranking, ResponseDelta, ResponseEdit, ResponseError, ResponseLog, ResponseMatrix,
    VersionedMatrix,
};
pub use hnd_shard::ShardPlan;
pub use hnd_store::{
    FaultKind, FaultOp, FaultPlan, FlushPolicy, RecoveryReport, RecoverySource, SessionStore,
    StoreError, StoreOpts, StoreStats, MAX_TRANSIENT_RETRIES,
};
pub use hnd_telemetry::{
    CheckoutKind, CommandKind, EventKind, HistogramSummary, MetricsSnapshot, SkipRefusal,
    StageSummary, TraceDump, TraceEvent, WorkerTrace,
};
