//! Multi-session serving: many independent rosters behind one manager.
//!
//! A production deployment ranks many cohorts at once (one per classroom,
//! campaign, …). [`SessionManager`] owns one slot per session and adds the
//! batched maintenance pass [`SessionManager::refresh_all`]: sessions with
//! cached spectral state refresh through their incremental delta+warm path
//! (already a handful of iterations each), while cold sessions — fresh
//! bulk loads, slack-exhausted rebuild points — are batch-solved *in
//! parallel across sessions* through [`hnd_response::rank_many`] and their
//! caches seeded from the returned scores (valid warm states: every solver
//! converges up to sign).
//!
//! ## Idle eviction and rehydration
//!
//! A fleet sized for millions of users is mostly idle at any instant, and
//! a live [`RankingEngine`] is the expensive representation of a session:
//! the slack-capacity CSR/CSC pattern plus a warm-start cache of `O(m)`
//! state vectors. The durable state is only the [`ResponseLog`]. With an
//! [idle threshold](SessionManager::set_idle_threshold) configured, a
//! session untouched for that many manager operations is **evicted** — its
//! engine is torn down to the log ([`RankingEngine::into_log`]) — and the
//! next touch (submit, ranking read, checkout) **rehydrates** it
//! transparently: the engine rebuilds from the log. Eviction keeps the
//! torn-down engine's [`WarmState`] in the slot — the last exact solve's
//! state (plus newer approximate scores), never written to disk — so the
//! rebuilt engine's first solve warm-starts from the very vector a
//! never-evicted engine would, and serves the same scores
//! (`tests/warm_restore.rs`). The log stays the complete state: a session
//! adopted by a fresh process, or revived from quarantine, rehydrates
//! without warm state and its first solve runs cold, to the same ranking
//! up to solver tolerance (`tests/failure_injection.rs`).
//!
//! Time is a **logical clock** (one tick per manager operation), not wall
//! time: eviction decisions are deterministic and testable, and a server
//! wrapping the manager can map ticks to wall time however it likes.
//!
//! ## Engine checkout (the concurrent server's hook)
//!
//! [`SessionManager::take_engine`] / [`SessionManager::put_engine`] move a
//! session's engine out of and back into its slot. While checked out the
//! slot answers "busy": the session cannot be evicted, re-checked-out, or
//! served through the synchronous paths. [`crate::SessionServer`] builds
//! its per-session single-writer guarantee on exactly this — a worker
//! checks the engine out, processes the session's mailbox without holding
//! any global lock, and checks it back in. [`SessionManager::checkout`] is
//! the lock-friendly form: for an evicted session it hands out what the
//! rebuild needs ([`Checkout`]) and leaves the `O(nnz)` work — the store
//! load, [`RankingEngine::rehydrate`] — to the caller.

use crate::engine::{EngineOpts, EngineStats, RankingEngine, WarmState};
use hnd_core::SpectralSolver;
use hnd_response::{rank_many, RankError, Ranking, ResponseError, ResponseLog, ResponseMatrix};
use hnd_store::SessionStore;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Identifies a session within a [`SessionManager`].
pub type SessionId = u64;

/// Typed errors from [`SessionManager`]'s public surface — the manager
/// never panics on id-lifecycle mistakes; callers get one of these.
#[derive(Debug, Clone, PartialEq)]
pub enum SessionError {
    /// No session with this id exists.
    Unknown(SessionId),
    /// The session's engine is checked out to a worker; the synchronous
    /// paths cannot serve it and a second checkout is rejected.
    CheckedOut(SessionId),
    /// The session was quarantined after a panic; only
    /// [`SessionManager::revive_session`] can bring it back.
    Quarantined(SessionId),
    /// [`SessionManager::revive_session`] on a session that is not
    /// quarantined.
    NotQuarantined(SessionId),
    /// [`SessionManager::put_engine`] without a matching checkout — a
    /// caller bug that would silently fork session state.
    NotCheckedOut(SessionId),
    /// The session's log rejected an edit batch.
    Response(ResponseError),
    /// A solve failed.
    Rank(RankError),
    /// The durable store failed (restore, revive).
    Store(String),
}

impl std::fmt::Display for SessionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SessionError::Unknown(id) => write!(f, "unknown session {id}"),
            SessionError::CheckedOut(id) => write!(f, "session {id} is checked out"),
            SessionError::Quarantined(id) => write!(f, "session {id} is quarantined"),
            SessionError::NotQuarantined(id) => write!(f, "session {id} is not quarantined"),
            SessionError::NotCheckedOut(id) => {
                write!(
                    f,
                    "put_engine without a matching take_engine for session {id}"
                )
            }
            SessionError::Response(e) => write!(f, "{e}"),
            SessionError::Rank(e) => write!(f, "{e}"),
            SessionError::Store(msg) => write!(f, "store failure: {msg}"),
        }
    }
}

impl std::error::Error for SessionError {}

impl From<ResponseError> for SessionError {
    fn from(e: ResponseError) -> Self {
        SessionError::Response(e)
    }
}

impl From<RankError> for SessionError {
    fn from(e: RankError) -> Self {
        SessionError::Rank(e)
    }
}

/// One session's representation: live (engine resident), evicted (durable
/// log plus warm state), spilled, or checked out to a worker.
enum SessionState {
    /// Engine resident in the slot; the synchronous paths serve from it.
    /// Boxed so a mostly-evicted fleet pays log-sized slots, not
    /// engine-sized ones.
    Live(Box<RankingEngine>),
    /// Torn down to the durable log and the warm state; any touch
    /// rehydrates.
    Evicted(Dormant),
    /// Spilled to the attached [`SessionStore`]: the durable snapshot +
    /// WAL pair is the session, and memory keeps only the engine's
    /// [`WarmState`] (`None` for a session adopted from the store). The
    /// next touch loads the log back ([`SessionStore::load`]) and rebuilds
    /// the engine warm.
    Spilled(Option<WarmState>),
    /// Engine temporarily owned by a caller of
    /// [`SessionManager::take_engine`].
    CheckedOut,
    /// Poisoned by a panic during command execution. The durable state is
    /// preserved — `log` holds the salvaged ledger when the store could
    /// not absorb it (or none is attached); otherwise the store's
    /// snapshot + WAL pair is the session. Every touch is refused until
    /// [`SessionManager::revive_session`].
    Quarantined(Option<Box<ResponseLog>>),
}

struct SessionSlot {
    state: SessionState,
    /// Logical-clock reading of the last touch (creation, submit, read,
    /// checkout, check-in).
    last_touch: u64,
}

/// An evicted session's in-memory remains: its durable log and the warm
/// state its torn-down engine left behind.
pub struct Dormant {
    /// The complete durable ledger.
    pub log: ResponseLog,
    /// The next solve's warm start (`None` after a quarantine revive).
    pub warm: Option<WarmState>,
}

/// What [`SessionManager::checkout`] hands a worker: a live engine, or what
/// an evicted session's engine is rebuilt from — work the worker does
/// itself, outside any shared lock.
pub enum Checkout {
    /// The resident engine, ready to serve (boxed: the enum is moved
    /// around by value and the other variants are an order of magnitude
    /// smaller).
    Live(Box<RankingEngine>),
    /// An in-memory eviction; build with [`RankingEngine::rehydrate`]
    /// (no WAL replay) and [`SessionManager::engine_opts`].
    Rehydrate(Dormant),
    /// A spilled session: load its log from the attached store
    /// ([`SessionStore::load`]), then build like [`Checkout::Rehydrate`]
    /// with the replayed WAL edit count. If the load fails, hand the warm
    /// state back through [`SessionManager::abort_restore`].
    Restore {
        /// The warm state kept in memory while the log was on disk.
        warm: Option<WarmState>,
    },
}

impl Checkout {
    /// `true` for a rebuild that carries no warm state: its first solve
    /// runs cold (what the server's cold batch collects).
    pub fn is_cold(&self) -> bool {
        matches!(
            self,
            Checkout::Rehydrate(Dormant { warm: None, .. }) | Checkout::Restore { warm: None }
        )
    }
}

/// Counters describing fleet-level lifecycle events.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ManagerStats {
    /// Sessions torn down to their durable log by the idle policy (or
    /// [`SessionManager::evict_session`]).
    pub evictions: u64,
    /// Engines rebuilt from a log on the first touch after eviction
    /// (restores count here too — every restore ends in a rebuild).
    pub rehydrations: u64,
    /// Evictions that went all the way to disk: the log left memory for
    /// the attached [`SessionStore`] (WAL flushed, snapshot current).
    pub spills: u64,
    /// Sessions loaded back from the store — snapshot + WAL-tail replay —
    /// on the first touch after a spill.
    pub restores: u64,
    /// Rehydrations (in memory or from the store) that carried the
    /// torn-down engine's [`WarmState`], so the first solve after the
    /// rebuild warm-starts.
    pub warm_restores: u64,
    /// Store operations (register, sync, spill, restore) that failed.
    /// Durability is best-effort from the serving path's view: a failed
    /// spill keeps the log resident, a failed sync is retried by the next
    /// one, and every failure lands here instead of on a client.
    pub store_errors: u64,
    /// Sessions poisoned by a panic and moved to quarantine.
    pub quarantines: u64,
    /// Quarantined sessions successfully revived from durable state.
    pub revivals: u64,
}

/// Owns and refreshes a fleet of incremental ranking sessions.
pub struct SessionManager {
    opts: EngineOpts,
    /// Shared solver for the batched cold-refresh path (same configuration
    /// as every session's own solver).
    solver: Box<dyn SpectralSolver>,
    sessions: BTreeMap<SessionId, SessionSlot>,
    next_id: SessionId,
    /// Logical clock: one tick per manager operation.
    clock: u64,
    /// Evict sessions untouched for at least this many ticks (`None` =
    /// never evict).
    idle_threshold: Option<u64>,
    /// Clock reading of the last idle sweep (sweeps are strided — see
    /// [`Self::run_idle_policy`]).
    last_sweep: u64,
    stats: ManagerStats,
    /// Serving counters of engines that left the fleet (evicted, spilled,
    /// or closed) — so [`Self::aggregate_engine_stats`] reports lifetime
    /// totals, not just whatever happens to be resident right now.
    retired_stats: EngineStats,
    /// The durable tier, when attached: evictions spill to it (the log
    /// leaves memory entirely) and committed edits stream into its WALs
    /// so catch-up outlives in-memory history truncation.
    store: Option<Arc<SessionStore>>,
}

impl SessionManager {
    /// Creates a manager whose sessions all use `opts` (no idle eviction).
    pub fn new(opts: EngineOpts) -> Self {
        SessionManager {
            solver: opts.solver.build(opts.solver_opts),
            opts,
            sessions: BTreeMap::new(),
            next_id: 0,
            clock: 0,
            idle_threshold: None,
            last_sweep: 0,
            stats: ManagerStats::default(),
            retired_stats: EngineStats::default(),
            store: None,
        }
    }

    /// Creates a manager backed by a durable [`SessionStore`], adopting
    /// every session the store holds as a [spilled](SessionState::Spilled)
    /// slot — the restart path: a fresh process over the same store
    /// directory picks up exactly where the previous one crashed or shut
    /// down, ids preserved, and each adopted session rehydrates lazily on
    /// its first touch.
    pub fn with_store(opts: EngineOpts, store: Arc<SessionStore>) -> Self {
        let mut mgr = Self::new(opts);
        for id in store.session_ids() {
            mgr.sessions.insert(
                id,
                SessionSlot {
                    state: SessionState::Spilled(None),
                    last_touch: 0,
                },
            );
            mgr.next_id = mgr.next_id.max(id + 1);
        }
        mgr.store = Some(store);
        mgr
    }

    /// Attaches a durable store to a running manager: every resident
    /// session's log is shipped so later spills and catch-ups are
    /// incremental. Returns the number of edits shipped.
    pub fn attach_store(&mut self, store: Arc<SessionStore>) -> u64 {
        let mut shipped = 0;
        let mut errors = 0;
        for (&id, slot) in &self.sessions {
            let log = match &slot.state {
                SessionState::Live(engine) => engine.log(),
                SessionState::Evicted(dormant) => &dormant.log,
                // Spilled is impossible without a store; a checked-out
                // session syncs at its next commit.
                _ => continue,
            };
            match store.sync_from(id, log) {
                Ok(n) => shipped += n,
                Err(_) => errors += 1,
            }
        }
        self.stats.store_errors += errors;
        self.store = Some(store);
        shipped
    }

    /// The attached durable store, if any.
    pub fn store(&self) -> Option<&Arc<SessionStore>> {
        self.store.as_ref()
    }

    /// Every session id the manager knows, in ascending order.
    pub fn session_ids(&self) -> Vec<SessionId> {
        self.sessions.keys().copied().collect()
    }

    /// Number of sessions (live, evicted, or checked out).
    pub fn len(&self) -> usize {
        self.sessions.len()
    }

    /// `true` when no sessions exist.
    pub fn is_empty(&self) -> bool {
        self.sessions.is_empty()
    }

    /// Fleet lifecycle counters.
    pub fn stats(&self) -> ManagerStats {
        self.stats
    }

    /// Lifetime engine counters across the whole fleet: every live
    /// engine's stats summed with those of engines already retired
    /// (evicted, spilled, or closed). The engine-side half of the unified
    /// metrics snapshot.
    pub fn aggregate_engine_stats(&self) -> EngineStats {
        let mut total = self.retired_stats;
        for slot in self.sessions.values() {
            if let SessionState::Live(ref engine) = slot.state {
                total.absorb(&engine.stats());
            }
        }
        total
    }

    /// Configures the idle-eviction policy: sessions untouched for at
    /// least `threshold` manager operations are torn down to their durable
    /// log on the next maintenance opportunity (`None` disables eviction).
    pub fn set_idle_threshold(&mut self, threshold: Option<u64>) {
        self.idle_threshold = threshold;
    }

    /// The configured idle threshold in logical-clock ticks.
    pub fn idle_threshold(&self) -> Option<u64> {
        self.idle_threshold
    }

    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    /// Opens a session over an empty roster; returns its id.
    ///
    /// # Errors
    /// Rejects empty user/item sets and zero-option items.
    pub fn create_session(
        &mut self,
        n_users: usize,
        n_items: usize,
        options_per_item: &[u16],
    ) -> Result<SessionId, ResponseError> {
        let engine = RankingEngine::new(n_users, n_items, options_per_item, self.opts)?;
        Ok(self.install(engine))
    }

    /// Opens a session over a pre-filled log (bulk load).
    pub fn create_session_from_log(
        &mut self,
        log: ResponseLog,
    ) -> Result<SessionId, ResponseError> {
        let engine = RankingEngine::from_log(log, self.opts)?;
        Ok(self.install(engine))
    }

    fn install(&mut self, engine: RankingEngine) -> SessionId {
        let now = self.tick();
        let id = self.next_id;
        self.next_id += 1;
        if let Some(store) = &self.store {
            // Register up front so the WAL covers the session from version
            // zero (catch-up past any later truncation) and the first
            // spill is an append, not a bulk write.
            if store.register(id, engine.log()).is_err() {
                self.stats.store_errors += 1;
            }
        }
        self.sessions.insert(
            id,
            SessionSlot {
                state: SessionState::Live(Box::new(engine)),
                last_touch: now,
            },
        );
        id
    }

    /// Closes a session, returning whether it existed. A checked-out
    /// session is closed too: its engine is discarded at check-in. With a
    /// store attached the durable files go with it.
    pub fn drop_session(&mut self, id: SessionId) -> bool {
        let removed = self.sessions.remove(&id);
        let existed = removed.is_some();
        if let Some(SessionSlot {
            state: SessionState::Live(engine),
            ..
        }) = removed
        {
            self.retired_stats.absorb(&engine.stats());
        }
        if existed {
            if let Some(store) = &self.store {
                if store.remove(id).is_err() {
                    self.stats.store_errors += 1;
                }
            }
        }
        existed
    }

    /// Borrows a session's engine when it is resident (`None` for unknown,
    /// evicted, or checked-out sessions — use [`Self::session_log`] for
    /// state that survives eviction).
    pub fn session(&self, id: SessionId) -> Option<&RankingEngine> {
        match self.sessions.get(&id)?.state {
            SessionState::Live(ref engine) => Some(engine),
            _ => None,
        }
    }

    /// `true` when the session exists and currently holds no engine (its
    /// durable log — in memory or on disk — is its only state).
    pub fn is_evicted(&self, id: SessionId) -> bool {
        matches!(
            self.sessions.get(&id),
            Some(SessionSlot {
                state: SessionState::Evicted(_) | SessionState::Spilled(_),
                ..
            })
        )
    }

    /// `true` when the session's log lives only in the attached store's
    /// snapshot + WAL pair (memory keeps at most its warm state).
    pub fn is_spilled(&self, id: SessionId) -> bool {
        matches!(
            self.sessions.get(&id),
            Some(SessionSlot {
                state: SessionState::Spilled(_),
                ..
            })
        )
    }

    /// `true` when the session is evicted or spilled without warm state:
    /// the first solve after its rebuild runs cold.
    pub fn is_cold_evicted(&self, id: SessionId) -> bool {
        matches!(
            self.sessions.get(&id),
            Some(SessionSlot {
                state: SessionState::Evicted(Dormant { warm: None, .. })
                    | SessionState::Spilled(None),
                ..
            })
        )
    }

    /// Borrows the durable log of an *evicted* session (`None` otherwise):
    /// the read-only fast path for log queries (catch-up deltas, snapshot
    /// export) that must not trigger an engine rehydration.
    pub fn evicted_log(&self, id: SessionId) -> Option<&ResponseLog> {
        match self.sessions.get(&id)?.state {
            SessionState::Evicted(ref dormant) => Some(&dormant.log),
            _ => None,
        }
    }

    /// A clone of the session's versioned edit ledger — available for live
    /// *and* evicted sessions (`None` for unknown or checked-out ones).
    /// The serial-replay oracle of the concurrency tests reads this.
    pub fn session_log(&self, id: SessionId) -> Option<ResponseLog> {
        match self.sessions.get(&id)?.state {
            SessionState::Live(ref engine) => Some(engine.log().clone()),
            SessionState::Evicted(ref dormant) => Some(dormant.log.clone()),
            // Read straight off disk without waking the session up.
            SessionState::Spilled(_) => self
                .store
                .as_ref()
                .and_then(|s| s.load(id).ok())
                .map(|(log, _)| log),
            SessionState::CheckedOut => None,
            // Quarantine preserves the ledger: salvaged in memory, or on
            // disk behind the attached store.
            SessionState::Quarantined(ref log) => match log {
                Some(log) => Some((**log).clone()),
                None => self
                    .store
                    .as_ref()
                    .and_then(|s| s.load(id).ok())
                    .map(|(log, _)| log),
            },
        }
    }

    /// Commits a batch of responses to one session; returns its new
    /// version. Rehydrates an evicted session first.
    ///
    /// # Errors
    /// [`SessionError::Response`] when the log rejects the batch;
    /// [`SessionError::Unknown`] / [`SessionError::CheckedOut`] /
    /// [`SessionError::Quarantined`] on id-lifecycle misses.
    pub fn submit_responses(
        &mut self,
        id: SessionId,
        responses: impl IntoIterator<Item = (usize, usize, Option<u16>)>,
    ) -> Result<u64, SessionError> {
        let result = self
            .live_engine_mut(id)?
            .submit_responses(responses)
            .map_err(SessionError::from);
        if result.is_ok() {
            self.sync_to_store(id);
        }
        self.run_idle_policy();
        result
    }

    /// Ships the session's committed tail to the attached store (no-op
    /// without one). Failures count in [`ManagerStats::store_errors`] —
    /// the commit already succeeded in memory, so the client never sees
    /// them; the next sync retries the whole gap.
    fn sync_to_store(&mut self, id: SessionId) {
        let Some(store) = self.store.clone() else {
            return;
        };
        let Some(slot) = self.sessions.get(&id) else {
            return;
        };
        let SessionState::Live(ref engine) = slot.state else {
            return;
        };
        if store.sync_from(id, engine.log()).is_err() {
            self.stats.store_errors += 1;
        }
    }

    /// The current ranking of one session (cache hit, or incremental
    /// delta+warm solve). Rehydrates an evicted session first (that solve
    /// warm-starts from the carried [`WarmState`] when there is one).
    pub fn current_ranking(&mut self, id: SessionId) -> Result<Ranking, SessionError> {
        let result = self
            .live_engine_mut(id)?
            .current_ranking()
            .map_err(SessionError::from);
        self.run_idle_policy();
        result
    }

    /// Rehydrates (if needed) and mutably borrows the engine of `id`,
    /// bumping its touch time.
    fn live_engine_mut(&mut self, id: SessionId) -> Result<&mut RankingEngine, SessionError> {
        let now = self.tick();
        self.live_engine_mut_at(id, now)
    }

    /// [`Self::live_engine_mut`] at an explicit clock reading — used by
    /// [`Self::refresh_all`], which is *one* manager operation no matter
    /// how many sessions it refreshes (per-session ticks would inflate the
    /// clock and let the trailing idle sweep evict sessions the pass
    /// itself just refreshed).
    fn live_engine_mut_at(
        &mut self,
        id: SessionId,
        now: u64,
    ) -> Result<&mut RankingEngine, SessionError> {
        let slot = self
            .sessions
            .get_mut(&id)
            .ok_or(SessionError::Unknown(id))?;
        if matches!(slot.state, SessionState::Live(_)) {
            slot.last_touch = now;
        } else {
            // Unrecoverable durable state degrades to a typed error; the
            // slot stays spilled so a later repair of the files can still
            // revive the session.
            let checkout = self.checkout_at(id, now)?;
            let engine = self.build_engine(id, checkout)?;
            self.sessions.get_mut(&id).expect("slot exists").state =
                SessionState::Live(Box::new(engine));
        }
        match self.sessions.get_mut(&id).expect("slot exists").state {
            SessionState::Live(ref mut engine) => Ok(engine),
            _ => unreachable!("slot was made live above"),
        }
    }

    /// Turns a checkout into an engine on the calling thread: the store
    /// load of a [`Checkout::Restore`] (a failure goes through
    /// [`Self::abort_restore`]), then [`RankingEngine::rehydrate`].
    fn build_engine(
        &mut self,
        id: SessionId,
        checkout: Checkout,
    ) -> Result<RankingEngine, SessionError> {
        let (log, replayed, warm) = match checkout {
            Checkout::Live(engine) => return Ok(*engine),
            Checkout::Rehydrate(Dormant { log, warm }) => (log, 0, warm),
            Checkout::Restore { warm } => {
                let loaded = self
                    .store
                    .as_ref()
                    .expect("spilled session without an attached store")
                    .load(id);
                match loaded {
                    Ok((log, report)) => (log, report.replayed_edits, warm),
                    Err(e) => {
                        self.abort_restore(id, warm);
                        return Err(SessionError::Store(e.to_string()));
                    }
                }
            }
        };
        Ok(RankingEngine::rehydrate(log, self.opts, replayed, warm)
            .expect("rehydration from a previously valid log"))
    }

    /// Moves a session's engine out of its slot (rehydrating first if
    /// evicted), leaving the slot "checked out": no eviction, no second
    /// checkout, no synchronous serving until [`Self::put_engine`].
    ///
    /// # Errors
    /// [`SessionError::Unknown`], [`SessionError::CheckedOut`],
    /// [`SessionError::Quarantined`], or [`SessionError::Store`] when a
    /// spilled session's durable state cannot be loaded.
    pub fn take_engine(&mut self, id: SessionId) -> Result<RankingEngine, SessionError> {
        let checkout = self.checkout(id)?;
        self.build_engine(id, checkout)
    }

    /// The lock-friendly checkout: like [`Self::take_engine`] but hands an
    /// evicted session's rebuild inputs back instead of the engine, so a
    /// concurrent server can do the `O(nnz)` work — the store load of a
    /// spilled session and the engine build — **outside** its global lock
    /// (see [`Checkout`]; then [`Self::put_engine`] as usual). The
    /// rehydration is counted here: taking the checkout commits the caller
    /// to the rebuild, and [`Self::abort_restore`] withdraws a restore
    /// whose load failed.
    ///
    /// # Errors
    /// [`SessionError::Unknown`], [`SessionError::CheckedOut`], or
    /// [`SessionError::Quarantined`].
    pub fn checkout(&mut self, id: SessionId) -> Result<Checkout, SessionError> {
        let now = self.tick();
        self.checkout_at(id, now)
    }

    /// [`Self::checkout`] at an explicit clock reading.
    fn checkout_at(&mut self, id: SessionId, now: u64) -> Result<Checkout, SessionError> {
        let slot = self
            .sessions
            .get_mut(&id)
            .ok_or(SessionError::Unknown(id))?;
        if matches!(slot.state, SessionState::CheckedOut) {
            return Err(SessionError::CheckedOut(id));
        }
        if matches!(slot.state, SessionState::Quarantined(_)) {
            return Err(SessionError::Quarantined(id));
        }
        slot.last_touch = now;
        let checkout = match std::mem::replace(&mut slot.state, SessionState::CheckedOut) {
            SessionState::Live(engine) => return Ok(Checkout::Live(engine)),
            SessionState::Evicted(dormant) => Checkout::Rehydrate(dormant),
            SessionState::Spilled(warm) => {
                self.stats.restores += 1;
                Checkout::Restore { warm }
            }
            SessionState::CheckedOut | SessionState::Quarantined(_) => {
                unreachable!("rejected above")
            }
        };
        self.stats.rehydrations += 1;
        if !checkout.is_cold() {
            self.stats.warm_restores += 1;
        }
        Ok(checkout)
    }

    /// Hands back a [`Checkout::Restore`] whose store load failed: the
    /// slot returns to spilled with its warm state (a later repair of the
    /// files can still revive it), the counts taken at checkout are
    /// withdrawn, and the failure lands in [`ManagerStats::store_errors`].
    pub fn abort_restore(&mut self, id: SessionId, warm: Option<WarmState>) {
        self.stats.store_errors += 1;
        self.stats.rehydrations = self.stats.rehydrations.saturating_sub(1);
        self.stats.restores = self.stats.restores.saturating_sub(1);
        if warm.is_some() {
            self.stats.warm_restores = self.stats.warm_restores.saturating_sub(1);
        }
        if let Some(slot) = self.sessions.get_mut(&id) {
            if matches!(slot.state, SessionState::CheckedOut) {
                slot.state = SessionState::Spilled(warm);
            }
        }
    }

    /// Folds store failures observed outside the manager (the concurrent
    /// server's workers sync WALs while engines are checked out) into
    /// [`ManagerStats::store_errors`].
    pub fn note_store_errors(&mut self, n: u64) {
        self.stats.store_errors += n;
    }

    /// The engine configuration every session uses (what a
    /// [`Checkout`] caller rebuilds with).
    pub fn engine_opts(&self) -> EngineOpts {
        self.opts
    }

    /// Returns a checked-out engine to its slot. `Ok(false)` (engine
    /// dropped) when the session was closed in the meantime.
    ///
    /// # Errors
    /// [`SessionError::NotCheckedOut`] if the slot is not checked out —
    /// pairing a `put` with a missing `take` is a caller bug that would
    /// silently fork session state. The engine is dropped.
    pub fn put_engine(
        &mut self,
        id: SessionId,
        engine: RankingEngine,
    ) -> Result<bool, SessionError> {
        let now = self.tick();
        match self.sessions.get_mut(&id) {
            Some(slot) => {
                if !matches!(slot.state, SessionState::CheckedOut) {
                    return Err(SessionError::NotCheckedOut(id));
                }
                slot.state = SessionState::Live(Box::new(engine));
                slot.last_touch = now;
                self.run_idle_policy();
                Ok(true)
            }
            None => Ok(false),
        }
    }

    /// `true` when the session exists and is quarantined.
    pub fn is_quarantined(&self, id: SessionId) -> bool {
        matches!(
            self.sessions.get(&id),
            Some(SessionSlot {
                state: SessionState::Quarantined(_),
                ..
            })
        )
    }

    /// Moves a checked-out session to quarantine after a panic poisoned
    /// its engine. `salvage` is whatever committed ledger the caller
    /// could recover from the wreck (logs are edit-atomic, so a salvaged
    /// log is always structurally valid); with a store attached it is
    /// spilled so the durable tier holds the latest committed state, and
    /// kept in memory only if that spill fails. Returns `false` when the
    /// session is unknown or not checked out.
    pub fn quarantine_session(&mut self, id: SessionId, salvage: Option<ResponseLog>) -> bool {
        let store = self.store.clone();
        let Some(slot) = self.sessions.get_mut(&id) else {
            return false;
        };
        if !matches!(slot.state, SessionState::CheckedOut) {
            return false;
        }
        let kept = match (salvage, &store) {
            (Some(log), Some(store)) => {
                if store.spill(id, &log).is_ok() {
                    None
                } else {
                    // Failed spill: keep the salvage resident rather than
                    // lose committed edits the WAL never saw.
                    self.stats.store_errors += 1;
                    Some(Box::new(log))
                }
            }
            (salvage, _) => salvage.map(Box::new),
        };
        self.sessions.get_mut(&id).expect("slot exists").state = SessionState::Quarantined(kept);
        self.stats.quarantines += 1;
        true
    }

    /// Rebuilds a quarantined session's slot from its preserved state —
    /// the salvaged ledger, or the attached store's snapshot + WAL pair —
    /// leaving it evicted without warm state (the next touch rehydrates
    /// and solves cold: nothing of the poisoned engine is reused).
    /// Returns the recovered version.
    ///
    /// # Errors
    /// [`SessionError::NotQuarantined`] / [`SessionError::Unknown`] on
    /// lifecycle misses; [`SessionError::Store`] when the durable load
    /// fails (the session stays quarantined — retryable).
    pub fn revive_session(&mut self, id: SessionId) -> Result<u64, SessionError> {
        let store = self.store.clone();
        let Some(slot) = self.sessions.get_mut(&id) else {
            return Err(SessionError::Unknown(id));
        };
        if !matches!(slot.state, SessionState::Quarantined(_)) {
            return Err(SessionError::NotQuarantined(id));
        }
        let SessionState::Quarantined(salvage) =
            std::mem::replace(&mut slot.state, SessionState::CheckedOut)
        else {
            unreachable!("checked above")
        };
        // The slot sits CheckedOut while we decide — no serving race.
        let log = match salvage {
            Some(log) => *log,
            None => match store.as_ref().map(|s| s.load(id)) {
                Some(Ok((log, _))) => log,
                Some(Err(e)) => {
                    self.stats.store_errors += 1;
                    self.sessions.get_mut(&id).expect("slot exists").state =
                        SessionState::Quarantined(None);
                    return Err(SessionError::Store(e.to_string()));
                }
                None => {
                    self.sessions.get_mut(&id).expect("slot exists").state =
                        SessionState::Quarantined(None);
                    return Err(SessionError::Store(
                        "quarantined session has no salvaged log and no store".into(),
                    ));
                }
            },
        };
        let version = log.version();
        self.sessions.get_mut(&id).expect("slot exists").state =
            SessionState::Evicted(Dormant { log, warm: None });
        self.stats.revivals += 1;
        Ok(version)
    }

    /// Applies the configured idle policy (no-op without a threshold).
    /// Sweeps are strided — at most one `O(sessions)` scan per
    /// `threshold / 8` ticks — so individual operations stay amortized
    /// `O(1)` in fleet size, at the cost of sessions lingering up to 12.5%
    /// past their idle expiry.
    fn run_idle_policy(&mut self) {
        let Some(threshold) = self.idle_threshold else {
            return;
        };
        let stride = (threshold / 8).max(1);
        if self.clock.saturating_sub(self.last_sweep) >= stride {
            self.evict_idle();
        }
    }

    /// Evicts every live session idle for at least the configured
    /// threshold, tearing each down to its durable log; returns the
    /// evicted ids. Checked-out sessions are skipped (they are in use by
    /// definition). Explicit calls sweep immediately (no stride) and work
    /// without a threshold configured (they evict nothing).
    pub fn evict_idle(&mut self) -> Vec<SessionId> {
        self.last_sweep = self.clock;
        let Some(threshold) = self.idle_threshold else {
            return Vec::new();
        };
        let now = self.clock;
        let idle: Vec<SessionId> = self
            .sessions
            .iter()
            .filter(|(_, slot)| {
                matches!(slot.state, SessionState::Live(_))
                    && now.saturating_sub(slot.last_touch) >= threshold
            })
            .map(|(&id, _)| id)
            .collect();
        for &id in &idle {
            self.evict_session(id);
        }
        idle
    }

    /// Tears one live session down to its durable log and warm state
    /// immediately ([`RankingEngine::into_parts`]); `false` for unknown,
    /// already-evicted, or checked-out sessions.
    pub fn evict_session(&mut self, id: SessionId) -> bool {
        let store = self.store.clone();
        let Some(slot) = self.sessions.get_mut(&id) else {
            return false;
        };
        if !matches!(slot.state, SessionState::Live(_)) {
            return false;
        }
        let SessionState::Live(engine) =
            std::mem::replace(&mut slot.state, SessionState::CheckedOut)
        else {
            unreachable!()
        };
        self.retired_stats.absorb(&engine.stats());
        let (log, warm) = engine.into_parts();
        let state = match &store {
            // Spill: WAL tail shipped and fsynced, then the log leaves
            // memory — the store is the session now, plus the warm state.
            Some(store) if store.spill(id, &log).is_ok() => {
                self.stats.spills += 1;
                SessionState::Spilled(warm)
            }
            // Spill failed: keep the log resident rather than lose
            // committed state (count the failure, stay serving).
            Some(_) => {
                self.stats.store_errors += 1;
                SessionState::Evicted(Dormant { log, warm })
            }
            None => SessionState::Evicted(Dormant { log, warm }),
        };
        self.sessions.get_mut(&id).expect("slot exists").state = state;
        self.stats.evictions += 1;
        true
    }

    /// Refreshes every out-of-date live session; returns `(id, result)`
    /// pairs for the sessions that actually solved, in ascending id order.
    /// Evicted sessions are left alone (their next touch both rehydrates
    /// and solves); checked-out sessions belong to their worker.
    ///
    /// Warm sessions take their own incremental path; cold sessions are
    /// batch-solved in parallel via [`rank_many`] (each gets its own
    /// `Result` — one degenerate roster never blocks the fleet) and seeded
    /// into their warm-start caches.
    pub fn refresh_all(&mut self) -> Vec<(SessionId, Result<Ranking, RankError>)> {
        let now = self.tick();
        // Phase 1: advance kernel contexts and partition the fleet.
        let mut warm_ids: Vec<SessionId> = Vec::new();
        let mut cold_ids: Vec<SessionId> = Vec::new();
        for (&id, slot) in self.sessions.iter_mut() {
            let SessionState::Live(ref mut engine) = slot.state else {
                continue;
            };
            if engine.is_current() {
                continue;
            }
            engine.advance();
            if engine.has_warm_state() {
                warm_ids.push(id);
            } else {
                cold_ids.push(id);
            }
        }

        let mut results: Vec<(SessionId, Result<Ranking, RankError>)> = Vec::new();

        // Phase 2: batched cold solves across sessions via rank_many.
        if !cold_ids.is_empty() {
            let solved: Vec<Result<Ranking, RankError>> = {
                let matrices: Vec<&ResponseMatrix> = cold_ids
                    .iter()
                    .map(|id| match self.sessions[id].state {
                        SessionState::Live(ref engine) => engine.matrix(),
                        _ => unreachable!("partitioned as live above"),
                    })
                    .collect();
                rank_many(self.solver.as_ranker(), &matrices)
            };
            for (id, result) in cold_ids.into_iter().zip(solved) {
                if let Ok(ranking) = &result {
                    self.live_engine_mut_at(id, now)
                        .expect("partitioned as live above")
                        .seed_solution(ranking.clone());
                }
                results.push((id, result));
            }
        }

        // Phase 3: warm sessions ride their incremental path (a handful of
        // iterations each on an already-patched kernel context).
        for id in warm_ids {
            let result = self
                .live_engine_mut_at(id, now)
                .expect("partitioned as live above")
                .current_ranking();
            results.push((id, result));
        }

        results.sort_by_key(|(id, _)| *id);
        // The fleet-wide refresh is the planner's feedback point: fold the
        // predicted-vs-actual drift every engine reported since the last
        // sweep into the catalog's correction factors.
        if self.opts.plan_mode == hnd_plan::PlanMode::Auto {
            if let Some(planner) = self.opts.planner {
                planner.refresh();
            }
        }
        self.run_idle_policy();
        results
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hnd_core::{SolverKind, SolverOpts};

    fn manager() -> SessionManager {
        SessionManager::new(EngineOpts {
            solver: SolverKind::Power,
            solver_opts: SolverOpts {
                orient: false,
                ..Default::default()
            },
            ..Default::default()
        })
    }

    fn staircase_responses(m: usize) -> Vec<(usize, usize, Option<u16>)> {
        (0..m)
            .flat_map(|j| (0..m - 1).map(move |i| (j, i, Some(u16::from(j > i)))))
            .collect()
    }

    #[test]
    fn sessions_are_independent() {
        let mut mgr = manager();
        let a = mgr.create_session(5, 4, &[2, 2, 2, 2]).unwrap();
        let b = mgr.create_session(7, 6, &[2; 6]).unwrap();
        mgr.submit_responses(a, staircase_responses(5)).unwrap();
        mgr.submit_responses(b, staircase_responses(7)).unwrap();
        let ra = mgr.current_ranking(a).unwrap();
        let rb = mgr.current_ranking(b).unwrap();
        assert_eq!(ra.len(), 5);
        assert_eq!(rb.len(), 7);
        assert!(mgr.drop_session(a));
        assert!(!mgr.drop_session(a));
        assert_eq!(mgr.len(), 1);
    }

    #[test]
    fn refresh_all_batches_cold_and_warms_the_rest() {
        let mut mgr = manager();
        let ids: Vec<SessionId> = (0..4)
            .map(|k| {
                let id = mgr
                    .create_session(6 + k, 5 + k, &vec![2u16; 5 + k])
                    .unwrap();
                mgr.submit_responses(id, staircase_responses(6 + k))
                    .unwrap();
                id
            })
            .collect();
        // All four are cold → batched rank_many path.
        let first = mgr.refresh_all();
        assert_eq!(first.len(), 4);
        for (id, result) in &first {
            assert!(result.is_ok(), "session {id} failed");
        }
        // Already current → nothing to do.
        assert!(mgr.refresh_all().is_empty());

        // Trickle an edit into two sessions → warm refresh only for those.
        let rebuilds_after_load = mgr.session(ids[1]).unwrap().stats().rebuilds;
        mgr.submit_responses(ids[1], [(0, 0, Some(1))]).unwrap();
        mgr.submit_responses(ids[3], [(1, 1, Some(1))]).unwrap();
        let second = mgr.refresh_all();
        let refreshed: Vec<SessionId> = second.iter().map(|(id, _)| *id).collect();
        assert_eq!(refreshed, vec![ids[1], ids[3]]);
        let s1 = mgr.session(ids[1]).unwrap().stats();
        assert_eq!(
            s1.rebuilds, rebuilds_after_load,
            "warm refresh must stay incremental (bulk load may rebuild)"
        );
        assert_eq!(s1.delta_applies, 1, "the trickle edit was a patch");
        assert_eq!(s1.warm_solves, 1);
    }

    #[test]
    fn batched_cold_refresh_agrees_with_direct_ranking() {
        // The rank_many path and the per-session path must produce the same
        // rankings (identical solver configuration).
        let mut mgr = manager();
        let id = mgr.create_session(8, 7, &[2; 7]).unwrap();
        mgr.submit_responses(id, staircase_responses(8)).unwrap();
        let batched = mgr.refresh_all().pop().unwrap().1.unwrap();

        let mut solo = manager();
        let sid = solo.create_session(8, 7, &[2; 7]).unwrap();
        solo.submit_responses(sid, staircase_responses(8)).unwrap();
        let direct = solo.current_ranking(sid).unwrap();
        assert_eq!(batched.order_best_to_worst(), direct.order_best_to_worst());
    }

    #[test]
    fn idle_sessions_evict_and_rehydrate_on_touch() {
        let mut mgr = manager();
        mgr.set_idle_threshold(Some(4));
        let idle = mgr.create_session(5, 4, &[2; 4]).unwrap();
        let busy = mgr.create_session(5, 4, &[2; 4]).unwrap();
        mgr.submit_responses(idle, staircase_responses(5)).unwrap();
        let before_eviction = mgr.current_ranking(idle).unwrap();

        // Hammer the busy session; the idle one crosses the threshold.
        for _ in 0..6 {
            mgr.submit_responses(busy, [(0, 0, Some(1)), (0, 0, Some(0))])
                .unwrap();
        }
        assert!(mgr.is_evicted(idle), "idle session must be torn down");
        assert!(!mgr.is_evicted(busy), "touched session must stay live");
        assert!(mgr.session(idle).is_none(), "no engine while evicted");
        assert_eq!(mgr.stats().evictions, 1);

        // The durable log is intact and the next touch rehydrates.
        assert_eq!(
            mgr.session_log(idle).unwrap().version(),
            before_eviction.len() as u64 * 4
        );
        let after = mgr.current_ranking(idle).unwrap();
        assert!(!mgr.is_evicted(idle));
        assert_eq!(mgr.stats().rehydrations, 1);
        assert_eq!(
            before_eviction.order_best_to_worst(),
            after.order_best_to_worst(),
            "rehydrated ranking must match the pre-eviction one"
        );
    }

    #[test]
    fn refresh_all_is_one_tick_and_never_evicts_its_own_work() {
        // Regression: refresh_all used to tick once per refreshed session,
        // so with a small idle threshold its trailing sweep could evict
        // the very sessions it had just refreshed (throwing away the warm
        // state rank_many computed).
        let mut mgr = manager();
        let ids: Vec<SessionId> = (0..6)
            .map(|_| {
                let id = mgr.create_session(5, 4, &[2; 4]).unwrap();
                mgr.submit_responses(id, staircase_responses(5)).unwrap();
                id
            })
            .collect();
        // Arm the policy only now: setup ops must not pre-evict the fleet.
        mgr.set_idle_threshold(Some(4));
        let refreshed = mgr.refresh_all();
        assert_eq!(refreshed.len(), 6);
        for &id in &ids {
            assert!(
                !mgr.is_evicted(id),
                "session {id} evicted by the refresh pass that warmed it"
            );
            assert!(mgr.session(id).unwrap().has_warm_state());
        }
        assert_eq!(mgr.stats().evictions, 0);
    }

    #[test]
    fn checkout_blocks_eviction_and_serving() {
        let mut mgr = manager();
        mgr.set_idle_threshold(Some(1));
        let id = mgr.create_session(4, 3, &[2; 3]).unwrap();
        let mut engine = mgr.take_engine(id).unwrap();
        assert!(
            matches!(mgr.take_engine(id), Err(SessionError::CheckedOut(_))),
            "double checkout rejected"
        );
        assert!(mgr.session(id).is_none());
        assert!(mgr.session_log(id).is_none());
        assert!(!mgr.evict_session(id), "checked-out session never evicts");
        assert!(mgr.evict_idle().is_empty());

        engine.submit_responses(staircase_responses(4)).unwrap();
        assert!(mgr.put_engine(id, engine).unwrap());
        assert_eq!(mgr.session(id).unwrap().version(), 12);

        // A put without a matching take is a typed error, not a panic.
        let extra = RankingEngine::new(4, 3, &[2; 3], mgr.engine_opts()).unwrap();
        assert!(matches!(
            mgr.put_engine(id, extra),
            Err(SessionError::NotCheckedOut(_))
        ));

        // Check-in onto a closed session drops the engine quietly.
        let engine = mgr.take_engine(id).unwrap();
        assert!(mgr.drop_session(id));
        assert!(!mgr.put_engine(id, engine).unwrap());
    }

    #[test]
    fn unknown_ids_are_typed_errors_not_panics() {
        let mut mgr = manager();
        assert!(matches!(
            mgr.submit_responses(99, [(0, 0, Some(1))]),
            Err(SessionError::Unknown(99))
        ));
        assert!(matches!(
            mgr.current_ranking(99),
            Err(SessionError::Unknown(99))
        ));
        assert!(matches!(
            mgr.take_engine(99),
            Err(SessionError::Unknown(99))
        ));
        assert!(matches!(
            mgr.revive_session(99),
            Err(SessionError::Unknown(99))
        ));
    }

    #[test]
    fn quarantine_preserves_state_and_revive_restores_it() {
        let mut mgr = manager();
        let id = mgr.create_session(5, 4, &[2; 4]).unwrap();
        mgr.submit_responses(id, staircase_responses(5)).unwrap();
        let before = mgr.current_ranking(id).unwrap();
        let committed = mgr.session_log(id).unwrap();

        // A worker checks the engine out, panics, and salvages the log.
        let engine = mgr.take_engine(id).unwrap();
        let salvage = engine.into_log();
        assert!(mgr.quarantine_session(id, Some(salvage)));
        assert!(mgr.is_quarantined(id));
        assert_eq!(mgr.stats().quarantines, 1);

        // Every touch is refused while quarantined…
        assert!(matches!(
            mgr.submit_responses(id, [(0, 0, Some(1))]),
            Err(SessionError::Quarantined(_))
        ));
        assert!(matches!(
            mgr.checkout(id),
            Err(SessionError::Quarantined(_))
        ));
        assert!(!mgr.evict_session(id), "quarantined sessions never evict");
        // …but the committed ledger is preserved and readable.
        assert_eq!(mgr.session_log(id).unwrap().version(), committed.version());

        // Revive rebuilds from the preserved log, bit-identically.
        let version = mgr.revive_session(id).unwrap();
        assert_eq!(version, committed.version());
        assert!(!mgr.is_quarantined(id));
        assert_eq!(mgr.stats().revivals, 1);
        let after = mgr.current_ranking(id).unwrap();
        assert_eq!(before.scores, after.scores, "bitwise-identical recovery");
        assert!(matches!(
            mgr.revive_session(id),
            Err(SessionError::NotQuarantined(_))
        ));
    }
}
