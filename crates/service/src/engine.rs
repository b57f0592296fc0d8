//! The incremental [`RankingEngine`]: one session's solve path.
//!
//! The engine owns the four pieces the incremental pipeline threads
//! together — the versioned [`ResponseLog`], the in-place-patched kernel
//! context ([`ResponseOps`]), the unified solver
//! ([`SpectralSolver`](hnd_core::SpectralSolver)), and the version-keyed
//! [`WarmStartCache`] — and exposes the two-call serving API:
//! [`RankingEngine::submit_responses`] → [`RankingEngine::current_ranking`].
//!
//! A `current_ranking` call at an already-solved version is a cache hit
//! (no numerics at all). Otherwise the engine drains the log's delta,
//! patches the kernel context in `O(nnz(delta))` (falling back to a
//! slack-capacity rebuild only when a row/column span is exhausted), and
//! warm-starts the solver from the nearest cached state — on small deltas
//! the iteration converges in a handful of steps instead of dozens, and
//! the multi-million-entry pattern is never rebuilt.

use crate::cache::{CachedSolve, WarmStartCache};
use hnd_core::{SolveState, SolverKind, SolverOpts, SpectralSolver, Target};
use hnd_linalg::{DensityPlan, FormatCounts};
use hnd_plan::{KernelClass, PlanDecision, PlanMode, Planner, SessionShape};
use hnd_response::order::{best_first_keys, best_first_order, key_user, sort_extremes};
use hnd_response::{
    RankError, Ranking, ResponseDelta, ResponseEdit, ResponseError, ResponseLog, ResponseMatrix,
    ResponseOps,
};
use hnd_shard::{ShardPlan, ShardedOps};
use hnd_telemetry::{EventKind, Probe, SkipRefusal, Stage};
use std::time::Instant;

/// Accuracy tier of the approximate query API ([`RankingEngine::top_k`],
/// [`RankingEngine::rank_of`]). [`RankingEngine::current_ranking`] is
/// always exact — tiers exist only where the caller opted into a weaker
/// question.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QueryTier {
    /// Run the solver to its full tolerance, exactly like
    /// [`RankingEngine::current_ranking`].
    Exact,
    /// Early-terminate once the requested answer is *certified* decided by
    /// the per-entry convergence envelopes (`hnd_core::approx`), and skip
    /// the solve entirely when the pending wave provably cannot change it.
    /// The default: same answer as `Exact` within the certified bound, at
    /// a fraction of the iterations.
    #[default]
    Certified,
    /// Dashboard tier: cap the iteration budget at
    /// [`COARSE_MAX_ITER`] and serve whatever the solver reached — no
    /// certificate, lowest latency.
    Coarse,
}

/// Iteration cap of [`QueryTier::Coarse`] solves.
pub const COARSE_MAX_ITER: usize = 32;

/// Safety multiplier on the self-calibrated per-edit influence rates used
/// by the delta-skip fast path (the rates are running maxima of observed
/// score perturbations; the margin absorbs waves a little more influential
/// than anything seen so far).
const SKIP_SAFETY: f64 = 2.0;

/// Certified-tier solves run this much tighter than the configured
/// tolerance. The skip path's stability margins compete with the solver
/// noise of the cached scores: at the user tolerance, adjacent-gap noise
/// is the same order as real top-k boundary gaps on large rosters, and
/// nothing could ever be certified stable. Tightening costs only
/// `ln(1/factor)` extra iterations on a linearly converging solve and is
/// repaid by every skipped solve it unlocks.
const CERT_TOL_FACTOR: f64 = 1e-3;

/// Noise band of a skip decision, in units of the cached solve's
/// tolerance: each cached score carries up to ~one tolerance of solver
/// error, so an adjacent gap carries two, and the floor/ceiling sweep
/// compares two such gaps.
const SKIP_NOISE: f64 = 4.0;

/// Per-observation decay of the calibrated influence rates. A pure
/// running maximum ratchets upward forever: one unusually influential
/// wave in ten thousand permanently over-bounds every later skip
/// decision. Decaying the old rate only when a *fresh above-noise
/// observation* arrives (quiet stretches keep the bound frozen — no
/// evidence, no relaxation) makes the calibration track the recent
/// worst case with a half-life of ~34 observations.
const RATE_DECAY: f64 = 0.98;

/// Maximum pending-wave span (in edits) the skip path will evaluate.
/// The per-edit ripple bound grows linearly in the span while real
/// perturbations partially cancel, so past a few dozen edits the bound
/// is hopeless anyway and the evaluation is pure overhead.
const SKIP_SPAN_MAX: usize = 32;

/// The last approximate solve, kept *outside* the exact warm-start cache
/// so `current_ranking` cache hits stay exact-by-default. The normalized
/// score copy is the coordinate system of the skip path's perturbation
/// bounds (solver scores are only unit-norm up to the cumsum map).
struct ApproxSolve {
    version: u64,
    /// The `k` whose head this solve certifies (`usize::MAX` for a
    /// rank-stable or exact solve — every head is covered).
    k: usize,
    /// Whether the entry is backed by a certificate (certified/exact
    /// solves) — only these may seed the skip path.
    certified: bool,
    ranking: Ranking,
    /// `ranking.scores` normalized to unit L2.
    norm_scores: Vec<f64>,
    /// Indices of `norm_scores` sorted best-first — computed once per
    /// solve (one sort of packed integer keys, [`best_first_order`]) so
    /// each skip evaluation and same-version head read stays O(m), not
    /// O(m log m) (at large rosters the sort would rival the warm solve it
    /// skips).
    order: Vec<usize>,
    /// The residual tolerance the producing solve ran at — the resolution
    /// of `norm_scores`, and hence the noise band of any skip decision
    /// read off them.
    tol: f64,
    /// Version through which the accumulated wave exposure below is
    /// current. The skip path is re-priced on every query; recomputing
    /// the full edit span each time would cost O(span + m), so it extends
    /// these accumulators by just the edits that arrived since the last
    /// evaluation.
    coupled_to: u64,
    /// Edits accumulated in the exposure (the [`SKIP_SPAN_MAX`] meter).
    span: usize,
    /// Per-user authored-edit counts since `version` (direct channel).
    edit_counts: Vec<f64>,
}

/// Self-calibrated rates bounding how far one wave can move *score
/// differences* (the quantity the top-k decision rests on — absolute
/// scores shift by a large common mode under any edit, but a common
/// shift cancels inside a difference and reorders nobody). Two channels,
/// because their magnitudes differ by orders of magnitude and a single
/// shared rate would let the large one catastrophically over-bound the
/// other:
///
/// * `direct` — gap movement per *edit authored by a pair endpoint*: the
///   editor's own row changed, and their score moves by an amount
///   proportional to the number of their answers that flipped.
/// * `ripple` — movement **per edit** of the editor-free head-vs-rest
///   *margin* at the calibrating solve's certified boundary: the global
///   eigenvector adjustment every edit induces in everyone else
///   (column-degree rescaling, normalization, subdominant-direction
///   tilt). Measured directly on the margin because near-boundary
///   entries ride the same global mode and the margin moves far less
///   than the sum of its endpoints' individual movements — the movement
///   is also *not* proportional to any per-user coupling weight, and
///   normalizing it by one (as an earlier iteration of this path did)
///   silently divides near-boundary physics by a far-tail denominator
///   until the rate over-bounds every skip.
///
/// Both are decaying maxima of observed solve-to-solve perturbations
/// (see [`RATE_DECAY`]), noise-floored at the solver tolerance of the
/// two solves compared.
/// `None` until first observed — the skip path never fires with an
/// uncalibrated direct channel (an unobserved ripple channel means
/// off-editor influence stayed under the solver noise band, which the
/// skip decision already budgets for).
#[derive(Debug, Clone, Copy, Default)]
struct SkipRates {
    direct: Option<f64>,
    ripple: Option<f64>,
}

/// What a torn-down engine's next solve would have warm-started from,
/// carried across idle eviction and spill so the rebuilt engine resumes
/// from the very same vector ([`RankingEngine::into_parts`] →
/// [`RankingEngine::rehydrate`]). It lives only in the session manager's
/// slot and never reaches disk: a process restart or an adopted session
/// still solves cold. At most two score vectors (for the power solver):
/// the exact state plus either its served ranking or newer approx scores.
#[derive(Debug, Clone)]
pub struct WarmState {
    /// Version and spectral state of the latest exact solve.
    exact: Option<(u64, SolveState)>,
    /// That solve's served ranking, kept only when no edit followed it —
    /// the one case in which a never-evicted engine answers the next read
    /// from its cache instead of solving.
    ranking: Option<Ranking>,
    /// Version and scores of the approx slot, kept only when newer than
    /// `exact` (what the next certified or coarse solve resumes from).
    approx: Option<(u64, Vec<f64>)>,
}

/// Configuration of a [`RankingEngine`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EngineOpts {
    /// Which spectral solver serves this session.
    pub solver: SolverKind,
    /// The solver's shared options.
    pub solver_opts: SolverOpts,
    /// How many `(version → ranking, state)` solves to keep warm.
    pub cache_capacity: usize,
    /// Spare answer slots per user row before a kernel rebuild.
    pub row_slack: usize,
    /// Spare pick slots per option column before a kernel rebuild.
    pub col_slack: usize,
    /// Maximum retained log-history edits for cross-version catch-up
    /// (`None` = unbounded). Older edits are truncated after each submit;
    /// clients further behind than this get
    /// [`ResponseError::HistoryUnavailable`](hnd_response::ResponseError)
    /// from catch-up and must resync from a snapshot.
    pub history_retention: Option<usize>,
    /// Sharded-execution policy (`None` = never shard). With a plan set,
    /// a session whose roster/entry count crosses
    /// [`ShardPlan::activates`] is served by the `hnd-shard` backend:
    /// user-range shards of the pattern, shard-parallel kernels, and
    /// delta routing to owning shards — transparently, with results
    /// matching the single-shard path to ≤1e-12. Sessions below the
    /// threshold keep the single-shard fast path. The sharded solve is
    /// implemented for the flagship [`SolverKind::Power`]; other solver
    /// kinds ignore the plan.
    pub shard_plan: Option<ShardPlan>,
    /// Lane-format policy of the kernel context: rows/mirror columns whose
    /// density crosses the plan's thresholds are stored as 64-bit bitmap
    /// lanes (SIMD word kernels, O(1) bit-flip edits with no slack
    /// accounting); the rest keep the u32-index CSR layout. The default is
    /// ISA-adaptive; [`DensityPlan::force_csr`] reproduces the pure-CSR
    /// engine. Formats are re-evaluated at every rebuild point (slack
    /// exhaustion, bulk deltas, shard rebalances) — never mid-patch.
    pub density_plan: DensityPlan,
    /// The cost-model planner ([`hnd_plan`]). When set (the default wires
    /// in [`Planner::shared`] — the lazily loaded per-host catalog, `None`
    /// until a calibration pass has run on this machine), every backend
    /// build plans the session from *measured* kernel rates: backend +
    /// shard count, lane-format thresholds at the measured break-even
    /// density, and the delta-vs-rebuild patch budget. Explicit
    /// configuration still wins — a pinned [`Self::shard_plan`] or a
    /// non-default [`Self::density_plan`] is honored verbatim — and with
    /// no planner the hand-tuned constants above serve unchanged.
    pub planner: Option<&'static Planner>,
    /// Planner gate: [`PlanMode::Static`] ignores [`Self::planner`] and
    /// pins the hand-tuned fallback constants (the `HND_PLAN=static`
    /// behavior, which the default picks up from the environment) — the
    /// A/B switch for benchmarking planned against static configuration.
    pub plan_mode: PlanMode,
}

impl Default for EngineOpts {
    fn default() -> Self {
        EngineOpts {
            solver: SolverKind::Power,
            solver_opts: SolverOpts::default(),
            cache_capacity: 8,
            // A user answering 32 more items / an option gaining 256 more
            // picks between rebuilds covers a long stretch of trickle
            // traffic at a few extra bytes per slot.
            row_slack: 32,
            col_slack: 256,
            // ~1.5 MiB of retained edits per session at 24 bytes each —
            // bounds long-running sessions while covering any realistic
            // client catch-up window.
            history_retention: Some(65_536),
            shard_plan: None,
            density_plan: DensityPlan::default(),
            planner: Planner::shared(),
            plan_mode: PlanMode::from_env(),
        }
    }
}

impl EngineOpts {
    /// The planner consulted for this configuration: the wired planner,
    /// unless [`PlanMode::Static`] pins the fallback constants.
    fn active_planner(&self) -> Option<&'static Planner> {
        match self.plan_mode {
            PlanMode::Auto => self.planner,
            PlanMode::Static => None,
        }
    }

    /// Plans one session from the measured catalog. `None` (fall back to
    /// the hand-tuned constants) when no planner is active. Explicitly
    /// configured options are honored: a pinned shard plan keeps the PR-5
    /// activation logic, a non-default density plan overrides the measured
    /// break-evens.
    fn plan_session(&self, matrix: &ResponseMatrix) -> Option<PlanDecision> {
        let planner = self.active_planner()?;
        let shape = SessionShape::from_counts(&matrix.row_counts(), &matrix.col_counts());
        // The sharded backend only exists for the power solver, and a
        // pinned shard plan means the caller decides about sharding.
        let allow_sharded = self.shard_plan.is_none() && self.solver == SolverKind::Power;
        let mut decision = planner.plan(&shape, allow_sharded);
        if self.density_plan != DensityPlan::default() {
            decision.density_plan = self.density_plan;
        }
        Some(decision)
    }
}

/// The engine's kernel context: one contiguous pattern, or user-range
/// shards of it (see [`EngineOpts::shard_plan`]).
enum Backend {
    /// The single-shard fast path (`ResponseOps`, in-place patched; boxed
    /// — the hybrid kernel context is a wide struct and the enum would
    /// otherwise carry its size inline in every session slot).
    Single(Box<ResponseOps>),
    /// The sharded execution layer (`hnd-shard`).
    Sharded(Box<ShardedOps>),
}

impl Backend {
    /// Builds the backend for `matrix`. A pinned [`EngineOpts::shard_plan`]
    /// keeps the PR-5 activation logic; otherwise an active planner
    /// `decision` drives the backend choice, shard count, and lane-format
    /// thresholds from measured costs. With neither, the single backend on
    /// the configured density plan serves (the hand-tuned fallback).
    fn build(
        matrix: &ResponseMatrix,
        opts: &EngineOpts,
        decision: Option<&PlanDecision>,
    ) -> Backend {
        let density_plan = decision.map_or(opts.density_plan, |d| d.density_plan);
        if opts.solver == SolverKind::Power {
            // Explicit configuration outranks the planner.
            let plan = opts
                .shard_plan
                .or_else(|| decision.and_then(|d| d.shard_plan));
            if let Some(plan) = plan {
                let nnz: usize = matrix.row_counts().iter().sum();
                if plan.activates(matrix.n_users(), nnz) {
                    return Backend::Sharded(Box::new(ShardedOps::from_plan(
                        matrix,
                        &plan,
                        density_plan,
                        opts.row_slack,
                        opts.col_slack,
                    )));
                }
            }
        }
        Backend::Single(Box::new(ResponseOps::with_plan(
            matrix,
            opts.row_slack,
            opts.col_slack,
            density_plan,
        )))
    }

    /// Stored entries of the kernel context.
    fn nnz(&self) -> usize {
        match self {
            Backend::Single(ops) => ops.pattern().nnz(),
            Backend::Sharded(sops) => sops.nnz(),
        }
    }

    /// Per-format lane counts of the kernel context.
    fn format_counts(&self) -> FormatCounts {
        match self {
            Backend::Single(ops) => ops.format_counts(),
            Backend::Sharded(sops) => sops.format_counts(),
        }
    }
}

/// Counters describing how the engine has been serving (observability and
/// the no-rebuild test assertions).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Deltas patched into the kernel context in place.
    pub delta_applies: u64,
    /// Full kernel-context rebuilds (slack exhaustion or cold baselines).
    /// The initial build at construction is not counted.
    pub rebuilds: u64,
    /// Solves that started from a cached spectral state.
    pub warm_solves: u64,
    /// Solves that started cold.
    pub cold_solves: u64,
    /// Iterations of the most recent solve.
    pub last_iterations: usize,
    /// Solves served by the sharded backend.
    pub sharded_solves: u64,
    /// Shard-layout reshapes: single→sharded upgrades when a session grows
    /// past its plan's activation threshold, plus skew-triggered re-splits.
    pub shard_rebalances: u64,
    /// Individual shards rebuilt alone after slack exhaustion (the sharded
    /// analogue of `rebuilds`, which counts whole-context rebuilds).
    pub shard_rebuilds: u64,
    /// Per-format lane counts of the live kernel context (how much of this
    /// session the bitmap kernels serve). Sampled at [`RankingEngine::stats`]
    /// time; formats only change at rebuild points.
    pub formats: FormatCounts,
    /// Planner re-plans triggered by entry-count drift (the session grew
    /// or shrank 2× past the size its decision was computed for).
    pub plan_replans: u64,
    /// Cost-model-predicted nanoseconds for the patches applied (planner
    /// active only; integer nanos keep the counters `Eq`).
    pub predicted_patch_ns: u64,
    /// Measured nanoseconds for the same patches.
    pub actual_patch_ns: u64,
    /// Cost-model-predicted nanoseconds for the rebuilds performed.
    pub predicted_rebuild_ns: u64,
    /// Measured nanoseconds for the same rebuilds.
    pub actual_rebuild_ns: u64,
    /// Cost-model-predicted nanoseconds for the solves served.
    pub predicted_solve_ns: u64,
    /// Measured nanoseconds for the same solves.
    pub actual_solve_ns: u64,
    /// Certified-tier queries served from the stale ranking because the
    /// pending wave provably could not change the requested answer — no
    /// solve ran at all.
    pub skipped_solves: u64,
    /// Solves that stopped on a certified approximation target before the
    /// exact tolerance.
    pub early_terminations: u64,
    /// Estimated iterations saved by those early terminations, summed.
    pub iterations_saved: u64,
    /// WAL edits replayed on top of a binary snapshot to build this
    /// engine, when it was restored from the durable store (zero for an
    /// engine that never left memory) — the per-session replay cost the
    /// store's `snapshot_every` knob bounds.
    pub wal_replayed: u64,
}

impl EngineStats {
    /// Folds another engine's counters into this one (fleet aggregation:
    /// the manager sums retired engines' stats with the live ones for the
    /// unified metrics snapshot). Counters add; `last_iterations` keeps
    /// the max; lane formats merge.
    pub fn absorb(&mut self, other: &EngineStats) {
        self.delta_applies += other.delta_applies;
        self.rebuilds += other.rebuilds;
        self.warm_solves += other.warm_solves;
        self.cold_solves += other.cold_solves;
        self.last_iterations = self.last_iterations.max(other.last_iterations);
        self.sharded_solves += other.sharded_solves;
        self.shard_rebalances += other.shard_rebalances;
        self.shard_rebuilds += other.shard_rebuilds;
        self.formats = self.formats.merged(other.formats);
        self.plan_replans += other.plan_replans;
        self.predicted_patch_ns += other.predicted_patch_ns;
        self.actual_patch_ns += other.actual_patch_ns;
        self.predicted_rebuild_ns += other.predicted_rebuild_ns;
        self.actual_rebuild_ns += other.actual_rebuild_ns;
        self.predicted_solve_ns += other.predicted_solve_ns;
        self.actual_solve_ns += other.actual_solve_ns;
        self.skipped_solves += other.skipped_solves;
        self.early_terminations += other.early_terminations;
        self.iterations_saved += other.iterations_saved;
        self.wal_replayed += other.wal_replayed;
    }
}

/// An incremental ranking session over a fixed user/item roster.
pub struct RankingEngine {
    log: ResponseLog,
    solver: Box<dyn SpectralSolver>,
    opts: EngineOpts,
    /// Kernel context of `matrix` (single or sharded), patched in place
    /// across versions.
    backend: Backend,
    /// The snapshot matrix the backend corresponds to.
    matrix: ResponseMatrix,
    /// The version backend/`matrix` correspond to.
    prepared_version: u64,
    cache: WarmStartCache,
    stats: EngineStats,
    /// The cost-model decision the current backend was built under
    /// (`None` = hand-tuned fallback constants).
    decision: Option<PlanDecision>,
    /// Single-slot cache of the last approximate solve (see
    /// [`ApproxSolve`]); also refreshed by exact solves, which dominate it.
    approx: Option<ApproxSolve>,
    /// Calibration state of the delta-skip fast path.
    skip_rates: SkipRates,
    /// Exact solve state carried over an eviction ([`WarmState`]); the
    /// warm start of the first exact solve until the cache holds a newer
    /// one.
    carried_exact: Option<(u64, SolveState)>,
    /// Approx-slot scores carried over an eviction; the warm start of the
    /// first approximate solve until the approx slot is refilled.
    carried_approx: Option<(u64, Vec<f64>)>,
    /// Telemetry recording handle installed by the serving layer while the
    /// engine is checked out (`None` outside a server or with telemetry
    /// off — every record site is one `Option` branch then).
    probe: Option<Probe>,
}

impl RankingEngine {
    /// Creates an engine over an empty roster.
    ///
    /// # Errors
    /// Rejects empty user/item sets and zero-option items.
    pub fn new(
        n_users: usize,
        n_items: usize,
        options_per_item: &[u16],
        opts: EngineOpts,
    ) -> Result<Self, ResponseError> {
        Self::from_log(ResponseLog::new(n_users, n_items, options_per_item)?, opts)
    }

    /// Creates an engine over a pre-filled log (e.g. a bulk-loaded
    /// dataset whose edits will now trickle in).
    pub fn from_log(mut log: ResponseLog, opts: EngineOpts) -> Result<Self, ResponseError> {
        let snapshot = log.snapshot();
        let decision = opts.plan_session(&snapshot.matrix);
        let backend = Backend::build(&snapshot.matrix, &opts, decision.as_ref());
        Ok(RankingEngine {
            log,
            solver: opts.solver.build(opts.solver_opts),
            backend,
            matrix: snapshot.matrix,
            prepared_version: snapshot.version,
            cache: WarmStartCache::new(opts.cache_capacity),
            stats: EngineStats::default(),
            decision,
            approx: None,
            skip_rates: SkipRates::default(),
            carried_exact: None,
            carried_approx: None,
            probe: None,
            opts,
        })
    }

    /// Rebuilds an evicted session's engine — the one rebuild path of the
    /// serving layer: [`Self::from_log`], the WAL edits a store restore
    /// replayed ([`Self::record_wal_replay`]), and the [`WarmState`] the
    /// torn-down engine left behind, so the first solve warm-starts from
    /// the vector a never-evicted engine would pick. State whose length is
    /// not the roster's is dropped (that solve runs cold).
    pub fn rehydrate(
        log: ResponseLog,
        opts: EngineOpts,
        replayed: u64,
        warm: Option<WarmState>,
    ) -> Result<Self, ResponseError> {
        let mut engine = Self::from_log(log, opts)?;
        engine.record_wal_replay(replayed);
        let Some(WarmState {
            exact,
            ranking,
            approx,
        }) = warm
        else {
            return Ok(engine);
        };
        let m = engine.log.n_users();
        let version = engine.log.version();
        if let Some((at, state)) = exact.filter(|(_, s)| s.n_users() == m) {
            match ranking.filter(|r| r.len() == m && at == version) {
                Some(ranking) => engine.cache.insert(CachedSolve {
                    version: at,
                    ranking,
                    state,
                }),
                None => engine.carried_exact = Some((at, state)),
            }
        }
        engine.carried_approx = approx.filter(|(_, s)| s.len() == m);
        Ok(engine)
    }

    /// Installs (or clears) the serving layer's telemetry probe. The
    /// server attaches one per checkout; a probe-less engine records
    /// nothing.
    pub fn set_probe(&mut self, probe: Option<Probe>) {
        self.probe = probe;
    }

    /// Points the installed probe (if any) at the command about to
    /// execute, so solve-phase events carry its sequence number.
    pub fn set_probe_seq(&mut self, seq: u64) {
        if let Some(p) = &mut self.probe {
            p.set_seq(seq);
        }
    }

    /// The installed telemetry probe, if any.
    pub fn probe(&self) -> Option<&Probe> {
        self.probe.as_ref()
    }

    /// The cost-model decision the current backend runs under (`None`
    /// when the engine serves on the hand-tuned fallback constants).
    pub fn plan_decision(&self) -> Option<&PlanDecision> {
        self.decision.as_ref()
    }

    /// The engine's configuration.
    pub fn opts(&self) -> &EngineOpts {
        &self.opts
    }

    /// Serving counters (with the kernel context's current per-format lane
    /// counts sampled in).
    pub fn stats(&self) -> EngineStats {
        EngineStats {
            formats: self.backend.format_counts(),
            ..self.stats
        }
    }

    /// `(hits, misses)` of the warm-start cache.
    pub fn cache_stats(&self) -> (u64, u64) {
        self.cache.stats()
    }

    /// The current log version.
    pub fn version(&self) -> u64 {
        self.log.version()
    }

    /// The engine's versioned edit ledger (the durable state: clients use
    /// it for [`ResponseLog::compact_range`] catch-up deltas).
    pub fn log(&self) -> &ResponseLog {
        &self.log
    }

    /// Tears the engine down to its durable log alone, dropping the kernel
    /// context and every solve it cached (the quarantine salvage path).
    /// Eviction uses [`Self::into_parts`], which keeps the warm start.
    pub fn into_log(self) -> ResponseLog {
        self.log
    }

    /// Tears the engine down for eviction: the durable log plus the
    /// [`WarmState`] its next solve would have resumed from (`None` when
    /// it never solved). The kernel context and the rest of the cache are
    /// dropped; [`Self::rehydrate`] rebuilds the engine from both.
    pub fn into_parts(self) -> (ResponseLog, Option<WarmState>) {
        let version = self.log.version();
        let (exact, ranking) = match self.cache.into_latest() {
            Some(c) => {
                let ranking = (c.version == version).then_some(c.ranking);
                (Some((c.version, c.state)), ranking)
            }
            None => (self.carried_exact, None),
        };
        let exact_version = exact.as_ref().map(|(v, _)| *v);
        let approx = match self.approx {
            Some(a) => Some((a.version, a.ranking.scores)),
            None => self.carried_approx,
        }
        .filter(|(v, _)| exact_version.is_none_or(|e| *v > e));
        let warm = (exact.is_some() || approx.is_some()).then_some(WarmState {
            exact,
            ranking,
            approx,
        });
        (self.log, warm)
    }

    /// The newest exact solve's version and state: the cache's, else the
    /// one carried over an eviction (every cache entry is newer).
    fn latest_exact(&self) -> Option<(u64, &SolveState)> {
        match self.cache.latest() {
            Some(c) => Some((c.version, &c.state)),
            None => self.carried_exact.as_ref().map(|(v, s)| (*v, s)),
        }
    }

    /// The newest approximate scores: the approx slot's, else those
    /// carried over an eviction (a refilled slot is always newer).
    fn latest_approx(&self) -> Option<(u64, &[f64])> {
        match &self.approx {
            Some(a) => Some((a.version, a.ranking.scores.as_slice())),
            None => self
                .carried_approx
                .as_ref()
                .map(|(v, s)| (*v, s.as_slice())),
        }
    }

    /// Stamps how many WAL edits a durable-store recovery replayed to
    /// produce this engine's log (surfaced as
    /// [`EngineStats::wal_replayed`]). Called by the restore paths right
    /// after [`Self::from_log`].
    pub fn record_wal_replay(&mut self, edits: u64) {
        self.stats.wal_replayed = edits;
    }

    /// The matrix of the latest prepared snapshot (advances on
    /// [`Self::current_ranking`] / [`Self::advance`], not on submit).
    pub fn matrix(&self) -> &ResponseMatrix {
        &self.matrix
    }

    /// Number of user-range shards serving this session (`1` = the
    /// single-shard fast path).
    pub fn shard_count(&self) -> usize {
        match &self.backend {
            Backend::Single(_) => 1,
            Backend::Sharded(sops) => sops.shard_count(),
        }
    }

    /// `true` when the session is served by the sharded backend.
    pub fn is_sharded(&self) -> bool {
        matches!(self.backend, Backend::Sharded(_))
    }

    /// `true` when a spectral state exists to warm-start the next exact
    /// solve (cached, or carried over an eviction).
    pub fn has_warm_state(&self) -> bool {
        self.latest_exact().is_some()
    }

    /// `true` when the latest solve is current (submit-free since then).
    pub fn is_current(&self) -> bool {
        self.cache
            .latest()
            .is_some_and(|c| c.version == self.log.version())
    }

    /// Commits a batch of `(user, item, choice)` responses; returns the new
    /// version. Ranking work is deferred to [`Self::current_ranking`].
    ///
    /// # Errors
    /// Rejects out-of-roster user/item indices and out-of-range options —
    /// this is the client-input boundary, so malformed tuples surface as
    /// [`ResponseError`]s, never panics. Edits before the failing one stay
    /// committed (see [`ResponseLog::submit`]).
    pub fn submit_responses(
        &mut self,
        responses: impl IntoIterator<Item = (usize, usize, Option<u16>)>,
    ) -> Result<u64, ResponseError> {
        let (n_users, n_items) = (self.log.n_users(), self.log.n_items());
        for (user, item, choice) in responses {
            if user >= n_users || item >= n_items {
                return Err(ResponseError::IndexOutOfBounds {
                    user,
                    item,
                    n_users,
                    n_items,
                });
            }
            self.log.set(user, item, choice)?;
        }
        // Bound the catch-up history. If a submit-only flood pushes the
        // cutoff past the last advance, the next refresh simply becomes a
        // cold rebuild point (a delta that long would exceed the patch
        // budget and rebuild anyway).
        if let Some(keep) = self.opts.history_retention {
            if self.log.history_len() > keep {
                let cutoff = self.log.version().saturating_sub(keep as u64);
                self.log.truncate_history(cutoff);
            }
        }
        Ok(self.log.version())
    }

    /// Number of delta edits that touch at least one *sparse* (CSR) lane
    /// of the current kernel context — the edits whose patches shift a
    /// sorted prefix and burn slack. Edits landing entirely on bitmap
    /// lanes are O(1) bit flips with no slack accounting and must not
    /// count against the patch-vs-rebuild budget (a forced-bitmap session
    /// under heavy waves never needs a rebuild, however long the delta).
    fn sparse_edit_weight(&self, delta: &ResponseDelta) -> usize {
        let touches_sparse = |user: usize, edit: &hnd_response::ResponseEdit| {
            let (pattern, row) = match &self.backend {
                Backend::Single(ops) => (ops.pattern(), user),
                Backend::Sharded(sops) => {
                    let shard = &sops.shards()[sops.shard_of(user)];
                    (shard.pattern(), user - shard.range().start)
                }
            };
            if !pattern.row_is_bitmap(row) {
                return true;
            }
            [edit.from, edit.to].iter().flatten().any(|&option| {
                let col = self.matrix.one_hot_column(edit.item, option);
                !pattern.col_is_bitmap(col)
            })
        };
        delta
            .edits
            .iter()
            .filter(|e| touches_sparse(e.user, e))
            .count()
    }

    /// The delta-vs-rebuild cutoff: the planner's cost-derived budget when
    /// a decision is active, else the hand-tuned ~nnz/8 heuristic.
    fn patch_budget(&self) -> usize {
        self.decision
            .as_ref()
            .map_or_else(|| self.backend.nnz() / 8 + 16, |d| d.patch_budget)
    }

    /// Brings the kernel context up to the log head without solving:
    /// drains the pending delta and patches both the matrix and `ops` in
    /// place — `O(nnz(delta))`, no `O(mn)` snapshot clone — falling back
    /// to a rebuild on slack exhaustion. Idempotent when nothing changed.
    pub fn advance(&mut self) {
        if self.log.version() == self.prepared_version && self.log.pending_edits() == 0 {
            return;
        }
        let target_version = self.log.version();
        match self.log.drain_delta() {
            // Patching a sparse lane shifts the touched row/column prefix
            // per edit, so a bulk-sized delta costs more than the one
            // rebuild it avoids — fall through to the rebuild path for
            // those. Only sparse-lane edits count: bitmap flips are free.
            Some(delta)
                if delta.from_version == self.prepared_version
                    && self.sparse_edit_weight(&delta) <= self.patch_budget() =>
            {
                let matrix_ok = delta.is_empty() || self.matrix.apply_delta(&delta).is_ok();
                if !matrix_ok {
                    self.rebuild_from_log();
                } else if !delta.is_empty() {
                    let sparse_edits = self.sparse_edit_weight(&delta);
                    let started = Instant::now();
                    let patched = match &mut self.backend {
                        Backend::Single(ops) => ops.apply_delta(&self.matrix, &delta).is_ok(),
                        Backend::Sharded(sops) => {
                            // Slack exhaustion inside a shard is handled by
                            // the sharded layer (one shard rebuilds alone);
                            // only inconsistent deltas surface as errors.
                            // Accumulate the per-delta increment: the ops'
                            // own counter restarts at 0 whenever the whole
                            // backend is rebuilt, the engine stat must not.
                            let before = sops.rebuilt_shards();
                            let ok = sops.apply_delta(&self.matrix, &delta).is_ok();
                            self.stats.shard_rebuilds += sops.rebuilt_shards() - before;
                            ok
                        }
                    };
                    if patched {
                        let took = started.elapsed();
                        if let Some(p) = &self.probe {
                            let ns = took.as_nanos() as u64;
                            p.event(EventKind::Patch {
                                sparse_edits: sparse_edits as u32,
                                ns,
                            });
                            p.stage(Stage::Patch, ns);
                        }
                        self.observe_patch(sparse_edits, took);
                        self.stats.delta_applies += 1;
                        self.maybe_reshape();
                    } else {
                        // Slack exhausted (single backend) or inconsistent
                        // delta: rebuild the kernel context with fresh
                        // slack (the matrix is already current). The
                        // rebuild re-evaluates the plan decision and shard
                        // activation, so a session that grew past its
                        // threshold upgrades here too.
                        self.rebuild_backend();
                    }
                }
            }
            _ => self.rebuild_from_log(),
        }
        self.prepared_version = target_version;
    }

    /// Feeds one patch timing into the feedback loop (planner active and
    /// the model predicted nonzero work — unmatched actuals would skew the
    /// correction blend).
    fn observe_patch(&mut self, sparse_edits: usize, took: std::time::Duration) {
        let Some(planner) = self.opts.active_planner() else {
            return;
        };
        let Some(decision) = &self.decision else {
            return;
        };
        let predicted = (decision.predicted_patch_edit_ns * sparse_edits as f64) as u64;
        if predicted == 0 {
            return;
        }
        let actual = took.as_nanos() as u64;
        self.stats.predicted_patch_ns += predicted;
        self.stats.actual_patch_ns += actual;
        planner.observe(KernelClass::CsrPatch, predicted, actual);
    }

    /// Rebuilds the kernel context for the (already current) matrix with a
    /// fresh plan decision, recording rebuild feedback.
    fn rebuild_backend(&mut self) {
        self.decision = self.opts.plan_session(&self.matrix);
        let started = Instant::now();
        self.backend = Backend::build(&self.matrix, &self.opts, self.decision.as_ref());
        let took = started.elapsed();
        self.stats.rebuilds += 1;
        if let Some(p) = &self.probe {
            let ns = took.as_nanos() as u64;
            p.event(EventKind::Rebuild { ns });
            p.stage(Stage::Rebuild, ns);
        }
        if let (Some(planner), Some(decision)) = (self.opts.active_planner(), &self.decision) {
            let predicted = decision.predicted_rebuild_ns as u64;
            if predicted > 0 {
                let actual = took.as_nanos() as u64;
                self.stats.predicted_rebuild_ns += predicted;
                self.stats.actual_rebuild_ns += actual;
                planner.observe(KernelClass::LaneRebuild, predicted, actual);
            }
        }
    }

    /// Re-evaluates the shard layout after a successful patch: a
    /// single-backend session that crossed its plan's activation threshold
    /// upgrades to sharded execution, and a sharded session whose delta
    /// traffic skewed the layout (or grew it past another shard's worth)
    /// re-splits. No-op without a plan.
    fn maybe_reshape(&mut self) {
        if self.opts.solver != SolverKind::Power {
            return;
        }
        match self.opts.shard_plan {
            Some(plan) => match &mut self.backend {
                Backend::Single(ops) => {
                    if plan.activates(self.matrix.n_users(), ops.pattern().nnz()) {
                        self.backend =
                            Backend::build(&self.matrix, &self.opts, self.decision.as_ref());
                        self.stats.shard_rebalances += 1;
                    }
                }
                Backend::Sharded(sops) => {
                    if sops.needs_rebalance(&plan) {
                        sops.rebalance(&self.matrix, &plan);
                        self.stats.shard_rebalances += 1;
                    }
                }
            },
            // Planner-driven sessions re-plan when the entry count drifts
            // 2× past the size the decision was computed for; the backend
            // is only rebuilt when the decision materially changes (shard
            // count), so trickle growth never causes rebuild churn.
            None => {
                let Some(current) = &self.decision else {
                    return;
                };
                let nnz = self.backend.nnz();
                let drifted = nnz > current.planned_nnz.saturating_mul(2).max(16)
                    || nnz.saturating_mul(2) < current.planned_nnz;
                if !drifted {
                    return;
                }
                let fresh = self.opts.plan_session(&self.matrix);
                self.stats.plan_replans += 1;
                let new_shards = fresh.as_ref().map_or(1, |d| d.shards);
                if new_shards != self.shard_count() {
                    self.decision = fresh;
                    self.backend = Backend::build(&self.matrix, &self.opts, self.decision.as_ref());
                    self.stats.shard_rebalances += 1;
                } else {
                    // Same layout: adopt the refreshed budgets/predictions
                    // without touching the kernel context.
                    self.decision = fresh;
                }
            }
        }
    }

    /// Cold re-baseline: re-materialize the matrix and kernel context
    /// (re-planning and re-evaluating shard activation for the new size).
    fn rebuild_from_log(&mut self) {
        self.matrix = self.log.to_matrix();
        self.rebuild_backend();
    }

    /// The ranking at the current version, solving only when necessary.
    ///
    /// Repeat calls at an unchanged version are pure cache hits. After new
    /// submissions the engine advances the kernel context incrementally and
    /// warm-starts from the nearest cached state.
    pub fn current_ranking(&mut self) -> Result<Ranking, RankError> {
        self.exact_ranking().cloned()
    }

    /// [`Self::current_ranking`], borrowed from the exact cache: a cache
    /// hit copies nothing.
    fn exact_ranking(&mut self) -> Result<&Ranking, RankError> {
        let version = self.log.version();
        if self.cache.get(version).is_none() {
            self.solve_exact(version)?;
        }
        Ok(&self
            .cache
            .peek(version)
            .expect("the current version was just found or solved")
            .ranking)
    }

    /// The exact solve behind [`Self::exact_ranking`]'s cache miss: fills
    /// the cache entry and the approx slot for `version`.
    fn solve_exact(&mut self, version: u64) -> Result<(), RankError> {
        self.advance();
        let warm: Option<SolveState> = self.latest_exact().map(|(_, s)| s.clone());
        if let Some(p) = &self.probe {
            p.event(EventKind::SolveStart {
                warm: warm.is_some(),
            });
        }
        let started = Instant::now();
        let outcome = match &self.backend {
            Backend::Single(ops) => self
                .solver
                .solve_prepared(&self.matrix, ops, warm.as_ref())?,
            Backend::Sharded(sops) => {
                self.stats.sharded_solves += 1;
                hnd_shard::solve_power(&self.matrix, sops, &self.opts.solver_opts, warm.as_ref())?
            }
        };
        if let Some(p) = &self.probe {
            let ns = started.elapsed().as_nanos() as u64;
            p.event(EventKind::SolveEnd {
                iterations: outcome.ranking.iterations as u32,
                early_terminated: outcome.early_terminated,
                ns,
            });
            p.stage(Stage::Solve, ns);
        }
        // Feedback: only cold solves match the model's full-iteration
        // prediction (warm starts converge in a handful of steps and would
        // read as a spurious 10× over-prediction).
        if warm.is_none() {
            if let (Some(planner), Some(decision)) = (self.opts.active_planner(), &self.decision) {
                let predicted = decision.predicted_solve_ns as u64;
                if predicted > 0 {
                    let actual = started.elapsed().as_nanos() as u64;
                    self.stats.predicted_solve_ns += predicted;
                    self.stats.actual_solve_ns += actual;
                    planner.observe(KernelClass::Solve, predicted, actual);
                }
            }
        }
        if warm.is_some() {
            self.stats.warm_solves += 1;
        } else {
            self.stats.cold_solves += 1;
        }
        self.stats.last_iterations = outcome.ranking.iterations;
        self.cache.insert(CachedSolve {
            version,
            ranking: outcome.ranking.clone(),
            state: outcome.state,
        });
        self.carried_exact = None;
        self.carried_approx = None;
        // An exact solve dominates whatever the approx slot held: refresh
        // it (feeding the skip-path calibration on the way) so subsequent
        // certified queries skip or warm-start from the best data.
        let norm = unit_scores(&outcome.ranking.scores);
        self.observe_perturbation(version, &norm, self.opts.solver_opts.tol);
        let order = best_first_order(&norm);
        let m = norm.len();
        self.approx = Some(ApproxSolve {
            version,
            k: usize::MAX,
            certified: true,
            ranking: outcome.ranking,
            norm_scores: norm,
            order,
            tol: self.opts.solver_opts.tol,
            coupled_to: version,
            span: 0,
            edit_counts: vec![0.0; m],
        });
        Ok(())
    }

    /// The best `k` users as `(user, score)` pairs, best first, at the
    /// default [`QueryTier::Certified`]. Ties broken by ascending user
    /// index (deterministic).
    pub fn top_k(&mut self, k: usize) -> Result<Vec<(usize, f64)>, RankError> {
        self.top_k_tier(k, QueryTier::default())
    }

    /// [`Self::top_k`] at an explicit tier.
    pub fn top_k_tier(
        &mut self,
        k: usize,
        tier: QueryTier,
    ) -> Result<Vec<(usize, f64)>, RankError> {
        if k == 0 {
            return Ok(Vec::new());
        }
        match tier {
            QueryTier::Exact => Ok(head_of(&self.exact_ranking()?.scores, k)),
            QueryTier::Certified => {
                let version = self.log.version();
                // An exact solve at this version answers for free.
                if let Some(cached) = self.cache.get(version) {
                    return Ok(head_of(&cached.ranking.scores, k));
                }
                if let Some(head) = self.try_skip_top_k(k) {
                    return Ok(head);
                }
                let ranking =
                    self.solve_with_target(Target::TopK { k, margin: 0.0 }, None, k, true)?;
                Ok(head_of(&ranking.scores, k))
            }
            QueryTier::Coarse => {
                let ranking = self.solve_with_target(
                    Target::TopK { k, margin: 0.0 },
                    Some(COARSE_MAX_ITER),
                    k,
                    false,
                )?;
                Ok(head_of(&ranking.scores, k))
            }
        }
    }

    /// `user`'s current rank (0 = best), default [`QueryTier::Certified`].
    /// Ties rank the lower user index first (deterministic).
    pub fn rank_of(&mut self, user: usize) -> Result<usize, RankError> {
        self.rank_of_tier(user, QueryTier::default())
    }

    /// [`Self::rank_of`] at an explicit tier.
    ///
    /// Every tier reads the position off a borrowed ranking in `O(m)`. A
    /// certified read at an already-answered version solves nothing: it is
    /// served from the exact cache, else from the approx slot when that
    /// holds a certified full-ranking solve (rank-stable or exact, never
    /// coarse) of the current version — the answer a repeat solve would
    /// re-certify.
    pub fn rank_of_tier(&mut self, user: usize, tier: QueryTier) -> Result<usize, RankError> {
        let m = self.log.n_users();
        if user >= m {
            return Err(RankError::InvalidInput(format!(
                "rank_of: user {user} outside roster of {m}"
            )));
        }
        let tol = self.opts.solver_opts.tol;
        let ranking = match tier {
            QueryTier::Exact => self.exact_ranking()?,
            QueryTier::Certified => {
                let version = self.log.version();
                if let Some(cached) = self.cache.get(version) {
                    return Ok(rank_position(&cached.ranking.scores, user));
                }
                if let Some(slot) = &self.approx {
                    if slot.certified && slot.k == usize::MAX && slot.version == version {
                        return Ok(rank_position(&slot.ranking.scores, user));
                    }
                }
                self.solve_with_target(Target::RankStable { tol }, None, usize::MAX, true)?
            }
            QueryTier::Coarse => self.solve_with_target(
                Target::RankStable { tol },
                Some(COARSE_MAX_ITER),
                usize::MAX,
                false,
            )?,
        };
        Ok(rank_position(&ranking.scores, user))
    }

    /// A solve honoring an approximation target, warm-started from the
    /// freshest state available (approx slot or exact cache). The result
    /// lands in the approx slot only — the exact cache never holds an
    /// early-terminated solution — and is returned borrowed from there.
    fn solve_with_target(
        &mut self,
        target: Target,
        iter_cap: Option<usize>,
        cert_k: usize,
        certified: bool,
    ) -> Result<&Ranking, RankError> {
        self.advance();
        let version = self.prepared_version;
        let warm: Option<SolveState> = match (self.latest_approx(), self.latest_exact()) {
            (Some((va, a)), Some((vc, _))) if va > vc => Some(SolveState::from_scores(a.to_vec())),
            (Some((_, a)), None) => Some(SolveState::from_scores(a.to_vec())),
            (_, Some((_, c))) => Some(c.clone()),
            (None, None) => None,
        };
        let mut solver_opts = self.opts.solver_opts;
        solver_opts.target = target;
        if certified {
            // Certified solves buy skip headroom: the skip path's noise
            // band scales with the cached solve's tolerance, and at the
            // user tolerance that band rivals real top-k margins on large
            // rosters. A tighter solve costs ln(1/factor) extra iterations
            // once; every skip it unlocks repays that many times over.
            solver_opts.tol *= CERT_TOL_FACTOR;
        }
        if let Some(cap) = iter_cap {
            solver_opts.max_iter = solver_opts.max_iter.min(cap);
        }
        if let Some(p) = &self.probe {
            p.event(EventKind::SolveStart {
                warm: warm.is_some(),
            });
        }
        let started = Instant::now();
        let outcome = match &self.backend {
            Backend::Single(ops) => {
                let solver = self.opts.solver.build(solver_opts);
                solver.solve_prepared(&self.matrix, ops, warm.as_ref())?
            }
            Backend::Sharded(sops) => {
                self.stats.sharded_solves += 1;
                hnd_shard::solve_power(&self.matrix, sops, &solver_opts, warm.as_ref())?
            }
        };
        if let Some(p) = &self.probe {
            let ns = started.elapsed().as_nanos() as u64;
            p.event(EventKind::SolveEnd {
                iterations: outcome.ranking.iterations as u32,
                early_terminated: outcome.early_terminated,
                ns,
            });
            p.stage(Stage::Solve, ns);
        }
        if warm.is_some() {
            self.stats.warm_solves += 1;
        } else {
            self.stats.cold_solves += 1;
        }
        self.stats.last_iterations = outcome.ranking.iterations;
        if outcome.early_terminated {
            self.stats.early_terminations += 1;
            self.stats.iterations_saved += outcome.iterations_saved as u64;
        }
        // The resolution of this solve's scores: an early-terminated solve
        // stopped at its *certificate's* error envelope, not the requested
        // tolerance — recording the requested tol there would under-state
        // the noise band of later skip decisions read off these scores.
        let achieved_tol = outcome.error_bound.unwrap_or(solver_opts.tol);
        let norm = unit_scores(&outcome.ranking.scores);
        self.observe_perturbation(version, &norm, achieved_tol);
        let order = best_first_order(&norm);
        let m = norm.len();
        self.carried_approx = None;
        let slot = self.approx.insert(ApproxSolve {
            version,
            k: cert_k,
            certified,
            ranking: outcome.ranking,
            norm_scores: norm,
            order,
            tol: achieved_tol,
            coupled_to: version,
            span: 0,
            edit_counts: vec![0.0; m],
        });
        Ok(&slot.ranking)
    }

    /// The delta-skip fast path: serve the cached certified ranking's head
    /// without solving when the pending wave provably cannot change it.
    ///
    /// Requirements, all of which fail safe toward solving:
    /// * a certified approx-slot entry covering at least `k`;
    /// * calibrated influence rates (never skips before the first
    ///   observed wave→perturbation measurement);
    /// * the edit ledger from the cached version to head (truncated
    ///   history falls through to a solve), no wider than
    ///   [`SKIP_SPAN_MAX`] edits;
    /// * an active cost model, if any, pricing the skip evaluation as
    ///   worthwhile ([`PlanDecision::skip_profitable`]);
    /// * **set stability**: every head member's score, lowered by its
    ///   worst-case wave perturbation (its authored edits priced at the
    ///   direct rate, plus the per-edit global ripple), stays above every
    ///   outsider's score raised by its own — so no outsider can provably
    ///   enter the top-k and no member leave it. The binding pair is
    ///   usually the k/k+1 boundary, but the full sweep also catches a
    ///   heavily-editing outsider leapfrogging from far below. Order
    ///   *within* the served head is the stale certified order; its
    ///   pairwise inversions vs the true head are bounded by the same
    ///   per-user movement bounds. A skip serves the cached,
    ///   already-oriented ranking without solving, so — unlike the
    ///   in-solver certificate, whose iterate's sign is still arbitrary —
    ///   no re-orientation can surface the tail.
    fn try_skip_top_k(&mut self, k: usize) -> Option<Vec<(usize, f64)>> {
        let v_now = self.log.version();
        let prev = self.approx.as_ref()?;
        if !prev.certified || (prev.k != usize::MAX && prev.k < k) {
            return None;
        }
        if prev.version == v_now {
            // Nothing pending: a plain reuse, not a counted skip.
            return Some(head_from(prev, k));
        }
        let Some(direct) = self.skip_rates.direct else {
            if let Some(p) = &self.probe {
                p.event(EventKind::SkipRefuse {
                    reason: SkipRefusal::Uncalibrated,
                });
            }
            return None;
        };
        // A never-observed ripple channel means off-editor movement stayed
        // under the solver noise band, which the decision budgets for.
        let ripple = self.skip_rates.ripple.unwrap_or(0.0);
        if k >= prev.norm_scores.len() {
            return None;
        }
        // Extend the accumulated exposure by just the edits that arrived
        // since the last evaluation — every query re-prices the skip, and
        // recomputing the full span each time would cost O(span + m).
        let coupled_to = prev.coupled_to;
        let (inc, new_count) = {
            let new_edits = self.log.history_range(coupled_to, v_now).ok()?;
            if new_edits.is_empty() {
                (None, 0)
            } else {
                (
                    Some(wave_edit_counts(new_edits, prev.norm_scores.len())),
                    new_edits.len(),
                )
            }
        };
        let prev = self.approx.as_mut()?;
        prev.coupled_to = v_now;
        prev.span += new_count;
        if let Some(inc_counts) = inc {
            for (acc, d) in prev.edit_counts.iter_mut().zip(&inc_counts) {
                *acc += d;
            }
        }
        if prev.span > SKIP_SPAN_MAX {
            if let Some(p) = &self.probe {
                p.event(EventKind::SkipRefuse {
                    reason: SkipRefusal::SpanOverflow,
                });
            }
            return None;
        }
        if let Some(decision) = &self.decision {
            if !decision.skip_profitable(prev.span) {
                if let Some(p) = &self.probe {
                    p.event(EventKind::SkipRefuse {
                        reason: SkipRefusal::Unprofitable,
                    });
                }
                return None;
            }
        }
        // Two terms price the wave. Editors get a per-entry bound — an
        // edit moves its own author's score by orders of magnitude more
        // than anyone else's, and an author close enough to the boundary
        // genuinely can cross it. Everyone else is priced collectively
        // through the *margin*: the ripple rate is the observed per-edit
        // movement of the head-vs-rest margin itself, so it is charged
        // once against the margin, not once per endpoint (per-entry
        // pricing would double the certified cost of a boundary whose
        // two sides move together).
        let bound = |u: usize| SKIP_SAFETY * direct * prev.edit_counts[u];
        let head_floor = prev.order[..k]
            .iter()
            .map(|&u| prev.norm_scores[u] - bound(u))
            .fold(f64::INFINITY, f64::min);
        let outside_ceil = prev.order[k..]
            .iter()
            .map(|&u| prev.norm_scores[u] + bound(u))
            .fold(f64::NEG_INFINITY, f64::max);
        let ripple_margin = SKIP_SAFETY * ripple * prev.span as f64;
        // The cached scores themselves carry solver-tolerance noise;
        // a decision inside that noise band is no decision.
        if head_floor - outside_ceil <= ripple_margin + SKIP_NOISE * prev.tol {
            if let Some(p) = &self.probe {
                p.event(EventKind::SkipRefuse {
                    reason: SkipRefusal::MarginTooThin,
                });
            }
            return None;
        }
        let head = head_from(prev, k);
        self.stats.skipped_solves += 1;
        if let Some(p) = &self.probe {
            p.event(EventKind::SkipServe { k: k as u32 });
        }
        Some(head)
    }

    /// Skip-path calibration: compare this solve's normalized scores with
    /// the previous certified snapshot and record the worst observed
    /// influence as running maxima, per channel (on score *differences*,
    /// not absolute scores: every edit shifts the whole cumsum score
    /// vector by a common mode that cancels between entries and reorders
    /// nobody). An adjacent pair with an editor endpoint calibrates the
    /// direct rate (gap movement per authored edit). The ripple rate is
    /// the per-edit movement of the editor-free *margin* at the
    /// snapshot's certified boundary — exactly the scalar the skip
    /// certificate spends — because near-boundary entries ride the same
    /// global eigenvector ripple and their margin moves far less than
    /// the sum of its endpoints' movements. A snapshot without a single
    /// boundary (`k == usize::MAX`) calibrates on the worst editor-free
    /// adjacent-gap movement roster-wide instead, which upper-bounds any
    /// single margin's movement. Mixing the channels would let the
    /// editor's own large movement inflate the everyone-else bound by
    /// orders of magnitude. Runs on every solve with a usable
    /// predecessor; every such observation decays the old rate by
    /// [`RATE_DECAY`] (taking the max with any fresh above-noise
    /// observation), so the bound tracks the recent worst case instead
    /// of ratcheting up forever on one outlier wave — in particular a
    /// one-off roster-wide fallback calibration relaxes back to margin
    /// scale once finite-boundary solves resume.
    fn observe_perturbation(&mut self, version: u64, new_norm: &[f64], tol_now: f64) {
        let Some(prev) = &self.approx else {
            return;
        };
        if !prev.certified || prev.version >= version || prev.norm_scores.len() != new_norm.len() {
            return;
        }
        let Ok(edits) = self.log.history_range(prev.version, version) else {
            return;
        };
        if edits.is_empty() || new_norm.len() < 2 {
            return;
        }
        let n_edits = edits.len() as f64;
        let edit_counts = wave_edit_counts(edits, new_norm.len());
        let dot: f64 = new_norm
            .iter()
            .zip(&prev.norm_scores)
            .map(|(a, b)| a * b)
            .sum();
        let sign = if dot < 0.0 { -1.0 } else { 1.0 };
        let order = &prev.order;
        // Movements at the solver-tolerance scale of the two compared
        // solves are convergence noise, not wave influence — pricing them
        // as influence would inflate the rates until nothing ever skips.
        let noise_floor = 2.0 * (prev.tol + tol_now);
        let mut direct_max: Option<f64> = None;
        let mut ripple_max: Option<f64> = None;
        if prev.k != usize::MAX && prev.k < order.len() {
            // Editor-free margin movement at the snapshot's boundary: the
            // min head score minus the max outside score, on the old and
            // new solves over the same entries, editors excluded (their
            // movement belongs to the direct channel).
            let mut old_head = f64::INFINITY;
            let mut new_head = f64::INFINITY;
            let mut old_out = f64::NEG_INFINITY;
            let mut new_out = f64::NEG_INFINITY;
            for (pos, &u) in order.iter().enumerate() {
                if edit_counts[u] > 0.0 {
                    continue;
                }
                if pos < prev.k {
                    old_head = old_head.min(prev.norm_scores[u]);
                    new_head = new_head.min(sign * new_norm[u]);
                } else {
                    old_out = old_out.max(prev.norm_scores[u]);
                    new_out = new_out.max(sign * new_norm[u]);
                }
            }
            if old_head.is_finite() && old_out.is_finite() {
                let moved = ((new_head - new_out) - (old_head - old_out)).abs();
                if moved > noise_floor {
                    ripple_max = Some(moved / n_edits);
                }
            }
        }
        for pair in order.windows(2) {
            let (a, b) = (pair[0], pair[1]);
            let g_old = prev.norm_scores[a] - prev.norm_scores[b];
            let g_new = sign * (new_norm[a] - new_norm[b]);
            let moved = (g_new - g_old).abs();
            if moved <= noise_floor {
                continue;
            }
            let d_pair = edit_counts[a] + edit_counts[b];
            if d_pair > 0.0 {
                let rate = moved / d_pair;
                direct_max = Some(direct_max.map_or(rate, |m| m.max(rate)));
            } else if prev.k == usize::MAX && self.skip_rates.ripple.is_none() {
                // Roster-wide fallback: a seed for a never-calibrated
                // ripple channel only. It upper-bounds any one margin's
                // movement — often by an order of magnitude — so once
                // genuine margin observations exist, letting an exact
                // (boundary-less) solve splice this bound back in would
                // replace measured physics with pessimism and stall the
                // skip path until the rate decayed back down.
                let rate = moved / n_edits;
                ripple_max = Some(ripple_max.map_or(rate, |m| m.max(rate)));
            }
        }
        // Decay on every observation opportunity, not only when a fresh
        // above-noise observation arrives. A wave whose movement stayed
        // under the noise floor is itself evidence the rate is at or
        // above the recent worst case, so letting it relax the bound is
        // sound — and without it a single pessimistic calibration (the
        // roster-wide `k == MAX` fallback is an upper bound on any one
        // margin, often by an order of magnitude) would pin the skip
        // path shut forever: a refusal regime produces solves whose
        // margin movement is sub-noise, which under observation-gated
        // decay would never release the rate that caused the refusals.
        let relaxed = |rate: Option<f64>, observed: Option<f64>| match (rate, observed) {
            (None, obs) => obs.map(|o| o.max(1e-12)),
            (Some(r), None) => Some((r * RATE_DECAY).max(1e-12)),
            (Some(r), Some(o)) => Some(o.max(1e-12).max(r * RATE_DECAY)),
        };
        self.skip_rates.direct = relaxed(self.skip_rates.direct, direct_max);
        self.skip_rates.ripple = relaxed(self.skip_rates.ripple, ripple_max);
    }

    /// Seeds the cache with an externally computed solution for the
    /// *prepared* version (the batched cold-refresh path of the session
    /// manager: solved via `rank_many`, state recovered from the scores —
    /// valid because every solver converges up to sign).
    pub fn seed_solution(&mut self, ranking: Ranking) {
        let state = SolveState::from_scores(ranking.scores.clone());
        self.cache.insert(CachedSolve {
            version: self.prepared_version,
            ranking,
            state,
        });
        self.carried_exact = None;
    }
}

/// Unit-L2 copy of a score vector (the coordinate system of the skip
/// path's perturbation bounds — raw solver scores are unit-norm only up
/// to the cumsum map).
fn unit_scores(scores: &[f64]) -> Vec<f64> {
    let mut out = scores.to_vec();
    hnd_linalg::vector::normalize(&mut out);
    out
}

/// Per-user authored-edit counts for a wave: how many of the wave's
/// edits each user wrote themselves. The direct channel of the skip
/// bound prices these; everyone else is covered by the per-edit ripple
/// rate, which needs no per-user bookkeeping.
fn wave_edit_counts(edits: &[ResponseEdit], m: usize) -> Vec<f64> {
    let mut counts = vec![0.0; m];
    for edit in edits {
        counts[edit.user] += 1.0;
    }
    counts
}

/// The best `min(k, m)` users of a ranking as `(user, score)` pairs.
/// Head of a cached approximate solve read off its precomputed order —
/// the serving fast path must not pay an O(m log m) re-sort per query.
/// (`order` was sorted on the unit-normalized scores; normalization is a
/// positive scaling, so the order and tie-breaks match [`head_of`] on
/// the raw scores exactly.)
fn head_from(prev: &ApproxSolve, k: usize) -> Vec<(usize, f64)> {
    prev.order
        .iter()
        .take(k)
        .map(|&u| (u, prev.ranking.scores[u]))
        .collect()
}

/// The first `min(k, m)` entries of [`best_first_order`] as `(user, score)`
/// pairs: the `k` best are selected and only they are sorted.
fn head_of(scores: &[f64], k: usize) -> Vec<(usize, f64)> {
    let mut keys = Vec::new();
    best_first_keys(scores, &mut keys);
    let k = k.min(keys.len());
    sort_extremes(&mut keys, k, 0);
    keys[..k]
        .iter()
        .map(|&key| (key_user(key), scores[key_user(key)]))
        .collect()
}

/// `user`'s position under the same descending-score, ascending-index
/// order as [`best_first_order`].
fn rank_position(scores: &[f64], user: usize) -> usize {
    let mine = scores[user];
    scores
        .iter()
        .enumerate()
        .filter(|&(u, &s)| s > mine || (s == mine && u < user))
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_engine() -> RankingEngine {
        RankingEngine::new(
            4,
            3,
            &[2, 2, 2],
            EngineOpts {
                solver_opts: SolverOpts {
                    orient: false,
                    ..Default::default()
                },
                ..Default::default()
            },
        )
        .unwrap()
    }

    #[test]
    fn submit_then_rank_then_cache_hit() {
        let mut engine = tiny_engine();
        engine
            .submit_responses([
                (0, 0, Some(0)),
                (0, 1, Some(0)),
                (1, 0, Some(0)),
                (1, 1, Some(1)),
                (2, 0, Some(1)),
                (2, 1, Some(1)),
                (3, 2, Some(1)),
            ])
            .unwrap();
        let first = engine.current_ranking().unwrap();
        assert_eq!(first.scores.len(), 4);
        let again = engine.current_ranking().unwrap();
        assert_eq!(first.scores, again.scores);
        let (hits, _) = engine.cache_stats();
        assert_eq!(hits, 1, "second call must be a cache hit");
        assert_eq!(engine.stats().cold_solves, 1);
    }

    #[test]
    fn incremental_edits_use_delta_and_warm_path() {
        let mut engine = tiny_engine();
        engine
            .submit_responses([
                (0, 0, Some(0)),
                (1, 0, Some(0)),
                (2, 0, Some(1)),
                (3, 0, Some(1)),
            ])
            .unwrap();
        engine.current_ranking().unwrap();
        // Trickle in three more answers.
        engine
            .submit_responses([(0, 1, Some(0)), (1, 1, Some(1)), (2, 2, Some(0))])
            .unwrap();
        engine.current_ranking().unwrap();
        let stats = engine.stats();
        assert_eq!(stats.rebuilds, 0, "deltas must patch in place");
        // Both the initial bulk load and the trickle ride the delta path.
        assert_eq!(stats.delta_applies, 2);
        assert_eq!(stats.warm_solves, 1);
        assert_eq!(stats.cold_solves, 1);
    }

    #[test]
    fn slack_exhaustion_falls_back_to_rebuild() {
        let mut engine = RankingEngine::new(
            3,
            2,
            &[2, 2],
            EngineOpts {
                row_slack: 0,
                col_slack: 0,
                ..Default::default()
            },
        )
        .unwrap();
        engine.submit_responses([(0, 0, Some(0))]).unwrap();
        engine.current_ranking().unwrap();
        // Zero slack: adding an answer cannot fit in place.
        engine.submit_responses([(1, 0, Some(0))]).unwrap();
        engine.current_ranking().unwrap();
        assert!(engine.stats().rebuilds >= 1);
        // Still correct: the served ranking matches a cold engine's.
        let mut cold = RankingEngine::new(3, 2, &[2, 2], *engine.opts()).unwrap();
        cold.submit_responses([(0, 0, Some(0)), (1, 0, Some(0))])
            .unwrap();
        let a = engine.current_ranking().unwrap();
        let b = cold.current_ranking().unwrap();
        assert_eq!(a.order_best_to_worst(), b.order_best_to_worst());
    }

    #[test]
    fn history_retention_bounds_submit_only_sessions() {
        // Regression: truncation used to be clamped to the last snapshot
        // version, which only advances on ranking reads — a submit-only
        // session grew its history forever despite the configured bound.
        let mut engine = RankingEngine::new(
            4,
            3,
            &[2, 2, 2],
            EngineOpts {
                history_retention: Some(8),
                solver_opts: SolverOpts {
                    orient: false,
                    ..Default::default()
                },
                ..Default::default()
            },
        )
        .unwrap();
        for round in 0..50u16 {
            engine
                .submit_responses([(0, 0, Some(round % 2)), (1, 1, Some((round + 1) % 2))])
                .unwrap();
        }
        assert_eq!(engine.version(), 100, "every write committed");
        assert_eq!(engine.log().history_len(), 8, "history stays bounded");

        // The truncated log still serves correctly (the next refresh is a
        // cold rebuild point, not a lie): same ranking as a fresh replica.
        let served = engine.current_ranking().unwrap();
        let mut replica = RankingEngine::new(4, 3, &[2, 2, 2], *engine.opts()).unwrap();
        for round in 0..50u16 {
            replica
                .submit_responses([(0, 0, Some(round % 2)), (1, 1, Some((round + 1) % 2))])
                .unwrap();
        }
        assert_eq!(served.scores, replica.current_ranking().unwrap().scores);
    }

    #[test]
    fn sharded_backend_agrees_with_single_and_counts_solves() {
        let mut opts = EngineOpts {
            solver_opts: SolverOpts {
                orient: false,
                ..Default::default()
            },
            ..Default::default()
        };
        let responses: Vec<(usize, usize, Option<u16>)> = (0..12)
            .flat_map(|j| (0..11).map(move |i| (j, i, Some(u16::from(j > i)))))
            .collect();
        let mut single = RankingEngine::new(12, 11, &[2; 11], opts).unwrap();
        single.submit_responses(responses.clone()).unwrap();
        let want = single.current_ranking().unwrap();

        opts.shard_plan = Some(hnd_shard::ShardPlan {
            min_users: 4, // activate immediately for this roster
            ..hnd_shard::ShardPlan::exactly(3)
        });
        let mut sharded = RankingEngine::new(12, 11, &[2; 11], opts).unwrap();
        assert!(sharded.is_sharded());
        assert_eq!(sharded.shard_count(), 3);
        sharded.submit_responses(responses).unwrap();
        let got = sharded.current_ranking().unwrap();
        assert_eq!(got.order_best_to_worst(), want.order_best_to_worst());
        for (a, b) in got.scores.iter().zip(&want.scores) {
            assert!((a - b).abs() <= 1e-12);
        }
        assert_eq!(sharded.stats().sharded_solves, 1);
        // Trickle an edit: the sharded delta path serves it (the bulk load
        // above legitimately rebuilt — it exceeds the patch budget).
        let rebuilds_after_load = sharded.stats().rebuilds;
        sharded.submit_responses([(0, 10, Some(1))]).unwrap();
        sharded.current_ranking().unwrap();
        assert_eq!(sharded.stats().sharded_solves, 2);
        assert_eq!(sharded.stats().rebuilds, rebuilds_after_load);
        assert_eq!(sharded.stats().delta_applies, 1);
    }

    #[test]
    fn session_growth_upgrades_to_sharded_backend() {
        let opts = EngineOpts {
            shard_plan: Some(hnd_shard::ShardPlan {
                min_users: usize::MAX, // activate on entry count only
                min_nnz: 20,
                target_shard_nnz: 10,
                min_shards: 2,
                max_shards: 4,
                ..Default::default()
            }),
            solver_opts: SolverOpts {
                orient: false,
                ..Default::default()
            },
            ..Default::default()
        };
        let mut engine = RankingEngine::new(10, 6, &[2; 6], opts).unwrap();
        assert!(!engine.is_sharded(), "small session starts single-shard");
        engine
            .submit_responses((0..10).map(|u| (u, 0, Some(0))))
            .unwrap();
        engine.current_ranking().unwrap();
        assert!(!engine.is_sharded(), "10 entries stay below the threshold");
        // Grow past min_nnz: the next advance upgrades the backend.
        engine
            .submit_responses((0..10).flat_map(|u| [(u, 1, Some(1)), (u, 2, Some(0))]))
            .unwrap();
        let upgraded = engine.current_ranking().unwrap();
        assert!(engine.is_sharded(), "growth past min_nnz upgrades");
        assert!(engine.shard_count() >= 2);
        assert!(engine.stats().shard_rebalances >= 1 || engine.stats().rebuilds >= 1);
        // Still serves the same ranking as a never-sharded engine.
        let mut plain = RankingEngine::new(
            10,
            6,
            &[2; 6],
            EngineOpts {
                shard_plan: None,
                ..opts
            },
        )
        .unwrap();
        plain
            .submit_responses((0..10).map(|u| (u, 0, Some(0))))
            .unwrap();
        plain
            .submit_responses((0..10).flat_map(|u| [(u, 1, Some(1)), (u, 2, Some(0))]))
            .unwrap();
        let want = plain.current_ranking().unwrap();
        assert_eq!(upgraded.order_best_to_worst(), want.order_best_to_worst());
    }

    #[test]
    fn bitmap_lanes_absorb_deltas_without_rebuilds() {
        // Forced-bitmap layout with ZERO slack: every edit is an O(1) bit
        // flip, so a long trickle stream must never fall back to a kernel
        // rebuild — the hybrid engine's core serving guarantee. (The same
        // stream under forced CSR with zero slack rebuilds immediately.)
        let mk = |plan: DensityPlan| {
            RankingEngine::new(
                6,
                4,
                &[2; 4],
                EngineOpts {
                    row_slack: 0,
                    col_slack: 0,
                    density_plan: plan,
                    solver_opts: SolverOpts {
                        orient: false,
                        ..Default::default()
                    },
                    ..Default::default()
                },
            )
            .unwrap()
        };
        let mut bitmap = mk(DensityPlan::force_bitmap());
        let mut csr = mk(DensityPlan::force_csr());
        bitmap
            .submit_responses([(0, 0, Some(0)), (1, 0, Some(1)), (2, 1, Some(0))])
            .unwrap();
        csr.submit_responses([(0, 0, Some(0)), (1, 0, Some(1)), (2, 1, Some(0))])
            .unwrap();
        let a = bitmap.current_ranking().unwrap();
        let b = csr.current_ranking().unwrap();
        for round in 0..10u16 {
            let wave = [
                (usize::from(round % 6), 2, Some(round % 2)),
                (
                    usize::from((round + 3) % 6),
                    3,
                    (round % 3 > 0).then_some(0),
                ),
            ];
            bitmap.submit_responses(wave).unwrap();
            csr.submit_responses(wave).unwrap();
            let a = bitmap.current_ranking().unwrap();
            let b = csr.current_ranking().unwrap();
            for (x, y) in a.scores.iter().zip(&b.scores) {
                assert!((x - y).abs() <= 1e-12, "hybrid ≡ CSR serving");
            }
        }
        assert_eq!(a.scores.len(), b.scores.len());
        let stats = bitmap.stats();
        assert_eq!(stats.rebuilds, 0, "bit flips never exhaust capacity");
        // Only waves with a net effect patch (repeat writes of the same
        // choice commit no edits), but several certainly do.
        assert!(stats.delta_applies >= 5, "waves ride the delta path");
        assert_eq!(stats.formats.sparse_rows, 0, "forced-bitmap layout");
        assert_eq!(stats.formats.bitmap_rows, 6);
        assert_eq!(stats.formats.bitmap_cols, 8);
        assert!(
            csr.stats().rebuilds > 0,
            "zero-slack CSR control must rebuild"
        );
    }

    #[test]
    fn bitmap_edits_are_excluded_from_the_patch_budget() {
        // Regression (PR 6): the delta-vs-rebuild cutoff used to count
        // every edit, including O(1) bitmap bit flips that burn no slack —
        // so a forced-bitmap session under heavy waves hit the ~nnz/8
        // budget and rebuilt for nothing. Bitmap-lane edits are now
        // weightless: however heavy the wave, rebuilds stay at zero.
        let mut engine = RankingEngine::new(
            8,
            6,
            &[2; 6],
            EngineOpts {
                row_slack: 0,
                col_slack: 0,
                density_plan: DensityPlan::force_bitmap(),
                planner: None, // the fallback budget path is under test
                solver_opts: SolverOpts {
                    orient: false,
                    ..Default::default()
                },
                ..Default::default()
            },
        )
        .unwrap();
        // Seed a few entries, then rank so the baseline is prepared.
        engine
            .submit_responses([(0, 0, Some(0)), (1, 0, Some(1)), (2, 1, Some(0))])
            .unwrap();
        engine.current_ranking().unwrap();
        let nnz = engine.matrix().row_counts().iter().sum::<usize>();
        for wave in 0..6u16 {
            // Each wave flips far more edits than the old budget
            // (nnz/8 + 16 ≈ 16) would ever admit.
            let edits: Vec<(usize, usize, Option<u16>)> = (0..8)
                .flat_map(|u| {
                    (0..6).map(move |i| {
                        (
                            u,
                            i,
                            (!(u + i + wave as usize).is_multiple_of(3))
                                .then_some(((u + i + wave as usize) % 2) as u16),
                        )
                    })
                })
                .collect();
            assert!(edits.len() > nnz / 8 + 16, "waves must be budget-heavy");
            engine.submit_responses(edits).unwrap();
            engine.current_ranking().unwrap();
        }
        let stats = engine.stats();
        assert_eq!(stats.rebuilds, 0, "bitmap flips never trip the budget");
        assert!(stats.delta_applies >= 6, "every wave rides the delta path");
    }

    #[test]
    fn planner_decisions_drive_the_engine() {
        use hnd_plan::{calibrate, CalibrationOpts};
        use std::sync::OnceLock;
        static PLANNER: OnceLock<&'static Planner> = OnceLock::new();
        let planner =
            *PLANNER.get_or_init(|| Planner::leaked(calibrate(&CalibrationOpts::quick())));
        let opts = EngineOpts {
            planner: Some(planner),
            plan_mode: PlanMode::Auto,
            solver_opts: SolverOpts {
                orient: false,
                ..Default::default()
            },
            ..Default::default()
        };
        let mut engine = RankingEngine::new(20, 8, &[2; 8], opts).unwrap();
        let decision = *engine.plan_decision().expect("planner active");
        assert!(decision.patch_budget >= 16);
        assert_eq!(decision.shards, 1, "tiny roster stays single backend");
        engine
            .submit_responses((0..20).map(|u| (u, u % 8, Some(0))))
            .unwrap();
        let planned = engine.current_ranking().unwrap();

        // Identical results on the static fallback path.
        let mut fallback = RankingEngine::new(
            20,
            8,
            &[2; 8],
            EngineOpts {
                plan_mode: PlanMode::Static,
                ..opts
            },
        )
        .unwrap();
        assert!(
            fallback.plan_decision().is_none(),
            "Static mode pins the hand-tuned constants"
        );
        fallback
            .submit_responses((0..20).map(|u| (u, u % 8, Some(0))))
            .unwrap();
        let pinned = fallback.current_ranking().unwrap();
        for (a, b) in planned.scores.iter().zip(&pinned.scores) {
            assert!((a - b).abs() <= 1e-12, "planned ≡ static serving");
        }

        // Solve feedback reached the stats and the planner.
        let stats = engine.stats();
        assert!(stats.predicted_solve_ns > 0);
        assert!(stats.actual_solve_ns > 0);
        assert!(planner.drift()[KernelClass::Solve.index()].is_some());
    }

    #[test]
    fn pinned_options_outrank_the_planner() {
        use hnd_plan::{calibrate, CalibrationOpts};
        use std::sync::OnceLock;
        static PLANNER: OnceLock<&'static Planner> = OnceLock::new();
        let planner =
            *PLANNER.get_or_init(|| Planner::leaked(calibrate(&CalibrationOpts::quick())));
        // A pinned shard plan keeps PR-5 activation even with a planner.
        let opts = EngineOpts {
            planner: Some(planner),
            plan_mode: PlanMode::Auto,
            shard_plan: Some(hnd_shard::ShardPlan {
                min_users: 4,
                ..hnd_shard::ShardPlan::exactly(3)
            }),
            solver_opts: SolverOpts {
                orient: false,
                ..Default::default()
            },
            ..Default::default()
        };
        let engine = RankingEngine::new(12, 5, &[2; 5], opts).unwrap();
        assert!(engine.is_sharded(), "pinned plan activates as configured");
        assert_eq!(engine.shard_count(), 3, "pinned shard count is honored");
        // A non-default density plan overrides the measured break-evens.
        let forced = EngineOpts {
            planner: Some(planner),
            plan_mode: PlanMode::Auto,
            density_plan: DensityPlan::force_csr(),
            shard_plan: None,
            ..opts
        };
        let engine = RankingEngine::new(12, 5, &[2; 5], forced).unwrap();
        let decision = engine.plan_decision().expect("planner still consulted");
        assert_eq!(
            decision.density_plan,
            DensityPlan::force_csr(),
            "explicit density plan wins over the measured thresholds"
        );
    }

    #[test]
    fn version_tracks_log() {
        let mut engine = tiny_engine();
        assert_eq!(engine.version(), 0);
        engine.submit_responses([(0, 0, Some(0))]).unwrap();
        assert_eq!(engine.version(), 1);
        assert!(!engine.is_current());
        engine.current_ranking().unwrap();
        assert!(engine.is_current());
    }

    /// The order the engine used before packed keys, for NaN-free scores.
    fn comparator_order(scores: &[f64]) -> Vec<usize> {
        let mut order: Vec<usize> = (0..scores.len()).collect();
        order.sort_by(|&a, &b| scores[b].partial_cmp(&scores[a]).unwrap().then(a.cmp(&b)));
        order
    }

    #[test]
    fn packed_orders_match_the_comparator_and_nan_sorts_last() {
        let palette = [-1.0, -5e-324, -0.0, 0.0, 5e-324, 0.5, 1.0, f64::NAN];
        let mut state = 7u64;
        for case in 0..300 {
            let m = 1 + case % 40;
            let scores: Vec<f64> = (0..m)
                .map(|_| {
                    state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                    // NaN only in every third case.
                    let span = if case % 3 == 0 { 8 } else { 7 };
                    palette[(state >> 33) as usize % span]
                })
                .collect();
            // Numbers in comparator order, then NaNs by index.
            let numbers: Vec<f64> = scores
                .iter()
                .map(|s| if s.is_nan() { 0.0 } else { *s })
                .collect();
            let mut want: Vec<usize> = comparator_order(&numbers)
                .into_iter()
                .filter(|&u| !scores[u].is_nan())
                .collect();
            want.extend((0..m).filter(|&u| scores[u].is_nan()));
            assert_eq!(best_first_order(&scores), want, "case {case}");
            for k in [0, 1, m / 2, m, m + 3] {
                let head: Vec<usize> = head_of(&scores, k).into_iter().map(|(u, _)| u).collect();
                assert_eq!(head, want[..k.min(m)], "case {case} k {k}");
            }
        }
    }
}
