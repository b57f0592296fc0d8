//! Warm restore: an evicted or spilled session keeps its engine's last
//! solve ([`hnd_service::WarmState`]) in memory, so the rebuilt engine's
//! first solve warm-starts from the very vector a never-evicted engine
//! would. For exact-tier schedules the served scores must therefore be
//! *bitwise* those of a twin engine that was never evicted — across
//! in-memory eviction and store spill, under the static fallback plan and
//! under a planner calibrated on this machine — and a restore that carries
//! state must not add a cold solve.

use hnd_linalg::DensityPlan;
use hnd_plan::{calibrate, CalibrationOpts, PlanMode, Planner};
use hnd_service::{
    EngineOpts, FaultKind, FaultOp, FaultPlan, RankingEngine, ServerError, ServerOpts,
    SessionManager, SessionServer, SessionStore, SolverOpts, StoreOpts,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;
use std::sync::{Arc, OnceLock};

const ITEMS: usize = 30;
const OPTIONS: u16 = 4;
const ROUNDS: usize = 6;

fn temp_dir(tag: &str) -> std::path::PathBuf {
    static UNIQUE: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let k = UNIQUE.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let dir =
        std::env::temp_dir().join(format!("hnd-warm-restore-{}-{tag}-{k}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// One calibration pass shared by every planner-mode case.
fn planner() -> &'static Planner {
    static PLANNER: OnceLock<&'static Planner> = OnceLock::new();
    PLANNER.get_or_init(|| Planner::leaked(calibrate(&CalibrationOpts::quick())))
}

fn opts(mode: PlanMode) -> EngineOpts {
    EngineOpts {
        solver_opts: SolverOpts::default(),
        plan_mode: mode,
        planner: match mode {
            PlanMode::Auto => Some(planner()),
            PlanMode::Static => None,
        },
        ..Default::default()
    }
}

/// The lane-format policies of the bitwise cases. Formats are
/// re-evaluated at every rebuild, so a restore after edits can flip a
/// lane whose density sits on a threshold while the never-evicted twin
/// keeps it — and a bitmap lane agrees with its CSR twin to rounding,
/// not bitwise (`hnd_linalg::hybrid`). Each case therefore fixes every
/// lane's format: m = 120 is below the plans' `min_dim` (all CSR under
/// any plan), and m = 2000 pins all-bitmap or all-CSR lanes. A pinned
/// density plan overrides only the planner's thresholds; it still picks
/// the backend, the shard count and the patch budget.
fn format_cases(mode: PlanMode) -> [(usize, DensityPlan); 2] {
    [
        (120, DensityPlan::default()),
        (
            2000,
            match mode {
                PlanMode::Static => DensityPlan::force_bitmap(),
                PlanMode::Auto => DensityPlan::force_csr(),
            },
        ),
    ]
}

/// A seeded IRT roster of `m` users, every cell answered.
fn bulk_load(m: usize, seed: u64) -> Vec<(usize, usize, Option<u16>)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let ds = hnd_irt::generate(
        &hnd_irt::GeneratorConfig {
            n_users: m,
            n_items: ITEMS,
            n_options: OPTIONS,
            ..Default::default()
        },
        &mut rng,
    );
    ds.responses
        .iter_choices()
        .map(|(u, i, o)| (u, i, Some(o)))
        .collect()
}

/// A wave of `count` seeded edits.
fn wave(rng: &mut StdRng, m: usize, count: usize) -> Vec<(usize, usize, Option<u16>)> {
    (0..count)
        .map(|_| {
            (
                rng.gen_range(0..m),
                rng.gen_range(0..ITEMS),
                Some(rng.gen_range(0..OPTIONS)),
            )
        })
        .collect()
}

/// Where an eviction sends the session.
#[derive(Debug, Clone, Copy)]
enum Evict {
    /// The log stays in memory.
    Memory,
    /// The log spills to an attached store.
    Store,
}

/// The best `k` users, as a set.
fn head(scores: &[f64], k: usize) -> BTreeSet<usize> {
    let mut order: Vec<usize> = (0..scores.len()).collect();
    order.sort_by(|&a, &b| scores[b].total_cmp(&scores[a]).then(a.cmp(&b)));
    order.into_iter().take(k).collect()
}

/// Evict → submit → exact solve, `ROUNDS` times, against a never-evicted
/// twin fed the identical schedule. Some rounds read twice (the second
/// read is a cache hit on both sides) and some evict twice in a row.
fn exact_schedule_matches_never_evicted(
    m: usize,
    density_plan: DensityPlan,
    mode: PlanMode,
    evict: Evict,
) {
    let tag = format!("{mode:?}-{evict:?}-{m}");
    let opts = EngineOpts {
        density_plan,
        ..opts(mode)
    };
    let dir = temp_dir(&tag);
    let mut fleet = match evict {
        Evict::Memory => SessionManager::new(opts),
        Evict::Store => SessionManager::with_store(
            opts,
            Arc::new(SessionStore::open(&dir, StoreOpts::default()).unwrap()),
        ),
    };
    let options = [OPTIONS; ITEMS];
    let id = fleet.create_session(m, ITEMS, &options).unwrap();
    let mut twin = RankingEngine::new(m, ITEMS, &options, opts).unwrap();
    let load = bulk_load(m, 7 + m as u64);
    fleet.submit_responses(id, load.iter().copied()).unwrap();
    twin.submit_responses(load).unwrap();
    assert_eq!(
        fleet.current_ranking(id).unwrap().scores,
        twin.current_ranking().unwrap().scores,
        "{tag}: first (cold) solve"
    );
    let cold_after_load = fleet.aggregate_engine_stats().cold_solves;
    assert_eq!(cold_after_load, 1, "{tag}: only the bulk load solves cold");

    let mut rng = StdRng::seed_from_u64(99);
    for round in 0..ROUNDS {
        assert!(fleet.evict_session(id), "{tag} round {round}: evict");
        match evict {
            Evict::Memory => assert!(fleet.is_evicted(id) && !fleet.is_spilled(id)),
            Evict::Store => assert!(fleet.is_spilled(id), "{tag}: store-backed eviction spills"),
        }
        if round == 2 {
            // Rebuild at an unchanged version: both sides answer the read
            // from the cached solve — no solve at all.
            let served = fleet.current_ranking(id).unwrap();
            assert_eq!(served.scores, twin.current_ranking().unwrap().scores);
            assert!(fleet.evict_session(id));
        }
        let edits = wave(&mut rng, m, 4 + 2 * round);
        // Alternate the two rebuild entry points: the synchronous serving
        // path and the checkout a server worker uses.
        let served = if round % 2 == 0 {
            fleet.submit_responses(id, edits.iter().copied()).unwrap();
            fleet.current_ranking(id).unwrap()
        } else {
            let mut engine = fleet.take_engine(id).unwrap();
            engine.submit_responses(edits.iter().copied()).unwrap();
            let served = engine.current_ranking().unwrap();
            fleet.put_engine(id, engine).unwrap();
            served
        };
        twin.submit_responses(edits).unwrap();
        let reference = twin.current_ranking().unwrap();
        let restored = fleet.session(id).unwrap();
        assert_eq!(restored.stats().formats, twin.stats().formats, "{tag}");
        assert_eq!(
            served.scores, reference.scores,
            "{tag} round {round}: warm-restored scores differ from the never-evicted engine"
        );
        assert_eq!(restored.stats().warm_solves, 1, "{tag} round {round}");
        assert_eq!(
            fleet.aggregate_engine_stats().cold_solves,
            cold_after_load,
            "{tag} round {round}: a restore that carries state added a cold solve"
        );
        if round % 2 == 1 {
            // A read twice at one version is a cache hit on both sides.
            assert_eq!(
                fleet.current_ranking(id).unwrap().scores,
                twin.current_ranking().unwrap().scores
            );
        }
    }
    let stats = fleet.stats();
    assert_eq!(stats.evictions, ROUNDS as u64 + 1, "{tag}");
    assert_eq!(stats.rehydrations, stats.evictions, "{tag}");
    assert_eq!(stats.warm_restores, stats.rehydrations, "{tag}");
    match evict {
        Evict::Memory => assert_eq!(stats.restores, 0),
        Evict::Store => {
            assert_eq!(stats.restores, stats.rehydrations);
            assert_eq!(stats.store_errors, 0);
        }
    }
    drop(fleet);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn warm_restore_is_bitwise_never_evicted_static_plan() {
    for evict in [Evict::Memory, Evict::Store] {
        for (m, density) in format_cases(PlanMode::Static) {
            exact_schedule_matches_never_evicted(m, density, PlanMode::Static, evict);
        }
    }
}

#[test]
fn warm_restore_is_bitwise_never_evicted_calibrated_planner() {
    for evict in [Evict::Memory, Evict::Store] {
        for (m, density) in format_cases(PlanMode::Auto) {
            exact_schedule_matches_never_evicted(m, density, PlanMode::Auto, evict);
        }
    }
}

/// Certified `top_k` reads after a warm restore — the first one resuming
/// from the carried exact state, later ones from carried approximate
/// scores — must return the exact top-k membership of a tight reference
/// solve over the same log.
#[test]
fn certified_reads_after_warm_restore_match_exact_membership() {
    let (m, k) = (400, 10);
    let opts = opts(PlanMode::Static);
    let dir = temp_dir("certified");
    let store = Arc::new(SessionStore::open(&dir, StoreOpts::default()).unwrap());
    let mut fleet = SessionManager::with_store(opts, store);
    let options = [OPTIONS; ITEMS];
    let id = fleet.create_session(m, ITEMS, &options).unwrap();
    fleet.submit_responses(id, bulk_load(m, 3)).unwrap();
    fleet.current_ranking(id).unwrap();

    let tight = EngineOpts {
        solver_opts: SolverOpts {
            tol: 1e-12,
            max_iter: 100_000,
            ..SolverOpts::default()
        },
        ..opts
    };
    let mut rng = StdRng::seed_from_u64(5);
    for round in 0..ROUNDS {
        assert!(fleet.evict_session(id));
        let mut engine = fleet.take_engine(id).unwrap();
        engine.submit_responses(wave(&mut rng, m, 6)).unwrap();
        let served: BTreeSet<usize> = engine.top_k(k).unwrap().iter().map(|&(u, _)| u).collect();
        assert_eq!(engine.stats().cold_solves, 0, "round {round}: solved cold");
        let reference = RankingEngine::from_log(engine.log().clone(), tight)
            .unwrap()
            .current_ranking()
            .unwrap();
        assert_eq!(
            served,
            head(&reference.scores, k),
            "round {round}: certified top-{k} after a warm restore"
        );
        fleet.put_engine(id, engine).unwrap();
    }
    assert_eq!(fleet.stats().warm_restores, ROUNDS as u64);
    drop(fleet);
    std::fs::remove_dir_all(&dir).ok();
}

/// Sessions that were solved, evicted and then edited carry warm state, so
/// a forced cold batch must leave them out: each is solved warm on its own
/// and serves exactly what an unbatched server serves. (Before, the batch
/// pulled them into one cold `rank_many` pass and dropped the warm start.)
#[test]
fn cold_batch_leaves_warm_restores_to_warm_solves() {
    let sessions = 5;
    let m = 60;
    let run = |cold_batch: usize| -> (Vec<Vec<f64>>, u64, u64, u64) {
        let srv = SessionServer::new(ServerOpts {
            workers: 1,
            // Tick-0 idle threshold: every check-in re-evicts.
            idle_threshold: Some(0),
            engine: opts(PlanMode::Static),
            cold_batch,
            ..Default::default()
        });
        let ids: Vec<_> = (0..sessions)
            .map(|s| {
                let id = srv.create_session(m, ITEMS, &[OPTIONS; ITEMS]).unwrap();
                srv.submit(id, bulk_load(m, 40 + s as u64)).wait().unwrap();
                srv.ranking(id).wait_settled().unwrap();
                id
            })
            .collect();
        let mut rng = StdRng::seed_from_u64(11);
        for &id in &ids {
            srv.submit(id, wave(&mut rng, m, 5)).wait_settled().unwrap();
        }
        srv.evict_idle();
        // One pipelined read per session: a cold batch, were it to form,
        // would take all of them into one rank_many pass.
        let reads: Vec<_> = ids.iter().map(|&id| srv.ranking(id)).collect();
        let scores = reads
            .into_iter()
            .map(|read| read.wait_settled().unwrap().scores)
            .collect();
        let metrics = srv.metrics();
        let counter = |name: &str| metrics.get_counter(name).unwrap();
        (
            scores,
            counter("engine_warm_solves"),
            counter("engine_cold_solves"),
            counter("manager_warm_restores"),
        )
    };
    let (unbatched, ..) = run(1);
    let (batched, warm_solves, cold_solves, warm_restores) = run(8);
    assert_eq!(batched, unbatched, "batching changed served scores");
    assert_eq!(
        warm_solves, sessions as u64,
        "every edited session solved warm"
    );
    assert_eq!(
        cold_solves, sessions as u64,
        "only the bulk loads solved cold"
    );
    assert!(warm_restores >= sessions as u64);
}

/// A restore whose store load fails (a hard read fault, injected after
/// the spill) rejects the drained read with a store error, counts it, and
/// leaves the session spilled with its warm state: once the fault is gone
/// the next read restores warm, with no cold solve.
#[test]
fn failed_restore_keeps_the_session_spilled_and_warm() {
    let dir = temp_dir("failed-restore");
    let store = Arc::new(SessionStore::open(&dir, StoreOpts::default()).unwrap());
    let srv = SessionServer::with_store(
        ServerOpts {
            workers: 1,
            idle_threshold: Some(0),
            engine: opts(PlanMode::Static),
            ..Default::default()
        },
        Arc::clone(&store),
    );
    let id = srv.create_session(50, ITEMS, &[OPTIONS; ITEMS]).unwrap();
    srv.submit(id, bulk_load(50, 8)).wait().unwrap();
    let before = srv.ranking(id).wait_settled().unwrap();
    srv.evict_idle();
    assert!(srv.is_evicted(id));
    let spilled = srv.manager_stats();

    store.inject_faults(Arc::new(FaultPlan::scripted([(
        FaultOp::WalRead,
        0,
        FaultKind::Hard,
    )])));
    let failed = srv.ranking(id).wait_settled();
    assert!(
        matches!(failed, Err(ServerError::Store(_))),
        "expected a store error, got {failed:?}"
    );
    let after_failure = srv.manager_stats();
    assert_eq!(after_failure.store_errors, spilled.store_errors + 1);
    assert_eq!(after_failure.restores, spilled.restores);
    assert_eq!(after_failure.warm_restores, spilled.warm_restores);
    assert!(srv.is_evicted(id), "the slot goes back to spilled");

    let served = srv.ranking(id).wait_settled().unwrap();
    assert_eq!(
        served.scores, before.scores,
        "a cache hit on the carried solve"
    );
    let stats = srv.manager_stats();
    assert_eq!(stats.restores, spilled.restores + 1);
    assert_eq!(stats.warm_restores, spilled.warm_restores + 1);
    let metrics = srv.metrics();
    assert_eq!(metrics.get_counter("engine_cold_solves"), Some(1));
    assert!(metrics.to_text().contains("manager_warm_restores"));
    assert!(metrics.get_counter("telemetry_warm_checkouts").unwrap() >= 1);
    let trace = srv.trace_dump().to_json();
    assert!(
        trace.contains("\"warm\": true") || trace.contains("\"warm\":true"),
        "the restore's checkout event carries the warm flag"
    );
    drop(srv);
    std::fs::remove_dir_all(&dir).ok();
}
