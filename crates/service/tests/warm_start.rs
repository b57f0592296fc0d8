//! The serving-layer acceptance tests: after a small delta, the
//! incremental path (delta-patch + warm solve) must agree with a cold
//! solve to tolerance, converge in strictly fewer iterations, and must
//! never rebuild the full CSR — the latter enforced both by the engine's
//! rebuild counter and by a byte-counting global allocator that bounds the
//! incremental path's allocations far below the pattern's size.
//!
//! The allocator counts every thread of the process, so each test holds
//! [`serial`] for its whole body: tests of this file running on parallel
//! harness threads would otherwise charge their allocations to whichever
//! test is measuring.

use hnd_service::{EngineOpts, RankingEngine, SolverKind, SolverOpts};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

struct CountingAllocator;

static BYTES: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn allocated_bytes() -> u64 {
    BYTES.load(Ordering::Relaxed)
}

/// Serializes this file's tests (see the module docs). A test that failed
/// while holding the lock poisons it; the others still run.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// A seeded IRT instance bulk-loaded into an engine.
fn seeded_engine(m: usize, n: usize, opts: EngineOpts) -> (RankingEngine, u16) {
    let mut rng = StdRng::seed_from_u64(2024);
    let ds = hnd_irt::generate(
        &hnd_irt::GeneratorConfig {
            n_users: m,
            n_items: n,
            ..Default::default()
        },
        &mut rng,
    );
    let k = ds.responses.max_options();
    let mut engine = RankingEngine::new(
        m,
        n,
        &(0..n)
            .map(|i| ds.responses.options_of(i))
            .collect::<Vec<_>>(),
        opts,
    )
    .unwrap();
    engine
        .submit_responses(ds.responses.iter_choices().map(|(u, i, o)| (u, i, Some(o))))
        .unwrap();
    (engine, k)
}

fn unoriented_opts() -> EngineOpts {
    EngineOpts {
        solver: SolverKind::Power,
        solver_opts: SolverOpts {
            orient: false,
            ..Default::default()
        },
        ..Default::default()
    }
}

/// A small delta guaranteed to change state: `count` users flip their
/// current answer on item 0 to the next option.
fn small_delta(engine: &RankingEngine, count: usize) -> Vec<(usize, usize, Option<u16>)> {
    let matrix = engine.matrix();
    let k = matrix.options_of(0);
    (0..count)
        .map(|u| {
            let user = 3 * u + 1;
            let next = match matrix.choice(user, 0) {
                Some(opt) => (opt + 1) % k,
                None => 0,
            };
            (user, 0, Some(next))
        })
        .collect()
}

#[test]
fn warm_solve_after_small_delta_matches_cold_and_iterates_less() {
    let _serial = serial();
    let (mut engine, _k) = seeded_engine(400, 60, unoriented_opts());
    engine.current_ranking().unwrap();

    let delta = small_delta(&engine, 8);
    engine.submit_responses(delta.iter().copied()).unwrap();
    let warm = engine.current_ranking().unwrap();
    let warm_iters = engine.stats().last_iterations;
    assert_eq!(engine.stats().warm_solves, 1);

    // Cold reference at the same state: fresh engine, same edits.
    let (mut cold_engine, _) = seeded_engine(400, 60, unoriented_opts());
    cold_engine.submit_responses(delta).unwrap();
    let cold = cold_engine.current_ranking().unwrap();
    let cold_iters = cold_engine.stats().last_iterations;

    // Strictly fewer iterations on this seeded instance.
    assert!(
        warm_iters < cold_iters,
        "warm ({warm_iters}) must beat cold ({cold_iters})"
    );

    // Tolerance-level agreement: same ranking up to the C1P reversal
    // symmetry, and score vectors close in the sign-invariant L2 sense
    // once both are normalized.
    let wo = warm.order_best_to_worst();
    let co = cold.order_best_to_worst();
    let rev: Vec<usize> = co.iter().rev().copied().collect();
    assert!(wo == co || wo == rev, "orders diverge");
    let normalize = |v: &[f64]| {
        let n = (v.iter().map(|x| x * x).sum::<f64>()).sqrt();
        v.iter().map(|x| x / n).collect::<Vec<f64>>()
    };
    let a = normalize(&warm.scores);
    let b = normalize(&cold.scores);
    let dist_direct: f64 = a
        .iter()
        .zip(&b)
        .map(|(x, y)| (x - y) * (x - y))
        .sum::<f64>()
        .sqrt();
    let dist_flipped: f64 = a
        .iter()
        .zip(&b)
        .map(|(x, y)| (x + y) * (x + y))
        .sum::<f64>()
        .sqrt();
    let dist = dist_direct.min(dist_flipped);
    // Both solves stop at tol = 1e-5; their fixed points agree to a small
    // multiple of that.
    assert!(dist < 1e-3, "score vectors too far apart: {dist}");
}

#[test]
fn incremental_path_never_rebuilds_the_csr() {
    let _serial = serial();
    let m = 800;
    let n = 80;
    let (mut engine, _k) = seeded_engine(m, n, unoriented_opts());
    engine.current_ranking().unwrap();
    let baseline_rebuilds = engine.stats().rebuilds;

    // nnz of the pattern ≈ m·n answers; a full rebuild allocates at least
    // 2 index arrays (CSR + CSC) of 4 bytes each plus pointers — use the
    // index-array floor as the "rebuild-sized" yardstick.
    let nnz = engine.matrix().row_counts().iter().sum::<usize>();
    let rebuild_floor_bytes = (2 * 4 * nnz) as u64;

    for round in 0..5 {
        let delta = small_delta(&engine, 4 + round);
        engine.submit_responses(delta).unwrap();
        let before = allocated_bytes();
        engine.current_ranking().unwrap();
        let spent = allocated_bytes() - before;
        // The incremental refresh allocates iteration vectors (O(m) floats)
        // and clones for the cache — but never anything CSR-sized.
        assert!(
            spent < rebuild_floor_bytes / 4,
            "round {round}: incremental refresh allocated {spent} bytes, \
             suspiciously close to a {rebuild_floor_bytes}-byte rebuild"
        );
    }
    let stats = engine.stats();
    assert_eq!(
        stats.rebuilds, baseline_rebuilds,
        "delta-serving must not rebuild the kernel context"
    );
    // The bulk load itself rebuilt (64k answers dwarf any slack); all five
    // trickle rounds must have been in-place patches.
    assert_eq!(stats.delta_applies, 5, "every refresh was a delta patch");
    assert_eq!(stats.warm_solves, 5);

    // And the warm solves stay cheap: far fewer iterations than the cold
    // solve needed.
    assert!(
        stats.last_iterations <= 10,
        "warm solve took {} iterations",
        stats.last_iterations
    );
}

#[test]
fn zero_slack_engine_still_serves_correctly_via_rebuilds() {
    let _serial = serial();
    // The rebuild fallback is exercised (and counted) when slack is off.
    let opts = EngineOpts {
        row_slack: 0,
        col_slack: 0,
        ..unoriented_opts()
    };
    let (mut engine, _k) = seeded_engine(60, 20, opts);
    engine.current_ranking().unwrap();
    let delta = small_delta(&engine, 3);
    engine.submit_responses(delta.iter().copied()).unwrap();
    let served = engine.current_ranking().unwrap();
    assert!(engine.stats().rebuilds >= 1, "zero slack must rebuild");

    let (mut reference, _) = seeded_engine(60, 20, unoriented_opts());
    reference.submit_responses(delta).unwrap();
    let expected = reference.current_ranking().unwrap();
    let so = served.order_best_to_worst();
    let eo = expected.order_best_to_worst();
    let rev: Vec<usize> = eo.iter().rev().copied().collect();
    assert!(so == eo || so == rev);
}
