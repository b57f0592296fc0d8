//! The approximate-serving contract of [`RankingEngine`]: tiered queries,
//! the rank-stability delta-skip fast path, and the exactness guarantees
//! around both.
//!
//! The bitwise oracle used here is the *matched-warm-chain* reference: a
//! second engine fed the same edits, solving at exactly the versions the
//! engine under test ran its exact solves — same cold start, same
//! warm-start lineage, hence bitwise-equal scores. (Comparing against an
//! engine that solved at every wave would be a different warm chain and
//! only order-equal.)

use hnd_core::{SolverOpts, Target};
use hnd_service::{EngineOpts, QueryTier, RankingEngine};

fn opts() -> EngineOpts {
    EngineOpts {
        solver_opts: SolverOpts {
            orient: false,
            ..Default::default()
        },
        planner: None, // deterministic: no per-host catalog influence
        ..Default::default()
    }
}

/// All-cuts staircase responses: user j answers item i correctly iff
/// j > i — well-separated scores, the friendly case for certification.
fn staircase(m: usize) -> Vec<(usize, usize, Option<u16>)> {
    (0..m)
        .flat_map(|j| (0..m - 1).map(move |i| (j, i, Some(u16::from(j > i)))))
        .collect()
}

fn engine(m: usize) -> RankingEngine {
    let mut e = RankingEngine::new(m, m - 1, &vec![2; m - 1], opts()).unwrap();
    e.submit_responses(staircase(m)).unwrap();
    e
}

#[test]
fn certified_top_k_matches_exact_and_counts_early_termination() {
    // A tight tolerance makes the exact solve run long enough for the
    // certificate (which needs a few convergence-rate windows before it
    // may fire) to terminate well short of it.
    let tight = || {
        let mut o = opts();
        o.solver_opts.tol = 1e-13;
        o
    };
    let m = 24;
    let build = |o: EngineOpts| {
        let mut e = RankingEngine::new(m, m - 1, &vec![2; m - 1], o).unwrap();
        e.submit_responses(staircase(m)).unwrap();
        e
    };
    let mut certified = build(tight());
    let mut exact = build(tight());
    let top = certified.top_k(5).unwrap();
    let want = exact.top_k_tier(5, QueryTier::Exact).unwrap();
    assert_eq!(top.len(), 5);
    let users = |v: &[(usize, f64)]| v.iter().map(|&(u, _)| u).collect::<Vec<_>>();
    assert_eq!(users(&top), users(&want), "certified head ≡ exact head");
    // The staircase has well-separated scores: the certificate fires well
    // before the exact tolerance on a roster this size.
    let stats = certified.stats();
    assert_eq!(stats.early_terminations, 1, "certificate fired");
    assert!(stats.iterations_saved > 0);
    assert!(
        certified.stats().last_iterations < exact.stats().last_iterations,
        "certified {} vs exact {}",
        certified.stats().last_iterations,
        exact.stats().last_iterations
    );
}

#[test]
fn coarse_tier_is_capped_and_uncertified() {
    let mut e = engine(32);
    let top = e.top_k_tier(3, QueryTier::Coarse).unwrap();
    assert_eq!(top.len(), 3);
    assert!(
        e.stats().last_iterations <= hnd_service::COARSE_MAX_ITER,
        "coarse solves stop at the cap"
    );
}

#[test]
fn rank_of_tiers_agree_on_separated_scores() {
    let m = 20;
    let mut e = engine(m);
    for user in [0, m / 2, m - 1] {
        let exact = e.rank_of_tier(user, QueryTier::Exact).unwrap();
        let certified = e.rank_of(user).unwrap();
        assert_eq!(exact, certified, "user {user}");
    }
    assert!(e.rank_of(m).is_err(), "out-of-roster user rejected");
}

#[test]
fn tiny_waves_skip_solves_and_exactness_is_restored_bitwise() {
    let m = 16;
    let k = 3;
    let mut e = engine(m);
    // Warm up the approx slot (certified solve at the bulk version).
    e.top_k(k).unwrap();
    // Calibration wave: one mid-roster flip, then an exact solve — the
    // engine measures how far one edit actually moves the scores.
    e.submit_responses([(m / 2, 0, Some(0))]).unwrap();
    let calibrated = e.current_ranking().unwrap();

    // Tiny far-from-boundary waves: single mid-roster edits whose bounded
    // influence cannot reach the top-3 (or bottom-3) gaps.
    let mut skipped_heads = Vec::new();
    for round in 0..4u16 {
        e.submit_responses([(m / 2 + 1, 1, Some(round % 2))])
            .unwrap();
        skipped_heads.push(e.top_k(k).unwrap());
    }
    let stats = e.stats();
    assert!(
        stats.skipped_solves > 0,
        "far-from-boundary waves must skip (got {stats:?})"
    );
    // Every skip served the calibrated ranking's head.
    let want_users: Vec<usize> = calibrated
        .order_best_to_worst()
        .into_iter()
        .take(k)
        .collect();
    for head in &skipped_heads {
        let got: Vec<usize> = head.iter().map(|&(u, _)| u).collect();
        assert_eq!(got, want_users, "skip serves the certified stale head");
    }

    // An exact query drains everything and restores exactness — bitwise
    // equal to the matched-warm-chain reference (same submits, solving at
    // the same two versions this engine ran exact solves at).
    let served = e.current_ranking().unwrap();
    let mut reference = engine(m);
    reference.submit_responses([(m / 2, 0, Some(0))]).unwrap();
    reference.current_ranking().unwrap();
    for round in 0..4u16 {
        reference
            .submit_responses([(m / 2 + 1, 1, Some(round % 2))])
            .unwrap();
    }
    let want = reference.current_ranking().unwrap();
    assert_eq!(served.scores, want.scores, "exactness restored bitwise");
    // And the skipped answers were right: the final exact head matches
    // what the skip path served all along.
    let final_users: Vec<usize> = served.order_best_to_worst().into_iter().take(k).collect();
    assert_eq!(final_users, want_users);
}

#[test]
fn boundary_straddling_ties_never_skip() {
    // The users at ranked positions `k-1` and `k` are exact duplicates:
    // the top-k boundary cuts through an exact tie, so no wave — however
    // tiny — may be skipped (a zero gap can never exceed a positive
    // perturbation bound). In the staircase user `j`'s score grows with
    // `j`, so the boundary pair is users `m-k` and `m-k-1`.
    let m = 10;
    let k = 3;
    let mut responses = staircase(m);
    // Make user m-k a duplicate of user m-k-1 (both answer alike).
    for (user, item, choice) in &mut responses {
        if *user == m - k {
            *choice = Some(u16::from(m - k - 1 > *item));
        }
    }
    let mut e = RankingEngine::new(m, m - 1, &vec![2; m - 1], opts()).unwrap();
    e.submit_responses(responses).unwrap();
    e.top_k(k).unwrap();
    e.submit_responses([(m / 2, 0, Some(0))]).unwrap();
    e.current_ranking().unwrap(); // calibrate
    e.submit_responses([(m / 2, 1, Some(0))]).unwrap();
    let head = e.top_k(k).unwrap();
    assert_eq!(head.len(), k);
    assert_eq!(
        e.stats().skipped_solves,
        0,
        "a tie at the boundary must force a solve"
    );
}

#[test]
fn same_version_top_k_reuses_without_counting_a_skip() {
    let mut e = engine(12);
    let first = e.top_k(4).unwrap();
    let again = e.top_k(4).unwrap();
    assert_eq!(first, again);
    assert_eq!(e.stats().skipped_solves, 0, "no pending wave, no skip");
    // One solve total: the second query reused the approx slot.
    let stats = e.stats();
    assert_eq!(stats.cold_solves + stats.warm_solves, 1);
}

#[test]
fn exact_target_query_is_bitwise_current_ranking() {
    let m = 14;
    let mut tiered = engine(m);
    let mut plain = engine(m);
    let via_tier = tiered.top_k_tier(m, QueryTier::Exact).unwrap();
    let want = plain.current_ranking().unwrap();
    let want_head: Vec<(usize, f64)> = {
        let order = want.order_best_to_worst();
        order.into_iter().map(|u| (u, want.scores[u])).collect()
    };
    assert_eq!(via_tier.len(), want_head.len());
    for (a, b) in via_tier.iter().zip(&want_head) {
        assert_eq!(a.0, b.0);
        assert_eq!(a.1, b.1, "exact tier is the exact solve, bitwise");
    }
    // Exact tier never early-terminates.
    assert_eq!(tiered.stats().early_terminations, 0);
}

#[test]
fn solver_target_on_engine_opts_threads_through() {
    // Sanity: an engine whose *solver options* carry a TopK target still
    // serves exact `current_ranking` (the engine's own exact path pins
    // `Target::Exact` semantics by construction of the default opts).
    let mut base = opts();
    base.solver_opts.target = Target::Exact;
    let mut e = RankingEngine::new(8, 7, &[2; 7], base).unwrap();
    e.submit_responses(staircase(8)).unwrap();
    assert_eq!(e.current_ranking().unwrap().scores.len(), 8);
}

#[test]
fn repeated_certified_rank_of_reuses_the_same_version_solve() {
    let m = 40;
    let solves = |e: &RankingEngine| {
        let s = e.stats();
        (s.warm_solves, s.cold_solves, s.early_terminations)
    };
    // Each wave flips one distinct cell of a mid-roster user.
    let wave = |round: usize| [(m / 2, round, Some(0))];
    let mut e = engine(m);
    let mut twin = engine(m);
    e.current_ranking().unwrap();
    twin.current_ranking().unwrap();

    // After a wave, the first certified read solves once.
    e.submit_responses(wave(0)).unwrap();
    let (warm, cold, early) = solves(&e);
    let first = e.rank_of(3).unwrap();
    assert_eq!(solves(&e).0 + solves(&e).1, warm + cold + 1, "one solve");
    // Further certified reads at that version solve nothing and agree
    // with the slot's order (a same-version certified top_k reads the
    // slot directly).
    let settled = solves(&e);
    let slot_order: Vec<usize> = e.top_k(m).unwrap().into_iter().map(|(u, _)| u).collect();
    assert_eq!(slot_order.len(), m);
    for user in 0..m {
        let rank = e.rank_of(user).unwrap();
        assert_eq!(slot_order[rank], user, "user {user}");
    }
    assert_eq!(e.rank_of(3).unwrap(), first);
    assert_eq!(solves(&e), settled, "repeat reads reuse the slot");
    assert!(settled.2 >= early);

    // A submit makes the next certified read solve again.
    e.submit_responses(wave(1)).unwrap();
    e.rank_of(3).unwrap();
    let after_submit = solves(&e);
    assert_eq!(after_submit.0 + after_submit.1, settled.0 + settled.1 + 1);
    e.rank_of(5).unwrap();
    assert_eq!(solves(&e), after_submit);

    // A coarse solve is never reused as certified.
    e.submit_responses(wave(2)).unwrap();
    e.rank_of_tier(3, QueryTier::Coarse).unwrap();
    let after_coarse = solves(&e);
    e.rank_of(3).unwrap();
    let after_certified = solves(&e);
    assert_eq!(
        after_certified.0 + after_certified.1,
        after_coarse.0 + after_coarse.1 + 1,
        "the certified read solved past the coarse slot"
    );

    // The exact tier is the matched-warm-chain exact solve, bitwise: the
    // approximate reads above never enter the exact lineage.
    for round in 0..3 {
        twin.submit_responses(wave(round)).unwrap();
    }
    let want = twin.current_ranking().unwrap();
    for user in 0..m {
        let want_rank = want.order_best_to_worst().iter().position(|&u| u == user);
        assert_eq!(
            Some(e.rank_of_tier(user, QueryTier::Exact).unwrap()),
            want_rank
        );
    }
    assert_eq!(e.current_ranking().unwrap().scores, want.scores);
}
