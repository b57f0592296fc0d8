//! Approximate top-k serving: the accuracy-vs-latency frontier.
//!
//! The sweep crosses query size `k`, [`QueryTier`], and roster size `m`
//! on the steady-state serving shape: one measured iteration is a tiny
//! commoner edit wave followed by a `top_k_tier` query — so the
//! `exact` rows price a warm full-tolerance solve per wave, the
//! `certified` rows price the default tier (early-terminated solves plus
//! the rank-stability delta skip, exactly as production serves), and the
//! `coarse` rows price the iteration-capped dashboard tier.
//!
//! Each entry's `extras` carry the accuracy axis measured on the same
//! workload: `topk_membership` (fraction of the exact top-k the tier's
//! head recovers, same version) and `spearman_vs_exact` (rank correlation
//! of the tier's scores against the exact solve). Certified rows also
//! record `skip_fraction` — the share of measured queries served without
//! a solve — so the artifact shows *why* the latency is what it is.
//!
//! The `read_repeat` rows price a read-heavy round at one tier: a wave,
//! then one `top_k(10)` and four `rank_of` (see [`bench_read_repeat`]).
//!
//! Set `HND_BENCH_QUICK=1` to restrict to the smallest roster (CI smoke);
//! set `BENCH_JSON=path.json` to emit `BENCH_topk.json`.

use criterion::{criterion_group, BenchmarkId, Criterion};
use hnd_bench::{lcg, quick, report};
use hnd_core::{SolverKind, SolverOpts};
use hnd_eval::spearman;
use hnd_service::{EngineOpts, QueryTier, RankingEngine};

// 64 items: enough per-user evidence that adjacent top-k boundary gaps
// dominate single-edit co-member perturbations — the regime where the
// delta-skip certificate has real margins to certify. (At 16 items the
// two are the same order and the certificate correctly refuses.)
const N_ITEMS: usize = 64;
const OPTIONS: u16 = 4;

fn engine_opts() -> EngineOpts {
    EngineOpts {
        solver: SolverKind::Power,
        solver_opts: SolverOpts {
            // Serve the real leaderboard: the unoriented eigenvector puts
            // the consensus cohort on whichever end the solver happens to
            // converge to, and an inverted board makes "top-k" the noise
            // tail — a workload whose head churns under its own waves.
            // Orientation is part of what production serving pays on
            // every solve, in every tier, so the frontier prices it.
            orient: true,
            ..Default::default()
        },
        // Steady-state waves must ride the delta path, not rebuilds.
        row_slack: 64,
        col_slack: 4096,
        // No per-host catalog influence: the frontier must be the same
        // workload on every machine.
        planner: None,
        ..Default::default()
    }
}

/// Users in the elite cohort of [`bulk_load`] (the last `ELITE` user ids).
const ELITE: usize = 100;

/// Deterministic cohort-structured bulk load: an elite cohort of exactly
/// [`ELITE`] users answering correctly w.p. 0.9, over a commoner
/// continuum at `p = 0.25 + 0.45·(u/m)` (max ≈ 0.7). On the oriented
/// board the head is the elite cohort interleaved with the strongest
/// commoners (realistic ability overlap), and the top-of-board adjacent
/// gaps are extreme-order-statistic spacings — wide relative to the
/// per-edit ripple everyone off-wave feels (measured at m=10k: boundary
/// gaps ~2–8e-5 against margin ripple ~1e-6 per edit), which is exactly
/// the leaderboard shape where rank-stability skipping pays multi-wave
/// spans. (0.9, not higher: at p approaching 1 several elites answer
/// *everything* correctly and the head becomes an exact score tie,
/// where top-k membership is tie-ordering noise no solver can pin down.
/// The accuracy gate binary keeps the harder single-continuum workload;
/// this bench measures the latency frontier on the favourable shape it
/// is designed for, and the boundary-straddling refusal regime is
/// pinned by the service test suite.)
fn bulk_load(m: usize) -> Vec<(usize, usize, Option<u16>)> {
    let mut state = 0x70CC_u64 ^ ((m as u64) << 17);
    (0..m)
        .flat_map(|u| (0..N_ITEMS).map(move |i| (u, i)))
        .map(|(u, i)| {
            let correct = (i % OPTIONS as usize) as u16;
            let p = if u >= m - ELITE {
                0.9
            } else {
                0.25 + 0.45 * (u as f64 / m as f64)
            };
            let choice = if (lcg(&mut state) % 1000) as f64 / 1000.0 < p {
                correct
            } else {
                (correct + 1 + (lcg(&mut state) % (OPTIONS as u64 - 1)) as u16) % OPTIONS
            };
            (u, i, Some(choice))
        })
        .collect()
}

fn fresh_engine(m: usize) -> RankingEngine {
    let mut e = RankingEngine::new(m, N_ITEMS, &[OPTIONS; N_ITEMS], engine_opts()).unwrap();
    e.submit_responses(bulk_load(m)).unwrap();
    e
}

/// One steady-state wave: a single commoner edit — pseudo-random user in
/// the commoner range (far from the elite top-k) redrawing one answer
/// from their *own* generative distribution, so the workload is
/// stationary: thousands of measured waves churn individual cells
/// without drifting the score structure. (Uniform-random choices would
/// slowly pull every touched commoner toward chance and push the extreme
/// order statistic — the strongest commoner — upward, eroding the
/// boundary desert the certificate prices; the bench would then measure
/// a workload that destroys its own leaderboard shape.)
fn wave_edit(m: usize, round: u64) -> (usize, usize, Option<u16>) {
    let mut state = 0x3A7E_u64 ^ round.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let user = (lcg(&mut state) as usize) % (m - ELITE);
    let item = (lcg(&mut state) as usize) % N_ITEMS;
    let correct = (item % OPTIONS as usize) as u16;
    let p = 0.25 + 0.45 * (user as f64 / m as f64);
    let choice = if (lcg(&mut state) % 1000) as f64 / 1000.0 < p {
        correct
    } else {
        (correct + 1 + (lcg(&mut state) % (OPTIONS as u64 - 1)) as u16) % OPTIONS
    };
    (user, item, Some(choice))
}

/// Scores-by-user from a full-roster head list.
fn dense_scores(head: &[(usize, f64)], m: usize) -> Vec<f64> {
    let mut scores = vec![0.0; m];
    for &(u, s) in head {
        scores[u] = s;
    }
    scores
}

fn head_users(head: &[(usize, f64)], k: usize) -> Vec<usize> {
    head.iter().take(k).map(|&(u, _)| u).collect()
}

fn overlap_fraction(a: &[usize], b: &[usize]) -> f64 {
    let set: std::collections::HashSet<usize> = b.iter().copied().collect();
    a.iter().filter(|u| set.contains(u)).count() as f64 / a.len().max(1) as f64
}

fn tier_name(tier: QueryTier) -> &'static str {
    match tier {
        QueryTier::Exact => "exact",
        QueryTier::Certified => "certified",
        QueryTier::Coarse => "coarse",
    }
}

fn bench_topk(c: &mut Criterion) {
    let mut group = c.benchmark_group("topk");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(3));
    group.warm_up_time(std::time::Duration::from_millis(300));
    let ms: &[usize] = if quick() {
        &[2_000]
    } else {
        &[10_000, 50_000, 200_000]
    };
    let ks: &[usize] = &[10, 100];
    for &m in ms {
        // Accuracy probes at the bulk version: the exact head is the
        // truth every tier is scored against.
        let exact_full = {
            let mut e = fresh_engine(m);
            e.top_k_tier(m, QueryTier::Exact).unwrap()
        };
        let exact_scores = dense_scores(&exact_full, m);
        let coarse_full = {
            let mut e = fresh_engine(m);
            e.top_k_tier(m, QueryTier::Coarse).unwrap()
        };
        let coarse_scores = dense_scores(&coarse_full, m);
        let coarse_spearman = spearman(&coarse_scores, &exact_scores);

        for tier in [QueryTier::Exact, QueryTier::Certified, QueryTier::Coarse] {
            let mut engine = fresh_engine(m);
            for &k in ks {
                let id = format!("{}_k{k}_m{m}", tier_name(tier));
                // Tier head at the engine's current version vs the exact
                // head of the same chain (certified rows measure what the
                // certificate actually delivered, not what it promises).
                // Exact probe first: an exact solve caches a boundary-less
                // snapshot, and seeding the measured loop from one would
                // force the skip calibrator through its pessimistic
                // roster-wide fallback; probing the tier second leaves the
                // chain on a finite-k certified snapshot instead.
                let exact_here = head_users(&engine.top_k_tier(k, QueryTier::Exact).unwrap(), k);
                let tier_head = head_users(&engine.top_k_tier(k, tier).unwrap(), k);
                let membership = overlap_fraction(&exact_here, &tier_head);
                let spearman_vs_exact = match tier {
                    QueryTier::Exact => 1.0,
                    QueryTier::Certified => {
                        // The certificate guarantees the head; score the
                        // head's exact scores against the served order.
                        let served: Vec<f64> = tier_head.iter().map(|&u| exact_scores[u]).collect();
                        let ideal: Vec<f64> = exact_here.iter().map(|&u| exact_scores[u]).collect();
                        spearman(&served, &ideal)
                    }
                    QueryTier::Coarse => coarse_spearman,
                };

                let before = engine.stats();
                // Salt the wave stream by `k`: the per-k round counter
                // restarts at zero, and an unsalted stream would make the
                // second k-loop replay edits the first already applied —
                // no-op cells that every tier serves for free.
                let salt = (k as u64) << 40;
                let mut round = 0u64;
                group.bench_with_input(BenchmarkId::new("wave_query", &id), &k, |b, &k| {
                    b.iter(|| {
                        round += 1;
                        engine
                            .submit_responses([wave_edit(m, salt | round)])
                            .unwrap();
                        engine.top_k_tier(k, tier).unwrap()
                    });
                });
                let after = engine.stats();
                let solves = (after.warm_solves + after.cold_solves)
                    - (before.warm_solves + before.cold_solves);
                let skipped = after.skipped_solves - before.skipped_solves;
                let skip_fraction = if skipped + solves > 0 {
                    skipped as f64 / (skipped + solves) as f64
                } else {
                    0.0
                };
                let mut extras = vec![
                    ("topk_membership".to_string(), membership),
                    ("spearman_vs_exact".to_string(), spearman_vs_exact),
                ];
                if tier == QueryTier::Certified {
                    extras.push(("skip_fraction".to_string(), skip_fraction));
                }
                report::note(
                    "topk",
                    "wave_query",
                    &id,
                    report::EntryMeta {
                        density: Some(1.0 / f64::from(OPTIONS)),
                        nnz: Some(m * N_ITEMS),
                        extras,
                    },
                );
            }
        }
    }
    group.finish();
}

/// Read-heavy rounds: one wave, then one `top_k(10)` and four `rank_of`
/// of pseudo-random users, all at one tier. A certified round solves
/// (or skips) for the head, solves once more for the first full-ranking
/// read, and serves the other three reads from that same-version solve;
/// an exact round solves once and serves every read from the cache. The
/// certified/exact ratio is what the CI pair gate bounds.
fn bench_read_repeat(c: &mut Criterion) {
    let mut group = c.benchmark_group("topk");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(3));
    group.warm_up_time(std::time::Duration::from_millis(300));
    let ms: &[usize] = if quick() { &[2_000] } else { &[10_000, 50_000] };
    for &m in ms {
        for tier in [QueryTier::Exact, QueryTier::Certified] {
            let mut engine = fresh_engine(m);
            engine.top_k_tier(10, tier).unwrap();
            let id = format!("{}_m{m}", tier_name(tier));
            // Salted apart from the `wave_query` streams.
            let salt = 1u64 << 50;
            let mut round = 0u64;
            group.bench_with_input(BenchmarkId::new("read_repeat", &id), &m, |b, &m| {
                b.iter(|| {
                    round += 1;
                    engine
                        .submit_responses([wave_edit(m, salt | round)])
                        .unwrap();
                    let head = engine.top_k_tier(10, tier).unwrap();
                    let mut state = round;
                    let ranks: usize = (0..4)
                        .map(|_| {
                            let user = (lcg(&mut state) as usize) % m;
                            engine.rank_of_tier(user, tier).unwrap()
                        })
                        .sum();
                    (head, ranks)
                });
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_topk, bench_read_repeat);
hnd_bench::bench_main!(benches);
