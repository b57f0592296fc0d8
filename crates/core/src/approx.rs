//! Early-terminated power iteration with per-entry convergence envelopes.
//!
//! The exact driver (`hnd_linalg::power::power_iteration`) declares
//! convergence on a *global* L2 criterion: the normalized iterate moved
//! less than `tol`. But the serving layer's questions are weaker — "is the
//! top-100 *order* decided?", "can any rank still move more than `tol`?" —
//! and power iteration answers them much earlier: once the iterate is in
//! the asymptotic regime, each entry's remaining motion is bounded by a
//! geometric series in the per-window contraction rate.
//!
//! [`guarded_power_iteration`] mirrors the exact driver's loop *bit for
//! bit* (same normalize/distance/swap sequence, so an uncertified run
//! produces the identical result) and, every [`CHECK_EVERY`] iterations,
//! maps the iterate into score space, measures the per-entry change since
//! the previous check window, and extrapolates an uncertainty envelope
//!
//! ```text
//! eps_i = d_i · ρ/(1−ρ) · SAFETY        ρ = ‖d‖ / ‖d_prev‖  (clamped)
//! ```
//!
//! where `d_i` is entry `i`'s sign-aligned change across the window. The
//! geometric tail `ρ/(1−ρ)` bounds the remaining total motion if the
//! contraction stays at its measured rate; [`SAFETY`] absorbs the
//! non-asymptotic wobble (rates are noisy in the first windows, and the
//! envelope is a heuristic certificate, not an a-priori bound — the
//! accuracy smoke and the adversarial proptests are its regression net).
//!
//! A [`Target::TopK`] certificate requires every adjacent sorted-score gap
//! inside the head to exceed the two entries' envelopes plus the caller's
//! margin — at *both* ends of the ordering, because power iteration
//! converges up to sign and the decile-entropy orientation may reverse the
//! ranking after the solve. [`Target::RankStable`] requires every entry's
//! envelope below the caller's tolerance.

use crate::solver::Target;
use hnd_linalg::op::LinearOp;
use hnd_linalg::power::{deterministic_start, last_step_rayleigh, PowerOptions, PowerOutcome};
use hnd_linalg::vector;
use hnd_response::order::{best_first_keys, key_user, sort_extremes};

/// Certification cadence: windows of this many iterations separate
/// consecutive envelope measurements. Small enough to stop within a few
/// iterations of the earliest certifiable point, large enough that the
/// per-window rate estimate is stable and the check cost (`O(m)` envelope
/// work plus, for top-k, an `O(m)` selection of the two extremes and an
/// `O(k log k)` sort of them) stays negligible next to `CHECK_EVERY`
/// kernel applies.
pub const CHECK_EVERY: usize = 8;

/// Multiplier on the geometric-tail envelope, absorbing pre-asymptotic
/// rate wobble.
pub const SAFETY: f64 = 4.0;

/// Resolution headroom the top-k certificate demands beyond the bare
/// decision threshold: each boundary gap must exceed this many times the
/// pair's envelopes (see [`Guard::topk_certified`]).
const CERT_HEADROOM: f64 = 4.0;

/// Additive floor on every envelope so exact score ties (gap 0) can never
/// be certified apart.
const EPS_FLOOR: f64 = 1e-12;

/// Upper clamp on the window contraction rate: at ρ ≥ this the tail bound
/// is so loose no certificate fires (the iteration is not contracting).
const RHO_MAX: f64 = 0.95;

/// How the iterate maps into user-score space for certification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScoreMap {
    /// The iterate *is* the score vector (deflation round 2 iterates `U`
    /// in score space directly).
    Identity,
    /// The iterate is the adjacent-difference vector; scores are its
    /// cumulative sum (`HND-power` iterates `Udiff` in diff space).
    CumsumFromDiffs,
}

/// Result of a guarded run: the (bit-identical-when-uncertified) power
/// outcome plus the early-termination bookkeeping.
#[derive(Debug, Clone)]
pub struct GuardedOutcome {
    /// The power-iteration result. When `early_terminated` is false this
    /// is exactly what `power_iteration` would have returned.
    pub power: PowerOutcome,
    /// Whether a target certificate fired before the exact tolerance.
    pub early_terminated: bool,
    /// Estimated iterations saved versus running to the exact tolerance,
    /// extrapolated from the measured contraction rate (0 when not
    /// early-terminated).
    pub iterations_saved: usize,
    /// The certificate's per-entry score error envelope at termination
    /// (unit-normalized score space): the maximum over entries of the
    /// extrapolated remaining movement. `Some` exactly when
    /// `early_terminated` — an early stop's scores are *not* converged to
    /// `opts.tol`, and downstream consumers that reason about score
    /// resolution (e.g. a serving layer's delta-skip bounds) must use
    /// this bound instead.
    pub error_bound: Option<f64>,
}

/// Envelope tracker across check windows. Holds the previous window's
/// normalized, sign-aligned score snapshot and change norm.
struct Guard {
    target: Target,
    map: ScoreMap,
    /// Scores at the previous check (unit L2, sign-anchored).
    prev_scores: Option<Vec<f64>>,
    /// L2 norm of the previous window's per-entry change vector.
    prev_change: Option<f64>,
    /// Scratch: current score snapshot.
    scores: Vec<f64>,
    /// Scratch: per-entry envelope.
    eps: Vec<f64>,
    /// Scratch: packed best-first keys for top-k gap checks.
    keys: Vec<u128>,
}

impl Guard {
    fn new(target: Target, map: ScoreMap) -> Self {
        Guard {
            target,
            map,
            prev_scores: None,
            prev_change: None,
            scores: Vec::new(),
            eps: Vec::new(),
            keys: Vec::new(),
        }
    }

    /// Maps the iterate into normalized score space (into `self.scores`).
    fn snapshot(&mut self, x: &[f64]) {
        match self.map {
            ScoreMap::Identity => {
                self.scores.clear();
                self.scores.extend_from_slice(x);
            }
            ScoreMap::CumsumFromDiffs => {
                vector::cumsum_from_diffs(x, &mut self.scores);
            }
        }
        vector::normalize(&mut self.scores);
    }

    /// Runs one certification check. Returns the measured window
    /// contraction rate and the maximum per-entry error envelope when a
    /// certificate fired, `None` otherwise.
    fn check(&mut self, x: &[f64]) -> Option<(f64, f64)> {
        self.snapshot(x);
        let (Some(prev), prev_change) = (self.prev_scores.as_mut(), self.prev_change) else {
            self.prev_scores = Some(self.scores.clone());
            return None;
        };
        // Sign-align against the previous snapshot (the iterate may
        // alternate sign when the dominant eigenvalue is negative).
        if vector::dot(&self.scores, prev) < 0.0 {
            for s in &mut self.scores {
                *s = -*s;
            }
        }
        self.eps.clear();
        self.eps.extend(
            self.scores
                .iter()
                .zip(prev.iter())
                .map(|(s, p)| (s - p).abs()),
        );
        let change = vector::norm2(&self.eps);
        prev.copy_from_slice(&self.scores);
        let prev_window = match prev_change {
            Some(pc) => pc,
            None => {
                // Second snapshot: first measurable window, no rate yet.
                self.prev_change = Some(change);
                return None;
            }
        };
        self.prev_change = Some(change);
        let rho = if prev_window > 0.0 {
            (change / prev_window).clamp(1e-6, RHO_MAX)
        } else {
            1e-6 // previous window already static: effectively converged
        };
        if rho >= RHO_MAX {
            return None; // not contracting: envelopes are meaningless
        }
        let tail = rho / (1.0 - rho) * SAFETY;
        for e in &mut self.eps {
            *e = *e * tail + EPS_FLOOR;
        }
        let certified = match self.target {
            Target::Exact => false,
            Target::RankStable { tol } => self.eps.iter().all(|&e| e <= tol),
            Target::TopK { k, margin } => {
                topk_gaps_certified(&self.scores, &self.eps, k, margin, &mut self.keys)
            }
        };
        certified.then(|| (rho, self.eps.iter().fold(0.0f64, |a, &e| a.max(e))))
    }
}

/// Top-k certificate: the `k` leading adjacent gaps of the sorted
/// score vector — at both extremes of the ordering — must each exceed
/// [`CERT_HEADROOM`] times the two entries' envelopes plus `margin`.
///
/// The headroom factor makes the certificate fire with *resolution to
/// spare* rather than exactly at the decision threshold. Without it, a
/// wide-margin top-k (a leaderboard with a score desert at the
/// boundary) certifies at the earliest possible check with an error
/// envelope nearly as large as the gap itself — sound for this one
/// answer, but useless as an anchor for anything downstream that must
/// reason about the scores' resolution (the serving layer's
/// delta-skip bounds budget a noise band of a few envelopes on top of
/// wave-movement bounds). The cost is a handful of extra iteration
/// blocks while the envelope contracts geometrically; the recorded
/// [`GuardedOutcome::error_bound`] shrinks by the same factor.
///
/// Only positions `0..=k` and `m−k−1..m` of the best-first order are
/// read, so the k+1 best and k+1 worst are selected and sorted, not the
/// whole roster; those positions equal a full sort's exactly. A NaN
/// score has no order and never certifies.
///
/// `keys` is reusable scratch (the guard's, so a check allocates nothing
/// after the first).
fn topk_gaps_certified(
    scores: &[f64],
    eps: &[f64],
    k: usize,
    margin: f64,
    keys: &mut Vec<u128>,
) -> bool {
    let m = scores.len();
    if k == 0 || k >= m {
        return false; // a full-ranking request is not a top-k request
    }
    if !best_first_keys(scores, keys) {
        return false; // NaN: no order to certify
    }
    sort_extremes(keys, k + 1, k + 1);
    let gap_ok = |hi: usize, lo: usize| -> bool {
        let a = key_user(keys[hi]);
        let b = key_user(keys[lo]);
        scores[a] - scores[b] > CERT_HEADROOM * (eps[a] + eps[b]) + margin
    };
    // Head pairs (positions 0..k) and the mirrored tail pairs: after
    // orientation the served "top k" may be either extreme.
    (0..k).all(|i| gap_ok(i, i + 1)) && (0..k).all(|i| gap_ok(m - 2 - i, m - 1 - i))
}

/// Power iteration honoring an approximation [`Target`].
///
/// Mirrors `hnd_linalg::power::power_iteration` exactly — same
/// normalization, sign-invariant distance, and buffer swaps — so a run in
/// which no certificate fires returns a bit-identical [`PowerOutcome`].
/// Every [`CHECK_EVERY`] iterations the guard maps the iterate into score
/// space via `map` and attempts to certify `target`; on success the loop
/// stops with `converged = true` and an `iterations_saved` estimate
/// extrapolated from the measured contraction rate.
///
/// [`Target::Exact`] callers should use `power_iteration` directly (this
/// function would never certify, but skipping the guard entirely is both
/// faster and trivially bit-identical).
pub fn guarded_power_iteration(
    op: &dyn LinearOp,
    x0: &[f64],
    opts: &PowerOptions,
    target: Target,
    map: ScoreMap,
) -> GuardedOutcome {
    let n = op.dim();
    assert_eq!(x0.len(), n, "guarded_power_iteration: x0 length mismatch");
    let mut x = x0.to_vec();
    if vector::normalize(&mut x) == 0.0 {
        x = deterministic_start(n);
        vector::normalize(&mut x);
    }
    let mut y = vec![0.0; n];
    let mut guard = Guard::new(target, map);
    let mut iterations = 0;
    let mut converged = false;
    let mut early_terminated = false;
    let mut iterations_saved = 0;
    let mut error_bound = None;
    let mut last_norm = None;
    while iterations < opts.max_iter {
        op.apply(&x, &mut y);
        iterations += 1;
        let norm = vector::normalize(&mut y);
        last_norm = Some(norm);
        if norm == 0.0 {
            break;
        }
        let delta = vector::sign_invariant_distance(&x, &y);
        std::mem::swap(&mut x, &mut y);
        if delta <= opts.tol {
            converged = true;
            break;
        }
        if iterations % CHECK_EVERY == 0 {
            if let Some((rho, bound)) = guard.check(&x) {
                // Extrapolate the remaining exact-tolerance iterations from
                // the per-step rate implied by the window rate.
                let rho_step = rho.powf(1.0 / CHECK_EVERY as f64).clamp(1e-6, RHO_MAX);
                let remaining = if delta > opts.tol {
                    ((opts.tol / delta).ln() / rho_step.ln()).ceil()
                } else {
                    0.0
                };
                iterations_saved = (remaining.max(0.0) as usize).min(opts.max_iter - iterations);
                converged = true;
                early_terminated = true;
                error_bound = Some(bound);
                break;
            }
        }
    }
    let eigenvalue = last_step_rayleigh(op, &x, &mut y, last_norm);
    GuardedOutcome {
        power: PowerOutcome {
            vector: x,
            eigenvalue,
            iterations,
            converged,
        },
        early_terminated,
        iterations_saved,
        error_bound,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hnd_linalg::dense::DenseMatrix;
    use hnd_linalg::op::DenseOp;
    use proptest::prelude::*;

    fn diag(entries: &[f64]) -> DenseMatrix {
        let n = entries.len();
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                (0..n)
                    .map(|j| if i == j { entries[i] } else { 0.0 })
                    .collect()
            })
            .collect();
        let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        DenseMatrix::from_rows(&refs).unwrap()
    }

    #[test]
    fn exact_target_matches_power_iteration_bitwise() {
        let m = diag(&[3.0, 2.9, 1.0, 0.5, 0.1]);
        let op = DenseOp::new(&m);
        let x0 = deterministic_start(5);
        let opts = PowerOptions {
            tol: 1e-10,
            max_iter: 5_000,
        };
        let exact = hnd_linalg::power::power_iteration(&op, &x0, &opts);
        let guarded = guarded_power_iteration(&op, &x0, &opts, Target::Exact, ScoreMap::Identity);
        assert!(!guarded.early_terminated);
        assert_eq!(guarded.power.vector, exact.vector);
        assert_eq!(guarded.power.iterations, exact.iterations);
        assert_eq!(guarded.power.converged, exact.converged);
    }

    /// Rank-2 symmetric operator `λ₁ v̂v̂ᵀ + λ₂ ûûᵀ` whose dominant
    /// eigenvector `v̂` has graded, well-separated entries — the shape an
    /// HND score vector has — with a narrow spectral gap so the exact
    /// tolerance takes many hundreds of iterations.
    fn graded_rank2(n: usize, lambda2: f64) -> DenseMatrix {
        let mut v: Vec<f64> = (0..n).map(|i| (i + 1) as f64).collect();
        vector::normalize(&mut v);
        let mut u: Vec<f64> = (0..n)
            .map(|i| if i % 2 == 0 { 1.0 } else { -1.0 })
            .collect();
        let proj = vector::dot(&u, &v);
        for (ui, vi) in u.iter_mut().zip(&v) {
            *ui -= proj * vi;
        }
        vector::normalize(&mut u);
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                (0..n)
                    .map(|j| v[i] * v[j] + lambda2 * u[i] * u[j])
                    .collect()
            })
            .collect();
        let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        DenseMatrix::from_rows(&refs).unwrap()
    }

    #[test]
    fn topk_certificate_stops_early_and_keeps_the_head() {
        // Graded dominant eigenvector, slow contraction (λ₂/λ₁ = 0.97):
        // the top-2 order is decided long before the global 1e-12
        // tolerance.
        let m = graded_rank2(32, 0.97);
        let op = DenseOp::new(&m);
        let x0 = deterministic_start(32);
        let opts = PowerOptions {
            tol: 1e-12,
            max_iter: 100_000,
        };
        let exact = hnd_linalg::power::power_iteration(&op, &x0, &opts);
        let guarded = guarded_power_iteration(
            &op,
            &x0,
            &opts,
            Target::TopK { k: 2, margin: 0.0 },
            ScoreMap::Identity,
        );
        assert!(guarded.early_terminated, "head should certify early");
        assert!(guarded.power.iterations < exact.iterations);
        assert!(guarded.iterations_saved > 0);
        // The certified head matches the exact head (by |score|, since the
        // dominant direction is axis 0 here).
        let top = |v: &[f64]| {
            let mut idx: Vec<usize> = (0..v.len()).collect();
            idx.sort_by(|&a, &b| v[b].abs().partial_cmp(&v[a].abs()).unwrap());
            idx[..2].to_vec()
        };
        assert_eq!(top(&guarded.power.vector), top(&exact.vector));
    }

    #[test]
    fn rank_stable_certificate_fires_before_exact_tolerance() {
        let entries: Vec<f64> = (0..32).map(|i| 2.0f64.powi(-i)).collect();
        let m = diag(&entries);
        let op = DenseOp::new(&m);
        let x0 = deterministic_start(32);
        let opts = PowerOptions {
            tol: 1e-14,
            max_iter: 100_000,
        };
        let exact = hnd_linalg::power::power_iteration(&op, &x0, &opts);
        let guarded = guarded_power_iteration(
            &op,
            &x0,
            &opts,
            Target::RankStable { tol: 1e-3 },
            ScoreMap::Identity,
        );
        assert!(guarded.early_terminated);
        assert!(guarded.power.iterations < exact.iterations);
        // Every entry is within the certified bound of the exact solution
        // (sign-aligned).
        let sign = if vector::dot(&guarded.power.vector, &exact.vector) < 0.0 {
            -1.0
        } else {
            1.0
        };
        for (g, e) in guarded.power.vector.iter().zip(&exact.vector) {
            assert!((g * sign - e).abs() <= 1e-3, "entry drifted past bound");
        }
    }

    #[test]
    fn tied_head_never_certifies() {
        // Exact tie between the top two eigendirections: no margin can
        // separate them, so the guard must run to the exact tolerance.
        let m = diag(&[2.0, 2.0, 1.0, 0.5]);
        let op = DenseOp::new(&m);
        let x0 = vec![0.5, 0.5, 0.5, 0.5];
        let opts = PowerOptions {
            tol: 1e-8,
            max_iter: 2_000,
        };
        let guarded = guarded_power_iteration(
            &op,
            &x0,
            &opts,
            Target::TopK { k: 1, margin: 0.0 },
            ScoreMap::Identity,
        );
        assert!(!guarded.early_terminated, "exact tie must not certify");
    }

    #[test]
    fn k_of_full_length_never_certifies() {
        let m = diag(&[3.0, 1.0]);
        let op = DenseOp::new(&m);
        let guarded = guarded_power_iteration(
            &op,
            &[0.6, 0.8],
            &PowerOptions::default(),
            Target::TopK { k: 2, margin: 0.0 },
            ScoreMap::Identity,
        );
        assert!(!guarded.early_terminated);
    }

    /// The certificate as it read before selection: a full comparator
    /// sort of the roster.
    fn topk_gaps_full_sort(scores: &[f64], eps: &[f64], k: usize, margin: f64) -> bool {
        let m = scores.len();
        if k == 0 || k >= m {
            return false;
        }
        let mut order: Vec<usize> = (0..m).collect();
        order.sort_unstable_by(|&a, &b| scores[b].partial_cmp(&scores[a]).unwrap().then(a.cmp(&b)));
        let gap_ok = |hi: usize, lo: usize| -> bool {
            let (a, b) = (order[hi], order[lo]);
            scores[a] - scores[b] > CERT_HEADROOM * (eps[a] + eps[b]) + margin
        };
        (0..k).all(|i| gap_ok(i, i + 1)) && (0..k).all(|i| gap_ok(m - 2 - i, m - 1 - i))
    }

    /// Tie-heavy palette with both signed zeros and subnormals.
    const PALETTE: [f64; 9] = [-1.0, -0.25, -5e-324, -0.0, 0.0, 5e-324, 0.125, 0.5, 1.0];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn topk_selection_matches_the_full_sort(
            (scores, eps, k) in (2usize..40, 0usize..3).prop_flat_map(|(m, style)| {
                (
                    proptest::collection::vec(0usize..1000, m),
                    proptest::collection::vec(0.0f64..1e-3, m),
                    0usize..=m,
                )
                    .prop_map(move |(raw, eps, k)| {
                        let scores: Vec<f64> = raw
                            .iter()
                            .map(|&r| match style {
                                0 => PALETTE[r % PALETTE.len()],
                                1 => (r % 7) as f64 * 0.1,
                                _ => r as f64 / 1000.0 - 0.5,
                            })
                            .collect();
                        (scores, eps, k)
                    })
            }),
            margin in 0.0f64..0.01,
        ) {
            let mut keys = Vec::new();
            let zero = vec![0.0; scores.len()];
            for k in [k, scores.len() / 2, scores.len().saturating_sub(1) / 2, 1] {
                for (e, mg) in [(&eps, margin), (&zero, 0.0)] {
                    prop_assert_eq!(
                        topk_gaps_certified(&scores, e, k, mg, &mut keys),
                        topk_gaps_full_sort(&scores, e, k, mg),
                        "k {} of m {}", k, scores.len()
                    );
                }
            }
        }
    }
}
