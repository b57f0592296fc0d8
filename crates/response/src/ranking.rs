//! Rankings and the [`AbilityRanker`] trait shared by every method.
//!
//! Ability discovery (Definition 1 of the paper) asks for a *ranking* of
//! users, not labels. Every method in this workspace — HITSnDIFFS, ABH, the
//! truth-discovery baselines, and the cheating estimators — implements
//! [`AbilityRanker`], so experiments can treat them uniformly.

use crate::ResponseMatrix;

/// Errors produced by ranking methods.
#[derive(Debug, Clone, PartialEq)]
pub enum RankError {
    /// The underlying eigensolver failed (no convergence / degenerate input).
    Numerical(String),
    /// The response matrix violates a precondition of the method.
    InvalidInput(String),
}

impl std::fmt::Display for RankError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RankError::Numerical(msg) => write!(f, "numerical failure: {msg}"),
            RankError::InvalidInput(msg) => write!(f, "invalid input: {msg}"),
        }
    }
}

impl std::error::Error for RankError {}

/// A ranking of users by (estimated) ability.
#[derive(Debug, Clone, PartialEq)]
pub struct Ranking {
    /// Per-user score; higher means more able. Length = number of users.
    pub scores: Vec<f64>,
    /// Iterations used by the producing method (`0` for closed-form ones).
    pub iterations: usize,
    /// Whether the producing method's convergence criterion fired.
    pub converged: bool,
}

impl Ranking {
    /// Creates a ranking from raw scores (iterations 0, converged).
    pub fn from_scores(scores: Vec<f64>) -> Self {
        Ranking {
            scores,
            iterations: 0,
            converged: true,
        }
    }

    /// Number of ranked users.
    pub fn len(&self) -> usize {
        self.scores.len()
    }

    /// `true` when the ranking covers no users.
    pub fn is_empty(&self) -> bool {
        self.scores.is_empty()
    }

    /// User indices sorted from best (highest score) to worst. Ties break by
    /// user index, so results are deterministic.
    ///
    /// # Panics
    /// On a NaN score among two or more users (no total order).
    pub fn order_best_to_worst(&self) -> Vec<usize> {
        assert!(
            self.scores.len() < 2 || !self.scores.iter().any(|s| s.is_nan()),
            "NaN score"
        );
        crate::order::best_first_order(&self.scores)
    }

    /// Position of each user in the best-to-worst order (0 = best).
    pub fn rank_positions(&self) -> Vec<usize> {
        let order = self.order_best_to_worst();
        let mut pos = vec![0usize; order.len()];
        for (rank, &user) in order.iter().enumerate() {
            pos[user] = rank;
        }
        pos
    }

    /// Reverses the ranking in place (used by symmetry breaking).
    pub fn reverse(&mut self) {
        for s in &mut self.scores {
            *s = -*s;
        }
    }
}

/// A method that ranks users by ability from their responses alone
/// (possibly plus side information captured at construction time, as with
/// the "cheating" baselines).
pub trait AbilityRanker {
    /// Short display name used in experiment tables (e.g. `"HnD"`).
    fn name(&self) -> &'static str;

    /// Ranks the users of `responses`.
    fn rank(&self, responses: &ResponseMatrix) -> Result<Ranking, RankError>;
}

impl<T: AbilityRanker + ?Sized> AbilityRanker for &T {
    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn rank(&self, responses: &ResponseMatrix) -> Result<Ranking, RankError> {
        (**self).rank(responses)
    }
}

impl<T: AbilityRanker + ?Sized> AbilityRanker for Box<T> {
    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn rank(&self, responses: &ResponseMatrix) -> Result<Ranking, RankError> {
        (**self).rank(responses)
    }
}

/// Ranks a batch of response matrices with one ranker, in parallel across
/// matrices. This is the throughput entry point for experiment sweeps and
/// batched serving: per-matrix results are bitwise identical to calling
/// [`AbilityRanker::rank`] serially.
///
/// **Ordering guarantee:** the returned vector has exactly
/// `matrices.len()` entries and entry `i` is the result for `matrices[i]`,
/// regardless of which worker thread ranked it or in what order workers
/// finished.
///
/// **Failure isolation:** each matrix gets its own `Result` — a
/// [`RankError`] on one matrix never discards or aborts the others, so
/// callers can retry/skip individual failures (experiment sweeps record a
/// missing point; the serving layer degrades one session, not the fleet).
///
/// Parallelism lives at the batch level, so each worker runs its kernels
/// serially (`with_threads(1)`) — without this, every operator application
/// inside every worker would spawn its own gather threads, oversubscribing
/// the machine quadratically. A batch of one keeps within-matrix kernel
/// parallelism instead.
pub fn rank_many(
    ranker: &(dyn AbilityRanker + Sync),
    matrices: &[&ResponseMatrix],
) -> Vec<Result<Ranking, RankError>> {
    if matrices.len() <= 1 {
        return matrices.iter().map(|matrix| ranker.rank(matrix)).collect();
    }
    hnd_linalg::parallel::par_map(matrices, |matrix| {
        hnd_linalg::parallel::with_threads(1, || ranker.rank(matrix))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_and_positions() {
        let r = Ranking::from_scores(vec![0.1, 0.9, 0.5]);
        assert_eq!(r.order_best_to_worst(), vec![1, 2, 0]);
        assert_eq!(r.rank_positions(), vec![2, 0, 1]);
    }

    #[test]
    fn ties_break_by_index() {
        let r = Ranking::from_scores(vec![0.5, 0.5, 0.5]);
        assert_eq!(r.order_best_to_worst(), vec![0, 1, 2]);
    }

    #[test]
    fn reverse_flips_order() {
        let mut r = Ranking::from_scores(vec![0.1, 0.9, 0.5]);
        r.reverse();
        assert_eq!(r.order_best_to_worst(), vec![0, 2, 1]);
    }

    /// Ranks by answer count, but rejects matrices with an odd number of
    /// users — a deterministic per-matrix failure for batch testing.
    struct EvenOnly;

    impl AbilityRanker for EvenOnly {
        fn name(&self) -> &'static str {
            "even-only"
        }

        fn rank(&self, responses: &ResponseMatrix) -> Result<Ranking, RankError> {
            if responses.n_users() % 2 == 1 {
                return Err(RankError::InvalidInput("odd user count".into()));
            }
            Ok(Ranking::from_scores(
                responses.row_counts().iter().map(|&c| c as f64).collect(),
            ))
        }
    }

    fn users(m: usize) -> ResponseMatrix {
        let rows: Vec<Vec<Option<u16>>> = (0..m).map(|_| vec![Some(0)]).collect();
        let refs: Vec<&[Option<u16>]> = rows.iter().map(|r| r.as_slice()).collect();
        ResponseMatrix::from_choices(1, &[1], &refs).unwrap()
    }

    #[test]
    fn rank_many_isolates_failures_and_preserves_order() {
        let matrices = [users(2), users(3), users(4), users(5), users(6)];
        let refs: Vec<&ResponseMatrix> = matrices.iter().collect();
        let results = rank_many(&EvenOnly, &refs);
        assert_eq!(results.len(), refs.len(), "one result per input matrix");
        for (i, (result, matrix)) in results.iter().zip(&matrices).enumerate() {
            // Result i belongs to matrices[i]: identify it by user count.
            match result {
                Ok(ranking) => {
                    assert_eq!(matrix.n_users() % 2, 0, "slot {i}");
                    assert_eq!(ranking.len(), matrix.n_users(), "slot {i}");
                }
                Err(e) => {
                    assert_eq!(matrix.n_users() % 2, 1, "slot {i}");
                    assert!(matches!(e, RankError::InvalidInput(_)));
                }
            }
        }
    }
}
