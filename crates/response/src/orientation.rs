//! Decile-entropy symmetry breaking (Section III-D of the paper).
//!
//! Reversing a P-matrix ordering yields another P-matrix ordering, so every
//! C1P-style method must decide between a ranking and its reverse. The
//! paper's heuristic: able users converge on the correct option (low entropy
//! of chosen options), weak users answer closer to uniformly (high entropy).
//! Compare the average per-item choice entropy of the top and bottom user
//! *deciles* and put the lower-entropy decile on top.
//!
//! The rule runs after every solve, so it is kept `O(m)`: the deciles are
//! selected, not sorted out of the roster, and their choice counts come
//! from one pass over the deciles' rows.

use crate::order::{best_first_keys, key_user};
use crate::{Ranking, ResponseMatrix};

/// Average (over items) Shannon entropy of the option choices made by the
/// given users. Items none of the users answered are skipped; natural log.
pub fn group_choice_entropy(matrix: &ResponseMatrix, users: &[usize]) -> f64 {
    choice_entropy(matrix, users.iter().copied())
}

/// [`group_choice_entropy`] over any user sequence. The per-option counts
/// come from one pass over the users' rows (row-major, so each user is one
/// contiguous read); they are integers, so the visiting order cannot
/// change the result.
fn choice_entropy(matrix: &ResponseMatrix, users: impl IntoIterator<Item = usize>) -> f64 {
    let mut counts = vec![0usize; matrix.total_options()];
    for u in users {
        for (item, &cell) in matrix.user_row(u).iter().enumerate() {
            if let Some(opt) = cell {
                counts[matrix.one_hot_column(item, opt)] += 1;
            }
        }
    }
    let mut total = 0.0;
    let mut counted_items = 0usize;
    for item in 0..matrix.n_items() {
        let first = matrix.one_hot_column(item, 0);
        let counts = &counts[first..first + matrix.options_of(item) as usize];
        let answered: usize = counts.iter().sum();
        if answered == 0 {
            continue;
        }
        let mut h = 0.0;
        for &c in counts {
            if c > 0 {
                let p = c as f64 / answered as f64;
                h -= p * p.ln();
            }
        }
        total += h;
        counted_items += 1;
    }
    if counted_items == 0 {
        0.0
    } else {
        total / counted_items as f64
    }
}

/// Applies the decile-entropy rule to `ranking`, reversing it in place when
/// the current top decile has *higher* entropy than the bottom decile.
/// Returns `true` if the ranking was reversed.
///
/// The deciles are the first and last `max(m/10, 1)` users of the
/// best-first order (score descending, index ascending). Only their
/// membership matters, so each is found by selection on packed
/// [`crate::order`] keys in `O(m)`, not by sorting the roster.
///
/// # Panics
/// On a NaN score (no best-first order), like
/// [`Ranking::order_best_to_worst`].
pub fn orient_by_decile_entropy(matrix: &ResponseMatrix, ranking: &mut Ranking) -> bool {
    let m = matrix.n_users();
    if m < 2 {
        return false;
    }
    let decile = (m / 10).max(1);
    let mut keys = Vec::new();
    assert!(best_first_keys(&ranking.scores, &mut keys), "NaN score");
    keys.select_nth_unstable(decile - 1);
    let (top, rest) = keys.split_at_mut(decile);
    let cut = rest.len() - decile;
    rest.select_nth_unstable(cut);
    let top_entropy = choice_entropy(matrix, top.iter().map(|&k| key_user(k)));
    let bottom_entropy = choice_entropy(matrix, rest[cut..].iter().map(|&k| key_user(k)));
    if top_entropy > bottom_entropy {
        ranking.reverse();
        true
    } else {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ResponseMatrixBuilder;

    /// 20 users × 5 items, 4 options each. The first 10 users all answer
    /// option 0 everywhere (consensus, zero entropy); the last 10 spread
    /// over all options (high entropy).
    fn consensus_vs_noise() -> ResponseMatrix {
        let mut b = ResponseMatrixBuilder::homogeneous(20, 5, 4).unwrap();
        for u in 0..10 {
            for i in 0..5 {
                b.set(u, i, Some(0)).unwrap();
            }
        }
        for u in 10..20 {
            for i in 0..5 {
                b.set(u, i, Some(((u + i) % 4) as u16)).unwrap();
            }
        }
        b.build()
    }

    #[test]
    fn entropy_zero_for_consensus() {
        let m = consensus_vs_noise();
        let users: Vec<usize> = (0..10).collect();
        assert!(group_choice_entropy(&m, &users) < 1e-12);
    }

    #[test]
    fn entropy_positive_for_noise() {
        let m = consensus_vs_noise();
        let users: Vec<usize> = (10..20).collect();
        assert!(group_choice_entropy(&m, &users) > 0.5);
    }

    #[test]
    fn correct_orientation_is_kept() {
        let m = consensus_vs_noise();
        // Scores already rank consensus users on top.
        let mut r = Ranking::from_scores((0..20).map(|u| -(u as f64)).collect());
        let reversed = orient_by_decile_entropy(&m, &mut r);
        assert!(!reversed);
        assert_eq!(r.order_best_to_worst()[0], 0);
    }

    #[test]
    fn wrong_orientation_is_flipped() {
        let m = consensus_vs_noise();
        // Scores rank the noisy users on top — must be reversed.
        let mut r = Ranking::from_scores((0..20).map(|u| u as f64).collect());
        let reversed = orient_by_decile_entropy(&m, &mut r);
        assert!(reversed);
        let order = r.order_best_to_worst();
        assert!(order[0] < 10, "a consensus user must rank first");
    }

    #[test]
    fn single_user_is_noop() {
        let m = crate::ResponseMatrix::from_choices(1, &[2], &[&[Some(0)]]).unwrap();
        let mut r = Ranking::from_scores(vec![1.0]);
        assert!(!orient_by_decile_entropy(&m, &mut r));
    }

    #[test]
    fn unanswered_items_are_skipped() {
        let m =
            crate::ResponseMatrix::from_choices(2, &[2, 2], &[&[Some(0), None], &[Some(0), None]])
                .unwrap();
        assert_eq!(group_choice_entropy(&m, &[0, 1]), 0.0);
    }
}
