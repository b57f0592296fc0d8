//! Best-first orderings of score vectors as packed integer keys.
//!
//! Every ranking consumer orders users the same way: score descending,
//! user index ascending on ties. Sorting indices through that comparator
//! chases two pointers per comparison; at serving rosters (tens of
//! thousands of users) the sort rivals the warm solve it serves. Packing
//! each user as one `u128` — an order-preserving image of the score in
//! the high word, the index in the low word — gives the *same* total order
//! under plain integer comparison, so sorts and selections run on a flat
//! array and exact-position results are unchanged.
//!
//! Float comparison has no place for NaN. A NaN score gets the worst key
//! (after every number, ties by index), so a packed sort never fails;
//! [`best_first_keys`] reports NaN for callers that must refuse it
//! instead.

/// Order-preserving `u64` image of a score: for non-NaN `a`, `b`,
/// `a < b ⇔ score_key(a) < score_key(b)`. `−0.0` and `+0.0` compare equal
/// as floats and share one key; subnormals and infinities keep their
/// place.
#[inline]
fn score_key(score: f64) -> u64 {
    let score = if score == 0.0 { 0.0 } else { score };
    let bits = score.to_bits();
    if bits >> 63 == 0 {
        bits | (1 << 63)
    } else {
        !bits
    }
}

/// The packed best-first key of `user` with `score`: ascending key order
/// is descending score, then ascending user index. NaN takes the high
/// word `u64::MAX`, which no number reaches.
#[inline]
fn best_first_key(score: f64, user: usize) -> u128 {
    let high = if score.is_nan() {
        u64::MAX
    } else {
        !score_key(score)
    };
    (u128::from(high) << 64) | user as u128
}

/// The user index a [`best_first_key`] carries.
#[inline]
pub fn key_user(key: u128) -> usize {
    key as u64 as usize
}

/// Fills `keys` with the best-first key of every entry of `scores`.
/// Returns `false` when a score is NaN (its key sorts last).
pub fn best_first_keys(scores: &[f64], keys: &mut Vec<u128>) -> bool {
    keys.clear();
    keys.reserve(scores.len());
    let mut nan = false;
    keys.extend(scores.iter().enumerate().map(|(u, &s)| {
        nan |= s.is_nan();
        best_first_key(s, u)
    }));
    !nan
}

/// Partially sorts `keys` so that positions `..head` and `len − tail..`
/// hold exactly what a full ascending sort would put there; the middle is
/// left unordered. Costs `O(len + head·log head + tail·log tail)` — two
/// selections, then sorts of just the two extremes — and falls back to a
/// full sort when the extremes cover the slice.
pub fn sort_extremes(keys: &mut [u128], head: usize, tail: usize) {
    let len = keys.len();
    if head + tail >= len {
        keys.sort_unstable();
        return;
    }
    if head > 0 {
        keys.select_nth_unstable(head - 1);
        keys[..head].sort_unstable();
    }
    if tail > 0 {
        let rest = &mut keys[head..];
        let cut = rest.len() - tail;
        rest.select_nth_unstable(cut);
        rest[cut..].sort_unstable();
    }
}

/// User indices sorted best-first (score descending, index ascending),
/// NaN scores last: one sort of packed keys.
pub fn best_first_order(scores: &[f64]) -> Vec<usize> {
    let mut keys = Vec::new();
    best_first_keys(scores, &mut keys);
    keys.sort_unstable();
    keys.into_iter().map(key_user).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_preserve_float_order_and_fold_signed_zero() {
        let ladder = [
            f64::NEG_INFINITY,
            -1e300,
            -1.0,
            -f64::MIN_POSITIVE,
            -5e-324,
            0.0,
            5e-324,
            f64::MIN_POSITIVE,
            1.0,
            1e300,
            f64::INFINITY,
        ];
        for w in ladder.windows(2) {
            assert!(score_key(w[0]) < score_key(w[1]), "{} vs {}", w[0], w[1]);
        }
        assert_eq!(score_key(-0.0), score_key(0.0));
    }

    #[test]
    fn ties_break_by_index() {
        assert_eq!(
            best_first_order(&[0.5, 0.5, -0.0, 0.0, 0.9]),
            vec![4, 0, 1, 2, 3]
        );
        let with_nan = [f64::NAN, f64::NEG_INFINITY, -f64::NAN];
        assert!(!best_first_keys(&with_nan, &mut Vec::new()));
        assert_eq!(
            best_first_order(&with_nan),
            vec![1, 0, 2],
            "NaN after every number"
        );
    }

    #[test]
    fn extremes_match_the_full_sort() {
        let scores: Vec<f64> = (0..40).map(|i| ((i * 7919) % 13) as f64).collect();
        let mut full = Vec::new();
        best_first_keys(&scores, &mut full);
        full.sort_unstable();
        for (head, tail) in [(0, 0), (1, 1), (3, 5), (0, 7), (7, 0), (20, 20), (25, 30)] {
            let mut keys = Vec::new();
            best_first_keys(&scores, &mut keys);
            sort_extremes(&mut keys, head, tail);
            let m = keys.len();
            let (h, t) = (head.min(m), tail.min(m));
            assert_eq!(keys[..h], full[..h], "head {head} tail {tail}");
            assert_eq!(keys[m - t..], full[m - t..], "head {head} tail {tail}");
        }
    }
}
