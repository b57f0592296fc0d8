//! The packed-key orderings and the selection-based orientation agree
//! exactly with the comparator sorts they replace.

use hnd_response::order::{best_first_keys, best_first_order, key_user, sort_extremes};
use hnd_response::{orient_by_decile_entropy, Ranking, ResponseMatrix};
use proptest::prelude::*;

/// Tie-heavy palette: both signed zeros, subnormals, infinities.
const PALETTE: [f64; 12] = [
    f64::NEG_INFINITY,
    -1.0,
    -0.25,
    -5e-324,
    -0.0,
    0.0,
    5e-324,
    2.2e-308,
    0.125,
    0.5,
    1.0,
    f64::INFINITY,
];

/// Scores in one of three styles: palette draws (ties, signed zeros,
/// subnormals), a few coarse levels, or near-continuous values.
fn scores(len: impl Strategy<Value = usize>) -> impl Strategy<Value = Vec<f64>> {
    (len, 0usize..3).prop_flat_map(|(m, style)| {
        proptest::collection::vec(0usize..100_000, m).prop_map(move |raw| {
            raw.iter()
                .map(|&r| match style {
                    0 => PALETTE[r % PALETTE.len()],
                    1 => (r % 5) as f64 * 0.5 - 1.0,
                    _ => r as f64 / 100_000.0 - 0.5,
                })
                .collect()
        })
    })
}

/// The comparator sort every ordering used before packed keys: score
/// descending (NaN equal to everything), index ascending, stable.
fn comparator_order(scores: &[f64]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..scores.len()).collect();
    order.sort_by(|&a, &b| {
        scores[b]
            .partial_cmp(&scores[a])
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(&b))
    });
    order
}

/// The decile-entropy rule as it read before selection: a full sort of
/// the roster, then item-by-item entropy of each decile.
fn orient_full_sort(matrix: &ResponseMatrix, ranking: &mut Ranking) -> bool {
    let m = matrix.n_users();
    if m < 2 {
        return false;
    }
    let decile = (m / 10).max(1);
    let order = comparator_order(&ranking.scores);
    let entropy = |users: &[usize]| {
        let mut total = 0.0;
        let mut counted_items = 0usize;
        for item in 0..matrix.n_items() {
            let mut counts = vec![0usize; matrix.options_of(item) as usize];
            let mut answered = 0usize;
            for &u in users {
                if let Some(opt) = matrix.choice(u, item) {
                    counts[opt as usize] += 1;
                    answered += 1;
                }
            }
            if answered == 0 {
                continue;
            }
            let mut h = 0.0;
            for &c in &counts {
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
    };
    if entropy(&order[..decile]) > entropy(&order[m - decile..]) {
        ranking.reverse();
        true
    } else {
        false
    }
}

/// A response matrix with `m` users over up to 8 items of 2–4 options,
/// skips included; `tilt` biases the first users toward option 0 so both
/// orientation outcomes occur.
fn responses(m: usize) -> impl Strategy<Value = ResponseMatrix> {
    (1usize..=8, 2u16..=4, 0usize..3).prop_flat_map(move |(n, k, tilt)| {
        proptest::collection::vec(0u16..k + 1, m * n).prop_map(move |raw| {
            let rows: Vec<Vec<Option<u16>>> = (0..m)
                .map(|u| {
                    (0..n)
                        .map(|i| {
                            let r = raw[u * n + i];
                            if tilt > 0 && u < m / 2 && r % 2 == 0 {
                                Some(0)
                            } else {
                                r.checked_sub(1)
                            }
                        })
                        .collect()
                })
                .collect();
            let refs: Vec<&[Option<u16>]> = rows.iter().map(|r| r.as_slice()).collect();
            ResponseMatrix::from_choices(n, &vec![k; n], &refs).unwrap()
        })
    })
}

fn bits(scores: &[f64]) -> Vec<u64> {
    scores.iter().map(|s| s.to_bits()).collect()
}

fn assert_same_orientation(
    matrix: &ResponseMatrix,
    scores: Vec<f64>,
) -> Result<(), proptest::test_runner::TestCaseError> {
    let mut fast = Ranking::from_scores(scores.clone());
    let mut reference = Ranking::from_scores(scores);
    let flipped = orient_by_decile_entropy(matrix, &mut fast);
    prop_assert_eq!(flipped, orient_full_sort(matrix, &mut reference));
    prop_assert_eq!(bits(&fast.scores), bits(&reference.scores));
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn packed_order_matches_the_comparator(s in scores(0usize..200)) {
        prop_assert_eq!(best_first_order(&s), comparator_order(&s));
        prop_assert_eq!(
            Ranking::from_scores(s.clone()).order_best_to_worst(),
            comparator_order(&s)
        );
    }

    #[test]
    fn nan_scores_are_reported_and_sort_last(s in scores(1usize..50), at in 0usize..50) {
        let mut s = s;
        let at = at % s.len();
        s[at] = f64::NAN;
        prop_assert!(!best_first_keys(&s, &mut Vec::new()));
        let order = best_first_order(&s);
        prop_assert_eq!(order.last(), Some(&at));
        let mut numbers = s.clone();
        numbers.remove(at);
        let want: Vec<usize> = comparator_order(&numbers)
            .into_iter()
            .map(|u| if u >= at { u + 1 } else { u })
            .collect();
        prop_assert_eq!(&order[..order.len() - 1], &want[..]);
    }

    #[test]
    fn sorted_extremes_match_the_full_sort(
        s in scores(1usize..120),
        head in 0usize..70,
        tail in 0usize..70,
    ) {
        let mut full = Vec::new();
        prop_assert!(best_first_keys(&s, &mut full));
        full.sort_unstable();
        let mut keys = Vec::new();
        best_first_keys(&s, &mut keys);
        sort_extremes(&mut keys, head, tail);
        let m = s.len();
        let (h, t) = (head.min(m), tail.min(m));
        prop_assert_eq!(&keys[..h], &full[..h]);
        prop_assert_eq!(&keys[m - t..], &full[m - t..]);
        let users: Vec<usize> = full.iter().map(|&k| key_user(k)).collect();
        prop_assert_eq!(users, comparator_order(&s));
    }

    #[test]
    fn orientation_matches_the_full_sort_rule(
        (matrix, s) in (2usize..160).prop_flat_map(|m| (responses(m), scores(m..m + 1)))
    ) {
        assert_same_orientation(&matrix, s)?;
    }

    #[test]
    fn orientation_matches_on_tiny_rosters(
        (matrix, s) in (0usize..4).prop_flat_map(|i| {
            let m = [2usize, 3, 10, 11][i];
            (responses(m), scores(m..m + 1))
        })
    ) {
        assert_same_orientation(&matrix, s)?;
    }
}
