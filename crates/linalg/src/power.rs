//! Power iteration with sign-aware convergence.
//!
//! This is the workhorse behind `HND-power` (Algorithm 1 of the paper) and
//! `ABH-power` (Algorithm 2). Convergence is declared when the normalized
//! iterate moves less than `tol` in L2 *up to sign* — the dominant
//! eigenvalue of `Udiff` can be negative away from the ideal C1P case, in
//! which case the iterate alternates sign every step.

use crate::op::LinearOp;
use crate::vector;

/// Options for [`power_iteration`].
#[derive(Debug, Clone, Copy)]
pub struct PowerOptions {
    /// L2 convergence tolerance on the change of the normalized iterate
    /// (paper: 1e-5).
    pub tol: f64,
    /// Iteration budget.
    pub max_iter: usize,
}

impl Default for PowerOptions {
    fn default() -> Self {
        PowerOptions {
            tol: 1e-5,
            max_iter: 10_000,
        }
    }
}

/// Result of a power iteration run.
#[derive(Debug, Clone)]
pub struct PowerOutcome {
    /// Unit-norm dominant eigenvector estimate.
    pub vector: Vec<f64>,
    /// Rayleigh-quotient estimate of the dominant eigenvalue, taken at the
    /// second-to-last iterate (see [`last_step_rayleigh`]).
    pub eigenvalue: f64,
    /// Iterations actually performed.
    pub iterations: usize,
    /// Whether the tolerance was met within the budget.
    pub converged: bool,
}

/// Runs power iteration on `op` starting from `x0`.
///
/// The starting vector is normalized internally; if it is zero, a
/// deterministic pseudo-random vector is used instead so the method is
/// usable without an RNG. The returned eigenvalue is a Rayleigh quotient
/// read off the last step ([`last_step_rayleigh`]), which for the
/// asymmetric update matrices of the paper is an estimate (the *ordering*
/// of the converged vector is what the callers consume).
pub fn power_iteration(op: &dyn LinearOp, x0: &[f64], opts: &PowerOptions) -> PowerOutcome {
    let n = op.dim();
    assert_eq!(x0.len(), n, "power_iteration: x0 length mismatch");
    let mut x = x0.to_vec();
    if vector::normalize(&mut x) == 0.0 {
        x = deterministic_start(n);
        vector::normalize(&mut x);
    }
    let mut y = vec![0.0; n];
    let mut iterations = 0;
    let mut converged = false;
    let mut last_norm = None;
    while iterations < opts.max_iter {
        op.apply(&x, &mut y);
        iterations += 1;
        let norm = vector::normalize(&mut y);
        last_norm = Some(norm);
        if norm == 0.0 {
            // x is (numerically) in the null space; the zero vector is a
            // fixed point — report non-convergence with the last iterate.
            break;
        }
        let delta = vector::sign_invariant_distance(&x, &y);
        std::mem::swap(&mut x, &mut y);
        if delta <= opts.tol {
            converged = true;
            break;
        }
    }
    let eigenvalue = last_step_rayleigh(op, &x, &mut y, last_norm);
    PowerOutcome {
        vector: x,
        eigenvalue,
        iterations,
        converged,
    }
}

/// The eigenvalue estimate of a finished power loop, without a further
/// operator apply.
///
/// After a step `x_k = A x_{k-1} / ‖A x_{k-1}‖` with unit `x_{k-1}`, the
/// Rayleigh quotient of `x_{k-1}` is `‖A x_{k-1}‖ · x_{k-1}ᵀ x_k`: the
/// step's norm (`last_norm`) times the dot of the two iterates the loop
/// still holds (`x` = `x_k`, `prev` = `x_{k-1}` after the final swap). A
/// step that hit the null space has quotient 0. Only a loop that ran no
/// step at all (a zero iteration budget) pays an apply, into `prev` as
/// scratch.
pub fn last_step_rayleigh(
    op: &dyn LinearOp,
    x: &[f64],
    prev: &mut [f64],
    last_norm: Option<f64>,
) -> f64 {
    match last_norm {
        Some(0.0) => 0.0,
        Some(norm) => norm * vector::dot(prev, x),
        None => {
            op.apply(x, prev);
            vector::dot(x, prev)
        }
    }
}

/// A fixed, seedless starting vector: entries from a small linear
/// congruential generator, guaranteed nonzero and not axis-aligned.
/// Deterministic so test failures reproduce.
pub fn deterministic_start(n: usize) -> Vec<f64> {
    deterministic_start_seeded(n, 0)
}

/// [`deterministic_start`] with a caller-chosen seed; seed `0` reproduces
/// the seedless vector exactly, so existing results are unchanged. Solvers
/// expose the seed through their shared options so repeated experiments can
/// draw independent starts while staying reproducible.
pub fn deterministic_start_seeded(n: usize, seed: u64) -> Vec<f64> {
    let mut state: u64 = 0x9E37_79B9_7F4A_7C15 ^ seed.wrapping_mul(0xA076_1D64_78BD_642F);
    (0..n)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            // map to (0, 1], then shift to avoid the all-positive constant vector
            ((state >> 11) as f64 / (1u64 << 53) as f64) - 0.5
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::DenseMatrix;
    use crate::op::DenseOp;

    #[test]
    fn dominant_eigenpair_of_diagonal() {
        let m = DenseMatrix::from_rows(&[&[3.0, 0.0], &[0.0, 1.0]]).unwrap();
        let op = DenseOp::new(&m);
        let out = power_iteration(&op, &[0.6, 0.8], &PowerOptions::default());
        assert!(out.converged);
        assert!((out.eigenvalue - 3.0).abs() < 1e-4);
        assert!(out.vector[0].abs() > 0.999);
        assert!(out.vector[1].abs() < 1e-2);
    }

    #[test]
    fn negative_dominant_eigenvalue_converges_up_to_sign() {
        // Dominant eigenvalue -4 (|.|-dominant), second eigenvalue 1.
        let m = DenseMatrix::from_rows(&[&[-4.0, 0.0], &[0.0, 1.0]]).unwrap();
        let op = DenseOp::new(&m);
        let out = power_iteration(&op, &[0.9, 0.1], &PowerOptions::default());
        assert!(out.converged, "sign-aware criterion must fire");
        assert!((out.eigenvalue - (-4.0)).abs() < 1e-3);
    }

    #[test]
    fn zero_start_uses_fallback() {
        let m = DenseMatrix::from_rows(&[&[2.0, 1.0], &[1.0, 2.0]]).unwrap();
        let op = DenseOp::new(&m);
        let out = power_iteration(&op, &[0.0, 0.0], &PowerOptions::default());
        assert!(out.converged);
        assert!((out.eigenvalue - 3.0).abs() < 1e-4);
    }

    #[test]
    fn respects_iteration_budget() {
        // Eigenvalue gap so small it can't converge in 3 iterations.
        let m = DenseMatrix::from_rows(&[&[1.0, 0.0], &[0.0, 0.999999]]).unwrap();
        let op = DenseOp::new(&m);
        let out = power_iteration(
            &op,
            &[0.5, 0.5],
            &PowerOptions {
                tol: 1e-14,
                max_iter: 3,
            },
        );
        assert!(!out.converged);
        assert_eq!(out.iterations, 3);
    }

    #[test]
    fn nilpotent_operator_terminates() {
        // A maps everything into the null direction after one step.
        let m = DenseMatrix::from_rows(&[&[0.0, 1.0], &[0.0, 0.0]]).unwrap();
        let op = DenseOp::new(&m);
        let out = power_iteration(&op, &[0.0, 1.0], &PowerOptions::default());
        // First apply gives e0; second apply gives 0 → terminate gracefully.
        assert!(out.iterations <= 3);
    }

    #[test]
    fn deterministic_start_is_reproducible_and_nonzero() {
        let a = deterministic_start(16);
        let b = deterministic_start(16);
        assert_eq!(a, b);
        assert!(crate::vector::norm2(&a) > 0.0);
        // Seed 0 is the seedless vector; other seeds differ but reproduce.
        assert_eq!(a, deterministic_start_seeded(16, 0));
        let c = deterministic_start_seeded(16, 7);
        assert_ne!(a, c);
        assert_eq!(c, deterministic_start_seeded(16, 7));
    }
}
