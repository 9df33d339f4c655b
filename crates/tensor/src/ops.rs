//! Numerically careful activation functions and their derivatives.
//!
//! These are exactly the nonlinearities appearing in the COM-AID equations
//! of Section 4.1: the sigmoid `δ(·)` for the LSTM gates, `tanh(·)` for the
//! cell candidate and the composite layer (Eq. 8), and `softmax(·)` for the
//! attention weights (Eq. 5, 7) and the output distribution (Eq. 9).
//!
//! Every exponential and hyperbolic tangent here is [`crate::libm`]'s —
//! the repo's own definition, bit-identical at every dispatch level; the
//! one libm function this module still takes from the platform is `ln`.

use crate::libm;
use crate::vector::Vector;

/// Logistic sigmoid `δ(x) = 1 / (1 + e^{-x})`, evaluated in a form that
/// never exponentiates a large positive argument.
pub use crate::libm::sigmoid;

/// Derivative of the sigmoid expressed through its output:
/// `δ'(x) = y (1 - y)` where `y = δ(x)`.
#[inline]
pub fn sigmoid_grad_from_output(y: f32) -> f32 {
    y * (1.0 - y)
}

/// Derivative of `tanh` expressed through its output: `1 - y²`.
#[inline]
pub fn tanh_grad_from_output(y: f32) -> f32 {
    1.0 - y * y
}

/// Applies the sigmoid element-wise, in place.
pub fn sigmoid_inplace(v: &mut Vector) {
    libm::sigmoid_inplace(v.as_mut_slice());
}

/// Applies `tanh` element-wise, in place.
pub fn tanh_inplace(v: &mut Vector) {
    libm::tanh_inplace(v.as_mut_slice());
}

/// Max-shifted softmax: `softmax(x)_i = e^{x_i - m} / Σ_j e^{x_j - m}`.
///
/// The subtraction of the maximum makes the computation immune to overflow
/// for any finite input. Returns the uniform distribution for an empty or
/// degenerate input (all `-inf`).
pub fn softmax(x: &Vector) -> Vector {
    softmax_parts(x).0
}

/// [`softmax`] together with the log-sum-exp `m + ln Σ_j e^{x_j − m}` its
/// one exponential pass already holds — what a loss needs for both the
/// gradient (`softmax`) and `log p(target) = x[target] − lse`.
///
/// The shift and the sequential exp-sum are those of [`log_softmax`], so
/// `x[i] - lse` is bit-identical to `log_softmax(x)[i]` (degenerate
/// inputs included: the sum is taken before the degeneracy check, and
/// comes out NaN exactly as it does there).
pub fn softmax_with_lse(x: &Vector) -> (Vector, f32) {
    let (probs, m, sum) = softmax_parts(x);
    (probs, m + sum.ln())
}

/// The softmax, its shift `m = max(x)` and its exp-sum `Σ_j e^{x_j − m}`.
fn softmax_parts(x: &Vector) -> (Vector, f32, f32) {
    let mut out = x.as_slice().to_vec();
    let (m, sum) = softmax_inplace(&mut out);
    (Vector::from_vec(out), m, sum)
}

/// [`softmax`] over a slice, in place, returning the shift `m = max(x)`
/// and the exp-sum `Σ_j e^{x_j − m}` — the one definition behind
/// [`softmax`] / [`softmax_with_lse`], for callers that keep scores in
/// scratch storage (the serving attention) and for the training loss.
/// A degenerate input (empty, or no finite maximum) becomes the uniform
/// distribution.
///
/// The max pass is [`crate::simd::max`], which skips NaN the way the
/// `f32::max` fold does, so the shift `m` is the fold's at every level.
pub fn softmax_inplace(x: &mut [f32]) -> (f32, f32) {
    let n = x.len();
    let m = crate::simd::max(x);
    let sum = libm::exp_shifted_inplace(x, m);
    if !m.is_finite() {
        x.fill(1.0 / n as f32);
        return (m, sum);
    }
    let inv = 1.0 / sum;
    for v in x.iter_mut() {
        *v *= inv;
    }
    (m, sum)
}

/// Log-softmax, computed with the log-sum-exp trick. Needed for the loss
/// `−log p(q|c; Θ)` of Eq. 10 without floating-point underflow — the same
/// concern Appendix A raises when it defines `Loss = −log p(q|c; Θ)`.
pub fn log_softmax(x: &Vector) -> Vector {
    let n = x.len();
    if n == 0 {
        return Vector::zeros(0);
    }
    let m = x.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
    let lse = m + libm::sum_exp_shifted(x.as_slice(), m).ln();
    Vector::from_vec(x.iter().map(|&v| v - lse).collect())
}

/// The `idx`-th entry of [`log_softmax`] without materialising the output
/// vector — the scoring kernel of Eq. 3, where only `log p(w_t | ·)` of
/// the *target* word is ever read while the full `|V|`-vector would be
/// thrown away.
///
/// Two passes over `x` (max, then exp-sum), no allocation. The pass
/// structure and accumulation order match [`log_softmax`] exactly, so the
/// result is bit-identical to `log_softmax(x)[idx]` — the serving cache's
/// "same score to the last bit" guarantee rests on this.
///
/// # Panics
/// Panics if `idx` is out of range.
pub fn log_softmax_at(x: &Vector, idx: usize) -> f32 {
    log_softmax_at_slice(x.as_slice(), idx)
}

/// [`log_softmax_at`] over a raw slice — for callers holding a row of a
/// batched logits [`Matrix`](crate::Matrix) rather than a [`Vector`].
///
/// # Panics
/// Panics if `idx` is out of range.
pub fn log_softmax_at_slice(x: &[f32], idx: usize) -> f32 {
    assert!(idx < x.len(), "log_softmax_at: index out of range");
    x[idx] - log_sum_exp_slice(x)
}

/// The max-shifted log-sum-exp `m + ln Σ exp(x_i − m)` of a slice, with
/// the same pass structure and accumulation order as [`log_softmax`], so
/// `x[i] - log_sum_exp_slice(x)` is bit-identical to `log_softmax(x)[i]`.
/// Callers that score the same logits vector repeatedly (the serving
/// cache's precomputed first decoder step) store this denominator once.
///
/// The max pass runs through [`crate::simd::max`]: the maximum is
/// association-independent once NaN is skipped, so vectorising it cannot
/// change the shift `m`.
/// The exponentials go eight wide ([`libm::sum_exp_shifted`]) and their
/// sum stays the sequential ascending chain — result bits are unchanged
/// at every dispatch level.
pub fn log_sum_exp_slice(x: &[f32]) -> f32 {
    let m = crate::simd::max(x);
    m + libm::sum_exp_shifted(x, m).ln()
}

/// Backward pass through a softmax, in place: given the output
/// `y = softmax(x)`, the upstream gradient in `dy` becomes
/// `dx = (diag(y) − y yᵀ) dy`, i.e. `dx_i = y_i (dy_i − Σ_j y_j dy_j)`.
///
/// # Panics
/// Panics if the lengths differ.
pub fn softmax_backward(y: &[f32], dy: &mut [f32]) {
    let s = crate::vector::dot(y, dy);
    for (d, &yi) in dy.iter_mut().zip(y) {
        *d = yi * (*d - s);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn sigmoid_midpoint_and_limits() {
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-7);
        assert!(sigmoid(40.0) > 0.999_999);
        assert!(sigmoid(-40.0) < 1e-6);
        assert!(sigmoid(1000.0).is_finite());
        assert!(sigmoid(-1000.0).is_finite());
    }

    #[test]
    fn sigmoid_symmetry() {
        for x in [-3.0f32, -0.5, 0.7, 2.0] {
            assert!((sigmoid(x) + sigmoid(-x) - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn sigmoid_grad_matches_finite_difference() {
        let h = 1e-3f32;
        for x in [-2.0f32, 0.0, 1.5] {
            let fd = (sigmoid(x + h) - sigmoid(x - h)) / (2.0 * h);
            let an = sigmoid_grad_from_output(sigmoid(x));
            assert!((fd - an).abs() < 1e-3, "x={x}: fd={fd}, an={an}");
        }
    }

    #[test]
    fn tanh_grad_matches_finite_difference() {
        let h = 1e-3f32;
        for x in [-2.0f32, 0.0, 1.5] {
            let fd = ((x + h).tanh() - (x - h).tanh()) / (2.0 * h);
            let an = tanh_grad_from_output(x.tanh());
            assert!((fd - an).abs() < 1e-3);
        }
    }

    #[test]
    fn softmax_sums_to_one() {
        let x = Vector::from_slice(&[1.0, 2.0, 3.0]);
        let y = softmax(&x);
        assert!((y.sum() - 1.0).abs() < 1e-6);
        assert!(y[2] > y[1] && y[1] > y[0]);
    }

    #[test]
    fn softmax_overflow_safe() {
        let x = Vector::from_slice(&[1000.0, 1000.0]);
        let y = softmax(&x);
        assert!(y.is_finite());
        assert!((y[0] - 0.5).abs() < 1e-6);
    }

    #[test]
    fn softmax_empty() {
        assert_eq!(softmax(&Vector::zeros(0)).len(), 0);
    }

    #[test]
    fn softmax_with_lse_reproduces_log_softmax_bits() {
        // The training loss reads `x[target] - lse` where it used to
        // read `log_softmax(x)[target]`: same bits, degenerate inputs
        // (all `-inf`, a lone `+inf`) included.
        let wide: Vec<f32> = (0..300).map(|i| ((i as f32) * 0.37).sin() * 9.0).collect();
        for x in [
            vec![0.1, -2.0, 3.5, 0.0, 17.25, -0.875],
            wide,
            vec![1000.0, 1000.0],
            vec![f32::NEG_INFINITY; 3],
            vec![0.0, f32::INFINITY],
        ] {
            let x = Vector::from_vec(x);
            let (probs, lse) = softmax_with_lse(&x);
            let full = log_softmax(&x);
            for i in 0..x.len() {
                assert_eq!((x[i] - lse).to_bits(), full[i].to_bits(), "{x:?}[{i}]");
            }
            assert_eq!(probs.len(), x.len());
        }
        let (probs, _) = softmax_with_lse(&Vector::from_vec(vec![f32::NEG_INFINITY; 4]));
        assert_eq!(probs.as_slice(), &[0.25; 4]);
    }

    #[test]
    fn log_softmax_consistency() {
        let x = Vector::from_slice(&[0.1, -2.0, 3.5, 0.0]);
        let s = softmax(&x);
        let ls = log_softmax(&x);
        for i in 0..x.len() {
            assert!((s[i].ln() - ls[i]).abs() < 1e-5);
        }
    }

    #[test]
    fn log_softmax_at_bit_identical_to_full() {
        // Not approximate: the serving cache asserts bit-identical scores,
        // so the scalar kernel must reproduce the vector kernel exactly.
        let x = Vector::from_slice(&[0.1, -2.0, 3.5, 0.0, 17.25, -0.875]);
        let full = log_softmax(&x);
        for i in 0..x.len() {
            assert_eq!(log_softmax_at(&x, i).to_bits(), full[i].to_bits());
        }
    }

    #[test]
    #[should_panic(expected = "index out of range")]
    fn log_softmax_at_out_of_range_panics() {
        let _ = log_softmax_at(&Vector::from_slice(&[0.0, 1.0]), 2);
    }

    #[test]
    fn softmax_backward_matches_finite_difference() {
        let x = Vector::from_slice(&[0.2, -0.4, 1.0]);
        let dy = Vector::from_slice(&[0.3, -0.1, 0.7]);
        let mut an = dy.clone();
        softmax_backward(softmax(&x).as_slice(), an.as_mut_slice());
        let h = 1e-3f32;
        for i in 0..x.len() {
            let mut xp = x.clone();
            xp[i] += h;
            let mut xm = x.clone();
            xm[i] -= h;
            let fp = softmax(&xp).dot(&dy);
            let fm = softmax(&xm).dot(&dy);
            let fd = (fp - fm) / (2.0 * h);
            assert!((fd - an[i]).abs() < 1e-3, "i={i}: fd={fd}, an={}", an[i]);
        }
    }

    proptest! {
        #[test]
        fn softmax_simplex(x in proptest::collection::vec(-20.0f32..20.0, 1..24)) {
            let y = softmax(&Vector::from_slice(&x));
            prop_assert!((y.sum() - 1.0).abs() < 1e-4);
            prop_assert!(y.iter().all(|&v| (0.0..=1.0).contains(&v)));
        }

        #[test]
        fn softmax_shift_invariance(
            x in proptest::collection::vec(-5.0f32..5.0, 2..16),
            c in -10.0f32..10.0,
        ) {
            let a = softmax(&Vector::from_slice(&x));
            let shifted: Vec<f32> = x.iter().map(|v| v + c).collect();
            let b = softmax(&Vector::from_slice(&shifted));
            for i in 0..x.len() {
                prop_assert!((a[i] - b[i]).abs() < 1e-4);
            }
        }

        #[test]
        fn log_softmax_nonpositive(x in proptest::collection::vec(-10.0f32..10.0, 1..16)) {
            let ls = log_softmax(&Vector::from_slice(&x));
            prop_assert!(ls.iter().all(|&v| v <= 1e-5));
        }

        #[test]
        fn log_softmax_at_agrees_everywhere(
            x in proptest::collection::vec(-30.0f32..30.0, 1..24),
        ) {
            let v = Vector::from_slice(&x);
            let full = log_softmax(&v);
            for i in 0..x.len() {
                prop_assert_eq!(log_softmax_at(&v, i).to_bits(), full[i].to_bits());
            }
        }
    }
}
