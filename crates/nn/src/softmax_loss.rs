//! Softmax + negative log-likelihood, fused.
//!
//! Eq. 9 produces `p(w_t^q | w_{<t}^q, c) = softmax(W_s s̃_t + b_s)` and the
//! training objective (Eq. 10) sums `−log p`. Fusing them gives the
//! numerically stable loss `−log_softmax(logits)[target]` with the textbook
//! gradient `d logits = softmax(logits) − one_hot(target)`.

use ncl_tensor::ops::softmax_with_lse;
use ncl_tensor::Vector;

/// Result of a fused softmax-NLL forward pass.
#[derive(Debug, Clone)]
pub struct SoftmaxNll {
    /// The loss `−log p(target)`.
    pub loss: f32,
    /// The full probability vector (needed by the backward pass and by the
    /// feedback controller's uncertainty measure).
    pub probs: Vector,
    /// The log-probability of the target (so callers can accumulate
    /// `log p(q|c)` across the decoder chain, Eq. 3).
    pub log_prob: f32,
}

/// Forward: loss and probabilities for `target` under `logits`.
///
/// # Panics
/// Panics if `target` is out of range.
pub fn forward(logits: &Vector, target: usize) -> SoftmaxNll {
    assert!(target < logits.len(), "softmax_nll: target out of range");
    // One exponential pass serves both: the probabilities the backward
    // pass needs and, through its sum, `log_softmax(logits)[target]`.
    let (probs, lse) = softmax_with_lse(logits);
    let log_prob = logits[target] - lse;
    SoftmaxNll {
        loss: -log_prob,
        probs,
        log_prob,
    }
}

/// Backward: `d logits = probs − one_hot(target)`, scaled by `scale`
/// (used to average over a mini-batch, the `1/|D|` of Eq. 10).
pub fn backward(out: &SoftmaxNll, target: usize, scale: f32) -> Vector {
    let mut d = out.probs.clone();
    d[target] -= 1.0;
    d.scale(scale);
    d
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn loss_is_nll_of_target() {
        let logits = Vector::from_slice(&[1.0, 2.0, 3.0]);
        let out = forward(&logits, 2);
        assert!((out.loss + out.probs[2].ln()).abs() < 1e-5);
        assert!(out.loss > 0.0);
    }

    #[test]
    fn perfect_prediction_low_loss() {
        let logits = Vector::from_slice(&[20.0, 0.0, 0.0]);
        assert!(forward(&logits, 0).loss < 1e-3);
        assert!(forward(&logits, 1).loss > 10.0);
    }

    #[test]
    fn gradient_matches_finite_difference() {
        let logits = Vector::from_slice(&[0.5, -1.0, 2.0, 0.0]);
        let target = 1;
        let out = forward(&logits, target);
        let d = backward(&out, target, 1.0);
        let h = 1e-3f32;
        for k in 0..4 {
            let mut lp = logits.clone();
            lp[k] += h;
            let mut lm = logits.clone();
            lm[k] -= h;
            let fd = (forward(&lp, target).loss - forward(&lm, target).loss) / (2.0 * h);
            assert!((fd - d[k]).abs() < 1e-2, "k={k}: fd={fd} an={}", d[k]);
        }
    }

    #[test]
    fn gradient_sums_to_zero() {
        let logits = Vector::from_slice(&[0.5, -1.0, 2.0]);
        let out = forward(&logits, 0);
        let d = backward(&out, 0, 1.0);
        assert!(d.sum().abs() < 1e-5);
    }

    #[test]
    fn scale_is_applied() {
        let logits = Vector::from_slice(&[0.5, -1.0]);
        let out = forward(&logits, 0);
        let d1 = backward(&out, 0, 1.0);
        let d2 = backward(&out, 0, 0.5);
        for k in 0..2 {
            assert!((d2[k] - 0.5 * d1[k]).abs() < 1e-6);
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_target_panics() {
        let _ = forward(&Vector::from_slice(&[0.0, 1.0]), 2);
    }

    proptest! {
        #[test]
        fn loss_nonnegative(logits in proptest::collection::vec(-10.0f32..10.0, 2..16),
                            t_raw in 0usize..16) {
            let v = Vector::from_slice(&logits);
            let t = t_raw % logits.len();
            let out = forward(&v, t);
            prop_assert!(out.loss >= -1e-5);
            prop_assert!((out.log_prob + out.loss).abs() < 1e-5);
        }
    }
}
