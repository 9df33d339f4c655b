//! Softmax + negative log-likelihood, fused, over a slab of logit rows.
//!
//! Eq. 9 produces `p(w_t^q | w_{<t}^q, c) = softmax(W_s s̃_t + b_s)` and the
//! training objective (Eq. 10) sums `−log p`. Fusing them gives the
//! numerically stable loss `−log_softmax(logits)[target]` with the textbook
//! gradient `d logits = softmax(logits) − one_hot(target)`.
//!
//! Both passes run **in place** on the `T × |V|` slab the output layer
//! wrote: the forward pass turns each row of logits into its
//! probabilities, the backward pass turns those into `d logits`. A
//! decoder step therefore owns no `|V|`-float buffer of its own.

use ncl_tensor::ops::softmax_inplace;
use ncl_tensor::simd;

/// Forward: one row of `logits` per entry of `targets`, each turned into
/// its softmax probabilities in place, with `log p(target)` of row `s`
/// written to `log_probs[s]` (the loss of the row is its negation).
///
/// The target logit is read first; `lse = m + ln Σ_j e^{x_j − m}` then
/// comes from the one exponential pass that builds the probabilities
/// ([`softmax_inplace`]), so `log_probs[s]` is bit-identical to
/// `log_softmax(row)[target]`. A row with no finite maximum becomes the
/// uniform distribution, as everywhere else.
///
/// # Panics
/// Panics if the slab is not one equal-width row per target, if
/// `log_probs` has another length, or if a target is out of range.
pub fn forward_seq(logits: &mut [f32], targets: &[u32], log_probs: &mut [f32]) {
    assert_eq!(
        log_probs.len(),
        targets.len(),
        "softmax_nll: one log-prob per row"
    );
    let Some(width) = row_width(logits.len(), targets.len()) else {
        return;
    };
    for ((row, &target), lp) in logits.chunks_exact_mut(width).zip(targets).zip(log_probs) {
        assert!(
            (target as usize) < width,
            "softmax_nll: target out of range"
        );
        let target_logit = row[target as usize];
        let (m, sum) = softmax_inplace(row);
        *lp = target_logit - (m + sum.ln());
    }
}

/// Backward: each row of `probs` (as [`forward_seq`] left it) becomes
/// `d logits = probs − one_hot(target)`, scaled by `scale` (used to
/// average over a mini-batch, the `1/|D|` of Eq. 10), in place.
///
/// # Panics
/// Panics if the slab is not one equal-width row per target or a target
/// is out of range.
pub fn backward_seq(probs: &mut [f32], targets: &[u32], scale: f32) {
    let Some(width) = row_width(probs.len(), targets.len()) else {
        return;
    };
    for (row, &target) in probs.chunks_exact_mut(width).zip(targets) {
        assert!(
            (target as usize) < width,
            "softmax_nll: target out of range"
        );
        row[target as usize] -= 1.0;
        simd::scale(row, scale);
    }
}

/// Row width of a `rows`-row slab of `len` floats; `None` without rows.
fn row_width(len: usize, rows: usize) -> Option<usize> {
    if rows == 0 {
        assert_eq!(len, 0, "softmax_nll: slab without rows");
        return None;
    }
    assert_eq!(len % rows, 0, "softmax_nll: ragged slab");
    // An empty row holds no target.
    assert!(len > 0, "softmax_nll: target out of range");
    Some(len / rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// One row: `(loss, probabilities)`.
    fn forward(logits: &[f32], target: u32) -> (f32, Vec<f32>) {
        let mut probs = logits.to_vec();
        let mut lp = [0.0f32];
        forward_seq(&mut probs, &[target], &mut lp);
        (-lp[0], probs)
    }

    fn backward(logits: &[f32], target: u32, scale: f32) -> Vec<f32> {
        let (_, mut d) = forward(logits, target);
        backward_seq(&mut d, &[target], scale);
        d
    }

    #[test]
    fn loss_is_nll_of_target() {
        let (loss, probs) = forward(&[1.0, 2.0, 3.0], 2);
        assert!((loss + probs[2].ln()).abs() < 1e-5);
        assert!(loss > 0.0);
    }

    #[test]
    fn perfect_prediction_low_loss() {
        assert!(forward(&[20.0, 0.0, 0.0], 0).0 < 1e-3);
        assert!(forward(&[20.0, 0.0, 0.0], 1).0 > 10.0);
    }

    #[test]
    fn rows_of_a_slab_are_independent() {
        let rows = [[1.0f32, 2.0, 3.0], [0.5, -1.0, 2.0]];
        let mut slab: Vec<f32> = rows.iter().flatten().copied().collect();
        let mut lps = [0.0f32; 2];
        forward_seq(&mut slab, &[2, 0], &mut lps);
        for (s, (row, target)) in rows.iter().zip([2u32, 0]).enumerate() {
            let (loss, probs) = forward(row, target);
            assert_eq!(lps[s].to_bits(), (-loss).to_bits());
            assert_eq!(&slab[s * 3..(s + 1) * 3], probs.as_slice());
        }
    }

    #[test]
    fn gradient_matches_finite_difference() {
        let logits = [0.5f32, -1.0, 2.0, 0.0];
        let target = 1;
        let d = backward(&logits, target, 1.0);
        let h = 1e-3f32;
        for k in 0..4 {
            let mut lp = logits;
            lp[k] += h;
            let mut lm = logits;
            lm[k] -= h;
            let fd = (forward(&lp, target).0 - forward(&lm, target).0) / (2.0 * h);
            assert!((fd - d[k]).abs() < 1e-2, "k={k}: fd={fd} an={}", d[k]);
        }
    }

    #[test]
    fn gradient_sums_to_zero() {
        let d = backward(&[0.5, -1.0, 2.0], 0, 1.0);
        assert!(d.iter().sum::<f32>().abs() < 1e-5);
    }

    #[test]
    fn scale_is_applied() {
        let d1 = backward(&[0.5, -1.0], 0, 1.0);
        let d2 = backward(&[0.5, -1.0], 0, 0.5);
        for k in 0..2 {
            assert!((d2[k] - 0.5 * d1[k]).abs() < 1e-6);
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_target_panics() {
        let _ = forward(&[0.0, 1.0], 2);
    }

    proptest! {
        #[test]
        fn loss_nonnegative(logits in proptest::collection::vec(-10.0f32..10.0, 2..16),
                            t_raw in 0usize..16) {
            let t = t_raw % logits.len();
            let (loss, probs) = forward(&logits, t as u32);
            prop_assert!(loss >= -1e-5);
            prop_assert!((loss + probs[t].ln()).abs() < 1e-4);
        }
    }
}
