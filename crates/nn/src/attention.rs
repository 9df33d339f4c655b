//! Dot-product attention (Eq. 5–7 of the paper).
//!
//! Both of COM-AID's attentions share one mechanism over a *memory* of
//! vectors `{m_r}` and a decoder state `s_t`:
//!
//! ```text
//! e_r  = m_r · s_t                       (relatedness, inner product)
//! α_r  = exp(e_r) / Σ_p exp(e_p)          (Eq. 5 / Eq. 7 weights)
//! ctx  = Σ_r α_r m_r                      (Eq. 6 textual context tc_t,
//!                                          Eq. 7 structural context sc_t)
//! ```
//!
//! For the *textual* attention the memory is the encoder states
//! `⟨h_1^c … h_n^c⟩`; for the *structural* attention it is the encoded
//! ancestor representations `⟨h^{c_{l−1}} … h^{c_{l−β}}⟩` of
//! Definition 4.1. The layer has no trainable parameters — relatedness is
//! a plain inner product, per the paper — but its backward pass must
//! return gradients for the memory *and* the state, because encoder
//! states receive gradient through attention.

use ncl_tensor::ops::{softmax_backward, softmax_inplace};
use ncl_tensor::vector::dot;
use ncl_tensor::{simd, Vector};

/// Parameter-free dot-product attention.
#[derive(Debug, Clone, Copy, Default)]
pub struct DotAttention;

/// Cache of one attention application.
#[derive(Debug, Clone)]
pub struct AttentionCache {
    /// Softmax weights `α` (Eq. 5 / Eq. 7).
    pub weights: Vector,
}

impl DotAttention {
    /// Forward pass: returns `(context, cache)`.
    ///
    /// # Panics
    /// Panics if the memory is empty or dimensions disagree.
    pub fn forward(&self, memory: &[Vector], s: &Vector) -> (Vector, AttentionCache) {
        let mut weights = Vector::zeros(memory.len());
        let mut ctx = Vector::zeros(s.len());
        self.attend_into(
            memory.iter().map(Vector::as_slice),
            s.as_slice(),
            weights.as_mut_slice(),
            ctx.as_mut_slice(),
        );
        (ctx, AttentionCache { weights })
    }

    /// The forward pass over rows held anywhere — a slab's
    /// `chunks_exact(d)`, a `Vector` slice — written into caller
    /// storage with no allocation: `weights` (one slot per memory row)
    /// leaves holding `α`, `ctx` (overwritten) the context. The one
    /// definition of the attention arithmetic; [`DotAttention::forward`]
    /// wraps it.
    ///
    /// # Panics
    /// Panics if the memory is empty, `weights` does not have one slot
    /// per row, or dimensions disagree.
    pub fn attend_into<'m>(
        &self,
        memory: impl ExactSizeIterator<Item = &'m [f32]> + Clone,
        s: &[f32],
        weights: &mut [f32],
        ctx: &mut [f32],
    ) {
        assert!(memory.len() > 0, "attention: empty memory");
        assert_eq!(
            weights.len(),
            memory.len(),
            "attention: one weight slot per memory row"
        );
        assert_eq!(ctx.len(), s.len(), "attention: context dimension");
        for (e, m) in weights.iter_mut().zip(memory.clone()) {
            *e = dot(m, s);
        }
        softmax_inplace(weights);
        ctx.fill(0.0);
        for (m, &w) in memory.zip(weights.iter()) {
            simd::saxpy(ctx, w, m);
        }
    }

    /// Backward pass, the slice-level twin of [`DotAttention::attend_into`]:
    /// given the upstream gradient `dctx` on the context and the weights
    /// `alpha` the forward pass left, writes the memory gradients into
    /// `dmem` (a flat `n × d` slab, one row per memory row) and the state
    /// gradient into `ds` — both overwritten, nothing allocated. `de` is
    /// `n` floats of scratch and leaves holding the score gradients.
    ///
    /// Derivation: with `ctx = Σ α_r m_r`,
    /// * `dα_r = m_r · dctx`,
    /// * `de = softmax_backward(α, dα)`,
    /// * `dm_r = α_r · dctx + de_r · s` (context path + score path),
    /// * `ds = Σ_r de_r · m_r`.
    ///
    /// # Panics
    /// Panics if a slice does not match the memory's shape.
    #[allow(clippy::too_many_arguments)]
    pub fn backward_into<'m>(
        &self,
        memory: impl ExactSizeIterator<Item = &'m [f32]> + Clone,
        s: &[f32],
        alpha: &[f32],
        dctx: &[f32],
        de: &mut [f32],
        dmem: &mut [f32],
        ds: &mut [f32],
    ) {
        let (n, d) = (memory.len(), s.len());
        assert_eq!(alpha.len(), n, "attention backward: one weight per row");
        assert_eq!(de.len(), n, "attention backward: score scratch");
        assert_eq!(dmem.len(), n * d, "attention backward: memory gradient");
        assert_eq!(ds.len(), d, "attention backward: state gradient");
        for (e, m) in de.iter_mut().zip(memory.clone()) {
            *e = dot(m, dctx);
        }
        softmax_backward(alpha, de);
        ds.fill(0.0);
        dmem.fill(0.0);
        for (r, m) in memory.enumerate() {
            simd::saxpy(ds, de[r], m);
            let dm = &mut dmem[r * d..(r + 1) * d];
            simd::saxpy(dm, alpha[r], dctx);
            simd::saxpy(dm, de[r], s);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ncl_tensor::init;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup(n: usize, d: usize, seed: u64) -> (Vec<Vector>, Vector, Vector) {
        let mut rng = StdRng::seed_from_u64(seed);
        let memory: Vec<Vector> = (0..n)
            .map(|_| init::uniform_vector(d, -1.0, 1.0, &mut rng))
            .collect();
        let s = init::uniform_vector(d, -1.0, 1.0, &mut rng);
        let u = init::uniform_vector(d, -1.0, 1.0, &mut rng);
        (memory, s, u)
    }

    #[test]
    fn weights_form_simplex() {
        let (memory, s, _) = setup(5, 4, 1);
        let (_, cache) = DotAttention.forward(&memory, &s);
        assert!((cache.weights.sum() - 1.0).abs() < 1e-5);
        assert!(cache.weights.iter().all(|&w| (0.0..=1.0).contains(&w)));
    }

    #[test]
    fn context_is_convex_combination() {
        // With a single memory vector the context must equal it.
        let (memory, s, _) = setup(1, 4, 2);
        let (ctx, _) = DotAttention.forward(&memory, &s);
        for k in 0..4 {
            assert!((ctx[k] - memory[0][k]).abs() < 1e-5);
        }
    }

    #[test]
    fn attends_to_most_aligned_memory() {
        // Memory item parallel to s gets the largest weight.
        let s = Vector::from_slice(&[1.0, 0.0]);
        let memory = vec![
            Vector::from_slice(&[5.0, 0.0]),
            Vector::from_slice(&[0.0, 5.0]),
            Vector::from_slice(&[-5.0, 0.0]),
        ];
        let (_, cache) = DotAttention.forward(&memory, &s);
        assert!(cache.weights[0] > cache.weights[1]);
        assert!(cache.weights[1] > cache.weights[2]);
    }

    #[test]
    #[should_panic(expected = "empty memory")]
    fn empty_memory_panics() {
        let _ = DotAttention.forward(&[], &Vector::zeros(2));
    }

    /// Exact gradient check of both outputs against finite differences of
    /// the scalar loss `L = u · ctx(memory, s)`.
    #[test]
    fn gradients_match_finite_differences() {
        let (memory, s, u) = setup(3, 4, 7);
        let att = DotAttention;
        let loss = |memory: &[Vector], s: &Vector| att.forward(memory, s).0.dot(&u);

        let (_, cache) = att.forward(&memory, &s);
        let (mut de, mut dmem, mut ds) = (vec![f32::NAN; 3], vec![f32::NAN; 12], vec![f32::NAN; 4]);
        att.backward_into(
            memory.iter().map(Vector::as_slice),
            s.as_slice(),
            cache.weights.as_slice(),
            u.as_slice(),
            &mut de,
            &mut dmem,
            &mut ds,
        );

        let h = 1e-2f32;
        // d/ds
        for k in 0..4 {
            let mut sp = s.clone();
            sp[k] += h;
            let mut sm = s.clone();
            sm[k] -= h;
            let fd = (loss(&memory, &sp) - loss(&memory, &sm)) / (2.0 * h);
            assert!((fd - ds[k]).abs() < 2e-2, "ds[{k}]: fd={fd} an={}", ds[k]);
        }
        // d/dmemory
        for r in 0..3 {
            for k in 0..4 {
                let mut mp = memory.clone();
                mp[r][k] += h;
                let mut mm = memory.clone();
                mm[r][k] -= h;
                let fd = (loss(&mp, &s) - loss(&mm, &s)) / (2.0 * h);
                assert!(
                    (fd - dmem[r * 4 + k]).abs() < 2e-2,
                    "dmem[{r}][{k}]: fd={fd} an={}",
                    dmem[r * 4 + k]
                );
            }
        }
    }

    /// The slab form over flat rows — at every dispatch level, into
    /// dirty output storage — has the bits of the `Vector` pass the
    /// uncached model runs; all-`-inf` scores degrade to the uniform
    /// weights on both.
    #[test]
    fn flat_rows_bit_identical_to_vector_forward_at_every_level() {
        use ncl_tensor::simd;
        for (n, d) in [(1usize, 4usize), (8, 32), (3, 150), (5, 7)] {
            let (mut memory, s, _) = setup(n, d, 13);
            for degenerate in [false, true] {
                if degenerate {
                    // m·s = -inf for every row: no finite maximum.
                    for m in &mut memory {
                        m[0] = f32::NEG_INFINITY * s[0].signum();
                    }
                }
                let flat: Vec<f32> = memory.iter().flat_map(|m| m.iter().copied()).collect();
                let (want_ctx, want) =
                    simd::with_level(simd::Level::Scalar, || DotAttention.forward(&memory, &s));
                if degenerate {
                    assert!(want.weights.iter().all(|&w| w == 1.0 / n as f32));
                }
                for level in simd::supported_levels() {
                    let (mut weights, mut ctx) = (vec![f32::NAN; n], vec![f32::NAN; d]);
                    simd::with_level(level, || {
                        DotAttention.attend_into(
                            flat.chunks_exact(d),
                            s.as_slice(),
                            &mut weights,
                            &mut ctx,
                        )
                    });
                    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    let ctx_name = format!("{n}x{d} degenerate={degenerate} {}", level.name());
                    assert_eq!(bits(&weights), bits(want.weights.as_slice()), "{ctx_name}");
                    assert_eq!(bits(&ctx), bits(want_ctx.as_slice()), "{ctx_name}");
                }
            }
        }
    }

    #[test]
    fn duplicate_memory_shares_weight_equally() {
        // Definition 4.1 duplicates the first-level concept when the path
        // is short; duplicated memory entries must receive equal weights.
        let m = Vector::from_slice(&[0.3, -0.7]);
        let memory = vec![m.clone(), m.clone()];
        let s = Vector::from_slice(&[1.0, 1.0]);
        let (_, cache) = DotAttention.forward(&memory, &s);
        assert!((cache.weights[0] - 0.5).abs() < 1e-6);
        assert!((cache.weights[1] - 0.5).abs() < 1e-6);
    }
}
