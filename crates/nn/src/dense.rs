//! Affine layer, optionally followed by `tanh`.
//!
//! Two places in COM-AID are plain affine maps: the composite layer of
//! Eq. 8, `s̃_t = tanh(W_d [s_t; tc_t; sc_t] + b_d)`, and the output
//! projection of Eq. 9, `W_s s̃_t + b_s` (whose softmax lives in
//! [`crate::softmax_loss`]).

use crate::param::{HasParams, MatParam, ParamSet, Parameter, VecParam};
use ncl_tensor::ops::tanh_grad_from_output;
use ncl_tensor::wire::{Reader, Wire, WireError};
use ncl_tensor::{init, libm, simd, Vector};
use rand::Rng;

/// Whether the layer applies `tanh` after the affine map.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Activation {
    /// Identity (used before a softmax).
    Linear,
    /// Hyperbolic tangent (Eq. 8).
    Tanh,
}

/// A dense layer `y = act(W x + b)`.
#[derive(Debug, Clone)]
pub struct Dense {
    /// Weight matrix `out × in`.
    pub w: MatParam,
    /// Bias.
    pub b: VecParam,
    act: Activation,
}

impl Dense {
    /// Creates a Xavier-initialised layer.
    pub fn new<R: Rng + ?Sized>(
        in_dim: usize,
        out_dim: usize,
        act: Activation,
        rng: &mut R,
    ) -> Self {
        Self {
            w: MatParam::new(init::xavier_uniform(out_dim, in_dim, rng)),
            b: VecParam::zeros(out_dim),
            act,
        }
    }

    /// Input dimension.
    pub fn in_dim(&self) -> usize {
        self.w.v.cols()
    }

    /// Output dimension.
    pub fn out_dim(&self) -> usize {
        self.w.v.rows()
    }

    /// The taped forward pass over a whole sequence: row `s` of `ys`
    /// (a flat `t × out` slab, overwritten) is `act(W xs[s] + b)` for
    /// row `s` of `xs` (a flat `t × in` slab). Transposes `W` for the
    /// one call and runs [`Dense::forward_seq_with_t`]; a caller that
    /// runs many sequences under the same weights (the trainer, once per
    /// batch) keeps the transposed copy and calls that directly.
    ///
    /// # Panics
    /// Panics if a slab is not `t` rows of the layer's dimension.
    pub fn forward_seq(&self, xs: &[f32], ys: &mut [f32], t: usize) {
        self.forward_seq_with_t(&self.weight_t(), xs, ys, t);
    }

    /// [`Dense::forward_seq`] against a caller-held transposed weight
    /// matrix (from [`Dense::weight_t`]): one stacked product per
    /// sequence ([`simd::colmajor_gemv_acc_seq`]) instead of one per
    /// step. Each output is the bias plus the same fresh-accumulator
    /// ascending dot, so every row is bit-identical to [`Dense::apply`]
    /// on it — a zero-input layer adds nothing, so a `-0` bias entry
    /// stays `-0`. Nothing is cached: the caller's two slabs are what
    /// [`Dense::backward_seq`] reads.
    ///
    /// # Panics
    /// Panics if a slab is not `t` rows of the layer's dimension, or
    /// `w_t` is not the transposed weight shape.
    pub fn forward_seq_with_t(
        &self,
        w_t: &ncl_tensor::Matrix,
        xs: &[f32],
        ys: &mut [f32],
        t: usize,
    ) {
        let out = self.out_dim();
        assert_eq!(xs.len(), t * self.in_dim(), "dense forward_seq: input slab");
        assert_eq!(ys.len(), t * out, "dense forward_seq: output slab");
        assert!(
            w_t.rows() == self.in_dim() && w_t.cols() == out,
            "dense forward_seq: transposed weight shape"
        );
        for y in ys.chunks_exact_mut(out.max(1)) {
            y.copy_from_slice(self.b.v.as_slice());
        }
        simd::colmajor_gemv_acc_seq(ys, xs, w_t.as_slice(), t);
        if self.act == Activation::Tanh {
            libm::tanh_inplace(ys);
        }
    }

    /// Backward pass of [`Dense::forward_seq`]: `dys` (the `t × out`
    /// upstream gradients) becomes the pre-activation gradient in place,
    /// parameter gradients are accumulated — `dW += dz_s xs[s]ᵀ` and
    /// `db += dz_s` for `s` **ascending**, the order one backward call
    /// per step fed them in — and `dxs` (a flat `t × in` slab,
    /// overwritten) receives `dL/dx` of every step. `ys` is the forward
    /// pass's output slab; only a `Tanh` layer reads it (a `Linear`
    /// layer's caller may have overwritten it, and passes `&[]`).
    ///
    /// # Panics
    /// Panics if a slab is not `t` rows of the layer's dimension.
    pub fn backward_seq(
        &mut self,
        xs: &[f32],
        ys: &[f32],
        dys: &mut [f32],
        dxs: &mut [f32],
        t: usize,
    ) {
        let out = self.out_dim();
        assert_eq!(dys.len(), t * out, "dense backward_seq: dy dimension");
        // Through the activation.
        if self.act == Activation::Tanh {
            assert_eq!(ys.len(), t * out, "dense backward_seq: output slab");
            for (d, y) in dys.iter_mut().zip(ys) {
                *d *= tanh_grad_from_output(*y);
            }
        }
        self.w.g.add_outer_seq(1.0, dys, xs, t, false);
        for s in 0..t {
            simd::add_assign(self.b.g.as_mut_slice(), &dys[s * out..(s + 1) * out]);
        }
        dxs.fill(0.0);
        self.w.v.gemv_t_acc_seq(dys, dxs, t);
    }

    /// One forward pass without a tape: bias first, then one
    /// ascending-index dot product accumulated per row. This is the
    /// per-step reference [`Dense::forward_seq`] is tested against, and
    /// what free-running decoding reads the next-word logits with.
    pub fn apply(&self, x: &Vector) -> Vector {
        let mut y = self.b.v.clone();
        self.w.v.gemv_acc(x, &mut y);
        if self.act == Activation::Tanh {
            ncl_tensor::ops::tanh_inplace(&mut y);
        }
        y
    }

    /// Returns the transposed weight matrix (`in × out`), the layout
    /// [`Dense::forward_seq_with_t`] and [`Dense::apply_with_t_into`]
    /// stream contiguously. The trainer builds it once per batch and the
    /// serving cache once per freeze; it is derived data, so it goes
    /// stale if the layer trains afterwards (the trainer rebuilds it
    /// after every optimizer step, the serving cache's version counter
    /// guards it).
    pub fn weight_t(&self) -> ncl_tensor::Matrix {
        self.w.v.transpose()
    }

    /// [`Dense::apply`] over slices, against a caller-held transposed
    /// weight matrix (from [`Dense::weight_t`]) and into caller storage
    /// (`out` is overwritten): the products stream down contiguous
    /// columns via [`ncl_tensor::simd::colmajor_gemv_acc`], vectorising
    /// across output units, and nothing is allocated. Bit-identical to
    /// `apply(x)` — each output is the bias plus the same
    /// fresh-accumulator ascending dot, and a zero-input layer adds
    /// nothing at all, just like `gemv_acc` over a zero-column matrix
    /// (so a `-0` bias entry stays `-0`).
    ///
    /// # Panics
    /// Panics if `x`, `w_t` or `out` has the wrong shape.
    pub fn apply_with_t_into(&self, x: &[f32], w_t: &ncl_tensor::Matrix, out: &mut [f32]) {
        assert_eq!(x.len(), self.in_dim(), "apply_with_t: input dimension");
        assert_eq!(out.len(), self.out_dim(), "apply_with_t: output dimension");
        assert!(
            w_t.rows() == self.in_dim() && w_t.cols() == self.out_dim(),
            "apply_with_t: transposed weight shape"
        );
        out.copy_from_slice(self.b.v.as_slice());
        simd::colmajor_gemv_acc(out, x, w_t.as_slice());
        if self.act == Activation::Tanh {
            libm::tanh_inplace(out);
        }
    }

    /// Entry `r` of [`Dense::apply`]`(x)` alone: `act(b[r] + W[r]·x)`
    /// through the same fresh-accumulator ascending mul-then-add
    /// reduction every full pass runs for row `r`, so it is that pass's
    /// bit at `in_dim` multiply-adds instead of `out_dim · in_dim`. The
    /// serving cache reads the first word's logit of Eq. 9 this way off
    /// a frozen composite state. A zero-input layer returns `act(b[r])`
    /// untouched (a `-0` bias stays `-0`).
    ///
    /// # Panics
    /// Panics if `x` has the wrong dimension or `r` is out of range.
    pub fn apply_row(&self, x: &[f32], r: usize) -> f32 {
        assert_eq!(x.len(), self.in_dim(), "apply_row: input dimension");
        assert!(r < self.out_dim(), "apply_row: row out of range");
        let mut y = self.b.v[r];
        if self.in_dim() > 0 {
            let mut acc = 0.0f32;
            for (w, xv) in self.w.v.row(r).iter().zip(x) {
                acc += w * xv;
            }
            y += acc;
        }
        match self.act {
            Activation::Linear => y,
            Activation::Tanh => libm::tanhf(y),
        }
    }
}

impl Dense {
    /// Visits both parameters in [`HasParams::collect_params`] order (see
    /// [`crate::Lstm::visit_params`]).
    pub fn visit_params(&mut self, f: &mut dyn FnMut(&'static str, &mut dyn Parameter)) {
        f("dense.w", &mut self.w);
        f("dense.b", &mut self.b);
    }

    /// Overwrites weights and bias with `src`'s (replica sync).
    ///
    /// # Panics
    /// Panics if the layer shapes differ.
    pub fn copy_values_from(&mut self, src: &Dense) {
        self.w.copy_values_from(&src.w);
        self.b.copy_values_from(&src.b);
    }

    /// Drains `donor`'s gradients into this layer (shard merge).
    ///
    /// # Panics
    /// Panics if the layer shapes differ.
    pub fn merge_grads_from(&mut self, donor: &mut Dense) {
        self.w.merge_grad_from(&mut donor.w);
        self.b.merge_grad_from(&mut donor.b);
    }
}

impl HasParams for Dense {
    fn collect_params<'a>(&'a mut self, set: &mut ParamSet<'a>) {
        set.add("dense.w", &mut self.w);
        set.add("dense.b", &mut self.b);
    }
}

impl Wire for Activation {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(match self {
            Activation::Linear => 0,
            Activation::Tanh => 1,
        });
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match u8::decode(r)? {
            0 => Ok(Activation::Linear),
            1 => Ok(Activation::Tanh),
            t => Err(WireError::Invalid(format!("bad Activation tag {t}"))),
        }
    }
}

impl Wire for Dense {
    fn encode(&self, out: &mut Vec<u8>) {
        self.w.encode(out);
        self.b.encode(out);
        self.act.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let w = MatParam::decode(r)?;
        let b = VecParam::decode(r)?;
        let act = Activation::decode(r)?;
        if w.v.rows() != b.v.len() {
            return Err(WireError::Invalid(format!(
                "dense: weight rows {} != bias length {}",
                w.v.rows(),
                b.v.len()
            )));
        }
        Ok(Self { w, b, act })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::check_params;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// One taped step: the `t = 1` sequence.
    fn forward(d: &Dense, x: &Vector) -> Vector {
        let mut y = Vector::zeros(d.out_dim());
        d.forward_seq(x.as_slice(), y.as_mut_slice(), 1);
        y
    }

    /// One taped backward step; returns `dL/dx`.
    fn backward(d: &mut Dense, x: &Vector, dy: &Vector) -> Vector {
        let y = forward(d, x);
        let mut dz = dy.clone();
        let mut dx = Vector::zeros(d.in_dim());
        d.backward_seq(
            x.as_slice(),
            y.as_slice(),
            dz.as_mut_slice(),
            dx.as_mut_slice(),
            1,
        );
        dx
    }

    #[test]
    fn forward_linear_matches_manual() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut d = Dense::new(2, 2, Activation::Linear, &mut rng);
        d.w.v.as_mut_slice().copy_from_slice(&[1.0, 2.0, 3.0, 4.0]);
        d.b.v[0] = 0.5;
        let y = forward(&d, &Vector::from_slice(&[1.0, -1.0]));
        assert_eq!(y.as_slice(), &[-0.5, -1.0]);
    }

    #[test]
    fn tanh_bounds_output() {
        let mut rng = StdRng::seed_from_u64(2);
        let d = Dense::new(3, 4, Activation::Tanh, &mut rng);
        let y = forward(&d, &Vector::from_slice(&[10.0, -10.0, 10.0]));
        assert!(y.iter().all(|v| v.abs() <= 1.0));
    }

    #[test]
    fn gradients_match_finite_differences_linear() {
        gradient_case(Activation::Linear);
    }

    #[test]
    fn gradients_match_finite_differences_tanh() {
        gradient_case(Activation::Tanh);
    }

    fn gradient_case(act: Activation) {
        let mut rng = StdRng::seed_from_u64(3);
        let mut d = Dense::new(3, 2, act, &mut rng);
        let x = init::uniform_vector(3, -1.0, 1.0, &mut rng);
        let u = init::uniform_vector(2, -1.0, 1.0, &mut rng);
        let _ = backward(&mut d, &x, &u);
        check_params(
            &mut d,
            |d| forward(d, &x).dot(&u),
            |d, set| d.collect_params(set),
            1e-2,
            2e-2,
        );
    }

    #[test]
    fn apply_bit_identical_to_forward() {
        for act in [Activation::Linear, Activation::Tanh] {
            let mut rng = StdRng::seed_from_u64(21);
            let d = Dense::new(5, 7, act, &mut rng);
            let x = init::uniform_vector(5, -1.0, 1.0, &mut rng);
            let full = forward(&d, &x);
            let fast = d.apply(&x);
            for (a, b) in fast.iter().zip(full.iter()) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    /// A layer whose bias carries a `-0.0` entry: the value a spurious
    /// `+ 0.0` would rewrite.
    fn layer_with_negative_zero_bias(in_dim: usize, out_dim: usize, act: Activation) -> Dense {
        let mut rng = StdRng::seed_from_u64(24);
        let mut d = Dense::new(in_dim, out_dim, act, &mut rng);
        for (r, b) in d.b.v.as_mut_slice().iter_mut().enumerate() {
            *b = if r % 5 == 0 {
                -0.0
            } else {
                (r as f32 * 0.37).sin()
            };
        }
        d
    }

    #[test]
    fn slice_paths_bit_identical_to_forward_at_every_level() {
        use ncl_tensor::simd;
        // 70 output rows spans the SIMD widths; `in_dim == 0` is the
        // zero-column layer whose `-0.0` bias entries must survive.
        for (in_dim, out_dim) in [(9usize, 70usize), (32, 188), (0, 6), (5, 1)] {
            for act in [Activation::Linear, Activation::Tanh] {
                let d = layer_with_negative_zero_bias(in_dim, out_dim, act);
                let wt = d.weight_t();
                let mut rng = StdRng::seed_from_u64(25);
                let x = init::uniform_vector(in_dim, -1.0, 1.0, &mut rng);
                let want = simd::with_level(simd::Level::Scalar, || forward(&d, &x));
                for level in simd::supported_levels() {
                    simd::with_level(level, || {
                        let mut got = vec![f32::NAN; out_dim];
                        d.apply_with_t_into(x.as_slice(), &wt, &mut got);
                        for r in 0..out_dim {
                            let ctx = format!("{in_dim}x{out_dim} {act:?} {} [{r}]", level.name());
                            assert_eq!(got[r].to_bits(), want[r].to_bits(), "into {ctx}");
                            assert_eq!(
                                d.apply_row(x.as_slice(), r).to_bits(),
                                want[r].to_bits(),
                                "row {ctx}"
                            );
                        }
                    });
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "transposed weight shape")]
    fn apply_with_t_into_wrong_shape_panics() {
        let mut rng = StdRng::seed_from_u64(25);
        let d = Dense::new(3, 2, Activation::Linear, &mut rng);
        d.apply_with_t_into(&[0.0; 3], &ncl_tensor::Matrix::zeros(2, 3), &mut [0.0; 2]);
    }

    #[test]
    #[should_panic(expected = "row out of range")]
    fn apply_row_out_of_range_panics() {
        let mut rng = StdRng::seed_from_u64(23);
        let d = Dense::new(3, 2, Activation::Linear, &mut rng);
        let _ = d.apply_row(&[0.0; 3], 2);
    }

    #[test]
    fn input_gradient_matches_finite_differences() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut d = Dense::new(3, 2, Activation::Tanh, &mut rng);
        let x = init::uniform_vector(3, -1.0, 1.0, &mut rng);
        let u = init::uniform_vector(2, -1.0, 1.0, &mut rng);
        let dx = backward(&mut d, &x, &u);
        let h = 1e-2f32;
        for k in 0..3 {
            let mut xp = x.clone();
            xp[k] += h;
            let mut xm = x.clone();
            xm[k] -= h;
            let fd = (forward(&d, &xp).dot(&u) - forward(&d, &xm).dot(&u)) / (2.0 * h);
            assert!((fd - dx[k]).abs() < 2e-2, "dx[{k}]: fd={fd} an={}", dx[k]);
        }
    }
}
