//! The LSTM of COM-AID (§4.1.1), with taped back-propagation through time.
//!
//! The forward recurrence is exactly the equation block of §4.1.1:
//!
//! ```text
//! i_t = δ(W⁽ⁱ⁾ w_t + U⁽ⁱ⁾ h_{t−1} + b⁽ⁱ⁾)
//! f_t = δ(W⁽ᶠ⁾ w_t + U⁽ᶠ⁾ h_{t−1} + b⁽ᶠ⁾)
//! o_t = δ(W⁽ᵒ⁾ w_t + U⁽ᵒ⁾ h_{t−1} + b⁽ᵒ⁾)
//! c̃_t = tanh(W⁽ᶜ̃⁾ w_t + U⁽ᶜ̃⁾ h_{t−1} + b⁽ᶜ̃⁾)
//! c_t = f_t ⊙ c_{t−1} + i_t ⊙ c̃_t
//! h_t = o_t ⊙ tanh(c_t)
//! ```
//!
//! The backward pass accepts an *external* gradient for every hidden state
//! `h_t`, not just the last: in COM-AID the decoder's textual attention
//! (Eq. 5–6) routes gradient into each encoder state `h_r^c`, while the
//! chain `s_0 = h_n^c` routes gradient into the final state only.

use crate::param::{HasParams, MatParam, ParamSet, Parameter, VecParam};
use ncl_tensor::ops::{
    sigmoid_grad_from_output, sigmoid_inplace, tanh_grad_from_output, tanh_inplace, tanh_vec,
};
use ncl_tensor::wire::{Reader, Wire, WireError};
use ncl_tensor::{init, libm, simd, Matrix, Vector};
use rand::Rng;

/// One LSTM layer (a chain of identical cells).
#[derive(Debug, Clone)]
pub struct Lstm {
    in_dim: usize,
    hidden: usize,
    /// Input-gate input weights `W⁽ⁱ⁾`.
    pub wi: MatParam,
    /// Forget-gate input weights `W⁽ᶠ⁾`.
    pub wf: MatParam,
    /// Output-gate input weights `W⁽ᵒ⁾`.
    pub wo: MatParam,
    /// Cell-candidate input weights `W⁽ᶜ̃⁾`.
    pub wg: MatParam,
    /// Input-gate recurrent weights `U⁽ⁱ⁾`.
    pub ui: MatParam,
    /// Forget-gate recurrent weights `U⁽ᶠ⁾`.
    pub uf: MatParam,
    /// Output-gate recurrent weights `U⁽ᵒ⁾`.
    pub uo: MatParam,
    /// Cell-candidate recurrent weights `U⁽ᶜ̃⁾`.
    pub ug: MatParam,
    /// Input-gate bias `b⁽ⁱ⁾`.
    pub bi: VecParam,
    /// Forget-gate bias `b⁽ᶠ⁾` (initialised to 1).
    pub bf: VecParam,
    /// Output-gate bias `b⁽ᵒ⁾`.
    pub bo: VecParam,
    /// Cell-candidate bias `b⁽ᶜ̃⁾`.
    pub bg: VecParam,
}

/// The record of a full forward pass over a sequence, consumed by the
/// backward pass: flat row slabs sized once per sequence, which are what
/// the sequence kernels read. A tape is reusable — a second
/// [`Lstm::forward_seq`] into it keeps the allocations.
#[derive(Debug, Clone, Default)]
pub struct LstmTape {
    len: usize,
    hidden: usize,
    /// Inputs `x_1..x_T`, `T × in_dim`.
    x: Vec<f32>,
    /// Post-activation gates, step-major: row `s` is step `s`'s
    /// `[i | f | o | g]`, `4d` wide — the layout of an [`LstmPlan`]'s
    /// fused gate axis, so the stacked input projection writes it
    /// directly and each step's recurrent product and sigmoid run over
    /// one contiguous row.
    gates: Vec<f32>,
    /// `tanh(c_1)..tanh(c_T)`, `T × d`.
    tc: Vec<f32>,
    /// Hidden states `h_0..h_T`, `(T + 1) × d`: step `t` starts from row
    /// `t` and writes row `t + 1`.
    h: Vec<f32>,
    /// Cell states `c_0..c_T`, laid out like `h`.
    c: Vec<f32>,
}

impl LstmTape {
    /// Sequence length.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the sequence was empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Hidden states `h_1..h_T` as one `T × d` slab (row 0 is `h_1`).
    pub fn hs(&self) -> &[f32] {
        &self.h[self.hidden..]
    }

    /// The final hidden state `h_T`, or the initial state for an empty
    /// sequence — the *concept representation* `h_n^c` of §4.1.1.
    pub fn final_h(&self) -> &[f32] {
        &self.h[self.len * self.hidden..]
    }

    /// The final cell state.
    pub fn final_c(&self) -> &[f32] {
        &self.c[self.len * self.hidden..]
    }
}

/// Gradients produced by [`Lstm::backward_seq`]. Reusable like the tape:
/// a second backward pass into it keeps the allocations.
#[derive(Debug, Clone, Default)]
pub struct SeqGrads {
    /// Gradient w.r.t. each input vector (for embedding updates), as one
    /// `T × in_dim` slab.
    pub dxs: Vec<f32>,
    /// Gradient w.r.t. the initial hidden state `h_0`.
    pub dh0: Vec<f32>,
    /// Gradient w.r.t. the initial cell state `c_0`.
    pub dc0: Vec<f32>,
    /// Pre-activation gradients of the whole sequence, gate-major: `i`,
    /// `f`, `o`, `g` as four `T × d` slabs, so each gate's rows are one
    /// contiguous slab for the per-sequence kernels that read them once
    /// the time loop is done.
    dz: Vec<f32>,
}

impl Lstm {
    /// Creates an LSTM with Xavier-initialised weights. The forget-gate
    /// bias starts at 1.0 (the standard trick to keep long-range gradient
    /// flow early in training); other biases start at zero.
    pub fn new<R: Rng + ?Sized>(in_dim: usize, hidden: usize, rng: &mut R) -> Self {
        let w = |rng: &mut R| MatParam::new(init::xavier_uniform(hidden, in_dim, rng));
        let u = |rng: &mut R| MatParam::new(init::xavier_uniform(hidden, hidden, rng));
        Self {
            in_dim,
            hidden,
            wi: w(rng),
            wf: w(rng),
            wo: w(rng),
            wg: w(rng),
            ui: u(rng),
            uf: u(rng),
            uo: u(rng),
            ug: u(rng),
            bi: VecParam::zeros(hidden),
            bf: VecParam::new(Vector::full(hidden, 1.0)),
            bo: VecParam::zeros(hidden),
            bg: VecParam::zeros(hidden),
        }
    }

    /// Hidden dimension `d`.
    pub fn hidden(&self) -> usize {
        self.hidden
    }

    /// Input dimension.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    fn gate(&self, w: &MatParam, u: &MatParam, b: &VecParam, x: &Vector, h: &Vector) -> Vector {
        let mut z = b.v.clone();
        w.v.gemv_acc(x, &mut z);
        u.v.gemv_acc(h, &mut z);
        z
    }

    /// One inference-only cell step: the recurrence of [`Lstm::forward_seq`]
    /// one step at a time and without a tape. Every gate pre-activation
    /// is `(b + W·x) + U·h` from the same fresh-accumulator kernel in the
    /// same order, so the returned `(h, c)` are bit-identical to the
    /// taped sequence's — this is the per-step reference the sequence
    /// form is tested against (`tests/seq_identity.rs`).
    pub fn step_infer(&self, x: &Vector, h_prev: &Vector, c_prev: &Vector) -> (Vector, Vector) {
        let mut i = self.gate(&self.wi, &self.ui, &self.bi, x, h_prev);
        sigmoid_inplace(&mut i);
        let mut f = self.gate(&self.wf, &self.uf, &self.bf, x, h_prev);
        sigmoid_inplace(&mut f);
        let mut o = self.gate(&self.wo, &self.uo, &self.bo, x, h_prev);
        sigmoid_inplace(&mut o);
        let mut g = self.gate(&self.wg, &self.ug, &self.bg, x, h_prev);
        tanh_inplace(&mut g);

        let mut c = f.hadamard(c_prev);
        c.add_hadamard(1.0, &i, &g);
        let tc = tanh_vec(&c);
        let h = o.hadamard(&tc);
        (h, c)
    }

    /// Inference-only sequence forward: the hidden states `h_1..h_T` and
    /// the final cell state, [`Lstm::step_infer`] by [`Lstm::step_infer`].
    /// Bit-identical to the `hs()` / `final_c()` of a
    /// [`Lstm::forward_seq`] tape.
    ///
    /// # Panics
    /// Panics if any input has the wrong dimension.
    pub fn forward_states(&self, xs: &[Vector], h0: &Vector, c0: &Vector) -> (Vec<Vector>, Vector) {
        assert_eq!(h0.len(), self.hidden, "forward_states: h0 dimension");
        assert_eq!(c0.len(), self.hidden, "forward_states: c0 dimension");
        let mut hs = Vec::with_capacity(xs.len());
        let mut h = h0.clone();
        let mut c = c0.clone();
        for x in xs {
            assert_eq!(x.len(), self.in_dim, "forward_states: input dimension");
            let (nh, nc) = self.step_infer(x, &h, &c);
            hs.push(nh.clone());
            h = nh;
            c = nc;
        }
        (hs, c)
    }

    /// The four gates in tape order `i, f, o, g`: input weights,
    /// recurrent weights, bias.
    fn gates_mut(&mut self) -> [(&mut MatParam, &mut MatParam, &mut VecParam); 4] {
        [
            (&mut self.wi, &mut self.ui, &mut self.bi),
            (&mut self.wf, &mut self.uf, &mut self.bf),
            (&mut self.wo, &mut self.uo, &mut self.bo),
            (&mut self.wg, &mut self.ug, &mut self.bg),
        ]
    }

    /// Runs the whole sequence forward from `(h0, c0)`, recording `tape`
    /// (overwritten; its allocations are reused). `xs` is the flat
    /// `t × in_dim` slab of inputs.
    ///
    /// Packs this layer's [`LstmPlan`] for the one call and runs
    /// [`LstmPlan::forward_seq`] — the only taped forward there is. A
    /// caller that runs many sequences under the same parameters (the
    /// trainer, once per batch) packs the plan once and calls it
    /// directly.
    ///
    /// # Panics
    /// Panics if `xs`, `h0` or `c0` has the wrong dimension.
    pub fn forward_seq(&self, xs: &[f32], t: usize, h0: &[f32], c0: &[f32], tape: &mut LstmTape) {
        self.plan().forward_seq(xs, t, h0, c0, tape);
    }

    /// Back-propagation through time.
    ///
    /// `dhs` is the flat `T × d` slab of external gradients: row `t` is
    /// the gradient on hidden state `h_{t+1}` (e.g. attention
    /// contributions plus, for the last step, the downstream chain).
    /// Parameter gradients are *accumulated* into the layer; `grads` is
    /// overwritten.
    ///
    /// # Panics
    /// Panics if `dhs` is not `tape.len()` rows.
    pub fn backward_seq(&mut self, tape: &LstmTape, dhs: &[f32], grads: &mut SeqGrads) {
        self.backward_seq_full(tape, dhs, None, grads);
    }

    /// [`Lstm::backward_seq`] with an additional external gradient on the
    /// *final cell state*. COM-AID seeds the decoder with both the
    /// encoder's final hidden state (`s_0 = h_n^c`) and its final cell
    /// state, so the decoder's `dc0` must flow back into the encoder's
    /// last cell.
    ///
    /// The time loop (last step first) keeps only what depends on the
    /// step after it: the cell equations and `Uᵀ·dz_t`. It leaves every
    /// step's pre-activation gradients in one slab, from which each
    /// weight matrix is then visited once per sequence — `dW`, `dU`
    /// and `db` take their terms `t` **descending**, the order the loop
    /// used to feed them in, and every `dx_t` sums its gates `i, f, o,
    /// g` with rows ascending (DESIGN.md §10, the order contract).
    pub fn backward_seq_full(
        &mut self,
        tape: &LstmTape,
        dhs: &[f32],
        dc_final: Option<&[f32]>,
        grads: &mut SeqGrads,
    ) {
        let (t, d) = (tape.len, self.hidden);
        assert_eq!(dhs.len(), t * d, "backward_seq: gradient count");
        assert!(t == 0 || tape.hidden == d, "backward_seq: tape dimension");
        let SeqGrads { dxs, dh0, dc0, dz } = grads;
        dxs.clear();
        dxs.resize(t * self.in_dim, 0.0);
        dz.resize(4 * t * d, 0.0);
        // `dh0` / `dc0` carry the recurrent gradient down the loop.
        let (dh, dc) = (dh0, dc0);
        dh.clear();
        dh.resize(d, 0.0);
        dc.clear();
        match dc_final {
            Some(seed) => dc.extend_from_slice(seed),
            None => dc.resize(d, 0.0),
        }
        assert_eq!(dc.len(), d, "backward_seq: dc_final dimension");

        {
            let (dzi, rest) = dz.split_at_mut(t * d);
            let (dzf, rest) = rest.split_at_mut(t * d);
            let (dzo, dzg) = rest.split_at_mut(t * d);
            for s in (0..t).rev() {
                let at = s * d..(s + 1) * d;
                let (i, rest) = tape.gates[4 * s * d..4 * (s + 1) * d].split_at(d);
                let (f, rest) = rest.split_at(d);
                let (o, g) = rest.split_at(d);
                let (tc, c_prev) = (&tape.tc[at.clone()], &tape.c[at.clone()]);
                let (dzi, dzf, dzo, dzg) = (
                    &mut dzi[at.clone()],
                    &mut dzf[at.clone()],
                    &mut dzo[at.clone()],
                    &mut dzg[at.clone()],
                );
                // Total gradient arriving at h_t: recurrent + external.
                simd::add_assign(dh, &dhs[at]);
                for k in 0..d {
                    // do = dh ⊙ tanh(c);   dc += dh ⊙ o ⊙ (1 − tanh(c)²)
                    dc[k] += dh[k] * o[k] * tanh_grad_from_output(tc[k]);
                    // Pre-activation gradients.
                    let d_o = dh[k] * tc[k];
                    dzo[k] = d_o * sigmoid_grad_from_output(o[k]);
                    let d_i = dc[k] * g[k];
                    dzi[k] = d_i * sigmoid_grad_from_output(i[k]);
                    let d_f = dc[k] * c_prev[k];
                    dzf[k] = d_f * sigmoid_grad_from_output(f[k]);
                    let d_g = dc[k] * i[k];
                    dzg[k] = d_g * tanh_grad_from_output(g[k]);
                    // Cell gradient for step t−1.
                    dc[k] *= f[k];
                }
                // Recurrent gradient for step t−1: dh = Σ Uᵀ dz.
                dh.fill(0.0);
                self.ui.v.gemv_t_acc_seq(dzi, dh, 1);
                self.uf.v.gemv_t_acc_seq(dzf, dh, 1);
                self.uo.v.gemv_t_acc_seq(dzo, dh, 1);
                self.ug.v.gemv_t_acc_seq(dzg, dh, 1);
            }
        }

        // Once per sequence and matrix: dW += dz xᵀ, dU += dz h_prevᵀ,
        // db += dz (all t descending), then dx_t += Wᵀ dz_t.
        let h_prev = &tape.h[..t * d];
        for ((w, u, b), dz) in self
            .gates_mut()
            .into_iter()
            .zip(dz.chunks_exact((t * d).max(1)))
        {
            w.g.add_outer_seq(1.0, dz, &tape.x, t, true);
            u.g.add_outer_seq(1.0, dz, h_prev, t, true);
            for s in (0..t).rev() {
                simd::add_assign(b.g.as_mut_slice(), &dz[s * d..(s + 1) * d]);
            }
            w.v.gemv_t_acc_seq(dz, dxs, t);
        }
    }

    /// Visits every parameter in [`HasParams::collect_params`] order
    /// without borrowing the layer for a whole `ParamSet` lifetime —
    /// lets the trainer walk `Θ` repeatedly with no per-step allocation.
    pub fn visit_params(&mut self, f: &mut dyn FnMut(&'static str, &mut dyn Parameter)) {
        f("lstm.wi", &mut self.wi);
        f("lstm.wf", &mut self.wf);
        f("lstm.wo", &mut self.wo);
        f("lstm.wg", &mut self.wg);
        f("lstm.ui", &mut self.ui);
        f("lstm.uf", &mut self.uf);
        f("lstm.uo", &mut self.uo);
        f("lstm.ug", &mut self.ug);
        f("lstm.bi", &mut self.bi);
        f("lstm.bf", &mut self.bf);
        f("lstm.bo", &mut self.bo);
        f("lstm.bg", &mut self.bg);
    }

    /// Overwrites all weights/biases with `src`'s (replica sync).
    ///
    /// # Panics
    /// Panics if the layer shapes differ.
    pub fn copy_values_from(&mut self, src: &Lstm) {
        self.wi.copy_values_from(&src.wi);
        self.wf.copy_values_from(&src.wf);
        self.wo.copy_values_from(&src.wo);
        self.wg.copy_values_from(&src.wg);
        self.ui.copy_values_from(&src.ui);
        self.uf.copy_values_from(&src.uf);
        self.uo.copy_values_from(&src.uo);
        self.ug.copy_values_from(&src.ug);
        self.bi.copy_values_from(&src.bi);
        self.bf.copy_values_from(&src.bf);
        self.bo.copy_values_from(&src.bo);
        self.bg.copy_values_from(&src.bg);
    }

    /// Drains `donor`'s gradients into this layer (shard merge).
    ///
    /// # Panics
    /// Panics if the layer shapes differ.
    pub fn merge_grads_from(&mut self, donor: &mut Lstm) {
        self.wi.merge_grad_from(&mut donor.wi);
        self.wf.merge_grad_from(&mut donor.wf);
        self.wo.merge_grad_from(&mut donor.wo);
        self.wg.merge_grad_from(&mut donor.wg);
        self.ui.merge_grad_from(&mut donor.ui);
        self.uf.merge_grad_from(&mut donor.uf);
        self.uo.merge_grad_from(&mut donor.uo);
        self.ug.merge_grad_from(&mut donor.ug);
        self.bi.merge_grad_from(&mut donor.bi);
        self.bf.merge_grad_from(&mut donor.bf);
        self.bo.merge_grad_from(&mut donor.bo);
        self.bg.merge_grad_from(&mut donor.bg);
    }
}

impl HasParams for Lstm {
    fn collect_params<'a>(&'a mut self, set: &mut ParamSet<'a>) {
        set.add("lstm.wi", &mut self.wi);
        set.add("lstm.wf", &mut self.wf);
        set.add("lstm.wo", &mut self.wo);
        set.add("lstm.wg", &mut self.wg);
        set.add("lstm.ui", &mut self.ui);
        set.add("lstm.uf", &mut self.uf);
        set.add("lstm.uo", &mut self.uo);
        set.add("lstm.ug", &mut self.ug);
        set.add("lstm.bi", &mut self.bi);
        set.add("lstm.bf", &mut self.bf);
        set.add("lstm.bo", &mut self.bo);
        set.add("lstm.bg", &mut self.bg);
    }
}

impl Wire for Lstm {
    fn encode(&self, out: &mut Vec<u8>) {
        self.in_dim.encode(out);
        self.hidden.encode(out);
        for m in [
            &self.wi, &self.wf, &self.wo, &self.wg, &self.ui, &self.uf, &self.uo, &self.ug,
        ] {
            m.encode(out);
        }
        for b in [&self.bi, &self.bf, &self.bo, &self.bg] {
            b.encode(out);
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let in_dim = usize::decode(r)?;
        let hidden = usize::decode(r)?;
        let mut mats = Vec::with_capacity(8);
        for (i, &cols) in [
            in_dim, in_dim, in_dim, in_dim, hidden, hidden, hidden, hidden,
        ]
        .iter()
        .enumerate()
        {
            let m = MatParam::decode(r)?;
            if m.v.rows() != hidden || m.v.cols() != cols {
                return Err(WireError::Invalid(format!(
                    "lstm: weight {i} is {}x{}, expected {hidden}x{cols}",
                    m.v.rows(),
                    m.v.cols()
                )));
            }
            mats.push(m);
        }
        let mut biases = Vec::with_capacity(4);
        for i in 0..4 {
            let b = VecParam::decode(r)?;
            if b.v.len() != hidden {
                return Err(WireError::Invalid(format!(
                    "lstm: bias {i} has length {}, expected {hidden}",
                    b.v.len()
                )));
            }
            biases.push(b);
        }
        let [wi, wf, wo, wg, ui, uf, uo, ug]: [MatParam; 8] = mats.try_into().unwrap();
        let [bi, bf, bo, bg]: [VecParam; 4] = biases.try_into().unwrap();
        Ok(Self {
            in_dim,
            hidden,
            wi,
            wf,
            wo,
            wg,
            ui,
            uf,
            uo,
            ug,
            bi,
            bf,
            bo,
            bg,
        })
    }
}

/// Convenience: a zero initial state pair `(h0, c0)`.
pub fn zero_state(hidden: usize) -> (Vector, Vector) {
    (Vector::zeros(hidden), Vector::zeros(hidden))
}

/// A layout of an [`Lstm`]'s weights for fused, SIMD-friendly cell
/// steps, in training and serving alike: the eight gate matrices are
/// re-packed into two **column-major** (transposed) blocks and the four
/// biases into one concatenated vector, so a step is two streaming
/// [`simd::colmajor_gemv_acc`] sweeps plus one fused activation pass over
/// all four gate pre-activations — instead of eight row-major `gemv`s and
/// four separate activation loops.
///
/// Gate order inside the concatenated `4d` axis is `i, f, o, g` (column
/// `g·d + r` holds gate `g`, unit `r`).
///
/// # Bit-identity
///
/// [`LstmPlan::step_infer`] is bit-identical to [`Lstm::step_infer`] on
/// the source layer:
///
/// * each packed column accumulates `Σ_k x[k]·W[r][k]` with a fresh
///   accumulator in ascending `k` — exactly [`Matrix::gemv_acc`]'s
///   reduction per gate row (the [`simd`] contract);
/// * each partial sum is added to the bias copy as the kernel's
///   `y[j] += acc`, in the scalar order `(b + Wx) + Uh` (an ascending
///   `fadd` chain seeded at `+0` can never produce `-0`, so it does not
///   matter that the taped step adds it through a `+0`-seeded `y`);
/// * when `in_dim == 0` the kernel adds nothing, matching `gemv_acc`
///   over a zero-column matrix (adding a zero partial instead would
///   rewrite a `-0` bias to `+0`);
/// * the activations and cell/hidden updates apply the same scalar
///   functions per element in the same order (`1·x` and `0 + x` are
///   bitwise identities).
///
/// # Hoisting the input projection
///
/// The pre-activation is built as `z = (b + W·x) + U·h`, and the
/// parenthesised half depends on the input alone. [`LstmPlan::project_input`]
/// returns exactly that half and [`LstmPlan::step_projected`] finishes
/// the step from it, so a caller that feeds one input to many states
/// (a word id met at many trie nodes, one query word against every
/// candidate) projects it once. [`LstmPlan::step_infer`] *is* the
/// composition of the two — same accumulators, same order — so sharing
/// a projection cannot change a bit, including the `in_dim == 0` and
/// `-0` bias cases above.
///
/// # Training through the plan
///
/// [`LstmPlan::forward_seq`] is the taped forward pass: the trainer packs
/// a plan before every batch and runs the batch's sequences through it,
/// and [`Lstm::forward_seq`] packs one per call. Backward reads the
/// row-major parameters, its natural layout.
///
/// The plan is derived data: it holds copies, not references, so it goes
/// stale if the layer trains afterwards. Whoever holds one rebuilds it
/// after a parameter update — the trainer after every optimizer step,
/// the serving cache through its version counter.
#[derive(Debug, Clone)]
pub struct LstmPlan {
    in_dim: usize,
    hidden: usize,
    /// `in_dim × 4d`: `wt[(k, g·d + r)] = W⁽ᵍ⁾[r][k]`.
    wt: Matrix,
    /// `hidden × 4d`: `ut[(k, g·d + r)] = U⁽ᵍ⁾[r][k]`.
    ut: Matrix,
    /// Concatenated biases `[b⁽ⁱ⁾; b⁽ᶠ⁾; b⁽ᵒ⁾; b⁽ᶜ̃⁾]`.
    bcat: Vector,
}

impl Lstm {
    /// Packs this layer's weights into an [`LstmPlan`] for fused steps.
    /// O(`4d·(in_dim + d)`) copies; build once per batch or freeze, not
    /// per step.
    pub fn plan(&self) -> LstmPlan {
        let d = self.hidden;
        let mut wt = Matrix::zeros(self.in_dim, 4 * d);
        let mut ut = Matrix::zeros(d, 4 * d);
        let mut bcat = Vector::zeros(4 * d);
        let ws = [&self.wi, &self.wf, &self.wo, &self.wg];
        let us = [&self.ui, &self.uf, &self.uo, &self.ug];
        let bs = [&self.bi, &self.bf, &self.bo, &self.bg];
        // Gate `g`'s transposes are the column block `g·d..(g + 1)·d`
        // (a layer without inputs has no `W` block to write).
        for (g, (w, u)) in ws.iter().zip(&us).enumerate() {
            let at = g * d;
            if self.in_dim > 0 {
                let wt = &mut wt.as_mut_slice()[at..];
                simd::transpose_into(wt, 4 * d, w.v.as_slice(), d, self.in_dim);
            }
            simd::transpose_into(&mut ut.as_mut_slice()[at..], 4 * d, u.v.as_slice(), d, d);
        }
        for (g, b) in bs.iter().enumerate() {
            bcat.as_mut_slice()[g * d..(g + 1) * d].copy_from_slice(b.v.as_slice());
        }
        LstmPlan {
            in_dim: self.in_dim,
            hidden: d,
            wt,
            ut,
            bcat,
        }
    }
}

impl LstmPlan {
    /// Hidden dimension `d`.
    pub fn hidden(&self) -> usize {
        self.hidden
    }

    /// Input dimension.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Number of `f32`s this plan holds — for serving-cache memory
    /// accounting.
    pub fn memory_floats(&self) -> usize {
        self.wt.rows() * self.wt.cols() + self.ut.rows() * self.ut.cols() + self.bcat.len()
    }

    /// One fused inference cell step, bit-identical to
    /// [`Lstm::step_infer`] on the source layer (see the type-level
    /// docs for the argument).
    ///
    /// # Panics
    /// Panics if any input has the wrong dimension.
    pub fn step_infer(&self, x: &Vector, h_prev: &Vector, c_prev: &Vector) -> (Vector, Vector) {
        self.step_projected(
            self.project_input(x.as_slice()).as_slice(),
            h_prev.as_slice(),
            c_prev.as_slice(),
        )
    }

    /// The input half `b + W·x` of a step's `4d` gate pre-activations:
    /// everything [`LstmPlan::step_infer`] computes before it reads the
    /// recurrent state.
    ///
    /// # Panics
    /// Panics if `x` has the wrong dimension.
    pub fn project_input(&self, x: &[f32]) -> Vector {
        let mut z = Vector::zeros(4 * self.hidden);
        self.project_input_into(x, z.as_mut_slice());
        z
    }

    /// [`LstmPlan::project_input`] written into caller storage (`out`
    /// is overwritten), so a request can keep every word's projection
    /// in one flat buffer.
    ///
    /// # Panics
    /// Panics if `x` or `out` has the wrong dimension.
    pub fn project_input_into(&self, x: &[f32], out: &mut [f32]) {
        assert_eq!(x.len(), self.in_dim, "plan step: input dimension");
        assert_eq!(
            out.len(),
            4 * self.hidden,
            "plan step: projection dimension"
        );
        out.copy_from_slice(self.bcat.as_slice());
        // Each output gets `b + acc` with `acc` the kernel's fresh
        // ascending accumulator. With `in_dim == 0` the kernel adds
        // nothing, like gemv_acc over a zero-column matrix — adding a
        // zero partial instead would flip a `-0` bias entry to `+0`.
        simd::colmajor_gemv_acc(out, x, self.wt.as_slice());
    }

    /// Finishes a cell step from a projection made by
    /// [`LstmPlan::project_input`]: `step_projected(project_input(x), h, c)`
    /// is bit-identical to `step_infer(x, h, c)`. Like `project_input`
    /// it takes slices, so a caller can read embedding rows in place and
    /// keep projections and states in flat storage.
    ///
    /// # Panics
    /// Panics if any input has the wrong dimension.
    pub fn step_projected(
        &self,
        x_proj: &[f32],
        h_prev: &[f32],
        c_prev: &[f32],
    ) -> (Vector, Vector) {
        let (mut h, mut c) = (Vector::from_slice(h_prev), Vector::from_slice(c_prev));
        let mut gates = vec![0.0f32; 4 * self.hidden];
        self.step_projected_into(x_proj, h.as_mut_slice(), c.as_mut_slice(), &mut gates);
        (h, c)
    }

    /// [`LstmPlan::step_projected`] in place and allocation-free: `h`
    /// and `c` enter as the previous state and leave as the next one,
    /// `gates` is `4d` floats of caller scratch (overwritten). This is
    /// the one definition of the step's arithmetic — the allocating
    /// forms wrap it.
    ///
    /// # Panics
    /// Panics if any argument has the wrong dimension.
    pub fn step_projected_into(
        &self,
        x_proj: &[f32],
        h: &mut [f32],
        c: &mut [f32],
        gates: &mut [f32],
    ) {
        let d = self.hidden;
        assert_eq!(x_proj.len(), 4 * d, "plan step: projection dimension");
        assert_eq!(gates.len(), 4 * d, "plan step: gate scratch dimension");
        assert_eq!(h.len(), d, "plan step: h dimension");
        assert_eq!(c.len(), d, "plan step: c dimension");
        // z = (b + W·x) + U·h: the recurrent partial is the kernel's
        // fresh accumulator (never `-0`, see the type-level docs), added
        // to the projection in one step. All of `h` is read here, before
        // any of it is overwritten below.
        gates.copy_from_slice(x_proj);
        simd::colmajor_gemv_acc(gates, h, self.ut.as_slice());
        // Activation sweep: sigmoid over the i/f/o blocks, tanh over the
        // cell candidate, each as one slice.
        let (ifo, gv) = gates.split_at_mut(3 * d);
        libm::sigmoid_inplace(ifo);
        libm::tanh_inplace(gv);
        let (iv, rest) = ifo.split_at(d);
        let (fv, ov) = rest.split_at(d);
        for k in 0..d {
            // Same two roundings as `f.hadamard(c_prev)` followed by
            // `add_hadamard(1.0, &i, &g)` (`1.0·i·g` is bitwise `i·g`).
            c[k] *= fv[k];
            c[k] += iv[k] * gv[k];
        }
        // `g` has been consumed: its block is the scratch for tanh(c).
        gv.copy_from_slice(c);
        libm::tanh_inplace(gv);
        for k in 0..d {
            h[k] = ov[k] * gv[k];
        }
    }
}

impl LstmPlan {
    /// The taped forward pass over a whole sequence from `(h0, c0)`,
    /// recording `tape` (overwritten; its allocations are reused) — the
    /// one forward [`Lstm::backward_seq_full`] differentiates. `xs` is
    /// the flat `t × in_dim` slab of inputs.
    ///
    /// Only the true recurrence stays in the time loop. The input half
    /// `b + W·x_s` of all four gates depends on no earlier step, so it
    /// is one stacked product over the whole sequence and the fused
    /// gate axis ([`simd::colmajor_gemv_acc_seq`]), written straight
    /// into the tape's step-major gate rows. Each step then adds `U·h`
    /// with one [`simd::colmajor_gemv_acc`] over the fused `Uᵀ` and runs
    /// one sigmoid over its contiguous `i | f | o` block. Per output that
    /// is [`LstmPlan::step_infer`]'s `(b + W·x) + U·h` — the same
    /// accumulators in the same order, `in_dim == 0` and `-0` biases
    /// included — so the states are bit-identical to stepping, and to
    /// [`Lstm::step_infer`] on the source layer.
    ///
    /// # Panics
    /// Panics if `xs`, `h0` or `c0` has the wrong dimension.
    pub fn forward_seq(&self, xs: &[f32], t: usize, h0: &[f32], c0: &[f32], tape: &mut LstmTape) {
        let d = self.hidden;
        assert_eq!(xs.len(), t * self.in_dim, "forward_seq: input dimension");
        assert_eq!(h0.len(), d, "forward_seq: h0 dimension");
        assert_eq!(c0.len(), d, "forward_seq: c0 dimension");
        tape.len = t;
        tape.hidden = d;
        tape.x.clear();
        tape.x.extend_from_slice(xs);
        // Every entry below is written before it is read.
        tape.gates.resize(4 * t * d, 0.0);
        tape.tc.resize(t * d, 0.0);
        tape.h.resize((t + 1) * d, 0.0);
        tape.c.resize((t + 1) * d, 0.0);
        tape.h[..d].copy_from_slice(h0);
        tape.c[..d].copy_from_slice(c0);

        for z in tape.gates.chunks_exact_mut((4 * d).max(1)) {
            z.copy_from_slice(self.bcat.as_slice());
        }
        simd::colmajor_gemv_acc_seq(&mut tape.gates, xs, self.wt.as_slice(), t);

        for s in 0..t {
            let at = s * d..(s + 1) * d;
            let z = &mut tape.gates[4 * s * d..4 * (s + 1) * d];
            let (h_prev, h) = tape.h[s * d..(s + 2) * d].split_at_mut(d);
            let (c_prev, c) = tape.c[s * d..(s + 2) * d].split_at_mut(d);
            simd::colmajor_gemv_acc(z, h_prev, self.ut.as_slice());
            // Activations run a slice at a time (`ncl_tensor::libm`); the
            // cell equations after them are element-wise, so sweeping
            // them block by block changes no element's operations.
            let (ifo, g) = z.split_at_mut(3 * d);
            libm::sigmoid_inplace(ifo);
            libm::tanh_inplace(g);
            let (i, rest) = ifo.split_at(d);
            let (f, o) = rest.split_at(d);
            for k in 0..d {
                // Two roundings, then the sum: `f ⊙ c_prev` plus `i ⊙ g`.
                let mut cell = f[k] * c_prev[k];
                cell += i[k] * g[k];
                c[k] = cell;
            }
            let tc = &mut tape.tc[at];
            tc.copy_from_slice(c);
            libm::tanh_inplace(tc);
            for k in 0..d {
                h[k] = o[k] * tc[k];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::check_params;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn inputs(rng: &mut StdRng, n: usize, dim: usize) -> Vec<Vector> {
        (0..n)
            .map(|_| init::uniform_vector(dim, -1.0, 1.0, rng))
            .collect()
    }

    /// The rows as one flat slab, the layout the taped path takes.
    fn flat(rows: &[Vector]) -> Vec<f32> {
        rows.iter().flat_map(|r| r.iter().copied()).collect()
    }

    fn taped(lstm: &Lstm, xs: &[Vector], h0: &Vector, c0: &Vector) -> LstmTape {
        let mut tape = LstmTape::default();
        lstm.forward_seq(&flat(xs), xs.len(), h0.as_slice(), c0.as_slice(), &mut tape);
        tape
    }

    fn dot(a: &[f32], b: &Vector) -> f32 {
        ncl_tensor::vector::dot(a, b.as_slice())
    }

    #[test]
    fn forward_shapes() {
        let mut rng = StdRng::seed_from_u64(1);
        let lstm = Lstm::new(3, 5, &mut rng);
        let xs = inputs(&mut rng, 4, 3);
        let (h0, c0) = zero_state(5);
        let tape = taped(&lstm, &xs, &h0, &c0);
        assert_eq!(tape.len(), 4);
        assert_eq!(tape.final_h().len(), 5);
        assert_eq!(tape.hs().len(), 4 * 5);
        assert!(tape.hs().iter().all(|h| h.is_finite()));
    }

    #[test]
    fn empty_sequence_returns_initial_state() {
        let mut rng = StdRng::seed_from_u64(1);
        let lstm = Lstm::new(3, 5, &mut rng);
        let (h0, c0) = zero_state(5);
        let tape = taped(&lstm, &[], &h0, &c0);
        assert!(tape.is_empty());
        assert_eq!(tape.final_h(), h0.as_slice());
    }

    #[test]
    fn hidden_states_bounded_by_one() {
        // h = o ⊙ tanh(c): every component must lie in (−1, 1).
        let mut rng = StdRng::seed_from_u64(2);
        let lstm = Lstm::new(4, 6, &mut rng);
        let xs = inputs(&mut rng, 10, 4);
        let (h0, c0) = zero_state(6);
        let tape = taped(&lstm, &xs, &h0, &c0);
        assert!(tape.hs().iter().all(|v| v.abs() < 1.0));
    }

    #[test]
    fn forward_states_bit_identical_to_tape() {
        let mut rng = StdRng::seed_from_u64(17);
        let lstm = Lstm::new(3, 5, &mut rng);
        let xs = inputs(&mut rng, 6, 3);
        let h0 = init::uniform_vector(5, -0.5, 0.5, &mut rng);
        let c0 = init::uniform_vector(5, -0.5, 0.5, &mut rng);
        let tape = taped(&lstm, &xs, &h0, &c0);
        let (hs, final_c) = lstm.forward_states(&xs, &h0, &c0);
        assert_eq!(hs.len(), tape.len());
        for (a, b) in hs.iter().zip(tape.hs().chunks_exact(5)) {
            for (x, y) in a.iter().zip(b.iter()) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
        for (x, y) in final_c.iter().zip(tape.final_c().iter()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn forward_states_empty_sequence() {
        let mut rng = StdRng::seed_from_u64(18);
        let lstm = Lstm::new(3, 5, &mut rng);
        let (h0, c0) = zero_state(5);
        let (hs, final_c) = lstm.forward_states(&[], &h0, &c0);
        assert!(hs.is_empty());
        assert_eq!(final_c.as_slice(), c0.as_slice());
    }

    #[test]
    fn deterministic_forward() {
        let mut rng = StdRng::seed_from_u64(3);
        let lstm = Lstm::new(3, 4, &mut rng);
        let xs = inputs(&mut rng, 3, 3);
        let (h0, c0) = zero_state(4);
        let a = taped(&lstm, &xs, &h0, &c0);
        // A second pass into a used tape is the same pass.
        let mut b = taped(&lstm, &inputs(&mut rng, 5, 3), &h0, &c0);
        lstm.forward_seq(&flat(&xs), 3, h0.as_slice(), c0.as_slice(), &mut b);
        assert_eq!(a.final_h(), b.final_h());
        assert_eq!(a.hs(), b.hs());
    }

    /// The decisive test: analytic gradients of a scalar loss
    /// `L = Σ_t u_t · h_t` against central finite differences, for every
    /// parameter of the LSTM.
    #[test]
    fn gradients_match_finite_differences() {
        let mut rng = StdRng::seed_from_u64(7);
        let in_dim = 3;
        let hidden = 4;
        let mut lstm = Lstm::new(in_dim, hidden, &mut rng);
        let xs = inputs(&mut rng, 3, in_dim);
        // Fixed projections making the loss scalar.
        let us: Vec<Vector> = (0..3)
            .map(|_| init::uniform_vector(hidden, -1.0, 1.0, &mut rng))
            .collect();
        let h0 = init::uniform_vector(hidden, -0.5, 0.5, &mut rng);
        let c0 = init::uniform_vector(hidden, -0.5, 0.5, &mut rng);

        let loss = |l: &Lstm| -> f32 {
            let tape = taped(l, &xs, &h0, &c0);
            let hs = tape.hs().chunks_exact(hidden);
            hs.zip(&us).map(|(h, u)| dot(h, u)).sum()
        };

        // Analytic pass.
        let tape = taped(&lstm, &xs, &h0, &c0);
        lstm.backward_seq(&tape, &flat(&us), &mut SeqGrads::default());

        check_params(
            &mut lstm,
            |l| loss(l),
            |l, set| l.collect_params(set),
            1e-2,
            2e-2,
        );
    }

    /// Gradient w.r.t. the initial state must also be exact, because
    /// COM-AID seeds the decoder with the concept representation
    /// (`s_0 = h_n^c`) and needs `dL/dh_n^c`.
    #[test]
    fn initial_state_gradient_matches_finite_differences() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut lstm = Lstm::new(2, 3, &mut rng);
        let xs = inputs(&mut rng, 2, 2);
        let u = init::uniform_vector(3, -1.0, 1.0, &mut rng);
        let h0 = init::uniform_vector(3, -0.5, 0.5, &mut rng);
        let c0 = Vector::zeros(3);

        let tape = taped(&lstm, &xs, &h0, &c0);
        let mut dhs = vec![Vector::zeros(3); 2];
        dhs[1] = u.clone();
        let mut grads = SeqGrads::default();
        lstm.backward_seq(&tape, &flat(&dhs), &mut grads);

        let h = 1e-2f32;
        for k in 0..3 {
            let mut hp = h0.clone();
            hp[k] += h;
            let mut hm = h0.clone();
            hm[k] -= h;
            let fp = dot(taped(&lstm, &xs, &hp, &c0).final_h(), &u);
            let fm = dot(taped(&lstm, &xs, &hm, &c0).final_h(), &u);
            let fd = (fp - fm) / (2.0 * h);
            assert!(
                (fd - grads.dh0[k]).abs() < 2e-2,
                "dh0[{k}]: fd={fd} analytic={}",
                grads.dh0[k]
            );
        }
    }

    /// Input gradients feed the embedding table; they must be exact too.
    #[test]
    fn input_gradient_matches_finite_differences() {
        let mut rng = StdRng::seed_from_u64(13);
        let mut lstm = Lstm::new(2, 3, &mut rng);
        let xs = inputs(&mut rng, 3, 2);
        let u = init::uniform_vector(3, -1.0, 1.0, &mut rng);
        let (h0, c0) = zero_state(3);

        let tape = taped(&lstm, &xs, &h0, &c0);
        let mut dhs = vec![Vector::zeros(3); 3];
        dhs[2] = u.clone();
        let mut grads = SeqGrads::default();
        lstm.backward_seq(&tape, &flat(&dhs), &mut grads);

        let h = 1e-2f32;
        for t in 0..3 {
            for k in 0..2 {
                let mut xp = xs.clone();
                xp[t][k] += h;
                let mut xm = xs.clone();
                xm[t][k] -= h;
                let fp = dot(taped(&lstm, &xp, &h0, &c0).final_h(), &u);
                let fm = dot(taped(&lstm, &xm, &h0, &c0).final_h(), &u);
                let fd = (fp - fm) / (2.0 * h);
                assert!(
                    (fd - grads.dxs[t * 2 + k]).abs() < 2e-2,
                    "dx[{t}][{k}]: fd={fd} analytic={}",
                    grads.dxs[t * 2 + k]
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "gradient count")]
    fn backward_wrong_gradient_count_panics() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut lstm = Lstm::new(2, 3, &mut rng);
        let xs = inputs(&mut rng, 2, 2);
        let (h0, c0) = zero_state(3);
        let tape = taped(&lstm, &xs, &h0, &c0);
        lstm.backward_seq(&tape, &[0.0; 3], &mut SeqGrads::default());
    }

    #[test]
    fn plan_step_bit_identical_to_step_infer() {
        // Dimensions straddle the SIMD widths: 4d ∈ {4, 36, 68, 132}
        // covers sub-lane, one-ymm, and multi-tile gate blocks.
        for (in_dim, hidden) in [(3usize, 1usize), (5, 9), (20, 17), (150, 33)] {
            let mut rng = StdRng::seed_from_u64(42 + in_dim as u64);
            let lstm = Lstm::new(in_dim, hidden, &mut rng);
            let plan = lstm.plan();
            let x = init::uniform_vector(in_dim, -1.0, 1.0, &mut rng);
            let h0 = init::uniform_vector(hidden, -1.0, 1.0, &mut rng);
            let c0 = init::uniform_vector(hidden, -1.0, 1.0, &mut rng);
            let (h_ref, c_ref) = lstm.step_infer(&x, &h0, &c0);
            let (h_new, c_new) = plan.step_infer(&x, &h0, &c0);
            for k in 0..hidden {
                assert_eq!(
                    h_new[k].to_bits(),
                    h_ref[k].to_bits(),
                    "h[{k}] {in_dim}x{hidden}"
                );
                assert_eq!(
                    c_new[k].to_bits(),
                    c_ref[k].to_bits(),
                    "c[{k}] {in_dim}x{hidden}"
                );
            }
        }
    }

    #[test]
    fn plan_accessors_and_memory() {
        let mut rng = StdRng::seed_from_u64(7);
        let plan = Lstm::new(6, 11, &mut rng).plan();
        assert_eq!(plan.in_dim(), 6);
        assert_eq!(plan.hidden(), 11);
        assert_eq!(plan.memory_floats(), 6 * 44 + 11 * 44 + 44);
    }

    #[test]
    fn plan_step_bit_identical_at_every_simd_level() {
        use ncl_tensor::simd;
        let mut rng = StdRng::seed_from_u64(91);
        let lstm = Lstm::new(24, 40, &mut rng);
        let plan = lstm.plan();
        let x = init::uniform_vector(24, -1.0, 1.0, &mut rng);
        let (h0, c0) = zero_state(40);
        let (h_ref, c_ref) =
            simd::with_level(simd::Level::Scalar, || lstm.step_infer(&x, &h0, &c0));
        for level in simd::supported_levels() {
            let (h, c) = simd::with_level(level, || plan.step_infer(&x, &h0, &c0));
            for k in 0..40 {
                assert_eq!(
                    h[k].to_bits(),
                    h_ref[k].to_bits(),
                    "{} h[{k}]",
                    level.name()
                );
                assert_eq!(
                    c[k].to_bits(),
                    c_ref[k].to_bits(),
                    "{} c[{k}]",
                    level.name()
                );
            }
        }
    }
}
