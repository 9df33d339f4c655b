//! The taped sequence forms against one deliberately plain per-step
//! reference.
//!
//! `Lstm::{forward_seq, backward_seq_full}`, `Dense::{forward_seq,
//! backward_seq}` and the softmax-NLL slab run one kernel call per
//! *sequence* where training used to run one per *step*. What makes
//! that exact is an order contract (DESIGN.md §10), and this file writes
//! the contract out once, as code: the [`reference`] module is the
//! training step the way the equations state it — scalar loops over
//! `Vec<f32>`, one time step at a time, no kernel, no dispatch, nothing
//! shared with the implementation — and every test compares the
//! sequence forms with it **bit for bit at every dispatch level**.
//!
//! The contract, as the reference spells it:
//!
//! * a forward output is `bias`, then `+ (fresh accumulator over
//!   ascending k, mul then add)` once per operand matrix (`W·x` first,
//!   `U·h` second), and a matrix without columns adds nothing;
//! * a weight-gradient element receives one `+ c·v` term per step — `t`
//!   ascending for a dense layer, `t` **descending** for the LSTM — and
//!   a term whose coefficient is `±0` is skipped, not added;
//! * an input gradient is zero, then `+ x[r]·w[r][j]` for gates
//!   `i, f, o, g` in turn and `r` ascending, zero coefficients skipped.
//!
//! Cases: `T = 0`, `T = 1`, `in_dim = 0`, a `-0.0` bias, `dz` rows of
//! exact zeros (trailing steps without gradient), an infinite weight
//! under a saturated gate (whose `dz` entry is then an exact zero
//! against `inf` — the product a dropped skip would turn into NaN), a
//! probability that underflows to `0`, all-`-inf` logits (the uniform
//! arm of the softmax), `dc_final` present and absent, shapes on both
//! sides of the 8-row blocks and the six-step register blocks.
//!
//! Mutation-checked when written: reversing the `t` loop of the LSTM's
//! (or the dense layer's) sequenced update or of the bias sum, dropping
//! the zero-skip of the sequenced update or of a transposed product,
//! and swapping two gates' `dx` order in `backward_seq_full` each fail
//! this suite.
//!
//! Runs under `NCL_FORCE_SCALAR=1` too (CI's scalar-fallback leg).

use ncl_nn::dense::{Activation, Dense};
use ncl_nn::lstm::{LstmTape, SeqGrads};
use ncl_nn::{softmax_loss, Lstm};
use ncl_tensor::simd;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The per-step training path, stated plainly.
mod reference {
    /// `y[r] += Σ_k w[r][k]·x[k]`: fresh accumulator, ascending `k`, mul
    /// then add. A matrix without entries adds nothing (not even `+0`).
    pub fn gemv_acc(w: &[f32], x: &[f32], y: &mut [f32]) {
        if w.is_empty() {
            return;
        }
        for (r, out) in y.iter_mut().enumerate() {
            let mut acc = 0.0f32;
            for (k, xv) in x.iter().enumerate() {
                acc += w[r * x.len() + k] * xv;
            }
            *out += acc;
        }
    }

    /// `w[r][j] += u[r]·v[j]`; a row whose coefficient is `±0` is left
    /// alone.
    pub fn add_outer(w: &mut [f32], u: &[f32], v: &[f32]) {
        for (r, &c) in u.iter().enumerate() {
            if c == 0.0 {
                continue;
            }
            for (j, vv) in v.iter().enumerate() {
                w[r * v.len() + j] += c * vv;
            }
        }
    }

    /// `y[j] += x[r]·w[r][j]` for `r` ascending; rows with `x[r] == ±0`
    /// are skipped.
    pub fn gemv_t_acc(w: &[f32], x: &[f32], y: &mut [f32]) {
        let cols = y.len();
        for (r, &c) in x.iter().enumerate() {
            if c == 0.0 {
                continue;
            }
            for (j, out) in y.iter_mut().enumerate() {
                *out += c * w[r * cols + j];
            }
        }
    }

    fn sigmoid(x: f32) -> f32 {
        if x >= 0.0 {
            1.0 / (1.0 + (-x).exp())
        } else {
            let e = x.exp();
            e / (1.0 + e)
        }
    }

    /// One gate's weights, values and gradients, row-major.
    #[derive(Clone)]
    pub struct Gate {
        pub w: Vec<f32>,
        pub u: Vec<f32>,
        pub b: Vec<f32>,
        pub dw: Vec<f32>,
        pub du: Vec<f32>,
        pub db: Vec<f32>,
    }

    /// What one forward step leaves for the backward pass.
    pub struct Step {
        pub x: Vec<f32>,
        pub h_prev: Vec<f32>,
        pub c_prev: Vec<f32>,
        /// Post-activation `i, f, o, g`.
        pub gates: [Vec<f32>; 4],
        pub tc: Vec<f32>,
        pub h: Vec<f32>,
        pub c: Vec<f32>,
    }

    /// The LSTM forward recurrence of §4.1.1, one step at a time.
    pub fn lstm_forward(gates: &[Gate; 4], xs: &[Vec<f32>], h0: &[f32], c0: &[f32]) -> Vec<Step> {
        let d = h0.len();
        let mut steps: Vec<Step> = Vec::new();
        for x in xs {
            let (h_prev, c_prev) = match steps.last() {
                Some(s) => (s.h.clone(), s.c.clone()),
                None => (h0.to_vec(), c0.to_vec()),
            };
            let mut act: [Vec<f32>; 4] = Default::default();
            for (g, gate) in gates.iter().enumerate() {
                let mut z = gate.b.clone();
                gemv_acc(&gate.w, x, &mut z);
                gemv_acc(&gate.u, &h_prev, &mut z);
                act[g] = z
                    .iter()
                    .map(|&v| if g < 3 { sigmoid(v) } else { v.tanh() })
                    .collect();
            }
            let (mut c, mut tc, mut h) = (vec![0.0; d], vec![0.0; d], vec![0.0; d]);
            for k in 0..d {
                c[k] = act[1][k] * c_prev[k];
                c[k] += act[0][k] * act[3][k];
                tc[k] = c[k].tanh();
                h[k] = act[2][k] * tc[k];
            }
            steps.push(Step {
                x: x.clone(),
                h_prev,
                c_prev,
                gates: act,
                tc,
                h,
                c,
            });
        }
        steps
    }

    /// Back-propagation through time, last step first, every gradient
    /// updated inside the step — the loop the sequence form replaced.
    /// Returns `(dxs, dh0, dc0)`.
    pub fn lstm_backward(
        gates: &mut [Gate; 4],
        steps: &[Step],
        dhs: &[Vec<f32>],
        dc_final: Option<&[f32]>,
        (in_dim, d): (usize, usize),
    ) -> (Vec<Vec<f32>>, Vec<f32>, Vec<f32>) {
        let mut dxs = vec![vec![0.0f32; in_dim]; steps.len()];
        let mut dh = vec![0.0f32; d];
        let mut dc = dc_final.map_or(vec![0.0f32; d], <[f32]>::to_vec);
        for (t, step) in steps.iter().enumerate().rev() {
            let [i, f, o, g] = &step.gates;
            let mut dz = [vec![0.0f32; d], vec![0.0; d], vec![0.0; d], vec![0.0; d]];
            for k in 0..d {
                dh[k] += dhs[t][k];
                dc[k] += dh[k] * o[k] * (1.0 - step.tc[k] * step.tc[k]);
                let d_o = dh[k] * step.tc[k];
                dz[2][k] = d_o * (o[k] * (1.0 - o[k]));
                let d_i = dc[k] * g[k];
                dz[0][k] = d_i * (i[k] * (1.0 - i[k]));
                let d_f = dc[k] * step.c_prev[k];
                dz[1][k] = d_f * (f[k] * (1.0 - f[k]));
                let d_g = dc[k] * i[k];
                dz[3][k] = d_g * (1.0 - g[k] * g[k]);
            }
            let mut dh_prev = vec![0.0f32; d];
            for (gate, dz) in gates.iter_mut().zip(&dz) {
                add_outer(&mut gate.dw, dz, &step.x);
                add_outer(&mut gate.du, dz, &step.h_prev);
                for (b, z) in gate.db.iter_mut().zip(dz) {
                    *b += z;
                }
                gemv_t_acc(&gate.w, dz, &mut dxs[t]);
                gemv_t_acc(&gate.u, dz, &mut dh_prev);
            }
            for k in 0..d {
                dc[k] *= f[k];
            }
            dh = dh_prev;
        }
        (dxs, dh, dc)
    }

    /// `y = act(b + W·x)`.
    pub fn dense_forward(w: &[f32], b: &[f32], tanh: bool, x: &[f32]) -> Vec<f32> {
        let mut y = b.to_vec();
        gemv_acc(w, x, &mut y);
        if tanh {
            for v in &mut y {
                *v = v.tanh();
            }
        }
        y
    }

    /// One backward step of the dense layer; returns `dx`.
    pub fn dense_backward(
        (w, dw, db): (&[f32], &mut [f32], &mut [f32]),
        tanh: bool,
        (x, y, dy): (&[f32], &[f32], &[f32]),
    ) -> Vec<f32> {
        let mut dz = dy.to_vec();
        if tanh {
            for (d, y) in dz.iter_mut().zip(y) {
                *d *= 1.0 - y * y;
            }
        }
        add_outer(dw, &dz, x);
        for (b, d) in db.iter_mut().zip(&dz) {
            *b += d;
        }
        let mut dx = vec![0.0f32; x.len()];
        gemv_t_acc(w, &dz, &mut dx);
        dx
    }

    /// Max-shifted softmax of one row in place and `log p(target)`: the
    /// target logit is read first, the log-sum-exp comes from the one
    /// exponential pass, and a row without a finite maximum becomes
    /// uniform.
    pub fn softmax_nll(row: &mut [f32], target: usize) -> f32 {
        let target_logit = row[target];
        let m = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let mut sum = 0.0f32;
        for v in row.iter_mut() {
            *v = (*v - m).exp();
            sum += *v;
        }
        if m.is_finite() {
            let inv = 1.0 / sum;
            for v in row.iter_mut() {
                *v *= inv;
            }
        } else {
            let n = row.len() as f32;
            row.fill(1.0 / n);
        }
        target_logit - (m + sum.ln())
    }

    /// `d logits = (probs − one_hot(target)) · scale`, in place.
    pub fn softmax_nll_backward(row: &mut [f32], target: usize, scale: f32) {
        row[target] -= 1.0;
        for v in row.iter_mut() {
            *v *= scale;
        }
    }
}

/// Varied signs and magnitudes with exact zeros among them (the
/// coefficients a zero-skip looks at).
fn data(n: usize, salt: u32) -> Vec<f32> {
    (0..n)
        .map(|i| {
            let k = (i as u32).wrapping_mul(2_654_435_761) ^ salt.wrapping_mul(0x9e37_79b9);
            match k % 9 {
                0 => 0.0,
                1 => -0.0,
                2 => ((k >> 8) % 101) as f32 * -7.5e-3,
                3 => ((k >> 8) % 29) as f32 * 0.031,
                _ => (((k >> 4) % 2001) as f32 - 1000.0) * 6.1e-4,
            }
        })
        .collect()
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn flat(rows: &[Vec<f32>]) -> Vec<f32> {
    rows.iter().flatten().copied().collect()
}

fn rows(flat: &[f32], width: usize, n: usize) -> Vec<Vec<f32>> {
    (0..n)
        .map(|s| flat[s * width..(s + 1) * width].to_vec())
        .collect()
}

/// A layer with `data` weights (zeros included), `-0.0` entries in two
/// biases, and — so that accumulation order is visible — non-zero
/// gradients already in place. Returns it with its plain twin.
fn lstm_pair(in_dim: usize, d: usize, salt: u32) -> (Lstm, [reference::Gate; 4]) {
    let mut lstm = Lstm::new(in_dim, d, &mut StdRng::seed_from_u64(u64::from(salt)));
    let mut plain = Vec::new();
    {
        let [wi, wf, wo, wg, ui, uf, uo, ug, bi, bf, bo, bg] = lstm.gate_blocks().map(|(_, p)| p);
        let gates = [(wi, ui, bi), (wf, uf, bf), (wo, uo, bo), (wg, ug, bg)];
        for (g, (w, u, b)) in gates.into_iter().enumerate() {
            let s = salt.wrapping_add(10 * g as u32);
            w.v.copy_from_slice(&data(d * in_dim, s));
            u.v.copy_from_slice(&data(d * d, s + 1));
            b.v.copy_from_slice(&data(d, s + 2));
            if g % 2 == 0 {
                b.v[d / 2] = -0.0;
            }
            w.g.copy_from_slice(&data(d * in_dim, s + 3));
            u.g.copy_from_slice(&data(d * d, s + 4));
            b.g.copy_from_slice(&data(d, s + 5));
            plain.push(reference::Gate {
                w: w.v.to_vec(),
                u: u.v.to_vec(),
                b: b.v.to_vec(),
                dw: w.g.to_vec(),
                du: u.g.to_vec(),
                db: b.g.to_vec(),
            });
        }
    }
    let plain: [reference::Gate; 4] = plain.try_into().ok().unwrap();
    (lstm, plain)
}

/// `(in_dim, hidden, T)`: no steps, one step, no input columns, both
/// sides of the 8-row block and of the six-step register block, the
/// training shape.
const LSTM_SHAPES: [(usize, usize, usize); 8] = [
    (3, 4, 0),
    (3, 4, 1),
    (0, 5, 3),
    (7, 12, 6),
    (5, 9, 7),
    (9, 8, 13),
    (32, 32, 7),
    (17, 33, 2),
];

#[test]
fn lstm_sequence_forms_match_the_per_step_reference_at_every_level() {
    for (case, &(in_dim, d, t)) in LSTM_SHAPES.iter().enumerate() {
        let salt = 100 * case as u32;
        for with_dc_final in [false, true] {
            let (mut lstm0, mut plain0) = lstm_pair(in_dim, d, salt);
            let mut xs = rows(&data(t * in_dim, salt + 50), in_dim, t);
            let mut h0 = data(d, salt + 51);
            let c0 = data(d, salt + 52);
            // Saturated gates over infinite weights: `W⁽ⁱ⁾[3][2] = +inf`
            // against an input that is never zero pins `i[3]` at 1, and
            // `U⁽ᶠ⁾[1][0] = -inf` against a state that is never zero pins
            // `f[1]` at 0 or 1 — so `dz` is an exact zero there at every
            // step, in front of an infinite weight.
            if in_dim > 2 {
                lstm0.w.v[(3, 2)] = f32::INFINITY;
                plain0[0].w[3 * in_dim + 2] = f32::INFINITY;
                for x in &mut xs {
                    x[2] = 0.5;
                }
            }
            lstm0.u.v[(d + 1, 0)] = f32::NEG_INFINITY;
            plain0[1].u[d] = f32::NEG_INFINITY;
            h0[0] = 0.25;
            // No gradient reaches the last two steps from outside: with
            // `dc_final` absent their `dz` rows are exact zeros, which
            // every skip then has to leave alone.
            let mut dhs = rows(&data(t * d, salt + 53), d, t);
            for row in dhs.iter_mut().rev().take(2) {
                row.fill(0.0);
            }
            let dc_final = with_dc_final.then(|| data(d, salt + 54));

            let mut plain = plain0.clone();
            let steps = reference::lstm_forward(&plain, &xs, &h0, &c0);
            let (want_dxs, want_dh0, want_dc0) = reference::lstm_backward(
                &mut plain,
                &steps,
                &dhs,
                dc_final.as_deref(),
                (in_dim, d),
            );
            // Every skip held: no `0·inf` anywhere.
            let finite = |v: &[f32]| v.iter().all(|x| x.is_finite());
            assert!(finite(&flat(&want_dxs)) && finite(&want_dh0) && finite(&want_dc0));
            assert!(plain.iter().all(|g| finite(&g.dw) && finite(&g.du)));

            for level in simd::supported_levels() {
                let ctx = format!("{in_dim}x{d} T={t} dc_final={with_dc_final} @ {level:?}");
                let mut lstm = lstm0.clone();
                // Used buffers, of another shape: reuse must not leak.
                let mut tape = LstmTape::default();
                let mut grads = SeqGrads::default();
                simd::with_level(level, || {
                    lstm.forward_seq(&data(3 * in_dim, 1), 3, &h0, &c0, &mut tape);
                    lstm.backward_seq(&tape, &data(3 * d, 2), &mut grads);
                    lstm = lstm0.clone();
                    lstm.forward_seq(&flat(&xs), t, &h0, &c0, &mut tape);
                    lstm.backward_seq_full(&tape, &flat(&dhs), dc_final.as_deref(), &mut grads);
                });

                assert_eq!(tape.len(), t, "{ctx}");
                let want_hs: Vec<f32> = steps.iter().flat_map(|s| s.h.iter().copied()).collect();
                assert_eq!(bits(tape.hs()), bits(&want_hs), "hs {ctx}");
                let (want_h, want_c) = match steps.last() {
                    Some(s) => (s.h.clone(), s.c.clone()),
                    None => (h0.clone(), c0.clone()),
                };
                assert_eq!(bits(tape.final_h()), bits(&want_h), "final_h {ctx}");
                assert_eq!(bits(tape.final_c()), bits(&want_c), "final_c {ctx}");

                assert_eq!(bits(&grads.dxs), bits(&flat(&want_dxs)), "dxs {ctx}");
                assert_eq!(bits(&grads.dh0), bits(&want_dh0), "dh0 {ctx}");
                assert_eq!(bits(&grads.dc0), bits(&want_dc0), "dc0 {ctx}");
                let [wi, wf, wo, wg, ui, uf, uo, ug, bi, bf, bo, bg] =
                    lstm.gate_blocks().map(|(_, p)| p);
                let got = [(wi, ui, bi), (wf, uf, bf), (wo, uo, bo), (wg, ug, bg)];
                for (g, ((w, u, b), want)) in got.into_iter().zip(&plain).enumerate() {
                    assert_eq!(bits(w.g), bits(&want.dw), "dW[{g}] {ctx}");
                    assert_eq!(bits(u.g), bits(&want.du), "dU[{g}] {ctx}");
                    assert_eq!(bits(b.g), bits(&want.db), "db[{g}] {ctx}");
                }
                // The gradients moved, or equal bits say nothing.
                if t > 2 {
                    assert_ne!(
                        bits(&lstm.u.g.as_slice()[..d * d]),
                        bits(&plain0[0].du),
                        "{ctx}"
                    );
                }
            }
        }
    }
}

#[test]
fn forward_seq_matches_step_infer_the_kept_per_step_form() {
    // The reference the library keeps for itself: `forward_states` steps
    // `step_infer`. Cheap to pin here as well, on the same shapes.
    use ncl_tensor::Vector;
    for (case, &(in_dim, d, t)) in LSTM_SHAPES.iter().enumerate() {
        let (lstm, _) = lstm_pair(in_dim, d, 100 * case as u32);
        let xs = rows(&data(t * in_dim, 7), in_dim, t);
        let (h0, c0) = (data(d, 8), data(d, 9));
        let vxs: Vec<Vector> = xs.iter().map(|x| Vector::from_slice(x)).collect();
        let (hs, c) = lstm.forward_states(&vxs, &Vector::from_slice(&h0), &Vector::from_slice(&c0));
        let mut tape = LstmTape::default();
        lstm.forward_seq(&flat(&xs), t, &h0, &c0, &mut tape);
        let want: Vec<f32> = hs.iter().flat_map(|h| h.iter().copied()).collect();
        assert_eq!(bits(tape.hs()), bits(&want), "{in_dim}x{d} T={t}");
        assert_eq!(
            bits(tape.final_c()),
            bits(c.as_slice()),
            "{in_dim}x{d} T={t}"
        );
    }
}

/// `(in_dim, out_dim, T)`; `in_dim = 0` is the layer whose `-0.0` bias
/// entries a spurious `+ 0.0` would rewrite.
const DENSE_SHAPES: [(usize, usize, usize); 7] = [
    (5, 3, 0),
    (5, 3, 1),
    (0, 6, 4),
    (36, 12, 6),
    (12, 70, 7),
    (32, 188, 13),
    (96, 32, 2),
];

#[test]
fn dense_sequence_forms_match_the_per_step_reference_at_every_level() {
    for (case, &(in_dim, out_dim, t)) in DENSE_SHAPES.iter().enumerate() {
        for act in [Activation::Linear, Activation::Tanh] {
            let tanh = act == Activation::Tanh;
            let salt = 1000 + 100 * case as u32;
            let mut layer0 = Dense::new(in_dim, out_dim, act, &mut StdRng::seed_from_u64(3));
            layer0
                .w
                .v
                .as_mut_slice()
                .copy_from_slice(&data(out_dim * in_dim, salt));
            layer0
                .b
                .v
                .as_mut_slice()
                .copy_from_slice(&data(out_dim, salt + 1));
            layer0.b.v[out_dim / 2] = -0.0;
            layer0
                .w
                .g
                .as_mut_slice()
                .copy_from_slice(&data(out_dim * in_dim, salt + 2));
            layer0
                .b
                .g
                .as_mut_slice()
                .copy_from_slice(&data(out_dim, salt + 3));
            let mut xs = rows(&data(t * in_dim, salt + 4), in_dim, t);
            // One step's upstream gradient is all zeros: its row of the
            // update is skipped whole — and so is, in that step's input
            // gradient, the infinite weight planted here.
            let mut dys = rows(&data(t * out_dim, salt + 5), out_dim, t);
            if let Some(row) = dys.get_mut(t / 2) {
                row.fill(0.0);
            }
            if in_dim > 0 {
                layer0.w.v[(1, 0)] = f32::INFINITY;
                for x in &mut xs {
                    x[0] = 0.75;
                }
            }

            let w = layer0.w.v.as_slice().to_vec();
            let b = layer0.b.v.as_slice().to_vec();
            let mut dw = layer0.w.g.as_slice().to_vec();
            let mut db = layer0.b.g.as_slice().to_vec();
            let want_ys: Vec<Vec<f32>> = xs
                .iter()
                .map(|x| reference::dense_forward(&w, &b, tanh, x))
                .collect();
            let want_dxs: Vec<Vec<f32>> = (0..t)
                .map(|s| {
                    reference::dense_backward(
                        (&w, &mut dw, &mut db),
                        tanh,
                        (&xs[s], &want_ys[s], &dys[s]),
                    )
                })
                .collect();

            for level in simd::supported_levels() {
                let ctx = format!("{in_dim}->{out_dim} {act:?} T={t} @ {level:?}");
                let mut layer = layer0.clone();
                let mut ys = vec![f32::NAN; t * out_dim];
                let mut dz = flat(&dys);
                let mut dxs = vec![f32::NAN; t * in_dim];
                simd::with_level(level, || {
                    layer.forward_seq(&flat(&xs), &mut ys, t);
                    layer.backward_seq(&flat(&xs), &ys, &mut dz, &mut dxs, t);
                });
                assert_eq!(bits(&ys), bits(&flat(&want_ys)), "ys {ctx}");
                assert_eq!(bits(&dxs), bits(&flat(&want_dxs)), "dxs {ctx}");
                assert_eq!(bits(layer.w.g.as_slice()), bits(&dw), "dW {ctx}");
                assert_eq!(bits(layer.b.g.as_slice()), bits(&db), "db {ctx}");
                if in_dim == 0 && !tanh {
                    let zero_bias = ys[out_dim / 2].to_bits();
                    assert_eq!(zero_bias, (-0.0f32).to_bits(), "-0.0 bias {ctx}");
                }
            }
        }
    }
}

#[test]
fn softmax_nll_slab_matches_the_per_row_reference_at_every_level() {
    let width = 37;
    let mut logit_rows = rows(&data(6 * width, 77), width, 6);
    for v in logit_rows[0].iter_mut() {
        *v *= 9.0;
    }
    // Row 1: a probability that underflows to exactly 0.
    logit_rows[1][5] = -200.0;
    logit_rows[1][6] = 40.0;
    // Row 2: no finite maximum — the uniform arm.
    logit_rows[2].fill(f32::NEG_INFINITY);
    // Row 3: the target itself underflows.
    logit_rows[3][2] = 120.0;
    let targets: [u32; 6] = [0, 6, 36, 11, 17, 3];
    let scale = 1.0 / 16.0;

    let mut want_probs = logit_rows.clone();
    let want_lps: Vec<f32> = want_probs
        .iter_mut()
        .zip(targets)
        .map(|(row, t)| reference::softmax_nll(row, t as usize))
        .collect();
    assert_eq!(want_probs[1][5], 0.0, "underflow case");
    assert!(want_probs[2].iter().all(|&p| p == 1.0 / width as f32));
    assert_eq!(want_probs[3][11], 0.0, "target underflow case");
    let mut want_dlogits = want_probs.clone();
    for (row, t) in want_dlogits.iter_mut().zip(targets) {
        reference::softmax_nll_backward(row, t as usize, scale);
    }

    for level in simd::supported_levels() {
        for t in [0usize, 1, 6] {
            let mut slab = flat(&logit_rows[..t]);
            let mut lps = vec![f32::NAN; t];
            simd::with_level(level, || {
                softmax_loss::forward_seq(&mut slab, &targets[..t], &mut lps);
            });
            assert_eq!(
                bits(&slab),
                bits(&flat(&want_probs[..t])),
                "probs T={t} @ {level:?}"
            );
            assert_eq!(
                bits(&lps),
                bits(&want_lps[..t]),
                "log-probs T={t} @ {level:?}"
            );
            simd::with_level(level, || {
                softmax_loss::backward_seq(&mut slab, &targets[..t], scale);
            });
            assert_eq!(
                bits(&slab),
                bits(&flat(&want_dlogits[..t])),
                "dlogits T={t} @ {level:?}"
            );
        }
    }
}

/// The decoder head of a training example, end to end: composite rows →
/// logits → loss → `d logits` → output and composite gradients, with an
/// underflowed probability giving the output layer's update an exact
/// zero coefficient in the middle of a sequence.
#[test]
fn output_head_sequence_matches_the_per_step_chain_at_every_level() {
    let (d, vocab, t) = (12usize, 41usize, 7usize);
    let mut out0 = Dense::new(d, vocab, Activation::Linear, &mut StdRng::seed_from_u64(5));
    out0.w
        .v
        .as_mut_slice()
        .copy_from_slice(&data(vocab * d, 300));
    out0.b.v.as_mut_slice().copy_from_slice(&data(vocab, 301));
    // One word nobody predicts: its probability underflows at every step.
    out0.b.v[9] = -300.0;
    let s_tilde = rows(&data(t * d, 302), d, t);
    let targets: Vec<u32> = (0..t as u32).map(|s| (s * 5 + 1) % vocab as u32).collect();
    let scale = 0.125;

    let w = out0.w.v.as_slice().to_vec();
    let b = out0.b.v.as_slice().to_vec();
    let mut dw = vec![0.0f32; vocab * d];
    let mut db = vec![0.0f32; vocab];
    let mut want_lps = Vec::new();
    let mut want_ds = Vec::new();
    for (x, &target) in s_tilde.iter().zip(&targets) {
        let mut row = reference::dense_forward(&w, &b, false, x);
        want_lps.push(reference::softmax_nll(&mut row, target as usize));
        assert_eq!(row[9], 0.0);
        reference::softmax_nll_backward(&mut row, target as usize, scale);
        let dx = reference::dense_backward((&w, &mut dw, &mut db), false, (x, &[], &row));
        want_ds.push(dx);
    }
    assert!(dw[9 * d..10 * d].iter().all(|g| g.to_bits() == 0));

    for level in simd::supported_levels() {
        let mut out = out0.clone();
        let mut slab = vec![f32::NAN; t * vocab];
        let mut lps = vec![f32::NAN; t];
        let mut ds = vec![f32::NAN; t * d];
        simd::with_level(level, || {
            out.forward_seq(&flat(&s_tilde), &mut slab, t);
            softmax_loss::forward_seq(&mut slab, &targets, &mut lps);
            softmax_loss::backward_seq(&mut slab, &targets, scale);
            out.backward_seq(&flat(&s_tilde), &[], &mut slab, &mut ds, t);
        });
        assert_eq!(bits(&lps), bits(&want_lps), "log-probs @ {level:?}");
        assert_eq!(bits(&ds), bits(&flat(&want_ds)), "ds̃ @ {level:?}");
        assert_eq!(bits(out.w.g.as_slice()), bits(&dw), "dW_s @ {level:?}");
        assert_eq!(bits(out.b.g.as_slice()), bits(&db), "db_s @ {level:?}");
    }
}
