//! SIMD ⇔ scalar identity suite for [`ncl_tensor::simd`].
//!
//! The dispatch contract (DESIGN.md §14) is that every *exact* kernel is
//! **bit-identical** to the scalar reference at every supported dispatch
//! level, because vectorization runs across independent outputs and each
//! output keeps the scalar reduction order. These tests pin that contract
//! from outside the crate, across:
//!
//! * awkward lengths — 0, 1, lane−1/lane/lane+1 for the 8-wide AVX2
//!   and 16-wide AVX-512 lanes (and the half-lane 3/4/5), tile
//!   boundaries (15/16/17, 31/32/33), and large non-multiples (100, 257);
//! * the column-major product over every output count `1..=80` at
//!   `k ∈ {1, 32, 96}`, on slices that end exactly at their allocation's
//!   end — every AVX2 and AVX-512 tile width and masked tail;
//! * unaligned inputs — slices offset by one `f32` from their allocation
//!   start, so 32-byte-aligned loads would fault if the kernels ever
//!   switched from `loadu` to aligned loads;
//! * the three row-major training kernels (`rowmajor_gemv_acc`, the
//!   scalar definition at every level, and the vector `rank1_update`,
//!   `gemv_t_acc`) over every `rows, cols ∈ 0..=41`, on
//!   slices that **end exactly at their allocation's end** (the
//!   out-of-bounds check the AVX2 loads get at these sizes on
//!   hardware; the Miri leg interprets the same bodies at the in-crate
//!   tests' small shapes), and with `0.0`, `-0.0`, `NaN`, `±inf` in the coefficients
//!   the zero-skip inspects;
//! * the stacked column-major product `colmajor_gemv_acc_seq` — the
//!   taped forward pass's — against `T` per-step `colmajor_gemv_acc`
//!   calls and against `T` per-step scalar `rowmajor_gemv_acc` calls
//!   over the untransposed matrix, for `T ∈ 1..=8`, every output count
//!   `1..=80` plus 128 and 1017, inputs `{0, 1, 32, 96}`, `-0.0` in the
//!   accumulated slab, on end-of-allocation slices;
//! * the two row-major **sequence** kernels (`rank1_update_seq`,
//!   `gemv_t_acc_seq`), each against what it is
//!   defined as — `T` successive calls of its per-step kernel, made at
//!   `Scalar` — over the same square × `T ∈ {0, 1, 2, 6, 7, 13}` (one
//!   step, one full six-step register block, the 4 + 3 and 5 + 4 + 4
//!   splits), both step orders of the update, the same special values
//!   at the first, a middle and the last step, and the same
//!   end-of-allocation slices — and again at the 16-lane bodies' tiles,
//!   `rows ∈ {15, 16, 17, 33, 63, 1017}` × `cols ∈ {47, …, 129}`;
//! * the Phase-I scan kernels: `scatter_add_scaled` against its scalar
//!   definition over every length `0..=41` with index gaps of 1, of
//!   1,000 and mixed, the first and last accumulator slots hit, the
//!   coefficients `0`, `-0`, a subnormal and `∞`, on the same
//!   end-of-allocation slices — and its contract, which panics at every
//!   level, before the AVX2 body stores any of a bad vector's lanes;
//!   `take_mask_above` over every block length `0..=64` with `-0.0` and
//!   NaN in the block;
//! * the [`ncl_tensor::libm`] slice kernels over every length `0..=41`
//!   on the same end-of-allocation slices (their padded tails must stay
//!   inside), `softmax_inplace` on degenerate inputs against the loop it
//!   replaced, and `log_sum_exp_slice` at the serving and training
//!   vocabulary widths. (Their value-level suite is
//!   `tests/libm_identity.rs`.)
//!
//! Runs under `NCL_FORCE_SCALAR=1` too (CI's scalar-fallback leg), where
//! `Scalar` is the active level the pinned ones are compared from.
//!
//! The `proptests` module name is load-bearing: CI's property-test leg
//! runs `cargo test --workspace proptests` and filters by that substring.

use ncl_tensor::simd::{self, Level};
use ncl_tensor::{libm, ops};

/// Lengths that straddle every lane/tile boundary in the kernels: AVX2
/// is 8-wide with 16- and 32-element tiles; the half-lane sizes stay as
/// awkward inputs.
const SIZES: &[usize] = &[0, 1, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33, 100, 257];

/// Deterministic "awkward" test data: varied signs and magnitudes,
/// including exact zeros (which some callers' skip-paths care about).
fn data(n: usize, salt: u32) -> Vec<f32> {
    (0..n)
        .map(|i| {
            let k = i as u32 ^ (salt.wrapping_mul(0x9e37_79b9));
            match k % 7 {
                0 => 0.0,
                1 => -1.5e-3 * (k % 101) as f32,
                2 => 1.0 + (k % 13) as f32 * 0.125,
                3 => -((k % 29) as f32) * 3.25,
                4 => ((k % 997) as f32 - 498.0) * 1e-2,
                5 => f32::from_bits(0x3f80_0000 | (k % 4096)),
                _ => ((k % 17) as f32).sin(),
            }
        })
        .collect()
}

/// Runs `f` at `level` and returns its result (skipping unsupported
/// levels is the caller's job via [`simd::supported_levels`]).
fn at<R>(level: Level, f: impl FnOnce() -> R) -> R {
    simd::with_level(level, f)
}

fn assert_bits_eq(label: &str, level: Level, got: &[f32], want: &[f32]) {
    assert_eq!(got.len(), want.len(), "{label} @ {level:?}: length");
    for (i, (g, w)) in got.iter().zip(want.iter()).enumerate() {
        assert_eq!(
            g.to_bits(),
            w.to_bits(),
            "{label} @ {level:?} [{i}]: got {g}, want {w}"
        );
    }
}

#[test]
fn saxpy_bitwise_identical_across_levels_and_offsets() {
    for &n in SIZES {
        // One-past-start offsets defeat any accidental alignment
        // assumption: `buf[1..]` is 4-byte aligned but never 16/32-byte
        // aligned when `buf` is.
        let xbuf = data(n + 1, 1);
        let ybuf = data(n + 1, 2);
        for offset in [0usize, 1] {
            let x = &xbuf[offset..offset + n];
            let y0 = &ybuf[offset..offset + n];
            let reference = at(Level::Scalar, || {
                let mut y = y0.to_vec();
                simd::saxpy(&mut y, -0.75, x);
                y
            });
            for level in simd::supported_levels() {
                let got = at(level, || {
                    let mut y = y0.to_vec();
                    simd::saxpy(&mut y, -0.75, x);
                    y
                });
                assert_bits_eq(
                    &format!("saxpy n={n} off={offset}"),
                    level,
                    &got,
                    &reference,
                );
            }
        }
    }
}

#[test]
fn add_assign_and_scale_bitwise_identical_across_levels() {
    for &n in SIZES {
        let x = data(n, 3);
        let y0 = data(n, 4);
        let want_add = at(Level::Scalar, || {
            let mut y = y0.clone();
            simd::add_assign(&mut y, &x);
            y
        });
        let want_scale = at(Level::Scalar, || {
            let mut y = y0.clone();
            simd::scale(&mut y, 1.0 / 3.0);
            y
        });
        for level in simd::supported_levels() {
            let got_add = at(level, || {
                let mut y = y0.clone();
                simd::add_assign(&mut y, &x);
                y
            });
            let got_scale = at(level, || {
                let mut y = y0.clone();
                simd::scale(&mut y, 1.0 / 3.0);
                y
            });
            assert_bits_eq(&format!("add_assign n={n}"), level, &got_add, &want_add);
            assert_bits_eq(&format!("scale n={n}"), level, &got_scale, &want_scale);
        }
    }
}

#[test]
fn max_bitwise_identical_across_levels_and_offsets() {
    for &n in SIZES {
        if n == 0 {
            continue; // max of an empty slice is a caller-side error
        }
        let buf = data(n + 1, 5);
        for offset in [0usize, 1] {
            let x = &buf[offset..offset + n];
            let want = at(Level::Scalar, || simd::max(x));
            for level in simd::supported_levels() {
                let got = at(level, || simd::max(x));
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "max n={n} off={offset} @ {level:?}"
                );
            }
        }
    }
}

#[test]
fn colmajor_gemv_bitwise_identical_across_levels_and_offsets() {
    // (in_dim, out_dim) pairs crossing the 8-wide and 32-wide j-tiles
    // and both degenerate axes, at an offset inside a larger buffer ...
    let shapes = [
        (0usize, 5usize),
        (3, 0),
        (1, 1),
        (5, 7),
        (4, 8),
        (9, 31),
        (6, 32),
        (7, 33),
        (13, 100),
        (3, 257),
    ];
    let check = |label: &str, x: &[f32], wt: &[f32], y0: &[f32]| {
        let want = at(Level::Scalar, || {
            let mut y = y0.to_vec();
            simd::colmajor_gemv_acc(&mut y, x, wt);
            y
        });
        for level in simd::supported_levels() {
            let got = at(level, || {
                let mut y = y0.to_vec().into_boxed_slice();
                simd::colmajor_gemv_acc(&mut y, x, wt);
                y
            });
            assert_bits_eq(label, level, &got, &want);
        }
    };
    for &(in_dim, out_dim) in &shapes {
        let xbuf = data(in_dim + 1, 6);
        let wbuf = data(in_dim * out_dim + 1, 7);
        let y0 = data(out_dim, 8);
        for offset in [0usize, 1] {
            let x = &xbuf[offset..offset + in_dim];
            let wt = &wbuf[offset..offset + in_dim * out_dim];
            let label = format!("colmajor_gemv {in_dim}x{out_dim} off={offset}");
            check(&label, x, wt, &y0);
        }
    }
    // ... and every output count to 80 — each tile width of every level,
    // and every masked tail, ending where an exact-size allocation ends
    // (`y` is one too) — at one input, and at the decoder's d = 32 and
    // the composite layer's 3d = 96.
    for in_dim in [1usize, 32, 96] {
        for out_dim in 1..=80 {
            for off in [0usize, 1] {
                let x = tail(in_dim, off, 6);
                let wt = tail(in_dim * out_dim, off, out_dim as u32);
                let label = format!("colmajor_gemv {in_dim}x{out_dim} end off={off}");
                check(&label, &x[off..], &wt[off..], &data(out_dim, 8));
            }
        }
    }
}

/// The stacked column-major product is `t` per-step calls of
/// `colmajor_gemv_acc`, and — over the untransposed matrix — `t` calls of
/// the scalar row-major definition `rowmajor_gemv_acc`: every output count
/// of every tile width and tail to 80, the LSTM's four gates at d = 32
/// and the `hx-train` output layer; one input, d = 32, the composite
/// layer's 96 and none at all (which must leave every `-0.0` in the
/// slab as it is); `T` through one, six and the 4 + 4 split of eight.
#[test]
fn colmajor_seq_is_t_per_step_calls_and_the_rowmajor_stack() {
    let outs: Vec<usize> = (1..=80).chain([128, 1017]).collect();
    for in_dim in [0usize, 1, 32, 96] {
        for &out_dim in &outs {
            for t in 1..=8usize {
                let salt = (in_dim * 1100 + out_dim) as u32 * 9 + t as u32;
                let off = (out_dim + t) % 2;
                let wt = tail(in_dim * out_dim, off, salt);
                let xs = tail(t * in_dim, off, salt.wrapping_add(1));
                let mut y0 = tail(t * out_dim, off, salt.wrapping_add(2));
                for v in y0[off..].iter_mut().step_by(5) {
                    *v = -0.0;
                }
                let (wt, xs) = (&wt[off..], &xs[off..]);
                // `w` is `wt` untransposed: row `j` holds output `j`'s weights.
                let mut w = vec![0.0f32; in_dim * out_dim];
                for k in 0..in_dim {
                    for j in 0..out_dim {
                        w[j * in_dim + k] = wt[k * out_dim + j];
                    }
                }
                let (want, rowmajor) = at(Level::Scalar, || {
                    let (mut ys, mut rowmajor) = (y0.clone(), y0.clone());
                    for s in 0..t {
                        let x = &xs[s * in_dim..][..in_dim];
                        simd::colmajor_gemv_acc(&mut ys[off + s * out_dim..][..out_dim], x, wt);
                        let y = &mut rowmajor[off + s * out_dim..][..out_dim];
                        simd::rowmajor_gemv_acc(y, x, &w);
                    }
                    (ys, rowmajor)
                });
                let case = format!("{in_dim}->{out_dim} t={t} off={off}");
                for level in simd::supported_levels() {
                    let got = at(level, || {
                        let mut got = y0.clone();
                        simd::colmajor_gemv_acc_seq(&mut got[off..], xs, wt, t);
                        got
                    });
                    assert_bits_eq(&format!("colmajor_seq {case}"), level, &got, &want);
                    assert_bits_eq(&format!("vs rowmajor {case}"), level, &got, &rowmajor);
                }
                if in_dim == 0 {
                    assert_bits_eq(&format!("no inputs {case}"), Level::Scalar, &want, &y0);
                }
            }
        }
    }
}

/// The transpose is a copy: every level writes the definition's bits
/// for every shape to 41×41, ending where an exact-size allocation ends,
/// and at the `hx-train` output layer (1017×32).
#[test]
fn transpose_into_is_its_definition_at_every_level() {
    let shapes = (0..=41usize)
        .flat_map(|r| (0..=41usize).map(move |c| (r, c)))
        .chain([(1017, 32), (32, 1017)]);
    for (rows, cols) in shapes {
        let src = tail(rows * cols, rows % 2, (rows * 64 + cols) as u32);
        let src = &src[rows % 2..];
        let mut want = vec![NAN; rows * cols];
        for r in 0..rows {
            for c in 0..cols {
                want[c * rows + r] = src[r * cols + c];
            }
        }
        for level in simd::supported_levels() {
            let mut got = vec![NAN; rows * cols].into_boxed_slice();
            at(level, || simd::transpose_into(&mut got, src, rows, cols));
            assert_bits_eq(&format!("transpose {rows}x{cols}"), level, &got, &want);
        }
    }
}

#[test]
fn bf16_widen_narrow_bitwise_identical_across_levels_and_offsets() {
    for &n in SIZES {
        let buf = data(n + 1, 13);
        for offset in [0usize, 1] {
            let x = &buf[offset..offset + n];
            let q_ref = at(Level::Scalar, || {
                let mut q = vec![0u16; n];
                simd::narrow_bf16(&mut q, x);
                q
            });
            let w_ref = at(Level::Scalar, || {
                let mut w = vec![0.0f32; n];
                simd::widen_bf16(&mut w, &q_ref);
                w
            });
            for level in simd::supported_levels() {
                let got_q = at(level, || {
                    let mut q = vec![0u16; n];
                    simd::narrow_bf16(&mut q, x);
                    q
                });
                assert_eq!(got_q, q_ref, "narrow_bf16 n={n} off={offset} @ {level:?}");
                // A one-u16 offset into the quantized buffer defeats any
                // 16-byte-alignment assumption on the integer loads too.
                let got_w = at(level, || {
                    let mut w = vec![0.0f32; n];
                    simd::widen_bf16(&mut w, &q_ref);
                    w
                });
                assert_bits_eq(
                    &format!("widen_bf16 n={n} off={offset}"),
                    level,
                    &got_w,
                    &w_ref,
                );
            }
        }
    }
}

/// `data(off + n, salt)` in an allocation of exactly `off + n` floats
/// (a boxed slice has no spare capacity): `&buf[off..]` is an `n`-float
/// slice that starts `off` floats into its allocation — unaligned for
/// `off == 1` — and ends exactly where the allocation ends, so a vector
/// load that overran a row would leave the allocation.
fn tail(n: usize, off: usize, salt: u32) -> Box<[f32]> {
    data(off + n, salt).into_boxed_slice()
}

/// The NaN every invalid x86 SSE/AVX operation produces (`inf·0`,
/// `inf − inf`). When two NaNs with *different* bits meet in one add,
/// the result carries the first operand's, and neither Rust nor LLVM
/// pins the operand order of the scalar loop's `y + c·v` — so the
/// special-value cases inject this pattern, and every NaN in the
/// computation has the same bits whichever operand wins.
const NAN: f32 = f32::from_bits(0xFFC0_0000);

/// The values the zero-skip of `rank1_update` / `gemv_t_acc` must tell
/// apart: both zeros skip the row, `NaN` and `±inf` do not.
const SKIP_PROBES: [f32; 5] = [0.0, -0.0, NAN, f32::INFINITY, f32::NEG_INFINITY];

/// One case of the three row-major kernels at every supported level
/// against `Scalar`, bit for bit. `w` is `rows × cols`; `xc` (`cols`
/// long) feeds `rowmajor_gemv_acc` and is `rank1_update`'s `v`; `xr`
/// (`rows` long) holds the per-row coefficients the zero-skip looks at.
/// With `special`, `xr` cycles through [`SKIP_PROBES`] and `w`, `xc` and
/// the outputs carry `-0.0` and `inf`, which is what makes a wrongly
/// taken (or wrongly skipped) row visible: `-0.0 + 0·v` is `+0.0`, and
/// `0·inf` is NaN.
fn assert_rowmajor_kernels_identical(
    rows: usize,
    cols: usize,
    off: usize,
    salt: u32,
    special: bool,
) {
    let mut w = tail(rows * cols, off, salt);
    let mut xc = tail(cols, off, salt.wrapping_add(1));
    let mut xr = tail(rows, off, salt.wrapping_add(2));
    let mut yr = tail(rows, off, salt.wrapping_add(3));
    let mut yc = tail(cols, off, salt.wrapping_add(4));
    if special {
        for (i, v) in xr[off..].iter_mut().enumerate() {
            if (i + salt as usize) % 3 != 2 {
                *v = SKIP_PROBES[(i + salt as usize) % SKIP_PROBES.len()];
            }
        }
        for buf in [&mut w, &mut xc, &mut yr, &mut yc] {
            for (i, v) in buf[off..].iter_mut().enumerate() {
                match (i + salt as usize) % 11 {
                    3 => *v = -0.0,
                    7 => *v = f32::INFINITY,
                    _ => {}
                }
            }
        }
    }
    let run = |level: Level| {
        at(level, || {
            let mut gemv = yr.clone();
            simd::rowmajor_gemv_acc(&mut gemv[off..], &xc[off..], &w[off..]);
            let mut outer = w.clone();
            simd::rank1_update(&mut outer[off..], -0.75, &xr[off..], &xc[off..]);
            let mut gemv_t = yc.clone();
            simd::gemv_t_acc(&mut gemv_t[off..], &xr[off..], &w[off..]);
            (gemv, outer, gemv_t)
        })
    };
    let want = run(Level::Scalar);
    for level in simd::supported_levels() {
        let got = run(level);
        let case = format!("{rows}x{cols} off={off} salt={salt} special={special}");
        assert_bits_eq(&format!("rowmajor_gemv_acc {case}"), level, &got.0, &want.0);
        assert_bits_eq(&format!("rank1_update {case}"), level, &got.1, &want.1);
        assert_bits_eq(&format!("gemv_t_acc {case}"), level, &got.2, &want.2);
    }
}

#[test]
fn rowmajor_kernels_bitwise_identical_for_every_shape_to_41() {
    // Exhaustive over the proptest's domain: both degenerate axes, every
    // `rows % 8` / `cols % 8` tail, the d = 32
    // training shape, at an aligned and an unaligned start.
    for rows in 0..=41 {
        for cols in 0..=41 {
            let salt = (rows * 42 + cols) as u32;
            assert_rowmajor_kernels_identical(rows, cols, rows % 2, salt, false);
        }
    }
}

#[test]
fn rowmajor_kernels_honor_the_zero_skip_on_special_values() {
    for (rows, cols) in [
        (1usize, 1usize),
        (5, 3),
        (8, 8),
        (13, 9),
        (32, 32),
        (41, 17),
    ] {
        for off in [0usize, 1] {
            for salt in 0..5 {
                assert_rowmajor_kernels_identical(rows, cols, off, salt, true);
            }
        }
    }
}

#[test]
fn zero_skip_leaves_rows_untouched_and_takes_nan_and_inf() {
    // Not a cross-level comparison but the contract itself, at every
    // level: a `±0.0` coefficient must not touch its row (no `-0.0` →
    // `+0.0`, no `0·inf` → NaN), and NaN / ±inf are not zeros.
    let v = [1.0f32, f32::INFINITY, -2.0];
    for level in simd::supported_levels() {
        at(level, || {
            let mut w = vec![-0.0f32; SKIP_PROBES.len() * v.len()];
            simd::rank1_update(&mut w, 1.0, &SKIP_PROBES, &v);
            for row in w[..2 * v.len()].chunks(v.len()) {
                assert!(row.iter().all(|e| e.to_bits() == (-0.0f32).to_bits()));
            }
            assert!(w[2 * v.len()..3 * v.len()].iter().all(|e| e.is_nan()));
            assert_eq!(w[3 * v.len()], f32::INFINITY);
            assert_eq!(w[4 * v.len()], f32::NEG_INFINITY);

            // gemv_t_acc: only the two zero rows hold inf, so skipping
            // them is what keeps `y` finite.
            let mut m = vec![1.0f32; 3 * v.len()];
            m[1] = f32::INFINITY;
            m[v.len() + 2] = f32::NEG_INFINITY;
            let mut y = vec![-0.0f32; v.len()];
            simd::gemv_t_acc(&mut y, &[0.0, -0.0, 2.0], &m);
            assert_eq!(y, [2.0, 2.0, 2.0]);
            let mut y = vec![-0.0f32; v.len()];
            simd::gemv_t_acc(&mut y, &[0.0, -0.0, 0.0], &m);
            assert!(y.iter().all(|e| e.to_bits() == (-0.0f32).to_bits()));
        });
    }
}

/// Step counts of the sequence sweep: none, one (the per-step call
/// itself), two, one full six-step register block of the AVX2 bodies,
/// and the uneven 4 + 3 and 5 + 4 + 4 splits.
const STEPS: [usize; 6] = [0, 1, 2, 6, 7, 13];

/// One case of the two row-major sequence kernels at every supported
/// level against `t` calls of the per-step kernel at `Scalar`, bit for
/// bit. `w` is `rows × cols`; `xc` (`t × cols`) is the update's `v`
/// slab; `xr` (`t × rows`) holds the per-`(step, row)`
/// coefficients the zero-skip looks at. With `special`, the first, a
/// middle and the last step's coefficients cycle through
/// [`SKIP_PROBES`] — so does one whole row, at every step — and the
/// payloads carry `-0.0` and `inf`.
fn assert_sequence_kernels_identical(
    (rows, cols, t): (usize, usize, usize),
    off: usize,
    salt: u32,
    special: bool,
) {
    let mut w = tail(rows * cols, off, salt);
    let mut xc = tail(t * cols, off, salt.wrapping_add(1));
    let mut xr = tail(t * rows, off, salt.wrapping_add(2));
    let mut yc = tail(t * cols, off, salt.wrapping_add(4));
    if special {
        for s in [0, t / 2, t.saturating_sub(1)] {
            for (i, v) in xr[off..].iter_mut().skip(s * rows).take(rows).enumerate() {
                if (i + salt as usize) % 3 != 2 {
                    *v = SKIP_PROBES[(i + s + salt as usize) % SKIP_PROBES.len()];
                }
            }
        }
        // One row whose coefficient is a zero at *every* step.
        if rows > 0 {
            let r = salt as usize % rows;
            for s in 0..t {
                xr[off + s * rows + r] = if s % 2 == 0 { 0.0 } else { -0.0 };
            }
        }
        for buf in [&mut w, &mut xc, &mut yc] {
            for (i, v) in buf[off..].iter_mut().enumerate() {
                match (i + salt as usize) % 11 {
                    3 => *v = -0.0,
                    7 => *v = f32::INFINITY,
                    _ => {}
                }
            }
        }
    }
    let (w, xc, xr) = (&w[off..], &xc[off..], &xr[off..]);
    // What each kernel is defined as: the per-step kernel, step by step.
    let want = at(Level::Scalar, || {
        let mut gemv_t = yc.clone();
        let (mut up, mut down) = (w.to_vec(), w.to_vec());
        for s in 0..t {
            let (x, u) = (&xc[s * cols..][..cols], &xr[s * rows..][..rows]);
            simd::gemv_t_acc(&mut gemv_t[off + s * cols..][..cols], u, w);
            simd::rank1_update(&mut up, -0.75, u, x);
            let z = t - 1 - s;
            let (x, u) = (&xc[z * cols..][..cols], &xr[z * rows..][..rows]);
            simd::rank1_update(&mut down, -0.75, u, x);
        }
        (gemv_t, up, down)
    });
    for level in simd::supported_levels() {
        let got = at(level, || {
            let mut gemv_t = yc.clone();
            simd::gemv_t_acc_seq(&mut gemv_t[off..], xr, w, t);
            // The update runs on a slice that ends at its allocation's
            // end too.
            let mut up = w.to_vec().into_boxed_slice();
            let mut down = up.clone();
            simd::rank1_update_seq(&mut up, -0.75, xr, xc, t, false);
            simd::rank1_update_seq(&mut down, -0.75, xr, xc, t, true);
            (gemv_t, up.into_vec(), down.into_vec())
        });
        let case = format!("{rows}x{cols} t={t} off={off} salt={salt} special={special}");
        assert_bits_eq(&format!("gemv_t_acc_seq {case}"), level, &got.0, &want.0);
        assert_bits_eq(
            &format!("rank1_update_seq asc {case}"),
            level,
            &got.1,
            &want.1,
        );
        assert_bits_eq(
            &format!("rank1_update_seq desc {case}"),
            level,
            &got.2,
            &want.2,
        );
    }
}

#[test]
fn sequence_kernels_are_t_per_step_calls_for_every_shape_to_41() {
    for rows in 0..=41 {
        for cols in 0..=41 {
            for t in STEPS {
                let salt = ((rows * 42 + cols) * 14 + t) as u32;
                assert_sequence_kernels_identical((rows, cols, t), (rows + t) % 2, salt, false);
            }
        }
    }
}

/// Column counts that reach what `0..=41` does not in the 16-lane
/// bodies: a third and fourth `zmm` in a column tile (47–49, 63–65), the
/// 64-wide tile alone (64) and followed by a masked tile (65, 80, 96, 97,
/// 129).
const WIDE_COLS: [usize; 10] = [47, 48, 49, 63, 64, 65, 80, 96, 97, 129];

/// Row counts around the four-row blocks of the update, up to the
/// `hx-train` output layer (1017 = 254·4 + 1).
const WIDE_ROWS: [usize; 6] = [15, 16, 17, 33, 63, 1017];

#[test]
fn sequence_kernels_are_t_per_step_calls_at_the_16_lane_tiles() {
    for rows in WIDE_ROWS {
        for cols in WIDE_COLS {
            for t in STEPS {
                for special in [false, true] {
                    let salt = ((rows * 130 + cols) * 14 + t) as u32;
                    let off = (rows + cols + t) % 2;
                    assert_sequence_kernels_identical((rows, cols, t), off, salt, special);
                }
            }
        }
    }
}

#[test]
fn sequence_kernels_honor_the_zero_skip_at_first_middle_and_last_step() {
    for (rows, cols) in [
        (1usize, 1usize),
        (5, 3),
        (8, 8),
        (13, 9),
        (32, 32),
        (41, 17),
        (9, 40),
    ] {
        for t in STEPS {
            for off in [0usize, 1] {
                for salt in 0..5 {
                    assert_sequence_kernels_identical((rows, cols, t), off, salt, true);
                }
            }
        }
    }
}

#[test]
fn sequenced_update_never_writes_a_row_skipped_at_every_step() {
    // One row's coefficient is a zero at every step: whatever sits in it
    // — `-0.0`, `inf`, a NaN with a payload no arithmetic produces — must
    // come back bit for bit, while its neighbours take all seven terms.
    // Row 1 of 3 at 43 columns (a 32-tile, an 8-tile and a 3-float tail
    // at AVX2), and row 2 of a four-row block at 80 columns (a 64-wide
    // tile and a masked one at AVX-512).
    let t = 7;
    let odd = [-0.0f32, f32::INFINITY, f32::from_bits(0x7fa1_2345)];
    for (rows, skipped, cols) in [(3usize, 1usize, 43usize), (4, 2, 80)] {
        for level in simd::supported_levels() {
            for descending in [false, true] {
                at(level, || {
                    let mut w: Vec<f32> = (0..rows * cols).map(|i| odd[i % 3]).collect();
                    let before: Vec<u32> = w.iter().map(|v| v.to_bits()).collect();
                    let us: Vec<f32> = (0..t * rows)
                        .map(|i| match (i / rows, i % rows) {
                            (s, r) if r == skipped => [0.0, -0.0][s % 2],
                            (_, r) => 1.0 + r as f32,
                        })
                        .collect();
                    let vs = vec![f32::INFINITY; t * cols];
                    simd::rank1_update_seq(&mut w, 1.0, &us, &vs, t, descending);
                    let after: Vec<u32> = w.iter().map(|v| v.to_bits()).collect();
                    let row = skipped * cols..(skipped + 1) * cols;
                    let case = format!("{level:?} {rows}x{cols} desc={descending}");
                    assert_eq!(after[row.clone()], before[row], "{case}");
                    for (i, v) in w.iter().enumerate().filter(|(i, _)| i / cols != skipped) {
                        // -0 + inf and inf + inf are inf; NaN stays NaN.
                        assert!(*v == f32::INFINITY || i % 3 == 2, "{case} [{i}] = {v}");
                    }
                });
            }
        }
    }
}

/// The scatter coefficients of the sweep: an ordinary one, both zeros,
/// a subnormal and `∞` (with the payload's exact zeros, `∞ · 0` = NaN).
const SCATTER_COEFFS: [f32; 5] = [-0.75, 0.0, -0.0, 1.0e-40, f32::INFINITY];

/// One `scatter_add_scaled` case: `n` strictly ascending indices from 0
/// (so `acc[0]` is hit) with `gap(j)` before index `j`, into an
/// accumulator that ends at the last index (so `acc[len − 1]` is hit),
/// every buffer an `off`-offset slice ending at its allocation's end.
/// Every level must reproduce the scalar definition bit for bit.
fn assert_scatter_identical(n: usize, off: usize, gap: &dyn Fn(usize) -> u32, salt: u32) {
    let mut idx = vec![0u32; off + n].into_boxed_slice();
    for j in 1..n {
        idx[off + j] = idx[off + j - 1] + gap(j);
    }
    let len = if n == 0 {
        0
    } else {
        idx[off + n - 1] as usize + 1
    };
    let x = tail(n, off, salt);
    for a in SCATTER_COEFFS {
        let mut want = tail(len, off, salt.wrapping_add(1));
        for (&d, &v) in idx[off..].iter().zip(&x[off..]) {
            want[off + d as usize] += a * v;
        }
        for level in simd::supported_levels() {
            let mut acc = tail(len, off, salt.wrapping_add(1));
            at(level, || {
                simd::scatter_add_scaled(&mut acc[off..], &idx[off..], &x[off..], a)
            });
            assert_bits_eq(
                &format!("scatter_add_scaled n={n} off={off} salt={salt} a={a:e}"),
                level,
                &acc,
                &want,
            );
        }
    }
}

#[test]
fn scatter_add_scaled_identical_for_every_length_to_41_at_the_allocation_end() {
    let gaps: [&dyn Fn(usize) -> u32; 3] =
        [&|_| 1, &|_| 1000, &|j| if j % 5 == 2 { 1000 } else { 1 }];
    for n in 0..=41 {
        for off in [0usize, 1] {
            for (g, gap) in gaps.iter().enumerate() {
                assert_scatter_identical(n, off, gap, (n * 6 + off * 3 + g) as u32);
            }
        }
    }
}

#[test]
fn scatter_add_scaled_panics_before_storing_a_bad_vector() {
    // Index list of 24 (three vectors), broken inside the second: a
    // repeated index, one past the end, one below its predecessor at the
    // lane boundary. Every level panics; the AVX2 body has then stored
    // exactly the first vector, the scalar loop everything before the
    // bad index.
    let good: Vec<u32> = (0..24).map(|i| 2 * i + 1).collect();
    let len = 48;
    let x = vec![1.0f32; good.len()];
    for (bad_at, bad) in [(11usize, 21u32), (13, 48), (8, 14)] {
        let mut idx = good.clone();
        idx[bad_at] = bad;
        for level in simd::supported_levels() {
            let mut acc = vec![0.0f32; len];
            let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                at(level, || simd::scatter_add_scaled(&mut acc, &idx, &x, 1.0))
            }));
            let msg = unwound.expect_err("a broken index list must panic");
            let msg = msg.downcast_ref::<String>().expect("formatted message");
            assert!(msg.contains("strictly ascending"), "{level:?}: {msg}");
            let stored = if level == Level::Scalar { bad_at } else { 8 };
            for (d, &v) in acc.iter().enumerate() {
                let want = idx[..stored].contains(&(d as u32)) as u8 as f32;
                assert_eq!(v, want, "{level:?} bad_at={bad_at} acc[{d}]");
            }
        }
    }
}

#[test]
fn take_mask_above_identical_for_every_length_to_64_at_the_allocation_end() {
    for n in 0..=64 {
        for off in [0usize, 1] {
            let mut src0 = tail(n, off, n as u32);
            for (i, v) in src0[off..].iter_mut().enumerate() {
                match i % 7 {
                    1 => *v = -0.0,
                    4 => *v = NAN,
                    _ => {}
                }
            }
            for floor in [0.0f32, 1.0, -2.0] {
                let mut want = 0u64;
                for (i, &v) in src0[off..].iter().enumerate() {
                    want |= u64::from(v > floor) << i;
                }
                for level in simd::supported_levels() {
                    let mut src = src0.clone();
                    let mut dst = tail(n, off, 99);
                    let mask = at(level, || {
                        simd::take_mask_above(&mut src[off..], &mut dst[off..], floor)
                    });
                    let case = format!("take_mask_above n={n} off={off} floor={floor}");
                    assert_eq!(mask, want, "{case} @ {level:?}");
                    assert_bits_eq(&case, level, &dst[off..], &src0[off..]);
                    assert_bits_eq(&case, level, &src[off..], &vec![0.0; n]);
                }
            }
        }
    }
}

/// The four `libm` slice kernels on one input, as bits: sigmoid, tanh,
/// the shifted exponentials, and the two sums.
fn libm_kernels(x: &[f32], m: f32) -> (Vec<f32>, Vec<f32>, Vec<f32>, [f32; 2]) {
    let mut sig = x.to_vec();
    libm::sigmoid_inplace(&mut sig);
    let mut tanh = x.to_vec();
    libm::tanh_inplace(&mut tanh);
    let mut exp = x.to_vec();
    let sum = libm::exp_shifted_inplace(&mut exp, m);
    (sig, tanh, exp, [sum, libm::sum_exp_shifted(x, m)])
}

#[test]
fn libm_slice_kernels_identical_for_every_length_to_41_at_the_allocation_end() {
    // The padded tail must read and write nothing outside the slice:
    // every slice here ends where its exact-size allocation ends, at an
    // aligned and an unaligned start. Pad lanes are computed and
    // discarded — a summed pad lane would show in the sums.
    for n in 0..=41 {
        for off in [0usize, 1] {
            let buf = tail(n, off, n as u32 * 2 + off as u32);
            let x = &buf[off..];
            let want = at(Level::Scalar, || libm_kernels(x, 1.25));
            let mut chain = 0.0f32;
            for &e in &want.2 {
                chain += e;
            }
            assert_eq!(
                want.3[0].to_bits(),
                chain.to_bits(),
                "n={n}: ascending chain"
            );
            for level in simd::supported_levels() {
                let got = at(level, || libm_kernels(x, 1.25));
                let case = format!("n={n} off={off}");
                assert_bits_eq(&format!("sigmoid_inplace {case}"), level, &got.0, &want.0);
                assert_bits_eq(&format!("tanh_inplace {case}"), level, &got.1, &want.1);
                assert_bits_eq(
                    &format!("exp_shifted_inplace {case}"),
                    level,
                    &got.2,
                    &want.2,
                );
                assert_bits_eq(&format!("exp sums {case}"), level, &got.3, &want.3);
            }
        }
    }
}

/// `ops::softmax_inplace` as the loop it replaced, written out once.
fn softmax_reference(x: &mut [f32]) -> (f32, f32) {
    let n = x.len();
    let m = x.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
    let mut sum = 0.0f32;
    for v in x.iter_mut() {
        let e = libm::expf(*v - m);
        sum += e;
        *v = e;
    }
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

#[test]
fn softmax_inplace_keeps_the_loops_bits_on_degenerate_inputs() {
    for n in [1usize, 3, 4, 5, 8, 9, 17] {
        let ordinary = data(n, n as u32);
        let mut cases = vec![ordinary.clone(), vec![f32::NEG_INFINITY; n]];
        for (special, at_index) in [
            (f32::INFINITY, n / 2),
            (NAN, n - 1),
            (-200.0, 0), // e^(−200 − m) underflows to 0
        ] {
            let mut x = ordinary.clone();
            x[at_index] = special;
            cases.push(x);
        }
        for x in cases {
            let mut want = x.clone();
            let (m, sum) = softmax_reference(&mut want);
            for level in simd::supported_levels() {
                let mut got = x.clone();
                let (gm, gsum) = at(level, || ops::softmax_inplace(&mut got));
                assert_bits_eq(&format!("softmax {x:?}"), level, &got, &want);
                assert_bits_eq(
                    &format!("softmax (m, Σ) {x:?}"),
                    level,
                    &[gm, gsum],
                    &[m, sum],
                );
            }
        }
    }
}

#[test]
fn log_sum_exp_is_placement_independent_at_serving_and_training_widths() {
    // |V| = 188 (serving) and 1,017 (training), with the maximum first,
    // last and repeated: the shift is the same, the chain is ascending.
    for n in [188usize, 1017] {
        let base: Vec<f32> = data(n, 31).iter().map(|v| v.min(9.0)).collect();
        for peaks in [vec![0], vec![n - 1], vec![0, n / 2, n - 1]] {
            let mut x = base.clone();
            for &p in &peaks {
                x[p] = 11.5;
            }
            let mut chain = 0.0f32;
            for &v in &x {
                chain += libm::expf(v - 11.5);
            }
            let want = 11.5 + chain.ln();
            for level in simd::supported_levels() {
                let got = at(level, || ops::log_sum_exp_slice(&x));
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "n={n} peaks={peaks:?} @ {level:?}"
                );
            }
        }
    }
}

/// In-process SIMD==scalar agreement at the *active* level — the same
/// assertion the scalar-fallback CI leg relies on: under
/// `NCL_FORCE_SCALAR=1` the active level is `Scalar` and this still holds
/// (trivially), while on AVX2 runners it exercises the wide path.
#[test]
fn active_level_agrees_with_scalar_reference() {
    let x = data(257, 11);
    let mut y_active = data(257, 12);
    let mut y_scalar = y_active.clone();
    simd::saxpy(&mut y_active, 2.5, &x);
    at(Level::Scalar, || simd::saxpy(&mut y_scalar, 2.5, &x));
    assert_bits_eq(
        "active-vs-scalar saxpy",
        simd::active(),
        &y_active,
        &y_scalar,
    );
}

mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Random lengths, offsets and payloads: saxpy stays bitwise
        /// identical to the scalar reference at every supported level.
        #[test]
        fn saxpy_random_bitwise(n in 0usize..300, off in 0usize..2,
                                alpha in -4.0f32..4.0, salt in 0u32..1000) {
            let xbuf = data(n + 1, salt);
            let ybuf = data(n + 1, salt.wrapping_add(1));
            let x = &xbuf[off..off + n];
            let y0 = &ybuf[off..off + n];
            let want = at(Level::Scalar, || {
                let mut y = y0.to_vec();
                simd::saxpy(&mut y, alpha, x);
                y
            });
            for level in simd::supported_levels() {
                let got = at(level, || {
                    let mut y = y0.to_vec();
                    simd::saxpy(&mut y, alpha, x);
                    y
                });
                for (g, w) in got.iter().zip(want.iter()) {
                    prop_assert_eq!(g.to_bits(), w.to_bits());
                }
            }
        }

        /// Random shapes: the column-major GEMV accumulator stays bitwise
        /// identical to the scalar reference at every supported level.
        #[test]
        fn colmajor_gemv_random_bitwise(in_dim in 0usize..40, out_dim in 0usize..80,
                                        salt in 0u32..1000) {
            let x = data(in_dim, salt);
            let wt = data(in_dim * out_dim, salt.wrapping_add(2));
            let y0 = data(out_dim, salt.wrapping_add(3));
            let want = at(Level::Scalar, || {
                let mut y = y0.clone();
                simd::colmajor_gemv_acc(&mut y, &x, &wt);
                y
            });
            for level in simd::supported_levels() {
                let got = at(level, || {
                    let mut y = y0.clone();
                    simd::colmajor_gemv_acc(&mut y, &x, &wt);
                    y
                });
                for (g, w) in got.iter().zip(want.iter()) {
                    prop_assert_eq!(g.to_bits(), w.to_bits());
                }
            }
        }

        /// Random shapes over the whole `0..=41` square (zero rows, zero
        /// cols, every `% 8` tail), random start offset, plain and
        /// special-valued payloads: the three row-major training kernels
        /// stay bitwise identical to the scalar reference.
        #[test]
        fn rowmajor_kernels_random_bitwise(rows in 0usize..=41, cols in 0usize..=41,
                                           off in 0usize..2, salt in 0u32..1000,
                                           special in 0u8..2) {
            assert_rowmajor_kernels_identical(rows, cols, off, salt, special == 1);
        }

        /// Random shapes over the same square, random step count up to
        /// 13, offset and payloads: each sequence kernel stays the `t`
        /// per-step calls it is defined as.
        #[test]
        fn sequence_kernels_random_bitwise(rows in 0usize..=41, cols in 0usize..=41,
                                           t in 0usize..=13, off in 0usize..2,
                                           salt in 0u32..1000, special in 0u8..2) {
            assert_sequence_kernels_identical((rows, cols, t), off, salt, special == 1);
        }

        /// Random lengths, gaps up to 1,000, offsets and payloads: the
        /// scatter stays the scalar definition at every level.
        #[test]
        fn scatter_add_scaled_random_bitwise(n in 0usize..200, off in 0usize..2,
                                             max_gap in 1u32..1000, salt in 0u32..1000) {
            let gap = move |j: usize| 1 + (j as u32).wrapping_mul(2_654_435_761) % max_gap;
            assert_scatter_identical(n, off, &gap, salt);
        }

        /// Random inputs: `max` stays bitwise identical across levels.
        #[test]
        fn max_random_bitwise(n in 1usize..300, salt in 0u32..1000) {
            let x = data(n, salt);
            let want = at(Level::Scalar, || simd::max(&x));
            for level in simd::supported_levels() {
                let got = at(level, || simd::max(&x));
                prop_assert_eq!(got.to_bits(), want.to_bits());
            }
        }

        /// Random payloads: bf16 narrow/widen stay bitwise identical to
        /// the scalar reference at every level, and the round trip stays
        /// within the 2^-8 relative bound of 8-bit-mantissa rounding.
        #[test]
        fn bf16_random_bitwise(n in 0usize..300, off in 0usize..2, salt in 0u32..1000) {
            let buf = data(n + 1, salt);
            let x = &buf[off..off + n];
            let q_ref = at(Level::Scalar, || {
                let mut q = vec![0u16; n];
                simd::narrow_bf16(&mut q, x);
                q
            });
            for level in simd::supported_levels() {
                let (q, w) = at(level, || {
                    let mut q = vec![0u16; n];
                    simd::narrow_bf16(&mut q, x);
                    let mut w = vec![0.0f32; n];
                    simd::widen_bf16(&mut w, &q_ref);
                    (q, w)
                });
                prop_assert_eq!(&q, &q_ref);
                for (&orig, &rt) in x.iter().zip(&w) {
                    prop_assert!((rt - orig).abs() <= orig.abs() / 256.0 + f32::MIN_POSITIVE);
                }
            }
        }
    }
}
