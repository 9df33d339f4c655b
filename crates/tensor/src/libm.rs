//! The repo's own `exp` and `tanh`: one definition each, scalar and
//! lane-generic (eight and sixteen lanes wide), behind every sigmoid /
//! tanh / softmax in the workspace.
//!
//! # Why these are not calls into the platform's libm
//!
//! Every pinned score digest and the training snapshot were recorded
//! through glibc 2.36 on x86-64 with FMA. On that platform `expf` and
//! `tanhf` are two short, fully specified algorithms in which every step
//! is one correctly rounded IEEE-754 operation — so the same steps
//! written here return the same bits, and the same steps executed in
//! eight independent AVX2 lanes (or sixteen AVX-512 lanes) return them
//! eight (or sixteen) at a time. "Exact" does not require *calling*
//! libm, only *being* it. What the platform runs (`objdump -d
//! /lib/x86_64-linux-gnu/libm.so.6`, Debian glibc 2.36-9):
//!
//! * `expf` is an ifunc; its FMA body sits at `0x72ba0` with the 2^(i/32)
//!   table at `.rodata` `0xadd40`: one widen to `f64`, five fused
//!   multiply-adds, one subtract, two multiplies, a table add and one
//!   narrowing convert. The f64 FMAs are the function's **definition**
//!   (they are what that build executes), not a fused reduction — fusing
//!   the terms of a dot product stays forbidden ([`crate::simd`]).
//! * `tanhf` (`0x40ee0`) is fdlibm's `s_tanhf.c` over `s_expm1f.c`
//!   (`0x40260`): plain `mulss` / `addss` / `subss` / `divss`, no ifunc,
//!   no FMA.
//!
//! `logf` stays the platform's — it is the one libm function library
//! code still calls (47 times per request, in the log-sum-exp).
//!
//! A host whose libm is a different algorithm gets *these* bits, not its
//! own: the committed table in `tests/libm_identity.rs` pins them, and
//! the `#[ignore]`d tiers there compare the lane forms with the scalar
//! definitions, and the scalar definitions with the platform, on all 2³²
//! inputs.
//!
//! # Lane forms
//!
//! Each lane form is written once, over [`crate::simd`]'s lane-generic
//! register (`__m256` for eight AVX2 lanes, `__m512` for sixteen
//! AVX-512F lanes), and runs with FMA enabled. Every lane executes the
//! scalar sequence; branches become selects of arms that are all
//! computed (every arm is total and no floating-point trap is unmasked,
//! so an arm computed on a lane that does not select it is harmless). A
//! register holding a lane that needs a scalar-only arm (`|x| ≥ 88` or
//! NaN for `exp`; inf or NaN for `tanh`) goes through the scalar
//! definition whole. A tail shorter than a register is one masked load
//! into a padded register and one masked store (or, for the sums, the
//! live lanes added one by one): nothing outside the slice is read or
//! written, and pad lanes are computed and discarded, never summed. The
//! one part each width keeps for itself is `exp`'s core: it runs as
//! two `f64` halves with the same five FMAs and a 64-bit gather into
//! the same table.
//!
//! # Dispatch
//!
//! The slice kernels take the eight-lane forms at
//! [`crate::simd::Level::Avx2`] when the CPU also reports FMA (a
//! detected property of that level, not another one), and
//! `sigmoid_inplace` / `tanh_inplace` take the sixteen-lane forms at
//! [`crate::simd::Level::Avx512`] (whose detection includes FMA) on
//! slices of sixteen or more; shorter slices there, and the
//! exponential sums at any length (their scalar add chain is the bound),
//! take the eight-lane forms. Otherwise the kernels loop the scalar
//! definition. The scalar [`expf`] itself runs through a
//! `#[target_feature(enable = "fma")]` twin where
//! the CPU has FMA, so one call costs what libm's does; elsewhere
//! `f64::mul_add` falls back to a software fused multiply-add, which is
//! slower and — being correctly rounded by definition — returns the same
//! bits.
//!
//! # Provenance
//!
//! Written from the algorithms, with the addresses above as the record
//! of what the platform runs.
//!
//! `expf`: the algorithm and the table are those of the ARM Optimized
//! Routines `expf` (Copyright (c) 2017-2018, Arm Limited; MIT licence),
//! which glibc adopted in 2.27.
//!
//! `tanhf` / `expm1f`: fdlibm's `s_tanhf.c` and `s_expm1f.c`
//! (conversion to float by Ian Lance Taylor, Cygnus Support), under
//! fdlibm's notice:
//!
//! ```text
//! ====================================================
//! Copyright (C) 1993 by Sun Microsystems, Inc. All rights reserved.
//!
//! Developed at SunPro, a Sun Microsystems, Inc. business.
//! Permission to use, copy, modify, and distribute this
//! software is freely granted, provided that this notice
//! is preserved.
//! ====================================================
//! ```

#[cfg(target_arch = "x86_64")]
use crate::simd::{active, Level};
#[cfg(target_arch = "x86_64")]
use std::arch::x86_64::{__m256, __m512};

// ---------------------------------------------------------------------------
// expf: ARM Optimized Routines, N = 32, as glibc's FMA build executes it.
// ---------------------------------------------------------------------------

/// `32 / ln 2`.
pub(crate) const EXP_A: f64 = f64::from_bits(0x4047_1547_652b_82fe);
/// `1.5 · 2⁵²`: adding it leaves `round(z)` in the low mantissa bits.
pub(crate) const EXP_S: f64 = f64::from_bits(0x4338_0000_0000_0000);
pub(crate) const EXP_C0: f64 = f64::from_bits(0x3ebc_6af8_4b91_2394);
pub(crate) const EXP_C1: f64 = f64::from_bits(0x3f2e_bfce_50fa_c4f3);
pub(crate) const EXP_C2: f64 = f64::from_bits(0x3f96_2e42_ff0c_52d6);
/// `bits(2^(i/32)) − (i << 47)`, so that adding `k << 47` both selects
/// the fraction and adds `k / 32` to the exponent.
pub(crate) static EXP_T: [u64; 32] = [
    0x3ff0_0000_0000_0000,
    0x3fef_d9b0_d315_8574,
    0x3fef_b558_6cf9_890f,
    0x3fef_9301_d012_5b51,
    0x3fef_72b8_3c7d_517b,
    0x3fef_5487_3168_b9aa,
    0x3fef_387a_6e75_6238,
    0x3fef_1e9d_f51f_dee1,
    0x3fef_06fe_0a31_b715,
    0x3fee_f1a7_373a_a9cb,
    0x3fee_dea6_4c12_3422,
    0x3fee_ce08_6061_892d,
    0x3fee_bfda_d536_2a27,
    0x3fee_b42b_569d_4f82,
    0x3fee_ab07_dd48_5429,
    0x3fee_a47e_b03a_5585,
    0x3fee_a09e_667f_3bcd,
    0x3fee_9f75_e8ec_5f74,
    0x3fee_a114_73eb_0187,
    0x3fee_a589_994c_ce13,
    0x3fee_ace5_422a_a0db,
    0x3fee_b737_b0cd_c5e5,
    0x3fee_c491_82a3_f090,
    0x3fee_d503_b23e_255d,
    0x3fee_e89f_995a_d3ad,
    0x3fee_ff76_f2fb_5e47,
    0x3fef_199b_dd85_529c,
    0x3fef_3720_dcef_9069,
    0x3fef_5818_dcfb_a487,
    0x3fef_7c97_337b_9b5f,
    0x3fef_a4af_a2a4_90da,
    0x3fef_d076_5b6e_4540,
];
/// Largest `abstop` (sign-less top 12 bits) the main path takes:
/// everything above is `|x| ≥ 88`, infinite or NaN.
const EXP_ABSTOP_MAX: u32 = 0x42a;

/// The operation sequence of `expf`. `#[inline(always)]` so that the
/// FMA twin compiles its `mul_add`s to instructions.
#[inline(always)]
fn expf_steps(x: f32) -> f32 {
    let abstop = (x.to_bits() >> 20) & 0x7ff;
    if abstop > EXP_ABSTOP_MAX {
        if x.to_bits() == 0xff80_0000 {
            return 0.0;
        }
        if abstop > 0x7f7 {
            return x + x;
        }
        if x > f32::from_bits(0x42b1_7217) {
            return f32::INFINITY; // 0x1p97f * 0x1p97f
        }
        if x < f32::from_bits(0xc2cf_f1b4) {
            return 0.0; // 0x1p-95f * 0x1p-95f
        }
        if x < f32::from_bits(0xc2ce_8ecf) {
            return f32::from_bits(1); // 0x1.4p-75f * 0x1.4p-75f
        }
    }
    let xd = f64::from(x);
    let z = EXP_A.mul_add(xd, EXP_S);
    let ki = z.to_bits();
    let kd = z - EXP_S;
    let r = EXP_A.mul_add(xd, -kd);
    let s = f64::from_bits(EXP_T[(ki & 31) as usize].wrapping_add(ki << 47));
    let p = r.mul_add(EXP_C0, EXP_C1);
    let q = r.mul_add(EXP_C2, 1.0);
    let y = p.mul_add(r * r, q);
    (y * s) as f32
}

/// # Safety
/// Requires FMA (callers check `is_x86_feature_detected!("fma")`).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "fma")]
unsafe fn expf_fma(x: f32) -> f32 {
    expf_steps(x)
}

/// Whether the lane forms can run: the CPU reports FMA (AVX2 is the
/// dispatch level's own condition).
#[cfg(target_arch = "x86_64")]
#[inline]
fn has_fma() -> bool {
    std::arch::is_x86_feature_detected!("fma")
}

/// `e^x`, bit-identical on every host to glibc 2.36's x86-64 FMA `expf`
/// (see the module docs).
#[inline]
pub fn expf(x: f32) -> f32 {
    #[cfg(target_arch = "x86_64")]
    if has_fma() {
        // SAFETY: FMA was just detected.
        return unsafe { expf_fma(x) };
    }
    expf_steps(x)
}

/// Logistic sigmoid `1 / (1 + e^{-x})`, never exponentiating a positive
/// argument. The argument of the exponential is `x ≥ 0 ? −x : x` — not
/// `−|x|`, which would flip a positive NaN's sign.
#[inline]
pub fn sigmoid(x: f32) -> f32 {
    if x >= 0.0 {
        1.0 / (1.0 + expf(-x))
    } else {
        let e = expf(x);
        e / (1.0 + e)
    }
}

// ---------------------------------------------------------------------------
// tanhf over expm1f: fdlibm, all f32, no FMA.
// ---------------------------------------------------------------------------

const LN2_HI: f32 = f32::from_bits(0x3f31_7180);
const LN2_LO: f32 = f32::from_bits(0x3717_f7d1);
const INV_LN2: f32 = f32::from_bits(0x3fb8_aa3b);
const Q1: f32 = f32::from_bits(0xbd08_8889);
const Q2: f32 = f32::from_bits(0x3ad0_0d01);
const Q3: f32 = f32::from_bits(0xb8a6_70cd);
const Q4: f32 = f32::from_bits(0x3686_7e54);
const Q5: f32 = f32::from_bits(0xb457_edbb);
/// `1.0e+30`.
const HUGE: f32 = f32::from_bits(0x7149_f2ca);
/// `1.0e-30`.
const TINY: f32 = f32::from_bits(0x0da2_4260);

/// `e^x − 1` (fdlibm `s_expm1f.c`).
#[inline]
fn expm1f(x: f32) -> f32 {
    let neg = x.to_bits() >> 31 != 0;
    let hx = x.to_bits() & 0x7fff_ffff;
    if hx >= 0x4195_b844 {
        // |x| ≥ 27 ln 2
        if hx >= 0x42b1_7218 {
            if hx > 0x7f80_0000 {
                return x + x;
            }
            if hx == 0x7f80_0000 {
                return if neg { -1.0 } else { x };
            }
            if x > f32::from_bits(0x42b1_7180) {
                return HUGE * HUGE;
            }
        }
        if neg {
            return TINY - 1.0;
        }
    }
    // Argument reduction: x = k ln 2 + (hi − lo), c the rounding error.
    let mut x = x;
    let (k, c);
    if hx > 0x3eb1_7218 {
        // |x| > 0.5 ln 2. (fdlibm forces k = ±1 below 1.5 ln 2 to skip
        // the conversion; the general form below returns the same k, hi
        // and lo there — checked on all 2³² inputs — so it is not kept.)
        k = (INV_LN2 * x + if neg { -0.5 } else { 0.5 }) as i32;
        let t = k as f32;
        let hi = x - t * LN2_HI; // t·ln2_hi is exact
        let lo = t * LN2_LO;
        x = hi - lo;
        c = (hi - x) - lo;
    } else if hx < 0x3300_0000 {
        // |x| < 2⁻²⁵
        let t = HUGE + x;
        return x - (t - (HUGE + x));
    } else {
        k = 0;
        c = 0.0;
    }
    let hfx = 0.5 * x;
    let hxs = x * hfx;
    let r1 = 1.0 + hxs * (Q1 + hxs * (Q2 + hxs * (Q3 + hxs * (Q4 + hxs * Q5))));
    let t = 3.0 - r1 * hfx;
    let e = hxs * ((r1 - t) / (6.0 - x * t));
    if k == 0 {
        return x - (x * e - hxs);
    }
    let e = (x * (e - c) - c) - hxs;
    if k == -1 {
        return 0.5 * (x - e) - 0.5;
    }
    if k == 1 {
        return if x < -0.25 {
            -2.0 * (e - (x + 0.5))
        } else {
            1.0 + 2.0 * (x - e)
        };
    }
    // Adds `k` to the exponent field of `y`.
    let scale = |y: f32| f32::from_bits((y.to_bits() as i32).wrapping_add(k << 23) as u32);
    if k <= -2 || k > 56 {
        return scale(1.0 - (e - x)) - 1.0;
    }
    if k < 23 {
        // 1 − 2⁻ᵏ
        let t = f32::from_bits((0x3f80_0000 - (0x0100_0000 >> k)) as u32);
        scale(t - (e - x))
    } else {
        // 2⁻ᵏ
        let t = f32::from_bits(((0x7f - k) << 23) as u32);
        scale((x - (e + t)) + 1.0)
    }
}

/// `tanh x`, bit-identical on every host to glibc 2.36's `tanhf`
/// (fdlibm `s_tanhf.c`; see the module docs).
#[inline]
pub fn tanhf(x: f32) -> f32 {
    let neg = x.to_bits() >> 31 != 0;
    let ix = x.to_bits() & 0x7fff_ffff;
    if ix > 0x7f7f_ffff {
        // ±inf → ±1, NaN → NaN.
        return if neg { 1.0 / x - 1.0 } else { 1.0 / x + 1.0 };
    }
    let z = if ix > 0x41af_ffff {
        1.0 - TINY // |x| ≥ 22
    } else {
        if ix == 0 {
            return x;
        }
        if ix <= 0x23ff_ffff {
            return x * (1.0 + x); // |x| < 2⁻⁵⁵
        }
        let ax = f32::from_bits(ix);
        if ix <= 0x3f7f_ffff {
            let t = expm1f(ax * -2.0);
            -t / (t + 2.0)
        } else {
            let t = expm1f(ax + ax);
            1.0 - 2.0 / (t + 2.0)
        }
    };
    if neg {
        -z
    } else {
        z
    }
}

// ---------------------------------------------------------------------------
// Slice kernels.
// ---------------------------------------------------------------------------

/// Below this many elements a slice takes the scalar definition even
/// where the lane forms could run: a padded register costs one full
/// vector however few lanes are live, which a handful of scalar calls
/// undercut. The one caller with slices this short is the serving
/// attention's softmax (≤ ~10 memory rows); measured on it, the two
/// cross between five and six elements (DESIGN.md §14).
#[cfg(target_arch = "x86_64")]
const MIN_LANE_LEN: usize = 6;

/// The widest lane form a slice of `len` elements can take on this
/// thread: [`Level::Avx512`] (sixteen lanes) from sixteen elements at
/// that level, [`Level::Avx2`] (eight lanes) from [`MIN_LANE_LEN`] at
/// either vector level when the CPU has FMA, else [`Level::Scalar`].
#[cfg(target_arch = "x86_64")]
#[inline]
fn lane_level(len: usize) -> Level {
    match active() {
        Level::Avx512 if len >= 16 => Level::Avx512,
        Level::Avx2 | Level::Avx512 if len >= MIN_LANE_LEN && has_fma() => Level::Avx2,
        _ => Level::Scalar,
    }
}

/// In-place [`sigmoid`] of every element, bit-identical to the scalar
/// loop at every level.
pub fn sigmoid_inplace(x: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    match lane_level(x.len()) {
        // SAFETY: `lane_level` verified AVX-512F and FMA (the level).
        Level::Avx512 => return unsafe { lanes::sigmoid_inplace::<__m512>(x) },
        // SAFETY: `lane_level` verified AVX2 (the level) and FMA.
        Level::Avx2 => return unsafe { lanes::sigmoid_inplace::<__m256>(x) },
        Level::Scalar => {}
    }
    for v in x {
        *v = sigmoid(*v);
    }
}

/// In-place [`tanhf`] of every element, bit-identical to the scalar
/// loop at every level.
pub fn tanh_inplace(x: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    match lane_level(x.len()) {
        // SAFETY: `lane_level` verified AVX-512F and FMA (the level).
        Level::Avx512 => return unsafe { lanes::tanh_inplace::<__m512>(x) },
        // SAFETY: `lane_level` verified AVX2 (the level) and FMA.
        Level::Avx2 => return unsafe { lanes::tanh_inplace::<__m256>(x) },
        Level::Scalar => {}
    }
    for v in x {
        *v = tanhf(*v);
    }
}

/// The quiet NaN an exponential sum returns once it meets a NaN.
const CANONICAL_NAN: f32 = f32::from_bits(0x7fc0_0000);

/// `sum`, or [`CANONICAL_NAN`] when it is a NaN — one check per
/// reduction. Which operand an add of two NaNs propagates, and so the
/// payload an add chain ends with, is the compiler's choice of operand
/// order; Rust does not specify it. The terms of an exponential sum
/// are `≥ 0`, so the chain ends NaN exactly when a term is NaN.
#[inline(always)]
fn canonical(sum: f32) -> f32 {
    if sum.is_nan() {
        CANONICAL_NAN
    } else {
        sum
    }
}

/// Replaces every `x[i]` by `e^{x[i] − m}` and returns their sum — the
/// exponential pass of a max-shifted softmax. The **sum is one scalar
/// add chain from `0.0` in ascending index** at every level (that order
/// is in the bits); only the exponentials go wide. A sum that meets a
/// NaN is the canonical quiet NaN `0x7fc0_0000`, at every level; the
/// terms written keep their own bits.
pub fn exp_shifted_inplace(x: &mut [f32], m: f32) -> f32 {
    #[cfg(target_arch = "x86_64")]
    if lane_level(x.len()) != Level::Scalar {
        // SAFETY: a vector `lane_level` means AVX2 and FMA were verified
        // (`Avx512`'s detection includes both); this kernel has no
        // sixteen-lane form.
        return unsafe { lanes::exp_shifted_inplace::<__m256>(x, m) };
    }
    let mut sum = 0.0f32;
    for v in x {
        *v = expf(*v - m);
        sum += *v;
    }
    canonical(sum)
}

/// `Σ_i e^{x[i] − m}` without writing the terms — the exponential pass
/// of a log-sum-exp. Same scalar ascending add chain and NaN rule as
/// [`exp_shifted_inplace`], so the two agree to the bit.
pub fn sum_exp_shifted(x: &[f32], m: f32) -> f32 {
    #[cfg(target_arch = "x86_64")]
    if lane_level(x.len()) != Level::Scalar {
        // SAFETY: a vector `lane_level` means AVX2 and FMA were verified
        // (`Avx512`'s detection includes both); this kernel has no
        // sixteen-lane form.
        return unsafe { lanes::sum_exp_shifted::<__m256>(x, m) };
    }
    let mut sum = 0.0f32;
    for &v in x {
        sum += expf(v - m);
    }
    canonical(sum)
}

// ---------------------------------------------------------------------------
// Lane forms, written once over `simd::wide::Lanes`.
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod lanes {
    use super::*;
    use crate::simd::wide::{spill, Lanes};

    /// The sign bit of a lane.
    const SIGN: i32 = i32::MIN;

    // Every function below runs inside `Lanes::enable_fma` (the
    // `# Safety` of each: the width's features with FMA).

    /// Whether any lane of `x` needs a scalar-only arm of `expf`.
    #[inline(always)]
    unsafe fn exp_is_special<L: Lanes>(x: L) -> bool {
        let abstop = L::iand(L::shr::<20>(L::bits(x)), L::isplat(0x7ff));
        L::any(L::gt(abstop, L::isplat(EXP_ABSTOP_MAX as i32)))
    }

    /// The whole-register fallback: `f` applied lane by lane.
    #[inline(always)]
    unsafe fn per_lane<L: Lanes>(x: L, f: impl Fn(f32) -> f32) -> L {
        let mut lanes = spill(x);
        map_lanes(lanes.as_mut(), f);
        L::load(lanes.as_ref().as_ptr())
    }

    /// [`per_lane`]'s scalar loop, out of line: the fallback is rare, and
    /// inlined it would crowd the vector path's constants out of
    /// registers.
    #[cold]
    #[inline(never)]
    fn map_lanes(lanes: &mut [f32], f: impl Fn(f32) -> f32) {
        for v in lanes {
            *v = f(*v);
        }
    }

    /// `x` with the sign of every lane flipped.
    #[inline(always)]
    unsafe fn neg<L: Lanes>(x: L) -> L {
        L::from_bits(L::ixor(L::bits(x), L::isplat(SIGN)))
    }

    /// `e^{x − m}` in every lane.
    #[inline(always)]
    unsafe fn exp_shifted<L: Lanes>(x: L, m: f32) -> L {
        let shifted = L::sub(x, L::splat(m));
        if exp_is_special(shifted) {
            per_lane(x, |v| expf(v - m))
        } else {
            L::exp(shifted)
        }
    }

    /// [`sigmoid`] in every lane.
    #[inline(always)]
    unsafe fn sigmoid_lanes<L: Lanes>(x: L) -> L {
        let one = L::splat(1.0);
        // Ordered compare: a NaN lane takes the `x < 0` arm, as in the
        // scalar branch.
        let ge = L::ge(x, L::splat(0.0));
        let arg = L::select(ge, x, neg(x));
        if exp_is_special(arg) {
            return per_lane(x, sigmoid);
        }
        let e = L::exp(arg);
        let num = L::select(ge, e, one);
        L::div(num, L::add(one, e))
    }

    /// [`expm1f`] on the arguments [`tanhf`] passes it: `a` in
    /// `(−2, −2⁻⁵⁴] ∪ [2, 44)`, `abs_a` its magnitude, `neg` the lanes
    /// where `a < 0`. Only `k ∈ {0, −1, −2, −3}` and `3 ≤ k ≤ 63` occur
    /// there, so `k == 1` has no arm, and the `|a| < 2⁻²⁵` early return
    /// is the `k == 0` arm's own result. Lanes outside that domain hold
    /// garbage the caller never selects.
    #[inline(always)]
    unsafe fn expm1_lanes<L: Lanes>(a: L, abs_a: L, neg: L::Mask) -> L {
        let ps = |v: f32| L::splat(v);
        let epi = |v: i32| L::isplat(v);
        let one = ps(1.0);
        let half = ps(0.5);
        let hx = L::bits(abs_a);

        // k = trunc(a / ln 2 ± 0.5) where |a| > 0.5 ln 2, else 0.
        let signed_half = L::select(neg, half, ps(-0.5));
        let k = L::cvtt(L::add(L::mul(ps(INV_LN2), a), signed_half));
        let reduced = L::gt(hx, epi(0x3eb1_7218));
        let k = L::bits(L::select(reduced, ps(0.0), L::from_bits(k)));
        // With k = 0 the reduction is the identity: hi = a, lo = +0,
        // x = a, c = +0, and `(x·(e − c) − c) − hxs` is `x·e − hxs`.
        let t = L::cvt(k);
        let hi = L::sub(a, L::mul(t, ps(LN2_HI)));
        let lo = L::mul(t, ps(LN2_LO));
        let x = L::sub(hi, lo);
        let c = L::sub(L::sub(hi, x), lo);

        let hfx = L::mul(half, x);
        let hxs = L::mul(x, hfx);
        let mut r1 = L::mul(hxs, ps(Q5));
        for q in [Q4, Q3, Q2, Q1] {
            r1 = L::mul(hxs, L::add(ps(q), r1));
        }
        let r1 = L::add(one, r1);
        let t = L::sub(ps(3.0), L::mul(r1, hfx));
        let e = L::mul(hxs, L::div(L::sub(r1, t), L::sub(ps(6.0), L::mul(x, t))));
        let e = L::sub(L::sub(L::mul(x, L::sub(e, c)), c), hxs);

        // Adds k to an exponent field.
        let kshift = L::shl::<23>(k);
        let scale = |y: L| L::from_bits(L::iadd(L::bits(y), kshift));
        // k < 23: scale((1 − 2⁻ᵏ) − (e − x)); 23 ≤ k ≤ 56:
        // scale((x − (e + 2⁻ᵏ)) + 1); k ≤ −2 or k > 56:
        // scale(1 − (e − x)) − 1. A variable shift by a count outside
        // 0..32 gives 0, which makes the first minuend the last's.
        let minuend = L::from_bits(L::isub(epi(0x3f80_0000), L::srlv(epi(0x0100_0000), k)));
        let scaled = scale(L::sub(minuend, L::sub(e, x)));
        let two_mk = L::from_bits(L::shl::<23>(L::isub(epi(0x7f), k)));
        let mid = scale(L::add(L::sub(x, L::add(e, two_mk)), one));
        let res = L::select(L::gt(k, epi(22)), scaled, mid);
        let outer = L::sub(scaled, one);
        let res = L::select(L::gt(k, epi(56)), res, outer);
        let res = L::select(L::gt(epi(-1), k), res, outer);
        // k = −1: 0.5·(x − e) − 0.5.  k = 0: x − (x·e − hxs).
        let x_e = L::sub(x, e);
        let res = L::select(L::eq(k, epi(-1)), res, L::sub(L::mul(half, x_e), half));
        L::select(L::eq(k, epi(0)), res, x_e)
    }

    /// [`tanhf`] in every lane.
    #[inline(always)]
    unsafe fn tanh_lanes<L: Lanes>(x: L) -> L {
        let epi = |v: i32| L::isplat(v);
        let one = L::splat(1.0);
        let two = L::splat(2.0);
        let ix = L::iand(L::bits(x), epi(!SIGN));
        if L::any(L::gt(ix, epi(0x7f7f_ffff))) {
            // An inf or NaN lane: its arm divides by the input.
            return per_lane(x, tanhf);
        }
        let ax = L::from_bits(ix);
        // |x| < 1: t = expm1(−2|x|), z = −t / (t + 2).
        // otherwise: t = expm1(2|x|), z = 1 − 2 / (t + 2).
        let small = L::gt(epi(0x3f80_0000), ix);
        let abs_a = L::add(ax, ax);
        let t = expm1_lanes(L::select(small, abs_a, neg(abs_a)), abs_a, small);
        let num = L::select(small, two, neg(t));
        let q = L::div(num, L::add(t, two));
        let z = L::select(small, L::sub(one, q), q);
        // |x| ≥ 22: 1.
        let z = L::select(L::gt(ix, epi(0x41af_ffff)), z, one);
        let z = L::from_bits(L::ixor(L::bits(z), L::iand(L::bits(x), epi(SIGN))));
        // |x| < 2⁻⁵⁵: x·(1 + x), which is also ±0 for ±0.
        let tiny = L::gt(epi(0x2400_0000), ix);
        L::select(tiny, z, L::mul(x, L::add(one, x)))
    }

    /// `x[i] = f(x[i])`, a register at a time; the tail is one masked
    /// load and one masked store, so nothing outside the slice is read or
    /// written, and its pad lanes are `f(0)`, computed and discarded.
    #[inline(always)]
    unsafe fn map_inplace<L: Lanes>(x: &mut [f32], f: impl Fn(L) -> L) {
        let mut blocks = x.chunks_exact_mut(L::LANES);
        for b in &mut blocks {
            L::store(b.as_mut_ptr(), f(L::load(b.as_ptr())));
        }
        let tail = blocks.into_remainder();
        if !tail.is_empty() {
            let live = L::tail(tail.len());
            let p = tail.as_mut_ptr();
            L::store_masked(p, live, f(L::load_masked(live, p)));
        }
    }

    /// # Safety
    /// Requires `L`'s features and FMA (callers check [`lane_level`]).
    pub(super) unsafe fn sigmoid_inplace<L: Lanes>(x: &mut [f32]) {
        L::enable_fma(
            #[inline(always)]
            move || {
                map_inplace(
                    x,
                    #[inline(always)]
                    |v: L| sigmoid_lanes(v),
                )
            },
        )
    }

    /// # Safety
    /// Requires `L`'s features and FMA (callers check [`lane_level`]).
    pub(super) unsafe fn tanh_inplace<L: Lanes>(x: &mut [f32]) {
        L::enable_fma(
            #[inline(always)]
            move || {
                map_inplace(
                    x,
                    #[inline(always)]
                    |v: L| tanh_lanes(v),
                )
            },
        )
    }

    /// The lanes of `e` for the scalar add chain, read back from memory,
    /// so each `sum += v` takes a memory operand. Left in registers, the
    /// lanes are pulled out by shuffles instead, and an in-process A/B of
    /// the two forms read that one 4–8% slower at 32, 188 and 1,017
    /// terms (AVX-512 host, eight lanes). The bits are the same either
    /// way: a finite sum is the same chain, and a NaN one is canonical
    /// whichever operand the compiler put first.
    #[inline(always)]
    unsafe fn summands<L: Lanes>(e: L) -> L::Array {
        std::hint::black_box(spill(e))
    }

    /// The tail of an exp-sum slice in a register: pad lanes hold `m`,
    /// so they come out as e⁰ = 1 — never special, and never summed.
    #[inline(always)]
    unsafe fn load_tail_padded<L: Lanes>(tail: &[f32], m: f32) -> L {
        let live = L::tail(tail.len());
        L::select(live, L::splat(m), L::load_masked(live, tail.as_ptr()))
    }

    /// # Safety
    /// Requires `L`'s features and FMA (callers check [`lane_level`]).
    pub(super) unsafe fn exp_shifted_inplace<L: Lanes>(x: &mut [f32], m: f32) -> f32 {
        L::enable_fma(
            #[inline(always)]
            move || {
                let mut sum = 0.0f32;
                let mut blocks = x.chunks_exact_mut(L::LANES);
                for b in &mut blocks {
                    let e = exp_shifted(L::load(b.as_ptr()), m);
                    L::store(b.as_mut_ptr(), e);
                    for v in summands(e).as_ref() {
                        sum += v;
                    }
                }
                let tail = blocks.into_remainder();
                if !tail.is_empty() {
                    let e = summands(exp_shifted(load_tail_padded::<L>(tail, m), m));
                    for (t, &v) in tail.iter_mut().zip(e.as_ref()) {
                        *t = v;
                        sum += v;
                    }
                }
                canonical(sum)
            },
        )
    }

    /// # Safety
    /// Requires `L`'s features and FMA (callers check [`lane_level`]).
    pub(super) unsafe fn sum_exp_shifted<L: Lanes>(x: &[f32], m: f32) -> f32 {
        L::enable_fma(
            #[inline(always)]
            move || {
                let mut sum = 0.0f32;
                let mut blocks = x.chunks_exact(L::LANES);
                for b in &mut blocks {
                    for v in summands(exp_shifted(L::load(b.as_ptr()), m)).as_ref() {
                        sum += v;
                    }
                }
                let tail = blocks.remainder();
                if !tail.is_empty() {
                    let e = exp_shifted(load_tail_padded::<L>(tail, m), m);
                    for v in &summands(e).as_ref()[..tail.len()] {
                        sum += v;
                    }
                }
                canonical(sum)
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A small-shape twin of `tests/libm_identity.rs` that stays inside
    /// what Miri interprets (the scalar definitions are safe code): one
    /// input per branch of the three algorithms, against the bits the
    /// platform the pins were recorded on returns.
    #[test]
    fn scalar_definitions_reproduce_pinned_bits() {
        // [input, expf, tanhf, sigmoid]
        const PINS: &[[u32; 4]] = &[
            [0x0000_0000, 0x3f80_0000, 0x0000_0000, 0x3f00_0000], // 0
            [0x8000_0000, 0x3f80_0000, 0x8000_0000, 0x3f00_0000], // -0
            [0x7f80_0000, 0x7f80_0000, 0x3f80_0000, 0x3f80_0000], // inf
            [0xff80_0000, 0x0000_0000, 0xbf80_0000, 0x0000_0000], // -inf
            [0x7fa5_5aa5, 0x7fe5_5aa5, 0x7fe5_5aa5, 0x7fe5_5aa5], // NaN
            [0xffa5_5aa5, 0xffe5_5aa5, 0xffe5_5aa5, 0xffe5_5aa5], // -NaN
            [0x0000_0001, 0x3f80_0000, 0x0000_0001, 0x3f00_0000], // denormal
            [0x1e3c_e508, 0x3f80_0000, 0x1e3c_e508, 0x3f00_0000], // 1e-20
            [0x3280_0000, 0x3f80_0000, 0x3280_0000, 0x3f00_0000], // 2^-26
            [0x3dcc_cccd, 0x3f8d_763e, 0x3dcc_1ebc, 0x3f06_6509], // 0.1: k = 0
            [0xbe99_999a, 0x3f3d_a643, 0xbe95_26ed, 0x3ed9_e2ab], // -0.3: k = -1
            [0x3f05_1592, 0x3fd7_44fd, 0x3ef4_86f8, 0x3f20_8a9e], // 0.75 ln 2
            [0x3f33_3333, 0x4000_e153, 0x3f1a_b7d8, 0x3f2b_0e5a], // 0.7: k = -2
            [0xbf66_6666, 0x3ed0_29e6, 0xbf37_5f4c, 0x3e93_fe6d], // -0.9: k = -3
            [0x3f80_0000, 0x402d_f854, 0x3f42_f7d6, 0x3f3b_26a8], // 1: k = 3
            [0xc0a0_0000, 0x3bdc_c9ff, 0xbf7f_fa0d, 0x3bdb_4fb4], // -5: k < 23
            [0x4110_0000, 0x45fd_38ac, 0x3f7f_ffff, 0x3f7f_f7ea], // 9: k ≥ 23
            [0xc170_0000, 0x34a4_3ae5, 0xbf80_0000, 0x34a4_3ae1], // -15
            [0x41a4_0000, 0x4e3e_b628, 0x3f80_0000, 0x3f80_0000], // 20.5: k > 56
            [0x41f0_0000, 0x551b_8238, 0x3f80_0000, 0x3f80_0000], // 30: |x| ≥ 22
            [0xc2b1_0000, 0x0027_fce2, 0xbf80_0000, 0x0027_fce2], // -88.5
            [0x42b1_0000, 0x7f4c_dcc4, 0x3f80_0000, 0x3f80_0000], // 88.5
            [0x42b2_0000, 0x7f80_0000, 0x3f80_0000, 0x3f80_0000], // 89: overflow
            [0xc2cf_0000, 0x0000_0001, 0xbf80_0000, 0x0000_0001], // -103.5
            [0xc2d0_0000, 0x0000_0000, 0xbf80_0000, 0x0000_0000], // -104
            // The two inputs on which un-fusing `r` shows (libm_identity.rs).
            [0x4202_422f, 0x56fc_9f1c, 0x3f80_0000, 0x3f80_0000],
            [0xc27c_65d9, 0x11fa_2993, 0xbf80_0000, 0x11fa_2993],
        ];
        for &[x, exp, tanh, sig] in PINS {
            let v = f32::from_bits(x);
            assert_eq!(expf(v).to_bits(), exp, "expf({x:#010x})");
            assert_eq!(tanhf(v).to_bits(), tanh, "tanhf({x:#010x})");
            assert_eq!(sigmoid(v).to_bits(), sig, "sigmoid({x:#010x})");
        }
    }

    #[test]
    fn slice_kernels_loop_the_scalar_definition() {
        // Lengths on both sides of one register, specials included; at
        // whatever level the host (or Miri) dispatches to.
        let x: Vec<f32> = (0..19)
            .map(|i| match i {
                3 => f32::NAN,
                7 => -104.5,
                11 => f32::INFINITY,
                _ => (i as f32 - 9.0) * 0.61,
            })
            .collect();
        for n in [0, 1, 3, 4, 8, 9, 19] {
            let x = &x[..n];
            let mut v = x.to_vec();
            sigmoid_inplace(&mut v);
            assert!(v
                .iter()
                .zip(x)
                .all(|(g, &x)| g.to_bits() == sigmoid(x).to_bits()));
            let mut v = x.to_vec();
            tanh_inplace(&mut v);
            assert!(v
                .iter()
                .zip(x)
                .all(|(g, &x)| g.to_bits() == tanhf(x).to_bits()));
            let mut v = x.to_vec();
            let sum = exp_shifted_inplace(&mut v, 0.5);
            let mut want = 0.0f32;
            for (g, &x) in v.iter().zip(x) {
                assert_eq!(g.to_bits(), expf(x - 0.5).to_bits());
                want += *g;
            }
            assert_eq!(sum.to_bits(), want.to_bits());
            assert_eq!(sum_exp_shifted(x, 0.5).to_bits(), want.to_bits());
        }
    }

    /// `expm1f` is private, so its half of the conditional platform tier
    /// (`tests/libm_identity.rs`, Tier 3) lives here: all 2³² inputs
    /// against `f32::exp_m1`, asserted where a probe grid already agrees.
    #[test]
    #[ignore = "exhaustive: all 2^32 inputs, run in release"]
    fn exhaustive_expm1f_matches_platform() {
        let probe_agrees = (0..4096u32).all(|i| {
            let x = std::hint::black_box((i as f32 - 2048.0) / 64.0);
            expm1f(x).to_bits() == x.exp_m1().to_bits()
        });
        if !probe_agrees {
            println!("the platform's expm1f is another algorithm; nothing to assert");
            return;
        }
        let halves: Vec<u64> = std::thread::scope(|s| {
            let workers: Vec<_> = [0u32, 1 << 31]
                .into_iter()
                .map(|first| {
                    s.spawn(move || {
                        (0..1u32 << 31)
                            .filter(|i| {
                                let x = std::hint::black_box(f32::from_bits(first | i));
                                expm1f(x).to_bits() != x.exp_m1().to_bits()
                            })
                            .count() as u64
                    })
                })
                .collect();
            workers
                .into_iter()
                .map(|w| w.join().expect("exhaustive worker panicked"))
                .collect()
        });
        let bad: u64 = halves.iter().sum();
        println!("scalar expm1f vs platform, all 2^32 inputs: {bad} mismatches");
        assert_eq!(bad, 0);
    }
}
