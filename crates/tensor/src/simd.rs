//! Runtime-dispatched SIMD kernels (AVX2 / scalar).
//!
//! # The bit-identity contract
//!
//! Every *exact* kernel in this module produces output **bit-identical**
//! to its scalar reference at every dispatch level. The trick is to
//! vectorise **across independent outputs**, never across a reduction:
//!
//! * Element-wise kernels ([`saxpy`], [`add_assign`], [`scale`]) perform
//!   exactly one `mul`/`add` per element — the same operation the scalar
//!   loop performs, just eight lanes at a time.
//! * [`colmajor_gemv_acc`] computes `y[j] += Σ_k x[k]·wt[k][j]` with one
//!   fresh accumulator per output `j`, consuming `k` in ascending order
//!   with a separate multiply and add per term (never an FMA, which
//!   would skip the intermediate rounding). Each SIMD lane therefore
//!   executes the *same sequence of roundings* as the scalar dot
//!   product, so the lanes are bit-identical to scalar by construction.
//! * [`rowmajor_gemv_acc`] is the same recipe over a **row-major** `w`
//!   (the training path, whose weights change every step and so cannot
//!   keep a transposed copy): consecutive rows are the lanes, and the
//!   transpose that puts one `k` of eight rows into one register happens
//!   in registers, block by block.
//! * [`rank1_update`] and [`gemv_t_acc`] are per-row [`saxpy`]s with a
//!   bitwise-observable zero-skip, looped inside the dispatched function.
//! * [`max`] exploits that the maximum of finite floats is independent
//!   of association order.
//!
//! This is what lets the serving cache's "same score to the last bit"
//! guarantee, the golden serving snapshot, and the bit-identical
//! parallel-training losses survive vectorisation unchanged.
//!
//! The activation functions (`exp`, `tanh`, `sigmoid` over slices) are
//! the same idea applied to element-wise transcendental functions and
//! live in [`crate::libm`], which dispatches on this module's [`Level`].
//!
//! # Relaxed kernels
//!
//! The `*_relaxed` kernels ([`dot_relaxed`], [`sum_exp_relaxed`]) trade
//! the scalar reduction order for speed: partial sums are kept in a
//! **fixed virtual 8-lane layout** (element `i` belongs to lane
//! `i mod 8`) and combined in a fixed binary tree, and the exponential
//! is the polynomial [`exp_approx`] instead of libm. They are *not*
//! bit-equal to the exact kernels — but they are deterministic, and the
//! scalar fallback emulates the same 8 lanes, tree, and polynomial, so
//! a relaxed kernel returns the same bits at every dispatch level too.
//! Relaxed kernels only run behind `LinkerConfig::fast_math` (off by
//! default).
//!
//! # Dispatch
//!
//! There are two levels, and the level is detected once per process
//! ([`active`]): AVX2 when the CPU reports it, otherwise the scalar
//! reference — the same bits by the contract above, so a CPU without
//! AVX2 (or off `x86_64`) is slower, never different. Setting the environment variable `NCL_FORCE_SCALAR` (to
//! anything but `0`/`false`/empty) forces the scalar path — the CI
//! scalar-fallback leg runs the whole suite this way. Benches and tests
//! use [`with_level`] to pin a specific level on the current thread.
//!
//! # Adding a kernel
//!
//! 1. Write the scalar reference with an explicit, documented rounding
//!    order (fresh accumulators, ascending index, mul-then-add).
//! 2. Mirror it per lane in an `avx2` `#[target_feature]` function —
//!    same operations, same order, no FMA for exact kernels.
//! 3. Dispatch on [`active`] in the public wrapper.
//! 4. Add the kernel to the bit-identity proptests
//!    (`crates/tensor/tests/simd_identity.rs`) across awkward sizes and
//!    unaligned offsets, and to the `fig16_kernels` microbench.

use std::cell::Cell;
use std::sync::OnceLock;

/// CPU capability tier a kernel call dispatches to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Level {
    /// Portable scalar reference (any architecture, and the
    /// `NCL_FORCE_SCALAR` override).
    Scalar,
    /// 256-bit AVX2 lanes.
    Avx2,
}

impl Level {
    /// Human-readable name (`"scalar"`, `"avx2"`).
    pub fn name(self) -> &'static str {
        match self {
            Level::Scalar => "scalar",
            Level::Avx2 => "avx2",
        }
    }
}

/// Whether `NCL_FORCE_SCALAR`'s value requests the scalar override.
/// Empty, `0`, and `false` (any case) do not; anything else does.
pub fn force_scalar_requested(value: Option<&str>) -> bool {
    match value {
        Some(s) => !s.is_empty() && s != "0" && !s.eq_ignore_ascii_case("false"),
        None => false,
    }
}

fn detect() -> Level {
    if force_scalar_requested(std::env::var("NCL_FORCE_SCALAR").ok().as_deref())
        || !supported(Level::Avx2)
    {
        Level::Scalar
    } else {
        Level::Avx2
    }
}

static GLOBAL: OnceLock<Level> = OnceLock::new();

thread_local! {
    static OVERRIDE: Cell<Option<Level>> = const { Cell::new(None) };
}

/// The dispatch level kernel calls on this thread currently use: the
/// innermost [`with_level`] override if one is active, otherwise the
/// process-wide detected level (cached after the first call).
pub fn active() -> Level {
    OVERRIDE
        .with(Cell::get)
        .unwrap_or_else(|| *GLOBAL.get_or_init(detect))
}

/// Whether `level` can run on this machine. [`Level::Scalar`] always
/// can; [`Level::Avx2`] needs an `x86_64` CPU that reports AVX2.
pub fn supported(level: Level) -> bool {
    match level {
        Level::Scalar => true,
        #[cfg(target_arch = "x86_64")]
        Level::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
        #[cfg(not(target_arch = "x86_64"))]
        Level::Avx2 => false,
    }
}

/// All levels [`supported`] on this machine, scalar first — the
/// iteration order of the bit-identity test suites.
pub fn supported_levels() -> Vec<Level> {
    [Level::Scalar, Level::Avx2]
        .into_iter()
        .filter(|&l| supported(l))
        .collect()
}

/// Runs `f` with every kernel call on this thread pinned to `level`
/// (restored afterwards, panic included). Benches use this to measure
/// scalar vs SIMD in one process; the identity tests use it to compare
/// levels bit-for-bit.
///
/// # Panics
/// Panics if `level` is not [`supported`] on this machine.
pub fn with_level<R>(level: Level, f: impl FnOnce() -> R) -> R {
    assert!(
        supported(level),
        "simd::with_level: {} not supported on this machine",
        level.name()
    );
    struct Restore(Option<Level>);
    impl Drop for Restore {
        fn drop(&mut self) {
            OVERRIDE.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(OVERRIDE.with(|c| c.replace(Some(level))));
    f()
}

// ---------------------------------------------------------------------------
// Exact kernels.
// ---------------------------------------------------------------------------

/// In-place `y[i] += alpha * x[i]` (BLAS `saxpy`), bit-identical to the
/// scalar loop at every level: one `mul` and one `add` per element.
///
/// # Panics
/// Panics if the slice lengths differ.
pub fn saxpy(y: &mut [f32], alpha: f32, x: &[f32]) {
    assert_eq!(y.len(), x.len(), "saxpy: dimension mismatch");
    match active() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: AVX2 was verified by `active()`'s detection.
        Level::Avx2 => unsafe { avx2::saxpy(y, alpha, x) },
        _ => scalar::saxpy(y, alpha, x),
    }
}

/// In-place `y[i] += x[i]`, bit-identical to the scalar loop.
///
/// # Panics
/// Panics if the slice lengths differ.
pub fn add_assign(y: &mut [f32], x: &[f32]) {
    assert_eq!(y.len(), x.len(), "add_assign: dimension mismatch");
    match active() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: AVX2 was verified by `active()`'s detection.
        Level::Avx2 => unsafe { avx2::add_assign(y, x) },
        _ => scalar::add_assign(y, x),
    }
}

/// In-place `y[i] *= alpha`, bit-identical to the scalar loop.
pub fn scale(y: &mut [f32], alpha: f32) {
    match active() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: AVX2 was verified by `active()`'s detection.
        Level::Avx2 => unsafe { avx2::scale(y, alpha) },
        _ => scalar::scale(y, alpha),
    }
}

/// Maximum element, `f32::NEG_INFINITY` for an empty slice.
///
/// For inputs **without NaN** this is bit-identical to
/// `x.iter().fold(f32::NEG_INFINITY, f32::max)` at every level (the max
/// of finite floats does not depend on association order; a `-0.0` /
/// `+0.0` tie may resolve to either sign, which no consumer of a
/// maximum can observe through arithmetic that treats them as equal).
/// With NaN present the levels may disagree about the returned value,
/// but every caller in this crate (`log_sum_exp_slice`) then produces
/// NaN regardless.
pub fn max(x: &[f32]) -> f32 {
    match active() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: AVX2 was verified by `active()`'s detection.
        Level::Avx2 => unsafe { avx2::max(x) },
        _ => scalar::max(x),
    }
}

/// Column-major transposed-weight product-accumulate:
/// `y[j] += Σ_k x[k] · wt[k·n + j]` with `n = y.len()` — i.e. `y += Wᵀx`
/// for a row-major `wt` holding `W`ᵀ (one row per input `k`, one column
/// per output `j`).
///
/// Each output keeps a fresh accumulator and consumes `k` in ascending
/// order with a separate `mul` and `add` per term, so the result is
/// bit-identical at every level to the scalar row-dot
/// `acc += w[j][k] * x[k]` of [`Matrix::gemv_acc`](crate::Matrix::gemv_acc)
/// followed by `y[j] += acc`. This is the kernel behind the SIMD
/// `gemm_nt` tiles, the fused LSTM gates, and the transposed-weight
/// dense layers: outputs are contiguous in memory, so lanes vectorise
/// across them while every lane reproduces the scalar reduction.
///
/// # Panics
/// Panics if `wt.len() != x.len() * y.len()`.
pub fn colmajor_gemv_acc(y: &mut [f32], x: &[f32], wt: &[f32]) {
    assert_eq!(
        wt.len(),
        x.len() * y.len(),
        "colmajor_gemv_acc: weight shape mismatch"
    );
    if y.is_empty() || x.is_empty() {
        return;
    }
    match active() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: AVX2 was verified by `active()`'s detection.
        Level::Avx2 => unsafe { avx2::colmajor_gemv_acc(y, x, wt) },
        _ => scalar::colmajor_gemv_acc(y, x, wt),
    }
}

/// Row-major product-accumulate `y[r] += Σ_k w[r·n + k] · x[k]` with
/// `n = x.len()` — i.e. `y += W x` for a row-major `w` holding `W` (one
/// row per output). The body of
/// [`Matrix::gemv_acc`](crate::Matrix::gemv_acc): every taped LSTM gate
/// and dense layer on the training path.
///
/// Rows are independent outputs, so the AVX2 level makes consecutive
/// rows the lanes: an 8×8 block of `w` is loaded row by row and
/// transposed **in registers**, after which lane `i` holds row `r + i`'s
/// entry for one `k`. Each lane then runs the scalar
/// recipe unchanged — fresh accumulator, ascending `k`, a separate
/// `mul` and `add` per term (no FMA), then `y[r] += acc` — so the
/// result is bit-identical to the scalar loop at every level. Rows past
/// the last full block and columns past the last full block take the
/// scalar path, in the same order.
///
/// A zero-column `w` adds nothing (not even `+0.0`, which would rewrite
/// a `-0.0` in `y`).
///
/// # Panics
/// Panics if `w.len() != y.len() * x.len()`.
pub fn rowmajor_gemv_acc(y: &mut [f32], x: &[f32], w: &[f32]) {
    assert_eq!(
        w.len(),
        y.len() * x.len(),
        "rowmajor_gemv_acc: weight shape mismatch"
    );
    if w.is_empty() {
        return;
    }
    match active() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: AVX2 was verified by `active()`'s detection; the shape
        // assert above is the kernel's bounds precondition.
        Level::Avx2 => unsafe { avx2::rowmajor_gemv_acc(y, x, w) },
        _ => scalar::rowmajor_gemv_acc(y, x, w),
    }
}

/// Rank-one update `w[r·n + j] += (alpha · u[r]) · v[j]` with
/// `n = v.len()` — the body of
/// [`Matrix::add_outer`](crate::Matrix::add_outer), the gradient kernel
/// of every weight matrix (`dW += dz xᵀ`).
///
/// Each row is one [`saxpy`] with coefficient `c = alpha · u[r]`, and a
/// row whose `c == 0.0` (either sign) is skipped. The skip is bitwise
/// observable — it suppresses a `w += 0 · v` step that would turn an
/// infinite `v[j]` into NaN or a `-0.0` entry into `+0.0` — so every
/// level keeps it; `NaN` and `±inf` coefficients are not zero and
/// update the row. The row loop runs inside one `#[target_feature]`
/// function, so a matrix pays one dispatch, not one per row.
///
/// # Panics
/// Panics if `w.len() != u.len() * v.len()`.
pub fn rank1_update(w: &mut [f32], alpha: f32, u: &[f32], v: &[f32]) {
    assert_eq!(
        w.len(),
        u.len() * v.len(),
        "rank1_update: weight shape mismatch"
    );
    if w.is_empty() {
        return;
    }
    match active() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: AVX2 was verified by `active()`'s detection.
        Level::Avx2 => unsafe { avx2::rank1_update(w, alpha, u, v) },
        _ => scalar::rank1_update(w, alpha, u, v),
    }
}

/// Transposed row-major product-accumulate
/// `y[j] += x[r] · w[r·n + j]` for `r` ascending, with `n = y.len()` —
/// i.e. `y += Wᵀ x` for a row-major `w`. The body of
/// [`Matrix::gemv_t_acc`](crate::Matrix::gemv_t_acc), the
/// input-gradient kernel of back-propagation (`dx += Wᵀ dz`).
///
/// Unlike [`colmajor_gemv_acc`] there is no fresh accumulator: each row
/// is one [`saxpy`] straight into `y`, and a row whose `x[r] == 0.0`
/// (either sign) is skipped, exactly as in [`rank1_update`] and for the
/// same bitwise reason. One dispatch per matrix. (The AVX2 body keeps a
/// tile of `y` in registers across the rows instead of storing and
/// reloading it per row; per output the operations and their order are
/// the same.)
///
/// # Panics
/// Panics if `w.len() != x.len() * y.len()`.
pub fn gemv_t_acc(y: &mut [f32], x: &[f32], w: &[f32]) {
    assert_eq!(
        w.len(),
        x.len() * y.len(),
        "gemv_t_acc: weight shape mismatch"
    );
    if w.is_empty() {
        return;
    }
    match active() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: AVX2 was verified by `active()`'s detection.
        Level::Avx2 => unsafe { avx2::gemv_t_acc(y, x, w) },
        _ => scalar::gemv_t_acc(y, x, w),
    }
}

// ---------------------------------------------------------------------------
// Sequence kernels: one call per sequence instead of one per time step.
//
// Each is *defined as* `t` successive calls of the per-step kernel above
// on row `s` of its flat `t × n` slabs — the scalar level is literally
// that loop — and the AVX2 bodies only reschedule work whose
// order no output can observe: a forward output `(s, r)` owns a fresh
// accumulator and shares nothing with `(s', r')`, and an accumulated
// element receives its terms in the caller's step order because the step
// loop is the innermost loop that touches it. A length-one sequence *is*
// the per-step call, and is handed to it.
// ---------------------------------------------------------------------------

/// Splits the slab lengths of a `t`-step sequence call into the per-step
/// `(rows, cols)` of its weight matrix (`a` holds `t × rows` floats, `b`
/// `t × cols`), or `None` when there is nothing to do: no steps, or a
/// weight matrix without entries — the case every per-step kernel
/// returns from before touching its output.
fn seq_shape(kernel: &str, t: usize, a: usize, b: usize, w: usize) -> Option<(usize, usize)> {
    if t == 0 {
        assert!(a == 0 && b == 0, "{kernel}: slabs of an empty sequence");
        return None;
    }
    let (rows, cols) = (a / t, b / t);
    assert!(
        a == t * rows && b == t * cols,
        "{kernel}: slab is not a whole number of steps"
    );
    assert_eq!(w, rows * cols, "{kernel}: weight shape mismatch");
    (w != 0).then_some((rows, cols))
}

/// The `i`-th step a sequenced update visits: `i` itself, or counted
/// from the end when the caller's order is descending.
#[inline(always)]
fn seq_step(i: usize, t: usize, descending: bool) -> usize {
    if descending {
        t - 1 - i
    } else {
        i
    }
}

/// Stacked [`rowmajor_gemv_acc`]: `ys[s] += W · xs[s]` for every step
/// `s < t`, with `ys` a flat `t × rows` slab, `xs` a flat `t × cols`
/// slab and `w` the row-major `rows × cols` matrix — bit-identical to
/// `t` per-step calls at every level.
///
/// Every `(s, r)` output is `ys[s][r] + fresh accumulator` over
/// ascending `k`, mul then add, and shares nothing with any other
/// output, so stacking is pure scheduling. The AVX2 body uses it to pay
/// the in-register 8×8 transpose — what bounds the per-step kernel —
/// once per block for up to six steps' accumulators, and to stream `w`
/// from memory once per sequence instead of once per step.
///
/// # Panics
/// Panics if the slabs are not `t` whole steps or `w` is not
/// `rows × cols`.
pub fn rowmajor_gemv_acc_seq(ys: &mut [f32], xs: &[f32], w: &[f32], t: usize) {
    if t == 1 {
        return rowmajor_gemv_acc(ys, xs, w);
    }
    let Some((rows, cols)) = seq_shape("rowmajor_gemv_acc_seq", t, ys.len(), xs.len(), w.len())
    else {
        return;
    };
    match active() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: AVX2 was verified by `active()`'s detection;
        // `seq_shape` checked the slab and weight shapes the kernel's
        // loads rest on.
        Level::Avx2 => unsafe { avx2::rowmajor_gemv_acc_seq(ys, xs, w, t, (rows, cols)) },
        _ => {
            for (y, x) in ys.chunks_exact_mut(rows).zip(xs.chunks_exact(cols)) {
                scalar::rowmajor_gemv_acc(y, x, w);
            }
        }
    }
}

/// Sequenced [`rank1_update`]: `w += (alpha · us[s]) vs[s]ᵀ` for the
/// `t` steps of a sequence **in step order** — `s` ascending, or
/// descending when `descending` (back-propagation through time visits
/// its steps last to first) — with `us` a flat `t × rows` slab and `vs`
/// a flat `t × cols` slab. Bit-identical to `t` per-step calls made in
/// that order.
///
/// A gradient element `w[r][j]` receives one `+ c · v` term per step,
/// in step order, whichever loop is outermost; the AVX2 body therefore
/// holds a tile of row `r` in registers across all the steps instead of
/// loading and storing it once per step. The per-`(s, r)` zero-skip of
/// [`rank1_update`] is kept (it is bitwise observable), and a row whose
/// coefficient is zero at every step is never written.
///
/// # Panics
/// Panics if the slabs are not `t` whole steps or `w` is not
/// `rows × cols`.
pub fn rank1_update_seq(
    w: &mut [f32],
    alpha: f32,
    us: &[f32],
    vs: &[f32],
    t: usize,
    descending: bool,
) {
    if t == 1 {
        return rank1_update(w, alpha, us, vs);
    }
    let Some((rows, cols)) = seq_shape("rank1_update_seq", t, us.len(), vs.len(), w.len()) else {
        return;
    };
    match active() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: AVX2 was verified by `active()`'s detection;
        // `seq_shape` checked the slab and weight shapes the kernel's
        // loads rest on.
        Level::Avx2 => unsafe {
            avx2::rank1_update_seq(w, alpha, us, vs, t, (rows, cols), descending)
        },
        _ => {
            for i in 0..t {
                let s = seq_step(i, t, descending);
                let (u, v) = (&us[s * rows..(s + 1) * rows], &vs[s * cols..(s + 1) * cols]);
                scalar::rank1_update(w, alpha, u, v);
            }
        }
    }
}

/// Stacked [`gemv_t_acc`]: `ys[s] += Wᵀ · xs[s]` for every step
/// `s < t`, with `ys` a flat `t × cols` slab, `xs` a flat `t × rows`
/// slab and `w` the row-major `rows × cols` matrix — bit-identical to
/// `t` per-step calls at every level.
///
/// Each `(s, j)` output is its own chain `ys[s][j] += xs[s][r] · w[r][j]`
/// over ascending `r` with the per-`(s, r)` zero-skip, independent of
/// every other output. The AVX2 body loads each tile of a weight row
/// once for up to six steps and runs their add chains side by side —
/// the per-step body is bound by the latency of its own four.
///
/// # Panics
/// Panics if the slabs are not `t` whole steps or `w` is not
/// `rows × cols`.
pub fn gemv_t_acc_seq(ys: &mut [f32], xs: &[f32], w: &[f32], t: usize) {
    if t == 1 {
        return gemv_t_acc(ys, xs, w);
    }
    let Some((rows, cols)) = seq_shape("gemv_t_acc_seq", t, xs.len(), ys.len(), w.len()) else {
        return;
    };
    match active() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: AVX2 was verified by `active()`'s detection;
        // `seq_shape` checked the slab and weight shapes the kernel's
        // loads rest on.
        Level::Avx2 => unsafe { avx2::gemv_t_acc_seq(ys, xs, w, t, (rows, cols)) },
        _ => {
            for (y, x) in ys.chunks_exact_mut(cols).zip(xs.chunks_exact(rows)) {
                scalar::gemv_t_acc(y, x, w);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Quantization kernels (bf16 widen/narrow).
//
// The compact serving-cache tier stores per-concept rows as `u16`
// mantissa-trimmed floats: the upper 16 bits of the f32 pattern (sign,
// the full 8-bit exponent, the top 7 mantissa bits — the bfloat16
// layout). Both directions are pure integer bit manipulation, so every
// dispatch level produces identical bits *by construction*: there is no
// floating-point rounding to reorder.
// ---------------------------------------------------------------------------

/// Narrows one f32 to its bf16 bit pattern with round-to-nearest-even
/// on the 16 dropped mantissa bits (the rounding increment carries into
/// the exponent when the mantissa overflows, which is the correct
/// next-power-of-two result; infinities pass through, NaNs stay NaN).
#[inline]
pub fn narrow_bf16_one(x: f32) -> u16 {
    let bits = x.to_bits();
    // Round-to-nearest-even in integer arithmetic: add 0x7FFF plus the
    // current LSB of the kept half, then truncate. Wrapping matches the
    // two's-complement SIMD adds on exotic NaN patterns.
    let rounded = bits.wrapping_add(0x7FFF + ((bits >> 16) & 1));
    (rounded >> 16) as u16
}

/// Widens one bf16 bit pattern back to f32 — exact (the low 16 mantissa
/// bits are zero-filled).
#[inline]
pub fn widen_bf16_one(q: u16) -> f32 {
    f32::from_bits((q as u32) << 16)
}

/// Narrows `src` into `dst` as bf16 bit patterns
/// ([`narrow_bf16_one`] element-wise). Bit-identical at every dispatch
/// level: the conversion is integer-only.
///
/// # Panics
/// Panics if the slice lengths differ.
pub fn narrow_bf16(dst: &mut [u16], src: &[f32]) {
    assert_eq!(dst.len(), src.len(), "narrow_bf16: dimension mismatch");
    match active() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: AVX2 was verified by `active()`'s detection.
        Level::Avx2 => unsafe { avx2::narrow_bf16(dst, src) },
        _ => scalar::narrow_bf16(dst, src),
    }
}

/// Widens bf16 bit patterns in `src` into `dst`
/// ([`widen_bf16_one`] element-wise) — the compact cache tier's
/// dequantization. Exact and bit-identical at every dispatch level.
///
/// # Panics
/// Panics if the slice lengths differ.
pub fn widen_bf16(dst: &mut [f32], src: &[u16]) {
    assert_eq!(dst.len(), src.len(), "widen_bf16: dimension mismatch");
    match active() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: AVX2 was verified by `active()`'s detection.
        Level::Avx2 => unsafe { avx2::widen_bf16(dst, src) },
        _ => scalar::widen_bf16(dst, src),
    }
}

// ---------------------------------------------------------------------------
// Relaxed (fast-math) kernels — deterministic across levels, but NOT
// bit-equal to the exact kernels. Gated behind `LinkerConfig::fast_math`.
// ---------------------------------------------------------------------------

/// Combines eight lane partial sums in a fixed binary tree — the single
/// reduction order every relaxed kernel uses at every level.
#[inline]
fn tree8(l: &[f32; 8]) -> f32 {
    ((l[0] + l[1]) + (l[2] + l[3])) + ((l[4] + l[5]) + (l[6] + l[7]))
}

/// Relaxed dot product: partial sums in the fixed virtual 8-lane layout
/// (element `i` → lane `i mod 8`), combined by the fixed `tree8` lane
/// tree. Same bits at every level; differs from the sequential
/// [`Vector::dot`](crate::Vector::dot) by ordinary rounding noise
/// (≈1 ulp per lane length).
///
/// # Panics
/// Panics if the slice lengths differ.
pub fn dot_relaxed(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "dot_relaxed: dimension mismatch");
    let mut lanes = [0.0f32; 8];
    match active() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: AVX2 was verified by `active()`'s detection.
        Level::Avx2 => unsafe { avx2::dot_lanes(&mut lanes, a, b) },
        _ => scalar::dot_lanes(&mut lanes, a, b),
    }
    tree8(&lanes)
}

/// Relaxed `Σ_i exp(x[i] − m)` — the shifted exponential sum of a
/// log-sum-exp — using the [`exp_approx`] polynomial and the fixed
/// 8-lane layout of [`dot_relaxed`]. Same bits at every level.
///
/// The caller is expected to pass `m = max(x)` so every shifted
/// argument is `≤ 0`; arguments are clamped to the polynomial's domain
/// either way.
pub fn sum_exp_relaxed(x: &[f32], m: f32) -> f32 {
    let mut lanes = [0.0f32; 8];
    match active() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: AVX2 was verified by `active()`'s detection.
        Level::Avx2 => unsafe { avx2::sum_exp_lanes(&mut lanes, x, m) },
        _ => scalar::sum_exp_lanes(&mut lanes, x, m),
    }
    tree8(&lanes)
}

/// Domain clamp of [`exp_approx`]: below, `2^n` stays a normal float.
const EXP_LO: f32 = -87.0;
/// Upper domain clamp of [`exp_approx`] (`exp(88) < f32::MAX`).
const EXP_HI: f32 = 88.0;
// Cephes `expf` constants, written with the full decimal expansions of
// the intended f32 bit patterns (clippy sees "excessive precision" /
// "approximate LOG2_E", but rounding the literals would change the
// polynomial and therefore the cross-level bit contract).
#[allow(clippy::excessive_precision, clippy::approx_constant)]
const LOG2E: f32 = 1.442_695_04;
#[allow(clippy::excessive_precision)]
const LN2_HI: f32 = 0.693_359_375;
const LN2_LO: f32 = -2.121_944_4e-4;
#[allow(clippy::excessive_precision)]
const EXP_P0: f32 = 1.987_569_15e-4;
#[allow(clippy::excessive_precision)]
const EXP_P1: f32 = 1.398_199_95e-3;
#[allow(clippy::excessive_precision)]
const EXP_P2: f32 = 8.333_451_9e-3;
const EXP_P3: f32 = 4.166_579_6e-2;
#[allow(clippy::excessive_precision)]
const EXP_P4: f32 = 1.666_666_55e-1;
#[allow(clippy::excessive_precision)]
const EXP_P5: f32 = 5.000_000_1e-1;

/// Polynomial `exp` (cephes-style: range reduction by `log2 e`, a
/// degree-5 minimax polynomial on the reduced argument, exponent
/// reassembly via the IEEE bit layout). Relative error ≈ 1e-7 over the
/// clamped domain `[-87, 88]`. Every operation is an ordinary `f32`
/// mul/add in a fixed order, mirrored exactly by the AVX2 lane version,
/// so relaxed kernels built on it return the same bits at every level.
pub fn exp_approx(x: f32) -> f32 {
    let x = x.clamp(EXP_LO, EXP_HI);
    let n = (x * LOG2E).round_ties_even();
    let r = x - n * LN2_HI;
    let r = r - n * LN2_LO;
    let r2 = r * r;
    let mut p = EXP_P0;
    p = p * r + EXP_P1;
    p = p * r + EXP_P2;
    p = p * r + EXP_P3;
    p = p * r + EXP_P4;
    p = p * r + EXP_P5;
    let y = (p * r2 + r) + 1.0;
    // n is integral and in [-126, 127] after the clamp, so 2^n is a
    // normal float assembled directly in the exponent field.
    let two_n = f32::from_bits((((n as i32) + 127) << 23) as u32);
    y * two_n
}

// ---------------------------------------------------------------------------
// Scalar reference implementations.
// ---------------------------------------------------------------------------

mod scalar {
    use super::exp_approx;
    #[cfg(test)]
    use super::tree8;

    pub fn saxpy(y: &mut [f32], alpha: f32, x: &[f32]) {
        for (s, v) in y.iter_mut().zip(x) {
            *s += alpha * v;
        }
    }

    pub fn add_assign(y: &mut [f32], x: &[f32]) {
        for (s, v) in y.iter_mut().zip(x) {
            *s += v;
        }
    }

    pub fn scale(y: &mut [f32], alpha: f32) {
        for s in y {
            *s *= alpha;
        }
    }

    pub fn max(x: &[f32]) -> f32 {
        x.iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }

    pub fn colmajor_gemv_acc(y: &mut [f32], x: &[f32], wt: &[f32]) {
        let n = y.len();
        for (j, yo) in y.iter_mut().enumerate() {
            let mut acc = 0.0f32;
            for (k, &xv) in x.iter().enumerate() {
                acc += xv * wt[k * n + j];
            }
            *yo += acc;
        }
    }

    /// Callers guarantee a non-empty `w` of `y.len() × x.len()` floats
    /// (so `x` is non-empty too).
    pub fn rowmajor_gemv_acc(y: &mut [f32], x: &[f32], w: &[f32]) {
        for (yo, row) in y.iter_mut().zip(w.chunks_exact(x.len())) {
            let mut acc = 0.0f32;
            for (a, b) in row.iter().zip(x) {
                acc += a * b;
            }
            *yo += acc;
        }
    }

    /// Finishes one row block of the SIMD [`rowmajor_gemv_acc`] bodies:
    /// `lanes[i]` is row `i`'s accumulator over columns `..kfull` of the
    /// block's rows `w`; the remaining columns are added in ascending
    /// order — the scalar chain simply continues — then `y[i] += acc`.
    pub fn finish_row_block(y: &mut [f32], lanes: &[f32], x: &[f32], w: &[f32], kfull: usize) {
        for ((yo, &lane), row) in y.iter_mut().zip(lanes).zip(w.chunks_exact(x.len())) {
            let mut acc = lane;
            for (a, b) in row[kfull..].iter().zip(&x[kfull..]) {
                acc += a * b;
            }
            *yo += acc;
        }
    }

    /// Callers guarantee a non-empty `w` of `u.len() × v.len()` floats.
    pub fn rank1_update(w: &mut [f32], alpha: f32, u: &[f32], v: &[f32]) {
        for (row, &ur) in w.chunks_exact_mut(v.len()).zip(u) {
            let c = alpha * ur;
            if c == 0.0 {
                continue;
            }
            saxpy(row, c, v);
        }
    }

    /// Callers guarantee a non-empty `w` of `x.len() × y.len()` floats.
    pub fn gemv_t_acc(y: &mut [f32], x: &[f32], w: &[f32]) {
        for (row, &xr) in w.chunks_exact(y.len()).zip(x) {
            if xr == 0.0 {
                continue;
            }
            saxpy(y, xr, row);
        }
    }

    /// Emulates the 8-lane layout of the AVX2 relaxed dot: full chunks
    /// feed lane `i mod 8`, the tail keeps the same assignment, so the
    /// [`tree8`] combine sees identical lane values.
    pub fn dot_lanes(lanes: &mut [f32; 8], a: &[f32], b: &[f32]) {
        let chunks = a.len() / 8;
        for c in 0..chunks {
            for (l, lane) in lanes.iter_mut().enumerate() {
                let i = c * 8 + l;
                *lane += a[i] * b[i];
            }
        }
        for i in chunks * 8..a.len() {
            lanes[i % 8] += a[i] * b[i];
        }
    }

    pub fn sum_exp_lanes(lanes: &mut [f32; 8], x: &[f32], m: f32) {
        let chunks = x.len() / 8;
        for c in 0..chunks {
            for (l, lane) in lanes.iter_mut().enumerate() {
                *lane += exp_approx(x[c * 8 + l] - m);
            }
        }
        for i in chunks * 8..x.len() {
            lanes[i % 8] += exp_approx(x[i] - m);
        }
    }

    /// Standalone scalar relaxed dot for the unit tests.
    #[cfg(test)]
    pub fn dot_relaxed(a: &[f32], b: &[f32]) -> f32 {
        let mut lanes = [0.0f32; 8];
        dot_lanes(&mut lanes, a, b);
        tree8(&lanes)
    }

    pub fn narrow_bf16(dst: &mut [u16], src: &[f32]) {
        for (d, &s) in dst.iter_mut().zip(src) {
            *d = super::narrow_bf16_one(s);
        }
    }

    pub fn widen_bf16(dst: &mut [f32], src: &[u16]) {
        for (d, &s) in dst.iter_mut().zip(src) {
            *d = super::widen_bf16_one(s);
        }
    }
}

// ---------------------------------------------------------------------------
// AVX2 (256-bit) implementations.
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::{
        EXP_HI, EXP_LO, EXP_P0, EXP_P1, EXP_P2, EXP_P3, EXP_P4, EXP_P5, LN2_HI, LN2_LO, LOG2E,
    };
    use std::arch::x86_64::*;

    /// # Safety
    /// Requires AVX2 (callers check [`super::supported`]).
    #[target_feature(enable = "avx2")]
    pub unsafe fn saxpy(y: &mut [f32], alpha: f32, x: &[f32]) {
        let n = y.len();
        let a = _mm256_set1_ps(alpha);
        let yp = y.as_mut_ptr();
        let xp = x.as_ptr();
        let mut i = 0;
        while i + 8 <= n {
            let yv = _mm256_loadu_ps(yp.add(i));
            let xv = _mm256_loadu_ps(xp.add(i));
            _mm256_storeu_ps(yp.add(i), _mm256_add_ps(yv, _mm256_mul_ps(a, xv)));
            i += 8;
        }
        while i < n {
            y[i] += alpha * x[i];
            i += 1;
        }
    }

    /// # Safety
    /// Requires AVX2 (callers check [`super::supported`]).
    #[target_feature(enable = "avx2")]
    pub unsafe fn add_assign(y: &mut [f32], x: &[f32]) {
        let n = y.len();
        let yp = y.as_mut_ptr();
        let xp = x.as_ptr();
        let mut i = 0;
        while i + 8 <= n {
            let yv = _mm256_loadu_ps(yp.add(i));
            let xv = _mm256_loadu_ps(xp.add(i));
            _mm256_storeu_ps(yp.add(i), _mm256_add_ps(yv, xv));
            i += 8;
        }
        while i < n {
            y[i] += x[i];
            i += 1;
        }
    }

    /// # Safety
    /// Requires AVX2 (callers check [`super::supported`]).
    #[target_feature(enable = "avx2")]
    pub unsafe fn scale(y: &mut [f32], alpha: f32) {
        let n = y.len();
        let a = _mm256_set1_ps(alpha);
        let yp = y.as_mut_ptr();
        let mut i = 0;
        while i + 8 <= n {
            let yv = _mm256_loadu_ps(yp.add(i));
            _mm256_storeu_ps(yp.add(i), _mm256_mul_ps(yv, a));
            i += 8;
        }
        while i < n {
            y[i] *= alpha;
            i += 1;
        }
    }

    /// # Safety
    /// Requires AVX2 (callers check [`super::supported`]).
    #[target_feature(enable = "avx2")]
    pub unsafe fn max(x: &[f32]) -> f32 {
        let n = x.len();
        let xp = x.as_ptr();
        let mut m = f32::NEG_INFINITY;
        let mut i = 0;
        if n >= 8 {
            let mut acc = _mm256_set1_ps(f32::NEG_INFINITY);
            while i + 8 <= n {
                acc = _mm256_max_ps(acc, _mm256_loadu_ps(xp.add(i)));
                i += 8;
            }
            let mut lanes = [0.0f32; 8];
            _mm256_storeu_ps(lanes.as_mut_ptr(), acc);
            for l in lanes {
                m = m.max(l);
            }
        }
        while i < n {
            m = m.max(x[i]);
            i += 1;
        }
        m
    }

    /// # Safety
    /// Requires AVX2 (callers check [`super::supported`]).
    ///
    /// Register-blocked over outputs: 32-wide tiles (4 ymm
    /// accumulators), then 8-wide, then a scalar tail. Per lane, the
    /// reduction is the scalar order exactly (fresh accumulator,
    /// ascending `k`, mul then add — no FMA).
    #[target_feature(enable = "avx2")]
    pub unsafe fn colmajor_gemv_acc(y: &mut [f32], x: &[f32], wt: &[f32]) {
        let n = y.len();
        let wp = wt.as_ptr();
        let yp = y.as_mut_ptr();
        let mut j = 0;
        while j + 32 <= n {
            let mut a0 = _mm256_setzero_ps();
            let mut a1 = _mm256_setzero_ps();
            let mut a2 = _mm256_setzero_ps();
            let mut a3 = _mm256_setzero_ps();
            for (k, &xv) in x.iter().enumerate() {
                let xb = _mm256_set1_ps(xv);
                let row = wp.add(k * n + j);
                a0 = _mm256_add_ps(a0, _mm256_mul_ps(xb, _mm256_loadu_ps(row)));
                a1 = _mm256_add_ps(a1, _mm256_mul_ps(xb, _mm256_loadu_ps(row.add(8))));
                a2 = _mm256_add_ps(a2, _mm256_mul_ps(xb, _mm256_loadu_ps(row.add(16))));
                a3 = _mm256_add_ps(a3, _mm256_mul_ps(xb, _mm256_loadu_ps(row.add(24))));
            }
            let out = yp.add(j);
            _mm256_storeu_ps(out, _mm256_add_ps(_mm256_loadu_ps(out), a0));
            _mm256_storeu_ps(out.add(8), _mm256_add_ps(_mm256_loadu_ps(out.add(8)), a1));
            _mm256_storeu_ps(out.add(16), _mm256_add_ps(_mm256_loadu_ps(out.add(16)), a2));
            _mm256_storeu_ps(out.add(24), _mm256_add_ps(_mm256_loadu_ps(out.add(24)), a3));
            j += 32;
        }
        while j + 8 <= n {
            let mut a0 = _mm256_setzero_ps();
            for (k, &xv) in x.iter().enumerate() {
                let xb = _mm256_set1_ps(xv);
                a0 = _mm256_add_ps(a0, _mm256_mul_ps(xb, _mm256_loadu_ps(wp.add(k * n + j))));
            }
            let out = yp.add(j);
            _mm256_storeu_ps(out, _mm256_add_ps(_mm256_loadu_ps(out), a0));
            j += 8;
        }
        while j < n {
            let mut acc = 0.0f32;
            for (k, &xv) in x.iter().enumerate() {
                acc += xv * wt[k * n + j];
            }
            y[j] += acc;
            j += 1;
        }
    }

    /// Transposes the 8×8 block whose rows start at `p`, `p + stride`, …
    /// and returns its columns: lane `i` of result `j` is
    /// `*p.add(i * stride + j)`.
    ///
    /// The shuffle port is what bounds this kernel, so the cross-half
    /// step of the textbook transpose is done by the loads instead: each
    /// register is filled from two 128-bit halves, rows `i` and `i + 4`,
    /// which leaves two in-lane rounds (unpack, shuffle) per column.
    ///
    /// # Safety
    /// Requires AVX2, and `p.add(i * stride)` must be valid for reading
    /// eight `f32`s for every `i < 8` (no alignment needed).
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn load_transposed8(p: *const f32, stride: usize) -> [__m256; 8] {
        // `pair(i, h)`: row i's floats 4h..4h+4 below row i+4's.
        let pair = |i: usize, h: usize| {
            let lo = _mm_loadu_ps(p.add(i * stride + 4 * h));
            let hi = _mm_loadu_ps(p.add((i + 4) * stride + 4 * h));
            _mm256_insertf128_ps::<1>(_mm256_castps128_ps256(lo), hi)
        };
        // Four columns at a time: `t0`/`t1` interleave rows 0/1 (and
        // 4/5), `t2`/`t3` rows 2/3 (and 6/7); each shuffle then picks
        // one column's entries from a pair of them, rows 0–3 in the low
        // half and 4–7 in the high.
        let quad = |h: usize| {
            let (r0, r1, r2, r3) = (pair(0, h), pair(1, h), pair(2, h), pair(3, h));
            let t0 = _mm256_unpacklo_ps(r0, r1);
            let t1 = _mm256_unpackhi_ps(r0, r1);
            let t2 = _mm256_unpacklo_ps(r2, r3);
            let t3 = _mm256_unpackhi_ps(r2, r3);
            [
                _mm256_shuffle_ps::<0x44>(t0, t2),
                _mm256_shuffle_ps::<0xEE>(t0, t2),
                _mm256_shuffle_ps::<0x44>(t1, t3),
                _mm256_shuffle_ps::<0xEE>(t1, t3),
            ]
        };
        let [c0, c1, c2, c3] = quad(0);
        let [c4, c5, c6, c7] = quad(1);
        [c0, c1, c2, c3, c4, c5, c6, c7]
    }

    /// # Safety
    /// Requires AVX2 (callers check [`super::supported`]) and
    /// `w.len() == y.len() * x.len()` with `w` non-empty — the public
    /// wrapper asserts both. Every vector load below stays inside `w` on
    /// the strength of that shape alone. The Miri leg interprets this
    /// body over exact-size allocations
    /// (`rowmajor_kernels_levels_bit_identical`); on hardware the
    /// `simd_identity` cases whose `w`, `x` and `y` end exactly at their
    /// allocation's end cover the larger shapes.
    ///
    /// Eight consecutive rows are the eight lanes: each 8×8 block of `w`
    /// is transposed in registers ([`load_transposed8`]) and consumed
    /// one column (= one `k`) at a time, so lane `i` performs the scalar
    /// `acc += w[r+i][k] * x[k]` chain in ascending `k` (mul then add —
    /// no FMA). The `cols % 8` columns are finished per lane in scalar
    /// code before `y[r+i] += acc`; the `rows % 8` rows are scalar.
    #[target_feature(enable = "avx2")]
    pub unsafe fn rowmajor_gemv_acc(y: &mut [f32], x: &[f32], w: &[f32]) {
        let rows = y.len();
        let cols = x.len();
        let kfull = cols - cols % 8;
        let wp = w.as_ptr();
        let xp = x.as_ptr();
        let mut r = 0;
        while r + 8 <= rows {
            let base = wp.add(r * cols);
            let mut acc = _mm256_setzero_ps();
            let mut k = 0;
            while k < kfull {
                // SAFETY: `r + 7 < rows` and `k + 8 <= cols`, so row
                // `r+i`'s load reads `w[(r+i)*cols + k ..][..8]` with
                // `(r+i)*cols + k + 8 <= rows*cols == w.len()`.
                // `x[k..k+8]` is in bounds likewise.
                let cs = load_transposed8(base.add(k), cols);
                for (j, &c) in cs.iter().enumerate() {
                    let xb = _mm256_broadcast_ss(&*xp.add(k + j));
                    acc = _mm256_add_ps(acc, _mm256_mul_ps(c, xb));
                }
                k += 8;
            }
            let mut lanes = [0.0f32; 8];
            _mm256_storeu_ps(lanes.as_mut_ptr(), acc);
            let block = &w[r * cols..(r + 8) * cols];
            super::scalar::finish_row_block(&mut y[r..r + 8], &lanes, x, block, kfull);
            r += 8;
        }
        if r < rows {
            super::scalar::rowmajor_gemv_acc(&mut y[r..], x, &w[r * cols..]);
        }
    }

    /// # Safety
    /// Requires AVX2 (callers check [`super::supported`]).
    ///
    /// The scalar row loop with the zero-skip, each row one [`saxpy`]
    /// over a chunk of exactly `v.len()` floats — looped here so the
    /// whole matrix runs under one dispatch.
    #[target_feature(enable = "avx2")]
    pub unsafe fn rank1_update(w: &mut [f32], alpha: f32, u: &[f32], v: &[f32]) {
        for (row, &ur) in w.chunks_exact_mut(v.len()).zip(u) {
            let c = alpha * ur;
            if c == 0.0 {
                continue;
            }
            saxpy(row, c, v);
        }
    }

    /// # Safety
    /// Requires AVX2 (callers check [`super::supported`]) and
    /// `w.len() == x.len() * y.len()` — the public wrapper asserts it.
    /// Like the row-block loads of [`rowmajor_gemv_acc`], the tile loads
    /// here are interpreted by the Miri leg at small shapes and rest on
    /// the `simd_identity` end-of-allocation cases at large ones.
    ///
    /// Per output `j` this is the row loop of the scalar reference —
    /// `y[j] += x[r] * w[r][j]` for `r` ascending, rows with
    /// `x[r] == 0.0` skipped — but a per-row saxpy carries `y` from one
    /// row to the next through memory (store, reload), which is what
    /// bounds it. So the loops are exchanged: a tile of 32 (then 8)
    /// outputs stays in registers across all rows, as in
    /// [`colmajor_gemv_acc`], seeded from `y` instead of zero. Outputs
    /// are independent, so the exchange cannot change a bit.
    #[target_feature(enable = "avx2")]
    pub unsafe fn gemv_t_acc(y: &mut [f32], x: &[f32], w: &[f32]) {
        let n = y.len();
        let wp = w.as_ptr();
        let yp = y.as_mut_ptr();
        let mut j = 0;
        // SAFETY (both tile loops): `j + width <= n` bounds the loads and
        // stores on `y`, and with `r < x.len()` the row loads end at
        // `r*n + j + width <= x.len()*n == w.len()`.
        while j + 32 <= n {
            let out = yp.add(j);
            let mut a0 = _mm256_loadu_ps(out);
            let mut a1 = _mm256_loadu_ps(out.add(8));
            let mut a2 = _mm256_loadu_ps(out.add(16));
            let mut a3 = _mm256_loadu_ps(out.add(24));
            for (r, &xr) in x.iter().enumerate() {
                if xr == 0.0 {
                    continue;
                }
                let xb = _mm256_set1_ps(xr);
                let row = wp.add(r * n + j);
                a0 = _mm256_add_ps(a0, _mm256_mul_ps(xb, _mm256_loadu_ps(row)));
                a1 = _mm256_add_ps(a1, _mm256_mul_ps(xb, _mm256_loadu_ps(row.add(8))));
                a2 = _mm256_add_ps(a2, _mm256_mul_ps(xb, _mm256_loadu_ps(row.add(16))));
                a3 = _mm256_add_ps(a3, _mm256_mul_ps(xb, _mm256_loadu_ps(row.add(24))));
            }
            _mm256_storeu_ps(out, a0);
            _mm256_storeu_ps(out.add(8), a1);
            _mm256_storeu_ps(out.add(16), a2);
            _mm256_storeu_ps(out.add(24), a3);
            j += 32;
        }
        while j + 8 <= n {
            let out = yp.add(j);
            let mut a0 = _mm256_loadu_ps(out);
            for (r, &xr) in x.iter().enumerate() {
                if xr == 0.0 {
                    continue;
                }
                let row = _mm256_loadu_ps(wp.add(r * n + j));
                a0 = _mm256_add_ps(a0, _mm256_mul_ps(_mm256_set1_ps(xr), row));
            }
            _mm256_storeu_ps(out, a0);
            j += 8;
        }
        if j < n {
            for (row, &xr) in w.chunks_exact(n).zip(x) {
                if xr == 0.0 {
                    continue;
                }
                super::scalar::saxpy(&mut y[j..], xr, &row[j..]);
            }
        }
    }

    /// Steps per register block of the stacked kernels: with six steps'
    /// accumulators live beside the eight transposed columns (or two
    /// weight-row tiles) and one broadcast, all sixteen `ymm` are used.
    const SEQ_BLOCK: usize = 6;

    /// Cuts `t` steps into the fewest blocks of at most [`SEQ_BLOCK`],
    /// sized evenly (7 → 4 + 3, not 6 + 1), and calls `f(first, len)`
    /// for each.
    #[inline(always)]
    fn for_step_blocks(t: usize, mut f: impl FnMut(usize, usize)) {
        let blocks = t.div_ceil(SEQ_BLOCK);
        let mut first = 0;
        for b in 0..blocks {
            let len = (t - first).div_ceil(blocks - b);
            f(first, len);
            first += len;
        }
    }

    /// Calls `$kernel::<N, ..>($args)` with `N` the (runtime) length of a
    /// step block, `1..=SEQ_BLOCK`.
    macro_rules! with_block_len {
        ($n:expr, $kernel:ident::<_ $(, $w:literal)?>($($arg:expr),*)) => {
            match $n {
                1 => $kernel::<1 $(, $w)?>($($arg),*),
                2 => $kernel::<2 $(, $w)?>($($arg),*),
                3 => $kernel::<3 $(, $w)?>($($arg),*),
                4 => $kernel::<4 $(, $w)?>($($arg),*),
                5 => $kernel::<5 $(, $w)?>($($arg),*),
                _ => $kernel::<6 $(, $w)?>($($arg),*),
            }
        };
    }

    /// One 8-row block of [`rowmajor_gemv_acc_seq`] for `N` consecutive
    /// steps: every 8×8 block of `w` is transposed once and feeds all
    /// `N` accumulators.
    ///
    /// # Safety
    /// Requires AVX2; `w` must hold rows `r..r + 8` of `cols` floats,
    /// `xs` steps `s0..s0 + N` of `cols` floats, `ys` steps
    /// `s0..s0 + N` of `rows` floats with `r + 8 <= rows`.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn gemv_seq_block<const N: usize>(
        ys: &mut [f32],
        xs: &[f32],
        w: &[f32],
        (rows, cols): (usize, usize),
        r: usize,
        s0: usize,
    ) {
        let kfull = cols - cols % 8;
        let base = w.as_ptr().add(r * cols);
        let xp = xs.as_ptr().add(s0 * cols);
        let mut acc = [_mm256_setzero_ps(); N];
        let mut k = 0;
        while k < kfull {
            // SAFETY: `r + 7 < rows` and `k + 8 <= cols` keep every row
            // load inside `w` (see `rowmajor_gemv_acc`); step `s0 + a`'s
            // `x[k + j]` is inside `xs` because `a < N` steps are held.
            let cs = load_transposed8(base.add(k), cols);
            for (j, &c) in cs.iter().enumerate() {
                for (a, lane) in acc.iter_mut().enumerate() {
                    let xb = _mm256_broadcast_ss(&*xp.add(a * cols + k + j));
                    *lane = _mm256_add_ps(*lane, _mm256_mul_ps(c, xb));
                }
            }
            k += 8;
        }
        let block = &w[r * cols..(r + 8) * cols];
        for (a, &lane) in acc.iter().enumerate() {
            let s = s0 + a;
            let mut lanes = [0.0f32; 8];
            _mm256_storeu_ps(lanes.as_mut_ptr(), lane);
            super::scalar::finish_row_block(
                &mut ys[s * rows + r..s * rows + r + 8],
                &lanes,
                &xs[s * cols..(s + 1) * cols],
                block,
                kfull,
            );
        }
    }

    /// # Safety
    /// Requires AVX2 (callers check [`super::supported`]), a non-empty
    /// `w` of `rows × cols` floats, and `ys` / `xs` holding the same
    /// whole number of `rows`- / `cols`-float steps — the public wrapper
    /// establishes all three. Like the per-step body, the Miri leg
    /// interprets it over exact-size slabs
    /// (`sequence_kernels_are_t_per_step_calls_at_every_level`) and the
    /// `simd_identity` cases whose slabs end exactly at their
    /// allocation's end cover it on hardware.
    ///
    /// Per `(step, row)` this is [`rowmajor_gemv_acc`] unchanged: fresh
    /// accumulator, ascending `k`, mul then add, `cols % 8` columns
    /// finished per lane in scalar code, then `y += acc`; `rows % 8`
    /// rows are scalar. Row blocks are outermost, so each block of `w`
    /// is fetched once per sequence and re-read from L1 for every step
    /// block.
    #[target_feature(enable = "avx2")]
    pub unsafe fn rowmajor_gemv_acc_seq(
        ys: &mut [f32],
        xs: &[f32],
        w: &[f32],
        t: usize,
        shape: (usize, usize),
    ) {
        let (rows, cols) = shape;
        let mut r = 0;
        while r + 8 <= rows {
            for_step_blocks(t, |s0, n| {
                with_block_len!(n, gemv_seq_block::<_>(ys, xs, w, shape, r, s0))
            });
            r += 8;
        }
        if r < rows {
            for (y, x) in ys.chunks_exact_mut(rows).zip(xs.chunks_exact(cols)) {
                super::scalar::rowmajor_gemv_acc(&mut y[r..], x, &w[r * cols..]);
            }
        }
    }

    /// `W` `ymm` of row `r` of [`rank1_update_seq`], columns `j..`,
    /// carried in registers across all the steps.
    ///
    /// # Safety
    /// Requires AVX2 and `j + 8 * W <= cols`, with `row` pointing at
    /// `cols` floats and `us` / `vs` holding `t` steps.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn rank1_seq_tile<const W: usize>(
        row: *mut f32,
        alpha: f32,
        us: &[f32],
        vs: &[f32],
        (t, rows, cols): (usize, usize, usize),
        (r, j): (usize, usize),
        descending: bool,
    ) {
        let mut acc = [_mm256_setzero_ps(); W];
        for (a, lane) in acc.iter_mut().enumerate() {
            *lane = _mm256_loadu_ps(row.add(j + 8 * a));
        }
        let mut updated = false;
        for i in 0..t {
            let s = super::seq_step(i, t, descending);
            let c = alpha * us[s * rows + r];
            if c == 0.0 {
                continue;
            }
            updated = true;
            let cb = _mm256_set1_ps(c);
            let v = vs.as_ptr().add(s * cols + j);
            for (a, lane) in acc.iter_mut().enumerate() {
                *lane = _mm256_add_ps(*lane, _mm256_mul_ps(cb, _mm256_loadu_ps(v.add(8 * a))));
            }
        }
        if updated {
            for (a, &lane) in acc.iter().enumerate() {
                _mm256_storeu_ps(row.add(j + 8 * a), lane);
            }
        }
    }

    /// # Safety
    /// Requires AVX2 (callers check [`super::supported`]), a non-empty
    /// `w` of `rows × cols` floats, and `us` / `vs` holding the same
    /// whole number of `rows`- / `cols`-float steps — the public wrapper
    /// establishes all three. Interpreted by the Miri leg at small shapes
    /// like the other sequence bodies; covered on hardware by the
    /// end-of-allocation cases of `simd_identity`.
    ///
    /// Per element this is the per-step saxpy chain `w[r][j] += c · v[j]`
    /// with `c = alpha · u[r]`, one term per step in step order, steps
    /// with `c == 0.0` skipped — only the loop nest differs: row, then
    /// column tile (32, then 8 floats, then a scalar tail), then step,
    /// so a tile is loaded and stored once per sequence, and not stored
    /// at all when every step skipped it.
    #[target_feature(enable = "avx2")]
    pub unsafe fn rank1_update_seq(
        w: &mut [f32],
        alpha: f32,
        us: &[f32],
        vs: &[f32],
        t: usize,
        (rows, cols): (usize, usize),
        descending: bool,
    ) {
        let shape = (t, rows, cols);
        for r in 0..rows {
            // SAFETY: row `r < rows` of a `rows × cols` matrix; each
            // tile call is made with `j + width <= cols`.
            let row = w.as_mut_ptr().add(r * cols);
            let mut j = 0;
            while j + 32 <= cols {
                rank1_seq_tile::<4>(row, alpha, us, vs, shape, (r, j), descending);
                j += 32;
            }
            while j + 8 <= cols {
                rank1_seq_tile::<1>(row, alpha, us, vs, shape, (r, j), descending);
                j += 8;
            }
            if j < cols {
                let tail = &mut w[r * cols + j..(r + 1) * cols];
                for i in 0..t {
                    let s = super::seq_step(i, t, descending);
                    let c = alpha * us[s * rows + r];
                    if c == 0.0 {
                        continue;
                    }
                    super::scalar::saxpy(tail, c, &vs[s * cols + j..(s + 1) * cols]);
                }
            }
        }
    }

    /// `W` `ymm` of output columns `j..` of [`gemv_t_acc_seq`] for `N`
    /// consecutive steps: each weight-row tile is loaded once and feeds
    /// all `N` steps' chains.
    ///
    /// # Safety
    /// Requires AVX2 and `j + 8 * W <= cols`, with `w` a `rows × cols`
    /// matrix and `ys` / `xs` holding steps `s0..s0 + N`.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn gemv_t_seq_tile<const N: usize, const W: usize>(
        ys: &mut [f32],
        xs: &[f32],
        w: &[f32],
        (rows, cols): (usize, usize),
        j: usize,
        s0: usize,
    ) {
        let yp = ys.as_mut_ptr().add(s0 * cols + j);
        let xp = xs.as_ptr().add(s0 * rows);
        let wp = w.as_ptr().add(j);
        let mut acc = [[_mm256_setzero_ps(); W]; N];
        for (a, step) in acc.iter_mut().enumerate() {
            for (b, lane) in step.iter_mut().enumerate() {
                *lane = _mm256_loadu_ps(yp.add(a * cols + 8 * b));
            }
        }
        for r in 0..rows {
            let mut row = [_mm256_setzero_ps(); W];
            for (b, tile) in row.iter_mut().enumerate() {
                *tile = _mm256_loadu_ps(wp.add(r * cols + 8 * b));
            }
            for (a, step) in acc.iter_mut().enumerate() {
                let x = *xp.add(a * rows + r);
                if x == 0.0 {
                    continue;
                }
                let xb = _mm256_set1_ps(x);
                for (lane, &tile) in step.iter_mut().zip(&row) {
                    *lane = _mm256_add_ps(*lane, _mm256_mul_ps(xb, tile));
                }
            }
        }
        for (a, step) in acc.iter().enumerate() {
            for (b, &lane) in step.iter().enumerate() {
                _mm256_storeu_ps(yp.add(a * cols + 8 * b), lane);
            }
        }
    }

    /// # Safety
    /// Requires AVX2 (callers check [`super::supported`]), a non-empty
    /// `w` of `rows × cols` floats, and `ys` / `xs` holding the same
    /// whole number of `cols`- / `rows`-float steps — the public wrapper
    /// establishes all three. Interpreted by the Miri leg at small shapes
    /// like the other sequence bodies; covered on hardware by the
    /// end-of-allocation cases of `simd_identity`.
    ///
    /// Per `(step, column)` this is the per-step chain
    /// `y[j] += x[r] · w[r][j]` over ascending `r`, rows with
    /// `x[r] == 0.0` skipped, seeded from `y` as in [`gemv_t_acc`]. A
    /// tile is 16 (then 8) columns × up to six steps; `cols % 8` columns
    /// take the per-step scalar path.
    #[target_feature(enable = "avx2")]
    pub unsafe fn gemv_t_acc_seq(
        ys: &mut [f32],
        xs: &[f32],
        w: &[f32],
        t: usize,
        shape: (usize, usize),
    ) {
        let (rows, cols) = shape;
        let mut j = 0;
        // SAFETY (both tile loops): `j + width <= cols` bounds every
        // load and store on a `cols`-float row of `ys` or `w`.
        while j + 16 <= cols {
            for_step_blocks(t, |s0, n| {
                with_block_len!(n, gemv_t_seq_tile::<_, 2>(ys, xs, w, shape, j, s0))
            });
            j += 16;
        }
        while j + 8 <= cols {
            for_step_blocks(t, |s0, n| {
                with_block_len!(n, gemv_t_seq_tile::<_, 1>(ys, xs, w, shape, j, s0))
            });
            j += 8;
        }
        if j < cols {
            for (y, x) in ys.chunks_exact_mut(cols).zip(xs.chunks_exact(rows)) {
                for (row, &xr) in w.chunks_exact(cols).zip(x) {
                    if xr == 0.0 {
                        continue;
                    }
                    super::scalar::saxpy(&mut y[j..], xr, &row[j..]);
                }
            }
        }
    }

    /// # Safety
    /// Requires AVX2 (callers check [`super::supported`]).
    ///
    /// Full 8-chunks vectorised, tail folded into the same lanes — the
    /// exact layout `scalar::dot_lanes` emulates.
    #[target_feature(enable = "avx2")]
    pub unsafe fn dot_lanes(lanes: &mut [f32; 8], a: &[f32], b: &[f32]) {
        let n = a.len();
        let ap = a.as_ptr();
        let bp = b.as_ptr();
        let mut acc = _mm256_setzero_ps();
        let mut i = 0;
        while i + 8 <= n {
            let av = _mm256_loadu_ps(ap.add(i));
            let bv = _mm256_loadu_ps(bp.add(i));
            acc = _mm256_add_ps(acc, _mm256_mul_ps(av, bv));
            i += 8;
        }
        _mm256_storeu_ps(lanes.as_mut_ptr(), acc);
        while i < n {
            lanes[i % 8] += a[i] * b[i];
            i += 1;
        }
    }

    /// Lane-parallel [`super::exp_approx`]: the identical operation
    /// sequence, eight lanes at a time.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn exp8(x: __m256) -> __m256 {
        let x = _mm256_min_ps(
            _mm256_max_ps(x, _mm256_set1_ps(EXP_LO)),
            _mm256_set1_ps(EXP_HI),
        );
        let n = _mm256_round_ps::<{ _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC }>(
            _mm256_mul_ps(x, _mm256_set1_ps(LOG2E)),
        );
        let r = _mm256_sub_ps(x, _mm256_mul_ps(n, _mm256_set1_ps(LN2_HI)));
        let r = _mm256_sub_ps(r, _mm256_mul_ps(n, _mm256_set1_ps(LN2_LO)));
        let r2 = _mm256_mul_ps(r, r);
        let mut p = _mm256_set1_ps(EXP_P0);
        p = _mm256_add_ps(_mm256_mul_ps(p, r), _mm256_set1_ps(EXP_P1));
        p = _mm256_add_ps(_mm256_mul_ps(p, r), _mm256_set1_ps(EXP_P2));
        p = _mm256_add_ps(_mm256_mul_ps(p, r), _mm256_set1_ps(EXP_P3));
        p = _mm256_add_ps(_mm256_mul_ps(p, r), _mm256_set1_ps(EXP_P4));
        p = _mm256_add_ps(_mm256_mul_ps(p, r), _mm256_set1_ps(EXP_P5));
        let y = _mm256_add_ps(_mm256_add_ps(_mm256_mul_ps(p, r2), r), _mm256_set1_ps(1.0));
        let ni = _mm256_cvtps_epi32(n);
        let two_n = _mm256_castsi256_ps(_mm256_slli_epi32::<23>(_mm256_add_epi32(
            ni,
            _mm256_set1_epi32(127),
        )));
        _mm256_mul_ps(y, two_n)
    }

    /// # Safety
    /// Requires AVX2 (callers check [`super::supported`]).
    ///
    /// Eight f32s per iteration: integer round-to-nearest-even, shift,
    /// then an unsigned dword→word pack. `packus` works per 128-bit
    /// lane, so a qword permute restores element order before the store.
    #[target_feature(enable = "avx2")]
    pub unsafe fn narrow_bf16(dst: &mut [u16], src: &[f32]) {
        let n = dst.len();
        let sp = src.as_ptr();
        let dp = dst.as_mut_ptr();
        let bias = _mm256_set1_epi32(0x7FFF);
        let one = _mm256_set1_epi32(1);
        let mut i = 0;
        while i + 8 <= n {
            let v = _mm256_castps_si256(_mm256_loadu_ps(sp.add(i)));
            let lsb = _mm256_and_si256(_mm256_srli_epi32::<16>(v), one);
            let r = _mm256_add_epi32(v, _mm256_add_epi32(bias, lsb));
            // Each dword now holds the target word in [0, 0xFFFF]:
            // packus never saturates here.
            let hi = _mm256_srli_epi32::<16>(r);
            let packed = _mm256_packus_epi32(hi, hi);
            let ordered = _mm256_permute4x64_epi64::<0b00_00_10_00>(packed);
            _mm_storeu_si128(dp.add(i) as *mut _, _mm256_castsi256_si128(ordered));
            i += 8;
        }
        while i < n {
            dst[i] = super::narrow_bf16_one(src[i]);
            i += 1;
        }
    }

    /// # Safety
    /// Requires AVX2 (callers check [`super::supported`]).
    #[target_feature(enable = "avx2")]
    pub unsafe fn widen_bf16(dst: &mut [f32], src: &[u16]) {
        let n = dst.len();
        let sp = src.as_ptr();
        let dp = dst.as_mut_ptr();
        let mut i = 0;
        while i + 8 <= n {
            let q = _mm_loadu_si128(sp.add(i) as *const _);
            let wide = _mm256_slli_epi32::<16>(_mm256_cvtepu16_epi32(q));
            _mm256_storeu_ps(dp.add(i), _mm256_castsi256_ps(wide));
            i += 8;
        }
        while i < n {
            dst[i] = super::widen_bf16_one(src[i]);
            i += 1;
        }
    }

    /// # Safety
    /// Requires AVX2 (callers check [`super::supported`]).
    #[target_feature(enable = "avx2")]
    pub unsafe fn sum_exp_lanes(lanes: &mut [f32; 8], x: &[f32], m: f32) {
        let n = x.len();
        let xp = x.as_ptr();
        let mv = _mm256_set1_ps(m);
        let mut acc = _mm256_setzero_ps();
        let mut i = 0;
        while i + 8 <= n {
            let v = _mm256_sub_ps(_mm256_loadu_ps(xp.add(i)), mv);
            acc = _mm256_add_ps(acc, exp8(v));
            i += 8;
        }
        _mm256_storeu_ps(lanes.as_mut_ptr(), acc);
        while i < n {
            lanes[i % 8] += super::exp_approx(x[i] - m);
            i += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data(n: usize, seed: f32) -> Vec<f32> {
        (0..n)
            .map(|i| ((i as f32) * 0.73 + seed).sin() * 2.0)
            .collect()
    }

    #[test]
    fn force_scalar_parsing() {
        assert!(!force_scalar_requested(None));
        assert!(!force_scalar_requested(Some("")));
        assert!(!force_scalar_requested(Some("0")));
        assert!(!force_scalar_requested(Some("false")));
        assert!(!force_scalar_requested(Some("FALSE")));
        assert!(force_scalar_requested(Some("1")));
        assert!(force_scalar_requested(Some("yes")));
    }

    #[test]
    fn scalar_always_supported_and_listed_first() {
        assert!(supported(Level::Scalar));
        let want = if supported(Level::Avx2) {
            vec![Level::Scalar, Level::Avx2]
        } else {
            vec![Level::Scalar]
        };
        assert_eq!(supported_levels(), want);
    }

    #[test]
    fn with_level_restores_after_panic() {
        let before = active();
        let result = std::panic::catch_unwind(|| {
            with_level(Level::Scalar, || {
                assert_eq!(active(), Level::Scalar);
                panic!("boom");
            })
        });
        assert!(result.is_err());
        assert_eq!(active(), before);
    }

    #[test]
    fn saxpy_levels_bit_identical() {
        for n in [0usize, 1, 3, 4, 5, 7, 8, 9, 16, 31, 33, 100] {
            let x = data(n, 0.1);
            let y0 = data(n, 2.5);
            let mut reference = y0.clone();
            with_level(Level::Scalar, || saxpy(&mut reference, 0.37, &x));
            for &level in &supported_levels() {
                let mut y = y0.clone();
                with_level(level, || saxpy(&mut y, 0.37, &x));
                for (a, b) in y.iter().zip(&reference) {
                    assert_eq!(a.to_bits(), b.to_bits(), "{} n={n}", level.name());
                }
            }
        }
    }

    #[test]
    fn add_and_scale_levels_bit_identical() {
        for n in [0usize, 1, 4, 7, 8, 9, 33] {
            let x = data(n, 1.0);
            let y0 = data(n, -0.5);
            let mut add_ref = y0.clone();
            let mut scale_ref = y0.clone();
            with_level(Level::Scalar, || {
                add_assign(&mut add_ref, &x);
                scale(&mut scale_ref, -1.25);
            });
            for &level in &supported_levels() {
                let mut ya = y0.clone();
                let mut ys = y0.clone();
                with_level(level, || {
                    add_assign(&mut ya, &x);
                    scale(&mut ys, -1.25);
                });
                assert!(ya
                    .iter()
                    .zip(&add_ref)
                    .all(|(a, b)| a.to_bits() == b.to_bits()));
                assert!(ys
                    .iter()
                    .zip(&scale_ref)
                    .all(|(a, b)| a.to_bits() == b.to_bits()));
            }
        }
    }

    #[test]
    fn max_matches_fold_on_finite() {
        for n in [0usize, 1, 5, 8, 9, 40] {
            let x = data(n, 3.0);
            let expect = x.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            for &level in &supported_levels() {
                let got = with_level(level, || max(&x));
                assert_eq!(got.to_bits(), expect.to_bits(), "{} n={n}", level.name());
            }
        }
    }

    #[test]
    fn colmajor_levels_bit_identical() {
        for (m, n) in [
            (0usize, 5usize),
            (3, 0),
            (1, 1),
            (5, 7),
            (4, 16),
            (7, 32),
            (6, 37),
            (9, 70),
            // The serving decode's in-place forms at d = 32: recurrent
            // gates, composite layer, a 188-word output layer — each
            // accumulating onto a bias already in `y`.
            (32, 128),
            (96, 32),
            (32, 188),
        ] {
            let x = data(m, 0.2);
            let wt = data(m * n, 1.7);
            let mut reference = data(n, -1.0);
            with_level(Level::Scalar, || colmajor_gemv_acc(&mut reference, &x, &wt));
            for &level in &supported_levels() {
                let mut y = data(n, -1.0);
                with_level(level, || colmajor_gemv_acc(&mut y, &x, &wt));
                for (a, b) in y.iter().zip(&reference) {
                    assert_eq!(a.to_bits(), b.to_bits(), "{} {m}x{n}", level.name());
                }
            }
        }
    }

    #[test]
    fn colmajor_matches_per_output_dot() {
        // The contract: y[j] += the scalar ascending-index dot.
        let m = 5;
        let n = 9;
        let x = data(m, 0.4);
        let wt = data(m * n, 2.2);
        let mut y = vec![0.0f32; n];
        colmajor_gemv_acc(&mut y, &x, &wt);
        for (j, &yj) in y.iter().enumerate() {
            let mut acc = 0.0f32;
            for (k, &xv) in x.iter().enumerate() {
                acc += xv * wt[k * n + j];
            }
            assert_eq!(yj.to_bits(), acc.to_bits(), "j={j}");
        }
    }

    #[test]
    #[should_panic(expected = "weight shape mismatch")]
    fn colmajor_shape_mismatch_panics() {
        let mut y = [0.0f32; 2];
        colmajor_gemv_acc(&mut y, &[1.0], &[1.0; 3]);
    }

    /// Small shapes on purpose: this is the test the Miri leg interprets
    /// (through the AVX2 bodies), and every buffer is an exact-size
    /// allocation, so an overrunning row-block load is an out-of-bounds
    /// read. The exhaustive sweep lives in `tests/simd_identity.rs`.
    #[test]
    fn rowmajor_kernels_levels_bit_identical() {
        for (rows, cols) in [
            (0usize, 5usize),
            (3, 0),
            (1, 1),
            (4, 4),
            (5, 7),
            (8, 8),
            (9, 13),
            (17, 10),
        ] {
            let w = data(rows * cols, 1.7).into_boxed_slice();
            let xc = data(cols, 0.2).into_boxed_slice();
            // Every third coefficient is an exact zero, so the skip runs.
            let xr: Box<[f32]> = data(rows, 0.9)
                .iter()
                .enumerate()
                .map(|(i, &v)| if i % 3 == 1 { 0.0 } else { v })
                .collect();
            let run = |level| {
                with_level(level, || {
                    let mut gemv = data(rows, -1.0).into_boxed_slice();
                    rowmajor_gemv_acc(&mut gemv, &xc, &w);
                    let mut outer = w.clone();
                    rank1_update(&mut outer, 0.5, &xr, &xc);
                    let mut gemv_t = data(cols, 2.0).into_boxed_slice();
                    gemv_t_acc(&mut gemv_t, &xr, &w);
                    (gemv, outer, gemv_t)
                })
            };
            let want = run(Level::Scalar);
            for &level in &supported_levels() {
                let got = run(level);
                for (g, w) in [(&got.0, &want.0), (&got.1, &want.1), (&got.2, &want.2)] {
                    assert!(
                        g.iter()
                            .zip(w.iter())
                            .all(|(a, b)| a.to_bits() == b.to_bits()),
                        "{} {rows}x{cols}",
                        level.name()
                    );
                }
            }
        }
    }

    /// The small-shape twin of `simd_identity`'s sequence sweep, for the
    /// Miri leg: every sequence kernel against `t` per-step calls at the
    /// same level, on exact-size allocations, both step orders, with an
    /// exact-zero coefficient in every other step.
    #[test]
    fn sequence_kernels_are_t_per_step_calls_at_every_level() {
        for (rows, cols, t) in [
            (0usize, 3usize, 2usize),
            (3, 0, 2),
            (5, 7, 0),
            (1, 1, 1),
            (4, 4, 3),
            (9, 13, 2),
            (8, 17, 7),
        ] {
            let w = data(rows * cols, 1.7).into_boxed_slice();
            let xc = data(t * cols, 0.2).into_boxed_slice();
            let xr: Box<[f32]> = data(t * rows, 0.9)
                .iter()
                .enumerate()
                .map(|(i, &v)| if i % 2 == 1 { 0.0 } else { v })
                .collect();
            for &level in &supported_levels() {
                with_level(level, || {
                    let mut gemv = data(t * rows, -1.0).into_boxed_slice();
                    let mut gemv_t = data(t * cols, 2.0).into_boxed_slice();
                    let (mut want_gemv, mut want_gemv_t) = (gemv.clone(), gemv_t.clone());
                    rowmajor_gemv_acc_seq(&mut gemv, &xc, &w, t);
                    gemv_t_acc_seq(&mut gemv_t, &xr, &w, t);
                    for s in 0..t {
                        let (x, u) = (&xc[s * cols..][..cols], &xr[s * rows..][..rows]);
                        rowmajor_gemv_acc(&mut want_gemv[s * rows..][..rows], x, &w);
                        gemv_t_acc(&mut want_gemv_t[s * cols..][..cols], u, &w);
                    }
                    let same = |a: &[f32], b: &[f32]| {
                        a.iter().zip(b).all(|(p, q)| p.to_bits() == q.to_bits())
                    };
                    let case = format!("{} {rows}x{cols} t={t}", level.name());
                    assert!(same(&gemv, &want_gemv), "gemv {case}");
                    assert!(same(&gemv_t, &want_gemv_t), "gemv_t {case}");
                    for descending in [false, true] {
                        let (mut outer, mut want) = (w.clone(), w.clone());
                        rank1_update_seq(&mut outer, 0.5, &xr, &xc, t, descending);
                        for i in 0..t {
                            let s = if descending { t - 1 - i } else { i };
                            let (u, v) = (&xr[s * rows..][..rows], &xc[s * cols..][..cols]);
                            rank1_update(&mut want, 0.5, u, v);
                        }
                        assert!(same(&outer, &want), "rank1 {case} desc={descending}");
                    }
                });
            }
        }
    }

    #[test]
    #[should_panic(expected = "whole number of steps")]
    fn sequence_slab_must_be_whole_steps() {
        let mut ys = [0.0f32; 5];
        rowmajor_gemv_acc_seq(&mut ys, &[1.0; 4], &[1.0; 4], 2);
    }

    #[test]
    fn rowmajor_gemv_acc_is_the_per_row_dot_and_skips_zero_columns() {
        let (rows, cols) = (9, 11);
        let w = data(rows * cols, 2.2);
        let x = data(cols, 0.4);
        let mut y = vec![0.0f32; rows];
        rowmajor_gemv_acc(&mut y, &x, &w);
        for (r, &yr) in y.iter().enumerate() {
            let mut acc = 0.0f32;
            for (k, &xv) in x.iter().enumerate() {
                acc += w[r * cols + k] * xv;
            }
            assert_eq!(yr.to_bits(), acc.to_bits(), "r={r}");
        }
        // A zero-column matrix adds nothing — not even `+0.0`.
        let mut y = [-0.0f32; 3];
        rowmajor_gemv_acc(&mut y, &[], &[]);
        assert!(y.iter().all(|v| v.to_bits() == (-0.0f32).to_bits()));
    }

    #[test]
    #[should_panic(expected = "weight shape mismatch")]
    fn rowmajor_shape_mismatch_panics() {
        let mut y = [0.0f32; 2];
        rowmajor_gemv_acc(&mut y, &[1.0], &[1.0; 3]);
    }

    #[test]
    fn exp_approx_accurate_on_lse_domain() {
        for i in 0..2000 {
            let x = -87.0 + (i as f32) * 0.04; // [-87, -7]
            let exact = x.exp();
            let got = exp_approx(x);
            let rel = ((got - exact) / exact.max(f32::MIN_POSITIVE)).abs();
            assert!(
                rel < 3e-6,
                "x={x}: got {got:e}, exact {exact:e}, rel {rel:e}"
            );
        }
        assert_eq!(exp_approx(0.0), 1.0);
        assert!(exp_approx(-1000.0) > 0.0); // clamped, not flushed to zero
    }

    #[test]
    fn relaxed_kernels_deterministic_across_levels() {
        for n in [0usize, 1, 7, 8, 9, 64, 150, 257] {
            let a = data(n, 0.3);
            let b = data(n, 1.1);
            let dot_ref = with_level(Level::Scalar, || dot_relaxed(&a, &b));
            let m = scalar::max(&a);
            let se_ref = with_level(Level::Scalar, || sum_exp_relaxed(&a, m));
            for &level in &supported_levels() {
                let dot = with_level(level, || dot_relaxed(&a, &b));
                let se = with_level(level, || sum_exp_relaxed(&a, m));
                assert_eq!(dot.to_bits(), dot_ref.to_bits(), "{} n={n}", level.name());
                assert_eq!(se.to_bits(), se_ref.to_bits(), "{} n={n}", level.name());
            }
        }
    }

    #[test]
    fn bf16_round_trip_error_bounded_and_exact_on_bf16_values() {
        for n in [0usize, 1, 3, 4, 5, 7, 8, 9, 16, 31, 33, 100] {
            let x = data(n, 0.6);
            let mut q = vec![0u16; n];
            let mut back = vec![0.0f32; n];
            narrow_bf16(&mut q, &x);
            widen_bf16(&mut back, &q);
            for (&orig, &rt) in x.iter().zip(&back) {
                // Round-to-nearest on 8 explicit mantissa bits: relative
                // error at most 2^-8.
                assert!(
                    (rt - orig).abs() <= orig.abs() * (1.0 / 256.0) + f32::MIN_POSITIVE,
                    "orig {orig} round-tripped to {rt}"
                );
            }
            // Values already representable in bf16 survive unchanged.
            let mut q2 = vec![0u16; n];
            narrow_bf16(&mut q2, &back);
            assert_eq!(q, q2);
        }
    }

    #[test]
    fn bf16_rounds_to_nearest_even() {
        // 1.0 + 2^-9 sits exactly between bf16(1.0) and the next bf16
        // value; ties go to the even mantissa (1.0).
        let tie = f32::from_bits(0x3F80_8000);
        assert_eq!(narrow_bf16_one(tie), 0x3F80);
        // One ulp above the tie rounds up.
        let above = f32::from_bits(0x3F80_8001);
        assert_eq!(narrow_bf16_one(above), 0x3F81);
        // The next tie (odd kept mantissa) rounds up to even.
        let tie_odd = f32::from_bits(0x3F81_8000);
        assert_eq!(narrow_bf16_one(tie_odd), 0x3F82);
        // Specials pass through.
        assert_eq!(
            widen_bf16_one(narrow_bf16_one(f32::INFINITY)),
            f32::INFINITY
        );
        assert!(widen_bf16_one(narrow_bf16_one(f32::NAN)).is_nan());
        assert_eq!(narrow_bf16_one(0.0), 0);
        assert_eq!(narrow_bf16_one(-0.0), 0x8000);
    }

    #[test]
    fn bf16_levels_bit_identical() {
        for n in [0usize, 1, 3, 4, 7, 8, 9, 15, 16, 17, 33, 100] {
            let x = data(n, 1.4);
            let mut q_ref = vec![0u16; n];
            with_level(Level::Scalar, || narrow_bf16(&mut q_ref, &x));
            let mut w_ref = vec![0.0f32; n];
            with_level(Level::Scalar, || widen_bf16(&mut w_ref, &q_ref));
            for &level in &supported_levels() {
                let mut q = vec![0u16; n];
                let mut w = vec![0.0f32; n];
                with_level(level, || {
                    narrow_bf16(&mut q, &x);
                    widen_bf16(&mut w, &q_ref);
                });
                assert_eq!(q, q_ref, "narrow {} n={n}", level.name());
                assert!(
                    w.iter()
                        .zip(&w_ref)
                        .all(|(a, b)| a.to_bits() == b.to_bits()),
                    "widen {} n={n}",
                    level.name()
                );
            }
        }
    }

    #[test]
    fn relaxed_dot_close_to_exact() {
        let n = 200;
        let a = data(n, 0.9);
        let b = data(n, -0.4);
        let exact: f32 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
        let relaxed = dot_relaxed(&a, &b);
        assert!((relaxed - exact).abs() <= 1e-3 * exact.abs().max(1.0));
        assert_eq!(
            scalar::dot_relaxed(&a, &b).to_bits(),
            with_level(Level::Scalar, || dot_relaxed(&a, &b)).to_bits()
        );
    }
}
