//! Runtime-dispatched SIMD kernels (AVX-512 / AVX2 / scalar).
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
//! * [`scatter_add_scaled`] is element-wise too, through an index list:
//!   its contract (strictly ascending, in-range indices, checked at
//!   every level) makes the eight targets of a vector distinct, so a
//!   gather, one `mul` and one `add` per lane, and eight single-lane
//!   stores are the scalar loop's operations on each element.
//! * [`take_mask_above`] only copies, zeroes and compares, which no
//!   level can round differently.
//!
//! This is what lets the serving cache's "same score to the last bit"
//! guarantee, the golden serving snapshot, and the bit-identical
//! parallel-training losses survive vectorisation unchanged.
//!
//! The activation functions (`exp`, `tanh`, `sigmoid` over slices) are
//! the same idea applied to element-wise transcendental functions and
//! live in [`crate::libm`], which dispatches on this module's [`Level`].
//!
//! # Dispatch
//!
//! There are three levels, and the level is detected once per process
//! ([`active`]): AVX-512 when the CPU reports AVX-512F and FMA beside
//! AVX2, else AVX2 when it reports that, otherwise the scalar reference
//! — the same bits by the contract above, so a narrower CPU (or one off
//! `x86_64`) is slower, never different. Setting the environment
//! variable `NCL_FORCE_SCALAR` (to anything but `0`/`false`/empty)
//! forces the scalar path over every level — the CI scalar-fallback leg
//! runs the whole suite this way. Benches and tests use [`with_level`]
//! to pin a specific level on the current thread.
//!
//! [`Level::Avx512`] is a superset of [`Level::Avx2`]: only
//! [`colmajor_gemv_acc`] (at wide outputs), [`crate::libm`]'s
//! `sigmoid` / `tanh` slices and the three training sequence kernels
//! ([`rowmajor_gemv_acc_seq`], [`rank1_update_seq`], [`gemv_t_acc_seq`])
//! have 16-lane bodies; every other kernel — the per-step kernels behind
//! a sequence's `T = 1` hand-off included — runs its AVX2 body there.
//!
//! # Adding a kernel
//!
//! 1. Write the scalar reference with an explicit, documented rounding
//!    order (fresh accumulators, ascending index, mul-then-add).
//! 2. Mirror it per lane in an `avx2` `#[target_feature]` function —
//!    same operations, same order, no FMA for exact kernels.
//! 3. Dispatch on [`active`] in the public wrapper; the AVX2 arm is
//!    `Level::Avx2 | Level::Avx512`.
//! 4. A 16-lane `avx512` body lands only with a `fig16_kernels` row
//!    (an `*_avx512_vs_avx2` key) that shows it beating the AVX2 body
//!    at the shapes it takes; below its crossover the AVX2 body stays.
//!    It need not be the AVX2 loop nest widened: when a per-output chain
//!    rather than lane width bounds the AVX2 body, the 16-lane one needs
//!    a schedule of its own (`rank1_update_seq` holds a block of four
//!    rows, so each step's `v` tile is loaded once for all four).
//! 5. Add the kernel to the bit-identity proptests
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
    /// 512-bit AVX-512F lanes (with FMA) for the kernels that have a
    /// 16-lane body, the AVX2 bodies for the rest.
    Avx512,
}

impl Level {
    /// Human-readable name (`"scalar"`, `"avx2"`, `"avx512"`).
    pub fn name(self) -> &'static str {
        match self {
            Level::Scalar => "scalar",
            Level::Avx2 => "avx2",
            Level::Avx512 => "avx512",
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
    if force_scalar_requested(std::env::var("NCL_FORCE_SCALAR").ok().as_deref()) {
        return Level::Scalar;
    }
    [Level::Avx512, Level::Avx2]
        .into_iter()
        .find(|&l| supported(l))
        .unwrap_or(Level::Scalar)
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
/// can; [`Level::Avx2`] needs an `x86_64` CPU that reports AVX2, and
/// [`Level::Avx512`] one that also reports FMA and AVX-512F — the
/// features its 16-lane bodies enable.
pub fn supported(level: Level) -> bool {
    match level {
        Level::Scalar => true,
        #[cfg(target_arch = "x86_64")]
        Level::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
        #[cfg(target_arch = "x86_64")]
        Level::Avx512 => {
            supported(Level::Avx2)
                && std::arch::is_x86_feature_detected!("fma")
                && std::arch::is_x86_feature_detected!("avx512f")
        }
        #[cfg(not(target_arch = "x86_64"))]
        Level::Avx2 | Level::Avx512 => false,
    }
}

/// All levels [`supported`] on this machine, scalar first — the
/// iteration order of the bit-identity test suites.
pub fn supported_levels() -> Vec<Level> {
    [Level::Scalar, Level::Avx2, Level::Avx512]
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
        Level::Avx2 | Level::Avx512 => unsafe { avx2::saxpy(y, alpha, x) },
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
        Level::Avx2 | Level::Avx512 => unsafe { avx2::add_assign(y, x) },
        _ => scalar::add_assign(y, x),
    }
}

/// In-place `y[i] *= alpha`, bit-identical to the scalar loop.
pub fn scale(y: &mut [f32], alpha: f32) {
    match active() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: AVX2 was verified by `active()`'s detection.
        Level::Avx2 | Level::Avx512 => unsafe { avx2::scale(y, alpha) },
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
        Level::Avx2 | Level::Avx512 => unsafe { avx2::max(x) },
        _ => scalar::max(x),
    }
}

/// The panic message of a [`scatter_add_scaled`] index list that breaks
/// its contract, the same at every level.
const SCATTER_CONTRACT: &str =
    "scatter_add_scaled: indices must be strictly ascending and below acc.len()";

/// Scaled scatter-accumulate: `acc[idx[i]] += a * x[i]` for ascending
/// `i`, a separate `mul` and `add` per element (never an FMA) — the
/// accumulate of a term-at-a-time inverted-index scan, one posting list
/// into a dense per-document accumulator.
///
/// `idx` must be **strictly ascending** with every index `< acc.len()`,
/// which is what lets the AVX2 level work eight indices at a time: the
/// eight targets of a vector are distinct, so it gathers them, does the
/// eight `mul`s and `add`s, and stores the lanes back one by one —
/// every element still gets exactly the scalar loop's one rounded
/// `mul` and one rounded `add`, so the result is bit-identical at every
/// level. The contract is checked at every level and breaking it panics
/// on exactly the same inputs; the AVX2 body checks a whole vector
/// before it stores any of that vector's lanes.
///
/// # Panics
/// Panics if `idx.len() != x.len()`, or if `idx` is not strictly
/// ascending or names an index `>= acc.len()`.
pub fn scatter_add_scaled(acc: &mut [f32], idx: &[u32], x: &[f32], a: f32) {
    assert_eq!(idx.len(), x.len(), "scatter_add_scaled: dimension mismatch");
    if idx.is_empty() {
        return;
    }
    assert!(!acc.is_empty(), "{SCATTER_CONTRACT}");
    match active() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: AVX2 was verified by `active()`'s detection; the body
        // checks every index it gathers or stores through.
        Level::Avx2 | Level::Avx512 => unsafe { avx2::scatter_add_scaled(acc, idx, x, a) },
        _ => scalar::scatter_add_scaled(acc, idx, x, a, None),
    }
}

/// Takes a block of at most 64 values: copies `src` into `dst`, leaves
/// `src` zeroed (`+0.0`), and returns the mask of the slots whose value
/// is `> floor` — bit `i` for slot `i`; `NaN` is never above. The
/// selection pass of a term-at-a-time top-k scan reads its accumulator
/// through this, one 64-document block at a time, and re-zeroes it in
/// the same pass. Copies, zeros and compares are exact, so every level
/// returns the same mask and the same bits.
///
/// # Panics
/// Panics if `dst.len() != src.len()` or `src.len() > 64`.
pub fn take_mask_above(src: &mut [f32], dst: &mut [f32], floor: f32) -> u64 {
    assert_eq!(src.len(), dst.len(), "take_mask_above: dimension mismatch");
    assert!(src.len() <= 64, "take_mask_above: more than 64 slots");
    match active() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: AVX2 was verified by `active()`'s detection.
        Level::Avx2 | Level::Avx512 => unsafe { avx2::take_mask_above(src, dst, floor) },
        _ => scalar::take_mask_above(src, dst, floor),
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
/// across them while every lane reproduces the scalar reduction. At
/// [`Level::Avx512`] a product with more than 32 outputs runs sixteen
/// lanes; a narrower one keeps the AVX2 body.
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
        // SAFETY: AVX-512F was verified by `active()`'s detection.
        Level::Avx512 if y.len() >= COLMAJOR_ZMM_MIN_OUTPUTS => unsafe {
            avx512::colmajor_gemv_acc(y, x, wt)
        },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: AVX2 was verified by `active()`'s detection.
        Level::Avx2 | Level::Avx512 => unsafe { avx2::colmajor_gemv_acc(y, x, wt) },
        _ => scalar::colmajor_gemv_acc(y, x, wt),
    }
}

/// The fewest outputs [`colmajor_gemv_acc`] takes its 16-lane body for
/// at [`Level::Avx512`]. Measured with the 16-lane body forced at every
/// width, it is no faster than the AVX2 one at 32 outputs × 96 inputs
/// (the composite layer), so 32 outputs and fewer keep the AVX2 body;
/// from 33 up (the decoder's 128, the 188-word output row) it wins
/// (DESIGN.md §14 has the sweep).
#[cfg(target_arch = "x86_64")]
const COLMAJOR_ZMM_MIN_OUTPUTS: usize = 33;

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
        Level::Avx2 | Level::Avx512 => unsafe { avx2::rowmajor_gemv_acc(y, x, w) },
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
        Level::Avx2 | Level::Avx512 => unsafe { avx2::rank1_update(w, alpha, u, v) },
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
        Level::Avx2 | Level::Avx512 => unsafe { avx2::gemv_t_acc(y, x, w) },
        _ => scalar::gemv_t_acc(y, x, w),
    }
}

// ---------------------------------------------------------------------------
// Sequence kernels: one call per sequence instead of one per time step.
//
// Each is *defined as* `t` successive calls of the per-step kernel above
// on row `s` of its flat `t × n` slabs — the scalar level is literally
// that loop — and the AVX2 and AVX-512 bodies only reschedule work whose
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

/// Steps per register block of the stacked kernels: with six steps'
/// accumulators live beside the eight transposed columns (or two
/// weight-row tiles) and one broadcast, all sixteen `ymm` are used. The
/// 16-lane bodies keep the same blocks.
#[cfg(target_arch = "x86_64")]
const SEQ_BLOCK: usize = 6;

/// Cuts `t` steps into the fewest blocks of at most [`SEQ_BLOCK`],
/// sized evenly (7 → 4 + 3, not 6 + 1), and calls `f(first, len)`
/// for each.
#[cfg(target_arch = "x86_64")]
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
#[cfg(target_arch = "x86_64")]
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
/// from memory once per sequence instead of once per step. At
/// [`Level::Avx512`] sixteen rows are the lanes.
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
        // SAFETY: AVX-512F was verified by `active()`'s detection;
        // `seq_shape` checked the slab and weight shapes the kernel's
        // loads rest on.
        Level::Avx512 => unsafe { avx512::rowmajor_gemv_acc_seq(ys, xs, w, t, (rows, cols)) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as above, for AVX2.
        Level::Avx2 => unsafe { avx2::rowmajor_gemv_acc_seq(ys, xs, w, t, (rows, cols), 0) },
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
/// coefficient is zero at every step is never written. At
/// [`Level::Avx512`] four rows' tiles are held at once, so each step's
/// `v` tile is loaded once for all four.
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
        // SAFETY: AVX-512F was verified by `active()`'s detection;
        // `seq_shape` checked the slab and weight shapes the kernel's
        // loads rest on.
        Level::Avx512 => unsafe {
            avx512::rank1_update_seq(w, alpha, us, vs, t, (rows, cols), descending)
        },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as above, for AVX2.
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
/// the per-step body is bound by the latency of its own four. At
/// [`Level::Avx512`] a tile is 32 columns, its last register masked.
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
        // SAFETY: AVX-512F was verified by `active()`'s detection;
        // `seq_shape` checked the slab and weight shapes the kernel's
        // loads rest on.
        Level::Avx512 => unsafe { avx512::gemv_t_acc_seq(ys, xs, w, t, (rows, cols)) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as above, for AVX2.
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
        Level::Avx2 | Level::Avx512 => unsafe { avx2::narrow_bf16(dst, src) },
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
        Level::Avx2 | Level::Avx512 => unsafe { avx2::widen_bf16(dst, src) },
        _ => scalar::widen_bf16(dst, src),
    }
}

// ---------------------------------------------------------------------------
// Scalar reference implementations.
// ---------------------------------------------------------------------------

mod scalar {
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

    /// `prev` is the index the caller stored through just before `idx[0]`
    /// (the AVX2 body hands its scalar tail the last vector's top lane).
    pub fn scatter_add_scaled(acc: &mut [f32], idx: &[u32], x: &[f32], a: f32, prev: Option<u32>) {
        let mut prev = prev;
        for (&d, &v) in idx.iter().zip(x) {
            assert!(
                (d as usize) < acc.len() && prev.is_none_or(|p| d > p),
                "{}",
                super::SCATTER_CONTRACT
            );
            acc[d as usize] += a * v;
            prev = Some(d);
        }
    }

    pub fn take_mask_above(src: &mut [f32], dst: &mut [f32], floor: f32) -> u64 {
        let mut mask = 0;
        for (i, (s, d)) in src.iter_mut().zip(dst).enumerate() {
            *d = std::mem::take(s);
            mask |= u64::from(*d > floor) << i;
        }
        mask
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
    /// Requires AVX2 (callers check [`super::supported`]), `idx.len() ==
    /// x.len()` and a non-empty `acc` — the public wrapper asserts both.
    /// Every gather and store goes through an index this body has just
    /// checked to be `< acc.len()`. The Miri leg interprets it over
    /// exact-size allocations (`scatter_add_scaled_levels_bit_identical`).
    ///
    /// Eight postings per vector. The eight indices are checked first —
    /// each `<= acc.len() − 1` (one unsigned compare), each above the
    /// lane before it (lane 0 against the previous vector's lane 7: one
    /// permute, one blend, one signed compare, exact once both lanes are
    /// in range) — and a vector that fails panics before storing
    /// anything. Then the eight accumulators are gathered, `acc + a·x`
    /// is computed lane-wise (mul, then add — no FMA), and the lanes are
    /// stored back one by one. Strictly ascending indices are distinct,
    /// so no lane's store lands on another lane's slot. The `len % 8`
    /// tail is the scalar loop, its ascending check continuing from the
    /// last vector's top lane.
    #[target_feature(enable = "avx2")]
    pub unsafe fn scatter_add_scaled(acc: &mut [f32], idx: &[u32], x: &[f32], a: f32) {
        let len = acc.len();
        if len > i32::MAX as usize {
            // The gather's offsets are signed 32-bit.
            return super::scalar::scatter_add_scaled(acc, idx, x, a, None);
        }
        let n = idx.len();
        let ap = acc.as_mut_ptr();
        let ip = idx.as_ptr();
        // The lane stores take their indices from memory through a
        // pointer the compiler cannot see is `ip`; otherwise it extracts
        // them from the index vector, and the eight extracts plus the
        // eight value extracts all queue on the one shuffle port.
        let store_ip = std::hint::black_box(ip);
        let xp = x.as_ptr();
        let av = _mm256_set1_ps(a);
        let last = _mm256_set1_epi32((len - 1) as i32);
        // Lane `l` of `permutevar8x32(v, rot)` is lane `l − 1` of `v`;
        // lane 0 gets lane 7, which is what `carry` hands the next vector.
        let rot = _mm256_setr_epi32(7, 0, 1, 2, 3, 4, 5, 6);
        // Before the first vector: −1, below every in-range index.
        let mut carry = _mm256_set1_epi32(-1);
        let mut lanes = [0.0f32; 8];
        let mut i = 0;
        while i + 8 <= n {
            let d = _mm256_loadu_si256(ip.add(i) as *const __m256i);
            let in_range = _mm256_cmpeq_epi32(_mm256_min_epu32(d, last), d);
            let rotated = _mm256_permutevar8x32_epi32(d, rot);
            let ascending = _mm256_cmpgt_epi32(d, _mm256_blend_epi32::<1>(rotated, carry));
            let ok = _mm256_and_si256(in_range, ascending);
            assert!(
                _mm256_movemask_ps(_mm256_castsi256_ps(ok)) == 0xFF,
                "{}",
                super::SCATTER_CONTRACT
            );
            carry = rotated;
            // SAFETY: every lane of `d` is in `0..len` and `len <=
            // i32::MAX`, so the gather's signed offsets stay inside `acc`;
            // the stores re-read the same eight entries of `idx`, which
            // the shared borrow keeps unchanged.
            let g = _mm256_i32gather_ps::<4>(ap, d);
            let sum = _mm256_add_ps(g, _mm256_mul_ps(av, _mm256_loadu_ps(xp.add(i))));
            _mm256_storeu_ps(lanes.as_mut_ptr(), sum);
            for (l, &v) in lanes.iter().enumerate() {
                *ap.add(*store_ip.add(i + l) as usize) = v;
            }
            i += 8;
        }
        let prev = i.checked_sub(1).map(|p| idx[p]);
        super::scalar::scatter_add_scaled(acc, &idx[i..], &x[i..], a, prev);
    }

    /// # Safety
    /// Requires AVX2 (callers check [`super::supported`]) and
    /// `dst.len() == src.len() <= 64` — the public wrapper asserts it.
    ///
    /// Eight slots per vector: one load, the copy and the zero stored,
    /// one ordered `>` compare (false on NaN, as the scalar `>`), one
    /// `movemask` into the mask's next eight bits; the `len % 8` tail is
    /// the scalar loop.
    #[target_feature(enable = "avx2")]
    pub unsafe fn take_mask_above(src: &mut [f32], dst: &mut [f32], floor: f32) -> u64 {
        let n = src.len();
        let sp = src.as_mut_ptr();
        let dp = dst.as_mut_ptr();
        let f = _mm256_set1_ps(floor);
        let mut mask = 0u64;
        let mut i = 0;
        while i + 8 <= n {
            let v = _mm256_loadu_ps(sp.add(i));
            _mm256_storeu_ps(dp.add(i), v);
            _mm256_storeu_ps(sp.add(i), _mm256_setzero_ps());
            let above = _mm256_movemask_ps(_mm256_cmp_ps::<_CMP_GT_OQ>(v, f));
            mask |= u64::from(above as u8) << i;
            i += 8;
        }
        if i < n {
            mask |= super::scalar::take_mask_above(&mut src[i..], &mut dst[i..], floor) << i;
        }
        mask
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
    pub(super) unsafe fn load_transposed8(p: *const f32, stride: usize) -> [__m256; 8] {
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
    /// block. Rows before `first_row` are left alone (the 16-lane body
    /// hands its leftover rows here).
    #[target_feature(enable = "avx2")]
    pub unsafe fn rowmajor_gemv_acc_seq(
        ys: &mut [f32],
        xs: &[f32],
        w: &[f32],
        t: usize,
        shape: (usize, usize),
        first_row: usize,
    ) {
        let (rows, cols) = shape;
        let mut r = first_row;
        while r + 8 <= rows {
            super::for_step_blocks(t, |s0, n| {
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
            super::for_step_blocks(t, |s0, n| {
                with_block_len!(n, gemv_t_seq_tile::<_, 2>(ys, xs, w, shape, j, s0))
            });
            j += 16;
        }
        while j + 8 <= cols {
            super::for_step_blocks(t, |s0, n| {
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
}

// ---------------------------------------------------------------------------
// AVX-512 (512-bit) implementations: only the kernels with a measured
// gain over their AVX2 body (see the module docs).
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod avx512 {
    use std::arch::x86_64::*;

    /// `W` zmm of outputs `j..` of [`colmajor_gemv_acc`], the last one
    /// holding only the lanes in `last`: masked loads read nothing in the
    /// other lanes (they come back zero, are computed and never stored).
    ///
    /// # Safety
    /// Requires AVX-512F; `y` and `wt` as in [`colmajor_gemv_acc`] with
    /// `n = y.len()`, and outputs `j .. j + 16·(W − 1)` plus `last`'s
    /// lanes past them inside `0..n`.
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn colmajor_tile<const W: usize>(
        y: &mut [f32],
        x: &[f32],
        wt: &[f32],
        j: usize,
        last: __mmask16,
    ) {
        let n = y.len();
        let mask = |a: usize| reg_mask::<W>(a, last);
        // SAFETY (every access below): register `a` starts at output
        // `j + 16a < n`, so its pointer is inside row `k` of `wt` and
        // inside `y`, and its mask names only outputs below `n` — the
        // masked loads and store touch nothing else.
        let mut acc = [_mm512_setzero_ps(); W];
        for (k, &xv) in x.iter().enumerate() {
            let xb = _mm512_set1_ps(xv);
            let row = wt.as_ptr().add(k * n + j);
            for (a, lane) in acc.iter_mut().enumerate() {
                let w = _mm512_maskz_loadu_ps(mask(a), row.add(16 * a));
                *lane = _mm512_add_ps(*lane, _mm512_mul_ps(xb, w));
            }
        }
        let out = y.as_mut_ptr().add(j);
        for (a, &lane) in acc.iter().enumerate() {
            let (m, o) = (mask(a), out.add(16 * a));
            _mm512_mask_storeu_ps(o, m, _mm512_add_ps(_mm512_maskz_loadu_ps(m, o), lane));
        }
    }

    /// # Safety
    /// Requires AVX-512F (callers check [`super::supported`]) and
    /// `wt.len() == x.len() * y.len()` — the public wrapper asserts it.
    /// Out of Miri's reach: its `RUSTFLAGS` enable AVX2 and FMA only, so
    /// [`super::Level::Avx512`] is never detected there. On hardware the
    /// `simd_identity` column-major sweep runs every output count to 80
    /// on exact-size allocations.
    ///
    /// The AVX2 body at sixteen lanes: 64-wide tiles (4 zmm
    /// accumulators), then one tile of up to four zmm for the rest, its
    /// last register masked to the outputs that remain. Per lane the
    /// reduction is the scalar order exactly (fresh accumulator,
    /// ascending `k`, mul then add — no FMA), then `y[j] += acc`.
    #[target_feature(enable = "avx512f")]
    pub unsafe fn colmajor_gemv_acc(y: &mut [f32], x: &[f32], wt: &[f32]) {
        let n = y.len();
        let mut j = 0;
        while j + 64 <= n {
            colmajor_tile::<4>(y, x, wt, j, 0xFFFF);
            j += 64;
        }
        let rest = n - j;
        if rest == 0 {
            return;
        }
        let (regs, last) = tail_tile(rest);
        match regs {
            1 => colmajor_tile::<1>(y, x, wt, j, last),
            2 => colmajor_tile::<2>(y, x, wt, j, last),
            3 => colmajor_tile::<3>(y, x, wt, j, last),
            _ => colmajor_tile::<4>(y, x, wt, j, last),
        }
    }

    /// The registers a tile of `rest > 0` floats needs, and the lane mask
    /// of its last one.
    #[inline(always)]
    fn tail_tile(rest: usize) -> (usize, __mmask16) {
        let regs = rest.div_ceil(16);
        (regs, ((1u32 << (rest - 16 * (regs - 1))) - 1) as __mmask16)
    }

    /// The lane mask of register `a` of a `W`-register tile whose last
    /// register holds the lanes in `last`.
    #[inline(always)]
    fn reg_mask<const W: usize>(a: usize, last: __mmask16) -> __mmask16 {
        if a + 1 == W {
            last
        } else {
            0xFFFF
        }
    }

    /// One 16-row block of [`rowmajor_gemv_acc_seq`] for `N` consecutive
    /// steps: each 16×8 block of `w` is transposed once — two
    /// [`load_transposed8`] halves, rows `r..r + 8` in the low and
    /// `r + 8..r + 16` in the high 256 bits of each column — and feeds
    /// all `N` accumulators.
    ///
    /// # Safety
    /// Requires AVX-512F; `w` must hold rows `r..r + 16` of `cols`
    /// floats, `xs` steps `s0..s0 + N` of `cols` floats, `ys` steps
    /// `s0..s0 + N` of `rows` floats with `r + 16 <= rows`.
    ///
    /// [`load_transposed8`]: super::avx2::load_transposed8
    #[inline]
    #[target_feature(enable = "avx512f")]
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
        let mut acc = [_mm512_setzero_ps(); N];
        let mut k = 0;
        while k < kfull {
            // SAFETY: `r + 15 < rows` and `k + 8 <= cols` keep every row
            // load of both halves inside `w`; step `s0 + a`'s `x[k + j]`
            // is inside `xs` because `a < N` steps are held.
            let lo = super::avx2::load_transposed8(base.add(k), cols);
            let hi = super::avx2::load_transposed8(base.add(8 * cols + k), cols);
            for (j, (&l, &h)) in lo.iter().zip(&hi).enumerate() {
                let c = _mm512_castpd_ps(_mm512_insertf64x4::<1>(
                    _mm512_castpd256_pd512(_mm256_castps_pd(l)),
                    _mm256_castps_pd(h),
                ));
                for (a, lane) in acc.iter_mut().enumerate() {
                    let xb = _mm512_set1_ps(*xp.add(a * cols + k + j));
                    *lane = _mm512_add_ps(*lane, _mm512_mul_ps(c, xb));
                }
            }
            k += 8;
        }
        let block = &w[r * cols..(r + 16) * cols];
        for (a, &lane) in acc.iter().enumerate() {
            let s = s0 + a;
            let mut lanes = [0.0f32; 16];
            _mm512_storeu_ps(lanes.as_mut_ptr(), lane);
            super::scalar::finish_row_block(
                &mut ys[s * rows + r..s * rows + r + 16],
                &lanes,
                &xs[s * cols..(s + 1) * cols],
                block,
                kfull,
            );
        }
    }

    /// # Safety
    /// Requires AVX-512F (callers check [`super::supported`]), a
    /// non-empty `w` of `rows × cols` floats, and `ys` / `xs` holding the
    /// same whole number of `rows`- / `cols`-float steps — the public
    /// wrapper establishes all three. Out of Miri's reach, like every
    /// body in this module; on hardware the `simd_identity` sequence
    /// sweep covers it on exact-size allocations, row counts to 1017.
    ///
    /// Sixteen consecutive rows are the lanes. Per `(step, row)` this is
    /// [`rowmajor_gemv_acc`](super::rowmajor_gemv_acc) unchanged: fresh
    /// accumulator, ascending `k`, mul then add (no FMA), `cols % 8`
    /// columns finished per lane in scalar code, then `y += acc`. The
    /// rows after the last 16-row block take the AVX2 body — one 8-row
    /// block if eight remain, then scalar rows.
    #[target_feature(enable = "avx512f")]
    pub unsafe fn rowmajor_gemv_acc_seq(
        ys: &mut [f32],
        xs: &[f32],
        w: &[f32],
        t: usize,
        shape: (usize, usize),
    ) {
        let rows = shape.0;
        let mut r = 0;
        while r + 16 <= rows {
            super::for_step_blocks(t, |s0, n| {
                with_block_len!(n, gemv_seq_block::<_>(ys, xs, w, shape, r, s0))
            });
            r += 16;
        }
        if r < rows {
            super::avx2::rowmajor_gemv_acc_seq(ys, xs, w, t, shape, r);
        }
    }

    /// `R` rows (`r..r + R`) × `W` zmm (columns `j..`, the last register
    /// holding only the lanes in `last`) of [`rank1_update_seq`],
    /// carried in registers across all the steps. Each step's `v` tile
    /// is loaded once and applied to every row whose coefficient is not
    /// zero; each row keeps its own zero-skip and its own `updated` flag,
    /// so a row every step skipped is never stored.
    ///
    /// # Safety
    /// Requires AVX-512F; `r + R <= rows`, and columns
    /// `j .. j + 16·(W − 1)` plus `last`'s lanes past them inside
    /// `0..cols`, with `w` a `rows × cols` matrix and `us` / `vs` holding
    /// `t` steps.
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn rank1_seq_tile<const R: usize, const W: usize>(
        w: &mut [f32],
        alpha: f32,
        (us, vs): (&[f32], &[f32]),
        (t, rows, cols): (usize, usize, usize),
        (r, j, last): (usize, usize, __mmask16),
        descending: bool,
    ) {
        let mask = |a: usize| reg_mask::<W>(a, last);
        // SAFETY (every access below): row `r + q < rows`, and register
        // `a` starts at column `j + 16a < cols` with a mask naming only
        // columns below `cols`, so each masked load and store stays
        // inside its row of `w` or of step `s` of `vs`.
        let tile = w.as_mut_ptr().add(r * cols + j);
        let mut acc = [[_mm512_setzero_ps(); W]; R];
        for (q, row) in acc.iter_mut().enumerate() {
            for (a, lane) in row.iter_mut().enumerate() {
                *lane = _mm512_maskz_loadu_ps(mask(a), tile.add(q * cols + 16 * a));
            }
        }
        let mut updated = [false; R];
        for i in 0..t {
            let s = super::seq_step(i, t, descending);
            let vp = vs.as_ptr().add(s * cols + j);
            let mut v = [_mm512_setzero_ps(); W];
            for (a, lane) in v.iter_mut().enumerate() {
                *lane = _mm512_maskz_loadu_ps(mask(a), vp.add(16 * a));
            }
            let u = &us[s * rows + r..s * rows + r + R];
            for ((row, flag), &ur) in acc.iter_mut().zip(&mut updated).zip(u) {
                let c = alpha * ur;
                if c == 0.0 {
                    continue;
                }
                *flag = true;
                let cb = _mm512_set1_ps(c);
                for (lane, &vv) in row.iter_mut().zip(&v) {
                    *lane = _mm512_add_ps(*lane, _mm512_mul_ps(cb, vv));
                }
            }
        }
        for (q, (row, &flag)) in acc.iter().zip(&updated).enumerate() {
            if flag {
                for (a, &lane) in row.iter().enumerate() {
                    _mm512_mask_storeu_ps(tile.add(q * cols + 16 * a), mask(a), lane);
                }
            }
        }
    }

    /// The column tiles of `R` rows from `r` on: 64-wide tiles of four
    /// zmm, then one tile of up to four for the rest, its last register
    /// masked.
    ///
    /// # Safety
    /// As [`rank1_seq_tile`], for every column of the rows.
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn rank1_seq_rows<const R: usize>(
        w: &mut [f32],
        alpha: f32,
        slabs: (&[f32], &[f32]),
        shape: (usize, usize, usize),
        r: usize,
        descending: bool,
    ) {
        let cols = shape.2;
        let mut j = 0;
        while j + 64 <= cols {
            rank1_seq_tile::<R, 4>(w, alpha, slabs, shape, (r, j, 0xFFFF), descending);
            j += 64;
        }
        if j < cols {
            let (regs, last) = tail_tile(cols - j);
            let at = (r, j, last);
            match regs {
                1 => rank1_seq_tile::<R, 1>(w, alpha, slabs, shape, at, descending),
                2 => rank1_seq_tile::<R, 2>(w, alpha, slabs, shape, at, descending),
                3 => rank1_seq_tile::<R, 3>(w, alpha, slabs, shape, at, descending),
                _ => rank1_seq_tile::<R, 4>(w, alpha, slabs, shape, at, descending),
            }
        }
    }

    /// # Safety
    /// Requires AVX-512F (callers check [`super::supported`]), a
    /// non-empty `w` of `rows × cols` floats, and `us` / `vs` holding the
    /// same whole number of `rows`- / `cols`-float steps — the public
    /// wrapper establishes all three. Out of Miri's reach; on hardware
    /// the `simd_identity` sequence sweep covers it on exact-size
    /// allocations, column counts to 129 and row counts to 1017.
    ///
    /// Per element this is the per-step saxpy chain `w[r][j] += c · v[j]`
    /// with `c = alpha · u[r]`, one term per step in step order, steps
    /// with `c == 0.0` skipped. The loop nest is not the AVX2 one
    /// widened: one row at a time, its step chain bounds the kernel, not
    /// its lane width (≈ 1.3× over AVX2 against the block's ≈ 1.9×,
    /// DESIGN.md §10). Here a block of four rows holds up to 4 × 4 zmm,
    /// and each step's `v` tile is loaded once for the four; the rows
    /// after the last block go one at a time.
    #[target_feature(enable = "avx512f")]
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
        let mut r = 0;
        while r + 4 <= rows {
            rank1_seq_rows::<4>(w, alpha, (us, vs), shape, r, descending);
            r += 4;
        }
        while r < rows {
            rank1_seq_rows::<1>(w, alpha, (us, vs), shape, r, descending);
            r += 1;
        }
    }

    /// `W` zmm of output columns `j..` of [`gemv_t_acc_seq`] for `N`
    /// consecutive steps, the last register holding only the lanes in
    /// `last`: each weight-row tile is loaded once and feeds all `N`
    /// steps' chains.
    ///
    /// # Safety
    /// Requires AVX-512F; columns `j .. j + 16·(W − 1)` plus `last`'s
    /// lanes past them inside `0..cols`, with `w` a `rows × cols` matrix
    /// and `ys` / `xs` holding steps `s0..s0 + N`.
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn gemv_t_seq_tile<const N: usize, const W: usize>(
        ys: &mut [f32],
        xs: &[f32],
        w: &[f32],
        (rows, cols): (usize, usize),
        (j, last): (usize, __mmask16),
        s0: usize,
    ) {
        let mask = |b: usize| reg_mask::<W>(b, last);
        // SAFETY (every access below): register `b` starts at column
        // `j + 16b < cols` and its mask names only columns below `cols`,
        // so each masked load and store stays inside one row of `w` or
        // one step of `ys`.
        let yp = ys.as_mut_ptr().add(s0 * cols + j);
        let xp = xs.as_ptr().add(s0 * rows);
        let wp = w.as_ptr().add(j);
        let mut acc = [[_mm512_setzero_ps(); W]; N];
        for (a, step) in acc.iter_mut().enumerate() {
            for (b, lane) in step.iter_mut().enumerate() {
                *lane = _mm512_maskz_loadu_ps(mask(b), yp.add(a * cols + 16 * b));
            }
        }
        for r in 0..rows {
            let mut row = [_mm512_setzero_ps(); W];
            for (b, tile) in row.iter_mut().enumerate() {
                *tile = _mm512_maskz_loadu_ps(mask(b), wp.add(r * cols + 16 * b));
            }
            for (a, step) in acc.iter_mut().enumerate() {
                let x = *xp.add(a * rows + r);
                if x == 0.0 {
                    continue;
                }
                let xb = _mm512_set1_ps(x);
                for (lane, &tile) in step.iter_mut().zip(&row) {
                    *lane = _mm512_add_ps(*lane, _mm512_mul_ps(xb, tile));
                }
            }
        }
        for (a, step) in acc.iter().enumerate() {
            for (b, &lane) in step.iter().enumerate() {
                _mm512_mask_storeu_ps(yp.add(a * cols + 16 * b), mask(b), lane);
            }
        }
    }

    /// # Safety
    /// Requires AVX-512F (callers check [`super::supported`]), a
    /// non-empty `w` of `rows × cols` floats, and `ys` / `xs` holding the
    /// same whole number of `cols`- / `rows`-float steps — the public
    /// wrapper establishes all three. Out of Miri's reach; on hardware
    /// the `simd_identity` sequence sweep covers it on exact-size
    /// allocations, column counts to 129.
    ///
    /// Per `(step, column)` this is the per-step chain
    /// `y[j] += x[r] · w[r][j]` over ascending `r`, rows with
    /// `x[r] == 0.0` skipped, seeded from `y` (no FMA). A tile is 32
    /// columns (2 zmm) × up to six steps; the last tile's last register
    /// is masked, so no column takes a scalar path.
    #[target_feature(enable = "avx512f")]
    pub unsafe fn gemv_t_acc_seq(
        ys: &mut [f32],
        xs: &[f32],
        w: &[f32],
        t: usize,
        shape: (usize, usize),
    ) {
        let cols = shape.1;
        let mut j = 0;
        while j + 32 <= cols {
            let at = (j, 0xFFFF);
            super::for_step_blocks(t, |s0, n| {
                with_block_len!(n, gemv_t_seq_tile::<_, 2>(ys, xs, w, shape, at, s0))
            });
            j += 32;
        }
        if j < cols {
            let (regs, last) = tail_tile(cols - j);
            let at = (j, last);
            super::for_step_blocks(t, |s0, n| {
                if regs == 1 {
                    with_block_len!(n, gemv_t_seq_tile::<_, 1>(ys, xs, w, shape, at, s0))
                } else {
                    with_block_len!(n, gemv_t_seq_tile::<_, 2>(ys, xs, w, shape, at, s0))
                }
            });
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
        let want: Vec<Level> = [Level::Scalar, Level::Avx2, Level::Avx512]
            .into_iter()
            .filter(|&l| supported(l))
            .collect();
        assert_eq!(supported_levels(), want);
        // Each level includes the one below it.
        assert!(!supported(Level::Avx512) || supported(Level::Avx2));
    }

    #[test]
    fn detect_never_returns_an_unsupported_level() {
        let level = detect();
        assert!(supported(level), "detect() chose {}", level.name());
        // It picks the widest supported level unless told otherwise.
        if !force_scalar_requested(std::env::var("NCL_FORCE_SCALAR").ok().as_deref()) {
            assert_eq!(Some(&level), supported_levels().last());
        }
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

    /// `n` strictly ascending indices from 0 with `gap(j)` between
    /// indices `j - 1` and `j`, starting `off` entries into an exact-size
    /// allocation; the accumulator they name ends at the last one.
    fn ascending(n: usize, off: usize, gap: impl Fn(usize) -> u32) -> (Box<[u32]>, usize) {
        let mut idx = vec![0u32; off + n];
        for j in 1..n {
            idx[off + j] = idx[off + j - 1] + gap(j);
        }
        let len = if n == 0 {
            1
        } else {
            idx[off + n - 1] as usize + 1
        };
        (idx.into_boxed_slice(), len)
    }

    /// The scatter coefficients the sweep runs: an ordinary one, both
    /// zeros (`-0.0 · x` keeps a `-0.0` sum), a subnormal and `∞` (which
    /// turns the payload's exact zeros into NaN).
    const SCATTER_COEFFS: [f32; 5] = [0.37, 0.0, -0.0, 1.0e-40, f32::INFINITY];

    /// Small shapes on purpose: this is the test the Miri leg interprets
    /// through the AVX2 gather body, on exact-size allocations (so an
    /// index the check let through past the end is an out-of-bounds
    /// access). The full sweep lives in `tests/simd_identity.rs`.
    #[test]
    fn scatter_add_scaled_levels_bit_identical() {
        type Gap = fn(usize) -> u32;
        let gaps: [(&str, Gap); 3] = [
            ("dense", |_| 1),
            ("mixed", |j| if j % 8 == 4 { 1000 } else { 1 }),
            ("sparse", |_| 1000),
        ];
        for n in 0..=17 {
            for off in [0usize, 1] {
                for (name, gap) in gaps {
                    // Kept small for the interpreter: a sparse vector and
                    // a sparse vector-plus-tail.
                    if name == "sparse" && n != 8 && n != 9 {
                        continue;
                    }
                    let (idx, len) = ascending(n, off, gap);
                    // Every fourth payload is an exact zero, for `∞ · 0`.
                    let x: Box<[f32]> = data(off + n, 0.6)
                        .iter()
                        .enumerate()
                        .map(|(i, &v)| if i % 4 == 1 { 0.0 } else { v })
                        .collect();
                    for a in SCATTER_COEFFS {
                        // The definition, element by element.
                        let mut want = data(off + len, -1.3);
                        for (&d, &v) in idx[off..].iter().zip(&x[off..]) {
                            want[off + d as usize] += a * v;
                        }
                        for &level in &supported_levels() {
                            let mut acc = data(off + len, -1.3).into_boxed_slice();
                            with_level(level, || {
                                scatter_add_scaled(&mut acc[off..], &idx[off..], &x[off..], a)
                            });
                            assert!(
                                acc.iter()
                                    .zip(&want)
                                    .all(|(p, q)| p.to_bits() == q.to_bits()),
                                "{} n={n} off={off} {name} a={a:e}",
                                level.name()
                            );
                        }
                    }
                }
            }
        }
    }

    /// Runs `scatter_add_scaled` at `level` — or at `Scalar` where the
    /// machine has no AVX2, so every per-level panic test still runs.
    fn scatter_at(level: Level, idx: &[u32], len: usize) {
        let level = if supported(level) {
            level
        } else {
            Level::Scalar
        };
        let mut acc = vec![0.0f32; len];
        let x = vec![1.0f32; idx.len()];
        with_level(level, || scatter_add_scaled(&mut acc, idx, &x, 1.0));
    }

    /// Nine ascending indices (one full vector and a tail) below 20.
    const NINE: [u32; 9] = [0, 2, 3, 5, 8, 9, 12, 15, 19];

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn scatter_out_of_range_panics_at_scalar() {
        scatter_at(Level::Scalar, &NINE, 19);
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn scatter_out_of_range_panics_at_avx2() {
        // One full vector whose top lane is one past the accumulator.
        scatter_at(Level::Avx2, &NINE[..8], 15);
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn scatter_repeated_index_panics_at_scalar() {
        let mut idx = NINE;
        idx[5] = idx[4];
        scatter_at(Level::Scalar, &idx, 20);
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn scatter_repeated_index_panics_at_avx2() {
        let mut idx = NINE;
        idx[5] = idx[4];
        scatter_at(Level::Avx2, &idx, 20);
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn scatter_descending_across_lane_boundary_panics_at_scalar() {
        let mut idx = NINE;
        idx[8] = idx[7] - 1; // the tail's first index below the vector's last
        scatter_at(Level::Scalar, &idx, 20);
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn scatter_descending_across_lane_boundary_panics_at_avx2() {
        let idx: Vec<u32> = (0..16).map(|i| if i == 8 { 6 } else { i }).collect();
        scatter_at(Level::Avx2, &idx, 20);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn scatter_length_mismatch_panics() {
        scatter_add_scaled(&mut [0.0; 4], &[0, 1], &[1.0], 1.0);
    }

    #[test]
    fn take_mask_above_levels_bit_identical() {
        for n in 0..=64 {
            let mut src0 = data(n, 0.8);
            for (i, v) in src0.iter_mut().enumerate() {
                match i % 9 {
                    2 => *v = -0.0,
                    5 => *v = f32::NAN,
                    7 => *v = 0.5, // equal to one floor below: not above it
                    _ => {}
                }
            }
            for floor in [0.0f32, 0.5, -1.0, f32::INFINITY] {
                let mut want = 0u64;
                for (i, &v) in src0.iter().enumerate() {
                    want |= u64::from(v > floor) << i;
                }
                for &level in &supported_levels() {
                    let mut src = src0.clone().into_boxed_slice();
                    let mut dst = vec![7.0f32; n].into_boxed_slice();
                    let mask = with_level(level, || take_mask_above(&mut src, &mut dst, floor));
                    let case = format!("{} n={n} floor={floor}", level.name());
                    assert_eq!(mask, want, "{case}");
                    assert!(src.iter().all(|v| v.to_bits() == 0), "{case}");
                    assert!(
                        dst.iter()
                            .zip(&src0)
                            .all(|(a, b)| a.to_bits() == b.to_bits()),
                        "{case}"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "more than 64 slots")]
    fn take_mask_above_refuses_more_than_64_slots() {
        take_mask_above(&mut [0.0; 65], &mut [0.0; 65], 0.0);
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
}
