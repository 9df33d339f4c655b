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
//!   [`colmajor_gemv_acc_seq`] stacks it over the steps of a sequence
//!   (the taped forward pass, over the transposed weights the trainer
//!   rebuilds once per batch). Every vectorised `W·x` reads this
//!   transposed layout.
//! * [`rowmajor_gemv_acc`] is the same recipe over a **row-major** `w`,
//!   written once as the scalar definition at every level: the per-step
//!   references ([`Matrix::gemv_acc`](crate::Matrix::gemv_acc)) that the
//!   transposed products are tested against.
//! * [`rank1_update`] and [`gemv_t_acc`] are per-row [`saxpy`]s with a
//!   bitwise-observable zero-skip, looped inside the dispatched function.
//! * [`max`] exploits that the maximum of floats is independent of
//!   association order once NaN is skipped, which every level does the
//!   way the fold does.
//! * [`scatter_add_scaled`] is element-wise too, through an index list:
//!   its contract (strictly ascending, in-range indices, checked at
//!   every level) makes the eight targets of a vector distinct, so a
//!   gather, one `mul` and one `add` per lane, and eight single-lane
//!   stores are the scalar loop's operations on each element.
//! * [`take_mask_above`] only copies, zeroes and compares, and
//!   [`transpose_into`] only copies, which no level can round
//!   differently.
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
//! `sigmoid` / `tanh` slices and the three sequence kernels
//! ([`colmajor_gemv_acc_seq`], [`rank1_update_seq`],
//! [`gemv_t_acc_seq`]) run sixteen lanes there; every other vector
//! kernel — the per-step kernels behind a sequence's `T = 1` hand-off
//! included — runs eight.
//!
//! Every kernel that runs at both widths has one body, written over a
//! private `Lanes` trait (one `f32` register and the operations on it,
//! with a `__m256` and a `__m512` impl) and instantiated at each width.
//! A tiled axis ends in one tile whose last register is masked to the
//! floats left, at both widths, and every tile has the same shape at
//! both (the four-row rank-one block too: measured, it is the faster
//! shape at eight lanes as well). The AVX2-only kernels ([`saxpy`],
//! [`add_assign`], [`scale`], [`max`], [`scatter_add_scaled`],
//! [`take_mask_above`], [`transpose_into`], the bf16 pair and the
//! per-step [`rank1_update`]) keep their own AVX2 bodies.
//!
//! # Adding a kernel
//!
//! 1. Write the scalar reference with an explicit, documented rounding
//!    order (fresh accumulators, ascending index, mul-then-add).
//! 2. Write the vector body once, generic over `Lanes` and run through
//!    `Lanes::enable` — same operations, same order, no FMA for exact
//!    kernels — and dispatch its eight-lane instance on [`active`] in the
//!    public wrapper; that arm is `Level::Avx2 | Level::Avx512`.
//! 3. The sixteen-lane instance lands only with a paired measurement
//!    (the same call under `with_level(Level::Avx512)` and
//!    `with_level(Level::Avx2)`) that shows it beating the eight-lane
//!    one at the shapes it takes, recorded in DESIGN.md §14; below its
//!    crossover the eight-lane instance stays. When a per-output chain
//!    rather than lane width bounds a body, it needs a schedule of its
//!    own (`rank1_update_seq` holds a block of four rows, so each step's
//!    `v` tile is loaded once for all four). Should the two register
//!    files (16 `ymm`, 32 `zmm`) ever want different tile shapes, the
//!    shape is a const parameter of the instance, not another body.
//! 4. Add the kernel to the bit-identity proptests
//!    (`crates/tensor/tests/simd_identity.rs`) across awkward sizes and
//!    unaligned offsets, to the in-crate sweeps the Miri leg interprets
//!    (every tail width, on exact-size allocations), and to the
//!    `fig16_kernels` microbench.

#[cfg(target_arch = "x86_64")]
use std::arch::x86_64::{__m256, __m512};
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
    /// 512-bit AVX-512F lanes (with FMA) for the kernels that run a
    /// sixteen-lane instance, eight lanes for the rest.
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
/// features its sixteen-lane instances enable.
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

/// Maximum element ignoring NaN, `f32::NEG_INFINITY` for an empty or
/// all-NaN slice.
///
/// Bit-identical to `x.iter().fold(f32::NEG_INFINITY, f32::max)` at
/// every level, NaN entries included: like `f32::max`, every level skips
/// a NaN operand, and the maximum of what is left does not depend on
/// association order. The one exception is a `-0.0` / `+0.0` tie, which
/// may resolve to either sign — no consumer of a maximum can observe it
/// through arithmetic that treats them as equal.
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
/// lanes; a narrower one keeps eight.
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
            wide::colmajor_gemv_acc::<__m512, 4>(y, x, wt, 1, (y.len(), x.len()))
        },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: AVX2 was verified by `active()`'s detection.
        Level::Avx2 | Level::Avx512 => unsafe {
            wide::colmajor_gemv_acc::<__m256, 4>(y, x, wt, 1, (y.len(), x.len()))
        },
        _ => scalar::colmajor_gemv_acc(y, x, wt),
    }
}

/// The fewest outputs [`colmajor_gemv_acc`] takes its 16-lane instance
/// for at [`Level::Avx512`]. Measured with 16 lanes forced at every
/// width, it is no faster than the AVX2 one at 32 outputs × 96 inputs
/// (the composite layer), so 32 outputs and fewer keep eight lanes;
/// from 33 up (the decoder's 128, the 188-word output row) it wins
/// (DESIGN.md §14 has the sweep).
#[cfg(target_arch = "x86_64")]
const COLMAJOR_ZMM_MIN_OUTPUTS: usize = 33;

/// Row-major product-accumulate `y[r] += Σ_k w[r·n + k] · x[k]` with
/// `n = x.len()` — i.e. `y += W x` for a row-major `w` holding `W` (one
/// row per output). The body of
/// [`Matrix::gemv_acc`](crate::Matrix::gemv_acc), which the scalar
/// references (`Lstm::step_infer`, `Dense::apply`) read.
///
/// This is the scalar definition at every level: per row a fresh
/// accumulator, ascending `k`, a separate `mul` and `add` per term (no
/// FMA), then `y[r] += acc`. Every vectorised product runs
/// [`colmajor_gemv_acc`] over the transposed matrix instead, which gives
/// these bits.
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
    scalar::rowmajor_gemv_acc(y, x, w)
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
/// same bitwise reason. One dispatch per matrix. (The vector body keeps a
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
        Level::Avx2 | Level::Avx512 => unsafe {
            wide::gemv_t_acc::<__m256, 4>(y, x, w, 1, (x.len(), y.len()))
        },
        _ => scalar::gemv_t_acc(y, x, w),
    }
}

/// Transposes the row-major `rows × cols` matrix `src` into the
/// row-major `cols × rows` matrix `dst`: `dst[c·rows + r] = src[r·cols + c]`.
///
/// A copy, so every level produces the same bits. The AVX2 body moves
/// 8×8 blocks through an in-register transpose and the edges element by
/// element; it is what keeps packing a training batch's weight plan
/// cheap next to the batch.
///
/// # Panics
/// Panics if `src.len()` or `dst.len()` is not `rows * cols`.
pub fn transpose_into(dst: &mut [f32], src: &[f32], rows: usize, cols: usize) {
    assert_eq!(src.len(), rows * cols, "transpose_into: source shape");
    assert_eq!(dst.len(), rows * cols, "transpose_into: destination shape");
    if rows == 0 || cols == 0 {
        return;
    }
    match active() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: AVX2 was verified by `active()`'s detection; the
        // asserts above are the body's bounds preconditions.
        Level::Avx2 | Level::Avx512 => unsafe { avx2::transpose_into(dst, src, rows, cols) },
        _ => scalar::transpose_into(dst, (src, cols), 0..rows, 0..cols),
    }
}

// ---------------------------------------------------------------------------
// Sequence kernels: one call per sequence instead of one per time step.
//
// Each is *defined as* `t` successive calls of the per-step kernel above
// on row `s` of its flat `t × n` slabs — the scalar level is literally
// that loop — and the vector bodies only reschedule work whose
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

/// Steps per register block of the stacked kernels: six steps'
/// two-register accumulator tiles beside one two-register weight tile
/// and one broadcast use fifteen of the sixteen `ymm`. Sixteen lanes
/// keep the same blocks.
#[cfg(target_arch = "x86_64")]
const SEQ_BLOCK: usize = 6;

/// Runs `$body` with the constant `$c` bound to the runtime `$k`, which
/// must be one of the listed values (a step block's length, or the
/// register count of a tail tile): `$body` names a kernel instance by it.
#[cfg(target_arch = "x86_64")]
macro_rules! with_const {
    ($k:expr, [$($v:literal),+], |$c:ident| $body:expr) => {
        match $k {
            $($v => {
                const $c: usize = $v;
                $body
            })+
            _ => unreachable!("with_const: {} is not listed", $k),
        }
    };
}

/// Stacked [`colmajor_gemv_acc`]: `ys[s] += Wᵀ · xs[s]` for every step
/// `s < t`, with `ys` a flat `t × n` slab, `xs` a flat `t × k` slab and
/// `wt` the `k × n` transposed weights (one row per input, one column
/// per output) — bit-identical to `t` per-step calls at every level,
/// and so to `t` [`Matrix::gemv_acc`](crate::Matrix::gemv_acc) calls
/// over the untransposed matrix.
///
/// Every `(s, j)` output is `ys[s][j] + fresh accumulator` over
/// ascending `k`, mul then add, and shares nothing with any other
/// output, so stacking is pure scheduling: the SIMD bodies load each
/// tile of a `wt` row once and feed up to six steps' accumulators from
/// it. There is no transpose to pay, in registers or anywhere else —
/// the caller holds the transposed copy. A `wt` without entries (no
/// inputs, or no outputs) adds nothing, so a `-0.0` in `ys` stays.
///
/// # Panics
/// Panics if the slabs are not `t` whole steps or `wt` is not `k × n`.
pub fn colmajor_gemv_acc_seq(ys: &mut [f32], xs: &[f32], wt: &[f32], t: usize) {
    if t == 1 {
        return colmajor_gemv_acc(ys, xs, wt);
    }
    let Some(shape) = seq_shape("colmajor_gemv_acc_seq", t, ys.len(), xs.len(), wt.len()) else {
        return;
    };
    match active() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: AVX-512F was verified by `active()`'s detection;
        // `seq_shape` checked the slab and weight shapes the kernel's
        // loads rest on.
        Level::Avx512 => unsafe { wide::colmajor_gemv_acc::<__m512, 2>(ys, xs, wt, t, shape) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as above, for AVX2.
        Level::Avx2 => unsafe { wide::colmajor_gemv_acc::<__m256, 2>(ys, xs, wt, t, shape) },
        _ => {
            let (n, k) = shape;
            for (y, x) in ys.chunks_exact_mut(n).zip(xs.chunks_exact(k)) {
                scalar::colmajor_gemv_acc(y, x, wt);
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
/// in step order, whichever loop is outermost; the vector body therefore
/// holds a tile of row `r` in registers across all the steps instead of
/// loading and storing it once per step. The per-`(s, r)` zero-skip of
/// [`rank1_update`] is kept (it is bitwise observable), and a row whose
/// coefficient is zero at every step is never written. Four rows' tiles
/// are held at once, so each step's `v` tile is loaded once for all
/// four.
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
            wide::rank1_update_seq::<__m512>(w, alpha, (us, vs), (t, rows, cols), descending)
        },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as above, for AVX2.
        Level::Avx2 => unsafe {
            wide::rank1_update_seq::<__m256>(w, alpha, (us, vs), (t, rows, cols), descending)
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
/// every other output. The vector body loads each tile of a weight row
/// once for up to six steps and runs their add chains side by side —
/// the per-step body is bound by the latency of its own four. A tile is
/// two registers wide, and the last tile's last register is masked to
/// the columns left.
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
        Level::Avx512 => unsafe { wide::gemv_t_acc::<__m512, 2>(ys, xs, w, t, (rows, cols)) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as above, for AVX2.
        Level::Avx2 => unsafe { wide::gemv_t_acc::<__m256, 2>(ys, xs, w, t, (rows, cols)) },
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

    /// Rows `rs` × columns `cs` of [`super::transpose_into`] over a
    /// `src` of `cols` columns and `rows` rows (the AVX2 body hands its
    /// edges here).
    pub fn transpose_into(
        dst: &mut [f32],
        (src, cols): (&[f32], usize),
        rs: std::ops::Range<usize>,
        cs: std::ops::Range<usize>,
    ) {
        let rows = src.len() / cols;
        for r in rs {
            for c in cs.clone() {
                dst[c * rows + r] = src[r * cols + c];
            }
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
                // `maxps` returns its second operand when either is NaN,
                // so the accumulator goes second: a NaN input leaves the
                // lane as it was, which is what `f32::max` does.
                acc = _mm256_max_ps(_mm256_loadu_ps(xp.add(i)), acc);
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
    /// Requires AVX2 (callers check [`super::supported`]) and the shape
    /// the public wrapper asserts: `src` and `dst` are `rows × cols`
    /// floats, both non-empty. The Miri leg interprets it over
    /// exact-size allocations (`transpose_into_levels_bit_identical`).
    ///
    /// Each 8×8 block of `src` is loaded transposed
    /// ([`load_transposed8`]) and stored as eight 8-float runs of `dst`;
    /// rows past the last 8-row block and columns past the last 8-column
    /// block are copied element by element.
    #[target_feature(enable = "avx2")]
    pub unsafe fn transpose_into(dst: &mut [f32], src: &[f32], rows: usize, cols: usize) {
        let (r8, c8) = (rows - rows % 8, cols - cols % 8);
        for r in (0..r8).step_by(8) {
            for c in (0..c8).step_by(8) {
                // SAFETY: rows `r..r + 8 <= rows` and columns
                // `c..c + 8 <= cols` of `src`; column `c + j`'s run
                // `r..r + 8` of `dst` is inside its `rows`-float row.
                let block = load_transposed8(src.as_ptr().add(r * cols + c), cols);
                for (j, &v) in block.iter().enumerate() {
                    _mm256_storeu_ps(dst.as_mut_ptr().add((c + j) * rows + r), v);
                }
            }
        }
        let edge = super::scalar::transpose_into;
        edge(dst, (src, cols), 0..rows, c8..cols);
        edge(dst, (src, cols), r8..rows, 0..c8);
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
// Lane-generic bodies: each kernel that runs at two widths is written once
// over `Lanes` and instantiated at eight lanes (`__m256`) and sixteen
// (`__m512`).
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
pub(crate) mod wide {
    use super::{seq_step, SEQ_BLOCK};
    use crate::libm::{EXP_A, EXP_C0, EXP_C1, EXP_C2, EXP_S, EXP_T};
    use std::arch::x86_64::*;

    /// One `f32` vector register and the operations the lane-generic
    /// bodies are written in. Each has the same meaning in every lane at
    /// both widths — `__m256` (AVX2; a tail mask is a lane vector, read
    /// and written with `vmaskmovps`) and `__m512` (AVX-512F; a tail mask
    /// is a `__mmask16`) — and none fuses a multiply into an add.
    ///
    /// The Miri leg interprets every body written over this trait at
    /// eight lanes; only the `__m512` impl is out of its reach (its
    /// `RUSTFLAGS` enable AVX2 and FMA, so [`super::Level::Avx512`] is
    /// never detected there), and `simd_identity` / `libm_identity` cover
    /// the sixteen-lane instances on hardware that has AVX-512.
    ///
    /// # Safety
    /// Every method needs the impl's target features, which a body gets
    /// by running inside [`Lanes::enable`] (or [`Lanes::enable_fma`]).
    /// A pointer must be valid for what the method touches: all
    /// [`Lanes::LANES`] floats for `load` / `store`, the mask's lanes for
    /// the masked forms.
    pub(crate) trait Lanes: Copy {
        /// Floats per register.
        const LANES: usize;
        /// A set of lanes: a compare's result, or a tail's live lanes.
        type Mask: Copy;
        /// The integer register of the same width (32-bit lanes).
        type Int: Copy;
        /// The lanes as an array.
        type Array: Copy + Default + AsRef<[f32]> + AsMut<[f32]>;

        /// Runs `f` with this width's target features enabled: AVX2, or
        /// AVX-512F with FMA. `f` should be an `#[inline(always)]`
        /// closure, so its body is compiled with them.
        unsafe fn enable<R>(f: impl FnOnce() -> R) -> R;
        /// [`Lanes::enable`] with FMA as well, which the `expf` core's
        /// fused steps need.
        unsafe fn enable_fma<R>(f: impl FnOnce() -> R) -> R;

        unsafe fn splat(v: f32) -> Self;
        unsafe fn load(p: *const f32) -> Self;
        unsafe fn store(p: *mut f32, v: Self);
        /// The first `live` lanes, `1 <= live <= LANES`.
        unsafe fn tail(live: usize) -> Self::Mask;
        /// The lanes of `m` from `p`, zero in the others, which are not
        /// read.
        unsafe fn load_masked(m: Self::Mask, p: *const f32) -> Self;
        /// The lanes of `m` to `p`; the others are not written.
        unsafe fn store_masked(p: *mut f32, m: Self::Mask, v: Self);
        unsafe fn add(a: Self, b: Self) -> Self;
        unsafe fn sub(a: Self, b: Self) -> Self;
        unsafe fn mul(a: Self, b: Self) -> Self;
        unsafe fn div(a: Self, b: Self) -> Self;
        /// [`crate::libm::expf`]'s main path in every lane; no lane may
        /// need one of its scalar-only arms. Each width keeps its own
        /// core — two `f64` halves with a 64-bit gather into the table —
        /// and needs FMA ([`Lanes::enable_fma`]).
        unsafe fn exp(x: Self) -> Self;
        /// Lanes where `a >= b` (ordered: false on NaN).
        unsafe fn ge(a: Self, b: Self) -> Self::Mask;
        /// `b` in the lanes of `m`, `a` in the others.
        unsafe fn select(m: Self::Mask, a: Self, b: Self) -> Self;
        unsafe fn any(m: Self::Mask) -> bool;

        unsafe fn bits(x: Self) -> Self::Int;
        unsafe fn from_bits(i: Self::Int) -> Self;
        unsafe fn isplat(v: i32) -> Self::Int;
        unsafe fn iadd(a: Self::Int, b: Self::Int) -> Self::Int;
        unsafe fn isub(a: Self::Int, b: Self::Int) -> Self::Int;
        unsafe fn iand(a: Self::Int, b: Self::Int) -> Self::Int;
        unsafe fn ixor(a: Self::Int, b: Self::Int) -> Self::Int;
        unsafe fn shl<const S: i32>(a: Self::Int) -> Self::Int;
        /// Logical shift right.
        unsafe fn shr<const S: i32>(a: Self::Int) -> Self::Int;
        /// Logical shift right by each lane's count; a count of 32 or more
        /// gives 0.
        unsafe fn srlv(a: Self::Int, count: Self::Int) -> Self::Int;
        /// Lanes where `a > b`, signed.
        unsafe fn gt(a: Self::Int, b: Self::Int) -> Self::Mask;
        unsafe fn eq(a: Self::Int, b: Self::Int) -> Self::Mask;
        /// Float to integer, truncating.
        unsafe fn cvtt(x: Self) -> Self::Int;
        unsafe fn cvt(i: Self::Int) -> Self;
    }

    impl Lanes for __m256 {
        const LANES: usize = 8;
        type Mask = __m256;
        type Int = __m256i;
        type Array = [f32; 8];

        #[inline(always)]
        unsafe fn enable<R>(f: impl FnOnce() -> R) -> R {
            #[inline(never)]
            #[target_feature(enable = "avx2")]
            unsafe fn on<R>(f: impl FnOnce() -> R) -> R {
                f()
            }
            on(f)
        }
        #[inline(always)]
        unsafe fn enable_fma<R>(f: impl FnOnce() -> R) -> R {
            #[target_feature(enable = "avx2,fma")]
            unsafe fn on<R>(f: impl FnOnce() -> R) -> R {
                f()
            }
            on(f)
        }
        #[inline(always)]
        unsafe fn splat(v: f32) -> Self {
            _mm256_set1_ps(v)
        }
        #[inline(always)]
        unsafe fn load(p: *const f32) -> Self {
            _mm256_loadu_ps(p)
        }
        #[inline(always)]
        unsafe fn store(p: *mut f32, v: Self) {
            _mm256_storeu_ps(p, v)
        }
        #[inline(always)]
        unsafe fn tail(live: usize) -> Self::Mask {
            static ONES_THEN_ZEROS: [i32; 16] =
                [-1, -1, -1, -1, -1, -1, -1, -1, 0, 0, 0, 0, 0, 0, 0, 0];
            let window = &ONES_THEN_ZEROS[8 - live..][..8];
            _mm256_loadu_ps(window.as_ptr().cast())
        }
        #[inline(always)]
        unsafe fn load_masked(m: Self::Mask, p: *const f32) -> Self {
            _mm256_maskload_ps(p, _mm256_castps_si256(m))
        }
        #[inline(always)]
        unsafe fn store_masked(p: *mut f32, m: Self::Mask, v: Self) {
            _mm256_maskstore_ps(p, _mm256_castps_si256(m), v)
        }
        #[inline(always)]
        unsafe fn add(a: Self, b: Self) -> Self {
            _mm256_add_ps(a, b)
        }
        #[inline(always)]
        unsafe fn sub(a: Self, b: Self) -> Self {
            _mm256_sub_ps(a, b)
        }
        #[inline(always)]
        unsafe fn mul(a: Self, b: Self) -> Self {
            _mm256_mul_ps(a, b)
        }
        #[inline(always)]
        unsafe fn div(a: Self, b: Self) -> Self {
            _mm256_div_ps(a, b)
        }
        /// Two halves of four lanes.
        #[inline(always)]
        unsafe fn exp(x: Self) -> Self {
            #[inline(always)]
            unsafe fn exp4(xd: __m256d) -> __m128 {
                let a = _mm256_set1_pd(EXP_A);
                let s = _mm256_set1_pd(EXP_S);
                let z = _mm256_fmadd_pd(a, xd, s);
                let ki = _mm256_castpd_si256(z);
                let kd = _mm256_sub_pd(z, s);
                let r = _mm256_fmsub_pd(a, xd, kd);
                let idx = _mm256_and_si256(ki, _mm256_set1_epi64x(31));
                // In bounds: every index is `ki & 31` into the 32-entry table.
                let t = _mm256_i64gather_epi64::<8>(EXP_T.as_ptr().cast(), idx);
                let scale = _mm256_castsi256_pd(_mm256_add_epi64(t, _mm256_slli_epi64::<47>(ki)));
                let p = _mm256_fmadd_pd(r, _mm256_set1_pd(EXP_C0), _mm256_set1_pd(EXP_C1));
                let q = _mm256_fmadd_pd(r, _mm256_set1_pd(EXP_C2), _mm256_set1_pd(1.0));
                let y = _mm256_fmadd_pd(p, _mm256_mul_pd(r, r), q);
                _mm256_cvtpd_ps(_mm256_mul_pd(y, scale))
            }
            let lo = exp4(_mm256_cvtps_pd(_mm256_castps256_ps128(x)));
            let hi = exp4(_mm256_cvtps_pd(_mm256_extractf128_ps::<1>(x)));
            _mm256_set_m128(hi, lo)
        }
        #[inline(always)]
        unsafe fn ge(a: Self, b: Self) -> Self::Mask {
            _mm256_cmp_ps::<_CMP_GE_OQ>(a, b)
        }
        #[inline(always)]
        unsafe fn select(m: Self::Mask, a: Self, b: Self) -> Self {
            _mm256_blendv_ps(a, b, m)
        }
        #[inline(always)]
        unsafe fn any(m: Self::Mask) -> bool {
            _mm256_movemask_ps(m) != 0
        }
        #[inline(always)]
        unsafe fn bits(x: Self) -> Self::Int {
            _mm256_castps_si256(x)
        }
        #[inline(always)]
        unsafe fn from_bits(i: Self::Int) -> Self {
            _mm256_castsi256_ps(i)
        }
        #[inline(always)]
        unsafe fn isplat(v: i32) -> Self::Int {
            _mm256_set1_epi32(v)
        }
        #[inline(always)]
        unsafe fn iadd(a: Self::Int, b: Self::Int) -> Self::Int {
            _mm256_add_epi32(a, b)
        }
        #[inline(always)]
        unsafe fn isub(a: Self::Int, b: Self::Int) -> Self::Int {
            _mm256_sub_epi32(a, b)
        }
        #[inline(always)]
        unsafe fn iand(a: Self::Int, b: Self::Int) -> Self::Int {
            _mm256_and_si256(a, b)
        }
        #[inline(always)]
        unsafe fn ixor(a: Self::Int, b: Self::Int) -> Self::Int {
            _mm256_xor_si256(a, b)
        }
        #[inline(always)]
        unsafe fn shl<const S: i32>(a: Self::Int) -> Self::Int {
            _mm256_slli_epi32::<S>(a)
        }
        #[inline(always)]
        unsafe fn shr<const S: i32>(a: Self::Int) -> Self::Int {
            _mm256_srli_epi32::<S>(a)
        }
        #[inline(always)]
        unsafe fn srlv(a: Self::Int, count: Self::Int) -> Self::Int {
            _mm256_srlv_epi32(a, count)
        }
        #[inline(always)]
        unsafe fn gt(a: Self::Int, b: Self::Int) -> Self::Mask {
            _mm256_castsi256_ps(_mm256_cmpgt_epi32(a, b))
        }
        #[inline(always)]
        unsafe fn eq(a: Self::Int, b: Self::Int) -> Self::Mask {
            _mm256_castsi256_ps(_mm256_cmpeq_epi32(a, b))
        }
        #[inline(always)]
        unsafe fn cvtt(x: Self) -> Self::Int {
            _mm256_cvttps_epi32(x)
        }
        #[inline(always)]
        unsafe fn cvt(i: Self::Int) -> Self {
            _mm256_cvtepi32_ps(i)
        }
    }

    impl Lanes for __m512 {
        const LANES: usize = 16;
        type Mask = __mmask16;
        type Int = __m512i;
        type Array = [f32; 16];

        #[inline(always)]
        unsafe fn enable<R>(f: impl FnOnce() -> R) -> R {
            #[inline(never)]
            #[target_feature(enable = "avx2,avx512f,fma")]
            unsafe fn on<R>(f: impl FnOnce() -> R) -> R {
                f()
            }
            on(f)
        }
        #[inline(always)]
        unsafe fn enable_fma<R>(f: impl FnOnce() -> R) -> R {
            Self::enable(f)
        }
        #[inline(always)]
        unsafe fn splat(v: f32) -> Self {
            _mm512_set1_ps(v)
        }
        #[inline(always)]
        unsafe fn load(p: *const f32) -> Self {
            _mm512_loadu_ps(p)
        }
        #[inline(always)]
        unsafe fn store(p: *mut f32, v: Self) {
            _mm512_storeu_ps(p, v)
        }
        #[inline(always)]
        unsafe fn tail(live: usize) -> Self::Mask {
            ((1u32 << live) - 1) as __mmask16
        }
        #[inline(always)]
        unsafe fn load_masked(m: Self::Mask, p: *const f32) -> Self {
            _mm512_maskz_loadu_ps(m, p)
        }
        #[inline(always)]
        unsafe fn store_masked(p: *mut f32, m: Self::Mask, v: Self) {
            _mm512_mask_storeu_ps(p, m, v)
        }
        #[inline(always)]
        unsafe fn add(a: Self, b: Self) -> Self {
            _mm512_add_ps(a, b)
        }
        #[inline(always)]
        unsafe fn sub(a: Self, b: Self) -> Self {
            _mm512_sub_ps(a, b)
        }
        #[inline(always)]
        unsafe fn mul(a: Self, b: Self) -> Self {
            _mm512_mul_ps(a, b)
        }
        #[inline(always)]
        unsafe fn div(a: Self, b: Self) -> Self {
            _mm512_div_ps(a, b)
        }
        /// Two halves of eight lanes.
        #[inline(always)]
        unsafe fn exp(x: Self) -> Self {
            #[inline(always)]
            unsafe fn exp8(xd: __m512d) -> __m256 {
                let a = _mm512_set1_pd(EXP_A);
                let s = _mm512_set1_pd(EXP_S);
                let z = _mm512_fmadd_pd(a, xd, s);
                let ki = _mm512_castpd_si512(z);
                let kd = _mm512_sub_pd(z, s);
                let r = _mm512_fmsub_pd(a, xd, kd);
                let idx = _mm512_and_si512(ki, _mm512_set1_epi64(31));
                // In bounds: every index is `ki & 31` into the 32-entry table.
                let t = _mm512_i64gather_epi64::<8>(idx, EXP_T.as_ptr().cast());
                let scale = _mm512_castsi512_pd(_mm512_add_epi64(t, _mm512_slli_epi64::<47>(ki)));
                let p = _mm512_fmadd_pd(r, _mm512_set1_pd(EXP_C0), _mm512_set1_pd(EXP_C1));
                let q = _mm512_fmadd_pd(r, _mm512_set1_pd(EXP_C2), _mm512_set1_pd(1.0));
                let y = _mm512_fmadd_pd(p, _mm512_mul_pd(r, r), q);
                _mm512_cvtpd_ps(_mm512_mul_pd(y, scale))
            }
            let high = _mm256_castpd_ps(_mm512_extractf64x4_pd::<1>(_mm512_castps_pd(x)));
            let lo = exp8(_mm512_cvtps_pd(_mm512_castps512_ps256(x)));
            let hi = exp8(_mm512_cvtps_pd(high));
            _mm512_castpd_ps(_mm512_insertf64x4::<1>(
                _mm512_castpd256_pd512(_mm256_castps_pd(lo)),
                _mm256_castps_pd(hi),
            ))
        }
        #[inline(always)]
        unsafe fn ge(a: Self, b: Self) -> Self::Mask {
            _mm512_cmp_ps_mask::<_CMP_GE_OQ>(a, b)
        }
        #[inline(always)]
        unsafe fn select(m: Self::Mask, a: Self, b: Self) -> Self {
            _mm512_mask_blend_ps(m, a, b)
        }
        #[inline(always)]
        unsafe fn any(m: Self::Mask) -> bool {
            m != 0
        }
        #[inline(always)]
        unsafe fn bits(x: Self) -> Self::Int {
            _mm512_castps_si512(x)
        }
        #[inline(always)]
        unsafe fn from_bits(i: Self::Int) -> Self {
            _mm512_castsi512_ps(i)
        }
        #[inline(always)]
        unsafe fn isplat(v: i32) -> Self::Int {
            _mm512_set1_epi32(v)
        }
        #[inline(always)]
        unsafe fn iadd(a: Self::Int, b: Self::Int) -> Self::Int {
            _mm512_add_epi32(a, b)
        }
        #[inline(always)]
        unsafe fn isub(a: Self::Int, b: Self::Int) -> Self::Int {
            _mm512_sub_epi32(a, b)
        }
        #[inline(always)]
        unsafe fn iand(a: Self::Int, b: Self::Int) -> Self::Int {
            _mm512_and_si512(a, b)
        }
        #[inline(always)]
        unsafe fn ixor(a: Self::Int, b: Self::Int) -> Self::Int {
            _mm512_xor_si512(a, b)
        }
        #[inline(always)]
        unsafe fn shl<const S: i32>(a: Self::Int) -> Self::Int {
            _mm512_sllv_epi32(a, _mm512_set1_epi32(S))
        }
        #[inline(always)]
        unsafe fn shr<const S: i32>(a: Self::Int) -> Self::Int {
            _mm512_srlv_epi32(a, _mm512_set1_epi32(S))
        }
        #[inline(always)]
        unsafe fn srlv(a: Self::Int, count: Self::Int) -> Self::Int {
            _mm512_srlv_epi32(a, count)
        }
        #[inline(always)]
        unsafe fn gt(a: Self::Int, b: Self::Int) -> Self::Mask {
            _mm512_cmpgt_epi32_mask(a, b)
        }
        #[inline(always)]
        unsafe fn eq(a: Self::Int, b: Self::Int) -> Self::Mask {
            _mm512_cmpeq_epi32_mask(a, b)
        }
        #[inline(always)]
        unsafe fn cvtt(x: Self) -> Self::Int {
            _mm512_cvttps_epi32(x)
        }
        #[inline(always)]
        unsafe fn cvt(i: Self::Int) -> Self {
            _mm512_cvtepi32_ps(i)
        }
    }

    /// The lanes of `v` as an array.
    #[inline(always)]
    pub(crate) unsafe fn spill<L: Lanes>(v: L) -> L::Array {
        let mut lanes = L::Array::default();
        L::store(lanes.as_mut().as_mut_ptr(), v);
        lanes
    }

    /// Calls `tile(j, regs, live)` for the column tiles of `0..n`: tiles
    /// of `W` whole registers from column `j`, then one of as many
    /// registers as the rest needs, its last holding `live` lanes.
    #[inline(always)]
    fn for_col_tiles<L: Lanes, const W: usize>(
        n: usize,
        mut tile: impl FnMut(usize, usize, usize),
    ) {
        let step = W * L::LANES;
        let mut j = 0;
        while j + step <= n {
            tile(j, W, L::LANES);
            j += step;
        }
        if j < n {
            let regs = (n - j).div_ceil(L::LANES);
            tile(j, regs, n - j - L::LANES * (regs - 1));
        }
    }

    /// `(first, len)` of the fewest blocks of at most [`SEQ_BLOCK`]
    /// steps that cover `t`, sized evenly (7 → 4 + 3, not 6 + 1).
    fn step_blocks(t: usize) -> impl Iterator<Item = (usize, usize)> {
        let blocks = t.div_ceil(SEQ_BLOCK);
        (0..blocks).scan(0, move |first, b| {
            let len = (t - *first).div_ceil(blocks - b);
            *first += len;
            Some((*first - len, len))
        })
    }

    /// The lanes of a tile's last register when the tile is cut to
    /// `live` of them (`CUT`); `None` when every register is whole.
    #[inline(always)]
    unsafe fn cut<L: Lanes, const CUT: bool>(live: usize) -> Option<L::Mask> {
        if CUT {
            Some(L::tail(live))
        } else {
            None
        }
    }

    /// Register `a` of a `W`-register tile at `p`: whole, or only the
    /// lanes `last` names if it is the tile's last and `last` is given.
    #[inline(always)]
    unsafe fn load_reg<L: Lanes, const W: usize>(
        p: *const f32,
        a: usize,
        last: Option<L::Mask>,
    ) -> L {
        match last {
            Some(m) if a + 1 == W => L::load_masked(m, p.add(a * L::LANES)),
            _ => L::load(p.add(a * L::LANES)),
        }
    }

    /// Stores register `a` of a tile the way [`load_reg`] loads it.
    #[inline(always)]
    unsafe fn store_reg<L: Lanes, const W: usize>(
        p: *mut f32,
        a: usize,
        last: Option<L::Mask>,
        v: L,
    ) {
        match last {
            Some(m) if a + 1 == W => L::store_masked(p.add(a * L::LANES), m, v),
            _ => L::store(p.add(a * L::LANES), v),
        }
    }

    /// A tile's operands: the output slab, the input slab, the weights,
    /// their shape, `(j, live)` — the tile's first output and the lanes
    /// of its last register — and the tile's first step.
    type TileArgs<'a> = (
        &'a mut [f32],
        &'a [f32],
        &'a [f32],
        (usize, usize),
        (usize, usize),
        usize,
    );

    /// The body of one output tile of a product whose outputs are
    /// contiguous — `W` registers (the last cut to `live` lanes if
    /// `CUT`) for `N` steps — run by [`product`].
    trait Tile {
        /// # Safety
        /// Inside [`Lanes::enable`], with the operands of `args` in the
        /// shape the kernel documents and the tile's lanes inside its
        /// output row.
        unsafe fn run<L: Lanes, const W: usize, const N: usize, const CUT: bool>(args: TileArgs);
    }

    /// Runs tile `T` over the `outputs` of every step: tiles of `W`
    /// registers, then one of as many as the rest needs (its last
    /// register cut), each over the step blocks. Output tiles are
    /// outermost, so a tile's column strip of the weights is fetched
    /// once and re-read from L1 for every step block.
    ///
    /// A single step runs the whole call as one function of `N = 1`
    /// tiles. A sequence runs each tile instance as a function of its
    /// own: a tile does enough work to pay for the call, and inlined
    /// beside every other instance its accumulators would compete with
    /// theirs for registers.
    ///
    /// # Safety
    /// `L`'s features, and the operands `T`'s kernel documents.
    #[inline(always)]
    unsafe fn product<T: Tile, L: Lanes, const W: usize>(
        (ys, xs, w, shape): (&mut [f32], &[f32], &[f32], (usize, usize)),
        outputs: usize,
        t: usize,
    ) {
        if t == 1 {
            return L::enable(
                #[inline(always)]
                || {
                    for_col_tiles::<L, W>(
                        outputs,
                        #[inline(always)]
                        |j, regs, live| {
                            let args = (&mut *ys, xs, w, shape, (j, live), 0);
                            if regs == W && live == L::LANES {
                                T::run::<L, W, 1, false>(args);
                            } else {
                                with_const!(regs, [1, 2, 3, 4], |R| {
                                    T::run::<L, R, 1, true>(args)
                                });
                            }
                        },
                    )
                },
            );
        }
        for_col_tiles::<L, W>(outputs, |j, regs, live| {
            for (s0, len) in step_blocks(t) {
                let args = (&mut *ys, xs, w, shape, (j, live), s0);
                if regs == W && live == L::LANES {
                    with_const!(len, [1, 2, 3, 4, 5, 6], |N| {
                        L::enable(
                            #[inline(always)]
                            || T::run::<L, W, N, false>(args),
                        )
                    });
                } else {
                    with_const!(regs, [1, 2, 3, 4], |R| {
                        with_const!(len, [1, 2, 3, 4, 5, 6], |N| {
                            L::enable(
                                #[inline(always)]
                                || T::run::<L, R, N, true>(args),
                            )
                        })
                    });
                }
            }
        });
    }

    /// `ys[s] += Wᵀ · xs[s]` for the `t` steps of an `n`-output slab
    /// `ys` and a `k`-input slab `xs` over the `k × n` matrix `wt`:
    /// [`super::colmajor_gemv_acc`] at `t = 1` and `W = 4`,
    /// [`super::colmajor_gemv_acc_seq`] at `W = 2`.
    ///
    /// Per `(step, output)` this is the scalar recipe: fresh
    /// accumulator, ascending `k`, mul then add (no FMA), then
    /// `y += acc`; [`product`] tiles the outputs.
    ///
    /// # Safety
    /// `L`'s features (callers check [`super::supported`]), a non-empty
    /// `wt` of `k × n` floats, and `ys` / `xs` holding `t` steps of `n`
    /// / `k` floats — the public wrappers establish all three.
    pub(crate) unsafe fn colmajor_gemv_acc<L: Lanes, const W: usize>(
        ys: &mut [f32],
        xs: &[f32],
        wt: &[f32],
        t: usize,
        (n, k): (usize, usize),
    ) {
        product::<ColMajor, L, W>((ys, xs, wt, (n, k)), n, t);
    }

    /// [`colmajor_gemv_acc`]'s tile: each tile of a `wt` row is loaded
    /// once and feeds all `N` steps' accumulators.
    struct ColMajor;

    impl Tile for ColMajor {
        #[inline(always)]
        unsafe fn run<L: Lanes, const W: usize, const N: usize, const CUT: bool>(
            (ys, xs, wt, (n, k), (j, live), s0): TileArgs,
        ) {
            // SAFETY (every access below): register `a` of the tile
            // covers outputs inside `0..n` of a row of `wt` or a step of
            // `ys`, and step `s0 + s`'s `x[kk]` is inside `xs` because
            // `s < N`.
            let last = cut::<L, CUT>(live);
            let xp = xs.as_ptr().add(s0 * k);
            let mut acc = [[L::splat(0.0); W]; N];
            for kk in 0..k {
                let row = wt.as_ptr().add(kk * n + j);
                let mut w = [L::splat(0.0); W];
                for (a, v) in w.iter_mut().enumerate() {
                    *v = load_reg::<L, W>(row, a, last);
                }
                for (s, lanes) in acc.iter_mut().enumerate() {
                    let xb = L::splat(*xp.add(s * k + kk));
                    for (a, lane) in lanes.iter_mut().enumerate() {
                        *lane = L::add(*lane, L::mul(xb, w[a]));
                    }
                }
            }
            let out = ys.as_mut_ptr().add(s0 * n + j);
            for (s, lanes) in acc.iter().enumerate() {
                let o = out.add(s * n);
                for (a, &lane) in lanes.iter().enumerate() {
                    let y = load_reg::<L, W>(o, a, last);
                    store_reg::<L, W>(o, a, last, L::add(y, lane));
                }
            }
        }
    }

    /// `ys[s] += Wᵀ · xs[s]` for the `t` steps of a `cols`-output slab
    /// `ys` and a `rows`-input slab `xs` over the row-major
    /// `rows × cols` matrix `w`: [`super::gemv_t_acc`] at `t = 1`, eight
    /// lanes and `W = 4`, [`super::gemv_t_acc_seq`] at `W = 2`.
    ///
    /// Per `(step, column)` this is the per-step chain
    /// `y[j] += x[r] · w[r][j]` over ascending `r`, rows whose `x[r]` is
    /// zero skipped, seeded from `y` — but carried in registers across
    /// the rows instead of stored and reloaded per row; [`product`] tiles
    /// the columns.
    ///
    /// # Safety
    /// `L`'s features (callers check [`super::supported`]), a non-empty
    /// `w` of `rows × cols` floats, and `ys` / `xs` holding `t` steps of
    /// `cols` / `rows` floats — the public wrappers establish all three.
    pub(crate) unsafe fn gemv_t_acc<L: Lanes, const W: usize>(
        ys: &mut [f32],
        xs: &[f32],
        w: &[f32],
        t: usize,
        (rows, cols): (usize, usize),
    ) {
        product::<GemvT, L, W>((ys, xs, w, (rows, cols)), cols, t);
    }

    /// [`gemv_t_acc`]'s tile: each tile of a weight row is loaded once
    /// and feeds all `N` steps' chains.
    struct GemvT;

    impl Tile for GemvT {
        #[inline(always)]
        unsafe fn run<L: Lanes, const W: usize, const N: usize, const CUT: bool>(
            (ys, xs, w, (rows, cols), (j, live), s0): TileArgs,
        ) {
            // SAFETY (every access below): register `b` of the tile
            // covers columns inside `0..cols` of a row of `w` or a step
            // of `ys`, and step `s0 + a`'s `x[r]` is inside `xs` because
            // `a < N`.
            let last = cut::<L, CUT>(live);
            let yp = ys.as_mut_ptr().add(s0 * cols + j);
            let xp = xs.as_ptr().add(s0 * rows);
            let wp = w.as_ptr().add(j);
            let mut acc = [[L::splat(0.0); W]; N];
            for (a, step) in acc.iter_mut().enumerate() {
                for (b, lane) in step.iter_mut().enumerate() {
                    *lane = load_reg::<L, W>(yp.add(a * cols), b, last);
                }
            }
            for r in 0..rows {
                let mut row = [L::splat(0.0); W];
                for (b, tile) in row.iter_mut().enumerate() {
                    *tile = load_reg::<L, W>(wp.add(r * cols), b, last);
                }
                for (a, step) in acc.iter_mut().enumerate() {
                    let x = *xp.add(a * rows + r);
                    if x == 0.0 {
                        continue;
                    }
                    let xb = L::splat(x);
                    for (b, lane) in step.iter_mut().enumerate() {
                        *lane = L::add(*lane, L::mul(xb, row[b]));
                    }
                }
            }
            for (a, step) in acc.iter().enumerate() {
                for (b, &lane) in step.iter().enumerate() {
                    store_reg::<L, W>(yp.add(a * cols), b, last, lane);
                }
            }
        }
    }

    /// [`super::rank1_update_seq`]: `w += (alpha · us[s]) vs[s]ᵀ` over
    /// the `t` steps in step order (descending when `descending`), with
    /// `us` a `t × rows` slab and `vs` a `t × cols` one.
    ///
    /// Per element this is the per-step saxpy chain `w[r][j] += c · v[j]`
    /// with `c = alpha · u[r]`, one term per step in step order, steps
    /// with `c == 0.0` skipped — only the loop nest differs: column tiles
    /// of four registers (then one for the rest, its last register cut),
    /// then blocks of four rows (then single rows for the rest), then
    /// steps. A tile is loaded and stored once per sequence, each step's
    /// `v` tile is loaded once for the block's rows, and a row every step
    /// skipped is not stored at all. One row at a time, a row's step
    /// chain rather than lane width bounds the kernel; the four-row block
    /// is the faster shape at both widths (DESIGN.md §14).
    ///
    /// # Safety
    /// `L`'s features (callers check [`super::supported`]), a non-empty
    /// `w` of `rows × cols` floats, and `us` / `vs` holding `t` steps of
    /// `rows` / `cols` floats — the public wrapper establishes all three.
    pub(crate) unsafe fn rank1_update_seq<L: Lanes>(
        w: &mut [f32],
        alpha: f32,
        slabs: (&[f32], &[f32]),
        shape: (usize, usize, usize),
        descending: bool,
    ) {
        L::enable(
            #[inline(always)]
            || {
                const R: usize = 4;
                const W: usize = 4;
                let rows = shape.1;
                for_col_tiles::<L, W>(
                    shape.2,
                    #[inline(always)]
                    |j, regs, live| {
                        let mut r = 0;
                        while r < rows {
                            let block = if r + R <= rows { R } else { 1 };
                            let args = (&mut *w, alpha, slabs, shape, (r, j, live), descending);
                            match (block == R, regs == W && live == L::LANES) {
                                (true, true) => rank1_tile::<L, R, W, false>(args),
                                (false, true) => rank1_tile::<L, 1, W, false>(args),
                                (true, false) => with_const!(regs, [1, 2, 3, 4], |REGS| {
                                    rank1_tile::<L, R, REGS, true>(args)
                                }),
                                (false, false) => with_const!(regs, [1, 2, 3, 4], |REGS| {
                                    rank1_tile::<L, 1, REGS, true>(args)
                                }),
                            }
                            r += block;
                        }
                    },
                );
            },
        )
    }

    /// Rows `r..r + R` × `W` registers of columns `j..` of
    /// [`rank1_update_seq`], the last register cut to `live` lanes if
    /// `CUT`, carried in registers across all the steps. Each row keeps
    /// its own zero-skip and its own `updated` flag.
    ///
    /// # Safety
    /// Inside [`Lanes::enable`]; `r + R <= rows` with `w` a
    /// `rows × cols` matrix, `us` / `vs` holding `t` steps, and the
    /// tile's lanes inside `0..cols`.
    #[inline(always)]
    unsafe fn rank1_tile<L: Lanes, const R: usize, const W: usize, const CUT: bool>(
        (w, alpha, (us, vs), (t, rows, cols), (r, j, live), descending): Rank1Args,
    ) {
        // SAFETY (every access below): row `r + q < rows`, and register
        // `a` of the tile covers columns inside `0..cols` of that row of
        // `w` or of step `s` of `vs`.
        let last = cut::<L, CUT>(live);
        let tile = w.as_mut_ptr().add(r * cols + j);
        let mut acc = [[L::splat(0.0); W]; R];
        for (q, row) in acc.iter_mut().enumerate() {
            for (a, lane) in row.iter_mut().enumerate() {
                *lane = load_reg::<L, W>(tile.add(q * cols), a, last);
            }
        }
        let mut updated = [false; R];
        for i in 0..t {
            let s = seq_step(i, t, descending);
            let vp = vs.as_ptr().add(s * cols + j);
            let mut v = [L::splat(0.0); W];
            for (a, lane) in v.iter_mut().enumerate() {
                *lane = load_reg::<L, W>(vp, a, last);
            }
            let u = &us[s * rows + r..][..R];
            for (q, row) in acc.iter_mut().enumerate() {
                let c = alpha * u[q];
                if c == 0.0 {
                    continue;
                }
                updated[q] = true;
                let cb = L::splat(c);
                for (a, lane) in row.iter_mut().enumerate() {
                    *lane = L::add(*lane, L::mul(cb, v[a]));
                }
            }
        }
        for (q, row) in acc.iter().enumerate() {
            if updated[q] {
                for (a, &lane) in row.iter().enumerate() {
                    store_reg::<L, W>(tile.add(q * cols), a, last, lane);
                }
            }
        }
    }

    /// A rank-one tile's operands: the matrix, `alpha`, the `(us, vs)`
    /// slabs, `(t, rows, cols)`, `(r, j, live)` and the step order.
    type Rank1Args<'a> = (
        &'a mut [f32],
        f32,
        (&'a [f32], &'a [f32]),
        (usize, usize, usize),
        (usize, usize, usize),
        bool,
    );
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
    /// allocation, so an overrunning load is an out-of-bounds read. The
    /// exhaustive sweep lives in `tests/simd_identity.rs`.
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
    /// Miri leg: every sequence kernel against `t` per-step calls at
    /// [`Level::Scalar`], on exact-size allocations, both step orders,
    /// with an exact-zero coefficient in every other step. 17 and 25 rows
    /// end the rank-one update's four-row blocks with a single row.
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
            (17, 9, 2),
            (25, 10, 3),
        ] {
            let w = data(rows * cols, 1.7).into_boxed_slice();
            let xc = data(t * cols, 0.2).into_boxed_slice();
            let xr: Box<[f32]> = data(t * rows, 0.9)
                .iter()
                .enumerate()
                .map(|(i, &v)| if i % 2 == 1 { 0.0 } else { v })
                .collect();
            let run = |level, seq: bool| {
                with_level(level, || {
                    let mut gemv_t = data(t * cols, 2.0).into_boxed_slice();
                    let mut outer = [w.clone(), w.clone()];
                    if seq {
                        gemv_t_acc_seq(&mut gemv_t, &xr, &w, t);
                    } else {
                        for s in 0..t {
                            let u = &xr[s * rows..][..rows];
                            gemv_t_acc(&mut gemv_t[s * cols..][..cols], u, &w);
                        }
                    }
                    for (descending, outer) in [false, true].into_iter().zip(&mut outer) {
                        if seq {
                            rank1_update_seq(outer, 0.5, &xr, &xc, t, descending);
                            continue;
                        }
                        for i in 0..t {
                            let s = if descending { t - 1 - i } else { i };
                            let (u, v) = (&xr[s * rows..][..rows], &xc[s * cols..][..cols]);
                            rank1_update(outer, 0.5, u, v);
                        }
                    }
                    let [asc, desc] = outer;
                    [gemv_t, asc, desc]
                })
            };
            let want = run(Level::Scalar, false);
            for &level in &supported_levels() {
                let got = run(level, true);
                for (name, g, w) in ["gemv_t", "rank1", "rank1 desc"]
                    .iter()
                    .zip(&got)
                    .zip(&want)
                    .map(|((n, g), w)| (n, g, w))
                {
                    assert!(
                        g.iter()
                            .zip(w.iter())
                            .all(|(p, q)| p.to_bits() == q.to_bits()),
                        "{name} {} {rows}x{cols} t={t}",
                        level.name()
                    );
                }
            }
        }
    }

    /// The stacked column-major product against `t` per-step calls at
    /// [`Level::Scalar`], on exact-size allocations: small shapes, for
    /// the Miri leg, straddling the 8- and 16-output tiles and the
    /// six-step block; an empty input keeps the `-0.0` already in `ys`.
    #[test]
    fn colmajor_seq_is_t_per_step_calls_at_every_level() {
        for (n, k, t) in [
            (5usize, 0usize, 3usize),
            (0, 4, 2),
            (3, 2, 0),
            (1, 1, 1),
            (7, 3, 2),
            (9, 5, 7),
            (17, 2, 3),
            (33, 3, 2),
        ] {
            let wt = data(k * n, 1.7).into_boxed_slice();
            let xs = data(t * k, 0.2).into_boxed_slice();
            let mut y0 = data(t * n, -1.0);
            if let Some(y) = y0.first_mut() {
                *y = -0.0;
            }
            let mut want = y0.clone().into_boxed_slice();
            with_level(Level::Scalar, || {
                for s in 0..t {
                    colmajor_gemv_acc(&mut want[s * n..][..n], &xs[s * k..][..k], &wt);
                }
            });
            for &level in &supported_levels() {
                let mut ys = y0.clone().into_boxed_slice();
                with_level(level, || colmajor_gemv_acc_seq(&mut ys, &xs, &wt, t));
                assert!(
                    ys.iter()
                        .zip(want.iter())
                        .all(|(a, b)| a.to_bits() == b.to_bits()),
                    "{} {k}->{n} t={t}",
                    level.name()
                );
            }
        }
    }

    /// Every width a masked tail register can have, at both lane
    /// counts: each kernel whose last tile is masked, over 1–17 and
    /// 33–49 outputs (eight-lane tails 1–7 behind 0–6 whole registers,
    /// sixteen-lane tails 1–15), against its scalar definition. Inputs
    /// are exact-size allocations, so a masked load that reads past its
    /// slice is an out-of-bounds read under Miri; every output slab is
    /// followed by guard floats that must keep their bits, so a masked
    /// store that writes past its slice fails on hardware too.
    #[test]
    fn masked_tails_match_scalar_and_write_nothing_past_the_slice() {
        const GUARD: usize = 16;
        let sentinel = f32::from_bits(0x7fc0_5a5a);
        // `f` writes `len` floats at the front of a guarded buffer
        // seeded from `seed`; returns the buffer, guard included.
        let guarded = |len: usize, seed: &[f32], f: &dyn Fn(&mut [f32])| {
            let mut buf = seed.to_vec();
            buf.resize(len + GUARD, sentinel);
            f(&mut buf[..len]);
            buf
        };
        let (t, k) = (2usize, 3usize);
        for n in (1..=17).chain(33..=49) {
            let wt = data(k * n, 1.7).into_boxed_slice();
            let x1 = data(k, 0.2).into_boxed_slice();
            let xs = data(t * k, 0.4).into_boxed_slice();
            let vs = data(t * n, 0.8).into_boxed_slice();
            let y1 = data(n, -1.0);
            let ys = data(t * n, -2.0);
            let w0 = data(k * n, 0.3);
            let mut lanes: Vec<f32> = data(n, 0.5).iter().map(|v| v * 9.0).collect();
            lanes[n / 2] = 100.0; // one `exp` lane past its main path
            let run = |level| {
                with_level(level, || {
                    [
                        guarded(n, &y1, &|y| colmajor_gemv_acc(y, &x1, &wt)),
                        guarded(t * n, &ys, &|y| colmajor_gemv_acc_seq(y, &xs, &wt, t)),
                        guarded(n, &y1, &|y| gemv_t_acc(y, &x1, &wt)),
                        guarded(t * n, &ys, &|y| gemv_t_acc_seq(y, &xs, &wt, t)),
                        guarded(k * n, &w0, &|w| rank1_update_seq(w, 0.5, &xs, &vs, t, true)),
                        guarded(n, &lanes, &|v| crate::libm::sigmoid_inplace(v)),
                        guarded(n, &lanes, &|v| crate::libm::tanh_inplace(v)),
                        guarded(n, &lanes, &|v| {
                            let sum = crate::libm::exp_shifted_inplace(v, 0.25);
                            assert_eq!(
                                sum.to_bits(),
                                crate::libm::sum_exp_shifted(&lanes, 0.25).to_bits()
                            );
                        }),
                    ]
                })
            };
            let want = run(Level::Scalar);
            for &level in &supported_levels() {
                for (i, (g, w)) in run(level).iter().zip(&want).enumerate() {
                    assert!(
                        g.iter().zip(w).all(|(p, q)| p.to_bits() == q.to_bits()),
                        "kernel {i} {} n={n}",
                        level.name()
                    );
                }
            }
        }
    }

    /// The transpose against its definition on exact-size allocations;
    /// small shapes, for the Miri leg, on both sides of the 8×8 blocks.
    #[test]
    fn transpose_into_levels_bit_identical() {
        for (rows, cols) in [
            (0usize, 3usize),
            (3, 0),
            (1, 1),
            (5, 7),
            (8, 8),
            (9, 17),
            (16, 12),
        ] {
            let src = data(rows * cols, 0.6).into_boxed_slice();
            let mut want = vec![-7.0f32; rows * cols];
            for r in 0..rows {
                for c in 0..cols {
                    want[c * rows + r] = src[r * cols + c];
                }
            }
            for &level in &supported_levels() {
                let mut dst = vec![-7.0f32; rows * cols].into_boxed_slice();
                with_level(level, || transpose_into(&mut dst, &src, rows, cols));
                assert!(
                    dst.iter()
                        .zip(&want)
                        .all(|(a, b)| a.to_bits() == b.to_bits()),
                    "{} {rows}x{cols}",
                    level.name()
                );
            }
        }
    }

    /// NaN anywhere — in a vector body, in the tail, everywhere — is
    /// skipped at every level exactly as `f32::max` skips it.
    #[test]
    fn max_matches_fold_with_nan_at_every_level() {
        for n in [1usize, 7, 8, 9, 16, 17, 40] {
            let base = data(n, 3.0);
            let mut cases = vec![vec![f32::NAN; n]];
            for at in [0, n / 2, n - 1] {
                let mut x = base.clone();
                x[at] = f32::NAN;
                cases.push(x);
            }
            let mut every_other = base.clone();
            every_other
                .iter_mut()
                .step_by(2)
                .for_each(|v| *v = f32::NAN);
            cases.push(every_other);
            for x in cases {
                let want = x.iter().copied().fold(f32::NEG_INFINITY, f32::max);
                for &level in &supported_levels() {
                    let got = with_level(level, || max(&x));
                    assert_eq!(got.to_bits(), want.to_bits(), "{} {x:?}", level.name());
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "whole number of steps")]
    fn sequence_slab_must_be_whole_steps() {
        let mut ys = [0.0f32; 5];
        colmajor_gemv_acc_seq(&mut ys, &[1.0; 4], &[1.0; 4], 2);
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
