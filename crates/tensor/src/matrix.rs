//! Row-major dense `f32` matrix with the BLAS-2/3 kernels required by LSTM
//! and attention forward/backward passes.

use crate::simd;
use crate::vector::Vector;
use std::fmt;

/// Rows of `B` that [`Matrix::gemm_nt`] transposes at a time: at the
/// paper's d = 150 one block's transpose is 38 KB, which stays in cache
/// across the block's product.
const GEMM_NT_BLOCK: usize = 64;

/// A row-major dense `f32` matrix.
///
/// Every weight matrix in COM-AID (`W^(i)`, `U^(f)`, `W_d`, `W_s`, ...) is a
/// `Matrix`. The hot kernels (`gemm_nt`, `axpy`, the saxpy row updates)
/// dispatch through [`crate::simd`] to explicit AVX2 lanes with a scalar
/// fallback, bit-identical across levels; for the model sizes used
/// in the paper (`d ≤ 200`) this is within a small factor of a tuned BLAS
/// and keeps the crate dependency-free.
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Creates a `rows × cols` zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a matrix from a row-major buffer.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "from_vec: buffer size mismatch");
        Self { rows, cols, data }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Immutable view of row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        debug_assert!(r < self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable view of row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        debug_assert!(r < self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Full row-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable row-major buffer.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Sets every entry to zero, keeping the allocation.
    pub fn fill_zero(&mut self) {
        self.data.fill(0.0);
    }

    /// Matrix–vector product `y = A x` (BLAS `gemv`).
    ///
    /// # Panics
    /// Panics if `x.len() != cols`.
    pub fn gemv(&self, x: &Vector) -> Vector {
        assert_eq!(x.len(), self.cols, "gemv: dimension mismatch");
        let xs = x.as_slice();
        let mut out = Vec::with_capacity(self.rows);
        for r in 0..self.rows {
            let row = self.row(r);
            let mut acc = 0.0f32;
            for (a, b) in row.iter().zip(xs) {
                acc += a * b;
            }
            out.push(acc);
        }
        Vector::from_vec(out)
    }

    /// Fused `y += A x` into caller storage. Each row is the same
    /// fresh-accumulator ascending dot as [`Matrix::gemv`]
    /// ([`simd::rowmajor_gemv_acc`], the scalar definition at every
    /// level): the per-step reference the transposed products
    /// ([`simd::colmajor_gemv_acc`]) are tested against.
    pub fn gemv_acc(&self, x: &Vector, y: &mut Vector) {
        assert_eq!(x.len(), self.cols, "gemv_acc: dimension mismatch");
        assert_eq!(y.len(), self.rows, "gemv_acc: output dimension mismatch");
        simd::rowmajor_gemv_acc(y.as_mut_slice(), x.as_slice(), &self.data);
    }

    /// Transposed matrix–vector product `y = Aᵀ x`, the backward counterpart
    /// of [`Matrix::gemv`]: if `y = A x` then `dL/dx = Aᵀ (dL/dy)`.
    pub fn gemv_t(&self, x: &Vector) -> Vector {
        let mut y = Vector::zeros(self.cols);
        self.gemv_t_acc(x, &mut y);
        y
    }

    /// Fused `y += Aᵀ x`: one saxpy per row with a non-zero `x[r]`
    /// ([`simd::gemv_t_acc`]; the zero-skip is bitwise-observable and
    /// documented there).
    pub fn gemv_t_acc(&self, x: &Vector, y: &mut Vector) {
        assert_eq!(x.len(), self.rows, "gemv_t: dimension mismatch");
        assert_eq!(y.len(), self.cols, "gemv_t: output dimension mismatch");
        simd::gemv_t_acc(y.as_mut_slice(), x.as_slice(), &self.data);
    }

    /// Accumulates the outer product `self += alpha * u vᵀ`; the gradient
    /// kernel for every weight matrix (`dW += dy xᵀ`). One saxpy per row
    /// with a non-zero `alpha * u[r]` ([`simd::rank1_update`]).
    pub fn add_outer(&mut self, alpha: f32, u: &Vector, v: &Vector) {
        assert_eq!(u.len(), self.rows, "add_outer: row dimension mismatch");
        assert_eq!(v.len(), self.cols, "add_outer: col dimension mismatch");
        simd::rank1_update(&mut self.data, alpha, u.as_slice(), v.as_slice());
    }

    /// Matrix product `C = A B` (BLAS `gemm`, ikj loop order).
    pub fn gemm(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.rows, "gemm: inner dimension mismatch");
        let mut out = Matrix::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self.data[i * self.cols + k];
                if a == 0.0 {
                    continue;
                }
                let brow = &other.data[k * other.cols..(k + 1) * other.cols];
                let crow = &mut out.data[i * other.cols..(i + 1) * other.cols];
                simd::saxpy(crow, a, brow);
            }
        }
        out
    }

    /// [`Matrix::gemv_t_acc`] for every step of a sequence in one call:
    /// `ys[s] += Aᵀ xs[s]` for `s < t`, with `xs` a flat `t × rows` slab
    /// and `ys` a flat `t × cols` slab. Bit-identical to `t` calls of
    /// `gemv_t_acc`, zero-skip included ([`simd::gemv_t_acc_seq`]).
    ///
    /// # Panics
    /// Panics if a slab is not `t` rows of the matching dimension.
    pub fn gemv_t_acc_seq(&self, xs: &[f32], ys: &mut [f32], t: usize) {
        assert_eq!(xs.len(), t * self.rows, "gemv_t_acc_seq: input slab");
        assert_eq!(ys.len(), t * self.cols, "gemv_t_acc_seq: output slab");
        simd::gemv_t_acc_seq(ys, xs, &self.data, t);
    }

    /// [`Matrix::add_outer`] for every step of a sequence in one call:
    /// `self += alpha · us[s] vs[s]ᵀ` for the `t` steps **in step
    /// order** — ascending, or descending when `descending` — with `us`
    /// a flat `t × rows` slab and `vs` a flat `t × cols` slab.
    /// Bit-identical to `t` calls of `add_outer` made in that order
    /// ([`simd::rank1_update_seq`]): each gradient element receives its
    /// terms one step at a time, exactly as before.
    ///
    /// # Panics
    /// Panics if a slab is not `t` rows of the matching dimension.
    pub fn add_outer_seq(
        &mut self,
        alpha: f32,
        us: &[f32],
        vs: &[f32],
        t: usize,
        descending: bool,
    ) {
        assert_eq!(us.len(), t * self.rows, "add_outer_seq: row slab");
        assert_eq!(vs.len(), t * self.cols, "add_outer_seq: col slab");
        simd::rank1_update_seq(&mut self.data, alpha, us, vs, t, descending);
    }

    /// Matrix product against a transposed right operand: `C = A Bᵀ`,
    /// i.e. `C[i][j] = A.row(i) · B.row(j)`.
    ///
    /// With `A` holding one state per row (k × d) and `B` a weight matrix
    /// (n × d) this is the stacked product of a `k`-step sequence into a
    /// zeroed output. `B` is transposed `GEMM_NT_BLOCK` (64) rows at a time
    /// into scratch, and each block's columns of `C` are one
    /// [`simd::colmajor_gemv_acc_seq`] over it; a block's transpose stays
    /// in cache for all `k` rows, where a whole transposed `B` at a
    /// vocabulary's width would not. (Serving once stacked its candidates
    /// through this; it now decodes one candidate at a time — DESIGN.md
    /// §16 — and the wrapper stays for the benchmark's
    /// `tensor.gemm_nt_us` and fig16.)
    ///
    /// Each output entry is an independent ascending-index dot product —
    /// the same accumulation order as [`Matrix::gemv`]/[`Matrix::gemv_acc`]
    /// (`+0 + acc` is `acc`) — so `gemm_nt` results are bit-identical to
    /// row-by-row `gemv` at every SIMD dispatch level (see the [`simd`]
    /// module contract).
    pub fn gemm_nt(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.cols, "gemm_nt: inner dimension mismatch");
        let (k, n, d) = (self.rows, other.rows, self.cols);
        let mut out = Matrix::zeros(k, n);
        if k == 0 || n == 0 || d == 0 {
            return out;
        }
        let mut bt = vec![0.0f32; d * GEMM_NT_BLOCK.min(n)];
        let mut ys = vec![0.0f32; k * GEMM_NT_BLOCK.min(n)];
        for (b, block) in other.data.chunks(GEMM_NT_BLOCK * d).enumerate() {
            let rows = block.len() / d;
            let (bt, ys) = (&mut bt[..d * rows], &mut ys[..k * rows]);
            simd::transpose_into(bt, block, rows, d);
            ys.fill(0.0);
            simd::colmajor_gemv_acc_seq(ys, &self.data, bt, k);
            let first = b * GEMM_NT_BLOCK;
            for (out_row, y) in out.data.chunks_exact_mut(n).zip(ys.chunks_exact(rows)) {
                out_row[first..first + rows].copy_from_slice(y);
            }
        }
        out
    }

    /// Returns the transpose as a new matrix
    /// ([`simd::transpose_into`]).
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        simd::transpose_into(&mut out.data, &self.data, self.rows, self.cols);
        out
    }

    /// In-place `self += alpha * other`.
    pub fn axpy(&mut self, alpha: f32, other: &Matrix) {
        assert_eq!(self.rows, other.rows, "axpy: row mismatch");
        assert_eq!(self.cols, other.cols, "axpy: col mismatch");
        simd::saxpy(&mut self.data, alpha, &other.data);
    }

    /// In-place `self *= alpha`.
    pub fn scale(&mut self, alpha: f32) {
        simd::scale(&mut self.data, alpha);
    }

    /// Frobenius norm (root of the sum of squared entries).
    pub fn frobenius_norm(&self) -> f32 {
        self.data.iter().map(|v| v * v).sum::<f32>().sqrt()
    }

    /// Sum of squared entries, used for global gradient-norm clipping.
    pub fn sq_sum(&self) -> f32 {
        self.data.iter().map(|v| v * v).sum()
    }

    /// Returns true if every entry is finite.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }

    /// Copies row `r` into a new [`Vector`].
    pub fn row_vector(&self, r: usize) -> Vector {
        Vector::from_slice(self.row(r))
    }

    /// Overwrites row `r` with `v`.
    pub fn set_row(&mut self, r: usize, v: &Vector) {
        assert_eq!(v.len(), self.cols, "set_row: dimension mismatch");
        self.row_mut(r).copy_from_slice(v.as_slice());
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f32;
    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &f32 {
        debug_assert!(r < self.rows && c < self.cols);
        &self.data[r * self.cols + c]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f32 {
        debug_assert!(r < self.rows && c < self.cols);
        &mut self.data[r * self.cols + c]
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix({}x{}) [", self.rows, self.cols)?;
        for r in 0..self.rows.min(8) {
            writeln!(f, "  {:?}", self.row(r))?;
        }
        if self.rows > 8 {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample() -> Matrix {
        Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    }

    #[test]
    fn gemv_matches_manual() {
        let m = sample();
        let x = Vector::from_slice(&[1.0, 0.0, -1.0]);
        let y = m.gemv(&x);
        assert_eq!(y.as_slice(), &[-2.0, -2.0]);
    }

    #[test]
    fn gemv_t_is_transpose_gemv() {
        let m = sample();
        let x = Vector::from_slice(&[1.0, 2.0]);
        let y = m.gemv_t(&x);
        let yt = m.transpose().gemv(&x);
        assert_eq!(y.as_slice(), yt.as_slice());
    }

    #[test]
    fn identity_gemv_is_noop() {
        let m = Matrix::identity(4);
        let x = Vector::from_slice(&[1.0, -2.0, 3.0, 0.5]);
        assert_eq!(m.gemv(&x).as_slice(), x.as_slice());
    }

    #[test]
    fn add_outer_rank_one() {
        let mut m = Matrix::zeros(2, 2);
        let u = Vector::from_slice(&[1.0, 2.0]);
        let v = Vector::from_slice(&[3.0, 4.0]);
        m.add_outer(1.0, &u, &v);
        assert_eq!(m.as_slice(), &[3.0, 4.0, 6.0, 8.0]);
    }

    #[test]
    fn gemm_against_identity() {
        let m = sample();
        let i3 = Matrix::identity(3);
        assert_eq!(m.gemm(&i3).as_slice(), m.as_slice());
    }

    #[test]
    fn gemm_manual_2x2() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let b = Matrix::from_vec(2, 2, vec![5.0, 6.0, 7.0, 8.0]);
        let c = a.gemm(&b);
        assert_eq!(c.as_slice(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn gemm_nt_matches_gemm_of_transpose() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Matrix::from_vec(4, 3, (0..12).map(|i| i as f32 * 0.25 - 1.0).collect());
        let fast = a.gemm_nt(&b);
        let slow = a.gemm(&b.transpose());
        assert_eq!(fast.rows(), 2);
        assert_eq!(fast.cols(), 4);
        for (x, y) in fast.as_slice().iter().zip(slow.as_slice()) {
            assert!((x - y).abs() < 1e-6);
        }
    }

    #[test]
    fn gemm_nt_rows_bit_match_gemv() {
        // gemm_nt is *bit-identical* to per-row gemv, block boundaries
        // included (70 rows is eight 8-row blocks and a ragged tail).
        let d = 7;
        let a = Matrix::from_vec(3, d, (0..3 * d).map(|i| (i as f32).sin()).collect());
        let b = Matrix::from_vec(70, d, (0..70 * d).map(|i| (i as f32 * 0.7).cos()).collect());
        let c = a.gemm_nt(&b);
        for i in 0..3 {
            let y = b.gemv(&a.row_vector(i));
            for j in 0..70 {
                assert_eq!(c[(i, j)].to_bits(), y[j].to_bits(), "({i},{j})");
            }
        }
    }

    #[test]
    fn simd_levels_agree_on_gemm_nt() {
        // In-process SIMD == scalar agreement for the serving kernel at
        // every level this machine supports, and with the per-row `gemv`
        // it is defined as: one partial block of `B`'s rows, and two full
        // blocks plus a ragged tail.
        use crate::simd;
        let d = 13;
        for (k, n) in [(5usize, 37usize), (3, 2 * GEMM_NT_BLOCK + 22)] {
            let a = Matrix::from_vec(k, d, (0..k * d).map(|i| (i as f32 * 0.41).sin()).collect());
            let b = Matrix::from_vec(n, d, (0..n * d).map(|i| (i as f32 * 0.17).cos()).collect());
            let reference = simd::with_level(simd::Level::Scalar, || a.gemm_nt(&b));
            for i in 0..k {
                let y = b.gemv(&a.row_vector(i));
                for (x, y) in reference.row(i).iter().zip(y.as_slice()) {
                    assert_eq!(x.to_bits(), y.to_bits(), "row {i} {k}x{n}");
                }
            }
            for level in simd::supported_levels() {
                let got = simd::with_level(level, || a.gemm_nt(&b));
                for (x, y) in got.as_slice().iter().zip(reference.as_slice()) {
                    assert_eq!(x.to_bits(), y.to_bits(), "level {} {k}x{n}", level.name());
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "inner dimension mismatch")]
    fn gemm_nt_wrong_dim_panics() {
        let _ = sample().gemm_nt(&Matrix::zeros(2, 4));
    }

    #[test]
    fn transpose_involution() {
        let m = sample();
        assert_eq!(m.transpose().transpose().as_slice(), m.as_slice());
    }

    #[test]
    fn frobenius_norm_simple() {
        let m = Matrix::from_vec(1, 2, vec![3.0, 4.0]);
        assert!((m.frobenius_norm() - 5.0).abs() < 1e-6);
    }

    #[test]
    fn set_row_round_trips() {
        let mut m = Matrix::zeros(3, 2);
        let v = Vector::from_slice(&[7.0, 8.0]);
        m.set_row(1, &v);
        assert_eq!(m.row_vector(1).as_slice(), v.as_slice());
        assert_eq!(m.row_vector(0).as_slice(), &[0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn gemv_wrong_dim_panics() {
        let _ = sample().gemv(&Vector::zeros(2));
    }

    proptest! {
        #[test]
        fn gemv_linearity(
            data in proptest::collection::vec(-2.0f32..2.0, 12),
            x in proptest::collection::vec(-2.0f32..2.0, 4),
            y in proptest::collection::vec(-2.0f32..2.0, 4),
        ) {
            let m = Matrix::from_vec(3, 4, data);
            let vx = Vector::from_slice(&x);
            let vy = Vector::from_slice(&y);
            let lhs = m.gemv(&vx.add(&vy));
            let mut rhs = m.gemv(&vx);
            rhs.add_assign(&m.gemv(&vy));
            for i in 0..3 {
                prop_assert!((lhs[i] - rhs[i]).abs() < 1e-3);
            }
        }

        #[test]
        fn gemv_t_adjoint_identity(
            data in proptest::collection::vec(-2.0f32..2.0, 12),
            x in proptest::collection::vec(-2.0f32..2.0, 4),
            y in proptest::collection::vec(-2.0f32..2.0, 3),
        ) {
            // <A x, y> == <x, A^T y> — the identity manual backprop relies on.
            let m = Matrix::from_vec(3, 4, data);
            let vx = Vector::from_slice(&x);
            let vy = Vector::from_slice(&y);
            let lhs = m.gemv(&vx).dot(&vy);
            let rhs = vx.dot(&m.gemv_t(&vy));
            prop_assert!((lhs - rhs).abs() < 1e-2);
        }

        #[test]
        fn gemm_nt_equals_transposed_gemm(
            a in proptest::collection::vec(-2.0f32..2.0, 10),
            b in proptest::collection::vec(-2.0f32..2.0, 35),
        ) {
            let a = Matrix::from_vec(2, 5, a);
            let b = Matrix::from_vec(7, 5, b);
            let fast = a.gemm_nt(&b);
            let slow = a.gemm(&b.transpose());
            for (x, y) in fast.as_slice().iter().zip(slow.as_slice()) {
                prop_assert!((x - y).abs() < 1e-4);
            }
        }
    }
}
