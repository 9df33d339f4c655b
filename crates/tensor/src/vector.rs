//! A dense, heap-allocated `f32` vector with the BLAS-1 kernels used by the
//! neural-network layers in `ncl-nn`.

use std::fmt;
use std::ops::{Index, IndexMut};

/// Sequential dot product `Σ_i a[i]·b[i]` of two slices — the one
/// reduction behind [`Vector::dot`] and the slice-level attention, so a
/// caller holding rows in flat storage gets the bits a `Vector` would.
///
/// # Panics
/// Panics if the lengths differ.
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "dot: dimension mismatch");
    a.iter().zip(b).map(|(a, b)| a * b).sum()
}

/// A dense `f32` vector.
///
/// `Vector` is the unit of data flowing through the COM-AID network: word
/// embeddings, LSTM gate activations, hidden states, attention contexts and
/// output logits are all `Vector`s. It wraps a `Vec<f32>` and exposes the
/// small set of in-place kernels that manual back-propagation needs, so hot
/// loops avoid intermediate allocations.
#[derive(Clone, PartialEq, Default)]
pub struct Vector {
    data: Vec<f32>,
}

impl Vector {
    /// Creates a zero vector of dimension `n`.
    pub fn zeros(n: usize) -> Self {
        Self { data: vec![0.0; n] }
    }

    /// Creates a vector filled with `value`.
    pub fn full(n: usize, value: f32) -> Self {
        Self {
            data: vec![value; n],
        }
    }

    /// Wraps an existing buffer.
    pub fn from_vec(data: Vec<f32>) -> Self {
        Self { data }
    }

    /// Builds a vector from a slice.
    pub fn from_slice(data: &[f32]) -> Self {
        Self {
            data: data.to_vec(),
        }
    }

    /// Dimension of the vector.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the vector has dimension zero.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the underlying buffer.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying buffer.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the vector, returning its buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Sets every component to zero, keeping the allocation.
    pub fn fill_zero(&mut self) {
        self.data.fill(0.0);
    }

    /// Dot product `self · other`.
    ///
    /// # Panics
    /// Panics if the dimensions differ.
    #[inline]
    pub fn dot(&self, other: &Self) -> f32 {
        dot(&self.data, &other.data)
    }

    /// In-place `self += alpha * x` (the BLAS `axpy` kernel), dispatched
    /// through [`crate::simd`] — bit-identical to the scalar loop at
    /// every level.
    #[inline]
    pub fn axpy(&mut self, alpha: f32, x: &Self) {
        assert_eq!(self.len(), x.len(), "axpy: dimension mismatch");
        crate::simd::saxpy(&mut self.data, alpha, &x.data);
    }

    /// In-place `self += x`.
    ///
    /// `1.0 * v` is bitwise `v` under IEEE 754, so this is exactly the
    /// `axpy(1.0, ..)` it has always been.
    #[inline]
    pub fn add_assign(&mut self, x: &Self) {
        self.axpy(1.0, x);
    }

    /// In-place `self *= alpha`, dispatched through [`crate::simd`].
    #[inline]
    pub fn scale(&mut self, alpha: f32) {
        crate::simd::scale(&mut self.data, alpha);
    }

    /// Returns `self + other` as a new vector.
    pub fn add(&self, other: &Self) -> Self {
        let mut out = self.clone();
        out.add_assign(other);
        out
    }

    /// Returns `self - other` as a new vector.
    pub fn sub(&self, other: &Self) -> Self {
        assert_eq!(self.len(), other.len(), "sub: dimension mismatch");
        Self::from_vec(
            self.data
                .iter()
                .zip(&other.data)
                .map(|(a, b)| a - b)
                .collect(),
        )
    }

    /// Element-wise (Hadamard) product, written `⊙` in the paper's Eq. for
    /// the LSTM cell: `h_t = o_t ⊙ tanh(c_t)`.
    pub fn hadamard(&self, other: &Self) -> Self {
        assert_eq!(self.len(), other.len(), "hadamard: dimension mismatch");
        Self::from_vec(
            self.data
                .iter()
                .zip(&other.data)
                .map(|(a, b)| a * b)
                .collect(),
        )
    }

    /// Accumulates `alpha * a ⊙ b` into `self`; the fused kernel for LSTM
    /// backward passes (`dc += do ⊙ tanh'(c)` and friends).
    pub fn add_hadamard(&mut self, alpha: f32, a: &Self, b: &Self) {
        assert_eq!(self.len(), a.len(), "add_hadamard: dimension mismatch");
        assert_eq!(self.len(), b.len(), "add_hadamard: dimension mismatch");
        for ((s, x), y) in self.data.iter_mut().zip(&a.data).zip(&b.data) {
            *s += alpha * x * y;
        }
    }

    /// Euclidean (L2) norm.
    pub fn norm(&self) -> f32 {
        self.dot(self).sqrt()
    }

    /// Sum of all components.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Index of the largest component, or `None` for an empty vector.
    /// Ties resolve to the lowest index, and NaNs are never selected unless
    /// all entries are NaN.
    pub fn argmax(&self) -> Option<usize> {
        let mut best: Option<(usize, f32)> = None;
        for (i, &v) in self.data.iter().enumerate() {
            if v.is_nan() {
                continue;
            }
            match best {
                Some((_, b)) if v <= b => {}
                _ => best = Some((i, v)),
            }
        }
        best.map(|(i, _)| i)
            .or(if self.data.is_empty() { None } else { Some(0) })
    }

    /// Cosine similarity between two vectors; zero if either has zero norm.
    ///
    /// Used for query rewriting (Eq. 13) and the embedding nearest-neighbour
    /// search of Section 5, Phase I.
    pub fn cosine(&self, other: &Self) -> f32 {
        let na = self.norm();
        let nb = other.norm();
        if na <= f32::EPSILON || nb <= f32::EPSILON {
            return 0.0;
        }
        (self.dot(other) / (na * nb)).clamp(-1.0, 1.0)
    }

    /// Returns true if every component is finite.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }

    /// Iterator over components.
    pub fn iter(&self) -> std::slice::Iter<'_, f32> {
        self.data.iter()
    }
}

impl Index<usize> for Vector {
    type Output = f32;
    #[inline]
    fn index(&self, i: usize) -> &f32 {
        &self.data[i]
    }
}

impl IndexMut<usize> for Vector {
    #[inline]
    fn index_mut(&mut self, i: usize) -> &mut f32 {
        &mut self.data[i]
    }
}

impl fmt::Debug for Vector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Vector(dim={}, {:?})", self.len(), &self.data)
    }
}

impl FromIterator<f32> for Vector {
    fn from_iter<T: IntoIterator<Item = f32>>(iter: T) -> Self {
        Self {
            data: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn zeros_and_len() {
        let v = Vector::zeros(5);
        assert_eq!(v.len(), 5);
        assert_eq!(v.sum(), 0.0);
        assert!(!v.is_empty());
        assert!(Vector::zeros(0).is_empty());
    }

    #[test]
    fn dot_product() {
        let a = Vector::from_slice(&[1.0, 2.0, 3.0]);
        let b = Vector::from_slice(&[4.0, -5.0, 6.0]);
        assert_eq!(a.dot(&b), 4.0 - 10.0 + 18.0);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn dot_dimension_mismatch_panics() {
        let a = Vector::zeros(2);
        let b = Vector::zeros(3);
        let _ = a.dot(&b);
    }

    #[test]
    fn axpy_accumulates() {
        let mut a = Vector::from_slice(&[1.0, 1.0]);
        let x = Vector::from_slice(&[2.0, 3.0]);
        a.axpy(0.5, &x);
        assert_eq!(a.as_slice(), &[2.0, 2.5]);
    }

    #[test]
    fn hadamard_matches_manual() {
        let a = Vector::from_slice(&[1.0, 2.0, 3.0]);
        let b = Vector::from_slice(&[4.0, 5.0, 6.0]);
        assert_eq!(a.hadamard(&b).as_slice(), &[4.0, 10.0, 18.0]);
    }

    #[test]
    fn add_hadamard_fused() {
        let mut acc = Vector::from_slice(&[1.0, 1.0]);
        let a = Vector::from_slice(&[2.0, 3.0]);
        let b = Vector::from_slice(&[4.0, 5.0]);
        acc.add_hadamard(2.0, &a, &b);
        assert_eq!(acc.as_slice(), &[17.0, 31.0]);
    }

    #[test]
    fn argmax_basic_and_ties() {
        assert_eq!(Vector::from_slice(&[0.1, 0.9, 0.5]).argmax(), Some(1));
        assert_eq!(Vector::from_slice(&[0.9, 0.9]).argmax(), Some(0));
        assert_eq!(Vector::zeros(0).argmax(), None);
    }

    #[test]
    fn argmax_skips_nan() {
        let v = Vector::from_slice(&[f32::NAN, 1.0, 0.5]);
        assert_eq!(v.argmax(), Some(1));
    }

    #[test]
    fn cosine_of_parallel_is_one() {
        let a = Vector::from_slice(&[1.0, 2.0]);
        let b = Vector::from_slice(&[2.0, 4.0]);
        assert!((a.cosine(&b) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn cosine_of_zero_vector_is_zero() {
        let a = Vector::zeros(3);
        let b = Vector::from_slice(&[1.0, 0.0, 0.0]);
        assert_eq!(a.cosine(&b), 0.0);
    }

    #[test]
    fn cosine_of_orthogonal_is_zero() {
        let a = Vector::from_slice(&[1.0, 0.0]);
        let b = Vector::from_slice(&[0.0, 1.0]);
        assert!(a.cosine(&b).abs() < 1e-6);
    }

    #[test]
    fn norm_pythagorean() {
        let v = Vector::from_slice(&[3.0, 4.0]);
        assert!((v.norm() - 5.0).abs() < 1e-6);
    }

    #[test]
    fn fill_zero_keeps_len() {
        let mut v = Vector::from_slice(&[1.0, 2.0]);
        v.fill_zero();
        assert_eq!(v.as_slice(), &[0.0, 0.0]);
    }

    proptest! {
        #[test]
        fn dot_is_symmetric(a in proptest::collection::vec(-10.0f32..10.0, 1..32)) {
            let n = a.len();
            let b: Vec<f32> = a.iter().map(|x| x * 0.5 + 1.0).collect();
            let va = Vector::from_slice(&a);
            let vb = Vector::from_slice(&b[..n]);
            prop_assert!((va.dot(&vb) - vb.dot(&va)).abs() < 1e-3);
        }

        #[test]
        fn cosine_bounded(a in proptest::collection::vec(-10.0f32..10.0, 1..32),
                          s in -5.0f32..5.0) {
            let b: Vec<f32> = a.iter().map(|x| x * s + 0.1).collect();
            let c = Vector::from_slice(&a).cosine(&Vector::from_slice(&b));
            prop_assert!((-1.0..=1.0).contains(&c));
        }

        #[test]
        fn axpy_linear_in_alpha(x in proptest::collection::vec(-3.0f32..3.0, 1..16),
                                alpha in -2.0f32..2.0) {
            let vx = Vector::from_slice(&x);
            let mut a = Vector::zeros(x.len());
            a.axpy(alpha, &vx);
            for i in 0..x.len() {
                prop_assert!((a[i] - alpha * x[i]).abs() < 1e-4);
            }
        }
    }
}
