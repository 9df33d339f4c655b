//! Principal component analysis by power iteration with deflation.
//!
//! Appendix A.2 of the paper visualises how concept and word representations
//! drift as expert feedbacks are fed into COM-AID by projecting them onto
//! their first two principal components (Figure 10). This module provides
//! that projection.

use crate::matrix::Matrix;
use crate::vector::Vector;

/// Result of a PCA fit: the top-`k` principal axes (rows) and the mean that
/// was subtracted before fitting.
#[derive(Debug, Clone)]
pub struct Pca {
    /// `k × d` matrix whose rows are unit-norm principal axes, ordered by
    /// decreasing explained variance.
    pub components: Matrix,
    /// The per-dimension mean of the fitted data.
    pub mean: Vector,
    /// Eigenvalues (variance along each component), same order as rows.
    pub explained_variance: Vec<f32>,
}

impl Pca {
    /// Fits a `k`-component PCA to the rows of `data` (`n × d`).
    ///
    /// Uses power iteration on the covariance operator with Hotelling
    /// deflation; adequate for the small `k` (2) and modest `d` (≤ 200)
    /// used in Figure 10. Deterministic: iteration starts from the basis
    /// vector with the largest data variance.
    ///
    /// # Panics
    /// Panics if `data` has no rows or `k` exceeds the dimensionality.
    pub fn fit(data: &Matrix, k: usize) -> Self {
        let n = data.rows();
        let d = data.cols();
        assert!(n > 0, "pca: empty data");
        assert!(k <= d, "pca: more components than dimensions");

        // Center.
        let mut mean = Vector::zeros(d);
        for r in 0..n {
            mean.axpy(1.0, &data.row_vector(r));
        }
        mean.scale(1.0 / n as f32);
        let mut centered = Matrix::zeros(n, d);
        for r in 0..n {
            let row = data.row_vector(r).sub(&mean);
            centered.set_row(r, &row);
        }

        // Covariance C = Xᵀ X / n (d × d). d is small, so forming it is fine.
        let mut cov = Matrix::zeros(d, d);
        for r in 0..n {
            let row = centered.row_vector(r);
            cov.add_outer(1.0 / n as f32, &row, &row);
        }

        let mut components = Matrix::zeros(k, d);
        let mut explained = Vec::with_capacity(k);
        for comp in 0..k {
            // Start from the coordinate axis with the largest diagonal
            // entry of the (deflated) covariance — deterministic and never
            // orthogonal to the dominant eigenvector in practice.
            let mut start = 0;
            for i in 1..d {
                if cov[(i, i)] > cov[(start, start)] {
                    start = i;
                }
            }
            let mut v = Vector::zeros(d);
            v[start] = 1.0;
            let mut eigenvalue = 0.0f32;
            for _ in 0..200 {
                let mut w = cov.gemv(&v);
                let norm = w.norm();
                if norm <= f32::EPSILON {
                    break; // deflated to (near) zero matrix
                }
                w.scale(1.0 / norm);
                let delta = w.sub(&v).norm();
                v = w;
                eigenvalue = norm;
                if delta < 1e-7 {
                    break;
                }
            }
            components.set_row(comp, &v);
            explained.push(eigenvalue);
            // Deflate: C ← C − λ v vᵀ.
            cov.add_outer(-eigenvalue, &v, &v);
        }

        Self {
            components,
            mean,
            explained_variance: explained,
        }
    }

    /// Projects a single vector onto the fitted components.
    pub fn transform(&self, x: &Vector) -> Vector {
        let centered = x.sub(&self.mean);
        self.components.gemv(&centered)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Data stretched along a known axis must recover that axis first.
    #[test]
    fn recovers_dominant_axis() {
        let mut rng = StdRng::seed_from_u64(11);
        let n = 200;
        let mut data = Matrix::zeros(n, 3);
        for r in 0..n {
            let a: f32 = rng.gen_range(-10.0..10.0); // dominant direction (1,1,0)/√2
            let b: f32 = rng.gen_range(-0.5..0.5);
            data[(r, 0)] = a + b;
            data[(r, 1)] = a - b;
            data[(r, 2)] = rng.gen_range(-0.1..0.1);
        }
        let pca = Pca::fit(&data, 2);
        let axis = pca.components.row_vector(0);
        let expected = Vector::from_slice(&[1.0 / 2f32.sqrt(), 1.0 / 2f32.sqrt(), 0.0]);
        assert!(
            axis.cosine(&expected).abs() > 0.99,
            "axis={:?}",
            axis.as_slice()
        );
        assert!(pca.explained_variance[0] > pca.explained_variance[1]);
    }

    #[test]
    fn components_are_orthonormal() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut data = Matrix::zeros(50, 4);
        for v in data.as_mut_slice() {
            *v = rng.gen_range(-1.0..1.0);
        }
        let pca = Pca::fit(&data, 3);
        for i in 0..3 {
            let vi = pca.components.row_vector(i);
            assert!((vi.norm() - 1.0).abs() < 1e-3, "component {i} not unit");
            for j in 0..i {
                let vj = pca.components.row_vector(j);
                assert!(
                    vi.dot(&vj).abs() < 1e-2,
                    "components {i},{j} not orthogonal"
                );
            }
        }
    }

    #[test]
    fn transform_centers_data() {
        let data = Matrix::from_vec(2, 2, vec![1.0, 1.0, 3.0, 3.0]);
        let pca = Pca::fit(&data, 1);
        let p0 = pca.transform(&data.row_vector(0));
        let p1 = pca.transform(&data.row_vector(1));
        // Symmetric around the mean.
        assert!((p0[0] + p1[0]).abs() < 1e-4);
    }

    #[test]
    #[should_panic(expected = "empty data")]
    fn empty_data_panics() {
        let _ = Pca::fit(&Matrix::zeros(0, 3), 1);
    }

    #[test]
    fn constant_data_yields_zero_variance() {
        let data = Matrix::from_vec(3, 2, vec![2.0, 5.0, 2.0, 5.0, 2.0, 5.0]);
        let pca = Pca::fit(&data, 1);
        assert!(pca.explained_variance[0].abs() < 1e-5);
    }
}
