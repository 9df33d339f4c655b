//! Nearest-word search in the embedding space.
//!
//! Query rewriting (§5, Phase I, Eq. 13) replaces each out-of-vocabulary
//! query word with `w* = argmax_{w'} cosine(w', w)` over the embedding
//! vocabulary `Ω'`. Concept-id tokens injected during pre-training must be
//! excluded, as must the special tokens, hence the filter mask.

use ncl_tensor::{simd, vector, Matrix, Vector};

/// A cosine nearest-neighbour index over embedding rows.
///
/// For the paper's vocabulary sizes a flat scan is exact and fast enough
/// (the OR segment of Figure 11 is a small fraction of total query time);
/// rows are pre-normalised so each query costs one dot product per word.
///
/// The normalized rows are stored **transposed** (`wt[k * rows + r]` =
/// component `k` of row `r`) so one [`simd::colmajor_gemv_acc`] call
/// computes every row's dot product against a query. That kernel keeps a
/// fresh accumulator per output and walks `k` ascending, i.e. exactly the
/// sequential `dot += a * b` fold of a per-row scalar loop — so the scores
/// are bit-identical to the pre-SIMD scan at every dispatch level.
#[derive(Debug, Clone)]
pub struct NearestWords {
    /// Transposed normalized embedding table, `dims × rows` column-major
    /// by original row id.
    wt: Vec<f32>,
    rows: usize,
    dims: usize,
    allowed: Vec<bool>,
}

impl NearestWords {
    /// Builds the index over `embeddings` (one row per word). `allowed`
    /// masks which rows may be returned (length must match); pass
    /// `None` to allow all rows except ids `0..4` (the special tokens).
    pub fn new(embeddings: &Matrix, allowed: Option<Vec<bool>>) -> Self {
        let rows = embeddings.rows();
        let dims = embeddings.cols();
        let allowed = allowed.unwrap_or_else(|| (0..rows).map(|i| i >= 4).collect());
        assert_eq!(allowed.len(), rows, "nearest: mask length mismatch");
        let mut wt = vec![0.0f32; rows * dims];
        for r in 0..rows {
            let row = embeddings.row(r);
            // `Vector::norm`'s arithmetic, without a `Vector` per row.
            let norm = vector::dot(row, row).sqrt();
            let inv = if norm > f32::EPSILON { 1.0 / norm } else { 1.0 };
            for (k, &v) in row.iter().enumerate() {
                wt[k * rows + r] = v * inv;
            }
        }
        Self {
            wt,
            rows,
            dims,
            allowed,
        }
    }

    /// Number of indexed rows.
    pub fn len(&self) -> usize {
        self.rows
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Eq. 13: the allowed word (other than `exclude_id`, typically the
    /// query word itself) with the highest cosine to `query`, and that
    /// cosine. One column-major GEMV over the transposed table scores
    /// every row, then one ascending scan keeps the first strict
    /// maximum, so equal cosines go to the lowest id and a NaN never
    /// wins. `None` for a zero query or when no row is allowed.
    pub fn nearest(&self, query: &Vector, exclude_id: Option<u32>) -> Option<(u32, f32)> {
        let qnorm = query.norm();
        if qnorm <= f32::EPSILON {
            return None;
        }
        assert_eq!(query.len(), self.dims, "nearest: query dimension mismatch");
        let mut q = query.clone();
        q.scale(1.0 / qnorm);
        let mut dots = vec![0.0f32; self.rows];
        simd::colmajor_gemv_acc(&mut dots, q.as_slice(), &self.wt);
        let mut best: Option<(u32, f32)> = None;
        for (r, &dot) in dots.iter().enumerate() {
            if !self.allowed[r] || Some(r as u32) == exclude_id || dot.is_nan() {
                continue;
            }
            if best.is_none_or(|(_, bd)| dot > bd) {
                best = Some((r as u32, dot));
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_index() -> NearestWords {
        // ids: 0..4 specials (never returned), 4..7 real words.
        let rows = vec![
            0.0, 0.0, // specials
            0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0, // 4
            0.9, 0.1, // 5
            0.0, 1.0, // 6
        ];
        NearestWords::new(&Matrix::from_vec(7, 2, rows), None)
    }

    #[test]
    fn nearest_finds_most_aligned() {
        let idx = toy_index();
        let (id, sim) = idx
            .nearest(&Vector::from_slice(&[1.0, 0.05]), None)
            .unwrap();
        assert_eq!(id, 4);
        assert!(sim > 0.99);
    }

    #[test]
    fn exclude_self() {
        let idx = toy_index();
        let (id, _) = idx
            .nearest(&Vector::from_slice(&[1.0, 0.0]), Some(4))
            .unwrap();
        assert_eq!(id, 5);
    }

    #[test]
    fn specials_never_returned() {
        // Specials 1..4 point along the query and have lower ids than
        // word 4, which does too: the word wins, and without it nothing.
        let m = Matrix::from_vec(5, 2, vec![0.0, 1.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0]);
        let idx = NearestWords::new(&m, None);
        let q = Vector::from_slice(&[1.0, 0.0]);
        assert_eq!(idx.nearest(&q, None).map(|(id, _)| id), Some(4));
        assert_eq!(idx.nearest(&q, Some(4)), None);
        // The toy's zero specials tie word 6's zero cosine at lower ids.
        let (id, _) = toy_index()
            .nearest(&Vector::from_slice(&[-1.0, 0.0]), None)
            .unwrap();
        assert_eq!(id, 6);
    }

    #[test]
    fn custom_mask_respected() {
        let m = Matrix::from_vec(2, 2, vec![1.0, 0.0, 0.0, 1.0]);
        let idx = NearestWords::new(&m, Some(vec![false, true]));
        let q = Vector::from_slice(&[1.0, 0.0]);
        assert_eq!(idx.nearest(&q, None).map(|(id, _)| id), Some(1));
        assert_eq!(idx.nearest(&q, Some(1)), None);
    }

    #[test]
    fn zero_query_returns_nothing() {
        let idx = toy_index();
        assert!(idx.nearest(&Vector::zeros(2), None).is_none());
    }

    #[test]
    fn equal_cosines_go_to_the_lowest_id() {
        // Rows 5 and 7 are one direction at different lengths, so they
        // normalise to the same row and tie to the bit; row 6 is off it.
        let m = Matrix::from_vec(
            8,
            2,
            vec![0.0; 8]
                .into_iter()
                .chain([0.1, 0.9, 2.0, 1.0, 1.0, 1.0, 4.0, 2.0])
                .collect(),
        );
        let idx = NearestWords::new(&m, None);
        let q = Vector::from_slice(&[2.0, 1.0]);
        let (id, cos) = idx.nearest(&q, None).unwrap();
        assert_eq!(id, 5);
        assert_eq!(cos.to_bits(), idx.nearest(&q, Some(5)).unwrap().1.to_bits());
        assert_eq!(idx.nearest(&q, Some(5)).unwrap().0, 7);
    }

    /// The sort this scan replaced: every allowed row's cosine, ordered
    /// by cosine descending then id ascending; its head is Eq. 13.
    fn sorted_head(idx: &NearestWords, query: &Vector, exclude: Option<u32>) -> Option<(u32, f32)> {
        let qnorm = query.norm();
        if qnorm <= f32::EPSILON {
            return None;
        }
        let mut q = query.clone();
        q.scale(1.0 / qnorm);
        let mut dots = vec![0.0f32; idx.rows];
        simd::colmajor_gemv_acc(&mut dots, q.as_slice(), &idx.wt);
        let mut hits: Vec<(u32, f32)> = (0..idx.rows as u32)
            .filter(|&r| idx.allowed[r as usize] && Some(r) != exclude)
            .map(|r| (r, dots[r as usize]))
            .collect();
        hits.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
        hits.first().copied()
    }

    #[test]
    fn argmax_has_the_sorted_scans_bits() {
        // The toy index, and 200 rows with exact duplicates so the
        // lowest-id tie-break is exercised across 64-row blocks.
        let dim = 3;
        let mut data = Vec::with_capacity(200 * dim);
        for r in 0..200 {
            let angle = (r % 50) as f32 * 0.1;
            data.extend_from_slice(&[angle.cos(), angle.sin(), 0.25]);
        }
        let wide = NearestWords::new(&Matrix::from_vec(200, dim, data), None);
        let mut cases: Vec<(&NearestWords, Vector, Option<u32>)> = (0..7)
            .map(|i| (&wide, Vector::from_slice(&[1.0, i as f32 * 0.3, 0.1]), None))
            .collect();
        let toy = toy_index();
        for (q, ex) in [
            ([1.0, 0.05], None),
            ([1.0, 0.0], Some(4)),
            ([0.0, 0.0], None),
            ([0.3, 0.7], Some(6)),
        ] {
            cases.push((&toy, Vector::from_slice(&q), ex));
        }
        for (idx, q, ex) in cases {
            let got = idx.nearest(&q, ex);
            let want = sorted_head(idx, &q, ex);
            assert_eq!(got.map(|(id, _)| id), want.map(|(id, _)| id));
            assert_eq!(
                got.map(|(_, c)| c.to_bits()),
                want.map(|(_, c)| c.to_bits())
            );
        }
    }
}
