//! Word-representation lookup table with sparse gradients.
//!
//! The embedding `w_t` of each word (§4.1.1) "can be initialized randomly
//! or by our pre-train techniques" (§4.2); during refinement training,
//! "the word embeddings … in the neural networks are also updated"
//! (§4.2). The table therefore supports both initialisation paths and
//! participates in SGD. Gradients are sparse: only rows touched in the
//! current mini-batch are updated, tracked by a touched-row list so that
//! `zero_grad` stays O(touched) instead of O(vocab).

use crate::param::{MatParam, Parameter};
use ncl_tensor::wire::{Reader, Wire, WireError};
use ncl_tensor::{init, Matrix, Vector};
use rand::Rng;

/// An embedding table `|V| × d`.
#[derive(Debug, Clone)]
pub struct Embedding {
    table: MatParam,
    touched: Vec<u32>,
}

impl Embedding {
    /// Creates a randomly initialised table (word2vec-style
    /// `U(−0.5/d, 0.5/d)`).
    pub fn new<R: Rng + ?Sized>(vocab: usize, dim: usize, rng: &mut R) -> Self {
        Self {
            table: MatParam::new(init::embedding_uniform(vocab, dim, rng)),
            touched: Vec::new(),
        }
    }

    /// Creates a table from pre-trained rows (the §4.2 pre-training path).
    ///
    /// # Panics
    /// Panics if `table` is empty.
    pub fn from_pretrained(table: Matrix) -> Self {
        assert!(table.rows() > 0, "embedding: empty table");
        Self {
            table: MatParam::new(table),
            touched: Vec::new(),
        }
    }

    /// Vocabulary size.
    pub fn vocab(&self) -> usize {
        self.table.v.rows()
    }

    /// Embedding dimension `d`.
    pub fn dim(&self) -> usize {
        self.table.v.cols()
    }

    /// Looks up the representation of word `id`.
    ///
    /// # Panics
    /// Panics if `id` is out of range.
    pub fn lookup(&self, id: u32) -> Vector {
        assert!((id as usize) < self.vocab(), "embedding: id out of range");
        self.table.v.row_vector(id as usize)
    }

    /// Looks up a whole sequence.
    pub fn lookup_seq(&self, ids: &[u32]) -> Vec<Vector> {
        ids.iter().map(|&id| self.lookup(id)).collect()
    }

    /// Looks up a whole sequence into one flat `ids.len() × d` slab
    /// (`out` is overwritten; its allocation is reused) — the input
    /// layout of the taped sequence path.
    ///
    /// # Panics
    /// Panics if an id is out of range.
    pub fn lookup_rows_into(&self, ids: &[u32], out: &mut Vec<f32>) {
        out.clear();
        for &id in ids {
            assert!((id as usize) < self.vocab(), "embedding: id out of range");
            out.extend_from_slice(self.table.v.row(id as usize));
        }
    }

    /// Read-only view of the full table (used by nearest-word search).
    pub fn table(&self) -> &Matrix {
        &self.table.v
    }

    /// Accumulates gradient `dx` into row `id`.
    pub fn accumulate_grad(&mut self, id: u32, dx: &[f32]) {
        assert!((id as usize) < self.vocab(), "embedding: id out of range");
        assert_eq!(dx.len(), self.dim(), "embedding: grad dimension");
        let row = self.table.g.row_mut(id as usize);
        for (g, d) in row.iter_mut().zip(dx) {
            *g += d;
        }
        self.touched.push(id);
    }

    /// Accumulates the rows of a flat `ids.len() × d` gradient slab into
    /// the rows of `ids`, in order.
    pub fn accumulate_grad_rows(&mut self, ids: &[u32], dxs: &[f32]) {
        assert_eq!(
            dxs.len(),
            ids.len() * self.dim(),
            "embedding: grad count mismatch"
        );
        for (&id, dx) in ids.iter().zip(dxs.chunks_exact(self.dim().max(1))) {
            self.accumulate_grad(id, dx);
        }
    }

    /// SGD step over the touched rows only, then clears those gradients.
    pub fn step_touched(&mut self, lr: f32) {
        self.touched.sort_unstable();
        self.touched.dedup();
        let MatParam { v, g } = &mut self.table;
        for &id in &self.touched {
            let r = id as usize;
            for (v, g) in v.row_mut(r).iter_mut().zip(g.row(r)) {
                *v -= lr * g;
            }
            g.row_mut(r).fill(0.0);
        }
        self.touched.clear();
    }

    /// Sum of squared gradients over touched rows (for clipping).
    pub fn sq_grad_norm(&self) -> f32 {
        let mut ids: Vec<u32> = self.touched.clone();
        ids.sort_unstable();
        ids.dedup();
        ids.iter()
            .map(|&id| {
                self.table
                    .g
                    .row(id as usize)
                    .iter()
                    .map(|g| g * g)
                    .sum::<f32>()
            })
            .sum()
    }

    /// Scales all touched gradients (clipping).
    pub fn scale_grad(&mut self, factor: f32) {
        let mut ids: Vec<u32> = self.touched.clone();
        ids.sort_unstable();
        ids.dedup();
        for id in ids {
            for g in self.table.g.row_mut(id as usize) {
                *g *= factor;
            }
        }
    }

    /// Clears all touched gradients without stepping.
    pub fn zero_grad(&mut self) {
        // Duplicates just clear a row twice; the list keeps its capacity
        // for the next batch.
        for &id in &self.touched {
            self.table.g.row_mut(id as usize).fill(0.0);
        }
        self.touched.clear();
    }

    /// Overwrites this table's values with `src`'s (replica sync for the
    /// data-parallel trainer). Gradients and the touched list are left
    /// alone.
    ///
    /// # Panics
    /// Panics if the shapes differ.
    pub fn copy_values_from(&mut self, src: &Embedding) {
        self.table.copy_values_from(&src.table);
    }
}

impl Parameter for Embedding {
    fn num_params(&self) -> usize {
        self.table.num_params()
    }
    fn sq_grad_norm(&self) -> f32 {
        Embedding::sq_grad_norm(self)
    }
    fn scale_grad(&mut self, factor: f32) {
        Embedding::scale_grad(self, factor);
    }
    fn step(&mut self, lr: f32) {
        self.step_touched(lr);
    }
    fn zero_grad(&mut self) {
        Embedding::zero_grad(self);
    }
    fn values_mut(&mut self) -> &mut [f32] {
        self.table.v.as_mut_slice()
    }
    fn grads(&self) -> &[f32] {
        self.table.g.as_slice()
    }
    fn grads_mut(&mut self) -> &mut [f32] {
        self.table.g.as_mut_slice()
    }
    fn touched(&self) -> Option<&[u32]> {
        Some(&self.touched)
    }
    /// Sparse merge: only the donor's touched rows are added, and those
    /// rows join this table's touched list so the subsequent sparse step
    /// (`step_touched`) sees them. The default dense merge would add the
    /// right *values* but lose the row bookkeeping.
    fn merge_grad_from(&mut self, donor: &mut dyn Parameter) {
        assert_eq!(
            self.table.g.as_slice().len(),
            donor.grads().len(),
            "embedding merge: size mismatch"
        );
        let mut rows: Vec<u32> = match donor.touched() {
            Some(rows) => rows.to_vec(),
            // Dense donor (e.g. a plain MatParam view): every row is live.
            None => (0..self.vocab() as u32).collect(),
        };
        rows.sort_unstable();
        rows.dedup();
        let dim = self.dim();
        let src = donor.grads();
        for &id in &rows {
            let r = id as usize;
            let dst = self.table.g.row_mut(r);
            for (d, s) in dst.iter_mut().zip(&src[r * dim..(r + 1) * dim]) {
                *d += s;
            }
        }
        self.touched.extend_from_slice(&rows);
        donor.zero_grad();
    }
}

/// Values only; the touched-row list is transient training state and
/// decodes empty.
impl Wire for Embedding {
    fn encode(&self, out: &mut Vec<u8>) {
        self.table.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let table = MatParam::decode(r)?;
        if table.v.rows() == 0 {
            return Err(WireError::Invalid("embedding: empty table".into()));
        }
        Ok(Self {
            table,
            touched: Vec::new(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn lookup_returns_rows() {
        let mut rng = StdRng::seed_from_u64(1);
        let e = Embedding::new(10, 4, &mut rng);
        let v = e.lookup(3);
        assert_eq!(v.as_slice(), e.table().row(3));
    }

    #[test]
    fn lookup_seq_shapes() {
        let mut rng = StdRng::seed_from_u64(1);
        let e = Embedding::new(10, 4, &mut rng);
        let seq = e.lookup_seq(&[0, 5, 9]);
        assert_eq!(seq.len(), 3);
        assert!(seq.iter().all(|v| v.len() == 4));
        // The flat form is the same rows, end to end, into a used buffer.
        let mut flat = vec![f32::NAN; 7];
        e.lookup_rows_into(&[0, 5, 9], &mut flat);
        let rows: Vec<f32> = seq.iter().flat_map(|v| v.iter().copied()).collect();
        assert_eq!(flat, rows);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn lookup_out_of_range_panics() {
        let mut rng = StdRng::seed_from_u64(1);
        let e = Embedding::new(4, 2, &mut rng);
        let _ = e.lookup(4);
    }

    #[test]
    fn sparse_step_only_touches_accumulated_rows() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut e = Embedding::new(5, 2, &mut rng);
        let before0 = e.lookup(0);
        let before2 = e.lookup(2);
        e.accumulate_grad(2, &[1.0, -1.0]);
        e.step_touched(0.1);
        assert_eq!(e.lookup(0).as_slice(), before0.as_slice());
        let after2 = e.lookup(2);
        assert!((after2[0] - (before2[0] - 0.1)).abs() < 1e-6);
        assert!((after2[1] - (before2[1] + 0.1)).abs() < 1e-6);
    }

    #[test]
    fn repeated_ids_accumulate() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut e = Embedding::new(5, 2, &mut rng);
        let before = e.lookup(1);
        e.accumulate_grad(1, &[1.0, 0.0]);
        e.accumulate_grad(1, &[1.0, 0.0]);
        e.step_touched(0.5);
        assert!((e.lookup(1)[0] - (before[0] - 1.0)).abs() < 1e-6);
    }

    #[test]
    fn zero_grad_clears_touched() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut e = Embedding::new(5, 2, &mut rng);
        e.accumulate_grad(1, &[1.0, 1.0]);
        assert!(Embedding::sq_grad_norm(&e) > 0.0);
        Embedding::zero_grad(&mut e);
        assert_eq!(Embedding::sq_grad_norm(&e), 0.0);
        let before = e.lookup(1);
        e.step_touched(1.0);
        assert_eq!(e.lookup(1).as_slice(), before.as_slice());
    }

    #[test]
    fn from_pretrained_round_trip() {
        let m = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let e = Embedding::from_pretrained(m);
        assert_eq!(e.lookup(1).as_slice(), &[3.0, 4.0]);
        assert_eq!(e.vocab(), 2);
        assert_eq!(e.dim(), 2);
    }

    #[test]
    fn sparse_merge_carries_touched_rows_across_tables() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut main = Embedding::new(6, 2, &mut rng);
        let mut shard = main.clone();
        main.accumulate_grad(1, &[1.0, 0.0]);
        shard.accumulate_grad(3, &[0.0, 2.0]);
        shard.accumulate_grad(1, &[0.5, 0.0]);
        Parameter::merge_grad_from(&mut main, &mut shard);
        // Donor is drained.
        assert_eq!(Embedding::sq_grad_norm(&shard), 0.0);
        // The merged step must update BOTH rows 1 and 3 — row 3 only
        // became known to `main` through the merge's touched transfer.
        let before1 = main.lookup(1);
        let before3 = main.lookup(3);
        main.step_touched(1.0);
        assert!((main.lookup(1)[0] - (before1[0] - 1.5)).abs() < 1e-6);
        assert!((main.lookup(3)[1] - (before3[1] - 2.0)).abs() < 1e-6);
    }

    #[test]
    fn clipping_scales_touched_grads() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut e = Embedding::new(4, 2, &mut rng);
        e.accumulate_grad(0, &[3.0, 4.0]);
        assert!((Embedding::sq_grad_norm(&e) - 25.0).abs() < 1e-5);
        Embedding::scale_grad(&mut e, 0.2);
        assert!((Embedding::sq_grad_norm(&e) - 1.0).abs() < 1e-5);
    }
}
