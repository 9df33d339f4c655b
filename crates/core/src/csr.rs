//! Ragged rows of `u32` ids in two flat arrays.
//!
//! Every per-concept token list the linker and the model keep — the
//! canonical descriptions as interned words, as model-vocabulary ids,
//! the Phase-I documents — is a row of one of these: two allocations
//! for the whole ontology instead of one `Vec` per concept.

/// Row `i` is `ids[off[i]..off[i + 1]]`. Rows are appended in order:
/// [`Csr::push`] extends the open row, [`Csr::end_row`] closes it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Csr {
    off: Vec<u32>,
    ids: Vec<u32>,
}

impl Csr {
    /// No rows yet, with room for `rows` of them.
    pub(crate) fn with_rows(rows: usize) -> Self {
        Self::with_capacity(rows, 0)
    }

    /// No rows yet, with room for `rows` of them holding `ids` ids in
    /// all.
    pub(crate) fn with_capacity(rows: usize, ids: usize) -> Self {
        let mut off = Vec::with_capacity(rows + 1);
        off.push(0);
        Self {
            off,
            ids: Vec::with_capacity(ids),
        }
    }

    /// Appends `id` to the open row.
    pub(crate) fn push(&mut self, id: u32) {
        self.ids.push(id);
    }

    /// Appends `ids` to the open row.
    pub(crate) fn extend_from_slice(&mut self, ids: &[u32]) {
        self.ids.extend_from_slice(ids);
    }

    /// Closes the open row (empty if nothing was pushed since the last
    /// one closed).
    pub(crate) fn end_row(&mut self) {
        self.off
            .push(u32::try_from(self.ids.len()).expect("ontology tokens fit u32"));
    }

    /// Number of closed rows.
    pub(crate) fn rows(&self) -> usize {
        self.off.len() - 1
    }

    /// The ids of closed row `i`.
    pub(crate) fn row(&self, i: usize) -> &[u32] {
        &self.ids[self.off[i] as usize..self.off[i + 1] as usize]
    }

    /// The ids of closed row `i`, writable in place.
    pub(crate) fn row_mut(&mut self, i: usize) -> &mut [u32] {
        &mut self.ids[self.off[i] as usize..self.off[i + 1] as usize]
    }

    /// Ids across all rows.
    pub(crate) fn len(&self) -> usize {
        self.ids.len()
    }

    /// Resident bytes: the `capacity()` of both arrays.
    pub(crate) fn heap_bytes(&self) -> usize {
        (self.off.capacity() + self.ids.capacity()) * 4
    }

    /// The row offsets (`rows() + 1` entries, starting at 0) and the
    /// flat ids they delimit.
    pub(crate) fn parts(&self) -> (&[u32], &[u32]) {
        (&self.off, &self.ids)
    }

    /// The same rows with every id sent through `f`.
    pub(crate) fn map(&self, f: impl Fn(u32) -> u32) -> Self {
        Self {
            off: self.off.clone(),
            ids: self.ids.iter().map(|&id| f(id)).collect(),
        }
    }

    /// Sorts each row and drops its repeats, in place.
    pub(crate) fn sort_dedup_rows(&mut self) {
        let mut write = 0usize;
        for r in 0..self.rows() {
            let (start, end) = (self.off[r] as usize, self.off[r + 1] as usize);
            self.ids[start..end].sort_unstable();
            self.off[r] = write as u32;
            for read in start..end {
                if read == start || self.ids[read] != self.ids[read - 1] {
                    self.ids[write] = self.ids[read];
                    write += 1;
                }
            }
        }
        let last = self.off.len() - 1;
        self.off[last] = write as u32;
        self.ids.truncate(write);
        self.ids.shrink_to_fit();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn from_rows(rows: &[&[u32]]) -> Csr {
        let mut csr = Csr::with_rows(rows.len());
        for row in rows {
            csr.extend_from_slice(row);
            csr.end_row();
        }
        csr
    }

    #[test]
    fn rows_come_back_as_pushed() {
        let mut csr = from_rows(&[&[], &[7, 5, 7], &[], &[9]]);
        csr.push(1);
        csr.push(2);
        csr.end_row();
        assert_eq!(csr.rows(), 5);
        let rows: Vec<&[u32]> = (0..5).map(|i| csr.row(i)).collect();
        assert_eq!(rows, [&[][..], &[7, 5, 7], &[], &[9], &[1, 2]]);
        assert_eq!(
            csr.parts(),
            (&[0, 0, 3, 3, 4, 6][..], &[7, 5, 7, 9, 1, 2][..])
        );
        assert_eq!(csr.map(|id| id + 1).row(1), &[8, 6, 8]);
        csr.row_mut(3)[0] = 4;
        assert_eq!((csr.row(3), csr.row(4)), (&[4][..], &[1, 2][..]));
    }

    #[test]
    fn sort_dedup_compacts_every_row_in_place() {
        let mut csr = from_rows(&[&[], &[7, 5, 7, 5, 5], &[3], &[], &[2, 1, 2], &[4, 4]]);
        csr.sort_dedup_rows();
        let rows: Vec<&[u32]> = (0..csr.rows()).map(|i| csr.row(i)).collect();
        assert_eq!(rows, [&[][..], &[5, 7], &[3], &[], &[1, 2], &[4]]);
        assert_eq!(csr.parts().1.len(), 6);
    }
}
