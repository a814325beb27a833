//! Sparse CSR matrices for the full-graph baselines (GCN, FastGCN, GTN, HAN).

use rustc_hash::FxHashMap;

use crate::tensor::Tensor;

/// A compressed-sparse-row `f32` matrix.
///
/// Used for normalised adjacency operators (`D^{-1/2}(A+I)D^{-1/2}`), for
/// GTN's soft edge-type composition (sparse × sparse products) and for HAN's
/// meta-path adjacency construction. Values and structure are immutable once
/// built; autograd treats CSR operands as constants.
#[derive(Clone, Debug)]
pub struct CsrMatrix {
    rows: usize,
    cols: usize,
    indptr: Vec<usize>,
    indices: Vec<u32>,
    values: Vec<f32>,
}

impl CsrMatrix {
    /// Builds from COO triplets; duplicate coordinates are summed.
    ///
    /// # Panics
    /// Panics if any coordinate is out of bounds.
    pub fn from_coo(rows: usize, cols: usize, triplets: &[(usize, usize, f32)]) -> Self {
        for &(r, c, _) in triplets {
            assert!(r < rows && c < cols, "coordinate ({r},{c}) out of bounds");
        }
        // Bucket by row, merging duplicates.
        let mut row_maps: Vec<FxHashMap<u32, f32>> = vec![FxHashMap::default(); rows];
        for &(r, c, v) in triplets {
            *row_maps[r].entry(c as u32).or_insert(0.0) += v;
        }
        let mut indptr = Vec::with_capacity(rows + 1);
        let mut indices = Vec::with_capacity(triplets.len());
        let mut values = Vec::with_capacity(triplets.len());
        indptr.push(0);
        for map in row_maps {
            let mut entries: Vec<(u32, f32)> = map.into_iter().collect();
            entries.sort_unstable_by_key(|&(c, _)| c);
            for (c, v) in entries {
                indices.push(c);
                values.push(v);
            }
            indptr.push(indices.len());
        }
        Self {
            rows,
            cols,
            indptr,
            indices,
            values,
        }
    }

    /// The `n × n` identity as CSR.
    pub fn identity(n: usize) -> Self {
        Self {
            rows: n,
            cols: n,
            indptr: (0..=n).collect(),
            indices: (0..n as u32).collect(),
            values: vec![1.0; n],
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// `(column, value)` pairs of row `r`.
    pub fn row_entries(&self, r: usize) -> impl Iterator<Item = (usize, f32)> + '_ {
        let span = self.indptr[r]..self.indptr[r + 1];
        self.indices[span.clone()]
            .iter()
            .zip(&self.values[span])
            .map(|(&c, &v)| (c as usize, v))
    }

    /// Dense product `self · dense`.
    ///
    /// # Panics
    /// Panics on inner-dimension mismatch.
    pub fn spmm(&self, dense: &Tensor) -> Tensor {
        let mut out = Tensor::zeros(self.rows, dense.cols());
        self.spmm_acc(dense, &mut out);
        out
    }

    /// Accumulating product: `out += self · dense` (the tape's forward
    /// kernel, writing into a pooled zeroed buffer).
    ///
    /// # Panics
    /// Panics on inner-dimension or output-shape mismatch.
    pub fn spmm_acc(&self, dense: &Tensor, out: &mut Tensor) {
        assert_eq!(self.cols, dense.rows(), "spmm shape mismatch");
        let n = dense.cols();
        assert_eq!(
            out.shape(),
            (self.rows, n),
            "spmm_acc output shape mismatch"
        );
        for r in 0..self.rows {
            for k in self.indptr[r]..self.indptr[r + 1] {
                let src = dense.row(self.indices[k] as usize);
                let v = self.values[k];
                let out_row = out.row_mut(r);
                for (o, &s) in out_row.iter_mut().zip(src) {
                    *o += v * s;
                }
            }
        }
    }

    /// Accumulating transposed product: `out += selfᵀ · dense`.
    ///
    /// The backward pass of [`crate::Tape::spmm`] accumulates the
    /// sparse-input gradient straight into its pooled buffer through this
    /// kernel, without materialising the transposed matrix.
    pub fn spmm_transposed_acc(&self, dense: &Tensor, out: &mut Tensor) {
        assert_eq!(self.rows, dense.rows(), "spmm_transposed shape mismatch");
        let n = dense.cols();
        assert_eq!(
            out.shape(),
            (self.cols, n),
            "spmm_transposed_acc output shape mismatch"
        );
        for r in 0..self.rows {
            let src = dense.row(r);
            for k in self.indptr[r]..self.indptr[r + 1] {
                let dst = out.row_mut(self.indices[k] as usize);
                let v = self.values[k];
                for (o, &s) in dst.iter_mut().zip(src) {
                    *o += v * s;
                }
            }
        }
    }

    /// Sparse product `self · other` (both CSR).
    ///
    /// Used by GTN's meta-path composition `A₁ · A₂` and HAN's meta-path
    /// adjacency (e.g. `A_PA · A_AP`).
    pub fn spspmm(&self, other: &CsrMatrix) -> CsrMatrix {
        assert_eq!(self.cols, other.rows, "spspmm shape mismatch");
        let mut indptr = Vec::with_capacity(self.rows + 1);
        let mut indices: Vec<u32> = Vec::new();
        let mut values: Vec<f32> = Vec::new();
        indptr.push(0);
        let mut acc: FxHashMap<u32, f32> = FxHashMap::default();
        for r in 0..self.rows {
            acc.clear();
            for k in self.indptr[r]..self.indptr[r + 1] {
                let mid = self.indices[k] as usize;
                let v = self.values[k];
                for k2 in other.indptr[mid]..other.indptr[mid + 1] {
                    *acc.entry(other.indices[k2]).or_insert(0.0) += v * other.values[k2];
                }
            }
            let mut entries: Vec<(u32, f32)> = acc.iter().map(|(&c, &v)| (c, v)).collect();
            entries.sort_unstable_by_key(|&(c, _)| c);
            for (c, v) in entries {
                if v != 0.0 {
                    indices.push(c);
                    values.push(v);
                }
            }
            indptr.push(indices.len());
        }
        CsrMatrix {
            rows: self.rows,
            cols: other.cols,
            indptr,
            indices,
            values,
        }
    }

    /// Transposed copy.
    pub fn transpose(&self) -> CsrMatrix {
        let mut triplets = Vec::with_capacity(self.nnz());
        for r in 0..self.rows {
            for (c, v) in self.row_entries(r) {
                triplets.push((c, r, v));
            }
        }
        CsrMatrix::from_coo(self.cols, self.rows, &triplets)
    }

    /// Row-stochastic normalisation (`D⁻¹ A`); empty rows stay empty.
    pub fn row_normalized(&self) -> CsrMatrix {
        let mut out = self.clone();
        for r in 0..out.rows {
            let span = out.indptr[r]..out.indptr[r + 1];
            let sum: f32 = out.values[span.clone()].iter().sum();
            if sum > 0.0 {
                for v in &mut out.values[span] {
                    *v /= sum;
                }
            }
        }
        out
    }

    /// GCN symmetric normalisation with self loops:
    /// `D̂^{-1/2} (A + I) D̂^{-1/2}` (Kipf & Welling).
    ///
    /// # Panics
    /// Panics unless square.
    pub fn gcn_normalized(&self) -> CsrMatrix {
        assert_eq!(
            self.rows, self.cols,
            "gcn normalisation needs a square matrix"
        );
        let n = self.rows;
        let mut triplets: Vec<(usize, usize, f32)> = Vec::with_capacity(self.nnz() + n);
        for r in 0..n {
            for (c, v) in self.row_entries(r) {
                triplets.push((r, c, v));
            }
            triplets.push((r, r, 1.0));
        }
        let with_loops = CsrMatrix::from_coo(n, n, &triplets);
        let deg: Vec<f32> = (0..n)
            .map(|r| with_loops.row_entries(r).map(|(_, v)| v).sum())
            .collect();
        let inv_sqrt: Vec<f32> = deg
            .iter()
            .map(|&d| if d > 0.0 { 1.0 / d.sqrt() } else { 0.0 })
            .collect();
        let mut out = with_loops;
        for r in 0..n {
            let span = out.indptr[r]..out.indptr[r + 1];
            let (idx, val) = (&out.indices[span.clone()], &mut out.values[span.clone()]);
            for (v, &c) in val.iter_mut().zip(idx) {
                *v *= inv_sqrt[r] * inv_sqrt[c as usize];
            }
        }
        out
    }

    /// Column L2 norms squared — FastGCN's importance-sampling distribution
    /// `q(v) ∝ ‖A·,v‖²`.
    pub fn column_sq_norms(&self) -> Vec<f32> {
        let mut norms = vec![0.0f32; self.cols];
        for r in 0..self.rows {
            for (c, v) in self.row_entries(r) {
                norms[c] += v * v;
            }
        }
        norms
    }

    /// Restricts to `keep_rows × keep_cols`, rescaling values by
    /// `1/(n·q(col))` as in FastGCN's Monte-Carlo estimator when `rescale`
    /// holds the sampling probabilities of the kept columns.
    pub fn restrict(
        &self,
        keep_rows: &[usize],
        keep_cols: &[usize],
        rescale: Option<&[f32]>,
    ) -> CsrMatrix {
        let mut col_pos: FxHashMap<u32, usize> = FxHashMap::default();
        for (i, &c) in keep_cols.iter().enumerate() {
            col_pos.insert(c as u32, i);
        }
        let mut triplets = Vec::new();
        for (new_r, &r) in keep_rows.iter().enumerate() {
            for k in self.indptr[r]..self.indptr[r + 1] {
                if let Some(&new_c) = col_pos.get(&self.indices[k]) {
                    let mut v = self.values[k];
                    if let Some(q) = rescale {
                        v /= keep_cols.len() as f32 * q[new_c];
                    }
                    triplets.push((new_r, new_c, v));
                }
            }
        }
        CsrMatrix::from_coo(keep_rows.len(), keep_cols.len(), &triplets)
    }

    /// Dense copy (test helper; avoid on large matrices).
    pub fn to_dense(&self) -> Tensor {
        let mut out = Tensor::zeros(self.rows, self.cols);
        for r in 0..self.rows {
            for (c, v) in self.row_entries(r) {
                out.set(r, c, v);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sample() -> CsrMatrix {
        CsrMatrix::from_coo(3, 3, &[(0, 1, 2.0), (1, 0, 1.0), (1, 2, 3.0), (2, 2, 4.0)])
    }

    #[test]
    fn from_coo_merges_duplicates_and_sorts() {
        let m = CsrMatrix::from_coo(2, 3, &[(0, 2, 1.0), (0, 0, 1.0), (0, 2, 2.0)]);
        let row: Vec<(usize, f32)> = m.row_entries(0).collect();
        assert_eq!(row, vec![(0, 1.0), (2, 3.0)]);
        assert_eq!(m.nnz(), 2);
    }

    #[test]
    fn spmm_matches_dense() {
        let mut rng = StdRng::seed_from_u64(11);
        let m = sample();
        let x = Tensor::randn(3, 4, 1.0, &mut rng);
        let sparse = m.spmm(&x);
        let dense = m.to_dense().matmul(&x);
        assert!(sparse.max_abs_diff(&dense) < 1e-5);
    }

    #[test]
    fn spmm_transposed_matches_dense() {
        let mut rng = StdRng::seed_from_u64(12);
        let m = sample();
        let x = Tensor::randn(3, 4, 1.0, &mut rng);
        let mut sparse = Tensor::zeros(m.cols(), x.cols());
        m.spmm_transposed_acc(&x, &mut sparse);
        let dense = m.to_dense().transpose().matmul(&x);
        assert!(sparse.max_abs_diff(&dense) < 1e-5);
    }

    #[test]
    fn spspmm_matches_dense() {
        let a = sample();
        let b = CsrMatrix::from_coo(3, 2, &[(0, 0, 1.0), (2, 1, 5.0), (1, 1, -1.0)]);
        let sparse = a.spspmm(&b).to_dense();
        let dense = a.to_dense().matmul(&b.to_dense());
        assert!(sparse.max_abs_diff(&dense) < 1e-5);
    }

    #[test]
    fn transpose_round_trips() {
        let m = sample();
        let rt = m.transpose().transpose();
        assert!(m.to_dense().max_abs_diff(&rt.to_dense()) < 1e-6);
    }

    #[test]
    fn row_normalized_rows_sum_to_one() {
        let m = sample().row_normalized();
        for r in 0..3 {
            let sum: f32 = m.row_entries(r).map(|(_, v)| v).sum();
            if sum > 0.0 {
                assert!((sum - 1.0).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn gcn_normalized_is_symmetric_for_symmetric_input() {
        let m = CsrMatrix::from_coo(3, 3, &[(0, 1, 1.0), (1, 0, 1.0), (1, 2, 1.0), (2, 1, 1.0)]);
        let n = m.gcn_normalized().to_dense();
        assert!(n.max_abs_diff(&n.transpose()) < 1e-6);
        // Self loops present.
        for i in 0..3 {
            assert!(n.get(i, i) > 0.0);
        }
    }

    #[test]
    fn restrict_selects_submatrix() {
        let m = sample();
        let sub = m.restrict(&[1, 2], &[0, 2], None);
        let d = sub.to_dense();
        assert_eq!(d.shape(), (2, 2));
        assert_eq!(d.get(0, 0), 1.0); // (1,0)
        assert_eq!(d.get(0, 1), 3.0); // (1,2)
        assert_eq!(d.get(1, 1), 4.0); // (2,2)
    }

    #[test]
    fn column_sq_norms_match_dense() {
        let m = sample();
        let norms = m.column_sq_norms();
        assert_eq!(norms, vec![1.0, 4.0, 25.0]);
    }

    #[test]
    fn identity_spmm_is_noop() {
        let mut rng = StdRng::seed_from_u64(13);
        let x = Tensor::randn(4, 3, 1.0, &mut rng);
        let id = CsrMatrix::identity(4);
        assert!(id.spmm(&x).max_abs_diff(&x) < 1e-6);
    }
}
