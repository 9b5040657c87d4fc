//! Dense, COO and CSR matrices with SpMV kernels.
//!
//! CSR follows the layout the paper compares against (Intel MKL's
//! three-array variant, the paper's reference \[26\]): `values` (8 B each), `col_idx`
//! (4 B each), `row_ptr` (4 B each, rows+1 entries).

/// A dense row-major `f64` matrix.
#[derive(Clone, Debug, PartialEq)]
pub struct DenseMatrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl DenseMatrix {
    /// Creates a zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Element access.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range indices.
    pub fn get(&self, r: usize, c: usize) -> f64 {
        assert!(r < self.rows && c < self.cols, "index ({r},{c}) out of range");
        self.data[r * self.cols + c]
    }

    /// Element update.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range indices.
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        assert!(r < self.rows && c < self.cols, "index ({r},{c}) out of range");
        self.data[r * self.cols + c] = v;
    }

    /// The raw row-major data.
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Number of non-zero values.
    pub fn nnz(&self) -> usize {
        self.data.iter().filter(|&&v| v != 0.0).count()
    }

    /// Dense SpMV: `y = A * x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != cols`.
    pub fn spmv(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.cols, "dimension mismatch");
        let mut y = vec![0.0; self.rows];
        for (r, out) in y.iter_mut().enumerate() {
            let mut acc = 0.0;
            let row = &self.data[r * self.cols..(r + 1) * self.cols];
            for (c, &v) in row.iter().enumerate() {
                acc += v * x[c];
            }
            *out = acc;
        }
        y
    }
}

/// A coordinate-format builder: `(row, col, value)` triplets.
///
/// Each row keeps its columns sorted, so a push finds an existing entry
/// by binary search, a new one shifts only its own row, and
/// [`TripletMatrix::iter`] is row-major without a sort. Generating the
/// 1M-non-zero benchmark matrix takes ~4.3M pushes; a
/// `BTreeMap<(usize, usize), f64>` spent most of that set-up's time
/// there.
#[derive(Clone, Debug, Default)]
pub struct TripletMatrix {
    rows: usize,
    cols: usize,
    row_entries: Vec<Row>,
    nnz: usize,
}

/// One row's entries: sorted columns and their non-zero values, kept in
/// two arrays so the search reads only the 4 B columns.
#[derive(Clone, Debug, Default)]
struct Row {
    cols: Vec<u32>,
    vals: Vec<f64>,
}

impl TripletMatrix {
    /// Creates an empty `rows x cols` builder.
    ///
    /// # Panics
    ///
    /// Panics if a column index would not fit in `u32` (CSR's index
    /// width).
    pub fn new(rows: usize, cols: usize) -> Self {
        assert!(u32::try_from(cols).is_ok(), "{cols} columns do not fit u32 indices");
        Self { rows, cols, row_entries: vec![Row::default(); rows], nnz: 0 }
    }

    /// Rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Adds (or overwrites) an entry; zero values are dropped.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range indices.
    pub fn push(&mut self, r: usize, c: usize, v: f64) {
        assert!(r < self.rows && c < self.cols, "index ({r},{c}) out of range");
        let row = &mut self.row_entries[r];
        match (row.cols.binary_search(&(c as u32)), v == 0.0) {
            (Ok(i), false) => row.vals[i] = v,
            (Ok(i), true) => {
                row.cols.remove(i);
                row.vals.remove(i);
                self.nnz -= 1;
            }
            (Err(i), false) => {
                row.cols.insert(i, c as u32);
                row.vals.insert(i, v);
                self.nnz += 1;
            }
            (Err(_), true) => {}
        }
    }

    /// Number of stored non-zeros.
    pub fn nnz(&self) -> usize {
        self.nnz
    }

    /// Iterates entries in row-major order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        self.row_entries.iter().enumerate().flat_map(|(r, row)| {
            row.cols.iter().zip(&row.vals).map(move |(&c, &v)| (r, c as usize, v))
        })
    }

    /// Converts to dense.
    pub fn to_dense(&self) -> DenseMatrix {
        let mut d = DenseMatrix::zeros(self.rows, self.cols);
        for (r, c, v) in self.iter() {
            d.set(r, c, v);
        }
        d
    }
}

/// Compressed Sparse Row (the paper's software baseline, \[26\]).
#[derive(Clone, Debug, PartialEq)]
pub struct CsrMatrix {
    rows: usize,
    cols: usize,
    row_ptr: Vec<u32>,
    col_idx: Vec<u32>,
    values: Vec<f64>,
}

impl CsrMatrix {
    /// Builds from triplets.
    pub fn from_triplets(t: &TripletMatrix) -> Self {
        let mut row_ptr = Vec::with_capacity(t.rows() + 1);
        let mut col_idx = Vec::with_capacity(t.nnz());
        let mut values = Vec::with_capacity(t.nnz());
        row_ptr.push(0u32);
        let mut current_row = 0usize;
        for (r, c, v) in t.iter() {
            while current_row < r {
                row_ptr.push(col_idx.len() as u32);
                current_row += 1;
            }
            col_idx.push(c as u32);
            values.push(v);
        }
        while current_row < t.rows() {
            row_ptr.push(col_idx.len() as u32);
            current_row += 1;
        }
        Self { rows: t.rows(), cols: t.cols(), row_ptr, col_idx, values }
    }

    /// Rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Non-zero count.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Row-pointer array.
    pub fn row_ptr(&self) -> &[u32] {
        &self.row_ptr
    }

    /// Column-index array.
    pub fn col_idx(&self) -> &[u32] {
        &self.col_idx
    }

    /// Values array.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// CSR SpMV: `y = A * x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != cols`.
    pub fn spmv(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.cols, "dimension mismatch");
        let mut y = vec![0.0; self.rows];
        for (r, out) in y.iter_mut().enumerate() {
            let (lo, hi) = (self.row_ptr[r] as usize, self.row_ptr[r + 1] as usize);
            let mut acc = 0.0;
            for i in lo..hi {
                acc += self.values[i] * x[self.col_idx[i] as usize];
            }
            *out = acc;
        }
        y
    }

    /// Inserts a non-zero, rebuilding the arrays — the costly dynamic
    /// update the paper contrasts with overlay insertion ("CSR incurs a
    /// high cost to insert non-zero values", §5.2). Returns the number
    /// of array elements moved.
    pub fn insert(&mut self, r: usize, c: usize, v: f64) -> usize {
        assert!(r < self.rows && c < self.cols, "index ({r},{c}) out of range");
        let (lo, hi) = (self.row_ptr[r] as usize, self.row_ptr[r + 1] as usize);
        let pos = match self.col_idx[lo..hi].binary_search(&(c as u32)) {
            Ok(i) => {
                self.values[lo + i] = v;
                return 0; // in-place overwrite
            }
            Err(i) => lo + i,
        };
        self.col_idx.insert(pos, c as u32);
        self.values.insert(pos, v);
        for p in self.row_ptr[r + 1..].iter_mut() {
            *p += 1;
        }
        // Everything after `pos` shifted, in two arrays.
        2 * (self.values.len() - pos) + (self.row_ptr.len() - r - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TripletMatrix {
        let mut t = TripletMatrix::new(3, 4);
        t.push(0, 0, 1.0);
        t.push(0, 3, 2.0);
        t.push(1, 1, 3.0);
        t.push(2, 0, 4.0);
        t.push(2, 2, 5.0);
        t
    }

    #[test]
    fn triplet_to_dense() {
        let d = sample().to_dense();
        assert_eq!(d.get(0, 0), 1.0);
        assert_eq!(d.get(0, 3), 2.0);
        assert_eq!(d.get(1, 2), 0.0);
        assert_eq!(d.nnz(), 5);
    }

    #[test]
    fn zero_push_removes() {
        let mut t = sample();
        t.push(0, 0, 0.0);
        assert_eq!(t.nnz(), 4);
    }

    #[test]
    fn pushes_match_a_sorted_map() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        use std::collections::BTreeMap;
        let mut rng = StdRng::seed_from_u64(5);
        let mut t = TripletMatrix::new(9, 13);
        let mut model = BTreeMap::new();
        for _ in 0..2_000 {
            let (r, c) = (rng.gen_range(0..9usize), rng.gen_range(0..13usize));
            // A third of the pushes are zeros, which delete.
            let v = if rng.gen_range(0..3u32) == 0 { 0.0 } else { rng.gen_range(0.1..10.0) };
            t.push(r, c, v);
            if v == 0.0 {
                model.remove(&(r, c));
            } else {
                model.insert((r, c), v);
            }
            assert_eq!(t.nnz(), model.len());
        }
        let want: Vec<_> = model.into_iter().map(|((r, c), v)| (r, c, v)).collect();
        assert_eq!(t.iter().collect::<Vec<_>>(), want);
    }

    #[test]
    fn csr_structure() {
        let csr = CsrMatrix::from_triplets(&sample());
        assert_eq!(csr.row_ptr(), &[0, 2, 3, 5]);
        assert_eq!(csr.col_idx(), &[0, 3, 1, 0, 2]);
        assert_eq!(csr.values(), &[1.0, 2.0, 3.0, 4.0, 5.0]);
    }

    #[test]
    fn csr_handles_empty_rows() {
        let mut t = TripletMatrix::new(4, 4);
        t.push(3, 3, 1.0);
        let csr = CsrMatrix::from_triplets(&t);
        assert_eq!(csr.row_ptr(), &[0, 0, 0, 0, 1]);
        let y = csr.spmv(&[1.0, 1.0, 1.0, 2.0]);
        assert_eq!(y, vec![0.0, 0.0, 0.0, 2.0]);
    }

    #[test]
    fn spmv_agreement_dense_vs_csr() {
        let t = sample();
        let x = vec![1.0, -1.0, 0.5, 2.0];
        assert_eq!(t.to_dense().spmv(&x), CsrMatrix::from_triplets(&t).spmv(&x));
    }

    #[test]
    fn csr_insert_maintains_order_and_results() {
        let mut csr = CsrMatrix::from_triplets(&sample());
        let moved = csr.insert(1, 3, 7.0);
        assert!(moved > 0);
        assert_eq!(csr.nnz(), 6);
        let x = vec![1.0; 4];
        let mut t2 = sample();
        t2.push(1, 3, 7.0);
        assert_eq!(csr.spmv(&x), CsrMatrix::from_triplets(&t2).spmv(&x));
    }

    #[test]
    fn csr_insert_overwrite_is_free() {
        let mut csr = CsrMatrix::from_triplets(&sample());
        assert_eq!(csr.insert(0, 0, 9.0), 0);
        assert_eq!(csr.values()[0], 9.0);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn spmv_rejects_bad_dims() {
        sample().to_dense().spmv(&[1.0]);
    }
}
