//! Small dense matrices and k³ coefficient tensors.
//!
//! The MRA kernels are mode-wise tensor transforms: applying a k×k
//! matrix along each of the three dimensions of a k³ tensor — three
//! GEMMs of shape (k×k)·(k×k²), 3·k⁴ multiply-adds. Projection runs one
//! such product per box, a filter eight (one per child, summed into the
//! parent) and an unfilter one per child. One kernel serves all three,
//! compiled for each k up to [`MAX_K`].

/// A row-major dense matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Builds from a function of (row, col).
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut m = Matrix::zeros(rows, cols);
        for r in 0..rows {
            for c in 0..cols {
                m.data[r * cols + c] = f(r, c);
            }
        }
        m
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Element access.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        self.data[r * self.cols + c]
    }

    /// Mutable element access.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        self.data[r * self.cols + c] = v;
    }

    /// Transpose.
    pub fn transpose(&self) -> Matrix {
        Matrix::from_fn(self.cols, self.rows, |r, c| self.get(c, r))
    }

    /// Dense GEMM: `self · other`.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.rows);
        let mut out = Matrix::zeros(self.rows, other.cols);
        for r in 0..self.rows {
            for kk in 0..self.cols {
                let a = self.get(r, kk);
                if a == 0.0 {
                    continue;
                }
                for c in 0..other.cols {
                    out.data[r * other.cols + c] += a * other.get(kk, c);
                }
            }
        }
        out
    }

    /// Frobenius distance to another matrix (diagnostics/tests).
    pub fn distance(&self, other: &Matrix) -> f64 {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            .sqrt()
    }
}

/// A dense k×k×k tensor of f64 (index order `[i][j][m]`, i slowest).
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Tensor3 {
    k: usize,
    data: Vec<f64>,
}

impl Tensor3 {
    /// Zero tensor of dimension k.
    pub fn zeros(k: usize) -> Self {
        Tensor3 {
            k,
            data: vec![0.0; k * k * k],
        }
    }

    /// Dimension per mode.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Flat data view.
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Flat mutable data view.
    pub fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Element access.
    #[inline]
    pub fn get(&self, i: usize, j: usize, m: usize) -> f64 {
        self.data[(i * self.k + j) * self.k + m]
    }

    /// Mutable element access.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, m: usize, v: f64) {
        self.data[(i * self.k + j) * self.k + m] = v;
    }

    /// Squared Frobenius norm.
    pub fn norm_sq(&self) -> f64 {
        self.data.iter().map(|v| v * v).sum()
    }

    /// Frobenius norm.
    pub fn norm(&self) -> f64 {
        self.norm_sq().sqrt()
    }

    /// `self += other`.
    pub fn add_assign(&mut self, other: &Tensor3) {
        assert_eq!(self.k, other.k);
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += *b;
        }
    }

    /// `self -= other`.
    pub fn sub_assign(&mut self, other: &Tensor3) {
        assert_eq!(self.k, other.k);
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a -= *b;
        }
    }

    /// Scales all entries.
    pub fn scale(&mut self, s: f64) {
        for v in &mut self.data {
            *v *= s;
        }
    }

    /// The mode product: `out[a,b,c] = Σ t0[i,a]·t1[j,b]·t2[l,c]·
    /// self[i,j,l]`, i.e. `M₀ ⊗ M₁ ⊗ M₂` applied with each matrix passed
    /// *transposed* (`t_d = M_dᵀ`), the form the kernel streams row by
    /// row. 3·k⁴ multiply-adds; allocates only the result.
    pub fn transform3(&self, t0: &Matrix, t1: &Matrix, t2: &Matrix) -> Tensor3 {
        let mut out = Tensor3::zeros(self.k);
        out.add_transform3(self, t0, t1, t2);
        out
    }

    /// `self += transform3(src, t0, t1, t2)`, without a temporary on the
    /// heap: how a filter sums its eight children into one tensor.
    pub fn add_transform3(&mut self, src: &Tensor3, t0: &Matrix, t1: &Matrix, t2: &Matrix) {
        assert_eq!(self.k, src.k);
        product(self.k, &mut self.data, Some(&src.data), [t0, t1, t2]);
    }

    /// `self = transform3(self, t0, t1, t2)`, without allocating.
    pub fn transform3_in_place(&mut self, t0: &Matrix, t1: &Matrix, t2: &Matrix) {
        product(self.k, &mut self.data, None, [t0, t1, t2]);
    }

    /// Maximum absolute difference to another tensor.
    pub fn max_abs_diff(&self, other: &Tensor3) -> f64 {
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max)
    }
}

/// The largest k the mode-product kernel is compiled for.
pub const MAX_K: usize = 16;

/// A k³ tensor as the kernel sees it: `[i][j][m]`, i slowest.
type Cube<const K: usize> = [[[f64; K]; K]; K];

/// `dst += P·src`, or `dst = P·dst` when `src` is `None`, where
/// `P = t[0]ᵀ ⊗ t[1]ᵀ ⊗ t[2]ᵀ`. The one `match` on k: each k in
/// 1..=[`MAX_K`] has its own monomorphised kernel.
fn product(k: usize, dst: &mut [f64], src: Option<&[f64]>, t: [&Matrix; 3]) {
    for m in t {
        assert_eq!((m.rows, m.cols), (k, k), "mode matrices must be k×k");
    }
    macro_rules! by_k {
        ($($K:literal)*) => {
            match k {
                $($K => product_k::<$K>(dst, src, t),)*
                _ => panic!("k = {k}: the mode-product kernel supports 1..={MAX_K}"),
            }
        };
    }
    by_k!(1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16)
}

/// Three [`pass`]es through two stack temporaries.
fn product_k<const K: usize>(dst: &mut [f64], src: Option<&[f64]>, t: [&Matrix; 3]) {
    let mut a: Cube<K> = [[[0.0; K]; K]; K];
    let mut b: Cube<K> = [[[0.0; K]; K]; K];
    pass(cube(src.unwrap_or(dst)), rows(&t[0].data), &mut a, false);
    pass(&a, rows(&t[1].data), &mut b, false);
    pass(&b, rows(&t[2].data), cube_mut(dst), src.is_some());
}

/// One mode product, contracting the first mode and rotating it to the
/// back: `dst[j][m][a] (+)= Σ_i src[i][j][m] · t[i][a]`. Each of the k²
/// output rows is K accumulators held in registers, summed over i in
/// ascending order.
#[inline(always)]
fn pass<const K: usize>(src: &Cube<K>, t: &[[f64; K]; K], dst: &mut Cube<K>, add: bool) {
    for j in 0..K {
        for m in 0..K {
            let mut acc = [0.0; K];
            for i in 0..K {
                let s = src[i][j][m];
                for a in 0..K {
                    acc[a] += s * t[i][a];
                }
            }
            for (d, v) in dst[j][m].iter_mut().zip(acc) {
                *d = if add { *d + v } else { v };
            }
        }
    }
}

/// `d` as K rows of K (a matrix), or as K planes of those (a tensor).
fn rows<const K: usize, T>(d: &[T]) -> &[[T; K]; K] {
    d.as_chunks().0.try_into().expect("K×K entries")
}

fn cube<const K: usize>(d: &[f64]) -> &Cube<K> {
    rows(d.as_chunks().0)
}

fn cube_mut<const K: usize>(d: &mut [f64]) -> &mut Cube<K> {
    let planes: &mut [[[f64; K]; K]] = d.as_chunks_mut().0.as_chunks_mut().0;
    planes.try_into().expect("K×K×K entries")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_transform(t: &Tensor3, m: &Matrix) -> Tensor3 {
        let k = t.k();
        let mut out = Tensor3::zeros(k);
        for a in 0..k {
            for b in 0..k {
                for c in 0..k {
                    let mut acc = 0.0;
                    for i in 0..k {
                        for j in 0..k {
                            for l in 0..k {
                                acc += m.get(a, i) * m.get(b, j) * m.get(c, l) * t.get(i, j, l);
                            }
                        }
                    }
                    out.set(a, b, c, acc);
                }
            }
        }
        out
    }

    #[test]
    fn matmul_matches_hand_computation() {
        let a = Matrix::from_fn(2, 3, |r, c| (r * 3 + c) as f64);
        let b = Matrix::from_fn(3, 2, |r, c| (r * 2 + c) as f64 + 1.0);
        let c = a.matmul(&b);
        // a = [[0,1,2],[3,4,5]], b = [[1,2],[3,4],[5,6]]
        assert_eq!(c.get(0, 0), 13.0);
        assert_eq!(c.get(0, 1), 16.0);
        assert_eq!(c.get(1, 0), 40.0);
        assert_eq!(c.get(1, 1), 52.0);
    }

    #[test]
    fn transpose_roundtrip() {
        let a = Matrix::from_fn(3, 5, |r, c| (r * 7 + c) as f64);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn transform_matches_naive_contraction() {
        let k = 4;
        let m = Matrix::from_fn(k, k, |r, c| ((r + 1) as f64).sin() * ((c + 2) as f64).cos());
        let mut t = Tensor3::zeros(k);
        for (idx, v) in t.data_mut().iter_mut().enumerate() {
            *v = (idx as f64 * 0.37).sin();
        }
        let mt = m.transpose();
        let fast = t.transform3(&mt, &mt, &mt);
        let slow = naive_transform(&t, &m);
        assert!(
            fast.max_abs_diff(&slow) < 1e-12,
            "transform deviates: {}",
            fast.max_abs_diff(&slow)
        );
    }

    #[test]
    fn identity_transform_is_identity() {
        let k = 5;
        let id = Matrix::from_fn(k, k, |r, c| if r == c { 1.0 } else { 0.0 });
        let mut t = Tensor3::zeros(k);
        for (idx, v) in t.data_mut().iter_mut().enumerate() {
            *v = idx as f64;
        }
        assert!(t.transform3(&id, &id, &id).max_abs_diff(&t) < 1e-14);
    }

    #[test]
    fn orthogonal_transform_preserves_norm() {
        // A rotation in the (0,1) plane extended to k dims.
        let k = 6;
        let (s, c) = (0.6f64, 0.8f64);
        let m = Matrix::from_fn(k, k, |r, col| match (r, col) {
            (0, 0) => c,
            (0, 1) => -s,
            (1, 0) => s,
            (1, 1) => c,
            (r, col) if r == col => 1.0,
            _ => 0.0,
        });
        let mut t = Tensor3::zeros(k);
        for (idx, v) in t.data_mut().iter_mut().enumerate() {
            *v = ((idx * 13 % 97) as f64) / 97.0;
        }
        let out = t.transform3(&m, &m, &m);
        assert!((out.norm() - t.norm()).abs() < 1e-10);
    }

    /// Rank-3 separable expansion: `out[i,j,m] = a[i]·b[j]·c[m]`.
    fn outer(a: &[f64], b: &[f64], c: &[f64]) -> Tensor3 {
        let k = a.len();
        let mut t = Tensor3::zeros(k);
        for i in 0..k {
            for j in 0..k {
                for m in 0..k {
                    t.set(i, j, m, a[i] * b[j] * c[m]);
                }
            }
        }
        t
    }

    /// A separable tensor stays separable, each factor multiplied by its
    /// own mode's matrix: `transform3(a⊗b⊗c, t0, t1, t2) = t0ᵀa ⊗ t1ᵀb
    /// ⊗ t2ᵀc`. Three distinct non-symmetric matrices, so swapping modes
    /// or transposition shows.
    #[test]
    fn outer_builds_separable_tensor() {
        let t = outer(&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]);
        assert_eq!(t.get(1, 0, 1), 2.0 * 3.0 * 6.0);
        assert_eq!(t.get(0, 1, 0), 1.0 * 4.0 * 5.0);
        let m: [Matrix; 3] =
            std::array::from_fn(|d| Matrix::from_fn(2, 2, |r, c| (1 + d + 2 * r + 5 * c) as f64));
        let mul = |m: &Matrix, v: [f64; 2]| [0, 1].map(|c| m.get(0, c) * v[0] + m.get(1, c) * v[1]);
        let want = outer(
            &mul(&m[0], [1.0, 2.0]),
            &mul(&m[1], [3.0, 4.0]),
            &mul(&m[2], [5.0, 6.0]),
        );
        assert_eq!(t.transform3(&m[0], &m[1], &m[2]), want);
    }
}
