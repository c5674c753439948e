//! Small dense matrices and k³ coefficient tensors.
//!
//! The MRA kernels are mode-wise tensor transforms built from one
//! single-mode pass (`pass`): a (k×k)·(k×k²) GEMM, k⁴ multiply-adds,
//! that contracts a tensor's first mode and rotates it to the back.
//! Three passes make the mode product [`Tensor3::transform3`]; fourteen
//! make the two-scale filter of eight octants into one tensor
//! (`Tensor3::sum_octants`) and its inverse, one tensor into eight
//! (`Tensor3::split_octants`) — sum-factorised, so the shared
//! contractions are done once instead of once per octant. Every kernel
//! is compiled for each k up to [`MAX_K`] and allocates only its
//! results.

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

    /// The rank-1 tensor `out[i,j,m] = scale·a[i]·b[j]·c[m]`; the three
    /// factors have length k.
    pub(crate) fn outer(scale: f64, a: &[f64], b: &[f64], c: &[f64]) -> Tensor3 {
        let k = a.len();
        assert!(
            b.len() == k && c.len() == k,
            "factors must have equal length"
        );
        let mut out = Tensor3::zeros(k);
        for (plane, &ai) in out.data.chunks_exact_mut(k * k).zip(a) {
            for (row, &bj) in plane.chunks_exact_mut(k).zip(b) {
                let w = scale * ai * bj;
                for (v, &cm) in row.iter_mut().zip(c) {
                    *v = w * cm;
                }
            }
        }
        out
    }

    /// The mode product: `out[a,b,c] = Σ t0[i,a]·t1[j,b]·t2[l,c]·
    /// self[i,j,l]`, i.e. `M₀ ⊗ M₁ ⊗ M₂` applied with each matrix passed
    /// *transposed* (`t_d = M_dᵀ`), the form the kernel streams row by
    /// row. Three passes, 3·k⁴ multiply-adds; allocates only the result.
    pub fn transform3(&self, t0: &Matrix, t1: &Matrix, t2: &Matrix) -> Tensor3 {
        let k = check_k(self.k, &[t0, t1, t2]);
        let mut out = Tensor3::zeros(k);
        by_k!(k, product_k(&self.data, [t0, t1, t2], &mut out.data));
        out
    }

    /// `Σ_c (M[cx] ⊗ M[cy] ⊗ M[cz]) srcs[c]` over the eight octants
    /// `c = cz<<2 | cy<<1 | cx`, each matrix passed transposed (`t[h] =
    /// M[h]ᵀ`): the two-scale filter. Sum-factorised — x is contracted
    /// per (cy, cz) pair, y per cz, z once — so 14 passes instead of the
    /// 24 of eight mode products. Allocates only the result.
    pub(crate) fn sum_octants(srcs: &[Tensor3; 8], t: [&Matrix; 2]) -> Tensor3 {
        let k = srcs[0].k;
        assert!(srcs.iter().all(|s| s.k == k), "octants must share k");
        check_k(k, &t);
        let mut out = Tensor3::zeros(k);
        let srcs = srcs.each_ref().map(|s| s.data.as_slice());
        by_k!(k, sum_octants_k(srcs, t, &mut out.data));
        out
    }

    /// The eight `(M[cx] ⊗ M[cy] ⊗ M[cz]) self`, in octant order `c =
    /// cz<<2 | cy<<1 | cx`, each matrix passed transposed: the two-scale
    /// unfilter. Sum-factorised like [`Tensor3::sum_octants`] — x once
    /// per cx, y per (cx, cy), z per octant — so 14 passes instead of
    /// 24. Allocates only the eight results.
    pub(crate) fn split_octants(&self, t: [&Matrix; 2]) -> [Tensor3; 8] {
        let k = check_k(self.k, &t);
        let mut out: [Tensor3; 8] = std::array::from_fn(|_| Tensor3::zeros(k));
        let dsts = out.each_mut().map(|o| o.data.as_mut_slice());
        by_k!(k, split_octants_k(&self.data, t, dsts));
        out
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

/// The largest k the kernels are compiled for.
pub const MAX_K: usize = 16;

/// A k³ tensor as the kernel sees it: `[i][j][m]`, i slowest.
type Cube<const K: usize> = [[[f64; K]; K]; K];

/// Returns `k` after checking that it is in 1..=[`MAX_K`] and that
/// every matrix is k×k.
fn check_k(k: usize, t: &[&Matrix]) -> usize {
    assert!(
        (1..=MAX_K).contains(&k),
        "k = {k}: the mode-product kernel supports 1..={MAX_K}"
    );
    for m in t {
        assert_eq!((m.rows, m.cols), (k, k), "mode matrices must be k×k");
    }
    k
}

/// `by_k!(k, f(args…))` calls `f::<K>(args…)` for the literal K equal
/// to `k`: the one `match` on k, so each k in 1..=[`MAX_K`] has its own
/// monomorphised kernel.
macro_rules! by_k {
    ($k:expr, $f:ident $args:tt) => {
        by_k!(@ $k, $f, $args, 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16)
    };
    (@ $k:expr, $f:ident, $args:tt, $($K:literal)*) => {
        match $k {
            $($K => $f::<$K> $args,)*
            k => unreachable!("k = {k} passed check_k"),
        }
    };
}
use by_k;

/// `dst = (t[0]ᵀ ⊗ t[1]ᵀ ⊗ t[2]ᵀ) src`: three [`pass`]es through two
/// stack temporaries.
fn product_k<const K: usize>(src: &[f64], t: [&Matrix; 3], dst: &mut [f64]) {
    let mut a: Cube<K> = [[[0.0; K]; K]; K];
    let mut b: Cube<K> = [[[0.0; K]; K]; K];
    pass(cube(src), rows(&t[0].data), &mut a, false);
    pass(&a, rows(&t[1].data), &mut b, false);
    pass(&b, rows(&t[2].data), cube_mut(dst), false);
}

/// [`Tensor3::sum_octants`]' 14 passes through two stack temporaries:
/// `a` holds one (cy, cz) pair's x-contraction, `b` one cz's sum of
/// y-contractions, and `dst` the sum of the z-contractions.
fn sum_octants_k<const K: usize>(srcs: [&[f64]; 8], t: [&Matrix; 2], dst: &mut [f64]) {
    let t = t.map(|m| rows::<K, _>(&m.data));
    let dst = cube_mut::<K>(dst);
    let mut a: Cube<K> = [[[0.0; K]; K]; K];
    let mut b: Cube<K> = [[[0.0; K]; K]; K];
    for cz in 0..2 {
        for cy in 0..2 {
            for cx in 0..2 {
                pass(cube(srcs[cz << 2 | cy << 1 | cx]), t[cx], &mut a, cx == 1);
            }
            pass(&a, t[cy], &mut b, cy == 1);
        }
        pass(&b, t[cz], dst, cz == 1);
    }
}

/// [`Tensor3::split_octants`]' 14 passes through two stack
/// temporaries: `a` holds the x-contraction for one cx, `b` its
/// y-contraction for one cy, and each octant the z-contraction of `b`.
fn split_octants_k<const K: usize>(src: &[f64], t: [&Matrix; 2], dsts: [&mut [f64]; 8]) {
    let t = t.map(|m| rows::<K, _>(&m.data));
    let mut a: Cube<K> = [[[0.0; K]; K]; K];
    let mut b: Cube<K> = [[[0.0; K]; K]; K];
    for cx in 0..2 {
        pass(cube(src), t[cx], &mut a, false);
        for cy in 0..2 {
            pass(&a, t[cy], &mut b, false);
            for cz in 0..2 {
                pass(&b, t[cz], cube_mut(dsts[cz << 2 | cy << 1 | cx]), false);
            }
        }
    }
}

/// One single-mode pass, contracting the first mode and rotating it to the
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

    /// A separable tensor stays separable, each factor multiplied by its
    /// own mode's matrix: `transform3(a⊗b⊗c, t0, t1, t2) = t0ᵀa ⊗ t1ᵀb
    /// ⊗ t2ᵀc`. Three distinct non-symmetric matrices, so swapping modes
    /// or transposition shows.
    #[test]
    fn outer_builds_separable_tensor() {
        let t = Tensor3::outer(1.0, &[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]);
        assert_eq!(t.get(1, 0, 1), 2.0 * 3.0 * 6.0);
        assert_eq!(t.get(0, 1, 0), 1.0 * 4.0 * 5.0);
        let m: [Matrix; 3] =
            std::array::from_fn(|d| Matrix::from_fn(2, 2, |r, c| (1 + d + 2 * r + 5 * c) as f64));
        let mul = |m: &Matrix, v: [f64; 2]| [0, 1].map(|c| m.get(0, c) * v[0] + m.get(1, c) * v[1]);
        let want = Tensor3::outer(
            1.0,
            &mul(&m[0], [1.0, 2.0]),
            &mul(&m[1], [3.0, 4.0]),
            &mul(&m[2], [5.0, 6.0]),
        );
        assert_eq!(t.transform3(&m[0], &m[1], &m[2]), want);
    }

    /// The sum-factorised octant kernels equal their per-octant mode
    /// products, with two distinct non-symmetric matrices so that an
    /// octant bit read from the wrong axis shows.
    #[test]
    fn octant_kernels_match_per_octant_products() {
        let k = 5;
        let t: [Matrix; 2] = std::array::from_fn(|h| {
            Matrix::from_fn(k, k, |r, c| ((3 * r + 7 * c + 11 * h) as f64 * 0.37).sin())
        });
        let srcs: [Tensor3; 8] = std::array::from_fn(|o| {
            let mut s = Tensor3::zeros(k);
            for (i, v) in s.data_mut().iter_mut().enumerate() {
                *v = ((i * 13 + o * 29) as f64 * 0.11).cos();
            }
            s
        });
        let of = |o: usize| [o & 1, (o >> 1) & 1, (o >> 2) & 1].map(|b| &t[b]);
        let mut want = Tensor3::zeros(k);
        for (o, src) in srcs.iter().enumerate() {
            let [tx, ty, tz] = of(o);
            want.add_assign(&src.transform3(tx, ty, tz));
        }
        let got = Tensor3::sum_octants(&srcs, [&t[0], &t[1]]);
        assert!(
            got.max_abs_diff(&want) < 1e-12,
            "{}",
            got.max_abs_diff(&want)
        );
        for (o, part) in srcs[3].split_octants([&t[0], &t[1]]).iter().enumerate() {
            let [tx, ty, tz] = of(o);
            assert!(
                part.max_abs_diff(&srcs[3].transform3(tx, ty, tz)) < 1e-12,
                "octant {o}"
            );
        }
    }
}
