//! Small dense matrices and k³ coefficient tensors.
//!
//! The MRA kernels are mode-wise tensor transforms built from one
//! single-mode pass: a (k×k)·(k×k²) GEMM, k⁴ multiply-adds, that
//! contracts a tensor's first mode and rotates it to the back. Three
//! passes make the mode product [`Tensor3::transform3`]; fourteen make
//! the two-scale filter of eight octants into one tensor
//! (`Tensor3::sum_octants`) and its inverse, one tensor into eight
//! (`Tensor3::split_octants`) — sum-factorised, so the shared
//! contractions are done once instead of once per octant. Every kernel
//! is compiled for each k up to [`MAX_K`] and allocates only its
//! results.
//!
//! The pass comes in two forms, picked by [`PassKernel::for_k`] once
//! per kernel call (never per pass): for k ≥ 3 on an x86-64 CPU with
//! AVX2, an AVX2 pass that keeps a block of output rows in `ymm`
//! accumulators; otherwise the portable pass, which is also the oracle
//! the AVX2 pass is tested against. Both round every product
//! and then add it, in ascending order of the contracted index, to an
//! accumulator that starts at +0.0, so they agree bit for bit on every
//! output that is not NaN. That is why the AVX2 pass uses no FMA: a
//! fused multiply-add rounds once where the portable pass rounds twice,
//! and results would then depend on the CPU. Other targets build only
//! the portable pass.

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
        self.transform3_with(PassKernel::for_k(self.k), t0, t1, t2)
    }

    /// [`Tensor3::transform3`] through `kernel`'s pass instead of the
    /// one [`PassKernel::for_k`] picks.
    pub fn transform3_with(
        &self,
        kernel: PassKernel,
        t0: &Matrix,
        t1: &Matrix,
        t2: &Matrix,
    ) -> Tensor3 {
        let k = check_k(self.k, &[t0, t1, t2]);
        let mut out = Tensor3::zeros(k);
        by_k!(
            k,
            product_k(kernel, &self.data, [t0, t1, t2], &mut out.data)
        );
        out
    }

    /// `Σ_c (M[cx] ⊗ M[cy] ⊗ M[cz]) srcs[c]` over the eight octants
    /// `c = cz<<2 | cy<<1 | cx`, each matrix passed transposed (`t[h] =
    /// M[h]ᵀ`): the two-scale filter. Sum-factorised — x is contracted
    /// per (cy, cz) pair, y per cz, z once — so 14 passes instead of the
    /// 24 of eight mode products. Allocates only the result.
    pub(crate) fn sum_octants(srcs: &[Tensor3; 8], t: [&Matrix; 2]) -> Tensor3 {
        Self::sum_octants_with(PassKernel::for_k(srcs[0].k), srcs, t)
    }

    /// [`Tensor3::sum_octants`] through `kernel`'s pass.
    fn sum_octants_with(kernel: PassKernel, srcs: &[Tensor3; 8], t: [&Matrix; 2]) -> Tensor3 {
        let k = srcs[0].k;
        assert!(srcs.iter().all(|s| s.k == k), "octants must share k");
        check_k(k, &t);
        let mut out = Tensor3::zeros(k);
        let srcs = srcs.each_ref().map(|s| s.data.as_slice());
        by_k!(k, sum_octants_k(kernel, srcs, t, &mut out.data));
        out
    }

    /// The eight `(M[cx] ⊗ M[cy] ⊗ M[cz]) self`, in octant order `c =
    /// cz<<2 | cy<<1 | cx`, each matrix passed transposed: the two-scale
    /// unfilter. Sum-factorised like [`Tensor3::sum_octants`] — x once
    /// per cx, y per (cx, cy), z per octant — so 14 passes instead of
    /// 24. Allocates only the eight results.
    pub(crate) fn split_octants(&self, t: [&Matrix; 2]) -> [Tensor3; 8] {
        self.split_octants_with(PassKernel::for_k(self.k), t)
    }

    /// [`Tensor3::split_octants`] through `kernel`'s pass.
    fn split_octants_with(&self, kernel: PassKernel, t: [&Matrix; 2]) -> [Tensor3; 8] {
        let k = check_k(self.k, &t);
        let mut out: [Tensor3; 8] = std::array::from_fn(|_| Tensor3::zeros(k));
        let dsts = out.each_mut().map(|o| o.data.as_mut_slice());
        by_k!(k, split_octants_k(kernel, &self.data, t, dsts));
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

/// `by_k!(k, f(args…))` calls `f::<K, R>(args…)` for the literal K
/// equal to `k`: the one `match` on k, so each k in 1..=[`MAX_K`] has
/// its own monomorphised kernel. R is how many output rows the AVX2
/// pass keeps in registers at once for that K (see `avx2::pass`): its
/// R·⌈K/4⌉ accumulators must leave room in the 16 `ymm` registers, and
/// among the R that do, each was picked by measuring that K.
macro_rules! by_k {
    ($k:expr, $f:ident $args:tt) => {
        by_k!(@ $k, $f, $args,
            1:1 2:2 3:3 4:4 5:4 6:6 7:4 8:4 9:3 10:4 11:4 12:4 13:3 14:3 15:3 16:3)
    };
    (@ $k:expr, $f:ident, $args:tt, $($K:literal : $R:literal)*) => {
        match $k {
            $($K => $f::<$K, $R> $args,)*
            k => unreachable!("k = {k} passed check_k"),
        }
    };
}
use by_k;

/// The single-mode pass a kernel call runs. The kernel entries pick one
/// with [`PassKernel::for_k`] when they are called and run every pass
/// of that call through it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PassKernel {
    /// The portable pass: the fallback on a CPU without AVX2, and the
    /// oracle the AVX2 pass is tested against.
    Portable,
    /// The AVX2 pass, holding the proof that this CPU has AVX2.
    #[cfg(target_arch = "x86_64")]
    Avx2(Avx2),
}

#[cfg(target_arch = "x86_64")]
pub use avx2::Avx2;

/// The smallest k dispatch gives the AVX2 pass. At k = 1 and 2 a pass
/// is a few dozen multiply-adds, and the AVX2 pass measured no faster
/// than the portable one (EXPERIMENTS.md, Figure 12, the per-k table).
const VECTOR_MIN_K: usize = 3;

impl PassKernel {
    /// The pass for tensors of dimension `k` on this CPU: AVX2 where
    /// the CPU has it and k is at least 3, the portable pass otherwise.
    pub fn for_k(k: usize) -> PassKernel {
        match PassKernel::vector() {
            Some(vector) if k >= VECTOR_MIN_K => vector,
            _ => PassKernel::Portable,
        }
    }

    /// The vector pass, if this CPU has one: AVX2 on x86-64, none on
    /// other targets.
    pub fn vector() -> Option<PassKernel> {
        #[cfg(target_arch = "x86_64")]
        return Avx2::detect().map(PassKernel::Avx2);
        #[cfg(not(target_arch = "x86_64"))]
        None
    }

    /// `"avx2"` or `"portable"`.
    pub fn name(self) -> &'static str {
        match self {
            PassKernel::Portable => "portable",
            #[cfg(target_arch = "x86_64")]
            PassKernel::Avx2(_) => "avx2",
        }
    }

    /// One pass through this kernel: `dst[j][m][a] (+)= Σ_i
    /// src[i][j][m] · t[i][a]`.
    #[inline(always)]
    fn run<const K: usize, const R: usize>(
        self,
        src: &Cube<K>,
        t: &[[f64; K]; K],
        dst: &mut Cube<K>,
        add: bool,
    ) {
        match self {
            PassKernel::Portable => pass(src, t, dst, add),
            #[cfg(target_arch = "x86_64")]
            PassKernel::Avx2(avx2) => avx2.pass::<K, R>(src, t, dst, add),
        }
    }
}

/// `dst = (t[0]ᵀ ⊗ t[1]ᵀ ⊗ t[2]ᵀ) src`: three passes through two stack
/// temporaries.
fn product_k<const K: usize, const R: usize>(
    kernel: PassKernel,
    src: &[f64],
    t: [&Matrix; 3],
    dst: &mut [f64],
) {
    let mut a: Cube<K> = [[[0.0; K]; K]; K];
    let mut b: Cube<K> = [[[0.0; K]; K]; K];
    kernel.run::<K, R>(cube(src), rows(&t[0].data), &mut a, false);
    kernel.run::<K, R>(&a, rows(&t[1].data), &mut b, false);
    kernel.run::<K, R>(&b, rows(&t[2].data), cube_mut(dst), false);
}

/// [`Tensor3::sum_octants`]' 14 passes through two stack temporaries:
/// `a` holds one (cy, cz) pair's x-contraction, `b` one cz's sum of
/// y-contractions, and `dst` the sum of the z-contractions.
fn sum_octants_k<const K: usize, const R: usize>(
    kernel: PassKernel,
    srcs: [&[f64]; 8],
    t: [&Matrix; 2],
    dst: &mut [f64],
) {
    let t = t.map(|m| rows::<K, _>(&m.data));
    let dst = cube_mut::<K>(dst);
    let mut a: Cube<K> = [[[0.0; K]; K]; K];
    let mut b: Cube<K> = [[[0.0; K]; K]; K];
    for cz in 0..2 {
        for cy in 0..2 {
            for cx in 0..2 {
                let src = cube(srcs[cz << 2 | cy << 1 | cx]);
                kernel.run::<K, R>(src, t[cx], &mut a, cx == 1);
            }
            kernel.run::<K, R>(&a, t[cy], &mut b, cy == 1);
        }
        kernel.run::<K, R>(&b, t[cz], dst, cz == 1);
    }
}

/// [`Tensor3::split_octants`]' 14 passes through two stack
/// temporaries: `a` holds the x-contraction for one cx, `b` its
/// y-contraction for one cy, and each octant the z-contraction of `b`.
fn split_octants_k<const K: usize, const R: usize>(
    kernel: PassKernel,
    src: &[f64],
    t: [&Matrix; 2],
    dsts: [&mut [f64]; 8],
) {
    let t = t.map(|m| rows::<K, _>(&m.data));
    let mut a: Cube<K> = [[[0.0; K]; K]; K];
    let mut b: Cube<K> = [[[0.0; K]; K]; K];
    for cx in 0..2 {
        kernel.run::<K, R>(cube(src), t[cx], &mut a, false);
        for cy in 0..2 {
            kernel.run::<K, R>(&a, t[cy], &mut b, false);
            for cz in 0..2 {
                let dst = cube_mut(dsts[cz << 2 | cy << 1 | cx]);
                kernel.run::<K, R>(&b, t[cz], dst, false);
            }
        }
    }
}

/// The portable single-mode pass, contracting the first mode and
/// rotating it to the back: `dst[j][m][a] (+)= Σ_i src[i][j][m] ·
/// t[i][a]`. Each of the k² output rows is K accumulators, summed over
/// i in ascending order.
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

/// The AVX2 single-mode pass. It computes what the portable [`pass`]
/// computes, in the same order: each product rounded, then added to an
/// accumulator that starts at +0.0, over i ascending; with `add`, the
/// old output plus the sum. There is no FMA, so each output is the
/// portable pass's bit for bit, unless it is NaN (LLVM may commute an
/// add, which can change which NaN payload survives). What differs is
/// the shape: an output row `dst[j][m]` of K entries is ⌈K/4⌉
/// four-lane `ymm` accumulators, and R consecutive rows (in (j, m)
/// order), whose inputs lie side by side in each plane `src[i]`, are
/// summed at once, so each row of `t` loaded feeds R rows and R·⌈K/4⌉
/// independent add chains hide the adds' latency. R is fixed per K at
/// compile time (`by_k!`), so the accumulators stay in registers.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::Cube;
    use std::arch::x86_64::{
        __m256d, _mm256_add_pd, _mm256_broadcast_sd, _mm256_castpd256_pd128, _mm256_extractf128_pd,
        _mm256_insertf128_pd, _mm256_loadu_pd, _mm256_mul_pd, _mm256_setzero_pd, _mm256_storeu_pd,
        _mm256_zextpd128_pd256, _mm_load_sd, _mm_loadu_pd, _mm_store_sd, _mm_storeu_pd,
    };

    /// Proof that this CPU has AVX2. Only detection makes one (through
    /// [`PassKernel::vector`](super::PassKernel::vector)), so holding
    /// one is what lets the kernels call the AVX2 pass.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct Avx2(());

    impl Avx2 {
        /// An `Avx2` if this CPU has AVX2.
        pub(super) fn detect() -> Option<Avx2> {
            std::arch::is_x86_feature_detected!("avx2").then_some(Avx2(()))
        }

        /// One pass, R output rows at a time.
        #[inline]
        pub(super) fn pass<const K: usize, const R: usize>(
            self,
            src: &Cube<K>,
            t: &[[f64; K]; K],
            dst: &mut Cube<K>,
            add: bool,
        ) {
            // SAFETY: `self` exists, and only `detect` makes an `Avx2`,
            // after it found `avx2` on this CPU: the one feature `pass`
            // enables.
            unsafe { pass::<K, R>(src, t, dst, add) }
        }
    }

    /// The k² output rows `dst[j][m]`, taken as one run of rows (j
    /// slowest), in blocks of R, then the k² mod R left over as one
    /// smaller block.
    #[target_feature(enable = "avx2")]
    fn pass<const K: usize, const R: usize>(
        src: &Cube<K>,
        t: &[[f64; K]; K],
        dst: &mut Cube<K>,
        add: bool,
    ) {
        let dst = dst.as_flattened_mut();
        let full = K * K - K * K % R;
        for row in (0..full).step_by(R) {
            block::<K, R>(src, t, row, dst, add);
        }
        match K * K % R {
            0 => {}
            1 => block::<K, 1>(src, t, full, dst, add),
            2 => block::<K, 2>(src, t, full, dst, add),
            3 => block::<K, 3>(src, t, full, dst, add),
            4 => block::<K, 4>(src, t, full, dst, add),
            5 => block::<K, 5>(src, t, full, dst, add),
            rest => unreachable!("{rest} rows left over: R is at most 6"),
        }
    }

    /// The N output rows `dst[row..row + N]`, whose inputs lie side by
    /// side in each plane of `src`: N·⌈K/4⌉ accumulators held in
    /// registers over all K of i.
    #[target_feature(enable = "avx2")]
    fn block<const K: usize, const N: usize>(
        src: &Cube<K>,
        t: &[[f64; K]; K],
        row: usize,
        dst: &mut [[f64; K]],
        add: bool,
    ) {
        let mut acc = [[_mm256_setzero_pd(); 4]; N];
        for (plane, t) in src.iter().zip(t) {
            let t = load_row(t);
            for (acc, s) in acc.iter_mut().zip(&plane.as_flattened()[row..row + N]) {
                let s = _mm256_broadcast_sd(s);
                for c in 0..K.div_ceil(4) {
                    acc[c] = _mm256_add_pd(acc[c], _mm256_mul_pd(s, t[c]));
                }
            }
        }
        for (acc, out) in acc.iter().zip(&mut dst[row..row + N]) {
            for (acc, lanes) in acc.iter().zip(out.chunks_mut(4)) {
                let v = if add {
                    _mm256_add_pd(load(lanes), *acc)
                } else {
                    *acc
                };
                store(lanes, v);
            }
        }
    }

    /// A row of K entries as ⌈K/4⌉ vectors; the lanes past K, and the
    /// vectors past ⌈K/4⌉, are 0.
    #[target_feature(enable = "avx2")]
    #[inline]
    fn load_row<const K: usize>(row: &[f64; K]) -> [__m256d; 4] {
        let mut v = [_mm256_setzero_pd(); 4];
        for (v, lanes) in v.iter_mut().zip(row.chunks(4)) {
            *v = load(lanes);
        }
        v
    }

    /// `lanes` (one to four entries) as one vector, 0 in the lanes past
    /// its end.
    #[target_feature(enable = "avx2")]
    #[inline]
    fn load(lanes: &[f64]) -> __m256d {
        let p = lanes.as_ptr();
        // SAFETY: each arm reads exactly `lanes.len()` f64s from `p`
        // onwards, all in `lanes`: four as one `ymm`, three as an `xmm`
        // pair and one more at `p + 2`, two as an `xmm`, or one. The
        // unaligned loads need no alignment, and `avx2` is enabled here
        // and in every caller, all reached only through `Avx2::pass`.
        unsafe {
            match lanes.len() {
                4 => _mm256_loadu_pd(p),
                3 => _mm256_insertf128_pd::<1>(
                    _mm256_zextpd128_pd256(_mm_loadu_pd(p)),
                    _mm_load_sd(p.add(2)),
                ),
                2 => _mm256_zextpd128_pd256(_mm_loadu_pd(p)),
                1 => _mm256_zextpd128_pd256(_mm_load_sd(p)),
                n => unreachable!("{n} lanes"),
            }
        }
    }

    /// Writes the first `lanes.len()` (one to four) lanes of `v` to
    /// `lanes`, and nothing past its end.
    #[target_feature(enable = "avx2")]
    #[inline]
    fn store(lanes: &mut [f64], v: __m256d) {
        let p = lanes.as_mut_ptr();
        let low = _mm256_castpd256_pd128(v);
        // SAFETY: each arm writes exactly `lanes.len()` f64s from `p`
        // onwards, all in `lanes`: four as one `ymm`, three as the low
        // `xmm` pair and lane 2 at `p + 2`, two as the low `xmm`, or
        // lane 0. Lanes past the end are not written. Alignment and
        // `avx2` as in `load`.
        unsafe {
            match lanes.len() {
                4 => _mm256_storeu_pd(p, v),
                3 => {
                    _mm_storeu_pd(p, low);
                    _mm_store_sd(p.add(2), _mm256_extractf128_pd::<1>(v));
                }
                2 => _mm_storeu_pd(p, low),
                1 => _mm_store_sd(p, low),
                n => unreachable!("{n} lanes"),
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

    /// xorshift64*: enough randomness for test inputs, no dependency.
    fn next_rand(s: &mut u64) -> u64 {
        *s ^= *s >> 12;
        *s ^= *s << 25;
        *s ^= *s >> 27;
        s.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// An entry that rounding and IEEE special cases can tell apart:
    /// either sign of 0, of a subnormal, of a tiny normal whose
    /// products are subnormal, or of a normal in [2⁻¹⁰, 2¹¹).
    fn entry(s: &mut u64) -> f64 {
        let r = next_rand(s);
        let sign = if r & 1 == 0 { 1.0 } else { -1.0 };
        let unit = 1.0 + (r >> 11) as f64 / (1u64 << 53) as f64;
        sign * match (r >> 1) % 8 {
            0 => 0.0,
            1 => f64::from_bits((r >> 12) | 1),
            2 => 1e-160 * unit,
            _ => unit * 2f64.powi(((r >> 4) % 21) as i32 - 10),
        }
    }

    /// Eight octant tensors and five matrices of dimension `k` for one
    /// `case`: 0 and 1 draw every entry with [`entry`]; 2 also puts ±∞
    /// into two octants; 3 makes every tensor entry −0.0, whose sums
    /// the portable pass leaves at +0.0 (its accumulators start there).
    fn inputs(k: usize, case: u64) -> ([Tensor3; 8], [Matrix; 5]) {
        let mut s = (k as u64) << 8 | case | 1 << 32;
        let mut srcs: [Tensor3; 8] = std::array::from_fn(|_| {
            let mut t = Tensor3::zeros(k);
            for v in t.data_mut() {
                *v = if case == 3 { -0.0 } else { entry(&mut s) };
            }
            t
        });
        if case == 2 {
            let n = k * k * k;
            srcs[1].data_mut()[next_rand(&mut s) as usize % n] = f64::INFINITY;
            srcs[6].data_mut()[next_rand(&mut s) as usize % n] = f64::NEG_INFINITY;
        }
        let mats = std::array::from_fn(|_| Matrix::from_fn(k, k, |_, _| entry(&mut s)));
        (srcs, mats)
    }

    /// `got` equals `want` bit for bit where `want` is not NaN, and is
    /// NaN where it is (the payload may differ).
    fn assert_bitwise(got: &Tensor3, want: &Tensor3, what: &str) {
        for (n, (g, w)) in got.data().iter().zip(want.data()).enumerate() {
            if w.is_nan() {
                assert!(g.is_nan(), "{what}, entry {n}: {g:e}, want NaN");
            } else {
                assert_eq!(
                    g.to_bits(),
                    w.to_bits(),
                    "{what}, entry {n}: {g:e}, want {w:e}"
                );
            }
        }
    }

    /// Every k, through dispatch and through the vector pass called
    /// directly (where the CPU has one; dispatch keeps the portable
    /// pass for the smallest k): the mode product, the octant sum (the
    /// passes that add into their output) and the octant split all
    /// equal the portable pass's, bit for bit.
    #[test]
    fn every_kernel_matches_the_portable_pass_bit_for_bit() {
        let vector = PassKernel::vector();
        println!("vector pass: {:?}", vector.map(PassKernel::name));
        for k in 1..=MAX_K {
            for case in 0..4 {
                let (srcs, m) = inputs(k, case);
                let at = |what: &str, via: &str| format!("k = {k}, case {case}, {what} via {via}");
                let t = [&m[3], &m[4]];
                let portable = PassKernel::Portable;
                let product = srcs[0].transform3_with(portable, &m[0], &m[1], &m[2]);
                let sum = Tensor3::sum_octants_with(portable, &srcs, t);
                let split = srcs[5].split_octants_with(portable, t);

                assert_bitwise(
                    &srcs[0].transform3(&m[0], &m[1], &m[2]),
                    &product,
                    &at("transform3", "dispatch"),
                );
                assert_bitwise(
                    &Tensor3::sum_octants(&srcs, t),
                    &sum,
                    &at("sum_octants", "dispatch"),
                );
                for (o, part) in srcs[5].split_octants(t).iter().enumerate() {
                    assert_bitwise(part, &split[o], &at(&format!("octant {o}"), "dispatch"));
                }

                let Some(vector) = vector else { continue };
                let via = vector.name();
                assert_bitwise(
                    &srcs[0].transform3_with(vector, &m[0], &m[1], &m[2]),
                    &product,
                    &at("transform3", via),
                );
                assert_bitwise(
                    &Tensor3::sum_octants_with(vector, &srcs, t),
                    &sum,
                    &at("sum_octants", via),
                );
                for (o, part) in srcs[5].split_octants_with(vector, t).iter().enumerate() {
                    assert_bitwise(part, &split[o], &at(&format!("octant {o}"), via));
                }
            }
        }
    }

    /// The rule the kernel entries dispatch by. On a CPU with AVX2,
    /// every k from `VECTOR_MIN_K` up must take the AVX2 pass.
    #[test]
    fn dispatch_takes_the_vector_pass_where_the_cpu_has_it() {
        #[cfg(target_arch = "x86_64")]
        let avx2 = std::arch::is_x86_feature_detected!("avx2");
        #[cfg(not(target_arch = "x86_64"))]
        let avx2 = false;
        assert_eq!(PassKernel::vector().is_some(), avx2);
        for k in 1..=MAX_K {
            let want = if avx2 && k >= VECTOR_MIN_K {
                "avx2"
            } else {
                "portable"
            };
            assert_eq!(PassKernel::for_k(k).name(), want, "k = {k}");
        }
        println!(
            "avx2: {avx2}, pass at k = 6: {}",
            PassKernel::for_k(6).name()
        );
    }
}
