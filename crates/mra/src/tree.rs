//! The adaptive octree and the level-local MRA operations.
//!
//! [`MraContext`] packages the order-k machinery (quadrature, basis
//! evaluation matrix, two-scale filters) and provides the primitive
//! operations every driver (serial or TTG) composes:
//!
//! * [`MraContext::refine`] — one refinement step: the box's filtered
//!   coefficients and the detail norm against its eight children. A
//!   Gaussian is separable, so every child projection is rank 1 and the
//!   step is done per axis: 6k `exp`s and O(k²) arithmetic, no mode
//!   product and no k³ tensor unless the box is a leaf;
//! * [`MraContext::project_box`] — scaling coefficients of `f` on one
//!   box, the same rank-1 form (3k `exp`s);
//! * [`MraContext::filter`] — eight children → parent coefficients
//!   (14 sum-factorised passes, `Tensor3::sum_octants`);
//! * [`MraContext::unfilter_all`] — parent → the eight children's
//!   shares (14 passes, `Tensor3::split_octants`), the compression
//!   residuals' and the reconstruction's kernel.

use crate::function::Gaussian3;
use crate::quadrature::GaussLegendre;
use crate::tensor::{Matrix, Tensor3, MAX_K};
use crate::twoscale::TwoScale;

/// A dyadic box of the octree: level `n` and translation `l ∈ [0, 2ⁿ)³`.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, serde::Serialize, serde::Deserialize,
)]
pub struct BoxKey {
    /// Refinement level (0 = the whole domain).
    pub n: u8,
    /// Translations per dimension.
    pub l: [u32; 3],
}

impl BoxKey {
    /// The root box.
    pub const ROOT: BoxKey = BoxKey { n: 0, l: [0, 0, 0] };

    /// The 8 children, indexed by octant bits (z<<2 | y<<1 | x).
    pub fn children(&self) -> [BoxKey; 8] {
        std::array::from_fn(|c| {
            let cx = (c & 1) as u32;
            let cy = ((c >> 1) & 1) as u32;
            let cz = ((c >> 2) & 1) as u32;
            BoxKey {
                n: self.n + 1,
                l: [self.l[0] * 2 + cx, self.l[1] * 2 + cy, self.l[2] * 2 + cz],
            }
        })
    }

    /// Parent box; `None` at the root.
    pub fn parent(&self) -> Option<BoxKey> {
        if self.n == 0 {
            return None;
        }
        Some(BoxKey {
            n: self.n - 1,
            l: [self.l[0] / 2, self.l[1] / 2, self.l[2] / 2],
        })
    }

    /// Which octant of its parent this box occupies.
    pub fn child_index(&self) -> usize {
        ((self.l[2] & 1) << 2 | (self.l[1] & 1) << 1 | (self.l[0] & 1)) as usize
    }

    /// Lower corner and width of the box in unit-cube coordinates.
    pub fn bounds(&self) -> ([f64; 3], f64) {
        let w = 1.0 / (1u64 << self.n) as f64;
        (
            [
                self.l[0] as f64 * w,
                self.l[1] as f64 * w,
                self.l[2] as f64 * w,
            ],
            w,
        )
    }
}

/// Parameters of one MRA computation.
#[derive(Debug, Clone, Copy)]
pub struct MraParams {
    /// Multiwavelet order (the paper: 10).
    pub k: usize,
    /// Truncation threshold on the inter-level detail norm (the paper:
    /// 10⁻⁸).
    pub eps: f64,
    /// Hard refinement limit.
    pub max_level: u8,
    /// Unconditional initial refinement: boxes shallower than this are
    /// always split, so narrow features cannot hide between the coarse
    /// quadrature points (MADNESS's `initial_level`, default 2).
    pub initial_level: u8,
    /// World-coordinate domain `[lo, hi]³` (the paper: [−6, 6]³).
    pub domain: (f64, f64),
}

impl Default for MraParams {
    fn default() -> Self {
        MraParams {
            k: crate::DEFAULT_K,
            eps: 1e-8,
            max_level: 20,
            initial_level: 2,
            domain: (-6.0, 6.0),
        }
    }
}

/// The outcome of [`MraContext::refine`] on one box: its filtered
/// coefficients in rank-1 form and whether refinement stops there.
#[derive(Debug, Clone, Copy)]
pub struct Refinement {
    k: usize,
    scale: f64,
    /// v_x, v_y, v_z; entries past k are zero.
    factors: [[f64; MAX_K]; 3],
    /// The detail norm between the box and its eight children.
    pub detail: f64,
    /// Whether the box is a leaf: past the initial level, and its
    /// detail within `eps` or at the maximum level.
    pub leaf: bool,
}

impl Refinement {
    /// The box's scaling coefficients, the filter of its children's:
    /// the one k³ tensor a refinement step builds, for a leaf.
    pub fn coefficients(&self) -> Tensor3 {
        let k = self.k;
        let [vx, vy, vz] = &self.factors;
        Tensor3::outer(self.scale, &vx[..k], &vy[..k], &vz[..k])
    }
}

/// Precomputed order-k machinery shared by all boxes/functions.
#[derive(Debug, Clone)]
pub struct MraContext {
    /// Parameters.
    pub params: MraParams,
    quad: GaussLegendre,
    /// Φᵀ[a][i] = w_a φ_i(x_a): the quadrature-to-coefficients matrix
    /// Φ, stored transposed.
    quad_phi_w_t: Matrix,
    twoscale: TwoScale,
    /// H⁰ᵀ and H¹ᵀ: what filtering applies H⁰ and H¹ with.
    h_t: [Matrix; 2],
}

impl MraContext {
    /// Builds the machinery for `params`; panics unless `params.k` is in
    /// 1..=[`MAX_K`], the orders the kernel is compiled for.
    pub fn new(params: MraParams) -> Self {
        let k = params.k;
        assert!(
            (1..=MAX_K).contains(&k),
            "k = {k}: the mode-product kernel supports 1..={MAX_K}"
        );
        let quad = GaussLegendre::new(k);
        let mut quad_phi_w_t = Matrix::zeros(k, k);
        for (a, (&x, &w)) in quad.points.iter().zip(&quad.weights).enumerate() {
            let phi = crate::basis::scaling_at(k, x);
            for (i, &p) in phi.iter().enumerate() {
                quad_phi_w_t.set(a, i, w * p);
            }
        }
        let twoscale = TwoScale::new(k);
        let h_t = [twoscale.h(0).transpose(), twoscale.h(1).transpose()];
        MraContext {
            params,
            quad,
            quad_phi_w_t,
            twoscale,
            h_t,
        }
    }

    /// The two-scale filters.
    pub fn twoscale(&self) -> &TwoScale {
        &self.twoscale
    }

    /// Maps a unit-cube coordinate to world coordinates.
    #[inline]
    pub fn to_world(&self, u: f64) -> f64 {
        let (lo, hi) = self.params.domain;
        lo + (hi - lo) * u
    }

    /// `u = Φᵀg`: the k scaling coefficients of `f`'s axis-`d` factor g
    /// on the unit-cube interval `[lo, lo + w)`, without the level's
    /// scale or `f`'s normalisation. k `exp`s and k² multiply-adds.
    fn axis_coefficients(&self, f: &Gaussian3, d: usize, lo: f64, w: f64) -> [f64; MAX_K] {
        let k = self.params.k;
        let mut u = [0.0; MAX_K];
        for (a, &p) in self.quad.points.iter().enumerate() {
            let g = f.axis(d, self.to_world(lo + p * w));
            for (i, ui) in u[..k].iter_mut().enumerate() {
                *ui += g * self.quad_phi_w_t.get(a, i);
            }
        }
        u
    }

    /// Projects `f` onto the scaling basis of `key`: `s[i,j,m] =
    /// 2^(−3n/2) Σ w³ f(x) φ_i φ_j φ_m`. `f` is separable, so `s` is the
    /// rank-1 tensor `c·2^(−3n/2)·u_x ⊗ u_y ⊗ u_z` with `u_d = Φᵀg_d`:
    /// 3k `exp`s instead of k³.
    pub fn project_box(&self, f: &Gaussian3, key: &BoxKey) -> Tensor3 {
        let k = self.params.k;
        let (lo, w) = key.bounds();
        let [ux, uy, uz] = std::array::from_fn(|d| self.axis_coefficients(f, d, lo[d], w));
        let scale = f.coeff * 2f64.powi(-3 * key.n as i32).sqrt();
        Tensor3::outer(scale, &ux[..k], &uy[..k], &uz[..k])
    }

    /// One refinement step of `key`: what projecting its eight children,
    /// filtering them and taking [`MraContext::detail_norm`] computes,
    /// done per axis. Child `c` is `K·u_{x,cx} ⊗ u_{y,cy} ⊗ u_{z,cz}`
    /// with `K = c_f·2^(−3(n+1)/2)`, so the filter is
    /// `K·v_x ⊗ v_y ⊗ v_z` with `v_d = Σ_h H^h u_{d,h}`, and
    /// `Σ‖child‖² = K²·Π_d(‖u_{d,0}‖² + ‖u_{d,1}‖²)`,
    /// `‖parent‖² = K²·Π_d‖v_d‖²`. 6k `exp`s and O(k²) arithmetic; the
    /// parent tensor is built only by [`Refinement::coefficients`].
    pub fn refine(&self, f: &Gaussian3, key: &BoxKey) -> Refinement {
        let k = self.params.k;
        let (lo, w) = key.bounds();
        let half = w / 2.0;
        let norm_sq = |v: &[f64]| v.iter().map(|x| x * x).sum::<f64>();
        let (mut child_sq, mut parent_sq) = (1.0, 1.0);
        let mut factors = [[0.0; MAX_K]; 3];
        for (d, v) in factors.iter_mut().enumerate() {
            let mut u_sq = 0.0;
            for h in 0..2 {
                let u = self.axis_coefficients(f, d, lo[d] + h as f64 * half, half);
                u_sq += norm_sq(&u[..k]);
                let filter = self.twoscale.h(h);
                for (j, vj) in v[..k].iter_mut().enumerate() {
                    *vj += (0..k).map(|i| filter.get(j, i) * u[i]).sum::<f64>();
                }
            }
            child_sq *= u_sq;
            parent_sq *= norm_sq(&v[..k]);
        }
        let scale = f.coeff * 2f64.powi(-3 * (key.n as i32 + 1)).sqrt();
        let detail = scale * (child_sq - parent_sq).max(0.0).sqrt();
        let forced = key.n < self.params.initial_level;
        Refinement {
            k,
            scale,
            factors,
            detail,
            leaf: !forced && (detail <= self.params.eps || key.n >= self.params.max_level),
        }
    }

    /// Gathers 8 children into the parent's scaling coefficients:
    /// `s_parent = Σ_c (H^cx ⊗ H^cy ⊗ H^cz) s_child[c]`, the children in
    /// octant order — sum-factorised, 14 single-mode passes.
    pub fn filter(&self, children: &[Tensor3; 8]) -> Tensor3 {
        Tensor3::sum_octants(children, [&self.h_t[0], &self.h_t[1]])
    }

    /// Every child's share of a parent's coefficients, in octant order:
    /// `unfilter_child(parent, c)` for c in 0..8 in 14 passes instead of
    /// 24.
    pub fn unfilter_all(&self, parent: &Tensor3) -> [Tensor3; 8] {
        parent.split_octants([self.twoscale.h(0), self.twoscale.h(1)])
    }

    /// Child `c`'s share of a parent's coefficients:
    /// s_child = (H^{cx} ⊗ H^{cy} ⊗ H^{cz})ᵀ s_parent — one mode product
    /// with the untransposed filters.
    pub fn unfilter_child(&self, parent: &Tensor3, c: usize) -> Tensor3 {
        let [hx, hy, hz] = [c & 1, (c >> 1) & 1, (c >> 2) & 1].map(|b| self.twoscale.h(b));
        parent.transform3(hx, hy, hz)
    }

    /// Inter-level detail norm: ‖d‖ = √(Σ‖s_child‖² − ‖s_parent‖²) —
    /// exact because the two-scale relation is orthonormal. The
    /// refinement criterion, which [`MraContext::refine`] evaluates in
    /// rank-1 form.
    pub fn detail_norm(&self, children: &[Tensor3; 8], parent: &Tensor3) -> f64 {
        let child_sq: f64 = children.iter().map(Tensor3::norm_sq).sum();
        (child_sq - parent.norm_sq()).max(0.0).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(k: usize) -> MraContext {
        MraContext::new(MraParams {
            k,
            eps: 1e-6,
            max_level: 10,
            initial_level: 0,
            domain: (0.0, 1.0),
        })
    }

    #[test]
    fn box_key_geometry() {
        let root = BoxKey::ROOT;
        let kids = root.children();
        assert_eq!(kids[0].l, [0, 0, 0]);
        assert_eq!(kids[1].l, [1, 0, 0]);
        assert_eq!(kids[6].l, [0, 1, 1]);
        for (c, kid) in kids.iter().enumerate() {
            assert_eq!(kid.parent(), Some(root));
            assert_eq!(kid.child_index(), c);
        }
        let (lo, w) = kids[7].bounds();
        assert_eq!(lo, [0.5, 0.5, 0.5]);
        assert_eq!(w, 0.5);
        assert_eq!(root.parent(), None);
    }

    #[test]
    fn filter_of_children_projections_matches_parent_projection() {
        // For a function exactly representable at the parent level (a
        // Gaussian is not, but smooth enough at coarse eps), filter of
        // the children's projections ≈ the parent's direct projection.
        let ctx = ctx(8);
        let g = Gaussian3::new([0.45, 0.55, 0.5], 6.0);
        let parent_direct = ctx.project_box(&g, &BoxKey::ROOT);
        let children: [Tensor3; 8] =
            std::array::from_fn(|c| ctx.project_box(&g, &BoxKey::ROOT.children()[c]));
        let parent_filtered = ctx.filter(&children);
        let diff = parent_direct.max_abs_diff(&parent_filtered);
        assert!(diff < 1e-4, "filter/projection mismatch: {diff}");
    }

    #[test]
    fn unfilter_inverts_filter_for_consistent_children() {
        // Take any parent tensor; unfilter to children; filtering those
        // children must reproduce the parent exactly (orthonormality).
        let ctx = ctx(6);
        let mut parent = Tensor3::zeros(6);
        for (i, v) in parent.data_mut().iter_mut().enumerate() {
            *v = ((i * 31 % 17) as f64) / 17.0 - 0.5;
        }
        let children: [Tensor3; 8] = std::array::from_fn(|c| ctx.unfilter_child(&parent, c));
        let roundtrip = ctx.filter(&children);
        assert!(
            roundtrip.max_abs_diff(&parent) < 1e-12,
            "filter∘unfilter ≠ id: {}",
            roundtrip.max_abs_diff(&parent)
        );
        // And the detail norm of a pure-coarse configuration is ~0.
        assert!(ctx.detail_norm(&children, &roundtrip) < 1e-6);
    }

    #[test]
    fn projection_of_polynomial_is_exact_and_detail_free() {
        // f(x,y,z) = x·y·z is degree (1,1,1): exactly representable at
        // any level with k ≥ 2 — so the detail norm must vanish. Use a
        // Gaussian in the flat limit? No: construct via closure is not
        // possible with Gaussian3; instead use a very flat Gaussian and
        // loose bound.
        let ctx = ctx(10);
        let g = Gaussian3::new([0.5; 3], 0.01); // nearly constant on [0,1]³
        let children: [Tensor3; 8] =
            std::array::from_fn(|c| ctx.project_box(&g, &BoxKey::ROOT.children()[c]));
        let parent = ctx.filter(&children);
        let d = ctx.detail_norm(&children, &parent);
        assert!(d < 1e-7, "flat function has detail {d}");
    }

    #[test]
    fn norm_telescopes_across_levels() {
        // Σ‖child‖² = ‖parent‖² + ‖d‖² with the residual definition.
        let ctx = ctx(6);
        let g = Gaussian3::new([0.3, 0.6, 0.5], 25.0);
        let children: [Tensor3; 8] =
            std::array::from_fn(|c| ctx.project_box(&g, &BoxKey::ROOT.children()[c]));
        let parent = ctx.filter(&children);
        let mut resid_sq = 0.0;
        for (c, child) in children.iter().enumerate() {
            let mut r = child.clone();
            r.sub_assign(&ctx.unfilter_child(&parent, c));
            resid_sq += r.norm_sq();
        }
        let lhs: f64 = children.iter().map(Tensor3::norm_sq).sum();
        let rhs = parent.norm_sq() + resid_sq;
        assert!(
            (lhs - rhs).abs() < 1e-10 * lhs.max(1.0),
            "telescoping failed: {lhs} vs {rhs}"
        );
        // detail_norm agrees with the residual norm.
        let d = ctx.detail_norm(&children, &parent);
        assert!((d * d - resid_sq).abs() < 1e-10 * resid_sq.max(1e-30));
    }

    #[test]
    fn projection_converges_with_depth() {
        // The L2 norm captured by one refinement level increases toward
        // ‖f‖ (=1 for normalized Gaussians over an enclosing domain).
        let ctx = MraContext::new(MraParams {
            k: 10,
            eps: 1e-6,
            max_level: 10,
            initial_level: 0,
            domain: (-3.0, 3.0),
        });
        let g = Gaussian3::new([0.1, -0.2, 0.3], 8.0);
        // Level-n norm²: sum over all boxes at level n. Volume scaling:
        // coefficients are w.r.t. the unit cube, so ‖f‖² in coefficient
        // space is ‖f‖²_world / V with V = 6³.
        let vol = 6f64.powi(3);
        let mut norms = Vec::new();
        for n in [1u8, 2, 3] {
            let mut total = 0.0;
            let side = 1u32 << n;
            for x in 0..side {
                for y in 0..side {
                    for z in 0..side {
                        let key = BoxKey { n, l: [x, y, z] };
                        total += ctx.project_box(&g, &key).norm_sq();
                    }
                }
            }
            norms.push(total * vol);
        }
        // Monotone capture (up to quadrature error at coarse levels,
        // which can overshoot slightly).
        assert!(
            norms[0] <= norms[1] + 1e-4 && norms[1] <= norms[2] + 1e-4,
            "norms not increasing: {norms:?}"
        );
        assert!(
            (norms[2] - 1.0).abs() < 0.05,
            "level-3 norm² = {} (want ≈ 1)",
            norms[2]
        );
    }
}
