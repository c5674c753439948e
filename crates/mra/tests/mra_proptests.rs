//! Property tests on the MRA machinery: octree geometry, two-scale
//! orthonormality consequences, and pipeline invariants for random
//! Gaussians.

use proptest::prelude::*;
use ttg_mra::basis::scaling_at;
use ttg_mra::quadrature::GaussLegendre;
use ttg_mra::tensor::MAX_K;
use ttg_mra::tree::{BoxKey, MraContext, MraParams};
use ttg_mra::{Gaussian3, Matrix, Tensor3};

fn ctx(k: usize) -> MraContext {
    MraContext::new(MraParams {
        k,
        eps: 1e-4,
        max_level: 6,
        initial_level: 0,
        domain: (-1.0, 1.0),
    })
}

fn random_tensor(k: usize, seed: u64) -> Tensor3 {
    let mut t = Tensor3::zeros(k);
    let mut z = seed.wrapping_add(1);
    for v in t.data_mut() {
        z = z
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        *v = ((z >> 33) as f64) / (1u64 << 31) as f64 - 1.0;
    }
    t
}

/// A k×k matrix of entries in [−1, 1) drawn from `seed`: almost surely
/// not symmetric, and distinct for distinct seeds.
fn random_matrix(k: usize, seed: u64) -> Matrix {
    let entries = random_tensor(k, seed);
    Matrix::from_fn(k, k, |r, c| entries.get(r, c, 0))
}

/// `out[a,b,c] = Σ m0[a,i]·m1[b,j]·m2[l,c]·t[i,j,l]`, term by term:
/// O(k⁶), no mode order and no transposition to get wrong.
fn naive_contraction(t: &Tensor3, m0: &Matrix, m1: &Matrix, m2: &Matrix) -> Tensor3 {
    let k = t.k();
    let mut out = Tensor3::zeros(k);
    for a in 0..k {
        for b in 0..k {
            for c in 0..k {
                let mut acc = 0.0;
                for i in 0..k {
                    for j in 0..k {
                        let w = m0.get(a, i) * m1.get(b, j);
                        for l in 0..k {
                            acc += w * m2.get(c, l) * t.get(i, j, l);
                        }
                    }
                }
                out.set(a, b, c, acc);
            }
        }
    }
    out
}

/// The triple-pass loop the register-blocked kernel replaced, kept as
/// the oracle of its summation order: `out[a,b,c] = Σ m0[a,i]·m1[b,j]·
/// m2[c,l]·t[i,j,l]`, each pass contracting the first mode with
/// stride-k writes and rotating it to the back.
fn triple_pass_oracle(t: &Tensor3, m0: &Matrix, m1: &Matrix, m2: &Matrix) -> Tensor3 {
    let k = t.k();
    let mut src = t.data().to_vec();
    let mut dst = vec![0.0; k * k * k];
    for m in [m0, m1, m2] {
        dst.iter_mut().for_each(|v| *v = 0.0);
        for i in 0..k {
            for a in 0..k {
                let w = m.get(a, i);
                if w == 0.0 {
                    continue;
                }
                let src_plane = &src[i * k * k..(i + 1) * k * k];
                for jm in 0..k * k {
                    dst[jm * k + a] += w * src_plane[jm];
                }
            }
        }
        std::mem::swap(&mut src, &mut dst);
    }
    let mut out = Tensor3::zeros(k);
    out.data_mut().copy_from_slice(&src);
    out
}

/// The projection by definition: f sampled at all k³ quadrature points
/// of the box, Φ applied by the oracle, then the level's scale. The
/// library computes the same coefficients in rank-1 form.
fn project_box_oracle(ctx: &MraContext, f: &Gaussian3, key: &BoxKey) -> Tensor3 {
    let k = ctx.params.k;
    let quad = GaussLegendre::new(k);
    let mut phi = Matrix::zeros(k, k);
    for (a, (&x, &w)) in quad.points.iter().zip(&quad.weights).enumerate() {
        for (i, p) in scaling_at(k, x).into_iter().enumerate() {
            phi.set(i, a, w * p);
        }
    }
    let (lo, w) = key.bounds();
    let mut values = Tensor3::zeros(k);
    for a in 0..k {
        for b in 0..k {
            for c in 0..k {
                let [x, y, z] =
                    [(0, a), (1, b), (2, c)].map(|(d, q)| ctx.to_world(lo[d] + quad.points[q] * w));
                values.set(a, b, c, f.eval(x, y, z));
            }
        }
    }
    let mut s = triple_pass_oracle(&values, &phi, &phi, &phi);
    s.scale(2f64.powi(-3 * key.n as i32).sqrt());
    s
}

/// The filters of octant `c`: H^cx, H^cy, H^cz.
fn octant_filters(ctx: &MraContext, c: usize) -> [&Matrix; 3] {
    [c & 1, (c >> 1) & 1, (c >> 2) & 1].map(|b| ctx.twoscale().h(b))
}

/// |got − want| within `tol` of the largest |want| (or of 1, if smaller).
fn assert_close(got: &Tensor3, want: &Tensor3, tol: f64, what: std::fmt::Arguments<'_>) {
    let scale = want.data().iter().fold(1f64, |m, v| m.max(v.abs()));
    let diff = got.max_abs_diff(want);
    assert!(
        diff <= tol * scale,
        "{what}: off by {diff:e} (scale {scale:e})"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// parent/children/child_index are mutually consistent for random
    /// keys.
    #[test]
    fn boxkey_geometry_roundtrips(n in 0u8..12, seed in any::<u32>()) {
        let side = 1u32 << n;
        let key = BoxKey {
            n,
            l: [seed % side, (seed / 7) % side, (seed / 49) % side],
        };
        for (c, child) in key.children().into_iter().enumerate() {
            prop_assert_eq!(child.parent(), Some(key));
            prop_assert_eq!(child.child_index(), c);
            let ((plo, pw), ((clo, cw), _)) = (key.bounds(), (child.bounds(), 0));
            prop_assert!((cw - pw / 2.0).abs() < 1e-15);
            for d in 0..3 {
                prop_assert!(clo[d] >= plo[d] - 1e-15);
                prop_assert!(clo[d] + cw <= plo[d] + pw + 1e-12);
            }
        }
    }

    /// filter ∘ unfilter = identity and the norm telescopes, for random
    /// parent tensors (not just projections).
    #[test]
    fn filter_unfilter_identity_random(seed in any::<u64>(), k in 3usize..8) {
        let ctx = ctx(k);
        let parent = random_tensor(k, seed);
        let children: [Tensor3; 8] =
            std::array::from_fn(|c| ctx.unfilter_child(&parent, c));
        let roundtrip = ctx.filter(&children);
        prop_assert!(roundtrip.max_abs_diff(&parent) < 1e-11);
        // Energy is preserved: Σ‖child‖² == ‖parent‖² for pure-coarse data.
        let child_sq: f64 = children.iter().map(Tensor3::norm_sq).sum();
        prop_assert!((child_sq - parent.norm_sq()).abs() < 1e-10 * parent.norm_sq().max(1e-12));
    }

    /// Random children: compression residuals satisfy the Pythagorean
    /// identity Σ‖c‖² = ‖parent‖² + Σ‖r‖².
    #[test]
    fn compression_energy_identity_random(seed in any::<u64>(), k in 3usize..7) {
        let ctx = ctx(k);
        let children: [Tensor3; 8] =
            std::array::from_fn(|c| random_tensor(k, seed.wrapping_add(c as u64 * 977)));
        let parent = ctx.filter(&children);
        let mut resid_sq = 0.0;
        for (c, child) in children.iter().enumerate() {
            let mut r = child.clone();
            r.sub_assign(&ctx.unfilter_child(&parent, c));
            resid_sq += r.norm_sq();
        }
        let lhs: f64 = children.iter().map(Tensor3::norm_sq).sum();
        let rhs = parent.norm_sq() + resid_sq;
        prop_assert!((lhs - rhs).abs() < 1e-9 * lhs.max(1.0), "{lhs} vs {rhs}");
    }

    /// End-to-end: for random (tame) Gaussians, serial reconstruction
    /// reproduces the projected leaves and the leaf boxes tile the
    /// domain.
    #[test]
    fn serial_pipeline_invariants(
        cx in -0.5f64..0.5, cy in -0.5f64..0.5, cz in -0.5f64..0.5,
        expnt in 5.0f64..60.0,
    ) {
        let ctx = ctx(5);
        let g = Gaussian3::new([cx, cy, cz], expnt);
        let r = ttg_mra::serial::run(&ctx, &g);
        // Tiling: leaf volumes sum to the unit cube.
        let vol: f64 = r.leaves.keys().map(|k| 8f64.powi(-(k.n as i32))).sum();
        prop_assert!((vol - 1.0).abs() < 1e-12);
        // Exact reconstruction.
        for (key, orig) in &r.leaves {
            let rec = &r.reconstructed[key];
            prop_assert!(orig.max_abs_diff(rec) < 1e-10);
        }
    }

    /// transform3 with identity matrices is the identity, and composing
    /// a transform with its transpose of an orthogonal matrix restores
    /// the input.
    #[test]
    fn transform3_identity(seed in any::<u64>(), k in 2usize..7) {
        let t = random_tensor(k, seed);
        let id = Matrix::from_fn(k, k, |r, c| if r == c { 1.0 } else { 0.0 });
        prop_assert!(t.transform3(&id, &id, &id).max_abs_diff(&t) < 1e-13);
        // Givens rotation in the (0,1) plane is orthogonal.
        let (s, c) = (0.28f64.sin(), 0.28f64.cos());
        let rot = Matrix::from_fn(k, k, |r, col| match (r, col) {
            (0, 0) => c, (0, 1) => -s,
            (1, 0) => s, (1, 1) => c,
            (a, b) if a == b => 1.0,
            _ => 0.0,
        });
        let back = t.transform3(&rot, &rot, &rot)
            .transform3(&rot.transpose(), &rot.transpose(), &rot.transpose());
        prop_assert!(back.max_abs_diff(&t) < 1e-11);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Every k the kernel is compiled for, three distinct non-symmetric
    /// mode matrices: `transform3` (which takes each matrix transposed)
    /// is the term-by-term contraction. Identity, rotation or
    /// orthonormal filters cannot tell a correct kernel from one that
    /// applies the modes' matrices in the wrong order, or one that
    /// transposes them consistently in both directions.
    fn transform3_matches_naive_contraction_for_every_k(seed in any::<u64>()) {
        for k in 1..=MAX_K {
            let t = random_tensor(k, seed);
            let [m0, m1, m2] = [1u64, 2, 3].map(|d| random_matrix(k, seed ^ (d << 56)));
            if k > 1 {
                assert!(m0 != m0.transpose() && m0 != m1 && m1 != m2);
            }
            let got = t.transform3(&m0.transpose(), &m1.transpose(), &m2.transpose());
            let want = naive_contraction(&t, &m0, &m1, &m2);
            assert_close(&got, &want, 1e-12, format_args!("k = {k}"));
        }
    }

    /// `project_box`, `filter` and `unfilter_child` agree with the
    /// triple-pass loop they replaced, at every k.
    fn kernels_match_the_triple_pass_oracle(
        seed in any::<u64>(),
        cx in -1.0f64..1.0, cy in -1.0f64..1.0, cz in -1.0f64..1.0,
        expnt in 1.0f64..200.0,
        n in 0u8..4,
    ) {
        let f = Gaussian3::new([cx, cy, cz], expnt);
        let side = 1u32 << n;
        let key = BoxKey { n, l: [0, 8, 16].map(|shift| (seed >> shift) as u32 % side) };
        for k in 1..=MAX_K {
            let ctx = ctx(k);
            let projected = ctx.project_box(&f, &key);
            assert_close(&projected, &project_box_oracle(&ctx, &f, &key), 1e-13,
                format_args!("project_box, k = {k}"));

            let children: [Tensor3; 8] =
                std::array::from_fn(|c| random_tensor(k, seed.wrapping_add(c as u64 * 977)));
            let mut want = Tensor3::zeros(k);
            for (c, child) in children.iter().enumerate() {
                let [hx, hy, hz] = octant_filters(&ctx, c);
                want.add_assign(&triple_pass_oracle(child, hx, hy, hz));
            }
            let parent = ctx.filter(&children);
            assert_close(&parent, &want, 1e-13, format_args!("filter, k = {k}"));

            for c in 0..8 {
                let [hx, hy, hz] = octant_filters(&ctx, c).map(Matrix::transpose);
                assert_close(&ctx.unfilter_child(&parent, c),
                    &triple_pass_oracle(&parent, &hx, &hy, &hz), 1e-13,
                    format_args!("unfilter_child {c}, k = {k}"));
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `refine` is the k³-point projection of the box's eight children
    /// (the oracle samples f at every quadrature point) followed by the
    /// triple-pass filter and `detail_norm`; and `unfilter_all` is eight
    /// `unfilter_child` calls. The detail norm is a difference of two
    /// nearly equal sums of squares in both forms, so it is compared
    /// relatively down to the cancellation floor 1e-7·√Σ‖child‖², and
    /// to 1e-150, below which the squares leave f64's normal range:
    /// under either floor neither form has significant digits.
    fn refine_matches_the_projected_children(
        seed in any::<u64>(),
        k in 1usize..MAX_K + 1,
        cx in -1.0f64..1.0, cy in -1.0f64..1.0, cz in -1.0f64..1.0,
        expnt in 1.0f64..200.0,
        n in 0u8..5,
    ) {
        let ctx = ctx(k);
        let f = Gaussian3::new([cx, cy, cz], expnt);
        let side = 1u32 << n;
        let key = BoxKey { n, l: [0, 8, 16].map(|shift| (seed >> shift) as u32 % side) };
        let children: [Tensor3; 8] =
            std::array::from_fn(|c| project_box_oracle(&ctx, &f, &key.children()[c]));
        let mut parent = Tensor3::zeros(k);
        for (c, child) in children.iter().enumerate() {
            let [hx, hy, hz] = octant_filters(&ctx, c);
            parent.add_assign(&triple_pass_oracle(child, hx, hy, hz));
        }
        let step = ctx.refine(&f, &key);
        assert_close(&step.coefficients(), &parent, 1e-13,
            format_args!("refine, k = {k}, {key:?}"));

        let want = ctx.detail_norm(&children, &parent);
        let child_sq: f64 = children.iter().map(Tensor3::norm_sq).sum();
        let tol = 1e-6 * want + 1e-7 * child_sq.sqrt() + 1e-150;
        prop_assert!((step.detail - want).abs() <= tol,
            "k = {}, {:?}: detail {:e}, oracle {:e}", k, key, step.detail, want);

        let random = random_tensor(k, seed);
        for (c, share) in ctx.unfilter_all(&random).iter().enumerate() {
            assert_close(share, &ctx.unfilter_child(&random, c), 1e-13,
                format_args!("unfilter_all octant {c}, k = {k}"));
        }
    }
}

#[test]
#[should_panic(expected = "supports 1..=16")]
fn context_rejects_k_beyond_the_kernel() {
    ctx(MAX_K + 1);
}

#[test]
fn distributed_mra_matches_serial() {
    // The full mini-app across 3 in-process ranks: projection tokens,
    // 8-way compression gathers, and reconstruction tensors all cross
    // rank boundaries as serialized active messages. Residuals are only
    // ever written and read on the box's owning rank (compress and
    // reconstruct share the keymap), so the shared store is rank-local
    // in effect.
    use std::sync::Arc;
    use ttg_mra::MraTtg;
    use ttg_net::NetGroup;
    use ttg_runtime::RuntimeConfig;

    let ctx = Arc::new(MraContext::new(MraParams {
        k: 5,
        eps: 1e-4,
        max_level: 5,
        initial_level: 1,
        domain: (-1.5, 1.5),
    }));
    let funcs = vec![
        Gaussian3::new([0.2, 0.0, -0.3], 30.0),
        Gaussian3::new([-0.4, 0.3, 0.1], 45.0),
    ];
    let group = NetGroup::local(3, |_| RuntimeConfig::optimized(1));
    let out = MraTtg::new(Arc::clone(&ctx)).run_distributed(&group, &funcs);
    assert_eq!(out.stats.leaves, out.stats.reconstructed);
    for (f, func) in funcs.iter().enumerate() {
        let serial = ttg_mra::serial::run(&ctx, func);
        assert_eq!(
            out.leaves
                .iter()
                .filter(|((fi, _), _)| *fi == f as u32)
                .count(),
            serial.leaves.len(),
            "function {f}: leaf count"
        );
        for (key, sv) in &serial.leaves {
            let tv = &out.leaves[&(f as u32, *key)];
            assert!(tv.max_abs_diff(sv) < 1e-10, "leaf {key:?} differs");
            let rv = &out.reconstructed[&(f as u32, *key)];
            assert!(rv.max_abs_diff(sv) < 1e-9, "recon {key:?} differs");
        }
    }
}
