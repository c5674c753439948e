//! Property tests on the MRA machinery: octree geometry, two-scale
//! orthonormality consequences, and pipeline invariants for random
//! Gaussians.

use proptest::prelude::*;
use ttg_mra::tree::{BoxKey, MraContext, MraParams};
use ttg_mra::{Gaussian3, Tensor3};

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
        use ttg_mra::Matrix;
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
