//! Serial reference implementation of project → compress → reconstruct.
//!
//! The correctness oracle for the TTG pipeline: reconstruction must
//! reproduce the projected leaf coefficients (up to fp roundoff), and
//! the compressed representation's norms must telescope.

use crate::function::Gaussian3;
use crate::tensor::Tensor3;
use crate::tree::{BoxKey, MraContext};
use std::collections::HashMap;

/// Full output of a serial MRA run for one function.
#[derive(Debug)]
pub struct SerialMra {
    /// Leaf scaling coefficients produced by adaptive projection.
    pub leaves: HashMap<BoxKey, Tensor3>,
    /// Root scaling coefficients after compression.
    pub root: Tensor3,
    /// Per-internal-box child residual tensors (the "difference"
    /// information; see the crate docs for the substitution note).
    pub residuals: HashMap<BoxKey, Box<[Tensor3; 8]>>,
    /// Leaf coefficients recovered by reconstruction.
    pub reconstructed: HashMap<BoxKey, Tensor3>,
    /// Boxes whose children were projected during refinement.
    pub boxes_projected: usize,
    /// Deepest leaf level.
    pub depth: u8,
}

/// Adaptive projection: returns (leaf map, boxes projected, depth).
pub fn project(ctx: &MraContext, f: &Gaussian3) -> (HashMap<BoxKey, Tensor3>, usize, u8) {
    let mut leaves = HashMap::new();
    let mut stack = vec![BoxKey::ROOT];
    let mut boxes = 0usize;
    let mut depth = 0u8;
    while let Some(key) = stack.pop() {
        boxes += 1;
        let step = ctx.refine(f, &key);
        if step.leaf {
            depth = depth.max(key.n);
            leaves.insert(key, step.coefficients());
        } else {
            stack.extend_from_slice(&key.children());
        }
    }
    (leaves, boxes, depth)
}

/// Compression: leaves → (root coefficients, residual map).
pub fn compress(
    ctx: &MraContext,
    leaves: &HashMap<BoxKey, Tensor3>,
) -> (Tensor3, HashMap<BoxKey, Box<[Tensor3; 8]>>) {
    let mut residuals = HashMap::new();
    if let Some(root) = leaves.get(&BoxKey::ROOT) {
        return (root.clone(), residuals);
    }
    // Group nodes by level, deepest first.
    let mut by_level: HashMap<u8, HashMap<BoxKey, Tensor3>> = HashMap::new();
    let mut max_level = 0u8;
    for (k, v) in leaves {
        max_level = max_level.max(k.n);
        by_level.entry(k.n).or_default().insert(*k, v.clone());
    }
    for n in (1..=max_level).rev() {
        let level_nodes = match by_level.remove(&n) {
            Some(m) => m,
            None => continue,
        };
        // Partition into sibling groups (all 8 siblings exist by
        // construction of the refinement).
        let mut parents: HashMap<BoxKey, Vec<(usize, Tensor3)>> = HashMap::new();
        for (k, v) in level_nodes {
            parents
                .entry(k.parent().expect("non-root node"))
                .or_default()
                .push((k.child_index(), v));
        }
        for (pkey, mut kids) in parents {
            assert_eq!(kids.len(), 8, "incomplete sibling group at {pkey:?}");
            kids.sort_by_key(|(c, _)| *c);
            let children: [Tensor3; 8] = std::array::from_fn(|c| kids[c].1.clone());
            let parent = ctx.filter(&children);
            let mut resid = children;
            for (r, share) in resid.iter_mut().zip(ctx.unfilter_all(&parent)) {
                r.sub_assign(&share);
            }
            residuals.insert(pkey, Box::new(resid));
            by_level.entry(pkey.n).or_default().insert(pkey, parent);
        }
    }
    let root = by_level
        .remove(&0)
        .and_then(|mut m| m.remove(&BoxKey::ROOT))
        .expect("compression must reach the root");
    (root, residuals)
}

/// Reconstruction: (root, residuals) → leaf coefficients.
pub fn reconstruct(
    ctx: &MraContext,
    root: &Tensor3,
    residuals: &HashMap<BoxKey, Box<[Tensor3; 8]>>,
) -> HashMap<BoxKey, Tensor3> {
    let mut out = HashMap::new();
    let mut stack = vec![(BoxKey::ROOT, root.clone())];
    while let Some((key, s)) = stack.pop() {
        match residuals.get(&key) {
            Some(resid) => {
                let shares = ctx.unfilter_all(&s);
                for ((child_key, mut sc), r) in key.children().into_iter().zip(shares).zip(&**resid)
                {
                    sc.add_assign(r);
                    stack.push((child_key, sc));
                }
            }
            None => {
                out.insert(key, s);
            }
        }
    }
    out
}

/// Runs the full pipeline for one function.
pub fn run(ctx: &MraContext, f: &Gaussian3) -> SerialMra {
    let (leaves, boxes_projected, depth) = project(ctx, f);
    let (root, residuals) = compress(ctx, &leaves);
    let reconstructed = reconstruct(ctx, &root, &residuals);
    SerialMra {
        leaves,
        root,
        residuals,
        reconstructed,
        boxes_projected,
        depth,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::MraParams;

    fn ctx() -> MraContext {
        MraContext::new(MraParams {
            k: 6,
            eps: 1e-5,
            max_level: 8,
            initial_level: 1,
            domain: (-2.0, 2.0),
        })
    }

    #[test]
    fn projection_refines_a_sharp_gaussian() {
        let ctx = ctx();
        let g = Gaussian3::new([0.2, -0.1, 0.3], 60.0);
        let (leaves, boxes, depth) = project(&ctx, &g);
        assert!(depth >= 2, "sharp Gaussian should refine (depth {depth})");
        assert!(leaves.len() > 8);
        assert!(boxes >= leaves.len() / 8);
        // Leaf boxes tile the domain exactly: sum of volumes == 1.
        let vol: f64 = leaves.keys().map(|k| 8f64.powi(-(k.n as i32))).sum();
        assert!((vol - 1.0).abs() < 1e-12, "leaf volumes sum to {vol}");
    }

    #[test]
    fn reconstruction_is_exact_inverse_of_compression() {
        let ctx = ctx();
        let g = Gaussian3::new([-0.3, 0.4, 0.0], 40.0);
        let r = run(&ctx, &g);
        assert_eq!(r.leaves.len(), r.reconstructed.len());
        for (key, orig) in &r.leaves {
            let rec = r
                .reconstructed
                .get(key)
                .unwrap_or_else(|| panic!("missing leaf {key:?}"));
            let diff = orig.max_abs_diff(rec);
            assert!(diff < 1e-11, "leaf {key:?} differs by {diff}");
        }
    }

    #[test]
    fn compression_preserves_l2_norm() {
        let ctx = ctx();
        let g = Gaussian3::new([0.0, 0.0, 0.0], 30.0);
        let r = run(&ctx, &g);
        let leaf_sq: f64 = r.leaves.values().map(Tensor3::norm_sq).sum();
        let resid_sq: f64 = r
            .residuals
            .values()
            .flat_map(|b| b.iter())
            .map(Tensor3::norm_sq)
            .sum();
        let compressed_sq = r.root.norm_sq() + resid_sq;
        assert!(
            (leaf_sq - compressed_sq).abs() < 1e-10 * leaf_sq.max(1.0),
            "norm not preserved: {leaf_sq} vs {compressed_sq}"
        );
    }

    #[test]
    fn tighter_eps_refines_deeper() {
        let g = Gaussian3::new([0.1, 0.1, 0.1], 50.0);
        let loose = MraContext::new(MraParams {
            eps: 1e-3,
            ..ctx().params
        });
        let tight = MraContext::new(MraParams {
            eps: 1e-7,
            ..ctx().params
        });
        let (l1, _, d1) = project(&loose, &g);
        let (l2, _, d2) = project(&tight, &g);
        assert!(l2.len() > l1.len(), "{} vs {}", l2.len(), l1.len());
        assert!(d2 >= d1);
    }

    #[test]
    fn flat_function_stays_at_root() {
        let ctx = MraContext::new(MraParams {
            k: 8,
            eps: 1e-6,
            max_level: 8,
            initial_level: 0,
            domain: (-2.0, 2.0),
        });
        let g = Gaussian3::new([0.0; 3], 0.001);
        let r = run(&ctx, &g);
        assert_eq!(r.leaves.len(), 1, "flat function should not refine");
        assert!(r.leaves.contains_key(&BoxKey::ROOT));
        assert!(r.residuals.is_empty());
    }
}
