//! The MRA pipeline as a template task graph.
//!
//! Three TTs over keys `(function, box)`:
//!
//! * **Project** — control-flow driven refinement: one
//!   [`MraContext::refine`] step (the box's 8 children projected and
//!   filtered per axis, 6k `exp`s), then either records a leaf (sending
//!   its coefficients up to the parent's Compress task) or sends
//!   refinement tokens to its children — the template graph's self-loop
//!   unfolds into the adaptive octree.
//! * **Compress** — an **aggregator terminal** gathering exactly 8 child
//!   contributions per box ("data flows up the tree"), producing the
//!   parent coefficients + per-child residuals, and feeding its own
//!   parent; at the root it seeds Reconstruct.
//! * **Reconstruct** — "flows data down the tree": one `unfilter_all`
//!   plus the residual per child, broadcasting along the self-loop;
//!   leaves record their recovered coefficients.
//!
//! Priorities follow depth (deeper boxes are hotter: they gate the
//! longest chains), exercising the LLP scheduler's priority support.

use crate::function::Gaussian3;
use crate::tensor::Tensor3;
use crate::tree::{BoxKey, MraContext};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use ttg_core::{AggCount, Edge, Graph, Tt};
use ttg_net::NetGroup;
use ttg_runtime::Runtime;

/// Task key: (function index, box).
type MKey = (u32, BoxKey);

/// A child's contribution flowing up to its parent's Compress task.
#[derive(Clone, serde::Serialize, serde::Deserialize)]
struct UpMsg {
    child: u8,
    s: Tensor3,
}

/// Shared result stores: one mutex per map, held only for an insert or
/// a remove, which is little beside the tensor math. A box's residuals
/// live from its Compress task until its Reconstruct task removes them.
struct Stores {
    leaves: Mutex<HashMap<MKey, Tensor3>>,
    residuals: Mutex<HashMap<MKey, Box<[Tensor3; 8]>>>,
    reconstructed: Mutex<HashMap<MKey, Tensor3>>,
    roots: Mutex<HashMap<u32, Tensor3>>,
    boxes_projected: AtomicUsize,
    internal_boxes: AtomicUsize,
}

impl Stores {
    fn fresh() -> Arc<Stores> {
        Arc::new(Stores {
            leaves: Mutex::new(HashMap::new()),
            residuals: Mutex::new(HashMap::new()),
            reconstructed: Mutex::new(HashMap::new()),
            roots: Mutex::new(HashMap::new()),
            boxes_projected: AtomicUsize::new(0),
            internal_boxes: AtomicUsize::new(0),
        })
    }
}

/// Statistics of one TTG MRA run.
#[derive(Debug, Clone, Default)]
pub struct MraRunStats {
    /// Refinement boxes whose children were projected.
    pub boxes_projected: usize,
    /// Total leaves across all functions.
    pub leaves: usize,
    /// Total internal (residual-carrying) boxes.
    pub internal_boxes: usize,
    /// Leaves recovered by reconstruction.
    pub reconstructed: usize,
}

/// Output of [`MraTtg::run`]: stats plus per-function results for
/// verification.
pub struct MraOutput {
    /// Run statistics.
    pub stats: MraRunStats,
    /// (function, box) → projected leaf coefficients.
    pub leaves: HashMap<MKey, Tensor3>,
    /// (function, box) → reconstructed leaf coefficients.
    pub reconstructed: HashMap<MKey, Tensor3>,
    /// function → root coefficients (absent if the root was a leaf).
    pub roots: HashMap<u32, Tensor3>,
}

/// The TTG implementation of the MRA mini-app.
pub struct MraTtg {
    ctx: Arc<MraContext>,
}

impl MraTtg {
    /// Creates a pipeline factory for the given MRA context.
    pub fn new(ctx: Arc<MraContext>) -> Self {
        MraTtg { ctx }
    }

    /// Computes the multiwavelet representation of every function in
    /// `funcs` concurrently on `runtime`, running projection,
    /// compression, and reconstruction to completion.
    pub fn run(&self, runtime: &Arc<Runtime>, funcs: &[Gaussian3]) -> MraOutput {
        let stores = Stores::fresh();
        let funcs: Arc<Vec<Gaussian3>> = Arc::new(funcs.to_vec());
        let graph = Graph::with_runtime(Arc::clone(runtime));
        let (project, _c, _r) = self.build_tts(&graph, &funcs, &stores, false);
        for f in 0..funcs.len() as u32 {
            project.deliver(0, (f, BoxKey::ROOT), 0u8);
        }
        graph.wait();
        Self::collect(&stores)
    }

    /// Distributed variant: builds the same three-TT pipeline on every
    /// rank of `group`, keymaps boxes across ranks (a deterministic hash
    /// of the (function, box) key), and runs to global termination —
    /// projection, 8-way compression gathers, and reconstruction all
    /// crossing process boundaries as serialized active messages.
    pub fn run_distributed(&self, group: &NetGroup, funcs: &[Gaussian3]) -> MraOutput {
        let stores = Stores::fresh();
        let funcs: Arc<Vec<Gaussian3>> = Arc::new(funcs.to_vec());
        let nprocs = group.nranks();
        let mut graphs = Vec::new();
        let (mut projects, mut compresses, mut reconstructs) = (Vec::new(), Vec::new(), Vec::new());
        for rank in 0..nprocs {
            let graph = Graph::with_runtime(group.runtime_arc(rank));
            let (p, c, r) = self.build_tts(&graph, &funcs, &stores, true);
            graphs.push(graph);
            projects.push(p);
            compresses.push(c);
            reconstructs.push(r);
        }
        let keymap = move |key: &MKey| -> usize {
            let (f, b) = key;
            let mut z = (*f as u64) << 48
                ^ (b.n as u64) << 40
                ^ (b.l[0] as u64) << 20
                ^ (b.l[1] as u64) << 10
                ^ b.l[2] as u64;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            (z % nprocs as u64) as usize
        };
        ttg_core::dist::link_distributed(&projects, keymap);
        ttg_core::dist::link_distributed(&compresses, keymap);
        ttg_core::dist::link_distributed(&reconstructs, keymap);
        for f in 0..funcs.len() as u32 {
            projects[0].deliver(0, (f, BoxKey::ROOT), 0u8);
        }
        group.wait();
        Self::collect(&stores)
    }

    /// Builds the Project/Compress/Reconstruct TTs on `graph`. With
    /// `remote` set, input terminals are declared remote-capable so the
    /// TTs can be linked across the ranks of a job.
    fn build_tts(
        &self,
        graph: &Graph,
        funcs: &Arc<Vec<Gaussian3>>,
        stores: &Arc<Stores>,
        remote: bool,
    ) -> (Tt<MKey>, Tt<MKey>, Tt<MKey>) {
        let ctx = Arc::clone(&self.ctx);
        let funcs = Arc::clone(funcs);
        let stores = Arc::clone(stores);

        let refine_edge: Edge<MKey, u8> = Edge::new("refine");
        let up_edge: Edge<MKey, UpMsg> = Edge::new("compress-up");
        let down_edge: Edge<MKey, Tensor3> = Edge::new("reconstruct-down");

        // ---- Project -----------------------------------------------------
        let (pctx, pfuncs, pstores) = (Arc::clone(&ctx), Arc::clone(&funcs), Arc::clone(&stores));
        let pb = graph.tt::<MKey>("project");
        let pb = if remote {
            pb.input_remote::<u8>(&refine_edge)
        } else {
            pb.input::<u8>(&refine_edge)
        };
        let project = pb
            .output(&refine_edge) // self-loop: refinement tokens
            .output(&up_edge) // leaf coefficients to parent Compress
            .output(&down_edge) // degenerate case: root is a leaf
            .priority(|k: &MKey| k.1.n as i32)
            .build(move |&(f, key), _inputs, out| {
                pstores.boxes_projected.fetch_add(1, Ordering::Relaxed);
                let step = pctx.refine(&pfuncs[f as usize], &key);
                if step.leaf {
                    let parent = step.coefficients();
                    pstores.leaves.lock().insert((f, key), parent.clone());
                    match key.parent() {
                        Some(pk) => out.send(
                            1,
                            (f, pk),
                            UpMsg {
                                child: key.child_index() as u8,
                                s: parent,
                            },
                        ),
                        None => {
                            // Whole function fits the root box: nothing to
                            // compress; reconstruct trivially.
                            out.send(2, (f, key), parent);
                        }
                    }
                } else {
                    for child in key.children() {
                        out.send(0, (f, child), 0u8);
                    }
                }
            });

        // ---- Compress ------------------------------------------------------
        let (cctx, cstores) = (Arc::clone(&ctx), Arc::clone(&stores));
        let cb = graph.tt::<MKey>("compress");
        let cb = if remote {
            cb.input_aggregator_remote::<UpMsg>(&up_edge, AggCount::Fixed(8))
        } else {
            cb.input_aggregator(&up_edge, AggCount::Fixed(8))
        };
        let compress = cb
            .output(&up_edge) // parent coefficients continue upward
            .output(&down_edge) // root seeds reconstruction
            .priority(|k: &MKey| k.1.n as i32)
            .build(move |&(f, key), inputs, out| {
                let mut slots: [Option<Tensor3>; 8] = Default::default();
                for copy in inputs.take_aggregate(0) {
                    let m = copy
                        .try_take::<UpMsg>()
                        .unwrap_or_else(|shared| shared.get::<UpMsg>().clone());
                    slots[m.child as usize] = Some(m.s);
                }
                let mut children = slots.map(|s| s.expect("missing child"));
                let parent = cctx.filter(&children);
                // Each child becomes its own residual.
                for (r, share) in children.iter_mut().zip(cctx.unfilter_all(&parent)) {
                    r.sub_assign(&share);
                }
                cstores.internal_boxes.fetch_add(1, Ordering::Relaxed);
                cstores
                    .residuals
                    .lock()
                    .insert((f, key), Box::new(children));
                match key.parent() {
                    Some(pk) => out.send(
                        0,
                        (f, pk),
                        UpMsg {
                            child: key.child_index() as u8,
                            s: parent,
                        },
                    ),
                    None => {
                        cstores.roots.lock().insert(f, parent.clone());
                        out.send(1, (f, key), parent);
                    }
                }
            });

        // ---- Reconstruct ---------------------------------------------------
        let (rctx, rstores) = (Arc::clone(&ctx), Arc::clone(&stores));
        let rb = graph.tt::<MKey>("reconstruct");
        let rb = if remote {
            rb.input_remote::<Tensor3>(&down_edge)
        } else {
            rb.input::<Tensor3>(&down_edge)
        };
        let reconstruct = rb
            .output(&down_edge) // self-loop down the tree
            .priority(|k: &MKey| k.1.n as i32)
            .build(move |&(f, key), inputs, out| {
                let s = inputs.take::<Tensor3>(0);
                let resid = rstores.residuals.lock().remove(&(f, key));
                match resid {
                    Some(resid) => {
                        let shares = rctx.unfilter_all(&s);
                        for ((child_key, mut sc), r) in
                            key.children().into_iter().zip(shares).zip(&*resid)
                        {
                            sc.add_assign(r);
                            out.send(0, (f, child_key), sc);
                        }
                    }
                    None => {
                        rstores.reconstructed.lock().insert((f, key), s);
                    }
                }
            });

        (project, compress, reconstruct)
    }

    /// Drains the shared stores into the run output.
    fn collect(stores: &Arc<Stores>) -> MraOutput {
        let leaves = std::mem::take(&mut *stores.leaves.lock());
        let reconstructed = std::mem::take(&mut *stores.reconstructed.lock());
        let roots = std::mem::take(&mut *stores.roots.lock());
        MraOutput {
            stats: MraRunStats {
                boxes_projected: stores.boxes_projected.load(Ordering::Relaxed),
                leaves: leaves.len(),
                internal_boxes: stores.internal_boxes.load(Ordering::Relaxed),
                reconstructed: reconstructed.len(),
            },
            leaves,
            reconstructed,
            roots,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::MraParams;
    use ttg_runtime::RuntimeConfig;

    fn small_ctx() -> Arc<MraContext> {
        Arc::new(MraContext::new(MraParams {
            k: 6,
            eps: 1e-5,
            max_level: 6,
            initial_level: 1,
            domain: (-2.0, 2.0),
        }))
    }

    #[test]
    fn ttg_pipeline_matches_serial_reference() {
        let ctx = small_ctx();
        let funcs = vec![
            Gaussian3::new([0.2, -0.1, 0.3], 60.0),
            Gaussian3::new([-0.5, 0.5, 0.0], 45.0),
        ];
        let runtime = Arc::new(Runtime::new(RuntimeConfig::optimized(2)));
        let out = MraTtg::new(Arc::clone(&ctx)).run(&runtime, &funcs);

        for (f, func) in funcs.iter().enumerate() {
            let serial = crate::serial::run(&ctx, func);
            // Same leaf set, same coefficients.
            let ttg_leaves: HashMap<BoxKey, &Tensor3> = out
                .leaves
                .iter()
                .filter(|((fi, _), _)| *fi == f as u32)
                .map(|((_, k), v)| (*k, v))
                .collect();
            assert_eq!(
                ttg_leaves.len(),
                serial.leaves.len(),
                "function {f}: leaf count differs"
            );
            for (key, sv) in &serial.leaves {
                let tv = ttg_leaves[key];
                assert!(tv.max_abs_diff(sv) < 1e-11, "leaf {key:?} differs");
            }
            // Reconstruction equals projection.
            for (key, sv) in &serial.leaves {
                let rv = out
                    .reconstructed
                    .get(&(f as u32, *key))
                    .unwrap_or_else(|| panic!("missing reconstructed {key:?}"));
                assert!(rv.max_abs_diff(sv) < 1e-10, "recon {key:?} differs");
            }
            // Root coefficients agree (when the tree is non-trivial).
            if !serial.residuals.is_empty() {
                let ttg_root = &out.roots[&(f as u32)];
                assert!(ttg_root.max_abs_diff(&serial.root) < 1e-10);
            }
        }
        assert_eq!(out.stats.leaves, out.stats.reconstructed);
    }

    #[test]
    fn root_leaf_degenerate_case() {
        let ctx = Arc::new(MraContext::new(MraParams {
            k: 8,
            eps: 1e-6,
            max_level: 6,
            initial_level: 0,
            domain: (-2.0, 2.0),
        }));
        let funcs = vec![Gaussian3::new([0.0; 3], 0.001)]; // flat: root leaf
        let runtime = Arc::new(Runtime::new(RuntimeConfig::optimized(1)));
        let out = MraTtg::new(ctx).run(&runtime, &funcs);
        assert_eq!(out.stats.leaves, 1);
        assert_eq!(out.stats.reconstructed, 1);
        assert_eq!(out.stats.internal_boxes, 0);
        assert!(out.reconstructed.contains_key(&(0, BoxKey::ROOT)));
    }

    #[test]
    fn many_functions_concurrently_original_runtime() {
        // The "original TTG" configuration must be just as correct.
        let ctx = small_ctx();
        let funcs: Vec<Gaussian3> = (0..6)
            .map(|i| Gaussian3::new([0.1 * i as f64 - 0.2, 0.05 * i as f64, -0.1], 50.0))
            .collect();
        let runtime = Arc::new(Runtime::new(RuntimeConfig::original(3)));
        let out = MraTtg::new(Arc::clone(&ctx)).run(&runtime, &funcs);
        assert_eq!(out.stats.leaves, out.stats.reconstructed);
        // Spot-check one function against serial.
        let serial = crate::serial::run(&ctx, &funcs[3]);
        for (key, sv) in &serial.leaves {
            let tv = &out.leaves[&(3, *key)];
            assert!(tv.max_abs_diff(sv) < 1e-11);
        }
    }
}
