//! The allocation half of the MRA kernels' cost, gated in tier-1: a
//! kernel entry allocates its results and nothing else — the passes'
//! intermediates live on the stack, and a refinement step's result is
//! three k-vectors on the stack until a leaf asks for its tensor — and
//! a whole `MraTtg::run` stays under a per-box bound. Counts are
//! machine-independent, so the kernel checks are equalities.

use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use ttg_mra::tensor::MAX_K;
use ttg_mra::tree::{BoxKey, MraContext, MraParams};
use ttg_mra::{Gaussian3, MraTtg, Tensor3};
use ttg_runtime::{Runtime, RuntimeConfig};

/// Counts allocations (reallocations included) while armed: those of
/// every thread, or those of the thread that armed it alone.
struct Counting;

static ARMED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static ARMED_HERE: Cell<bool> = const { Cell::new(false) };
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counter touches no allocator state,
// and the const-initialised thread-local neither allocates nor drops.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) || ARMED_HERE.try_with(Cell::get).unwrap_or(false) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: forwarded caller contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded caller contract; `ptr` came from `alloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The counter is process-wide: tests take turns whole, so that none
/// of one test's allocations land in another's armed window.
static TURN: Mutex<()> = Mutex::new(());

fn turn() -> MutexGuard<'static, ()> {
    TURN.lock().unwrap_or_else(|e| e.into_inner())
}

/// Runs `f` and returns its result with the allocations made meanwhile
/// by the calling thread alone (the test harness's own threads allocate
/// when another test ends), or by every thread when `f` hands work to
/// others.
fn counted<T>(all_threads: bool, f: impl FnOnce() -> T) -> (T, u64) {
    ALLOCS.store(0, Ordering::Relaxed);
    ARMED.store(all_threads, Ordering::Relaxed);
    ARMED_HERE.set(!all_threads);
    let out = f();
    ARMED_HERE.set(false);
    ARMED.store(false, Ordering::Relaxed);
    (out, ALLOCS.load(Ordering::Relaxed))
}

/// The `mra` benchmark's numerical setting.
fn params(k: usize) -> MraParams {
    MraParams {
        k,
        eps: 1e-5,
        max_level: 8,
        initial_level: 1,
        domain: (-6.0, 6.0),
    }
}

#[test]
fn each_kernel_call_allocates_only_its_result() {
    let _turn = turn();
    let f = Gaussian3::new([0.3, -0.2, 0.1], 100.0);
    let key = BoxKey { n: 2, l: [1, 2, 3] };
    for k in 1..=MAX_K {
        let ctx = MraContext::new(params(k));
        let children: [Tensor3; 8] =
            std::array::from_fn(|c| ctx.project_box(&f, &key.children()[c]));
        let (step, refine) = counted(false, || ctx.refine(&f, &key));
        let (_, leaf) = counted(false, || step.coefficients());
        let (_, project) = counted(false, || ctx.project_box(&f, &key));
        let (parent, filter) = counted(false, || ctx.filter(&children));
        let (_, unfilter) = counted(false, || ctx.unfilter_child(&parent, 5));
        let (_, unfilter_all) = counted(false, || ctx.unfilter_all(&parent));
        assert_eq!(
            [refine, leaf, project, filter, unfilter, unfilter_all],
            [0, 1, 1, 1, 1, 8],
            "k = {k}: allocations of refine, its coefficients, project_box, \
             filter, unfilter_child, unfilter_all"
        );
    }
}

/// Allocations per projected box of the first run on a fresh runtime,
/// the filling of its pools included. It reads 7.39 (46 254 for 6 260
/// boxes); it read 15.5 while every Project task built its eight
/// children's tensors and the parent whether or not the box was a leaf,
/// and 68.3 while each kernel call allocated temporary buffers and
/// Compress and Reconstruct cloned what they could move.
const PER_BOX: f64 = 7.6;

#[test]
fn a_pipeline_run_stays_under_its_per_box_bound() {
    let _turn = turn();
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    let funcs = Gaussian3::random_set(60, -6.0, 6.0, 100.0, &mut rng);
    let runtime = Arc::new(Runtime::new(RuntimeConfig::optimized(1)));
    let pipeline = MraTtg::new(Arc::new(MraContext::new(params(6))));
    let (out, allocs) = counted(true, || pipeline.run(&runtime, &funcs));
    let boxes = out.stats.boxes_projected;
    let per_box = allocs as f64 / boxes as f64;
    eprintln!("{allocs} allocations for {boxes} projected boxes: {per_box:.1} per box");
    assert_eq!(out.stats.leaves, out.stats.reconstructed);
    assert!(
        per_box <= PER_BOX,
        "{per_box:.1} allocations per projected box"
    );
}
