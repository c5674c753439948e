//! Who keeps a shell's memory alive now that the pool it came from
//! belongs to the runtime, not to the request's TT (`ttg-mempool`,
//! module docs): a request's shells retire into a pool that outlives
//! the request, and the pool goes — its `live() == 0` check with it —
//! when the runtime does.

use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::Duration;
use ttg_core::{Edge, GraphTemplate};
use ttg_runtime::{Runtime, RuntimeConfig};
use ttg_serve::{InstanceStatus, ServeConfig, ServeEngine};

const PAIRS: u64 = 8;

/// Runs `body` on its own thread and fails the test if it has not
/// returned within 30 s.
fn with_watchdog(body: impl FnOnce() + Send + 'static) {
    let (done, finished) = mpsc::channel();
    let runner = std::thread::spawn(move || {
        body();
        let _ = done.send(());
    });
    match finished.recv_timeout(Duration::from_secs(30)) {
        Err(mpsc::RecvTimeoutError::Timeout) => panic!("watchdog: hung for 30 s"),
        // Finished, or disconnected because the body panicked.
        _ => runner.join().expect("test body panicked"),
    }
}

/// `PAIRS` × `stage` k → `collect` k, which records `(k, 2k + 1)`. Every
/// `stage` first takes a token from `gate`: none runs before the test
/// hands one out.
fn gated_pipeline(gate: mpsc::Receiver<()>, seen: Arc<Mutex<Vec<(u64, u64)>>>) -> GraphTemplate {
    let gate = Arc::new(Mutex::new(gate));
    GraphTemplate::compile("gated", move |graph, _ctx| {
        let edge: Edge<u64, u64> = Edge::new("values");
        let gate = Arc::clone(&gate);
        let stage = graph
            .tt::<u64>("stage")
            .output(&edge)
            .build(move |k, _in, out| {
                gate.lock()
                    .unwrap()
                    .recv()
                    .expect("the test holds the sender");
                out.send(0, *k, *k * 2 + 1);
            });
        let seen = Arc::clone(&seen);
        let _collect =
            graph
                .tt::<u64>("collect")
                .input::<u64>(&edge)
                .build(move |k, inputs, _out| {
                    seen.lock().unwrap().push((*k, *inputs.get::<u64>(0)));
                });
        Box::new(move || (0..PAIRS).for_each(|k| stage.invoke(k)))
    })
    .expect("valid template")
}

/// `shutdown` at its deadline abandons an instance whose first task is
/// running and whose other shells sit in the queue, the engine goes and
/// the test's handle on the runtime goes. The stragglers must still
/// run, on shells nobody freed, and nothing may panic: the abandoned
/// (leaked) TTs hold the runtime, and the runtime the pool.
#[test]
fn stragglers_of_an_abandoned_instance_keep_their_shells() {
    with_watchdog(|| {
        let (tokens, gate) = mpsc::channel();
        let seen = Arc::new(Mutex::new(Vec::new()));
        let rt = Arc::new(Runtime::new(RuntimeConfig::optimized(1)));
        let alive = Arc::downgrade(&rt);
        let engine = ServeEngine::new(Arc::clone(&rt), ServeConfig::default());
        engine.register_template(gated_pipeline(gate, Arc::clone(&seen)));
        let id = engine
            .submit("tenant", "gated", serde_json::Value::Null)
            .expect("admitted");
        let report = engine.shutdown(Duration::ZERO);
        assert_eq!(report.abandoned, [id]);
        drop(engine);
        drop(rt);
        assert!(
            alive.upgrade().is_some(),
            "the abandoned instance keeps the runtime, and its pools, alive"
        );
        (0..PAIRS).for_each(|_| tokens.send(()).expect("a stage holds the gate"));
        while seen.lock().unwrap().len() < PAIRS as usize {
            std::thread::yield_now();
        }
        let mut seen = seen.lock().unwrap().clone();
        seen.sort_unstable();
        let all: Vec<(u64, u64)> = (0..PAIRS).map(|k| (k, 2 * k + 1)).collect();
        assert_eq!(seen, all);
    });
}

/// The ordinary end: every instance finished, engine and runtime are
/// dropped, and the runtime really goes — on this thread, so that the
/// `FreeListPool` drop check (no shell still out) runs here and a
/// failure of it fails the test.
#[test]
fn the_pools_go_with_the_runtime_and_find_no_shell_out() {
    with_watchdog(|| {
        let (tokens, gate) = mpsc::channel();
        let seen = Arc::new(Mutex::new(Vec::new()));
        let rt = Arc::new(Runtime::new(RuntimeConfig::optimized(2)));
        let alive = Arc::downgrade(&rt);
        let engine = ServeEngine::new(Arc::clone(&rt), ServeConfig::default());
        engine.register_template(gated_pipeline(gate, Arc::clone(&seen)));
        for _ in 0..100 {
            (0..PAIRS).for_each(|_| tokens.send(()).expect("the template holds the gate"));
            let id = engine
                .submit("tenant", "gated", serde_json::Value::Null)
                .expect("admitted");
            let view = engine
                .wait_result(id, Duration::from_secs(30))
                .expect("finished");
            assert_eq!(view.status, InstanceStatus::Completed);
        }
        assert!(engine.shutdown(Duration::from_secs(30)).drained);
        drop(engine);
        drop(rt);
        assert!(alive.upgrade().is_none(), "someone still holds the runtime");
        assert_eq!(seen.lock().unwrap().len(), 100 * PAIRS as usize);
    });
}
