//! The engine owns no thread: requests run to completion on the
//! submitting thread and the runtime's workers. Its own process, so no
//! other test's threads come and go while the entries are counted.

#![cfg(target_os = "linux")]

use std::sync::Arc;
use ttg_runtime::{Runtime, RuntimeConfig};
use ttg_serve::{ServeConfig, ServeEngine};

fn threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs")
        .count()
}

#[test]
fn creating_an_engine_spawns_no_thread() {
    let rt = Arc::new(Runtime::new(RuntimeConfig::optimized(2)));
    let before = threads();
    let engine = ServeEngine::new(Arc::clone(&rt), ServeConfig::default());
    assert_eq!(threads(), before);
    drop(engine);
    assert_eq!(threads(), before);
}
