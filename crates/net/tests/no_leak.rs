//! A group is a tree, not a cycle: dropping it joins every thread it
//! started. Its own process, so no other test's threads come and go
//! while the entries are counted.

#![cfg(target_os = "linux")]

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use ttg_net::NetGroup;
use ttg_runtime::RuntimeConfig;

fn threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs")
        .count()
}

/// `join` returns once the kernel has cleared the thread's id, a moment
/// before its `/proc` entry goes: a joined thread is given that moment,
/// a leaked one the whole watchdog.
fn threads_settle_to(want: usize) -> bool {
    let watchdog = Instant::now() + Duration::from_secs(10);
    while threads() != want {
        if Instant::now() > watchdog {
            return false;
        }
        std::thread::yield_now();
    }
    true
}

#[test]
fn a_hundred_dropped_meshes_leave_no_thread() {
    let before = threads();
    for mesh in 0..100u64 {
        let group = NetGroup::local(2, |_| RuntimeConfig::optimized(1));
        assert_eq!(threads(), before + 2, "mesh {mesh}: one worker a rank");
        let sum = Arc::new(AtomicU64::new(0));
        for rank in 0..2 {
            let sum = Arc::clone(&sum);
            group.runtime(rank).register_handler(move |ctx, payload| {
                sum.fetch_add(payload[0] as u64, Ordering::Relaxed);
                if ctx.rank() == 1 {
                    ctx.send_msg(0, 0, 0, payload); // and back
                }
            });
        }
        group.runtime(0).send_msg(1, 0, 0, vec![3]);
        group.try_wait().expect("clean epoch");
        assert_eq!(sum.load(Ordering::Relaxed), 6);
        drop(group);
        assert!(threads_settle_to(before), "mesh {mesh} left threads behind");
    }
}
