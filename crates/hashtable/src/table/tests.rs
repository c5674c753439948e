use super::*;
use crate::lock::LockKind;
use std::sync::Arc;

fn small_opts(lock: LockKind) -> HashTableOptions {
    HashTableOptions {
        initial_bits: 1, // 2 buckets: force early resizes
        max_collisions: 4,
        lock,
        bravo_slots: 64,
    }
}

#[test]
fn insert_find_remove_roundtrip() {
    let t: ScalableHashTable<u64, u64> = ScalableHashTable::new();
    assert!(t.is_empty());
    assert_eq!(t.insert(1, 10), None);
    assert_eq!(t.insert(2, 20), None);
    assert_eq!(t.insert(1, 11), Some(10));
    assert_eq!(t.len(), 2);
    assert_eq!(t.get_cloned(&1), Some(11));
    assert!(t.contains(&2));
    assert!(!t.contains(&3));
    assert_eq!(t.remove(&1), Some(11));
    assert_eq!(t.remove(&1), None);
    assert_eq!(t.len(), 1);
}

#[test]
fn locked_bucket_transaction_pattern() {
    // The exact TTG pattern: lock, lookup, insert-if-absent or
    // remove-if-satisfied, unlock.
    let t: ScalableHashTable<u32, Vec<u32>> = ScalableHashTable::new();
    {
        let mut b = t.lock_bucket(7);
        assert!(b.find().is_none());
        b.insert(vec![1]);
    }
    {
        let mut b = t.lock_bucket(7);
        let v = b.find().expect("present");
        v.push(2);
        if v.len() == 2 {
            let v = b.remove().unwrap();
            assert_eq!(v, vec![1, 2]);
        }
    }
    assert!(t.is_empty());
}

#[test]
fn growth_chains_tables_and_preserves_entries() {
    for lock in [LockKind::Plain, LockKind::Bravo] {
        let t: ScalableHashTable<u64, u64> = ScalableHashTable::with_options(small_opts(lock));
        const N: u64 = 10_000;
        for k in 0..N {
            t.insert(k, k * 3);
        }
        let stats = t.stats();
        assert!(stats.resizes > 3, "expected several resizes, got {stats:?}");
        assert_eq!(stats.len, N as usize);
        for k in 0..N {
            assert_eq!(t.get_cloned(&k), Some(k * 3), "lost key {k} ({lock:?})");
        }
    }
}

#[test]
fn lookups_promote_and_drain_old_tables() {
    let t: ScalableHashTable<u64, u64> =
        ScalableHashTable::with_options(small_opts(LockKind::Bravo));
    const N: u64 = 2_000;
    for k in 0..N {
        t.insert(k, k);
    }
    assert!(t.stats().chain_len > 1, "no chained tables were created");
    // Touch every key: old-table hits are promoted to the main table.
    for k in 0..N {
        assert!(t.contains(&k));
    }
    let s = t.stats();
    assert!(s.promotions > 0, "no promotions recorded: {s:?}");
    // One more transaction triggers the deferred GC of drained tables.
    t.contains(&0);
    let s = t.stats();
    assert_eq!(s.chain_len, 1, "old tables not collected: {s:?}");
    assert!(s.tables_collected > 0);
    assert_eq!(s.len, N as usize);
}

#[test]
fn removals_shrink_len_and_collect_tables() {
    let t: ScalableHashTable<u64, u64> =
        ScalableHashTable::with_options(small_opts(LockKind::Plain));
    for k in 0..1_000 {
        t.insert(k, k);
    }
    for k in 0..1_000 {
        assert_eq!(t.remove(&k), Some(k));
    }
    assert!(t.is_empty());
    t.insert(0, 0); // trigger maintenance
    assert_eq!(t.stats().chain_len, 1);
}

#[test]
fn derived_len_is_exact_at_every_step_across_two_resizes_and_a_gc() {
    // `len` is a sum over buckets now, and only old tables keep a
    // count: check both at each step of a table's life.
    let t: ScalableHashTable<u64, u64> =
        ScalableHashTable::with_options(small_opts(LockKind::Bravo));
    let mut inserted = 0u64;
    while t.stats().resizes < 2 {
        t.insert(inserted, inserted);
        inserted += 1;
        assert_eq!(t.len(), inserted as usize);
    }
    let s = t.stats();
    assert_eq!((s.len, s.chain_len), (inserted as usize, 3));
    // Remove from the back: the newest keys sit in the main table, the
    // oldest in the two demoted ones, which must drain to exactly zero
    // to be collected.
    for (removed, k) in (0..inserted).rev().enumerate() {
        assert_eq!(t.remove(&k), Some(k));
        assert_eq!(t.len(), inserted as usize - removed - 1);
    }
    assert!(t.is_empty());
    t.insert(0, 0); // the next transaction runs the deferred GC
    let s = t.stats();
    assert_eq!((s.len, s.chain_len, s.tables_collected), (1, 1, 2));
    assert_eq!(t.drain(), vec![(0, 0)]);
    assert_eq!(t.len(), 0);
}

#[test]
fn drain_and_for_each() {
    let t: ScalableHashTable<u64, u64> = ScalableHashTable::new();
    for k in 0..100 {
        t.insert(k, 0);
    }
    t.for_each(|_, v| *v += 5);
    let mut drained = t.drain();
    drained.sort_unstable();
    assert_eq!(drained.len(), 100);
    assert!(drained.iter().all(|&(_, v)| v == 5));
    assert!(t.is_empty());
    assert_eq!(t.stats().chain_len, 1);
}

#[test]
fn concurrent_disjoint_inserts_then_lookups() {
    for lock in [LockKind::Plain, LockKind::Bravo] {
        const THREADS: u64 = 8;
        const PER: u64 = 4_000;
        let t: Arc<ScalableHashTable<u64, u64>> =
            Arc::new(ScalableHashTable::with_options(small_opts(lock)));
        let handles: Vec<_> = (0..THREADS)
            .map(|tid| {
                let t = Arc::clone(&t);
                std::thread::spawn(move || {
                    for i in 0..PER {
                        let k = tid * PER + i;
                        assert_eq!(t.insert(k, k + 1), None);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(t.len(), (THREADS * PER) as usize);
        for k in 0..THREADS * PER {
            assert_eq!(t.get_cloned(&k), Some(k + 1), "missing {k} ({lock:?})");
        }
    }
}

#[test]
fn concurrent_mixed_insert_remove_preserves_count() {
    // Threads repeatedly insert then remove their own key while sharing
    // buckets; at the end the table must be empty and internally
    // consistent.
    const THREADS: usize = 8;
    const ITERS: usize = 2_000;
    let t: Arc<ScalableHashTable<u64, usize>> =
        Arc::new(ScalableHashTable::with_options(small_opts(LockKind::Bravo)));
    let handles: Vec<_> = (0..THREADS)
        .map(|tid| {
            let t = Arc::clone(&t);
            std::thread::spawn(move || {
                for i in 0..ITERS {
                    let k = (tid % 4) as u64 * 1_000 + (i % 16) as u64;
                    let mut b = t.lock_bucket(k);
                    if b.find().is_some() {
                        b.remove();
                    } else {
                        b.insert(i);
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    // Parity argument per key: the table state is *some* subset; verify
    // the internal len counter matches an actual scan.
    let mut actual = 0usize;
    t.for_each(|_, _| actual += 1);
    assert_eq!(t.len(), actual, "len counter diverged from contents");
}

#[test]
fn concurrent_lookups_during_growth() {
    // Readers hammer lookups while a writer thread grows the table
    // through many resizes; no lookup may spuriously fail for a key that
    // was inserted before the readers started.
    let t: Arc<ScalableHashTable<u64, u64>> =
        Arc::new(ScalableHashTable::with_options(small_opts(LockKind::Bravo)));
    for k in 0..512 {
        t.insert(k, k);
    }
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let readers: Vec<_> = (0..4)
        .map(|_| {
            let t = Arc::clone(&t);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut k = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    assert_eq!(t.get_cloned(&(k % 512)), Some(k % 512));
                    k += 1;
                }
            })
        })
        .collect();
    for k in 512..20_000 {
        t.insert(k, k);
    }
    stop.store(true, Ordering::Relaxed);
    for r in readers {
        r.join().unwrap();
    }
    assert_eq!(t.len(), 20_000);
}

mod proptests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashMap;

    #[derive(Debug, Clone)]
    enum Op {
        Insert(u16, u32),
        Remove(u16),
        Find(u16),
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        prop_oneof![
            (any::<u16>(), any::<u32>()).prop_map(|(k, v)| Op::Insert(k % 64, v)),
            any::<u16>().prop_map(|k| Op::Remove(k % 64)),
            any::<u16>().prop_map(|k| Op::Find(k % 64)),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Sequential model check: the table behaves exactly like a
        /// HashMap under any sequence of operations, across both lock
        /// kinds and with resizes forced by a tiny initial table.
        #[test]
        fn behaves_like_hashmap(ops in proptest::collection::vec(op_strategy(), 1..400)) {
            for lock in [LockKind::Plain, LockKind::Bravo] {
                let table: ScalableHashTable<u16, u32> =
                    ScalableHashTable::with_options(small_opts(lock));
                let mut model: HashMap<u16, u32> = HashMap::new();
                for op in &ops {
                    match *op {
                        Op::Insert(k, v) => {
                            prop_assert_eq!(table.insert(k, v), model.insert(k, v));
                        }
                        Op::Remove(k) => {
                            prop_assert_eq!(table.remove(&k), model.remove(&k));
                        }
                        Op::Find(k) => {
                            prop_assert_eq!(table.get_cloned(&k), model.get(&k).copied());
                        }
                    }
                    prop_assert_eq!(table.len(), model.len());
                }
            }
        }

        /// Bulk insert of arbitrary key sets: every inserted key is
        /// findable and the count is exact, regardless of hash collisions
        /// or growth pattern.
        #[test]
        fn bulk_insert_is_lossless(keys in proptest::collection::hash_set(any::<u32>(), 0..2000)) {
            let table: ScalableHashTable<u32, u32> =
                ScalableHashTable::with_options(small_opts(LockKind::Bravo));
            for &k in &keys {
                table.insert(k, k.wrapping_mul(7));
            }
            prop_assert_eq!(table.len(), keys.len());
            for &k in &keys {
                prop_assert_eq!(table.get_cloned(&k), Some(k.wrapping_mul(7)));
            }
        }
    }
}
