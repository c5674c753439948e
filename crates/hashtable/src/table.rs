//! The scalable chained-growth hash table (paper Section III-C, Figure 3).

use crate::hash::FixedState;
use crate::lock::{LockKind, TableLock, TableReadGuard};
use std::cell::UnsafeCell;
use std::hash::{BuildHasher, Hash};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use ttg_sync::spin::SpinLockGuard;
use ttg_sync::{ContentionCounter, SpinLock};

/// One stored element. The full hash is cached so growth never rehashes
/// keys and old-table probes can pre-filter on it.
#[derive(Debug)]
struct Entry<K, V> {
    hash: u64,
    key: K,
    value: V,
}

/// A bucket: a spin-locked vector of entries. PaRSEC uses an intrusive
/// list plus a C11 `atomic_flag` lock; a locked `Vec` has the same
/// synchronization structure (one atomic RMW to lock, release store to
/// unlock) with better cache behaviour for the ≤16 collisions the
/// threshold allows.
#[derive(Debug)]
struct Bucket<K, V> {
    entries: SpinLock<Vec<Entry<K, V>>>,
}

impl<K, V> Bucket<K, V> {
    fn new() -> Self {
        Bucket {
            entries: SpinLock::new(Vec::new()),
        }
    }
}

/// One table of the chain. `len` counts an *old* table's remaining
/// entries so that it can be unlinked once drained: set when a resize
/// demotes the table, decremented as lookups take entries out. The main
/// table keeps no count — its transactions touch their bucket only.
#[derive(Debug)]
struct SubTable<K, V> {
    mask: u64,
    buckets: Box<[Bucket<K, V>]>,
    len: AtomicUsize,
}

impl<K, V> SubTable<K, V> {
    fn with_buckets(n: usize) -> Self {
        assert!(n.is_power_of_two());
        SubTable {
            mask: (n - 1) as u64,
            buckets: (0..n).map(|_| Bucket::new()).collect(),
            len: AtomicUsize::new(0),
        }
    }

    #[inline]
    fn bucket(&self, hash: u64) -> &Bucket<K, V> {
        // Fold the high bits in so tables of different sizes probe
        // different bucket sequences ("keys are remapped using the size s
        // of a table", Figure 3).
        let idx = (hash ^ (hash >> 32)) & self.mask;
        &self.buckets[idx as usize]
    }

    /// Entries in this table, by locking each bucket in turn.
    fn count_entries(&self) -> usize {
        self.buckets.iter().map(|b| b.entries.lock().len()).sum()
    }
}

/// Construction options for [`ScalableHashTable`].
#[derive(Debug, Clone)]
pub struct HashTableOptions {
    /// log2 of the initial main-table bucket count. The paper favours
    /// starting small ("allocating a large hash table upfront is not
    /// desirable") — default 4, i.e. 16 buckets.
    pub initial_bits: u32,
    /// Bucket fill threshold that triggers allocation of a doubled main
    /// table. The paper's example value is 16.
    pub max_collisions: usize,
    /// Which table-wide reader-writer lock to use (Plain vs BRAVO).
    pub lock: LockKind,
    /// Number of visible-reader slots for the BRAVO lock (≈ number of
    /// runtime threads; ignored for `Plain`).
    pub bravo_slots: usize,
}

impl Default for HashTableOptions {
    fn default() -> Self {
        HashTableOptions {
            initial_bits: 4,
            max_collisions: 16,
            lock: LockKind::default(),
            bravo_slots: ttg_sync::bravo::DEFAULT_SLOTS,
        }
    }
}

/// Counters describing the table's dynamic behaviour; used by tests and
/// the benchmark harness.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HashTableStats {
    /// Number of live entries across all chained tables.
    pub len: usize,
    /// Number of resize (doubling) events so far. The paper observes
    /// "rarely more than 10" per table per run.
    pub resizes: usize,
    /// Entries promoted from an old table into the main table on lookup.
    pub promotions: usize,
    /// Old tables unlinked after draining to empty.
    pub tables_collected: usize,
    /// Tables currently in the chain (1 = only the main table).
    pub chain_len: usize,
    /// Current main-table bucket count.
    pub main_buckets: usize,
    /// Bucket-lock acquisitions that found the lock held (`try_lock`
    /// failed and the caller had to spin). Zero unless the
    /// `obs` feature is enabled.
    pub bucket_contended: u64,
    /// Table reads served by the BRAVO visible-readers fast path (zero
    /// RMWs). Zero unless `obs` is enabled or the lock is
    /// `Plain`.
    pub biased_reads: u64,
}

/// The PaRSEC-style scalable concurrent hash table.
///
/// # Examples
///
/// ```
/// use ttg_hashtable::ScalableHashTable;
///
/// let table: ScalableHashTable<u64, String> = ScalableHashTable::new();
/// // The TTG transaction pattern: lock the bucket for a task id,
/// // look up, insert if absent, unlock (on drop).
/// {
///     let mut bucket = table.lock_bucket(42);
///     if bucket.find().is_none() {
///         bucket.insert("task".to_string());
///     }
/// }
/// assert_eq!(table.remove(&42).as_deref(), Some("task"));
/// ```
pub struct ScalableHashTable<K, V, S = FixedState> {
    lock: TableLock,
    /// `chain[0]` is the main table; higher indices are progressively
    /// older (smaller) tables. Mutated only under the write lock; read
    /// under the read lock. The `Box` keeps each table's address stable
    /// while the chain vector is edited.
    #[allow(clippy::vec_box)]
    chain: UnsafeCell<Vec<Box<SubTable<K, V>>>>,
    hasher: S,
    max_collisions: usize,
    /// Set by an insert that overflowed a bucket; consumed by
    /// `maybe_maintain`.
    resize_pending: AtomicBool,
    /// Set when an old table drained to empty; consumed by `maybe_maintain`.
    gc_pending: AtomicBool,
    resizes: AtomicUsize,
    promotions: AtomicUsize,
    tables_collected: AtomicUsize,
    /// Contention counters: zero-sized unless `obs`.
    bucket_contended: ContentionCounter,
    biased_reads: ContentionCounter,
}

// SAFETY: all interior mutability is mediated by the table RW lock plus
// per-bucket spin locks; `K`/`V` move across threads.
unsafe impl<K: Send, V: Send, S: Send> Send for ScalableHashTable<K, V, S> {}
unsafe impl<K: Send + Sync, V: Send + Sync, S: Sync> Sync for ScalableHashTable<K, V, S> {}

impl<K: Hash + Eq, V> ScalableHashTable<K, V> {
    /// Creates a table with default options (16 buckets, threshold 16,
    /// BRAVO table lock) and the fixed-seed default hasher (see
    /// [`FixedState`] for when that is the wrong choice).
    pub fn new() -> Self {
        Self::with_options(HashTableOptions::default())
    }

    /// Creates a table with explicit options.
    pub fn with_options(opts: HashTableOptions) -> Self {
        Self::with_options_and_hasher(opts, FixedState::default())
    }
}

impl<K: Hash + Eq, V> Default for ScalableHashTable<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Hash + Eq, V, S: BuildHasher> ScalableHashTable<K, V, S> {
    /// Creates a table with explicit options and hasher.
    pub fn with_options_and_hasher(opts: HashTableOptions, hasher: S) -> Self {
        let n = 1usize << opts.initial_bits.min(28);
        ScalableHashTable {
            lock: TableLock::new(opts.lock, opts.bravo_slots),
            chain: UnsafeCell::new(vec![Box::new(SubTable::with_buckets(n))]),
            hasher,
            max_collisions: opts.max_collisions.max(1),
            resize_pending: AtomicBool::new(false),
            gc_pending: AtomicBool::new(false),
            resizes: AtomicUsize::new(0),
            promotions: AtomicUsize::new(0),
            tables_collected: AtomicUsize::new(0),
            bucket_contended: ContentionCounter::new(),
            biased_reads: ContentionCounter::new(),
        }
    }

    #[inline]
    fn hash_of(&self, key: &K) -> u64 {
        self.hasher.hash_one(key)
    }

    /// Number of live entries: a sum over every bucket of the chain,
    /// each locked in turn under the table read lock — for diagnostics
    /// and tests, not hot paths, and not while the calling thread holds
    /// a [`LockedBucket`] of this table. A racy snapshot while other
    /// threads insert and remove.
    pub fn len(&self) -> usize {
        self.stats().len
    }

    /// True when no entries are stored (racy snapshot).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Which lock kind the table was built with.
    pub fn lock_kind(&self) -> LockKind {
        self.lock.kind()
    }

    /// Snapshot of the table's dynamic-behaviour counters.
    pub fn stats(&self) -> HashTableStats {
        let _r = self.lock.read();
        // SAFETY: read lock held; chain structure is stable.
        let chain = unsafe { &*self.chain.get() };
        HashTableStats {
            len: chain.iter().map(|sub| sub.count_entries()).sum(),
            resizes: self.resizes.load(Ordering::Relaxed),
            promotions: self.promotions.load(Ordering::Relaxed),
            tables_collected: self.tables_collected.load(Ordering::Relaxed),
            chain_len: chain.len(),
            main_buckets: chain[0].buckets.len(),
            bucket_contended: self.bucket_contended.get(),
            biased_reads: self.biased_reads.get(),
        }
    }

    /// Opens a locked-bucket transaction for `key`: takes the table read
    /// lock and the key's main-table bucket lock. All operations on the
    /// returned handle are for this key; the locks release on drop.
    ///
    /// This is TTG's hot path — with the BRAVO lock, entering costs one
    /// atomic RMW (the bucket lock) and leaving costs none.
    pub fn lock_bucket(&self, key: K) -> LockedBucket<'_, K, V, S> {
        self.maybe_maintain();
        let hash = self.hash_of(&key);
        let read = self.lock.read();
        if read.is_bravo_fast_path() {
            self.biased_reads.incr();
        }
        // SAFETY: read lock held for the guard's lifetime (stored in the
        // returned LockedBucket); no writer can restructure the chain.
        let chain: &[Box<SubTable<K, V>>] = unsafe { &*self.chain.get() };
        // try-then-lock so a held bucket lock is observable as contention.
        let entries = &chain[0].bucket(hash).entries;
        let guard = match entries.try_lock() {
            Some(g) => g,
            None => {
                self.bucket_contended.incr();
                entries.lock()
            }
        };
        LockedBucket {
            table: self,
            guard,
            chain,
            _read: read,
            hash,
            key,
        }
    }

    /// Inserts `key → value`, returning the previous value if any.
    pub fn insert(&self, key: K, value: V) -> Option<V>
    where
        K: Clone,
    {
        self.lock_bucket(key).insert(value)
    }

    /// Removes `key`, returning its value if present.
    pub fn remove(&self, key: &K) -> Option<V>
    where
        K: Clone,
    {
        self.lock_bucket(key.clone()).remove()
    }

    /// True if `key` is present. (Promotes like any lookup.)
    pub fn contains(&self, key: &K) -> bool
    where
        K: Clone,
    {
        self.lock_bucket(key.clone()).find().is_some()
    }

    /// Clones out the value for `key`, if present.
    pub fn get_cloned(&self, key: &K) -> Option<V>
    where
        K: Clone,
        V: Clone,
    {
        self.lock_bucket(key.clone()).find().map(|v| v.clone())
    }

    /// Runs `f` over every live entry under the exclusive lock.
    /// Intended for shutdown diagnostics, not hot paths.
    pub fn for_each(&self, mut f: impl FnMut(&K, &mut V)) {
        let _w = self.lock.write();
        // SAFETY: exclusive lock held — no concurrent bucket access.
        let chain = unsafe { &mut *self.chain.get() };
        for sub in chain.iter_mut() {
            for bucket in sub.buckets.iter_mut() {
                for entry in bucket.entries.get_mut().iter_mut() {
                    f(&entry.key, &mut entry.value);
                }
            }
        }
    }

    /// Removes and returns all live entries under the exclusive lock.
    pub fn drain(&self) -> Vec<(K, V)> {
        let _w = self.lock.write();
        // SAFETY: exclusive lock held.
        let chain = unsafe { &mut *self.chain.get() };
        let mut out = Vec::new();
        for sub in chain.iter_mut() {
            for bucket in sub.buckets.iter_mut() {
                for e in bucket.entries.get_mut().drain(..) {
                    out.push((e.key, e.value));
                }
            }
        }
        chain.truncate(1);
        out
    }

    /// Performs deferred maintenance: grows the main table if an insert
    /// overflowed a bucket, and unlinks drained old tables. Runs *before*
    /// taking the read lock so it can take the write lock (PaRSEC's
    /// resizer likewise "has to wait for all other threads to release
    /// their bucket locks").
    fn maybe_maintain(&self) {
        if !self.resize_pending.load(Ordering::Relaxed) && !self.gc_pending.load(Ordering::Relaxed)
        {
            return;
        }
        let do_resize = self.resize_pending.swap(false, Ordering::Relaxed);
        let do_gc = self.gc_pending.swap(false, Ordering::Relaxed);
        if !do_resize && !do_gc {
            return;
        }
        let _w = self.lock.write();
        // SAFETY: exclusive lock held.
        let chain = unsafe { &mut *self.chain.get() };
        if do_resize {
            // The main table becomes an old one: from here on its entry
            // count is what tells when it has drained.
            let main = &mut chain[0];
            let entries = main
                .buckets
                .iter_mut()
                .map(|b| b.entries.get_mut().len())
                .sum();
            *main.len.get_mut() = entries;
            let new_buckets = main.buckets.len() * 2;
            chain.insert(0, Box::new(SubTable::with_buckets(new_buckets)));
            self.resizes.fetch_add(1, Ordering::Relaxed);
        }
        // A table demoted while empty has nobody left to report it.
        if do_gc || do_resize {
            let before = chain.len();
            // Never collect the main table; sweep drained old ones.
            let mut i = 1;
            while i < chain.len() {
                if chain[i].len.load(Ordering::Relaxed) == 0 {
                    chain.remove(i);
                } else {
                    i += 1;
                }
            }
            self.tables_collected
                .fetch_add(before - chain.len(), Ordering::Relaxed);
        }
    }
}

impl<K, V, S> Drop for ScalableHashTable<K, V, S> {
    fn drop(&mut self) {
        // Entries drop with their Vec storage; nothing manual needed.
    }
}

impl<K: Hash + Eq + std::fmt::Debug, V, S: BuildHasher> std::fmt::Debug
    for ScalableHashTable<K, V, S>
{
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScalableHashTable")
            .field("len", &self.len())
            .field("lock", &self.lock.kind())
            .finish_non_exhaustive()
    }
}

/// A locked-bucket transaction for one key — the TTG usage pattern of
/// Section III-C2. Holds the table read lock plus the key's main-table
/// bucket lock; both release when the handle drops.
pub struct LockedBucket<'a, K, V, S = FixedState> {
    table: &'a ScalableHashTable<K, V, S>,
    // Field order matters: the bucket guard must drop before the table
    // read guard.
    guard: SpinLockGuard<'a, Vec<Entry<K, V>>>,
    chain: &'a [Box<SubTable<K, V>>],
    _read: TableReadGuard<'a>,
    hash: u64,
    key: K,
}

impl<'a, K: Hash + Eq, V, S: BuildHasher> LockedBucket<'a, K, V, S> {
    /// The key this transaction is bound to.
    pub fn key(&self) -> &K {
        &self.key
    }

    /// Looks up the key. On a hit in an *old* table the entry is promoted
    /// into the main table ("a found element is moved into the main table
    /// to speedup the next search").
    pub fn find(&mut self) -> Option<&mut V> {
        if let Some(idx) = self.position_in_main() {
            return Some(&mut self.guard[idx].value);
        }
        if let Some(entry) = self.take_from_old() {
            self.table.promotions.fetch_add(1, Ordering::Relaxed);
            self.guard.push(entry);
            let last = self.guard.len() - 1;
            return Some(&mut self.guard[last].value);
        }
        None
    }

    /// Inserts `value` for the key, returning the displaced value if the
    /// key was already present. May schedule a table resize.
    pub fn insert(&mut self, value: V) -> Option<V>
    where
        K: Clone,
    {
        if let Some(v) = self.find() {
            return Some(std::mem::replace(v, value));
        }
        self.guard.push(Entry {
            hash: self.hash,
            key: self.key.clone(),
            value,
        });
        if self.guard.len() > self.table.max_collisions {
            self.table.resize_pending.store(true, Ordering::Relaxed);
        }
        None
    }

    /// Removes the key's entry, returning its value.
    pub fn remove(&mut self) -> Option<V> {
        if let Some(idx) = self.position_in_main() {
            return Some(self.guard.swap_remove(idx).value);
        }
        self.take_from_old().map(|entry| entry.value)
    }

    #[inline]
    fn position_in_main(&self) -> Option<usize> {
        self.guard
            .iter()
            .position(|e| e.hash == self.hash && e.key == self.key)
    }

    /// Searches the old tables, removing and returning the entry if found.
    /// Each old bucket is locked only while scanned; locks are taken one
    /// at a time, always after the (already held) main bucket lock, so no
    /// lock-order cycle exists.
    fn take_from_old(&self) -> Option<Entry<K, V>> {
        for sub in &self.chain[1..] {
            if sub.len.load(Ordering::Relaxed) == 0 {
                continue;
            }
            let mut bucket = sub.bucket(self.hash).entries.lock();
            if let Some(idx) = bucket
                .iter()
                .position(|e| e.hash == self.hash && e.key == self.key)
            {
                let entry = bucket.swap_remove(idx);
                if sub.len.fetch_sub(1, Ordering::Relaxed) == 1 {
                    self.table.gc_pending.store(true, Ordering::Relaxed);
                }
                return Some(entry);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests;
