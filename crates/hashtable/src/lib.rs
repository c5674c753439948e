//! # ttg-hashtable — the PaRSEC-style scalable concurrent hash table
//!
//! Reimplements the hash table at the heart of TTG's task management
//! (paper Section III-C, Figure 3):
//!
//! * **Chained growth.** When a bucket of the main table exceeds a
//!   collision threshold (default 16), a new main table with twice the
//!   buckets is allocated. Old entries are *not* rehashed eagerly; the old
//!   table is chained behind the new one. Lookups traverse from the main
//!   table through the old tables; a found element is *promoted* into the
//!   main table to speed up the next search. Because tasks only live in
//!   the table for a bounded time, old tables drain naturally and are
//!   removed from the chain once empty.
//! * **Per-bucket spin locks.** Threads lock individual buckets
//!   (identified by the key) with a simple atomic-flag lock.
//! * **Table-wide reader-writer lock.** Bucket operations take a reader
//!   lock; resizing takes the writer lock. The lock implementation is
//!   selectable at construction: a plain RW spin lock (the pre-paper
//!   behaviour, two atomic RMWs per bucket transaction) or the BRAVO
//!   reader-biased wrapper (Section IV-D — zero RMWs on the reader fast
//!   path), which is what the Figure 9 ablation toggles.
//!
//! The user-visible *locked-bucket transaction* mirrors TTG's usage
//! pattern: "lock the bucket for a task ID, perform a lookup, insert an
//! element if not found or remove an element if all inputs have been
//! satisfied, and then unlock the bucket".

#![warn(missing_docs)]

mod hash;
mod lock;
mod table;

pub use hash::{FixedState, FoldHasher};
pub use lock::LockKind;
pub use table::{HashTableOptions, HashTableStats, LockedBucket, ScalableHashTable};
