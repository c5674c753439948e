//! Request-scoped span context: the word a task header, an event-ring
//! record and a network frame carry.
//!
//! A *span context* packs `{tenant, instance}` into one `u64`, so each
//! task execution and wire hop on any rank is stamped with the graph
//! instance that caused it:
//!
//! ```text
//! bits 63..48: tenant tag (FNV-1a of the tenant name, forced nonzero)
//! bits 47..0 : instance id (low 48 bits)
//! ```
//!
//! Zero is reserved for "unattributed" (runtime-internal work, spans
//! `obs` off). The context costs one `u64` per task header and one
//! per wire frame; the recording overhead sits behind the one `obs`
//! switch — when it is off, [`SpanCell`] is zero-sized, its stores
//! compile away and every ring record carries span 0 (DESIGN.md §7.5).
//! `ttg-obs` rebuilds per-instance spans from the records.

use std::cell::Cell;
use ttg_sync::Gated;

/// Bits of the span word reserved for the instance id.
pub const INSTANCE_BITS: u32 = 48;

/// Mask extracting the instance id from a span word.
pub const INSTANCE_MASK: u64 = (1 << INSTANCE_BITS) - 1;

/// 16-bit FNV-1a tag of a tenant name, forced nonzero so a packed span
/// for a real request is never 0 (the unattributed sentinel).
pub fn tenant_tag(tenant: &str) -> u16 {
    let mut h: u32 = 0x811C_9DC5;
    for b in tenant.as_bytes() {
        h ^= *b as u32;
        h = h.wrapping_mul(0x0100_0193);
    }
    let tag = ((h >> 16) ^ (h & 0xFFFF)) as u16;
    if tag == 0 {
        1
    } else {
        tag
    }
}

/// Packs a tenant name and instance id into a span context word.
pub fn pack_span(tenant: &str, instance_id: u64) -> u64 {
    ((tenant_tag(tenant) as u64) << INSTANCE_BITS) | (instance_id & INSTANCE_MASK)
}

/// The instance id carried by a span word.
pub fn span_instance(span: u64) -> u64 {
    span & INSTANCE_MASK
}

/// The tenant tag carried by a span word.
pub fn span_tenant_tag(span: u64) -> u16 {
    (span >> INSTANCE_BITS) as u16
}

// ---- span storage on task headers --------------------------------------

/// Span slot embedded in task headers: a `Cell<u64>` when `obs` is on,
/// zero-sized otherwise, so the header layout and hot path pay only
/// when the feature is bought (`TaskHeader::stamp_span` and friends are
/// its accessors).
pub type SpanCell = Gated<Cell<u64>>;

// ---- ambient span (external seeding threads) ---------------------------

thread_local! {
    static AMBIENT_SPAN: SpanCell = const { Gated::new(Cell::new(0)) };
}

/// Runs `f` with `span` as the calling thread's ambient span context.
/// Work submitted from outside the worker pool (graph seeding, external
/// `invoke`/`deliver`) inherits the ambient span, which is how a
/// request's identity first enters the runtime. Nests; restores the
/// previous value on exit. Pass-through with `obs` off.
#[inline]
pub fn with_ambient_span<R>(span: u64, f: impl FnOnce() -> R) -> R {
    struct Restore(u64);
    impl Drop for Restore {
        fn drop(&mut self) {
            AMBIENT_SPAN.with(|slot| slot.with(|c| c.set(self.0)));
        }
    }
    let prev = AMBIENT_SPAN.with(|slot| slot.with(|c| c.replace(span)));
    let _restore = prev.map(Restore);
    f()
}

/// The calling thread's current ambient span (0 when none, or when
/// `obs` is off).
#[inline]
pub fn ambient_span() -> u64 {
    AMBIENT_SPAN.with(|slot| slot.with(Cell::get)).unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packing_roundtrips_and_zero_is_reserved() {
        let s = pack_span("tenant-a", 12345);
        assert_ne!(s, 0);
        assert_eq!(span_instance(s), 12345);
        assert_eq!(span_tenant_tag(s), tenant_tag("tenant-a"));
        assert_ne!(tenant_tag(""), 0, "tag is forced nonzero");
        // Distinct tenants get (overwhelmingly likely) distinct tags.
        assert_ne!(tenant_tag("tenant-a"), tenant_tag("tenant-b"));
    }

    #[test]
    fn instance_ids_are_masked_to_48_bits() {
        let s = pack_span("tenant-a", u64::MAX);
        assert_eq!(span_instance(s), INSTANCE_MASK);
        assert_eq!(span_tenant_tag(s), tenant_tag("tenant-a"));
        assert_eq!(span_instance(pack_span("t", 1 << INSTANCE_BITS)), 0);
    }

    #[test]
    fn ambient_span_is_restored_after_a_panic() {
        let seen = std::sync::atomic::AtomicU64::new(u64::MAX);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            with_ambient_span(5, || {
                seen.store(ambient_span(), std::sync::atomic::Ordering::Relaxed);
                panic!("body unwinds");
            })
        }));
        assert!(r.is_err());
        let expect = if ttg_sync::OBS { 5 } else { 0 };
        assert_eq!(seen.into_inner(), expect);
        assert_eq!(ambient_span(), 0, "the guard restores on unwind");
    }
}
