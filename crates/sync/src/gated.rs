//! The one observability switch (feature `obs`) and the one gated
//! recorder type.
//!
//! The paper measures small tasks without perturbing them (§IV-B moves
//! shared counters into thread-local ones for exactly that reason), so
//! every recorder in this workspace — lock-contention rows, scheduler
//! and hash-table counters, the span slot on a task header, the wire
//! path's stage histograms — must cost *nothing* in a build that did
//! not ask for it. This module is the only place that contract is
//! implemented:
//!
//! * [`OBS`] is the compile-time switch. Code that needs to skip work
//!   feeding a recorder (a clock read, a derived value) branches on it;
//!   the branch folds away.
//! * [`Gated<T>`] holds a `T` when `obs` is on and is a zero-sized type
//!   when it is off. Its one accessor, [`Gated::with`], runs a closure
//!   on `&T` when on and compiles to nothing when off, so a structure
//!   embeds its recorders unconditionally and no call site carries a
//!   `#[cfg]`.
//!
//! What export surfaces owe in return (absent series when nothing was
//! recorded) is `MetricsSnapshot::emit_if_set` in `ttg-obs`.

/// Whether observability recording is compiled in (feature `obs`).
pub const OBS: bool = cfg!(feature = "obs");

/// A `T` that exists only when [`OBS`] is on; zero-sized otherwise.
/// `Send`/`Sync` exactly when `T` is, in both configurations.
#[derive(Debug, Default)]
pub struct Gated<T> {
    #[cfg(feature = "obs")]
    inner: T,
    #[cfg(not(feature = "obs"))]
    inner: std::marker::PhantomData<T>,
}

impl<T> Gated<T> {
    /// Wraps an already-built value; usable in `static` and
    /// `thread_local!` initializers. With `obs` off the value is
    /// forgotten, not dropped (a destructor cannot run in a `const fn`),
    /// so pass plain data here and build anything that allocates with
    /// [`Gated::new_with`].
    pub const fn new(value: T) -> Self {
        #[cfg(feature = "obs")]
        {
            Gated { inner: value }
        }
        #[cfg(not(feature = "obs"))]
        {
            std::mem::forget(value);
            Gated {
                inner: std::marker::PhantomData,
            }
        }
    }

    /// Builds the value only when `obs` is on; `make` never runs
    /// otherwise.
    #[inline(always)]
    pub fn new_with(make: impl FnOnce() -> T) -> Self {
        #[cfg(feature = "obs")]
        {
            Gated { inner: make() }
        }
        #[cfg(not(feature = "obs"))]
        {
            let _ = make;
            Gated {
                inner: std::marker::PhantomData,
            }
        }
    }

    /// Runs `f` on the value when `obs` is on and returns its result;
    /// with `obs` off `f` is never called, the call compiles to nothing
    /// and the result is `None`.
    #[inline(always)]
    pub fn with<R>(&self, f: impl FnOnce(&T) -> R) -> Option<R> {
        #[cfg(feature = "obs")]
        {
            Some(f(&self.inner))
        }
        #[cfg(not(feature = "obs"))]
        {
            let _ = f;
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;
    use std::sync::atomic::AtomicU64;

    // `Gated<T>` is `Send + Sync` exactly when `T` is — checked at
    // compile time, in whichever configuration the tests build.
    const fn assert_send_sync<T: Send + Sync>() {}
    const _: () = assert_send_sync::<Gated<AtomicU64>>();
    // The negative half: `some_item` resolves only if exactly one of the
    // two impls applies, i.e. only if `Gated<Cell<u64>>` is *not* `Sync`
    // (a `Cell` is `Send` but not `Sync`).
    trait AmbiguousIfSync<A> {
        fn some_item() {}
    }
    impl<T: ?Sized> AmbiguousIfSync<()> for T {}
    impl<T: ?Sized + Sync> AmbiguousIfSync<u8> for T {}
    const _: fn() = || {
        let _ = <Gated<Cell<u64>> as AmbiguousIfSync<_>>::some_item;
    };
    const fn assert_send<T: Send>() {}
    const _: () = assert_send::<Gated<Cell<u64>>>();

    #[test]
    fn holds_a_value_exactly_when_the_switch_is_on() {
        let built = Cell::new(false);
        let g = Gated::new_with(|| {
            built.set(true);
            AtomicU64::new(7)
        });
        let seen = g.with(|v| v.load(std::sync::atomic::Ordering::Relaxed));
        assert_eq!(built.get(), OBS);
        assert_eq!(seen, OBS.then_some(7));
        assert_eq!(
            std::mem::size_of::<Gated<AtomicU64>>(),
            if OBS { 8 } else { 0 }
        );
        static S: Gated<AtomicU64> = Gated::new(AtomicU64::new(3));
        assert_eq!(S.with(|_| ()).is_some(), OBS);
    }
}
