//! Offline-compatible `proptest` shim.
//!
//! Keeps the property-test surface this workspace uses — `Strategy`,
//! `prop_map`, `prop_oneof!`, `proptest!`, `ProptestConfig`,
//! `collection::{vec, hash_set}`, `any::<T>()` — over a deterministic
//! SplitMix64 generator. Unlike real proptest there is no shrinking and no
//! persisted regression seeds: each `(test name, case index)` pair maps to
//! a fixed seed, so failures reproduce exactly on re-run.

use std::collections::HashSet;
use std::hash::Hash;
use std::marker::PhantomData;
use std::ops::Range;

pub mod test_runner {
    /// Deterministic per-case generator (SplitMix64).
    #[derive(Debug, Clone)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// Seeds from the test's module path + case index so every case
        /// is reproducible without persisted seed files.
        pub fn for_case(test_name: &str, case: u32) -> Self {
            // FNV-1a over the name, mixed with the case index.
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for b in test_name.bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x1_0000_01b3);
            }
            TestRng {
                state: h ^ ((case as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
            }
        }

        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
    }
}

use test_runner::TestRng;

/// Run configuration consumed by the `proptest!` macro.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of random cases per property.
    pub cases: u32,
}

impl ProptestConfig {
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 64 }
    }
}

/// A recipe for generating values of `Self::Value`.
pub trait Strategy {
    type Value;

    /// Draws one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Post-processes generated values with `f`.
    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Map { strategy: self, f }
    }

    /// Type-erases this strategy (used by `prop_oneof!`).
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        Box::new(self)
    }
}

/// A type-erased strategy.
pub type BoxedStrategy<V> = Box<dyn Strategy<Value = V>>;

impl<V> Strategy for BoxedStrategy<V> {
    type Value = V;

    fn generate(&self, rng: &mut TestRng) -> V {
        (**self).generate(rng)
    }
}

impl<S: Strategy + ?Sized> Strategy for &S {
    type Value = S::Value;

    fn generate(&self, rng: &mut TestRng) -> S::Value {
        (**self).generate(rng)
    }
}

/// Always yields a clone of the wrapped value.
#[derive(Debug, Clone)]
pub struct Just<T>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;

    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// The result of [`Strategy::prop_map`].
#[derive(Debug, Clone)]
pub struct Map<S, F> {
    strategy: S,
    f: F,
}

impl<S, F, O> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> O,
{
    type Value = O;

    fn generate(&self, rng: &mut TestRng) -> O {
        (self.f)(self.strategy.generate(rng))
    }
}

/// Uniform choice among boxed strategies (built by `prop_oneof!`).
pub struct OneOf<V>(pub Vec<BoxedStrategy<V>>);

impl<V> Strategy for OneOf<V> {
    type Value = V;

    fn generate(&self, rng: &mut TestRng) -> V {
        assert!(!self.0.is_empty(), "prop_oneof! needs at least one arm");
        let idx = (rng.next_u64() % self.0.len() as u64) as usize;
        self.0[idx].generate(rng)
    }
}

macro_rules! int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as i128 - self.start as i128) as u128;
                (((rng.next_u64() as u128) % span) as i128 + self.start as i128) as $t
            }
        }
    )*};
}
int_range_strategy!(i8, i16, i32, i64, isize, u8, u16, u32, u64, usize);

impl Strategy for Range<f64> {
    type Value = f64;

    fn generate(&self, rng: &mut TestRng) -> f64 {
        let unit = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        self.start + unit * (self.end - self.start)
    }
}

macro_rules! tuple_strategy {
    ($(($($name:ident : $idx:tt),+))*) => {$(
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);

            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    )*};
}
tuple_strategy! {
    (A: 0, B: 1)
    (A: 0, B: 1, C: 2)
    (A: 0, B: 1, C: 2, D: 3)
}

/// Types with a canonical full-range strategy.
pub trait Arbitrary: Sized {
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}
arbitrary_int!(i8, i16, i32, i64, isize, u8, u16, u32, u64, usize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

/// Strategy produced by [`any`].
pub struct AnyStrategy<T>(PhantomData<fn() -> T>);

impl<T: Arbitrary> Strategy for AnyStrategy<T> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// The full-range strategy for `T`.
pub fn any<T: Arbitrary>() -> AnyStrategy<T> {
    AnyStrategy(PhantomData)
}

pub mod collection {
    use super::*;

    /// Strategy for `Vec<S::Value>` with length drawn from `len`.
    pub struct VecStrategy<S> {
        element: S,
        len: Range<usize>,
    }

    pub fn vec<S: Strategy>(element: S, len: Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, len }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = self.len.clone().generate(rng);
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// Strategy for `HashSet<S::Value>` with size drawn from `size`.
    pub struct HashSetStrategy<S> {
        element: S,
        size: Range<usize>,
    }

    pub fn hash_set<S>(element: S, size: Range<usize>) -> HashSetStrategy<S>
    where
        S: Strategy,
        S::Value: Hash + Eq,
    {
        HashSetStrategy { element, size }
    }

    impl<S> Strategy for HashSetStrategy<S>
    where
        S: Strategy,
        S::Value: Hash + Eq,
    {
        type Value = HashSet<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> HashSet<S::Value> {
            let target = self.size.clone().generate(rng);
            let mut set = HashSet::with_capacity(target);
            // Duplicates shrink the set below `target`; retry a bounded
            // number of times so narrow domains cannot loop forever.
            let mut attempts = 0usize;
            while set.len() < target && attempts < target * 10 + 100 {
                set.insert(self.element.generate(rng));
                attempts += 1;
            }
            set
        }
    }
}

/// Runs `cases` deterministic random cases of a property body.
///
/// Supports the forms used in this workspace:
///
/// ```ignore
/// proptest! {
///     #![proptest_config(ProptestConfig::with_cases(64))]
///     #[test]  // as in real proptest: attributes pass through, none is added
///     fn prop(x in 0usize..10, v in any::<u64>()) { prop_assert!(x < 10); }
/// }
/// ```
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { cfg = ($cfg); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { cfg = ($crate::ProptestConfig::default()); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (cfg = ($cfg:expr);) => {};
    (cfg = ($cfg:expr);
     $(#[$meta:meta])*
     fn $name:ident($($arg:ident in $strat:expr),* $(,)?) $body:block
     $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let __cfg: $crate::ProptestConfig = $cfg;
            for __case in 0..__cfg.cases {
                let mut __rng = $crate::test_runner::TestRng::for_case(
                    concat!(module_path!(), "::", stringify!($name)),
                    __case,
                );
                $(let $arg = $crate::Strategy::generate(&($strat), &mut __rng);)*
                $body
            }
        }
        $crate::__proptest_impl! { cfg = ($cfg); $($rest)* }
    };
}

/// Uniform choice among strategies yielding the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::OneOf(vec![$($crate::Strategy::boxed($strat)),+])
    };
}

/// Property assertion; panics (failing the case) when false.
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// Property equality assertion.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

/// Property inequality assertion.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($tt:tt)*) => { assert_ne!($($tt)*) };
}

pub mod prelude {
    pub use crate::test_runner::TestRng;
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest, Arbitrary,
        BoxedStrategy, Just, ProptestConfig, Strategy,
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn ranges_and_tuples_generate_in_bounds() {
        let mut rng = TestRng::for_case("shim", 0);
        for _ in 0..500 {
            let (a, b) = (0usize..7, -3i64..3).generate(&mut rng);
            assert!(a < 7);
            assert!((-3..3).contains(&b));
        }
    }

    #[test]
    fn oneof_hits_every_arm() {
        let strat = prop_oneof![Just(0u8), Just(1u8), (2u8..4).prop_map(|v| v)];
        let mut rng = TestRng::for_case("arms", 0);
        let mut seen = [false; 4];
        for _ in 0..200 {
            seen[strat.generate(&mut rng) as usize] = true;
        }
        assert_eq!(seen, [true; 4]);
    }

    #[test]
    fn collections_respect_bounds() {
        let mut rng = TestRng::for_case("coll", 1);
        for _ in 0..100 {
            let v = crate::collection::vec(any::<u64>(), 0..8).generate(&mut rng);
            assert!(v.len() < 8);
            let s = crate::collection::hash_set(any::<u32>(), 3..10).generate(&mut rng);
            assert!(s.len() < 10);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        #[test]
        fn macro_generates_cases(x in 0usize..10, flag in any::<bool>()) {
            prop_assert!(x < 10);
            let _ = flag;
        }

        #[test]
        fn second_property_in_same_block(v in crate::collection::vec(0i8..5, 1..4)) {
            prop_assert!(!v.is_empty());
            prop_assert!(v.iter().all(|&x| (0..5).contains(&x)));
        }
    }

    // Attributes pass through untouched: `should_panic` reaches the
    // generated function, and a property without `#[test]` is a plain
    // function that the harness does not register.
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4))]
        #[test]
        #[should_panic(expected = "every case fails")]
        fn attributes_reach_the_generated_fn(x in 0u8..4) {
            prop_assert!(x < 4);
            panic!("every case fails");
        }

        fn unregistered_property(x in 0u32..3) {
            UNREGISTERED_CASES.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            prop_assert!(x < 3);
        }
    }

    static UNREGISTERED_CASES: std::sync::atomic::AtomicUsize =
        std::sync::atomic::AtomicUsize::new(0);

    #[test]
    fn a_property_without_test_is_a_plain_fn() {
        unregistered_property();
        let cases = UNREGISTERED_CASES.load(std::sync::atomic::Ordering::Relaxed);
        assert_eq!(cases, ProptestConfig::with_cases(4).cases as usize);
    }
}
