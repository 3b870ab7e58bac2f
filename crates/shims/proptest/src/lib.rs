//! Minimal in-tree stand-in for `proptest`: seeded random generation behind
//! a [`Strategy`] trait, the combinators this workspace's property tests
//! use (`prop_map`, `prop_flat_map`, `prop_oneof!`, collections, tuples,
//! ranges, `sample::Index`), and the `proptest! { … }` test macro.
//!
//! No shrinking: a failing case panics with the values that produced it
//! (generation is deterministic per test name, so failures reproduce).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use rand::rngs::StdRng;
use rand::{Rng, RngExt, SeedableRng};
use std::collections::BTreeSet;
use std::ops::Range;

/// Deterministic generator handed to strategies.
pub struct TestRng(StdRng);

impl TestRng {
    /// A generator seeded from the test's fully qualified name.
    pub fn for_test(name: &str) -> TestRng {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        TestRng(StdRng::seed_from_u64(h))
    }

    fn next_u64(&mut self) -> u64 {
        self.0.next_u64()
    }

    fn random_f64(&mut self) -> f64 {
        self.0.random()
    }

    fn usize_in(&mut self, range: Range<usize>) -> usize {
        if range.start >= range.end {
            range.start
        } else {
            self.0.random_range(range)
        }
    }
}

/// Marker returned by `prop_assume!` to skip a generated case.
#[derive(Debug)]
pub struct TestCaseSkip;

/// Per-`proptest!` configuration.
#[derive(Clone, Debug)]
pub struct ProptestConfig {
    /// Number of random cases per test.
    pub cases: u32,
}

/// Resolves the case count from an optional `PROPTEST_CASES`-style
/// override value (kept pure so it is testable without mutating the
/// process environment). Unlike upstream proptest the override also beats
/// explicit `with_cases` values, so CI can elevate the whole suite's case
/// count in one place.
fn resolve_cases(env_value: Option<&str>, explicit: u32) -> u32 {
    env_value.and_then(|v| v.parse().ok()).unwrap_or(explicit)
}

impl ProptestConfig {
    /// Config running `cases` random cases (or the `PROPTEST_CASES`
    /// environment override).
    pub fn with_cases(cases: u32) -> Self {
        let env = std::env::var("PROPTEST_CASES").ok();
        ProptestConfig {
            cases: resolve_cases(env.as_deref(), cases),
        }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        Self::with_cases(64)
    }
}

/// A generator of random values of an associated type.
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Generates one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }

    /// Generates a value, then generates from the strategy `f` builds
    /// from it.
    fn prop_flat_map<S2: Strategy, F: Fn(Self::Value) -> S2>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
    {
        FlatMap { inner: self, f }
    }

    /// Type-erases the strategy.
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        BoxedStrategy(Box::new(move |rng| self.generate(rng)))
    }
}

/// Type-erased strategy.
pub struct BoxedStrategy<V>(Box<dyn Fn(&mut TestRng) -> V>);

impl<V> Strategy for BoxedStrategy<V> {
    type Value = V;
    fn generate(&self, rng: &mut TestRng) -> V {
        (self.0)(rng)
    }
}

/// See [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;
    fn generate(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.generate(rng))
    }
}

/// See [`Strategy::prop_flat_map`].
pub struct FlatMap<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, S2: Strategy, F: Fn(S::Value) -> S2> Strategy for FlatMap<S, F> {
    type Value = S2::Value;
    fn generate(&self, rng: &mut TestRng) -> S2::Value {
        (self.f)(self.inner.generate(rng)).generate(rng)
    }
}

/// Always generates a clone of the given value.
#[derive(Clone, Debug)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Uniform choice between boxed strategies (the `prop_oneof!` backend).
pub struct Union<V>(Vec<BoxedStrategy<V>>);

impl<V> Union<V> {
    /// Builds a union over non-empty `arms`.
    pub fn new(arms: Vec<BoxedStrategy<V>>) -> Self {
        assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
        Union(arms)
    }
}

impl<V> Strategy for Union<V> {
    type Value = V;
    fn generate(&self, rng: &mut TestRng) -> V {
        let i = (rng.next_u64() % self.0.len() as u64) as usize;
        self.0[i].generate(rng)
    }
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                rng.0.random_range(self.clone())
            }
        }
    )*};
}

impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl<A: Strategy, B: Strategy> Strategy for (A, B) {
    type Value = (A::Value, B::Value);
    fn generate(&self, rng: &mut TestRng) -> Self::Value {
        (self.0.generate(rng), self.1.generate(rng))
    }
}

impl<A: Strategy, B: Strategy, C: Strategy> Strategy for (A, B, C) {
    type Value = (A::Value, B::Value, C::Value);
    fn generate(&self, rng: &mut TestRng) -> Self::Value {
        (
            self.0.generate(rng),
            self.1.generate(rng),
            self.2.generate(rng),
        )
    }
}

impl<A: Strategy, B: Strategy, C: Strategy, D: Strategy> Strategy for (A, B, C, D) {
    type Value = (A::Value, B::Value, C::Value, D::Value);
    fn generate(&self, rng: &mut TestRng) -> Self::Value {
        (
            self.0.generate(rng),
            self.1.generate(rng),
            self.2.generate(rng),
            self.3.generate(rng),
        )
    }
}

impl<A: Strategy, B: Strategy, C: Strategy, D: Strategy, E: Strategy> Strategy for (A, B, C, D, E) {
    type Value = (A::Value, B::Value, C::Value, D::Value, E::Value);
    fn generate(&self, rng: &mut TestRng) -> Self::Value {
        (
            self.0.generate(rng),
            self.1.generate(rng),
            self.2.generate(rng),
            self.3.generate(rng),
            self.4.generate(rng),
        )
    }
}

/// Types with a canonical "any value" strategy.
pub trait Arbitrary: Sized {
    /// Generates an arbitrary value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

impl Arbitrary for u8 {
    fn arbitrary(rng: &mut TestRng) -> u8 {
        rng.next_u64() as u8
    }
}

impl Arbitrary for u16 {
    fn arbitrary(rng: &mut TestRng) -> u16 {
        rng.next_u64() as u16
    }
}

impl Arbitrary for u32 {
    fn arbitrary(rng: &mut TestRng) -> u32 {
        rng.next_u64() as u32
    }
}

impl Arbitrary for u64 {
    fn arbitrary(rng: &mut TestRng) -> u64 {
        rng.next_u64()
    }
}

/// Strategy for an [`Arbitrary`] type; see [`any`].
pub struct Any<T>(std::marker::PhantomData<T>);

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// The canonical strategy for `T`.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(std::marker::PhantomData)
}

/// Collection sizes: an exact count or a half-open range.
pub trait IntoSizeRange {
    /// Lower/upper (exclusive) bounds.
    fn bounds(&self) -> (usize, usize);
}

impl IntoSizeRange for usize {
    fn bounds(&self) -> (usize, usize) {
        (*self, *self + 1)
    }
}

impl IntoSizeRange for Range<usize> {
    fn bounds(&self) -> (usize, usize) {
        (self.start, self.end)
    }
}

/// Collection strategies.
pub mod collection {
    use super::*;

    /// Strategy for `Vec<T>`; see [`vec`].
    pub struct VecStrategy<S> {
        elem: S,
        min: usize,
        max: usize,
    }

    /// Vectors of `size` elements generated by `elem`.
    pub fn vec<S: Strategy>(elem: S, size: impl IntoSizeRange) -> VecStrategy<S> {
        let (min, max) = size.bounds();
        VecStrategy { elem, min, max }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = rng.usize_in(self.min..self.max);
            (0..len).map(|_| self.elem.generate(rng)).collect()
        }
    }

    /// Strategy for `BTreeSet<T>`; see [`btree_set`].
    pub struct BTreeSetStrategy<S> {
        elem: S,
        min: usize,
        max: usize,
    }

    /// Sets of roughly `size` elements generated by `elem` (duplicates are
    /// retried a bounded number of times).
    pub fn btree_set<S>(elem: S, size: impl IntoSizeRange) -> BTreeSetStrategy<S>
    where
        S: Strategy,
        S::Value: Ord,
    {
        let (min, max) = size.bounds();
        BTreeSetStrategy { elem, min, max }
    }

    impl<S> Strategy for BTreeSetStrategy<S>
    where
        S: Strategy,
        S::Value: Ord,
    {
        type Value = BTreeSet<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> BTreeSet<S::Value> {
            let target = rng.usize_in(self.min..self.max);
            let mut out = BTreeSet::new();
            let mut attempts = 0;
            while out.len() < target && attempts < target * 10 + 16 {
                out.insert(self.elem.generate(rng));
                attempts += 1;
            }
            out
        }
    }
}

/// Sampling helpers.
pub mod sample {
    use super::*;

    /// An abstract index into a collection of as-yet-unknown size.
    #[derive(Clone, Copy, Debug)]
    pub struct Index(u64);

    impl Index {
        /// This index resolved against a collection of `len` elements.
        ///
        /// # Panics
        /// Panics if `len == 0`.
        pub fn index(&self, len: usize) -> usize {
            assert!(len > 0, "Index::index on empty collection");
            (self.0 % len as u64) as usize
        }
    }

    impl Arbitrary for Index {
        fn arbitrary(rng: &mut TestRng) -> Index {
            Index(rng.next_u64())
        }
    }
}

/// Floating-point strategies (uniform in `[0, 1)`).
pub struct UnitF64;

impl Strategy for UnitF64 {
    type Value = f64;
    fn generate(&self, rng: &mut TestRng) -> f64 {
        rng.random_f64()
    }
}

/// Everything the tests import.
pub mod prelude {
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assume, prop_oneof, proptest, Just, ProptestConfig,
        Strategy,
    };

    /// Namespace mirror of `proptest::prelude::prop`.
    pub mod prop {
        pub use crate::collection;
        pub use crate::sample;
    }
}

/// Uniform choice between strategies producing the same type.
#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {
        $crate::Union::new(vec![ $( $crate::Strategy::boxed($arm) ),+ ])
    };
}

/// Asserts inside a property test.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => { assert!($cond) };
    ($cond:expr, $($fmt:tt)*) => { assert!($cond, $($fmt)*) };
}

/// Asserts equality inside a property test.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => { assert_eq!($a, $b) };
    ($a:expr, $b:expr, $($fmt:tt)*) => { assert_eq!($a, $b, $($fmt)*) };
}

/// Skips the current generated case unless `cond` holds.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return Err($crate::TestCaseSkip);
        }
    };
}

/// Declares property tests: each `fn name(arg in strategy, …) { body }`
/// becomes a `#[test]` running `body` over `config.cases` generated inputs.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl!{ ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl!{ ($crate::ProptestConfig::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    ( ($cfg:expr) $( #[test] fn $name:ident ( $( $arg:ident in $strat:expr ),+ $(,)? ) $body:block )* ) => {
        $(
            #[test]
            fn $name() {
                let config: $crate::ProptestConfig = $cfg;
                let mut rng = $crate::TestRng::for_test(concat!(module_path!(), "::", stringify!($name)));
                for _case in 0..config.cases {
                    $( let $arg = $crate::Strategy::generate(&($strat), &mut rng); )+
                    let run = move || -> ::std::result::Result<(), $crate::TestCaseSkip> {
                        $body
                        Ok(())
                    };
                    let _skip = run();
                }
            }
        )*
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn proptest_cases_env_overrides_config() {
        assert_eq!(crate::resolve_cases(Some("512"), 64), 512);
        assert_eq!(crate::resolve_cases(Some("not-a-number"), 64), 64);
        assert_eq!(crate::resolve_cases(None, 64), 64);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn ranges_respect_bounds(x in 3u64..17, y in -5i64..5) {
            prop_assert!((3..17).contains(&x));
            prop_assert!((-5..5).contains(&y));
        }

        #[test]
        fn vec_sizes(v in prop::collection::vec(0u32..6, 2..9)) {
            prop_assert!(v.len() >= 2 && v.len() < 9);
            prop_assert!(v.iter().all(|&x| x < 6));
        }

        #[test]
        fn oneof_and_map(v in prop_oneof![
            (0i64..3).prop_map(|x| x * 10),
            Just(-1i64),
        ]) {
            prop_assert!(v == -1 || v % 10 == 0);
        }

        #[test]
        fn assume_skips(x in 0u64..10) {
            prop_assume!(x > 3);
            prop_assert!(x > 3);
        }

        #[test]
        fn index_resolves(i in any::<prop::sample::Index>()) {
            prop_assert!(i.index(7) < 7);
        }

        #[test]
        fn flat_map_dependent(pair in (1usize..5).prop_flat_map(|n| {
            prop::collection::vec(0usize..n, n).prop_map(move |v| (n, v))
        })) {
            let (n, v) = pair;
            prop_assert_eq!(v.len(), n);
            prop_assert!(v.iter().all(|&x| x < n));
        }

        #[test]
        fn btree_set_in_domain(s in prop::collection::btree_set(0u64..100, 0..20)) {
            prop_assert!(s.len() < 20);
            prop_assert!(s.iter().all(|&x| x < 100));
        }
    }
}
