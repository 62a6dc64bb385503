//! Offline stand-in for the `proptest` crate.
//!
//! Implements the subset of proptest this workspace's property tests
//! use: range and tuple strategies, `prop::collection::vec`,
//! `prop_map`, the `proptest!` macro with an optional
//! `#![proptest_config(...)]` header, and `prop_assert!` /
//! `prop_assert_eq!`. Differences from the real crate, by design:
//!
//! * cases are generated from a seed derived deterministically from the
//!   test's module path and case index, so every run explores the same
//!   inputs (reproducibility over novelty);
//! * there is no shrinking — a failing case panics with the ordinary
//!   assertion message, and the deterministic seeding means the same
//!   case fails again under a debugger.

/// SplitMix64 generator used to produce test cases.
#[derive(Debug, Clone)]
pub struct TestRng(u64);

impl TestRng {
    /// Creates the generator for one `(test, case)` pair.
    pub fn for_case(test_name: &str, case: u64) -> Self {
        // FNV-1a over the test name, mixed with the case index.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in test_name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        TestRng(h ^ case.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    /// Next raw 64-bit output (SplitMix64).
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, bound)`; `bound` must be nonzero.
    pub fn below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        // Widening multiply keeps the bias negligible for test bounds.
        (((self.next_u64() as u128) * (bound as u128)) >> 64) as u64
    }
}

/// Runner configuration (`cases` is the only knob the shim honors).
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of generated cases per property.
    pub cases: u32,
}

impl ProptestConfig {
    /// Config running `cases` cases per property.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        // The real crate defaults to 256; 64 keeps the fitted-model
        // properties fast while still exercising varied inputs.
        ProptestConfig { cases: 64 }
    }
}

/// A generator of test-case values.
pub trait Strategy {
    /// The type of generated values.
    type Value;

    /// Draws one value.
    fn sample(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Map { inner: self, f }
    }
}

impl<S: Strategy + ?Sized> Strategy for &S {
    type Value = S::Value;
    fn sample(&self, rng: &mut TestRng) -> Self::Value {
        (**self).sample(rng)
    }
}

/// Strategy adapter produced by [`Strategy::prop_map`].
#[derive(Debug, Clone)]
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;
    fn sample(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.sample(rng))
    }
}

macro_rules! impl_int_range {
    ($($t:ty),*) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as u64).wrapping_sub(self.start as u64);
                self.start.wrapping_add(rng.below(span) as $t)
            }
        }
    )*};
}
impl_int_range!(u8, u16, u32, u64, usize);

macro_rules! impl_signed_range {
    ($($t:ty),*) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as i64).wrapping_sub(self.start as i64) as u64;
                self.start.wrapping_add(rng.below(span) as $t)
            }
        }
    )*};
}
impl_signed_range!(i8, i16, i32, i64, isize);

impl Strategy for std::ops::Range<f64> {
    type Value = f64;
    fn sample(&self, rng: &mut TestRng) -> f64 {
        assert!(self.start < self.end, "empty range strategy");
        self.start + rng.next_f64() * (self.end - self.start)
    }
}

macro_rules! impl_tuple_strategy {
    ($(($($s:ident : $i:tt),+)),*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn sample(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$i.sample(rng),)+)
            }
        }
    )*};
}
impl_tuple_strategy!(
    (A: 0, B: 1),
    (A: 0, B: 1, C: 2),
    (A: 0, B: 1, C: 2, D: 3),
    (A: 0, B: 1, C: 2, D: 3, E: 4),
    (A: 0, B: 1, C: 2, D: 3, E: 4, F: 5)
);

/// The `prop::` namespace (collection strategies).
pub mod prop {
    /// Collection strategies.
    pub mod collection {
        use super::super::{Strategy, TestRng};

        /// Strategy for `Vec`s of `elem` with a length drawn from `len`.
        pub fn vec<S: Strategy>(elem: S, len: std::ops::Range<usize>) -> VecStrategy<S> {
            VecStrategy { elem, len }
        }

        /// Strategy returned by [`vec()`].
        #[derive(Debug, Clone)]
        pub struct VecStrategy<S> {
            elem: S,
            len: std::ops::Range<usize>,
        }

        impl<S: Strategy> Strategy for VecStrategy<S> {
            type Value = Vec<S::Value>;
            fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
                let len = self.len.sample(rng);
                (0..len).map(|_| self.elem.sample(rng)).collect()
            }
        }
    }
}

/// Everything a property test file needs in scope.
pub mod prelude {
    pub use crate::prop;
    pub use crate::{prop_assert, prop_assert_eq, proptest};
    pub use crate::{ProptestConfig, Strategy, TestRng};
}

/// Defines property tests: each `fn name(arg in strategy, ...)` body is
/// run once per generated case.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { ($cfg); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { (<$crate::ProptestConfig as ::std::default::Default>::default()); $($rest)* }
    };
}

/// Implementation detail of [`proptest!`].
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    ( ($cfg:expr); $( $(#[$meta:meta])* fn $name:ident ( $($arg:ident in $strat:expr),* $(,)? ) $body:block )* ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let __config: $crate::ProptestConfig = $cfg;
                for __case in 0..__config.cases {
                    let mut __rng = $crate::TestRng::for_case(
                        concat!(module_path!(), "::", stringify!($name)),
                        __case as u64,
                    );
                    $(
                        let $arg = $crate::Strategy::sample(&($strat), &mut __rng);
                    )*
                    $body
                }
            }
        )*
    };
}

/// Property assertion; the shim panics (no shrinking to report).
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// Property equality assertion; the shim panics (no shrinking).
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn deterministic_per_case() {
        let mut a = TestRng::for_case("t", 3);
        let mut b = TestRng::for_case("t", 3);
        assert_eq!(a.next_u64(), b.next_u64());
        let mut c = TestRng::for_case("t", 4);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn ranges_respect_bounds() {
        let mut rng = TestRng::for_case("bounds", 0);
        for _ in 0..1000 {
            let x = (3u32..17).sample(&mut rng);
            assert!((3..17).contains(&x));
            let y = (-5i64..5).sample(&mut rng);
            assert!((-5..5).contains(&y));
            let z = (0.25f64..0.75).sample(&mut rng);
            assert!((0.25..0.75).contains(&z));
        }
    }

    proptest! {
        #[test]
        fn macro_generates_and_runs(xs in prop::collection::vec(0u32..10, 0..20), k in 1usize..5) {
            prop_assert!(xs.len() < 20);
            prop_assert!(xs.iter().all(|&x| x < 10));
            prop_assert_eq!(k.min(9), k);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4))]

        #[test]
        fn config_header_accepted(pair in (0u32..3, 0.0f64..1.0)) {
            prop_assert!(pair.0 < 3 && pair.1 < 1.0);
        }
    }

    #[test]
    fn prop_map_composes() {
        let strat = prop::collection::vec(0u32..5, 1..4).prop_map(|v| v.len());
        let mut rng = TestRng::for_case("map", 1);
        for _ in 0..100 {
            let len = strat.sample(&mut rng);
            assert!((1..4).contains(&len));
        }
    }
}
