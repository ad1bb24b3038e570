//! Offline stand-in for the subset of the [proptest](https://docs.rs/proptest)
//! API used by the netfence test suites.
//!
//! The build environment has no network access to crates.io, so the real
//! proptest crate cannot be fetched. This shim keeps the property tests
//! compiling and running with the same source code: each `proptest!` test
//! runs a fixed number of deterministic pseudo-random cases (seeded from the
//! test's module path, so failures reproduce across runs). It implements:
//!
//! * the [`proptest!`] macro with `pat in strategy` and `ident: Type`
//!   parameters;
//! * range strategies (`lo..hi`, `lo..` for the integer types and `f64`),
//!   tuple strategies, [`prelude::any`] and [`collection::vec`];
//! * [`prop_assert!`], [`prop_assert_eq!`], [`prop_assert_ne!`] and
//!   [`prop_assume!`].
//!
//! No shrinking is performed — a failing case panics with the generated
//! values bound in scope, which the deterministic seeding makes
//! reproducible.

/// Deterministic case generation driving the [`proptest!`] macro.
pub mod test_runner {
    /// Cases per property (the real proptest's default).
    pub const CASES: u64 = 256;

    /// A small deterministic RNG (xorshift64*), seeded per (test, case).
    #[derive(Debug, Clone)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// RNG for one case of one named test.
        pub fn for_case(test_name: &str, case: u64) -> Self {
            // FNV-1a over the name, mixed with the case index.
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for b in test_name.bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x100_0000_01b3);
            }
            let mut rng = TestRng { state: h ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1 };
            // Warm up so nearby seeds decorrelate.
            rng.next_u64();
            rng.next_u64();
            rng
        }

        /// Next raw 64-bit value.
        pub fn next_u64(&mut self) -> u64 {
            let mut x = self.state;
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            self.state = x;
            x.wrapping_mul(0x2545_F491_4F6C_DD1D)
        }

        /// Uniform value in `[0, n)`.
        pub fn below(&mut self, n: u64) -> u64 {
            assert!(n > 0, "empty range");
            self.next_u64() % n
        }

        /// Uniform `f64` in `[0, 1)`.
        pub fn unit(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
        }
    }
}

/// Value-generation strategies (a tiny subset of proptest's `Strategy`).
pub mod strategy {
    use super::test_runner::TestRng;
    use std::ops::{Range, RangeFrom};

    /// Something that can generate values for a property test case.
    pub trait Strategy {
        /// The generated type.
        type Value;
        /// Generate one value.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;
    }

    macro_rules! int_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range");
                    let span = (self.end as u64).wrapping_sub(self.start as u64);
                    self.start.wrapping_add(rng.below(span) as $t)
                }
            }
            impl Strategy for RangeFrom<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    // Wrapping: for a 64-bit-wide type starting at 0 the span
                    // (MAX - 0 + 1) does not fit in u64 and wraps to exactly
                    // 0, which the fallback below handles.
                    let span =
                        (<$t>::MAX as u64).wrapping_sub(self.start as u64).wrapping_add(1);
                    if span == 0 {
                        rng.next_u64() as $t
                    } else {
                        self.start.wrapping_add(rng.below(span) as $t)
                    }
                }
            }
        )*};
    }
    int_range_strategy!(u8, u16, u32, usize);

    impl Strategy for Range<u64> {
        type Value = u64;
        fn generate(&self, rng: &mut TestRng) -> u64 {
            assert!(self.start < self.end, "empty range");
            self.start + rng.below(self.end - self.start)
        }
    }
    impl Strategy for RangeFrom<u64> {
        type Value = u64;
        fn generate(&self, rng: &mut TestRng) -> u64 {
            let span = u64::MAX - self.start;
            if span == u64::MAX {
                rng.next_u64()
            } else {
                self.start + rng.below(span + 1)
            }
        }
    }

    impl Strategy for Range<i64> {
        type Value = i64;
        fn generate(&self, rng: &mut TestRng) -> i64 {
            assert!(self.start < self.end, "empty range");
            let span = self.end.wrapping_sub(self.start) as u64;
            self.start.wrapping_add(rng.below(span) as i64)
        }
    }

    impl Strategy for Range<f64> {
        type Value = f64;
        fn generate(&self, rng: &mut TestRng) -> f64 {
            self.start + rng.unit() * (self.end - self.start)
        }
    }

    macro_rules! tuple_strategy {
        ($(($($s:ident . $idx:tt),+))*) => {$(
            impl<$($s: Strategy),+> Strategy for ($($s,)+) {
                type Value = ($($s::Value,)+);
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$idx.generate(rng),)+)
                }
            }
        )*};
    }
    tuple_strategy! {
        (S0.0, S1.1)
        (S0.0, S1.1, S2.2)
        (S0.0, S1.1, S2.2, S3.3)
    }

    /// Types with a canonical "any value" strategy.
    pub trait Arbitrary {
        /// Generate an arbitrary value.
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    macro_rules! int_arbitrary {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut TestRng) -> $t {
                    rng.next_u64() as $t
                }
            }
        )*};
    }
    int_arbitrary!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }

    impl Arbitrary for f64 {
        fn arbitrary(rng: &mut TestRng) -> f64 {
            rng.unit()
        }
    }

    impl<const N: usize> Arbitrary for [u8; N] {
        fn arbitrary(rng: &mut TestRng) -> [u8; N] {
            let mut out = [0u8; N];
            for b in &mut out {
                *b = rng.next_u64() as u8;
            }
            out
        }
    }

    /// The strategy returned by [`any`](super::prelude::any).
    #[derive(Debug, Clone, Copy, Default)]
    pub struct Any<T>(std::marker::PhantomData<T>);

    impl<T> Any<T> {
        /// The `any::<T>()` strategy.
        pub fn new() -> Self {
            Any(std::marker::PhantomData)
        }
    }

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }
}

/// Collection strategies.
pub mod collection {
    use super::strategy::Strategy;
    use super::test_runner::TestRng;
    use std::ops::Range;

    /// Strategy for vectors with lengths drawn from a range.
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: Range<usize>,
    }

    /// A `Vec` of `size.start..size.end` elements drawn from `element`.
    pub fn vec<S: Strategy>(element: S, size: Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, size }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.end - self.size.start).max(1) as u64;
            let len = self.size.start + rng.below(span) as usize;
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// The commonly imported names.
pub mod prelude {
    pub use super::strategy::{Any, Arbitrary, Strategy};

    /// The canonical strategy generating any value of `T`.
    pub fn any<T: Arbitrary>() -> Any<T> {
        Any::new()
    }
}

/// Assert inside a property (shim: plain `assert!`).
#[macro_export]
macro_rules! prop_assert {
    ($($t:tt)*) => { assert!($($t)*) };
}

/// Assert equality inside a property (shim: plain `assert_eq!`).
#[macro_export]
macro_rules! prop_assert_eq {
    ($($t:tt)*) => { assert_eq!($($t)*) };
}

/// Assert inequality inside a property (shim: plain `assert_ne!`).
#[macro_export]
macro_rules! prop_assert_ne {
    ($($t:tt)*) => { assert_ne!($($t)*) };
}

/// Skip the current case when its inputs don't satisfy a precondition.
/// Only usable directly inside a `proptest!` body (which runs in a closure).
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            return;
        }
    };
}

/// Define property tests. Each function runs
/// [`test_runner::CASES`] deterministic cases.
#[macro_export]
macro_rules! proptest {
    () => {};
    (
        $(#[$meta:meta])*
        fn $name:ident($($params:tt)*) $body:block
        $($rest:tt)*
    ) => {
        $crate::__proptest_parse!{
            meta=[$(#[$meta])*] name=$name bindings=[] params=[$($params)*] body=$body
        }
        $crate::proptest!{ $($rest)* }
    };
}

/// Internal parameter-list muncher for [`proptest!`]. Not public API.
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_parse {
    // `pat in strategy, rest…`
    (meta=[$($meta:tt)*] name=$name:ident bindings=[$($b:tt)*]
     params=[$pat:pat_param in $strat:expr, $($rest:tt)*] body=$body:tt) => {
        $crate::__proptest_parse!{
            meta=[$($meta)*] name=$name bindings=[$($b)* [$pat, ($strat)]]
            params=[$($rest)*] body=$body
        }
    };
    // `pat in strategy` (final)
    (meta=[$($meta:tt)*] name=$name:ident bindings=[$($b:tt)*]
     params=[$pat:pat_param in $strat:expr] body=$body:tt) => {
        $crate::__proptest_parse!{
            meta=[$($meta)*] name=$name bindings=[$($b)* [$pat, ($strat)]]
            params=[] body=$body
        }
    };
    // `ident: Type, rest…` — sugar for `ident in any::<Type>()`
    (meta=[$($meta:tt)*] name=$name:ident bindings=[$($b:tt)*]
     params=[$id:ident : $ty:ty, $($rest:tt)*] body=$body:tt) => {
        $crate::__proptest_parse!{
            meta=[$($meta)*] name=$name
            bindings=[$($b)* [$id, ($crate::prelude::any::<$ty>())]]
            params=[$($rest)*] body=$body
        }
    };
    // `ident: Type` (final)
    (meta=[$($meta:tt)*] name=$name:ident bindings=[$($b:tt)*]
     params=[$id:ident : $ty:ty] body=$body:tt) => {
        $crate::__proptest_parse!{
            meta=[$($meta)*] name=$name
            bindings=[$($b)* [$id, ($crate::prelude::any::<$ty>())]]
            params=[] body=$body
        }
    };
    // Done: emit the test function.
    (meta=[$($meta:tt)*] name=$name:ident bindings=[$([$pat:pat_param, $strat:expr])*]
     params=[] body=$body:block) => {
        $($meta)*
        fn $name() {
            let __test_name = concat!(module_path!(), "::", stringify!($name));
            for __case in 0..$crate::test_runner::CASES {
                let mut __rng = $crate::test_runner::TestRng::for_case(__test_name, __case);
                $(
                    let $pat = $crate::strategy::Strategy::generate(&$strat, &mut __rng);
                )*
                // The closure gives `prop_assume!` an early-exit for this
                // case without aborting the whole loop.
                let mut __one_case = || -> () { $body };
                __one_case();
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;
    use crate::test_runner::TestRng;

    crate::proptest! {
        /// Ranges stay in bounds; typed args generate; tuples and vecs work.
        #[test]
        fn shim_generates_in_bounds(x in 5u64..50, flag: bool,
                                    pair in (0u32..4, 0.0f64..1.0),
                                    bytes in crate::collection::vec(any::<u8>(), 1..16)) {
            crate::prop_assert!((5..50).contains(&x));
            crate::prop_assert!(pair.0 < 4);
            crate::prop_assert!((0.0..1.0).contains(&pair.1));
            crate::prop_assert!(!bytes.is_empty() && bytes.len() < 16);
            let _ = flag;
        }

        #[test]
        fn assume_skips_cases(v in 0u32..10) {
            crate::prop_assume!(v % 2 == 0);
            crate::prop_assert!(v % 2 == 0);
        }
    }

    #[test]
    fn deterministic_per_test_and_case() {
        let a = TestRng::for_case("t", 3).next_u64();
        let b = TestRng::for_case("t", 3).next_u64();
        let c = TestRng::for_case("t", 4).next_u64();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn range_from_generates_at_or_above_start() {
        let mut rng = TestRng::for_case("range_from", 0);
        use crate::strategy::Strategy;
        for _ in 0..1000 {
            assert!((1u32..).generate(&mut rng) >= 1);
            assert!((1u64..).generate(&mut rng) >= 1);
            // Full-width ranges must not overflow the span computation even
            // in debug builds (usize is 64-bit here, u64 always).
            let _ = (0usize..).generate(&mut rng);
            let _ = (0u64..).generate(&mut rng);
        }
    }
}
