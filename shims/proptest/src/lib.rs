//! Offline stand-in for the `proptest` crate.
//!
//! The build environment has no crate-registry access, so this shim
//! implements the subset of proptest the workspace's property tests use:
//!
//! * the [`proptest!`] macro with an optional
//!   `#![proptest_config(ProptestConfig::with_cases(n))]` header;
//! * [`Strategy`](strategy::Strategy) implemented for numeric `Range`s,
//!   tuples of strategies, [`strategy::Just`], and [`collection::vec`];
//! * `prop_map` composition and `any::<T>()`;
//! * `prop_assert!` / `prop_assert_eq!` / `prop_assert_ne!` /
//!   `prop_assume!`.
//!
//! Differences from real proptest: inputs are drawn uniformly (no value
//! biasing toward edge cases) and failures are **not shrunk** — the
//! failing case's values appear in the panic message via the standard
//! assertion formatting instead. Each test function's stream is seeded
//! from its name, so failures are reproducible run-to-run.

pub mod test_runner {
    //! Runner configuration and the deterministic input stream.

    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    /// Per-test configuration (subset of proptest's).
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        /// Number of random cases to run.
        pub cases: u32,
    }

    impl ProptestConfig {
        /// Config running `cases` random cases.
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            ProptestConfig { cases: 64 }
        }
    }

    /// Why one generated case did not pass (mirrors proptest's shape; the
    /// shim panics on failed assertions, so `Fail` only flows through
    /// explicit `return Err(...)`).
    #[derive(Debug)]
    pub enum TestCaseError {
        /// The case was skipped by `prop_assume!`.
        Reject,
        /// The case failed with a message.
        Fail(String),
    }

    /// The random stream strategies draw from.
    #[derive(Debug)]
    pub struct TestRng {
        inner: StdRng,
    }

    impl TestRng {
        /// Seeds the stream from a test name (stable across runs).
        pub fn from_name(name: &str) -> Self {
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for b in name.bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x100_0000_01b3);
            }
            TestRng {
                inner: StdRng::seed_from_u64(h),
            }
        }

        /// Next raw 64 random bits.
        pub fn next_u64(&mut self) -> u64 {
            self.inner.next_u64()
        }
    }

    impl RngCore for TestRng {
        fn next_u64(&mut self) -> u64 {
            self.inner.next_u64()
        }
    }
}

pub mod strategy {
    //! Input-generation strategies.

    use crate::test_runner::TestRng;
    use rand::SampleUniform;
    use std::marker::PhantomData;
    use std::ops::Range;

    /// A recipe for generating random values of one type.
    pub trait Strategy {
        /// The generated type.
        type Value;

        /// Draws one value from the strategy.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        /// Post-processes generated values with `f`.
        fn prop_map<O, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> O,
        {
            Map { inner: self, f }
        }
    }

    /// The [`Strategy::prop_map`] combinator.
    #[derive(Debug, Clone)]
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S, O, F> Strategy for Map<S, F>
    where
        S: Strategy,
        F: Fn(S::Value) -> O,
    {
        type Value = O;

        fn generate(&self, rng: &mut TestRng) -> O {
            (self.f)(self.inner.generate(rng))
        }
    }

    impl<T: SampleUniform> Strategy for Range<T> {
        type Value = T;

        fn generate(&self, rng: &mut TestRng) -> T {
            T::sample(self.start, self.end, rng)
        }
    }

    /// Always generates a clone of one value.
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;

        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    macro_rules! impl_tuple_strategy {
        ($($s:ident/$idx:tt),+) => {
            impl<$($s: Strategy),+> Strategy for ($($s,)+) {
                type Value = ($($s::Value,)+);

                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$idx.generate(rng),)+)
                }
            }
        };
    }

    impl_tuple_strategy!(A/0);
    impl_tuple_strategy!(A/0, B/1);
    impl_tuple_strategy!(A/0, B/1, C/2);
    impl_tuple_strategy!(A/0, B/1, C/2, D/3);

    /// Full-domain strategy for `any::<T>()`.
    #[derive(Debug, Clone, Copy)]
    pub struct Any<T> {
        _marker: PhantomData<T>,
    }

    /// Types `any::<T>()` can generate.
    pub trait Arbitrary: Sized {
        /// Draws a value from the type's full domain.
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    impl Arbitrary for u64 {
        fn arbitrary(rng: &mut TestRng) -> Self {
            rng.next_u64()
        }
    }

    impl Arbitrary for u32 {
        fn arbitrary(rng: &mut TestRng) -> Self {
            (rng.next_u64() >> 32) as u32
        }
    }

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> Self {
            rng.next_u64() & 1 == 1
        }
    }

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;

        fn generate(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }

    /// Strategy covering the whole domain of `T`.
    pub fn any<T: Arbitrary>() -> Any<T> {
        Any {
            _marker: PhantomData,
        }
    }
}

pub mod collection {
    //! Collection strategies.

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use rand::SampleUniform;
    use std::ops::Range;

    /// Length specification for [`vec()`]: a fixed size or a range.
    #[derive(Debug, Clone)]
    pub struct SizeRange {
        lo: usize,
        hi: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { lo: n, hi: n + 1 }
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            SizeRange {
                lo: r.start,
                hi: r.end,
            }
        }
    }

    /// Strategy producing a `Vec` of values from an element strategy.
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            let len = if self.size.hi - self.size.lo <= 1 {
                self.size.lo
            } else {
                usize::sample(self.size.lo, self.size.hi, rng)
            };
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// `Vec` strategy with a fixed or ranged length.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }
}

pub mod prelude {
    //! The imports property tests start from.

    pub use crate::strategy::{any, Just, Strategy};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest};
}

/// Asserts a property over a generated case (panics on failure; the shim
/// does not shrink).
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// Equality assertion inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

/// Inequality assertion inside a property.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($tt:tt)*) => { assert_ne!($($tt)*) };
}

/// Skips the current case when its precondition does not hold.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            return Err($crate::test_runner::TestCaseError::Reject);
        }
    };
}

/// Declares property tests: each `#[test] fn name(arg in strategy, ...)`
/// runs its body over `cases` random draws.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { $cfg; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { $crate::test_runner::ProptestConfig::default(); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    ($cfg:expr; $( $(#[$meta:meta])* fn $name:ident ( $( $arg:pat in $strat:expr ),+ $(,)? ) $body:block )* ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let __cfg: $crate::test_runner::ProptestConfig = $cfg;
                let mut __rng = $crate::test_runner::TestRng::from_name(concat!(
                    module_path!(), "::", stringify!($name)
                ));
                for __case in 0..__cfg.cases {
                    // Each case runs in a closure returning
                    // `Result<(), TestCaseError>` so bodies may use
                    // `prop_assume!` and `return Ok(())`, like upstream.
                    #[allow(unreachable_code, clippy::redundant_closure_call)]
                    let __outcome: ::std::result::Result<
                        (),
                        $crate::test_runner::TestCaseError,
                    > = (|| {
                        $( let $arg = $crate::strategy::Strategy::generate(&($strat), &mut __rng); )+
                        $body
                        Ok(())
                    })();
                    match __outcome {
                        Ok(()) | Err($crate::test_runner::TestCaseError::Reject) => {}
                        Err($crate::test_runner::TestCaseError::Fail(msg)) => {
                            panic!("proptest case failed: {msg}");
                        }
                    }
                }
            }
        )*
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    fn small_vec() -> impl Strategy<Value = Vec<f64>> {
        crate::collection::vec(-1.0f64..1.0, 3..7)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_in_bounds(x in -2.0f64..2.0, n in 1usize..9) {
            prop_assert!((-2.0..2.0).contains(&x));
            prop_assert!((1..9).contains(&n));
        }

        #[test]
        fn vec_lengths_respect_range(v in small_vec()) {
            prop_assert!((3..7).contains(&v.len()));
            for x in &v {
                prop_assert!((-1.0..1.0).contains(x));
            }
        }

        #[test]
        fn tuples_and_any(pair in (0usize..5, 0.0f64..1.0), bits in any::<u64>()) {
            prop_assert!(pair.0 < 5);
            prop_assert!((0.0..1.0).contains(&pair.1));
            prop_assert_eq!(bits, bits);
        }

        #[test]
        fn assume_skips_cases(n in 0usize..10) {
            prop_assume!(n >= 5);
            prop_assert!(n >= 5);
        }
    }
}
