//! Offline drop-in subset of the `proptest` API.
//!
//! The build environment has no crates.io access, so the workspace vendors
//! the slice of proptest its tests use: the [`proptest!`] macro, string
//! strategies from a regex-like pattern, [`collection::vec`], [`any`],
//! tuples, ranges, [`Just`], `prop_oneof!`, `prop_assert*!` and
//! [`prop_assume!`].
//!
//! Semantics differ from upstream in one deliberate way: there is **no
//! shrinking** — a failing case panics with the generated inputs via the
//! normal assert message. Generation is deterministic per test name, so
//! failures reproduce.

use std::ops::{Range, RangeInclusive};

mod pattern;

/// Deterministic generator driving all strategies (SplitMix64).
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Seeds the generator from an arbitrary label (e.g. the test name).
    pub fn deterministic(label: &str) -> Self {
        // FNV-1a over the label, so each test gets a stable distinct stream.
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in label.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        TestRng { state: h }
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform `usize` in `[0, bound)`; `bound` must be nonzero.
    pub fn below(&mut self, bound: usize) -> usize {
        debug_assert!(bound > 0);
        (self.next_u64() % bound as u64) as usize
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Run configuration for a `proptest!` block.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of generated cases per test.
    pub cases: u32,
}

impl ProptestConfig {
    /// Config with an explicit case count.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 64 }
    }
}

/// A value generator. Unlike upstream there is no shrinking: a strategy is
/// just a deterministic-from-rng generation rule.
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Generates one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;
}

impl<S: Strategy + ?Sized> Strategy for &S {
    type Value = S::Value;
    fn generate(&self, rng: &mut TestRng) -> Self::Value {
        (**self).generate(rng)
    }
}

impl<S: Strategy + ?Sized> Strategy for Box<S> {
    type Value = S::Value;
    fn generate(&self, rng: &mut TestRng) -> Self::Value {
        (**self).generate(rng)
    }
}

/// String strategy from a regex-like pattern (see `pattern` for the
/// supported subset: literals, classes, groups, `{m,n}` repetition, `\PC`).
impl Strategy for str {
    type Value = String;
    fn generate(&self, rng: &mut TestRng) -> String {
        pattern::generate(self, rng)
    }
}

/// A strategy that always yields a clone of the given value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Uniform choice between boxed strategies (the `prop_oneof!` backend).
pub struct Union<V> {
    arms: Vec<Box<dyn Strategy<Value = V>>>,
}

impl<V> Union<V> {
    /// Builds a union; `arms` must be non-empty.
    pub fn new(arms: Vec<Box<dyn Strategy<Value = V>>>) -> Self {
        assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
        Union { arms }
    }
}

impl<V> Strategy for Union<V> {
    type Value = V;
    fn generate(&self, rng: &mut TestRng) -> V {
        let i = rng.below(self.arms.len());
        self.arms[i].generate(rng)
    }
}

/// Boxes a strategy as a trait object (used by `prop_oneof!` so arm types
/// unify).
pub fn boxed<S>(s: S) -> Box<dyn Strategy<Value = S::Value>>
where
    S: Strategy + 'static,
{
    Box::new(s)
}

macro_rules! impl_range_strategy_int {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                let lo = self.start as i128;
                let hi = self.end as i128;
                assert!(lo < hi, "empty range strategy");
                (lo + (rng.next_u64() as u128 % (hi - lo) as u128) as i128) as $t
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                let lo = *self.start() as i128;
                let hi = *self.end() as i128;
                assert!(lo <= hi, "empty range strategy");
                (lo + (rng.next_u64() as u128 % (hi - lo + 1) as u128) as i128) as $t
            }
        }
    )*};
}
impl_range_strategy_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! impl_range_strategy_float {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                self.start + (rng.unit() as $t) * (self.end - self.start)
            }
        }
    )*};
}
impl_range_strategy_float!(f32, f64);

macro_rules! impl_tuple_strategy {
    ($($name:ident),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            #[allow(non_snake_case)]
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                let ($($name,)+) = self;
                ($($name.generate(rng),)+)
            }
        }
    };
}
impl_tuple_strategy!(A);
impl_tuple_strategy!(A, B);
impl_tuple_strategy!(A, B, C);
impl_tuple_strategy!(A, B, C, D);
impl_tuple_strategy!(A, B, C, D, E);
impl_tuple_strategy!(A, B, C, D, E, F);

/// Types with a default "any value" strategy.
pub trait Arbitrary: Sized {
    /// Generates one arbitrary value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! impl_arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}
impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

impl Arbitrary for f64 {
    fn arbitrary(rng: &mut TestRng) -> f64 {
        // Mix of finite magnitudes; avoids NaN/inf which upstream also
        // excludes by default.
        let m = rng.unit() * 2.0 - 1.0;
        let e = (rng.below(41) as i32) - 20;
        m * 10f64.powi(e)
    }
}

/// Strategy produced by [`any`].
pub struct Any<T> {
    _marker: std::marker::PhantomData<T>,
}

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// The default strategy for `T`.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any {
        _marker: std::marker::PhantomData,
    }
}

/// Collection strategies.
pub mod collection {
    use super::{Strategy, TestRng};
    use std::ops::Range;

    /// Strategy for `Vec<S::Value>` with length drawn from a range.
    pub struct VecStrategy<S> {
        element: S,
        len: Range<usize>,
    }

    /// Vector of `element` values with length in `len`.
    pub fn vec<S: Strategy>(element: S, len: Range<usize>) -> VecStrategy<S> {
        assert!(len.start < len.end, "empty length range");
        VecStrategy { element, len }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = self.len.end - self.len.start;
            let n = self.len.start + rng.below(span.max(1));
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Character strategies.
pub mod char {
    use super::{Strategy, TestRng};

    /// Strategy for a char in an inclusive range.
    pub struct CharRange {
        lo: u32,
        hi: u32,
    }

    /// Uniform char between `lo` and `hi` (inclusive).
    pub fn range(lo: ::core::primitive::char, hi: ::core::primitive::char) -> CharRange {
        assert!(lo <= hi);
        CharRange {
            lo: lo as u32,
            hi: hi as u32,
        }
    }

    impl Strategy for CharRange {
        type Value = ::core::primitive::char;
        fn generate(&self, rng: &mut TestRng) -> ::core::primitive::char {
            // Resample on the (rare) surrogate gap.
            loop {
                let v = self.lo + rng.below((self.hi - self.lo + 1) as usize) as u32;
                if let Some(c) = ::core::primitive::char::from_u32(v) {
                    return c;
                }
            }
        }
    }
}

/// Everything tests normally import.
pub mod prelude {
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest, Just,
        ProptestConfig, Strategy,
    };
}

/// The test-defining macro. Each `fn name(arg in strategy, ...) { body }`
/// becomes a `#[test]` running `body` for `config.cases` generated inputs.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::proptest!(@with ($cfg); $($rest)*);
    };
    (@with ($cfg:expr); $($(#[$meta:meta])* fn $name:ident($($pat:pat_param in $strat:expr),+ $(,)?) $body:block)*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::ProptestConfig = $cfg;
                let mut rng = $crate::TestRng::deterministic(concat!(module_path!(), "::", stringify!($name)));
                for _case in 0..config.cases {
                    // Closure so prop_assume! can skip a case via `return`.
                    #[allow(clippy::redundant_closure_call)]
                    (|| {
                        $(let $pat = $crate::Strategy::generate(&($strat), &mut rng);)+
                        $body
                    })();
                }
            }
        )*
    };
    ($($rest:tt)*) => {
        $crate::proptest!(@with ($crate::ProptestConfig::default()); $($rest)*);
    };
}

/// Assert inside a proptest case.
#[macro_export]
macro_rules! prop_assert {
    ($($args:tt)*) => { assert!($($args)*) };
}

/// Assert equality inside a proptest case.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($args:tt)*) => { assert_eq!($($args)*) };
}

/// Assert inequality inside a proptest case.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($args:tt)*) => { assert_ne!($($args)*) };
}

/// Skip the current case when an assumption does not hold.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            return;
        }
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !($cond) {
            return;
        }
    };
}

/// Uniform choice among strategies yielding the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::Union::new(vec![$($crate::boxed($strat)),+])
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_and_vecs(x in 3usize..10, v in crate::collection::vec(any::<u8>(), 2..5)) {
            prop_assert!((3..10).contains(&x));
            prop_assert!((2..5).contains(&v.len()));
        }

        /// Doc comments and mut patterns are accepted.
        #[test]
        fn mut_pattern_and_tuples(mut t in (0u32..5, "[a-z]{2,4}"), flag in any::<bool>()) {
            t.0 += 1;
            prop_assert!((1..=5).contains(&t.0));
            prop_assert!((2..=4).contains(&t.1.len()));
            prop_assert!(t.1.bytes().all(|b| b.is_ascii_lowercase()));
            let _ = flag;
        }

        #[test]
        fn oneof_and_just(v in prop_oneof![Just(1u8), Just(7u8)], c in crate::char::range('a', 'f')) {
            prop_assert!(v == 1 || v == 7);
            prop_assert!(('a'..='f').contains(&c));
        }

        #[test]
        fn assume_skips(n in 0u32..10) {
            prop_assume!(n < 5);
            prop_assert!(n < 5);
        }
    }

    proptest! {
        #[test]
        fn default_config_block(n in 0u8..4) {
            prop_assert!(n < 4);
        }
    }

    #[test]
    fn patterns_generate_expected_shapes() {
        let mut rng = crate::TestRng::deterministic("shapes");
        for _ in 0..200 {
            let s = crate::Strategy::generate("[A-Za-z][A-Za-z0-9_]{0,14}", &mut rng);
            assert!((1..=15).contains(&s.chars().count()), "{s:?}");
            assert!(s.chars().next().unwrap().is_ascii_alphabetic());

            let p = crate::Strategy::generate("[a-z]{1,12}(/[a-z]{1,12}){0,2}", &mut rng);
            assert!(p.split('/').count() <= 3, "{p:?}");
            assert!(p.split('/').all(|seg| !seg.is_empty()), "{p:?}");

            let t = crate::Strategy::generate("[ -~\r\n\t]{0,40}", &mut rng);
            assert!(t.chars().count() <= 40);
            assert!(t
                .chars()
                .all(|c| c == '\r' || c == '\n' || c == '\t' || (' '..='~').contains(&c)));

            let any_printable = crate::Strategy::generate("\\PC{0,20}", &mut rng);
            assert!(any_printable.chars().count() <= 20);

            let lit = crate::Strategy::generate("[a-z]{1,8} = [0-9]{1,5}", &mut rng);
            assert!(lit.contains(" = "), "{lit:?}");
        }
    }

    #[test]
    fn deterministic_per_label() {
        let mut a = crate::TestRng::deterministic("same");
        let mut b = crate::TestRng::deterministic("same");
        let s: &str = "[0-9a-f]{8}";
        assert_eq!(
            crate::Strategy::generate(s, &mut a),
            crate::Strategy::generate(s, &mut b)
        );
    }
}
