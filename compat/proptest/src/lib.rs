//! Offline stand-in for the `proptest` crate.
//!
//! The build environment has no network access, so this crate implements
//! the subset of the proptest 1.x API the workspace's property tests use:
//! the [`proptest!`] macro, range/`any`/`collection::vec` strategies, the
//! `prop_assert*` macros, and [`ProptestConfig::with_cases`]. Inputs are
//! drawn from a generator seeded deterministically from the test name, so
//! failures reproduce run-to-run.
//!
//! Failing cases are **shrunk**: every [`strategy::Strategy`] proposes
//! smaller candidate inputs for a failing value, one at a time, and the
//! runner greedily re-runs the property on them (panics silenced) until no
//! candidate still fails, then reports the minimal counterexample alongside
//! the original panic message. A shrink spends at most
//! [`runner::MAX_SHRINK_RUNS`] candidate runs and keeps at most one
//! candidate alive beside the failing value (the `proptest!` body takes its
//! own copy of it for the run), so a large failing input costs bounded time
//! and memory.

#![warn(missing_docs)]

/// Runner configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProptestConfig {
    /// Number of random cases per property.
    pub cases: u32,
}

impl ProptestConfig {
    /// A config running `cases` random cases per property.
    #[must_use]
    pub fn with_cases(cases: u32) -> Self {
        Self { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        Self { cases: 256 }
    }
}

/// The deterministic input generator behind the runner.
pub mod test_runner {
    /// SplitMix64-based generator used to draw test inputs.
    #[derive(Debug, Clone)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// A generator seeded from the FNV-1a hash of `name`, so every test
        /// gets its own reproducible stream.
        #[must_use]
        pub fn deterministic(name: &str) -> Self {
            let mut h: u64 = 0xCBF2_9CE4_8422_2325;
            for b in name.bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
            Self { state: h }
        }

        /// The next 64 random bits.
        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// A float uniform in `[0, 1)`.
        pub fn unit_f64(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
        }

        /// A uniform index in `[0, bound)`.
        ///
        /// # Panics
        ///
        /// Panics if `bound` is zero.
        pub fn index(&mut self, bound: u64) -> u64 {
            assert!(bound > 0, "cannot sample an empty range");
            self.next_u64() % bound
        }
    }
}

/// Strategies: how test inputs are drawn and shrunk.
pub mod strategy {
    use crate::test_runner::TestRng;

    /// Shrink candidates of one failing value, built one at a time as the
    /// runner asks for them.
    pub type Candidates<'a, T> = Box<dyn Iterator<Item = T> + 'a>;

    /// A recipe for drawing values of one type.
    pub trait Strategy {
        /// The value type produced.
        type Value;

        /// Draws one value.
        fn sample(&self, rng: &mut TestRng) -> Self::Value;

        /// Candidate simplifications of a failing value, most aggressive
        /// first, built lazily so that a large value never has more than
        /// the candidate under test alive beside it. Each candidate must
        /// itself be producible by this strategy and strictly "smaller"
        /// than `value` by some well-founded measure, so the runner's
        /// greedy descent terminates. The default proposes nothing (no
        /// shrinking).
        fn shrink<'a>(&'a self, value: &'a Self::Value) -> Candidates<'a, Self::Value> {
            let _ = value;
            Box::new(core::iter::empty())
        }
    }

    /// Pushes `cand` unless it duplicates an earlier candidate or the
    /// failing value itself.
    fn push_unique<T: PartialEq>(out: &mut Vec<T>, value: &T, cand: T) {
        if cand != *value && !out.contains(&cand) {
            out.push(cand);
        }
    }

    macro_rules! impl_int_range {
        ($($t:ty),*) => {$(
            impl Strategy for core::ops::Range<$t> {
                type Value = $t;
                fn sample(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty strategy range");
                    let span = (self.end as i128 - self.start as i128) as u64;
                    (self.start as i128 + rng.index(span) as i128) as $t
                }
                fn shrink<'a>(&'a self, value: &'a $t) -> Candidates<'a, $t> {
                    Box::new(
                        shrink_toward(self.start as i128, *value as i128)
                            .into_iter()
                            .map(|v| v as $t),
                    )
                }
            }
            impl Strategy for core::ops::RangeInclusive<$t> {
                type Value = $t;
                fn sample(&self, rng: &mut TestRng) -> $t {
                    let (lo, hi) = (*self.start(), *self.end());
                    assert!(lo <= hi, "empty strategy range");
                    let span = (hi as i128 - lo as i128 + 1) as u64;
                    (lo as i128 + rng.index(span) as i128) as $t
                }
                fn shrink<'a>(&'a self, value: &'a $t) -> Candidates<'a, $t> {
                    Box::new(
                        shrink_toward(*self.start() as i128, *value as i128)
                            .into_iter()
                            .map(|v| v as $t),
                    )
                }
            }
        )*};
    }
    impl_int_range!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    /// Integer shrink candidates toward `lo`: the bottom of the range, the
    /// midpoint, and the predecessor — halving gives log-time descent for
    /// large values, the predecessor guarantees the boundary is reachable.
    fn shrink_toward(lo: i128, value: i128) -> Vec<i128> {
        let mut out = Vec::new();
        if value <= lo {
            return out;
        }
        push_unique(&mut out, &value, lo);
        push_unique(&mut out, &value, lo + (value - lo) / 2);
        push_unique(&mut out, &value, value - 1);
        out
    }

    macro_rules! impl_float_range {
        ($($t:ty),*) => {$(
            impl Strategy for core::ops::Range<$t> {
                type Value = $t;
                fn sample(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty strategy range");
                    self.start + (self.end - self.start) * rng.unit_f64() as $t
                }
                fn shrink<'a>(&'a self, value: &'a $t) -> Candidates<'a, $t> {
                    Box::new(float_shrink_toward(self.start, *value).into_iter())
                }
            }
            impl Strategy for core::ops::RangeInclusive<$t> {
                type Value = $t;
                fn sample(&self, rng: &mut TestRng) -> $t {
                    let (lo, hi) = (*self.start(), *self.end());
                    assert!(lo <= hi, "empty strategy range");
                    lo + (hi - lo) * rng.unit_f64() as $t
                }
                fn shrink<'a>(&'a self, value: &'a $t) -> Candidates<'a, $t> {
                    Box::new(float_shrink_toward(*self.start(), *value).into_iter())
                }
            }

            impl Strategy for crate::strategy::Any<$t> {
                type Value = $t;
                fn sample(&self, rng: &mut TestRng) -> $t {
                    // Finite floats only: uniform sign/magnitude over a
                    // wide range.
                    ((rng.unit_f64() - 0.5) * 2e6) as $t
                }
                fn shrink<'a>(&'a self, value: &'a $t) -> Candidates<'a, $t> {
                    let mut out = Vec::new();
                    if *value != 0.0 {
                        push_unique(&mut out, value, 0.0);
                        push_unique(&mut out, value, *value / 2.0);
                    }
                    Box::new(out.into_iter())
                }
            }
        )*};
    }
    impl_float_range!(f32, f64);

    /// Float shrink candidates toward `lo`: the bottom of the range and the
    /// midpoint. Floats converge rather than terminate exactly, so the
    /// runner's step cap bounds the descent.
    fn float_shrink_toward<T>(lo: T, value: T) -> Vec<T>
    where
        T: Copy
            + PartialEq
            + PartialOrd
            + core::ops::Add<Output = T>
            + core::ops::Sub<Output = T>
            + core::ops::Div<Output = T>
            + From<u8>,
    {
        let mut out = Vec::new();
        // `partial_cmp` keeps NaN inert: anything incomparable shrinks to
        // nothing rather than propagating through the midpoint arithmetic.
        if lo.partial_cmp(&value) != Some(core::cmp::Ordering::Less) {
            return out;
        }
        push_unique(&mut out, &value, lo);
        push_unique(&mut out, &value, lo + (value - lo) / T::from(2u8));
        out
    }

    /// Strategy returned by [`crate::arbitrary::any`]: the full value range
    /// of `T`.
    #[derive(Debug, Clone, Copy)]
    pub struct Any<T> {
        pub(crate) _marker: core::marker::PhantomData<T>,
    }

    macro_rules! impl_any_int {
        ($($t:ty),*) => {$(
            impl Strategy for Any<$t> {
                type Value = $t;
                fn sample(&self, rng: &mut TestRng) -> $t {
                    rng.next_u64() as $t
                }
                fn shrink<'a>(&'a self, value: &'a $t) -> Candidates<'a, $t> {
                    let v = *value as i128;
                    let mut out = Vec::new();
                    if v != 0 {
                        push_unique(&mut out, value, 0);
                        push_unique(&mut out, value, (v / 2) as $t);
                        push_unique(&mut out, value, (v - v.signum()) as $t);
                    }
                    Box::new(out.into_iter())
                }
            }
        )*};
    }
    impl_any_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Strategy for Any<bool> {
        type Value = bool;
        fn sample(&self, rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
        fn shrink<'a>(&'a self, value: &'a bool) -> Candidates<'a, bool> {
            Box::new(value.then_some(false).into_iter())
        }
    }

    /// The tuple `value` with position `pos` replaced by `cand`, cloning
    /// only the other positions (`all` lists every position).
    macro_rules! tuple_with {
        ($value:ident, $pos:tt, $cand:ident, [$($all:tt)+]) => {{
            let pos: usize = $pos;
            let mut parts = ($((if $all == pos { None } else { Some($value.$all.clone()) }),)+);
            parts.$pos = Some($cand);
            ($(parts.$all.expect("every position is filled"),)+)
        }};
    }

    macro_rules! impl_tuple_strategy {
        ($($s:ident / $idx:tt),+) => {
            impl_tuple_strategy!(@impl [$($idx)+] $($s / $idx),+);
        };
        (@impl $all:tt $($s:ident / $idx:tt),+) => {
            impl<$($s: Strategy),+> Strategy for ($($s,)+)
            where
                $($s::Value: Clone),+
            {
                type Value = ($($s::Value,)+);

                fn sample(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$idx.sample(rng),)+)
                }

                /// Shrinks one position at a time, holding the others fixed
                /// — the form the `proptest!` runner needs, since each
                /// argument strategy only knows its own value space. A
                /// candidate takes the shrunk position as its strategy built
                /// it, so a large argument is never copied twice.
                fn shrink<'a>(&'a self, value: &'a Self::Value) -> Candidates<'a, Self::Value> {
                    let candidates: Candidates<'a, Self::Value> = Box::new(core::iter::empty());
                    $(
                        let candidates: Candidates<'a, Self::Value> = Box::new(candidates.chain(
                            self.$idx
                                .shrink(&value.$idx)
                                .map(move |cand| tuple_with!(value, $idx, cand, $all)),
                        ));
                    )+
                    candidates
                }
            }
        };
    }
    impl_tuple_strategy!(S0 / 0);
    impl_tuple_strategy!(S0 / 0, S1 / 1);
    impl_tuple_strategy!(S0 / 0, S1 / 1, S2 / 2);
    impl_tuple_strategy!(S0 / 0, S1 / 1, S2 / 2, S3 / 3);
    impl_tuple_strategy!(S0 / 0, S1 / 1, S2 / 2, S3 / 3, S4 / 4);
    impl_tuple_strategy!(S0 / 0, S1 / 1, S2 / 2, S3 / 3, S4 / 4, S5 / 5);
    impl_tuple_strategy!(S0 / 0, S1 / 1, S2 / 2, S3 / 3, S4 / 4, S5 / 5, S6 / 6);
    impl_tuple_strategy!(
        S0 / 0,
        S1 / 1,
        S2 / 2,
        S3 / 3,
        S4 / 4,
        S5 / 5,
        S6 / 6,
        S7 / 7
    );
}

/// `any::<T>()` strategies.
pub mod arbitrary {
    use crate::strategy::Any;

    /// A strategy over `T`'s full value range.
    #[must_use]
    pub fn any<T>() -> Any<T> {
        Any {
            _marker: core::marker::PhantomData,
        }
    }
}

/// Collection strategies.
pub mod collection {
    use crate::strategy::{Candidates, Strategy};
    use crate::test_runner::TestRng;

    /// An inclusive size range for generated collections.
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        lo: usize,
        hi: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            Self { lo: n, hi: n }
        }
    }

    impl From<core::ops::Range<usize>> for SizeRange {
        fn from(r: core::ops::Range<usize>) -> Self {
            assert!(r.start < r.end, "empty collection size range");
            Self {
                lo: r.start,
                hi: r.end - 1,
            }
        }
    }

    impl From<core::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: core::ops::RangeInclusive<usize>) -> Self {
            assert!(r.start() <= r.end(), "empty collection size range");
            Self {
                lo: *r.start(),
                hi: *r.end(),
            }
        }
    }

    /// Strategy for a `Vec` of values drawn from `element`.
    #[derive(Debug, Clone, Copy)]
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// A `Vec<S::Value>` strategy with a length drawn from `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S>
    where
        S::Value: Clone + PartialEq,
    {
        type Value = Vec<S::Value>;

        fn sample(&self, rng: &mut TestRng) -> Self::Value {
            let len = self.size.lo + rng.index((self.size.hi - self.size.lo + 1) as u64) as usize;
            (0..len).map(|_| self.element.sample(rng)).collect()
        }

        /// Shrinks the length first (halving toward the minimum, then
        /// dropping the last element), then each element in place via its
        /// own strategy's first candidate. Candidates are built one at a
        /// time, each a single copy of the vector.
        fn shrink<'a>(&'a self, value: &'a Self::Value) -> Candidates<'a, Self::Value> {
            let len = value.len();
            let mut lengths = Vec::new();
            if len > self.size.lo {
                let half = self.size.lo.max(len / 2);
                lengths.push(half);
                if half != len - 1 {
                    lengths.push(len - 1);
                }
            }
            let shorter = lengths.into_iter().map(move |n| value[..n].to_vec());
            let elements = value.iter().enumerate().filter_map(move |(i, elem)| {
                let cand = self.element.shrink(elem).next()?;
                let mut next = Vec::with_capacity(len);
                next.extend_from_slice(&value[..i]);
                next.push(cand);
                next.extend_from_slice(&value[i + 1..]);
                Some(next)
            });
            Box::new(shorter.chain(elements))
        }
    }
}

/// The case runner: panic capture, `prop_assume!` rejection, and greedy
/// shrinking of failing inputs.
pub mod runner {
    use std::cell::Cell;
    use std::panic::{self, AssertUnwindSafe};
    use std::sync::Once;

    /// Panic payload thrown by [`crate::prop_assume!`] to reject a case
    /// without failing the property.
    #[derive(Debug, Clone, Copy)]
    pub struct AssumeRejected;

    thread_local! {
        static QUIET: Cell<bool> = const { Cell::new(false) };
    }

    static HOOK: Once = Once::new();

    /// Installs (once, process-wide) a panic hook that stays silent while
    /// this thread is replaying property cases — otherwise every candidate
    /// probed during shrinking would print a backtrace.
    pub fn install_quiet_hook() {
        HOOK.call_once(|| {
            let prev = panic::take_hook();
            panic::set_hook(Box::new(move |info| {
                if !QUIET.with(Cell::get) {
                    prev(info);
                }
            }));
        });
    }

    /// Outcome of one property-case execution.
    #[derive(Debug)]
    pub enum CaseResult {
        /// The body returned normally.
        Pass,
        /// The body hit a failing `prop_assume!`; the case does not count
        /// as a failure.
        Reject,
        /// The body panicked with the contained message.
        Fail(String),
    }

    impl CaseResult {
        /// Whether this outcome is a failure.
        #[must_use]
        pub fn is_fail(&self) -> bool {
            matches!(self, Self::Fail(_))
        }
    }

    /// Runs one case body, translating panics into a [`CaseResult`].
    pub fn run_case(body: impl FnOnce()) -> CaseResult {
        QUIET.with(|q| q.set(true));
        let outcome = panic::catch_unwind(AssertUnwindSafe(body));
        QUIET.with(|q| q.set(false));
        match outcome {
            Ok(()) => CaseResult::Pass,
            Err(payload) => {
                if payload.downcast_ref::<AssumeRejected>().is_some() {
                    CaseResult::Reject
                } else {
                    CaseResult::Fail(payload_message(payload.as_ref()))
                }
            }
        }
    }

    fn payload_message(payload: &(dyn std::any::Any + Send)) -> String {
        if let Some(s) = payload.downcast_ref::<&'static str>() {
            (*s).to_owned()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "non-string panic payload".to_owned()
        }
    }

    /// Identity helper that pins a case closure's argument type to the
    /// strategy's `Value` — the [`crate::proptest!`] expansion uses it so
    /// method calls inside the property body resolve during type checking.
    pub fn case_fn<S, F>(strategy: &S, f: F) -> F
    where
        S: crate::strategy::Strategy,
        F: Fn(&S::Value) -> CaseResult,
    {
        let _ = strategy;
        f
    }

    /// Most candidate runs one shrink spends. A vector of `n` elements
    /// proposes up to `n + 2` candidates per step, each a full copy, so a
    /// large failing input stops here and reports the smallest failure
    /// found so far.
    pub const MAX_SHRINK_RUNS: usize = 4096;

    /// The outcome of [`shrink_failure`].
    #[derive(Debug)]
    pub struct Shrunk<V> {
        /// The smallest failing value found.
        pub value: V,
        /// Its panic message.
        pub message: String,
        /// Candidates adopted on the way down.
        pub steps: usize,
        /// Whether the descent reached a value none of whose candidates
        /// fails; `false` when it stopped at [`MAX_SHRINK_RUNS`].
        pub minimal: bool,
    }

    /// Greedily shrinks a failing input: repeatedly adopts the first shrink
    /// candidate that still fails, until no candidate does (a local
    /// minimum) or [`MAX_SHRINK_RUNS`] candidates have run. Only the
    /// candidate under test is alive beside the failing value.
    pub fn shrink_failure<S: crate::strategy::Strategy>(
        strategy: &S,
        mut failing: S::Value,
        mut message: String,
        run: impl Fn(&S::Value) -> CaseResult,
    ) -> Shrunk<S::Value> {
        let (mut runs, mut steps) = (0usize, 0usize);
        loop {
            let mut adopted = None;
            let mut capped = false;
            for cand in strategy.shrink(&failing) {
                if runs == MAX_SHRINK_RUNS {
                    capped = true;
                    break;
                }
                runs += 1;
                if let CaseResult::Fail(msg) = run(&cand) {
                    adopted = Some((cand, msg));
                    break;
                }
            }
            let Some((cand, msg)) = adopted else {
                return Shrunk {
                    value: failing,
                    message,
                    steps,
                    minimal: !capped,
                };
            };
            failing = cand;
            message = msg;
            steps += 1;
        }
    }
}

/// The glob-import surface mirroring `proptest::prelude::*`.
pub mod prelude {
    pub use crate as prop;
    pub use crate::arbitrary::any;
    pub use crate::strategy::Strategy;
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest, ProptestConfig,
    };
}

/// Asserts a condition inside a property (panics on failure; the runner
/// catches the panic and shrinks the inputs).
#[macro_export]
macro_rules! prop_assert {
    ($($args:tt)*) => { assert!($($args)*) };
}

/// Asserts equality inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($args:tt)*) => { assert_eq!($($args)*) };
}

/// Asserts inequality inside a property.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($args:tt)*) => { assert_ne!($($args)*) };
}

/// Skips the current case when the precondition does not hold: throws the
/// [`runner::AssumeRejected`] marker, which the case runner catches and
/// classifies as a rejection rather than a failure (the skipped case still
/// counts toward `cases`).
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            ::std::panic::panic_any($crate::runner::AssumeRejected);
        }
    };
}

/// Declares property tests: each `fn name(arg in strategy, ...) { body }`
/// becomes a `#[test]` drawing `cases` random inputs. A failing case is
/// shrunk to a minimal counterexample before the test panics.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_items! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items! { ($crate::ProptestConfig::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    (($cfg:expr)) => {};
    (($cfg:expr)
     $(#[$meta:meta])*
     fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
     $($rest:tt)*) => {
        $(#[$meta])*
        fn $name() {
            $crate::runner::install_quiet_hook();
            let __cfg: $crate::ProptestConfig = $cfg;
            let mut __rng = $crate::test_runner::TestRng::deterministic(concat!(
                module_path!(),
                "::",
                stringify!($name)
            ));
            // All argument strategies combine into one tuple strategy so
            // the shrinker can simplify any argument while holding the
            // others fixed.
            let __strategy = ($(($strat),)+);
            let __run = $crate::runner::case_fn(&__strategy, |__vals| {
                let ($($arg,)+) = ::core::clone::Clone::clone(__vals);
                $crate::runner::run_case(move || { $body })
            });
            for __case in 0..__cfg.cases {
                let __vals = $crate::strategy::Strategy::sample(&__strategy, &mut __rng);
                if let $crate::runner::CaseResult::Fail(__msg) = __run(&__vals) {
                    let __shrunk =
                        $crate::runner::shrink_failure(&__strategy, __vals, __msg, &__run);
                    let ($($arg,)+) = __shrunk.value;
                    let mut __inputs = ::std::string::String::new();
                    $(
                        if !__inputs.is_empty() {
                            __inputs.push_str(", ");
                        }
                        __inputs.push_str(concat!(stringify!($arg), " = "));
                        __inputs.push_str(&::std::format!("{:?}", $arg));
                    )+
                    ::std::panic!(
                        "property failed at case {} of {}; {} after {} shrink step(s): {}\n\
                         caused by: {}",
                        __case + 1,
                        __cfg.cases,
                        if __shrunk.minimal {
                            "minimal counterexample"
                        } else {
                            "smallest counterexample within the shrink-run cap"
                        },
                        __shrunk.steps,
                        __inputs,
                        __shrunk.message,
                    );
                }
            }
        }
        $crate::__proptest_items! { ($cfg) $($rest)* }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;
    use crate::runner::{run_case, shrink_failure, CaseResult};
    use std::cell::Cell;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Integer range strategies stay in bounds.
        #[test]
        fn int_ranges_in_bounds(a in 3u32..9, b in -5i16..=5, c in 0usize..4) {
            prop_assert!((3..9).contains(&a));
            prop_assert!((-5..=5).contains(&b));
            prop_assert!(c < 4);
        }

        /// Float strategies stay in bounds.
        #[test]
        fn float_ranges_in_bounds(x in -2.5f32..2.5, y in 0.0f64..1.0) {
            prop_assert!((-2.5..2.5).contains(&x));
            prop_assert!((0.0..1.0).contains(&y));
        }

        /// Vec strategies honor the size range.
        #[test]
        fn vec_sizes_in_bounds(v in prop::collection::vec(0u8..=255, 2..7)) {
            prop_assert!((2..7).contains(&v.len()));
        }

        /// `any` draws the full range without panicking.
        #[test]
        fn any_is_total(x in any::<u64>(), y in any::<i16>()) {
            prop_assert_eq!(x, x);
            let _ = y;
        }

        /// `prop_assume!` rejects cases without failing the property.
        #[test]
        fn assume_skips_odd_cases(x in 0u32..100) {
            prop_assume!(x % 2 == 0);
            prop_assert!(x % 2 == 0);
        }

        /// End-to-end shrinking: the greedy descent must land exactly on
        /// the smallest failing input, 10.
        #[test]
        #[should_panic(expected = "minimal counterexample")]
        fn failing_property_shrinks(x in 0u32..1000) {
            prop_assert!(x < 10, "x too large");
        }

        /// And the reported counterexample is the boundary value itself.
        #[test]
        #[should_panic(expected = "x = 10")]
        fn shrink_reaches_the_boundary(x in 0u32..1000) {
            prop_assert!(x < 10);
        }
    }

    #[test]
    fn rng_is_deterministic_per_name() {
        let mut a = crate::test_runner::TestRng::deterministic("x");
        let mut b = crate::test_runner::TestRng::deterministic("x");
        assert_eq!(a.next_u64(), b.next_u64());
        let mut c = crate::test_runner::TestRng::deterministic("y");
        assert_ne!(a.next_u64(), c.next_u64());
    }

    // Trailing comma + default config (no `#![proptest_config]` header).
    proptest! {
        #[test]
        fn trailing_comma_and_default_config_accepted(v in 0u8..10,) {
            prop_assert!(v < 10);
        }
    }

    /// Every shrink candidate of `value`, collected.
    fn candidates<S: Strategy>(strat: &S, value: &S::Value) -> Vec<S::Value> {
        strat.shrink(value).collect()
    }

    #[test]
    fn int_range_shrink_proposes_smaller_in_range_values() {
        let strat = 5u32..100;
        for cand in strat.shrink(&73) {
            assert!((5..73).contains(&cand), "candidate {cand} not smaller");
        }
        assert!(
            candidates(&strat, &5).is_empty(),
            "minimum has no candidates"
        );
        // The predecessor is always proposed, so descent can reach any
        // boundary exactly.
        assert!(candidates(&strat, &73).contains(&72));
        assert!(candidates(&strat, &73).contains(&5));
    }

    #[test]
    fn any_int_shrinks_toward_zero() {
        let strat = any::<i64>();
        assert_eq!(candidates(&strat, &-40), vec![0, -20, -39]);
        assert!(candidates(&strat, &0).is_empty());
        assert_eq!(candidates(&any::<bool>(), &true), vec![false]);
        assert!(candidates(&any::<bool>(), &false).is_empty());
    }

    #[test]
    fn float_range_shrink_proposes_smaller_values() {
        let strat = -1.0f64..1.0;
        let cands = candidates(&strat, &0.5);
        assert!(!cands.is_empty());
        for c in cands {
            assert!((-1.0..0.5).contains(&c), "candidate {c}");
        }
        assert!(candidates(&strat, &-1.0).is_empty());
    }

    #[test]
    fn vec_shrink_reduces_length_then_elements() {
        let strat = prop::collection::vec(0u8..10, 1..=8);
        let cands = candidates(&strat, &vec![5, 6, 7, 8]);
        // Length reductions come first, then one element at a time, in
        // order, each to its strategy's first candidate.
        assert_eq!(
            cands,
            vec![
                vec![5, 6],
                vec![5, 6, 7],
                vec![0, 6, 7, 8],
                vec![5, 0, 7, 8],
                vec![5, 6, 0, 8],
                vec![5, 6, 7, 0],
            ]
        );
        // Halving to the minimum length is not proposed twice.
        assert_eq!(candidates(&strat, &vec![0, 0]), vec![vec![0]]);
        // A minimal-length vector of minimal elements has no candidates.
        assert!(candidates(&strat, &vec![0]).is_empty());
    }

    #[test]
    fn tuple_strategy_shrinks_one_position_at_a_time() {
        let strat = (0u32..100, 0u32..100);
        let cands = candidates(&strat, &(50, 60));
        assert_eq!(
            cands,
            vec![(0, 60), (25, 60), (49, 60), (50, 0), (50, 30), (50, 59)]
        );
    }

    thread_local! {
        /// `Counted` values alive on this thread, and the most seen at once.
        static LIVE: Cell<(usize, usize)> = const { Cell::new((0, 0)) };
    }

    /// An element whose constructions, clones and drops are counted.
    #[derive(Debug, PartialEq)]
    struct Counted(u32);

    impl Counted {
        fn new(v: u32) -> Self {
            LIVE.with(|live| {
                let (now, peak) = live.get();
                live.set((now + 1, peak.max(now + 1)));
            });
            Self(v)
        }
    }

    impl Clone for Counted {
        fn clone(&self) -> Self {
            Self::new(self.0)
        }
    }

    impl Drop for Counted {
        fn drop(&mut self) {
            LIVE.with(|live| {
                let (now, peak) = live.get();
                live.set((now - 1, peak));
            });
        }
    }

    /// Draws and shrinks [`Counted`] values as its range does `u32`s.
    struct CountedIn(core::ops::Range<u32>);

    impl Strategy for CountedIn {
        type Value = Counted;
        fn sample(&self, rng: &mut crate::test_runner::TestRng) -> Counted {
            Counted::new(self.0.sample(rng))
        }
        fn shrink<'a>(&'a self, value: &'a Counted) -> crate::strategy::Candidates<'a, Counted> {
            Box::new(self.0.shrink(&value.0).map(Counted::new))
        }
    }

    /// A failing 50,000-element vector, in the one-tuple the `proptest!`
    /// expansion wraps arguments in, shrinks within the run cap: the
    /// property fails at full length only, so every step adopts one
    /// element's shrink and the descent stops at the cap with the smallest
    /// failure found so far. At no point is more than one candidate alive
    /// beside the failing value.
    #[test]
    fn a_large_failing_vector_shrinks_within_the_cap() {
        const LEN: usize = 50_000;
        crate::runner::install_quiet_hook();
        let strat = (prop::collection::vec(CountedIn(0..1000), 0..=LEN),);
        let (base, _) = LIVE.with(Cell::get);
        LIVE.with(|live| live.set((base, base)));
        let failing = ((0..LEN)
            .map(|i| Counted::new(500 + i as u32 % 7))
            .collect::<Vec<_>>(),);
        let sum = |v: &[Counted]| v.iter().map(|c| u64::from(c.0)).sum::<u64>();
        let start_sum = sum(&failing.0);
        let runs = Cell::new(0usize);
        let check = |v: &(Vec<Counted>,)| {
            runs.set(runs.get() + 1);
            let len = v.0.len();
            run_case(move || assert!(len < LEN, "full length"))
        };
        let shrunk = shrink_failure(&strat, failing, "seed".into(), check);
        assert!(!shrunk.minimal, "the descent must stop at the cap");
        assert_eq!(runs.get(), crate::runner::MAX_SHRINK_RUNS);
        assert_eq!(shrunk.value.0.len(), LEN);
        assert!(sum(&shrunk.value.0) < start_sum, "no smaller failure kept");
        let (now, peak) = LIVE.with(Cell::get);
        assert_eq!(now - base, LEN, "only the shrunk value is alive");
        assert!(
            peak - base <= 2 * LEN,
            "{} elements alive at once: more than one candidate",
            peak - base
        );
    }

    #[test]
    fn run_case_classifies_outcomes() {
        crate::runner::install_quiet_hook();
        assert!(matches!(run_case(|| {}), CaseResult::Pass));
        assert!(matches!(
            run_case(|| std::panic::panic_any(crate::runner::AssumeRejected)),
            CaseResult::Reject
        ));
        match run_case(|| panic!("boom {}", 7)) {
            CaseResult::Fail(msg) => assert!(msg.contains("boom 7")),
            other => panic!("expected failure, got {other:?}"),
        }
    }

    #[test]
    fn shrink_failure_descends_to_the_boundary() {
        crate::runner::install_quiet_hook();
        let strat = 0u64..1_000_000;
        // Property: fails iff value >= 777. Greedy descent from any failing
        // start must terminate exactly at 777.
        let check = |v: &u64| {
            let v = *v;
            run_case(move || assert!(v < 777, "too big: {v}"))
        };
        let shrunk = shrink_failure(&strat, 923_417, "seed".into(), check);
        assert_eq!(shrunk.value, 777);
        assert!(shrunk.message.contains("too big: 777"));
        assert!(shrunk.steps > 0);
        assert!(shrunk.minimal);
    }

    #[test]
    fn shrink_failure_ignores_rejected_candidates() {
        crate::runner::install_quiet_hook();
        let strat = 0u32..100;
        // Candidates below 50 are "rejected" (as if by prop_assume!), so
        // the descent may only move through values >= 50 and must stop at
        // the smallest non-rejected failing value.
        let check = |v: &u32| {
            let v = *v;
            run_case(move || {
                if v < 50 {
                    std::panic::panic_any(crate::runner::AssumeRejected);
                }
                assert!(v < 60);
            })
        };
        assert_eq!(shrink_failure(&strat, 90, "seed".into(), check).value, 60);
    }
}
