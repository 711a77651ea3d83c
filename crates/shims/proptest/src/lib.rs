//! Offline stand-in for the `proptest` crate.
//!
//! The build environment for this repository cannot reach a crates.io
//! registry, so the workspace vendors the subset of proptest its property
//! tests rely on: the [`proptest!`] macro, `prop_assert*` / `prop_assume!`,
//! [`strategy::Strategy`] implementations for primitive ranges, `any::<T>()`,
//! tuples, `prop::collection::vec`, and string strategies for the simple
//! character-class regexes the tests use (`"[a-z_]{1,24}"` style).
//!
//! Semantics match upstream where it matters for these tests: each case is
//! generated from a deterministic per-test stream, assertion failures
//! report the generated inputs, and `prop_assume!` skips the case. There
//! is no shrinking — a failing case prints its inputs instead.

pub mod strategy;

pub mod prop {
    //! The `prop::` namespace (`prop::collection::vec`).

    pub mod collection {
        //! Collection strategies.

        use crate::strategy::{SizeRange, Strategy, VecStrategy};

        /// Vectors of `element` values with a length drawn from `size`.
        pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
            VecStrategy { element, size: size.into() }
        }
    }
}

/// Strategy producing any value of `T` (full value range for integers).
pub fn any<T: strategy::Arbitrary>() -> strategy::Any<T> {
    strategy::Any(std::marker::PhantomData)
}

pub mod prelude {
    //! Everything the `proptest!` tests import.

    pub use crate::strategy::Strategy;
    pub use crate::{any, prop, prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest};
}

/// Number of cases each property runs by default (upstream default is
/// 256; 96 keeps the engine-heavy suites fast while still exploring the
/// space).
pub const CASES: u64 = 96;

/// Number of cases each property runs: `PROPTEST_CASES` when it is set
/// to a number (as upstream honors it), [`CASES`] otherwise.
pub fn cases() -> u64 {
    std::env::var("PROPTEST_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(CASES)
}

/// Declares property tests. Each function body runs [`cases`] times with
/// inputs drawn from its strategies; `prop_assert*` failures abort the
/// test and print the offending inputs.
#[macro_export]
macro_rules! proptest {
    ($($(#[$attr:meta])* fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block)*) => {
        $(
            $(#[$attr])*
            fn $name() {
                // Deterministic per-test stream: hash the test name.
                let mut seed: u64 = 0xcbf2_9ce4_8422_2325;
                for b in stringify!($name).bytes() {
                    seed ^= b as u64;
                    seed = seed.wrapping_mul(0x1000_0000_01b3);
                }
                for case in 0..$crate::cases() {
                    let mut __rng = <::rand::rngs::StdRng as ::rand::SeedableRng>::seed_from_u64(
                        seed ^ (case.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
                    );
                    $(let $arg = $crate::strategy::Strategy::generate(&($strat), &mut __rng);)+
                    let __inputs = {
                        let mut s = String::new();
                        $(s.push_str(&format!("  {} = {:?}\n", stringify!($arg), &$arg));)+
                        s
                    };
                    let __result: ::std::result::Result<(), String> = (|| {
                        $body
                        Ok(())
                    })();
                    if let Err(message) = __result {
                        panic!(
                            "property {} failed at case {case}:\n{message}\ninputs:\n{__inputs}",
                            stringify!($name),
                        );
                    }
                }
            }
        )*
    };
}

/// Asserts a condition inside a property, reporting generated inputs on
/// failure.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return Err(format!("assertion failed: {}", stringify!($cond)));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return Err(format!($($fmt)+));
        }
    };
}

/// Asserts equality inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        if !(l == r) {
            return Err(format!("assertion failed: {:?} == {:?}", l, r));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        if !(l == r) {
            return Err(format!("{}: {:?} != {:?}", format!($($fmt)+), l, r));
        }
    }};
}

/// Asserts inequality inside a property.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        if l == r {
            return Err(format!("assertion failed: {:?} != {:?}", l, r));
        }
    }};
}

/// Skips the current case when the precondition does not hold.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return Ok(());
        }
    };
}
