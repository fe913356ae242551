//! # mdv-testkit
//!
//! A small, fully deterministic property-testing harness — the in-tree
//! replacement for `proptest`, with zero dependencies outside the
//! workspace.
//!
//! ## Property testing
//!
//! Test inputs are produced by [`Gen`] implementors (any
//! `Fn(&mut Source) -> T` closure qualifies) drawing primitive values from
//! a [`Source`]. The source records every 64-bit draw; when a property
//! fails, the recorded *choice stream* is shrunk greedily — chunks deleted,
//! values zeroed and halved — and the input is regenerated from the shrunk
//! stream. Because shrinking happens below the generators, every
//! combinator (maps, filters, recursion) shrinks for free, and a zeroed
//! stream regenerates each primitive at the minimum of its range.
//!
//! Runs are seeded with a fixed default so CI is reproducible; set
//! `MDV_PROP_SEED` to explore other universes and `MDV_PROP_CASES` to
//! scale iteration counts up or down (`ci/check.sh` relies on this).
//!
//! ```
//! mdv_testkit::property! {
//!     /// Addition commutes.
//!     fn add_commutes(src) {
//!         let a = src.i64_in(-100..100);
//!         let b = src.i64_in(-100..100);
//!         mdv_testkit::prop_assert_eq!(a + b, b + a);
//!     }
//! }
//! ```
//!
//! `DESIGN.md` §4 holds the workspace-wide module map locating this
//! crate's files.

mod gen;
mod runner;
mod source;

pub use gen::{vec_of, Gen};
pub use runner::{for_all, run_property, Config, TestResult};
pub use source::Source;

/// Fails the surrounding property when the condition is false.
///
/// Usable inside property bodies and [`for_all`] predicates (anything
/// returning [`TestResult`]).
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return Err(format!(
                "assertion failed: {} ({}:{})",
                stringify!($cond),
                file!(),
                line!()
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return Err(format!("{} ({}:{})", format!($($fmt)+), file!(), line!()));
        }
    };
}

/// Fails the surrounding property when the two values differ.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        if !(*l == *r) {
            return Err(format!(
                "assertion failed: `left == right` ({}:{})\n  left: {:?}\n right: {:?}",
                file!(),
                line!(),
                l,
                r
            ));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        if !(*l == *r) {
            return Err(format!(
                "{} ({}:{})\n  left: {:?}\n right: {:?}",
                format!($($fmt)+),
                file!(),
                line!(),
                l,
                r
            ));
        }
    }};
}

/// Fails the surrounding property when the two values are equal.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        if *l == *r {
            return Err(format!(
                "assertion failed: `left != right` ({}:{})\n  both: {:?}",
                file!(),
                line!(),
                l
            ));
        }
    }};
}

/// Declares `#[test]` functions that run a property over many generated
/// cases with shrinking. The body draws inputs from the `Source` binding
/// and asserts with the `prop_assert*` macros; `cases = N` overrides the
/// per-property default (the `MDV_PROP_CASES` environment variable
/// overrides both).
#[macro_export]
macro_rules! property {
    () => {};
    ($(#[$meta:meta])* fn $name:ident($src:ident) $body:block $($rest:tt)*) => {
        $(#[$meta])*
        #[test]
        fn $name() {
            let config = $crate::Config::from_env();
            $crate::run_property(stringify!($name), config, |$src: &mut $crate::Source| {
                $body
                #[allow(unreachable_code)]
                Ok(())
            });
        }
        $crate::property! { $($rest)* }
    };
    ($(#[$meta:meta])* fn $name:ident($src:ident) cases = $cases:expr; $body:block $($rest:tt)*) => {
        $(#[$meta])*
        #[test]
        fn $name() {
            let config = $crate::Config::from_env().with_default_cases($cases);
            $crate::run_property(stringify!($name), config, |$src: &mut $crate::Source| {
                $body
                #[allow(unreachable_code)]
                Ok(())
            });
        }
        $crate::property! { $($rest)* }
    };
}
