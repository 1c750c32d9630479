//! Fuzzing the derivation pipeline itself.
//!
//! Everywhere else in this workspace, derived checkers and producers
//! *test other programs*. This crate turns the tooling on itself: a
//! seeded generator ([`gen::gen_spec`]) produces random well-formed
//! relation specs — non-linear conclusions, function calls, negation,
//! existentials, mutual recursion — renders them as surface syntax
//! ([`spec::Spec::emit`]), and runs every one through a bank of nine
//! differential oracles ([`oracles`]) that pit independent layers of
//! the pipeline against each other (interpreter vs bytecode VM,
//! derived checker vs reference proof search, sequential vs parallel
//! runner, memoized vs plain sessions, concurrently served vs plain
//! sessions, …). Failing specs are minimized by a greedy shrinker
//! ([`shrink`]) and written out as reproducible DSL artifacts; the
//! `fuzz_pipeline` binary drives the whole loop deterministically from
//! a root seed.
//!
//! This is the paper's own methodology (§6 validates derived instances
//! against declarative semantics) applied at one level higher: instead
//! of validating the instances for a handful of case-study relations,
//! we search the space of *relation definitions* for one where any two
//! pipeline layers disagree.

#![warn(missing_docs)]

pub mod gen;
pub mod oracles;
pub mod shrink;
pub mod spec;

pub use gen::gen_spec;
pub use oracles::{
    run_dsl, run_dsl_with, Oracle, OracleOutcome, OracleParams, SpecFeatures, SpecReport,
};
pub use shrink::{shrink_spec, ShrinkResult};
pub use spec::Spec;
