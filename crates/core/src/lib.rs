//! The derivation engine: checkers, enumerators, and random generators
//! from inductive relations.
//!
//! This crate is the Rust reproduction of the central contribution of
//! *Computing Correctly with Inductive Relations* (PLDI 2022): a single
//! derivation algorithm whose three instantiations produce
//!
//! * **checkers** — semi-decision procedures `(size, args) → option bool`
//!   (Algorithm 1, generalized in §4),
//! * **enumerators** — bounded streams of outputs satisfying the
//!   relation, and
//! * **random generators** — sampling procedures for such outputs,
//!
//! one for every *mode* (assignment of input/output polarity to the
//! relation's arguments — the paper's `out_set`).
//!
//! # Pipeline
//!
//! 1. [`indrel_rel::preprocess`] rewrites non-linear conclusions and
//!    conclusion function calls into equality premises (§3.1);
//! 2. [`compile`] schedules each rule's premises into a [`plan::Plan`] —
//!    pattern matches, equality checks/bindings, checker calls,
//!    recursive calls, and producer calls — using the *compatibility*
//!    analysis of §4 ([`compat`]);
//! 3. the [`Library`] holds one plan (or a handwritten instance) per
//!    `(relation, mode)` key, auto-deriving dependencies on demand, and
//!    executes plans as checkers ([`Library::check`]), enumerators
//!    ([`Library::enumerate`]), or generators ([`Library::generate`]).
//!
//! # Example
//!
//! ```
//! use indrel_core::{LibraryBuilder, Mode};
//! use indrel_rel::{parse::parse_program, RelEnv};
//! use indrel_term::{Universe, Value};
//!
//! let mut u = Universe::new();
//! let mut env = RelEnv::new();
//! parse_program(&mut u, &mut env, r"
//!     rel even' : nat :=
//!     | even_0  : even' 0
//!     | even_SS : forall n, even' n -> even' (S (S n))
//!     .
//! ").unwrap();
//! let even = env.rel_id("even'").unwrap();
//!
//! let mut builder = LibraryBuilder::new(u, env);
//! builder.derive_checker(even).unwrap();
//! builder.derive_producer(even, Mode::producer(1, &[0])).unwrap();
//! let lib = builder.build();
//!
//! // checker: even' 4 holds, even' 3 does not
//! assert_eq!(lib.check(even, 10, 10, &[Value::nat(4)]), Some(true));
//! assert_eq!(lib.check(even, 10, 10, &[Value::nat(3)]), Some(false));
//!
//! // enumerator: the even numbers, in order
//! let evens: Vec<u64> = lib
//!     .enumerate(even, &Mode::producer(1, &[0]), 4, 4, &[])
//!     .values()
//!     .into_iter()
//!     .map(|out| out[0].as_nat().unwrap())
//!     .collect();
//! assert_eq!(evens, vec![0, 2, 4, 6, 8]);
//! ```

#![warn(missing_docs)]

pub mod compat;
pub mod compile;
pub(crate) mod entry;
pub mod error;
pub mod exec;
pub(crate) mod index;
pub mod library;
pub mod memo;
pub mod mode;
pub mod plan;
pub mod serve;
pub(crate) mod vm;

pub use error::{DeriveError, ExecError, InstanceKind};
pub use exec::BudgetedStream;
pub use library::{Library, LibraryBuilder, ProbeGuard, SharedLibrary};
pub use memo::{MemoStats, SharedMemo};
pub use mode::Mode;
pub use plan::{Handler, Plan, Step};
pub use serve::{FlightRecorder, Permit, RequestSpan, ServeConfig, Server, Session};
// Budgets live with the producer combinators; re-exported here because
// the `try_*` entry points take them. Probes likewise, for `arm_probe`.
pub use indrel_producers::{
    Budget, BudgetPool, Event, ExecKind, ExecProbe, Exhaustion, FailSite, Meter, NameTable,
    Resource, SearchStats, TraceProbe,
};

/// Derivation options.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DeriveOptions {
    /// Restrict the deriver to the core Algorithm 1 of §3 (linear
    /// constructor-term conclusions, no existentials, no function calls,
    /// no negation, no equalities). Used as the Table 1 baseline.
    pub algorithm1_only: bool,
    /// Ablation: when a recursive premise in a producer plan is fully
    /// instantiated, call the relation's checker instead of the default
    /// produce-and-match strategy of Figure 2.
    pub check_known_recursive: bool,
}
