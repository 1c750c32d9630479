//! # indrel — computing correctly with inductive relations
//!
//! A Rust reproduction of *Computing Correctly with Inductive
//! Relations* (Paraskevopoulou, Eline, Lampropoulos — PLDI 2022): a
//! unifying framework that extracts three kinds of computational
//! content from inductively defined relations —
//!
//! * **checkers**: semi-decision procedures valued in the three-valued
//!   type `Option<bool>` (`Some(true)` / `Some(false)` / out-of-fuel
//!   `None`),
//! * **enumerators**: bounded lazy streams of satisfying assignments,
//! * **random generators**: QuickCheck-style samplers of satisfying
//!   assignments,
//!
//! all derived by three instantiations of one algorithm, and each
//! validated post-hoc for soundness, completeness, and monotonicity
//! against an independent reference semantics (the translation-
//! validation analogue of the paper's Ltac2 proofs).
//!
//! This crate is a facade: it re-exports the workspace's crates under
//! one roof and provides a [`prelude`]. See `DESIGN.md` for the system
//! inventory and `EXPERIMENTS.md` for the reproduction of the paper's
//! evaluation.
//!
//! # Quick start
//!
//! ```
//! use indrel::prelude::*;
//!
//! // 1. Write an inductive relation in the Coq-flavoured surface
//! //    syntax.
//! let mut universe = Universe::new();
//! let mut relations = RelEnv::new();
//! parse_program(&mut universe, &mut relations, r"
//!     rel le : nat nat :=
//!     | le_n : forall n, le n n
//!     | le_S : forall n m, le n m -> le n (S m)
//!     .
//! ").unwrap();
//! let le = relations.rel_id("le").unwrap();
//!
//! // 2. Derive computations.
//! let mut builder = LibraryBuilder::new(universe, relations);
//! builder.derive_checker(le).unwrap();
//! builder.derive_producer(le, Mode::producer(2, &[0])).unwrap();
//! let lib = builder.build();
//!
//! // 3. Check...
//! assert_eq!(lib.check(le, 20, 20, &[Value::nat(3), Value::nat(7)]), Some(true));
//! // ...enumerate...
//! let below: Vec<_> = lib
//!     .enumerate(le, &Mode::producer(2, &[0]), 8, 8, &[Value::nat(3)])
//!     .values();
//! assert_eq!(below.len(), 4); // 0, 1, 2, 3
//! // ...and validate (translation validation, §5 of the paper).
//! let cert = Validator::new(lib).unwrap().validate_checker(le);
//! assert!(cert.is_valid());
//! ```

pub use indrel_bst as bst;
pub use indrel_core as core;
pub use indrel_corpus as corpus;
pub use indrel_fuzz as fuzz;
pub use indrel_ifc as ifc;
pub use indrel_pbt as pbt;
pub use indrel_producers as producers;
pub use indrel_reflect as reflect;
pub use indrel_rel as rel;
pub use indrel_semantics as semantics;
pub use indrel_stlc as stlc;
pub use indrel_term as term;
pub use indrel_validate as validate;

/// The common imports for working with the framework.
pub mod prelude {
    pub use indrel_core::serve::RequestOutcome;
    pub use indrel_core::{
        Budget, BudgetPool, BudgetedStream, DeriveError, DeriveOptions, ExecError, ExecProbe,
        Exhaustion, FlightRecorder, InstanceKind, Library, LibraryBuilder, MemoStats, Mode, Permit,
        Plan, RequestSpan, Resource, SearchStats, ServeConfig, Server, Session, SharedLibrary,
        SharedMemo, TraceProbe,
    };
    pub use indrel_pbt::{Labels, Parallelism, RunReport, Runner, TestOutcome};
    pub use indrel_producers::{
        backtracking, bind_ec, cand, cnot, Counter, Determinism, EStream, Gauge, HistogramSnapshot,
        Log2Histogram, MetricsRegistry, MetricsSnapshot, Outcome,
    };
    pub use indrel_rel::parse::{parse_program, parse_relation};
    pub use indrel_rel::{Premise, RelEnv, Relation, Rule, RuleBuilder};
    pub use indrel_semantics::{Proof, ProofSystem, Tv};
    pub use indrel_term::{
        CtorId, DtId, Env, FunId, Pattern, RelId, TermExpr, TypeExpr, Universe, Value, VarId,
    };
    pub use indrel_validate::{
        CaseReport, Certificate, ValidateError, ValidationParams, Validator,
    };
}

#[cfg(test)]
mod tests {
    #[test]
    fn facade_reexports_compile() {
        use crate::prelude::*;
        let _ = Universe::new();
        let _ = RelEnv::new();
        let _ = Mode::checker(1);
    }
}
