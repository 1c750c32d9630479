//! Fuzz regression corpus: minimized specs that once exercised weak
//! spots of the derivation pipeline, pinned as tier-1 tests.
//!
//! Each test is one checked-in DSL spec run through the full
//! differential oracle bank (`indrel::fuzz::run_dsl`); the assertion
//! message names the violated oracle, so a future failure reads as
//! "oracle X broke on corpus spec Y" without rerunning the fuzzer. The
//! corpus stays non-empty even while the pipeline survives fuzzing
//! clean: the entries below are the minimized shapes that motivated
//! the oracle bank's defenses (operational budgets, skip-not-guess),
//! plus one representative per generator feature axis.

use indrel::fuzz::oracles::{Oracle, OracleOutcome};
use indrel::fuzz::run_dsl;

/// Asserts no oracle in the bank flags `src`, naming the oracle and
/// its evidence on failure.
fn assert_no_violation(src: &str) {
    let report = run_dsl(src);
    for (oracle, outcome) in &report.outcomes {
        if let OracleOutcome::Violation(msg) = outcome {
            panic!(
                "oracle `{}` violated on corpus spec:\n{src}\n{msg}",
                oracle.name()
            );
        }
    }
}

/// Asserts that the named oracle actually *ran* (was not skipped), so
/// a regression cannot hide behind a derivation rejection.
fn assert_ran(src: &str, oracle: Oracle) {
    let report = run_dsl(src);
    let (_, outcome) = report
        .outcomes
        .iter()
        .find(|(o, _)| *o == oracle)
        .expect("oracle in bank");
    assert_eq!(
        *outcome,
        OracleOutcome::Pass,
        "oracle `{}` did not pass on:\n{src}",
        oracle.name()
    );
}

/// Minimized from fuzz seed 0, case 4 (2026-08): two recursive
/// premises with existential subjects make the derived enumeration
/// grow as `E(f) ≈ E(f-1)²·f`; at fuel 6 this is ~10⁸ outcomes and the
/// original oracle bank hung on it. Kept as the witness that every
/// sweep must be operationally budgeted.
const EXISTENTIAL_BLOWUP: &str = r"rel r0 : nat :=
| r0_c0 : forall (x0 : nat), r0 x0
| r0_c1 : forall (x0 : nat) (x1 : nat) (x2 : nat), r0 (S x1) -> r0 x2 -> r0 x0
.";

#[test]
fn existential_blowup_completes_within_budget() {
    // The bank must terminate on this spec (budgeted skips are fine,
    // violations are not).
    assert_no_violation(EXISTENTIAL_BLOWUP);
    assert_ran(EXISTENTIAL_BLOWUP, Oracle::Roundtrip);
}

/// Non-linear conclusion (`x0` twice) plus a disequality premise: the
/// preprocessor must rewrite the repeated variable into an equality
/// the checker tests, and the pretty-printer must re-emit `<>`.
const NONLINEAR_DISEQ: &str = r"rel r0 : nat nat :=
| c0 : forall (x0 : nat), r0 x0 x0
| c1 : forall (x0 : nat) (x1 : nat), x0 <> x1 -> r0 x0 (S x1)
.";

#[test]
fn nonlinear_conclusion_with_disequality() {
    assert_no_violation(NONLINEAR_DISEQ);
    assert_ran(NONLINEAR_DISEQ, Oracle::CheckerVsReference);
    assert_ran(NONLINEAR_DISEQ, Oracle::EnumeratorVsChecker);
}

/// Negated recursive premise: the checker must flip the premise's
/// three-valued verdict, and negation must round-trip as `~ (…)`.
const NEGATED_PREMISE: &str = r"rel ev : nat :=
| ev0 : ev 0
| evSS : forall (n : nat), ev n -> ev (S (S n))
.
rel odd : nat :=
| odd1 : forall (n : nat), ~ (ev n) -> odd n
.";

#[test]
fn negated_premise_spec() {
    assert_no_violation(NEGATED_PREMISE);
    assert_ran(NEGATED_PREMISE, Oracle::CheckerVsReference);
    assert_ran(NEGATED_PREMISE, Oracle::InterpVsCompiled);
}

/// Function call in a conclusion: `plus` must be rewritten into an
/// equality premise by preprocessing and still agree with the
/// reference search, which evaluates it directly.
const FUNCALL_CONCLUSION: &str = r"rel double : nat nat :=
| d : forall (n : nat), double n (plus n n)
.";

#[test]
fn function_call_in_conclusion() {
    assert_no_violation(FUNCALL_CONCLUSION);
    assert_ran(FUNCALL_CONCLUSION, Oracle::CheckerVsReference);
    assert_ran(FUNCALL_CONCLUSION, Oracle::ProbeParity);
}

/// User datatype with a recursive constructor: pattern compilation
/// over non-`nat` values, exercised through every oracle.
const USER_ADT: &str = r"data d0 := K0_0 | K0_1 d0 .
rel grows : d0 d0 :=
| g0 : forall (x0 : d0), grows x0 (K0_1 x0)
| g1 : forall (x0 : d0) (x1 : d0), grows x0 x1 -> grows x0 (K0_1 x1)
.";

#[test]
fn user_datatype_spec() {
    assert_no_violation(USER_ADT);
    assert_ran(USER_ADT, Oracle::EnumeratorVsChecker);
    assert_ran(USER_ADT, Oracle::BudgetDeterminism);
}

/// Mutual block: derivation currently rejects it (`InstanceCycle`),
/// which must surface as a recorded skip — never a violation — while
/// the round-trip oracle still applies to the `mutual … end` rendering.
const MUTUAL_BLOCK: &str = r"mutual
rel ev2 : nat :=
| e0 : ev2 0
| eS : forall (n : nat), od2 n -> ev2 (S n)
.
rel od2 : nat :=
| oS : forall (n : nat), ev2 n -> od2 (S n)
.
end";

#[test]
fn mutual_block_roundtrips_and_skips_cleanly() {
    assert_no_violation(MUTUAL_BLOCK);
    assert_ran(MUTUAL_BLOCK, Oracle::Roundtrip);
    let report = run_dsl(MUTUAL_BLOCK);
    assert!(report.features.mutual);
    assert!(
        report
            .outcomes
            .iter()
            .any(|(o, out)| *o == Oracle::CheckerVsReference
                && matches!(out, OracleOutcome::Skip(_))),
        "mutual derivation rejection must be a recorded skip"
    );
}

/// The `le` relation from the paper: the canonical known-good spec.
/// Every oracle must run and pass — if any skips here, the bank lost
/// coverage.
const PAPER_LE: &str = r"rel le : nat nat :=
| le_n : forall (n : nat), le n n
| le_S : forall (n : nat) (m : nat), le n m -> le n (S m)
.";

#[test]
fn paper_le_passes_every_oracle() {
    let report = run_dsl(PAPER_LE);
    for (oracle, outcome) in &report.outcomes {
        assert_eq!(
            *outcome,
            OracleOutcome::Pass,
            "oracle `{}` must run and pass on the paper's `le`",
            oracle.name()
        );
    }
}
