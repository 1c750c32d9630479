//! Checkers and unified producers (enumerators and random generators).
//!
//! §4 of *Computing Correctly with Inductive Relations* introduces
//! **producers**: bounded value-producing monadic actions that unify the
//! enumerator type `E A ≅ nat → list A` and the generator type
//! `G A ≅ nat → Rand → A`, each with `ret`, `bind`, and two failure
//! modes — `fail` (no inhabitant) and `fuel` (out of fuel). Checkers are
//! semi-decision procedures valued in the three-valued type
//! `option bool`:
//!
//! * `Some(true)` — the relation conclusively holds,
//! * `Some(false)` — it conclusively does not,
//! * `None` — more fuel is needed.
//!
//! This crate provides:
//!
//! * [`checker`] — `.&&`-style conjunction, negation, and the
//!   `backtracking` combinator of Figure 1,
//! * [`estream`] — lazy enumerator streams with an explicit out-of-fuel
//!   outcome ([`estream::Outcome::OutOfFuel`]), `enumerating`, and the
//!   mixed bind `bind_ec` that sequences an enumerator with a checker
//!   continuation,
//! * [`gen`] — first-class random generators and QuickChick's
//!   `backtrack` combinator,
//! * the converse mixed binds `bind_ce` / `bind_cg` that run a checker
//!   before continuing to produce,
//! * [`budget`] — cross-cutting execution budgets ([`budget::Budget`])
//!   and their running accounts ([`budget::Meter`]), orthogonal to the
//!   fuel discipline above; see that module's docs for the distinction,
//! * [`probe`] — search telemetry ([`probe::ExecProbe`]): structured
//!   events from the executors' charge sites, aggregated by
//!   [`probe::SearchStats`] or traced by [`probe::TraceProbe`],
//! * [`metrics`] — production telemetry: a lock-free
//!   [`metrics::MetricsRegistry`] of striped counters, gauges, and
//!   atomic log₂ histograms with deterministic JSON
//!   (schema `indrel.metrics/1`) and Prometheus text expositions.

#![warn(missing_docs)]

pub mod budget;
pub mod checker;
pub mod estream;
pub mod gen;
pub mod metrics;
pub mod probe;

pub use budget::{Budget, BudgetPool, Exhaustion, Meter, Resource, DEADLINE_POLL_PERIOD};
pub use checker::{backtracking, backtracking_metered, cand, cnot, cor, CheckResult};
pub use estream::{bind_ec, enumerating, EStream, Outcome};
pub use gen::{backtrack, Gen};
pub use metrics::{
    Counter, Determinism, Gauge, HistogramSnapshot, Log2Histogram, MetricsRegistry, MetricsSnapshot,
};
pub use probe::{
    json_escape, Event, ExecKind, ExecProbe, FailSite, NameTable, PremiseStats, RuleStats,
    SearchStats, TraceProbe,
};

/// Sequences a checker before an enumerator continuation (`bind_ce`).
///
/// `Some(true)` continues; `Some(false)` fails (empty enumeration);
/// `None` is an out-of-fuel outcome.
///
/// # Example
///
/// ```
/// use indrel_producers::{bind_ce, EStream, Outcome};
/// let s = bind_ce(Some(true), || EStream::ret(7));
/// assert_eq!(s.outcomes(), vec![Outcome::Val(7)]);
/// let s = bind_ce(Some(false), || EStream::ret(7));
/// assert!(s.outcomes().is_empty());
/// let s = bind_ce(None, || EStream::ret(7));
/// assert_eq!(s.outcomes(), vec![Outcome::OutOfFuel]);
/// ```
pub fn bind_ce<T: 'static>(check: CheckResult, k: impl FnOnce() -> EStream<T>) -> EStream<T> {
    match check {
        Some(true) => k(),
        Some(false) => EStream::empty(),
        None => EStream::fuel(),
    }
}

/// Sequences a checker before a generator continuation (`bind_cg`).
///
/// Both failure modes collapse to `None` on the generator side, as
/// sampling cannot distinguish them.
pub fn bind_cg<T>(check: CheckResult, k: impl FnOnce() -> Option<T>) -> Option<T> {
    match check {
        Some(true) => k(),
        Some(false) | None => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bind_cg_gates_generation() {
        assert_eq!(bind_cg(Some(true), || Some(1)), Some(1));
        assert_eq!(bind_cg(Some(false), || Some(1)), None);
        assert_eq!(bind_cg::<i32>(None, || Some(1)), None);
    }
}
