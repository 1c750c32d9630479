//! The entry boundary of derived checkers.
//!
//! Every derived-checker call that arrives from outside the relation's
//! own recursion — a top-level [`Library::check`] or an external
//! `CheckRel` premise — passes through [`Library::run_checker_entry`]:
//! one budget step, then the serving layer's shared table and the
//! session memo table ([`crate::memo`]), and only then the search. The
//! search runs on the bytecode VM ([`crate::vm`]) when the plan
//! compiled, and on the plan interpreter ([`crate::exec`]) when it did
//! not, so tabling, shared serving and the `try_*` budget discipline
//! behave the same whichever executor answers.
//!
//! Recursive self-calls never come back here: the VM re-enters its own
//! dispatch loop (`RecSelf`) and the interpreter its own plan walk.
//! They descend into strict subterms of a tuple that already missed at
//! the entry, so per-level lookups would tax every recursion of a
//! miss-heavy workload for reuse that entry-level hits capture anyway
//! (measured: per-level tabling cost 3–5× overhead on distinct-input
//! sweeps and bought no additional hits).

use crate::index::DispatchIndex;
use crate::library::Library;
use crate::memo::Lookup;
use crate::plan::Plan;
use crate::vm::VmProgram;
use indrel_producers::probe::Event;
use indrel_term::{Pattern, RelId, Value};
use std::sync::Arc;

/// What a derived checker keeps next to its plan: the dispatch index
/// and, when every handler compiled, the bytecode program.
pub(crate) struct CompiledChecker {
    pub(crate) rel: RelId,
    pub(crate) has_recursive: bool,
    /// First-argument discrimination index ([`crate::index`]); `None`
    /// when every input pattern is flexible.
    pub(crate) index: Option<DispatchIndex>,
    /// The plan as a flat bytecode program. `None` is the per-relation
    /// fallback: the entry boundary runs this relation on the plan
    /// interpreter instead.
    pub(crate) vm: Option<VmProgram>,
}

/// Compiles a checker plan. Must only be called on plans whose mode is
/// the all-input checker mode.
pub(crate) fn compile_checker(plan: &Plan) -> CompiledChecker {
    debug_assert!(plan.mode.is_checker());
    let rows: Vec<&[Pattern]> = plan
        .handlers
        .iter()
        .map(|h| h.input_pats.as_slice())
        .collect();
    let index = DispatchIndex::build(&rows);
    // The bytecode compiler sees the index so it can elide head guards
    // that indexed dispatch already proves can never fail.
    let vm = crate::vm::compile_vm(plan, index.as_ref());
    CompiledChecker {
        rel: plan.rel,
        has_recursive: plan.has_recursive_handlers(),
        index,
        vm,
    }
}

impl Library {
    /// Runs a derived checker at an entry boundary, mirroring
    /// `run_plan_check`'s fuel discipline exactly, with the memo tables
    /// consulted on the way in.
    pub(crate) fn run_checker_entry(
        &self,
        plan: &Arc<Plan>,
        compiled: &CompiledChecker,
        size: u64,
        top: u64,
        args: &[Value],
    ) -> Option<bool> {
        // Budget charge: one step per checker entry (no-op when no
        // meter is armed). A memo hit still pays this step — the table
        // accelerates the search, it does not make work free.
        if !self.charge_step() {
            return None;
        }
        // Serving sessions consult the process-wide concurrent table
        // (crate::serve) first: monotone verdicts cached by any session
        // over the same frozen core answer this one too. Ordinary
        // sessions pay one `RefCell` borrow + `Option` check here.
        let shared = self.inner.shared_memo.borrow().clone();
        let Some(sm) = shared else {
            return self.run_memo_or_search(plan, compiled, size, top, args);
        };
        let rel = compiled.rel;
        // The fingerprint comes from this session's interner —
        // structural, so identical across sessions — and doubles as the
        // shard key.
        let fp = self.inner.memo.borrow_mut().query_fp(rel, args);
        if let Some(verdict) = sm.lookup(rel, fp, args, size, top) {
            self.inner.shared_hits.set(self.inner.shared_hits.get() + 1);
            self.probe(|| Event::MemoHit { rel });
            return Some(verdict);
        }
        self.inner
            .shared_misses
            .set(self.inner.shared_misses.get() + 1);
        self.probe(|| Event::MemoMiss { rel });
        let calls_before = self.inner.search_calls.get();
        let result = self.run_memo_or_search(plan, compiled, size, top, args);
        match result {
            // Same write guards as the local table below: no `None`, no
            // poisoned-meter fabrications, no trivial verdicts.
            Some(verdict) => {
                let cost = self.inner.search_calls.get() - calls_before;
                if cost >= crate::memo::MIN_SEARCH_COST && self.meter_intact() {
                    sm.insert(rel, fp, args, size, top, verdict);
                }
            }
            None => sm.note_none_skipped(),
        }
        result
    }

    /// The local-table half of an entry boundary: the session memo
    /// lookup (when enabled) wrapped around the search. Split from
    /// [`Library::run_checker_entry`] so serving sessions can layer the
    /// concurrent table on top.
    fn run_memo_or_search(
        &self,
        plan: &Arc<Plan>,
        compiled: &CompiledChecker,
        size: u64,
        top: u64,
        args: &[Value],
    ) -> Option<bool> {
        // Tabling (crate::memo): decided verdicts are monotone in both
        // fuels, so an entry decided at dominated fuels answers this
        // call outright. The borrow must end before the search below —
        // recursive calls re-enter this table.
        if !self.inner.memo_enabled.get() {
            return self.run_checker_search(plan, compiled, size, top, args);
        }
        let rel = compiled.rel;
        let fp = match self.inner.memo.borrow_mut().lookup(rel, args, size, top) {
            Lookup::Hit(verdict) => {
                self.probe(|| Event::MemoHit { rel });
                return Some(verdict);
            }
            Lookup::Miss(fp) => {
                self.probe(|| Event::MemoMiss { rel });
                fp
            }
        };
        let calls_before = self.inner.search_calls.get();
        let result = self.run_checker_search(plan, compiled, size, top, args);
        match result {
            // Never cache under an exhausted meter: past that point
            // inner searches return early and verdicts can be
            // fabricated (the `try_*` entry points mask them with an
            // error). Exhaustion is sticky, so checking now covers the
            // whole search above. The cost gate keeps leaf goals —
            // cheaper to re-derive than to cache — out of the table.
            Some(verdict) => {
                let cost = self.inner.search_calls.get() - calls_before;
                if cost >= crate::memo::MIN_SEARCH_COST && self.meter_intact() {
                    self.inner
                        .memo
                        .borrow_mut()
                        .insert(rel, fp, args, size, top, verdict);
                }
            }
            // The monotonicity boundary: `None` is not a verdict, a
            // larger fuel may still decide it. Never cached.
            None => self.inner.memo.borrow_mut().note_none_skipped(),
        }
        result
    }

    /// The search below the entry boundary: the bytecode VM when the
    /// plan compiled, the plan interpreter otherwise. The fallback
    /// charges and emits exactly what a
    /// [`Library::check_interpreted`] call does after its entry step,
    /// and bumps `search_calls` per search like the VM, so the memo
    /// cost gates see its work.
    fn run_checker_search(
        &self,
        plan: &Arc<Plan>,
        compiled: &CompiledChecker,
        size: u64,
        top: u64,
        args: &[Value],
    ) -> Option<bool> {
        match &compiled.vm {
            Some(prog) => self.run_vm_search(compiled, prog, size, top, args),
            None => {
                self.inner
                    .vm_fallbacks
                    .set(self.inner.vm_fallbacks.get() + 1);
                self.plan_check_search(plan, size, top, args)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::library::LibraryBuilder;
    use indrel_rel::parse::parse_program;
    use indrel_rel::RelEnv;
    use indrel_term::{Universe, Value};

    #[test]
    fn compiled_checker_supports_producer_calls() {
        // `between` routes its existential through an enumerator — the
        // ProduceExt instruction.
        let mut u = Universe::new();
        let mut env = RelEnv::new();
        parse_program(
            &mut u,
            &mut env,
            r"
            rel le : nat nat :=
            | le_n : forall n, le n n
            | le_S : forall n m, le n m -> le n (S m)
            .
            rel between : nat nat :=
            | b : forall n m p, le n m -> le (S m) p -> between n p
            .
            ",
        )
        .unwrap();
        let between = env.rel_id("between").unwrap();
        let mut b = LibraryBuilder::new(u, env);
        b.derive_checker(between).unwrap();
        let lib = b.build();
        assert!(lib.vm_compiled(between));
        assert_eq!(
            lib.check(between, 8, 8, &[Value::nat(1), Value::nat(3)]),
            Some(true)
        );
    }
}
