//! The entry boundary of derived checkers.
//!
//! Every top-level derived-checker call — [`Library::check`], the
//! `try_*` calls and served requests — passes through one body,
//! [`Library::run_checker_entry`]: one budget step, then the session's
//! verdict table, if it has one ([`crate::memo`]), and only then the
//! search, which runs on the bytecode VM ([`crate::vm`]): every derived
//! checker compiles. So tabling, shared serving and the `try_*` budget
//! discipline behave the same however a top-level call arrives.
//!
//! Calls below the top level never come back here. An external
//! `CheckRel` premise charges the same entry step and enters its
//! callee's search directly, with no table lookup: inside the VM with
//! arguments borrowed from the calling frame, and from the plan
//! interpreter through [`Library::run_vm_search`]. Premise goals
//! seldom recur on their own: where a request repeats, its top-level
//! entry already answers it (see [`crate::memo`]).
//! Recursive self-calls re-enter the VM's own dispatch loop
//! (`RecSelf`). They descend into strict subterms of a tuple that
//! already missed at the entry, so per-level lookups would tax every
//! recursion of a miss-heavy workload for reuse that entry-level hits
//! capture anyway (measured: per-level tabling cost 3–5× overhead on
//! distinct-input sweeps and bought no additional hits).

use crate::error::DeriveError;
use crate::index::DispatchIndex;
use crate::library::Library;
use crate::plan::{Plan, LOCAL_COST};
use crate::vm::VmProgram;
use indrel_rel::RelEnv;
use indrel_term::{Pattern, RelId, Value};
use std::sync::Arc;

/// What a derived checker keeps next to its plan: the dispatch index
/// and the bytecode program every search below the entry boundary
/// runs.
pub(crate) struct CompiledChecker {
    pub(crate) rel: RelId,
    pub(crate) has_recursive: bool,
    /// First-argument discrimination index ([`crate::index`]); `None`
    /// when every input pattern is flexible.
    pub(crate) index: Option<DispatchIndex>,
    /// The plan as a flat bytecode program.
    pub(crate) prog: VmProgram,
    /// Per handler: whether some step costs more than a local one
    /// ([`LOCAL_COST`]), that is a checker, recursive or producer call,
    /// or an unconstrained instantiation.
    calls: Box<[bool]>,
}

impl CompiledChecker {
    /// Whether the session's verdict table answers `args`: some
    /// handler of their dispatch bucket makes a call. A bucket of local
    /// handlers only (BST's `Leaf`) decides in one search entry, no
    /// slower than a lookup, so its tuples are never fingerprinted,
    /// looked up or inserted.
    fn tabled(&self, args: &[Value]) -> bool {
        let bucket = match &self.index {
            Some(index) => index.candidates(args),
            None => &self.prog.all,
        };
        bucket.iter().any(|&i| self.calls[i as usize])
    }
}

/// A derived producer: its plan, one bytecode program that both
/// producer executors of [`crate::vm`] run, and the dispatch index only
/// the enumerator uses.
pub(crate) struct CompiledProducer {
    /// The plan it compiled, whose interpreted streams take over below
    /// the push-mode enumerator's depth limit (`vm::PUSH_DEPTH`).
    pub(crate) plan: Arc<Plan>,
    pub(crate) has_recursive: bool,
    /// Input-position discrimination index for the push-mode
    /// enumerator. The generator never dispatches through it: pruning
    /// a handler would change the weight total its draws range over.
    pub(crate) index: Option<DispatchIndex>,
    pub(crate) prog: VmProgram,
}

/// The dispatch index over a plan's input patterns.
fn dispatch_index(plan: &Plan) -> Option<DispatchIndex> {
    let rows: Vec<&[Pattern]> = plan
        .handlers
        .iter()
        .map(|h| h.input_pats.as_slice())
        .collect();
    DispatchIndex::build(&rows)
}

/// Compiles a checker plan. Must only be called on plans whose mode is
/// the all-input checker mode. Errors only on a plan shape the deriver
/// never emits ([`crate::vm::compile_vm`]).
pub(crate) fn compile_checker(plan: &Plan, env: &RelEnv) -> Result<CompiledChecker, DeriveError> {
    debug_assert!(plan.mode.is_checker());
    let index = dispatch_index(plan);
    // The bytecode compiler sees the index so it can elide head guards
    // that indexed dispatch already proves can never fail.
    let prog = crate::vm::compile_vm(plan, index.as_ref().map(DispatchIndex::pos), env)?;
    Ok(CompiledChecker {
        rel: plan.rel,
        has_recursive: plan.has_recursive_handlers(),
        index,
        prog,
        calls: plan
            .handlers
            .iter()
            .map(|h| h.steps.iter().any(|s| s.static_cost() > LOCAL_COST))
            .collect(),
    })
}

/// Compiles a producer plan, erring as [`compile_checker`] does. No
/// head guard is elided, because the generator runs every handler's
/// guards.
pub(crate) fn compile_producer(plan: Plan, env: &RelEnv) -> Result<CompiledProducer, DeriveError> {
    debug_assert!(!plan.mode.is_checker());
    Ok(CompiledProducer {
        prog: crate::vm::compile_vm(&plan, None, env)?,
        has_recursive: plan.has_recursive_handlers(),
        index: dispatch_index(&plan),
        plan: Arc::new(plan),
    })
}

impl Library {
    /// Runs a derived checker at the top-level entry boundary, mirroring
    /// `run_plan_check`'s fuel discipline exactly, with the session's
    /// verdict table ([`crate::memo`]) consulted on the way in: the
    /// entry step, then lookup, search and guarded insert for a tabled
    /// tuple, and a counted miss and the search for any other.
    //
    // Out of line: every top-level call jumps here, and inlined into
    // its one caller it would widen the handwritten checkers' path too.
    #[inline(never)]
    pub(crate) fn run_checker_entry(
        &self,
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
        // Sessions without a table pay one `OnceCell` load here.
        let Some(memo) = self.inner.memo.get() else {
            return self.run_vm_search(compiled, size, top, args);
        };
        // The table does not answer an untabled tuple, so its call
        // counts as a miss.
        if !compiled.tabled(args) {
            self.inner.memo_misses.set(self.inner.memo_misses.get() + 1);
            return self.run_vm_search(compiled, size, top, args);
        }
        // Decided verdicts are monotone in both fuels, so an entry
        // decided at dominated fuels answers this call outright. The
        // fingerprint is structural, so identical across the sessions
        // that share the table, and doubles as the shard key. The
        // interner borrow ends here, before the search re-enters.
        let rel = compiled.rel;
        let fp = crate::memo::query_fp(&mut self.inner.interner.borrow_mut(), rel, args);
        if let Some(verdict) = memo.lookup(rel, fp, args, size, top) {
            self.inner.memo_hits.set(self.inner.memo_hits.get() + 1);
            return Some(verdict);
        }
        self.inner.memo_misses.set(self.inner.memo_misses.get() + 1);
        let result = self.run_vm_search(compiled, size, top, args);
        match result {
            // Never cache under an exhausted meter: past that point
            // inner searches return early and verdicts can be
            // fabricated (the `try_*` entry points mask them with an
            // error). Exhaustion is sticky, so checking now covers the
            // whole search above.
            Some(verdict) => {
                if self.meter_intact() {
                    memo.insert(rel, fp, args, size, top, verdict);
                }
            }
            // The monotonicity boundary: `None` is not a verdict, a
            // larger fuel may still decide it. Never cached.
            None => memo.note_none_skipped(),
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use crate::library::{Library, LibraryBuilder};
    use crate::MemoStats;
    use indrel_rel::parse::parse_program;
    use indrel_rel::RelEnv;
    use indrel_term::{RelId, Universe, Value};

    fn even_lib() -> (Library, RelId) {
        let mut u = Universe::new();
        let mut env = RelEnv::new();
        parse_program(
            &mut u,
            &mut env,
            r"rel even' : nat :=
              | even_0 : even' 0
              | even_SS : forall n, even' n -> even' (S (S n))
              .",
        )
        .unwrap();
        let even = env.rel_id("even'").unwrap();
        let mut b = LibraryBuilder::new(u, env);
        b.derive_checker(even).unwrap();
        (b.build(), even)
    }

    #[test]
    fn session_counts_each_lookup_once() {
        let (lib, even) = even_lib();
        let lib = lib.with_memo();
        let six = [Value::nat(6)];
        // Miss, then insert at (10, 10): the search recursed 4 times.
        assert_eq!(lib.check(even, 10, 10, &six), Some(true));
        // Same fuels, then dominating fuels: hits.
        assert_eq!(lib.check(even, 10, 10, &six), Some(true));
        assert_eq!(lib.check(even, 12, 11, &six), Some(true));
        // Lower size misses; its search widens the entry in place.
        assert_eq!(lib.check(even, 9, 10, &six), Some(true));
        assert_eq!(lib.check(even, 9, 10, &six), Some(true));
        let s = lib.memo_stats();
        assert_eq!((s.hits, s.misses), (3, 2));
        assert_eq!((s.insertions, s.entries), (2, 1));
        assert_eq!(lib.shared_memo_counts(), (3, 2));
    }

    #[test]
    fn with_memo_is_session_state_and_fork_starts_without_a_table() {
        let (lib, even) = even_lib();
        assert!(!lib.memo_enabled());
        let lib = lib.with_memo();
        let clone = lib.clone();
        assert!(clone.memo_enabled(), "clones share the session's table");
        clone.check(even, 10, 10, &[Value::nat(8)]);
        assert_eq!(lib.memo_stats().entries, 1);
        let fork = lib.fork();
        assert!(!fork.memo_enabled(), "a fork starts with no table");
        fork.check(even, 10, 10, &[Value::nat(8)]);
        assert_eq!(fork.memo_stats(), MemoStats::default());
        // A second `with_memo` keeps the table it already has.
        let again = lib.with_memo();
        assert_eq!(again.memo_stats().entries, 1);
    }

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
