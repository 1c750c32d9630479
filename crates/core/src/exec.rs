//! Plan executors: one compilation, three instantiations.
//!
//! The same [`Plan`] is executed as a checker (three-valued, Figure 1),
//! an enumerator (lazy streams, Figure 2), or a random generator
//! (QuickChick `backtrack`), mirroring the paper's claim that all three
//! computations are instances of one derivation.
//!
//! Fuel discipline (§2): every plan execution takes a `size` — the
//! decreasing recursion fuel — and a `top_size`, which is handed (as
//! both parameters) to every *external* call, so that a nested checker
//! or producer starts with full fuel. Within a plan, recursive calls
//! decrement `size`; at `size == 0` only non-recursive handlers run,
//! plus an out-of-fuel outcome when recursive handlers were skipped.
//!
//! # Fuel vs. budget
//!
//! Fuel is *semantic*: it is part of the paper's definitions, and two
//! runs with the same fuel compute the same three-valued answer —
//! `None` at the fuel limit is itself a meaningful verdict ("more fuel
//! might decide this"). A [`Budget`] is *operational*: it bounds the
//! work the execution layer may spend — steps, backtracks, wall-clock
//! time, argument term size — without changing the meaning of any
//! answer produced within it. The budgeted entry points
//! ([`Library::try_check`], [`Library::try_decide`],
//! [`Library::try_enumerate`], [`Library::try_generate`]) arm a
//! [`Meter`] on the library for the duration of the call; every
//! executor charges whatever meter is armed, and the first failed
//! charge *poisons* the meter, making executors unwind with their
//! ordinary "no answer" values. The entry point then reports a
//! structured [`ExecError`] instead of a fabricated verdict. The
//! classic panicking entry points arm nothing and therefore pay almost
//! nothing for the mechanism.

use crate::error::{ExecError, InstanceKind};
use crate::library::{CheckerImpl, Library, ProducerImpl};
use crate::mode::Mode;
use crate::plan::{Plan, Step};
use indrel_producers::probe::{Event, ExecKind, FailSite};
use indrel_producers::{
    backtracking, backtracking_metered, bind_ce, bind_ec, cnot, enumerating, Budget, EStream,
    Meter, Outcome,
};
use indrel_term::{
    enumerate::{finite_size_bound, values_up_to},
    random::random_value,
    Env, Pattern, RelId, TermExpr, Value,
};
use std::rc::Rc;
use std::sync::Arc;

impl Library {
    /// Runs the checker for `rel` on fully instantiated `args`.
    ///
    /// `size` bounds the recursion; `top_size` is the fuel handed to
    /// external calls. The conventional entry point is
    /// `check(rel, s, s, args)`, matching the paper's
    /// `fun size in₁ … => rec size size in₁ …` wrapper.
    ///
    /// # Panics
    ///
    /// Panics if no checker instance exists for `rel` (derive or
    /// register one first).
    pub fn check(&self, rel: RelId, size: u64, top_size: u64, args: &[Value]) -> Option<bool> {
        let imp = self.require_checker(rel).unwrap_or_else(|e| panic!("{e}"));
        self.run_checker_impl(rel, imp, size, top_size, args)
    }

    fn run_checker_impl(
        &self,
        rel: RelId,
        imp: &CheckerImpl,
        size: u64,
        top_size: u64,
        args: &[Value],
    ) -> Option<bool> {
        match imp {
            CheckerImpl::Hand(f) => {
                if !self.charge_step() {
                    return None;
                }
                let _depth = self.probe_enter(rel, ExecKind::Checker);
                f(size, top_size, args)
            }
            // The derived executors emit their own Enter, so no event
            // here.
            CheckerImpl::Plan(plan, compiled) => {
                self.run_checker_entry(plan, compiled, size, top_size, args)
            }
        }
    }

    /// Runs the checker for `rel` through the *interpreted* plan
    /// executor instead of the bytecode VM — the oracle every compiled
    /// checker is held to, and the executor for plans that did not
    /// compile. Unindexed and unmemoized at every level; verdicts are
    /// identical to [`Library::check`], only the execution strategy
    /// differs.
    ///
    /// # Panics
    ///
    /// Panics if no checker instance exists for `rel`.
    pub fn check_interpreted(
        &self,
        rel: RelId,
        size: u64,
        top_size: u64,
        args: &[Value],
    ) -> Option<bool> {
        match self.require_checker(rel).unwrap_or_else(|e| panic!("{e}")) {
            CheckerImpl::Hand(f) => {
                if !self.charge_step() {
                    return None;
                }
                let _depth = self.probe_enter(rel, ExecKind::Checker);
                f(size, top_size, args)
            }
            CheckerImpl::Plan(plan, _) => self.run_plan_check(plan, size, top_size, args),
        }
    }

    /// Iterative-deepening driver over the checker: doubles the fuel
    /// until a definite verdict or until `max_fuel` is exceeded.
    ///
    /// §8 of the paper discusses deriving *decision* procedures by
    /// dropping the fuel; this driver keeps the fuel discipline (and
    /// hence totality) while giving the common "just decide it" user
    /// experience for relations whose checkers are complete. Genuinely
    /// semi-decidable instances (the `zero` relation on positive
    /// inputs) still return `None` at the fuel limit.
    ///
    /// # Panics
    ///
    /// Panics if no checker instance exists for `rel`.
    pub fn decide(&self, rel: RelId, args: &[Value], max_fuel: u64) -> Option<bool> {
        let mut fuel = 1u64;
        loop {
            if let Some(b) = self.check(rel, fuel, fuel, args) {
                return Some(b);
            }
            if fuel >= max_fuel {
                return None;
            }
            fuel = (fuel.saturating_mul(2)).min(max_fuel);
        }
    }

    /// Enumerates output tuples for the producer instance
    /// `(rel, mode)`, given values for the mode's input positions
    /// (ascending). Outputs follow the mode's output positions
    /// (ascending).
    ///
    /// # Panics
    ///
    /// Panics if no enumerator instance exists for `(rel, mode)`.
    pub fn enumerate(
        &self,
        rel: RelId,
        mode: &Mode,
        size: u64,
        top_size: u64,
        inputs: &[Value],
    ) -> EStream<Vec<Value>> {
        let entry = self
            .require_producer(rel, mode, InstanceKind::Enumerator)
            .unwrap_or_else(|e| panic!("{e}"));
        self.run_enum_impl(rel, entry, size, top_size, inputs)
    }

    fn run_enum_impl(
        &self,
        rel: RelId,
        entry: &ProducerImpl,
        size: u64,
        top_size: u64,
        inputs: &[Value],
    ) -> EStream<Vec<Value>> {
        let stream = if let Some(f) = &entry.hand_enum {
            // Derived enumerators announce themselves in run_plan_enum;
            // handwritten ones are opaque, so announce them here.
            self.probe(|| Event::Enter {
                rel,
                kind: ExecKind::Enumerator,
                depth: self.probe_depth(),
            });
            f(size, top_size, inputs)
        } else {
            // Unreachable expect (panic audit): every `entry` comes from
            // `require_producer`, which only returns entries where
            // `hand_enum` or `plan` is present; with no handwritten
            // instance, the plan is there by that guard.
            let plan = entry
                .plan
                .as_ref()
                .expect("require_producer checked")
                .clone();
            self.run_plan_enum(&plan, size, top_size, inputs)
        };
        // Report every tuple this instance delivers (probe snapshot at
        // stream-creation time, like the meter below).
        let stream = if self.probe_armed() {
            let lib = self.clone();
            stream.inspect(move |outs| {
                lib.probe(|| Event::TermProduced {
                    rel,
                    size: outs.iter().map(Value::size).sum(),
                });
            })
        } else {
            stream
        };
        // When a budget is armed, every element demanded from this
        // stream (handwritten or derived) charges a step.
        match self.active_meter() {
            Some(m) => stream.metered(m),
            None => stream,
        }
    }

    /// Randomly generates one output tuple for `(rel, mode)`, or `None`
    /// when generation failed (backtracking exhausted or out of fuel).
    ///
    /// # Panics
    ///
    /// Panics if no generator instance exists for `(rel, mode)`.
    pub fn generate(
        &self,
        rel: RelId,
        mode: &Mode,
        size: u64,
        top_size: u64,
        inputs: &[Value],
        rng: &mut dyn rand::RngCore,
    ) -> Option<Vec<Value>> {
        let entry = self
            .require_producer(rel, mode, InstanceKind::Generator)
            .unwrap_or_else(|e| panic!("{e}"));
        self.run_gen_impl(rel, entry, size, top_size, inputs, rng)
    }

    fn run_gen_impl(
        &self,
        rel: RelId,
        entry: &ProducerImpl,
        size: u64,
        top_size: u64,
        inputs: &[Value],
        rng: &mut dyn rand::RngCore,
    ) -> Option<Vec<Value>> {
        let out = if let Some(f) = &entry.hand_gen {
            if !self.charge_step() {
                return None;
            }
            let _depth = self.probe_enter(rel, ExecKind::Generator);
            f(size, top_size, inputs, rng)
        } else {
            // Unreachable expect (panic audit): as in `run_enum_impl`,
            // `require_producer` guarantees a plan when there is no
            // handwritten generator.
            let plan = entry
                .plan
                .as_ref()
                .expect("require_producer checked")
                .clone();
            self.run_plan_gen(&plan, size, top_size, inputs, rng)
        };
        if let Some(outs) = &out {
            self.probe(|| Event::TermProduced {
                rel,
                size: outs.iter().map(Value::size).sum(),
            });
        }
        out
    }

    // ------------------------------------------------------------------
    // Budgeted, panic-free entry points
    //
    // Arming discipline: only these entry points install a meter on the
    // library (saving and restoring any previous one, so nesting and
    // unwinding are safe). Internal executors never arm; they charge
    // whatever is armed via charge_step / charge_backtrack, which cost
    // one RefCell borrow when nothing is armed.
    // ------------------------------------------------------------------

    /// Charges one step on the armed meter, if any.
    #[inline]
    pub(crate) fn charge_step(&self) -> bool {
        match self.inner.meter.borrow().as_ref() {
            Some(m) => m.charge_step(),
            None => true,
        }
    }

    /// Charges one abandoned alternative on the armed meter, if any.
    #[inline]
    pub(crate) fn charge_backtrack(&self) -> bool {
        match self.inner.meter.borrow().as_ref() {
            Some(m) => m.charge_backtrack(),
            None => true,
        }
    }

    /// `true` when no armed meter has been exhausted — the memo layer's
    /// write guard (see [`crate::memo`]): verdicts observed after a
    /// meter was poisoned can be fabricated by early-unwinding inner
    /// searches, so they must not be cached. Exhaustion is sticky, so
    /// checking at write time covers the whole preceding search.
    #[inline]
    pub(crate) fn meter_intact(&self) -> bool {
        self.inner
            .meter
            .borrow()
            .as_ref()
            .is_none_or(|m| !m.is_exhausted())
    }

    /// The armed meter, if any (a cheap `Rc` clone).
    pub(crate) fn active_meter(&self) -> Option<Meter> {
        self.inner.meter.borrow().clone()
    }

    // ------------------------------------------------------------------
    // Probe emission (see `Library::arm_probe`)
    //
    // Mirrors the meter's arming discipline, but tuned for the emission
    // sites being pervasive: the armed check is one `Cell` load (no
    // `RefCell` borrow), events are built lazily inside closures that
    // never run unarmed, and the `no-probe` cargo feature compiles the
    // sites out entirely (the baseline for the probe_overhead bench).
    // ------------------------------------------------------------------

    /// `true` when a probe is armed (always `false` under `no-probe`).
    #[inline]
    pub(crate) fn probe_armed(&self) -> bool {
        #[cfg(not(feature = "no-probe"))]
        {
            self.inner.probe_armed.get()
        }
        #[cfg(feature = "no-probe")]
        {
            false
        }
    }

    /// Emits `f()` to the armed probe, if any.
    #[inline]
    pub(crate) fn probe(&self, f: impl FnOnce() -> Event) {
        #[cfg(not(feature = "no-probe"))]
        if self.inner.probe_armed.get() {
            self.inner.probe.borrow().record(f());
        }
        #[cfg(feature = "no-probe")]
        {
            let _ = f;
        }
    }

    /// Emits an [`Event::Enter`] at the current nesting depth and
    /// increments it until the returned guard drops. Returns `None`
    /// (emitting nothing) when no probe is armed. Bind the guard to a
    /// named variable (`let _depth = ...`); `let _ = ...` drops it
    /// immediately.
    #[inline]
    pub(crate) fn probe_enter(&self, rel: RelId, kind: ExecKind) -> Option<DepthGuard<'_>> {
        #[cfg(not(feature = "no-probe"))]
        if self.inner.probe_armed.get() {
            let depth = self.inner.depth.get();
            self.inner
                .probe
                .borrow()
                .record(Event::Enter { rel, kind, depth });
            self.inner.depth.set(depth + 1);
            return Some(DepthGuard { lib: self, depth });
        }
        let _ = (rel, kind);
        None
    }

    /// The current executor nesting depth (only advanced while a probe
    /// is armed).
    #[inline]
    pub(crate) fn probe_depth(&self) -> u32 {
        self.inner.depth.get()
    }

    /// Arms `meter` until the returned guard drops.
    fn arm_meter(&self, meter: Meter) -> MeterGuard<'_> {
        let prev = self.inner.meter.borrow_mut().replace(meter);
        MeterGuard { lib: self, prev }
    }

    /// [`Library::check`] without panics or hangs: validates the
    /// instance and arity up front, runs the checker under `budget`,
    /// and reports a budget cut-off as a structured [`ExecError`]
    /// instead of a fabricated verdict.
    ///
    /// `Ok(None)` still means "out of fuel" in the paper's sense — a
    /// semantic answer, distinct from the operational
    /// [`ExecError::BudgetExhausted`] / [`ExecError::Deadline`].
    ///
    /// # Errors
    ///
    /// [`ExecError::NoInstance`], [`ExecError::ArityMismatch`],
    /// [`ExecError::BudgetExhausted`], or [`ExecError::Deadline`].
    pub fn try_check(
        &self,
        rel: RelId,
        size: u64,
        top_size: u64,
        args: &[Value],
        budget: Budget,
    ) -> Result<Option<bool>, ExecError> {
        let imp = self.require_checker(rel)?;
        self.require_count(rel, self.inner.env.relation(rel).arity(), args.len())?;
        if budget.is_unlimited() {
            return Ok(self.run_checker_impl(rel, imp, size, top_size, args));
        }
        let meter = Meter::new(budget);
        admit_terms(&meter, args)?;
        let result = {
            let _armed = self.arm_meter(meter.clone());
            self.run_checker_impl(rel, imp, size, top_size, args)
        };
        match meter.exhaustion() {
            Some(e) => Err(e.into()),
            None => Ok(result),
        }
    }

    /// [`Library::try_check`] plus the meter's step usage — the serving
    /// layer ([`crate::serve`]) draws per-request step allotments from
    /// a shared [`BudgetPool`](indrel_producers::BudgetPool) and must
    /// hand back what a request leaves unspent, which requires seeing
    /// the armed meter's account (always a fresh meter here, even for
    /// unlimited budgets, so the count is exact).
    pub(crate) fn try_check_usage(
        &self,
        rel: RelId,
        size: u64,
        top_size: u64,
        args: &[Value],
        budget: Budget,
    ) -> (Result<Option<bool>, ExecError>, u64) {
        let imp = match self.require_checker(rel) {
            Ok(imp) => imp,
            Err(e) => return (Err(e), 0),
        };
        if let Err(e) = self.require_count(rel, self.inner.env.relation(rel).arity(), args.len()) {
            return (Err(e), 0);
        }
        let meter = Meter::new(budget);
        if let Err(e) = admit_terms(&meter, args) {
            return (Err(e), meter.steps_used());
        }
        let result = {
            let _armed = self.arm_meter(meter.clone());
            self.run_checker_impl(rel, imp, size, top_size, args)
        };
        match meter.exhaustion() {
            Some(e) => (Err(e.into()), meter.steps_used()),
            None => (Ok(result), meter.steps_used()),
        }
    }

    /// [`Library::decide`] under a budget: iterative deepening that
    /// stops with a structured error when the budget runs out, covering
    /// the whole fuel ladder with one deadline.
    ///
    /// # Errors
    ///
    /// As for [`Library::try_check`].
    pub fn try_decide(
        &self,
        rel: RelId,
        args: &[Value],
        max_fuel: u64,
        budget: Budget,
    ) -> Result<Option<bool>, ExecError> {
        let imp = self.require_checker(rel)?;
        self.require_count(rel, self.inner.env.relation(rel).arity(), args.len())?;
        let meter = Meter::new(budget);
        admit_terms(&meter, args)?;
        let _armed = (!budget.is_unlimited()).then(|| self.arm_meter(meter.clone()));
        let mut fuel = 1u64;
        loop {
            let r = self.run_checker_impl(rel, imp, fuel, fuel, args);
            if let Some(e) = meter.exhaustion() {
                return Err(e.into());
            }
            if let Some(b) = r {
                return Ok(Some(b));
            }
            if fuel >= max_fuel {
                return Ok(None);
            }
            fuel = (fuel.saturating_mul(2)).min(max_fuel);
        }
    }

    /// [`Library::enumerate`] without panics: validates up front, then
    /// returns a [`BudgetedStream`] that re-arms its meter around every
    /// element pulled, so one budget covers the whole (lazy)
    /// enumeration. The stream ends early when the budget runs out;
    /// [`BudgetedStream::values`] (or
    /// [`BudgetedStream::exhaustion_error`] after manual iteration)
    /// turns that cut-off into the structured error.
    ///
    /// # Errors
    ///
    /// [`ExecError::NoInstance`], [`ExecError::ArityMismatch`], or a
    /// budget error for over-sized input terms.
    pub fn try_enumerate(
        &self,
        rel: RelId,
        mode: &Mode,
        size: u64,
        top_size: u64,
        inputs: &[Value],
        budget: Budget,
    ) -> Result<BudgetedStream, ExecError> {
        let entry = self.require_producer(rel, mode, InstanceKind::Enumerator)?;
        self.require_count(rel, mode.arity() - mode.num_outs(), inputs.len())?;
        let meter = Meter::new(budget);
        admit_terms(&meter, inputs)?;
        let stream = self.run_enum_impl(rel, entry, size, top_size, inputs);
        Ok(BudgetedStream {
            lib: self.clone(),
            meter,
            stream,
        })
    }

    /// [`Library::generate`] without panics or hangs, under `budget`.
    ///
    /// `Ok(None)` still means ordinary generation failure (backtracking
    /// exhausted or out of fuel); budget cut-offs come back as `Err`.
    ///
    /// # Errors
    ///
    /// As for [`Library::try_check`].
    #[allow(clippy::too_many_arguments)] // mirrors `generate` + budget
    pub fn try_generate(
        &self,
        rel: RelId,
        mode: &Mode,
        size: u64,
        top_size: u64,
        inputs: &[Value],
        rng: &mut dyn rand::RngCore,
        budget: Budget,
    ) -> Result<Option<Vec<Value>>, ExecError> {
        let entry = self.require_producer(rel, mode, InstanceKind::Generator)?;
        self.require_count(rel, mode.arity() - mode.num_outs(), inputs.len())?;
        if budget.is_unlimited() {
            return Ok(self.run_gen_impl(rel, entry, size, top_size, inputs, rng));
        }
        let meter = Meter::new(budget);
        admit_terms(&meter, inputs)?;
        let result = {
            let _armed = self.arm_meter(meter.clone());
            self.run_gen_impl(rel, entry, size, top_size, inputs, rng)
        };
        match meter.exhaustion() {
            Some(e) => Err(e.into()),
            None => Ok(result),
        }
    }

    // ------------------------------------------------------------------
    // Scratch-buffer pool (single-threaded reuse of envs and argument
    // vectors — the executor's hottest allocations)
    // ------------------------------------------------------------------

    pub(crate) fn take_env(&self, nslots: usize) -> Env {
        let mut env = self.inner.pool.borrow_mut().envs.pop().unwrap_or_default();
        env.reset(nslots);
        env
    }

    pub(crate) fn put_env(&self, env: Env) {
        let mut pool = self.inner.pool.borrow_mut();
        if pool.envs.len() < 64 {
            pool.envs.push(env);
        }
    }

    pub(crate) fn take_args(&self) -> Vec<Value> {
        self.inner.pool.borrow_mut().args.pop().unwrap_or_default()
    }

    pub(crate) fn put_args(&self, mut args: Vec<Value>) {
        args.clear();
        let mut pool = self.inner.pool.borrow_mut();
        if pool.args.len() < 64 {
            pool.args.push(args);
        }
    }

    pub(crate) fn eval_into(&self, args: &[TermExpr], env: &Env) -> Vec<Value> {
        let mut vals = self.take_args();
        for a in args {
            vals.push(eval(a, env, self));
        }
        vals
    }

    /// `true` when enumerating `ty` up to `size` misses inhabitants —
    /// the enumeration is *truncated* and must count as out-of-fuel.
    pub(crate) fn raw_truncated(&self, ty: &indrel_term::TypeExpr, size: u64) -> bool {
        match finite_size_bound(&self.inner.universe, ty) {
            None => true,
            Some(bound) => bound > size,
        }
    }

    /// Memoized bounded-exhaustive enumeration of a type's values.
    pub(crate) fn raw_values(&self, ty: &indrel_term::TypeExpr, size: u64) -> Rc<Vec<Value>> {
        if let Some(hit) = self.inner.pool.borrow().raw_values.get(&(ty.clone(), size)) {
            return hit.clone();
        }
        let vals = Rc::new(values_up_to(&self.inner.universe, ty, size));
        self.inner
            .pool
            .borrow_mut()
            .raw_values
            .insert((ty.clone(), size), vals.clone());
        vals
    }

    // ------------------------------------------------------------------
    // Checker execution
    // ------------------------------------------------------------------

    pub(crate) fn run_plan_check(
        &self,
        plan: &Arc<Plan>,
        size: u64,
        top: u64,
        args: &[Value],
    ) -> Option<bool> {
        if !self.charge_step() {
            return None;
        }
        self.plan_check_search(plan, size, top, args)
    }

    /// The search body of [`Library::run_plan_check`], without its
    /// budget step: the entry boundary ([`crate::entry`]) runs plans
    /// that did not compile to bytecode through here after charging
    /// that step itself. Bumps `search_calls` once per search, like the
    /// VM, so the memo cost gates see interpreted work too.
    pub(crate) fn plan_check_search(
        &self,
        plan: &Arc<Plan>,
        size: u64,
        top: u64,
        args: &[Value],
    ) -> Option<bool> {
        self.inner
            .search_calls
            .set(self.inner.search_calls.get() + 1);
        let _depth = self.probe_enter(plan.rel, ExecKind::Checker);
        if size == 0 {
            let base = plan
                .handlers
                .iter()
                .enumerate()
                .filter(|(_, h)| !h.recursive)
                .map(|(i, _)| i);
            let mut r = self.backtrack_handlers(
                base.map(|i| move || self.probed_handler_check(plan, i, 0, top, args)),
            );
            if r == Some(false) && plan.has_recursive_handlers() {
                // Algorithm 1 line 11: quote an extra `None` option.
                r = None;
            }
            r
        } else {
            let size1 = size - 1;
            self.backtrack_handlers(
                (0..plan.handlers.len())
                    .map(|i| move || self.probed_handler_check(plan, i, size1, top, args)),
            )
        }
    }

    /// [`Library::handler_check`] bracketed with rule attempt /
    /// success / backtrack events (the emission points the VM's parity
    /// loop uses too).
    fn probed_handler_check(
        &self,
        plan: &Arc<Plan>,
        h_idx: usize,
        size_rem: u64,
        top: u64,
        args: &[Value],
    ) -> Option<bool> {
        self.probe(|| Event::RuleAttempt {
            rel: plan.rel,
            rule: h_idx as u32,
        });
        let r = self.handler_check(plan, h_idx, size_rem, top, args);
        match r {
            Some(true) => self.probe(|| Event::RuleSuccess {
                rel: plan.rel,
                rule: h_idx as u32,
            }),
            _ => self.probe(|| Event::Backtrack {
                rel: plan.rel,
                rule: h_idx as u32,
            }),
        }
        r
    }

    /// `backtracking`, charging the armed meter (if any) per abandoned
    /// handler.
    fn backtrack_handlers<F>(&self, options: impl IntoIterator<Item = F>) -> Option<bool>
    where
        F: FnOnce() -> Option<bool>,
    {
        match self.active_meter() {
            Some(m) => backtracking_metered(&m, options),
            None => backtracking(options),
        }
    }

    fn handler_check(
        &self,
        plan: &Arc<Plan>,
        h_idx: usize,
        size_rem: u64,
        top: u64,
        args: &[Value],
    ) -> Option<bool> {
        let h = &plan.handlers[h_idx];
        let mut env = self.take_env(h.nslots);
        debug_assert_eq!(h.input_pats.len(), args.len());
        for (pat, val) in h.input_pats.iter().zip(args) {
            if !pat.matches(val, &mut env) {
                self.put_env(env);
                self.probe(|| Event::UnifyFail {
                    rel: plan.rel,
                    rule: h_idx as u32,
                    site: FailSite::Inputs,
                });
                return Some(false);
            }
        }
        let r = self.steps_check(plan, h_idx, 0, &mut env, size_rem, top);
        self.put_env(env);
        r
    }

    fn steps_check(
        &self,
        plan: &Arc<Plan>,
        h_idx: usize,
        idx: usize,
        env: &mut Env,
        size_rem: u64,
        top: u64,
    ) -> Option<bool> {
        // Straight-line steps run in a loop; only producer steps (which
        // fan out over enumerated witnesses) recurse for their tail.
        let steps = &plan.handlers[h_idx].steps;
        let mut idx = idx;
        loop {
            let Some(step) = steps.get(idx) else {
                return Some(true);
            };
            match step {
                Step::EqCheck { lhs, rhs, negated } => {
                    let l = eval(lhs, env, self);
                    let r = eval(rhs, env, self);
                    if (l == r) == *negated {
                        self.probe(|| Event::UnifyFail {
                            rel: plan.rel,
                            rule: h_idx as u32,
                            site: FailSite::Step(idx as u32),
                        });
                        return Some(false);
                    }
                    idx += 1;
                }
                Step::EqBind { var, expr } => {
                    let v = eval(expr, env, self);
                    env.bind(*var, v);
                    idx += 1;
                }
                Step::MatchExpr { scrutinee, pattern } => {
                    let v = eval(scrutinee, env, self);
                    if pattern.matches(&v, env) {
                        idx += 1;
                    } else {
                        self.probe(|| Event::UnifyFail {
                            rel: plan.rel,
                            rule: h_idx as u32,
                            site: FailSite::Step(idx as u32),
                        });
                        return Some(false);
                    }
                }
                Step::CheckRel { rel, args, negated } => {
                    let vals = self.eval_into(args, env);
                    let mut r = self.check(*rel, top, top, &vals);
                    self.put_args(vals);
                    if *negated {
                        r = cnot(r);
                    }
                    match r {
                        Some(true) => idx += 1,
                        other => return other,
                    }
                }
                Step::RecCheck { args } => {
                    let vals = self.eval_into(args, env);
                    let r = self.run_plan_check(plan, size_rem, top, &vals);
                    self.put_args(vals);
                    match r {
                        Some(true) => idx += 1,
                        other => return other,
                    }
                }
                Step::ProduceExt {
                    rel,
                    mode,
                    in_args,
                    out_slots,
                } => {
                    let in_vals = self.eval_into(in_args, env);
                    let stream = self.enumerate(*rel, mode, top, top, &in_vals);
                    self.put_args(in_vals);
                    // bind_ec drains the stream eagerly, so the closure
                    // can borrow `out_slots` from the plan directly.
                    return bind_ec(stream, |outs| {
                        let mut env2 = env.clone();
                        for (slot, v) in out_slots.iter().zip(outs) {
                            env2.bind(*slot, v);
                        }
                        self.steps_check(plan, h_idx, idx + 1, &mut env2, size_rem, top)
                    });
                }
                Step::ProduceRec { in_args, out_slots } => {
                    let in_vals = self.eval_into(in_args, env);
                    let stream = self.run_plan_enum(plan, size_rem, top, &in_vals);
                    self.put_args(in_vals);
                    return bind_ec(stream, |outs| {
                        let mut env2 = env.clone();
                        for (slot, v) in out_slots.iter().zip(outs) {
                            env2.bind(*slot, v);
                        }
                        self.steps_check(plan, h_idx, idx + 1, &mut env2, size_rem, top)
                    });
                }
                Step::Unconstrained { var, ty } => {
                    let candidates = self.raw_values(ty, top);
                    let var = *var;
                    // A truncated domain means exhausting the candidates is
                    // not conclusive (the paper's enumerators surface this
                    // as a fuelE outcome; §5.1 monotonicity depends on it).
                    let mut needs_fuel = self.raw_truncated(ty, top);
                    for v in candidates.iter() {
                        let mut env2 = env.clone();
                        env2.bind(var, v.clone());
                        match self.steps_check(plan, h_idx, idx + 1, &mut env2, size_rem, top) {
                            Some(true) => return Some(true),
                            Some(false) => {}
                            None => needs_fuel = true,
                        }
                    }
                    return if needs_fuel { None } else { Some(false) };
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Enumerator execution
    // ------------------------------------------------------------------

    pub(crate) fn run_plan_enum(
        &self,
        plan: &Arc<Plan>,
        size: u64,
        top: u64,
        inputs: &[Value],
    ) -> EStream<Vec<Value>> {
        // Enter without a depth guard: the streams built here are lazy
        // and outlive this call, so scoped depth tracking would misnest.
        self.probe(|| Event::Enter {
            rel: plan.rel,
            kind: ExecKind::Enumerator,
            depth: self.probe_depth(),
        });
        let indices: Vec<usize> = if size == 0 {
            plan.handlers
                .iter()
                .enumerate()
                .filter(|(_, h)| !h.recursive)
                .map(|(i, _)| i)
                .collect()
        } else {
            (0..plan.handlers.len()).collect()
        };
        let size_rem = size.saturating_sub(1);
        let add_fuel = size == 0 && plan.has_recursive_handlers();
        let inputs: Rc<Vec<Value>> = Rc::new(inputs.to_vec());
        let mut thunks: Vec<Box<dyn FnOnce() -> EStream<Vec<Value>>>> = Vec::new();
        for i in indices {
            let lib = self.clone();
            let plan = plan.clone();
            let inputs = inputs.clone();
            thunks.push(Box::new(move || {
                lib.probe(|| Event::RuleAttempt {
                    rel: plan.rel,
                    rule: i as u32,
                });
                lib.handler_enum(&plan, i, size_rem, top, &inputs)
            }));
        }
        if add_fuel {
            thunks.push(Box::new(EStream::fuel));
        }
        enumerating(thunks)
    }

    fn handler_enum(
        &self,
        plan: &Arc<Plan>,
        h_idx: usize,
        size_rem: u64,
        top: u64,
        inputs: &[Value],
    ) -> EStream<Vec<Value>> {
        let h = &plan.handlers[h_idx];
        let mut env = Env::with_slots(h.nslots);
        debug_assert_eq!(h.input_pats.len(), inputs.len());
        for (pat, val) in h.input_pats.iter().zip(inputs) {
            if !pat.matches(val, &mut env) {
                self.probe(|| Event::UnifyFail {
                    rel: plan.rel,
                    rule: h_idx as u32,
                    site: FailSite::Inputs,
                });
                return EStream::empty();
            }
        }
        let lib = self.clone();
        let plan2 = plan.clone();
        self.steps_enum(plan, h_idx, 0, env, size_rem, top)
            .map(move |env| {
                lib.probe(|| Event::RuleSuccess {
                    rel: plan2.rel,
                    rule: h_idx as u32,
                });
                plan2.handlers[h_idx]
                    .outputs
                    .iter()
                    .map(|e| eval(e, &env, &lib))
                    .collect()
            })
    }

    fn steps_enum(
        &self,
        plan: &Arc<Plan>,
        h_idx: usize,
        idx: usize,
        mut env: Env,
        size_rem: u64,
        top: u64,
    ) -> EStream<Env> {
        let steps = &plan.handlers[h_idx].steps;
        let Some(step) = steps.get(idx) else {
            return EStream::ret(env);
        };
        match step {
            Step::EqCheck { lhs, rhs, negated } => {
                let holds = eval(lhs, &env, self) == eval(rhs, &env, self);
                if holds != *negated {
                    self.steps_enum(plan, h_idx, idx + 1, env, size_rem, top)
                } else {
                    self.probe(|| Event::UnifyFail {
                        rel: plan.rel,
                        rule: h_idx as u32,
                        site: FailSite::Step(idx as u32),
                    });
                    EStream::empty()
                }
            }
            Step::EqBind { var, expr } => {
                let v = eval(expr, &env, self);
                env.bind(*var, v);
                self.steps_enum(plan, h_idx, idx + 1, env, size_rem, top)
            }
            Step::MatchExpr { scrutinee, pattern } => {
                let v = eval(scrutinee, &env, self);
                if pattern.matches(&v, &mut env) {
                    self.steps_enum(plan, h_idx, idx + 1, env, size_rem, top)
                } else {
                    self.probe(|| Event::UnifyFail {
                        rel: plan.rel,
                        rule: h_idx as u32,
                        site: FailSite::Step(idx as u32),
                    });
                    EStream::empty()
                }
            }
            Step::CheckRel { rel, args, negated } => {
                let vals = eval_args(args, &env, self);
                let mut r = self.check(*rel, top, top, &vals);
                if *negated {
                    r = cnot(r);
                }
                let lib = self.clone();
                let plan = plan.clone();
                bind_ce(r, move || {
                    lib.steps_enum(&plan, h_idx, idx + 1, env, size_rem, top)
                })
            }
            Step::RecCheck { .. } => {
                unreachable!("RecCheck only appears in checker plans")
            }
            Step::ProduceExt {
                rel,
                mode,
                in_args,
                out_slots,
            } => {
                let in_vals = eval_args(in_args, &env, self);
                let stream = self.enumerate(*rel, mode, top, top, &in_vals);
                self.bind_outs(
                    stream,
                    plan,
                    h_idx,
                    idx,
                    env,
                    out_slots.clone(),
                    size_rem,
                    top,
                )
            }
            Step::ProduceRec { in_args, out_slots } => {
                let in_vals = eval_args(in_args, &env, self);
                let stream = self.run_plan_enum(plan, size_rem, top, &in_vals);
                self.bind_outs(
                    stream,
                    plan,
                    h_idx,
                    idx,
                    env,
                    out_slots.clone(),
                    size_rem,
                    top,
                )
            }
            Step::Unconstrained { var, ty } => {
                let candidates = self.raw_values(ty, top);
                let truncated = self.raw_truncated(ty, top);
                let values = (0..candidates.len())
                    .map(move |i| Outcome::Val(vec![candidates[i].clone()]))
                    .chain(truncated.then_some(Outcome::OutOfFuel));
                let stream = EStream::from_outcomes(values);
                self.bind_outs(stream, plan, h_idx, idx, env, vec![*var], size_rem, top)
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn bind_outs(
        &self,
        stream: EStream<Vec<Value>>,
        plan: &Arc<Plan>,
        h_idx: usize,
        idx: usize,
        env: Env,
        slots: Vec<indrel_term::VarId>,
        size_rem: u64,
        top: u64,
    ) -> EStream<Env> {
        let lib = self.clone();
        let plan = plan.clone();
        stream.bind(move |outs| {
            let mut env2 = env.clone();
            for (slot, v) in slots.iter().zip(outs) {
                env2.bind(*slot, v);
            }
            lib.steps_enum(&plan, h_idx, idx + 1, env2, size_rem, top)
        })
    }

    // ------------------------------------------------------------------
    // Generator execution
    // ------------------------------------------------------------------

    pub(crate) fn run_plan_gen(
        &self,
        plan: &Arc<Plan>,
        size: u64,
        top: u64,
        inputs: &[Value],
        rng: &mut dyn rand::RngCore,
    ) -> Option<Vec<Value>> {
        if !self.charge_step() {
            return None;
        }
        let _depth = self.probe_enter(plan.rel, ExecKind::Generator);
        let size_rem = size.saturating_sub(1);
        // QuickChick's `backtrack`, inlined without boxing: pick a
        // handler proportionally to its weight (base constructors 1,
        // recursive constructors `size`), discard it on failure, retry
        // until one succeeds or all are exhausted.
        let mut options: Vec<(u64, usize)> = plan
            .handlers
            .iter()
            .enumerate()
            .filter(|(_, h)| size > 0 || !h.recursive)
            .map(|(i, h)| (if h.recursive { size.max(1) } else { 1 }, i))
            .collect();
        let mut total: u64 = options.iter().map(|(w, _)| *w).sum();
        while total > 0 {
            let mut pick = rand::Rng::gen_range(&mut *rng, 0..total);
            let mut chosen = 0;
            for (i, (w, _)) in options.iter().enumerate() {
                if pick < *w {
                    chosen = i;
                    break;
                }
                pick -= *w;
            }
            let (w, h_idx) = options[chosen];
            self.probe(|| Event::RuleAttempt {
                rel: plan.rel,
                rule: h_idx as u32,
            });
            if let Some(out) = self.handler_gen(plan, h_idx, size_rem, top, inputs, rng) {
                self.probe(|| Event::RuleSuccess {
                    rel: plan.rel,
                    rule: h_idx as u32,
                });
                return Some(out);
            }
            // Each discarded handler is one backtrack; a failed charge
            // abandons the whole search.
            self.probe(|| Event::Backtrack {
                rel: plan.rel,
                rule: h_idx as u32,
            });
            if !self.charge_backtrack() {
                return None;
            }
            total -= w;
            let _ = options.swap_remove(chosen);
        }
        None
    }

    fn handler_gen(
        &self,
        plan: &Arc<Plan>,
        h_idx: usize,
        size_rem: u64,
        top: u64,
        inputs: &[Value],
        rng: &mut dyn rand::RngCore,
    ) -> Option<Vec<Value>> {
        let h = &plan.handlers[h_idx];
        let mut env = self.take_env(h.nslots);
        for (pat, val) in h.input_pats.iter().zip(inputs) {
            if !pat.matches(val, &mut env) {
                self.put_env(env);
                self.probe(|| Event::UnifyFail {
                    rel: plan.rel,
                    rule: h_idx as u32,
                    site: FailSite::Inputs,
                });
                return None;
            }
        }
        let result = self.handler_gen_steps(plan, h_idx, &mut env, size_rem, top, rng);
        self.put_env(env);
        result
    }

    fn handler_gen_steps(
        &self,
        plan: &Arc<Plan>,
        h_idx: usize,
        env: &mut Env,
        size_rem: u64,
        top: u64,
        rng: &mut dyn rand::RngCore,
    ) -> Option<Vec<Value>> {
        let h = &plan.handlers[h_idx];
        for (idx, step) in h.steps.iter().enumerate() {
            match step {
                Step::EqCheck { lhs, rhs, negated } => {
                    let holds = eval(lhs, env, self) == eval(rhs, env, self);
                    if holds == *negated {
                        self.probe(|| Event::UnifyFail {
                            rel: plan.rel,
                            rule: h_idx as u32,
                            site: FailSite::Step(idx as u32),
                        });
                        return None;
                    }
                }
                Step::EqBind { var, expr } => {
                    let v = eval(expr, env, self);
                    env.bind(*var, v);
                }
                Step::MatchExpr { scrutinee, pattern } => {
                    let v = eval(scrutinee, env, self);
                    if !pattern.matches(&v, env) {
                        self.probe(|| Event::UnifyFail {
                            rel: plan.rel,
                            rule: h_idx as u32,
                            site: FailSite::Step(idx as u32),
                        });
                        return None;
                    }
                }
                Step::CheckRel { rel, args, negated } => {
                    let vals = self.eval_into(args, env);
                    let mut r = self.check(*rel, top, top, &vals);
                    self.put_args(vals);
                    if *negated {
                        r = cnot(r);
                    }
                    if r != Some(true) {
                        return None;
                    }
                }
                Step::RecCheck { .. } => unreachable!("RecCheck only appears in checker plans"),
                Step::ProduceExt {
                    rel,
                    mode,
                    in_args,
                    out_slots,
                } => {
                    let in_vals = self.eval_into(in_args, env);
                    let outs = self.generate(*rel, mode, top, top, &in_vals, rng);
                    self.put_args(in_vals);
                    for (slot, v) in out_slots.iter().zip(outs?) {
                        env.bind(*slot, v);
                    }
                }
                Step::ProduceRec { in_args, out_slots } => {
                    let in_vals = self.eval_into(in_args, env);
                    let outs = self.run_plan_gen(plan, size_rem, top, &in_vals, rng);
                    self.put_args(in_vals);
                    for (slot, v) in out_slots.iter().zip(outs?) {
                        env.bind(*slot, v);
                    }
                }
                Step::Unconstrained { var, ty } => {
                    let v = random_value(&self.inner.universe, ty, size_rem.max(1), rng);
                    env.bind(*var, v);
                }
            }
        }
        Some(h.outputs.iter().map(|e| eval(e, env, self)).collect())
    }
}

/// Restores the probe nesting depth on drop; returned by
/// [`Library::probe_enter`].
pub(crate) struct DepthGuard<'a> {
    lib: &'a Library,
    depth: u32,
}

impl Drop for DepthGuard<'_> {
    fn drop(&mut self) {
        self.lib.inner.depth.set(self.depth);
    }
}

/// Restores the previously armed meter (if any) on drop, so arming is
/// panic-safe and nests.
struct MeterGuard<'a> {
    lib: &'a Library,
    prev: Option<Meter>,
}

impl Drop for MeterGuard<'_> {
    fn drop(&mut self) {
        *self.lib.inner.meter.borrow_mut() = self.prev.take();
    }
}

/// Rejects argument terms over the budget's `max_term_size`, reporting
/// the poisoned meter's exhaustion as the error.
fn admit_terms(meter: &Meter, args: &[Value]) -> Result<(), ExecError> {
    for a in args {
        if !meter.admit_term_size(a.size()) {
            return Err(meter
                .exhaustion()
                .expect("failed admit poisons the meter")
                .into());
        }
    }
    Ok(())
}

/// A budgeted enumeration, from [`Library::try_enumerate`].
///
/// Iterating yields the underlying [`Outcome`]s; each element pulled
/// charges one step on the stream's meter and runs with that meter
/// armed on the library, so nested checker and producer calls spend
/// from the same budget. When the budget runs out the stream simply
/// ends; use [`BudgetedStream::values`] to collect with the cut-off
/// reported as an error, or [`BudgetedStream::exhaustion_error`] after
/// manual iteration.
#[derive(Debug)]
pub struct BudgetedStream {
    lib: Library,
    meter: Meter,
    stream: EStream<Vec<Value>>,
}

impl BudgetedStream {
    /// The meter accounting for this enumeration.
    pub fn meter(&self) -> &Meter {
        &self.meter
    }

    /// The budget cut-off as a structured error, if one happened.
    pub fn exhaustion_error(&self) -> Option<ExecError> {
        self.meter.exhaustion().map(Into::into)
    }

    /// Collects all produced values, discarding out-of-fuel markers.
    ///
    /// # Errors
    ///
    /// [`ExecError::BudgetExhausted`] or [`ExecError::Deadline`] when
    /// the enumeration was cut off before completing.
    pub fn values(mut self) -> Result<Vec<Vec<Value>>, ExecError> {
        let mut out = Vec::new();
        for outcome in &mut self {
            if let Outcome::Val(v) = outcome {
                out.push(v);
            }
        }
        match self.exhaustion_error() {
            Some(e) => Err(e),
            None => Ok(out),
        }
    }
}

impl Iterator for BudgetedStream {
    type Item = Outcome<Vec<Value>>;

    fn next(&mut self) -> Option<Outcome<Vec<Value>>> {
        if !self.meter.charge_step() {
            return None;
        }
        let _armed = self.lib.arm_meter(self.meter.clone());
        self.stream.next()
    }
}

// Deliberately a panic, not an `ExecError` (panic audit): the
// compatibility analysis in `compile` only schedules an `Eval` once
// every variable the expression mentions is bound, so an
// uninstantiated expression here is a derivation bug, and demoting it
// to a structured runtime error would let a miscompiled plan disagree
// silently instead of failing loudly. The same reasoning covers the
// plan-invariant panics in `vm.rs` and the `RecCheck` unreachables
// (recursive-check steps are only emitted into checker plans).
fn eval(e: &TermExpr, env: &Env, lib: &Library) -> Value {
    e.eval(env, &lib.inner.universe)
        .expect("plan invariant: expressions are fully instantiated when evaluated")
}

fn eval_args(args: &[TermExpr], env: &Env, lib: &Library) -> Vec<Value> {
    args.iter().map(|a| eval(a, env, lib)).collect()
}

/// Silences an unused-import lint when debug assertions are disabled.
#[allow(unused)]
fn _pattern_marker(_: &Pattern) {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::library::LibraryBuilder;
    use indrel_producers::Outcome;
    use indrel_rel::parse::parse_program;
    use indrel_rel::RelEnv;
    use indrel_term::Universe;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn lib_for(src: &str, rels: &[(&str, Option<Vec<usize>>)]) -> (Library, Vec<RelId>) {
        let mut u = Universe::new();
        u.std_list();
        u.std_funs();
        let mut env = RelEnv::new();
        parse_program(&mut u, &mut env, src).unwrap();
        let ids: Vec<RelId> = rels
            .iter()
            .map(|(name, _)| env.rel_id(name).unwrap())
            .collect();
        let mut b = LibraryBuilder::new(u, env);
        for ((_, mode), id) in rels.iter().zip(&ids) {
            match mode {
                None => b.derive_checker(*id).unwrap(),
                Some(outs) => {
                    let arity = b.env().relation(*id).arity();
                    b.derive_producer(*id, Mode::producer(arity, outs)).unwrap();
                }
            }
        }
        (b.build(), ids)
    }

    #[test]
    fn even_checker_decides() {
        let (lib, ids) = lib_for(
            r"rel even' : nat :=
              | even_0 : even' 0
              | even_SS : forall n, even' n -> even' (S (S n))
              .",
            &[("even'", None)],
        );
        let even = ids[0];
        assert_eq!(lib.check(even, 10, 10, &[Value::nat(0)]), Some(true));
        assert_eq!(lib.check(even, 10, 10, &[Value::nat(8)]), Some(true));
        assert_eq!(lib.check(even, 10, 10, &[Value::nat(7)]), Some(false));
        // out of fuel: needs 6 recursion steps for 10
        assert_eq!(lib.check(even, 2, 2, &[Value::nat(10)]), None);
    }

    #[test]
    fn even_enumerator_streams_in_order() {
        let (lib, ids) = lib_for(
            r"rel even' : nat :=
              | even_0 : even' 0
              | even_SS : forall n, even' n -> even' (S (S n))
              .",
            &[("even'", Some(vec![0]))],
        );
        let outs: Vec<u64> = lib
            .enumerate(ids[0], &Mode::producer(1, &[0]), 3, 3, &[])
            .values()
            .into_iter()
            .map(|o| o[0].as_nat().unwrap())
            .collect();
        assert_eq!(outs, vec![0, 2, 4, 6]);
        // With fuel 0 only the base case, plus an out-of-fuel marker.
        let outcomes = lib
            .enumerate(ids[0], &Mode::producer(1, &[0]), 0, 0, &[])
            .outcomes();
        assert_eq!(outcomes.len(), 2);
        assert!(matches!(outcomes[1], Outcome::OutOfFuel));
    }

    #[test]
    fn even_generator_samples_even_numbers() {
        let (lib, ids) = lib_for(
            r"rel even' : nat :=
              | even_0 : even' 0
              | even_SS : forall n, even' n -> even' (S (S n))
              .",
            &[("even'", Some(vec![0]))],
        );
        let mode = Mode::producer(1, &[0]);
        let mut rng = SmallRng::seed_from_u64(7);
        for _ in 0..200 {
            let out = lib.generate(ids[0], &mode, 10, 10, &[], &mut rng).unwrap();
            assert_eq!(out[0].as_nat().unwrap() % 2, 0);
        }
    }

    #[test]
    fn le_checker_handles_nonlinear_reflexivity() {
        let (lib, ids) = lib_for(
            r"rel le : nat nat :=
              | le_n : forall n, le n n
              | le_S : forall n m, le n m -> le n (S m)
              .",
            &[("le", None)],
        );
        let le = ids[0];
        assert_eq!(
            lib.check(le, 20, 20, &[Value::nat(3), Value::nat(3)]),
            Some(true)
        );
        assert_eq!(
            lib.check(le, 20, 20, &[Value::nat(3), Value::nat(9)]),
            Some(true)
        );
        assert_eq!(
            lib.check(le, 20, 20, &[Value::nat(9), Value::nat(3)]),
            Some(false)
        );
    }

    #[test]
    fn le_enumerator_mode_backward() {
        // enumerate n such that le n 3
        let (lib, ids) = lib_for(
            r"rel le : nat nat :=
              | le_n : forall n, le n n
              | le_S : forall n m, le n m -> le n (S m)
              .",
            &[("le", Some(vec![0]))],
        );
        let mut outs: Vec<u64> = lib
            .enumerate(ids[0], &Mode::producer(2, &[0]), 6, 6, &[Value::nat(3)])
            .values()
            .into_iter()
            .map(|o| o[0].as_nat().unwrap())
            .collect();
        outs.sort_unstable();
        outs.dedup();
        assert_eq!(outs, vec![0, 1, 2, 3]);
    }

    #[test]
    fn square_of_checker_and_producer() {
        let (lib, ids) = lib_for(
            r"rel square_of : nat nat :=
              | sq : forall n, square_of n (mult n n)
              .",
            &[("square_of", None), ("square_of", Some(vec![1]))],
        );
        let sq = ids[0];
        assert_eq!(
            lib.check(sq, 5, 5, &[Value::nat(7), Value::nat(49)]),
            Some(true)
        );
        assert_eq!(
            lib.check(sq, 5, 5, &[Value::nat(7), Value::nat(48)]),
            Some(false)
        );
        let outs = lib
            .enumerate(sq, &Mode::producer(2, &[1]), 1, 1, &[Value::nat(6)])
            .values();
        assert_eq!(outs, vec![vec![Value::nat(36)]]);
    }

    #[test]
    fn existential_checker_uses_enumeration() {
        // between n p :- le n m -> le (S m) p
        let (lib, ids) = lib_for(
            r"rel le : nat nat :=
              | le_n : forall n, le n n
              | le_S : forall n m, le n m -> le n (S m)
              .
              rel between : nat nat :=
              | b : forall n m p, le n m -> le (S m) p -> between n p
              .",
            &[("between", None)],
        );
        let between = ids[0];
        // between 1 3: m = 1 or 2 works (le 1 m and le (S m) 3).
        assert_eq!(
            lib.check(between, 8, 8, &[Value::nat(1), Value::nat(3)]),
            Some(true)
        );
        // between 3 1: no m.
        assert_ne!(
            lib.check(between, 8, 8, &[Value::nat(3), Value::nat(1)]),
            Some(true)
        );
    }

    #[test]
    fn zero_relation_reproduces_incompleteness_of_negation() {
        // §5.1: zero holds only for 0, but the checker can never
        // conclusively say `Some(false)` for n > 0.
        let (lib, ids) = lib_for(
            r"rel zero : nat :=
              | Zero : zero 0
              | NonZero : forall n, zero (S n) -> zero n
              .",
            &[("zero", None)],
        );
        let zero = ids[0];
        assert_eq!(lib.check(zero, 5, 5, &[Value::nat(0)]), Some(true));
        for fuel in [1u64, 5, 20, 50] {
            assert_eq!(
                lib.check(zero, fuel, fuel, &[Value::nat(1)]),
                None,
                "fuel {fuel}"
            );
        }
    }

    #[test]
    fn multi_output_producer() {
        // Enumerate (n, m) pairs with le n m: both outputs at once —
        // supported here, future work in the paper (§8).
        let (lib, ids) = lib_for(
            r"rel le : nat nat :=
              | le_n : forall n, le n n
              | le_S : forall n m, le n m -> le n (S m)
              .",
            &[("le", Some(vec![0, 1]))],
        );
        let pairs: Vec<(u64, u64)> = lib
            .enumerate(ids[0], &Mode::producer(2, &[0, 1]), 3, 3, &[])
            .values()
            .into_iter()
            .map(|o| (o[0].as_nat().unwrap(), o[1].as_nat().unwrap()))
            .collect();
        assert!(!pairs.is_empty());
        assert!(pairs.iter().all(|(n, m)| n <= m));
        assert!(pairs.contains(&(0, 0)));
    }

    #[test]
    fn negated_premise_checker() {
        let (lib, ids) = lib_for(
            r"rel even' : nat :=
              | even_0 : even' 0
              | even_SS : forall n, even' n -> even' (S (S n))
              .
              rel odd' : nat :=
              | odd : forall n, ~ (even' n) -> odd' n
              .",
            &[("odd'", None)],
        );
        let odd = ids[0];
        assert_eq!(lib.check(odd, 10, 10, &[Value::nat(3)]), Some(true));
        assert_eq!(lib.check(odd, 10, 10, &[Value::nat(4)]), Some(false));
    }

    #[test]
    fn try_check_agrees_with_check_under_unlimited_budget() {
        let (lib, ids) = lib_for(
            r"rel even' : nat :=
              | even_0 : even' 0
              | even_SS : forall n, even' n -> even' (S (S n))
              .",
            &[("even'", None)],
        );
        let even = ids[0];
        for n in 0..12u64 {
            for fuel in 0..8u64 {
                assert_eq!(
                    lib.try_check(even, fuel, fuel, &[Value::nat(n)], Budget::unlimited()),
                    Ok(lib.check(even, fuel, fuel, &[Value::nat(n)])),
                    "n={n} fuel={fuel}"
                );
            }
        }
    }

    #[test]
    fn try_check_reports_missing_instance_and_arity() {
        // Only a producer is derived: no checker instance exists.
        let (lib, ids) = lib_for(
            r"rel even' : nat :=
              | even_0 : even' 0
              | even_SS : forall n, even' n -> even' (S (S n))
              .",
            &[("even'", Some(vec![0]))],
        );
        let even = ids[0];
        assert_eq!(
            lib.try_check(even, 5, 5, &[Value::nat(2)], Budget::unlimited()),
            Err(crate::ExecError::NoInstance {
                kind: crate::InstanceKind::Checker,
                rel: "even'".into(),
                mode: None,
            })
        );
        // A producer at an underived mode is also a structured error.
        let missing = Mode::producer(1, &[]);
        assert!(matches!(
            lib.try_enumerate(even, &missing, 5, 5, &[Value::nat(0)], Budget::unlimited()),
            Err(crate::ExecError::NoInstance { .. })
        ));
        let err = lib
            .try_enumerate(
                even,
                &Mode::producer(1, &[0]),
                5,
                5,
                &[Value::nat(0)],
                Budget::unlimited(),
            )
            .map(|_| ())
            .unwrap_err();
        assert!(matches!(
            err,
            crate::ExecError::ArityMismatch {
                got: 1,
                expected: 0,
                ..
            }
        ));
    }

    /// The exponential workload: `twin n` proofs have 2^n leaves but
    /// only depth n, so step budgets and deadlines trip quickly while
    /// the stack stays shallow.
    fn twin_lib() -> (Library, RelId) {
        let (lib, ids) = lib_for(
            r"rel twin : nat :=
              | t0 : twin 0
              | tS : forall n, twin n -> twin n -> twin (S n)
              .",
            &[("twin", None)],
        );
        (lib, ids[0])
    }

    #[test]
    fn try_check_step_budget_exhausts_deterministically() {
        let (lib, twin) = twin_lib();
        let budget = Budget::unlimited().with_steps(10_000);
        let first = lib.try_check(twin, 40, 40, &[Value::nat(30)], budget);
        assert_eq!(
            first,
            Err(crate::ExecError::BudgetExhausted {
                resource: indrel_producers::Resource::Steps
            })
        );
        // Same budget, same work, same cut-off.
        assert_eq!(
            lib.try_check(twin, 40, 40, &[Value::nat(30)], budget),
            first
        );
        // ...and the poisoned run leaves no meter armed: a plain check
        // afterwards is unbudgeted and completes.
        assert_eq!(lib.check(twin, 40, 40, &[Value::nat(12)]), Some(true));
    }

    #[test]
    fn try_check_deadline_cuts_off_exponential_work() {
        let (lib, twin) = twin_lib();
        let budget = Budget::unlimited().with_deadline(std::time::Duration::from_millis(20));
        let start = std::time::Instant::now();
        let r = lib.try_check(twin, 70, 70, &[Value::nat(64)], budget);
        assert_eq!(r, Err(crate::ExecError::Deadline));
        // 2^64 steps of work was abandoned promptly after the deadline.
        assert!(
            start.elapsed() < std::time::Duration::from_secs(2),
            "took {:?}",
            start.elapsed()
        );
    }

    #[test]
    fn try_check_max_term_size_rejects_oversized_arguments() {
        let (lib, twin) = twin_lib();
        let budget = Budget::unlimited().with_max_term_size(8);
        assert_eq!(
            lib.try_check(twin, 5, 5, &[Value::nat(9)], budget),
            Err(crate::ExecError::BudgetExhausted {
                resource: indrel_producers::Resource::TermSize
            })
        );
        assert_eq!(
            lib.try_check(twin, 9, 9, &[Value::nat(8)], budget),
            Ok(Some(true))
        );
    }

    #[test]
    fn try_decide_budget_covers_the_fuel_ladder() {
        let (lib, twin) = twin_lib();
        assert_eq!(
            lib.try_decide(twin, &[Value::nat(5)], 64, Budget::unlimited()),
            Ok(Some(true))
        );
        assert!(matches!(
            lib.try_decide(
                twin,
                &[Value::nat(40)],
                1 << 50,
                Budget::unlimited().with_steps(50_000)
            ),
            Err(crate::ExecError::BudgetExhausted { .. })
        ));
    }

    #[test]
    fn try_enumerate_collects_or_reports_cutoff() {
        let (lib, ids) = lib_for(
            r"rel even' : nat :=
              | even_0 : even' 0
              | even_SS : forall n, even' n -> even' (S (S n))
              .",
            &[("even'", Some(vec![0]))],
        );
        let mode = Mode::producer(1, &[0]);
        let outs = lib
            .try_enumerate(ids[0], &mode, 3, 3, &[], Budget::unlimited())
            .unwrap()
            .values()
            .unwrap();
        assert_eq!(outs.len(), 4);
        // A two-step budget cannot finish the same enumeration.
        let r = lib
            .try_enumerate(ids[0], &mode, 3, 3, &[], Budget::unlimited().with_steps(2))
            .unwrap()
            .values();
        assert!(matches!(r, Err(crate::ExecError::BudgetExhausted { .. })));
    }

    #[test]
    fn try_generate_backtrack_budget() {
        let (lib, ids) = lib_for(
            r"rel le : nat nat :=
              | le_n : forall n, le n n
              | le_S : forall n m, le n m -> le n (S m)
              .",
            &[("le", Some(vec![0]))],
        );
        let mode = Mode::producer(2, &[0]);
        let mut rng = SmallRng::seed_from_u64(11);
        let budget = Budget::unlimited().with_backtracks(0);
        let mut saw_err = false;
        let mut saw_ok = false;
        for _ in 0..50 {
            match lib.try_generate(ids[0], &mode, 8, 8, &[Value::nat(5)], &mut rng, budget) {
                Ok(Some(out)) => {
                    assert!(out[0].as_nat().unwrap() <= 5);
                    saw_ok = true;
                }
                Ok(None) => {}
                Err(crate::ExecError::BudgetExhausted {
                    resource: indrel_producers::Resource::Backtracks,
                }) => saw_err = true,
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        // With zero backtracks allowed, first-try successes succeed and
        // any backtracking run is cut off.
        assert!(saw_ok && saw_err, "saw_ok={saw_ok} saw_err={saw_err}");
    }

    #[test]
    fn generator_respects_inputs() {
        // generate n with le n 5
        let (lib, ids) = lib_for(
            r"rel le : nat nat :=
              | le_n : forall n, le n n
              | le_S : forall n m, le n m -> le n (S m)
              .",
            &[("le", Some(vec![0]))],
        );
        let mode = Mode::producer(2, &[0]);
        let mut rng = SmallRng::seed_from_u64(3);
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..300 {
            if let Some(out) = lib.generate(ids[0], &mode, 8, 8, &[Value::nat(5)], &mut rng) {
                let n = out[0].as_nat().unwrap();
                assert!(n <= 5);
                seen.insert(n);
            }
        }
        assert!(seen.len() >= 3, "should sample a variety: {seen:?}");
    }
}
