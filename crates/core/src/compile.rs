//! The derivation algorithm: compiling a relation + mode into a
//! [`Plan`].
//!
//! This is `DERIVE_CHECKER`/`CTR_LOOP` (Algorithm 1) generalized to
//! producers (§4). For every rule the compiler:
//!
//! 1. turns the conclusion's input positions into patterns (the handler
//!    `match`),
//! 2. schedules the premises, choosing for each a recursive call, an
//!    external checker call, an external producer call, or an equality
//!    binding/check, instantiating variables with unconstrained
//!    producers when the compatibility analysis demands it,
//! 3. finishes with the conclusion's output terms.
//!
//! Checker plans do not take the premises in source order: a greedy
//! scheduler repeatedly picks, among the premises the compatibility
//! analysis says are *admissible* right now, the one with the lowest
//! [`Step::static_cost`], breaking ties by source index. Admissible
//! here means *non-enumerating*: a ground relation check, or an
//! equality that is fully known or binds through a deterministic
//! pattern. Premises that would need an external producer or an
//! unconstrained instantiation are never hoisted — hoisting one
//! changes which variables get enumerated versus filtered, and an
//! innocent-looking `produceST` over a recursive relation can be
//! exponentially worse than the source order's
//! instantiate-then-check shape (`ev'` in the LF corpus is the
//! cautionary tale). When no premise is admissible the scheduler falls
//! back to the first remaining premise in source order, reproducing
//! the paper's enumeration structure exactly. Producer plans keep
//! source order: their dataflow is the schedule. The schedule is fixed
//! when the instance is derived; a built library serves that plan for
//! its whole life.
//!
//! External calls are resolved through a [`DepResolver`], which the
//! [`crate::LibraryBuilder`] implements by recursively deriving the
//! needed instances (with cycle detection, §8).

use crate::compat::{classify_arg, ArgClass};
use crate::error::DeriveError;
use crate::mode::Mode;
use crate::plan::{Handler, Plan, Step, CALL_COST, LOCAL_COST};
use crate::DeriveOptions;
use indrel_rel::analysis::features;
use indrel_rel::preprocess::preprocess_relation;
use indrel_rel::{Premise, RelEnv, Relation, Rule};
use indrel_term::{RelId, TermExpr, TypeExpr, Universe, VarId};
use std::collections::BTreeSet;

/// Resolves the external instances a plan depends on.
pub trait DepResolver {
    /// Makes sure a checker instance for `rel` exists.
    ///
    /// # Errors
    ///
    /// Returns a [`DeriveError`] when the instance cannot be derived.
    fn ensure_checker(&mut self, rel: RelId) -> Result<(), DeriveError>;

    /// Makes sure a producer instance for `(rel, mode)` exists.
    ///
    /// # Errors
    ///
    /// Returns a [`DeriveError`] when the instance cannot be derived.
    fn ensure_producer(&mut self, rel: RelId, mode: &Mode) -> Result<(), DeriveError>;
}

/// Compiles a plan for `rel` at `mode`. Compilation is deterministic
/// in `(relation, mode, opts)`.
///
/// # Errors
///
/// Returns a [`DeriveError`] when the relation falls outside the
/// supported class (see the error variants for the specific reasons).
pub fn compile_plan(
    universe: &Universe,
    env: &RelEnv,
    rel: RelId,
    mode: Mode,
    opts: DeriveOptions,
    deps: &mut dyn DepResolver,
) -> Result<Plan, DeriveError> {
    let relation = env.relation(rel);
    let prepared: Relation;
    let source: &Relation = if opts.algorithm1_only {
        let f = features(relation);
        if !f.algorithm1_ok() {
            return Err(DeriveError::OutsideAlgorithm1 {
                rel: relation.name().to_string(),
                feature: f.to_string(),
            });
        }
        if !mode.is_checker() {
            return Err(DeriveError::OutsideAlgorithm1 {
                rel: relation.name().to_string(),
                feature: "producer derivation".to_string(),
            });
        }
        relation
    } else {
        let (p, _report) =
            preprocess_relation(universe, env, relation).map_err(|e| DeriveError::Preprocess {
                rel: relation.name().to_string(),
                message: e.to_string(),
            })?;
        prepared = p;
        &prepared
    };

    let mut handlers = Vec::with_capacity(source.rules().len());
    for (i, rule) in source.rules().iter().enumerate() {
        let mut cx = HandlerCx {
            rel,
            rel_name: source.name().to_string(),
            mode: &mode,
            opts,
            deps,
            rule_name: rule.name().to_string(),
            known: vec![false; rule.num_vars()],
            slot_names: rule.var_names().to_vec(),
            slot_types: rule.var_types().to_vec(),
            steps: Vec::new(),
            premise_of: Vec::new(),
            cur_premise: None,
        };
        handlers.push(cx.compile_rule(rule, i)?);
    }
    Ok(Plan {
        rel,
        mode,
        handlers,
    })
}

struct HandlerCx<'a> {
    rel: RelId,
    rel_name: String,
    mode: &'a Mode,
    opts: DeriveOptions,
    deps: &'a mut dyn DepResolver,
    rule_name: String,
    known: Vec<bool>,
    slot_names: Vec<String>,
    slot_types: Vec<Option<TypeExpr>>,
    steps: Vec<Step>,
    premise_of: Vec<Option<u32>>,
    cur_premise: Option<u32>,
}

impl HandlerCx<'_> {
    fn compile_rule(&mut self, rule: &Rule, rule_index: usize) -> Result<Handler, DeriveError> {
        // 1. Input patterns from the conclusion.
        let mut input_pats = Vec::new();
        for i in self.mode.in_positions() {
            let expr = &rule.conclusion()[i];
            let pat = expr
                .to_pattern()
                .ok_or_else(|| DeriveError::NonPatternConclusion {
                    rel: self.rel_name.clone(),
                    rule: self.rule_name.clone(),
                })?;
            for v in expr.variables() {
                self.known[v.index()] = true;
            }
            input_pats.push(pat);
        }

        // 2. Premises. Checker plans are scheduled greedily by static
        //    cost; producer plans keep source order.
        if self.mode.is_checker() {
            let mut remaining: Vec<(u32, &Premise)> = rule
                .premises()
                .iter()
                .enumerate()
                .map(|(i, p)| (i as u32, p))
                .collect();
            while !remaining.is_empty() {
                let pick = self.pick_next(&remaining);
                let (idx, premise) = remaining.remove(pick);
                self.cur_premise = Some(idx);
                self.schedule_premise(premise)?;
            }
        } else {
            for (idx, premise) in rule.premises().iter().enumerate() {
                self.cur_premise = Some(idx as u32);
                self.schedule_premise(premise)?;
            }
        }
        self.cur_premise = None;

        // 3. Outputs: any still-unknown variable is instantiated with an
        //    unconstrained producer (a rule whose output no premise
        //    constrains).
        let mut outputs = Vec::new();
        for i in self.mode.out_positions() {
            let expr = &rule.conclusion()[i];
            let unknowns: Vec<VarId> = expr
                .variables()
                .into_iter()
                .filter(|v| !self.known[v.index()])
                .collect();
            for v in unknowns {
                self.instantiate(v)?;
            }
            outputs.push(expr.clone());
        }

        let recursive = self
            .steps
            .iter()
            .any(|s| matches!(s, Step::RecCheck { .. } | Step::ProduceRec { .. }));
        Ok(Handler {
            rule_index,
            name: rule.name().to_string(),
            recursive,
            nslots: self.slot_names.len(),
            slot_names: std::mem::take(&mut self.slot_names),
            input_pats,
            steps: std::mem::take(&mut self.steps),
            premise_of: std::mem::take(&mut self.premise_of),
            outputs,
        })
    }

    /// Pushes a step, recording which source premise (if any) it
    /// implements.
    fn emit(&mut self, step: Step) {
        self.steps.push(step);
        self.premise_of.push(self.cur_premise);
    }

    /// Dispatches one premise to its scheduling routine.
    fn schedule_premise(&mut self, premise: &Premise) -> Result<(), DeriveError> {
        match premise {
            Premise::Eq { lhs, rhs, negated } => self.schedule_eq(lhs, rhs, *negated),
            Premise::Rel {
                rel,
                args,
                negated: true,
            } => {
                self.require_full("negated premises")?;
                self.instantiate_all(args)?;
                self.deps.ensure_checker(*rel)?;
                self.emit(Step::CheckRel {
                    rel: *rel,
                    args: args.clone(),
                    negated: true,
                });
                Ok(())
            }
            Premise::Rel {
                rel,
                args,
                negated: false,
            } => self.schedule_rel(*rel, args),
        }
    }

    /// The greedy choice: index into `remaining` (kept in source order)
    /// of the admissible premise with the lowest static cost, the
    /// earliest on a tie. Purely a *read* of the current binding state —
    /// the dry-run classification must not resolve dependencies or
    /// allocate slots, so an inadmissible candidate costs nothing.
    fn pick_next(&self, remaining: &[(u32, &Premise)]) -> usize {
        remaining
            .iter()
            .enumerate()
            .filter_map(|(pos, (_, premise))| Some((self.admissible_cost(premise)?, pos)))
            .min()
            // No premise is admissible: take the first remaining one in
            // source order and let its scheduling routine instantiate.
            .map_or(0, |(_, pos)| pos)
    }

    /// Whether `premise` can be scheduled *right now* without any
    /// enumeration (no external producer call, no unconstrained
    /// instantiation), and at what static cost: the
    /// [`Step::static_cost`] of the step it becomes, a local one for an
    /// equality and a checker call for a relation premise. Reuses the
    /// compatibility classification of [`crate::compat`]: an argument
    /// that classifies as `ProducibleOutput` or `NeedsInstantiation`
    /// blocks the premise until something else binds its variables —
    /// only deterministic, prune-only premises are hoisted.
    fn admissible_cost(&self, premise: &Premise) -> Option<u64> {
        match premise {
            Premise::Eq { lhs, rhs, negated } => {
                let lk = self.is_known_expr(lhs);
                let rk = self.is_known_expr(rhs);
                if lk && rk {
                    return Some(LOCAL_COST);
                }
                if *negated {
                    // A disequality cannot bind its unknowns.
                    return None;
                }
                let unknown_side = if lk {
                    rhs
                } else if rk {
                    lhs
                } else {
                    return None;
                };
                match unknown_side {
                    TermExpr::Var(_) => Some(LOCAL_COST),
                    _ if unknown_side.to_pattern().is_some() => Some(LOCAL_COST),
                    // A function call over unknowns can only be checked
                    // after enumeration.
                    _ => None,
                }
            }
            Premise::Rel {
                args,
                negated: true,
                ..
            } => {
                // Negation-as-failure needs every argument ground.
                args.iter()
                    .all(|a| self.is_known_expr(a))
                    .then_some(CALL_COST)
            }
            Premise::Rel {
                args,
                negated: false,
                ..
            } => {
                let known = |v: VarId| self.known[v.index()];
                for arg in args {
                    match classify_arg(arg, true, &known) {
                        ArgClass::KnownInput | ArgClass::KnownOutput => {}
                        // A premise with unbound positions would have
                        // to enumerate (external producer call). Never
                        // hoist those: leave them to the source-order
                        // fallback so the enumeration structure of the
                        // plan matches Algorithm 1 exactly.
                        ArgClass::ProducibleOutput { .. } | ArgClass::NeedsInstantiation { .. } => {
                            return None
                        }
                    }
                }
                Some(CALL_COST)
            }
        }
    }

    /// Fails in Algorithm 1 mode with the given feature description.
    fn require_full(&self, feature: &str) -> Result<(), DeriveError> {
        if self.opts.algorithm1_only {
            Err(DeriveError::OutsideAlgorithm1 {
                rel: self.rel_name.clone(),
                feature: feature.to_string(),
            })
        } else {
            Ok(())
        }
    }

    fn is_known_expr(&self, e: &TermExpr) -> bool {
        e.variables().iter().all(|v| self.known[v.index()])
    }

    fn unknowns_of(&self, e: &TermExpr) -> BTreeSet<VarId> {
        e.variables()
            .into_iter()
            .filter(|v| !self.known[v.index()])
            .collect()
    }

    fn fresh_slot(&mut self, base: &str, ty: Option<TypeExpr>) -> VarId {
        let id = VarId::new(self.slot_names.len());
        self.slot_names.push(format!("{base}{}", id.index()));
        self.slot_types.push(ty);
        self.known.push(false);
        id
    }

    /// Emits an unconstrained-producer step for `var`.
    fn instantiate(&mut self, var: VarId) -> Result<(), DeriveError> {
        self.require_full("unconstrained instantiation")?;
        let ty =
            self.slot_types[var.index()]
                .clone()
                .ok_or_else(|| DeriveError::UntypedVariable {
                    rel: self.rel_name.clone(),
                    rule: self.rule_name.clone(),
                    var: self.slot_names[var.index()].clone(),
                })?;
        self.emit(Step::Unconstrained { var, ty });
        self.known[var.index()] = true;
        Ok(())
    }

    fn instantiate_all(&mut self, args: &[TermExpr]) -> Result<(), DeriveError> {
        let mut vars = BTreeSet::new();
        for a in args {
            vars.extend(self.unknowns_of(a));
        }
        for v in vars {
            self.instantiate(v)?;
        }
        Ok(())
    }

    /// Schedules an equality premise.
    fn schedule_eq(
        &mut self,
        lhs: &TermExpr,
        rhs: &TermExpr,
        negated: bool,
    ) -> Result<(), DeriveError> {
        self.require_full("equality premises")?;
        let lk = self.is_known_expr(lhs);
        let rk = self.is_known_expr(rhs);
        if lk && rk {
            self.emit(Step::EqCheck {
                lhs: lhs.clone(),
                rhs: rhs.clone(),
                negated,
            });
            return Ok(());
        }
        if negated {
            // A disequality cannot instantiate: enumerate the unknowns
            // and check.
            self.instantiate_all(std::slice::from_ref(lhs))?;
            self.instantiate_all(std::slice::from_ref(rhs))?;
            self.emit(Step::EqCheck {
                lhs: lhs.clone(),
                rhs: rhs.clone(),
                negated: true,
            });
            return Ok(());
        }
        if lk {
            self.solve_eq(rhs, lhs)
        } else if rk {
            self.solve_eq(lhs, rhs)
        } else {
            // Neither side known: instantiate the left side, then solve
            // for the right.
            self.instantiate_all(std::slice::from_ref(lhs))?;
            self.solve_eq(rhs, lhs)
        }
    }

    /// Solves `unknown_side = known_expr` by binding or matching.
    fn solve_eq(
        &mut self,
        unknown_side: &TermExpr,
        known_expr: &TermExpr,
    ) -> Result<(), DeriveError> {
        match unknown_side {
            TermExpr::Var(x) if !self.known[x.index()] => {
                self.emit(Step::EqBind {
                    var: *x,
                    expr: known_expr.clone(),
                });
                self.known[x.index()] = true;
                Ok(())
            }
            _ => match unknown_side.to_pattern() {
                Some(pattern) => {
                    for v in self.unknowns_of(unknown_side) {
                        self.known[v.index()] = true;
                    }
                    self.emit(Step::MatchExpr {
                        scrutinee: known_expr.clone(),
                        pattern,
                    });
                    Ok(())
                }
                None => {
                    // A function call containing unknowns: instantiate
                    // and fall back to checking.
                    self.instantiate_all(std::slice::from_ref(unknown_side))?;
                    self.emit(Step::EqCheck {
                        lhs: unknown_side.clone(),
                        rhs: known_expr.clone(),
                        negated: false,
                    });
                    Ok(())
                }
            },
        }
    }

    /// Schedules a positive relation premise `q args` following the
    /// compatibility analysis of §4.
    fn schedule_rel(&mut self, q: RelId, args: &[TermExpr]) -> Result<(), DeriveError> {
        let is_self = q == self.rel;
        let producer_mode = !self.mode.is_checker();

        // Step A: pre-instantiate variables the compatibility analysis
        // marks as `(variables(e), -)`:
        //   * unknowns under function calls (can't produce into a call),
        //   * unknowns at the *input* positions of a recursive call.
        let mut pre_inst: BTreeSet<VarId> = BTreeSet::new();
        for (i, arg) in args.iter().enumerate() {
            let unknowns = self.unknowns_of(arg);
            if unknowns.is_empty() {
                continue;
            }
            let self_input = is_self && producer_mode && !self.mode.is_out(i);
            if self_input || arg.to_pattern().is_none() {
                pre_inst.extend(unknowns);
            }
        }
        for v in pre_inst {
            self.instantiate(v)?;
        }

        // Step B: positions still containing unknowns.
        let unknown_positions: Vec<usize> = (0..args.len())
            .filter(|&i| !self.is_known_expr(&args[i]))
            .collect();

        if unknown_positions.is_empty() {
            if is_self && self.mode.is_checker() {
                self.emit(Step::RecCheck {
                    args: args.to_vec(),
                });
                return Ok(());
            }
            if is_self {
                // A fully-instantiated recursive premise in a producer.
                // Default: produce and compare (Figure 2's `TAdd`).
                // Ablation: call the relation's checker instead.
                if self.opts.check_known_recursive && self.deps.ensure_checker(q).is_ok() {
                    self.emit(Step::CheckRel {
                        rel: q,
                        args: args.to_vec(),
                        negated: false,
                    });
                    return Ok(());
                }
                return self.produce_rec(args);
            }
            self.deps.ensure_checker(q)?;
            self.emit(Step::CheckRel {
                rel: q,
                args: args.to_vec(),
                negated: false,
            });
            return Ok(());
        }

        self.require_full("existentially quantified variables")?;

        if is_self && producer_mode {
            // All remaining unknowns sit at our own output positions
            // (inputs were pre-instantiated above).
            debug_assert!(unknown_positions.iter().all(|&i| self.mode.is_out(i)));
            return self.produce_rec(args);
        }

        // External (or self-in-checker-mode) constrained producer for
        // the unknown positions; favored over enumerate-then-check
        // (§4, "we favor enumeration").
        let m = Mode::producer(args.len(), &unknown_positions);
        match self.deps.ensure_producer(q, &m) {
            Ok(()) => {
                let in_args: Vec<TermExpr> = m
                    .in_positions()
                    .into_iter()
                    .map(|i| args[i].clone())
                    .collect();
                let out_slots: Vec<VarId> = unknown_positions
                    .iter()
                    .map(|_| self.fresh_slot("w", None))
                    .collect();
                self.emit(Step::ProduceExt {
                    rel: q,
                    mode: m,
                    in_args,
                    out_slots: out_slots.clone(),
                });
                for (slot, &i) in out_slots.iter().zip(&unknown_positions) {
                    self.reconcile(*slot, &args[i])?;
                }
                Ok(())
            }
            Err(_) => {
                // Fallback: instantiate everything, then check.
                self.instantiate_all(args)?;
                if is_self && self.mode.is_checker() {
                    self.emit(Step::RecCheck {
                        args: args.to_vec(),
                    });
                    return Ok(());
                }
                self.deps.ensure_checker(q)?;
                self.emit(Step::CheckRel {
                    rel: q,
                    args: args.to_vec(),
                    negated: false,
                });
                Ok(())
            }
        }
    }

    /// Emits a recursive producer call plus the reconciliation of every
    /// output position.
    fn produce_rec(&mut self, args: &[TermExpr]) -> Result<(), DeriveError> {
        let in_args: Vec<TermExpr> = self
            .mode
            .in_positions()
            .into_iter()
            .map(|i| args[i].clone())
            .collect();
        let out_positions = self.mode.out_positions();
        let out_slots: Vec<VarId> = out_positions
            .iter()
            .map(|_| self.fresh_slot("w", None))
            .collect();
        self.emit(Step::ProduceRec {
            in_args,
            out_slots: out_slots.clone(),
        });
        for (slot, &i) in out_slots.iter().zip(&out_positions) {
            self.reconcile(*slot, &args[i])?;
        }
        Ok(())
    }

    /// Reconciles a produced value (in `slot`) with the premise argument
    /// term `arg`: a pattern match binding `arg`'s unknowns when `arg`
    /// is a constructor term (known variables inside the pattern act as
    /// equality checks), otherwise an equality check.
    fn reconcile(&mut self, slot: VarId, arg: &TermExpr) -> Result<(), DeriveError> {
        self.known[slot.index()] = true;
        match arg.to_pattern() {
            Some(pattern) => {
                for v in self.unknowns_of(arg) {
                    self.known[v.index()] = true;
                }
                // Skip the trivial self-match that a bare fresh slot
                // would produce.
                self.emit(Step::MatchExpr {
                    scrutinee: TermExpr::Var(slot),
                    pattern,
                });
                Ok(())
            }
            None => {
                debug_assert!(
                    self.is_known_expr(arg),
                    "non-pattern args are pre-instantiated"
                );
                self.emit(Step::EqCheck {
                    lhs: TermExpr::Var(slot),
                    rhs: arg.clone(),
                    negated: false,
                });
                Ok(())
            }
        }
    }

    #[allow(dead_code)]
    fn classify(&self, arg: &TermExpr, is_out: bool) -> ArgClass {
        let known = |v: VarId| self.known[v.index()];
        classify_arg(arg, is_out, &known)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use indrel_rel::parse::parse_program;

    struct NoDeps;
    impl DepResolver for NoDeps {
        fn ensure_checker(&mut self, _rel: RelId) -> Result<(), DeriveError> {
            Ok(())
        }
        fn ensure_producer(&mut self, _rel: RelId, _mode: &Mode) -> Result<(), DeriveError> {
            Ok(())
        }
    }

    fn setup(src: &str) -> (Universe, RelEnv) {
        let mut u = Universe::new();
        u.std_list();
        u.std_funs();
        let mut env = RelEnv::new();
        parse_program(&mut u, &mut env, src).unwrap();
        (u, env)
    }

    #[test]
    fn compiles_le_checker() {
        let (u, env) = setup(
            r"rel le : nat nat :=
              | le_n : forall n, le n n
              | le_S : forall n m, le n m -> le n (S m)
              .",
        );
        let le = env.rel_id("le").unwrap();
        let plan = compile_plan(
            &u,
            &env,
            le,
            Mode::checker(2),
            DeriveOptions::default(),
            &mut NoDeps,
        )
        .unwrap();
        assert_eq!(plan.handlers.len(), 2);
        // le_n was linearized: one equality check, no recursion.
        assert!(!plan.handlers[0].recursive);
        assert!(matches!(plan.handlers[0].steps[0], Step::EqCheck { .. }));
        // le_S recurses.
        assert!(plan.handlers[1].recursive);
        assert!(matches!(plan.handlers[1].steps[0], Step::RecCheck { .. }));
    }

    #[test]
    fn algorithm1_rejects_nonlinear() {
        let (u, env) = setup(
            r"rel le : nat nat :=
              | le_n : forall n, le n n
              | le_S : forall n m, le n m -> le n (S m)
              .",
        );
        let le = env.rel_id("le").unwrap();
        let opts = DeriveOptions {
            algorithm1_only: true,
            ..DeriveOptions::default()
        };
        let err = compile_plan(&u, &env, le, Mode::checker(2), opts, &mut NoDeps).unwrap_err();
        assert!(matches!(err, DeriveError::OutsideAlgorithm1 { .. }));
    }

    #[test]
    fn algorithm1_accepts_core_relations() {
        let (u, env) = setup(
            r"rel even' : nat :=
              | even_0 : even' 0
              | even_SS : forall n, even' n -> even' (S (S n))
              .",
        );
        let r = env.rel_id("even'").unwrap();
        let opts = DeriveOptions {
            algorithm1_only: true,
            ..DeriveOptions::default()
        };
        let plan = compile_plan(&u, &env, r, Mode::checker(1), opts, &mut NoDeps).unwrap();
        assert_eq!(plan.handlers.len(), 2);
        assert!(plan.has_recursive_handlers());
    }

    #[test]
    fn existential_premise_uses_external_producer() {
        // between n p :- le n m, le m p  (m existential)
        let (u, env) = setup(
            r"rel le : nat nat :=
              | le_n : forall n, le n n
              | le_S : forall n m, le n m -> le n (S m)
              .
              rel between : nat nat :=
              | b : forall n m p, le n m -> le m p -> between n p
              .",
        );
        let b = env.rel_id("between").unwrap();
        let plan = compile_plan(
            &u,
            &env,
            b,
            Mode::checker(2),
            DeriveOptions::default(),
            &mut NoDeps,
        )
        .unwrap();
        let steps = &plan.handlers[0].steps;
        // First premise: le n m with m unknown → external producer at
        // mode (-,+); second premise fully known → external checker.
        assert!(matches!(
            &steps[0],
            Step::ProduceExt { mode, .. } if *mode == Mode::producer(2, &[1])
        ));
        assert!(steps.iter().any(|s| matches!(s, Step::CheckRel { .. })));
    }

    #[test]
    fn producer_mode_emits_produce_rec() {
        let (u, env) = setup(
            r"rel even' : nat :=
              | even_0 : even' 0
              | even_SS : forall n, even' n -> even' (S (S n))
              .",
        );
        let r = env.rel_id("even'").unwrap();
        let plan = compile_plan(
            &u,
            &env,
            r,
            Mode::producer(1, &[0]),
            DeriveOptions::default(),
            &mut NoDeps,
        )
        .unwrap();
        // even_SS: produce n recursively, output S (S n).
        let h = &plan.handlers[1];
        assert!(h.recursive);
        assert!(matches!(h.steps[0], Step::ProduceRec { .. }));
        assert_eq!(h.outputs.len(), 1);
    }

    #[test]
    fn square_of_checker_uses_eq_check() {
        let (u, env) = setup(
            r"rel square_of : nat nat :=
              | sq : forall n, square_of n (mult n n)
              .",
        );
        let r = env.rel_id("square_of").unwrap();
        let plan = compile_plan(
            &u,
            &env,
            r,
            Mode::checker(2),
            DeriveOptions::default(),
            &mut NoDeps,
        )
        .unwrap();
        // After hoisting: premise mult n n = m, both known → EqCheck.
        assert!(matches!(plan.handlers[0].steps[0], Step::EqCheck { .. }));
    }

    #[test]
    fn square_of_forward_mode_uses_eq_bind() {
        let (u, env) = setup(
            r"rel square_of : nat nat :=
              | sq : forall n, square_of n (mult n n)
              .",
        );
        let r = env.rel_id("square_of").unwrap();
        let plan = compile_plan(
            &u,
            &env,
            r,
            Mode::producer(2, &[1]),
            DeriveOptions::default(),
            &mut NoDeps,
        )
        .unwrap();
        // mult n n = m with m the output → EqBind m := mult n n.
        assert!(matches!(plan.handlers[0].steps[0], Step::EqBind { .. }));
    }

    #[test]
    fn square_of_backward_mode_instantiates() {
        let (u, env) = setup(
            r"rel square_of : nat nat :=
              | sq : forall n, square_of n (mult n n)
              .",
        );
        let r = env.rel_id("square_of").unwrap();
        let plan = compile_plan(
            &u,
            &env,
            r,
            Mode::producer(2, &[0]),
            DeriveOptions::default(),
            &mut NoDeps,
        )
        .unwrap();
        // Solving n from mult n n = m: enumerate n, check the equation.
        let steps = &plan.handlers[0].steps;
        assert!(matches!(steps[0], Step::Unconstrained { .. }));
        assert!(matches!(steps[1], Step::EqCheck { .. }));
    }

    /// The static schedule of a checker plan: the admissible premise of
    /// lowest [`Step::static_cost`] goes first, ties keep source order,
    /// and when nothing is admissible the first remaining premise is
    /// taken.
    #[test]
    fn static_schedule_orders_by_cost_then_source_index() {
        let (u, env) = setup(
            r"rel le' : nat nat :=
              | le_n : forall n, le' n n
              | le_S : forall n m, le' n m -> le' n (S m)
              .
              rel hoist : nat nat :=
              | h : forall n m, le' n m -> m = S n -> hoist n m
              .
              rel good : nat nat :=
              | g : forall n m, le' 0 n -> le' (S n) m -> good n m
              .
              rel blocked : nat :=
              | b : forall n p, le' n p -> le' p 0 -> blocked n
              .",
        );
        let plan = |name: &str, arity: usize| {
            let rel = env.rel_id(name).unwrap();
            compile_plan(
                &u,
                &env,
                rel,
                Mode::checker(arity),
                DeriveOptions::default(),
                &mut NoDeps,
            )
            .unwrap()
        };

        // A known equality (cost 1) is hoisted ahead of the checker
        // call (cost 10) that precedes it in the source.
        let h = &plan("hoist", 2).handlers[0];
        assert_eq!(h.premise_of, [Some(1), Some(0)]);
        assert!(matches!(h.steps[0], Step::EqCheck { .. }));
        assert!(matches!(h.steps[1], Step::CheckRel { .. }));

        // Two checker calls of equal static cost keep source order.
        let g = &plan("good", 2).handlers[0];
        assert_eq!(g.premise_of, [Some(0), Some(1)]);
        assert!(g.steps.iter().all(|s| matches!(s, Step::CheckRel { .. })));

        // Neither premise is admissible (both mention the unbound `p`):
        // the first in source order produces `p` from `n`, and the
        // second then checks it.
        let b = &plan("blocked", 1).handlers[0];
        assert!(matches!(
            &b.steps[0],
            Step::ProduceExt { mode, .. } if *mode == Mode::producer(2, &[1])
        ));
        assert_eq!(b.premise_of.first(), Some(&Some(0)));
        assert!(matches!(b.steps.last(), Some(Step::CheckRel { .. })));
        assert_eq!(b.premise_of.last(), Some(&Some(1)));
    }

    #[test]
    fn untyped_instantiation_is_an_error() {
        // q is a unary relation over a parameterless never-inferable
        // position: craft a rule whose existential can't be typed by
        // removing annotations — use a variable only under `len`.
        let (u, env) = setup(
            r"rel lenrel : nat :=
              | l : forall xs n, len xs = n -> lenrel n
              .",
        );
        let r = env.rel_id("lenrel").unwrap();
        let err = compile_plan(
            &u,
            &env,
            r,
            Mode::checker(1),
            DeriveOptions::default(),
            &mut NoDeps,
        )
        .unwrap_err();
        assert!(matches!(err, DeriveError::UntypedVariable { .. }));
    }
}
