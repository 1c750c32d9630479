//! The plan IR — the "generated code" of the derivation algorithm.
//!
//! A [`Plan`] is the mode-specialized compilation of an inductive
//! relation: one [`Handler`] per rule, each a pattern match on the
//! inputs followed by a straight-line sequence of [`Step`]s, mirroring
//! the fixpoints of Figures 1 and 2 of the paper. Plans are
//! representation-level: the same plan is executed as a checker, an
//! enumerator, or a generator by [`crate::exec`].

use crate::mode::Mode;
use indrel_rel::RelEnv;
use indrel_term::{Pattern, RelId, TermExpr, TypeExpr, Universe, VarId};
use std::fmt;

/// One scheduled constraint of a handler.
#[derive(Clone, Debug)]
pub enum Step {
    /// Check (dis)equality of two fully-instantiated terms
    /// (`check top_size (e₁ = e₂) .&& …`).
    EqCheck {
        /// Left-hand side (fully known when reached).
        lhs: TermExpr,
        /// Right-hand side (fully known when reached).
        rhs: TermExpr,
        /// `true` for a disequality.
        negated: bool,
    },
    /// Bind an unknown variable to the value of a known term (solving a
    /// positive equality premise by instantiation).
    EqBind {
        /// The variable to bind.
        var: VarId,
        /// The defining term (fully known when reached).
        expr: TermExpr,
    },
    /// Evaluate a known term and match it against a pattern, binding the
    /// pattern's unknown variables; pattern variables already bound act
    /// as equality checks (the non-linear reconciliation of §4's `TApp`
    /// handler).
    MatchExpr {
        /// The (known) scrutinee.
        scrutinee: TermExpr,
        /// The pattern to match against.
        pattern: Pattern,
    },
    /// Call the checker of another relation with the top-level fuel
    /// (`check top_size (Q …) .&& …`).
    CheckRel {
        /// The relation checked.
        rel: RelId,
        /// Fully-known argument terms.
        args: Vec<TermExpr>,
        /// `true` for a negated premise.
        negated: bool,
    },
    /// Recursive checker call with the decremented fuel
    /// (`rec size' top_size … .&& …`). Only emitted in checker plans.
    RecCheck {
        /// Fully-known argument terms.
        args: Vec<TermExpr>,
    },
    /// Call an external producer instance for `(rel, mode)`, binding its
    /// outputs to fresh slots (`bindEC (enumST top_size …) …` in checker
    /// plans, `bindE`/`bindG` in producer plans).
    ProduceExt {
        /// The relation produced from.
        rel: RelId,
        /// The mode of the external instance.
        mode: Mode,
        /// Fully-known terms for the instance's input positions.
        in_args: Vec<TermExpr>,
        /// Fresh slots receiving the produced outputs, one per output
        /// position, ascending.
        out_slots: Vec<VarId>,
    },
    /// Recursive producer call at the decremented size (only emitted in
    /// producer plans).
    ProduceRec {
        /// Fully-known terms for the plan's own input positions.
        in_args: Vec<TermExpr>,
        /// Fresh slots receiving the produced outputs.
        out_slots: Vec<VarId>,
    },
    /// Instantiate a variable with the unconstrained producer for its
    /// type (bounded-exhaustive in enumerators/checkers, random in
    /// generators).
    Unconstrained {
        /// The variable to instantiate.
        var: VarId,
        /// Its type.
        ty: TypeExpr,
    },
}

/// The compiled form of one rule.
#[derive(Clone, Debug)]
pub struct Handler {
    /// Index of the source rule in the (preprocessed) relation.
    pub rule_index: usize,
    /// Rule (constructor) name.
    pub name: String,
    /// `true` when the handler recurses (contains [`Step::RecCheck`] or
    /// [`Step::ProduceRec`]); at fuel 0 only non-recursive handlers run.
    pub recursive: bool,
    /// Total variable slots (rule variables plus fresh slots).
    pub nslots: usize,
    /// Variable names for diagnostics, indexed by slot.
    pub slot_names: Vec<String>,
    /// Patterns for the plan's input positions, in ascending position
    /// order (the `match in₁, …, inₙ with` of Algorithm 1).
    pub input_pats: Vec<Pattern>,
    /// The scheduled constraints.
    pub steps: Vec<Step>,
    /// Provenance: for each step, the index of the source (preprocessed)
    /// premise it implements, or `None` for steps the compiler invents
    /// on its own account (output instantiation in producer plans). The
    /// scheduler may hoist a premise ahead of earlier ones, so
    /// `explain()` tags each cost-table row `[pN]` with this index; one
    /// premise can expand to several steps (instantiation + call +
    /// reconciliation), all attributed to the same index.
    pub premise_of: Vec<Option<u32>>,
    /// Conclusion terms at the output positions, evaluated at the end
    /// (empty for checker plans).
    pub outputs: Vec<TermExpr>,
}

/// A mode-specialized compilation of a relation.
#[derive(Clone, Debug)]
pub struct Plan {
    /// The source relation.
    pub rel: RelId,
    /// The mode this plan implements.
    pub mode: Mode,
    /// One handler per (preprocessed) rule.
    pub handlers: Vec<Handler>,
}

/// [`Step::static_cost`] of a local step: an equality or a match.
/// The scheduler ranks an admissible equality premise at this cost,
/// and a handler whose steps all cost this much makes no call, so the
/// top-level entry never tables the tuples its bucket answers alone
/// ([`crate::memo`]).
pub(crate) const LOCAL_COST: u64 = 1;

/// [`Step::static_cost`] of a checker call, external or recursive: the
/// scheduler ranks an admissible relation premise at this cost.
pub(crate) const CALL_COST: u64 = 10;

impl Step {
    /// A short label for the step kind, used by `explain()`'s cost
    /// table and diagnostics.
    pub fn kind_label(&self) -> &'static str {
        match self {
            Step::EqCheck { negated: false, .. } => "eq-check",
            Step::EqCheck { negated: true, .. } => "neq-check",
            Step::EqBind { .. } => "eq-bind",
            Step::MatchExpr { .. } => "match",
            Step::CheckRel { negated: false, .. } => "check-rel",
            Step::CheckRel { negated: true, .. } => "check-not",
            Step::RecCheck { .. } => "rec-check",
            Step::ProduceExt { .. } => "produce-ext",
            Step::ProduceRec { .. } => "produce-rec",
            Step::Unconstrained { .. } => "unconstrained",
        }
    }

    /// The scheduler's static cost estimate for one evaluation of the
    /// step, in the same unit the probe's premise attribution observes
    /// (search entries). Local work (equalities, matches) is flat;
    /// checker calls recurse; producer calls additionally enumerate.
    /// A checker plan takes its admissible premises in ascending order
    /// of this cost, ties in source order ([`crate::compile`]), and
    /// `explain()` renders it next to the observed means so the
    /// estimates can be judged on a workload.
    pub fn static_cost(&self) -> u64 {
        match self {
            Step::EqCheck { .. } | Step::EqBind { .. } | Step::MatchExpr { .. } => LOCAL_COST,
            Step::CheckRel { .. } | Step::RecCheck { .. } => CALL_COST,
            Step::ProduceExt { .. } | Step::ProduceRec { .. } | Step::Unconstrained { .. } => 25,
        }
    }
}

impl Plan {
    /// `true` when some handler is recursive (so the fuel-0 case must
    /// include a `None`/out-of-fuel option, Algorithm 1 line 11).
    pub fn has_recursive_handlers(&self) -> bool {
        self.handlers.iter().any(|h| h.recursive)
    }

    /// Counts the step kinds across all handlers — a fingerprint of
    /// what the derivation had to do for this relation and mode.
    pub fn step_stats(&self) -> StepStats {
        let mut stats = StepStats::default();
        for h in &self.handlers {
            for s in &h.steps {
                match s {
                    Step::EqCheck { .. } => stats.eq_checks += 1,
                    Step::EqBind { .. } => stats.eq_binds += 1,
                    Step::MatchExpr { .. } => stats.matches += 1,
                    Step::CheckRel { negated, .. } => {
                        stats.checker_calls += 1;
                        if *negated {
                            stats.negations += 1;
                        }
                    }
                    Step::RecCheck { .. } => stats.recursive_calls += 1,
                    Step::ProduceExt { .. } => stats.producer_calls += 1,
                    Step::ProduceRec { .. } => stats.recursive_calls += 1,
                    Step::Unconstrained { .. } => stats.unconstrained += 1,
                }
            }
        }
        stats
    }

    /// Renders the plan as pseudo-code in the style of Figures 1 and 2.
    pub fn display<'a>(&'a self, universe: &'a Universe, env: &'a RelEnv) -> DisplayPlan<'a> {
        DisplayPlan {
            plan: self,
            universe,
            env,
        }
    }
}

/// Step-kind counts for a plan, from [`Plan::step_stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StepStats {
    /// Equality checks (linearization, function-call hoists, source
    /// equalities).
    pub eq_checks: usize,
    /// Equality-solving bindings.
    pub eq_binds: usize,
    /// Reconciliation pattern matches.
    pub matches: usize,
    /// External checker calls.
    pub checker_calls: usize,
    /// Recursive calls (checker or producer).
    pub recursive_calls: usize,
    /// External producer calls (existential handling).
    pub producer_calls: usize,
    /// Unconstrained instantiations.
    pub unconstrained: usize,
    /// Negated premises.
    pub negations: usize,
}

impl fmt::Display for StepStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "eq={} bind={} match={} check={} rec={} produce={} arb={} neg={}",
            self.eq_checks,
            self.eq_binds,
            self.matches,
            self.checker_calls,
            self.recursive_calls,
            self.producer_calls,
            self.unconstrained,
            self.negations
        )
    }
}

/// Helper returned by [`Plan::display`].
#[derive(Debug)]
pub struct DisplayPlan<'a> {
    plan: &'a Plan,
    universe: &'a Universe,
    env: &'a RelEnv,
}

impl fmt::Display for DisplayPlan<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let rel_name = self.env.relation(self.plan.rel).name();
        writeln!(f, "derived {} {} :=", rel_name, self.plan.mode)?;
        for h in &self.plan.handlers {
            writeln!(
                f,
                "  handler {} {}:",
                h.name,
                if h.recursive { "(rec)" } else { "(base)" }
            )?;
            let pats: Vec<String> = h
                .input_pats
                .iter()
                .map(|p| p.display(self.universe, &h.slot_names).to_string())
                .collect();
            writeln!(f, "    match inputs with {}", pats.join(", "))?;
            for s in &h.steps {
                writeln!(
                    f,
                    "    {}",
                    DisplayStep {
                        step: s,
                        universe: self.universe,
                        env: self.env,
                        names: &h.slot_names,
                    }
                )?;
            }
            if h.outputs.is_empty() {
                writeln!(f, "    ret true")?;
            } else {
                let outs: Vec<String> = h
                    .outputs
                    .iter()
                    .map(|e| e.display(self.universe, &h.slot_names).to_string())
                    .collect();
                writeln!(f, "    ret ({})", outs.join(", "))?;
            }
        }
        Ok(())
    }
}

struct DisplayStep<'a> {
    step: &'a Step,
    universe: &'a Universe,
    env: &'a RelEnv,
    names: &'a [String],
}

impl fmt::Display for DisplayStep<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let u = self.universe;
        let n = self.names;
        match self.step {
            Step::EqCheck { lhs, rhs, negated } => write!(
                f,
                "check ({} {} {})",
                lhs.display(u, n),
                if *negated { "<>" } else { "=" },
                rhs.display(u, n)
            ),
            Step::EqBind { var, expr } => write!(
                f,
                "let {} := {}",
                n.get(var.index()).map_or("?", |s| s.as_str()),
                expr.display(u, n)
            ),
            Step::MatchExpr { scrutinee, pattern } => write!(
                f,
                "match {} with {}",
                scrutinee.display(u, n),
                pattern.display(u, n)
            ),
            Step::CheckRel { rel, args, negated } => {
                if *negated {
                    write!(f, "check ~(")?;
                } else {
                    write!(f, "check (")?;
                }
                write!(f, "{}", self.env.relation(*rel).name())?;
                for a in args {
                    write!(f, " {}", a.display(u, n))?;
                }
                write!(f, ")")
            }
            Step::RecCheck { args } => {
                write!(f, "rec size'")?;
                for a in args {
                    write!(f, " {}", a.display(u, n))?;
                }
                Ok(())
            }
            Step::ProduceExt {
                rel,
                mode,
                in_args,
                out_slots,
            } => {
                let outs: Vec<&str> = out_slots
                    .iter()
                    .map(|v| n.get(v.index()).map_or("?", |s| s.as_str()))
                    .collect();
                write!(
                    f,
                    "bind ({} <- produceST {}{}",
                    outs.join(", "),
                    self.env.relation(*rel).name(),
                    mode
                )?;
                for a in in_args {
                    write!(f, " {}", a.display(u, n))?;
                }
                write!(f, ")")
            }
            Step::ProduceRec { in_args, out_slots } => {
                let outs: Vec<&str> = out_slots
                    .iter()
                    .map(|v| n.get(v.index()).map_or("?", |s| s.as_str()))
                    .collect();
                write!(f, "bind ({} <- rec size'", outs.join(", "))?;
                for a in in_args {
                    write!(f, " {}", a.display(u, n))?;
                }
                write!(f, ")")
            }
            Step::Unconstrained { var, ty } => write!(
                f,
                "bind ({} <- arbitrary : {})",
                n.get(var.index()).map_or("?", |s| s.as_str()),
                ty.display(u)
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recursive_flag_propagates() {
        let plan = Plan {
            rel: RelId::new(0),
            mode: Mode::checker(1),
            handlers: vec![
                Handler {
                    rule_index: 0,
                    name: "base".into(),
                    recursive: false,
                    nslots: 0,
                    slot_names: vec![],
                    input_pats: vec![Pattern::NatLit(0)],
                    steps: vec![],
                    premise_of: vec![],
                    outputs: vec![],
                },
                Handler {
                    rule_index: 1,
                    name: "step".into(),
                    recursive: true,
                    nslots: 1,
                    slot_names: vec!["n".into()],
                    input_pats: vec![Pattern::Succ(Box::new(Pattern::var(0)))],
                    steps: vec![Step::RecCheck {
                        args: vec![TermExpr::var(0)],
                    }],
                    premise_of: vec![Some(0)],
                    outputs: vec![],
                },
            ],
        };
        assert!(plan.has_recursive_handlers());
    }
}
