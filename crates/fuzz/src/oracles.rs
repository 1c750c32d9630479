//! The differential oracle bank.
//!
//! Every generated spec is pushed through the *entire* derivation
//! pipeline — parse, preprocess, compile, execute — and checked against
//! ten independent oracles, each comparing two implementations that
//! should agree but share as little code as possible (this table is
//! mirrored by the enumerated list in DESIGN.md § "Self-fuzzing", the
//! prose source of truth README and ROADMAP point at):
//!
//! | oracle                     | left side              | right side                  |
//! |----------------------------|------------------------|-----------------------------|
//! | `parse_roundtrip`          | parsed program         | reparse of pretty-printout  |
//! | `interp_vs_compiled`       | compiled checker (budgeted) | budgeted re-run + plan interpreter |
//! | `checker_vs_reference`     | derived checker        | `indrel-semantics` search   |
//! | `enumerator_vs_checker`    | enumerator outcome set | checker-filtered domain     |
//! | `probe_parity`             | probe-armed checker    | unarmed checker             |
//! | `par_report_identity`      | sequential PBT report  | 2-worker PBT report         |
//! | `budget_determinism`       | budgeted run           | identical re-run            |
//! | `memo_vs_plain`            | memo-enabled fork      | plain (memo-less) fork      |
//! | `concurrent_memo_vs_plain` | threaded serve session | plain (memo-less) fork      |
//! | `replanned_vs_plain`       | profile-replanned fork | static-schedule fork + ref  |
//!
//! A spec that the deriver rejects (e.g. mutual recursion hitting
//! `InstanceCycle`) is not a violation: the execution oracles record a
//! [`OracleOutcome::Skip`] with the deriver's error, while the
//! roundtrip oracle still applies.

use indrel_core::{
    Budget, ExecError, ExecProbe, Library, LibraryBuilder, Mode, SearchStats, ServeConfig, Server,
};
use indrel_pbt::{Parallelism, Runner, TestOutcome};
use indrel_rel::analysis::features;
use indrel_rel::parse::{parse_program, std_universe};
use indrel_rel::pretty::pretty_program;
use indrel_rel::{Premise, RelEnv};
use indrel_term::enumerate::tuples_up_to;
use indrel_term::{RelId, TypeExpr, Universe, Value};
use indrel_validate::{ValidationParams, Validator};
use std::collections::BTreeSet;
use std::fmt;

/// The ten oracles, in reporting order.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Oracle {
    /// `parse(pretty(p))` is structurally equal to `parse(p)`.
    Roundtrip,
    /// [`Library::check`] (the bytecode VM, or the interpreter fallback
    /// for plans that did not compile) returns the same budgeted
    /// `Result` on a repeated run, and every decided verdict equals
    /// [`Library::check_interpreted`], across the domain and a fuel
    /// ladder.
    InterpVsCompiled,
    /// The derived checker agrees with the bounded reference proof
    /// search of `indrel-semantics` (via [`Validator::checker_case`]).
    CheckerVsReference,
    /// The all-outputs enumerator outcome set matches the
    /// checker-filtered exhaustive domain.
    EnumeratorVsChecker,
    /// Arming a [`SearchStats`] probe never changes a verdict.
    ProbeParity,
    /// Sequential and two-worker [`Runner::run_par`] reports are
    /// byte-identical.
    ParallelReportIdentity,
    /// `try_check` under a step budget returns the same `Result` on
    /// repeated runs.
    BudgetDeterminism,
    /// A [`Library::with_memo`] fork agrees with a plain fork across
    /// the domain and an ascending fuel ladder (exercising both cold
    /// misses and monotonicity-justified hits).
    MemoVsPlain,
    /// A shared sharded-memo [`Server`] session, driven concurrently
    /// from multiple worker threads with one shard poison-injected,
    /// agrees verdict-for-verdict with a fresh unmemoized fork.
    ConcurrentMemoVsPlain,
    /// A [`Library::replan_from`] fork (profile-guided premise
    /// schedules) agrees with the static-schedule fork: byte-identical
    /// sibling replans, exact result equality when the replan was a
    /// no-op, decided-verdict agreement otherwise, and full agreement
    /// with the `indrel-semantics` reference on the replanned side.
    ReplannedVsPlain,
}

impl Oracle {
    /// All oracles, in reporting order.
    pub const ALL: [Oracle; 10] = [
        Oracle::Roundtrip,
        Oracle::InterpVsCompiled,
        Oracle::CheckerVsReference,
        Oracle::EnumeratorVsChecker,
        Oracle::ProbeParity,
        Oracle::ParallelReportIdentity,
        Oracle::BudgetDeterminism,
        Oracle::MemoVsPlain,
        Oracle::ConcurrentMemoVsPlain,
        Oracle::ReplannedVsPlain,
    ];

    /// Stable machine-readable name (used in JSON output, artifacts,
    /// and regression-test assertion messages).
    pub fn name(self) -> &'static str {
        match self {
            Oracle::Roundtrip => "parse_roundtrip",
            Oracle::InterpVsCompiled => "interp_vs_compiled",
            Oracle::CheckerVsReference => "checker_vs_reference",
            Oracle::EnumeratorVsChecker => "enumerator_vs_checker",
            Oracle::ProbeParity => "probe_parity",
            Oracle::ParallelReportIdentity => "par_report_identity",
            Oracle::BudgetDeterminism => "budget_determinism",
            Oracle::MemoVsPlain => "memo_vs_plain",
            Oracle::ConcurrentMemoVsPlain => "concurrent_memo_vs_plain",
            Oracle::ReplannedVsPlain => "replanned_vs_plain",
        }
    }
}

impl fmt::Display for Oracle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// How one oracle fared on one spec.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum OracleOutcome {
    /// The two sides agreed everywhere.
    Pass,
    /// Disagreement; the payload pinpoints where.
    Violation(String),
    /// The oracle could not run (derivation rejected the spec, or the
    /// reference semantics could not be built); the payload says why.
    Skip(String),
}

/// Syntactic features of a spec, for coverage reporting.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct SpecFeatures {
    /// Number of relations declared.
    pub relations: usize,
    /// Number of datatypes declared.
    pub datatypes: usize,
    /// Contains a `mutual` block (a forward relation reference).
    pub mutual: bool,
    /// Some conclusion repeats a variable.
    pub nonlinear: bool,
    /// Some conclusion contains a function call.
    pub funcall: bool,
    /// Some rule has premise-only (existential) variables.
    pub existential: bool,
    /// Some premise is negated.
    pub negation: bool,
    /// Some premise is a source-level (dis)equality.
    pub equality: bool,
}

/// The oracle bank's verdict on one spec.
#[derive(Clone, Debug)]
pub struct SpecReport {
    /// One outcome per oracle, in [`Oracle::ALL`] order.
    pub outcomes: Vec<(Oracle, OracleOutcome)>,
    /// Feature coverage for this spec.
    pub features: SpecFeatures,
}

impl SpecReport {
    /// The first violated oracle, if any.
    pub fn violation(&self) -> Option<(Oracle, &str)> {
        self.outcomes.iter().find_map(|(o, out)| match out {
            OracleOutcome::Violation(msg) => Some((*o, msg.as_str())),
            _ => None,
        })
    }
}

/// Oracle execution parameters.
///
/// Random specs can make derived search arbitrarily expensive — an
/// existential premise like `r (S x)` forces the checker to enumerate,
/// and stacking two of them grows the outcome set roughly as
/// `E(f) ≈ E(f-1)²` in the fuel `f`. Semantic bounds alone (`max_fuel`,
/// `arg_size`) therefore cannot bound a case's runtime, so every sweep
/// is additionally *operationally* budgeted through the `try_*` entry
/// points: a tuple whose verdict does not land within `call_steps` is
/// recorded as skipped, never guessed. Disagreements are overwhelmingly
/// fuel- and budget-independent, so small bounds lose little power.
#[derive(Clone, Copy, Debug)]
pub struct OracleParams {
    /// Maximum total value size for domain sweeps.
    pub arg_size: u64,
    /// Top of the checker/enumerator fuel ladder.
    pub max_fuel: u64,
    /// Depth bound of the reference proof search.
    pub ref_depth: u64,
    /// Value bound of the reference semantics.
    pub value_bound: u64,
    /// Step budget for one checker call in a sweep.
    pub call_steps: u64,
    /// Step budget for one full enumeration.
    pub enum_steps: u64,
    /// Tight step budget for the determinism oracle (chosen so it
    /// usually *does* cut the search off mid-flight).
    pub budget_steps: u64,
    /// PBT cases for the parallel-identity oracle.
    pub par_tests: usize,
}

impl Default for OracleParams {
    fn default() -> OracleParams {
        OracleParams {
            arg_size: 2,
            max_fuel: 4,
            ref_depth: 4,
            value_bound: 3,
            call_steps: 50_000,
            enum_steps: 50_000,
            budget_steps: 40,
            par_tests: 32,
        }
    }
}

/// Runs the whole oracle bank on a program given as DSL text (the
/// regression corpus enters here; generated specs enter through their
/// [`Spec::emit`](crate::Spec::emit) rendering).
pub fn run_dsl(source: &str) -> SpecReport {
    run_dsl_with(source, &OracleParams::default())
}

/// [`run_dsl`] with explicit parameters.
pub fn run_dsl_with(source: &str, params: &OracleParams) -> SpecReport {
    let mut u = std_universe();
    let mut env = RelEnv::new();
    let parsed = match parse_program(&mut u, &mut env, source) {
        Ok(out) => out,
        Err(e) => {
            // Generated text must always parse; a failure here is a
            // generator/parser bug and the roundtrip oracle owns it.
            let mut outcomes = vec![(
                Oracle::Roundtrip,
                OracleOutcome::Violation(format!("spec failed to parse: {e}")),
            )];
            for o in &Oracle::ALL[1..] {
                outcomes.push((*o, OracleOutcome::Skip("spec failed to parse".into())));
            }
            return SpecReport {
                outcomes,
                features: SpecFeatures::default(),
            };
        }
    };
    let rels: Vec<RelId> = parsed
        .relations
        .iter()
        .map(|n| env.rel_id(n).expect("declared"))
        .collect();

    let feats = spec_features(&env, &parsed.datatypes, &rels);
    let mut outcomes = Vec::with_capacity(Oracle::ALL.len());
    outcomes.push((
        Oracle::Roundtrip,
        roundtrip_oracle(&u, &env, &parsed.datatypes, &parsed.relations),
    ));

    // Derive every instance the execution oracles need. A rejection is
    // a recorded skip, not a violation — the deriver is allowed to say
    // no (mutual recursion, uncompilable modes), it is not allowed to
    // say yes and then disagree with the reference.
    match derive_all(&u, &env, &rels) {
        Ok(lib) => {
            outcomes.push((
                Oracle::InterpVsCompiled,
                interp_vs_compiled(&lib, &u, &env, &rels, params),
            ));
            outcomes.push((
                Oracle::CheckerVsReference,
                checker_vs_reference(&lib, &rels, params),
            ));
            outcomes.push((
                Oracle::EnumeratorVsChecker,
                enumerator_vs_checker(&lib, &u, &env, &rels, params),
            ));
            outcomes.push((
                Oracle::ProbeParity,
                probe_parity(&lib, &u, &env, &rels, params),
            ));
            outcomes.push((
                Oracle::ParallelReportIdentity,
                par_report_identity(&lib, &u, &env, &rels, params),
            ));
            outcomes.push((
                Oracle::BudgetDeterminism,
                budget_determinism(&lib, &u, &env, &rels, params),
            ));
            outcomes.push((
                Oracle::MemoVsPlain,
                memo_vs_plain(&lib, &u, &env, &rels, params),
            ));
            outcomes.push((
                Oracle::ConcurrentMemoVsPlain,
                concurrent_memo_vs_plain(&lib, &u, &env, &rels, params),
            ));
            outcomes.push((
                Oracle::ReplannedVsPlain,
                replanned_vs_plain(&lib, &u, &env, &rels, params),
            ));
        }
        Err(reason) => {
            for o in &Oracle::ALL[1..] {
                outcomes.push((*o, OracleOutcome::Skip(reason.clone())));
            }
        }
    }
    SpecReport {
        outcomes,
        features: feats,
    }
}

fn spec_features(env: &RelEnv, datatypes: &[String], rels: &[RelId]) -> SpecFeatures {
    let mut f = SpecFeatures {
        relations: rels.len(),
        datatypes: datatypes.len(),
        ..SpecFeatures::default()
    };
    for (i, &rel) in rels.iter().enumerate() {
        let rf = features(env.relation(rel));
        f.nonlinear |= rf.nonlinear_conclusion;
        f.funcall |= rf.funcall_in_conclusion;
        f.existential |= rf.existentials;
        f.negation |= rf.negated_premises;
        f.equality |= rf.eq_premises;
        for rule in env.relation(rel).rules() {
            for p in rule.premises() {
                if let Premise::Rel { rel: q, .. } = p {
                    if rels.iter().position(|r| r == q).is_some_and(|j| j > i) {
                        f.mutual = true;
                    }
                }
            }
        }
    }
    f
}

fn roundtrip_oracle(
    u: &Universe,
    env: &RelEnv,
    dt_names: &[String],
    rel_names: &[String],
) -> OracleOutcome {
    let dts: Vec<_> = dt_names
        .iter()
        .map(|n| u.dt_id(n).expect("declared"))
        .collect();
    let rels: Vec<_> = rel_names
        .iter()
        .map(|n| env.rel_id(n).expect("declared"))
        .collect();
    let text = pretty_program(u, env, &dts, &rels);
    let mut u2 = std_universe();
    let mut env2 = RelEnv::new();
    if let Err(e) = parse_program(&mut u2, &mut env2, &text) {
        return OracleOutcome::Violation(format!("pretty output failed to parse: {e}\n{text}"));
    }
    for (name, &rel) in rel_names.iter().zip(&rels) {
        let Some(rel2) = env2.rel_id(name) else {
            return OracleOutcome::Violation(format!("relation `{name}` lost in roundtrip"));
        };
        if env.relation(rel) != env2.relation(rel2) {
            return OracleOutcome::Violation(format!(
                "relation `{name}` changed across pretty/parse roundtrip"
            ));
        }
    }
    OracleOutcome::Pass
}

/// Derives a checker and an all-outputs producer for every relation.
fn derive_all(u: &Universe, env: &RelEnv, rels: &[RelId]) -> Result<Library, String> {
    let mut b = LibraryBuilder::new(u.clone(), env.clone());
    for &rel in rels {
        let name = env.relation(rel).name().to_string();
        b.derive_checker(rel)
            .map_err(|e| format!("derive_checker({name}): {e}"))?;
        let arity = env.relation(rel).arity();
        let outs: Vec<usize> = (0..arity).collect();
        b.derive_producer(rel, Mode::producer(arity, &outs))
            .map_err(|e| format!("derive_producer({name}): {e}"))?;
    }
    Ok(b.build())
}

fn domain(u: &Universe, env: &RelEnv, rel: RelId, size: u64) -> (Vec<TypeExpr>, Vec<Vec<Value>>) {
    let tys = env.relation(rel).arg_types().to_vec();
    let dom = tuples_up_to(u, &tys, size);
    (tys, dom)
}

/// `true` when the error is a budget cut-off (an acceptable reason to
/// skip a tuple), as opposed to a structural error that should never
/// come out of a successfully derived library.
fn is_cutoff(e: &ExecError) -> bool {
    matches!(e, ExecError::BudgetExhausted { .. } | ExecError::Deadline)
}

/// Budgeted verdict probe: completes the checker call within
/// `params.call_steps` or reports why it could not.
fn budgeted_check(
    lib: &Library,
    rel: RelId,
    fuel: u64,
    args: &[Value],
    params: &OracleParams,
) -> Result<Option<bool>, ExecError> {
    let budget = Budget::unlimited().with_steps(params.call_steps);
    lib.try_check(rel, fuel, fuel, args, budget)
}

fn interp_vs_compiled(
    lib: &Library,
    u: &Universe,
    env: &RelEnv,
    rels: &[RelId],
    params: &OracleParams,
) -> OracleOutcome {
    // A fresh session per side, so neither run sees scratch state the
    // other left behind.
    let again = lib.fork();
    let interp = lib.fork();
    for &rel in rels {
        let (_, dom) = domain(u, env, rel, params.arg_size);
        for args in &dom {
            for fuel in [0, params.max_fuel / 2, params.max_fuel] {
                // Compared *as `Result`s*: a repeated run charges the
                // same budget sites, so cut-offs have to agree
                // tuple-for-tuple, not just decided verdicts.
                let compiled = budgeted_check(lib, rel, fuel, args, params);
                let rerun = budgeted_check(&again, rel, fuel, args, params);
                if compiled != rerun {
                    return OracleOutcome::Violation(format!(
                        "{} at fuel {fuel} on {}: compiled {compiled:?} vs re-run {rerun:?}",
                        env.relation(rel).name(),
                        render_args(u, args),
                    ));
                }
                match compiled {
                    // The budgeted run bounds the work; the interpreter
                    // walks the same plan unindexed, so a verdict that
                    // fits the budget is cheap enough to re-derive.
                    Ok(verdict) => {
                        let interpreted = interp.check_interpreted(rel, fuel, fuel, args);
                        if interpreted != verdict {
                            return OracleOutcome::Violation(format!(
                                "{} at fuel {fuel} on {}: compiled {verdict:?} vs interpreted \
                                 {interpreted:?}",
                                env.relation(rel).name(),
                                render_args(u, args),
                            ));
                        }
                    }
                    Err(e) if is_cutoff(&e) => {}
                    Err(e) => return OracleOutcome::Violation(format!("compiled checker: {e}")),
                }
            }
        }
    }
    OracleOutcome::Pass
}

fn checker_vs_reference(lib: &Library, rels: &[RelId], params: &OracleParams) -> OracleOutcome {
    let vparams = ValidationParams {
        arg_size: params.arg_size,
        max_fuel: params.max_fuel,
        ref_depth: params.ref_depth,
        value_bound: params.value_bound,
        ..ValidationParams::default()
    };
    let v = match Validator::with_params(lib.fork(), vparams) {
        Ok(v) => v,
        Err(e) => return OracleOutcome::Skip(e.to_string()),
    };
    for &rel in rels {
        for args in v.sweep_args(rel) {
            // Screen the most expensive call of the fuel ladder; if it
            // cannot finish within budget, skip the tuple rather than
            // letting the (unbudgeted) validator sweep run away.
            match budgeted_check(lib, rel, params.max_fuel, &args, params) {
                Ok(_) => {}
                Err(e) if is_cutoff(&e) => continue,
                Err(e) => return OracleOutcome::Violation(format!("checker: {e}")),
            }
            let case = v.checker_case(rel, &args);
            if let Some(violation) = case.violations.first() {
                return OracleOutcome::Violation(violation.to_string());
            }
        }
    }
    OracleOutcome::Pass
}

fn enumerator_vs_checker(
    lib: &Library,
    u: &Universe,
    env: &RelEnv,
    rels: &[RelId],
    params: &OracleParams,
) -> OracleOutcome {
    use indrel_producers::Outcome;
    let fuel = params.max_fuel;
    for &rel in rels {
        let arity = env.relation(rel).arity();
        let mode = Mode::producer(arity, &(0..arity).collect::<Vec<_>>());
        let budget = Budget::unlimited().with_steps(params.enum_steps);
        let mut stream = match lib.try_enumerate(rel, &mode, fuel, fuel, &[], budget) {
            Ok(s) => s,
            Err(e) => return OracleOutcome::Violation(format!("enumerator: {e}")),
        };
        let mut seen: BTreeSet<Vec<Value>> = BTreeSet::new();
        let mut out_of_fuel = false;
        for o in &mut stream {
            match o {
                Outcome::Val(v) => {
                    seen.insert(v);
                }
                Outcome::OutOfFuel => out_of_fuel = true,
            }
        }
        // A budget cut-off truncates the outcome set arbitrarily, so
        // neither direction of the comparison is meaningful.
        if stream.exhaustion_error().is_some() {
            continue;
        }
        // Soundness: nothing the enumerator produces may be refuted by
        // the checker (out-of-fuel and over-budget verdicts are
        // inconclusive). Bounded to the first 500 outcomes so a huge
        // (but within-budget) outcome set cannot stall the case.
        for outs in seen.iter().take(500) {
            match budgeted_check(lib, rel, fuel, outs, params) {
                Ok(Some(false)) => {
                    return OracleOutcome::Violation(format!(
                        "{} enumerated {} but the checker refutes it",
                        env.relation(rel).name(),
                        render_args(u, outs),
                    ));
                }
                Ok(_) => {}
                Err(e) if is_cutoff(&e) => {}
                Err(e) => return OracleOutcome::Violation(format!("checker: {e}")),
            }
        }
        // Completeness: if the enumeration finished without running out
        // of fuel, every domain tuple the checker accepts must appear.
        if !out_of_fuel {
            let (_, dom) = domain(u, env, rel, params.arg_size);
            for args in &dom {
                let accepted =
                    matches!(budgeted_check(lib, rel, fuel, args, params), Ok(Some(true)));
                if accepted && !seen.contains(args) {
                    return OracleOutcome::Violation(format!(
                        "checker accepts {} for {} but a fuel-complete enumeration missed it",
                        render_args(u, args),
                        env.relation(rel).name(),
                    ));
                }
            }
        }
    }
    OracleOutcome::Pass
}

fn probe_parity(
    lib: &Library,
    u: &Universe,
    env: &RelEnv,
    rels: &[RelId],
    params: &OracleParams,
) -> OracleOutcome {
    let fuel = params.max_fuel;
    for &rel in rels {
        let (_, dom) = domain(u, env, rel, params.arg_size);
        // The budgeted probe must agree *as a `Result`*: arming a stats
        // probe may change neither the verdict nor the step accounting.
        let unarmed: Vec<Result<Option<bool>, ExecError>> = dom
            .iter()
            .map(|args| budgeted_check(lib, rel, fuel, args, params))
            .collect();
        let stats = SearchStats::new();
        let armed: Vec<Result<Option<bool>, ExecError>> = {
            let _probe = lib.arm_probe(ExecProbe::stats(&stats));
            dom.iter()
                .map(|args| budgeted_check(lib, rel, fuel, args, params))
                .collect()
        };
        if let Some(i) = (0..dom.len()).find(|&i| unarmed[i] != armed[i]) {
            return OracleOutcome::Violation(format!(
                "{} on {}: unarmed {:?} vs probe-armed {:?}",
                env.relation(rel).name(),
                render_args(u, &dom[i]),
                unarmed[i],
                armed[i],
            ));
        }
    }
    OracleOutcome::Pass
}

fn par_report_identity(
    lib: &Library,
    u: &Universe,
    env: &RelEnv,
    rels: &[RelId],
    params: &OracleParams,
) -> OracleOutcome {
    let fuel = params.max_fuel;
    let rel = rels[0];
    let (_, dom) = domain(u, env, rel, params.arg_size);
    if dom.is_empty() {
        return OracleOutcome::Skip("empty domain".into());
    }
    let shared = lib.fork().shared();
    let render = |parallelism: Parallelism| {
        let dom = dom.clone();
        let shared = &shared;
        Runner::new(7)
            .with_size(4)
            .with_parallelism(parallelism)
            .run_par(params.par_tests, move || {
                let check = shared.fork();
                let dom_gen = dom.clone();
                (
                    move |_size: u64, rng: &mut dyn rand::RngCore| {
                        let i = rand::Rng::gen_range(rng, 0..dom_gen.len());
                        Some(dom_gen[i].clone())
                    },
                    move |args: &[Value]| {
                        // The property is checker stability; its
                        // verdict pattern seeds the report the two
                        // schedules must agree on. Budgeted so one
                        // expensive tuple cannot stall the runner.
                        let budget = Budget::unlimited().with_steps(50_000);
                        let a = check.try_check(rel, fuel, fuel, args, budget);
                        let b = check.try_check(rel, fuel, fuel, args, budget);
                        TestOutcome::from_bool(a == b)
                    },
                )
            })
            .to_string()
    };
    let seq = render(Parallelism::Off);
    let par = render(Parallelism::Fixed(2));
    if seq != par {
        return OracleOutcome::Violation(format!(
            "sequential and 2-worker reports differ:\n--- seq\n{seq}\n--- par\n{par}"
        ));
    }
    OracleOutcome::Pass
}

fn budget_determinism(
    lib: &Library,
    u: &Universe,
    env: &RelEnv,
    rels: &[RelId],
    params: &OracleParams,
) -> OracleOutcome {
    let fuel = params.max_fuel;
    for &rel in rels {
        let (_, dom) = domain(u, env, rel, params.arg_size);
        for args in dom.iter().take(8) {
            let budget = Budget::unlimited().with_steps(params.budget_steps);
            let first = lib.try_check(rel, fuel, fuel, args, budget);
            let second = lib.try_check(rel, fuel, fuel, args, budget);
            if first != second {
                return OracleOutcome::Violation(format!(
                    "{} on {}: first run {first:?} vs second run {second:?}",
                    env.relation(rel).name(),
                    render_args(u, args),
                ));
            }
        }
    }
    OracleOutcome::Pass
}

fn memo_vs_plain(
    lib: &Library,
    u: &Universe,
    env: &RelEnv,
    rels: &[RelId],
    params: &OracleParams,
) -> OracleOutcome {
    // One memoized session for the whole spec: the fuel ladder runs
    // ascending so later, larger-fuel queries hit entries decided at
    // smaller fuels — the monotonicity rule under test.
    let memoized = lib.fork().with_memo();
    for &rel in rels {
        let (_, dom) = domain(u, env, rel, params.arg_size);
        for fuel in [0, params.max_fuel / 2, params.max_fuel] {
            for args in &dom {
                let plain = match budgeted_check(lib, rel, fuel, args, params) {
                    Ok(v) => v,
                    // The memoized run charges at most as many steps as
                    // the plain one (a hit replaces a whole search with
                    // one step), so a plain cut-off says nothing about
                    // the memoized verdict — skip the tuple.
                    Err(e) if is_cutoff(&e) => continue,
                    Err(e) => return OracleOutcome::Violation(format!("plain checker: {e}")),
                };
                match budgeted_check(&memoized, rel, fuel, args, params) {
                    Ok(m) if m == plain => {}
                    Ok(m) => {
                        return OracleOutcome::Violation(format!(
                            "{} at fuel {fuel} on {}: memoized {m:?} vs plain {plain:?}",
                            env.relation(rel).name(),
                            render_args(u, args),
                        ));
                    }
                    Err(e) => {
                        return OracleOutcome::Violation(format!(
                            "{} at fuel {fuel} on {}: memoized run failed ({e}) where \
                             the plain run returned {plain:?}",
                            env.relation(rel).name(),
                            render_args(u, args),
                        ));
                    }
                }
            }
        }
    }
    OracleOutcome::Pass
}

fn concurrent_memo_vs_plain(
    lib: &Library,
    u: &Universe,
    env: &RelEnv,
    rels: &[RelId],
    params: &OracleParams,
) -> OracleOutcome {
    // Plain side first, single-threaded: every tuple the unmemoized
    // checker decides within budget, grouped by (relation, fuel) the
    // way `check_batch` consumes them. Cut-off tuples are skipped for
    // the same reason as in `memo_vs_plain`.
    struct Group {
        rel: RelId,
        fuel: u64,
        tuples: Vec<Vec<Value>>,
        plain: Vec<Option<bool>>,
    }
    let mut groups: Vec<Group> = Vec::new();
    for &rel in rels {
        let (_, dom) = domain(u, env, rel, params.arg_size);
        for fuel in [0, params.max_fuel / 2, params.max_fuel] {
            let mut g = Group {
                rel,
                fuel,
                tuples: Vec::new(),
                plain: Vec::new(),
            };
            for args in &dom {
                match budgeted_check(lib, rel, fuel, args, params) {
                    Ok(v) => {
                        g.tuples.push(args.clone());
                        g.plain.push(v);
                    }
                    Err(e) if is_cutoff(&e) => {}
                    Err(e) => return OracleOutcome::Violation(format!("plain checker: {e}")),
                }
            }
            if !g.tuples.is_empty() {
                groups.push(g);
            }
        }
    }
    if groups.is_empty() {
        return OracleOutcome::Skip("no tuple decided within the step budget".into());
    }
    // Shared serving side: one server, one shard poison-injected up
    // front (a degraded shard must fall back to the unmemoized search,
    // never answer wrongly), two worker threads interleaving batches
    // over the same shared table. Retries absorb the small step
    // overhead the memo boundary adds over the plain budget.
    let server = Server::new(
        lib.fork().shared(),
        ServeConfig {
            shards: 8,
            shard_capacity: 1 << 12,
            steps_per_request: params.call_steps,
            max_retries: 2,
            ..ServeConfig::default()
        },
        Budget::unlimited(),
    );
    {
        let _quiet = indrel_pbt::chaos::silence_panics();
        server.memo().poison_shard(0);
    }
    // Each worker reports the first disagreement it sees as
    // (group, tuple, served result); rendering happens back here.
    type Complaint = (usize, usize, Result<Option<bool>, ExecError>);
    let mut complaints: Vec<Complaint> = Vec::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..2usize)
            .map(|t| {
                let server = &server;
                let groups = &groups;
                scope.spawn(move || -> Option<Complaint> {
                    let session = server.session();
                    for (gi, g) in groups.iter().enumerate() {
                        let mine: Vec<usize> = (0..g.tuples.len()).filter(|i| i % 2 == t).collect();
                        let batch: Vec<Vec<Value>> =
                            mine.iter().map(|&i| g.tuples[i].clone()).collect();
                        let got = session.check_batch(g.rel, g.fuel, &batch);
                        for (&i, r) in mine.iter().zip(&got) {
                            match r {
                                Ok(v) if *v == g.plain[i] => {}
                                other => return Some((gi, i, other.clone())),
                            }
                        }
                    }
                    None
                })
            })
            .collect();
        for h in handles {
            match h.join() {
                Ok(Some(c)) => complaints.push(c),
                Ok(None) => {}
                Err(_) => complaints.push((usize::MAX, 0, Err(ExecError::Deadline))),
            }
        }
    });
    if let Some((gi, i, served)) = complaints.into_iter().next() {
        if gi == usize::MAX {
            return OracleOutcome::Violation("serving worker thread panicked".into());
        }
        let g = &groups[gi];
        return OracleOutcome::Violation(format!(
            "{} at fuel {} on {}: served {served:?} vs plain {:?} \
             (2 threads, shard 0 poisoned, degraded_shards={})",
            env.relation(g.rel).name(),
            g.fuel,
            render_args(u, &g.tuples[i]),
            g.plain[i],
            server.stats().degraded_shards,
        ));
    }
    OracleOutcome::Pass
}

fn replanned_vs_plain(
    lib: &Library,
    u: &Universe,
    env: &RelEnv,
    rels: &[RelId],
    params: &OracleParams,
) -> OracleOutcome {
    // 1. Profile the spec under its static schedules: one budgeted
    //    sweep over every relation's domain with a stats probe armed.
    let stats = SearchStats::new();
    {
        let _probe = lib.arm_probe(ExecProbe::stats(&stats));
        for &rel in rels {
            let (_, dom) = domain(u, env, rel, params.arg_size);
            for args in &dom {
                let _ = budgeted_check(lib, rel, params.max_fuel, args, params);
            }
        }
    }
    // 2. Replan twice from the same snapshot: replans are specified to
    //    be deterministic functions of it, so the siblings must render
    //    byte-identical plans and the same report.
    let (replanned, report) = lib.replan_from_report(&stats);
    let (again, report_again) = lib.replan_from_report(&stats);
    if report.replanned != report_again.replanned {
        return OracleOutcome::Violation(format!(
            "sibling replans disagree on what changed: {:?} vs {:?}",
            report.replanned, report_again.replanned
        ));
    }
    for &rel in rels {
        if replanned.explain(rel) != again.explain(rel) {
            return OracleOutcome::Violation(format!(
                "sibling replans of {} render different plans",
                env.relation(rel).name()
            ));
        }
    }
    // 3. Verdict agreement with the static-schedule fork. When the
    //    replan was a no-op the libraries share every plan, so the
    //    budgeted Results must be identical, cut-offs included. When a
    //    plan changed, budget charges and cut-off placement
    //    legitimately differ, so: skip cut-offs, require decided
    //    verdicts to agree (a reorder can move a tuple between decided
    //    and unknown at the fuel frontier, but never flip true/false),
    //    and let None-vs-decided pass — a better schedule may decide
    //    within a budget the static order exhausts.
    let noop = report.is_noop();
    for &rel in rels {
        let (_, dom) = domain(u, env, rel, params.arg_size);
        for fuel in [0, params.max_fuel / 2, params.max_fuel] {
            for args in &dom {
                let plain = budgeted_check(lib, rel, fuel, args, params);
                let rep = budgeted_check(&replanned, rel, fuel, args, params);
                if noop {
                    let same = match (&plain, &rep) {
                        (Ok(a), Ok(b)) => a == b,
                        (Err(a), Err(b)) => format!("{a}") == format!("{b}"),
                        _ => false,
                    };
                    if !same {
                        return OracleOutcome::Violation(format!(
                            "{} at fuel {fuel} on {}: no-op replan changed the result: \
                             replanned {rep:?} vs plain {plain:?}",
                            env.relation(rel).name(),
                            render_args(u, args),
                        ));
                    }
                    continue;
                }
                let (Ok(plain), Ok(rep)) = (plain, rep) else {
                    continue;
                };
                if let (Some(a), Some(b)) = (plain, rep) {
                    if a != b {
                        return OracleOutcome::Violation(format!(
                            "{} at fuel {fuel} on {}: replanned {b:?} vs plain {a:?}",
                            env.relation(rel).name(),
                            render_args(u, args),
                        ));
                    }
                }
            }
        }
    }
    // 4. The replanned fork must also agree with the bounded reference
    //    proof search on its own — decided verdicts that merely *agree
    //    with each other* could still both be wrong.
    match checker_vs_reference(&replanned, rels, params) {
        OracleOutcome::Pass | OracleOutcome::Skip(_) => OracleOutcome::Pass,
        OracleOutcome::Violation(v) => {
            OracleOutcome::Violation(format!("replanned fork vs reference: {v}"))
        }
    }
}

fn render_args(u: &Universe, args: &[Value]) -> String {
    let parts: Vec<String> = args
        .iter()
        .map(|v| u.display_value(v).to_string())
        .collect();
    format!("({})", parts.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_good_spec_passes_every_oracle() {
        let report = run_dsl(
            r"rel le : nat nat :=
              | le_n : forall n, le n n
              | le_S : forall n m, le n m -> le n (S m)
              .",
        );
        for (oracle, outcome) in &report.outcomes {
            assert_eq!(
                *outcome,
                OracleOutcome::Pass,
                "oracle {oracle} did not pass"
            );
        }
        assert_eq!(report.features.relations, 1);
        assert!(!report.features.mutual);
    }

    #[test]
    fn mutual_spec_skips_execution_oracles_but_roundtrips() {
        let report = run_dsl(
            r"mutual
              rel ev : nat :=
              | ev0 : ev 0
              | evS : forall n, od n -> ev (S n)
              .
              rel od : nat :=
              | odS : forall n, ev n -> od (S n)
              .
              end",
        );
        assert!(report.features.mutual);
        assert_eq!(report.outcomes[0].1, OracleOutcome::Pass, "roundtrip");
        // Derivation currently rejects mutual groups; that must surface
        // as a skip, never a violation.
        assert!(report.violation().is_none(), "{:?}", report.outcomes);
    }

    #[test]
    fn parse_failure_is_a_roundtrip_violation() {
        let report = run_dsl("rel broken :=");
        let (oracle, _) = report.violation().expect("must be flagged");
        assert_eq!(oracle, Oracle::Roundtrip);
    }
}
