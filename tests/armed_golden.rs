//! Golden values for armed execution: checks on the fully derived BST
//! pipeline (`bst` over derived `lt'` and `le'`, the pipeline the
//! serving benchmark and the `obs` bin serve), and derived producers
//! on the STLC and BST case studies.
//!
//! Every served request and every finitely budgeted `try_check` runs
//! the checker's parity loop: the request consults the session's
//! verdict table once, and each premise call crosses into another
//! derived checker with a meter armed, charging an entry step (premise
//! calls are not tabled). How those crossings are executed may change;
//! what they charge, count, table and emit may not. These tests pin
//! the observable record of one fixed, seeded
//! request set — hot trees with keys in `(0, 16)` that repeat, and
//! cold trees with keys near 2³¹ that never do:
//!
//! * a one-session [`Server`]'s deterministic metrics (steps, table
//!   hits, misses, insertions and entries);
//! * a `with_memo()` session under a step-budget ladder whose low rungs
//!   cut searches off partway: every `try_check` result, then the
//!   table's statistics;
//! * a probe-armed served session's search statistics, under a step
//!   allotment small enough that cold requests retry.
//!
//! A further test covers the one table guard this pipeline cannot
//! reach: its searches return `None` once the meter runs out, so none
//! of them ever offers the table a verdict decided after that point.
//!
//! The remaining tests pin armed *producers*, on the STLC and BST
//! case-study libraries. With a meter or a probe armed, a derived
//! generator runs on the plan interpreter at every level, and every
//! enumeration a checker premise asks for runs on the interpreter's
//! lazy streams (STLC's `T_App` infers its argument's type that way).
//! Over fixed seeded queries they pin:
//!
//! * the probe's search statistics for `check_interpreted` on both
//!   libraries, for `check` on STLC (whose `T_App` drains the
//!   interpreted type-inference stream), and for both derived
//!   generators, with the generators' output sizes and RNG state;
//! * step-budget ladders ([`STEP_LADDER`]): every `try_check` result
//!   on STLC; every `try_generate` result of both generators, plus a
//!   backtrack cap; and every `try_enumerate` on STLC's type-inference
//!   mode, at a starved and an ample fuel, with the values and
//!   out-of-fuel markers it yields and the steps its meter charged.

use indrel::bst::{Bst, BST_SOURCE};
use indrel::prelude::*;
use indrel::stlc::Stlc;
use rand::rngs::SmallRng;
use rand::{Rng as _, SeedableRng};
use std::cell::RefCell;
use std::sync::Arc;

const FUEL: u64 = 64;

/// Step budgets from "cut off at the first premise" to "always enough".
const STEP_LADDER: [u64; 7] = [3, 9, 27, 81, 243, 729, 1 << 20];

/// The served pipeline: only `bst`'s checker is requested, so its
/// `lt'` and `le'` premises are derived too.
fn pipeline() -> (SharedLibrary, RelId) {
    let mut u = Universe::new();
    let mut env = RelEnv::new();
    parse_program(&mut u, &mut env, BST_SOURCE).unwrap();
    let bst = env.rel_id("bst").unwrap();
    let mut b = LibraryBuilder::new(u, env);
    b.derive_checker(bst).unwrap();
    (b.build().shared(), bst)
}

/// A tree over keys in `(lo, hi)`: bounds-respecting when `valid`,
/// otherwise each key is drawn from the whole interval.
fn tree(lib: &Library, lo: u64, hi: u64, depth: u32, valid: bool, rng: &mut SmallRng) -> Value {
    let u = lib.universe();
    let leaf = Value::ctor(u.ctor_id("Leaf").unwrap(), vec![]);
    if depth == 0 || hi <= lo + 1 || rng.gen_range(0..5u32) == 0 {
        return leaf;
    }
    let x = rng.gen_range(lo + 1..hi);
    let (l_hi, r_lo) = if valid { (x, x) } else { (hi, lo) };
    Value::ctor(
        u.ctor_id("Node").unwrap(),
        vec![
            Value::nat(x),
            tree(lib, lo, l_hi, depth - 1, valid, rng),
            tree(lib, r_lo, hi, depth - 1, valid, rng),
        ],
    )
}

/// The request set: 48 picks from a pool of 12 hot trees (4 of them
/// not search trees), interleaved with 8 cold trees.
fn requests(lib: &Library) -> Vec<Vec<Value>> {
    let mut rng = SmallRng::seed_from_u64(20);
    let hot: Vec<Vec<Value>> = (0..12)
        .map(|i| {
            let t = tree(lib, 0, 16, 5, i % 3 != 0, &mut rng);
            vec![Value::nat(0), Value::nat(16), t]
        })
        .collect();
    (0..56)
        .map(|i| {
            if i % 7 == 3 {
                let lo = (1u64 << 31) + rng.gen_range(0..1024u64);
                let t = tree(lib, lo, lo + 16, 5, true, &mut rng);
                vec![Value::nat(lo), Value::nat(lo + 16), t]
            } else {
                hot[rng.gen_range(0..hot.len())].clone()
            }
        })
        .collect()
}

/// The unarmed, untabled verdicts every armed run must reproduce.
fn reference(lib: &Library, rel: RelId, reqs: &[Vec<Value>]) -> Vec<Option<bool>> {
    reqs.iter().map(|a| lib.check(rel, FUEL, FUEL, a)).collect()
}

#[test]
fn served_session_metrics_are_pinned() {
    let (shared, bst) = pipeline();
    let plain = shared.fork();
    let reqs = requests(&plain);
    let want = reference(&plain, bst, &reqs);
    assert!(want.contains(&Some(true)) && want.contains(&Some(false)));
    let server = Server::new(shared, ServeConfig::default(), Budget::unlimited());
    let session = server.session();
    let got = session.check_batch(bst, FUEL, &reqs);
    for (g, w) in got.iter().zip(&want) {
        assert_eq!(g, &Ok(*w));
    }
    assert_eq!(server.snapshot().deterministic_json(), SERVED_SNAPSHOT);
}

#[test]
fn budget_ladder_on_a_memoized_session_is_pinned() {
    let (shared, bst) = pipeline();
    let lib = shared.fork().with_memo();
    let reqs = requests(&lib);
    let want = reference(&shared.fork(), bst, &reqs);
    let mut rendered = String::new();
    for steps in STEP_LADDER {
        let budget = Budget::unlimited().with_steps(steps);
        for (args, w) in reqs.iter().zip(&want) {
            let r = lib.try_check(bst, FUEL, FUEL, args, budget);
            if let Ok(v) = &r {
                assert_eq!(v, w, "a decided budgeted verdict is the unbudgeted one");
            }
            rendered.push(match r {
                Ok(Some(true)) => 'T',
                Ok(Some(false)) => 'F',
                Ok(None) => 'N',
                Err(ExecError::BudgetExhausted {
                    resource: Resource::Steps,
                }) => 's',
                Err(e) => panic!("unexpected error {e:?}"),
            });
        }
        rendered.push('|');
    }
    assert_eq!(rendered, LADDER_RESULTS);
    assert_eq!(format!("{:?}", lib.memo_stats()), LADDER_MEMO_STATS);
}

#[test]
fn probe_armed_served_search_stats_are_pinned() {
    let (shared, bst) = pipeline();
    let reqs = requests(&shared.fork());
    let config = ServeConfig {
        steps_per_request: 48,
        max_retries: 4,
        ..ServeConfig::default()
    };
    let server = Server::new(shared, config, Budget::unlimited());
    let session = server.session();
    let stats = SearchStats::new();
    let got = {
        let _probe = session.library().arm_probe(ExecProbe::stats(&stats));
        session.check_batch(bst, FUEL, &reqs)
    };
    assert!(server.stats().retries > 0, "the tight allotment retries");
    assert!(got.iter().all(Result::is_ok));
    assert_eq!(stats.snapshot().deterministic_json(), PROBED_STATS);
}

thread_local! {
    /// The session the handwritten `lenient` checker calls back into.
    static SESSION: RefCell<Option<Library>> = const { RefCell::new(None) };
}

/// A verdict decided after the meter ran out is never tabled, whether
/// the search ran under a top-level entry or under a premise crossing.
/// Derived searches cannot produce one — every charge after exhaustion
/// fails, so they answer `None` — but a handwritten premise can:
/// `lenient n` calls `deep n` back through the session and reads its
/// out-of-fuel `None` as success.
#[test]
fn verdicts_decided_after_the_meter_runs_out_are_never_tabled() {
    let mut u = Universe::new();
    let mut env = RelEnv::new();
    parse_program(
        &mut u,
        &mut env,
        r"rel deep : nat :=
          | d0 : deep 0
          | dS : forall n, deep n -> deep (S n)
          .
          rel lenient : nat := .
          rel wrapped : nat :=
          | w : forall n, lenient n -> wrapped n
          .
          rel outer : nat :=
          | o : forall n, wrapped n -> outer n
          .",
    )
    .unwrap();
    let deep = env.rel_id("deep").unwrap();
    let lenient = env.rel_id("lenient").unwrap();
    let wrapped = env.rel_id("wrapped").unwrap();
    let outer = env.rel_id("outer").unwrap();
    let mut b = LibraryBuilder::new(u, env);
    b.register_checker(
        lenient,
        Arc::new(move |_, top, args: &[Value]| {
            SESSION.with(|s| {
                let lib = s.borrow().clone().expect("session installed");
                Some(lib.check(deep, top, top, args) != Some(false))
            })
        }),
    );
    b.derive_checker(deep).unwrap();
    b.derive_checker(outer).unwrap();
    let lib = b.build().with_memo();
    assert!(lib.vm_compiled(outer) && lib.vm_compiled(wrapped));
    SESSION.with(|s| *s.borrow_mut() = Some(lib.clone()));
    let args = [Value::nat(40)];
    let tight = Budget::unlimited().with_steps(20);
    for rel in [wrapped, outer] {
        assert_eq!(
            lib.try_check(rel, 64, 64, &args, tight),
            Err(ExecError::BudgetExhausted {
                resource: Resource::Steps
            })
        );
        assert_eq!(lib.memo_stats().insertions, 0, "nothing tabled");
    }
    let ample = Budget::unlimited().with_steps(1_000);
    assert_eq!(lib.try_check(outer, 64, 64, &args, ample), Ok(Some(true)));
    assert!(lib.memo_stats().insertions > 0, "an intact meter tables");
    SESSION.with(|s| s.borrow_mut().take());
}

// ---------------------------------------------------------------------
// Armed producers on the case-study libraries
// ---------------------------------------------------------------------

const STLC_FUEL: u64 = 40;

/// Seeded STLC typing queries: each generated term at its own type and
/// at the base type `N`, so both verdicts occur.
fn stlc_queries(stlc: &Stlc) -> Vec<Vec<Value>> {
    let mut rng = SmallRng::seed_from_u64(24);
    let mut out = Vec::new();
    while out.len() < 32 {
        let ty = stlc.random_ty(2, &mut rng);
        if let Some(e) = stlc.handwritten_gen(&[], &ty, 5, &mut rng) {
            out.push(vec![stlc.ctx(&[]), e.clone(), ty]);
            out.push(vec![stlc.ctx(&[]), e, stlc.ty_n()]);
        }
    }
    out
}

/// Seeded BST queries over the case study's tree constructors, a third
/// of them not search trees.
fn bst_queries(bst: &Bst) -> Vec<Vec<Value>> {
    let mut rng = SmallRng::seed_from_u64(24);
    (0..24)
        .map(|i| {
            let t = tree(bst.library(), 0, 24, 5, i % 3 != 0, &mut rng);
            vec![Value::nat(0), Value::nat(24), t]
        })
        .collect()
}

/// Runs `f` with a [`SearchStats`] probe armed on `lib` and returns the
/// statistics' deterministic JSON.
fn probed(lib: &Library, f: impl FnOnce()) -> String {
    let stats = SearchStats::new();
    {
        let _probe = lib.arm_probe(ExecProbe::stats(&stats));
        f();
    }
    stats.snapshot().deterministic_json()
}

/// Checks every query with `check` on `lib` under a [`SearchStats`]
/// probe, asserting the unarmed checker's verdicts, and returns the
/// statistics' deterministic JSON.
fn probed_checks(
    lib: &Library,
    rel: RelId,
    fuel: u64,
    queries: &[Vec<Value>],
    check: fn(&Library, RelId, u64, u64, &[Value]) -> Option<bool>,
) -> String {
    let want: Vec<_> = queries
        .iter()
        .map(|q| lib.check(rel, fuel, fuel, q))
        .collect();
    assert!(want.contains(&Some(true)) && want.contains(&Some(false)));
    probed(lib, || {
        for (q, w) in queries.iter().zip(&want) {
            assert_eq!(check(lib, rel, fuel, fuel, q), *w);
        }
    })
}

#[test]
fn probe_armed_interpreted_checks_are_pinned() {
    let bst = Bst::new();
    let got = probed_checks(
        bst.library(),
        bst.relation(),
        FUEL,
        &bst_queries(&bst),
        Library::check_interpreted,
    );
    assert_eq!(got, INTERPRETED_BST_CHECKS);
    let stlc = Stlc::new();
    let got = probed_checks(
        stlc.library(),
        stlc.typing_relation(),
        STLC_FUEL,
        &stlc_queries(&stlc),
        Library::check_interpreted,
    );
    assert_eq!(got, INTERPRETED_STLC_CHECKS);
}

#[test]
fn probe_armed_stlc_checks_drain_the_interpreted_inference_stream() {
    let stlc = Stlc::new();
    let got = probed_checks(
        stlc.library(),
        stlc.typing_relation(),
        STLC_FUEL,
        &stlc_queries(&stlc),
        Library::check,
    );
    assert!(got.contains(r#""search.enters.enumerator":"#));
    assert!(!got.contains(r#""search.enters.enumerator":0"#));
    assert_eq!(got, STLC_CHECKS);
}

/// Draws `n` outputs from a derived generator, rendering each as its
/// first output's size (or `-` for no output), then one more draw that
/// pins the RNG's state afterwards.
fn draws(n: usize, rng: &mut SmallRng, mut draw: impl FnMut(&mut SmallRng) -> String) -> String {
    let mut out: Vec<String> = (0..n).map(|_| draw(rng)).collect();
    out.push(format!("rng {}", rng.gen_range(0..1_000_000u32)));
    out.join(" ")
}

fn render_gen(r: Result<Option<Vec<Value>>, ExecError>) -> String {
    match r {
        Ok(Some(outs)) => outs[0].size().to_string(),
        Ok(None) => "-".into(),
        Err(ExecError::BudgetExhausted {
            resource: Resource::Steps,
        }) => "s".into(),
        Err(ExecError::BudgetExhausted {
            resource: Resource::Backtracks,
        }) => "b".into(),
        Err(e) => panic!("unexpected error {e:?}"),
    }
}

/// The generator queries: BST trees in `(0, 24)` at size 6, STLC terms
/// at a random type of depth 2 at size 5 (Figure 3's settings).
fn gen_bst(bst: &Bst, budget: Option<Budget>, rng: &mut SmallRng) -> String {
    let (rel, mode) = (bst.relation(), bst.tree_mode());
    let inputs = [Value::nat(0), Value::nat(24)];
    render_gen(match budget {
        Some(b) => bst
            .library()
            .try_generate(rel, &mode, 6, 6, &inputs, rng, b),
        None => Ok(bst.library().generate(rel, &mode, 6, 6, &inputs, rng)),
    })
}

fn gen_stlc(stlc: &Stlc, budget: Option<Budget>, rng: &mut SmallRng) -> String {
    let (rel, mode) = (stlc.typing_relation(), stlc.term_mode());
    let inputs = [stlc.ctx(&[]), stlc.random_ty(2, rng)];
    render_gen(match budget {
        Some(b) => stlc
            .library()
            .try_generate(rel, &mode, 5, 5, &inputs, rng, b),
        None => Ok(stlc.library().generate(rel, &mode, 5, 5, &inputs, rng)),
    })
}

#[test]
fn probe_armed_derived_generators_are_pinned() {
    let bst = Bst::new();
    let mut rng = SmallRng::seed_from_u64(24);
    let mut outs = String::new();
    let got = probed(bst.library(), || {
        outs = draws(24, &mut rng, |rng| gen_bst(&bst, None, rng));
    });
    assert_eq!(outs, BST_GEN_DRAWS);
    assert_eq!(got, BST_GEN_STATS);
    let stlc = Stlc::new();
    let mut rng = SmallRng::seed_from_u64(24);
    let got = probed(stlc.library(), || {
        outs = draws(24, &mut rng, |rng| gen_stlc(&stlc, None, rng));
    });
    assert_eq!(outs, STLC_GEN_DRAWS);
    assert_eq!(got, STLC_GEN_STATS);
}

#[test]
fn stlc_check_budget_ladder_is_pinned() {
    let stlc = Stlc::new();
    let lib = stlc.library();
    let rel = stlc.typing_relation();
    let queries = stlc_queries(&stlc);
    let want: Vec<_> = queries
        .iter()
        .map(|q| lib.check(rel, STLC_FUEL, STLC_FUEL, q))
        .collect();
    let mut rendered = String::new();
    for steps in STEP_LADDER {
        let budget = Budget::unlimited().with_steps(steps);
        for (q, w) in queries.iter().zip(&want) {
            let r = lib.try_check(rel, STLC_FUEL, STLC_FUEL, q, budget);
            if let Ok(v) = &r {
                assert_eq!(v, w, "a decided budgeted verdict is the unbudgeted one");
            }
            rendered.push(match r {
                Ok(Some(true)) => 'T',
                Ok(Some(false)) => 'F',
                Ok(None) => 'N',
                Err(ExecError::BudgetExhausted {
                    resource: Resource::Steps,
                }) => 's',
                Err(e) => panic!("unexpected error {e:?}"),
            });
        }
        rendered.push('|');
    }
    assert_eq!(rendered, STLC_CHECK_LADDER);
}

#[test]
fn generator_budget_ladders_are_pinned() {
    let bst = Bst::new();
    let stlc = Stlc::new();
    let budgets = STEP_LADDER
        .iter()
        .map(|&steps| Budget::unlimited().with_steps(steps))
        .chain([Budget::unlimited().with_backtracks(2)]);
    let mut rendered = String::new();
    for budget in budgets {
        let mut rng = SmallRng::seed_from_u64(24);
        rendered += &draws(12, &mut rng, |rng| gen_bst(&bst, Some(budget), rng));
        rendered += " / ";
        let mut rng = SmallRng::seed_from_u64(24);
        rendered += &draws(12, &mut rng, |rng| gen_stlc(&stlc, Some(budget), rng));
        rendered += "\n";
    }
    assert_eq!(rendered, GEN_LADDERS);
}

#[test]
fn stlc_inference_budget_ladder_is_pinned() {
    let stlc = Stlc::new();
    let (lib, rel, mode) = (stlc.library(), stlc.typing_relation(), stlc.type_mode());
    let queries = stlc_queries(&stlc);
    let mut rendered = String::new();
    for steps in STEP_LADDER {
        let budget = Budget::unlimited().with_steps(steps);
        let cells: Vec<String> = queries
            .iter()
            .step_by(2)
            .flat_map(|q| [2, STLC_FUEL].map(|fuel| (q, fuel)))
            .map(|(q, fuel)| {
                let mut stream = lib
                    .try_enumerate(rel, &mode, fuel, fuel, &q[..2], budget)
                    .unwrap();
                let (mut vals, mut markers) = (0, 0);
                for outcome in &mut stream {
                    match outcome {
                        Outcome::Val(_) => vals += 1,
                        Outcome::OutOfFuel => markers += 1,
                    }
                }
                let cut = if stream.exhaustion_error().is_some() {
                    "s"
                } else {
                    ""
                };
                format!("{vals}/{markers}{cut}:{}", stream.meter().steps_used())
            })
            .collect();
        rendered += &cells.join(" ");
        rendered += "\n";
    }
    assert_eq!(rendered, STLC_INFER_LADDER);
}

const SERVED_SNAPSHOT: &str = r#"{"schema":"indrel.metrics/1","deterministic":{"counters":{"memo.full_skipped":0,"memo.hits":32,"memo.insertions":18,"memo.misses":24,"memo.none_skipped":0,"serve.requests":56,"serve.requests.failed":0,"serve.requests.false":16,"serve.requests.true":40,"serve.requests.unknown":0,"serve.retries":0,"serve.shed":0,"serve.steps":1431},"gauges":{"memo.degraded_shards":0,"memo.entries":18,"serve.inflight":0},"histograms":{}}}"#;

const LADDER_RESULTS: &str = "sTsssssssssTssssssssssssssssssssTssssssTssTssssssssssTss|sTsssssssssTssssssssssssssssssssTssssssTssTssssssssssTss|sTsssssssssTTsssssssssssssssTsssTssssssTTTTssssssssssTss|TTssssFFsTsTTFTFssFFsFFsTFssTsssTFsTTssTTTTFFssTFsFFsTFs|TTTTTTFFTTTTTFTFTTFFTFFTTFTTTTTTTFTTTTTTTTTFFTTTFTFFTTFT|TTTTTTFFTTTTTFTFTTFFTFFTTFTTTTTTTFTTTTTTTTTFFTTTFTFFTTFT|TTTTTTFFTTTTTFTFTTFFTFFTTFTTTTTTTFTTTTTTTTTFFTTTFTFFTTFT|";

const LADDER_MEMO_STATS: &str = "MemoStats { hits: 163, misses: 229, insertions: 18, none_skipped: 169, full_skipped: 0, entries: 18, degraded_shards: 0, shed: 0, retries: 0 }";

const PROBED_STATS: &str = r#"{"schema":"indrel.metrics/1","deterministic":{"counters":{"premise.bst.1.0.cost":907,"premise.bst.1.0.evals":207,"premise.bst.1.0.failures":0,"premise.bst.1.1.cost":985,"premise.bst.1.1.evals":202,"premise.bst.1.1.failures":4,"premise.bst.1.2.cost":1897,"premise.bst.1.2.evals":191,"premise.bst.1.2.failures":4,"premise.bst.1.3.cost":1803,"premise.bst.1.3.evals":167,"premise.bst.1.3.failures":0,"premise.le'.1.0.cost":4312,"premise.le'.1.0.evals":1090,"premise.le'.1.0.failures":22,"premise.lt'.0.0.cost":1487,"premise.lt'.0.0.evals":405,"premise.lt'.0.0.failures":4,"rule.bst.0.attempts":187,"rule.bst.0.backtracks":0,"rule.bst.0.successes":187,"rule.bst.1.attempts":207,"rule.bst.1.backtracks":62,"rule.bst.1.successes":145,"rule.le'.0.attempts":1487,"rule.le'.0.backtracks":1094,"rule.le'.0.successes":393,"rule.le'.1.attempts":1090,"rule.le'.1.backtracks":33,"rule.le'.1.successes":1057,"rule.lt'.0.attempts":405,"rule.lt'.0.backtracks":12,"rule.lt'.0.successes":393,"search.enters.checker":2286,"search.enters.enumerator":0,"search.enters.generator":0,"search.events":12792,"search.index_skipped":398,"unify_fail.le'.0.step0":1094},"gauges":{},"histograms":{"search.depth":{"count":2286,"sum":11391,"max":16,"buckets":[{"lo":0,"hi":0,"count":39},{"lo":1,"hi":1,"count":121},{"lo":2,"hi":3,"count":560},{"lo":4,"hi":7,"count":1198},{"lo":8,"hi":15,"count":363},{"lo":16,"hi":31,"count":5}]},"search.term_size":{"count":0,"sum":0,"max":0,"buckets":[]}}}}"#;

const INTERPRETED_BST_CHECKS: &str = r#"{"schema":"indrel.metrics/1","deterministic":{"counters":{"rule.bst.0.attempts":323,"rule.bst.0.backtracks":163,"rule.bst.0.successes":160,"rule.bst.1.attempts":163,"rule.bst.1.backtracks":21,"rule.bst.1.successes":142,"search.enters.checker":649,"search.enters.enumerator":0,"search.enters.generator":0,"search.events":1784,"search.index_skipped":0,"unify_fail.bst.0.inputs":163},"gauges":{},"histograms":{"search.depth":{"count":649,"sum":2095,"max":5,"buckets":[{"lo":0,"hi":0,"count":24},{"lo":1,"hi":1,"count":74},{"lo":2,"hi":3,"count":239},{"lo":4,"hi":7,"count":312}]},"search.term_size":{"count":0,"sum":0,"max":0,"buckets":[]}}}}"#;

const INTERPRETED_STLC_CHECKS: &str = r#"{"schema":"indrel.metrics/1","deterministic":{"counters":{"premise.stlc_lookup.1.0.cost":27,"premise.stlc_lookup.1.0.evals":15,"premise.stlc_lookup.1.0.failures":0,"rule.stlc_lookup.0.attempts":171,"rule.stlc_lookup.0.backtracks":15,"rule.stlc_lookup.0.successes":116,"rule.stlc_lookup.1.attempts":71,"rule.stlc_lookup.1.backtracks":0,"rule.stlc_lookup.1.successes":55,"rule.stlc_typing.0.attempts":1436,"rule.stlc_typing.0.backtracks":325,"rule.stlc_typing.0.successes":375,"rule.stlc_typing.1.attempts":1106,"rule.stlc_typing.1.backtracks":289,"rule.stlc_typing.1.successes":129,"rule.stlc_typing.2.attempts":989,"rule.stlc_typing.2.backtracks":270,"rule.stlc_typing.2.successes":116,"rule.stlc_typing.3.attempts":889,"rule.stlc_typing.3.backtracks":151,"rule.stlc_typing.3.successes":461,"rule.stlc_typing.4.attempts":481,"rule.stlc_typing.4.backtracks":35,"rule.stlc_typing.4.successes":320,"search.enters.checker":403,"search.enters.enumerator":1204,"search.enters.generator":0,"search.events":13191,"search.index_skipped":0,"unify_fail.stlc_lookup.0.inputs":55,"unify_fail.stlc_lookup.1.inputs":16,"unify_fail.stlc_typing.0.inputs":1061,"unify_fail.stlc_typing.1.inputs":977,"unify_fail.stlc_typing.2.inputs":873,"unify_fail.stlc_typing.3.inputs":413,"unify_fail.stlc_typing.4.inputs":146},"gauges":{},"histograms":{"search.depth":{"count":1607,"sum":4360,"max":14,"buckets":[{"lo":0,"hi":0,"count":32},{"lo":1,"hi":1,"count":419},{"lo":2,"hi":3,"count":789},{"lo":4,"hi":7,"count":312},{"lo":8,"hi":15,"count":55}]},"search.term_size":{"count":228,"sum":428,"max":7,"buckets":[{"lo":1,"hi":1,"count":164},{"lo":2,"hi":3,"count":34},{"lo":4,"hi":7,"count":30}]}}}}"#;

const STLC_CHECKS: &str = r#"{"schema":"indrel.metrics/1","deterministic":{"counters":{"premise.stlc_lookup.1.0.cost":27,"premise.stlc_lookup.1.0.evals":15,"premise.stlc_lookup.1.0.failures":0,"premise.stlc_typing.1.0.cost":218,"premise.stlc_typing.1.0.evals":36,"premise.stlc_typing.1.0.failures":0,"premise.stlc_typing.1.1.cost":240,"premise.stlc_typing.1.1.evals":36,"premise.stlc_typing.1.1.failures":0,"premise.stlc_typing.2.0.cost":34,"premise.stlc_typing.2.0.evals":19,"premise.stlc_typing.2.0.failures":0,"premise.stlc_typing.3.1.cost":429,"premise.stlc_typing.3.1.evals":134,"premise.stlc_typing.3.1.failures":15,"premise.stlc_typing.4.0.cost":833,"premise.stlc_typing.4.0.evals":131,"premise.stlc_typing.4.0.failures":15,"premise.stlc_typing.4.2.cost":833,"premise.stlc_typing.4.2.evals":131,"premise.stlc_typing.4.2.failures":15,"rule.stlc_lookup.0.attempts":171,"rule.stlc_lookup.0.backtracks":15,"rule.stlc_lookup.0.successes":116,"rule.stlc_lookup.1.attempts":71,"rule.stlc_lookup.1.backtracks":0,"rule.stlc_lookup.1.successes":55,"rule.stlc_typing.0.attempts":1111,"rule.stlc_typing.0.backtracks":0,"rule.stlc_typing.0.successes":375,"rule.stlc_typing.1.attempts":817,"rule.stlc_typing.1.backtracks":0,"rule.stlc_typing.1.successes":129,"rule.stlc_typing.2.attempts":719,"rule.stlc_typing.2.backtracks":0,"rule.stlc_typing.2.successes":116,"rule.stlc_typing.3.attempts":758,"rule.stlc_typing.3.backtracks":20,"rule.stlc_typing.3.successes":461,"rule.stlc_typing.4.attempts":461,"rule.stlc_typing.4.backtracks":15,"rule.stlc_typing.4.successes":320,"search.enters.checker":403,"search.enters.enumerator":1204,"search.enters.generator":0,"search.events":10942,"search.index_skipped":1476,"unify_fail.stlc_lookup.0.inputs":55,"unify_fail.stlc_lookup.1.inputs":16,"unify_fail.stlc_typing.0.inputs":736,"unify_fail.stlc_typing.1.inputs":688,"unify_fail.stlc_typing.2.inputs":603,"unify_fail.stlc_typing.3.inputs":282,"unify_fail.stlc_typing.4.inputs":126},"gauges":{},"histograms":{"search.depth":{"count":1607,"sum":4360,"max":14,"buckets":[{"lo":0,"hi":0,"count":32},{"lo":1,"hi":1,"count":419},{"lo":2,"hi":3,"count":789},{"lo":4,"hi":7,"count":312},{"lo":8,"hi":15,"count":55}]},"search.term_size":{"count":228,"sum":428,"max":7,"buckets":[{"lo":1,"hi":1,"count":164},{"lo":2,"hi":3,"count":34},{"lo":4,"hi":7,"count":30}]}}}}"#;

const BST_GEN_DRAWS: &str =
    "1 68 69 1 9 96 111 32 1 4 11 81 28 105 5 76 6 20 98 42 5 7 59 61 rng 428892";

const BST_GEN_STATS: &str = r#"{"schema":"indrel.metrics/1","deterministic":{"counters":{"rule.bst.0.attempts":113,"rule.bst.0.backtracks":0,"rule.bst.0.successes":113,"rule.bst.1.attempts":150,"rule.bst.1.backtracks":61,"rule.bst.1.successes":89,"rule.le'.0.attempts":150,"rule.le'.0.backtracks":0,"rule.le'.0.successes":150,"rule.le'.1.attempts":437,"rule.le'.1.backtracks":0,"rule.le'.1.successes":437,"rule.lt'.0.attempts":150,"rule.lt'.0.backtracks":0,"rule.lt'.0.successes":150,"search.enters.checker":150,"search.enters.enumerator":0,"search.enters.generator":939,"search.events":3413,"search.index_skipped":0},"gauges":{},"histograms":{"search.depth":{"count":1089,"sum":5011,"max":12,"buckets":[{"lo":0,"hi":0,"count":24},{"lo":1,"hi":1,"count":84},{"lo":2,"hi":3,"count":299},{"lo":4,"hi":7,"count":529},{"lo":8,"hi":15,"count":153}]},"search.term_size":{"count":324,"sum":3804,"max":111,"buckets":[{"lo":1,"hi":1,"count":19},{"lo":2,"hi":3,"count":44},{"lo":4,"hi":7,"count":83},{"lo":8,"hi":15,"count":108},{"lo":16,"hi":31,"count":58},{"lo":32,"hi":63,"count":4},{"lo":64,"hi":127,"count":8}]}}}}"#;

const STLC_GEN_DRAWS: &str =
    "48 39 42 41 26 58 20 30 41 2 63 3 39 35 29 23 65 35 60 63 20 14 31 44 rng 351981";

const STLC_GEN_STATS: &str = r#"{"schema":"indrel.metrics/1","deterministic":{"counters":{"rule.stlc_lookup.0.attempts":616,"rule.stlc_lookup.0.backtracks":531,"rule.stlc_lookup.0.successes":85,"rule.stlc_lookup.1.attempts":632,"rule.stlc_lookup.1.backtracks":604,"rule.stlc_lookup.1.successes":28,"rule.stlc_typing.0.attempts":381,"rule.stlc_typing.0.backtracks":219,"rule.stlc_typing.0.successes":162,"rule.stlc_typing.1.attempts":176,"rule.stlc_typing.1.backtracks":117,"rule.stlc_typing.1.successes":59,"rule.stlc_typing.2.attempts":345,"rule.stlc_typing.2.backtracks":260,"rule.stlc_typing.2.successes":85,"rule.stlc_typing.3.attempts":241,"rule.stlc_typing.3.backtracks":84,"rule.stlc_typing.3.successes":157,"rule.stlc_typing.4.attempts":192,"rule.stlc_typing.4.backtracks":103,"rule.stlc_typing.4.successes":89,"search.enters.checker":0,"search.enters.enumerator":0,"search.enters.generator":1334,"search.events":7858,"search.index_skipped":0,"unify_fail.stlc_lookup.0.inputs":335,"unify_fail.stlc_lookup.0.step0":196,"unify_fail.stlc_lookup.1.inputs":335,"unify_fail.stlc_typing.0.inputs":219,"unify_fail.stlc_typing.1.inputs":117,"unify_fail.stlc_typing.3.inputs":47},"gauges":{},"histograms":{"search.depth":{"count":1334,"sum":6529,"max":9,"buckets":[{"lo":0,"hi":0,"count":24},{"lo":1,"hi":1,"count":42},{"lo":2,"hi":3,"count":192},{"lo":4,"hi":7,"count":1012},{"lo":8,"hi":15,"count":64}]},"search.term_size":{"count":109,"sum":899,"max":65,"buckets":[{"lo":0,"hi":0,"count":59},{"lo":1,"hi":1,"count":24},{"lo":2,"hi":3,"count":4},{"lo":8,"hi":15,"count":1},{"lo":16,"hi":31,"count":7},{"lo":32,"hi":63,"count":13},{"lo":64,"hi":127,"count":1}]}}}}"#;

const STLC_CHECK_LADDER: &str = "ssssssssssTTsFssssssssssssTTssss|ssssssssssTTsFssssssssssssTTssss|TTTTTTssTTTTTFssTFTFTTTTTFTTssTF|TTTTTTTTTTTTTFTTTFTFTTTTTFTTTTTF|TTTTTTTTTTTTTFTTTFTFTTTTTFTTTTTF|TTTTTTTTTTTTTFTTTFTFTTTTTFTTTTTF|TTTTTTTTTTTTTFTTTFTFTTTTTFTTTTTF|";

const GEN_LADDERS: &str = concat!(
    "1 s 1 s s s s s s s s s rng 355749 / s s 5 s 3 s s s s s s s rng 473042\n",
    "1 s s s s s s s s s s s rng 993894 / s 5 s s s s s s s 5 s s rng 294772\n",
    "1 s s s s s s 1 s s s s rng 97247 / s s s 25 20 19 s s 21 s s s rng 497076\n",
    "1 68 69 1 9 s 28 s 38 43 s 111 rng 819342 / 48 s 53 30 6 28 44 s 22 40 s 49 rng 816366\n",
    "1 68 69 1 9 96 111 32 1 4 11 81 rng 276562 / 48 39 42 41 26 58 20 30 41 2 63 3 rng 462104\n",
    "1 68 69 1 9 96 111 32 1 4 11 81 rng 276562 / 48 39 42 41 26 58 20 30 41 2 63 3 rng 462104\n",
    "1 68 69 1 9 96 111 32 1 4 11 81 rng 276562 / 48 39 42 41 26 58 20 30 41 2 63 3 rng 462104\n",
    "1 68 b b 27 b b b b b b 41 rng 610008 / b b b b b b b 2 b b b b rng 348341\n",
);

const STLC_INFER_LADDER: &str = concat!(
    "0/2:3 0/0s:3 0/1:2 0/0s:3 0/1:2 0/0s:3 0/1:2 0/0s:3 0/1:2 1/0s:3 1/0:2 1/0:2 0/1:2 1/0s:3 0/1:2 0/0s:3 0/1:2 0/0s:3 0/2:3 0/0s:3 0/1:2 0/0s:3 0/1:2 1/0s:3 0/2s:3 0/0s:3 1/0:2 1/0:2 0/1:2 0/0s:3 0/1:2 0/0s:3\n",
    "0/2:3 1/0s:9 0/1:2 1/0s:9 0/1:2 1/0s:9 0/1:2 1/0s:9 0/1:2 1/0:6 1/0:2 1/0:2 0/1:2 1/0:6 0/1:2 1/0s:9 0/1:2 1/0:8 0/2:3 1/0s:9 0/1:2 1/0s:9 0/1:2 1/0:6 0/2:5 1/0s:9 1/0:2 1/0:2 0/1:2 1/0s:9 0/1:2 1/0s:9\n",
    "0/2:3 1/0:12 0/1:2 1/0:10 0/1:2 1/0:12 0/1:2 1/0:14 0/1:2 1/0:6 1/0:2 1/0:2 0/1:2 1/0:6 0/1:2 1/0:12 0/1:2 1/0:8 0/2:3 1/0:12 0/1:2 1/0:14 0/1:2 1/0:6 0/2:5 1/0:12 1/0:2 1/0:2 0/1:2 1/0:12 0/1:2 1/0:12\n",
    "0/2:3 1/0:12 0/1:2 1/0:10 0/1:2 1/0:12 0/1:2 1/0:14 0/1:2 1/0:6 1/0:2 1/0:2 0/1:2 1/0:6 0/1:2 1/0:12 0/1:2 1/0:8 0/2:3 1/0:12 0/1:2 1/0:14 0/1:2 1/0:6 0/2:5 1/0:12 1/0:2 1/0:2 0/1:2 1/0:12 0/1:2 1/0:12\n",
    "0/2:3 1/0:12 0/1:2 1/0:10 0/1:2 1/0:12 0/1:2 1/0:14 0/1:2 1/0:6 1/0:2 1/0:2 0/1:2 1/0:6 0/1:2 1/0:12 0/1:2 1/0:8 0/2:3 1/0:12 0/1:2 1/0:14 0/1:2 1/0:6 0/2:5 1/0:12 1/0:2 1/0:2 0/1:2 1/0:12 0/1:2 1/0:12\n",
    "0/2:3 1/0:12 0/1:2 1/0:10 0/1:2 1/0:12 0/1:2 1/0:14 0/1:2 1/0:6 1/0:2 1/0:2 0/1:2 1/0:6 0/1:2 1/0:12 0/1:2 1/0:8 0/2:3 1/0:12 0/1:2 1/0:14 0/1:2 1/0:6 0/2:5 1/0:12 1/0:2 1/0:2 0/1:2 1/0:12 0/1:2 1/0:12\n",
    "0/2:3 1/0:12 0/1:2 1/0:10 0/1:2 1/0:12 0/1:2 1/0:14 0/1:2 1/0:6 1/0:2 1/0:2 0/1:2 1/0:6 0/1:2 1/0:12 0/1:2 1/0:8 0/2:3 1/0:12 0/1:2 1/0:14 0/1:2 1/0:6 0/2:5 1/0:12 1/0:2 1/0:2 0/1:2 1/0:12 0/1:2 1/0:12\n",
);
