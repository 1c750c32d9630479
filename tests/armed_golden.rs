//! Golden values for armed checks on the fully derived BST pipeline
//! (`bst` over derived `lt'` and `le'`, the pipeline the serving
//! benchmark and the `obs` bin serve).
//!
//! Every served request and every finitely budgeted `try_check` runs
//! the checker's parity loop: each premise call crosses into another
//! derived checker with a meter armed, charging an entry step and
//! consulting the session's verdict table. How those crossings are
//! executed may change; what they charge, count, table and emit may
//! not. These tests pin the observable record of one fixed, seeded
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
//! A last test covers the one table guard this pipeline cannot reach:
//! its searches return `None` once the meter runs out, so none of them
//! ever offers the table a verdict decided after that point.

use indrel::bst::BST_SOURCE;
use indrel::prelude::*;
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

const SERVED_SNAPSHOT: &str = r#"{"schema":"indrel.metrics/1","deterministic":{"counters":{"memo.full_skipped":0,"memo.hits":86,"memo.insertions":345,"memo.misses":420,"memo.none_skipped":0,"plan.relations_kept":0,"plan.relations_replanned":0,"plan.replans":0,"serve.requests":56,"serve.requests.failed":0,"serve.requests.false":16,"serve.requests.true":40,"serve.requests.unknown":0,"serve.retries":0,"serve.shed":0,"serve.steps":1263},"gauges":{"memo.degraded_shards":0,"memo.entries":345,"serve.inflight":0},"histograms":{}}}"#;

const LADDER_RESULTS: &str = "sTsssssssssTssssssssssssssssssssTssssssTssTssssssssssTss|sTsssssssssTssssssssssssssssssssTssssssTssTssssssssssTss|sTssssFFsssTTFTFssFFsFsssFssTsssTFsTTssTTTTFFssTFsFFsTFs|TTTTTTFFTTTTTFTFTTFFTFFTTFTTTTTsTFTTTTTTTTTFFTTTFTFFsTFT|TTTTTTFFTTTTTFTFTTFFTFFTTFTTTTTTTFTTTTTTTTTFFTTTFTFFTTFT|TTTTTTFFTTTTTFTFTTFFTFFTTFTTTTTTTFTTTTTTTTTFFTTTFTFFTTFT|TTTTTTFFTTTTTFTFTTFFTFFTTFTTTTTTTFTTTTTTTTTFFTTTFTFFTTFT|";

const LADDER_MEMO_STATS: &str = "MemoStats { hits: 541, misses: 803, insertions: 345, none_skipped: 347, full_skipped: 0, entries: 345, degraded_shards: 0, shed: 0, retries: 0 }";

const PROBED_STATS: &str = r#"{"schema":"indrel.metrics/1","deterministic":{"counters":{"premise.bst.1.0.cost":434,"premise.bst.1.0.evals":185,"premise.bst.1.0.failures":0,"premise.bst.1.1.cost":486,"premise.bst.1.1.evals":180,"premise.bst.1.1.failures":4,"premise.bst.1.2.cost":1162,"premise.bst.1.2.evals":173,"premise.bst.1.2.failures":4,"premise.bst.1.3.cost":1229,"premise.bst.1.3.evals":150,"premise.bst.1.3.failures":0,"premise.le'.1.0.cost":1994,"premise.le'.1.0.evals":520,"premise.le'.1.0.failures":22,"premise.lt'.0.0.cost":718,"premise.lt'.0.0.evals":202,"premise.lt'.0.0.failures":4,"rule.bst.0.attempts":170,"rule.bst.0.backtracks":0,"rule.bst.0.successes":170,"rule.bst.1.attempts":185,"rule.bst.1.backtracks":53,"rule.bst.1.successes":132,"rule.le'.0.attempts":718,"rule.le'.0.backtracks":524,"rule.le'.0.successes":194,"rule.le'.1.attempts":520,"rule.le'.1.backtracks":25,"rule.le'.1.successes":495,"rule.lt'.0.attempts":202,"rule.lt'.0.backtracks":8,"rule.lt'.0.successes":194,"search.enters.checker":1275,"search.enters.enumerator":0,"search.enters.generator":0,"search.events":7787,"search.index_skipped":359,"search.memo_hits":191,"search.memo_misses":438,"unify_fail.le'.0.step0":524},"gauges":{},"histograms":{"search.depth":{"count":1275,"sum":6023,"max":16,"buckets":[{"lo":0,"hi":0,"count":36},{"lo":1,"hi":1,"count":77},{"lo":2,"hi":3,"count":321},{"lo":4,"hi":7,"count":668},{"lo":8,"hi":15,"count":171},{"lo":16,"hi":31,"count":2}]},"search.term_size":{"count":0,"sum":0,"max":0,"buckets":[]}}}}"#;
