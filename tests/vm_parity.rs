//! Parity of the bytecode VM against the plan interpreter.
//!
//! Every derived checker runs on the register VM; a relation whose plan
//! does not compile runs on the plan interpreter, which is also the
//! oracle the VM is held to ([`Library::check_interpreted`]). These
//! tests pin that contract on the three paper case studies — BST, STLC
//! typing, and IFC indistinguishability:
//!
//! * VM and interpreter verdicts agree over a fuel ladder, and budgeted
//!   runs cut off (or decide) identically when repeated;
//! * memoized and served sessions agree with a plain session;
//! * the fast dispatch loop (an unarmed session) agrees with the parity
//!   loop (a stats-armed session).
//!
//! A relation wider than the VM's premise-arity ceiling pins the
//! interpreter fallback itself.

use indrel::bst::Bst;
use indrel::core::ExecKind;
use indrel::ifc::Ifc;
use indrel::prelude::*;
use indrel::stlc::Stlc;
use rand::rngs::SmallRng;
use rand::{Rng as _, SeedableRng};

/// Budget ladder for `Result`-level determinism: tight enough that
/// early rungs exhaust mid-search, generous enough that the top rung
/// decides.
const STEP_LADDER: [u64; 6] = [1, 8, 64, 512, 4096, 1 << 20];

/// One case-study sweep: a library, the relation under test, its
/// argument tuples, and the fuel ladder to check them at.
struct Corpus {
    lib: Library,
    rel: RelId,
    tuples: Vec<Vec<Value>>,
    fuels: Vec<u64>,
}

/// An arbitrary tree over small keys — not bounds-respecting, so the
/// corpus mixes both verdicts and plenty of backtracking.
fn arbitrary_tree(bst: &Bst, depth: u64, rng: &mut SmallRng) -> Value {
    if depth == 0 || rng.gen_range(0..4u32) == 0 {
        return bst.leaf();
    }
    bst.tree_node(
        rng.gen_range(0..16u64),
        arbitrary_tree(bst, depth - 1, rng),
        arbitrary_tree(bst, depth - 1, rng),
    )
}

fn bst_corpus() -> Corpus {
    let bst = Bst::new();
    let mut rng = SmallRng::seed_from_u64(11);
    let tuples = (0..80)
        .map(|_| {
            vec![
                Value::nat(0),
                Value::nat(16),
                arbitrary_tree(&bst, 4, &mut rng),
            ]
        })
        .collect();
    Corpus {
        lib: bst.library().fork(),
        rel: bst.relation(),
        tuples,
        fuels: vec![0, 2, 5, 9, 64],
    }
}

fn stlc_corpus() -> Corpus {
    let stlc = Stlc::new();
    let mut rng = SmallRng::seed_from_u64(7);
    let mut tuples: Vec<Vec<Value>> = Vec::new();
    while tuples.len() < 60 {
        let ty = stlc.random_ty(2, &mut rng);
        if let Some(e) = stlc.handwritten_gen(&[], &ty, 4, &mut rng) {
            // Half the corpus gets a mismatched type so ill-typed
            // searches (deep backtracking) are covered too.
            let ty = if tuples.len().is_multiple_of(2) {
                ty
            } else {
                stlc.random_ty(2, &mut rng)
            };
            tuples.push(vec![stlc.ctx(&[]), e, ty]);
        }
    }
    Corpus {
        lib: stlc.library().fork(),
        rel: stlc.typing_relation(),
        tuples,
        fuels: vec![0, 6, 40],
    }
}

fn ifc_corpus() -> Corpus {
    let ifc = Ifc::new();
    let mut rng = SmallRng::seed_from_u64(5);
    let mut tuples: Vec<Vec<Value>> = Vec::new();
    for i in 0..60 {
        let (_, m1, m2) = ifc.gen_indist_pair(6, &mut rng);
        // Even entries stay indistinguishable; odd entries pair two
        // independent machines so `Some(false)` occurs as well.
        let v1 = ifc.machine_value(&m1);
        let v2 = if i % 2 == 0 {
            ifc.machine_value(&m2)
        } else {
            let (_, other, _) = ifc.gen_indist_pair(6, &mut rng);
            ifc.machine_value(&other)
        };
        tuples.push(vec![v1, v2]);
    }
    Corpus {
        lib: ifc.library().fork(),
        rel: ifc.indist_relation(),
        tuples,
        fuels: vec![0, 8, 64],
    }
}

fn all_corpora() -> [Corpus; 3] {
    [bst_corpus(), stlc_corpus(), ifc_corpus()]
}

/// Checks every tuple at every fuel on `lib`, in a fixed order.
fn sweep(c: &Corpus, lib: &Library) -> Vec<Option<bool>> {
    let mut out = Vec::new();
    for fuel in &c.fuels {
        for args in &c.tuples {
            out.push(lib.check(c.rel, *fuel, *fuel, args));
        }
    }
    out
}

/// VM verdicts equal the interpreter's at every fuel, and the relation
/// never left the VM. Returns the verdict histogram
/// `[Some(true), Some(false), None]`.
fn assert_vm_matches_interpreter(c: &Corpus) -> [usize; 3] {
    assert!(c.lib.vm_compiled(c.rel), "the plan should compile");
    let mut verdicts = [0usize; 3];
    for args in &c.tuples {
        for &fuel in &c.fuels {
            let want = c.lib.check_interpreted(c.rel, fuel, fuel, args);
            let got = c.lib.check(c.rel, fuel, fuel, args);
            assert_eq!(got, want, "fuel {fuel} on {args:?}");
            verdicts[match want {
                Some(true) => 0,
                Some(false) => 1,
                None => 2,
            }] += 1;
        }
    }
    assert_eq!(c.lib.vm_fallback_count(), 0, "no entry may fall back");
    verdicts
}

/// Budgeted runs as `Result`s: a fresh session charges the same sites
/// in the same order, so each rung of the ladder exhausts (or decides)
/// identically, and a decided rung agrees with the unbudgeted verdict.
fn assert_budget_ladder_is_deterministic(c: &Corpus) {
    let again = c.lib.fork();
    for args in &c.tuples {
        for &fuel in &c.fuels {
            let want = c.lib.check(c.rel, fuel, fuel, args);
            for steps in STEP_LADDER {
                let budget = || Budget::unlimited().with_steps(steps);
                let got = c.lib.try_check(c.rel, fuel, fuel, args, budget());
                assert_eq!(
                    got,
                    again.try_check(c.rel, fuel, fuel, args, budget()),
                    "steps {steps} fuel {fuel} on {args:?}"
                );
                if let Ok(verdict) = got {
                    assert_eq!(verdict, want, "steps {steps} fuel {fuel} on {args:?}");
                }
            }
        }
    }
}

#[test]
fn bst_compiles_and_explain_reports_bytecode() {
    let bst = Bst::new();
    let lib = bst.library();
    // The headline fig3 relations must actually take the compiled
    // path — a silent fallback would make every parity test vacuous.
    assert!(lib.vm_compiled(bst.relation()), "bst plan should compile");
    // The ordering relations are *registered* handwritten checkers
    // (primitive instances, no plan), so there is nothing to compile —
    // `vm_compiled` is the honest "does this relation take the VM
    // path" answer, not a failure report.
    assert!(
        !lib.vm_compiled(bst.lt_relation()),
        "primitive instances have no bytecode"
    );
    let explain = lib.explain(bst.relation());
    assert!(
        explain.contains("bytecode:"),
        "explain() should surface the compiled program:\n{explain}"
    );
}

#[test]
fn bst_vm_matches_interpreter_verdicts_and_cutoffs() {
    let c = bst_corpus();
    let verdicts = assert_vm_matches_interpreter(&c);
    // The corpus must exercise all three verdicts or the sweep proves
    // little.
    assert!(
        verdicts.iter().all(|&n| n > 0),
        "corpus should hit Some(true)/Some(false)/None: {verdicts:?}"
    );
    assert_budget_ladder_is_deterministic(&c);
}

#[test]
fn stlc_vm_matches_interpreter_on_typing() {
    assert_vm_matches_interpreter(&stlc_corpus());
}

#[test]
fn ifc_vm_matches_interpreter_on_indist() {
    let c = ifc_corpus();
    assert_vm_matches_interpreter(&c);
    assert_budget_ladder_is_deterministic(&c);
}

#[test]
fn memoized_sessions_match_plain_sessions() {
    for c in all_corpora() {
        let plain = sweep(&c, &c.lib);
        let memo = c.lib.fork().with_memo();
        // Ascending fuels: later rungs answer from entries the earlier
        // ones cached (joint fuel monotonicity).
        assert_eq!(sweep(&c, &memo), plain, "memoized session");
        let m = memo.memo_stats();
        assert!(
            m.hits > 0,
            "the memoized session should reuse entries: {m:?}"
        );
        assert!(
            m.entries as u64 <= m.insertions && m.insertions <= m.misses,
            "{m:?}"
        );
        assert_eq!(memo.vm_fallback_count(), 0);
    }
}

#[test]
fn shared_serving_sessions_agree_across_backends() {
    let config = ServeConfig {
        shards: 4,
        shard_capacity: 1 << 10,
        steps_per_request: 1 << 16,
        max_retries: 2,
        ..ServeConfig::default()
    };
    for c in all_corpora() {
        let fuel = *c.fuels.last().unwrap();
        let want: Vec<_> = c
            .tuples
            .iter()
            .map(|args| Ok(c.lib.check(c.rel, fuel, fuel, args)))
            .collect();
        let interpreted: Vec<_> = c
            .tuples
            .iter()
            .map(|args| Ok(c.lib.check_interpreted(c.rel, fuel, fuel, args)))
            .collect();
        assert_eq!(want, interpreted, "plain VM session vs interpreter");
        let server = Server::new(c.lib.shared(), config, Budget::unlimited());
        let session = server.session();
        // Two passes: the second answers mostly from the shared table.
        assert_eq!(session.check_batch(c.rel, fuel, &c.tuples), want);
        let hits = server.stats().hits;
        assert_eq!(session.check_batch(c.rel, fuel, &c.tuples), want);
        assert!(server.stats().hits > hits, "the warm pass should hit");
        assert_eq!(server.snapshot().counter("vm.fallback"), Some(0));
    }
}

#[test]
fn fast_loop_matches_parity_loop() {
    for c in all_corpora() {
        // No meter, probe, or memo table: the fast loop.
        let fast = sweep(&c, &c.lib.fork());
        // A stats probe forces the parity loop.
        let armed = c.lib.fork();
        let stats = SearchStats::new();
        let parity = {
            let _probe = armed.arm_probe(ExecProbe::stats(&stats));
            sweep(&c, &armed)
        };
        assert_eq!(fast, parity, "arming a probe must not change a verdict");
        assert!(
            stats.to_json().contains("\"rules\":[{"),
            "the parity loop should report its search"
        );
    }
}

/// Nine arguments: over the VM's premise-arity ceiling, so `wide`'s
/// plan does not compile and every entry runs on the interpreter. Its
/// base case calls the compiled `le`, so the fallback crosses back into
/// the VM.
const WIDE: &str = r"
rel le : nat nat :=
| le_n : forall n, le n n
| le_S : forall n m, le n m -> le n (S m)
.
rel wide : nat nat nat nat nat nat nat nat nat :=
| w_base : forall a b c d e f g h, le a b -> wide 0 a b c d e f g h
| w_step : forall n a b c d e f g h, wide n a b c d e f g h -> wide (S n) a b c d e f g h
.";

#[test]
fn uncompilable_relation_falls_back_to_the_interpreter() {
    let mut u = Universe::new();
    let mut env = RelEnv::new();
    parse_program(&mut u, &mut env, WIDE).unwrap();
    let (le, wide) = (env.rel_id("le").unwrap(), env.rel_id("wide").unwrap());
    let mut b = LibraryBuilder::new(u, env);
    b.derive_checker(wide).unwrap();
    let lib = b.build();
    assert!(!lib.vm_compiled(wide), "arity 9 must not compile");
    assert!(lib.vm_compiled(le));
    assert!(lib.explain(wide).contains("interpreter fallback"));
    let tuples: Vec<Vec<Value>> = (0..4u64)
        .flat_map(|n| (0..3u64).flat_map(move |a| (0..3u64).map(move |b| (n, a, b))))
        .map(|(n, a, b)| {
            let mut args = vec![Value::nat(n), Value::nat(a), Value::nat(b)];
            args.extend((0..6u64).map(Value::nat));
            args
        })
        .collect();

    // Verdicts equal the interpreter's over a fuel ladder, and the
    // fallback's probe events are exactly a `check_interpreted` call's.
    for fuel in 0..8u64 {
        for args in &tuples {
            assert_eq!(
                lib.check(wide, fuel, fuel, args),
                lib.check_interpreted(wide, fuel, fuel, args),
                "fuel {fuel} on {args:?}"
            );
        }
    }
    assert!(lib.vm_fallback_count() > 0);
    let (checked, interpreted) = (SearchStats::new(), SearchStats::new());
    for (session, stats, interp) in [
        (lib.fork(), &checked, false),
        (lib.fork(), &interpreted, true),
    ] {
        let _probe = session.arm_probe(ExecProbe::stats(stats));
        for args in &tuples {
            if interp {
                session.check_interpreted(wide, 6, 6, args);
            } else {
                session.check(wide, 6, 6, args);
            }
        }
    }
    assert_eq!(checked.to_json(), interpreted.to_json());
    // Budget charges match too: one step per checker search, so a
    // budget of exactly as many steps as `check_interpreted` entered
    // searches is just enough.
    for args in &tuples {
        let (session, stats) = (lib.fork(), SearchStats::new());
        let want = {
            let _probe = session.arm_probe(ExecProbe::stats(&stats));
            session.check_interpreted(wide, 6, 6, args)
        };
        let steps = stats.enters(ExecKind::Checker);
        let budget = |n| Budget::unlimited().with_steps(n);
        assert_eq!(lib.try_check(wide, 6, 6, args, budget(steps)), Ok(want));
        assert!(lib.try_check(wide, 6, 6, args, budget(steps - 1)).is_err());
    }

    // A memoized session caches the fallback's verdicts: the second
    // sweep answers every entry from the table and runs nothing.
    let memo = lib.fork().with_memo();
    let first: Vec<_> = tuples.iter().map(|a| memo.check(wide, 6, 6, a)).collect();
    let (hits, fallbacks) = (memo.memo_stats().hits, memo.vm_fallback_count());
    let second: Vec<_> = tuples.iter().map(|a| memo.check(wide, 6, 6, a)).collect();
    assert_eq!(first, second);
    assert!(memo.memo_stats().entries > 0);
    assert_eq!(memo.memo_stats().hits - hits, tuples.len() as u64);
    assert_eq!(memo.vm_fallback_count(), fallbacks, "hits run nothing");

    // A served request on the fallback relation bumps `vm.fallback`.
    let server = Server::new(lib.shared(), ServeConfig::default(), Budget::unlimited());
    let served = server.session().check_batch(wide, 6, &tuples);
    let want: Vec<_> = first.into_iter().map(Ok).collect();
    assert_eq!(served, want);
    assert!(server.snapshot().counter("vm.fallback").unwrap() > 0);
}
