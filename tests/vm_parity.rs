//! Parity of the bytecode VM against the plan interpreter.
//!
//! Every derived checker runs on the register VM, held to the plan
//! interpreter as its oracle ([`Library::check_interpreted`]). These
//! tests pin that contract on the three paper case studies — BST, STLC
//! typing, and IFC indistinguishability — and on a relation wider than
//! the VM's stack argument buffers:
//!
//! * VM and interpreter verdicts agree over a fuel ladder, and budgeted
//!   runs cut off (or decide) identically when repeated;
//! * memoized and served sessions agree with a plain session;
//! * the fast dispatch loop (an unarmed session) agrees with the parity
//!   loop (a stats-armed session);
//! * the compiled generators ([`Library::generate`]) return what the
//!   interpreted ones ([`Library::generate_interpreted`]) return from
//!   the same seed, and leave the RNG in the same state;
//! * deep compiled derivations fit the 2 MiB stack of a test thread.
//!
//! The shapes that once had no bytecode — arities past the stack
//! buffers, frames past 4,096 registers, a pattern no value matches —
//! compile and match the interpreter too.

use indrel::bst::Bst;
use indrel::core::ExecKind;
use indrel::ifc::Ifc;
use indrel::prelude::*;
use indrel::stlc::Stlc;
use rand::rngs::SmallRng;
use rand::{Rng as _, RngCore as _, SeedableRng};

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

/// Nine and ten arguments: wider than the VM's stack argument buffers,
/// so every call of `wide` and `wider` takes the heap path — the
/// entries, `wide`'s recursive premise, `wider`'s premise on `wide`,
/// and `wider`'s generator (nine inputs) with its recursive call.
const WIDE: &str = r"
rel le : nat nat :=
| le_n : forall n, le n n
| le_S : forall n m, le n m -> le n (S m)
.
rel wide : nat nat nat nat nat nat nat nat nat :=
| w_base : forall a b c d e f g h, le a b -> wide 0 a b c d e f g h
| w_step : forall n a b c d e f g h, wide n a b c d e f g h -> wide (S n) a b c d e f g h
.
rel wider : nat nat nat nat nat nat nat nat nat nat :=
| v_base : forall a b c d e f g h, wide 1 a b c d e f g h -> wider 0 a b c d e f g h b
| v_step : forall n a b c d e f g h m,
    wider n a b c d e f g h m -> wider (S n) a b c d e f g h (S m)
.";

/// `wider`'s generator mode: the first nine arguments in, the last out.
fn wider_mode() -> Mode {
    Mode::producer(10, &[9])
}

/// The library over [`WIDE`]: `wide`'s and `wider`'s checkers and
/// `wider`'s generator.
fn wide_library() -> Library {
    let mut u = Universe::new();
    let mut env = RelEnv::new();
    parse_program(&mut u, &mut env, WIDE).unwrap();
    let (wide, wider) = (env.rel_id("wide").unwrap(), env.rel_id("wider").unwrap());
    let mut b = LibraryBuilder::new(u, env);
    b.derive_checker(wide).unwrap();
    b.derive_checker(wider).unwrap();
    b.derive_producer(wider, wider_mode()).unwrap();
    b.build()
}

fn wide_corpus() -> Corpus {
    let lib = wide_library();
    let tuples = (0..4u64)
        .flat_map(|n| (0..3u64).flat_map(move |a| (0..3u64).map(move |b| (n, a, b))))
        .map(|(n, a, b)| {
            let mut args = vec![Value::nat(n), Value::nat(a), Value::nat(b)];
            args.extend((0..6u64).map(Value::nat));
            args
        })
        .collect();
    Corpus {
        rel: lib.env().rel_id("wide").unwrap(),
        lib,
        tuples,
        fuels: (0..8).collect(),
    }
}

fn all_corpora() -> [Corpus; 4] {
    [bst_corpus(), stlc_corpus(), ifc_corpus(), wide_corpus()]
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

/// The relation compiled, and its VM verdicts equal the interpreter's
/// at every fuel. Returns the verdict histogram
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
    // `T_App` infers its argument's type through the compiled
    // enumerator; fuels 0–8 reach its out-of-fuel paths.
    let mut c = stlc_corpus();
    c.fuels = (0..=8).chain([40]).collect();
    let verdicts = assert_vm_matches_interpreter(&c);
    assert!(
        verdicts.iter().all(|&n| n > 0),
        "corpus should hit Some(true)/Some(false)/None: {verdicts:?}"
    );
}

/// One derived generator against its interpreted oracle at sizes 0–6
/// over `seeds` seeds: the same output, and the same next RNG word.
/// `inputs` draws the call's inputs from a separate stream. Returns how
/// many calls produced a tuple.
fn assert_generator_matches_interpreter(
    lib: &Library,
    rel: RelId,
    mode: &Mode,
    seeds: u64,
    mut inputs: impl FnMut(&mut SmallRng) -> Vec<Value>,
) -> usize {
    let mut produced = 0;
    let mut draw = SmallRng::seed_from_u64(99);
    for seed in 0..seeds {
        for size in 0..=6u64 {
            let inputs = inputs(&mut draw);
            let mut compiled = SmallRng::seed_from_u64(seed);
            let mut interpreted = compiled.clone();
            let got = lib.generate(rel, mode, size, size, &inputs, &mut compiled);
            let want = lib.generate_interpreted(rel, mode, size, size, &inputs, &mut interpreted);
            assert_eq!(got, want, "seed {seed} size {size} on {inputs:?}");
            assert_eq!(
                compiled.next_u64(),
                interpreted.next_u64(),
                "RNG state after seed {seed} size {size} on {inputs:?}"
            );
            produced += usize::from(got.is_some());
        }
    }
    produced
}

#[test]
fn compiled_generators_replay_the_interpreters_draws() {
    let bst = Bst::new();
    let produced = assert_generator_matches_interpreter(
        bst.library(),
        bst.relation(),
        &bst.tree_mode(),
        1000,
        |rng| {
            let lo = rng.gen_range(0..8u64);
            vec![Value::nat(lo), Value::nat(lo + rng.gen_range(0..16u64))]
        },
    );
    assert!(produced > 0);

    let stlc = Stlc::new();
    let produced = assert_generator_matches_interpreter(
        stlc.library(),
        stlc.typing_relation(),
        &stlc.term_mode(),
        1000,
        |rng| vec![stlc.ctx(&[]), stlc.random_ty(2, rng)],
    );
    assert!(produced > 0);

    let ifc = Ifc::new();
    let produced = assert_generator_matches_interpreter(
        ifc.library(),
        ifc.indist_relation(),
        &ifc.variation_mode(),
        1000,
        |rng| {
            let (_, m, _) = ifc.gen_indist_pair(6, rng);
            vec![ifc.machine_value(&m)]
        },
    );
    assert!(produced > 0);
}

#[test]
fn producer_premises_make_no_memo_lookups() {
    // `stlc_step`'s producer checks `stlc_value` through the derived
    // checker, a premise crossing from inside the compiled generator.
    // Arming a probe sends the same calls through the interpreter.
    // Only top-level checks consult a table, so on a memoized session
    // neither executor makes a lookup, and both leave it alike.
    let stlc = Stlc::new();
    let (rel, mode) = (stlc.step_relation(), Mode::producer(2, &[1]));
    let mut rng = SmallRng::seed_from_u64(3);
    let terms: Vec<Value> = std::iter::from_fn(|| {
        let ty = stlc.random_ty(2, &mut rng);
        Some(stlc.handwritten_gen(&[], &ty, 5, &mut rng))
    })
    .flatten()
    .take(200)
    .collect();
    let run = |armed: bool| {
        let lib = stlc.library().fork().with_memo();
        let stats = SearchStats::new();
        let _probe = armed.then(|| lib.arm_probe(ExecProbe::stats(&stats)));
        let mut rng = SmallRng::seed_from_u64(4);
        let outs: Vec<_> = terms
            .iter()
            .map(|e| lib.generate(rel, &mode, 8, 8, std::slice::from_ref(e), &mut rng))
            .collect();
        (outs, lib.memo_stats())
    };
    let (compiled, compiled_stats) = run(false);
    let (interpreted, interpreted_stats) = run(true);
    assert_eq!(compiled, interpreted);
    assert_eq!(compiled_stats, interpreted_stats);
    let lookups = (compiled_stats.hits, compiled_stats.misses);
    assert_eq!(lookups, (0, 0), "{compiled_stats:?}");
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
            stats.snapshot().deterministic_json().contains("\"rule."),
            "the parity loop should report its search"
        );
    }
}

#[test]
fn wide_relations_compile_and_match_the_interpreter() {
    let c = wide_corpus();
    let wide = c.rel;
    let lib = &c.lib;
    assert!(lib.vm_compiled(lib.env().rel_id("wider").unwrap()));
    assert!(lib.explain(wide).contains("instrs across"));
    let verdicts = assert_vm_matches_interpreter(&c);
    assert!(
        verdicts.iter().all(|&n| n > 0),
        "corpus should hit Some(true)/Some(false)/None: {verdicts:?}"
    );
    assert_budget_ladder_is_deterministic(&c);
    let tuples = &c.tuples;

    // Budget charges match the interpreter's: one step per checker
    // search, so a budget of exactly as many steps as
    // `check_interpreted` entered searches is just enough.
    for args in tuples {
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

    // A memoized session caches the wide verdicts: the second sweep
    // answers every entry from the table.
    let memo = lib.fork().with_memo();
    let first: Vec<_> = tuples.iter().map(|a| memo.check(wide, 6, 6, a)).collect();
    let hits = memo.memo_stats().hits;
    let second: Vec<_> = tuples.iter().map(|a| memo.check(wide, 6, 6, a)).collect();
    assert_eq!(first, second);
    assert!(memo.memo_stats().entries > 0);
    assert_eq!(memo.memo_stats().hits - hits, tuples.len() as u64);

    // A served batch answers the same.
    let server = Server::new(lib.shared(), ServeConfig::default(), Budget::unlimited());
    let served = server.session().check_batch(wide, 6, tuples);
    let want: Vec<_> = first.into_iter().map(Ok).collect();
    assert_eq!(served, want);
}

#[test]
fn wide_generators_compile_and_replay_the_interpreters_draws() {
    let lib = wide_library();
    let wider = lib.env().rel_id("wider").unwrap();
    // The checker, whose base case calls the nine-argument `wide`.
    let c = Corpus {
        rel: wider,
        tuples: (0..3u64)
            .flat_map(|n| (0..3u64).flat_map(move |a| (0..6u64).map(move |m| (n, a, m))))
            .map(|(n, a, m)| {
                let mut args = vec![Value::nat(n), Value::nat(a), Value::nat(a + 1)];
                args.extend((0..6u64).map(Value::nat));
                args.push(Value::nat(m));
                args
            })
            .collect(),
        fuels: (0..6).collect(),
        lib: lib.fork(),
    };
    let verdicts = assert_vm_matches_interpreter(&c);
    assert!(verdicts[0] > 0 && verdicts[1] > 0, "{verdicts:?}");
    // The generator, nine inputs and one output, has bytecode too.
    let explain = lib.explain(wider);
    assert_eq!(explain.matches("instrs across").count(), 2, "{explain}");
    let produced = assert_generator_matches_interpreter(&lib, wider, &wider_mode(), 200, |rng| {
        let mut ins: Vec<Value> = (0..3).map(|_| Value::nat(rng.gen_range(0..4u64))).collect();
        ins.extend((0..6u64).map(Value::nat));
        ins
    });
    assert!(produced > 0);
}

#[test]
fn unmatchable_conclusion_compiles_to_a_failing_guard() {
    // `S 18446744073709551615` would need a nat past `u64::MAX`, so no
    // value matches `h_max`'s conclusion; the other rules decide.
    let mut u = Universe::new();
    let mut env = RelEnv::new();
    parse_program(
        &mut u,
        &mut env,
        r"
        rel huge : nat :=
        | h_max : huge (S 18446744073709551615)
        | h_two : huge 2
        | h_step : forall n, huge n -> huge (S (S (S n)))
        .",
    )
    .unwrap();
    let huge = env.rel_id("huge").unwrap();
    let mut b = LibraryBuilder::new(u, env);
    b.derive_checker(huge).unwrap();
    let lib = b.build();
    let c = Corpus {
        rel: huge,
        tuples: [0, 1, 2, 3, 5, 8, u64::MAX]
            .into_iter()
            .map(|n| vec![Value::nat(n)])
            .collect(),
        fuels: vec![0, 1, 2, 3, 64],
        lib,
    };
    let verdicts = assert_vm_matches_interpreter(&c);
    assert!(verdicts.iter().all(|&n| n > 0), "{verdicts:?}");
    assert_budget_ladder_is_deterministic(&c);
}

#[test]
fn wide_frames_compile_and_match_the_interpreter() {
    // A premise argument of 5,000 nested `S` needs over 5,000 frame
    // registers. Parsing and deriving it recurse once per `S`, which
    // outgrows a default test thread, so this runs on a large stack.
    std::thread::Builder::new()
        .stack_size(256 << 20)
        .spawn(|| {
            let depth = 5_000u64;
            let arg = format!(
                "{}n{}",
                "(S ".repeat(depth as usize),
                ")".repeat(depth as usize)
            );
            let src = format!(
                r"
                rel same : nat nat :=
                | same_n : forall n, same n n
                .
                rel far : nat nat :=
                | far_r : forall n m, same {arg} m -> far n m
                ."
            );
            let mut u = Universe::new();
            let mut env = RelEnv::new();
            parse_program(&mut u, &mut env, &src).unwrap();
            let far = env.rel_id("far").unwrap();
            let mut b = LibraryBuilder::new(u, env);
            b.derive_checker(far).unwrap();
            let lib = b.build();
            let c = Corpus {
                rel: far,
                tuples: (0..4u64)
                    .flat_map(|n| [0, depth - 1, depth, depth + 1].map(|m| (n, n + m)))
                    .map(|(n, m)| vec![Value::nat(n), Value::nat(m)])
                    .collect(),
                fuels: vec![0, 1, 5],
                lib,
            };
            let verdicts = assert_vm_matches_interpreter(&c);
            assert!(verdicts[0] > 0 && verdicts[1] > 0, "{verdicts:?}");
        })
        .unwrap()
        .join()
        .unwrap();
}

#[test]
fn handwritten_producers_serve_compiled_callers() {
    // `le` at (-,+) is registered, not derived, so the compiled
    // `between` checker and generator reach it through the
    // handwritten stream and generator.
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
        .",
    )
    .unwrap();
    let (le, between) = (env.rel_id("le").unwrap(), env.rel_id("between").unwrap());
    let up = Mode::producer(2, &[1]);
    let mut b = LibraryBuilder::new(u, env);
    b.register_enumerator(
        le,
        up.clone(),
        std::sync::Arc::new(|size, _, ins: &[Value]| {
            let n = ins[0].as_nat().unwrap();
            EStream::from_outcomes(
                (n..=n + size)
                    .map(|m| Outcome::Val(vec![Value::nat(m)]))
                    .chain([Outcome::OutOfFuel]),
            )
        }),
    );
    b.register_generator(
        le,
        up.clone(),
        std::sync::Arc::new(|size, _, ins: &[Value], rng: &mut dyn rand::RngCore| {
            Some(vec![Value::nat(
                ins[0].as_nat().unwrap() + rng.gen_range(0..=size),
            )])
        }),
    );
    b.derive_checker(between).unwrap();
    b.derive_producer(between, up.clone()).unwrap();
    let lib = b.build();
    assert!(lib.vm_compiled(between));
    for fuel in 0..6u64 {
        for n in 0..4u64 {
            for p in 0..8u64 {
                let args = [Value::nat(n), Value::nat(p)];
                assert_eq!(
                    lib.check(between, fuel, fuel, &args),
                    lib.check_interpreted(between, fuel, fuel, &args),
                    "fuel {fuel} on {args:?}"
                );
            }
        }
    }
    let produced = assert_generator_matches_interpreter(&lib, between, &up, 200, |rng| {
        vec![Value::nat(rng.gen_range(0..4u64))]
    });
    assert!(produced > 0);
}

#[test]
fn deep_derivations_fit_a_two_mib_stack() {
    // Debug-build tests run on 2 MiB threads, and a derivation that
    // outgrows its stack aborts the process. The floors pinned here sit
    // below what a debug build reaches on x86-64: about 2,500 levels
    // for `between`'s compiled enumeration of `le` (the interpreter:
    // 2,600), about 660 for the compiled `deep` generator and about
    // 1,060 for the interpreted one. Release builds reach about 4,800,
    // 3,000 and 3,500.
    std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(|| {
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
                rel deep : nat nat :=
                | d0 : deep 0 0
                | dS : forall n m, deep n m -> deep (S n) (S m)
                .",
            )
            .unwrap();
            let between = env.rel_id("between").unwrap();
            let deep = env.rel_id("deep").unwrap();
            let down = Mode::producer(2, &[1]);
            let mut b = LibraryBuilder::new(u, env);
            b.derive_checker(between).unwrap();
            b.derive_producer(deep, down.clone()).unwrap();
            let lib = b.build();
            assert!(lib.vm_compiled(between));

            // `le 5 m` enumerates m = 5, 6, .. down to depth `fuel`, and
            // every `le (S m) 3` fails: no witness, out of fuel.
            let fuel = 2_000;
            let args = [Value::nat(5), Value::nat(3)];
            assert_eq!(lib.check(between, fuel, fuel, &args), None);
            assert_eq!(lib.check_interpreted(between, fuel, fuel, &args), None);

            // `deep n` has one derivation, `n` levels deep.
            let n = 550;
            let mut rng = SmallRng::seed_from_u64(7);
            let out = lib.generate(deep, &down, n + 1, n + 1, &[Value::nat(n)], &mut rng);
            assert_eq!(out, Some(vec![Value::nat(n)]));
            let n = 800;
            let out =
                lib.generate_interpreted(deep, &down, n + 1, n + 1, &[Value::nat(n)], &mut rng);
            assert_eq!(out, Some(vec![Value::nat(n)]));
        })
        .unwrap()
        .join()
        .unwrap();
}
