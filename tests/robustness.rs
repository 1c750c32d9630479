//! Robustness of the execution layer: the panic-free `try_*` entry
//! points agree with the panicking APIs wherever those succeed, budget
//! cut-offs are structured and deterministic, deadlines actually cut
//! off exponential searches, and the PBT runner survives crashing
//! checkers (fault injection via `indrel::pbt::chaos`).

use indrel::pbt::chaos::{silence_panics, Chaos};
use indrel::prelude::*;
use indrel::term::enumerate::tuples_up_to;
use proptest::prelude::*;
use std::cell::OnceCell;
use std::time::{Duration, Instant};

/// The exponential workload: a proof of `twin n` has `2^n` leaves, so
/// small budgets and deadlines bite at modest `n` while the recursion
/// depth stays `O(n)`.
fn twin_lib() -> (Library, RelId) {
    let mut u = Universe::new();
    let mut env = RelEnv::new();
    parse_program(
        &mut u,
        &mut env,
        r"rel twin : nat :=
          | t0 : twin 0
          | tS : forall n, twin n -> twin n -> twin (S n)
          .",
    )
    .unwrap();
    let twin = env.rel_id("twin").unwrap();
    let mut b = LibraryBuilder::new(u, env);
    b.derive_checker(twin).unwrap();
    (b.build(), twin)
}

thread_local! {
    static LE_LIB: OnceCell<(Library, RelId)> = const { OnceCell::new() };
    static TWIN_LIB: OnceCell<(Library, RelId)> = const { OnceCell::new() };
}

fn with_le<R>(f: impl FnOnce(&Library, RelId) -> R) -> R {
    LE_LIB.with(|cell| {
        let (lib, le) = cell.get_or_init(|| {
            let mut u = Universe::new();
            let mut env = RelEnv::new();
            parse_program(
                &mut u,
                &mut env,
                r"rel le : nat nat :=
                  | le_n : forall n, le n n
                  | le_S : forall n m, le n m -> le n (S m)
                  .",
            )
            .unwrap();
            let le = env.rel_id("le").unwrap();
            let mut b = LibraryBuilder::new(u, env);
            b.derive_checker(le).unwrap();
            (b.build(), le)
        });
        f(lib, *le)
    })
}

fn with_twin<R>(f: impl FnOnce(&Library, RelId) -> R) -> R {
    TWIN_LIB.with(|cell| {
        let (lib, twin) = cell.get_or_init(twin_lib);
        f(lib, *twin)
    })
}

/// `try_check` with an unlimited budget is `check`, on every corpus
/// relation with a derivable checker and every small argument tuple.
#[test]
fn try_check_agrees_with_check_on_corpus() {
    let (u, env) = indrel::corpus::corpus_env();
    let names = [
        "ev",
        "ev'",
        "le",
        "lt",
        "ge",
        "eq_nat",
        "square_of",
        "next_nat",
        "next_ev",
        "total_relation",
        "empty_relation",
        "in_list",
        "subseq",
        "pal",
        "nostutter",
        "nodup",
    ];
    let mut b = LibraryBuilder::new(u.clone(), env.clone());
    let ids: Vec<RelId> = names
        .iter()
        .map(|n| {
            let id = env.rel_id(n).unwrap();
            b.derive_checker(id).unwrap();
            id
        })
        .collect();
    let lib = b.build();
    for (name, &id) in names.iter().zip(&ids) {
        let tys = env.relation(id).arg_types().to_vec();
        for args in tuples_up_to(&u, &tys, 3) {
            for fuel in [0, 2, 6] {
                assert_eq!(
                    lib.try_check(id, fuel, fuel, &args, Budget::unlimited()),
                    Ok(lib.check(id, fuel, fuel, &args)),
                    "{name} {args:?} fuel {fuel}"
                );
            }
        }
    }
}

proptest! {
    /// Sampled agreement with a *finite* (but ample) budget: a budget
    /// big enough to finish must not change the verdict.
    #[test]
    fn ample_budget_does_not_change_verdicts(n in 0u64..40, m in 0u64..40) {
        with_le(|lib, le| {
            let fuel = n.max(m) + 2;
            let args = [Value::nat(n), Value::nat(m)];
            let plain = lib.check(le, fuel, fuel, &args);
            let budgeted = lib.try_check(le, fuel, fuel, &args, Budget::unlimited().with_steps(100_000));
            prop_assert_eq!(budgeted, Ok(plain));
            Ok(())
        })?;
    }

    /// Budget exhaustion is deterministic: the same seed-free workload
    /// under the same budget yields the same outcome, twice, and an
    /// exhausted step budget is always the structured error — never a
    /// panic, never a bogus verdict.
    #[test]
    fn budget_exhaustion_is_deterministic(steps in 1u64..200) {
        with_twin(|lib, twin| {
            let budget = Budget::unlimited().with_steps(steps);
            let args = [Value::nat(16)];
            let first = lib.try_check(twin, 20, 20, &args, budget);
            let second = lib.try_check(twin, 20, 20, &args, budget);
            prop_assert_eq!(&first, &second);
            if let Err(e) = first {
                prop_assert_eq!(e, ExecError::BudgetExhausted { resource: Resource::Steps });
            }
            Ok(())
        })?;
    }
}

/// The ISSUE acceptance case: an exhausted step budget returns
/// `Err(BudgetExhausted)` — it never panics and never hangs.
#[test]
fn exhausted_step_budget_is_a_structured_error() {
    let (lib, twin) = twin_lib();
    let r = lib.try_check(
        twin,
        50,
        50,
        &[Value::nat(40)],
        Budget::unlimited().with_steps(10_000),
    );
    assert_eq!(
        r,
        Err(ExecError::BudgetExhausted {
            resource: Resource::Steps
        })
    );
}

/// A deadline cuts off a search that would otherwise take `2^60`
/// steps, well before the test harness would time out.
#[test]
fn deadline_cuts_off_exponential_search() {
    let (lib, twin) = twin_lib();
    let start = Instant::now();
    let r = lib.try_check(
        twin,
        64,
        64,
        &[Value::nat(60)],
        Budget::unlimited().with_deadline(Duration::from_millis(50)),
    );
    assert_eq!(r, Err(ExecError::Deadline));
    assert!(
        start.elapsed() < Duration::from_secs(5),
        "deadline must cut off promptly, took {:?}",
        start.elapsed()
    );
}

/// Caller errors are structured, not panics: a missing instance and a
/// wrong argument count both come back as `Err`.
#[test]
fn caller_errors_are_structured() {
    let (lib, twin) = twin_lib();
    assert_eq!(
        lib.try_check(twin, 5, 5, &[], Budget::unlimited()),
        Err(ExecError::ArityMismatch {
            rel: "twin".into(),
            expected: 1,
            got: 0
        })
    );
    let mode = Mode::producer(1, &[0]);
    let err = lib
        .try_enumerate(twin, &mode, 5, 5, &[], Budget::unlimited())
        .unwrap_err();
    assert_eq!(
        err,
        ExecError::NoInstance {
            kind: InstanceKind::Enumerator,
            rel: "twin".into(),
            mode: Some(mode.to_string()),
        }
    );
    assert!(!lib.has_enumerator(twin, &mode));
    assert!(lib.has_checker(twin));
}

/// The end-to-end fault-injection acceptance scenario: a PBT run over
/// a *derived* checker with 1% injected checker panics completes every
/// requested test, reports the crash count and the first crashing
/// input, and exits cleanly.
#[test]
fn chaos_run_with_injected_panics_completes() {
    with_le(|lib, le| {
        let chaos = Chaos::new(0xC4A0).with_panic_rate(0.01);
        let _quiet = silence_panics();
        let report = Runner::new(7).with_size(30).run(
            1000,
            chaos.wrap_gen(|size, rng| {
                let n = rand::Rng::gen_range(rng, 0..=size);
                let m = rand::Rng::gen_range(rng, 0..=size);
                Some(vec![Value::nat(n), Value::nat(m.max(n))])
            }),
            chaos.wrap_property(|args| TestOutcome::from_check(lib.check(le, 40, 40, args))),
        );
        assert_eq!(
            report.passed + report.crashed,
            1000,
            "all requested tests executed: {report}"
        );
        assert!(report.crashed > 0, "1% injection must crash some tests");
        assert!(report.failed.is_none(), "le n max(n,m) always holds");
        let crash = report.first_crash.expect("first crash recorded");
        assert!(crash.input.is_some(), "checker crash keeps its input");
        assert!(crash.message.contains("injected checker panic"));
    });
}

/// A budgeted PBT run over a derived generator both makes progress and
/// stops on the budget, with the spend accounted in the report.
#[test]
fn budgeted_pbt_run_accounts_spend() {
    let mut u = Universe::new();
    let mut env = RelEnv::new();
    parse_program(
        &mut u,
        &mut env,
        r"rel le : nat nat :=
          | le_n : forall n, le n n
          | le_S : forall n m, le n m -> le n (S m)
          .",
    )
    .unwrap();
    let le = env.rel_id("le").unwrap();
    let mut b = LibraryBuilder::new(u, env);
    b.derive_checker(le).unwrap();
    b.derive_producer(le, Mode::producer(2, &[0])).unwrap();
    let lib = b.build();
    let mode = Mode::producer(2, &[0]);
    let report = Runner::new(11)
        .with_budget(Budget::unlimited().with_steps(200))
        .run(
            10_000,
            |size, rng| {
                let bound = Value::nat(rand::Rng::gen_range(rng, 0..=size));
                lib.generate(le, &mode, 12, 12, std::slice::from_ref(&bound), rng)
                    .map(|outs| vec![outs[0].clone(), bound])
            },
            |args| TestOutcome::from_check(lib.check(le, 14, 14, args)),
        );
    assert!(report.passed > 0, "some tests ran within budget");
    assert_eq!(
        report.stopped,
        Some(Exhaustion::Budget(Resource::Steps)),
        "{report}"
    );
    assert_eq!(report.spent.steps, 200);
}

/// A term whose size overflows `u64` neither panics `try_check` nor
/// slips past `max_term_size`: `Value::size` saturates, so a BST
/// holding two keys of 2^63 measures `u64::MAX` nodes, not 5.
#[test]
fn overflowing_term_size_is_rejected_not_wrapped() {
    let bst = indrel::bst::Bst::new();
    let key = 1u64 << 63;
    let tree = bst.tree_node(key, bst.tree_node(key, bst.leaf(), bst.leaf()), bst.leaf());
    assert_eq!(tree.size(), u64::MAX);
    let r = bst.library().try_check(
        bst.relation(),
        10,
        10,
        &[Value::nat(0), Value::nat(10), tree],
        Budget::unlimited().with_max_term_size(100),
    );
    assert_eq!(
        r,
        Err(ExecError::BudgetExhausted {
            resource: Resource::TermSize
        })
    );
}

#[test]
fn armed_producer_telemetry_survives_huge_outputs() {
    // Each output is as large as a term can be, so the probe's
    // `TermProduced` size of the pair saturates instead of overflowing.
    let mut u = Universe::new();
    let mut env = RelEnv::new();
    parse_program(
        &mut u,
        &mut env,
        "rel tri : nat nat nat := | c : forall n, tri n n n .",
    )
    .unwrap();
    let tri = env.rel_id("tri").unwrap();
    let mode = Mode::producer(3, &[1, 2]);
    let mut b = LibraryBuilder::new(u, env);
    b.derive_producer(tri, mode.clone()).unwrap();
    let lib = b.build();
    let stats = SearchStats::new();
    let _probe = lib.arm_probe(ExecProbe::stats(&stats));
    let input = [Value::nat(u64::MAX)];
    let pair = vec![Value::nat(u64::MAX), Value::nat(u64::MAX)];
    let mut rng = <rand::rngs::SmallRng as rand::SeedableRng>::seed_from_u64(0);
    assert_eq!(
        lib.try_generate(tri, &mode, 3, 3, &input, &mut rng, Budget::unlimited()),
        Ok(Some(pair.clone()))
    );
    let stream = lib
        .try_enumerate(tri, &mode, 3, 3, &input, Budget::unlimited())
        .unwrap();
    assert_eq!(stream.values(), Ok(vec![pair]));
    assert_eq!(stats.term_size_hist().max, u64::MAX);
}

/// `max_term_size(k)` is the same boundary at all four `try_*` entry
/// points and for a request served under that budget: an argument of
/// size k is admitted and one of size k + 1 is refused with the same
/// error, on the first attempt and without a retry. A budget with no
/// such cap sizes nothing, so it admits even `nat(u64::MAX)`, the
/// largest size there is.
#[test]
fn term_size_cap_is_one_boundary_for_every_try_entry_point() {
    let mut u = Universe::new();
    let mut env = RelEnv::new();
    parse_program(
        &mut u,
        &mut env,
        "rel tri : nat nat nat := | c : forall n, tri n n n .",
    )
    .unwrap();
    let tri = env.rel_id("tri").unwrap();
    let mode = Mode::producer(3, &[1, 2]);
    let mut b = LibraryBuilder::new(u, env);
    b.derive_checker(tri).unwrap();
    b.derive_producer(tri, mode.clone()).unwrap();
    let lib = b.build();
    let refused = ExecError::BudgetExhausted {
        resource: Resource::TermSize,
    };
    let k = 7u64;
    let capped = Budget::unlimited().with_max_term_size(k);
    let step_only = Budget::unlimited().with_steps(1_000);
    for (n, budget, admitted) in [
        (k, capped, true),
        (k + 1, capped, false),
        (u64::MAX, step_only, true),
    ] {
        let n = Value::nat(n);
        assert_eq!(n.size(), n.as_nat().unwrap());
        let args = [n.clone(), n.clone(), n.clone()];
        let pair = vec![n.clone(), n.clone()];
        let mut rng = <rand::rngs::SmallRng as rand::SeedableRng>::seed_from_u64(0);
        let input = std::slice::from_ref(&n);
        let checked = lib.try_check(tri, 3, 3, &args, budget);
        let decided = lib.try_decide(tri, &args, 8, budget);
        let enumerated = lib
            .try_enumerate(tri, &mode, 3, 3, input, budget)
            .and_then(|s| s.values());
        let generated = lib.try_generate(tri, &mode, 3, 3, input, &mut rng, budget);
        let server = Server::new(lib.shared(), ServeConfig::default(), budget);
        let session = server.session();
        let served = session.check_batch(tri, 3, &[args.to_vec()]);
        if admitted {
            assert_eq!(checked, Ok(Some(true)), "try_check {n:?}");
            assert_eq!(decided, Ok(Some(true)), "try_decide {n:?}");
            assert_eq!(enumerated, Ok(vec![pair.clone()]), "try_enumerate {n:?}");
            assert_eq!(generated, Ok(Some(pair)), "try_generate {n:?}");
            assert_eq!(served, vec![Ok(Some(true))], "check_batch {n:?}");
        } else {
            assert_eq!(checked, Err(refused.clone()), "try_check {n:?}");
            assert_eq!(decided, Err(refused.clone()), "try_decide {n:?}");
            assert_eq!(enumerated, Err(refused.clone()), "try_enumerate {n:?}");
            assert_eq!(generated, Err(refused.clone()), "try_generate {n:?}");
            assert_eq!(served, vec![Err(refused.clone())], "check_batch {n:?}");
        }
        let spans = session.recorder().spans();
        assert_eq!(spans[0].attempts, 1, "served {n:?}");
        assert_eq!(server.stats().retries, 0, "served {n:?}");
    }
}
