//! Profile-guided replanning ([`Library::replan_from`]): schedule
//! equivalence between the static and replanned cores over the
//! Figure 3 corpora, byte-determinism of sibling replans, hot
//! replanning inside a serving [`Session`], composition with
//! memoisation and the VM backend, and an adversarial spec where the
//! planner provably reorders — all pinned end to end.

use indrel::core::ExecKind;
use indrel::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// A two-premise relation whose source order is pessimal: `le' 0 n` is
/// expensive (O(n)) and never fails, `le' (S n) m` is cheap and almost
/// always fails on the profiling tuples. Both premises are plain
/// checker calls, so their static costs tie and the unprofiled
/// scheduler keeps source order.
const ADVERSARIAL_SPEC: &str = r"
    rel le' : nat nat :=
    | le_n : forall n, le' n n
    | le_S : forall n m, le' n m -> le' n (S m)
    .
    rel good : nat nat :=
    | g : forall n m, le' 0 n -> le' (S n) m -> good n m
    .
";

const FUEL: u64 = 96;

fn adversarial_lib() -> (Library, RelId) {
    let mut u = Universe::new();
    let mut env = RelEnv::new();
    parse_program(&mut u, &mut env, ADVERSARIAL_SPEC).unwrap();
    let rel = env.rel_id("good").unwrap();
    let mut b = LibraryBuilder::new(u, env);
    b.derive_checker(rel).unwrap();
    (b.build(), rel)
}

/// All-failing tuples with n large and m small — the worst case for
/// the source order, so the profile flags the divergence.
fn adversarial_tuples() -> Vec<Vec<Value>> {
    (0..24)
        .map(|i| vec![Value::nat(20 + (i % 6) * 4), Value::nat(i % 3)])
        .collect()
}

/// One profiling pass under an armed stats probe.
fn profile(lib: &Library, rel: RelId, tuples: &[Vec<Value>]) -> SearchStats {
    let stats = SearchStats::new();
    let _probe = lib.arm_probe(ExecProbe::stats(&stats));
    for t in tuples {
        let _ = lib.check(rel, FUEL, FUEL, t);
    }
    stats
}

/// The planner reorders the adversarial spec, reports it, and the
/// replanned `explain()` renders the hoisted premise first with the
/// profile column attached.
#[test]
fn adversarial_replan_reorders_and_explains() {
    let (lib, good) = adversarial_lib();
    let stats = profile(&lib, good, &adversarial_tuples());

    // The report is the replan's record: exactly `good` changed plan.
    let (replanned, report) = lib.replan_from_report(&stats);
    assert!(report.plan_changed(good), "{report:?}");
    assert_eq!(report.replanned, vec![good], "{report:?}");
    assert!(report.errors.is_empty(), "{report:?}");

    // The replanned core advertises its provenance and renders the
    // replan cost column; the cheap selective premise (source index 1)
    // now runs before the expensive one (source index 0).
    let after = profile(&replanned, good, &adversarial_tuples());
    let explain = replanned.explain_with_stats(good, &after);
    assert!(explain.contains("profile-guided"), "{explain}");
    assert!(explain.contains(" | replan "), "{explain}");
    let p1 = explain.find("[p1 ]").expect("premise 1 row");
    let p0 = explain.find("[p0 ]").expect("premise 0 row");
    assert!(p1 < p0, "premise 1 must be scheduled first:\n{explain}");

    // The reorder pays: over the same tuples, the hoisted premise cuts
    // the observed premise cost (12,544 -> 80) and the checker entries
    // (816 -> 72) by an order of magnitude. Both are counts, so they
    // repeat exactly on any host.
    let (cost_before, cost_after) = (stats.total_premise_cost(), after.total_premise_cost());
    assert!(
        cost_after * 10 <= cost_before,
        "premise cost {cost_before} -> {cost_after}"
    );
    let (enters_before, enters_after) = (
        stats.enters(ExecKind::Checker),
        after.enters(ExecKind::Checker),
    );
    assert!(
        enters_after * 10 <= enters_before,
        "checker enters {enters_before} -> {enters_after}"
    );

    // Schedule equivalence: at fuel that decides everything on this
    // grid, both schedules agree verdict-for-verdict.
    for n in 0..6u64 {
        for m in 0..6u64 {
            let args = [Value::nat(n), Value::nat(m)];
            assert_eq!(
                lib.check(good, FUEL, FUEL, &args),
                replanned.check(good, FUEL, FUEL, &args),
                "good {n} {m}"
            );
        }
    }
}

/// Sibling replans from one snapshot are byte-deterministic: identical
/// reports and byte-identical `explain()` for every relation.
#[test]
fn replans_are_byte_deterministic() {
    let (lib, good) = adversarial_lib();
    let stats = profile(&lib, good, &adversarial_tuples());
    let (a, ra) = lib.replan_from_report(&stats);
    let (b, rb) = lib.replan_from_report(&stats);
    assert_eq!(ra.replanned, rb.replanned);
    assert_eq!(ra.unchanged, rb.unchanged);
    assert_eq!(ra.kept, rb.kept);
    for (rel, _) in a.env().iter() {
        assert_eq!(
            a.explain(rel),
            b.explain(rel),
            "sibling replans must render identically"
        );
    }
}

/// A replan whose report says no plan changed is behaviourally
/// invisible: verdicts *and* probe streams match exactly.
#[test]
fn noop_replan_is_behaviourally_invisible() {
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
    let lib = b.build();

    let tuples: Vec<Vec<Value>> = (0..8u64)
        .flat_map(|n| (0..8u64).map(move |m| vec![Value::nat(n), Value::nat(m)]))
        .collect();
    let stats = profile(&lib, le, &tuples);
    let (replanned, report) = lib.replan_from_report(&stats);
    assert!(
        report.is_noop(),
        "single-premise rules cannot reorder: {report:?}"
    );

    let before = profile(&lib, le, &tuples);
    let after = profile(&replanned, le, &tuples);
    assert_eq!(
        before.snapshot().deterministic_json(),
        after.snapshot().deterministic_json(),
        "a no-op replan must not perturb the probe stream"
    );
    for t in &tuples {
        assert_eq!(
            lib.check(le, 20, 20, t),
            replanned.check(le, 20, 20, t),
            "{t:?}"
        );
    }
}

/// Replanning the Figure 3 corpora (BST, IFC, STLC) from profiles of
/// themselves changes no plan, so the replanned core keeps its
/// bytecode and agrees with the static one verdict for verdict.
#[test]
fn fig3_corpora_schedule_equivalence() {
    // BST: member/insert workloads over generated trees.
    let bst = indrel::bst::Bst::new();
    let mut rng = SmallRng::seed_from_u64(11);
    let tuples: Vec<Vec<Value>> = (0..24)
        .map(|_| {
            vec![
                Value::nat(0),
                Value::nat(16),
                bst.handwritten_gen(0, 16, 5, &mut rng),
            ]
        })
        .collect();
    assert_equiv_after_replan(bst.library(), bst.relation(), 64, &tuples);

    // IFC: indistinguishability over generated machine pairs.
    let ifc = indrel::ifc::Ifc::new();
    let mut rng = SmallRng::seed_from_u64(12);
    let tuples: Vec<Vec<Value>> = (0..16)
        .map(|_| {
            let (_, m1, m2) = ifc.gen_indist_pair(5, &mut rng);
            vec![ifc.machine_value(&m1), ifc.machine_value(&m2)]
        })
        .collect();
    assert_equiv_after_replan(ifc.library(), ifc.indist_relation(), 64, &tuples);

    // STLC: typing over generated well-typed terms.
    let stlc = indrel::stlc::Stlc::new();
    let mut rng = SmallRng::seed_from_u64(13);
    let ctx = stlc.ctx(&[]);
    let mut tuples = Vec::new();
    while tuples.len() < 16 {
        let ty = stlc.random_ty(2, &mut rng);
        if let Some(e) = stlc.handwritten_gen(&[], &ty, 4, &mut rng) {
            tuples.push(vec![ctx.clone(), e, ty]);
        }
    }
    assert_equiv_after_replan(stlc.library(), stlc.typing_relation(), 40, &tuples);
}

fn assert_equiv_after_replan(lib: &Library, rel: RelId, fuel: u64, tuples: &[Vec<Value>]) {
    let stats = SearchStats::new();
    {
        let _probe = lib.arm_probe(ExecProbe::stats(&stats));
        for t in tuples {
            let _ = lib.check(rel, fuel, fuel, t);
        }
    }
    let (replanned, report) = lib.replan_from_report(&stats);
    assert!(report.errors.is_empty(), "{report:?}");
    assert!(
        report.is_noop(),
        "the Figure 3 plans are already well ordered: {report:?}"
    );
    for t in tuples {
        assert_eq!(
            lib.check(rel, fuel, fuel, t),
            replanned.check(rel, fuel, fuel, t),
            "no-op replan must agree exactly: {t:?}"
        );
    }
}

/// Replanned cores compose with tabling and the VM backend exactly
/// like freshly built ones: the replanned plan compiles, and its VM
/// verdicts match the plan interpreter's.
#[test]
fn replan_composes_with_memo_and_vm() {
    let (lib, good) = adversarial_lib();
    let stats = profile(&lib, good, &adversarial_tuples());
    let replanned = lib.replan_from(&stats);
    assert!(replanned.vm_compiled(good), "replanned plan should compile");
    let memoed = replanned.fork().with_memo();
    for n in 0..5u64 {
        for m in 0..5u64 {
            let args = [Value::nat(n), Value::nat(m)];
            let plain = replanned.check(good, FUEL, FUEL, &args);
            assert_eq!(plain, memoed.check(good, FUEL, FUEL, &args), "memo {n} {m}");
            let interpreted = replanned.check_interpreted(good, FUEL, FUEL, &args);
            assert_eq!(plain, interpreted, "interpreter {n} {m}");
        }
    }
}

/// `Session::replan_hot` swaps the schedule under a live serving
/// session: the report names the reordered relation, verdicts stay
/// consistent, the shared memo attachment survives, and the
/// `plan.*` telemetry series record the pass.
#[test]
fn session_replan_hot_keeps_serving() {
    let (lib, good) = adversarial_lib();
    let shared = lib.shared();
    let server = Server::new(shared, ServeConfig::default(), Budget::unlimited());
    let mut session = server.session();

    // Profile while the shared memo is still cold — once it is warm,
    // checks answer from the table and premises stop accumulating
    // observations.
    let tuples = adversarial_tuples();
    let stats = SearchStats::new();
    {
        let _probe = session.library().arm_probe(ExecProbe::stats(&stats));
        for t in &tuples {
            let _ = session.library().check(good, FUEL, FUEL, t);
        }
    }
    let before: Vec<_> = session.check_batch(good, FUEL, &tuples);
    let report = session.replan_hot(&stats);
    assert!(report.plan_changed(good), "{report:?}");

    // Same decided verdicts after the hot swap, served from the same
    // shared memo (fuel-monotone facts stay valid across schedules).
    let hits_before = server.stats().hits;
    let after: Vec<_> = session.check_batch(good, FUEL, &tuples);
    assert_eq!(before, after, "hot replan must not change verdicts");
    assert!(
        server.stats().hits > hits_before,
        "the shared memo must survive the hot swap"
    );

    let snap = server.snapshot();
    assert_eq!(snap.counter("plan.replans"), Some(1));
    assert_eq!(snap.counter("plan.relations_replanned"), Some(1));
}
