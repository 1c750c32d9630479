//! Observability of the search: `SearchStats` probes are deterministic
//! (same seed + budget ⇒ byte-identical snapshot JSON) for all three
//! execution families, arming a probe never changes results, the
//! `TraceProbe` ring keeps the newest events, and the PBT runner's
//! `RunReport` renders the full telemetry block — snapshot-tested under
//! fault injection.

use indrel::pbt::chaos::{silence_panics, Chaos};
use indrel::prelude::*;
use indrel::term::enumerate::tuples_up_to;
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn le_lib() -> (Library, RelId, Universe, Vec<TypeExpr>) {
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
    let tys = env.relation(le).arg_types().to_vec();
    let mut b = LibraryBuilder::new(u.clone(), env);
    b.derive_checker(le).unwrap();
    b.derive_producer(le, Mode::producer(2, &[0])).unwrap();
    (b.build(), le, u, tys)
}

/// One fixed checker workload with a fresh `SearchStats` armed.
fn checker_stats() -> MetricsSnapshot {
    let (lib, le, u, tys) = le_lib();
    let stats = SearchStats::new();
    let _probe = lib.arm_probe(ExecProbe::stats(&stats));
    for args in tuples_up_to(&u, &tys, 5) {
        let _ = lib.check(le, 8, 8, &args);
    }
    stats.snapshot()
}

/// One fixed enumerator workload with a fresh `SearchStats` armed.
fn enumerator_stats() -> MetricsSnapshot {
    let (lib, le, _, _) = le_lib();
    let stats = SearchStats::new();
    let _probe = lib.arm_probe(ExecProbe::stats(&stats));
    let mode = Mode::producer(2, &[0]);
    for n in 0..5u64 {
        let _ = lib
            .enumerate(le, &mode, 6, 6, &[Value::nat(n)])
            .values()
            .len();
    }
    stats.snapshot()
}

/// One fixed generator workload (seeded RNG) with a fresh
/// `SearchStats` armed.
fn generator_stats() -> MetricsSnapshot {
    let (lib, le, _, _) = le_lib();
    let stats = SearchStats::new();
    let _probe = lib.arm_probe(ExecProbe::stats(&stats));
    let mode = Mode::producer(2, &[0]);
    let mut rng = SmallRng::seed_from_u64(0xD15E);
    for n in 0..20u64 {
        let _ = lib.generate(le, &mode, 8, 8, &[Value::nat(n % 6)], &mut rng);
    }
    stats.snapshot()
}

#[test]
fn checker_stats_are_deterministic() {
    let (a, b) = (checker_stats(), checker_stats());
    let (a, b) = (a.deterministic_json(), b.deterministic_json());
    assert!(a.contains("\"rule."), "stats should be non-empty: {a}");
    assert_eq!(a, b, "same workload must export byte-identical stats");
}

#[test]
fn enumerator_stats_are_deterministic() {
    let (a, b) = (enumerator_stats(), enumerator_stats());
    assert!(a.counter("search.enters.enumerator") > Some(0), "{a}");
    assert_eq!(a.deterministic_json(), b.deterministic_json());
}

#[test]
fn generator_stats_are_deterministic() {
    let (a, b) = (generator_stats(), generator_stats());
    assert!(a.counter("search.enters.generator") > Some(0), "{a}");
    assert_eq!(a.deterministic_json(), b.deterministic_json());
}

#[test]
fn arming_a_probe_never_changes_results() {
    let (lib, le, u, tys) = le_lib();
    let tuples = tuples_up_to(&u, &tys, 5);
    let unarmed: Vec<_> = tuples
        .iter()
        .map(|args| lib.check(le, 8, 8, args))
        .collect();
    let stats = SearchStats::new();
    let armed: Vec<_> = {
        let _probe = lib.arm_probe(ExecProbe::stats(&stats));
        tuples
            .iter()
            .map(|args| lib.check(le, 8, 8, args))
            .collect()
    };
    assert_eq!(unarmed, armed, "probes must be observation-only");
    assert!(stats.events() > 0, "the armed pass should have recorded");
    // Guard dropped: the library is unarmed again and records nothing.
    let before = stats.events();
    let _ = lib.check(le, 8, 8, &[Value::nat(1), Value::nat(2)]);
    assert_eq!(stats.events(), before);
}

#[test]
fn trace_probe_exports_named_json_lines() {
    let (lib, le, _, _) = le_lib();
    let trace = TraceProbe::new(64);
    {
        let _probe = lib.arm_probe(ExecProbe::trace(&trace));
        let _ = lib.check(le, 8, 8, &[Value::nat(1), Value::nat(2)]);
    }
    assert!(!trace.is_empty());
    let lines = trace.to_json_lines();
    assert!(lines.contains("\"event\":\"enter\""), "{lines}");
    assert!(lines.contains("\"rel\":\"le\""), "{lines}");
    assert!(lines.contains("\"rule\":\"le_n\""), "{lines}");
}

#[test]
fn chaos_run_report_renders_full_telemetry_block() {
    let (lib, le, _, _) = le_lib();
    let chaos = Chaos::new(0xC4A0).with_panic_rate(0.01);
    let run = || {
        // The wrappers are created once per run so the deterministic
        // fault schedule advances across tests.
        let mut prop = chaos.wrap_property(|args: &[Value]| {
            let (n, m) = (args[0].as_nat().unwrap(), args[1].as_nat().unwrap());
            TestOutcome::from_bool(lib.check(le, 40, 40, args) == Some(n <= m))
        });
        Runner::new(7).with_size(30).run_with(
            1000,
            chaos.wrap_gen(|size, rng| {
                let n = rand::Rng::gen_range(rng, 0..=size);
                let m = rand::Rng::gen_range(rng, 0..=size);
                Some(vec![Value::nat(n), Value::nat(m)])
            }),
            |args, labels| {
                let (n, m) = (args[0].as_nat().unwrap(), args[1].as_nat().unwrap());
                labels.classify(n <= m, "le");
                labels.classify(n > m, "gt");
                prop(args)
            },
        )
    };
    let (report, again) = {
        let _quiet = silence_panics();
        (run(), run())
    };
    assert!(report.crashed > 0, "1% fault injection over 1000 tests");
    // Snapshot: the whole telemetry block is deterministic (no
    // wall-clock anywhere in Display) and stable across runs.
    assert_eq!(report.to_string(), again.to_string());
    let expected = "\
+++ Passed 988 tests (0 discards) [12 crashed]
  crashed:   12 (first at test 19)
  discards:  0 of 1000 attempts (0.0%)
  stopped:   no (ran to completion)
  spent:     1000 steps, 0 backtracks
  labels:
     46.3% gt (457)
     53.7% le (531)
  input sizes: 0:2 1:4 2-3:8 4-7:27 8-15:94 16-31:406 32-63:459 (n=1000, mean 30.4, max 60)";
    assert_eq!(report.to_string(), expected);
}

#[test]
fn explain_describes_derived_instances() {
    let (lib, le, _, _) = le_lib();
    let text = lib.explain(le);
    assert!(text.contains("relation le"), "{text}");
    assert!(text.contains("checker"), "{text}");
    assert!(text.contains("le_n"), "{text}");
    assert!(text.contains("static step stats"), "{text}");
}

#[test]
fn explain_pairs_static_estimates_with_observed_premise_costs() {
    let (lib, le, u, tys) = le_lib();
    // Unarmed (or trace-only) sessions render no cost table.
    assert!(!lib.explain(le).contains("cost table"), "needs stats probe");
    let stats = SearchStats::new();
    let armed = {
        let _probe = lib.arm_probe(ExecProbe::stats(&stats));
        for args in tuples_up_to(&u, &tys, 5) {
            let _ = lib.check(le, 8, 8, &args);
        }
        lib.explain(le)
    };
    assert!(
        armed.contains("cost table (estimated vs observed"),
        "{armed}"
    );
    // The recursive premise of le_S was both estimated and observed.
    assert!(armed.contains("rec-check"), "{armed}");
    assert!(armed.contains("evals, mean"), "{armed}");
    // The explicit-stats form renders the same table unarmed.
    let explicit = lib.explain_with_stats(le, &stats);
    assert!(explicit.contains("cost table (estimated vs observed"));
    assert_eq!(
        armed, explicit,
        "armed and explicit-stats tables must agree"
    );
}

#[test]
fn explain_marks_never_attempted_premises() {
    let mut u = Universe::new();
    let mut env = RelEnv::new();
    parse_program(
        &mut u,
        &mut env,
        r"rel le : nat nat :=
          | le_n : forall n, le n n
          | le_S : forall n m, le n m -> le n (S m)
          .
          rel q : nat :=
          | qz : forall n, le n n -> q n
          | qs : forall n, le (S n) n -> q (S (S (S (S n))))
          .",
    )
    .unwrap();
    let q = env.rel_id("q").unwrap();
    let mut b = LibraryBuilder::new(u, env);
    b.derive_checker(q).unwrap();
    let lib = b.build();
    let stats = SearchStats::new();
    {
        let _probe = lib.arm_probe(ExecProbe::stats(&stats));
        // Only 0..=2: rule qs's conclusion (>= 4) never matches, so
        // its premise is estimated but never evaluated.
        for n in 0..3u64 {
            let _ = lib.check(q, 8, 8, &[Value::nat(n)]);
        }
    }
    let text = lib.explain_with_stats(q, &stats);
    assert!(
        text.contains("obs n/a (never attempted)"),
        "unattempted premises must say so explicitly, not render zeros:\n{text}"
    );
    assert!(
        text.contains("evals, mean"),
        "attempted premises still render observations:\n{text}"
    );
}

/// Serving fixture for the probe-parity tests: one frozen `even'` core.
fn serve_shared() -> (SharedLibrary, RelId) {
    let mut u = Universe::new();
    let mut env = RelEnv::new();
    parse_program(
        &mut u,
        &mut env,
        r"rel even' : nat :=
          | even_0  : even' 0
          | even_SS : forall n, even' n -> even' (S (S n))
          .",
    )
    .unwrap();
    let even = env.rel_id("even'").unwrap();
    let mut b = LibraryBuilder::new(u, env);
    b.derive_checker(even).unwrap();
    (b.build().shared(), even)
}

/// One serving run: warm the shared table to its fixpoint
/// single-threaded, optionally retire one shard, then serve the corpus
/// at `threads` workers (optionally with a `SearchStats` probe armed on
/// every session). Returns the per-request verdicts (corpus order), the
/// deterministic metrics JSON, and the events the probe recorded.
fn serve_run(
    threads: usize,
    armed: bool,
    poison: bool,
) -> (Vec<Result<Option<bool>, ExecError>>, String, u64) {
    let (shared, even) = serve_shared();
    let server = Server::new(shared, ServeConfig::default(), Budget::unlimited());
    let corpus: Vec<Vec<Value>> = (0..24u64).map(|n| vec![Value::nat(n)]).collect();
    // Warm to the memo fixpoint: after one pass every top-level entry
    // is cached, so the measured phase's hit/miss counts cannot depend
    // on thread interleaving (the second pass proves the fixpoint).
    let warm = server.session();
    warm.check_batch(even, 30, &corpus);
    warm.check_batch(even, 30, &corpus);
    if poison {
        server.memo().poison_shard(3);
        // Retire it deterministically before the measured phase.
        let mut fp = 0u64;
        while server.memo().shard_for(fp) != 3 {
            fp += 1;
        }
        assert_eq!(server.memo().lookup(even, fp, &[Value::nat(0)], 1, 1), None);
    }
    let stats = SearchStats::new();
    type Slot = std::sync::Mutex<Option<Result<Option<bool>, ExecError>>>;
    let results: Vec<Slot> = corpus.iter().map(|_| std::sync::Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for t in 0..threads {
            let (server, corpus, results, stats) = (&server, &corpus, &results, &stats);
            scope.spawn(move || {
                let session = server.session();
                let _probe = armed.then(|| session.library().arm_probe(ExecProbe::stats(stats)));
                for (i, args) in corpus.iter().enumerate() {
                    if i % threads == t {
                        let r = session.check_batch(even, 30, std::slice::from_ref(args));
                        *results[i].lock().unwrap() = Some(r.into_iter().next().unwrap());
                    }
                }
            });
        }
    });
    let verdicts = results
        .into_iter()
        .map(|slot| slot.into_inner().unwrap().expect("request served"))
        .collect();
    (
        verdicts,
        server.snapshot().deterministic_json(),
        stats.events(),
    )
}

/// Probe parity through the serving layer: arming a `SearchStats` on
/// every worker changes neither the verdicts nor one byte of the
/// deterministic counters, at 1, 2, and 4 workers — and the counters
/// themselves are identical across thread counts, with and without a
/// poison-retired shard in the mix.
#[test]
fn serving_layer_probe_parity_across_threads_and_poison() {
    let _quiet = silence_panics();
    for poison in [false, true] {
        let (base_verdicts, base_json, _) = serve_run(1, false, poison);
        for (i, v) in base_verdicts.iter().enumerate() {
            assert_eq!(v, &Ok(Some(i % 2 == 0)), "n={i} poison={poison}");
        }
        for threads in [1usize, 2, 4] {
            let (unarmed_v, unarmed_json, _) = serve_run(threads, false, poison);
            let (armed_v, armed_json, events) = serve_run(threads, true, poison);
            assert_eq!(unarmed_v, armed_v, "threads={threads} poison={poison}");
            assert_eq!(
                unarmed_json, armed_json,
                "arming must not move a deterministic counter \
                 (threads={threads} poison={poison})"
            );
            assert_eq!(unarmed_v, base_verdicts, "threads={threads}");
            assert_eq!(
                unarmed_json, base_json,
                "deterministic counters must be byte-identical across \
                 thread counts (threads={threads} poison={poison})"
            );
            assert!(events > 0, "the armed probe saw the search");
        }
    }
}

/// Every event kind a probe records: all of them come from the search.
const SEARCH_EVENTS: [&str; 8] = [
    "enter",
    "rule_attempt",
    "rule_success",
    "unify_fail",
    "backtrack",
    "term_produced",
    "index_skip",
    "premise",
];

/// A served session's trace holds only search events. What the request
/// layer does — a retry, a shed request, a completed one — is recorded
/// by the server's counters and by one flight-recorder span per
/// request, never by the probe.
#[test]
fn served_session_trace_holds_only_search_events() {
    let (shared, even) = serve_shared();
    let server = Server::new(
        shared,
        ServeConfig {
            max_inflight: 2,
            steps_per_request: 4,
            ..ServeConfig::default()
        },
        Budget::unlimited(),
    );
    let session = server.session();
    let trace = TraceProbe::new(1 << 12);
    let _probe = session.library().arm_probe(ExecProbe::trace(&trace));
    // About four steps cannot check even' 20, so the request retries.
    let retried = session.check_batch(even, 30, &[vec![Value::nat(20)]]);
    assert_eq!(retried, vec![Ok(Some(true))]);
    // With every admission slot held, the next request is shed.
    let held = [server.try_admit().unwrap(), server.try_admit().unwrap()];
    let shed = session.check_batch(even, 30, &[vec![Value::nat(4)]]);
    assert!(matches!(shed[0], Err(ExecError::Overloaded { .. })));
    drop(held);

    let lines = trace.to_json_lines();
    assert!(!lines.is_empty() && trace.dropped() == 0, "{trace}");
    for line in lines.lines() {
        let kind = line
            .split("\"event\":\"")
            .nth(1)
            .and_then(|rest| rest.split('"').next())
            .unwrap_or_else(|| panic!("no event kind: {line}"));
        assert!(SEARCH_EVENTS.contains(&kind), "not a search event: {line}");
    }

    let spans = session.recorder().spans();
    assert_eq!(spans.len(), 2, "one span per request: {spans:?}");
    assert_eq!(spans[0].outcome, RequestOutcome::True);
    assert!(spans[0].attempts >= 2, "{:?}", spans[0]);
    assert_eq!(spans[1].outcome, RequestOutcome::Shed);
    assert_eq!(spans[1].attempts, 0);
    let stats = server.stats();
    assert_eq!(stats.retries, u64::from(spans[0].attempts - 1));
    assert_eq!(stats.shed, 1);
}
