//! Robustness of the concurrent serving layer (`indrel::core::serve`):
//! batches agree with sequential checks, admission control sheds
//! deterministically instead of queueing, retry schedules replay from
//! their `(seed, index)` token, and chaos-injected shard poisoning —
//! alone and under 2/4/8-thread mixed traffic — degrades the shared
//! memo without ever corrupting a verdict.

use indrel::bst::BST_SOURCE;
use indrel::pbt::chaos::{dump_on_panic, silence_panics, Chaos};
use indrel::prelude::*;
use indrel::producers::Outcome;
use std::time::{Duration, Instant};

/// One frozen core serving two workloads: `even'` (cheap, hit-friendly,
/// with an all-outputs enumerator for mixed traffic) and `twin` (an
/// exponential checker whose proofs have `2^n` leaves, for budget and
/// deadline pressure).
fn serve_core() -> (SharedLibrary, RelId, RelId) {
    let mut u = Universe::new();
    let mut env = RelEnv::new();
    parse_program(
        &mut u,
        &mut env,
        r"rel even' : nat :=
          | even_0  : even' 0
          | even_SS : forall n, even' n -> even' (S (S n))
          .
          rel twin : nat :=
          | t0 : twin 0
          | tS : forall n, twin n -> twin n -> twin (S n)
          .",
    )
    .unwrap();
    let even = env.rel_id("even'").unwrap();
    let twin = env.rel_id("twin").unwrap();
    let mut b = LibraryBuilder::new(u, env);
    b.derive_checker(even).unwrap();
    b.derive_checker(twin).unwrap();
    b.derive_producer(even, Mode::producer(1, &[0])).unwrap();
    (b.build().shared(), even, twin)
}

/// `check_batch` agrees tuple-for-tuple with sequential `try_check`
/// calls against a plain (serverless, memo-less) fork of the same core.
#[test]
fn batch_verdicts_match_sequential_checks() {
    let (shared, even, twin) = serve_core();
    let server = Server::new(shared.clone(), ServeConfig::default(), Budget::unlimited());
    let session = server.session();
    let plain = shared.fork();
    for (rel, fuel) in [(even, 30u64), (twin, 12u64)] {
        let batch: Vec<Vec<Value>> = (0..10u64).map(|n| vec![Value::nat(n)]).collect();
        let got = session.check_batch(rel, fuel, &batch);
        for (args, r) in batch.iter().zip(&got) {
            assert_eq!(
                r,
                &plain.try_check(rel, fuel, fuel, args, Budget::unlimited()),
                "{args:?} at fuel {fuel}"
            );
        }
    }
    assert!(server.stats().insertions > 0, "the batches fed the table");
}

/// Shedding is deterministic, not timing-dependent: occupy the whole
/// admission capacity with held permits and every request is refused
/// with the structured [`ExecError::Overloaded`]; release the permits
/// and the same batch succeeds. Overload never queues and never stalls.
#[test]
fn held_permits_shed_every_request_and_release_recovers() {
    let (shared, even, _) = serve_core();
    let server = Server::new(
        shared,
        ServeConfig {
            max_inflight: 3,
            ..ServeConfig::default()
        },
        Budget::unlimited(),
    );
    let session = server.session();
    let batch: Vec<Vec<Value>> = (0..5u64).map(|n| vec![Value::nat(n)]).collect();
    let permits: Vec<Permit> = (0..3).map(|_| server.try_admit().unwrap()).collect();
    let start = Instant::now();
    let shed = session.check_batch(even, 20, &batch);
    assert!(
        start.elapsed() < Duration::from_secs(1),
        "shedding must be immediate, not queued"
    );
    for r in &shed {
        assert_eq!(
            r,
            &Err(ExecError::Overloaded {
                inflight: 3,
                capacity: 3
            })
        );
    }
    assert_eq!(server.stats().shed, 5);
    drop(permits);
    let ok = session.check_batch(even, 20, &batch);
    for (n, r) in ok.iter().enumerate() {
        assert_eq!(r, &Ok(Some(n % 2 == 0)), "n={n}");
    }
    assert_eq!(server.stats().shed, 5, "recovery sheds nothing further");
}

/// The `(seed, index)` repro token: a request that had to retry inside
/// a batch replays attempt-for-attempt through [`Session::check_replay`],
/// and the server counts the retries.
#[test]
fn retry_schedule_replays_from_seed_and_index_token() {
    let (shared, _, twin) = serve_core();
    let server = Server::new(
        shared,
        ServeConfig {
            steps_per_request: 8,
            max_retries: 8,
            retry_seed: 0xA11CE,
            ..ServeConfig::default()
        },
        Budget::unlimited(),
    );
    let session = server.session();
    let batch: Vec<Vec<Value>> = (3..6u64).map(|n| vec![Value::nat(n)]).collect();
    let got = session.check_batch(twin, 10, &batch);
    for (n, r) in (3..6u64).zip(&got) {
        assert_eq!(r, &Ok(Some(true)), "twin {n}");
    }
    assert!(
        server.stats().retries > 0,
        "8 steps cannot check twin without retrying"
    );
    // Each request replays exactly from (retry_seed, its batch index).
    for (index, (args, want)) in batch.iter().zip(&got).enumerate() {
        let replay = session.check_replay(twin, 10, args, 0xA11CE, index as u64);
        assert_eq!(&replay, want, "index {index}");
    }
}

/// A full shard stops admitting, so what fills it decides what the
/// server can answer later. Only top-level requests are tabled: 48
/// distinct trees fit one 64-entry shard, however many `lt'`/`le'`
/// premise goals their searches cross, and every repeat hits.
#[test]
fn premise_goals_never_fill_a_shard() {
    let mut u = Universe::new();
    let mut env = RelEnv::new();
    parse_program(&mut u, &mut env, BST_SOURCE).unwrap();
    let bst = env.rel_id("bst").unwrap();
    let (leaf, node) = (u.ctor_id("Leaf").unwrap(), u.ctor_id("Node").unwrap());
    let mut b = LibraryBuilder::new(u, env);
    b.derive_checker(bst).unwrap();
    let shared = b.build().shared();
    // Three-node search trees over disjoint key intervals near 2³¹.
    let trees: Vec<Vec<Value>> = (0..48u64)
        .map(|i| {
            let lo = (1u64 << 31) + 64 * i;
            let leaf = || Value::ctor(leaf, vec![]);
            let node = |x: u64, l, r| Value::ctor(node, vec![Value::nat(lo + x), l, r]);
            let t = node(8, node(4, leaf(), leaf()), node(12, leaf(), leaf()));
            vec![Value::nat(lo), Value::nat(lo + 16), t]
        })
        .collect();
    let config = ServeConfig {
        shards: 1,
        shard_capacity: 64,
        ..ServeConfig::default()
    };
    let server = Server::new(shared, config, Budget::unlimited());
    let session = server.session();
    for pass in 0..2 {
        let got = session.check_batch(bst, 64, &trees);
        assert!(got.iter().all(|r| r == &Ok(Some(true))), "pass {pass}");
    }
    let s = server.stats();
    assert_eq!((s.misses, s.hits), (48, 48), "{s:?}");
    assert_eq!((s.entries, s.full_skipped), (48, 0), "{s:?}");
}

/// The 1%-shard-poison chaos run: a long sequential request stream
/// with `Chaos::rolls_shard_poison`-driven injection retires shards
/// mid-flight; every verdict stays correct against the even/odd oracle
/// and the surviving shards keep serving hits.
#[test]
fn one_percent_shard_poison_never_corrupts_verdicts() {
    let _quiet = silence_panics();
    let (shared, even, _) = serve_core();
    let server = Server::new(
        shared,
        ServeConfig {
            shards: 8,
            ..ServeConfig::default()
        },
        Budget::unlimited(),
    );
    let chaos = Chaos::new(0x505).with_shard_poison_rate(0.01);
    let session = server.session();
    let mut injected = 0u64;
    for round in 0..200u64 {
        for shard in 0..8u64 {
            if chaos.rolls_shard_poison(round * 8 + shard) {
                server.memo().poison_shard(shard as usize);
                injected += 1;
            }
        }
        let batch: Vec<Vec<Value>> = (0..12u64)
            .map(|n| vec![Value::nat((n + round) % 24)])
            .collect();
        for (args, r) in batch.iter().zip(session.check_batch(even, 30, &batch)) {
            let n = args[0].as_nat().unwrap();
            assert_eq!(r, Ok(Some(n % 2 == 0)), "round {round}, n {n}");
        }
    }
    let stats = server.stats();
    assert!(injected > 0, "the chaos seed must actually inject");
    assert!(
        stats.degraded_shards > 0,
        "injected poison must retire at least one shard: {stats}"
    );
    assert!(
        stats.degraded_shards < 8,
        "a 1% rate over 200 rounds must not retire the whole table: {stats}"
    );
    assert!(
        stats.hits > 0,
        "surviving shards keep serving hits: {stats}"
    );
}

/// Counter coherence and the automatic flight dump under shard
/// poisoning: the metrics snapshot's `memo.*`/`serve.*` series must
/// equal the [`MemoStats`] totals (one source of truth, two renderings),
/// and a poison-retired shard must leave behind an automatic
/// flight-recorder dump carrying the recent request spans.
#[test]
fn poison_coheres_counters_and_auto_dumps_the_flight_recorder() {
    let _quiet = silence_panics();
    let (shared, even, _) = serve_core();
    let server = Server::new(shared, ServeConfig::default(), Budget::unlimited());
    let session = server.session();
    let batch: Vec<Vec<Value>> = (0..16u64).map(|n| vec![Value::nat(n)]).collect();
    session.check_batch(even, 30, &batch);
    // Retire one shard deterministically (poison, then touch it).
    server.memo().poison_shard(2);
    let mut fp = 0u64;
    while server.memo().shard_for(fp) != 2 {
        fp += 1;
    }
    assert_eq!(server.memo().lookup(even, fp, &[Value::nat(0)], 1, 1), None);
    session.check_batch(even, 30, &batch);
    // Coherence: every shared counter appears identically in both the
    // MemoStats rendering and the metrics snapshot.
    let stats = server.stats();
    let snap = server.snapshot();
    assert_eq!(snap.counter("memo.hits"), Some(stats.hits));
    assert_eq!(snap.counter("memo.misses"), Some(stats.misses));
    assert_eq!(snap.counter("memo.insertions"), Some(stats.insertions));
    assert_eq!(snap.counter("serve.shed"), Some(stats.shed));
    assert_eq!(snap.counter("serve.retries"), Some(stats.retries));
    assert_eq!(snap.gauge("memo.entries"), Some(stats.entries as u64));
    assert_eq!(snap.gauge("memo.degraded_shards"), Some(1));
    assert_eq!(snap.counter("serve.requests"), Some(32));
    // The retirement auto-dumped the flight recorder, spans included.
    let dumps = server.take_auto_dumps();
    assert_eq!(dumps.len(), 1, "one retirement, one dump");
    assert!(dumps[0].contains("\"reason\":\"shard_degraded:[2]\""));
    assert!(dumps[0].contains("\"rel\":\"even'\""), "{}", dumps[0]);
    assert!(dumps[0].lines().count() > 1, "spans ride along");
}

/// One chaos round of mixed traffic at a given thread count. Returns
/// the server's final stats for cross-thread-count assertions.
///
/// Per thread and round: maybe poison a shard (keyed chaos roll, so the
/// schedule is deterministic and independent of interleaving), then
/// either a checker batch (even threads) or an enumerator sweep (odd
/// threads); deadline-storm rolls add an exponential `twin` query whose
/// only acceptable outcomes are the true verdict or a structured
/// cut-off. Thread 0 additionally forces one deterministic shed by
/// exhausting the admission capacity against itself.
fn chaos_round(threads: usize) -> MemoStats {
    let (shared, even, twin) = serve_core();
    let server = Server::new(
        shared,
        ServeConfig {
            shards: 4,
            shard_capacity: 1 << 10,
            max_inflight: 3,
            steps_per_request: 20_000,
            deadline: Some(Duration::from_millis(200)),
            max_retries: 1,
            retry_seed: 7,
            ..ServeConfig::default()
        },
        Budget::unlimited(),
    );
    let chaos = Chaos::new(0xC4A05)
        .with_shard_poison_rate(0.1)
        .with_deadline_storm_rate(0.2);
    // A failing chaos round dumps every worker's recent request spans
    // (repro tokens included) before the panic propagates.
    dump_on_panic(
        || server.dump_flight_recorder(),
        || {
            run_chaos_traffic(&server, &chaos, threads, even, twin);
        },
    );
    // Retirement is lazy (a poisoned shard is only retired on its next
    // access), and a poison rolled on a worker's final round can land
    // after every other worker has drained — leaving the shard
    // untouched and the degradation invisible. Sweep one probe through
    // every shard so late poisons still register before the
    // degradation assertions read the stats.
    for shard in 0..4usize {
        let mut fp = 0u64;
        while server.memo().shard_for(fp) != shard {
            fp += 1;
        }
        server.memo().lookup(even, fp, &[Value::nat(0)], 1, 1);
    }
    // Deterministic overload, after the workers drain (competing for
    // permits mid-run would race): hold the whole capacity, then
    // request — the request must shed, not stall.
    let session = server.session();
    let permits: Vec<Permit> = (0..3).map(|_| server.try_admit().unwrap()).collect();
    let r = session.check_batch(even, 20, &[vec![Value::nat(4)]]);
    assert!(
        matches!(r[0], Err(ExecError::Overloaded { .. })),
        "{:?}",
        r[0]
    );
    drop(permits);
    server.stats()
}

/// The worker threads of one [`chaos_round`], factored out so the
/// round can wrap them in [`dump_on_panic`].
fn run_chaos_traffic(server: &Server, chaos: &Chaos, threads: usize, even: RelId, twin: RelId) {
    std::thread::scope(|scope| {
        for t in 0..threads {
            let server = &server;
            let chaos = &chaos;
            scope.spawn(move || {
                let session = server.session();
                for round in 0..12u64 {
                    let key = ((t as u64) << 32) | round;
                    if chaos.rolls_shard_poison(key) {
                        server.memo().poison_shard((key % 4) as usize);
                    }
                    if t % 2 == 0 {
                        let batch: Vec<Vec<Value>> = (0..16u64)
                            .map(|n| vec![Value::nat((n + round) % 24)])
                            .collect();
                        let got = session.check_batch(even, 30, &batch);
                        for (args, r) in batch.iter().zip(&got) {
                            let n = args[0].as_nat().unwrap();
                            match r {
                                Ok(v) => assert_eq!(*v, Some(n % 2 == 0), "n={n}"),
                                // Shed under contention is acceptable;
                                // a wrong verdict never is.
                                Err(ExecError::Overloaded { .. }) => {}
                                Err(e) => panic!("unexpected error for n={n}: {e}"),
                            }
                        }
                    } else {
                        let mode = Mode::producer(1, &[0]);
                        let budget = Budget::unlimited().with_steps(5_000);
                        let mut stream = session
                            .library()
                            .try_enumerate(even, &mode, 12, 12, &[], budget)
                            .unwrap();
                        for o in &mut stream {
                            if let Outcome::Val(outs) = o {
                                assert_eq!(
                                    outs[0].as_nat().unwrap() % 2,
                                    0,
                                    "enumerator must only produce evens"
                                );
                            }
                        }
                    }
                    if chaos.rolls_deadline_storm(key) {
                        let r = session.check_batch(twin, 26, &[vec![Value::nat(22)]]);
                        match &r[0] {
                            Ok(v) => assert_eq!(*v, Some(true), "twin 22 holds at fuel 26"),
                            Err(
                                ExecError::Overloaded { .. }
                                | ExecError::BudgetExhausted { .. }
                                | ExecError::Deadline,
                            ) => {}
                            Err(e) => panic!("storm query failed structurally wrong: {e}"),
                        }
                    }
                }
            });
        }
    });
}

/// The chaos-under-concurrency acceptance run: 2, 4, and 8 worker
/// threads of mixed check/enumerate/storm traffic with shard poisoning.
/// Every round completes (no deadlock — bounded wall clock), no thread
/// ever observes a wrong verdict (asserted inside the workers), shard
/// degradation is observed but bounded, and overload sheds.
#[test]
fn chaos_under_concurrency_degrades_without_lying() {
    let _quiet = silence_panics();
    for threads in [2usize, 4, 8] {
        let start = Instant::now();
        let stats = chaos_round(threads);
        assert!(
            start.elapsed() < Duration::from_secs(60),
            "{threads} threads must not stall: took {:?}",
            start.elapsed()
        );
        assert!(
            stats.degraded_shards > 0,
            "{threads} threads: poison injection must retire a shard: {stats}"
        );
        assert!(
            stats.degraded_shards <= 4,
            "{threads} threads: degradation is bounded by the shard count: {stats}"
        );
        assert!(
            stats.shed >= 1,
            "{threads} threads: the forced overload must shed: {stats}"
        );
        assert!(
            stats.entries <= 4 * (1 << 10),
            "{threads} threads: capacity caps hold under concurrency: {stats}"
        );
    }
}
