//! The `serve-mixed` workload: a closed loop of `nproc` client threads
//! against one [`Server`], on the fully derived BST pipeline (`bst`
//! with derived `le'`/`lt'`).
//!
//! Each thread owns a [`Server::session`] and makes one `check_batch`
//! call per request. The seeded stream mixes *hot* requests, which
//! repeat a small pool of trees with keys in `(0, 16)`, and *cold*
//! requests: fresh trees over `(lo, lo + COLD_SPAN)` with `lo` spread
//! over `0..2^32`, so every cold request misses the shared table and
//! inserts. Requests are served in *epochs*: each epoch pre-generates
//! its requests, starts a fresh server, and times every request with
//! the benchmark's own clock. A fresh server per epoch keeps the
//! shared table below its capacity, so the cold path inserts for the
//! whole run.

use crate::report::Report;
use crate::stats::{ratio, Case};
use crate::trace::Tracer;
use crate::{mix, Args, Rung, Tally};
use indrel_bst::{Bst, BST_SOURCE};
use indrel_core::{
    Budget, Library, LibraryBuilder, ServeConfig, Server, SharedLibrary, SharedMemo,
};
use indrel_rel::parse::parse_program;
use indrel_rel::RelEnv;
use indrel_term::{CtorId, Interner, RelId, Universe, Value};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

const FUEL: u64 = 64;
/// Trees in the hot pool.
const HOT_TREES: usize = 256;
/// Hot keys lie in `(0, HOT_HI)`.
const HOT_HI: u64 = 16;
/// Target share of hot requests in the stream.
const HOT_SHARE: f64 = 0.9;
/// Width of a cold request's key interval. The derived `lt'` recurses
/// once per unit of key distance, so this must stay below `FUEL`.
const COLD_SPAN: u64 = 16;
/// Tree depth bound of every generated tree.
const DEPTH: u64 = 6;
/// Requests per client thread per epoch.
const EPOCH_REQUESTS: usize = 8192;
/// Requests in the traced run's layer-measurement sample.
const LAYER_REQUESTS: usize = 2048;

/// The fully derived BST pipeline: `bst` plus derived `le'`/`lt'`.
pub fn derived_bst() -> (Library, RelId, CtorId, CtorId) {
    let mut u = Universe::new();
    let mut env = RelEnv::new();
    parse_program(&mut u, &mut env, BST_SOURCE).expect("embedded source parses");
    let bst = env.rel_id("bst").expect("declared");
    let leaf = u.ctor_id("Leaf").expect("declared");
    let node = u.ctor_id("Node").expect("declared");
    let mut b = LibraryBuilder::new(u, env);
    b.derive_checker(bst).expect("bst checker derives");
    (b.build(), bst, leaf, node)
}

/// A random search tree with keys in the open interval `(lo, hi)`.
fn gen_tree(leaf: CtorId, node: CtorId, lo: u64, hi: u64, depth: u64, rng: &mut SmallRng) -> Value {
    if depth == 0 || hi <= lo + 1 || rng.gen_range(0..5u32) == 0 {
        return Value::ctor(leaf, vec![]);
    }
    let x = rng.gen_range(lo + 1..hi);
    Value::ctor(
        node,
        vec![
            Value::nat(x),
            gen_tree(leaf, node, lo, x, depth - 1, rng),
            gen_tree(leaf, node, x, hi, depth - 1, rng),
        ],
    )
}

/// One request: the checker's argument tuple, the handwritten verdict,
/// and whether it came from the hot pool.
#[derive(Clone)]
struct Request {
    args: Vec<Value>,
    want: bool,
    hot: bool,
}

/// The request generator: the hot pool plus the handwritten reference.
struct Stream {
    hot: Vec<Request>,
    leaf: CtorId,
    node: CtorId,
    reference: Bst,
}

impl Stream {
    fn new(seed: u64, leaf: CtorId, node: CtorId) -> Stream {
        // The case study's handwritten checker is the reference; its
        // universe declares the same source, so the ctor ids agree.
        let reference = Bst::new();
        assert!(
            reference.leaf() == Value::ctor(leaf, vec![]),
            "reference and served pipelines must share constructor ids"
        );
        let mut rng = SmallRng::seed_from_u64(mix(seed, 7, 0));
        let mut s = Stream {
            hot: Vec::new(),
            leaf,
            node,
            reference,
        };
        s.hot = (0..HOT_TREES)
            .map(|_| {
                let t = gen_tree(leaf, node, 0, HOT_HI, DEPTH, &mut rng);
                s.request(0, HOT_HI, t, true)
            })
            .collect();
        s
    }

    fn request(&self, lo: u64, hi: u64, t: Value, hot: bool) -> Request {
        Request {
            want: self.reference.handwritten_check(lo, hi, &t),
            args: vec![Value::nat(lo), Value::nat(hi), t],
            hot,
        }
    }

    /// `n` requests from the seeded stream.
    fn requests(&self, seed: u64, n: usize) -> Vec<Request> {
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                if rng.gen_bool(HOT_SHARE) {
                    self.hot[rng.gen_range(0..self.hot.len())].clone()
                } else {
                    let lo = rng.gen_range(0..u64::from(u32::MAX));
                    let hi = lo + COLD_SPAN;
                    let t = gen_tree(self.leaf, self.node, lo, hi, DEPTH, &mut rng);
                    self.request(lo, hi, t, false)
                }
            })
            .collect()
    }
}

/// What one client thread saw in one epoch.
struct ThreadRun {
    start: Instant,
    end: Instant,
    lat: Vec<u64>,
    /// Failed requests: `(wrong verdict, description)`.
    failures: Vec<(bool, String)>,
    tracer: Option<Tracer>,
}

/// Serves one epoch: a fresh server, one session per client thread,
/// one `check_batch` call per request. Every request is timed; the
/// latency of request `i` runs from its call to the next call (the
/// loop between them only compares the verdict).
fn epoch(
    shared: &SharedLibrary,
    rel: RelId,
    work: &[Vec<Request>],
    trace_epoch: Option<Instant>,
) -> (Server, Vec<ThreadRun>) {
    let server = Server::new(shared.clone(), ServeConfig::default(), Budget::unlimited());
    let barrier = Barrier::new(work.len());
    let runs = std::thread::scope(|scope| {
        let handles: Vec<_> = work
            .iter()
            .map(|reqs| {
                let (server, barrier) = (&server, &barrier);
                scope.spawn(move || {
                    let session = server.session();
                    let mut tracer = trace_epoch.map(Tracer::new);
                    let mut lat = Vec::with_capacity(reqs.len());
                    let mut failures = Vec::new();
                    barrier.wait();
                    let start = Instant::now();
                    let mut t = start;
                    for r in reqs {
                        let got = session.check_batch(rel, FUEL, std::slice::from_ref(&r.args));
                        let now = Instant::now();
                        lat.push((now - t).as_nanos() as u64);
                        if let Some(tr) = &mut tracer {
                            let epoch = trace_epoch.expect("tracer implies epoch");
                            let ns = |i: Instant| (i - epoch).as_nanos() as u64;
                            tr.span("serve.request", None, ns(t), ns(now));
                            tr.end_op();
                        }
                        t = now;
                        match &got[0] {
                            Ok(Some(b)) if *b == r.want => {}
                            Ok(Some(b)) => {
                                failures
                                    .push((true, format!("served {b}, handwritten {}", r.want)));
                            }
                            other => failures.push((false, format!("served {other:?}"))),
                        }
                    }
                    ThreadRun {
                        start,
                        end: t,
                        lat,
                        failures,
                        tracer,
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect::<Vec<_>>()
    });
    (server, runs)
}

/// The workload's set-up: derive the pipeline and start a server.
fn setup() -> (Library, RelId, CtorId, CtorId) {
    let (lib, rel, leaf, node) = derived_bst();
    drop(Server::new(
        lib.shared(),
        ServeConfig::default(),
        Budget::unlimited(),
    ));
    (lib, rel, leaf, node)
}

/// Serving counters summed over a run's epochs.
#[derive(Default)]
struct Totals {
    hits: u64,
    misses: u64,
    shed: u64,
    retries: u64,
    full_skipped: u64,
    steps: u64,
    requests: u64,
    hot: u64,
}

impl Totals {
    fn add(&mut self, server: &Server, work: &[Vec<Request>]) {
        let s = server.stats();
        self.hits += s.hits;
        self.misses += s.misses;
        self.shed += s.shed;
        self.retries += s.retries;
        self.full_skipped += s.full_skipped;
        let snap = server.snapshot();
        self.steps += snap.counter("serve.steps").unwrap_or(0);
        self.requests += snap.counter("serve.requests").unwrap_or(0);
        self.hot += work.iter().flatten().filter(|r| r.hot).count() as u64;
    }
}

/// Runs epochs until the deadline. Untraced, every epoch is a sample;
/// traced, epochs alternate between samples and traced epochs.
#[allow(clippy::too_many_arguments)]
fn serve_loop(
    args: &Args,
    rep: &mut Report,
    stream: &Stream,
    shared: &SharedLibrary,
    rel: RelId,
    threads: usize,
    case: &mut Case,
    traced_rates: &mut Vec<f64>,
    share: f64,
) -> (Totals, Tracer) {
    let mut totals = Totals::default();
    let trace_epoch = Instant::now();
    let mut tracer = Tracer::new(trace_epoch);
    // Warm-up epoch, unrecorded.
    let warm: Vec<Vec<Request>> = (0..threads)
        .map(|t| stream.requests(mix(args.seed, 100 + t as u64, u64::MAX), EPOCH_REQUESTS / 4))
        .collect();
    epoch(shared, rel, &warm, None);
    let deadline = args.deadline(share);
    let mut n = 0u64;
    while n < 2 || Instant::now() < deadline {
        let work: Vec<Vec<Request>> = (0..threads)
            .map(|t| stream.requests(mix(args.seed, 100 + t as u64, n), EPOCH_REQUESTS))
            .collect();
        let traced = args.trace && n % 2 == 1;
        let (server, runs) = epoch(shared, rel, &work, traced.then_some(trace_epoch));
        totals.add(&server, &work);
        let ops: u64 = work.iter().map(|w| w.len() as u64).sum();
        rep.attempt(ops);
        // All clients together: the sum of each client's rate over its
        // own busy time, so a client that finishes its share of the
        // epoch early does not count the other's tail as idle time.
        let rate: f64 = runs
            .iter()
            .map(|r| r.lat.len() as f64 / (r.end - r.start).as_secs_f64())
            .sum();
        let busy = Duration::from_secs_f64(ops as f64 / rate);
        let mut lat = Vec::with_capacity(ops as usize);
        for r in runs {
            for (wrong, what) in r.failures {
                rep.fail(wrong, || format!("serve-mixed: {what}"));
            }
            lat.extend(r.lat);
            if let Some(t) = r.tracer {
                tracer.merge(t);
            }
        }
        if traced {
            traced_rates.push(rate);
        } else {
            case.record_chunk(ops, busy, &mut lat);
        }
        drop(crate::setup_sample(rep, setup));
        n += 1;
    }
    (totals, tracer)
}

/// The `serve-mixed` workload.
pub fn mixed(args: &Args, rep: &mut Report) {
    let threads = std::thread::available_parallelism().map_or(2, |n| n.get());
    let (lib, rel, leaf, node) = crate::time_setup(rep, setup);
    let shared = lib.shared();
    let stream = Stream::new(args.seed, leaf, node);
    let mut case = Case::new("req_per_s", "req/s");
    let mut traced_rates = Vec::new();
    let share = if args.trace { 0.5 } else { 1.0 };
    let (totals, tracer) = serve_loop(
        args,
        rep,
        &stream,
        &shared,
        rel,
        threads,
        &mut case,
        &mut traced_rates,
        share,
    );
    rep.named.push(("req_p50_ns", case.p50_ns(), "ns"));
    rep.named.push(("req_p99_ns", case.p99_ns(), "ns"));
    let hit_ratio = ratio(totals.hits as f64, (totals.hits + totals.misses) as f64);
    rep.inputs.insert(
        "hot_share",
        ratio(totals.hot as f64, totals.requests as f64),
    );
    rep.inputs.insert("shared.hit_ratio", hit_ratio);
    rep.inputs.insert("client_threads", threads as f64);
    rep.inputs
        .insert("shared.full_skipped", totals.full_skipped as f64);
    for _ in 0..totals.shed {
        rep.fail(false, || "serve-mixed: request shed".into());
    }
    if args.trace {
        rep.layer("shared.hit_ratio", hit_ratio);
        rep.layer("serve.shed", totals.shed as f64);
        rep.layer("serve.retries", totals.retries as f64);
        rep.layer(
            "meter.steps_per_req",
            ratio(totals.steps as f64, totals.requests as f64),
        );
        rep.layer(
            "trace.overhead_pct",
            crate::overhead_pct(
                &[case.rate()],
                &[crate::stats::best_tenth(&traced_rates, true)],
            ),
        );
        rep.layer("vm.compiled_rels", crate::compiled_rels(&lib) as f64);
        rep.tracer = Some(tracer);
        let sample = stream.requests(mix(args.seed, 200, 0), LAYER_REQUESTS);
        ladder(rep, &shared, rel, &sample, args.deadline(0.5));
        crate::compile_layers(rep);
    }
    rep.cases.push(case);
}

/// The serve-mixed layer ladder over a sample of the request stream:
/// handwritten, interpreter, closures, VM, VM + meter, VM + shared
/// memo, full `check_batch`; plus the shared table's lookup and
/// insert, admission, and fingerprinting called directly.
fn ladder(
    rep: &mut Report,
    shared: &SharedLibrary,
    rel: RelId,
    sample: &[Request],
    deadline: Instant,
) {
    let reference = Bst::new();
    let config = ServeConfig::default();
    let plain = shared.fork();
    let vm = shared.fork().with_vm();
    let budget = Budget::unlimited().with_steps(config.steps_per_request);
    let fps: Vec<u64> = {
        let mut interner = Interner::new(1 << 20);
        sample
            .iter()
            .map(|r| tuple_fp(&mut interner, &r.args))
            .collect()
    };
    let tally = Tally::default();
    let each = |f: &dyn Fn(&Request) -> Option<bool>| {
        for r in sample {
            tally.check(f(r) == Some(r.want));
        }
        sample.len() as u64
    };
    let n = sample.len() as u64;
    let mut rungs: Vec<Rung<'_>> = vec![
        Box::new(|| {
            each(&|r| {
                let lo = r.args[0].as_nat().expect("nat");
                let hi = r.args[1].as_nat().expect("nat");
                Some(reference.handwritten_check(lo, hi, &r.args[2]))
            })
        }),
        Box::new(|| each(&|r| plain.check_interpreted(rel, FUEL, FUEL, &r.args))),
        Box::new(|| each(&|r| plain.check(rel, FUEL, FUEL, &r.args))),
        Box::new(|| each(&|r| vm.check(rel, FUEL, FUEL, &r.args))),
        Box::new(|| {
            each(&|r| {
                vm.try_check(rel, FUEL, FUEL, &r.args, budget)
                    .ok()
                    .flatten()
            })
        }),
        // A fresh table per round, as a fresh server per epoch: hot
        // trees hit after their first request, cold ones miss and
        // insert.
        Box::new(|| {
            let memo = Arc::new(SharedMemo::new(config.shards, config.shard_capacity));
            let lib = shared.fork().with_vm().with_shared_memo(memo);
            each(&|r| lib.check(rel, FUEL, FUEL, &r.args))
        }),
        Box::new(|| {
            let server = Server::new(shared.clone(), config, Budget::unlimited());
            let session = server.session();
            each(&|r| {
                session
                    .check_batch(rel, FUEL, std::slice::from_ref(&r.args))
                    .pop()
                    .and_then(Result::ok)
                    .flatten()
            })
        }),
        // Direct table calls: inserts into a fresh table, then lookups
        // of the same tuples (every one a hit).
        Box::new(|| {
            let memo = SharedMemo::new(config.shards, config.shard_capacity);
            for (r, fp) in sample.iter().zip(&fps) {
                memo.insert(rel, *fp, &r.args, FUEL, FUEL, r.want);
            }
            std::hint::black_box(&memo);
            n
        }),
    ];
    let ns = crate::time_rungs(deadline, &mut rungs);
    drop(rungs);
    // Lookups against a populated table, timed on their own.
    let memo = SharedMemo::new(config.shards, config.shard_capacity);
    for (r, fp) in sample.iter().zip(&fps) {
        memo.insert(rel, *fp, &r.args, FUEL, FUEL, r.want);
    }
    let mut lookups: Vec<Rung<'_>> = vec![
        Box::new(|| {
            for (r, fp) in sample.iter().zip(&fps) {
                tally.check(memo.lookup(rel, *fp, &r.args, FUEL, FUEL) == Some(r.want));
            }
            n
        }),
        Box::new(|| {
            let server = Server::new(shared.clone(), config, Budget::unlimited());
            for _ in 0..n {
                drop(std::hint::black_box(server.try_admit()));
            }
            n
        }),
    ];
    let direct = crate::time_rungs(Instant::now() + Duration::from_millis(200), &mut lookups);
    drop(lookups);
    rep.layer("hand.check_ns.bst", ns[0]);
    rep.layer("exec.interp_check_ns", ns[1]);
    rep.layer("lower.check_ns", ns[2]);
    rep.layer("vm.check_ns", ns[3]);
    rep.layer("meter.check_ns", ns[4] - ns[3]);
    rep.layer("shared.check_ns", ns[5]);
    rep.layer("serve.batch_ns", ns[6] - ns[5]);
    rep.layer("shared.insert_ns", ns[7]);
    rep.layer("shared.lookup_ns", direct[0]);
    rep.layer("serve.admit_ns", direct[1]);
    let (fp_ns, size) = term_costs(sample.iter().map(|r| r.args.as_slice()));
    rep.layer("term.fingerprint_ns", fp_ns);
    rep.layer("term.input_size", size);
    tally.report(rep, "serve-mixed layer ladder");
}

/// A structural fingerprint of an argument tuple from per-argument
/// [`Interner::fingerprint`]s.
fn tuple_fp(interner: &mut Interner, args: &[Value]) -> u64 {
    args.iter().fold(0xcbf2_9ce4_8422_2325, |h, a| {
        (h ^ interner.fingerprint(a)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Constructor and scalar nodes in `v`. Unlike [`Value::size`], which
/// counts a nat `n` as `n + 1` nodes (the paper's size measure), a nat
/// is one node here, as it is in memory.
fn nodes(v: &Value) -> u64 {
    match v.as_ctor() {
        Some((_, args)) => 1 + args.iter().map(nodes).sum::<u64>(),
        None => 1,
    }
}

/// `term.*` for a set of argument tuples: nanoseconds to fingerprint
/// one tuple with a fresh [`Interner`] per pass (repeated terms hit
/// its cache, as in a session), and the mean nodes per tuple.
pub fn term_costs<'v>(tuples: impl Iterator<Item = &'v [Value]> + Clone) -> (f64, f64) {
    let count = tuples.clone().count() as u64;
    let size: u64 = tuples
        .clone()
        .map(|t| t.iter().map(nodes).sum::<u64>())
        .sum();
    let mut rungs: Vec<Rung<'_>> = vec![Box::new(|| {
        let mut interner = Interner::new(1 << 20);
        let mut acc = 0u64;
        for t in tuples.clone() {
            acc ^= tuple_fp(&mut interner, t);
        }
        std::hint::black_box(acc);
        count
    })];
    let ns = crate::time_rungs(Instant::now() + Duration::from_millis(100), &mut rungs);
    (ns[0], ratio(size as f64, count as f64))
}
