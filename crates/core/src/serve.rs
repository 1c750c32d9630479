//! Concurrent relation serving: a sharded process-wide verdict table
//! and a hardened request layer over it.
//!
//! The per-session [`MemoTable`](crate::memo) is deliberately
//! single-threaded (it owns an interner and lives behind a `RefCell`).
//! This module adds the concurrent counterpart for *serving* workloads —
//! many worker threads checking queries against one frozen
//! [`SharedLibrary`] core:
//!
//! * [`SharedMemo`] — a fingerprint-sharded verdict table
//!   (`RwLock`-per-shard, so concurrent readers never contend) with the
//!   same soundness guards as the local table: only decided verdicts,
//!   only under an intact meter, dominance-widening on insert, and
//!   structural confirmation of fingerprint matches. Fuel monotonicity
//!   (§5) is what makes *sharing* sound: a verdict decided by any
//!   session holds for every session at dominating fuels, so entries
//!   never need invalidating and a reader can never observe a stale
//!   answer — only a missing one.
//! * **Poison recovery** — a writer that panics inside a shard poisons
//!   only that shard's lock. The next access marks the shard *degraded*
//!   and from then on the shard answers every lookup with a miss and
//!   swallows every insert: callers transparently fall back to the
//!   unmemoized checker path, which is sound for the same monotonicity
//!   reason (the table is an accelerator, never an authority). The
//!   [`MemoStats::degraded_shards`] counter surfaces how much of the
//!   table has been retired.
//! * [`Server`] / [`Session`] — a request layer with admission control
//!   (bounded in-flight requests, shedding with
//!   [`ExecError::Overloaded`] instead of queueing), per-request step
//!   budgets drawn from a shared [`BudgetPool`], and bounded
//!   retry-with-backoff on budget exhaustion whose jitter is seeded
//!   purely from `(seed, request index)` — reports stay byte-identical
//!   across runs and any single request can be replayed exactly with
//!   [`Session::check_replay`].
//! * **Observability** — every request is booked three ways: into the
//!   server's [`MetricsRegistry`] (deterministic `serve.*` counters,
//!   one wall-clock `serve.latency_us` histogram, snapshot with
//!   [`Server::snapshot`]), as a wall-clock-free [`RequestSpan`] in the
//!   worker's bounded [`FlightRecorder`] ring (dumped on shard
//!   degradation or explicitly with [`Server::dump_flight_recorder`]),
//!   and — only when a probe is armed — as an
//!   [`Event::Request`](indrel_producers::Event) probe event, keeping
//!   the unarmed fast path cheap.
//!
//! # Example
//!
//! ```
//! use indrel_core::{serve::{ServeConfig, Server}, Budget, LibraryBuilder};
//! use indrel_rel::{parse::parse_program, RelEnv};
//! use indrel_term::{Universe, Value};
//!
//! let mut u = Universe::new();
//! let mut env = RelEnv::new();
//! parse_program(&mut u, &mut env, r"
//!     rel even' : nat :=
//!     | even_0  : even' 0
//!     | even_SS : forall n, even' n -> even' (S (S n))
//!     .
//! ").unwrap();
//! let even = env.rel_id("even'").unwrap();
//! let mut builder = LibraryBuilder::new(u, env);
//! builder.derive_checker(even).unwrap();
//! let server = Server::new(
//!     builder.build().shared(),
//!     ServeConfig::default(),
//!     Budget::unlimited(),
//! );
//! let session = server.session();
//! let batch: Vec<Vec<Value>> = (0..4u64).map(|n| vec![Value::nat(n)]).collect();
//! let verdicts = session.check_batch(even, 10, &batch);
//! assert_eq!(verdicts[2], Ok(Some(true)));
//! assert_eq!(verdicts[3], Ok(Some(false)));
//! ```

use crate::error::ExecError;
use crate::library::{Library, ReplanReport, SharedLibrary};
use crate::memo::{args_match, MemoStats};
use indrel_producers::probe::Event;
use indrel_producers::{
    json_escape, Budget, BudgetPool, Counter, Determinism, Log2Histogram, MetricsRegistry,
    MetricsSnapshot, RequestOutcome, SearchStats,
};
use indrel_term::{shard_of, FastHashBuilder, RelId, Value};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError, RwLock};
use std::time::{Duration, Instant};

// Everything the serving layer shares across worker threads must be
// thread-safe by construction, not by accident.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<SharedMemo>();
    assert_send_sync::<Server>();
    assert_send_sync::<Permit>();
};

/// One cached verdict, mirroring the local table's slot: the relation,
/// the canonical argument tuple that confirms fingerprint matches, and
/// the smallest fuels the verdict is known at.
struct Slot {
    rel: RelId,
    args: Box<[Value]>,
    size: u64,
    top: u64,
    verdict: bool,
}

/// One shard: a bucket map behind its own `RwLock`, plus the degraded
/// flag poison recovery flips.
struct Shard {
    buckets: RwLock<HashMap<u64, Vec<Slot>, FastHashBuilder>>,
    /// Entries in this shard; written only under the shard's write
    /// lock, read lock-free by [`SharedMemo::stats`].
    entries: AtomicUsize,
    /// Set once, on the first access that observes the lock poisoned.
    /// A degraded shard answers misses and swallows inserts forever.
    degraded: AtomicBool,
}

impl Default for Shard {
    fn default() -> Shard {
        Shard {
            buckets: RwLock::new(HashMap::default()),
            entries: AtomicUsize::new(0),
            degraded: AtomicBool::new(false),
        }
    }
}

/// The process-wide concurrent verdict table. See the module docs for
/// the sharing and degradation model; see [`crate::memo`] for the
/// monotonicity argument and the write guards (both tables enforce the
/// same ones — the caller in `run_checker_entry` gates on search cost
/// and meter intactness before calling [`SharedMemo::insert`]).
pub struct SharedMemo {
    shards: Box<[Shard]>,
    shard_capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    insertions: AtomicU64,
    none_skipped: AtomicU64,
    full_skipped: AtomicU64,
    degraded_shards: AtomicU64,
    /// Shard indices degraded since the last drain, for sessions to
    /// report as [`Event::ShardDegraded`] probe events (probes are
    /// session-local, so the table itself cannot emit).
    degraded_events: Mutex<Vec<u32>>,
}

impl std::fmt::Debug for SharedMemo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedMemo")
            .field("shards", &self.shards.len())
            .field("shard_capacity", &self.shard_capacity)
            .field("degraded", &self.degraded_count())
            .finish()
    }
}

impl SharedMemo {
    /// An empty table with `shards` shards (must be a power of two),
    /// each admitting at most `shard_capacity` verdicts. Once a shard
    /// is full it stops admitting — deterministically, no eviction —
    /// and keeps serving hits from what it has, like the local table.
    pub fn new(shards: usize, shard_capacity: usize) -> SharedMemo {
        assert!(
            shards.is_power_of_two(),
            "shard count must be a power of two, got {shards}"
        );
        SharedMemo {
            shards: (0..shards).map(|_| Shard::default()).collect(),
            shard_capacity,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            insertions: AtomicU64::new(0),
            none_skipped: AtomicU64::new(0),
            full_skipped: AtomicU64::new(0),
            degraded_shards: AtomicU64::new(0),
            degraded_events: Mutex::new(Vec::new()),
        }
    }

    /// The number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard a fingerprint maps to — exposed so chaos harnesses can
    /// poison the shard a particular query lives in.
    pub fn shard_for(&self, fp: u64) -> usize {
        shard_of(fp, self.shards.len())
    }

    /// Shards retired by poison recovery so far.
    pub fn degraded_count(&self) -> u64 {
        self.degraded_shards.load(Ordering::Relaxed)
    }

    /// Retires a shard: flips its degraded flag (once) and queues the
    /// probe event. Every later lookup in the shard is a miss and every
    /// insert a no-op, so the table degrades instead of propagating the
    /// panic that poisoned the lock.
    fn mark_degraded(&self, idx: usize) {
        if !self.shards[idx].degraded.swap(true, Ordering::Relaxed) {
            self.degraded_shards.fetch_add(1, Ordering::Relaxed);
            self.degraded_events
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .push(idx as u32);
        }
    }

    /// Shard indices degraded since the last call — the session layer
    /// drains this after each request and reports each as an
    /// [`Event::ShardDegraded`].
    pub fn drain_degraded_events(&self) -> Vec<u32> {
        std::mem::take(
            &mut *self
                .degraded_events
                .lock()
                .unwrap_or_else(PoisonError::into_inner),
        )
    }

    /// Looks up `(rel, args)` under its structural fingerprint for a
    /// query at fuels `(size, top)`. `None` is a miss — including every
    /// query routed to a degraded shard, which is the transparent
    /// fallback to the unmemoized search.
    pub fn lookup(&self, rel: RelId, fp: u64, args: &[Value], size: u64, top: u64) -> Option<bool> {
        let idx = self.shard_for(fp);
        let shard = &self.shards[idx];
        if shard.degraded.load(Ordering::Relaxed) {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        let guard = match shard.buckets.read() {
            Ok(g) => g,
            Err(_) => {
                // A writer panicked while holding this shard. Retire it
                // and fall back; the other shards keep serving.
                self.mark_degraded(idx);
                self.misses.fetch_add(1, Ordering::Relaxed);
                return None;
            }
        };
        if let Some(bucket) = guard.get(&fp) {
            for slot in bucket {
                if slot.rel == rel && args_match(&slot.args, args) {
                    if size >= slot.size && top >= slot.top {
                        self.hits.fetch_add(1, Ordering::Relaxed);
                        return Some(slot.verdict);
                    }
                    break;
                }
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        None
    }

    /// Records a decided verdict observed at fuels `(size, top)`,
    /// widening an existing entry in place when the new fuels dominate
    /// it (same rule as the local table). The caller must apply the
    /// write guards of [`crate::memo`]: never a `None`, never under an
    /// exhausted meter, never below the search-cost gate.
    pub fn insert(&self, rel: RelId, fp: u64, args: &[Value], size: u64, top: u64, verdict: bool) {
        let idx = self.shard_for(fp);
        let shard = &self.shards[idx];
        if shard.degraded.load(Ordering::Relaxed) {
            return;
        }
        let mut guard = match shard.buckets.write() {
            Ok(g) => g,
            Err(_) => {
                self.mark_degraded(idx);
                return;
            }
        };
        if let Some(bucket) = guard.get_mut(&fp) {
            for slot in bucket.iter_mut() {
                if slot.rel == rel && args_match(&slot.args, args) {
                    if size <= slot.size && top <= slot.top {
                        slot.size = size;
                        slot.top = top;
                        slot.verdict = verdict;
                        self.insertions.fetch_add(1, Ordering::Relaxed);
                    }
                    return;
                }
            }
        }
        if shard.entries.load(Ordering::Relaxed) < self.shard_capacity {
            guard.entry(fp).or_default().push(Slot {
                rel,
                args: args.to_vec().into_boxed_slice(),
                size,
                top,
                verdict,
            });
            shard.entries.fetch_add(1, Ordering::Relaxed);
            self.insertions.fetch_add(1, Ordering::Relaxed);
        } else {
            self.full_skipped.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Counts a `None` verdict refused at the write site (the
    /// monotonicity boundary, as in the local table).
    pub fn note_none_skipped(&self) {
        self.none_skipped.fetch_add(1, Ordering::Relaxed);
    }

    /// Snapshot of the table counters. `shed` and `retries` are request
    /// telemetry and stay zero here; [`Server::stats`] fills them in.
    pub fn stats(&self) -> MemoStats {
        MemoStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            insertions: self.insertions.load(Ordering::Relaxed),
            none_skipped: self.none_skipped.load(Ordering::Relaxed),
            full_skipped: self.full_skipped.load(Ordering::Relaxed),
            entries: self
                .shards
                .iter()
                .map(|s| s.entries.load(Ordering::Relaxed))
                .sum(),
            degraded_shards: self.degraded_count(),
            shed: 0,
            retries: 0,
        }
    }

    /// Chaos hook: poisons `shard`'s lock exactly the way a panicking
    /// writer would — by panicking while holding the write guard
    /// (caught here, so the caller keeps running). The shard is retired
    /// lazily, on its next access. Tests and the chaos harness use this
    /// to prove degraded shards never produce wrong verdicts.
    pub fn poison_shard(&self, shard: usize) {
        let lock = &self.shards[shard].buckets;
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = lock.write();
            panic!("injected shard poison");
        }));
    }
}

/// The completed-request record the serving layer keeps for every
/// request: the `(seed, index)` repro token, what was asked, how it
/// ended, and what it cost. Spans are deliberately wall-clock-free —
/// every field is deterministic for a given workload, so flight-
/// recorder dumps can be diffed across runs; latency lives only in the
/// server's `serve.latency_us` histogram, which is marked
/// [`Determinism::WallClock`] and excluded from byte-identity checks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RequestSpan {
    /// The retry seed the request ran under ([`ServeConfig::retry_seed`]
    /// for batch traffic).
    pub seed: u64,
    /// The request's index in its batch — with `seed`, the repro token
    /// [`Session::check_replay`] consumes.
    pub index: u64,
    /// The relation queried.
    pub rel: RelId,
    /// The fuel the query ran at.
    pub size: u64,
    /// How the request ended.
    pub outcome: RequestOutcome,
    /// Budget-escalation attempts consumed (1 = first try decided; 0
    /// for shed requests, which never reach the search).
    pub attempts: u32,
    /// Budget steps spent across all attempts.
    pub steps: u64,
    /// Shared-memo hits observed during the request.
    pub memo_hits: u64,
    /// Shared-memo misses observed during the request.
    pub memo_misses: u64,
}

impl RequestSpan {
    /// The span's fields as a JSON object body (no braces), so dumps
    /// can prefix a `"worker"` coordinate without re-serializing.
    fn fields(&self, rel_name: &str) -> String {
        format!(
            "\"seed\":{},\"index\":{},\"rel\":\"{}\",\"size\":{},\"outcome\":\"{}\",\
             \"attempts\":{},\"steps\":{},\"memo_hits\":{},\"memo_misses\":{}",
            self.seed,
            self.index,
            json_escape(rel_name),
            self.size,
            self.outcome.label(),
            self.attempts,
            self.steps,
            self.memo_hits,
            self.memo_misses,
        )
    }

    /// Renders the span as one JSON line (the flight-recorder dump
    /// format). All fields are deterministic; see the type docs.
    pub fn to_json_line(&self, rel_name: &str) -> String {
        format!("{{{}}}", self.fields(rel_name))
    }
}

/// A bounded ring of the last N completed [`RequestSpan`]s for one
/// worker session — the always-on flight recorder. Pushes are a short
/// uncontended critical section on the worker's own ring (the server
/// only locks it when rendering a dump), so recording stays cheap
/// enough to leave enabled in production. When the ring is full the
/// oldest span is dropped and counted.
pub struct FlightRecorder {
    capacity: usize,
    ring: Mutex<VecDeque<RequestSpan>>,
    dropped: AtomicU64,
}

impl std::fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlightRecorder")
            .field("capacity", &self.capacity)
            .field("len", &self.len())
            .field("dropped", &self.dropped.load(Ordering::Relaxed))
            .finish()
    }
}

impl FlightRecorder {
    /// An empty recorder holding at most `capacity` spans.
    pub fn new(capacity: usize) -> FlightRecorder {
        FlightRecorder {
            capacity,
            ring: Mutex::new(VecDeque::with_capacity(capacity)),
            dropped: AtomicU64::new(0),
        }
    }

    /// The ring's capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Spans currently held.
    pub fn len(&self) -> usize {
        self.ring
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    /// `true` when no spans are held.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Spans evicted to make room so far.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Records one completed span, evicting the oldest at capacity.
    pub fn push(&self, span: RequestSpan) {
        if self.capacity == 0 {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let mut ring = self.ring.lock().unwrap_or_else(PoisonError::into_inner);
        if ring.len() == self.capacity {
            ring.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        ring.push_back(span);
    }

    /// The held spans, oldest first.
    pub fn spans(&self) -> Vec<RequestSpan> {
        self.ring
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .copied()
            .collect()
    }
}

/// Tuning knobs for a [`Server`]. [`Default`] gives a small
/// general-purpose configuration; every field can be overridden with
/// struct-update syntax.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ServeConfig {
    /// Number of memo shards (power of two).
    pub shards: usize,
    /// Verdict capacity per shard.
    pub shard_capacity: usize,
    /// Admission cap: requests in flight beyond this are shed with
    /// [`ExecError::Overloaded`] instead of queued.
    pub max_inflight: usize,
    /// Base step allotment drawn from the shared pool per request
    /// attempt; doubled per retry.
    pub steps_per_request: u64,
    /// Per-attempt wall-clock deadline, if any.
    pub deadline: Option<Duration>,
    /// Retries after the first attempt exhausts its budget (0 disables
    /// retrying).
    pub max_retries: u32,
    /// Seed for the deterministic retry jitter; combined with the
    /// request index, it forms the `(seed, index)` repro token.
    pub retry_seed: u64,
    /// Completed [`RequestSpan`]s each worker's [`FlightRecorder`] ring
    /// retains (0 disables retention; spans are still counted).
    pub flight_recorder_capacity: usize,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            shards: 16,
            shard_capacity: crate::memo::DEFAULT_CAPACITY / 16,
            max_inflight: 64,
            steps_per_request: 50_000,
            deadline: None,
            max_retries: 2,
            retry_seed: 0,
            flight_recorder_capacity: 64,
        }
    }
}

/// Auto-dumps retained before new ones are discarded (each dump is a
/// bounded multi-line string; the cap keeps a flapping shard from
/// growing server memory without bound).
const MAX_AUTO_DUMPS: usize = 4;

/// The server's metrics: registry-registered counters for every
/// deterministic serving event, plus the one wall-clock series
/// (`serve.latency_us`). Request handling bumps the cached [`Arc`]
/// handles directly — the registry's lock is only taken at
/// registration and snapshot time.
struct Telemetry {
    registry: MetricsRegistry,
    requests: Arc<Counter>,
    outcome_true: Arc<Counter>,
    outcome_false: Arc<Counter>,
    outcome_unknown: Arc<Counter>,
    outcome_failed: Arc<Counter>,
    shed: Arc<Counter>,
    retries: Arc<Counter>,
    steps: Arc<Counter>,
    /// Checker entries that ran on the plan interpreter because their
    /// plan did not compile to bytecode.
    vm_fallback: Arc<Counter>,
    latency_us: Arc<Log2Histogram>,
    /// Profile-guided replan passes run through [`Session::replan_hot`].
    replans: Arc<Counter>,
    /// Relations recompiled into a different plan across those passes.
    relations_replanned: Arc<Counter>,
    /// Relations whose plans were reused (or reproduced unchanged).
    relations_kept: Arc<Counter>,
}

impl Telemetry {
    fn new() -> Telemetry {
        let registry = MetricsRegistry::new();
        let det = Determinism::Deterministic;
        Telemetry {
            requests: registry.counter("serve.requests", det),
            outcome_true: registry.counter("serve.requests.true", det),
            outcome_false: registry.counter("serve.requests.false", det),
            outcome_unknown: registry.counter("serve.requests.unknown", det),
            outcome_failed: registry.counter("serve.requests.failed", det),
            shed: registry.counter("serve.shed", det),
            retries: registry.counter("serve.retries", det),
            steps: registry.counter("serve.steps", det),
            vm_fallback: registry.counter("vm.fallback", det),
            latency_us: registry.histogram("serve.latency_us", Determinism::WallClock),
            replans: registry.counter("plan.replans", det),
            relations_replanned: registry.counter("plan.relations_replanned", det),
            relations_kept: registry.counter("plan.relations_kept", det),
            registry,
        }
    }

    /// The counter a finished request's outcome increments (shed
    /// requests count on `serve.shed`, mirroring [`MemoStats::shed`]).
    fn outcome(&self, outcome: RequestOutcome) -> &Counter {
        match outcome {
            RequestOutcome::True => &self.outcome_true,
            RequestOutcome::False => &self.outcome_false,
            RequestOutcome::Unknown => &self.outcome_unknown,
            RequestOutcome::Failed => &self.outcome_failed,
            RequestOutcome::Shed => &self.shed,
        }
    }
}

/// State shared between a [`Server`], its [`Session`]s, and outstanding
/// [`Permit`]s.
struct ServerState {
    memo: Arc<SharedMemo>,
    pool: BudgetPool,
    config: ServeConfig,
    inflight: AtomicUsize,
    tel: Telemetry,
    /// Relation names indexed by `RelId::index()`, snapshotted at
    /// construction so dumps can render names without a `Library`
    /// (sessions are not `Send`; the server is).
    rel_names: Vec<String>,
    /// Every session's flight recorder, in creation order — worker
    /// index in dumps is the position here.
    recorders: Mutex<Vec<Arc<FlightRecorder>>>,
    /// Flight dumps triggered automatically (shard degradation),
    /// bounded by [`MAX_AUTO_DUMPS`].
    auto_dumps: Mutex<Vec<String>>,
}

impl ServerState {
    /// The admission gate shared by [`Server::try_admit`] and every
    /// [`Session`] request.
    fn try_admit(self: &Arc<Self>) -> Result<Permit, ExecError> {
        let capacity = self.config.max_inflight;
        let mut cur = self.inflight.load(Ordering::Relaxed);
        loop {
            if cur >= capacity {
                self.tel.shed.inc();
                return Err(ExecError::Overloaded {
                    inflight: cur,
                    capacity,
                });
            }
            match self.inflight.compare_exchange_weak(
                cur,
                cur + 1,
                Ordering::AcqRel,
                Ordering::Relaxed,
            ) {
                Ok(_) => {
                    return Ok(Permit {
                        state: Arc::clone(self),
                    })
                }
                Err(seen) => cur = seen,
            }
        }
    }

    /// The name snapshot for `rel`, with the same fallback the probe
    /// name table uses for unknown ids.
    fn rel_name(&self, rel: RelId) -> String {
        self.rel_names
            .get(rel.index())
            .cloned()
            .unwrap_or_else(|| format!("rel#{}", rel.index()))
    }

    /// One JSON-lines dump of every registered flight recorder: a
    /// header object (`{"dump":"flight_recorder","reason":…}`), then
    /// each retained span with its worker coordinate, oldest first.
    fn render_flight_dump(&self, reason: &str) -> String {
        let recorders = self
            .recorders
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let mut out = format!(
            "{{\"dump\":\"flight_recorder\",\"reason\":\"{}\",\"workers\":{}}}\n",
            json_escape(reason),
            recorders.len()
        );
        for (worker, rec) in recorders.iter().enumerate() {
            for span in rec.spans() {
                out.push_str(&format!(
                    "{{\"worker\":{},{}}}\n",
                    worker,
                    span.fields(&self.rel_name(span.rel))
                ));
            }
        }
        out
    }

    /// Renders and retains an automatic dump (bounded; see
    /// [`MAX_AUTO_DUMPS`]).
    fn record_auto_dump(&self, reason: &str) {
        let mut dumps = self
            .auto_dumps
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if dumps.len() < MAX_AUTO_DUMPS {
            let rendered = self.render_flight_dump(reason);
            dumps.push(rendered);
        }
    }
}

/// A concurrent serving front-end over one frozen [`SharedLibrary`]
/// core: shared memo, shared budget pool, admission control. Worker
/// threads each call [`Server::session`] for their own single-threaded
/// [`Session`] and drive requests through it; the server itself is
/// `Send + Sync` and borrowed by all of them.
pub struct Server {
    shared: SharedLibrary,
    state: Arc<ServerState>,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("config", &self.state.config)
            .field("inflight", &self.state.inflight.load(Ordering::Relaxed))
            .finish()
    }
}

impl Server {
    /// A server over `shared`, with `budget` pooled across all requests
    /// (use [`Budget::unlimited`] for no global cap — per-request step
    /// allotments still apply).
    pub fn new(shared: SharedLibrary, config: ServeConfig, budget: Budget) -> Server {
        // Snapshot relation names up front: sessions (which own a
        // `Library`) are not `Send`, but the server and its dumps are.
        let rel_names: Vec<String> = {
            let lib = shared.fork();
            let mut names: Vec<(usize, String)> = lib
                .env()
                .iter()
                .map(|(id, r)| (id.index(), r.name().to_string()))
                .collect();
            names.sort_by_key(|(i, _)| *i);
            names.into_iter().map(|(_, n)| n).collect()
        };
        Server {
            shared,
            state: Arc::new(ServerState {
                memo: Arc::new(SharedMemo::new(config.shards, config.shard_capacity)),
                pool: BudgetPool::new(budget),
                config,
                inflight: AtomicUsize::new(0),
                tel: Telemetry::new(),
                rel_names,
                recorders: Mutex::new(Vec::new()),
                auto_dumps: Mutex::new(Vec::new()),
            }),
        }
    }

    /// The server's configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.state.config
    }

    /// The shared verdict table (e.g. to poison shards in tests).
    pub fn memo(&self) -> &Arc<SharedMemo> {
        &self.state.memo
    }

    /// The shared budget pool requests draw from.
    pub fn pool(&self) -> &BudgetPool {
        &self.state.pool
    }

    /// Admits one request or sheds it. Public so harnesses can occupy
    /// capacity deterministically: hold `max_inflight` permits and
    /// every further request is shed with [`ExecError::Overloaded`].
    ///
    /// # Errors
    ///
    /// [`ExecError::Overloaded`] when `max_inflight` requests already
    /// hold permits.
    pub fn try_admit(&self) -> Result<Permit, ExecError> {
        self.state.try_admit()
    }

    /// A fresh single-threaded session over the server's frozen core,
    /// with the shared memo attached and a flight recorder registered
    /// with the server. Each worker thread makes its own.
    pub fn session(&self) -> Session {
        let recorder = Arc::new(FlightRecorder::new(
            self.state.config.flight_recorder_capacity,
        ));
        self.state
            .recorders
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(Arc::clone(&recorder));
        let lib = self
            .shared
            .fork()
            .with_shared_memo(Arc::clone(&self.state.memo));
        Session {
            lib,
            state: Arc::clone(&self.state),
            recorder,
        }
    }

    /// Combined serving counters: the shared table's counters plus the
    /// request layer's `shed` and `retries`.
    pub fn stats(&self) -> MemoStats {
        MemoStats {
            shed: self.state.tel.shed.value(),
            retries: self.state.tel.retries.value(),
            ..self.state.memo.stats()
        }
    }

    /// The server's metrics registry, e.g. to register extra series
    /// next to the built-in `serve.*` ones.
    pub fn registry(&self) -> &MetricsRegistry {
        &self.state.tel.registry
    }

    /// One coherent metrics snapshot: every registry series plus the
    /// shared table's counters (`memo.*`) and the instantaneous gauges
    /// (`memo.entries`, `memo.degraded_shards`, `serve.inflight`) —
    /// all deterministic; the only wall-clock series is
    /// `serve.latency_us`. Render with
    /// [`MetricsSnapshot::to_json`] (schema `indrel.metrics/1`),
    /// [`MetricsSnapshot::deterministic_json`] (byte-comparable), or
    /// [`MetricsSnapshot::to_prometheus`].
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut snap = self.state.tel.registry.snapshot();
        let det = Determinism::Deterministic;
        let m = self.state.memo.stats();
        snap.insert_counter("memo.hits", m.hits, det);
        snap.insert_counter("memo.misses", m.misses, det);
        snap.insert_counter("memo.insertions", m.insertions, det);
        snap.insert_counter("memo.none_skipped", m.none_skipped, det);
        snap.insert_counter("memo.full_skipped", m.full_skipped, det);
        snap.insert_gauge("memo.entries", m.entries as u64, det);
        snap.insert_gauge("memo.degraded_shards", m.degraded_shards, det);
        snap.insert_gauge(
            "serve.inflight",
            self.state.inflight.load(Ordering::Relaxed) as u64,
            det,
        );
        snap
    }

    /// [`Server::snapshot`] extended with the per-rule attribution an
    /// armed [`SearchStats`] probe collected: for every attempted rule,
    /// `rule.<rel>.<i>.{attempts,successes,backtracks}` counters, and
    /// for every measured premise,
    /// `premise.<rel>.<i>.<step>.{evals,cost,failures}` — the same data
    /// [`Library::explain_with_stats`](crate::Library::explain_with_stats)
    /// tabulates.
    pub fn snapshot_with_stats(&self, stats: &SearchStats) -> MetricsSnapshot {
        let mut snap = self.snapshot();
        let det = Determinism::Deterministic;
        for (rel, rule, r) in stats.all_rule_stats() {
            let name = self.rel_name(rel);
            snap.insert_counter(&format!("rule.{name}.{rule}.attempts"), r.attempts, det);
            snap.insert_counter(&format!("rule.{name}.{rule}.successes"), r.successes, det);
            snap.insert_counter(&format!("rule.{name}.{rule}.backtracks"), r.backtracks, det);
        }
        for (rel, rule, step, p) in stats.all_premise_stats() {
            let name = self.rel_name(rel);
            snap.insert_counter(&format!("premise.{name}.{rule}.{step}.evals"), p.evals, det);
            snap.insert_counter(&format!("premise.{name}.{rule}.{step}.cost"), p.cost, det);
            snap.insert_counter(
                &format!("premise.{name}.{rule}.{step}.failures"),
                p.failures,
                det,
            );
        }
        snap
    }

    fn rel_name(&self, rel: RelId) -> String {
        self.state.rel_name(rel)
    }

    /// Renders every session's flight-recorder ring as a JSON-lines
    /// dump: one header object, then one span per line with its worker
    /// coordinate. All span fields are deterministic (see
    /// [`RequestSpan`]).
    pub fn dump_flight_recorder(&self) -> String {
        self.state.render_flight_dump("explicit")
    }

    /// Takes (and clears) the dumps triggered automatically by shard
    /// degradation. At most four are retained between calls.
    pub fn take_auto_dumps(&self) -> Vec<String> {
        std::mem::take(
            &mut *self
                .state
                .auto_dumps
                .lock()
                .unwrap_or_else(PoisonError::into_inner),
        )
    }
}

/// An admission slot, held for the duration of one request; dropping it
/// releases the slot. Returned by [`Server::try_admit`].
pub struct Permit {
    state: Arc<ServerState>,
}

impl Drop for Permit {
    fn drop(&mut self) {
        self.state.inflight.fetch_sub(1, Ordering::AcqRel);
    }
}

/// One worker's single-threaded view of a [`Server`]: a forked
/// [`Library`] session (own scratch pools, meter, probe) with the
/// shared memo attached. Not `Send` — make one per thread with
/// [`Server::session`].
pub struct Session {
    lib: Library,
    state: Arc<ServerState>,
    recorder: Arc<FlightRecorder>,
}

impl std::fmt::Debug for Session {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session").finish_non_exhaustive()
    }
}

impl Session {
    /// The underlying library session, e.g. to arm a probe on it
    /// ([`Library::arm_probe`]) or run enumerator traffic alongside
    /// checks.
    pub fn library(&self) -> &Library {
        &self.lib
    }

    /// This worker's flight recorder: the bounded ring of its last
    /// completed [`RequestSpan`]s, also reachable through the server's
    /// dumps.
    pub fn recorder(&self) -> &Arc<FlightRecorder> {
        &self.recorder
    }

    /// Hot-swaps this session onto a profile-guided replan of its core
    /// ([`Library::replan_from`]) without dropping any serving-layer
    /// attachment: the new session keeps the server's shared memo table
    /// (verdicts are fuel-monotone facts about the *relation*, so they
    /// stay valid across plan changes). Relations whose replanned plan
    /// no longer compiles to bytecode fall back to the plan interpreter
    /// per relation, exactly as in a fresh [`Server::session`].
    ///
    /// Only this session is swapped; other sessions keep their plans
    /// until they replan. Bumps the server's `plan.*` metrics
    /// (`plan.replans`, `plan.relations_replanned`,
    /// `plan.relations_kept`) and returns the [`ReplanReport`].
    pub fn replan_hot(&mut self, stats: &SearchStats) -> ReplanReport {
        let (lib, report) = self.lib.replan_from_report(stats);
        self.lib = lib.with_shared_memo(Arc::clone(&self.state.memo));
        let tel = &self.state.tel;
        tel.replans.inc();
        tel.relations_replanned.add(report.replanned.len() as u64);
        tel.relations_kept
            .add((report.kept.len() + report.unchanged.len()) as u64);
        report
    }

    /// Checks a batch of argument tuples against `rel` at fuel `size`,
    /// one verdict (or structured error) per tuple, in order.
    ///
    /// Per request: admission ([`ExecError::Overloaded`] when the
    /// server is at capacity — shed requests cost nothing and are not
    /// retried), then up to `1 + max_retries` attempts, each under a
    /// step allotment drawn from the shared pool (doubling per retry,
    /// plus deterministic jitter from `(retry_seed, index)`); unspent
    /// steps are returned to the pool. Instance and arity validation is
    /// amortized: resolved once for the batch, not per tuple.
    pub fn check_batch(
        &self,
        rel: RelId,
        size: u64,
        batch: &[Vec<Value>],
    ) -> Vec<Result<Option<bool>, ExecError>> {
        let mut out = Vec::with_capacity(batch.len());
        // Amortized validation: one instance lookup and arity check for
        // the whole batch (all tuples address the same checker).
        let precheck = self.lib.require_checker(rel).map(|_| ());
        let arity = self.lib.env().relation(rel).arity();
        for (index, args) in batch.iter().enumerate() {
            let r = match &precheck {
                Err(e) => Err(e.clone()),
                Ok(()) if args.len() != arity => {
                    Err(self.lib.require_count(rel, arity, args.len()).unwrap_err())
                }
                Ok(()) => self.check_one(rel, size, args, index as u64),
            };
            out.push(r);
            self.report_degraded(rel);
        }
        out
    }

    /// Replays one request exactly as [`Session::check_batch`] ran it:
    /// `(seed, index)` is the repro token — the same seed the server
    /// was configured with and the request's position in its batch —
    /// and determines the retry jitter, so the attempt-by-attempt
    /// budget escalation is byte-identical to the original run
    /// (assuming the same pool state; use an unlimited pool to isolate
    /// the request).
    pub fn check_replay(
        &self,
        rel: RelId,
        size: u64,
        args: &[Value],
        seed: u64,
        index: u64,
    ) -> Result<Option<bool>, ExecError> {
        self.lib.require_checker(rel)?;
        self.lib
            .require_count(rel, self.lib.env().relation(rel).arity(), args.len())?;
        let r = self.check_one_seeded(rel, size, args, seed, index);
        self.report_degraded(rel);
        r
    }

    /// One admitted, budgeted, retried request.
    fn check_one(
        &self,
        rel: RelId,
        size: u64,
        args: &[Value],
        index: u64,
    ) -> Result<Option<bool>, ExecError> {
        self.check_one_seeded(rel, size, args, self.state.config.retry_seed, index)
    }

    fn check_one_seeded(
        &self,
        rel: RelId,
        size: u64,
        args: &[Value],
        seed: u64,
        index: u64,
    ) -> Result<Option<bool>, ExecError> {
        let started = Instant::now();
        let _permit = match self.state.try_admit() {
            Ok(p) => p,
            Err(e) => {
                self.lib.probe(|| Event::Shed { rel });
                // `try_admit` already counted the shed; the span and
                // `serve.requests` still record the request itself.
                self.finish(
                    RequestSpan {
                        seed,
                        index,
                        rel,
                        size,
                        outcome: RequestOutcome::Shed,
                        attempts: 0,
                        steps: 0,
                        memo_hits: 0,
                        memo_misses: 0,
                    },
                    started,
                );
                return Err(e);
            }
        };
        let (hits_before, misses_before) = self.lib.shared_memo_counts();
        let fallbacks_before = self.lib.vm_fallback_count();
        let (result, attempts, steps) = self.run_attempts(rel, size, args, seed, index);
        let (hits_after, misses_after) = self.lib.shared_memo_counts();
        self.state
            .tel
            .vm_fallback
            .add(self.lib.vm_fallback_count() - fallbacks_before);
        let outcome = match &result {
            Ok(Some(true)) => RequestOutcome::True,
            Ok(Some(false)) => RequestOutcome::False,
            Ok(None) => RequestOutcome::Unknown,
            Err(_) => RequestOutcome::Failed,
        };
        self.finish(
            RequestSpan {
                seed,
                index,
                rel,
                size,
                outcome,
                attempts,
                steps,
                memo_hits: hits_after - hits_before,
                memo_misses: misses_after - misses_before,
            },
            started,
        );
        result
    }

    /// The budgeted retry loop: up to `1 + max_retries` attempts under
    /// escalating pool draws, returning the final result alongside the
    /// attempts consumed and the steps actually spent (both of which
    /// the request's span records).
    fn run_attempts(
        &self,
        rel: RelId,
        size: u64,
        args: &[Value],
        seed: u64,
        index: u64,
    ) -> (Result<Option<bool>, ExecError>, u32, u64) {
        let config = &self.state.config;
        let pool = &self.state.pool;
        // Step-based, wall-clock-free jitter: the stream depends only
        // on (seed, index), never on time or thread interleaving.
        let mut rng = SmallRng::seed_from_u64(seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let mut attempt = 0u32;
        let mut spent = 0u64;
        loop {
            // A dry or expired pool fails the request with its actual
            // exhaustion cause (check_deadline also returns false for
            // step exhaustion, so consult the cause directly).
            if !pool.check_deadline() {
                let e = pool
                    .exhaustion()
                    .map_or(ExecError::Deadline, ExecError::from);
                return (Err(e), attempt + 1, spent);
            }
            let base = config.steps_per_request << attempt.min(16);
            let jitter = rng.gen_range(0..=base / 4);
            let want = base + jitter;
            let got = pool.draw_steps(want);
            if got == 0 {
                // The shared pool is dry (and poisoned): report its
                // exhaustion rather than fabricating a verdict.
                let e = pool
                    .exhaustion()
                    .map_or(ExecError::Deadline, ExecError::from);
                return (Err(e), attempt + 1, spent);
            }
            let mut budget = Budget::unlimited().with_steps(got);
            if let Some(d) = config.deadline {
                budget = budget.with_deadline(d);
            }
            let (result, used) = self.lib.try_check_usage(rel, size, size, args, budget);
            pool.return_steps(got.saturating_sub(used));
            spent += used;
            match result {
                Err(ExecError::BudgetExhausted { .. }) if attempt < config.max_retries => {
                    attempt += 1;
                    self.state.tel.retries.inc();
                    self.lib.probe(|| Event::Retry { rel, attempt });
                }
                other => return (other, attempt + 1, spent),
            }
        }
    }

    /// Books one completed request everywhere it is observed: the
    /// deterministic registry counters, the wall-clock latency
    /// histogram, this worker's flight-recorder ring, and (when a probe
    /// is armed) an [`Event::Request`].
    fn finish(&self, span: RequestSpan, started: Instant) {
        let tel = &self.state.tel;
        tel.requests.inc();
        if span.outcome != RequestOutcome::Shed {
            // Shed requests were already counted on `serve.shed` by the
            // admission gate (which also serves bare `try_admit`).
            tel.outcome(span.outcome).inc();
        }
        tel.steps.add(span.steps);
        tel.latency_us
            .record(started.elapsed().as_micros().min(u64::MAX as u128) as u64);
        self.recorder.push(span);
        self.lib.probe(|| Event::Request {
            rel: span.rel,
            index: span.index,
            outcome: span.outcome,
            attempts: span.attempts,
            steps: span.steps,
        });
    }

    /// Drains shard-degradation notices from the shared table into this
    /// session's probe, and triggers an automatic flight-recorder dump
    /// for each batch of retirements.
    fn report_degraded(&self, _rel: RelId) {
        let shards = self.state.memo.drain_degraded_events();
        if shards.is_empty() {
            return;
        }
        for &shard in &shards {
            self.lib.probe(|| Event::ShardDegraded { shard });
        }
        let reason = format!(
            "shard_degraded:[{}]",
            shards
                .iter()
                .map(|s| s.to_string())
                .collect::<Vec<_>>()
                .join(",")
        );
        self.state.record_auto_dump(&reason);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::library::LibraryBuilder;
    use indrel_producers::{ExecProbe, SearchStats};
    use indrel_rel::parse::parse_program;
    use indrel_rel::RelEnv;
    use indrel_term::{CtorId, Universe};

    /// Keeps the injected `poison_shard` panics out of test output
    /// (other panics still print; `indrel_pbt` has the general version,
    /// but core cannot depend on it).
    fn silence_injected_panics() {
        use std::sync::Once;
        static ONCE: Once = Once::new();
        ONCE.call_once(|| {
            let prev = std::panic::take_hook();
            std::panic::set_hook(Box::new(move |info| {
                let injected = info
                    .payload()
                    .downcast_ref::<&str>()
                    .is_some_and(|m| m.contains("injected shard poison"));
                if !injected {
                    prev(info);
                }
            }));
        });
    }

    fn rel() -> RelId {
        RelId::new(0)
    }

    fn tree(n: u64) -> Value {
        Value::ctor(CtorId::new(1), vec![Value::nat(n)])
    }

    fn shared_even() -> (SharedLibrary, RelId) {
        let mut u = Universe::new();
        let mut env = RelEnv::new();
        parse_program(
            &mut u,
            &mut env,
            r"rel even' : nat :=
              | even_0 : even' 0
              | even_SS : forall n, even' n -> even' (S (S n))
              .",
        )
        .unwrap();
        let even = env.rel_id("even'").unwrap();
        let mut b = LibraryBuilder::new(u, env);
        b.derive_checker(even).unwrap();
        (b.build().shared(), even)
    }

    fn shared_twin() -> (SharedLibrary, RelId) {
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
        (b.build().shared(), twin)
    }

    #[test]
    fn miss_insert_hit_and_dominance() {
        let m = SharedMemo::new(8, 16);
        let args = [tree(3), Value::nat(7)];
        let fp = 0xDEAD_BEEF_u64;
        assert_eq!(m.lookup(rel(), fp, &args, 5, 5), None);
        m.insert(rel(), fp, &args, 5, 5, true);
        // Structurally equal but physically fresh args hit.
        let again = [tree(3), Value::nat(7)];
        assert_eq!(m.lookup(rel(), fp, &again, 5, 5), Some(true));
        assert_eq!(m.lookup(rel(), fp, &again, 9, 6), Some(true));
        // Dominated fuels do not answer.
        assert_eq!(m.lookup(rel(), fp, &again, 4, 5), None);
        // A dominating insert widens in place: one entry, two inserts.
        m.insert(rel(), fp, &args, 2, 2, true);
        assert_eq!(m.lookup(rel(), fp, &again, 2, 2), Some(true));
        let s = m.stats();
        assert_eq!(s.entries, 1);
        assert_eq!(s.insertions, 2);
        assert_eq!(s.hits, 3);
        assert_eq!(s.misses, 2);
        // Colliding fingerprints are confirmed structurally.
        let other = [tree(4), Value::nat(7)];
        assert_eq!(m.lookup(rel(), fp, &other, 9, 9), None);
    }

    #[test]
    fn shard_capacity_stops_admitting() {
        let m = SharedMemo::new(1, 2);
        for n in 0..4 {
            m.insert(rel(), n, &[tree(n)], 5, 5, true);
        }
        let s = m.stats();
        assert_eq!(s.entries, 2);
        assert_eq!(s.full_skipped, 2);
        assert_eq!(m.lookup(rel(), 0, &[tree(0)], 5, 5), Some(true));
    }

    #[test]
    fn poisoned_shard_degrades_and_the_rest_keep_serving() {
        silence_injected_panics();
        let m = SharedMemo::new(4, 16);
        // Two fingerprints in different shards.
        let (fp_a, mut fp_b) = (0u64, 1u64);
        while m.shard_for(fp_a) == m.shard_for(fp_b) {
            fp_b += 1;
        }
        m.insert(rel(), fp_a, &[tree(1)], 5, 5, true);
        m.insert(rel(), fp_b, &[tree(2)], 5, 5, false);
        m.poison_shard(m.shard_for(fp_a));
        // The poisoned shard answers misses (fallback), once marked.
        assert_eq!(m.lookup(rel(), fp_a, &[tree(1)], 5, 5), None);
        assert_eq!(m.degraded_count(), 1);
        // Inserts to it are swallowed; lookups stay misses.
        m.insert(rel(), fp_a, &[tree(9)], 5, 5, true);
        assert_eq!(m.lookup(rel(), fp_a, &[tree(9)], 5, 5), None);
        // The other shard is untouched.
        assert_eq!(m.lookup(rel(), fp_b, &[tree(2)], 5, 5), Some(false));
        assert_eq!(m.stats().degraded_shards, 1);
        assert_eq!(m.drain_degraded_events(), vec![m.shard_for(fp_a) as u32]);
        assert!(m.drain_degraded_events().is_empty(), "drain is one-shot");
    }

    #[test]
    fn admission_sheds_at_capacity_and_recovers() {
        let (shared, _) = shared_even();
        let server = Server::new(
            shared,
            ServeConfig {
                max_inflight: 2,
                ..ServeConfig::default()
            },
            Budget::unlimited(),
        );
        let p1 = server.try_admit().unwrap();
        let p2 = server.try_admit().unwrap();
        assert_eq!(
            server.try_admit().map(|_| ()),
            Err(ExecError::Overloaded {
                inflight: 2,
                capacity: 2
            })
        );
        drop(p1);
        let p3 = server.try_admit().unwrap();
        drop(p2);
        drop(p3);
        assert_eq!(server.stats().shed, 1);
    }

    #[test]
    fn batch_agrees_with_sequential_and_fills_the_shared_table() {
        let (shared, even) = shared_even();
        let server = Server::new(shared.clone(), ServeConfig::default(), Budget::unlimited());
        let session = server.session();
        let batch: Vec<Vec<Value>> = (0..20u64).map(|n| vec![Value::nat(n)]).collect();
        let got = session.check_batch(even, 30, &batch);
        let plain = shared.fork();
        for (n, r) in batch.iter().zip(&got) {
            assert_eq!(
                r,
                &plain.try_check(even, 30, 30, n, Budget::unlimited()),
                "args {n:?}"
            );
        }
        // The batch populated the shared table; a second session hits.
        assert!(server.stats().insertions > 0);
        let before = server.stats().hits;
        let session2 = server.session();
        session2.check_batch(even, 30, &batch);
        assert!(server.stats().hits > before, "second batch should hit");
    }

    #[test]
    fn batch_reports_arity_and_instance_errors_per_request() {
        let (shared, even) = shared_even();
        let server = Server::new(shared, ServeConfig::default(), Budget::unlimited());
        let session = server.session();
        let batch = vec![vec![Value::nat(2)], vec![Value::nat(2), Value::nat(3)]];
        let got = session.check_batch(even, 10, &batch);
        assert_eq!(got[0], Ok(Some(true)));
        assert!(matches!(got[1], Err(ExecError::ArityMismatch { .. })));
    }

    #[test]
    fn retries_escalate_deterministically_and_replay_matches() {
        let (shared, twin) = shared_twin();
        let config = ServeConfig {
            steps_per_request: 8,
            max_retries: 8,
            retry_seed: 42,
            ..ServeConfig::default()
        };
        let server = Server::new(shared, config, Budget::unlimited());
        let session = server.session();
        let stats = SearchStats::new();
        let args = vec![vec![Value::nat(6)]];
        let got = {
            let _probe = session.library().arm_probe(ExecProbe::stats(&stats));
            session.check_batch(twin, 10, &args)
        };
        // 8 steps cannot check twin 6 (2^6 leaves); retries escalated
        // until the doubled budget sufficed.
        assert_eq!(got[0], Ok(Some(true)));
        assert!(stats.retries() > 0, "tight first budget must retry");
        assert_eq!(server.stats().retries, stats.retries());
        // The (seed, index) token replays the same escalation path.
        let replay = session.check_replay(twin, 10, &args[0], 42, 0);
        assert_eq!(replay, got[0].clone());
        // Exhausting every retry surfaces the structured error.
        let starved = Server::new(
            shared_twin().0,
            ServeConfig {
                steps_per_request: 2,
                max_retries: 1,
                ..ServeConfig::default()
            },
            Budget::unlimited(),
        );
        let s = starved.session();
        let r = s.check_batch(shared_twin().1, 12, &[vec![Value::nat(10)]]);
        assert!(matches!(r[0], Err(ExecError::BudgetExhausted { .. })));
        assert_eq!(starved.stats().retries, 1);
    }

    #[test]
    fn pool_exhaustion_fails_requests_without_fabricating_verdicts() {
        let (shared, twin) = shared_twin();
        let server = Server::new(
            shared,
            ServeConfig {
                steps_per_request: 64,
                max_retries: 0,
                ..ServeConfig::default()
            },
            Budget::unlimited().with_steps(100),
        );
        let session = server.session();
        let batch: Vec<Vec<Value>> = (0..6u64).map(|_| vec![Value::nat(12)]).collect();
        let got = session.check_batch(twin, 20, &batch);
        // Every request fails structurally — the pool runs dry part way
        // through — and none reports a fabricated verdict.
        assert!(
            got.iter()
                .all(|r| matches!(r, Err(ExecError::BudgetExhausted { .. }))),
            "{got:?}"
        );
    }

    #[test]
    fn flight_recorder_rings_and_counts_drops() {
        let rec = FlightRecorder::new(3);
        assert!(rec.is_empty());
        for i in 0..5u64 {
            rec.push(RequestSpan {
                seed: 0,
                index: i,
                rel: rel(),
                size: 10,
                outcome: RequestOutcome::True,
                attempts: 1,
                steps: i,
                memo_hits: 0,
                memo_misses: 0,
            });
        }
        assert_eq!(rec.len(), 3);
        assert_eq!(rec.capacity(), 3);
        assert_eq!(rec.dropped(), 2);
        let kept: Vec<u64> = rec.spans().iter().map(|s| s.index).collect();
        assert_eq!(kept, vec![2, 3, 4], "oldest spans evicted first");
    }

    #[test]
    fn spans_and_metrics_record_every_request() {
        let (shared, even) = shared_even();
        let server = Server::new(shared, ServeConfig::default(), Budget::unlimited());
        let session = server.session();
        let batch: Vec<Vec<Value>> = (0..4u64).map(|n| vec![Value::nat(n)]).collect();
        let got = session.check_batch(even, 10, &batch);
        assert!(got.iter().all(|r| r.is_ok()));
        // The ring holds one deterministic span per request, in order.
        let spans = session.recorder().spans();
        assert_eq!(spans.len(), 4);
        for (i, span) in spans.iter().enumerate() {
            assert_eq!(span.index, i as u64);
            assert_eq!(span.rel, even);
            assert_eq!(span.attempts, 1);
            let want = if i % 2 == 0 {
                RequestOutcome::True
            } else {
                RequestOutcome::False
            };
            assert_eq!(span.outcome, want, "span {i}");
            assert!(span.steps > 0, "search work is attributed to the span");
        }
        // The registry agrees with the spans and with MemoStats.
        let snap = server.snapshot();
        assert_eq!(snap.counter("serve.requests"), Some(4));
        assert_eq!(snap.counter("serve.requests.true"), Some(2));
        assert_eq!(snap.counter("serve.requests.false"), Some(2));
        assert_eq!(snap.counter("serve.shed"), Some(0));
        assert_eq!(snap.counter("serve.retries"), Some(0));
        assert!(snap.counter("serve.steps").unwrap() > 0);
        let m = server.stats();
        assert_eq!(snap.counter("memo.hits"), Some(m.hits));
        assert_eq!(snap.counter("memo.misses"), Some(m.misses));
        assert_eq!(snap.gauge("memo.entries"), Some(m.entries as u64));
        // The explicit dump renders a header plus one line per span,
        // with the relation name resolved.
        let dump = server.dump_flight_recorder();
        let lines: Vec<&str> = dump.lines().collect();
        assert_eq!(lines.len(), 5);
        assert!(lines[0].contains("\"dump\":\"flight_recorder\""));
        assert!(lines[0].contains("\"reason\":\"explicit\""));
        assert!(lines[1].contains("\"worker\":0"));
        assert!(lines[1].contains("\"rel\":\"even'\""));
        assert!(lines[1].contains("\"outcome\":\"true\""));
    }

    #[test]
    fn shed_requests_span_without_double_counting() {
        let (shared, even) = shared_even();
        let server = Server::new(
            shared,
            ServeConfig {
                max_inflight: 1,
                ..ServeConfig::default()
            },
            Budget::unlimited(),
        );
        let session = server.session();
        let _hog = server.try_admit().unwrap();
        let got = session.check_batch(even, 10, &[vec![Value::nat(2)]]);
        assert!(matches!(got[0], Err(ExecError::Overloaded { .. })));
        let spans = session.recorder().spans();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].outcome, RequestOutcome::Shed);
        assert_eq!(spans[0].attempts, 0);
        assert_eq!(spans[0].steps, 0);
        let snap = server.snapshot();
        assert_eq!(snap.counter("serve.requests"), Some(1));
        assert_eq!(snap.counter("serve.shed"), Some(1), "admission counts once");
        assert_eq!(server.stats().shed, 1);
    }

    #[test]
    fn shard_degradation_triggers_an_automatic_flight_dump() {
        silence_injected_panics();
        let (shared, even) = shared_even();
        let server = Server::new(shared, ServeConfig::default(), Budget::unlimited());
        let session = server.session();
        session.check_batch(even, 10, &[vec![Value::nat(2)]]);
        assert!(server.take_auto_dumps().is_empty(), "no degradation yet");
        server.memo().poison_shard(5);
        // Degradation is noticed lazily, on the next access that routes
        // to the poisoned shard — force one with a matching fingerprint.
        let mut fp = 0u64;
        while server.memo().shard_for(fp) != 5 {
            fp += 1;
        }
        assert_eq!(server.memo().lookup(even, fp, &[Value::nat(0)], 5, 5), None);
        // The next request drains the retirement notice and auto-dumps.
        session.check_batch(even, 10, &[vec![Value::nat(4)]]);
        let dumps = server.take_auto_dumps();
        assert_eq!(dumps.len(), 1);
        assert!(dumps[0].contains("\"reason\":\"shard_degraded:[5]\""));
        assert!(dumps[0].contains("\"rel\":\"even'\""));
        assert!(server.take_auto_dumps().is_empty(), "take drains");
    }

    // Attribution needs the emission sites, which `no-probe` removes.
    #[cfg(not(feature = "no-probe"))]
    #[test]
    fn snapshot_with_stats_folds_in_rule_attribution() {
        let (shared, even) = shared_even();
        let server = Server::new(shared, ServeConfig::default(), Budget::unlimited());
        let session = server.session();
        let stats = SearchStats::new();
        {
            let _probe = session.library().arm_probe(ExecProbe::stats(&stats));
            session.check_batch(even, 10, &[vec![Value::nat(6)]]);
        }
        let snap = server.snapshot_with_stats(&stats);
        assert!(
            snap.counter("rule.even'.1.attempts").unwrap_or(0) > 0,
            "recursive rule attempted:\n{snap}"
        );
        assert!(
            snap.counter("premise.even'.1.0.evals").unwrap_or(0) > 0,
            "recursive premise attributed:\n{snap}"
        );
        // Request-level counters came along from the base snapshot.
        assert_eq!(snap.counter("serve.requests"), Some(1));
    }

    #[test]
    fn deterministic_json_is_identical_across_reruns() {
        let run = || {
            let (shared, even) = shared_even();
            let server = Server::new(shared, ServeConfig::default(), Budget::unlimited());
            let session = server.session();
            let batch: Vec<Vec<Value>> = (0..8u64).map(|n| vec![Value::nat(n)]).collect();
            session.check_batch(even, 12, &batch);
            server.snapshot().deterministic_json()
        };
        let a = run();
        assert_eq!(a, run(), "deterministic sections are byte-identical");
        assert!(!a.contains("latency"), "wall-clock series excluded");
    }

    #[test]
    fn concurrent_sessions_share_verdicts_and_poison_degrades_gracefully() {
        silence_injected_panics();
        let (shared, even) = shared_even();
        let server = Server::new(shared.clone(), ServeConfig::default(), Budget::unlimited());
        let batch: Vec<Vec<Value>> = (0..24u64).map(|n| vec![Value::nat(n)]).collect();
        std::thread::scope(|scope| {
            for t in 0..4 {
                let server = &server;
                let batch = &batch;
                scope.spawn(move || {
                    let session = server.session();
                    if t == 0 {
                        server.memo().poison_shard(3);
                    }
                    let got = session.check_batch(even, 30, batch);
                    for (n, r) in got.iter().enumerate() {
                        assert_eq!(r, &Ok(Some(n % 2 == 0)), "n={n}");
                    }
                });
            }
        });
        // The poisoned shard was (at most) retired; verdicts above were
        // all still correct vs the even/odd oracle.
        assert!(server.stats().degraded_shards <= 1);
    }
}
