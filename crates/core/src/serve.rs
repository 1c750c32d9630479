//! Concurrent relation serving: a hardened request layer over one
//! shared verdict table.
//!
//! Many worker threads check queries against one frozen
//! [`SharedLibrary`] core. Each thread drives its own single-threaded
//! [`Session`], and every session of a [`Server`] consults the same
//! sharded [`SharedMemo`] ([`crate::memo`] has the table, its
//! soundness argument, and its poison recovery). Fuel monotonicity
//! (§5) is what makes *sharing* sound: a verdict decided by any session
//! holds for every session at dominating fuels.
//!
//! * [`Server`] / [`Session`] — a request layer with admission control
//!   (bounded in-flight requests, shedding with
//!   [`ExecError::Overloaded`] instead of queueing), per-request step
//!   budgets drawn from a shared [`BudgetPool`], and bounded
//!   retry-with-backoff on budget exhaustion whose jitter is seeded
//!   purely from `(seed, request index)` — reports stay byte-identical
//!   across runs and any single request can be replayed exactly with
//!   [`Session::check_replay`].
//! * **Observability** — every request is booked twice, whether or not
//!   a probe is armed: into the server's [`MetricsRegistry`]
//!   (deterministic `serve.*` counters and the `memo.hits`/`memo.misses`
//!   its table lookups made, one wall-clock `serve.latency_ns`
//!   histogram, snapshot with [`Server::snapshot`]), and as a
//!   wall-clock-free [`RequestSpan`] in the worker's bounded
//!   [`FlightRecorder`] ring (dumped on shard degradation or explicitly
//!   with [`Server::dump_flight_recorder`]). A probe armed on a session
//!   ([`Library::arm_probe`]) records only the search its requests ran.
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
use crate::library::{CheckerImpl, Library, SharedLibrary};
use crate::memo::MemoStats;
pub use crate::memo::SharedMemo;
use indrel_producers::{
    json_escape, Budget, BudgetPool, Counter, Determinism, Log2Histogram, MetricsRegistry,
    MetricsSnapshot, NameTable, Resource, SearchStats,
};
use indrel_term::{RelId, Value};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

// Everything the serving layer shares across worker threads must be
// thread-safe by construction, not by accident.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Server>();
    assert_send_sync::<Permit>();
};

/// How a serving-layer request ended, as its [`RequestSpan`] records.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RequestOutcome {
    /// Decided: the relation holds.
    True,
    /// Decided: the relation does not hold.
    False,
    /// Undecided within fuel (`Ok(None)`).
    Unknown,
    /// Rejected by admission control before any search ran.
    Shed,
    /// Failed with a structured `ExecError`: rejected by validation
    /// (no checker instance, or the wrong number of arguments) before
    /// any search ran, or cut off after all retries.
    Failed,
}

impl RequestOutcome {
    /// Lower-case label, used in output.
    pub fn label(self) -> &'static str {
        match self {
            RequestOutcome::True => "true",
            RequestOutcome::False => "false",
            RequestOutcome::Unknown => "unknown",
            RequestOutcome::Shed => "shed",
            RequestOutcome::Failed => "failed",
        }
    }
}

impl std::fmt::Display for RequestOutcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// The completed-request record the serving layer keeps for every
/// request: the `(seed, index)` repro token, what was asked, how it
/// ended, and what it cost. Spans are deliberately wall-clock-free —
/// every field is deterministic for a given workload, so flight-
/// recorder dumps can be diffed across runs; latency lives only in the
/// server's `serve.latency_ns` histogram, which is marked
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
    /// for shed requests and requests that failed validation, which
    /// never reach the search).
    pub attempts: u32,
    /// Budget steps spent across all attempts.
    pub steps: u64,
    /// Table lookups the request answered from the shared memo.
    pub memo_hits: u64,
    /// Top-level checks the request made that the table did not
    /// answer: lookups that fell through to the search, and calls on
    /// untabled tuples (see [`crate::memo`]).
    pub memo_misses: u64,
}

impl RequestSpan {
    /// The span's fields as a JSON object body (no braces), which a
    /// flight-recorder dump line prefixes with a `"worker"` coordinate.
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
    /// Verdict capacity per shard, in top-level tuples: only a
    /// request's own check is tabled, never its premise calls
    /// ([`crate::memo`]).
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
/// (`serve.latency_ns`). Request handling bumps the cached [`Arc`]
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
    /// Table lookups made by requests, summed from their spans: the
    /// table itself does not count lookups (see [`crate::memo`]).
    memo_hits: Arc<Counter>,
    memo_misses: Arc<Counter>,
    latency_ns: Arc<Log2Histogram>,
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
            memo_hits: registry.counter("memo.hits", det),
            memo_misses: registry.counter("memo.misses", det),
            latency_ns: registry.histogram("serve.latency_ns", Determinism::WallClock),
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

/// The admission count, on a cache line of its own: every request
/// updates it twice from its worker's thread, while the table, pool and
/// metric handles beside it in [`ServerState`] are read by every
/// request on every thread.
#[repr(align(64))]
struct Inflight(AtomicUsize);

/// State shared between a [`Server`], its [`Session`]s, and outstanding
/// [`Permit`]s.
struct ServerState {
    memo: Arc<SharedMemo>,
    pool: BudgetPool,
    /// The server budget's argument cap, which each request's own
    /// meter applies (the pool meters steps and the deadline only).
    max_term_size: Option<u64>,
    config: ServeConfig,
    inflight: Inflight,
    tel: Telemetry,
    /// The core's probe names, snapshotted at construction so dumps can
    /// render names without a `Library` (sessions are not `Send`; the
    /// server is).
    names: NameTable,
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
        let mut cur = self.inflight.0.load(Ordering::Relaxed);
        loop {
            if cur >= capacity {
                self.tel.shed.inc();
                return Err(ExecError::Overloaded {
                    inflight: cur,
                    capacity,
                });
            }
            match self.inflight.0.compare_exchange_weak(
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
                    span.fields(&self.names.rel(span.rel))
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
            .field("inflight", &self.state.inflight.0.load(Ordering::Relaxed))
            .finish()
    }
}

impl Server {
    /// A server over `shared` under `budget`. Its `steps` and
    /// `deadline` are metered across all requests by the shared
    /// [`BudgetPool`] each request draws its step allotments from (use
    /// [`Budget::unlimited`] for no global cap — per-request allotments
    /// still apply); its `max_term_size` caps the arguments of each
    /// request, as it does for [`Library::try_check`]. The serving
    /// layer does not meter backtracks, so `budget.backtracks` is
    /// ignored.
    pub fn new(shared: SharedLibrary, config: ServeConfig, budget: Budget) -> Server {
        // Snapshot names up front: sessions (which own a `Library`) are
        // not `Send`, but the server and its dumps are.
        let names = shared.fork().probe_names();
        Server {
            shared,
            state: Arc::new(ServerState {
                memo: Arc::new(SharedMemo::new(config.shards, config.shard_capacity)),
                pool: BudgetPool::new(budget),
                max_term_size: budget.max_term_size,
                config,
                inflight: Inflight(AtomicUsize::new(0)),
                tel: Telemetry::new(),
                names,
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

    /// Combined serving counters: the shared table's counters, the
    /// `hits` and `misses` of the lookups requests made (summed from
    /// their [`RequestSpan`]s), and the request layer's `shed` and
    /// `retries`. Lookups made outside a request — a direct
    /// [`Library::check`] on a session's library, or a direct
    /// [`SharedMemo::lookup`] — are not counted here.
    pub fn stats(&self) -> MemoStats {
        let tel = &self.state.tel;
        MemoStats {
            hits: tel.memo_hits.value(),
            misses: tel.memo_misses.value(),
            shed: tel.shed.value(),
            retries: tel.retries.value(),
            ..self.state.memo.stats()
        }
    }

    /// The server's metrics registry, e.g. to register extra series
    /// next to the built-in `serve.*` ones.
    pub fn registry(&self) -> &MetricsRegistry {
        &self.state.tel.registry
    }

    /// One coherent metrics snapshot: every registry series (request
    /// lookups included as `memo.hits`/`memo.misses`) plus the shared
    /// table's counters (`memo.*`) and the instantaneous gauges
    /// (`memo.entries`, `memo.degraded_shards`, `serve.inflight`) —
    /// all deterministic; the only wall-clock series is
    /// `serve.latency_ns`. Render with
    /// [`MetricsSnapshot::to_json`] (schema `indrel.metrics/1`),
    /// [`MetricsSnapshot::deterministic_json`] (byte-comparable), or
    /// [`MetricsSnapshot::to_prometheus`].
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut snap = self.state.tel.registry.snapshot();
        let det = Determinism::Deterministic;
        let m = self.state.memo.stats();
        snap.insert_counter("memo.insertions", m.insertions, det);
        snap.insert_counter("memo.none_skipped", m.none_skipped, det);
        snap.insert_counter("memo.full_skipped", m.full_skipped, det);
        snap.insert_gauge("memo.entries", m.entries as u64, det);
        snap.insert_gauge("memo.degraded_shards", m.degraded_shards, det);
        snap.insert_gauge(
            "serve.inflight",
            self.state.inflight.0.load(Ordering::Relaxed) as u64,
            det,
        );
        snap
    }

    /// [`Server::snapshot`] plus every series of
    /// [`SearchStats::snapshot`]: the `search.*` totals and histograms,
    /// and the per-rule (`rule.*`), per-premise (`premise.*`) and
    /// unification-failure (`unify_fail.*`) attribution an armed probe
    /// collected — the data
    /// [`Library::explain_with_stats`](crate::Library::explain_with_stats)
    /// tabulates. Relations are named by the stats' own name table,
    /// which [`Library::arm_probe`] installs.
    pub fn snapshot_with_stats(&self, stats: &SearchStats) -> MetricsSnapshot {
        let mut snap = self.snapshot();
        snap.extend(stats.snapshot());
        snap
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
        self.state.inflight.0.fetch_sub(1, Ordering::AcqRel);
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

    /// Checks a batch of argument tuples against `rel` at fuel `size`,
    /// one verdict (or structured error) per tuple, in order.
    ///
    /// Per request: validation ([`ExecError::NoInstance`] when `rel`
    /// has no checker, [`ExecError::ArityMismatch`] for a tuple of the
    /// wrong length), admission ([`ExecError::Overloaded`] when the
    /// server is at capacity — shed requests cost nothing and are not
    /// retried), then up to `1 + max_retries` attempts, each under a
    /// step allotment drawn from the shared pool (doubling per retry,
    /// plus deterministic jitter from `(retry_seed, index)`) and the
    /// server budget's `max_term_size`; unspent steps are returned to
    /// the pool. Only a step cut-off is retried. Every request, a
    /// malformed one included, is booked once in the metrics and the
    /// flight recorder.
    pub fn check_batch(
        &self,
        rel: RelId,
        size: u64,
        batch: &[Vec<Value>],
    ) -> Vec<Result<Option<bool>, ExecError>> {
        let seed = self.state.config.retry_seed;
        (0..)
            .zip(batch)
            .map(|(index, args)| self.check_replay(rel, size, args, seed, index))
            .collect()
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
        let r = self.check_one(rel, size, args, seed, index);
        self.report_degraded();
        r
    }

    /// One validated, admitted, budgeted, retried request of `rel`'s
    /// checker under the repro token `(seed, index)`, booked once
    /// however it ends.
    fn check_one(
        &self,
        rel: RelId,
        size: u64,
        args: &[Value],
        seed: u64,
        index: u64,
    ) -> Result<Option<bool>, ExecError> {
        let started = Instant::now();
        let unrun = |outcome| RequestSpan {
            seed,
            index,
            rel,
            size,
            outcome,
            attempts: 0,
            steps: 0,
            memo_hits: 0,
            memo_misses: 0,
        };
        // A malformed request fails before it takes a permit.
        let arity = self.lib.env().relation(rel).arity();
        let validated = self
            .lib
            .require_checker(rel)
            .and_then(|imp| self.lib.require_count(rel, arity, args.len()).map(|()| imp));
        let imp = match validated {
            Ok(imp) => imp,
            Err(e) => {
                self.finish(unrun(RequestOutcome::Failed), started);
                return Err(e);
            }
        };
        let _permit = match self.state.try_admit() {
            Ok(p) => p,
            Err(e) => {
                // `try_admit` already counted the shed; the span and
                // `serve.requests` still record the request itself.
                self.finish(unrun(RequestOutcome::Shed), started);
                return Err(e);
            }
        };
        let (hits_before, misses_before) = self.lib.shared_memo_counts();
        let (result, attempts, steps) = self.run_attempts(rel, imp, size, args, seed, index);
        let (hits_after, misses_after) = self.lib.shared_memo_counts();
        let outcome = match &result {
            Ok(Some(true)) => RequestOutcome::True,
            Ok(Some(false)) => RequestOutcome::False,
            Ok(None) => RequestOutcome::Unknown,
            Err(_) => RequestOutcome::Failed,
        };
        self.finish(
            RequestSpan {
                attempts,
                steps,
                memo_hits: hits_after - hits_before,
                memo_misses: misses_after - misses_before,
                ..unrun(outcome)
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
        imp: &CheckerImpl,
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
            let budget = Budget {
                steps: Some(got),
                deadline: config.deadline,
                max_term_size: self.state.max_term_size,
                ..Budget::unlimited()
            };
            let (result, used) = self.lib.metered(budget, args, || {
                self.lib.run_checker_impl(rel, imp, size, size, args)
            });
            pool.return_steps(got.saturating_sub(used));
            spent += used;
            match result {
                // Steps are the only resource a retry raises, so only a
                // step cut-off is worth another attempt.
                Err(ExecError::BudgetExhausted {
                    resource: Resource::Steps,
                }) if attempt < config.max_retries => {
                    attempt += 1;
                    self.state.tel.retries.inc();
                }
                other => return (other, attempt + 1, spent),
            }
        }
    }

    /// Books one completed request in both of its records: the
    /// registry (the deterministic counters, its memo lookups included,
    /// and the wall-clock latency histogram) and this worker's
    /// flight-recorder ring.
    fn finish(&self, span: RequestSpan, started: Instant) {
        let tel = &self.state.tel;
        tel.requests.inc();
        if span.outcome != RequestOutcome::Shed {
            // Shed requests were already counted on `serve.shed` by the
            // admission gate (which also serves bare `try_admit`).
            tel.outcome(span.outcome).inc();
        }
        tel.steps.add(span.steps);
        tel.memo_hits.add(span.memo_hits);
        tel.memo_misses.add(span.memo_misses);
        tel.latency_ns
            .record(started.elapsed().as_nanos().min(u64::MAX as u128) as u64);
        self.recorder.push(span);
    }

    /// Drains shard-retirement notices from the shared table and
    /// triggers an automatic flight-recorder dump for each batch of
    /// retirements, its reason naming the retired shards.
    fn report_degraded(&self) {
        let shards = self.state.memo.drain_degraded_events();
        if shards.is_empty() {
            return;
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
    use crate::memo::tests::silence_injected_panics;
    use indrel_producers::{ExecProbe, SearchStats};
    use indrel_rel::parse::parse_program;
    use indrel_rel::RelEnv;
    use indrel_term::Universe;

    fn rel() -> RelId {
        RelId::new(0)
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
    fn with_memo_cannot_detach_a_served_session() {
        let (shared, even) = shared_even();
        let server = Server::new(shared, ServeConfig::default(), Budget::unlimited());
        let session = server.session();
        let lib = session.library().clone().with_memo();
        assert!(lib.memo_enabled());
        assert_eq!(lib.check(even, 30, 30, &[Value::nat(20)]), Some(true));
        // The verdict landed in the server's table, not a private one.
        assert_eq!(server.memo().stats().entries, 1);
        assert_eq!(lib.memo_stats().entries, 1);
        // Likewise a second `with_shared_memo` keeps the first table.
        let other = Arc::new(SharedMemo::new(1, 16));
        let lib = lib.with_shared_memo(Arc::clone(&other));
        lib.check(even, 30, 30, &[Value::nat(22)]);
        assert_eq!(other.stats().entries, 0);
        assert_eq!(server.memo().stats().entries, 2);
    }

    #[test]
    fn served_memo_stats_pair_own_lookups_with_the_server_table() {
        let (shared, even) = shared_even();
        let server = Server::new(shared, ServeConfig::default(), Budget::unlimited());
        let (first, second) = (server.session(), server.session());
        let batch: Vec<Vec<Value>> = (10..20u64).map(|n| vec![Value::nat(n)]).collect();
        first.check_batch(even, 30, &batch);
        second.check_batch(even, 30, &batch);
        let table = server.memo().stats();
        let (a, b) = (first.library().memo_stats(), second.library().memo_stats());
        for m in [a, b] {
            assert_eq!(m.insertions, table.insertions);
            assert_eq!(m.entries, table.entries);
        }
        // Each session reports only its own lookups: the first missed
        // every tuple, the second hit every one.
        assert_eq!((a.hits, a.misses), (0, 10));
        assert_eq!((b.hits, b.misses), (10, 0));
        let s = server.stats();
        assert_eq!((s.hits, s.misses), (a.hits + b.hits, a.misses + b.misses));
    }

    #[test]
    fn server_lookup_counts_are_the_sums_of_the_spans() {
        let (shared, even) = shared_even();
        let server = Server::new(
            shared,
            ServeConfig {
                flight_recorder_capacity: 256,
                ..ServeConfig::default()
            },
            Budget::unlimited(),
        );
        let sessions = [server.session(), server.session()];
        for round in 0..3u64 {
            for (i, session) in sessions.iter().enumerate() {
                let batch: Vec<Vec<Value>> = (0..24u64)
                    .map(|n| vec![Value::nat(n * (round + i as u64 + 1) % 40)])
                    .collect();
                session.check_batch(even, 40, &batch);
            }
        }
        // Lookups outside a request are not the server's to count.
        server.memo().lookup(even, 0, &[Value::nat(0)], 40, 40);
        sessions[0].library().check(even, 40, 40, &[Value::nat(2)]);
        let spans: Vec<RequestSpan> = sessions
            .iter()
            .flat_map(|s| {
                assert_eq!(s.recorder().dropped(), 0, "the ring kept every span");
                s.recorder().spans()
            })
            .collect();
        assert_eq!(spans.len(), 2 * 3 * 24);
        let s = server.stats();
        assert_eq!(s.hits, spans.iter().map(|sp| sp.memo_hits).sum::<u64>());
        assert_eq!(s.misses, spans.iter().map(|sp| sp.memo_misses).sum::<u64>());
        assert!(s.hits > 0 && s.misses > 0, "{s}");
    }

    #[test]
    fn batch_reports_arity_and_instance_errors_per_request() {
        let mut u = Universe::new();
        let mut env = RelEnv::new();
        parse_program(
            &mut u,
            &mut env,
            r"rel even' : nat :=
              | even_0 : even' 0
              | even_SS : forall n, even' n -> even' (S (S n))
              .
              rel odd' : nat :=
              | odd_1 : odd' 1
              .",
        )
        .unwrap();
        let even = env.rel_id("even'").unwrap();
        let odd = env.rel_id("odd'").unwrap();
        let mut b = LibraryBuilder::new(u, env);
        b.derive_checker(even).unwrap();
        let config = ServeConfig {
            max_inflight: 1,
            ..ServeConfig::default()
        };
        let server = Server::new(b.build().shared(), config, Budget::unlimited());
        let session = server.session();
        let batch = vec![vec![Value::nat(2)], vec![Value::nat(2), Value::nat(3)]];
        let got = session.check_batch(even, 10, &batch);
        assert_eq!(got[0], Ok(Some(true)));
        assert!(matches!(got[1], Err(ExecError::ArityMismatch { .. })));
        // `odd'` has no checker instance.
        let got = session.check_batch(odd, 10, &[vec![Value::nat(1)]]);
        assert!(matches!(got[0], Err(ExecError::NoInstance { .. })));
        // Validation takes no admission permit: at capacity, a
        // malformed request still fails as malformed, not as shed.
        let held = server.try_admit().unwrap();
        assert!(matches!(
            session.check_replay(even, 10, &[], 0, 0),
            Err(ExecError::ArityMismatch { .. })
        ));
        drop(held);
        // Every request is booked once, the malformed ones as failed
        // spans that never reached the search.
        let snap = server.snapshot();
        assert_eq!(snap.counter("serve.requests"), Some(4));
        assert_eq!(snap.counter("serve.requests.true"), Some(1));
        assert_eq!(snap.counter("serve.requests.failed"), Some(3));
        let spans = session.recorder().spans();
        let outcomes: Vec<_> = spans
            .iter()
            .map(|s| (s.rel, s.outcome, s.attempts))
            .collect();
        assert_eq!(
            outcomes,
            [
                (even, RequestOutcome::True, 1),
                (even, RequestOutcome::Failed, 0),
                (odd, RequestOutcome::Failed, 0),
                (even, RequestOutcome::Failed, 0),
            ]
        );
        assert!(spans[1..].iter().all(|s| s.steps == 0));
        assert_eq!(server.stats().shed, 0);
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
        let args = vec![vec![Value::nat(6)]];
        let got = session.check_batch(twin, 10, &args);
        // 8 steps cannot check twin 6 (2^6 leaves); retries escalated
        // until the doubled budget sufficed.
        assert_eq!(got[0], Ok(Some(true)));
        let retries = server.stats().retries;
        assert!(retries > 0, "tight first budget must retry");
        assert_eq!(
            u64::from(session.recorder().spans()[0].attempts),
            1 + retries
        );
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
    fn flight_dump_span_line_is_golden() {
        let (shared, even) = shared_even();
        let server = Server::new(shared, ServeConfig::default(), Budget::unlimited());
        let session = server.session();
        session.check_batch(even, 10, &[vec![Value::nat(2)]]);
        assert_eq!(
            server.dump_flight_recorder(),
            concat!(
                "{\"dump\":\"flight_recorder\",\"reason\":\"explicit\",\"workers\":1}\n",
                "{\"worker\":0,\"seed\":0,\"index\":0,\"rel\":\"even'\",\"size\":10,",
                "\"outcome\":\"true\",\"attempts\":1,\"steps\":2,\"memo_hits\":0,",
                "\"memo_misses\":1}\n"
            )
        );
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
        // Request-level counters came along from the base snapshot, and
        // the probe's own totals from the stats snapshot.
        assert_eq!(snap.counter("serve.requests"), Some(1));
        assert_eq!(
            snap.counter("search.events"),
            Some(stats.events()),
            "{snap}"
        );
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
