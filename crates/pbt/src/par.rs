//! The parallel test engine: deterministic sharded runs over worker
//! threads.
//!
//! # Determinism model
//!
//! The sequential [`Runner::run`] threads one RNG through every test,
//! so test `i`'s input depends on everything generated before it. The
//! parallel engine instead makes each test *slot* a pure function of
//! `(seed, index)`: slot `i` draws its randomness from the dedicated
//! stream `SmallRng::seed_from_u64_stream(seed, i)` (a SplitMix64
//! derivation in the vendored `rand` shim), retrying discards within
//! the slot on the same stream. No slot ever observes another slot's
//! randomness, thread identity, or scheduling, so:
//!
//! * the same `(seed, index)` pair reproduces the same test on any
//!   machine with any worker count — the *reproduction token* printed
//!   in failing [`RunReport`]s and replayable with
//!   [`Runner::repro_index`];
//! * merged reports are **byte-identical** across
//!   [`Parallelism::Off`], [`Parallelism::Fixed`]`(2)`, `Fixed(8)`, …
//!   for budget-unlimited runs (see *Budgets* below).
//!
//! # Work sharing and report merging
//!
//! Workers claim disjoint contiguous chunks of slot indices from one
//! atomic counter and record a [`RunReport`]-shaped summary per chunk.
//! Chunk summaries merge associatively: counters and label maps add,
//! histograms add bucketwise, and the run's counterexample is the
//! failure with the **lowest slot index** — not the first one found in
//! wall-clock order. On failure the merged report is truncated to the
//! region a sequential run would have executed: chunks entirely above
//! the failing index are discarded, so `passed`, `discarded`, label
//! counts, and histograms match what `Off` reports.
//!
//! # Budgets
//!
//! The runner's [`Budget`] becomes a shared atomic pool
//! ([`BudgetPool`]): workers draw steps (one per attempted test) and
//! backtracks (one per discard) in chunks of 64, and the
//! wall-clock deadline is polled once per refill and once per claimed
//! chunk — never on the per-test hot path. Which slots a finite budget
//! reaches depends on scheduling, so budget-truncated parallel runs
//! (unlike budget-unlimited ones) are *not* guaranteed byte-identical
//! across worker counts; run with `Parallelism::Off` when exact
//! budget-cutoff reproducibility matters.
//!
//! [`Budget`]: indrel_producers::Budget

use crate::{panic_message, Crash, Labels, RunReport, Runner, Spent, TestOutcome};
use indrel_producers::{BudgetPool, HistogramSnapshot};
use indrel_term::Value;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// How many worker threads a [`Runner`] uses.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Parallelism {
    /// Single-threaded, on the calling thread (the default). Runs the
    /// same sharded engine as the parallel modes, so reports are
    /// byte-identical to theirs — just without the thread overhead.
    #[default]
    Off,
    /// Exactly this many worker threads (`Fixed(0)` behaves like
    /// `Fixed(1)`).
    Fixed(usize),
    /// One worker per available core, via
    /// [`std::thread::available_parallelism`] (1 when that errors).
    Auto,
}

impl Parallelism {
    /// The number of workers this configuration resolves to for a run
    /// of `n` slots: never 0, never more than one worker per index
    /// chunk (extra threads would have nothing to claim).
    pub fn workers(self, n: usize) -> usize {
        let want = match self {
            Parallelism::Off => 1,
            Parallelism::Fixed(k) => k.max(1),
            Parallelism::Auto => std::thread::available_parallelism().map_or(1, |k| k.get()),
        };
        let chunks = (n as u64).div_ceil(INDEX_CHUNK).max(1);
        want.min(chunks.min(usize::MAX as u64) as usize)
    }
}

/// Slot indices are claimed from the shared counter in contiguous
/// chunks of this size: large enough that claiming is a negligible
/// fraction of the work, small enough to load-balance uneven tests.
const INDEX_CHUNK: u64 = 64;

/// Steps/backtracks are drawn from the shared [`BudgetPool`] in chunks
/// of this size, bounding both atomic contention and the over-draw a
/// worker can hold when the pool runs dry.
const POOL_DRAW: u64 = 64;

/// Attempts (initial try + discard retries) each slot may spend before
/// giving up, mirroring the sequential runner's default allowance of
/// 10 discards per requested test.
const SLOT_ATTEMPTS: u32 = 10;

/// A worker-local cache of budget units drawn from the shared pool.
/// Dropping the drawer returns unspent units, so pool accounting is
/// exact once every worker has stopped.
struct Drawer<'a> {
    pool: &'a BudgetPool,
    steps: u64,
    backtracks: u64,
}

impl<'a> Drawer<'a> {
    fn new(pool: &'a BudgetPool) -> Drawer<'a> {
        Drawer {
            pool,
            steps: 0,
            backtracks: 0,
        }
    }

    /// Takes one step from the local cache, refilling from the pool
    /// (and polling the deadline) when empty. `false` = pool dry.
    fn step(&mut self) -> bool {
        if self.steps == 0 {
            if !self.pool.check_deadline() {
                return false;
            }
            self.steps = self.pool.draw_steps(POOL_DRAW);
            if self.steps == 0 {
                return false;
            }
        }
        self.steps -= 1;
        true
    }

    /// Takes one backtrack from the local cache. `false` = pool dry.
    fn backtrack(&mut self) -> bool {
        if self.backtracks == 0 {
            self.backtracks = self.pool.draw_backtracks(POOL_DRAW);
            if self.backtracks == 0 {
                return false;
            }
        }
        self.backtracks -= 1;
        true
    }
}

impl Drop for Drawer<'_> {
    fn drop(&mut self) {
        self.pool.return_steps(self.steps);
        self.pool.return_backtracks(self.backtracks);
    }
}

/// One claimed chunk's contribution to the merged report. All fields
/// are pure functions of `(seed, [start, end))` for budget-unlimited
/// runs, which is what makes the merge deterministic.
struct Chunk {
    start: u64,
    passed: usize,
    discarded: usize,
    crashed: usize,
    /// Lowest-index crash in this chunk: `(slot, input, message)`.
    first_crash: Option<(u64, Option<Vec<Value>>, String)>,
    /// This chunk's counterexample, if any: `(slot, input)`. A worker
    /// stops at its first failure, so at most one per chunk.
    failure: Option<(u64, Vec<Value>)>,
    labels: BTreeMap<String, u64>,
    input_sizes: HistogramSnapshot,
    steps: u64,
    backtracks: u64,
}

impl Chunk {
    fn new(start: u64) -> Chunk {
        Chunk {
            start,
            passed: 0,
            discarded: 0,
            crashed: 0,
            first_crash: None,
            failure: None,
            labels: BTreeMap::new(),
            input_sizes: HistogramSnapshot::default(),
            steps: 0,
            backtracks: 0,
        }
    }
}

/// How one slot resolved.
enum Slot {
    Pass,
    Fail(Vec<Value>),
    Crash(Option<Vec<Value>>, String),
    /// All [`SLOT_ATTEMPTS`] attempts discarded.
    GaveUp,
    /// The budget pool ran dry mid-slot; the run is stopping.
    Exhausted,
}

impl Runner {
    /// Parallel [`Runner::run`]: runs `n` test slots across the
    /// configured [`Parallelism`], each slot a deterministic function
    /// of `(seed, index)`.
    ///
    /// `make` is called once per worker thread to build that worker's
    /// `(generator, property)` pair — fork any per-worker state (e.g. a
    /// [`SharedLibrary`] session) inside it. Determinism requires the
    /// closures it returns to be deterministic in their arguments;
    /// worker-local mutable state (caches, counters) is fine as long as
    /// it doesn't leak into verdicts.
    ///
    /// See the [module docs](crate::par) for the determinism and
    /// merge semantics, and [`Runner::run_par_with`] for the
    /// label-collecting variant.
    ///
    /// [`SharedLibrary`]: https://docs.rs/indrel-core
    ///
    /// # Example
    ///
    /// ```
    /// use indrel_pbt::{Parallelism, Runner, TestOutcome};
    /// use indrel_term::Value;
    ///
    /// let runner = Runner::new(42).with_parallelism(Parallelism::Auto);
    /// let report = runner.run_par(1000, || {
    ///     (
    ///         |size, rng: &mut dyn rand::RngCore| {
    ///             Some(vec![Value::nat(rand::Rng::gen_range(rng, 0..=size))])
    ///         },
    ///         |args: &[Value]| TestOutcome::from_bool(args[0].as_nat().unwrap() <= 100),
    ///     )
    /// });
    /// assert_eq!(report.passed, 1000);
    /// ```
    pub fn run_par<G, P>(&self, n: usize, make: impl Fn() -> (G, P) + Sync) -> RunReport
    where
        G: FnMut(u64, &mut dyn rand::RngCore) -> Option<Vec<Value>>,
        P: FnMut(&[Value]) -> TestOutcome,
    {
        self.run_par_with(n, || {
            let (gen, mut prop) = make();
            (gen, move |args: &[Value], _: &mut Labels| prop(args))
        })
    }

    /// [`Runner::run_par`] with a [`Labels`] sink handed to the
    /// property. Label counts merge across workers by addition, so the
    /// merged distribution equals the sequential one.
    pub fn run_par_with<G, P>(&self, n: usize, make: impl Fn() -> (G, P) + Sync) -> RunReport
    where
        G: FnMut(u64, &mut dyn rand::RngCore) -> Option<Vec<Value>>,
        P: FnMut(&[Value], &mut Labels) -> TestOutcome,
    {
        let workers = self.parallelism.workers(n);
        let pool = BudgetPool::new(self.budget);
        let next = AtomicU64::new(0);
        let min_fail = AtomicU64::new(u64::MAX);
        let start = Instant::now();
        let chunks: Vec<Chunk> = if workers <= 1 {
            let (gen, prop) = make();
            self.worker_loop(n as u64, &next, &min_fail, &pool, gen, prop)
        } else {
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..workers)
                    .map(|_| {
                        let (next, min_fail, pool, make) = (&next, &min_fail, &pool, &make);
                        scope.spawn(move || {
                            let (gen, prop) = make();
                            self.worker_loop(n as u64, next, min_fail, pool, gen, prop)
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .flat_map(|h| h.join().expect("test worker thread panicked"))
                    .collect()
            })
        };
        self.merge(chunks, &pool, start)
    }

    /// Replays one slot of a parallel run — the `(seed, index)`
    /// reproduction token from a failing [`RunReport`] — and returns
    /// the input and outcome of the attempt that resolved the slot
    /// (`None` if every attempt discarded). Unlike the run itself,
    /// panics are **not** caught: a crashing slot panics here, which is
    /// exactly what a debugger wants.
    pub fn repro_index(
        &self,
        index: u64,
        mut generate: impl FnMut(u64, &mut dyn rand::RngCore) -> Option<Vec<Value>>,
        mut property: impl FnMut(&[Value]) -> TestOutcome,
    ) -> Option<(Vec<Value>, TestOutcome)> {
        let mut rng = SmallRng::seed_from_u64_stream(self.seed, index);
        for _ in 0..SLOT_ATTEMPTS {
            let Some(input) = generate(self.size, &mut rng) else {
                continue;
            };
            match property(&input) {
                TestOutcome::Discard => continue,
                outcome => return Some((input, outcome)),
            }
        }
        None
    }

    /// The sharded work loop run by every worker (and inline for
    /// single-worker runs — same code path, so `Off` matches `Fixed`).
    fn worker_loop<G, P>(
        &self,
        n: u64,
        next: &AtomicU64,
        min_fail: &AtomicU64,
        pool: &BudgetPool,
        mut generate: G,
        mut property: P,
    ) -> Vec<Chunk>
    where
        G: FnMut(u64, &mut dyn rand::RngCore) -> Option<Vec<Value>>,
        P: FnMut(&[Value], &mut Labels) -> TestOutcome,
    {
        let mut out = Vec::new();
        let mut drawer = Drawer::new(pool);
        let mut labels = Labels::default();
        'claim: loop {
            let start = next.fetch_add(INDEX_CHUNK, Ordering::Relaxed);
            if start >= n {
                break;
            }
            // A failure below this chunk makes it (and every later
            // claim, since starts only grow) unreportable — stop.
            if start > min_fail.load(Ordering::Relaxed) {
                break;
            }
            if !pool.check_deadline() {
                break;
            }
            let end = (start + INDEX_CHUNK).min(n);
            let mut chunk = Chunk::new(start);
            for idx in start..end {
                match self.run_slot(
                    idx,
                    &mut generate,
                    &mut property,
                    &mut drawer,
                    &mut chunk,
                    &mut labels,
                ) {
                    Slot::Pass => chunk.passed += 1,
                    Slot::GaveUp => {}
                    Slot::Crash(input, message) => {
                        chunk.crashed += 1;
                        if chunk.first_crash.is_none() {
                            chunk.first_crash = Some((idx, input, message));
                        }
                    }
                    Slot::Fail(input) => {
                        chunk.failure = Some((idx, input));
                        min_fail.fetch_min(idx, Ordering::Relaxed);
                        out.push(chunk);
                        break 'claim;
                    }
                    Slot::Exhausted => {
                        out.push(chunk);
                        break 'claim;
                    }
                }
                // Another worker failed below us: the rest of this
                // chunk can never appear in the merged report.
                if min_fail.load(Ordering::Relaxed) < start {
                    break;
                }
            }
            out.push(chunk);
        }
        out
    }

    /// Runs one slot: up to [`SLOT_ATTEMPTS`] generate/check attempts
    /// on the slot's own RNG stream.
    fn run_slot<G, P>(
        &self,
        idx: u64,
        generate: &mut G,
        property: &mut P,
        drawer: &mut Drawer<'_>,
        chunk: &mut Chunk,
        labels: &mut Labels,
    ) -> Slot
    where
        G: FnMut(u64, &mut dyn rand::RngCore) -> Option<Vec<Value>>,
        P: FnMut(&[Value], &mut Labels) -> TestOutcome,
    {
        let mut rng = SmallRng::seed_from_u64_stream(self.seed, idx);
        for _ in 0..SLOT_ATTEMPTS {
            if !drawer.step() {
                return Slot::Exhausted;
            }
            chunk.steps += 1;
            let input = match catch_unwind(AssertUnwindSafe(|| generate(self.size, &mut rng))) {
                Ok(Some(input)) => input,
                Ok(None) => {
                    chunk.discarded += 1;
                    if !drawer.backtrack() {
                        return Slot::Exhausted;
                    }
                    chunk.backtracks += 1;
                    continue;
                }
                Err(payload) => return Slot::Crash(None, panic_message(&*payload)),
            };
            chunk.input_sizes.record(crate::tuple_size(&input));
            labels.current.clear();
            match catch_unwind(AssertUnwindSafe(|| property(&input, labels))) {
                Ok(TestOutcome::Pass) => {
                    labels.fold_into(&mut chunk.labels);
                    return Slot::Pass;
                }
                Ok(TestOutcome::Discard) => {
                    chunk.discarded += 1;
                    if !drawer.backtrack() {
                        return Slot::Exhausted;
                    }
                    chunk.backtracks += 1;
                }
                Ok(TestOutcome::Fail) => {
                    labels.fold_into(&mut chunk.labels);
                    return Slot::Fail(input);
                }
                Err(payload) => return Slot::Crash(Some(input), panic_message(&*payload)),
            }
        }
        Slot::GaveUp
    }

    /// Merges per-chunk summaries into one [`RunReport`]. Associative
    /// and order-independent: chunks are keyed by their start index,
    /// the counterexample is the lowest failing index, and on failure
    /// the report is truncated to the chunks a sequential run would
    /// have executed.
    fn merge(&self, mut chunks: Vec<Chunk>, pool: &BudgetPool, start: Instant) -> RunReport {
        chunks.sort_by_key(|c| c.start);
        let fail_idx = chunks
            .iter()
            .filter_map(|c| c.failure.as_ref().map(|(i, _)| *i))
            .min();
        let included = chunks
            .iter()
            .filter(|c| fail_idx.is_none_or(|f| c.start <= f));
        let mut passed = 0;
        let mut discarded = 0;
        let mut crashed = 0;
        let mut first_crash: Option<Crash> = None;
        let mut failed_input: Option<Vec<Value>> = None;
        let mut labels: BTreeMap<String, u64> = BTreeMap::new();
        let mut input_sizes = HistogramSnapshot::default();
        let mut steps = 0;
        let mut backtracks = 0;
        for c in included {
            passed += c.passed;
            discarded += c.discarded;
            crashed += c.crashed;
            steps += c.steps;
            backtracks += c.backtracks;
            if first_crash.is_none() {
                // Chunks are sorted, ≤ 1 crash candidate per chunk, so
                // the first seen is the lowest-index crash.
                if let Some((idx, input, message)) = &c.first_crash {
                    first_crash = Some(Crash {
                        input: input.clone(),
                        message: message.clone(),
                        test: *idx as usize + 1,
                    });
                }
            }
            if let Some((idx, input)) = &c.failure {
                if Some(*idx) == fail_idx {
                    failed_input = Some(input.clone());
                }
            }
            for (label, count) in &c.labels {
                *labels.entry(label.clone()).or_default() += count;
            }
            input_sizes.merge(&c.input_sizes);
        }
        let failed = failed_input.map(|input| (input, passed + 1));
        debug_assert_eq!(failed.is_some(), fail_idx.is_some());
        RunReport {
            passed,
            discarded,
            crashed,
            first_crash,
            stopped: if failed.is_some() {
                None
            } else {
                pool.exhaustion()
            },
            failed,
            failed_index: fail_idx,
            seed: self.seed,
            spent: Spent {
                steps,
                backtracks,
                elapsed: start.elapsed(),
            },
            labels,
            input_sizes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TestOutcome;
    use indrel_producers::Budget;
    use rand::Rng as _;

    #[allow(clippy::type_complexity)]
    fn nat_prop_factory() -> (
        impl FnMut(u64, &mut dyn rand::RngCore) -> Option<Vec<Value>>,
        impl FnMut(&[Value]) -> TestOutcome,
    ) {
        (
            |size, rng: &mut dyn rand::RngCore| Some(vec![Value::nat(rng.gen_range(0..=size))]),
            |args: &[Value]| TestOutcome::from_bool(args[0].as_nat().unwrap() < 95),
        )
    }

    #[test]
    fn reports_are_byte_identical_across_worker_counts() {
        // A passing run and a failing run (size 100 makes ≥95 likely),
        // each rendered at Off / Fixed(2) / Fixed(8): the Display
        // output (which covers every deterministic report field) must
        // match byte for byte.
        for size in [10, 100] {
            let render = |p: Parallelism| {
                let r = Runner::new(7)
                    .with_size(size)
                    .with_parallelism(p)
                    .run_par(500, nat_prop_factory);
                // elapsed is wall-clock, not part of Display — nothing
                // nondeterministic reaches the string.
                r.to_string()
            };
            let off = render(Parallelism::Off);
            assert_eq!(off, render(Parallelism::Fixed(2)), "size {size}");
            assert_eq!(off, render(Parallelism::Fixed(8)), "size {size}");
        }
    }

    #[test]
    fn parallel_failure_matches_repro_token() {
        let report = Runner::new(7)
            .with_size(100)
            .with_parallelism(Parallelism::Fixed(4))
            .run_par(2000, nat_prop_factory);
        let (cex, _) = report.failed.clone().expect("size-100 run must fail");
        let (seed, index) = report.reproduction().expect("token present");
        assert_eq!(seed, 7);
        let (mut gen, mut prop) = nat_prop_factory();
        let (input, outcome) = Runner::new(seed)
            .with_size(100)
            .repro_index(index, &mut gen, &mut prop)
            .expect("slot resolves");
        assert_eq!(input, cex);
        assert_eq!(outcome, TestOutcome::Fail);
        assert!(report.to_string().contains(&format!("index={index}")));
    }

    #[test]
    fn failure_is_lowest_index_not_first_found() {
        // Many slots fail (1/997 of inputs hit zero); the merged
        // report must pin the counterexample to the lowest failing
        // slot and truncate the counts to match a sequential run, at
        // any worker count.
        let make = || {
            (
                |_, rng: &mut dyn rand::RngCore| Some(vec![Value::nat(rng.next_u64() % 997)]),
                |args: &[Value]| TestOutcome::from_bool(args[0].as_nat().unwrap() != 0),
            )
        };
        let off = Runner::new(3).run_par(10_000, make);
        let par = Runner::new(3)
            .with_parallelism(Parallelism::Fixed(8))
            .run_par(10_000, make);
        assert_eq!(off.failed, par.failed);
        assert_eq!(off.failed_index, par.failed_index);
        assert_eq!(off.passed, par.passed);
        assert_eq!(off.spent.steps, par.spent.steps);
    }

    #[test]
    fn step_budget_bounds_a_parallel_run() {
        let r = Runner::new(1)
            .with_budget(Budget::unlimited().with_steps(100))
            .with_parallelism(Parallelism::Fixed(4))
            .run_par(10_000, || {
                (
                    |_, _: &mut dyn rand::RngCore| Some(vec![Value::nat(1)]),
                    |_: &[Value]| TestOutcome::Pass,
                )
            });
        assert_eq!(r.passed, 100, "drawn chunks return unspent steps");
        assert_eq!(r.spent.steps, 100);
        assert_eq!(
            r.stopped,
            Some(indrel_producers::Exhaustion::Budget(
                indrel_producers::Resource::Steps
            ))
        );
    }

    #[test]
    fn slots_give_up_after_bounded_discards() {
        let r = Runner::new(1).run_par(50, || {
            (
                |_, _: &mut dyn rand::RngCore| None::<Vec<Value>>,
                |_: &[Value]| TestOutcome::Pass,
            )
        });
        assert_eq!(r.passed, 0);
        assert_eq!(r.discarded, 50 * SLOT_ATTEMPTS as usize);
        assert!(r.failed.is_none());
        assert!(r.stopped.is_none());
    }

    #[test]
    fn workers_cap_never_exceeds_chunks() {
        assert_eq!(Parallelism::Fixed(8).workers(64), 1);
        assert_eq!(Parallelism::Fixed(8).workers(65), 2);
        assert_eq!(Parallelism::Fixed(0).workers(1000), 1);
        assert_eq!(Parallelism::Off.workers(1000), 1);
        assert!(Parallelism::Auto.workers(100_000) >= 1);
    }
}
