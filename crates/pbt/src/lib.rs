//! A QuickChick-style property-based testing runner.
//!
//! This crate provides the harness that the paper's evaluation (§6.2)
//! exercises: generate test inputs with a (handwritten or derived)
//! generator, check a property with a (handwritten or derived) checker,
//! and measure **throughput** (tests per second, Figure 3) and **mean
//! tests to failure** (the mutation study).
//!
//! Inputs are tuples of [`Value`]s; a generator may fail to produce
//! (backtracking exhausted), which counts as a *discard*, exactly like
//! QuickChick's `None` results.
//!
//! The runner is fault-isolated: a generator or property that panics
//! does not abort the run. The panic is caught, counted as a *crash* in
//! the [`RunReport`] (with the first crashing input preserved), and the
//! run continues. Runs can also carry a [`Budget`] — steps, backtracks,
//! a wall-clock deadline — whose exhaustion stops the run early with a
//! structured [`Exhaustion`] reason instead of hanging. The [`chaos`]
//! module injects faults on purpose to test exactly these paths.
//!
//! Runs can execute across worker threads: configure
//! [`Parallelism`] and call [`Runner::run_par`], which shards test
//! indices over deterministic per-index RNG streams so the merged
//! [`RunReport`] is byte-identical regardless of worker count — see
//! the [`par`] module for the full model and the `(seed, index)`
//! reproduction token.
//!
//! # Example
//!
//! ```
//! use indrel_pbt::{Runner, TestOutcome};
//! use indrel_term::Value;
//!
//! let runner = Runner::new(42);
//! let report = runner.run(
//!     1000,
//!     |size, rng| Some(vec![Value::nat(rand::Rng::gen_range(rng, 0..=size))]),
//!     |args| TestOutcome::from_bool(args[0].as_nat().unwrap() <= 100),
//! );
//! assert!(report.failed.is_none());
//! assert_eq!(report.passed, 1000);
//! ```

#![warn(missing_docs)]

pub mod chaos;
pub mod par;

pub use par::Parallelism;

use indrel_producers::{Budget, Exhaustion, HistogramSnapshot, Meter};
use indrel_term::Value;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::any::Any;
use std::collections::BTreeMap;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// The verdict of one test.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TestOutcome {
    /// The property held.
    Pass,
    /// The property failed — a counterexample.
    Fail,
    /// The input did not satisfy the property's precondition.
    Discard,
}

impl TestOutcome {
    /// `true → Pass`, `false → Fail`.
    pub fn from_bool(b: bool) -> TestOutcome {
        if b {
            TestOutcome::Pass
        } else {
            TestOutcome::Fail
        }
    }

    /// Converts a three-valued checker result; `None` discards (the
    /// checker could not decide within fuel).
    pub fn from_check(r: Option<bool>) -> TestOutcome {
        match r {
            Some(true) => TestOutcome::Pass,
            Some(false) => TestOutcome::Fail,
            None => TestOutcome::Discard,
        }
    }
}

/// QuickChick-style label sink, handed to properties run through
/// [`Runner::run_with`]. Labels recorded by a test are folded into
/// [`RunReport::labels`] when the test reaches a pass/fail verdict
/// (discarded and crashed tests record nothing, as in QuickChick);
/// duplicate labels within one test count once.
///
/// ```
/// use indrel_pbt::{Runner, TestOutcome};
/// use indrel_term::Value;
/// let report = Runner::new(1).run_with(
///     100,
///     |size, rng| Some(vec![Value::nat(rand::Rng::gen_range(rng, 0..=size))]),
///     |args, labels| {
///         let n = args[0].as_nat().unwrap();
///         labels.collect(format!("parity={}", n % 2));
///         labels.classify(n == 0, "zero");
///         TestOutcome::Pass
///     },
/// );
/// assert_eq!(report.labels.values().copied().take(2).sum::<u64>(), 100);
/// ```
#[derive(Debug, Default)]
pub struct Labels {
    current: Vec<String>,
}

impl Labels {
    /// Records `label` for the current test (QuickChick's `collect`).
    pub fn collect(&mut self, label: impl fmt::Display) {
        self.current.push(label.to_string());
    }

    /// Records `label` when `cond` holds (QuickChick's `classify`).
    pub fn classify(&mut self, cond: bool, label: &str) {
        if cond {
            self.current.push(label.to_string());
        }
    }

    /// Folds this test's labels into the run totals (deduplicated
    /// within the test) and clears for the next test.
    fn fold_into(&mut self, totals: &mut BTreeMap<String, u64>) {
        self.current.sort_unstable();
        self.current.dedup();
        for label in self.current.drain(..) {
            *totals.entry(label).or_default() += 1;
        }
    }
}

/// A test whose generator or property panicked.
#[derive(Clone, Debug)]
pub struct Crash {
    /// The generated input. `None` when the *generator* panicked, so
    /// there was no input yet.
    pub input: Option<Vec<Value>>,
    /// The panic payload, rendered as a string.
    pub message: String,
    /// 1-based index of the crashing test among executed tests.
    pub test: usize,
}

/// Budget resources consumed by one run.
#[derive(Clone, Copy, Debug, Default)]
pub struct Spent {
    /// Steps charged (one per attempted test).
    pub steps: u64,
    /// Backtracks charged (one per discard).
    pub backtracks: u64,
    /// Wall-clock time for the whole run.
    pub elapsed: Duration,
}

/// The result of a bounded test run.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// Tests that passed.
    pub passed: usize,
    /// Inputs discarded (generator failures or property preconditions).
    pub discarded: usize,
    /// Tests whose generator or property panicked. Each panic is
    /// caught and counted; the run continues.
    pub crashed: usize,
    /// The first crash observed, if any.
    pub first_crash: Option<Crash>,
    /// The first counterexample, with the number of tests executed
    /// before it (inclusive).
    pub failed: Option<(Vec<Value>, usize)>,
    /// Set when the runner's [`Budget`] stopped the run before the
    /// requested number of tests.
    pub stopped: Option<Exhaustion>,
    /// The seed the run was started with — one half of the
    /// reproduction token.
    pub seed: u64,
    /// The counterexample's slot index, for runs executed by the
    /// parallel engine ([`Runner::run_par`]). Together with
    /// [`RunReport::seed`] this is the *reproduction token*: replay it
    /// with [`Runner::repro_index`] on any machine, with any worker
    /// count. `None` for sequential runs (whose RNG is threaded
    /// through the whole run, so single tests are not independently
    /// replayable) and for parallel runs that did not fail.
    pub failed_index: Option<u64>,
    /// Budget accounting for the whole run.
    pub spent: Spent,
    /// Label counts from [`Labels::collect`] / [`Labels::classify`],
    /// over tests that reached a pass/fail verdict.
    pub labels: BTreeMap<String, u64>,
    /// Distribution of generated input sizes (summed constructor nodes
    /// per tuple), over every successful generation — the generator's
    /// observable output distribution.
    pub input_sizes: HistogramSnapshot,
}

impl RunReport {
    /// Attempted tests: every verdict plus discards and crashes.
    pub fn attempts(&self) -> usize {
        self.passed + self.discarded + self.crashed + usize::from(self.failed.is_some())
    }

    /// Discards as a percentage of attempts (0 when nothing ran).
    pub fn discard_rate(&self) -> f64 {
        let attempts = self.attempts();
        if attempts == 0 {
            0.0
        } else {
            100.0 * self.discarded as f64 / attempts as f64
        }
    }

    /// The `(seed, index)` reproduction token of a parallel run's
    /// counterexample — `None` unless this report has a
    /// [`failed_index`](RunReport::failed_index). Feed it back to
    /// [`Runner::repro_index`] to replay exactly the failing test.
    pub fn reproduction(&self) -> Option<(u64, u64)> {
        self.failed_index.map(|i| (self.seed, i))
    }
}

impl fmt::Display for RunReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.failed {
            Some((_, n)) => {
                write!(
                    f,
                    "*** Failed after {n} tests ({} discards)",
                    self.discarded
                )?;
            }
            None => match self.stopped {
                Some(e) => write!(
                    f,
                    "!!! Gave up after {} tests ({} discards): {e}",
                    self.passed, self.discarded
                )?,
                None => {
                    write!(
                        f,
                        "+++ Passed {} tests ({} discards)",
                        self.passed, self.discarded
                    )?;
                }
            },
        }
        if self.crashed > 0 {
            write!(f, " [{} crashed]", self.crashed)?;
        }
        writeln!(f)?;
        if let Some(index) = self.failed_index {
            writeln!(f, "  repro:     seed={} index={index}", self.seed)?;
        }
        match &self.first_crash {
            Some(c) => writeln!(
                f,
                "  crashed:   {} (first at test {})",
                self.crashed, c.test
            )?,
            None => writeln!(f, "  crashed:   0")?,
        }
        writeln!(
            f,
            "  discards:  {} of {} attempts ({:.1}%)",
            self.discarded,
            self.attempts(),
            self.discard_rate()
        )?;
        match self.stopped {
            Some(e) => writeln!(f, "  stopped:   {e}")?,
            None => writeln!(f, "  stopped:   no (ran to completion)")?,
        }
        writeln!(
            f,
            "  spent:     {} steps, {} backtracks",
            self.spent.steps, self.spent.backtracks
        )?;
        if self.labels.is_empty() {
            writeln!(f, "  labels:    (none)")?;
        } else {
            writeln!(f, "  labels:")?;
            let verdicts = self.passed + usize::from(self.failed.is_some());
            for (label, count) in &self.labels {
                let pct = if verdicts == 0 {
                    0.0
                } else {
                    100.0 * *count as f64 / verdicts as f64
                };
                writeln!(f, "    {pct:>5.1}% {label} ({count})")?;
            }
        }
        write!(f, "  input sizes: {}", self.input_sizes)
    }
}

/// A generated tuple's size for [`RunReport::input_sizes`]: the summed
/// [`Value::size`] of its values, saturating at `u64::MAX` as each
/// value's size does.
fn tuple_size(input: &[Value]) -> u64 {
    input.iter().map(Value::size).fold(0, u64::saturating_add)
}

/// Throughput measurement (Figure 3's metric).
#[derive(Clone, Copy, Debug)]
pub struct Throughput {
    /// Tests executed.
    pub tests: usize,
    /// Wall-clock time.
    pub elapsed: Duration,
}

impl Throughput {
    /// Tests per second.
    pub fn tests_per_second(&self) -> f64 {
        self.tests as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }
}

/// Mean-tests-to-failure measurement (the §6.2 mutation study metric).
#[derive(Clone, Copy, Debug)]
pub struct MeanTestsToFailure {
    /// Trials that found the bug.
    pub failures: usize,
    /// Trials that hit the test budget without failing.
    pub exhausted: usize,
    /// Mean number of tests needed to find the bug, over failing
    /// trials.
    pub mean: f64,
}

/// A deterministic test runner.
///
/// Generators receive a size parameter and the runner's RNG; properties
/// receive the generated tuple.
#[derive(Clone, Copy, Debug)]
pub struct Runner {
    seed: u64,
    size: u64,
    budget: Budget,
    parallelism: Parallelism,
}

impl Runner {
    /// A runner with the given seed, default size 10, a discard budget
    /// of 10× the test budget, no resource budget, and
    /// [`Parallelism::Off`].
    pub fn new(seed: u64) -> Runner {
        Runner {
            seed,
            size: 10,
            budget: Budget::unlimited(),
            parallelism: Parallelism::Off,
        }
    }

    /// Sets the generation size.
    pub fn with_size(mut self, size: u64) -> Runner {
        self.size = size;
        self
    }

    /// Sets the worker-thread configuration used by
    /// [`Runner::run_par`]. Reports from budget-unlimited parallel
    /// runs are byte-identical across every [`Parallelism`] setting;
    /// [`Runner::run`] is unaffected.
    pub fn with_parallelism(mut self, parallelism: Parallelism) -> Runner {
        self.parallelism = parallelism;
        self
    }

    /// Sets a resource budget for each [`run`](Runner::run): one step
    /// is charged per attempted test, one backtrack per discard, and
    /// the deadline is polled before every test. Exhaustion ends the
    /// run early with [`RunReport::stopped`] set.
    pub fn with_budget(mut self, budget: Budget) -> Runner {
        self.budget = budget;
        self
    }

    /// Runs up to `n` tests.
    ///
    /// Panics in the generator or the property are caught
    /// ([`catch_unwind`]) and recorded as crashes; a crashed test
    /// counts toward `n` but neither passes nor discards. The default
    /// panic hook still prints each caught panic to stderr — wrap noisy
    /// runs in [`chaos::silence_panics`].
    pub fn run(
        &self,
        n: usize,
        generate: impl FnMut(u64, &mut dyn rand::RngCore) -> Option<Vec<Value>>,
        mut property: impl FnMut(&[Value]) -> TestOutcome,
    ) -> RunReport {
        self.run_with(n, generate, move |args, _| property(args))
    }

    /// [`Runner::run`] with a [`Labels`] sink handed to the property,
    /// for QuickChick-style `collect`/`classify` distribution
    /// reporting. Everything else behaves identically.
    pub fn run_with(
        &self,
        n: usize,
        mut generate: impl FnMut(u64, &mut dyn rand::RngCore) -> Option<Vec<Value>>,
        mut property: impl FnMut(&[Value], &mut Labels) -> TestOutcome,
    ) -> RunReport {
        let mut rng = SmallRng::seed_from_u64(self.seed);
        let meter = Meter::new(self.budget);
        let start = Instant::now();
        let mut passed = 0;
        let mut discarded = 0;
        let mut crashed = 0;
        let mut first_crash: Option<Crash> = None;
        let mut failed: Option<(Vec<Value>, usize)> = None;
        let mut labels = Labels::default();
        let mut label_totals: BTreeMap<String, u64> = BTreeMap::new();
        let mut input_sizes = HistogramSnapshot::default();
        while passed + crashed < n && discarded < 10 * n {
            // One step per attempted test. The deadline poll rides on
            // charge_step's own once-per-DEADLINE_POLL_PERIOD check —
            // no extra Instant::now() on the per-test hot path.
            if !meter.charge_step() {
                break;
            }
            let input = match catch_unwind(AssertUnwindSafe(|| generate(self.size, &mut rng))) {
                Ok(Some(input)) => input,
                Ok(None) => {
                    discarded += 1;
                    if !meter.charge_backtrack() {
                        break;
                    }
                    continue;
                }
                Err(payload) => {
                    crashed += 1;
                    if first_crash.is_none() {
                        first_crash = Some(Crash {
                            input: None,
                            message: panic_message(&*payload),
                            test: passed + crashed,
                        });
                    }
                    continue;
                }
            };
            input_sizes.record(tuple_size(&input));
            labels.current.clear();
            match catch_unwind(AssertUnwindSafe(|| property(&input, &mut labels))) {
                Ok(TestOutcome::Pass) => {
                    passed += 1;
                    labels.fold_into(&mut label_totals);
                }
                Ok(TestOutcome::Discard) => {
                    discarded += 1;
                    if !meter.charge_backtrack() {
                        break;
                    }
                }
                Ok(TestOutcome::Fail) => {
                    labels.fold_into(&mut label_totals);
                    failed = Some((input, passed + 1));
                    break;
                }
                Err(payload) => {
                    crashed += 1;
                    if first_crash.is_none() {
                        first_crash = Some(Crash {
                            input: Some(input),
                            message: panic_message(&*payload),
                            test: passed + crashed,
                        });
                    }
                }
            }
        }
        RunReport {
            passed,
            discarded,
            crashed,
            first_crash,
            failed,
            stopped: meter.exhaustion(),
            seed: self.seed,
            failed_index: None,
            spent: Spent {
                steps: meter.steps_used(),
                backtracks: meter.backtracks_used(),
                elapsed: start.elapsed(),
            },
            labels: label_totals,
            input_sizes,
        }
    }

    /// Measures throughput: runs tests until `budget` elapses (checking
    /// the clock every `batch` tests), returning the count and the
    /// exact elapsed time. Failures and discards still count as
    /// executed tests, matching the paper's tests-per-second metric.
    pub fn throughput(
        &self,
        budget: Duration,
        batch: usize,
        mut generate: impl FnMut(u64, &mut dyn rand::RngCore) -> Option<Vec<Value>>,
        mut property: impl FnMut(&[Value]) -> TestOutcome,
    ) -> Throughput {
        let mut rng = SmallRng::seed_from_u64(self.seed);
        let start = Instant::now();
        let mut tests = 0usize;
        loop {
            for _ in 0..batch {
                if let Some(input) = generate(self.size, &mut rng) {
                    let _ = property(&input);
                }
                tests += 1;
            }
            if start.elapsed() >= budget {
                break;
            }
        }
        Throughput {
            tests,
            elapsed: start.elapsed(),
        }
    }

    /// Runs `trials` independent bug hunts, each with a budget of
    /// `budget` tests, and reports the mean number of tests needed to
    /// find a counterexample.
    pub fn mean_tests_to_failure(
        &self,
        trials: usize,
        budget: usize,
        mut generate: impl FnMut(u64, &mut dyn rand::RngCore) -> Option<Vec<Value>>,
        mut property: impl FnMut(&[Value]) -> TestOutcome,
    ) -> MeanTestsToFailure {
        let mut failures = 0usize;
        let mut exhausted = 0usize;
        let mut total_tests = 0usize;
        for trial in 0..trials {
            let runner = Runner {
                seed: self
                    .seed
                    .wrapping_add(trial as u64)
                    .wrapping_mul(0x9E3779B9),
                ..*self
            };
            let report = runner.run(budget, &mut generate, &mut property);
            match report.failed {
                Some((_, n)) => {
                    failures += 1;
                    total_tests += n;
                }
                None => exhausted += 1,
            }
        }
        MeanTestsToFailure {
            failures,
            exhausted,
            mean: if failures == 0 {
                f64::NAN
            } else {
                total_tests as f64 / failures as f64
            },
        }
    }
}

/// Renders a caught panic payload; panics carry `&str` or `String`
/// payloads in practice.
fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng as _;

    fn gen_nat(size: u64, rng: &mut dyn rand::RngCore) -> Option<Vec<Value>> {
        Some(vec![Value::nat(rng.gen_range(0..=size))])
    }

    #[test]
    fn passing_property_runs_to_budget() {
        let r = Runner::new(1).run(500, gen_nat, |_| TestOutcome::Pass);
        assert_eq!(r.passed, 500);
        assert!(r.failed.is_none());
        assert_eq!(r.crashed, 0);
        assert!(r.stopped.is_none());
        assert_eq!(r.spent.steps, 500);
        assert!(r.to_string().contains("Passed"));
    }

    #[test]
    fn failing_property_reports_counterexample() {
        let r = Runner::new(1).with_size(100).run(10_000, gen_nat, |args| {
            TestOutcome::from_bool(args[0].as_nat().unwrap() < 90)
        });
        let (cex, n) = r.failed.clone().expect("should fail");
        assert!(cex[0].as_nat().unwrap() >= 90);
        assert!(n >= 1);
        assert!(r.to_string().contains("Failed"));
    }

    #[test]
    fn discards_bound_the_run() {
        let r = Runner::new(1).run(100, |_, _| None, |_| TestOutcome::Pass);
        assert_eq!(r.passed, 0);
        assert_eq!(r.discarded, 1000);
        assert_eq!(r.spent.backtracks, 1000);
    }

    #[test]
    fn from_check_maps_three_values() {
        assert_eq!(TestOutcome::from_check(Some(true)), TestOutcome::Pass);
        assert_eq!(TestOutcome::from_check(Some(false)), TestOutcome::Fail);
        assert_eq!(TestOutcome::from_check(None), TestOutcome::Discard);
    }

    #[test]
    fn runs_are_deterministic_per_seed() {
        let prop = |args: &[Value]| TestOutcome::from_bool(args[0].as_nat().unwrap() != 7);
        let a = Runner::new(9).with_size(10).run(1000, gen_nat, prop);
        let b = Runner::new(9).with_size(10).run(1000, gen_nat, prop);
        assert_eq!(a.failed.is_some(), b.failed.is_some());
        if let (Some((_, na)), Some((_, nb))) = (a.failed, b.failed) {
            assert_eq!(na, nb);
        }
    }

    #[test]
    fn throughput_counts_tests() {
        let t = Runner::new(1).throughput(Duration::from_millis(20), 64, gen_nat, |_| {
            TestOutcome::Pass
        });
        assert!(t.tests >= 64);
        assert!(t.tests_per_second() > 0.0);
    }

    #[test]
    fn mtf_finds_seeded_bug() {
        let m = Runner::new(5)
            .with_size(50)
            .mean_tests_to_failure(20, 10_000, gen_nat, |args| {
                TestOutcome::from_bool(
                    args[0].as_nat().unwrap() % 37 != 0 || args[0].as_nat().unwrap() == 0,
                )
            });
        assert!(m.failures > 0);
        assert!(m.mean >= 1.0);
    }

    #[test]
    fn mtf_reports_exhaustion() {
        let m = Runner::new(5).mean_tests_to_failure(3, 50, gen_nat, |_| TestOutcome::Pass);
        assert_eq!(m.failures, 0);
        assert_eq!(m.exhausted, 3);
        assert!(m.mean.is_nan());
    }

    #[test]
    fn panicking_property_is_isolated() {
        let _quiet = crate::chaos::silence_panics();
        let r = Runner::new(3).run(100, gen_nat, |args| {
            if args[0].as_nat().unwrap() == 0 {
                panic!("boom on zero");
            }
            TestOutcome::Pass
        });
        assert_eq!(r.passed + r.crashed, 100);
        assert!(r.crashed > 0, "size-10 nats must hit zero in 100 tests");
        assert!(r.failed.is_none());
        let crash = r.first_crash.clone().expect("crash recorded");
        assert_eq!(crash.input.unwrap()[0].as_nat(), Some(0));
        assert_eq!(crash.message, "boom on zero");
        assert!(crash.test >= 1 && crash.test <= 100);
        assert!(r.to_string().contains("crashed"));
    }

    #[test]
    fn panicking_generator_is_isolated() {
        let _quiet = crate::chaos::silence_panics();
        let mut calls = 0u64;
        let r = Runner::new(3).run(
            50,
            move |size, rng| {
                calls += 1;
                if calls.is_multiple_of(10) {
                    panic!("generator exploded");
                }
                gen_nat(size, rng)
            },
            |_| TestOutcome::Pass,
        );
        assert_eq!(r.passed + r.crashed, 50);
        assert_eq!(r.crashed, 5);
        let crash = r.first_crash.expect("crash recorded");
        assert!(crash.input.is_none(), "generator crash has no input");
        assert_eq!(crash.message, "generator exploded");
    }

    #[test]
    fn step_budget_stops_the_run() {
        let r = Runner::new(1)
            .with_budget(Budget::unlimited().with_steps(25))
            .run(100, gen_nat, |_| TestOutcome::Pass);
        assert_eq!(r.passed, 25);
        assert_eq!(
            r.stopped,
            Some(Exhaustion::Budget(indrel_producers::Resource::Steps))
        );
        assert_eq!(r.spent.steps, 25);
        assert!(r.to_string().contains("Gave up"));
    }

    #[test]
    fn backtrack_budget_bounds_discards() {
        let r = Runner::new(1)
            .with_budget(Budget::unlimited().with_backtracks(7))
            .run(100, |_, _| None, |_| TestOutcome::Pass);
        assert_eq!(r.discarded, 8);
        assert_eq!(
            r.stopped,
            Some(Exhaustion::Budget(indrel_producers::Resource::Backtracks))
        );
    }

    #[test]
    fn deadline_stops_a_slow_run() {
        let r = Runner::new(1)
            .with_budget(Budget::unlimited().with_deadline(Duration::from_millis(10)))
            .run(1_000_000, gen_nat, |_| {
                std::thread::sleep(Duration::from_millis(1));
                TestOutcome::Pass
            });
        assert!(r.passed < 1_000_000);
        assert_eq!(r.stopped, Some(Exhaustion::Deadline));
        assert!(r.spent.elapsed >= Duration::from_millis(10));
    }

    #[test]
    fn labels_count_pass_and_fail_verdicts_only() {
        let r = Runner::new(3).run_with(
            50,
            |_, rng| Some(vec![Value::nat(rand::Rng::gen_range(rng, 0..10u64))]),
            |args, labels| {
                let n = args[0].as_nat().unwrap();
                labels.collect(format!("parity={}", n % 2));
                labels.classify(n >= 5, "big");
                // duplicates within one test count once
                labels.classify(n >= 5, "big");
                if n == 7 {
                    TestOutcome::Discard // labels from discards are dropped
                } else {
                    TestOutcome::Pass
                }
            },
        );
        let verdicts: u64 = ["parity=0", "parity=1"]
            .iter()
            .map(|l| r.labels.get(*l).copied().unwrap_or(0))
            .sum();
        assert_eq!(verdicts, r.passed as u64);
        let big = r.labels.get("big").copied().unwrap_or(0);
        assert!(big <= r.passed as u64);
        assert_eq!(r.attempts(), r.passed + r.discarded);
    }

    #[test]
    fn input_sizes_recorded_per_generated_tuple() {
        let r = Runner::new(5).run(10, |_, _| Some(vec![Value::nat(3)]), |_| TestOutcome::Pass);
        assert_eq!(r.input_sizes.count, 10);
        assert_eq!(r.input_sizes.max, Value::nat(3).size());
    }

    #[test]
    fn huge_inputs_never_panic_the_runner_or_its_report() {
        // One input of 2^63 or more lands in the top log₂ bucket.
        let r = Runner::new(1).run(
            1,
            |_, _| Some(vec![Value::nat(1 << 63)]),
            |_| TestOutcome::Pass,
        );
        let s = r.to_string();
        assert!(
            s.ends_with(
                "input sizes: 9223372036854775808-18446744073709551615:1 \
                 (n=1, mean 9223372036854775808.0, max 9223372036854775808)"
            ),
            "{s}"
        );
        // A tuple's size saturates at u64::MAX, and the histogram's sum
        // wraps rather than overflowing, on both engines.
        let huge =
            |_: u64, _: &mut dyn rand::RngCore| Some(vec![Value::nat(u64::MAX), Value::nat(1)]);
        let seq = Runner::new(1).run(3, huge, |_| TestOutcome::Pass);
        let par = Runner::new(1)
            .with_parallelism(Parallelism::Fixed(2))
            .run_par(3, || (huge, |_: &[Value]| TestOutcome::Pass));
        for r in [seq, par] {
            assert_eq!(r.passed, 3);
            let s = r.to_string();
            assert!(
                s.contains("input sizes: 9223372036854775808-18446744073709551615:3 (n=3,"),
                "{s}"
            );
            assert!(s.ends_with(", max 18446744073709551615)"), "{s}");
        }
    }

    #[test]
    fn report_display_always_shows_observability_block() {
        let r = Runner::new(1).run(20, gen_nat, |_| TestOutcome::Pass);
        let s = r.to_string();
        assert!(s.contains("+++ Passed 20 tests (0 discards)"), "{s}");
        assert!(s.contains("crashed:   0"), "{s}");
        assert!(s.contains("discards:  0 of 20 attempts (0.0%)"), "{s}");
        assert!(s.contains("stopped:   no (ran to completion)"), "{s}");
        assert!(s.contains("spent:"), "{s}");
        assert!(s.contains("labels:    (none)"), "{s}");
        assert!(s.contains("input sizes:"), "{s}");
    }

    #[test]
    fn report_display_shows_labels_with_percentages() {
        let r = Runner::new(1).run_with(10, gen_nat, |_, labels| {
            labels.collect("always");
            TestOutcome::Pass
        });
        let s = r.to_string();
        assert!(s.contains("labels:"), "{s}");
        assert!(s.contains("100.0% always (10)"), "{s}");
    }

    #[test]
    fn budget_runs_are_deterministic() {
        let budget = Budget::unlimited().with_steps(40);
        let run = || {
            Runner::new(11)
                .with_budget(budget)
                .run(1000, gen_nat, |_| TestOutcome::Pass)
        };
        let (a, b) = (run(), run());
        assert_eq!(a.passed, b.passed);
        assert_eq!(a.stopped, b.stopped);
        assert_eq!(a.spent.steps, b.spent.steps);
    }
}
