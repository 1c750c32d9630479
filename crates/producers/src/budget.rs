//! Cross-cutting execution budgets for producers and checkers.
//!
//! Fuel (the `size` / `top_size` parameters threaded through every
//! producer) is a *semantic* bound: it is part of the paper's
//! definitions and determines **which** answer a checker or enumerator
//! computes. A [`Budget`] is an *operational* bound: it limits how much
//! work the execution layer may spend computing that answer — steps
//! taken, alternatives backtracked over, wall-clock time, and the size
//! of terms passed in — without changing the meaning of any answer that
//! is produced within the budget.
//!
//! Budgets are enforced through a [`Meter`]: a cheap, clonable handle
//! holding interior-mutable counters. Executors call
//! [`Meter::charge_step`] / [`Meter::charge_backtrack`] at their
//! work sites; the first failed charge *poisons* the meter, after which
//! every further charge fails immediately and executors unwind by
//! returning their ordinary "no answer" value (`None` for checkers,
//! stream end for enumerators). The entry point that armed the meter
//! then inspects [`Meter::exhaustion`] to distinguish a genuine answer
//! from a budget cut-off.

use std::cell::Cell;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A budgeted resource (everything except wall-clock time, which is
/// reported separately as a deadline).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Resource {
    /// Interpreter / VM steps.
    Steps,
    /// Abandoned alternatives in backtracking search.
    Backtracks,
    /// Constructor nodes in an argument term.
    TermSize,
}

impl std::fmt::Display for Resource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Resource::Steps => "steps",
            Resource::Backtracks => "backtracks",
            Resource::TermSize => "term size",
        })
    }
}

impl Resource {
    /// A JSON string literal (quoted, machine-readable identifier —
    /// `"steps"`, `"backtracks"`, `"term_size"`).
    pub fn to_json(&self) -> String {
        match self {
            Resource::Steps => r#""steps""#,
            Resource::Backtracks => r#""backtracks""#,
            Resource::TermSize => r#""term_size""#,
        }
        .to_string()
    }
}

/// Why a meter stopped admitting work.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Exhaustion {
    /// A countable resource ran out.
    Budget(Resource),
    /// The wall-clock deadline passed.
    Deadline,
}

impl std::fmt::Display for Exhaustion {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Exhaustion::Budget(r) => write!(f, "{r} budget exhausted"),
            Exhaustion::Deadline => f.write_str("deadline exceeded"),
        }
    }
}

impl Exhaustion {
    /// A JSON object tagging the cause:
    /// `{"kind":"budget","resource":"steps"}` or `{"kind":"deadline"}`.
    pub fn to_json(&self) -> String {
        match self {
            Exhaustion::Budget(r) => {
                format!(r#"{{"kind":"budget","resource":{}}}"#, r.to_json())
            }
            Exhaustion::Deadline => r#"{"kind":"deadline"}"#.to_string(),
        }
    }
}

/// Resource limits for one execution. `None` in any field means that
/// resource is unlimited; [`Budget::unlimited`] (also [`Default`])
/// limits nothing.
///
/// # Example
///
/// ```
/// use indrel_producers::budget::Budget;
/// use std::time::Duration;
/// let b = Budget::unlimited()
///     .with_steps(10_000)
///     .with_deadline(Duration::from_millis(50));
/// assert!(!b.is_unlimited());
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Budget {
    /// Maximum number of executor steps.
    pub steps: Option<u64>,
    /// Maximum number of abandoned backtracking alternatives.
    pub backtracks: Option<u64>,
    /// Wall-clock limit, measured from when the meter is created.
    pub deadline: Option<Duration>,
    /// Maximum size ([`constructor nodes`](Resource::TermSize)) of any
    /// single argument term.
    pub max_term_size: Option<u64>,
}

impl Budget {
    /// No limits at all.
    pub fn unlimited() -> Budget {
        Budget::default()
    }

    /// Caps executor steps.
    pub fn with_steps(mut self, steps: u64) -> Budget {
        self.steps = Some(steps);
        self
    }

    /// Caps abandoned backtracking alternatives.
    pub fn with_backtracks(mut self, backtracks: u64) -> Budget {
        self.backtracks = Some(backtracks);
        self
    }

    /// Sets a wall-clock deadline.
    pub fn with_deadline(mut self, deadline: Duration) -> Budget {
        self.deadline = Some(deadline);
        self
    }

    /// Caps the size of each argument term.
    pub fn with_max_term_size(mut self, size: u64) -> Budget {
        self.max_term_size = Some(size);
        self
    }

    /// True when no field imposes a limit.
    pub fn is_unlimited(&self) -> bool {
        *self == Budget::default()
    }

    /// A JSON object with one key per field; unlimited fields are
    /// `null`, the deadline is in milliseconds.
    pub fn to_json(&self) -> String {
        fn opt(v: Option<u64>) -> String {
            v.map_or_else(|| "null".to_string(), |v| v.to_string())
        }
        format!(
            r#"{{"steps":{},"backtracks":{},"deadline_ms":{},"max_term_size":{}}}"#,
            opt(self.steps),
            opt(self.backtracks),
            self.deadline
                .map_or_else(|| "null".to_string(), |d| d.as_millis().to_string()),
            opt(self.max_term_size)
        )
    }
}

impl std::fmt::Display for Budget {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_unlimited() {
            return f.write_str("unlimited");
        }
        let mut parts = Vec::new();
        if let Some(s) = self.steps {
            parts.push(format!("steps≤{s}"));
        }
        if let Some(b) = self.backtracks {
            parts.push(format!("backtracks≤{b}"));
        }
        if let Some(d) = self.deadline {
            parts.push(format!("deadline {d:?}"));
        }
        if let Some(t) = self.max_term_size {
            parts.push(format!("term size≤{t}"));
        }
        f.write_str(&parts.join(", "))
    }
}

/// How often [`Meter::charge_step`] polls the wall clock: checking
/// `Instant::now()` on every charge would dominate the cost of the
/// cheap charges, so the deadline is polled once per this many charges.
pub const DEADLINE_POLL_PERIOD: u32 = 16;

#[derive(Debug)]
struct MeterState {
    steps_left: Cell<u64>,
    backtracks_left: Cell<u64>,
    max_term_size: u64,
    deadline: Option<Instant>,
    charges: Cell<u32>,
    steps_used: Cell<u64>,
    backtracks_used: Cell<u64>,
    exhaustion: Cell<Option<Exhaustion>>,
}

/// A running account of a [`Budget`]. Clones share state (`Rc`), so one
/// meter can be threaded through nested executors and inspected at the
/// entry point afterwards.
///
/// A meter is *poisoned* by its first failed charge: every later charge
/// fails too, and [`Meter::exhaustion`] reports what ran out first.
#[derive(Clone, Debug)]
pub struct Meter {
    state: Rc<MeterState>,
}

impl Meter {
    /// Starts metering `budget`; the deadline clock starts now.
    pub fn new(budget: Budget) -> Meter {
        Meter {
            state: Rc::new(MeterState {
                steps_left: Cell::new(budget.steps.unwrap_or(u64::MAX)),
                backtracks_left: Cell::new(budget.backtracks.unwrap_or(u64::MAX)),
                max_term_size: budget.max_term_size.unwrap_or(u64::MAX),
                deadline: budget.deadline.map(|d| Instant::now() + d),
                charges: Cell::new(0),
                steps_used: Cell::new(0),
                backtracks_used: Cell::new(0),
                exhaustion: Cell::new(None),
            }),
        }
    }

    /// A meter that admits everything (still counts usage).
    pub fn unlimited() -> Meter {
        Meter::new(Budget::unlimited())
    }

    fn poison(&self, why: Exhaustion) -> bool {
        if self.state.exhaustion.get().is_none() {
            self.state.exhaustion.set(Some(why));
        }
        false
    }

    /// Polls the wall clock if a deadline is set; returns `false` (and
    /// poisons the meter) when the deadline has passed.
    pub fn check_deadline(&self) -> bool {
        if self.state.exhaustion.get().is_some() {
            return false;
        }
        match self.state.deadline {
            Some(deadline) if Instant::now() >= deadline => self.poison(Exhaustion::Deadline),
            _ => true,
        }
    }

    /// Charges one executor step. Returns `false` once the step budget
    /// or the deadline is exhausted (the deadline is polled every
    /// [`DEADLINE_POLL_PERIOD`] charges).
    #[inline]
    pub fn charge_step(&self) -> bool {
        let s = &*self.state;
        if s.exhaustion.get().is_some() {
            return false;
        }
        let left = s.steps_left.get();
        if left == 0 {
            return self.poison(Exhaustion::Budget(Resource::Steps));
        }
        s.steps_left.set(left - 1);
        s.steps_used.set(s.steps_used.get() + 1);
        if s.deadline.is_some() {
            let c = s.charges.get().wrapping_add(1);
            s.charges.set(c);
            if c.is_multiple_of(DEADLINE_POLL_PERIOD) {
                return self.check_deadline();
            }
        }
        true
    }

    /// Charges one abandoned backtracking alternative.
    #[inline]
    pub fn charge_backtrack(&self) -> bool {
        let s = &*self.state;
        if s.exhaustion.get().is_some() {
            return false;
        }
        let left = s.backtracks_left.get();
        if left == 0 {
            return self.poison(Exhaustion::Budget(Resource::Backtracks));
        }
        s.backtracks_left.set(left - 1);
        s.backtracks_used.set(s.backtracks_used.get() + 1);
        true
    }

    /// Admits or rejects an argument term of `size` constructor nodes.
    pub fn admit_term_size(&self, size: u64) -> bool {
        if self.state.exhaustion.get().is_some() {
            return false;
        }
        if size > self.state.max_term_size {
            return self.poison(Exhaustion::Budget(Resource::TermSize));
        }
        true
    }

    /// What poisoned the meter, if anything has.
    pub fn exhaustion(&self) -> Option<Exhaustion> {
        self.state.exhaustion.get()
    }

    /// True once any charge has failed.
    pub fn is_exhausted(&self) -> bool {
        self.state.exhaustion.get().is_some()
    }

    /// Steps successfully charged so far.
    pub fn steps_used(&self) -> u64 {
        self.state.steps_used.get()
    }

    /// Backtracks successfully charged so far.
    pub fn backtracks_used(&self) -> u64 {
        self.state.backtracks_used.get()
    }
}

// Exhaustion causes, encoded for the pool's first-wins atomic slot.
const EXH_NONE: u8 = 0;
const EXH_STEPS: u8 = 1;
const EXH_BACKTRACKS: u8 = 2;
const EXH_TERM_SIZE: u8 = 3;
const EXH_DEADLINE: u8 = 4;

fn decode_exhaustion(code: u8) -> Option<Exhaustion> {
    match code {
        EXH_NONE => None,
        EXH_STEPS => Some(Exhaustion::Budget(Resource::Steps)),
        EXH_BACKTRACKS => Some(Exhaustion::Budget(Resource::Backtracks)),
        EXH_TERM_SIZE => Some(Exhaustion::Budget(Resource::TermSize)),
        EXH_DEADLINE => Some(Exhaustion::Deadline),
        // Unreachable (panic audit): the exhaustion cell is private and
        // only ever stored with the four `EXH_*` codes above.
        _ => unreachable!("invalid exhaustion code {code}"),
    }
}

#[derive(Debug)]
struct PoolState {
    // `u64::MAX` means unlimited; drawn down by CAS otherwise.
    steps_left: AtomicU64,
    backtracks_left: AtomicU64,
    steps_used: AtomicU64,
    backtracks_used: AtomicU64,
    max_term_size: u64,
    deadline: Option<Instant>,
    // First-wins: set once by whichever worker hits a limit first.
    exhaustion: AtomicU8,
}

/// A thread-safe account of one shared [`Budget`], drawn from in chunks.
///
/// Where a [`Meter`] is a single-threaded running account (cheap `Cell`
/// counters, `Rc`-shared), a `BudgetPool` is its atomic counterpart for
/// parallel runs: clones share one pool (`Arc`), and each worker draws
/// a *chunk* of steps or backtracks into a thread-local cache with
/// [`BudgetPool::draw_steps`], charging the atomics once per chunk
/// instead of once per unit. Unused units are handed back with
/// [`BudgetPool::return_steps`] when the worker stops, so the
/// [`BudgetPool::steps_used`] totals are exact even though draws are
/// batched. The wall-clock deadline is polled per chunk refill
/// ([`BudgetPool::check_deadline`]), never on the per-unit hot path.
///
/// Like a meter, a pool is *poisoned* by the first failed draw (or
/// missed deadline): later draws return 0 immediately, and
/// [`BudgetPool::exhaustion`] reports what ran out first — first in
/// poisoning order, not wall-clock order of the underlying work.
///
/// # Example
///
/// ```
/// use indrel_producers::budget::{Budget, BudgetPool};
/// let pool = BudgetPool::new(Budget::unlimited().with_steps(100));
/// let got = pool.draw_steps(64); // a worker takes a chunk...
/// assert_eq!(got, 64);
/// pool.return_steps(got - 10); // ...uses 10, returns the rest.
/// assert_eq!(pool.steps_used(), 10);
/// ```
#[derive(Clone, Debug)]
pub struct BudgetPool {
    state: Arc<PoolState>,
}

impl BudgetPool {
    /// Starts pooling `budget`; the deadline clock starts now.
    pub fn new(budget: Budget) -> BudgetPool {
        BudgetPool {
            state: Arc::new(PoolState {
                steps_left: AtomicU64::new(budget.steps.unwrap_or(u64::MAX)),
                backtracks_left: AtomicU64::new(budget.backtracks.unwrap_or(u64::MAX)),
                steps_used: AtomicU64::new(0),
                backtracks_used: AtomicU64::new(0),
                max_term_size: budget.max_term_size.unwrap_or(u64::MAX),
                deadline: budget.deadline.map(|d| Instant::now() + d),
                exhaustion: AtomicU8::new(EXH_NONE),
            }),
        }
    }

    /// A pool that admits everything (still counts usage).
    pub fn unlimited() -> BudgetPool {
        BudgetPool::new(Budget::unlimited())
    }

    fn poison(&self, code: u8) {
        let _ = self.state.exhaustion.compare_exchange(
            EXH_NONE,
            code,
            Ordering::Relaxed,
            Ordering::Relaxed,
        );
    }

    // Draws up to `want` units from `left`, provisionally counting the
    // grant as used (the worker gives back leftovers via `ret`).
    fn draw(&self, left: &AtomicU64, used: &AtomicU64, want: u64, code: u8) -> u64 {
        if self.is_exhausted() || want == 0 {
            return 0;
        }
        let mut cur = left.load(Ordering::Relaxed);
        loop {
            if cur == u64::MAX {
                // Unlimited: no draw-down, so no CAS contention.
                used.fetch_add(want, Ordering::Relaxed);
                return want;
            }
            let take = want.min(cur);
            if take == 0 {
                self.poison(code);
                return 0;
            }
            match left.compare_exchange_weak(cur, cur - take, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => {
                    used.fetch_add(take, Ordering::Relaxed);
                    return take;
                }
                Err(seen) => cur = seen,
            }
        }
    }

    fn ret(&self, left: &AtomicU64, used: &AtomicU64, unused: u64) {
        if unused == 0 {
            return;
        }
        used.fetch_sub(unused, Ordering::Relaxed);
        if left.load(Ordering::Relaxed) != u64::MAX {
            left.fetch_add(unused, Ordering::Relaxed);
        }
    }

    /// Draws up to `want` steps; returns the number granted. A return
    /// of 0 (with `want > 0`) means the pool is exhausted and poisoned.
    pub fn draw_steps(&self, want: u64) -> u64 {
        let s = &*self.state;
        self.draw(&s.steps_left, &s.steps_used, want, EXH_STEPS)
    }

    /// Draws up to `want` backtracks; returns the number granted.
    pub fn draw_backtracks(&self, want: u64) -> u64 {
        let s = &*self.state;
        self.draw(&s.backtracks_left, &s.backtracks_used, want, EXH_BACKTRACKS)
    }

    /// Hands back steps drawn but not consumed, keeping usage exact.
    pub fn return_steps(&self, unused: u64) {
        let s = &*self.state;
        self.ret(&s.steps_left, &s.steps_used, unused);
    }

    /// Hands back backtracks drawn but not consumed.
    pub fn return_backtracks(&self, unused: u64) {
        let s = &*self.state;
        self.ret(&s.backtracks_left, &s.backtracks_used, unused);
    }

    /// Admits or rejects an argument term of `size` constructor nodes.
    pub fn admit_term_size(&self, size: u64) -> bool {
        if self.is_exhausted() {
            return false;
        }
        if size > self.state.max_term_size {
            self.poison(EXH_TERM_SIZE);
            return false;
        }
        true
    }

    /// Polls the wall clock if a deadline is set; returns `false` (and
    /// poisons the pool) when the deadline has passed. Intended to be
    /// called once per chunk refill, not per unit of work.
    pub fn check_deadline(&self) -> bool {
        if self.is_exhausted() {
            return false;
        }
        match self.state.deadline {
            Some(deadline) if Instant::now() >= deadline => {
                self.poison(EXH_DEADLINE);
                false
            }
            _ => true,
        }
    }

    /// What poisoned the pool, if anything has.
    pub fn exhaustion(&self) -> Option<Exhaustion> {
        decode_exhaustion(self.state.exhaustion.load(Ordering::Relaxed))
    }

    /// True once any draw has failed or the deadline has passed.
    pub fn is_exhausted(&self) -> bool {
        self.state.exhaustion.load(Ordering::Relaxed) != EXH_NONE
    }

    /// Steps drawn and not returned — exact once all workers have
    /// stopped and handed back their leftovers.
    pub fn steps_used(&self) -> u64 {
        self.state.steps_used.load(Ordering::Relaxed)
    }

    /// Backtracks drawn and not returned.
    pub fn backtracks_used(&self) -> u64 {
        self.state.backtracks_used.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_admits_everything() {
        let m = Meter::unlimited();
        for _ in 0..10_000 {
            assert!(m.charge_step());
        }
        assert!(m.charge_backtrack());
        assert!(m.admit_term_size(u64::MAX));
        assert_eq!(m.exhaustion(), None);
        assert_eq!(m.steps_used(), 10_000);
        assert_eq!(m.backtracks_used(), 1);
    }

    #[test]
    fn step_budget_poisons_at_limit() {
        let m = Meter::new(Budget::unlimited().with_steps(3));
        assert!(m.charge_step());
        assert!(m.charge_step());
        assert!(m.charge_step());
        assert!(!m.charge_step());
        assert_eq!(m.exhaustion(), Some(Exhaustion::Budget(Resource::Steps)));
        // Poisoned: every resource now refuses, but the cause is stable.
        assert!(!m.charge_backtrack());
        assert!(!m.admit_term_size(0));
        assert_eq!(m.exhaustion(), Some(Exhaustion::Budget(Resource::Steps)));
        assert_eq!(m.steps_used(), 3);
    }

    #[test]
    fn backtrack_budget_is_independent_of_steps() {
        let m = Meter::new(Budget::unlimited().with_backtracks(1));
        assert!(m.charge_step());
        assert!(m.charge_backtrack());
        assert!(!m.charge_backtrack());
        assert_eq!(
            m.exhaustion(),
            Some(Exhaustion::Budget(Resource::Backtracks))
        );
    }

    #[test]
    fn term_size_gate() {
        let m = Meter::new(Budget::unlimited().with_max_term_size(5));
        assert!(m.admit_term_size(5));
        assert!(!m.admit_term_size(6));
        assert_eq!(m.exhaustion(), Some(Exhaustion::Budget(Resource::TermSize)));
    }

    #[test]
    fn deadline_poisons_via_polling() {
        let m = Meter::new(Budget::unlimited().with_deadline(Duration::ZERO));
        // Deadline already passed; within DEADLINE_POLL_PERIOD charges
        // the poll must notice.
        let mut admitted = 0;
        while m.charge_step() {
            admitted += 1;
            assert!(admitted <= DEADLINE_POLL_PERIOD);
        }
        assert_eq!(m.exhaustion(), Some(Exhaustion::Deadline));
        assert!(!m.check_deadline());
    }

    #[test]
    fn clones_share_state() {
        let m = Meter::new(Budget::unlimited().with_steps(1));
        let n = m.clone();
        assert!(n.charge_step());
        assert!(!m.charge_step());
        assert_eq!(n.exhaustion(), Some(Exhaustion::Budget(Resource::Steps)));
    }

    #[test]
    fn budget_builder_and_display() {
        let b = Budget::unlimited()
            .with_steps(1)
            .with_backtracks(2)
            .with_deadline(Duration::from_millis(3))
            .with_max_term_size(4);
        assert!(!b.is_unlimited());
        assert!(Budget::default().is_unlimited());
        assert_eq!(
            Exhaustion::Budget(Resource::Steps).to_string(),
            "steps budget exhausted"
        );
        assert_eq!(Exhaustion::Deadline.to_string(), "deadline exceeded");
        assert_eq!(Resource::TermSize.to_string(), "term size");
        assert_eq!(
            b.to_string(),
            "steps≤1, backtracks≤2, deadline 3ms, term size≤4"
        );
        assert_eq!(Budget::unlimited().to_string(), "unlimited");
    }

    #[test]
    fn pool_draws_and_returns_exactly() {
        let pool = BudgetPool::new(Budget::unlimited().with_steps(100));
        assert_eq!(pool.draw_steps(64), 64);
        assert_eq!(pool.draw_steps(64), 36); // partial final chunk
        assert_eq!(pool.draw_steps(1), 0); // dry → poisoned
        assert_eq!(pool.exhaustion(), Some(Exhaustion::Budget(Resource::Steps)));
        pool.return_steps(30);
        assert_eq!(pool.steps_used(), 70);
        // Poisoning is first-wins even after a return frees capacity.
        assert_eq!(pool.draw_steps(1), 0);
    }

    #[test]
    fn pool_unlimited_never_draws_down() {
        let pool = BudgetPool::unlimited();
        assert_eq!(pool.draw_steps(1 << 40), 1 << 40);
        assert_eq!(pool.draw_backtracks(7), 7);
        pool.return_backtracks(3);
        assert_eq!(pool.steps_used(), 1 << 40);
        assert_eq!(pool.backtracks_used(), 4);
        assert!(pool.check_deadline());
        assert!(pool.admit_term_size(u64::MAX));
        assert_eq!(pool.exhaustion(), None);
    }

    #[test]
    fn pool_deadline_and_term_size_poison() {
        let pool = BudgetPool::new(Budget::unlimited().with_deadline(Duration::ZERO));
        assert!(!pool.check_deadline());
        assert_eq!(pool.exhaustion(), Some(Exhaustion::Deadline));
        assert_eq!(pool.draw_steps(1), 0);

        let pool = BudgetPool::new(Budget::unlimited().with_max_term_size(5));
        assert!(pool.admit_term_size(5));
        assert!(!pool.admit_term_size(6));
        assert_eq!(
            pool.exhaustion(),
            Some(Exhaustion::Budget(Resource::TermSize))
        );
    }

    #[test]
    fn pool_accounting_is_exact_across_threads() {
        let pool = BudgetPool::new(Budget::unlimited().with_steps(10_000));
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let pool = pool.clone();
                scope.spawn(move || loop {
                    let got = pool.draw_steps(64);
                    if got == 0 {
                        break;
                    }
                    // Pretend to consume half of each chunk.
                    pool.return_steps(got - got.div_ceil(2));
                });
            }
        });
        // Every drawn-and-kept unit is accounted for, none lost or
        // double-counted, regardless of thread interleaving.
        assert_eq!(pool.steps_used(), 10_000);
        assert!(pool.is_exhausted());
    }

    #[test]
    fn budget_json_round_trippable_shapes() {
        let b = Budget::unlimited()
            .with_steps(10)
            .with_deadline(Duration::from_millis(250));
        assert_eq!(
            b.to_json(),
            r#"{"steps":10,"backtracks":null,"deadline_ms":250,"max_term_size":null}"#
        );
        assert_eq!(
            Budget::unlimited().to_json(),
            r#"{"steps":null,"backtracks":null,"deadline_ms":null,"max_term_size":null}"#
        );
        assert_eq!(Resource::TermSize.to_json(), r#""term_size""#);
        assert_eq!(
            Exhaustion::Budget(Resource::Backtracks).to_json(),
            r#"{"kind":"budget","resource":"backtracks"}"#
        );
        assert_eq!(Exhaustion::Deadline.to_json(), r#"{"kind":"deadline"}"#);
    }
}
