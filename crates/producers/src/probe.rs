//! Search telemetry: structured events from the backtracking search.
//!
//! Derived checkers, enumerators, and generators are backtracking
//! search procedures, and both the paper's evaluation and real PBT use
//! depend on *where* that search spends its time — which rules are
//! attempted, where unification fails, how often generation backtracks,
//! and what the produced terms look like. A [`Meter`] answers "how
//! much" (and cuts the search off); an [`ExecProbe`] answers "where":
//! a sink for [`Event`]s emitted at the same executor sites the budget
//! work instruments, with a [`ExecProbe::NoProbe`] default that records
//! nothing and costs one flag check per site.
//!
//! Two concrete probes ship:
//!
//! * [`SearchStats`] — per-rule attempt/success/backtrack counters,
//!   choice-point-depth and produced-term-size histograms, and
//!   unification-failure sites, with a human-readable [`Display`] table;
//!   [`SearchStats::snapshot`] exports the same counters as a
//!   [`MetricsSnapshot`], the one export format for aggregate telemetry;
//! * [`TraceProbe`] — a bounded ring buffer of raw events, dumpable as
//!   JSON lines for post-mortem "why did this check return `None` /
//!   why is this generator slow" debugging.
//!
//! Probes identify relations and rules by [`RelId`] and rule index; a
//! [`NameTable`] (installed by whoever arms the probe) maps those to
//! source names for display and export.
//!
//! [`Meter`]: crate::budget::Meter
//! [`Display`]: std::fmt::Display

use crate::metrics::{Determinism, HistogramSnapshot, MetricsSnapshot};
use indrel_term::RelId;
use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Which executor family emitted an event.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ExecKind {
    /// The three-valued checker (Figure 1).
    Checker,
    /// The lazy enumerator (Figure 2).
    Enumerator,
    /// The random generator (QuickChick `backtrack`).
    Generator,
}

impl ExecKind {
    /// Lower-case label, used in output.
    pub fn label(self) -> &'static str {
        match self {
            ExecKind::Checker => "checker",
            ExecKind::Enumerator => "enumerator",
            ExecKind::Generator => "generator",
        }
    }
}

/// Where inside a rule a unification failure happened.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FailSite {
    /// The conclusion's input patterns did not match the arguments.
    Inputs,
    /// Plan step `step` (an equality check or a reconciliation match)
    /// conclusively failed.
    Step(u32),
}

impl fmt::Display for FailSite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FailSite::Inputs => f.write_str("inputs"),
            FailSite::Step(i) => write!(f, "step{i}"),
        }
    }
}

/// One structured instrumentation event. Events are cheap (`Copy`) and
/// constructed lazily — an unarmed probe never builds them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Event {
    /// An executor entered a relation: one checker or generator
    /// recursion, or the creation of one enumerator stream. `depth` is
    /// the number of executor entries currently on the stack — the
    /// choice-point depth of this entry.
    Enter {
        /// The relation entered.
        rel: RelId,
        /// Which executor family.
        kind: ExecKind,
        /// Current nesting depth (0 for a top-level call).
        depth: u32,
    },
    /// A rule (handler) was attempted.
    RuleAttempt {
        /// The relation searched.
        rel: RelId,
        /// Handler index within the relation's plan.
        rule: u32,
    },
    /// A rule conclusively succeeded.
    RuleSuccess {
        /// The relation searched.
        rel: RelId,
        /// Handler index.
        rule: u32,
    },
    /// Unification conclusively failed inside a rule.
    UnifyFail {
        /// The relation searched.
        rel: RelId,
        /// Handler index.
        rule: u32,
        /// Which pattern/equality failed.
        site: FailSite,
    },
    /// A rule was abandoned and the search moved to an alternative —
    /// the same notion the budget layer charges as a backtrack.
    Backtrack {
        /// The relation searched.
        rel: RelId,
        /// The abandoned handler index.
        rule: u32,
    },
    /// A producer delivered an output tuple of `size` total constructor
    /// nodes.
    TermProduced {
        /// The producing relation.
        rel: RelId,
        /// Summed [`Value::size`](indrel_term::Value::size) of the
        /// output tuple.
        size: u64,
    },
    /// The constructor dispatch index pruned `skipped` rules for one
    /// checker entry without attempting them.
    IndexSkip {
        /// The relation dispatched on.
        rel: RelId,
        /// Rules pruned (their input patterns provably cannot match).
        skipped: u32,
    },
    /// One premise (plan step) of one rule was evaluated — the cost
    /// attribution behind `explain()`'s estimated-vs-observed table.
    Premise {
        /// The relation whose rule ran.
        rel: RelId,
        /// Handler index within the relation's plan.
        rule: u32,
        /// Plan-step index of the premise.
        step: u32,
        /// Search entries spent evaluating the premise (the same unit
        /// the budget layer charges as steps).
        cost: u64,
        /// `true` when the premise conclusively failed.
        failed: bool,
    },
}

/// Maps [`RelId`]s and rule indices to source names, for display and
/// export. Installed into a probe by whoever arms it (the library knows
/// the names; the probe does not).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct NameTable {
    /// Relation names, indexed by `RelId::index()`.
    pub rels: Vec<String>,
    /// Rule (constructor) names per relation, in handler order.
    pub rules: Vec<Vec<String>>,
}

impl NameTable {
    /// The relation's name, or a positional placeholder.
    pub fn rel(&self, rel: RelId) -> String {
        self.rels
            .get(rel.index())
            .cloned()
            .unwrap_or_else(|| format!("rel#{}", rel.index()))
    }

    /// A rule's name, or a positional placeholder.
    pub fn rule(&self, rel: RelId, rule: u32) -> String {
        self.rules
            .get(rel.index())
            .and_then(|rs| rs.get(rule as usize))
            .cloned()
            .unwrap_or_else(|| format!("rule#{rule}"))
    }
}

// Probe sinks tolerate panics in instrumented executors (the PBT layer
// isolates them with `catch_unwind`), and a panicking metric registrant
// leaves the registry's maps whole: no update leaves a torn state, so a
// poisoned lock is safe to keep reading.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Escapes a string for inclusion in a JSON string literal (without the
/// surrounding quotes). Covers the characters that can actually occur
/// in relation/rule names and panic messages; other control characters
/// are emitted as `\u00XX`.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Per-rule counters accumulated by [`SearchStats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RuleStats {
    /// Times the rule was attempted.
    pub attempts: u64,
    /// Times it conclusively succeeded.
    pub successes: u64,
    /// Times it was abandoned for an alternative.
    pub backtracks: u64,
}

/// Per-premise cost counters accumulated by [`SearchStats`] from
/// [`Event::Premise`] — the observed side of the estimated-vs-observed
/// cost table `explain()` renders.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PremiseStats {
    /// Times the premise was evaluated.
    pub evals: u64,
    /// Total search entries spent evaluating it.
    pub cost: u64,
    /// Times it conclusively failed.
    pub failures: u64,
}

impl PremiseStats {
    /// Mean search entries per evaluation (0 when never evaluated).
    pub fn mean_cost(&self) -> f64 {
        if self.evals == 0 {
            0.0
        } else {
            self.cost as f64 / self.evals as f64
        }
    }

    /// Fraction of evaluations that failed (0 when never evaluated) —
    /// the selectivity signal for premise scheduling.
    pub fn failure_rate(&self) -> f64 {
        if self.evals == 0 {
            0.0
        } else {
            self.failures as f64 / self.evals as f64
        }
    }
}

#[derive(Clone, Debug, Default)]
struct StatsState {
    names: NameTable,
    /// Keyed by `(rel index, rule index)` — `BTreeMap` so iteration
    /// (and hence all output) is deterministic.
    rules: BTreeMap<(u32, u32), RuleStats>,
    /// Unification-failure counts keyed by `(rel, rule, site)`.
    fails: BTreeMap<(u32, u32, FailSite), u64>,
    /// Premise cost attribution keyed by `(rel, rule, step)`.
    premises: BTreeMap<(u32, u32, u32), PremiseStats>,
    /// Executor entries per [`ExecKind`] (indexed by discriminant).
    enters: [u64; 3],
    depths: HistogramSnapshot,
    term_sizes: HistogramSnapshot,
    events: u64,
    /// Total rules pruned by the dispatch index (sum of `skipped`).
    index_skipped: u64,
}

/// An aggregating probe: counters and histograms over the whole search,
/// with a [`Display`](fmt::Display) table and a deterministic
/// [`SearchStats::snapshot`]. Clones share state (`Arc<Mutex>`, so the
/// sink is `Send + Sync`): keep a handle and read it after the armed
/// run finishes. For parallel runs, give each worker its own
/// accumulator and fold them together with [`SearchStats::merge_from`]
/// rather than sharing one sink — that keeps the hot path uncontended
/// and the aggregate deterministic.
#[derive(Clone, Debug, Default)]
pub struct SearchStats {
    state: Arc<Mutex<StatsState>>,
}

impl SearchStats {
    /// An empty accumulator.
    pub fn new() -> SearchStats {
        SearchStats::default()
    }

    /// Installs the name table used for display and export.
    pub fn set_names(&self, names: NameTable) {
        lock(&self.state).names = names;
    }

    /// Records one event.
    pub fn record(&self, e: Event) {
        let mut s = lock(&self.state);
        s.events += 1;
        match e {
            Event::Enter { kind, depth, .. } => {
                s.enters[kind as usize] += 1;
                s.depths.record(u64::from(depth));
            }
            Event::RuleAttempt { rel, rule } => {
                s.rules
                    .entry((rel.index() as u32, rule))
                    .or_default()
                    .attempts += 1;
            }
            Event::RuleSuccess { rel, rule } => {
                s.rules
                    .entry((rel.index() as u32, rule))
                    .or_default()
                    .successes += 1;
            }
            Event::Backtrack { rel, rule } => {
                s.rules
                    .entry((rel.index() as u32, rule))
                    .or_default()
                    .backtracks += 1;
            }
            Event::UnifyFail { rel, rule, site } => {
                *s.fails.entry((rel.index() as u32, rule, site)).or_default() += 1;
            }
            Event::TermProduced { size, .. } => {
                s.term_sizes.record(size);
            }
            Event::IndexSkip { skipped, .. } => s.index_skipped += u64::from(skipped),
            Event::Premise {
                rel,
                rule,
                step,
                cost,
                failed,
            } => {
                let p = s
                    .premises
                    .entry((rel.index() as u32, rule, step))
                    .or_default();
                p.evals += 1;
                p.cost += cost;
                p.failures += u64::from(failed);
            }
        }
    }

    /// Folds another accumulator's counters into this one. All counters
    /// and histogram buckets add, so merging per-worker stats from a
    /// parallel run is associative and commutative — the aggregate is
    /// independent of worker scheduling and merge order. The name table
    /// of `self` is kept (`other`'s is ignored).
    pub fn merge_from(&self, other: &SearchStats) {
        // Take a copy first so merging a stats handle into itself (or a
        // clone sharing its state) cannot deadlock.
        let o = lock(&other.state).clone();
        let mut s = lock(&self.state);
        for (key, r) in o.rules {
            let dst = s.rules.entry(key).or_default();
            dst.attempts += r.attempts;
            dst.successes += r.successes;
            dst.backtracks += r.backtracks;
        }
        for (key, count) in o.fails {
            *s.fails.entry(key).or_default() += count;
        }
        for (dst, src) in s.enters.iter_mut().zip(o.enters) {
            *dst += src;
        }
        s.depths.merge(&o.depths);
        s.term_sizes.merge(&o.term_sizes);
        s.events += o.events;
        s.index_skipped += o.index_skipped;
        for (key, p) in o.premises {
            let dst = s.premises.entry(key).or_default();
            dst.evals += p.evals;
            dst.cost += p.cost;
            dst.failures += p.failures;
        }
    }

    /// Total events recorded.
    pub fn events(&self) -> u64 {
        lock(&self.state).events
    }

    /// Executor entries for one family — the search's "steps" as the
    /// budget layer counts them (checker/generator recursions,
    /// enumerator stream creations).
    pub fn enters(&self, kind: ExecKind) -> u64 {
        lock(&self.state).enters[kind as usize]
    }

    /// Executor entries across all families.
    pub fn total_enters(&self) -> u64 {
        lock(&self.state).enters.iter().sum()
    }

    /// Rule attempts across all rules.
    pub fn total_attempts(&self) -> u64 {
        lock(&self.state).rules.values().map(|r| r.attempts).sum()
    }

    /// Rule successes across all rules.
    pub fn total_successes(&self) -> u64 {
        lock(&self.state).rules.values().map(|r| r.successes).sum()
    }

    /// Abandoned rules across all rules.
    pub fn total_backtracks(&self) -> u64 {
        lock(&self.state).rules.values().map(|r| r.backtracks).sum()
    }

    /// Unification failures across all sites.
    pub fn total_unify_fails(&self) -> u64 {
        lock(&self.state).fails.values().sum()
    }

    /// Rules pruned by the constructor dispatch index (summed over all
    /// checker entries).
    pub fn index_skipped(&self) -> u64 {
        lock(&self.state).index_skipped
    }

    /// Premise cost attribution for one relation, as
    /// `(rule, step, stats)` in deterministic `(rule, step)` order.
    pub fn premise_stats(&self, rel: RelId) -> Vec<(u32, u32, PremiseStats)> {
        let want = rel.index() as u32;
        lock(&self.state)
            .premises
            .iter()
            .filter(|((r, _, _), _)| *r == want)
            .map(|((_, rule, step), p)| (*rule, *step, *p))
            .collect()
    }

    /// Counters for one `(rel, rule)` pair.
    pub fn rule_stats(&self, rel: RelId, rule: u32) -> RuleStats {
        lock(&self.state)
            .rules
            .get(&(rel.index() as u32, rule))
            .copied()
            .unwrap_or_default()
    }

    /// The choice-point-depth histogram.
    pub fn depth_hist(&self) -> HistogramSnapshot {
        lock(&self.state).depths.clone()
    }

    /// The produced-term-size histogram.
    pub fn term_size_hist(&self) -> HistogramSnapshot {
        lock(&self.state).term_sizes.clone()
    }

    /// The `n` most frequent unification-failure sites, as
    /// `(description, count)`, ties broken by site key so the order is
    /// deterministic.
    pub fn top_fail_sites(&self, n: usize) -> Vec<(String, u64)> {
        let s = lock(&self.state);
        let mut sites: Vec<(&(u32, u32, FailSite), &u64)> = s.fails.iter().collect();
        sites.sort_by(|a, b| b.1.cmp(a.1).then(a.0.cmp(b.0)));
        sites
            .into_iter()
            .take(n)
            .map(|((rel, rule, site), count)| {
                let rel = RelId::new(*rel as usize);
                (
                    format!(
                        "{}.{}[{}]",
                        s.names.rel(rel),
                        s.names.rule(rel, *rule),
                        site
                    ),
                    *count,
                )
            })
            .collect()
    }

    /// Every counter and both histograms as a [`MetricsSnapshot`], all
    /// [`Determinism::Deterministic`]: the same workload gives
    /// byte-identical [`MetricsSnapshot::deterministic_json`]. Series
    /// name relations through the installed [`NameTable`] and rules by
    /// handler index:
    ///
    /// * `search.events`, `search.enters.{checker,enumerator,generator}`
    ///   and `search.index_skipped`, present even when 0;
    /// * `rule.<rel>.<i>.{attempts,successes,backtracks}`;
    /// * `premise.<rel>.<i>.<step>.{evals,cost,failures}`;
    /// * `unify_fail.<rel>.<i>.<site>`, `site` being `inputs` or `stepN`;
    /// * the histograms `search.depth` and `search.term_size`.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let s = lock(&self.state);
        let det = Determinism::Deterministic;
        let mut snap = MetricsSnapshot::new();
        let mut counter = |name: String, v: u64| snap.insert_counter(&name, v, det);
        counter("search.events".into(), s.events);
        for kind in [ExecKind::Checker, ExecKind::Enumerator, ExecKind::Generator] {
            counter(
                format!("search.enters.{}", kind.label()),
                s.enters[kind as usize],
            );
        }
        counter("search.index_skipped".into(), s.index_skipped);
        let rel = |r: u32| s.names.rel(RelId::new(r as usize));
        for ((r, rule), st) in &s.rules {
            let at = format!("rule.{}.{rule}", rel(*r));
            counter(format!("{at}.attempts"), st.attempts);
            counter(format!("{at}.successes"), st.successes);
            counter(format!("{at}.backtracks"), st.backtracks);
        }
        for ((r, rule, step), p) in &s.premises {
            let at = format!("premise.{}.{rule}.{step}", rel(*r));
            counter(format!("{at}.evals"), p.evals);
            counter(format!("{at}.cost"), p.cost);
            counter(format!("{at}.failures"), p.failures);
        }
        for ((r, rule, site), n) in &s.fails {
            counter(format!("unify_fail.{}.{rule}.{site}", rel(*r)), *n);
        }
        snap.insert_histogram("search.depth", s.depths.clone(), det);
        snap.insert_histogram("search.term_size", s.term_sizes.clone(), det);
        snap
    }
}

impl fmt::Display for SearchStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = lock(&self.state);
        writeln!(
            f,
            "search stats: {} events ({} checker / {} enumerator / {} generator entries)",
            s.events,
            s.enters[ExecKind::Checker as usize],
            s.enters[ExecKind::Enumerator as usize],
            s.enters[ExecKind::Generator as usize]
        )?;
        writeln!(
            f,
            "  {:<24} {:>10} {:>10} {:>10}",
            "rule", "attempts", "successes", "backtracks"
        )?;
        for ((rel, rule), r) in &s.rules {
            let id = RelId::new(*rel as usize);
            writeln!(
                f,
                "  {:<24} {:>10} {:>10} {:>10}",
                format!("{}.{}", s.names.rel(id), s.names.rule(id, *rule)),
                r.attempts,
                r.successes,
                r.backtracks
            )?;
        }
        if s.index_skipped > 0 {
            writeln!(f, "  index pruned {} rules", s.index_skipped)?;
        }
        if !s.premises.is_empty() {
            writeln!(
                f,
                "  {:<30} {:>8} {:>10} {:>9} {:>8}",
                "premise", "evals", "cost", "mean", "fail%"
            )?;
            for ((rel, rule, step), p) in &s.premises {
                let id = RelId::new(*rel as usize);
                writeln!(
                    f,
                    "  {:<30} {:>8} {:>10} {:>9.1} {:>7.1}%",
                    format!(
                        "{}.{}[step{step}]",
                        s.names.rel(id),
                        s.names.rule(id, *rule)
                    ),
                    p.evals,
                    p.cost,
                    p.mean_cost(),
                    100.0 * p.failure_rate()
                )?;
            }
        }
        drop(s);
        let fails = self.top_fail_sites(5);
        if !fails.is_empty() {
            writeln!(f, "  top unification failures:")?;
            for (site, count) in fails {
                writeln!(f, "    {site:<30} {count:>8}")?;
            }
        }
        writeln!(f, "  depth:     {}", self.depth_hist())?;
        write!(f, "  term size: {}", self.term_size_hist())
    }
}

/// A bounded ring buffer of raw [`Event`]s with monotonically
/// increasing sequence numbers; when full, the oldest events are
/// dropped (and counted). Dump with [`TraceProbe::to_json_lines`].
#[derive(Clone, Debug)]
pub struct TraceProbe {
    state: Arc<Mutex<TraceState>>,
}

#[derive(Debug)]
struct TraceState {
    names: NameTable,
    capacity: usize,
    next_seq: u64,
    dropped: u64,
    buf: VecDeque<(u64, Event)>,
}

impl TraceProbe {
    /// A trace buffer holding at most `capacity` events.
    pub fn new(capacity: usize) -> TraceProbe {
        TraceProbe {
            state: Arc::new(Mutex::new(TraceState {
                names: NameTable::default(),
                capacity: capacity.max(1),
                next_seq: 0,
                dropped: 0,
                buf: VecDeque::new(),
            })),
        }
    }

    /// Installs the name table used for export.
    pub fn set_names(&self, names: NameTable) {
        lock(&self.state).names = names;
    }

    /// Records one event, evicting the oldest when full.
    pub fn record(&self, e: Event) {
        let mut s = lock(&self.state);
        if s.buf.len() == s.capacity {
            s.buf.pop_front();
            s.dropped += 1;
        }
        let seq = s.next_seq;
        s.next_seq += 1;
        s.buf.push_back((seq, e));
    }

    /// Events currently buffered.
    pub fn len(&self) -> usize {
        lock(&self.state).buf.len()
    }

    /// `true` when nothing has been recorded (or everything dropped).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events evicted from the ring so far.
    pub fn dropped(&self) -> u64 {
        lock(&self.state).dropped
    }

    /// The ring's capacity (events retained before eviction starts).
    pub fn capacity(&self) -> usize {
        lock(&self.state).capacity
    }

    /// The buffered events, oldest first.
    pub fn events(&self) -> Vec<Event> {
        lock(&self.state).buf.iter().map(|(_, e)| *e).collect()
    }

    /// The buffered events as JSON lines (one object per line, oldest
    /// first), for post-mortem analysis with ordinary line tools. Every
    /// line carries its `seq`, and the first buffered `seq` equals the
    /// number of evicted events, so a truncated dump shows itself.
    pub fn to_json_lines(&self) -> String {
        let s = lock(&self.state);
        let mut out = String::new();
        for (seq, e) in &s.buf {
            out.push_str(&event_json(*seq, e, &s.names));
            out.push('\n');
        }
        out
    }
}

impl fmt::Display for TraceProbe {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = lock(&self.state);
        write!(
            f,
            "trace: {} buffered / {} capacity, {} dropped, next seq {}",
            s.buf.len(),
            s.capacity,
            s.dropped,
            s.next_seq
        )
    }
}

fn event_json(seq: u64, e: &Event, names: &NameTable) -> String {
    match e {
        Event::Enter { rel, kind, depth } => format!(
            r#"{{"seq":{seq},"event":"enter","rel":"{}","kind":"{}","depth":{depth}}}"#,
            json_escape(&names.rel(*rel)),
            kind.label()
        ),
        Event::RuleAttempt { rel, rule } => format!(
            r#"{{"seq":{seq},"event":"rule_attempt","rel":"{}","rule":"{}"}}"#,
            json_escape(&names.rel(*rel)),
            json_escape(&names.rule(*rel, *rule))
        ),
        Event::RuleSuccess { rel, rule } => format!(
            r#"{{"seq":{seq},"event":"rule_success","rel":"{}","rule":"{}"}}"#,
            json_escape(&names.rel(*rel)),
            json_escape(&names.rule(*rel, *rule))
        ),
        Event::UnifyFail { rel, rule, site } => format!(
            r#"{{"seq":{seq},"event":"unify_fail","rel":"{}","rule":"{}","site":"{site}"}}"#,
            json_escape(&names.rel(*rel)),
            json_escape(&names.rule(*rel, *rule))
        ),
        Event::Backtrack { rel, rule } => format!(
            r#"{{"seq":{seq},"event":"backtrack","rel":"{}","rule":"{}"}}"#,
            json_escape(&names.rel(*rel)),
            json_escape(&names.rule(*rel, *rule))
        ),
        Event::TermProduced { rel, size } => format!(
            r#"{{"seq":{seq},"event":"term_produced","rel":"{}","size":{size}}}"#,
            json_escape(&names.rel(*rel))
        ),
        Event::IndexSkip { rel, skipped } => format!(
            r#"{{"seq":{seq},"event":"index_skip","rel":"{}","skipped":{skipped}}}"#,
            json_escape(&names.rel(*rel))
        ),
        Event::Premise {
            rel,
            rule,
            step,
            cost,
            failed,
        } => format!(
            r#"{{"seq":{seq},"event":"premise","rel":"{}","rule":"{}","step":{step},"cost":{cost},"failed":{failed}}}"#,
            json_escape(&names.rel(*rel)),
            json_escape(&names.rule(*rel, *rule))
        ),
    }
}

/// The probe sink the executors dispatch to. Enum dispatch (not a trait
/// object) keeps the unarmed path a plain match on a unit variant.
#[derive(Clone, Debug, Default)]
pub enum ExecProbe {
    /// Record nothing (the default).
    #[default]
    NoProbe,
    /// Aggregate into a [`SearchStats`].
    Stats(SearchStats),
    /// Buffer raw events in a [`TraceProbe`].
    Trace(TraceProbe),
    /// Both at once.
    Both(SearchStats, TraceProbe),
}

impl ExecProbe {
    /// A probe feeding the given accumulator (clone-shared).
    pub fn stats(stats: &SearchStats) -> ExecProbe {
        ExecProbe::Stats(stats.clone())
    }

    /// A probe feeding the given trace buffer (clone-shared).
    pub fn trace(trace: &TraceProbe) -> ExecProbe {
        ExecProbe::Trace(trace.clone())
    }

    /// A probe feeding both sinks.
    pub fn both(stats: &SearchStats, trace: &TraceProbe) -> ExecProbe {
        ExecProbe::Both(stats.clone(), trace.clone())
    }

    /// `false` for [`ExecProbe::NoProbe`].
    pub fn is_armed(&self) -> bool {
        !matches!(self, ExecProbe::NoProbe)
    }

    /// Dispatches one event to the sink(s).
    #[inline]
    pub fn record(&self, e: Event) {
        match self {
            ExecProbe::NoProbe => {}
            ExecProbe::Stats(s) => s.record(e),
            ExecProbe::Trace(t) => t.record(e),
            ExecProbe::Both(s, t) => {
                s.record(e);
                t.record(e);
            }
        }
    }

    /// Installs `names` into every sink.
    pub fn set_names(&self, names: &NameTable) {
        match self {
            ExecProbe::NoProbe => {}
            ExecProbe::Stats(s) => s.set_names(names.clone()),
            ExecProbe::Trace(t) => t.set_names(names.clone()),
            ExecProbe::Both(s, t) => {
                s.set_names(names.clone());
                t.set_names(names.clone());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names() -> NameTable {
        NameTable {
            rels: vec!["bst".into()],
            rules: vec![vec!["bst_leaf".into(), "bst_node".into()]],
        }
    }

    #[test]
    fn stats_accumulate_and_export_deterministically() {
        let stats = SearchStats::new();
        stats.set_names(names());
        let rel = RelId::new(0);
        stats.record(Event::Enter {
            rel,
            kind: ExecKind::Checker,
            depth: 0,
        });
        stats.record(Event::RuleAttempt { rel, rule: 0 });
        stats.record(Event::UnifyFail {
            rel,
            rule: 0,
            site: FailSite::Inputs,
        });
        stats.record(Event::Backtrack { rel, rule: 0 });
        stats.record(Event::RuleAttempt { rel, rule: 1 });
        stats.record(Event::RuleSuccess { rel, rule: 1 });
        stats.record(Event::TermProduced { rel, size: 5 });
        stats.record(Event::IndexSkip { rel, skipped: 3 });
        assert_eq!(stats.events(), 8);
        assert_eq!(stats.index_skipped(), 3);
        assert_eq!(stats.total_attempts(), 2);
        assert_eq!(stats.total_successes(), 1);
        assert_eq!(stats.total_backtracks(), 1);
        assert_eq!(stats.total_unify_fails(), 1);
        assert_eq!(stats.enters(ExecKind::Checker), 1);
        assert_eq!(stats.rule_stats(rel, 1).successes, 1);
        assert_eq!(
            stats.top_fail_sites(3),
            vec![("bst.bst_leaf[inputs]".into(), 1)]
        );
        let snap = stats.snapshot();
        assert_eq!(snap.counter("rule.bst.1.attempts"), Some(1));
        assert_eq!(snap.counter("rule.bst.1.successes"), Some(1));
        assert_eq!(snap.counter("unify_fail.bst.0.inputs"), Some(1));
        assert_eq!(snap.counter("search.index_skipped"), Some(3));
        assert_eq!(
            snap.deterministic_json(),
            stats.snapshot().deterministic_json(),
            "export is stable"
        );
        let table = stats.to_string();
        assert!(table.contains("bst.bst_node"));
        assert!(table.contains("top unification failures"));
    }

    /// At least one event of every [`Event`] variant, several counters
    /// hit more than once, and samples in both histograms.
    fn every_variant() -> Vec<Event> {
        let rel = RelId::new(0);
        vec![
            Event::Enter {
                rel,
                kind: ExecKind::Checker,
                depth: 0,
            },
            Event::Enter {
                rel,
                kind: ExecKind::Checker,
                depth: 3,
            },
            Event::Enter {
                rel,
                kind: ExecKind::Enumerator,
                depth: 1,
            },
            Event::Enter {
                rel,
                kind: ExecKind::Generator,
                depth: 12,
            },
            Event::RuleAttempt { rel, rule: 0 },
            Event::UnifyFail {
                rel,
                rule: 0,
                site: FailSite::Inputs,
            },
            Event::Backtrack { rel, rule: 0 },
            Event::RuleAttempt { rel, rule: 1 },
            Event::UnifyFail {
                rel,
                rule: 1,
                site: FailSite::Step(2),
            },
            Event::UnifyFail {
                rel,
                rule: 1,
                site: FailSite::Step(2),
            },
            Event::RuleSuccess { rel, rule: 1 },
            Event::TermProduced { rel, size: 5 },
            Event::TermProduced { rel, size: 40 },
            Event::IndexSkip { rel, skipped: 3 },
            Event::Premise {
                rel,
                rule: 1,
                step: 2,
                cost: 5,
                failed: false,
            },
            Event::Premise {
                rel,
                rule: 1,
                step: 2,
                cost: 7,
                failed: true,
            },
        ]
    }

    #[test]
    fn stats_display_is_golden() {
        let stats = SearchStats::new();
        stats.set_names(names());
        for e in every_variant() {
            stats.record(e);
        }
        let want = "\
search stats: 16 events (2 checker / 1 enumerator / 1 generator entries)
  rule                       attempts  successes backtracks
  bst.bst_leaf                      1          0          1
  bst.bst_node                      1          1          0
  index pruned 3 rules
  premise                           evals       cost      mean    fail%
  bst.bst_node[step2]                   2         12       6.0    50.0%
  top unification failures:
    bst.bst_node[step2]                   2
    bst.bst_leaf[inputs]                  1
  depth:     0:1 1:1 2-3:1 8-15:1 (n=4, mean 4.0, max 12)
  term size: 4-7:1 32-63:1 (n=2, mean 22.5, max 40)";
        assert_eq!(stats.to_string(), want);
    }

    #[test]
    fn snapshot_carries_every_counter() {
        let det = |snap: &MetricsSnapshot| snap.deterministic_json();
        // Scalar series are present even when nothing was recorded, and
        // they are all search series.
        assert_eq!(
            det(&SearchStats::new().snapshot()),
            concat!(
                r#"{"schema":"indrel.metrics/1","deterministic":{"counters":{"#,
                r#""search.enters.checker":0,"search.enters.enumerator":0,"#,
                r#""search.enters.generator":0,"search.events":0,"#,
                r#""search.index_skipped":0},"#,
                r#""gauges":{},"histograms":{"#,
                r#""search.depth":{"count":0,"sum":0,"max":0,"buckets":[]},"#,
                r#""search.term_size":{"count":0,"sum":0,"max":0,"buckets":[]}}}}"#
            )
        );

        let stats = SearchStats::new();
        stats.set_names(names());
        for e in every_variant() {
            stats.record(e);
        }
        let snap = stats.snapshot();
        let c = |name: &str| {
            snap.counter(name)
                .unwrap_or_else(|| panic!("{name}: {}", det(&snap)))
        };
        assert_eq!(c("search.events"), stats.events());
        for kind in [ExecKind::Checker, ExecKind::Enumerator, ExecKind::Generator] {
            assert_eq!(
                c(&format!("search.enters.{}", kind.label())),
                stats.enters(kind)
            );
        }
        assert_eq!(c("search.index_skipped"), stats.index_skipped());
        let rel = RelId::new(0);
        let mut totals = RuleStats::default();
        for rule in 0..2 {
            let r = stats.rule_stats(rel, rule);
            assert_eq!(c(&format!("rule.bst.{rule}.attempts")), r.attempts);
            assert_eq!(c(&format!("rule.bst.{rule}.successes")), r.successes);
            assert_eq!(c(&format!("rule.bst.{rule}.backtracks")), r.backtracks);
            totals.attempts += r.attempts;
            totals.successes += r.successes;
            totals.backtracks += r.backtracks;
        }
        assert_eq!(totals.attempts, stats.total_attempts());
        assert_eq!(totals.successes, stats.total_successes());
        assert_eq!(totals.backtracks, stats.total_backtracks());
        let premises = stats.premise_stats(rel);
        assert_eq!(premises.len(), 1);
        for (rule, step, p) in premises {
            assert_eq!(c(&format!("premise.bst.{rule}.{step}.evals")), p.evals);
            assert_eq!(c(&format!("premise.bst.{rule}.{step}.cost")), p.cost);
            assert_eq!(
                c(&format!("premise.bst.{rule}.{step}.failures")),
                p.failures
            );
        }
        assert_eq!(c("unify_fail.bst.0.inputs"), 1);
        assert_eq!(c("unify_fail.bst.1.step2"), 2);
        assert_eq!(stats.total_unify_fails(), 3);
        assert_eq!(snap.histogram("search.depth"), Some(&stats.depth_hist()));
        assert_eq!(
            snap.histogram("search.term_size"),
            Some(&stats.term_size_hist())
        );
        assert_eq!(stats.depth_hist().count, 4);
        assert_eq!(stats.term_size_hist().max, 40);
    }

    #[test]
    fn trace_ring_drops_oldest() {
        let trace = TraceProbe::new(2);
        trace.set_names(names());
        let rel = RelId::new(0);
        for rule in 0..4 {
            trace.record(Event::RuleAttempt { rel, rule });
        }
        assert_eq!(trace.len(), 2);
        assert_eq!(trace.dropped(), 2);
        assert_eq!(trace.capacity(), 2);
        assert_eq!(
            trace.to_string(),
            "trace: 2 buffered / 2 capacity, 2 dropped, next seq 4"
        );
        let lines = trace.to_json_lines();
        let lines: Vec<&str> = lines.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(
            lines[0],
            r#"{"seq":2,"event":"rule_attempt","rel":"bst","rule":"rule#2"}"#
        );
        assert_eq!(
            lines[1],
            r#"{"seq":3,"event":"rule_attempt","rel":"bst","rule":"rule#3"}"#
        );
    }

    #[test]
    fn probe_dispatch_and_arming() {
        let stats = SearchStats::new();
        let trace = TraceProbe::new(16);
        assert!(!ExecProbe::NoProbe.is_armed());
        let both = ExecProbe::both(&stats, &trace);
        assert!(both.is_armed());
        both.set_names(&names());
        both.record(Event::RuleAttempt {
            rel: RelId::new(0),
            rule: 0,
        });
        assert_eq!(stats.total_attempts(), 1);
        assert_eq!(trace.len(), 1);
        ExecProbe::NoProbe.record(Event::RuleAttempt {
            rel: RelId::new(0),
            rule: 0,
        });
        assert_eq!(stats.total_attempts(), 1, "NoProbe records nothing");
    }

    #[test]
    fn stats_merge_equals_single_sink() {
        let rel = RelId::new(0);
        let events = [
            Event::Enter {
                rel,
                kind: ExecKind::Checker,
                depth: 0,
            },
            Event::RuleAttempt { rel, rule: 0 },
            Event::UnifyFail {
                rel,
                rule: 0,
                site: FailSite::Inputs,
            },
            Event::Backtrack { rel, rule: 0 },
            Event::RuleAttempt { rel, rule: 1 },
            Event::RuleSuccess { rel, rule: 1 },
            Event::TermProduced { rel, size: 5 },
            Event::IndexSkip { rel, skipped: 2 },
        ];
        // One sink seeing everything...
        let whole = SearchStats::new();
        whole.set_names(names());
        for e in events {
            whole.record(e);
        }
        // ...equals two per-worker sinks merged, whichever way the
        // events were split.
        let left = SearchStats::new();
        left.set_names(names());
        let right = SearchStats::new();
        for (i, e) in events.iter().enumerate() {
            if i % 2 == 0 {
                left.record(*e);
            } else {
                right.record(*e);
            }
        }
        left.merge_from(&right);
        assert_eq!(
            left.snapshot().deterministic_json(),
            whole.snapshot().deterministic_json()
        );
        assert_eq!(left.events(), whole.events());
    }

    #[test]
    fn stats_sink_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SearchStats>();
        assert_send_sync::<TraceProbe>();
        assert_send_sync::<ExecProbe>();
        assert_send_sync::<crate::budget::BudgetPool>();
    }

    #[test]
    fn premise_events_accumulate_and_export() {
        let stats = SearchStats::new();
        stats.set_names(names());
        let rel = RelId::new(0);
        stats.record(Event::Premise {
            rel,
            rule: 1,
            step: 2,
            cost: 5,
            failed: false,
        });
        stats.record(Event::Premise {
            rel,
            rule: 1,
            step: 2,
            cost: 7,
            failed: true,
        });
        let ps = stats.premise_stats(rel);
        assert_eq!(
            ps,
            vec![(
                1,
                2,
                PremiseStats {
                    evals: 2,
                    cost: 12,
                    failures: 1
                }
            )]
        );
        assert_eq!(ps[0].2.mean_cost(), 6.0);
        assert_eq!(ps[0].2.failure_rate(), 0.5);
        let snap = stats.snapshot();
        assert_eq!(snap.counter("premise.bst.1.2.evals"), Some(2));
        assert_eq!(snap.counter("premise.bst.1.2.cost"), Some(12));
        assert_eq!(snap.counter("premise.bst.1.2.failures"), Some(1));
        assert!(stats.to_string().contains("bst.bst_node[step2]"), "{stats}");
        // Merging folds premises like every other counter.
        let other = SearchStats::new();
        other.record(Event::Premise {
            rel,
            rule: 1,
            step: 2,
            cost: 3,
            failed: false,
        });
        stats.merge_from(&other);
        assert_eq!(stats.premise_stats(rel)[0].2.cost, 15);
        // Trace export renders the variant.
        let trace = TraceProbe::new(8);
        trace.set_names(names());
        trace.record(Event::Premise {
            rel,
            rule: 0,
            step: 1,
            cost: 2,
            failed: true,
        });
        let lines = trace.to_json_lines();
        assert!(
            lines.contains(
                r#""event":"premise","rel":"bst","rule":"bst_leaf","step":1,"cost":2,"failed":true"#
            ),
            "{lines}"
        );
    }

    #[test]
    fn json_escape_covers_controls() {
        assert_eq!(json_escape(r#"a"b\c"#), r#"a\"b\\c"#);
        assert_eq!(json_escape("x\ny\t\u{1}"), "x\\ny\\t\\u0001");
    }
}
