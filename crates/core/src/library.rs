//! The instance library — the analogue of QuickChick's typeclass
//! instances (`DecOpt`, `EnumSizedSuchThat`, `GenSizedSuchThat`).
//!
//! A [`LibraryBuilder`] accumulates instances: derived plans (created on
//! demand, with the dependency resolution of [`crate::compile`]) and
//! handwritten implementations (used both for primitive relations and as
//! the baselines of the paper's Figure 3). [`LibraryBuilder::build`]
//! freezes everything into a cheaply-cloneable [`Library`] on which the
//! executors of [`crate::exec`] run.

use crate::compile::{compile_plan, compile_plan_with_profile, DepResolver};
use crate::cost::CostProfile;
use crate::error::{DeriveError, ExecError, InstanceKind};
use crate::mode::Mode;
use crate::plan::Plan;
use crate::DeriveOptions;
use indrel_producers::{EStream, Event, ExecProbe, Meter, NameTable, PremiseStats, SearchStats};
use indrel_rel::RelEnv;
use indrel_term::{RelId, Universe, Value};
use std::collections::{BTreeSet, HashMap};
use std::fmt::Write as _;
use std::rc::Rc;
use std::sync::Arc;

/// A handwritten checker: `(size, top_size, args) → option bool`.
/// `Send + Sync` (like every registered instance) so the built library
/// can be shared across parallel test workers via [`SharedLibrary`].
pub type HandCheckFn = Arc<dyn Fn(u64, u64, &[Value]) -> Option<bool> + Send + Sync>;

/// A handwritten enumerator for a `(rel, mode)` instance:
/// `(size, top_size, inputs) → E (outputs)`, where `inputs` and the
/// produced output vectors follow the mode's positions in ascending
/// order. (The closure must be `Send + Sync`; the streams it returns
/// stay on the calling thread.)
pub type HandEnumFn = Arc<dyn Fn(u64, u64, &[Value]) -> EStream<Vec<Value>> + Send + Sync>;

/// A handwritten generator for a `(rel, mode)` instance.
pub type HandGenFn =
    Arc<dyn Fn(u64, u64, &[Value], &mut dyn rand::RngCore) -> Option<Vec<Value>> + Send + Sync>;

#[derive(Clone)]
pub(crate) enum CheckerImpl {
    Hand(HandCheckFn),
    /// A derived checker: the plan (for inspection, the interpreter
    /// oracle, and the fallback when bytecode compilation fails) plus
    /// its compiled form (dispatch index and bytecode program).
    Plan(Arc<Plan>, Arc<crate::entry::CompiledChecker>),
}

#[derive(Clone, Default)]
pub(crate) struct ProducerImpl {
    pub(crate) plan: Option<Arc<Plan>>,
    pub(crate) hand_enum: Option<HandEnumFn>,
    pub(crate) hand_gen: Option<HandGenFn>,
}

/// The immutable core of a built library: everything [`LibraryBuilder`]
/// froze, and nothing session-local. `Send + Sync` — this is the part a
/// [`SharedLibrary`] hands across threads.
pub(crate) struct Shared {
    pub(crate) universe: Universe,
    pub(crate) env: RelEnv,
    /// The options everything was derived under; kept so the replanner
    /// ([`Library::replan_from`]) can recompile with the same settings.
    pub(crate) opts: DeriveOptions,
    /// Dense checker table indexed by relation id (ids are dense per
    /// `RelEnv`), so the hot external-call path avoids hashing.
    pub(crate) checkers: Vec<Option<CheckerImpl>>,
    pub(crate) producers: HashMap<(RelId, Mode), ProducerImpl>,
    /// The measured cost profile the checker plans were scheduled
    /// under — `None` for fresh builds (static seeds only), `Some` for
    /// cores produced by [`Library::replan_from`]. `explain()` renders
    /// it as the replanned-cost column.
    pub(crate) profile: Option<Arc<CostProfile>>,
}

// The whole point of the split: the frozen core must be shareable
// across worker threads.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Shared>();
    assert_send_sync::<SharedLibrary>();
};

/// One session over a [`Shared`] core: the frozen instances plus the
/// single-threaded mutable execution state (scratch pools, the armed
/// meter and probe, nesting depth). Field accesses for the frozen part
/// go through `Deref`.
pub(crate) struct Inner {
    pub(crate) shared: Arc<Shared>,
    /// Scratch buffers reused across plan executions (single-threaded).
    pub(crate) pool: std::cell::RefCell<Pool>,
    /// The armed budget meter, if any. Only the `try_*` entry points of
    /// [`crate::exec`] arm it (restoring the previous value on exit, so
    /// nesting and panics are safe); the internal executors merely
    /// charge whatever is armed, and charge nothing when this is `None`.
    pub(crate) meter: std::cell::RefCell<Option<Meter>>,
    /// The armed telemetry probe; [`Library::arm_probe`] swaps it in
    /// (guard-restored, like the meter). [`ExecProbe::NoProbe`] by
    /// default.
    pub(crate) probe: std::cell::RefCell<ExecProbe>,
    /// Mirror of `probe.is_armed()`, readable without a `RefCell`
    /// borrow — the executors check this flag at every emission site, so
    /// the unarmed cost is one `Cell` load and branch.
    pub(crate) probe_armed: std::cell::Cell<bool>,
    /// Current executor nesting depth, for `Event::Enter`.
    pub(crate) depth: std::cell::Cell<u32>,
    /// The session's verdict table (tabling, [`crate::memo`]). Present
    /// but inert until [`Library::with_memo`] flips `memo_enabled`.
    pub(crate) memo: std::cell::RefCell<crate::memo::MemoTable>,
    /// Mirror flag, like `probe_armed`: the checker entry boundary
    /// consults it on every entry, so the disabled cost is one `Cell`
    /// load.
    pub(crate) memo_enabled: std::cell::Cell<bool>,
    /// Monotone count of derived checker searches this session; the
    /// delta across one search is the memo layer's cost gate (a verdict
    /// that cost fewer than [`crate::memo::MIN_SEARCH_COST`] recursions
    /// is not worth caching).
    pub(crate) search_calls: std::cell::Cell<u64>,
    /// The process-wide concurrent verdict table ([`crate::serve`]),
    /// when this session serves requests through one. Consulted at the
    /// same checker entry boundaries as the local table;
    /// `None` (one `RefCell` borrow + `Option` check per entry) for
    /// ordinary sessions.
    pub(crate) shared_memo: std::cell::RefCell<Option<Arc<crate::serve::SharedMemo>>>,
    /// Session-local count of shared-table hits, so the serving layer
    /// can attribute memo reuse to individual requests (the table's own
    /// counters are process-wide). Only advanced on the shared-memo
    /// path.
    pub(crate) shared_hits: std::cell::Cell<u64>,
    /// Session-local count of shared-table misses; see `shared_hits`.
    pub(crate) shared_misses: std::cell::Cell<u64>,
    /// Session-local count of checker entries that ran on the plan
    /// interpreter because their plan did not compile to bytecode
    /// ([`Library::vm_fallback_count`]).
    pub(crate) vm_fallbacks: std::cell::Cell<u64>,
    /// Scratch frames for the bytecode VM ([`crate::vm`]), kept on the
    /// session so frame and argument vectors amortize across checks.
    /// Taken wholesale at each VM entry (never borrowed across the
    /// search, so re-entrant entries just start cold) and merged back.
    pub(crate) vm_frames: std::cell::RefCell<crate::vm::VmFrames>,
}

impl Inner {
    /// Fresh session state over a frozen core.
    fn fresh(shared: Arc<Shared>) -> Inner {
        Inner {
            shared,
            pool: std::cell::RefCell::new(Pool::default()),
            meter: std::cell::RefCell::new(None),
            probe: std::cell::RefCell::new(ExecProbe::NoProbe),
            probe_armed: std::cell::Cell::new(false),
            depth: std::cell::Cell::new(0),
            memo: std::cell::RefCell::new(crate::memo::MemoTable::default()),
            memo_enabled: std::cell::Cell::new(false),
            search_calls: std::cell::Cell::new(0),
            shared_memo: std::cell::RefCell::new(None),
            shared_hits: std::cell::Cell::new(0),
            shared_misses: std::cell::Cell::new(0),
            vm_fallbacks: std::cell::Cell::new(0),
            vm_frames: std::cell::RefCell::new(crate::vm::VmFrames::default()),
        }
    }
}

impl std::ops::Deref for Inner {
    type Target = Shared;

    fn deref(&self) -> &Shared {
        &self.shared
    }
}

#[derive(Default)]
pub(crate) struct Pool {
    pub(crate) envs: Vec<indrel_term::Env>,
    pub(crate) args: Vec<Vec<Value>>,
    /// Memoized bounded-exhaustive enumerations of raw values, keyed by
    /// (type, size) — unconstrained-producer steps re-enumerate the
    /// same domains constantly.
    pub(crate) raw_values: HashMap<(indrel_term::TypeExpr, u64), Rc<Vec<Value>>>,
}

/// Accumulates derived and handwritten instances.
pub struct LibraryBuilder {
    universe: Universe,
    env: RelEnv,
    opts: DeriveOptions,
    /// Measured premise costs steering the compile-time scheduler;
    /// `None` (static seeds) for ordinary builds, `Some` when the
    /// builder was set up by [`Library::replan_from`].
    profile: Option<Arc<CostProfile>>,
    checkers: HashMap<RelId, CheckerImpl>,
    producers: HashMap<(RelId, Mode), ProducerImpl>,
    in_progress: Vec<Key>,
}

#[derive(Clone, PartialEq, Eq, Debug)]
enum Key {
    Checker(RelId),
    Producer(RelId, Mode),
}

impl std::fmt::Debug for LibraryBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LibraryBuilder")
            .field("checkers", &self.checkers.len())
            .field("producers", &self.producers.len())
            .finish()
    }
}

impl LibraryBuilder {
    /// Starts a builder over a universe and relation environment.
    pub fn new(universe: Universe, env: RelEnv) -> LibraryBuilder {
        LibraryBuilder::with_options(universe, env, DeriveOptions::default())
    }

    /// Starts a builder with explicit derivation options.
    pub fn with_options(universe: Universe, env: RelEnv, opts: DeriveOptions) -> LibraryBuilder {
        LibraryBuilder {
            universe,
            env,
            opts,
            profile: None,
            checkers: HashMap::new(),
            producers: HashMap::new(),
            in_progress: Vec::new(),
        }
    }

    /// Access to the universe (e.g. to resolve names while registering
    /// handwritten instances).
    pub fn universe(&self) -> &Universe {
        &self.universe
    }

    /// Access to the relation environment.
    pub fn env(&self) -> &RelEnv {
        &self.env
    }

    /// Steers the greedy premise scheduler with measured (or synthetic)
    /// per-premise costs for every subsequent derivation, in place of
    /// the static [`Step::static_cost`](crate::plan::Step) seeds.
    ///
    /// This is the builder-level entry point under
    /// [`Library::replan_from`], exposed so tests can force reorders
    /// with synthetic profiles; already-derived instances are not
    /// recompiled.
    pub fn set_profile(&mut self, profile: CostProfile) {
        self.profile = Some(Arc::new(profile));
    }

    /// Registers a handwritten checker for `rel`, shadowing any derived
    /// plan.
    pub fn register_checker(&mut self, rel: RelId, f: HandCheckFn) {
        self.checkers.insert(rel, CheckerImpl::Hand(f));
    }

    /// Registers a handwritten enumerator for `(rel, mode)`.
    pub fn register_enumerator(&mut self, rel: RelId, mode: Mode, f: HandEnumFn) {
        self.producers.entry((rel, mode)).or_default().hand_enum = Some(f);
    }

    /// Registers a handwritten generator for `(rel, mode)`.
    pub fn register_generator(&mut self, rel: RelId, mode: Mode, f: HandGenFn) {
        self.producers.entry((rel, mode)).or_default().hand_gen = Some(f);
    }

    /// Derives (if not already present) a checker for `rel`, plus every
    /// instance it depends on.
    ///
    /// # Errors
    ///
    /// Returns a [`DeriveError`] when the relation (or a dependency)
    /// falls outside the supported class.
    pub fn derive_checker(&mut self, rel: RelId) -> Result<(), DeriveError> {
        self.ensure(Key::Checker(rel))
    }

    /// Derives (if not already present) a producer for `(rel, mode)`.
    ///
    /// # Errors
    ///
    /// Returns a [`DeriveError`] when the instance cannot be derived.
    pub fn derive_producer(&mut self, rel: RelId, mode: Mode) -> Result<(), DeriveError> {
        self.ensure(Key::Producer(rel, mode))
    }

    /// Returns the derived plan for a checker, for inspection (`None`
    /// for handwritten instances or before derivation).
    pub fn checker_plan(&self, rel: RelId) -> Option<&Plan> {
        match self.checkers.get(&rel) {
            Some(CheckerImpl::Plan(p, _)) => Some(p),
            _ => None,
        }
    }

    /// Returns the derived plan for a producer, for inspection.
    pub fn producer_plan(&self, rel: RelId, mode: &Mode) -> Option<&Plan> {
        self.producers
            .get(&(rel, mode.clone()))
            .and_then(|p| p.plan.as_deref())
    }

    fn ensure(&mut self, key: Key) -> Result<(), DeriveError> {
        let exists = match &key {
            Key::Checker(rel) => self.checkers.contains_key(rel),
            Key::Producer(rel, mode) => {
                self.producers.get(&(*rel, mode.clone())).is_some_and(|p| {
                    p.plan.is_some() || (p.hand_enum.is_some() && p.hand_gen.is_some())
                })
            }
        };
        if exists {
            return Ok(());
        }
        if self.in_progress.contains(&key) {
            return Err(DeriveError::InstanceCycle {
                cycle: format!("{:?} depends on itself through other instances", key),
            });
        }
        self.in_progress.push(key.clone());
        let profile = self.profile.clone();
        let result = match &key {
            Key::Checker(rel) => {
                compile_plan_with_profile(
                    // Field-splitting workaround: compile_plan borrows the
                    // universe/env immutably while `self` resolves deps
                    // mutably, so hand it clones of the (cheap, Rc-backed)
                    // registries.
                    &self.universe.clone(),
                    &self.env.clone(),
                    *rel,
                    Mode::checker(self.env.relation(*rel).arity()),
                    self.opts,
                    profile.as_deref(),
                    self,
                )
                .map(|plan| {
                    let compiled = Arc::new(crate::entry::compile_checker(&plan));
                    self.checkers
                        .insert(*rel, CheckerImpl::Plan(Arc::new(plan), compiled));
                })
            }
            Key::Producer(rel, mode) => compile_plan(
                &self.universe.clone(),
                &self.env.clone(),
                *rel,
                mode.clone(),
                self.opts,
                self,
            )
            .map(|plan| {
                self.producers.entry((*rel, mode.clone())).or_default().plan = Some(Arc::new(plan));
            }),
        };
        self.in_progress.pop();
        result
    }

    /// Freezes the builder into an executable [`Library`].
    pub fn build(self) -> Library {
        let mut checkers: Vec<Option<CheckerImpl>> = vec![None; self.env.len()];
        for (rel, imp) in self.checkers {
            checkers[rel.index()] = Some(imp);
        }
        Library {
            inner: Rc::new(Inner::fresh(Arc::new(Shared {
                universe: self.universe,
                env: self.env,
                opts: self.opts,
                checkers,
                producers: self.producers,
                profile: self.profile,
            }))),
        }
    }
}

/// Restores the previously armed probe when dropped; returned by
/// [`Library::arm_probe`].
pub struct ProbeGuard<'a> {
    lib: &'a Library,
    prev: Option<ExecProbe>,
    prev_armed: bool,
}

impl Drop for ProbeGuard<'_> {
    fn drop(&mut self) {
        if let Some(prev) = self.prev.take() {
            *self.lib.inner.probe.borrow_mut() = prev;
            self.lib.inner.probe_armed.set(self.prev_armed);
        }
    }
}

/// What one [`Library::replan_from`] pass did, relation by relation.
///
/// Replans are deterministic: this report — like the plans themselves —
/// is a pure function of the frozen core and the stats snapshot, so two
/// replans from byte-identical snapshots agree exactly.
#[derive(Clone, Debug, Default)]
pub struct ReplanReport {
    /// Relations recompiled into a *different* premise schedule. Only
    /// these emit [`Event::Replanned`]; probe streams and budget
    /// charges may differ from the old core for them.
    pub replanned: Vec<RelId>,
    /// Relations whose observed costs diverged enough to recompile but
    /// whose profile-guided schedule reproduced the existing plan (the
    /// static order was already optimal).
    pub unchanged: Vec<RelId>,
    /// Derived relations with no observed divergence; their plans (and
    /// compiled forms) were reused as-is.
    pub kept: Vec<RelId>,
    /// Relations whose profile-guided recompile failed; the old plan
    /// was kept so the library keeps serving, and the error recorded.
    pub errors: Vec<(RelId, String)>,
}

impl ReplanReport {
    /// `true` when `rel`'s plan changed in this pass.
    pub fn plan_changed(&self, rel: RelId) -> bool {
        self.replanned.contains(&rel)
    }

    /// `true` when every plan was reused or reproduced unchanged — the
    /// replanned library is behaviourally identical to the source.
    pub fn is_noop(&self) -> bool {
        self.replanned.is_empty()
    }
}

impl DepResolver for LibraryBuilder {
    fn ensure_checker(&mut self, rel: RelId) -> Result<(), DeriveError> {
        self.ensure(Key::Checker(rel))
    }

    fn ensure_producer(&mut self, rel: RelId, mode: &Mode) -> Result<(), DeriveError> {
        self.ensure(Key::Producer(rel, mode.clone()))
    }
}

/// The frozen, executable instance library.
///
/// Cloning is O(1); executors capture clones inside lazy enumerator
/// streams. See the [crate docs](crate) for an end-to-end example.
#[derive(Clone)]
pub struct Library {
    pub(crate) inner: Rc<Inner>,
}

impl std::fmt::Debug for Library {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Library")
            .field("checkers", &self.inner.checkers.len())
            .field("producers", &self.inner.producers.len())
            .finish()
    }
}

/// A `Send + Sync` handle on a library's frozen core, for parallel
/// test runs: derived plans, compiled checkers, and handwritten
/// instances are shared (never re-derived), while each worker gets its
/// own single-threaded session state — scratch pools, armed meter,
/// armed probe — by calling [`SharedLibrary::fork`].
///
/// # Example
///
/// ```
/// use indrel_core::LibraryBuilder;
/// use indrel_rel::{parse::parse_program, RelEnv};
/// use indrel_term::{Universe, Value};
///
/// let mut u = Universe::new();
/// let mut env = RelEnv::new();
/// parse_program(&mut u, &mut env, r"
///     rel even' : nat :=
///     | even_0  : even' 0
///     | even_SS : forall n, even' n -> even' (S (S n))
///     .
/// ").unwrap();
/// let even = env.rel_id("even'").unwrap();
/// let mut builder = LibraryBuilder::new(u, env);
/// builder.derive_checker(even).unwrap();
/// let shared = builder.build().shared();
///
/// let worker = std::thread::spawn(move || {
///     let lib = shared.fork(); // same compiled plans, fresh session
///     lib.check(even, 10, 10, &[Value::nat(4)])
/// });
/// assert_eq!(worker.join().unwrap(), Some(true));
/// ```
#[derive(Clone)]
pub struct SharedLibrary {
    shared: Arc<Shared>,
}

impl std::fmt::Debug for SharedLibrary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedLibrary")
            .field("checkers", &self.shared.checkers.len())
            .field("producers", &self.shared.producers.len())
            .finish()
    }
}

impl SharedLibrary {
    /// A fresh [`Library`] session over the shared core, with its own
    /// scratch pools and (unarmed) meter and probe. O(1) — nothing is
    /// re-derived or re-compiled.
    pub fn fork(&self) -> Library {
        Library {
            inner: Rc::new(Inner::fresh(Arc::clone(&self.shared))),
        }
    }
}

impl Library {
    /// The universe the library was built over.
    pub fn universe(&self) -> &Universe {
        &self.inner.universe
    }

    /// A `Send + Sync` handle on this library's frozen core; see
    /// [`SharedLibrary`].
    pub fn shared(&self) -> SharedLibrary {
        SharedLibrary {
            shared: Arc::clone(&self.inner.shared),
        }
    }

    /// A fresh session over the same frozen core — shorthand for
    /// `self.shared().fork()`. The fork shares all compiled instances
    /// but none of the session state (pools, armed meter/probe), which
    /// is what a parallel test worker wants.
    pub fn fork(&self) -> Library {
        self.shared().fork()
    }

    /// The relation environment the library was built over.
    pub fn env(&self) -> &RelEnv {
        &self.inner.env
    }

    /// `true` when a checker instance exists for `rel`.
    pub fn has_checker(&self, rel: RelId) -> bool {
        self.inner
            .checkers
            .get(rel.index())
            .is_some_and(Option::is_some)
    }

    /// `true` when a producer instance exists for `(rel, mode)`.
    pub fn has_producer(&self, rel: RelId, mode: &Mode) -> bool {
        self.inner.producers.contains_key(&(rel, mode.clone()))
    }

    /// `true` when `(rel, mode)` can be enumerated — a derived plan or
    /// a handwritten enumerator is registered.
    pub fn has_enumerator(&self, rel: RelId, mode: &Mode) -> bool {
        self.inner
            .producers
            .get(&(rel, mode.clone()))
            .is_some_and(|p| p.hand_enum.is_some() || p.plan.is_some())
    }

    /// `true` when `(rel, mode)` can be randomly generated from — a
    /// derived plan or a handwritten generator is registered.
    pub fn has_generator(&self, rel: RelId, mode: &Mode) -> bool {
        self.inner
            .producers
            .get(&(rel, mode.clone()))
            .is_some_and(|p| p.hand_gen.is_some() || p.plan.is_some())
    }

    /// Looks up the checker for `rel`, borrowing straight out of the
    /// frozen table — the checker hot path pays no per-call clone.
    pub(crate) fn require_checker(&self, rel: RelId) -> Result<&CheckerImpl, ExecError> {
        self.inner
            .checkers
            .get(rel.index())
            .and_then(Option::as_ref)
            .ok_or_else(|| ExecError::NoInstance {
                kind: InstanceKind::Checker,
                rel: self.inner.env.relation(rel).name().to_string(),
                mode: None,
            })
    }

    /// Looks up the producer for `(rel, mode)`, requiring the half
    /// (enumerator or generator) that `kind` asks for. Borrows from the
    /// frozen table, like [`Library::require_checker`].
    pub(crate) fn require_producer(
        &self,
        rel: RelId,
        mode: &Mode,
        kind: InstanceKind,
    ) -> Result<&ProducerImpl, ExecError> {
        let no_instance = || ExecError::NoInstance {
            kind,
            rel: self.inner.env.relation(rel).name().to_string(),
            mode: Some(mode.to_string()),
        };
        let entry = self
            .inner
            .producers
            .get(&(rel, mode.clone()))
            .ok_or_else(no_instance)?;
        let usable = match kind {
            InstanceKind::Enumerator => entry.hand_enum.is_some() || entry.plan.is_some(),
            InstanceKind::Generator => entry.hand_gen.is_some() || entry.plan.is_some(),
            InstanceKind::Checker => false,
        };
        if usable {
            Ok(entry)
        } else {
            Err(no_instance())
        }
    }

    /// Enables tabling on this session and returns it, for chaining:
    /// derived checkers cache decided (`Some`) verdicts across calls,
    /// justified by the monotonicity theorems of §5 (see
    /// [`crate::memo`]). Out-of-fuel `None` verdicts are never cached.
    ///
    /// The flag is session state: clones of this `Library` share it,
    /// but [`Library::fork`] starts with tabling off again.
    ///
    /// # Example
    ///
    /// ```ignore
    /// let lib = builder.build().with_memo();
    /// lib.check(rel, fuel, fuel, &args); // first call fills the table
    /// lib.check(rel, fuel, fuel, &args); // answered from the table
    /// ```
    pub fn with_memo(self) -> Library {
        self.inner.memo_enabled.set(true);
        self
    }

    /// Returns the session unchanged: every derived checker runs on the
    /// bytecode VM (or, when its plan did not compile, on the plan
    /// interpreter), so there is nothing to enable.
    #[deprecated(note = "derived checkers always run on the bytecode VM; this is a no-op")]
    pub fn with_vm(self) -> Library {
        self
    }

    /// `true` when `rel` has a derived checker whose plan compiled to
    /// bytecode, i.e. [`Library::check`] runs it on the VM rather than
    /// falling back to the plan interpreter. Handwritten checkers and
    /// uncompilable plans report `false`.
    pub fn vm_compiled(&self, rel: RelId) -> bool {
        matches!(
            self.inner.checkers.get(rel.index()).and_then(Option::as_ref),
            Some(CheckerImpl::Plan(_, compiled)) if compiled.vm.is_some()
        )
    }

    /// This session's cumulative count of checker entries that ran on
    /// the plan interpreter because the relation's plan did not compile
    /// to bytecode. Memo hits are not counted: they run nothing. The
    /// serving layer exports the per-request delta as the `vm.fallback`
    /// counter.
    pub fn vm_fallback_count(&self) -> u64 {
        self.inner.vm_fallbacks.get()
    }

    /// Like [`Library::with_memo`], with an explicit bound on the
    /// number of cached verdicts (and interned term nodes). Once full,
    /// the table stops admitting new entries — deterministic, no
    /// eviction — and existing entries keep serving hits.
    pub fn with_memo_capacity(self, max_entries: usize) -> Library {
        self.inner
            .memo
            .replace(crate::memo::MemoTable::with_capacity(max_entries));
        self.with_memo()
    }

    /// Attaches a process-wide concurrent verdict table
    /// ([`serve::SharedMemo`](crate::serve::SharedMemo)) to this
    /// session and returns it, for chaining. Derived checkers consult
    /// the shared table at the same entry boundaries as the local one
    /// (and under the same write guards); fuel monotonicity
    /// makes verdicts cached by *any* session valid for every session
    /// over the same frozen core. The caller must only attach tables
    /// created for this library's [`SharedLibrary`] core — fingerprints
    /// are structural, but relation ids are only meaningful per core.
    pub fn with_shared_memo(self, memo: Arc<crate::serve::SharedMemo>) -> Library {
        *self.inner.shared_memo.borrow_mut() = Some(memo);
        self
    }

    /// This session's cumulative shared-table `(hits, misses)` counts.
    /// The serving layer reads the delta across one request to give each
    /// [`RequestSpan`](crate::serve::RequestSpan) its memo attribution;
    /// both stay zero for sessions without a shared table.
    pub fn shared_memo_counts(&self) -> (u64, u64) {
        (self.inner.shared_hits.get(), self.inner.shared_misses.get())
    }

    /// `true` when tabling is enabled on this session.
    pub fn memo_enabled(&self) -> bool {
        self.inner.memo_enabled.get()
    }

    /// This session's tabling counters (all zero when tabling was never
    /// enabled).
    pub fn memo_stats(&self) -> crate::memo::MemoStats {
        self.inner.memo.borrow().stats()
    }

    /// Arms `probe` on this library until the returned guard drops,
    /// installing relation/rule names into the probe's sinks first.
    ///
    /// Clones share the probe (the library's state is `Rc`-shared), so
    /// arming affects every executor entered through any clone —
    /// including clones captured inside lazy enumerator streams. The
    /// guard restores whatever probe was armed before, so nesting is
    /// safe; keep the guard in a named binding (`let _probe = ...`) or
    /// it drops immediately.
    ///
    /// # Example
    ///
    /// ```ignore
    /// let stats = SearchStats::new();
    /// let guard = lib.arm_probe(ExecProbe::stats(&stats));
    /// lib.check(rel, fuel, fuel, &args);
    /// drop(guard);
    /// println!("{stats}");
    /// ```
    pub fn arm_probe(&self, probe: ExecProbe) -> ProbeGuard<'_> {
        probe.set_names(&self.probe_names());
        let armed = probe.is_armed();
        let prev = self.inner.probe.replace(probe);
        let prev_armed = self.inner.probe_armed.replace(armed);
        ProbeGuard {
            lib: self,
            prev: Some(prev),
            prev_armed,
        }
    }

    /// The relation and rule names probes should report. Rule names
    /// follow *handler* order (what probe events index by): the derived
    /// checker plan's handler names where one exists, the declared rule
    /// order otherwise.
    pub fn probe_names(&self) -> NameTable {
        let mut names = NameTable::default();
        for (rel, relation) in self.inner.env.iter() {
            names.rels.push(relation.name().to_string());
            let from_plan = match self.inner.checkers.get(rel.index()) {
                Some(Some(CheckerImpl::Plan(plan, _))) => Some(
                    plan.handlers
                        .iter()
                        .map(|h| h.name.clone())
                        .collect::<Vec<_>>(),
                ),
                _ => None,
            };
            names.rules.push(from_plan.unwrap_or_else(|| {
                relation
                    .rules()
                    .iter()
                    .map(|r| r.name().to_string())
                    .collect()
            }));
        }
        names
    }

    /// A debug rendering of everything the library knows about `rel`:
    /// each instance's derived plan (via
    /// [`Plan::display`](crate::plan::Plan::display)) together with its
    /// static [`step_stats`](crate::plan::Plan::step_stats), so static
    /// plan shape can be compared side by side with the dynamic
    /// [`SearchStats`] a probe collects.
    ///
    /// When a stats probe is armed on this session, the checker plan is
    /// followed by a per-premise **estimated-vs-observed cost table**
    /// (see [`Library::explain_with_stats`] for the explicit-stats
    /// form): one row per plan step, pairing the scheduler's static
    /// cost estimate ([`Step::static_cost`](crate::plan::Step)) with
    /// the probe's observed attribution — evaluations, mean search
    /// entries per evaluation, and conclusive failures. This table is
    /// the input the profile-guided replanner
    /// (`Library::replan_from(stats)`) will consume.
    pub fn explain(&self, rel: RelId) -> String {
        let armed = match &*self.inner.probe.borrow() {
            ExecProbe::Stats(s) | ExecProbe::Both(s, _) => Some(s.clone()),
            ExecProbe::NoProbe | ExecProbe::Trace(_) => None,
        };
        self.explain_inner(rel, armed.as_ref())
    }

    /// [`Library::explain`] against an explicit stats accumulator —
    /// e.g. one merged from several worker sessions with
    /// [`SearchStats::merge_from`] — rather than whatever probe is
    /// currently armed.
    pub fn explain_with_stats(&self, rel: RelId, stats: &SearchStats) -> String {
        self.explain_inner(rel, Some(stats))
    }

    /// Profile-guided replanning: recompiles every derived checker
    /// whose observed per-premise costs (from `stats`, typically filled
    /// by a [`SearchStats`] probe armed over a representative workload)
    /// diverge from the scheduler's static estimates, steering the
    /// greedy scheduler of [`crate::compile`] with the measured costs
    /// instead of the seeds. Returns a fresh library session over the
    /// replanned core; handwritten instances, producers, and
    /// non-diverged plans are reused as-is (same `Arc`s, nothing
    /// re-compiled).
    ///
    /// The replan is a **deterministic function of the stats
    /// snapshot**: byte-identical snapshots produce byte-identical
    /// plans. [`Event::Replanned`] is emitted through this session's
    /// armed probe for each relation whose plan actually changed.
    ///
    /// The returned session starts fresh (no memo) — re-enable per
    /// session, or use
    /// [`Session::replan_hot`](crate::serve::Session::replan_hot) to
    /// keep serving-layer attachments. Use
    /// [`Library::replan_from_report`] to learn what changed.
    pub fn replan_from(&self, stats: &SearchStats) -> Library {
        self.replan_from_report(stats).0
    }

    /// [`Library::replan_from`], also returning a [`ReplanReport`] of
    /// which relations were replanned, reproduced, kept, or failed.
    pub fn replan_from_report(&self, stats: &SearchStats) -> (Library, ReplanReport) {
        let shared = &*self.inner.shared;
        // 1. Attribute the snapshot to *source premises* through each
        //    plan's provenance map (stats are keyed by plan step, which
        //    a replan would renumber), and collect the relations whose
        //    observations diverge from the static estimates.
        let mut profile = CostProfile::new();
        let mut diverged: BTreeSet<usize> = BTreeSet::new();
        let mut has_failures: BTreeSet<usize> = BTreeSet::new();
        for (rel, rule, step, p) in stats.all_premise_stats() {
            let Some(CheckerImpl::Plan(plan, _)) =
                shared.checkers.get(rel.index()).and_then(Option::as_ref)
            else {
                continue;
            };
            let Some(handler) = plan.handlers.get(rule as usize) else {
                continue;
            };
            let Some(Some(premise)) = handler.premise_of.get(step as usize) else {
                continue;
            };
            if p.evals == 0 {
                continue;
            }
            profile.record(
                rel.index() as u32,
                rule,
                *premise,
                p.evals,
                p.cost,
                p.failures,
            );
            let obs = crate::cost::PremiseCost {
                mean_cost: p.cost / p.evals,
                failure_permille: p.failures.saturating_mul(1000) / p.evals,
            };
            if p.failures > 0 {
                has_failures.insert(rel.index());
            }
            if obs.diverges_from(handler.steps[step as usize].static_cost()) {
                diverged.insert(rel.index());
            }
        }
        // A reorder can only pay off through earlier short-circuiting,
        // and short-circuiting needs a premise that actually fails. On
        // an all-passing workload every premise runs regardless of
        // order, so chasing mean-cost differences there is pure churn
        // (and measurably regressive under cache noise): keep those
        // plans stable.
        diverged.retain(|r| has_failures.contains(r));
        // 2. Rebuild a builder over the same universe/env/options,
        //    seeded with every existing instance except the diverged
        //    targets (so only those recompile; their dependencies are
        //    found already present).
        let mut b =
            LibraryBuilder::with_options(shared.universe.clone(), shared.env.clone(), shared.opts);
        b.profile = Some(Arc::new(profile));
        b.producers = shared.producers.clone();
        let mut targets: Vec<(RelId, Arc<Plan>)> = Vec::new();
        let mut report = ReplanReport::default();
        for (idx, slot) in shared.checkers.iter().enumerate() {
            let Some(imp) = slot else { continue };
            let rel = RelId::new(idx);
            match imp {
                CheckerImpl::Plan(plan, _) if diverged.contains(&idx) => {
                    targets.push((rel, Arc::clone(plan)));
                }
                other => {
                    if matches!(other, CheckerImpl::Plan(..)) {
                        report.kept.push(rel);
                    }
                    b.checkers.insert(rel, other.clone());
                }
            }
        }
        // 3. Recompile the targets in ascending relation id (the
        //    BTreeSet order — deterministic). A target may already have
        //    been rebuilt as a dependency of an earlier one; `ensure`
        //    then returns without recompiling, which is what we want.
        for (rel, old_plan) in targets {
            match b.ensure(Key::Checker(rel)) {
                Ok(()) => {
                    let new_plan = b.checker_plan(rel).expect("just derived");
                    if format!("{new_plan:?}") == format!("{:?}", old_plan.as_ref()) {
                        report.unchanged.push(rel);
                    } else {
                        report.replanned.push(rel);
                    }
                }
                Err(e) => {
                    // Keep serving the old plan rather than losing the
                    // relation mid-flight.
                    let compiled = Arc::new(crate::entry::compile_checker(&old_plan));
                    b.checkers
                        .insert(rel, CheckerImpl::Plan(old_plan, compiled));
                    report.errors.push((rel, e.to_string()));
                }
            }
        }
        for rel in report.replanned.clone() {
            self.probe(|| Event::Replanned { rel });
        }
        (b.build(), report)
    }

    fn explain_inner(&self, rel: RelId, stats: Option<&SearchStats>) -> String {
        let env = &self.inner.env;
        let u = &self.inner.universe;
        let mut out = String::new();
        let _ = writeln!(out, "relation {}:", env.relation(rel).name());
        match self
            .inner
            .checkers
            .get(rel.index())
            .and_then(Option::as_ref)
        {
            Some(CheckerImpl::Plan(plan, compiled)) => {
                let guided = if self.inner.shared.profile.is_some() {
                    ", profile-guided"
                } else {
                    ""
                };
                let _ = writeln!(out, "checker (derived{guided}):");
                let _ = writeln!(out, "{}", plan.display(u, env));
                let _ = writeln!(out, "  static step stats: {}", plan.step_stats());
                match &compiled.vm {
                    Some(prog) => {
                        let _ = writeln!(
                            out,
                            "  bytecode: {} instrs across {} handlers",
                            prog.code_len(),
                            prog.handlers.len()
                        );
                        for (h, p) in prog.handlers.iter().zip(&plan.handlers) {
                            let ops: Vec<&str> = h.code.iter().map(|i| i.opcode()).collect();
                            let _ = writeln!(out, "    {}: {}", p.name, ops.join(" "));
                        }
                    }
                    None => {
                        let _ = writeln!(out, "  bytecode: not compiled (interpreter fallback)");
                    }
                }
                if let Some(stats) = stats {
                    out.push_str(&Self::premise_cost_table(
                        plan,
                        self.inner.shared.profile.as_deref(),
                        stats,
                    ));
                }
            }
            Some(CheckerImpl::Hand(_)) => {
                let _ = writeln!(out, "checker: handwritten (opaque)");
            }
            None => {
                let _ = writeln!(out, "checker: none");
            }
        }
        let mut producers: Vec<(String, &ProducerImpl)> = self
            .inner
            .producers
            .iter()
            .filter(|((r, _), _)| *r == rel)
            .map(|((_, mode), imp)| (mode.to_string(), imp))
            .collect();
        producers.sort_by(|a, b| a.0.cmp(&b.0));
        for (mode, imp) in producers {
            match &imp.plan {
                Some(plan) => {
                    let _ = writeln!(out, "producer {mode} (derived):");
                    let _ = writeln!(out, "{}", plan.display(u, env));
                    let _ = writeln!(out, "  static step stats: {}", plan.step_stats());
                }
                None => {
                    let kinds = match (&imp.hand_enum, &imp.hand_gen) {
                        (Some(_), Some(_)) => "enumerator+generator",
                        (Some(_), None) => "enumerator",
                        (None, Some(_)) => "generator",
                        (None, None) => "nothing",
                    };
                    let _ = writeln!(out, "producer {mode}: handwritten {kinds} (opaque)");
                }
            }
        }
        out
    }

    /// Renders the premise cost table for a checker plan: one row per
    /// plan step in the *scheduled* order, pairing the static estimate
    /// with the probe's observed attribution and — on a replanned core —
    /// the profile cost the scheduler actually used. Steps the executor
    /// does not attribute (local equalities and matches, folded into
    /// their premise's cost) and steps never attempted render an
    /// explicit `obs n/a (never attempted)` rather than an ambiguous
    /// zero. The `[pN]` tag is the step's source-premise provenance
    /// (`[--]` for compiler-invented steps), so reorders stay readable.
    fn premise_cost_table(
        plan: &Plan,
        profile: Option<&CostProfile>,
        stats: &SearchStats,
    ) -> String {
        use std::collections::BTreeMap;
        let observed: BTreeMap<(u32, u32), PremiseStats> = stats
            .premise_stats(plan.rel)
            .into_iter()
            .map(|(rule, step, p)| ((rule, step), p))
            .collect();
        let mut out = String::new();
        let _ = writeln!(
            out,
            "  cost table (estimated vs observed{}, search entries):",
            if profile.is_some() {
                " vs replanned"
            } else {
                ""
            }
        );
        for (rule_idx, handler) in plan.handlers.iter().enumerate() {
            for (step_idx, step) in handler.steps.iter().enumerate() {
                let est = step.static_cost();
                let provenance = handler.premise_of.get(step_idx).copied().flatten();
                let tag = match provenance {
                    Some(p) => format!("p{p}"),
                    None => "--".to_string(),
                };
                let _ = write!(
                    out,
                    "    rule {} step {} {:<13} [{:<3}] est {:>3} | ",
                    handler.name,
                    step_idx,
                    step.kind_label(),
                    tag,
                    est
                );
                match observed.get(&(rule_idx as u32, step_idx as u32)) {
                    Some(p) if p.evals > 0 => {
                        let _ = write!(
                            out,
                            "obs {} evals, mean {:.1}, {} failed",
                            p.evals,
                            p.mean_cost(),
                            p.failures
                        );
                    }
                    _ => {
                        let _ = write!(out, "obs n/a (never attempted)");
                    }
                }
                if let Some(profile) = profile {
                    let replanned = provenance.and_then(|premise| {
                        profile.lookup(plan.rel.index() as u32, rule_idx as u32, premise)
                    });
                    match replanned {
                        Some(c) => {
                            let _ = write!(
                                out,
                                " | replan mean {} cost, {}‰ fail",
                                c.mean_cost, c.failure_permille
                            );
                        }
                        None => {
                            let _ = write!(out, " | replan n/a (unprofiled)");
                        }
                    }
                }
                let _ = writeln!(out);
            }
        }
        out
    }

    /// Errors unless exactly `expected` values were supplied — the
    /// relation's arity for checkers, the mode's input count for
    /// producers.
    pub(crate) fn require_count(
        &self,
        rel: RelId,
        expected: usize,
        got: usize,
    ) -> Result<(), ExecError> {
        if got == expected {
            Ok(())
        } else {
            Err(ExecError::ArityMismatch {
                rel: self.inner.env.relation(rel).name().to_string(),
                expected,
                got,
            })
        }
    }
}
