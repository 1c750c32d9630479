//! The instance library — the analogue of QuickChick's typeclass
//! instances (`DecOpt`, `EnumSizedSuchThat`, `GenSizedSuchThat`).
//!
//! A [`LibraryBuilder`] accumulates instances: derived plans (created on
//! demand, with the dependency resolution of [`crate::compile`]) and
//! handwritten implementations (used both for primitive relations and as
//! the baselines of the paper's Figure 3). [`LibraryBuilder::build`]
//! freezes everything into a cheaply-cloneable [`Library`] on which the
//! executors of [`crate::exec`] run.

use crate::compile::{compile_plan, DepResolver};
use crate::error::{DeriveError, ExecError, InstanceKind};
use crate::memo::{MemoStats, SharedMemo};
use crate::mode::Mode;
use crate::plan::Plan;
use crate::DeriveOptions;
use indrel_producers::{EStream, ExecProbe, Meter, NameTable, PremiseStats, SearchStats};
use indrel_rel::RelEnv;
use indrel_term::{Interner, RelId, Universe, Value};
use std::collections::HashMap;
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
    /// A derived checker: the plan (for inspection and the interpreter
    /// oracle) plus its compiled form (dispatch index and the bytecode
    /// program every call runs).
    Plan(Arc<Plan>, Arc<crate::entry::CompiledChecker>),
}

/// The instances of one `(rel, mode)`: a derived producer, handwritten
/// halves, or both (a handwritten half shadows the derived one).
#[derive(Clone, Default)]
pub(crate) struct ProducerImpl {
    /// The derived producer — its plan and bytecode program, compiled
    /// when the plan is derived. Unarmed generation and push-mode
    /// enumeration run the program; armed calls and the lazy public
    /// `enumerate` run the plan on the interpreter.
    pub(crate) derived: Option<Arc<crate::entry::CompiledProducer>>,
    pub(crate) hand_enum: Option<HandEnumFn>,
    pub(crate) hand_gen: Option<HandGenFn>,
}

/// The immutable core of a built library: everything [`LibraryBuilder`]
/// froze, and nothing session-local. `Send + Sync` — this is the part a
/// [`SharedLibrary`] hands across threads.
pub(crate) struct Shared {
    pub(crate) universe: Universe,
    pub(crate) env: RelEnv,
    /// Dense checker table indexed by relation id (ids are dense per
    /// `RelEnv`), so the hot external-call path avoids hashing.
    pub(crate) checkers: Vec<Option<CheckerImpl>>,
    /// Dense producer table indexed by relation id, one entry per mode
    /// with an instance. A lookup compares modes by reference, so no
    /// call — compiled producer premises included — allocates a key.
    pub(crate) producers: Vec<Vec<(Mode, ProducerImpl)>>,
}

impl Shared {
    /// The instance for `(rel, mode)`, if one was derived or registered.
    fn producer(&self, rel: RelId, mode: &Mode) -> Option<&ProducerImpl> {
        self.producers
            .get(rel.index())?
            .iter()
            .find(|(m, _)| m == mode)
            .map(|(_, p)| p)
    }

    fn producer_count(&self) -> usize {
        self.producers.iter().map(Vec::len).sum()
    }
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
    /// The session's verdict table (tabling, [`crate::memo`]): a
    /// private one-shard table from [`Library::with_memo`], or a
    /// server's sharded one from [`Library::with_shared_memo`]. Set at
    /// most once; the checker entry boundary reads it on every entry,
    /// so an ordinary session pays one load and branch.
    pub(crate) memo: std::cell::OnceCell<Arc<SharedMemo>>,
    /// Fingerprints argument tuples for table lookups. Its fingerprint
    /// cache is per session, so it lives here rather than on a table
    /// that other threads share.
    pub(crate) interner: std::cell::RefCell<Interner>,
    /// Monotone count of derived checker searches made while a probe
    /// is armed, bumped by the VM's parity loop and the plan
    /// interpreter. Its one reader is the probe's premise cost: the
    /// delta across one premise is the `cost` of its
    /// [`Event::Premise`](indrel_producers::probe::Event::Premise).
    pub(crate) search_calls: std::cell::Cell<u64>,
    /// This session's table hits — the only record of a lookup (the
    /// search probe records none), so the serving layer can attribute
    /// memo reuse to individual requests.
    pub(crate) memo_hits: std::cell::Cell<u64>,
    /// This session's top-level derived checks the table did not
    /// answer: lookups that missed, and calls on untabled tuples, which
    /// make no lookup ([`crate::memo`]); see `memo_hits`.
    pub(crate) memo_misses: std::cell::Cell<u64>,
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
            memo: std::cell::OnceCell::new(),
            interner: std::cell::RefCell::new(Interner::new(crate::memo::DEFAULT_CAPACITY)),
            search_calls: std::cell::Cell::new(0),
            memo_hits: std::cell::Cell::new(0),
            memo_misses: std::cell::Cell::new(0),
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
            .and_then(|p| p.derived.as_deref())
            .map(|cp| &*cp.plan)
    }

    fn ensure(&mut self, key: Key) -> Result<(), DeriveError> {
        let exists = match &key {
            Key::Checker(rel) => self.checkers.contains_key(rel),
            Key::Producer(rel, mode) => {
                self.producers.get(&(*rel, mode.clone())).is_some_and(|p| {
                    p.derived.is_some() || (p.hand_enum.is_some() && p.hand_gen.is_some())
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
        let result = match &key {
            Key::Checker(rel) => compile_plan(
                // Field-splitting workaround: compile_plan borrows the
                // universe/env immutably while `self` resolves deps
                // mutably, so hand it clones of the (cheap, Rc-backed)
                // registries.
                &self.universe.clone(),
                &self.env.clone(),
                *rel,
                Mode::checker(self.env.relation(*rel).arity()),
                self.opts,
                self,
            )
            .and_then(|plan| {
                let compiled = Arc::new(crate::entry::compile_checker(&plan, &self.env)?);
                self.checkers
                    .insert(*rel, CheckerImpl::Plan(Arc::new(plan), compiled));
                Ok(())
            }),
            Key::Producer(rel, mode) => compile_plan(
                &self.universe.clone(),
                &self.env.clone(),
                *rel,
                mode.clone(),
                self.opts,
                self,
            )
            .and_then(|plan| {
                let derived = crate::entry::compile_producer(plan, &self.env)?;
                let entry = self.producers.entry((*rel, mode.clone())).or_default();
                entry.derived = Some(Arc::new(derived));
                Ok(())
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
        let mut producers: Vec<Vec<(Mode, ProducerImpl)>> = vec![Vec::new(); self.env.len()];
        for ((rel, mode), imp) in self.producers {
            producers[rel.index()].push((mode, imp));
        }
        Library {
            inner: Rc::new(Inner::fresh(Arc::new(Shared {
                universe: self.universe,
                env: self.env,
                checkers,
                producers,
            }))),
        }
    }
}

/// `explain()`'s backend lines for a derived instance: the bytecode
/// size and per-handler opcodes.
fn explain_bytecode(out: &mut String, plan: &Plan, prog: &crate::vm::VmProgram) {
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
            .field("producers", &self.inner.producer_count())
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
            .field("producers", &self.shared.producer_count())
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
        self.inner.producer(rel, mode).is_some()
    }

    /// `true` when `(rel, mode)` can be enumerated — a derived plan or
    /// a handwritten enumerator is registered.
    pub fn has_enumerator(&self, rel: RelId, mode: &Mode) -> bool {
        self.inner
            .producer(rel, mode)
            .is_some_and(|p| p.hand_enum.is_some() || p.derived.is_some())
    }

    /// `true` when `(rel, mode)` can be randomly generated from — a
    /// derived plan or a handwritten generator is registered.
    pub fn has_generator(&self, rel: RelId, mode: &Mode) -> bool {
        self.inner
            .producer(rel, mode)
            .is_some_and(|p| p.hand_gen.is_some() || p.derived.is_some())
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
    /// frozen table, like [`Library::require_checker`], and allocates
    /// nothing on success.
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
        let entry = self.inner.producer(rel, mode).ok_or_else(no_instance)?;
        let usable = match kind {
            InstanceKind::Enumerator => entry.hand_enum.is_some() || entry.derived.is_some(),
            InstanceKind::Generator => entry.hand_gen.is_some() || entry.derived.is_some(),
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
    /// Only top-level calls ([`Library::check`], the `try_*` calls)
    /// consult the table, once each; the premise calls below them
    /// search without it, so a hit needs a repeated top-level call.
    ///
    /// Attaches a private one-shard [`SharedMemo`] of
    /// [`DEFAULT_CAPACITY`](crate::memo::DEFAULT_CAPACITY) entries. A
    /// session has at most one table: if this one already has a table
    /// (its own, or a server's), it keeps it, so a served session
    /// cannot be detached from its server. The table is session state:
    /// clones of this `Library` share it, but [`Library::fork`] starts
    /// with no table.
    ///
    /// # Example
    ///
    /// ```ignore
    /// let lib = builder.build().with_memo();
    /// lib.check(rel, fuel, fuel, &args); // first call fills the table
    /// lib.check(rel, fuel, fuel, &args); // answered from the table
    /// ```
    pub fn with_memo(self) -> Library {
        self.inner
            .memo
            .get_or_init(|| Arc::new(SharedMemo::new(1, crate::memo::DEFAULT_CAPACITY)));
        self
    }

    /// Returns the session unchanged: every derived checker runs on the
    /// bytecode VM, so there is nothing to enable.
    #[deprecated(note = "derived checkers always run on the bytecode VM; this is a no-op")]
    pub fn with_vm(self) -> Library {
        self
    }

    /// `true` when `rel` has a derived checker, i.e. [`Library::check`]
    /// runs its bytecode on the VM: every derived plan compiles.
    /// Handwritten checkers report `false`.
    pub fn vm_compiled(&self, rel: RelId) -> bool {
        matches!(
            self.inner
                .checkers
                .get(rel.index())
                .and_then(Option::as_ref),
            Some(CheckerImpl::Plan(..))
        )
    }

    /// Attaches a concurrent verdict table — typically a
    /// [`Server`](crate::Server)'s, shared by all of its sessions — to
    /// this session and returns it, for chaining. Derived checkers
    /// consult it exactly as they consult a [`Library::with_memo`]
    /// table, at top-level calls only; fuel monotonicity makes verdicts
    /// cached by *any* session valid for every session over the same
    /// frozen core. The caller must only attach tables created for this
    /// library's [`SharedLibrary`] core — fingerprints are structural,
    /// but relation ids are only meaningful per core.
    ///
    /// A session has at most one table: if this one already has a
    /// table, it keeps it and `memo` is not attached. Attach to a fresh
    /// [`Library::fork`].
    pub fn with_shared_memo(self, memo: Arc<SharedMemo>) -> Library {
        let _ = self.inner.memo.set(memo);
        self
    }

    /// This session's cumulative table `(hits, misses)` counts, as
    /// [`Library::memo_stats`] reports them. The serving layer reads the
    /// delta across one request to give each
    /// [`RequestSpan`](crate::serve::RequestSpan) its memo attribution;
    /// both stay zero for sessions without a table.
    pub(crate) fn shared_memo_counts(&self) -> (u64, u64) {
        (self.inner.memo_hits.get(), self.inner.memo_misses.get())
    }

    /// `true` when this session has a verdict table — its own from
    /// [`Library::with_memo`], or a server's.
    pub fn memo_enabled(&self) -> bool {
        self.inner.memo.get().is_some()
    }

    /// This session's lookups (`hits`, `misses`) together with its
    /// table's counters: insertions, skips, entries, degraded shards.
    /// On a served session the table counters are the server's, so
    /// they include every session's insertions. All zero when the
    /// session has no table.
    pub fn memo_stats(&self) -> MemoStats {
        MemoStats {
            hits: self.inner.memo_hits.get(),
            misses: self.inner.memo_misses.get(),
            ..self.inner.memo.get().map(|m| m.stats()).unwrap_or_default()
        }
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
    /// entries per evaluation, and conclusive failures. The table is
    /// how to judge the derive-time schedule on a workload; nothing
    /// reschedules a built library from it.
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
                let _ = writeln!(out, "checker (derived):");
                let _ = writeln!(out, "{}", plan.display(u, env));
                let _ = writeln!(out, "  static step stats: {}", plan.step_stats());
                explain_bytecode(&mut out, plan, &compiled.prog);
                if let Some(stats) = stats {
                    out.push_str(&Self::premise_cost_table(plan, stats));
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
            .get(rel.index())
            .into_iter()
            .flatten()
            .map(|(mode, imp)| (mode.to_string(), imp))
            .collect();
        producers.sort_by(|a, b| a.0.cmp(&b.0));
        for (mode, imp) in producers {
            match &imp.derived {
                Some(cp) => {
                    let plan = &cp.plan;
                    let _ = writeln!(out, "producer {mode} (derived):");
                    let _ = writeln!(out, "{}", plan.display(u, env));
                    let _ = writeln!(out, "  static step stats: {}", plan.step_stats());
                    explain_bytecode(&mut out, plan, &cp.prog);
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
    /// with the probe's observed attribution. Steps the executor does
    /// not attribute (local equalities and matches, folded into their
    /// premise's cost) and steps never attempted render an explicit
    /// `obs n/a (never attempted)` rather than an ambiguous zero. The
    /// `[pN]` tag is the step's source-premise provenance (`[--]` for
    /// compiler-invented steps), so the scheduler's reorders stay
    /// readable.
    fn premise_cost_table(plan: &Plan, stats: &SearchStats) -> String {
        use std::collections::BTreeMap;
        let observed: BTreeMap<(u32, u32), PremiseStats> = stats
            .premise_stats(plan.rel)
            .into_iter()
            .map(|(rule, step, p)| ((rule, step), p))
            .collect();
        let mut out = String::new();
        let _ = writeln!(out, "  cost table (estimated vs observed, search entries):");
        for (rule_idx, handler) in plan.handlers.iter().enumerate() {
            for (step_idx, step) in handler.steps.iter().enumerate() {
                let est = step.static_cost();
                let tag = match handler.premise_of.get(step_idx).copied().flatten() {
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
