//! Register-based bytecode backend for derived checkers.
//!
//! The executor of every derived checker whose plan compiles: when a
//! checker is derived, its plan is compiled — when every construct is
//! supported — into a flat array of register-machine instructions
//! ([`VmProgram`]), and every search below the entry boundary
//! ([`crate::entry`]) executes that array in a single threaded dispatch
//! loop. The plan interpreter ([`crate::exec`]) stays the oracle.
//!
//! The instruction set, register model, compilability rules, and the
//! budget charges and probe events of every opcode are documented in
//! DESIGN.md § "Bytecode VM" — that chapter is the reference; this
//! module is its implementation. Those charges and events are what
//! the budget, telemetry, and replanning layers consume, so the
//! parity loop (below) must keep them exactly.
//!
//! Compilation is total over the checker plans the deriver emits today;
//! [`compile_vm`] still returns `None` (per-relation fallback to the
//! plan interpreter) on any construct outside its register discipline,
//! so new plan features degrade to the slow path instead of breaking.
//!
//! # Register discipline
//!
//! A handler frame is a dense `Vec<Value>`: slots `0..nslots` are the
//! plan's variables (same numbering as [`Env`]), higher registers are
//! compiler temporaries. Compilation enforces *single assignment*: each
//! register has exactly one writing instruction, and every read is
//! preceded by that write on the (single) straight-line path. Binding a
//! variable that requires no computation — a bare `Var` input pattern,
//! a variable-to-variable `EqBind` — emits nothing at all: the compiler
//! *aliases* the variable to the location it matched ([`Src`], an
//! argument position or an already-written register), so reads go to
//! the original value and no `Copy` runs at execution time. Single
//! assignment is also what lets the backtracking fan-out instructions
//! (`ProduceExt`, `Unconstrained`) re-enter the instruction suffix per
//! candidate without cloning the frame — every register the suffix
//! reads is either rewritten by the suffix on each re-run or was
//! written before the fan-out point and never changes — where the
//! interpreter clones its `Env` per candidate.
//!
//! # Two monomorphized loops
//!
//! The executor is compiled twice from one body (a `const PAR: bool`
//! parameter): a *parity* loop that makes the budget charges, probe
//! events, and memo-gate bookkeeping of the DESIGN.md opcode table, and
//! a *fast* loop with every such site compiled out, entered only when
//! no meter, probe, memo table, or shared serving table is armed — a
//! state in which the bookkeeping is unobservable, so the two loops
//! are indistinguishable except in speed. See
//! [`Library::run_vm_search`] for the entry gate.
//!
//! [`Env`]: indrel_term::Env

use crate::entry::CompiledChecker;
use crate::library::{CheckerImpl, Library};
use crate::mode::Mode;
use crate::plan::{Handler, Plan, Step};
use indrel_producers::probe::{Event, ExecKind, FailSite};
use indrel_producers::{bind_ec, cnot, Meter};
use indrel_term::{CtorId, FunId, Pattern, RelId, TermExpr, TypeExpr, Value, VarId};

/// Hard ceiling on registers per compiled handler; plans wider than
/// this fall back to the interpreter (`u16` operands stay valid and a
/// pathological fuzz plan cannot make frames unbounded).
const MAX_REGS: usize = 4096;

/// Where an instruction reads a value from: the caller's argument tuple
/// (input matching reads it in place, no copy into the frame), a
/// register of the current frame, or a *field path* — one constructor
/// field of either. Field paths are how destructuring binds variables
/// without copying: after a `Destruct` guard has verified the base
/// holds the right constructor at the right arity, `ArgField(i, j)`
/// reads field `j` of argument `i` in place, straight through the
/// shared [`Value`] — no clone, no register traffic. Paths are depth
/// one by construction; a nested destructure copies its fields into
/// registers first.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Src {
    /// Argument-tuple position.
    Arg(u16),
    /// Frame register.
    Reg(u16),
    /// Constructor field `.1` of argument `.0` (guarded by a prior
    /// `Destruct` on the same base).
    ArgField(u16, u16),
    /// Constructor field `.1` of frame register `.0` (guarded by a
    /// prior `Destruct` on the same base).
    RegField(u16, u16),
}

/// Premise-arity ceiling for the stack-allocated argument-reference
/// buffers the executor uses ([`Library::vm_exec`]); plans with wider
/// relations fall back to the interpreter. Kept small on purpose: the
/// buffers are zero-initialized per premise, and every realistic
/// relation is far below this.
const MAX_PREMISE_ARITY: usize = 8;

/// Placeholder the argument-reference buffers start from.
static DUMMY_VALUE: Value = Value::Bool(false);

/// One bytecode instruction.
///
/// Operand meaning, register effects, budget charges, and probe events
/// per opcode are specified in the DESIGN.md § "Bytecode VM" reference
/// table; the executor ([`Library::run_vm_search`]) is written to match
/// that table line by line.
#[derive(Clone, Debug)]
pub(crate) enum Instr {
    /// `dst ← src` (O(1) value clone). Compiled from `Var` input
    /// patterns and variable-to-variable `EqBind`s.
    Copy {
        /// Source location.
        src: Src,
        /// Destination register.
        dst: u16,
    },
    /// `dst ← Nat(lit)`.
    LoadNat {
        /// Destination register.
        dst: u16,
        /// The literal.
        lit: u64,
    },
    /// `dst ← Bool(lit)`.
    LoadBool {
        /// Destination register.
        dst: u16,
        /// The literal.
        lit: bool,
    },
    /// `dst ← Nat(src + 1)` (saturating, like `TermExpr::eval`).
    /// Panics on a non-nat operand — the same "plan invariant"
    /// condition the interpreter's `expect` enforces.
    MkSucc {
        /// Source location (must hold a `Nat`).
        src: Src,
        /// Destination register.
        dst: u16,
    },
    /// `dst ← ctor(srcs…)`.
    MkCtor {
        /// The constructor.
        ctor: CtorId,
        /// Argument locations, in declaration order.
        srcs: Box<[Src]>,
        /// Destination register.
        dst: u16,
    },
    /// `dst ← fun(srcs…)` — a registered total function.
    CallFun {
        /// The function.
        fun: FunId,
        /// Argument locations.
        srcs: Box<[Src]>,
        /// Destination register.
        dst: u16,
    },
    /// Fail the handler (`UnifyFail` at `site`, verdict `Some(false)`)
    /// unless the value is exactly `Nat(lit)`.
    GuardNat {
        /// Scrutinee location.
        src: Src,
        /// Required literal.
        lit: u64,
        /// Probe attribution on failure.
        site: FailSite,
    },
    /// Fail unless the value is a `Nat ≥ min` (a `S (S … _)` pattern
    /// with a wildcard core).
    GuardNatGe {
        /// Scrutinee location.
        src: Src,
        /// Minimum value.
        min: u64,
        /// Probe attribution on failure.
        site: FailSite,
    },
    /// Fail unless the value is exactly `Bool(lit)`.
    GuardBool {
        /// Scrutinee location.
        src: Src,
        /// Required literal.
        lit: bool,
        /// Probe attribution on failure.
        site: FailSite,
    },
    /// Fail unless the value is a `Nat ≥ k`; on success
    /// `dst ← Nat(n − k)` (a `S^k x` pattern, destructured in one step).
    GuardSucc {
        /// Scrutinee location.
        src: Src,
        /// Successor depth (≥ 1).
        k: u64,
        /// Register receiving the predecessor.
        dst: u16,
        /// Probe attribution on failure.
        site: FailSite,
    },
    /// Structural (in)equality: fail when `(a == b) == negated`.
    /// Compiled from `EqCheck` steps and from non-linear pattern
    /// variables (the §4 reconciliation).
    GuardEq {
        /// Left value.
        a: Src,
        /// Right value.
        b: Src,
        /// `true` for a disequality check.
        negated: bool,
        /// Probe attribution on failure.
        site: FailSite,
    },
    /// Fail unless the value is `ctor(f₁…fₙ)` with arity `dsts.len()`;
    /// on success each `Some(r)` slot receives its field (`None` slots
    /// are wildcard positions, never copied).
    Destruct {
        /// Scrutinee location.
        src: Src,
        /// Required constructor.
        ctor: CtorId,
        /// Per-field destination registers.
        dsts: Box<[Option<u16>]>,
        /// Probe attribution on failure.
        site: FailSite,
    },
    /// External checker premise: gather `srcs` and call
    /// [`Library::check`] at the top-level fuel. `Some(true)` falls
    /// through; any other verdict (after `negated` flips it) returns.
    CheckRel {
        /// The relation checked.
        rel: RelId,
        /// Argument locations.
        srcs: Box<[Src]>,
        /// `true` for a negated premise.
        negated: bool,
        /// Plan step index, for `Premise` attribution.
        step: u32,
    },
    /// Recursive self-premise at the decremented fuel: charges one
    /// budget step, then re-enters this program's dispatch loop.
    RecSelf {
        /// Argument locations.
        srcs: Box<[Src]>,
        /// Plan step index, for `Premise` attribution.
        step: u32,
    },
    /// External enumerator premise: drain the stream, writing each
    /// witness tuple into `outs` and re-running the instruction suffix,
    /// under the out-of-fuel bookkeeping of `bindEC`.
    ProduceExt {
        /// The relation enumerated.
        rel: RelId,
        /// The mode of the external instance.
        mode: Mode,
        /// Input-argument locations.
        srcs: Box<[Src]>,
        /// Registers receiving the produced outputs.
        outs: Box<[u16]>,
        /// Plan step index, for `Premise` attribution.
        step: u32,
    },
    /// Unconstrained existential: iterate the bounded-exhaustive values
    /// of a type into `dst`, re-running the suffix per candidate, with
    /// domain truncation counted as out-of-fuel.
    Unconstrained {
        /// The instantiated type.
        ty: TypeExpr,
        /// Register receiving each candidate.
        dst: u16,
        /// Plan step index, for `Premise` attribution.
        step: u32,
    },
}

impl Instr {
    /// The opcode mnemonic, as named in the DESIGN.md instruction-set
    /// reference (and checked against it by `scripts/check_vm_docs.sh`).
    pub(crate) fn opcode(&self) -> &'static str {
        match self {
            Instr::Copy { .. } => "Copy",
            Instr::LoadNat { .. } => "LoadNat",
            Instr::LoadBool { .. } => "LoadBool",
            Instr::MkSucc { .. } => "MkSucc",
            Instr::MkCtor { .. } => "MkCtor",
            Instr::CallFun { .. } => "CallFun",
            Instr::GuardNat { .. } => "GuardNat",
            Instr::GuardNatGe { .. } => "GuardNatGe",
            Instr::GuardBool { .. } => "GuardBool",
            Instr::GuardSucc { .. } => "GuardSucc",
            Instr::GuardEq { .. } => "GuardEq",
            Instr::Destruct { .. } => "Destruct",
            Instr::CheckRel { .. } => "CheckRel",
            Instr::RecSelf { .. } => "RecSelf",
            Instr::ProduceExt { .. } => "ProduceExt",
            Instr::Unconstrained { .. } => "Unconstrained",
        }
    }
}

/// One compiled handler: a register count and a straight-line
/// instruction array (input matching first, then the scheduled steps).
pub(crate) struct VmHandler {
    /// Mirrors [`Handler::recursive`]; at fuel 0 the dispatch loop
    /// skips recursive handlers, exactly like the interpreter.
    pub(crate) recursive: bool,
    /// Frame width: plan slots plus compiler temporaries.
    pub(crate) nregs: usize,
    /// The instructions.
    pub(crate) code: Box<[Instr]>,
}

/// A checker plan compiled to bytecode: one [`VmHandler`] per rule.
/// Rule dispatch (constructor indexing, fuel discipline, backtrack
/// charges) lives in the executor, not the program.
pub(crate) struct VmProgram {
    /// One compiled handler per plan handler, same order.
    pub(crate) handlers: Vec<VmHandler>,
    /// The identity bucket `[0, 1, .., handlers.len())`, so unindexed
    /// dispatch walks the same plain `&[u32]` slice an index bucket
    /// would — one loop shape, no iterator enum in the hot path.
    pub(crate) all: Box<[u32]>,
}

impl VmProgram {
    /// Total instruction count across handlers (diagnostics only).
    pub(crate) fn code_len(&self) -> usize {
        self.handlers.iter().map(|h| h.code.len()).sum()
    }
}

// ---------------------------------------------------------------------
// Compilation
// ---------------------------------------------------------------------

/// Compiles a checker plan to bytecode. Returns `None` — the signal for
/// the per-relation interpreter fallback — when any handler uses a
/// construct outside the register discipline (see the DESIGN.md
/// compilability rules): a `ProduceRec` step (never emitted in checker
/// plans, kept as a defensive gate), a register written twice, a read
/// of a never-written register, a pattern that cannot match any value,
/// or a frame wider than the register ceiling.
pub(crate) fn compile_vm(
    plan: &Plan,
    index: Option<&crate::index::DispatchIndex>,
) -> Option<VmProgram> {
    debug_assert!(plan.mode.is_checker());
    // Dispatch runs through the index whenever one exists, so a head
    // guard at the indexed position that merely restates the bucket's
    // head class can never fail — the compiler drops it (see
    // [`head_guard_subsumed`]).
    let elide_pos = index.map(|ix| ix.pos());
    let handlers = plan
        .handlers
        .iter()
        .map(|h| compile_handler(h, elide_pos))
        .collect::<Option<Vec<_>>>()?;
    let all = (0..handlers.len() as u32).collect();
    Some(VmProgram { handlers, all })
}

/// Per-handler compiler state: the emitted code plus the single-
/// assignment bookkeeping. `loc[v]` records where plan variable `v`
/// lives once bound — its own frame register when an instruction
/// writes it, or an *alias* (an argument position or an
/// already-written register) when binding it required no work, in
/// which case every read compiles to the aliased location and the
/// `Copy` the interpreter's `Env` bind corresponds to is never
/// emitted.
struct Compiler {
    code: Vec<Instr>,
    nslots: usize,
    nregs: usize,
    /// Frame width actually needed at run time: one past the highest
    /// register any instruction *writes*. Aliased variables consume no
    /// frame space, so a handler that binds everything by aliasing —
    /// the common pure-destructuring shape — runs on a zero-width
    /// frame and skips frame setup entirely.
    frame_len: usize,
    loc: Vec<Option<Src>>,
}

fn compile_handler(h: &Handler, elide_pos: Option<usize>) -> Option<VmHandler> {
    if h.nslots > MAX_REGS || h.input_pats.len() > MAX_PREMISE_ARITY {
        return None;
    }
    let mut c = Compiler {
        code: Vec::new(),
        nslots: h.nslots,
        nregs: h.nslots,
        frame_len: 0,
        loc: vec![None; h.nslots],
    };
    for (i, pat) in h.input_pats.iter().enumerate() {
        let arg = u16::try_from(i).ok()?;
        if elide_pos == Some(i) && head_guard_subsumed(pat) {
            // Indexed dispatch already proved the scrutinee's head
            // here; only the sub-structure (if any) needs matching.
            // Field reads below lean on the same dispatch invariant
            // the elided guard would have re-checked.
            if let Pattern::Ctor(_, pats) = pat {
                if pats.len() > u16::MAX as usize {
                    return None;
                }
                for (j, p) in pats.iter().enumerate() {
                    c.pattern(Src::ArgField(arg, j as u16), p, FailSite::Inputs)?;
                }
            }
            continue;
        }
        c.pattern(Src::Arg(arg), pat, FailSite::Inputs)?;
    }
    for (idx, step) in h.steps.iter().enumerate() {
        c.step(idx as u32, step)?;
    }
    Some(VmHandler {
        recursive: h.recursive,
        nregs: c.frame_len,
        code: c.code.into_boxed_slice(),
    })
}

/// Whether indexed dispatch subsumes this pattern's head guard: the
/// pattern demands exactly the head class (`index::head_of`) its
/// bucket guarantees, so the guard the compiler would emit at the
/// indexed position can never fire. True for a constructor pattern
/// (the bucket pins the constructor; a fixed-arity universe pins the
/// field count), the literal `0`, a boolean literal, and `S _` (the
/// `NatPos` bucket guarantees exactly `n ≥ 1`). False wherever the
/// guard is strictly stronger than the class — `NatLit(n)` for
/// positive `n`, deeper successor spines — or where matching also
/// binds (`S x`).
fn head_guard_subsumed(pat: &Pattern) -> bool {
    match pat {
        Pattern::Ctor(..) | Pattern::NatLit(0) | Pattern::BoolLit(_) => true,
        Pattern::Succ(inner) => matches!(**inner, Pattern::Wild),
        _ => false,
    }
}

impl Compiler {
    /// Records that an instruction writes register `r`, growing the
    /// run-time frame to cover it.
    fn note_write(&mut self, r: u16) {
        self.frame_len = self.frame_len.max(r as usize + 1);
    }

    /// Allocates a fresh temporary. Temporaries are born bound: the
    /// instruction emitted immediately after allocation writes them.
    fn temp(&mut self) -> Option<u16> {
        if self.nregs >= MAX_REGS {
            return None;
        }
        let r = self.nregs;
        self.nregs += 1;
        let r = u16::try_from(r).ok()?;
        self.note_write(r);
        Some(r)
    }

    /// A plan variable for reading: its location, once bound.
    fn read_var(&self, var: VarId) -> Option<Src> {
        self.loc.get(var.index()).copied().flatten()
    }

    /// A plan variable for writing by an instruction (`Destruct`
    /// fields, `GuardSucc`, producer outputs): its own frame register.
    /// Must be unbound (single assignment); marks it bound.
    fn bind_var(&mut self, var: VarId) -> Option<u16> {
        if var.index() >= self.nslots || self.loc[var.index()].is_some() {
            return None;
        }
        let r = u16::try_from(var.index()).ok()?;
        self.loc[var.index()] = Some(Src::Reg(r));
        self.note_write(r);
        Some(r)
    }

    /// Binds a plan variable by aliasing: subsequent reads compile to
    /// `src` directly — no `Copy` instruction, no register write.
    fn alias_var(&mut self, var: VarId, src: Src) -> Option<()> {
        if var.index() >= self.nslots || self.loc[var.index()].is_some() {
            return None;
        }
        self.loc[var.index()] = Some(src);
        Some(())
    }

    fn is_bound(&self, var: VarId) -> bool {
        self.loc.get(var.index()).is_some_and(Option::is_some)
    }

    /// Compiles a pattern match of `src` into guard instructions.
    /// Already-bound variables become equality guards (the non-linear
    /// reconciliation `Pattern::matches` performs against its `Env`).
    fn pattern(&mut self, src: Src, pat: &Pattern, site: FailSite) -> Option<()> {
        match pat {
            Pattern::Wild => {}
            Pattern::Var(x) => match self.read_var(*x) {
                // Non-linear occurrence: the reconciliation
                // `Pattern::matches` performs against its `Env`.
                Some(b) => self.code.push(Instr::GuardEq {
                    a: src,
                    b,
                    negated: false,
                    site,
                }),
                // First occurrence: a bare variable always matches, so
                // binding is pure aliasing — zero instructions.
                None => self.alias_var(*x, src)?,
            },
            Pattern::NatLit(n) => self.code.push(Instr::GuardNat { src, lit: *n, site }),
            Pattern::BoolLit(b) => self.code.push(Instr::GuardBool { src, lit: *b, site }),
            Pattern::Succ(inner) => {
                // Flatten the successor spine: `S^k core` matches `Nat n`
                // iff `n ≥ k` and `core` matches `Nat (n − k)`.
                let mut k = 1u64;
                let mut core: &Pattern = inner;
                while let Pattern::Succ(next) = core {
                    k = k.checked_add(1)?;
                    core = next;
                }
                match core {
                    Pattern::Wild => self.code.push(Instr::GuardNatGe { src, min: k, site }),
                    Pattern::NatLit(m) => self.code.push(Instr::GuardNat {
                        src,
                        // `n − k == m` ⇔ `n == m + k`; on overflow no
                        // nat satisfies it — fall back (None) rather
                        // than encode an unmatchable guard.
                        lit: m.checked_add(k)?,
                        site,
                    }),
                    Pattern::Var(x) => {
                        if let Some(b) = self.read_var(*x) {
                            let t = self.temp()?;
                            self.code.push(Instr::GuardSucc {
                                src,
                                k,
                                dst: t,
                                site,
                            });
                            self.code.push(Instr::GuardEq {
                                a: Src::Reg(t),
                                b,
                                negated: false,
                                site,
                            });
                        } else {
                            let dst = self.bind_var(*x)?;
                            self.code.push(Instr::GuardSucc { src, k, dst, site });
                        }
                    }
                    // A boolean or constructor under a successor can
                    // never match a nat — unmatchable, fall back.
                    _ => return None,
                }
            }
            Pattern::Ctor(ctor, pats) => {
                // A base that is an argument or a register can be read
                // through depth-one field paths: emit `Destruct` as a
                // pure guard (no register writes) and compile every
                // sub-pattern against the field source in place — a
                // first-occurrence variable field costs nothing at all.
                // A base that is itself a field path cannot nest
                // further, so its fields copy into registers first.
                let fields = match src {
                    Src::Arg(i) => (0..pats.len())
                        .map(|j| Src::ArgField(i, j as u16))
                        .collect(),
                    Src::Reg(r) => (0..pats.len())
                        .map(|j| Src::RegField(r, j as u16))
                        .collect(),
                    Src::ArgField(..) | Src::RegField(..) => Vec::new(),
                };
                if !fields.is_empty() {
                    if pats.len() > u16::MAX as usize {
                        return None;
                    }
                    self.code.push(Instr::Destruct {
                        src,
                        ctor: *ctor,
                        dsts: vec![None; pats.len()].into_boxed_slice(),
                        site,
                    });
                    for (f, p) in fields.into_iter().zip(pats) {
                        self.pattern(f, p, site)?;
                    }
                } else {
                    let mut dsts = Vec::with_capacity(pats.len());
                    let mut deferred: Vec<(u16, &Pattern)> = Vec::new();
                    for p in pats {
                        match p {
                            Pattern::Wild => dsts.push(None),
                            Pattern::Var(x) if !self.is_bound(*x) => {
                                dsts.push(Some(self.bind_var(*x)?));
                            }
                            _ => {
                                let t = self.temp()?;
                                dsts.push(Some(t));
                                deferred.push((t, p));
                            }
                        }
                    }
                    self.code.push(Instr::Destruct {
                        src,
                        ctor: *ctor,
                        dsts: dsts.into_boxed_slice(),
                        site,
                    });
                    for (t, p) in deferred {
                        self.pattern(Src::Reg(t), p, site)?;
                    }
                }
            }
        }
        Some(())
    }

    /// Compiles an expression, returning the location holding its
    /// value. Variables compile to their bound location (no copy);
    /// compound expressions build into fresh temporaries.
    fn expr(&mut self, e: &TermExpr) -> Option<Src> {
        if let TermExpr::Var(x) = e {
            return self.read_var(*x);
        }
        let dst = self.temp()?;
        self.expr_into(e, dst)?;
        Some(Src::Reg(dst))
    }

    /// Compiles an expression directly into `dst` (used by `EqBind`,
    /// where `dst` is the bound variable's own register).
    fn expr_into(&mut self, e: &TermExpr, dst: u16) -> Option<()> {
        match e {
            TermExpr::Var(x) => {
                let src = self.read_var(*x)?;
                self.code.push(Instr::Copy { src, dst });
            }
            TermExpr::NatLit(n) => self.code.push(Instr::LoadNat { dst, lit: *n }),
            TermExpr::BoolLit(b) => self.code.push(Instr::LoadBool { dst, lit: *b }),
            TermExpr::Succ(inner) => {
                let src = self.expr(inner)?;
                self.code.push(Instr::MkSucc { src, dst });
            }
            TermExpr::Ctor(c, args) => {
                let srcs = self.expr_list(args)?;
                self.code.push(Instr::MkCtor {
                    ctor: *c,
                    srcs,
                    dst,
                });
            }
            TermExpr::Fun(f, args) => {
                let srcs = self.expr_list(args)?;
                self.code.push(Instr::CallFun { fun: *f, srcs, dst });
            }
        }
        Some(())
    }

    fn expr_list(&mut self, args: &[TermExpr]) -> Option<Box<[Src]>> {
        args.iter()
            .map(|a| self.expr(a))
            .collect::<Option<Vec<_>>>()
            .map(Vec::into_boxed_slice)
    }

    /// Compiles one scheduled plan step.
    fn step(&mut self, idx: u32, step: &Step) -> Option<()> {
        let site = FailSite::Step(idx);
        match step {
            Step::EqCheck { lhs, rhs, negated } => {
                // Same evaluation order as the interpreter: lhs, then
                // rhs, then the comparison.
                let a = self.expr(lhs)?;
                let b = self.expr(rhs)?;
                self.code.push(Instr::GuardEq {
                    a,
                    b,
                    negated: *negated,
                    site,
                });
            }
            Step::EqBind { var, expr } => {
                // The defining expression is compiled while `var` is
                // still unbound, so a (malformed) self-reference fails
                // compilation instead of reading garbage.
                if var.index() >= self.nslots || self.is_bound(*var) {
                    return None;
                }
                if let TermExpr::Var(y) = expr {
                    // Variable-to-variable binding is pure aliasing.
                    let src = self.read_var(*y)?;
                    self.loc[var.index()] = Some(src);
                } else {
                    let dst = u16::try_from(var.index()).ok()?;
                    self.note_write(dst);
                    self.expr_into(expr, dst)?;
                    self.loc[var.index()] = Some(Src::Reg(dst));
                }
            }
            Step::MatchExpr { scrutinee, pattern } => {
                let s = self.expr(scrutinee)?;
                self.pattern(s, pattern, site)?;
            }
            Step::CheckRel { rel, args, negated } => {
                if args.len() > MAX_PREMISE_ARITY {
                    return None;
                }
                let srcs = self.expr_list(args)?;
                self.code.push(Instr::CheckRel {
                    rel: *rel,
                    srcs,
                    negated: *negated,
                    step: idx,
                });
            }
            Step::RecCheck { args } => {
                if args.len() > MAX_PREMISE_ARITY {
                    return None;
                }
                let srcs = self.expr_list(args)?;
                self.code.push(Instr::RecSelf { srcs, step: idx });
            }
            Step::ProduceExt {
                rel,
                mode,
                in_args,
                out_slots,
            } => {
                let srcs = self.expr_list(in_args)?;
                let outs = out_slots
                    .iter()
                    .map(|v| self.bind_var(*v))
                    .collect::<Option<Vec<_>>>()?
                    .into_boxed_slice();
                self.code.push(Instr::ProduceExt {
                    rel: *rel,
                    mode: mode.clone(),
                    srcs,
                    outs,
                    step: idx,
                });
            }
            // Checker plans never contain ProduceRec; treat it as
            // uncompilable rather than unreachable so a future plan
            // change degrades to the interpreter.
            Step::ProduceRec { .. } => return None,
            Step::Unconstrained { var, ty } => {
                let dst = self.bind_var(*var)?;
                self.code.push(Instr::Unconstrained {
                    ty: ty.clone(),
                    dst,
                    step: idx,
                });
            }
        }
        Some(())
    }
}

// ---------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------

/// VM scratch: free lists for register frames and premise argument
/// vectors. One lives on the session (`library::Inner::vm_frames`)
/// behind a `RefCell`, but it is *taken wholesale* at each VM entry and
/// threaded `&mut` through the search, so the dispatch loop itself
/// never touches the `RefCell`. A re-entrant entry — an uncompiled
/// premise calling back into the VM through [`Library::check`] — finds
/// the cell empty, starts with a cold scratch, and merges it back on
/// exit.
#[derive(Default)]
pub(crate) struct VmFrames {
    free: Vec<Vec<Value>>,
    argv: Vec<Vec<Value>>,
}

impl VmFrames {
    fn take(&mut self, nregs: usize) -> Vec<Value> {
        let mut f = self.free.pop().unwrap_or_default();
        f.clear();
        f.resize(nregs, Value::Bool(false));
        f
    }

    fn put(&mut self, f: Vec<Value>) {
        if self.free.len() < 64 {
            self.free.push(f);
        }
    }

    fn take_argv(&mut self) -> Vec<Value> {
        self.argv.pop().unwrap_or_default()
    }

    fn put_argv(&mut self, mut v: Vec<Value>) {
        v.clear();
        if self.argv.len() < 64 {
            self.argv.push(v);
        }
    }
}

/// One budget step against the entry-cached meter — the same decision
/// [`Library`]'s `charge_step` makes, without the per-site `RefCell`
/// borrow (the armed meter cannot change during a search: arming
/// happens only in the `try_*` entry points, around whole calls).
#[inline]
fn charge_step_cached(meter: &Option<Meter>) -> bool {
    match meter {
        Some(m) => m.charge_step(),
        None => true,
    }
}

/// One abandoned alternative against the entry-cached meter.
#[inline]
fn charge_backtrack_cached(meter: &Option<Meter>) -> bool {
    match meter {
        Some(m) => m.charge_backtrack(),
        None => true,
    }
}

#[inline]
fn read<'a>(frame: &'a [Value], args: &'a [&'a Value], src: Src) -> &'a Value {
    match src {
        Src::Arg(i) => args[i as usize],
        Src::Reg(r) => &frame[r as usize],
        Src::ArgField(i, j) => field(args[i as usize], j),
        Src::RegField(r, j) => field(&frame[r as usize], j),
    }
}

/// Resolves a depth-one field path. The compiler only emits field
/// sources behind a `Destruct` guard on the same base, so the base is
/// always a constructor of sufficient arity here.
#[inline]
fn field(base: &Value, j: u16) -> &Value {
    match base {
        Value::Ctor(_, fields) => &fields[j as usize],
        _ => unreachable!("plan invariant: field source on a non-constructor"),
    }
}

/// Resolves a premise's source list into the stack reference buffer,
/// returning the populated length. Arities one through three — every
/// premise in the bundled workloads — unroll to straight-line reads;
/// only wider calls pay a counted loop.
#[inline(always)]
fn fill_refs<'a>(
    buf: &mut [&'a Value; MAX_PREMISE_ARITY],
    frame: &'a [Value],
    args: &'a [&'a Value],
    srcs: &[Src],
) -> usize {
    match *srcs {
        [a] => {
            buf[0] = read(frame, args, a);
        }
        [a, b] => {
            buf[0] = read(frame, args, a);
            buf[1] = read(frame, args, b);
        }
        [a, b, c] => {
            buf[0] = read(frame, args, a);
            buf[1] = read(frame, args, b);
            buf[2] = read(frame, args, c);
        }
        _ => {
            for (slot, &s) in buf.iter_mut().zip(srcs) {
                *slot = read(frame, args, s);
            }
        }
    }
    srcs.len()
}

impl Library {
    /// Takes the session's VM scratch out of its `RefCell`, leaving a
    /// fresh empty one for any re-entrant entry underneath.
    fn take_vm_frames(&self) -> VmFrames {
        self.inner.vm_frames.take()
    }

    /// Returns the scratch to the session, merging with whatever a
    /// re-entrant entry left behind (capped, like every session pool).
    fn put_vm_frames(&self, mut frames: VmFrames) {
        let mut pool = self.inner.vm_frames.borrow_mut();
        if pool.free.is_empty() && pool.argv.is_empty() {
            *pool = frames;
        } else {
            while pool.free.len() < 64 {
                match frames.free.pop() {
                    Some(f) => pool.free.push(f),
                    None => break,
                }
            }
            while pool.argv.len() < 64 {
                match frames.argv.pop() {
                    Some(v) => pool.argv.push(v),
                    None => break,
                }
            }
        }
    }

    /// The search below a checker entry boundary for a relation whose
    /// plan compiled: rule dispatch and the fuel discipline, with
    /// handler bodies executed by [`Library::vm_exec`].
    ///
    /// This boundary decides, once per entry, which of the two
    /// monomorphized dispatch loops runs (the `PAR` const parameter of
    /// [`Library::vm_search`]):
    ///
    /// * the **parity** loop — whenever a meter, probe, memo table, or
    ///   shared serving table is armed — makes every budget charge,
    ///   probe event, and `search_calls` bump the DESIGN.md opcode table
    ///   specifies, with the armed meter resolved once here instead of
    ///   one `RefCell` borrow per charge site;
    /// * the **fast** loop — when none of the four is armed — compiles
    ///   all of that bookkeeping out. Unobservable by construction:
    ///   with no meter every charge answers `true`, with no probe every
    ///   event is dropped, and `search_calls` feeds only the memo cost
    ///   gates and probe-armed premise deltas, all of which are off.
    ///   None of the conditions can change mid-call — meters and probes
    ///   arm only between top-level calls.
    pub(crate) fn run_vm_search(
        &self,
        chk: &CompiledChecker,
        prog: &VmProgram,
        size: u64,
        top: u64,
        args: &[Value],
    ) -> Option<bool> {
        // The executor passes arguments by reference all the way down
        // (premises build `&[&Value]` buffers instead of cloning into
        // owned vectors), so the owned entry tuple converts to a
        // reference buffer once here. Compilation gates every argument
        // read below `MAX_PREMISE_ARITY`, so the truncation `take`
        // can never drop a readable position.
        debug_assert!(args.len() <= MAX_PREMISE_ARITY);
        let mut buf = [&DUMMY_VALUE; MAX_PREMISE_ARITY];
        for (slot, v) in buf.iter_mut().zip(args.iter().take(MAX_PREMISE_ARITY)) {
            *slot = v;
        }
        let refs = &buf[..args.len().min(MAX_PREMISE_ARITY)];
        let mut frames = self.take_vm_frames();
        let meter = self.active_meter();
        let fast = meter.is_none()
            && !self.probe_armed()
            && !self.inner.memo_enabled.get()
            && self.inner.shared_memo.borrow().is_none();
        let r = if fast {
            self.vm_search::<false>(chk, prog, &None, &mut frames, size, top, refs)
        } else {
            self.vm_search::<true>(chk, prog, &meter, &mut frames, size, top, refs)
        };
        self.put_vm_frames(frames);
        r
    }

    #[inline]
    #[allow(clippy::too_many_arguments)]
    fn vm_search<const PAR: bool>(
        &self,
        chk: &CompiledChecker,
        prog: &VmProgram,
        meter: &Option<Meter>,
        frames: &mut VmFrames,
        size: u64,
        top: u64,
        args: &[&Value],
    ) -> Option<bool> {
        // Parity bookkeeping: the memo cost gate's counter, the probe's
        // Enter/depth pair, and the constructor-indexed dispatch with its
        // IndexSkip event.
        if PAR {
            self.inner
                .search_calls
                .set(self.inner.search_calls.get() + 1);
        }
        let _depth = if PAR {
            self.probe_enter(chk.rel, ExecKind::Checker)
        } else {
            None
        };
        let mut needs_fuel = false;
        let size_rem = size.saturating_sub(1);
        let candidates: &[u32] = match &chk.index {
            Some(index) => {
                let bucket = index.candidates(args);
                if PAR {
                    let skipped = index.total() - bucket.len() as u32;
                    if skipped > 0 {
                        self.probe(|| Event::IndexSkip {
                            rel: chk.rel,
                            skipped,
                        });
                    }
                }
                bucket
            }
            None => &prog.all,
        };
        for &i in candidates {
            let h = &prog.handlers[i as usize];
            if size == 0 && h.recursive {
                continue;
            }
            if PAR {
                self.probe(|| Event::RuleAttempt {
                    rel: chk.rel,
                    rule: i,
                });
            }
            // A handler whose every guard was elided (a base-case rule
            // fully subsumed by indexed dispatch) has an empty body:
            // success is unconditional, no frame or executor needed.
            let r = if h.code.is_empty() {
                Some(true)
            } else {
                self.vm_handler::<PAR>(chk, prog, h, i, meter, frames, size_rem, top, args)
            };
            match r {
                Some(true) => {
                    if PAR {
                        self.probe(|| Event::RuleSuccess {
                            rel: chk.rel,
                            rule: i,
                        });
                    }
                    return Some(true);
                }
                Some(false) => {}
                None => needs_fuel = true,
            }
            if PAR {
                self.probe(|| Event::Backtrack {
                    rel: chk.rel,
                    rule: i,
                });
                if !charge_backtrack_cached(meter) {
                    return None;
                }
            }
        }
        if needs_fuel || (size == 0 && chk.has_recursive) {
            None
        } else {
            Some(false)
        }
    }

    #[inline]
    #[allow(clippy::too_many_arguments)]
    fn vm_handler<const PAR: bool>(
        &self,
        chk: &CompiledChecker,
        prog: &VmProgram,
        h: &VmHandler,
        h_idx: u32,
        meter: &Option<Meter>,
        frames: &mut VmFrames,
        size_rem: u64,
        top: u64,
        args: &[&Value],
    ) -> Option<bool> {
        // Handlers that bind everything by aliasing have a zero-width
        // frame — no take, no clear, no return to the pool.
        if h.nregs == 0 {
            let mut frame = Vec::new();
            return self.vm_exec::<PAR>(
                chk, prog, h, h_idx, 0, &mut frame, frames, meter, size_rem, top, args,
            );
        }
        let mut frame = frames.take(h.nregs);
        let r = self.vm_exec::<PAR>(
            chk, prog, h, h_idx, 0, &mut frame, frames, meter, size_rem, top, args,
        );
        frames.put(frame);
        r
    }

    /// The dispatch loop: executes `h.code[pc..]` over `frame`.
    /// Straight-line instructions iterate in place; the fan-out
    /// instructions (`ProduceExt`, `Unconstrained`) re-enter this
    /// function per candidate on the *same* frame (single assignment
    /// makes the re-run safe, see the module docs) and return the
    /// three-valued `bindEC` fold of the suffix results. Reaching the
    /// end of the code is the handler succeeding.
    #[allow(clippy::too_many_arguments)]
    fn vm_exec<const PAR: bool>(
        &self,
        chk: &CompiledChecker,
        prog: &VmProgram,
        h: &VmHandler,
        h_idx: u32,
        pc0: usize,
        frame: &mut Vec<Value>,
        frames: &mut VmFrames,
        meter: &Option<Meter>,
        size_rem: u64,
        top: u64,
        args: &[&Value],
    ) -> Option<bool> {
        let mut pc = pc0;
        while let Some(instr) = h.code.get(pc) {
            match instr {
                Instr::Copy { src, dst } => {
                    let v = read(frame, args, *src).clone();
                    frame[*dst as usize] = v;
                }
                Instr::LoadNat { dst, lit } => frame[*dst as usize] = Value::Nat(*lit),
                Instr::LoadBool { dst, lit } => frame[*dst as usize] = Value::Bool(*lit),
                Instr::MkSucc { src, dst } => {
                    let n = read(frame, args, *src)
                        .as_nat()
                        .expect("plan invariant: successor of a non-nat");
                    frame[*dst as usize] = Value::Nat(n.saturating_add(1));
                }
                Instr::MkCtor { ctor, srcs, dst } => {
                    let vals = srcs.iter().map(|&s| read(frame, args, s).clone()).collect();
                    frame[*dst as usize] = Value::ctor(*ctor, vals);
                }
                Instr::CallFun { fun, srcs, dst } => {
                    let mut vals = frames.take_argv();
                    vals.extend(srcs.iter().map(|&s| read(frame, args, s).clone()));
                    let v = self.universe().fun(*fun).apply(&vals);
                    frames.put_argv(vals);
                    frame[*dst as usize] = v;
                }
                Instr::GuardNat { src, lit, site } => {
                    if read(frame, args, *src).as_nat() != Some(*lit) {
                        return self.vm_fail::<PAR>(chk.rel, h_idx, *site);
                    }
                }
                Instr::GuardNatGe { src, min, site } => {
                    if read(frame, args, *src).as_nat().is_none_or(|n| n < *min) {
                        return self.vm_fail::<PAR>(chk.rel, h_idx, *site);
                    }
                }
                Instr::GuardBool { src, lit, site } => {
                    if read(frame, args, *src).as_bool() != Some(*lit) {
                        return self.vm_fail::<PAR>(chk.rel, h_idx, *site);
                    }
                }
                Instr::GuardSucc { src, k, dst, site } => match read(frame, args, *src).as_nat() {
                    Some(n) if n >= *k => frame[*dst as usize] = Value::Nat(n - *k),
                    _ => return self.vm_fail::<PAR>(chk.rel, h_idx, *site),
                },
                Instr::GuardEq {
                    a,
                    b,
                    negated,
                    site,
                } => {
                    let l = read(frame, args, *a);
                    let r = read(frame, args, *b);
                    if (l == r) == *negated {
                        return self.vm_fail::<PAR>(chk.rel, h_idx, *site);
                    }
                }
                Instr::Destruct {
                    src,
                    ctor,
                    dsts,
                    site,
                } => {
                    let fields = match read(frame, args, *src) {
                        Value::Ctor(c, fields) if c == ctor && fields.len() == dsts.len() => {
                            // Pure guard (every field read through a
                            // path source): no copies at all. Otherwise
                            // an O(1) Arc clone releases the borrow of
                            // the frame so the field copies can write.
                            if dsts.iter().all(Option::is_none) {
                                None
                            } else {
                                Some(fields.clone())
                            }
                        }
                        _ => return self.vm_fail::<PAR>(chk.rel, h_idx, *site),
                    };
                    if let Some(fields) = fields {
                        for (slot, v) in dsts.iter().zip(fields.iter()) {
                            if let Some(d) = slot {
                                frame[*d as usize] = v.clone();
                            }
                        }
                    }
                }
                Instr::CheckRel {
                    rel,
                    srcs,
                    negated,
                    step,
                } => {
                    // Arguments travel as a stack buffer of references;
                    // owned values materialize only at a boundary that
                    // demands them (a handwritten checker, the
                    // interpreter fallback, the parity loop's `check`
                    // entry).
                    let mut refs = [&DUMMY_VALUE; MAX_PREMISE_ARITY];
                    let len = fill_refs(&mut refs, frame, args, srcs);
                    let refs = &refs[..len];
                    let r = if PAR {
                        // Premise cost attribution: gated on arming, and
                        // scoped to the call alone.
                        let mut vals = frames.take_argv();
                        vals.extend(refs.iter().map(|&v| v.clone()));
                        let calls_before =
                            self.probe_armed().then(|| self.inner.search_calls.get());
                        let mut r = self.check(*rel, top, top, &vals);
                        if *negated {
                            r = cnot(r);
                        }
                        if let Some(before) = calls_before {
                            let cost = self.inner.search_calls.get() - before;
                            self.probe(|| Event::Premise {
                                rel: chk.rel,
                                rule: h_idx,
                                step: *step,
                                cost,
                                failed: r == Some(false),
                            });
                        }
                        frames.put_argv(vals);
                        r
                    } else {
                        // Inlined `Library::check` minus its (inert
                        // here) charge and probe sites; a compiled
                        // callee stays inside the VM, reusing this
                        // scratch instead of crossing the entry
                        // boundary again — and taking the reference
                        // buffer as-is, no clones.
                        let imp = self.require_checker(*rel).unwrap_or_else(|e| panic!("{e}"));
                        let mut r = match imp {
                            CheckerImpl::Hand(f) => match refs {
                                // Small arities clone into a stack
                                // array — no pool round-trip.
                                [a] => f(top, top, &[(*a).clone()]),
                                [a, b] => f(top, top, &[(*a).clone(), (*b).clone()]),
                                [a, b, c] => {
                                    f(top, top, &[(*a).clone(), (*b).clone(), (*c).clone()])
                                }
                                _ => {
                                    let mut vals = frames.take_argv();
                                    vals.extend(refs.iter().map(|&v| v.clone()));
                                    let r = f(top, top, &vals);
                                    frames.put_argv(vals);
                                    r
                                }
                            },
                            CheckerImpl::Plan(plan, compiled) => match &compiled.vm {
                                Some(p) => self
                                    .vm_search::<false>(compiled, p, &None, frames, top, top, refs),
                                None => {
                                    let mut vals = frames.take_argv();
                                    vals.extend(refs.iter().map(|&v| v.clone()));
                                    let r = self.run_checker_entry(plan, compiled, top, top, &vals);
                                    frames.put_argv(vals);
                                    r
                                }
                            },
                        };
                        if *negated {
                            r = cnot(r);
                        }
                        r
                    };
                    match r {
                        Some(true) => {}
                        other => return other,
                    }
                }
                Instr::RecSelf { srcs, step } => {
                    // The recursive call never leaves the VM, so its
                    // arguments never materialize: a stack buffer of
                    // references is the whole calling convention.
                    let mut refs = [&DUMMY_VALUE; MAX_PREMISE_ARITY];
                    let len = fill_refs(&mut refs, frame, args, srcs);
                    let refs = &refs[..len];
                    let r = if PAR {
                        let calls_before =
                            self.probe_armed().then(|| self.inner.search_calls.get());
                        // One budget step, then the search at the
                        // decremented fuel — staying inside the VM,
                        // reusing this scratch.
                        let r = if charge_step_cached(meter) {
                            self.vm_search::<true>(chk, prog, meter, frames, size_rem, top, refs)
                        } else {
                            None
                        };
                        if let Some(before) = calls_before {
                            let cost = self.inner.search_calls.get() - before;
                            self.probe(|| Event::Premise {
                                rel: chk.rel,
                                rule: h_idx,
                                step: *step,
                                cost,
                                failed: r == Some(false),
                            });
                        }
                        r
                    } else {
                        self.vm_search::<false>(chk, prog, &None, frames, size_rem, top, refs)
                    };
                    match r {
                        Some(true) => {}
                        other => return other,
                    }
                }
                // The two fan-out instructions live in outlined cold
                // functions: their bodies (stream plumbing, candidate
                // loops, premise accounting) would otherwise dominate
                // this function's stack frame, and this function's
                // prologue/epilogue runs once per search step.
                Instr::ProduceExt { .. } => {
                    return self.vm_produce_ext::<PAR>(
                        chk, prog, h, h_idx, pc, frame, frames, meter, size_rem, top, args,
                    );
                }
                Instr::Unconstrained { .. } => {
                    return self.vm_unconstrained::<PAR>(
                        chk, prog, h, h_idx, pc, frame, frames, meter, size_rem, top, args,
                    );
                }
            }
            pc += 1;
        }
        Some(true)
    }

    /// Outlined `ProduceExt` arm of [`Library::vm_exec`]: lazy-stream
    /// premise, binding each yielded tuple into the frame and
    /// re-entering the instruction suffix, folded with `bindEC`. The
    /// streams are lazy, so the cost delta necessarily covers the
    /// premise *and* its continuation under the binder — the
    /// scheduling-relevant tail cost of placing the premise here.
    #[inline(never)]
    #[allow(clippy::too_many_arguments)]
    fn vm_produce_ext<const PAR: bool>(
        &self,
        chk: &CompiledChecker,
        prog: &VmProgram,
        h: &VmHandler,
        h_idx: u32,
        pc: usize,
        frame: &mut Vec<Value>,
        frames: &mut VmFrames,
        meter: &Option<Meter>,
        size_rem: u64,
        top: u64,
        args: &[&Value],
    ) -> Option<bool> {
        let Some(Instr::ProduceExt {
            rel,
            mode,
            srcs,
            outs,
            step,
        }) = h.code.get(pc)
        else {
            unreachable!("vm_produce_ext entered on a non-ProduceExt pc");
        };
        let mut in_vals = frames.take_argv();
        in_vals.extend(srcs.iter().map(|&s| read(frame, args, s).clone()));
        let calls_before = (PAR && self.probe_armed()).then(|| self.inner.search_calls.get());
        let stream = self.enumerate(*rel, mode, top, top, &in_vals);
        frames.put_argv(in_vals);
        let r = bind_ec(stream, |out_vals| {
            for (&o, v) in outs.iter().zip(out_vals) {
                frame[o as usize] = v;
            }
            self.vm_exec::<PAR>(
                chk,
                prog,
                h,
                h_idx,
                pc + 1,
                frame,
                frames,
                meter,
                size_rem,
                top,
                args,
            )
        });
        if let Some(before) = calls_before {
            let cost = self.inner.search_calls.get() - before;
            self.probe(|| Event::Premise {
                rel: chk.rel,
                rule: h_idx,
                step: *step,
                cost,
                failed: r == Some(false),
            });
        }
        r
    }

    /// Outlined `Unconstrained` arm of [`Library::vm_exec`]: the
    /// `bindEC` fold over the type's raw candidates, candidates first
    /// (a conclusive yes short-circuits), the truncation marker last.
    #[inline(never)]
    #[allow(clippy::too_many_arguments)]
    fn vm_unconstrained<const PAR: bool>(
        &self,
        chk: &CompiledChecker,
        prog: &VmProgram,
        h: &VmHandler,
        h_idx: u32,
        pc: usize,
        frame: &mut Vec<Value>,
        frames: &mut VmFrames,
        meter: &Option<Meter>,
        size_rem: u64,
        top: u64,
        args: &[&Value],
    ) -> Option<bool> {
        let Some(Instr::Unconstrained { ty, dst, step }) = h.code.get(pc) else {
            unreachable!("vm_unconstrained entered on a non-Unconstrained pc");
        };
        let candidates = self.raw_values(ty, top);
        let truncated = self.raw_truncated(ty, top);
        let calls_before = (PAR && self.probe_armed()).then(|| self.inner.search_calls.get());
        let mut needs_fuel = false;
        let mut found = false;
        for i in 0..candidates.len() {
            frame[*dst as usize] = candidates[i].clone();
            match self.vm_exec::<PAR>(
                chk,
                prog,
                h,
                h_idx,
                pc + 1,
                frame,
                frames,
                meter,
                size_rem,
                top,
                args,
            ) {
                Some(true) => {
                    found = true;
                    break;
                }
                Some(false) => {}
                None => needs_fuel = true,
            }
        }
        let r = if found {
            Some(true)
        } else if needs_fuel || truncated {
            None
        } else {
            Some(false)
        };
        if let Some(before) = calls_before {
            let cost = self.inner.search_calls.get() - before;
            self.probe(|| Event::Premise {
                rel: chk.rel,
                rule: h_idx,
                step: *step,
                cost,
                failed: r == Some(false),
            });
        }
        r
    }

    #[inline]
    fn vm_fail<const PAR: bool>(&self, rel: RelId, rule: u32, site: FailSite) -> Option<bool> {
        if PAR {
            self.probe(|| Event::UnifyFail { rel, rule, site });
        }
        Some(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::library::LibraryBuilder;
    use indrel_rel::parse::parse_program;
    use indrel_rel::RelEnv;
    use indrel_term::Universe;

    fn demo_lib() -> (Universe, RelEnv, Library, Vec<RelId>) {
        let mut u = Universe::new();
        u.std_funs();
        let mut env = RelEnv::new();
        parse_program(
            &mut u,
            &mut env,
            r"
            rel le : nat nat :=
            | le_n : forall n, le n n
            | le_S : forall n m, le n m -> le n (S m)
            .
            rel between : nat nat :=
            | b : forall n m p, le n m -> le (S m) p -> between n p
            .
            rel square_of : nat nat :=
            | sq : forall n, square_of n (mult n n)
            .
            ",
        )
        .unwrap();
        let rels: Vec<_> = ["le", "between", "square_of"]
            .iter()
            .map(|n| env.rel_id(n).unwrap())
            .collect();
        let mut b = LibraryBuilder::new(u.clone(), env.clone());
        for &r in &rels {
            b.derive_checker(r).unwrap();
        }
        (u, env, b.build(), rels)
    }

    #[test]
    fn demo_relations_compile_to_bytecode() {
        let (_, _, lib, rels) = demo_lib();
        for &r in &rels {
            assert!(lib.vm_compiled(r), "expected bytecode for {r:?}");
        }
    }

    #[test]
    fn vm_and_interpreted_checkers_agree() {
        let (u, env, lib, rels) = demo_lib();
        for &r in &rels {
            let tys = env.relation(r).arg_types().to_vec();
            for args in indrel_term::enumerate::tuples_up_to(&u, &tys, 5) {
                for fuel in 0..10u64 {
                    assert_eq!(
                        lib.check(r, fuel, fuel, &args),
                        lib.check_interpreted(r, fuel, fuel, &args),
                        "{} {:?} fuel {}",
                        env.relation(r).name(),
                        args,
                        fuel
                    );
                }
            }
        }
        assert_eq!(lib.vm_fallback_count(), 0, "every demo relation compiles");
    }

    #[test]
    fn opcode_names_are_unique() {
        let names = [
            "Copy",
            "LoadNat",
            "LoadBool",
            "MkSucc",
            "MkCtor",
            "CallFun",
            "GuardNat",
            "GuardNatGe",
            "GuardBool",
            "GuardSucc",
            "GuardEq",
            "Destruct",
            "CheckRel",
            "RecSelf",
            "ProduceExt",
            "Unconstrained",
        ];
        let set: std::collections::HashSet<_> = names.iter().collect();
        assert_eq!(set.len(), names.len());
        let i = Instr::LoadNat { dst: 0, lit: 0 };
        assert!(names.contains(&i.opcode()));
    }
}
