//! Register-based bytecode backend for derived checkers and producers.
//!
//! When a checker or producer is derived, its plan is compiled — when
//! every construct is supported — into a flat array of register-machine
//! instructions ([`VmProgram`]). One instruction set, three executors:
//! every checker search below the entry boundary ([`crate::entry`])
//! runs the checker dispatch loop, and producer programs run on a
//! push-mode enumerator and a generator (below). The plan interpreter
//! ([`crate::exec`]) stays the oracle.
//!
//! The instruction set, register model, compilability rules, and the
//! budget charges and probe events of every opcode are documented in
//! DESIGN.md § "Bytecode VM" — that chapter is the reference; this
//! module is its implementation. Those charges and events are what
//! the budget and telemetry layers consume, so the parity loop
//! (below) must keep them exactly.
//!
//! Compilation is total ([`compile_vm`]): every derived checker and
//! producer has a program, wide relations and unmatchable patterns
//! included.
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
//! parameter): a *parity* loop that makes the budget charges and probe
//! events of the DESIGN.md opcode table, run only for an armed meter or
//! probe, and a *fast* loop with every such site compiled out, entered
//! whenever neither is armed ([`Library::unarmed`]) — a state in which
//! the bookkeeping is unobservable, so the two loops are
//! indistinguishable except in speed. A verdict table does not arm the
//! parity loop: it decides what it tables from the plan's shape
//! ([`crate::memo`]). See [`Library::run_vm_search`] for the entry
//! gate.
//!
//! A `CheckRel` premise over a compiled callee never leaves the VM
//! ([`Library::check_premise`]). The fast loop enters the callee's
//! dispatch loop; the parity loop charges the callee's entry step on
//! the caller's cached meter and runs the callee's parity search on the
//! caller's scratch, so an armed premise charges, counts and emits what
//! an untabled search of the callee would, without cloning its
//! arguments or deciding the loop again: that decision is made once per
//! top-level call, the only place meters and probes are armed. Neither
//! loop consults a verdict table below the top-level entry
//! ([`crate::memo`]).
//!
//! # Producers
//!
//! A producer program is a checker program plus two opcodes:
//! `ProduceRec`, the recursive call at size − 1, and `Emit`, the output
//! tuple that ends every handler. Two executors run it, under the same
//! gate as the checker's fast loop ([`Library::unarmed`]);
//! armed calls, handwritten instances, and the lazy public
//! [`Library::enumerate`] stay on the plan interpreter.
//!
//! * The **push-mode enumerator** ([`Library::vm_enum_search`]) calls a
//!   [`Sink`] once per outcome, in exactly the order the interpreter's
//!   stream yields them. The fan-out opcodes keep their checker meaning
//!   — re-run the suffix per candidate — and a `Break` from the sink
//!   stops the whole enumeration. The checker's `ProduceExt` folds a
//!   callee this way (§4's `bindEC`): no stream is built. Each level's
//!   frames stay live under the consumer, so past [`PUSH_DEPTH`]
//!   nested levels the interpreter's stream runs the rest of the
//!   descent.
//! * The **generator** ([`Library::run_vm_gen`]) replays the
//!   interpreter's weighted `backtrack` with the same RNG draws in the
//!   same order; each fan-out opcode makes one draw.
//!
//! [`Env`]: indrel_term::Env

use crate::entry::{CompiledChecker, CompiledProducer};
use crate::error::{DeriveError, InstanceKind};
use crate::library::{CheckerImpl, HandCheckFn, Library};
use crate::mode::Mode;
use crate::plan::{Handler, Plan, Step};
use indrel_producers::probe::{Event, ExecKind, FailSite};
use indrel_producers::{bind_ec, cnot, EStream, Meter, Outcome};
use indrel_rel::RelEnv;
use indrel_term::random::random_value;
use indrel_term::{CtorId, FunId, Pattern, RelId, TermExpr, TypeExpr, Value, VarId};
use std::borrow::Borrow;
use std::ops::ControlFlow;

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
    Arg(u32),
    /// Frame register.
    Reg(u32),
    /// Constructor field `.1` of argument `.0` (guarded by a prior
    /// `Destruct` on the same base).
    ArgField(u32, u32),
    /// Constructor field `.1` of frame register `.0` (guarded by a
    /// prior `Destruct` on the same base).
    RegField(u32, u32),
}

/// Capacity of the stack-allocated argument-reference buffers the
/// executors fill per call ([`Library::vm_exec`]); a wider call takes
/// the heap path ([`wide_refs`]). Kept small on purpose: the buffers
/// are zero-initialized per premise, and every realistic relation is
/// far below this.
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
        dst: u32,
    },
    /// `dst ← Nat(lit)`.
    LoadNat {
        /// Destination register.
        dst: u32,
        /// The literal.
        lit: u64,
    },
    /// `dst ← Bool(lit)`.
    LoadBool {
        /// Destination register.
        dst: u32,
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
        dst: u32,
    },
    /// `dst ← ctor(srcs…)`.
    MkCtor {
        /// The constructor.
        ctor: CtorId,
        /// Argument locations, in declaration order.
        srcs: Box<[Src]>,
        /// Destination register.
        dst: u32,
    },
    /// `dst ← fun(srcs…)` — a registered total function.
    CallFun {
        /// The function.
        fun: FunId,
        /// Argument locations.
        srcs: Box<[Src]>,
        /// Destination register.
        dst: u32,
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
        dst: u32,
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
        dsts: Box<[Option<u32>]>,
        /// Probe attribution on failure.
        site: FailSite,
    },
    /// External checker premise: gather `srcs` and check `rel` at the
    /// top-level fuel, as [`Library::check`] does (a compiled callee is
    /// entered inside the VM). `Some(true)` falls through; any other
    /// verdict (after `negated` flips it) returns.
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
        outs: Box<[u32]>,
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
        dst: u32,
        /// Plan step index, for `Premise` attribution.
        step: u32,
    },
    /// Recursive producer premise at size − 1 (producer programs only):
    /// the enumerator re-runs the suffix per witness tuple, the
    /// generator draws one tuple.
    ProduceRec {
        /// Input-argument locations.
        srcs: Box<[Src]>,
        /// Registers receiving the produced outputs.
        outs: Box<[u32]>,
    },
    /// The handler's output tuple (producer programs only; every
    /// producer handler ends with exactly one).
    Emit {
        /// Output locations, in the mode's output order.
        srcs: Box<[Src]>,
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
            Instr::ProduceRec { .. } => "ProduceRec",
            Instr::Emit { .. } => "Emit",
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

/// A plan compiled to bytecode: one [`VmHandler`] per rule. Rule
/// dispatch (constructor indexing, fuel discipline, backtrack charges,
/// the generator's weighted choice) lives in the executors, not the
/// program.
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

/// Compiles a checker or producer plan to bytecode: total over the
/// plans the deriver emits, at any arity and frame width. A plan shape
/// outside the register discipline — a step of the other plan kind
/// (`ProduceRec` in a checker, `RecCheck` in a producer), a variable
/// bound twice, a read before its write — is never emitted; it is a
/// [`DeriveError::UnschedulablePremise`] naming the rule.
///
/// `elide_pos` is the position indexed dispatch discriminates on, when
/// every call dispatches through an index: a head guard there that
/// merely restates the bucket's head class can never fail, so the
/// compiler drops it (see [`head_guard_subsumed`]).
pub(crate) fn compile_vm(
    plan: &Plan,
    elide_pos: Option<usize>,
    env: &RelEnv,
) -> Result<VmProgram, DeriveError> {
    let producer = !plan.mode.is_checker();
    let handlers = plan
        .handlers
        .iter()
        .map(|h| {
            compile_handler(h, elide_pos, producer).map_err(|reason| {
                DeriveError::UnschedulablePremise {
                    rel: env.relation(plan.rel).name().to_string(),
                    rule: h.name.clone(),
                    reason: format!("the plan does not compile to bytecode: {reason}"),
                }
            })
        })
        .collect::<Result<Vec<_>, _>>()?;
    let all = (0..handlers.len() as u32).collect();
    Ok(VmProgram { handlers, all })
}

/// A compilation step's result: the error names the broken invariant.
type Compiled<T> = Result<T, &'static str>;

/// An index as an instruction operand: it counts something the plan
/// holds in memory (a slot, a field, an emitted temporary).
fn operand(i: usize) -> u32 {
    u32::try_from(i).expect("plan invariant: operand index beyond u32")
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
    /// Compiling a producer plan: `ProduceRec` is legal, `RecCheck` is
    /// not, and the handler ends with `Emit`.
    producer: bool,
    nregs: usize,
    /// Frame width actually needed at run time: one past the highest
    /// register any instruction *writes*. Aliased variables consume no
    /// frame space, so a handler that binds everything by aliasing —
    /// the common pure-destructuring shape — runs on a zero-width
    /// frame and skips frame setup entirely.
    frame_len: usize,
    loc: Vec<Option<Src>>,
}

fn compile_handler(h: &Handler, elide_pos: Option<usize>, producer: bool) -> Compiled<VmHandler> {
    let mut c = Compiler {
        code: Vec::new(),
        producer,
        nregs: h.nslots,
        frame_len: 0,
        loc: vec![None; h.nslots],
    };
    for (i, pat) in h.input_pats.iter().enumerate() {
        let arg = operand(i);
        if elide_pos == Some(i) && head_guard_subsumed(pat) {
            // Indexed dispatch already proved the scrutinee's head
            // here; only the sub-structure (if any) needs matching.
            // Field reads below lean on the same dispatch invariant
            // the elided guard would have re-checked.
            if let Pattern::Ctor(_, pats) = pat {
                for (j, p) in pats.iter().enumerate() {
                    c.pattern(Src::ArgField(arg, operand(j)), p, FailSite::Inputs)?;
                }
            }
            continue;
        }
        c.pattern(Src::Arg(arg), pat, FailSite::Inputs)?;
    }
    for (idx, step) in h.steps.iter().enumerate() {
        c.step(idx as u32, step)?;
    }
    if producer {
        let srcs = c.expr_list(&h.outputs)?;
        c.code.push(Instr::Emit { srcs });
    }
    Ok(VmHandler {
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
    fn note_write(&mut self, r: u32) {
        self.frame_len = self.frame_len.max(r as usize + 1);
    }

    /// Allocates a fresh temporary. Temporaries are born bound: the
    /// instruction emitted immediately after allocation writes them.
    fn temp(&mut self) -> u32 {
        let r = operand(self.nregs);
        self.nregs += 1;
        self.note_write(r);
        r
    }

    /// A plan variable for reading: its location, once bound.
    fn read_var(&self, var: VarId) -> Compiled<Src> {
        self.loc
            .get(var.index())
            .copied()
            .flatten()
            .ok_or("a variable is read before it is bound")
    }

    /// Binds an unbound plan variable at `src` (single assignment).
    fn bind_at(&mut self, var: VarId, src: Src) -> Compiled<()> {
        let Some(slot @ None) = self.loc.get_mut(var.index()) else {
            return Err("a variable is bound twice, or has no slot");
        };
        *slot = Some(src);
        Ok(())
    }

    /// A plan variable for writing by an instruction (`Destruct`
    /// fields, `GuardSucc`, producer outputs): its own frame register.
    /// Must be unbound (single assignment); marks it bound.
    fn bind_var(&mut self, var: VarId) -> Compiled<u32> {
        let r = operand(var.index());
        self.bind_at(var, Src::Reg(r))?;
        self.note_write(r);
        Ok(r)
    }

    fn is_bound(&self, var: VarId) -> bool {
        self.loc.get(var.index()).is_some_and(Option::is_some)
    }

    /// Compiles a pattern match of `src` into guard instructions.
    /// Already-bound variables become equality guards (the non-linear
    /// reconciliation `Pattern::matches` performs against its `Env`).
    fn pattern(&mut self, src: Src, pat: &Pattern, site: FailSite) -> Compiled<()> {
        match pat {
            Pattern::Wild => {}
            Pattern::Var(x) => match self.read_var(*x) {
                // Non-linear occurrence: the reconciliation
                // `Pattern::matches` performs against its `Env`.
                Ok(b) => self.code.push(Instr::GuardEq {
                    a: src,
                    b,
                    negated: false,
                    site,
                }),
                // First occurrence: a bare variable always matches, so
                // binding is pure aliasing — zero instructions.
                Err(_) => self.bind_at(*x, src)?,
            },
            Pattern::NatLit(n) => self.code.push(Instr::GuardNat { src, lit: *n, site }),
            Pattern::BoolLit(b) => self.code.push(Instr::GuardBool { src, lit: *b, site }),
            Pattern::Succ(inner) => {
                // Flatten the successor spine: `S^k core` matches `Nat n`
                // iff `n ≥ k` and `core` matches `Nat (n − k)`.
                let mut k = 1u64;
                let mut core: &Pattern = inner;
                while let Pattern::Succ(next) = core {
                    k += 1;
                    core = next;
                }
                match core {
                    Pattern::Wild => self.code.push(Instr::GuardNatGe { src, min: k, site }),
                    // `n − k == m` ⇔ `n == m + k`.
                    Pattern::NatLit(m) if *m <= u64::MAX - k => {
                        let lit = m + k;
                        self.code.push(Instr::GuardNat { src, lit, site })
                    }
                    Pattern::Var(x) => {
                        if let Ok(b) = self.read_var(*x) {
                            let t = self.temp();
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
                    // No value matches: no nat exceeds `u64::MAX`, and a
                    // boolean or constructor under a successor never
                    // matches a nat (the parser's type check rejects it).
                    // A guard that always fails: no value differs from
                    // itself.
                    _ => self.code.push(Instr::GuardEq {
                        a: src,
                        b: src,
                        negated: true,
                        site,
                    }),
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
                        .map(|j| Src::ArgField(i, operand(j)))
                        .collect(),
                    Src::Reg(r) => (0..pats.len())
                        .map(|j| Src::RegField(r, operand(j)))
                        .collect(),
                    Src::ArgField(..) | Src::RegField(..) => Vec::new(),
                };
                if !fields.is_empty() {
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
                    let mut deferred: Vec<(u32, &Pattern)> = Vec::new();
                    for p in pats {
                        match p {
                            Pattern::Wild => dsts.push(None),
                            Pattern::Var(x) if !self.is_bound(*x) => {
                                dsts.push(Some(self.bind_var(*x)?));
                            }
                            _ => {
                                let t = self.temp();
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
        Ok(())
    }

    /// Compiles an expression, returning the location holding its
    /// value. Variables compile to their bound location (no copy);
    /// compound expressions build into fresh temporaries.
    fn expr(&mut self, e: &TermExpr) -> Compiled<Src> {
        if let TermExpr::Var(x) = e {
            return self.read_var(*x);
        }
        let dst = self.temp();
        self.expr_into(e, dst)?;
        Ok(Src::Reg(dst))
    }

    /// Compiles an expression directly into `dst` (used by `EqBind`,
    /// where `dst` is the bound variable's own register).
    fn expr_into(&mut self, e: &TermExpr, dst: u32) -> Compiled<()> {
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
        Ok(())
    }

    fn expr_list(&mut self, args: &[TermExpr]) -> Compiled<Box<[Src]>> {
        args.iter().map(|a| self.expr(a)).collect()
    }

    /// Registers receiving a producer call's outputs, bound in order.
    fn out_list(&mut self, out_slots: &[VarId]) -> Compiled<Box<[u32]>> {
        out_slots.iter().map(|v| self.bind_var(*v)).collect()
    }

    /// Compiles one scheduled plan step.
    fn step(&mut self, idx: u32, step: &Step) -> Compiled<()> {
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
                if let TermExpr::Var(y) = expr {
                    // Variable-to-variable binding is pure aliasing.
                    let src = self.read_var(*y)?;
                    self.bind_at(*var, src)?;
                } else {
                    self.expr_into(expr, operand(var.index()))?;
                    self.bind_var(*var)?;
                }
            }
            Step::MatchExpr { scrutinee, pattern } => {
                let s = self.expr(scrutinee)?;
                self.pattern(s, pattern, site)?;
            }
            Step::CheckRel { rel, args, negated } => {
                let srcs = self.expr_list(args)?;
                self.code.push(Instr::CheckRel {
                    rel: *rel,
                    srcs,
                    negated: *negated,
                    step: idx,
                });
            }
            Step::RecCheck { args } => {
                if self.producer {
                    return Err("a checker's recursive premise in a producer plan");
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
                let outs = self.out_list(out_slots)?;
                self.code.push(Instr::ProduceExt {
                    rel: *rel,
                    mode: mode.clone(),
                    srcs,
                    outs,
                    step: idx,
                });
            }
            Step::ProduceRec { in_args, out_slots } => {
                if !self.producer {
                    return Err("a producer's recursive premise in a checker plan");
                }
                let srcs = self.expr_list(in_args)?;
                let outs = self.out_list(out_slots)?;
                self.code.push(Instr::ProduceRec { srcs, outs });
            }
            Step::Unconstrained { var, ty } => {
                let dst = self.bind_var(*var)?;
                self.code.push(Instr::Unconstrained {
                    ty: ty.clone(),
                    dst,
                    step: idx,
                });
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------

/// VM scratch: free lists for register frames and premise argument
/// vectors. One lives on the session (`library::Inner::vm_frames`)
/// behind a `RefCell`, but it is *taken wholesale* at each top-level VM
/// entry and threaded `&mut` through the search — premise calls into
/// compiled callees included, armed or not — so the dispatch loop
/// itself never touches the `RefCell`. A re-entrant entry — a premise
/// of an interpreted plan calling back into the VM through
/// [`Library::check`] — finds the cell empty, starts with a cold
/// scratch, and merges it back on exit.
#[derive(Default)]
pub(crate) struct VmFrames {
    free: Vec<Vec<Value>>,
    argv: Vec<Vec<Value>>,
    /// The generator's `(weight, handler)` option vectors.
    options: Vec<Vec<(u64, u32)>>,
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

    fn take_options(&mut self) -> Vec<(u64, u32)> {
        self.options.pop().unwrap_or_default()
    }

    fn put_options(&mut self, mut v: Vec<(u64, u32)>) {
        v.clear();
        if self.options.len() < 64 {
            self.options.push(v);
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

/// Reads a source. Checker arguments arrive by reference (`A =
/// &Value`); a producer level's are values it owns (`A = Value`).
/// `src` is borrowed from its instruction, so no call copies it.
#[inline]
fn read<'a, A: Borrow<Value>>(frame: &'a [Value], args: &'a [A], src: &Src) -> &'a Value {
    match *src {
        Src::Arg(i) => args[i as usize].borrow(),
        Src::Reg(r) => &frame[r as usize],
        Src::ArgField(i, j) => field(args[i as usize].borrow(), j),
        Src::RegField(r, j) => field(&frame[r as usize], j),
    }
}

/// Resolves a depth-one field path. The compiler only emits field
/// sources behind a `Destruct` guard on the same base, so the base is
/// always a constructor of sufficient arity here.
#[inline]
fn field(base: &Value, j: u32) -> &Value {
    match base {
        Value::Ctor(_, fields) => &fields[j as usize],
        _ => unreachable!("plan invariant: field source on a non-constructor"),
    }
}

/// A `match` on an instruction whose straight-line arms — `Copy`
/// through `Destruct`, the register effects of the DESIGN.md opcode
/// table — come from this one source, followed by the caller's arms
/// for the rest. The checker loop ([`Library::vm_exec`]) and the
/// producer executors' run ([`Library::vm_run`]) both expand it, so the
/// opcode semantics live in one place while each keeps its own code.
/// A failed guard evaluates `fail` with the guard's [`FailSite`] bound
/// to the `|site|` pattern.
macro_rules! match_instr {
    (
        $instr:expr, $lib:expr, $frame:ident, $frames:ident, $args:ident,
        |$site:pat_param| $fail:expr;
        $($pat:pat $(if $guard:expr)? => $arm:expr,)+
    ) => {
        match $instr {
            Instr::Copy { src, dst } => {
                let v = read($frame, $args, src).clone();
                $frame[*dst as usize] = v;
            }
            Instr::LoadNat { dst, lit } => $frame[*dst as usize] = Value::Nat(*lit),
            Instr::LoadBool { dst, lit } => $frame[*dst as usize] = Value::Bool(*lit),
            Instr::MkSucc { src, dst } => {
                let n = read($frame, $args, src)
                    .as_nat()
                    .expect("plan invariant: successor of a non-nat");
                $frame[*dst as usize] = Value::Nat(n.saturating_add(1));
            }
            Instr::MkCtor { ctor, srcs, dst } => {
                let vals = srcs.iter().map(|s| read($frame, $args, s).clone()).collect();
                $frame[*dst as usize] = Value::ctor(*ctor, vals);
            }
            Instr::CallFun { fun, srcs, dst } => {
                let mut vals = $frames.take_argv();
                vals.extend(srcs.iter().map(|s| read($frame, $args, s).clone()));
                let v = $lib.universe().fun(*fun).apply(&vals);
                $frames.put_argv(vals);
                $frame[*dst as usize] = v;
            }
            Instr::GuardNat { src, lit, site: $site } => {
                if read($frame, $args, src).as_nat() != Some(*lit) {
                    $fail
                }
            }
            Instr::GuardNatGe { src, min, site: $site } => {
                if read($frame, $args, src).as_nat().is_none_or(|n| n < *min) {
                    $fail
                }
            }
            Instr::GuardBool { src, lit, site: $site } => {
                if read($frame, $args, src).as_bool() != Some(*lit) {
                    $fail
                }
            }
            Instr::GuardSucc { src, k, dst, site: $site } => {
                match read($frame, $args, src).as_nat() {
                    Some(n) if n >= *k => $frame[*dst as usize] = Value::Nat(n - *k),
                    _ => $fail,
                }
            }
            Instr::GuardEq { a, b, negated, site: $site } => {
                let l = read($frame, $args, a);
                let r = read($frame, $args, b);
                if (l == r) == *negated {
                    $fail
                }
            }
            Instr::Destruct { src, ctor, dsts, site: $site } => {
                let fields = match read($frame, $args, src) {
                    Value::Ctor(c, fields) if c == ctor && fields.len() == dsts.len() => {
                        // Pure guard (every field read through a path
                        // source): no copies at all. Otherwise an O(1)
                        // Arc clone releases the borrow of the frame so
                        // the field copies can write.
                        if dsts.iter().all(Option::is_none) {
                            None
                        } else {
                            Some(fields.clone())
                        }
                    }
                    _ => $fail,
                };
                if let Some(fields) = fields {
                    for (slot, v) in dsts.iter().zip(fields.iter()) {
                        if let Some(d) = slot {
                            $frame[*d as usize] = v.clone();
                        }
                    }
                }
            }
            $($pat $(if $guard)? => $arm,)+
        }
    };
}

/// Resolves a premise's source list into the stack reference buffer,
/// returning the populated length. Arities one through three — every
/// premise in the bundled workloads — unroll to straight-line reads;
/// only wider calls pay a counted loop.
#[inline(always)]
fn fill_refs<'a, A: Borrow<Value>>(
    buf: &mut [&'a Value; MAX_PREMISE_ARITY],
    frame: &'a [Value],
    args: &'a [A],
    srcs: &[Src],
) -> usize {
    match srcs {
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
            for (slot, s) in buf.iter_mut().zip(srcs) {
                *slot = read(frame, args, s);
            }
        }
    }
    srcs.len()
}

/// The path of every call wider than the stack reference buffers
/// (`MAX_PREMISE_ARITY`): `k` runs on a heap vector of the references.
/// Outlined, so no hot frame holds the vector or the captures of `k`.
#[cold]
#[inline(never)]
fn wide_refs<'a, R>(refs: impl Iterator<Item = &'a Value>, k: impl FnOnce(&[&'a Value]) -> R) -> R {
    let refs: Vec<&'a Value> = refs.collect();
    k(&refs)
}

/// Calls `k` on owned values as references: from a stack buffer up to
/// `MAX_PREMISE_ARITY` values, through [`wide_refs`] past it.
#[inline(always)]
fn with_refs<'a, R>(vals: &'a [Value], k: impl FnOnce(&[&'a Value]) -> R) -> R {
    if vals.len() > MAX_PREMISE_ARITY {
        return wide_refs(vals.iter(), k);
    }
    let mut buf = [&DUMMY_VALUE; MAX_PREMISE_ARITY];
    for (slot, v) in buf.iter_mut().zip(vals) {
        *slot = v;
    }
    k(&buf[..vals.len()])
}

/// A handwritten checker on borrowed arguments, cloned for it.
/// Optimized builds inline it into the fast loop: a call costs BST
/// checks about 4%. Debug builds keep every local of an inlined body in
/// the loop's frame, so there it is a call, which keeps deep
/// recursions (`sorted` at 400) within a 2 MiB test thread.
#[cfg_attr(debug_assertions, inline(never))]
#[cfg_attr(not(debug_assertions), inline(always))]
fn call_hand(f: &HandCheckFn, refs: &[&Value], frames: &mut VmFrames, top: u64) -> Option<bool> {
    match refs {
        // Small arities clone into a stack array — no pool round-trip.
        [a] => f(top, top, &[(*a).clone()]),
        [a, b] => f(top, top, &[(*a).clone(), (*b).clone()]),
        [a, b, c] => f(top, top, &[(*a).clone(), (*b).clone(), (*c).clone()]),
        _ => call_hand_pooled(f, refs, frames, top),
    }
}

/// [`call_hand`] past three arguments, cloned into a pooled vector.
/// Out of line: inlined, it widened the fast loop's frame.
#[inline(never)]
fn call_hand_pooled(
    f: &HandCheckFn,
    refs: &[&Value],
    frames: &mut VmFrames,
    top: u64,
) -> Option<bool> {
    let mut vals = frames.take_argv();
    vals.extend(refs.iter().map(|&v| v.clone()));
    let r = f(top, top, &vals);
    frames.put_argv(vals);
    r
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

    /// The search below a derived checker's entry boundary: rule
    /// dispatch and the fuel discipline, with handler bodies executed
    /// by [`Library::vm_exec`]. Called by the top-level entry and by
    /// the plan interpreter's premise crossings.
    ///
    /// This boundary decides, once per call, which of the two
    /// monomorphized dispatch loops runs (the `PAR` const parameter of
    /// [`Library::vm_search`]):
    ///
    /// * the **parity** loop — only while a meter or a probe is armed —
    ///   makes every budget charge and probe event the DESIGN.md opcode
    ///   table specifies, with the armed meter resolved once here
    ///   instead of one `RefCell` borrow per charge site;
    /// * the **fast** loop — whenever neither is armed
    ///   ([`Library::unarmed`]), a verdict table or not — compiles all
    ///   of that bookkeeping out. Unobservable by construction: with no
    ///   meter every charge answers `true`, and with no probe every
    ///   event is dropped, premise costs included. Neither condition
    ///   can change mid-call — meters and probes arm only between
    ///   top-level calls.
    //
    // Out of line, so the entry boundary that calls it
    // (`run_checker_entry`) stays small for every unarmed top-level call.
    #[inline(never)]
    pub(crate) fn run_vm_search(
        &self,
        chk: &CompiledChecker,
        size: u64,
        top: u64,
        args: &[Value],
    ) -> Option<bool> {
        // The executor passes arguments by reference all the way down
        // (premises build `&[&Value]` buffers instead of cloning into
        // owned vectors), so the owned entry tuple converts to
        // references once here.
        with_refs(args, |refs| {
            let mut frames = self.take_vm_frames();
            let r = if self.unarmed() {
                self.vm_search::<false>(chk, &None, &mut frames, size, top, refs)
            } else {
                self.vm_search::<true>(chk, &self.active_meter(), &mut frames, size, top, refs)
            };
            self.put_vm_frames(frames);
            r
        })
    }

    #[inline]
    fn vm_search<const PAR: bool>(
        &self,
        chk: &CompiledChecker,
        meter: &Option<Meter>,
        frames: &mut VmFrames,
        size: u64,
        top: u64,
        args: &[&Value],
    ) -> Option<bool> {
        // Parity bookkeeping: the probe's premise-cost counter and
        // Enter/depth pair, and the constructor-indexed dispatch with its
        // IndexSkip event.
        if PAR && self.probe_armed() {
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
            None => &chk.prog.all,
        };
        for &i in candidates {
            let h = &chk.prog.handlers[i as usize];
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
                self.vm_handler::<PAR>(chk, h, i, meter, frames, size_rem, top, args)
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
                chk, h, h_idx, 0, &mut frame, frames, meter, size_rem, top, args,
            );
        }
        let mut frame = frames.take(h.nregs);
        let r = self.vm_exec::<PAR>(
            chk, h, h_idx, 0, &mut frame, frames, meter, size_rem, top, args,
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
            match_instr! {
                instr, self, frame, frames, args,
                |site| return self.vm_fail::<PAR>(chk.rel, h_idx, *site);
                // Wider than the stack reference buffer: out of line, like
                // the fan-out instructions below, running the rest too.
                Instr::CheckRel { srcs, .. } | Instr::RecSelf { srcs, .. }
                    if srcs.len() > MAX_PREMISE_ARITY =>
                {
                    return self.vm_wide_premise::<PAR>(
                        chk, h, h_idx, pc, frame, frames, meter, size_rem, top, args,
                    );
                },
                Instr::CheckRel { srcs, .. } => {
                    // Arguments travel as a stack buffer of references;
                    // owned values materialize only at a boundary that
                    // demands them (a handwritten checker).
                    let mut refs = [&DUMMY_VALUE; MAX_PREMISE_ARITY];
                    let len = fill_refs(&mut refs, frame, args, srcs);
                    let refs = &refs[..len];
                    match self.vm_premise::<PAR>(
                        chk, h_idx, instr, refs, frames, meter, size_rem, top,
                    ) {
                        Some(true) => {}
                        other => return other,
                    }
                },
                Instr::RecSelf { srcs, .. } => {
                    // The recursive call never leaves the VM, so its
                    // arguments never materialize: a stack buffer of
                    // references is the whole calling convention.
                    let mut refs = [&DUMMY_VALUE; MAX_PREMISE_ARITY];
                    let len = fill_refs(&mut refs, frame, args, srcs);
                    let refs = &refs[..len];
                    match self.vm_premise::<PAR>(
                        chk, h_idx, instr, refs, frames, meter, size_rem, top,
                    ) {
                        Some(true) => {}
                        other => return other,
                    }
                },
                // The two fan-out instructions live in outlined cold
                // functions: their bodies (stream plumbing, candidate
                // loops, premise accounting) would otherwise dominate
                // this function's stack frame, and this function's
                // prologue/epilogue runs once per search step.
                Instr::ProduceExt { .. } => {
                    return self.vm_produce_ext::<PAR>(
                        chk, h, h_idx, pc, frame, frames, meter, size_rem, top, args,
                    );
                },
                Instr::Unconstrained { .. } => {
                    return self.vm_unconstrained::<PAR>(
                        chk, h, h_idx, pc, frame, frames, meter, size_rem, top, args,
                    );
                },
                Instr::ProduceRec { .. } | Instr::Emit { .. } => {
                    unreachable!("producer-only instruction in a checker program")
                },
            }
            pc += 1;
        }
        Some(true)
    }

    /// A `CheckRel` or `RecSelf` premise of [`Library::vm_exec`] over
    /// its resolved arguments, with the parity loop's `Premise`
    /// attribution around the call. A recursive premise charges one
    /// budget step and re-enters this search on this scratch.
    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    fn vm_premise<const PAR: bool>(
        &self,
        chk: &CompiledChecker,
        h_idx: u32,
        instr: &Instr,
        refs: &[&Value],
        frames: &mut VmFrames,
        meter: &Option<Meter>,
        size_rem: u64,
        top: u64,
    ) -> Option<bool> {
        // Premise cost attribution: gated on arming, and scoped to the
        // call alone.
        let calls_before = (PAR && self.probe_armed()).then(|| self.inner.search_calls.get());
        let (r, step) = match instr {
            Instr::CheckRel {
                rel, negated, step, ..
            } => {
                let r = if PAR {
                    self.cross_armed(*rel, refs, frames, meter, top)
                } else {
                    self.check_premise::<false>(*rel, refs, frames, meter, top)
                };
                (if *negated { cnot(r) } else { r }, step)
            }
            Instr::RecSelf { step, .. } => {
                let r = if !PAR {
                    self.vm_search::<false>(chk, meter, frames, size_rem, top, refs)
                } else if charge_step_cached(meter) {
                    self.vm_search::<true>(chk, meter, frames, size_rem, top, refs)
                } else {
                    None
                };
                (r, step)
            }
            _ => unreachable!("vm_premise on a non-premise instruction"),
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

    /// A [`Library::vm_exec`] premise wider than the stack reference
    /// buffer ([`wide_refs`]), then on success the rest of the handler:
    /// outlined and in tail position, like the fan-out arms.
    #[cold]
    #[inline(never)]
    #[allow(clippy::too_many_arguments)]
    fn vm_wide_premise<const PAR: bool>(
        &self,
        chk: &CompiledChecker,
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
        let instr = &h.code[pc];
        let (Instr::CheckRel { srcs, .. } | Instr::RecSelf { srcs, .. }) = instr else {
            unreachable!("vm_wide_premise entered on a non-premise pc");
        };
        let refs = srcs.iter().map(|s| read(frame, args, s));
        let r = wide_refs(refs, |refs| {
            self.vm_premise::<PAR>(chk, h_idx, instr, refs, frames, meter, size_rem, top)
        });
        if r != Some(true) {
            return r;
        }
        let pc = pc + 1;
        self.vm_exec::<PAR>(chk, h, h_idx, pc, frame, frames, meter, size_rem, top, args)
    }

    /// A `CheckRel` premise at the top fuel: the callee's entry step,
    /// then its search, entered inside the VM on this scratch with the
    /// reference buffer as-is, and never a table lookup (only top-level
    /// calls consult the table). Unarmed (`PAR = false`: no meter or
    /// probe) that is the callee's fast search. Armed the
    /// step is charged on the caller's cached meter — the armed meter,
    /// which cannot change mid-call — and the callee runs its parity
    /// search. Handwritten callees charge the step, emit `Enter` and get
    /// their arguments cloned.
    #[inline(always)]
    fn check_premise<const PAR: bool>(
        &self,
        rel: RelId,
        refs: &[&Value],
        frames: &mut VmFrames,
        meter: &Option<Meter>,
        top: u64,
    ) -> Option<bool> {
        let imp = self.require_checker(rel).unwrap_or_else(|e| panic!("{e}"));
        if PAR && !charge_step_cached(meter) {
            return None;
        }
        match imp {
            CheckerImpl::Hand(f) => {
                let _depth = if PAR {
                    self.probe_enter(rel, ExecKind::Checker)
                } else {
                    None
                };
                call_hand(f, refs, frames, top)
            }
            CheckerImpl::Plan(_, compiled) => {
                self.vm_search::<PAR>(compiled, meter, frames, top, top, refs)
            }
        }
    }

    /// The armed [`Library::check_premise`], out of line: inlined, the
    /// callee's entry widens the parity loop's frame, which stays live
    /// once per derivation level (measured: 248 → 312 bytes).
    #[inline(never)]
    fn cross_armed(
        &self,
        rel: RelId,
        refs: &[&Value],
        frames: &mut VmFrames,
        meter: &Option<Meter>,
        top: u64,
    ) -> Option<bool> {
        self.check_premise::<true>(rel, refs, frames, meter, top)
    }

    /// Outlined `ProduceExt` arm of [`Library::vm_exec`]: binds each
    /// witness tuple into the frame and re-enters the instruction
    /// suffix, folded with `bindEC`.
    ///
    /// In the fast loop the callee runs in push mode
    /// ([`Library::enum_push`]): a compiled enumerator calls the fold
    /// once per outcome, and the fold answers `Break` at the first
    /// witness that proves the goal. The parity loop, which runs only
    /// under an armed meter or probe, drains the callee's lazy stream
    /// instead, charging and emitting what the interpreter does. The
    /// streams are lazy, so the cost delta necessarily covers the
    /// premise *and* its continuation under the binder — the
    /// scheduling-relevant tail cost of placing the premise here.
    #[inline(never)]
    #[allow(clippy::too_many_arguments)]
    fn vm_produce_ext<const PAR: bool>(
        &self,
        chk: &CompiledChecker,
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
        in_vals.extend(srcs.iter().map(|s| read(frame, args, s).clone()));
        if !PAR {
            let mut needs_fuel = false;
            let flow = self.enum_push(*rel, mode, top, &in_vals, 0, frames, &mut |frames, o| {
                let Outcome::Val(vals) = o else {
                    needs_fuel = true;
                    return ControlFlow::Continue(());
                };
                bind_outs(frame, outs, vals);
                match self.vm_exec::<PAR>(
                    chk,
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
                    Some(true) => ControlFlow::Break(()),
                    Some(false) => ControlFlow::Continue(()),
                    None => {
                        needs_fuel = true;
                        ControlFlow::Continue(())
                    }
                }
            });
            frames.put_argv(in_vals);
            return if flow.is_break() {
                Some(true)
            } else if needs_fuel {
                None
            } else {
                Some(false)
            };
        }
        let calls_before = self.probe_armed().then(|| self.inner.search_calls.get());
        let stream = self.enumerate(*rel, mode, top, top, &in_vals);
        frames.put_argv(in_vals);
        let r = bind_ec(stream, |out_vals| {
            for (&o, v) in outs.iter().zip(out_vals) {
                frame[o as usize] = v;
            }
            self.vm_exec::<PAR>(
                chk,
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

// ---------------------------------------------------------------------
// Producer executors
// ---------------------------------------------------------------------

/// An output tuple pushed to a [`Sink`], read in place: an `Emit`'s
/// sources over the emitting handler's frame, or a tuple a handwritten
/// or interpreted stream owns. Nothing is copied until a consumer binds
/// it.
#[derive(Clone, Copy)]
enum Tuple<'a> {
    /// `Emit { srcs }`, with the frame and arguments it reads.
    Emitted {
        srcs: &'a [Src],
        frame: &'a [Value],
        args: &'a [Value],
    },
    /// A stream's tuple.
    Owned(&'a [Value]),
}

impl<'a> Tuple<'a> {
    /// The `j`-th output.
    fn get(self, j: usize) -> &'a Value {
        match self {
            Tuple::Emitted { srcs, frame, args } => read(frame, args, &srcs[j]),
            Tuple::Owned(vals) => &vals[j],
        }
    }
}

/// Writes a pushed tuple into a consumer's output registers.
#[inline(never)]
fn bind_outs(frame: &mut [Value], outs: &[u32], vals: Tuple<'_>) {
    for (j, &o) in outs.iter().enumerate() {
        frame[o as usize] = vals.get(j).clone();
    }
}

/// The consumer of a push-mode enumeration: called once per outcome, in
/// the plan interpreter's stream order. `Break` ends the enumeration
/// early — the checker's `bindEC` fold answers it at the first witness
/// that proves its goal, where `bind_ec` stops pulling the stream.
type Sink<'s> = dyn FnMut(&mut VmFrames, Outcome<Tuple<'_>>) -> ControlFlow<()> + 's;

/// A handler body running in a push-mode enumeration level: what it
/// reads and the sink it pushes to. A pointer to it is the
/// enumerator's calling convention, which keeps small the frames that
/// stay live under the consumer.
struct EnumRun<'a, 's> {
    cp: &'a CompiledProducer,
    h: &'a VmHandler,
    frame: &'a mut [Value],
    size_rem: u64,
    top: u64,
    args: &'a [Value],
    /// Push-mode levels above this one.
    depth: u32,
    sink: &'a mut Sink<'s>,
}

/// Push-mode levels one enumeration nests — compiled `ProduceRec` and
/// `ProduceExt` calls beneath one checker premise — before the rest of
/// its descent runs on the interpreter's streams. Push mode keeps a
/// level's frames live twice, on the way down and again under the
/// consumer, so past a few dozen levels its stack per derivation level
/// would outgrow the interpreter's, whose streams return each outcome
/// instead. The streams yield the same outcomes in the same order, so
/// only speed changes, and only below any bundled workload's depth.
const PUSH_DEPTH: u32 = 64;

/// Pushes a stream's outcomes into `sink`, in order, until it breaks.
fn drain(
    stream: EStream<Vec<Value>>,
    frames: &mut VmFrames,
    sink: &mut Sink<'_>,
) -> ControlFlow<()> {
    for o in stream {
        let o = match &o {
            Outcome::Val(vals) => Outcome::Val(Tuple::Owned(vals)),
            Outcome::OutOfFuel => Outcome::OutOfFuel,
        };
        sink(frames, o)?;
    }
    ControlFlow::Continue(())
}

/// Where a straight-line run of a producer handler stopped.
enum Run {
    /// At this producing instruction.
    At(usize),
    /// A guard or premise failed: the handler yields nothing.
    Failed,
    /// A `CheckRel` premise was undecided.
    OutOfFuel,
}

impl Library {
    /// `true` when no budget meter and no probe is armed: the one gate
    /// of compiled code. Checkers then run the fast loop
    /// ([`Library::run_vm_search`]) and derived producers their
    /// compiled executors, since nothing observes the charges and
    /// events only the parity loop and the plan interpreter make. Both
    /// arm only around whole top-level calls, so the answer at the
    /// outermost call holds for everything beneath it. A verdict table
    /// does not close the gate: it decides what it tables from the
    /// plan's shape, and sees top-level checker entries only.
    pub(crate) fn unarmed(&self) -> bool {
        self.inner.meter.borrow().is_none() && !self.probe_armed()
    }

    /// An enumerator premise in push mode (no meter or probe armed):
    /// `rel`'s compiled program when it is derived, otherwise its
    /// handwritten stream drained into `sink`. Outlined:
    /// its stream-draining path would otherwise widen every frame that
    /// stays live under the consumer.
    #[inline(never)]
    #[allow(clippy::too_many_arguments)]
    fn enum_push(
        &self,
        rel: RelId,
        mode: &Mode,
        top: u64,
        inputs: &[Value],
        depth: u32,
        frames: &mut VmFrames,
        sink: &mut Sink<'_>,
    ) -> ControlFlow<()> {
        let entry = self
            .require_producer(rel, mode, InstanceKind::Enumerator)
            .unwrap_or_else(|e| panic!("{e}"));
        if let (None, Some(cp)) = (&entry.hand_enum, &entry.derived) {
            return self.vm_enum_search(cp, top, top, inputs, depth, frames, sink);
        }
        drain(
            self.run_enum_impl(rel, entry, top, top, inputs),
            frames,
            sink,
        )
    }

    /// The interpreter's stream for `cp`'s plan, pushed: the deep end
    /// of an enumeration past [`PUSH_DEPTH`] levels.
    #[inline(never)]
    fn enum_interpreted(
        &self,
        cp: &CompiledProducer,
        size: u64,
        top: u64,
        args: &[Value],
        frames: &mut VmFrames,
        sink: &mut Sink<'_>,
    ) -> ControlFlow<()> {
        drain(self.run_plan_enum(&cp.plan, size, top, args), frames, sink)
    }

    /// Push-mode enumerator dispatch: pushes exactly the outcomes
    /// `run_plan_enum` streams, in its order. Handlers run in plan
    /// order, through the index when there is one (a pruned handler
    /// would fail its input match and yield nothing); at size 0 the
    /// recursive ones are skipped and, if there are any, one
    /// out-of-fuel outcome follows the last handler.
    ///
    /// Every outcome is pushed from the top of the stack that produced
    /// it, so a level's frames stay live under the consumer; from
    /// [`PUSH_DEPTH`] levels down the interpreter's stream takes over.
    #[allow(clippy::too_many_arguments)]
    fn vm_enum_search(
        &self,
        cp: &CompiledProducer,
        size: u64,
        top: u64,
        args: &[Value],
        depth: u32,
        frames: &mut VmFrames,
        sink: &mut Sink<'_>,
    ) -> ControlFlow<()> {
        if depth >= PUSH_DEPTH {
            return self.enum_interpreted(cp, size, top, args, frames, sink);
        }
        let size_rem = size.saturating_sub(1);
        let candidates: &[u32] = match &cp.index {
            Some(index) => index.candidates(args),
            None => &cp.prog.all,
        };
        for &i in candidates {
            let h = &cp.prog.handlers[i as usize];
            if size == 0 && h.recursive {
                continue;
            }
            let mut frame = frames.take(h.nregs);
            let run = &mut EnumRun {
                cp,
                h,
                frame: &mut frame,
                size_rem,
                top,
                args,
                depth,
                sink: &mut *sink,
            };
            let flow = self.vm_enum_exec(run, 0, frames);
            frames.put(frame);
            flow?;
        }
        if size == 0 && cp.has_recursive {
            sink(frames, Outcome::OutOfFuel)?;
        }
        ControlFlow::Continue(())
    }

    /// The enumerator's handler body from `pc`: the straight-line run,
    /// then the instruction it stopped at. A failed guard yields
    /// nothing, `Emit` pushes the output tuple, and the fan-out
    /// instructions re-enter this body per candidate on the same frame,
    /// as the checker's do.
    #[inline]
    fn vm_enum_exec(
        &self,
        run: &mut EnumRun<'_, '_>,
        pc: usize,
        frames: &mut VmFrames,
    ) -> ControlFlow<()> {
        let h = run.h;
        let pc = match self.vm_run(h, pc, run.frame, frames, run.top, run.args) {
            Run::At(pc) => pc,
            Run::Failed => return ControlFlow::Continue(()),
            // `bindCE`: an undecided premise yields a single out-of-fuel
            // outcome.
            Run::OutOfFuel => return (run.sink)(frames, Outcome::OutOfFuel),
        };
        match &h.code[pc] {
            Instr::Emit { srcs } => {
                let vals = Tuple::Emitted {
                    srcs,
                    frame: run.frame,
                    args: run.args,
                };
                (run.sink)(frames, Outcome::Val(vals))
            }
            Instr::Unconstrained { .. } => self.vm_enum_unconstrained(run, pc, frames),
            _ => self.vm_enum_bind(run, pc, frames),
        }
    }

    /// Runs a producer handler's straight-line instructions and
    /// `CheckRel` premises from `pc`, stopping at the first instruction
    /// that produces (`ProduceRec`, `ProduceExt`, `Unconstrained`,
    /// `Emit`) — the part of a handler body both producer executors
    /// share.
    #[inline(never)]
    fn vm_run<A: Borrow<Value>>(
        &self,
        h: &VmHandler,
        mut pc: usize,
        frame: &mut [Value],
        frames: &mut VmFrames,
        top: u64,
        args: &[A],
    ) -> Run {
        loop {
            match_instr! {
                &h.code[pc], self, frame, frames, args,
                |_| return Run::Failed;
                Instr::CheckRel {
                    rel, srcs, negated, ..
                } => {
                    let r = if srcs.len() <= MAX_PREMISE_ARITY {
                        let mut refs = [&DUMMY_VALUE; MAX_PREMISE_ARITY];
                        let len = fill_refs(&mut refs, frame, args, srcs);
                        self.producer_check(*rel, *negated, &refs[..len], frames, top)
                    } else {
                        self.vm_run_wide(&h.code[pc], frame, frames, top, args)
                    };
                    match r {
                        Some(true) => {}
                        Some(false) => return Run::Failed,
                        None => return Run::OutOfFuel,
                    }
                },
                Instr::ProduceRec { .. }
                | Instr::ProduceExt { .. }
                | Instr::Unconstrained { .. }
                | Instr::Emit { .. } => return Run::At(pc),
                Instr::RecSelf { .. } => unreachable!("RecSelf in a producer program"),
            }
            pc += 1;
        }
    }

    /// [`Library::vm_run`]'s `CheckRel` premise wider than the stack
    /// reference buffer ([`wide_refs`]). No more arguments than the
    /// loop's other calls take, so its frame holds nothing for this.
    #[cold]
    #[inline(never)]
    fn vm_run_wide<A: Borrow<Value>>(
        &self,
        instr: &Instr,
        frame: &[Value],
        frames: &mut VmFrames,
        top: u64,
        args: &[A],
    ) -> Option<bool> {
        let Instr::CheckRel {
            rel, srcs, negated, ..
        } = instr
        else {
            unreachable!("vm_run_wide entered on a non-CheckRel instruction");
        };
        let refs = srcs.iter().map(|s| read(frame, args, s));
        wide_refs(refs, |refs| {
            self.producer_check(*rel, *negated, refs, frames, top)
        })
    }

    /// Outlined `Unconstrained` arm of the enumerator: the suffix per
    /// candidate of the type's bounded domain, then the truncation
    /// marker when the domain was cut.
    #[inline(never)]
    fn vm_enum_unconstrained(
        &self,
        run: &mut EnumRun<'_, '_>,
        pc: usize,
        frames: &mut VmFrames,
    ) -> ControlFlow<()> {
        let h = run.h;
        let Instr::Unconstrained { ty, dst, .. } = &h.code[pc] else {
            unreachable!("vm_enum_unconstrained entered on a non-Unconstrained pc");
        };
        let candidates = self.raw_values(ty, run.top);
        for v in candidates.iter() {
            run.frame[*dst as usize] = v.clone();
            self.vm_enum_exec(run, pc + 1, frames)?;
        }
        if self.raw_truncated(ty, run.top) {
            (run.sink)(frames, Outcome::OutOfFuel)?;
        }
        ControlFlow::Continue(())
    }

    /// Outlined `ProduceRec`/`ProduceExt` arm of the enumerator: `bindE`.
    /// Each witness tuple is written into `outs` and the instruction
    /// suffix re-runs; the callee's out-of-fuel outcomes pass straight
    /// through to the sink.
    #[inline(never)]
    fn vm_enum_bind(
        &self,
        run: &mut EnumRun<'_, '_>,
        pc: usize,
        frames: &mut VmFrames,
    ) -> ControlFlow<()> {
        let (cp, h, size_rem, top, depth) = (run.cp, run.h, run.size_rem, run.top, run.depth + 1);
        let (Instr::ProduceRec { srcs, outs } | Instr::ProduceExt { srcs, outs, .. }) = &h.code[pc]
        else {
            unreachable!("vm_enum_bind entered on a non-producer pc");
        };
        // The suffix rewrites this frame while the callee still reads
        // its inputs, so the inputs leave the frame first.
        let mut in_vals = frames.take_argv();
        in_vals.extend(srcs.iter().map(|s| read(run.frame, run.args, s).clone()));
        let mut bind = |frames: &mut VmFrames, o: Outcome<Tuple<'_>>| match o {
            Outcome::Val(vals) => {
                bind_outs(run.frame, outs, vals);
                self.vm_enum_exec(run, pc + 1, frames)
            }
            Outcome::OutOfFuel => (run.sink)(frames, Outcome::OutOfFuel),
        };
        let flow = match &h.code[pc] {
            Instr::ProduceExt { rel, mode, .. } => {
                self.enum_push(*rel, mode, top, &in_vals, depth, frames, &mut bind)
            }
            _ => self.vm_enum_search(cp, size_rem, top, &in_vals, depth, frames, &mut bind),
        };
        frames.put_argv(in_vals);
        flow
    }

    /// Runs a compiled generator from the top (no meter or probe armed).
    pub(crate) fn run_vm_gen(
        &self,
        cp: &CompiledProducer,
        size: u64,
        top: u64,
        inputs: &[Value],
        rng: &mut dyn rand::RngCore,
    ) -> Option<Vec<Value>> {
        let mut frames = self.take_vm_frames();
        let mut out = Vec::new();
        let ok = with_refs(inputs, |refs| {
            self.vm_gen_search(cp, size, top, refs, &mut frames, rng, &mut out)
        });
        self.put_vm_frames(frames);
        ok.then_some(out)
    }

    /// Generator dispatch: `run_plan_gen`'s weighted `backtrack`, making
    /// the same RNG draws in the same order over the same `(weight,
    /// handler)` options. Every handler is an option (never the index:
    /// pruning one would change the weight total that every later draw
    /// ranges over), weighted 1 when it is a base case and `size.max(1)`
    /// when it recurses, with the recursive ones dropped at size 0; a
    /// failed option leaves by `swap_remove`. On success the output
    /// tuple is appended to `out`.
    #[allow(clippy::too_many_arguments)]
    fn vm_gen_search(
        &self,
        cp: &CompiledProducer,
        size: u64,
        top: u64,
        args: &[&Value],
        frames: &mut VmFrames,
        rng: &mut dyn rand::RngCore,
        out: &mut Vec<Value>,
    ) -> bool {
        let size_rem = size.saturating_sub(1);
        let mut options = frames.take_options();
        options.extend(
            cp.prog
                .handlers
                .iter()
                .enumerate()
                .filter(|(_, h)| size > 0 || !h.recursive)
                .map(|(i, h)| (if h.recursive { size.max(1) } else { 1 }, i as u32)),
        );
        let mut total: u64 = options.iter().map(|(w, _)| *w).sum();
        let mut ok = false;
        while total > 0 {
            let mut pick = rand::Rng::gen_range(&mut *rng, 0..total);
            let mut chosen = 0;
            for (j, (w, _)) in options.iter().enumerate() {
                if pick < *w {
                    chosen = j;
                    break;
                }
                pick -= *w;
            }
            let (w, i) = options[chosen];
            let h = &cp.prog.handlers[i as usize];
            let mut frame = frames.take(h.nregs);
            ok = self.vm_gen_exec(cp, h, &mut frame, frames, size_rem, top, args, rng, out);
            frames.put(frame);
            if ok {
                break;
            }
            total -= w;
            options.swap_remove(chosen);
        }
        frames.put_options(options);
        ok
    }

    /// The generator's handler body: the straight-line runs of
    /// [`Library::vm_run`], and one draw per instruction they stop at;
    /// `false` when a guard, a premise, or a callee fails. `Emit`
    /// appends the output tuple to `out`.
    #[allow(clippy::too_many_arguments)]
    fn vm_gen_exec(
        &self,
        cp: &CompiledProducer,
        h: &VmHandler,
        frame: &mut [Value],
        frames: &mut VmFrames,
        size_rem: u64,
        top: u64,
        args: &[&Value],
        rng: &mut dyn rand::RngCore,
        out: &mut Vec<Value>,
    ) -> bool {
        let mut pc = 0;
        loop {
            // A refuted or undecided premise fails the draw alike.
            let Run::At(at) = self.vm_run(h, pc, frame, frames, top, args) else {
                return false;
            };
            match &h.code[at] {
                Instr::Emit { srcs } => {
                    out.extend(srcs.iter().map(|s| read(frame, args, s).clone()));
                    return true;
                }
                Instr::Unconstrained { ty, dst, .. } => {
                    frame[*dst as usize] = random_value(self.universe(), ty, size_rem.max(1), rng);
                }
                instr => {
                    if !self.vm_gen_bind(cp, instr, frame, frames, size_rem, top, args, rng) {
                        return false;
                    }
                }
            }
            pc = at + 1;
        }
    }

    /// Outlined `ProduceRec`/`ProduceExt` arm of the generator: one
    /// draw from the callee, its outputs written into `outs`.
    #[inline(never)]
    #[allow(clippy::too_many_arguments)]
    fn vm_gen_bind(
        &self,
        cp: &CompiledProducer,
        instr: &Instr,
        frame: &mut [Value],
        frames: &mut VmFrames,
        size_rem: u64,
        top: u64,
        args: &[&Value],
        rng: &mut dyn rand::RngCore,
    ) -> bool {
        let mut res = frames.take_argv();
        let (ok, outs) = match instr {
            // The callee only reads its inputs while this frame waits,
            // so they travel by reference.
            Instr::ProduceRec { srcs, outs } => {
                let ok = if srcs.len() <= MAX_PREMISE_ARITY {
                    let mut refs = [&DUMMY_VALUE; MAX_PREMISE_ARITY];
                    let len = fill_refs(&mut refs, frame, args, srcs);
                    self.vm_gen_search(cp, size_rem, top, &refs[..len], frames, rng, &mut res)
                } else {
                    wide_refs(srcs.iter().map(|s| read(frame, args, s)), |refs| {
                        self.vm_gen_search(cp, size_rem, top, refs, frames, rng, &mut res)
                    })
                };
                (ok, outs)
            }
            Instr::ProduceExt {
                rel,
                mode,
                srcs,
                outs,
                ..
            } => {
                let mut in_vals = frames.take_argv();
                in_vals.extend(srcs.iter().map(|s| read(frame, args, s).clone()));
                let ok = self.gen_ext(*rel, mode, top, &in_vals, frames, rng, &mut res);
                frames.put_argv(in_vals);
                (ok, outs)
            }
            _ => unreachable!("vm_gen_bind entered on a non-producer instruction"),
        };
        if ok {
            for (&o, v) in outs.iter().zip(res.drain(..)) {
                frame[o as usize] = v;
            }
        }
        frames.put_argv(res);
        ok
    }

    /// An external generator premise: `rel`'s compiled program when it
    /// is derived, otherwise its handwritten generator.
    #[allow(clippy::too_many_arguments)]
    fn gen_ext(
        &self,
        rel: RelId,
        mode: &Mode,
        top: u64,
        inputs: &[Value],
        frames: &mut VmFrames,
        rng: &mut dyn rand::RngCore,
        out: &mut Vec<Value>,
    ) -> bool {
        let entry = self
            .require_producer(rel, mode, InstanceKind::Generator)
            .unwrap_or_else(|e| panic!("{e}"));
        if let (None, Some(cp)) = (&entry.hand_gen, &entry.derived) {
            return with_refs(inputs, |refs| {
                self.vm_gen_search(cp, top, top, refs, frames, rng, out)
            });
        }
        match self.run_gen_impl(rel, entry, top, top, inputs, rng) {
            Some(vals) => {
                out.extend(vals);
                true
            }
            None => false,
        }
    }

    /// A `CheckRel` premise inside a compiled producer, over resolved
    /// arguments: the fast loop's call, because compiled producers run
    /// only with no meter and no probe armed ([`Library::unarmed`]) and
    /// a premise never consults a verdict table.
    #[inline(always)]
    fn producer_check(
        &self,
        rel: RelId,
        negated: bool,
        refs: &[&Value],
        frames: &mut VmFrames,
        top: u64,
    ) -> Option<bool> {
        let r = self.check_premise::<false>(rel, refs, frames, &None, top);
        if negated {
            cnot(r)
        } else {
            r
        }
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
    }

    /// The compiled enumerator's outcomes for one call, in push order,
    /// stopping after `cap`.
    fn pushed_outcomes(
        lib: &Library,
        rel: RelId,
        mode: &Mode,
        fuel: u64,
        inputs: &[Value],
        cap: usize,
    ) -> Vec<Outcome<Vec<Value>>> {
        let entry = lib
            .require_producer(rel, mode, InstanceKind::Enumerator)
            .unwrap();
        let cp = entry.derived.as_ref().expect("a derived producer");
        let arity = mode.out_positions().len();
        let mut out = Vec::new();
        let mut frames = VmFrames::default();
        let _ = lib.vm_enum_search(cp, fuel, fuel, inputs, 0, &mut frames, &mut |_, o| {
            out.push(o.map(|vals| (0..arity).map(|j| vals.get(j).clone()).collect()));
            if out.len() < cap {
                ControlFlow::Continue(())
            } else {
                ControlFlow::Break(())
            }
        });
        out
    }

    /// Every derived producer of `lib` compiles, and on the inputs of
    /// `tuples_up_to(arg_size)` at fuels 0–6 its push-mode outcome
    /// sequence equals the interpreter's stream, element for element,
    /// up to `cap` outcomes per call. Returns the number of producers
    /// covered.
    fn assert_enumerators_agree(lib: &Library, arg_size: u64, cap: usize) -> usize {
        let mut covered = 0;
        for (rel_idx, modes) in lib.inner.producers.iter().enumerate() {
            let rel = RelId::new(rel_idx);
            for (mode, _) in modes.iter().filter(|(_, imp)| imp.derived.is_some()) {
                let tys: Vec<TypeExpr> = mode
                    .in_positions()
                    .into_iter()
                    .map(|i| lib.env().relation(rel).arg_types()[i].clone())
                    .collect();
                let tuples = indrel_term::enumerate::tuples_up_to(lib.universe(), &tys, arg_size);
                for inputs in &tuples {
                    for fuel in 0..=6u64 {
                        let want = lib.enumerate(rel, mode, fuel, fuel, inputs).take(cap);
                        assert_eq!(
                            pushed_outcomes(lib, rel, mode, fuel, inputs, cap),
                            want.outcomes(),
                            "{} {mode} fuel {fuel} on {inputs:?}",
                            lib.env().relation(rel).name()
                        );
                    }
                }
                covered += 1;
            }
        }
        covered
    }

    /// Derives a checker and the given producers over a parsed program.
    fn derive(
        u: Universe,
        env: RelEnv,
        checkers: &[&str],
        producers: &[(&str, &[usize])],
    ) -> Library {
        let mut b = LibraryBuilder::new(u, env);
        for name in checkers {
            let rel = b.env().rel_id(name).unwrap();
            b.derive_checker(rel).unwrap();
        }
        for (name, outs) in producers {
            let rel = b.env().rel_id(name).unwrap();
            let arity = b.env().relation(rel).arity();
            b.derive_producer(rel, Mode::producer(arity, outs)).unwrap();
        }
        b.build()
    }

    #[test]
    fn bst_and_ifc_enumerators_push_the_interpreters_outcomes() {
        let mut u = Universe::new();
        let mut env = RelEnv::new();
        parse_program(&mut u, &mut env, indrel_bst::BST_SOURCE).unwrap();
        let bst = derive(u, env, &["bst"], &[("bst", &[2])]);
        // bst, lt', le'.
        assert_eq!(assert_enumerators_agree(&bst, 5, 400), 3);

        let mut u = Universe::new();
        u.std_list();
        let mut env = RelEnv::new();
        parse_program(&mut u, &mut env, indrel_ifc::IFC_SOURCE).unwrap();
        let ifc = derive(u, env, &["indist"], &[("indist", &[1])]);
        // indist, indist_list, indist_atom.
        assert_eq!(assert_enumerators_agree(&ifc, 8, 400), 3);
    }

    #[test]
    fn stlc_and_corpus_enumerators_push_the_interpreters_outcomes() {
        let (u, env) = indrel_corpus::corpus_env();
        let stlc = derive(
            u,
            env,
            &["stlc_typing", "stlc_step"],
            &[
                ("stlc_typing", &[2]),
                ("stlc_typing", &[1]),
                ("stlc_step", &[1]),
            ],
        );
        // stlc_typing at both modes, stlc_lookup at both, stlc_step.
        assert_eq!(assert_enumerators_agree(&stlc, 5, 300), 5);

        let (u, env) = indrel_corpus::corpus_env();
        let corpus = derive(
            u,
            env,
            &[],
            &[("le", &[1]), ("ev", &[0]), ("in_list", &[0])],
        );
        assert_eq!(assert_enumerators_agree(&corpus, 6, 400), 3);
    }

    #[test]
    fn wide_enumerators_push_the_interpreters_outcomes() {
        // Nine inputs: `wider`'s recursive call and its premise on
        // `wide` are wider than the stack argument buffers.
        let mut u = Universe::new();
        let mut env = RelEnv::new();
        parse_program(
            &mut u,
            &mut env,
            r"
            rel le : nat nat :=
            | le_n : forall n, le n n
            | le_S : forall n m, le n m -> le n (S m)
            .
            rel wide : nat nat nat nat nat nat nat nat nat :=
            | w_base : forall a b c d e f g h, le a b -> wide 0 a b c d e f g h
            | w_step : forall n a b c d e f g h,
                wide n a b c d e f g h -> wide (S n) a b c d e f g h
            .
            rel wider : nat nat nat nat nat nat nat nat nat nat :=
            | v_base : forall a b c d e f g h, wide 1 a b c d e f g h -> wider 0 a b c d e f g h b
            | v_step : forall n a b c d e f g h m,
                wider n a b c d e f g h m -> wider (S n) a b c d e f g h (S m)
            .",
        )
        .unwrap();
        let wide = derive(u, env, &["wider"], &[("wider", &[9])]);
        assert_eq!(assert_enumerators_agree(&wide, 1, 200), 1);
    }

    #[test]
    fn plan_shapes_outside_the_register_discipline_are_derive_errors() {
        let (_, env, lib, rels) = demo_lib();
        let Some(CheckerImpl::Plan(plan, _)) = &lib.inner.checkers[rels[0].index()] else {
            panic!("le is derived");
        };
        let fails = |edit: &dyn Fn(&mut Handler)| {
            let mut bad = Plan::clone(plan);
            edit(&mut bad.handlers[1]);
            match compile_vm(&bad, None, &env) {
                Err(DeriveError::UnschedulablePremise { rel, rule, .. }) => {
                    assert_eq!((rel.as_str(), rule.as_str()), ("le", "le_S"));
                }
                other => panic!("expected a derive error, got {:?}", other.map(|_| ())),
            }
        };
        // A producer's recursive premise in a checker plan.
        fails(&|h| {
            h.steps.push(Step::ProduceRec {
                in_args: Vec::new(),
                out_slots: Vec::new(),
            })
        });
        // A variable bound twice, and one read before it is bound.
        let x = VarId::new(0);
        fails(&|h| {
            h.steps.push(Step::Unconstrained {
                var: x,
                ty: TypeExpr::Nat,
            })
        });
        let fresh = VarId::new(plan.handlers[1].nslots);
        fails(&|h| {
            h.nslots += 1;
            h.steps.push(Step::CheckRel {
                rel: plan.rel,
                args: vec![TermExpr::Var(fresh), TermExpr::Var(fresh)],
                negated: false,
            })
        });
    }

    #[cfg(target_pointer_width = "64")]
    #[test]
    fn instructions_stay_one_cache_line() {
        assert!(std::mem::size_of::<Instr>() <= 64);
    }

    #[test]
    fn deep_enumerations_hand_over_to_the_interpreter() {
        // Past `PUSH_DEPTH` nested levels the interpreter's stream
        // takes over; the outcome sequence must not change across it.
        let (u, env) = indrel_corpus::corpus_env();
        let lib = derive(u, env, &[], &[("le", &[1]), ("le", &[0])]);
        let le = lib.env().rel_id("le").unwrap();
        let deep = u64::from(PUSH_DEPTH);
        for outs in [[1], [0]] {
            let mode = Mode::producer(2, &outs);
            for fuel in [deep - 1, deep, deep + 1, 2 * deep] {
                for n in [0, 3, fuel] {
                    let inputs = [Value::nat(n)];
                    let want = lib.enumerate(le, &mode, fuel, fuel, &inputs).take(1_000);
                    assert_eq!(
                        pushed_outcomes(&lib, le, &mode, fuel, &inputs, 1_000),
                        want.outcomes(),
                        "le {mode} fuel {fuel} on {n}"
                    );
                }
            }
        }
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
            "ProduceRec",
            "Emit",
        ];
        let set: std::collections::HashSet<_> = names.iter().collect();
        assert_eq!(set.len(), names.len());
        let i = Instr::LoadNat { dst: 0, lit: 0 };
        assert!(names.contains(&i.opcode()));
    }
}
