//! The two property-based-testing workloads (Figure 3 of the paper).
//!
//! * `pbt-checkers` — Figure 3 left on BST and IFC: a seeded
//!   handwritten generator feeds the derived checker, as the property,
//!   through [`Runner::run`] on the default library session.
//! * `pbt-producers` — the STLC typing checker from Figure 3 left, and
//!   the derived BST and STLC generators from Figure 3 right, each
//!   output checked by the handwritten checker.
//!
//! A case runs in chunks: one `Runner::run` of a fixed test count with
//! a seed drawn from the workload seed. Derived verdicts are recorded
//! during the timed run and compared with the handwritten checker
//! afterwards, by replaying the chunk's seed (same seed, same inputs),
//! so the reference costs nothing inside the timed region.

use crate::report::Report;
use crate::stats::{ratio, Case};
use crate::trace::Tracer;
use crate::{mix, Args, Rung, Tally};
use indrel_bst::Bst;
use indrel_core::{Budget, ExecProbe, Library, SearchStats};
use indrel_ifc::Ifc;
use indrel_pbt::{Runner, TestOutcome};
use indrel_stlc::Stlc;
use indrel_term::{RelId, Value};
use rand::rngs::SmallRng;
use rand::{RngCore, SeedableRng};
use std::cell::{Cell, RefCell};
use std::time::Instant;

const BST_FUEL: u64 = 64;
const IFC_FUEL: u64 = 64;
const STLC_FUEL: u64 = 40;
/// BST keys lie in the open interval `(0, BST_HI)`, as in Figure 3.
const BST_HI: u64 = 24;
/// Inputs per case for the traced run's layer measurements.
const LAYER_INPUTS: usize = 512;

type GenFn<'a> = Box<dyn FnMut(u64, &mut dyn RngCore) -> Option<Vec<Value>> + 'a>;
type PropFn<'a> = Box<dyn FnMut(&[Value]) -> Option<bool> + 'a>;
type RefFn<'a> = Box<dyn Fn(&[Value]) -> bool + 'a>;
type ArgsFn<'a> = Box<dyn Fn(&[Value]) -> Vec<Value> + 'a>;

/// How a case's property output is verified.
enum Verify<'a> {
    /// The property is a derived checker: its recorded verdicts are
    /// replayed against this handwritten reference.
    Replay(RefFn<'a>),
    /// The property is the handwritten checker itself, applied to a
    /// derived generator's output: `Some(false)` is a wrong value.
    Inline,
}

/// The derived checker behind a checker case, for the layer ladder.
struct Target<'a> {
    lib: &'a Library,
    rel: RelId,
    fuel: u64,
    /// The relation's argument tuple for a generated test input.
    args: ArgsFn<'a>,
}

/// One PBT case: a generator and a property run through
/// [`Runner::run`].
struct PbtCase<'a> {
    case: Case,
    /// Throughputs of traced chunks (traced runs only).
    traced_rates: Vec<f64>,
    salt: u64,
    size: u64,
    tests_per_chunk: usize,
    gen: GenFn<'a>,
    prop: PropFn<'a>,
    verify: Verify<'a>,
    /// The library the case's derived code runs in (probe arming).
    lib: &'a Library,
    target: Option<Target<'a>>,
    attempts: u64,
    discards: u64,
}

impl<'a> PbtCase<'a> {
    #[allow(clippy::too_many_arguments)]
    fn new(
        name: &'static str,
        salt: u64,
        size: u64,
        tests_per_chunk: usize,
        lib: &'a Library,
        gen: GenFn<'a>,
        prop: PropFn<'a>,
        verify: Verify<'a>,
        target: Option<Target<'a>>,
    ) -> PbtCase<'a> {
        PbtCase {
            case: Case::new(name, "tests/s"),
            traced_rates: Vec::new(),
            salt,
            size,
            tests_per_chunk,
            gen,
            prop,
            verify,
            lib,
            target,
            attempts: 0,
            discards: 0,
        }
    }

    /// Runs one chunk, verifies it, and records it as a sample.
    /// `tracer`, when given, receives a `pbt.test` span per test with
    /// `pbt.gen` and `pbt.prop` children; such chunks count toward
    /// `traced_rates` instead of the case's samples.
    fn chunk(&mut self, seed: u64, rep: &mut Report, tracer: Option<&RefCell<TestSpans>>) {
        let runner = Runner::new(seed).with_size(self.size);
        let mut stamps: Vec<Instant> = Vec::with_capacity(self.tests_per_chunk * 2);
        let mut verdicts: Vec<Option<bool>> = Vec::with_capacity(self.tests_per_chunk * 2);
        let (gen, prop) = (&mut self.gen, &mut self.prop);
        let t0 = Instant::now();
        let report = runner.run(
            self.tests_per_chunk,
            |size, rng| {
                let now = Instant::now();
                stamps.push(now);
                match tracer {
                    None => gen(size, rng),
                    Some(t) => {
                        t.borrow_mut().begin_test(now);
                        let out = gen(size, rng);
                        t.borrow_mut().gen_done();
                        out
                    }
                }
            },
            |args| {
                let v = match tracer {
                    None => prop(args),
                    Some(t) => {
                        t.borrow_mut().prop_start();
                        let v = prop(args);
                        t.borrow_mut().prop_done();
                        v
                    }
                };
                verdicts.push(v);
                TestOutcome::from_check(v)
            },
        );
        let end = Instant::now();
        let elapsed = end - t0;
        if let Some(t) = tracer {
            t.borrow_mut().finish(end);
        }
        let ops = report.attempts() as u64;
        rep.attempt(ops);
        self.attempts += ops;
        self.discards += report.discarded as u64;
        for _ in 0..report.crashed {
            let msg = report
                .first_crash
                .as_ref()
                .map_or("", |c| c.message.as_str())
                .to_string();
            let name = self.case.name;
            rep.fail(false, || format!("{name}: crash: {msg}"));
        }
        self.verify_chunk(&runner, &verdicts, rep);
        if tracer.is_some() {
            self.traced_rates.push(ops as f64 / elapsed.as_secs_f64());
            return;
        }
        let mut lat: Vec<u64> = stamps
            .windows(2)
            .map(|w| (w[1] - w[0]).as_nanos() as u64)
            .collect();
        if let Some(last) = stamps.last() {
            lat.push((end - *last).as_nanos() as u64);
        }
        // A chunk cut short by a failure is counted in `failed`, not
        // sampled.
        if lat.len() >= 1000 {
            self.case.record_chunk(ops, elapsed, &mut lat);
        }
    }

    /// Checks every recorded verdict of one chunk.
    fn verify_chunk(&mut self, runner: &Runner, verdicts: &[Option<bool>], rep: &mut Report) {
        let name = self.case.name;
        match &self.verify {
            Verify::Inline => {
                for v in verdicts {
                    if *v != Some(true) {
                        rep.fail(true, || format!("{name}: generated value rejected ({v:?})"));
                    }
                }
            }
            Verify::Replay(reference) => {
                let mut i = 0;
                let gen = &mut self.gen;
                runner.run(self.tests_per_chunk, gen, |args| {
                    let got = verdicts.get(i).copied().flatten();
                    i += 1;
                    let want = reference(args);
                    match got {
                        None => rep.fail(false, || format!("{name}: derived checker gave None")),
                        Some(b) if b != want => {
                            rep.fail(true, || format!("{name}: derived {b}, handwritten {want}"))
                        }
                        Some(_) => {}
                    }
                    TestOutcome::from_check(got)
                });
                if i != verdicts.len() {
                    rep.fail(true, || {
                        format!("{name}: replay diverged from the timed run")
                    });
                }
            }
        }
    }
}

/// Span bookkeeping for one traced PBT chunk: a test span runs from
/// one generator call to the next, so its self time is the runner's
/// own per-test cost.
pub struct TestSpans {
    tracer: Tracer,
    epoch: Instant,
    test_start: Option<u64>,
    gen: (u64, u64),
    prop: Option<(u64, u64)>,
}

impl TestSpans {
    fn new(epoch: Instant) -> TestSpans {
        TestSpans {
            tracer: Tracer::new(epoch),
            epoch,
            test_start: None,
            gen: (0, 0),
            prop: None,
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        (t - self.epoch).as_nanos() as u64
    }

    fn close(&mut self, end: u64) {
        if let Some(start) = self.test_start.take() {
            let root = self.tracer.span("pbt.test", None, start, end);
            self.tracer
                .span("pbt.gen", Some(root), self.gen.0, self.gen.1);
            if let Some((a, b)) = self.prop.take() {
                self.tracer.span("pbt.prop", Some(root), a, b);
            }
            self.tracer.end_op();
        }
    }

    fn begin_test(&mut self, now: Instant) {
        let now = self.ns(now);
        self.close(now);
        self.test_start = Some(now);
        self.gen = (now, now);
    }

    fn gen_done(&mut self) {
        self.gen.1 = self.tracer.now();
    }

    fn prop_start(&mut self) {
        let now = self.tracer.now();
        self.prop = Some((now, now));
    }

    fn prop_done(&mut self) {
        let now = self.tracer.now();
        if let Some(p) = &mut self.prop {
            p.1 = now;
        }
    }

    fn finish(&mut self, end: Instant) {
        let end = self.ns(end);
        self.close(end);
    }
}

/// Runs the cases' chunks round-robin until the deadline. Untraced,
/// every chunk is a sample; traced, chunks alternate between untraced
/// samples and traced ones (for the spans and the tracing overhead).
fn drive(
    args: &Args,
    rep: &mut Report,
    cases: &mut [PbtCase<'_>],
    share: f64,
    resetup: &dyn Fn(&mut Report),
) -> Option<Tracer> {
    // Warm-up: one unrecorded chunk per case fills lazy caches.
    let mut scratch = Report::new(rep.workload, rep.seed, false);
    for c in cases.iter_mut() {
        c.chunk(mix(args.seed, c.salt, u64::MAX), &mut scratch, None);
    }
    let spans = RefCell::new(TestSpans::new(Instant::now()));
    let deadline = args.deadline(share);
    let mut round = 0u64;
    while round < 2 || Instant::now() < deadline {
        for c in cases.iter_mut() {
            let seed = mix(args.seed, c.salt, round);
            let traced = args.trace && round % 2 == 1;
            c.chunk(seed, rep, traced.then_some(&spans));
        }
        resetup(rep);
        round += 1;
    }
    let attempts: u64 = cases.iter().map(|c| c.attempts).sum();
    let discards: u64 = cases.iter().map(|c| c.discards).sum();
    rep.inputs
        .insert("pbt.discard_ratio", ratio(discards as f64, attempts as f64));
    args.trace.then(|| spans.into_inner().tracer)
}

/// The traced run's extra measurements shared by both PBT workloads:
/// runner spans, tracing overhead, and a probe pass for `search.*`.
fn trace_layers(args: &Args, rep: &mut Report, cases: &mut [PbtCase<'_>], tracer: Tracer) {
    rep.layer("pbt.gen_ns", tracer.self_time("pbt.gen").mean_ns());
    rep.layer("pbt.prop_ns", tracer.self_time("pbt.prop").mean_ns());
    rep.layer("pbt.runner_ns", tracer.self_time("pbt.test").mean_ns());
    rep.layer("pbt.discard_ratio", rep.inputs["pbt.discard_ratio"]);
    let untraced: Vec<f64> = cases.iter().map(|c| c.case.rate()).collect();
    let traced: Vec<f64> = cases
        .iter()
        .map(|c| crate::stats::best_tenth(&c.traced_rates, true))
        .collect();
    rep.layer(
        "trace.overhead_pct",
        crate::overhead_pct(&untraced, &traced),
    );
    rep.tracer = Some(tracer);

    // Probe pass: one chunk per case with a SearchStats armed on the
    // case's library session. Exact counts, not timings.
    let stats = SearchStats::new();
    let mut ops = 0;
    let mut scratch = Report::new(rep.workload, rep.seed, false);
    for c in cases.iter_mut() {
        let lib = c.lib;
        let _probe = lib.arm_probe(ExecProbe::stats(&stats));
        let before = c.attempts;
        c.chunk(mix(args.seed, c.salt, u64::MAX - 1), &mut scratch, None);
        ops += c.attempts - before;
    }
    crate::search_layers(rep, &stats, ops);
    crate::compile_layers(rep);
}

/// Seeded inputs from a case's own generator, for layer measurements.
fn layer_inputs(seed: u64, c: &mut PbtCase<'_>) -> Vec<Vec<Value>> {
    let mut rng = SmallRng::seed_from_u64(mix(seed, c.salt, u64::MAX - 2));
    let mut out = Vec::with_capacity(LAYER_INPUTS);
    let mut tries = 0;
    while out.len() < LAYER_INPUTS && tries < LAYER_INPUTS * 20 {
        tries += 1;
        if let Some(v) = (c.gen)(c.size, &mut rng) {
            out.push(v);
        }
    }
    out
}

/// One checker input for the ladder: the derived checker's argument
/// tuple and the handwritten verdict, plus the test input itself.
struct LadderInput<'a> {
    /// Index of the case the input came from.
    case: usize,
    lib: &'a Library,
    rel: RelId,
    fuel: u64,
    args: Vec<Value>,
    input: Vec<Value>,
    want: bool,
}

/// Collects the checker cases' ladder inputs.
fn ladder_inputs<'a>(seed: u64, cases: &mut [PbtCase<'a>]) -> Vec<LadderInput<'a>> {
    let mut out = Vec::new();
    for (case, c) in cases.iter_mut().enumerate() {
        let inputs = layer_inputs(seed, c);
        let (Some(t), Verify::Replay(reference)) = (&c.target, &c.verify) else {
            continue;
        };
        for input in inputs {
            out.push(LadderInput {
                case,
                lib: t.lib,
                rel: t.rel,
                fuel: t.fuel,
                args: (t.args)(&input),
                want: reference(&input),
                input,
            });
        }
    }
    out
}

/// A rung that runs `check` over every input and counts disagreements
/// with the handwritten verdict in `tally`.
fn rung<'r, 'a: 'r>(
    inputs: &'r [LadderInput<'a>],
    tally: &'r Tally,
    check: impl Fn(&LadderInput<'a>) -> Option<bool> + 'r,
) -> Rung<'r> {
    Box::new(move || {
        for i in inputs {
            tally.check(check(i) == Some(i.want));
        }
        inputs.len() as u64
    })
}

// ---------------------------------------------------------------------
// pbt-checkers
// ---------------------------------------------------------------------

/// The `pbt-checkers` workload.
pub fn checkers(args: &Args, rep: &mut Report) {
    let (bst, ifc) = crate::time_setup(rep, || (Bst::new(), Ifc::new()));
    let mut cases = vec![bst_check_case(&bst), ifc_check_case(&ifc)];
    let share = if args.trace { 0.5 } else { 1.0 };
    let resetup = |r: &mut Report| drop(crate::setup_sample(r, || (Bst::new(), Ifc::new())));
    if let Some(tracer) = drive(args, rep, &mut cases, share, &resetup) {
        trace_layers(args, rep, &mut cases, tracer);
        let vm_libs = [
            bst.library().fork().with_vm(),
            ifc.library().fork().with_vm(),
        ];
        rep.layer(
            "vm.compiled_rels",
            (crate::compiled_rels(bst.library()) + crate::compiled_rels(ifc.library())) as f64,
        );
        let deadline = args.deadline(0.5);
        let inputs = ladder_inputs(args.seed, &mut cases);
        ladder(rep, &inputs, &vm_libs, &bst, &ifc, deadline);
    }
    rep.cases.extend(cases.into_iter().map(|c| c.case));
}

/// The pbt-checkers layer ladder: handwritten, interpreter, closures,
/// VM, VM + meter, one rung per layer, over the workload's own inputs.
fn ladder(
    rep: &mut Report,
    inputs: &[LadderInput<'_>],
    vm_libs: &[Library; 2],
    bst: &Bst,
    ifc: &Ifc,
    deadline: Instant,
) {
    let tally = Tally::default();
    let (bst_inputs, ifc_inputs) = inputs.split_at(inputs.partition_point(|i| i.case == 0));
    let budget = Budget::unlimited().with_steps(1 << 30);
    // Figure 3's handwritten BST test (generator plus checker through
    // the runner) in the two tuple shapes the older bench bins used:
    // the tree alone, and the checker's full `(lo, hi, tree)` tuple.
    let shape_test = |full_tuple: bool| -> Rung<'_> {
        Box::new(move || {
            let report = Runner::new(1).with_size(6).run(
                LAYER_INPUTS,
                |size, rng| {
                    let t = bst.handwritten_gen(0, BST_HI, size, rng);
                    Some(if full_tuple {
                        vec![Value::nat(0), Value::nat(BST_HI), t]
                    } else {
                        vec![t]
                    })
                },
                |a| TestOutcome::from_bool(bst.handwritten_check(0, BST_HI, &a[a.len() - 1])),
            );
            report.attempts() as u64
        })
    };
    let mut rungs = vec![
        rung(bst_inputs, &tally, |i| {
            Some(bst.handwritten_check(0, BST_HI, &i.input[0]))
        }),
        rung(ifc_inputs, &tally, |i| {
            Some(ifc.handwritten_indist_value(&i.input[0], &i.input[1]))
        }),
        rung(inputs, &tally, |i| {
            i.lib.check_interpreted(i.rel, i.fuel, i.fuel, &i.args)
        }),
        rung(inputs, &tally, |i| {
            i.lib.check(i.rel, i.fuel, i.fuel, &i.args)
        }),
        rung(inputs, &tally, |i| {
            vm_libs[i.case].check(i.rel, i.fuel, i.fuel, &i.args)
        }),
        rung(inputs, &tally, |i| {
            vm_libs[i.case]
                .try_check(i.rel, i.fuel, i.fuel, &i.args, budget)
                .ok()
                .flatten()
        }),
        shape_test(false),
        shape_test(true),
    ];
    let ns = crate::time_rungs(deadline, &mut rungs);
    drop(rungs);
    rep.layer("hand.check_ns.bst", ns[0]);
    rep.layer("hand.check_ns.ifc", ns[1]);
    rep.layer("exec.interp_check_ns", ns[2]);
    rep.layer("lower.check_ns", ns[3]);
    rep.layer("vm.check_ns", ns[4]);
    rep.layer("meter.check_ns", ns[5] - ns[4]);
    rep.detail.insert("hand.bst_test_ns.tree_only", ns[6]);
    rep.detail.insert("hand.bst_test_ns.full_tuple", ns[7]);
    term_layers(rep, inputs.iter().map(|i| i.args.as_slice()));
    tally.report(rep, "pbt-checkers layer ladder");
}

/// `term.*`: fingerprint cost and size of the checker inputs.
fn term_layers<'v>(rep: &mut Report, tuples: impl Iterator<Item = &'v [Value]> + Clone) {
    let (fp_ns, size) = crate::serve::term_costs(tuples);
    rep.layer("term.fingerprint_ns", fp_ns);
    rep.layer("term.input_size", size);
}

fn bst_check_case(bst: &Bst) -> PbtCase<'_> {
    PbtCase::new(
        "bst_check_tps",
        1,
        6,
        2000,
        bst.library(),
        Box::new(move |size, rng| Some(vec![bst.handwritten_gen(0, BST_HI, size, rng)])),
        Box::new(move |a| bst.derived_check(0, BST_HI, &a[0], BST_FUEL)),
        Verify::Replay(Box::new(move |a| bst.handwritten_check(0, BST_HI, &a[0]))),
        Some(Target {
            lib: bst.library(),
            rel: bst.relation(),
            fuel: BST_FUEL,
            args: Box::new(|a| vec![Value::nat(0), Value::nat(BST_HI), a[0].clone()]),
        }),
    )
}

fn ifc_check_case(ifc: &Ifc) -> PbtCase<'_> {
    PbtCase::new(
        "ifc_check_tps",
        2,
        6,
        2000,
        ifc.library(),
        Box::new(move |size, rng| {
            let (_, m1, m2) = ifc.gen_indist_pair(size, rng);
            Some(vec![ifc.machine_value(&m1), ifc.machine_value(&m2)])
        }),
        Box::new(move |a| ifc.derived_indist(&a[0], &a[1], IFC_FUEL)),
        Verify::Replay(Box::new(move |a| {
            ifc.handwritten_indist_value(&a[0], &a[1])
        })),
        Some(Target {
            lib: ifc.library(),
            rel: ifc.indist_relation(),
            fuel: IFC_FUEL,
            args: Box::new(|a| a.to_vec()),
        }),
    )
}

// ---------------------------------------------------------------------
// pbt-producers
// ---------------------------------------------------------------------

/// The `pbt-producers` workload.
pub fn producers(args: &Args, rep: &mut Report) {
    let (stlc, bst) = crate::time_setup(rep, || (Stlc::new(), Bst::new()));
    let mut cases = vec![
        stlc_check_case(&stlc),
        bst_gen_case(&bst),
        stlc_gen_case(&stlc),
    ];
    let share = if args.trace { 0.5 } else { 1.0 };
    let resetup = |r: &mut Report| drop(crate::setup_sample(r, || (Stlc::new(), Bst::new())));
    if let Some(tracer) = drive(args, rep, &mut cases, share, &resetup) {
        trace_layers(args, rep, &mut cases, tracer);
        let deadline = args.deadline(0.5);
        producer_layers(args, rep, &mut cases, &stlc, &bst, deadline);
    }
    rep.cases.extend(cases.into_iter().map(|c| c.case));
}

/// The pbt-producers layer measurements: handwritten and default
/// checker on the STLC inputs, the type-inference enumerator the STLC
/// checker's application rule calls, and both derived generators.
fn producer_layers(
    args: &Args,
    rep: &mut Report,
    cases: &mut [PbtCase<'_>],
    stlc: &Stlc,
    bst: &Bst,
    deadline: Instant,
) {
    let gen_seed = mix(args.seed, 99, 0);
    let inputs = ladder_inputs(args.seed, &mut cases[..1]);
    let lib = stlc.library();
    let (rel, mode) = (stlc.typing_relation(), stlc.type_mode());
    let tally = Tally::default();
    let (enum_calls, outputs) = (Cell::new(0u64), Cell::new(0u64));
    let gens = Cell::new(0u64);
    let nones = Cell::new(0u64);
    let mut rungs = vec![
        rung(&inputs, &tally, |i| {
            Some(stlc.handwritten_check(&[], &i.input[0], &i.input[1]))
        }),
        rung(&inputs, &tally, |i| {
            i.lib.check(i.rel, i.fuel, i.fuel, &i.args)
        }),
        // Enumerate the type of each input term, as the checker's
        // application rule does for its argument; the first output
        // must be the handwritten checker's type.
        rung(&inputs, &tally, |i| {
            let outs = lib
                .enumerate(rel, &mode, STLC_FUEL, STLC_FUEL, &i.args[..2])
                .values();
            enum_calls.set(enum_calls.get() + 1);
            outputs.set(outputs.get() + outs.len() as u64);
            Some(outs.first().is_some_and(|o| o[0] == i.input[1]))
        }),
        // Both derived generators, one call each per input slot.
        Box::new(|| {
            let mut rng = SmallRng::seed_from_u64(gen_seed);
            for _ in 0..inputs.len() {
                gens.set(gens.get() + 2);
                match bst.derived_gen(0, BST_HI, 6, &mut rng) {
                    Some(t) => tally.check(bst.handwritten_check(0, BST_HI, &t)),
                    None => nones.set(nones.get() + 1),
                }
                let ty = stlc.random_ty(2, &mut rng);
                match stlc.derived_gen(&[], &ty, 5, &mut rng) {
                    Some(e) => tally.check(stlc.handwritten_check(&[], &e, &ty)),
                    None => nones.set(nones.get() + 1),
                }
            }
            2 * inputs.len() as u64
        }),
    ];
    let ns = crate::time_rungs(deadline, &mut rungs);
    drop(rungs);
    rep.layer("hand.check_ns.stlc", ns[0]);
    rep.layer("lower.check_ns", ns[1]);
    rep.layer("exec.enum_ns", ns[2]);
    rep.layer(
        "exec.enum_outputs",
        ratio(outputs.get() as f64, enum_calls.get() as f64),
    );
    rep.layer("exec.gen_ns", ns[3]);
    rep.layer(
        "exec.gen_none_ratio",
        ratio(nones.get() as f64, gens.get() as f64),
    );
    term_layers(rep, inputs.iter().map(|i| i.args.as_slice()));
    tally.report(rep, "pbt-producers layer measurement");
}

fn stlc_check_case(stlc: &Stlc) -> PbtCase<'_> {
    PbtCase::new(
        "stlc_check_tps",
        3,
        5,
        1000,
        stlc.library(),
        Box::new(move |size, rng| {
            let ty = stlc.random_ty(2, rng);
            let e = stlc.handwritten_gen(&[], &ty, size, rng)?;
            Some(vec![e, ty])
        }),
        Box::new(move |a| stlc.derived_check(&[], &a[0], &a[1], STLC_FUEL)),
        Verify::Replay(Box::new(move |a| stlc.handwritten_check(&[], &a[0], &a[1]))),
        Some(Target {
            lib: stlc.library(),
            rel: stlc.typing_relation(),
            fuel: STLC_FUEL,
            args: Box::new(move |a| vec![stlc.ctx(&[]), a[0].clone(), a[1].clone()]),
        }),
    )
}

fn bst_gen_case(bst: &Bst) -> PbtCase<'_> {
    PbtCase::new(
        "bst_gen_tps",
        4,
        6,
        1000,
        bst.library(),
        Box::new(move |size, rng| bst.derived_gen(0, BST_HI, size, rng).map(|t| vec![t])),
        Box::new(move |a| Some(bst.handwritten_check(0, BST_HI, &a[0]))),
        Verify::Inline,
        None,
    )
}

fn stlc_gen_case(stlc: &Stlc) -> PbtCase<'_> {
    PbtCase::new(
        "stlc_gen_tps",
        5,
        5,
        1000,
        stlc.library(),
        Box::new(move |size, rng| {
            let ty = stlc.random_ty(2, rng);
            let e = stlc.derived_gen(&[], &ty, size, rng)?;
            Some(vec![e, ty])
        }),
        Box::new(move |a| Some(stlc.handwritten_check(&[], &a[0], &a[1]))),
        Verify::Inline,
        None,
    )
}
