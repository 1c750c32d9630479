//! The `suite-memo` workload: memoized checker sweeps in the
//! regression-suite shape, one [`Library::with_memo`] session per
//! sweep.
//!
//! * **Hit-heavy half** (`suite_hit_cps`): an STLC corpus of
//!   well-typed terms checked once per property of a 4-property suite,
//!   so the first pass fills the table and the other three hit it.
//! * **Miss-heavy half** (`suite_miss_cps`): a BST corpus of distinct
//!   trees with keys spread over `0..2^32` (the Figure 3 configuration,
//!   handwritten `le'`/`lt'`), so every lookup misses and inserts.

use crate::report::Report;
use crate::stats::{ratio, Case};
use crate::trace::Tracer;
use crate::{mix, Args};
use indrel_bst::Bst;
use indrel_core::{ExecProbe, Library, MemoStats, SearchStats};
use indrel_stlc::Stlc;
use indrel_term::{RelId, Value};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::time::Instant;

const STLC_FUEL: u64 = 40;
const BST_FUEL: u64 = 64;
/// Properties in the suite: each re-checks the whole STLC corpus.
const SUITE_PASSES: usize = 4;
/// Terms per STLC corpus (`SUITE_PASSES` times as many checks).
const STLC_TERMS: usize = 256;
/// Trees per BST corpus.
const BST_TREES: usize = 1024;
/// Corpora per half; sweeps cycle through them.
const CORPORA: usize = 8;

/// One memoized check and its handwritten verdict.
struct Check {
    args: Vec<Value>,
    want: bool,
}

/// One half of the workload: a checker, its corpora, and its samples.
struct Half<'a> {
    case: Case,
    traced_rates: Vec<f64>,
    base: &'a Library,
    rel: RelId,
    fuel: u64,
    passes: usize,
    corpora: Vec<Vec<Check>>,
    sweeps: u64,
    memo: MemoStats,
}

impl Half<'_> {
    /// One sweep over corpus `k`: a fresh memoized session, `passes`
    /// passes over the corpus, every check timed and verified. With a
    /// tracer, each check becomes a `memo.hit` or `memo.miss` span,
    /// classified by the session's memo counters across the call.
    fn sweep(&mut self, k: usize, rep: &mut Report, tracer: Option<&mut Tracer>) {
        let lib = self.base.fork().with_memo();
        let corpus = &self.corpora[k % self.corpora.len()];
        let ops = (corpus.len() * self.passes) as u64;
        let mut lat = Vec::with_capacity(ops as usize);
        let mut bad: Vec<(Option<bool>, bool)> = Vec::new();
        let start = Instant::now();
        let mut t = start;
        let traced = tracer.is_some();
        match tracer {
            None => {
                for _ in 0..self.passes {
                    for c in corpus {
                        let got = lib.check(self.rel, self.fuel, self.fuel, &c.args);
                        let now = Instant::now();
                        lat.push((now - t).as_nanos() as u64);
                        t = now;
                        if got != Some(c.want) {
                            bad.push((got, c.want));
                        }
                    }
                }
            }
            Some(tr) => {
                for _ in 0..self.passes {
                    for c in corpus {
                        let before = lib.memo_stats();
                        let a = tr.now();
                        let got = lib.check(self.rel, self.fuel, self.fuel, &c.args);
                        let b = tr.now();
                        let after = lib.memo_stats();
                        let hit = after.misses == before.misses && after.hits > before.hits;
                        tr.span(if hit { "memo.hit" } else { "memo.miss" }, None, a, b);
                        tr.end_op();
                        if got != Some(c.want) {
                            bad.push((got, c.want));
                        }
                    }
                }
            }
        }
        let elapsed = start.elapsed();
        rep.attempt(ops);
        let name = self.case.name;
        for (got, want) in bad {
            rep.fail(got.is_some(), || {
                format!("{name}: memoized {got:?}, handwritten {want}")
            });
        }
        let s = lib.memo_stats();
        self.memo.hits += s.hits;
        self.memo.misses += s.misses;
        self.memo.insertions += s.insertions;
        self.memo.entries += s.entries;
        self.sweeps += 1;
        if traced {
            self.traced_rates.push(ops as f64 / elapsed.as_secs_f64());
        } else {
            self.case.record_chunk(ops, elapsed, &mut lat);
        }
    }
}

/// The seeded STLC corpora: closed well-typed terms from the
/// handwritten generator, as `(Γ, e, τ)` tuples.
fn stlc_corpora(stlc: &Stlc, seed: u64) -> Vec<Vec<Check>> {
    (0..CORPORA)
        .map(|k| {
            let mut rng = SmallRng::seed_from_u64(mix(seed, 11, k as u64));
            let mut out = Vec::with_capacity(STLC_TERMS);
            while out.len() < STLC_TERMS {
                let ty = stlc.random_ty(2, &mut rng);
                if let Some(e) = stlc.handwritten_gen(&[], &ty, 5, &mut rng) {
                    let want = stlc.handwritten_check(&[], &e, &ty);
                    out.push(Check {
                        args: vec![stlc.ctx(&[]), e, ty],
                        want,
                    });
                }
            }
            out
        })
        .collect()
}

/// The seeded BST corpora: trees with keys spread over `0..2^32`.
fn bst_corpora(bst: &Bst, seed: u64) -> Vec<Vec<Check>> {
    let hi = u64::from(u32::MAX);
    (0..CORPORA)
        .map(|k| {
            let mut rng = SmallRng::seed_from_u64(mix(seed, 12, k as u64));
            (0..BST_TREES)
                .map(|_| {
                    let t = bst.handwritten_gen(0, hi, 6, &mut rng);
                    Check {
                        want: bst.handwritten_check(0, hi, &t),
                        args: vec![Value::nat(0), Value::nat(hi), t],
                    }
                })
                .collect()
        })
        .collect()
}

/// The `suite-memo` workload.
pub fn memo(args: &Args, rep: &mut Report) {
    let (stlc, bst) = crate::time_setup(rep, || (Stlc::new(), Bst::new()));
    let mut halves = [
        Half {
            case: Case::new("suite_hit_cps", "checks/s"),
            traced_rates: Vec::new(),
            base: stlc.library(),
            rel: stlc.typing_relation(),
            fuel: STLC_FUEL,
            passes: SUITE_PASSES,
            corpora: stlc_corpora(&stlc, args.seed),
            sweeps: 0,
            memo: MemoStats::default(),
        },
        Half {
            case: Case::new("suite_miss_cps", "checks/s"),
            traced_rates: Vec::new(),
            base: bst.library(),
            rel: bst.relation(),
            fuel: BST_FUEL,
            passes: 1,
            corpora: bst_corpora(&bst, args.seed),
            sweeps: 0,
            memo: MemoStats::default(),
        },
    ];
    // Warm-up sweeps, unrecorded.
    let mut scratch = Report::new(rep.workload, rep.seed, false);
    for h in &mut halves {
        h.sweep(0, &mut scratch, None);
        h.memo = MemoStats::default();
        h.sweeps = 0;
    }
    let mut tracer = Tracer::new(Instant::now());
    let deadline = args.deadline(if args.trace { 0.7 } else { 1.0 });
    let mut round = 0usize;
    while round < 2 || Instant::now() < deadline {
        let traced = args.trace && round % 2 == 1;
        for h in &mut halves {
            h.sweep(round, rep, traced.then_some(&mut tracer));
        }
        drop(crate::setup_sample(rep, || (Stlc::new(), Bst::new())));
        round += 1;
    }
    let (hits, misses) = halves
        .iter()
        .fold((0, 0), |(h, m), x| (h + x.memo.hits, m + x.memo.misses));
    let hit_ratio = ratio(hits as f64, (hits + misses) as f64);
    rep.inputs.insert("memo.hit_ratio", hit_ratio);
    rep.inputs
        .insert("memo.hit_ratio.hit_half", half_ratio(&halves[0].memo));
    rep.inputs
        .insert("memo.hit_ratio.miss_half", half_ratio(&halves[1].memo));
    if args.trace {
        rep.layer("memo.hit_ns", tracer.self_time("memo.hit").mean_ns());
        rep.layer("memo.miss_ns", tracer.self_time("memo.miss").mean_ns());
        rep.layer("memo.hit_ratio", hit_ratio);
        let sweeps: u64 = halves.iter().map(|h| h.sweeps).sum();
        let per_sweep = |f: fn(&MemoStats) -> u64| {
            ratio(
                halves.iter().map(|h| f(&h.memo)).sum::<u64>() as f64,
                sweeps as f64,
            )
        };
        rep.layer("memo.insertions", per_sweep(|m| m.insertions));
        rep.layer("memo.entries", per_sweep(|m| m.entries as u64));
        let untraced: Vec<f64> = halves.iter().map(|h| h.case.rate()).collect();
        let traced: Vec<f64> = halves
            .iter()
            .map(|h| crate::stats::best_tenth(&h.traced_rates, true))
            .collect();
        rep.layer(
            "trace.overhead_pct",
            crate::overhead_pct(&untraced, &traced),
        );
        rep.tracer = Some(tracer);
        // Probe pass: one sweep of each half with a SearchStats armed
        // on the sweep's session. Exact counts, not timings.
        let stats = SearchStats::new();
        let mut ops = 0;
        for h in &halves {
            let lib = h.base.fork().with_memo();
            let _probe = lib.arm_probe(ExecProbe::stats(&stats));
            for _ in 0..h.passes {
                for c in &h.corpora[0] {
                    std::hint::black_box(lib.check(h.rel, h.fuel, h.fuel, &c.args));
                }
            }
            ops += (h.corpora[0].len() * h.passes) as u64;
        }
        crate::search_layers(rep, &stats, ops);
        // The handwritten checkers on the same corpora.
        let hi = u64::from(u32::MAX);
        let tally = crate::Tally::default();
        let hand = |corpus: &[Check], check: &dyn Fn(&[Value]) -> bool| {
            for c in corpus {
                tally.check(check(&c.args) == c.want);
            }
            corpus.len() as u64
        };
        let (stlc_corpus, bst_corpus) = (&halves[0].corpora[0], &halves[1].corpora[0]);
        let mut rungs: Vec<crate::Rung<'_>> = vec![
            Box::new(|| hand(stlc_corpus, &|a| stlc.handwritten_check(&[], &a[1], &a[2]))),
            Box::new(|| hand(bst_corpus, &|a| bst.handwritten_check(0, hi, &a[2]))),
        ];
        let ns = crate::time_rungs(
            Instant::now() + std::time::Duration::from_millis(300),
            &mut rungs,
        );
        drop(rungs);
        rep.layer("hand.check_ns.stlc", ns[0]);
        rep.layer("hand.check_ns.bst", ns[1]);
        tally.report(rep, "suite-memo handwritten measurement");
        let tuples = halves
            .iter()
            .flat_map(|h| h.corpora[0].iter().map(|c| c.args.as_slice()));
        let (fp_ns, size) = crate::serve::term_costs(tuples);
        rep.layer("term.fingerprint_ns", fp_ns);
        rep.layer("term.input_size", size);
        crate::compile_layers(rep);
    }
    rep.cases.extend(halves.map(|h| h.case));
}

fn half_ratio(m: &MemoStats) -> f64 {
    ratio(m.hits as f64, (m.hits + m.misses) as f64)
}
