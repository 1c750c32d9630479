//! The indrel benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload for about `--seconds` of wall clock and prints,
//! as its last line, one JSON object with exactly the keys `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics of
//! [`report::END_TO_END`] when untraced, the per-layer metrics of
//! [`report::PER_LAYER`] when traced. The full result record (named
//! per-case metrics, measured input properties, provenance) is written
//! to `perfbench/out/` (or `$PERFBENCH_OUT`). `perfbench/run.py` builds
//! this binary and is the command to run; see `perfbench/README.md`.
//!
//! The benchmark sits outside the libraries: it calls their public
//! functions and times those calls itself.

mod pbt;
mod report;
mod serve;
mod stats;
mod suite;
mod trace;

use indrel_core::{ExecKind, Library, SearchStats};
use report::Report;
use stats::{median, ratio};
use std::cell::Cell;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// The workloads, in the order `run.py --all` runs them.
const WORKLOADS: &[&str] = &["pbt-checkers", "pbt-producers", "serve-mixed", "suite-memo"];

/// Set-up repetitions before measuring; the measuring loops add one
/// per round, so set-up is sampled across the whole run.
const SETUP_REPS: usize = 5;

/// Command-line arguments.
#[derive(Clone, Debug)]
pub struct Args {
    /// The workload name (one of [`WORKLOADS`]).
    pub workload: &'static str,
    /// The workload seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Wall-clock seconds the run measures for.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the untraced one.
    pub trace: bool,
}

impl Args {
    /// The deadline for a phase that gets `share` of the run's time.
    pub fn deadline(&self, share: f64) -> Instant {
        Instant::now() + Duration::from_secs_f64(self.seconds * share)
    }
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    *WORKLOADS
                        .iter()
                        .find(|w| **w == value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value:?}")),
                });
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "perfbench: {e}\nusage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let mut rep = Report::new(args.workload, args.seed, args.trace);
    match args.workload {
        "pbt-checkers" => pbt::checkers(&args, &mut rep),
        "pbt-producers" => pbt::producers(&args, &mut rep),
        "serve-mixed" => serve::mixed(&args, &mut rep),
        "suite-memo" => suite::memo(&args, &mut rep),
        _ => unreachable!("parse_args accepts only listed workloads"),
    }
    let out = std::env::var_os("PERFBENCH_OUT")
        .map_or_else(|| PathBuf::from("perfbench/out"), PathBuf::from);
    if rep.finish(&out) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// SplitMix64 over `seed` and two salts: independent, reproducible
/// sub-seeds for chunks, threads and input pools.
pub fn mix(seed: u64, a: u64, b: u64) -> u64 {
    let mut z = seed
        .wrapping_add(a.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(b.wrapping_mul(0xD1B5_4A32_D192_ED03));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Runs the workload's set-up [`SETUP_REPS`] times, recording each
/// duration, and returns the last result.
pub fn time_setup<T>(rep: &mut Report, mut setup: impl FnMut() -> T) -> T {
    let mut last = None;
    for _ in 0..SETUP_REPS {
        last = Some(setup_sample(rep, &mut setup));
    }
    last.expect("at least one set-up repetition")
}

/// Times one run of the workload's set-up into `rep.setup`, in seconds.
pub fn setup_sample<T>(rep: &mut Report, setup: impl FnOnce() -> T) -> T {
    let t0 = Instant::now();
    let v = std::hint::black_box(setup());
    rep.setup.push(t0.elapsed().as_secs_f64());
    v
}

/// A layer-ladder rung: runs its layer over the whole input set once
/// and returns how many items it processed.
pub type Rung<'a> = Box<dyn FnMut() -> u64 + 'a>;

/// Times the rungs interleaved — each round runs every rung once over
/// the same inputs — until `deadline` (at least three rounds), and
/// returns each rung's median nanoseconds per item.
pub fn time_rungs(deadline: Instant, rungs: &mut [Rung<'_>]) -> Vec<f64> {
    let mut samples = vec![Vec::new(); rungs.len()];
    let mut round = 0;
    while round < 3 || Instant::now() < deadline {
        for (rung, s) in rungs.iter_mut().zip(&mut samples) {
            let t0 = Instant::now();
            let items = rung();
            s.push(t0.elapsed().as_nanos() as f64 / items.max(1) as f64);
        }
        round += 1;
    }
    samples.iter().map(|s| median(s)).collect()
}

/// Verdict checks made inside timed layer measurements, folded into
/// the run's `attempted` and `failed` counts afterwards.
#[derive(Default)]
pub struct Tally {
    checked: Cell<u64>,
    wrong: Cell<u64>,
}

impl Tally {
    /// Counts one check; `right` is whether it agreed with the
    /// handwritten checker.
    pub fn check(&self, right: bool) {
        self.checked.set(self.checked.get() + 1);
        if !right {
            self.wrong.set(self.wrong.get() + 1);
        }
    }

    /// Adds the checks to `rep`, each disagreement as a wrong verdict.
    pub fn report(&self, rep: &mut Report, what: &str) {
        rep.attempt(self.checked.get());
        for _ in 0..self.wrong.get() {
            rep.fail(true, || {
                format!("{what}: disagreed with the handwritten checker")
            });
        }
    }
}

/// The `search.*` metrics from a probe pass over `ops` operations.
pub fn search_layers(rep: &mut Report, stats: &SearchStats, ops: u64) {
    let per = |x: u64| ratio(x as f64, ops as f64);
    rep.layer("search.attempts_per_op", per(stats.total_attempts()));
    rep.layer(
        "search.success_ratio",
        ratio(
            stats.total_successes() as f64,
            stats.total_attempts() as f64,
        ),
    );
    rep.layer("search.unify_fails_per_op", per(stats.total_unify_fails()));
    rep.layer("search.backtracks_per_op", per(stats.total_backtracks()));
    rep.layer(
        "search.enters.checker_per_op",
        per(stats.enters(ExecKind::Checker)),
    );
    rep.layer(
        "search.enters.enumerator_per_op",
        per(stats.enters(ExecKind::Enumerator)),
    );
    rep.layer(
        "search.enters.generator_per_op",
        per(stats.enters(ExecKind::Generator)),
    );
}

/// `compile.build_ms.*`: every case-study library's build (parse,
/// derive, plan, lower and VM compile), median of three, in ms.
pub fn compile_layers(rep: &mut Report) {
    fn ms<T>(build: impl Fn() -> T) -> f64 {
        let times: Vec<f64> = (0..3)
            .map(|_| {
                let t0 = Instant::now();
                drop(std::hint::black_box(build()));
                t0.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        median(&times)
    }
    rep.layer("compile.build_ms.bst", ms(indrel_bst::Bst::new));
    rep.layer("compile.build_ms.bst_derived", ms(serve::derived_bst));
    rep.layer("compile.build_ms.ifc", ms(indrel_ifc::Ifc::new));
    rep.layer("compile.build_ms.stlc", ms(indrel_stlc::Stlc::new));
}

/// Relations of `lib` whose checker compiled to VM bytecode.
pub fn compiled_rels(lib: &Library) -> usize {
    lib.env()
        .iter()
        .filter(|(rel, _)| lib.vm_compiled(*rel))
        .count()
}

/// The tracing overhead in percent: untraced over traced throughput,
/// as a geometric mean over the cases.
pub fn overhead_pct(untraced: &[f64], traced: &[f64]) -> f64 {
    (stats::geomean(untraced) / stats::geomean(traced) - 1.0) * 100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_is_deterministic_and_salt_sensitive() {
        assert_eq!(mix(1, 2, 3), mix(1, 2, 3));
        assert_ne!(mix(1, 2, 3), mix(1, 3, 2));
        assert_ne!(mix(1, 2, 3), mix(2, 2, 3));
    }

    #[test]
    fn rungs_report_per_item_medians() {
        let mut calls = 0;
        let mut rungs: Vec<Rung<'_>> = vec![Box::new(|| {
            calls += 1;
            std::thread::sleep(Duration::from_micros(200));
            2
        })];
        let ns = time_rungs(Instant::now(), &mut rungs);
        drop(rungs);
        assert_eq!(calls, 3);
        assert!(ns[0] >= 100_000.0, "{ns:?}");
    }
}
