//! Figure 3: throughput of the QuickChick case studies with
//! handwritten vs derived checkers (left) and generators (right).
//!
//! As in the paper, the checker comparison fixes the handwritten
//! generator and swaps the checker; the generator comparison fixes the
//! handwritten checker and swaps the generator. Throughput is tests
//! per second over a fixed wall-clock budget.
//!
//! Beyond the paper's numbers, each case can run an extra fixed-count
//! *telemetry pass* with a [`SearchStats`] probe armed on the derived
//! side ([`checkers_telemetry`] / [`generators_telemetry`]), and the
//! whole figure exports as one machine-readable JSON document
//! ([`fig3_json`], the `fig3 --json` flag). Throughput numbers always
//! come from unarmed runs — the probe pass is separate, so the
//! telemetry never taxes the measurement it annotates.

use indrel_bst::Bst;
use indrel_core::{ExecProbe, Library, SearchStats};
use indrel_ifc::Ifc;
use indrel_pbt::{Runner, TestOutcome};
use indrel_producers::json_escape;
use indrel_stlc::Stlc;
use indrel_term::Value;
use std::fmt;
use std::time::{Duration, Instant};

/// One bar pair of Figure 3.
#[derive(Clone, Debug)]
pub struct CaseResult {
    /// Benchmark name.
    pub name: &'static str,
    /// Handwritten tests/second.
    pub handwritten_tps: f64,
    /// Derived tests/second.
    pub derived_tps: f64,
}

impl CaseResult {
    /// The percentage annotation of Figure 3.
    pub fn delta_pct(&self) -> f64 {
        crate::delta_pct(self.handwritten_tps, self.derived_tps)
    }
}

impl fmt::Display for CaseResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<6} handwritten {:>12.0} t/s   derived {:>12.0} t/s   Δ {:>7.2}%",
            self.name,
            self.handwritten_tps,
            self.derived_tps,
            self.delta_pct()
        )
    }
}

/// The fixed-count probe pass run after the throughput measurement:
/// the derived side repeated with a [`SearchStats`] armed.
#[derive(Clone, Debug)]
pub struct StatsPass {
    /// Attempted tests in the pass (verdicts + discards + crashes).
    pub tests: u64,
    /// Wall-clock time of the armed pass.
    pub wall: Duration,
    /// Runner meter steps charged during the pass.
    pub steps: u64,
    /// Runner meter backtracks charged during the pass.
    pub backtracks: u64,
    /// The accumulated search statistics.
    pub stats: SearchStats,
}

/// A [`CaseResult`] plus its optional telemetry pass.
#[derive(Clone, Debug)]
pub struct CaseTelemetry {
    /// The throughput comparison (always from unarmed runs).
    pub result: CaseResult,
    /// Present when the telemetry pass was requested (`stats_tests > 0`).
    pub stats_pass: Option<StatsPass>,
}

type BoxedGen<'a> = Box<dyn FnMut(u64, &mut dyn rand::RngCore) -> Option<Vec<Value>> + 'a>;
type BoxedProp<'a> = Box<dyn FnMut(&[Value]) -> TestOutcome + 'a>;

/// One side of a comparison: a generator plus a property.
struct Side<'a> {
    gen: BoxedGen<'a>,
    prop: BoxedProp<'a>,
}

/// Measures one bar pair: two unarmed throughput runs, then (when
/// `stats_tests > 0`) a fixed-count re-run of the derived side with a
/// [`SearchStats`] probe armed on `lib`.
#[allow(clippy::too_many_arguments)]
fn measure_case(
    budget: Duration,
    stats_tests: u64,
    name: &'static str,
    seed: u64,
    size: u64,
    lib: &Library,
    mut hand: Side<'_>,
    mut derv: Side<'_>,
) -> CaseTelemetry {
    let runner = Runner::new(seed).with_size(size);
    let h = runner.throughput(budget, 64, &mut hand.gen, &mut hand.prop);
    let d = runner.throughput(budget, 64, &mut derv.gen, &mut derv.prop);
    let result = CaseResult {
        name,
        handwritten_tps: h.tests_per_second(),
        derived_tps: d.tests_per_second(),
    };
    let stats_pass = (stats_tests > 0).then(|| {
        let stats = SearchStats::new();
        let _probe = lib.arm_probe(ExecProbe::stats(&stats));
        let t0 = Instant::now();
        let report = runner.run(stats_tests as usize, &mut derv.gen, &mut derv.prop);
        let wall = t0.elapsed();
        StatsPass {
            tests: report.attempts() as u64,
            wall,
            steps: report.spent.steps,
            backtracks: report.spent.backtracks,
            stats,
        }
    });
    CaseTelemetry { result, stats_pass }
}

const BST_FUEL: u64 = 64;
const STLC_FUEL: u64 = 40;
const IFC_FUEL: u64 = 64;

/// Measures the checker side (Figure 3, left): BST, IFC, STLC.
pub fn checkers(budget: Duration) -> Vec<CaseResult> {
    checkers_telemetry(budget, 0)
        .into_iter()
        .map(|t| t.result)
        .collect()
}

/// Measures the generator side (Figure 3, right): BST, STLC.
pub fn generators(budget: Duration) -> Vec<CaseResult> {
    generators_telemetry(budget, 0)
        .into_iter()
        .map(|t| t.result)
        .collect()
}

/// [`checkers`] plus a `stats_tests`-long probe pass per case.
pub fn checkers_telemetry(budget: Duration, stats_tests: u64) -> Vec<CaseTelemetry> {
    let mut out = Vec::new();

    // ---- BST ----
    let bst = Bst::new();
    let gen_bst = |bst: &Bst| {
        let b = bst.clone();
        move |size: u64, rng: &mut dyn rand::RngCore| {
            Some(vec![b.handwritten_gen(0, 24, size, rng)])
        }
    };
    out.push(measure_case(
        budget,
        stats_tests,
        "BST",
        1,
        6,
        bst.library(),
        Side {
            gen: Box::new(gen_bst(&bst)),
            prop: Box::new(|args| TestOutcome::from_bool(bst.handwritten_check(0, 24, &args[0]))),
        },
        Side {
            gen: Box::new(gen_bst(&bst)),
            prop: Box::new(|args| {
                TestOutcome::from_check(bst.derived_check(0, 24, &args[0], BST_FUEL))
            }),
        },
    ));

    // ---- IFC ----
    let ifc = Ifc::new();
    let gen_pair = |ifc: &Ifc| {
        let i = ifc.clone();
        move |size: u64, rng: &mut dyn rand::RngCore| {
            let (_, m1, m2) = i.gen_indist_pair(size, rng);
            Some(vec![i.machine_value(&m1), i.machine_value(&m2)])
        }
    };
    out.push(measure_case(
        budget,
        stats_tests,
        "IFC",
        2,
        6,
        ifc.library(),
        Side {
            gen: Box::new(gen_pair(&ifc)),
            prop: Box::new(|args| {
                TestOutcome::from_bool(ifc.handwritten_indist_value(&args[0], &args[1]))
            }),
        },
        Side {
            gen: Box::new(gen_pair(&ifc)),
            prop: Box::new(|args| {
                TestOutcome::from_check(ifc.derived_indist(&args[0], &args[1], IFC_FUEL))
            }),
        },
    ));

    // ---- STLC ----
    let stlc = Stlc::new();
    let gen_term = |stlc: &Stlc| {
        let s = stlc.clone();
        move |size: u64, rng: &mut dyn rand::RngCore| {
            let ty = s.random_ty(2, rng);
            let e = s.handwritten_gen(&[], &ty, size, rng)?;
            Some(vec![e, ty])
        }
    };
    out.push(measure_case(
        budget,
        stats_tests,
        "STLC",
        3,
        5,
        stlc.library(),
        Side {
            gen: Box::new(gen_term(&stlc)),
            prop: Box::new(|args| {
                TestOutcome::from_bool(stlc.handwritten_check(&[], &args[0], &args[1]))
            }),
        },
        Side {
            gen: Box::new(gen_term(&stlc)),
            prop: Box::new(|args| {
                TestOutcome::from_check(stlc.derived_check(&[], &args[0], &args[1], STLC_FUEL))
            }),
        },
    ));

    out
}

/// [`generators`] plus a `stats_tests`-long probe pass per case.
pub fn generators_telemetry(budget: Duration, stats_tests: u64) -> Vec<CaseTelemetry> {
    let mut out = Vec::new();

    // ---- BST ----
    let bst = Bst::new();
    let b_hand = bst.clone();
    let b_derv = bst.clone();
    let bst_check = |bst: &Bst| {
        let b = bst.clone();
        move |args: &[Value]| TestOutcome::from_bool(b.handwritten_check(0, 24, &args[0]))
    };
    out.push(measure_case(
        budget,
        stats_tests,
        "BST",
        4,
        6,
        bst.library(),
        Side {
            gen: Box::new(move |size, rng| Some(vec![b_hand.handwritten_gen(0, 24, size, rng)])),
            prop: Box::new(bst_check(&bst)),
        },
        Side {
            gen: Box::new(move |size, rng| b_derv.derived_gen(0, 24, size, rng).map(|t| vec![t])),
            prop: Box::new(bst_check(&bst)),
        },
    ));

    // ---- STLC ----
    let stlc = Stlc::new();
    let s_hand = stlc.clone();
    let s_derv = stlc.clone();
    let stlc_check = |stlc: &Stlc| {
        let s = stlc.clone();
        move |args: &[Value]| TestOutcome::from_bool(s.handwritten_check(&[], &args[0], &args[1]))
    };
    out.push(measure_case(
        budget,
        stats_tests,
        "STLC",
        5,
        5,
        stlc.library(),
        Side {
            gen: Box::new(move |size, rng| {
                let ty = s_hand.random_ty(2, rng);
                let e = s_hand.handwritten_gen(&[], &ty, size, rng)?;
                Some(vec![e, ty])
            }),
            prop: Box::new(stlc_check(&stlc)),
        },
        Side {
            gen: Box::new(move |size, rng| {
                let ty = s_derv.random_ty(2, rng);
                let e = s_derv.derived_gen(&[], &ty, size, rng)?;
                Some(vec![e, ty])
            }),
            prop: Box::new(stlc_check(&stlc)),
        },
    ));

    out
}

fn case_json(t: &CaseTelemetry) -> String {
    let mut s = format!(
        "{{\"relation\":\"{}\",\"handwritten_tps\":{:.3},\"derived_tps\":{:.3},\"delta_pct\":{:.3}",
        json_escape(t.result.name),
        t.result.handwritten_tps,
        t.result.derived_tps,
        t.result.delta_pct()
    );
    if let Some(p) = &t.stats_pass {
        s.push_str(&format!(
            ",\"stats_pass\":{{\"tests\":{},\"wall_ms\":{:.3},\"steps\":{},\"backtracks\":{},\
             \"attempts\":{},\"successes\":{},\"unify_fails\":{},\"search\":{}}}",
            p.tests,
            p.wall.as_secs_f64() * 1e3,
            p.steps,
            p.backtracks,
            p.stats.total_attempts(),
            p.stats.total_successes(),
            p.stats.total_unify_fails(),
            p.stats.snapshot().deterministic_json()
        ));
    }
    s.push('}');
    s
}

/// The whole figure as one JSON document (`indrel.bench.fig3/2`):
/// per-case throughput, delta, and — when `stats_tests > 0` — the
/// telemetry pass with runner accounting and, as `search`, the
/// [`SearchStats`] snapshot's deterministic `indrel.metrics/1` section.
pub fn fig3_json(budget: Duration, stats_tests: u64) -> String {
    let checkers = checkers_telemetry(budget, stats_tests);
    let generators = generators_telemetry(budget, stats_tests);
    let join = |cases: &[CaseTelemetry]| cases.iter().map(case_json).collect::<Vec<_>>().join(",");
    format!(
        "{{\"schema\":\"indrel.bench.fig3/2\",\"budget_ms\":{},\"stats_tests\":{},\
         \"checkers\":[{}],\"generators\":[{}]}}",
        budget.as_millis(),
        stats_tests,
        join(&checkers),
        join(&generators)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checker_throughputs_are_positive() {
        for r in checkers(Duration::from_millis(30)) {
            assert!(r.handwritten_tps > 0.0, "{r}");
            assert!(r.derived_tps > 0.0, "{r}");
        }
    }

    #[test]
    fn generator_throughputs_are_positive() {
        for r in generators(Duration::from_millis(30)) {
            assert!(r.handwritten_tps > 0.0, "{r}");
            assert!(r.derived_tps > 0.0, "{r}");
        }
    }

    #[test]
    fn telemetry_pass_populates_search_stats() {
        for t in checkers_telemetry(Duration::from_millis(10), 50) {
            let p = t.stats_pass.expect("stats pass requested");
            assert!(p.tests > 0, "{}", t.result.name);
            assert!(
                p.stats.total_attempts() > 0,
                "{}: derived checker should attempt rules",
                t.result.name
            );
        }
    }

    #[test]
    fn fig3_json_has_schema_and_cases() {
        let j = fig3_json(Duration::from_millis(10), 20);
        assert!(j.starts_with("{\"schema\":\"indrel.bench.fig3/2\""), "{j}");
        for name in [
            "\"relation\":\"BST\"",
            "\"relation\":\"IFC\"",
            "\"relation\":\"STLC\"",
        ] {
            assert!(j.contains(name), "{j}");
        }
        assert!(j.contains("\"stats_pass\""), "{j}");
        assert!(
            j.contains("\"search\":{\"schema\":\"indrel.metrics/1\""),
            "{j}"
        );
    }
}
