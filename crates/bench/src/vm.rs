//! Compiled-backend throughput: plan interpreter vs bytecode VM on the
//! Figure 3 checker workloads.
//!
//! Same harness as [`crate::fig3`] — the handwritten generator is
//! fixed and the checker is swapped — but the derived side is measured
//! *twice*, once per executor: the plan interpreter
//! ([`Library::check_interpreted`], the oracle) and the register
//! bytecode VM ([`Library::check`], the default). Three bars per case,
//! so the document answers both questions at once: how much the flat
//! dispatch loop buys over walking the plan (`vm_speedup`), and how
//! close the compiled derived checker gets to the handwritten baseline
//! (`vm_ratio`, the ≥ 0.6 acceptance line).
//!
//! Exported as the `indrel.bench.vm/2` JSON schema via [`vm_json`]
//! (the `vm --json` flag, committed as `BENCH_vm.json`).

use indrel_bst::Bst;
use indrel_core::Library;
use indrel_ifc::Ifc;
use indrel_pbt::{Runner, TestOutcome};
use indrel_producers::json_escape;
use indrel_stlc::Stlc;
use indrel_term::{RelId, Value};
use std::fmt;
use std::time::Duration;

/// One three-bar group: handwritten, derived-interpreted, derived-on-VM.
#[derive(Clone, Debug)]
pub struct VmCaseResult {
    /// Benchmark name.
    pub name: &'static str,
    /// Handwritten tests/second.
    pub handwritten_tps: f64,
    /// Derived checker on the plan interpreter, tests/second.
    pub interp_tps: f64,
    /// Derived checker on the bytecode VM, tests/second.
    pub vm_tps: f64,
}

impl VmCaseResult {
    /// Derived-interpreted throughput as a fraction of handwritten.
    pub fn interp_ratio(&self) -> f64 {
        self.interp_tps / self.handwritten_tps
    }

    /// Derived-VM throughput as a fraction of handwritten — the
    /// acceptance line is ≥ 0.6 on BST and IFC.
    pub fn vm_ratio(&self) -> f64 {
        self.vm_tps / self.handwritten_tps
    }

    /// Dispatch-loop speedup over the interpreter (VM / interpreter).
    pub fn vm_speedup(&self) -> f64 {
        self.vm_tps / self.interp_tps
    }
}

impl fmt::Display for VmCaseResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<6} hand {:>11.0} t/s   interp {:>11.0} t/s ({:>5.1}%)   \
             vm {:>11.0} t/s ({:>5.1}%)   speedup {:>5.2}x",
            self.name,
            self.handwritten_tps,
            self.interp_tps,
            self.interp_ratio() * 100.0,
            self.vm_tps,
            self.vm_ratio() * 100.0,
            self.vm_speedup()
        )
    }
}

type BoxedGen<'a> = Box<dyn FnMut(u64, &mut dyn rand::RngCore) -> Option<Vec<Value>> + 'a>;
type BoxedProp<'a> = Box<dyn FnMut(&[Value]) -> TestOutcome + 'a>;

/// Measures one case: three unarmed throughput runs over the same
/// generator at the same seed, one per checker. The interpreter and VM
/// props run on the same unmemoized library session; only the executor
/// differs.
#[allow(clippy::too_many_arguments)]
fn measure_case(
    budget: Duration,
    name: &'static str,
    seed: u64,
    size: u64,
    mut gen: BoxedGen<'_>,
    mut hand: BoxedProp<'_>,
    lib: &Library,
    rel: RelId,
    fuel: u64,
) -> VmCaseResult {
    let runner = Runner::new(seed).with_size(size);
    let h = runner.throughput(budget, 64, &mut gen, &mut hand);
    let mut interp_prop =
        |args: &[Value]| TestOutcome::from_check(lib.check_interpreted(rel, fuel, fuel, args));
    let i = runner.throughput(budget, 64, &mut gen, &mut interp_prop);
    let mut vm_prop = |args: &[Value]| TestOutcome::from_check(lib.check(rel, fuel, fuel, args));
    let v = runner.throughput(budget, 64, &mut gen, &mut vm_prop);
    VmCaseResult {
        name,
        handwritten_tps: h.tests_per_second(),
        interp_tps: i.tests_per_second(),
        vm_tps: v.tests_per_second(),
    }
}

const BST_FUEL: u64 = 64;
const STLC_FUEL: u64 = 40;
const IFC_FUEL: u64 = 64;

/// Measures the three Figure 3 checker cases on both executors.
pub fn checkers(budget: Duration) -> Vec<VmCaseResult> {
    let mut out = Vec::new();

    // ---- BST ----
    let bst = Bst::new();
    let lib = bst.library().fork();
    let b = bst.clone();
    out.push(measure_case(
        budget,
        "BST",
        1,
        6,
        Box::new(move |size, rng| {
            Some(vec![
                Value::nat(0),
                Value::nat(24),
                b.handwritten_gen(0, 24, size, rng),
            ])
        }),
        Box::new(|args| TestOutcome::from_bool(bst.handwritten_check(0, 24, &args[2]))),
        &lib,
        bst.relation(),
        BST_FUEL,
    ));

    // ---- IFC ----
    let ifc = Ifc::new();
    let lib = ifc.library().fork();
    let i = ifc.clone();
    out.push(measure_case(
        budget,
        "IFC",
        2,
        6,
        Box::new(move |size, rng| {
            let (_, m1, m2) = i.gen_indist_pair(size, rng);
            Some(vec![i.machine_value(&m1), i.machine_value(&m2)])
        }),
        Box::new(|args| TestOutcome::from_bool(ifc.handwritten_indist_value(&args[0], &args[1]))),
        &lib,
        ifc.indist_relation(),
        IFC_FUEL,
    ));

    // ---- STLC ----
    let stlc = Stlc::new();
    let lib = stlc.library().fork();
    let s = stlc.clone();
    let empty_ctx = stlc.ctx(&[]);
    out.push(measure_case(
        budget,
        "STLC",
        3,
        5,
        Box::new(move |size, rng| {
            let ty = s.random_ty(2, rng);
            let e = s.handwritten_gen(&[], &ty, size, rng)?;
            Some(vec![empty_ctx.clone(), e, ty])
        }),
        Box::new(|args| TestOutcome::from_bool(stlc.handwritten_check(&[], &args[1], &args[2]))),
        &lib,
        stlc.typing_relation(),
        STLC_FUEL,
    ));

    out
}

fn case_json(r: &VmCaseResult) -> String {
    format!(
        "{{\"relation\":\"{}\",\"handwritten_tps\":{:.3},\"interp_tps\":{:.3},\
         \"vm_tps\":{:.3},\"interp_ratio\":{:.4},\"vm_ratio\":{:.4},\"vm_speedup\":{:.4}}}",
        json_escape(r.name),
        r.handwritten_tps,
        r.interp_tps,
        r.vm_tps,
        r.interp_ratio(),
        r.vm_ratio(),
        r.vm_speedup()
    )
}

/// The whole comparison as one JSON document (`indrel.bench.vm/2`).
pub fn vm_json(budget: Duration) -> String {
    let cases = checkers(budget);
    format!(
        "{{\"schema\":\"indrel.bench.vm/2\",\"budget_ms\":{},\"cases\":[{}]}}",
        budget.as_millis(),
        cases.iter().map(case_json).collect::<Vec<_>>().join(",")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_three_bars_are_positive() {
        for r in checkers(Duration::from_millis(30)) {
            assert!(r.handwritten_tps > 0.0, "{r}");
            assert!(r.interp_tps > 0.0, "{r}");
            assert!(r.vm_tps > 0.0, "{r}");
        }
    }

    #[test]
    fn vm_json_has_schema_and_cases() {
        let j = vm_json(Duration::from_millis(10));
        assert!(j.starts_with("{\"schema\":\"indrel.bench.vm/2\""), "{j}");
        for name in [
            "\"relation\":\"BST\"",
            "\"relation\":\"IFC\"",
            "\"relation\":\"STLC\"",
        ] {
            assert!(j.contains(name), "{j}");
        }
        assert!(j.contains("\"vm_speedup\""), "{j}");
    }
}
