//! The §6.3 reflection experiment: `Sorted (repeat 1 n)` at the
//! paper's `n = 2000` (and neighbours, to expose the quadratic kernel
//! cost vs the linear reflective cost).

use indrel_reflect::ReflectionReport;
use std::fmt;

/// Paper timings for n = 2000 (§6.3), in seconds: construction,
/// typechecking, reflective construction, reflective checking.
pub const PAPER_SECONDS: (f64, f64, f64, f64) = (11.202, 16.283, 0.05, 0.059);

/// Runs the experiment at each length (on a large-stack worker
/// thread: the naive route recurses once per element).
pub fn run(lengths: &[u64]) -> Vec<ReflectionReport> {
    indrel_reflect::compare_with_big_stack(lengths)
}

/// Renders one report row.
pub struct DisplayReport(pub ReflectionReport);

impl fmt::Display for DisplayReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let r = &self.0;
        write!(
            f,
            "n={:<6} proof nodes {:<7} construct {:>10.3?}  kernel-check {:>10.3?}  reflective {:>10.3?}  speedup {:>7.1}x",
            r.n,
            r.proof_size,
            r.construct,
            r.kernel_check,
            r.reflective,
            r.speedup()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reflection_wins_at_both_scales() {
        // Keep the assertions timing-robust (debug builds under a
        // parallel test runner are noisy): reflection must win at both
        // lengths, and the kernel cost must grow with n. The
        // quadratic-vs-linear *trend* is reported by the `reflection`
        // binary, which measures four lengths outside the test runner.
        let reports = run(&[200, 800]);
        assert!(reports[0].speedup() > 1.0, "{reports:?}");
        assert!(reports[1].speedup() > 1.0, "{reports:?}");
        assert!(
            reports[1].kernel_check > reports[0].kernel_check,
            "{reports:?}"
        );
    }
}
