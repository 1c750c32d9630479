//! Experiment harnesses regenerating every table and figure of the
//! paper's evaluation (§6).
//!
//! Each module implements one experiment, and the binaries in
//! `src/bin/` print the corresponding table; the DESIGN.md ablations
//! run as the [`ablation`] module's tests. Every other timing lives in
//! perfbench (`perfbench/`):
//!
//! | Paper artifact | Module | Binary |
//! |---|---|---|
//! | Table 1 | [`table1`] | `table1` |
//! | Figure 3 (left: checkers) | [`fig3`] | `fig3 checkers` |
//! | Figure 3 (right: generators) | [`fig3`] | `fig3 generators` |
//! | §6.2 mutation study | [`mutation`] | `mutation` |
//! | §6.3 reflection | [`reflection`] | `reflection` |
//! | DESIGN.md ablations | [`ablation`] | — |
//! | EXPERIMENTS.md tabling speedups | [`memo`] | `memo` |
//! | EXPERIMENTS.md observability smoke | [`obs`] | `obs` |

pub mod ablation;
pub mod fig3;
pub mod memo;
pub mod mutation;
pub mod obs;
pub mod reflection;
pub mod table1;

/// Formats a signed percentage delta the way Figure 3 annotates bars.
pub fn delta_pct(handwritten: f64, derived: f64) -> f64 {
    (derived - handwritten) / handwritten * 100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delta_pct_signs() {
        assert!(delta_pct(100.0, 98.0) < 0.0);
        assert!(delta_pct(100.0, 102.0) > 0.0);
        assert_eq!(delta_pct(100.0, 100.0), 0.0);
    }
}
