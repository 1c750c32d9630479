//! Ablations for the design decisions DESIGN.md calls out.
//!
//! 1. **Thunked, localized backtracking** (§2): a derived checker's
//!    handler list is tried lazily, so inputs that fail to match any
//!    conclusion pattern are rejected almost for free. We measure the
//!    derived BST checker on valid trees vs trees that violate the
//!    invariant at the root.
//! 2. **Lazy enumeration** (the `E` producer): sequencing an enumerator
//!    into a checker (`bind_ec`) stops at the first witness. We measure
//!    time-to-first-witness vs time-to-all-witnesses on a constrained
//!    query with many solutions (`le ?n 10`).
//! 3. **Bytecode compilation vs plan interpretation**: derived checkers
//!    execute on the bytecode VM, with the step interpreter kept as
//!    the oracle and baseline (BENCH_vm.json records the gap).
//! 4. **Produce-and-match vs check for known recursive premises**
//!    (`DeriveOptions::check_known_recursive`): exercised as a unit
//!    test — switching the strategy must not change checker verdicts.

use indrel_bst::Bst;
use indrel_term::Value;
use std::time::{Duration, Instant};

/// Result of the backtracking-locality ablation.
#[derive(Clone, Copy, Debug)]
pub struct Locality {
    /// Checks per second on valid trees (the full traversal).
    pub valid_cps: f64,
    /// Checks per second on root-invalid trees (early rejection).
    pub invalid_cps: f64,
}

/// Measures how cheap local backtracking failure is.
pub fn backtracking_locality(budget: Duration) -> Locality {
    let bst = Bst::new();
    let mut rng = <rand::rngs::SmallRng as rand::SeedableRng>::seed_from_u64(31);
    let valid: Vec<Value> = (0..64)
        .map(|_| bst.handwritten_gen(0, 24, 6, &mut rng))
        .collect();
    // Root key out of bounds: every handler's checks fail immediately.
    let invalid: Vec<Value> = valid
        .iter()
        .map(|t| bst.tree_node(99, t.clone(), bst.leaf()))
        .collect();
    let measure = |set: &[Value]| {
        let start = Instant::now();
        let mut n = 0usize;
        while start.elapsed() < budget {
            for t in set {
                let _ = bst.derived_check(0, 24, t, 64);
                n += 1;
            }
        }
        n as f64 / start.elapsed().as_secs_f64()
    };
    Locality {
        valid_cps: measure(&valid),
        invalid_cps: measure(&invalid),
    }
}

/// Result of the lowering ablation.
#[derive(Clone, Copy, Debug)]
pub struct Lowering {
    /// Checks per second through the bytecode VM (default).
    pub compiled_cps: f64,
    /// Checks per second through the step interpreter (baseline).
    pub interpreted_cps: f64,
}

/// Measures the bytecode VM against plan interpretation on the
/// derived BST checker.
pub fn lowering(budget: Duration) -> Lowering {
    let bst = Bst::new();
    let mut rng = <rand::rngs::SmallRng as rand::SeedableRng>::seed_from_u64(33);
    let trees: Vec<Value> = (0..64)
        .map(|_| bst.handwritten_gen(0, 24, 6, &mut rng))
        .collect();
    let rel = bst.relation();
    let lib = bst.library().clone();
    let args: Vec<Vec<Value>> = trees
        .into_iter()
        .map(|t| vec![Value::nat(0), Value::nat(24), t])
        .collect();
    let measure = |interpreted: bool| {
        let start = Instant::now();
        let mut n = 0usize;
        while start.elapsed() < budget {
            for a in &args {
                let r = if interpreted {
                    lib.check_interpreted(rel, 64, 64, a)
                } else {
                    lib.check(rel, 64, 64, a)
                };
                std::hint::black_box(r);
                n += 1;
            }
        }
        n as f64 / start.elapsed().as_secs_f64()
    };
    Lowering {
        compiled_cps: measure(false),
        interpreted_cps: measure(true),
    }
}

/// Result of the lazy-enumeration ablation.
#[derive(Clone, Copy, Debug)]
pub struct Laziness {
    /// Enumerations per second taking only the first witness.
    pub first_ips: f64,
    /// Enumerations per second forcing the whole witness set.
    pub all_ips: f64,
}

/// Measures the payoff of lazy enumerator streams on a query with many
/// witnesses: enumerating `n` such that `le n 10` (11 witnesses; the
/// lazy consumer stops at the first).
pub fn enumeration_laziness(budget: Duration) -> Laziness {
    let (u, env) = indrel_corpus::corpus_env();
    let le = env.rel_id("le").expect("corpus relation");
    let mut b = indrel_core::LibraryBuilder::new(u, env);
    let mode = indrel_core::Mode::producer(2, &[0]);
    b.derive_producer(le, mode.clone())
        .expect("le producer derives");
    let lib = b.build();
    let bound = Value::nat(10);
    let measure = |force_all: bool| {
        let start = Instant::now();
        let mut n = 0usize;
        while start.elapsed() < budget {
            for _ in 0..16 {
                let s = lib.enumerate(le, &mode, 12, 12, std::slice::from_ref(&bound));
                if force_all {
                    let _ = std::hint::black_box(s.values());
                } else {
                    let _ = std::hint::black_box(s.first());
                }
                n += 1;
            }
        }
        n as f64 / start.elapsed().as_secs_f64()
    };
    Laziness {
        first_ips: measure(false),
        all_ips: measure(true),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use indrel_core::{DeriveOptions, LibraryBuilder};

    #[test]
    fn invalid_inputs_reject_faster() {
        let l = backtracking_locality(Duration::from_millis(40));
        assert!(
            l.invalid_cps > l.valid_cps,
            "early rejection should beat full traversal: {l:?}"
        );
    }

    #[test]
    fn first_witness_is_cheaper_than_all() {
        let l = enumeration_laziness(Duration::from_millis(60));
        assert!(
            l.first_ips > l.all_ips * 1.5,
            "lazy first() should clearly beat forcing all witnesses: {l:?}"
        );
    }

    #[test]
    fn lowering_agrees_and_is_competitive() {
        let l = lowering(Duration::from_millis(40));
        // Same verdicts are asserted in indrel-core's tests; here we
        // pin the performance claim: compiling is at least not a big
        // regression over interpretation.
        assert!(
            l.compiled_cps > l.interpreted_cps * 0.5,
            "compiled execution regressed badly: {l:?}"
        );
    }

    #[test]
    fn check_known_recursive_option_preserves_verdicts() {
        // Ablation 3: flipping the strategy for fully-instantiated
        // recursive premises must not change results.
        let (u, env) = indrel_corpus::corpus_env();
        let even = env.rel_id("ev").unwrap();
        let mut a = LibraryBuilder::with_options(
            u.clone(),
            env.clone(),
            DeriveOptions {
                check_known_recursive: true,
                ..DeriveOptions::default()
            },
        );
        a.derive_checker(even).unwrap();
        a.derive_producer(even, indrel_core::Mode::producer(1, &[0]))
            .unwrap();
        let a = a.build();
        let mut b = LibraryBuilder::new(u, env);
        b.derive_checker(even).unwrap();
        b.derive_producer(even, indrel_core::Mode::producer(1, &[0]))
            .unwrap();
        let b = b.build();
        for n in 0..20u64 {
            assert_eq!(
                a.check(even, 30, 30, &[Value::nat(n)]),
                b.check(even, 30, 30, &[Value::nat(n)])
            );
        }
        let ea: Vec<_> = a
            .enumerate(even, &indrel_core::Mode::producer(1, &[0]), 5, 5, &[])
            .values();
        let eb: Vec<_> = b
            .enumerate(even, &indrel_core::Mode::producer(1, &[0]), 5, 5, &[])
            .values();
        assert_eq!(ea, eb);
    }
}
