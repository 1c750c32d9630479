//! Property: **every schedule the planner emits is mode-admissible** —
//! however the static scheduler hoists premises, no step of any
//! compiled checker plan consumes a variable before something bound
//! it, and every handler's outputs are fully known at the end
//! ([`check_plan_admissible`]).
//!
//! The fuzz loop generates small random specs from a fixed-seed
//! xorshift stream, derives their checkers with the derive-time
//! schedules every library ships, and re-checks the invariant from the
//! plan alone. Specs the deriver rejects are recorded as skips, never
//! failures.

use indrel_core::compat::check_plan_admissible;
use indrel_core::LibraryBuilder;
use indrel_rel::parse::parse_program;
use indrel_rel::RelEnv;
use indrel_term::Universe;

/// Deterministic xorshift64* stream — the whole test is a pure
/// function of `SEED`.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn pick<'a>(&mut self, xs: &[&'a str]) -> &'a str {
        xs[self.below(xs.len() as u64) as usize]
    }
}

const SEED: u64 = 0x1DEA5C0DE;
const CASES: usize = 120;

/// One random spec: a fixed derivable base relation `r0` plus a
/// random target `r1` whose rules draw premises over both, with
/// argument shapes that exercise equality checks, constructor
/// patterns, and (sometimes) existential variables the compiler must
/// produce. Returns the DSL text.
fn random_spec(rng: &mut Rng) -> String {
    let mut s = String::from(
        "rel r0 : nat nat :=\n\
         | z : forall n, r0 n n\n\
         | s : forall n m, r0 n m -> r0 n (S m)\n\
         .\n\
         rel r1 : nat nat :=\n",
    );
    let n_rules = 1 + rng.below(2);
    for rule in 0..n_rules {
        let n_premises = 1 + rng.below(3);
        // `k` is existential: it appears in no conclusion, so checker
        // mode must schedule a producing step for it before any
        // premise that consumes it.
        let use_k = rng.below(3) == 0;
        let vars = if use_k { "n m k" } else { "n m" };
        let mut prems = Vec::new();
        for _ in 0..n_premises {
            let rel = if rng.below(4) == 0 { "r1" } else { "r0" };
            let var_pool: &[&str] = if use_k {
                &["n", "m", "k", "0"]
            } else {
                &["n", "m", "0"]
            };
            let a = rng.pick(var_pool);
            let b = rng.pick(var_pool);
            let a = match rng.below(3) {
                0 => format!("(S {a})"),
                _ => a.to_string(),
            };
            prems.push(format!("{rel} {a} {b}"));
        }
        let c1 = rng.pick(&["n", "(S n)"]);
        let c2 = rng.pick(&["m", "(S m)", "0"]);
        s.push_str(&format!(
            "| q{rule} : forall {vars}, {} -> r1 {c1} {c2}\n",
            prems.join(" -> ")
        ));
    }
    s.push_str(".\n");
    s
}

/// Asserts the admissibility invariant on every compiled checker plan
/// in the builder.
fn assert_all_admissible(b: &LibraryBuilder, spec: &str) {
    let rels: Vec<_> = b.env().iter().map(|(rel, _)| rel).collect();
    for rel in rels {
        if let Some(plan) = b.checker_plan(rel) {
            if let Err(e) = check_plan_admissible(plan) {
                panic!(
                    "inadmissible schedule for {}: {e}\nspec:\n{spec}",
                    b.env().relation(rel).name()
                );
            }
        }
    }
}

#[test]
fn every_planner_schedule_is_mode_admissible() {
    let mut rng = Rng(SEED);
    let mut derived = 0usize;
    let mut skipped = 0usize;
    for _ in 0..CASES {
        let spec = random_spec(&mut rng);
        let mut u = Universe::new();
        let mut env = RelEnv::new();
        parse_program(&mut u, &mut env, &spec)
            .unwrap_or_else(|e| panic!("generated spec must parse: {e}\n{spec}"));
        let r1 = env.rel_id("r1").unwrap();
        let mut b = LibraryBuilder::new(u, env);
        if b.derive_checker(r1).is_err() {
            // Outside the derivable class (e.g. an existential the
            // compiler cannot produce) — a skip, not a failure.
            skipped += 1;
            continue;
        }
        derived += 1;
        assert_all_admissible(&b, &spec);
    }
    // The generator must actually exercise the deriver: most specs
    // stay inside the derivable class.
    assert!(
        derived >= CASES / 2,
        "generator drifted out of the derivable class: {derived} derived, {skipped} skipped"
    );
}
