//! Instrumenting the STLC generator: the worked observability example.
//!
//! Arms a `SearchStats` probe (aggregate counters + histograms) and a
//! `TraceProbe` (bounded ring of raw events) on the STLC case-study
//! library, drives the derived well-typed-term generator, and prints
//! the telemetry: which typing rules fire, where unification fails,
//! how deep the search recurses, and how big the produced terms are.
//!
//! ```text
//! cargo run --example instrument_stlc
//! ```

use indrel::prelude::*;
use indrel::stlc::Stlc;
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn main() {
    let stlc = Stlc::new();
    let lib = stlc.library();

    // Arm both probes at once. The guard restores the previous (no-op)
    // probe when dropped, so instrumentation is strictly scoped.
    let stats = SearchStats::new();
    let trace = TraceProbe::new(32);
    {
        let _probe = lib.arm_probe(ExecProbe::both(&stats, &trace));
        let mut rng = SmallRng::seed_from_u64(0x57C);
        let mut generated = 0u32;
        for _ in 0..200 {
            let ty = stlc.random_ty(2, &mut rng);
            if stlc.derived_gen(&[], &ty, 5, &mut rng).is_some() {
                generated += 1;
            }
        }
        println!("derived_gen: {generated}/200 requests produced a term\n");
    }

    // The aggregate view: per-rule attempts/successes/backtracks, the
    // hottest unification-failure sites, and the search-shape
    // histograms.
    println!("{stats}");

    // The same data, machine-readable: a metrics snapshot, rendered as
    // `indrel.metrics/1` JSON (or `to_prometheus()` text).
    println!("\nstats as JSON (truncated):");
    let json = stats.snapshot().to_json();
    println!("  {}...", &json[..json.len().min(120)]);

    // The raw view: the last events of the search, one JSON object per
    // line — the ring kept the newest 32 and counted the rest dropped.
    println!("\nlast events ({} older ones dropped):", trace.dropped());
    for line in trace.to_json_lines().lines().take(8) {
        println!("  {line}");
    }

    // And the static side: what was derived for the typing relation.
    println!("\n{}", lib.explain(stlc.typing_relation()));
}
