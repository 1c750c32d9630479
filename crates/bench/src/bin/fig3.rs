//! Regenerates Figure 3: throughput of the QuickChick case studies
//! using handwritten or derived checkers (left) and generators (right).
//!
//! ```text
//! cargo run -p indrel-bench --release --bin fig3              # both sides
//! cargo run -p indrel-bench --release --bin fig3 -- checkers
//! cargo run -p indrel-bench --release --bin fig3 -- generators
//! cargo run -p indrel-bench --release --bin fig3 -- both --json [PATH]
//! ```
//!
//! `--json` additionally writes the whole figure — throughput, deltas,
//! and a `SearchStats` telemetry pass of `STATS_TESTS` tests per case —
//! as one machine-readable document (default path `BENCH_fig3.json`).
//! The telemetry pass is a pure function of its seeds, so everything
//! in it but `wall_ms` repeats at any `FIG3_BUDGET_MS`.
//!
//! Environment: `FIG3_BUDGET_MS` (wall-clock budget per throughput run,
//! default 1500).

use std::time::Duration;

/// Tests in each case's armed telemetry pass.
const STATS_TESTS: u64 = 2000;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut which = "both".to_string();
    let mut json_path: Option<String> = None;
    let mut it = args.iter().peekable();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--json" => {
                let path = match it.peek() {
                    Some(p) if !p.starts_with('-') => it.next().unwrap().clone(),
                    _ => "BENCH_fig3.json".to_string(),
                };
                json_path = Some(path);
            }
            other => which = other.to_string(),
        }
    }
    let budget = Duration::from_millis(
        std::env::var("FIG3_BUDGET_MS")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(1500),
    );
    if let Some(path) = json_path {
        let doc = indrel_bench::fig3::fig3_json(budget, STATS_TESTS);
        std::fs::write(&path, format!("{doc}\n")).expect("write JSON output");
        println!("wrote {path}");
        return;
    }
    if which == "checkers" || which == "both" {
        println!("Figure 3 (left): tests/second, handwritten vs derived checkers");
        println!("(paper deltas: BST -0.82%, IFC -0.51%, STLC -1.18%)");
        for r in indrel_bench::fig3::checkers(budget) {
            println!("  {r}");
        }
        println!();
    }
    if which == "generators" || which == "both" {
        println!("Figure 3 (right): tests/second, handwritten vs derived generators");
        println!("(paper deltas: BST -1.21%, STLC -1.74%)");
        for r in indrel_bench::fig3::generators(budget) {
            println!("  {r}");
        }
    }
}
