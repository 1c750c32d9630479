//! The tabling benchmark: derived-checker corpus sweeps with the memo
//! table on vs off (see `indrel_bench::memo`).
//!
//! ```text
//! cargo run -p indrel-bench --release --bin memo
//! cargo run -p indrel-bench --release --bin memo -- --json [PATH]
//! ```
//!
//! `--json` writes the whole run as one `indrel.bench.memo/1` document
//! (default path `BENCH_memo.json`).
//!
//! Environment: `MEMO_PASSES` (timed sweeps per side, default 15).
//! The corpora are fixed, 1,024 BST trees (sweeps of a few
//! milliseconds, so medians resolve single-digit overhead percentages)
//! and 200 STLC terms, so each case's `calls` and `memo` counts repeat
//! at any pass count: only the timings vary between runs.

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut json_path: Option<String> = None;
    let mut it = args.iter().peekable();
    while let Some(a) = it.next() {
        if a == "--json" {
            let path = match it.peek() {
                Some(p) if !p.starts_with('-') => it.next().unwrap().clone(),
                _ => "BENCH_memo.json".to_string(),
            };
            json_path = Some(path);
        }
    }
    let passes = env_usize("MEMO_PASSES", 15);
    let cases = indrel_bench::memo::all_cases(1024, 200, passes);
    if let Some(path) = json_path {
        let doc = indrel_bench::memo::memo_json(&cases, passes);
        std::fs::write(&path, format!("{doc}\n")).expect("write JSON output");
        println!("wrote {path}");
        return;
    }
    println!("Tabling: best-of-{passes} sweep time, memo table off vs on");
    for c in &cases {
        println!("  {c}");
    }
}
