//! The serving benchmark: concurrent sharded-memo sessions at
//! increasing thread counts (see `indrel_bench::serve`).
//!
//! ```text
//! cargo run -p indrel-bench --release --bin serve
//! cargo run -p indrel-bench --release --bin serve -- --json [PATH]
//! ```
//!
//! `--json` writes the whole run as one `indrel.bench.serve/2` document
//! (default path `BENCH_serve.json`).
//!
//! Environment: `SERVE_REQUESTS` (requests per thread count, default
//! 2048), `SERVE_PASSES` (passes per thread count, best wall clock
//! wins, default 3), `SERVE_MAX_THREADS` (top of the 1/2/4/8 doubling
//! ladder, default 8).

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
                _ => "BENCH_serve.json".to_string(),
            };
            json_path = Some(path);
        }
    }
    let requests = env_usize("SERVE_REQUESTS", 2048);
    let passes = env_usize("SERVE_PASSES", 3);
    let max_threads = env_usize("SERVE_MAX_THREADS", 8).max(1);
    let mut threads = vec![1usize];
    while *threads.last().unwrap() * 2 <= max_threads {
        threads.push(threads.last().unwrap() * 2);
    }
    let cases = indrel_bench::serve::scaling(requests, &threads, passes);
    if let Some(path) = json_path {
        let doc = indrel_bench::serve::serve_json(&cases, passes);
        std::fs::write(&path, format!("{doc}\n")).expect("write JSON output");
        println!("wrote {path}");
        return;
    }
    println!("Serving: {requests} requests per thread count, best of {passes} passes");
    for c in &cases {
        println!("  {c}");
    }
}
