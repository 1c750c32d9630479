//! The observability smoke benchmark: one serving run with a stats
//! probe armed, exported as an `indrel.metrics/1` snapshot and
//! cross-checked for counter coherence (see `indrel_bench::obs`).
//!
//! ```text
//! cargo run -p indrel-bench --release --bin obs
//! cargo run -p indrel-bench --release --bin obs -- --json [PATH]
//! ```
//!
//! `--json` writes the snapshot as one `indrel.metrics/1` document
//! (default path `BENCH_obs.json`); without it, the Prometheus text
//! exposition is printed. Either way the process exits non-zero if the
//! schema or counter-coherence checks fail.
//!
//! The run is fixed at 512 requests on one worker thread, where the
//! snapshot's `deterministic` section repeats byte for byte (at more
//! threads the shared table's interleaving moves the memo and search
//! counters). CI compares that section with the committed
//! `BENCH_obs.json`.

const REQUESTS: usize = 512;
const THREADS: usize = 1;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut json_path: Option<String> = None;
    let mut it = args.iter().peekable();
    while let Some(a) = it.next() {
        if a == "--json" {
            let path = match it.peek() {
                Some(p) if !p.starts_with('-') => it.next().unwrap().clone(),
                _ => "BENCH_obs.json".to_string(),
            };
            json_path = Some(path);
        }
    }
    let (snap, stats) = indrel_bench::obs::run(REQUESTS, THREADS);
    let mut errors = indrel_bench::obs::schema_errors(&snap);
    errors.extend(indrel_bench::obs::coherence_errors(&snap, &stats));
    if let Some(path) = &json_path {
        std::fs::write(path, format!("{}\n", snap.to_json())).expect("write JSON output");
        println!("wrote {path}");
    } else {
        println!(
            "Observability smoke: {REQUESTS} requests at {THREADS} thread\n\n{}",
            snap.to_prometheus()
        );
    }
    if errors.is_empty() {
        println!("schema + coherence: ok");
    } else {
        for e in &errors {
            eprintln!("obs check failed: {e}");
        }
        std::process::exit(1);
    }
}
