//! Serving benchmark: the concurrent request layer
//! ([`indrel_core::serve`]) driven at increasing worker-thread counts.
//!
//! The workload is the derived BST checker over a fixed corpus of
//! random in-bounds trees with keys in a small range, so queries repeat
//! and the sharded [`SharedMemo`](indrel_core::SharedMemo) earns hits
//! across threads — the serving analogue of the tabling benchmark's
//! speedup cases. Each request is one single-tuple
//! [`Session::check_batch`](indrel_core::Session::check_batch) call
//! (the one-query-per-RPC shape), timed individually, so the benchmark
//! reports both throughput (requests per second of wall clock) and the
//! per-request latency distribution (p50/p99).
//!
//! Every thread count runs the same request list on a fresh server
//! (cold shared table), split round-robin across workers; the reported
//! numbers come from the best-of-`passes` pass by wall clock, the same
//! estimator as the tabling benchmark. On a single-core host the
//! throughput curve is flat (≈1× at every thread count — see
//! `EXPERIMENTS.md`); the latency tail and the memo counters are the
//! portable signal.

use crate::memo::{derived_bst, gen_tree};
use indrel_core::{Budget, MemoStats, ServeConfig, Server, SharedLibrary};
use indrel_producers::json_escape;
use indrel_term::{RelId, Value};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::time::Instant;

pub(crate) const BST_FUEL: u64 = 64;
/// Distinct trees in the corpus; requests cycle through it, so smaller
/// values mean more cross-thread memo reuse.
const DISTINCT_TREES: usize = 256;

/// One thread-count measurement.
#[derive(Clone, Debug)]
pub struct ServeCase {
    /// Worker threads driving sessions against the one server.
    pub threads: usize,
    /// Requests served (all threads together).
    pub requests: usize,
    /// Wall milliseconds for the whole run (best pass).
    pub wall_ms: f64,
    /// Median per-request latency, nanoseconds (best pass).
    pub p50_ns: f64,
    /// 99th-percentile per-request latency, nanoseconds (best pass).
    pub p99_ns: f64,
    /// Server counters after the best pass (memo + shed/retries).
    pub stats: MemoStats,
}

impl ServeCase {
    /// Requests per second of wall-clock time.
    pub fn requests_per_second(&self) -> f64 {
        self.requests as f64 / (self.wall_ms / 1e3).max(1e-9)
    }
}

impl std::fmt::Display for ServeCase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "threads {:>2}   {:>9.0} req/s   p50 {:>8.0} ns   p99 {:>8.0} ns   \
             ({} hits / {} misses)",
            self.threads,
            self.requests_per_second(),
            self.p50_ns,
            self.p99_ns,
            self.stats.hits,
            self.stats.misses,
        )
    }
}

/// The request corpus: `requests` single-tuple queries cycling through
/// `DISTINCT_TREES` random in-bounds trees (seeded, so every pass and
/// every thread count serves the identical request list).
pub(crate) fn request_corpus(requests: usize) -> (SharedLibrary, RelId, Vec<Vec<Value>>) {
    let (lib, bst, leaf, node) = derived_bst();
    let mut rng = SmallRng::seed_from_u64(21);
    let trees: Vec<Value> = (0..DISTINCT_TREES)
        .map(|_| gen_tree(leaf, node, 0, 16, 6, &mut rng))
        .collect();
    let corpus: Vec<Vec<Value>> = (0..requests)
        .map(|i| {
            vec![
                Value::nat(0),
                Value::nat(16),
                trees[i % trees.len()].clone(),
            ]
        })
        .collect();
    (lib.shared(), bst, corpus)
}

/// One pass: a fresh server (cold shared table), `threads` workers each
/// serving its round-robin share of the corpus, one `check_batch` call
/// per request. Returns the wall milliseconds and how many requests
/// came back decided; per-request latency is not timed here — the
/// serving layer itself records every request into the server's
/// `serve.latency_ns` [`Log2Histogram`](indrel_producers::Log2Histogram),
/// which [`scaling`] reads the percentiles from.
fn serve_pass(
    shared: &SharedLibrary,
    rel: RelId,
    corpus: &[Vec<Value>],
    threads: usize,
) -> (Server, f64, usize) {
    let server = Server::new(
        shared.clone(),
        ServeConfig {
            // Sized so the benchmark exercises the fast path: no
            // shedding (capacity over the worker count) and no retries
            // (ample per-request steps for this fuel).
            max_inflight: threads.max(1) * 4,
            steps_per_request: 1_000_000,
            ..ServeConfig::default()
        },
        Budget::unlimited(),
    );
    let t0 = Instant::now();
    let decided = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let server = &server;
                scope.spawn(move || {
                    let session = server.session();
                    let mut decided = 0usize;
                    for args in corpus.iter().skip(t).step_by(threads) {
                        let r = session.check_batch(rel, BST_FUEL, std::slice::from_ref(args));
                        if matches!(r[0], Ok(Some(_))) {
                            decided += 1;
                        }
                    }
                    decided
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("serve worker panicked"))
            .sum()
    });
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    (server, wall_ms, decided)
}

/// Runs the corpus at each thread count, best-of-`passes` by wall
/// clock. Every request must come back decided (`Some` verdict) —
/// the benchmark refuses to time failures.
pub fn scaling(requests: usize, threads: &[usize], passes: usize) -> Vec<ServeCase> {
    let (shared, rel, corpus) = request_corpus(requests);
    // Untimed warm-up fills the type-enumeration caches.
    serve_pass(&shared, rel, &corpus[..corpus.len().min(32)], 1);
    threads
        .iter()
        .map(|&threads| {
            let mut best: Option<ServeCase> = None;
            for _ in 0..passes.max(1) {
                let (server, wall_ms, decided) = serve_pass(&shared, rel, &corpus, threads);
                assert_eq!(decided, corpus.len(), "every request must decide");
                if best.as_ref().is_none_or(|b| wall_ms < b.wall_ms) {
                    let lat = server
                        .snapshot()
                        .histogram("serve.latency_ns")
                        .expect("the serving layer records every request's latency")
                        .clone();
                    best = Some(ServeCase {
                        threads,
                        requests: corpus.len(),
                        wall_ms,
                        p50_ns: lat.quantile(0.5),
                        p99_ns: lat.quantile(0.99),
                        stats: server.stats(),
                    });
                }
            }
            best.expect("at least one pass")
        })
        .collect()
}

fn case_json(c: &ServeCase, base: f64) -> String {
    let rps = c.requests_per_second();
    format!(
        "{{\"threads\":{},\"requests\":{},\"wall_ms\":{:.3},\"req_per_sec\":{:.3},\
         \"speedup_vs_1\":{:.3},\"p50_ns\":{:.1},\"p99_ns\":{:.1},\
         \"memo\":{{\"degraded_shards\":{},\"entries\":{},\"hits\":{},\"misses\":{},\
         \"retries\":{},\"shed\":{}}}}}",
        c.threads,
        c.requests,
        c.wall_ms,
        rps,
        if base > 0.0 { rps / base } else { 0.0 },
        c.p50_ns,
        c.p99_ns,
        c.stats.degraded_shards,
        c.stats.entries,
        c.stats.hits,
        c.stats.misses,
        c.stats.retries,
        c.stats.shed,
    )
}

/// The whole benchmark as one JSON document (`indrel.bench.serve/2`):
/// per-thread-count throughput, latency percentiles, and serving
/// counters, plus the host core count needed to interpret the speedups.
pub fn serve_json(cases: &[ServeCase], passes: usize) -> String {
    let base = cases.first().map_or(0.0, ServeCase::requests_per_second);
    format!(
        "{{\"schema\":\"indrel.bench.serve/2\",\"workload\":\"{}\",\"fuel\":{BST_FUEL},\
         \"distinct_trees\":{DISTINCT_TREES},\"passes\":{passes},\"host_cores\":{},\
         \"cases\":[{}]}}",
        json_escape("bst-derived-checker-serve"),
        std::thread::available_parallelism().map_or(1, |k| k.get()),
        cases
            .iter()
            .map(|c| case_json(c, base))
            .collect::<Vec<_>>()
            .join(","),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_serves_every_request_and_earns_hits() {
        let cases = scaling(96, &[1, 2], 1);
        assert_eq!(cases.len(), 2);
        for c in &cases {
            assert_eq!(c.requests, 96);
            assert!(c.requests_per_second() > 0.0, "{c}");
            assert!(c.p99_ns >= c.p50_ns, "{c}");
            assert!(c.p50_ns > 0.0, "sub-microsecond latency resolves: {c}");
            assert_eq!(c.stats.degraded_shards, 0, "no chaos in the bench");
            assert_eq!(c.stats.shed, 0, "capacity covers the workers");
        }
        // 96 requests over 256 distinct trees may not repeat; reuse
        // comes from the subgoal level, which both counters see.
        assert!(
            cases.iter().all(|c| c.stats.hits + c.stats.misses > 0),
            "the shared table must be consulted"
        );
    }

    #[test]
    fn serve_json_has_schema_latencies_and_counters() {
        let cases = scaling(64, &[1, 2], 1);
        let j = serve_json(&cases, 1);
        assert!(j.starts_with("{\"schema\":\"indrel.bench.serve/2\""), "{j}");
        for key in [
            "\"threads\":1",
            "\"threads\":2",
            "\"p50_ns\"",
            "\"p99_ns\"",
            "\"speedup_vs_1\"",
            "\"host_cores\"",
            "\"memo\":{\"degraded_shards\":",
        ] {
            assert!(j.contains(key), "missing {key} in {j}");
        }
    }

    #[test]
    fn latency_percentiles_come_from_the_serve_histogram() {
        let (shared, rel, corpus) = request_corpus(48);
        let (server, _, decided) = serve_pass(&shared, rel, &corpus, 2);
        assert_eq!(decided, corpus.len());
        let snap = server.snapshot();
        let lat = snap
            .histogram("serve.latency_ns")
            .expect("serving layer records latency");
        assert_eq!(lat.count, corpus.len() as u64, "one sample per request");
        assert!(lat.quantile(0.99) >= lat.quantile(0.5));
    }
}
