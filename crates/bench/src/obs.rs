//! Observability smoke benchmark: one mixed serving run with every
//! telemetry surface enabled, exported as a metrics snapshot
//! (`indrel.metrics/1`) and cross-checked for counter coherence.
//!
//! This is not a timing benchmark — perfbench (`perfbench/`) owns
//! every timing, unarmed probe overhead included. This harness
//! answers three questions the CI smoke job asks:
//!
//! 1. **Schema sanity** — the snapshot renders as a well-formed
//!    `indrel.metrics/1` document with the deterministic and
//!    wall-clock sections split.
//! 2. **Counter coherence** — the registry's `memo.*`/`serve.*` series
//!    agree exactly with the [`MemoStats`] the server reports; the two
//!    renderings share one source of truth, so any drift is a bug in
//!    the booking, not the workload.
//! 3. **Exact counts** — at one worker thread the deterministic
//!    section repeats byte for byte, so CI compares it with the
//!    committed `BENCH_obs.json`: a change that moves a step charge, a
//!    table lookup or a rule attempt shows there.
//!
//! The workload is the derived BST checker over a seeded corpus of
//! random in-bounds trees (so reruns serve the identical request list)
//! with a [`SearchStats`] probe armed on every worker, so the exported
//! snapshot also carries the per-rule and per-premise attribution
//! series.

use crate::memo::{derived_bst, gen_tree};
use indrel_core::{Budget, MemoStats, ServeConfig, Server, SharedLibrary};
use indrel_producers::{ExecProbe, MetricsSnapshot, SearchStats};
use indrel_term::{RelId, Value};
use rand::rngs::SmallRng;
use rand::SeedableRng;

const BST_FUEL: u64 = 64;
/// Distinct trees in the corpus; requests cycle through it, so smaller
/// values mean more memo reuse.
const DISTINCT_TREES: usize = 256;

/// The request corpus: `requests` single-tuple queries cycling through
/// `DISTINCT_TREES` random in-bounds trees (seeded, so every run
/// serves the identical request list).
fn request_corpus(requests: usize) -> (SharedLibrary, RelId, Vec<Vec<Value>>) {
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

/// One observability run: `requests` single-tuple checks served at
/// `threads` workers, each with a shared stats probe armed. Returns
/// the full metrics snapshot (registry + memo counters + attribution)
/// and the server's [`MemoStats`] for coherence checking.
pub fn run(requests: usize, threads: usize) -> (MetricsSnapshot, MemoStats) {
    let (shared, rel, corpus) = request_corpus(requests);
    let server = Server::new(
        shared,
        ServeConfig {
            max_inflight: threads.max(1) * 4,
            steps_per_request: 1_000_000,
            ..ServeConfig::default()
        },
        Budget::unlimited(),
    );
    let stats = SearchStats::new();
    std::thread::scope(|scope| {
        for t in 0..threads.max(1) {
            let (server, corpus, stats) = (&server, &corpus, &stats);
            scope.spawn(move || {
                let session = server.session();
                let _probe = session.library().arm_probe(ExecProbe::stats(stats));
                for args in corpus.iter().skip(t).step_by(threads.max(1)) {
                    let r = session.check_batch(rel, BST_FUEL, std::slice::from_ref(args));
                    assert!(
                        matches!(r[0], Ok(Some(_))),
                        "obs workload must decide: {:?}",
                        r[0]
                    );
                }
            });
        }
    });
    (server.snapshot_with_stats(&stats), server.stats())
}

/// Coherence check: every shared counter must appear identically in
/// the metrics snapshot and the [`MemoStats`] rendering. Returns one
/// message per mismatch (empty = coherent).
pub fn coherence_errors(snap: &MetricsSnapshot, stats: &MemoStats) -> Vec<String> {
    let mut errs = Vec::new();
    let counters = [
        ("memo.hits", stats.hits),
        ("memo.misses", stats.misses),
        ("memo.insertions", stats.insertions),
        ("memo.none_skipped", stats.none_skipped),
        ("memo.full_skipped", stats.full_skipped),
        ("serve.shed", stats.shed),
        ("serve.retries", stats.retries),
    ];
    for (name, want) in counters {
        match snap.counter(name) {
            Some(got) if got == want => {}
            got => errs.push(format!("counter {name}: snapshot {got:?} != stats {want}")),
        }
    }
    let gauges = [
        ("memo.entries", stats.entries as u64),
        ("memo.degraded_shards", stats.degraded_shards),
    ];
    for (name, want) in gauges {
        match snap.gauge(name) {
            Some(got) if got == want => {}
            got => errs.push(format!("gauge {name}: snapshot {got:?} != stats {want}")),
        }
    }
    errs
}

/// Schema sanity for the exported document (the CI smoke assertions,
/// callable from tests and the binary alike). Returns one message per
/// violation (empty = sane).
pub fn schema_errors(snap: &MetricsSnapshot) -> Vec<String> {
    let mut errs = Vec::new();
    let json = snap.to_json();
    if !json.starts_with("{\"schema\":\"indrel.metrics/1\"") {
        errs.push(format!(
            "missing schema header: {}",
            &json[..json.len().min(64)]
        ));
    }
    for key in [
        "\"deterministic\":",
        "\"wall_clock\":",
        "serve.requests",
        "serve.latency_ns",
    ] {
        if !json.contains(key) {
            errs.push(format!("missing {key} in snapshot"));
        }
    }
    if snap.deterministic_json().contains("latency") {
        errs.push("wall-clock series leaked into the deterministic section".to_string());
    }
    errs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn obs_run_is_coherent_and_schema_clean() {
        let (snap, stats) = run(64, 2);
        assert_eq!(coherence_errors(&snap, &stats), Vec::<String>::new());
        assert_eq!(schema_errors(&snap), Vec::<String>::new());
        assert_eq!(snap.counter("serve.requests"), Some(64));
        assert_eq!((stats.shed, stats.degraded_shards), (0, 0), "a clean run");
        assert!(stats.hits + stats.misses > 0, "the table is consulted");
        assert!(
            snap.counter("rule.bst.1.attempts").unwrap_or(0) > 0
                || snap.counter("rule.bst.0.attempts").unwrap_or(0) > 0,
            "attribution series present:\n{snap}"
        );
        let lat = snap.histogram("serve.latency_ns").unwrap();
        assert_eq!(lat.count, 64, "one latency sample per request");
        assert!(lat.quantile(0.5) > 0.0, "sub-microsecond latency resolves");
        assert!(lat.quantile(0.99) >= lat.quantile(0.5));
    }
}
