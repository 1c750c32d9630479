//! What one run reports: the metric tables, the result record written
//! under `perfbench/out/`, and the final one-line JSON result.

use crate::stats::{best_tenth, geomean, ratio, Case};
use crate::trace::Tracer;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

/// The end-to-end metrics every untraced run prints, with units. They
/// are workload-generic (an *op* is a PBT test, a served request or a
/// memoized check); the per-case figures behind them are the named
/// metrics of each workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "op/s"),
    ("op_p50_ns", "ns"),
    ("op_p99_ns", "ns"),
];

/// The per-layer metrics every traced run prints, with units. A layer
/// a workload bypasses reads 0 there.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("compile.build_ms.bst", "ms"),
    ("compile.build_ms.bst_derived", "ms"),
    ("compile.build_ms.ifc", "ms"),
    ("compile.build_ms.stlc", "ms"),
    ("pbt.gen_ns", "ns"),
    ("pbt.prop_ns", "ns"),
    ("pbt.runner_ns", "ns"),
    ("pbt.discard_ratio", "ratio"),
    ("hand.check_ns.bst", "ns"),
    ("hand.check_ns.ifc", "ns"),
    ("hand.check_ns.stlc", "ns"),
    ("exec.interp_check_ns", "ns"),
    ("lower.check_ns", "ns"),
    ("vm.check_ns", "ns"),
    ("vm.compiled_rels", "count"),
    ("exec.enum_ns", "ns"),
    ("exec.enum_outputs", "outputs/call"),
    ("exec.gen_ns", "ns"),
    ("exec.gen_none_ratio", "ratio"),
    ("meter.check_ns", "ns"),
    ("meter.steps_per_req", "steps/req"),
    ("term.fingerprint_ns", "ns"),
    ("term.input_size", "nodes"),
    ("memo.hit_ns", "ns"),
    ("memo.miss_ns", "ns"),
    ("memo.hit_ratio", "ratio"),
    ("memo.insertions", "count/sweep"),
    ("memo.entries", "count/sweep"),
    ("shared.lookup_ns", "ns"),
    ("shared.insert_ns", "ns"),
    ("shared.check_ns", "ns"),
    ("shared.hit_ratio", "ratio"),
    ("serve.admit_ns", "ns"),
    ("serve.batch_ns", "ns"),
    ("serve.shed", "count"),
    ("serve.retries", "count"),
    ("search.attempts_per_op", "count/op"),
    ("search.success_ratio", "ratio"),
    ("search.unify_fails_per_op", "count/op"),
    ("search.backtracks_per_op", "count/op"),
    ("search.enters.checker_per_op", "count/op"),
    ("search.enters.enumerator_per_op", "count/op"),
    ("search.enters.generator_per_op", "count/op"),
    ("trace.overhead_pct", "%"),
    ("error_rate", "ratio"),
];

/// Everything one run measured.
#[derive(Debug)]
pub struct Report {
    /// The workload name.
    pub workload: &'static str,
    /// The workload seed.
    pub seed: u64,
    /// Whether this is the traced run.
    pub traced: bool,
    /// Seconds per set-up repetition. `setup_s` is the median of the
    /// best tenth, like the case metrics (see [`crate::stats`]).
    pub setup: Vec<f64>,
    /// The measured cases, one per named throughput metric.
    pub cases: Vec<Case>,
    /// Named end-to-end metrics beyond the case throughputs (the
    /// serve latencies), with units.
    pub named: Vec<(&'static str, f64, &'static str)>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed: wrong verdicts, `None` verdicts, `Err`s
    /// (shed included) and crashes.
    pub failed: u64,
    /// The subset of `failed` that were wrong verdicts or generated
    /// values the handwritten checker rejects.
    pub wrong: u64,
    /// Descriptions of the first few failures.
    pub failures: Vec<String>,
    /// Per-layer metric values (traced runs).
    pub layers: BTreeMap<&'static str, f64>,
    /// Measured properties of the inputs that optimisations depend on.
    pub inputs: BTreeMap<&'static str, f64>,
    /// Further traced-run figures that are not per-layer metrics.
    pub detail: BTreeMap<&'static str, f64>,
    /// The traced run's spans.
    pub tracer: Option<Tracer>,
}

impl Report {
    /// An empty report.
    pub fn new(workload: &'static str, seed: u64, traced: bool) -> Report {
        Report {
            workload,
            seed,
            traced,
            setup: Vec::new(),
            cases: Vec::new(),
            named: Vec::new(),
            attempted: 0,
            failed: 0,
            wrong: 0,
            failures: Vec::new(),
            layers: BTreeMap::new(),
            inputs: BTreeMap::new(),
            detail: BTreeMap::new(),
            tracer: None,
        }
    }

    /// Counts `n` attempted operations.
    pub fn attempt(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Counts one failed operation; `wrong` marks a wrong verdict.
    pub fn fail(&mut self, wrong: bool, what: impl FnOnce() -> String) {
        self.failed += 1;
        if wrong {
            self.wrong += 1;
        }
        if self.failures.len() < 8 {
            self.failures.push(what());
        }
    }

    /// Sets a per-layer metric (must be one of [`PER_LAYER`]).
    pub fn layer(&mut self, name: &'static str, value: f64) {
        debug_assert!(PER_LAYER.iter().any(|(n, _)| *n == name), "{name}");
        self.layers.insert(name, value);
    }

    /// The end-to-end metric values, in [`END_TO_END`] order.
    pub fn end_to_end(&self) -> Vec<f64> {
        let g = |f: fn(&Case) -> f64| geomean(&self.cases.iter().map(f).collect::<Vec<_>>());
        vec![
            best_tenth(&self.setup, false),
            g(Case::rate),
            g(Case::p50_ns),
            g(Case::p99_ns),
        ]
    }

    /// Failed over attempted.
    pub fn error_rate(&self) -> f64 {
        ratio(self.failed as f64, self.attempted as f64)
    }

    /// Prints the human-readable tables, writes the result record (and
    /// the spans, when traced) under `out_dir`, and prints the final
    /// one-line JSON result. Returns whether every verdict was right.
    pub fn finish(mut self, out_dir: &Path) -> bool {
        let correct = self.wrong == 0;
        self.layers.insert("error_rate", self.error_rate());
        let metrics: Vec<(&str, f64, &str)> = if self.traced {
            PER_LAYER
                .iter()
                .map(|&(n, u)| (n, self.layers.get(n).copied().unwrap_or(0.0), u))
                .collect()
        } else {
            END_TO_END
                .iter()
                .zip(self.end_to_end())
                .map(|(&(n, u), v)| (n, v, u))
                .collect()
        };
        let named = self.named_metrics();

        println!(
            "== {} seed {} ({}) ==",
            self.workload,
            self.seed,
            if self.traced { "traced" } else { "untraced" }
        );
        for (n, v, u, samples) in &named {
            println!("  {n:<24} {:>16} {u:<10} (n={samples})", human(*v));
        }
        for (k, v) in &self.inputs {
            println!("  input {k:<26} {:>16}", human(*v));
        }
        for (k, v) in &self.detail {
            println!("  detail {k:<25} {:>16}", human(*v));
        }
        println!(
            "  -- {} --",
            if self.traced {
                "per-layer"
            } else {
                "end-to-end"
            }
        );
        for (n, v, u) in &metrics {
            println!("  {n:<32} {:>16} {u}", human(*v));
        }
        for f in &self.failures {
            println!("  FAILURE {f}");
        }

        let stem = format!(
            "{}-seed{}-trace{}",
            self.workload,
            self.seed,
            u8::from(self.traced)
        );
        let record = self.record_json(&metrics, &named, correct);
        let written = std::fs::create_dir_all(out_dir)
            .and_then(|()| std::fs::write(out_dir.join(format!("{stem}.json")), record))
            .and_then(|()| match &self.tracer {
                Some(t) => t.write(&out_dir.join(format!("{stem}.spans.jsonl"))),
                None => Ok(()),
            });
        if let Err(e) = written {
            eprintln!("perfbench: could not write the result record: {e}");
        }

        println!(
            "{}",
            result_line(correct, self.attempted, self.failed, &metrics)
        );
        correct
    }

    /// The workload's named end-to-end metrics: each case throughput,
    /// the extra named figures, `setup_s` and `error_rate`, with units
    /// and sample counts.
    fn named_metrics(&self) -> Vec<(&'static str, f64, &'static str, usize)> {
        let mut out: Vec<_> = self
            .cases
            .iter()
            .map(|c| (c.name, c.rate(), c.unit, c.chunks()))
            .collect();
        let chunks = self.cases.iter().map(Case::chunks).sum();
        out.extend(self.named.iter().map(|&(n, v, u)| (n, v, u, chunks)));
        out.push((
            "setup_s",
            best_tenth(&self.setup, false),
            "s",
            self.setup.len(),
        ));
        out.push((
            "error_rate",
            self.error_rate(),
            "ratio",
            self.attempted as usize,
        ));
        out
    }

    fn record_json(
        &self,
        metrics: &[(&str, f64, &str)],
        named: &[(&str, f64, &str, usize)],
        correct: bool,
    ) -> String {
        let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".into());
        let mut s = String::new();
        let _ = write!(
            s,
            "{{\"schema\":\"indrel.perfbench/1\",\"workload\":\"{}\",\"seed\":{},\"traced\":{},\
             \"correct\":{},\"attempted\":{},\"failed\":{},\"wrong\":{},",
            self.workload, self.seed, self.traced, correct, self.attempted, self.failed, self.wrong
        );
        let _ = write!(
            s,
            "\"provenance\":{{\"host_cores\":{},\"rustc\":{},\"profile\":{},\"commit\":{},\
             \"source_sha256\":{},\"debug_assertions\":{}}},",
            std::thread::available_parallelism().map_or(1, |n| n.get()),
            json_str(&env("PERFBENCH_RUSTC")),
            json_str(&env("PERFBENCH_PROFILE")),
            json_str(&env("PERFBENCH_COMMIT")),
            json_str(&env("PERFBENCH_SOURCE_SHA256")),
            cfg!(debug_assertions)
        );
        let _ = write!(
            s,
            "\"inputs\":{{{}}},",
            kv(self.inputs.iter().map(|(k, v)| (*k, *v)))
        );
        let _ = write!(
            s,
            "\"detail\":{{{}}},",
            kv(self.detail.iter().map(|(k, v)| (*k, *v)))
        );
        if let Some(t) = &self.tracer {
            let spans: Vec<String> = t
                .totals()
                .iter()
                .map(|(name, st)| {
                    format!(
                        "\"{name}\":{{\"count\":{},\"mean_self_ns\":{}}}",
                        st.count,
                        num(st.mean_ns())
                    )
                })
                .collect();
            let _ = write!(s, "\"span_self_time\":{{{}}},", spans.join(","));
        }
        let named_json: Vec<String> = named
            .iter()
            .map(|(n, v, u, k)| {
                format!(
                    "\"{n}\":{{\"value\":{},\"unit\":\"{u}\",\"n\":{k}}}",
                    num(*v)
                )
            })
            .collect();
        let _ = write!(s, "\"named\":{{{}}},", named_json.join(","));
        let cases: Vec<String> = self
            .cases
            .iter()
            .map(|c| {
                let [rates, p50, p99] = c
                    .samples()
                    .map(|xs| xs.iter().map(|v| num(*v)).collect::<Vec<_>>().join(","));
                format!(
                    "\"{}\":{{\"ops\":{},\"chunks\":{},\"rate\":{},\"rate_iqr_over_median\":{},\
                     \"p50_ns\":{},\"p99_ns\":{},\"samples\":{{\"rate\":[{rates}],\
                     \"p50_ns\":[{p50}],\"p99_ns\":[{p99}]}}}}",
                    c.name,
                    c.ops,
                    c.chunks(),
                    num(c.rate()),
                    num(c.rate_spread()),
                    num(c.p50_ns()),
                    num(c.p99_ns()),
                )
            })
            .collect();
        let _ = write!(s, "\"cases\":{{{}}},", cases.join(","));
        let samples: Vec<String> = self.setup.iter().map(|v| num(*v)).collect();
        let _ = write!(s, "\"setup_s_samples\":[{}],", samples.join(","));
        let failures: Vec<String> = self.failures.iter().map(|f| json_str(f)).collect();
        let _ = write!(s, "\"failures\":[{}],", failures.join(","));
        s.push_str(&metrics_json(metrics));
        s.push('}');
        s
    }
}

/// The final result line: exactly `correct`, `attempted`, `failed` and
/// `metrics`.
fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, f64, &str)],
) -> String {
    format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{failed},{}}}",
        attempted.max(1),
        metrics_json(metrics)
    )
}

fn metrics_json(metrics: &[(&str, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| format!("\"{n}\":{{\"value\":{},\"unit\":\"{u}\"}}", num(*v)))
        .collect();
    format!("\"metrics\":{{{}}}", body.join(","))
}

fn kv<'a>(pairs: impl Iterator<Item = (&'a str, f64)>) -> String {
    pairs
        .map(|(k, v)| format!("\"{k}\":{}", num(v)))
        .collect::<Vec<_>>()
        .join(",")
}

/// A value for the human-readable tables: three decimals, or six
/// significant digits below 1.
fn human(v: f64) -> String {
    if v.abs() < 1.0 && v != 0.0 {
        format!("{v:.6}")
    } else {
        format!("{v:.3}")
    }
}

/// A JSON number with every digit Rust's shortest round-trip printing
/// gives (non-finite values become 0).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".into()
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let line = result_line(true, 10, 0, &[("setup_s", 0.5, "s")]);
        assert_eq!(
            line,
            "{\"correct\":true,\"attempted\":10,\"failed\":0,\
             \"metrics\":{\"setup_s\":{\"value\":0.5,\"unit\":\"s\"}}}"
        );
    }

    #[test]
    fn numbers_keep_their_digits() {
        assert_eq!(num(1.0 / 3.0), "0.3333333333333333");
        assert_eq!(num(f64::NAN), "0.0");
        assert_eq!(json_str("a\"b\n"), "\"a\\\"b\\u000a\"");
    }

    #[test]
    fn metric_names_are_unique() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|(n, _)| *n)
            .collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before);
    }
}
