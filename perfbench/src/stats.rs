//! Order statistics and the per-case sample store.
//!
//! Each sample is one *chunk*: a block of at least a thousand
//! operations timed as a whole (throughput) and op by op (latency
//! percentiles). On a shared host, other tenants slow the machine down
//! in plateaus lasting from a second to half a minute, and that noise
//! only ever adds time. So throughput and p50 report the median of the
//! *best tenth* of chunks, which repeats across runs where the
//! all-chunk median follows whichever plateaus a run overlapped. The
//! p99 reports the median over all chunks: a chunk's p99 is set by its
//! ten slowest ops, which depend on the inputs the chunk drew, and the
//! best tenth of those picks the chunks with the easiest inputs. The
//! per-chunk samples are kept in the result record (see
//! `perfbench/README.md` for the measurements behind this choice).

use std::time::Duration;

/// The `q`-quantile of `xs` by linear interpolation between closest
/// ranks (0 for an empty slice). Sorts `xs` in place.
pub fn quantile(xs: &mut [f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(f64::total_cmp);
    let pos = q * (xs.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    xs[lo] + (xs[hi] - xs[lo]) * (pos - lo as f64)
}

/// The median of `xs` (0 for an empty slice).
pub fn median(xs: &[f64]) -> f64 {
    quantile(&mut xs.to_vec(), 0.5)
}

/// The geometric mean of positive values (0 if any is not positive).
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() || xs.iter().any(|&x| x <= 0.0 || x.is_nan()) {
        return 0.0;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// `part / whole`, or 0 when `whole` is 0.
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        part / whole
    }
}

/// The median of the best tenth (at least one) of `xs`: the largest
/// values when `higher_is_better`, else the smallest.
pub fn best_tenth(xs: &[f64], higher_is_better: bool) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    if higher_is_better {
        v.reverse();
    }
    v.truncate(v.len().div_ceil(10));
    median(&v)
}

/// The percentile of a sorted latency sample, by nearest rank.
fn percentile_ns(sorted: &[u64], q: f64) -> f64 {
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1] as f64
}

/// The samples of one measured case (one row of the workload): per
/// chunk, its throughput and its p50 and p99 op latency.
#[derive(Debug)]
pub struct Case {
    /// The end-to-end metric name the case's throughput is reported as.
    pub name: &'static str,
    /// The throughput unit, e.g. `tests/s`.
    pub unit: &'static str,
    /// Operations across all chunks.
    pub ops: u64,
    rates: Vec<f64>,
    p50: Vec<f64>,
    p99: Vec<f64>,
}

impl Case {
    /// An empty case.
    pub fn new(name: &'static str, unit: &'static str) -> Case {
        Case {
            name,
            unit,
            ops: 0,
            rates: Vec::new(),
            p50: Vec::new(),
            p99: Vec::new(),
        }
    }

    /// Records one chunk: `ops` operations in `elapsed`, with the
    /// per-op latencies in `lat_ns` (sorted here, then cleared). A
    /// chunk needs at least 1000 latencies, so that its p99 has ten
    /// samples beyond it.
    pub fn record_chunk(&mut self, ops: u64, elapsed: Duration, lat_ns: &mut Vec<u64>) {
        assert!(
            lat_ns.len() >= 1000,
            "{}: a chunk needs at least 1000 ops, got {}",
            self.name,
            lat_ns.len()
        );
        lat_ns.sort_unstable();
        self.ops += ops;
        self.rates
            .push(ops as f64 / elapsed.as_secs_f64().max(1e-9));
        self.p50.push(percentile_ns(lat_ns, 0.50));
        self.p99.push(percentile_ns(lat_ns, 0.99));
        lat_ns.clear();
    }

    /// Chunks recorded.
    pub fn chunks(&self) -> usize {
        self.rates.len()
    }

    /// Throughput: the median of the best tenth of chunk throughputs.
    pub fn rate(&self) -> f64 {
        best_tenth(&self.rates, true)
    }

    /// Median op latency: the median of the best tenth of chunk p50s.
    pub fn p50_ns(&self) -> f64 {
        best_tenth(&self.p50, false)
    }

    /// Tail op latency: the median of the chunk p99s.
    pub fn p99_ns(&self) -> f64 {
        median(&self.p99)
    }

    /// The per-chunk samples: throughput, p50 and p99.
    pub fn samples(&self) -> [&[f64]; 3] {
        [&self.rates, &self.p50, &self.p99]
    }

    /// Interquartile range of the chunk throughputs over their median.
    pub fn rate_spread(&self) -> f64 {
        let mut r = self.rates.clone();
        let (q1, q3) = (quantile(&mut r, 0.25), quantile(&mut r, 0.75));
        ratio(q3 - q1, median(&self.rates))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let mut xs = vec![4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&mut xs, 0.5), 2.5);
        assert_eq!(quantile(&mut xs, 0.0), 1.0);
        assert_eq!(quantile(&mut xs, 1.0), 4.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn geomean_of_equal_values_is_the_value() {
        assert!((geomean(&[3.0, 3.0, 3.0]) - 3.0).abs() < 1e-12);
        assert_eq!(geomean(&[1.0, 0.0]), 0.0);
    }

    #[test]
    fn best_tenth_takes_the_median_of_the_best_values() {
        let xs: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(best_tenth(&xs, true), 19.5);
        assert_eq!(best_tenth(&xs, false), 1.5);
        assert_eq!(best_tenth(&[7.0], true), 7.0);
    }

    #[test]
    fn chunk_percentiles_use_nearest_rank() {
        let mut c = Case::new("x", "op/s");
        let mut lat: Vec<u64> = (1..=1000).rev().collect();
        c.record_chunk(1000, Duration::from_millis(1), &mut lat);
        assert!(lat.is_empty());
        assert_eq!(c.p50_ns(), 500.0);
        assert_eq!(c.p99_ns(), 990.0);
        assert!((c.rate() - 1e6).abs() < 1e-3);
    }
}
