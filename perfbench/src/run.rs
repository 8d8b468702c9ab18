//! What one benchmark run collects, and how it becomes the end-to-end
//! metrics, the result record and the final result line.

use crate::expect::Tally;
use crate::layers::{Layers, LAYER_METRICS};
use crate::stats::{geomean, median, tail};
use hh_serve::json::Json;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// The end-to-end metrics, as declared in `BENCHMARK.json`:
/// `(name, unit, better)`.
pub const END_TO_END: &[(&str, &str, &str)] = &[
    ("setup_s", "s", "lower"),
    ("pass_s", "s", "lower"),
    ("geomean_s", "s", "lower"),
    ("requests_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
];

/// One measured operation.
#[derive(Debug, Clone, Copy)]
pub struct Op {
    /// What it was: a design name (batch) or a request kind (serve).
    pub item: &'static str,
    /// Wall seconds.
    pub secs: f64,
}

/// Everything one run collects.
#[derive(Debug)]
pub struct Run {
    /// Workload name.
    pub workload: String,
    /// Workload seed.
    pub seed: u64,
    /// Whether this is the traced run.
    pub trace: bool,
    /// Engine worker threads.
    pub threads: usize,
    /// Directory for bundles and daemon state, removed at the end.
    pub scratch: PathBuf,
    /// Set-up durations (seconds).
    pub setup: Vec<f64>,
    /// Untraced pass durations (seconds).
    pub passes: Vec<f64>,
    /// Traced pass durations (seconds).
    pub traced_passes: Vec<f64>,
    /// Untraced operations.
    pub ops: Vec<Op>,
    /// Items that `geomean_s` averages over (every item when empty).
    pub geomean_items: Vec<&'static str>,
    /// Verdict tally.
    pub tally: Tally,
    /// Per-layer values of the first traced pass.
    pub layers: Option<Layers>,
    /// Peak RSS over the measured window, set-up excluded (MB).
    pub peak_rss_mb: f64,
    /// Free-form lines printed with the table.
    pub notes: Vec<String>,
}

impl Run {
    /// A run with nothing measured yet.
    pub fn new(workload: &str, seed: u64, trace: bool, scratch: PathBuf) -> Run {
        Run {
            workload: workload.to_string(),
            seed,
            trace,
            threads: 0,
            scratch,
            setup: Vec::new(),
            passes: Vec::new(),
            traced_passes: Vec::new(),
            ops: Vec::new(),
            geomean_items: Vec::new(),
            tally: Tally::default(),
            layers: None,
            peak_rss_mb: 0.0,
            notes: Vec::new(),
        }
    }

    /// Runs set-up `repeats` times, timing each, and keeps the last result
    /// (`setup_s` is the median).
    pub fn setup<T>(&mut self, repeats: usize, mut f: impl FnMut() -> T) -> T {
        let mut last = None;
        for _ in 0..repeats {
            drop(last.take());
            let t0 = Instant::now();
            last = Some(f());
            self.setup.push(t0.elapsed().as_secs_f64());
        }
        crate::host::start_peak_rss_window();
        last.expect("set-up ran at least once")
    }

    /// Times `repeats` more set-ups and discards their results. A batch
    /// set-up takes about a millisecond, and on a 2-vCPU VM the speed of
    /// such short work shifts by up to half between phases that last about
    /// a second; set-up samples spread over the whole run keep the median
    /// from landing on whichever phase the run started in.
    pub fn resample_setup<T>(&mut self, repeats: usize, mut f: impl FnMut() -> T) {
        for _ in 0..repeats {
            let t0 = Instant::now();
            let out = f();
            self.setup.push(t0.elapsed().as_secs_f64());
            drop(out);
        }
    }

    /// Marks the end of the measured window (before off-clock checks).
    pub fn measured_done(&mut self) {
        self.peak_rss_mb = crate::host::peak_rss_mb().unwrap_or(0.0);
    }

    /// Adds a line to the printed notes.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Per-item latencies of the untraced operations.
    pub fn by_item(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for op in &self.ops {
            out.entry(op.item).or_default().push(op.secs);
        }
        out
    }

    /// The end-to-end metrics, in [`END_TO_END`] order.
    pub fn end_to_end(&self) -> Vec<(&'static str, &'static str, f64)> {
        let by_item = self.by_item();
        let medians: Vec<f64> = by_item
            .iter()
            .filter(|(item, _)| self.geomean_items.is_empty() || self.geomean_items.contains(item))
            .filter_map(|(_, xs)| median(xs))
            .collect();
        let measured: f64 = self.passes.iter().sum();
        let value = |name: &str| -> f64 {
            match name {
                "setup_s" => median(&self.setup).unwrap_or(0.0),
                "pass_s" => median(&self.passes).unwrap_or(0.0),
                "geomean_s" => geomean(&medians).unwrap_or(0.0),
                "requests_per_s" if measured > 0.0 => self.ops.len() as f64 / measured,
                "peak_rss_mb" => self.peak_rss_mb,
                _ => 0.0,
            }
        };
        END_TO_END
            .iter()
            .map(|&(name, unit, _)| (name, unit, value(name)))
            .collect()
    }

    /// The per-layer metrics of the traced run.
    pub fn per_layer(&self) -> Vec<(&'static str, &'static str, f64)> {
        let layers = self.layers.clone().unwrap_or_default();
        LAYER_METRICS
            .iter()
            .map(|m| (m.name, m.unit, layers.get(m.name)))
            .collect()
    }

    /// Sample counts behind each reported figure (per-item counts are the
    /// lengths of [`Run::latencies`]).
    pub fn samples(&self) -> Json {
        Json::obj(vec![
            ("setup", Json::Int(self.setup.len() as i64)),
            ("passes", Json::Int(self.passes.len() as i64)),
            ("traced_passes", Json::Int(self.traced_passes.len() as i64)),
            ("ops", Json::Int(self.ops.len() as i64)),
        ])
    }

    /// Every untraced operation's latency (seconds), in run order, per
    /// item: the raw samples behind the medians.
    pub fn latencies(&self) -> Json {
        Json::Obj(
            self.by_item()
                .into_iter()
                .map(|(item, xs)| {
                    let xs = xs.into_iter().map(Json::Float).collect();
                    (item.to_string(), Json::Arr(xs))
                })
                .collect(),
        )
    }

    /// The human-readable table: per-item latency distributions, the
    /// end-to-end metrics and the failures.
    pub fn table(&self, metrics: &[(&'static str, &'static str, f64)]) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "workload {} seed {} threads {} trace {}",
            self.workload, self.seed, self.threads, self.trace as u8
        );
        let _ = writeln!(
            out,
            "  {:<16} {:>5} {:>12} {:>12} {:>14}",
            "item", "n", "p50 ms", "max ms", "tail ms (pct)"
        );
        for (item, xs) in self.by_item() {
            let p50 = median(&xs).unwrap_or(0.0) * 1e3;
            let max = xs.iter().copied().fold(0.0, f64::max) * 1e3;
            let tail = match tail(&xs) {
                Some((pct, v)) => format!("{:.1} (p{pct:.0})", v * 1e3),
                None => "-".to_string(),
            };
            let _ = writeln!(
                out,
                "  {:<16} {:>5} {:>12.1} {:>12.1} {:>14}",
                item,
                xs.len(),
                p50,
                max,
                tail
            );
        }
        for (name, unit, v) in metrics {
            let _ = writeln!(out, "  {name:<24} {v:>14.4} {unit}");
        }
        let _ = writeln!(
            out,
            "  fail_frac {} ({} of {} operations failed)",
            self.tally.fail_frac(),
            self.tally.failed,
            self.tally.attempted
        );
        for line in self.notes.iter().chain(&self.tally.notes) {
            let _ = writeln!(out, "  {line}");
        }
        out
    }
}

/// A permutation of `0..n` drawn from `seed` and `round` (SplitMix64 into
/// a Fisher-Yates shuffle): the same seed gives the same orders.
pub fn shuffled(n: usize, seed: u64, round: u64) -> Vec<usize> {
    let mut state = seed ^ round.wrapping_mul(0xA076_1D64_78BD_642F);
    let mut next = || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let mut v: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        v.swap(i, j);
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let a = shuffled(10, 7, 0);
        let mut sorted = a.clone();
        sorted.sort();
        assert_eq!(sorted, (0..10).collect::<Vec<_>>());
        assert_eq!(a, shuffled(10, 7, 0));
        assert!((0..8).any(|r| shuffled(10, 7, r) != a));
    }

    #[test]
    fn end_to_end_from_samples() {
        let mut run = Run::new("w", 1, false, PathBuf::new());
        run.setup = vec![0.3, 0.1, 0.2];
        run.passes = vec![2.0, 4.0];
        for (item, secs) in [("a", 1.0), ("b", 4.0), ("a", 1.0), ("b", 4.0), ("c", 9.0)] {
            run.ops.push(Op { item, secs });
        }
        run.geomean_items = vec!["a", "b"];
        let m: BTreeMap<_, _> = run
            .end_to_end()
            .into_iter()
            .map(|(n, _, v)| (n, v))
            .collect();
        assert_eq!(m["setup_s"], 0.2);
        assert_eq!(m["pass_s"], 3.0);
        assert!(
            (m["geomean_s"] - 2.0).abs() < 1e-12,
            "c is not a geomean item"
        );
        assert!((m["requests_per_s"] - 5.0 / 6.0).abs() < 1e-12);
    }
}
