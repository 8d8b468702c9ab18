//! Per-layer metrics of the traced run.
//!
//! The traced run drives one operation of a workload through the layers'
//! public functions and times each call from here, in the benchmark's own
//! code. Layers below the engine are read from the program's existing
//! `hh-trace` spans and counters and from the engine's `Stats`; the
//! benchmark adds no span inside any crate. Whatever part of the traced
//! wall time no layer call covers is reported as `unattributed`.

use std::collections::BTreeMap;
use std::time::Instant;

/// One per-layer metric: its name, unit and direction as declared in
/// `BENCHMARK.json`, plus the end-to-end metric it should move and the
/// workload where that shows (written down before any change is measured).
#[derive(Debug, Clone, Copy)]
pub struct LayerMetric {
    /// Metric name, `<layer>.<what>`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `lower` or `higher`.
    pub better: &'static str,
    /// The end-to-end metric this one should move.
    pub moves: &'static str,
    /// The workload on which that shows.
    pub on: &'static str,
}

const fn m(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
    on: &'static str,
) -> LayerMetric {
    LayerMetric {
        name,
        unit,
        better,
        moves,
        on,
    }
}

/// Every per-layer metric, in the order the tables print them.
#[rustfmt::skip]
pub const LAYER_METRICS: &[LayerMetric] = &[
    m("netlist.miter_s",       "s",      "lower",   "geomean_s",                          "ladder-classify"),
    m("veloct.difftest_s",     "s",      "lower",   "geomean_s",                          "ladder-classify"),
    m("veloct.examples_s",     "s",      "lower",   "geomean_s",                          "ladder-classify; serve-session"),
    m("core.mine_s",           "s",      "lower",   "geomean_s",                          "ladder-classify"),
    m("core.engine_s",         "s",      "lower",   "pass_s",                             "sparse-backtrack; ladder-classify"),
    m("core.tasks",            "count",  "lower",   "pass_s",                             "sparse-backtrack"),
    m("core.backtracks",       "count",  "lower",   "pass_s",                             "sparse-backtrack"),
    m("core.memo_hits",        "count",  "higher",  "pass_s",                             "sparse-backtrack"),
    m("core.occupancy",        "ratio",  "higher",  "pass_s",                             "ladder-classify"),
    m("core.invariant_preds",  "count",  "lower",   "none (reported, not gated)",         "all"),
    m("smt.queries",           "count",  "lower",   "pass_s",                             "ladder-classify"),
    m("smt.solve_s",           "s",      "lower",   "pass_s",                             "ladder-classify"),
    m("smt.blast_s",           "s",      "lower",   "pass_s",                             "ladder-classify; serve-session"),
    m("smt.cache_hits",        "count",  "higher",  "pass_s",                             "ladder-classify; serve-session"),
    m("smt.cache_misses",      "count",  "lower",   "pass_s",                             "ladder-classify; serve-session"),
    m("smt.pool_imported",     "count",  "higher",  "pass_s",                             "ladder-classify"),
    m("smt.session_hits",      "count",  "higher",  "pass_s",                             "sparse-backtrack"),
    m("smt.session_misses",    "count",  "lower",   "pass_s",                             "sparse-backtrack"),
    m("sat.solve_calls",       "count",  "lower",   "pass_s",                             "ladder-classify"),
    m("sat.solves_per_query",  "ratio",  "lower",   "pass_s",                             "ladder-classify"),
    m("sat.solve_s",           "s",      "lower",   "pass_s",                             "ladder-classify"),
    m("sat.conflicts",         "count",  "lower",   "pass_s",                             "ladder-classify"),
    m("sat.propagations",      "count",  "lower",   "pass_s",                             "ladder-classify"),
    m("sat.arena_bytes",       "bytes",  "lower",   "peak_rss_mb",                        "ladder-classify"),
    m("sat.watch_bytes",       "bytes",  "lower",   "peak_rss_mb",                        "ladder-classify"),
    m("proof.emit_s",          "s",      "lower",   "pass_s",                             "certify"),
    m("proof.check_s",         "s",      "lower",   "pass_s",                             "certify"),
    m("proof.bytes",           "bytes",  "lower",   "pass_s",                             "certify"),
    m("proof.lines",           "count",  "lower",   "pass_s",                             "certify"),
    m("proof.obligations",     "count",  "lower",   "pass_s",                             "certify"),
    m("serve.warm_p50_ms",     "ms",     "lower",   "geomean_s",                          "serve-session"),
    m("serve.warm_tail_ms",    "ms",     "lower",   "pass_s",                             "serve-session"),
    m("serve.delta_p50_ms",    "ms",     "lower",   "geomean_s",                          "serve-session"),
    m("serve.refute_p50_ms",   "ms",     "lower",   "geomean_s",                          "serve-session"),
    m("serve.memo_seeded",     "count",  "higher",  "geomean_s (delta)",                  "serve-session"),
    m("serve.memo_reused",     "count",  "higher",  "geomean_s (delta)",                  "serve-session"),
    m("serve.invalidated",     "count",  "lower",   "geomean_s (delta)",                  "serve-session"),
    m("serve.relearned",       "count",  "lower",   "geomean_s (delta)",                  "serve-session"),
    m("serve.checkpoint_ms",   "ms",     "lower",   "pass_s",                             "serve-session"),
    m("serve.status_ms",       "ms",     "lower",   "pass_s",                             "serve-session"),
    m("unattributed_frac",     "ratio",  "lower",   "none (validity of the traced run)",  "all"),
    m("trace.overhead",        "ratio",  "lower",   "none (validity of the traced run)",  "all"),
    m("trace.dropped_events",  "count",  "lower",   "none (validity of the traced run)",  "all"),
];

/// The batch layer calls whose wall times partition a traced operation;
/// the remainder of the operation's wall time is `unattributed`.
pub const TIMED_CALLS: &[&str] = &[
    "netlist.miter_s",
    "veloct.difftest_s",
    "veloct.examples_s",
    "core.mine_s",
    "core.engine_s",
    "proof.emit_s",
    "proof.check_s",
];

/// Per-layer values of one traced operation.
#[derive(Debug, Default, Clone)]
pub struct Layers {
    /// Metric name to value; metrics a workload never touches stay absent
    /// and print as 0.
    values: BTreeMap<&'static str, f64>,
    /// The timed calls that partition the traced wall time.
    top: Vec<&'static str>,
}

impl Layers {
    /// Adds `v` to a metric.
    pub fn add(&mut self, name: &'static str, v: f64) {
        *self.values.entry(name).or_insert(0.0) += v;
    }

    /// Raises a high-water metric to at least `v`.
    pub fn max(&mut self, name: &'static str, v: f64) {
        let e = self.values.entry(name).or_insert(0.0);
        *e = e.max(v);
    }

    /// Sets a metric.
    pub fn set(&mut self, name: &'static str, v: f64) {
        self.values.insert(name, v);
    }

    /// A metric's value (0 when the workload never touched that layer).
    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    /// Times one layer call from the caller's side.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        self.add(name, t0.elapsed().as_secs_f64());
        out
    }

    /// Folds in the layers below the engine from a drained trace: span
    /// totals (`sat.solve`, `smt.solve`, `smt.blast`, `sched.job`,
    /// `engine.learn`) and counter totals. Span seconds are summed over
    /// threads, so with two engine workers they can exceed wall time.
    pub fn add_trace(&mut self, trace: &hh_trace::Trace, workers: usize) {
        let spans = trace.span_totals();
        let span = |n: &str| spans.get(n).copied().unwrap_or((0, 0));
        let counters = trace.counter_totals();
        let counter = |n: &str| counters.get(n).copied().unwrap_or(0) as f64;
        let (solves, solve_us) = span("sat.solve");
        self.add("sat.solve_calls", solves as f64);
        self.add("sat.solve_s", solve_us as f64 / 1e6);
        self.add("smt.solve_s", span("smt.solve").1 as f64 / 1e6);
        self.add("smt.blast_s", span("smt.blast").1 as f64 / 1e6);
        let (jobs, job_us) = span("sched.job");
        self.add("core.tasks", jobs as f64);
        self.add("sched.job_us", job_us as f64);
        self.add(
            "engine.learn_us",
            span("engine.learn").1 as f64 * workers as f64,
        );
        self.add("sat.conflicts", counter("sat.conflicts"));
        self.add("sat.propagations", counter("sat.propagations"));
        self.add("smt.queries", counter("engine.query"));
        self.add("smt.cache_hits", counter("smt.cache.hit"));
        self.add("smt.cache_misses", counter("smt.cache.miss"));
        self.add("smt.pool_imported", counter("smt.pool.imported"));
        self.add("smt.session_hits", counter("smt.session.hit"));
        self.add("smt.session_misses", counter("smt.session.miss"));
        self.add("core.backtracks", counter("engine.backtrack"));
        self.add("core.memo_hits", counter("engine.memo.hit"));
        self.add("proof.bytes", counter("proof.bytes"));
        self.add("proof.lines", counter("proof.check.lines"));
        self.add("proof.obligations", counter("proof.obligations"));
        self.add("trace.dropped_events", trace.dropped as f64);
    }

    /// Derives the ratios once every operation is folded in, and the share
    /// of `wall` seconds that the `top` calls do not cover.
    pub fn finish(&mut self, wall: f64, top: &[&'static str]) {
        self.top = top.to_vec();
        let queries = self.get("smt.queries");
        if queries > 0.0 {
            self.set(
                "sat.solves_per_query",
                self.get("sat.solve_calls") / queries,
            );
        }
        let learn_us = self.get("engine.learn_us");
        if learn_us > 0.0 {
            self.set("core.occupancy", self.get("sched.job_us") / learn_us);
        }
        let attributed: f64 = top.iter().map(|n| self.get(n)).sum();
        self.set("unattributed_s", (wall - attributed).max(0.0));
        if wall > 0.0 {
            self.set("unattributed_frac", (wall - attributed).max(0.0) / wall);
        }
        self.set("wall_s", wall);
    }
}

/// Switches tracing on or off for the whole process. The ring holds 2^20
/// events per thread, more than a pass records; `trace.dropped_events`
/// reports it if one ever wraps.
pub fn tracing(on: bool) {
    hh_trace::init(if on {
        hh_trace::TraceConfig::On { capacity: 1 << 20 }
    } else {
        hh_trace::TraceConfig::Off
    });
}

/// Runs `f` with tracing on and returns its result with the drained trace.
pub fn traced<T>(f: impl FnOnce() -> T) -> (T, hh_trace::Trace) {
    tracing(true);
    let out = f();
    let trace = hh_trace::drain();
    tracing(false);
    (out, trace)
}

/// Prints the per-layer table of one workload: the timed layer calls with
/// the explicit `unattributed` row, then every metric with the
/// end-to-end metric it should move.
pub fn table(workload: &str, layers: &Layers) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let wall = layers.get("wall_s");
    let _ = writeln!(
        out,
        "per-layer time of one traced operation ({workload}, wall {wall:.3} s):"
    );
    for &name in layers.top.iter().chain(&["unattributed_s"]) {
        let v = layers.get(name);
        if v > 0.0 || name == "unattributed_s" {
            let share = if wall > 0.0 { 100.0 * v / wall } else { 0.0 };
            let label = name.trim_end_matches("_s");
            let _ = writeln!(out, "  {label:<22} {v:>10.4} s {share:>6.1}%");
        }
    }
    let _ = writeln!(out, "per-layer metrics ({workload}):");
    let _ = writeln!(
        out,
        "  {:<24} {:>16} {:<6} {:<7} {:<28} on",
        "metric", "value", "unit", "better", "should move"
    );
    for lm in LAYER_METRICS {
        let _ = writeln!(
            out,
            "  {:<24} {:>16.4} {:<6} {:<7} {:<28} {}",
            lm.name,
            layers.get(lm.name),
            lm.unit,
            lm.better,
            lm.moves,
            lm.on
        );
    }
    out
}
