//! `compare`: the verdict of a change against its parent, one row per
//! (workload, end-to-end metric), by this rule:
//!
//! * runs are paired in the order they were recorded (the i-th parent run
//!   with the i-th change run); run the pairs alternating which side goes
//!   first;
//! * **better**: at least ten pairs, the change wins at least nine tenths
//!   of them (ties count for neither), and the medians differ by more than
//!   the parent's interquartile spread;
//! * **unresolved**: the parent's own spread (interquartile distance over
//!   median) is wider than the metric's bound, unless every change run
//!   reads better than every parent run;
//! * **worse**: the change's median is worse than the parent's by more than
//!   the bound;
//! * **same**: otherwise.
//!
//! Bounds and directions come from `BENCHMARK.json`. A gain does not count
//! when more operations failed on the change than on the parent.

use crate::stats::{median, quartiles};
use hh_serve::json::Json;
use std::collections::BTreeMap;
use std::fmt;

/// The verdict on one (workload, metric) row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// A gain, by the rule above.
    Better,
    /// No regression beyond the bound.
    Same,
    /// A regression beyond the bound.
    Worse,
    /// The parent's spread is wider than the bound.
    Unresolved,
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        })
    }
}

/// Judges one metric from paired runs. `higher_better` gives the direction;
/// `bound` is the share of the parent's median the metric may worsen by.
pub fn verdict(parent: &[f64], change: &[f64], higher_better: bool, bound: f64) -> Verdict {
    let (Some(pm), Some(cm), Some((q1, q3))) = (median(parent), median(change), quartiles(parent))
    else {
        return Verdict::Unresolved;
    };
    if pm == 0.0 {
        return Verdict::Unresolved;
    }
    // `gain(a, b)`: how much better `b` reads than `a`.
    let gain = |a: f64, b: f64| if higher_better { b - a } else { a - b };
    let pairs = parent.len().min(change.len());
    let wins = parent
        .iter()
        .zip(change)
        .filter(|(&p, &c)| gain(p, c) > 0.0)
        .count();
    let iqr = q3 - q1;
    if pairs >= 10 && wins * 10 >= pairs * 9 && gain(pm, cm) > iqr {
        return Verdict::Better;
    }
    let all_better = change
        .iter()
        .all(|&c| parent.iter().all(|&p| gain(p, c) > 0.0));
    if iqr / pm.abs() > bound && !all_better {
        return Verdict::Unresolved;
    }
    if -gain(pm, cm) / pm.abs() > bound {
        Verdict::Worse
    } else {
        Verdict::Same
    }
}

/// An end-to-end metric declaration from `BENCHMARK.json`.
#[derive(Debug, Clone)]
struct Declared {
    name: String,
    higher_better: bool,
    bound: f64,
}

fn number(j: &Json) -> Option<f64> {
    match j {
        Json::Int(n) => Some(*n as f64),
        Json::Float(f) => Some(*f),
        _ => None,
    }
}

fn declared(bench: &Json) -> Result<Vec<Declared>, String> {
    bench
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .iter()
        .map(|m| {
            Ok(Declared {
                name: m
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or("metric without name")?
                    .into(),
                higher_better: m.get("better").and_then(Json::as_str) == Some("higher"),
                bound: m
                    .get("bound")
                    .and_then(number)
                    .ok_or("metric without bound")?,
            })
        })
        .collect()
}

/// The untraced records of a result set, grouped by workload in file
/// order. A line is a record as `--record` writes it, or a captured stdout
/// line starting with `record `.
fn records(text: &str) -> Result<BTreeMap<String, Vec<Json>>, String> {
    let mut out: BTreeMap<String, Vec<Json>> = BTreeMap::new();
    for line in text.lines() {
        let line = line.trim();
        let body = line.strip_prefix("record ").unwrap_or(line);
        if !body.starts_with('{') {
            continue;
        }
        let rec = Json::parse(body).map_err(|e| format!("bad record: {e}"))?;
        if rec.get("trace").and_then(Json::as_bool) == Some(true) {
            continue;
        }
        let Some(w) = rec.get("workload").and_then(Json::as_str) else {
            continue;
        };
        out.entry(w.to_string()).or_default().push(rec);
    }
    Ok(out)
}

/// A metric's values across records; a metric is a bare number (result
/// records) or a `{"value", "unit"}` object (the final result line).
fn values(recs: &[Json], metric: &str) -> Vec<f64> {
    recs.iter()
        .filter_map(|r| {
            let m = r.get("metrics")?.get(metric)?;
            number(m).or_else(|| m.get("value").and_then(number))
        })
        .collect()
}

fn failed(recs: &[Json]) -> u64 {
    recs.iter()
        .filter_map(|r| r.get("failed").and_then(Json::as_u64))
        .sum()
}

/// Compares two result sets; returns the printed table.
pub fn compare(bench: &str, parent: &str, change: &str) -> Result<String, String> {
    use std::fmt::Write as _;
    let bench = Json::parse(bench).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let metrics = declared(&bench)?;
    let parent = records(parent)?;
    let change = records(change)?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<18} {:<16} {:>12} {:>12} {:>8} {:>8} {:>6} verdict",
        "workload", "metric", "parent", "change", "delta", "spread", "wins"
    );
    for (workload, p) in &parent {
        let Some(c) = change.get(workload) else {
            let _ = writeln!(out, "{workload:<18} (no change runs)");
            continue;
        };
        let more_failures = failed(c) > failed(p);
        for m in &metrics {
            let (pv, cv) = (values(p, &m.name), values(c, &m.name));
            let mut v = verdict(&pv, &cv, m.higher_better, m.bound);
            if v == Verdict::Better && more_failures {
                v = Verdict::Same;
            }
            let pm = median(&pv).unwrap_or(f64::NAN);
            let cm = median(&cv).unwrap_or(f64::NAN);
            let spread = crate::stats::spread(&pv).unwrap_or(f64::NAN);
            let wins = pv
                .iter()
                .zip(&cv)
                .filter(|(&a, &b)| if m.higher_better { b > a } else { b < a })
                .count();
            let _ = writeln!(
                out,
                "{:<18} {:<16} {:>12.4} {:>12.4} {:>7.1}% {:>7.1}% {:>3}/{:<2} {v}",
                workload,
                m.name,
                pm,
                cm,
                100.0 * (cm - pm) / pm,
                100.0 * spread,
                wins,
                pv.len().min(cv.len()),
            );
        }
        let _ = writeln!(
            out,
            "{:<18} {:<16} {:>12} {:>12}",
            workload,
            "failed ops",
            failed(p),
            failed(c)
        );
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn around(center: f64, n: usize) -> Vec<f64> {
        // Deterministic jitter of +-1% around `center`.
        (0..n)
            .map(|i| center * (1.0 + 0.01 * (((i * 7) % 5) as f64 - 2.0) / 2.0))
            .collect()
    }

    #[test]
    fn clear_gain_is_better() {
        let p = around(100.0, 10);
        let c = around(80.0, 10);
        assert_eq!(verdict(&p, &c, false, 0.1), Verdict::Better);
        // The same gain on a higher-is-better metric reads as a regression.
        assert_eq!(verdict(&p, &c, true, 0.1), Verdict::Worse);
    }

    #[test]
    fn gain_needs_ten_pairs() {
        let p = around(100.0, 9);
        let c = around(80.0, 9);
        assert_eq!(verdict(&p, &c, false, 0.1), Verdict::Same);
    }

    #[test]
    fn gain_needs_nine_tenths_of_pairs() {
        let p = around(100.0, 10);
        let mut c = around(80.0, 10);
        c[0] = 200.0;
        c[1] = 200.0;
        assert_eq!(verdict(&p, &c, false, 0.1), Verdict::Same);
    }

    #[test]
    fn gain_smaller_than_parent_spread_is_not_better() {
        let p = vec![
            90.0, 110.0, 95.0, 105.0, 92.0, 108.0, 97.0, 103.0, 91.0, 109.0,
        ];
        let c: Vec<f64> = p.iter().map(|x| x - 1.0).collect();
        assert_ne!(verdict(&p, &c, false, 0.5), Verdict::Better);
    }

    #[test]
    fn small_drift_is_same_and_large_drift_is_worse() {
        let p = around(100.0, 10);
        assert_eq!(verdict(&p, &around(103.0, 10), false, 0.1), Verdict::Same);
        assert_eq!(verdict(&p, &around(125.0, 10), false, 0.1), Verdict::Worse);
        assert_eq!(verdict(&p, &around(75.0, 10), true, 0.1), Verdict::Worse);
    }

    #[test]
    fn wide_parent_spread_is_unresolved_unless_change_dominates() {
        let p = vec![
            50.0, 150.0, 60.0, 140.0, 70.0, 130.0, 80.0, 120.0, 90.0, 110.0,
        ];
        let c = vec![100.0; 10];
        assert_eq!(verdict(&p, &c, false, 0.1), Verdict::Unresolved);
        // Every change run beats every parent run: not unresolved, but the
        // gap is inside the parent's spread, so not a gain either.
        let dominating = vec![45.0; 10];
        assert_eq!(verdict(&p, &dominating, false, 0.1), Verdict::Same);
    }

    #[test]
    fn compare_reads_records_and_bounds() {
        let bench = r#"{"end_to_end":[{"name":"pass_s","unit":"s","better":"lower","bound":0.1}]}"#;
        let rec = |v: f64, trace: bool| {
            format!(r#"{{"workload":"w","trace":{trace},"failed":0,"metrics":{{"pass_s":{v}}}}}"#)
        };
        let parent: Vec<String> = around(10.0, 10).iter().map(|&v| rec(v, false)).collect();
        let mut change: Vec<String> = around(13.0, 10)
            .iter()
            .map(|&v| format!("record {}", rec(v, false)))
            .collect();
        change.push(rec(1.0, true)); // traced records are ignored
        let table = compare(bench, &parent.join("\n"), &change.join("\n")).unwrap();
        let row = table.lines().find(|l| l.contains("pass_s")).unwrap();
        assert!(row.ends_with("worse"), "{row}");
        assert!(row.contains("0/10"), "{row}");
    }
}
