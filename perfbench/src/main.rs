//! The repository benchmark: a user's invariant-learning request run from
//! outside the program, a design in and a checked verdict out.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--record <file>]
//! perfbench compare <parent.jsonl> <change.jsonl> [BENCHMARK.json]
//! ```
//!
//! Run from the repository root (see `perfbench/README.md`). With
//! `--trace 0` the last line of standard output carries the end-to-end
//! metrics; with `--trace 1` it carries the per-layer metrics of a traced
//! run, and the table above it attributes the traced operation's wall time
//! to layers.

mod batch;
mod compare;
mod expect;
mod host;
mod layers;
mod offclock;
mod run;
mod serve;
mod stats;

use hh_serve::json::Json;
use run::Run;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// The workloads; why each was chosen is in `BENCHMARK.json` and in the
/// docs of [`batch`] and [`serve`].
const WORKLOADS: &[&str] = &[
    "ladder-classify",
    "sparse-backtrack",
    "certify",
    "serve-session",
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    record: Option<PathBuf>,
}

fn usage() -> String {
    format!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--record <file>]\n       \
         perfbench compare <parent.jsonl> <change.jsonl> [BENCHMARK.json]",
        WORKLOADS.join("|")
    )
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        record: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => out.workload = value.clone(),
            "--seed" => out.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => out.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                out.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--record" => out.record = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&out.workload.as_str()) {
        return Err(format!("unknown workload {:?}", out.workload));
    }
    if !out.seconds.is_finite() || out.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(out)
}

fn compare_main(args: &[String]) -> ExitCode {
    let (parent, change) = match args {
        [p, c] | [p, c, _] => (p, c),
        _ => {
            eprintln!("{}", usage());
            return ExitCode::from(2);
        }
    };
    let bench = args.get(2).map_or("BENCHMARK.json", String::as_str);
    let read = |p: &str| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
    let result = (|| compare::compare(&read(bench)?, &read(parent)?, &read(change)?))();
    match result {
        Ok(table) => {
            print!("{table}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("compare: {e}");
            ExitCode::FAILURE
        }
    }
}

fn metrics_json(metrics: &[(&str, &str, f64)], with_units: bool) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|&(name, unit, v)| {
                let value = if with_units {
                    Json::obj(vec![
                        ("value", Json::Float(v)),
                        ("unit", Json::Str(unit.into())),
                    ])
                } else {
                    Json::Float(v)
                };
                (name.to_string(), value)
            })
            .collect(),
    )
}

/// The result record: the run's metrics plus everything needed to tell
/// runs apart and to compare them later.
fn record(run: &Run, args: &Args, metrics: &[(&str, &str, f64)], root: &Path) -> Json {
    Json::obj(vec![
        ("workload", Json::Str(run.workload.clone())),
        ("seed", Json::Int(args.seed as i64)),
        ("seconds", Json::Float(args.seconds)),
        ("trace", Json::Bool(args.trace)),
        ("git_sha", Json::Str(host::git_sha(root))),
        (
            "host",
            Json::obj(vec![
                ("nproc", Json::Int(host::nproc() as i64)),
                ("cpu", Json::Str(host::cpu_model())),
            ]),
        ),
        (
            "threads",
            Json::obj(vec![("engine", Json::Int(run.threads as i64))]),
        ),
        ("samples", run.samples()),
        ("latencies_s", run.latencies()),
        ("attempted", Json::Int(run.tally.attempted as i64)),
        ("failed", Json::Int(run.tally.failed as i64)),
        ("fail_frac", Json::Float(run.tally.fail_frac())),
        ("metrics", metrics_json(metrics, false)),
    ])
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("compare") {
        return compare_main(&argv[1..]);
    }
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let root = PathBuf::from(".");
    let tmp_root = root.join(".perfbench_tmp");
    let scratch = tmp_root.join(format!("{}-{}", args.workload, std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        eprintln!("cannot create {}: {e}", scratch.display());
        return ExitCode::FAILURE;
    }
    let mut run = Run::new(&args.workload, args.seed, args.trace, scratch.clone());
    let batch = match args.workload.as_str() {
        "ladder-classify" => Some(batch::Batch::Ladder),
        "sparse-backtrack" => Some(batch::Batch::Sparse),
        "certify" => Some(batch::Batch::Certify),
        _ => None,
    };
    let outcome = match batch {
        Some(b) => {
            batch::run(b, args.seed, args.seconds, args.trace, &mut run);
            Ok(())
        }
        None => serve::run(args.seed, args.seconds, args.trace, &mut run),
    };
    let _ = std::fs::remove_dir_all(&scratch);
    let _ = std::fs::remove_dir(&tmp_root); // only if no other run uses it
    if let Err(e) = outcome {
        eprintln!("{}: {e}", args.workload);
        return ExitCode::FAILURE;
    }

    let end_to_end = run.end_to_end();
    print!("{}", run.table(&end_to_end));
    let metrics = if args.trace {
        if let Some(layers) = &run.layers {
            print!("{}", layers::table(&args.workload, layers));
        }
        run.per_layer()
    } else {
        end_to_end
    };
    let rec = record(&run, &args, &metrics, &root);
    println!("record {rec}");
    if let Some(path) = &args.record {
        let appended = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| writeln!(f, "{rec}"));
        if let Err(e) = appended {
            eprintln!("cannot append the record to {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    let result = Json::obj(vec![
        (
            "correct",
            Json::Bool(run.tally.failed == 0 && run.tally.attempted > 0),
        ),
        ("attempted", Json::Int(run.tally.attempted as i64)),
        ("failed", Json::Int(run.tally.failed as i64)),
        ("metrics", metrics_json(&metrics, true)),
    ]);
    println!("{result}");
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` declares exactly the workloads and metrics this
    /// program reports, with the same units and directions.
    #[test]
    fn benchmark_json_matches_the_program() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let bench = Json::parse(&text).expect("BENCHMARK.json parses");
        let list = |key: &str| {
            bench
                .get(key)
                .and_then(Json::as_arr)
                .unwrap_or(&[])
                .to_vec()
        };
        let field = |j: &Json, k: &str| j.get(k).and_then(Json::as_str).unwrap_or("").to_string();
        let workloads: Vec<String> = list("workloads").iter().map(|w| field(w, "name")).collect();
        assert_eq!(workloads, WORKLOADS);
        let declared = |key: &str| -> Vec<(String, String, String)> {
            list(key)
                .iter()
                .map(|m| (field(m, "name"), field(m, "unit"), field(m, "better")))
                .collect()
        };
        let own = |v: Vec<(&str, &str, &str)>| -> Vec<(String, String, String)> {
            v.into_iter()
                .map(|(a, b, c)| (a.to_string(), b.to_string(), c.to_string()))
                .collect()
        };
        assert_eq!(declared("end_to_end"), own(run::END_TO_END.to_vec()));
        let layers = layers::LAYER_METRICS
            .iter()
            .map(|m| (m.name, m.unit, m.better));
        assert_eq!(declared("per_layer"), own(layers.collect()));
    }

    #[test]
    fn arguments_parse_and_reject() {
        let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let a = parse(&argv("--workload certify --seed 7 --seconds 2.5 --trace 1")).unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("certify", 7, 2.5, true)
        );
        assert!(parse(&argv("--workload nope --seed 1 --seconds 1 --trace 0")).is_err());
        assert!(parse(&argv("--workload certify --seed 1 --seconds 1 --trace 2")).is_err());
        assert!(parse(&argv("--workload certify --seed x --seconds 1 --trace 0")).is_err());
        assert!(parse(&argv("--workload certify --seconds 0 --trace 0")).is_err());
        assert!(parse(&argv("--workload")).is_err());
    }
}
