//! The `serve-session` workload: an in-process `veloct serve` daemon on
//! loopback, driven closed-loop by one client connection (the next request
//! goes out when the previous answer is back). The engine runs at one
//! thread. Every round sends the same seeded-shuffled mix over
//! SmallBoomLite:
//!
//! * `warm` (4 per round): repeats of a proved learn. They issue no SMT
//!   query, so they measure the daemon's non-SMT path (example generation,
//!   mining set-up, memo seeding), which no batch workload isolates.
//! * `delta` (2): `verify` requests alternating two versions of the design
//!   under one name. The edit changes one constant in the memory unit's
//!   miss-done test (see [`edit_miss_done`]): 57 of 59 memo entries keep
//!   their cone signatures and 2 re-learn. The only builtin-level delta, a
//!   `scale` flip, keeps just 4 of 59-80 memo entries and would measure a
//!   near-cold re-learn instead.
//! * `refute` (1): a learn of the `alu` set, whose answer is "unprovable"
//!   (`auipc` leaks timing on BOOM). Refutations are never warm.
//! * `status` (2) and `checkpoint` (1): daemon bookkeeping under the state
//!   lock.

use crate::expect::{check, classify_answer, Answer, Core, Outcome};
use crate::layers::{tracing, Layers};
use crate::offclock::Checks;
use crate::run::{shuffled, Op, Run};
use crate::stats::{median, tail};
use hh_isa::Mnemonic;
use hh_serve::client::{Client, ClientError};
use hh_serve::json::Json;
use hh_serve::server::{Bind, Server, ServerConfig, ServerCounters};
use hh_serve::state::DesignSpec;
use hh_smt::Predicate;
use hh_uarch::Design;
use hhoudini::Invariant;
use std::collections::BTreeMap;
use std::path::Path;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use veloct::Veloct;

/// The request kinds of one round, before shuffling.
const ROUND: [Kind; 10] = [
    Kind::Warm,
    Kind::Warm,
    Kind::Warm,
    Kind::Warm,
    Kind::Delta,
    Kind::Delta,
    Kind::Refute,
    Kind::Status,
    Kind::Status,
    Kind::Checkpoint,
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Warm,
    Delta,
    Refute,
    Status,
    Checkpoint,
}

impl Kind {
    /// The request kind's name in tables and records.
    fn label(self) -> &'static str {
        match self {
            Kind::Warm => "warm",
            Kind::Delta => "delta",
            Kind::Refute => "refute",
            Kind::Status => "status",
            Kind::Checkpoint => "checkpoint",
        }
    }
}

/// Designs whose invariants the off-clock checks rebuild.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Key {
    Warm,
    DeltaV1,
    DeltaV2,
}

/// The two versions of the delta design, as protocol `design` objects.
struct Designs {
    v1: Json,
    v2: Json,
}

fn builtin_design() -> Json {
    Json::obj(vec![
        ("name", Json::Str("sboom".into())),
        ("builtin", Json::Str("boom-small".into())),
        ("xlen", Json::Int(crate::expect::XLEN as i64)),
    ])
}

/// SmallBoomLite as inlined btor2 plus its annotations, optionally with
/// the delta edit applied.
fn btor2_design(design: &Design, edited: bool) -> Result<Json, String> {
    let n = &design.netlist;
    let mut src = hh_netlist::btor2::to_btor2(n);
    if edited {
        src = edit_miss_done(&src)?;
    }
    let names = |ids: &[hh_netlist::StateId]| {
        Json::Arr(
            ids.iter()
                .map(|&s| Json::Str(n.state_name(s).into()))
                .collect(),
        )
    };
    let masks = design
        .masking
        .iter()
        .map(|r| {
            Json::Arr(vec![
                Json::Str(n.state_name(r.valid).into()),
                names(&r.fields),
            ])
        })
        .collect();
    Ok(Json::obj(vec![
        ("name", Json::Str("sboom-delta".into())),
        ("btor2", Json::Str(src)),
        ("instr_input", Json::Str(design.instr_input.clone())),
        ("observables", names(&design.observable)),
        ("secret_regs", names(&design.secret_regs)),
        ("masks", Json::Arr(masks)),
        ("xlen", Json::Int(design.xlen as i64)),
        ("max_latency", Json::Int(design.max_latency as i64)),
        ("example_depth", Json::Int(design.example_depth as i64)),
    ]))
}

/// The delta edit: the memory unit's "miss done" test, `eq mem$cnt 0`,
/// becomes `eq mem$cnt 1` (a miss ends a cycle sooner). The test feeds only
/// the next-state functions of `mem$busy` and `mem$v`, so of the 59 memo
/// entries exactly the two whose cones read it are invalidated; the memory
/// unit is idle under the safe set, so both versions prove the same
/// invariant. Errors if the design no longer has that shape, so the
/// workload cannot silently stop measuring a delta.
fn edit_miss_done(src: &str) -> Result<String, String> {
    let lines: Vec<Vec<&str>> = src
        .lines()
        .map(|l| l.split_whitespace().collect())
        .collect();
    let find = |pred: &dyn Fn(&[&str]) -> bool| lines.iter().position(|t| pred(t));
    let state = find(&|t| t.len() == 4 && t[1] == "state" && t[3] == "mem$cnt")
        .ok_or("no state mem$cnt")?;
    let (cnt, sort) = (lines[state][0], lines[state][2]);
    let constant = |v: &'static str| {
        move |t: &[&str]| t.len() == 4 && t[1] == "constd" && t[2] == sort && t[3] == v
    };
    let is_zero = constant("0");
    let done = find(&|t| {
        t.len() == 5
            && t[1] == "eq"
            && t[3] == cnt
            && find(&|c| c[0] == t[4]).is_some_and(|i| is_zero(&lines[i]))
    })
    .ok_or("no eq mem$cnt 0")?;
    let one = find(&constant("1"))
        .filter(|&i| i < done)
        .ok_or("no constd 1 of the counter's sort")?;
    let mut out: Vec<String> = src.lines().map(str::to_string).collect();
    let t = &lines[done];
    out[done] = format!("{} eq {} {} {}", t[0], t[2], t[3], lines[one][0]);
    Ok(out.join("\n") + "\n")
}

fn safe_json(safe: &[Mnemonic]) -> Json {
    Json::Arr(safe.iter().map(|m| Json::Str(m.name().into())).collect())
}

fn learn_fields(design: &Json, safe: Json) -> Vec<(&'static str, Json)> {
    vec![
        ("design", design.clone()),
        ("safe", safe),
        ("threads", Json::Int(1)),
    ]
}

/// A daemon running on its own thread.
struct Daemon {
    addr: String,
    thread: JoinHandle<std::io::Result<ServerCounters>>,
}

impl Daemon {
    fn boot(state_dir: &Path) -> std::io::Result<Daemon> {
        let (server, _notes) = Server::bind(ServerConfig {
            bind: Bind::Tcp("127.0.0.1:0".into()),
            state_dir: Some(state_dir.to_path_buf()),
            threads: 1,
            checkpoint_every: 0,
        })?;
        let addr = server
            .local_addr()
            .ok_or_else(|| std::io::Error::other("daemon has no TCP address"))?
            .to_string();
        let thread = std::thread::spawn(move || server.run());
        Ok(Daemon { addr, thread })
    }

    fn connect(&self) -> Result<Client, ClientError> {
        Client::connect_tcp(&self.addr)
    }

    /// Shuts the daemon down (it checkpoints first) and joins its thread.
    fn stop(self) -> std::io::Result<()> {
        let mut c = self
            .connect()
            .map_err(|e| std::io::Error::other(e.to_string()))?;
        c.shutdown()
            .map_err(|e| std::io::Error::other(e.to_string()))?;
        drop(c);
        self.thread
            .join()
            .map_err(|_| std::io::Error::other("daemon thread panicked"))??;
        Ok(())
    }
}

/// A response's invariant, sorted wire strings.
fn invariant_of(resp: &Json) -> Vec<String> {
    let mut v: Vec<String> = resp
        .get("invariant")
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter_map(|s| s.as_str().map(str::to_string))
        .collect();
    v.sort();
    v
}

fn outcome_of(resp: &Result<Json, ClientError>) -> Outcome {
    match resp {
        Err(e) => Outcome::Error(e.to_string()),
        Ok(r) => match r.get("result").and_then(Json::as_str) {
            Some("proved") => Outcome::Proved,
            Some("unprovable") => Outcome::Unprovable,
            Some("diverged") => Outcome::Diverged,
            other => Outcome::Error(format!("unexpected result {other:?}")),
        },
    }
}

fn field(resp: &Json, key: &str) -> f64 {
    resp.get(key).and_then(Json::as_i64).unwrap_or(0) as f64
}

/// The daemon and everything its answers are checked against.
struct Session {
    daemon: Daemon,
    client: Client,
    designs: Designs,
    /// Invariants of the cold learns, the answers warm and delta repeats
    /// must reproduce.
    cold: BTreeMap<Key, Vec<String>>,
    /// Which delta version the daemon holds now.
    delta_at_v2: bool,
}

/// Boots a daemon and makes the first cold request of every key: the warm
/// learn, the refutation, and both delta versions.
fn boot_session(state_dir: &Path, designs: Designs) -> Result<Session, String> {
    let daemon = Daemon::boot(state_dir).map_err(|e| format!("daemon boot: {e}"))?;
    let mut client = daemon.connect().map_err(|e| format!("connect: {e}"))?;
    let boom = safe_json(&classify_answer(Core::Small));
    let mut cold = BTreeMap::new();
    let mut ask = |op: &str, design: &Json, safe: Json, want: Answer| {
        let resp = client.request(op, learn_fields(design, safe));
        check(&want, &outcome_of(&resp)).map_err(|e| format!("cold {op}: {e}"))?;
        Ok::<_, String>(invariant_of(&resp.map_err(|e| e.to_string())?))
    };
    cold.insert(
        Key::Warm,
        ask("learn", &builtin_design(), boom.clone(), Answer::Proved)?,
    );
    ask(
        "learn",
        &builtin_design(),
        Json::Str("alu".into()),
        Answer::Unprovable,
    )?;
    cold.insert(
        Key::DeltaV1,
        ask("learn", &designs.v1, boom.clone(), Answer::Proved)?,
    );
    cold.insert(
        Key::DeltaV2,
        ask("verify", &designs.v2, boom, Answer::Proved)?,
    );
    Ok(Session {
        daemon,
        client,
        designs,
        cold,
        delta_at_v2: true,
    })
}

/// One answered request.
struct Answered {
    kind: Kind,
    secs: f64,
    verdict: Result<(), String>,
    invariant: Option<(Key, Vec<String>)>,
    resp: Option<Json>,
}

impl Session {
    /// Sends one request of `kind` and checks the answer.
    fn request(&mut self, kind: Kind) -> Answered {
        let boom = || safe_json(&classify_answer(Core::Small));
        let (op, fields, want, key) = match kind {
            Kind::Warm => (
                "learn",
                learn_fields(&builtin_design(), boom()),
                Some(Answer::Proved),
                Some(Key::Warm),
            ),
            Kind::Refute => (
                "learn",
                learn_fields(&builtin_design(), Json::Str("alu".into())),
                Some(Answer::Unprovable),
                None,
            ),
            Kind::Delta => {
                self.delta_at_v2 = !self.delta_at_v2;
                let (design, key) = if self.delta_at_v2 {
                    (&self.designs.v2, Key::DeltaV2)
                } else {
                    (&self.designs.v1, Key::DeltaV1)
                };
                (
                    "verify",
                    learn_fields(design, boom()),
                    Some(Answer::Proved),
                    Some(key),
                )
            }
            Kind::Status => ("status", vec![], None, None),
            Kind::Checkpoint => ("checkpoint", vec![], None, None),
        };
        let t0 = Instant::now();
        let resp = self.client.request(op, fields);
        let secs = t0.elapsed().as_secs_f64();
        if matches!(resp, Err(ClientError::Io(_) | ClientError::Frame(_))) {
            // The connection broke, so this request failed. Reconnect so
            // the rest of the run is still measured; if the reconnect is
            // refused, the next request fails too.
            if let Ok(c) = self.daemon.connect() {
                self.client = c;
            }
        }
        let mut verdict = match &want {
            Some(w) => check(w, &outcome_of(&resp)),
            None => resp.as_ref().map(|_| ()).map_err(|e| e.to_string()),
        };
        let mut invariant = None;
        if let (Some(key), Ok(r)) = (key, &resp) {
            let inv = invariant_of(r);
            if self.cold.get(&key) != Some(&inv) {
                verdict = verdict.and(Err("invariant differs from the cold learn".into()));
            }
            invariant = Some((key, inv));
        }
        Answered {
            kind,
            secs,
            verdict,
            invariant,
            resp: resp.ok(),
        }
    }
}

/// Runs `serve-session`.
pub fn run(seed: u64, seconds: f64, trace: bool, run: &mut Run) -> std::io::Result<()> {
    run.threads = 1;
    run.geomean_items = vec![
        Kind::Warm.label(),
        Kind::Delta.label(),
        Kind::Refute.label(),
    ];
    let small = Core::Small.build();
    let make_designs = || -> Result<Designs, String> {
        Ok(Designs {
            v1: btor2_design(&small, false)?,
            v2: btor2_design(&small, true)?,
        })
    };
    let scratch = run.scratch.clone();
    let mut boots = 0usize;
    let mut last: Option<Session> = None;
    let mut setup_err = None;
    // Each set-up boots a daemon and makes four cold requests (seconds).
    run.setup(3, || {
        if let Some(s) = last.take() {
            if let Err(e) = s.daemon.stop() {
                setup_err.get_or_insert(format!("daemon stop: {e}"));
            }
        }
        boots += 1;
        let state = scratch.join(format!("serve-state-{boots}"));
        match make_designs().and_then(|d| boot_session(&state, d)) {
            Ok(s) => last = Some(s),
            Err(e) => {
                setup_err.get_or_insert(e);
            }
        }
    });
    if let Some(e) = setup_err {
        return Err(std::io::Error::other(format!(
            "serve-session set-up failed: {e}"
        )));
    }
    let mut session = last.expect("set-up booted a daemon");
    let cold = session.cold.clone();

    let mut seen: BTreeMap<(Key, Vec<String>), u64> = BTreeMap::new();
    let mut traced_warm = Vec::new();
    let started = Instant::now();
    let mut round = 0u64;
    loop {
        let traced_round = trace && round % 2 == 1;
        let order = shuffled(ROUND.len(), seed, round);
        let t0 = Instant::now();
        let mut answers = Vec::with_capacity(ROUND.len());
        let mut layers = Layers::default();
        if traced_round {
            // A connection of its own, so that its server-side thread exits
            // (and hands its trace ring over) when the round is done.
            tracing(true);
            let previous = session
                .daemon
                .connect()
                .map(|c| std::mem::replace(&mut session.client, c));
            for &i in &order {
                answers.push(session.request(ROUND[i]));
            }
            let wall = t0.elapsed().as_secs_f64();
            if let Ok(p) = previous {
                drop(std::mem::replace(&mut session.client, p));
            }
            let trace = collect_trace(ROUND.len() as i64);
            tracing(false);
            layers.add_trace(&trace, 1);
            serve_layers(&mut layers, &trace, &answers);
            layers.finish(wall, &["serve.request_s"]);
            run.traced_passes.push(wall);
            run.layers.get_or_insert(layers);
        } else {
            for &i in &order {
                answers.push(session.request(ROUND[i]));
            }
            run.passes.push(t0.elapsed().as_secs_f64());
        }
        for a in answers {
            run.tally.op(a.kind.label(), a.verdict);
            if let Some(k) = a.invariant {
                *seen.entry(k).or_insert(0) += 1;
            }
            if !traced_round {
                run.ops.push(Op {
                    item: a.kind.label(),
                    secs: a.secs,
                });
            } else if a.kind == Kind::Warm {
                traced_warm.push(a.secs);
            }
        }
        round += 1;
        let enough_traced = !trace || !run.traced_passes.is_empty();
        if started.elapsed().as_secs_f64() >= seconds && enough_traced && !run.passes.is_empty() {
            break;
        }
    }
    run.measured_done();
    drop(session.client);
    if let Err(e) = session.daemon.stop() {
        run.tally.fail("daemon shutdown", 1, &e.to_string());
    }

    // Request latencies come from the untraced rounds.
    let by_item = run.by_item();
    let untraced = |k: Kind| by_item.get(k.label()).cloned().unwrap_or_default();
    let warm = untraced(Kind::Warm);
    if let Some(layers) = run.layers.as_mut() {
        let ms = |v: Option<f64>| v.unwrap_or(0.0) * 1e3;
        layers.set("serve.warm_p50_ms", ms(median(&warm)));
        layers.set("serve.warm_tail_ms", ms(tail(&warm).map(|t| t.1)));
        layers.set("serve.delta_p50_ms", ms(median(&untraced(Kind::Delta))));
        layers.set("serve.refute_p50_ms", ms(median(&untraced(Kind::Refute))));
        if let (Some(t), Some(u)) = (median(&traced_warm), median(&warm)) {
            layers.set("trace.overhead", t / u);
        }
    }

    // Off the clock: every distinct invariant the daemon returned.
    let mut checks: Checks<Key> = Checks::new();
    let safe = classify_answer(Core::Small);
    let build = |k: &Key| -> Design {
        match k {
            Key::Warm => Core::Small.build(),
            Key::DeltaV1 | Key::DeltaV2 => {
                let designs = make_designs().expect("built during set-up");
                let json = if *k == Key::DeltaV1 {
                    designs.v1
                } else {
                    designs.v2
                };
                DesignSpec::from_json(&json)
                    .and_then(|s| s.build())
                    .expect("the daemon accepted this design")
            }
        }
    };
    for ((key, wires), ops) in &seen {
        let design = build(key);
        let (miter, _) = Veloct::new(&design).build_miter(&safe);
        let preds: Result<Vec<Predicate>, String> = wires
            .iter()
            .map(|w| Predicate::from_wire(w, miter.netlist()))
            .collect();
        match preds {
            Ok(p) => checks.add(*key, &safe, &Invariant::new(p), *ops),
            Err(e) => run.tally.fail("invariant wire form", *ops, &e),
        }
    }
    checks.run(build, |k| format!("{k:?}"), &mut run.tally);
    run.note(format!(
        "{} distinct invariant(s) checked off the clock; cold invariant sizes {:?}",
        checks.len(),
        cold.values().map(Vec::len).collect::<Vec<_>>()
    ));
    run.note("delta edit: SmallBoomLite miss-done test eq mem$cnt 0 -> eq mem$cnt 1".to_string());
    Ok(())
}

/// Drains the trace until the daemon's connection thread has handed over
/// its ring (its `serve.request` count reaches `requests`), for at most ten
/// seconds: the thread exits when its client disconnects, and its ring
/// reaches the registry from the thread's teardown.
fn collect_trace(requests: i64) -> hh_trace::Trace {
    let mut all = hh_trace::Trace::default();
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let t = hh_trace::drain();
        all.events.extend(t.events);
        all.dropped += t.dropped;
        let seen = all
            .counter_totals()
            .get("serve.request")
            .copied()
            .unwrap_or(0);
        if seen >= requests || Instant::now() >= deadline {
            return all;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// The serve layer's own figures for one traced round: memo traffic from
/// the responses, bookkeeping latencies, and the daemon-side spans of the
/// layers it calls.
fn serve_layers(layers: &mut Layers, trace: &hh_trace::Trace, answers: &[Answered]) {
    let spans = trace.span_totals();
    let span_s = |n: &str| spans.get(n).map_or(0.0, |&(_, us)| us as f64 / 1e6);
    layers.set("veloct.examples_s", span_s("veloct.examples"));
    layers.set("core.engine_s", span_s("engine.learn"));
    let mut status = Vec::new();
    let mut checkpoint = Vec::new();
    for a in answers {
        layers.add("serve.request_s", a.secs);
        match a.kind {
            Kind::Status => status.push(a.secs * 1e3),
            Kind::Checkpoint => checkpoint.push(a.secs * 1e3),
            _ => {}
        }
        if let Some(r) = &a.resp {
            for (metric, key) in [
                ("serve.memo_seeded", "memo_seeded"),
                ("serve.memo_reused", "memo_reused"),
                ("serve.invalidated", "invalidated"),
                ("serve.relearned", "relearned"),
                ("core.invariant_preds", "invariant_size"),
            ] {
                layers.add(metric, field(r, key));
            }
        }
    }
    layers.set("serve.status_ms", median(&status).unwrap_or(0.0));
    layers.set("serve.checkpoint_ms", median(&checkpoint).unwrap_or(0.0));
}
