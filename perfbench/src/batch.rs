//! The three batch workloads: one process runs the library pipeline over a
//! ladder of builtin designs, the way the `veloct` CLI and the paper's
//! experiments do.
//!
//! * `ladder-classify`: full safe-set synthesis (`Veloct::classify` over
//!   the default candidates), RocketLite to LargeBoomLite. SAT search and
//!   core minimisation dominate; sessions never re-solve and proof code
//!   never runs. MegaBoomLite is left out: one classification takes 6-7 s
//!   and 1 GB, which leaves too few samples per run for a steady median.
//! * `sparse-backtrack`: learning from one-destination-register examples
//!   (`hh_bench::prepare_rds(.., &[3])`), SmallBoomLite to LargeBoomLite.
//!   The only batch workload where the engine backtracks and abduction
//!   sessions re-solve.
//! * `certify`: learning in certification mode, then emitting and
//!   independently checking the certificate bundle, RocketLite to
//!   LargeBoomLite. The only workload that runs the proof layer.
//!
//! The untraced operation calls the user-facing entry point. The traced
//! operation makes the same calls one layer at a time and must return the
//! same verdict and the same invariant.

use crate::expect::{check, classify_answer, sorted, Answer, Core, Outcome};
use crate::layers::{traced, Layers, TIMED_CALLS};
use crate::offclock::Checks;
use crate::run::{Op, Run};
use crate::stats::median;
use hh_isa::{InstrClass, Mnemonic};
use hh_smt::Predicate;
use hh_uarch::Design;
use hhoudini::mine::CoiMiner;
use hhoudini::{EngineConfig, Invariant, ParallelEngine};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;
use veloct::examples::{differential_test, generate_examples_custom, generate_examples_opts};
use veloct::{default_candidates, Veloct, VeloctConfig};

/// The destination-register rotation of `sparse-backtrack`'s examples: a
/// single register, the example regime of the paper's Figure 5.
const SPARSE_RDS: [u8; 1] = [3];
/// Example RNG seed `hh_bench::prepare_rds` uses.
const SPARSE_EXAMPLE_SEED: u64 = 0xBEEF;

/// Which batch pipeline a workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Batch {
    /// `Veloct::classify(default_candidates())`.
    Ladder,
    /// `prepare_rds(.., &[3])`, `CoiMiner`, `ParallelEngine`.
    Sparse,
    /// `Veloct::learn` (certify), `emit_certificate`, `check_bundle`.
    Certify,
}

impl Batch {
    /// The designs of one pass, smallest first (each pass shuffles them).
    pub fn cores(self) -> &'static [Core] {
        use Core::*;
        match self {
            Batch::Ladder => &[Rocket, Small, Medium, Large],
            Batch::Sparse => &[Small, Medium, Large],
            Batch::Certify => &[Rocket, Small, Medium, Large],
        }
    }

    /// The hand-written answer for one design. Learning workloads prove the
    /// safe set classification arrives at.
    pub fn answer(self, core: Core) -> Answer {
        match self {
            Batch::Ladder => Answer::SafeSet(classify_answer(core)),
            Batch::Sparse | Batch::Certify => Answer::Proved,
        }
    }
}

/// A built design of the workload.
pub struct Loaded {
    core: Core,
    design: Design,
}

/// Builds the workload's designs (the timed part of set-up).
pub fn setup(batch: Batch) -> Vec<Loaded> {
    batch
        .cores()
        .iter()
        .map(|&core| Loaded {
            core,
            design: core.build(),
        })
        .collect()
}

/// What one operation returned, for checking.
struct Verdict {
    outcome: Outcome,
    safe: Vec<Mnemonic>,
    inv: Option<Invariant>,
}

impl Verdict {
    /// A verdict that comes with no invariant.
    fn without_invariant(outcome: Outcome, safe: Vec<Mnemonic>) -> Verdict {
        Verdict {
            outcome,
            safe,
            inv: None,
        }
    }

    /// Classification that kept nothing provable.
    fn nothing_kept() -> Verdict {
        let outcome = Outcome::Classified {
            safe: vec![],
            proved: false,
        };
        Verdict::without_invariant(outcome, vec![])
    }
}

fn config(batch: Batch, threads: usize) -> VeloctConfig {
    VeloctConfig {
        threads,
        certify: batch == Batch::Certify,
        ..VeloctConfig::default()
    }
}

fn proved(inv: &Option<Invariant>) -> Outcome {
    if inv.is_some() {
        Outcome::Proved
    } else {
        Outcome::Unprovable
    }
}

/// The untraced operation: the user-facing entry point of the workload.
fn operate(batch: Batch, d: &Loaded, threads: usize, scratch: &Path) -> Verdict {
    let cfg = config(batch, threads);
    let veloct = Veloct::with_config(&d.design, cfg);
    match batch {
        Batch::Ladder => {
            let report = veloct.classify(&default_candidates());
            let safe = sorted(report.safe);
            Verdict {
                outcome: Outcome::Classified {
                    safe: safe.clone(),
                    proved: report.invariant.is_some(),
                },
                safe,
                inv: report.invariant,
            }
        }
        Batch::Sparse => {
            let safe = classify_answer(d.core);
            let (miter, examples, props, patterns) =
                hh_bench::prepare_rds(&d.design, &safe, true, &SPARSE_RDS);
            let miner = CoiMiner::new(&miter, &examples, Some(patterns), vec![]);
            let mut engine =
                ParallelEngine::new(miter.netlist(), miner, EngineConfig::default(), threads);
            let inv = engine.learn(&props);
            Verdict {
                outcome: proved(&inv),
                safe,
                inv,
            }
        }
        Batch::Certify => {
            let safe = classify_answer(d.core);
            let report = veloct.learn(&safe);
            let Some(inv) = report.invariant else {
                let outcome = match report.divergence {
                    Some(_) => Outcome::Diverged,
                    None => Outcome::Unprovable,
                };
                return Verdict::without_invariant(outcome, safe);
            };
            let dir = bundle_dir(scratch, d.core);
            let checked = veloct
                .emit_certificate(&safe, &inv, &report.solutions, &dir)
                .and_then(|_| hh_proof::cert::check_bundle(&dir));
            Verdict {
                outcome: certified(checked),
                safe,
                inv: Some(inv),
            }
        }
    }
}

fn certified(checked: Result<hh_proof::cert::CheckReport, hh_proof::cert::CertError>) -> Outcome {
    match checked {
        Ok(_) => Outcome::Proved,
        Err(e) => Outcome::Error(format!("certificate rejected: {e}")),
    }
}

fn bundle_dir(scratch: &Path, core: Core) -> PathBuf {
    scratch.join(format!("cert-{}", core.name()))
}

/// The traced operation: the same pipeline, one public layer call at a
/// time, in the order the pipeline makes them.
fn operate_layered(
    batch: Batch,
    d: &Loaded,
    threads: usize,
    scratch: &Path,
    layers: &mut Layers,
) -> Verdict {
    let cfg = config(batch, threads);
    let veloct = Veloct::with_config(&d.design, cfg.clone());
    let design = &d.design;
    match batch {
        Batch::Ladder => {
            // `Veloct::classify`, spelled out.
            let candidates = default_candidates();
            let (probe, _) = layers.time("netlist.miter_s", || veloct.build_miter(&candidates));
            let mut survivors: Vec<Mnemonic> = layers.time("veloct.difftest_s", || {
                candidates
                    .iter()
                    .copied()
                    .filter(|&m| differential_test(design, &probe, m).is_none())
                    .collect()
            });
            drop(probe);
            let mut drops = 0;
            loop {
                if survivors.is_empty() {
                    return Verdict::nothing_kept();
                }
                let learned = match learn_layered(&veloct, &cfg, &survivors, layers, None) {
                    Ok(l) => l,
                    Err(diverged) => {
                        survivors.retain(|&x| x != diverged);
                        continue;
                    }
                };
                if let Some(inv) = learned.inv {
                    let safe = sorted(survivors);
                    return Verdict {
                        outcome: Outcome::Classified {
                            safe: safe.clone(),
                            proved: true,
                        },
                        inv: Some(inv),
                        safe,
                    };
                }
                if drops >= cfg.fallback_drops {
                    return Verdict::nothing_kept();
                }
                drops += 1;
                let victim = survivors
                    .iter()
                    .position(|m| m.class() == InstrClass::Mul)
                    .unwrap_or(survivors.len() - 1);
                survivors.remove(victim);
            }
        }
        Batch::Sparse => {
            let safe = classify_answer(d.core);
            let examples = Some((SPARSE_EXAMPLE_SEED, 1, &SPARSE_RDS[..]));
            let learned = match learn_layered(&veloct, &cfg, &safe, layers, examples) {
                Ok(l) => l,
                Err(_) => return Verdict::without_invariant(Outcome::Diverged, safe),
            };
            Verdict {
                outcome: proved(&learned.inv),
                safe,
                inv: learned.inv,
            }
        }
        Batch::Certify => {
            let safe = classify_answer(d.core);
            let learned = match learn_layered(&veloct, &cfg, &safe, layers, None) {
                Ok(l) => l,
                Err(_) => return Verdict::without_invariant(Outcome::Diverged, safe),
            };
            let Some(inv) = learned.inv else {
                return Verdict::without_invariant(Outcome::Unprovable, safe);
            };
            let dir = bundle_dir(scratch, d.core);
            let emitted = layers.time("proof.emit_s", || {
                veloct.emit_certificate(&safe, &inv, &learned.solutions, &dir)
            });
            let checked = emitted
                .and_then(|_| layers.time("proof.check_s", || hh_proof::cert::check_bundle(&dir)));
            Verdict {
                outcome: certified(checked),
                safe,
                inv: Some(inv),
            }
        }
    }
}

/// What a layered learn produced.
struct Learned {
    inv: Option<Invariant>,
    solutions: Vec<(Predicate, Vec<Predicate>)>,
}

/// `Veloct::learn`, spelled out: miter, examples, miner, engine. With
/// `examples` set to `(seed, pairs, rds)` the examples are generated the
/// way `hh_bench::prepare_rds` generates them. `Err` names the mnemonic
/// whose example pair diverged.
fn learn_layered(
    veloct: &Veloct<'_>,
    cfg: &VeloctConfig,
    safe: &[Mnemonic],
    layers: &mut Layers,
    examples: Option<(u64, usize, &[u8])>,
) -> Result<Learned, Mnemonic> {
    let design = veloct.design();
    let (miter, patterns) = layers.time("netlist.miter_s", || veloct.build_miter(safe));
    let generated = layers.time("veloct.examples_s", || match examples {
        None => generate_examples_opts(
            design,
            &miter,
            safe,
            cfg.pairs_per_instr,
            cfg.seed,
            !cfg.impl_predicates,
        ),
        Some((seed, pairs, rds)) => {
            generate_examples_custom(design, &miter, safe, pairs, seed, true, rds)
        }
    });
    let examples = generated.map_err(|div| div.mnemonic)?;
    let miner = layers.time("core.mine_s", || {
        CoiMiner::new(&miter, &examples, Some(patterns), vec![])
    });
    let props = veloct.property(&miter);
    let mut engine_cfg = cfg.engine.clone();
    if cfg.certify {
        engine_cfg.clause_transfer = false;
    }
    let (inv, stats, solutions) = layers.time("core.engine_s", || {
        let mut engine = ParallelEngine::new(miter.netlist(), miner, engine_cfg, cfg.threads);
        let inv = engine.learn(&props);
        (inv, engine.stats().clone(), engine.solutions())
    });
    layers.max("sat.arena_bytes", stats.sat_arena_bytes as f64);
    layers.max("sat.watch_bytes", stats.sat_watch_bytes as f64);
    if let Some(inv) = &inv {
        layers.add("core.invariant_preds", inv.len() as f64);
    }
    Ok(Learned { inv, solutions })
}

/// Runs one batch workload: passes over the designs, in a seeded order,
/// until `seconds` have been measured; with `trace`, every other pass is
/// the traced, layer-by-layer one.
pub fn run(batch: Batch, seed: u64, seconds: f64, trace: bool, run: &mut Run) {
    let threads = crate::host::engine_threads();
    run.threads = threads;
    let scratch = run.scratch.clone();
    // Building the designs takes about a millisecond: many repeats, and
    // more after every pass, keep the median steady.
    let designs = run.setup(51, || setup(batch));
    let mut checks: Checks<Core> = Checks::new();
    let mut reference: BTreeMap<Core, (Outcome, Option<Vec<Predicate>>)> = BTreeMap::new();
    let started = Instant::now();
    let mut pass_idx = 0u64;
    loop {
        let traced_pass = trace && pass_idx % 2 == 1;
        let order = crate::run::shuffled(designs.len(), seed, pass_idx);
        let t0 = Instant::now();
        let mut layers = Layers::default();
        let mut one = |i: usize| {
            let t = Instant::now();
            let v = if traced_pass {
                operate_layered(batch, &designs[i], threads, &scratch, &mut layers)
            } else {
                operate(batch, &designs[i], threads, &scratch)
            };
            (i, t.elapsed().as_secs_f64(), v)
        };
        let ops: Vec<_> = if traced_pass {
            let (ops, tr) = traced(|| order.iter().map(|&i| one(i)).collect());
            layers.add_trace(&tr, threads);
            ops
        } else {
            order.iter().map(|&i| one(i)).collect()
        };
        let wall = t0.elapsed().as_secs_f64();
        for (i, secs, v) in ops {
            let core = designs[i].core;
            let what = format!(
                "{} {}",
                if traced_pass { "traced" } else { "op" },
                core.name()
            );
            let mut verdict = check(&batch.answer(core), &v.outcome);
            // Every pass, traced or not, must return the first pass's
            // verdict and invariant for the design.
            let this = (
                v.outcome.clone(),
                v.inv.as_ref().map(|i| i.preds().to_vec()),
            );
            match reference.get(&core) {
                Some(r) if *r != this => {
                    verdict = verdict.and(Err("differs from the first pass".to_string()))
                }
                Some(_) => {}
                None => {
                    reference.insert(core, this);
                }
            }
            run.tally.op(&what, verdict);
            if let Some(inv) = &v.inv {
                checks.add(core, &v.safe, inv, 1);
            }
            if !traced_pass {
                run.ops.push(Op {
                    item: core.name(),
                    secs,
                });
            }
        }
        run.resample_setup(10, || setup(batch));
        if traced_pass {
            layers.finish(wall, TIMED_CALLS);
            run.traced_passes.push(wall);
            run.layers.get_or_insert(layers);
        } else {
            run.passes.push(wall);
        }
        pass_idx += 1;
        let enough_traced = !trace || !run.traced_passes.is_empty();
        if started.elapsed().as_secs_f64() >= seconds && enough_traced && !run.passes.is_empty() {
            break;
        }
    }
    run.measured_done();
    if let (Some(layers), Some(t), Some(u)) = (
        run.layers.as_mut(),
        median(&run.traced_passes),
        median(&run.passes),
    ) {
        layers.set("trace.overhead", t / u);
    }
    checks.run(|c| c.build(), |c| c.name().to_string(), &mut run.tally);
    run.note(format!(
        "{} distinct invariant(s) checked off the clock",
        checks.len()
    ));
}
