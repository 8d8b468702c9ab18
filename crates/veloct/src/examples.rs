//! Positive-example generation (paper §5.2) and differential timing tests.
//!
//! For each proposed-safe instruction we simulate a *pair* of executions
//! that run the same NOP-padded program but start from equal-modulo-secret
//! states (the architectural registers differ). Each cycle of the paired
//! trace yields a product state; if the observable waveforms ever diverge,
//! the pair is direct evidence the instruction is unsafe (Def. 4.2/4.8 —
//! a positive example must satisfy the property). Otherwise the product
//! states are *cleaned* by example masking (§5.2.1) and become the positive
//! example set `E`.

use hh_isa::{asm, Instruction, Mnemonic};
use hh_netlist::eval::{InputValues, StateValues};
use hh_netlist::miter::Miter;
use hh_netlist::Bv;
use hh_sim::{product_state, simulate, Trace};
use hh_uarch::Design;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicUsize, Ordering};

/// A left/right assignment of the architectural registers: the paired
/// executions differ exactly here (equal-modulo-secret initial states).
#[derive(Debug, Clone)]
pub struct SecretConfig {
    /// Left-side values for registers x1..x(n-1).
    pub left: Vec<u64>,
    /// Right-side values.
    pub right: Vec<u64>,
}

impl SecretConfig {
    fn uniform(design: &Design, left: &[(usize, u64)], right: &[(usize, u64)]) -> SecretConfig {
        let n = design.secret_regs.len();
        let mut l = vec![0u64; n];
        let mut r = vec![0u64; n];
        for &(reg, v) in left {
            l[reg - 1] = v;
        }
        for &(reg, v) in right {
            r[reg - 1] = v;
        }
        SecretConfig { left: l, right: r }
    }
}

/// The register that example programs use as a *public* (side-equal) memory
/// base address.
pub const PUBLIC_BASE_REG: usize = 4;
/// The public base address value.
pub const PUBLIC_BASE_ADDR: u64 = 0x40;

/// The null instruction ε: an undecodable word that the cores drop at the
/// front end (a fetch bubble). Programs pad with ε so the machine *drains*
/// between instructions — a stream of real NOPs would keep deep reorder
/// buffers saturated and architecturally hide downstream latency variation.
pub const BUBBLE: u32 = 0;

/// Curated secret configurations for *differential testing*: chosen to
/// trigger the operand-dependent fast/slow paths real microarchitectures
/// have (zero operands for zero-skip multipliers and probed registers,
/// equal/unequal operands for branches, cache hit-vs-miss address pairs).
pub fn adversarial_configs(design: &Design) -> Vec<SecretConfig> {
    let base = PUBLIC_BASE_ADDR;
    vec![
        // r1 differs, both nonzero.
        SecretConfig::uniform(
            design,
            &[(1, 3), (2, 7), (PUBLIC_BASE_REG, base)],
            &[(1, 9), (2, 7), (PUBLIC_BASE_REG, base)],
        ),
        // r2 differs with a zero (zero-skip / probe fast paths).
        SecretConfig::uniform(
            design,
            &[(1, 4), (2, 0), (PUBLIC_BASE_REG, base)],
            &[(1, 4), (2, 6), (PUBLIC_BASE_REG, base)],
        ),
        // r1 differs with a zero.
        SecretConfig::uniform(
            design,
            &[(1, 0), (2, 5), (PUBLIC_BASE_REG, base)],
            &[(1, 8), (2, 5), (PUBLIC_BASE_REG, base)],
        ),
        // Equal vs unequal operand pair (branch direction).
        SecretConfig::uniform(
            design,
            &[(1, 5), (2, 5), (PUBLIC_BASE_REG, base)],
            &[(1, 5), (2, 6), (PUBLIC_BASE_REG, base)],
        ),
        // Cache collision: left address equals the warmed public line,
        // right maps to the same set with a different tag.
        SecretConfig::uniform(
            design,
            &[(1, base), (2, base), (PUBLIC_BASE_REG, base)],
            &[(1, base + 0x40), (2, base + 0x40), (PUBLIC_BASE_REG, base)],
        ),
    ]
}

/// Random nonzero secret configurations for example generation. Zero is
/// excluded deliberately: the paper's generator only needs the values to
/// *differ*, and genuinely safe instructions are timing-equal for any
/// values; unsafe ones are weeded out by the adversarial configs first.
pub fn random_configs(design: &Design, count: usize, seed: u64) -> Vec<SecretConfig> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mask = if design.xlen >= 64 {
        u64::MAX
    } else {
        (1u64 << design.xlen) - 1
    };
    (0..count)
        .map(|_| {
            let mut draw = |exclude: u64| loop {
                let v = rng.gen::<u64>() & mask;
                if v != 0 && v != exclude {
                    return v;
                }
            };
            let l1 = draw(0);
            let r1 = draw(l1);
            let l2 = draw(0);
            let r2 = draw(l2);
            SecretConfig::uniform(
                design,
                &[(1, l1), (2, l2), (PUBLIC_BASE_REG, PUBLIC_BASE_ADDR)],
                &[(1, r1), (2, r2), (PUBLIC_BASE_REG, PUBLIC_BASE_ADDR)],
            )
        })
        .collect()
}

/// The canonical operand binding of example programs: `rd = x3, rs1 = x1,
/// rs2 = x2`.
pub fn exemplar(m: Mnemonic) -> Instruction {
    asm::exemplar(m, 3, 1, 2)
}

/// Destination registers rotated across the copies of the instruction under
/// analysis. Coverage matters (paper §3.2.1: backtracking is caused by
/// deficiencies in positive examples): every architectural register must be
/// written by some example, otherwise spurious `EqConst(busy_r, 0)`-style
/// predicates survive mining, get picked into abducts, fail, and force
/// backtracks. The public base register (x4) is written last, after the
/// memory system no longer needs it.
pub(crate) const EXAMPLE_RDS: [u8; 7] = [3, 5, 6, 7, 1, 2, 4];

/// Builds the adversarial *probe* program for differential testing: a
/// cache-warming public access, NOP padding, the instruction under test,
/// drain padding. The warm access gives cache-timing channels something to
/// hit or miss against.
pub fn probe_program(design: &Design, m: Mnemonic) -> Vec<u32> {
    let pad = design.max_latency + 2;
    let mut prog = Vec::new();
    // Warm the cache at the public base so cache state is probe-visible.
    prog.push(asm::lw(6, PUBLIC_BASE_REG as u8, 0).encode());
    prog.extend(std::iter::repeat_n(BUBBLE, pad));
    prog.push(exemplar(m).encode());
    prog.extend(std::iter::repeat_n(BUBBLE, 2 * pad));
    prog
}

/// Builds the example program for positive-example generation and returns
/// `(program, window_start)`.
///
/// As in the paper (§5.2), the infrastructure's start-up code contains an
/// *unsafe* instruction — a store that initialises the memory system at the
/// public base address. Example extraction therefore starts at
/// `window_start` (the cycle the instruction under analysis is fed), so no
/// extracted state has the unsafe instruction concurrently in flight; what
/// remains of it is *residue* in the out-of-order structures, which example
/// masking (§5.2.1) scrubs.
pub fn example_program(design: &Design, m: Mnemonic) -> (Vec<u32>, usize) {
    example_program_with_rds(design, m, &EXAMPLE_RDS)
}

/// [`example_program`] with an explicit destination-register rotation —
/// passing fewer registers yields deliberately *less* exhaustive examples
/// (more spurious predicates survive mining, more backtracking), which is
/// how the benchmarks reproduce the paper's Figure 5 regime.
pub fn example_program_with_rds(design: &Design, m: Mnemonic, rds: &[u8]) -> (Vec<u32>, usize) {
    let pad = design.max_latency + 2;
    let mut prog = Vec::new();
    // Unsafe start-up: a store to the public base (identical on both sides).
    prog.push(asm::sw(PUBLIC_BASE_REG as u8, PUBLIC_BASE_REG as u8, 0).encode());
    prog.extend(std::iter::repeat_n(BUBBLE, pad));
    // A real NOP so examples cover NOP execution states.
    prog.push(asm::nop().encode());
    prog.extend(std::iter::repeat_n(BUBBLE, pad));
    let window_start = prog.len();
    // Several copies of the instruction under analysis with rotating
    // destination registers and alternating source bindings: this exercises
    // every scoreboard bit, wraps the reorder buffer and reuses issue-queue
    // slots, so that values which are *not* architectural constants vary in
    // the example set. The rotation repeats until the deepest structure of
    // the design has wrapped at least once.
    let copies = rds.len().max(design.example_depth);
    for i in 0..copies {
        let rd = rds[i % rds.len()];
        let (rs1, rs2) = if i % 2 == 0 { (1, 2) } else { (2, 1) };
        prog.push(asm::exemplar(m, rd, rs1, rs2).encode());
        prog.extend(std::iter::repeat_n(BUBBLE, pad));
    }
    prog.push(asm::nop().encode());
    prog.extend(std::iter::repeat_n(BUBBLE, pad));
    (prog, window_start)
}

fn initial_state(design: &Design, values: &[u64]) -> StateValues {
    let mut s = StateValues::initial(&design.netlist);
    for (i, &v) in values.iter().enumerate() {
        s.set(design.secret_regs[i], Bv::new(design.xlen, v));
    }
    s
}

/// The per-cycle inputs that feed `prog` to the design, ε-padded to
/// `prog.len() + max_latency` cycles. They depend only on the program, so
/// each program's inputs are built once and shared by every pair running it.
fn drive(design: &Design, prog: &[u32]) -> Vec<InputValues> {
    let netlist = &design.netlist;
    let instr = netlist
        .input_ids()
        .position(|i| netlist.input_name(i) == design.instr_input)
        .unwrap_or_else(|| panic!("no input named {}", design.instr_input));
    let idle = InputValues::zeros(netlist);
    (0..prog.len() + design.max_latency)
        .map(|c| {
            let w = prog.get(c).copied().unwrap_or(BUBBLE);
            let mut iv = idle.clone();
            iv.set(instr, Bv::new(32, w as u64));
            iv
        })
        .collect()
}

/// Evidence that an instruction pair diverged: the observable waveforms
/// differ at `cycle`.
#[derive(Debug, Clone)]
pub struct Divergence {
    /// The instruction under test.
    pub mnemonic: Mnemonic,
    /// First differing cycle.
    pub cycle: usize,
}

/// Simulates both sides of a pair on the shared `inputs` and checks trace
/// indistinguishability on the observables (Def. 4.2), reporting the first
/// differing cycle of the first observable (in annotation order) that
/// differs.
fn simulate_pair(
    design: &Design,
    m: Mnemonic,
    inputs: &[InputValues],
    config: &SecretConfig,
) -> Result<(Trace, Trace), Divergence> {
    let lt = simulate(&design.netlist, initial_state(design, &config.left), inputs);
    let rt = simulate(
        &design.netlist,
        initial_state(design, &config.right),
        inputs,
    );
    for &o in &design.observable {
        let i = o.index();
        if let Some(cycle) = (0..=lt.cycles()).position(|c| lt.row(c)[i] != rt.row(c)[i]) {
            return Err(Divergence { mnemonic: m, cycle });
        }
    }
    Ok((lt, rt))
}

/// One paired execution over prebuilt `inputs`: the product states from
/// `window_start` on, masked when `mask` is set, or the divergence evidence.
///
/// A cycle whose (left, right) state rows equal the previous cycle's yields
/// the same product state again, so it is not built: consecutive repeats
/// are collapsed, and the *set* of states is that of every cycle.
fn pair_examples(
    design: &Design,
    miter: &Miter,
    m: Mnemonic,
    inputs: &[InputValues],
    config: &SecretConfig,
    window_start: usize,
    mask: bool,
) -> Result<Vec<StateValues>, Divergence> {
    let (lt, rt) = simulate_pair(design, m, inputs, config)?;
    // Def. 4.8: each example must step to another positive example; the
    // final state, whose successor we did not observe, is not one.
    let mut states = Vec::new();
    let (mut left, mut right) = (Vec::new(), Vec::new());
    for c in window_start..lt.cycles() {
        if c > window_start && lt.row(c) == lt.row(c - 1) && rt.row(c) == rt.row(c - 1) {
            continue;
        }
        left.clear();
        left.extend_from_slice(lt.row(c));
        right.clear();
        right.extend_from_slice(rt.row(c));
        if mask {
            apply_masking(design, &mut left);
            apply_masking(design, &mut right);
        }
        states.push(product_state(miter, &left, &right));
    }
    Ok(states)
}

/// Runs one paired execution of the given program under `config`; `m` is
/// carried for divergence reporting. Returns the masked product states
/// (consecutive repeats collapsed) or the divergence evidence.
pub fn run_program_pair(
    design: &Design,
    miter: &Miter,
    m: Mnemonic,
    prog: &[u32],
    config: &SecretConfig,
) -> Result<Vec<StateValues>, Divergence> {
    run_program_pair_window(design, miter, m, prog, config, 0, true)
}

/// [`run_program_pair`] extracting examples only from `window_start`
/// onwards (the in-flight window of §5.2, excluding start-up cycles whose
/// states reflect unsafe-instruction execution), with example masking
/// applied only when `mask` is set (off for the §5.2.1 ablation). The
/// divergence check still covers the whole trace.
pub fn run_program_pair_window(
    design: &Design,
    miter: &Miter,
    m: Mnemonic,
    prog: &[u32],
    config: &SecretConfig,
    window_start: usize,
    mask: bool,
) -> Result<Vec<StateValues>, Divergence> {
    let inputs = drive(design, prog);
    pair_examples(design, miter, m, &inputs, config, window_start, mask)
}

/// Runs one paired execution of `m`'s adversarial probe program.
pub fn run_pair(
    design: &Design,
    miter: &Miter,
    m: Mnemonic,
    config: &SecretConfig,
) -> Result<Vec<StateValues>, Divergence> {
    let prog = probe_program(design, m);
    run_program_pair(design, miter, m, &prog, config)
}

/// Example masking (§5.2.1) on one side's state row of the base design:
/// entries whose valid bit is 0 are reset to their initial values so stale
/// uop/operand residue cannot block predicate mining.
pub fn apply_masking(design: &Design, row: &mut [u64]) {
    for rule in &design.masking {
        if row[rule.valid.index()] != 0 {
            continue;
        }
        for &f in &rule.fields {
            row[f.index()] = design.netlist.init_of(f).bits();
        }
    }
}

/// Order-preserving parallel map of `f` over `0..n` on up to `threads`
/// scoped workers that claim indices from a shared counter. With one thread
/// (or one job) it runs inline on the caller's thread and spawns nothing.
fn par_map<R: Send>(threads: usize, n: usize, f: impl Fn(usize) -> R + Sync) -> Vec<R> {
    let workers = threads.min(n);
    if workers <= 1 {
        return (0..n).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        // Relaxed: the counter only hands out indices; the
                        // results reach the caller through `join`.
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            return done;
                        }
                        done.push((i, f(i)));
                    }
                })
            })
            .collect();
        for handle in handles {
            match handle.join() {
                Ok(done) => {
                    for (i, r) in done {
                        slots[i] = Some(r);
                    }
                }
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
    });
    slots
        .into_iter()
        .map(|r| r.expect("every index is claimed by exactly one worker"))
        .collect()
}

/// Differentially tests `m` with the adversarial configurations; returns
/// divergence evidence if any pair's observable timing differs. The verdict
/// depends on the base design's traces alone, so `_miter` is not consulted.
pub fn differential_test(design: &Design, _miter: &Miter, m: Mnemonic) -> Option<Divergence> {
    differential_tests(design, &[m], 1)
        .pop()
        .expect("one verdict per candidate")
}

/// [`differential_test`] for every candidate, fanned out over `threads`:
/// verdicts come back in candidate order, and each candidate's adversarial
/// configurations run serially over one shared probe stimulus, stopping at
/// the first divergence.
pub(crate) fn differential_tests(
    design: &Design,
    candidates: &[Mnemonic],
    threads: usize,
) -> Vec<Option<Divergence>> {
    let configs = adversarial_configs(design);
    par_map(threads, candidates.len(), |i| {
        let m = candidates[i];
        let inputs = drive(design, &probe_program(design, m));
        configs
            .iter()
            .find_map(|config| simulate_pair(design, m, &inputs, config).err())
    })
}

/// Generates the positive example set for a proposed safe set: paired traces
/// for every instruction (random nonzero secrets), cleaned and deduplicated.
///
/// # Errors
///
/// Returns the first [`Divergence`] encountered — generation-time proof that
/// some proposed instruction is unsafe.
pub fn generate_examples(
    design: &Design,
    miter: &Miter,
    safe: &[Mnemonic],
    pairs_per_instr: usize,
    seed: u64,
) -> Result<Vec<StateValues>, Divergence> {
    generate_examples_opts(design, miter, safe, pairs_per_instr, seed, true)
}

/// [`generate_examples`] with example masking optionally disabled — the
/// ablation of §5.2.1: without masking, stale-uop residue in out-of-order
/// structures blocks the `InSafeSet` predicates the invariant needs.
pub fn generate_examples_opts(
    design: &Design,
    miter: &Miter,
    safe: &[Mnemonic],
    pairs_per_instr: usize,
    seed: u64,
    mask: bool,
) -> Result<Vec<StateValues>, Divergence> {
    generate_examples_custom(
        design,
        miter,
        safe,
        pairs_per_instr,
        seed,
        mask,
        &EXAMPLE_RDS,
    )
}

/// [`generate_examples_opts`] with an explicit destination-register
/// rotation (example-richness knob).
#[allow(clippy::too_many_arguments)]
pub fn generate_examples_custom(
    design: &Design,
    miter: &Miter,
    safe: &[Mnemonic],
    pairs_per_instr: usize,
    seed: u64,
    mask: bool,
    rds: &[u8],
) -> Result<Vec<StateValues>, Divergence> {
    generate_examples_threaded(design, miter, safe, pairs_per_instr, seed, mask, rds, 1)
}

/// [`generate_examples_custom`] fanned out over `threads`, one job per
/// `(instruction, config)` pair. The example set is identical at every
/// thread count, and so is the reported divergence: the one with the lowest
/// job index, which is the first a serial loop meets. Jobs after a known
/// divergence are skipped.
#[allow(clippy::too_many_arguments)]
pub(crate) fn generate_examples_threaded(
    design: &Design,
    miter: &Miter,
    safe: &[Mnemonic],
    pairs_per_instr: usize,
    seed: u64,
    mask: bool,
    rds: &[u8],
    threads: usize,
) -> Result<Vec<StateValues>, Divergence> {
    let programs: Vec<(Vec<InputValues>, usize)> = safe
        .iter()
        .map(|&m| {
            let (prog, window) = example_program_with_rds(design, m, rds);
            (drive(design, &prog), window)
        })
        .collect();
    let jobs: Vec<(usize, SecretConfig)> = (0..safe.len())
        .flat_map(|k| {
            random_configs(design, pairs_per_instr, seed ^ ((k as u64) << 8))
                .into_iter()
                .map(move |config| (k, config))
        })
        .collect();
    // Relaxed: only a skip hint. A job is skipped only when a lower job has
    // already diverged, so the lowest diverging job always runs.
    let first_divergence = AtomicUsize::new(usize::MAX);
    let results = par_map(threads, jobs.len(), |j| {
        if j > first_divergence.load(Ordering::Relaxed) {
            return None;
        }
        let (k, config) = &jobs[j];
        let (inputs, window) = &programs[*k];
        match pair_examples(design, miter, safe[*k], inputs, config, *window, mask) {
            Ok(mut states) => {
                states.sort_unstable_by(by_values);
                states.dedup();
                Some(Ok(states))
            }
            Err(div) => {
                first_divergence.fetch_min(j, Ordering::Relaxed);
                Some(Err(div))
            }
        }
    });
    let mut out: Vec<StateValues> = Vec::new();
    for states in results.into_iter().flatten() {
        out.extend(states?);
    }
    // Equal elements are identical, so the unstable sort loses nothing.
    out.sort_unstable_by(by_values);
    out.dedup();
    Ok(out)
}

fn by_values(a: &StateValues, b: &StateValues) -> std::cmp::Ordering {
    a.iter().map(|(_, v)| v).cmp(b.iter().map(|(_, v)| v))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hh_uarch::boomlite::{boom_lite, BoomVariant};
    use hh_uarch::rocketlite::rocket_lite;

    #[test]
    fn safe_alu_instruction_generates_examples() {
        let d = rocket_lite(16);
        let m = Miter::build(&d.netlist);
        let cfgs = random_configs(&d, 2, 7);
        for c in cfgs {
            let states = run_pair(&d, &m, Mnemonic::Add, &c).expect("add is timing-safe");
            assert!(states.len() > 10);
            // Property holds on every example: observables equal.
            for s in &states {
                for &o in &d.observable {
                    assert_eq!(s.get(m.left(o)), s.get(m.right(o)));
                }
            }
        }
    }

    #[test]
    fn mul_diverges_on_rocketlite() {
        let d = rocket_lite(16);
        let m = Miter::build(&d.netlist);
        let div = differential_test(&d, &m, Mnemonic::Mul);
        assert!(div.is_some(), "zero-skip multiplier must be caught");
    }

    #[test]
    fn mul_is_clean_on_boomlite() {
        let d = boom_lite(BoomVariant::Small, 16);
        let m = Miter::build(&d.netlist);
        assert!(differential_test(&d, &m, Mnemonic::Mul).is_none());
        assert!(differential_test(&d, &m, Mnemonic::Mulhu).is_none());
    }

    #[test]
    fn auipc_diverges_on_boomlite_but_not_rocketlite() {
        let db = boom_lite(BoomVariant::Small, 16);
        let mb = Miter::build(&db.netlist);
        assert!(
            differential_test(&db, &mb, Mnemonic::Auipc).is_some(),
            "the jump-unit probe quirk must surface"
        );
        let dr = rocket_lite(16);
        let mr = Miter::build(&dr.netlist);
        assert!(differential_test(&dr, &mr, Mnemonic::Auipc).is_none());
    }

    #[test]
    fn memory_ops_diverge() {
        let d = rocket_lite(16);
        let m = Miter::build(&d.netlist);
        assert!(differential_test(&d, &m, Mnemonic::Lw).is_some());
        assert!(differential_test(&d, &m, Mnemonic::Sw).is_some());
        let db = boom_lite(BoomVariant::Small, 16);
        let mb = Miter::build(&db.netlist);
        assert!(differential_test(&db, &mb, Mnemonic::Lw).is_some());
    }

    #[test]
    fn branches_diverge() {
        let d = rocket_lite(16);
        let m = Miter::build(&d.netlist);
        assert!(differential_test(&d, &m, Mnemonic::Beq).is_some());
        assert!(differential_test(&d, &m, Mnemonic::Bne).is_some());
    }

    #[test]
    fn masking_scrubs_invalid_entries() {
        let d = boom_lite(BoomVariant::Small, 16);
        let m = Miter::build(&d.netlist);
        // Run a mul, then inspect post-issue states: the stale muliq uop
        // must be masked back to the NOP reset value.
        let cfg = &random_configs(&d, 1, 3)[0];
        let states = run_pair(&d, &m, Mnemonic::Mul, cfg).unwrap();
        let uop0 = d.netlist.find_state("muliq$uop0").unwrap();
        let v0 = d.netlist.find_state("muliq$v0").unwrap();
        let nopw = hh_isa::Instruction::nop().encode() as u64;
        for s in &states {
            if !s.get(m.left(v0)).is_nonzero() {
                assert_eq!(
                    s.get(m.left(uop0)).bits(),
                    nopw,
                    "invalid entry must be masked to reset"
                );
            }
        }
        // And at least one state *did* have the entry valid with a real mul.
        let mulw = exemplar(Mnemonic::Mul).encode() as u64;
        assert!(states
            .iter()
            .any(|s| s.get(m.left(v0)).is_nonzero() && s.get(m.left(uop0)).bits() == mulw));
    }

    #[test]
    fn generate_examples_for_small_safe_set() {
        let d = rocket_lite(16);
        let m = Miter::build(&d.netlist);
        let safe = [Mnemonic::Add, Mnemonic::Addi, Mnemonic::Xor];
        let ex = generate_examples(&d, &m, &safe, 1, 11).expect("all safe");
        // Idle (ε-padded) cycles dedup heavily; what matters is coverage:
        // at least one state per instruction with it in the decode register.
        assert!(ex.len() > 5, "got {}", ex.len());
        let dec = d.netlist.find_state("dec_instr").unwrap();
        for &mn in &safe {
            let w = exemplar(mn).encode() as u64;
            assert!(
                ex.iter().any(|s| s.get(m.left(dec)).bits() == w),
                "no example with {mn} in flight"
            );
        }
    }

    #[test]
    fn generate_examples_fails_fast_on_unsafe_member() {
        let d = rocket_lite(16);
        let m = Miter::build(&d.netlist);
        // With nonzero random secrets, mul does NOT diverge (both slow):
        // generation succeeds even though mul is unsafe — that is exactly
        // why learning must still be able to fail (and why the adversarial
        // prefilter exists).
        let safe = [Mnemonic::Mul];
        let r = generate_examples(&d, &m, &safe, 1, 5);
        assert!(r.is_ok(), "nonzero operands hide the zero-skip path");
        // But lw diverges even under random secrets (cold/warm cache).
        let safe2 = [Mnemonic::Lw];
        let _ = generate_examples(&d, &m, &safe2, 1, 5); // may or may not diverge
    }

    #[test]
    fn collapsing_repeated_cycles_keeps_the_example_set() {
        // Reference: a product state for every cycle of the window.
        let safe = [Mnemonic::Add, Mnemonic::Mul, Mnemonic::Sll, Mnemonic::Lui];
        for d in [rocket_lite(16), boom_lite(BoomVariant::Small, 16)] {
            let m = Miter::build(&d.netlist);
            for &mn in &safe {
                let (prog, window) = example_program(&d, mn);
                let inputs = drive(&d, &prog);
                for config in random_configs(&d, 2, 0xD1CE) {
                    for mask in [true, false] {
                        let Ok((lt, rt)) = simulate_pair(&d, mn, &inputs, &config) else {
                            continue;
                        };
                        let mut expected: Vec<StateValues> = (window..lt.cycles())
                            .map(|c| {
                                let (mut l, mut r) = (lt.row(c).to_vec(), rt.row(c).to_vec());
                                if mask {
                                    apply_masking(&d, &mut l);
                                    apply_masking(&d, &mut r);
                                }
                                product_state(&m, &l, &r)
                            })
                            .collect();
                        let mut got =
                            pair_examples(&d, &m, mn, &inputs, &config, window, mask).unwrap();
                        assert!(got.len() < expected.len(), "nothing collapsed");
                        for v in [&mut expected, &mut got] {
                            v.sort_by(by_values);
                            v.dedup();
                        }
                        assert!(got == expected, "{} {mn} mask={mask}", d.netlist.name());
                    }
                }
            }
        }
    }

    /// The thread counts the invariance tests compare.
    const THREADS: [usize; 3] = [1, 2, 4];

    /// Every pair job of example generation (two pairs per instruction),
    /// run serially in job order over the public per-pair API: the
    /// independent reference for the fanned-out implementation.
    fn serial_jobs(
        d: &Design,
        m: &Miter,
        safe: &[Mnemonic],
        seed: u64,
        mask: bool,
    ) -> Vec<Result<Vec<StateValues>, Divergence>> {
        let mut out = Vec::new();
        for (k, &mn) in safe.iter().enumerate() {
            let (prog, window) = example_program(d, mn);
            for config in random_configs(d, 2, seed ^ ((k as u64) << 8)) {
                out.push(run_program_pair_window(
                    d, m, mn, &prog, &config, window, mask,
                ));
            }
        }
        out
    }

    #[test]
    fn example_set_is_identical_at_every_thread_count() {
        let safe = [
            Mnemonic::Add,
            Mnemonic::Sub,
            Mnemonic::Xor,
            Mnemonic::Mul,
            Mnemonic::Slli,
        ];
        for d in [rocket_lite(16), boom_lite(BoomVariant::Small, 16)] {
            let m = Miter::build(&d.netlist);
            for mask in [true, false] {
                let mut expected: Vec<StateValues> = serial_jobs(&d, &m, &safe, 0xD1CE, mask)
                    .into_iter()
                    .flat_map(|job| job.expect("safe set"))
                    .collect();
                expected.sort_by(by_values);
                expected.dedup();
                for threads in THREADS {
                    let got = generate_examples_threaded(
                        &d,
                        &m,
                        &safe,
                        2,
                        0xD1CE,
                        mask,
                        &EXAMPLE_RDS,
                        threads,
                    )
                    .expect("safe set");
                    assert!(
                        got == expected,
                        "{} mask={mask} threads={threads}: example sets differ",
                        d.netlist.name()
                    );
                }
            }
        }
    }

    #[test]
    fn earliest_divergence_is_reported_at_every_thread_count() {
        // sw and lw both diverge under these random secrets (cold vs warm
        // cache); sw's divergence comes first in job order.
        let safe = [Mnemonic::Sw, Mnemonic::Add, Mnemonic::Lw, Mnemonic::Xor];
        for d in [rocket_lite(16), boom_lite(BoomVariant::Small, 16)] {
            let m = Miter::build(&d.netlist);
            let all: Vec<(Mnemonic, usize)> = serial_jobs(&d, &m, &safe, 0xD1CE, true)
                .into_iter()
                .filter_map(|job| job.err().map(|div| (div.mnemonic, div.cycle)))
                .collect();
            assert!(
                all.iter().any(|&(mn, _)| mn == Mnemonic::Sw)
                    && all.iter().any(|&(mn, _)| mn == Mnemonic::Lw),
                "{}: both members must diverge, got {all:?}",
                d.netlist.name()
            );
            for threads in THREADS {
                let got = generate_examples_threaded(
                    &d,
                    &m,
                    &safe,
                    2,
                    0xD1CE,
                    true,
                    &EXAMPLE_RDS,
                    threads,
                )
                .expect_err("sw and lw diverge");
                assert_eq!(
                    (got.mnemonic, got.cycle),
                    all[0],
                    "{} threads={threads}",
                    d.netlist.name()
                );
            }
        }
    }

    #[test]
    fn difftest_verdicts_are_identical_at_every_thread_count() {
        let d = boom_lite(BoomVariant::Small, 16);
        let m = Miter::build(&d.netlist);
        let candidates = hh_isa::ALL_MNEMONICS;
        let verdict = |div: Option<Divergence>| div.map(|div| (div.mnemonic, div.cycle));
        let expected: Vec<_> = candidates
            .iter()
            .map(|&mn| verdict(differential_test(&d, &m, mn)))
            .collect();
        assert!(expected.iter().any(Option::is_some) && expected.iter().any(Option::is_none));
        for threads in THREADS {
            let got: Vec<_> = differential_tests(&d, candidates, threads)
                .into_iter()
                .map(verdict)
                .collect();
            assert_eq!(got, expected, "threads={threads}");
        }
    }
}
