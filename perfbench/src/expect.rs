//! Hand-written expected answers, and the tally that turns checked
//! verdicts into `attempted` / `failed`.
//!
//! The answers are written out here rather than derived from the library
//! (for instance from `hh_bench::known_safe_set`), so a change that makes
//! the program agree with itself on a wrong answer still fails the run.

use hh_isa::Mnemonic;
use hh_uarch::boomlite::{boom_lite, BoomVariant};
use hh_uarch::rocketlite::rocket_lite;
use hh_uarch::Design;
use std::fmt;

/// Datapath width of every design the benchmark builds (the paper-size
/// builtins are all configured at 16 bits).
pub const XLEN: u32 = 16;

/// The builtin designs, smallest first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Core {
    /// In-order five-stage core: the cheap end of the ladder (~0.1 s).
    Rocket,
    /// Out-of-order BOOM-style core, smallest configuration.
    Small,
    /// BOOM, medium configuration.
    Medium,
    /// BOOM, large configuration: the largest design the benchmark runs.
    Large,
}

impl Core {
    /// Table-1 style display name.
    pub fn name(self) -> &'static str {
        match self {
            Core::Rocket => "RocketLite",
            Core::Small => "SmallBoomLite",
            Core::Medium => "MediumBoomLite",
            Core::Large => "LargeBoomLite",
        }
    }

    /// Builds the design (this is what `setup_s` times for batch workloads).
    pub fn build(self) -> Design {
        match self {
            Core::Rocket => rocket_lite(XLEN),
            Core::Small => boom_lite(BoomVariant::Small, XLEN),
            Core::Medium => boom_lite(BoomVariant::Medium, XLEN),
            Core::Large => boom_lite(BoomVariant::Large, XLEN),
        }
    }

    fn is_boom(self) -> bool {
        self != Core::Rocket
    }
}

/// The safe set a full classification must arrive at, written out.
///
/// * RocketLite keeps exactly the 21 ALU instructions, `auipc` included.
///   Adversarial differential testing rejects the four `mul*` (the
///   multiplier skips zero operands) and `lw`/`sw` (the data cache).
/// * Every BOOM keeps 24: the ALU set without `auipc`, plus the four
///   `mul*`, whose pipelined multiplier is constant-time. Differential
///   testing rejects `auipc`, `lw` and `sw`.
pub fn classify_answer(core: Core) -> Vec<Mnemonic> {
    use Mnemonic::*;
    const ALU_NO_AUIPC: [Mnemonic; 20] = [
        Add, Sub, Xor, Or, And, Sll, Srl, Sra, Slt, Sltu, Addi, Xori, Ori, Andi, Slli, Srli, Srai,
        Slti, Sltiu, Lui,
    ];
    let extra: &[Mnemonic] = if core.is_boom() {
        &[Mul, Mulh, Mulhsu, Mulhu]
    } else {
        &[Auipc]
    };
    sorted(ALU_NO_AUIPC.iter().chain(extra).copied().collect())
}

/// A safe set in canonical (name-sorted) order.
pub fn sorted(mut set: Vec<Mnemonic>) -> Vec<Mnemonic> {
    set.sort_by_key(|m| m.name());
    set.dedup();
    set
}

/// What an operation must answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Answer {
    /// Classification must keep exactly this set and prove it.
    SafeSet(Vec<Mnemonic>),
    /// Learning must find an invariant.
    Proved,
    /// Learning must report that no invariant exists.
    Unprovable,
}

/// What an operation did answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// Classification kept this set; `proved` is whether an invariant came
    /// with it.
    Classified {
        /// The kept set, name-sorted.
        safe: Vec<Mnemonic>,
        /// Whether the kept set came with an invariant.
        proved: bool,
    },
    /// An invariant was found.
    Proved,
    /// No invariant exists.
    Unprovable,
    /// Example generation diverged (a refutation by testing).
    Diverged,
    /// The operation failed outright (serve error, refused connection,
    /// certificate rejected, ...).
    Error(String),
}

impl fmt::Display for Outcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Outcome::Classified { safe, proved } => {
                let names: Vec<&str> = safe.iter().map(|m| m.name()).collect();
                write!(f, "safe {{{}}} proved={proved}", names.join(","))
            }
            Outcome::Proved => f.write_str("proved"),
            Outcome::Unprovable => f.write_str("unprovable"),
            Outcome::Diverged => f.write_str("diverged"),
            Outcome::Error(e) => write!(f, "error: {e}"),
        }
    }
}

/// Checks one verdict against its hand-written answer.
pub fn check(answer: &Answer, got: &Outcome) -> Result<(), String> {
    let ok = match (answer, got) {
        (Answer::SafeSet(want), Outcome::Classified { safe, proved }) => {
            *proved && sorted(safe.clone()) == sorted(want.clone())
        }
        (Answer::Proved, Outcome::Proved) => true,
        (Answer::Unprovable, Outcome::Unprovable) => true,
        _ => false,
    };
    if ok {
        Ok(())
    } else {
        Err(format!("expected {answer:?}, got {got}"))
    }
}

/// Counts attempted and failed operations of one run.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations attempted (measured operations; off-clock checks belong
    /// to the operations whose output they check).
    pub attempted: u64,
    /// Operations that failed: wrong verdict, failed off-clock check,
    /// serve error response or refused connection.
    pub failed: u64,
    /// One line per failure, printed with the run's table.
    pub notes: Vec<String>,
}

impl Tally {
    /// Records one operation and its verdict check.
    pub fn op(&mut self, what: &str, verdict: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = verdict {
            self.fail(what, 1, &e);
        }
    }

    /// Marks `ops` already-attempted operations as failed (an off-clock
    /// check that rejects an output every one of them produced).
    pub fn fail(&mut self, what: &str, ops: u64, why: &str) {
        self.failed += ops;
        self.notes.push(format!("{what}: {why}"));
    }

    /// Failed over attempted (0 before any operation).
    pub fn fail_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hh_isa::{InstrClass, ALL_MNEMONICS};

    /// The ALU class as the ISA defines it (21 mnemonics, `auipc` included).
    fn alu_set() -> Vec<Mnemonic> {
        ALL_MNEMONICS
            .iter()
            .copied()
            .filter(|m| m.class() == InstrClass::Alu)
            .collect()
    }

    #[test]
    fn classify_answers_have_the_documented_shape() {
        let rocket = classify_answer(Core::Rocket);
        assert_eq!(rocket.len(), 21);
        assert_eq!(rocket, sorted(alu_set()));
        assert!(rocket.contains(&Mnemonic::Auipc));
        for core in [Core::Small, Core::Medium, Core::Large] {
            let boom = classify_answer(core);
            assert_eq!(boom.len(), 24);
            assert!(!boom.contains(&Mnemonic::Auipc));
            let muls = boom.iter().filter(|m| m.class() == InstrClass::Mul);
            assert_eq!(muls.count(), 4);
        }
    }

    #[test]
    fn checker_accepts_right_and_rejects_wrong_verdicts() {
        let want = Answer::SafeSet(classify_answer(Core::Small));
        let mut safe = classify_answer(Core::Small);
        safe.reverse();
        let right = Outcome::Classified {
            safe: safe.clone(),
            proved: true,
        };
        assert!(check(&want, &right).is_ok(), "order must not matter");
        let unproved = Outcome::Classified {
            safe: safe.clone(),
            proved: false,
        };
        assert!(check(&want, &unproved).is_err());
        safe.push(Mnemonic::Auipc);
        let extra = Outcome::Classified { safe, proved: true };
        assert!(check(&want, &extra).is_err());
        assert!(check(&Answer::Proved, &Outcome::Proved).is_ok());
        assert!(check(&Answer::Proved, &Outcome::Unprovable).is_err());
        assert!(check(&Answer::Unprovable, &Outcome::Unprovable).is_ok());
        assert!(check(&Answer::Unprovable, &Outcome::Proved).is_err());
        assert!(check(&Answer::Proved, &Outcome::Error("refused".into())).is_err());
        assert!(check(&Answer::Unprovable, &Outcome::Diverged).is_err());
    }

    #[test]
    fn planted_wrong_verdict_raises_fail_frac() {
        let mut t = Tally::default();
        for _ in 0..3 {
            t.op("learn", check(&Answer::Proved, &Outcome::Proved));
        }
        assert_eq!(t.fail_frac(), 0.0);
        // The planted wrong verdict: `alu` on BOOM "proved".
        t.op("refute", check(&Answer::Unprovable, &Outcome::Proved));
        assert_eq!((t.attempted, t.failed), (4, 1));
        assert_eq!(t.fail_frac(), 0.25);
        // A failed off-clock check charges every operation it covers.
        t.fail("consecution", 2, "not inductive");
        assert_eq!(t.fail_frac(), 0.75);
        assert_eq!(t.notes.len(), 2);
    }
}
