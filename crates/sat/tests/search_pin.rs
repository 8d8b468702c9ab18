//! Pins the CDCL search bit for bit.
//!
//! One incremental solver per configuration answers a fixed, seeded stream
//! of assumption queries over a random 3-CNF near the satisfiability
//! threshold, padded with a large, conflict-free component that stands in
//! for the rest of a cone encoding. The search counters after the stream
//! were recorded from a known-good build; a change that moves any of them
//! changed the search (a heuristic constant, a tie-break, the propagation
//! order), not only its speed.
//!
//! The padding keeps the learnt-clause cap above the stream's conflict
//! count, so database reduction never fires (asserted), while both restart
//! policies and chronological backtracking do: the pin covers the search
//! path every benchmark workload runs.

use hh_sat::{Config, Lit, SolveResult, Solver, Var};

const NUM_VARS: usize = 150;
const NUM_CLAUSES: usize = 590;
/// Padding clauses, each over three fresh variables.
const PADDING: usize = 20_000;
const QUERIES: usize = 40;
const ASSUMED: usize = 4;

/// xorshift64* stream, as in the bench workloads.
fn rng(seed: u64) -> impl FnMut() -> u64 {
    let mut state = seed;
    move || {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        state.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

/// Search counters after the stream:
/// `(decisions, propagations, conflicts, restarts, chrono backtracks,
/// unsat answers)`.
fn run_stream(config: Config) -> (u64, u64, u64, u64, u64, usize) {
    let mut next = rng(0x5EED_0F5E_A2C4);
    let mut s = Solver::with_config(config);
    let vars: Vec<Var> = (0..NUM_VARS).map(|_| s.new_var()).collect();
    for _ in 0..NUM_CLAUSES {
        let mut c: Vec<Lit> = Vec::with_capacity(3);
        while c.len() < 3 {
            let v = vars[(next() % NUM_VARS as u64) as usize];
            if c.iter().all(|l| l.var() != v) {
                c.push(v.lit(next() & 1 == 0));
            }
        }
        s.add_clause(&c);
    }
    for _ in 0..PADDING {
        let c: Vec<Lit> = (0..3).map(|_| s.new_var().positive()).collect();
        s.add_clause(&c);
    }
    let mut unsat = 0;
    for _ in 0..QUERIES {
        let assumptions: Vec<Lit> = (0..ASSUMED)
            .map(|_| vars[(next() % NUM_VARS as u64) as usize].lit(next() & 1 == 0))
            .collect();
        if s.solve_with_assumptions(&assumptions) == SolveResult::Unsat {
            unsat += 1;
        }
    }
    let st = s.stats();
    assert_eq!(st.reduces, 0, "the pinned stream must stay below the cap");
    (
        st.decisions,
        st.propagations,
        st.conflicts,
        st.restarts,
        st.chrono_backtracks,
        unsat,
    )
}

#[test]
fn default_config_search_is_pinned() {
    assert_eq!(
        run_stream(Config::default()),
        (1_712_738, 2_341_958, 9_294, 7, 6, 7)
    );
}

#[test]
fn seed_baseline_search_is_pinned() {
    assert_eq!(
        run_stream(Config::seed_baseline()),
        (1_377_021, 2_323_748, 8_744, 57, 0, 7)
    );
}
