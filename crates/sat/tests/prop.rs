//! Property-based tests: the CDCL solver is checked against a brute-force
//! enumerator on random small formulas, and core extraction is validated
//! semantically (cores are UNSAT, minimised cores are locally minimal).

use hh_sat::{minimize_core, Config, LimitedResult, Lit, SolveResult, Solver, Var};
use proptest::prelude::*;

/// A random clause set over `num_vars` variables, as signed var indices.
fn arb_cnf(num_vars: usize, max_clauses: usize) -> impl Strategy<Value = Vec<Vec<(usize, bool)>>> {
    let clause = proptest::collection::vec((0..num_vars, any::<bool>()), 1..=4);
    proptest::collection::vec(clause, 0..=max_clauses)
}

fn brute_force_sat(num_vars: usize, clauses: &[Vec<(usize, bool)>]) -> bool {
    assert!(num_vars <= 20);
    'outer: for assignment in 0u32..(1 << num_vars) {
        for clause in clauses {
            let sat = clause
                .iter()
                .any(|&(v, pos)| ((assignment >> v) & 1 == 1) == pos);
            if !sat {
                continue 'outer;
            }
        }
        return true;
    }
    false
}

fn build_solver(num_vars: usize, clauses: &[Vec<(usize, bool)>]) -> Solver {
    let mut s = Solver::new();
    let vars: Vec<Var> = (0..num_vars).map(|_| s.new_var()).collect();
    for clause in clauses {
        let lits: Vec<Lit> = clause.iter().map(|&(v, pos)| vars[v].lit(pos)).collect();
        s.add_clause(&lits);
    }
    s
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    /// CDCL agrees with brute force on satisfiability.
    #[test]
    fn agrees_with_brute_force(clauses in arb_cnf(8, 40)) {
        let expected = brute_force_sat(8, &clauses);
        let mut s = build_solver(8, &clauses);
        let got = s.solve() == SolveResult::Sat;
        prop_assert_eq!(got, expected);
    }

    /// A SAT answer comes with a model that satisfies every clause.
    #[test]
    fn models_satisfy_all_clauses(clauses in arb_cnf(10, 50)) {
        let mut s = build_solver(10, &clauses);
        if s.solve() == SolveResult::Sat {
            let vars: Vec<Var> = (0..10).map(Var::from_index).collect();
            for clause in &clauses {
                let sat = clause.iter().any(|&(v, pos)| s.model_value(vars[v].lit(pos)));
                prop_assert!(sat, "model violates clause {:?}", clause);
            }
        }
    }

    /// Assumption solving matches adding the assumptions as unit clauses, and
    /// UNSAT cores are themselves sufficient for unsatisfiability.
    #[test]
    fn assumption_semantics(clauses in arb_cnf(7, 30), pattern in 0u8..128, polarity in 0u8..128) {
        let assumed: Vec<(usize, bool)> = (0..7)
            .filter(|i| (pattern >> i) & 1 == 1)
            .map(|i| (i, (polarity >> i) & 1 == 1))
            .collect();

        // Reference: units added as clauses.
        let mut with_units = clauses.clone();
        for &(v, pos) in &assumed {
            with_units.push(vec![(v, pos)]);
        }
        let expected = brute_force_sat(7, &with_units);

        let mut s = build_solver(7, &clauses);
        let vars: Vec<Var> = (0..7).map(Var::from_index).collect();
        let assumptions: Vec<Lit> = assumed.iter().map(|&(v, pos)| vars[v].lit(pos)).collect();
        let res = s.solve_with_assumptions(&assumptions);
        prop_assert_eq!(res == SolveResult::Sat, expected);

        if res == SolveResult::Unsat {
            let core = s.unsat_core().to_vec();
            // Core is a subset of the assumptions.
            for l in &core {
                prop_assert!(assumptions.contains(l));
            }
            // The core alone is already unsatisfiable.
            prop_assert_eq!(s.solve_with_assumptions(&core), SolveResult::Unsat);
            // And minimisation yields a locally minimal core.
            let min = minimize_core(&mut s, &core);
            prop_assert_eq!(s.solve_with_assumptions(&min), SolveResult::Unsat);
            for &drop in &min {
                let probe: Vec<Lit> = min.iter().copied().filter(|&l| l != drop).collect();
                prop_assert_eq!(s.solve_with_assumptions(&probe), SolveResult::Sat,
                    "core not minimal: {:?} removable", drop);
            }
        }
    }

    /// The solver stays consistent across incremental rounds: solving with
    /// assumptions never changes the formula.
    #[test]
    fn solving_is_stateless(clauses in arb_cnf(6, 25), rounds in 1usize..4) {
        let expected = brute_force_sat(6, &clauses);
        let mut s = build_solver(6, &clauses);
        for _ in 0..rounds {
            prop_assert_eq!(s.solve() == SolveResult::Sat, expected);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// Clause transfer soundness: learnt clauses exported from one solver
    /// are implied by its formula, so importing them into a second solver
    /// over the *same* formula must never change any solve outcome — under
    /// any assumption set, including sets the donor never saw.
    #[test]
    fn imported_clauses_never_change_outcomes(
        clauses in arb_cnf(8, 40),
        churn in proptest::collection::vec(
            proptest::collection::vec((0..8usize, any::<bool>()), 0..=4), 1..4),
        probes in proptest::collection::vec(
            proptest::collection::vec((0..8usize, any::<bool>()), 0..=4), 1..4),
    ) {
        let vars: Vec<Var> = (0..8).map(Var::from_index).collect();
        let to_lits = |set: &[(usize, bool)]| -> Vec<Lit> {
            set.iter().map(|&(v, pos)| vars[v].lit(pos)).collect()
        };

        // Donor: accumulate learnt clauses by solving under random
        // assumption sets, then export everything over the shared vars.
        let mut donor = build_solver(8, &clauses);
        for set in &churn {
            let _ = donor.solve_with_assumptions(&to_lits(set));
        }
        let exported = donor.export_learnt(|_| true);

        // Receiver: identical formula plus the imports. Reference: the
        // identical formula untouched.
        let mut receiver = build_solver(8, &clauses);
        receiver.import_clauses(&exported);
        let mut reference = build_solver(8, &clauses);

        for set in &probes {
            let assum = to_lits(set);
            prop_assert_eq!(
                receiver.solve_with_assumptions(&assum),
                reference.solve_with_assumptions(&assum),
                "imports changed an outcome under {:?}", set
            );
        }
        prop_assert_eq!(receiver.solve(), reference.solve());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// Every heuristic/layout option in `Config::seed_baseline()` (Luby
    /// restarts, no best phases, binaries in the long watch lists, no
    /// blocker checks, no chrono, nested watch lists) is
    /// answer-preserving: both configs agree with brute force under
    /// arbitrary assumption sets. Regression test for the blocker-off
    /// propagation tail, which once re-enqueued already-true literals
    /// forever.
    #[test]
    fn seed_baseline_config_agrees_with_brute_force(
        clauses in arb_cnf(7, 30),
        pattern in 0u8..128,
        polarity in 0u8..128,
    ) {
        let vars: Vec<Var> = (0..7).map(Var::from_index).collect();
        let assumed: Vec<(usize, bool)> = (0..7)
            .filter(|i| (pattern >> i) & 1 == 1)
            .map(|i| (i, (polarity >> i) & 1 == 1))
            .collect();
        let mut with_units = clauses.clone();
        for &(v, pos) in &assumed {
            with_units.push(vec![(v, pos)]);
        }
        let expected = brute_force_sat(7, &with_units);
        let assumptions: Vec<Lit> = assumed.iter().map(|&(v, pos)| vars[v].lit(pos)).collect();

        let mut s = hh_sat::Solver::with_config(hh_sat::Config::seed_baseline());
        for _ in 0..7 {
            s.new_var();
        }
        for clause in &clauses {
            let lits: Vec<Lit> = clause.iter().map(|&(v, pos)| vars[v].lit(pos)).collect();
            s.add_clause(&lits);
        }
        prop_assert_eq!(s.solve_with_assumptions(&assumptions) == SolveResult::Sat, expected);
        prop_assert_eq!(s.debug_check_watches(), Ok(()));
    }

    /// Arena garbage compaction is invisible: forcing a full sweep +
    /// compaction between incremental queries never changes an answer, the
    /// two-watched-literal invariant holds after every compaction, and SAT
    /// models still satisfy every original clause.
    #[test]
    fn compaction_preserves_models_and_watches(
        clauses in arb_cnf(8, 40),
        churn in proptest::collection::vec(
            proptest::collection::vec((0..8usize, any::<bool>()), 0..=4), 1..4),
    ) {
        let expected = brute_force_sat(8, &clauses);
        let vars: Vec<Var> = (0..8).map(Var::from_index).collect();
        let mut s = build_solver(8, &clauses);
        for set in &churn {
            let assum: Vec<Lit> = set.iter().map(|&(v, pos)| vars[v].lit(pos)).collect();
            let _ = s.solve_with_assumptions(&assum);
            s.debug_force_compact();
            prop_assert_eq!(s.debug_check_watches(), Ok(()));
        }
        prop_assert_eq!(s.solve() == SolveResult::Sat, expected);
        if expected {
            for clause in &clauses {
                let sat = clause.iter().any(|&(v, pos)| s.model_value(vars[v].lit(pos)));
                prop_assert!(sat, "post-compaction model violates clause {:?}", clause);
            }
        }
    }

    /// Database reduction never deletes a clause that is currently a
    /// reason on the trail, and never deletes a glue clause (stored LBD at
    /// most 2); a reduction that deletes anything leaves no garbage in the
    /// arena and a consistent set of watches; and the solver still answers
    /// correctly afterwards. Two rounds: learnt clauses are born "used", so
    /// the first round mostly clears that protection and the second
    /// deletes.
    #[test]
    fn reduce_keeps_glue_and_reason_clauses(
        clauses in arb_cnf(8, 40),
        churn in proptest::collection::vec(
            proptest::collection::vec((0..8usize, any::<bool>()), 0..=4), 1..4),
    ) {
        let expected = brute_force_sat(8, &clauses);
        let vars: Vec<Var> = (0..8).map(Var::from_index).collect();
        let mut s = build_solver(8, &clauses);
        for set in &churn {
            let assum: Vec<Lit> = set.iter().map(|&(v, pos)| vars[v].lit(pos)).collect();
            let _ = s.solve_with_assumptions(&assum);
        }
        // Clause bodies as sorted literal sets: propagation reorders
        // literals in place, so identity is up to permutation.
        let canon = |c: &[Lit]| {
            let mut v = c.to_vec();
            v.sort();
            v
        };
        for _ in 0..2 {
            let glue_before: Vec<Vec<Lit>> = s
                .debug_learnts_with_lbd()
                .iter()
                .filter(|(_, lbd)| *lbd <= 2)
                .map(|(c, _)| canon(c))
                .collect();
            let reasons_before: Vec<Vec<Lit>> =
                s.debug_reason_clauses().iter().map(|c| canon(c)).collect();
            let deleted_before = s.stats().deleted_clauses;
            s.debug_force_reduce();
            prop_assert_eq!(s.debug_check_watches(), Ok(()));
            if s.stats().deleted_clauses > deleted_before {
                prop_assert_eq!(s.debug_garbage_frac(), 0.0);
            }
            let mut live: Vec<Vec<Lit>> = s
                .debug_learnts_with_lbd()
                .iter()
                .map(|(c, _)| canon(c))
                .collect();
            s.visit_formula_clauses(|c| live.push(canon(c)));
            for c in &glue_before {
                prop_assert!(live.contains(c), "reduce dropped glue clause {:?}", c);
            }
            for c in &reasons_before {
                prop_assert!(live.contains(c), "reduce dropped a reason clause {:?}", c);
            }
        }
        prop_assert_eq!(s.solve() == SolveResult::Sat, expected);
    }
}

/// `build_solver` with an explicit config.
fn build_solver_with(config: Config, num_vars: usize, clauses: &[Vec<(usize, bool)>]) -> Solver {
    let mut s = Solver::with_config(config);
    let vars: Vec<Var> = (0..num_vars).map(|_| s.new_var()).collect();
    for clause in clauses {
        let lits: Vec<Lit> = clause.iter().map(|&(v, pos)| vars[v].lit(pos)).collect();
        s.add_clause(&lits);
    }
    s
}

/// Chrono-always: every conflict with any backjump distance above one level
/// takes the chronological path — the most out-of-order trail the solver
/// can produce.
fn chrono_aggressive() -> Config {
    Config {
        chrono: true,
        chrono_threshold: 1,
        ..Config::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    /// Chronological backtracking agrees with brute force and with the
    /// backjumping solver on random CNFs, and its SAT models are real.
    #[test]
    fn chrono_agrees_with_brute_force_and_backjumping(clauses in arb_cnf(8, 40)) {
        let expected = brute_force_sat(8, &clauses);
        let mut chrono = build_solver_with(chrono_aggressive(), 8, &clauses);
        let mut jump = build_solver_with(
            Config { chrono: false, ..Config::default() }, 8, &clauses);
        let rc = chrono.solve();
        prop_assert_eq!(rc == SolveResult::Sat, expected);
        prop_assert_eq!(jump.solve(), rc);
        if rc == SolveResult::Sat {
            let vars: Vec<Var> = (0..8).map(Var::from_index).collect();
            for clause in &clauses {
                let sat = clause.iter().any(|&(v, pos)| chrono.model_value(vars[v].lit(pos)));
                prop_assert!(sat, "chrono model violates clause {:?}", clause);
            }
        }
        prop_assert_eq!(chrono.debug_check_watches(), Ok(()));
    }

    /// Chrono + assumptions: outcomes match the unit-clause semantics, the
    /// core is a genuine subset refutation, and incremental reuse across
    /// assumption sets stays sound with out-of-order trails.
    #[test]
    fn chrono_assumption_semantics(
        clauses in arb_cnf(7, 30),
        pattern in 0u8..128,
        polarity in 0u8..128,
    ) {
        let vars: Vec<Var> = (0..7).map(Var::from_index).collect();
        let assumed: Vec<(usize, bool)> = (0..7)
            .filter(|i| (pattern >> i) & 1 == 1)
            .map(|i| (i, (polarity >> i) & 1 == 1))
            .collect();
        let mut with_units = clauses.clone();
        for &(v, pos) in &assumed {
            with_units.push(vec![(v, pos)]);
        }
        let expected = brute_force_sat(7, &with_units);
        let assumptions: Vec<Lit> = assumed.iter().map(|&(v, pos)| vars[v].lit(pos)).collect();
        let mut s = build_solver_with(chrono_aggressive(), 7, &clauses);
        let res = s.solve_with_assumptions(&assumptions);
        prop_assert_eq!(res == SolveResult::Sat, expected);
        if res == SolveResult::Unsat {
            let core = s.unsat_core().to_vec();
            for l in &core {
                prop_assert!(assumptions.contains(l));
            }
            prop_assert_eq!(s.solve_with_assumptions(&core), SolveResult::Unsat);
        }
        // Second round on the same solver: learnt clauses from the chrono
        // run must not corrupt later queries.
        prop_assert_eq!(s.solve() == SolveResult::Sat, brute_force_sat(7, &clauses));
    }

    /// Budgeted solving is complete and sound: driving the solver with tiny
    /// `solve_limited` slices until a verdict agrees with brute force, and
    /// the number of Unknown rounds is finite.
    #[test]
    fn budgeted_rounds_agree_with_brute_force(
        clauses in arb_cnf(8, 40),
        slice in 1u64..8,
    ) {
        let expected = brute_force_sat(8, &clauses);
        let mut s = build_solver(8, &clauses);
        let mut verdict = None;
        for _ in 0..10_000 {
            match s.solve_limited(&[], slice) {
                LimitedResult::Unknown => continue,
                LimitedResult::Sat => { verdict = Some(true); break; }
                LimitedResult::Unsat => { verdict = Some(false); break; }
            }
        }
        prop_assert_eq!(verdict, Some(expected), "budgeted rounds diverged");
        if expected {
            let vars: Vec<Var> = (0..8).map(Var::from_index).collect();
            for clause in &clauses {
                let sat = clause.iter().any(|&(v, pos)| s.model_value(vars[v].lit(pos)));
                prop_assert!(sat, "budgeted model violates clause {:?}", clause);
            }
        }
    }

    /// Alternating budget slices between two solvers with different
    /// configurations never changes the verdict either would reach alone:
    /// suspension is lossless for the Luby/no-best-phase config too.
    #[test]
    fn budget_racing_matches_either_arm_alone(
        clauses in arb_cnf(7, 30),
        slice in 1u64..16,
    ) {
        let expected = brute_force_sat(7, &clauses);
        let mut primary = build_solver(7, &clauses);
        let mut diversified = build_solver_with(
            Config {
                restart_mode: hh_sat::RestartMode::Luby,
                save_best_phases: false,
                ..Config::default()
            },
            7,
            &clauses,
        );
        let mut verdict = None;
        'race: for round in 0..10_000u64 {
            let budget = slice << round.min(10);
            for arm in [&mut primary, &mut diversified] {
                match arm.solve_limited(&[], budget) {
                    LimitedResult::Unknown => {}
                    LimitedResult::Sat => { verdict = Some(true); break 'race; }
                    LimitedResult::Unsat => { verdict = Some(false); break 'race; }
                }
            }
        }
        prop_assert_eq!(verdict, Some(expected), "race verdict diverged from brute force");
    }
}

#[test]
fn dimacs_roundtrip_through_solver() {
    let text = "p cnf 4 4\n1 2 0\n-1 3 0\n-2 4 0\n-3 -4 0\n";
    let cnf = hh_sat::dimacs::parse_dimacs(text).unwrap();
    let mut s = hh_sat::dimacs::load_into_solver(&cnf);
    assert_eq!(s.solve(), SolveResult::Sat);
}
