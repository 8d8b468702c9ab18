//! The CDCL solver.
//!
//! A conflict-driven clause-learning solver built around a flat clause
//! arena (see [`crate::clause`]) with:
//!
//! * two-literal watching with blocker literals, plus a binary-clause fast
//!   path that resolves two-literal clauses entirely from the watcher entry
//!   (no arena load),
//! * first-UIP conflict analysis with basic clause minimisation and
//!   on-the-fly LBD refresh of reason clauses,
//! * VSIDS decision ordering with phase saving, extended with best-trail
//!   phase targeting reset on restarts,
//! * Luby-sequence or glucose-style adaptive restarts (recent-LBD EMA vs.
//!   the global mean, with trail-size restart blocking), selected by
//!   [`Config::restart_mode`],
//! * learnt-clause database reduction that keeps glue clauses (LBD ≤ 2),
//!   reasons and clauses used since the last round, and deletes half of
//!   the rest, worst LBD first — the only bound on a long solve's memory,
//! * in-place garbage compaction of the clause arena after every reduction
//!   that deletes a clause, followed by a watch-list rebuild,
//! * incremental solving under assumptions with UNSAT-core extraction.
//!
//! The solver is the decision engine behind every query made by the
//! H-Houdini abduction oracle, where the assumptions are predicate indicator
//! literals and the UNSAT core *is* the abduct.

use crate::clause::{ClauseDb, ClauseRef};
use crate::heap::VarOrderHeap;
use crate::lit::{LBool, Lit, Var};
use crate::proof::ProofSink;
use crate::watch::{WatchStore, Watcher};

/// Truth value of `l` under `assigns`, as a free function so propagation can
/// hold a mutable borrow of the clause arena at the same time.
#[inline]
fn val(assigns: &[LBool], l: Lit) -> LBool {
    assigns[l.var().index()].of_lit(l)
}

/// Outcome of a [`Solver::solve`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolveResult {
    /// A satisfying assignment was found; read it with
    /// [`Solver::model_value`].
    Sat,
    /// The formula (under the given assumptions) is unsatisfiable; the
    /// involved assumptions are available from [`Solver::unsat_core`].
    Unsat,
}

/// Outcome of a [`Solver::solve_limited`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LimitedResult {
    /// A satisfying assignment was found; read it with
    /// [`Solver::model_value`].
    Sat,
    /// The formula (under the given assumptions) is unsatisfiable; the
    /// involved assumptions are available from [`Solver::unsat_core`].
    Unsat,
    /// The conflict budget was exhausted before a verdict. The search state
    /// (learnt clauses, activities, phases) persists, so a later
    /// [`Solver::solve_limited`] or [`Solver::solve_with_assumptions`] call
    /// resumes from the accumulated knowledge.
    Unknown,
}

/// Restart strategy selector (see [`Config::restart_mode`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RestartMode {
    /// Fixed-schedule restarts: the Luby sequence scaled by a 100-conflict
    /// base interval.
    Luby,
    /// Glucose-style adaptive restarts: restart when the recent-LBD EMA
    /// exceeds 1.25 times the global LBD mean, with trail-size-based
    /// restart blocking (a conflict reached with a trail much deeper than
    /// average suppresses a pending restart, because the current assignment
    /// looks close to a model).
    Glucose,
}

/// VSIDS decay applied to variable activities per conflict.
const VAR_DECAY: f64 = 0.95;
/// Decay applied to learnt-clause activities per conflict.
const CLAUSE_DECAY: f64 = 0.999;
/// Conflicts in the base Luby restart interval ([`RestartMode::Luby`]).
const RESTART_BASE: u64 = 100;
/// Learnt-clause cap at the start of a solve, as a fraction of the live
/// clauses (plus a fixed 1000).
const LEARNT_SIZE_FACTOR: f64 = 1.0 / 3.0;
/// Growth of the learnt-clause cap after a reduction that deleted clauses
/// or found nothing deletable (see `Solver::reduce_db`).
const LEARNT_SIZE_INC: f64 = 1.1;
/// EMA smoothing factor of the recent-LBD average (glucose restarts).
const RESTART_EMA_ALPHA: f64 = 1.0 / 32.0;
/// Glucose restart trigger: restart when `recent_lbd_ema > RESTART_MARGIN *
/// global_lbd_mean`.
const RESTART_MARGIN: f64 = 1.25;
/// Minimum conflicts between glucose restarts, and the warmup before the
/// LBD averages are trusted.
const RESTART_MIN_INTERVAL: u64 = 50;
/// Restart blocking: a conflict whose trail is deeper than this times the
/// trail EMA resets the recent-LBD EMA to the global mean, deferring the
/// restart.
const RESTART_BLOCK_MARGIN: f64 = 1.4;
/// Learnt clauses whose stored LBD is at or below this are glue: database
/// reduction never deletes them.
const GLUE_LBD: u32 = 2;
/// Fraction of the deletable learnt clauses each reduction deletes.
const REDUCE_FRACTION: f64 = 0.5;

/// Solver options.
///
/// The defaults select the modern heuristics (adaptive restarts,
/// best-phase targeting, inlined binaries, blockers, chronological
/// backtracking, flat watch lists); [`Config::seed_baseline`] approximates
/// the original fixed-schedule solver on the same arena backend, which is
/// what the perf gates compare against. The numeric heuristic parameters
/// (activity decays, restart intervals and margins, the learnt-clause cap,
/// the glue LBD) are fixed constants.
#[derive(Debug, Clone)]
pub struct Config {
    /// Restart strategy.
    pub restart_mode: RestartMode,
    /// Track the deepest trail seen in the current solve and reset decision
    /// phases to it on every restart (best-phase targeting).
    pub save_best_phases: bool,
    /// Keep two-literal clauses in the dedicated binary watch lists, where
    /// the watcher's blocker *is* the implied literal and propagation never
    /// loads the clause arena. When off, binaries are watched like any
    /// other clause (the seed solver's behaviour).
    pub inline_binaries: bool,
    /// Check the watcher's blocker literal before loading a clause from the
    /// arena during propagation. When off, every visited watcher pays the
    /// arena load (the seed solver's behaviour).
    pub use_blockers: bool,
    /// Chronological backtracking (Nadel/Ryvchin): a conflict whose backjump
    /// would discard more than [`Config::chrono_threshold`] decision levels
    /// backtracks a single level instead, keeping the (still consistent)
    /// deeper partial assignment. The asserting literal is then assigned at
    /// its true assertion level, which leaves out-of-order entries on the
    /// trail; `Solver::cancel_until`, conflict analysis and UNSAT-core
    /// extraction all account for them. When off, every conflict backjumps
    /// (the seed solver's behaviour).
    pub chrono: bool,
    /// Backjump distance (in decision levels) above which chronological
    /// backtracking engages. Only read when [`Config::chrono`] is on.
    ///
    /// The default is deliberately high: chrono pays off on deep monolithic
    /// solves (it is what makes the HOUDINI/SORCAR baselines tractable at
    /// scale) but adds re-derivation churn on the short assumption-heavy
    /// cone queries the hierarchical engine issues, so it should engage only
    /// when a conflict would throw away a genuinely long trail.
    pub chrono_threshold: u32,
    /// Store all watch lists in one flat contiguous arena with per-literal
    /// `(offset, len, cap)` headers instead of a `Vec` per literal, so the
    /// propagation hot loop walks cache-linear slices. Relocation holes are
    /// compacted periodically, piggybacked on the clause-arena GC. When off,
    /// the seed solver's nested `Vec<Vec<_>>` layout is used.
    pub flat_watches: bool,
}

impl Default for Config {
    fn default() -> Config {
        Config {
            restart_mode: RestartMode::Glucose,
            save_best_phases: true,
            inline_binaries: true,
            use_blockers: true,
            chrono: true,
            chrono_threshold: 500,
            flat_watches: true,
        }
    }
}

impl Config {
    /// The seed solver's behaviour on the arena backend: Luby restarts, no
    /// best-phase targeting, binaries watched like ordinary clauses, no
    /// blocker short-circuit, no chronological backtracking, and nested
    /// per-literal watch `Vec`s.
    /// The perf-gate baseline: comparing `Config::default()` against this
    /// measures the raw-speed PRs' features on identical workloads, with the
    /// shared flat clause-arena layout as a conservative floor (the real
    /// seed paid an extra pointer chase per clause on top).
    pub fn seed_baseline() -> Config {
        Config {
            restart_mode: RestartMode::Luby,
            save_best_phases: false,
            inline_binaries: false,
            use_blockers: false,
            chrono: false,
            flat_watches: false,
            ..Config::default()
        }
    }

    /// Checks the options for consistency, returning the first violated
    /// rule; [`Solver::with_config`] debug-asserts it so a misconfiguration
    /// fails loudly in tests rather than degenerating quietly in production
    /// runs.
    pub fn validate(&self) -> Result<(), String> {
        if self.chrono_threshold == 0 {
            return Err("chrono_threshold must be nonzero".into());
        }
        Ok(())
    }
}

/// Cumulative counters, exposed for the paper's Figure 4 style breakdowns.
#[derive(Debug, Clone, Copy, Default)]
pub struct SolverStats {
    /// Number of `solve`/`solve_with_assumptions` calls.
    pub solves: u64,
    /// Decisions made.
    pub decisions: u64,
    /// Literals propagated.
    pub propagations: u64,
    /// Conflicts analysed.
    pub conflicts: u64,
    /// Restarts performed.
    pub restarts: u64,
    /// Learnt clauses deleted by database reduction.
    pub deleted_clauses: u64,
    /// Learnt-database reductions performed.
    pub reduces: u64,
    /// Adaptive restarts suppressed by the trail-size blocking rule.
    pub restart_blocks: u64,
    /// In-place garbage compactions of the clause arena.
    pub compactions: u64,
    /// Cumulative wall-clock microseconds spent in database reduction
    /// (including the compaction and watch rebuild it triggers).
    pub reduce_time_us: u64,
    /// Current clause-arena size in bytes — a gauge refreshed after every
    /// solve and reduction, not a monotone counter.
    pub arena_bytes: u64,
    /// Conflicts resolved by chronological (single-level) backtracking
    /// instead of a full backjump (see [`Config::chrono`]).
    pub chrono_backtracks: u64,
    /// [`Solver::solve_limited`] calls — each is one budgeted round of a
    /// caller-paced solve.
    pub budget_rounds: u64,
    /// Current heap footprint of the watch lists in bytes — a gauge
    /// refreshed after every solve, not a monotone counter.
    pub watch_bytes: u64,
}

/// EMA smoothing for the average trail size at conflicts (restart
/// blocking). Fixed: the trail average only gates a heuristic.
const TRAIL_EMA_ALPHA: f64 = 1.0 / 256.0;

/// Outcome of one [`Solver::search`] round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SearchOutcome {
    /// A definitive verdict was reached.
    Done(SolveResult),
    /// The caller's conflict ceiling was reached; the solve suspends.
    Budget,
    /// The restart policy fired; the driver loop restarts the search.
    Restart,
}

/// A CDCL SAT solver.
///
/// # Examples
///
/// ```
/// use hh_sat::{Solver, SolveResult};
///
/// let mut s = Solver::new();
/// let a = s.new_var();
/// let b = s.new_var();
/// s.add_clause(&[a.positive(), b.positive()]);
/// s.add_clause(&[!a.positive()]);
/// assert_eq!(s.solve(), SolveResult::Sat);
/// assert!(s.model_value(b.positive()));
/// ```
#[derive(Debug)]
pub struct Solver {
    config: Config,
    db: ClauseDb,
    /// Watch lists for clauses of three or more literals, indexed by literal
    /// code: list `p` holds clauses that must be inspected when `p` becomes
    /// true (they watch `!p`). Flat-arena or nested layout per
    /// [`Config::flat_watches`] (see [`crate::watch`]).
    watches: WatchStore,
    /// Watch lists for binary clauses, processed before `watches`: the
    /// watcher's blocker is the implied literal, so the fast path needs no
    /// arena access at all.
    bin_watches: WatchStore,
    assigns: Vec<LBool>,
    /// Saved phase per variable, used as the decision polarity.
    phase: Vec<bool>,
    /// Phases captured at the deepest trail of the current solve; restarts
    /// reset `phase` to this when [`Config::save_best_phases`] is on.
    best_phase: Vec<bool>,
    /// Trail depth at which `best_phase` was captured (per solve).
    best_trail: usize,
    activity: Vec<f64>,
    var_inc: f64,
    clause_inc: f32,
    order: VarOrderHeap,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    qhead: usize,
    reason: Vec<Option<ClauseRef>>,
    level: Vec<u32>,
    /// Scratch flags for conflict analysis, indexed by variable.
    seen: Vec<bool>,
    /// False iff a top-level conflict has been derived (formula is UNSAT
    /// regardless of assumptions).
    ok: bool,
    /// An input clause falsified outright by the level-0 trail at
    /// [`Solver::add_clause`] time. The clause database never stores it, but
    /// [`Solver::formula_clauses`] must include it — without it the
    /// snapshot would lose the input-level contradiction and no proof
    /// stream could refute it.
    input_conflict: Option<Vec<Lit>>,
    model: Vec<LBool>,
    core: Vec<Lit>,
    max_learnts: f64,
    stats: SolverStats,
    /// Per-level stamps for O(clause) LBD computation: a level is counted
    /// once per `lbd_stamp` generation.
    lbd_levels: Vec<u64>,
    lbd_stamp: u64,
    /// Recent-LBD EMA (glucose restarts).
    lbd_fast: f64,
    /// Sum and count of all learnt-clause LBDs (global mean).
    lbd_sum: f64,
    lbd_count: u64,
    /// EMA of the trail size at conflicts (restart blocking).
    trail_ema: f64,
    /// Optional DRAT proof stream (see [`crate::proof::ProofSink`]).
    proof: Option<Box<dyn ProofSink>>,
    /// Whether the permanent empty clause has been logged (the formula
    /// itself, not just an assumption set, was refuted). Keeps the stream
    /// free of duplicate empty clauses across repeated solve calls.
    proof_done: bool,
    /// Optional budget-round observer (see [`BudgetProbe`]).
    budget_probe: Option<Box<dyn BudgetProbe>>,
}

/// Observer of budgeted solve rounds: [`Solver::solve_limited`] invokes
/// [`BudgetProbe::on_round`] at the start of every round, before any
/// search. Budget rounds are the solver's deterministic unit of progress
/// (counted in conflicts, not wall-clock), so they are the natural
/// boundary for simulation tooling — hh-vopr's fault injector uses this
/// hook to align events like proof-sink detach with an exact round,
/// reproducibly from a seed.
pub trait BudgetProbe: std::fmt::Debug + Send {
    /// Called with the 1-based cumulative round number (the value
    /// [`SolverStats::budget_rounds`] was just incremented to).
    fn on_round(&mut self, round: u64);
}

impl Default for Solver {
    fn default() -> Solver {
        Solver::new()
    }
}

impl Solver {
    /// Creates an empty solver with default [`Config`].
    pub fn new() -> Solver {
        Solver::with_config(Config::default())
    }

    /// Creates an empty solver with the given configuration.
    ///
    /// In debug builds the configuration is checked with
    /// [`Config::validate`] and an invalid one panics.
    pub fn with_config(config: Config) -> Solver {
        #[cfg(debug_assertions)]
        if let Err(msg) = config.validate() {
            panic!("invalid hh-sat Config: {msg}");
        }
        let flat = config.flat_watches;
        Solver {
            config,
            db: ClauseDb::new(),
            watches: WatchStore::new(flat),
            bin_watches: WatchStore::new(flat),
            assigns: Vec::new(),
            phase: Vec::new(),
            best_phase: Vec::new(),
            best_trail: 0,
            activity: Vec::new(),
            var_inc: 1.0,
            clause_inc: 1.0,
            order: VarOrderHeap::new(),
            trail: Vec::new(),
            trail_lim: Vec::new(),
            qhead: 0,
            reason: Vec::new(),
            level: Vec::new(),
            seen: Vec::new(),
            ok: true,
            input_conflict: None,
            model: Vec::new(),
            core: Vec::new(),
            max_learnts: 0.0,
            stats: SolverStats::default(),
            lbd_levels: vec![0],
            lbd_stamp: 0,
            lbd_fast: 0.0,
            lbd_sum: 0.0,
            lbd_count: 0,
            trail_ema: 0.0,
            proof: None,
            proof_done: false,
            budget_probe: None,
        }
    }

    // ------------------------------------------------------------------
    // Proof logging
    // ------------------------------------------------------------------

    /// Attaches a DRAT proof sink. From this point on every learnt clause
    /// and clause deletion is streamed to `sink` (see the [`crate::proof`]
    /// module for the exact conventions). For a
    /// checkable proof the sink should be attached before the first solve
    /// call, and the checker should be given the formula as captured by
    /// [`Solver::formula_clauses`].
    ///
    /// Attaching a sink disables [`Solver::import_clauses`]: externally
    /// imported clauses are not derivable from this solver's own stream.
    pub fn set_proof_sink(&mut self, sink: Box<dyn ProofSink>) {
        self.proof = Some(sink);
    }

    /// Detaches and returns the proof sink, if any.
    pub fn take_proof_sink(&mut self) -> Option<Box<dyn ProofSink>> {
        self.proof.take()
    }

    /// Attaches a [`BudgetProbe`] fired at every future budget-round
    /// boundary ([`Solver::solve_limited`]). Observation only — the probe
    /// cannot alter the search, so attaching one never changes a verdict.
    pub fn set_budget_probe(&mut self, probe: Box<dyn BudgetProbe>) {
        self.budget_probe = Some(probe);
    }

    /// Detaches and returns the budget probe, if any.
    pub fn take_budget_probe(&mut self) -> Option<Box<dyn BudgetProbe>> {
        self.budget_probe.take()
    }

    /// Whether a proof sink is currently attached. This is the exact branch
    /// every logging site pays when proof logging is off, so it doubles as
    /// the probe for overhead measurements.
    #[inline]
    pub fn proof_active(&self) -> bool {
        self.proof.is_some()
    }

    /// Visits the current formula as seen by a proof checker: the level-0
    /// implied units (as one-literal slices) followed by every live
    /// non-learnt clause, borrowed straight from the clause arena — no
    /// per-clause allocation.
    ///
    /// Taken right after clause loading (before any solve call) this is the
    /// input formula a DRAT stream from this solver refutes. Must be called
    /// at decision level 0.
    pub fn visit_formula_clauses<F: FnMut(&[Lit])>(&self, mut visit: F) {
        debug_assert_eq!(self.decision_level(), 0);
        let bound = self.trail_lim.first().copied().unwrap_or(self.trail.len());
        for &l in &self.trail[..bound] {
            visit(std::slice::from_ref(&l));
        }
        for cref in self.db.live_refs() {
            if !self.db.is_learnt(cref) {
                visit(self.db.lits(cref));
            }
        }
        if let Some(c) = &self.input_conflict {
            visit(c);
        }
    }

    /// [`Solver::visit_formula_clauses`] collected into owned clauses, for
    /// callers that need to keep the snapshot.
    pub fn formula_clauses(&self) -> Vec<Vec<Lit>> {
        let mut out = Vec::new();
        self.visit_formula_clauses(|c| out.push(c.to_vec()));
        out
    }

    /// Logs a derived clause to the proof stream, if one is attached.
    #[inline]
    fn proof_add(&mut self, lits: &[Lit]) {
        if let Some(sink) = &mut self.proof {
            sink.add_clause(lits);
        }
    }

    /// Logs the permanent empty clause (idempotent). Called at every site
    /// that sets `ok = false`: once the formula is refuted the stream is
    /// complete and further lines would be noise.
    #[inline]
    fn proof_empty(&mut self) {
        if self.proof.is_some() && !self.proof_done {
            self.proof_done = true;
            self.proof_add(&[]);
        }
    }

    /// Deletes `cref` from the clause database, logging the deletion.
    /// Deletion in the arena is a lazy mark, so the literals can be streamed
    /// to the proof sink directly from the (still readable) slot — no clone.
    fn delete_clause_logged(&mut self, cref: ClauseRef) {
        if let Some(sink) = self.proof.as_mut() {
            sink.delete_clause(self.db.lits(cref));
        }
        self.db.delete(cref);
    }

    /// Number of variables created so far.
    pub fn num_vars(&self) -> usize {
        self.assigns.len()
    }

    /// Number of live clauses currently stored (including learnt ones).
    pub fn num_clauses(&self) -> usize {
        self.db.num_clauses()
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> SolverStats {
        self.stats
    }

    /// Creates a fresh variable.
    pub fn new_var(&mut self) -> Var {
        let v = Var::from_index(self.assigns.len());
        self.assigns.push(LBool::Undef);
        self.phase.push(false);
        self.best_phase.push(false);
        self.activity.push(0.0);
        self.reason.push(None);
        self.level.push(0);
        self.seen.push(false);
        self.watches.add_lit();
        self.watches.add_lit();
        self.bin_watches.add_lit();
        self.bin_watches.add_lit();
        self.lbd_levels.push(0);
        self.order.grow_to(self.assigns.len());
        self.order.insert(v, &self.activity);
        v
    }

    /// Adds a clause (a disjunction of literals) to the formula.
    ///
    /// Returns `false` if the formula is now known to be unsatisfiable at the
    /// top level (e.g. after adding an empty or immediately-conflicting
    /// clause). Duplicated literals are removed and tautological clauses are
    /// silently dropped.
    ///
    /// # Panics
    ///
    /// Panics if any literal refers to a variable that was not created with
    /// [`Solver::new_var`].
    pub fn add_clause(&mut self, lits: &[Lit]) -> bool {
        debug_assert_eq!(self.decision_level(), 0);
        if !self.ok {
            return false;
        }
        let mut c: Vec<Lit> = lits.to_vec();
        for l in &c {
            assert!(l.var().index() < self.num_vars(), "literal out of range");
        }
        c.sort_unstable();
        c.dedup();
        // Filter literal values at level 0 first: a satisfied literal drops
        // the whole clause, a falsified one is removed. Only then scan the
        // survivors for tautology — the sort order is preserved by the
        // filter, so `l` and `!l` are still adjacent if both remain.
        let mut filtered = Vec::with_capacity(c.len());
        for &l in &c {
            match self.lit_value(l) {
                LBool::True => return true, // already satisfied at level 0
                LBool::False => {}
                LBool::Undef => filtered.push(l),
            }
        }
        for w in filtered.windows(2) {
            if w[1] == !w[0] {
                return true; // tautology: contains both l and !l
            }
        }
        match filtered.len() {
            0 => {
                self.ok = false;
                if self.input_conflict.is_none() {
                    self.input_conflict = Some(c);
                }
                self.proof_empty();
                false
            }
            1 => {
                self.unchecked_enqueue(filtered[0], None);
                if self.propagate().is_some() {
                    self.ok = false;
                    self.proof_empty();
                }
                self.ok
            }
            _ => {
                let cref = self.db.alloc(&filtered, false, 0);
                self.attach(cref);
                true
            }
        }
    }

    /// Solves the formula without assumptions.
    pub fn solve(&mut self) -> SolveResult {
        self.solve_with_assumptions(&[])
    }

    /// Solves the formula under the given assumption literals.
    ///
    /// On [`SolveResult::Unsat`], [`Solver::unsat_core`] returns the subset
    /// of `assumptions` involved in the refutation. The solver remains usable
    /// afterwards (incremental interface): more variables, clauses and solve
    /// calls may follow.
    pub fn solve_with_assumptions(&mut self, assumptions: &[Lit]) -> SolveResult {
        self.solve_traced(assumptions, None)
            .expect("an unbudgeted solve always concludes")
    }

    /// Solves under assumptions with a conflict budget.
    ///
    /// Runs the exact CDCL loop of [`Solver::solve_with_assumptions`], but
    /// suspends and returns [`LimitedResult::Unknown`] once `conflict_budget`
    /// conflicts have been analysed within this call without reaching a
    /// verdict. Suspension is lossless — learnt clauses, activities and
    /// saved phases persist — so a later `solve_limited` (or an unbudgeted
    /// solve) resumes from the accumulated knowledge, and a call whose
    /// budget is never hit behaves bit-identically to
    /// [`Solver::solve_with_assumptions`]. Budgets are counted in conflicts
    /// rather than wall-clock time, so a sliced solve is deterministic.
    pub fn solve_limited(&mut self, assumptions: &[Lit], conflict_budget: u64) -> LimitedResult {
        self.stats.budget_rounds += 1;
        if let Some(probe) = self.budget_probe.as_mut() {
            probe.on_round(self.stats.budget_rounds);
        }
        match self.solve_traced(assumptions, Some(conflict_budget)) {
            Some(SolveResult::Sat) => LimitedResult::Sat,
            Some(SolveResult::Unsat) => LimitedResult::Unsat,
            None => LimitedResult::Unknown,
        }
    }

    /// Shared trace wrapper for the solve entry points: spans the call and
    /// emits per-call counter deltas (split out so the early returns share
    /// one recording point).
    fn solve_traced(&mut self, assumptions: &[Lit], budget: Option<u64>) -> Option<SolveResult> {
        let _span = hh_trace::span!("sat", "sat.solve");
        let before = (
            self.stats.propagations,
            self.stats.conflicts,
            self.stats.restarts,
            self.stats.reduces,
            self.stats.arena_bytes,
            self.stats.chrono_backtracks,
            self.stats.watch_bytes,
        );
        let result = self.solve_internal(assumptions, budget);
        self.stats.arena_bytes = (self.db.arena_words() * 4) as u64;
        self.stats.watch_bytes = self.watches.bytes() + self.bin_watches.bytes();
        if hh_trace::enabled() {
            hh_trace::counter!(
                "sat",
                "sat.propagations",
                self.stats.propagations - before.0
            );
            hh_trace::counter!("sat", "sat.conflicts", self.stats.conflicts - before.1);
            hh_trace::counter!("sat", "sat.restarts", self.stats.restarts - before.2);
            hh_trace::counter!("sat", "sat.reduce", self.stats.reduces - before.3);
            // Arena size is a gauge: emit the signed delta so the trace
            // total tracks the live arena footprint across solves.
            hh_trace::counter!(
                "sat",
                "sat.arena_bytes",
                self.stats.arena_bytes as i64 - before.4 as i64
            );
            hh_trace::counter!(
                "sat",
                "sat.chrono_backtracks",
                self.stats.chrono_backtracks - before.5
            );
            // Like the arena size, the watch footprint is a gauge: the
            // signed delta keeps the trace total equal to the live value.
            hh_trace::counter!(
                "sat",
                "sat.watch_bytes",
                self.stats.watch_bytes as i64 - before.6 as i64
            );
            if budget.is_some() {
                hh_trace::counter!("sat", "sat.budget_rounds", 1u64);
            }
        }
        result
    }

    /// The CDCL driver loop. `budget` is a per-call conflict allowance:
    /// `None` runs to a verdict, `Some(n)` suspends (returning `None`) once
    /// `n` conflicts have been analysed in this call, always at decision
    /// level 0 with all conflict handling complete, so the suspended state
    /// is exactly a restart point.
    fn solve_internal(&mut self, assumptions: &[Lit], budget: Option<u64>) -> Option<SolveResult> {
        self.stats.solves += 1;
        self.model.clear();
        self.core.clear();
        if !self.ok {
            self.proof_empty();
            return Some(SolveResult::Unsat);
        }
        self.cancel_until(0);
        self.max_learnts = (self.db.num_clauses() as f64) * LEARNT_SIZE_FACTOR + 1000.0;
        if self.config.save_best_phases {
            // Seed the best-phase snapshot from the saved phases so a restart
            // before any record never installs stale polarities.
            self.best_phase.clone_from(&self.phase);
            self.best_trail = 0;
        }
        // The budget is relative to this call: turn it into an absolute
        // ceiling on the cumulative conflict counter.
        let ceiling = budget.map(|b| self.stats.conflicts.saturating_add(b));
        let mut restarts: u64 = 0;
        loop {
            let restart_budget = luby(restarts) * RESTART_BASE;
            match self.search(restart_budget, ceiling, assumptions) {
                SearchOutcome::Done(result) => {
                    self.cancel_until(0);
                    if result == SolveResult::Unsat && self.ok && self.proof.is_some() {
                        // Assumption-based UNSAT: the standard DRAT wrapper
                        // trick. The final-core literals are logged as unit
                        // additions followed by the empty clause; a checker
                        // treating the core as part of the input formula
                        // (see `hh-proof`) then verifies the whole stream by
                        // plain RUP. The formula itself is not refuted, so
                        // `proof_done` stays clear.
                        let core = self.core.clone();
                        for &a in &core {
                            self.proof_add(&[a]);
                        }
                        self.proof_add(&[]);
                    }
                    return Some(result);
                }
                SearchOutcome::Budget => {
                    self.cancel_until(0);
                    return None;
                }
                SearchOutcome::Restart => {
                    restarts += 1;
                    self.stats.restarts += 1;
                    if self.config.save_best_phases && self.best_trail > 0 {
                        // Best-phase targeting: restart the search aimed at
                        // the deepest partial assignment seen so far.
                        self.phase.clone_from(&self.best_phase);
                    }
                }
            }
        }
    }

    /// Value of `lit` in the most recent satisfying assignment.
    ///
    /// # Panics
    ///
    /// Panics if the last solve call did not return [`SolveResult::Sat`].
    pub fn model_value(&self, lit: Lit) -> bool {
        assert!(!self.model.is_empty(), "no model available");
        match self.model[lit.var().index()].of_lit(lit) {
            LBool::True => true,
            LBool::False => false,
            // Variables never touched by search keep their saved phase; the
            // model vector is fully concrete by construction.
            LBool::Undef => unreachable!("model is total"),
        }
    }

    /// The subset of the assumption literals used to derive unsatisfiability
    /// in the most recent UNSAT answer.
    ///
    /// If the formula is unsatisfiable even without assumptions the core is
    /// empty.
    pub fn unsat_core(&self) -> &[Lit] {
        &self.core
    }

    // ------------------------------------------------------------------
    // Learned-clause export / import
    // ------------------------------------------------------------------

    /// Exports the solver's conflict knowledge over a chosen variable set:
    /// every learnt clause (and every level-0 implied unit) whose literals
    /// all satisfy `keep`.
    ///
    /// Soundness: learnt clauses and level-0 units are logical consequences
    /// of the clauses added so far, so any subset of them is implied by the
    /// formula and may be replayed into any solver holding an equisatisfiable
    /// superset of that formula over the same variables (in particular, an
    /// isomorphic encoding of the same cone) without changing any solve
    /// outcome. Callers restrict `keep` to shared base variables so clauses
    /// over caller-private variables (e.g. activation indicators) never leak.
    ///
    /// Must be called at decision level 0 (i.e. outside a solve; every
    /// `solve_with_assumptions` call backtracks to level 0 before returning).
    /// The export order — trail units first, then learnt clauses in
    /// allocation order — is deterministic for a deterministic query history.
    pub fn export_learnt<F: FnMut(Var) -> bool>(&self, keep: F) -> Vec<Vec<Lit>> {
        let mut out = Vec::new();
        self.export_learnt_with(keep, |c| out.push(c.to_vec()));
        out
    }

    /// Visit-callback form of [`Solver::export_learnt`]: each exported
    /// clause is handed to `emit` as a slice borrowed from the trail or the
    /// clause arena, so callers that only iterate (clause pools, filters)
    /// pay no per-clause allocation. Emission order is identical to
    /// `export_learnt`.
    pub fn export_learnt_with<K, F>(&self, mut keep: K, mut emit: F)
    where
        K: FnMut(Var) -> bool,
        F: FnMut(&[Lit]),
    {
        debug_assert_eq!(self.decision_level(), 0);
        // Level-0 trail prefix: units the solver has proved outright.
        let bound = self.trail_lim.first().copied().unwrap_or(self.trail.len());
        for l in &self.trail[..bound] {
            if keep(l.var()) {
                emit(std::slice::from_ref(l));
            }
        }
        for cref in self.db.learnt_refs() {
            // `learnt_refs` filters lazily-deleted slots, but keep an
            // explicit guard: database reduction deletes learnt clauses
            // mid-session, and a stale ref slipping through here would leak
            // a retracted clause into a shared pool.
            if self.db.is_deleted(cref) {
                continue;
            }
            let lits = self.db.lits(cref);
            if lits.iter().all(|l| keep(l.var())) {
                emit(lits);
            }
        }
    }

    /// Imports clauses previously produced by [`Solver::export_learnt`] on an
    /// isomorphic solver (same variable numbering for the shared prefix).
    ///
    /// Each clause must be logically implied by this solver's formula — the
    /// caller guarantees this by only transferring between sessions whose
    /// base encodings are structurally identical. The clauses are added as
    /// ordinary (non-learnt) clauses so they survive clause-database
    /// reduction and are never re-exported as fresh knowledge. Returns the
    /// number of clauses actually added (tautologies and already-satisfied
    /// clauses are filtered by [`Solver::add_clause`]).
    pub fn import_clauses(&mut self, clauses: &[Vec<Lit>]) -> usize {
        // Imported clauses are implied by the peer's formula, not derivable
        // from this solver's own inference stream, so they would make an
        // attached DRAT proof uncheckable. Imports are best-effort redundant
        // knowledge; under proof logging we simply decline them.
        if self.proof.is_some() {
            return 0;
        }
        let mut added = 0;
        for cl in clauses {
            let before = self.db.num_clauses() + self.trail.len();
            if !self.add_clause(cl) {
                // An implied clause can still expose unsatisfiability that
                // this solver simply had not derived yet; record it and stop.
                return added;
            }
            if self.db.num_clauses() + self.trail.len() > before {
                added += 1;
            }
        }
        added
    }

    // ------------------------------------------------------------------
    // Search
    // ------------------------------------------------------------------

    /// Runs CDCL until the restart policy fires, the caller's conflict
    /// ceiling is reached, or a definitive result is found.
    /// `conflict_budget` is the Luby restart budget (glucose mode ignores it
    /// and watches the LBD EMAs); `ceiling` is the absolute
    /// `stats.conflicts` value at which a budgeted solve suspends, checked
    /// only between fully-handled conflicts so suspension never splits a
    /// conflict's bookkeeping.
    fn search(
        &mut self,
        conflict_budget: u64,
        ceiling: Option<u64>,
        assumptions: &[Lit],
    ) -> SearchOutcome {
        let mut conflicts: u64 = 0;
        loop {
            if let Some(confl) = self.propagate() {
                conflicts += 1;
                self.stats.conflicts += 1;
                // Under chronological backtracking the conflict can lie
                // entirely below the current decision level (an asserting
                // literal placed at a lower level falsified an old clause):
                // fall back to the conflict's own level first so analysis
                // sees the conflicting clause at its "current" level.
                if self.config.chrono {
                    let c_lvl = self.conflict_level(confl);
                    if c_lvl == 0 {
                        self.ok = false;
                        self.proof_empty();
                        return SearchOutcome::Done(SolveResult::Unsat);
                    }
                    if c_lvl < self.decision_level() {
                        self.cancel_until(c_lvl);
                    }
                } else if self.decision_level() == 0 {
                    self.ok = false;
                    self.proof_empty();
                    return SearchOutcome::Done(SolveResult::Unsat);
                }
                let trail_depth = self.trail.len() as f64;
                let (learnt, backtrack_level) = self.analyze(confl);
                // Chronological backtracking: when the backjump would throw
                // away many levels of (possibly still useful) assignment,
                // step back a single level instead. The learnt clause stays
                // asserting because its literal is enqueued at its true
                // assertion level (`backtrack_level`), leaving an
                // out-of-order trail entry.
                let target = if self.config.chrono
                    && self.decision_level() - backtrack_level > self.config.chrono_threshold
                {
                    self.stats.chrono_backtracks += 1;
                    self.decision_level() - 1
                } else {
                    backtrack_level
                };
                self.cancel_until(target);
                let lbd = self.record_learnt(learnt, backtrack_level);
                self.decay_activities();
                // Restart bookkeeping: fold this conflict's LBD into the
                // recent EMA and the global mean, and its (pre-backtrack)
                // trail depth into the blocking EMA.
                self.lbd_count += 1;
                self.lbd_sum += lbd as f64;
                self.lbd_fast += (lbd as f64 - self.lbd_fast) * RESTART_EMA_ALPHA;
                self.trail_ema += (trail_depth - self.trail_ema) * TRAIL_EMA_ALPHA;
                if self.config.restart_mode == RestartMode::Glucose
                    && self.lbd_count >= RESTART_MIN_INTERVAL
                    && trail_depth > RESTART_BLOCK_MARGIN * self.trail_ema
                    && self.restart_pending(conflicts)
                {
                    // Blocking: the assignment is unusually deep, so a
                    // restart would throw away likely progress towards a
                    // model. Pull the EMA back to the mean to defer it.
                    self.lbd_fast = self.lbd_sum / self.lbd_count as f64;
                    self.stats.restart_blocks += 1;
                }
            } else {
                if ceiling.is_some_and(|c| self.stats.conflicts >= c) {
                    return SearchOutcome::Budget;
                }
                let restart = match self.config.restart_mode {
                    RestartMode::Luby => conflicts >= conflict_budget,
                    RestartMode::Glucose => self.restart_pending(conflicts),
                };
                if restart {
                    self.cancel_until(0);
                    return SearchOutcome::Restart;
                }
                if self.db.num_learnts() as f64 >= self.max_learnts {
                    self.reduce_db();
                }
                // Place assumptions as pseudo-decisions, one per level.
                let mut next: Option<Lit> = None;
                while (self.decision_level() as usize) < assumptions.len() {
                    let p = assumptions[self.decision_level() as usize];
                    match self.lit_value(p) {
                        LBool::True => {
                            // Already satisfied: open a dummy level so the
                            // level/assumption indices stay aligned.
                            self.trail_lim.push(self.trail.len());
                        }
                        LBool::False => {
                            self.analyze_final(p);
                            return SearchOutcome::Done(SolveResult::Unsat);
                        }
                        LBool::Undef => {
                            next = Some(p);
                            break;
                        }
                    }
                }
                let decision = match next {
                    Some(p) => p,
                    None => match self.pick_branch_lit() {
                        Some(p) => p,
                        None => {
                            // All variables assigned: model found.
                            self.model = self.assigns.clone();
                            return SearchOutcome::Done(SolveResult::Sat);
                        }
                    },
                };
                self.stats.decisions += 1;
                self.trail_lim.push(self.trail.len());
                self.unchecked_enqueue(decision, None);
            }
        }
    }

    /// Whether the glucose restart condition currently holds: past the
    /// minimum interval, with the recent-LBD EMA above the margin over the
    /// global mean (high recent glue = the search has gone stale).
    fn restart_pending(&self, conflicts_this_round: u64) -> bool {
        conflicts_this_round >= RESTART_MIN_INTERVAL
            && self.lbd_count > 0
            && self.lbd_fast > RESTART_MARGIN * (self.lbd_sum / self.lbd_count as f64)
    }

    fn pick_branch_lit(&mut self) -> Option<Lit> {
        loop {
            let v = self.order.pop_max(&self.activity)?;
            if self.assigns[v.index()] == LBool::Undef {
                return Some(v.lit(self.phase[v.index()]));
            }
        }
    }

    // ------------------------------------------------------------------
    // Propagation
    // ------------------------------------------------------------------

    fn propagate(&mut self) -> Option<ClauseRef> {
        let use_blockers = self.config.use_blockers;
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            self.stats.propagations += 1;
            let pc = p.code();

            // Binary fast path: the watcher's blocker *is* the implied
            // literal, so every two-literal clause is resolved without
            // touching the clause arena. Enqueueing never mutates the list
            // being walked, so plain index iteration is safe.
            let mut bi = 0;
            while bi < self.bin_watches.len(pc) {
                let w = self.bin_watches.get(pc, bi);
                bi += 1;
                match val(&self.assigns, w.blocker) {
                    LBool::True => {}
                    LBool::Undef => self.unchecked_enqueue(w.blocker, Some(w.cref)),
                    LBool::False => {
                        self.qhead = self.trail.len();
                        return Some(w.cref);
                    }
                }
            }

            // Long-clause walk, compacting kept watchers in place with an
            // i/j index pair. A relocated watcher is only ever pushed to a
            // *different* literal's list (the new watch is non-false, `!p`
            // is false), so the list being walked never grows underneath
            // the snapshot length.
            let mut conflict = None;
            let n = self.watches.len(pc);
            let mut i = 0;
            let mut j = 0;
            'watchers: while i < n {
                let w = self.watches.get(pc, i);
                i += 1;
                // Blocker check before any arena load: if some other
                // literal of the clause is already true, keep the watcher.
                if use_blockers && val(&self.assigns, w.blocker) == LBool::True {
                    self.watches.set(pc, j, w);
                    j += 1;
                    continue;
                }
                let false_lit = !p;
                let cref = w.cref;
                // One arena dereference for the whole clause body.
                let lits = self.db.lits_mut(cref);
                // Normalise so the falsified watched literal is at index 1.
                if lits[0] == false_lit {
                    lits.swap(0, 1);
                }
                debug_assert_eq!(lits[1], false_lit);
                let first = lits[0];
                if first != w.blocker && val(&self.assigns, first) == LBool::True {
                    self.watches.set(
                        pc,
                        j,
                        Watcher {
                            cref,
                            blocker: first,
                        },
                    );
                    j += 1;
                    continue;
                }
                // Look for a new literal to watch.
                let mut new_watch = None;
                for k in 2..lits.len() {
                    if val(&self.assigns, lits[k]) != LBool::False {
                        lits.swap(1, k);
                        new_watch = Some(lits[1]);
                        break;
                    }
                }
                if let Some(nw) = new_watch {
                    self.watches.push(
                        (!nw).code(),
                        Watcher {
                            cref,
                            blocker: first,
                        },
                    );
                    continue 'watchers;
                }
                // Clause is satisfied by `first`, unit, or conflicting.
                self.watches.set(
                    pc,
                    j,
                    Watcher {
                        cref,
                        blocker: first,
                    },
                );
                j += 1;
                match val(&self.assigns, first) {
                    // Reachable only with `use_blockers` off (the pre-load
                    // check would have kept the watcher): nothing to do,
                    // and re-enqueueing a true literal would grow the trail
                    // forever.
                    LBool::True => {}
                    LBool::Undef => self.unchecked_enqueue(first, Some(cref)),
                    LBool::False => {
                        conflict = Some(cref);
                        self.qhead = self.trail.len();
                        // Copy remaining watchers back.
                        while i < n {
                            let w = self.watches.get(pc, i);
                            self.watches.set(pc, j, w);
                            j += 1;
                            i += 1;
                        }
                    }
                }
            }
            self.watches.truncate(pc, j);
            if conflict.is_some() {
                return conflict;
            }
        }
        None
    }

    #[inline]
    fn lit_value(&self, l: Lit) -> LBool {
        self.assigns[l.var().index()].of_lit(l)
    }

    fn unchecked_enqueue(&mut self, p: Lit, from: Option<ClauseRef>) {
        let lvl = self.decision_level();
        self.unchecked_enqueue_at(p, from, lvl);
    }

    /// Enqueues `p` with an explicit assignment level, which may lie below
    /// the current decision level (chronological backtracking assigns a
    /// learnt clause's asserting literal at its true assertion level even
    /// though the trail is deeper). The entry is appended to the trail
    /// wherever search currently is — an "out-of-order" entry that
    /// [`Solver::cancel_until`] keeps alive when unwinding past it.
    fn unchecked_enqueue_at(&mut self, p: Lit, from: Option<ClauseRef>, lvl: u32) {
        debug_assert_eq!(self.lit_value(p), LBool::Undef);
        debug_assert!(lvl <= self.decision_level());
        let v = p.var().index();
        self.assigns[v] = LBool::from_bool(p.is_positive());
        self.reason[v] = from;
        self.level[v] = lvl;
        self.trail.push(p);
    }

    /// Highest decision level among the literals of `confl`. With
    /// chronological backtracking a conflicting clause can sit entirely
    /// below the current decision level; search backtracks to this level
    /// before analysing it.
    fn conflict_level(&self, confl: ClauseRef) -> u32 {
        self.db
            .lits(confl)
            .iter()
            .map(|l| self.level[l.var().index()])
            .max()
            .unwrap_or(0)
    }

    #[inline]
    fn decision_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    fn cancel_until(&mut self, target_level: u32) {
        if self.decision_level() <= target_level {
            return;
        }
        if self.config.save_best_phases && self.trail.len() > self.best_trail {
            // Deepest trail of this solve so far: snapshot its polarities
            // as the best-phase target before unwinding it.
            self.best_trail = self.trail.len();
            for &p in &self.trail {
                self.best_phase[p.var().index()] = p.is_positive();
            }
        }
        let bound = self.trail_lim[target_level as usize];
        if self.config.chrono {
            // Chronological backtracking leaves out-of-order entries on the
            // trail: assignments above `bound` whose level is at or below
            // the target. Those survive the unwind — compact them down in
            // trail order and re-propagate from `bound` so their watch
            // lists are revisited at the new level.
            let mut j = bound;
            for i in bound..self.trail.len() {
                let p = self.trail[i];
                let v = p.var().index();
                if self.level[v] <= target_level {
                    self.trail[j] = p;
                    j += 1;
                } else {
                    self.phase[v] = p.is_positive();
                    self.assigns[v] = LBool::Undef;
                    self.reason[v] = None;
                    self.order.insert(p.var(), &self.activity);
                }
            }
            self.trail.truncate(j);
        } else {
            for i in (bound..self.trail.len()).rev() {
                let p = self.trail[i];
                let v = p.var().index();
                self.phase[v] = p.is_positive();
                self.assigns[v] = LBool::Undef;
                self.reason[v] = None;
                self.order.insert(p.var(), &self.activity);
            }
            self.trail.truncate(bound);
        }
        self.trail_lim.truncate(target_level as usize);
        self.qhead = bound;
    }

    // ------------------------------------------------------------------
    // Conflict analysis
    // ------------------------------------------------------------------

    /// First-UIP conflict analysis. Returns the learnt clause (asserting
    /// literal first) and the level to backtrack to.
    fn analyze(&mut self, confl: ClauseRef) -> (Vec<Lit>, u32) {
        let mut learnt: Vec<Lit> = vec![Lit(0)]; // placeholder for the UIP
        let mut path_count: u32 = 0;
        let mut p: Option<Lit> = None;
        let mut index = self.trail.len();
        let mut confl = confl;
        loop {
            {
                self.bump_reason_clause(confl);
                // Skip the resolved-on variable rather than a fixed index:
                // binary reasons keep their arena order, so the implied
                // literal is not guaranteed to sit at index 0.
                for k in 0..self.db.size(confl) {
                    let q = self.db.lits(confl)[k];
                    if let Some(pl) = p {
                        if q.var() == pl.var() {
                            continue;
                        }
                    }
                    let v = q.var().index();
                    if !self.seen[v] && self.level[v] > 0 {
                        self.bump_var(q.var());
                        self.seen[v] = true;
                        if self.level[v] >= self.decision_level() {
                            path_count += 1;
                        } else {
                            learnt.push(q);
                        }
                    }
                }
            }
            // Select the next clause to look at: the deepest seen literal
            // *of the current decision level*. Out-of-order trail entries
            // (chronological backtracking) can put seen lower-level literals
            // above current-level ones; those are finished clause literals,
            // not resolution candidates, so they are skipped.
            loop {
                index -= 1;
                let v = self.trail[index].var().index();
                if self.seen[v] && self.level[v] >= self.decision_level() {
                    break;
                }
            }
            let pl = self.trail[index];
            self.seen[pl.var().index()] = false;
            path_count -= 1;
            if path_count == 0 {
                p = Some(pl);
                break;
            }
            confl = self.reason[pl.var().index()]
                .expect("non-decision implied literal must have a reason");
            p = Some(pl);
        }
        learnt[0] = !p.unwrap();

        // Basic clause minimisation: drop literals whose reason clause is
        // entirely marked seen (they are implied by the rest of the clause).
        let keep: Vec<bool> = learnt
            .iter()
            .enumerate()
            .map(|(i, &l)| i == 0 || !self.literal_redundant(l))
            .collect();
        let minimized: Vec<Lit> = learnt
            .iter()
            .zip(&keep)
            .filter(|(_, &k)| k)
            .map(|(&l, _)| l)
            .collect();
        // Clear seen flags.
        for &l in &learnt {
            self.seen[l.var().index()] = false;
        }
        let learnt = minimized;

        let backtrack_level = if learnt.len() == 1 {
            0
        } else {
            // Find the literal with the second-highest level and move it to
            // index 1 (it becomes the second watched literal).
            let mut max_i = 1;
            for i in 2..learnt.len() {
                if self.level[learnt[i].var().index()] > self.level[learnt[max_i].var().index()] {
                    max_i = i;
                }
            }
            let mut learnt = learnt;
            learnt.swap(1, max_i);
            let bl = self.level[learnt[1].var().index()];
            return (learnt, bl);
        };
        (learnt, backtrack_level)
    }

    /// `true` if `l` (a non-asserting learnt literal) is implied by the other
    /// literals of the learnt clause, i.e. every antecedent in its reason is
    /// already marked seen or at level 0.
    fn literal_redundant(&self, l: Lit) -> bool {
        match self.reason[l.var().index()] {
            None => false,
            Some(r) => self.db.lits(r).iter().all(|&q| {
                q.var() == l.var() || self.seen[q.var().index()] || self.level[q.var().index()] == 0
            }),
        }
    }

    /// Computes the UNSAT core when assumption `p` is falsified: walks the
    /// implication graph from `!p` back to the assumption pseudo-decisions.
    fn analyze_final(&mut self, p: Lit) {
        self.core.clear();
        self.core.push(p);
        if self.decision_level() == 0 {
            return;
        }
        self.seen[p.var().index()] = true;
        let bottom = self.trail_lim[0];
        for i in (bottom..self.trail.len()).rev() {
            let x = self.trail[i];
            let v = x.var().index();
            if !self.seen[v] {
                continue;
            }
            match self.reason[v] {
                None => {
                    // Decision within assumption levels: `x` is an assumption.
                    debug_assert!(self.level[v] > 0);
                    self.core.push(x);
                }
                Some(r) => {
                    for k in 0..self.db.size(r) {
                        let q = self.db.lits(r)[k];
                        if q.var() != x.var() && self.level[q.var().index()] > 0 {
                            self.seen[q.var().index()] = true;
                        }
                    }
                }
            }
            self.seen[v] = false;
        }
        self.seen[p.var().index()] = false;
        self.core.sort_unstable();
        self.core.dedup();
    }

    /// Installs a learnt clause and returns its LBD (1 for units). The
    /// asserting literal is enqueued at `assert_level` — the level of the
    /// clause's second-highest literal — which equals the current decision
    /// level after a backjump but lies below it after a chronological
    /// backtrack (producing an out-of-order trail entry).
    fn record_learnt(&mut self, learnt: Vec<Lit>, assert_level: u32) -> u32 {
        match learnt.len() {
            0 => {
                self.ok = false;
                self.proof_empty();
                0
            }
            1 => {
                self.proof_add(&learnt);
                self.unchecked_enqueue_at(learnt[0], None, 0);
                1
            }
            _ => {
                self.proof_add(&learnt);
                let lbd = self.compute_lbd(&learnt);
                let asserting = learnt[0];
                let cref = self.db.alloc(&learnt, true, lbd);
                self.attach(cref);
                self.bump_clause_activity(cref);
                self.db.set_used(cref);
                self.unchecked_enqueue_at(asserting, Some(cref), assert_level);
                lbd
            }
        }
    }

    /// Number of distinct decision levels among `lits`, via per-level
    /// stamps: O(clause length), no sort, no allocation.
    fn compute_lbd(&mut self, lits: &[Lit]) -> u32 {
        lbd_of(&self.level, &mut self.lbd_levels, &mut self.lbd_stamp, lits)
    }

    fn attach(&mut self, cref: ClauseRef) {
        let lits = self.db.lits(cref);
        let (l0, l1, binary) = (lits[0], lits[1], lits.len() == 2);
        if binary && self.config.inline_binaries {
            self.bin_watches
                .push((!l0).code(), Watcher { cref, blocker: l1 });
            self.bin_watches
                .push((!l1).code(), Watcher { cref, blocker: l0 });
        } else {
            self.watches
                .push((!l0).code(), Watcher { cref, blocker: l1 });
            self.watches
                .push((!l1).code(), Watcher { cref, blocker: l0 });
        }
    }

    // ------------------------------------------------------------------
    // Activities and database reduction
    // ------------------------------------------------------------------

    fn bump_var(&mut self, v: Var) {
        self.activity[v.index()] += self.var_inc;
        if self.activity[v.index()] > 1e100 {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
        }
        self.order.decrease_key(v, &self.activity);
    }

    fn bump_clause_activity(&mut self, cref: ClauseRef) {
        if !self.db.is_learnt(cref) {
            return;
        }
        let a = self.db.activity(cref) + self.clause_inc;
        self.db.set_activity(cref, a);
        if a > 1e20 {
            self.db.rescale_activities(1e-20);
            self.clause_inc *= 1e-20;
        }
    }

    /// Bookkeeping for a learnt clause that served as an antecedent during
    /// conflict analysis: bump its activity, mark it used (protecting it
    /// from the next reduction round), and refresh its LBD — a clause whose
    /// glue improves to [`GLUE_LBD`] is kept from then on.
    fn bump_reason_clause(&mut self, cref: ClauseRef) {
        if !self.db.is_learnt(cref) {
            return;
        }
        self.bump_clause_activity(cref);
        self.db.set_used(cref);
        let old = self.db.lbd(cref);
        if old > GLUE_LBD {
            let new = lbd_of(
                &self.level,
                &mut self.lbd_levels,
                &mut self.lbd_stamp,
                self.db.lits(cref),
            );
            if new < old {
                self.db.set_lbd(cref, new);
            }
        }
    }

    fn decay_activities(&mut self) {
        self.var_inc /= VAR_DECAY;
        self.clause_inc /= CLAUSE_DECAY as f32;
    }

    /// Reduces the learnt database: deletes the worst [`REDUCE_FRACTION`]
    /// of the learnt clauses that are not glue, not locked and not used
    /// since the previous reduction (high LBD first, low activity first
    /// among equals), then clears every used bit so protection lasts
    /// exactly one round. A reduction that deleted anything collects the
    /// garbage at once.
    ///
    /// The learnt cap grows by [`LEARNT_SIZE_INC`] unless the round deleted
    /// nothing while some clause was protected only by its used bit: that
    /// bit is now clear, so the next reduction point retries at the same
    /// cap. A round with no deletable clause at all (every learnt is glue
    /// or locked) still grows the cap, so a reduction cannot re-fire on
    /// every decision.
    fn reduce_db(&mut self) {
        let start = std::time::Instant::now();
        self.stats.reduces += 1;
        let learnts = self.db.learnt_refs();
        let mut used_only = 0usize;
        let mut cands: Vec<ClauseRef> = Vec::new();
        for &c in &learnts {
            if self.db.lbd(c) <= GLUE_LBD || self.is_locked(c) {
                continue;
            }
            if self.db.is_used(c) {
                used_only += 1;
            } else {
                cands.push(c);
            }
        }
        cands.sort_by(|&a, &b| {
            self.db.lbd(b).cmp(&self.db.lbd(a)).then_with(|| {
                self.db
                    .activity(a)
                    .partial_cmp(&self.db.activity(b))
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
        });
        let target = (cands.len() as f64 * REDUCE_FRACTION) as usize;
        for &cref in cands.iter().take(target) {
            self.delete_clause_logged(cref);
            self.stats.deleted_clauses += 1;
        }
        for &cref in &learnts {
            if !self.db.is_deleted(cref) {
                self.db.clear_used(cref);
            }
        }
        if target > 0 {
            self.collect_garbage();
        }
        if target > 0 || used_only == 0 {
            self.max_learnts *= LEARNT_SIZE_INC;
        }
        self.stats.reduce_time_us += start.elapsed().as_micros() as u64;
    }

    fn is_locked(&self, cref: ClauseRef) -> bool {
        let first = self.db.lits(cref)[0];
        self.reason[first.var().index()] == Some(cref) && self.lit_value(first) == LBool::True
    }

    /// Compacts the clause arena in place, remaps every reason through the
    /// move table, and rebuilds the watch lists from the live clauses (the
    /// old watchers still hold pre-compaction refs, so they are discarded
    /// rather than remapped).
    fn collect_garbage(&mut self) {
        let remap = self.db.compact();
        self.stats.compactions += 1;
        for cref in self.reason.iter_mut().flatten() {
            *cref = ClauseDb::remap_ref(&remap, *cref);
        }
        self.watches.clear();
        self.bin_watches.clear();
        let refs: Vec<ClauseRef> = self.db.live_refs().collect();
        for cref in refs {
            self.attach(cref);
        }
        // A full rebuild repopulates the same lists, so the flat regions are
        // mostly reused; compact only if relocation holes still dominate.
        if self.watches.should_compact() {
            self.watches.compact();
        }
        if self.bin_watches.should_compact() {
            self.bin_watches.compact();
        }
    }

    // ------------------------------------------------------------------
    // Debug hooks (test-only entry points into internal machinery)
    // ------------------------------------------------------------------

    /// Forces a learnt-database reduction round, regardless of triggers.
    /// Test hook; not part of the stable API.
    #[doc(hidden)]
    pub fn debug_force_reduce(&mut self) {
        self.reduce_db();
    }

    /// Forces an arena compaction and watch rebuild, as a reduction that
    /// deleted clauses runs. Test hook; not part of the stable API.
    #[doc(hidden)]
    pub fn debug_force_compact(&mut self) {
        self.collect_garbage();
    }

    /// Fraction of the arena occupied by dead words. Test hook.
    #[doc(hidden)]
    pub fn debug_garbage_frac(&self) -> f64 {
        self.db.garbage_frac()
    }

    /// The current learnt-clause cap that triggers a reduction. Test hook.
    #[doc(hidden)]
    pub fn debug_max_learnts(&self) -> f64 {
        self.max_learnts
    }

    /// Number of live learnt clauses. Test hook.
    #[doc(hidden)]
    pub fn debug_num_learnts(&self) -> usize {
        self.db.num_learnts()
    }

    /// Literals of every live learnt clause together with its stored LBD
    /// (glue clauses have LBD ≤ 2 and survive every reduction), in learn
    /// order. Test hook.
    #[doc(hidden)]
    pub fn debug_learnts_with_lbd(&self) -> Vec<(Vec<Lit>, u32)> {
        self.db
            .learnt_refs()
            .into_iter()
            .map(|c| (self.db.lits(c).to_vec(), self.db.lbd(c)))
            .collect()
    }

    /// Literals of every clause currently serving as the reason for an
    /// assignment on the trail. Test hook.
    #[doc(hidden)]
    pub fn debug_reason_clauses(&self) -> Vec<Vec<Lit>> {
        self.trail
            .iter()
            .filter_map(|p| self.reason[p.var().index()])
            .map(|c| self.db.lits(c).to_vec())
            .collect()
    }

    /// Checks the two-watched-literal invariant: every live clause of size
    /// ≥ 2 is watched exactly twice, on the complements of two of its own
    /// literals (binary clauses in the binary lists when
    /// [`Config::inline_binaries`] is on, longer clauses in the main
    /// lists), and no watcher points at a deleted clause. Test hook.
    #[doc(hidden)]
    pub fn debug_check_watches(&self) -> Result<(), String> {
        use std::collections::HashMap;
        let mut count: HashMap<u32, Vec<Lit>> = HashMap::new();
        for code in 0..self.watches.num_codes() {
            for w in self.watches.slice(code) {
                if self.db.is_deleted(w.cref) {
                    return Err(format!("watcher on deleted clause {:?}", w.cref));
                }
                if self.config.inline_binaries && self.db.size(w.cref) == 2 {
                    return Err(format!("binary clause {:?} in long watch list", w.cref));
                }
                count
                    .entry(w.cref.0)
                    .or_default()
                    .push(!Lit::from_code(code));
            }
        }
        for code in 0..self.bin_watches.num_codes() {
            for w in self.bin_watches.slice(code) {
                if self.db.is_deleted(w.cref) {
                    return Err(format!("bin watcher on deleted clause {:?}", w.cref));
                }
                if self.db.size(w.cref) != 2 {
                    return Err(format!(
                        "non-binary clause {:?} in binary watch list",
                        w.cref
                    ));
                }
                count
                    .entry(w.cref.0)
                    .or_default()
                    .push(!Lit::from_code(code));
            }
        }
        for cref in self.db.live_refs() {
            let lits = self.db.lits(cref);
            let watched = count.get(&cref.0).cloned().unwrap_or_default();
            if watched.len() != 2 {
                return Err(format!(
                    "clause {:?} watched {} times (expected 2)",
                    cref,
                    watched.len()
                ));
            }
            for w in &watched {
                if !lits.contains(w) {
                    return Err(format!(
                        "clause {:?} watched on {} which it does not contain",
                        cref, w
                    ));
                }
            }
        }
        Ok(())
    }
}

/// Stamp-based LBD: counts distinct decision levels among `lits` in one
/// pass using a per-level generation table. Free function over disjoint
/// solver fields so callers can hold an arena borrow at the same time.
fn lbd_of(level: &[u32], lbd_levels: &mut [u64], lbd_stamp: &mut u64, lits: &[Lit]) -> u32 {
    *lbd_stamp += 1;
    let stamp = *lbd_stamp;
    let mut lbd = 0u32;
    for l in lits {
        let lvl = level[l.var().index()] as usize;
        if lbd_levels[lvl] != stamp {
            lbd_levels[lvl] = stamp;
            lbd += 1;
        }
    }
    lbd
}

/// The Luby restart sequence: 1, 1, 2, 1, 1, 2, 4, ...
fn luby(mut i: u64) -> u64 {
    // Find the finite subsequence that contains index `i`, then the position
    // of `i` within it (standard MiniSat formulation).
    let mut size: u64 = 1;
    let mut seq: u32 = 0;
    while size < i + 1 {
        seq += 1;
        size = 2 * size + 1;
    }
    while size - 1 != i {
        size = (size - 1) >> 1;
        seq -= 1;
        i %= size;
    }
    1u64 << seq
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn luby_prefix() {
        let expected = [1u64, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8];
        let got: Vec<u64> = (0..15).map(luby).collect();
        assert_eq!(got, expected);
    }

    #[test]
    fn trivially_sat() {
        let mut s = Solver::new();
        let a = s.new_var();
        assert!(s.add_clause(&[a.positive()]));
        assert_eq!(s.solve(), SolveResult::Sat);
        assert!(s.model_value(a.positive()));
    }

    #[test]
    fn trivially_unsat() {
        let mut s = Solver::new();
        let a = s.new_var();
        assert!(s.add_clause(&[a.positive()]));
        assert!(!s.add_clause(&[a.negative()]));
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn empty_formula_is_sat() {
        let mut s = Solver::new();
        assert_eq!(s.solve(), SolveResult::Sat);
    }

    #[test]
    fn unit_propagation_chain() {
        let mut s = Solver::new();
        let vs: Vec<_> = (0..5).map(|_| s.new_var()).collect();
        for w in vs.windows(2) {
            s.add_clause(&[!w[0].positive(), w[1].positive()]);
        }
        s.add_clause(&[vs[0].positive()]);
        assert_eq!(s.solve(), SolveResult::Sat);
        for v in &vs {
            assert!(s.model_value(v.positive()));
        }
    }

    #[test]
    fn xor_like_sat() {
        // (a | b) & (!a | !b): exactly one of a, b.
        let mut s = Solver::new();
        let a = s.new_var().positive();
        let b = s.new_var().positive();
        s.add_clause(&[a, b]);
        s.add_clause(&[!a, !b]);
        assert_eq!(s.solve(), SolveResult::Sat);
        assert_ne!(s.model_value(a), s.model_value(b));
    }

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn pigeonhole_3_into_2_unsat() {
        // 3 pigeons, 2 holes. p[i][j] = pigeon i in hole j.
        let mut s = Solver::new();
        let mut p = [[Lit(0); 2]; 3];
        for row in p.iter_mut() {
            for cell in row.iter_mut() {
                *cell = s.new_var().positive();
            }
        }
        for row in &p {
            s.add_clause(&[row[0], row[1]]);
        }
        for i in 0..3 {
            for k in (i + 1)..3 {
                for j in 0..2 {
                    s.add_clause(&[!p[i][j], !p[k][j]]);
                }
            }
        }
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn assumptions_and_core() {
        let mut s = Solver::new();
        let a = s.new_var().positive();
        let b = s.new_var().positive();
        let c = s.new_var().positive();
        // a & b -> contradiction; c irrelevant.
        s.add_clause(&[!a, !b]);
        assert_eq!(s.solve_with_assumptions(&[a, b, c]), SolveResult::Unsat);
        let core = s.unsat_core().to_vec();
        assert!(core.contains(&a));
        assert!(core.contains(&b));
        assert!(!core.contains(&c));
        // Still solvable without the clashing assumptions.
        assert_eq!(s.solve_with_assumptions(&[a, c]), SolveResult::Sat);
        assert!(s.model_value(a));
        assert!(s.model_value(c));
        assert!(!s.model_value(b));
    }

    #[test]
    fn core_requires_propagation() {
        // Assumptions that conflict only after a propagation chain.
        let mut s = Solver::new();
        let a = s.new_var().positive();
        let b = s.new_var().positive();
        let c = s.new_var().positive();
        let d = s.new_var().positive();
        s.add_clause(&[!a, c]); // a -> c
        s.add_clause(&[!b, d]); // b -> d
        s.add_clause(&[!c, !d]); // !(c & d)
        assert_eq!(s.solve_with_assumptions(&[a, b]), SolveResult::Unsat);
        let core = s.unsat_core().to_vec();
        assert!(core.contains(&a) && core.contains(&b));
    }

    #[test]
    fn incremental_reuse() {
        let mut s = Solver::new();
        let a = s.new_var().positive();
        assert_eq!(s.solve_with_assumptions(&[a]), SolveResult::Sat);
        let b = s.new_var().positive();
        s.add_clause(&[!a, !b]);
        assert_eq!(s.solve_with_assumptions(&[a, b]), SolveResult::Unsat);
        assert_eq!(s.solve_with_assumptions(&[b]), SolveResult::Sat);
        assert!(!s.model_value(a));
    }

    #[test]
    fn top_level_unsat_gives_empty_core() {
        let mut s = Solver::new();
        let a = s.new_var().positive();
        let b = s.new_var().positive();
        s.add_clause(&[a]);
        s.add_clause(&[!a]);
        assert_eq!(s.solve_with_assumptions(&[b]), SolveResult::Unsat);
        assert!(s.unsat_core().is_empty());
    }

    #[test]
    fn duplicate_and_tautological_clauses() {
        let mut s = Solver::new();
        let a = s.new_var().positive();
        let b = s.new_var().positive();
        assert!(s.add_clause(&[a, a, b]));
        assert!(s.add_clause(&[a, !a])); // tautology, dropped
        assert_eq!(s.solve(), SolveResult::Sat);
    }

    #[test]
    fn falsified_literals_filtered_before_tautology_scan() {
        // After `a` is fixed false at level 0, the clause [a, !a, b] must
        // still be recognised as a tautology (or equivalently satisfied by
        // !a) and dropped without constraining `b`; the clause [a, b] must
        // shrink to the unit [b].
        let mut s = Solver::new();
        let a = s.new_var().positive();
        let b = s.new_var().positive();
        assert!(s.add_clause(&[!a])); // fixes a = false at level 0
        assert!(s.add_clause(&[a, !a, b])); // tautology despite a being false
        assert_eq!(s.solve(), SolveResult::Sat);
        // b is unconstrained so far: force it through a filtered clause.
        assert!(s.add_clause(&[a, b])); // a false -> unit b
        assert_eq!(s.solve(), SolveResult::Sat);
        assert!(s.model_value(b));
    }

    #[test]
    fn clause_falsified_at_level_zero_reports_unsat() {
        let mut s = Solver::new();
        let a = s.new_var().positive();
        let b = s.new_var().positive();
        assert!(s.add_clause(&[!a]));
        assert!(s.add_clause(&[!b]));
        // Every literal already false at level 0: empty after filtering.
        assert!(!s.add_clause(&[a, b]));
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn satisfied_literal_drops_clause_regardless_of_position() {
        let mut s = Solver::new();
        let a = s.new_var().positive();
        let b = s.new_var().positive();
        assert!(s.add_clause(&[a]));
        // Satisfied at level 0 by `a`; must not create a unit on b.
        assert!(s.add_clause(&[b, a]));
        assert_eq!(s.solve_with_assumptions(&[!b]), SolveResult::Sat);
        assert!(!s.model_value(b));
    }

    /// (is_delete, literals) in emission order.
    type ProofEvents = std::sync::Arc<std::sync::Mutex<Vec<(bool, Vec<Lit>)>>>;

    /// A test sink recording every event through a shared handle.
    #[derive(Debug, Clone, Default)]
    struct RecordingSink {
        events: ProofEvents,
    }

    impl crate::proof::ProofSink for RecordingSink {
        fn add_clause(&mut self, lits: &[Lit]) {
            self.events.lock().unwrap().push((false, lits.to_vec()));
        }
        fn delete_clause(&mut self, lits: &[Lit]) {
            self.events.lock().unwrap().push((true, lits.to_vec()));
        }
    }

    #[test]
    fn proof_sink_logs_refutation_ending_in_empty_clause() {
        let mut s = Solver::new();
        let a = s.new_var().positive();
        let b = s.new_var().positive();
        s.add_clause(&[a, b]);
        s.add_clause(&[a, !b]);
        s.add_clause(&[!a, b]);
        s.add_clause(&[!a, !b]);
        let sink = RecordingSink::default();
        let events = sink.events.clone();
        s.set_proof_sink(Box::new(sink));
        assert_eq!(s.solve(), SolveResult::Unsat);
        let ev = events.lock().unwrap();
        let adds: Vec<&Vec<Lit>> = ev.iter().filter(|(d, _)| !d).map(|(_, c)| c).collect();
        assert!(!adds.is_empty(), "an UNSAT run must log derivations");
        assert!(
            adds.last().unwrap().is_empty(),
            "the proof must end with the empty clause, got {adds:?}"
        );
    }

    #[test]
    fn proof_sink_logs_assumption_core_as_units() {
        // SAT formula, UNSAT only under assumptions: the wrapper trick must
        // log the negated final core as units followed by the empty clause,
        // certifying formula ∧ assumptions ⊢ ⊥.
        let mut s = Solver::new();
        let a = s.new_var().positive();
        let b = s.new_var().positive();
        let c = s.new_var().positive();
        s.add_clause(&[!a, c]);
        s.add_clause(&[!b, !c]);
        let sink = RecordingSink::default();
        let events = sink.events.clone();
        s.set_proof_sink(Box::new(sink));
        assert_eq!(s.solve_with_assumptions(&[a, b]), SolveResult::Unsat);
        let core = s.unsat_core().to_vec();
        assert!(!core.is_empty());
        let ev = events.lock().unwrap();
        let adds: Vec<&Vec<Lit>> = ev.iter().filter(|(d, _)| !d).map(|(_, c)| c).collect();
        assert!(adds.last().unwrap().is_empty());
        for l in &core {
            assert!(
                adds.iter().any(|cl| cl.as_slice() == [*l]),
                "core literal {l:?} must be logged as a unit"
            );
        }
    }

    #[test]
    fn import_clauses_declines_under_proof_logging() {
        let mut s = Solver::new();
        let a = s.new_var().positive();
        let b = s.new_var().positive();
        s.add_clause(&[a, b]);
        s.set_proof_sink(Box::new(crate::proof::CountingSink::default()));
        // Imports carry no derivation, so they would punch holes in the
        // DRAT stream; under logging they must be declined wholesale.
        assert_eq!(s.import_clauses(&[vec![a, !b]]), 0);
        assert!(s.take_proof_sink().is_some());
        assert_eq!(s.import_clauses(&[vec![a, !b]]), 1);
    }

    #[test]
    fn config_validate_accepts_shipped_presets() {
        assert_eq!(Config::default().validate(), Ok(()));
        assert_eq!(Config::seed_baseline().validate(), Ok(()));
    }

    #[test]
    fn config_validate_rejects_nonsense() {
        let bad = Config {
            chrono_threshold: 0,
            ..Config::default()
        };
        assert!(bad.validate().is_err(), "accepted nonsense config: {bad:?}");
    }

    #[test]
    fn seed_baseline_round_trips_the_seed_solver_shape() {
        // The baseline must recreate the pre-raw-speed-PRs solver: nested
        // per-literal watch Vecs (plus the restart shape asserted
        // alongside), and it must stay a valid config.
        let base = Config::seed_baseline();
        assert_eq!(base.validate(), Ok(()));
        assert!(!base.flat_watches);
        assert!(!base.inline_binaries);
        assert!(!base.use_blockers);
        assert!(!base.chrono);
        assert!(!base.save_best_phases);
        assert_eq!(base.restart_mode, RestartMode::Luby);
        // The one option the baseline does not pin matches the modern
        // default, so A/B runs differ only in the features under test.
        let modern = Config::default();
        assert!(modern.flat_watches);
        assert_eq!(base.chrono_threshold, modern.chrono_threshold);
        // And a baseline solver actually solves.
        let mut s = Solver::with_config(base);
        let a = s.new_var().positive();
        let b = s.new_var().positive();
        s.add_clause(&[a, b]);
        s.add_clause(&[!a, b]);
        assert_eq!(s.solve(), SolveResult::Sat);
        assert!(s.model_value(b));
    }

    #[test]
    fn learnt_cap_grows_only_when_a_reduction_frees_or_cannot() {
        // A round with no deletable clause (no learnts yet) grows the cap.
        let mut s = Solver::new();
        let a = s.new_var().positive();
        let b = s.new_var().positive();
        s.add_clause(&[a, b]);
        assert_eq!(s.solve(), SolveResult::Sat);
        let cap = s.debug_max_learnts();
        s.debug_force_reduce();
        assert_eq!(s.debug_max_learnts(), cap * LEARNT_SIZE_INC);

        // Learnt clauses are born used: the first round deletes nothing and
        // only clears that protection, so the cap stays; the next round
        // deletes and grows it.
        let clauses = random_3cnf(80, 340, 0xE1);
        let mut s = Solver::new();
        for _ in 0..80 {
            s.new_var();
        }
        for cl in &clauses {
            s.add_clause(cl);
        }
        s.solve();
        let non_glue = s
            .debug_learnts_with_lbd()
            .iter()
            .filter(|(_, lbd)| *lbd > GLUE_LBD)
            .count();
        assert!(non_glue >= 2, "too few learnt clauses to reduce");
        let cap = s.debug_max_learnts();
        s.debug_force_reduce();
        assert_eq!(s.stats().deleted_clauses, 0);
        assert_eq!(
            s.debug_max_learnts(),
            cap,
            "a round that freed nothing grew the cap"
        );
        s.debug_force_reduce();
        assert!(s.stats().deleted_clauses > 0);
        assert_eq!(s.debug_max_learnts(), cap * LEARNT_SIZE_INC);
    }

    #[test]
    fn export_after_reduce_and_compaction_stays_sound() {
        // Learn clauses, let reduction/compaction rewrite the learnt DB,
        // then export: nothing exported may reference a deleted slot, and
        // replaying the export into a twin must not change any verdict.
        let clauses = random_3cnf(80, 340, 0xE1);
        let mut s = Solver::new();
        let vars: Vec<Var> = (0..80).map(|_| s.new_var()).collect();
        for cl in &clauses {
            s.add_clause(cl);
        }
        let expected = s.solve();
        // Learnt clauses are born "used"; the first round clears that
        // protection, the later ones delete and demote.
        for _ in 0..3 {
            s.debug_force_reduce();
        }
        assert!(s.stats().deleted_clauses > 0, "reduction deleted nothing");
        // A reduction that deletes compacts at once: no garbage survives it.
        assert_eq!(s.debug_garbage_frac(), 0.0);
        s.debug_check_watches().unwrap();
        s.debug_force_compact();
        let exported = s.export_learnt(|_| true);
        for cl in &exported {
            assert!(!cl.is_empty(), "deleted slot leaked into export");
        }
        let mut twin = Solver::new();
        for _ in 0..80 {
            twin.new_var();
        }
        for cl in &clauses {
            twin.add_clause(cl);
        }
        twin.import_clauses(&exported);
        assert_eq!(twin.solve(), expected);
        for v in vars.iter().take(8) {
            let a = [v.positive()];
            assert_eq!(
                s.solve_with_assumptions(&a),
                twin.solve_with_assumptions(&a)
            );
        }
    }

    #[test]
    fn flat_and_nested_watches_agree_on_random_3cnf() {
        for seed in [3u64, 17, 99] {
            let clauses = random_3cnf(60, 240, seed);
            let mut flat = Solver::new();
            let mut nested = Solver::with_config(Config {
                flat_watches: false,
                ..Config::default()
            });
            for _ in 0..60 {
                flat.new_var();
                nested.new_var();
            }
            for cl in &clauses {
                flat.add_clause(cl);
                nested.add_clause(cl);
            }
            // The layout is invisible to the search: identical verdicts and
            // identical conflict counts (the propagation order is the same).
            let rf = flat.solve();
            let rn = nested.solve();
            assert_eq!(rf, rn, "seed {seed}");
            assert_eq!(
                flat.stats().conflicts,
                nested.stats().conflicts,
                "seed {seed}"
            );
            flat.debug_check_watches().unwrap();
            nested.debug_check_watches().unwrap();
        }
    }

    #[test]
    #[should_panic(expected = "invalid hh-sat Config")]
    #[cfg(debug_assertions)]
    fn with_config_panics_on_invalid_config_in_debug() {
        let _ = Solver::with_config(Config {
            chrono_threshold: 0,
            ..Config::default()
        });
    }

    /// A fixed random 3-CNF for the chrono/budget tests (same xorshift64*
    /// stream as the bench workloads).
    fn random_3cnf(num_vars: usize, num_clauses: usize, seed: u64) -> Vec<Vec<Lit>> {
        let mut state = seed;
        let mut next = move || {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            state.wrapping_mul(0x2545F4914F6CDD1D)
        };
        let mut clauses = Vec::with_capacity(num_clauses);
        for _ in 0..num_clauses {
            let mut c: Vec<Lit> = Vec::with_capacity(3);
            while c.len() < 3 {
                let v = Var::from_index((next() % num_vars as u64) as usize);
                if c.iter().any(|l| l.var() == v) {
                    continue;
                }
                c.push(v.lit(next() & 1 == 0));
            }
            clauses.push(c);
        }
        clauses
    }

    fn solver_with(config: Config, num_vars: usize, clauses: &[Vec<Lit>]) -> Solver {
        let mut s = Solver::with_config(config);
        for _ in 0..num_vars {
            s.new_var();
        }
        for c in clauses {
            s.add_clause(c);
        }
        s
    }

    #[test]
    fn chrono_agrees_with_backjumping_on_random_formulas() {
        for seed in 1..=20u64 {
            let clauses = random_3cnf(40, 170, seed.wrapping_mul(0x9E3779B97F4A7C15));
            let mut chrono = solver_with(
                Config {
                    chrono: true,
                    chrono_threshold: 1,
                    ..Config::default()
                },
                40,
                &clauses,
            );
            let mut jump = solver_with(
                Config {
                    chrono: false,
                    ..Config::default()
                },
                40,
                &clauses,
            );
            let r1 = chrono.solve();
            let r2 = jump.solve();
            assert_eq!(r1, r2, "seed {seed}: chrono and backjump disagree");
            if r1 == SolveResult::Sat {
                for cl in &clauses {
                    assert!(
                        cl.iter().any(|&l| chrono.model_value(l)),
                        "seed {seed}: chrono model violates {cl:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn chrono_threshold_one_engages_chrono_backtracks() {
        // An aggressive threshold over a hard-enough formula must actually
        // exercise the chronological path, otherwise the agreement test
        // above tests nothing.
        let mut total = 0;
        for seed in 1..=20u64 {
            let clauses = random_3cnf(40, 170, seed.wrapping_mul(0x9E3779B97F4A7C15));
            let mut s = solver_with(
                Config {
                    chrono: true,
                    chrono_threshold: 1,
                    ..Config::default()
                },
                40,
                &clauses,
            );
            s.solve();
            total += s.stats().chrono_backtracks;
        }
        assert!(
            total > 0,
            "chrono threshold 1 never took a chrono backtrack"
        );
    }

    #[test]
    fn solve_limited_suspends_and_resumes_losslessly() {
        // Pigeonhole 5-into-4 needs plenty of conflicts: a tiny budget must
        // suspend, and repeated budget rounds must still conclude UNSAT.
        let mut s = Solver::new();
        let n = 5;
        let m = 4;
        let mut p = vec![vec![Lit(0); m]; n];
        for row in p.iter_mut() {
            for cell in row.iter_mut() {
                *cell = s.new_var().positive();
            }
        }
        for row in &p {
            s.add_clause(row);
        }
        for (i, row_i) in p.iter().enumerate() {
            for row_k in p.iter().skip(i + 1) {
                for (&a, &b) in row_i.iter().zip(row_k.iter()) {
                    s.add_clause(&[!a, !b]);
                }
            }
        }
        assert_eq!(
            s.solve_limited(&[], 1),
            LimitedResult::Unknown,
            "one conflict cannot refute php(5,4)"
        );
        let mut rounds = 0;
        loop {
            rounds += 1;
            assert!(rounds < 10_000, "budgeted rounds failed to converge");
            match s.solve_limited(&[], 50) {
                LimitedResult::Unknown => continue,
                verdict => {
                    assert_eq!(verdict, LimitedResult::Unsat);
                    break;
                }
            }
        }
        assert!(s.stats().budget_rounds >= rounds);
    }

    #[test]
    fn solve_limited_with_unhit_budget_matches_unbudgeted_solve() {
        for seed in 1..=10u64 {
            let clauses = random_3cnf(30, 126, seed.wrapping_mul(0xD1B54A32D192ED03));
            let mut a = solver_with(Config::default(), 30, &clauses);
            let mut b = solver_with(Config::default(), 30, &clauses);
            let ra = a.solve();
            let rb = b.solve_limited(&[], u64::MAX);
            match ra {
                SolveResult::Sat => {
                    assert_eq!(rb, LimitedResult::Sat);
                    for v in 0..30 {
                        let l = Var::from_index(v).positive();
                        assert_eq!(
                            a.model_value(l),
                            b.model_value(l),
                            "seed {seed}: unhit budget changed the trajectory"
                        );
                    }
                }
                SolveResult::Unsat => assert_eq!(rb, LimitedResult::Unsat),
            }
            assert_eq!(a.stats().conflicts, b.stats().conflicts);
            assert_eq!(a.stats().decisions, b.stats().decisions);
        }
    }

    #[test]
    fn solve_limited_respects_assumptions_and_cores() {
        let mut s = Solver::new();
        let a = s.new_var().positive();
        let b = s.new_var().positive();
        s.add_clause(&[!a, !b]);
        assert_eq!(s.solve_limited(&[a, b], 100), LimitedResult::Unsat);
        let core = s.unsat_core().to_vec();
        assert!(core.contains(&a) && core.contains(&b));
        assert_eq!(s.solve_limited(&[a], 100), LimitedResult::Sat);
        assert!(s.model_value(a));
        assert!(!s.model_value(b));
    }

    #[test]
    fn chrono_proof_stream_ends_with_empty_clause() {
        for seed in 1..=20u64 {
            let clauses = random_3cnf(25, 115, seed.wrapping_mul(0xA0761D6478BD642F));
            let mut s = solver_with(
                Config {
                    chrono: true,
                    chrono_threshold: 1,
                    ..Config::default()
                },
                25,
                &clauses,
            );
            let sink = RecordingSink::default();
            let events = sink.events.clone();
            s.set_proof_sink(Box::new(sink));
            if s.solve() == SolveResult::Unsat {
                let ev = events.lock().unwrap();
                let adds: Vec<&Vec<Lit>> = ev.iter().filter(|(d, _)| !d).map(|(_, c)| c).collect();
                assert!(
                    adds.last().is_some_and(|c| c.is_empty()),
                    "seed {seed}: chrono UNSAT proof must end with the empty clause"
                );
            }
        }
    }
}
