//! Two-phase *revised* simplex over CSR/CSC sparse structures.
//!
//! Where the dense tableau ([`crate::dense`]) rewrites the whole
//! `(rows + 1) × (cols + 1)` matrix on every pivot, the revised method keeps
//! the constraint matrix immutable in sparse form and maintains only a
//! factorised representation of the basis:
//!
//! * the constraint matrix `A` (standard equality form, rhs ≥ 0) is stored
//!   once as CSR and once transposed (CSC) for column access;
//! * the basis is held as a sparse LU factorisation ([`crate::lu`]):
//!   Markowitz-ordered elimination with threshold partial pivoting, updated
//!   in place after every pivot by a Forrest–Tomlin row spike so a basis
//!   change costs O(non-zeros touched) instead of a fresh factorisation;
//! * refactorisation happens when [`SimplexOptions::refactor_interval`]
//!   updates have accumulated **or** fill-in outgrows the fresh factors
//!   (see [`LuFactors::needs_refactor`]), whichever comes first — and as a
//!   recovery step whenever an update goes numerically bad.
//!
//! Pricing is phase-split. Phase 1 uses plain Dantzig over a full sweep of
//! the maintained reduced costs (a branchless vectorised min-reduction;
//! artificial columns are dropped from pricing for good once they leave the
//! basis). Phase 2 uses **devex** (Forrest & Goldfarb's reference-framework
//! weights) over a *partial candidate list*: per pivot the solver re-prices
//! only the bounded list of currently attractive columns plus one rotating
//! window of fresh columns, falling back to a full sweep only when both run
//! dry — and a dry full sweep is exactly the optimality proof. After a run
//! of degenerate pivots the solver switches to Bland's anti-cycling rule
//! (full lowest-index scan), exactly like the dense engine, and switches
//! back once progress resumes.
//!
//! Per pivot the solver therefore does one FTRAN (entering direction), one
//! BTRAN (the devex reference row, which doubles as the incremental
//! reduced-cost update row), a bounded re-price and an O(rows)
//! basic-solution update — per-pivot cost tracks the factor non-zeros and
//! the touched columns rather than `rows × cols`, which is the entire point
//! for the (LP1)/(LP2) instances of the paper whose density is
//! O(log m / m).
//!
//! Phase handling mirrors the dense engine: phase 1 minimises the sum of
//! artificial variables; in phase 2 artificials are barred from entering and
//! any still basic (at value zero) are pivoted out lazily by the ratio test
//! the moment an entering column crosses their row. If the factorisation ever
//! turns singular or the solution fails a final feasibility check, the solver
//! hands the problem to the dense tableau ([`crate::dense`]) rather than
//! return a wrong answer: the only way a production solve reaches the dense
//! engine.
//!
//! The pivot loop allocates no per-pivot temporaries: all work vectors
//! (multipliers, direction, devex reference row, candidate list) and the LU
//! scratch live in the solver and are reused across pivots. Its only heap
//! traffic is amortised growth of those long-lived buffers toward their fill
//! high-water marks, which decays as capacities converge — asserted, with a
//! bright line of under one allocation per pivot in steady state, by the
//! `alloc_discipline` integration test.

use crate::engine::SimplexOptions;
use crate::lu::{LuFactors, LuWorkspace};
use crate::model::{ConstraintOp, LpProblem, Sense};
use crate::solution::{LpError, LpSolution, LpStatus};

use crate::sparse::CsrMatrix;

/// Devex weights above this trigger a reference-framework reset (all weights
/// back to 1): past this point the weights are dominated by accumulated
/// round-off rather than useful steepest-edge information.
const DEVEX_RESET: f64 = 1e7;

/// Pivots between devex reference-framework resets. Textbook devex keeps one
/// framework until the weights overflow [`DEVEX_RESET`]; on the paper's
/// (LP1)/(LP2) family the monotone weight growth was measured to *inflate*
/// pivot counts (stale reference information outweighs the steepest-edge
/// signal), while a short-lived framework tracks the active part of the
/// basis. Eight pivots per framework was the empirical sweet spot across the
/// scaling sweep; weight-overflow resets stay in as a safety net.
const DEVEX_FRAME_LIMIT: usize = 8;

/// Entries of `ρ = B⁻ᵀ e_t` at or below this magnitude are skipped by the
/// pivot-row push: their `α` contributions are orders of magnitude below the
/// pricing tolerance, but walking their constraint rows is not free.
const RHO_DROP_TOL: f64 = 1e-12;

/// `α` entries at or below this magnitude skip the devex weight and
/// reduced-cost updates (the full recompute at refactorisation washes out the
/// resulting sub-tolerance drift).
const ALPHA_DROP_TOL: f64 = 1e-12;

/// Capacity of the devex partial-pricing candidate list: small enough that
/// re-pricing the list is cheap against one FTRAN, large enough that the
/// cyclic refill sweep is rare.
fn price_list_cap(ncols: usize) -> usize {
    (ncols / 8).clamp(8, 64)
}

/// Minimum pivot magnitude for a column to seat in the triangular crash
/// basis; positive so the crashed variable's value `rhs / a` stays
/// nonnegative.
const CRASH_PIVOT_TOL: f64 = 1e-7;

/// A crash pivot must be at least this fraction of the largest entry in its
/// column, bounding the multipliers the first factorisation derives from it.
const CRASH_STABILITY_RATIO: f64 = 0.01;

/// Fraction of the columns the rotating phase-2 pricing window covers per
/// pivot (`ncols / 4`): every column is revisited within four pivots. Larger
/// divisors save pricing time but were measured to inflate pivot counts on
/// the scheduling-relaxation family; smaller ones price columns the candidate
/// list already tracks.
const PRICE_WINDOW_DIVISOR: usize = 4;

/// Singular refactorisation or a failed final check: hand the problem to the
/// dense oracle rather than returning a wrong answer. The pivots burnt before
/// the fallback still happened — account for them so `iterations` (surfaced
/// as `lp_pivots` by the service) reports the true work, not just the
/// oracle's share; the same goes for any remaining pivot budget, which the
/// oracle inherits *minus* what the revised attempt already spent. Phase
/// attribution restarts with the oracle: the abandoned pivots count only
/// towards the total.
fn oracle_fallback(
    problem: &LpProblem,
    options: &SimplexOptions,
    spent: usize,
) -> Result<LpSolution, LpError> {
    let mut oracle_options = options.clone();
    if let Some(budget) = oracle_options.pivot_budget {
        oracle_options.pivot_budget = Some(budget.saturating_sub(spent));
    }
    match crate::dense::solve_dense(problem, &oracle_options) {
        Ok(mut solution) => {
            solution.iterations += spent;
            Ok(solution)
        }
        Err(LpError::BudgetExhausted { pivots, wall_clock }) => Err(LpError::BudgetExhausted {
            pivots: pivots + spent,
            wall_clock,
        }),
        Err(err) => Err(err),
    }
}

/// A warm-start hint for [`solve_warm`]: the final basis of a previous solve
/// of a *structurally identical* problem (same variable count and standard-
/// form column layout), optionally with that solve's LU factors.
///
/// A warm start is a **hint, never a contract**: any nonsingular basis of the
/// new problem is a legitimate starting point, so correctness does not depend
/// on the donor problem at all. [`solve_warm`] validates the basis against
/// the *new* problem (length, no artificials, no duplicates, nonsingular) and
/// falls back to a cold two-phase solve when it does not fit.
#[derive(Debug, Clone, Default)]
pub struct WarmStart {
    /// Standard-form basis column indices (structural `0..n`, then slacks),
    /// one per constraint row.
    pub basis: Vec<usize>,
    /// The donor solve's LU factors. Adopted only after a residual check
    /// proves they still invert the new problem's basis matrix (true for
    /// cost- and rhs-only mutations, which leave the matrix untouched);
    /// otherwise the basis is refactorised from scratch.
    pub factors: Option<LuFactors>,
}

/// Result of a solve ([`solve_warm`], and through it [`crate::solve`] and
/// [`solve_revised_with_basis`]).
#[derive(Debug)]
pub struct WarmOutcome {
    /// The solution.
    pub solution: LpSolution,
    /// Final basis snapshot for warm-starting a later solve; empty when the
    /// solve did not end at an optimal artificial-free basis (non-optimal
    /// status, or the dense-oracle fallback ran).
    pub basis: Vec<usize>,
    /// LU factors of that final basis, when available, as the last pivot
    /// left them. A caller that keeps them as a donor compacts them first
    /// ([`LuFactors::compact`]); one that drops them pays nothing for that.
    pub factors: Option<LuFactors>,
    /// `true` when the supplied warm basis was actually used (the warm primal
    /// or dual path produced the solution); `false` on every cold path.
    pub warm: bool,
}

impl WarmOutcome {
    /// Converts this outcome into the warm-start hint for a follow-up solve,
    /// or `None` when no reusable basis was captured.
    #[must_use]
    pub fn into_warm_start(self) -> Option<WarmStart> {
        if self.basis.is_empty() {
            return None;
        }
        Some(WarmStart {
            basis: self.basis,
            factors: self.factors,
        })
    }
}

/// The cold solve with its final basis: [`solve_warm`] from an empty donor.
/// The name is kept for the `perfbench` benchmark.
///
/// # Errors
///
/// Same contract as [`solve_warm`].
pub fn solve_revised_with_basis(
    problem: &LpProblem,
    options: &SimplexOptions,
) -> Result<WarmOutcome, LpError> {
    solve_warm(problem, WarmStart::default(), options)
}

/// Solves a linear program, starting from a warm basis when the donor fits.
/// This is the one solve path: a cold solve is this function from an empty
/// donor ([`WarmStart::default`]).
///
/// A donor whose basis is empty or does not have one entry per constraint
/// row cannot fit, so it goes straight to the cold two-phase solve from the
/// crash basis (reporting `warm: false`). Otherwise the warm basis is
/// validated against the new problem and installed; then:
///
/// * **primal feasible** (`x_B ≥ 0`) — straight to primal phase 2 (the common
///   case after a cost-only change);
/// * **dual feasible** (all reduced costs ≥ 0) — **dual simplex** pivots
///   until primal feasibility, then primal cleanup (the common case after a
///   rhs/bound change: the parent's optimal basis is primal-infeasible but
///   still dual-feasible);
/// * **neither** — the cold two-phase solve from the crash basis.
///
/// Every path runs under the same pivot/deadline budgets and keeps the
/// pivots-as-clock determinism contract: the same problem plus the same warm
/// start replays bit-identically. A numerical breakdown on any path hands
/// the problem to the dense oracle, which yields no basis snapshot.
///
/// # Errors
///
/// Returns [`LpError::IterationLimit`] if the internal pivot limit is
/// reached — in practice a sign of a numerically pathological input — and
/// [`LpError::BudgetExhausted`] when a caller budget runs out.
pub fn solve_warm(
    problem: &LpProblem,
    warm: WarmStart,
    options: &SimplexOptions,
) -> Result<WarmOutcome, LpError> {
    if problem.num_variables() == 0 {
        return Ok(WarmOutcome {
            solution: crate::engine::solve_empty(problem, options),
            basis: Vec::new(),
            factors: None,
            warm: false,
        });
    }
    let result = if warm.basis.is_empty() || warm.basis.len() != problem.num_constraints() {
        try_solve_cold(problem, options)
    } else {
        try_solve_warm(problem, warm, options)
    };
    match result {
        Ok(outcome) => Ok(outcome),
        Err(Trouble::IterationLimit { limit }) => Err(LpError::IterationLimit { limit }),
        // A caller budget running out is a *verdict*, not numerical trouble:
        // falling back to the dense oracle would burn the very work the
        // budget was meant to bound, so it propagates directly.
        Err(Trouble::Budget(err)) => Err(err),
        Err(Trouble::Numerical { spent }) => {
            oracle_fallback(problem, options, spent).map(|solution| WarmOutcome {
                solution,
                basis: Vec::new(),
                factors: None,
                warm: false,
            })
        }
    }
}

/// Internal failure modes of the revised iteration.
enum Trouble {
    IterationLimit {
        limit: usize,
    },
    /// A caller-supplied pivot budget or deadline ran out (see
    /// [`crate::SimplexOptions::pivot_budget`]).
    Budget(LpError),
    /// Numerical breakdown after `spent` pivots (singular refactorisation or
    /// a failed final feasibility check).
    Numerical {
        spent: usize,
    },
}

/// Cold two-phase solve from the crash basis, snapshotting the final basis.
fn try_solve_cold(problem: &LpProblem, options: &SimplexOptions) -> Result<WarmOutcome, Trouble> {
    let mut solver = Revised::build(problem, options);
    solver.refactorize()?;
    let solution = run_two_phase(&mut solver, problem, options)?;
    Ok(capture_outcome(solver, solution, false))
}

/// Packages a finished solve, moving out the basis and the LU factors when
/// — and only when — it ended at an optimal, artificial-free vertex. Any
/// other terminal state has nothing worth inheriting. Moving costs nothing;
/// compacting the factors is left to the caller that keeps them.
fn capture_outcome(solver: Revised, solution: LpSolution, warm: bool) -> WarmOutcome {
    let reusable =
        solution.status == LpStatus::Optimal && solver.basis.iter().all(|&c| c < solver.num_real);
    if !reusable {
        return WarmOutcome {
            solution,
            basis: Vec::new(),
            factors: None,
            warm,
        };
    }
    WarmOutcome {
        solution,
        basis: solver.basis,
        factors: Some(solver.factors),
        warm,
    }
}

/// Warm-started solve: install the donor basis, then dispatch on what it
/// still is for the mutated problem — primal feasible (straight to phase 2),
/// dual feasible (dual simplex, then primal cleanup), or neither (cold
/// two-phase, exactly as [`try_solve_cold`]).
fn try_solve_warm(
    problem: &LpProblem,
    warm: WarmStart,
    options: &SimplexOptions,
) -> Result<WarmOutcome, Trouble> {
    let n = problem.num_variables();
    let mut solver = Revised::build(problem, options);
    if !solver.try_install_warm(warm) {
        return try_solve_cold(problem, options);
    }
    let limit = options
        .max_iterations
        .unwrap_or_else(|| 200 * (solver.nrows + solver.ncols) + 10_000);
    let tol = options.tolerance;

    // The warm basis is artificial-free by construction, so phase 1 never
    // runs on this path: the real objective goes in immediately and the
    // reduced costs decide between the primal and dual loops.
    solver.install_phase2_costs(problem);
    let primal_feasible = solver.xb.iter().all(|&x| x >= -tol);
    if !primal_feasible {
        let dual_feasible =
            (0..solver.num_real).all(|c| !solver.priceable(c) || solver.rc[c] >= -tol);
        if !dual_feasible {
            // The donor vertex is neither primal- nor dual-feasible here:
            // nothing to inherit, run the cold two-phase from the crash basis.
            return try_solve_cold(problem, options);
        }
        match solver.dual_optimize(options, limit)? {
            DualOutcome::PrimalFeasible => {}
            DualOutcome::Infeasible => {
                return Ok(WarmOutcome {
                    solution: LpSolution {
                        status: LpStatus::Infeasible,
                        objective: 0.0,
                        values: vec![0.0; n],
                        iterations: solver.iterations,
                        phase1_iterations: 0,
                    },
                    basis: Vec::new(),
                    factors: None,
                    warm: true,
                });
            }
        }
    }

    let status = solver.optimize(options, limit)?;
    if status == PhaseStatus::Unbounded {
        return Ok(WarmOutcome {
            solution: LpSolution {
                status: LpStatus::Unbounded,
                objective: match problem.sense() {
                    Sense::Minimize => f64::NEG_INFINITY,
                    Sense::Maximize => f64::INFINITY,
                },
                values: vec![0.0; n],
                iterations: solver.iterations,
                phase1_iterations: 0,
            },
            basis: Vec::new(),
            factors: None,
            warm: true,
        });
    }
    let values = solver.extract_solution(n);
    // Same safety net as the cold path: a vertex violating the original
    // constraints means the factorisation drifted; fall back to dense.
    if !problem.is_feasible(&values, 1e-6) {
        return Err(Trouble::Numerical {
            spent: solver.iterations,
        });
    }
    let objective = problem.objective_value(&values);
    let iterations = solver.iterations;
    let solution = LpSolution {
        status: LpStatus::Optimal,
        objective,
        values,
        iterations,
        phase1_iterations: 0,
    };
    Ok(capture_outcome(solver, solution, true))
}

fn run_two_phase(
    solver: &mut Revised,
    problem: &LpProblem,
    options: &SimplexOptions,
) -> Result<LpSolution, Trouble> {
    let n = problem.num_variables();
    let limit = options
        .max_iterations
        .unwrap_or_else(|| 200 * (solver.nrows + solver.ncols) + 10_000);

    // Phase 1: minimise the sum of artificial variables. The triangular
    // crash in `build` replaces artificials with structural columns wherever
    // it can do so feasibly, so phase 1 runs only for the rows it missed —
    // and an entirely crashed basis skips phase 1 outright (the crash basis
    // being feasible *is* the feasibility certificate phase 1 exists to
    // produce).
    if solver.has_basic_artificials() {
        solver.install_phase1_costs();
        let status = solver.optimize(options, limit)?;
        debug_assert!(
            status != PhaseStatus::Unbounded,
            "phase-1 objective is bounded below by zero"
        );
        if solver.objective_value() > 1e-7 {
            return Ok(LpSolution {
                status: LpStatus::Infeasible,
                objective: 0.0,
                values: vec![0.0; n],
                iterations: solver.iterations,
                phase1_iterations: solver.iterations,
            });
        }
    }
    let phase1_iterations = solver.iterations;

    // Phase 2: optimise the real objective; artificials may never re-enter
    // and any still basic are held at zero by the guarded ratio test.
    solver.install_phase2_costs(problem);
    let status = solver.optimize(options, limit)?;
    if status == PhaseStatus::Unbounded {
        return Ok(LpSolution {
            status: LpStatus::Unbounded,
            objective: match problem.sense() {
                Sense::Minimize => f64::NEG_INFINITY,
                Sense::Maximize => f64::INFINITY,
            },
            values: vec![0.0; n],
            iterations: solver.iterations,
            phase1_iterations,
        });
    }

    let values = solver.extract_solution(n);
    // Cheap safety net: a vertex that violates the original constraints means
    // the factorisation drifted; let the caller fall back to dense.
    if !problem.is_feasible(&values, 1e-6) {
        return Err(Trouble::Numerical {
            spent: solver.iterations,
        });
    }
    let objective = problem.objective_value(&values);
    Ok(LpSolution {
        status: LpStatus::Optimal,
        objective,
        values,
        iterations: solver.iterations,
        phase1_iterations,
    })
}

#[derive(Debug, PartialEq, Eq, Clone, Copy)]
enum PhaseStatus {
    Optimal,
    Unbounded,
}

/// Terminal state of the dual-simplex loop.
#[derive(Debug, PartialEq, Eq, Clone, Copy)]
enum DualOutcome {
    /// Every basic value is (tolerance-)nonnegative; primal cleanup may run.
    PrimalFeasible,
    /// Some row has a negative basic value and no negative pivot-row entry:
    /// that row is a primal-infeasibility certificate.
    Infeasible,
}

/// Revised-simplex state over the standard-form problem.
///
/// Vectors over the basis are indexed by *basis position* `t ∈ 0..nrows`:
/// `basis[t]` is the column occupying position `t`, `xb[t]` its value, and
/// [`LuFactors::ftran`] maps original-row space into position space (its
/// BTRAN maps back). A pivot replaces the column at one position; positions
/// never migrate, so the basis books survive refactorisation untouched.
struct Revised {
    nrows: usize,
    /// Total columns including artificials.
    ncols: usize,
    /// Columns below this index are structural or slack; columns at or above
    /// it are artificials. Artificials start basic, so pricing never needs to
    /// look past this bound: a nonbasic artificial has left the basis, and a
    /// departed artificial can be dropped outright (if the phase-1 optimum
    /// over the remaining columns is positive, any feasible point of the
    /// original problem — all artificials zero — would beat it, so none
    /// exists).
    num_real: usize,
    /// Column-access form of `A`: row `c` of this matrix is column `c`.
    cols: CsrMatrix,
    /// Row-access form of `A` (one row per constraint), used to push the
    /// devex reference row through to column space sparsely.
    rows_csr: CsrMatrix,
    /// Normalised right-hand side (entrywise ≥ 0).
    b: Vec<f64>,
    is_artificial: Vec<bool>,
    /// Basic column of each basis position.
    basis: Vec<usize>,
    in_basis: Vec<bool>,
    /// Current phase costs per column.
    cost: Vec<f64>,
    /// Sparse LU factors of the basis, maintained by Forrest–Tomlin updates.
    factors: LuFactors,
    /// Scratch for every factor operation; the factors hold none, so a
    /// captured donor is pure factor data.
    lu_ws: LuWorkspace,
    /// Current basic solution `B⁻¹ b`, indexed by basis position.
    xb: Vec<f64>,
    /// Set once phase 2 starts: artificials are barred from entering and
    /// pivoted out of the basis whenever the ratio test crosses their row.
    guard_artificials: bool,
    iterations: usize,
    // --- reusable pivot-loop scratch (no steady-state allocation) ---
    /// Simplex multipliers `y = B⁻ᵀ c_B`, by original row after BTRAN.
    y: Vec<f64>,
    /// Entering direction `d = B⁻¹ a_q`, by basis position after FTRAN.
    d: Vec<f64>,
    /// Devex reference row `ρ = B⁻ᵀ e_t` for the leaving position `t`.
    rho: Vec<f64>,
    /// Tableau pivot row `α = ρᵀ A` scattered by column, plus its support.
    alpha: Vec<f64>,
    alpha_touched: Vec<usize>,
    /// Reduced costs per column, maintained incrementally from the pivot row
    /// (`rc′ = rc − (rc_q/α_q)·α`) and recomputed from scratch at every phase
    /// start and refactorisation to wash out drift.
    rc: Vec<f64>,
    /// Devex reference-framework weights per column (all ≥ 1).
    weights: Vec<f64>,
    /// Partial-pricing candidate list (bounded by [`price_list_cap`]).
    candidates: Vec<usize>,
    /// Refill-time devex scores, parallel to `candidates` (only meaningful
    /// during a refill sweep; compaction keeps the lengths in sync).
    cand_scores: Vec<f64>,
    /// Membership flags for `candidates`, indexed by column.
    in_list: Vec<bool>,
    /// Index of the worst-scoring slot in `candidates`, cached so window
    /// insertions are O(1) until a replacement actually happens.
    worst_slot: usize,
    /// Pivots since the devex reference framework was last reset.
    frame_age: usize,
    /// Cyclic cursor of the rotating pricing window.
    cursor: usize,
    /// Forrest–Tomlin updates between refactorisations: the caller's
    /// [`SimplexOptions::refactor_interval`] floored at the row count, so
    /// small solves (which often finish in under `m` pivots) never pay a
    /// mid-solve refactorisation while long solves keep the caller's cadence.
    refactor_interval: usize,
    /// Set once a phase's cost vector is installed: the very first
    /// factorisation runs before any costs exist, and recomputing reduced
    /// costs against the all-zero vector would be pure waste.
    costs_installed: bool,
}

impl Revised {
    fn build(problem: &LpProblem, options: &SimplexOptions) -> Self {
        let n = problem.num_variables();
        let m = problem.num_constraints();

        // Shared classification (see `engine::row_extra_columns`): an
        // effective `≤` row (after normalising rhs ≥ 0) starts with its slack
        // basic, everything else gets an artificial.
        let mut num_slack = 0usize;
        let mut needs_artificial = vec![false; m];
        for (i, c) in problem.constraints().iter().enumerate() {
            let (slack, artificial) = crate::engine::row_extra_columns(c);
            if slack {
                num_slack += 1;
            }
            needs_artificial[i] = artificial;
        }
        let num_artificials = needs_artificial.iter().filter(|&&x| x).count();
        let num_real = n + num_slack;
        let ncols = num_real + num_artificials;

        let mut b = Vec::with_capacity(m);
        let mut basis = vec![usize::MAX; m];
        let mut is_artificial = vec![false; ncols];
        let mut slack_cursor = n;
        let mut artificial_cursor = num_real;

        // Rows stream straight into the CSR arrays — no intermediate per-row
        // `Vec`s (their allocations were a measurable share of small-solve
        // setup time).
        let term_nnz: usize = problem.constraints().iter().map(|c| c.terms.len()).sum();
        let mut rows_builder = CsrMatrix::builder(ncols, m, term_nnz + num_slack + num_artificials);
        for (i, c) in problem.constraints().iter().enumerate() {
            let slack_sign = match c.op {
                ConstraintOp::Le => 1.0,
                ConstraintOp::Ge => -1.0,
                ConstraintOp::Eq => 0.0,
            };
            let mut sign = 1.0;
            let mut rhs = c.rhs;
            if rhs < 0.0 || (rhs == 0.0 && c.op == ConstraintOp::Ge) {
                sign = -1.0;
                rhs = -rhs;
            }
            for &(v, a) in &c.terms {
                rows_builder.push(v.0, sign * a);
            }
            if c.op != ConstraintOp::Eq {
                rows_builder.push(slack_cursor, sign * slack_sign);
                if sign * slack_sign > 0.0 {
                    basis[i] = slack_cursor;
                }
                slack_cursor += 1;
            }
            if needs_artificial[i] {
                rows_builder.push(artificial_cursor, 1.0);
                is_artificial[artificial_cursor] = true;
                basis[i] = artificial_cursor;
                artificial_cursor += 1;
            }
            rows_builder.finish_row();
            b.push(rhs);
        }

        let rows_csr = rows_builder.build();
        let cols = rows_csr.transpose();

        // Triangular crash: before settling for an all-artificial phase-1
        // start, try to seat a structural column in each artificial row. A
        // candidate must pivot positively in its row (so its basic value
        // `rhs/a` is nonnegative), be acceptably large against its column
        // (stability), and have every *other* supported row still slack-basic
        // with enough remaining slack to absorb the induced load. Rows are
        // processed in index order and the largest acceptable pivot wins, so
        // the crash is deterministic; the resulting basis is lower triangular
        // (crashed rows first, slack rows after) and feasible by
        // construction — phase 1 then only has to drive out the artificials
        // the greedy could not replace, often none at all.
        let mut remaining = b.clone();
        let mut col_used = vec![false; ncols];
        for i in 0..m {
            if !needs_artificial[i] {
                continue;
            }
            let mut best: Option<(usize, f64)> = None;
            'cand: for (c, a) in rows_csr.row(i) {
                if c >= n || col_used[c] || a <= CRASH_PIVOT_TOL {
                    continue;
                }
                if best.is_some_and(|(_, ba)| a <= ba) {
                    continue;
                }
                let x = b[i] / a;
                let mut col_max = a;
                for (r, ar) in cols.row(c) {
                    col_max = col_max.max(ar.abs());
                    if r == i {
                        continue;
                    }
                    let slack_basic = basis[r] != usize::MAX && basis[r] >= n;
                    if !slack_basic || remaining[r] - ar * x < 0.0 {
                        continue 'cand;
                    }
                }
                if a < CRASH_STABILITY_RATIO * col_max {
                    continue;
                }
                best = Some((c, a));
            }
            if let Some((c, a)) = best {
                let x = b[i] / a;
                for (r, ar) in cols.row(c) {
                    if r != i {
                        remaining[r] -= ar * x;
                    }
                }
                basis[i] = c;
                col_used[c] = true;
            }
        }

        let mut in_basis = vec![false; ncols];
        for &v in &basis {
            in_basis[v] = true;
        }
        // The initial basis is near triangular (crash columns plus unit
        // slack/artificial columns), so the first factorisation is cheap.
        Self {
            nrows: m,
            ncols,
            num_real,
            cols,
            rows_csr,
            xb: b.clone(),
            b,
            is_artificial,
            basis,
            in_basis,
            cost: vec![0.0; ncols],
            factors: LuFactors::new(m),
            lu_ws: LuWorkspace::new(m),
            guard_artificials: false,
            iterations: 0,
            y: vec![0.0; m],
            d: vec![0.0; m],
            rho: vec![0.0; m],
            alpha: vec![0.0; ncols],
            alpha_touched: Vec::with_capacity(ncols),
            rc: vec![0.0; ncols],
            weights: vec![1.0; ncols],
            candidates: Vec::with_capacity(price_list_cap(ncols)),
            cand_scores: Vec::with_capacity(price_list_cap(ncols)),
            in_list: vec![false; ncols],
            worst_slot: 0,
            frame_age: 0,
            cursor: 0,
            refactor_interval: options.refactor_interval.max(m),
            costs_installed: false,
        }
    }

    /// Whether any artificial variable is still basic (phase 1 has work to
    /// do). The triangular crash can seat structural columns in every
    /// artificial row, in which case phase 1 is skipped entirely.
    fn has_basic_artificials(&self) -> bool {
        self.basis.iter().any(|&v| self.is_artificial[v])
    }

    fn install_phase1_costs(&mut self) {
        for c in 0..self.ncols {
            self.cost[c] = if self.is_artificial[c] { 1.0 } else { 0.0 };
        }
        self.costs_installed = true;
        self.reset_devex();
        self.recompute_reduced_costs();
    }

    fn install_phase2_costs(&mut self, problem: &LpProblem) {
        let flip = match problem.sense() {
            Sense::Minimize => 1.0,
            Sense::Maximize => -1.0,
        };
        self.cost.iter_mut().for_each(|c| *c = 0.0);
        for (v, &coeff) in problem.objective().iter().enumerate() {
            self.cost[v] = flip * coeff;
        }
        self.guard_artificials = true;
        self.costs_installed = true;
        self.reset_devex();
        self.recompute_reduced_costs();
    }

    /// Starts a fresh devex reference framework: the current nonbasic set
    /// becomes the reference, all weights return to 1.
    fn reset_devex(&mut self) {
        self.weights.iter_mut().for_each(|w| *w = 1.0);
        self.candidates.clear();
        self.cand_scores.clear();
        self.in_list.iter_mut().for_each(|x| *x = false);
    }

    /// Current phase objective `c_B · x_B` (always a minimisation).
    fn objective_value(&self) -> f64 {
        self.basis
            .iter()
            .zip(self.xb.iter())
            .map(|(&v, &x)| self.cost[v] * x)
            .sum()
    }

    /// Runs simplex pivots until optimality or unboundedness.
    fn optimize(&mut self, options: &SimplexOptions, limit: usize) -> Result<PhaseStatus, Trouble> {
        let tol = options.tolerance;
        let mut stall = 0usize;
        loop {
            if self.iterations >= limit {
                return Err(Trouble::IterationLimit { limit });
            }
            // Phase 1 is done the moment no artificial is basic: the
            // objective (sum of basic artificial values) is exactly zero,
            // which is its lower bound — no need to prove LP optimality with
            // a confirming sweep, and any remaining degenerate pivots are
            // skipped outright.
            if !self.guard_artificials && !self.has_basic_artificials() {
                return Ok(PhaseStatus::Optimal);
            }
            let use_bland = stall >= options.stall_threshold;

            // Price columns off the incrementally maintained reduced costs.
            // An empty pricing result is re-verified against freshly
            // recomputed reduced costs before optimality is declared, so
            // incremental drift can cost extra pivots but never a wrong
            // verdict.
            let mut entering_choice = self.choose_entering(tol, use_bland);
            if entering_choice.is_none() {
                self.recompute_reduced_costs();
                entering_choice = self.choose_entering(tol, use_bland);
            }
            let Some(entering) = entering_choice else {
                return Ok(PhaseStatus::Optimal);
            };
            // Budget check only once another pivot is actually needed: a
            // solve finishing in exactly `pivot_budget` pivots is a success,
            // not an exhaustion.
            crate::engine::budget_check(self.iterations, options).map_err(Trouble::Budget)?;

            // Entering direction d = B⁻¹ a_q (the FTRAN stashes the spike the
            // Forrest–Tomlin update below consumes).
            self.d.iter_mut().for_each(|x| *x = 0.0);
            for (r, v) in self.cols.row(entering) {
                self.d[r] = v;
            }
            self.factors.ftran(&mut self.d, &mut self.lu_ws);
            let Some(leaving) = self.choose_leaving(tol, use_bland) else {
                return Ok(PhaseStatus::Unbounded);
            };
            let pivot_val = self.d[leaving];
            if pivot_val.abs() < 1e-12 || !pivot_val.is_finite() {
                return Err(Trouble::Numerical {
                    spent: self.iterations,
                });
            }

            let degenerate = self.xb[leaving].abs() <= tol;
            if degenerate {
                stall += 1;
            } else {
                stall = 0;
            }

            // Devex weight maintenance needs the *old* basis (one BTRAN of
            // e_leaving), so it runs before the update and the book swap.
            self.devex_update(entering, leaving, pivot_val);

            // Basic-solution update along the entering direction: a
            // branchless streaming pass (zero direction entries are no-ops),
            // with the leaving position overwritten afterwards.
            let theta = self.xb[leaving].max(0.0) / pivot_val;
            for (x, &dt) in self.xb.iter_mut().zip(&self.d) {
                *x -= theta * dt;
            }
            self.xb[leaving] = theta;

            self.in_basis[self.basis[leaving]] = false;
            self.in_basis[entering] = true;
            self.basis[leaving] = entering;
            self.iterations += 1;

            // Keep the factors current: refactorise when the update budget or
            // fill-in says so, otherwise patch with a Forrest–Tomlin update —
            // and refactorise as recovery if the update goes singular (the
            // books already hold the new basis, so a fresh factorisation is
            // always a valid continuation).
            let need = self.factors.needs_refactor(self.refactor_interval)
                || self.factors.ft_update(leaving, &mut self.lu_ws).is_err();
            if need {
                self.refactorize()?;
            }
        }
    }

    /// Whether column `c` may be priced: nonbasic, and not a barred
    /// artificial in phase 2.
    fn priceable(&self, c: usize) -> bool {
        !(self.in_basis[c] || (self.guard_artificials && self.is_artificial[c]))
    }

    /// Recomputes the whole reduced-cost vector from scratch: one BTRAN for
    /// the simplex multipliers `y = B⁻ᵀ c_B`, then one sparse dot per column.
    /// O(nnz) — runs once per phase start and per refactorisation, not per
    /// pivot; between runs `rc` is maintained incrementally by
    /// [`devex_update`](Self::devex_update).
    fn recompute_reduced_costs(&mut self) {
        for t in 0..self.nrows {
            self.y[t] = self.cost[self.basis[t]];
        }
        self.factors.btran(&mut self.y, &mut self.lu_ws);
        for c in 0..self.ncols {
            if self.in_basis[c] {
                self.rc[c] = 0.0;
                continue;
            }
            let mut rc = self.cost[c];
            for (r, a) in self.cols.row(c) {
                rc -= a * self.y[r];
            }
            self.rc[c] = rc;
        }
    }

    /// Entering column.
    ///
    /// Phase 1 prices by plain Dantzig (most negative reduced cost): the
    /// devex framework is re-seeded on the phase-2 objective anyway, and the
    /// unweighted rule makes the sweep a branchless min-reduction the
    /// compiler vectorises. Phase 1 must sweep *every* column per pivot —
    /// its sum-of-artificials objective ties scores across huge column
    /// groups, and any bounded refresh policy turns those ties into
    /// degenerate churn (measured 4-5x pivot inflation on covering LPs).
    ///
    /// Phase 2 — devex with *partial pricing on a rotating window*: per
    /// pivot the solver re-prices (a) the persistent bounded candidate list,
    /// compacting out columns that went basic or unattractive, and (b) one
    /// fresh window of columns at the cyclic cursor, so every column is
    /// revisited every few pivots and the list can never go stale. The best
    /// `rc² / weight` over both wins. Only when both run dry does a full
    /// sweep run — and a full sweep that finds nothing is the optimality
    /// proof.
    ///
    /// Bland path: smallest index with negative reduced cost, full scan
    /// (anti-cycling).
    fn choose_entering(&mut self, tol: f64, bland: bool) -> Option<usize> {
        // Artificial columns (indices ≥ `num_real`) are never priced: they
        // start basic, and once nonbasic they are dropped for good (see the
        // `num_real` field docs for why that preserves the infeasibility
        // verdict).
        if bland {
            return (0..self.num_real).find(|&c| self.priceable(c) && self.rc[c] < -tol);
        }
        if !self.guard_artificials {
            // Phase 1: two-pass argmin over rc. Basic columns are implicitly
            // excluded — their rc is 0 up to sub-tolerance drift, which can
            // never beat a `< -tol` candidate. A bare fold over f64 stays
            // scalar (LLVM may not reassociate float min), so the reduction
            // runs over four independent lanes that the backend vectorises;
            // the argmin is then recovered with one early-exit scan.
            let priced = &self.rc[..self.num_real];
            let mut lanes = [f64::INFINITY; 4];
            let mut chunks = priced.chunks_exact(4);
            for chunk in &mut chunks {
                for (lane, &rc) in lanes.iter_mut().zip(chunk) {
                    *lane = if rc < *lane { rc } else { *lane };
                }
            }
            let mut min_rc = lanes.into_iter().fold(f64::INFINITY, f64::min);
            for &rc in chunks.remainder() {
                min_rc = if rc < min_rc { rc } else { min_rc };
            }
            if min_rc >= -tol {
                return None;
            }
            return priced.iter().position(|&rc| rc == min_rc);
        }
        let cap = price_list_cap(self.ncols);
        let mut best: Option<(usize, f64)> = None;
        // (a) Re-price the persistent list.
        let mut keep = 0usize;
        for i in 0..self.candidates.len() {
            let c = self.candidates[i];
            if !self.priceable(c) {
                self.in_list[c] = false;
                continue;
            }
            let rc = self.rc[c];
            if rc < -tol {
                let score = rc * rc / self.weights[c];
                self.candidates[keep] = c;
                self.cand_scores[keep] = score;
                keep += 1;
                if best.is_none_or(|(_, bs)| score > bs) {
                    best = Some((c, score));
                }
            } else {
                self.in_list[c] = false;
            }
        }
        self.candidates.truncate(keep);
        self.cand_scores.truncate(keep);
        self.refresh_worst_slot();
        // (b) Price one fresh window of columns at the cyclic cursor —
        // phase-2 scores are well-separated, so a bounded window per pivot
        // does not hurt the pivot count.
        let window = (self.ncols / PRICE_WINDOW_DIVISOR).max(cap).min(self.ncols);
        let start = self.cursor;
        let mut c = start;
        for _ in 0..window {
            let col = c;
            c += 1;
            if c == self.ncols {
                c = 0;
            }
            let c = col;
            if self.in_list[c] || !self.priceable(c) {
                continue;
            }
            let rc = self.rc[c];
            if rc < -tol {
                let score = rc * rc / self.weights[c];
                self.insert_candidate(c, score, cap);
                if best.is_none_or(|(_, bs)| score > bs) {
                    best = Some((c, score));
                }
            }
        }
        self.cursor = c;
        if best.is_some() {
            return best.map(|(c, _)| c);
        }
        // (c) Both dry (the list is empty here): full sweep keeping the
        // best-scoring columns. Finding nothing attractive proves optimality.
        let mut c = start;
        for _ in 0..self.ncols {
            let col = c;
            c += 1;
            if c == self.ncols {
                c = 0;
            }
            let c = col;
            if self.in_list[c] || !self.priceable(c) {
                continue;
            }
            let rc = self.rc[c];
            if rc < -tol {
                let score = rc * rc / self.weights[c];
                self.insert_candidate(c, score, cap);
                if best.is_none_or(|(_, bs)| score > bs) {
                    best = Some((c, score));
                }
            }
        }
        best.map(|(c, _)| c)
    }

    /// Inserts column `c` into the bounded candidate list, evicting the
    /// worst-scoring member when full. Maintains the `in_list` flags and the
    /// cached worst slot, so a non-improving insertion is one comparison.
    fn insert_candidate(&mut self, c: usize, score: f64, cap: usize) {
        if self.candidates.len() < cap {
            if score
                < self
                    .cand_scores
                    .get(self.worst_slot)
                    .copied()
                    .unwrap_or(f64::INFINITY)
            {
                self.worst_slot = self.candidates.len();
            }
            self.candidates.push(c);
            self.cand_scores.push(score);
            self.in_list[c] = true;
            return;
        }
        if score > self.cand_scores[self.worst_slot] {
            self.in_list[self.candidates[self.worst_slot]] = false;
            self.candidates[self.worst_slot] = c;
            self.cand_scores[self.worst_slot] = score;
            self.in_list[c] = true;
            self.refresh_worst_slot();
        }
    }

    /// Re-finds the worst-scoring candidate slot (after compaction or an
    /// eviction). O(list length), list length ≤ the small cap.
    fn refresh_worst_slot(&mut self) {
        self.worst_slot = 0;
        for i in 1..self.cand_scores.len() {
            if self.cand_scores[i] < self.cand_scores[self.worst_slot] {
                self.worst_slot = i;
            }
        }
    }

    /// Ratio test on the FTRANed entering column `d`. Positions with
    /// `d_t > tol` block at `x_t / d_t`; in phase 2, positions whose basic
    /// variable is an artificial (held at zero) also block at ratio 0 when
    /// `d_t < −tol`, which pivots the artificial out instead of letting it go
    /// positive. Ties are broken like the dense engine: by larger pivot
    /// magnitude under devex, by smaller basic-variable index under Bland.
    fn choose_leaving(&self, tol: f64, bland: bool) -> Option<usize> {
        // Ratios `xb⁺/|d|` compare cross-multiplied (all denominators are
        // positive), keeping the per-row work free of divisions:
        // `r_t < r_b ⟺ num_t·den_b < num_b·den_t`, with the tie window `tol`
        // scaled by `den_t·den_b` to stay a window on the ratio itself.
        let mut best: Option<(usize, f64, f64)> = None;
        for t in 0..self.nrows {
            let coeff = self.d[t];
            let blocking = coeff > tol
                || (self.guard_artificials && self.is_artificial[self.basis[t]] && coeff < -tol);
            if !blocking {
                continue;
            }
            let num = self.xb[t].max(0.0);
            let den = coeff.abs();
            let better = match best {
                None => true,
                Some((bt, bnum, bden)) => {
                    let lhs = num * bden;
                    let rhs = bnum * den;
                    if (lhs - rhs).abs() <= tol * den * bden {
                        if bland {
                            self.basis[t] < self.basis[bt]
                        } else {
                            den > bden
                        }
                    } else {
                        lhs < rhs
                    }
                }
            };
            if better {
                best = Some((t, num, den));
            }
        }
        best.map(|(t, _, _)| t)
    }

    /// Devex reference-framework update for the pivot (entering `q`, leaving
    /// position `t`, pivot element `α_q = d_t`): with `ρ = B⁻ᵀ e_t`, every
    /// nonbasic column `j` in the pivot row\'s support sees `α_j = ρ · a_j`
    /// and `w_j ← max(w_j, (α_j/α_q)² · w_q)`; the leaving variable re-enters
    /// the nonbasic pool at `max(w_q/α_q², 1)`. The push from row space to
    /// column space walks only the constraint rows where `ρ` is non-zero, so
    /// the update is exact devex at sparse cost. Runaway weights reset the
    /// framework.
    fn devex_update(&mut self, entering: usize, leaving: usize, pivot_val: f64) {
        self.rho.iter_mut().for_each(|x| *x = 0.0);
        self.rho[leaving] = 1.0;
        self.factors.btran(&mut self.rho, &mut self.lu_ws);
        // Push `ρ` through the constraint rows to get the pivot row `α`.
        // When the support is wide (the common late-phase case) the touched
        // set approaches every column, so the scatter skips membership
        // tracking and the consume pass below runs flat over `α` — sequential
        // loads instead of an indirection per column. `ρ` entries at or below
        // `RHO_DROP_TOL` are numerical fuzz seeded by Forrest-Tomlin fill:
        // their `α` contributions sit far below the pricing tolerance, but
        // walking their constraint rows is not free.
        let mut pushed = 0usize;
        for r in 0..self.nrows {
            if self.rho[r].abs() > RHO_DROP_TOL {
                pushed += self.rows_csr.row_nnz(r);
            }
        }
        let flat = pushed * 2 > self.ncols;
        self.alpha_touched.clear();
        for r in 0..self.nrows {
            let rho_r = self.rho[r];
            if rho_r.abs() <= RHO_DROP_TOL {
                continue;
            }
            if flat {
                for (c, a) in self.rows_csr.row(r) {
                    self.alpha[c] += a * rho_r;
                }
            } else {
                for (c, a) in self.rows_csr.row(r) {
                    if self.alpha[c] == 0.0 {
                        self.alpha_touched.push(c);
                    }
                    self.alpha[c] += a * rho_r;
                }
            }
        }
        // Devex weights only matter for phase-2 pricing (phase 1 scores by
        // plain Dantzig and the framework is re-seeded at the phase install),
        // so phase 1 skips weight maintenance entirely.
        let track_weights = self.guard_artificials;
        let w_q = self.weights[entering];
        let aq2 = pivot_val * pivot_val;
        let w_scale = w_q / aq2;
        let drop2 = ALPHA_DROP_TOL * ALPHA_DROP_TOL;
        let ratio = self.rc[entering] / pivot_val;
        // Weights only change when a pivot writes them, so tracking the max
        // over *written* values catches every reset-threshold crossing.
        let mut maxw = 0.0f64;
        // Basic columns keep rc = 0 (their α is exactly 0 aside from the
        // leaving variable, handled below); sub-tolerance α move neither the
        // weights nor the reduced costs measurably, and any accumulated drift
        // is washed out at the next refactorisation's full recompute.
        if flat && !track_weights {
            // Phase 1 maintains only the reduced costs: a pure streaming
            // multiply-subtract the compiler turns into SIMD.
            for c in 0..self.ncols {
                let alpha = self.alpha[c];
                self.alpha[c] = 0.0;
                self.rc[c] -= ratio * alpha;
            }
        } else if flat {
            // Branchless streaming pass, written so LLVM vectorises it: for
            // basic columns `α` is mathematically 0 (fuzz aside), so the
            // basic/nonbasic distinction is dropped — basic reduced costs
            // and weights absorb sub-tolerance noise that nothing reads
            // (both are rewritten when a variable actually leaves the basis,
            // and the refactorisation recompute washes the rest).
            for c in 0..self.ncols {
                let alpha = self.alpha[c];
                self.alpha[c] = 0.0;
                self.rc[c] -= ratio * alpha;
                let candidate_w = (alpha * alpha) * w_scale;
                let w = self.weights[c];
                let w = if candidate_w > w { candidate_w } else { w };
                self.weights[c] = w;
                maxw = if w > maxw { w } else { maxw };
            }
        } else if !track_weights {
            for i in 0..self.alpha_touched.len() {
                let c = self.alpha_touched[i];
                let alpha = self.alpha[c];
                self.alpha[c] = 0.0;
                self.rc[c] -= ratio * alpha;
            }
        } else {
            for i in 0..self.alpha_touched.len() {
                let c = self.alpha_touched[i];
                let alpha = self.alpha[c];
                self.alpha[c] = 0.0;
                let a2 = alpha * alpha;
                if a2 <= drop2 || c == entering || self.in_basis[c] {
                    continue;
                }
                self.rc[c] -= ratio * alpha;
                let candidate_w = a2 * w_scale;
                if candidate_w > self.weights[c] {
                    self.weights[c] = candidate_w;
                    if candidate_w > maxw {
                        maxw = candidate_w;
                    }
                }
            }
        }
        // The entering column goes basic (rc exactly 0); the leaving variable
        // re-enters the nonbasic pool with α = 1 exactly (it *was* the basis
        // column at the pivot position).
        self.rc[entering] = 0.0;
        let leaving_var = self.basis[leaving];
        self.rc[leaving_var] = -ratio;
        if track_weights {
            self.weights[leaving_var] = (w_q / aq2).max(1.0);
            maxw = maxw.max(self.weights[leaving_var]);
            self.frame_age += 1;
            if maxw > DEVEX_RESET || !maxw.is_finite() || self.frame_age >= DEVEX_FRAME_LIMIT {
                self.weights.iter_mut().for_each(|w| *w = 1.0);
                self.frame_age = 0;
            }
        }
    }

    /// Rebuilds the LU factors from scratch for the current basis books and
    /// recomputes `x_B = B⁻¹ b`. Positions keep their variables — only the
    /// internal elimination ordering changes.
    /// Installs a warm basis of one entry per row (checked by
    /// [`solve_warm`]), returning `false` when it cannot seed this problem
    /// (artificial or duplicate columns, or a singular basis matrix).
    ///
    /// Donor LU factors are adopted only when a residual check proves they
    /// still invert *this* problem's basis matrix — exactly the cost/rhs-only
    /// mutation case, where the constraint matrix is unchanged. Any mismatch
    /// (edited matrix, stale dimensions, drifted factors) falls back to a
    /// fresh factorisation of the same basis, so the factors are an
    /// optimisation and never a correctness input.
    fn try_install_warm(&mut self, warm: WarmStart) -> bool {
        debug_assert_eq!(warm.basis.len(), self.nrows, "solve_warm checks the length");
        if warm.basis.iter().any(|&c| c >= self.num_real) {
            return false;
        }
        self.in_basis.iter_mut().for_each(|x| *x = false);
        for (t, &c) in warm.basis.iter().enumerate() {
            if self.in_basis[c] {
                return false;
            }
            self.basis[t] = c;
            self.in_basis[c] = true;
        }
        let mut seeded = false;
        if let Some(factors) = warm.factors {
            if factors.dim() == self.nrows {
                self.xb.copy_from_slice(&self.b);
                factors.ftran(&mut self.xb, &mut self.lu_ws);
                if self.residual_ok() {
                    self.factors = factors;
                    seeded = true;
                }
            }
        }
        if !seeded {
            if self
                .factors
                .factorize(&self.cols, &self.basis, &mut self.lu_ws)
                .is_err()
            {
                return false;
            }
            self.xb.copy_from_slice(&self.b);
            self.factors.ftran(&mut self.xb, &mut self.lu_ws);
        }
        true
    }

    /// Verifies `B·x_B = b` for the freshly installed basis against *this*
    /// problem's columns — the acceptance test for donor LU factors. Uses
    /// the `y` scratch vector and leaves it zeroed.
    fn residual_ok(&mut self) -> bool {
        self.y.iter_mut().for_each(|v| *v = 0.0);
        let mut ok = self.xb.iter().all(|x| x.is_finite());
        if ok {
            for (t, &c) in self.basis.iter().enumerate() {
                let x = self.xb[t];
                for (r, a) in self.cols.row(c) {
                    self.y[r] += a * x;
                }
            }
            let scale = 1.0 + self.b.iter().fold(0.0_f64, |m, &v| m.max(v.abs()));
            ok = self
                .b
                .iter()
                .zip(self.y.iter())
                .all(|(&want, &got)| (want - got).abs() <= 1e-7 * scale);
        }
        self.y.iter_mut().for_each(|v| *v = 0.0);
        ok
    }

    /// Dual simplex: from a dual-feasible basis (all phase-2 reduced costs
    /// ≥ 0) with primal infeasibilities (negative basic values), pivot until
    /// primal feasibility or a primal-infeasibility certificate.
    ///
    /// The leaving row is chosen first (most negative basic value), then the
    /// dual ratio test over the BTRAN'd pivot row picks the entering column
    /// that keeps every reduced cost nonnegative. Pivots share the primal
    /// loop's iteration counter, budgets and Forrest–Tomlin
    /// update/refactorisation cadence, so the pivots-as-clock determinism
    /// contract carries over to the warm path unchanged.
    fn dual_optimize(
        &mut self,
        options: &SimplexOptions,
        limit: usize,
    ) -> Result<DualOutcome, Trouble> {
        let tol = options.tolerance;
        let mut stall = 0usize;
        loop {
            if self.iterations >= limit {
                return Err(Trouble::IterationLimit { limit });
            }
            let use_bland = stall >= options.stall_threshold;

            // Leaving row: most negative basic value (Bland: smallest basic
            // column index among the violated rows, anti-cycling).
            let mut leaving: Option<usize> = None;
            if use_bland {
                for t in 0..self.nrows {
                    if self.xb[t] < -tol
                        && leaving.is_none_or(|best| self.basis[t] < self.basis[best])
                    {
                        leaving = Some(t);
                    }
                }
            } else {
                let mut worst = -tol;
                for (t, &x) in self.xb.iter().enumerate() {
                    if x < worst {
                        worst = x;
                        leaving = Some(t);
                    }
                }
            }
            let Some(t) = leaving else {
                return Ok(DualOutcome::PrimalFeasible);
            };
            // Same contract as the primal loop: a solve finishing in exactly
            // `pivot_budget` pivots is a success, not an exhaustion.
            crate::engine::budget_check(self.iterations, options).map_err(Trouble::Budget)?;

            // Pivot row α = (B⁻ᵀ e_t)ᵀ A, scattered sparsely by column via
            // the row-access form with support tracking.
            self.rho.iter_mut().for_each(|x| *x = 0.0);
            self.rho[t] = 1.0;
            self.factors.btran(&mut self.rho, &mut self.lu_ws);
            for &c in &self.alpha_touched {
                self.alpha[c] = 0.0;
            }
            self.alpha_touched.clear();
            for (r, &rho_r) in self.rho.iter().enumerate() {
                if rho_r.abs() <= RHO_DROP_TOL {
                    continue;
                }
                for (c, a) in self.rows_csr.row(r) {
                    if self.alpha[c] == 0.0 {
                        self.alpha_touched.push(c);
                    }
                    self.alpha[c] += a * rho_r;
                }
            }

            // Dual ratio test: among priceable columns with α < 0, minimise
            // rc/(−α) (cross-multiplied to avoid per-candidate divisions), so
            // the pivot keeps all reduced costs ≥ 0. Ties keep the larger
            // |α| for stability (Bland: the smaller column index).
            let mut entering: Option<usize> = None;
            let mut best_rc = 0.0_f64;
            let mut best_alpha = 0.0_f64;
            for &c in &self.alpha_touched {
                let a = self.alpha[c];
                if a >= -tol || !self.priceable(c) {
                    continue;
                }
                let rc = self.rc[c].max(0.0);
                let Some(q) = entering else {
                    entering = Some(c);
                    best_rc = rc;
                    best_alpha = a;
                    continue;
                };
                let lhs = rc * (-best_alpha);
                let rhs = best_rc * (-a);
                let tie = (lhs - rhs).abs() <= tol * (-a) * (-best_alpha);
                let better = if tie {
                    if use_bland {
                        c < q
                    } else {
                        a.abs() > best_alpha.abs()
                    }
                } else {
                    lhs < rhs
                };
                if better {
                    entering = Some(c);
                    best_rc = rc;
                    best_alpha = a;
                }
            }
            let Some(q) = entering else {
                // Row t reads Σ_j α_j·x_j = x_B[t] < 0 with every priceable
                // α_j ≥ 0 and x ≥ 0: no nonnegative point satisfies it.
                return Ok(DualOutcome::Infeasible);
            };

            // Reduced-cost update from the pivot row (rc′ = rc − (rc_q/α_q)·α),
            // consuming the scatter as it goes. The entering column's rc
            // becomes 0 and the leaving variable picks up −rc_q/α_q ≥ 0, so
            // dual feasibility is preserved by construction; refactorisations
            // below recompute rc from scratch and wash out incremental drift.
            let alpha_q = self.alpha[q];
            let ratio = self.rc[q] / alpha_q;
            if ratio.abs() <= tol {
                stall += 1; // dual-degenerate pivot: objective did not move
            } else {
                stall = 0;
            }
            for &c in &self.alpha_touched {
                let a = self.alpha[c];
                self.alpha[c] = 0.0;
                if c == q || self.in_basis[c] {
                    continue;
                }
                self.rc[c] -= ratio * a;
            }
            self.alpha_touched.clear();
            self.rc[q] = 0.0;
            let leaving_var = self.basis[t];
            self.rc[leaving_var] = -ratio;

            // Entering direction d = B⁻¹ a_q (the FTRAN stashes the spike the
            // Forrest–Tomlin update below consumes). Its row-t entry is the
            // pivot element — the FTRAN-side twin of α_q.
            self.d.iter_mut().for_each(|x| *x = 0.0);
            for (r, v) in self.cols.row(q) {
                self.d[r] = v;
            }
            self.factors.ftran(&mut self.d, &mut self.lu_ws);
            let pivot_val = self.d[t];
            if pivot_val.abs() < 1e-12 || !pivot_val.is_finite() {
                return Err(Trouble::Numerical {
                    spent: self.iterations,
                });
            }

            // Basic-solution update: θ = x_B[t]/pivot is ≥ 0 (negative basic
            // value over a negative pivot), becoming the entering variable's
            // value — no clamp, unlike the primal loop, because here the
            // leaving value is *meant* to be negative.
            let theta = self.xb[t] / pivot_val;
            for (x, &dt) in self.xb.iter_mut().zip(&self.d) {
                *x -= theta * dt;
            }
            self.xb[t] = theta;

            self.in_basis[leaving_var] = false;
            self.in_basis[q] = true;
            self.basis[t] = q;
            self.iterations += 1;

            let need = self.factors.needs_refactor(self.refactor_interval)
                || self.factors.ft_update(t, &mut self.lu_ws).is_err();
            if need {
                self.refactorize()?;
            }
        }
    }

    fn refactorize(&mut self) -> Result<(), Trouble> {
        if self
            .factors
            .factorize(&self.cols, &self.basis, &mut self.lu_ws)
            .is_err()
        {
            return Err(Trouble::Numerical {
                spent: self.iterations,
            });
        }
        self.xb.copy_from_slice(&self.b);
        self.factors.ftran(&mut self.xb, &mut self.lu_ws);
        if self.costs_installed {
            self.recompute_reduced_costs();
        }
        Ok(())
    }

    /// Reads the structural-variable values out of the basis.
    fn extract_solution(&self, num_structural: usize) -> Vec<f64> {
        let mut values = vec![0.0; num_structural];
        for (t, &v) in self.basis.iter().enumerate() {
            if v < num_structural {
                values[v] = self.xb[t].max(0.0);
            }
        }
        values
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::solve;
    use crate::model::{ConstraintOp, LpProblem, Sense, VarId};
    use crate::solution::LpStatus;

    fn opts() -> SimplexOptions {
        SimplexOptions::default()
    }

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-6, "{a} != {b}");
    }

    #[test]
    fn maximization_with_le_constraints() {
        let mut lp = LpProblem::new(Sense::Maximize);
        let x = lp.add_variable("x");
        let y = lp.add_variable("y");
        lp.set_objective_coefficient(x, 3.0);
        lp.set_objective_coefficient(y, 5.0);
        lp.add_constraint(vec![(x, 1.0)], ConstraintOp::Le, 4.0, "c1");
        lp.add_constraint(vec![(y, 2.0)], ConstraintOp::Le, 12.0, "c2");
        lp.add_constraint(vec![(x, 3.0), (y, 2.0)], ConstraintOp::Le, 18.0, "c3");
        let sol = solve(&lp, &opts()).unwrap();
        assert_eq!(sol.status, LpStatus::Optimal);
        assert_close(sol.objective, 36.0);
        assert_close(sol.value(x), 2.0);
        assert_close(sol.value(y), 6.0);
    }

    #[test]
    fn minimization_with_ge_constraints_uses_phase_one() {
        let mut lp = LpProblem::new(Sense::Minimize);
        let x = lp.add_variable("x");
        let y = lp.add_variable("y");
        lp.set_objective_coefficient(x, 2.0);
        lp.set_objective_coefficient(y, 3.0);
        lp.add_constraint(vec![(x, 1.0), (y, 1.0)], ConstraintOp::Ge, 10.0, "cover");
        lp.add_constraint(vec![(x, 1.0)], ConstraintOp::Ge, 3.0, "xmin");
        let sol = solve(&lp, &opts()).unwrap();
        assert_eq!(sol.status, LpStatus::Optimal);
        assert_close(sol.objective, 20.0);
        assert!(lp.is_feasible(&sol.values, 1e-7));
    }

    #[test]
    fn equality_constraints() {
        let mut lp = LpProblem::new(Sense::Minimize);
        let x = lp.add_variable("x");
        let y = lp.add_variable("y");
        lp.set_objective_coefficient(x, 1.0);
        lp.set_objective_coefficient(y, 1.0);
        lp.add_constraint(vec![(x, 1.0), (y, 2.0)], ConstraintOp::Eq, 4.0, "e1");
        lp.add_constraint(vec![(x, 1.0), (y, -1.0)], ConstraintOp::Eq, 1.0, "e2");
        let sol = solve(&lp, &opts()).unwrap();
        assert_eq!(sol.status, LpStatus::Optimal);
        assert_close(sol.value(x), 2.0);
        assert_close(sol.value(y), 1.0);
    }

    #[test]
    fn detects_infeasibility() {
        let mut lp = LpProblem::new(Sense::Minimize);
        let x = lp.add_variable("x");
        lp.set_objective_coefficient(x, 1.0);
        lp.add_constraint(vec![(x, 1.0)], ConstraintOp::Le, 1.0, "le");
        lp.add_constraint(vec![(x, 1.0)], ConstraintOp::Ge, 3.0, "ge");
        let sol = solve(&lp, &opts()).unwrap();
        assert_eq!(sol.status, LpStatus::Infeasible);
    }

    #[test]
    fn detects_unboundedness() {
        let mut lp = LpProblem::new(Sense::Maximize);
        let x = lp.add_variable("x");
        lp.set_objective_coefficient(x, 1.0);
        lp.add_constraint(vec![(x, 1.0)], ConstraintOp::Ge, 1.0, "lb");
        let sol = solve(&lp, &opts()).unwrap();
        assert_eq!(sol.status, LpStatus::Unbounded);
    }

    #[test]
    fn negative_rhs_is_normalised() {
        let mut lp = LpProblem::new(Sense::Minimize);
        let x = lp.add_variable("x");
        let y = lp.add_variable("y");
        lp.set_objective_coefficient(x, 1.0);
        lp.set_objective_coefficient(y, 1.0);
        lp.add_constraint(vec![(x, 1.0), (y, -1.0)], ConstraintOp::Le, -2.0, "c");
        let sol = solve(&lp, &opts()).unwrap();
        assert_eq!(sol.status, LpStatus::Optimal);
        assert_close(sol.objective, 2.0);
    }

    #[test]
    fn degenerate_problem_terminates() {
        let mut lp = LpProblem::new(Sense::Maximize);
        let x = lp.add_variable("x");
        let y = lp.add_variable("y");
        lp.set_objective_coefficient(x, 1.0);
        lp.set_objective_coefficient(y, 1.0);
        lp.add_constraint(vec![(x, 1.0), (y, 1.0)], ConstraintOp::Le, 1.0, "c1");
        lp.add_constraint(vec![(x, 1.0)], ConstraintOp::Le, 1.0, "c2");
        lp.add_constraint(vec![(y, 1.0)], ConstraintOp::Le, 1.0, "c3");
        lp.add_constraint(vec![(x, 2.0), (y, 1.0)], ConstraintOp::Le, 2.0, "c4");
        let sol = solve(&lp, &opts()).unwrap();
        assert_eq!(sol.status, LpStatus::Optimal);
        assert_close(sol.objective, 1.0);
    }

    #[test]
    fn frequent_refactorization_preserves_the_answer() {
        // Force a refactorisation every other pivot; the optimum must not
        // move.
        let mut lp = LpProblem::new(Sense::Maximize);
        let vars: Vec<VarId> = (0..12).map(|i| lp.add_variable(format!("v{i}"))).collect();
        for (i, &v) in vars.iter().enumerate() {
            lp.set_objective_coefficient(v, 1.0 + i as f64 / 3.0);
        }
        for (i, &v) in vars.iter().enumerate() {
            lp.add_constraint(
                vec![(v, 1.0)],
                ConstraintOp::Le,
                1.0 + i as f64,
                format!("c{i}"),
            );
        }
        lp.add_constraint(
            vars.iter().map(|&v| (v, 1.0)).collect(),
            ConstraintOp::Le,
            30.0,
            "budget",
        );
        let baseline = solve(&lp, &opts()).unwrap();
        let churned = solve(
            &lp,
            &SimplexOptions {
                refactor_interval: 2,
                ..opts()
            },
        )
        .unwrap();
        assert_eq!(baseline.status, LpStatus::Optimal);
        assert_close(baseline.objective, churned.objective);
    }

    #[test]
    fn artificials_locked_in_the_basis_stay_at_zero() {
        // The equality row is redundant with the ≥ row at the optimum; an
        // artificial can linger in the basis at value 0 and must not distort
        // the solution.
        let mut lp = LpProblem::new(Sense::Minimize);
        let x = lp.add_variable("x");
        let y = lp.add_variable("y");
        lp.set_objective_coefficient(x, 1.0);
        lp.add_constraint(vec![(x, 1.0), (y, -1.0)], ConstraintOp::Eq, 0.0, "tie");
        lp.add_constraint(vec![(y, 1.0)], ConstraintOp::Ge, 2.0, "lb");
        let sol = solve(&lp, &opts()).unwrap();
        assert_eq!(sol.status, LpStatus::Optimal);
        assert_close(sol.value(x), 2.0);
    }

    #[test]
    fn iteration_limit_is_enforced() {
        let mut lp = LpProblem::new(Sense::Maximize);
        let x = lp.add_variable("x");
        let y = lp.add_variable("y");
        lp.set_objective_coefficient(x, 3.0);
        lp.set_objective_coefficient(y, 5.0);
        lp.add_constraint(vec![(x, 1.0)], ConstraintOp::Le, 4.0, "c1");
        lp.add_constraint(vec![(y, 2.0)], ConstraintOp::Le, 12.0, "c2");
        let err = solve(
            &lp,
            &SimplexOptions {
                max_iterations: Some(1),
                ..opts()
            },
        )
        .unwrap_err();
        assert!(matches!(err, LpError::IterationLimit { limit: 1 }));
    }

    #[test]
    fn zero_variable_problem() {
        let lp = LpProblem::new(Sense::Minimize);
        let sol = solve(&lp, &opts()).unwrap();
        assert_eq!(sol.status, LpStatus::Optimal);
    }

    #[test]
    fn solved_twice_is_bit_identical() {
        // Devex with a partial candidate list is still fully deterministic:
        // the same problem must replay to the same vertex, objective and
        // pivot count.
        let mut lp = LpProblem::new(Sense::Minimize);
        let vars: Vec<VarId> = (0..20).map(|i| lp.add_variable(format!("v{i}"))).collect();
        for (i, &v) in vars.iter().enumerate() {
            lp.set_objective_coefficient(v, 1.0 + (i % 7) as f64 * 0.25);
        }
        for i in 0..15 {
            let terms: Vec<(VarId, f64)> = (0..4)
                .map(|j| (vars[(i * 3 + j * 5) % 20], 1.0 + (j as f64) * 0.5))
                .collect();
            lp.add_constraint(
                terms,
                ConstraintOp::Ge,
                2.0 + i as f64 * 0.1,
                format!("c{i}"),
            );
        }
        let a = solve(&lp, &opts()).unwrap();
        let b = solve(&lp, &opts()).unwrap();
        assert_eq!(a.status, b.status);
        assert_eq!(a.iterations, b.iterations);
        assert_eq!(a.phase1_iterations, b.phase1_iterations);
        assert!(a.objective.to_bits() == b.objective.to_bits());
        for (x, y) in a.values.iter().zip(b.values.iter()) {
            assert!(x.to_bits() == y.to_bits());
        }
    }

    /// A covering LP whose optimal basis survives small rhs edits: the
    /// canonical warm-start shape.
    fn covering_lp(rhs_bump: f64) -> LpProblem {
        let mut lp = LpProblem::new(Sense::Minimize);
        let vars: Vec<VarId> = (0..12).map(|i| lp.add_variable(format!("v{i}"))).collect();
        for (i, &v) in vars.iter().enumerate() {
            lp.set_objective_coefficient(v, 1.0 + (i % 5) as f64 * 0.3);
        }
        for i in 0..9 {
            let terms: Vec<(VarId, f64)> = (0..3)
                .map(|j| (vars[(i * 4 + j * 7) % 12], 1.0 + (j as f64) * 0.25))
                .collect();
            lp.add_constraint(
                terms,
                ConstraintOp::Ge,
                2.0 + i as f64 * 0.2 + if i == 4 { rhs_bump } else { 0.0 },
                format!("c{i}"),
            );
        }
        lp
    }

    #[test]
    fn warm_resolve_of_same_problem_takes_no_pivots() {
        let lp = covering_lp(0.0);
        let cold = solve_revised_with_basis(&lp, &opts()).unwrap();
        assert_eq!(cold.solution.status, LpStatus::Optimal);
        assert!(!cold.warm);
        assert!(!cold.basis.is_empty());
        let start = cold.into_warm_start().unwrap();
        let warm = solve_warm(&lp, start, &opts()).unwrap();
        assert!(warm.warm);
        assert_eq!(warm.solution.status, LpStatus::Optimal);
        // The donor basis is already optimal: zero pivots, no phase 1.
        assert_eq!(warm.solution.iterations, 0);
        assert_eq!(warm.solution.phase1_iterations, 0);
        let cold_again = solve(&lp, &opts()).unwrap();
        assert!(warm.solution.objective.to_bits() == cold_again.objective.to_bits());
    }

    #[test]
    fn warm_after_rhs_change_matches_cold() {
        let parent = covering_lp(0.0);
        let donor = solve_revised_with_basis(&parent, &opts()).unwrap();
        let start = donor.into_warm_start().unwrap();
        // Tightening a covering row leaves the donor vertex short on that row
        // (primal infeasible) while the reduced costs are untouched — the
        // dual-simplex case.
        let child = covering_lp(1.5);
        let warm = solve_warm(&child, start, &opts()).unwrap();
        let cold = solve(&child, &opts()).unwrap();
        assert!(warm.warm);
        assert_eq!(warm.solution.status, cold.status);
        assert!(
            (warm.solution.objective - cold.objective).abs() <= 1e-9,
            "warm {} vs cold {}",
            warm.solution.objective,
            cold.objective
        );
        assert!(child.is_feasible(&warm.solution.values, 1e-7));
    }

    #[test]
    fn warm_solve_replays_bit_identical() {
        let parent = covering_lp(0.0);
        let child = covering_lp(1.5);
        let run = |factors: bool| {
            let donor = solve_revised_with_basis(&parent, &opts()).unwrap();
            let mut start = donor.into_warm_start().unwrap();
            if !factors {
                start.factors = None;
            }
            solve_warm(&child, start, &opts()).unwrap()
        };
        let a = run(true);
        let b = run(true);
        let c = run(false); // basis-only warm start must replay identically too
        for other in [&b, &c] {
            assert_eq!(a.solution.iterations, other.solution.iterations);
            assert!(a.solution.objective.to_bits() == other.solution.objective.to_bits());
            for (x, y) in a.solution.values.iter().zip(other.solution.values.iter()) {
                assert!(x.to_bits() == y.to_bits());
            }
        }
    }

    #[test]
    fn invalid_warm_basis_falls_back_to_cold() {
        let lp = covering_lp(0.0);
        let cold = solve(&lp, &opts()).unwrap();
        for basis in [
            Vec::new(),                      // wrong length
            vec![0usize; 9],                 // duplicates
            vec![usize::MAX - 1; 9],         // out of range
            vec![0, 1, 2, 3, 4, 5, 6, 7, 8], // likely singular / arbitrary
        ] {
            let warm = solve_warm(
                &lp,
                WarmStart {
                    basis,
                    factors: None,
                },
                &opts(),
            )
            .unwrap();
            assert_eq!(warm.solution.status, LpStatus::Optimal);
            assert!(
                (warm.solution.objective - cold.objective).abs() <= 1e-9,
                "fallback objective diverged"
            );
        }
    }

    #[test]
    fn empty_donor_solves_cold_even_without_rows() {
        // A row-less LP has an empty basis, so an empty donor has the right
        // length; it still installs nothing and must not report `warm`.
        let mut lp = LpProblem::new(Sense::Minimize);
        let x = lp.add_variable("x");
        lp.set_objective_coefficient(x, 1.0);
        let outcome = solve_warm(&lp, WarmStart::default(), &opts()).unwrap();
        assert!(!outcome.warm);
        assert_eq!(outcome.solution, solve(&lp, &opts()).unwrap());
    }

    #[test]
    fn warm_start_detects_infeasibility_via_dual() {
        let mut parent = LpProblem::new(Sense::Minimize);
        let x = parent.add_variable("x");
        parent.set_objective_coefficient(x, 1.0);
        parent.add_constraint(vec![(x, 1.0)], ConstraintOp::Le, 5.0, "cap");
        parent.add_constraint(vec![(x, 1.0)], ConstraintOp::Ge, 1.0, "floor");
        let donor = solve_revised_with_basis(&parent, &opts()).unwrap();
        assert_eq!(donor.solution.status, LpStatus::Optimal);
        let start = donor.into_warm_start().unwrap();

        let mut child = LpProblem::new(Sense::Minimize);
        let x = child.add_variable("x");
        child.set_objective_coefficient(x, 1.0);
        child.add_constraint(vec![(x, 1.0)], ConstraintOp::Le, 5.0, "cap");
        child.add_constraint(vec![(x, 1.0)], ConstraintOp::Ge, 9.0, "floor");
        let warm = solve_warm(&child, start, &opts()).unwrap();
        assert_eq!(warm.solution.status, LpStatus::Infeasible);
        let cold = solve(&child, &opts()).unwrap();
        assert_eq!(cold.status, LpStatus::Infeasible);
    }
}
