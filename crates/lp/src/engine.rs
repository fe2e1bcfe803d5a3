//! The entry point [`solve`], the options every solve shares, and the
//! shims the benchmark builds against.
//!
//! There is one solve path: [`solve`] is [`crate::revised::solve_warm`]
//! from an empty donor, so a cold solve and a warm re-solve run the same
//! code and a cold solve pivots exactly as the warm path does from nothing.
//! The dense tableau ([`crate::dense::solve_dense`]) is not a second path but
//! the differential-testing oracle, and the revised engine's fallback when a
//! solve breaks down numerically. Both share [`SimplexOptions`] and the
//! Dantzig-with-Bland-fallback pivoting discipline.

use crate::model::{Constraint, ConstraintOp, LpProblem};
use crate::revised::{solve_warm, WarmStart};
use crate::solution::{LpError, LpSolution, LpStatus};

/// Standard-form column contribution of one constraint row, as
/// `(slack, artificial)`: every inequality gets a slack/surplus column, and
/// every row that is not an effective `≤` after rhs normalisation (a `≥` row
/// with rhs ≤ 0 negates into one) also gets an artificial — a `≥` row with
/// positive rhs contributes both. Single source of truth shared by both
/// engine builders.
pub(crate) fn row_extra_columns(c: &Constraint) -> (bool, bool) {
    let slack = c.op != ConstraintOp::Eq;
    let effective_le = match c.op {
        ConstraintOp::Le => c.rhs >= 0.0,
        ConstraintOp::Ge => c.rhs <= 0.0,
        ConstraintOp::Eq => false,
    };
    (slack, !effective_le)
}

/// An engine name, kept because the `perfbench` benchmark builds against it
/// (through `LpBudget::engine`). Both variants name the one revised simplex;
/// no solve reads the value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Engine {
    /// The default.
    #[default]
    Auto,
    /// The revised simplex over CSR, the same engine as [`Engine::Auto`].
    Revised,
}

/// The tableau size (see [`tableau_cells`]) up to which a problem would run
/// on the dense engine: zero, since every solve runs the revised simplex.
/// Only the `perfbench` benchmark reads this constant.
pub const DENSE_CELL_THRESHOLD: usize = 0;

/// The exact standard-form tableau size `(rows + 1) × (total columns + 1)`
/// of a problem: structural plus slack/surplus plus artificial columns.
/// Only the `perfbench` benchmark reads it.
#[must_use]
pub fn tableau_cells(problem: &LpProblem) -> usize {
    let rows = problem.num_constraints();
    let extra: usize = problem
        .constraints()
        .iter()
        .map(|c| {
            let (slack, artificial) = row_extra_columns(c);
            usize::from(slack) + usize::from(artificial)
        })
        .sum();
    (rows + 1).saturating_mul(problem.num_variables() + extra + 1)
}

/// Options controlling a solve (the revised simplex and the dense oracle).
#[derive(Debug, Clone)]
pub struct SimplexOptions {
    /// Numerical tolerance for reduced costs, ratio tests and feasibility.
    pub tolerance: f64,
    /// Maximum number of pivots across both phases; `None` derives a generous
    /// limit from the problem size.
    pub max_iterations: Option<usize>,
    /// Number of consecutive degenerate pivots after which the solver switches
    /// from Dantzig's rule to Bland's anti-cycling rule.
    pub stall_threshold: usize,
    /// Revised engine only: number of eta updates accumulated before the
    /// basis is refactorised from scratch (bounds both numerical drift and
    /// the length of the eta file).
    pub refactor_interval: usize,
    /// Caller-supplied pivot budget across both phases. Exceeding it aborts
    /// the solve with [`LpError::BudgetExhausted`] — unlike
    /// [`max_iterations`](Self::max_iterations), which is the internal safety
    /// net and reports [`LpError::IterationLimit`]. A budget never changes a
    /// *successful* solve: the pivot sequence is deterministic, so any solve
    /// that finishes within the budget is bit-identical to an unbudgeted one.
    pub pivot_budget: Option<usize>,
    /// Caller-supplied wall-clock deadline, checked cooperatively every
    /// [`DEADLINE_CHECK_INTERVAL`] pivots (and before the first). Tripping it
    /// aborts with [`LpError::BudgetExhausted`] (`wall_clock: true`).
    pub deadline: Option<std::time::Instant>,
}

impl Default for SimplexOptions {
    fn default() -> Self {
        Self {
            tolerance: 1e-9,
            max_iterations: None,
            stall_threshold: 64,
            refactor_interval: 64,
            pivot_budget: None,
            deadline: None,
        }
    }
}

/// How many pivots pass between cooperative deadline checks: rare enough
/// that the `Instant::now` syscall is noise, frequent enough that a budgeted
/// solve overshoots its deadline by at most a handful of pivots.
pub const DEADLINE_CHECK_INTERVAL: usize = 32;

/// The cooperative budget check both engines run once the pricing step has
/// committed to another pivot (i.e. **after** the optimality check, so a
/// solve that finishes in exactly `pivot_budget` pivots returns Optimal).
/// `iterations` is the cumulative pivot count (phases 1 + 2).
pub(crate) fn budget_check(iterations: usize, options: &SimplexOptions) -> Result<(), LpError> {
    if let Some(budget) = options.pivot_budget {
        if iterations >= budget {
            return Err(LpError::BudgetExhausted {
                pivots: iterations,
                wall_clock: false,
            });
        }
    }
    if let Some(deadline) = options.deadline {
        if iterations.is_multiple_of(DEADLINE_CHECK_INTERVAL)
            && std::time::Instant::now() >= deadline
        {
            return Err(LpError::BudgetExhausted {
                pivots: iterations,
                wall_clock: true,
            });
        }
    }
    Ok(())
}

/// Solves a linear program: [`solve_warm`] from an empty donor, with the
/// final basis dropped.
///
/// # Errors
///
/// Returns [`LpError::IterationLimit`] if the internal pivot limit is
/// reached — in practice a sign of a numerically pathological input — and
/// [`LpError::BudgetExhausted`] when a caller budget runs out.
pub fn solve(problem: &LpProblem, options: &SimplexOptions) -> Result<LpSolution, LpError> {
    solve_warm(problem, WarmStart::default(), options).map(|outcome| outcome.solution)
}

/// Shared handling of the zero-variable corner case: the all-zero point
/// either satisfies every (constant) constraint or the problem is infeasible.
pub(crate) fn solve_empty(problem: &LpProblem, options: &SimplexOptions) -> LpSolution {
    let feasible = problem.constraints().iter().all(|c| match c.op {
        ConstraintOp::Le => 0.0 <= c.rhs + options.tolerance,
        ConstraintOp::Ge => 0.0 >= c.rhs - options.tolerance,
        ConstraintOp::Eq => c.rhs.abs() <= options.tolerance,
    });
    LpSolution {
        status: if feasible {
            LpStatus::Optimal
        } else {
            LpStatus::Infeasible
        },
        objective: 0.0,
        values: Vec::new(),
        iterations: 0,
        phase1_iterations: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::solve_dense;
    use crate::model::Sense;

    type SolveFn = fn(&LpProblem, &SimplexOptions) -> Result<LpSolution, LpError>;

    /// The one solve path and the dense oracle, by name.
    const ENGINES: [(&str, SolveFn); 2] = [("dense", solve_dense), ("revised", solve)];

    fn cover_lp() -> LpProblem {
        let mut lp = LpProblem::new(Sense::Minimize);
        let x = lp.add_variable("x");
        let y = lp.add_variable("y");
        lp.set_objective_coefficient(x, 2.0);
        lp.set_objective_coefficient(y, 3.0);
        lp.add_constraint(vec![(x, 1.0), (y, 1.0)], ConstraintOp::Ge, 10.0, "cover");
        lp.add_constraint(vec![(x, 1.0)], ConstraintOp::Ge, 3.0, "xmin");
        lp
    }

    #[test]
    fn pivot_budget_trips_with_budget_exhausted_on_both_engines() {
        let lp = cover_lp();
        for (engine, solve) in ENGINES {
            let err = solve(
                &lp,
                &SimplexOptions {
                    pivot_budget: Some(1),
                    ..SimplexOptions::default()
                },
            )
            .unwrap_err();
            assert!(
                matches!(
                    err,
                    LpError::BudgetExhausted {
                        pivots: 1,
                        wall_clock: false
                    }
                ),
                "{engine}: {err:?}"
            );
        }
    }

    #[test]
    fn expired_deadline_aborts_before_the_first_pivot() {
        let mut lp = LpProblem::new(Sense::Maximize);
        let x = lp.add_variable("x");
        lp.set_objective_coefficient(x, 1.0);
        lp.add_constraint(vec![(x, 1.0)], ConstraintOp::Le, 3.0, "c");
        let err = solve(
            &lp,
            &SimplexOptions {
                deadline: Some(std::time::Instant::now()),
                ..SimplexOptions::default()
            },
        )
        .unwrap_err();
        assert!(
            matches!(
                err,
                LpError::BudgetExhausted {
                    pivots: 0,
                    wall_clock: true
                }
            ),
            "{err:?}"
        );
    }

    #[test]
    fn exact_budget_solves_succeed() {
        // A solve that needs exactly `pivot_budget` pivots is a success:
        // the check fires only when the pricing step wants one more pivot.
        let lp = cover_lp();
        for (engine, solve) in ENGINES {
            let free = solve(&lp, &SimplexOptions::default()).unwrap();
            assert!(free.iterations > 0);
            let exact = solve(
                &lp,
                &SimplexOptions {
                    pivot_budget: Some(free.iterations),
                    ..SimplexOptions::default()
                },
            )
            .unwrap();
            assert_eq!(free, exact, "{engine}");
            // A zero-pivot problem succeeds even under a zero budget.
            let mut trivial = LpProblem::new(Sense::Minimize);
            let z = trivial.add_variable("z");
            trivial.set_objective_coefficient(z, 1.0);
            trivial.add_constraint(vec![(z, 1.0)], ConstraintOp::Le, 5.0, "c");
            let sol = solve(
                &trivial,
                &SimplexOptions {
                    pivot_budget: Some(0),
                    ..SimplexOptions::default()
                },
            )
            .unwrap();
            assert_eq!(sol.status, LpStatus::Optimal);
        }
    }

    #[test]
    fn sufficient_budget_is_invisible_in_the_result() {
        let lp = cover_lp();
        for (engine, solve) in ENGINES {
            let free = solve(&lp, &SimplexOptions::default()).unwrap();
            let budgeted = solve(
                &lp,
                &SimplexOptions {
                    pivot_budget: Some(10_000),
                    deadline: Some(std::time::Instant::now() + std::time::Duration::from_secs(60)),
                    ..SimplexOptions::default()
                },
            )
            .unwrap();
            assert_eq!(free, budgeted, "{engine}");
        }
    }

    #[test]
    fn phase_attribution_bounds_hold_on_both_engines() {
        // Pure ≤ rows start with an all-slack basis: no artificials, so no
        // phase-1 pivots — every pivot is phase-2 work.
        let mut easy = LpProblem::new(Sense::Maximize);
        let x = easy.add_variable("x");
        easy.set_objective_coefficient(x, 1.0);
        easy.add_constraint(vec![(x, 1.0)], ConstraintOp::Le, 3.0, "c");
        // A ≥ row with positive rhs needs an artificial: phase 1 must pivot.
        let hard = cover_lp();
        for (engine, solve) in ENGINES {
            let opts = SimplexOptions::default();
            let sol = solve(&easy, &opts).unwrap();
            assert_eq!(sol.phase1_iterations, 0, "{engine}");
            assert!(sol.iterations >= 1, "{engine}");
            let sol = solve(&hard, &opts).unwrap();
            assert!(sol.phase1_iterations >= 1, "{engine}");
            assert!(sol.phase1_iterations <= sol.iterations, "{engine}");
        }
    }

    #[test]
    fn auto_runs_the_revised_engine_even_on_tiny_problems() {
        let lp = cover_lp();
        let plain = solve(&lp, &SimplexOptions::default()).unwrap();
        let captured =
            crate::revised::solve_revised_with_basis(&lp, &SimplexOptions::default()).unwrap();
        assert_eq!(plain, captured.solution);
        assert!(
            !captured.basis.is_empty(),
            "the revised engine captures a basis"
        );
    }

    #[test]
    fn forced_engines_agree_on_a_small_problem() {
        let lp = cover_lp();
        let dense = solve_dense(&lp, &SimplexOptions::default()).unwrap();
        let revised = solve(&lp, &SimplexOptions::default()).unwrap();
        assert_eq!(dense.status, revised.status);
        assert!((dense.objective - revised.objective).abs() < 1e-6);
    }
}
