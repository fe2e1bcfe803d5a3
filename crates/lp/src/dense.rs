//! Two-phase primal simplex on a dense tableau.
//!
//! The solver converts the problem to standard equality form with slack,
//! surplus and artificial variables, finds an initial basic feasible solution
//! by minimising the sum of artificials (phase 1), and then optimises the real
//! objective (phase 2). Pivoting uses Dantzig's rule with an automatic switch
//! to Bland's rule after a run of degenerate pivots, which guarantees
//! termination.
//!
//! Per pivot the dense tableau costs O(rows × cols) regardless of sparsity,
//! so no solve path runs it by choice. It is the differential-testing oracle
//! for [`crate::revised`] (the two engines must agree on status and
//! objective on every input) and the revised engine's fallback when a solve
//! breaks down numerically.

use crate::engine::SimplexOptions;
use crate::model::{ConstraintOp, LpProblem, Sense};
use crate::solution::{LpError, LpSolution, LpStatus};

/// Solves a linear program on the dense tableau.
///
/// # Errors
///
/// Returns [`LpError::IterationLimit`] if the pivot budget is exhausted — in
/// practice a sign of a numerically pathological input.
pub fn solve_dense(problem: &LpProblem, options: &SimplexOptions) -> Result<LpSolution, LpError> {
    let n = problem.num_variables();
    if n == 0 {
        // Degenerate but legal; shared with the revised engine.
        return Ok(crate::engine::solve_empty(problem, options));
    }

    let mut tableau = Tableau::build(problem, options);
    let limit = options
        .max_iterations
        .unwrap_or_else(|| 200 * (tableau.rows + tableau.num_total_vars) + 10_000);

    // Phase 1: minimise the sum of artificial variables.
    if tableau.num_artificials > 0 {
        tableau.install_phase1_objective();
        let status = tableau.optimize(options, limit)?;
        debug_assert!(
            status != PhaseStatus::Unbounded,
            "phase-1 objective is bounded below by zero"
        );
        if tableau.objective_value() > 1e-7 {
            return Ok(LpSolution {
                status: LpStatus::Infeasible,
                objective: 0.0,
                values: vec![0.0; n],
                iterations: tableau.iterations,
                phase1_iterations: tableau.iterations,
            });
        }
        tableau.drive_out_artificials(options);
    }
    // Everything so far — including drive-out pivots — is phase-1 work.
    let phase1_iterations = tableau.iterations;

    // Phase 2: optimise the real objective.
    tableau.install_phase2_objective(problem);
    let status = tableau.optimize(options, limit)?;
    if status == PhaseStatus::Unbounded {
        return Ok(LpSolution {
            status: LpStatus::Unbounded,
            objective: match problem.sense() {
                Sense::Minimize => f64::NEG_INFINITY,
                Sense::Maximize => f64::INFINITY,
            },
            values: vec![0.0; n],
            iterations: tableau.iterations,
            phase1_iterations,
        });
    }

    let values = tableau.extract_solution(n);
    let objective = problem.objective_value(&values);
    Ok(LpSolution {
        status: LpStatus::Optimal,
        objective,
        values,
        iterations: tableau.iterations,
        phase1_iterations,
    })
}

#[derive(Debug, PartialEq, Eq, Clone, Copy)]
enum PhaseStatus {
    Optimal,
    Unbounded,
}

/// Dense simplex tableau.
///
/// Layout: `rows` constraint rows followed by one objective row; columns are
/// all variables (structural, then slack/surplus, then artificial) followed by
/// the right-hand side.
struct Tableau {
    rows: usize,
    /// structural + slack/surplus variables (artificials excluded).
    num_real_vars: usize,
    /// total variables including artificials.
    num_total_vars: usize,
    num_artificials: usize,
    /// Row-major matrix of size `(rows + 1) × (num_total_vars + 1)`.
    a: Vec<f64>,
    /// Basic variable of each row.
    basis: Vec<usize>,
    /// Total pivots performed across both phases.
    iterations: usize,
    /// Columns that are artificial (for exclusion after phase 1).
    is_artificial: Vec<bool>,
    /// Set once phase 2 starts: artificial columns may never re-enter.
    exclude_artificials: bool,
}

impl Tableau {
    fn width(&self) -> usize {
        self.num_total_vars + 1
    }

    fn at(&self, r: usize, c: usize) -> f64 {
        self.a[r * self.width() + c]
    }

    fn build(problem: &LpProblem, _options: &SimplexOptions) -> Self {
        let n = problem.num_variables();
        let m = problem.num_constraints();

        // Count extra columns via the shared per-row classification (see
        // `engine::row_extra_columns`): one slack/surplus per inequality, one
        // artificial per row that lacks a natural basic column (a `≤` row
        // with non-negative rhs can use its slack as the initial basic
        // variable).
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

        let num_real_vars = n + num_slack;
        let num_total_vars = num_real_vars + num_artificials;
        let width = num_total_vars + 1;
        let mut a = vec![0.0; (m + 1) * width];
        let mut basis = vec![usize::MAX; m];
        let mut is_artificial = vec![false; num_total_vars];

        let mut slack_cursor = n;
        let mut artificial_cursor = num_real_vars;

        for (i, c) in problem.constraints().iter().enumerate() {
            // Write structural coefficients and rhs; normalise so rhs ≥ 0.
            let mut sign = 1.0;
            let mut rhs = c.rhs;
            // Determine slack sign before normalisation: Le → +1, Ge → −1.
            let slack_sign = match c.op {
                ConstraintOp::Le => 1.0,
                ConstraintOp::Ge => -1.0,
                ConstraintOp::Eq => 0.0,
            };
            if rhs < 0.0 || (rhs == 0.0 && c.op == ConstraintOp::Ge) {
                // Negative rhs rows are negated so rhs ≥ 0. A `≥` row with
                // rhs exactly 0 is negated too: the first pass classified it
                // as an effective `≤` (no artificial), which is only valid
                // once negation turns its surplus column into a +1 slack.
                sign = -1.0;
                rhs = -rhs;
            }
            for &(v, coeff) in &c.terms {
                a[i * width + v.0] = sign * coeff;
            }
            if c.op != ConstraintOp::Eq {
                a[i * width + slack_cursor] = sign * slack_sign;
                // The slack column is a valid initial basic variable iff its
                // coefficient is +1 (i.e. an effective ≤ row).
                if sign * slack_sign > 0.0 {
                    basis[i] = slack_cursor;
                }
                slack_cursor += 1;
            }
            if needs_artificial[i] {
                a[i * width + artificial_cursor] = 1.0;
                is_artificial[artificial_cursor] = true;
                basis[i] = artificial_cursor;
                artificial_cursor += 1;
            }
            a[i * width + num_total_vars] = rhs;
            debug_assert!(basis[i] != usize::MAX, "every row needs a basic column");
        }

        Self {
            rows: m,
            num_real_vars,
            num_total_vars,
            num_artificials,
            a,
            basis,
            iterations: 0,
            is_artificial,
            exclude_artificials: false,
        }
    }

    /// Installs the phase-1 objective (minimise the sum of artificials) as the
    /// reduced-cost row.
    fn install_phase1_objective(&mut self) {
        let w = self.width();
        let obj_row = self.rows;
        for c in 0..w {
            self.a[obj_row * w + c] = 0.0;
        }
        for c in 0..self.num_total_vars {
            if self.is_artificial[c] {
                self.a[obj_row * w + c] = 1.0;
            }
        }
        self.canonicalize_objective();
    }

    /// Installs the phase-2 objective (the problem's own objective converted
    /// to minimisation) as the reduced-cost row, zeroing artificial columns so
    /// they can never re-enter the basis.
    fn install_phase2_objective(&mut self, problem: &LpProblem) {
        let w = self.width();
        let obj_row = self.rows;
        for c in 0..w {
            self.a[obj_row * w + c] = 0.0;
        }
        let flip = match problem.sense() {
            Sense::Minimize => 1.0,
            Sense::Maximize => -1.0,
        };
        for (v, &coeff) in problem.objective().iter().enumerate() {
            self.a[obj_row * w + v] = flip * coeff;
        }
        // Artificial columns are frozen out of the pricing step from now on so
        // that phase 2 can never leave the feasible region of the original LP.
        self.exclude_artificials = true;
        self.canonicalize_objective();
    }

    /// Subtracts multiples of the basic rows from the objective row so that
    /// reduced costs of basic variables are zero.
    fn canonicalize_objective(&mut self) {
        let w = self.width();
        let obj_row = self.rows;
        for r in 0..self.rows {
            let b = self.basis[r];
            let factor = self.a[obj_row * w + b];
            if factor != 0.0 {
                for c in 0..w {
                    let v = self.a[r * w + c];
                    self.a[obj_row * w + c] -= factor * v;
                }
            }
        }
    }

    /// Current objective value of the phase objective (always a minimisation).
    fn objective_value(&self) -> f64 {
        -self.at(self.rows, self.num_total_vars)
    }

    /// Runs simplex pivots until optimality or unboundedness.
    fn optimize(&mut self, options: &SimplexOptions, limit: usize) -> Result<PhaseStatus, LpError> {
        let tol = options.tolerance;
        let mut stall = 0usize;
        loop {
            if self.iterations >= limit {
                return Err(LpError::IterationLimit { limit });
            }
            let use_bland = stall >= options.stall_threshold;
            let Some(entering) = self.choose_entering(tol, use_bland) else {
                return Ok(PhaseStatus::Optimal);
            };
            // Budget check only once another pivot is actually needed: a
            // solve finishing in exactly `pivot_budget` pivots is a success,
            // not an exhaustion.
            crate::engine::budget_check(self.iterations, options)?;
            let Some(leaving_row) = self.choose_leaving(entering, tol, use_bland) else {
                return Ok(PhaseStatus::Unbounded);
            };
            let degenerate = self.at(leaving_row, self.num_total_vars).abs() <= tol;
            if degenerate {
                stall += 1;
            } else {
                stall = 0;
            }
            self.pivot(leaving_row, entering);
            self.iterations += 1;
        }
    }

    /// Chooses the entering column: most negative reduced cost (Dantzig) or
    /// smallest index with negative reduced cost (Bland).
    fn choose_entering(&self, tol: f64, bland: bool) -> Option<usize> {
        let w = self.width();
        let obj = self.rows;
        let mut best: Option<(usize, f64)> = None;
        for c in 0..self.num_total_vars {
            if self.exclude_artificials && self.is_artificial[c] {
                continue;
            }
            let rc = self.a[obj * w + c];
            if rc < -tol {
                if bland {
                    return Some(c);
                }
                match best {
                    Some((_, b)) if rc >= b => {}
                    _ => best = Some((c, rc)),
                }
            }
        }
        best.map(|(c, _)| c)
    }

    /// Ratio test: chooses the leaving row. With Bland's rule ties are broken
    /// by the smallest basic-variable index.
    fn choose_leaving(&self, entering: usize, tol: f64, bland: bool) -> Option<usize> {
        let w = self.width();
        let rhs_col = self.num_total_vars;
        let mut best: Option<(usize, f64)> = None;
        for r in 0..self.rows {
            let coeff = self.a[r * w + entering];
            if coeff > tol {
                let ratio = self.a[r * w + rhs_col] / coeff;
                let better = match best {
                    None => true,
                    Some((br, bratio)) => {
                        if (ratio - bratio).abs() <= tol {
                            if bland {
                                self.basis[r] < self.basis[br]
                            } else {
                                coeff > self.a[br * w + entering]
                            }
                        } else {
                            ratio < bratio
                        }
                    }
                };
                if better {
                    best = Some((r, ratio));
                }
            }
        }
        best.map(|(r, _)| r)
    }

    /// Gauss–Jordan pivot on `(row, col)`.
    fn pivot(&mut self, row: usize, col: usize) {
        let w = self.width();
        let pivot = self.at(row, col);
        debug_assert!(pivot.abs() > 0.0, "pivot element must be non-zero");
        let inv = 1.0 / pivot;
        for c in 0..w {
            self.a[row * w + c] *= inv;
        }
        // Clean the pivot column.
        for r in 0..=self.rows {
            if r == row {
                continue;
            }
            let factor = self.a[r * w + col];
            if factor != 0.0 {
                for c in 0..w {
                    let v = self.a[row * w + c];
                    self.a[r * w + c] -= factor * v;
                }
            }
        }
        self.basis[row] = col;
    }

    /// After phase 1, pivots any artificial variable still in the basis out of
    /// it (possible whenever its row has a non-zero real column); rows that
    /// cannot be cleaned are redundant and are zeroed.
    fn drive_out_artificials(&mut self, options: &SimplexOptions) {
        let w = self.width();
        for r in 0..self.rows {
            if !self.is_artificial[self.basis[r]] {
                continue;
            }
            let replacement =
                (0..self.num_real_vars).find(|&c| self.a[r * w + c].abs() > options.tolerance);
            match replacement {
                Some(c) => {
                    self.pivot(r, c);
                    self.iterations += 1;
                }
                None => {
                    // Redundant row: every real coefficient is (numerically)
                    // zero and so is the rhs (phase-1 optimum was zero). Leave
                    // the artificial basic at value zero; zero the artificial
                    // column cost keeps it from re-entering elsewhere.
                    for c in 0..w {
                        if c != self.basis[r] {
                            self.a[r * w + c] = 0.0;
                        }
                    }
                }
            }
        }
    }

    /// Reads the structural-variable values out of the basis.
    fn extract_solution(&self, num_structural: usize) -> Vec<f64> {
        let w = self.width();
        let rhs_col = self.num_total_vars;
        let mut values = vec![0.0; num_structural];
        for r in 0..self.rows {
            let b = self.basis[r];
            if b < num_structural {
                values[b] = self.a[r * w + rhs_col].max(0.0);
            }
        }
        values
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{ConstraintOp, LpProblem, Sense, VarId};
    use crate::solution::LpStatus;

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-6, "{a} != {b}");
    }

    #[test]
    fn maximization_with_le_constraints() {
        // max 3x + 5y s.t. x ≤ 4, 2y ≤ 12, 3x + 2y ≤ 18 → optimum 36 at (2, 6).
        let mut lp = LpProblem::new(Sense::Maximize);
        let x = lp.add_variable("x");
        let y = lp.add_variable("y");
        lp.set_objective_coefficient(x, 3.0);
        lp.set_objective_coefficient(y, 5.0);
        lp.add_constraint(vec![(x, 1.0)], ConstraintOp::Le, 4.0, "c1");
        lp.add_constraint(vec![(y, 2.0)], ConstraintOp::Le, 12.0, "c2");
        lp.add_constraint(vec![(x, 3.0), (y, 2.0)], ConstraintOp::Le, 18.0, "c3");
        let sol = solve_dense(&lp, &SimplexOptions::default()).unwrap();
        assert_eq!(sol.status, LpStatus::Optimal);
        assert_close(sol.objective, 36.0);
        assert_close(sol.value(x), 2.0);
        assert_close(sol.value(y), 6.0);
        assert!(lp.is_feasible(&sol.values, 1e-7));
    }

    #[test]
    fn minimization_with_ge_constraints_uses_phase_one() {
        // min 2x + 3y s.t. x + y ≥ 10, x ≥ 3 → optimum at (10, 0) = 20.
        let mut lp = LpProblem::new(Sense::Minimize);
        let x = lp.add_variable("x");
        let y = lp.add_variable("y");
        lp.set_objective_coefficient(x, 2.0);
        lp.set_objective_coefficient(y, 3.0);
        lp.add_constraint(vec![(x, 1.0), (y, 1.0)], ConstraintOp::Ge, 10.0, "cover");
        lp.add_constraint(vec![(x, 1.0)], ConstraintOp::Ge, 3.0, "xmin");
        let sol = solve_dense(&lp, &SimplexOptions::default()).unwrap();
        assert_eq!(sol.status, LpStatus::Optimal);
        assert_close(sol.objective, 20.0);
        assert_close(sol.value(x), 10.0);
        assert!(lp.is_feasible(&sol.values, 1e-7));
    }

    #[test]
    fn equality_constraints() {
        // min x + y s.t. x + 2y = 4, x − y = 1 → x = 2, y = 1, obj 3.
        let mut lp = LpProblem::new(Sense::Minimize);
        let x = lp.add_variable("x");
        let y = lp.add_variable("y");
        lp.set_objective_coefficient(x, 1.0);
        lp.set_objective_coefficient(y, 1.0);
        lp.add_constraint(vec![(x, 1.0), (y, 2.0)], ConstraintOp::Eq, 4.0, "e1");
        lp.add_constraint(vec![(x, 1.0), (y, -1.0)], ConstraintOp::Eq, 1.0, "e2");
        let sol = solve_dense(&lp, &SimplexOptions::default()).unwrap();
        assert_eq!(sol.status, LpStatus::Optimal);
        assert_close(sol.value(x), 2.0);
        assert_close(sol.value(y), 1.0);
        assert_close(sol.objective, 3.0);
    }

    #[test]
    fn detects_infeasibility() {
        // x ≤ 1 and x ≥ 3 cannot both hold.
        let mut lp = LpProblem::new(Sense::Minimize);
        let x = lp.add_variable("x");
        lp.set_objective_coefficient(x, 1.0);
        lp.add_constraint(vec![(x, 1.0)], ConstraintOp::Le, 1.0, "le");
        lp.add_constraint(vec![(x, 1.0)], ConstraintOp::Ge, 3.0, "ge");
        let sol = solve_dense(&lp, &SimplexOptions::default()).unwrap();
        assert_eq!(sol.status, LpStatus::Infeasible);
    }

    #[test]
    fn detects_unboundedness() {
        // max x with x ≥ 1 only.
        let mut lp = LpProblem::new(Sense::Maximize);
        let x = lp.add_variable("x");
        lp.set_objective_coefficient(x, 1.0);
        lp.add_constraint(vec![(x, 1.0)], ConstraintOp::Ge, 1.0, "lb");
        let sol = solve_dense(&lp, &SimplexOptions::default()).unwrap();
        assert_eq!(sol.status, LpStatus::Unbounded);
    }

    #[test]
    fn negative_rhs_is_normalised() {
        // x − y ≤ −2 with min x + y: optimum (0, 2).
        let mut lp = LpProblem::new(Sense::Minimize);
        let x = lp.add_variable("x");
        let y = lp.add_variable("y");
        lp.set_objective_coefficient(x, 1.0);
        lp.set_objective_coefficient(y, 1.0);
        lp.add_constraint(vec![(x, 1.0), (y, -1.0)], ConstraintOp::Le, -2.0, "c");
        let sol = solve_dense(&lp, &SimplexOptions::default()).unwrap();
        assert_eq!(sol.status, LpStatus::Optimal);
        assert_close(sol.objective, 2.0);
        assert_close(sol.value(y), 2.0);
    }

    #[test]
    fn degenerate_problem_terminates() {
        // Classic degeneracy: multiple constraints active at the optimum.
        let mut lp = LpProblem::new(Sense::Maximize);
        let x = lp.add_variable("x");
        let y = lp.add_variable("y");
        lp.set_objective_coefficient(x, 1.0);
        lp.set_objective_coefficient(y, 1.0);
        lp.add_constraint(vec![(x, 1.0), (y, 1.0)], ConstraintOp::Le, 1.0, "c1");
        lp.add_constraint(vec![(x, 1.0)], ConstraintOp::Le, 1.0, "c2");
        lp.add_constraint(vec![(y, 1.0)], ConstraintOp::Le, 1.0, "c3");
        lp.add_constraint(vec![(x, 2.0), (y, 1.0)], ConstraintOp::Le, 2.0, "c4");
        let sol = solve_dense(&lp, &SimplexOptions::default()).unwrap();
        assert_eq!(sol.status, LpStatus::Optimal);
        assert_close(sol.objective, 1.0);
    }

    #[test]
    fn zero_variable_problem() {
        let lp = LpProblem::new(Sense::Minimize);
        let sol = solve_dense(&lp, &SimplexOptions::default()).unwrap();
        assert_eq!(sol.status, LpStatus::Optimal);
        assert_close(sol.objective, 0.0);
    }

    #[test]
    fn equality_with_zero_rhs() {
        // min x s.t. x − y = 0, y ≥ 2 → x = 2.
        let mut lp = LpProblem::new(Sense::Minimize);
        let x = lp.add_variable("x");
        let y = lp.add_variable("y");
        lp.set_objective_coefficient(x, 1.0);
        lp.add_constraint(vec![(x, 1.0), (y, -1.0)], ConstraintOp::Eq, 0.0, "tie");
        lp.add_constraint(vec![(y, 1.0)], ConstraintOp::Ge, 2.0, "lb");
        let sol = solve_dense(&lp, &SimplexOptions::default()).unwrap();
        assert_eq!(sol.status, LpStatus::Optimal);
        assert_close(sol.value(x), 2.0);
    }

    #[test]
    fn lp1_shaped_problem_solves() {
        // A miniature of (LP1): 2 jobs, 2 machines, one chain {0, 1}.
        // Variables: x00 x01 x10 x11 d0 d1 t  (x_ij = machine i on job j).
        let p = [[0.9, 0.3], [0.2, 0.8]];
        let mut lp = LpProblem::new(Sense::Minimize);
        let x: Vec<Vec<VarId>> = (0..2)
            .map(|i| {
                (0..2)
                    .map(|j| lp.add_variable(format!("x{i}{j}")))
                    .collect()
            })
            .collect();
        let d: Vec<VarId> = (0..2).map(|j| lp.add_variable(format!("d{j}"))).collect();
        let t = lp.add_variable("t");
        lp.set_objective_coefficient(t, 1.0);
        // Mass constraints: Σ_i p_ij x_ij ≥ 1/2.
        for j in 0..2 {
            lp.add_constraint(
                (0..2).map(|i| (x[i][j], p[i][j])).collect(),
                ConstraintOp::Ge,
                0.5,
                format!("mass{j}"),
            );
        }
        // Machine loads: Σ_j x_ij ≤ t.
        for (i, xi) in x.iter().enumerate() {
            let mut terms: Vec<(VarId, f64)> = xi.iter().map(|&v| (v, 1.0)).collect();
            terms.push((t, -1.0));
            lp.add_constraint(terms, ConstraintOp::Le, 0.0, format!("load{i}"));
        }
        // Chain length: d0 + d1 ≤ t.
        lp.add_constraint(
            vec![(d[0], 1.0), (d[1], 1.0), (t, -1.0)],
            ConstraintOp::Le,
            0.0,
            "chain",
        );
        // x_ij ≤ d_j and d_j ≥ 1.
        for j in 0..2 {
            for xi in &x {
                lp.add_constraint(
                    vec![(xi[j], 1.0), (d[j], -1.0)],
                    ConstraintOp::Le,
                    0.0,
                    "xd",
                );
            }
            lp.add_constraint(vec![(d[j], 1.0)], ConstraintOp::Ge, 1.0, "dmin");
        }
        let sol = solve_dense(&lp, &SimplexOptions::default()).unwrap();
        assert_eq!(sol.status, LpStatus::Optimal);
        assert!(lp.is_feasible(&sol.values, 1e-6));
        // d0 + d1 ≥ 2 forces t ≥ 2; masses are easily reached within that.
        assert_close(sol.objective, 2.0);
    }

    #[test]
    fn reports_iteration_counts() {
        let mut lp = LpProblem::new(Sense::Maximize);
        let x = lp.add_variable("x");
        lp.set_objective_coefficient(x, 1.0);
        lp.add_constraint(vec![(x, 1.0)], ConstraintOp::Le, 5.0, "c");
        let sol = solve_dense(&lp, &SimplexOptions::default()).unwrap();
        assert!(sol.iterations >= 1);
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
        lp.add_constraint(vec![(x, 3.0), (y, 2.0)], ConstraintOp::Le, 18.0, "c3");
        let opts = SimplexOptions {
            max_iterations: Some(1),
            ..SimplexOptions::default()
        };
        let err = solve_dense(&lp, &opts).unwrap_err();
        assert!(matches!(err, LpError::IterationLimit { limit: 1 }));
    }

    #[test]
    fn random_feasible_problems_return_feasible_optima() {
        use rand::prelude::*;
        use rand_chacha::ChaCha8Rng;
        let mut rng = ChaCha8Rng::seed_from_u64(42);
        for _ in 0..30 {
            let nv = rng.gen_range(2..6);
            let nc = rng.gen_range(1..6);
            let mut lp = LpProblem::new(Sense::Maximize);
            let vars: Vec<VarId> = (0..nv).map(|i| lp.add_variable(format!("v{i}"))).collect();
            for &v in &vars {
                lp.set_objective_coefficient(v, rng.gen_range(0.0..3.0));
            }
            for c in 0..nc {
                let terms: Vec<(VarId, f64)> =
                    vars.iter().map(|&v| (v, rng.gen_range(0.1..2.0))).collect();
                lp.add_constraint(
                    terms,
                    ConstraintOp::Le,
                    rng.gen_range(1.0..10.0),
                    format!("c{c}"),
                );
            }
            let sol = solve_dense(&lp, &SimplexOptions::default()).unwrap();
            assert_eq!(sol.status, LpStatus::Optimal);
            assert!(lp.is_feasible(&sol.values, 1e-6));
            // The origin is feasible, so the maximum is ≥ 0.
            assert!(sol.objective >= -1e-9);
        }
    }
}
