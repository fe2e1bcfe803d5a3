//! The LP relaxations (LP1) and (LP2) of the AccuMass-C sub-problem (§4.1).
//!
//! AccuMass-C asks for a shortest oblivious schedule in which every job
//! accumulates mass ≥ 1/2, with machines assigned to a job only after its
//! chain predecessor has accumulated its mass. Writing `x_ij` for the number
//! of steps machine `i` spends on job `j` and `d_j` for the number of steps in
//! which *some* machine works on `j`, the relaxation (LP1) is
//!
//! ```text
//!   minimise t
//!   s.t.  Σ_i p_ij · x_ij ≥ 1/2          for every job j          (mass)
//!         Σ_j x_ij        ≤ t            for every machine i      (load)
//!         Σ_{j ∈ C_k} d_j ≤ t            for every chain C_k      (chain)
//!         0 ≤ x_ij ≤ d_j                 for every i, j
//!         d_j ≥ 1                        for every job j
//! ```
//!
//! Lemma 4.2 shows the optimum `T*` of (LP1) is at most `16 · T^OPT`, so a
//! schedule built from a rounded (LP1) solution can be charged against the
//! optimal expected makespan. For independent jobs the chain and `d`
//! constraints disappear, giving (LP2), used by Theorem 4.5.

use std::time::Instant;

use suu_core::{JobId, MachineId, SuuInstance};
use suu_graph::ChainSet;
pub use suu_lp::WarmStart;
use suu_lp::{
    solve_warm, ConstraintOp, Engine, LpProblem, LpStatus, Sense, SimplexOptions, VarId,
    WarmOutcome,
};

use crate::error::AlgorithmError;

/// Target mass per job in the relaxation (the paper uses 1/2).
pub const LP_MASS_TARGET: f64 = 0.5;

/// Caller-supplied resource bounds on the LP stage of a pipeline: how many
/// pivots it may spend and an absolute wall-clock deadline. The default
/// (unbounded, no deadline) is the production configuration; a budget that
/// is not exhausted never changes the result (the pivot sequence is
/// deterministic).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LpBudget {
    /// Inert: every solve runs the one revised simplex whatever this says.
    /// The field stays because the `perfbench` benchmark builds against it.
    pub engine: Engine,
    /// Pivot budget across both simplex phases; exhausting it aborts the
    /// pipeline with [`AlgorithmError::BudgetExhausted`].
    pub max_pivots: Option<usize>,
    /// Absolute deadline, checked cooperatively inside the pivot loop.
    pub deadline: Option<Instant>,
}

impl LpBudget {
    /// The simplex options this budget translates to.
    #[must_use]
    pub fn simplex_options(&self) -> SimplexOptions {
        SimplexOptions {
            pivot_budget: self.max_pivots,
            deadline: self.deadline,
            ..SimplexOptions::default()
        }
    }

    /// Whether the deadline (if any) has already passed.
    #[must_use]
    pub fn expired(&self) -> bool {
        self.deadline.is_some_and(|d| Instant::now() >= d)
    }
}

/// Wall-clock microseconds of one LP build + solve (read via `.0`).
///
/// Deliberately compares equal to every other value: timing is a diagnostic,
/// and two otherwise-identical solves always differ in wall-clock, so the
/// structural equality of solver results must ignore it. The newtype keeps
/// `#[derive(PartialEq)]` usable on every struct that carries a timing —
/// fields added later are compared automatically instead of silently
/// skipped by a hand-written `eq`.
#[derive(Debug, Clone, Copy, Default)]
pub struct LpMicros(pub u64);

impl PartialEq for LpMicros {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

impl Eq for LpMicros {}

/// A solved fractional relaxation.
#[derive(Debug, Clone, PartialEq)]
pub struct FractionalSolution {
    /// `x[machine][job]`: fractional steps machine `i` spends on job `j`.
    pub x: Vec<Vec<f64>>,
    /// `d[job]`: fractional number of steps during which some machine works on
    /// the job. For (LP2) this is simply `max_i x_ij` (no explicit variable).
    pub d: Vec<f64>,
    /// The optimal value `t` (the paper's `T*`).
    pub t: f64,
    /// Simplex pivot count (diagnostic; surfaced by the service as
    /// `lp_pivots`).
    pub iterations: usize,
    /// Number of non-zero `x_ij` in the basic optimal solution (diagnostic;
    /// Theorem 4.5's analysis uses the fact that this is at most `n + m` for
    /// (LP2)).
    pub nonzero_x: usize,
    /// Wall-clock time of the build + solve (diagnostic; compares equal by
    /// construction, see [`LpMicros`]).
    pub lp_micros: LpMicros,
}

impl FractionalSolution {
    /// The fractional mass `Σ_i p_ij x_ij` of a job.
    #[must_use]
    pub fn mass_of(&self, instance: &SuuInstance, job: JobId) -> f64 {
        (0..instance.num_machines())
            .map(|i| self.x[i][job.0] * instance.prob(MachineId(i), job))
            .sum()
    }

    /// The fractional load `Σ_j x_ij` of a machine.
    #[must_use]
    pub fn load_of(&self, machine: MachineId) -> f64 {
        self.x[machine.0].iter().sum()
    }
}

/// Builds and solves (LP1) for a chain-structured instance.
///
/// # Errors
///
/// Returns [`AlgorithmError::LpFailure`] if the simplex solver fails or the LP
/// is reported infeasible/unbounded (which cannot happen for valid instances).
pub fn solve_lp1(
    instance: &SuuInstance,
    chains: &ChainSet,
) -> Result<FractionalSolution, AlgorithmError> {
    solve_lp1_with(instance, chains, &LpBudget::default())
}

/// [`solve_lp1`] under an explicit [`LpBudget`] (pivot budget, deadline).
///
/// # Errors
///
/// Additionally returns [`AlgorithmError::BudgetExhausted`] when the budget
/// runs out mid-solve.
pub fn solve_lp1_with(
    instance: &SuuInstance,
    chains: &ChainSet,
    budget: &LpBudget,
) -> Result<FractionalSolution, AlgorithmError> {
    solve_lp1_warm(instance, chains, budget, None).map(|(frac, _)| frac)
}

/// Warm-start information flowing alongside a fractional solution.
#[derive(Debug, Clone, Default)]
pub struct LpWarmInfo {
    /// `true` when a donor basis was supplied and actually drove the solve
    /// (the warm primal or dual-simplex path produced the solution).
    pub warm: bool,
    /// The solve's final basis and its LU factors, the donor for a
    /// structurally similar solve. `None` when the solve did not end at a
    /// reusable (optimal, artificial-free) basis, which includes a numerical
    /// breakdown handed to the dense fallback.
    pub donor: Option<WarmStart>,
}

/// [`solve_lp1_with`] plus warm-start threading: feed the donor [`WarmStart`]
/// (basis and, when available, LU factors) from a structurally similar
/// parent solve (or `None` to solve cold) and get the final basis + factors
/// back for the next request in the tenant's drift chain. A cold call is
/// [`solve_lp1_with`] exactly, pivot for pivot.
///
/// # Errors
///
/// Same contract as [`solve_lp1_with`].
pub fn solve_lp1_warm(
    instance: &SuuInstance,
    chains: &ChainSet,
    budget: &LpBudget,
    warm: Option<WarmStart>,
) -> Result<(FractionalSolution, LpWarmInfo), AlgorithmError> {
    build_and_solve(instance, Some(chains), budget, warm)
}

/// Builds and solves (LP2) for an independent-jobs instance.
///
/// # Errors
///
/// Returns [`AlgorithmError::LpFailure`] on solver failure.
pub fn solve_lp2(instance: &SuuInstance) -> Result<FractionalSolution, AlgorithmError> {
    build_and_solve(instance, None, &LpBudget::default(), None).map(|(frac, _)| frac)
}

/// Builds the (LP1)/(LP2) problem for `instance`, emitting every row straight
/// from the instance's sparse non-zero index — no dense probability-matrix
/// scans and no dense `m × n` variable map, so the build is O(nnz + n + m +
/// rows), not O(n · m). Returns the problem together with the variable maps
/// (`x_var[i]` lists machine `i`'s `(job, var)` pairs in increasing job
/// order, plus the optional `d` block and `t`). Public so the
/// dense-vs-revised parity battery and the `exp_lp_scaling` benchmark can
/// solve the exact same problem with both engines; pass `None` for `chains`
/// to get (LP2).
#[allow(clippy::type_complexity)]
pub fn build_relaxation(
    instance: &SuuInstance,
    chains: Option<&ChainSet>,
) -> (
    LpProblem,
    Vec<Vec<(usize, VarId)>>,
    Option<Vec<VarId>>,
    VarId,
) {
    let n = instance.num_jobs();
    let m = instance.num_machines();
    let mut lp = LpProblem::new(Sense::Minimize);

    // x variables only for positive probabilities, in machine-major order.
    // The same pass accumulates each job's mass-row terms, so no per-job
    // variable lookup structure is ever needed. Variables and rows carry
    // empty names: this build runs per request on the service's delta path,
    // and formatting ~n·m name strings costs more than the simplex iterations
    // a warm start leaves behind.
    let mut x_var: Vec<Vec<(usize, VarId)>> = vec![Vec::new(); m];
    let mut mass_terms: Vec<Vec<(VarId, f64)>> = vec![Vec::new(); n];
    for (i, row) in x_var.iter_mut().enumerate() {
        for (j, p) in instance.positive_jobs(MachineId(i)) {
            let v = lp.add_variable("");
            row.push((j.0, v));
            mass_terms[j.0].push((v, p));
        }
    }
    // d variables only when chains are present (LP1).
    let d_var: Option<Vec<VarId>> = chains.map(|_| (0..n).map(|_| lp.add_variable("")).collect());
    let t_var = lp.add_variable("t");
    lp.set_objective_coefficient(t_var, 1.0);

    // (1) mass constraints: Σ_i p_ij x_ij ≥ 1/2, one term per non-zero of
    // job j's column.
    for terms in mass_terms {
        lp.add_constraint(terms, ConstraintOp::Ge, LP_MASS_TARGET, "");
    }
    // (2) machine load constraints: Σ_j x_ij − t ≤ 0, one term per non-zero
    // of machine i's row.
    for row in &x_var {
        let mut terms: Vec<(VarId, f64)> = row.iter().map(|&(_, v)| (v, 1.0)).collect();
        terms.push((t_var, -1.0));
        lp.add_constraint(terms, ConstraintOp::Le, 0.0, "");
    }
    if let (Some(chains), Some(d_var)) = (chains, d_var.as_ref()) {
        // (3) chain-length constraints: Σ_{j ∈ C_k} d_j − t ≤ 0.
        for chain in chains.chains() {
            let mut terms: Vec<(VarId, f64)> = chain.iter().map(|&j| (d_var[j], 1.0)).collect();
            terms.push((t_var, -1.0));
            lp.add_constraint(terms, ConstraintOp::Le, 0.0, "");
        }
        // (4) x_ij ≤ d_j, one row per non-zero.
        for row in &x_var {
            for &(j, v) in row {
                lp.add_constraint(vec![(v, 1.0), (d_var[j], -1.0)], ConstraintOp::Le, 0.0, "");
            }
        }
        // (5) d_j ≥ 1.
        for &dv in d_var {
            lp.add_constraint(vec![(dv, 1.0)], ConstraintOp::Ge, 1.0, "");
        }
    }
    (lp, x_var, d_var, t_var)
}

/// Builds (LP1) (or (LP2) without `chains`) and solves it from `warm`, or
/// cold without a donor, handing back the final basis as the next donor.
fn build_and_solve(
    instance: &SuuInstance,
    chains: Option<&ChainSet>,
    budget: &LpBudget,
    warm: Option<WarmStart>,
) -> Result<(FractionalSolution, LpWarmInfo), AlgorithmError> {
    let start = Instant::now();
    let n = instance.num_jobs();
    let m = instance.num_machines();
    let (lp, x_var, d_var, t_var) = build_relaxation(instance, chains);

    let WarmOutcome {
        solution: sol,
        basis,
        factors,
        warm: warm_used,
    } = solve_warm(&lp, warm.unwrap_or_default(), &budget.simplex_options())?;
    let info = LpWarmInfo {
        warm: warm_used,
        donor: (!basis.is_empty()).then_some(WarmStart { basis, factors }),
    };
    if sol.status != LpStatus::Optimal {
        return Err(AlgorithmError::LpFailure(format!(
            "relaxation reported {:?}",
            sol.status
        )));
    }

    // The dense x matrix is the *output* contract (the rounding and
    // pseudo-schedule stages consume it by index); filling it visits only the
    // non-zero variable slots.
    let mut x = vec![vec![0.0f64; n]; m];
    let mut nonzero_x = 0usize;
    for (i, row) in x_var.iter().enumerate() {
        for &(j, v) in row {
            let value = sol.value(v).max(0.0);
            if value > 1e-9 {
                nonzero_x += 1;
            }
            x[i][j] = value;
        }
    }
    let d: Vec<f64> = match d_var {
        Some(vars) => vars.iter().map(|&v| sol.value(v).max(0.0)).collect(),
        None => (0..n)
            .map(|j| (0..m).map(|i| x[i][j]).fold(0.0f64, f64::max))
            .collect(),
    };
    Ok((
        FractionalSolution {
            x,
            d,
            t: sol.value(t_var),
            iterations: sol.iterations,
            nonzero_x,
            lp_micros: LpMicros(u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX)),
        },
        info,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use suu_core::InstanceBuilder;
    use suu_workloads::{random_chains, uniform_matrix};

    fn chain_instance(n: usize, m: usize, num_chains: usize, seed: u64) -> (SuuInstance, ChainSet) {
        let dag = random_chains(n, num_chains, seed);
        let chains = ChainSet::from_dag(&dag).unwrap();
        let inst = InstanceBuilder::new(n, m)
            .probability_matrix(uniform_matrix(n, m, 0.1, 0.9, seed))
            .precedence(dag)
            .build()
            .unwrap();
        (inst, chains)
    }

    #[test]
    fn lp1_solution_is_feasible_for_its_own_constraints() {
        let (inst, chains) = chain_instance(8, 3, 2, 4);
        let sol = solve_lp1(&inst, &chains).unwrap();
        // Mass per job ≥ 1/2.
        for j in inst.jobs() {
            assert!(
                sol.mass_of(&inst, j) >= LP_MASS_TARGET - 1e-6,
                "job {j}: {}",
                sol.mass_of(&inst, j)
            );
        }
        // Machine loads ≤ t.
        for i in inst.machines() {
            assert!(sol.load_of(i) <= sol.t + 1e-6);
        }
        // Chain lengths ≤ t and d_j ≥ 1.
        for chain in chains.chains() {
            let total: f64 = chain.iter().map(|&j| sol.d[j]).sum();
            assert!(total <= sol.t + 1e-6);
        }
        for j in 0..inst.num_jobs() {
            assert!(sol.d[j] >= 1.0 - 1e-6);
        }
        // x_ij ≤ d_j.
        for i in 0..inst.num_machines() {
            for j in 0..inst.num_jobs() {
                assert!(sol.x[i][j] <= sol.d[j] + 1e-6);
            }
        }
    }

    #[test]
    fn lp1_optimum_is_at_least_chain_length() {
        // d_j ≥ 1 and Σ_{chain} d_j ≤ t force t ≥ longest chain.
        let (inst, chains) = chain_instance(10, 4, 2, 9);
        let sol = solve_lp1(&inst, &chains).unwrap();
        let longest = chains.max_chain_len() as f64;
        assert!(sol.t >= longest - 1e-6);
    }

    #[test]
    fn lp2_drops_chain_structure() {
        let inst = InstanceBuilder::new(6, 3)
            .probability_matrix(uniform_matrix(6, 3, 0.2, 0.9, 2))
            .build()
            .unwrap();
        let sol = solve_lp2(&inst).unwrap();
        for j in inst.jobs() {
            assert!(sol.mass_of(&inst, j) >= LP_MASS_TARGET - 1e-6);
        }
        for i in inst.machines() {
            assert!(sol.load_of(i) <= sol.t + 1e-6);
        }
        // The optimum of LP2 can be well below 1 when machines are plentiful.
        assert!(sol.t > 0.0);
    }

    #[test]
    fn lp2_basic_solution_is_sparse() {
        // A basic optimal solution of (LP2) has at most n + m + 1 non-zeros
        // among the x variables (n mass rows + m load rows, plus t).
        let n = 8;
        let m = 5;
        let inst = InstanceBuilder::new(n, m)
            .probability_matrix(uniform_matrix(n, m, 0.1, 0.9, 13))
            .build()
            .unwrap();
        let sol = solve_lp2(&inst).unwrap();
        assert!(
            sol.nonzero_x <= n + m + 1,
            "basic solution has {} non-zeros",
            sol.nonzero_x
        );
    }

    #[test]
    fn lp1_with_single_machine_scales_with_job_count() {
        // One machine must supply 1/2 mass to every job: t ≥ Σ_j 1/(2 p_j).
        let n = 4;
        let inst = InstanceBuilder::new(n, 1)
            .uniform_probability(0.5)
            .precedence(random_chains(n, n, 0))
            .build()
            .unwrap();
        let chains = ChainSet::from_dag(inst.precedence()).unwrap();
        let sol = solve_lp1(&inst, &chains).unwrap();
        assert!(sol.t >= n as f64 - 1e-6, "t = {}", sol.t);
    }

    #[test]
    fn lp_values_are_deterministic() {
        let (inst, chains) = chain_instance(6, 2, 3, 21);
        let a = solve_lp1(&inst, &chains).unwrap();
        let b = solve_lp1(&inst, &chains).unwrap();
        assert_eq!(a, b);
    }
}
