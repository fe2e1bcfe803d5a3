//! Exact optimal regimens by dynamic programming over unfinished-job sets.
//!
//! Malewicz \[21\] observed that an optimal schedule can always be taken to be a
//! *regimen* — the assignment depends only on the set of unfinished jobs — and
//! that for constant width and constant number of machines the optimal regimen
//! is computable in polynomial time. This module implements the general
//! subset dynamic program: states are processed in increasing order of the
//! unfinished set (every transition strictly shrinks the set or stays put),
//! and for each state every assignment of machines to eligible jobs is
//! evaluated:
//!
//! ```text
//! E[S] = min over assignments A of  (1 + Σ_{∅≠F} P_A(F) · E[S \ F]) / (1 − P_A(∅)) .
//! ```
//!
//! The run time is `O(2ⁿ · (w+1)^m · 2^w)` where `w` is the width, so the
//! entry point refuses instances whose state-assignment product exceeds a
//! budget. It is the ground truth against which the paper's approximation
//! factors are measured in experiments E4–E10, and doubles as the optimal
//! baseline for Figure 1-style illustrations.

use std::fmt;

use suu_core::{Assignment, JobId, JobSet, MachineId, SchedulingPolicy, SuuInstance};
use suu_sim::exact_expected_makespan_regimen;

/// Errors from the exact DP.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BaselineError {
    /// The instance is too large for exact optimisation.
    TooLarge {
        /// Estimated number of (state, assignment) pairs.
        estimated_work: u128,
        /// The budget that was exceeded.
        budget: u128,
    },
}

impl fmt::Display for BaselineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::TooLarge {
                estimated_work,
                budget,
            } => write!(
                f,
                "exact optimal regimen needs ~{estimated_work} state-assignment evaluations (budget {budget})"
            ),
        }
    }
}

impl std::error::Error for BaselineError {}

/// An exact optimal regimen: the optimal assignment for every unfinished set,
/// together with the exact expected makespans.
#[derive(Debug, Clone)]
pub struct OptimalRegimen {
    num_jobs: usize,
    /// `assignment[mask]` is the optimal assignment when `mask` encodes the
    /// unfinished set.
    assignment: Vec<Assignment>,
    /// `expected[mask]` is the optimal expected remaining makespan.
    expected: Vec<f64>,
}

impl OptimalRegimen {
    /// The optimal expected makespan from the initial state (all jobs
    /// unfinished).
    #[must_use]
    pub fn expected_makespan(&self) -> f64 {
        *self.expected.last().unwrap_or(&0.0)
    }

    /// The optimal expected remaining makespan for an arbitrary unfinished
    /// set.
    #[must_use]
    pub fn expected_from(&self, unfinished: &JobSet) -> f64 {
        self.expected[mask_of(unfinished)]
    }

    /// The optimal assignment for an unfinished set.
    #[must_use]
    pub fn assignment_for(&self, unfinished: &JobSet) -> &Assignment {
        &self.assignment[mask_of(unfinished)]
    }

    /// Number of jobs of the instance this regimen was computed for.
    #[must_use]
    pub fn num_jobs(&self) -> usize {
        self.num_jobs
    }

    /// A [`SchedulingPolicy`] executing this regimen (for simulation).
    #[must_use]
    pub fn policy(&self) -> OptimalRegimenPolicy {
        OptimalRegimenPolicy {
            regimen: self.clone(),
        }
    }
}

/// Policy adapter for [`OptimalRegimen`].
#[derive(Debug, Clone)]
pub struct OptimalRegimenPolicy {
    regimen: OptimalRegimen,
}

impl SchedulingPolicy for OptimalRegimenPolicy {
    fn assign(&mut self, _step: usize, unfinished: &JobSet) -> Assignment {
        self.regimen.assignment_for(unfinished).clone()
    }

    fn name(&self) -> String {
        "optimal-regimen".to_string()
    }
}

fn mask_of(set: &JobSet) -> usize {
    set.iter().fold(0usize, |acc, j| acc | (1 << j.0))
}

/// Default budget on (state × assignment × transition) evaluations.
pub const DEFAULT_WORK_BUDGET: u128 = 200_000_000;

/// Computes the exact optimal regimen.
///
/// # Errors
///
/// Returns [`BaselineError::TooLarge`] if the estimated work exceeds
/// `DEFAULT_WORK_BUDGET` (use small `n`, `m` and width).
pub fn optimal_regimen(instance: &SuuInstance) -> Result<OptimalRegimen, BaselineError> {
    optimal_regimen_with_budget(instance, DEFAULT_WORK_BUDGET)
}

/// [`optimal_regimen`] with an explicit work budget.
///
/// # Errors
///
/// Returns [`BaselineError::TooLarge`] when the estimate exceeds `budget`.
pub fn optimal_regimen_with_budget(
    instance: &SuuInstance,
    budget: u128,
) -> Result<OptimalRegimen, BaselineError> {
    let n = instance.num_jobs();
    let m = instance.num_machines();
    let width = suu_graph::width(instance.precedence());
    let states = 1u128 << n.min(60);
    let assignments_per_state = (width as u128 + 1).pow(u32::try_from(m).unwrap_or(u32::MAX));
    let transitions = 1u128 << width.min(60);
    let estimated_work = states
        .saturating_mul(assignments_per_state)
        .saturating_mul(transitions);
    if n > 20 || estimated_work > budget {
        return Err(BaselineError::TooLarge {
            estimated_work,
            budget,
        });
    }

    let full = (1usize << n) - 1;
    let mut expected = vec![0.0f64; full + 1];
    let mut assignment = vec![Assignment::idle(m); full + 1];

    for mask in 1..=full {
        let unfinished: Vec<usize> = (0..n).filter(|&j| mask & (1 << j) != 0).collect();
        let finished: Vec<bool> = (0..n).map(|j| mask & (1 << j) == 0).collect();
        let eligible: Vec<JobId> = instance.eligible_jobs(&finished);

        let mut best_value = f64::INFINITY;
        let mut best_assignment = Assignment::idle(m);
        // Enumerate assignments of each machine to an eligible job or idle.
        let choices = eligible.len() + 1;
        let mut counter = vec![0usize; m];
        loop {
            // Build the assignment for this counter value.
            let mut a = Assignment::idle(m);
            for (i, &c) in counter.iter().enumerate() {
                if c > 0 {
                    a.assign(MachineId(i), eligible[c - 1]);
                }
            }
            let value = expected_steps(instance, mask, &unfinished, &a, &expected);
            if value < best_value {
                best_value = value;
                best_assignment = a;
            }
            // Advance the counter.
            let mut pos = 0;
            loop {
                if pos == m {
                    break;
                }
                counter[pos] += 1;
                if counter[pos] < choices {
                    break;
                }
                counter[pos] = 0;
                pos += 1;
            }
            if counter.iter().all(|&c| c == 0) {
                break;
            }
        }
        expected[mask] = best_value;
        assignment[mask] = best_assignment;
    }

    Ok(OptimalRegimen {
        num_jobs: n,
        assignment,
        expected,
    })
}

/// Expected steps to finish from `mask` when using assignment `a` for one step
/// and behaving optimally afterwards.
fn expected_steps(
    instance: &SuuInstance,
    mask: usize,
    unfinished: &[usize],
    a: &Assignment,
    expected: &[f64],
) -> f64 {
    // Success probability per unfinished job under `a`.
    let mut q = Vec::with_capacity(unfinished.len());
    for &j in unfinished {
        let machines = a.machines_on(JobId(j));
        let probs: Vec<f64> = machines
            .iter()
            .map(|&i| instance.prob(i, JobId(j)))
            .collect();
        q.push(suu_core::combined_success_probability(&probs));
    }
    let active: Vec<usize> = (0..unfinished.len()).filter(|&k| q[k] > 0.0).collect();
    if active.is_empty() {
        return f64::INFINITY;
    }
    let mut to_smaller = 0.0;
    let mut stay = 0.0;
    for bits in 0..(1u32 << active.len()) {
        let mut prob = 1.0;
        let mut removed = 0usize;
        for (idx, &k) in active.iter().enumerate() {
            if bits & (1 << idx) != 0 {
                prob *= q[k];
                removed |= 1 << unfinished[k];
            } else {
                prob *= 1.0 - q[k];
            }
        }
        if removed == 0 {
            stay += prob;
        } else {
            to_smaller += prob * expected[mask & !removed];
        }
    }
    if stay >= 1.0 - 1e-15 {
        f64::INFINITY
    } else {
        (1.0 + to_smaller) / (1.0 - stay)
    }
}

/// Convenience: the exact expected makespan of the optimal regimen, verified
/// against the generic Markov evaluator (debug builds only).
///
/// # Errors
///
/// Propagates [`BaselineError::TooLarge`].
pub fn optimal_expected_makespan(instance: &SuuInstance) -> Result<f64, BaselineError> {
    let regimen = optimal_regimen(instance)?;
    let value = regimen.expected_makespan();
    debug_assert!({
        let recomputed = exact_expected_makespan_regimen(instance, |s: &JobSet| {
            regimen.assignment_for(s).clone()
        });
        (recomputed - value).abs() < 1e-6 || !value.is_finite()
    });
    Ok(value)
}

#[cfg(test)]
mod tests {
    use super::*;
    use suu_core::InstanceBuilder;
    use suu_sim::{SimulationOptions, Simulator};
    use suu_workloads::uniform_matrix;

    #[test]
    fn single_job_optimum_uses_all_machines() {
        // One job, two machines with p = 0.5 and 0.3: optimal assigns both;
        // success per step = 1 − 0.5·0.7 = 0.65 → E = 1/0.65.
        let inst = InstanceBuilder::new(1, 2)
            .probability(MachineId(0), JobId(0), 0.5)
            .probability(MachineId(1), JobId(0), 0.3)
            .build()
            .unwrap();
        let opt = optimal_regimen(&inst).unwrap();
        assert!((opt.expected_makespan() - 1.0 / 0.65).abs() < 1e-9);
        let a = opt.assignment_for(&JobSet::all(1));
        assert_eq!(a.machines_on(JobId(0)).len(), 2);
    }

    #[test]
    fn two_jobs_one_machine_order_does_not_matter_but_value_is_exact() {
        // One machine, two jobs with p = 0.5 each: serialise, E = 2 + 2 = 4.
        let inst = InstanceBuilder::new(2, 1)
            .uniform_probability(0.5)
            .build()
            .unwrap();
        let opt = optimal_regimen(&inst).unwrap();
        assert!((opt.expected_makespan() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn optimum_is_no_worse_than_any_fixed_regimen() {
        let inst = InstanceBuilder::new(4, 2)
            .probability_matrix(uniform_matrix(4, 2, 0.1, 0.9, 3))
            .build()
            .unwrap();
        let opt = optimal_expected_makespan(&inst).unwrap();
        // Compare against the "all machines on the lowest unfinished job"
        // regimen evaluated exactly.
        let serial = exact_expected_makespan_regimen(&inst, |s: &JobSet| match s.iter().next() {
            Some(j) => Assignment::all_on(2, j),
            None => Assignment::idle(2),
        });
        assert!(opt <= serial + 1e-9, "opt {opt} > serial {serial}");
    }

    #[test]
    fn precedence_constraints_are_respected() {
        // Chain 0 → 1 with p = 1: optimal makespan is exactly 2.
        let inst = InstanceBuilder::new(2, 2)
            .uniform_probability(1.0)
            .chains(&[vec![0, 1]])
            .build()
            .unwrap();
        let opt = optimal_regimen(&inst).unwrap();
        assert!((opt.expected_makespan() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn policy_simulation_matches_dp_value() {
        let inst = InstanceBuilder::new(4, 2)
            .probability_matrix(uniform_matrix(4, 2, 0.2, 0.9, 7))
            .chains(&[vec![0, 1], vec![2, 3]])
            .build()
            .unwrap();
        let opt = optimal_regimen(&inst).unwrap();
        let exact = opt.expected_makespan();
        let sim = Simulator::new(SimulationOptions {
            trials: 4000,
            max_steps: 100_000,
            base_seed: 1,
        });
        let policy_src = opt.policy();
        let est = sim.estimate(&inst, move || policy_src.clone());
        assert!(
            (est.mean() - exact).abs() < 4.0 * est.summary.std_error + 0.05,
            "exact {exact} vs simulated {}",
            est.mean()
        );
    }

    #[test]
    fn too_large_instances_are_rejected() {
        let inst = InstanceBuilder::new(18, 12)
            .uniform_probability(0.5)
            .build()
            .unwrap();
        assert!(matches!(
            optimal_regimen(&inst),
            Err(BaselineError::TooLarge { .. })
        ));
    }

    #[test]
    fn expected_from_intermediate_states_is_monotone() {
        let inst = InstanceBuilder::new(3, 2)
            .probability_matrix(uniform_matrix(3, 2, 0.3, 0.8, 9))
            .build()
            .unwrap();
        let opt = optimal_regimen(&inst).unwrap();
        let full = opt.expected_from(&JobSet::all(3));
        let partial = opt.expected_from(&JobSet::from_members(3, [JobId(1)]));
        assert!(partial <= full + 1e-12);
        assert!(opt.expected_from(&JobSet::empty(3)).abs() < 1e-12);
    }
}
