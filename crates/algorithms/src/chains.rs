//! The end-to-end algorithm for disjoint chains, SUU-C (Theorem 4.4).
//!
//! Pipeline, exactly as in §4.1 of the paper:
//!
//! 1. solve the relaxation (LP1) — optimum `T* ≤ 16 · T^OPT` (Lemma 4.2);
//! 2. round the fractional solution with the flow-based procedure of
//!    Theorem 4.1 — every job holds mass ≥ 1/2, loads and chain lengths blow
//!    up by `O(log m)`;
//! 3. lay the rounded counts out as one pseudo-schedule per chain and overlay
//!    them (Theorem 4.3);
//! 4. delay each chain by a random offset and flatten into a feasible
//!    oblivious schedule `Σ_{o,1}` — length `O(log m · log(n+m)/log log(n+m))
//!    · T^OPT`;
//! 5. replicate each step `σ = Θ(log n)` times and append the serial tail —
//!    expected makespan `O(log m · log n · log(n+m)/log log(n+m)) · T^OPT`
//!    (Theorem 4.4).

use suu_core::{ObliviousSchedule, SuuInstance};
use suu_graph::ChainSet;

use crate::delay::flatten_with_random_delays;
use crate::error::AlgorithmError;
use crate::lp_relaxation::{solve_lp1_warm, LpBudget, LpMicros, LpWarmInfo, WarmStart};
use crate::pseudo::build_chain_pseudo_schedules;
use crate::replicate::{default_sigma, replicate_with_tail};
use crate::rounding::round_solution;

/// Tunable parameters of the chain pipeline.
#[derive(Debug, Clone)]
pub struct ChainsOptions {
    /// Seed for the random chain delays.
    pub seed: u64,
    /// Number of delay vectors evaluated (best-of-`k`; 1 = plain randomised).
    pub delay_tries: usize,
    /// Replication factor σ; `None` uses the paper's `⌈16 log₂ n⌉`.
    pub sigma: Option<usize>,
    /// Skip the replication/tail stage and return the constant-mass schedule
    /// `Σ_{o,1}` itself (used by the forest algorithm, which replicates once
    /// globally, and by ablation experiments).
    pub replicate: bool,
    /// Resource bounds on the (LP1) stage: pivot budget and wall-clock
    /// deadline. The default is unbounded (historical behaviour);
    /// exhausting a bound aborts with [`AlgorithmError::BudgetExhausted`].
    pub lp: LpBudget,
}

impl Default for ChainsOptions {
    fn default() -> Self {
        Self {
            seed: 0x5c0_1a5,
            delay_tries: 8,
            sigma: None,
            replicate: true,
            lp: LpBudget::default(),
        }
    }
}

/// The schedule produced for a chain-structured instance, with diagnostics.
#[derive(Debug, Clone, PartialEq)]
pub struct ChainsSchedule {
    /// The final oblivious schedule (execute cyclically).
    pub schedule: ObliviousSchedule,
    /// The constant-mass schedule `Σ_{o,1}` before replication.
    pub constant_mass_schedule: ObliviousSchedule,
    /// Optimum of the LP relaxation (`T*`, a lower bound on `16 · T^OPT`).
    pub lp_value: f64,
    /// Simplex pivots spent solving (LP1).
    pub lp_pivots: usize,
    /// Wall-clock microseconds spent building and solving (LP1); compares
    /// equal by construction (see [`LpMicros`]).
    pub lp_micros: LpMicros,
    /// Scale factor applied by the rounding step (`O(log m)`).
    pub rounding_scale: u64,
    /// Maximum machine load of the rounded solution.
    pub rounded_max_load: u64,
    /// Maximum per-step congestion after the random delays.
    pub congestion: usize,
    /// Replication factor used (0 when replication was skipped).
    pub sigma: usize,
}

/// Runs the Theorem 4.4 pipeline with default options.
///
/// # Errors
///
/// Returns [`AlgorithmError::NotChains`] if the precedence graph is not a
/// disjoint union of chains, or an LP/rounding error.
pub fn schedule_chains(instance: &SuuInstance) -> Result<ChainsSchedule, AlgorithmError> {
    schedule_chains_with(instance, &ChainsOptions::default())
}

/// Runs the Theorem 4.4 pipeline with explicit options.
///
/// # Errors
///
/// See [`schedule_chains`].
pub fn schedule_chains_with(
    instance: &SuuInstance,
    options: &ChainsOptions,
) -> Result<ChainsSchedule, AlgorithmError> {
    let chains = ChainSet::from_dag(instance.precedence()).ok_or(AlgorithmError::NotChains)?;
    schedule_given_chains(instance, &chains, options, None).map(|(schedule, _)| schedule)
}

/// Runs the pipeline for a caller-provided chain partition (the forest
/// algorithm feeds in one block of the chain decomposition at a time).
///
/// `warm` is the donor basis and LU factors of a structurally similar
/// parent solve, or `None` to solve cold; the (LP1) solve's final basis and
/// factors come back as the donor for the next solve. Everything after the
/// LP stage depends on the donor only through the optimum it reaches: warm
/// starts change how fast the LP gets there, never which optimum the
/// rounding pipeline consumes.
///
/// # Errors
///
/// Returns LP or rounding errors; the chain structure itself is trusted.
pub fn schedule_given_chains(
    instance: &SuuInstance,
    chains: &ChainSet,
    options: &ChainsOptions,
    warm: Option<WarmStart>,
) -> Result<(ChainsSchedule, LpWarmInfo), AlgorithmError> {
    let (frac, info) = solve_lp1_warm(instance, chains, &options.lp, warm)?;
    let rounded = round_solution(instance, &frac)?;
    let per_chain = build_chain_pseudo_schedules(instance, chains, &rounded);
    let outcome = flatten_with_random_delays(
        &per_chain,
        instance.num_machines(),
        options.seed,
        options.delay_tries,
    );

    let sigma = if options.replicate {
        options
            .sigma
            .unwrap_or_else(|| default_sigma(instance.num_jobs()))
    } else {
        0
    };
    let schedule = if options.replicate {
        replicate_with_tail(instance, &outcome.schedule, sigma)
    } else {
        outcome.schedule.clone()
    };

    let schedule = ChainsSchedule {
        schedule,
        constant_mass_schedule: outcome.schedule,
        lp_value: frac.t,
        lp_pivots: frac.iterations,
        lp_micros: frac.lp_micros,
        rounding_scale: rounded.scale,
        rounded_max_load: rounded.max_load(),
        congestion: outcome.congestion,
        sigma,
    };
    Ok((schedule, info))
}

#[cfg(test)]
mod tests {
    use super::*;
    use suu_core::mass::mass_of_oblivious;
    use suu_core::InstanceBuilder;
    use suu_sim::{exact_expected_makespan_oblivious_cyclic, SimulationOptions, Simulator};
    use suu_workloads::{random_chains, uniform_matrix};

    fn chain_instance(n: usize, m: usize, chains: usize, seed: u64) -> SuuInstance {
        InstanceBuilder::new(n, m)
            .probability_matrix(uniform_matrix(n, m, 0.1, 0.9, seed))
            .precedence(random_chains(n, chains, seed))
            .build()
            .unwrap()
    }

    #[test]
    fn rejects_non_chain_instances() {
        let inst = InstanceBuilder::new(3, 2)
            .uniform_probability(0.5)
            .precedence(suu_graph::Dag::from_edges(3, [(0, 1), (0, 2)]).unwrap())
            .build()
            .unwrap();
        assert_eq!(
            schedule_chains(&inst).unwrap_err(),
            AlgorithmError::NotChains
        );
    }

    #[test]
    fn constant_mass_schedule_gives_every_job_half_mass() {
        let inst = chain_instance(10, 3, 3, 1);
        let result = schedule_chains(&inst).unwrap();
        let mass = mass_of_oblivious(&inst, &result.constant_mass_schedule);
        for j in inst.jobs() {
            assert!(mass.get(j) >= 0.5 - 1e-9, "job {j}: {}", mass.get(j));
        }
    }

    #[test]
    fn final_schedule_contains_replicated_prefix_and_tail() {
        let inst = chain_instance(8, 2, 2, 3);
        let result = schedule_chains(&inst).unwrap();
        assert!(result.sigma >= 4);
        assert_eq!(
            result.schedule.len(),
            result.constant_mass_schedule.len() * result.sigma + inst.num_jobs()
        );
    }

    #[test]
    fn skipping_replication_returns_constant_mass_schedule() {
        let inst = chain_instance(6, 2, 2, 5);
        let options = ChainsOptions {
            replicate: false,
            ..ChainsOptions::default()
        };
        let result = schedule_chains_with(&inst, &options).unwrap();
        assert_eq!(result.schedule, result.constant_mass_schedule);
        assert_eq!(result.sigma, 0);
    }

    #[test]
    fn expected_makespan_is_finite_and_reasonable() {
        let inst = chain_instance(6, 3, 2, 7);
        let result = schedule_chains(&inst).unwrap();
        let expected = exact_expected_makespan_oblivious_cyclic(&inst, &result.schedule);
        assert!(expected.is_finite());
        // The schedule is designed so that with probability ≥ 1 − 1/n² all
        // jobs finish within one pass; the expectation is therefore at most a
        // small multiple of the schedule length.
        assert!(
            expected <= 2.0 * result.schedule.len() as f64,
            "expected {expected} vs length {}",
            result.schedule.len()
        );
    }

    #[test]
    fn monte_carlo_execution_finishes() {
        let inst = chain_instance(12, 4, 4, 9);
        let result = schedule_chains(&inst).unwrap();
        let sim = Simulator::new(SimulationOptions {
            trials: 40,
            max_steps: 200_000,
            base_seed: 3,
        });
        let schedule = result.schedule.clone();
        let est = sim.estimate(&inst, move || schedule.clone());
        assert_eq!(est.censored, 0);
        assert!(est.mean() <= result.schedule.len() as f64 * 1.5);
    }

    #[test]
    fn lp_value_lower_bounds_chain_length() {
        let inst = chain_instance(10, 5, 2, 11);
        let chains = ChainSet::from_dag(inst.precedence()).unwrap();
        let result = schedule_chains(&inst).unwrap();
        assert!(result.lp_value >= chains.max_chain_len() as f64 - 1e-6);
    }

    #[test]
    fn independent_jobs_work_through_the_chain_pipeline() {
        // Independent jobs are chains of length one, so the pipeline applies.
        let inst = InstanceBuilder::new(6, 3)
            .probability_matrix(uniform_matrix(6, 3, 0.2, 0.9, 13))
            .build()
            .unwrap();
        let result = schedule_chains(&inst).unwrap();
        let mass = mass_of_oblivious(&inst, &result.constant_mass_schedule);
        assert!(mass.min() >= 0.5 - 1e-9);
    }

    #[test]
    fn pivot_budget_exhaustion_is_structured_and_a_larger_budget_is_invisible() {
        let inst = chain_instance(10, 3, 3, 1);
        let starved = ChainsOptions {
            lp: LpBudget {
                max_pivots: Some(1),
                ..LpBudget::default()
            },
            ..ChainsOptions::default()
        };
        let err = schedule_chains_with(&inst, &starved).unwrap_err();
        assert!(
            matches!(
                err,
                AlgorithmError::BudgetExhausted {
                    wall_clock: false,
                    ..
                }
            ),
            "{err:?}"
        );

        let unbudgeted = schedule_chains(&inst).unwrap();
        let generous = ChainsOptions {
            lp: LpBudget {
                max_pivots: Some(1_000_000),
                ..LpBudget::default()
            },
            ..ChainsOptions::default()
        };
        assert_eq!(schedule_chains_with(&inst, &generous).unwrap(), unbudgeted);
    }

    #[test]
    fn results_are_deterministic_for_a_seed() {
        let inst = chain_instance(8, 3, 2, 15);
        let a = schedule_chains(&inst).unwrap();
        let b = schedule_chains(&inst).unwrap();
        assert_eq!(a, b);
    }
}
