//! Scheduling under tree-like precedence constraints (Theorems 4.7 and 4.8).
//!
//! Following §4.2 of the paper, a directed forest is first decomposed into
//! `γ = O(log n)` blocks by the chain decomposition of Lemma 4.6 (after Kumar
//! et al.); the subgraph induced by each block is a disjoint union of chains,
//! and every ancestor of a job sits in an earlier block (or earlier on the
//! same chain). The chain algorithm of Theorem 4.4 is then run inside each
//! block, and the per-block schedules are concatenated in block order. Because
//! the optimal expected makespan of any induced sub-instance lower-bounds the
//! optimum of the whole instance, the concatenation costs an extra `O(log n)`
//! factor, giving `O(log m · log² n)` for in-/out-forests and an extra
//! `log(n+m)/log log(n+m)` factor for general directed forests.
//!
//! The per-block work — restrict the instance, build and solve the block's
//! (LP1), round, apply random delays — is completely independent across
//! blocks; only the final concatenation is ordered. The blocks are therefore
//! solved **in parallel** (one rayon task per block) and stitched together
//! in block order afterwards, so a single large forest request scales across
//! cores. Each block's chain stage is seeded deterministically by the shared
//! [`ChainsOptions::seed`], so the parallel schedule is bit-identical to the
//! sequential one.

use std::sync::atomic::{AtomicUsize, Ordering};

use rayon::prelude::*;
use suu_core::{Assignment, JobId, ObliviousSchedule, SuuInstance};
use suu_graph::{ChainDecomposition, ForestKind};

use crate::chains::{schedule_given_chains, ChainsOptions};
use crate::error::AlgorithmError;
use crate::lp_relaxation::LpMicros;
use crate::replicate::{default_sigma, replicate_with_tail};

/// Result of the forest pipeline.
#[derive(Debug, Clone, PartialEq)]
pub struct ForestSchedule {
    /// The final oblivious schedule over the original job ids (execute
    /// cyclically).
    pub schedule: ObliviousSchedule,
    /// Number of blocks `γ` of the chain decomposition.
    pub num_blocks: usize,
    /// Per-block diagnostics: (block size, LP optimum, congestion).
    pub block_stats: Vec<BlockStats>,
    /// Simplex pivots summed over every block's (LP1).
    pub lp_pivots: usize,
    /// Wall-clock microseconds summed over every block's LP build + solve;
    /// compares equal by construction (see [`LpMicros`]).
    pub lp_micros: LpMicros,
    /// Replication factor used for each block schedule.
    pub sigma: usize,
}

/// Diagnostics for a single block of the chain decomposition.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockStats {
    /// Number of jobs in the block.
    pub jobs: usize,
    /// Optimum of the block's (LP1).
    pub lp_value: f64,
    /// Simplex pivots of the block's (LP1).
    pub lp_pivots: usize,
    /// Maximum per-step congestion after random delays in the block.
    pub congestion: usize,
}

/// Runs the Theorem 4.7 / 4.8 pipeline with default chain options.
///
/// # Errors
///
/// Returns [`AlgorithmError::NotAForest`] if the underlying undirected graph
/// of the precedence DAG is not a forest, or an LP/rounding failure from a
/// block.
pub fn schedule_forest(instance: &SuuInstance) -> Result<ForestSchedule, AlgorithmError> {
    schedule_forest_with(instance, &ChainsOptions::default())
}

/// Runs the forest pipeline with explicit chain-stage options (the replication
/// flag and σ apply per block).
///
/// # Errors
///
/// See [`schedule_forest`].
pub fn schedule_forest_with(
    instance: &SuuInstance,
    options: &ChainsOptions,
) -> Result<ForestSchedule, AlgorithmError> {
    if instance.forest_kind() == ForestKind::GeneralDag {
        return Err(AlgorithmError::NotAForest);
    }
    let decomposition = ChainDecomposition::decompose(instance.precedence())
        .map_err(|_| AlgorithmError::NotAForest)?;

    let sigma = options
        .sigma
        .unwrap_or_else(|| default_sigma(instance.num_jobs()));
    // Blocks are scheduled with their own replication (so each block finishes
    // with high probability before the next one starts) but without the serial
    // tail, which is appended once globally at the end.
    let block_options = ChainsOptions {
        replicate: false,
        ..options.clone()
    };

    // Solve every block in parallel: block solves share no mutable state
    // (each works on its own restricted sub-instance) and `collect` returns
    // them in block order, so the sequential concatenation below produces
    // exactly the schedule the old serial loop did. The pivot budget in
    // `options.lp` is shared across blocks through `pivots_spent`: each block
    // starts with whatever the others have left *at the moment it begins*.
    // Enforcement is cooperative: with P blocks solving concurrently, each
    // may have snapshotted the full remaining budget, so total spend can
    // reach P× the budget in the worst case — the budget is a lever, not a
    // hard cap, under parallel execution. The wall-clock deadline, by
    // contrast, is absolute and exact in every block.
    let pivots_spent = AtomicUsize::new(0);
    let block_inputs = decomposition.block_chain_sets();
    let solved_blocks: Vec<Result<SolvedBlock, AlgorithmError>> = block_inputs
        .par_iter()
        .map(|(chain_set, mapping)| {
            solve_block(
                instance,
                chain_set,
                mapping,
                &block_options,
                sigma,
                &pivots_spent,
            )
        })
        .collect();

    let mut combined = ObliviousSchedule::new(instance.num_machines());
    let mut block_stats = Vec::new();
    let mut lp_pivots = 0usize;
    let mut lp_micros = 0u64;
    for solved in solved_blocks {
        let solved = solved?;
        combined = combined.concat(&solved.replicated);
        lp_pivots += solved.stats.lp_pivots;
        lp_micros = lp_micros.saturating_add(solved.lp_micros);
        block_stats.push(solved.stats);
    }

    let schedule = if options.replicate {
        // Append the global serial tail (replication already applied per
        // block above).
        let tail_owner = combined;
        replicate_with_tail(instance, &tail_owner, 1)
    } else {
        combined
    };

    Ok(ForestSchedule {
        schedule,
        num_blocks: decomposition.num_blocks(),
        block_stats,
        lp_pivots,
        lp_micros: LpMicros(lp_micros),
        sigma,
    })
}

/// Output of one block's parallel solve: the remapped, replicated schedule
/// segment plus the diagnostics to fold into the pipeline totals.
struct SolvedBlock {
    replicated: ObliviousSchedule,
    stats: BlockStats,
    lp_micros: u64,
}

/// Solves one block of the chain decomposition end to end: restrict the
/// instance to the block's jobs, run the Theorem 4.4 chain pipeline, remap
/// the schedule back to original job ids and apply the per-block
/// replication. Runs on a rayon worker; touches no shared mutable state.
fn solve_block(
    instance: &SuuInstance,
    chain_set: &suu_graph::ChainSet,
    mapping: &[usize],
    block_options: &ChainsOptions,
    sigma: usize,
    pivots_spent: &AtomicUsize,
) -> Result<SolvedBlock, AlgorithmError> {
    let jobs: Vec<JobId> = mapping.iter().map(|&j| JobId(j)).collect();
    let (sub_instance, _) = instance.restrict_to_jobs(&jobs);
    // Hand this block whatever pivot budget the others have left; report
    // exhaustion with the pipeline-wide total so the caller sees the true
    // cost, not one block's share.
    let mut block_options = block_options.clone();
    let already_spent = pivots_spent.load(Ordering::Relaxed);
    if let Some(total) = block_options.lp.max_pivots {
        let remaining = total.saturating_sub(already_spent);
        if remaining == 0 {
            return Err(AlgorithmError::BudgetExhausted {
                pivots: already_spent,
                wall_clock: false,
            });
        }
        block_options.lp.max_pivots = Some(remaining);
    }
    let block = match schedule_given_chains(&sub_instance, chain_set, &block_options, None) {
        Ok((block, _)) => block,
        Err(AlgorithmError::BudgetExhausted { pivots, wall_clock }) => {
            return Err(AlgorithmError::BudgetExhausted {
                pivots: pivots + already_spent,
                wall_clock,
            })
        }
        Err(err) => return Err(err),
    };
    pivots_spent.fetch_add(block.lp_pivots, Ordering::Relaxed);
    let remapped = remap_jobs(&block.constant_mass_schedule, mapping);
    Ok(SolvedBlock {
        replicated: remapped.replicate_steps(sigma),
        stats: BlockStats {
            jobs: mapping.len(),
            lp_value: block.lp_value,
            lp_pivots: block.lp_pivots,
            congestion: block.congestion,
        },
        lp_micros: block.lp_micros.0,
    })
}

/// Rewrites a schedule expressed in block-local job ids into original job ids
/// using `mapping[local] = original`.
fn remap_jobs(schedule: &ObliviousSchedule, mapping: &[usize]) -> ObliviousSchedule {
    let m = schedule.num_machines();
    let steps = schedule
        .steps()
        .iter()
        .map(|step| {
            let mut out = Assignment::idle(m);
            for (machine, job) in step.busy_pairs() {
                out.assign(machine, JobId(mapping[job.0]));
            }
            out
        })
        .collect();
    ObliviousSchedule::from_steps(m, steps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use suu_core::mass::mass_of_oblivious;
    use suu_core::InstanceBuilder;
    use suu_sim::{exact_expected_makespan_oblivious_cyclic, SimulationOptions, Simulator};
    use suu_workloads::{
        random_directed_forest, random_in_forest, random_out_forest, uniform_matrix,
    };

    fn forest_instance(n: usize, m: usize, seed: u64, kind: &str) -> SuuInstance {
        let dag = match kind {
            "out" => random_out_forest(n, 2.min(n), seed),
            "in" => random_in_forest(n, 2.min(n), seed),
            _ => random_directed_forest(n, 2.min(n), seed),
        };
        InstanceBuilder::new(n, m)
            .probability_matrix(uniform_matrix(n, m, 0.1, 0.9, seed))
            .precedence(dag)
            .build()
            .unwrap()
    }

    #[test]
    fn rejects_non_forest_dags() {
        let dag = suu_graph::Dag::from_edges(4, [(0, 1), (0, 2), (1, 3), (2, 3)]).unwrap();
        let inst = InstanceBuilder::new(4, 2)
            .uniform_probability(0.5)
            .precedence(dag)
            .build()
            .unwrap();
        assert_eq!(
            schedule_forest(&inst).unwrap_err(),
            AlgorithmError::NotAForest
        );
    }

    #[test]
    fn out_forest_schedule_covers_every_job_with_full_mass() {
        let inst = forest_instance(12, 3, 1, "out");
        let result = schedule_forest(&inst).unwrap();
        // Thanks to per-block replication plus the serial tail, every job
        // accumulates mass 1 within one pass of the schedule.
        let mass = mass_of_oblivious(&inst, &result.schedule);
        for j in inst.jobs() {
            assert!((mass.get(j) - 1.0).abs() < 1e-9, "job {j}: {}", mass.get(j));
        }
    }

    #[test]
    fn number_of_blocks_is_logarithmic() {
        let inst = forest_instance(64, 4, 3, "mixed");
        let result = schedule_forest(&inst).unwrap();
        assert!(result.num_blocks <= ChainDecomposition::width_bound(64));
        assert_eq!(result.block_stats.iter().map(|b| b.jobs).sum::<usize>(), 64);
    }

    #[test]
    fn in_forest_is_supported() {
        let inst = forest_instance(10, 3, 5, "in");
        let result = schedule_forest(&inst).unwrap();
        assert!(result.num_blocks >= 1);
        let expected = exact_expected_makespan_oblivious_cyclic(&inst, &result.schedule);
        assert!(expected.is_finite());
    }

    #[test]
    fn simulated_execution_respects_precedence_and_finishes() {
        let inst = forest_instance(14, 4, 7, "mixed");
        let result = schedule_forest(&inst).unwrap();
        let sim = Simulator::new(SimulationOptions {
            trials: 30,
            max_steps: 500_000,
            base_seed: 5,
        });
        let schedule = result.schedule.clone();
        let est = sim.estimate(&inst, move || schedule.clone());
        assert_eq!(est.censored, 0);
    }

    #[test]
    fn chains_and_independent_instances_take_the_single_block_path() {
        let inst = InstanceBuilder::new(6, 2)
            .probability_matrix(uniform_matrix(6, 2, 0.2, 0.9, 9))
            .precedence(suu_workloads::random_chains(6, 2, 9))
            .build()
            .unwrap();
        let result = schedule_forest(&inst).unwrap();
        assert_eq!(result.num_blocks, 1);
    }

    #[test]
    fn parallel_blocks_match_a_sequential_fold() {
        // The rayon fan-out must be invisible in the output: solving the
        // blocks one by one with the same per-block function and folding in
        // block order reproduces `schedule_forest_with` bit for bit.
        for seed in [2, 4, 8] {
            let inst = forest_instance(24, 4, seed, "mixed");
            let options = ChainsOptions::default();
            let parallel = schedule_forest_with(&inst, &options).unwrap();

            let decomposition = ChainDecomposition::decompose(inst.precedence()).unwrap();
            let sigma = options
                .sigma
                .unwrap_or_else(|| default_sigma(inst.num_jobs()));
            let block_options = ChainsOptions {
                replicate: false,
                ..options.clone()
            };
            let mut combined = ObliviousSchedule::new(inst.num_machines());
            let mut pivots = 0usize;
            let spent = AtomicUsize::new(0);
            for (chain_set, mapping) in decomposition.block_chain_sets() {
                let solved =
                    solve_block(&inst, &chain_set, &mapping, &block_options, sigma, &spent)
                        .unwrap();
                combined = combined.concat(&solved.replicated);
                pivots += solved.stats.lp_pivots;
            }
            let serial = if options.replicate {
                replicate_with_tail(&inst, &combined, 1)
            } else {
                combined
            };
            assert_eq!(parallel.schedule, serial, "seed {seed}");
            assert_eq!(parallel.lp_pivots, pivots, "seed {seed}");
        }
    }

    #[test]
    fn shared_pivot_budget_trips_across_blocks() {
        use crate::lp_relaxation::LpBudget;
        let inst = forest_instance(24, 4, 2, "mixed");
        let unbudgeted = schedule_forest(&inst).unwrap();
        assert!(unbudgeted.lp_pivots > 1, "needs a real LP workload");

        // One pivot for the whole forest: some block must trip the shared
        // budget, and the error reports at least that one pivot.
        let starved = ChainsOptions {
            lp: LpBudget {
                max_pivots: Some(1),
                ..LpBudget::default()
            },
            ..ChainsOptions::default()
        };
        let err = schedule_forest_with(&inst, &starved).unwrap_err();
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

        // A budget covering the full pipeline changes nothing.
        let generous = ChainsOptions {
            lp: LpBudget {
                max_pivots: Some(unbudgeted.lp_pivots + 1),
                ..LpBudget::default()
            },
            ..ChainsOptions::default()
        };
        assert_eq!(schedule_forest_with(&inst, &generous).unwrap(), unbudgeted);
    }

    #[test]
    fn block_order_respects_precedence() {
        // Build a specific two-level out-tree and check that no machine works
        // on a child job before the parent's block segment in the schedule.
        let dag = suu_graph::Dag::from_edges(3, [(0, 1), (0, 2)]).unwrap();
        let inst = InstanceBuilder::new(3, 2)
            .uniform_probability(0.6)
            .precedence(dag)
            .build()
            .unwrap();
        let result = schedule_forest(&inst).unwrap();
        // Find the first step where job 1 or 2 is worked and the last step in
        // which job 0 accumulates its (replicated-block) mass; the children's
        // first step must come after job 0's block, except inside the final
        // serial tail which the executor's eligibility filter handles anyway.
        let tail_start = result.schedule.len() - inst.num_jobs();
        let first_child_step = (0..tail_start).find(|&t| {
            !result.schedule.step(t).machines_on(JobId(1)).is_empty()
                || !result.schedule.step(t).machines_on(JobId(2)).is_empty()
        });
        let last_parent_step = (0..tail_start)
            .rev()
            .find(|&t| !result.schedule.step(t).machines_on(JobId(0)).is_empty());
        if let (Some(child), Some(parent)) = (first_child_step, last_parent_step) {
            assert!(
                child > parent,
                "child work at step {child} precedes parent block ending at {parent}"
            );
        }
    }
}
