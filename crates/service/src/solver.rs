//! The unified [`Solver`] API and the structure-dispatching registry.
//!
//! Every schedule-producing algorithm in the workspace takes a
//! [`SuuInstance`] and returns an [`ObliviousSchedule`] plus diagnostics, but
//! each behind its own entry point with its own precondition (independent
//! jobs, disjoint chains, forests). The service needs one uniform interface:
//! a [`Solver`] declares which instances it [`supports`](Solver::supports)
//! and the [`SolverRegistry`] dispatches each request to the first solver in
//! priority order that supports it — the paper's strongest algorithm for the
//! instance's structural class:
//!
//! | structure | solver | paper |
//! |---|---|---|
//! | independent jobs | `suu-i-obl` | Alg. 2, Thm 3.6 |
//! | disjoint chains | `suu-c` | Thm 4.4 |
//! | trees / forests | `suu-forest` | Thms 4.7, 4.8 |
//! | general DAG | `serial-baseline` | (fallback) |

use suu_algorithms::chains::ChainsOptions;
use suu_algorithms::forest::schedule_forest_with;
use suu_algorithms::suu_i_obl::{suu_i_oblivious_with, SuuIOblLimits};
use suu_algorithms::{schedule_given_chains, AlgorithmError, LpBudget};
use suu_core::{Assignment, ObliviousSchedule, SuuInstance};
use suu_graph::{ChainSet, ForestKind};
use suu_lp::WarmStart;

/// The uniform result of one solve: the executable schedule plus the
/// diagnostics every algorithm can report.
#[derive(Debug, Clone)]
pub struct SolveOutput {
    /// The oblivious schedule (execute cyclically).
    pub schedule: ObliviousSchedule,
    /// The LP optimum backing the schedule, for the LP-based algorithms.
    pub lp_value: Option<f64>,
    /// Simplex pivots spent in the LP engine, for the LP-based algorithms
    /// (summed over blocks for the forest pipeline).
    pub lp_pivots: Option<usize>,
    /// Wall-clock microseconds spent building and solving the LPs, for the
    /// LP-based algorithms (summed over blocks for the forest pipeline).
    pub lp_micros: Option<u64>,
    /// The LP's final basis and its LU factors, when the solve ended at a
    /// reusable (optimal, artificial-free) basis. The service's warm-start
    /// index keeps it, keyed by structural digest, as the donor for a later
    /// solve of a structurally identical instance.
    pub donor: Option<WarmStart>,
    /// Whether this solve actually started from a donor basis (warm). Cold
    /// solves and solvers without warm support report `false`.
    pub lp_warm: bool,
}

impl SolveOutput {
    /// A diagnostics-free output (the combinatorial and baseline solvers).
    fn plain(schedule: ObliviousSchedule) -> Self {
        Self {
            schedule,
            lp_value: None,
            lp_pivots: None,
            lp_micros: None,
            donor: None,
            lp_warm: false,
        }
    }
}

/// A schedule-producing algorithm behind the uniform service interface.
pub trait Solver: Send + Sync {
    /// Stable identifier used in the wire protocol and metrics.
    fn name(&self) -> &'static str;

    /// Whether this solver's precondition holds for `instance`.
    fn supports(&self, instance: &SuuInstance) -> bool;

    /// Computes a schedule under the caller's resource limits ([`LpBudget`]:
    /// pivot budget and wall-clock deadline — `LpBudget::default()` means
    /// unbounded, the historical behaviour). A budget that is not exhausted
    /// never changes the result; an exhausted one surfaces as
    /// [`AlgorithmError::BudgetExhausted`].
    ///
    /// `warm` is an optional donor (basis and, when available, LU factors)
    /// from a previous solve of a structurally identical instance; `None`
    /// solves cold. Solvers without warm-start support ignore it — warm
    /// starting is an optimisation, never a behavioural contract, so a
    /// solver must produce the same schedule warm as cold (the LP warm path
    /// re-solves to the same optimum and falls back to a cold solve when the
    /// donor does not fit).
    ///
    /// # Errors
    ///
    /// Propagates the underlying algorithm's error (e.g. an infeasible LP,
    /// an exhausted budget, or an unsupported structure when called without
    /// a `supports` check).
    fn solve(
        &self,
        instance: &SuuInstance,
        limits: &LpBudget,
        warm: Option<WarmStart>,
    ) -> Result<SolveOutput, AlgorithmError>;
}

/// `SUU-I-OBL` (Alg. 2, Theorem 3.6): the combinatorial oblivious schedule
/// for independent jobs.
#[derive(Debug, Default)]
pub struct SuuIOblSolver;

impl Solver for SuuIOblSolver {
    fn name(&self) -> &'static str {
        "suu-i-obl"
    }

    fn supports(&self, instance: &SuuInstance) -> bool {
        instance.is_independent()
    }

    fn solve(
        &self,
        instance: &SuuInstance,
        limits: &LpBudget,
        _warm: Option<WarmStart>,
    ) -> Result<SolveOutput, AlgorithmError> {
        // Combinatorial pipeline: no LP runs, so only the deadline applies.
        let out = suu_i_oblivious_with(
            instance,
            &SuuIOblLimits {
                deadline: limits.deadline,
            },
        )?;
        Ok(SolveOutput::plain(out.schedule))
    }
}

/// `SUU-C` (Theorem 4.4): the LP-based pipeline for disjoint chains. The
/// only registered solver with warm-start support: its single (LP1) solve
/// hands back its final basis as a donor, and re-solves from a donor via
/// the revised engine's primal/dual warm paths.
#[derive(Debug, Default)]
pub struct ChainsSolver;

impl Solver for ChainsSolver {
    fn name(&self) -> &'static str {
        "suu-c"
    }

    fn supports(&self, instance: &SuuInstance) -> bool {
        matches!(
            instance.forest_kind(),
            ForestKind::Independent | ForestKind::DisjointChains
        )
    }

    fn solve(
        &self,
        instance: &SuuInstance,
        limits: &LpBudget,
        warm: Option<WarmStart>,
    ) -> Result<SolveOutput, AlgorithmError> {
        let chains = ChainSet::from_dag(instance.precedence()).ok_or(AlgorithmError::NotChains)?;
        let options = ChainsOptions {
            lp: *limits,
            ..ChainsOptions::default()
        };
        let (out, info) = schedule_given_chains(instance, &chains, &options, warm)?;
        Ok(SolveOutput {
            schedule: out.schedule,
            lp_value: Some(out.lp_value),
            lp_pivots: Some(out.lp_pivots),
            lp_micros: Some(out.lp_micros.0),
            donor: info.donor,
            lp_warm: info.warm,
        })
    }
}

/// The block-by-block algorithm for trees and directed forests
/// (Theorems 4.7 and 4.8).
#[derive(Debug, Default)]
pub struct ForestSolver;

impl Solver for ForestSolver {
    fn name(&self) -> &'static str {
        "suu-forest"
    }

    fn supports(&self, instance: &SuuInstance) -> bool {
        instance.forest_kind() != ForestKind::GeneralDag
    }

    fn solve(
        &self,
        instance: &SuuInstance,
        limits: &LpBudget,
        _warm: Option<WarmStart>,
    ) -> Result<SolveOutput, AlgorithmError> {
        let options = ChainsOptions {
            lp: *limits,
            ..ChainsOptions::default()
        };
        let out = schedule_forest_with(instance, &options)?;
        Ok(SolveOutput {
            lp_pivots: Some(out.lp_pivots),
            lp_micros: Some(out.lp_micros.0),
            ..SolveOutput::plain(out.schedule)
        })
    }
}

/// Fallback for general DAGs, which the paper's algorithms do not cover: one
/// step per job in topological order with every capable machine assigned to
/// it. Executed cyclically, every job keeps receiving machine-steps, so the
/// expected makespan is finite (no approximation guarantee).
#[derive(Debug, Default)]
pub struct SerialBaselineSolver;

impl Solver for SerialBaselineSolver {
    fn name(&self) -> &'static str {
        "serial-baseline"
    }

    fn supports(&self, _instance: &SuuInstance) -> bool {
        true
    }

    fn solve(
        &self,
        instance: &SuuInstance,
        limits: &LpBudget,
        _warm: Option<WarmStart>,
    ) -> Result<SolveOutput, AlgorithmError> {
        // One pass over the precedence order — cheap enough that only an
        // already-expired deadline is worth honouring (this solver doubles
        // as the degraded-fallback target for budget-exhausted solves, which
        // strip the deadline before calling it).
        if limits.expired() {
            return Err(AlgorithmError::BudgetExhausted {
                pivots: 0,
                wall_clock: true,
            });
        }
        let order = instance
            .precedence()
            .topological_order()
            .expect("validated instances have acyclic precedence");
        let mut schedule = ObliviousSchedule::new(instance.num_machines());
        for job in order {
            let job = suu_core::JobId(job);
            let mut step = Assignment::idle(instance.num_machines());
            for (machine, _) in instance.positive_probs(job) {
                step.assign(machine, job);
            }
            schedule.push_step(step);
        }
        Ok(SolveOutput::plain(schedule))
    }
}

/// Priority-ordered collection of solvers with auto-dispatch on instance
/// structure.
pub struct SolverRegistry {
    solvers: Vec<Box<dyn Solver>>,
}

impl SolverRegistry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self {
            solvers: Vec::new(),
        }
    }

    /// The default registry: every algorithm from the paper in
    /// strongest-first priority order, with the serial baseline as the
    /// catch-all for general DAGs.
    #[must_use]
    pub fn with_paper_algorithms() -> Self {
        let mut registry = Self::new();
        registry.register(Box::new(SuuIOblSolver));
        registry.register(Box::new(ChainsSolver));
        registry.register(Box::new(ForestSolver));
        registry.register(Box::new(SerialBaselineSolver));
        registry
    }

    /// Appends a solver at the lowest priority.
    pub fn register(&mut self, solver: Box<dyn Solver>) {
        self.solvers.push(solver);
    }

    /// Registered solver names in priority order.
    #[must_use]
    pub fn names(&self) -> Vec<&'static str> {
        self.solvers.iter().map(|s| s.name()).collect()
    }

    /// Looks a solver up by name.
    #[must_use]
    pub fn by_name(&self, name: &str) -> Option<&dyn Solver> {
        self.solvers
            .iter()
            .find(|s| s.name() == name)
            .map(AsRef::as_ref)
    }

    /// The highest-priority solver supporting `instance`, or `None` when the
    /// registry has no catch-all.
    #[must_use]
    pub fn dispatch(&self, instance: &SuuInstance) -> Option<&dyn Solver> {
        self.solvers
            .iter()
            .find(|s| s.supports(instance))
            .map(AsRef::as_ref)
    }
}

impl Default for SolverRegistry {
    fn default() -> Self {
        Self::with_paper_algorithms()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use suu_core::{InstanceBuilder, JobId};
    use suu_graph::Dag;
    use suu_workloads::uniform_matrix;

    fn independent(n: usize, m: usize) -> SuuInstance {
        InstanceBuilder::new(n, m)
            .probability_matrix(uniform_matrix(n, m, 0.3, 0.9, 7))
            .build()
            .unwrap()
    }

    #[test]
    fn registry_dispatches_on_structure() {
        let registry = SolverRegistry::with_paper_algorithms();

        let ind = independent(4, 2);
        assert_eq!(registry.dispatch(&ind).unwrap().name(), "suu-i-obl");

        let chains = InstanceBuilder::new(4, 2)
            .probability_matrix(uniform_matrix(4, 2, 0.3, 0.9, 8))
            .chains(&[vec![0, 1], vec![2, 3]])
            .build()
            .unwrap();
        assert_eq!(registry.dispatch(&chains).unwrap().name(), "suu-c");

        // An out-tree: 0 -> 1, 0 -> 2 is a forest but not disjoint chains.
        let forest = InstanceBuilder::new(3, 2)
            .probability_matrix(uniform_matrix(3, 2, 0.3, 0.9, 9))
            .precedence(Dag::from_edges(3, [(0, 1), (0, 2)]).unwrap())
            .build()
            .unwrap();
        assert_eq!(registry.dispatch(&forest).unwrap().name(), "suu-forest");

        // A diamond 0 -> {1, 2} -> 3 is a general DAG.
        let dag = InstanceBuilder::new(4, 2)
            .probability_matrix(uniform_matrix(4, 2, 0.3, 0.9, 10))
            .precedence(Dag::from_edges(4, [(0, 1), (0, 2), (1, 3), (2, 3)]).unwrap())
            .build()
            .unwrap();
        assert_eq!(registry.dispatch(&dag).unwrap().name(), "serial-baseline");
    }

    #[test]
    fn every_dispatched_solver_produces_a_usable_schedule() {
        let registry = SolverRegistry::with_paper_algorithms();
        let instances = vec![
            independent(4, 2),
            InstanceBuilder::new(4, 2)
                .probability_matrix(uniform_matrix(4, 2, 0.3, 0.9, 11))
                .chains(&[vec![0, 1, 2, 3]])
                .build()
                .unwrap(),
            InstanceBuilder::new(4, 2)
                .probability_matrix(uniform_matrix(4, 2, 0.3, 0.9, 12))
                .precedence(Dag::from_edges(4, [(0, 1), (0, 2), (1, 3), (2, 3)]).unwrap())
                .build()
                .unwrap(),
        ];
        for inst in &instances {
            let solver = registry.dispatch(inst).unwrap();
            let out = solver.solve(inst, &LpBudget::default(), None).unwrap();
            assert!(!out.schedule.is_empty());
            assert_eq!(out.schedule.num_machines(), inst.num_machines());
            for step in out.schedule.steps() {
                for (_, job) in step.busy_pairs() {
                    assert!(job.0 < inst.num_jobs());
                }
            }
        }
    }

    #[test]
    fn by_name_finds_registered_solvers() {
        let registry = SolverRegistry::with_paper_algorithms();
        assert!(registry.by_name("suu-c").is_some());
        assert!(registry.by_name("nope").is_none());
        assert_eq!(
            registry.names(),
            vec!["suu-i-obl", "suu-c", "suu-forest", "serial-baseline"]
        );
    }

    #[test]
    fn budget_and_deadline_limits_flow_through_the_trait() {
        let registry = SolverRegistry::with_paper_algorithms();
        let chains = InstanceBuilder::new(6, 3)
            .probability_matrix(uniform_matrix(6, 3, 0.3, 0.9, 13))
            .chains(&[vec![0, 1, 2], vec![3, 4, 5]])
            .build()
            .unwrap();
        let solver = registry.dispatch(&chains).unwrap();
        let err = solver
            .solve(
                &chains,
                &LpBudget {
                    max_pivots: Some(1),
                    ..LpBudget::default()
                },
                None,
            )
            .unwrap_err();
        assert!(matches!(err, AlgorithmError::BudgetExhausted { .. }));

        // An already-expired deadline stops even the LP-free solvers.
        let expired = LpBudget {
            deadline: Some(std::time::Instant::now()),
            ..LpBudget::default()
        };
        let ind = independent(4, 2);
        let err = SuuIOblSolver.solve(&ind, &expired, None).unwrap_err();
        assert!(matches!(err, AlgorithmError::BudgetExhausted { .. }));
        let err = SerialBaselineSolver
            .solve(&ind, &expired, None)
            .unwrap_err();
        assert!(matches!(err, AlgorithmError::BudgetExhausted { .. }));
    }

    #[test]
    fn chains_solver_warm_start_matches_cold_and_reports_warm() {
        let chains = InstanceBuilder::new(6, 3)
            .probability_matrix(uniform_matrix(6, 3, 0.3, 0.9, 21))
            .chains(&[vec![0, 1, 2], vec![3, 4, 5]])
            .build()
            .unwrap();
        // The default limits capture and reuse bases even on this
        // deliberately small instance.
        let limits = LpBudget::default();
        let mut cold = ChainsSolver.solve(&chains, &limits, None).unwrap();
        assert!(!cold.lp_warm, "no donor basis means a cold solve");
        let donor = cold.donor.take().expect("revised solve captures a basis");
        assert!(donor.factors.is_some(), "revised solve captures LU factors");
        let basis = donor.basis.clone();

        let warm = ChainsSolver.solve(&chains, &limits, Some(donor)).unwrap();
        assert!(warm.lp_warm, "donor basis must drive the re-solve");
        assert_eq!(warm.schedule, cold.schedule, "warm must match cold");
        assert!((warm.lp_value.unwrap() - cold.lp_value.unwrap()).abs() < 1e-12);
        assert!(
            warm.lp_pivots.unwrap() <= cold.lp_pivots.unwrap(),
            "restarting from the optimal basis must not pivot more"
        );

        // Solvers without warm support ignore the donor and keep their cold
        // behaviour.
        let baseline = SerialBaselineSolver
            .solve(
                &chains,
                &LpBudget::default(),
                Some(WarmStart {
                    basis,
                    factors: None,
                }),
            )
            .unwrap();
        assert!(!baseline.lp_warm);
        assert!(baseline.donor.is_none());
    }

    #[test]
    fn serial_baseline_covers_every_job() {
        let inst = independent(5, 3);
        let out = SerialBaselineSolver
            .solve(&inst, &LpBudget::default(), None)
            .unwrap();
        assert_eq!(out.schedule.len(), 5);
        for j in inst.jobs() {
            assert!(out
                .schedule
                .steps()
                .iter()
                .any(|s| !s.machines_on(JobId(j.0)).is_empty()));
        }
    }
}
