//! `suu` — multiprocessor scheduling under uncertainty.
//!
//! A faithful, executable implementation of *Approximation Algorithms for
//! Multiprocessor Scheduling under Uncertainty* (Lin & Rajaraman, SPAA 2007):
//! the problem model, every algorithm in the paper, the substrates they rely
//! on (an LP solver, max-flow, chain decompositions), a stochastic execution
//! simulator, exact small-instance optima, workload generators and an
//! experiment harness.
//!
//! This crate is a facade that re-exports the workspace crates under one
//! roof; see the [`prelude`] for the names most programs need.
//!
//! # Quick example
//!
//! ```
//! use suu::prelude::*;
//!
//! // Six independent jobs on three unreliable machines.
//! let instance = InstanceBuilder::new(6, 3)
//!     .probability_matrix(uniform_matrix(6, 3, 0.2, 0.9, 42))
//!     .build()
//!     .unwrap();
//!
//! // The paper's adaptive O(log n)-approximation (Theorem 3.3)...
//! let simulator = Simulator::with_trials(200);
//! let adaptive = simulator.estimate(&instance, || SuuIAdaptivePolicy::new(instance.clone()));
//!
//! // ...and a certified lower bound on the optimum.
//! let lower = combined_lower_bound(&instance);
//! assert!(adaptive.mean() >= lower * 0.99);
//! ```

pub use suu_algorithms as algorithms;
pub use suu_baselines as baselines;
pub use suu_core as core;
pub use suu_flow as flow;
pub use suu_graph as graph;
pub use suu_lp as lp;
pub use suu_service as service;
pub use suu_sim as sim;
pub use suu_workloads as workloads;

/// The most commonly used types and functions, re-exported flat.
pub mod prelude {
    pub use suu_algorithms::chains::{
        schedule_chains, schedule_chains_with, ChainsOptions, ChainsSchedule,
    };
    pub use suu_algorithms::forest::{schedule_forest, schedule_forest_with, ForestSchedule};
    pub use suu_algorithms::independent_lp::{schedule_independent_lp, IndependentLpSchedule};
    pub use suu_algorithms::lp_relaxation::{solve_lp1, solve_lp2, FractionalSolution};
    pub use suu_algorithms::msm::{exact_max_sum_mass, msm_alg, sum_of_masses};
    pub use suu_algorithms::msm_ext::{msm_e_alg, MsmExtSolution};
    pub use suu_algorithms::rounding::{round_solution, RoundedSolution};
    pub use suu_algorithms::suu_i::SuuIAdaptivePolicy;
    pub use suu_algorithms::suu_i_obl::{suu_i_oblivious, SuuIOblivious};
    pub use suu_algorithms::AlgorithmError;
    pub use suu_baselines::heuristics::{
        GreedyRatePolicy, RandomAssignmentPolicy, RoundRobinPolicy,
    };
    pub use suu_baselines::lower_bounds::{combined_lower_bound, critical_path_bound};
    pub use suu_baselines::optimal::{optimal_expected_makespan, optimal_regimen, OptimalRegimen};
    pub use suu_core::{
        Assignment, InstanceBuilder, JobId, JobSet, MachineId, MultiAssignment, ObliviousSchedule,
        PseudoSchedule, SchedulingPolicy, SuuInstance,
    };
    pub use suu_graph::{ChainDecomposition, ChainSet, Dag, ForestKind};
    pub use suu_service::{
        spawn_tcp, Request, Response, SchedulerService, ServiceConfig, Solver, SolverRegistry,
        TcpServerConfig,
    };
    pub use suu_sim::{
        exact_expected_makespan_oblivious_cyclic, exact_expected_makespan_regimen, simulate_once,
        MakespanEstimate, SimulationOptions, Simulator,
    };
    pub use suu_workloads::{
        bottleneck_instance, bursty_multi_tenant_stream, figure1_instance, grid_computing_instance,
        project_management_instance, random_chains, random_directed_forest, random_in_forest,
        random_out_forest, uniform_matrix, BurstConfig, GridConfig, ProjectConfig,
    };
}
