//! Experiment implementations (one module per experiment group).
//!
//! See the crate-level table for the mapping from experiment ids (E1–E14,
//! A1–A3, L1, S2) to modules.

pub mod ablations;
pub mod adaptive;
pub mod chains;
pub mod decomposition;
pub mod delay_congestion;
pub mod exact_small;
pub mod forests;
pub mod independent;
pub mod lp_rounding;
pub mod lp_scaling;
pub mod mass_accumulation;
pub mod mass_bounds;
pub mod msm_ratio;

use crate::report::Table;
use crate::RunConfig;

/// An experiment runner: takes the sweep configuration, returns the result
/// tables.
pub type ExperimentRunner = fn(&RunConfig) -> Vec<Table>;

/// Registry of every experiment: `(name, runner)` pairs in presentation
/// order. The `exp_*` binaries and `exp_all` both go through this table, so
/// each experiment's `BENCH_<name>.json` record is written under the same
/// name no matter which binary ran it.
#[must_use]
pub fn registry() -> Vec<(&'static str, ExperimentRunner)> {
    vec![
        ("mass_bounds", |c| vec![mass_bounds::run(c)]),
        ("mass_accumulation", |c| vec![mass_accumulation::run(c)]),
        ("msm_ratio", |c| vec![msm_ratio::run(c)]),
        ("independent", |c| vec![independent::run(c)]),
        ("lp_rounding", |c| vec![lp_rounding::run(c)]),
        ("lp_scaling", |c| vec![lp_scaling::run(c)]),
        ("chains", |c| vec![chains::run(c)]),
        ("forests", |c| vec![forests::run(c)]),
        ("chain_decomposition", |c| vec![decomposition::run(c)]),
        ("random_delay", |c| vec![delay_congestion::run(c)]),
        ("exact_small", |c| {
            vec![
                exact_small::run_figure1(c),
                exact_small::run_exact_ratios(c),
            ]
        }),
        ("ablations", |c| {
            vec![
                ablations::run_replication(c),
                ablations::run_delay_strategies(c),
                ablations::run_bucketing(c),
            ]
        }),
        ("adaptive", |c| vec![adaptive::run(c)]),
    ]
}
