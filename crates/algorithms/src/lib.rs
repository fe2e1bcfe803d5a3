//! The approximation algorithms of Lin & Rajaraman (SPAA 2007) for
//! multiprocessor scheduling under uncertainty.
//!
//! This crate implements every algorithm and construction in the paper:
//!
//! | Paper | Module | What it computes |
//! |---|---|---|
//! | Fig. 2, Thm 3.2 | [`msm`] | `MSM-ALG`, the greedy 1/3-approximation for the MaxSumMass sub-problem |
//! | Alg. 1, Lemma 3.4 | [`msm_ext`] | `MSM-E-ALG`, the length-`t` extension of MSM-ALG |
//! | Fig. 2, Thm 3.3 | [`suu_i`] | `SUU-I-ALG`, the adaptive `O(log n)`-approximation for independent jobs |
//! | Alg. 2, Thm 3.6 | [`suu_i_obl`] | `SUU-I-OBL`, the combinatorial `O(log² n)` oblivious schedule |
//! | §4.1 (LP1), (LP2) | [`lp_relaxation`] | the LP relaxations of AccuMass-C |
//! | Thm 4.1 | [`rounding`] | flow-based rounding of the fractional LP solution |
//! | Thm 4.1 (proof) | [`pseudo`] | construction of the per-chain pseudo-schedules |
//! | §4.1 (delay step) | [`delay`] | random-delay flattening of pseudo-schedules (Shmoys–Stein–Wein) |
//! | §4.1 (replication) | [`replicate`] | schedule replication and the serial tail Σ_{o,3} |
//! | §4.1 (reducing T^OPT) | [`rescale`] | compression of step counts to multiples of `L/(nm)` |
//! | Thm 4.4 | [`chains`] | the end-to-end algorithm for disjoint chains (SUU-C) |
//! | Thm 4.5 | [`independent_lp`] | the LP-based oblivious schedule for independent jobs |
//! | Thm 4.7, Thm 4.8 | [`forest`] | the block-by-block algorithm for trees and directed forests |
//!
//! All schedule-producing entry points return ordinary
//! [`ObliviousSchedule`](suu_core::ObliviousSchedule)s (plus diagnostics), so
//! they can be fed directly to the simulator in `suu-sim` or evaluated exactly
//! on small instances.

pub mod chains;
pub mod delay;
pub mod error;
pub mod forest;
pub mod independent_lp;
pub mod lp_relaxation;
pub mod msm;
pub mod msm_ext;
pub mod pseudo;
pub mod replicate;
pub mod rescale;
pub mod rounding;
pub mod suu_i;
pub mod suu_i_obl;

pub use chains::{schedule_chains, schedule_given_chains, ChainsSchedule};
pub use error::AlgorithmError;
pub use forest::{schedule_forest, ForestSchedule};
pub use independent_lp::schedule_independent_lp;
pub use lp_relaxation::{LpBudget, LpWarmInfo};
pub use msm::{exact_max_sum_mass, msm_alg};
pub use msm_ext::{msm_e_alg, MsmExtSolution};
pub use suu_i::SuuIAdaptivePolicy;
pub use suu_i_obl::{suu_i_oblivious, suu_i_oblivious_with, SuuIOblLimits, SuuIOblivious};
