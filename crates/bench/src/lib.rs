//! Experiment harness reproducing the evaluation of the SUU paper.
//!
//! The paper proves approximation bounds rather than reporting measured
//! tables, so the harness measures, for every theorem, the quantity the
//! theorem bounds:
//!
//! | Experiment | Paper claim exercised | Module |
//! |---|---|---|
//! | E1 | Proposition 2.1 (mass vs success probability) | [`experiments::mass_bounds`] |
//! | E2 | Theorem 2.2 (mass accumulation within 2T) | [`experiments::mass_accumulation`] |
//! | E3 | Theorem 3.2 (MSM-ALG is 1/3-approximate) | [`experiments::msm_ratio`] |
//! | E4–E6 | Theorems 3.3, 3.6, 4.5 (independent jobs) | [`experiments::independent`] |
//! | E7 | Theorem 4.1 / Lemma 4.2 (LP value and rounding blow-up) | [`experiments::lp_rounding`] |
//! | E8 | Theorem 4.4 (disjoint chains) | [`experiments::chains`] |
//! | E9–E10 | Theorems 4.7, 4.8 (trees and forests) | [`experiments::forests`] |
//! | E11 | Lemma 4.6 (chain-decomposition width) | [`experiments::decomposition`] |
//! | E12 | §4.1 random-delay congestion | [`experiments::delay_congestion`] |
//! | E13–E14 | Figure 1 / Malewicz exact DP | [`experiments::exact_small`] |
//! | A1–A3 | ablations (replication σ, delay strategy, bucketing) | [`experiments::ablations`] |
//! | L1 | LP engine scaling (dense tableau vs revised simplex) | [`experiments::lp_scaling`] |
//! | S2 | adaptive sessions vs oblivious execution | [`experiments::adaptive`] |
//!
//! Every experiment function takes a [`RunConfig`] (quick vs full sweeps) and
//! returns a [`report::Table`] that the `exp_*` binaries print; the Criterion
//! benches under `benches/` measure the running time of the algorithms
//! themselves.

pub mod experiments;
pub mod report;

/// Entry point for the single-experiment binaries: parses the CLI config,
/// looks `name` up in [`experiments::registry`], runs it, prints the tables
/// and records `BENCH_<name>.json`.
///
/// # Panics
///
/// Panics when `name` is not in the registry (a binary/registry mismatch is
/// a bug, not a runtime condition).
pub fn run_registered(name: &str) {
    let config = RunConfig::from_args();
    let registry = experiments::registry();
    let (_, build) = registry
        .iter()
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("unknown experiment `{name}`"));
    run_experiment_binary(name, &config, *build);
}

/// Shared body of the `exp_*` binaries: runs `build`, prints every result
/// table, and persists the machine-readable `BENCH_<name>.json` record
/// (wall-clock time included) via [`report::save_bench_record`].
pub fn run_experiment_binary(
    name: &str,
    config: &RunConfig,
    build: fn(&RunConfig) -> Vec<report::Table>,
) {
    let start = std::time::Instant::now();
    let tables = build(config);
    let elapsed = start.elapsed();
    for table in &tables {
        println!("{}", table.render());
    }
    let refs: Vec<&report::Table> = tables.iter().collect();
    report::save_bench_record(name, &refs, elapsed);
}

/// Global configuration for experiment sweeps.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// Use reduced sweep sizes and trial counts (CI-friendly).
    pub quick: bool,
    /// Base RNG seed.
    pub seed: u64,
}

impl Default for RunConfig {
    fn default() -> Self {
        Self {
            quick: false,
            seed: 0xE_5EED,
        }
    }
}

impl RunConfig {
    /// Parses the process's command line (`--quick`, `--seed N`). On an
    /// argument [`parse`](Self::parse) rejects, prints the error and the
    /// usage line to stderr and exits with status 2.
    #[must_use]
    pub fn from_args() -> Self {
        Self::parse(std::env::args().skip(1)).unwrap_or_else(|err| {
            eprintln!("error: {err}\nusage: exp_* [--quick] [--seed N]");
            std::process::exit(2);
        })
    }

    /// Parses command-line arguments, program name excluded.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first unknown argument, or a `--seed`
    /// whose value is missing or not a non-negative integer.
    pub fn parse<I, S>(args: I) -> Result<Self, String>
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let mut config = Self::default();
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            match arg.as_ref() {
                "--quick" => config.quick = true,
                "--seed" => {
                    let value = args.next().ok_or("`--seed` needs a value")?;
                    let value = value.as_ref();
                    config.seed = value
                        .parse()
                        .map_err(|_| format!("`--seed {value}`: not a non-negative integer"))?;
                }
                other => return Err(format!("unknown argument `{other}`")),
            }
        }
        Ok(config)
    }

    /// Number of Monte-Carlo trials to use.
    #[must_use]
    pub fn trials(&self) -> usize {
        if self.quick {
            60
        } else {
            400
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_full_run() {
        let c = RunConfig::default();
        assert!(!c.quick);
        assert_eq!(c.trials(), 400);
    }

    #[test]
    fn quick_config_reduces_trials() {
        let c = RunConfig {
            quick: true,
            ..RunConfig::default()
        };
        assert_eq!(c.trials(), 60);
    }

    #[test]
    fn parse_reads_quick_and_seed() {
        let c = RunConfig::parse(["--quick", "--seed", "7"]).unwrap();
        assert!(c.quick);
        assert_eq!(c.seed, 7);
        let c = RunConfig::parse(Vec::<String>::new()).unwrap();
        assert!(!c.quick);
        assert_eq!(c.seed, RunConfig::default().seed);
    }

    #[test]
    fn parse_rejects_unknown_flags_and_bad_seeds() {
        let err = |args: &[&str]| RunConfig::parse(args).unwrap_err();
        assert!(err(&["--quik"]).contains("--quik"));
        assert!(err(&["--quick", "-q"]).contains("-q"));
        assert!(err(&["--seed"]).contains("needs a value"));
        assert!(err(&["--seed", "x"]).contains("--seed x"));
        assert!(err(&["--seed", "-1"]).contains("--seed -1"));
    }
}
