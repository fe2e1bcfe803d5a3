//! In-process replay of a workload's own generated inputs through the
//! layers' public functions, each call timed from outside. This is how the
//! benchmark splits the server's opaque `solve` stage into layers without
//! any tracing inside the program.

use std::collections::BTreeMap;
use std::time::Instant;

use suu_algorithms::chains::{schedule_chains_with, ChainsOptions};
use suu_algorithms::delay::flatten_with_random_delays;
use suu_algorithms::forest::schedule_forest_with;
use suu_algorithms::lp_relaxation::{build_relaxation, solve_lp1_with};
use suu_algorithms::pseudo::build_chain_pseudo_schedules;
use suu_algorithms::replicate::{default_sigma, replicate_with_tail};
use suu_algorithms::rounding::round_solution;
use suu_algorithms::suu_i_obl::suu_i_oblivious;
use suu_algorithms::LpBudget;
use suu_core::{InstanceDelta, ObliviousSchedule, SuuInstance};
use suu_graph::{ChainDecomposition, ChainSet, ForestKind};
use suu_lp::engine::{tableau_cells, DENSE_CELL_THRESHOLD};
use suu_lp::{solve, solve_revised_with_basis, solve_warm, Engine, LpProblem, WarmStart};
use suu_service::{
    drive_session, CachedSolve, DriveConfig, Request, SchedulerService, ServiceConfig,
};

/// Running means of the replayed layer timings and counts.
#[derive(Default)]
pub struct Replay {
    sums: BTreeMap<&'static str, (f64, u64)>,
    /// Σ(server solve_us − replayed solve path) and Σ server solve_us over
    /// the replayed fresh solves, with their count.
    pub unattributed: (f64, f64, u64),
    lp_solve_us: f64,
    lp_pivots: u64,
    lp_dense: u64,
    lp_count: u64,
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = std::hint::black_box(f());
    (out, start.elapsed().as_secs_f64() * 1e6)
}

impl Replay {
    fn add(&mut self, name: &'static str, value: f64) {
        let slot = self.sums.entry(name).or_default();
        slot.0 += value;
        slot.1 += 1;
    }

    /// Mean of a replayed quantity and its sample count (0, 0 when the
    /// workload never reached that layer).
    pub fn mean(&self, name: &str) -> (f64, u64) {
        match self.sums.get(name) {
            Some(&(sum, n)) if n > 0 => (sum / n as f64, n),
            _ => (0.0, 0),
        }
    }

    /// Microseconds per simplex pivot over every replayed cold LP solve.
    pub fn us_per_pivot(&self) -> (f64, u64) {
        if self.lp_pivots == 0 {
            return (0.0, 0);
        }
        (self.lp_solve_us / self.lp_pivots as f64, self.lp_count)
    }

    /// Share of replayed cold LP solves the `Auto` engine routes to dense.
    pub fn dense_share(&self) -> (f64, u64) {
        if self.lp_count == 0 {
            return (0.0, 0);
        }
        (self.lp_dense as f64 / self.lp_count as f64, self.lp_count)
    }

    fn lp_stats(&mut self, lp: &LpProblem) {
        self.add("lp.rows", lp.num_constraints() as f64);
        let nnz: usize = lp.constraints().iter().map(|c| c.terms.len()).sum();
        self.add("lp.nnz", nnz as f64);
    }

    fn attribute(&mut self, server_us: Option<u64>, path_us: f64) {
        if let Some(server_us) = server_us {
            self.unattributed.0 += server_us as f64 - path_us;
            self.unattributed.1 += server_us as f64;
            self.unattributed.2 += 1;
        }
    }

    /// Replays one fresh solve of request `line` (instance `instance`, LP
    /// engine `engine`) stage by stage. `server_solve_us` is the `solve`
    /// stage the server traced for the same request, if any: the part the
    /// replayed stages do not cover is booked as unattributed.
    pub fn solve_path(
        &mut self,
        instance: &SuuInstance,
        line: &str,
        engine: Engine,
        server_solve_us: Option<u64>,
    ) {
        let (request, us) = timed(|| serde_json::from_str::<Request>(line));
        self.add("protocol.parse_us", us);
        let mut path = 0.0;
        if let Ok(request) = request {
            let (_, us) = timed(|| request.to_instance());
            self.add("core.validate_us", us);
            path += us;
        }
        path += self.solve_stages(instance, engine, None);
        self.attribute(server_solve_us, path);
    }

    /// Replays a `drift_warm` delta: apply the edit to the base, then solve
    /// the child warm from the base's final basis, as the server does.
    pub fn delta_path(
        &mut self,
        base: &SuuInstance,
        donor: &WarmStart,
        delta: &InstanceDelta,
        server_solve_us: Option<u64>,
    ) {
        let (child, us) = timed(|| base.apply_delta(delta));
        self.add("core.apply_delta_us", us);
        if let Ok(child) = child {
            let path = us + self.solve_stages(&child, Engine::Revised, Some(donor));
            self.attribute(server_solve_us, path);
        }
    }

    /// Digests, the dispatched solver's stages, and the response render.
    /// Returns the time of the stages inside the server's `solve` stage.
    fn solve_stages(
        &mut self,
        instance: &SuuInstance,
        engine: Engine,
        donor: Option<&WarmStart>,
    ) -> f64 {
        let (_, digest_us) = timed(|| (instance.canonical_digest(), instance.structural_digest()));
        self.add("core.digest_us", digest_us);
        let options = ChainsOptions {
            lp: LpBudget {
                engine,
                ..LpBudget::default()
            },
            ..ChainsOptions::default()
        };
        let (solved, stages_us) = match instance.forest_kind() {
            ForestKind::Independent => {
                let (out, us) = timed(|| suu_i_oblivious(instance));
                self.add("algorithms.msm_us", us);
                (out.ok().map(|o| (o.schedule, None)), us)
            }
            ForestKind::DisjointChains => self.chains_stages(instance, &options, donor),
            _ => {
                let (_, decompose_us) =
                    timed(|| ChainDecomposition::decompose(instance.precedence()));
                self.add("graph.decompose_us", decompose_us);
                let (out, us) = timed(|| schedule_forest_with(instance, &options));
                self.add("algorithms.forest_us", us);
                (out.ok().map(|o| (o.schedule, None)), us)
            }
        };
        if let Some((schedule, lp_value)) = solved {
            let cached = CachedSolve::new(String::new(), schedule, lp_value, None, None, false);
            let (_, us) = timed(|| cached.rendered_body().len());
            self.add("protocol.render_us", us);
        }
        digest_us + stages_us
    }

    /// The SUU-C pipeline stage by stage: chain partition, (LP1) build and
    /// solve (cold, or warm from `donor`), rounding, pseudo-schedules,
    /// random delays, replication; plus the whole pipeline in one call.
    fn chains_stages(
        &mut self,
        instance: &SuuInstance,
        options: &ChainsOptions,
        donor: Option<&WarmStart>,
    ) -> (Option<(ObliviousSchedule, Option<f64>)>, f64) {
        let (chains, partition_us) = timed(|| ChainSet::from_dag(instance.precedence()));
        self.add("graph.chain_partition_us", partition_us);
        let Some(chains) = chains else {
            return (None, partition_us);
        };
        let ((lp, ..), build_us) = timed(|| build_relaxation(instance, Some(&chains)));
        self.add("lp.build_us", build_us);
        self.lp_stats(&lp);
        let simplex = options.lp.simplex_options();
        let solve_us = match donor {
            Some(donor) => {
                let warm = WarmStart {
                    basis: donor.basis.clone(),
                    factors: donor.factors.clone(),
                };
                let (outcome, us) = timed(|| solve_warm(&lp, warm, &simplex));
                self.add("lp.warm_solve_us", us);
                if let Ok(outcome) = outcome {
                    self.add("lp.warm_pivots", outcome.solution.iterations as f64);
                }
                us
            }
            None => {
                let (solution, us) = timed(|| solve(&lp, &simplex));
                self.add("lp.solve_us", us);
                if let Ok(solution) = solution {
                    let phase1 = solution.phase1_iterations;
                    self.add("lp.phase1_pivots", phase1 as f64);
                    self.add("lp.phase2_pivots", (solution.iterations - phase1) as f64);
                    self.lp_solve_us += us;
                    self.lp_pivots += solution.iterations as u64;
                }
                self.lp_count += 1;
                if options.lp.engine == Engine::Auto && tableau_cells(&lp) <= DENSE_CELL_THRESHOLD {
                    self.lp_dense += 1;
                }
                us
            }
        };
        let mut path = partition_us + build_us + solve_us;
        let Ok(frac) = solve_lp1_with(instance, &chains, &options.lp) else {
            return (None, path);
        };
        let (rounded, round_us) = timed(|| round_solution(instance, &frac));
        self.add("algorithms.round_us", round_us);
        path += round_us;
        let Ok(rounded) = rounded else {
            return (None, path);
        };
        let (per_chain, pseudo_us) =
            timed(|| build_chain_pseudo_schedules(instance, &chains, &rounded));
        self.add("algorithms.pseudo_us", pseudo_us);
        let (outcome, delay_us) = timed(|| {
            flatten_with_random_delays(
                &per_chain,
                instance.num_machines(),
                options.seed,
                options.delay_tries,
            )
        });
        self.add("algorithms.delay_us", delay_us);
        let sigma = default_sigma(instance.num_jobs());
        let (schedule, replicate_us) =
            timed(|| replicate_with_tail(instance, &outcome.schedule, sigma));
        self.add("algorithms.replicate_us", replicate_us);
        path += pseudo_us + delay_us + replicate_us;
        let (_, whole_us) = timed(|| schedule_chains_with(instance, options));
        self.add("algorithms.chains_us", whole_us);
        (Some((schedule, Some(frac.t))), path)
    }

    /// Mean wall time of the serial in-process request path
    /// (`SchedulerService::handle_line`) over `lines`, after `priming`.
    pub fn handle_lines(&mut self, priming: &[String], lines: &[String]) {
        let service = SchedulerService::new(ServiceConfig::default());
        for line in priming {
            let _ = service.handle_line(line);
        }
        for line in lines {
            let (_, us) = timed(|| service.handle_line(line));
            self.add("service.handle_us", us);
        }
    }

    /// `service.handle_us` over every verb of adaptive sessions driven in
    /// process.
    pub fn handle_sessions(&mut self, sessions: &[(SuuInstance, DriveConfig)]) {
        let service = SchedulerService::new(ServiceConfig::default());
        for (instance, cfg) in sessions {
            let mut calls = Vec::new();
            let _ = drive_session(instance, cfg, |line| {
                let (reply, us) = timed(|| service.handle_line(line));
                calls.push(us);
                Some(reply)
            });
            for us in calls {
                self.add("service.handle_us", us);
            }
        }
    }
}

/// The final basis (and LU factors) of a cold revised solve of `base`:
/// the donor every delta of its tenant warm-starts from.
pub fn donor_basis(base: &SuuInstance) -> Option<WarmStart> {
    let chains = ChainSet::from_dag(base.precedence())?;
    let (lp, ..) = build_relaxation(base, Some(&chains));
    let budget = LpBudget {
        engine: Engine::Revised,
        ..LpBudget::default()
    };
    solve_revised_with_basis(&lp, &budget.simplex_options())
        .ok()?
        .into_warm_start()
}
