//! The correctness gate, run outside the timed window: every response is
//! checked against the instance it answers without trusting the server.

use serde::{Deserialize, Value};
use suu_algorithms::lp_relaxation::{solve_lp1_with, LP_MASS_TARGET};
use suu_algorithms::LpBudget;
use suu_core::mass::mass_of_oblivious;
use suu_core::{ObliviousSchedule, SuuInstance};
use suu_graph::{ChainSet, ForestKind};
use suu_lp::Engine;
use suu_service::{execute_oblivious, DriveConfig, Response, TraceReport};
use suu_workloads::SessionScenario;

const TOL: f64 = 1e-9;

/// What a verified solve response contributes to the quality metrics.
pub struct Checked {
    pub schedule_len: usize,
    /// Realized makespan of one seeded execution of the schedule.
    pub realized: u64,
    pub lp_value: Option<f64>,
    pub trace: Option<TraceReport>,
}

/// The solver the service's structure dispatch must pick, and the mass its
/// schedules guarantee every job: 1/2 for the LP-based pipelines
/// (Thms 4.4, 4.7), 1/96 for the combinatorial SUU-I-OBL (Lemma 3.5).
fn expected_solver(instance: &SuuInstance) -> (&'static str, f64) {
    match instance.forest_kind() {
        ForestKind::Independent => ("suu-i-obl", suu_algorithms::suu_i_obl::MASS_TARGET),
        ForestKind::DisjointChains => ("suu-c", LP_MASS_TARGET),
        ForestKind::GeneralDag => ("serial-baseline", 0.0),
        _ => ("suu-forest", LP_MASS_TARGET),
    }
}

/// Machine count, job ids in range, and no machine on a dead machine or a
/// finished job.
fn check_shape(
    instance: &SuuInstance,
    schedule: &ObliviousSchedule,
    dead: &[bool],
    finished: &[bool],
) -> Result<(), String> {
    let (n, m) = (instance.num_jobs(), instance.num_machines());
    if schedule.num_machines() != m {
        return Err(format!(
            "schedule has {} machines, instance {m}",
            schedule.num_machines()
        ));
    }
    if schedule.is_empty() {
        return Err("empty schedule".to_string());
    }
    for (t, step) in schedule.steps().iter().enumerate() {
        if step.num_machines() != m {
            return Err(format!("step {t} has {} machines", step.num_machines()));
        }
        for (machine, job) in step.busy_pairs() {
            if job.0 >= n {
                return Err(format!("step {t} assigns unknown job {}", job.0));
            }
            if dead[machine.0] {
                return Err(format!("step {t} uses failed machine {}", machine.0));
            }
            if finished[job.0] {
                return Err(format!("step {t} schedules finished job {}", job.0));
            }
        }
    }
    Ok(())
}

/// Every unfinished job accumulates at least `target` mass over the
/// schedule.
fn check_mass(
    instance: &SuuInstance,
    schedule: &ObliviousSchedule,
    finished: &[bool],
    target: f64,
) -> Result<(), String> {
    let mass = mass_of_oblivious(instance, schedule);
    for j in instance.jobs().filter(|j| !finished[j.0]) {
        if mass.get(j) < target - TOL {
            return Err(format!("job {} has mass {} < {target}", j.0, mass.get(j)));
        }
    }
    Ok(())
}

/// Checks one solve response against its instance, then executes the
/// schedule once (seeded by `exec_seed`) for the realized makespan.
pub fn check_solve(instance: &SuuInstance, line: &str, exec_seed: u64) -> Result<Checked, String> {
    let response: Response =
        serde_json::from_str(line).map_err(|e| format!("unparseable response: {e}"))?;
    if !response.ok {
        return Err(format!(
            "error response {}: {}",
            response.error_kind.as_deref().unwrap_or("?"),
            response.error.as_deref().unwrap_or("")
        ));
    }
    let (expected, mass_target) = expected_solver(instance);
    let solver = response.solver.as_deref().unwrap_or("-");
    if solver != expected {
        return Err(format!("solver {solver}, dispatch should pick {expected}"));
    }
    let schedule = response
        .schedule
        .as_ref()
        .ok_or("response without schedule")?;
    let none = vec![false; instance.num_jobs().max(instance.num_machines())];
    check_shape(instance, schedule, &none, &none)?;
    if schedule.len() != response.schedule_len {
        return Err(format!(
            "schedule_len {} but {} steps",
            response.schedule_len,
            schedule.len()
        ));
    }
    check_mass(instance, schedule, &none, mass_target)?;
    if instance.forest_kind() == ForestKind::DisjointChains {
        let longest = ChainSet::from_dag(instance.precedence())
            .ok_or("chains instance without a chain partition")?
            .max_chain_len() as f64;
        let lp = response
            .lp_value
            .ok_or("chains response without lp_value")?;
        if lp < longest - TOL {
            return Err(format!("lp_value {lp} below the longest chain {longest}"));
        }
    }
    let realized = execute_oblivious(
        instance,
        schedule,
        &DriveConfig {
            seed: exec_seed,
            max_steps: 1_000_000,
            report_completions: false,
            failures: Vec::new(),
            drifts: Vec::new(),
        },
    )
    .ok_or("schedule execution did not finish")?;
    Ok(Checked {
        schedule_len: response.schedule_len,
        realized,
        lp_value: response.lp_value,
        trace: response.trace,
    })
}

/// Compares a served `lp_value` with a cold in-process (LP1) solve of the
/// same instance on the revised engine.
pub fn check_cold_lp(instance: &SuuInstance, served: Option<f64>) -> Result<(), String> {
    let served = served.ok_or("no lp_value to compare")?;
    let chains = ChainSet::from_dag(instance.precedence()).ok_or("not a chains instance")?;
    let budget = LpBudget {
        engine: Engine::Revised,
        ..LpBudget::default()
    };
    let cold = solve_lp1_with(instance, &chains, &budget)
        .map_err(|e| format!("cold in-process solve failed: {e}"))?
        .t;
    if (cold - served).abs() > TOL * cold.abs().max(1.0) {
        return Err(format!("lp_value {served} differs from cold solve {cold}"));
    }
    Ok(())
}

fn is_ok(value: &Value) -> bool {
    value.get("ok") == Some(&Value::Bool(true))
}

/// Replays one captured session (request line, reply) by reply: every
/// revision keeps failed machines idle, never schedules a reported job, and
/// gives every unfinished job mass ≥ 1/2 (sessions always solve with SUU-C).
/// Returns the schedule lengths seen.
pub fn check_session(
    scenario: &SessionScenario,
    exchanges: &[(String, String)],
) -> Result<Vec<usize>, String> {
    let instance = &scenario.instance;
    let mut finished = vec![false; instance.num_jobs()];
    let mut dead = vec![false; instance.num_machines()];
    let mut lengths = Vec::new();
    for (line, reply) in exchanges {
        let request = serde_json::parse(line).map_err(|e| format!("own request: {e}"))?;
        let reply_value = serde_json::parse(reply).map_err(|e| format!("bad reply: {e}"))?;
        if !is_ok(&reply_value) {
            return Err(format!("session verb failed: {reply}"));
        }
        if let Some(Value::Array(done)) = request.get("completed") {
            for job in done.iter().filter_map(Value::as_number) {
                finished[job as usize] = true;
            }
        }
        if let Some(machine) = request.get("failed_machine").and_then(Value::as_number) {
            dead[machine as usize] = true;
        }
        match request.get("verb").and_then(Value::as_str) {
            Some("open_session" | "session_event") => {}
            _ => continue,
        }
        match reply_value.get("schedule") {
            Some(raw) => {
                let schedule = ObliviousSchedule::from_value(raw)
                    .map_err(|e| format!("malformed revision schedule: {e}"))?;
                check_shape(instance, &schedule, &dead, &finished)?;
                check_mass(instance, &schedule, &finished, LP_MASS_TARGET)?;
                lengths.push(schedule.len());
            }
            None => {
                if reply_value.get("done") != Some(&Value::Bool(true)) {
                    return Err("revision without schedule for an unfinished session".into());
                }
                if let Some(j) = (0..finished.len()).find(|&j| !finished[j]) {
                    return Err(format!("session reported done with job {j} unfinished"));
                }
            }
        }
    }
    Ok(lengths)
}
