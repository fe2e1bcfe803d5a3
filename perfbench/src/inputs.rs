//! Seeded inputs of the four workloads. The server receives only these
//! generated request lines; the same seed always yields the same inputs.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use suu_core::{InstanceDelta, JobId, MachineId, SuuInstance};
use suu_graph::Dag;
use suu_service::{DriveConfig, EngineChoice, Request, SolveOptions};
use suu_workloads::{
    flash_crowd_sessions, random_chains, random_directed_forest, tenant_drift_stream,
    uniform_matrix, DriftConfig, SessionScenario,
};

/// Offered arrival rate of `hot_pipelined`, requests per second. Set well
/// below the capacity measured on a 2-core host (about 20k req/s with 64
/// requests in flight), so the open loop measures latency, not overload.
pub const HOT_RATE_RPS: f64 = 4000.0;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ColdSolve,
    DriftWarm,
    HotPipelined,
    Sessions,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::ColdSolve,
        Workload::DriftWarm,
        Workload::HotPipelined,
        Workload::Sessions,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdSolve => "cold_solve",
            Workload::DriftWarm => "drift_warm",
            Workload::HotPipelined => "hot_pipelined",
            Workload::Sessions => "sessions",
        }
    }

    /// How the load is offered, for the metadata line.
    pub fn mode(self) -> String {
        match self {
            Workload::HotPipelined => {
                format!("open loop, 1 connection (writer + reader thread), {HOT_RATE_RPS} req/s")
            }
            _ => "closed loop, 2 connections x 1 request in flight".to_string(),
        }
    }
}

/// SplitMix64 finaliser: decorrelates `(seed, k)` into an RNG seed so every
/// request is generated independently of the ones before it.
fn mix(seed: u64, k: u64) -> u64 {
    let mut z = seed ^ k.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn options(engine: Option<EngineChoice>, trace: bool) -> Option<SolveOptions> {
    (engine.is_some() || trace).then_some(SolveOptions {
        engine,
        trace,
        ..SolveOptions::default()
    })
}

fn render(request: &Request) -> String {
    serde_json::to_string(request).expect("requests serialise")
}

/// A full-payload request rendered without its id: `{"id":` + id + this
/// suffix is the canonical line the server's parse interning keys on.
fn id_free_suffix(instance: &SuuInstance, engine: Option<EngineChoice>, trace: bool) -> String {
    let mut request = Request::from_instance(0, instance);
    request.options = options(engine, trace);
    render(&request)["{\"id\":0".len()..].to_string()
}

fn with_id(k: usize, suffix: &str) -> String {
    format!("{{\"id\":{}{suffix}", k + 1)
}

/// A random chains, directed-forest or independent instance.
fn instance(n: usize, m: usize, kind: u32, seed: u64) -> SuuInstance {
    let probs = uniform_matrix(n, m, 0.2, 0.9, seed);
    let dag = match kind {
        0 => Dag::independent(n),
        1 => random_chains(n, (n / 2).max(1), seed ^ 0xC0A1),
        _ => random_directed_forest(n, (n / 3).max(1), seed ^ 0xF0_12),
    };
    SuuInstance::new(n, m, probs, dag).expect("generated instance is valid")
}

/// A source of closed-loop solve requests, indexed by request number.
pub trait ClosedSource: Sync {
    /// Request `k`: its wire line and the instance it describes.
    fn request(&self, k: usize, trace: bool) -> (String, SuuInstance);
    /// Whether request `k`'s `lp_value` is compared with a cold in-process
    /// solve of the same instance.
    fn lp_sample(&self, _k: usize) -> bool {
        false
    }
}

/// `cold_solve`: every request a distinct instance, 8×3 up to 96×12, about
/// 45% chains, 40% directed forests and 15% independent jobs.
pub struct ColdInputs {
    pub seed: u64,
}

impl ColdInputs {
    pub fn instance(&self, k: usize) -> SuuInstance {
        let mut rng = ChaCha8Rng::seed_from_u64(mix(self.seed, k as u64));
        let n = rng.gen_range(8..=96);
        let m = rng.gen_range(3..=12);
        let kind = match rng.gen_range(0..20u32) {
            0..=2 => 0,
            3..=11 => 1,
            _ => 2,
        };
        instance(n, m, kind, rng.gen())
    }
}

impl ClosedSource for ColdInputs {
    fn request(&self, k: usize, trace: bool) -> (String, SuuInstance) {
        let instance = self.instance(k);
        (
            with_id(k, &id_free_suffix(&instance, None, trace)),
            instance,
        )
    }
}

/// `drift_warm`: 64 long-lived chains tenants (72–96 jobs × 8–12
/// machines; enough of them that the size mix, and so the per-request
/// cost, barely varies with the seed) primed during set-up; then ~95%
/// one-cell `set_prob` deltas against a tenant's base and ~5% full
/// resubmissions of a base. Every request pins the revised engine, the
/// only one that keeps warm bases.
pub struct DriftInputs {
    seed: u64,
    pub tenants: Vec<SuuInstance>,
    digests: Vec<u64>,
    full: [Vec<String>; 2],
}

const DRIFT_TENANTS: usize = 64;
const DELTA_SHARE: f64 = 0.95;
/// One in this many delta responses has its `lp_value` checked against a
/// cold in-process solve.
const DRIFT_LP_SAMPLE_EVERY: usize = 64;

impl DriftInputs {
    pub fn new(seed: u64) -> Self {
        let (tenants, _) = tenant_drift_stream(&DriftConfig {
            num_tenants: DRIFT_TENANTS,
            requests: DRIFT_TENANTS,
            seed,
            ..DriftConfig::default()
        });
        let digests = tenants.iter().map(SuuInstance::canonical_digest).collect();
        let full = [false, true].map(|trace| {
            tenants
                .iter()
                .map(|t| id_free_suffix(t, Some(EngineChoice::Revised), trace))
                .collect()
        });
        Self {
            seed,
            tenants,
            digests,
            full,
        }
    }

    /// The full-payload lines that prime every tenant's base.
    pub fn priming_lines(&self) -> Vec<String> {
        self.full[0]
            .iter()
            .enumerate()
            .map(|(t, suffix)| with_id(t, suffix))
            .collect()
    }

    /// Request `k`'s tenant and, for a delta, the edit. Drift, not
    /// replacement: the probability moves by at most 7%, within [0.2, 0.9].
    pub fn event(&self, k: usize) -> (usize, Option<InstanceDelta>) {
        let mut rng = ChaCha8Rng::seed_from_u64(mix(self.seed ^ 0xD21F, k as u64));
        let tenant = rng.gen_range(0..self.tenants.len());
        if rng.gen::<f64>() >= DELTA_SHARE {
            return (tenant, None);
        }
        let base = &self.tenants[tenant];
        let machine = rng.gen_range(0..base.num_machines());
        let job = rng.gen_range(0..base.num_jobs());
        let old = base.prob(MachineId(machine), JobId(job));
        let p = (old * rng.gen_range(0.93..=1.07)).clamp(0.2, 0.9);
        let delta = InstanceDelta {
            set_prob: vec![(machine, job, p)],
            ..InstanceDelta::default()
        };
        (tenant, Some(delta))
    }
}

impl ClosedSource for DriftInputs {
    fn request(&self, k: usize, trace: bool) -> (String, SuuInstance) {
        let (tenant, delta) = self.event(k);
        match delta {
            None => (
                with_id(k, &self.full[usize::from(trace)][tenant]),
                self.tenants[tenant].clone(),
            ),
            Some(delta) => {
                let child = self.tenants[tenant]
                    .apply_delta(&delta)
                    .expect("drift deltas keep the instance valid");
                let mut request = Request::from_delta(k as u64 + 1, self.digests[tenant], delta);
                request.options = options(Some(EngineChoice::Revised), trace);
                (render(&request), child)
            }
        }
    }

    fn lp_sample(&self, k: usize) -> bool {
        k.is_multiple_of(DRIFT_LP_SAMPLE_EVERY) && self.event(k).1.is_some()
    }
}

/// `hot_pipelined`: a bursty multi-tenant stream. It opens with 128 tenants
/// (24–40 jobs × 4–6 machines; independent, chains and forests in turn),
/// and new ones keep arriving; a new tenant's first burst of 2 requests
/// races its own first solve, and later bursts of 3–8 repeat one of the
/// 128 most recent tenants. New tenants are rare enough (about 1.5 per second
/// at the offered rate) that well under 1% of requests wait behind a solve:
/// the p99 measures the hit path, not head-of-line blocking.
pub struct HotInputs {
    pub tenants: Vec<SuuInstance>,
    suffix: [Vec<String>; 2],
    /// Tenant of request `k`.
    pub stream: Vec<u32>,
}

/// Chance that a burst belongs to a brand-new tenant.
const HOT_NEW_TENANT: f64 = 0.002;
const HOT_ACTIVE_TENANTS: usize = 128;

impl HotInputs {
    pub fn new(seed: u64, requests: usize) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(mix(seed, 0x407));
        let mut stream: Vec<u32> = Vec::with_capacity(requests + 8);
        let mut active: Vec<u32> = Vec::with_capacity(HOT_ACTIVE_TENANTS);
        let mut tenants = 0u32;
        while stream.len() < requests {
            let new = active.len() < HOT_ACTIVE_TENANTS && tenants as usize == active.len();
            let (tenant, burst) = if new || rng.gen_bool(HOT_NEW_TENANT) {
                let t = tenants;
                tenants += 1;
                if active.len() == HOT_ACTIVE_TENANTS {
                    active.remove(0);
                }
                active.push(t);
                (t, 2)
            } else {
                (
                    active[rng.gen_range(0..active.len())],
                    rng.gen_range(3..=8usize),
                )
            };
            stream.extend(std::iter::repeat_n(tenant, burst));
        }
        stream.truncate(requests);
        let tenants: Vec<SuuInstance> = (0..u64::from(tenants))
            .map(|t| {
                let mut rng = ChaCha8Rng::seed_from_u64(mix(seed ^ 0x7E4A, t));
                let n = rng.gen_range(24..=40);
                let m = rng.gen_range(4..=6);
                instance(n, m, (t % 3) as u32, rng.gen())
            })
            .collect();
        let suffix = [false, true].map(|trace| {
            tenants
                .iter()
                .map(|t| id_free_suffix(t, None, trace))
                .collect()
        });
        Self {
            tenants,
            suffix,
            stream,
        }
    }

    /// When request `k` is due, from the start of traffic.
    pub fn due(k: usize) -> std::time::Duration {
        std::time::Duration::from_secs_f64(k as f64 / HOT_RATE_RPS)
    }

    pub fn line(&self, k: usize, trace: bool) -> String {
        with_id(k, &self.suffix[usize::from(trace)][self.stream[k] as usize])
    }
}

/// `sessions`: adaptive sessions from 64 interleaved flash crowds (each
/// crowd shares one 12-job × 4-machine chains structure; machine 1 fails at
/// step 3), driven to completion one after another. Several crowds keep the
/// realized makespan from hinging on one seed-drawn chain structure.
pub struct SessionInputs {
    seed: u64,
    pub scenarios: Vec<SessionScenario>,
}

const SESSION_CROWDS: usize = 64;

impl SessionInputs {
    pub fn new(seed: u64, count: usize) -> Self {
        let per_crowd = count.div_ceil(SESSION_CROWDS);
        let mut crowds: Vec<_> = (0..SESSION_CROWDS as u64)
            .map(|c| flash_crowd_sessions(per_crowd, mix(seed, c)).into_iter())
            .collect();
        let scenarios = (0..per_crowd * SESSION_CROWDS)
            .filter_map(|k| crowds[k % SESSION_CROWDS].next())
            .collect();
        Self { seed, scenarios }
    }

    /// How session `k` is executed: its own execution seed, completions
    /// reported every step, and its scenario's scripted failure.
    pub fn drive_config(&self, k: usize) -> DriveConfig {
        let scenario = &self.scenarios[k];
        DriveConfig {
            seed: self.seed.wrapping_add(k as u64),
            max_steps: 10_000,
            report_completions: true,
            failures: scenario.failures.clone(),
            drifts: scenario.drifts.clone(),
        }
    }
}
