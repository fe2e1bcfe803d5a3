//! The scheduler service: registry + cache + metrics behind one entry point.

use std::collections::HashMap;
use std::io::{BufRead, Write};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use suu_algorithms::LpBudget;
use suu_core::SuuInstance;
use suu_sim::OnlineStats;

use crate::cache::{CacheConfig, CachedSolve, ScheduleCache, ShardStats};
use crate::flight::{Flight, SingleFlight};
use crate::metrics::{insert_at, Counter, Histogram, ServiceMetrics};
use crate::obs::Stage;
use crate::pipeline::{sink_conn_token, Job, PoolHandle, ResponseSink};
use crate::protocol::{
    digest_from_wire, error_kind, scan_request_id, BudgetReport, CachePolicy, Detail, Request,
    Response, SolveFailure, SolveOptions, TraceReport,
};
use crate::session::{
    widen_schedule, SessionEvent, SessionReply, SessionState, SessionTable, SESSION_SOLVER,
};
use crate::solver::{Solver, SolverRegistry};
use serde::{Deserialize, Serialize, Value};

/// The solver every budget-exhausted auto-dispatched request degrades to:
/// one topological pass, no LP, bounded latency (no approximation
/// guarantee). Responses produced this way carry `degraded: true` plus the
/// budget post-mortem of the solver that ran out.
const FALLBACK_SOLVER: &str = "serial-baseline";

/// Per-request execution directives derived from the wire-level
/// [`SolveOptions`]: effective resource limits (the absolute deadline is
/// computed from the moment the service *accepted* the request, so time
/// spent queued counts against the budget), cache policy and response
/// projection. The wire's `engine` field has no directive: it is ignored.
#[derive(Debug, Clone, Copy)]
struct Directives {
    limits: LpBudget,
    cache: CachePolicy,
    detail: Detail,
}

impl Directives {
    fn new(options: &SolveOptions, accepted_at: Instant) -> Self {
        Self {
            limits: LpBudget {
                max_pivots: options
                    .max_pivots
                    .map(|p| usize::try_from(p).unwrap_or(usize::MAX)),
                deadline: options.effective_deadline(accepted_at),
                ..LpBudget::default()
            },
            cache: options.cache_policy(),
            detail: options.detail(),
        }
    }

    fn expired(&self) -> bool {
        self.limits.expired()
    }

    /// Whether the request set a budget of its own (pivots or a deadline).
    fn budgeted(&self) -> bool {
        self.limits.max_pivots.is_some() || self.limits.deadline.is_some()
    }
}

/// How a request's schedule was obtained — the `trace.cache` vocabulary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CacheOutcome {
    /// Served from the schedule cache.
    Hit,
    /// Solved fresh by this request.
    Miss,
    /// Served by waiting on an identical in-flight solve.
    Coalesced,
}

impl CacheOutcome {
    fn as_wire(self) -> &'static str {
        match self {
            Self::Hit => "hit",
            Self::Miss => "miss",
            Self::Coalesced => "coalesced",
        }
    }

    /// The response's `cache_hit` flag. Coalesced followers report `true` —
    /// they burned no solve of their own (the historical wire behaviour).
    fn as_cache_hit(self) -> bool {
        !matches!(self, Self::Miss)
    }
}

/// What the transport knows about a request when it hands it to the
/// service: when it was accepted, how long it queued (echoed in the `trace`
/// response object) and which connection owns it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct StageContext {
    /// When the transport accepted the request. Relative time budgets are
    /// measured from here, so queueing counts against the budget.
    pub(crate) accepted_at: Instant,
    /// Microseconds the request waited in the solve queue.
    pub(crate) queue_us: u64,
    /// Opaque connection token grouping session verbs for disconnect
    /// eviction (0 = anonymous: sessions opened this way only expire by
    /// idle TTL).
    pub(crate) conn: u64,
}

/// Microseconds elapsed since `start`, saturating.
fn micros_since(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX)
}

/// Serialises a protocol [`Response`] to its wire line (no trailing `\n`).
fn render_response(response: &Response) -> String {
    serde_json::to_string(response).expect("responses always serialise")
}

/// The `unknown_session` failure shared by `session_event` and
/// `close_session`: the id was never opened, was closed, or was evicted
/// (disconnect or idle TTL) — the wire cannot distinguish the three.
fn unknown_session_failure(id: u64, session: u64) -> Response {
    Response::failure_with(
        id,
        error_kind::UNKNOWN_SESSION,
        format!("unknown session {session}: never opened, closed, or evicted"),
    )
}

/// Renders a session revision (or terminal `done`) reply. `schedule` (with
/// its warm verdict) is absent exactly when the session is finished — there
/// is nothing left to schedule.
fn session_reply(
    id: u64,
    session: u64,
    state: &SessionState,
    schedule: Option<(bool, &suu_core::ObliviousSchedule)>,
) -> String {
    SessionReply {
        id,
        session,
        revision: state.revision,
        done: state.done,
        unfinished: state.job_map.len() as u64,
        completed: state.completed,
        schedule,
        opened: None,
    }
    .render()
}

/// The successful end of the validate → dispatch → lookup/solve flow.
struct SolveOutcome {
    instance: SuuInstance,
    solved: CachedSolve,
    /// The solver behind `solved` (its [`CachedSolve::solver`]).
    solver: &'static str,
    cache: CacheOutcome,
    /// The dispatched solver's budget ran out and `solved` came from the
    /// serial-baseline fallback instead.
    degraded: bool,
    /// Post-mortem of the exhausted budget on degraded responses.
    budget: Option<BudgetReport>,
}

impl SolveOutcome {
    /// The response's `trace` object.
    fn trace(&self, queue_us: u64, solve_us: u64, render_us: u64) -> TraceReport {
        TraceReport {
            queue_us,
            solve_us,
            render_us,
            cache: self.cache.as_wire().to_string(),
            lp_pivots: self.solved.lp_pivots.unwrap_or(0) as u64,
            warm: self.solved.lp_warm,
        }
    }
}

/// Service configuration.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Schedule cache sizing.
    pub cache: CacheConfig,
    /// Hard cap on instance size (`jobs × machines`) accepted over the wire,
    /// protecting the LP pipeline from pathological requests.
    pub max_cells: usize,
    /// Hard cap on the byte length of one request line. Without it a single
    /// newline-free stream would be buffered in full before parsing, so the
    /// `max_cells` guard could never run; overlong lines are discarded and
    /// answered with an error response instead.
    pub max_line_bytes: usize,
    /// Cap on `estimate_trials` a client may request.
    pub max_estimate_trials: usize,
    /// Cap on simulated steps per estimation trial.
    pub estimate_max_steps: usize,
    /// Whether fresh solves may start from a cached basis of a structurally
    /// identical parent (and publish their own final basis for later
    /// solves). Warm starts never change the computed schedule — the warm
    /// path re-solves to the same optimum or falls back to a cold solve —
    /// so this is safe to leave on; the switch exists so benchmarks can
    /// measure the warm-vs-cold speedup at equal payloads.
    pub warm_starts: bool,
    /// Cap on concurrently open adaptive sessions; opens beyond it are
    /// rejected with a structured `busy` error.
    pub max_sessions: usize,
    /// Idle TTL for sessions, milliseconds: a session untouched for longer
    /// is evicted on the next session verb (leak protection for clients
    /// that neither close nor disconnect).
    pub session_idle_ttl_ms: u64,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            cache: CacheConfig::default(),
            max_cells: 10_000,
            max_line_bytes: 4 * 1024 * 1024,
            max_estimate_trials: 1_000,
            estimate_max_steps: 100_000,
            warm_starts: true,
            max_sessions: 1_024,
            session_idle_ttl_ms: 300_000,
        }
    }
}

/// The long-running scheduling service. Shared across worker threads behind
/// an `Arc`; all methods take `&self`.
pub struct SchedulerService {
    registry: SolverRegistry,
    cache: ScheduleCache,
    flight: SingleFlight,
    metrics: ServiceMetrics,
    sessions: SessionTable,
    config: ServiceConfig,
    line_cache: Mutex<LineCache>,
}

/// Interned parses of repeated request lines.
///
/// Multi-tenant traffic repeats request bodies byte for byte except for the
/// client-chosen `id`; parsing the same multi-kilobyte probability matrix
/// into a fresh `Request` for every repeat costs more than the solve lookup
/// it feeds. Lines in the canonical serialisation (`{"id":<digits>,…`, which
/// is what [`Request`]'s own serialiser emits) are therefore cached keyed on
/// everything *after* the id digits; a hit reuses the parsed request and
/// only the id differs. Non-canonical lines (arbitrary field order) simply
/// take the full parse — the cache is an optimisation, never a semantic.
#[derive(Default)]
struct LineCache {
    entries: HashMap<u64, Vec<LineEntry>>,
    len: usize,
}

struct LineEntry {
    /// The line with the id digits removed (prefix is always `{"id":`).
    post: String,
    request: Arc<Request>,
}

/// Bound on interned lines; the cache is cleared wholesale beyond it (the
/// working set of distinct request bodies is the tenant population, far
/// below this).
const LINE_CACHE_MAX: usize = 1024;

/// Splits a canonical request line into its id and the remainder after the
/// id digits. Returns `None` for non-canonical lines.
fn split_canonical_id(line: &str) -> Option<(u64, &str)> {
    let rest = line.strip_prefix("{\"id\":")?;
    let digits = rest.bytes().take_while(u8::is_ascii_digit).count();
    if digits == 0 {
        return None;
    }
    let id: u64 = rest[..digits].parse().ok()?;
    Some((id, &rest[digits..]))
}

impl SchedulerService {
    /// A service with the default registry (every paper algorithm).
    #[must_use]
    pub fn new(config: ServiceConfig) -> Self {
        Self::with_registry(config, SolverRegistry::with_paper_algorithms())
    }

    /// A service with a caller-assembled registry.
    #[must_use]
    pub fn with_registry(config: ServiceConfig, registry: SolverRegistry) -> Self {
        Self {
            registry,
            cache: ScheduleCache::new(&config.cache),
            flight: SingleFlight::new(),
            metrics: ServiceMetrics::new(),
            sessions: SessionTable::new(config.max_sessions, config.session_idle_ttl_ms),
            config,
            line_cache: Mutex::new(LineCache::default()),
        }
    }

    /// The schedule cache (for inspection in tests and experiments).
    #[must_use]
    pub fn cache(&self) -> &ScheduleCache {
        &self.cache
    }

    /// The live metrics block.
    #[must_use]
    pub fn metrics(&self) -> &ServiceMetrics {
        &self.metrics
    }

    /// The solver registry.
    #[must_use]
    pub fn registry(&self) -> &SolverRegistry {
        &self.registry
    }

    /// The adaptive-session table (for inspection in tests).
    #[must_use]
    pub fn sessions(&self) -> &SessionTable {
        &self.sessions
    }

    /// Answers one raw NDJSON line with its response line (no trailing
    /// `\n`): validate, dispatch, consult the cache, solve on miss through
    /// the single-flight layer, optionally estimate the makespan. Parse
    /// failures yield a `bad_request` response whose id is scanned out of
    /// the line best-effort (0 when absent) rather than tearing the
    /// connection down. Lines carrying a `verb` field are protocol commands
    /// (`stats` and the session verbs). Sessions opened through this entry
    /// point are anonymous (connection token 0): they expire by idle TTL,
    /// not by disconnect.
    #[must_use]
    pub fn handle_line(&self, line: &str) -> String {
        self.handle(
            line,
            &StageContext {
                accepted_at: Instant::now(),
                queue_us: 0,
                conn: 0,
            },
        )
    }

    /// The solver pool's handler: [`handle_line`](Self::handle_line) under
    /// the transport's [`StageContext`].
    pub(crate) fn handle(&self, line: &str, ctx: &StageContext) -> String {
        if let Some(reply) = self.try_handle_verb(line, ctx.conn) {
            return reply;
        }
        let parse_start = Instant::now();
        match self.parse_line_cached(line) {
            Ok((id, request)) => {
                self.metrics
                    .record_stage(Stage::Parse, micros_since(parse_start));
                self.respond(&request, id, ctx)
            }
            Err(err) => {
                // Protocol noise is answered but not counted as a handled
                // request in the metrics.
                render_response(&Response::failure_with(
                    scan_request_id(line),
                    error_kind::BAD_REQUEST,
                    format!("bad request: {err}"),
                ))
            }
        }
    }

    /// Answers `request` under `id` (interned requests carry the id of their
    /// first submission; every later envelope gets its own).
    ///
    /// The solve's [rendered body](CachedSolve::rendered_body) is spliced
    /// into the response envelope: re-serialising a multi-kilobyte schedule
    /// per response dominates the cost of a cache hit, so it is rendered
    /// once per solve and the bytes are reused. The spliced line parses to
    /// exactly the [`Response`] the struct serialiser would produce.
    /// Failures, and requests that ask for a makespan estimate, are rendered
    /// from the struct instead, since the estimate is computed per request.
    fn respond(&self, request: &Request, id: u64, ctx: &StageContext) -> String {
        let start = Instant::now();
        let options = request.solve_options();
        let directives = Directives::new(&options, ctx.accepted_at);
        let rendered = |response: &Response| {
            let render_start = Instant::now();
            let line = render_response(response);
            (line, micros_since(render_start))
        };
        // Each branch yields the line, the solver that answered (none for a
        // failure), the solve and render stages and the reply's
        // `service_micros`, booked in one place below.
        let (line, solver, solve_us, render_us, service_micros) = match self
            .solve_flow(request, &directives)
        {
            Err(mut failure) => {
                failure.id = id;
                failure.service_micros = micros_since(start);
                let (line, render_us) = rendered(&failure);
                let micros = failure.service_micros;
                (line, None, micros, render_us, micros)
            }
            Ok(outcome)
                if request.estimate_trials.is_some_and(|t| t > 0)
                    || directives.detail == Detail::EstimateOnly =>
            {
                // The estimate is skipped when the deadline has already
                // passed: the client asked for bounded latency, and the
                // schedule itself is the part it cannot recompute.
                let estimated_makespan = request
                    .estimate_trials
                    .filter(|&trials| trials > 0 && !directives.expired())
                    .and_then(|trials| {
                        self.estimate_makespan(
                            &outcome.instance,
                            &outcome.solved,
                            trials.min(self.config.max_estimate_trials),
                        )
                    });
                let micros = micros_since(start);
                let trace = options
                    .trace
                    .then(|| outcome.trace(ctx.queue_us, micros, 0));
                let response = Response {
                    id,
                    ok: true,
                    error: None,
                    error_kind: None,
                    solver: Some(outcome.solved.solver),
                    cache_hit: outcome.cache.as_cache_hit(),
                    schedule_len: outcome.solved.schedule.len(),
                    lp_value: outcome.solved.lp_value,
                    lp_pivots: outcome.solved.lp_pivots,
                    lp_micros: outcome.solved.lp_micros,
                    schedule: Some(outcome.solved.schedule),
                    estimated_makespan,
                    service_micros: micros,
                    degraded: outcome.degraded,
                    budget: outcome.budget,
                    trace,
                }
                .project(directives.detail);
                let (line, render_us) = rendered(&response);
                (line, Some(outcome.solver), micros, render_us, micros)
            }
            Ok(outcome) => {
                let solve_us = micros_since(start);
                let render_start = Instant::now();
                let body = match directives.detail {
                    Detail::NoSchedule => outcome.solved.rendered_body_no_schedule(),
                    Detail::Full | Detail::EstimateOnly => outcome.solved.rendered_body(),
                };
                // The v2 fields are spliced in only when set, so v1
                // responses keep their exact historical bytes.
                let mut extra = String::new();
                if outcome.degraded {
                    extra.push_str(",\"degraded\":true");
                }
                if let Some(budget) = &outcome.budget {
                    extra.push_str(",\"budget\":");
                    extra.push_str(
                        &serde_json::to_string(budget).expect("budget reports serialise"),
                    );
                }
                let render_us = micros_since(render_start);
                if options.trace {
                    extra.push_str(",\"trace\":");
                    extra.push_str(
                        &serde_json::to_string(&outcome.trace(ctx.queue_us, solve_us, render_us))
                            .expect("trace reports serialise"),
                    );
                }
                let micros = micros_since(start);
                let cache_hit = outcome.cache.as_cache_hit();
                let line = format!(
                    "{{\"id\":{id},\"ok\":true,\"error\":null,\"error_kind\":null,{body},\
                         \"cache_hit\":{cache_hit},\"estimated_makespan\":null,\
                         \"service_micros\":{micros}{extra}}}"
                );
                (line, Some(outcome.solver), solve_us, render_us, micros)
            }
        };
        self.metrics
            .record_reply(solver, solve_us, render_us, service_micros);
        line
    }

    /// The validate → dispatch → lookup/solve flow behind every response.
    // The Err variant is the ready-to-send failure response; boxing it would
    // just move the allocation into the hot success path's caller.
    #[allow(clippy::result_large_err)]
    fn solve_flow(
        &self,
        request: &Request,
        directives: &Directives,
    ) -> Result<SolveOutcome, Response> {
        if directives.expired() {
            return Err(Response::deadline_exceeded(request.id));
        }
        let instance = self.resolve_instance(request)?;

        // Resolve the solver before the cache lookup: the solver name is part
        // of the cache key, so a forced solver never sees another solver's
        // cached schedule and vice versa.
        let solver = match &request.solver {
            Some(name) => match self.registry.by_name(name) {
                Some(solver) if solver.supports(&instance) => solver,
                Some(_) => {
                    return Err(Response::failure(
                        request.id,
                        format!("solver `{name}` does not support this instance structure"),
                    ))
                }
                None => {
                    return Err(Response::failure(
                        request.id,
                        format!(
                            "unknown solver `{name}`; registered: {}",
                            self.registry.names().join(", ")
                        ),
                    ))
                }
            },
            None => match self.registry.dispatch(&instance) {
                Some(solver) => solver,
                None => {
                    return Err(Response::failure(
                        request.id,
                        "no solver supports this instance",
                    ))
                }
            },
        };

        match self.lookup_or_solve(&instance, solver, directives) {
            Ok((solved, cache)) => Ok(SolveOutcome {
                instance,
                solved,
                solver: solver.name(),
                cache,
                degraded: false,
                budget: None,
            }),
            Err(failure)
                if directives.budgeted()
                    && failure.kind == error_kind::BUDGET_EXHAUSTED
                    && request.solver.is_none()
                    && solver.name() != FALLBACK_SOLVER =>
            {
                // Degraded fallback: the dispatched solver's budget ran out,
                // so answer with the serial baseline — bounded latency beats
                // an error for auto-dispatched traffic. Forced solvers opt
                // out (the client asked for that algorithm specifically) and
                // get the structured `budget_exhausted` error instead. The
                // fallback drops the limits: the budget is already blown and
                // the baseline is one cheap topological pass.
                let fallback = self
                    .registry
                    .by_name(FALLBACK_SOLVER)
                    .filter(|s| s.supports(&instance));
                let Some(fallback) = fallback else {
                    return Err(Response::from_failure(request.id, &failure));
                };
                let relaxed = Directives {
                    limits: LpBudget::default(),
                    ..*directives
                };
                match self.lookup_or_solve(&instance, fallback, &relaxed) {
                    Ok((solved, cache)) => Ok(SolveOutcome {
                        instance,
                        solved,
                        solver: fallback.name(),
                        cache,
                        degraded: true,
                        budget: failure.budget,
                    }),
                    Err(fallback_failure) => {
                        Err(Response::from_failure(request.id, &fallback_failure))
                    }
                }
            }
            Err(failure) => Err(Response::from_failure(request.id, &failure)),
        }
    }

    /// Turns a request (or an `open_session`) into the instance to solve:
    /// either the inline v1 payload or — for protocol-v2 delta requests — a
    /// cached parent resolved by `base_digest`, with the request's
    /// [`InstanceDelta`] applied on top. The inline payload is checked
    /// against the cell limit before it is built, and delta-built instances
    /// again after, since a delta can grow its parent past what the payload
    /// check saw.
    ///
    /// [`InstanceDelta`]: suu_core::InstanceDelta
    #[allow(clippy::result_large_err)]
    fn resolve_instance(&self, request: &Request) -> Result<SuuInstance, Response> {
        let too_large = |jobs: usize, machines: usize| {
            Response::failure(
                request.id,
                format!(
                    "instance too large: {jobs} x {machines} exceeds the {}-cell service limit",
                    self.config.max_cells
                ),
            )
        };
        if request
            .num_jobs
            .saturating_mul(request.num_machines)
            .max(request.probs.len())
            > self.config.max_cells
        {
            return Err(too_large(request.num_jobs, request.num_machines));
        }
        let base = if let Some(wire) = &request.base_digest {
            let Some(digest) = digest_from_wire(wire) else {
                return Err(Response::failure_with(
                    request.id,
                    error_kind::INVALID_DELTA,
                    format!("malformed base_digest `{wire}`: expected 16 lowercase hex characters"),
                ));
            };
            match self.cache.lookup_base(digest) {
                Some(parent) => parent,
                None => {
                    self.metrics.add(Counter::UnknownBase, 1);
                    return Err(Response::failure_with(
                        request.id,
                        error_kind::UNKNOWN_BASE,
                        format!(
                            "unknown base_digest `{wire}`: not in the solve cache; \
                             resubmit the full instance"
                        ),
                    ));
                }
            }
        } else {
            match request.to_instance() {
                Ok(instance) => instance,
                Err(message) => return Err(Response::failure(request.id, message)),
            }
        };
        let instance = match &request.delta {
            Some(delta) => match base.apply_delta(delta) {
                Ok(instance) => instance,
                Err(err) => {
                    return Err(Response::failure_with(
                        request.id,
                        error_kind::INVALID_DELTA,
                        format!("invalid delta: {err}"),
                    ))
                }
            },
            None => base,
        };
        if (request.base_digest.is_some() || request.delta.is_some())
            && instance.num_jobs().saturating_mul(instance.num_machines()) > self.config.max_cells
        {
            return Err(too_large(instance.num_jobs(), instance.num_machines()));
        }
        Ok(instance)
    }

    /// Parses a request line, interning canonical lines so repeats of the
    /// same body (identical bytes modulo the id digits) skip the JSON parse
    /// entirely. See [`LineCache`].
    fn parse_line_cached(&self, line: &str) -> Result<(u64, Arc<Request>), String> {
        let Some((id, post)) = split_canonical_id(line) else {
            // Non-canonical shape: plain parse, no interning.
            let request: Request = serde_json::from_str(line).map_err(|err| err.to_string())?;
            let id = request.id;
            return Ok((id, Arc::new(request)));
        };
        let key = crate::fnv1a(post.as_bytes());
        {
            let cache = self.line_cache.lock().expect("line cache poisoned");
            if let Some(bucket) = cache.entries.get(&key) {
                if let Some(entry) = bucket.iter().find(|e| e.post == post) {
                    return Ok((id, Arc::clone(&entry.request)));
                }
            }
        }
        let request: Request = serde_json::from_str(line).map_err(|err| err.to_string())?;
        let request = Arc::new(request);
        let mut cache = self.line_cache.lock().expect("line cache poisoned");
        if cache.len >= LINE_CACHE_MAX {
            // Wholesale reset: simpler than LRU and the population of
            // distinct bodies (the tenant set) sits far below the bound.
            cache.entries.clear();
            cache.len = 0;
        }
        let bucket = cache.entries.entry(key).or_default();
        if !bucket.iter().any(|e| e.post == post) {
            bucket.push(LineEntry {
                post: post.to_string(),
                request: Arc::clone(&request),
            });
            cache.len += 1;
        }
        Ok((id, request))
    }

    /// Resolves a schedule for `(instance, solver)` under the
    /// request's cache policy: cache hit, fresh solve, or a wait on an
    /// identical in-flight solve. The [`CacheOutcome`] distinguishes the
    /// three for the response's `cache_hit` flag and the `trace.cache` field.
    ///
    /// `Bypass` and `Refresh` requests demand their own fresh solve, so they
    /// go around both the cache read and the single-flight layer (they never
    /// lead *or* follow a coalesced flight; `Refresh` still publishes its
    /// result into the cache for later requests).
    fn lookup_or_solve(
        &self,
        instance: &SuuInstance,
        solver: &dyn Solver,
        directives: &Directives,
    ) -> Result<(CachedSolve, CacheOutcome), SolveFailure> {
        match directives.cache {
            CachePolicy::Bypass => {
                return self
                    .run_solver(instance, solver, &directives.limits, false)
                    .map(|s| (s, CacheOutcome::Miss));
            }
            CachePolicy::Refresh => {
                return self
                    .run_solver(instance, solver, &directives.limits, true)
                    .map(|s| (s, CacheOutcome::Miss));
            }
            CachePolicy::Default => {}
        }
        let key = (instance.canonical_digest(), solver.name());
        let mut retries = 0;
        loop {
            match self
                .flight
                .begin(key, || self.cache.get(instance, solver.name()))
            {
                Ok(hit) => return Ok((hit, CacheOutcome::Hit)),
                Err(Flight::Lead(guard)) => {
                    let result = self.run_solver(instance, solver, &directives.limits, true);
                    // `run_solver` already inserted into the cache, so
                    // publishing (which clears the slot) is safe now.
                    guard.publish(result.clone());
                    return result.map(|solved| (solved, CacheOutcome::Miss));
                }
                Err(Flight::Follow(flight)) => {
                    self.metrics.add(Counter::Coalesced, 1);
                    // Followers inherit the leader's outcome — including a
                    // budget exhaustion under the *leader's* limits. Budgets
                    // don't fork the flight key (a success is bit-identical
                    // either way), and failures are not cached, so a request
                    // without a budget of its own retries under its own
                    // unbounded limits: a v1 client must not be degraded by a
                    // stranger's budget. The follower's own deadline keeps
                    // binding while parked: the wait gives up at that instant
                    // with a structured time-budget failure.
                    match flight.wait_until(directives.limits.deadline) {
                        Ok(solved) => return Ok((solved, CacheOutcome::Coalesced)),
                        Err(failure)
                            if !directives.budgeted()
                                && failure.kind == error_kind::BUDGET_EXHAUSTED =>
                        {
                            if retries == 2 {
                                // Pathological race (repeatedly inheriting
                                // budgeted leaders' failures): keep the error
                                // but never leak the v2 budget post-mortem to
                                // a request that set no budget.
                                return Err(SolveFailure {
                                    budget: None,
                                    ..failure
                                });
                            }
                            retries += 1;
                        }
                        Err(failure) => return Err(failure),
                    }
                }
            }
        }
    }

    /// Runs the solver under the request's limits and records the
    /// fresh-solve bookkeeping (LP effort aggregation, and a cache insert
    /// when `insert` is set, i.e. unless the cache policy said to skip).
    /// Cache hits and coalesced waits repeat the original solve's numbers in
    /// their responses but burn no new pivots.
    fn run_solver(
        &self,
        instance: &SuuInstance,
        solver: &dyn Solver,
        limits: &LpBudget,
        insert: bool,
    ) -> Result<CachedSolve, SolveFailure> {
        // Warm starts ride on the structural digest: a solve of the same
        // structural class (shape + precedence, probabilities free) left a
        // final basis (and its LU factors) behind. When the edit left the
        // basis matrix untouched the factors are adopted outright — no
        // refactorisation — and otherwise the dual simplex repairs the basis
        // into this instance's optimum in a handful of pivots. The solve
        // falls back to a cold one whenever the donor doesn't fit, so the
        // schedule is the same either way — only the pivot count changes.
        let structural = instance.structural_digest();
        let donor = if self.config.warm_starts {
            self.cache.lookup_basis(structural, solver.name())
        } else {
            None
        };
        match solver.solve(instance, limits, donor) {
            Ok(mut output) => {
                self.metrics.add(Counter::FreshSolves, 1);
                self.metrics
                    .add(Counter::WarmHits, u64::from(output.lp_warm));
                if let (Some(pivots), Some(micros)) = (output.lp_pivots, output.lp_micros) {
                    self.metrics.add(Counter::LpPivots, pivots as u64);
                    self.metrics.record(Histogram::LpMicros, micros);
                }
                if self.config.warm_starts {
                    if let Some(donor) = output.donor.take() {
                        self.cache.store_basis(structural, solver.name(), donor);
                    }
                }
                let solved = CachedSolve::new(
                    solver.name().to_string(),
                    output.schedule,
                    output.lp_value,
                    output.lp_pivots,
                    output.lp_micros,
                    output.lp_warm,
                );
                if insert {
                    self.cache.insert(instance, solved.clone());
                }
                Ok(solved)
            }
            Err(suu_algorithms::AlgorithmError::BudgetExhausted { pivots, wall_clock }) => {
                Err(SolveFailure {
                    kind: error_kind::BUDGET_EXHAUSTED,
                    message: format!(
                        "solver `{}` exhausted its {} after {pivots} pivots",
                        solver.name(),
                        if wall_clock {
                            "time budget"
                        } else {
                            "pivot budget"
                        },
                    ),
                    budget: Some(BudgetReport::new(pivots, wall_clock)),
                })
            }
            Err(err) => Err(SolveFailure::new(
                error_kind::SOLVER_ERROR,
                format!("solver `{}` failed: {err}", solver.name()),
            )),
        }
    }

    /// Monte-Carlo makespan estimate, or `None` when any trial hit the step
    /// horizon: averaging only the trials that finished would bias the
    /// estimate low (in the worst case reporting ≈0 for a schedule that
    /// never finished once), so a censored run yields no estimate at all.
    fn estimate_makespan(
        &self,
        instance: &SuuInstance,
        solved: &CachedSolve,
        trials: usize,
    ) -> Option<f64> {
        let mut stats = OnlineStats::new();
        for trial in 0..trials {
            let mut policy = solved.schedule.clone();
            let mut rng = ChaCha8Rng::seed_from_u64(0x5E17_1CE0 ^ trial as u64);
            let steps = suu_sim::simulate_once(
                instance,
                &mut policy,
                &mut rng,
                self.config.estimate_max_steps,
            )?;
            stats.push(steps as f64);
        }
        Some(stats.mean())
    }

    /// Intercepts protocol-command lines (`{"id": N, "verb": "stats"}`).
    /// Returns `None` for ordinary scheduling requests — a line only counts
    /// as a command when it parses as JSON *and* carries a `verb` key.
    /// Commands are answered but, like protocol noise, never counted in the
    /// `requests` metric (see [`ServiceMetrics`]). `conn` is the transport's
    /// connection token, owning any session opened by the line (0 =
    /// anonymous).
    fn try_handle_verb(&self, line: &str, conn: u64) -> Option<String> {
        if !line.contains("\"verb\"") {
            return None;
        }
        let value = serde_json::parse(line).ok()?;
        let verb = match value.get("verb")? {
            Value::String(s) => s.clone(),
            _ => return None,
        };
        let id = value
            .get("id")
            .and_then(|v| u64::from_value(v).ok())
            .unwrap_or(0);
        match verb.as_str() {
            "stats" => Some(self.stats_response_line(id)),
            "open_session" => Some(self.open_session_response(id, &value, conn)),
            "session_event" => Some(self.session_event_response(id, &value)),
            "close_session" => Some(self.close_session_response(id, &value)),
            other => {
                let failure = Response::failure_with(
                    id,
                    error_kind::BAD_REQUEST,
                    format!(
                        "unknown verb `{other}`; supported: stats, open_session, \
                         session_event, close_session"
                    ),
                );
                Some(serde_json::to_string(&failure).expect("responses always serialise"))
            }
        }
    }

    /// Idle-TTL housekeeping, run opportunistically on every session verb.
    fn sweep_sessions(&self) {
        let evicted = self.sessions.sweep_idle();
        self.metrics.add(Counter::SessionsEvicted, evicted);
    }

    /// Answers an event or close for a session whose state lock a panic
    /// poisoned mid-revision, after the caller removed it from the table:
    /// the half-updated state is unusable, so the session counts as evicted
    /// and is reported unknown, like one that idled out. Every later verb
    /// on it gets the same answer from the table lookup.
    fn poisoned_session_failure(&self, id: u64, session: u64) -> String {
        self.metrics.add(Counter::SessionsEvicted, 1);
        self.metrics.add(Counter::UnknownSession, 1);
        render_response(&unknown_session_failure(id, session))
    }

    /// Books one schedule revision served to a session, timed from `start`;
    /// `warm` says whether its suffix re-solve started warm.
    fn record_revision(&self, start: Instant, warm: bool) {
        self.metrics.add(Counter::Revisions, 1);
        self.metrics.add(Counter::RevisionWarmHits, u64::from(warm));
        self.metrics
            .record(Histogram::RevisionLatency, micros_since(start));
    }

    /// Evicts every session owned by connection token `conn` — called by the
    /// transport when a connection ends (EOF or error), so sessions die with
    /// their client instead of leaking until the idle TTL.
    fn evict_connection_sessions(&self, conn: u64) {
        let evicted = self.sessions.evict_connection(conn);
        self.metrics.add(Counter::SessionsEvicted, evicted);
    }

    /// The session revision solve: forced `SUU-C` (the warm-capable solver
    /// class) through the normal cache + single-flight + warm-start path,
    /// unbudgeted — repeated suffixes cache-hit or coalesce and structural
    /// repeats warm-start from the previous revision's basis. Coalescing is
    /// deadlock-free although the caller holds its session's state lock: a
    /// flight leader never takes a session lock.
    #[allow(clippy::result_large_err)]
    fn solve_session_instance(
        &self,
        id: u64,
        instance: &SuuInstance,
    ) -> Result<CachedSolve, Response> {
        let Some(solver) = self.registry.by_name(SESSION_SOLVER) else {
            return Err(Response::failure(
                id,
                format!("session solver `{SESSION_SOLVER}` is not registered"),
            ));
        };
        if !solver.supports(instance) {
            return Err(Response::failure(
                id,
                "sessions require independent jobs or disjoint chains \
                 (the warm-start-capable SUU-C class)",
            ));
        }
        let directives = Directives {
            limits: LpBudget::default(),
            cache: CachePolicy::Default,
            detail: Detail::Full,
        };
        match self.lookup_or_solve(instance, solver, &directives) {
            Ok((solved, _)) => Ok(solved),
            Err(failure) => Err(Response::from_failure(id, &failure)),
        }
    }

    /// Answers `open_session`: resolve the instance exactly as the request
    /// path does (inline payload or cached `base_digest`, any `delta`
    /// applied, cell limit checked), solve it (revision 0), register the
    /// session and return the schedule. Sessions solve with
    /// [`SESSION_SOLVER`] only, so a `solver` naming another is rejected;
    /// `options` are ignored.
    fn open_session_response(&self, id: u64, value: &Value, conn: u64) -> String {
        self.sweep_sessions();
        let request = match Request::from_value(value) {
            Ok(request) => request,
            Err(err) => {
                return render_response(&Response::failure_with(
                    id,
                    error_kind::BAD_REQUEST,
                    format!("bad open_session: {err}"),
                ))
            }
        };
        if let Some(name) = request.solver.as_deref() {
            if name != SESSION_SOLVER {
                return render_response(&Response::failure(
                    id,
                    format!("sessions solve with `{SESSION_SOLVER}` only, not `{name}`"),
                ));
            }
        }
        let instance = match self.resolve_instance(&request) {
            Ok(instance) => instance,
            Err(failure) => return render_response(&failure),
        };
        let start = Instant::now();
        let solved = match self.solve_session_instance(id, &instance) {
            Ok(solved) => solved,
            Err(failure) => return render_response(&failure),
        };
        self.record_revision(start, solved.lp_warm);
        let unfinished = instance.num_jobs() as u64;
        let machines = instance.num_machines() as u64;
        let Some(session) = self.sessions.open(conn, SessionState::new(instance)) else {
            return render_response(&Response::failure_with(
                id,
                error_kind::BUSY,
                format!(
                    "session table full ({} open); close or wait for the idle TTL",
                    self.config.max_sessions
                ),
            ));
        };
        self.metrics.add(Counter::SessionsOpened, 1);
        SessionReply {
            id,
            session,
            revision: 0,
            done: false,
            unfinished,
            completed: 0,
            schedule: Some((solved.lp_warm, &solved.schedule)),
            opened: Some((SESSION_SOLVER, machines)),
        }
        .render()
    }

    /// Answers `session_event`: apply the feedback to the session's suffix
    /// (completions restrict, a failed machine drains, a drift re-prices),
    /// re-solve warm, and return the next revision. Errors leave the session
    /// state unchanged (the event is *not* half-applied).
    fn session_event_response(&self, id: u64, value: &Value) -> String {
        self.sweep_sessions();
        let event = match SessionEvent::parse(value) {
            Ok(event) => event,
            Err(message) => {
                return render_response(&Response::failure_with(
                    id,
                    error_kind::BAD_REQUEST,
                    message,
                ))
            }
        };
        let Some(entry) = self.sessions.get(event.session) else {
            self.metrics.add(Counter::UnknownSession, 1);
            return render_response(&unknown_session_failure(id, event.session));
        };
        // Events within a session serialise on the state lock; the pipelined
        // executor additionally keeps a session's events in submission order
        // (see `pipeline.rs`), so revisions are strictly ordered.
        let Some(mut state) = entry.lock() else {
            let _ = self.sessions.close(event.session);
            return self.poisoned_session_failure(id, event.session);
        };
        state.events += 1;
        if let Some(step) = event.step {
            state.realized_steps = state.realized_steps.max(step);
        }
        if state.done {
            return session_reply(id, event.session, &state, None);
        }
        // 1. Completions: drop reported jobs from the suffix. Ids that are
        //    unknown or already reported are ignored — completion reports
        //    are idempotent, so a client may safely repeat them.
        let mut keep: Vec<usize> = (0..state.job_map.len()).collect();
        if !event.completed.is_empty() {
            keep.retain(|&k| !event.completed.contains(&state.job_map[k].0));
        }
        let newly_done = (state.job_map.len() - keep.len()) as u64;
        if keep.is_empty() {
            state.completed += newly_done;
            state.job_map.clear();
            state.done = true;
            return session_reply(id, event.session, &state, None);
        }
        // 2. Candidate suffix: restrict to the survivors, then drain/drift
        //    as one delta (set_prob addresses pre-drain machine indices).
        let keep_session: Vec<suu_core::JobId> = keep.iter().map(|&k| suu_core::JobId(k)).collect();
        let (restricted, _) = state.current.restrict_to_jobs(&keep_session);
        let next_job_map: Vec<suu_core::JobId> = keep.iter().map(|&k| state.job_map[k]).collect();
        let mut delta = suu_core::InstanceDelta::default();
        let mut drained_at = None;
        if let Some(machine) = event.failed_machine {
            let Some(pos) = state.machine_map.iter().position(|&m| m == machine) else {
                return render_response(&Response::failure_with(
                    id,
                    error_kind::INVALID_DELTA,
                    format!(
                        "failed_machine {machine} is not active in session {}",
                        event.session
                    ),
                ));
            };
            delta.drain_machine = Some(pos);
            drained_at = Some(pos);
        }
        if let Some(drift) = event.drift {
            let Some(mpos) = state.machine_map.iter().position(|&m| m == drift.machine) else {
                return render_response(&Response::failure_with(
                    id,
                    error_kind::INVALID_DELTA,
                    format!(
                        "drift machine {} is not active in the session",
                        drift.machine
                    ),
                ));
            };
            let Some(jpos) = next_job_map.iter().position(|j| j.0 == drift.job) else {
                return render_response(&Response::failure_with(
                    id,
                    error_kind::INVALID_DELTA,
                    format!("drift job {} is not unfinished in the session", drift.job),
                ));
            };
            delta.set_prob.push((mpos, jpos, drift.p));
        }
        let candidate = if delta.is_empty() {
            restricted
        } else {
            match restricted.apply_delta(&delta) {
                Ok(candidate) => candidate,
                Err(err) => {
                    return render_response(&Response::failure_with(
                        id,
                        error_kind::INVALID_DELTA,
                        format!("invalid session delta: {err}"),
                    ))
                }
            }
        };
        // 3. Solve the suffix and commit; a solver failure leaves the old
        //    revision (and state) in place.
        let start = Instant::now();
        let solved = match self.solve_session_instance(id, &candidate) {
            Ok(solved) => solved,
            Err(failure) => return render_response(&failure),
        };
        self.record_revision(start, solved.lp_warm);
        state.completed += newly_done;
        state.current = candidate;
        state.job_map = next_job_map;
        if let Some(pos) = drained_at {
            state.machine_map.remove(pos);
        }
        state.revision += 1;
        if solved.lp_warm {
            state.warm_hits += 1;
        }
        let wide = widen_schedule(
            &solved.schedule,
            &state.machine_map,
            &state.job_map,
            state.original_machines,
        );
        session_reply(id, event.session, &state, Some((solved.lp_warm, &wide)))
    }

    /// Answers `close_session`: drop the session and return its final
    /// summary (revisions, warm hits, events, realized steps, completions).
    fn close_session_response(&self, id: u64, value: &Value) -> String {
        self.sweep_sessions();
        let Some(session) = value.get("session").and_then(|v| u64::from_value(v).ok()) else {
            return render_response(&Response::failure_with(
                id,
                error_kind::BAD_REQUEST,
                "close_session requires a numeric `session` field",
            ));
        };
        let Some(entry) = self.sessions.close(session) else {
            self.metrics.add(Counter::UnknownSession, 1);
            return render_response(&unknown_session_failure(id, session));
        };
        let Some(state) = entry.lock() else {
            return self.poisoned_session_failure(id, session);
        };
        self.metrics.add(Counter::SessionsClosed, 1);
        Value::Object(vec![
            ("id".to_string(), Value::Number(id as f64)),
            ("ok".to_string(), Value::Bool(true)),
            ("session".to_string(), Value::Number(session as f64)),
            (
                "summary".to_string(),
                Value::Object(vec![
                    (
                        "revisions".to_string(),
                        Value::Number(state.revision as f64),
                    ),
                    (
                        "warm_hits".to_string(),
                        Value::Number(state.warm_hits as f64),
                    ),
                    ("events".to_string(), Value::Number(state.events as f64)),
                    (
                        "realized_steps".to_string(),
                        Value::Number(state.realized_steps as f64),
                    ),
                    (
                        "completed".to_string(),
                        Value::Number(state.completed as f64),
                    ),
                    (
                        "unfinished".to_string(),
                        Value::Number(state.job_map.len() as f64),
                    ),
                ]),
            ),
        ])
        .render()
    }

    /// Renders the `stats` verb response: `{"id": N, "ok": true, "stats":
    /// {...}}` (see the protocol docs). The metrics tables render
    /// themselves (see [`MetricsSnapshot`]); the per-shard cache counters,
    /// the single-flight table size and the open sessions are read from the
    /// structures that hold them.
    ///
    /// [`MetricsSnapshot`]: crate::metrics::MetricsSnapshot
    fn stats_response_line(&self, id: u64) -> String {
        let mut stats = self.metrics.snapshot().stats_fields();
        let shards = self.cache.shard_stats();
        let shard_fields = |s: &ShardStats| {
            vec![
                ("entries".to_string(), s.entries.to_value()),
                ("hits".to_string(), s.hits.to_value()),
                ("misses".to_string(), s.misses.to_value()),
                ("evictions".to_string(), s.evictions.to_value()),
            ]
        };
        let total = ShardStats {
            entries: shards.iter().map(|s| s.entries).sum(),
            hits: shards.iter().map(|s| s.hits).sum(),
            misses: shards.iter().map(|s| s.misses).sum(),
            evictions: shards.iter().map(|s| s.evictions).sum(),
        };
        let mut cache = shard_fields(&total);
        let shards = shards.iter().map(|s| Value::Object(shard_fields(s)));
        cache.push(("shards".to_string(), Value::Array(shards.collect())));
        stats.push(("cache".to_string(), Value::Object(cache)));
        let in_flight = self.flight.in_flight().to_value();
        stats.push(("flight_in_flight".to_string(), in_flight));
        let open = (self.sessions.len() as u64).to_value();
        insert_at(&mut stats, &["sessions", "open"], open);
        Value::Object(vec![
            ("id".to_string(), id.to_value()),
            ("ok".to_string(), true.to_value()),
            ("stats".to_string(), Value::Object(stats)),
        ])
        .render()
    }

    /// Serves NDJSON requests from `input` until EOF — the stdin/stdout
    /// transport, also used per connection by the TCP server. The calling
    /// thread only reads lines into jobs on the shared solve queue (`pool`);
    /// solver threads parse and answer them, writing the responses to
    /// `output` as they finish, possibly **out of submission order** (clients
    /// match on `id`).
    ///
    /// Lines longer than [`ServiceConfig::max_line_bytes`] are discarded
    /// (never fully buffered) and answered inline by this thread; a full
    /// queue is answered with a structured `busy` error (admission control)
    /// instead of blocking. On EOF the call drains: it blocks until every
    /// accepted job's response has been written, so a closing connection
    /// never loses responses.
    ///
    /// # Errors
    ///
    /// Propagates read errors; a broken write half ends the loop early with
    /// an error after in-flight jobs complete.
    pub fn serve_lines<R: BufRead, W: Write + Send + 'static>(
        &self,
        mut input: R,
        output: W,
        pool: &PoolHandle,
    ) -> std::io::Result<()> {
        let sink = ResponseSink::new(output);
        let conn = sink_conn_token(&sink);
        self.metrics
            .set(Counter::QueueCapacity, pool.capacity() as u64);
        loop {
            if sink.failed() {
                sink.wait_drained();
                self.evict_connection_sessions(conn);
                return Err(std::io::Error::other("response writer failed"));
            }
            let bounded = match read_line_bounded(&mut input, self.config.max_line_bytes) {
                Ok(bounded) => bounded,
                Err(err) => {
                    sink.wait_drained();
                    self.evict_connection_sessions(conn);
                    return Err(err);
                }
            };
            match bounded {
                BoundedLine::Eof => break,
                BoundedLine::TooLong => {
                    sink.write_response_now(&self.line_too_long_response());
                }
                BoundedLine::Line(line) => {
                    if line.trim().is_empty() {
                        continue;
                    }
                    // Parsing happens on the solver threads (through the
                    // interned-line cache); the reader only tags and
                    // enqueues, so it can never fall behind the socket.
                    match pool.try_submit(Job::from_line(line, &sink)) {
                        Ok(depth) => {
                            // One queue-depth sample per accepted submission
                            // feeds the depth gauge and its histogram.
                            self.metrics.set(Counter::QueueDepth, depth as u64);
                            self.metrics.record(Histogram::QueueDepth, depth as u64);
                        }
                        Err(job) => {
                            let id = job.id_hint();
                            drop(job); // releases the in-flight slot
                            self.metrics.add(Counter::BusyRejections, 1);
                            sink.write_response_now(&Response::busy(id));
                        }
                    }
                }
            }
        }
        sink.wait_drained();
        sink.flush();
        // Drained: every session verb from this connection has been
        // answered, so eviction cannot race an in-flight open.
        self.evict_connection_sessions(conn);
        Ok(())
    }

    fn line_too_long_response(&self) -> Response {
        Response::failure_with(
            0,
            error_kind::BAD_REQUEST,
            format!(
                "request line exceeds the {}-byte service limit",
                self.config.max_line_bytes
            ),
        )
    }
}

/// Result of one bounded line read.
enum BoundedLine {
    /// A complete line (without the terminator), within the limit.
    Line(String),
    /// The line exceeded the limit; the rest of it was consumed and dropped.
    TooLong,
    /// End of stream.
    Eof,
}

/// Reads one `\n`-terminated line, buffering at most `limit` bytes. On
/// overflow the remainder of the line is consumed chunk by chunk (constant
/// memory) so the connection can keep being served.
fn read_line_bounded<R: BufRead>(input: &mut R, limit: usize) -> std::io::Result<BoundedLine> {
    let mut line: Vec<u8> = Vec::new();
    let mut discarding = false;
    loop {
        let buf = input.fill_buf()?;
        if buf.is_empty() {
            return Ok(if discarding {
                BoundedLine::TooLong
            } else if line.is_empty() {
                BoundedLine::Eof
            } else {
                BoundedLine::Line(String::from_utf8_lossy(&line).into_owned())
            });
        }
        let newline = buf.iter().position(|&b| b == b'\n');
        let take = newline.map_or(buf.len(), |pos| pos + 1);
        if !discarding {
            let body = newline.map_or(buf.len(), |pos| pos);
            if line.len() + body > limit {
                discarding = true;
                line.clear();
            } else {
                line.extend_from_slice(&buf[..body]);
            }
        }
        input.consume(take);
        if newline.is_some() {
            return Ok(if discarding {
                BoundedLine::TooLong
            } else {
                BoundedLine::Line(String::from_utf8_lossy(&line).into_owned())
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{PipelineConfig, SolverPool};
    use suu_core::InstanceBuilder;
    use suu_workloads::uniform_matrix;

    fn service() -> SchedulerService {
        SchedulerService::new(ServiceConfig::default())
    }

    /// Answers `request` through the line entry point.
    fn handle(svc: &SchedulerService, request: &Request) -> Response {
        let line = serde_json::to_string(request).unwrap();
        serde_json::from_str(&svc.handle_line(&line)).unwrap()
    }

    /// A `Write` into a shared buffer (`serve_lines` owns its writer).
    #[derive(Clone, Default)]
    struct SharedBuf(Arc<Mutex<Vec<u8>>>);

    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// Serves `input` over the stdin transport with one solver thread, so
    /// responses come back in submission order.
    fn serve(svc: &Arc<SchedulerService>, input: &str) -> Vec<Response> {
        let pool = SolverPool::spawn(
            Arc::clone(svc),
            &PipelineConfig {
                solver_threads: 1,
                queue_capacity: 64,
            },
        );
        let out = SharedBuf::default();
        svc.serve_lines(input.as_bytes(), out.clone(), &pool.handle())
            .unwrap();
        pool.shutdown();
        let bytes = out.0.lock().unwrap().clone();
        String::from_utf8(bytes)
            .unwrap()
            .lines()
            .map(|l| serde_json::from_str(l).unwrap())
            .collect()
    }

    fn chain_request(id: u64) -> Request {
        let inst = InstanceBuilder::new(3, 2)
            .probability_matrix(uniform_matrix(3, 2, 0.3, 0.9, 21))
            .chains(&[vec![0, 1, 2]])
            .build()
            .unwrap();
        Request::from_instance(id, &inst)
    }

    #[test]
    fn solve_then_cache_hit() {
        let svc = service();
        let first = handle(&svc, &chain_request(1));
        assert!(first.ok, "error: {:?}", first.error);
        assert_eq!(first.solver.as_deref(), Some("suu-c"));
        assert!(!first.cache_hit);
        assert!(first.schedule_len > 0);
        assert!(first.lp_value.is_some());

        let second = handle(&svc, &chain_request(2));
        assert!(second.ok);
        assert!(second.cache_hit);
        assert_eq!(second.id, 2);
        assert_eq!(second.schedule, first.schedule);
        assert_eq!(svc.cache().hits(), 1);
    }

    #[test]
    fn lp_effort_is_reported_and_aggregated_once() {
        let svc = service();
        let first = handle(&svc, &chain_request(1));
        assert!(first.ok);
        assert_eq!(first.solver.as_deref(), Some("suu-c"));
        let pivots = first.lp_pivots.expect("suu-c reports pivots");
        assert!(pivots > 0);
        assert!(first.lp_micros.is_some());

        // The cache hit repeats the original solve's numbers in the response
        // but must not inflate the aggregate LP counters.
        let second = handle(&svc, &chain_request(2));
        assert!(second.cache_hit);
        assert_eq!(second.lp_pivots, Some(pivots));
        let snap = svc.metrics().snapshot();
        assert_eq!(snap.counter(Counter::LpPivots), pivots as u64);
        assert_eq!(snap.histogram(Histogram::LpMicros).count(), 1);
    }

    #[test]
    fn forced_solver_is_honoured_and_cached_separately() {
        let svc = service();
        let mut auto = chain_request(1);
        auto.solver = None;
        assert_eq!(handle(&svc, &auto).solver.as_deref(), Some("suu-c"));

        let mut forced = chain_request(2);
        forced.solver = Some("serial-baseline".to_string());
        let resp = handle(&svc, &forced);
        assert!(resp.ok);
        assert_eq!(resp.solver.as_deref(), Some("serial-baseline"));
        assert!(
            !resp.cache_hit,
            "forced solver must not reuse suu-c's entry"
        );
    }

    #[test]
    fn unknown_and_unsupported_solvers_error_cleanly() {
        let svc = service();
        let mut req = chain_request(1);
        req.solver = Some("warp-drive".to_string());
        let resp = handle(&svc, &req);
        assert!(!resp.ok);
        assert!(resp.error.unwrap().contains("unknown solver"));

        // suu-i-obl requires independent jobs; this instance is a chain.
        let mut req = chain_request(2);
        req.solver = Some("suu-i-obl".to_string());
        let resp = handle(&svc, &req);
        assert!(!resp.ok);
        assert!(resp.error.unwrap().contains("does not support"));
    }

    #[test]
    fn oversized_and_invalid_requests_error_cleanly() {
        let svc = SchedulerService::new(ServiceConfig {
            max_cells: 4,
            ..ServiceConfig::default()
        });
        let resp = handle(&svc, &chain_request(1)); // 3 x 2 = 6 cells
        assert!(!resp.ok);
        assert!(resp.error.unwrap().contains("too large"));

        let bad = Request {
            id: 2,
            num_jobs: 2,
            num_machines: 1,
            probs: vec![0.5, 0.0],
            edges: Vec::new(),
            solver: None,
            estimate_trials: None,
            options: None,
            base_digest: None,
            delta: None,
        };
        let resp = handle(&svc, &bad);
        assert!(!resp.ok, "job 1 has no capable machine");
    }

    #[test]
    fn estimate_trials_produces_a_finite_estimate() {
        let svc = service();
        let mut req = chain_request(1);
        req.estimate_trials = Some(20);
        let resp = handle(&svc, &req);
        assert!(resp.ok);
        let est = resp.estimated_makespan.unwrap();
        assert!(est.is_finite());
        assert!(est >= 1.0, "three dependent jobs need at least three steps");
    }

    #[test]
    fn censored_estimates_are_withheld_not_zero() {
        // A 1-step horizon censors every trial of a 3-job chain; the response
        // must carry no estimate rather than a misleading ~0.
        let svc = SchedulerService::new(ServiceConfig {
            estimate_max_steps: 1,
            ..ServiceConfig::default()
        });
        let mut req = chain_request(1);
        req.estimate_trials = Some(10);
        let resp = handle(&svc, &req);
        assert!(resp.ok);
        assert_eq!(resp.estimated_makespan, None);
    }

    #[test]
    fn oversized_lines_get_an_error_response_and_service_continues() {
        let svc = Arc::new(SchedulerService::new(ServiceConfig {
            max_line_bytes: 512,
            ..ServiceConfig::default()
        }));
        let good = serde_json::to_string(&chain_request(5)).unwrap();
        assert!(good.len() <= 512, "test request must fit the limit");
        let huge = "x".repeat(10_000);
        let responses = serve(&svc, &format!("{huge}\n{good}\n"));
        assert_eq!(responses.len(), 2);
        let first = &responses[0];
        assert!(!first.ok);
        assert!(first.error.as_ref().unwrap().contains("byte"));
        assert!(
            responses[1].ok,
            "service keeps serving after an oversized line"
        );
    }

    #[test]
    fn oversized_final_line_without_newline_is_rejected() {
        let svc = Arc::new(SchedulerService::new(ServiceConfig {
            max_line_bytes: 64,
            ..ServiceConfig::default()
        }));
        // No trailing newline, over the limit.
        let responses = serve(&svc, &"y".repeat(1_000));
        assert_eq!(responses.len(), 1);
        assert!(!responses[0].ok);
    }

    #[test]
    fn handle_line_survives_garbage() {
        let svc = service();
        let out = svc.handle_line("this is not json");
        let resp: Response = serde_json::from_str(&out).unwrap();
        assert!(!resp.ok);
        assert_eq!(resp.id, 0);
        assert!(resp.error.unwrap().contains("bad request"));
    }

    #[test]
    fn serve_lines_is_one_response_per_request() {
        let svc = Arc::new(service());
        let req = serde_json::to_string(&chain_request(5)).unwrap();
        let responses = serve(&svc, &format!("{req}\n\nnot-json\n{req}\n"));
        assert_eq!(responses.len(), 3, "blank lines are skipped");
        let (first, garbage, third) = (&responses[0], &responses[1], &responses[2]);
        assert!(first.ok && !first.cache_hit);
        assert!(!garbage.ok);
        assert!(third.ok && third.cache_hit);
        assert_eq!(svc.metrics().counter(Counter::Requests), 2);
    }

    fn chain_instance(seed: u64) -> suu_core::SuuInstance {
        InstanceBuilder::new(3, 2)
            .probability_matrix(uniform_matrix(3, 2, 0.3, 0.9, seed))
            .chains(&[vec![0, 1, 2]])
            .build()
            .unwrap()
    }

    #[test]
    fn delta_request_solves_the_edited_instance() {
        use crate::protocol::digest_to_wire;
        use suu_core::InstanceDelta;

        let svc = service();
        let base = chain_instance(21);
        let first = handle(&svc, &Request::from_instance(1, &base));
        assert!(first.ok, "base solve failed: {:?}", first.error);

        let delta = InstanceDelta {
            set_prob: vec![(0, 0, 0.55)],
            ..InstanceDelta::default()
        };
        let edited = base.apply_delta(&delta).unwrap();
        let reference = handle(&svc, &Request::from_instance(2, &edited));
        assert!(reference.ok);

        let via_delta = handle(
            &svc,
            &Request::from_delta(3, base.canonical_digest(), delta),
        );
        assert!(via_delta.ok, "delta solve failed: {:?}", via_delta.error);
        assert_eq!(via_delta.schedule, reference.schedule);
        assert_eq!(via_delta.lp_value, reference.lp_value);
        // The delta child is its own cache entry (post-application digest is
        // the coalescing key), so the second arm above already populated it.
        assert!(via_delta.cache_hit);

        // Sanity on the wire form used above.
        assert_eq!(digest_to_wire(base.canonical_digest()).len(), 16);
    }

    #[test]
    fn unknown_and_malformed_bases_error_with_structured_kinds() {
        use suu_core::InstanceDelta;

        let svc = service();
        let missing = handle(
            &svc,
            &Request::from_delta(7, 0xdead_beef_dead_beef, InstanceDelta::default()),
        );
        assert!(!missing.ok);
        assert_eq!(
            missing.error_kind.as_deref(),
            Some(error_kind::UNKNOWN_BASE)
        );
        assert_eq!(svc.metrics().counter(Counter::UnknownBase), 1);

        let mut malformed = Request::from_delta(8, 0, InstanceDelta::default());
        malformed.base_digest = Some("NOT-A-DIGEST".to_string());
        let resp = handle(&svc, &malformed);
        assert!(!resp.ok);
        assert_eq!(resp.error_kind.as_deref(), Some(error_kind::INVALID_DELTA));
    }

    #[test]
    fn invalid_deltas_error_without_poisoning_the_base() {
        use suu_core::InstanceDelta;

        let svc = service();
        let base = chain_instance(21);
        assert!(handle(&svc, &Request::from_instance(1, &base)).ok);

        let bad = InstanceDelta {
            set_prob: vec![(99, 0, 0.5)],
            ..InstanceDelta::default()
        };
        let resp = handle(&svc, &Request::from_delta(2, base.canonical_digest(), bad));
        assert!(!resp.ok);
        assert_eq!(resp.error_kind.as_deref(), Some(error_kind::INVALID_DELTA));

        // The base is still solvable by digest afterwards.
        let again = handle(
            &svc,
            &Request::from_delta(3, base.canonical_digest(), InstanceDelta::default()),
        );
        assert!(again.ok);
        assert!(again.cache_hit, "empty delta resolves to the cached base");
    }

    #[test]
    fn structural_repeats_warm_start_and_report_it_in_the_trace() {
        let svc = service();
        let options = SolveOptions {
            trace: true,
            ..SolveOptions::default()
        };

        let mut first = Request::from_instance(1, &chain_instance(21));
        first.options = Some(options);
        let cold = handle(&svc, &first);
        assert!(cold.ok, "cold solve failed: {:?}", cold.error);
        assert!(!cold.trace.as_ref().unwrap().warm, "first solve is cold");

        // Same structure, different probabilities: a fresh solve that can
        // start from the first solve's final basis.
        let mut second = Request::from_instance(2, &chain_instance(22));
        second.options = Some(options);
        let warm = handle(&svc, &second);
        assert!(warm.ok, "warm solve failed: {:?}", warm.error);
        assert!(
            warm.trace.as_ref().unwrap().warm,
            "structural repeat should warm-start"
        );
        assert_eq!(svc.metrics().counter(Counter::WarmHits), 1);

        // With warm starts disabled the same traffic stays cold.
        let cold_svc = SchedulerService::new(ServiceConfig {
            warm_starts: false,
            ..ServiceConfig::default()
        });
        for (id, seed) in [(1, 21), (2, 22)] {
            let mut req = Request::from_instance(id, &chain_instance(seed));
            req.options = Some(options);
            let resp = handle(&cold_svc, &req);
            assert!(resp.ok);
            assert!(!resp.trace.as_ref().unwrap().warm);
        }
        assert_eq!(cold_svc.metrics().counter(Counter::WarmHits), 0);

        // Warm and cold services computed identical artifacts.
        let warm_line = handle(&svc, &{
            let mut req = Request::from_instance(9, &chain_instance(22));
            req.options = Some(options);
            req
        });
        let cold_line = handle(&cold_svc, &{
            let mut req = Request::from_instance(9, &chain_instance(22));
            req.options = Some(options);
            req
        });
        // A warm start may land on a different optimal vertex than the cold
        // pivot path (degenerate optima), so the schedules need not be
        // byte-identical — the parity contract is on the objective.
        let warm_obj = warm_line.lp_value.expect("chains solve reports lp_value");
        let cold_obj = cold_line.lp_value.expect("chains solve reports lp_value");
        assert!(
            (warm_obj - cold_obj).abs() <= 1e-9 * cold_obj.abs().max(1.0),
            "warm/cold objective mismatch: {warm_obj} vs {cold_obj}"
        );
    }
}
