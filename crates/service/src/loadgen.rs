//! Load generation: replay workload scenarios against a running service and
//! measure latency and throughput.
//!
//! The generator opens `connections` TCP connections, splits a pre-built
//! request pool across them, optionally paces to a target aggregate request
//! rate, and reports p50/p99 latency plus achieved requests/sec using the
//! statistics substrate from `suu-sim` ([`OnlineStats`] for moments,
//! [`SampleSet`] for order statistics).
//!
//! Two arrival modes, selected by [`LoadgenConfig::max_in_flight`]:
//!
//! * **Closed loop** (`max_in_flight == 1`): each connection sends one
//!   request, waits for its response, then sends the next — the classic
//!   serial client, and the client of the S1b benchmark's baseline arm.
//! * **Open loop** (`max_in_flight > 1`): each connection keeps sending
//!   without waiting, capped at `max_in_flight` outstanding requests, and a
//!   dedicated reader thread matches responses to requests **by id** (the
//!   pipelined service may answer out of order). Structured `busy`
//!   rejections are counted separately from errors.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use serde::Serialize;
use suu_sim::{OnlineStats, SampleSet};
use suu_workloads::{
    bursty_multi_tenant_stream, deadline_burst_stream, flash_crowd_sessions,
    grid_computing_instance, project_management_instance, tenant_drift_stream, BurstConfig,
    DriftConfig, GridConfig, ProjectConfig,
};

use serde::Value;

use crate::protocol::{error_kind, scan_u64_field, Detail, Request, Response, SolveOptions};
use crate::session::{drive_session, DriveConfig};

/// Load-generator configuration.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Address of a running service (`host:port`).
    pub addr: String,
    /// Scenario name: `mixed`, `grid`, `project` or `bursty`.
    pub scenario: String,
    /// Number of concurrent client connections (threads).
    pub connections: usize,
    /// Total number of requests across all connections.
    pub total_requests: usize,
    /// Aggregate target request rate; `None` sends as fast as possible.
    pub target_rps: Option<f64>,
    /// Outstanding-request cap per connection: 1 = closed loop (wait for
    /// each response), >1 = open-loop pipelining matched by response id.
    pub max_in_flight: usize,
    /// Capture a canonical fingerprint of every response payload (id, ok,
    /// solver, schedule) so two runs can be compared modulo ordering.
    pub collect_payloads: bool,
    /// Attach `options.time_budget_ms` to every request: a per-request
    /// deadline relative to service acceptance. Expired requests come back
    /// as `deadline_exceeded` / `budget_exhausted` and are counted in
    /// [`LoadReport::expired`].
    pub deadline_ms: Option<u64>,
    /// Attach `options.detail` to every request (response projection).
    pub detail: Option<Detail>,
    /// Attach `options.trace` to every request and scrape the per-response
    /// `trace` object plus, at the end of the run, the service's `stats`
    /// verb — the server-side latency attribution table in
    /// [`LoadReport::server_stages`].
    pub trace: bool,
    /// Session mode: instead of replaying a request pool, drive
    /// `total_requests` closed-loop adaptive *sessions* (the flash-crowd
    /// scenario family: structurally identical instances, scripted early
    /// machine failure) across `connections` concurrent TCP connections,
    /// measuring revision latency and realized makespans. The pool-shaped
    /// knobs (`target_rps`, `max_in_flight`, `deadline_ms`, `detail`,
    /// `trace`, `collect_payloads`) are ignored in this mode.
    pub session: bool,
    /// Seed for workload sampling.
    pub seed: u64,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:7077".to_string(),
            scenario: "mixed".to_string(),
            connections: 4,
            total_requests: 400,
            target_rps: None,
            max_in_flight: 1,
            collect_payloads: false,
            deadline_ms: None,
            detail: None,
            trace: false,
            session: false,
            seed: 0x10AD,
        }
    }
}

impl LoadgenConfig {
    /// The per-request options this run attaches, `None` when the run is
    /// plain v1 traffic.
    fn request_options(&self) -> Option<SolveOptions> {
        (self.deadline_ms.is_some() || self.detail.is_some() || self.trace).then(|| SolveOptions {
            time_budget_ms: self.deadline_ms,
            detail: self.detail,
            trace: self.trace,
            ..SolveOptions::default()
        })
    }
}

/// One row of a per-stage latency attribution table: which lifecycle stage
/// (queue/parse/solve/render/flush) the time went to. Client rows are built
/// from scraped per-response `trace` objects, server rows from the `stats`
/// verb's per-stage histograms — the two views of the same run that let a
/// benchmark say *where* p99 lives, not just what it is.
#[derive(Debug, Clone, Serialize)]
pub struct StageAttribution {
    /// Stage name (`queue`, `parse`, `solve`, `render`, `flush`).
    pub stage: String,
    /// Samples recorded for this stage.
    pub count: u64,
    /// Mean stage latency in microseconds.
    pub mean_us: f64,
    /// Median stage latency in microseconds.
    pub p50_us: f64,
    /// 99th-percentile stage latency in microseconds.
    pub p99_us: f64,
}

/// Aggregated result of one load-generation run. Flat numeric fields so the
/// report serialises directly into `BENCH_service_throughput.json`.
#[derive(Debug, Clone, Serialize)]
pub struct LoadReport {
    /// Scenario that was replayed.
    pub scenario: String,
    /// Client connections used.
    pub connections: usize,
    /// Outstanding-request cap per connection (1 = closed loop).
    pub max_in_flight: usize,
    /// Requests sent.
    pub sent: u64,
    /// Successful responses.
    pub ok: u64,
    /// Error responses (or response parse failures), excluding `busy`.
    pub errors: u64,
    /// Structured `busy` rejections from admission control.
    pub busy: u64,
    /// Requests whose deadline or budget ran out (`deadline_exceeded` or
    /// `budget_exhausted` responses); like `busy`, counted separately from
    /// `errors`.
    pub expired: u64,
    /// Successful responses answered by the degraded serial-baseline
    /// fallback (`degraded: true`); these are also counted in `ok`.
    pub degraded: u64,
    /// Responses served from the schedule cache (including coalesced waits).
    pub cache_hits: u64,
    /// Total response-line bytes received (NDJSON lines without the
    /// terminator) — the payload-size lever the `detail` projection pulls.
    pub response_bytes: u64,
    /// Wall-clock duration of the run in seconds.
    pub wall_secs: f64,
    /// Achieved aggregate request rate.
    pub achieved_rps: f64,
    /// Target rate, if pacing was requested.
    pub target_rps: Option<f64>,
    /// Mean end-to-end latency in microseconds.
    pub mean_micros: f64,
    /// Median end-to-end latency in microseconds.
    pub p50_micros: f64,
    /// 99th-percentile end-to-end latency in microseconds.
    pub p99_micros: f64,
    /// Worst observed latency in microseconds.
    pub max_micros: f64,
    /// Successful responses that carried a `trace` object (only requests sent
    /// with `options.trace` produce one).
    pub traced: u64,
    /// Traced successful responses whose schedule was computed from a warm
    /// start (`trace.warm == true`); cache hits repeat the original solve's
    /// value.
    pub warm_responses: u64,
    /// The service's lifetime `warm_hits` counter from the end-of-run
    /// `stats` scrape (fresh solves that started from a cached basis).
    pub server_warm_hits: Option<u64>,
    /// Client-side per-stage attribution, aggregated from the scraped
    /// per-response `trace` objects. Empty when tracing was off.
    pub client_stages: Vec<StageAttribution>,
    /// Server-side per-stage attribution from the end-of-run `stats` scrape.
    /// Empty when tracing was off or the scrape failed.
    pub server_stages: Vec<StageAttribution>,
    /// The service's lifetime `requests` counter from the end-of-run `stats`
    /// scrape; every handled request records the `solve` stage exactly once,
    /// so this must equal the server-side `solve` row's count.
    pub server_requests: Option<u64>,
    /// Canonical per-response fingerprints (sorted), when
    /// [`LoadgenConfig::collect_payloads`] was set: two runs over the same
    /// pool produced identical payloads iff these vectors are equal.
    pub payloads: Option<Vec<String>>,
    /// Session mode: adaptive sessions driven to completion (0 in pool
    /// mode). In session mode `ok` counts sessions whose execution finished
    /// within the step horizon and `errors` counts sessions that failed to
    /// open or were cut off.
    pub sessions: u64,
    /// Session mode: schedule revisions received across all sessions.
    pub revisions: u64,
    /// Session mode: revisions whose suffix solve was warm-started.
    pub revision_warm: u64,
    /// Session mode: `unknown_session` errors observed (0 in a healthy run).
    pub unknown_session: u64,
    /// Session mode: median revision round-trip latency in microseconds.
    pub revision_p50_us: f64,
    /// Session mode: 99th-percentile revision round-trip latency.
    pub revision_p99_us: f64,
    /// Session mode: mean realized makespan (steps) over completed sessions.
    pub realized_makespan_mean: f64,
}

impl LoadReport {
    /// Renders a compact human-readable summary. When tracing was on, the
    /// attribution tables and a greppable `stats_consistency=` verdict line
    /// (server `requests` counter vs the `solve` stage count) are appended.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = format!(
            "scenario={} connections={} max_in_flight={} sent={} ok={} errors={} busy={} \
             expired={} degraded={} cache_hits={} response_bytes={}\n\
             wall={:.2}s achieved={:.1} req/s (target {})\n\
             latency: mean={:.0}us p50={:.0}us p99={:.0}us max={:.0}us",
            self.scenario,
            self.connections,
            self.max_in_flight,
            self.sent,
            self.ok,
            self.errors,
            self.busy,
            self.expired,
            self.degraded,
            self.cache_hits,
            self.response_bytes,
            self.wall_secs,
            self.achieved_rps,
            self.target_rps
                .map_or_else(|| "unbounded".to_string(), |r| format!("{r:.1} req/s")),
            self.mean_micros,
            self.p50_micros,
            self.p99_micros,
            self.max_micros,
        );
        if self.sessions > 0 {
            out.push_str(&format!(
                "\nsessions={} revisions={} revision_warm={} unknown_session={}\n\
                 revision latency: p50={:.0}us p99={:.0}us; realized makespan mean={:.1} steps",
                self.sessions,
                self.revisions,
                self.revision_warm,
                self.unknown_session,
                self.revision_p50_us,
                self.revision_p99_us,
                self.realized_makespan_mean,
            ));
        }
        if self.traced > 0 {
            out.push_str(&format!("\ntraced={}", self.traced));
        }
        if self.warm_responses > 0 || self.server_warm_hits.is_some() {
            out.push_str(&format!(
                "\nwarm_responses={} warm_hits={}",
                self.warm_responses,
                self.server_warm_hits.unwrap_or(0)
            ));
        }
        for (label, stages) in [
            ("client", &self.client_stages),
            ("server", &self.server_stages),
        ] {
            for row in stages {
                out.push_str(&format!(
                    "\n{label} stage {}: n={} mean={:.0}us p50={:.0}us p99={:.0}us",
                    row.stage, row.count, row.mean_us, row.p50_us, row.p99_us
                ));
            }
        }
        if let Some(server_requests) = self.server_requests {
            let solve_count = self
                .server_stages
                .iter()
                .find(|row| row.stage == "solve")
                .map_or(0, |row| row.count);
            let verdict = if solve_count == server_requests {
                "ok"
            } else {
                "mismatch"
            };
            out.push_str(&format!(
                "\nstats_consistency={verdict} server_requests={server_requests} \
                 solve_stage_count={solve_count}"
            ));
        }
        out
    }
}

/// Builds the request pool for a scenario.
///
/// Instances are kept small (serving-sized): the pool repeats a bounded set
/// of distinct instances, which is exactly the shape real serving traffic
/// has and what the schedule cache exploits.
///
/// # Errors
///
/// Returns a message naming the valid scenarios when `scenario` is unknown.
pub fn build_request_pool(
    scenario: &str,
    total_requests: usize,
    seed: u64,
) -> Result<Vec<Request>, String> {
    let instances = match scenario {
        "grid" => (0..4)
            .map(|k| {
                grid_computing_instance(&GridConfig {
                    num_jobs: 8 + 2 * k,
                    num_machines: 4,
                    num_task_roots: 2,
                    seed: seed ^ k as u64,
                    ..GridConfig::default()
                })
            })
            .collect::<Vec<_>>(),
        "project" => (0..4)
            .map(|k| {
                project_management_instance(&ProjectConfig {
                    num_tasks: 8 + 2 * k,
                    num_workers: 4,
                    num_streams: 2,
                    seed: seed ^ (0x100 + k as u64),
                })
            })
            .collect::<Vec<_>>(),
        "deadline" => {
            // The deadline-burst scenario: bursts of LP-backed tenants sized
            // so a fresh solve takes real time — replayed with a tight
            // `--deadline-ms`, the tail of each burst expires in the queue
            // and exercises the dequeue-time drop path.
            let config = BurstConfig {
                num_tenants: (total_requests / 25).clamp(4, 16),
                jobs: (24, 40),
                machines: (4, 6),
                seed,
                ..BurstConfig::default()
            };
            let (tenants, stream) = deadline_burst_stream(&config);
            return Ok((0..total_requests)
                .map(|k| Request::from_instance(k as u64 + 1, &tenants[stream[k % stream.len()]]))
                .collect());
        }
        "tenant_drift" => {
            // The warm-start scenario: a few long-lived tenants prime the
            // cache with full payloads, then ~95% of the traffic is one-cell
            // `set_prob` deltas against those bases — each a *distinct*
            // instance (no cache hits) inside an unchanged structural class
            // (every solve warm-starts from the tenant's cached basis).
            let (tenants, stream) = tenant_drift_stream(&drift_config(total_requests, seed));
            return Ok(stream
                .iter()
                .enumerate()
                .map(|(k, event)| {
                    let id = k as u64 + 1;
                    match &event.edit {
                        Some(delta) => Request::from_delta(
                            id,
                            tenants[event.tenant].canonical_digest(),
                            delta.clone(),
                        ),
                        None => Request::from_instance(id, &tenants[event.tenant]),
                    }
                })
                .collect());
        }
        "bursty" | "mixed" => {
            let mut config = BurstConfig {
                seed,
                ..BurstConfig::default()
            };
            if scenario == "mixed" {
                // Mixed bursts: more tenants, so the stream interleaves all
                // three structural classes within every few requests.
                config.num_tenants = 9;
                config.jobs = (4, 8);
                config.machines = (2, 4);
            } else {
                // Bursty: scale the tenant population with the pool size so
                // longer runs keep introducing fresh tenants (and their
                // first-burst duplicate solves) instead of devolving into a
                // pure cache-hit replay after the first few dozen requests,
                // and size the tenants like real multi-tenant traffic —
                // large enough that a fresh LP solve visibly dominates a
                // cache hit, which is exactly the regime where coalescing
                // connections racing the same burst saves whole solves.
                config.num_tenants = (total_requests / 25).clamp(6, 32);
                config.jobs = (24, 40);
                config.machines = (4, 6);
            }
            let (tenants, stream) = bursty_multi_tenant_stream(&config);
            return Ok((0..total_requests)
                .map(|k| Request::from_instance(k as u64 + 1, &tenants[stream[k % stream.len()]]))
                .collect());
        }
        other => {
            return Err(format!(
                "unknown scenario `{other}`; expected one of: mixed, grid, project, bursty, \
                 deadline, tenant_drift"
            ))
        }
    };
    Ok((0..total_requests)
        .map(|k| Request::from_instance(k as u64 + 1, &instances[k % instances.len()]))
        .collect())
}

/// The drift-stream shape behind the `tenant_drift` scenario, shared with
/// [`tenant_drift_bases`] so priming and replay agree on the tenant set.
fn drift_config(total_requests: usize, seed: u64) -> DriftConfig {
    DriftConfig {
        num_tenants: (total_requests / 50).clamp(2, 8),
        requests: total_requests,
        seed,
        ..DriftConfig::default()
    }
}

/// The tenant base instances the `tenant_drift` scenario drifts against,
/// for the same `(total_requests, seed)` the pool is built from. A
/// benchmark primes a service's cache with these before replaying the
/// stream, so no delta ever races its parent's first solve.
#[must_use]
pub fn tenant_drift_bases(total_requests: usize, seed: u64) -> Vec<suu_core::SuuInstance> {
    tenant_drift_stream(&drift_config(total_requests, seed)).0
}

/// The stage names a per-response `trace` object attributes time to, in wire
/// order. (`parse` and `flush` are server-side-only stages: they are never
/// echoed per response, only aggregated in the `stats` histograms.)
const TRACE_STAGES: [&str; 3] = ["queue", "solve", "render"];

/// The stage latencies scraped from one response's `trace` object, in
/// [`TRACE_STAGES`] order.
#[derive(Debug, Clone, Copy)]
struct TraceSample([u64; TRACE_STAGES.len()]);

#[derive(Default)]
struct ThreadOutcome {
    sent: u64,
    ok: u64,
    errors: u64,
    busy: u64,
    expired: u64,
    degraded: u64,
    cache_hits: u64,
    traced: u64,
    warm: u64,
    response_bytes: u64,
    latency: OnlineStats,
    samples: SampleSet,
    stage_latency: [OnlineStats; TRACE_STAGES.len()],
    stage_samples: [SampleSet; TRACE_STAGES.len()],
    payloads: Vec<String>,
}

impl ThreadOutcome {
    /// Records one response; `micros` is the end-to-end latency when the
    /// response could be matched to its request.
    fn record(&mut self, response: Option<&ResponseSummary>, micros: Option<f64>) {
        if let Some(micros) = micros {
            self.latency.push(micros);
            self.samples.push(micros);
        }
        match response {
            Some(resp) if resp.ok => {
                self.ok += 1;
                if resp.cache_hit {
                    self.cache_hits += 1;
                }
                if resp.degraded {
                    self.degraded += 1;
                }
                if let Some(trace) = resp.trace {
                    self.traced += 1;
                    for (i, &stage_us) in trace.0.iter().enumerate() {
                        self.stage_latency[i].push(stage_us as f64);
                        self.stage_samples[i].push(stage_us as f64);
                    }
                }
                if resp.warm {
                    self.warm += 1;
                }
            }
            Some(resp) if resp.busy => self.busy += 1,
            Some(resp) if resp.expired => self.expired += 1,
            _ => self.errors += 1,
        }
    }
}

/// The per-response facts the load generator acts on.
struct ResponseSummary {
    id: u64,
    ok: bool,
    busy: bool,
    /// `deadline_exceeded` or `budget_exhausted`.
    expired: bool,
    /// Successful response answered by the degraded fallback.
    degraded: bool,
    cache_hit: bool,
    /// The `trace` object reported a warm-started solve.
    warm: bool,
    /// Stage latencies from the `trace` object, when the request opted in.
    trace: Option<TraceSample>,
}

/// Digests one response line: a cheap field scan by default, a full parse
/// (plus payload fingerprint) when `fingerprint` is requested. A load
/// generator that deserialised every multi-kilobyte schedule would measure
/// its own JSON parser rather than the service, so — like any serious load
/// tool — the hot path only scans for the envelope fields it needs. The
/// scan is exact: inside JSON string values every `"` is escaped as `\"`,
/// so the unescaped patterns below cannot occur anywhere but the envelope.
fn digest_response_line(
    line: &str,
    fingerprint: bool,
) -> (Option<ResponseSummary>, Option<String>) {
    if fingerprint {
        match serde_json::from_str::<Response>(line) {
            Ok(resp) => {
                let kind = resp.error_kind.as_deref();
                let summary = ResponseSummary {
                    id: resp.id,
                    ok: resp.ok,
                    busy: resp.is_busy(),
                    expired: matches!(
                        kind,
                        Some(error_kind::DEADLINE_EXCEEDED | error_kind::BUDGET_EXHAUSTED)
                    ),
                    degraded: resp.degraded,
                    cache_hit: resp.cache_hit,
                    warm: resp.trace.as_ref().is_some_and(|t| t.warm),
                    trace: resp
                        .trace
                        .as_ref()
                        .map(|t| TraceSample([t.queue_us, t.solve_us, t.render_us])),
                };
                let fp = payload_fingerprint(&resp);
                (Some(summary), Some(fp))
            }
            Err(_) => (None, None),
        }
    } else {
        (scan_response(line), None)
    }
}

/// Extracts id/ok/busy/cache_hit (and the `trace` object, when present) from
/// a response line without building the JSON tree. Returns `None` if the
/// line does not look like a response.
///
/// The envelope fields sit within a short prefix (`id`, `ok`, `error_kind`)
/// or suffix (`cache_hit` in the spliced rendering) of the line, so the scan
/// inspects two small windows instead of walking a multi-kilobyte schedule;
/// a long error message can push fields past the windows, in which case the
/// scan falls back to the full line. The tail window is sized so that the
/// opt-in `trace` object (spliced last, ~120 bytes) cannot push `cache_hit`
/// out of it.
fn scan_response(line: &str) -> Option<ResponseSummary> {
    // Clamp to char boundaries: error messages may echo non-ASCII input.
    let mut head_end = line.len().min(192);
    while !line.is_char_boundary(head_end) {
        head_end -= 1;
    }
    let mut tail_start = line.len().saturating_sub(320);
    while !line.is_char_boundary(tail_start) {
        tail_start += 1;
    }
    let head = &line[..head_end];
    let tail = &line[tail_start..];
    let windows_contain =
        |needle: &str| head.contains(needle) || tail.contains(needle) || line.contains(needle);
    // Locate a key in one of the windows and report whether its value starts
    // with `true` — without ever walking the full line, since every response
    // rendering keeps its envelope fields inside the windows.
    let windows_flag = |key: &str| {
        [head, tail]
            .iter()
            .find_map(|w| {
                w.find(key)
                    .map(|at| w[at + key.len()..].starts_with("true"))
            })
            .unwrap_or(false)
    };

    let id_at = head.find("\"id\":")? + 5;
    let rest = line[id_at..].trim_start();
    let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
    let id: u64 = digits.parse().ok()?;
    let ok = if head.contains("\"ok\":true") {
        true
    } else if head.contains("\"ok\":false") {
        false
    } else {
        return None;
    };
    // Successful responses never carry an error_kind, so the (full-line
    // fallback) busy/expired probes only ever run on short error lines.
    let busy = !ok && windows_contain("\"error_kind\":\"busy\"");
    let expired = !ok
        && (windows_contain("\"error_kind\":\"deadline_exceeded\"")
            || windows_contain("\"error_kind\":\"budget_exhausted\""));
    // `degraded` is spliced after `service_micros`, i.e. within the tail
    // window of every response rendering.
    let degraded = ok && windows_flag("\"degraded\":");
    let cache_hit = ok && windows_flag("\"cache_hit\":");
    // `warm` lives inside the trace object, which is spliced last and so
    // always sits in the tail window.
    let warm = ok && windows_flag("\"warm\":");
    // The trace object is spliced last, so it always sits in the tail window;
    // scan its stage fields relative to the `"trace"` key so a request id or
    // pivot count elsewhere on the line cannot be misread as a stage.
    let trace = if ok {
        tail.find("\"trace\":{").and_then(|at| {
            let obj = &tail[at..];
            let mut stages = [0u64; TRACE_STAGES.len()];
            for (slot, key) in
                stages
                    .iter_mut()
                    .zip(["\"queue_us\":", "\"solve_us\":", "\"render_us\":"])
            {
                *slot = scan_u64_field(obj, key)?;
            }
            Some(TraceSample(stages))
        })
    } else {
        None
    };
    Some(ResponseSummary {
        id,
        ok,
        busy,
        expired,
        degraded,
        cache_hit,
        warm,
        trace,
    })
}

/// A canonical fingerprint of the parts of a response that must not depend
/// on how the service was sized or loaded: id, outcome, solver and the
/// schedule itself. Excludes `cache_hit`, timings and error phrasing, which
/// legitimately vary.
fn payload_fingerprint(resp: &Response) -> String {
    let schedule_digest = resp.schedule.as_ref().map_or(0, |schedule| {
        let rendered = serde_json::to_string(schedule).expect("schedules serialise");
        crate::fnv1a(rendered.as_bytes())
    });
    format!(
        "{}|ok={}|solver={}|len={}|sched={:016x}",
        resp.id,
        resp.ok,
        resp.solver.as_deref().unwrap_or("-"),
        resp.schedule_len,
        schedule_digest
    )
}

/// Per-connection slice of the pool: `(pacing index, request id, line)`.
type Assigned = Vec<(usize, u64, String)>;

/// The open-loop in-flight window, with hysteresis: once the writer hits the
/// cap it parks until the window has drained to half, then sends the next
/// half-burst. Without the low-water mark the steady state degenerates into
/// one wake + one flush per response (the reader frees a slot, the writer
/// sends exactly one request and blocks again), which costs more than the
/// pipelining saves; with it, flushes and wakeups are amortised over
/// `cap/2` requests.
struct InFlightGate {
    cap: usize,
    low: usize,
    count: Mutex<usize>,
    resumable: Condvar,
}

impl InFlightGate {
    fn new(cap: usize) -> Self {
        Self {
            cap,
            low: cap / 2,
            count: Mutex::new(0),
            resumable: Condvar::new(),
        }
    }

    /// Takes a slot if the window is open; `false` means the cap is reached
    /// (the caller should flush, then [`acquire_blocking`](Self::acquire_blocking)).
    fn try_acquire(&self) -> bool {
        let mut count = self.count.lock().expect("in-flight gate poisoned");
        if *count >= self.cap {
            return false;
        }
        *count += 1;
        true
    }

    /// Parks until the window drains to the low-water mark, then takes a slot.
    fn acquire_blocking(&self) {
        let mut count = self.count.lock().expect("in-flight gate poisoned");
        while *count > self.low {
            count = self
                .resumable
                .wait(count)
                .expect("in-flight gate poisoned while waiting");
        }
        *count += 1;
    }

    /// Returns a slot; wakes the writer exactly when the window reaches the
    /// low-water mark (one wakeup per half-burst, not one per response).
    fn release(&self) {
        let mut count = self.count.lock().expect("in-flight gate poisoned");
        *count -= 1;
        if *count == self.low {
            drop(count);
            self.resumable.notify_one();
        }
    }
}

/// Runs the load generator against a running service.
///
/// # Errors
///
/// Returns connection errors, a scenario error as `InvalidInput`, or the
/// first worker I/O error.
pub fn run_loadgen(config: &LoadgenConfig) -> std::io::Result<LoadReport> {
    if config.session {
        return run_session_mode(config);
    }
    let mut pool = build_request_pool(&config.scenario, config.total_requests, config.seed)
        .map_err(|msg| std::io::Error::new(std::io::ErrorKind::InvalidInput, msg))?;
    if let Some(options) = config.request_options() {
        for request in &mut pool {
            request.options = Some(options);
        }
    }
    let lines: Vec<(u64, String)> = pool
        .iter()
        .map(|r| (r.id, serde_json::to_string(r).expect("requests serialise")))
        .collect();
    let connections = config.connections.max(1);
    let max_in_flight = config.max_in_flight.max(1);
    // Interval between sends on one connection when pacing to the aggregate
    // target rate.
    let per_thread_interval = config
        .target_rps
        .filter(|&rps| rps > 0.0)
        .map(|rps| Duration::from_secs_f64(connections as f64 / rps));

    // Delta scenarios lead with full priming payloads whose solves establish
    // the bases the deltas reference. Replay that prefix serially before
    // opening the concurrent phase: a delta racing its own tenant's priming
    // solve across connections would draw a spurious `unknown_base` that no
    // real client (which submits a base, then edits it) ever sees.
    let prime_len = if pool.iter().any(|r| r.base_digest.is_some()) {
        pool.iter().take_while(|r| r.base_digest.is_none()).count()
    } else {
        0
    };

    let outcomes: Arc<Mutex<Vec<ThreadOutcome>>> = Arc::new(Mutex::new(Vec::new()));

    if prime_len > 0 {
        let assigned: Assigned = lines[..prime_len]
            .iter()
            .enumerate()
            .map(|(k, (id, line))| (k, *id, line.clone()))
            .collect();
        let outcome = run_closed_loop(
            &config.addr,
            &assigned,
            per_thread_interval,
            config.collect_payloads,
        )?;
        outcomes.lock().expect("outcomes poisoned").push(outcome);
    }

    // The throughput clock starts after priming: the serial prefix is
    // warm-up traffic that establishes state, not part of the steady-state
    // workload whose rate the report measures.
    let start = Instant::now();

    let mut handles = Vec::new();
    for worker in 0..connections {
        // Round-robin partition of the (post-priming) pool across
        // connections.
        let assigned: Assigned = lines[prime_len..]
            .iter()
            .enumerate()
            .filter(|(k, _)| k % connections == worker)
            .map(|(k, (id, line))| (k / connections, *id, line.clone()))
            .collect();
        let outcomes = Arc::clone(&outcomes);
        let addr = config.addr.clone();
        let fingerprint = config.collect_payloads;
        handles.push(std::thread::spawn(move || -> std::io::Result<()> {
            let outcome = if max_in_flight <= 1 {
                run_closed_loop(&addr, &assigned, per_thread_interval, fingerprint)?
            } else {
                run_open_loop(
                    &addr,
                    &assigned,
                    per_thread_interval,
                    max_in_flight,
                    fingerprint,
                )?
            };
            outcomes.lock().expect("outcomes poisoned").push(outcome);
            Ok(())
        }));
    }

    let mut first_error: Option<std::io::Error> = None;
    for handle in handles {
        match handle.join() {
            Ok(Ok(())) => {}
            Ok(Err(err)) => first_error = first_error.or(Some(err)),
            Err(_) => {
                first_error = first_error
                    .or_else(|| Some(std::io::Error::other("load generator worker panicked")));
            }
        }
    }
    if let Some(err) = first_error {
        return Err(err);
    }

    let wall_secs = start.elapsed().as_secs_f64();
    let mut latency = OnlineStats::new();
    let mut samples = SampleSet::new();
    let mut payloads = Vec::new();
    let mut stage_latency: [OnlineStats; TRACE_STAGES.len()] = Default::default();
    let mut stage_samples: [SampleSet; TRACE_STAGES.len()] = Default::default();
    let (mut sent, mut ok, mut errors, mut busy) = (0, 0, 0, 0);
    let (mut expired, mut degraded, mut cache_hits, mut response_bytes) = (0, 0, 0, 0);
    let mut traced = 0;
    let mut warm_responses = 0;
    for outcome in outcomes.lock().expect("outcomes poisoned").iter_mut() {
        sent += outcome.sent;
        ok += outcome.ok;
        errors += outcome.errors;
        busy += outcome.busy;
        expired += outcome.expired;
        degraded += outcome.degraded;
        cache_hits += outcome.cache_hits;
        traced += outcome.traced;
        warm_responses += outcome.warm;
        response_bytes += outcome.response_bytes;
        latency.merge(&outcome.latency);
        samples.merge(&outcome.samples);
        for i in 0..TRACE_STAGES.len() {
            stage_latency[i].merge(&outcome.stage_latency[i]);
            stage_samples[i].merge(&outcome.stage_samples[i]);
        }
        payloads.append(&mut outcome.payloads);
    }
    payloads.sort_unstable();

    let client_stages: Vec<StageAttribution> = if traced > 0 {
        TRACE_STAGES
            .iter()
            .enumerate()
            .map(|(i, stage)| StageAttribution {
                stage: (*stage).to_string(),
                count: stage_latency[i].count(),
                mean_us: stage_latency[i].mean(),
                p50_us: stage_samples[i].p50().unwrap_or(0.0),
                p99_us: stage_samples[i].p99().unwrap_or(0.0),
            })
            .collect()
    } else {
        Vec::new()
    };
    // End-of-run server-side attribution: ask the service itself where the
    // time went. The scrape rides a fresh connection so it cannot disturb the
    // measured ones, and failure is tolerated — a report without server rows
    // is still a report.
    let (server_requests, server_warm_hits, server_stages) = if config.trace {
        scrape_stats(&config.addr).map_or((None, None, Vec::new()), |stats| {
            (
                scrape_counter(&stats, "requests"),
                scrape_counter(&stats, "warm_hits"),
                stage_rows(&stats),
            )
        })
    } else {
        (None, None, Vec::new())
    };

    Ok(LoadReport {
        scenario: config.scenario.clone(),
        connections,
        max_in_flight,
        sent,
        ok,
        errors,
        busy,
        expired,
        degraded,
        cache_hits,
        response_bytes,
        wall_secs,
        achieved_rps: if wall_secs > 0.0 {
            sent as f64 / wall_secs
        } else {
            0.0
        },
        target_rps: config.target_rps,
        mean_micros: latency.mean(),
        p50_micros: samples.p50().unwrap_or(0.0),
        p99_micros: samples.p99().unwrap_or(0.0),
        max_micros: if latency.count() > 0 {
            latency.max()
        } else {
            0.0
        },
        traced,
        warm_responses,
        server_warm_hits,
        client_stages,
        server_stages,
        server_requests,
        payloads: config.collect_payloads.then_some(payloads),
        sessions: 0,
        revisions: 0,
        revision_warm: 0,
        unknown_session: 0,
        revision_p50_us: 0.0,
        revision_p99_us: 0.0,
        realized_makespan_mean: 0.0,
    })
}

/// Per-thread tally of the session mode.
#[derive(Default)]
struct SessionOutcome {
    sent: u64,
    completed: u64,
    errors: u64,
    revisions: u64,
    warm: u64,
    unknown_session: u64,
    revision_latency: OnlineStats,
    revision_samples: SampleSet,
    realized: OnlineStats,
}

/// The session mode behind [`LoadgenConfig::session`]: `total_requests`
/// flash-crowd sessions split round-robin over `connections` concurrent TCP
/// connections, each driven closed-loop to completion by
/// [`drive_session`] (execute a step, report completions and the scripted
/// failure, install each revision). Because the flash-crowd instances repeat
/// structurally, revisions across sessions warm-start from each other's
/// cached bases — the cross-session warm-hit traffic the subsystem is
/// designed around.
fn run_session_mode(config: &LoadgenConfig) -> std::io::Result<LoadReport> {
    let total_sessions = config.total_requests.max(1);
    let scenarios = flash_crowd_sessions(total_sessions, config.seed);
    let connections = config.connections.max(1).min(total_sessions);
    let outcomes: Arc<Mutex<Vec<SessionOutcome>>> = Arc::new(Mutex::new(Vec::new()));
    let start = Instant::now();

    let mut handles = Vec::new();
    for worker in 0..connections {
        let assigned: Vec<_> = scenarios
            .iter()
            .enumerate()
            .filter(|(k, _)| k % connections == worker)
            .map(|(k, sc)| (k, sc.clone()))
            .collect();
        let outcomes = Arc::clone(&outcomes);
        let addr = config.addr.clone();
        let seed = config.seed;
        handles.push(std::thread::spawn(move || -> std::io::Result<()> {
            let stream = TcpStream::connect(&addr)?;
            stream.set_nodelay(true)?;
            let mut reader = BufReader::new(stream.try_clone()?);
            let mut writer = BufWriter::new(stream);
            let mut outcome = SessionOutcome::default();
            for (k, scenario) in assigned {
                let drive = DriveConfig {
                    seed: seed.wrapping_add(k as u64),
                    max_steps: 10_000,
                    report_completions: true,
                    failures: scenario.failures.clone(),
                    drifts: scenario.drifts.clone(),
                };
                let run = drive_session(&scenario.instance, &drive, |line| {
                    outcome.sent += 1;
                    writeln!(writer, "{line}").ok()?;
                    writer.flush().ok()?;
                    let mut reply = String::new();
                    let n = reader.read_line(&mut reply).ok()?;
                    (n > 0).then(|| reply.trim_end().to_string())
                });
                match run {
                    Ok(report) => {
                        if report.steps.is_some() {
                            outcome.completed += 1;
                        } else {
                            outcome.errors += 1;
                        }
                        outcome.revisions += report.revisions;
                        outcome.warm += report.warm_revisions;
                        outcome.unknown_session += report.unknown_session_errors;
                        for &micros in &report.revision_micros {
                            outcome.revision_latency.push(micros as f64);
                            outcome.revision_samples.push(micros as f64);
                        }
                        if let Some(steps) = report.steps {
                            outcome.realized.push(steps as f64);
                        }
                    }
                    Err(_) => outcome.errors += 1,
                }
            }
            outcomes.lock().expect("outcomes poisoned").push(outcome);
            Ok(())
        }));
    }

    let mut first_error: Option<std::io::Error> = None;
    for handle in handles {
        match handle.join() {
            Ok(Ok(())) => {}
            Ok(Err(err)) => first_error = first_error.or(Some(err)),
            Err(_) => {
                first_error =
                    first_error.or_else(|| Some(std::io::Error::other("session worker panicked")));
            }
        }
    }
    if let Some(err) = first_error {
        return Err(err);
    }
    let wall_secs = start.elapsed().as_secs_f64();

    let mut revision_latency = OnlineStats::new();
    let mut revision_samples = SampleSet::new();
    let mut realized = OnlineStats::new();
    let (mut sent, mut completed, mut errors) = (0, 0, 0);
    let (mut revisions, mut warm, mut unknown) = (0, 0, 0);
    for outcome in outcomes.lock().expect("outcomes poisoned").iter() {
        sent += outcome.sent;
        completed += outcome.completed;
        errors += outcome.errors;
        revisions += outcome.revisions;
        warm += outcome.warm;
        unknown += outcome.unknown_session;
        revision_latency.merge(&outcome.revision_latency);
        revision_samples.merge(&outcome.revision_samples);
        realized.merge(&outcome.realized);
    }

    Ok(LoadReport {
        scenario: "session_flash_crowd".to_string(),
        connections,
        max_in_flight: 1,
        sent,
        ok: completed,
        errors,
        busy: 0,
        expired: 0,
        degraded: 0,
        cache_hits: 0,
        response_bytes: 0,
        wall_secs,
        achieved_rps: if wall_secs > 0.0 {
            sent as f64 / wall_secs
        } else {
            0.0
        },
        target_rps: None,
        mean_micros: revision_latency.mean(),
        p50_micros: revision_samples.p50().unwrap_or(0.0),
        p99_micros: revision_samples.p99().unwrap_or(0.0),
        max_micros: if revision_latency.count() > 0 {
            revision_latency.max()
        } else {
            0.0
        },
        traced: 0,
        warm_responses: 0,
        server_warm_hits: None,
        client_stages: Vec::new(),
        server_stages: Vec::new(),
        server_requests: None,
        payloads: None,
        sessions: total_sessions as u64,
        revisions,
        revision_warm: warm,
        unknown_session: unknown,
        revision_p50_us: revision_samples.p50().unwrap_or(0.0),
        revision_p99_us: revision_samples.p99().unwrap_or(0.0),
        realized_makespan_mean: realized.mean(),
    })
}

/// Sends one `stats` verb over a fresh connection and returns the parsed
/// `stats` object. Any failure — refused connection, closed socket,
/// malformed reply — yields `None`: observability must never fail a run.
fn scrape_stats(addr: &str) -> Option<Value> {
    let stream = TcpStream::connect(addr).ok()?;
    stream.set_nodelay(true).ok()?;
    let mut reader = BufReader::new(stream.try_clone().ok()?);
    let mut writer = BufWriter::new(stream);
    writeln!(writer, "{{\"id\":0,\"verb\":\"stats\"}}").ok()?;
    writer.flush().ok()?;
    let mut line = String::new();
    reader.read_line(&mut line).ok()?;
    let value = serde_json::parse(line.trim_end()).ok()?;
    value.get("stats").cloned()
}

/// Reads one top-level counter out of a scraped `stats` object.
fn scrape_counter(stats: &Value, key: &str) -> Option<u64> {
    match stats.get(key)? {
        Value::Number(n) => Some(*n as u64),
        _ => None,
    }
}

/// Converts the `stages` histograms of a scraped `stats` object into
/// attribution rows, preserving the service's queue→flush stage order.
fn stage_rows(stats: &Value) -> Vec<StageAttribution> {
    let Some(Value::Object(stages)) = stats.get("stages") else {
        return Vec::new();
    };
    let number = |hist: &Value, key: &str| match hist.get(key) {
        Some(Value::Number(n)) => *n,
        _ => 0.0,
    };
    stages
        .iter()
        .map(|(stage, hist)| StageAttribution {
            stage: stage.clone(),
            count: number(hist, "count") as u64,
            mean_us: number(hist, "mean"),
            p50_us: number(hist, "p50"),
            p99_us: number(hist, "p99"),
        })
        .collect()
}

/// One request outstanding at a time: send, wait for the response, repeat.
fn run_closed_loop(
    addr: &str,
    assigned: &Assigned,
    interval: Option<Duration>,
    fingerprint: bool,
) -> std::io::Result<ThreadOutcome> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = BufWriter::new(stream);
    let mut outcome = ThreadOutcome::default();
    let thread_start = Instant::now();
    for (k, _, line) in assigned {
        if let Some(interval) = interval {
            let due = interval.mul_f64(*k as f64);
            let elapsed = thread_start.elapsed();
            if due > elapsed {
                std::thread::sleep(due - elapsed);
            }
        }
        let sent_at = Instant::now();
        writeln!(writer, "{line}")?;
        writer.flush()?;
        let mut response = String::new();
        reader.read_line(&mut response)?;
        let micros = sent_at.elapsed().as_micros() as f64;
        outcome.sent += 1;
        outcome.response_bytes += response.trim_end().len() as u64;
        let (summary, fp) = digest_response_line(&response, fingerprint);
        outcome.record(summary.as_ref(), Some(micros));
        if let Some(fp) = fp {
            outcome.payloads.push(fp);
        }
    }
    Ok(outcome)
}

/// Up to `max_in_flight` requests outstanding: a dedicated reader thread
/// matches responses to send times by id while this thread keeps writing.
fn run_open_loop(
    addr: &str,
    assigned: &Assigned,
    interval: Option<Duration>,
    max_in_flight: usize,
    fingerprint: bool,
) -> std::io::Result<ThreadOutcome> {
    let stream = TcpStream::connect(addr)?;
    // A pipelined writer must not sit on Nagle's algorithm: a half-burst
    // that fits one segment would otherwise wait out the peer's delayed ACK.
    stream.set_nodelay(true)?;
    let reader_stream = stream.try_clone()?;
    let mut writer = BufWriter::new(stream);

    let pending: Arc<Mutex<HashMap<u64, Instant>>> = Arc::new(Mutex::new(HashMap::new()));
    let in_flight = Arc::new(InFlightGate::new(max_in_flight));
    let expected = assigned.len();

    let reader_thread = {
        let pending = Arc::clone(&pending);
        let in_flight = Arc::clone(&in_flight);
        std::thread::spawn(move || -> std::io::Result<ThreadOutcome> {
            let mut reader = BufReader::new(reader_stream);
            let mut outcome = ThreadOutcome::default();
            for _ in 0..expected {
                let mut response = String::new();
                if reader.read_line(&mut response)? == 0 {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::UnexpectedEof,
                        "service closed the connection mid-run",
                    ));
                }
                outcome.response_bytes += response.trim_end().len() as u64;
                let (summary, fp) = digest_response_line(&response, fingerprint);
                let micros = summary.as_ref().and_then(|resp| {
                    pending
                        .lock()
                        .expect("pending map poisoned")
                        .remove(&resp.id)
                        .map(|sent_at| sent_at.elapsed().as_micros() as f64)
                });
                outcome.record(summary.as_ref(), micros);
                if let Some(fp) = fp {
                    outcome.payloads.push(fp);
                }
                in_flight.release();
            }
            Ok(outcome)
        })
    };

    let thread_start = Instant::now();
    let mut sent = 0u64;
    let mut write_error: Option<std::io::Error> = None;
    'writing: for (k, id, line) in assigned {
        if let Some(interval) = interval {
            let due = interval.mul_f64(*k as f64);
            let elapsed = thread_start.elapsed();
            if due > elapsed {
                // About to idle: push buffered requests out first so their
                // responses can overlap the pause.
                if let Err(err) = writer.flush() {
                    write_error = Some(err);
                    break 'writing;
                }
                std::thread::sleep(due - elapsed);
            }
        }
        if !in_flight.try_acquire() {
            // The cap is reached: everything buffered must reach the service
            // or the responses we are waiting on never come.
            if let Err(err) = writer.flush() {
                write_error = Some(err);
                break 'writing;
            }
            in_flight.acquire_blocking();
        }
        pending
            .lock()
            .expect("pending map poisoned")
            .insert(*id, Instant::now());
        if let Err(err) = writeln!(writer, "{line}") {
            write_error = Some(err);
            break 'writing;
        }
        sent += 1;
    }
    if write_error.is_none() {
        if let Err(err) = writer.flush() {
            write_error = Some(err);
        }
    }
    if write_error.is_some() {
        // Unblock the reader: it stops at EOF once the socket is dead.
        let _ = writer.get_ref().shutdown(std::net::Shutdown::Both);
    }

    let reader_outcome = reader_thread
        .join()
        .map_err(|_| std::io::Error::other("load generator reader panicked"))?;
    if let Some(err) = write_error {
        return Err(err);
    }
    let mut outcome = reader_outcome?;
    outcome.sent = sent;
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pools_cover_every_scenario_and_cycle() {
        for scenario in ["mixed", "grid", "project", "bursty", "deadline"] {
            let pool = build_request_pool(scenario, 25, 1).unwrap();
            assert_eq!(pool.len(), 25, "{scenario}");
            // Ids are 1-based and unique.
            assert_eq!(pool[0].id, 1);
            assert_eq!(pool[24].id, 25);
            // The pool repeats instances (a bounded distinct set).
            let distinct: std::collections::HashSet<u64> = pool
                .iter()
                .map(|r| r.to_instance().unwrap().canonical_digest())
                .collect();
            assert!(distinct.len() < pool.len(), "{scenario} should repeat");
            for req in &pool {
                assert!(req.to_instance().is_ok(), "{scenario} request invalid");
            }
        }
    }

    #[test]
    fn tenant_drift_pool_is_mostly_deltas_on_the_revised_engine() {
        let pool = build_request_pool("tenant_drift", 100, 7).unwrap();
        assert_eq!(pool.len(), 100);
        let deltas = pool.iter().filter(|r| r.base_digest.is_some()).count();
        let fulls = pool.len() - deltas;
        assert!(deltas >= 80, "deltas should dominate: {deltas}");
        assert!(fulls >= 2, "priming full payloads present: {fulls}");
        // The priming prefix is full payloads, so a delta's base is always
        // submitted before the delta on a serial replay.
        assert!(pool[0].base_digest.is_none());
        for req in &pool {
            // No request needs an engine pin: every LP runs the revised
            // simplex, which captures and consumes bases.
            assert!(req.options.is_none());
            // Delta requests reference a digest that a full request in the
            // pool also carries as its payload.
            if let Some(wire) = &req.base_digest {
                let digest = crate::protocol::digest_from_wire(wire).unwrap();
                assert!(
                    pool.iter().any(|other| other.base_digest.is_none()
                        && other.to_instance().unwrap().canonical_digest() == digest),
                    "delta base must be a live tenant"
                );
            }
        }
    }

    #[test]
    fn unknown_scenario_is_rejected() {
        assert!(build_request_pool("nope", 10, 1).is_err());
        let config = LoadgenConfig {
            scenario: "nope".to_string(),
            ..LoadgenConfig::default()
        };
        let err = run_loadgen(&config).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
    }

    #[test]
    fn report_renders_and_serialises() {
        let report = LoadReport {
            scenario: "mixed".to_string(),
            connections: 4,
            max_in_flight: 16,
            sent: 100,
            ok: 99,
            errors: 1,
            busy: 0,
            expired: 3,
            degraded: 2,
            cache_hits: 80,
            response_bytes: 123_456,
            wall_secs: 0.5,
            achieved_rps: 200.0,
            target_rps: Some(150.0),
            mean_micros: 300.0,
            p50_micros: 250.0,
            p99_micros: 900.0,
            max_micros: 1200.0,
            traced: 0,
            warm_responses: 0,
            server_warm_hits: None,
            client_stages: Vec::new(),
            server_stages: Vec::new(),
            server_requests: None,
            payloads: None,
            sessions: 0,
            revisions: 0,
            revision_warm: 0,
            unknown_session: 0,
            revision_p50_us: 0.0,
            revision_p99_us: 0.0,
            realized_makespan_mean: 0.0,
        };
        let text = report.render();
        assert!(text.contains("200.0 req/s"));
        assert!(text.contains("p99=900us"));
        assert!(text.contains("max_in_flight=16"));
        assert!(text.contains("expired=3"));
        assert!(text.contains("degraded=2"));
        assert!(text.contains("response_bytes=123456"));
        assert!(!text.contains("traced="), "untraced runs stay compact");
        assert!(!text.contains("stats_consistency"));
        let json = serde_json::to_string(&report).unwrap();
        assert!(json.contains("achieved_rps"));
        assert!(json.contains("busy"));
        assert!(json.contains("expired"));
        assert!(json.contains("response_bytes"));
        assert!(json.contains("server_stages"));
    }

    #[test]
    fn render_appends_attribution_and_consistency_verdict() {
        let stage = |name: &str, count| StageAttribution {
            stage: name.to_string(),
            count,
            mean_us: 10.0,
            p50_us: 8.0,
            p99_us: 40.0,
        };
        let mut report = LoadReport {
            scenario: "mixed".to_string(),
            connections: 1,
            max_in_flight: 1,
            sent: 5,
            ok: 5,
            errors: 0,
            busy: 0,
            expired: 0,
            degraded: 0,
            cache_hits: 0,
            response_bytes: 0,
            wall_secs: 1.0,
            achieved_rps: 5.0,
            target_rps: None,
            mean_micros: 0.0,
            p50_micros: 0.0,
            p99_micros: 0.0,
            max_micros: 0.0,
            traced: 5,
            warm_responses: 0,
            server_warm_hits: None,
            client_stages: vec![stage("queue", 5), stage("solve", 5)],
            server_stages: vec![stage("solve", 5), stage("render", 5)],
            server_requests: Some(5),
            payloads: None,
            sessions: 0,
            revisions: 0,
            revision_warm: 0,
            unknown_session: 0,
            revision_p50_us: 0.0,
            revision_p99_us: 0.0,
            realized_makespan_mean: 0.0,
        };
        let text = report.render();
        assert!(text.contains("traced=5"));
        assert!(text.contains("client stage queue: n=5"));
        assert!(text.contains("server stage solve: n=5"));
        assert!(text.contains("stats_consistency=ok server_requests=5 solve_stage_count=5"));
        report.server_requests = Some(7);
        assert!(report.render().contains("stats_consistency=mismatch"));
    }

    #[test]
    fn render_appends_session_aggregates_in_session_mode() {
        let mut report = LoadReport {
            scenario: "session_flash_crowd".to_string(),
            connections: 2,
            max_in_flight: 1,
            sent: 40,
            ok: 4,
            errors: 0,
            busy: 0,
            expired: 0,
            degraded: 0,
            cache_hits: 0,
            response_bytes: 0,
            wall_secs: 1.0,
            achieved_rps: 40.0,
            target_rps: None,
            mean_micros: 500.0,
            p50_micros: 400.0,
            p99_micros: 2000.0,
            max_micros: 2500.0,
            traced: 0,
            warm_responses: 0,
            server_warm_hits: None,
            client_stages: Vec::new(),
            server_stages: Vec::new(),
            server_requests: None,
            payloads: None,
            sessions: 4,
            revisions: 12,
            revision_warm: 9,
            unknown_session: 0,
            revision_p50_us: 400.0,
            revision_p99_us: 2000.0,
            realized_makespan_mean: 17.5,
        };
        let text = report.render();
        // The greppable session line the CI smoke checks rely on.
        assert!(text.contains("sessions=4 revisions=12 revision_warm=9 unknown_session=0"));
        assert!(text.contains("realized makespan mean=17.5 steps"));
        let json = serde_json::to_string(&report).unwrap();
        assert!(json.contains("revision_p99_us"));
        assert!(json.contains("realized_makespan_mean"));
        // Pool-mode reports stay free of the session line.
        report.sessions = 0;
        assert!(!report.render().contains("revision latency"));
    }

    #[test]
    fn scan_extracts_trace_stages_and_matches_full_parse() {
        use crate::protocol::TraceReport;
        let mut resp = Response::failure(42, "x");
        resp.ok = true;
        resp.error = None;
        resp.error_kind = None;
        resp.solver = Some("suu-c".to_string());
        resp.cache_hit = true;
        resp.trace = Some(TraceReport {
            queue_us: 11,
            solve_us: 2200,
            render_us: 33,
            cache: "hit".to_string(),
            lp_pivots: 555,
            warm: false,
        });
        let line = serde_json::to_string(&resp).unwrap();
        for fingerprint in [false, true] {
            let (summary, _) = digest_response_line(&line, fingerprint);
            let summary = summary.expect("traced responses digest");
            let trace = summary.trace.expect("trace scraped");
            assert_eq!(trace.0, [11, 2200, 33], "fingerprint={fingerprint}");
        }
        // Untraced responses scrape no trace, and the scan must not confuse
        // the `lp_pivots` field for a stage.
        resp.trace = None;
        let line = serde_json::to_string(&resp).unwrap();
        let (summary, _) = digest_response_line(&line, false);
        assert!(summary.unwrap().trace.is_none());
    }

    #[test]
    fn trace_flag_turns_on_request_options() {
        let config = LoadgenConfig {
            trace: true,
            ..LoadgenConfig::default()
        };
        let options = config.request_options().expect("trace forces options");
        assert!(options.trace);
        assert!(LoadgenConfig::default().request_options().is_none());
    }

    #[test]
    fn stage_rows_read_scraped_stats() {
        let stats = serde_json::parse(
            r#"{"requests":12,"stages":{"queue":{"count":12,"mean":3.5,"p50":3,"p99":9},
                "solve":{"count":12,"mean":100.0,"p50":90,"p99":400}}}"#,
        )
        .unwrap();
        assert_eq!(scrape_counter(&stats, "requests"), Some(12));
        let rows = stage_rows(&stats);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].stage, "queue");
        assert_eq!(rows[0].count, 12);
        assert!((rows[1].mean_us - 100.0).abs() < 1e-9);
        assert!((rows[1].p99_us - 400.0).abs() < 1e-9);
        assert_eq!(stage_rows(&serde_json::parse("{}").unwrap()).len(), 0);
    }

    #[test]
    fn fingerprints_ignore_mode_dependent_fields() {
        let mut a = Response::failure(3, "boom");
        let mut b = Response::failure(3, "different phrasing");
        a.service_micros = 10;
        b.service_micros = 99_999;
        assert_eq!(payload_fingerprint(&a), payload_fingerprint(&b));

        let mut ok_fresh = Response::failure(4, "x");
        ok_fresh.ok = true;
        ok_fresh.error = None;
        ok_fresh.error_kind = None;
        ok_fresh.solver = Some("suu-c".to_string());
        ok_fresh.cache_hit = false;
        let mut ok_cached = ok_fresh.clone();
        ok_cached.cache_hit = true;
        assert_eq!(
            payload_fingerprint(&ok_fresh),
            payload_fingerprint(&ok_cached),
            "cache_hit must not affect the payload fingerprint"
        );
        let mut other = ok_fresh.clone();
        other.solver = Some("suu-forest".to_string());
        assert_ne!(payload_fingerprint(&ok_fresh), payload_fingerprint(&other));
    }

    #[test]
    fn outcome_classifies_busy_separately_from_errors() {
        let mut outcome = ThreadOutcome::default();
        let busy_line = serde_json::to_string(&Response::busy(1)).unwrap();
        let error_line = serde_json::to_string(&Response::failure(2, "bad")).unwrap();
        for fingerprint in [false, true] {
            let (summary, _) = digest_response_line(&busy_line, fingerprint);
            outcome.record(summary.as_ref(), Some(10.0));
            let (summary, _) = digest_response_line(&error_line, fingerprint);
            outcome.record(summary.as_ref(), Some(10.0));
            outcome.record(None, None);
        }
        assert_eq!(outcome.busy, 2);
        assert_eq!(outcome.errors, 4);
        assert_eq!(outcome.ok, 0);
    }

    #[test]
    fn outcome_classifies_expired_and_degraded() {
        let mut outcome = ThreadOutcome::default();
        let expired_line = serde_json::to_string(&Response::deadline_exceeded(1)).unwrap();
        let exhausted_line = serde_json::to_string(&Response::failure_with(
            2,
            error_kind::BUDGET_EXHAUSTED,
            "out of pivots",
        ))
        .unwrap();
        let mut degraded = Response::failure(3, "x");
        degraded.ok = true;
        degraded.error = None;
        degraded.error_kind = None;
        degraded.solver = Some("serial-baseline".to_string());
        degraded.degraded = true;
        let degraded_line = serde_json::to_string(&degraded).unwrap();
        for fingerprint in [false, true] {
            for line in [&expired_line, &exhausted_line, &degraded_line] {
                let (summary, _) = digest_response_line(line, fingerprint);
                outcome.record(summary.as_ref(), Some(5.0));
            }
        }
        assert_eq!(outcome.expired, 4, "both budget-class kinds count");
        assert_eq!(outcome.degraded, 2);
        assert_eq!(outcome.ok, 2, "degraded responses are still served");
        assert_eq!(outcome.errors, 0);
    }

    #[test]
    fn scan_matches_full_parse_on_real_responses() {
        let mut ok = Response::failure(77, "x");
        ok.ok = true;
        ok.error = None;
        ok.error_kind = None;
        ok.solver = Some("suu-c".to_string());
        ok.cache_hit = true;
        for resp in [
            &ok,
            &Response::busy(12),
            &Response::failure(9, "tricky \"ok\":true bait"),
        ] {
            let line = serde_json::to_string(resp).unwrap();
            let scanned = scan_response(&line).expect("responses scan");
            assert_eq!(scanned.id, resp.id, "line: {line}");
            assert_eq!(scanned.ok, resp.ok, "line: {line}");
            assert_eq!(scanned.busy, resp.is_busy(), "line: {line}");
            assert_eq!(scanned.cache_hit, resp.cache_hit, "line: {line}");
        }
    }
}
