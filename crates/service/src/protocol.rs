//! The newline-delimited JSON wire protocol.
//!
//! One request per line, one response per line, over either stdin/stdout or
//! a TCP connection. The request schema (all numbers are plain JSON numbers;
//! optional fields may be omitted or `null`):
//!
//! ```json
//! {"id": 1,
//!  "num_jobs": 2, "num_machines": 2,
//!  "probs": [0.9, 0.1, 0.2, 0.8],
//!  "edges": [[0, 1]],
//!  "solver": null,
//!  "estimate_trials": null}
//! ```
//!
//! `probs` is the row-major `machines × jobs` success-probability matrix and
//! `edges` the precedence edge list. `solver` forces a registered solver by
//! name instead of the structure dispatch; `estimate_trials` asks the service
//! to also Monte-Carlo estimate the schedule's expected makespan. The
//! response mirrors the request `id` and carries the schedule (or an error),
//! the solver that produced it, and whether it came from the cache:
//!
//! ```json
//! {"id": 1, "ok": true, "error": null, "solver": "suu-c",
//!  "cache_hit": false, "schedule": {"num_machines": 2, "steps": [...]},
//!  "schedule_len": 12, "lp_value": 3.5, "estimated_makespan": null,
//!  "service_micros": 184}
//! ```
//!
//! Requests are validated on ingest — dimensions, probability ranges, DAG
//! acyclicity — through the same constructors the rest of the workspace
//! uses, so a malformed request can never reach a solver.
//!
//! # Protocol v2: solve options
//!
//! A request may carry an `options` object putting per-request resource
//! bounds and response shaping on the wire:
//!
//! ```json
//! {"id": 9, "num_jobs": 2, "num_machines": 1, "probs": [0.5, 0.5],
//!  "options": {"max_pivots": 5000,
//!              "time_budget_ms": 50, "deadline_ms": 1800000000000,
//!              "cache": "default", "detail": "no_schedule"}}
//! ```
//!
//! Every field is optional and an absent `options` object means exactly the
//! v1 behaviour — v1 request lines produce byte-identical responses (pinned
//! by the golden corpus in `tests/v1_golden.rs`). `engine` (`"auto"`,
//! `"dense"` or `"revised"`) is accepted and validated but ignored: every LP
//! runs the revised simplex, and the field never forks a cache or
//! single-flight key. `max_pivots` bounds simplex work, `time_budget_ms` is
//! a relative budget starting when the service accepts the request
//! (queueing time counts), `deadline_ms` is an absolute
//! Unix-epoch-milliseconds deadline; the effective deadline is the earlier
//! of the two. `cache` selects the cache interaction ([`CachePolicy`]) and
//! `detail` the response projection ([`Detail`]).
//!
//! Budget outcomes are structured: a request that expires before a solver
//! thread picks it up is answered `error_kind: "deadline_exceeded"` without
//! burning any solver time, and a solve whose budget runs out mid-pipeline
//! either degrades to the serial-baseline solver (`"degraded": true`, with a
//! `budget` object describing what ran out) or — when the solver was forced —
//! fails with `error_kind: "budget_exhausted"`. The `degraded` and `budget`
//! response fields are **omitted** (not `null`) on every other response, so
//! v1 clients never see them.
//!
//! # Pipelined execution
//!
//! Since the pipelined executor landed, a connection may have many requests
//! in flight at once and **responses may arrive in any order**: clients must
//! match responses to requests by the echoed `id`, not by position. Error
//! responses additionally carry a machine-readable `error_kind`
//! (see [`error_kind`]); in particular `"busy"` signals that the solve queue
//! was full and the request was rejected by admission control without being
//! executed — the client may retry later.
//!
//! # Observability: per-response traces and the `stats` verb
//!
//! Both additions are strictly opt-in and backwards compatible — v1 request
//! lines keep producing byte-identical responses.
//!
//! A request with `options: {"trace": true}` gets a `trace` object appended
//! to its response (omitted, never `null`, otherwise):
//!
//! ```json
//! {"id": 5, "ok": true, ..., "service_micros": 240,
//!  "trace": {"queue_us": 12, "solve_us": 190, "render_us": 3,
//!            "cache": "miss", "lp_pivots": 44}}
//! ```
//!
//! `queue_us` is time spent in the solve queue, `solve_us` covers cache
//! lookup + single-flight + solving, and `render_us` the response
//! serialisation. The response is written after its trace is rendered, so
//! the write and flush cost appears only in the `stats` verb's `flush`
//! histogram. `cache` reports how the schedule was obtained: `"hit"`,
//! `"miss"` (fresh solve) or `"coalesced"` (waited on an identical
//! in-flight solve). Tracing never forks the cache key — a traced and an
//! untraced request share cached schedules.
//!
//! A line of the form `{"id": 3, "verb": "stats"}` is answered (and not
//! counted as a scheduling request) with a full metrics snapshot:
//! `{"id": 3, "ok": true, "stats": {...}}` carrying uptime, request/error
//! counters, per-stage latency histograms (log-bucketed `[lower_bound,
//! count]` pairs plus `count`/`sum`/`mean`/`p50`/`p90`/`p99`/`p999`),
//! per-solver counts, solve-queue depth/capacity, per-shard cache
//! occupancy/hit/miss/eviction counters and the single-flight table size.
//! Unknown verbs are answered `error_kind: "bad_request"`.
//!
//! # Protocol v2: deltas against a cached base
//!
//! A client that already submitted an instance can describe the next request
//! as a small **edit** of it instead of resending the full probability
//! matrix. The request carries `base_digest` — the canonical digest echoed
//! by the service for the base instance (16 lowercase hex characters) — plus
//! a `delta` object, and omits `num_jobs`/`num_machines`/`probs`/`edges`:
//!
//! ```json
//! {"id": 12, "base_digest": "91f4c3a07b5e2d18",
//!  "delta": {"set_prob": [[0, 2, 0.75]]},
//!  "options": {"trace": true}}
//! ```
//!
//! The service resolves the digest against its schedule cache, applies the
//! delta through the same validating constructors as a full payload, and
//! solves the resulting child instance — caching, coalescing and warm
//! starts all key on the **post-application** digest, so a delta request
//! and the equivalent full payload share everything. Two structured
//! failures exist: `error_kind: "unknown_base"` when the digest is not (or
//! no longer) cached — the client falls back to resubmitting the full
//! instance on the same connection — and `error_kind: "invalid_delta"` when
//! the edit itself is malformed (unknown job, probability out of range,
//! edge that would create a cycle). Neither failure tears down the
//! connection. Full-payload requests may also carry a `delta` (applied to
//! the inline instance before solving); `base_digest` without a cached
//! parent never silently cold-solves.

use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use serde::{DeError, Deserialize, Serialize, Value};
use suu_core::{InstanceDelta, ObliviousSchedule, SuuInstance};
use suu_graph::Dag;

/// The `engine` value a client sent. Accepted for compatibility and
/// ignored: every LP runs the revised simplex, so all three values (and an
/// absent field) produce the same schedule under the same cache and
/// single-flight key. Any other value is a `bad_request`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineChoice {
    /// `"auto"`.
    Auto,
    /// `"dense"`.
    Dense,
    /// `"revised"`.
    Revised,
}

impl EngineChoice {
    fn as_wire(self) -> &'static str {
        match self {
            Self::Auto => "auto",
            Self::Dense => "dense",
            Self::Revised => "revised",
        }
    }

    fn from_wire(s: &str) -> Result<Self, DeError> {
        match s {
            "auto" => Ok(Self::Auto),
            "dense" => Ok(Self::Dense),
            "revised" => Ok(Self::Revised),
            other => Err(DeError::new(format!(
                "unknown engine `{other}`; expected auto, dense or revised"
            ))),
        }
    }
}

/// How a request interacts with the schedule cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CachePolicy {
    /// Normal operation: consult the cache, insert fresh solves, coalesce
    /// identical concurrent requests.
    #[default]
    Default,
    /// Ignore the cache entirely: always solve fresh, never insert, never
    /// coalesce. For measurements and debugging.
    Bypass,
    /// Solve fresh and (re)insert the result, replacing any cached entry.
    Refresh,
}

impl CachePolicy {
    fn as_wire(self) -> &'static str {
        match self {
            Self::Default => "default",
            Self::Bypass => "bypass",
            Self::Refresh => "refresh",
        }
    }

    fn from_wire(s: &str) -> Result<Self, DeError> {
        match s {
            "default" => Ok(Self::Default),
            "bypass" => Ok(Self::Bypass),
            "refresh" => Ok(Self::Refresh),
            other => Err(DeError::new(format!(
                "unknown cache policy `{other}`; expected default, bypass or refresh"
            ))),
        }
    }
}

/// Response projection: how much of the solve result the response carries.
///
/// Projection is presentation only — it never changes what is solved or
/// cached, and therefore **must not** fork the cache or single-flight key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Detail {
    /// The whole response including the schedule body (v1 behaviour).
    #[default]
    Full,
    /// Drop the (potentially multi-kilobyte) `schedule` tree; keep
    /// `schedule_len` and the LP diagnostics. For clients that only steer
    /// on diagnostics, this shrinks the response by an order of magnitude.
    NoSchedule,
    /// Keep only the envelope and `estimated_makespan` (plus
    /// `schedule_len`); drops the schedule and the LP diagnostics.
    EstimateOnly,
}

impl Detail {
    fn as_wire(self) -> &'static str {
        match self {
            Self::Full => "full",
            Self::NoSchedule => "no_schedule",
            Self::EstimateOnly => "estimate_only",
        }
    }

    fn from_wire(s: &str) -> Result<Self, DeError> {
        match s {
            "full" => Ok(Self::Full),
            "no_schedule" => Ok(Self::NoSchedule),
            "estimate_only" => Ok(Self::EstimateOnly),
            other => Err(DeError::new(format!(
                "unknown detail `{other}`; expected full, no_schedule or estimate_only"
            ))),
        }
    }
}

/// The v2 per-request solve options. Every field is optional; an absent (or
/// empty) options object reproduces v1 behaviour exactly.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SolveOptions {
    /// LP engine the client named; validated, then ignored (see
    /// [`EngineChoice`]).
    pub engine: Option<EngineChoice>,
    /// Simplex pivot budget across the whole pipeline (summed over forest
    /// blocks). Exhaustion yields `budget_exhausted` or a degraded fallback.
    pub max_pivots: Option<u64>,
    /// Relative wall-clock budget in milliseconds, measured from the moment
    /// the service accepts the request — time spent queued counts.
    pub time_budget_ms: Option<u64>,
    /// Absolute deadline in Unix-epoch milliseconds. A request whose
    /// deadline passes while it is still queued is dropped at dequeue with
    /// `deadline_exceeded` instead of occupying a solver thread.
    pub deadline_ms: Option<u64>,
    /// Cache interaction policy.
    pub cache: Option<CachePolicy>,
    /// Response projection.
    pub detail: Option<Detail>,
    /// Request per-stage lifecycle timings echoed on the response (the
    /// `trace` object). Presentation only: tracing **must not** fork the
    /// cache or single-flight key.
    pub trace: bool,
}

impl SolveOptions {
    /// Whether every field is absent (the v1 degenerate case).
    #[must_use]
    pub fn is_default(&self) -> bool {
        *self == Self::default()
    }

    /// The effective response projection.
    #[must_use]
    pub fn detail(&self) -> Detail {
        self.detail.unwrap_or_default()
    }

    /// The effective cache policy.
    #[must_use]
    pub fn cache_policy(&self) -> CachePolicy {
        self.cache.unwrap_or_default()
    }

    /// The effective absolute deadline: the earlier of `deadline_ms`
    /// (absolute epoch) and `accepted_at + time_budget_ms`. An absolute
    /// deadline already in the past maps to `accepted_at`, i.e. immediately
    /// expired.
    #[must_use]
    pub fn effective_deadline(&self, accepted_at: Instant) -> Option<Instant> {
        let from_budget = self
            .time_budget_ms
            .map(|ms| accepted_at + Duration::from_millis(ms));
        let from_absolute = self
            .deadline_ms
            .map(|ms| epoch_ms_to_instant(ms, accepted_at));
        match (from_budget, from_absolute) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (one, other) => one.or(other),
        }
    }
}

impl Serialize for SolveOptions {
    fn to_value(&self) -> Value {
        let mut fields = Vec::new();
        if let Some(engine) = self.engine {
            fields.push(("engine".to_string(), engine.as_wire().to_value()));
        }
        if let Some(max_pivots) = self.max_pivots {
            fields.push(("max_pivots".to_string(), max_pivots.to_value()));
        }
        if let Some(ms) = self.time_budget_ms {
            fields.push(("time_budget_ms".to_string(), ms.to_value()));
        }
        if let Some(ms) = self.deadline_ms {
            fields.push(("deadline_ms".to_string(), ms.to_value()));
        }
        if let Some(cache) = self.cache {
            fields.push(("cache".to_string(), cache.as_wire().to_value()));
        }
        if let Some(detail) = self.detail {
            fields.push(("detail".to_string(), detail.as_wire().to_value()));
        }
        if self.trace {
            fields.push(("trace".to_string(), true.to_value()));
        }
        Value::Object(fields)
    }
}

impl Deserialize for SolveOptions {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        if !matches!(v, Value::Object(_)) {
            return Err(DeError::expected("options object", v));
        }
        let opt_u64 = |key: &str| -> Result<Option<u64>, DeError> {
            match v.get(key) {
                None | Some(Value::Null) => Ok(None),
                Some(n) => u64::from_value(n).map(Some),
            }
        };
        let opt_str = |key: &str| -> Result<Option<String>, DeError> {
            match v.get(key) {
                None | Some(Value::Null) => Ok(None),
                Some(s) => String::from_value(s).map(Some),
            }
        };
        Ok(Self {
            engine: opt_str("engine")?
                .map(|s| EngineChoice::from_wire(&s))
                .transpose()?,
            max_pivots: opt_u64("max_pivots")?,
            time_budget_ms: opt_u64("time_budget_ms")?,
            deadline_ms: opt_u64("deadline_ms")?,
            cache: opt_str("cache")?
                .map(|s| CachePolicy::from_wire(&s))
                .transpose()?,
            detail: opt_str("detail")?
                .map(|s| Detail::from_wire(&s))
                .transpose()?,
            trace: match v.get("trace") {
                None | Some(Value::Null) => false,
                Some(b) => bool::from_value(b)?,
            },
        })
    }
}

/// Converts an absolute Unix-epoch-milliseconds deadline to an `Instant`.
/// Deadlines already in the past map to `accepted_at` (every later
/// `Instant::now()` compares `>=`, i.e. expired).
fn epoch_ms_to_instant(deadline_ms: u64, accepted_at: Instant) -> Instant {
    let now_epoch_ms = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .unwrap_or_default()
        .as_millis();
    let deadline_ms = u128::from(deadline_ms);
    if deadline_ms <= now_epoch_ms {
        accepted_at
    } else {
        Instant::now() + Duration::from_millis((deadline_ms - now_epoch_ms) as u64)
    }
}

/// Best-effort scan of a request line for its `id` field, used to echo ids
/// on `bad_request` and `busy` responses when the line never parsed.
/// Returns 0 when no well-formed non-negative integer id can be found — the
/// same id the full parser historically reported for unparseable requests.
#[must_use]
pub fn scan_request_id(line: &str) -> u64 {
    scan_u64_field(line, "\"id\":").unwrap_or(0)
}

/// Best-effort scan for the effective deadline of a raw (unparsed) request
/// line, combining `time_budget_ms` and `deadline_ms` exactly like
/// [`SolveOptions::effective_deadline`]. Used by the pipelined executor to
/// drop expired jobs at dequeue without paying for a parse; a line the scan
/// misses (exotic formatting) is simply checked again after parsing.
///
/// The scan is scoped to the *body of the options object* — the only place
/// the parser reads these fields from — so a stray top-level
/// `time_budget_ms` (which the tolerant parser ignores), wherever it sits on
/// the line, cannot falsely expire a valid request. The object body is
/// located by matching `"options"` as a key (`"options"` followed by `:` and
/// `{`; a string *value* `"options"` is followed by `,`/`}` and is skipped)
/// and walking to its matching close brace with string literals skipped.
#[must_use]
pub fn scan_deadline(line: &str, accepted_at: Instant) -> Option<Instant> {
    let scope = scan_options_body(line)?;
    let probe = SolveOptions {
        time_budget_ms: scan_u64_field(scope, "\"time_budget_ms\":"),
        deadline_ms: scan_u64_field(scope, "\"deadline_ms\":"),
        ..SolveOptions::default()
    };
    probe.effective_deadline(accepted_at)
}

/// Locates the body of the `"options": {...}` object in a raw request line
/// (best effort): the first `"options"` occurrence that is followed by a
/// colon and an opening brace, up to the brace that closes it (depth-counted
/// with string literals skipped). `None` when no such object exists or the
/// line is truncated mid-object.
fn scan_options_body(line: &str) -> Option<&str> {
    for (at, _) in line.match_indices("\"options\"") {
        let after_key = line[at + "\"options\"".len()..].trim_start();
        let Some(after_colon) = after_key.strip_prefix(':') else {
            continue; // a string *value* "options", not a key
        };
        let body = after_colon.trim_start();
        if !body.starts_with('{') {
            continue;
        }
        let bytes = body.as_bytes();
        let mut depth = 0usize;
        let mut in_string = false;
        let mut escaped = false;
        for (k, &b) in bytes.iter().enumerate() {
            if in_string {
                if escaped {
                    escaped = false;
                } else if b == b'\\' {
                    escaped = true;
                } else if b == b'"' {
                    in_string = false;
                }
                continue;
            }
            match b {
                b'"' => in_string = true,
                b'{' => depth += 1,
                b'}' => {
                    depth -= 1;
                    if depth == 0 {
                        return Some(&body[..=k]);
                    }
                }
                _ => {}
            }
        }
        return None; // unterminated object: let the full parser reject it
    }
    None
}

/// Scans `line` for `key` (pass the quoted key plus colon, e.g.
/// `"\"queue_us\":"`) and parses the non-negative integer that follows
/// (whitespace tolerated). Returns `None` when absent or malformed. Used by
/// the executor's deadline scan and by clients to scrape trace fields
/// without a full JSON parse.
#[must_use]
pub fn scan_u64_field(line: &str, key: &str) -> Option<u64> {
    let at = line.find(key)?;
    let rest = line[at + key.len()..].trim_start();
    let digits = rest.bytes().take_while(u8::is_ascii_digit).count();
    if digits == 0 {
        return None;
    }
    rest[..digits].parse().ok()
}

/// Renders an instance digest in its wire form: 16 lowercase hex characters.
#[must_use]
pub fn digest_to_wire(digest: u64) -> String {
    format!("{digest:016x}")
}

/// Parses a wire-form digest (exactly 16 lowercase hex characters).
/// Strict on purpose: the wire form is what the service itself emits, so
/// anything else is a client bug worth surfacing, not normalising.
#[must_use]
pub fn digest_from_wire(s: &str) -> Option<u64> {
    if s.len() != 16
        || !s
            .bytes()
            .all(|b| b.is_ascii_digit() || (b'a'..=b'f').contains(&b))
    {
        return None;
    }
    u64::from_str_radix(s, 16).ok()
}

/// A scheduling request.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Client-chosen id echoed back in the response.
    pub id: u64,
    /// Number of jobs `n` (0 on a delta request, which carries no payload).
    pub num_jobs: usize,
    /// Number of machines `m` (0 on a delta request).
    pub num_machines: usize,
    /// Row-major `machines × jobs` success-probability matrix (empty on a
    /// delta request).
    pub probs: Vec<f64>,
    /// Precedence edges `(predecessor, successor)`.
    pub edges: Vec<(usize, usize)>,
    /// Force a specific registered solver instead of auto-dispatch.
    pub solver: Option<String>,
    /// Also estimate the expected makespan with this many simulation trials.
    pub estimate_trials: Option<usize>,
    /// v2 solve options; `None` (the v1 case) behaves exactly like an empty
    /// options object.
    pub options: Option<SolveOptions>,
    /// Wire-form canonical digest of a previously solved base instance. When
    /// present the payload fields (`num_jobs`/`num_machines`/`probs`/`edges`)
    /// may be omitted: the service resolves the base from its cache and
    /// applies `delta` to it. Unknown digests fail with `unknown_base`.
    pub base_digest: Option<String>,
    /// Edit applied to the base (or, without `base_digest`, to the inline
    /// payload instance) before solving.
    pub delta: Option<InstanceDelta>,
}

impl Serialize for Request {
    // Hand-written so the canonical rendering of an options-free request is
    // byte-identical to v1: the `options` key is omitted, not null. A delta
    // request (base_digest set) drops the payload fields entirely — small
    // payloads are the point.
    fn to_value(&self) -> Value {
        let mut fields = vec![("id".to_string(), self.id.to_value())];
        if let Some(digest) = &self.base_digest {
            fields.push(("base_digest".to_string(), digest.to_value()));
            if self.solver.is_some() {
                fields.push(("solver".to_string(), self.solver.to_value()));
            }
            if self.estimate_trials.is_some() {
                fields.push((
                    "estimate_trials".to_string(),
                    self.estimate_trials.to_value(),
                ));
            }
        } else {
            fields.extend([
                ("num_jobs".to_string(), self.num_jobs.to_value()),
                ("num_machines".to_string(), self.num_machines.to_value()),
                ("probs".to_string(), self.probs.to_value()),
                ("edges".to_string(), self.edges.to_value()),
                ("solver".to_string(), self.solver.to_value()),
                (
                    "estimate_trials".to_string(),
                    self.estimate_trials.to_value(),
                ),
            ]);
        }
        if let Some(delta) = &self.delta {
            fields.push(("delta".to_string(), delta.to_value()));
        }
        if let Some(options) = &self.options {
            fields.push(("options".to_string(), options.to_value()));
        }
        Value::Object(fields)
    }
}

impl Request {
    /// The request's solve options (an absent object means all defaults).
    #[must_use]
    pub fn solve_options(&self) -> SolveOptions {
        self.options.unwrap_or_default()
    }
}

impl Deserialize for Request {
    fn from_value(v: &Value) -> Result<Self, serde::DeError> {
        // Tolerant by hand: `edges`, `solver` and `estimate_trials` may be
        // omitted entirely (the derive would insist on explicit nulls). The
        // payload fields stay required — with their historical v1 error
        // messages — unless the request names a cached base via
        // `base_digest`, in which case they may be omitted too.
        let required = |key: &str| {
            v.get(key)
                .ok_or_else(|| serde::DeError::new(format!("missing field `{key}` in Request")))
        };
        let base_digest = match v.get("base_digest") {
            None | Some(Value::Null) => None,
            Some(s) => Some(String::from_value(s)?),
        };
        let is_delta = base_digest.is_some();
        let payload_u64 = |key: &str| -> Result<usize, serde::DeError> {
            match v.get(key) {
                None | Some(Value::Null) if is_delta => Ok(0),
                _ => usize::from_value(required(key)?),
            }
        };
        Ok(Self {
            id: u64::from_value(required("id")?)?,
            num_jobs: payload_u64("num_jobs")?,
            num_machines: payload_u64("num_machines")?,
            probs: match v.get("probs") {
                None | Some(Value::Null) if is_delta => Vec::new(),
                _ => Vec::from_value(required("probs")?)?,
            },
            edges: match v.get("edges") {
                None | Some(Value::Null) => Vec::new(),
                Some(edges) => Vec::from_value(edges)?,
            },
            solver: match v.get("solver") {
                None => None,
                Some(s) => Option::from_value(s)?,
            },
            estimate_trials: match v.get("estimate_trials") {
                None => None,
                Some(t) => Option::from_value(t)?,
            },
            options: match v.get("options") {
                None | Some(Value::Null) => None,
                Some(o) => Some(SolveOptions::from_value(o)?),
            },
            base_digest,
            delta: match v.get("delta") {
                None | Some(Value::Null) => None,
                Some(d) => Some(InstanceDelta::from_value(d)?),
            },
        })
    }
}

impl Request {
    /// Builds a request from an existing instance.
    #[must_use]
    pub fn from_instance(id: u64, instance: &SuuInstance) -> Self {
        let mut probs = Vec::with_capacity(instance.num_jobs() * instance.num_machines());
        for i in instance.machines() {
            for j in instance.jobs() {
                probs.push(instance.prob(i, j));
            }
        }
        Self {
            id,
            num_jobs: instance.num_jobs(),
            num_machines: instance.num_machines(),
            probs,
            edges: instance.precedence().edges(),
            solver: None,
            estimate_trials: None,
            options: None,
            base_digest: None,
            delta: None,
        }
    }

    /// Builds a delta request: no payload, just a reference to a cached base
    /// plus the edit to apply to it.
    #[must_use]
    pub fn from_delta(id: u64, base_digest: u64, delta: InstanceDelta) -> Self {
        Self {
            id,
            num_jobs: 0,
            num_machines: 0,
            probs: Vec::new(),
            edges: Vec::new(),
            solver: None,
            estimate_trials: None,
            options: None,
            base_digest: Some(digest_to_wire(base_digest)),
            delta: Some(delta),
        }
    }

    /// Reconstructs and validates the instance this request describes.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message when the edge list is not a DAG or
    /// the instance fails validation (dimension mismatch, probability out of
    /// range, unschedulable job).
    pub fn to_instance(&self) -> Result<SuuInstance, String> {
        let dag = Dag::from_edges(self.num_jobs, self.edges.iter().copied())
            .map_err(|e| format!("invalid precedence: {e}"))?;
        SuuInstance::new(self.num_jobs, self.num_machines, self.probs.clone(), dag)
            .map_err(|e| format!("invalid instance: {e}"))
    }
}

/// Machine-readable error categories carried in [`Response::error_kind`].
///
/// The human-readable `error` message is free-form; `error_kind` is the
/// stable contract automation should branch on.
pub mod error_kind {
    /// The request line was not parseable as a request (bad JSON, missing or
    /// mistyped fields, line over the byte limit).
    pub const BAD_REQUEST: &str = "bad_request";
    /// The request parsed but described an invalid or unsupported instance
    /// (cycle, probability out of range, oversized, unknown solver).
    pub const INVALID_REQUEST: &str = "invalid_request";
    /// Admission control rejected the request because the shared solve queue
    /// was full. The request was **not** executed; clients may retry.
    pub const BUSY: &str = "busy";
    /// A solver accepted the instance but failed while solving it.
    pub const SOLVER_ERROR: &str = "solver_error";
    /// The request's effective deadline (`time_budget_ms` / `deadline_ms`)
    /// passed before any solving started — typically while the job sat in
    /// the solve queue. No solver time was spent; see the service's
    /// `expired_dropped` metric.
    pub const DEADLINE_EXCEEDED: &str = "deadline_exceeded";
    /// A per-request resource budget (pivots or wall-clock) ran out
    /// mid-solve and no degraded fallback was possible (e.g. the solver was
    /// forced). The `budget` response field says which limit tripped.
    pub const BUDGET_EXHAUSTED: &str = "budget_exhausted";
    /// A delta request named a `base_digest` the service does not have
    /// cached (never seen, or evicted). The delta was **not** applied and
    /// nothing was solved; the client should fall back to resubmitting the
    /// full instance — the connection survives.
    pub const UNKNOWN_BASE: &str = "unknown_base";
    /// The request's `delta` could not be applied: malformed digest, unknown
    /// job or machine index, probability out of range, duplicate edit, or an
    /// edge that would create a cycle. Nothing was solved.
    pub const INVALID_DELTA: &str = "invalid_delta";
    /// A `session_event` or `close_session` named a session id the service
    /// does not hold: never opened, already closed, or evicted (client
    /// disconnect or idle TTL). The event was **not** applied; the client
    /// should open a fresh session — the connection survives.
    pub const UNKNOWN_SESSION: &str = "unknown_session";
}

/// What a budgeted solve ran out of, carried in [`Response::budget`] on
/// `budget_exhausted` errors and on degraded fallback responses.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BudgetReport {
    /// Which limit tripped: `"pivots"` or `"time"`.
    pub exhausted: String,
    /// Simplex pivots spent before the budget ran out.
    pub spent_pivots: u64,
}

impl BudgetReport {
    /// Builds the report from the structured algorithm error.
    #[must_use]
    pub fn new(pivots: usize, wall_clock: bool) -> Self {
        Self {
            exhausted: if wall_clock { "time" } else { "pivots" }.to_string(),
            spent_pivots: pivots as u64,
        }
    }
}

/// Per-request lifecycle timings, echoed in [`Response::trace`] when the
/// request asked for them (`options: {"trace": true}`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceReport {
    /// Microseconds spent in the solve queue before a solver thread picked
    /// the request up (0 for in-process `handle_line` calls, which do not
    /// queue).
    pub queue_us: u64,
    /// Microseconds from dispatch to a solved schedule: cache lookup,
    /// single-flight coordination and (on a miss) the solve itself.
    pub solve_us: u64,
    /// Microseconds spent rendering the response body.
    pub render_us: u64,
    /// How the schedule was obtained: `"hit"`, `"miss"` or `"coalesced"`.
    pub cache: String,
    /// Simplex pivots behind this response's schedule (0 when no LP ran).
    pub lp_pivots: u64,
    /// Whether the solve behind this response's schedule started warm: the
    /// LP was re-solved from a cached basis of a structurally identical
    /// parent instead of from scratch. Like `lp_pivots`, this describes how
    /// the schedule was *computed* — cache hits repeat the original solve's
    /// value.
    pub warm: bool,
}

/// A structured solve failure flowing between the service internals (the
/// solver runner, the single-flight layer) before it is rendered into a
/// [`Response`]: the machine-readable [`error_kind`], the human-readable
/// message, and the budget post-mortem when a budget tripped.
#[derive(Debug, Clone, PartialEq)]
pub struct SolveFailure {
    /// One of the [`error_kind`] constants.
    pub kind: &'static str,
    /// Human-readable message for [`Response::error`].
    pub message: String,
    /// Which budget ran out, when `kind` is `budget_exhausted`.
    pub budget: Option<BudgetReport>,
}

impl SolveFailure {
    /// A failure without budget diagnostics.
    #[must_use]
    pub fn new(kind: &'static str, message: impl Into<String>) -> Self {
        Self {
            kind,
            message: message.into(),
            budget: None,
        }
    }
}

/// A scheduling response.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// Echo of the request id. For unparseable lines this is the best-effort
    /// scan of the line's `"id"` field (so clients can still match the error
    /// to a request), or 0 when no id could be found.
    pub id: u64,
    /// Whether a schedule was produced.
    pub ok: bool,
    /// Error message when `ok` is false.
    pub error: Option<String>,
    /// Machine-readable error category when `ok` is false (see
    /// [`error_kind`]); `"busy"` means admission control rejected the
    /// request without executing it.
    pub error_kind: Option<String>,
    /// Name of the solver that produced the schedule.
    pub solver: Option<String>,
    /// Whether the schedule was served from the cache.
    pub cache_hit: bool,
    /// The oblivious schedule (execute cyclically).
    pub schedule: Option<ObliviousSchedule>,
    /// Length of the schedule in steps.
    pub schedule_len: usize,
    /// LP optimum backing the schedule, for LP-based solvers.
    pub lp_value: Option<f64>,
    /// Simplex pivots spent by the LP engine when this schedule was computed
    /// (cache hits repeat the original solve's count), for LP-based solvers.
    pub lp_pivots: Option<usize>,
    /// Wall-clock microseconds the LP engine spent when this schedule was
    /// computed, for LP-based solvers.
    pub lp_micros: Option<u64>,
    /// Monte-Carlo estimate of the expected makespan, when requested.
    pub estimated_makespan: Option<f64>,
    /// Service-side handling time in microseconds.
    pub service_micros: u64,
    /// Whether this is a degraded answer: the dispatched solver's budget ran
    /// out and the serial-baseline solver answered instead (no approximation
    /// guarantee, but bounded latency). **Omitted from the wire when false**,
    /// so v1 responses are unchanged.
    pub degraded: bool,
    /// Budget post-mortem on `budget_exhausted` errors and degraded
    /// responses. **Omitted from the wire when absent.**
    pub budget: Option<BudgetReport>,
    /// Per-stage lifecycle timings, present only when the request opted in
    /// with `options: {"trace": true}`. **Omitted from the wire when
    /// absent.**
    pub trace: Option<TraceReport>,
}

impl Serialize for Response {
    // Hand-written to keep v1 responses byte-identical: field order matches
    // the historical derive, and the v2 `degraded`/`budget` fields are
    // appended only when set (never as nulls).
    fn to_value(&self) -> Value {
        let mut fields = vec![
            ("id".to_string(), self.id.to_value()),
            ("ok".to_string(), self.ok.to_value()),
            ("error".to_string(), self.error.to_value()),
            ("error_kind".to_string(), self.error_kind.to_value()),
            ("solver".to_string(), self.solver.to_value()),
            ("cache_hit".to_string(), self.cache_hit.to_value()),
            ("schedule".to_string(), self.schedule.to_value()),
            ("schedule_len".to_string(), self.schedule_len.to_value()),
            ("lp_value".to_string(), self.lp_value.to_value()),
            ("lp_pivots".to_string(), self.lp_pivots.to_value()),
            ("lp_micros".to_string(), self.lp_micros.to_value()),
            (
                "estimated_makespan".to_string(),
                self.estimated_makespan.to_value(),
            ),
            ("service_micros".to_string(), self.service_micros.to_value()),
        ];
        if self.degraded {
            fields.push(("degraded".to_string(), self.degraded.to_value()));
        }
        if let Some(budget) = &self.budget {
            fields.push(("budget".to_string(), budget.to_value()));
        }
        if let Some(trace) = &self.trace {
            fields.push(("trace".to_string(), trace.to_value()));
        }
        Value::Object(fields)
    }
}

impl Deserialize for Response {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let required = |key: &str| {
            v.get(key)
                .ok_or_else(|| DeError::new(format!("missing field `{key}` in Response")))
        };
        Ok(Self {
            id: u64::from_value(required("id")?)?,
            ok: bool::from_value(required("ok")?)?,
            error: Option::from_value(required("error")?)?,
            error_kind: Option::from_value(required("error_kind")?)?,
            solver: Option::from_value(required("solver")?)?,
            cache_hit: bool::from_value(required("cache_hit")?)?,
            schedule: Option::from_value(required("schedule")?)?,
            schedule_len: usize::from_value(required("schedule_len")?)?,
            lp_value: Option::from_value(required("lp_value")?)?,
            lp_pivots: Option::from_value(required("lp_pivots")?)?,
            lp_micros: Option::from_value(required("lp_micros")?)?,
            estimated_makespan: Option::from_value(required("estimated_makespan")?)?,
            service_micros: u64::from_value(required("service_micros")?)?,
            // The v2 fields are omitted (not null) on v1-shaped responses.
            degraded: match v.get("degraded") {
                None | Some(Value::Null) => false,
                Some(b) => bool::from_value(b)?,
            },
            budget: match v.get("budget") {
                None | Some(Value::Null) => None,
                Some(b) => Some(BudgetReport::from_value(b)?),
            },
            trace: match v.get("trace") {
                None | Some(Value::Null) => None,
                Some(t) => Some(TraceReport::from_value(t)?),
            },
        })
    }
}

impl Response {
    /// An error response for `id` with an explicit [`error_kind`] category.
    #[must_use]
    pub fn failure_with(id: u64, kind: &str, error: impl Into<String>) -> Self {
        Self {
            id,
            ok: false,
            error: Some(error.into()),
            error_kind: Some(kind.to_string()),
            solver: None,
            cache_hit: false,
            schedule: None,
            schedule_len: 0,
            lp_value: None,
            lp_pivots: None,
            lp_micros: None,
            estimated_makespan: None,
            service_micros: 0,
            degraded: false,
            budget: None,
            trace: None,
        }
    }

    /// An error response for `id` (category defaults to
    /// [`error_kind::INVALID_REQUEST`]).
    #[must_use]
    pub fn failure(id: u64, error: impl Into<String>) -> Self {
        Self::failure_with(id, error_kind::INVALID_REQUEST, error)
    }

    /// An error response built from a structured [`SolveFailure`], carrying
    /// its budget post-mortem through to the wire.
    #[must_use]
    pub fn from_failure(id: u64, failure: &SolveFailure) -> Self {
        let mut response = Self::failure_with(id, failure.kind, failure.message.clone());
        response.budget = failure.budget.clone();
        response
    }

    /// The deadline-expiry response: the request's effective deadline passed
    /// before any solver work started.
    #[must_use]
    pub fn deadline_exceeded(id: u64) -> Self {
        Self::failure_with(
            id,
            error_kind::DEADLINE_EXCEEDED,
            "deadline exceeded before solving started",
        )
    }

    /// Applies the response projection: `NoSchedule` drops the schedule
    /// tree, `EstimateOnly` additionally drops the LP diagnostics. Pure
    /// presentation — `schedule_len` and the envelope stay.
    #[must_use]
    pub fn project(mut self, detail: Detail) -> Self {
        match detail {
            Detail::Full => {}
            Detail::NoSchedule => {
                self.schedule = None;
            }
            Detail::EstimateOnly => {
                self.schedule = None;
                self.lp_value = None;
                self.lp_pivots = None;
                self.lp_micros = None;
            }
        }
        self
    }

    /// The admission-control rejection: the solve queue was full and the
    /// request was dropped without being executed.
    #[must_use]
    pub fn busy(id: u64) -> Self {
        Self::failure_with(
            id,
            error_kind::BUSY,
            "service busy: the solve queue is full; retry later",
        )
    }

    /// Whether this is an admission-control `busy` rejection.
    #[must_use]
    pub fn is_busy(&self) -> bool {
        self.error_kind.as_deref() == Some(error_kind::BUSY)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use suu_core::InstanceBuilder;
    use suu_workloads::uniform_matrix;

    fn chain_instance() -> SuuInstance {
        InstanceBuilder::new(3, 2)
            .probability_matrix(uniform_matrix(3, 2, 0.2, 0.9, 3))
            .chains(&[vec![0, 1, 2]])
            .build()
            .unwrap()
    }

    #[test]
    fn request_roundtrips_through_instance_and_json() {
        let inst = chain_instance();
        let req = Request::from_instance(42, &inst);
        let back = req.to_instance().unwrap();
        assert_eq!(inst, back);

        let json = serde_json::to_string(&req).unwrap();
        let parsed: Request = serde_json::from_str(&json).unwrap();
        assert_eq!(req, parsed);
        assert_eq!(parsed.to_instance().unwrap(), inst);
    }

    #[test]
    fn request_tolerates_omitted_optional_fields() {
        let json = r#"{"id": 7, "num_jobs": 2, "num_machines": 1, "probs": [0.5, 0.5]}"#;
        let req: Request = serde_json::from_str(json).unwrap();
        assert_eq!(req.id, 7);
        assert!(req.edges.is_empty());
        assert!(req.solver.is_none());
        assert!(req.estimate_trials.is_none());
        assert!(req.to_instance().unwrap().is_independent());
    }

    #[test]
    fn request_rejects_missing_required_fields() {
        let json = r#"{"id": 7, "num_jobs": 2, "num_machines": 1}"#;
        assert!(serde_json::from_str::<Request>(json).is_err());
    }

    #[test]
    fn to_instance_rejects_cycles_and_bad_probabilities() {
        let cyclic = Request {
            id: 1,
            num_jobs: 2,
            num_machines: 1,
            probs: vec![0.5, 0.5],
            edges: vec![(0, 1), (1, 0)],
            solver: None,
            estimate_trials: None,
            options: None,
            base_digest: None,
            delta: None,
        };
        assert!(cyclic.to_instance().unwrap_err().contains("precedence"));

        let out_of_range = Request {
            id: 2,
            num_jobs: 1,
            num_machines: 1,
            probs: vec![1.5],
            edges: Vec::new(),
            solver: None,
            estimate_trials: None,
            options: None,
            base_digest: None,
            delta: None,
        };
        assert!(out_of_range.to_instance().unwrap_err().contains("instance"));
    }

    #[test]
    fn response_roundtrips_through_json() {
        let resp = Response {
            id: 9,
            ok: true,
            error: None,
            error_kind: None,
            solver: Some("suu-c".to_string()),
            cache_hit: true,
            schedule: Some(ObliviousSchedule::new(2)),
            schedule_len: 0,
            lp_value: Some(3.25),
            lp_pivots: Some(42),
            lp_micros: Some(180),
            estimated_makespan: None,
            service_micros: 12,
            degraded: false,
            budget: None,
            trace: None,
        };
        let json = serde_json::to_string(&resp).unwrap();
        assert!(json.contains("\"cache_hit\":true") || json.contains("\"cache_hit\": true"));
        let back: Response = serde_json::from_str(&json).unwrap();
        assert_eq!(resp, back);
    }

    #[test]
    fn failure_response_carries_the_message() {
        let resp = Response::failure(3, "boom");
        assert!(!resp.ok);
        assert_eq!(resp.error.as_deref(), Some("boom"));
        assert_eq!(
            resp.error_kind.as_deref(),
            Some(error_kind::INVALID_REQUEST)
        );
        let json = serde_json::to_string(&resp).unwrap();
        let back: Response = serde_json::from_str(&json).unwrap();
        assert_eq!(back.error.as_deref(), Some("boom"));
        assert_eq!(back.error_kind, resp.error_kind);
    }

    #[test]
    fn v1_request_serialisation_has_no_options_key() {
        let req = Request::from_instance(1, &chain_instance());
        let json = serde_json::to_string(&req).unwrap();
        assert!(!json.contains("options"), "json: {json}");
        let parsed: Request = serde_json::from_str(&json).unwrap();
        assert!(parsed.options.is_none());
        assert!(parsed.solve_options().is_default());
    }

    #[test]
    fn options_roundtrip_and_tolerate_omissions() {
        let mut req = Request::from_instance(7, &chain_instance());
        req.options = Some(SolveOptions {
            engine: Some(EngineChoice::Revised),
            max_pivots: Some(500),
            time_budget_ms: Some(25),
            deadline_ms: None,
            cache: Some(CachePolicy::Refresh),
            detail: Some(Detail::NoSchedule),
            trace: false,
        });
        let json = serde_json::to_string(&req).unwrap();
        assert!(json.contains("\"options\":{"), "json: {json}");
        assert!(!json.contains("deadline_ms"), "absent fields omitted");
        let back: Request = serde_json::from_str(&json).unwrap();
        assert_eq!(back, req);

        let sparse: Request = serde_json::from_str(
            r#"{"id":1,"num_jobs":1,"num_machines":1,"probs":[0.5],
                "options":{"detail":"estimate_only"}}"#,
        )
        .unwrap();
        let options = sparse.solve_options();
        assert_eq!(options.detail(), Detail::EstimateOnly);
        assert_eq!(options.cache_policy(), CachePolicy::Default);

        let bad = r#"{"id":1,"num_jobs":1,"num_machines":1,"probs":[0.5],
                      "options":{"engine":"warp"}}"#;
        assert!(serde_json::from_str::<Request>(bad).is_err());
    }

    #[test]
    fn trace_option_and_report_roundtrip_and_are_omitted_by_default() {
        // `trace` rides in options, serialised only when set.
        let mut req = Request::from_instance(5, &chain_instance());
        req.options = Some(SolveOptions {
            trace: true,
            ..SolveOptions::default()
        });
        let json = serde_json::to_string(&req).unwrap();
        assert!(
            json.contains("\"options\":{\"trace\":true}"),
            "json: {json}"
        );
        let back: Request = serde_json::from_str(&json).unwrap();
        assert!(back.solve_options().trace);

        // An untraced response carries no trace key at all.
        let mut resp = Response::failure(5, "x");
        let json = serde_json::to_string(&resp).unwrap();
        assert!(!json.contains("trace"), "json: {json}");

        resp.trace = Some(TraceReport {
            queue_us: 12,
            solve_us: 190,
            render_us: 3,
            cache: "miss".to_string(),
            lp_pivots: 44,
            warm: false,
        });
        let json = serde_json::to_string(&resp).unwrap();
        assert!(
            json.contains(
                "\"trace\":{\"queue_us\":12,\"solve_us\":190,\"render_us\":3,\
                 \"cache\":\"miss\",\"lp_pivots\":44,\"warm\":false}"
            ),
            "json: {json}"
        );
        let back: Response = serde_json::from_str(&json).unwrap();
        assert_eq!(back, resp);
    }

    #[test]
    fn effective_deadline_takes_the_earlier_bound() {
        let now = Instant::now();
        assert_eq!(SolveOptions::default().effective_deadline(now), None);
        let budget_only = SolveOptions {
            time_budget_ms: Some(1_000),
            ..SolveOptions::default()
        };
        assert_eq!(
            budget_only.effective_deadline(now),
            Some(now + Duration::from_millis(1_000))
        );
        // An absolute deadline in the deep past expires immediately,
        // whatever the relative budget says.
        let both = SolveOptions {
            time_budget_ms: Some(60_000),
            deadline_ms: Some(1),
            ..SolveOptions::default()
        };
        let effective = both.effective_deadline(now).unwrap();
        assert!(effective <= now);
    }

    #[test]
    fn scans_recover_id_and_deadline_fields() {
        assert_eq!(scan_request_id(r#"{"id":42,"num_jobs":}"#), 42);
        assert_eq!(scan_request_id(r#"{"id": 7 ,"#), 7);
        assert_eq!(scan_request_id("no id here"), 0);
        assert_eq!(scan_request_id(r#"{"id":-3}"#), 0);

        let now = Instant::now();
        assert!(scan_deadline(r#"{"id":1}"#, now).is_none());
        // Stray fields the parser ignores must not expire the request,
        // wherever they sit relative to the options object: the scan is
        // scoped to the object body itself.
        assert!(scan_deadline(r#"{"id":1,"time_budget_ms":0,"num_jobs":1}"#, now).is_none());
        assert!(scan_deadline(
            r#"{"id":1,"options":{"detail":"full"},"time_budget_ms":0}"#,
            now
        )
        .is_none());
        // A string *value* "options" is not an options object.
        assert!(scan_deadline(r#"{"id":1,"solver":"options","time_budget_ms":0}"#, now).is_none());
        // ... and does not stop the scan from finding the real key later.
        assert!(scan_deadline(
            r#"{"id":1,"solver":"options","options":{"time_budget_ms":0}}"#,
            now
        )
        .is_some());
        let scanned = scan_deadline(r#"{"id":1,"options":{"time_budget_ms":250}}"#, now);
        assert_eq!(scanned, Some(now + Duration::from_millis(250)));
    }

    #[test]
    fn degraded_and_budget_are_omitted_unless_set() {
        let mut resp = Response::failure(1, "x");
        let json = serde_json::to_string(&resp).unwrap();
        assert!(!json.contains("degraded"), "json: {json}");
        assert!(!json.contains("budget"), "json: {json}");
        let back: Response = serde_json::from_str(&json).unwrap();
        assert!(!back.degraded);
        assert!(back.budget.is_none());

        resp.degraded = true;
        resp.budget = Some(BudgetReport::new(17, false));
        let json = serde_json::to_string(&resp).unwrap();
        assert!(json.contains("\"degraded\":true"), "json: {json}");
        assert!(
            json.contains("\"budget\":{\"exhausted\":\"pivots\",\"spent_pivots\":17}"),
            "json: {json}"
        );
        let back: Response = serde_json::from_str(&json).unwrap();
        assert_eq!(back, resp);
    }

    #[test]
    fn projection_strips_schedule_and_diagnostics() {
        let full = Response {
            id: 1,
            ok: true,
            error: None,
            error_kind: None,
            solver: Some("suu-c".to_string()),
            cache_hit: false,
            schedule: Some(ObliviousSchedule::new(2)),
            schedule_len: 3,
            lp_value: Some(1.5),
            lp_pivots: Some(9),
            lp_micros: Some(80),
            estimated_makespan: Some(4.0),
            service_micros: 10,
            degraded: false,
            budget: None,
            trace: None,
        };
        let no_schedule = full.clone().project(Detail::NoSchedule);
        assert!(no_schedule.schedule.is_none());
        assert_eq!(no_schedule.schedule_len, 3);
        assert_eq!(no_schedule.lp_pivots, Some(9));
        let estimate_only = full.clone().project(Detail::EstimateOnly);
        assert!(estimate_only.schedule.is_none());
        assert!(estimate_only.lp_value.is_none());
        assert!(estimate_only.lp_pivots.is_none());
        assert!(estimate_only.lp_micros.is_none());
        assert_eq!(estimate_only.estimated_makespan, Some(4.0));
        assert_eq!(full.clone().project(Detail::Full), full);
    }

    #[test]
    fn digest_wire_form_roundtrips_and_rejects_garbage() {
        for d in [0u64, 1, 0x91f4_c3a0_7b5e_2d18, u64::MAX] {
            let wire = digest_to_wire(d);
            assert_eq!(wire.len(), 16);
            assert_eq!(digest_from_wire(&wire), Some(d));
        }
        assert_eq!(digest_from_wire(""), None);
        assert_eq!(digest_from_wire("91f4c3a07b5e2d1"), None, "too short");
        assert_eq!(digest_from_wire("91f4c3a07b5e2d181"), None, "too long");
        assert_eq!(digest_from_wire("91F4C3A07B5E2D18"), None, "uppercase");
        assert_eq!(digest_from_wire("91f4c3a07b5e2d1g"), None, "non-hex");
        assert_eq!(digest_from_wire("+1f4c3a07b5e2d18"), None, "sign");
    }

    #[test]
    fn delta_request_omits_payload_fields_and_roundtrips() {
        let delta = InstanceDelta {
            set_prob: vec![(0, 2, 0.75)],
            ..InstanceDelta::default()
        };
        let req = Request::from_delta(12, 0x91f4_c3a0_7b5e_2d18, delta);
        let json = serde_json::to_string(&req).unwrap();
        assert!(
            json.contains("\"base_digest\":\"91f4c3a07b5e2d18\""),
            "json: {json}"
        );
        assert!(!json.contains("num_jobs"), "payload omitted: {json}");
        assert!(!json.contains("probs"), "payload omitted: {json}");
        let back: Request = serde_json::from_str(&json).unwrap();
        assert_eq!(back, req);

        // Without base_digest, omitted payload fields keep their historical
        // v1 missing-field errors.
        let bad = r#"{"id": 3, "delta": {"set_prob": [[0, 0, 0.5]]}}"#;
        let err = serde_json::from_str::<Request>(bad).unwrap_err();
        assert!(format!("{err}").contains("num_jobs"), "err: {err}");
    }

    #[test]
    fn full_payload_request_may_carry_a_delta() {
        let mut req = Request::from_instance(9, &chain_instance());
        req.delta = Some(InstanceDelta {
            drain_machine: Some(1),
            ..InstanceDelta::default()
        });
        let json = serde_json::to_string(&req).unwrap();
        assert!(json.contains("\"num_jobs\":3"), "json: {json}");
        assert!(json.contains("\"delta\":{"), "json: {json}");
        let back: Request = serde_json::from_str(&json).unwrap();
        assert_eq!(back, req);
    }

    #[test]
    fn busy_response_is_structured() {
        let resp = Response::busy(17);
        assert!(!resp.ok);
        assert!(resp.is_busy());
        assert_eq!(resp.id, 17);
        assert_eq!(resp.error_kind.as_deref(), Some(error_kind::BUSY));
        let json = serde_json::to_string(&resp).unwrap();
        assert!(json.contains("\"error_kind\":\"busy\""), "json: {json}");
        let back: Response = serde_json::from_str(&json).unwrap();
        assert!(back.is_busy());
        assert!(!Response::failure(17, "other").is_busy());
    }
}
