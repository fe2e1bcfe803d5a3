//! `suu-service` — a long-running, multi-threaded scheduling service.
//!
//! The rest of the workspace implements the algorithms of Lin & Rajaraman
//! (SPAA 2007) as library calls; this crate turns them into a serving layer:
//!
//! * [`solver`] — the unified [`Solver`](solver::Solver) trait and the
//!   [`SolverRegistry`](solver::SolverRegistry) that auto-dispatches each
//!   instance to the paper's strongest algorithm for its structural class
//!   (independent → `SUU-I-OBL`, disjoint chains → `SUU-C`, trees/forests →
//!   the block algorithm of Thms 4.7/4.8, general DAGs → a serial baseline).
//! * [`cache`] — a sharded LRU [`ScheduleCache`](cache::ScheduleCache) keyed
//!   by the instance's canonical digest, so repeated workloads are served
//!   without re-solving the LP.
//! * [`protocol`] — the newline-delimited JSON request/response schema
//!   (request ids, out-of-order responses, structured `error_kind`s).
//! * [`flight`] — the single-flight layer coalescing identical concurrent
//!   solves: one solver invocation per `(canonical_digest, solver)` no
//!   matter how many requests race.
//! * [`pipeline`] — the request executor: readers tag NDJSON lines as jobs
//!   on a shared bounded queue (full → structured `busy` rejection), a
//!   solver-thread pool parses and answers them, writing responses out of
//!   order.
//! * [`service`] — the [`SchedulerService`](service::SchedulerService)
//!   combining registry, cache, single-flight and metrics behind one
//!   request entry point, plus the stdin/stdout transport loop.
//! * [`server`] — the TCP transport: a listener feeding a pool of
//!   connection readers that share one solver pool.
//! * [`session`] — adaptive scheduling sessions: a client streams execution
//!   feedback in (`completed`, `failed_machine`, `drift`) and streams
//!   incremental schedule revisions out, each re-solved on the unfinished
//!   suffix only and warm-started from the previous revision's basis. Also
//!   hosts the `suu-sim`-backed closed-loop driver used by the
//!   `exp_adaptive` experiment and the repository benchmark's `sessions`
//!   workload.
//! * [`metrics`] — request/error/latency/coalescing counters shared by the
//!   transports, aggregated into lock-free per-stage histograms.
//! * [`obs`] — the observability primitives underneath [`metrics`]: a
//!   log-bucketed [`AtomicHistogram`](obs::AtomicHistogram) (wait-free
//!   recording, mergeable snapshots, p50/p90/p99/p999) and the
//!   request-lifecycle [`Stage`](obs::Stage) vocabulary. Surfaced on the
//!   wire through the `stats` verb and the opt-in per-response `trace`
//!   object (see [`protocol`]).
//!
//! Binary: `suu_serviced` (the daemon, `--stdin` or `--tcp ADDR`; see the
//! repository README for the schema and usage). The repository benchmark
//! (`perfbench/`) drives it from a separate process.

pub mod cache;
pub mod flight;
pub mod metrics;
pub mod obs;
pub mod pipeline;
pub mod protocol;
pub mod server;
pub mod service;
pub mod session;
pub mod solver;

pub use cache::{CacheConfig, CachedSolve, ScheduleCache, ShardStats};
pub use flight::SingleFlight;
pub use metrics::{MetricsSnapshot, ServiceMetrics};
pub use obs::{AtomicHistogram, HistogramSnapshot, Stage};
pub use pipeline::{PipelineConfig, PoolHandle, ResponseSink, SolverPool};
pub use protocol::{
    digest_from_wire, digest_to_wire, error_kind, scan_deadline, scan_request_id, scan_u64_field,
    BudgetReport, CachePolicy, Detail, EngineChoice, Request, Response, SolveFailure, SolveOptions,
    TraceReport,
};
pub use server::{spawn_tcp, ServiceHandle, TcpServerConfig};
pub use service::{SchedulerService, ServiceConfig};
pub use session::{
    drive_session, execute_oblivious, open_session_line, widen_schedule, DriveConfig, SessionEvent,
    SessionRunReport, SessionState, SessionTable, SESSION_SOLVER,
};
pub use solver::{SolveOutput, Solver, SolverRegistry};

/// FNV-1a over raw bytes — the crate's common content hash (interned request
/// lines).
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}
