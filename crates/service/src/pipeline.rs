//! Request execution: transport I/O decoupled from solving.
//!
//! A connection's reader never solves — one slow general-DAG solve would
//! otherwise stall every request queued behind it on that connection. The
//! work is split into two roles:
//!
//! * **Readers** (one per connection, TCP or stdin) only tag NDJSON lines as
//!   [`Job`]s and push them onto a shared bounded queue. A full queue is
//!   answered with a structured `busy` error immediately (admission
//!   control) — the reader never blocks on the solvers.
//! * **Solver threads** (a fixed pool shared by every connection) pop jobs,
//!   parse and solve them through the single-flight layer, and write each
//!   response directly to the owning connection's [`ResponseSink`].
//!   Responses therefore return **out of submission order**; clients match
//!   on the echoed `id`.
//!
//! Every accepted job is guaranteed exactly one response: the in-flight
//! accounting lives in an RAII guard ([`InFlight`]) that the job carries, so
//! even a job dropped at shutdown releases its connection's drain waiters,
//! and a job whose handling panics is answered `solver_error` by a solver
//! thread that survives it.
//!
//! Flushing is batched: a solver thread flushes a connection's writer only
//! when that connection has no further responses in flight, so a pipelined
//! burst of K requests costs O(1) flush syscalls instead of K. A closed-loop
//! client (one request in flight) degenerates to flush-per-response, which
//! is exactly the latency-optimal behaviour it needs.

use std::collections::{HashSet, VecDeque};
use std::io::Write;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use crate::metrics::Counter;
use crate::obs::Stage;
use crate::protocol::{error_kind, scan_deadline, scan_request_id, scan_u64_field, Response};
use crate::service::{SchedulerService, StageContext};

/// Sizing of the pipelined executor.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// Number of solver threads consuming the shared queue.
    pub solver_threads: usize,
    /// Bound on queued (accepted but not yet solving) jobs; submissions
    /// beyond it are rejected with a `busy` response.
    pub queue_capacity: usize,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        let cores = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1);
        Self {
            // At least two so a single slow solve cannot monopolise the
            // pipeline even on a single-core host (threads timeshare).
            solver_threads: cores.max(2),
            queue_capacity: 256,
        }
    }
}

/// The write half of one connection, shared between its reader thread (for
/// inline parse/busy errors) and every solver thread.
pub struct ResponseSink {
    writer: Mutex<SinkWriter>,
    state: Mutex<SinkState>,
    drained: Condvar,
}

struct SinkWriter {
    out: Box<dyn Write + Send>,
    failed: bool,
}

#[derive(Default)]
struct SinkState {
    in_flight: usize,
}

impl ResponseSink {
    /// Wraps a connection's write half.
    pub fn new(out: impl Write + Send + 'static) -> Arc<Self> {
        Arc::new(Self {
            writer: Mutex::new(SinkWriter {
                out: Box::new(out),
                failed: false,
            }),
            state: Mutex::new(SinkState::default()),
            drained: Condvar::new(),
        })
    }

    /// Registers one in-flight response; the returned guard releases it on
    /// drop (after the response was written, or when the job is discarded).
    #[must_use]
    pub fn begin(self: &Arc<Self>) -> InFlight {
        self.state.lock().expect("sink state poisoned").in_flight += 1;
        InFlight {
            sink: Arc::clone(self),
        }
    }

    /// Writes one response as an NDJSON line. Never flushes; flushing is
    /// driven by the in-flight accounting (see [`InFlight`]) and by
    /// [`flush`](Self::flush).
    pub fn write_response(&self, response: &Response) {
        let line = serde_json::to_string(response).expect("responses always serialise");
        self.write_line(&line);
    }

    /// Writes one pre-serialised response line. Never flushes (see
    /// [`write_response`](Self::write_response)).
    pub fn write_line(&self, line: &str) {
        let mut writer = self.writer.lock().expect("sink writer poisoned");
        if writer.failed {
            return;
        }
        let ok = writer
            .out
            .write_all(line.as_bytes())
            .and_then(|()| writer.out.write_all(b"\n"))
            .is_ok();
        if !ok {
            // The client is gone; remember it so subsequent writes (and the
            // reader loop) stop early instead of erroring one by one.
            writer.failed = true;
        }
    }

    /// Writes one response and flushes immediately — used by reader threads
    /// for inline errors (oversized lines, `busy`), which should reach the
    /// client promptly even while solves are pending.
    pub fn write_response_now(&self, response: &Response) {
        self.write_response(response);
        self.flush();
    }

    /// Flushes the underlying writer (best effort).
    pub fn flush(&self) {
        let mut writer = self.writer.lock().expect("sink writer poisoned");
        if writer.failed {
            return;
        }
        if writer.out.flush().is_err() {
            writer.failed = true;
        }
    }

    /// Whether a write or flush has failed (client disconnected).
    #[must_use]
    pub fn failed(&self) -> bool {
        self.writer.lock().expect("sink writer poisoned").failed
    }

    /// Blocks until every in-flight response has been written (EOF drain:
    /// the reader saw end of input and waits for the solvers to finish the
    /// connection's backlog before closing).
    pub fn wait_drained(&self) {
        let mut state = self.state.lock().expect("sink state poisoned");
        while state.in_flight > 0 {
            state = self
                .drained
                .wait(state)
                .expect("sink state poisoned while draining");
        }
    }

    fn finish_one(&self) {
        let remaining = {
            let mut state = self.state.lock().expect("sink state poisoned");
            state.in_flight -= 1;
            state.in_flight
        };
        if remaining == 0 {
            // Last response of the current burst: push everything to the
            // client and wake an EOF-draining reader.
            self.flush();
            self.drained.notify_all();
        }
    }
}

/// RAII registration of one in-flight response on a [`ResponseSink`].
pub struct InFlight {
    sink: Arc<ResponseSink>,
}

impl Drop for InFlight {
    fn drop(&mut self) {
        self.sink.finish_one();
    }
}

/// One raw request line tagged with the connection it came from. Parsing
/// happens on the solver threads, through the service's interned-line
/// cache, so a slow parse never blocks a connection's reader.
pub struct Job {
    line: String,
    /// Best-effort request id (for `busy` rejections before parsing).
    id_hint: u64,
    /// When the reader accepted the job: relative time budgets are measured
    /// from here, so queueing counts against the budget.
    accepted_at: Instant,
    /// Effective deadline, scanned best-effort from the line (the full parse
    /// recomputes it from the same fields). Solver threads drop jobs whose
    /// deadline has passed at dequeue, without parsing or solving.
    deadline: Option<Instant>,
    /// Session id scanned from the line, when present. Jobs carrying the
    /// same session id are executed one at a time in submission order (a
    /// session is a state machine — its revisions must not race), while jobs
    /// of distinct sessions still fan out across the pool.
    session: Option<u64>,
    sink: Arc<ResponseSink>,
    _in_flight: InFlight,
}

/// Stable per-connection token derived from the sink's allocation: nonzero
/// (`Arc` payloads are never null), so it can never collide with the
/// anonymous token 0. Used to group a connection's sessions for disconnect
/// eviction.
pub(crate) fn sink_conn_token(sink: &Arc<ResponseSink>) -> u64 {
    Arc::as_ptr(sink) as usize as u64
}

impl Job {
    /// Wraps a raw line, taking an in-flight registration on `sink`; the id
    /// and deadline fields are scanned out (best effort) so admission
    /// rejections can echo the id and expired jobs can be dropped at dequeue
    /// without a parse.
    #[must_use]
    pub fn from_line(line: String, sink: &Arc<ResponseSink>) -> Self {
        let accepted_at = Instant::now();
        let id_hint = scan_request_id(&line);
        let deadline = scan_deadline(&line, accepted_at);
        let session = scan_u64_field(&line, "\"session\":");
        Self {
            line,
            id_hint,
            accepted_at,
            deadline,
            session,
            sink: Arc::clone(sink),
            _in_flight: sink.begin(),
        }
    }

    /// The id to echo in a `busy` rejection (0 when it could not be scanned
    /// from the line).
    #[must_use]
    pub fn id_hint(&self) -> u64 {
        self.id_hint
    }

    /// Whether the job's effective deadline has already passed.
    #[must_use]
    pub fn expired(&self) -> bool {
        self.deadline.is_some_and(|d| Instant::now() >= d)
    }

    fn respond_line(self, line: &str) {
        self.sink.write_line(line);
        // Dropping `self` releases the in-flight slot, which flushes the
        // sink if this was the connection's last pending response.
    }
}

struct QueueState {
    jobs: VecDeque<Job>,
    closed: bool,
    /// Sessions with a job currently *executing* on some solver thread.
    /// Dequeue skips jobs of an active session, so one session's events are
    /// applied strictly in submission order while distinct sessions still
    /// run concurrently.
    active_sessions: HashSet<u64>,
}

struct PoolShared {
    state: Mutex<QueueState>,
    available: Condvar,
    capacity: usize,
}

/// Cloneable submission handle onto a [`SolverPool`]'s queue.
#[derive(Clone)]
pub struct PoolHandle {
    shared: Arc<PoolShared>,
}

impl PoolHandle {
    /// Admission control: enqueues `job` unless the queue is at capacity or
    /// the pool is shutting down, in which case the job is handed back so
    /// the caller can answer `busy`. Never blocks. Returns the queue depth
    /// the job joined (itself included), read under the same lock.
    ///
    /// # Errors
    ///
    /// Returns the job when the queue is full or closed.
    // The Err variant intentionally hands the whole job back so the caller
    // can answer `busy` with its id and release its in-flight slot.
    #[allow(clippy::result_large_err)]
    pub fn try_submit(&self, job: Job) -> Result<usize, Job> {
        let mut state = self.shared.state.lock().expect("solve queue poisoned");
        if state.closed || state.jobs.len() >= self.shared.capacity {
            return Err(job);
        }
        state.jobs.push_back(job);
        let depth = state.jobs.len();
        drop(state);
        self.shared.available.notify_one();
        Ok(depth)
    }

    /// Jobs currently queued (not yet picked up by a solver thread).
    #[must_use]
    pub fn queue_depth(&self) -> usize {
        self.shared
            .state
            .lock()
            .expect("solve queue poisoned")
            .jobs
            .len()
    }

    /// The admission-control bound.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.shared.capacity
    }
}

/// The shared solver-thread pool: a bounded job queue plus the threads
/// draining it.
pub struct SolverPool {
    handle: PoolHandle,
    threads: Vec<JoinHandle<()>>,
}

impl SolverPool {
    /// Spawns `config.solver_threads` threads solving against `service`.
    #[must_use]
    pub fn spawn(service: Arc<SchedulerService>, config: &PipelineConfig) -> Self {
        let shared = Arc::new(PoolShared {
            state: Mutex::new(QueueState {
                jobs: VecDeque::new(),
                closed: false,
                active_sessions: HashSet::new(),
            }),
            available: Condvar::new(),
            capacity: config.queue_capacity.max(1),
        });
        let threads = (0..config.solver_threads.max(1))
            .map(|_| {
                let shared = Arc::clone(&shared);
                let service = Arc::clone(&service);
                std::thread::spawn(move || solver_loop(&shared, &service))
            })
            .collect();
        Self {
            handle: PoolHandle { shared },
            threads,
        }
    }

    /// A cloneable submission handle for reader threads.
    #[must_use]
    pub fn handle(&self) -> PoolHandle {
        self.handle.clone()
    }

    /// Closes the queue, lets the threads drain the remaining jobs and joins
    /// them. Every already-accepted job still gets its response written
    /// (best effort — disconnected clients are ignored).
    pub fn shutdown(mut self) {
        self.close();
        for thread in self.threads.drain(..) {
            let _ = thread.join();
        }
    }

    fn close(&self) {
        self.handle
            .shared
            .state
            .lock()
            .expect("solve queue poisoned")
            .closed = true;
        self.handle.shared.available.notify_all();
    }
}

impl Drop for SolverPool {
    fn drop(&mut self) {
        // Best effort for handles dropped without an explicit `shutdown`:
        // close the queue so the (detached) solver threads drain and exit
        // instead of parking on the condvar forever.
        self.close();
    }
}

/// Marks `session` idle again and wakes the pool (a gated job of that
/// session may now be runnable). No-op for sessionless jobs.
fn release_session(shared: &PoolShared, session: Option<u64>) {
    let Some(session) = session else { return };
    let mut state = shared.state.lock().expect("solve queue poisoned");
    state.active_sessions.remove(&session);
    drop(state);
    shared.available.notify_all();
}

fn solver_loop(shared: &PoolShared, service: &SchedulerService) {
    loop {
        let job = {
            let mut state = shared.state.lock().expect("solve queue poisoned");
            loop {
                // First job whose session (if any) is not already executing.
                // Sessionless jobs keep the old FIFO behaviour; a gated job
                // blocks only its own session's later jobs, never the queue.
                let pos = {
                    let QueueState {
                        jobs,
                        active_sessions,
                        ..
                    } = &mut *state;
                    jobs.iter().position(|job| {
                        job.session
                            .is_none_or(|session| !active_sessions.contains(&session))
                    })
                };
                if let Some(pos) = pos {
                    let job = state.jobs.remove(pos).expect("position was just found");
                    if let Some(session) = job.session {
                        state.active_sessions.insert(session);
                    }
                    break job;
                }
                if state.closed && state.jobs.is_empty() {
                    return;
                }
                // Empty, or every queued job is gated behind an executing
                // session — its solver thread will notify on release.
                state = shared
                    .available
                    .wait(state)
                    .expect("solve queue poisoned while waiting");
            }
        };
        let session = job.session;
        let queue_us = u64::try_from(job.accepted_at.elapsed().as_micros()).unwrap_or(u64::MAX);
        let failure_line = |kind, message| {
            let failure = Response::failure_with(job.id_hint(), kind, message);
            serde_json::to_string(&failure).expect("responses always serialise")
        };
        let line = if job.expired() {
            // Deadline check at dequeue: a job that expired while queued is
            // answered immediately and never reaches a solver — the whole
            // point of deadline-aware admission. Counted like `busy`
            // (answered but not executed) under the `expired_dropped` metric.
            service.metrics().add(Counter::ExpiredDropped, 1);
            failure_line(
                error_kind::DEADLINE_EXCEEDED,
                "deadline exceeded while queued; no solver time was spent",
            )
        } else {
            let ctx = StageContext {
                accepted_at: job.accepted_at,
                queue_us,
                conn: sink_conn_token(&job.sink),
            };
            // A panicking solve must not kill its solver thread (silently
            // shrinking the pool), leave its client without a response, or
            // gate its session forever. Coalesced waiters are released by
            // the flight guard's drop. A session whose state lock the panic
            // poisoned is evicted by its next event, which is answered
            // `unknown_session`; any other mutex held across the panic stays
            // poisoned, so later requests needing it fail the same way
            // instead of hanging.
            catch_unwind(AssertUnwindSafe(|| service.handle(&job.line, &ctx))).unwrap_or_else(
                |_| {
                    service.metrics().add(Counter::SolverPanics, 1);
                    failure_line(
                        error_kind::SOLVER_ERROR,
                        "the solver panicked while handling this request",
                    )
                },
            )
        };
        let flush_start = Instant::now();
        job.respond_line(&line);
        // `respond_line` covers the write and (when this response closed the
        // burst) the batched flush. Both stages are recorded only now, so
        // they count the same lines: every line a solver thread answered.
        service.metrics().record_stage(Stage::Queue, queue_us);
        service.metrics().record_stage(
            Stage::Flush,
            u64::try_from(flush_start.elapsed().as_micros()).unwrap_or(u64::MAX),
        );
        // The response is written: the session's next queued event (if any)
        // becomes eligible only now, preserving per-session revision order.
        release_session(shared, session);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::Request;
    use crate::service::ServiceConfig;
    use std::io::Write;
    use suu_core::InstanceBuilder;
    use suu_workloads::uniform_matrix;

    /// A `Write` that appends into a shared buffer and counts flushes.
    #[derive(Clone, Default)]
    struct SharedBuf {
        data: Arc<Mutex<Vec<u8>>>,
        flushes: Arc<Mutex<usize>>,
    }

    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.data.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            *self.flushes.lock().unwrap() += 1;
            Ok(())
        }
    }

    impl SharedBuf {
        fn lines(&self) -> Vec<Response> {
            String::from_utf8(self.data.lock().unwrap().clone())
                .unwrap()
                .lines()
                .map(|l| serde_json::from_str(l).unwrap())
                .collect()
        }
    }

    fn job(id: u64, seed: u64, sink: &Arc<ResponseSink>) -> Job {
        let inst = InstanceBuilder::new(3, 2)
            .probability_matrix(uniform_matrix(3, 2, 0.3, 0.9, seed))
            .build()
            .unwrap();
        let line = serde_json::to_string(&Request::from_instance(id, &inst)).unwrap();
        Job::from_line(line, sink)
    }

    fn pool(threads: usize, capacity: usize) -> (Arc<SchedulerService>, SolverPool) {
        let service = Arc::new(SchedulerService::new(ServiceConfig::default()));
        let pool = SolverPool::spawn(
            Arc::clone(&service),
            &PipelineConfig {
                solver_threads: threads,
                queue_capacity: capacity,
            },
        );
        (service, pool)
    }

    #[test]
    fn jobs_get_exactly_one_response_each() {
        let (_, pool) = pool(2, 64);
        let buf = SharedBuf::default();
        let sink = ResponseSink::new(buf.clone());
        let handle = pool.handle();
        for id in 1..=8 {
            handle
                .try_submit(job(id, id, &sink))
                .unwrap_or_else(|_| panic!("queue has room"));
        }
        sink.wait_drained();
        let mut ids: Vec<u64> = buf.lines().iter().map(|r| r.id).collect();
        ids.sort_unstable();
        assert_eq!(ids, (1..=8).collect::<Vec<_>>());
        assert!(buf.lines().iter().all(|r| r.ok));
        pool.shutdown();
    }

    #[test]
    fn full_queue_rejects_without_blocking() {
        // No solver threads would leave the queue full forever; use a pool
        // whose single thread is busy by flooding more jobs than capacity.
        let (_, pool) = pool(1, 2);
        let buf = SharedBuf::default();
        let sink = ResponseSink::new(buf.clone());
        let handle = pool.handle();
        let mut rejected = 0;
        for id in 1..=50 {
            if let Err(job) = handle.try_submit(job(id, 1, &sink)) {
                rejected += 1;
                drop(job); // releases the in-flight slot
            }
        }
        assert!(rejected > 0, "50 submissions must overflow capacity 2");
        sink.wait_drained();
        assert_eq!(buf.lines().len(), 50 - rejected, "accepted jobs answered");
        pool.shutdown();
    }

    #[test]
    fn shutdown_drains_accepted_jobs() {
        let (_, pool) = pool(1, 64);
        let buf = SharedBuf::default();
        let sink = ResponseSink::new(buf.clone());
        let handle = pool.handle();
        for id in 1..=5 {
            handle
                .try_submit(job(id, 2, &sink))
                .unwrap_or_else(|_| panic!("queue has room"));
        }
        pool.shutdown();
        assert_eq!(buf.lines().len(), 5, "shutdown still answers accepted jobs");
        // The queue is closed: new submissions bounce.
        assert!(handle.try_submit(job(9, 2, &sink)).is_err());
    }

    #[test]
    fn flushes_are_batched_per_burst() {
        let (_, pool) = pool(1, 64);
        let buf = SharedBuf::default();
        let sink = ResponseSink::new(buf.clone());
        let handle = pool.handle();
        // Hold one extra in-flight registration so the burst cannot fully
        // drain (and flush) until we release it.
        let gate = sink.begin();
        for id in 1..=16 {
            handle
                .try_submit(job(id, 3, &sink))
                .unwrap_or_else(|_| panic!("queue has room"));
        }
        while handle.queue_depth() > 0 {
            std::thread::yield_now();
        }
        drop(gate);
        sink.wait_drained();
        let flushes = *buf.flushes.lock().unwrap();
        assert!(
            flushes < 16,
            "16 pipelined responses should not cost 16 flushes (got {flushes})"
        );
        assert_eq!(buf.lines().len(), 16);
        pool.shutdown();
    }

    #[test]
    fn failed_sink_swallows_writes_without_panicking() {
        struct Broken;
        impl Write for Broken {
            fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
                Err(std::io::Error::other("gone"))
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Err(std::io::Error::other("gone"))
            }
        }
        let sink = ResponseSink::new(Broken);
        sink.write_response_now(&Response::failure(1, "x"));
        assert!(sink.failed());
        sink.write_response(&Response::failure(2, "y")); // no-op, no panic
        sink.wait_drained(); // nothing in flight: returns immediately
    }
}
