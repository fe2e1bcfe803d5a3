//! Service-side metrics: a table of counters indexed by [`Counter`], a table
//! of lock-free histograms indexed by [`Histogram`] and [`Stage`] (see
//! [`crate::obs`]), and per-solver request counts.
//!
//! A counter is declared once, as a variant with its doc and its key path
//! in the `stats` reply. The `stats` reply and the status line are rendered
//! by walking the tables, so they cannot disagree on a name or miss a
//! counter.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use serde::{Serialize, Value};

use crate::obs::{AtomicHistogram, HistogramSnapshot, Stage};

/// One service counter: a relaxed [`AtomicU64`] in [`ServiceMetrics`] and
/// one number in the `stats` reply, at [`path`](Self::path). Two variants
/// are gauges, set rather than added to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Counter {
    /// Handled requests, successes and errors alike (see [`ServiceMetrics`]
    /// for the traffic that is answered but not counted).
    Requests,
    /// Handled requests answered with an error.
    Errors,
    /// Admission-control rejections (`busy` replies); not in `requests`.
    BusyRejections,
    /// Jobs dropped at dequeue because their deadline had passed, answered
    /// without solver work; not in `requests`.
    ExpiredDropped,
    /// Jobs whose handling panicked, caught at the solver loop's job
    /// boundary and answered `solver_error`; not in `requests`.
    SolverPanics,
    /// Schedules computed by a solver: cache misses that were not coalesced
    /// onto another in-flight solve.
    FreshSolves,
    /// Fresh solves whose LP started warm, from the cached basis of a
    /// structurally identical parent. A subset of `fresh_solves`.
    WarmHits,
    /// Delta requests whose `base_digest` the cache could not resolve
    /// (answered `unknown_base`).
    UnknownBase,
    /// Requests served by waiting on an identical in-flight solve
    /// (single-flight coalescing).
    Coalesced,
    /// Simplex pivots spent by fresh LP-backed solves.
    LpPivots,
    /// Gauge: the solve-queue depth sampled at the latest accepted
    /// submission.
    QueueDepth,
    /// Gauge: the solve queue's admission bound (0 until a transport
    /// reports it).
    QueueCapacity,
    /// Sessions opened via `open_session`.
    SessionsOpened,
    /// Sessions closed explicitly via `close_session`.
    SessionsClosed,
    /// Sessions evicted without a close: client disconnect, idle TTL or a
    /// state lock poisoned by a panic.
    SessionsEvicted,
    /// Schedule revisions served to sessions: each `open_session` revision 0
    /// and each `session_event` re-solve.
    Revisions,
    /// Revisions whose suffix re-solve started warm. A subset of
    /// `revisions`.
    RevisionWarmHits,
    /// Events or closes naming a session the table does not hold (answered
    /// `unknown_session`).
    UnknownSession,
}

impl Counter {
    /// Every counter, in `stats` and status-line order.
    pub const ALL: [Counter; 18] = [
        Counter::Requests,
        Counter::Errors,
        Counter::BusyRejections,
        Counter::ExpiredDropped,
        Counter::SolverPanics,
        Counter::FreshSolves,
        Counter::WarmHits,
        Counter::UnknownBase,
        Counter::Coalesced,
        Counter::LpPivots,
        Counter::QueueDepth,
        Counter::QueueCapacity,
        Counter::SessionsOpened,
        Counter::SessionsClosed,
        Counter::SessionsEvicted,
        Counter::Revisions,
        Counter::RevisionWarmHits,
        Counter::UnknownSession,
    ];

    /// Key path of this counter in the `stats` reply.
    #[must_use]
    pub fn path(self) -> &'static [&'static str] {
        match self {
            Counter::Requests => &["requests"],
            Counter::Errors => &["errors"],
            Counter::BusyRejections => &["busy_rejections"],
            Counter::ExpiredDropped => &["expired_dropped"],
            Counter::SolverPanics => &["solver_panics"],
            Counter::FreshSolves => &["fresh_solves"],
            Counter::WarmHits => &["warm_hits"],
            Counter::UnknownBase => &["unknown_base"],
            Counter::Coalesced => &["coalesced"],
            Counter::LpPivots => &["lp", "pivots"],
            Counter::QueueDepth => &["queue", "depth"],
            Counter::QueueCapacity => &["queue", "capacity"],
            Counter::SessionsOpened => &["sessions", "opened"],
            Counter::SessionsClosed => &["sessions", "closed"],
            Counter::SessionsEvicted => &["sessions", "evicted"],
            Counter::Revisions => &["sessions", "revisions"],
            Counter::RevisionWarmHits => &["sessions", "revision_warm_hits"],
            Counter::UnknownSession => &["sessions", "unknown"],
        }
    }

    /// Dense index (position in [`Counter::ALL`]).
    #[must_use]
    pub fn index(self) -> usize {
        self as usize
    }
}

/// One service histogram outside the request-lifecycle [`Stage`]s: an
/// [`AtomicHistogram`] in [`ServiceMetrics`], rendered in the `stats` reply
/// at [`path`](Self::path).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Histogram {
    /// Service-side handling latency of each handled request, microseconds:
    /// the `service_micros` of its reply.
    Latency,
    /// LP wall-clock of each fresh LP-backed solve, microseconds (cache
    /// hits spend none). Its count is `lp.solves` in the `stats` reply.
    LpMicros,
    /// Solve-queue depth, sampled at each accepted submission.
    QueueDepth,
    /// Serving latency of one session revision (event apply, suffix
    /// re-solve, schedule translation), microseconds. Not a [`Stage`]:
    /// session verbs never enter the request pipeline whose stage counts
    /// the `stats` consistency contract pins.
    RevisionLatency,
}

impl Histogram {
    /// Every histogram, in `stats` and status-line order.
    pub const ALL: [Histogram; 4] = [
        Histogram::Latency,
        Histogram::LpMicros,
        Histogram::QueueDepth,
        Histogram::RevisionLatency,
    ];

    /// Key path of this histogram in the `stats` reply.
    #[must_use]
    pub fn path(self) -> &'static [&'static str] {
        match self {
            Histogram::Latency => &["latency_us"],
            Histogram::LpMicros => &["lp", "micros"],
            Histogram::QueueDepth => &["queue", "depth_samples"],
            Histogram::RevisionLatency => &["sessions", "revision_latency_us"],
        }
    }

    /// Dense index (position in [`Histogram::ALL`]).
    #[must_use]
    pub fn index(self) -> usize {
        self as usize
    }
}

/// Live counters shared by all worker threads. Recording is a relaxed
/// atomic add (counters) or an [`AtomicHistogram`] record; the only lock is
/// the per-solver count list's.
///
/// # What counts as a request
///
/// [`Counter::Requests`] counts **handled** requests: every request a solver
/// path actually answered, successes and errors alike. Two classes of
/// traffic are answered but deliberately *not* counted:
///
/// * [`Counter::BusyRejections`] — admission control turned the request
///   away because the solve queue was full; it was never executed.
/// * [`Counter::ExpiredDropped`] — the job's deadline had already passed
///   when a solver thread dequeued it; it was answered `deadline_exceeded`
///   without any solver work. This counter is the proof that expired jobs
///   cost zero solver-thread time.
///
/// Protocol noise (unparseable lines, answered `bad_request`), verb lines
/// (`stats` and the session verbs) and jobs whose handling panicked
/// (answered `solver_error`, counted in [`Counter::SolverPanics`]) are
/// likewise answered without entering `requests`.
pub struct ServiceMetrics {
    /// When this metrics block was created (service start, for uptime).
    start: Instant,
    counters: [AtomicU64; Counter::ALL.len()],
    histograms: [AtomicHistogram; Histogram::ALL.len()],
    /// Per-stage latency histograms, indexed by [`Stage::index`] (see
    /// [`Stage`] for which lines each stage counts).
    stages: [AtomicHistogram; Stage::ALL.len()],
    /// Handled requests per answering solver, in first-answer order.
    per_solver: Mutex<Vec<(&'static str, u64)>>,
}

impl Default for ServiceMetrics {
    fn default() -> Self {
        Self::new()
    }
}

impl ServiceMetrics {
    /// A zeroed metrics block; uptime starts counting now.
    #[must_use]
    pub fn new() -> Self {
        Self {
            start: Instant::now(),
            counters: Default::default(),
            histograms: Default::default(),
            stages: Default::default(),
            per_solver: Mutex::default(),
        }
    }

    /// Adds `n` to `counter`.
    pub fn add(&self, counter: Counter, n: u64) {
        self.counters[counter.index()].fetch_add(n, Ordering::Relaxed);
    }

    /// Sets the gauge `counter` ([`Counter::QueueDepth`] or
    /// [`Counter::QueueCapacity`]) to `value`.
    pub fn set(&self, counter: Counter, value: u64) {
        self.counters[counter.index()].store(value, Ordering::Relaxed);
    }

    /// The current value of `counter`.
    #[must_use]
    pub fn counter(&self, counter: Counter) -> u64 {
        self.counters[counter.index()].load(Ordering::Relaxed)
    }

    /// Records one observation into `histogram`.
    pub fn record(&self, histogram: Histogram, value: u64) {
        self.histograms[histogram.index()].record(value);
    }

    /// Records time spent in one lifecycle stage of a request.
    pub fn record_stage(&self, stage: Stage, micros: u64) {
        self.stages[stage.index()].record(micros);
    }

    /// Books the reply to one handled request: counts it in `requests` (and
    /// in `errors` when no `solver` answered it), records its
    /// `service_micros` in [`Histogram::Latency`], its solve and render
    /// stages, and counts it for the solver that answered.
    pub fn record_reply(
        &self,
        solver: Option<&'static str>,
        solve_us: u64,
        render_us: u64,
        service_micros: u64,
    ) {
        self.add(Counter::Requests, 1);
        self.record(Histogram::Latency, service_micros);
        self.record_stage(Stage::Solve, solve_us);
        self.record_stage(Stage::Render, render_us);
        let Some(solver) = solver else {
            self.add(Counter::Errors, 1);
            return;
        };
        let mut per_solver = self.per_solver.lock().expect("solver counts poisoned");
        match per_solver.iter_mut().find(|(name, _)| *name == solver) {
            Some((_, count)) => *count += 1,
            None => per_solver.push((solver, 1)),
        }
    }

    /// Microseconds since this metrics block was created.
    #[must_use]
    pub fn uptime_micros(&self) -> u64 {
        u64::try_from(self.start.elapsed().as_micros()).unwrap_or(u64::MAX)
    }

    /// A point-in-time snapshot. Values are read one by one, so a snapshot
    /// taken during concurrent recording may straddle an update.
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut per_solver = self
            .per_solver
            .lock()
            .expect("solver counts poisoned")
            .clone();
        per_solver.sort_unstable();
        MetricsSnapshot {
            uptime_micros: self.uptime_micros(),
            counters: Counter::ALL.map(|counter| self.counter(counter)),
            histograms: Histogram::ALL.map(|h| self.histograms[h.index()].snapshot()),
            stages: Stage::ALL.map(|stage| self.stages[stage.index()].snapshot()),
            per_solver,
        }
    }
}

/// Point-in-time copy of the service metrics.
#[derive(Debug, Clone)]
pub struct MetricsSnapshot {
    /// Microseconds since service start.
    pub uptime_micros: u64,
    counters: [u64; Counter::ALL.len()],
    histograms: [HistogramSnapshot; Histogram::ALL.len()],
    stages: [HistogramSnapshot; Stage::ALL.len()],
    /// Handled requests per answering solver, sorted by name.
    pub per_solver: Vec<(&'static str, u64)>,
}

impl MetricsSnapshot {
    /// The value of `counter`.
    #[must_use]
    pub fn counter(&self, counter: Counter) -> u64 {
        self.counters[counter.index()]
    }

    /// The snapshot of `histogram`.
    #[must_use]
    pub fn histogram(&self, histogram: Histogram) -> &HistogramSnapshot {
        &self.histograms[histogram.index()]
    }

    /// The snapshot of one lifecycle stage's histogram.
    #[must_use]
    pub fn stage(&self, stage: Stage) -> &HistogramSnapshot {
        &self.stages[stage.index()]
    }

    /// The metrics part of the `stats` reply, as the fields of a JSON
    /// object: `uptime_us`, every counter and histogram at its path,
    /// `lp.solves`, `stages.*` and `per_solver.*`.
    pub(crate) fn stats_fields(&self) -> Vec<(String, Value)> {
        let mut fields = Vec::new();
        insert_at(&mut fields, &["uptime_us"], self.uptime_micros.to_value());
        for counter in Counter::ALL {
            insert_at(
                &mut fields,
                counter.path(),
                self.counter(counter).to_value(),
            );
        }
        for histogram in Histogram::ALL {
            insert_at(
                &mut fields,
                histogram.path(),
                self.histogram(histogram).to_value(),
            );
        }
        let lp_solves = self.histogram(Histogram::LpMicros).count();
        insert_at(&mut fields, &["lp", "solves"], lp_solves.to_value());
        for stage in Stage::ALL {
            insert_at(
                &mut fields,
                &["stages", stage.name()],
                self.stage(stage).to_value(),
            );
        }
        insert_at(&mut fields, &["per_solver"], Value::Object(Vec::new()));
        for &(solver, count) in &self.per_solver {
            insert_at(&mut fields, &["per_solver", solver], count.to_value());
        }
        fields
    }

    /// The one-line status report: `uptime_us`, every counter, the p50 and
    /// p99 of every histogram and stage, then the per-solver counts, as
    /// space-separated `path=value` pairs whose paths are `stats` key paths
    /// joined by `.`.
    #[must_use]
    pub fn status_line(&self) -> String {
        let mut pairs = vec![format!("uptime_us={}", self.uptime_micros)];
        for counter in Counter::ALL {
            pairs.push(format!(
                "{}={}",
                counter.path().join("."),
                self.counter(counter)
            ));
        }
        let histograms = Histogram::ALL
            .map(|h| (h.path().join("."), self.histogram(h)))
            .into_iter()
            .chain(Stage::ALL.map(|s| (format!("stages.{}", s.name()), self.stage(s))));
        for (path, snapshot) in histograms {
            pairs.push(format!("{path}.p50={}", snapshot.p50()));
            pairs.push(format!("{path}.p99={}", snapshot.p99()));
        }
        for (solver, count) in &self.per_solver {
            pairs.push(format!("per_solver.{solver}={count}"));
        }
        pairs.join(" ")
    }
}

/// Sets `value` at `path` in the JSON object `fields`, creating the objects
/// along the path that are missing.
///
/// # Panics
///
/// Panics when `path` is empty or runs through a value that is not an
/// object: two table entries whose paths clash, a bug in the tables.
pub(crate) fn insert_at(fields: &mut Vec<(String, Value)>, path: &[&str], value: Value) {
    let (key, rest) = path.split_first().expect("stats paths are non-empty");
    let at = match fields.iter().position(|(name, _)| name == key) {
        Some(at) => at,
        None => {
            fields.push(((*key).to_string(), Value::Object(Vec::new())));
            fields.len() - 1
        }
    };
    if rest.is_empty() {
        fields[at].1 = value;
    } else {
        let Value::Object(inner) = &mut fields[at].1 else {
            panic!("stats path {path:?} runs through a value that is not an object");
        };
        insert_at(inner, rest, value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_accumulates_counts_and_latency() {
        let m = ServiceMetrics::new();
        m.record_reply(Some("suu-c"), 90, 10, 100);
        m.record_reply(Some("suu-c"), 280, 20, 300);
        m.record_reply(None, 50, 5, 50);
        let snap = m.snapshot();
        assert_eq!(snap.counter(Counter::Requests), 3);
        assert_eq!(snap.counter(Counter::Errors), 1);
        let latency = snap.histogram(Histogram::Latency);
        assert_eq!(latency.count(), 3);
        assert!((latency.mean() - 150.0).abs() < 1e-9);
        assert_eq!(snap.stage(Stage::Solve).sum, 420);
        assert_eq!(snap.stage(Stage::Render).count(), 3);
        assert_eq!(snap.per_solver, vec![("suu-c", 2)]);
        let line = snap.status_line();
        assert!(line.contains(" requests=3 "), "status: {line}");
        assert!(line.contains(" latency_us.p50="), "status: {line}");
        assert!(line.contains(" latency_us.p99="), "status: {line}");
        assert!(line.ends_with(" per_solver.suu-c=2"), "status: {line}");
    }

    #[test]
    fn record_lp_accumulates_pivots_and_wall_clock() {
        let m = ServiceMetrics::new();
        for (pivots, micros) in [(40, 900), (60, 1_100)] {
            m.add(Counter::LpPivots, pivots);
            m.record(Histogram::LpMicros, micros);
        }
        let snap = m.snapshot();
        assert_eq!(snap.counter(Counter::LpPivots), 100);
        let lp = snap.histogram(Histogram::LpMicros);
        assert_eq!(lp.count(), 2);
        assert!((lp.mean() - 1_000.0).abs() < 1e-9);
        let stats = Value::Object(snap.stats_fields());
        assert_eq!(
            stats.get("lp").and_then(|lp| lp.get("solves")),
            Some(&Value::Number(2.0))
        );
        let line = snap.status_line();
        assert!(line.contains(" lp.pivots=100 "), "status: {line}");
    }

    #[test]
    fn solve_flow_counters_accumulate_independently() {
        let m = ServiceMetrics::new();
        let counts = [
            (Counter::FreshSolves, 2),
            (Counter::Coalesced, 1),
            (Counter::BusyRejections, 3),
            (Counter::ExpiredDropped, 1),
            (Counter::WarmHits, 2),
            (Counter::UnknownBase, 1),
        ];
        for (counter, n) in counts {
            for _ in 0..n {
                m.add(counter, 1);
            }
        }
        let snap = m.snapshot();
        let line = snap.status_line();
        for counter in Counter::ALL {
            let n = counts
                .iter()
                .find(|(c, _)| *c == counter)
                .map_or(0, |&(_, n)| n);
            assert_eq!(m.counter(counter), n, "{counter:?}");
            assert_eq!(snap.counter(counter), n, "{counter:?}");
            let pair = format!(" {}={n}", counter.path().join("."));
            assert!(line.contains(&pair), "status lacks `{pair}`: {line}");
        }
    }

    #[test]
    fn stage_histograms_and_queue_gauges_accumulate() {
        let m = ServiceMetrics::new();
        m.record_stage(Stage::Queue, 40);
        m.record_stage(Stage::Queue, 60);
        m.record_stage(Stage::Solve, 900);
        for depth in [3, 7] {
            m.set(Counter::QueueDepth, depth);
            m.record(Histogram::QueueDepth, depth);
        }
        m.set(Counter::QueueCapacity, 256);
        let snap = m.snapshot();
        assert_eq!(snap.stage(Stage::Queue).count(), 2);
        assert_eq!(snap.stage(Stage::Queue).sum, 100);
        assert_eq!(snap.stage(Stage::Solve).count(), 1);
        assert_eq!(snap.stage(Stage::Render).count(), 0);
        assert_eq!(snap.counter(Counter::QueueDepth), 7);
        assert_eq!(snap.counter(Counter::QueueCapacity), 256);
        assert_eq!(snap.histogram(Histogram::QueueDepth).count(), 2);
        let line = snap.status_line();
        assert!(
            line.contains(" queue.depth=7 queue.capacity=256 "),
            "status: {line}"
        );
        assert!(line.contains(" stages.queue.p50="), "status: {line}");
        assert!(line.contains(" stages.flush.p99="), "status: {line}");
    }

    #[test]
    fn session_counters_and_revision_histogram_accumulate() {
        let m = ServiceMetrics::new();
        m.add(Counter::SessionsOpened, 2);
        m.add(Counter::SessionsClosed, 1);
        m.add(Counter::SessionsEvicted, 0);
        m.add(Counter::SessionsEvicted, 1);
        for (micros, warm) in [(120, true), (80, false), (200, true)] {
            m.add(Counter::Revisions, 1);
            m.add(Counter::RevisionWarmHits, u64::from(warm));
            m.record(Histogram::RevisionLatency, micros);
        }
        m.add(Counter::UnknownSession, 1);
        let snap = m.snapshot();
        assert_eq!(snap.counter(Counter::SessionsOpened), 2);
        assert_eq!(snap.counter(Counter::SessionsClosed), 1);
        assert_eq!(snap.counter(Counter::SessionsEvicted), 1);
        assert_eq!(snap.counter(Counter::Revisions), 3);
        assert_eq!(snap.counter(Counter::RevisionWarmHits), 2);
        assert_eq!(snap.counter(Counter::UnknownSession), 1);
        assert_eq!(snap.histogram(Histogram::RevisionLatency).count(), 3);
        let line = snap.status_line();
        assert!(line.contains(" sessions.revisions=3 "), "status: {line}");
        assert!(
            line.contains(" sessions.revision_latency_us.p99="),
            "status: {line}"
        );
    }

    #[test]
    fn uptime_is_monotone() {
        let m = ServiceMetrics::new();
        let first = m.uptime_micros();
        let second = m.uptime_micros();
        assert!(second >= first);
        assert!(m.snapshot().uptime_micros >= second);
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        use std::sync::Arc;
        let m = Arc::new(ServiceMetrics::new());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let m = Arc::clone(&m);
                std::thread::spawn(move || {
                    for _ in 0..100 {
                        m.record_reply(Some("s"), 8, 2, 10);
                        m.record_stage(Stage::Flush, 5);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let snap = m.snapshot();
        assert_eq!(snap.counter(Counter::Requests), 400);
        assert_eq!(snap.histogram(Histogram::Latency).count(), 400);
        assert_eq!(snap.stage(Stage::Flush).count(), 400);
        assert_eq!(snap.per_solver, vec![("s", 400)]);
    }

    #[test]
    fn tables_have_dense_indices_and_distinct_paths() {
        for (position, counter) in Counter::ALL.iter().enumerate() {
            assert_eq!(counter.index(), position);
        }
        for (position, histogram) in Histogram::ALL.iter().enumerate() {
            assert_eq!(histogram.index(), position);
        }
        let mut paths: Vec<&[&str]> = Counter::ALL.iter().map(|c| c.path()).collect();
        paths.extend(Histogram::ALL.iter().map(|h| h.path()));
        let total = paths.len();
        paths.sort_unstable();
        paths.dedup();
        assert_eq!(paths.len(), total, "two table entries share a stats path");
    }
}
