//! The client side of a run: closed loops, the open loop and adaptive
//! sessions, each split into phases (measured windows) with window-delta
//! server counters. The client never uses more than `CONNECTIONS` load
//! threads and connections; the control connection only carries `stats`
//! scrapes at window boundaries.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant};

use suu_core::SuuInstance;
use suu_service::{drive_session, scan_u64_field};

use crate::check::{check_cold_lp, check_session, check_solve, Checked};
use crate::inputs::{ClosedSource, HotInputs, SessionInputs, HOT_RATE_RPS};
use crate::server::{LineConn, Server, StatsDelta};

/// Load threads and connections of the client (the host's core count).
pub const CONNECTIONS: usize = 2;
/// Traffic before the first measured window: lets lazy set-up finish.
pub const WARMUP: Duration = Duration::from_secs(1);
/// Closed loops measure in segments of about this length and verify the
/// stored responses between segments, which bounds the client's memory.
const SEGMENT_SECS: f64 = 4.0;
/// Sub-windows hold at least this many requests: ≥ 10 beyond each p99.
const SAMPLES_PER_SUB_WINDOW: usize = 1000;
const MAX_SUB_WINDOWS: usize = 100;
/// One in this many sessions keeps its full exchange for verification.
const SESSION_SAMPLE_EVERY: usize = 8;
/// How long the open-loop reader waits for stragglers after the last send.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(30);

/// Server-side stage timings echoed on one traced response.
#[derive(Clone, Copy)]
pub struct TraceRow {
    pub k: usize,
    pub latency_us: f64,
    pub queue_us: u64,
    pub solve_us: u64,
    pub render_us: u64,
    /// The response came from a fresh solve (`trace.cache == "miss"`).
    pub miss: bool,
}

/// Everything one measured window produced.
#[derive(Default)]
pub struct Phase {
    /// Measured time of the window.
    pub window: Duration,
    /// Every attempted request: (offset into the window at which it
    /// completed; latency, `None` if it failed).
    pub events: Vec<(Duration, Option<f64>)>,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub len_sum: f64,
    pub len_n: u64,
    pub realized_sum: f64,
    pub realized_n: u64,
    pub response_bytes: u64,
    pub traces: Vec<TraceRow>,
    /// Open loop: how late each request was sent after it was due.
    pub lag_us: Vec<f64>,
    pub stats: StatsDelta,
}

impl Phase {
    fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failures.len() < 5 {
            self.failures.push(why);
        }
    }

    fn merge(&mut self, other: Phase) {
        self.events.extend(other.events);
        self.attempted += other.attempted;
        self.failed += other.failed;
        for f in other.failures {
            if self.failures.len() < 5 {
                self.failures.push(f);
            }
        }
        self.len_sum += other.len_sum;
        self.len_n += other.len_n;
        self.realized_sum += other.realized_sum;
        self.realized_n += other.realized_n;
        self.response_bytes += other.response_bytes;
        self.traces.extend(other.traces);
        self.lag_us.extend(other.lag_us);
    }

    /// Every latency sample of the window; failures are +inf.
    pub fn latencies_us(&self) -> Vec<f64> {
        self.events
            .iter()
            .map(|(_, latency)| latency.unwrap_or(f64::INFINITY))
            .collect()
    }

    /// The window cut, in completion order, into consecutive sub-windows of
    /// at least `SAMPLES_PER_SUB_WINDOW` requests each (so every sub-window
    /// has ≥ 10 samples beyond its p99): per sub-window, successes per
    /// second over the time it spans and the latencies (failures +inf).
    /// Reporting a quartile over sub-windows keeps stalled stretches on a
    /// shared host from moving the result.
    pub fn sub_windows(&self) -> Vec<(f64, Vec<f64>)> {
        let mut events = self.events.clone();
        events.sort_by_key(|e| e.0);
        let n = (events.len() / SAMPLES_PER_SUB_WINDOW).clamp(1, MAX_SUB_WINDOWS);
        let per = events.len() / n;
        let end = events.last().map_or(self.window, |e| e.0.max(self.window));
        // Sub-window i holds events [index(i), index(i + 1)) and spans
        // [time(i), time(i + 1)): from its first completion to the next's.
        let index = |i: usize| if i == n { events.len() } else { i * per };
        let time = |i: usize| match i {
            0 => Duration::ZERO,
            i if i == n => end,
            i => events[i * per].0,
        };
        (0..n)
            .map(|i| {
                let chunk = &events[index(i)..index(i + 1)];
                let ok = chunk.iter().filter(|e| e.1.is_some()).count();
                let secs = (time(i + 1) - time(i)).as_secs_f64().max(1e-6);
                let latencies = chunk.iter().map(|e| e.1.unwrap_or(f64::INFINITY)).collect();
                (ok as f64 / secs, latencies)
            })
            .collect()
    }

    fn record_checked(&mut self, checked: &Checked, weight: u64) {
        self.len_sum += checked.schedule_len as f64 * weight as f64;
        self.len_n += weight;
        self.realized_sum += checked.realized as f64 * weight as f64;
        self.realized_n += weight;
    }
}

fn phases_vec(n: usize) -> Vec<Phase> {
    (0..n).map(|_| Phase::default()).collect()
}

/// Phase index of an offset from the start of traffic, `None` in warm-up
/// or after the last window.
fn phase_of(offset: Duration, window: Duration, phases: usize) -> Option<usize> {
    let into = offset.checked_sub(WARMUP)?;
    let p = (into.as_secs_f64() / window.as_secs_f64()) as usize;
    (p < phases).then_some(p)
}

/// Scrapes `stats` at each window boundary (traffic keeps flowing) and
/// records the window deltas.
fn scrape_windows(
    server: &mut Server,
    t0: Instant,
    window: Duration,
    phases: &mut [Phase],
) -> Result<(), String> {
    sleep_until(t0 + WARMUP);
    let mut before = server.scrape()?;
    for (p, phase) in phases.iter_mut().enumerate() {
        sleep_until(t0 + WARMUP + window * (p as u32 + 1));
        let after = server.scrape()?;
        phase.stats.add(&before, &after);
        phase.window = window;
        before = after;
    }
    Ok(())
}

fn sleep_until(at: Instant) {
    let now = Instant::now();
    if at > now {
        std::thread::sleep(at - now);
    }
}

/// A response stored during a segment for verification after it.
struct Stored {
    k: usize,
    instance: SuuInstance,
    /// Completion offset into the window (segments laid end to end).
    offset: Duration,
    latency_us: f64,
    line: String,
}

/// Closed loop over `source`: `CONNECTIONS` connections with one request
/// in flight each; warm-up, then `phases` windows of `window` each (the
/// second one traced). Every response of a window is verified between
/// segments, outside the timed part.
pub fn closed_loop<S: ClosedSource>(
    server: &mut Server,
    source: &S,
    seed: u64,
    window: Duration,
    phases: usize,
) -> Result<Vec<Phase>, String> {
    let segments = (window.as_secs_f64() / SEGMENT_SECS).ceil().max(1.0) as u32;
    let mut plan: Vec<(Duration, Option<usize>)> = vec![(WARMUP, None)];
    for p in 0..phases {
        plan.extend((0..segments).map(|_| (window / segments, Some(p))));
    }
    let barrier = Barrier::new(CONNECTIONS + 1);
    let segment_end = Mutex::new(Instant::now());
    let abort = AtomicBool::new(false);
    let addr = server.addr.clone();

    let mut out = phases_vec(phases);
    let mut main_error = None;
    let conn_results = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|c| {
                let (plan, barrier, segment_end, abort, addr) =
                    (&plan, &barrier, &segment_end, &abort, &addr);
                scope.spawn(move || {
                    closed_connection(
                        c,
                        addr,
                        source,
                        seed,
                        plan,
                        phases,
                        barrier,
                        segment_end,
                        abort,
                    )
                })
            })
            .collect();
        for &(duration, phase) in &plan {
            let before = match (phase, &main_error) {
                (Some(_), None) => server.scrape().map_err(|e| main_error = Some(e)).ok(),
                _ => None,
            };
            // Ready (requests prepared) → clock starts → go → drained.
            barrier.wait();
            *segment_end.lock().expect("segment clock poisoned") = Instant::now() + duration;
            barrier.wait();
            barrier.wait();
            if let (Some(p), Some(before)) = (phase, before) {
                match server.scrape() {
                    Ok(after) => {
                        out[p].stats.add(&before, &after);
                        out[p].window += duration;
                    }
                    Err(e) => main_error = Some(e),
                }
            }
            if main_error.is_some() {
                abort.store(true, Ordering::SeqCst);
            }
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .collect::<Vec<_>>()
    });
    if let Some(e) = main_error {
        return Err(e);
    }
    for result in conn_results {
        for (p, phase) in result?.into_iter().enumerate() {
            out[p].merge(phase);
        }
    }
    Ok(out)
}

#[allow(clippy::too_many_arguments)]
fn closed_connection<S: ClosedSource>(
    c: usize,
    addr: &str,
    source: &S,
    seed: u64,
    plan: &[(Duration, Option<usize>)],
    phases: usize,
    barrier: &Barrier,
    segment_end: &Mutex<Instant>,
    abort: &AtomicBool,
) -> Result<Vec<Phase>, String> {
    let mut out = phases_vec(phases);
    let mut error = None;
    let mut conn = LineConn::connect(addr).map_err(|e| error = Some(e)).ok();
    let mut next = c;
    let mut rate: Option<f64> = None;
    let mut measured = vec![Duration::ZERO; phases];
    for &(duration, phase) in plan {
        let trace = phase == Some(1);
        // Build the segment's requests before it starts (a margin over the
        // previous segment's rate); any shortfall is built inline.
        let mut prepared = Vec::new();
        if let Some(rate) = rate {
            let want = (rate * duration.as_secs_f64() * 1.3) as usize + 8;
            for _ in 0..want {
                let (line, instance) = source.request(next, trace);
                prepared.push((next, line, instance));
                next += CONNECTIONS;
            }
        }
        barrier.wait();
        barrier.wait();
        let end = *segment_end.lock().expect("segment clock poisoned");
        let started = Instant::now();
        let mut stored = Vec::new();
        let mut count = 0usize;
        let mut prepared = prepared.into_iter();
        while let (Some(conn), false) = (conn.as_mut(), abort.load(Ordering::SeqCst)) {
            if Instant::now() >= end {
                break;
            }
            let (k, line, instance) = prepared.next().unwrap_or_else(|| {
                let (line, instance) = source.request(next, trace);
                next += CONNECTIONS;
                (next - CONNECTIONS, line, instance)
            });
            let sent = Instant::now();
            match conn.round_trip(&line) {
                Ok(reply) => {
                    count += 1;
                    if phase.is_some() {
                        let done = Instant::now();
                        stored.push(Stored {
                            k,
                            instance,
                            offset: measured[phase.unwrap_or(0)] + done.duration_since(started),
                            latency_us: done.duration_since(sent).as_secs_f64() * 1e6,
                            line: reply,
                        });
                    }
                }
                Err(e) => {
                    error = Some(e);
                    abort.store(true, Ordering::SeqCst);
                }
            }
        }
        rate = Some(count as f64 / started.elapsed().as_secs_f64());
        barrier.wait();
        if let Some(p) = phase {
            measured[p] += duration;
            for s in stored {
                verify_closed(source, seed, s, &mut out[p]);
            }
        }
    }
    match error {
        Some(e) => Err(e),
        None => Ok(out),
    }
}

fn verify_closed<S: ClosedSource>(source: &S, seed: u64, s: Stored, phase: &mut Phase) {
    phase.attempted += 1;
    phase.response_bytes += s.line.len() as u64;
    let checked = check_solve(&s.instance, &s.line, seed ^ s.k as u64).and_then(|checked| {
        if source.lp_sample(s.k) {
            check_cold_lp(&s.instance, checked.lp_value)?;
        }
        Ok(checked)
    });
    match checked {
        Ok(checked) => {
            phase.events.push((s.offset, Some(s.latency_us)));
            phase.record_checked(&checked, 1);
            if let Some(t) = &checked.trace {
                phase.traces.push(TraceRow {
                    k: s.k,
                    latency_us: s.latency_us,
                    queue_us: t.queue_us,
                    solve_us: t.solve_us,
                    render_us: t.render_us,
                    miss: t.cache == "miss",
                });
            }
        }
        Err(why) => {
            phase.events.push((s.offset, None));
            phase.fail(format!("request {}: {why}", s.k));
        }
    }
}

/// `"id":N,"ok":true` prefix scan: the request index and success flag.
fn scan_head(line: &str) -> Option<(usize, bool)> {
    let rest = line.strip_prefix("{\"id\":")?;
    let digits = rest.bytes().take_while(u8::is_ascii_digit).count();
    let id: usize = rest[..digits].parse().ok()?;
    Some((
        id.checked_sub(1)?,
        rest[digits..].starts_with(",\"ok\":true"),
    ))
}

/// The solve-dependent body of a spliced response (solver through
/// `lp_micros`), identical across every response served from one solve.
fn body(line: &str) -> Option<&str> {
    let start = line.find("\"error_kind\":null,")? + "\"error_kind\":null,".len();
    let end = line.rfind(",\"cache_hit\":")?;
    line.get(start..end)
}

fn scan_trace(line: &str, k: usize, latency_us: f64) -> Option<TraceRow> {
    let at = line.rfind("\"trace\":{")?;
    let obj = &line[at..];
    Some(TraceRow {
        k,
        latency_us,
        queue_us: scan_u64_field(obj, "\"queue_us\":")?,
        solve_us: scan_u64_field(obj, "\"solve_us\":")?,
        render_us: scan_u64_field(obj, "\"render_us\":")?,
        miss: obj.contains("\"cache\":\"miss\""),
    })
}

/// Open loop at `HOT_RATE_RPS`: one writer thread sends request `k` when it
/// is due (`k / rate` after the start), one reader thread matches replies by
/// id. Latency runs from the due time, so generator stalls count against
/// it. The first reply per tenant is verified in full after the run; every
/// later reply must carry byte-identical solve output.
pub fn open_loop(
    server: &mut Server,
    inputs: &HotInputs,
    seed: u64,
    window: Duration,
    phases: usize,
) -> Result<Vec<Phase>, String> {
    let total = ((WARMUP + window * phases as u32).as_secs_f64() * HOT_RATE_RPS) as usize;
    if total > inputs.stream.len() {
        return Err("hot_pipelined stream shorter than the run".to_string());
    }
    let stream = TcpStream::connect(&server.addr).map_err(|e| format!("connect: {e}"))?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    let read_half = stream.try_clone().map_err(|e| e.to_string())?;
    read_half
        .set_read_timeout(Some(Duration::from_millis(100)))
        .map_err(|e| e.to_string())?;
    let sent = AtomicUsize::new(0);
    let writer_done = AtomicBool::new(false);
    let t0 = Instant::now() + Duration::from_millis(20);
    let due = HotInputs::due;

    let mut out = phases_vec(phases);
    let (write_result, read_result, scrape_result) = std::thread::scope(|scope| {
        let writer = scope.spawn(|| -> Result<Vec<Vec<f64>>, String> {
            let mut lags = vec![Vec::new(); phases];
            let mut w = BufWriter::with_capacity(1 << 16, stream);
            let result = (|| {
                for k in 0..total {
                    let at = t0 + due(k);
                    let now = Instant::now();
                    if at > now {
                        w.flush().map_err(|e| format!("write: {e}"))?;
                        std::thread::sleep(at - now);
                    }
                    let phase = phase_of(due(k), window, phases);
                    if let Some(p) = phase {
                        lags[p].push(Instant::now().duration_since(at).as_secs_f64() * 1e6);
                    }
                    w.write_all(inputs.line(k, phase == Some(1)).as_bytes())
                        .and_then(|()| w.write_all(b"\n"))
                        .map_err(|e| format!("write: {e}"))?;
                    sent.store(k + 1, Ordering::SeqCst);
                }
                w.flush().map_err(|e| format!("write: {e}"))
            })();
            writer_done.store(true, Ordering::SeqCst);
            result.map(|()| lags)
        });
        let reader =
            scope.spawn(|| open_reader(read_half, inputs, t0, window, phases, &sent, &writer_done));
        let scraped = scrape_windows(server, t0, window, &mut out);
        (
            writer.join().expect("writer panicked"),
            reader.join().expect("reader panicked"),
            scraped,
        )
    });
    scrape_result?;
    let lags = write_result?;
    let (mut read_phases, references, odd) = read_result?;

    // Full verification of each tenant's reference reply, and of any reply
    // whose solve output differed from its tenant's reference.
    let mut verdicts: HashMap<u32, Result<Checked, String>> = HashMap::new();
    for (&tenant, line) in &references {
        let instance = &inputs.tenants[tenant as usize];
        verdicts.insert(
            tenant,
            check_solve(instance, line, seed ^ u64::from(tenant)),
        );
    }
    for (p, phase) in read_phases.iter_mut().enumerate() {
        let counts = std::mem::take(&mut phase.tenant_counts);
        for (tenant, count) in counts {
            match verdicts.get(&tenant) {
                // Quality counts each distinct schedule once: request
                // weights would hinge on a few popular tenants.
                Some(Ok(checked)) => out[p].record_checked(checked, 1),
                Some(Err(why)) => {
                    for _ in 0..count {
                        out[p].fail(format!("tenant {tenant}: {why}"));
                    }
                }
                None => out[p].fail(format!("tenant {tenant}: no reference reply")),
            }
        }
    }
    for (p, k, line) in odd {
        let tenant = inputs.stream[k];
        if let Err(why) = check_solve(&inputs.tenants[tenant as usize], &line, seed ^ k as u64) {
            out[p].fail(format!("request {k}: {why}"));
        }
    }
    for (p, (phase, lag)) in read_phases.into_iter().zip(lags).enumerate() {
        out[p].merge(phase.phase);
        out[p].lag_us.extend(lag);
    }
    Ok(out)
}

/// Reader-side tallies of one open-loop phase.
#[derive(Default)]
struct OpenPhase {
    phase: Phase,
    /// Replies per tenant (tenants with a failed reference fail them all).
    tenant_counts: HashMap<u32, u64>,
}

type ReaderResult = (
    Vec<OpenPhase>,
    HashMap<u32, String>,
    Vec<(usize, usize, String)>,
);

fn open_reader(
    read_half: TcpStream,
    inputs: &HotInputs,
    t0: Instant,
    window: Duration,
    phases: usize,
    sent: &AtomicUsize,
    writer_done: &AtomicBool,
) -> Result<ReaderResult, String> {
    let mut reader = BufReader::with_capacity(1 << 16, read_half);
    let mut out: Vec<OpenPhase> = (0..phases).map(|_| OpenPhase::default()).collect();
    let mut references: HashMap<u32, String> = HashMap::new();
    let mut odd = Vec::new();
    let mut received = 0usize;
    let mut buf = Vec::with_capacity(1 << 16);
    let mut drained_since: Option<Instant> = None;
    loop {
        if writer_done.load(Ordering::SeqCst) {
            if received >= sent.load(Ordering::SeqCst) {
                break;
            }
            let since = *drained_since.get_or_insert_with(Instant::now);
            if since.elapsed() > DRAIN_TIMEOUT {
                return Err(format!(
                    "{} replies missing after the last send",
                    sent.load(Ordering::SeqCst) - received
                ));
            }
        }
        match reader.read_until(b'\n', &mut buf) {
            Ok(0) => return Err("server closed the connection".to_string()),
            Ok(_) if buf.last() == Some(&b'\n') => {}
            Ok(_) => continue,
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                continue
            }
            Err(e) => return Err(format!("read: {e}")),
        }
        let arrived = Instant::now();
        buf.pop();
        let line = String::from_utf8(std::mem::take(&mut buf)).map_err(|e| e.to_string())?;
        received += 1;
        let Some((k, ok)) = scan_head(&line) else {
            return Err(format!("unparseable reply: {:.120}", line));
        };
        let due = HotInputs::due(k);
        let Some(p) = phase_of(due, window, phases) else {
            continue;
        };
        let latency_us = arrived.duration_since(t0 + due).as_secs_f64() * 1e6;
        let o = &mut out[p];
        o.phase.attempted += 1;
        o.phase.response_bytes += line.len() as u64;
        let offset = arrived.saturating_duration_since(t0 + WARMUP + window * p as u32);
        if !ok {
            o.phase.events.push((offset, None));
            o.phase.fail(format!("request {k}: {:.160}", line));
            continue;
        }
        o.phase.events.push((offset, Some(latency_us)));
        if p == 1 {
            if let Some(row) = scan_trace(&line, k, latency_us) {
                o.phase.traces.push(row);
            }
        }
        let tenant = inputs.stream[k];
        *o.tenant_counts.entry(tenant).or_default() += 1;
        match references.get(&tenant) {
            Some(reference) if body(reference) == body(&line) && body(&line).is_some() => {}
            Some(_) => odd.push((p, k, line)),
            None => {
                references.insert(tenant, line);
            }
        }
    }
    Ok((out, references, odd))
}

/// Closed loop over adaptive sessions: each connection opens a session,
/// drives it to completion (reporting completions and the scripted machine
/// failure), closes it and opens the next. Every session-verb round trip is
/// timed; sessions are attributed to the window they were opened in.
pub fn sessions(
    server: &mut Server,
    inputs: &SessionInputs,
    window: Duration,
    phases: usize,
) -> Result<Vec<Phase>, String> {
    let t0 = Instant::now();
    let end = t0 + WARMUP + window * phases as u32;
    let addr = server.addr.clone();
    let mut out = phases_vec(phases);
    let (results, scraped) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|c| {
                let addr = &addr;
                scope.spawn(move || session_connection(c, addr, inputs, t0, end, window, phases))
            })
            .collect();
        let scraped = scrape_windows(server, t0, window, &mut out);
        let results: Vec<_> = handles
            .into_iter()
            .map(|h| h.join().expect("session thread panicked"))
            .collect();
        (results, scraped)
    });
    scraped?;
    for result in results {
        let (phases_out, captured) = result?;
        for (p, phase) in phases_out.into_iter().enumerate() {
            out[p].merge(phase);
        }
        for (p, k, exchanges) in captured {
            match check_session(&inputs.scenarios[k], &exchanges) {
                Ok(lengths) => {
                    out[p].len_sum += lengths.iter().sum::<usize>() as f64;
                    out[p].len_n += lengths.len() as u64;
                }
                Err(why) => out[p].fail(format!("session {k}: {why}")),
            }
        }
    }
    Ok(out)
}

type Captured = Vec<(usize, usize, Vec<(String, String)>)>;

fn session_connection(
    c: usize,
    addr: &str,
    inputs: &SessionInputs,
    t0: Instant,
    end: Instant,
    window: Duration,
    phases: usize,
) -> Result<(Vec<Phase>, Captured), String> {
    let mut conn = LineConn::connect(addr)?;
    let mut out = phases_vec(phases);
    let mut captured = Vec::new();
    let mut k = c;
    while Instant::now() < end {
        let scenario = inputs
            .scenarios
            .get(k)
            .ok_or("sessions input exhausted before the window closed")?;
        let opened = phase_of(t0.elapsed(), window, phases);
        let keep = opened.is_some() && k.is_multiple_of(SESSION_SAMPLE_EVERY);
        let mut exchanges = Vec::new();
        let mut io_error = None;
        let mut round_trips: Vec<(Instant, f64, bool)> = Vec::new();
        let report = drive_session(&scenario.instance, &inputs.drive_config(k), |line| {
            let sent = Instant::now();
            match conn.round_trip(line) {
                Ok(reply) => {
                    let ok = reply.contains("\"ok\":true");
                    round_trips.push((Instant::now(), sent.elapsed().as_secs_f64() * 1e6, ok));
                    if keep {
                        exchanges.push((line.to_string(), reply.clone()));
                    }
                    Some(reply)
                }
                Err(e) => {
                    io_error = Some(e);
                    None
                }
            }
        });
        if let Some(e) = io_error {
            return Err(e);
        }
        for (done, latency_us, ok) in round_trips {
            if let Some(p) = phase_of(done.duration_since(t0), window, phases) {
                out[p].attempted += 1;
                let offset = done.duration_since(t0) - WARMUP - window * p as u32;
                out[p].events.push((offset, ok.then_some(latency_us)));
                if !ok {
                    out[p].fail(format!("session {k}: a verb was answered with an error"));
                }
            }
        }
        if let Some(p) = opened {
            match report {
                Ok(r) if r.unknown_session_errors == 0 && r.steps.is_some() => {
                    out[p].realized_sum += r.steps.unwrap_or(0) as f64;
                    out[p].realized_n += 1;
                }
                Ok(r) => out[p].fail(format!(
                    "session {k}: unfinished or lost ({} unknown_session)",
                    r.unknown_session_errors
                )),
                Err(e) => out[p].fail(format!("session {k}: {e}")),
            }
            if keep {
                captured.push((p, k, exchanges));
            }
        }
        k += CONNECTIONS;
    }
    Ok((out, captured))
}

/// Submits the priming `lines` one by one on the control connection and
/// requires every reply to succeed.
pub fn prime(server: &mut Server, lines: &[String]) -> Result<(), String> {
    for line in lines {
        let reply = server.control.round_trip(line)?;
        if !reply.contains("\"ok\":true") {
            return Err(format!("priming request failed: {:.200}", reply));
        }
    }
    Ok(())
}
