//! Integration gate for the observability surface: the `stats` verb and the
//! opt-in per-response `trace` object, over both transports (stdin and TCP).
//!
//! The contract under test:
//!
//! * requests sent with `options: {trace: true}` echo a `trace` object with
//!   the queue/solve/render latencies, a cache verdict and the LP pivot
//!   count; untraced requests omit the key entirely (v1 byte-compat);
//! * a `{"id": N, "verb": "stats"}` line answers with the full metrics
//!   snapshot on every transport, and neither it nor protocol noise counts
//!   towards the `requests` counter;
//! * the per-stage histogram counts are *exact*: every handled request
//!   records the parse, solve and render stages exactly once, so their
//!   counts equal `requests`, and the queue and flush stages both count
//!   exactly the lines answered before the scrape — requests, verbs and
//!   garbage alike;
//! * unknown verbs get a structured `bad_request`, not a hung connection;
//! * the same accounting holds under load: a traced, pipelined run on the
//!   default solver pool traces every response, and its parse, solve and
//!   render counts equal the requests sent.

use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::sync::Arc;

use serde::Value;
use suu_service::{
    spawn_tcp, PipelineConfig, SchedulerService, ServiceConfig, SolveOptions, SolverPool,
    TcpServerConfig,
};

mod common;
use common::{replay, request_pool};

/// Scheduling requests per run; the first [`TRACED`] opt into tracing.
const SOLVES: usize = 6;
const TRACED: usize = 3;
const STATS_ID: u64 = 99;
/// Lines answered ahead of the `stats` line: the solves, an unknown verb
/// and a garbage line.
const BEFORE_STATS: usize = SOLVES + 2;

/// The request corpus: `SOLVES` mixed-scenario solves (ids 1..=SOLVES, the
/// first `TRACED` with `options.trace`), an unknown verb, a garbage line,
/// then the `stats` verb.
fn corpus() -> Vec<String> {
    let mut pool = request_pool("mixed", SOLVES, 7);
    for request in pool.iter_mut().take(TRACED) {
        request.options = Some(traced());
    }
    let mut lines: Vec<String> = pool
        .iter()
        .map(|r| serde_json::to_string(r).expect("requests serialise"))
        .collect();
    lines.push(format!("{{\"id\":{},\"verb\":\"flurb\"}}", STATS_ID + 1));
    lines.push("not json at all".to_string());
    lines.push(format!("{{\"id\":{STATS_ID},\"verb\":\"stats\"}}"));
    lines
}

fn traced() -> SolveOptions {
    SolveOptions {
        trace: true,
        ..SolveOptions::default()
    }
}

/// A single solver thread drains the queue in FIFO order, so the `stats`
/// line (submitted last) observes every earlier line's counters settled.
fn deterministic_pipeline() -> PipelineConfig {
    PipelineConfig {
        solver_threads: 1,
        queue_capacity: 1024,
    }
}

/// A `Write` into a shared buffer (the transport takes ownership of its
/// writer).
#[derive(Clone, Default)]
struct SharedBuf(Arc<std::sync::Mutex<Vec<u8>>>);

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

fn run_stdin() -> Vec<String> {
    let service = Arc::new(SchedulerService::new(ServiceConfig::default()));
    let input = corpus().join("\n") + "\n";
    let output = SharedBuf::default();
    let pool = SolverPool::spawn(Arc::clone(&service), &deterministic_pipeline());
    service
        .serve_lines(input.as_bytes(), output.clone(), &pool.handle())
        .unwrap();
    pool.shutdown();
    let bytes = output.0.lock().unwrap().clone();
    String::from_utf8(bytes)
        .unwrap()
        .lines()
        .map(str::to_string)
        .collect()
}

fn run_tcp() -> Vec<String> {
    let service = Arc::new(SchedulerService::new(ServiceConfig::default()));
    let handle = spawn_tcp(
        service,
        &TcpServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 1,
            pipeline: deterministic_pipeline(),
        },
    )
    .unwrap();
    let lines = corpus();
    let stream = TcpStream::connect(handle.addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = BufWriter::new(stream);
    for line in &lines {
        writeln!(writer, "{line}").unwrap();
    }
    writer.flush().unwrap();
    let mut responses = Vec::new();
    for _ in 0..lines.len() {
        let mut line = String::new();
        assert!(
            reader.read_line(&mut line).unwrap() > 0,
            "connection closed"
        );
        responses.push(line.trim_end().to_string());
    }
    drop(writer);
    drop(reader);
    handle.shutdown();
    responses
}

/// Walks `path` into `value` and returns the number found there.
fn number(value: &Value, path: &[&str]) -> f64 {
    let mut cursor = value;
    for key in path {
        cursor = cursor
            .get(key)
            .unwrap_or_else(|| panic!("missing key `{key}` on path {path:?}"));
    }
    match cursor {
        Value::Number(n) => *n,
        other => panic!("{path:?} is not a number: {other:?}"),
    }
}

fn response_by_id(lines: &[String]) -> std::collections::HashMap<u64, Value> {
    lines
        .iter()
        .map(|line| {
            let value = serde_json::parse(line).expect("responses parse as JSON");
            let id = number(&value, &["id"]) as u64;
            (id, value)
        })
        .collect()
}

#[allow(clippy::cast_precision_loss)]
fn check(lines: &[String], transport: &str) {
    assert_eq!(lines.len(), BEFORE_STATS + 1, "{transport}: response count");
    let by_id = response_by_id(lines);

    // Traced requests echo the trace object; untraced requests omit the key.
    for id in 1..=SOLVES as u64 {
        let resp = &by_id[&id];
        assert_eq!(
            resp.get("ok"),
            Some(&Value::Bool(true)),
            "{transport}: response {id} failed"
        );
        if id <= TRACED as u64 {
            let trace = resp
                .get("trace")
                .unwrap_or_else(|| panic!("{transport}: response {id} missing trace"));
            for field in ["queue_us", "solve_us", "render_us", "lp_pivots"] {
                number(trace, &[field]);
            }
            assert!(
                trace.get("flush_us").is_none(),
                "{transport}: a trace is rendered before its own flush"
            );
            match trace.get("cache") {
                Some(Value::String(verdict)) => assert!(
                    ["hit", "miss", "coalesced"].contains(&verdict.as_str()),
                    "{transport}: bad cache verdict `{verdict}`"
                ),
                other => panic!("{transport}: trace.cache not a string: {other:?}"),
            }
        } else {
            assert!(
                resp.get("trace").is_none(),
                "{transport}: response {id} must omit trace"
            );
        }
    }

    // Unknown verbs answer with a structured bad request, and so does the
    // garbage line (no scannable id: 0).
    let unknown = &by_id[&(STATS_ID + 1)];
    assert_eq!(unknown.get("ok"), Some(&Value::Bool(false)), "{transport}");
    match unknown.get("error") {
        Some(Value::String(msg)) => assert!(msg.contains("flurb"), "{transport}: {msg}"),
        other => panic!("{transport}: unknown-verb error not a string: {other:?}"),
    }
    assert_eq!(
        by_id[&0].get("ok"),
        Some(&Value::Bool(false)),
        "{transport}"
    );

    // The stats snapshot: counted requests exclude the verbs and the
    // garbage, and the per-stage counts are exact.
    let stats_resp = &by_id[&STATS_ID];
    assert_eq!(
        stats_resp.get("ok"),
        Some(&Value::Bool(true)),
        "{transport}: stats verb failed"
    );
    let stats = stats_resp
        .get("stats")
        .unwrap_or_else(|| panic!("{transport}: stats object missing"));
    let requests = number(stats, &["requests"]) as u64;
    assert_eq!(
        requests, SOLVES as u64,
        "{transport}: verbs and garbage must not count as requests"
    );
    assert_eq!(number(stats, &["errors"]) as u64, 0, "{transport}");
    assert_eq!(number(stats, &["solver_panics"]) as u64, 0, "{transport}");
    assert_eq!(
        number(stats, &["latency_us", "count"]) as u64,
        requests,
        "{transport}"
    );
    for stage in ["parse", "solve", "render"] {
        assert_eq!(
            number(stats, &["stages", stage, "count"]) as u64,
            requests,
            "{transport}: stage `{stage}` count must equal handled requests"
        );
    }
    // Queue and flush are both recorded once a line's response is written:
    // every line answered before the scrape, and not the scrape itself.
    for stage in ["queue", "flush"] {
        assert_eq!(
            number(stats, &["stages", stage, "count"]) as u64,
            BEFORE_STATS as u64,
            "{transport}: stage `{stage}` must count the lines answered before the scrape"
        );
    }
    assert!(
        number(stats, &["queue", "capacity"]) as u64 > 0,
        "{transport}: the transport advertises its queue capacity"
    );

    // LP effort flowed through: mixed traffic always has LP-backed solves.
    assert!(number(stats, &["lp", "pivots"]) > 0.0, "{transport}");
    assert!(number(stats, &["lp", "solves"]) > 0.0, "{transport}");

    // Per-solver counts sum to the request count.
    match stats.get("per_solver") {
        Some(Value::Object(per_solver)) => {
            let total: f64 = per_solver
                .iter()
                .map(|(_, count)| match count {
                    Value::Number(n) => *n,
                    other => panic!("{transport}: solver count not a number: {other:?}"),
                })
                .sum();
            assert_eq!(total as u64, SOLVES as u64, "{transport}");
        }
        other => panic!("{transport}: per_solver not an object: {other:?}"),
    }

    // Cache counters: every solve consulted the cache, and the snapshot
    // carries the per-shard breakdown.
    let hits = number(stats, &["cache", "hits"]) as u64;
    let misses = number(stats, &["cache", "misses"]) as u64;
    assert!(hits + misses >= SOLVES as u64, "{transport}");
    match stats.get("cache").and_then(|c| c.get("shards")) {
        Some(Value::Array(shards)) => assert!(!shards.is_empty(), "{transport}"),
        other => panic!("{transport}: cache.shards not an array: {other:?}"),
    }

    assert_eq!(
        number(stats, &["flight_in_flight"]) as u64,
        0,
        "{transport}: no solve can be in flight after the run"
    );
    assert!(number(stats, &["uptime_us"]) > 0.0, "{transport}");
}

#[test]
fn stats_and_trace_over_stdin_pipelined() {
    check(&run_stdin(), "stdin");
}

#[test]
fn stats_and_trace_over_tcp_pipelined() {
    check(&run_tcp(), "tcp");
}

/// 200 traced `mixed` requests from 2 connections with 32 in flight each, on
/// the default solver pool, then a `stats` scrape on a fresh connection.
#[test]
fn traced_pipelined_run_attributes_every_request() {
    const REQUESTS: usize = 200;
    let service = Arc::new(SchedulerService::new(ServiceConfig::default()));
    let handle = spawn_tcp(service, &TcpServerConfig::default()).unwrap();
    let lines: Vec<String> = request_pool("mixed", REQUESTS, 0x10AD)
        .into_iter()
        .map(|mut request| {
            request.options = Some(traced());
            serde_json::to_string(&request).expect("requests serialise")
        })
        .collect();
    let (responses, _) = replay(handle.addr(), &lines, 2, 32);
    assert_eq!(responses.len(), REQUESTS);
    for (id, resp) in response_by_id(&responses) {
        assert_eq!(resp.get("ok"), Some(&Value::Bool(true)), "response {id}");
        assert!(resp.get("trace").is_some(), "response {id} missing trace");
    }

    let stats_line = format!("{{\"id\":{STATS_ID},\"verb\":\"stats\"}}");
    let (scrape, _) = replay(handle.addr(), &[stats_line], 1, 1);
    handle.shutdown();
    let stats = response_by_id(&scrape)[&STATS_ID]
        .get("stats")
        .cloned()
        .expect("stats object");
    assert_eq!(number(&stats, &["requests"]) as usize, REQUESTS);
    for stage in ["parse", "solve", "render"] {
        assert_eq!(
            number(&stats, &["stages", stage, "count"]) as usize,
            REQUESTS,
            "stage `{stage}` count must equal the requests sent"
        );
    }
    // Queue and flush are recorded after a response is written, so the
    // scrape may race the last few; it cannot miss them all.
    for stage in ["queue", "flush"] {
        assert!(
            number(&stats, &["stages", stage, "count"]) > 0.0,
            "stage `{stage}` recorded no samples"
        );
    }
}
