//! Integration gate for the adaptive-session subsystem: the `open_session` /
//! `session_event` / `close_session` verbs over both transports (stdin and
//! TCP).
//!
//! The contract under test:
//!
//! * `open_session` answers with a session id, revision 0 and the full
//!   schedule; every `session_event` that edits the suffix answers with a
//!   strictly incremented revision whose schedule is widened back to the
//!   client's original coordinate space (drained machines stay as idle
//!   rows);
//! * events for unknown sessions — never opened, already closed, or evicted
//!   — answer `ok:false` with `error_kind:"unknown_session"` and leave no
//!   state behind;
//! * `close_session` returns the final summary (revisions, warm hits,
//!   events, realized steps, completed/unfinished split) and frees the id;
//! * two sessions on distinct connections make progress concurrently
//!   (pipelined fan-out) while each session's own revisions stay ordered;
//! * lifecycle hygiene: ending a connection (stdin EOF or a dropped TCP
//!   connection) evicts its sessions, an expired idle TTL evicts on the next
//!   session verb, and a full table answers `busy` instead of evicting
//!   someone else;
//! * the `stats` verb reports the session counters and the revision-latency
//!   histogram that perfbench's `sessions` workload reads.

use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use serde::Value;
use suu_service::{
    drive_session, open_session_line, spawn_tcp, DriveConfig, PipelineConfig, SchedulerService,
    ServiceConfig, SolverPool, TcpServerConfig,
};
use suu_workloads::machine_failure_scenario;

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

/// Walks `path` into `value` and returns the number found there.
fn number(value: &Value, path: &[&str]) -> f64 {
    let mut cursor = value;
    for key in path {
        cursor = cursor
            .get(key)
            .unwrap_or_else(|| panic!("missing key `{key}` on path {path:?} in {value:?}"));
    }
    match cursor {
        Value::Number(n) => *n,
        other => panic!("{path:?} is not a number: {other:?}"),
    }
}

fn parse_lines(raw: &str) -> Vec<Value> {
    raw.lines()
        .map(|line| serde_json::parse(line).expect("responses parse as JSON"))
        .collect()
}

fn by_id(responses: &[Value]) -> std::collections::HashMap<u64, &Value> {
    responses
        .iter()
        .map(|v| (number(v, &["id"]) as u64, v))
        .collect()
}

fn assert_unknown_session(resp: &Value, context: &str) {
    assert_eq!(
        resp.get("ok"),
        Some(&Value::Bool(false)),
        "{context}: expected failure: {resp:?}"
    );
    assert_eq!(
        resp.get("error_kind"),
        Some(&Value::String("unknown_session".to_string())),
        "{context}: expected unknown_session: {resp:?}"
    );
}

/// The single-connection lifecycle corpus: open (16 jobs × 4 machines),
/// three suffix-editing events, one event for a bogus session, a stats
/// scrape, close, and one event after close. Session ids are deterministic
/// per service (the first open gets id 1), so the corpus is a fixed batch.
fn lifecycle_corpus() -> Vec<String> {
    let scenario = machine_failure_scenario(7);
    vec![
        open_session_line(1, &scenario.instance),
        r#"{"id":2,"verb":"session_event","session":1,"step":3,"completed":[0,1]}"#.to_string(),
        r#"{"id":3,"verb":"session_event","session":1,"step":5,"completed":[2],"failed_machine":0}"#
            .to_string(),
        r#"{"id":4,"verb":"session_event","session":1,"step":6,"drift":{"machine":1,"job":5,"p":0.9}}"#
            .to_string(),
        r#"{"id":5,"verb":"session_event","session":77,"step":1}"#.to_string(),
        r#"{"id":6,"verb":"stats"}"#.to_string(),
        r#"{"id":7,"verb":"close_session","session":1}"#.to_string(),
        r#"{"id":8,"verb":"session_event","session":1,"step":9}"#.to_string(),
    ]
}

#[allow(clippy::float_cmp)] // counters are exact small integers
fn check_lifecycle(responses: &[Value], transport: &str) {
    assert_eq!(responses.len(), 8, "{transport}: response count");
    let by_id = by_id(responses);

    // Revision 0: full schedule, everything unfinished.
    let open = by_id[&1];
    assert_eq!(open.get("ok"), Some(&Value::Bool(true)), "{transport}");
    assert_eq!(number(open, &["session"]), 1.0, "{transport}");
    assert_eq!(number(open, &["revision"]), 0.0, "{transport}");
    assert_eq!(number(open, &["unfinished"]), 16.0, "{transport}");
    assert_eq!(
        open.get("solver"),
        Some(&Value::String("suu-c".to_string())),
        "{transport}"
    );
    assert_eq!(number(open, &["schedule", "num_machines"]), 4.0);

    // Each event bumps the revision exactly once and shrinks the suffix.
    for (id, revision, unfinished, completed) in [
        (2u64, 1.0, 14.0, 2.0),
        (3, 2.0, 13.0, 3.0),
        (4, 3.0, 13.0, 3.0),
    ] {
        let resp = by_id[&id];
        assert_eq!(
            resp.get("ok"),
            Some(&Value::Bool(true)),
            "{transport}: event {id} failed: {resp:?}"
        );
        assert_eq!(number(resp, &["revision"]), revision, "{transport}: {id}");
        assert_eq!(
            number(resp, &["unfinished"]),
            unfinished,
            "{transport}: {id}"
        );
        assert_eq!(number(resp, &["completed"]), completed, "{transport}: {id}");
        // Revisions are widened back to the original 4-machine space even
        // after machine 0 is drained (event 3).
        assert_eq!(number(resp, &["schedule", "num_machines"]), 4.0);
        assert!(
            matches!(resp.get("warm"), Some(Value::Bool(_))),
            "{transport}: event {id} must report its warm verdict"
        );
    }

    assert_unknown_session(by_id[&5], &format!("{transport}: bogus session"));

    // The stats scrape (sent before close) sees the session still open and
    // all three revisions recorded.
    let stats = by_id[&6];
    assert_eq!(number(stats, &["stats", "sessions", "open"]), 1.0);
    assert_eq!(number(stats, &["stats", "sessions", "opened"]), 1.0);
    // The service-wide revision counter includes the revision-0 open solve
    // (three events + one open = four session solves).
    assert_eq!(number(stats, &["stats", "sessions", "revisions"]), 4.0);
    assert_eq!(number(stats, &["stats", "sessions", "unknown"]), 1.0);
    // Every revision (plus the open solve) recorded a latency sample.
    assert!(
        number(
            stats,
            &["stats", "sessions", "revision_latency_us", "count"]
        ) >= 4.0,
        "{transport}: revision latency histogram is empty: {stats:?}"
    );

    // Close summary reflects the whole session.
    let close = by_id[&7];
    assert_eq!(close.get("ok"), Some(&Value::Bool(true)), "{transport}");
    assert_eq!(number(close, &["summary", "revisions"]), 3.0);
    assert_eq!(number(close, &["summary", "events"]), 3.0);
    assert_eq!(number(close, &["summary", "realized_steps"]), 6.0);
    assert_eq!(number(close, &["summary", "completed"]), 3.0);
    assert_eq!(number(close, &["summary", "unfinished"]), 13.0);

    assert_unknown_session(by_id[&8], &format!("{transport}: event after close"));
}

/// Serves `lines` over the stdin transport and returns the parsed replies.
/// One solver thread keeps the response order deterministic; the session
/// gate is still exercised (every line of a session carries its token).
fn serve_stdin(service: &Arc<SchedulerService>, lines: &[String]) -> Vec<Value> {
    let input = lines.join("\n") + "\n";
    let output = SharedBuf::default();
    let pool = SolverPool::spawn(
        Arc::clone(service),
        &PipelineConfig {
            solver_threads: 1,
            queue_capacity: 1024,
        },
    );
    service
        .serve_lines(input.as_bytes(), output.clone(), &pool.handle())
        .unwrap();
    pool.shutdown();
    let bytes = output.0.lock().unwrap().clone();
    parse_lines(&String::from_utf8(bytes).unwrap())
}

#[test]
fn lifecycle_over_pipelined_stdin() {
    let service = Arc::new(SchedulerService::new(ServiceConfig::default()));
    check_lifecycle(&serve_stdin(&service, &lifecycle_corpus()), "stdin");
}

fn spawn() -> suu_service::ServiceHandle {
    spawn_tcp(
        Arc::new(SchedulerService::new(ServiceConfig::default())),
        &TcpServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            pipeline: PipelineConfig::default(),
        },
    )
    .unwrap()
}

#[test]
fn lifecycle_over_tcp_pipelined() {
    let handle = spawn();
    let stream = TcpStream::connect(handle.addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = BufWriter::new(stream);
    let lines = lifecycle_corpus();
    let mut responses = Vec::new();
    // Lock-step request/response: revisions must arrive in submission order
    // within the session.
    for line in &lines {
        writeln!(writer, "{line}").unwrap();
        writer.flush().unwrap();
        let mut reply = String::new();
        assert!(reader.read_line(&mut reply).unwrap() > 0, "closed early");
        responses.push(serde_json::parse(reply.trim_end()).expect("response parses"));
    }
    drop(writer);
    drop(reader);
    check_lifecycle(&responses, "tcp");
    handle.shutdown();
}

/// Two sessions on distinct TCP connections drive full adaptive executions
/// concurrently; both finish, neither sees an unknown-session error, and
/// the server ends with zero open sessions (both closed cleanly).
#[test]
fn concurrent_sessions_fan_out_over_tcp() {
    let handle = spawn();
    let addr = handle.addr();
    let workers: Vec<_> = (0..2u64)
        .map(|k| {
            std::thread::spawn(move || {
                let scenario = machine_failure_scenario(11 + k);
                let stream = TcpStream::connect(addr).unwrap();
                let mut reader = BufReader::new(stream.try_clone().unwrap());
                let mut writer = BufWriter::new(stream);
                let cfg = DriveConfig {
                    seed: 0xBEEF ^ k,
                    max_steps: 2_000,
                    report_completions: true,
                    failures: scenario.failures.clone(),
                    drifts: scenario.drifts.clone(),
                };
                drive_session(&scenario.instance, &cfg, |line| {
                    writeln!(writer, "{line}").ok()?;
                    writer.flush().ok()?;
                    let mut reply = String::new();
                    (reader.read_line(&mut reply).ok()? > 0).then_some(reply)
                })
                .expect("session drives to completion")
            })
        })
        .collect();
    let reports: Vec<_> = workers.into_iter().map(|w| w.join().unwrap()).collect();
    let mut sessions = std::collections::HashSet::new();
    for report in &reports {
        assert!(report.steps.is_some(), "execution censored: {report:?}");
        assert!(report.revisions > 0, "no revisions: {report:?}");
        assert_eq!(report.unknown_session_errors, 0, "{report:?}");
        sessions.insert(report.session);
    }
    assert_eq!(sessions.len(), 2, "sessions must get distinct ids");
    let snapshot = handle.service().metrics().snapshot();
    assert_eq!(snapshot.sessions_opened, 2);
    assert_eq!(snapshot.sessions_closed, 2);
    assert!(
        handle.service().sessions().is_empty(),
        "all sessions closed"
    );
    handle.shutdown();
}

/// Ending a connection without `close_session` evicts its sessions, on both
/// transports: stdin EOF and a dropped TCP connection.
#[test]
fn disconnect_evicts_sessions_on_both_modes() {
    let scenario = machine_failure_scenario(3);
    let open_line = open_session_line(1, &scenario.instance);

    // stdin: the input ends right after the open.
    let service = Arc::new(SchedulerService::new(ServiceConfig::default()));
    let replies = serve_stdin(&service, std::slice::from_ref(&open_line));
    assert_eq!(replies[0].get("ok"), Some(&Value::Bool(true)), "stdin");
    assert_eq!(service.metrics().snapshot().sessions_evicted, 1, "stdin");
    assert!(service.sessions().is_empty(), "stdin");

    // TCP: the client drops the connection after the open.
    let handle = spawn();
    {
        let stream = TcpStream::connect(handle.addr()).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = BufWriter::new(stream);
        writeln!(writer, "{open_line}").unwrap();
        writer.flush().unwrap();
        let mut reply = String::new();
        assert!(reader.read_line(&mut reply).unwrap() > 0);
        let open = serde_json::parse(reply.trim_end()).unwrap();
        assert_eq!(open.get("ok"), Some(&Value::Bool(true)), "tcp");
        assert_eq!(handle.service().sessions().len(), 1, "tcp");
    } // connection drops here, without close_session

    let deadline = Instant::now() + Duration::from_secs(5);
    while handle.service().metrics().snapshot().sessions_evicted == 0 {
        assert!(
            Instant::now() < deadline,
            "tcp: disconnect never evicted the session"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(handle.service().sessions().is_empty(), "tcp");
    handle.shutdown();
}

/// An expired idle TTL evicts on the next session verb: the follow-up event
/// answers `unknown_session` and the stats counters record the eviction.
#[test]
fn idle_ttl_evicts_quiet_sessions() {
    let service = SchedulerService::new(ServiceConfig {
        session_idle_ttl_ms: 1,
        ..ServiceConfig::default()
    });
    let scenario = machine_failure_scenario(5);
    let open =
        serde_json::parse(&service.handle_line(&open_session_line(1, &scenario.instance))).unwrap();
    assert_eq!(open.get("ok"), Some(&Value::Bool(true)));
    std::thread::sleep(Duration::from_millis(20));
    let reply = serde_json::parse(
        &service.handle_line(r#"{"id":2,"verb":"session_event","session":1,"step":1}"#),
    )
    .unwrap();
    assert_unknown_session(&reply, "ttl-expired session");
    let snapshot = service.metrics().snapshot();
    assert_eq!(snapshot.sessions_evicted, 1);
    assert_eq!(snapshot.unknown_session, 1);
    assert!(service.sessions().is_empty());
}

/// A full session table answers `busy` without evicting a live session.
#[test]
fn full_table_answers_busy() {
    let service = SchedulerService::new(ServiceConfig {
        max_sessions: 1,
        ..ServiceConfig::default()
    });
    let scenario = machine_failure_scenario(9);
    let first =
        serde_json::parse(&service.handle_line(&open_session_line(1, &scenario.instance))).unwrap();
    assert_eq!(first.get("ok"), Some(&Value::Bool(true)));
    let second =
        serde_json::parse(&service.handle_line(&open_session_line(2, &scenario.instance))).unwrap();
    assert_eq!(second.get("ok"), Some(&Value::Bool(false)));
    assert_eq!(
        second.get("error_kind"),
        Some(&Value::String("busy".to_string()))
    );
    assert_eq!(service.sessions().len(), 1, "the live session survives");
}
