//! Protocol fuzz battery: malformed NDJSON lines must produce exactly one
//! structured error response per line — never a dropped line, a killed
//! connection, or a dead worker — on both transports (stdin and TCP).

use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::sync::Arc;

use suu_core::InstanceBuilder;
use suu_service::{
    error_kind, spawn_tcp, Counter, PipelineConfig, Request, Response, SchedulerService,
    ServiceConfig, SolverPool, TcpServerConfig,
};
use suu_workloads::uniform_matrix;

fn valid_request_line(id: u64) -> String {
    let inst = InstanceBuilder::new(3, 2)
        .probability_matrix(uniform_matrix(3, 2, 0.3, 0.9, id))
        .build()
        .unwrap();
    serde_json::to_string(&Request::from_instance(id, &inst)).unwrap()
}

/// The malformed corpus: every entry must elicit `ok:false` with a
/// machine-readable `error_kind`, and must not take the connection down.
fn malformed_lines() -> Vec<String> {
    let valid = valid_request_line(1);
    let mut lines = vec![
        // Truncations of a valid request at various depths.
        valid[..valid.len() / 4].to_string(),
        valid[..valid.len() / 2].to_string(),
        valid[..valid.len() - 1].to_string(),
        // Wrong types in otherwise well-formed JSON.
        r#"{"id":"one","num_jobs":2,"num_machines":1,"probs":[0.5,0.5]}"#.to_string(),
        r#"{"id":1,"num_jobs":"two","num_machines":1,"probs":[0.5,0.5]}"#.to_string(),
        r#"{"id":1,"num_jobs":2,"num_machines":1,"probs":"half"}"#.to_string(),
        r#"{"id":1,"num_jobs":2,"num_machines":1,"probs":[0.5,true]}"#.to_string(),
        r#"{"id":1,"num_jobs":2,"num_machines":1,"probs":[0.5,0.5],"edges":{"a":1}}"#.to_string(),
        // Huge / negative / fractional ids (numbers are f64 on the wire).
        r#"{"id":99999999999999999999999999,"num_jobs":2,"num_machines":1,"probs":[0.5,0.5]}"#
            .to_string(),
        r#"{"id":-7,"num_jobs":2,"num_machines":1,"probs":[0.5,0.5]}"#.to_string(),
        r#"{"id":1.5,"num_jobs":2,"num_machines":1,"probs":[0.5,0.5]}"#.to_string(),
        // Structurally valid JSON that is not a request.
        "null".to_string(),
        "true".to_string(),
        "[]".to_string(),
        "{}".to_string(),
        "\"just a string\"".to_string(),
        "42".to_string(),
        // Raw garbage, mismatched brackets, control characters, non-UTF8-ish.
        "this is not json".to_string(),
        "}{".to_string(),
        "{\"id\":1".to_string(),
        "\u{1}\u{2}garbage\u{3}".to_string(),
        "{\"id\": 1, \"num_jobs\": }".to_string(),
        // Semantically invalid requests (parse fine, fail validation).
        r#"{"id":3,"num_jobs":2,"num_machines":1,"probs":[0.5,1.7]}"#.to_string(),
        r#"{"id":4,"num_jobs":2,"num_machines":1,"probs":[0.5,0.0]}"#.to_string(),
        r#"{"id":5,"num_jobs":2,"num_machines":1,"probs":[0.5,0.5],"edges":[[0,1],[1,0]]}"#
            .to_string(),
        r#"{"id":6,"num_jobs":2,"num_machines":1,"probs":[0.5,0.5],"solver":"warp-drive"}"#
            .to_string(),
    ];
    // A couple of degenerate envelope shapes around the canonical prefix,
    // aimed squarely at the interned-line fast path.
    lines.push("{\"id\":".to_string());
    lines.push("{\"id\":12}".to_string());
    lines.push("{\"id\":12,,}".to_string());
    lines
}

/// Interleaves each malformed line with a valid request, expecting exactly
/// one response per non-empty line and the valid requests to still succeed.
fn interleaved_battery() -> (String, usize, usize) {
    let malformed = malformed_lines();
    let mut input = String::new();
    let mut valid_count = 0;
    for (k, bad) in malformed.iter().enumerate() {
        input.push_str(bad);
        input.push('\n');
        input.push_str(&valid_request_line(1000 + k as u64));
        input.push('\n');
        valid_count += 1;
    }
    (input, malformed.len(), valid_count)
}

fn assert_battery_outcome(output: &str, expect_bad: usize, expect_ok: usize) {
    let responses: Vec<Response> = output
        .lines()
        .map(|l| serde_json::from_str(l).unwrap_or_else(|e| panic!("unparseable `{l}`: {e}")))
        .collect();
    assert_eq!(
        responses.len(),
        expect_bad + expect_ok,
        "exactly one response per line"
    );
    let ok = responses.iter().filter(|r| r.ok).count();
    let bad = responses.iter().filter(|r| !r.ok).count();
    assert_eq!(ok, expect_ok, "every valid request must succeed");
    assert_eq!(bad, expect_bad, "every malformed line must error");
    for resp in &responses {
        if resp.ok {
            assert!(resp.schedule.is_some());
            assert!(resp.error.is_none() && resp.error_kind.is_none());
        } else {
            assert!(resp.error.is_some(), "errors carry a message");
            let kind = resp.error_kind.as_deref().expect("errors carry a kind");
            assert!(
                [
                    error_kind::BAD_REQUEST,
                    error_kind::INVALID_REQUEST,
                    error_kind::SOLVER_ERROR
                ]
                .contains(&kind),
                "unexpected error_kind {kind}"
            );
        }
    }
}

#[test]
fn stdin_pipelined_survives_the_malformed_corpus() {
    // Shared buffer because serve_lines takes the writer by value.
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

    let svc = Arc::new(SchedulerService::new(ServiceConfig::default()));
    let pool = SolverPool::spawn(
        Arc::clone(&svc),
        &PipelineConfig {
            solver_threads: 2,
            queue_capacity: 256,
        },
    );
    let (input, expect_bad, expect_ok) = interleaved_battery();
    let buf = SharedBuf::default();
    svc.serve_lines(input.as_bytes(), buf.clone(), &pool.handle())
        .unwrap();
    pool.shutdown();
    let output = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
    assert_battery_outcome(&output, expect_bad, expect_ok);
    // Lines that parse as requests but fail validation are counted as
    // errors; pure protocol noise is answered without entering the metrics.
    let snap = svc.metrics().snapshot();
    let errors = snap.counter(Counter::Errors);
    assert!(errors >= 1 && (errors as usize) <= expect_bad);
    assert_eq!(snap.counter(Counter::Requests) - errors, expect_ok as u64);

    // The workers survived: a fresh request still gets served.
    let after: Response =
        serde_json::from_str(&svc.handle_line(&valid_request_line(9_999))).unwrap();
    assert!(after.ok, "service must keep serving after the fuzz corpus");
}

#[test]
fn tcp_pipelined_survives_the_malformed_corpus() {
    let svc = Arc::new(SchedulerService::new(ServiceConfig::default()));
    let handle = spawn_tcp(
        Arc::clone(&svc),
        &TcpServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            pipeline: PipelineConfig {
                solver_threads: 2,
                queue_capacity: 256,
            },
        },
    )
    .unwrap();

    let (input, expect_bad, expect_ok) = interleaved_battery();
    let total = expect_bad + expect_ok;
    let stream = TcpStream::connect(handle.addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = BufWriter::new(stream);
    writer.write_all(input.as_bytes()).unwrap();
    writer.flush().unwrap();
    let mut output = String::new();
    for _ in 0..total {
        let mut line = String::new();
        assert!(
            reader.read_line(&mut line).unwrap() > 0,
            "connection died mid-battery"
        );
        output.push_str(&line);
    }
    assert_battery_outcome(&output, expect_bad, expect_ok);

    // The same connection still serves a valid request afterwards.
    writeln!(writer, "{}", valid_request_line(31_337)).unwrap();
    writer.flush().unwrap();
    let mut line = String::new();
    assert!(reader.read_line(&mut line).unwrap() > 0);
    let resp: Response = serde_json::from_str(&line).unwrap();
    assert!(
        resp.ok,
        "connection must survive the corpus: {:?}",
        resp.error
    );
    assert_eq!(resp.id, 31_337);
    handle.shutdown();
}

#[test]
fn oversized_lines_error_without_killing_the_pipelined_connection() {
    let svc = Arc::new(SchedulerService::new(ServiceConfig {
        max_line_bytes: 512,
        ..ServiceConfig::default()
    }));
    let pool = SolverPool::spawn(Arc::clone(&svc), &PipelineConfig::default());
    let good = valid_request_line(77);
    assert!(good.len() <= 512, "test request must fit the limit");
    let huge = "x".repeat(10_000);
    let input = format!("{huge}\n{good}\n{huge}{huge}");
    let mut sink = Vec::new();
    {
        #[derive(Clone)]
        struct SharedVec(Arc<std::sync::Mutex<Vec<u8>>>);
        impl Write for SharedVec {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let shared = SharedVec(Arc::new(std::sync::Mutex::new(Vec::new())));
        svc.serve_lines(input.as_bytes(), shared.clone(), &pool.handle())
            .unwrap();
        sink.extend_from_slice(&shared.0.lock().unwrap());
    }
    pool.shutdown();
    let output = String::from_utf8(sink).unwrap();
    let responses: Vec<Response> = output
        .lines()
        .map(|l| serde_json::from_str(l).unwrap())
        .collect();
    assert_eq!(responses.len(), 3);
    let bad = responses
        .iter()
        .filter(|r| !r.ok && r.error_kind.as_deref() == Some(error_kind::BAD_REQUEST))
        .count();
    assert_eq!(bad, 2, "both oversized lines get structured errors");
    assert_eq!(responses.iter().filter(|r| r.ok).count(), 1);
}
