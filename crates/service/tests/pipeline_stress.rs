//! Concurrency stress battery for the sharded schedule cache, the
//! single-flight layer and the executor's admission control and fault
//! containment.

use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Barrier};
use std::time::Duration;

use serde::Value;

use suu_algorithms::{AlgorithmError, LpBudget};
use suu_core::{InstanceBuilder, SuuInstance};
use suu_service::{
    error_kind, open_session_line, spawn_tcp, PipelineConfig, Request, Response, SchedulerService,
    ServiceConfig, SolveOutput, Solver, SolverRegistry, TcpServerConfig,
};
use suu_workloads::uniform_matrix;

fn chain_instance(seed: u64) -> SuuInstance {
    InstanceBuilder::new(6, 3)
        .probability_matrix(uniform_matrix(6, 3, 0.3, 0.9, seed))
        .chains(&[vec![0, 1, 2], vec![3, 4, 5]])
        .build()
        .unwrap()
}

/// Answers `request` through the line entry point.
fn handle(service: &SchedulerService, request: &Request) -> Response {
    let line = serde_json::to_string(request).unwrap();
    serde_json::from_str(&service.handle_line(&line)).unwrap()
}

/// N threads hammering K distinct instances must trigger exactly K solver
/// invocations: every concurrent duplicate either waits on the leader's
/// flight or hits the cache, never re-solves.
#[test]
fn n_threads_on_k_instances_trigger_exactly_k_fresh_solves() {
    const THREADS: usize = 8;
    const ROUNDS: usize = 6;
    const K: usize = 6;

    let service = Arc::new(SchedulerService::new(ServiceConfig::default()));
    let instances: Arc<Vec<SuuInstance>> =
        Arc::new((0..K as u64).map(|k| chain_instance(0xABC0 + k)).collect());
    let barrier = Arc::new(Barrier::new(THREADS));

    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let service = Arc::clone(&service);
            let instances = Arc::clone(&instances);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let mut responses = Vec::new();
                for round in 0..ROUNDS {
                    // Every thread starts every round on the same instance at
                    // the same moment — the worst case for duplicate solves.
                    barrier.wait();
                    let which = round % instances.len();
                    let request =
                        Request::from_instance((t * 1000 + round) as u64, &instances[which]);
                    responses.push((which, handle(&service, &request)));
                    // And a second pass over a *different* instance to mix
                    // cache hits into the contention window.
                    let other = (round + t) % instances.len();
                    let request =
                        Request::from_instance((t * 1000 + 500 + round) as u64, &instances[other]);
                    responses.push((other, handle(&service, &request)));
                }
                responses
            })
        })
        .collect();

    let mut all: Vec<(usize, Response)> = Vec::new();
    for handle in handles {
        all.extend(
            handle
                .join()
                .expect("stress thread panicked (poisoned lock?)"),
        );
    }
    assert_eq!(all.len(), THREADS * ROUNDS * 2);

    // Every response succeeded, and all responses for one instance carry the
    // identical schedule (followers got the leader's result).
    let mut schedules: Vec<Option<String>> = vec![None; K];
    for (which, response) in &all {
        assert!(response.ok, "error: {:?}", response.error);
        let rendered = serde_json::to_string(response.schedule.as_ref().unwrap()).unwrap();
        match &schedules[*which] {
            Some(seen) => assert_eq!(seen, &rendered, "instance {which} schedule diverged"),
            None => schedules[*which] = Some(rendered),
        }
    }

    // The acceptance property: exactly K fresh solves, everything else
    // served from the flight table or the cache.
    let snapshot = service.metrics().snapshot();
    assert_eq!(
        snapshot.fresh_solves, K as u64,
        "duplicate concurrent requests must coalesce onto one solve \
         (coalesced={}, requests={})",
        snapshot.coalesced, snapshot.requests
    );
    assert_eq!(snapshot.errors, 0);
    assert_eq!(snapshot.requests, (THREADS * ROUNDS * 2) as u64);
    assert_eq!(service.cache().len(), K);

    // No poisoned locks: the service still serves.
    let after = handle(&service, &Request::from_instance(42, &instances[0]));
    assert!(after.ok && after.cache_hit);
}

/// A solver that panics on every instance.
struct Panicker;

impl Solver for Panicker {
    fn name(&self) -> &'static str {
        "panicker"
    }

    fn supports(&self, _: &SuuInstance) -> bool {
        true
    }

    fn solve(&self, _: &SuuInstance, _: &LpBudget) -> Result<SolveOutput, AlgorithmError> {
        panic!("deliberate solver panic");
    }
}

/// A panicking solve is contained at the job boundary: its request is
/// answered `solver_error`, the only solver thread survives to answer the
/// next request, and `stats` counts the panic.
#[test]
fn panicking_solver_is_answered_and_the_thread_survives() {
    let mut registry = SolverRegistry::with_paper_algorithms();
    registry.register(Box::new(Panicker));
    let service = Arc::new(SchedulerService::with_registry(
        ServiceConfig::default(),
        registry,
    ));
    let server = spawn_tcp(
        Arc::clone(&service),
        &TcpServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 1,
            pipeline: PipelineConfig {
                solver_threads: 1,
                queue_capacity: 8,
            },
        },
    )
    .unwrap();

    let stream = TcpStream::connect(server.addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = BufWriter::new(stream);
    let mut doomed = Request::from_instance(1, &chain_instance(0xBAD));
    doomed.solver = Some("panicker".to_string());
    writeln!(writer, "{}", serde_json::to_string(&doomed).unwrap()).unwrap();
    let healthy = Request::from_instance(2, &chain_instance(0x600D));
    writeln!(writer, "{}", serde_json::to_string(&healthy).unwrap()).unwrap();
    writer.flush().unwrap();

    // Read on a helper thread so a dead solver thread fails the test with a
    // timeout instead of hanging it.
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        for _ in 0..2 {
            let mut line = String::new();
            if reader.read_line(&mut line).unwrap_or(0) == 0 {
                return;
            }
            let _ = tx.send(serde_json::from_str::<Response>(&line).unwrap());
        }
    });
    let first = rx
        .recv_timeout(Duration::from_secs(30))
        .expect("the panicking request gets an answer");
    assert_eq!(first.id, 1);
    assert!(!first.ok);
    assert_eq!(first.error_kind.as_deref(), Some(error_kind::SOLVER_ERROR));
    let second = rx
        .recv_timeout(Duration::from_secs(30))
        .expect("the solver thread survives to answer the next request");
    assert_eq!(second.id, 2);
    assert!(second.ok, "error: {:?}", second.error);
    assert_eq!(service.metrics().solver_panics(), 1);
    drop(writer);
    server.shutdown();
}

/// The session solver whose first solve (a session's revision 0) succeeds
/// and whose every later solve panics.
struct PanicsAfterFirstSolve {
    paper: SolverRegistry,
    solves: AtomicUsize,
}

impl Solver for PanicsAfterFirstSolve {
    fn name(&self) -> &'static str {
        "suu-c"
    }

    fn supports(&self, instance: &SuuInstance) -> bool {
        self.paper.by_name("suu-c").unwrap().supports(instance)
    }

    fn solve(
        &self,
        instance: &SuuInstance,
        limits: &LpBudget,
    ) -> Result<SolveOutput, AlgorithmError> {
        if self.solves.fetch_add(1, Ordering::SeqCst) > 0 {
            panic!("deliberate panic in a session revision");
        }
        self.paper.by_name("suu-c").unwrap().solve(instance, limits)
    }
}

/// A panic in a session revision poisons that session's state lock. The
/// panicking event is answered `solver_error`; the session is then dead, so
/// its next event evicts it and is answered `unknown_session` — not a
/// second panic per event until the idle TTL.
#[test]
fn a_session_poisoned_by_a_panic_is_evicted() {
    let mut registry = SolverRegistry::new();
    registry.register(Box::new(PanicsAfterFirstSolve {
        paper: SolverRegistry::with_paper_algorithms(),
        solves: AtomicUsize::new(0),
    }));
    let service = Arc::new(SchedulerService::with_registry(
        ServiceConfig::default(),
        registry,
    ));
    let server = spawn_tcp(
        Arc::clone(&service),
        &TcpServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 1,
            pipeline: PipelineConfig {
                solver_threads: 1,
                queue_capacity: 8,
            },
        },
    )
    .unwrap();

    let stream = TcpStream::connect(server.addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = BufWriter::new(stream);
    writeln!(writer, "{}", open_session_line(1, &chain_instance(0x5E55))).unwrap();
    writeln!(
        writer,
        r#"{{"id":2,"verb":"session_event","session":1,"step":1,"completed":[0]}}"#
    )
    .unwrap();
    writeln!(
        writer,
        r#"{{"id":3,"verb":"session_event","session":1,"step":2,"completed":[1]}}"#
    )
    .unwrap();
    writer.flush().unwrap();

    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        for _ in 0..3 {
            let mut line = String::new();
            if reader.read_line(&mut line).unwrap_or(0) == 0 {
                return;
            }
            let _ = tx.send(serde_json::parse(&line).unwrap());
        }
    });
    let next = || {
        rx.recv_timeout(Duration::from_secs(30))
            .expect("every session verb gets an answer")
    };
    let kind = |reply: &Value| {
        reply
            .get("error_kind")
            .and_then(Value::as_str)
            .map(str::to_string)
    };
    let opened = next();
    assert_eq!(opened.get("ok"), Some(&Value::Bool(true)), "{opened:?}");
    let panicked = next();
    assert_eq!(kind(&panicked).as_deref(), Some(error_kind::SOLVER_ERROR));
    let after = next();
    assert_eq!(kind(&after).as_deref(), Some(error_kind::UNKNOWN_SESSION));
    assert_eq!(service.metrics().solver_panics(), 1);
    assert!(
        service.sessions().is_empty(),
        "the poisoned session is evicted"
    );
    drop(writer);
    server.shutdown();
}

/// Flooding a tiny queue must produce structured `busy` rejections — not
/// blocked readers, not dropped lines — and the connection must keep
/// working afterwards.
#[test]
fn admission_control_rejects_with_busy_and_connection_survives() {
    const FLOOD: usize = 64;

    let service = Arc::new(SchedulerService::new(ServiceConfig::default()));
    let handle = spawn_tcp(
        Arc::clone(&service),
        &TcpServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            pipeline: PipelineConfig {
                solver_threads: 1,
                queue_capacity: 2,
            },
        },
    )
    .unwrap();

    let stream = TcpStream::connect(handle.addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = BufWriter::new(stream);
    // Distinct instances (no coalescing shortcut) with slow-ish solves so
    // the 2-slot queue genuinely overflows while the flood is written.
    for id in 1..=FLOOD as u64 {
        let inst = chain_instance(0xF100D + id);
        let mut request = Request::from_instance(id, &inst);
        request.estimate_trials = Some(200);
        writeln!(writer, "{}", serde_json::to_string(&request).unwrap()).unwrap();
    }
    writer.flush().unwrap();

    let mut ids = Vec::new();
    let mut busy = 0;
    let mut ok = 0;
    for _ in 0..FLOOD {
        let mut line = String::new();
        assert!(reader.read_line(&mut line).unwrap() > 0, "connection died");
        let resp: Response = serde_json::from_str(&line).unwrap();
        ids.push(resp.id);
        if resp.is_busy() {
            busy += 1;
        } else {
            assert!(resp.ok, "non-busy response failed: {:?}", resp.error);
            ok += 1;
        }
    }
    ids.sort_unstable();
    assert_eq!(
        ids,
        (1..=FLOOD as u64).collect::<Vec<_>>(),
        "every request got exactly one response with its own id"
    );
    assert!(busy > 0, "a 2-slot queue must reject part of a 64-burst");
    assert!(ok > 0, "accepted requests still complete");
    assert_eq!(service.metrics().busy_rejections(), busy);

    // Same connection, after the storm: normal service.
    let calm = Request::from_instance(9_000, &chain_instance(0xCA1A));
    writeln!(writer, "{}", serde_json::to_string(&calm).unwrap()).unwrap();
    writer.flush().unwrap();
    let mut line = String::new();
    assert!(reader.read_line(&mut line).unwrap() > 0);
    let resp: Response = serde_json::from_str(&line).unwrap();
    assert!(resp.ok, "connection must survive admission control");
    assert_eq!(resp.id, 9_000);
    handle.shutdown();
}
