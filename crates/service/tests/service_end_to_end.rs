//! End-to-end acceptance test for the scheduling service.
//!
//! Starts the service on an ephemeral TCP port, submits independent, chain
//! and forest instances concurrently from four client threads, and verifies
//! that (a) every response's schedule respects the instance's precedence
//! constraints when executed, (b) repeated instances are served from the
//! cache (observable via the `cache_hit` response field), and (c) the load
//! generator sustains ≥ 100 req/s on mixed small instances, and a pipelined
//! open-loop run returns the same payloads as a one-at-a-time baseline. The
//! timed comparison of the two lives in `exp_service_throughput` (S1b).

use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::sync::Arc;

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use suu_core::{InstanceBuilder, JobId, SuuInstance};
use suu_graph::Dag;
use suu_service::{
    run_loadgen, spawn_tcp, LoadgenConfig, PipelineConfig, Request, Response, SchedulerService,
    ServiceConfig, ServiceHandle, TcpServerConfig,
};
use suu_workloads::uniform_matrix;

fn start_service(workers: usize) -> ServiceHandle {
    let service = Arc::new(SchedulerService::new(ServiceConfig::default()));
    spawn_tcp(
        service,
        &TcpServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers,
            ..TcpServerConfig::default()
        },
    )
    .expect("ephemeral bind succeeds")
}

/// One instance of each structural class the registry dispatches on.
fn test_instances() -> Vec<SuuInstance> {
    let independent = InstanceBuilder::new(5, 3)
        .probability_matrix(uniform_matrix(5, 3, 0.3, 0.9, 101))
        .build()
        .unwrap();
    let chains = InstanceBuilder::new(6, 3)
        .probability_matrix(uniform_matrix(6, 3, 0.3, 0.9, 102))
        .chains(&[vec![0, 1, 2], vec![3, 4], vec![5]])
        .build()
        .unwrap();
    let forest = InstanceBuilder::new(6, 3)
        .probability_matrix(uniform_matrix(6, 3, 0.3, 0.9, 103))
        .precedence(Dag::from_edges(6, [(0, 1), (0, 2), (3, 4), (3, 5)]).unwrap())
        .build()
        .unwrap();
    vec![independent, chains, forest]
}

/// Executes the response's schedule against the instance and checks that
/// every job finishes and no job ever completes before a predecessor.
fn assert_schedule_respects_precedence(instance: &SuuInstance, response: &Response) {
    assert!(response.ok, "response error: {:?}", response.error);
    let schedule = response
        .schedule
        .clone()
        .expect("ok responses carry a schedule");
    assert_eq!(schedule.num_machines(), instance.num_machines());
    assert_eq!(response.schedule_len, schedule.len());
    for step in schedule.steps() {
        for (_, job) in step.busy_pairs() {
            assert!(job.0 < instance.num_jobs(), "job id out of range");
        }
    }
    // The executor enforces eligibility (Definition 2.1); a finished trace
    // whose completion order matches the DAG certifies that the schedule
    // keeps every job reachable and the constraints hold.
    for trial in 0..3 {
        let mut policy = schedule.clone();
        let mut rng = ChaCha8Rng::seed_from_u64(0xE2E ^ trial);
        let (steps, trace) =
            suu_sim::executor::simulate_traced(instance, &mut policy, &mut rng, 1_000_000);
        assert!(steps.is_some(), "schedule must finish every job");
        for (u, v) in instance.precedence().edges() {
            let cu = trace.completion_step(JobId(u)).expect("job u completes");
            let cv = trace.completion_step(JobId(v)).expect("job v completes");
            // Strict: v only becomes eligible the step after u completes, so
            // completing in the same step would itself be a violation.
            assert!(
                cu < cv,
                "job {u} (done at {cu}) must strictly precede job {v} (done at {cv})"
            );
        }
    }
}

fn roundtrip_on(reader: &mut impl BufRead, writer: &mut impl Write, request: &Request) -> Response {
    let line = serde_json::to_string(request).unwrap();
    writeln!(writer, "{line}").unwrap();
    writer.flush().unwrap();
    let mut response = String::new();
    reader.read_line(&mut response).unwrap();
    serde_json::from_str(&response).unwrap()
}

#[test]
fn concurrent_clients_get_valid_schedules_and_cache_hits() {
    let handle = start_service(4);
    let addr = handle.addr();
    let instances = Arc::new(test_instances());

    // Phase 1: four client threads hammer the service concurrently, each
    // cycling through all three structural classes.
    let threads: Vec<_> = (0..4)
        .map(|t| {
            let instances = Arc::clone(&instances);
            std::thread::spawn(move || {
                let stream = TcpStream::connect(addr).unwrap();
                let mut reader = BufReader::new(stream.try_clone().unwrap());
                let mut writer = BufWriter::new(stream);
                let mut responses = Vec::new();
                for round in 0..6 {
                    let which = (t + round) % instances.len();
                    let request =
                        Request::from_instance((t * 100 + round) as u64, &instances[which]);
                    let response = roundtrip_on(&mut reader, &mut writer, &request);
                    responses.push((which, response));
                }
                responses
            })
        })
        .collect();

    let mut all: Vec<(usize, Response)> = Vec::new();
    for thread in threads {
        all.extend(thread.join().expect("client thread panicked"));
    }
    assert_eq!(all.len(), 24);

    // (a) every response validates against its instance's precedence DAG.
    let expected_solvers = ["suu-i-obl", "suu-c", "suu-forest"];
    for (which, response) in &all {
        assert_schedule_respects_precedence(&instances[*which], response);
        assert_eq!(response.solver.as_deref(), Some(expected_solvers[*which]));
    }

    // (b) repeats are served from the cache, and concurrent duplicates are
    // coalesced onto one solve, so each instance misses exactly once.
    for which in 0..instances.len() {
        let misses = all
            .iter()
            .filter(|(w, r)| *w == which && !r.cache_hit)
            .count();
        assert_eq!(misses, 1, "instance {which}: {misses} misses");
        let hits = all
            .iter()
            .filter(|(w, r)| *w == which && r.cache_hit)
            .count();
        assert!(hits >= 4, "instance {which}: only {hits} cache hits");
    }
    let stream = TcpStream::connect(addr).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = BufWriter::new(stream);
    let repeat = roundtrip_on(
        &mut reader,
        &mut writer,
        &Request::from_instance(999, &instances[1]),
    );
    assert!(repeat.ok);
    assert!(repeat.cache_hit, "repeated instance must hit the cache");

    let snapshot = handle.service().metrics().snapshot();
    assert_eq!(snapshot.requests, 25);
    assert_eq!(snapshot.errors, 0);
    assert!(handle.service().cache().hits() >= 13);
    handle.shutdown();
}

#[test]
fn loadgen_sustains_100_rps_and_pipelining_matches_the_baseline() {
    // Part 1: the absolute floor — closed-loop mixed traffic against the
    // default service must sustain >= 100 req/s.
    let handle = start_service(4);
    let report = run_loadgen(&LoadgenConfig {
        addr: handle.addr().to_string(),
        scenario: "mixed".to_string(),
        connections: 4,
        total_requests: 300,
        target_rps: None,
        max_in_flight: 1,
        collect_payloads: false,
        deadline_ms: None,
        detail: None,
        trace: false,
        session: false,
        seed: 0xACCE,
    })
    .expect("load generation succeeds");
    handle.shutdown();

    assert_eq!(report.sent, 300);
    assert_eq!(report.errors, 0, "all mixed requests must succeed");
    assert!(
        report.cache_hits > 0,
        "bursty mixed traffic must exercise the cache"
    );
    assert!(
        report.achieved_rps >= 100.0,
        "throughput {:.1} req/s below the 100 req/s floor",
        report.achieved_rps
    );
    assert!(report.p99_micros >= report.p50_micros);

    // Part 2: the same bursty multi-tenant pool replayed against a
    // one-at-a-time baseline (one solver thread, closed-loop client) and the
    // default pool (open-loop client, 64 in flight per connection). Payloads
    // must match modulo ordering, and coalescing must never add solves.
    let run_bursty = |solver_threads: usize, max_in_flight: usize| {
        let service = Arc::new(SchedulerService::new(ServiceConfig::default()));
        let handle = spawn_tcp(
            Arc::clone(&service),
            &TcpServerConfig {
                addr: "127.0.0.1:0".to_string(),
                workers: 4,
                pipeline: PipelineConfig {
                    solver_threads,
                    ..PipelineConfig::default()
                },
            },
        )
        .expect("ephemeral bind succeeds");
        let report = run_loadgen(&LoadgenConfig {
            addr: handle.addr().to_string(),
            scenario: "bursty".to_string(),
            connections: 4,
            total_requests: 600,
            target_rps: None,
            max_in_flight,
            collect_payloads: true,
            deadline_ms: None,
            detail: None,
            trace: false,
            session: false,
            seed: 0xACCE,
        })
        .expect("load generation succeeds");
        let snapshot = handle.service().metrics().snapshot();
        handle.shutdown();
        (report, snapshot)
    };
    let (baseline, baseline_metrics) = run_bursty(1, 1);
    let (pipelined, pipelined_metrics) = run_bursty(PipelineConfig::default().solver_threads, 64);
    for (label, rep) in [("baseline", &baseline), ("pipelined", &pipelined)] {
        assert_eq!(rep.sent, 600, "{label}");
        assert_eq!(rep.errors, 0, "{label} run produced errors");
        assert_eq!(rep.busy, 0, "{label} run hit admission control");
    }
    assert_eq!(
        baseline.payloads, pipelined.payloads,
        "both arms must return identical response payloads modulo ordering"
    );
    assert!(
        pipelined_metrics.fresh_solves <= baseline_metrics.fresh_solves,
        "coalescing must not increase fresh solves ({} vs {})",
        pipelined_metrics.fresh_solves,
        baseline_metrics.fresh_solves
    );
}
