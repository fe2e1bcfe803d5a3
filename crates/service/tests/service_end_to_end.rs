//! End-to-end acceptance test for the scheduling service.
//!
//! Starts the service on an ephemeral TCP port, submits independent, chain
//! and forest instances concurrently from four client threads, and verifies
//! that (a) every response's schedule respects the instance's precedence
//! constraints when executed, (b) repeated instances are served from the
//! cache (observable via the `cache_hit` response field), and (c) the
//! service sustains ≥ 100 req/s on mixed small instances from a closed-loop
//! client and on bursty multi-tenant traffic from a pipelined client, whose
//! payloads match a one-at-a-time baseline's, and (d) every request-pool
//! scenario runs without errors or busy rejections. The repository benchmark
//! (`perfbench/`) owns the timed numbers; these floors only catch a collapse.

use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::sync::Arc;

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use suu_core::{InstanceBuilder, JobId, SuuInstance};
use suu_graph::Dag;
use suu_service::{
    spawn_tcp, MetricsSnapshot, PipelineConfig, Request, Response, SchedulerService, ServiceConfig,
    ServiceHandle, TcpServerConfig,
};
use suu_workloads::uniform_matrix;

mod common;
use common::{replay, request_pool};

/// A fresh service on an ephemeral port with 4 connection readers.
fn start_service(pipeline: PipelineConfig) -> ServiceHandle {
    let service = Arc::new(SchedulerService::new(ServiceConfig::default()));
    let config = TcpServerConfig {
        pipeline,
        ..TcpServerConfig::default()
    };
    spawn_tcp(service, &config).expect("ephemeral bind succeeds")
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
    let handle = start_service(PipelineConfig::default());
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

/// One run of a scenario's pool from 4 connections against a fresh service:
/// the parsed responses sorted by id, the req/s and the final metrics.
fn run_scenario(
    scenario: &str,
    total_requests: usize,
    seed: u64,
    pipeline: PipelineConfig,
    in_flight: usize,
) -> (Vec<Response>, f64, MetricsSnapshot) {
    let handle = start_service(pipeline);
    let lines: Vec<String> = request_pool(scenario, total_requests, seed)
        .iter()
        .map(|r| serde_json::to_string(r).expect("requests serialise"))
        .collect();
    let (raw, wall) = replay(handle.addr(), &lines, 4, in_flight);
    let metrics = handle.service().metrics().snapshot();
    handle.shutdown();
    let mut responses: Vec<Response> = raw
        .iter()
        .map(|line| serde_json::from_str(line).expect("responses parse"))
        .collect();
    responses.sort_by_key(|r| r.id);
    assert_eq!(
        responses.len(),
        total_requests,
        "{scenario}: one response per request"
    );
    for resp in &responses {
        let (id, kind) = (resp.id, &resp.error_kind);
        assert!(
            resp.ok,
            "{scenario}: request {id} failed ({kind:?}): {:?}",
            resp.error
        );
    }
    let rps = total_requests as f64 / wall.as_secs_f64();
    (responses, rps, metrics)
}

/// Replays one bursty multi-tenant pool against a one-at-a-time baseline
/// (one solver thread, closed-loop client) and the default pool (pipelined
/// client, 64 in flight per connection). Payloads must match modulo
/// ordering and coalescing must never add solves. Returns the pipelined
/// arm's req/s.
fn assert_pipelining_matches_the_baseline(total_requests: usize, seed: u64) -> f64 {
    let one_at_a_time = PipelineConfig {
        solver_threads: 1,
        ..PipelineConfig::default()
    };
    let (baseline, _, baseline_metrics) =
        run_scenario("bursty", total_requests, seed, one_at_a_time, 1);
    let (pipelined, pipelined_rps, pipelined_metrics) = run_scenario(
        "bursty",
        total_requests,
        seed,
        PipelineConfig::default(),
        64,
    );
    let payload = |r: &Response| (r.id, r.ok, r.solver.clone(), r.schedule.clone());
    assert!(
        baseline
            .iter()
            .map(payload)
            .eq(pipelined.iter().map(payload)),
        "both arms must return identical response payloads modulo ordering"
    );
    assert!(
        pipelined_metrics.fresh_solves <= baseline_metrics.fresh_solves,
        "coalescing must not increase fresh solves ({} vs {})",
        pipelined_metrics.fresh_solves,
        baseline_metrics.fresh_solves
    );
    pipelined_rps
}

#[test]
fn mixed_traffic_sustains_100_rps_and_pipelining_matches_the_baseline() {
    // Part 1: the absolute floor — closed-loop mixed traffic against the
    // default service must sustain >= 100 req/s.
    let (mixed, rps, _) = run_scenario("mixed", 300, 0xACCE, PipelineConfig::default(), 1);
    assert!(
        mixed.iter().any(|r| r.cache_hit),
        "bursty mixed traffic must exercise the cache"
    );
    assert!(
        rps >= 100.0,
        "throughput {rps:.1} req/s below the 100 req/s floor"
    );

    // Part 2: pipelining matches the one-at-a-time baseline on 600 bursty
    // requests, and the pipelined arm must sustain >= 100 req/s.
    let pipelined_rps = assert_pipelining_matches_the_baseline(600, 0xACCE);
    assert!(
        pipelined_rps >= 100.0,
        "pipelined throughput {pipelined_rps:.1} req/s below the 100 req/s floor"
    );
}

#[test]
fn quick_run_covers_all_scenarios_and_meets_the_floor() {
    // Every scenario's closed loop against the default service runs without
    // errors or busy rejections, and mixed traffic sustains >= 100 req/s.
    for scenario in ["mixed", "grid", "project", "bursty"] {
        let (_, rps, _) = run_scenario(scenario, 120, 0x51, PipelineConfig::default(), 1);
        if scenario == "mixed" {
            assert!(rps >= 100.0, "mixed throughput {rps:.1} below floor");
        }
    }
}

#[test]
fn comparison_modes_agree_on_payloads_and_pipelining_adds_no_solves() {
    assert_pipelining_matches_the_baseline(240, 0x52 ^ 0xB1B);
}
