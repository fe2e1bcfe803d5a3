//! The TCP client and the request pools shared by the integration tests that
//! drive a served `SchedulerService` over sockets.

use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::mpsc::{sync_channel, TrySendError};
use std::time::{Duration, Instant};

use suu_core::SuuInstance;
use suu_service::Request;
use suu_workloads::{
    bursty_multi_tenant_stream, grid_computing_instance, project_management_instance,
    tenant_drift_stream, BurstConfig, DriftConfig, GridConfig, ProjectConfig,
};

/// Sends `lines` over `connections` TCP connections (line `k` on connection
/// `k % connections`); returns the responses, grouped by connection, and the
/// wall time from the first connect to the last response. `in_flight == 1`
/// is a closed loop on the connection's thread (write, flush, read); above
/// 1 a reader thread takes responses while at most `in_flight` are unanswered.
pub fn replay(
    addr: SocketAddr,
    lines: &[String],
    connections: usize,
    in_flight: usize,
) -> (Vec<String>, Duration) {
    let start = Instant::now();
    let responses = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..connections)
            .map(|c| {
                let assigned: Vec<&String> = lines.iter().skip(c).step_by(connections).collect();
                scope.spawn(move || connection(addr, &assigned, in_flight))
            })
            .collect();
        clients
            .into_iter()
            .flat_map(|client| client.join().expect("client thread panicked"))
            .collect()
    });
    (responses, start.elapsed())
}

/// One connection's share of a [`replay`].
fn connection(addr: SocketAddr, lines: &[&String], in_flight: usize) -> Vec<String> {
    let stream = TcpStream::connect(addr).expect("the service accepts");
    // A request that fits one segment must not wait out the peer's delayed
    // ACK under Nagle's algorithm.
    stream.set_nodelay(true).expect("TCP_NODELAY");
    let mut reader = BufReader::new(stream.try_clone().expect("socket clones"));
    let mut writer = BufWriter::new(stream);
    if in_flight <= 1 {
        return lines
            .iter()
            .map(|line| {
                writeln!(writer, "{line}").expect("request written");
                writer.flush().expect("request flushed");
                read_response(&mut reader)
            })
            .collect();
    }
    // One token per unanswered line: the writer sends a token before each
    // line, the reader takes one back after each response.
    let (slots, freed) = sync_channel::<()>(in_flight);
    std::thread::scope(|scope| {
        let expected = lines.len();
        let responses = scope.spawn(move || {
            (0..expected)
                .map(|_| {
                    let line = read_response(&mut reader);
                    freed.recv().expect("every response follows a sent line");
                    line
                })
                .collect::<Vec<_>>()
        });
        for line in lines {
            if let Err(TrySendError::Full(())) = slots.try_send(()) {
                // The window is full: what is buffered must reach the service
                // before a response can free a slot.
                writer.flush().expect("requests flushed");
                slots.send(()).expect("the reader is alive");
            }
            writeln!(writer, "{line}").expect("request written");
        }
        writer.flush().expect("requests flushed");
        responses.join().expect("reader thread panicked")
    })
}

fn read_response(reader: &mut impl BufRead) -> String {
    let mut line = String::new();
    let n = reader.read_line(&mut line).expect("response read");
    assert!(n > 0, "the service closed the connection");
    line.truncate(line.trim_end().len());
    line
}

/// The request pool of a scenario (`mixed`, `grid`, `project`, `bursty` or
/// `tenant_drift`), ids from 1: a bounded set of serving-sized instances,
/// repeated the way serving traffic repeats them.
pub fn request_pool(scenario: &str, total_requests: usize, seed: u64) -> Vec<Request> {
    let instances = match scenario {
        "grid" => (0..4)
            .map(|k| {
                grid_computing_instance(&GridConfig {
                    num_jobs: 8 + 2 * k,
                    num_machines: 4,
                    num_task_roots: 2,
                    seed: seed ^ k as u64,
                    ..GridConfig::default()
                })
            })
            .collect::<Vec<_>>(),
        "project" => (0..4)
            .map(|k| {
                project_management_instance(&ProjectConfig {
                    num_tasks: 8 + 2 * k,
                    num_workers: 4,
                    num_streams: 2,
                    seed: seed ^ (0x100 + k as u64),
                })
            })
            .collect::<Vec<_>>(),
        "tenant_drift" => {
            // Full payloads prime a few tenants, then ~95% of requests are
            // one-cell `set_prob` deltas: distinct instances (no cache hits)
            // in an unchanged structural class (warm starts).
            let (tenants, stream) = tenant_drift_stream(&drift_config(total_requests, seed));
            return stream
                .iter()
                .enumerate()
                .map(|(k, event)| {
                    let id = k as u64 + 1;
                    match &event.edit {
                        Some(delta) => Request::from_delta(
                            id,
                            tenants[event.tenant].canonical_digest(),
                            delta.clone(),
                        ),
                        None => Request::from_instance(id, &tenants[event.tenant]),
                    }
                })
                .collect();
        }
        "bursty" | "mixed" => {
            let mut config = BurstConfig {
                seed,
                ..BurstConfig::default()
            };
            if scenario == "mixed" {
                // Mixed bursts: more tenants, so the stream interleaves all
                // three structural classes within every few requests.
                config.num_tenants = 9;
                config.jobs = (4, 8);
                config.machines = (2, 4);
            } else {
                // Bursty: the tenant population grows with the pool, so
                // fresh tenants (and their first-burst duplicate solves)
                // keep arriving, sized so a fresh LP solve dominates a hit.
                config.num_tenants = (total_requests / 25).clamp(6, 32);
                config.jobs = (24, 40);
                config.machines = (4, 6);
            }
            let (tenants, stream) = bursty_multi_tenant_stream(&config);
            return (0..total_requests)
                .map(|k| Request::from_instance(k as u64 + 1, &tenants[stream[k % stream.len()]]))
                .collect();
        }
        other => panic!("unknown scenario `{other}`"),
    };
    (0..total_requests)
        .map(|k| Request::from_instance(k as u64 + 1, &instances[k % instances.len()]))
        .collect()
}

/// The drift-stream shape behind the `tenant_drift` pool, shared with
/// [`drift_bases`] so priming and replay agree on the tenant set.
fn drift_config(total_requests: usize, seed: u64) -> DriftConfig {
    DriftConfig {
        num_tenants: (total_requests / 50).clamp(2, 8),
        requests: total_requests,
        seed,
        ..DriftConfig::default()
    }
}

/// The tenant base instances the `tenant_drift` pool of the same
/// `(total_requests, seed)` drifts against, for priming a service's cache
/// before the replay so no delta ever races its parent's first solve.
#[allow(dead_code)] // Each test binary compiles this module; only some prime.
pub fn drift_bases(total_requests: usize, seed: u64) -> Vec<SuuInstance> {
    tenant_drift_stream(&drift_config(total_requests, seed)).0
}
