//! Load-generator client for `suu_serviced`.
//!
//! Usage:
//!
//! ```text
//! loadgen --addr 127.0.0.1:7077            # target a running service
//!     [--scenario mixed|grid|project|bursty|deadline]
//!     [--requests N] [--connections N] [--rps R] [--seed S]
//!     [--max-in-flight N]                   # >1 = open-loop pipelining
//!     [--deadline-ms N]                     # per-request time budget
//!     [--detail full|no_schedule|estimate_only]
//!     [--trace]                             # per-response stage traces +
//!                                           # end-of-run stats scrape
//!     [--session]                           # drive adaptive sessions
//!                                           # instead of a request pool
//!     [--assert-floor R]                    # exit 1 below R req/s
//! loadgen --in-process ...                  # spawn a service internally
//! ```
//!
//! `--max-in-flight 1` (the default) is the classic closed loop; larger
//! values keep that many requests outstanding per connection and match the
//! (possibly out-of-order) responses by id. `--deadline-ms` attaches a
//! `time_budget_ms` option to every request (expired requests are reported
//! in the `expired` count), `--detail` a response projection. The
//! `deadline` scenario replays bursts of LP-heavy tenants — combine it with
//! a tight `--deadline-ms` to exercise deadline-aware admission. `--trace`
//! opts every request into the per-response `trace` object and appends the
//! client- and server-side per-stage attribution tables (plus a greppable
//! `stats_consistency=` verdict from the end-of-run `stats` scrape) to the
//! report. `--assert-floor` makes the run a CI gate: it fails when achieved
//! throughput drops below the floor.
//!
//! `--session` switches to session mode: `--requests N` becomes the number
//! of closed-loop adaptive sessions (flash-crowd scenario: structurally
//! identical instances, scripted machine failure) driven over
//! `--connections` concurrent connections, and the report gains revision
//! latency and realized-makespan aggregates.
//!
//! Prints the latency/throughput report; with `--in-process` also prints the
//! service-side metrics snapshot.

use std::sync::Arc;

use suu_service::{
    run_loadgen, spawn_tcp, Detail, LoadgenConfig, SchedulerService, ServiceConfig, TcpServerConfig,
};

fn main() {
    let argv: Vec<String> = std::env::args().collect();
    let flag_value = |flag: &str| {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1).cloned())
    };

    let mut config = LoadgenConfig::default();
    if let Some(addr) = flag_value("--addr") {
        config.addr = addr;
    }
    if let Some(scenario) = flag_value("--scenario") {
        config.scenario = scenario;
    }
    if let Some(requests) = flag_value("--requests").and_then(|v| v.parse().ok()) {
        config.total_requests = requests;
    }
    if let Some(connections) = flag_value("--connections").and_then(|v| v.parse().ok()) {
        config.connections = connections;
    }
    if let Some(rps) = flag_value("--rps").and_then(|v| v.parse().ok()) {
        config.target_rps = Some(rps);
    }
    if let Some(seed) = flag_value("--seed").and_then(|v| v.parse().ok()) {
        config.seed = seed;
    }
    if let Some(max_in_flight) = flag_value("--max-in-flight").and_then(|v| v.parse().ok()) {
        config.max_in_flight = max_in_flight;
    }
    if let Some(deadline_ms) = flag_value("--deadline-ms").and_then(|v| v.parse().ok()) {
        config.deadline_ms = Some(deadline_ms);
    }
    if let Some(detail) = flag_value("--detail") {
        config.detail = Some(match detail.as_str() {
            "full" => Detail::Full,
            "no_schedule" => Detail::NoSchedule,
            "estimate_only" => Detail::EstimateOnly,
            other => {
                eprintln!("loadgen: unknown --detail `{other}`");
                std::process::exit(2);
            }
        });
    }
    config.trace = argv.iter().any(|a| a == "--trace");
    config.session = argv.iter().any(|a| a == "--session");
    let assert_floor: Option<f64> = flag_value("--assert-floor").and_then(|v| v.parse().ok());

    let in_process = argv.iter().any(|a| a == "--in-process");
    let handle = if in_process {
        let service = Arc::new(SchedulerService::new(ServiceConfig::default()));
        let handle = spawn_tcp(
            service,
            &TcpServerConfig {
                workers: config.connections.max(4),
                ..TcpServerConfig::default()
            },
        )
        .expect("ephemeral bind succeeds");
        config.addr = handle.addr().to_string();
        eprintln!("loadgen: spawned in-process service on {}", config.addr);
        Some(handle)
    } else {
        None
    };

    match run_loadgen(&config) {
        Ok(report) => {
            println!("{}", report.render());
            if let Some(handle) = handle {
                eprintln!("{}", handle.service().metrics().snapshot().render());
                handle.shutdown();
            }
            if let Some(floor) = assert_floor {
                if report.achieved_rps < floor {
                    eprintln!(
                        "loadgen: achieved {:.1} req/s is below the {floor:.1} req/s floor",
                        report.achieved_rps
                    );
                    std::process::exit(1);
                }
                eprintln!(
                    "loadgen: floor ok ({:.1} >= {floor:.1} req/s)",
                    report.achieved_rps
                );
            }
        }
        Err(err) => {
            eprintln!("loadgen: {err}");
            std::process::exit(1);
        }
    }
}
