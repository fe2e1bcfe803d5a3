//! `perfbench`: the repository benchmark for `suu_serviced`.
//!
//! ```text
//! perfbench --workload cold_solve|drift_warm|hot_pipelined|sessions \
//!           --seed N --seconds S --trace 0|1
//! ```
//!
//! Builds `suu_serviced`, launches it as a separate process, drives one
//! seeded workload against it from this process, checks every response,
//! and prints each metric by name and unit. `--trace 0` reports the
//! end-to-end metrics (tracing off); `--trace 1` runs an untraced and a
//! traced window back to back, replays the workload's inputs through the
//! layers in process, and reports the per-layer metrics. The last stdout
//! line is the JSON result. `README.md` lists every metric.

mod check;
mod drive;
mod inputs;
mod replay;
mod server;

use std::path::Path;
use std::time::{Duration, Instant};

use serde::Value;
use suu_lp::Engine;
use suu_service::open_session_line;

use drive::{Phase, CONNECTIONS, WARMUP};
use inputs::{
    ClosedSource, ColdInputs, DriftInputs, HotInputs, SessionInputs, Workload, HOT_RATE_RPS,
};
use replay::{donor_basis, Replay};
use server::{Server, QUEUE_CAPACITY, SOLVER_THREADS, WORKERS};

/// Server launches per end-to-end run; `setup_s` is their median. Launches
/// stop early, after at least `SETUP_MIN_REPEATS`, once they have taken
/// `SETUP_BUDGET`, so the long priming of `drift_warm` keeps its run short.
const SETUP_REPEATS: usize = 15;
const SETUP_MIN_REPEATS: usize = 3;
const SETUP_BUDGET: Duration = Duration::from_secs(5);
/// Fresh solves replayed in process per traced run.
const REPLAY_SAMPLES: usize = 40;
/// Stream prefix replayed through in-process `handle_line` on
/// `hot_pipelined` (mostly cache hits, like the stream itself).
const HOT_HANDLE_LINES: usize = 2000;
/// Sessions replayed through in-process `handle_line`.
const SESSION_HANDLE_SAMPLES: usize = 8;
/// Generous bound on sessions completed per second, sizing the inputs.
const SESSIONS_PER_SEC_CAP: f64 = 1500.0;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1, 10, false);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or_else(|| {
                            format!(
                                "unknown workload `{value}`; expected cold_solve, drift_warm, \
                                 hot_pipelined or sessions"
                            )
                        })?,
                );
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad --seed `{value}`"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|&s: &u64| (1..=600).contains(&s))
                    .ok_or_else(|| format!("bad --seconds `{value}`"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace `{value}`; expected 0 or 1")),
                };
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

enum Inputs {
    Cold(ColdInputs),
    Drift(DriftInputs),
    Hot(HotInputs),
    Sessions(SessionInputs),
}

impl Inputs {
    /// Generates the workload's inputs for a run of `run` (warm-up and all
    /// windows) before any server is launched.
    fn new(workload: Workload, seed: u64, run: Duration) -> Self {
        let secs = run.as_secs_f64() + 1.0;
        match workload {
            Workload::ColdSolve => Inputs::Cold(ColdInputs { seed }),
            Workload::DriftWarm => Inputs::Drift(DriftInputs::new(seed)),
            Workload::HotPipelined => {
                Inputs::Hot(HotInputs::new(seed, (secs * HOT_RATE_RPS) as usize))
            }
            Workload::Sessions => Inputs::Sessions(SessionInputs::new(
                seed,
                (secs * SESSIONS_PER_SEC_CAP) as usize,
            )),
        }
    }

    /// Requests every server launch must have answered before the measured
    /// traffic starts (part of `setup_s`).
    fn priming(&self) -> Vec<String> {
        match self {
            Inputs::Drift(d) => d.priming_lines(),
            _ => Vec::new(),
        }
    }
}

fn main() {
    if let Err(e) = run() {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}

/// One printed metric: name, value, unit and a note (sample counts).
type Row = (&'static str, f64, &'static str, String);

fn run() -> Result<(), String> {
    let args = parse_args()?;
    let bin = server::build_server()?;
    // A traced run splits its seconds between the untraced and the traced
    // window.
    let phases = if args.trace { 2 } else { 1 };
    let window = Duration::from_secs(args.seconds) / phases as u32;
    let inputs = Inputs::new(args.workload, args.seed, WARMUP + window * phases as u32);

    let mut setup = Vec::new();
    let mut server: Option<Server> = None;
    let launches = if args.trace { 1 } else { SETUP_REPEATS };
    let setup_started = Instant::now();
    while setup.len() < launches
        && (setup.len() < SETUP_MIN_REPEATS || setup_started.elapsed() < SETUP_BUDGET)
    {
        drop(server.take());
        let started = Instant::now();
        let mut launched = Server::launch(&bin)?;
        drive::prime(&mut launched, &inputs.priming())?;
        setup.push(started.elapsed().as_secs_f64());
        server = Some(launched);
    }
    let mut server = server.expect("launched at least once");
    let out = match &inputs {
        Inputs::Cold(c) => drive::closed_loop(&mut server, c, args.seed, window, phases)?,
        Inputs::Drift(d) => drive::closed_loop(&mut server, d, args.seed, window, phases)?,
        Inputs::Hot(h) => drive::open_loop(&mut server, h, args.seed, window, phases)?,
        Inputs::Sessions(s) => drive::sessions(&mut server, s, window, phases)?,
    };
    let rss_mb = server.peak_rss_mb()?;
    drop(server);

    println!(
        "perfbench: workload={} seed={} seconds={} trace={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("perfbench: meta {}", metadata(&args).render());
    let attempted: u64 = out.iter().map(|p| p.attempted).sum();
    let failed: u64 = out.iter().map(|p| p.failed).sum();
    for why in out.iter().flat_map(|p| &p.failures) {
        println!("perfbench: FAILED {why}");
    }
    let rows = if args.trace {
        per_layer(&inputs, &out)
    } else {
        end_to_end(&out[0], &setup, rss_mb)
    };
    for (name, value, unit, note) in &rows {
        println!("{name:<28} {value:>16.6} {unit:<6} {note}");
    }
    let metrics = rows
        .iter()
        .map(|(name, value, unit, _)| {
            let metric = Value::Object(vec![
                ("value".to_string(), Value::Number(*value)),
                ("unit".to_string(), Value::String((*unit).to_string())),
            ]);
            ((*name).to_string(), metric)
        })
        .collect();
    let result = Value::Object(vec![
        (
            "correct".to_string(),
            Value::Bool(failed == 0 && attempted > 0),
        ),
        ("attempted".to_string(), Value::Number(attempted as f64)),
        ("failed".to_string(), Value::Number(failed as f64)),
        ("metrics".to_string(), Value::Object(metrics)),
    ]);
    println!("{}", result.render());
    Ok(())
}

/// Nearest-rank quantile of sorted samples, with the number of samples
/// strictly beyond its rank.
fn quantile(sorted: &[f64], q: f64) -> (f64, usize) {
    if sorted.is_empty() {
        return (0.0, 0);
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    (sorted[rank - 1], sorted.len() - rank)
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

/// Timings are read over sub-windows at this quartile on their good side (the
/// upper quartile of rates, the lower quartile of latencies): a stretch of
/// stalls from other tenants of a shared host has to cover three quarters of
/// a run to move it, while a change that slows every request moves it fully.
const GOOD_SIDE: f64 = 0.25;

/// Upper quartile of the window's per-sub-window success rates.
fn successful_rps(p: &Phase) -> f64 {
    let rates: Vec<f64> = p.sub_windows().iter().map(|s| s.0).collect();
    quantile(&sorted(&rates), 1.0 - GOOD_SIDE).0
}

/// Lower quartile over the sub-windows of each sub-window's `q`-quantile,
/// with the fewest samples any sub-window had beyond its quantile.
fn sub_window_quantile(p: &Phase, q: f64) -> (f64, usize) {
    let per_window: Vec<(f64, usize)> = p
        .sub_windows()
        .iter()
        .filter(|s| !s.1.is_empty())
        .map(|s| quantile(&sorted(&s.1), q))
        .collect();
    let values: Vec<f64> = per_window.iter().map(|v| v.0).collect();
    let fewest_beyond = per_window.iter().map(|v| v.1).min().unwrap_or(0);
    (quantile(&sorted(&values), GOOD_SIDE).0, fewest_beyond)
}

fn end_to_end(p: &Phase, setup: &[f64], rss_mb: f64) -> Vec<Row> {
    let n = p.events.len();
    let subs = p.sub_windows().len();
    let (p50, _) = sub_window_quantile(p, 0.50);
    let (p99, beyond) = sub_window_quantile(p, 0.99);
    let (setup_median, _) = quantile(&sorted(setup), 0.5);
    println!(
        "{:<28} {:>16.6} {:<6} {} failed / {} attempted (failures, busy, expired, \
         unknown_base/session and failed checks); reported in `failed`, not as a metric",
        "error_rate",
        ratio(p.failed, p.attempted),
        "ratio",
        p.failed,
        p.attempted
    );
    vec![
        (
            "throughput_rps",
            successful_rps(p),
            "1/s",
            format!(
                "upper quartile over {subs} sub-windows; {} ok in {:.3} s",
                p.attempted - p.failed,
                p.window.as_secs_f64()
            ),
        ),
        (
            "latency_p50_ms",
            p50 / 1e3,
            "ms",
            format!("lower quartile over {subs} sub-windows; n={n} samples"),
        ),
        (
            "latency_p99_ms",
            p99 / 1e3,
            "ms",
            format!(
                "lower quartile over {subs} sub-windows, >= {beyond} beyond p99 in each; \
                 n={n}; whole-window p99 {:.4} ms",
                quantile(&sorted(&p.latencies_us()), 0.99).0 / 1e3
            ),
        ),
        (
            "setup_s",
            setup_median,
            "s",
            format!("median of {} launches to ready and primed", setup.len()),
        ),
        (
            "server_rss_mb",
            rss_mb,
            "MB",
            "server peak resident set (VmHWM)".to_string(),
        ),
        (
            "schedule_len_mean",
            p.len_sum / p.len_n.max(1) as f64,
            "steps",
            format!("n={} schedules", p.len_n),
        ),
        (
            "realized_makespan_mean",
            p.realized_sum / p.realized_n.max(1) as f64,
            "steps",
            format!("n={} executions", p.realized_n),
        ),
    ]
}

/// Replays the traced window's own inputs through the layers in process.
fn replay(inputs: &Inputs, traced: &Phase) -> Replay {
    let mut r = Replay::default();
    let mut rows = traced.traces.clone();
    rows.sort_by_key(|row| row.k);
    match inputs {
        Inputs::Cold(c) => {
            let mut lines = Vec::new();
            for row in rows.iter().take(REPLAY_SAMPLES) {
                let (line, instance) = c.request(row.k, false);
                r.solve_path(
                    &instance,
                    &line,
                    Engine::Auto,
                    row.miss.then_some(row.solve_us),
                );
                lines.push(line);
            }
            r.handle_lines(&[], &lines);
        }
        Inputs::Drift(d) => {
            let donors: Vec<_> = d.tenants.iter().map(donor_basis).collect();
            let mut lines = Vec::new();
            for row in rows.iter().take(REPLAY_SAMPLES) {
                if let (tenant, Some(delta)) = d.event(row.k) {
                    if let Some(donor) = &donors[tenant] {
                        let server_us = row.miss.then_some(row.solve_us);
                        r.delta_path(&d.tenants[tenant], donor, &delta, server_us);
                    }
                }
                lines.push(d.request(row.k, false).0);
            }
            r.handle_lines(&d.priming_lines(), &lines);
        }
        Inputs::Hot(h) => {
            for row in rows.iter().filter(|row| row.miss).take(REPLAY_SAMPLES) {
                let instance = &h.tenants[h.stream[row.k] as usize];
                r.solve_path(
                    instance,
                    &h.line(row.k, false),
                    Engine::Auto,
                    Some(row.solve_us),
                );
            }
            let lines: Vec<String> = (0..HOT_HANDLE_LINES).map(|k| h.line(k, false)).collect();
            r.handle_lines(&[], &lines);
        }
        Inputs::Sessions(s) => {
            for sc in s.scenarios.iter().take(REPLAY_SAMPLES) {
                let line = open_session_line(1, &sc.instance);
                r.solve_path(&sc.instance, &line, Engine::Revised, None);
            }
            let sessions: Vec<_> = (0..SESSION_HANDLE_SAMPLES)
                .map(|k| (s.scenarios[k].instance.clone(), s.drive_config(k)))
                .collect();
            r.handle_sessions(&sessions);
        }
    }
    r
}

fn per_layer(inputs: &Inputs, out: &[Phase]) -> Vec<Row> {
    let (untraced, traced) = (&out[0], &out[1]);
    let r = replay(inputs, traced);
    let s = &traced.stats;
    let replayed = |name: &'static str| {
        let (v, n) = r.mean(name);
        (v, format!("replay n={n}"))
    };
    let window = |v: f64| (v, "server stats, traced window".to_string());
    let hist = |name: &str| s.histogram(name);

    let residuals: Vec<f64> = traced
        .traces
        .iter()
        .map(|t| t.latency_us - (t.queue_us + t.solve_us + t.render_us) as f64)
        .collect();
    let residual = if residuals.is_empty() {
        // Session verbs carry no trace object: client p50 minus the
        // server's revision p50.
        let (client, _) = quantile(&sorted(&traced.latencies_us()), 0.5);
        (
            client - hist("revision").p50() as f64,
            "client p50 - server revision p50".to_string(),
        )
    } else {
        (
            quantile(&sorted(&residuals), 0.5).0,
            format!("n={} traced responses", residuals.len()),
        )
    };
    let (lag, _) = quantile(&sorted(&traced.lag_us), 0.99);
    let (diff, server_total, attributed_n) = r.unattributed;
    let rows: Vec<(&'static str, &'static str, (f64, String))> = vec![
        ("lp.build_us", "us", replayed("lp.build_us")),
        ("lp.solve_us", "us", replayed("lp.solve_us")),
        ("lp.phase1_pivots", "count", replayed("lp.phase1_pivots")),
        ("lp.phase2_pivots", "count", replayed("lp.phase2_pivots")),
        ("lp.us_per_pivot", "us", {
            let (v, n) = r.us_per_pivot();
            (v, format!("replay n={n} solves"))
        }),
        ("lp.rows", "count", replayed("lp.rows")),
        ("lp.nnz", "count", replayed("lp.nnz")),
        ("lp.dense_share", "ratio", {
            let (v, n) = r.dense_share();
            (v, format!("replay n={n} solves"))
        }),
        ("lp.warm_solve_us", "us", replayed("lp.warm_solve_us")),
        ("lp.warm_pivots", "count", replayed("lp.warm_pivots")),
        (
            "cache.warm_hit_ratio",
            "ratio",
            window(ratio(s.counter("warm_hits"), s.counter("fresh_solves"))),
        ),
        ("algorithms.round_us", "us", replayed("algorithms.round_us")),
        (
            "algorithms.pseudo_us",
            "us",
            replayed("algorithms.pseudo_us"),
        ),
        ("algorithms.delay_us", "us", replayed("algorithms.delay_us")),
        (
            "algorithms.replicate_us",
            "us",
            replayed("algorithms.replicate_us"),
        ),
        ("algorithms.msm_us", "us", replayed("algorithms.msm_us")),
        (
            "algorithms.forest_us",
            "us",
            replayed("algorithms.forest_us"),
        ),
        (
            "algorithms.chains_us",
            "us",
            replayed("algorithms.chains_us"),
        ),
        (
            "graph.chain_partition_us",
            "us",
            replayed("graph.chain_partition_us"),
        ),
        ("graph.decompose_us", "us", replayed("graph.decompose_us")),
        ("core.digest_us", "us", replayed("core.digest_us")),
        ("core.apply_delta_us", "us", replayed("core.apply_delta_us")),
        ("core.validate_us", "us", replayed("core.validate_us")),
        ("protocol.parse_us", "us", replayed("protocol.parse_us")),
        ("protocol.render_us", "us", replayed("protocol.render_us")),
        (
            "protocol.response_bytes",
            "bytes",
            (
                ratio(traced.response_bytes, traced.attempted),
                format!("client, n={} responses", traced.attempted),
            ),
        ),
        ("service.handle_us", "us", replayed("service.handle_us")),
        (
            "pipeline.queue_us_p50",
            "us",
            window(hist("queue").p50() as f64),
        ),
        (
            "pipeline.queue_us_p99",
            "us",
            window(hist("queue").p99() as f64),
        ),
        ("pipeline.parse_us", "us", window(hist("parse").mean())),
        (
            "pipeline.solve_us_p50",
            "us",
            window(hist("solve").p50() as f64),
        ),
        (
            "pipeline.solve_us_p99",
            "us",
            window(hist("solve").p99() as f64),
        ),
        ("pipeline.render_us", "us", window(hist("render").mean())),
        ("pipeline.flush_us", "us", window(hist("flush").mean())),
        (
            "pipeline.queue_depth_p99",
            "count",
            window(hist("queue_depth").p99() as f64),
        ),
        ("admission.busy", "count", window(s.counter("busy") as f64)),
        (
            "cache.hit_ratio",
            "ratio",
            window(ratio(
                s.counter("cache_hits"),
                s.counter("cache_hits") + s.counter("cache_misses"),
            )),
        ),
        (
            "cache.fresh_solves",
            "count",
            window(s.counter("fresh_solves") as f64),
        ),
        (
            "cache.evictions",
            "count",
            window(s.counter("cache_evictions") as f64),
        ),
        (
            "flight.coalesced",
            "count",
            window(s.counter("coalesced") as f64),
        ),
        (
            "session.revision_us_p50",
            "us",
            window(hist("revision").p50() as f64),
        ),
        (
            "session.revision_us_p99",
            "us",
            window(hist("revision").p99() as f64),
        ),
        (
            "session.revision_warm_ratio",
            "ratio",
            window(ratio(s.counter("revision_warm"), s.counter("revisions"))),
        ),
        ("transport.residual_us_p50", "us", residual),
        (
            "client.lag_p99_ms",
            "ms",
            (
                lag / 1e3,
                format!("n={} open-loop sends", traced.lag_us.len()),
            ),
        ),
        (
            "tracing.overhead",
            "ratio",
            (
                1.0 - successful_rps(traced) / successful_rps(untraced),
                format!(
                    "{:.1} req/s traced vs {:.1} untraced",
                    successful_rps(traced),
                    successful_rps(untraced)
                ),
            ),
        ),
        (
            "solve.unattributed_us",
            "us",
            (
                diff / attributed_n.max(1) as f64,
                format!("server solve stage minus replayed stages, n={attributed_n}"),
            ),
        ),
        (
            "solve.unattributed_share",
            "ratio",
            (
                if server_total > 0.0 {
                    diff / server_total
                } else {
                    0.0
                },
                format!("of {:.0} us server solve time", server_total),
            ),
        ),
    ];
    rows.into_iter()
        .map(|(name, unit, (value, note))| (name, value, unit, note))
        .collect()
}

/// Run metadata printed with every result.
fn metadata(args: &Args) -> Value {
    let repo_root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("benchmark crate has a parent directory");
    let git_rev = repo_root
        .join(".git")
        .exists()
        .then(|| {
            std::process::Command::new("git")
                .current_dir(repo_root)
                .args(["rev-parse", "HEAD"])
                .output()
                .ok()
                .filter(|o| o.status.success())
                .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        })
        .flatten()
        .unwrap_or_else(|| "unknown (not a git checkout)".to_string());
    let cores = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    let number = |v: f64| Value::Number(v);
    let text = |s: &str| Value::String(s.to_string());
    Value::Object(vec![
        ("git_rev".to_string(), text(&git_rev)),
        ("available_parallelism".to_string(), number(cores as f64)),
        (
            "server_solver_threads".to_string(),
            number(SOLVER_THREADS as f64),
        ),
        ("server_workers".to_string(), number(WORKERS as f64)),
        (
            "server_queue_capacity".to_string(),
            number(QUEUE_CAPACITY as f64),
        ),
        ("client_threads".to_string(), number(CONNECTIONS as f64)),
        ("client_connections".to_string(), number(CONNECTIONS as f64)),
        ("client_separate_process".to_string(), Value::Bool(true)),
        ("seed".to_string(), text(&args.seed.to_string())),
        (
            "build_profile".to_string(),
            text(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
        (
            "hot_pipelined_offered_rps".to_string(),
            number(HOT_RATE_RPS),
        ),
        ("load".to_string(), text(&args.workload.mode())),
        ("warmup_s".to_string(), number(WARMUP.as_secs_f64())),
    ])
}
