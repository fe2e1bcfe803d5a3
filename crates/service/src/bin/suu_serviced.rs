//! The scheduling daemon.
//!
//! Usage:
//!
//! ```text
//! suu_serviced --stdin                      # serve NDJSON on stdin/stdout
//! suu_serviced --tcp 127.0.0.1:7077        # serve NDJSON over TCP
//!     [--workers N]                         # connection threads (default 4)
//!     [--solver-threads N]                  # solver pool size
//!     [--queue-capacity N]                  # admission-control bound
//!     [--cache-shards N] [--cache-capacity N]
//! ```
//!
//! With neither `--stdin` nor `--tcp` it serves TCP on 127.0.0.1:7077. An
//! unknown flag, a flag without its value or a value that does not parse is
//! reported with the usage line, and the daemon exits with status 2.
//!
//! Requests execute on a solver pool shared by every connection: responses
//! may return out of order (match them by `id`), identical concurrent
//! solves are coalesced, and a full queue yields structured `busy` errors.
//!
//! Status goes to stderr; stdout carries only protocol responses. At stdin
//! EOF, and every 60 s on TCP, the daemon prints one status line of
//! `path=value` pairs named like the `stats` reply's key paths.

use std::sync::Arc;

use suu_service::{
    spawn_tcp, CacheConfig, PipelineConfig, SchedulerService, ServiceConfig, SolverPool,
    TcpServerConfig,
};

const USAGE: &str = "usage: suu_serviced [--stdin | --tcp ADDR] [--workers N] \
                     [--solver-threads N] [--queue-capacity N] [--cache-shards N] \
                     [--cache-capacity N]";

#[derive(Debug)]
struct Args {
    stdin: bool,
    tcp: Option<String>,
    workers: usize,
    pipeline: PipelineConfig,
    cache: CacheConfig,
}

impl Args {
    /// Parses command-line arguments, program name excluded.
    fn parse<I, S>(args: I) -> Result<Self, String>
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let mut parsed = Self {
            stdin: false,
            tcp: None,
            workers: 4,
            pipeline: PipelineConfig::default(),
            cache: CacheConfig::default(),
        };
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            let flag = arg.as_ref();
            let mut value = || {
                args.next()
                    .map(|value| value.as_ref().to_string())
                    .ok_or_else(|| format!("`{flag}` needs a value"))
            };
            let count = |value: String| {
                value
                    .parse()
                    .map_err(|_| format!("`{flag} {value}`: not a non-negative integer"))
            };
            match flag {
                "--stdin" => parsed.stdin = true,
                "--tcp" => parsed.tcp = Some(value()?),
                "--workers" => parsed.workers = count(value()?)?,
                "--solver-threads" => parsed.pipeline.solver_threads = count(value()?)?,
                "--queue-capacity" => parsed.pipeline.queue_capacity = count(value()?)?,
                "--cache-shards" => parsed.cache.num_shards = count(value()?)?,
                "--cache-capacity" => parsed.cache.capacity_per_shard = count(value()?)?,
                other => return Err(format!("unknown argument `{other}`")),
            }
        }
        if parsed.stdin && parsed.tcp.is_some() {
            return Err("`--stdin` and `--tcp` exclude each other".to_string());
        }
        Ok(parsed)
    }
}

fn main() {
    let args = Args::parse(std::env::args().skip(1)).unwrap_or_else(|err| {
        eprintln!("suu_serviced: {err}\n{USAGE}");
        std::process::exit(2);
    });
    let service = Arc::new(SchedulerService::new(ServiceConfig {
        cache: args.cache,
        ..ServiceConfig::default()
    }));
    eprintln!(
        "suu_serviced: solvers [{}]",
        service.registry().names().join(", ")
    );
    let status_line = || service.metrics().snapshot().status_line();

    if args.stdin {
        eprintln!(
            "suu_serviced: serving NDJSON on stdin/stdout until EOF \
             ({} solver threads, queue {})",
            args.pipeline.solver_threads, args.pipeline.queue_capacity
        );
        let pool = SolverPool::spawn(Arc::clone(&service), &args.pipeline);
        let result =
            service.serve_lines(std::io::stdin().lock(), std::io::stdout(), &pool.handle());
        pool.shutdown();
        if let Err(err) = result {
            eprintln!("suu_serviced: transport error: {err}");
            std::process::exit(1);
        }
        eprintln!("{}", status_line());
        return;
    }

    let addr = args.tcp.unwrap_or_else(|| "127.0.0.1:7077".to_string());
    let handle = match spawn_tcp(
        Arc::clone(&service),
        &TcpServerConfig {
            addr,
            workers: args.workers,
            pipeline: args.pipeline.clone(),
        },
    ) {
        Ok(handle) => handle,
        Err(err) => {
            eprintln!("suu_serviced: bind failed: {err}");
            std::process::exit(1);
        }
    };
    eprintln!(
        "suu_serviced: listening on {} with {} workers, {} solver threads (Ctrl-C to stop)",
        handle.addr(),
        args.workers,
        args.pipeline.solver_threads
    );
    // Serve until killed; the TCP threads own all the work.
    loop {
        std::thread::sleep(std::time::Duration::from_secs(60));
        eprintln!("{}", status_line());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_reads_every_flag() {
        let args = Args::parse(
            "--tcp 127.0.0.1:0 --workers 3 --solver-threads 2 --queue-capacity 16384 \
             --cache-shards 4 --cache-capacity 64"
                .split_whitespace(),
        )
        .unwrap();
        assert!(!args.stdin);
        assert_eq!(args.tcp.as_deref(), Some("127.0.0.1:0"));
        assert_eq!(args.workers, 3);
        assert_eq!(args.pipeline.solver_threads, 2);
        assert_eq!(args.pipeline.queue_capacity, 16_384);
        assert_eq!(args.cache.num_shards, 4);
        assert_eq!(args.cache.capacity_per_shard, 64);

        let stdin = Args::parse(["--stdin"]).unwrap();
        assert!(stdin.stdin && stdin.tcp.is_none());
        let defaults = Args::parse(Vec::<String>::new()).unwrap();
        assert!(!defaults.stdin && defaults.tcp.is_none());
        assert_eq!(defaults.workers, 4);
    }

    #[test]
    fn parse_rejects_unknown_flags_missing_values_and_bad_numbers() {
        for (argv, expected) in [
            (&["--stdn"][..], "unknown argument `--stdn`"),
            (&["--tcp"], "`--tcp` needs a value"),
            (&["--stdin", "--workers"], "`--workers` needs a value"),
            (
                &["--workers", "abc"],
                "`--workers abc`: not a non-negative integer",
            ),
            (
                &["--queue-capacity", "-1"],
                "`--queue-capacity -1`: not a non-negative integer",
            ),
            (
                &["--stdin", "--tcp", "127.0.0.1:0"],
                "`--stdin` and `--tcp` exclude each other",
            ),
        ] {
            assert_eq!(Args::parse(argv).unwrap_err(), expected, "{argv:?}");
        }
    }
}
