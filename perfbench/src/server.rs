//! The server under test: build, launch as a separate process, readiness,
//! the `stats` control connection, peak memory, and shutdown.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStderr, Command, Stdio};

use serde::{Deserialize, Value};
use suu_service::HistogramSnapshot;

/// Connection-serving worker threads of the server (its default).
pub const WORKERS: usize = 4;
/// Solver threads of the server's pipelined pool (one per core here).
pub const SOLVER_THREADS: usize = 2;
/// Admission-control bound of the server's solve queue: about 4 s of
/// `hot_pipelined` traffic. At the server's default of 256, a stall of a few
/// tens of milliseconds on a shared host (both solver threads held by one
/// new tenant's solve and its coalesced duplicate) overflows the queue and
/// turns the stall into `busy` failures; with this bound it shows up as
/// latency instead, which is what the benchmark measures.
pub const QUEUE_CAPACITY: usize = 16_384;

/// Builds `suu_serviced` from the repository workspace into the target
/// directory this benchmark binary was built into, and returns its path.
pub fn build_server() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let profile_dir = exe
        .parent()
        .ok_or("benchmark binary has no parent directory")?;
    let target_dir = profile_dir
        .parent()
        .ok_or("benchmark binary is not inside a cargo target directory")?;
    let repo_root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .ok_or("benchmark crate has no parent directory")?;
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
    let status = Command::new(cargo)
        .current_dir(repo_root)
        .args(["build", "--release", "--offline", "--quiet"])
        .args(["--manifest-path", "Cargo.toml"])
        .args(["-p", "suu-service", "--bin", "suu_serviced"])
        .arg("--target-dir")
        .arg(target_dir)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("running cargo build: {e}"))?;
    if !status.success() {
        return Err(format!("cargo build of suu_serviced failed ({status})"));
    }
    let bin = profile_dir.join("suu_serviced");
    if !bin.is_file() {
        return Err(format!("{} missing after build", bin.display()));
    }
    Ok(bin)
}

/// A running `suu_serviced` child process. Dropping it kills and reaps the
/// process, so no exit path leaves a server behind.
pub struct Server {
    child: Child,
    /// Held open (never read after startup) so the server's periodic
    /// metrics lines on stderr never hit a closed pipe.
    _stderr: BufReader<ChildStderr>,
    pub addr: String,
    /// The control connection: readiness probe and window `stats` scrapes.
    pub control: LineConn,
}

impl Server {
    /// Launches the server on an ephemeral port and returns once it has
    /// answered a `stats` round trip (readiness).
    pub fn launch(bin: &Path) -> Result<Self, String> {
        let mut child = Command::new(bin)
            .args(["--tcp", "127.0.0.1:0"])
            .args(["--workers", &WORKERS.to_string()])
            .args(["--solver-threads", &SOLVER_THREADS.to_string()])
            .args(["--queue-capacity", &QUEUE_CAPACITY.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", bin.display()))?;
        let mut stderr = BufReader::new(child.stderr.take().expect("stderr is piped"));
        let mut addr = None;
        let mut line = String::new();
        while addr.is_none() {
            line.clear();
            match stderr.read_line(&mut line) {
                Ok(0) | Err(_) => break,
                Ok(_) => {
                    addr = line
                        .split("listening on ")
                        .nth(1)
                        .and_then(|rest| rest.split_whitespace().next())
                        .map(str::to_string);
                }
            }
        }
        let Some(addr) = addr else {
            let _ = child.kill();
            let _ = child.wait();
            return Err("suu_serviced exited before listening".to_string());
        };
        let control = match LineConn::connect(&addr) {
            Ok(conn) => conn,
            Err(err) => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(err);
            }
        };
        let mut server = Self {
            child,
            _stderr: stderr,
            addr,
            control,
        };
        server.scrape()?;
        Ok(server)
    }

    /// One `stats` verb over the control connection.
    pub fn scrape(&mut self) -> Result<Stats, String> {
        let reply = self.control.round_trip("{\"id\":0,\"verb\":\"stats\"}")?;
        let value = serde_json::parse(&reply).map_err(|e| format!("stats reply: {e}"))?;
        let stats = value
            .get("stats")
            .cloned()
            .ok_or("stats reply without stats")?;
        Ok(Stats(stats))
    }

    /// Peak resident set of the server process so far, in MiB (`VmHWM`).
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/status", self.child.id());
        let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        let kb: f64 = status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|v| v.parse().ok())
            .ok_or("no VmHWM line in /proc status")?;
        Ok(kb / 1024.0)
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// A blocking NDJSON connection: one line out, one line back.
pub struct LineConn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    buf: Vec<u8>,
}

impl LineConn {
    pub fn connect(addr: &str) -> Result<Self, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream
            .set_nodelay(true)
            .map_err(|e| format!("set_nodelay: {e}"))?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| format!("clone: {e}"))?);
        Ok(Self {
            reader,
            writer: stream,
            buf: Vec::with_capacity(1 << 16),
        })
    }

    /// Writes `line` (newline appended) in one call, without waiting.
    pub fn send(&mut self, line: &str) -> Result<(), String> {
        self.buf.clear();
        self.buf.extend_from_slice(line.as_bytes());
        self.buf.push(b'\n');
        self.writer
            .write_all(&self.buf)
            .map_err(|e| format!("write: {e}"))
    }

    /// Reads one response line (without the terminator).
    pub fn recv(&mut self) -> Result<String, String> {
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) => Err("server closed the connection".to_string()),
            Ok(_) => {
                if line.ends_with('\n') {
                    line.pop();
                }
                Ok(line)
            }
            Err(e) => Err(format!("read: {e}")),
        }
    }

    pub fn round_trip(&mut self, line: &str) -> Result<String, String> {
        self.send(line)?;
        self.recv()
    }
}

/// A scraped `stats` object.
pub struct Stats(Value);

impl Stats {
    fn counter(&self, path: &[&str]) -> u64 {
        let mut v = &self.0;
        for key in path {
            match v.get(key) {
                Some(next) => v = next,
                None => return 0,
            }
        }
        v.as_number().map_or(0, |n| n as u64)
    }

    fn histogram(&self, path: &[&str]) -> HistogramSnapshot {
        let mut v = &self.0;
        for key in path {
            match v.get(key) {
                Some(next) => v = next,
                None => return HistogramSnapshot::new(),
            }
        }
        HistogramSnapshot::from_value(v).unwrap_or_default()
    }
}

/// Server counters whose difference across a measured window is reported,
/// so priming, warm-up and the scrapes outside the window drop out.
const COUNTERS: [(&str, &[&str]); 14] = [
    ("requests", &["requests"]),
    ("errors", &["errors"]),
    ("busy", &["busy_rejections"]),
    ("expired", &["expired_dropped"]),
    ("fresh_solves", &["fresh_solves"]),
    ("warm_hits", &["warm_hits"]),
    ("unknown_base", &["unknown_base"]),
    ("coalesced", &["coalesced"]),
    ("cache_hits", &["cache", "hits"]),
    ("cache_misses", &["cache", "misses"]),
    ("cache_evictions", &["cache", "evictions"]),
    ("revisions", &["sessions", "revisions"]),
    ("revision_warm", &["sessions", "revision_warm_hits"]),
    ("unknown_session", &["sessions", "unknown"]),
];

const HISTOGRAMS: [(&str, &[&str]); 7] = [
    ("queue", &["stages", "queue"]),
    ("parse", &["stages", "parse"]),
    ("solve", &["stages", "solve"]),
    ("render", &["stages", "render"]),
    ("flush", &["stages", "flush"]),
    ("queue_depth", &["queue", "depth_samples"]),
    ("revision", &["sessions", "revision_latency_us"]),
];

/// Accumulated window deltas of the server's counters and histograms.
#[derive(Default)]
pub struct StatsDelta {
    counters: Vec<(&'static str, u64)>,
    histograms: Vec<(&'static str, HistogramSnapshot)>,
}

impl StatsDelta {
    /// Adds the difference `after − before` to the accumulated deltas.
    pub fn add(&mut self, before: &Stats, after: &Stats) {
        for (name, path) in COUNTERS {
            let d = after.counter(path).saturating_sub(before.counter(path));
            match self.counters.iter_mut().find(|(n, _)| *n == name) {
                Some((_, total)) => *total += d,
                None => self.counters.push((name, d)),
            }
        }
        for (name, path) in HISTOGRAMS {
            let (a, b) = (after.histogram(path), before.histogram(path));
            let mut d = HistogramSnapshot::new();
            for (slot, (x, y)) in d.buckets.iter_mut().zip(a.buckets.iter().zip(&b.buckets)) {
                *slot = x.saturating_sub(*y);
            }
            d.sum = a.sum.saturating_sub(b.sum);
            match self.histograms.iter_mut().find(|(n, _)| *n == name) {
                Some((_, total)) => total.merge(&d),
                None => self.histograms.push((name, d)),
            }
        }
    }

    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0, |(_, v)| *v)
    }

    pub fn histogram(&self, name: &str) -> HistogramSnapshot {
        self.histograms
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, h)| h.clone())
            .unwrap_or_default()
    }
}
