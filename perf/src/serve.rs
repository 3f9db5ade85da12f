//! The `zbp-serve` daemon as a client sees it: boot it, send `/run`
//! requests over loopback, time the NDJSON events as they arrive, and
//! check every response.

use crate::common::{self, Report, WORKERS};
use crate::host::Watch;
use crate::loadgen::{self, Outcome};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};
use zbp_support::json::Json;
use zbp_support::rng::SmallRng;

/// How long the daemon may take to accept its first connection.
const BOOT_TIMEOUT: Duration = Duration::from_secs(60);

/// A running daemon, killed and reaped when dropped.
pub struct Daemon {
    child: Child,
    pub addr: SocketAddr,
}

impl Daemon {
    /// Starts the daemon on a free loopback port over the given cell
    /// cache and trace store, with a pool of two cell workers, and waits
    /// until it answers.
    pub fn boot(bin: &Path, cache: &Path, store: &Path) -> Result<Self, String> {
        let port = TcpListener::bind("127.0.0.1:0")
            .and_then(|l| l.local_addr())
            .map_err(|e| format!("no free loopback port: {e}"))?
            .port();
        let addr = SocketAddr::from(([127, 0, 0, 1], port));
        let mut cmd = Command::new(bin);
        cmd.arg("--addr")
            .arg(addr.to_string())
            .args(["--pool", &WORKERS.to_string(), "--workers", &WORKERS.to_string()])
            .arg("--cache-dir")
            .arg(cache)
            .arg("--trace-store")
            .arg(store)
            .stdin(Stdio::null())
            .stdout(Stdio::null());
        // The daemon reads ZBP_* settings first; it gets only the flags.
        for (k, _) in std::env::vars_os() {
            if k.to_string_lossy().starts_with("ZBP_") {
                cmd.env_remove(k);
            }
        }
        let child = cmd.spawn().map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let mut daemon = Self { child, addr };
        let t0 = Instant::now();
        // Ready once a connection is accepted and answered: retry the
        // connect until then.
        loop {
            match get(addr, "/") {
                Ok((200, _)) => return Ok(daemon),
                Ok((status, _)) => return Err(format!("daemon answered GET / with {status}")),
                Err(e) => {
                    if let Ok(Some(exit)) = daemon.child.try_wait() {
                        return Err(format!("daemon exited during boot: {exit}"));
                    }
                    if t0.elapsed() > BOOT_TIMEOUT {
                        return Err(format!("daemon not ready after {BOOT_TIMEOUT:?}: {e}"));
                    }
                    std::thread::yield_now();
                }
            }
        }
    }

    /// Peak resident memory of the daemon process, in MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        common::peak_rss_mb(&self.child.id().to_string())
    }

    /// The daemon's `/metrics` document.
    pub fn metrics(&self) -> Result<Json, String> {
        let (status, body) = get(self.addr, "/metrics").map_err(|e| e.to_string())?;
        if status != 200 {
            return Err(format!("GET /metrics answered {status}"));
        }
        Json::parse(&String::from_utf8_lossy(&body)).map_err(|e| e.to_string())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// One `GET`; returns the status and body.
pub fn get(addr: SocketAddr, path: &str) -> std::io::Result<(u16, Vec<u8>)> {
    let mut s = TcpStream::connect(addr)?;
    write!(s, "GET {path} HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n")?;
    let mut r = BufReader::new(s);
    let status = read_head(&mut r)?;
    let mut body = Vec::new();
    r.read_to_end(&mut body)?;
    Ok((status, body))
}

fn read_head(r: &mut impl BufRead) -> std::io::Result<u16> {
    let mut line = String::new();
    r.read_line(&mut line)?;
    let status = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| std::io::Error::other(format!("bad status line {line:?}")))?;
    loop {
        line.clear();
        if r.read_line(&mut line)? == 0 || line == "\r\n" {
            return Ok(status);
        }
    }
}

/// A `/run` response with the client-side arrival time of its events,
/// measured from when the request started.
#[derive(Debug)]
pub struct Reply {
    pub status: u16,
    /// Request fully written.
    pub written: Duration,
    /// `plan` event read.
    pub plan: Option<Duration>,
    /// `result` event read.
    pub result: Option<Duration>,
    /// Host steal over the request, shared out over the vCPUs.
    pub stolen: Duration,
    /// The NDJSON body, checked once the timed phase is over.
    pub body: Vec<u8>,
}

/// Body of a `/run` request.
pub fn run_body(experiment: &str, len: u64, seed: u64) -> String {
    format!("{{\"experiment\":\"{experiment}\",\"len\":{len},\"seed\":{seed}}}")
}

/// Sends one `/run` request and reads its event stream to the end.
pub fn post_run(addr: SocketAddr, body: &str) -> Result<Reply, String> {
    let watch = Watch::start();
    let t0 = Instant::now();
    let io = |e: std::io::Error| format!("/run {body}: {e}");
    let mut s = TcpStream::connect(addr).map_err(io)?;
    s.set_nodelay(true).map_err(io)?;
    write!(
        s,
        "POST /run HTTP/1.1\r\nHost: localhost\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
    .map_err(io)?;
    let written = t0.elapsed();
    let mut r = BufReader::new(s);
    let status = read_head(&mut r).map_err(io)?;
    let mut reply = Reply {
        status,
        written,
        plan: None,
        result: None,
        stolen: Duration::ZERO,
        body: Vec::new(),
    };
    loop {
        let start = reply.body.len();
        if r.read_until(b'\n', &mut reply.body).map_err(io)? == 0 {
            reply.stolen = watch.stolen();
            return Ok(reply);
        }
        let line = &reply.body[start..];
        if line.starts_with(b"{\"event\":\"plan\"") {
            reply.plan = Some(t0.elapsed());
        } else if line.starts_with(b"{\"event\":\"result\"") {
            reply.result = Some(t0.elapsed());
        }
    }
}

/// What a checked reply served.
#[derive(Debug, Clone, Copy, Default)]
pub struct Served {
    pub cells: u64,
    pub cache_hits: u64,
}

/// Checks a reply's events: a `plan`, one `done` per planned cell with
/// the expected provenance (`cache-hit` when `hot`), no `error`, and a
/// `result` whose artifact has digest `expected` (any digest when
/// `None`).
pub fn check_reply(reply: &Reply, hot: bool, expected: Option<&str>) -> Result<Served, String> {
    if reply.status != 200 {
        return Err(format!("status {}", reply.status));
    }
    let text = std::str::from_utf8(&reply.body).map_err(|e| e.to_string())?;
    let mut served = Served::default();
    let mut planned = None;
    let mut digest = None;
    for line in text.lines() {
        let event = Json::parse(line).map_err(|e| format!("bad event line: {e}"))?;
        match event.get("event") {
            Some(Json::Str(kind)) if kind == "plan" => {
                planned = event.get("cells").and_then(num);
            }
            Some(Json::Str(kind)) if kind == "done" => {
                served.cells += 1;
                match event.get("provenance") {
                    Some(Json::Str(p)) if p == "cache-hit" => served.cache_hits += 1,
                    Some(Json::Str(_)) if !hot => {}
                    other => return Err(format!("a hot cell came back as {other:?}")),
                }
            }
            Some(Json::Str(kind)) if kind == "result" => {
                let artifact = event.get("artifact").ok_or("result without artifact")?;
                digest = Some(common::artifact_digest(artifact));
            }
            Some(Json::Str(kind)) if kind == "error" => return Err(format!("error event: {line}")),
            _ => {}
        }
    }
    let digest = digest.ok_or("no result event")?;
    if planned != Some(served.cells) {
        return Err(format!("planned {planned:?} cells, {} done", served.cells));
    }
    if let Some(want) = expected {
        if digest != want {
            return Err(format!("artifact digest {digest}, the in-process run gives {want}"));
        }
    }
    Ok(served)
}

fn num(j: &Json) -> Option<u64> {
    match j {
        Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
        _ => None,
    }
}

/// The daemon's counter `name` from a `/metrics` document.
pub fn counter(metrics: &Json, name: &str) -> Result<u64, String> {
    metrics.get(name).and_then(num).ok_or(format!("/metrics has no counter {name}"))
}

/// Experiments drawn for `n` requests, uniformly from `mix` by seed.
pub fn draw(seed: u64, mix: &[&'static str], n: usize) -> Vec<&'static str> {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x5e4e_d1a1);
    (0..n).map(|_| mix[rng.random_range(0..mix.len())]).collect()
}

/// Figures from one open-loop phase against a daemon.
#[derive(Debug, Default)]
pub struct OpenLoop {
    pub requests: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    /// Due time → the end of the response, its `result` event, ms, less
    /// the host steal while the request was out.
    pub latency_ms: Vec<f64>,
    /// Request written → `plan` event, ms.
    pub to_plan_ms: Vec<f64>,
    /// `plan` → `result`, ms.
    pub plan_to_result_ms: Vec<f64>,
    pub lateness_ms: Vec<f64>,
    pub bytes: u64,
    pub served: Served,
}

impl OpenLoop {
    /// Counts the requests as operations, failed where a check failed.
    pub fn count(&self, report: &mut Report) {
        report.check(self.requests - self.failed, None);
        for p in &self.problems {
            report.check(1, Some(p.clone()));
        }
    }
}

/// Mean gap between open-loop arrivals: the daemon's work per request
/// is about 10 ms, so two connections stay far from saturation even
/// when the host runs slow, and the queue does not grow.
pub const MEAN_GAP: Duration = Duration::from_millis(60);

/// The requests of one open-loop slice: due times on an exponential
/// schedule with mean gap [`MEAN_GAP`] up to `window`, the experiment
/// drawn from `mix` for each, and its `/run` body at `len` and `seed`.
/// The schedule and the draws follow from `seed` and `slice`, so each
/// slice of a run gets its own; every body carries the workload `seed`.
pub fn open_plan(
    mix: &[&'static str],
    len: u64,
    seed: u64,
    slice: u64,
    window: Duration,
) -> (Vec<Duration>, Vec<&'static str>, Vec<String>) {
    let schedule_seed = seed ^ slice.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    let due = loadgen::poisson_schedule(schedule_seed, MEAN_GAP, window);
    let picks = draw(schedule_seed, mix, due.len());
    let bodies = picks.iter().map(|e| run_body(e, len, seed)).collect();
    (due, picks, bodies)
}

/// Sends the requests of [`open_plan`] over two connections, each at
/// its due time, and checks every reply against `reference`
/// (experiment → digest).
pub fn open_loop(
    addr: SocketAddr,
    mix: &[&'static str],
    len: u64,
    seed: u64,
    slice: u64,
    window: Duration,
    reference: &BTreeMap<&str, String>,
) -> OpenLoop {
    let (due, picks, bodies) = open_plan(mix, len, seed, slice, window);
    let outcomes: Vec<Outcome<Result<Reply, String>>> =
        loadgen::open_loop(&due, WORKERS, |i| post_run(addr, &bodies[i]));
    let mut out = OpenLoop::default();
    for (o, exp) in outcomes.iter().zip(&picks) {
        out.requests += 1;
        let checked = o.value.as_ref().map_err(Clone::clone).and_then(|reply| {
            let served = check_reply(reply, true, reference.get(exp).map(String::as_str))?;
            let (Some(plan), Some(result)) = (reply.plan, reply.result) else {
                return Err("reply without plan or result".into());
            };
            Ok((reply, served, plan, result))
        });
        match checked {
            Ok((reply, served, plan, result)) => {
                let ms = |d: Duration| d.as_secs_f64() * 1e3;
                out.latency_ms.push(ms(o.latency().saturating_sub(reply.stolen)));
                out.to_plan_ms.push(ms(plan.saturating_sub(reply.written)));
                out.plan_to_result_ms.push(ms(result - plan));
                out.lateness_ms.push(ms(o.lateness()));
                out.bytes += reply.body.len() as u64;
                out.served.cells += served.cells;
                out.served.cache_hits += served.cache_hits;
            }
            Err(e) => {
                out.failed += 1;
                out.problems.push(format!("{exp}: {e}"));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_slice_has_its_own_schedule_over_the_same_workload() {
        let mix = ["fig2", "fig5"];
        let window = Duration::from_secs(5);
        let (due0, picks0, bodies0) = open_plan(&mix, 1000, 7, 0, window);
        assert_eq!(open_plan(&mix, 1000, 7, 0, window).2, bodies0, "same seed, same slice");
        let (due1, picks1, bodies1) = open_plan(&mix, 1000, 7, 1, window);
        assert_ne!(due0, due1, "another slice, another schedule");
        assert_ne!(picks0, picks1);
        for (body, exp) in bodies0.iter().chain(&bodies1).zip(picks0.iter().chain(&picks1)) {
            assert_eq!(*body, run_body(exp, 1000, 7), "the workload seed is kept");
        }
    }
}
