//! The daemon itself: request routing, the `/run` streaming lifecycle,
//! and graceful shutdown.
//!
//! A `/run` request resolves to a registry experiment, enumerates its
//! grid cells, and serves each cell from the cheapest source available:
//! the daemon's memo of decoded warm cells (`CellMemo`), the on-disk
//! cell cache (O(lookup)), another request's in-flight computation
//! (joined via the executor's dedup table), a concurrent *process's*
//! computation (waited out via the cache's advisory claim files), or —
//! last — this daemon's worker pool. Progress streams back as NDJSON
//! events (`plan`, `queued`, `running`, `done`, `error`, `result`), each
//! `done` carrying the cell's provenance; a memo hit is a `cache-hit`.
//!
//! The final artifact is produced by the registry's own
//! [`ExperimentSpec::run`] path over the now-warm cache — the gather,
//! post-processing and manifest code `zbp-cli experiment run` uses — so
//! a daemon response is bit-identical to a CLI run by construction, not
//! by reimplementation. The cells the request already holds as hits are
//! handed to that gather ([`ExperimentSpec::run_with_hits`]), so a warm
//! request reads each cell at most once, and not at all once the memo
//! holds it.
//!
//! The accept loop blocks in `accept`. A watcher thread turns the
//! shutdown flag into one wake-up connection to the listener, so the
//! flag's polling step bounds only how fast the daemon stops, never how
//! fast it answers.

use std::io;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use zbp_sim::cache::CellCache;
use zbp_sim::experiments::ExperimentOptions;
use zbp_sim::registry::{self, ExperimentSpec};
use zbp_sim::session::SessionCell;
use zbp_support::json::Json;
use zbp_uarch::core::CoreResult;

use crate::executor::{provenance, Admission, Executor, Job, JobCell, SlotView};
use crate::http::{read_request, respond_json, respond_text, NdjsonStream, Request};
use crate::memo::{CellMemo, MEMO_BUDGET};
use crate::metrics::ServeMetrics;

/// How long a `/run` request waits for its cells when the client does
/// not say (`timeout_ms`).
pub const DEFAULT_RUN_TIMEOUT: Duration = Duration::from_secs(600);

/// Per-connection socket read timeout (header + body arrival).
const READ_TIMEOUT: Duration = Duration::from_secs(10);

/// How often the shutdown watcher looks at the flag, and how long the
/// accept loop backs off after a failed `accept` (e.g. out of file
/// descriptors).
const SHUTDOWN_POLL: Duration = Duration::from_millis(20);

/// Bound on one wake-up connect to the listener.
const WAKE_CONNECT_TIMEOUT: Duration = Duration::from_secs(1);

/// A parsed `/run` request body.
#[derive(Debug, Clone)]
pub struct RunRequest {
    /// Registry experiment id (`fig2`, `table4`, ...).
    pub experiment: String,
    /// Per-workload dynamic-length cap override.
    pub len: Option<u64>,
    /// Workload synthesis seed override.
    pub seed: Option<u64>,
    /// Wait budget for the whole request, milliseconds.
    pub timeout_ms: Option<u64>,
}

impl RunRequest {
    /// Parses the `/run` body.
    ///
    /// # Errors
    ///
    /// On a non-object body, a missing/non-string `experiment`, or
    /// non-integer numeric fields.
    pub fn from_json(json: &Json) -> Result<Self, String> {
        if !matches!(json, Json::Obj(_)) {
            return Err("request body must be a JSON object".into());
        }
        let experiment = match json.get("experiment") {
            Some(Json::Str(s)) => s.clone(),
            Some(_) => return Err("\"experiment\" must be a string".into()),
            None => return Err("missing required field \"experiment\"".into()),
        };
        let uint = |key: &str| -> Result<Option<u64>, String> {
            match json.get(key) {
                None | Some(Json::Null) => Ok(None),
                Some(Json::Num(n)) if *n >= 0.0 && n.fract() == 0.0 => Ok(Some(*n as u64)),
                Some(_) => Err(format!("\"{key}\" must be a non-negative integer")),
            }
        };
        Ok(Self {
            experiment,
            len: uint("len")?,
            seed: uint("seed")?,
            timeout_ms: uint("timeout_ms")?,
        })
    }
}

/// Everything the daemon shares across connections.
pub struct ServeState {
    /// Boot-time experiment options: the daemon's len/seed defaults,
    /// worker cap, compact/lane settings and warm trace store. `/run`
    /// may override `len`/`seed` per request.
    pub base: ExperimentOptions,
    /// The shared on-disk cell cache every request reads and warms.
    pub cache: Arc<CellCache>,
    /// Decoded warm cells, asked before `cache` by phase 1 of `/run`.
    pub(crate) memo: CellMemo,
    /// Dedup table + worker pool for cold cells.
    pub executor: Executor,
    /// `/metrics` counters and latency histograms.
    pub metrics: Arc<ServeMetrics>,
}

impl ServeState {
    /// Builds the daemon state: a cache at `cache_dir` and a pool of
    /// `pool_workers` cell workers over `base`.
    pub fn new(
        base: ExperimentOptions,
        cache_dir: impl Into<PathBuf>,
        pool_workers: usize,
    ) -> Arc<Self> {
        // The replay fan-out inside each worker honours the same global
        // cap the CLI sets.
        zbp_sim::parallel::set_worker_cap(base.workers);
        let metrics = Arc::new(ServeMetrics::default());
        Arc::new(Self {
            base,
            cache: Arc::new(CellCache::at(cache_dir.into())),
            memo: CellMemo::new(MEMO_BUDGET, Arc::clone(&metrics)),
            executor: Executor::new(pool_workers, Arc::clone(&metrics)),
            metrics,
        })
    }
}

/// The listening daemon.
pub struct Server {
    listener: TcpListener,
    state: Arc<ServeState>,
    active: Arc<AtomicU64>,
}

impl Server {
    /// Binds `addr` (e.g. `127.0.0.1:7878`, or port `0` for tests).
    ///
    /// # Errors
    ///
    /// When the address cannot be bound.
    pub fn bind(addr: &str, state: Arc<ServeState>) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        Ok(Self { listener, state, active: Arc::new(AtomicU64::new(0)) })
    }

    /// The bound address (resolves port `0`).
    ///
    /// # Errors
    ///
    /// When the socket's local address cannot be read.
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Serves until `shutdown` turns true, then drains gracefully:
    /// stops accepting, waits for every active connection to finish,
    /// and joins the worker pool (which completes all queued cells
    /// first). Returns only when the drain is complete.
    ///
    /// The loop blocks in `accept`; a watcher thread wakes it once the
    /// flag is set by connecting to the listener itself (over loopback
    /// when it is bound to every interface). A connection accepted
    /// after the flag is set — the wake-up, or a client that raced it —
    /// is closed unanswered, like any connection still in the backlog
    /// when the listener closes.
    pub fn run(&self, shutdown: &AtomicBool) {
        let wake = wake_addr(self.local_addr().expect("listener address"));
        let stopped = AtomicBool::new(false);
        std::thread::scope(|scope| {
            scope.spawn(|| wake_on_shutdown(shutdown, &stopped, wake));
            // The watcher must learn that the loop ended however it
            // ended, or the scope would wait on it forever.
            let ended = catch_unwind(AssertUnwindSafe(|| self.accept_until(shutdown)));
            stopped.store(true, Ordering::SeqCst);
            if let Err(panic) = ended {
                resume_unwind(panic);
            }
        });
        // Drain: connections first (they may still enqueue work), then
        // the worker pool (which finishes everything enqueued).
        while self.active.load(Ordering::SeqCst) > 0 {
            std::thread::sleep(Duration::from_millis(10));
        }
        self.state.executor.drain();
    }

    fn accept_until(&self, shutdown: &AtomicBool) {
        loop {
            let accepted = self.listener.accept();
            if shutdown.load(Ordering::SeqCst) {
                return;
            }
            match accepted {
                Ok((stream, _)) => {
                    let state = Arc::clone(&self.state);
                    let active = Arc::clone(&self.active);
                    active.fetch_add(1, Ordering::SeqCst);
                    std::thread::spawn(move || {
                        handle_connection(&state, stream);
                        active.fetch_sub(1, Ordering::SeqCst);
                    });
                }
                Err(_) => std::thread::sleep(SHUTDOWN_POLL),
            }
        }
    }
}

/// Where the shutdown watcher connects to wake a listener bound to
/// `bound`: the address itself, or the loopback address of the same
/// family when the listener is bound to every interface (`0.0.0.0`,
/// `::`), which cannot be connected to as such.
fn wake_addr(bound: SocketAddr) -> SocketAddr {
    // Only an unspecified address changes: the port, and an IPv6
    // listener's scope id and flow info, carry over as bound.
    let mut wake = bound;
    if bound.ip().is_unspecified() {
        wake.set_ip(match bound {
            SocketAddr::V4(_) => IpAddr::V4(Ipv4Addr::LOCALHOST),
            SocketAddr::V6(_) => IpAddr::V6(Ipv6Addr::LOCALHOST),
        });
    }
    wake
}

/// Waits for `shutdown`, then connects to the listener at `wake` until
/// the accept loop reports it has `stopped` (returning at once if the
/// loop stopped on its own, by a panic). One connect normally suffices;
/// the retry only covers a connect that failed.
fn wake_on_shutdown(shutdown: &AtomicBool, stopped: &AtomicBool, wake: SocketAddr) {
    while !shutdown.load(Ordering::SeqCst) && !stopped.load(Ordering::SeqCst) {
        std::thread::sleep(SHUTDOWN_POLL);
    }
    while !stopped.load(Ordering::SeqCst) {
        let _ = TcpStream::connect_timeout(&wake, WAKE_CONNECT_TIMEOUT);
        std::thread::sleep(SHUTDOWN_POLL);
    }
}

/// The status for a request that could not be read: 408 when the
/// client did not send it within the socket's read timeout, 400 for
/// anything else (malformed or oversized head, bad body framing).
fn read_failure_status(e: &io::Error) -> u16 {
    match e.kind() {
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => 408,
        _ => 400,
    }
}

fn handle_connection(state: &Arc<ServeState>, mut stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(READ_TIMEOUT));
    // Events go out in whole writes, each at a point where the request
    // is about to wait or has ended; sending each write at once is what
    // a client streaming progress wants.
    let _ = stream.set_nodelay(true);
    let request = match read_request(&mut stream) {
        Ok(r) => r,
        Err(e) => {
            state.metrics.errors.fetch_add(1, Ordering::Relaxed);
            let status = read_failure_status(&e);
            let _ = respond_json(&mut stream, status, &error_json(&e.to_string()));
            return;
        }
    };
    state.metrics.requests.fetch_add(1, Ordering::Relaxed);
    let result = route(state, &request, &mut stream);
    if result.is_err() {
        // The client hung up mid-stream; nothing left to tell it. Any
        // cells already enqueued finish in the background and warm the
        // cache for the next request.
    }
}

fn route(
    state: &Arc<ServeState>,
    request: &Request,
    stream: &mut TcpStream,
) -> std::io::Result<()> {
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/") => respond_json(stream, 200, &info_json(state)),
        ("GET", "/experiments") => respond_json(stream, 200, &experiments_json(state)),
        ("GET", "/metrics") => respond_json(stream, 200, &state.metrics.to_json()),
        ("POST", "/run") => handle_run(state, request, stream),
        ("GET" | "POST", _) => respond_text(stream, 404, "no such endpoint\n"),
        _ => respond_text(stream, 405, "method not allowed\n"),
    }
}

fn info_json(state: &Arc<ServeState>) -> Json {
    Json::Obj(vec![
        ("name".into(), Json::Str("zbp-serve".into())),
        ("version".into(), Json::Str(env!("CARGO_PKG_VERSION").into())),
        ("experiments".into(), Json::Num(registry::all().len() as f64)),
        (
            "cache_dir".into(),
            match state.cache.dir() {
                Some(d) => Json::Str(d.display().to_string()),
                None => Json::Null,
            },
        ),
        (
            "endpoints".into(),
            Json::Arr(
                ["GET /", "GET /experiments", "GET /metrics", "POST /run"]
                    .iter()
                    .map(|e| Json::Str((*e).into()))
                    .collect(),
            ),
        ),
    ])
}

fn experiments_json(state: &Arc<ServeState>) -> Json {
    Json::Arr(
        registry::all()
            .iter()
            .map(|spec| {
                Json::Obj(vec![
                    ("id".into(), Json::Str(spec.id.into())),
                    ("title".into(), Json::Str(spec.title.into())),
                    ("description".into(), Json::Str(spec.description.into())),
                    (
                        "mode".into(),
                        Json::Str(
                            if spec.grid_session(&state.base).is_some() { "grid" } else { "whole" }
                                .into(),
                        ),
                    ),
                ])
            })
            .collect(),
    )
}

fn error_json(message: &str) -> Json {
    Json::Obj(vec![("error".into(), Json::Str(message.into()))])
}

fn handle_run(
    state: &Arc<ServeState>,
    request: &Request,
    stream: &mut TcpStream,
) -> std::io::Result<()> {
    let run = match request.json_body().and_then(|j| RunRequest::from_json(&j)) {
        Ok(r) => r,
        Err(e) => {
            state.metrics.errors.fetch_add(1, Ordering::Relaxed);
            return respond_json(stream, 400, &error_json(&e));
        }
    };
    let Some(spec) = registry::find(&run.experiment) else {
        state.metrics.errors.fetch_add(1, Ordering::Relaxed);
        let ids = registry::all().iter().map(|s| s.id);
        let mut msg = format!("no experiment named {:?}", run.experiment);
        if let Some(suggestion) = registry::closest(&run.experiment, ids) {
            msg.push_str(&format!(" (did you mean {suggestion:?}?)"));
        }
        return respond_json(stream, 404, &error_json(&msg));
    };
    state.metrics.active_requests.fetch_add(1, Ordering::Relaxed);
    let mut out = NdjsonStream::new(stream);
    let outcome = run_events(state, spec, &run, &mut out);
    state.metrics.active_requests.fetch_sub(1, Ordering::Relaxed);
    match outcome {
        Ok(()) => Ok(()),
        Err(RunError::Io(e)) => Err(e),
        Err(RunError::Request(msg)) => {
            // The per-cell `error` event is already emitted; close the
            // request with a summary (as a trailing event when the
            // stream started, as a status otherwise).
            let event = Json::Obj(vec![
                ("event".into(), Json::Str("error".into())),
                ("error".into(), Json::Str(msg)),
            ]);
            if out.started() {
                out.emit(&event);
                out.flush()
            } else {
                respond_json(stream, 500, &event)
            }
        }
    }
}

/// Why a `/run` could not complete.
#[derive(Debug)]
enum RunError {
    /// The connection failed (client hung up): nothing more to send.
    Io(std::io::Error),
    /// The request itself failed (timeout, failed cell): reported to
    /// the client as an `error` event or status.
    Request(String),
}

impl From<std::io::Error> for RunError {
    fn from(e: std::io::Error) -> Self {
        RunError::Io(e)
    }
}

fn cell_event(kind: &str, cell: &SessionCell, extra: &[(&str, Json)]) -> Json {
    let mut fields = vec![
        ("event".into(), Json::Str(kind.into())),
        ("workload".into(), Json::Str(cell.workload.clone())),
        ("config".into(), Json::Str(cell.config.clone())),
        ("row".into(), Json::Num(cell.row as f64)),
        ("col".into(), Json::Num(cell.col as f64)),
        ("cell".into(), Json::Str(cell.key.digest())),
    ];
    fields.extend(extra.iter().map(|(k, v)| ((*k).to_string(), v.clone())));
    Json::Obj(fields)
}

/// Serves one `/run` request, streaming its NDJSON progress events to
/// `out`, which holds them until the request flushes: before anything
/// that may wait (a pending cell, an inline computation) and when it
/// ends.
///
/// # Errors
///
/// [`RunError::Io`] when the client connection fails mid-stream;
/// [`RunError::Request`] on timeout or a failed cell (already reported
/// to the client by the caller).
fn run_events(
    state: &Arc<ServeState>,
    spec: &ExperimentSpec,
    run: &RunRequest,
    out: &mut NdjsonStream<'_>,
) -> Result<(), RunError> {
    let mut opts = state.base.clone();
    if run.len.is_some() {
        opts.len = run.len;
    }
    if let Some(seed) = run.seed {
        opts.seed = seed;
    }
    let timeout = run.timeout_ms.map_or(DEFAULT_RUN_TIMEOUT, Duration::from_millis);
    let deadline = Instant::now() + timeout;

    let Some(session) = spec.grid_session(&opts) else {
        // Stats/custom specs have no externally addressable grid: run
        // them whole on this connection thread (their cells still go
        // through the shared cache).
        out.emit(&Json::Obj(vec![
            ("event".into(), Json::Str("plan".into())),
            ("experiment".into(), Json::Str(spec.id.into())),
            ("mode".into(), Json::Str("whole".into())),
        ]));
        out.flush()?;
        let result = spec.run(&opts, &state.cache);
        out.emit(&result_event(&result.artifact(), 0, 0, 0, 0, 0));
        out.flush()?;
        return Ok(());
    };
    let session = Arc::new(session);
    let cells = session.cells();
    out.emit(&Json::Obj(vec![
        ("event".into(), Json::Str("plan".into())),
        ("experiment".into(), Json::Str(spec.id.into())),
        ("mode".into(), Json::Str("grid".into())),
        ("cells".into(), Json::Num(cells.len() as f64)),
        ("rows".into(), Json::Num(cells.iter().map(|c| c.row).max().map_or(0, |r| r + 1) as f64)),
    ]));
    // The plan goes out before phase 1 reads any cell.
    out.flush()?;
    state.metrics.cells_requested.fetch_add(cells.len() as u64, Ordering::Relaxed);

    // Phase 1: serve warm cells immediately, from the memo or else the
    // cache; admit cold ones (owner or join) and group owned cells into
    // per-row lane-batched jobs.
    //
    // An owned cell's inflight entry is only ever removed by the worker
    // that resolves its slot, so every cell admitted as Owner MUST be
    // submitted. Phase 1 writes nothing to the client: the stream holds
    // its events, so a hangup surfaces at the first flush, after the
    // jobs are submitted.
    let mut hits = 0u64;
    // The results phase 1 holds, handed to the phase-3 gather so that a
    // warm cell is read at most once per request.
    let mut known_hits: Vec<Option<CoreResult>> = Vec::with_capacity(cells.len());
    let mut pending: Vec<(usize, Arc<crate::executor::CellSlot>, bool, Instant)> = Vec::new();
    let mut row_jobs: std::collections::BTreeMap<usize, Vec<JobCell>> =
        std::collections::BTreeMap::new();
    for (idx, cell) in cells.iter().enumerate() {
        let t0 = Instant::now();
        let hit = state.memo.cell(&state.cache, &cell.key);
        let event = if hit.is_some() {
            hits += 1;
            state.metrics.cache_hits.fetch_add(1, Ordering::Relaxed);
            state.metrics.observe_warm(t0.elapsed());
            cell_event("done", cell, &[("provenance", Json::Str(provenance::CACHE_HIT.into()))])
        } else {
            match state.executor.admit(&cell.key) {
                Admission::Owner(slot) => {
                    row_jobs.entry(cell.row).or_default().push(JobCell {
                        col: cell.col,
                        key: cell.key.clone(),
                        slot: Arc::clone(&slot),
                    });
                    pending.push((idx, slot, true, t0));
                    cell_event("queued", cell, &[])
                }
                Admission::Joined(slot) => {
                    state.metrics.dedup_joins.fetch_add(1, Ordering::Relaxed);
                    pending.push((idx, slot, false, t0));
                    cell_event("queued", cell, &[("joined", Json::Bool(true))])
                }
            }
        };
        known_hits.push(hit);
        out.emit(&event);
    }
    for (row, job_cells) in row_jobs {
        state.executor.submit(Job {
            session: Arc::clone(&session),
            cache: Arc::clone(&state.cache),
            row,
            cells: job_cells,
        });
    }

    // Phase 2: wait out the pending slots in grid order, streaming each
    // transition. A timeout abandons the *wait*, never the computation:
    // enqueued cells complete in the background and every store is
    // atomic, so the cache cannot hold a partial entry.
    let mut computed = 0u64;
    let mut dedup = 0u64;
    let mut claim_wait = 0u64;
    let mut failed: Option<String> = None;
    for (idx, slot, owner, t0) in pending {
        // `t0` is the cell's phase-1 admission time, so observe_cold
        // records wall-clock admission→done latency — comparable to the
        // bench's request-start-to-done figure — rather than the
        // incremental wait from when the stream loop reached the cell.
        let cell = &cells[idx];
        let mut view = slot.view();
        loop {
            match &view {
                SlotView::Queued => {}
                SlotView::Running => {
                    out.emit(&cell_event("running", cell, &[]));
                    out.flush()?;
                    // Fall through to wait for resolution without
                    // re-emitting on spurious wakeups.
                    match slot.wait_resolved(deadline) {
                        Some(v) => {
                            view = v;
                            continue;
                        }
                        None => {
                            return Err(timeout_error(state, out, cell, timeout));
                        }
                    }
                }
                SlotView::Done(slot_provenance) => {
                    state.metrics.observe_cold(t0.elapsed());
                    let label = if owner { slot_provenance } else { provenance::DEDUP };
                    match label {
                        provenance::COMPUTED => computed += 1,
                        provenance::DEDUP => dedup += 1,
                        provenance::CLAIM_WAIT => claim_wait += 1,
                        _ => hits += 1,
                    }
                    out.emit(&cell_event("done", cell, &[("provenance", Json::Str(label.into()))]));
                    break;
                }
                SlotView::Failed(msg) => {
                    out.emit(&cell_event("error", cell, &[("error", Json::Str(msg.clone()))]));
                    failed = Some(format!("cell {} failed: {msg}", cell.key.digest()));
                    break;
                }
            }
            out.flush()?;
            match slot.wait_change(&view, deadline) {
                Some(v) => view = v,
                None => return Err(timeout_error(state, out, cell, timeout)),
            }
        }
        if failed.is_some() {
            break;
        }
    }
    if let Some(msg) = failed {
        return Err(RunError::Request(msg));
    }

    // Phase 3: assemble the artifact through the registry's own run
    // path over the now-warm cache — the gather, post-processing and
    // manifest code `zbp-cli experiment run` executes, so the response
    // is bit-identical to a CLI run. The phase-1 hits go in as held;
    // the gather loads only the cells resolved since, from disk (and
    // recomputes inline, as any run does, a cell whose entry vanished
    // meanwhile).
    out.flush()?;
    let result = spec.run_with_hits(&opts, &state.cache, &known_hits);
    out.emit(&result_event(
        &result.artifact(),
        cells.len() as u64,
        hits,
        computed,
        dedup,
        claim_wait,
    ));
    out.flush()?;
    Ok(())
}

fn timeout_error(
    state: &Arc<ServeState>,
    out: &mut NdjsonStream<'_>,
    cell: &SessionCell,
    timeout: Duration,
) -> RunError {
    let msg = format!(
        "timed out after {}ms waiting for cell {} (computation continues in the background; \
         retry to pick up the cached result)",
        timeout.as_millis(),
        cell.key.digest()
    );
    state.metrics.errors.fetch_add(1, Ordering::Relaxed);
    out.emit(&cell_event("error", cell, &[("error", Json::Str(msg.clone()))]));
    RunError::Request(msg)
}

fn result_event(
    artifact: &Json,
    cells: u64,
    hits: u64,
    computed: u64,
    dedup: u64,
    claim_wait: u64,
) -> Json {
    Json::Obj(vec![
        ("event".into(), Json::Str("result".into())),
        (
            "served".into(),
            Json::Obj(vec![
                ("cells".into(), Json::Num(cells as f64)),
                ("cache_hits".into(), Json::Num(hits as f64)),
                ("computed".into(), Json::Num(computed as f64)),
                ("dedup".into(), Json::Num(dedup as f64)),
                ("claim_wait".into(), Json::Num(claim_wait as f64)),
            ]),
        ),
        ("artifact".into(), artifact.clone()),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::SocketAddrV6;

    #[test]
    fn a_timed_out_read_is_a_408_and_anything_else_a_400() {
        let status = |kind| read_failure_status(&io::Error::new(kind, "read failed"));
        assert_eq!(status(io::ErrorKind::WouldBlock), 408);
        assert_eq!(status(io::ErrorKind::TimedOut), 408);
        assert_eq!(status(io::ErrorKind::InvalidData), 400);
        assert_eq!(status(io::ErrorKind::UnexpectedEof), 400);
        assert_eq!(status(io::ErrorKind::ConnectionReset), 400);
    }

    #[test]
    fn the_wake_up_reaches_every_interface_binding_over_loopback() {
        let wake = |addr: &str| wake_addr(addr.parse().expect("socket address")).to_string();
        assert_eq!(wake("0.0.0.0:7878"), "127.0.0.1:7878");
        assert_eq!(wake("[::]:7878"), "[::1]:7878");
        assert_eq!(wake("127.0.0.1:80"), "127.0.0.1:80");
        assert_eq!(wake("10.1.2.3:80"), "10.1.2.3:80");
        assert_eq!(wake("[fe80::1]:80"), "[fe80::1]:80");
        // A link-local listener is reachable only through its scope.
        assert_eq!(wake("[fe80::1%2]:80"), "[fe80::1%2]:80");
        let scoped = SocketAddr::V6(SocketAddrV6::new(Ipv6Addr::UNSPECIFIED, 80, 7, 2));
        assert_eq!(
            wake_addr(scoped),
            SocketAddr::V6(SocketAddrV6::new(Ipv6Addr::LOCALHOST, 80, 7, 2))
        );
    }
}
