//! End-to-end daemon tests over real sockets: cold/warm serving,
//! bit-identity with the CLI run path, concurrent dedup, graceful
//! drain, timeouts and error routing.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};
use zbp_serve::{ServeState, Server};
use zbp_sim::cache::CellCache;
use zbp_sim::experiments::ExperimentOptions;
use zbp_sim::registry::{self, strip_volatile};
use zbp_support::json::Json;

struct TestServer {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
    dir: PathBuf,
    state: Arc<ServeState>,
}

fn boot(tag: &str, len: u64) -> TestServer {
    let dir = std::env::temp_dir().join(format!("zbp-serve-e2e-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let state = ServeState::new(ExperimentOptions::quick(len, 7), dir.join("cache"), 2);
    let server = Server::bind("127.0.0.1:0", Arc::clone(&state)).expect("bind");
    let addr = server.local_addr().expect("addr");
    let shutdown = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&shutdown);
    let handle = std::thread::spawn(move || server.run(&flag));
    TestServer { addr, shutdown, handle: Some(handle), dir, state }
}

impl TestServer {
    /// Stops the daemon and asserts the drain completes.
    fn stop(mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.handle.take().expect("running").join().expect("drained without panicking");
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Minimal HTTP client: one request, read to EOF (the daemon closes
/// every connection). Returns (status, body).
fn http(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    let request = format!(
        "{method} {path} HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(request.as_bytes()).expect("send");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read");
    let status: u16 =
        response.split_whitespace().nth(1).and_then(|s| s.parse().ok()).expect("status line");
    let body = response.split_once("\r\n\r\n").map(|(_, b)| b.to_string()).unwrap_or_default();
    (status, body)
}

/// Parses an NDJSON response body into events.
fn events(body: &str) -> Vec<Json> {
    body.lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| Json::parse(l).expect("event line parses"))
        .collect()
}

fn result_event(events: &[Json]) -> &Json {
    events
        .iter()
        .find(|e| e.get("event") == Some(&Json::Str("result".into())))
        .expect("a result event")
}

fn served_count(result: &Json, field: &str) -> f64 {
    match result.get("served").and_then(|s| s.get(field)) {
        Some(Json::Num(n)) => *n,
        other => panic!("served.{field} missing: {other:?}"),
    }
}

#[test]
fn cold_then_warm_grid_run_is_bit_identical_to_the_cli_path() {
    let server = boot("coldwarm", 2_000);
    let (status, body) = http(server.addr, "POST", "/run", r#"{"experiment":"fig4"}"#);
    assert_eq!(status, 200);
    let cold = events(&body);
    let cold_result = result_event(&cold);
    let cells = served_count(cold_result, "cells");
    assert!(cells > 0.0);
    // A cold daemon computes every cell itself (no concurrent claimants
    // in this test).
    assert_eq!(served_count(cold_result, "computed"), cells);
    assert_eq!(served_count(cold_result, "cache_hits"), 0.0);

    // The warm repeat must recompute nothing.
    let (status, body) = http(server.addr, "POST", "/run", r#"{"experiment":"fig4"}"#);
    assert_eq!(status, 200);
    let warm = events(&body);
    let warm_result = result_event(&warm);
    assert_eq!(served_count(warm_result, "cache_hits"), cells);
    assert_eq!(served_count(warm_result, "computed"), 0.0);
    assert_eq!(served_count(warm_result, "dedup"), 0.0);
    // Every per-cell done event carries cache-hit provenance.
    let dones: Vec<_> =
        warm.iter().filter(|e| e.get("event") == Some(&Json::Str("done".into()))).collect();
    assert_eq!(dones.len() as f64, cells);
    assert!(dones.iter().all(|e| e.get("provenance") == Some(&Json::Str("cache-hit".into()))));

    // Bit-identity with the CLI path: the same experiment run fresh,
    // without the daemon's cache, renders the same artifact modulo the
    // volatile manifest fields.
    let spec = registry::find("fig4").expect("fig4 registered");
    let expected = spec.run(&ExperimentOptions::quick(2_000, 7), &CellCache::disabled());
    let expected = strip_volatile(&expected.artifact()).render();
    let cold_artifact = strip_volatile(cold_result.get("artifact").expect("artifact")).render();
    let warm_artifact = strip_volatile(warm_result.get("artifact").expect("artifact")).render();
    assert_eq!(cold_artifact, expected);
    assert_eq!(warm_artifact, expected);
    server.stop();
}

#[test]
fn concurrent_identical_requests_compute_each_cell_once() {
    let server = boot("dedup", 2_000);
    let addr = server.addr;
    let threads: Vec<_> = (0..2)
        .map(|_| {
            std::thread::spawn(move || {
                let (status, body) = http(addr, "POST", "/run", r#"{"experiment":"fig4"}"#);
                assert_eq!(status, 200);
                body
            })
        })
        .collect();
    let results: Vec<Json> = threads
        .into_iter()
        .map(|t| {
            let body = t.join().expect("request thread");
            result_event(&events(&body)).clone()
        })
        .collect();
    let cells = served_count(&results[0], "cells");
    assert_eq!(served_count(&results[1], "cells"), cells);
    // Dedup (in-flight joins + cache hits + claim waits) must cover
    // everything not computed; across both requests each cell is
    // computed exactly once.
    let computed: f64 = results.iter().map(|r| served_count(r, "computed")).sum();
    assert_eq!(computed, cells, "each cell computed exactly once across both requests");
    for r in &results {
        let total = served_count(r, "computed")
            + served_count(r, "cache_hits")
            + served_count(r, "dedup")
            + served_count(r, "claim_wait");
        assert_eq!(total, cells, "every cell accounted for");
    }
    // Both artifacts are the same bytes modulo volatile fields.
    let a = strip_volatile(results[0].get("artifact").expect("artifact")).render();
    let b = strip_volatile(results[1].get("artifact").expect("artifact")).render();
    assert_eq!(a, b);
    server.stop();
}

fn metric(addr: SocketAddr, name: &str) -> f64 {
    let (status, body) = http(addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    match Json::parse(&body).expect("metrics json").get(name) {
        Some(Json::Num(n)) => *n,
        other => panic!("/metrics {name}: {other:?}"),
    }
}

#[test]
fn sigterm_drains_active_requests_and_queued_cells() {
    let server = boot("drain", 2_000);
    let addr = server.addr;
    let request =
        std::thread::spawn(move || http(addr, "POST", "/run", r#"{"experiment":"fig4"}"#));
    // Pull the plug once the request is in flight.
    let deadline = Instant::now() + Duration::from_secs(30);
    while metric(addr, "active_requests") < 1.0 {
        assert!(Instant::now() < deadline, "the request never became active");
    }
    server.shutdown.store(true, Ordering::SeqCst);
    let (status, body) = request.join().expect("request thread");
    assert_eq!(status, 200, "the in-flight request completed despite shutdown");
    let result = result_event(&events(&body)).clone();
    assert!(served_count(&result, "cells") > 0.0);
    server.stop();
}

#[test]
fn whole_spec_experiments_are_served_inline() {
    let server = boot("whole", 2_000);
    let (status, body) = http(server.addr, "POST", "/run", r#"{"experiment":"table4"}"#);
    assert_eq!(status, 200);
    let evs = events(&body);
    assert_eq!(evs[0].get("mode"), Some(&Json::Str("whole".into())), "table4 is not grid-shaped");
    assert!(result_event(&evs).get("artifact").is_some());
    server.stop();
}

#[test]
fn a_zero_timeout_reports_the_cell_and_a_retry_recovers() {
    let server = boot("timeout", 2_000);
    let (status, body) =
        http(server.addr, "POST", "/run", r#"{"experiment":"fig4","timeout_ms":0}"#);
    // The stream started (plan/queued events) before the deadline hit,
    // so the failure arrives as error events, not a status.
    assert_eq!(status, 200);
    assert!(body.contains("timed out"), "timeout reported: {body}");
    // The abandoned cells finish in the background; a patient retry is
    // served entirely without recomputation and with whole entries.
    let (status, body) = http(server.addr, "POST", "/run", r#"{"experiment":"fig4"}"#);
    assert_eq!(status, 200);
    let result = result_event(&events(&body)).clone();
    assert!(served_count(&result, "cells") > 0.0);
    assert!(result.get("artifact").is_some());
    server.stop();
}

#[test]
fn unknown_experiments_get_a_404_with_a_suggestion() {
    let server = boot("notfound", 2_000);
    let (status, body) = http(server.addr, "POST", "/run", r#"{"experiment":"fig2x"}"#);
    assert_eq!(status, 404);
    assert!(body.contains("did you mean"), "suggestion present: {body}");
    let (status, _) = http(server.addr, "POST", "/run", r#"{"len":5}"#);
    assert_eq!(status, 400);
    server.stop();
}

#[test]
fn info_experiments_and_metrics_endpoints_respond() {
    let server = boot("info", 2_000);
    let (status, body) = http(server.addr, "GET", "/", "");
    assert_eq!(status, 200);
    let info = Json::parse(&body).expect("info json");
    assert_eq!(info.get("name"), Some(&Json::Str("zbp-serve".into())));

    let (status, body) = http(server.addr, "GET", "/experiments", "");
    assert_eq!(status, 200);
    let Json::Arr(specs) = Json::parse(&body).expect("experiments json") else {
        panic!("experiments is an array")
    };
    assert_eq!(specs.len(), registry::all().len());
    assert!(specs.iter().any(|s| s.get("id") == Some(&Json::Str("fig2".into()))
        && s.get("mode") == Some(&Json::Str("grid".into()))));

    // Warm up one grid then check the counters reconcile.
    let (status, body) = http(server.addr, "POST", "/run", r#"{"experiment":"fig4"}"#);
    assert_eq!(status, 200);
    let cells = served_count(result_event(&events(&body)), "cells");
    let (status, body) = http(server.addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    let metrics = Json::parse(&body).expect("metrics json");
    assert_eq!(metrics.get("cells_requested"), Some(&Json::Num(cells)));
    assert_eq!(metrics.get("cells_computed"), Some(&Json::Num(cells)));
    assert_eq!(metrics.get("inflight_cells"), Some(&Json::Num(0.0)));
    assert_eq!(metrics.get("queue_depth"), Some(&Json::Num(0.0)));

    let (status, _) = http(server.addr, "GET", "/nope", "");
    assert_eq!(status, 404);
    let (status, _) = http(server.addr, "DELETE", "/run", "");
    assert_eq!(status, 405);
    server.stop();
}

/// Whether an idle server bound to `addr` — one that never receives a
/// request — returns from `run` within `limit` of its shutdown flag.
/// The server runs on a thread of its own and is waited for through a
/// channel, so a regression fails the test instead of hanging it.
fn idle_server_stops_within(tag: &str, addr: &str, limit: Duration) -> bool {
    let dir = std::env::temp_dir().join(format!("zbp-serve-e2e-{tag}-{}", std::process::id()));
    let state = ServeState::new(ExperimentOptions::quick(2_000, 7), dir.join("cache"), 1);
    let server = Server::bind(addr, state).expect("bind");
    let shutdown = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&shutdown);
    let (done, returned) = mpsc::channel();
    let handle = std::thread::spawn(move || {
        server.run(&flag);
        let _ = done.send(());
    });
    // Most likely the loop is blocked in accept by now; the check holds
    // whenever the flag goes up.
    std::thread::sleep(Duration::from_millis(50));
    shutdown.store(true, Ordering::SeqCst);
    let stopped = returned.recv_timeout(limit).is_ok();
    if stopped {
        handle.join().expect("run returned without panicking");
    }
    let _ = std::fs::remove_dir_all(&dir);
    stopped
}

#[test]
fn an_idle_loopback_server_stops_promptly() {
    let limit = Duration::from_secs(2);
    assert!(
        idle_server_stops_within("idle4", "127.0.0.1:0", limit),
        "still running after {limit:?}"
    );
}

#[test]
fn an_idle_server_on_every_interface_stops_promptly() {
    // Bound to 0.0.0.0 the wake-up must connect over loopback.
    let limit = Duration::from_secs(2);
    assert!(
        idle_server_stops_within("idleany", "0.0.0.0:0", limit),
        "still running after {limit:?}"
    );
}

#[test]
fn an_unreadable_request_gets_a_400_and_counts_as_an_error() {
    let server = boot("badhead", 2_000);
    let mut stream = TcpStream::connect(server.addr).expect("connect");
    stream.write_all(b"NONSENSE\r\n\r\n").expect("send");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read");
    assert!(response.starts_with("HTTP/1.1 400 "), "{response}");
    assert!(response.contains("malformed request line"), "{response}");
    let (_, body) = http(server.addr, "GET", "/metrics", "");
    let metrics = Json::parse(&body).expect("metrics json");
    assert_eq!(metrics.get("errors"), Some(&Json::Num(1.0)));
    assert_eq!(metrics.get("requests"), Some(&Json::Num(1.0)), "only /metrics was read");
    server.stop();
}

#[test]
fn cold_and_warm_runs_read_each_cell_once() {
    let server = boot("reads", 2_000);
    let reads = || server.state.cache.reads();
    let (status, body) = http(server.addr, "POST", "/run", r#"{"experiment":"fig4"}"#);
    assert_eq!(status, 200);
    let cells = served_count(result_event(&events(&body)), "cells") as u64;
    // Cold: nothing to read while streaming; the assembly reads each
    // computed cell once.
    assert_eq!(reads(), cells);
    let before = reads();
    let (status, body) = http(server.addr, "POST", "/run", r#"{"experiment":"fig4"}"#);
    assert_eq!(status, 200);
    let warm = events(&body);
    assert_eq!(served_count(result_event(&warm), "cache_hits"), cells as f64);
    // Warm: each cell is read while streaming, and the assembly takes
    // those results instead of reading them again.
    assert_eq!(reads() - before, cells);
    let memo_hits = metric(server.addr, "memo_hits");
    assert_eq!(memo_hits, 0.0, "the memo fills as the first warm request reads");
    assert_eq!(metric(server.addr, "memo_entries"), cells as f64);

    // Warm again: the daemon's memo answers every cell, nothing is read,
    // and to the client each is a cache hit as before.
    let before = reads();
    let (status, body) = http(server.addr, "POST", "/run", r#"{"experiment":"fig4"}"#);
    assert_eq!(status, 200);
    let memo = events(&body);
    assert_eq!(reads(), before, "a memoized cell is not read again");
    assert_eq!(served_count(result_event(&memo), "cache_hits"), cells as f64);
    let dones: Vec<_> =
        memo.iter().filter(|e| e.get("event") == Some(&Json::Str("done".into()))).collect();
    assert_eq!(dones.len() as u64, cells);
    assert!(dones.iter().all(|e| e.get("provenance") == Some(&Json::Str("cache-hit".into()))));
    assert_eq!(metric(server.addr, "memo_hits") - memo_hits, cells as f64);
    let artifact = |evs: &[Json]| {
        strip_volatile(result_event(evs).get("artifact").expect("artifact")).render()
    };
    assert_eq!(artifact(&memo), artifact(&warm), "the memo gives what the disk gave");
    server.stop();
}

#[test]
fn events_emitted_before_a_wait_reach_the_client_during_it() {
    // A claim held here stands for another process computing the
    // request's first cell, so the daemon waits on that cell. Every
    // event it emitted up to the wait must already be on the wire.
    let server = boot("flushwait", 2_000);
    let spec = registry::find("fig4").expect("fig4 registered");
    let cells = spec.grid_session(&ExperimentOptions::quick(2_000, 7)).expect("a grid").cells();
    let first = cells[0].key.digest();
    let claim = CellCache::at(server.dir.join("cache")).try_claim(&cells[0].key).expect("claim");
    let mut stream = TcpStream::connect(server.addr).expect("connect");
    // Held events would leave the reads below blocked until the claim
    // expires: time out instead of hanging.
    stream.set_read_timeout(Some(Duration::from_secs(20))).expect("read timeout");
    let body = r#"{"experiment":"fig4"}"#;
    write!(stream, "POST /run HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}", body.len())
        .expect("send");
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    while line != "\r\n" {
        line.clear();
        reader.read_line(&mut line).expect("response head");
    }
    let mut before_wait = Vec::new();
    loop {
        line.clear();
        reader.read_line(&mut line).expect("an event emitted before the wait");
        let event = Json::parse(&line).expect("event line parses");
        let running_first = event.get("event") == Some(&Json::Str("running".into()))
            && event.get("cell") == Some(&Json::Str(first.clone()));
        before_wait.push(event);
        if running_first {
            break;
        }
    }
    assert_eq!(before_wait[0].get("event"), Some(&Json::Str("plan".into())));
    let queued = before_wait.iter().filter(|e| e.get("event") == Some(&Json::Str("queued".into())));
    assert_eq!(queued.count(), cells.len(), "every cell was queued before the wait");
    assert_eq!(metric(server.addr, "active_requests"), 1.0, "the request is still waiting");
    // The claim holder gives up without publishing: the daemon computes
    // the cell itself and the request completes.
    drop(claim);
    let mut rest = String::new();
    reader.read_to_string(&mut rest).expect("the rest of the stream");
    let result = result_event(&events(&rest)).clone();
    assert_eq!(served_count(&result, "cells"), cells.len() as f64);
    server.stop();
}
