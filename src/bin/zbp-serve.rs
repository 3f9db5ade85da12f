//! `zbp-serve` — the simulation-serving daemon.
//!
//! ```text
//! zbp-serve --addr 127.0.0.1:7878
//! zbp-serve --addr 127.0.0.1:7878 --len 50000 --cache-dir results/cache
//! curl -s localhost:7878/experiments
//! curl -s localhost:7878/run -d '{"experiment":"fig2","len":50000}'
//! curl -s localhost:7878/metrics
//! ```
//!
//! SIGTERM (or SIGINT) drains gracefully: the listener stops accepting,
//! active requests run to completion, queued cells finish and land in
//! the cache, and only then does the process exit.

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use zbp::serve::{ServeState, Server};
use zbp::sim::experiments::{parse_seed, ExperimentOptions};
use zbp::trace::TraceStore;

const USAGE: &str = "zbp-serve — simulation-serving daemon over the experiment cell cache

USAGE:
    zbp-serve [OPTIONS]

OPTIONS:
    --addr <HOST:PORT>            listen address (default: 127.0.0.1:7878)
    --len <N>                     default dynamic instruction cap per workload
                                  (requests may override per-call)
    --seed <N>                    default workload synthesis seed, decimal or
                                  0x-hex (requests may override per-call)
    --workers <N>                 cap the replay fan-out inside each cell worker
    --pool <N>                    cell worker threads (default: 4)
    --lanes <N>                   cap config columns per decode-once lane group
    --cache-dir <DIR>             cell-cache directory (default: results/cache)
    --trace-store <DIR>           compact-trace store directory (default:
                                  results/traces)

ENDPOINTS:
    GET  /                        daemon info
    GET  /experiments             registered experiments and their serve mode
    GET  /metrics                 request/cell counters and latency histograms
    POST /run                     run an experiment; body:
                                  {\"experiment\":\"fig2\",\"len\":50000,
                                   \"seed\":1,\"timeout_ms\":600000}
                                  (only \"experiment\" is required); streams
                                  NDJSON progress events, then the artifact

Environment: ZBP_TRACE_LEN, ZBP_SEED, ZBP_WORKERS, ZBP_LANES,
ZBP_CACHE_DIR, ZBP_TRACE_STORE and ZBP_RESULTS_DIR are read first;
command-line flags override them.
";

/// Set by the signal handler; `Server::run`'s shutdown watcher polls it
/// and wakes the blocked accept loop.
static SHUTDOWN: AtomicBool = AtomicBool::new(false);

extern "C" fn on_signal(_signum: i32) {
    // Only async-signal-safe work here: flip the flag and return.
    SHUTDOWN.store(true, Ordering::SeqCst);
}

#[cfg(unix)]
fn install_signal_handlers() {
    // libc's signal(2) via a direct extern declaration — the workspace
    // is dependency-free, so no libc crate.
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGINT, on_signal);
        signal(SIGTERM, on_signal);
    }
}

#[cfg(not(unix))]
fn install_signal_handlers() {}

struct Args {
    addr: String,
    len: Option<u64>,
    seed: Option<u64>,
    workers: Option<usize>,
    pool: usize,
    lanes: Option<usize>,
    cache_dir: Option<String>,
    trace_store: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        addr: "127.0.0.1:7878".to_string(),
        len: None,
        seed: None,
        workers: None,
        pool: 4,
        lanes: None,
        cache_dir: None,
        trace_store: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or(format!("{arg} requires a value"));
        match arg.as_str() {
            "--addr" => args.addr = value()?,
            "--len" => {
                let v = value()?;
                args.len =
                    Some(v.parse().map_err(|e| format!("--len {v:?} is not a length: {e}"))?);
            }
            "--seed" => args.seed = Some(parse_seed(&value()?)?),
            "--workers" => {
                let v = value()?;
                args.workers =
                    Some(v.parse().map_err(|e| format!("--workers {v:?} is not a count: {e}"))?);
            }
            "--pool" => {
                let v = value()?;
                args.pool = v.parse().map_err(|e| format!("--pool {v:?} is not a count: {e}"))?;
                if args.pool == 0 {
                    return Err("--pool must be at least 1".into());
                }
            }
            "--lanes" => {
                let v = value()?;
                args.lanes =
                    Some(v.parse().map_err(|e| format!("--lanes {v:?} is not a count: {e}"))?);
            }
            "--cache-dir" => args.cache_dir = Some(value()?),
            "--trace-store" => args.trace_store = Some(value()?),
            "--help" | "-h" | "help" => {
                print!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other:?} (see --help)")),
        }
    }
    Ok(args)
}

fn results_dir() -> PathBuf {
    std::env::var("ZBP_RESULTS_DIR").map_or_else(|_| PathBuf::from("results"), PathBuf::from)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut opts = match ExperimentOptions::from_env() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    if args.len.is_some() {
        opts.len = args.len;
    }
    if let Some(seed) = args.seed {
        opts.seed = seed;
    }
    if args.workers.is_some() {
        opts.workers = args.workers;
    }
    if args.lanes.is_some() {
        opts.lanes = args.lanes;
    }
    let cache_dir = args.cache_dir.map_or_else(|| results_dir().join("cache"), PathBuf::from);
    if !opts.trace_store.is_enabled() {
        let store_dir =
            args.trace_store.map_or_else(|| results_dir().join("traces"), PathBuf::from);
        opts.trace_store = Arc::new(TraceStore::at(store_dir));
    }

    install_signal_handlers();
    let state = ServeState::new(opts, &cache_dir, args.pool);
    let server = match Server::bind(&args.addr, state) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: cannot bind {}: {e}", args.addr);
            return ExitCode::FAILURE;
        }
    };
    match server.local_addr() {
        Ok(addr) => {
            println!("zbp-serve listening on http://{addr} (cache: {})", cache_dir.display())
        }
        Err(_) => println!("zbp-serve listening on {}", args.addr),
    }
    server.run(&SHUTDOWN);
    println!("zbp-serve drained; exiting");
    ExitCode::SUCCESS
}
