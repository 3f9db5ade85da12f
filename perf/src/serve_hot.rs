//! The serving workload `serve_hot`: the real `zbp-serve` daemon on
//! loopback, with every cell of its request mix already cached, so a
//! request costs the daemon's accept, HTTP and NDJSON work plus the cell
//! cache's read path and registry assembly, and no replay.

use crate::common::{self, options, Report, Scratch, Times, WORKERS};
use crate::host::Watch;
use crate::layers::{self, Traced};
use crate::loadgen;
use crate::reenact;
use crate::serve::{self, check_reply, Daemon};
use crate::spans::Recorder;
use crate::speed::Speed;
use crate::stats::{median, percentile, quartiles};
use crate::Args;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;
use zbp_sim::cache::CellCache;
use zbp_sim::experiments::ExperimentOptions;
use zbp_sim::parallel::set_worker_cap;
use zbp_support::json::{Json, ToJson};
use zbp_trace::TraceStore;

/// Instructions per workload row.
pub const LEN: u64 = 200_000;
/// The request mix: grids of 39 to 91 cells.
pub const MIX: [&str; 4] = ["fig2", "fig5", "fig6", "ablation_steering"];
/// Rounds per run, at least. Each round sets up once, on a daemon of
/// its own, then sends the hot daemon an open-loop slice and a
/// closed-loop slice, so that every metric samples the whole run.
const MIN_ROUNDS: usize = 3;
/// Open-loop time per round.
const OPEN_SLICE: Duration = Duration::from_millis(2500);
/// Closed-loop time per round.
const CLOSED_SLICE: Duration = Duration::from_millis(1000);

pub fn run(a: &Args) -> Result<Report, String> {
    set_worker_cap(Some(WORKERS));
    if a.trace {
        traced(a)
    } else {
        untraced(a)
    }
}

/// Options for the read-only calls against the daemon's warm cache: no
/// trace store, since every cell is a hit and nothing replays.
fn read_only(seed: u64) -> ExperimentOptions {
    ExperimentOptions {
        trace_store: Arc::new(TraceStore::disabled()),
        ..options(seed, LEN, Path::new("."))
    }
}

/// The artifact digest of each experiment of the mix, from an
/// in-process `ExperimentSpec::run` over `cache`, which must be warm.
/// Each call is a `sim.assemble` span when `rec` is given.
fn references(
    seed: u64,
    cache: &CellCache,
    rec: Option<&Recorder>,
) -> Result<BTreeMap<&'static str, String>, String> {
    let opts = read_only(seed);
    let mut out = BTreeMap::new();
    for exp in MIX {
        let spec = common::spec(exp)?;
        let run = match rec {
            Some(rec) => rec.span("sim.assemble", None, 0, |_| spec.run(&opts, cache)),
            None => spec.run(&opts, cache),
        };
        if run.manifest.cache_hits != run.manifest.cells {
            return Err(format!(
                "{exp}: {} of {} cells cached",
                run.manifest.cache_hits, run.manifest.cells
            ));
        }
        out.insert(exp, common::artifact_digest(&run.artifact()));
    }
    Ok(out)
}

/// Recorded digests must match for the default seed.
fn check_expected(report: &mut Report, seed: u64, refs: &BTreeMap<&'static str, String>) {
    for (exp, digest) in refs {
        report.check_recorded(&format!("serve_hot:{exp}"), seed, digest);
    }
}

/// One set-up: boots a daemon over an empty cache and store and requests
/// each experiment of the mix once, which computes every cell. Checks
/// each reply, against `refs` when given, counts each request as an
/// operation, and returns the daemon with its setup time and its cold
/// throughput, Minstr/s.
fn set_up(
    a: &Args,
    cache: &Path,
    store: &Path,
    refs: Option<&BTreeMap<&'static str, String>>,
    report: &mut Report,
) -> Result<(Daemon, Watch, f64), String> {
    let w = Watch::start();
    let daemon = Daemon::boot(&a.serve_bin, cache, store)?;
    let warm = Watch::start();
    let mut instr = 0;
    for exp in MIX {
        let reply = serve::post_run(daemon.addr, &serve::run_body(exp, LEN, a.seed))?;
        let want = refs.and_then(|r| r.get(exp)).map(String::as_str);
        match check_reply(&reply, false, want) {
            Ok(served) => {
                instr += served.cells * LEN;
                report.check(1, None);
            }
            Err(e) => report.check(1, Some(format!("computing {exp}: {e}"))),
        }
    }
    let mips = instr as f64 / warm.secs() / 1e6;
    Ok((daemon, w, mips))
}

fn untraced(a: &Args) -> Result<Report, String> {
    let mut scratch = Scratch::new("serve_hot")?;
    let mut report = Report::default();
    let mut setup = Times::default();
    let mut cold_mips = Vec::new();
    let mut speed = Speed::default();

    // The first set-up warms the cache the hot daemon serves.
    let (cache_dir, store) = (scratch.fresh("cache")?, scratch.fresh("store")?);
    let (first, w, mips) = set_up(a, &cache_dir, &store, None, &mut report)?;
    setup.push(&w);
    cold_mips.push(mips);
    drop(first);
    let refs = references(a.seed, &CellCache::at(&cache_dir), None)?;
    check_expected(&mut report, a.seed, &refs);
    // A daemon of its own over the warm cache, so that its peak memory
    // is that of hot serving alone.
    let daemon = Daemon::boot(&a.serve_bin, &cache_dir, &store)?;
    let before = daemon.metrics()?;

    let mut latency_ms = Vec::new();
    let mut lateness_ms = Vec::new();
    let (mut open_requests, mut served) = (0, serve::Served::default());
    let (mut rates, mut closed_requests) = (Vec::new(), 0);
    let budget = Duration::from_secs_f64(a.seconds);
    let started = std::time::Instant::now();
    let mut round = 0;
    while round < MIN_ROUNDS || started.elapsed() < budget {
        speed.sample()?;
        if round > 0 {
            let (cache, store) = (scratch.fresh("cache")?, scratch.fresh("store")?);
            let (cold, w, mips) = set_up(a, &cache, &store, Some(&refs), &mut report)?;
            setup.push(&w);
            cold_mips.push(mips);
            drop(cold);
            scratch.remove(&cache);
            scratch.remove(&store);
        }
        let slice = round as u64;
        round += 1;

        let open = serve::open_loop(daemon.addr, &MIX, LEN, a.seed, slice, OPEN_SLICE, &refs);
        open.count(&mut report);
        open_requests += open.requests;
        served.cells += open.served.cells;
        served.cache_hits += open.served.cache_hits;
        latency_ms.extend(open.latency_ms);
        lateness_ms.extend(open.lateness_ms);

        let picks = serve::draw(a.seed.wrapping_add(1 + slice), &MIX, 1 << 12);
        let bodies: Vec<String> = picks.iter().map(|e| serve::run_body(e, LEN, a.seed)).collect();
        let w = Watch::start();
        let replies = loadgen::closed_loop(WORKERS, CLOSED_SLICE, |i| {
            (i, serve::post_run(daemon.addr, &bodies[i % bodies.len()]))
        });
        rates.push(replies.len() as f64 / w.secs());
        closed_requests += replies.len() as u64;
        for (i, reply) in &replies {
            let exp = picks[i % picks.len()];
            let checked = reply
                .as_ref()
                .map_err(Clone::clone)
                .and_then(|r| check_reply(r, true, refs.get(exp).map(String::as_str)));
            match checked {
                Ok(s) => {
                    served.cells += s.cells;
                    served.cache_hits += s.cache_hits;
                    report.check(1, None);
                }
                Err(e) => report.check(1, Some(format!("{exp}: {e}"))),
            }
        }
    }

    let after = daemon.metrics()?;
    let delta =
        |name| Ok::<_, String>(serve::counter(&after, name)? - serve::counter(&before, name)?);
    let (hits, errors, computed) =
        (delta("cache_hits")?, delta("errors")?, delta("cells_computed")?);
    if hits != served.cache_hits || errors != 0 || computed != 0 {
        report.check(
            0,
            Some(format!(
                "/metrics: {hits} hits (client saw {}), {errors} errors, {computed} computed",
                served.cache_hits
            )),
        );
    }

    // The set-ups are CPU-bound work and are given at nominal host
    // speed. The request figures are not: about half of each request is
    // the daemon's accept-poll sleep, which host speed does not stretch.
    let cold = median(&cold_mips).expect("set-ups ran");
    report.metric("sim_mips", cold * speed.slowdown(), "Minstr/s");
    report.metric("req_p50_ms", median(&latency_ms).unwrap_or(0.0), "ms");
    report.metric("req_p90_ms", percentile(&latency_ms, 90.0).unwrap_or(0.0), "ms");
    report.metric("req_per_s", median(&rates).unwrap_or(0.0), "req/s");
    report.metric("setup_s", speed.nominal(setup.median()), "s");
    report.metric("peak_rss_mb", daemon.peak_rss_mb()?, "MiB");

    report.detail("raw_sim_mips", cold.to_json());
    report.detail("reference_s", speed.detail());

    let spread = |v: &[f64]| {
        quartiles(v).map_or(Json::Null, |(q1, q3)| Json::Arr(vec![Json::Num(q1), Json::Num(q3)]))
    };
    report.detail("rounds", (round as u64).to_json());
    report.detail("open_loop_requests", open_requests.to_json());
    report.detail("latency_ms_quartiles", spread(&latency_ms));
    report.detail("lateness_p90_ms", percentile(&lateness_ms, 90.0).unwrap_or(0.0).to_json());
    report.detail("closed_loop_requests", closed_requests.to_json());
    report.detail("req_per_s_quartiles", spread(&rates));
    report.detail("cold_mips_quartiles", spread(&cold_mips));
    report.detail("setup_s", setup.detail());
    report.detail(
        "digests",
        Json::Obj(refs.iter().map(|(k, v)| (k.to_string(), v.to_json())).collect()),
    );
    Ok(report)
}

fn traced(a: &Args) -> Result<Report, String> {
    let mut scratch = Scratch::new("serve_hot")?;
    let mut report = Report::default();
    let rec = Recorder::default();

    // The untraced warm-up the traced one is compared with: each
    // experiment through the registry over a fresh cache and store.
    let (cache, store) = (scratch.fresh("cache")?, scratch.fresh("store")?);
    let (mut untraced, mut traced_reps) = (Times::default(), Times::default());
    let mut untraced_refs = BTreeMap::new();
    for exp in MIX {
        let w = Watch::start();
        let run = common::spec(exp)?.run(&options(a.seed, LEN, &store), &CellCache::at(&cache));
        untraced.push(&w);
        untraced_refs.insert(exp, common::artifact_digest(&run.artifact()));
    }
    scratch.remove(&cache);
    scratch.remove(&store);

    // The traced warm-up: each experiment's grid re-enacted into the
    // cache the daemon will serve, then assembled.
    let (cache_dir, store) = (scratch.fresh("cache")?, scratch.fresh("store")?);
    let opts = options(a.seed, LEN, &store);
    let cache = CellCache::at(&cache_dir);
    let mut counts = common::ModelCounts::default();
    let mut lanes = 0;
    for (run_id, exp) in (1..).zip(MIX) {
        let spec = common::spec(exp)?;
        let w = Watch::start();
        let artifact = rec.span("bench.rep", None, run_id, |rep| -> Result<_, String> {
            lanes += reenact::grid(&rec, run_id, Some(rep), spec, &opts, &cache)?.lanes;
            Ok(rec.span("sim.assemble", Some(rep), run_id, |_| spec.run(&opts, &cache)).artifact())
        })?;
        traced_reps.push(&w);
        let digest = common::artifact_digest(&artifact);
        if untraced_refs.get(exp) != Some(&digest) {
            report.check(
                0,
                Some(format!(
                    "{exp}: traced digest {digest}, untraced {:?}",
                    untraced_refs.get(exp)
                )),
            );
        }
    }
    let store_stats = opts.trace_store.stats();
    let mut cells = 0;
    for exp in MIX {
        let spec = common::spec(exp)?;
        counts.merge(common::ModelCounts::from_cache(spec, &opts, &cache)?);
        cells += spec.grid_session(&opts).map_or(0, |s| s.cells().len() as u64);
    }

    let daemon = Daemon::boot(&a.serve_bin, &cache_dir, &store)?;
    // Read-only calls against the daemon's warm cache.
    let refs = references(a.seed, &cache, Some(&rec))?;
    check_expected(&mut report, a.seed, &refs);
    for exp in MIX {
        let session = common::spec(exp)?.grid_session(&read_only(a.seed)).expect("grid experiment");
        for cell in session.cells() {
            rec.span("sim.cache_load", None, 0, |_| cache.load(&cell.key));
        }
    }
    let before = daemon.metrics()?;
    let window = Duration::from_secs_f64(a.seconds * 0.7);
    let open = serve::open_loop(daemon.addr, &MIX, LEN, a.seed, 0, window, &refs);
    let after = daemon.metrics()?;
    drop(daemon);
    open.count(&mut report);

    let spans = rec.spans();
    let delta =
        |name| Ok::<_, String>(serve::counter(&after, name)? - serve::counter(&before, name)?);
    let traced = Traced {
        spans: &spans,
        len: LEN,
        lanes,
        lanes_per_grid: lanes,
        counts,
        store_dir: &store,
        store: store_stats,
        cells: open.served.cells,
        cells_computed: delta("cells_computed")?,
        cache_hits: open.served.cache_hits,
        serve: &open,
        metrics_cache_hits: delta("cache_hits")?,
        metrics_errors: delta("errors")?,
        overhead_s: traced_reps.median() - untraced.median(),
        spans_out: &a.spans_path(),
    };
    if traced.metrics_cache_hits != open.served.cache_hits
        || traced.cells_computed != 0
        || traced.metrics_errors != 0
        || open.served.cache_hits != open.served.cells
    {
        report.check(0, Some("the daemon's /metrics disagree with the client's tallies".into()));
    }
    layers::report(&traced, &mut report)?;
    report.detail("warmup_cells", cells.to_json());
    Ok(report)
}
