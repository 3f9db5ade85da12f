//! The grid workloads: one registry experiment run through a fresh cell
//! cache, in-process, as `zbp-cli experiment run` runs it.
//!
//! - `fig5_warm`: `fig5` over a trace store built in setup, so every row
//!   loads its capture and the time goes to replay in 6-lane groups.
//! - `fig2_cold`: `fig2` over an empty trace store every time, so each
//!   row also synthesizes, encodes and stores its capture, and replay
//!   runs 3-lane groups.

use crate::common::{self, options, ModelCounts, Report, Scratch, Times, WORKERS};
use crate::host::Watch;
use crate::layers::{self, Traced};
use crate::reenact;
use crate::serve::{self, Daemon};
use crate::spans::{Recorder, SpanId};
use crate::speed::Speed;
use crate::Args;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use zbp_sim::cache::CellCache;
use zbp_sim::experiments::ExperimentOptions;
use zbp_sim::parallel::{par_map, set_worker_cap};
use zbp_sim::registry::ExperimentSpec;
use zbp_support::json::ToJson;
use zbp_trace::{CompactParts, CompactTrace, TraceStore};

/// Instructions per workload row.
pub const LEN: u64 = 1_000_000;
/// Timed repetitions after each set-up. Set-ups are spread over the
/// run, so that `setup_s` and the repetitions sample the same stretch
/// of host time.
const REPS_PER_SETUP: usize = 3;
/// Set-ups per run, at least; `setup_s` is their median.
const MIN_SETUPS: usize = 3;

pub struct Grid {
    pub name: &'static str,
    pub experiment: &'static str,
    /// Whether setup builds the trace store that every repetition reads.
    pub warm_store: bool,
}

pub const FIG5_WARM: Grid = Grid { name: "fig5_warm", experiment: "fig5", warm_store: true };
pub const FIG2_COLD: Grid = Grid { name: "fig2_cold", experiment: "fig2", warm_store: false };

/// Synthesizes, captures and stores every row's trace.
fn build_store(
    spec: &ExperimentSpec,
    opts: &ExperimentOptions,
    traced: Option<(&Recorder, SpanId)>,
) -> Result<(), String> {
    let timed = |name: &'static str, f: &mut dyn FnMut()| match traced {
        Some((rec, parent)) => rec.span(name, Some(parent), 0, |_| f()),
        None => f(),
    };
    let sources = spec.sources(opts);
    par_map(&sources, |s| {
        let len = opts.len_for_source(s);
        let mut compact = None;
        timed("trace.capture", &mut || {
            compact = Some(CompactTrace::capture_within_into(
                &s.build_with_len(opts.seed, len),
                u64::MAX,
                CompactParts::default(),
            ));
        });
        let compact = compact
            .expect("capture ran")
            .map_err(|e| format!("{}: capture failed: {e:?}", s.name()))?;
        timed("trace.store_write", &mut || {
            opts.trace_store.store(&s.store_key(opts.seed, len), &compact)
        });
        Ok(())
    })
    .into_iter()
    .collect()
}

/// Checks one run of the experiment over a fresh cell cache: its digest
/// against the first run's, no cache hits, and its trace-store traffic.
struct Expect {
    digest: Option<String>,
    rows: u64,
    warm_store: bool,
}

impl Expect {
    fn check(&mut self, run: &zbp_sim::ExperimentRun) -> Option<String> {
        let m = &run.manifest;
        let digest = common::artifact_digest(&run.artifact());
        let want = self.digest.get_or_insert_with(|| digest.clone());
        if digest != *want {
            return Some(format!("artifact digest {digest}, the first run gave {want}"));
        }
        if m.cache_hits != 0 {
            return Some(format!("{} cells came from a fresh cache", m.cache_hits));
        }
        let store = (m.trace_store_hits, m.trace_store_misses);
        let want_store =
            if self.warm_store { (Some(self.rows), Some(0)) } else { (Some(0), Some(self.rows)) };
        (store != want_store)
            .then(|| format!("trace store hits/misses {store:?}, expected {want_store:?}"))
    }
}

/// Simulated instructions a run of `spec` covers: cells × instructions
/// per cell.
fn instructions(run: &zbp_sim::ExperimentRun) -> u64 {
    let lens = &run.manifest.trace_lens;
    let per_row: u64 = lens.iter().map(|(_, l)| l).sum();
    per_row * run.manifest.cells / lens.len().max(1) as u64
}

pub fn run(g: &Grid, a: &Args) -> Result<Report, String> {
    set_worker_cap(Some(WORKERS));
    if a.trace {
        traced(g, a)
    } else {
        untraced(g, a)
    }
}

fn untraced(g: &Grid, a: &Args) -> Result<Report, String> {
    let spec = common::spec(g.experiment)?;
    let mut scratch = Scratch::new(g.name)?;
    let mut report = Report::default();
    let rows = spec.sources(&options(a.seed, LEN, Path::new("."))).len() as u64;
    let mut expect = Expect { digest: None, rows, warm_store: g.warm_store };

    let (mut setup, mut grids) = (Times::default(), Times::default());
    let mut speed = Speed::default();
    let mut kept_store: Option<PathBuf> = None;
    let mut counts: Option<ModelCounts> = None;
    let mut instr = 0;
    let budget = Duration::from_secs_f64(a.seconds);
    let started = Instant::now();
    while setup.len() < MIN_SETUPS || started.elapsed() < budget {
        speed.sample()?;
        // Set-up: build a trace store (fig5_warm), or run one warm-up
        // repetition over empty directories (fig2_cold).
        let store = scratch.fresh("store")?;
        let w = Watch::start();
        if g.warm_store {
            build_store(spec, &options(a.seed, LEN, &store), None)?;
            setup.push(&w);
            if let Some(old) = kept_store.replace(store) {
                scratch.remove(&old);
            }
        } else {
            let cache = scratch.fresh("cache")?;
            let run = spec.run(&options(a.seed, LEN, &store), &CellCache::at(&cache));
            setup.push(&w);
            report.check(0, expect.check(&run));
            scratch.remove(&cache);
            scratch.remove(&store);
        }

        for _ in 0..REPS_PER_SETUP {
            let store = match &kept_store {
                Some(dir) => dir.clone(),
                None => scratch.fresh("store")?,
            };
            let cache_dir = scratch.fresh("cache")?;
            let opts = options(a.seed, LEN, &store);
            let cache = CellCache::at(&cache_dir);

            let w = Watch::start();
            let run = spec.run(&opts, &cache);
            grids.push(&w);

            instr = instructions(&run);
            let mut problem = expect.check(&run);
            match ModelCounts::from_cache(spec, &opts, &cache) {
                Ok(c) if *counts.get_or_insert(c) != c => {
                    problem = problem.or(Some(format!("model counts changed: {c:?}")));
                }
                Ok(_) => {}
                Err(e) => problem = problem.or(Some(e)),
            }
            report.check(run.manifest.cells, problem);

            scratch.remove(&cache_dir);
            if kept_store.is_none() {
                scratch.remove(&store);
            }
        }
    }

    // One grid run is one request of a CLI user: the request metrics
    // describe the same repetitions `sim_mips` times, one after another
    // by a single client. Every time is at nominal host speed.
    let grid_s = speed.nominal(grids.median());
    let total_s = speed.nominal(grids.secs.iter().sum::<f64>());
    report.metric("sim_mips", instr as f64 / grid_s / 1e6, "Minstr/s");
    report.metric("req_p50_ms", grid_s * 1e3, "ms");
    report.metric("req_p90_ms", speed.nominal(grids.percentile(90.0)) * 1e3, "ms");
    report.metric("req_per_s", grids.len() as f64 / total_s, "req/s");
    report.metric("setup_s", speed.nominal(setup.median()), "s");
    report.metric("peak_rss_mb", common::peak_rss_mb("self")?, "MiB");

    report.detail("raw_sim_mips", (instr as f64 / grids.median() / 1e6).to_json());
    report.detail("reference_s", speed.detail());
    report.detail("grid_s", grids.detail());
    report.detail("setup_s", setup.detail());
    let digest = expect.digest.unwrap_or_default();
    report.check_recorded(g.name, a.seed, &digest);
    report.detail("digest", digest.to_json());
    Ok(report)
}

fn traced(g: &Grid, a: &Args) -> Result<Report, String> {
    let spec = common::spec(g.experiment)?;
    let mut scratch = Scratch::new(g.name)?;
    let mut report = Report::default();
    let rows = spec.sources(&options(a.seed, LEN, Path::new("."))).len() as u64;
    let mut expect = Expect { digest: None, rows, warm_store: g.warm_store };
    let rec = Recorder::default();

    let warm_dir = if g.warm_store {
        let dir = scratch.fresh("store")?;
        rec.span("bench.setup", None, 0, |setup| {
            build_store(spec, &options(a.seed, LEN, &dir), Some((&rec, setup)))
        })?;
        Some(dir)
    } else {
        None
    };
    let store_for = |scratch: &mut Scratch| match &warm_dir {
        Some(dir) => Ok(dir.clone()),
        None => scratch.fresh("store"),
    };

    let budget = Duration::from_secs_f64(a.seconds * 0.7);
    let started = Instant::now();
    let (mut untraced, mut traced_reps) = (Times::default(), Times::default());
    let mut run_id = 0;
    let mut tally = reenact::GridTally::default();
    let mut total_lanes = 0;
    let mut counts = None;
    let mut store_stats = Default::default();
    let mut last: Option<(PathBuf, PathBuf)> = None;
    while run_id < 2 || started.elapsed() < budget {
        // An untraced repetition before each traced one, so that the two
        // are timed on the same host state: it gives the digest the
        // traced repetitions must reproduce and the wall time tracing is
        // compared with.
        let (store, cache) = (store_for(&mut scratch)?, scratch.fresh("cache")?);
        let w = Watch::start();
        let run = spec.run(&options(a.seed, LEN, &store), &CellCache::at(&cache));
        untraced.push(&w);
        report.check(run.manifest.cells, expect.check(&run));
        scratch.remove(&cache);
        if warm_dir.is_none() {
            scratch.remove(&store);
        }
        let reference = expect.digest.clone().expect("the untraced run set the digest");

        run_id += 1;
        let (store, cache_dir) = (store_for(&mut scratch)?, scratch.fresh("cache")?);
        let opts = options(a.seed, LEN, &store);
        let cache = CellCache::at(&cache_dir);
        let w = Watch::start();
        let (t, artifact) = rec.span("bench.rep", None, run_id, |rep| -> Result<_, String> {
            let t = reenact::grid(&rec, run_id, Some(rep), spec, &opts, &cache)?;
            let run = rec.span("sim.assemble", Some(rep), run_id, |_| spec.run(&opts, &cache));
            Ok((t, run.artifact()))
        })?;
        traced_reps.push(&w);
        let cells = t.computed + t.hits;
        let digest = common::artifact_digest(&artifact);
        let mut problem = (digest != reference)
            .then(|| format!("traced digest {digest}, untraced {reference}"))
            .or_else(|| (t.hits != 0).then(|| format!("{} cells were already cached", t.hits)));
        match ModelCounts::from_cache(spec, &opts, &cache) {
            Ok(c) if *counts.get_or_insert(c) != c => {
                problem = problem.or(Some("model counts changed".into()))
            }
            Ok(_) => {}
            Err(e) => problem = problem.or(Some(e)),
        }
        store_stats = opts.trace_store.stats();
        let want_store = if g.warm_store { (rows, 0) } else { (0, rows) };
        if (store_stats.hits, store_stats.misses) != want_store {
            problem =
                problem.or(Some(format!("trace store {store_stats:?}, expected {want_store:?}")));
        }
        report.check(cells, problem);
        total_lanes += t.lanes;
        tally = t;

        // Outside the repetition: read every cell back, and for a cold
        // store load every capture it just wrote.
        let session = spec.grid_session(&opts).expect("grid experiment");
        rec.span("bench.read", None, run_id, |read| {
            for cell in session.cells() {
                rec.span("sim.cache_load", Some(read), run_id, |_| cache.load(&cell.key));
            }
        });
        if warm_dir.is_none() {
            let reload = TraceStore::at(&store);
            for s in spec.sources(&opts) {
                let key = s.store_key(opts.seed, opts.len_for_source(&s));
                let loaded = rec.span("trace.store_load", None, run_id, |_| {
                    reload.load(&key, CompactParts::default())
                });
                if loaded.is_err() {
                    report
                        .check(0, Some(format!("{}: stored capture did not load back", s.name())));
                }
            }
        }
        if let Some((old_store, old_cache)) = last.replace((store, cache_dir)) {
            scratch.remove(&old_cache);
            if warm_dir.is_none() {
                scratch.remove(&old_store);
            }
        }
    }

    // The same experiment through the daemon over the last warm cache.
    let (store, cache_dir) = last.expect("at least one repetition");
    let reference = expect.digest.clone().expect("the untraced runs set the digest");
    let daemon = Daemon::boot(&a.serve_bin, &cache_dir, &store)?;
    let before = daemon.metrics()?;
    let mut reference_by_exp = BTreeMap::new();
    reference_by_exp.insert(g.experiment, reference.clone());
    let window = Duration::from_secs_f64(a.seconds * 0.15);
    let probe =
        serve::open_loop(daemon.addr, &[g.experiment], LEN, a.seed, 0, window, &reference_by_exp);
    let after = daemon.metrics()?;
    drop(daemon);
    probe.count(&mut report);

    let spans = rec.spans();
    let traced = Traced {
        spans: &spans,
        len: LEN,
        lanes: total_lanes,
        lanes_per_grid: tally.lanes,
        counts: counts.unwrap_or_default(),
        store_dir: &store,
        store: store_stats,
        cells: tally.computed + tally.hits,
        cells_computed: tally.computed,
        cache_hits: tally.hits,
        serve: &probe,
        metrics_cache_hits: serve::counter(&after, "cache_hits")?
            - serve::counter(&before, "cache_hits")?,
        metrics_errors: serve::counter(&after, "errors")? - serve::counter(&before, "errors")?,
        overhead_s: traced_reps.median() - untraced.median(),
        spans_out: &a.spans_path(),
    };
    if traced.metrics_cache_hits != probe.served.cache_hits {
        report.check(
            0,
            Some(format!(
                "/metrics counted {} hits, the client {}",
                traced.metrics_cache_hits, probe.served.cache_hits
            )),
        );
    }
    layers::report(&traced, &mut report)?;
    report.check_recorded(g.name, a.seed, &reference);
    report.detail("traced_repetitions", run_id.to_json());
    report.detail("digest", reference.to_json());
    Ok(report)
}
