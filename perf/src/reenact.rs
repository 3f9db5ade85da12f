//! The traced grid: `SimSession::run_cached` re-enacted from outside,
//! through the public call of each layer, with a span around each call.
//!
//! Per workload row, as the session does it: probe the cell cache and
//! claim the missing cells; load the row's compact capture from the
//! trace store, or synthesize, capture and store it; replay the distinct
//! missing columns in one lane group; store each computed cell and read
//! it back from its rendered bytes. Rows
//! run on the same `par_map` the session uses. The artifact is then
//! assembled by `ExperimentSpec::run` over the warmed cache, and has to
//! match the untraced run's digest.

use crate::spans::{Recorder, SpanId};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use zbp_sim::cache::{CellCache, CellKey};
use zbp_sim::experiments::{self, ExperimentOptions};
use zbp_sim::parallel::par_map;
use zbp_sim::registry::ExperimentSpec;
use zbp_sim::session::DEFAULT_MATERIALIZE_CAP;
use zbp_sim::sweep::sweep_configs;
use zbp_sim::{SimConfig, Simulator};
use zbp_support::json::{self, FromJson, Json, ToJson};
use zbp_trace::{CompactParts, CompactTrace};
use zbp_uarch::CoreResult;

/// The configuration columns of the grid experiments the benchmark
/// runs, built from the same public functions the registry uses. The
/// cell keys they give are checked against the registry's own.
fn columns(experiment: &str) -> Option<Vec<SimConfig>> {
    Some(match experiment {
        "fig2" => SimConfig::table3().to_vec(),
        "fig5" => sweep_configs(&experiments::fig5_variants(&experiments::FIGURE5_SIZES)),
        "fig6" => sweep_configs(&experiments::fig6_variants(&experiments::FIGURE6_LIMITS)),
        "ablation_steering" => sweep_configs(&experiments::steering_variants()),
        _ => return None,
    })
}

/// What a traced grid did, beyond its spans.
#[derive(Debug, Default, Clone, Copy)]
pub struct GridTally {
    /// Lanes replayed after identical columns were merged.
    pub lanes: u64,
    /// Cells computed and stored.
    pub computed: u64,
    /// Cells already in the cache.
    pub hits: u64,
}

/// Runs `spec`'s grid into `cache` under a `sim.grid` span.
pub fn grid(
    rec: &Recorder,
    run: u64,
    parent: Option<SpanId>,
    spec: &ExperimentSpec,
    opts: &ExperimentOptions,
    cache: &CellCache,
) -> Result<GridTally, String> {
    let configs = columns(spec.id).ok_or(format!("no traced grid for {}", spec.id))?;
    let session = spec.grid_session(opts).ok_or(format!("{} is not a grid", spec.id))?;
    let cells = session.cells();
    let sources = spec.sources(opts);
    let ncol = configs.len();
    let config_jsons: Vec<(String, String)> = configs
        .iter()
        .map(|c| (json::to_string(&c.predictor), json::to_string(&c.uarch)))
        .collect();
    if cells.len() != sources.len() * ncol {
        return Err(format!("{}: {} cells for {} columns", spec.id, cells.len(), ncol));
    }
    for cell in &cells {
        let s = &sources[cell.row];
        let (pred, uarch) = &config_jsons[cell.col];
        let key = CellKey::sim(&s.key_json(), opts.seed, opts.len_for_source(s), pred, uarch);
        if key != cell.key {
            return Err(format!("{}: the traced columns no longer match the registry", spec.id));
        }
    }

    let (lanes, computed, hits) = (AtomicU64::new(0), AtomicU64::new(0), AtomicU64::new(0));
    // Capture buffers are recycled across rows, as the session does.
    let pool: Mutex<Vec<CompactParts>> = Mutex::new(Vec::new());
    let rows: Vec<usize> = (0..sources.len()).collect();
    let results = rec.span("sim.grid", parent, run, |grid| {
        par_map(&rows, |&row| {
            rec.span("sim.row", Some(grid), run, |row_span| -> Result<(), String> {
                let s = &sources[row];
                let len = opts.len_for_source(s);
                let keys: Vec<&CellKey> =
                    cells[row * ncol..(row + 1) * ncol].iter().map(|c| &c.key).collect();
                let probed = rec.span("sim.cache_probe", Some(row_span), run, |_| {
                    let mut missing = Vec::new();
                    for (i, key) in keys.iter().enumerate() {
                        match cache.load(key) {
                            Some(hit) => {
                                roundtrip(&hit)?;
                            }
                            None => missing.push(i),
                        }
                    }
                    let guards: Vec<_> =
                        missing.iter().filter_map(|&i| cache.try_claim(keys[i])).collect();
                    Ok::<_, String>((missing, guards))
                });
                let (missing, guards) = probed?;
                hits.fetch_add((ncol - missing.len()) as u64, Ordering::Relaxed);
                if missing.is_empty() {
                    return Ok(());
                }
                if guards.len() != missing.len() {
                    return Err(format!("{}: a cell of row {row} is claimed elsewhere", spec.id));
                }

                let store = &opts.trace_store;
                let store_key = s.store_key(opts.seed, len);
                let stored = store.path_for(&store_key).is_some_and(|p| p.exists());
                let parts =
                    pool.lock().expect("capture pool lock poisoned").pop().unwrap_or_default();
                let load_span = if stored { "trace.store_load" } else { "trace.store_probe" };
                let loaded =
                    rec.span(load_span, Some(row_span), run, |_| store.load(&store_key, parts));
                let compact = match loaded {
                    Ok(compact) => compact,
                    Err(parts) => {
                        let compact = rec.span("trace.capture", Some(row_span), run, |_| {
                            let trace = s.build_with_len(opts.seed, len);
                            CompactTrace::capture_within_into(
                                &trace,
                                DEFAULT_MATERIALIZE_CAP,
                                parts,
                            )
                        });
                        let compact =
                            compact.map_err(|e| format!("{}: capture failed: {e:?}", s.name()))?;
                        rec.span("trace.store_write", Some(row_span), run, |_| {
                            store.store(&store_key, &compact)
                        });
                        compact
                    }
                };

                // Columns with byte-equal configurations share one lane.
                let mut distinct: Vec<usize> = Vec::new();
                let lane_of: Vec<usize> = missing
                    .iter()
                    .map(|&i| {
                        distinct
                            .iter()
                            .position(|&d| config_jsons[d] == config_jsons[i])
                            .unwrap_or_else(|| {
                                distinct.push(i);
                                distinct.len() - 1
                            })
                    })
                    .collect();
                let lane_configs: Vec<&SimConfig> = distinct.iter().map(|&i| &configs[i]).collect();
                let replayed = rec.span("uarch.replay", Some(row_span), run, |_| {
                    Simulator::run_configs_compact_lanes(&lane_configs, &compact)
                });
                lanes.fetch_add(distinct.len() as u64, Ordering::Relaxed);
                if let Some(back) = compact.into_parts() {
                    pool.lock().expect("capture pool lock poisoned").push(back);
                }

                for (&i, &lane) in missing.iter().zip(&lane_of) {
                    let entry = rec.span("sim.cache_store", Some(row_span), run, |_| {
                        let entry = replayed[lane].core.to_json();
                        cache.store(keys[i], &entry);
                        entry
                    });
                    rec.span("sim.cell_roundtrip", Some(row_span), run, |_| roundtrip(&entry))?;
                }
                computed.fetch_add(missing.len() as u64, Ordering::Relaxed);
                drop(guards);
                Ok(())
            })
        })
    });
    results.into_iter().collect::<Result<Vec<()>, String>>()?;
    Ok(GridTally {
        lanes: lanes.into_inner(),
        computed: computed.into_inner(),
        hits: hits.into_inner(),
    })
}

/// Reads a cell back from its rendered bytes, as the session does with
/// every cell it hits or stores.
fn roundtrip(entry: &Json) -> Result<CoreResult, String> {
    let parsed = Json::parse(&entry.render()).map_err(|e| e.to_string())?;
    CoreResult::from_json(&parsed).map_err(|e| e.to_string())
}
