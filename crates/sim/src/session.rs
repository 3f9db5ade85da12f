//! Batched simulation sessions.
//!
//! A [`SimSession`] describes a workload × configuration grid once and
//! runs it workload-major: rows fan out across workloads through
//! [`par_map`], and the configuration columns within a row batch into
//! decode-once lane groups ([`LaneGroup`]) that replay the row's one
//! compact capture with a single trace walk, instead of each experiment
//! hand-rolling its own loop over [`Simulator`](crate::Simulator). The
//! resulting [`SessionGrid`] answers the questions every figure asks:
//! the CPI of a cell, or the improvement of one configuration over
//! another on the same workload.
//!
//! Each row is captured once, in compact form only: loaded from the
//! trace store when one is attached and holds it, otherwise synthesized
//! and encoded (then persisted to the store). A row whose capture would
//! exceed [`DEFAULT_MATERIALIZE_CAP`] is captured and replayed chunk by
//! chunk through the same lane groups instead, so memory stays bounded
//! by the chunk size whatever the row's length. Capture buffers recycle
//! across rows, so at most one capture per worker is resident.
//!
//! [`SimSession::run_cached`] runs the same grid through the cell cache.
//! A hit costs one file read and one parse: it is decoded from the value
//! the cache parsed out of the file ([`cached_cell`]), and only freshly
//! computed cells take the render → parse round trip that makes them
//! read exactly like a hit. A caller that already holds some hits — the
//! serving daemon streams every cell before it assembles the artifact —
//! hands them in through [`SimSession::run_cached_with_hits`] so that
//! no cell is read twice.

use crate::cache::{CellCache, CellKey};
use crate::config::SimConfig;
use crate::experiments::ExperimentOptions;
use crate::parallel::par_map;
use crate::runner::SimResult;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use zbp_support::json::{self, FromJson, Json, ToJson};
use zbp_trace::source::WorkloadSource;
use zbp_trace::{CompactParts, CompactTrace, Trace, TraceInstr, TraceStore};
use zbp_uarch::core::{CoreModel, CoreResult, LaneGroup, ReplayPlan};

/// Builder for a batched workload × configuration run.
///
/// ```
/// use zbp_sim::session::SimSession;
/// use zbp_sim::SimConfig;
/// use zbp_trace::profile::WorkloadProfile;
///
/// let grid = SimSession::new()
///     .seed(7)
///     .max_len(5_000)
///     .workload(WorkloadProfile::tpf_airline())
///     .configs(vec![SimConfig::no_btb2(), SimConfig::btb2_enabled()])
///     .run();
/// let gain = grid.improvement("TPF airline reservations", "BTB2 enabled", "No BTB2");
/// assert!(gain.is_finite());
/// ```
#[derive(Debug, Clone)]
pub struct SimSession {
    seed: u64,
    len: Option<u64>,
    lanes: Option<usize>,
    store: Arc<TraceStore>,
    workloads: Vec<WorkloadSource>,
    configs: Vec<SimConfig>,
}

impl Default for SimSession {
    fn default() -> Self {
        Self::new()
    }
}

/// Bound on the compact bytes of one row's capture: a row within it is
/// captured whole (and persisted to an attached trace store), and a
/// longer row is captured and replayed in chunks of about this size.
/// 1 GiB holds every Table-4 workload at its default length whole (the
/// largest is about 25 MB); only external traces of several hundred
/// million instructions are chunked.
pub const DEFAULT_MATERIALIZE_CAP: u64 = 1 << 30;

impl SimSession {
    /// An empty session with the default seed and uncapped lengths.
    pub fn new() -> Self {
        let opts = ExperimentOptions::default();
        Self {
            seed: opts.seed,
            len: opts.len,
            lanes: opts.lanes,
            store: Arc::new(TraceStore::disabled()),
            workloads: Vec::new(),
            configs: Vec::new(),
        }
    }

    /// Takes seed, length cap, lane width and trace store from
    /// [`ExperimentOptions`].
    pub fn from_options(opts: &ExperimentOptions) -> Self {
        Self {
            seed: opts.seed,
            len: opts.len,
            lanes: opts.lanes,
            store: Arc::clone(&opts.trace_store),
            ..Self::new()
        }
    }

    /// Sets the workload synthesis seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Caps dynamic instructions per workload. Each workload runs for
    /// `min(len, profile.default_len)` instructions, matching
    /// [`ExperimentOptions::len_for`].
    #[must_use]
    pub fn max_len(mut self, len: u64) -> Self {
        self.len = Some(len);
        self
    }

    /// Caps how many configuration columns one decode-once lane group
    /// replays together (`None`, the default, batches every requested
    /// column of a row in a single group; `1` degrades to sequential
    /// per-column replay). Purely a batching knob — any lane width
    /// produces bit-identical results.
    #[must_use]
    pub fn lanes(mut self, lanes: usize) -> Self {
        self.lanes = Some(lanes);
        self
    }

    /// Attaches a persistent compact-trace store: workload rows load
    /// their capture from disk instead of regenerating it, and freshly
    /// captured rows are persisted for the next run. Store-loaded
    /// replays are bit-identical to generate-and-encode replays (the
    /// store only short-circuits *capture*, never simulation). Rows
    /// captured in chunks are not persisted.
    #[must_use]
    pub fn trace_store(mut self, store: Arc<TraceStore>) -> Self {
        self.store = store;
        self
    }

    /// Adds one workload row: a synthetic [`WorkloadProfile`] or any
    /// other [`WorkloadSource`].
    #[must_use]
    pub fn workload(mut self, source: impl Into<WorkloadSource>) -> Self {
        self.workloads.push(source.into());
        self
    }

    /// Adds workload rows.
    #[must_use]
    pub fn workloads<I>(mut self, sources: I) -> Self
    where
        I: IntoIterator,
        I::Item: Into<WorkloadSource>,
    {
        self.workloads.extend(sources.into_iter().map(Into::into));
        self
    }

    /// Adds one configuration column.
    #[must_use]
    pub fn config(mut self, config: SimConfig) -> Self {
        self.configs.push(config);
        self
    }

    /// Adds configuration columns.
    #[must_use]
    pub fn configs(mut self, configs: impl IntoIterator<Item = SimConfig>) -> Self {
        self.configs.extend(configs);
        self
    }

    fn effective_len(&self, s: &WorkloadSource) -> u64 {
        let d = s.default_len();
        self.len.map_or(d, |l| l.min(d))
    }

    /// Runs every workload × configuration cell, workload-major: each
    /// row is captured once and replayed through decode-once lane groups
    /// of its distinct columns, [`Self::lanes`] to a group. This is
    /// [`Self::run_cached`] without a cache.
    pub fn run(&self) -> SessionGrid {
        self.run_cached(&CellCache::disabled()).0
    }

    /// Replays one workload row across the configuration columns in
    /// `which` (indices into `self.configs`), calling `observe(config,
    /// model, instr)` after every retired branch of each lane (`config`
    /// indexes `self.configs`; columns sharing a lane are observed once,
    /// under the first).
    ///
    /// The row's capture is loaded from the trace store when one is
    /// attached and holds it. Otherwise the row is synthesized and
    /// captured in compact form: whole when it fits
    /// [`DEFAULT_MATERIALIZE_CAP`] (then persisted to the store), chunk
    /// by chunk otherwise ([`replay_chunked`]). Every path replays the
    /// identical stream through the same lane groups.
    fn replay_row(
        &self,
        s: &WorkloadSource,
        which: &[usize],
        pool: &CapturePool,
        observe: &mut impl FnMut(usize, &CoreModel, &TraceInstr),
    ) -> Vec<CoreResult> {
        let len = self.effective_len(s);
        let lanes = || RowLanes::new(&self.configs, which, self.lanes);
        let parts = pool.lock().expect("pool lock").pop().unwrap_or_default();
        let key = self.store.is_enabled().then(|| s.store_key(self.seed, len));
        let loaded = match &key {
            Some(key) => self.store.load(key, parts),
            None => Err(parts),
        };
        let (lanes, parts, name) = match loaded {
            Ok(compact) => {
                let mut lanes = lanes();
                lanes.replay(&compact, observe);
                let name = compact.name().to_string();
                (lanes, compact.into_parts().unwrap_or_default(), name)
            }
            Err(parts) => {
                let gen = s.build_with_len(self.seed, len);
                let store = |whole: &CompactTrace| {
                    if let Some(key) = &key {
                        self.store.store(key, whole);
                    }
                };
                let (lanes, parts) =
                    replay_chunked(&gen, lanes, DEFAULT_MATERIALIZE_CAP, parts, store, observe);
                (lanes, parts, gen.name().to_string())
            }
        };
        pool.lock().expect("pool lock").push(parts);
        lanes.finish(&name)
    }

    /// Enumerates the grid's cells row-major, each with the exact cache
    /// key [`Self::run_cached`] uses for it — the entry point `zbp-serve`
    /// needs to resolve, deduplicate and shard cells individually while
    /// staying bit-compatible with CLI runs over the same cache.
    pub fn cells(&self) -> Vec<SessionCell> {
        let config_jsons = self.config_jsons();
        let mut cells = Vec::with_capacity(self.workloads.len() * self.configs.len());
        for (row, s) in self.workloads.iter().enumerate() {
            let len = self.effective_len(s);
            let source_json = s.key_json();
            for (col, (pred, uarch)) in config_jsons.iter().enumerate() {
                cells.push(SessionCell {
                    row,
                    col,
                    workload: s.name().to_string(),
                    config: self.configs[col].name.clone(),
                    key: CellKey::sim(&source_json, self.seed, len, pred, uarch),
                });
            }
        }
        cells
    }

    /// Each configuration's predictor and front-end JSON: the part of a
    /// cell's [`CellKey`] that names its column.
    fn config_jsons(&self) -> Vec<(String, String)> {
        self.configs
            .iter()
            .map(|c| (json::to_string(&c.predictor), json::to_string(&c.uarch)))
            .collect()
    }

    /// Computes the configuration columns `cols` (indices into the
    /// session's config list) of workload row `row`, without consulting
    /// any cache: one capture (store-served when a trace store is
    /// attached), lane-batched replay — exactly how a cache miss inside
    /// [`Self::run_cached`] computes, so results are bit-identical to
    /// any other execution path. Panics on out-of-range indices.
    pub fn compute_row(&self, row: usize, cols: &[usize]) -> Vec<CoreResult> {
        self.replay_row(&self.workloads[row], cols, &CapturePool::default(), &mut |_, _, _| {})
    }

    /// [`Self::compute_row`] over every column of row `row`, calling
    /// `observe(config, model, instr)` after every retired branch of
    /// each lane: `config` indexes the session's configurations, and
    /// columns with identical configurations share one lane, observed
    /// under the first. Per-branch attribution (the tournament's H2P
    /// table) rides the same capture and lane groups as the grid.
    pub fn observe_row(
        &self,
        row: usize,
        mut observe: impl FnMut(usize, &CoreModel, &TraceInstr),
    ) -> Vec<CoreResult> {
        let all: Vec<usize> = (0..self.configs.len()).collect();
        self.replay_row(&self.workloads[row], &all, &CapturePool::default(), &mut observe)
    }

    /// [`Self::run`] through a [`CellCache`]: each cell's [`CoreResult`]
    /// is looked up by content hash first, and only the missing columns
    /// of a workload row are simulated (against one shared capture, as
    /// in the uncached path) and stored.
    ///
    /// Every cell enters the grid as read out of the bytes a cache file
    /// holds, so a resumed run is bit-identical to a fresh one. A hit is
    /// decoded from the value [`CellCache::load`] parsed from the file
    /// ([`cached_cell`]); a freshly computed cell is rendered and parsed
    /// back first. ([`CoreResult`] is all integers and strings, so the
    /// round trip is lossless.)
    ///
    /// Cache keys deliberately exclude the configuration's display name:
    /// a sweep variant and a Table-3 column with identical predictor +
    /// front-end configurations share one cache entry, and the result is
    /// re-labelled with the requesting column's name.
    ///
    /// Cold cells are claimed through the cache's advisory claim files
    /// before computing ([`CellCache::try_claim`]): when a concurrent
    /// process (a second CLI run, the `zbp-serve` daemon) already holds
    /// a cell's claim, this run waits for that process's entry instead
    /// of duplicating the work — and recomputes only if the claimant
    /// dies without publishing. Either way the cell's bytes are
    /// identical, so claims shift work, never results.
    pub fn run_cached(&self, cache: &CellCache) -> (SessionGrid, CacheStats) {
        self.run_cached_with_hits(cache, &[])
    }

    /// [`Self::run_cached`], given the hits a caller already read from
    /// `cache`: `known_hits` is empty or holds one slot per cell of
    /// [`Self::cells`], in that order. A `Some` cell counts as a cache
    /// hit and is not read again; every other cell is gathered exactly
    /// as [`Self::run_cached`] gathers it — loaded, or claimed and
    /// computed when its entry is gone.
    ///
    /// This is how `zbp-serve` assembles an artifact from the cells it
    /// already streamed without reading each of them twice. A grid
    /// handed in whole is gathered on the calling thread.
    pub fn run_cached_with_hits(
        &self,
        cache: &CellCache,
        known_hits: &[Option<CoreResult>],
    ) -> (SessionGrid, CacheStats) {
        let width = self.configs.len();
        let cells = self.workloads.len() * width;
        assert!(
            known_hits.is_empty() || known_hits.len() == cells,
            "{} known hits for a grid of {cells} cells",
            known_hits.len()
        );
        let hits = AtomicU64::new(0);
        let claims_won = AtomicU64::new(0);
        let claims_lost = AtomicU64::new(0);
        let dedup_served = AtomicU64::new(0);
        let pool = CapturePool::default();
        let config_jsons = self.config_jsons();
        let rows: Vec<usize> = (0..self.workloads.len()).collect();
        let gather_row = |&row: &usize| -> Vec<SimResult> {
            let s = &self.workloads[row];
            let len = self.effective_len(s);
            let source_json = s.key_json();
            let keys: Vec<CellKey> = config_jsons
                .iter()
                .map(|(pred, uarch)| CellKey::sim(&source_json, self.seed, len, pred, uarch))
                .collect();
            let mut cores: Vec<Option<CoreResult>> = keys
                .iter()
                .enumerate()
                .map(|(col, k)| {
                    known_hits
                        .get(row * width + col)
                        .cloned()
                        .flatten()
                        .or_else(|| cached_cell(cache, k))
                })
                .collect();
            hits.fetch_add(cores.iter().flatten().count() as u64, Ordering::Relaxed);
            let missing: Vec<usize> = (0..cores.len()).filter(|&i| cores[i].is_none()).collect();
            if !missing.is_empty() {
                let mut mine: Vec<usize> = Vec::new();
                let mut theirs: Vec<usize> = Vec::new();
                let mut guards = Vec::new();
                for &i in &missing {
                    match cache.try_claim(&keys[i]) {
                        Some(guard) => {
                            guards.push(guard);
                            mine.push(i);
                        }
                        None => theirs.push(i),
                    }
                }
                claims_won.fetch_add(mine.len() as u64, Ordering::Relaxed);
                claims_lost.fetch_add(theirs.len() as u64, Ordering::Relaxed);
                // Computes and stores the columns `cols` of this row.
                let compute = |cols: &[usize], cores: &mut [Option<CoreResult>]| {
                    if cols.is_empty() {
                        return;
                    }
                    let computed = self.replay_row(s, cols, &pool, &mut |_, _, _| {});
                    for (&i, core) in cols.iter().zip(computed) {
                        let entry = core.to_json();
                        cache.store(&keys[i], &entry);
                        cores[i] = Some(roundtrip(&entry).expect("CoreResult JSON round-trips"));
                    }
                };
                compute(&mine, &mut cores);
                // Claims release only after every result is stored, so
                // a waiter that sees a claim vanish can trust its one
                // final cache look.
                drop(guards);
                let orphaned: Vec<usize> = theirs
                    .into_iter()
                    .filter(|&i| match awaited_cell(cache, &keys[i]) {
                        Some(core) => {
                            dedup_served.fetch_add(1, Ordering::Relaxed);
                            cores[i] = Some(core);
                            false
                        }
                        None => true,
                    })
                    .collect();
                compute(&orphaned, &mut cores);
            }
            cores
                .into_iter()
                .zip(&self.configs)
                .map(|(core, c)| SimResult {
                    config_name: c.name.clone(),
                    core: core.expect("every cell filled"),
                })
                .collect()
        };
        // A grid handed in whole has nothing to read, claim or compute,
        // so fanning its rows out would only spawn and join threads.
        let handed_in_whole = !known_hits.is_empty() && known_hits.iter().all(Option::is_some);
        let per_workload: Vec<Vec<SimResult>> = if handed_in_whole {
            rows.iter().map(gather_row).collect()
        } else {
            par_map(&rows, gather_row)
        };
        let grid = SessionGrid {
            workloads: self.workloads.iter().map(|s| s.name().to_string()).collect(),
            configs: self.configs.iter().map(|c| c.name.clone()).collect(),
            results: per_workload.into_iter().flatten().collect(),
        };
        (
            grid,
            CacheStats {
                cells: cells as u64,
                hits: hits.into_inner(),
                claims_won: claims_won.into_inner(),
                claims_lost: claims_lost.into_inner(),
                dedup_served: dedup_served.into_inner(),
            },
        )
    }
}

/// Recycled compact capture buffers shared across workload rows.
///
/// Captures sit above the allocator's mmap threshold, so dropping one
/// unmaps it and the next row would re-fault every page of a fresh
/// mapping; rows instead return their buffers here.
type CapturePool = Mutex<Vec<CompactParts>>;

/// The decode-once lane groups replaying one row's configuration
/// columns, kept across the chunks of a chunked capture.
///
/// Identical columns replay once: columns whose predictor + uarch JSON
/// is byte-equal — the same identity a [`CellKey`] hashes, so ablation
/// grids repeating their baseline column collapse — share one lane.
struct RowLanes {
    /// One group per `width` lanes, in lane order.
    groups: Vec<LaneGroup>,
    width: usize,
    /// Configuration index (into the session's list) of each lane.
    lane_config: Vec<usize>,
    /// Per requested column, the index of the lane that computes it.
    lane_of: Vec<usize>,
}

impl RowLanes {
    /// Lanes for the columns `which` of `configs`, `width` per group
    /// (`None` = one group).
    fn new(configs: &[SimConfig], which: &[usize], width: Option<usize>) -> Self {
        let mut lane_config: Vec<usize> = Vec::new();
        let mut jsons: Vec<(String, String)> = Vec::new();
        let lane_of = which
            .iter()
            .map(|&i| {
                let c = &configs[i];
                let key = (json::to_string(&c.predictor), json::to_string(&c.uarch));
                jsons.iter().position(|k| *k == key).unwrap_or_else(|| {
                    jsons.push(key);
                    lane_config.push(i);
                    lane_config.len() - 1
                })
            })
            .collect();
        let width = width.unwrap_or(lane_config.len()).max(1);
        let groups = lane_config
            .chunks(width)
            .map(|batch| {
                LaneGroup::new(
                    batch
                        .iter()
                        .map(|&i| CoreModel::new(configs[i].uarch, configs[i].predictor.clone()))
                        .collect(),
                )
            })
            .collect();
        Self { groups, width, lane_config, lane_of }
    }

    /// Replays one capture (a whole row or its next chunk) through every
    /// group, passing `observe` each lane's configuration index.
    fn replay(
        &mut self,
        trace: &CompactTrace,
        observe: &mut impl FnMut(usize, &CoreModel, &TraceInstr),
    ) {
        for (g, group) in self.groups.iter_mut().enumerate() {
            let configs = &self.lane_config[g * self.width..];
            group.replay(trace, ReplayPlan::Whole, |lane, model, instr| {
                observe(configs[lane], model, instr)
            });
        }
    }

    /// Each requested column's result, in request order.
    fn finish(self, name: &str) -> Vec<CoreResult> {
        let results: Vec<CoreResult> =
            self.groups.into_iter().flat_map(|group| group.finish(name)).collect();
        self.lane_of.into_iter().map(|lane| results[lane].clone()).collect()
    }
}

/// Captures `trace` in compact form, chunk by chunk within `budget`
/// bytes ([`CompactTrace::capture_chunk_into`]), and replays every chunk
/// through the row's lanes, which continue across chunks. A trace that
/// fits one chunk is handed to `whole` (the store writer) first. Returns
/// the lanes and the capture buffers for reuse.
///
/// Each chunk ends right after a retired branch, so chunk boundaries
/// are run boundaries of the whole stream and the lanes see exactly the
/// whole replay's sequence of runs and branch points. The lanes are
/// built only once the first chunk is captured and stored, so their
/// models do not add to the capture's and the store write's peak.
///
/// # Panics
///
/// When the stream is not compact-encodable: every [`WorkloadSource`]
/// is (synthesized and ingested lengths are 2, 4 or 6 bytes).
fn replay_chunked<T: Trace>(
    trace: &T,
    lanes: impl FnOnce() -> RowLanes,
    budget: u64,
    parts: CompactParts,
    whole: impl FnOnce(&CompactTrace),
    observe: &mut impl FnMut(usize, &CoreModel, &TraceInstr),
) -> (RowLanes, CompactParts) {
    let mut instrs = trace.iter();
    let mut capture = |parts| {
        CompactTrace::capture_chunk_into(trace.name(), &mut instrs, trace.len(), budget, parts)
            .unwrap_or_else(|e| {
                panic!("workload {:?} is not compact-encodable: {e:?}", trace.name())
            })
    };
    let (mut chunk, mut ended) = capture(parts);
    if ended {
        whole(&chunk);
    }
    let mut lanes = lanes();
    loop {
        lanes.replay(&chunk, observe);
        let parts = chunk.into_parts().unwrap_or_default();
        if ended {
            return (lanes, parts);
        }
        (chunk, ended) = capture(parts);
    }
}

/// The cached result for `key`, decoded from the value [`CellCache::load`]
/// parsed out of the entry's file, or `None` on a miss or an entry that
/// does not decode. This is what a cache hit is everywhere a grid cell
/// is read: [`SimSession::run_cached`] and `zbp-serve` alike.
pub fn cached_cell(cache: &CellCache, key: &CellKey) -> Option<CoreResult> {
    cache.load(key).and_then(|entry| decode(&entry))
}

/// [`cached_cell`] for a cell whose claim another process holds: waits
/// for that claim to resolve ([`CellCache::wait_for`]), then decodes the
/// entry it left, or gives `None` when there is none that decodes and
/// the cell must be computed here.
pub fn awaited_cell(cache: &CellCache, key: &CellKey) -> Option<CoreResult> {
    cache.wait_for(key).and_then(|entry| decode(&entry))
}

/// Decodes a cell result parsed from a cache file's bytes. Parsing
/// maps an out-of-range literal such as `1e400` to an infinity, which
/// no integer field accepts, so such an entry fails here just as it
/// failed the render → parse round trip (which turns it into `null`).
fn decode(entry: &Json) -> Option<CoreResult> {
    CoreResult::from_json(entry).ok()
}

/// Normalizes a freshly computed cell result through its rendered JSON
/// bytes — the form every cache file holds — so computed cells are read
/// back exactly as a later hit decodes them.
fn roundtrip(entry: &Json) -> Option<CoreResult> {
    decode(&Json::parse(&entry.render()).ok()?)
}

/// Cache accounting for one [`SimSession::run_cached`] call.
///
/// The counters reconcile: every cell is either a hit, a claim this run
/// won (and computed), or a claim it lost to a concurrent process —
/// `hits + claims_won + claims_lost == cells` — and lost claims split
/// into `dedup_served` (the claimant's entry arrived) plus recomputes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Total cells in the grid.
    pub cells: u64,
    /// Cells answered from the cache.
    pub hits: u64,
    /// Cold cells this run claimed and computed itself.
    pub claims_won: u64,
    /// Cold cells a concurrent process already held a claim on.
    pub claims_lost: u64,
    /// Lost-claim cells ultimately served from the entry the claim
    /// holder published (the rest were recomputed after the claim died
    /// without one).
    pub dedup_served: u64,
}

impl CacheStats {
    /// Merges accounting from another grid of the same run.
    #[must_use]
    pub fn merged(self, other: Self) -> Self {
        Self {
            cells: self.cells + other.cells,
            hits: self.hits + other.hits,
            claims_won: self.claims_won + other.claims_won,
            claims_lost: self.claims_lost + other.claims_lost,
            dedup_served: self.dedup_served + other.dedup_served,
        }
    }
}

/// One cell of a session's workload × configuration grid, as
/// enumerated by [`SimSession::cells`]: its grid position, display
/// names, and the content-addressed identity [`SimSession::run_cached`]
/// caches it under. This is the unit `zbp-serve` resolves, dedupes and
/// shards.
#[derive(Debug, Clone)]
pub struct SessionCell {
    /// Workload row index.
    pub row: usize,
    /// Configuration column index.
    pub col: usize,
    /// Workload display name.
    pub workload: String,
    /// Configuration display name.
    pub config: String,
    /// Cache identity of the cell.
    pub key: CellKey,
}

/// The results of a [`SimSession`]: one [`SimResult`] per workload ×
/// configuration cell, addressable by name.
#[derive(Debug, Clone)]
pub struct SessionGrid {
    workloads: Vec<String>,
    configs: Vec<String>,
    /// Row-major: `results[w * configs.len() + c]`.
    results: Vec<SimResult>,
}

impl SessionGrid {
    /// Workload names, in insertion order.
    pub fn workloads(&self) -> &[String] {
        &self.workloads
    }

    /// Configuration names, in insertion order.
    pub fn configs(&self) -> &[String] {
        &self.configs
    }

    /// The result for `(workload, config)`, or `None` if either name is
    /// unknown. First match wins for duplicated names.
    pub fn get(&self, workload: &str, config: &str) -> Option<&SimResult> {
        let w = self.workloads.iter().position(|n| n == workload)?;
        let c = self.configs.iter().position(|n| n == config)?;
        self.results.get(w * self.configs.len() + c)
    }

    /// The result for `(workload, config)`; panics if either is unknown.
    pub fn result(&self, workload: &str, config: &str) -> &SimResult {
        self.get(workload, config)
            .unwrap_or_else(|| panic!("no session cell ({workload:?}, {config:?})"))
    }

    /// CPI of one cell.
    pub fn cpi(&self, workload: &str, config: &str) -> f64 {
        self.result(workload, config).cpi()
    }

    /// Percentage CPI improvement of `config` over `baseline` on the same
    /// workload (positive = faster).
    pub fn improvement(&self, workload: &str, config: &str, baseline: &str) -> f64 {
        self.result(workload, config).improvement_over(self.result(workload, baseline))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zbp_trace::profile::WorkloadProfile;

    #[test]
    fn grid_addresses_every_cell_by_name() {
        let grid = SimSession::new()
            .seed(7)
            .max_len(5_000)
            .workloads(vec![WorkloadProfile::tpf_airline(), WorkloadProfile::zlinux_informix()])
            .configs(vec![SimConfig::no_btb2(), SimConfig::btb2_enabled()])
            .run();
        assert_eq!(grid.workloads().len(), 2);
        assert_eq!(grid.configs(), &["No BTB2".to_string(), "BTB2 enabled".to_string()]);
        for w in grid.workloads() {
            for c in grid.configs() {
                assert!(grid.cpi(w, c) > 0.0);
            }
        }
        assert!(grid.get("TPF airline reservations", "nope").is_none());
        assert!(grid.get("nope", "No BTB2").is_none());
        let self_gain = grid.improvement("TPF airline reservations", "No BTB2", "No BTB2");
        assert!(self_gain.abs() < 1e-12, "a config against itself improves 0%");
    }

    /// Replays `trace` chunked at each of `budgets` through a row of the
    /// Table-3 columns, checking every lane after every retired branch
    /// against the record reference.
    fn assert_chunked_rows_match_the_reference<T: Trace>(trace: &T, budgets: &[u64]) {
        use zbp_uarch::oracle::Reference;
        let configs = SimConfig::table3().to_vec();
        let lanes: Vec<_> = configs.iter().map(|c| (c.uarch, c.predictor.clone())).collect();
        let all: Vec<usize> = (0..configs.len()).collect();
        let reference = Reference::record(trace, &lanes);
        for &budget in budgets {
            let mut check = reference.clone();
            let mut whole = false;
            let (row, _) = replay_chunked(
                trace,
                || RowLanes::new(&configs, &all, None),
                budget,
                CompactParts::default(),
                |_| whole = true,
                &mut |lane, model, _| check.observe(lane, model),
            );
            check
                .finish(&row.finish(trace.name()))
                .unwrap_or_else(|d| panic!("{} at a {budget} B budget: {d}", trace.name()));
            assert_eq!(
                whole,
                budget == u64::MAX,
                "{}: only an unchunked row is whole",
                trace.name()
            );
        }
    }

    #[test]
    fn chunked_rows_match_whole_replay_per_branch() {
        // A zero budget cuts a chunk after every retired branch; 600 B
        // after a few hundred instructions; the last budget holds the
        // row whole.
        let budgets = [0, 600, u64::MAX];
        for p in WorkloadProfile::all_table4() {
            assert_chunked_rows_match_the_reference(&p.build_with_len(0xEC12, 6_000), &budgets);
        }
        let fixture = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../tests/fixtures/sample.zbxt");
        let external = WorkloadSource::ingest(fixture).expect("the fixture ingests");
        assert_chunked_rows_match_the_reference(&external.build_with_len(0, 20_000), &budgets);

        // Back-to-back branches (empty runs), discontinuities right
        // after a branch and mid-run, and wrong-path records before and
        // after branches, so that chunks begin with each of them.
        use zbp_trace::{BranchKind, BranchRec, InstAddr, VecTrace};
        let mut v = Vec::new();
        let taken = |a: u64, t: u64| {
            TraceInstr::branch(
                InstAddr::new(a),
                4,
                BranchRec::taken(BranchKind::Unconditional, InstAddr::new(t)),
            )
        };
        for k in 0..40u64 {
            let base = 0x10_0000 + k * 0x1000;
            v.push(taken(base, base + 0x100));
            v.push(taken(base + 0x100, base + 0x200)); // empty run
            v.push(TraceInstr::plain(InstAddr::new(0x7000 + k), 2).wrong_path());
            v.push(TraceInstr::plain(InstAddr::new(base + 0x200), 4));
            v.push(TraceInstr::plain(InstAddr::new(base + 0x204), 6));
            v.push(TraceInstr::plain(InstAddr::new(base + 0x900), 4)); // discontinuity
            v.push(TraceInstr::branch(
                InstAddr::new(base + 0x904),
                6,
                BranchRec::not_taken(InstAddr::new(base)),
            ));
            v.push(TraceInstr::plain(InstAddr::new(base + 0x50_0000), 2)); // after a branch
            for i in 0..(k % 7) * 40 {
                v.push(TraceInstr::plain(InstAddr::new(base + 0x50_0002 + i * 4), 4));
            }
            v.push(
                taken(0x9000, 0x9100).wrong_path(), // a wrong-path branch never retires
            );
        }
        assert_chunked_rows_match_the_reference(&VecTrace::new("edges", v), &[0, 1, 64, u64::MAX]);
    }

    #[test]
    fn cached_runs_are_bit_identical_and_hit_on_rerun() {
        let dir = std::env::temp_dir().join(format!("zbp-session-cache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        // The Table-3 columns plus one direction backend: every hit,
        // decoded straight from its file, equals the computed cell.
        let tage = SimConfig::direction_backends().pop().expect("a direction backend");
        let session = SimSession::new()
            .seed(5)
            .max_len(6_000)
            .workloads(vec![WorkloadProfile::tpf_airline(), WorkloadProfile::zlinux_informix()])
            .configs(SimConfig::table3().into_iter().chain([tage]));
        let cache = CellCache::at(&dir);
        let (cold, s1) = session.run_cached(&cache);
        assert_eq!(s1, CacheStats { cells: 8, claims_won: 8, ..Default::default() });
        assert_eq!(cache.reads(), 0, "a cold grid finds no entry to read");
        let (warm, s2) = session.run_cached(&cache);
        assert_eq!(s2, CacheStats { cells: 8, hits: 8, ..Default::default() });
        assert_eq!(cache.reads(), 8, "a warm grid reads each entry once");
        let (uncached, s3) = session.run_cached(&CellCache::disabled());
        assert_eq!(s3.hits, 0);
        let plain = session.run();
        for w in cold.workloads() {
            for c in cold.configs() {
                let cell = cold.result(w, c);
                assert_eq!(cell.core, warm.result(w, c).core, "({w}, {c}) hit diverged");
                assert_eq!(cell.core, uncached.result(w, c).core, "({w}, {c}) nocache diverged");
                assert_eq!(cell.core, plain.result(w, c).core, "({w}, {c}) run() diverged");
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    fn cache_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("zbp-session-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Writes `result_text` verbatim as the cache entry for `key`, the
    /// way a file can hold it whatever our writer would have rendered.
    fn write_raw_entry(dir: &std::path::Path, key: &CellKey, result_text: &str) {
        std::fs::create_dir_all(dir).unwrap();
        let text = format!(
            "{{\"key\":{},\"schema_version\":1,\"result\":{result_text}}}",
            Json::Str(key.as_str().to_string()).render()
        );
        std::fs::write(dir.join(format!("{}.json", key.digest())), text).unwrap();
    }

    #[test]
    fn handed_in_hits_are_not_read_again() {
        let dir = cache_dir("handin");
        let session = SimSession::new()
            .seed(31)
            .max_len(5_000)
            .workloads(vec![
                WorkloadProfile::tpf_airline(),
                WorkloadProfile::zlinux_informix(),
                WorkloadProfile::zos_trade6(),
            ])
            .configs(vec![SimConfig::no_btb2(), SimConfig::btb2_enabled()]);
        let cache = CellCache::at(&dir);
        let (cold, _) = session.run_cached(&cache);
        let cells = session.cells();
        let mut known: Vec<Option<CoreResult>> =
            cells.iter().map(|c| cached_cell(&cache, &c.key)).collect();
        // Cell 1 is not handed in and is read by the gather; cell 2's
        // entry vanishes after it was read, and it is recomputed inline;
        // the last row is handed in whole.
        known[1] = None;
        known[2] = None;
        std::fs::remove_file(dir.join(format!("{}.json", cells[2].key.digest()))).unwrap();
        let reads = cache.reads();
        let (grid, stats) = session.run_cached_with_hits(&cache, &known);
        assert_eq!(cache.reads() - reads, 1, "only the cell not handed in is read");
        assert_eq!(stats, CacheStats { cells: 6, hits: 5, claims_won: 1, ..Default::default() });
        // Handed in whole, the grid is gathered without a single read.
        let all: Vec<Option<CoreResult>> =
            cells.iter().map(|c| cached_cell(&cache, &c.key)).collect();
        let reads = cache.reads();
        let (whole, whole_stats) = session.run_cached_with_hits(&cache, &all);
        assert_eq!(cache.reads(), reads, "a grid handed in whole is not read");
        assert_eq!(whole_stats, CacheStats { cells: 6, hits: 6, ..Default::default() });
        for w in cold.workloads() {
            for c in cold.configs() {
                assert_eq!(cold.result(w, c).core, grid.result(w, c).core, "({w}, {c})");
                assert_eq!(cold.result(w, c).core, whole.result(w, c).core, "({w}, {c})");
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// `value` with each leaf in turn (and the whole value) replaced
    /// by `with`, one copy per leaf.
    fn each_leaf_replaced(value: &Json, with: &Json) -> Vec<Json> {
        let mut out = vec![with.clone()];
        match value {
            Json::Obj(pairs) => {
                for (i, (_, child)) in pairs.iter().enumerate() {
                    for replaced in each_leaf_replaced(child, with) {
                        let mut copy = pairs.clone();
                        copy[i].1 = replaced;
                        out.push(Json::Obj(copy));
                    }
                }
            }
            Json::Arr(items) => {
                for (i, child) in items.iter().enumerate() {
                    for replaced in each_leaf_replaced(child, with) {
                        let mut copy = items.clone();
                        copy[i] = replaced;
                        out.push(Json::Arr(copy));
                    }
                }
            }
            _ => {}
        }
        out
    }

    #[test]
    fn direct_decode_agrees_with_the_round_trip_on_every_entry() {
        // Entries as a file may hold them: our own compact and pretty
        // renderings, every field of a real result set in turn to a
        // literal of each JSON kind (out-of-range numbers included), and
        // hand-edited names and duplicate keys. Each decodes directly to
        // exactly what the old load + render → parse round trip gave,
        // and is refused exactly when that was.
        let dir = cache_dir("decodeeq");
        let core = SimSession::new()
            .seed(3)
            .max_len(3_000)
            .workload(WorkloadProfile::tpf_airline())
            .config(SimConfig::btb2_enabled())
            .run()
            .results[0]
            .core
            .clone();
        let compact = core.to_json().render();
        let mut variants = vec![compact.clone(), core.to_json().render_pretty()];
        let marker = Json::Str("\u{1}leaf".into());
        let marked = marker.render();
        for literal in [
            "1e400",
            "-1e400",
            "1e-400",
            "1e30",
            "-0",
            "-5",
            "1.5",
            "9007199254740993",
            "null",
            "true",
            "\"7\"",
            "[]",
            "{}",
        ] {
            for edited in each_leaf_replaced(&core.to_json(), &marker) {
                variants.push(edited.render().replace(&marked, literal));
            }
        }
        let cycles = format!("\"cycles\":{}", core.cycles);
        for edit in
            ["\"cycles\":2,\"cycles\":1e400", "\"cycles\":1e400,\"cycles\":2", "\"x\":1e400"]
        {
            variants.push(compact.replacen(&cycles, edit, 1));
        }
        variants.push(compact.replacen("\"name\":\"", "\"name\":\"\\u00e9\\\"\\/\\t\\ud800", 1));
        let (mut accepted, mut refused) = (0, 0);
        for (n, text) in variants.iter().enumerate() {
            let key = CellKey::sim("{}", n as u64, 1, "{}", "{}");
            write_raw_entry(&dir, &key, text);
            let entry = CellCache::at(&dir).load(&key).expect("every variant parses");
            let direct = decode(&entry);
            assert_eq!(direct, roundtrip(&entry), "variant {n}: {text}");
            if direct.is_some() {
                accepted += 1;
            } else {
                refused += 1;
            }
        }
        assert!(accepted > 100 && refused > 100, "{accepted} accepted, {refused} refused");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn an_out_of_range_counter_reads_as_a_miss_and_is_recomputed() {
        let dir = cache_dir("outofrange");
        let session = SimSession::new()
            .seed(37)
            .max_len(4_000)
            .workload(WorkloadProfile::tpf_airline())
            .configs(vec![SimConfig::no_btb2(), SimConfig::btb2_enabled()]);
        let (cold, _) = session.run_cached(&CellCache::at(&dir));
        let key = session.cells()[1].key.clone();
        let good = cold.results[1].core.to_json().render();
        let cycles = format!("\"cycles\":{}", cold.results[1].core.cycles);
        write_raw_entry(&dir, &key, &good.replacen(&cycles, "\"cycles\":1e400", 1));
        assert!(cached_cell(&CellCache::at(&dir), &key).is_none(), "1e400 is no counter");
        let (rerun, stats) = session.run_cached(&CellCache::at(&dir));
        assert_eq!(stats, CacheStats { cells: 2, hits: 1, claims_won: 1, ..Default::default() });
        assert_eq!(rerun.results[1].core, cold.results[1].core);
        assert_eq!(cached_cell(&CellCache::at(&dir), &key), Some(cold.results[1].core.clone()));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn cache_entries_ignore_config_display_names() {
        let dir = std::env::temp_dir().join(format!("zbp-session-rename-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let base =
            SimSession::new().seed(9).max_len(5_000).workload(WorkloadProfile::tpf_airline());
        let (_, first) =
            base.clone().config(SimConfig::btb2_enabled()).run_cached(&CellCache::at(&dir));
        assert_eq!(first.hits, 0);
        let (renamed, second) = base
            .config(SimConfig::btb2_enabled().named("24k variant"))
            .run_cached(&CellCache::at(&dir));
        assert_eq!(second.hits, 1, "same predictor+uarch under a new name must hit");
        assert_eq!(renamed.configs(), &["24k variant".to_string()]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn lane_width_does_not_change_results() {
        // The lane-group width is a pure batching knob: one group per
        // row (default), pairs, and sequential singleton groups all
        // produce bit-identical grids.
        let session = SimSession::new()
            .seed(19)
            .max_len(8_000)
            .workloads(vec![WorkloadProfile::tpf_airline(), WorkloadProfile::zlinux_informix()])
            .configs(SimConfig::table3());
        let grouped = session.clone().run();
        let pairs = session.clone().lanes(2).run();
        let sequential = session.lanes(1).run();
        for w in grouped.workloads() {
            for c in grouped.configs() {
                let g = grouped.result(w, c);
                assert_eq!(g.core, pairs.result(w, c).core, "({w}, {c}) lanes=2 diverged");
                assert_eq!(g.core, sequential.result(w, c).core, "({w}, {c}) lanes=1 diverged");
            }
        }
    }

    #[test]
    fn duplicate_config_columns_share_one_lane_result() {
        // Byte-equal configs under different display names replay one
        // lane; both columns must carry the identical result, matching
        // a grid without the duplicate.
        let base =
            SimSession::new().seed(9).max_len(6_000).workload(WorkloadProfile::tpf_airline());
        let deduped = base
            .clone()
            .configs(vec![
                SimConfig::btb2_enabled(),
                SimConfig::btb2_enabled().named("baseline repeat"),
                SimConfig::no_btb2(),
            ])
            .run();
        let w = "TPF airline reservations";
        assert_eq!(
            deduped.result(w, "BTB2 enabled").core,
            deduped.result(w, "baseline repeat").core,
            "duplicate columns must share one result"
        );
        let plain = base.configs(vec![SimConfig::btb2_enabled(), SimConfig::no_btb2()]).run();
        assert_eq!(deduped.result(w, "BTB2 enabled").core, plain.result(w, "BTB2 enabled").core);
        assert_eq!(deduped.result(w, "No BTB2").core, plain.result(w, "No BTB2").core);
    }

    #[test]
    fn store_loaded_grids_are_bit_identical_and_hit_on_rerun() {
        let dir = std::env::temp_dir().join(format!("zbp-session-store-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let base = SimSession::new()
            .seed(17)
            .max_len(7_000)
            .workloads(vec![WorkloadProfile::tpf_airline(), WorkloadProfile::zlinux_informix()])
            .configs(vec![SimConfig::no_btb2(), SimConfig::btb2_enabled()]);
        let plain = base.clone().run();

        let cold_store = Arc::new(TraceStore::at(&dir));
        let cold = base.clone().trace_store(Arc::clone(&cold_store)).run();
        assert_eq!(cold_store.stats().hits, 0);
        assert_eq!(cold_store.stats().misses, 2, "one miss per workload row");

        let warm_store = Arc::new(TraceStore::at(&dir));
        let warm = base.clone().trace_store(Arc::clone(&warm_store)).run();
        assert_eq!(warm_store.stats().hits, 2, "every row loads from the store");
        assert_eq!(warm_store.stats().misses, 0);

        for w in plain.workloads() {
            for c in plain.configs() {
                let cell = plain.result(w, c);
                assert_eq!(cell.core, cold.result(w, c).core, "({w}, {c}) cold diverged");
                assert_eq!(cell.core, warm.result(w, c).core, "({w}, {c}) warm diverged");
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn len_cap_respects_profile_default() {
        let p = WorkloadProfile::tpf_airline();
        let s = WorkloadSource::from(p.clone());
        let session = SimSession::new().max_len(u64::MAX);
        assert_eq!(session.effective_len(&s), p.default_len);
        let capped = SimSession::new().max_len(10);
        assert_eq!(capped.effective_len(&s), 10);
    }
}
