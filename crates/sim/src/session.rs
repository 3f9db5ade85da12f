//! Batched simulation sessions.
//!
//! A [`SimSession`] describes a workload × configuration grid once and
//! runs it workload-major — rows fan out across workloads through
//! [`par_map`]; the configuration columns within a row batch into one
//! decode-once lane group ([`Simulator::run_configs_compact_lanes`])
//! that replays the row's shared capture with a single trace walk —
//! instead of each experiment hand-rolling its own loop over
//! [`Simulator`]. The resulting [`SessionGrid`] answers the questions
//! every figure asks: the CPI of a cell, or the improvement of one
//! configuration over another on the same workload.
//!
//! Workload synthesis is shared across each row: the workload's
//! instruction stream is captured once into a [`MaterializedTrace`] and
//! every configuration column replays the shared capture — O(W×C)
//! dynamic walks become O(W) walks plus cheap slice scans — then the
//! capture is dropped before the next row claims the worker, keeping
//! resident captures bounded by the worker count rather than the grid
//! width. Workloads whose capture would exceed
//! [`SimSession::materialize_cap`] replay their re-runnable generator
//! per column instead, trading the redundant walks back for flat memory.
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
use crate::runner::{SimResult, Simulator};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use zbp_support::json::{self, FromJson, Json, ToJson};
use zbp_trace::materialize::MaterializedTrace;
use zbp_trace::source::WorkloadSource;
use zbp_trace::{CompactParts, CompactTrace, Trace, TraceInstr, TraceStore};
use zbp_uarch::core::CoreResult;

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
    materialize_cap: u64,
    compact: bool,
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

/// Default per-workload [`SimSession::materialize_cap`]: 1 GiB of record
/// storage, enough for every Table-4 workload at its default length.
pub const DEFAULT_MATERIALIZE_CAP: u64 = 1 << 30;

impl SimSession {
    /// An empty session with the default seed and uncapped lengths.
    pub fn new() -> Self {
        let opts = ExperimentOptions::default();
        Self {
            seed: opts.seed,
            len: opts.len,
            materialize_cap: DEFAULT_MATERIALIZE_CAP,
            compact: opts.compact,
            lanes: opts.lanes,
            store: Arc::new(TraceStore::disabled()),
            workloads: Vec::new(),
            configs: Vec::new(),
        }
    }

    /// Takes seed, length cap, replay encoding, lane width and trace
    /// store from [`ExperimentOptions`].
    pub fn from_options(opts: &ExperimentOptions) -> Self {
        Self {
            seed: opts.seed,
            len: opts.len,
            compact: opts.compact,
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

    /// Caps the bytes one workload's capture may occupy when its trace
    /// is materialized for sharing across configuration columns —
    /// compact bytes on the default compact path, record bytes on the
    /// reference path. Workloads over the cap are regenerated per cell
    /// instead (`0` disables sharing entirely). Defaults to
    /// [`DEFAULT_MATERIALIZE_CAP`].
    #[must_use]
    pub fn materialize_cap(mut self, bytes: u64) -> Self {
        self.materialize_cap = bytes;
        self
    }

    /// Selects the replay encoding: `true` (default) captures into the
    /// compact branch-point form and replays run-batched; `false` uses
    /// the record-based reference path. Both are bit-identical.
    #[must_use]
    pub fn compact(mut self, compact: bool) -> Self {
        self.compact = compact;
        self
    }

    /// Caps how many configuration columns one decode-once lane group
    /// replays together on the compact path (`None`, the default, bats
    /// every requested column of a row in a single group; `1` degrades
    /// to sequential per-column replay). Purely a batching knob — any
    /// lane width produces bit-identical results.
    #[must_use]
    pub fn lanes(mut self, lanes: usize) -> Self {
        self.lanes = Some(lanes);
        self
    }

    /// Attaches a persistent compact-trace store: workload rows load
    /// their capture from disk instead of regenerating it, and freshly
    /// captured rows are persisted for the next run. Store-loaded
    /// replays are bit-identical to generate-and-encode replays (the
    /// store only short-circuits *capture*, never simulation). Only the
    /// compact path consults the store; the record reference path
    /// always regenerates.
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

    /// Runs every workload × configuration cell, workload-major.
    ///
    /// Generate-once: each workload row is synthesized a single time and
    /// captured into a [`MaterializedTrace`] that every configuration
    /// column of that row replays (a nested [`par_map`]: rows fan out
    /// across workloads, columns fan out across configurations within a
    /// row). The capture is dropped as soon as its row completes, so at
    /// most one capture per outer worker is resident — a flat
    /// capture-everything pre-pass holds all rows live at once, which
    /// measurably slows the captures themselves on memory-starved
    /// machines (every buffer is fresh, faulted-in memory instead of
    /// pages recycled from the previous row).
    ///
    /// Workloads whose capture would exceed [`Self::materialize_cap`]
    /// replay their re-runnable generator directly instead. Either path
    /// replays the identical instruction stream, so results are
    /// bit-identical regardless of the cap.
    pub fn run(&self) -> SessionGrid {
        let pool = CapturePool::default();
        let all: Vec<usize> = (0..self.configs.len()).collect();
        let per_workload: Vec<Vec<SimResult>> = par_map(&self.workloads, |s| {
            let len = self.effective_len(s);
            self.replay_row(s, len, &all, &pool)
                .into_iter()
                .zip(&self.configs)
                .map(|(core, c)| SimResult { config_name: c.name.clone(), core })
                .collect()
        });
        SessionGrid {
            workloads: self.workloads.iter().map(|s| s.name().to_string()).collect(),
            configs: self.configs.iter().map(|c| c.name.clone()).collect(),
            results: per_workload.into_iter().flatten().collect(),
        }
    }

    /// Replays one workload row across the configuration columns in
    /// `which` (indices into `self.configs`), via the session's
    /// preferred capture form.
    ///
    /// Capture preference order: a trace-store load of the compact
    /// encoding (when a store is attached — skipping generation and
    /// encoding entirely), then a fresh compact capture (persisted to
    /// the store for the next run, when the stream both encodes and
    /// fits [`Self::materialize_cap`] in compact bytes), then a record
    /// capture under the same byte cap, then per-column generator
    /// walking. All four replay the identical stream bit-identically.
    fn replay_row(
        &self,
        s: &WorkloadSource,
        len: u64,
        which: &[usize],
        pool: &CapturePool,
    ) -> Vec<CoreResult> {
        if self.compact {
            let mut parts = pool.compact.lock().expect("pool lock").pop().unwrap_or_default();
            let key = self.store.is_enabled().then(|| s.store_key(self.seed, len));
            if let Some(key) = &key {
                match self.store.load(key, parts) {
                    // A stored capture over the session's cap replays
                    // regenerated instead, as an uncapped store entry
                    // must not defeat a deliberately small cap.
                    Ok(compact) if compact.bytes() <= self.materialize_cap => {
                        let results = self.replay_compact(&compact, which);
                        if let Some(back) = compact.into_parts() {
                            pool.compact.lock().expect("pool lock").push(back);
                        }
                        return results;
                    }
                    Ok(compact) => {
                        parts = compact.into_parts().unwrap_or_default();
                    }
                    Err(back) => parts = back,
                }
            }
            let gen = s.build_with_len(self.seed, len);
            match CompactTrace::capture_within_into(&gen, self.materialize_cap, parts) {
                Ok(compact) => {
                    if let Some(key) = &key {
                        self.store.store(key, &compact);
                    }
                    let results = self.replay_compact(&compact, which);
                    if let Some(back) = compact.into_parts() {
                        pool.compact.lock().expect("pool lock").push(back);
                    }
                    return results;
                }
                // Over-budget or unencodable streams fall through to the
                // record path (whose own cap check decides sharing).
                Err(e) => pool.compact.lock().expect("pool lock").push(e.into_parts()),
            }
            return self.replay_records(&gen, len, which, pool);
        }
        let gen = s.build_with_len(self.seed, len);
        self.replay_records(&gen, len, which, pool)
    }

    /// Replays the configuration columns in `which` against one shared
    /// compact capture through the decode-once lane kernel: the trace
    /// is walked and decoded once per lane group instead of once per
    /// column ([`Simulator::run_configs_compact_lanes`]).
    ///
    /// Identical columns replay once: columns whose predictor + uarch
    /// JSON is byte-equal — the same identity a [`CellKey`] hashes, so
    /// ablation grids repeating their baseline column collapse — share
    /// a single lane's result.
    fn replay_compact(&self, compact: &CompactTrace, which: &[usize]) -> Vec<CoreResult> {
        let mut distinct: Vec<usize> = Vec::new(); // indices into self.configs
        let mut jsons: Vec<(String, String)> = Vec::new();
        let lane_of: Vec<usize> = which
            .iter()
            .map(|&i| {
                let c = &self.configs[i];
                let key = (json::to_string(&c.predictor), json::to_string(&c.uarch));
                jsons.iter().position(|k| *k == key).unwrap_or_else(|| {
                    jsons.push(key);
                    distinct.push(i);
                    distinct.len() - 1
                })
            })
            .collect();
        let width = self.lanes.unwrap_or(distinct.len()).max(1);
        let mut lane_results: Vec<CoreResult> = Vec::with_capacity(distinct.len());
        for chunk in distinct.chunks(width) {
            let configs: Vec<&SimConfig> = chunk.iter().map(|&i| &self.configs[i]).collect();
            lane_results.extend(
                Simulator::run_configs_compact_lanes(&configs, compact).into_iter().map(|r| r.core),
            );
        }
        lane_of.into_iter().map(|l| lane_results[l].clone()).collect()
    }

    /// The record-based reference path: a shared record capture when it
    /// fits the cap, per-column generator walks otherwise.
    fn replay_records<T: Trace + Sync>(
        &self,
        gen: &T,
        len: u64,
        which: &[usize],
        pool: &CapturePool,
    ) -> Vec<CoreResult> {
        if MaterializedTrace::estimated_bytes(len) <= self.materialize_cap {
            let buf = pool.records.lock().expect("pool lock").pop().unwrap_or_default();
            let mat = MaterializedTrace::capture_into(gen, buf);
            let results = par_map(which, |&i| Simulator::run_config(&self.configs[i], &mat).core);
            if let Some(buf) = mat.into_records() {
                pool.records.lock().expect("pool lock").push(buf);
            }
            results
        } else {
            par_map(which, |&i| Simulator::run_config(&self.configs[i], gen).core)
        }
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
        let s = &self.workloads[row];
        self.replay_row(s, self.effective_len(s), cols, &CapturePool::default())
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
                if !mine.is_empty() {
                    let computed = self.replay_row(s, len, &mine, &pool);
                    for (&i, core) in mine.iter().zip(computed) {
                        let entry = core.to_json();
                        cache.store(&keys[i], &entry);
                        cores[i] = Some(roundtrip(&entry).expect("CoreResult JSON round-trips"));
                    }
                }
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
                if !orphaned.is_empty() {
                    let computed = self.replay_row(s, len, &orphaned, &pool);
                    for (&i, core) in orphaned.iter().zip(computed) {
                        let entry = core.to_json();
                        cache.store(&keys[i], &entry);
                        cores[i] = Some(roundtrip(&entry).expect("CoreResult JSON round-trips"));
                    }
                }
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

/// Recycled capture buffers shared across workload rows.
///
/// Captures sit above the allocator's mmap threshold, so dropping one
/// unmaps it and the next row would re-fault every page of a fresh
/// mapping; rows instead return their buffers here. Record and compact
/// buffers pool separately — a session only ever draws from one side,
/// but a compact fallback row can populate both.
#[derive(Debug, Default)]
struct CapturePool {
    records: Mutex<Vec<Vec<TraceInstr>>>,
    compact: Mutex<Vec<CompactParts>>,
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

    #[test]
    fn session_matches_a_direct_simulator_run() {
        let p = WorkloadProfile::zlinux_informix();
        let grid = SimSession::new()
            .seed(3)
            .max_len(20_000)
            .workload(p.clone())
            .config(SimConfig::btb2_enabled())
            .run();
        let trace = p.build_with_len(3, 20_000.min(p.default_len));
        let direct = Simulator::new(SimConfig::btb2_enabled()).run(&trace);
        assert_eq!(grid.result(&p.name, "BTB2 enabled").cpi(), direct.cpi());
    }

    #[test]
    fn shared_and_walked_grids_are_bit_identical() {
        // The materialized fast path must change speed, not predictions:
        // a capped session (every cell re-walks its generator) and the
        // default shared session produce the same results.
        let session = SimSession::new()
            .seed(11)
            .max_len(8_000)
            .workloads(vec![WorkloadProfile::tpf_airline(), WorkloadProfile::zos_lspr_wasdb_cbw2()])
            .configs(vec![SimConfig::no_btb2(), SimConfig::btb2_enabled()]);
        let shared = session.clone().run();
        let walked = session.materialize_cap(0).run();
        for w in shared.workloads() {
            for c in shared.configs() {
                let (s, k) = (shared.result(w, c), walked.result(w, c));
                assert_eq!(s.core.cycles, k.core.cycles, "({w}, {c}) cycles diverged");
                assert_eq!(s.core.outcomes, k.core.outcomes, "({w}, {c}) outcomes diverged");
            }
        }
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
    fn compact_and_record_grids_are_bit_identical() {
        // The compact branch-point fast path must change speed, not
        // predictions: the same session over the reference record path
        // and over per-cell walking produces the same results.
        let session = SimSession::new()
            .seed(13)
            .max_len(9_000)
            .workloads(vec![WorkloadProfile::tpf_airline(), WorkloadProfile::zos_lspr_ims()])
            .configs(vec![SimConfig::no_btb2(), SimConfig::btb2_enabled()]);
        let compact = session.clone().run();
        let record = session.clone().compact(false).run();
        let walked = session.compact(false).materialize_cap(0).run();
        for w in compact.workloads() {
            for c in compact.configs() {
                let fast = compact.result(w, c);
                assert_eq!(fast.core, record.result(w, c).core, "({w}, {c}) record diverged");
                assert_eq!(fast.core, walked.result(w, c).core, "({w}, {c}) walked diverged");
            }
        }
    }

    #[test]
    fn compact_session_over_cap_falls_back_bit_identically() {
        // A cap of 0 declines both capture forms; every cell re-walks
        // its generator and the results still match the shared path.
        let session = SimSession::new()
            .seed(21)
            .max_len(6_000)
            .workload(WorkloadProfile::tpf_airline())
            .configs(vec![SimConfig::no_btb2(), SimConfig::btb2_enabled()]);
        let shared = session.clone().run();
        let capped = session.materialize_cap(0).run();
        for w in shared.workloads() {
            for c in shared.configs() {
                assert_eq!(shared.result(w, c).core, capped.result(w, c).core);
            }
        }
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
    fn store_entry_over_session_cap_is_regenerated_bit_identically() {
        // A warm store must not defeat a deliberately small materialize
        // cap: the loaded capture is discarded and the row replays via
        // the record/walking fallback, still bit-identical.
        let dir = std::env::temp_dir().join(format!("zbp-session-storecap-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let base = SimSession::new()
            .seed(23)
            .max_len(6_000)
            .workload(WorkloadProfile::tpf_airline())
            .configs(vec![SimConfig::no_btb2(), SimConfig::btb2_enabled()]);
        base.clone().trace_store(Arc::new(TraceStore::at(&dir))).run();
        let capped_store = Arc::new(TraceStore::at(&dir));
        let capped = base.clone().trace_store(Arc::clone(&capped_store)).materialize_cap(64).run();
        let plain = base.run();
        for w in plain.workloads() {
            for c in plain.configs() {
                assert_eq!(plain.result(w, c).core, capped.result(w, c).core);
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
