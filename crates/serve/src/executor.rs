//! The daemon's cell executor: in-flight dedup by cell key plus a
//! bounded worker pool that shards cold cells.
//!
//! Requests never compute cells on their connection threads. A request
//! resolves its grid to [`zbp_sim::session::SessionCell`]s, *admits*
//! each cold cell here — the first admitter becomes the cell's owner
//! and enqueues it, later admitters join the same [`CellSlot`] — and
//! then waits on the slots while worker threads drain the queue. Jobs
//! are grouped by workload row so a worker computes all of a row's
//! owned columns against one shared capture, exactly like the CLI's
//! lane-batched replay path.
//!
//! Workers coordinate with *other processes* through the cache's
//! advisory claim files ([`CellCache::try_claim`]): a claim held by a
//! concurrent CLI run (or second daemon) turns the cell into a wait on
//! that process's entry instead of a duplicate computation. Claims are
//! advisory — if the holder dies, the worker recomputes and the result
//! is bit-identical either way.

use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;
use zbp_sim::cache::{CellCache, CellKey};
use zbp_sim::session::{awaited_cell, cached_cell, SimSession};

use crate::metrics::ServeMetrics;

/// How a resolved cell got its result, as reported in `/run` progress
/// events.
pub mod provenance {
    /// Loaded from the cell cache without touching the worker pool.
    pub const CACHE_HIT: &str = "cache-hit";
    /// Computed by this daemon's worker pool.
    pub const COMPUTED: &str = "computed";
    /// Joined another request's in-flight computation of the same cell.
    pub const DEDUP: &str = "dedup";
    /// Served from the entry published by a concurrent *process* that
    /// held the cell's claim.
    pub const CLAIM_WAIT: &str = "claim-wait";
}

/// Observable lifecycle of one admitted cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SlotView {
    /// Admitted, waiting for a worker.
    Queued,
    /// A worker is computing the cell's row group.
    Running,
    /// Resolved; the result is in the cell cache. Carries the slot's
    /// own provenance (owners report it verbatim; joiners report
    /// [`provenance::DEDUP`]).
    Done(&'static str),
    /// The computation panicked or could not be stored.
    Failed(String),
}

impl SlotView {
    fn is_resolved(&self) -> bool {
        matches!(self, SlotView::Done(_) | SlotView::Failed(_))
    }
}

/// Shared state of one in-flight cell: every request waiting on the
/// cell holds the same slot.
#[derive(Debug)]
pub struct CellSlot {
    state: Mutex<SlotView>,
    changed: Condvar,
}

impl CellSlot {
    fn new() -> Self {
        Self { state: Mutex::new(SlotView::Queued), changed: Condvar::new() }
    }

    /// Current lifecycle phase.
    pub fn view(&self) -> SlotView {
        self.state.lock().expect("slot lock").clone()
    }

    /// Blocks until the state differs from `seen` or `deadline` passes;
    /// `None` on timeout. Callers loop on this to observe the
    /// queued → running → done transitions individually.
    pub fn wait_change(&self, seen: &SlotView, deadline: Instant) -> Option<SlotView> {
        let mut state = self.state.lock().expect("slot lock");
        while *state == *seen {
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            let (next, timeout) =
                self.changed.wait_timeout(state, deadline - now).expect("slot lock");
            state = next;
            if timeout.timed_out() && *state == *seen {
                return None;
            }
        }
        Some(state.clone())
    }

    /// Blocks until the slot resolves (done or failed) or `deadline`
    /// passes; `None` on timeout.
    pub fn wait_resolved(&self, deadline: Instant) -> Option<SlotView> {
        let mut view = self.view();
        while !view.is_resolved() {
            view = self.wait_change(&view, deadline)?;
        }
        Some(view)
    }

    fn set(&self, next: SlotView) {
        *self.state.lock().expect("slot lock") = next;
        self.changed.notify_all();
    }
}

/// One admitted cold cell inside a row job.
pub struct JobCell {
    /// Configuration column index within the job's session.
    pub col: usize,
    /// The cell's cache identity.
    pub key: CellKey,
    /// The slot every waiter observes.
    pub slot: Arc<CellSlot>,
}

/// A unit of worker-pool work: the owned cold cells of one workload
/// row, computed against one shared capture (lane-batched, store-warm)
/// exactly like a CLI cache miss.
pub struct Job {
    /// The session the row belongs to (per-request: carries the
    /// request's len/seed and the daemon's trace store).
    pub session: Arc<SimSession>,
    /// The shared on-disk cell cache.
    pub cache: Arc<CellCache>,
    /// Workload row index into the session.
    pub row: usize,
    /// The row's admitted cells, one per cold column.
    pub cells: Vec<JobCell>,
}

/// What [`Executor::admit`] decided about a cell.
pub enum Admission {
    /// First admitter: the caller must enqueue the cell in a [`Job`].
    Owner(Arc<CellSlot>),
    /// The cell is already in flight; wait on the returned slot.
    Joined(Arc<CellSlot>),
}

struct ExecState {
    queue: Mutex<VecDeque<Job>>,
    available: Condvar,
    draining: AtomicBool,
    inflight: Mutex<HashMap<String, Arc<CellSlot>>>,
    metrics: Arc<ServeMetrics>,
}

/// The dedup table + worker pool. One per daemon.
pub struct Executor {
    state: Arc<ExecState>,
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl Executor {
    /// Spawns `workers` worker threads over an empty queue.
    pub fn new(workers: usize, metrics: Arc<ServeMetrics>) -> Self {
        let state = Arc::new(ExecState {
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            draining: AtomicBool::new(false),
            inflight: Mutex::new(HashMap::new()),
            metrics,
        });
        let handles = (0..workers.max(1))
            .map(|i| {
                let state = Arc::clone(&state);
                std::thread::Builder::new()
                    .name(format!("zbp-serve-worker-{i}"))
                    .spawn(move || worker_loop(&state))
                    .expect("spawn worker")
            })
            .collect();
        Self { state, workers: Mutex::new(handles) }
    }

    /// Registers interest in a cold cell: the first caller per key
    /// becomes the owner (and must submit a job containing the returned
    /// slot); concurrent callers join the owner's slot.
    pub fn admit(&self, key: &CellKey) -> Admission {
        let mut inflight = self.state.inflight.lock().expect("inflight lock");
        match inflight.entry(key.digest()) {
            std::collections::hash_map::Entry::Occupied(e) => {
                Admission::Joined(Arc::clone(e.get()))
            }
            std::collections::hash_map::Entry::Vacant(e) => {
                let slot = Arc::new(CellSlot::new());
                e.insert(Arc::clone(&slot));
                self.state.metrics.inflight_cells.fetch_add(1, Ordering::Relaxed);
                Admission::Owner(slot)
            }
        }
    }

    /// Enqueues a row job for the worker pool.
    pub fn submit(&self, job: Job) {
        let mut queue = self.state.queue.lock().expect("queue lock");
        queue.push_back(job);
        self.state.metrics.queue_depth.store(queue.len() as u64, Ordering::Relaxed);
        drop(queue);
        self.state.available.notify_one();
    }

    /// Graceful drain: stops accepting the *idle wait* (workers finish
    /// every queued job first), then joins all workers. Queued and
    /// running cells complete and land in the cache; nothing is
    /// abandoned half-stored (stores are atomic regardless).
    pub fn drain(&self) {
        self.state.draining.store(true, Ordering::SeqCst);
        self.state.available.notify_all();
        for handle in self.workers.lock().expect("workers lock").drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(state: &Arc<ExecState>) {
    loop {
        let job = {
            let mut queue = state.queue.lock().expect("queue lock");
            loop {
                if let Some(job) = queue.pop_front() {
                    state.metrics.queue_depth.store(queue.len() as u64, Ordering::Relaxed);
                    break Some(job);
                }
                if state.draining.load(Ordering::SeqCst) {
                    break None;
                }
                queue = state.available.wait(queue).expect("queue lock");
            }
        };
        let Some(job) = job else { return };
        let outcome = catch_unwind(AssertUnwindSafe(|| run_job(state, &job)));
        if let Err(panic) = outcome {
            let msg = panic_message(&panic);
            for cell in &job.cells {
                // Only fail cells run_job had not yet resolved: a cell
                // resolved Done before the panic (cache hit, or a column
                // stored before a later one blew up) has a good result,
                // and re-resolving it would flip it to Failed and
                // double-count against the inflight table — possibly
                // clobbering a newer request's fresh admission of the
                // same key. This worker is the slot's only resolver, so
                // the view cannot change under us here.
                if !cell.slot.view().is_resolved() {
                    resolve(state, cell, SlotView::Failed(msg.clone()));
                }
            }
        }
    }
}

/// Computes one row job: re-check the cache (cells may have landed
/// since admission), claim the rest, lane-batch the claimed columns
/// through one capture, wait out externally-claimed cells, and resolve
/// every slot.
fn run_job(state: &Arc<ExecState>, job: &Job) {
    for cell in &job.cells {
        cell.slot.set(SlotView::Running);
    }
    let mut mine: Vec<&JobCell> = Vec::new();
    let mut theirs: Vec<&JobCell> = Vec::new();
    let mut guards = Vec::new();
    for cell in &job.cells {
        // Another request, the CLI, or a prior run may have published
        // the cell between admission and execution.
        if cached_cell(&job.cache, &cell.key).is_some() {
            state.metrics.cache_hits.fetch_add(1, Ordering::Relaxed);
            resolve(state, cell, SlotView::Done(provenance::CACHE_HIT));
        } else {
            match job.cache.try_claim(&cell.key) {
                Some(guard) => {
                    guards.push(guard);
                    mine.push(cell);
                }
                None => theirs.push(cell),
            }
        }
    }
    if !mine.is_empty() {
        let cols: Vec<usize> = mine.iter().map(|c| c.col).collect();
        let results = job.session.compute_row(job.row, &cols);
        for (cell, core) in mine.iter().zip(&results) {
            use zbp_support::json::ToJson;
            job.cache.store(&cell.key, &core.to_json());
        }
        // Release the claims only after every store: a waiter that sees
        // our claim vanish trusts one final cache look.
        drop(guards);
        state.metrics.cells_computed.fetch_add(mine.len() as u64, Ordering::Relaxed);
        for cell in &mine {
            resolve(state, cell, SlotView::Done(provenance::COMPUTED));
        }
    }
    for cell in theirs {
        match awaited_cell(&job.cache, &cell.key) {
            Some(_) => {
                state.metrics.claims_lost.fetch_add(1, Ordering::Relaxed);
                resolve(state, cell, SlotView::Done(provenance::CLAIM_WAIT));
            }
            None => {
                // The claim holder died without publishing a usable
                // entry: recompute.
                use zbp_support::json::ToJson;
                let results = job.session.compute_row(job.row, &[cell.col]);
                job.cache.store(&cell.key, &results[0].to_json());
                state.metrics.cells_computed.fetch_add(1, Ordering::Relaxed);
                resolve(state, cell, SlotView::Done(provenance::COMPUTED));
            }
        }
    }
}

fn resolve(state: &Arc<ExecState>, cell: &JobCell, view: SlotView) {
    let digest = cell.key.digest();
    let mut inflight = state.inflight.lock().expect("inflight lock");
    // Remove (and count down) only this cell's own entry: once a slot
    // resolves, the key may be re-admitted by a newer request whose
    // fresh slot then owns the table entry — a stray second resolve of
    // the old slot must not evict it or underflow the gauge.
    if inflight.get(&digest).is_some_and(|s| Arc::ptr_eq(s, &cell.slot)) {
        inflight.remove(&digest);
        state.metrics.inflight_cells.fetch_sub(1, Ordering::Relaxed);
    }
    drop(inflight);
    cell.slot.set(view);
}

fn panic_message(panic: &Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        format!("cell computation panicked: {s}")
    } else if let Some(s) = panic.downcast_ref::<String>() {
        format!("cell computation panicked: {s}")
    } else {
        "cell computation panicked".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;
    use zbp_sim::experiments::ExperimentOptions;
    use zbp_sim::registry;

    fn tmp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("zbp-serve-exec-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn small_session() -> Arc<SimSession> {
        let opts = ExperimentOptions::quick(2_000, 7);
        let spec = registry::find("fig4").expect("fig4 registered");
        Arc::new(spec.grid_session(&opts).expect("fig4 is a grid"))
    }

    #[test]
    fn owner_computes_and_joiners_share_one_slot() {
        let dir = tmp_dir("dedup");
        let cache = Arc::new(CellCache::at(&dir));
        let metrics = Arc::new(ServeMetrics::default());
        let exec = Executor::new(2, Arc::clone(&metrics));
        let session = small_session();
        let cell = &session.cells()[0];

        let Admission::Owner(slot) = exec.admit(&cell.key) else {
            panic!("first admit must own");
        };
        let Admission::Joined(joined) = exec.admit(&cell.key) else {
            panic!("second admit must join");
        };
        assert!(Arc::ptr_eq(&slot, &joined));

        exec.submit(Job {
            session: Arc::clone(&session),
            cache: Arc::clone(&cache),
            row: cell.row,
            cells: vec![JobCell { col: cell.col, key: cell.key.clone(), slot: Arc::clone(&slot) }],
        });
        let deadline = Instant::now() + Duration::from_secs(60);
        assert_eq!(slot.wait_resolved(deadline), Some(SlotView::Done(provenance::COMPUTED)));
        assert!(cache.load(&cell.key).is_some(), "result landed in the cache");
        assert_eq!(metrics.cells_computed.load(Ordering::Relaxed), 1);
        assert_eq!(metrics.inflight_cells.load(Ordering::Relaxed), 0);

        // Re-admitting a resolved cell starts a fresh slot; its job
        // now short-circuits on the cache.
        let Admission::Owner(slot2) = exec.admit(&cell.key) else {
            panic!("resolved cells leave the dedup table");
        };
        exec.submit(Job {
            session: Arc::clone(&session),
            cache: Arc::clone(&cache),
            row: cell.row,
            cells: vec![JobCell { col: cell.col, key: cell.key.clone(), slot: Arc::clone(&slot2) }],
        });
        assert_eq!(slot2.wait_resolved(deadline), Some(SlotView::Done(provenance::CACHE_HIT)));
        exec.drain();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn drain_finishes_queued_jobs_before_exiting() {
        let dir = tmp_dir("drain");
        let cache = Arc::new(CellCache::at(&dir));
        let exec = Executor::new(1, Arc::new(ServeMetrics::default()));
        let session = small_session();
        let cells = session.cells();
        let mut slots = Vec::new();
        for cell in &cells {
            let Admission::Owner(slot) = exec.admit(&cell.key) else { panic!("cold admit") };
            exec.submit(Job {
                session: Arc::clone(&session),
                cache: Arc::clone(&cache),
                row: cell.row,
                cells: vec![JobCell {
                    col: cell.col,
                    key: cell.key.clone(),
                    slot: Arc::clone(&slot),
                }],
            });
            slots.push(slot);
        }
        // Drain with the queue still full: every queued cell must still
        // resolve (graceful drain), none may be abandoned.
        exec.drain();
        for slot in &slots {
            assert!(matches!(slot.view(), SlotView::Done(_)), "drained cell resolved");
        }
        for cell in &cells {
            assert!(cache.load(&cell.key).is_some());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_panicking_job_fails_only_unresolved_cells() {
        let dir = tmp_dir("panic");
        let session = small_session();
        let cells = session.cells();
        // Two cells of one row: the first is pre-cached (resolved Done
        // inside run_job before any computation), the second's store
        // panics via the cache's abort hook.
        let (a, b) = {
            let mut pair = None;
            'outer: for (i, x) in cells.iter().enumerate() {
                for y in &cells[i + 1..] {
                    if y.row == x.row {
                        pair = Some((x.clone(), y.clone()));
                        break 'outer;
                    }
                }
            }
            pair.expect("grid has two columns in one row")
        };
        use zbp_support::json::ToJson;
        let a_result = session.compute_row(a.row, &[a.col]).remove(0);
        CellCache::at(&dir).store(&a.key, &a_result.to_json());
        let cache = Arc::new(CellCache::at(&dir).abort_after_stores(0));
        let metrics = Arc::new(ServeMetrics::default());
        let exec = Executor::new(1, Arc::clone(&metrics));
        let Admission::Owner(slot_a) = exec.admit(&a.key) else { panic!("cold admit a") };
        let Admission::Owner(slot_b) = exec.admit(&b.key) else { panic!("cold admit b") };
        exec.submit(Job {
            session: Arc::clone(&session),
            cache,
            row: a.row,
            cells: vec![
                JobCell { col: a.col, key: a.key.clone(), slot: Arc::clone(&slot_a) },
                JobCell { col: b.col, key: b.key.clone(), slot: Arc::clone(&slot_b) },
            ],
        });
        let deadline = Instant::now() + Duration::from_secs(60);
        // The pre-resolved cell keeps its result; only the cell the
        // panic actually lost reports Failed.
        assert_eq!(slot_a.wait_resolved(deadline), Some(SlotView::Done(provenance::CACHE_HIT)));
        assert!(matches!(slot_b.wait_resolved(deadline), Some(SlotView::Failed(_))));
        assert_eq!(slot_a.view(), SlotView::Done(provenance::CACHE_HIT));
        // The inflight gauge reconciles to zero (no double-decrement
        // underflow) and both keys are re-admittable, not wedged.
        assert_eq!(metrics.inflight_cells.load(Ordering::Relaxed), 0);
        assert!(matches!(exec.admit(&a.key), Admission::Owner(_)));
        assert!(matches!(exec.admit(&b.key), Admission::Owner(_)));
        exec.drain();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn an_entry_that_does_not_decode_is_computed_not_a_hit() {
        let dir = tmp_dir("undecodable");
        let session = small_session();
        let cell = &session.cells()[0];
        // The entry parses as JSON but is no cell result: the gather
        // would recompute it, so the job must not call it a hit.
        CellCache::at(&dir).store(&cell.key, &zbp_support::json::Json::Num(1.0));
        let cache = Arc::new(CellCache::at(&dir));
        let metrics = Arc::new(ServeMetrics::default());
        let exec = Executor::new(1, Arc::clone(&metrics));
        let Admission::Owner(slot) = exec.admit(&cell.key) else { panic!("cold admit") };
        exec.submit(Job {
            session: Arc::clone(&session),
            cache: Arc::clone(&cache),
            row: cell.row,
            cells: vec![JobCell { col: cell.col, key: cell.key.clone(), slot: Arc::clone(&slot) }],
        });
        let deadline = Instant::now() + Duration::from_secs(60);
        assert_eq!(slot.wait_resolved(deadline), Some(SlotView::Done(provenance::COMPUTED)));
        assert_eq!(metrics.cache_hits.load(Ordering::Relaxed), 0);
        assert_eq!(metrics.cells_computed.load(Ordering::Relaxed), 1);
        assert!(cached_cell(&cache, &cell.key).is_some(), "the bad entry was replaced");
        exec.drain();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn timeout_leaves_the_slot_running_and_cache_consistent() {
        let dir = tmp_dir("timeout");
        let cache = Arc::new(CellCache::at(&dir));
        let exec = Executor::new(1, Arc::new(ServeMetrics::default()));
        let session = small_session();
        let cell = &session.cells()[0];
        let Admission::Owner(slot) = exec.admit(&cell.key) else { panic!("cold admit") };
        exec.submit(Job {
            session: Arc::clone(&session),
            cache: Arc::clone(&cache),
            row: cell.row,
            cells: vec![JobCell { col: cell.col, key: cell.key.clone(), slot: Arc::clone(&slot) }],
        });
        // A deadline in the past times out immediately — the caller
        // abandons the wait, not the computation.
        assert_eq!(slot.wait_resolved(Instant::now()), None);
        // The cell still completes and its entry is whole (the store is
        // atomic): timing out a request never leaves a partial entry.
        assert!(matches!(
            slot.wait_resolved(Instant::now() + Duration::from_secs(60)),
            Some(SlotView::Done(_))
        ));
        let entry = cache.load(&cell.key).expect("entry present");
        assert!(!entry.render().is_empty());
        exec.drain();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
