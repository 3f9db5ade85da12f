//! The daemon's memo of decoded warm cells: a small, fast first level in
//! front of the on-disk cell cache.
//!
//! Phase 1 of a `/run` asks the memo before the disk, and a cell it has
//! to read from disk goes into the memo, so a cell served again costs a
//! lookup instead of a file read and a parse. To everything outside, a
//! memo hit is a cache hit: the same provenance, the same counters.
//!
//! The memo never answers with anything the disk would not have given.
//! A [`CellKey`] names every input of its cell plus the cache's
//! `SCHEMA_VERSION`, entries are written once by atomic rename, and the
//! memo takes only results that decoded from an entry whose embedded key
//! matched ([`cached_cell`]). What it gives up: an entry damaged on disk
//! after it was memoized goes unnoticed by this daemon until the memo is
//! cleared, while the CLI and the next daemon still detect and delete it.
//!
//! The memo is bounded by [`MEMO_BUDGET`] bytes. An insert that would
//! exceed the budget clears the memo first, so a working set larger than
//! the budget costs what a disk hit costs, and no more.

use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use zbp_sim::cache::{CellCache, CellKey};
use zbp_sim::session::cached_cell;
use zbp_uarch::core::CoreResult;

use crate::metrics::ServeMetrics;

/// Bytes the daemon's memo may hold, counted per entry by
/// [`entry_bytes`]. Every grid of the registry at one length and seed is
/// 420 distinct cells of about 1.2 KB of key each, well inside it.
pub(crate) const MEMO_BUDGET: usize = 4 << 20;

/// Decoded cell results by cell key, within a byte budget.
pub(crate) struct CellMemo {
    budget: usize,
    cells: Mutex<Cells>,
    metrics: Arc<ServeMetrics>,
}

#[derive(Default)]
struct Cells {
    results: HashMap<CellKey, CoreResult>,
    bytes: usize,
}

/// What one memo entry counts against the budget: its key and name text
/// plus the result itself.
fn entry_bytes(key: &CellKey, core: &CoreResult) -> usize {
    key.as_str().len() + core.name.len() + std::mem::size_of::<CoreResult>()
}

impl CellMemo {
    /// An empty memo of `budget` bytes, reporting to `metrics`
    /// (`memo_hits`, `memo_entries`, `memo_bytes`).
    pub(crate) fn new(budget: usize, metrics: Arc<ServeMetrics>) -> Self {
        Self { budget, cells: Mutex::new(Cells::default()), metrics }
    }

    /// The result for `key`: from the memo, or else read from `cache`
    /// ([`cached_cell`]) and memoized. `None` when neither holds a cell
    /// that decodes.
    pub(crate) fn cell(&self, cache: &CellCache, key: &CellKey) -> Option<CoreResult> {
        if let Some(core) = self.cells.lock().expect("memo lock").results.get(key) {
            self.metrics.memo_hits.fetch_add(1, Ordering::Relaxed);
            return Some(core.clone());
        }
        let core = cached_cell(cache, key)?;
        self.insert(key, &core);
        Some(core)
    }

    fn insert(&self, key: &CellKey, core: &CoreResult) {
        let bytes = entry_bytes(key, core);
        if bytes > self.budget {
            return;
        }
        let mut cells = self.cells.lock().expect("memo lock");
        // Another request may have memoized the cell since the lookup.
        if cells.results.contains_key(key) {
            return;
        }
        if cells.bytes + bytes > self.budget {
            *cells = Cells::default();
        }
        cells.results.insert(key.clone(), core.clone());
        cells.bytes += bytes;
        self.metrics.memo_entries.store(cells.results.len() as u64, Ordering::Relaxed);
        self.metrics.memo_bytes.store(cells.bytes as u64, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zbp_sim::experiments::ExperimentOptions;
    use zbp_sim::registry;
    use zbp_support::json::ToJson;

    #[test]
    fn a_tiny_budget_is_never_exceeded_and_cleared_cells_read_again() {
        let dir = std::env::temp_dir().join(format!("zbp-serve-memo-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let session = registry::find("fig2")
            .expect("fig2 registered")
            .grid_session(&ExperimentOptions::quick(2_000, 7))
            .expect("fig2 is a grid");
        let cells = session.cells();
        let cells = &cells[..4];
        let cache = CellCache::at(&dir);
        for cell in cells {
            let core = session.compute_row(cell.row, &[cell.col]).remove(0);
            cache.store(&cell.key, &core.to_json());
        }
        let on_disk: Vec<CoreResult> =
            cells.iter().map(|c| cached_cell(&cache, &c.key).expect("stored")).collect();

        // Room for the first two entries but not the third: its insert
        // clears the memo.
        let sizes: Vec<usize> =
            cells.iter().zip(&on_disk).map(|(c, r)| entry_bytes(&c.key, r)).collect();
        let budget = sizes[0] + sizes[1] + sizes[2] - 1;
        let metrics = Arc::new(ServeMetrics::default());
        let memo = CellMemo::new(budget, Arc::clone(&metrics));
        let gauge = |a: &std::sync::atomic::AtomicU64| a.load(Ordering::Relaxed);
        for (cell, want) in cells.iter().zip(&on_disk).take(3) {
            let reads = cache.reads();
            assert_eq!(memo.cell(&cache, &cell.key).as_ref(), Some(want));
            assert_eq!(cache.reads(), reads + 1, "a cell not yet memoized is read");
            assert_eq!(memo.cell(&cache, &cell.key).as_ref(), Some(want));
            assert_eq!(cache.reads(), reads + 1, "a memoized cell is not read again");
            assert!(gauge(&metrics.memo_bytes) as usize <= budget);
        }
        assert_eq!(gauge(&metrics.memo_entries), 1, "the third insert cleared the first two");
        assert_eq!(gauge(&metrics.memo_hits), 3);
        // The first cell was cleared out: it is read from disk again and
        // decodes equal.
        let reads = cache.reads();
        assert_eq!(memo.cell(&cache, &cells[0].key).as_ref(), Some(&on_disk[0]));
        assert_eq!(cache.reads(), reads + 1);
        assert_eq!(gauge(&metrics.memo_entries), 2);

        // An entry larger than the whole budget is served, not memoized.
        let small = CellMemo::new(sizes[1] - 1, Arc::new(ServeMetrics::default()));
        assert_eq!(small.cell(&cache, &cells[1].key).as_ref(), Some(&on_disk[1]));
        assert!(small.cells.lock().expect("memo lock").results.is_empty());
        // A cell the cache does not hold is no hit and is not memoized.
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(memo.cell(&cache, &cells[3].key), None);
        assert_eq!(gauge(&metrics.memo_entries), 2);
    }
}
