//! Daemon observability: lock-free counters plus latency histograms,
//! rendered as the `/metrics` endpoint's JSON body.
//!
//! The histograms reuse [`zbp_predictor::statsbus::Histogram`] — the
//! same log₂-bucketed shape the pipeline's `StatsBus` samples use — so
//! serve latencies and simulator quantities share one bucketing.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;
use zbp_predictor::statsbus::Histogram;
use zbp_support::json::Json;

/// All counters and histograms the daemon exports. Shared behind an
/// `Arc`; every field is independently thread-safe.
#[derive(Debug, Default)]
pub struct ServeMetrics {
    /// HTTP requests read and routed (any route). A request that
    /// cannot be read counts in `errors` only.
    pub requests: AtomicU64,
    /// `/run` requests currently being served.
    pub active_requests: AtomicU64,
    /// Cells requested across all `/run` calls (grid cells only).
    pub cells_requested: AtomicU64,
    /// Cells answered straight from the cell cache, the daemon's memo
    /// of it included.
    pub cache_hits: AtomicU64,
    /// Of `cache_hits`, the cells the memo answered without a read.
    pub memo_hits: AtomicU64,
    /// Cells the memo holds now.
    pub memo_entries: AtomicU64,
    /// Bytes the memo's entries count against its budget now.
    pub memo_bytes: AtomicU64,
    /// Cells computed by this daemon's worker pool.
    pub cells_computed: AtomicU64,
    /// Cells served by joining another request's in-flight computation.
    pub dedup_joins: AtomicU64,
    /// Cells whose cross-process claim was held elsewhere (a concurrent
    /// CLI run or second daemon) and were served from that entry.
    pub claims_lost: AtomicU64,
    /// Requests that ended in an error: unreadable (400, or 408 when
    /// the head did not arrive in time), a bad `/run` body, a timeout
    /// or a failed cell.
    pub errors: AtomicU64,
    /// Row jobs currently queued for the worker pool.
    pub queue_depth: AtomicU64,
    /// Cells currently queued or running.
    pub inflight_cells: AtomicU64,
    /// Per-cell wait latency when the cell was already cached, µs.
    warm_us: Mutex<Histogram>,
    /// Per-cell admission→done latency when the cell had to be
    /// computed (or joined), µs — wall-clock from when the request
    /// admitted the cell, not from when its wait began.
    cold_us: Mutex<Histogram>,
}

impl ServeMetrics {
    /// Records how long a `/run` caller waited for one warm
    /// (cache-hit) cell.
    pub fn observe_warm(&self, elapsed: Duration) {
        self.warm_us.lock().expect("metrics lock").observe(elapsed.as_micros() as u64);
    }

    /// Records how long a `/run` caller waited for one cold (computed
    /// or dedup-joined) cell.
    pub fn observe_cold(&self, elapsed: Duration) {
        self.cold_us.lock().expect("metrics lock").observe(elapsed.as_micros() as u64);
    }

    /// The `/metrics` response body.
    pub fn to_json(&self) -> Json {
        let c = |a: &AtomicU64| Json::Num(a.load(Ordering::Relaxed) as f64);
        Json::Obj(vec![
            ("requests".into(), c(&self.requests)),
            ("active_requests".into(), c(&self.active_requests)),
            ("cells_requested".into(), c(&self.cells_requested)),
            ("cache_hits".into(), c(&self.cache_hits)),
            ("memo_hits".into(), c(&self.memo_hits)),
            ("memo_entries".into(), c(&self.memo_entries)),
            ("memo_bytes".into(), c(&self.memo_bytes)),
            ("cells_computed".into(), c(&self.cells_computed)),
            ("dedup_joins".into(), c(&self.dedup_joins)),
            ("claims_lost".into(), c(&self.claims_lost)),
            ("errors".into(), c(&self.errors)),
            ("queue_depth".into(), c(&self.queue_depth)),
            ("inflight_cells".into(), c(&self.inflight_cells)),
            (
                "warm_cell_wait_us".into(),
                histogram_json(&self.warm_us.lock().expect("metrics lock")),
            ),
            (
                "cold_cell_wait_us".into(),
                histogram_json(&self.cold_us.lock().expect("metrics lock")),
            ),
        ])
    }
}

fn histogram_json(h: &Histogram) -> Json {
    Json::Obj(vec![
        ("count".into(), Json::Num(h.count as f64)),
        ("mean".into(), Json::Num(h.mean())),
        ("max".into(), Json::Num(h.max as f64)),
        (
            "log2_buckets".into(),
            Json::Arr(h.buckets.iter().map(|&b| Json::Num(b as f64)).collect()),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metrics_render_counters_and_histograms() {
        let m = ServeMetrics::default();
        m.requests.fetch_add(3, Ordering::Relaxed);
        m.observe_warm(Duration::from_micros(7));
        m.observe_cold(Duration::from_millis(2));
        let json = m.to_json();
        assert_eq!(json.get("requests"), Some(&Json::Num(3.0)));
        let warm = json.get("warm_cell_wait_us").expect("warm");
        assert_eq!(warm.get("count"), Some(&Json::Num(1.0)));
        assert_eq!(warm.get("max"), Some(&Json::Num(7.0)));
        let cold = json.get("cold_cell_wait_us").expect("cold");
        assert_eq!(cold.get("mean"), Some(&Json::Num(2000.0)));
    }
}
