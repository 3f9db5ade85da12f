//! Pieces shared by every workload: options, scratch directories,
//! artifact digests, model counts and the report every run prints.

use crate::host::Watch;
use crate::stats::{median, percentile, quartiles};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use zbp_sim::cache::CellCache;
use zbp_sim::experiments::ExperimentOptions;
use zbp_sim::registry::{self, ExperimentSpec};
use zbp_support::hash::fnv1a_64_hex;
use zbp_support::json::{FromJson, Json};
use zbp_trace::TraceStore;
use zbp_uarch::CoreResult;

/// Worker threads for grids and the daemon's pool: the host's 2 vCPUs.
pub const WORKERS: usize = 2;

/// Looks up a registered experiment.
pub fn spec(id: &str) -> Result<&'static ExperimentSpec, String> {
    registry::find(id).ok_or_else(|| format!("experiment {id:?} is not registered"))
}

/// Options for one run: seed, per-workload length cap, two workers and
/// the given trace store, everything else at its default.
pub fn options(seed: u64, len: u64, store: &Path) -> ExperimentOptions {
    ExperimentOptions {
        len: Some(len),
        seed,
        workers: Some(WORKERS),
        trace_store: Arc::new(TraceStore::at(store)),
        ..ExperimentOptions::default()
    }
}

/// Digest of an artifact with its volatile manifest fields removed: two
/// runs over the same inputs give the same digest.
pub fn artifact_digest(artifact: &Json) -> String {
    fnv1a_64_hex(&registry::strip_volatile(artifact).render())
}

/// A directory for one run's stores and caches, removed when dropped.
/// It lives inside the working directory, which the run may write.
pub struct Scratch {
    root: PathBuf,
    next: u32,
}

impl Scratch {
    pub fn new(tag: &str) -> Result<Self, String> {
        let root = Path::new(".perf_tmp").join(format!("{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root)
            .map_err(|e| format!("cannot create {}: {e}", root.display()))?;
        Ok(Self { root, next: 0 })
    }

    /// A new, empty directory under the scratch root.
    pub fn fresh(&mut self, name: &str) -> Result<PathBuf, String> {
        self.next += 1;
        let dir = self.root.join(format!("{name}-{}", self.next));
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        Ok(dir)
    }

    /// Removes a directory made by [`Self::fresh`].
    pub fn remove(&self, dir: &Path) {
        let _ = std::fs::remove_dir_all(dir);
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
        // The parent is shared by concurrent runs; it goes once empty.
        let _ = std::fs::remove_dir(".perf_tmp");
    }
}

/// Model work counts summed over a grid's cells. A change that only
/// speeds up the simulator leaves every one of them as it was.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ModelCounts {
    pub instructions: u64,
    pub cycles: u64,
    pub icache_demand_misses: u64,
    pub surprises: u64,
    pub btb2_entries_transferred: u64,
    pub btb1_misses_reported: u64,
}

impl From<&CoreResult> for ModelCounts {
    fn from(core: &CoreResult) -> Self {
        Self {
            instructions: core.instructions,
            cycles: core.cycles,
            icache_demand_misses: core.icache.demand_misses,
            surprises: core.predictor.surprises,
            btb2_entries_transferred: core.predictor.btb2_entries_transferred,
            btb1_misses_reported: core.predictor.btb1_misses_reported,
        }
    }
}

impl ModelCounts {
    pub fn merge(&mut self, o: Self) {
        self.instructions += o.instructions;
        self.cycles += o.cycles;
        self.icache_demand_misses += o.icache_demand_misses;
        self.surprises += o.surprises;
        self.btb2_entries_transferred += o.btb2_entries_transferred;
        self.btb1_misses_reported += o.btb1_misses_reported;
    }

    /// Sums the counts of every cell of `spec`'s grid from `cache`.
    pub fn from_cache(
        spec: &ExperimentSpec,
        opts: &ExperimentOptions,
        cache: &CellCache,
    ) -> Result<Self, String> {
        let session = spec.grid_session(opts).ok_or(format!("{} is not a grid", spec.id))?;
        let mut counts = Self::default();
        for cell in session.cells() {
            let json = cache
                .load(&cell.key)
                .ok_or_else(|| format!("{}: cell {} missing", spec.id, cell.key.digest()))?;
            counts.merge((&CoreResult::from_json(&json).map_err(|e| e.to_string())?).into());
        }
        Ok(counts)
    }

    pub fn metrics(&self) -> [(&'static str, f64); 6] {
        [
            ("uarch.sim_instructions", self.instructions as f64),
            ("uarch.sim_cycles", self.cycles as f64),
            ("uarch.icache_demand_misses", self.icache_demand_misses as f64),
            ("predictor.surprises", self.surprises as f64),
            ("predictor.btb2_entries_transferred", self.btb2_entries_transferred as f64),
            ("predictor.btb1_misses_reported", self.btb1_misses_reported as f64),
        ]
    }
}

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted: cells for the grids, requests for serving.
    pub attempted: u64,
    /// Operations whose output check failed.
    pub failed: u64,
    /// Every failed check, in the order found.
    pub problems: Vec<String>,
    /// `(name, value, unit)`.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Extra figures printed before the result line.
    pub detail: Vec<(String, Json)>,
}

impl Report {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    pub fn detail(&mut self, name: &str, value: Json) {
        self.detail.push((name.to_string(), value));
    }

    /// Records `ops` operations, failed unless `problem` is `None`.
    pub fn check(&mut self, ops: u64, problem: Option<String>) {
        self.attempted += ops;
        if let Some(p) = problem {
            self.failed += ops;
            self.problems.push(p);
        }
    }

    /// Fails the run when a digest is recorded for `what` at `seed` and
    /// `digest` differs from it.
    pub fn check_recorded(&mut self, what: &str, seed: u64, digest: &str) {
        if let Some(want) = crate::expected_digest(what, seed) {
            if digest != want {
                self.check(0, Some(format!("{what}: digest {digest}, recorded {want}")));
            }
        }
    }

    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    /// The result line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_json(&self) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|&(name, value, unit)| {
                let v = Json::Obj(vec![
                    ("value".into(), Json::Num(value)),
                    ("unit".into(), Json::Str(unit.into())),
                ]);
                (name.to_string(), v)
            })
            .collect();
        Json::Obj(vec![
            ("correct".into(), Json::Bool(self.correct())),
            ("attempted".into(), Json::Num(self.attempted as f64)),
            ("failed".into(), Json::Num(self.failed as f64)),
            ("metrics".into(), Json::Obj(metrics)),
        ])
    }
}

/// Timings of repeated operations: host time (steal left out) and raw
/// wall time, in seconds.
#[derive(Debug, Default)]
pub struct Times {
    pub secs: Vec<f64>,
    pub wall: Vec<f64>,
}

impl Times {
    pub fn push(&mut self, w: &Watch) {
        self.secs.push(w.secs());
        self.wall.push(w.wall().as_secs_f64());
    }

    pub fn len(&self) -> usize {
        self.secs.len()
    }

    pub fn median(&self) -> f64 {
        median(&self.secs).unwrap_or(0.0)
    }

    pub fn percentile(&self, p: f64) -> f64 {
        percentile(&self.secs, p).unwrap_or(0.0)
    }

    /// Count, quartiles and the raw wall-time median, for the detail line.
    pub fn detail(&self) -> Json {
        let num = |v: Option<f64>| v.map_or(Json::Null, Json::Num);
        let (q1, q3) = quartiles(&self.secs).unzip();
        Json::Obj(vec![
            ("n".into(), Json::Num(self.secs.len() as f64)),
            ("median".into(), num(median(&self.secs))),
            ("q1".into(), num(q1)),
            ("q3".into(), num(q3)),
            ("wall_median".into(), num(median(&self.wall))),
        ])
    }
}

/// Peak resident memory (VmHWM) of process `pid`, in MiB.
pub fn peak_rss_mb(pid: &str) -> Result<f64, String> {
    let path = format!("/proc/{pid}/status");
    let status = std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| format!("{path} has no VmHWM line"))?;
    Ok(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_ignores_volatile_manifest_fields_only() {
        let artifact = |wall: f64, seed: f64| {
            Json::Obj(vec![
                (
                    "manifest".into(),
                    Json::Obj(vec![
                        ("experiment".into(), Json::Str("fig2".into())),
                        ("seed".into(), Json::Num(seed)),
                        ("wall_time_ms".into(), Json::Num(wall)),
                        ("git_revision".into(), Json::Str(format!("rev{wall}"))),
                    ]),
                ),
                ("data".into(), Json::Arr(vec![Json::Num(1.5)])),
            ])
        };
        let a = artifact_digest(&artifact(10.0, 1.0));
        assert_eq!(a.len(), 16, "64-bit hex digest");
        assert_eq!(a, artifact_digest(&artifact(99.0, 1.0)), "wall time and revision are volatile");
        assert_ne!(a, artifact_digest(&artifact(10.0, 2.0)), "the seed is not");
        let mut changed = artifact(10.0, 1.0);
        if let Json::Obj(fields) = &mut changed {
            fields[1].1 = Json::Arr(vec![Json::Num(1.25)]);
        }
        assert_ne!(a, artifact_digest(&changed), "data is covered");
    }

    #[test]
    fn report_counts_failed_operations() {
        let mut r = Report::default();
        r.check(78, None);
        assert!(r.correct());
        assert_eq!(r.result_json().get("correct"), Some(&Json::Bool(true)));
        r.check(78, Some("digest mismatch".into()));
        let j = r.result_json();
        assert_eq!(j.get("correct"), Some(&Json::Bool(false)));
        assert_eq!(j.get("attempted"), Some(&Json::Num(156.0)));
        assert_eq!(j.get("failed"), Some(&Json::Num(78.0)));
        assert!(!r.correct());

        // A check that covers no single operation still fails the run.
        let mut r = Report::default();
        r.check(10, None);
        r.check(0, Some("recorded digest differs".into()));
        assert!(!r.correct());
        assert_eq!(r.result_json().get("failed"), Some(&Json::Num(0.0)));
    }
}
