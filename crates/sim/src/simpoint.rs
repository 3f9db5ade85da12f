//! SimPoint-style phase selection and weighted representative replay.
//!
//! Long traces are phased: a handful of recurring behaviours cover
//! almost all instructions. Instead of replaying every instruction,
//! this module slices a compact trace into fixed-length intervals,
//! summarizes each interval by a basic-block vector (BBV — where the
//! interval spent its instructions, bucketed by run start address),
//! clusters the vectors with a deterministic k-means, and replays only
//! one representative interval per cluster through the lane kernel's
//! windowed plan ([`ReplayPlan::Windows`]). Each representative's
//! CPI/MPKI is weighted by its cluster's share of the trace, yielding a
//! whole-trace estimate from a fraction of the replay work — the
//! SimPoint methodology (Sherwood et al., ASPLOS 2002) adapted to this
//! simulator's run-batched compact encoding.
//!
//! Every step is deterministic: the BBV bucketing is a pure hash, the
//! k-means seeding uses a fixed-seed [`SmallRng`], and ties break
//! toward the lowest index — two runs over the same capture produce
//! identical plans, which keeps the [`CellKey::simpoint`] cache and
//! `experiment verify` semantics intact. The weighted estimate is
//! validated against the full replay of the same capture; the measured
//! CPI error is part of the committed artifact (see the `simpoint`
//! registry experiment).

use crate::cache::{CellCache, CellKey};
use crate::config::SimConfig;
use crate::experiments::ExperimentOptions;
use crate::session::SimSession;
use zbp_support::json::{self, FromJson, Json, ToJson};
use zbp_support::rng::SmallRng;
use zbp_trace::source::WorkloadSource;
use zbp_trace::{CompactParts, CompactTrace};
use zbp_uarch::core::{CoreModel, LaneGroup, ReplayPlan, WindowMeasure};

/// SimPoint parameters. All four feed the [`CellKey::simpoint`] cache
/// key, so changing any of them re-measures instead of reusing stale
/// estimates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimPointSpec {
    /// Instructions per BBV interval.
    pub interval: u64,
    /// Target cluster count (k); clamped to the interval count.
    pub clusters: u32,
    /// Warmup instructions replayed (uncounted) before each window.
    pub warmup: u64,
    /// BBV dimensions (hash buckets over run start addresses).
    pub dims: u32,
}

zbp_support::impl_json_struct!(SimPointSpec { interval, clusters, warmup, dims });

impl Default for SimPointSpec {
    fn default() -> Self {
        Self { interval: 100_000, clusters: 10, warmup: 20_000, dims: 64 }
    }
}

/// The replay plan a clustering pass produces: one representative
/// window per cluster plus its weight (the cluster's share of all
/// intervals).
#[derive(Debug, Clone, PartialEq)]
pub struct SimPointPlan {
    /// Representative windows as `(start, len)` in retired-instruction
    /// coordinates, sorted by start.
    pub windows: Vec<(u64, u64)>,
    /// Weight per window, aligned with `windows`; sums to 1.
    pub weights: Vec<f64>,
    /// Total intervals the trace sliced into.
    pub intervals: usize,
    /// Total retired instructions in the sliced trace.
    pub total: u64,
}

/// One workload's SimPoint validation row: the weighted estimate next
/// to the full-replay truth, with the measured errors.
#[derive(Debug, Clone, PartialEq)]
pub struct SimPointRow {
    /// Workload name.
    pub trace: String,
    /// Intervals the trace sliced into.
    pub intervals: u64,
    /// Interval length used.
    pub interval_len: u64,
    /// Clusters (= representative windows replayed).
    pub clusters: u64,
    /// Instructions replayed through the model (windows + warmup).
    pub replayed_instructions: u64,
    /// Full trace length.
    pub total_instructions: u64,
    /// Weighted CPI estimate.
    pub weighted_cpi: f64,
    /// Full-replay CPI.
    pub full_cpi: f64,
    /// CPI estimate error, percent of the full-replay CPI.
    pub cpi_err_pct: f64,
    /// Weighted direction-misprediction MPKI estimate.
    pub weighted_dir_mpki: f64,
    /// Full-replay direction MPKI.
    pub full_dir_mpki: f64,
    /// Direction-MPKI estimate error, percent (0 when the full replay
    /// has no direction mispredictions).
    pub mpki_err_pct: f64,
}

zbp_support::impl_json_struct!(SimPointRow {
    trace,
    intervals,
    interval_len,
    clusters,
    replayed_instructions,
    total_instructions,
    weighted_cpi,
    full_cpi,
    cpi_err_pct,
    weighted_dir_mpki,
    full_dir_mpki,
    mpki_err_pct,
});

impl SimPointRow {
    /// Fraction of the trace replayed through the full model.
    pub fn replayed_fraction(&self) -> f64 {
        self.replayed_instructions as f64 / self.total_instructions.max(1) as f64
    }
}

/// Slices a compact trace into BBV intervals and clusters them into a
/// replay plan. Interval boundaries land on run boundaries (the same
/// coordinates a [`ReplayPlan::Windows`] replay transitions on), so
/// the plan's windows line up with what the replay will measure.
pub fn plan(compact: &CompactTrace, spec: &SimPointSpec) -> SimPointPlan {
    let dims = spec.dims.max(1) as usize;
    let mut bbvs: Vec<Vec<f64>> = Vec::new();
    let mut spans: Vec<(u64, u64)> = Vec::new();
    let mut cur = vec![0.0f64; dims];
    let mut cur_start = 0u64;
    let mut cur_len = 0u64;
    let mut done = 0u64;

    let mut cursor = compact.segments();
    while let Some(run) = cursor.next_run() {
        let end = compact.run_end(&run);
        let point = cursor.finish_run(end);
        let retired = run.count + point.map_or(0, |i| u64::from(!i.wrong_path));
        let bucket =
            (zbp_support::hash::fnv1a_64(&run.start.raw().to_le_bytes()) % dims as u64) as usize;
        cur[bucket] += retired as f64;
        cur_len += retired;
        done += retired;
        if cur_len >= spec.interval.max(1) {
            bbvs.push(normalize(std::mem::replace(&mut cur, vec![0.0; dims])));
            spans.push((cur_start, cur_len));
            cur_start = done;
            cur_len = 0;
        }
    }
    if cur_len > 0 {
        bbvs.push(normalize(cur));
        spans.push((cur_start, cur_len));
    }

    let k = (spec.clusters.max(1) as usize).min(bbvs.len().max(1));
    let assignment = kmeans(&bbvs, k);
    let mut windows: Vec<(u64, u64)> = Vec::with_capacity(k);
    let mut weights: Vec<f64> = Vec::with_capacity(k);
    let n = bbvs.len().max(1) as f64;
    for c in 0..k {
        let members: Vec<usize> = (0..bbvs.len()).filter(|&i| assignment[i] == c).collect();
        if members.is_empty() {
            continue;
        }
        let centroid = centroid_of(&bbvs, &members, dims);
        let rep = *members
            .iter()
            .min_by(|&&a, &&b| {
                dist2(&bbvs[a], &centroid)
                    .partial_cmp(&dist2(&bbvs[b], &centroid))
                    .expect("finite distances")
                    .then(a.cmp(&b))
            })
            .expect("non-empty cluster");
        windows.push(spans[rep]);
        weights.push(members.len() as f64 / n);
    }
    // Windows must be sorted by start for the replay kernel; carry the
    // weights along.
    let mut order: Vec<usize> = (0..windows.len()).collect();
    order.sort_by_key(|&i| windows[i].0);
    SimPointPlan {
        windows: order.iter().map(|&i| windows[i]).collect(),
        weights: order.iter().map(|&i| weights[i]).collect(),
        intervals: bbvs.len(),
        total: done,
    }
}

fn normalize(mut v: Vec<f64>) -> Vec<f64> {
    let sum: f64 = v.iter().sum();
    if sum > 0.0 {
        for x in &mut v {
            *x /= sum;
        }
    }
    v
}

fn dist2(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

fn centroid_of(bbvs: &[Vec<f64>], members: &[usize], dims: usize) -> Vec<f64> {
    let mut c = vec![0.0; dims];
    for &m in members {
        for (ci, x) in c.iter_mut().zip(&bbvs[m]) {
            *ci += x;
        }
    }
    for ci in &mut c {
        *ci /= members.len() as f64;
    }
    c
}

/// Deterministic k-means over L1-normalized BBVs: fixed-seed k-means++
/// initialization, squared-euclidean assignment with ties to the lowest
/// cluster index, at most 50 Lloyd iterations. Returns the cluster
/// index per vector.
fn kmeans(bbvs: &[Vec<f64>], k: usize) -> Vec<usize> {
    let n = bbvs.len();
    if n == 0 {
        return Vec::new();
    }
    let dims = bbvs[0].len();
    let mut rng = SmallRng::seed_from_u64(0x51A9_EC12);
    // k-means++ seeding: first center uniformly, each next proportional
    // to squared distance from the nearest chosen center.
    let mut centers: Vec<Vec<f64>> = vec![bbvs[rng.random_range(0..n)].clone()];
    let mut d2: Vec<f64> = bbvs.iter().map(|v| dist2(v, &centers[0])).collect();
    while centers.len() < k {
        let total: f64 = d2.iter().sum();
        let next = if total > 0.0 {
            let mut target = frac(&mut rng) * total;
            let mut pick = n - 1;
            for (i, &d) in d2.iter().enumerate() {
                if target <= d {
                    pick = i;
                    break;
                }
                target -= d;
            }
            pick
        } else {
            // All points coincide with a center; any index works.
            rng.random_range(0..n)
        };
        centers.push(bbvs[next].clone());
        for (di, v) in d2.iter_mut().zip(bbvs) {
            *di = di.min(dist2(v, centers.last().expect("center just pushed")));
        }
    }

    let mut assignment = vec![0usize; n];
    for _ in 0..50 {
        let mut changed = false;
        for (i, v) in bbvs.iter().enumerate() {
            let best = (0..centers.len())
                .min_by(|&a, &b| {
                    dist2(v, &centers[a])
                        .partial_cmp(&dist2(v, &centers[b]))
                        .expect("finite distances")
                        .then(a.cmp(&b))
                })
                .expect("at least one center");
            if assignment[i] != best {
                assignment[i] = best;
                changed = true;
            }
        }
        if !changed {
            break;
        }
        for (c, center) in centers.iter_mut().enumerate() {
            let members: Vec<usize> = (0..n).filter(|&i| assignment[i] == c).collect();
            if !members.is_empty() {
                *center = centroid_of(bbvs, &members, dims);
            }
        }
    }
    assignment
}

/// A uniform f64 in [0, 1) from the top 53 bits of one RNG draw.
fn frac(rng: &mut SmallRng) -> f64 {
    (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
}

/// Replays a plan's windows and folds the measures into weighted
/// CPI / direction-MPKI estimates. Weights are matched to measures by
/// window start and renormalized over the windows that actually
/// measured (a window entirely swallowed by the trace end drops out).
pub fn weighted_estimate(
    config: &SimConfig,
    compact: &CompactTrace,
    plan: &SimPointPlan,
    warmup: u64,
) -> WeightedEstimate {
    let mut group = LaneGroup::new(vec![CoreModel::new(config.uarch, config.predictor.clone())]);
    group.replay(compact, ReplayPlan::Windows { windows: &plan.windows, warmup }, |_, _, _| {});
    let measures = group.measures(0).to_vec();
    let mut cpi = 0.0;
    let mut mpki = 0.0;
    let mut mass = 0.0;
    let mut replayed = 0u64;
    for m in &measures {
        let w = plan
            .windows
            .iter()
            .position(|&(start, _)| start == m.start)
            .map(|i| plan.weights[i])
            .unwrap_or(0.0);
        cpi += w * m.cpi();
        mpki += w * m.dir_mpki();
        mass += w;
        replayed += m.instructions;
    }
    if mass > 0.0 {
        cpi /= mass;
        mpki /= mass;
    }
    WeightedEstimate {
        cpi,
        dir_mpki: mpki,
        replayed_instructions: replayed + warmup.saturating_mul(measures.len() as u64),
        measures,
    }
}

/// Weighted replay outcome for one `(workload, config)` pair.
#[derive(Debug, Clone, PartialEq)]
pub struct WeightedEstimate {
    /// Weighted CPI estimate.
    pub cpi: f64,
    /// Weighted direction-MPKI estimate.
    pub dir_mpki: f64,
    /// Instructions replayed through the model (measure + warmup).
    pub replayed_instructions: u64,
    /// The raw per-window measures.
    pub measures: Vec<WindowMeasure>,
}

/// Runs the full SimPoint validation for one workload source: capture
/// (through the trace store when attached), plan, weighted replay, and
/// a full-replay baseline — the baseline is the grid's own cell for
/// this (workload, config), computed or served by the cell cache
/// through [`SimSession::run_cached`] like any grid's. The finished row
/// round-trips through [`CellKey::simpoint`] like every other cell.
/// Returns the row plus whether it was answered from the cache.
pub fn simpoint_row(
    source: &WorkloadSource,
    config: &SimConfig,
    spec: &SimPointSpec,
    opts: &ExperimentOptions,
    cache: &CellCache,
) -> (SimPointRow, bool) {
    let len = opts.len_for_source(source);
    let source_json = source.key_json();
    let pred_json = json::to_string(&config.predictor);
    let uarch_json = json::to_string(&config.uarch);
    let key = CellKey::simpoint(
        &source_json,
        opts.seed,
        len,
        &json::to_string(spec),
        &pred_json,
        &uarch_json,
    );
    if let Some(row) = cache.load(&key).and_then(|j| roundtrip_row(&j)) {
        return (row, true);
    }

    let session = SimSession::from_options(opts).workload(source.clone()).config(config.clone());
    let (grid, _) = session.run_cached(cache);
    let full = &grid.result(source.name(), &config.name).core;
    let compact = capture(source, opts, len);
    let p = plan(&compact, spec);
    let est = weighted_estimate(config, &compact, &p, spec.warmup);
    let full_cpi = full.cpi();
    let full_mpki =
        full.outcomes.mispredict_direction as f64 * 1000.0 / full.instructions.max(1) as f64;

    let row = SimPointRow {
        trace: source.name().to_string(),
        intervals: p.intervals as u64,
        interval_len: spec.interval,
        clusters: p.windows.len() as u64,
        replayed_instructions: est.replayed_instructions,
        total_instructions: full.instructions,
        weighted_cpi: est.cpi,
        full_cpi,
        cpi_err_pct: err_pct(est.cpi, full_cpi),
        weighted_dir_mpki: est.dir_mpki,
        full_dir_mpki: full_mpki,
        mpki_err_pct: err_pct(est.dir_mpki, full_mpki),
    };
    cache.store(&key, &row.to_json());
    (roundtrip_row(&row.to_json()).expect("SimPointRow JSON round-trips"), false)
}

/// Percent error of `estimate` against `truth` (0 when the truth is 0).
fn err_pct(estimate: f64, truth: f64) -> f64 {
    if truth == 0.0 {
        0.0
    } else {
        100.0 * (estimate - truth).abs() / truth
    }
}

/// Captures the source's compact form, consulting the trace store
/// first (and persisting a fresh capture) exactly like a session row.
fn capture(source: &WorkloadSource, opts: &ExperimentOptions, len: u64) -> CompactTrace {
    let store = &opts.trace_store;
    let key = store.is_enabled().then(|| source.store_key(opts.seed, len));
    if let Some(key) = &key {
        if let Ok(compact) = store.load(key, CompactParts::default()) {
            return compact;
        }
    }
    let gen = source.build_with_len(opts.seed, len);
    let compact = CompactTrace::capture(&gen)
        .unwrap_or_else(|_| panic!("workload {:?} must encode compactly", source.name()));
    if let Some(key) = &key {
        store.store(key, &compact);
    }
    compact
}

fn roundtrip_row(entry: &Json) -> Option<SimPointRow> {
    SimPointRow::from_json(&Json::parse(&entry.render()).ok()?).ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::Simulator;
    use zbp_trace::profile::WorkloadProfile;

    /// The exact replay of the whole capture.
    fn full_replay(config: &SimConfig, compact: &CompactTrace) -> zbp_uarch::CoreResult {
        Simulator::run_configs_compact_lanes(&[config], compact).remove(0).core
    }

    fn compact_of(p: &WorkloadProfile, seed: u64, len: u64) -> CompactTrace {
        CompactTrace::capture(&p.build_with_len(seed, len)).unwrap()
    }

    #[test]
    fn plan_is_deterministic_and_covers_the_trace() {
        let compact = compact_of(&WorkloadProfile::tpf_airline(), 7, 120_000);
        let spec = SimPointSpec { interval: 10_000, clusters: 5, warmup: 2_000, dims: 32 };
        let a = plan(&compact, &spec);
        let b = plan(&compact, &spec);
        assert_eq!(a, b, "planning must be deterministic");
        assert!(a.intervals >= 12, "120k instructions / 10k intervals, got {}", a.intervals);
        assert!(a.windows.len() <= 5);
        assert!(!a.windows.is_empty());
        let total: f64 = a.weights.iter().sum();
        assert!((total - 1.0).abs() < 1e-9, "weights must sum to 1, got {total}");
        let mut prev_end = 0;
        for &(start, len) in &a.windows {
            assert!(start >= prev_end, "windows must be sorted and disjoint");
            assert!(len > 0);
            prev_end = start + len;
        }
        assert!(prev_end <= a.total, "windows stay within the trace");
    }

    #[test]
    fn single_cluster_single_interval_estimate_is_exact() {
        // One interval spanning the whole trace → the representative IS
        // the trace, and the weighted estimate equals full replay.
        let p = WorkloadProfile::tpf_airline();
        let compact = compact_of(&p, 3, 30_000);
        let spec = SimPointSpec { interval: u64::MAX, clusters: 1, warmup: 0, dims: 16 };
        let pl = plan(&compact, &spec);
        assert_eq!(pl.intervals, 1);
        assert_eq!(pl.windows.len(), 1);
        let config = SimConfig::btb2_enabled();
        let est = weighted_estimate(&config, &compact, &pl, 0);
        let full = full_replay(&config, &compact);
        assert!((est.cpi - full.cpi()).abs() < 1e-12, "{} vs {}", est.cpi, full.cpi());
    }

    #[test]
    fn weighted_estimate_tracks_full_replay() {
        // The acceptance-bound smoke: on a real synthetic workload the
        // default-shaped spec (scaled down) stays within a few percent.
        let p = WorkloadProfile::zlinux_informix();
        let compact = compact_of(&p, 0xEC12, 400_000);
        let spec = SimPointSpec { interval: 20_000, clusters: 6, warmup: 5_000, dims: 64 };
        let pl = plan(&compact, &spec);
        let config = SimConfig::btb2_enabled();
        let est = weighted_estimate(&config, &compact, &pl, spec.warmup);
        let full = full_replay(&config, &compact);
        let err = err_pct(est.cpi, full.cpi());
        assert!(err < 10.0, "weighted CPI err {err:.2}% (est {} vs {})", est.cpi, full.cpi());
        assert!(
            est.replayed_instructions < pl.total,
            "sampling must replay less than the full trace"
        );
    }

    #[test]
    fn simpoint_row_caches_and_roundtrips() {
        let dir = std::env::temp_dir().join(format!("zbp-simpoint-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = CellCache::at(&dir);
        let source = WorkloadSource::from(WorkloadProfile::tpf_airline());
        let config = SimConfig::btb2_enabled();
        let spec = SimPointSpec { interval: 10_000, clusters: 4, warmup: 2_000, dims: 32 };
        let opts = ExperimentOptions::quick(80_000, 9);
        let (cold, was_cached) = simpoint_row(&source, &config, &spec, &opts, &cache);
        assert!(!was_cached);
        let (warm, hit) = simpoint_row(&source, &config, &spec, &opts, &cache);
        assert!(hit, "second run must hit the simpoint cell");
        assert_eq!(cold, warm, "cached row must be bit-identical");
        assert!(cold.full_cpi > 0.0 && cold.weighted_cpi > 0.0);
        assert!(cold.replayed_fraction() < 1.0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn kmeans_is_deterministic_and_total() {
        let bbvs: Vec<Vec<f64>> = (0..20)
            .map(|i| normalize(vec![(i % 3) as f64 + 1.0, (i % 5) as f64, 1.0, 0.5]))
            .collect();
        let a = kmeans(&bbvs, 3);
        let b = kmeans(&bbvs, 3);
        assert_eq!(a, b);
        assert_eq!(a.len(), 20);
        assert!(a.iter().all(|&c| c < 3));
        // Identical points all land in one cluster.
        let same: Vec<Vec<f64>> = vec![normalize(vec![1.0, 2.0]); 6];
        let s = kmeans(&same, 2);
        assert!(s.windows(2).all(|w| w[0] == w[1]));
    }
}
