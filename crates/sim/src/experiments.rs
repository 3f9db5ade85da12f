//! Typed experiment results and the post-processing that computes them.
//!
//! Each paper table/figure is *declared* in [`crate::registry`] as an
//! [`crate::registry::ExperimentSpec`] (workloads × configurations ×
//! post-processing); this module owns the typed row structures those
//! experiments produce and the grid→rows post-processing functions the
//! registry applies. The classic one-call-per-figure functions
//! ([`figure2`], [`table4`], …) remain as thin typed wrappers — they
//! build the same grid through [`SimSession`] and apply the same
//! post-processing, so tests and library users keep a direct API while
//! the CLI and bench targets go through the registry (which adds cell
//! caching, manifests and artifact output on top).

use crate::config::SimConfig;
use crate::parallel::par_map;
use crate::report::ImprovementRow;
use crate::session::{SessionGrid, SimSession};
use crate::sweep::{sweep, SweepPoint};
use std::path::PathBuf;
use std::sync::Arc;
use zbp_predictor::exclusive::ExclusivityPolicy;
use zbp_predictor::tracker::FilterMode;
use zbp_predictor::PredictorConfig;
use zbp_trace::profile::WorkloadProfile;
use zbp_trace::source::WorkloadSource;
use zbp_trace::{TraceStats, TraceStore};
use zbp_uarch::classify::OutcomeCounts;

/// Global experiment options.
#[derive(Debug, Clone)]
pub struct ExperimentOptions {
    /// Cap on dynamic instructions per workload (`None` = profile
    /// default).
    pub len: Option<u64>,
    /// Workload synthesis seed.
    pub seed: u64,
    /// Cap on worker threads for the parallel grid fan-out (`None` =
    /// machine parallelism).
    pub workers: Option<usize>,
    /// Cell-cache directory override (`None` = the front end's default,
    /// `results/cache/` for the CLI and bench targets).
    pub cache_dir: Option<PathBuf>,
    /// Cap on configuration columns per decode-once lane group (`None`
    /// = every column of a grid row replays in one group; `1` =
    /// sequential per-column replay). Any width is bit-identical; this
    /// is purely a batching knob.
    pub lanes: Option<usize>,
    /// Persistent compact-trace store. Disabled by default; the CLI
    /// roots it at `results/traces/`. Shared via `Arc` so every session
    /// an experiment builds accumulates hit/miss counters on the same
    /// store, which the registry stamps into the manifest.
    pub trace_store: Arc<TraceStore>,
    /// Workload-source override: when non-empty, experiments run over
    /// these sources (typically ingested external traces) instead of
    /// the spec's built-in synthetic workloads. Filled by the CLI's
    /// repeatable `--trace FILE` flag or `ZBP_TRACES`.
    pub sources: Vec<WorkloadSource>,
}

impl Default for ExperimentOptions {
    fn default() -> Self {
        Self {
            len: None,
            seed: 0xEC12,
            workers: None,
            cache_dir: None,
            lanes: None,
            trace_store: Arc::new(TraceStore::disabled()),
            sources: Vec::new(),
        }
    }
}

// The trace store carries live counters; options equality is about the
// *configuration*, so stores compare by directory and mode.
impl PartialEq for ExperimentOptions {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len
            && self.seed == other.seed
            && self.workers == other.workers
            && self.cache_dir == other.cache_dir
            && self.lanes == other.lanes
            && self.trace_store.dir() == other.trace_store.dir()
            && self.trace_store.reads() == other.trace_store.reads()
            && self.sources.len() == other.sources.len()
            && self.sources.iter().zip(&other.sources).all(|(a, b)| a == b)
    }
}

impl Eq for ExperimentOptions {}

impl ExperimentOptions {
    /// Convenience constructor for tests and examples: a capped, seeded
    /// run with default workers and no cache override.
    pub fn quick(len: u64, seed: u64) -> Self {
        Self { len: Some(len), seed, ..Self::default() }
    }

    /// Reads `ZBP_TRACE_LEN`, `ZBP_SEED`, `ZBP_WORKERS`,
    /// `ZBP_CACHE_DIR`, `ZBP_LANES`, `ZBP_TRACE_STORE`,
    /// `ZBP_FRESH_TRACES` and `ZBP_TRACES` (a comma-separated list of
    /// external trace files to ingest as the workload set) from the
    /// environment.
    ///
    /// # Errors
    ///
    /// Unparsable values are an error, not a silent fallback — a typo'd
    /// `ZBP_TRACE_LEN=50k` must not quietly run the full-length
    /// experiment. Seeds accept decimal or `0x`-prefixed hex.
    pub fn from_env() -> Result<Self, String> {
        let mut o = Self::default();
        if let Some(v) = env_nonempty("ZBP_TRACE_LEN") {
            o.len = Some(
                v.parse::<u64>()
                    .map_err(|e| format!("ZBP_TRACE_LEN={v:?} is not a valid length: {e}"))?,
            );
        }
        if let Some(v) = env_nonempty("ZBP_SEED") {
            o.seed = parse_seed(&v).map_err(|e| format!("ZBP_SEED={v:?}: {e}"))?;
        }
        if let Some(v) = env_nonempty("ZBP_WORKERS") {
            let n = v
                .parse::<usize>()
                .map_err(|e| format!("ZBP_WORKERS={v:?} is not a worker count: {e}"))?;
            if n == 0 {
                return Err(format!("ZBP_WORKERS={v:?}: must be at least 1"));
            }
            o.workers = Some(n);
        }
        if let Some(v) = env_nonempty("ZBP_CACHE_DIR") {
            o.cache_dir = Some(PathBuf::from(v));
        }
        if let Some(v) = env_nonempty("ZBP_LANES") {
            let n = v
                .parse::<usize>()
                .map_err(|e| format!("ZBP_LANES={v:?} is not a lane count: {e}"))?;
            if n == 0 {
                return Err(format!("ZBP_LANES={v:?}: must be at least 1"));
            }
            o.lanes = Some(n);
        }
        let fresh = match env_nonempty("ZBP_FRESH_TRACES").as_deref() {
            None | Some("0") | Some("false") => false,
            Some("1") | Some("true") => true,
            Some(v) => return Err(format!("ZBP_FRESH_TRACES={v:?}: expected 0/1/true/false")),
        };
        if let Some(v) = env_nonempty("ZBP_TRACE_STORE") {
            o.trace_store =
                Arc::new(if fresh { TraceStore::write_only(&v) } else { TraceStore::at(&v) });
        } else if fresh {
            return Err("ZBP_FRESH_TRACES=1 requires ZBP_TRACE_STORE to be set".into());
        }
        if let Some(v) = env_nonempty("ZBP_TRACES") {
            for path in v.split(',').map(str::trim).filter(|p| !p.is_empty()) {
                o.sources
                    .push(WorkloadSource::ingest(path).map_err(|e| format!("ZBP_TRACES: {e}"))?);
            }
        }
        Ok(o)
    }

    /// [`Self::from_env`] for contexts without error plumbing (bench
    /// targets, tests): panics with the parse error instead of running
    /// the wrong experiment.
    pub fn from_env_or_panic() -> Self {
        Self::from_env().unwrap_or_else(|e| panic!("invalid experiment environment: {e}"))
    }

    /// Effective length for a profile.
    pub fn len_for(&self, p: &WorkloadProfile) -> u64 {
        self.len.map_or(p.default_len, |l| l.min(p.default_len))
    }

    /// Effective length for any workload source.
    pub fn len_for_source(&self, s: &WorkloadSource) -> u64 {
        let d = s.default_len();
        self.len.map_or(d, |l| l.min(d))
    }
}

fn env_nonempty(name: &str) -> Option<String> {
    std::env::var(name).ok().map(|v| v.trim().to_string()).filter(|v| !v.is_empty())
}

/// Parses a seed as decimal or `0x`-prefixed hex.
pub fn parse_seed(text: &str) -> Result<u64, String> {
    let parsed = match text.strip_prefix("0x").or_else(|| text.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => text.parse::<u64>(),
    };
    parsed.map_err(|e| format!("not a valid seed: {e}"))
}

// ---------------------------------------------------------------------------
// Figure 2
// ---------------------------------------------------------------------------

/// Figure-2 post-processing: per-trace CPI rows out of a Table-3 grid
/// (configurations in Table-3 order: baseline, BTB2, large BTB1).
pub fn fig2_rows(grid: &SessionGrid) -> Vec<ImprovementRow> {
    let [base, btb2, large] = [&grid.configs()[0], &grid.configs()[1], &grid.configs()[2]];
    grid.workloads()
        .iter()
        .map(|w| ImprovementRow {
            trace: w.clone(),
            baseline_cpi: grid.cpi(w, base),
            btb2_cpi: grid.cpi(w, btb2),
            large_btb1_cpi: grid.cpi(w, large),
        })
        .collect()
}

/// Figure 2: per-trace CPI improvement of configurations 2 and 3 over
/// configuration 1, plus BTB2 effectiveness.
pub fn figure2(opts: &ExperimentOptions) -> Vec<ImprovementRow> {
    let grid = SimSession::from_options(opts)
        .workloads(WorkloadProfile::all_table4())
        .configs(SimConfig::table3())
        .run();
    fig2_rows(&grid)
}

// ---------------------------------------------------------------------------
// Figure 3
// ---------------------------------------------------------------------------

/// One hardware-workload measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Figure3Row {
    /// Workload name.
    pub workload: String,
    /// CPI improvement (%) from enabling the BTB2.
    pub improvement: f64,
}

/// Figure-3 post-processing: per-workload improvement of configuration
/// 2 over configuration 1 (grid configurations: baseline then BTB2).
pub fn fig3_rows(grid: &SessionGrid) -> Vec<Figure3Row> {
    let (base, btb2) = (&grid.configs()[0], &grid.configs()[1]);
    grid.workloads()
        .iter()
        .map(|w| Figure3Row { workload: w.clone(), improvement: grid.improvement(w, btb2, base) })
        .collect()
}

/// Figure 3: system-level benefit of the BTB2 on the two workloads
/// measured on zEC12 hardware, approximated in simulation (the 4-core
/// Web CICS/DB2 run becomes a 4-context time-sliced simulation).
pub fn figure3(opts: &ExperimentOptions) -> Vec<Figure3Row> {
    let grid = SimSession::from_options(opts)
        .workloads(WorkloadProfile::hardware_pair())
        .configs([SimConfig::no_btb2(), SimConfig::btb2_enabled()])
        .run();
    fig3_rows(&grid)
}

// ---------------------------------------------------------------------------
// Figure 4
// ---------------------------------------------------------------------------

/// Bad-branch-outcome percentages for one configuration (Figure 4 bars).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OutcomePercents {
    /// Dynamic mispredictions (direction + target), % of all outcomes.
    pub mispredicted: f64,
    /// Compulsory bad surprises, %.
    pub compulsory: f64,
    /// Latency bad surprises, %.
    pub latency: f64,
    /// Capacity bad surprises, %.
    pub capacity: f64,
}

impl OutcomePercents {
    /// Computes percentages from raw counts.
    pub fn from_counts(o: &OutcomeCounts) -> Self {
        let b = o.branches.max(1) as f64;
        Self {
            mispredicted: 100.0 * (o.mispredict_direction + o.mispredict_target) as f64 / b,
            compulsory: 100.0 * o.surprise_compulsory as f64 / b,
            latency: 100.0 * o.surprise_latency as f64 / b,
            capacity: 100.0 * o.surprise_capacity as f64 / b,
        }
    }

    /// Total bad-outcome percentage.
    pub fn total(&self) -> f64 {
        self.mispredicted + self.compulsory + self.latency + self.capacity
    }
}

/// Figure 4 result: breakdowns with and without the BTB2.
#[derive(Debug, Clone, PartialEq)]
pub struct Figure4Result {
    /// Workload used (the paper uses z/OS DayTrader DBServ).
    pub workload: String,
    /// Configuration 1 (no BTB2) breakdown.
    pub without_btb2: OutcomePercents,
    /// Configuration 2 (BTB2 enabled) breakdown.
    pub with_btb2: OutcomePercents,
    /// CPI improvement (%) between the two runs.
    pub improvement: f64,
}

/// Figure-4 post-processing over a 1-workload × (baseline, BTB2) grid.
pub fn fig4_result(grid: &SessionGrid) -> Figure4Result {
    let workload = grid.workloads()[0].clone();
    let (base, btb2) = (&grid.configs()[0], &grid.configs()[1]);
    let (without, with) = (grid.result(&workload, base), grid.result(&workload, btb2));
    Figure4Result {
        without_btb2: OutcomePercents::from_counts(&without.core.outcomes),
        with_btb2: OutcomePercents::from_counts(&with.core.outcomes),
        improvement: with.improvement_over(without),
        workload,
    }
}

/// Figure 4: effect of the BTB2 on bad branch outcomes for the z/OS
/// DayTrader DBServ workload.
pub fn figure4(opts: &ExperimentOptions) -> Figure4Result {
    let grid = SimSession::from_options(opts)
        .workload(WorkloadProfile::daytrader_dbserv())
        .configs([SimConfig::no_btb2(), SimConfig::btb2_enabled()])
        .run();
    fig4_result(&grid)
}

// ---------------------------------------------------------------------------
// Figures 5, 6, 7 (sweeps)
// ---------------------------------------------------------------------------

/// Figure-5 sweep variants: BTB2 capacities (`0` = disabled baseline).
pub fn fig5_variants(sizes: &[u32]) -> Vec<(String, PredictorConfig)> {
    sizes
        .iter()
        .map(|&s| {
            let label = if s == 0 { "disabled".to_string() } else { format!("{}k", s / 1024) };
            (label, PredictorConfig::zec12().with_btb2_entries(s))
        })
        .collect()
}

/// Figure 5: average benefit of the BTB2 at various capacities.
/// `entries == 0` is the disabled baseline (0 % by construction).
pub fn figure5(opts: &ExperimentOptions, sizes: &[u32]) -> Vec<SweepPoint> {
    sweep(&fig5_variants(sizes), opts.len.unwrap_or(u64::MAX), opts.seed)
}

/// Default Figure 5 sizes: 6 k – 96 k entries.
pub const FIGURE5_SIZES: [u32; 5] = [6 * 1024, 12 * 1024, 24 * 1024, 48 * 1024, 96 * 1024];

/// Figure-6 sweep variants: perceived-miss search limits.
pub fn fig6_variants(limits: &[u32]) -> Vec<(String, PredictorConfig)> {
    limits
        .iter()
        .map(|&l| {
            let mut cfg = PredictorConfig::zec12();
            cfg.miss_search_limit = l;
            (format!("{l} searches"), cfg)
        })
        .collect()
}

/// Figure 6: average benefit under various BTB1-miss definitions
/// (searches without a prediction before a miss is perceived).
pub fn figure6(opts: &ExperimentOptions, limits: &[u32]) -> Vec<SweepPoint> {
    sweep(&fig6_variants(limits), opts.len.unwrap_or(u64::MAX), opts.seed)
}

/// Default Figure 6 miss-definition sweep.
pub const FIGURE6_LIMITS: [u32; 6] = [1, 2, 3, 4, 6, 8];

/// Figure-7 sweep variants: BTB2 search tracker counts.
pub fn fig7_variants(counts: &[usize]) -> Vec<(String, PredictorConfig)> {
    counts
        .iter()
        .map(|&n| {
            let mut cfg = PredictorConfig::zec12();
            cfg.trackers = n;
            (format!("{n} trackers"), cfg)
        })
        .collect()
}

/// Figure 7: average benefit with various BTB2 search tracker counts.
pub fn figure7(opts: &ExperimentOptions, counts: &[usize]) -> Vec<SweepPoint> {
    sweep(&fig7_variants(counts), opts.len.unwrap_or(u64::MAX), opts.seed)
}

/// Default Figure 7 tracker sweep.
pub const FIGURE7_TRACKERS: [usize; 6] = [1, 2, 3, 4, 6, 8];

// ---------------------------------------------------------------------------
// Table 4
// ---------------------------------------------------------------------------

/// One row of the Table-4 reproduction: target vs measured footprint.
#[derive(Debug, Clone, PartialEq)]
pub struct Table4Row {
    /// Trace name.
    pub trace: String,
    /// Paper's unique branch addresses.
    pub target_branches: u32,
    /// Measured unique branch addresses in the synthesized trace.
    pub measured_branches: u64,
    /// Paper's unique taken branch addresses.
    pub target_taken: u32,
    /// Measured unique taken addresses.
    pub measured_taken: u64,
    /// Dynamic instructions measured.
    pub instructions: u64,
}

/// Table-4 post-processing: pairs each source's published footprint
/// targets with the measured statistics of its trace. External sources
/// carry no published targets (they report 0).
pub fn table4_rows(sources: &[WorkloadSource], stats: &[TraceStats]) -> Vec<Table4Row> {
    sources
        .iter()
        .zip(stats)
        .map(|(src, s)| Table4Row {
            trace: src.name().to_string(),
            target_branches: src.unique_branches(),
            measured_branches: s.unique_branches,
            target_taken: src.unique_taken(),
            measured_taken: s.unique_taken,
            instructions: s.instructions,
        })
        .collect()
}

/// Table 4: validates the synthesized workloads' branch footprints
/// against the published counts.
pub fn table4(opts: &ExperimentOptions) -> Vec<Table4Row> {
    let sources: Vec<WorkloadSource> = if opts.sources.is_empty() {
        WorkloadProfile::all_table4().into_iter().map(Into::into).collect()
    } else {
        opts.sources.clone()
    };
    let stats = par_map(&sources, |s| {
        TraceStats::collect(&s.build_with_len(opts.seed, opts.len_for_source(s)))
    });
    table4_rows(&sources, &stats)
}

// ---------------------------------------------------------------------------
// Ablations (§3.3, §3.5, §3.7 design choices)
// ---------------------------------------------------------------------------

/// Ablation-A sweep variants: exclusivity policies of §3.3.
pub fn exclusivity_variants() -> Vec<(String, PredictorConfig)> {
    [
        ("semi-exclusive", ExclusivityPolicy::SemiExclusive),
        ("true-exclusive", ExclusivityPolicy::TrueExclusive),
        ("inclusive", ExclusivityPolicy::Inclusive),
    ]
    .into_iter()
    .map(|(name, policy)| {
        let mut cfg = PredictorConfig::zec12();
        cfg.exclusivity = policy;
        (name.to_string(), cfg)
    })
    .collect()
}

/// Ablation A: exclusivity policies of §3.3.
pub fn ablation_exclusivity(opts: &ExperimentOptions) -> Vec<SweepPoint> {
    sweep(&exclusivity_variants(), opts.len.unwrap_or(u64::MAX), opts.seed)
}

/// Ablation-B sweep variants: §3.7 transfer steering on vs off.
pub fn steering_variants() -> Vec<(String, PredictorConfig)> {
    [true, false]
        .into_iter()
        .map(|on| {
            let mut cfg = PredictorConfig::zec12();
            cfg.steering = on;
            (if on { "steered" } else { "sequential" }.to_string(), cfg)
        })
        .collect()
}

/// Ablation B: §3.7 transfer steering on vs off.
pub fn ablation_steering(opts: &ExperimentOptions) -> Vec<SweepPoint> {
    sweep(&steering_variants(), opts.len.unwrap_or(u64::MAX), opts.seed)
}

/// Ablation-C sweep variants: §3.5 I-cache-miss filter modes.
pub fn filter_variants() -> Vec<(String, PredictorConfig)> {
    [
        ("partial (shipped)", FilterMode::Partial),
        ("no filter (all full)", FilterMode::Off),
        ("hard filter (drop)", FilterMode::Drop),
    ]
    .into_iter()
    .map(|(name, mode)| {
        let mut cfg = PredictorConfig::zec12();
        cfg.filter_mode = mode;
        (name.to_string(), cfg)
    })
    .collect()
}

/// Ablation C: §3.5 I-cache-miss filter modes.
pub fn ablation_filter(opts: &ExperimentOptions) -> Vec<SweepPoint> {
    sweep(&filter_variants(), opts.len.unwrap_or(u64::MAX), opts.seed)
}

// ---------------------------------------------------------------------------
// Future work (§6): BTB2 congruence-class span
// ---------------------------------------------------------------------------

/// §6 sweep variants: BTB2 congruence-class spans.
pub fn congruence_variants(spans: &[u32]) -> Vec<(String, PredictorConfig)> {
    spans
        .iter()
        .map(|&span| {
            let mut cfg = PredictorConfig::zec12();
            let mut geom = cfg.btb2.expect("zec12 has a BTB2");
            geom.line_bytes = span;
            cfg.btb2 = Some(geom);
            (format!("{span} B rows"), cfg)
        })
        .collect()
}

/// §6 future-work study: widen the BTB2 congruence class from 32 B to
/// 64 B / 128 B of instruction space. Wider rows transfer a 4 KB block in
/// fewer reads (higher bus efficiency) but can overflow when a sequential
/// code stream holds more branches than one row's associativity.
pub fn future_congruence(opts: &ExperimentOptions, spans: &[u32]) -> Vec<SweepPoint> {
    sweep(&congruence_variants(spans), opts.len.unwrap_or(u64::MAX), opts.seed)
}

/// Default §6 congruence spans.
pub const CONGRUENCE_SPANS: [u32; 3] = [32, 64, 128];

// ---------------------------------------------------------------------------
// Future work (§6): miss definition events and multi-block transfers
// ---------------------------------------------------------------------------

/// §6 sweep variants: perceived-miss detection events.
pub fn miss_detection_variants() -> Vec<(String, PredictorConfig)> {
    use zbp_predictor::miss::MissDetection;
    [
        ("search limit (shipped)", MissDetection::SearchLimit),
        ("decode surprise", MissDetection::DecodeSurprise),
        ("both", MissDetection::Both),
    ]
    .into_iter()
    .map(|(name, detection)| {
        let mut cfg = PredictorConfig::zec12();
        cfg.miss_detection = detection;
        (name.to_string(), cfg)
    })
    .collect()
}

/// §6 future-work study: the shipped early/speculative perceived-miss
/// definition versus the later, less speculative decode-stage definition
/// (and both combined).
pub fn future_miss_detection(opts: &ExperimentOptions) -> Vec<SweepPoint> {
    sweep(&miss_detection_variants(), opts.len.unwrap_or(u64::MAX), opts.seed)
}

/// §6 sweep variants: single vs chained multi-block transfers.
pub fn multiblock_variants() -> Vec<(String, PredictorConfig)> {
    [false, true]
        .into_iter()
        .map(|on| {
            let mut cfg = PredictorConfig::zec12();
            cfg.multi_block_transfer = on;
            (if on { "single + chained block" } else { "single block (shipped)" }.to_string(), cfg)
        })
        .collect()
}

/// §6 future-work study: chasing one taken-branch target per bulk
/// transfer into a chained transfer of the target block.
pub fn future_multiblock(opts: &ExperimentOptions) -> Vec<SweepPoint> {
    sweep(&multiblock_variants(), opts.len.unwrap_or(u64::MAX), opts.seed)
}

/// §6 sweep variants: SRAM vs eDRAM second-level trade-offs.
pub fn edram_variants() -> Vec<(String, PredictorConfig)> {
    [
        ("SRAM 24k @ 8 cycles (shipped)", 24u32 * 1024, 8u64),
        ("eDRAM 48k @ 16 cycles", 48 * 1024, 16),
        ("eDRAM 96k @ 20 cycles", 96 * 1024, 20),
    ]
    .into_iter()
    .map(|(name, entries, latency)| {
        let mut cfg = PredictorConfig::zec12().with_btb2_entries(entries);
        cfg.timing.btb2_latency = latency;
        (name.to_string(), cfg)
    })
    .collect()
}

/// §6 future-work study: SRAM vs eDRAM second level — same silicon area
/// buys a denser but slower BTB2. Latency figures are illustrative
/// (eDRAM ~2-3x the SRAM array latency at ~2-4x the density).
pub fn future_edram(opts: &ExperimentOptions) -> Vec<SweepPoint> {
    sweep(&edram_variants(), opts.len.unwrap_or(u64::MAX), opts.seed)
}

// ---------------------------------------------------------------------------
// Ablation D: wrong-path fetch modeling (§4 methodology)
// ---------------------------------------------------------------------------

/// One wrong-path-modeling measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct WrongPathRow {
    /// Whether wrong-path fetch was modelled.
    pub wrong_path: bool,
    /// Average BTB2 CPI improvement over the no-BTB2 baseline (%).
    pub avg_improvement: f64,
    /// Average wrong-path lines fetched per 1k instructions (BTB2 run).
    pub wrong_path_lines_per_kilo_instr: f64,
}

/// The 2 × 2 wrong-path configuration matrix, in grid column order:
/// (baseline, BTB2) without wrong-path fetch, then the same pair with it.
pub fn wrongpath_configs() -> Vec<SimConfig> {
    [false, true]
        .into_iter()
        .flat_map(|wp| {
            [SimConfig::no_btb2(), SimConfig::btb2_enabled()].map(|mut cfg| {
                cfg.uarch.wrong_path_fetch = wp;
                if wp {
                    cfg.name = format!("{} + wrong path", cfg.name);
                }
                cfg
            })
        })
        .collect()
}

/// Wrong-path post-processing over the [`wrongpath_configs`] grid: one
/// row per modelling mode, averaging the BTB2's benefit and the
/// wrong-path fetch traffic across all workloads.
pub fn wrongpath_rows(grid: &SessionGrid) -> Vec<WrongPathRow> {
    let configs = grid.configs();
    [false, true]
        .into_iter()
        .zip([(0usize, 1usize), (2, 3)])
        .map(|(wp, (base_col, btb2_col))| {
            let (base, btb2) = (&configs[base_col], &configs[btb2_col]);
            let (mut improvements, mut lines) = (Vec::new(), Vec::new());
            for w in grid.workloads() {
                let b = grid.result(w, btb2);
                improvements.push(b.improvement_over(grid.result(w, base)));
                lines.push(
                    1000.0 * b.core.icache.wrong_path_fetches as f64
                        / b.core.instructions.max(1) as f64,
                );
            }
            WrongPathRow {
                wrong_path: wp,
                avg_improvement: crate::report::mean(&improvements),
                wrong_path_lines_per_kilo_instr: crate::report::mean(&lines),
            }
        })
        .collect()
}

/// Ablation D: the paper's model simulates wrong-path execution; this
/// model approximates its I-cache side (wrong-path lines pollute — and
/// occasionally accidentally prefetch — the L1I). Measures how much the
/// BTB2's benefit shifts when wrong-path fetch is modelled.
pub fn ablation_wrongpath(opts: &ExperimentOptions) -> Vec<WrongPathRow> {
    let grid = SimSession::from_options(opts)
        .workloads(WorkloadProfile::all_table4())
        .configs(wrongpath_configs())
        .run();
    wrongpath_rows(&grid)
}

// ---------------------------------------------------------------------------
// Comparison baseline: Phantom-BTB (§2 related work)
// ---------------------------------------------------------------------------

/// §2 comparison variants: dedicated BTB2 vs virtualized Phantom-BTB.
pub fn phantom_variants() -> Vec<(String, PredictorConfig)> {
    vec![
        ("bulk preload BTB2 (zEC12)".to_string(), PredictorConfig::zec12()),
        ("phantom BTB (virtualized)".to_string(), PredictorConfig::phantom_btb()),
    ]
}

/// Comparison against the §2 related work: a Phantom-BTB-style
/// virtualized second level (temporal-group prefetching out of the L2)
/// versus the paper's dedicated bulk-preload BTB2, at matched metadata
/// capacity (24 k entries).
pub fn comparison_phantom(opts: &ExperimentOptions) -> Vec<SweepPoint> {
    sweep(&phantom_variants(), opts.len.unwrap_or(u64::MAX), opts.seed)
}

// ---------------------------------------------------------------------------
// Direction-predictor tournament
// ---------------------------------------------------------------------------

/// One workload × backend cell of the direction-predictor tournament.
#[derive(Debug, Clone, PartialEq)]
pub struct TournamentCell {
    /// Workload name.
    pub trace: String,
    /// Direction-backend label (the configuration column name).
    pub backend: String,
    /// Direction mispredictions per 1 000 instructions.
    pub dir_mpki: f64,
    /// Cycles per instruction of the cell.
    pub cpi: f64,
}

/// One hard-to-predict branch site: per-backend direction-misprediction
/// counts on the tournament's worst workload for the paper backend.
#[derive(Debug, Clone, PartialEq)]
pub struct H2pRow {
    /// Branch instruction address.
    pub addr: u64,
    /// `(backend, direction mispredictions)` in column order.
    pub counts: Vec<(String, u64)>,
}

/// The full who-wins-where tournament result.
#[derive(Debug, Clone, PartialEq)]
pub struct TournamentReport {
    /// Every workload × backend measurement, workload-major.
    pub cells: Vec<TournamentCell>,
    /// `(workload, backend with the lowest dir-MPKI)` per workload
    /// (ties break toward the earlier configuration column).
    pub winners: Vec<(String, String)>,
    /// `(backend, workloads won)` in configuration-column order.
    pub wins: Vec<(String, u64)>,
    /// Workload with the paper backend's worst dir-MPKI (the H2P probe).
    pub h2p_workload: String,
    /// Top hard-to-predict branch sites of [`Self::h2p_workload`],
    /// ranked by the paper backend's misprediction count.
    pub h2p: Vec<H2pRow>,
}

/// Direction mispredictions per kilo-instruction of one grid cell.
fn dir_mpki(grid: &SessionGrid, workload: &str, config: &str) -> f64 {
    let r = grid.result(workload, config);
    1000.0 * r.core.outcomes.mispredict_direction as f64 / r.core.instructions.max(1) as f64
}

/// Tournament post-processing: per-cell MPKI/CPI rows plus the
/// who-wins-where summary out of a workloads × backends grid.
pub fn tournament_cells(grid: &SessionGrid) -> Vec<TournamentCell> {
    let mut cells = Vec::new();
    for w in grid.workloads() {
        for c in grid.configs() {
            cells.push(TournamentCell {
                trace: w.clone(),
                backend: c.clone(),
                dir_mpki: dir_mpki(grid, w, c),
                cpi: grid.cpi(w, c),
            });
        }
    }
    cells
}

/// The backend with the lowest dir-MPKI per workload (ties break toward
/// the earlier configuration column, so the result is deterministic).
pub fn tournament_winners(grid: &SessionGrid) -> Vec<(String, String)> {
    grid.workloads()
        .iter()
        .map(|w| {
            let best = grid
                .configs()
                .iter()
                .min_by(|a, b| {
                    dir_mpki(grid, w, a).partial_cmp(&dir_mpki(grid, w, b)).expect("finite MPKI")
                })
                .expect("tournament has backends");
            (w.clone(), best.clone())
        })
        .collect()
}

/// Counts workloads won per backend, in configuration-column order.
pub fn tournament_wins(grid: &SessionGrid, winners: &[(String, String)]) -> Vec<(String, u64)> {
    grid.configs()
        .iter()
        .map(|c| (c.clone(), winners.iter().filter(|(_, win)| win == c).count() as u64))
        .collect()
}

/// Replays one workload under every backend, attributing each direction
/// misprediction to its branch site, and returns the `top` sites ranked
/// by the first (paper) column's count (count descending, address
/// ascending — fully deterministic).
///
/// The workload is captured once, through the grid's row path (served
/// by the trace store when warm), and every backend rides one lane
/// group whose observer counts each lane's mispredictions per address.
pub fn h2p_offenders(
    source: &WorkloadSource,
    opts: &ExperimentOptions,
    configs: &[SimConfig],
    top: usize,
) -> Vec<H2pRow> {
    use std::collections::HashMap;
    let session = SimSession::from_options(opts).workload(source.clone()).configs(configs.to_vec());
    let mut per_backend: Vec<HashMap<u64, u64>> = vec![HashMap::new(); configs.len()];
    let mut seen = vec![0u64; configs.len()];
    session.observe_row(0, |col, model, instr| {
        // Only a retired branch moves the count, and by at most one.
        let now = model.outcomes().mispredict_direction;
        if now > seen[col] {
            seen[col] = now;
            *per_backend[col].entry(instr.addr.raw()).or_insert(0) += 1;
        }
    });
    let paper = &per_backend[0];
    let mut addrs: Vec<u64> = paper.keys().copied().collect();
    addrs.sort_by_key(|a| (std::cmp::Reverse(paper[a]), *a));
    addrs.truncate(top);
    addrs
        .into_iter()
        .map(|addr| H2pRow {
            addr,
            counts: configs
                .iter()
                .zip(&per_backend)
                .map(|(c, m)| (c.name.clone(), m.get(&addr).copied().unwrap_or(0)))
                .collect(),
        })
        .collect()
}

/// Number of hard-to-predict branch sites the tournament reports.
pub const H2P_TOP: usize = 10;

/// Assembles the [`TournamentReport`] from a completed grid: the cell
/// rows, the who-wins-where summary, and the H2P offender table replayed
/// on the workload where the paper backend struggles most.
pub fn tournament_report(
    grid: &SessionGrid,
    sources: &[WorkloadSource],
    configs: &[SimConfig],
    opts: &ExperimentOptions,
) -> TournamentReport {
    let cells = tournament_cells(grid);
    let winners = tournament_winners(grid);
    let wins = tournament_wins(grid, &winners);
    let paper = &grid.configs()[0];
    let h2p_workload = grid
        .workloads()
        .iter()
        .max_by(|a, b| {
            dir_mpki(grid, a, paper).partial_cmp(&dir_mpki(grid, b, paper)).expect("finite MPKI")
        })
        .expect("tournament has workloads")
        .clone();
    let source =
        sources.iter().find(|s| s.name() == h2p_workload).expect("H2P workload is in the grid");
    let h2p = h2p_offenders(source, opts, configs, H2P_TOP);
    TournamentReport { cells, winners, wins, h2p_workload, h2p }
}

/// The cross-backend direction-predictor tournament: every Table-4
/// workload under every registered [`SimConfig::direction_backends`]
/// column, plus the H2P offender breakdown.
pub fn predictor_tournament(opts: &ExperimentOptions) -> TournamentReport {
    let sources: Vec<WorkloadSource> = if opts.sources.is_empty() {
        WorkloadProfile::all_table4().into_iter().map(Into::into).collect()
    } else {
        opts.sources.clone()
    };
    let configs = SimConfig::direction_backends();
    let grid =
        SimSession::from_options(opts).workloads(sources.clone()).configs(configs.clone()).run();
    tournament_report(&grid, &sources, &configs, opts)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> ExperimentOptions {
        ExperimentOptions::quick(20_000, 7)
    }

    #[test]
    fn figure2_produces_13_rows() {
        let rows = figure2(&quick());
        assert_eq!(rows.len(), 13);
        for r in &rows {
            assert!(r.baseline_cpi > 0.0);
            assert!(r.btb2_cpi > 0.0);
            assert!(r.large_btb1_cpi > 0.0);
        }
    }

    #[test]
    fn figure4_breakdowns_are_consistent() {
        let r = figure4(&quick());
        assert_eq!(r.workload, "Z/OS DayTrader DBServ");
        assert!(r.without_btb2.total() <= 100.0);
        assert!(r.with_btb2.total() <= 100.0);
        assert!(r.without_btb2.total() > 0.0, "short cold runs have bad outcomes");
    }

    #[test]
    fn table4_reports_targets() {
        let rows = table4(&quick());
        assert_eq!(rows.len(), 13);
        assert_eq!(rows[0].target_branches, 15_244);
        assert!(rows.iter().all(|r| r.instructions == 20_000));
    }

    #[test]
    fn options_defaults_and_len_cap() {
        let o = ExperimentOptions::default();
        assert_eq!(o.seed, 0xEC12);
        assert_eq!(o.workers, None);
        assert_eq!(o.cache_dir, None);
        let p = WorkloadProfile::tpf_airline();
        assert_eq!(o.len_for(&p), p.default_len);
        let capped = ExperimentOptions::quick(10, 1);
        assert_eq!(capped.len_for(&p), 10);
    }

    #[test]
    fn seed_parses_decimal_and_hex() {
        assert_eq!(parse_seed("42").unwrap(), 42);
        assert_eq!(parse_seed("0xEC12").unwrap(), 0xEC12);
        assert_eq!(parse_seed("0Xec12").unwrap(), 0xEC12);
        assert!(parse_seed("12 monkeys").is_err());
        assert!(parse_seed("").is_err());
    }

    #[test]
    fn tournament_covers_every_backend_and_ranks_offenders() {
        let opts = ExperimentOptions::quick(8_000, 7);
        let sources: Vec<WorkloadSource> =
            vec![WorkloadProfile::tpf_airline().into(), WorkloadProfile::zlinux_informix().into()];
        let configs = SimConfig::direction_backends();
        let grid = SimSession::from_options(&opts)
            .workloads(sources.clone())
            .configs(configs.clone())
            .run();
        let report = tournament_report(&grid, &sources, &configs, &opts);
        assert_eq!(report.cells.len(), 2 * configs.len());
        assert!(report.cells.iter().all(|c| c.dir_mpki >= 0.0 && c.cpi > 0.0));
        assert_eq!(report.winners.len(), 2);
        assert_eq!(report.wins.iter().map(|(_, n)| n).sum::<u64>(), 2);
        assert!(sources.iter().any(|s| s.name() == report.h2p_workload));
        assert!(!report.h2p.is_empty(), "short cold runs mispredict somewhere");
        for row in &report.h2p {
            let names: Vec<&str> = row.counts.iter().map(|(b, _)| b.as_str()).collect();
            assert_eq!(names, ["paper", "two-bit", "two-level-local", "gshare", "tage"]);
        }
        let paper_counts: Vec<u64> = report.h2p.iter().map(|r| r.counts[0].1).collect();
        assert!(paper_counts.windows(2).all(|w| w[0] >= w[1]), "ranked by paper count");
        let json = zbp_support::json::to_string(&report);
        let back: TournamentReport = zbp_support::json::from_str(&json).unwrap();
        assert_eq!(back, report);
    }

    #[test]
    fn wrongpath_matrix_has_stable_column_order() {
        let configs = wrongpath_configs();
        let names: Vec<&str> = configs.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(
            names,
            ["No BTB2", "BTB2 enabled", "No BTB2 + wrong path", "BTB2 enabled + wrong path"]
        );
        assert!(!configs[0].uarch.wrong_path_fetch);
        assert!(configs[3].uarch.wrong_path_fetch);
    }
}

zbp_support::impl_json_struct!(Figure3Row { workload, improvement });
zbp_support::impl_json_struct!(OutcomePercents { mispredicted, compulsory, latency, capacity });
zbp_support::impl_json_struct!(Figure4Result { workload, without_btb2, with_btb2, improvement });
zbp_support::impl_json_struct!(Table4Row {
    trace,
    target_branches,
    measured_branches,
    target_taken,
    measured_taken,
    instructions,
});
zbp_support::impl_json_struct!(WrongPathRow {
    wrong_path,
    avg_improvement,
    wrong_path_lines_per_kilo_instr,
});
zbp_support::impl_json_struct!(TournamentCell { trace, backend, dir_mpki, cpi });
zbp_support::impl_json_struct!(H2pRow { addr, counts });
zbp_support::impl_json_struct!(TournamentReport { cells, winners, wins, h2p_workload, h2p });
