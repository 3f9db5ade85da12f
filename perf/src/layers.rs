//! Per-layer metrics of a traced run, derived from its spans.
//!
//! Span names used by the traced runs:
//! - `bench.rep`: one traced repetition: `sim.grid`, then `sim.assemble`;
//! - `sim.grid` / `sim.row`: the `par_map` over workload rows;
//! - `trace.store_load`, `trace.store_probe` (a load that misses),
//!   `trace.capture`, `trace.store_write`: the trace layer;
//! - `uarch.replay`: one lane group replaying a row's capture;
//! - `sim.cache_probe` (a row's cache lookups and claims),
//!   `sim.cache_store`, `sim.cell_roundtrip` (a stored cell read back
//!   from its rendered bytes), `sim.cache_load`, `sim.assemble`: the
//!   cell cache and registry assembly.

use crate::common::{ModelCounts, Report, WORKERS};
use crate::serve::OpenLoop;
use crate::spans::{self, self_times, Span};
use crate::stats::{median, percentile};
use std::collections::BTreeMap;
use std::path::Path;
use zbp_support::json::Json;
use zbp_trace::TraceStoreStats;

/// What a traced run measured besides its spans.
pub struct Traced<'a> {
    pub spans: &'a [Span],
    /// Instructions per workload row.
    pub len: u64,
    /// Lanes replayed in total over every `uarch.replay` span.
    pub lanes: u64,
    /// Lanes of one grid, as reported.
    pub lanes_per_grid: u64,
    pub counts: ModelCounts,
    pub store_dir: &'a Path,
    pub store: TraceStoreStats,
    pub cells: u64,
    pub cells_computed: u64,
    pub cache_hits: u64,
    pub serve: &'a OpenLoop,
    pub metrics_cache_hits: u64,
    pub metrics_errors: u64,
    /// Median time of a traced repetition less that of the untraced
    /// run it re-enacts, s.
    pub overhead_s: f64,
    /// Where to write every span, one JSON line each.
    pub spans_out: &'a Path,
}

/// Adds every per-layer metric to `report`.
pub fn report(t: &Traced, report: &mut Report) -> Result<(), String> {
    let s = t.spans;
    let per_instr_ns = |name: &str, instr: u64| {
        let (secs, n) = spans::total(s, name);
        secs * 1e9 / (n as u64 * instr).max(1) as f64
    };
    let (replay_s, _) = spans::total(s, "uarch.replay");
    let (store_bytes, stored) = zbpc_bytes(t.store_dir)?;

    report.metric("trace.capture_ns_per_instr", per_instr_ns("trace.capture", t.len), "ns/instr");
    report.metric("trace.store_write_ms", spans::mean(s, "trace.store_write") * 1e3, "ms");
    report.metric(
        "trace.store_load_ns_per_instr",
        per_instr_ns("trace.store_load", t.len),
        "ns/instr",
    );
    report.metric(
        "trace.store_bytes_per_instr",
        store_bytes as f64 / (stored * t.len).max(1) as f64,
        "B/instr",
    );
    report.metric("trace.store_hits", t.store.hits as f64, "count");
    report.metric("trace.store_misses", t.store.misses as f64, "count");
    report.metric(
        "uarch.replay_ns_per_lane_instr",
        replay_s * 1e9 / (t.lanes * t.len).max(1) as f64,
        "ns/instr",
    );
    report.metric("uarch.lanes", t.lanes_per_grid as f64, "count");
    for (name, value) in t.counts.metrics() {
        report.metric(name, value, "count");
    }
    report.metric("sim.row_imbalance", row_imbalance(s), "ratio");
    report.metric("sim.cache_store_us", spans::mean(s, "sim.cache_store") * 1e6, "us");
    report.metric("sim.cache_load_us", spans::mean(s, "sim.cache_load") * 1e6, "us");
    report.metric("sim.assemble_ms", spans::mean(s, "sim.assemble") * 1e3, "ms");
    report.metric("sim.cells", t.cells as f64, "count");
    report.metric("sim.cells_computed", t.cells_computed as f64, "count");
    report.metric("sim.cache_hits", t.cache_hits as f64, "count");
    report.metric("serve.to_plan_ms", median(&t.serve.to_plan_ms).unwrap_or(0.0), "ms");
    report.metric(
        "serve.plan_to_result_ms",
        median(&t.serve.plan_to_result_ms).unwrap_or(0.0),
        "ms",
    );
    report.metric(
        "serve.bytes_per_req",
        t.serve.bytes as f64 / t.serve.requests.max(1) as f64,
        "B",
    );
    report.metric("serve.metrics_cache_hits", t.metrics_cache_hits as f64, "count");
    report.metric("serve.metrics_errors", t.metrics_errors as f64, "count");
    report.metric(
        "loadgen.lateness_p90_ms",
        percentile(&t.serve.lateness_ms, 90.0).unwrap_or(0.0),
        "ms",
    );
    report.metric("bench.tracing_overhead_ms", t.overhead_s * 1e3, "ms");
    let share = accounted_share(s);
    report.metric("bench.accounted_share", share, "ratio");
    if !(0.9..=1.1).contains(&share) {
        report.check(0, Some(format!("layer self times account for {share:.3} of wall × workers")));
    }
    report.detail("self_ms", self_summary(s));
    let path = t.spans_out;
    let io = |e: std::io::Error| format!("{}: {e}", path.display());
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(io)?;
    }
    let file = std::fs::File::create(path).map_err(io)?;
    spans::write_jsonl(s, &mut std::io::BufWriter::new(file)).map_err(io)?;
    report.detail("spans_file", Json::Str(path.display().to_string()));
    Ok(())
}

/// Self milliseconds of each layer (a span name up to its first `.`),
/// and the count, total and self milliseconds of each span name.
fn self_summary(s: &[Span]) -> Json {
    let mut layers: BTreeMap<&str, u64> = BTreeMap::new();
    let mut names: BTreeMap<&str, (u64, u64, u64)> = BTreeMap::new();
    for (span, self_ns) in s.iter().zip(self_times(s)) {
        *layers.entry(span.name.split('.').next().unwrap_or(span.name)).or_default() += self_ns;
        let n = names.entry(span.name).or_default();
        *n = (n.0 + 1, n.1 + span.duration_ns(), n.2 + self_ns);
    }
    let ms = |ns: u64| Json::Num(ns as f64 * 1e-6);
    Json::Obj(vec![
        ("layers".into(), Json::Obj(layers.iter().map(|(k, &v)| (k.to_string(), ms(v))).collect())),
        (
            "spans".into(),
            Json::Obj(
                names
                    .iter()
                    .map(|(k, &(n, total, own))| {
                        let v = Json::Obj(vec![
                            ("n".into(), Json::Num(n as f64)),
                            ("total".into(), ms(total)),
                            ("self".into(), ms(own)),
                        ]);
                        (k.to_string(), v)
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Grid wall time over the ideal time with the row work spread evenly
/// over the workers: 1 is perfect balance.
fn row_imbalance(s: &[Span]) -> f64 {
    let (grid_s, _) = spans::total(s, "sim.grid");
    let (rows_s, _) = spans::total(s, "sim.row");
    if rows_s == 0.0 {
        0.0
    } else {
        grid_s / (rows_s / WORKERS as f64)
    }
}

/// Spans that only group others. Their self time is time no layer
/// call covers, so it counts as unaccounted.
const GROUPING: [&str; 3] = ["bench.rep", "sim.grid", "sim.row"];

/// For each `bench.rep` span: the self time of the layer spans under it
/// (every span but [`GROUPING`] ones), plus the time workers sat idle,
/// over its wall time × workers. Workers are idle inside `sim.grid`
/// while some row runs but not on them, and all but one is idle outside
/// `sim.grid`. Time inside a row, grid or repetition that no layer span
/// covers is left out, so it lowers the share. The median over
/// repetitions; 1 means the layer spans account for all the time.
pub fn accounted_share(s: &[Span]) -> f64 {
    let selfs = self_times(s);
    let under = |mut i: usize, root: usize| loop {
        match s[i].parent {
            Some(p) if p == root => return true,
            Some(p) => i = p,
            None => return false,
        }
    };
    let workers = WORKERS as f64;
    let shares: Vec<f64> = (0..s.len())
        .filter(|&r| s[r].name == "bench.rep")
        .map(|r| {
            let wall = s[r].duration_ns() as f64;
            let (mut layers, mut grid, mut grid_busy, mut rows) = (0.0, 0.0, 0.0, 0.0);
            for i in (0..s.len()).filter(|&i| under(i, r)) {
                let (span, own) = (s[i].duration_ns() as f64, selfs[i] as f64);
                match s[i].name {
                    "sim.grid" => {
                        grid += span;
                        // The part of the grid some row covers.
                        grid_busy += span - own;
                    }
                    "sim.row" => rows += span,
                    name if GROUPING.contains(&name) => {}
                    _ => layers += own,
                }
            }
            let idle = workers * grid_busy - rows + (wall - grid) * (workers - 1.0);
            (layers + idle) / (wall * workers)
        })
        .collect();
    median(&shares).unwrap_or(0.0)
}

/// Total bytes and number of the `.zbpc` entries in a trace store.
fn zbpc_bytes(dir: &Path) -> Result<(u64, u64), String> {
    let mut total = (0, 0);
    for entry in std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))? {
        let entry = entry.map_err(|e| e.to_string())?;
        if entry.path().extension().is_some_and(|x| x == "zbpc") {
            total.0 += entry.metadata().map_err(|e| e.to_string())?.len();
            total.1 += 1;
        }
    }
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span { name, start_ns, end_ns, parent, run: 1, thread: 0 }
    }

    /// A 100 ns repetition: a 55 ns grid whose two rows keep both
    /// workers busy for 50 ns each, then a 45 ns assembly. `bare_row`
    /// leaves the second row without layer spans.
    fn repetition(bare_row: bool) -> Vec<Span> {
        let mut s = vec![
            span("bench.rep", 0, 100, None),
            span("sim.grid", 0, 55, Some(0)),
            span("sim.row", 0, 50, Some(1)),
            span("uarch.replay", 0, 40, Some(2)),
            span("sim.cache_store", 40, 50, Some(2)),
            span("sim.row", 5, 55, Some(1)),
            span("sim.assemble", 55, 100, Some(0)),
        ];
        if !bare_row {
            s.push(span("trace.store_load", 5, 15, Some(5)));
            s.push(span("uarch.replay", 15, 55, Some(5)));
        }
        s
    }

    #[test]
    fn a_fully_covered_repetition_accounts_for_everything() {
        let s = repetition(false);
        assert!((accounted_share(&s) - 1.0).abs() < 1e-12, "{}", accounted_share(&s));
        assert!((row_imbalance(&s) - 55.0 / 50.0).abs() < 1e-12);
    }

    #[test]
    fn a_row_without_layer_spans_is_not_accounted() {
        // The bare row's 50 ns count as neither layer work nor idle time:
        // (50 + 45 layer + 10 + 45 idle) / 200.
        let share = accounted_share(&repetition(true));
        assert!((share - 0.75).abs() < 1e-12, "{share}");
        assert!(share < 0.9);
    }

    #[test]
    fn unspanned_time_shows_as_a_shortfall() {
        // Both rows are covered, but the repetition's last 50 ns and the
        // grid's last 10 ns, where no row runs, sit in no layer span.
        let s = vec![
            span("bench.rep", 0, 100, None),
            span("sim.grid", 0, 50, Some(0)),
            span("sim.row", 0, 40, Some(1)),
            span("uarch.replay", 0, 40, Some(2)),
            span("sim.row", 0, 40, Some(1)),
            span("uarch.replay", 0, 40, Some(4)),
        ];
        // (80 layer + 50 idle outside the grid) / 200.
        assert!((accounted_share(&s) - 0.65).abs() < 1e-12, "{}", accounted_share(&s));
    }
}
