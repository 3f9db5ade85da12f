//! Parameter sweeps: the column layout and post-processing shared by
//! the registry's sweep specs (Figures 5, 6 and 7, the ablations and the
//! future-work studies).
//!
//! Each sweep point is a predictor-configuration variant; its score is
//! the mean CPI improvement over the no-BTB2 baseline across all
//! workloads — exactly what Figures 5, 6 and 7 plot.

use crate::config::SimConfig;
use crate::report::mean;
use crate::session::SessionGrid;
use zbp_predictor::PredictorConfig;

/// Result of one sweep point.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPoint {
    /// Variant label ("24k", "4 searches", ...).
    pub label: String,
    /// Mean CPI improvement over the baseline across all workloads (%).
    pub avg_improvement: f64,
    /// Per-workload improvements (%), in Table-4 order.
    pub per_trace: Vec<(String, f64)>,
}

/// Builds the configuration columns of a sweep grid: the shared no-BTB2
/// baseline first, then one BTB2 column per variant, named by its label.
pub fn sweep_configs(variants: &[(String, PredictorConfig)]) -> Vec<SimConfig> {
    let mut configs = vec![SimConfig::no_btb2()];
    configs.extend(variants.iter().map(|(label, cfg)| {
        SimConfig::btb2_enabled().named(label.clone()).with_predictor(cfg.clone())
    }));
    configs
}

/// Sweep post-processing: one [`SweepPoint`] per non-baseline column of
/// a [`sweep_configs`]-shaped grid (column 0 is the baseline).
pub fn points_from_grid(grid: &SessionGrid) -> Vec<SweepPoint> {
    let baseline = &grid.configs()[0];
    grid.configs()[1..]
        .iter()
        .map(|label| {
            let improvements: Vec<(String, f64)> = grid
                .workloads()
                .iter()
                .map(|w| (w.clone(), grid.improvement(w, label, baseline)))
                .collect();
            let avg = mean(&improvements.iter().map(|(_, i)| *i).collect::<Vec<f64>>());
            SweepPoint { label: label.clone(), avg_improvement: avg, per_trace: improvements }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::fig5_variants;
    use crate::session::SimSession;
    use zbp_trace::profile::WorkloadProfile;

    #[test]
    fn a_disabled_fig5_column_reads_zero() {
        let grid = SimSession::new()
            .seed(3)
            .max_len(15_000)
            .workloads(vec![WorkloadProfile::tpf_airline(), WorkloadProfile::zlinux_informix()])
            .configs(sweep_configs(&fig5_variants(&[0, 12 * 1024])))
            .run();
        let points = points_from_grid(&grid);
        let labels: Vec<&str> = points.iter().map(|p| p.label.as_str()).collect();
        assert_eq!(labels, ["disabled", "12k"]);
        assert!(points.iter().all(|p| p.per_trace.len() == 2));
        // The disabled column IS the baseline: exactly 0% improvement.
        assert!(points[0].avg_improvement.abs() < 1e-9, "disabled == baseline");
    }
}

zbp_support::impl_json_struct!(SweepPoint { label, avg_improvement, per_trace });
