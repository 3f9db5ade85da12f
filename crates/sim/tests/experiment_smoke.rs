//! Smoke coverage for the registered experiments at tiny trace lengths:
//! each spec runs through `ExperimentSpec::run`, the one way in, and its
//! `data` block decodes back into the typed rows — structure, counts and
//! serializability. The full-length numbers come from
//! `zbp-cli experiment run <id>`.

use zbp_sim::experiments::*;
use zbp_sim::report::ImprovementRow;
use zbp_sim::sweep::SweepPoint;
use zbp_sim::{registry, CellCache};
use zbp_support::json::FromJson;

/// Runs the registered experiment `id` in memory and decodes its data.
fn run<T: FromJson>(id: &str) -> T {
    let spec = registry::find(id).unwrap_or_else(|| panic!("{id} is not registered"));
    let run = spec.run(&ExperimentOptions::quick(15_000, 3), &CellCache::disabled());
    T::from_json(&run.data).unwrap_or_else(|e| panic!("{id} data does not decode: {e:?}"))
}

fn labels(points: &[SweepPoint]) -> Vec<&str> {
    points.iter().map(|p| p.label.as_str()).collect()
}

#[test]
fn figure2_rows_serialize_and_cover_table4() {
    let rows: Vec<ImprovementRow> = run("fig2");
    assert_eq!(rows.len(), 13);
    for r in &rows {
        assert!(r.baseline_cpi > 0.0 && r.btb2_cpi > 0.0 && r.large_btb1_cpi > 0.0);
    }
    let json = zbp_support::json::to_string(&rows);
    assert!(json.contains("DayTrader"));
}

#[test]
fn figure3_covers_both_hardware_workloads() {
    let rows: Vec<Figure3Row> = run("fig3");
    assert_eq!(rows.len(), 2);
    assert!(rows[0].workload.contains("WASDB"));
    assert!(rows[1].workload.contains("CICS"));
    assert!(!zbp_support::json::to_string(&rows).is_empty());
}

#[test]
fn figure4_percentages_are_bounded() {
    let r: Figure4Result = run("fig4");
    assert_eq!(r.workload, "Z/OS DayTrader DBServ");
    assert!(r.without_btb2.total() > 0.0, "short cold runs have bad outcomes");
    for p in [r.without_btb2, r.with_btb2] {
        assert!(p.mispredicted >= 0.0 && p.mispredicted <= 100.0);
        assert!(p.compulsory >= 0.0 && p.compulsory <= 100.0);
        assert!(p.latency >= 0.0 && p.latency <= 100.0);
        assert!(p.capacity >= 0.0 && p.capacity <= 100.0);
        assert!(p.total() <= 100.0);
    }
    assert!(!zbp_support::json::to_string(&r).is_empty());
}

#[test]
fn figure5_labels_follow_sizes() {
    let points: Vec<SweepPoint> = run("fig5");
    assert_eq!(labels(&points), ["6k", "12k", "24k", "48k", "96k"]);
    for p in &points {
        assert_eq!(p.per_trace.len(), 13);
    }
}

#[test]
fn figure6_and_7_produce_one_point_per_variant() {
    let fig6: Vec<SweepPoint> = run("fig6");
    assert_eq!(
        labels(&fig6),
        ["1 searches", "2 searches", "3 searches", "4 searches", "6 searches", "8 searches"]
    );
    let fig7: Vec<SweepPoint> = run("fig7");
    assert_eq!(
        labels(&fig7),
        ["1 trackers", "2 trackers", "3 trackers", "4 trackers", "6 trackers", "8 trackers"]
    );
}

#[test]
fn ablations_cover_their_design_space() {
    assert_eq!(run::<Vec<SweepPoint>>("ablation_exclusivity").len(), 3);
    assert_eq!(run::<Vec<SweepPoint>>("ablation_steering").len(), 2);
    assert_eq!(run::<Vec<SweepPoint>>("ablation_filter").len(), 3);
}

#[test]
fn future_work_experiments_run() {
    assert_eq!(run::<Vec<SweepPoint>>("future_congruence").len(), 3);
    assert_eq!(run::<Vec<SweepPoint>>("future_miss_detection").len(), 3);
    assert_eq!(run::<Vec<SweepPoint>>("future_multiblock").len(), 2);
    assert_eq!(run::<Vec<SweepPoint>>("future_edram").len(), 3);
}

#[test]
fn wrongpath_and_phantom_studies_run() {
    let rows: Vec<WrongPathRow> = run("ablation_wrongpath");
    assert_eq!(rows.iter().map(|r| r.wrong_path).collect::<Vec<_>>(), [false, true]);
    assert_eq!(run::<Vec<SweepPoint>>("comparison_phantom").len(), 2);
}

#[test]
fn table4_rows_report_every_profile_in_order() {
    let rows: Vec<Table4Row> = run("table4");
    assert_eq!(rows.len(), 13);
    assert!(rows[0].trace.contains("CB84"));
    assert_eq!(rows[0].target_branches, 15_244);
    assert!(rows[12].trace.contains("Trade6"));
    for r in &rows {
        assert_eq!(r.instructions, 15_000);
        assert!(r.measured_branches > 0);
        assert!(r.measured_taken <= r.measured_branches);
    }
}

#[test]
fn experiment_results_are_deterministic() {
    let a: Vec<ImprovementRow> = run("fig2");
    let b: Vec<ImprovementRow> = run("fig2");
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.baseline_cpi.to_bits(), y.baseline_cpi.to_bits());
        assert_eq!(x.btb2_cpi.to_bits(), y.btb2_cpi.to_bits());
    }
}
