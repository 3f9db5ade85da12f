//! End-to-end integration: workloads → predictor hierarchy → core model,
//! asserting the paper's directional results on scaled-down scenarios.
//!
//! These use an engineered profile whose working set rotates fast enough
//! for the capacity regime to establish within a debug-friendly trace
//! length (the full-length runs live in `zbp-cli experiment run`).

use zbp::prelude::*;
use zbp::trace::gen::layout::LayoutParams;
use zbp::trace::gen::GenTrace;

/// A capacity-bound workload that reaches its steady state quickly:
/// ~12 k branch sites rotating every ~120 k instructions.
fn capacity_bound_trace(len: u64) -> GenTrace {
    let params = LayoutParams {
        target_sites: 12_000,
        taken_fraction: 0.62,
        phase_len: 120_000,
        ..LayoutParams::default()
    };
    GenTrace::new("capacity-bound", &params, 0xAB, len)
}

/// A workload comfortably inside the first level's reach.
fn small_trace(len: u64) -> GenTrace {
    let params = LayoutParams {
        target_sites: 1_500,
        taken_fraction: 0.65,
        phase_len: 120_000,
        ..LayoutParams::default()
    };
    GenTrace::new("small", &params, 0xCD, len)
}

#[test]
fn btb2_recovers_part_of_the_capacity_gap() {
    let trace = capacity_bound_trace(1_500_000);
    let base = Simulator::new(SimConfig::no_btb2()).run(&trace);
    let btb2 = Simulator::new(SimConfig::btb2_enabled()).run(&trace);
    let large = Simulator::new(SimConfig::large_btb1()).run(&trace);

    // Directional: the BTB2 must reduce capacity bad surprises, and the
    // unrealistically large BTB1 must reduce them further.
    assert!(
        btb2.core.outcomes.surprise_capacity < base.core.outcomes.surprise_capacity,
        "BTB2 {} !< baseline {}",
        btb2.core.outcomes.surprise_capacity,
        base.core.outcomes.surprise_capacity
    );
    assert!(
        large.core.outcomes.surprise_capacity < btb2.core.outcomes.surprise_capacity,
        "large BTB1 {} !< BTB2 {}",
        large.core.outcomes.surprise_capacity,
        btb2.core.outcomes.surprise_capacity
    );
    // CPI ordering with a little slack for noise.
    assert!(btb2.cpi() < base.cpi(), "btb2 {} !< base {}", btb2.cpi(), base.cpi());
    assert!(large.cpi() < base.cpi());
    // Effectiveness in (0, ~100%]: the BTB2 recovers part of the gap.
    let eff = btb2.improvement_over(&base) / large.improvement_over(&base);
    assert!(eff > 0.15 && eff < 1.3, "effectiveness {eff}");
}

#[test]
fn small_footprints_gain_nothing_from_the_btb2() {
    let trace = small_trace(400_000);
    let base = Simulator::new(SimConfig::no_btb2()).run(&trace);
    let btb2 = Simulator::new(SimConfig::btb2_enabled()).run(&trace);
    let delta = btb2.improvement_over(&base).abs();
    assert!(delta < 1.0, "small footprint moved {delta}%");
}

#[test]
fn simulation_is_deterministic() {
    let trace = capacity_bound_trace(150_000);
    let a = Simulator::new(SimConfig::btb2_enabled()).run(&trace);
    let b = Simulator::new(SimConfig::btb2_enabled()).run(&trace);
    assert_eq!(a.core.cycles, b.core.cycles);
    assert_eq!(a.core.outcomes, b.core.outcomes);
    assert_eq!(a.core.predictor, b.core.predictor);
}

#[test]
fn outcome_taxonomy_is_a_partition() {
    let trace = capacity_bound_trace(250_000);
    for config in [SimConfig::no_btb2(), SimConfig::btb2_enabled(), SimConfig::large_btb1()] {
        let r = Simulator::new(config).run(&trace);
        let o = &r.core.outcomes;
        assert_eq!(
            o.branches,
            o.good_dynamic + o.benign_surprises + o.bad_total(),
            "every branch categorized exactly once"
        );
    }
}

#[test]
fn transfers_only_happen_with_a_btb2() {
    let trace = capacity_bound_trace(250_000);
    let base = Simulator::new(SimConfig::no_btb2()).run(&trace);
    assert_eq!(base.core.predictor.btb2_entries_transferred, 0);
    assert_eq!(base.core.predictor.transfer.requests, 0);
    let btb2 = Simulator::new(SimConfig::btb2_enabled()).run(&trace);
    assert!(btb2.core.predictor.btb2_entries_transferred > 0);
    assert!(btb2.core.predictor.tracker.full_searches > 0);
    assert!(btb2.core.predictor.tracker.partial_searches > 0);
}

#[test]
fn mixed_workload_runs_and_switches_contexts() {
    let profile = WorkloadProfile::mixed(
        "test mix",
        vec![
            zbp::trace::profile::FootprintPart { label: "a".into(), sites: 3_000, taken: 1_900 },
            zbp::trace::profile::FootprintPart { label: "b".into(), sites: 3_000, taken: 1_900 },
        ],
        40_000,
    );
    let trace = profile.build_with_len(5, 300_000);
    let r = Simulator::new(SimConfig::btb2_enabled()).run(&trace);
    assert_eq!(r.core.instructions, 300_000);
    assert!(r.cpi() > 0.5 && r.cpi() < 10.0, "cpi={}", r.cpi());
}

#[test]
fn improvement_math_is_consistent() {
    let trace = small_trace(100_000);
    let a = Simulator::new(SimConfig::no_btb2()).run(&trace);
    let b = Simulator::new(SimConfig::btb2_enabled()).run(&trace);
    let ab = b.improvement_over(&a);
    let ba = a.improvement_over(&b);
    // x% one way ≈ -x/(1-x)% the other way.
    assert!((ab / 100.0 + ba / 100.0 * (1.0 - ab / 100.0)).abs() < 1e-9);
}
