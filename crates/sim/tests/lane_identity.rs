//! Property test for the decode-once lane kernel: over randomized
//! (workload, seed, length, lane-set) cells, every lane of a batched
//! replay must be bit-identical to the per-record reference replay of
//! its configuration alone — every counter of every
//! [`zbp_uarch::core::CoreResult`] field, not just CPI. Lane sets mix the Table-3 BTB geometries with every direction
//! backend, so shared-decode cross-talk between structurally different
//! predictors would surface immediately.

use zbp_sim::{SimConfig, Simulator};
use zbp_support::rng::SmallRng;
use zbp_trace::profile::WorkloadProfile;
use zbp_trace::CompactTrace;

/// The configuration pool lane sets draw from: the three Table-3
/// columns plus the five direction backends (eight distinct predictor
/// geometries).
fn config_pool() -> Vec<SimConfig> {
    let mut pool = SimConfig::table3().to_vec();
    pool.extend(SimConfig::direction_backends());
    pool
}

#[test]
fn lane_replay_is_bit_identical_over_randomized_cells() {
    let profiles = WorkloadProfile::all_table4();
    let pool = config_pool();
    let mut rng = SmallRng::seed_from_u64(0xEC12_1A7E);
    for round in 0..12 {
        let profile = &profiles[rng.random_range(0..profiles.len())];
        let trace_seed = rng.next_u64();
        let len = rng.random_range(6_000u64..=20_000);
        let width = rng.random_range(2..=pool.len());
        let lanes: Vec<&SimConfig> =
            (0..width).map(|_| &pool[rng.random_range(0..pool.len())]).collect();

        let trace = profile.build_with_len(trace_seed, len);
        let compact = CompactTrace::capture(&trace).expect("generator streams encode");
        let batched = Simulator::run_configs_compact_lanes(&lanes, &compact);
        assert_eq!(batched.len(), lanes.len());
        for (lane, config) in batched.iter().zip(&lanes) {
            let reference = Simulator::run_config(config, &trace);
            assert_eq!(
                lane.core, reference.core,
                "round {round}: {} / {} / seed {trace_seed:#x} / {len} instr diverged",
                profile.name, config.name
            );
        }
    }
}
