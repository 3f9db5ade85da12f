//! Cross-crate randomized tests: sampled workload parameters through the
//! full stack must uphold the simulator's structural invariants.
//!
//! Inputs are drawn from the deterministic [`zbp_support::rng::SmallRng`]
//! so every CI run exercises the same cases.

use zbp::prelude::*;
use zbp::trace::gen::layout::LayoutParams;
use zbp::trace::gen::GenTrace;
use zbp::trace::io::{read_trace, write_trace};
use zbp::trace::Trace;
use zbp_support::rng::SmallRng;

fn sample_params(rng: &mut SmallRng) -> LayoutParams {
    LayoutParams {
        target_sites: rng.random_range(500u32..4_000),
        taken_fraction: 0.45 + 0.40 * rng.random::<f64>(),
        backward_cond_fraction: 0.05 + 0.30 * rng.random::<f64>(),
        phase_len: rng.random_range(20_000u64..150_000),
        phase_ranges: rng.random_range(1u32..6),
        ..LayoutParams::default()
    }
}

#[test]
fn control_flow_is_always_consistent() {
    let mut rng = SmallRng::seed_from_u64(0x11);
    for _ in 0..12 {
        let params = sample_params(&mut rng);
        let seed = rng.random_range(0u64..1000);
        let t = GenTrace::new("prop", &params, seed, 6_000);
        let mut prev: Option<zbp::trace::TraceInstr> = None;
        for i in t.iter() {
            if let Some(p) = prev {
                assert_eq!(p.next_addr(), i.addr);
            }
            assert!(matches!(i.len, 2 | 4 | 6));
            assert_eq!(i.addr.raw() % 2, 0);
            prev = Some(i);
        }
    }
}

#[test]
fn simulation_never_panics_and_partitions_outcomes() {
    let mut rng = SmallRng::seed_from_u64(0x22);
    for _ in 0..12 {
        let params = sample_params(&mut rng);
        let seed = rng.random_range(0u64..1000);
        let t = GenTrace::new("prop", &params, seed, 8_000);
        for config in [SimConfig::no_btb2(), SimConfig::btb2_enabled()] {
            let r = Simulator::new(config).run(&t);
            let o = &r.core.outcomes;
            assert_eq!(r.core.instructions, 8_000);
            assert_eq!(o.branches, o.good_dynamic + o.benign_surprises + o.bad_total());
            assert!(r.core.cycles > 0);
            // Total cycles can never be below the decode-bandwidth floor.
            assert!(r.core.cycles >= r.core.instructions / 3);
        }
    }
}

#[test]
fn trace_io_roundtrips() {
    let mut rng = SmallRng::seed_from_u64(0x33);
    for _ in 0..12 {
        let params = sample_params(&mut rng);
        let seed = rng.random_range(0u64..100);
        let t = GenTrace::new("prop-io", &params, seed, 2_000);
        let mut buf = Vec::new();
        write_trace(&t, &mut buf).unwrap();
        let back = read_trace(buf.as_slice()).unwrap();
        let orig: Vec<_> = t.iter().collect();
        assert_eq!(back.records(), orig.as_slice());
    }
}

#[test]
fn trace_store_roundtrips_every_table4_profile_bit_identically() {
    use zbp::trace::{CompactTrace, TraceStore, TraceStoreKey};
    let dir = std::env::temp_dir().join(format!("zbp-props-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = TraceStore::at(&dir);
    for profile in WorkloadProfile::all_table4() {
        let len = 20_000;
        let gen = profile.build_with_len(0xEC12, len);
        let compact = CompactTrace::capture(&gen).expect("generator streams compact-encode");
        let key = TraceStoreKey::workload(&zbp::support::json::to_string(&profile), 0xEC12, len);
        store.store(&key, &compact);
        let loaded = store.load(&key, Default::default()).expect("fresh entry hits");
        assert_eq!(loaded.branch_points(), compact.branch_points(), "{}", profile.name);
        assert_eq!(loaded.len_code_stream(), compact.len_code_stream(), "{}", profile.name);
        assert_eq!(loaded.far_stream(), compact.far_stream(), "{}", profile.name);
        assert_eq!(loaded.start_addr(), compact.start_addr(), "{}", profile.name);
        assert_eq!(loaded.tail_gap(), compact.tail_gap(), "{}", profile.name);
        // The store-loaded capture must replay to the exact same result
        // as the freshly generated trace (the warm-grid contract).
        let config = SimConfig::btb2_enabled();
        let direct = Simulator::run_config(&config, &gen);
        let replayed = Simulator::run_configs_compact_lanes(&[&config], &loaded).remove(0);
        assert_eq!(replayed.core, direct.core, "{}", profile.name);
    }
    // Profiles at this length stay within near-delta targets, so cover
    // the far-word escape encoding with a trace whose branch crosses
    // more than an i32 of address space.
    {
        use zbp::trace::{BranchKind, BranchRec, TraceInstr, VecTrace};
        let far_target = InstAddr::new(0x2_0000_0000);
        let v = vec![
            TraceInstr::plain(InstAddr::new(0x1000), 4),
            TraceInstr::branch(
                InstAddr::new(0x1004),
                4,
                BranchRec::taken(BranchKind::Unconditional, far_target),
            ),
            TraceInstr::plain(far_target, 4),
            TraceInstr::plain(far_target.add(4), 4),
        ];
        let gen = VecTrace::new("far-escape", v);
        let compact = CompactTrace::capture(&gen).expect("far jumps compact-encode");
        assert!(!compact.far_stream().is_empty(), "far target must use the escape stream");
        let key = TraceStoreKey::workload("far-escape", 1, 4);
        store.store(&key, &compact);
        let loaded = store.load(&key, Default::default()).expect("fresh entry hits");
        assert_eq!(loaded.far_stream(), compact.far_stream());
        assert_eq!(loaded.branch_points(), compact.branch_points());
        let config = SimConfig::btb2_enabled();
        let direct = Simulator::run_config(&config, &gen);
        let replayed = Simulator::run_configs_compact_lanes(&[&config], &loaded).remove(0);
        assert_eq!(replayed.core, direct.core);
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn footprint_tracks_target() {
    let mut rng = SmallRng::seed_from_u64(0x44);
    for _ in 0..12 {
        let sites = rng.random_range(1_000u32..6_000);
        let seed = rng.random_range(0u64..50);
        let taken = (sites as f64 * 0.6) as u32;
        let params = LayoutParams::for_footprint(sites, taken);
        let program = zbp::trace::gen::layout::Program::generate(&params, seed);
        let got = program.reachable_sites as f64;
        let want = sites as f64 / params.reachable_margin;
        assert!((got - want).abs() / want < 0.25, "reachable {} vs target {}", got, want);
    }
}
