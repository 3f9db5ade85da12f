//! Allocation probe for the decode-once lane replay walk.
//!
//! [`LaneGroup`] reuses its per-line-size span scratch, window marks and
//! window measures across runs and calls, and every structure a lane
//! touches during replay (predictor tables, I-cache, classifier map)
//! reaches steady-state capacity within one pass over a trace. This
//! test pins the lane walk at zero allocations per replay, whole and
//! windowed, with a counting `#[global_allocator]`: after a warm-up
//! replay, a second replay of the same trace and plan through the same
//! group must not touch the heap at all.
//!
//! The file deliberately contains a single `#[test]` so no concurrent
//! test shares (and perturbs) the process-global counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use zbp_predictor::PredictorConfig;
use zbp_trace::profile::WorkloadProfile;
use zbp_trace::{CompactTrace, Trace};
use zbp_uarch::core::{CoreModel, LaneGroup, ReplayPlan};
use zbp_uarch::UarchConfig;

/// Counts every allocation-side call; deallocations are free to happen
/// (the property we pin is "no new heap memory per replay").
struct CountingAlloc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

#[test]
fn lane_replay_steady_state_performs_zero_allocations() {
    let trace = WorkloadProfile::tpf_airline().build_with_len(7, 30_000);
    let compact = CompactTrace::capture(&trace).expect("generator streams encode");
    let lanes = vec![
        CoreModel::new(UarchConfig::zec12(), PredictorConfig::zec12()),
        CoreModel::new(UarchConfig::zec12(), PredictorConfig::no_btb2()),
        CoreModel::new(UarchConfig::zec12(), PredictorConfig::large_btb1()),
    ];
    let mut group = LaneGroup::new(lanes);
    let windows = [(2_000u64, 3_000u64), (12_000, 5_000), (25_000, 4_000)];
    let plans = [ReplayPlan::Whole, ReplayPlan::Windows { windows: &windows, warmup: 1_000 }];

    for plan in plans {
        // Warm-up: one replay grows the span scratch, the window
        // measures, the predictor queues and the classifier map to
        // steady-state capacity.
        group.replay(&compact, plan, |_, _, _| {});

        let before = ALLOC_CALLS.load(Ordering::Relaxed);
        group.replay(&compact, plan, |_, _, _| {});
        let after = ALLOC_CALLS.load(Ordering::Relaxed);

        assert_eq!(
            after - before,
            0,
            "{plan:?} lane replay allocated {} time(s) over {} instructions; \
             the steady-state walk must be allocation-free",
            after - before,
            trace.len(),
        );
        let measured = if plan == ReplayPlan::Whole { 1 } else { windows.len() };
        assert_eq!(group.measures(0).len(), measured, "{plan:?}");
    }

    // The group still finalizes into one result per lane (finish() is
    // allowed to allocate — it snapshots stats and names).
    let results = group.finish(compact.name());
    assert_eq!(results.len(), 3);
    // Two whole replays, then two windowed ones that model only their
    // windows and warmups.
    let windowed = results[0].instructions - 2 * 30_000;
    assert!((2 * 15_000..2 * 17_000).contains(&windowed), "windowed replays modelled {windowed}");
}
