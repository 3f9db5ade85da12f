//! The differential replay oracle: per-branch cross-checking of the
//! lane kernel against the record reference.
//!
//! Every grid cell is computed by the compact lane kernel
//! ([`LaneGroup`]); the per-record [`CoreModel::run`] is kept as its
//! reference. A final [`CoreResult`] comparison can miss transient
//! divergence that happens to cancel, and when it does fire it says
//! nothing about *where* the paths parted. A [`Reference`] replays a
//! trace through the record path once per lane, snapshotting the full
//! observable model state after every retired branch (the alignment
//! points both paths visit one by one); any candidate replay feeds its
//! own snapshots in through the lane kernel's observer, and the
//! **first** branch at which any observable of any lane differs is
//! reported. [`diff_replay`] does this for one whole compact replay;
//! chunked session rows use the same [`Reference`].
//!
//! Always compiled (no feature gate): the oracle is itself driven by
//! the `zbp-cli fuzz` harness and by unit tests, and costs nothing
//! unless called.

use crate::config::UarchConfig;
use crate::core::{CoreModel, CoreResult, LaneGroup, ReplayPlan};
use std::fmt;
use zbp_predictor::{PredictorConfig, PredictorStats};
use zbp_trace::compact::CompactTrace;
use zbp_trace::{InstAddr, Trace};

/// Full observable model state at one branch point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BranchSnapshot {
    /// Core cycle after the branch was charged.
    pub cycle: u64,
    /// Instructions retired so far.
    pub instructions: u64,
    /// Predictor engine clock.
    pub engine_cycle: u64,
    /// Lookahead search address.
    pub search_addr: InstAddr,
    /// The merged predictor counter block (bus + substructures).
    pub predictor: PredictorStats,
}

impl BranchSnapshot {
    /// Captures the observables of `model` at the current instant.
    pub fn capture(model: &CoreModel) -> Self {
        let p = model.predictor();
        Self {
            cycle: model.cycle(),
            instructions: model.instructions(),
            engine_cycle: p.engine_cycle(),
            search_addr: p.search_addr(),
            predictor: p.stats_snapshot(),
        }
    }

    /// Names the observables that differ between `self` and `other`
    /// (empty when equal).
    pub fn diff_fields(&self, other: &Self) -> Vec<&'static str> {
        let mut fields = Vec::new();
        if self.cycle != other.cycle {
            fields.push("cycle");
        }
        if self.instructions != other.instructions {
            fields.push("instructions");
        }
        if self.engine_cycle != other.engine_cycle {
            fields.push("engine_cycle");
        }
        if self.search_addr != other.search_addr {
            fields.push("search_addr");
        }
        if self.predictor != other.predictor {
            fields.push("predictor_stats");
        }
        fields
    }
}

/// How the lane kernel disagreed with the record reference.
#[derive(Debug, Clone, PartialEq)]
pub enum Divergence {
    /// Branch `index` (0-based, in retirement order) of lane `lane`
    /// produced different observable state.
    AtBranch {
        /// The lane that diverged.
        lane: usize,
        /// 0-based retirement index of the first diverging branch.
        index: usize,
        /// State the record replay observed.
        record: Box<BranchSnapshot>,
        /// State the compact replay observed.
        compact: Box<BranchSnapshot>,
    },
    /// The paths visited a different number of branch points.
    BranchCount {
        /// The lane that diverged.
        lane: usize,
        /// Branches the record replay retired.
        record: usize,
        /// Branches the compact replay retired.
        compact: usize,
    },
    /// Every per-branch snapshot matched but the final results differ
    /// (end-of-run drain or finalization divergence).
    FinalResult {
        /// The lane that diverged.
        lane: usize,
        /// Result of the record replay.
        record: Box<CoreResult>,
        /// Result of the compact replay.
        compact: Box<CoreResult>,
    },
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Divergence::AtBranch { lane, index, record, compact } => {
                write!(
                    f,
                    "lane {lane} diverged at branch #{index}: {:?} differ \
                     (record: cycle={} engine={} search={:?}; \
                     compact: cycle={} engine={} search={:?})",
                    record.diff_fields(compact),
                    record.cycle,
                    record.engine_cycle,
                    record.search_addr,
                    compact.cycle,
                    compact.engine_cycle,
                    compact.search_addr,
                )
            }
            Divergence::BranchCount { lane, record, compact } => {
                write!(
                    f,
                    "lane {lane} branch-point count diverged: record saw {record}, compact {compact}"
                )
            }
            Divergence::FinalResult { lane, record, compact } => {
                write!(
                    f,
                    "lane {lane}: per-branch states matched but final results differ \
                     (record: {} cycles / {} instructions; compact: {} cycles / {} instructions)",
                    record.cycles, record.instructions, compact.cycles, compact.instructions,
                )
            }
        }
    }
}

/// One lane of a [`Reference`]: the record replay's snapshots and
/// result, and how far the candidate has got through them.
#[derive(Debug, Clone)]
struct RecordLane {
    snaps: Vec<BranchSnapshot>,
    result: CoreResult,
    seen: usize,
}

/// The record reference of a multi-lane differential check, which a
/// candidate replay is checked against branch by branch. Cloning it
/// checks several candidates against one record replay.
#[derive(Debug, Clone)]
pub struct Reference {
    lanes: Vec<RecordLane>,
    divergence: Option<Divergence>,
}

impl Reference {
    /// Replays `trace` through the record path once per lane
    /// configuration, snapshotting every lane after each retired branch.
    pub fn record<T: Trace>(trace: &T, lanes: &[(UarchConfig, PredictorConfig)]) -> Self {
        let lanes = lanes
            .iter()
            .map(|(ucfg, pcfg)| {
                let mut snaps = Vec::new();
                let result = CoreModel::new(*ucfg, pcfg.clone())
                    .run_observed(trace, |m| snaps.push(BranchSnapshot::capture(m)));
                RecordLane { snaps, result, seen: 0 }
            })
            .collect();
        Self { lanes, divergence: None }
    }

    /// Checks the candidate's lane `lane` just after its next retired
    /// branch: the observer a [`LaneGroup`] replay feeds. Only the
    /// first divergence is kept.
    pub fn observe(&mut self, lane: usize, model: &CoreModel) {
        let rec = &mut self.lanes[lane];
        let index = rec.seen;
        rec.seen += 1;
        if self.divergence.is_some() {
            return;
        }
        let compact = BranchSnapshot::capture(model);
        if let Some(record) = rec.snaps.get(index).filter(|r| **r != compact) {
            self.divergence = Some(Divergence::AtBranch {
                lane,
                index,
                record: Box::new(record.clone()),
                compact: Box::new(compact),
            });
        }
    }

    /// Closes the check with the candidate's final results, in lane
    /// order. Returns the (identical) record results on agreement, or
    /// the first [`Divergence`] otherwise.
    ///
    /// # Errors
    ///
    /// [`Divergence`] describes the first disagreement.
    pub fn finish(self, results: &[CoreResult]) -> Result<Vec<CoreResult>, Divergence> {
        if let Some(d) = self.divergence {
            return Err(d);
        }
        assert_eq!(results.len(), self.lanes.len(), "one candidate result per lane");
        for (lane, (rec, compact)) in self.lanes.iter().zip(results).enumerate() {
            if rec.seen != rec.snaps.len() {
                return Err(Divergence::BranchCount {
                    lane,
                    record: rec.snaps.len(),
                    compact: rec.seen,
                });
            }
            if *compact != rec.result {
                return Err(Divergence::FinalResult {
                    lane,
                    record: Box::new(rec.result.clone()),
                    compact: Box::new(compact.clone()),
                });
            }
        }
        Ok(self.lanes.into_iter().map(|rec| rec.result).collect())
    }
}

/// Replays `trace` through the record path and through one
/// [`LaneGroup`] of every configuration in `lanes`, cross-checking every
/// lane after every retired branch.
///
/// Returns the (identical) record results, in lane order, on
/// agreement, or the first [`Divergence`] otherwise.
///
/// # Errors
///
/// [`Divergence`] describes the first disagreement between the paths.
///
/// # Panics
///
/// Panics if the trace is not compact-encodable (the synthetic
/// workload generators always are).
pub fn diff_replay<T: Trace>(
    trace: &T,
    lanes: &[(UarchConfig, PredictorConfig)],
) -> Result<Vec<CoreResult>, Divergence> {
    let compact = CompactTrace::capture(trace).expect("trace must be compact-encodable");
    let mut reference = Reference::record(trace, lanes);
    let mut group = LaneGroup::new(
        lanes.iter().map(|(ucfg, pcfg)| CoreModel::new(*ucfg, pcfg.clone())).collect(),
    );
    group.replay(&compact, ReplayPlan::Whole, |lane, model, _| reference.observe(lane, model));
    reference.finish(&group.finish(compact.name()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use zbp_trace::profile::WorkloadProfile;

    #[test]
    fn replay_paths_agree_on_synthetic_workloads() {
        let lanes = [
            (UarchConfig::zec12(), PredictorConfig::zec12()),
            (UarchConfig::zec12(), PredictorConfig::no_btb2()),
        ];
        for profile in [WorkloadProfile::tpf_airline(), WorkloadProfile::zos_lspr_cb84()] {
            let trace = profile.build_with_len(0xEC12, 20_000);
            let r = diff_replay(&trace, &lanes).unwrap_or_else(|d| panic!("{}: {d}", trace.name()));
            assert_eq!(r.len(), 2);
            assert!(r.iter().all(|r| r.instructions == 20_000));
        }
    }

    #[test]
    fn a_perturbed_candidate_is_caught_at_its_first_branch() {
        let trace = WorkloadProfile::tpf_airline().build_with_len(7, 6_000);
        let lanes = [(UarchConfig::zec12(), PredictorConfig::zec12())];
        let compact = CompactTrace::capture(&trace).unwrap();
        // A candidate one cycle off from its 100th branch on.
        let mut reference = Reference::record(&trace, &lanes);
        let mut branches = 0usize;
        let mut group = LaneGroup::new(vec![CoreModel::new(lanes[0].0, lanes[0].1.clone())]);
        group.replay(&compact, ReplayPlan::Whole, |lane, model, _| {
            branches += 1;
            if branches <= 100 {
                reference.observe(lane, model);
            } else {
                // A fresh model: nothing like the reference's state.
                reference.observe(lane, &CoreModel::new(lanes[0].0, lanes[0].1.clone()));
            }
        });
        match reference.finish(&group.finish(compact.name())) {
            Err(Divergence::AtBranch { lane: 0, index: 100, .. }) => {}
            other => panic!("expected a divergence at branch #100, got {other:?}"),
        }
        // A candidate that reports no branches is caught by its count.
        let reference = Reference::record(&trace, &lanes);
        let full = CoreModel::new(lanes[0].0, lanes[0].1.clone()).run(&trace);
        assert!(matches!(
            reference.finish(&[full]),
            Err(Divergence::BranchCount { lane: 0, compact: 0, .. })
        ));
    }

    #[test]
    fn snapshot_diffs_name_the_diverged_field() {
        let trace = WorkloadProfile::tpf_airline().build_with_len(3, 5_000);
        let model = CoreModel::new(UarchConfig::zec12(), PredictorConfig::zec12());
        let mut snap = None;
        model.run_observed(&trace, |m| {
            if snap.is_none() {
                snap = Some(BranchSnapshot::capture(m));
            }
        });
        let a = snap.expect("trace has branches");
        assert!(a.diff_fields(&a).is_empty());
        let mut b = a.clone();
        b.cycle += 1;
        b.engine_cycle += 1;
        assert_eq!(a.diff_fields(&b), vec!["cycle", "engine_cycle"]);
    }
}
