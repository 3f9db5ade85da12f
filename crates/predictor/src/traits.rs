//! Behavioural traits of the prediction structures.
//!
//! Each trait here has more than one implementor chosen at run time:
//!
//! * [`DirectionPredictor`] — the direction-prediction backend deciding
//!   each first-level hit's direction and target override (the paper's
//!   PHT/CTB stack, or an alternative from [`crate::direction`]);
//! * [`SteeringPolicy`] — how a full bulk search orders its 32 sectors
//!   ([`OrderingTable`] when steering is on, [`SequentialSteering`]
//!   otherwise).
//!
//! The BTB levels and the §3.3 exclusivity policy have one
//! implementation each, so the engine calls
//! [`BtbArray`](crate::btb::BtbArray) and
//! [`ExclusivityPolicy`](crate::exclusive::ExclusivityPolicy) directly.

use crate::direction::AuxStack;
use crate::entry::BtbEntry;
use crate::history::PathHistory;
use crate::statsbus::{Counter, StatsBus};
use crate::steering::OrderingTable;
use zbp_trace::addr::SECTORS_PER_QUARTILE;
use zbp_trace::{BranchKind, InstAddr};

/// A direction backend's verdict for one first-level hit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DirDecision {
    /// The predicted direction, before the engine's opcode override for
    /// unconditional branch kinds.
    pub taken: bool,
    /// Whether a backend direction structure beyond the entry's bimodal
    /// state supplied the direction (gates the paper's PHT retraining).
    pub used_dir: bool,
}

/// Everything a backend sees when training on a resolved, dynamically
/// predicted branch.
#[derive(Debug, Clone, Copy)]
pub struct TrainingContext {
    /// Branch instruction address.
    pub addr: InstAddr,
    /// Resolved direction.
    pub taken: bool,
    /// Resolved target.
    pub target: InstAddr,
    /// Branch kind (opcode class).
    pub kind: BranchKind,
    /// Whether the BTB entry's bimodal counter mispredicted a
    /// conditional's direction.
    pub bht_mispredicted: bool,
    /// Whether the BTB entry's stored target was wrong for a taken
    /// resolution.
    pub target_mispredicted: bool,
    /// The prediction's [`DirDecision::used_dir`].
    pub used_dir: bool,
    /// Whether the CTB supplied the predicted target.
    pub used_ctb: bool,
}

/// A pluggable direction-prediction backend.
///
/// The search engine owns search control, BTB content and the
/// surprise/install paths; the backend owns everything that decides and
/// trains a *direction*. Every backend embeds an [`AuxStack`] — CTB,
/// surprise BHT and global path history — exposed through
/// [`Self::aux`], which lets the shared surprise-guess and
/// target-override behaviour live here as provided methods while
/// backends differ only in direction logic.
///
/// Call protocol per branch (enforced by the engine): `static_guess`
/// and, on a first-level hit, `predict` and `target_override` at
/// prediction time; then `begin_resolve`, `train`/`train_target` (hits
/// only) and `finish_resolve` at resolution time. The core model
/// resolves every branch before the next prediction, so a backend may
/// recompute prediction-time indices during resolution.
pub trait DirectionPredictor {
    /// The shared auxiliary stack (CTB, surprise BHT, path history).
    fn aux(&self) -> &AuxStack;

    /// Mutable access to the shared auxiliary stack.
    fn aux_mut(&mut self) -> &mut AuxStack;

    /// Decides the direction of a first-level hit.
    fn predict(&mut self, entry: &BtbEntry, addr: InstAddr, bus: &mut StatsBus) -> DirDecision;

    /// Trains direction state for a resolved, dynamically predicted
    /// branch (the paper backend retrains its PHT here; backends that
    /// train on every resolution use [`Self::finish_resolve`] instead).
    fn train(&mut self, cx: &TrainingContext, bus: &mut StatsBus);

    /// Per-resolution epilogue, run for *every* resolved branch —
    /// dynamic or surprise — after training: own-history updates, tables
    /// that learn from all resolutions, and the shared path-history
    /// push.
    fn finish_resolve(&mut self, addr: InstAddr, taken: bool, kind: BranchKind, bus: &mut StatsBus);

    /// Static direction guess for a surprise branch (shared: tagless
    /// BHT plus opcode).
    fn static_guess(&self, addr: InstAddr, kind: BranchKind) -> bool {
        self.aux().surprise_bht.guess(addr, kind)
    }

    /// First resolution step, run for every resolved branch before any
    /// training: the surprise BHT learns all outcomes.
    fn begin_resolve(&mut self, addr: InstAddr, taken: bool) {
        self.aux_mut().surprise_bht.update(addr, taken);
    }

    /// The predicted target of a first-level hit: the entry's stored
    /// target, possibly overridden by the shared CTB. Returns the
    /// target and whether the CTB supplied it.
    fn target_override(
        &self,
        entry: &BtbEntry,
        addr: InstAddr,
        bus: &mut StatsBus,
    ) -> (InstAddr, bool) {
        let mut target = entry.target;
        let mut used_ctb = false;
        if entry.use_ctb {
            let aux = self.aux();
            let idx = aux.history.ctb_index(aux.ctb.len());
            if let Some(t) = aux.ctb.lookup(idx, PathHistory::tag_for(addr)) {
                used_ctb = true;
                if t != entry.target {
                    bus.bump(Counter::CtbOverrides);
                }
                target = t;
            }
        }
        (target, used_ctb)
    }

    /// Trains the shared CTB toward a resolved target (taken
    /// changing-target branches that mispredicted or used the CTB).
    fn train_target(&mut self, cx: &TrainingContext) {
        if cx.taken && (cx.target_mispredicted || cx.used_ctb) && cx.kind.has_changing_target() {
            let aux = self.aux_mut();
            let idx = aux.history.ctb_index(aux.ctb.len());
            aux.ctb.update(idx, PathHistory::tag_for(cx.addr), cx.target);
        }
    }
}

/// Orders the 32 sectors of a full bulk search.
pub trait SteeringPolicy {
    /// Sector search order for `block`, entered at `entry`.
    fn search_order(&self, block: u64, entry: InstAddr) -> Vec<u32> {
        let mut order = Vec::with_capacity(32);
        self.search_order_into(block, entry, &mut order);
        order
    }

    /// Clears `out` and fills it with the sector search order. The
    /// transfer schedule path reuses one buffer across searches, so
    /// implementations should not allocate.
    fn search_order_into(&self, block: u64, entry: InstAddr, out: &mut Vec<u32>);
}

impl SteeringPolicy for OrderingTable {
    fn search_order_into(&self, block: u64, entry: InstAddr, out: &mut Vec<u32>) {
        OrderingTable::search_order_into(self, block, entry, out);
    }
}

/// The unsteered fallback: all 32 sectors sequentially, starting at the
/// demand quartile.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SequentialSteering;

impl SteeringPolicy for SequentialSteering {
    fn search_order_into(&self, _block: u64, entry: InstAddr, out: &mut Vec<u32>) {
        out.clear();
        let start = entry.quartile() * SECTORS_PER_QUARTILE;
        out.extend((0..32).map(|i| (start + i) % 32));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_steering_starts_at_the_demand_quartile() {
        let order = SequentialSteering.search_order(0, InstAddr::new(3 * 1024));
        assert_eq!(order.len(), 32);
        assert_eq!(order[0], InstAddr::new(3 * 1024).quartile() * SECTORS_PER_QUARTILE);
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..32).collect::<Vec<u32>>(), "every sector exactly once");
    }
}
