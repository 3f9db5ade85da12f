//! The complete two-level bulk preload branch predictor.
//!
//! [`BranchPredictor`] is the composition root: it owns the
//! [`SearchEngine`] (control flow + clock), the [`Structures`] of
//! Figure 1 (content) and the [`StatsBus`] (counters), and dispatches
//! [`PredictorEvent`]s between them. The trace simulator drives it with
//! these events — via [`BranchPredictor::handle`] directly, or through
//! the typed convenience wrappers:
//!
//! * [`BranchPredictor::restart`] — a pipeline restart (mispredicted
//!   branch, surprise redirect): search resumes at the given address;
//! * [`BranchPredictor::predict_branch`] — the front-end reached a branch
//!   instruction; the engine accounts for the sequential searches that
//!   led to it (driving perceived-miss detection on the way), performs
//!   the first-level lookup, applies PHT/CTB overrides, promotes BTBP
//!   hits into the BTB1 and returns a [`Prediction`];
//! * [`BranchPredictor::resolve`] — the branch resolved; direction and
//!   target state trains, surprise installs write the BTBP + BTB2;
//! * [`BranchPredictor::note_icache_miss`] / [`BranchPredictor::note_completion`]
//!   — feed the §3.5 filter and the §3.7 ordering table.
//!
//! The engine keeps its own clock (`pred_cycle`): sequential searches,
//! re-index costs and bulk-transfer latencies all advance it per Table 1,
//! and a prediction is *in time* only if its broadcast beats the decode
//! cycle the simulator supplies — otherwise the branch is a latency
//! surprise at the core even though the entry was present.

use crate::config::PredictorConfig;
use crate::engine::{SearchEngine, Structures};
use crate::entry::BtbEntry;
use crate::events::PredictorEvent;
use crate::stats::PredictorStats;
use crate::statsbus::StatsBus;
use zbp_trace::{InstAddr, TraceInstr};

pub use crate::events::{PredSource, Prediction};

/// The two-level bulk preload branch predictor (see the module docs).
#[derive(Debug, Clone)]
pub struct BranchPredictor {
    cfg: PredictorConfig,
    engine: SearchEngine,
    pub(crate) structures: Structures,
    bus: StatsBus,
}

impl BranchPredictor {
    /// Creates a predictor in the given configuration.
    pub fn new(cfg: PredictorConfig) -> Self {
        assert!(
            !(cfg.btb2.is_some() && cfg.phantom.is_some()),
            "the BTB2 and the phantom BTB are alternative second levels"
        );
        Self {
            engine: SearchEngine::new(&cfg),
            structures: Structures::new(&cfg),
            bus: StatsBus::new(),
            cfg,
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &PredictorConfig {
        &self.cfg
    }

    /// Dispatches one [`PredictorEvent`] into the search engine. Returns
    /// a [`Prediction`] for [`PredictorEvent::PredictBranch`], `None`
    /// otherwise.
    pub fn handle(&mut self, event: PredictorEvent<'_>) -> Option<Prediction> {
        self.engine.handle(event, &self.cfg, &mut self.structures, &mut self.bus)
    }

    /// Restarts the lookahead search at `addr` at `cycle` (pipeline
    /// restart after a misprediction or surprise redirect).
    pub fn restart(&mut self, addr: InstAddr, cycle: u64) {
        self.handle(PredictorEvent::Restart { addr, cycle });
    }

    /// Asks the first level about branch `instr`, whose decode happens at
    /// `decode_cycle`.
    pub fn predict_branch(&mut self, instr: &TraceInstr, decode_cycle: u64) -> Prediction {
        self.handle(PredictorEvent::PredictBranch { instr, decode_cycle })
            .expect("PredictBranch always yields a prediction")
    }

    /// Resolves a branch: trains direction and target state and performs
    /// surprise installs. Call after [`Self::predict_branch`] for the
    /// same instruction, with `cycle` the resolution time.
    pub fn resolve(&mut self, instr: &TraceInstr, pred: &Prediction, cycle: u64) {
        self.handle(PredictorEvent::Resolve { instr, prediction: pred, cycle });
    }

    /// Reports an L1 I-cache miss for the fetch of `addr` (the §3.5
    /// filter input).
    pub fn note_icache_miss(&mut self, addr: InstAddr, cycle: u64) {
        self.handle(PredictorEvent::ICacheMiss { addr, cycle });
    }

    /// Records an instruction completion (drives the ordering table).
    pub fn note_completion(&mut self, addr: InstAddr) {
        self.handle(PredictorEvent::Completion { addr });
    }

    /// Records a completed run of sequential instructions `first..=last`
    /// in one batched event — bit-identical to per-instruction
    /// [`Self::note_completion`] calls as long as the span stays within
    /// one 4 KB block (see [`PredictorEvent::CompletionRun`]).
    pub fn note_completion_run(&mut self, first: InstAddr, last: InstAddr) {
        self.handle(PredictorEvent::CompletionRun { first, last });
    }

    /// §3.4 alternative miss definition: decode encountered a surprise
    /// branch. Reports a perceived BTB1 miss when the configuration's
    /// [`MissDetection`](crate::miss::MissDetection) enables decode-stage
    /// detection and the surprise was statically guessed taken (the
    /// less-speculative, later indication the paper describes).
    pub fn note_decode_surprise(&mut self, addr: InstAddr, cycle: u64, guessed_taken: bool) {
        self.handle(PredictorEvent::DecodeSurprise { addr, cycle, guessed_taken });
    }

    /// Hints the CPU caches toward the BTB rows a lookup of `addr` will
    /// scan. Purely a performance hint with no architectural effect —
    /// replay issues it while walking the instruction run preceding the
    /// branch, so the row loads overlap the decode instead of stalling
    /// the prediction.
    #[inline]
    pub fn prefetch(&self, addr: InstAddr) {
        self.structures.prefetch(addr);
    }

    /// Processes transfer returns due by `cycle` (called internally ahead
    /// of every lookup; exposed for the simulator's end-of-run drain).
    pub fn advance_transfers(&mut self, cycle: u64) {
        self.engine.advance_transfers(cycle, &self.cfg, &mut self.structures, &mut self.bus);
    }

    /// Runs the end-of-run audit (the `audit` feature): counters
    /// reconcile with the event stream, the transfer queue is fully
    /// drained and accounted, and every structure passes a structural
    /// sweep. Call after the final [`Self::advance_transfers`] drain.
    ///
    /// # Panics
    ///
    /// Panics with a description of the violated invariant.
    #[cfg(feature = "audit")]
    pub fn audit_check(&self) {
        self.engine.audit_final(&self.structures, &self.bus);
    }

    /// Models a branch preload instruction: software writes prediction
    /// content directly into the BTBP (one of the BTBP's write sources in
    /// Figure 1).
    pub fn preload(&mut self, entry: BtbEntry, cycle: u64) {
        self.structures.btbp.insert(entry, cycle);
    }

    /// Seeds the BTB2 directly (test/experiment warm-start helper; the
    /// hardware fills the BTB2 through surprise installs and victims).
    pub fn seed_btb2(&mut self, entry: BtbEntry) {
        if let Some(btb2) = &mut self.structures.btb2 {
            btb2.insert(entry, 0);
        }
    }

    /// Where an address currently resides in the hierarchy, if anywhere.
    /// Diagnostic helper for tests and experiments.
    pub fn locate(&self, addr: InstAddr) -> Option<&'static str> {
        let s = &self.structures;
        if s.btb1.lookup(addr, u64::MAX).is_some() {
            Some("btb1")
        } else if s.btbp.lookup(addr, u64::MAX).is_some() {
            Some("btbp")
        } else if s.btb2.as_ref().is_some_and(|b| b.lookup(addr, u64::MAX).is_some()) {
            Some("btb2")
        } else {
            None
        }
    }

    /// Engine clock (cycle of the next b0 index).
    pub fn engine_cycle(&self) -> u64 {
        self.engine.cycle()
    }

    /// Current search address of the lookahead engine.
    pub fn search_addr(&self) -> InstAddr {
        self.engine.search_addr()
    }

    /// The statistics bus (counters and histograms).
    pub fn bus(&self) -> &StatsBus {
        &self.bus
    }

    /// Mutable access to the statistics bus: layers above the predictor
    /// (the core model) account their counters on the same sink.
    pub fn bus_mut(&mut self) -> &mut StatsBus {
        &mut self.bus
    }

    /// Current statistics: the bus's scalar counters merged with the
    /// tracker / transfer / phantom substructure counters.
    pub fn stats(&self) -> PredictorStats {
        let mut s = self.bus.predictor_stats();
        s.tracker = self.structures.trackers.stats;
        s.transfer = self.structures.transfer.stats;
        if let Some(phantom) = &self.structures.phantom {
            s.phantom = phantom.stats;
        }
        s
    }

    /// Merged tracker + transfer statistics snapshot (alias of
    /// [`Self::stats`], kept for the simulator's reporting path).
    pub fn stats_snapshot(&self) -> PredictorStats {
        self.stats()
    }
}
