//! The asynchronous lookahead search engine.
//!
//! [`SearchEngine`] owns the predictor's control flow and its clock
//! (`pred_cycle`): the per-cycle sequential search loop, Table 1
//! re-index costs, perceived-miss detection, bulk-transfer returns and
//! the BTBP→BTB1 promotion path. It holds *no* prediction content — the
//! structures live in [`Structures`] and are threaded into every
//! dispatch, so the engine reads as pure control logic. It calls the
//! BTB levels directly and reaches the direction backend and the sector
//! steering through the traits in [`crate::traits`].
//!
//! [`SearchEngine::handle`] consumes one [`PredictorEvent`] and is the
//! single entry point; the composition root
//! ([`BranchPredictor`](crate::hierarchy::BranchPredictor)) wraps it in
//! typed convenience methods.

use std::collections::VecDeque;

use crate::btb::BtbArray;
use crate::config::PredictorConfig;
use crate::direction::DirectionBackend;
use crate::entry::BtbEntry;
use crate::events::{PredSource, Prediction, PredictorEvent};
use crate::fit::Fit;
use crate::miss::MissDetector;
use crate::phantom::PhantomBtb;
use crate::pipeline::TakenClass;
use crate::statsbus::{Counter, Sample, StatsBus};
use crate::steering::OrderingTable;
use crate::tracker::{SearchKind, SearchRequest, TrackerFile};
use crate::traits::{DirectionPredictor, SequentialSteering, SteeringPolicy, TrainingContext};
use crate::transfer::TransferEngine;
use zbp_trace::addr::{BLOCK_BYTES, LINE_BYTES, SECTOR_BYTES};
use zbp_trace::{InstAddr, TraceInstr};

/// The prediction structures of Figure 1, owned separately from the
/// engine so control flow and content can be borrowed independently.
#[derive(Debug, Clone)]
pub struct Structures {
    /// The main first-level BTB (1 k rows × 4 ways).
    pub btb1: BtbArray,
    /// The preload table read in parallel with the BTB1.
    pub btbp: BtbArray,
    /// The bulk second level, when configured.
    pub btb2: Option<BtbArray>,
    /// The configured direction backend: direction decisions, target
    /// overrides, the surprise BHT and the path history all live behind
    /// [`DirectionPredictor`].
    pub direction: DirectionBackend,
    /// Fast index table (accelerated taken re-index).
    pub fit: Fit,
    /// Perceived-miss trackers (§3.5 filter).
    pub trackers: TrackerFile,
    /// The BTB2 row-transfer engine.
    pub transfer: TransferEngine,
    /// The §3.7 sector ordering (steering) table.
    pub ordering: OrderingTable,
    /// Comparison baseline: the virtualized (phantom) second level.
    pub phantom: Option<PhantomBtb>,
}

impl Structures {
    /// Builds every structure from the configuration.
    pub fn new(cfg: &PredictorConfig) -> Self {
        Self {
            btb1: BtbArray::new(cfg.btb1),
            btbp: BtbArray::new(cfg.btbp),
            btb2: cfg.btb2.map(BtbArray::new),
            direction: DirectionBackend::new(cfg),
            fit: Fit::new(cfg.fit_entries),
            trackers: TrackerFile::new(cfg.trackers, cfg.filter_mode, cfg.timing.miss_to_btb2),
            transfer: TransferEngine::new(cfg.timing.btb2_latency),
            ordering: OrderingTable::new(cfg.ordering_entries, cfg.ordering_ways),
            phantom: cfg.phantom.map(PhantomBtb::new),
        }
    }

    /// Hints the CPU caches toward the BTB rows a lookup of `addr` will
    /// scan (see [`BtbArray::prefetch`]). Purely a performance hint.
    #[inline]
    pub fn prefetch(&self, addr: InstAddr) {
        self.btb1.prefetch(addr);
        self.btbp.prefetch(addr);
        if let Some(btb2) = &self.btb2 {
            btb2.prefetch(addr);
        }
    }
}

/// The event-driven lookahead search engine (see the module docs).
#[derive(Debug, Clone)]
pub struct SearchEngine {
    /// Next search address of the lookahead engine.
    search_addr: InstAddr,
    /// Engine clock: cycle of the next b0 index.
    pred_cycle: u64,
    /// Last taken-predicted branch (tight-loop detection).
    last_taken_addr: Option<InstAddr>,
    /// Line of an immediately preceding not-taken prediction (second
    /// simultaneous not-taken discount).
    last_not_taken_line: Option<u64>,
    /// Perceived-miss run detector.
    miss: MissDetector,
    /// Blocks recently reached through multi-block transfer chaining
    /// (bounds chain depth to one, per §6's bandwidth warning).
    chained_blocks: VecDeque<u64>,
    /// Phantom prefetches in flight: (visible cycle, entry), monotonic.
    phantom_pending: VecDeque<(u64, BtbEntry)>,
    /// Reusable row buffer for bulk-transfer reads: cleared and refilled
    /// per row by [`BtbArray::entries_in_line_into`], so the hot
    /// transfer loop performs no per-row heap allocation.
    line_scratch: Vec<BtbEntry>,
    /// Reusable sector-order buffer for [`Self::schedule_request`].
    order_scratch: Vec<u32>,
    /// Reusable line-list buffer for [`Self::schedule_request`].
    lines_scratch: Vec<u64>,
    /// Structural-invariant auditor (the `audit` feature): checks every
    /// invariant in [`crate::audit`] after each dispatched event.
    #[cfg(feature = "audit")]
    auditor: crate::audit::StructureAuditor,
}

impl SearchEngine {
    /// Creates an idle engine (search at address 0, cycle 0).
    pub fn new(cfg: &PredictorConfig) -> Self {
        Self {
            search_addr: InstAddr::new(0),
            pred_cycle: 0,
            last_taken_addr: None,
            last_not_taken_line: None,
            miss: MissDetector::new(cfg.miss_search_limit),
            chained_blocks: VecDeque::with_capacity(16),
            phantom_pending: VecDeque::new(),
            line_scratch: Vec::with_capacity(8),
            order_scratch: Vec::with_capacity(32),
            lines_scratch: Vec::with_capacity(128),
            #[cfg(feature = "audit")]
            auditor: crate::audit::StructureAuditor::new(),
        }
    }

    /// Engine clock (cycle of the next b0 index).
    pub fn cycle(&self) -> u64 {
        self.pred_cycle
    }

    /// Current search address of the lookahead engine.
    pub fn search_addr(&self) -> InstAddr {
        self.search_addr
    }

    /// Dispatches one event against the structures, returning a
    /// [`Prediction`] for [`PredictorEvent::PredictBranch`] and `None`
    /// for every other event.
    pub fn handle(
        &mut self,
        event: PredictorEvent<'_>,
        cfg: &PredictorConfig,
        s: &mut Structures,
        bus: &mut StatsBus,
    ) -> Option<Prediction> {
        let result = match event {
            PredictorEvent::Restart { addr, cycle } => {
                self.restart(addr, cycle);
                None
            }
            PredictorEvent::PredictBranch { instr, decode_cycle } => {
                Some(self.predict(instr, decode_cycle, cfg, s, bus))
            }
            PredictorEvent::Resolve { instr, prediction, cycle } => {
                self.resolve(instr, prediction, cycle, cfg, s, bus);
                None
            }
            PredictorEvent::ICacheMiss { addr, cycle } => {
                self.icache_miss(addr, cycle, cfg, s);
                None
            }
            PredictorEvent::Completion { addr } => {
                if s.btb2.is_some() {
                    s.ordering.note_completion(addr);
                }
                None
            }
            PredictorEvent::CompletionRun { first, last } => {
                if s.btb2.is_some() {
                    // One notification per 128 B sector the run spans.
                    // `note_completion` is idempotent within a sector
                    // (same block, sector and quartile marks), so this
                    // collapses the per-instruction calls losslessly;
                    // the sector-base address carries the identical
                    // block/sector/quartile indices as any instruction
                    // inside the sector.
                    let first_sec = first.raw() / SECTOR_BYTES;
                    let last_sec = last.raw() / SECTOR_BYTES;
                    for sec in first_sec..=last_sec {
                        s.ordering.note_completion(InstAddr::new(sec * SECTOR_BYTES));
                    }
                }
                None
            }
            PredictorEvent::DecodeSurprise { addr, cycle, guessed_taken } => {
                self.decode_surprise(addr, cycle, guessed_taken, cfg, s, bus);
                None
            }
        };
        #[cfg(feature = "audit")]
        self.audit_after_event(&event, &result, s, bus);
        result
    }

    /// Post-event audit hook (the `audit` feature): event-scoped §3.3
    /// postconditions, counter reconciliation, transfer-queue
    /// conservation and the periodic structural sweep — see
    /// [`crate::audit`] for what each invariant encodes.
    #[cfg(feature = "audit")]
    fn audit_after_event(
        &mut self,
        event: &PredictorEvent<'_>,
        result: &Option<Prediction>,
        s: &Structures,
        bus: &StatsBus,
    ) {
        use crate::audit;
        match *event {
            PredictorEvent::PredictBranch { instr, .. } => {
                if let Some(source) = result.as_ref().and_then(|p| p.source) {
                    // A first-level hit leaves the entry MRU in the BTB1
                    // (made MRU in place, or promoted out of the BTBP as
                    // a fresh MRU insert)...
                    audit::assert_mru(&s.btb1, instr.addr, "post-predict BTB1");
                    // ...and a promotion removes the BTBP copy.
                    if source == PredSource::Btbp {
                        audit::assert_absent(&s.btbp, instr.addr, "post-promotion BTBP");
                    }
                }
            }
            PredictorEvent::Resolve { instr, prediction, .. } => {
                let branch = instr.branch.expect("resolve requires a branch instruction");
                if !prediction.present() && branch.taken {
                    // A surprise install writes the BTBP (and the BTB2,
                    // when configured) as MRU.
                    audit::assert_mru(&s.btbp, instr.addr, "post-surprise-install BTBP");
                    if let Some(btb2) = &s.btb2 {
                        audit::assert_mru(btb2, instr.addr, "post-surprise-install BTB2");
                    }
                }
            }
            _ => {}
        }
        let sweep_due =
            self.auditor.note_event(matches!(event, PredictorEvent::PredictBranch { .. }));
        self.auditor.check_counters(bus);
        self.auditor.check_queue(s);
        if sweep_due {
            audit::sweep(s);
        }
    }

    /// End-of-run audit (the `audit` feature): counters reconcile, the
    /// transfer queue is fully drained and accounted, and every
    /// structure passes a final sweep. The composition root calls this
    /// after the end-of-run transfer drain.
    #[cfg(feature = "audit")]
    pub fn audit_final(&self, s: &Structures, bus: &StatsBus) {
        self.auditor.check_counters(bus);
        self.auditor.check_queue_drained(s);
        crate::audit::sweep(s);
    }

    /// Restarts the lookahead search at `addr` at `cycle` (pipeline
    /// restart after a misprediction or surprise redirect).
    fn restart(&mut self, addr: InstAddr, cycle: u64) {
        self.search_addr = addr;
        // The engine abandons its current path and re-indexes at the
        // restart time — even if its old search had run further ahead.
        self.pred_cycle = cycle;
        self.last_taken_addr = None;
        self.last_not_taken_line = None;
        self.miss.reset(addr);
    }

    /// Asks the first level about branch `instr`, whose decode happens
    /// at `decode_cycle`. Advances the engine over the sequential
    /// searches separating it from the branch (perceived-miss detection
    /// runs there), performs the parallel BTB1/BTBP lookup, applies
    /// PHT/CTB overrides and BTBP→BTB1 promotion, and returns the
    /// outcome.
    fn predict(
        &mut self,
        instr: &TraceInstr,
        decode_cycle: u64,
        cfg: &PredictorConfig,
        s: &mut Structures,
        bus: &mut StatsBus,
    ) -> Prediction {
        let addr = instr.addr;
        let branch = instr.branch.expect("predict_branch requires a branch instruction");
        // Finite lookahead buffering: the engine never runs more than
        // max_lead_cycles ahead of decode.
        self.pred_cycle = self.pred_cycle.max(decode_cycle.saturating_sub(cfg.max_lead_cycles));
        // Defensive resync: the engine can never legitimately be past the
        // branch the front end is decoding, nor absurdly far behind it
        // (an unreported stream discontinuity) — real hardware would have
        // been restarted long before grinding megabytes of searches.
        if self.search_addr > addr || addr.line() - self.search_addr.line() > 4096 {
            self.search_addr = addr.line_base();
            self.miss.reset(self.search_addr);
        }
        // Sequential searches up to the branch's line.
        let target_line = addr.line();
        while self.search_addr.line() < target_line {
            self.advance_transfers(self.pred_cycle, cfg, s, bus);
            self.fruitless_row(cfg, s, bus);
            let next_line_start = self.search_addr.line_base().add(LINE_BYTES);
            self.search_addr = next_line_start;
        }
        self.advance_transfers(self.pred_cycle, cfg, s, bus);

        let hit = s
            .btb1
            .lookup(addr, self.pred_cycle)
            .map(|h| (h, PredSource::Btb1))
            .or_else(|| s.btbp.lookup(addr, self.pred_cycle).map(|h| (h, PredSource::Btbp)));

        let Some((hit, source)) = hit else {
            // Surprise: this row search found nothing.
            self.fruitless_row(cfg, s, bus);
            self.search_addr = instr.fallthrough();
            self.last_taken_addr = None;
            self.last_not_taken_line = None;
            bus.bump(Counter::Surprises);
            return Prediction {
                source: None,
                taken: false,
                target: None,
                ready_cycle: u64::MAX,
                in_time: false,
                static_guess_taken: s.direction.static_guess(addr, branch.kind),
                used_dir: false,
                used_ctb: false,
            };
        };

        let entry = hit.entry;
        // Direction: decided by the configured backend.
        let decision = s.direction.predict(&entry, addr, bus);
        let mut taken = decision.taken;
        if !branch.kind.is_conditional() {
            // Opcode-unconditional kinds always redirect.
            taken = true;
        }
        // Target: the entry's, possibly overridden by the shared CTB.
        let (target, used_ctb) = s.direction.target_override(&entry, addr, bus);

        // Table 1 throughput accounting.
        let cost = if taken {
            let class = if self.last_taken_addr == Some(addr) {
                bus.bump(Counter::TightLoopPredictions);
                TakenClass::TightLoop
            } else if s.fit.contains(addr) {
                bus.bump(Counter::FitPredictions);
                TakenClass::Fit
            } else if source == PredSource::Btb1 && hit.recency == 0 {
                TakenClass::Mru
            } else {
                TakenClass::Other
            };
            cfg.timing.taken_cost(class)
        } else if self.last_not_taken_line == Some(target_line) {
            cfg.timing.not_taken_second
        } else {
            cfg.timing.not_taken_first
        };
        let ready_cycle = self.pred_cycle + cfg.timing.restart_refill;
        self.pred_cycle += cost;
        self.miss.productive_search();

        // Recency and promotion.
        match source {
            PredSource::Btb1 => {
                bus.bump(Counter::Btb1Predictions);
                s.btb1.make_mru(addr);
                if cfg.exclusivity.refresh_on_use() {
                    if let Some(btb2) = &mut s.btb2 {
                        btb2.make_mru(addr);
                    }
                }
            }
            PredSource::Btbp => {
                bus.bump(Counter::BtbpPredictions);
                let promoted = s.btbp.remove(addr).expect("BTBP hit must be present");
                self.insert_btb1(promoted, self.pred_cycle, cfg, s, bus);
                if cfg.exclusivity.refresh_on_use() {
                    if let Some(btb2) = &mut s.btb2 {
                        btb2.make_mru(addr);
                    }
                }
            }
        }

        // Engine follows its prediction.
        if taken {
            bus.bump(Counter::PredictedTaken);
            s.fit.touch(addr);
            self.last_taken_addr = Some(addr);
            self.last_not_taken_line = None;
            self.search_addr = target;
        } else {
            bus.bump(Counter::PredictedNotTaken);
            self.last_taken_addr = None;
            self.last_not_taken_line = Some(target_line);
            self.search_addr = instr.fallthrough();
        }

        let in_time = ready_cycle <= decode_cycle;
        if !in_time {
            bus.bump(Counter::LatePredictions);
        }
        bus.observe(Sample::PredictionLead, decode_cycle.saturating_sub(ready_cycle));
        // The static guess only matters when the dynamic prediction is
        // not acted on (surprise, or present-but-late): the core falls
        // back to it in `branch()`. In-time hits never read it, so skip
        // the BHT probe on this — by far the most common — path.
        let static_guess_taken =
            if in_time { false } else { s.direction.static_guess(addr, branch.kind) };
        Prediction {
            source: Some(source),
            taken,
            target: Some(target),
            ready_cycle,
            in_time,
            static_guess_taken,
            used_dir: decision.used_dir,
            used_ctb,
        }
    }

    /// Resolves a branch: trains direction and target state and performs
    /// surprise installs.
    fn resolve(
        &mut self,
        instr: &TraceInstr,
        pred: &Prediction,
        cycle: u64,
        cfg: &PredictorConfig,
        s: &mut Structures,
        bus: &mut StatsBus,
    ) {
        let addr = instr.addr;
        let branch = instr.branch.expect("resolve requires a branch instruction");

        s.direction.begin_resolve(addr, branch.taken);

        if pred.present() {
            // The entry may live in the BTB1 (possibly just promoted) or
            // the BTBP.
            let taken = branch.taken;
            let resolved_target = branch.target;
            let mut bht_mispredicted = false;
            let mut target_mispredicted = false;
            let mut update = |e: &mut BtbEntry| {
                bht_mispredicted = e.bht_taken() != taken && e.kind.is_conditional();
                e.bht = e.bht.update(taken);
                if bht_mispredicted {
                    e.use_pht = true;
                }
                if taken {
                    target_mispredicted = e.target != resolved_target;
                    if target_mispredicted && e.kind.has_changing_target() {
                        e.use_ctb = true;
                    }
                    e.target = resolved_target;
                }
            };
            if !s.btb1.update_entry(addr, &mut update) {
                s.btbp.update_entry(addr, &mut update);
            }
            // The backend trains against the pre-branch history
            // (`finish_resolve` below has not pushed yet).
            let cx = TrainingContext {
                addr,
                taken: branch.taken,
                target: branch.target,
                kind: branch.kind,
                bht_mispredicted,
                target_mispredicted,
                used_dir: pred.used_dir,
                used_ctb: pred.used_ctb,
            };
            s.direction.train(&cx, bus);
            s.direction.train_target(&cx);
        } else if branch.taken {
            // Surprise install: only ever-taken branches enter the
            // hierarchy. Written to both the BTBP and the BTB2.
            let entry = BtbEntry::surprise_install(addr, branch.target, branch.kind, true);
            let visible = cycle + cfg.install_delay;
            bus.bump(Counter::SurpriseInstalls);
            #[cfg(feature = "audit")]
            self.auditor.note_btbp_install();
            s.btbp.insert(entry, visible);
            if let Some(btb2) = &mut s.btb2 {
                btb2.insert(entry, visible);
            }
            if let Some(phantom) = &mut s.phantom {
                phantom.record(entry);
            }
        }

        s.direction.finish_resolve(addr, branch.taken, branch.kind, bus);
    }

    /// Reports an L1 I-cache miss for the fetch of `addr` (the §3.5
    /// filter input).
    fn icache_miss(
        &mut self,
        addr: InstAddr,
        cycle: u64,
        cfg: &PredictorConfig,
        s: &mut Structures,
    ) {
        if s.btb2.is_none() {
            return;
        }
        if let Some(req) = s.trackers.on_icache_miss(addr, cycle) {
            self.schedule_request(req, cfg, s);
        }
    }

    /// §3.4 alternative miss definition: decode encountered a surprise
    /// branch.
    fn decode_surprise(
        &mut self,
        addr: InstAddr,
        cycle: u64,
        guessed_taken: bool,
        cfg: &PredictorConfig,
        s: &mut Structures,
        bus: &mut StatsBus,
    ) {
        if !cfg.miss_detection.uses_decode_surprise() || !guessed_taken || s.btb2.is_none() {
            return;
        }
        bus.bump(Counter::Btb1MissesReported);
        if let Some(req) = s.trackers.on_btb1_miss(addr, cycle) {
            self.schedule_request(req, cfg, s);
        }
    }

    /// Processes transfer returns due by `cycle` (called ahead of every
    /// lookup; the simulator also calls it for the end-of-run drain).
    pub fn advance_transfers(
        &mut self,
        cycle: u64,
        cfg: &PredictorConfig,
        s: &mut Structures,
        bus: &mut StatsBus,
    ) {
        while let Some(&(at, e)) = self.phantom_pending.front() {
            if at > cycle {
                break;
            }
            self.phantom_pending.pop_front();
            bus.bump(Counter::Btb2EntriesTransferred);
            #[cfg(feature = "audit")]
            self.auditor.note_btbp_install();
            s.btbp.insert(e, at);
        }
        // Nothing due: skip the return path entirely. An empty drain
        // touches no state, so this early-out cannot change results.
        if !s.transfer.has_due(cycle) {
            return;
        }
        // Disjoint borrows: the BTB2 is read row-by-row while the BTBP
        // and the trackers are written.
        let Structures { btb2, btbp, trackers, transfer, .. } = &mut *s;
        let Some(btb2) = btb2.as_mut() else { return };
        let chase = cfg.multi_block_transfer;
        let mut chain: Option<(InstAddr, u64)> = None;
        let scratch = &mut self.line_scratch;
        let chained_blocks = &self.chained_blocks;
        #[cfg(feature = "audit")]
        let auditor = &mut self.auditor;
        transfer.drain_due(cycle, |row| {
            #[cfg(feature = "audit")]
            auditor.note_row_drained();
            btb2.entries_in_line_into(row.line, row.visible_at, scratch);
            bus.observe(Sample::TransferRowEntries, scratch.len() as u64);
            for &e in scratch.iter() {
                bus.bump(Counter::Btb2EntriesTransferred);
                #[cfg(feature = "audit")]
                auditor.note_btbp_install();
                btbp.insert(e, row.visible_at);
                if cfg.exclusivity.invalidate_on_hit() {
                    btb2.remove(e.addr);
                    #[cfg(feature = "audit")]
                    crate::audit::assert_absent(btb2, e.addr, "post-transfer invalidate");
                } else if cfg.exclusivity.demote_on_hit() {
                    btb2.make_lru(e.addr);
                    // §3.3: the transferred copy is made LRU so later
                    // BTB1 victims replace it first.
                    #[cfg(feature = "audit")]
                    crate::audit::assert_lru(btb2, e.addr, "post-transfer demote");
                }
                // §6 multi-block transfers: chase one taken-predicted
                // target out of the block — but never out of a block that
                // was itself reached by chasing (depth 1 bounds the
                // "exponentially exceed the available bandwidth" risk).
                if chase
                    && chain.is_none()
                    && e.bht_taken()
                    && e.target.block() != row.block
                    && !chained_blocks.contains(&row.block)
                    && !chained_blocks.contains(&e.target.block())
                {
                    chain = Some((e.target, row.visible_at));
                }
            }
            if row.last {
                trackers.search_complete(row.block, row.partial);
            }
        });
        if let Some((target, at)) = chain {
            bus.bump(Counter::ChainedTransfers);
            if self.chained_blocks.len() >= 16 {
                self.chained_blocks.pop_front();
            }
            self.chained_blocks.push_back(target.block());
            self.schedule_request(
                SearchRequest {
                    block: target.block(),
                    kind: SearchKind::Full { entry: target, exclude_partial: None },
                    earliest_start: at,
                },
                cfg,
                s,
            );
        }
    }

    /// One fruitless row search: sequential cost plus miss detection.
    fn fruitless_row(&mut self, cfg: &PredictorConfig, s: &mut Structures, bus: &mut StatsBus) {
        self.last_not_taken_line = None;
        self.last_taken_addr = None;
        let search_start = self.search_addr;
        self.pred_cycle += cfg.timing.seq_row;
        if !cfg.miss_detection.uses_search_limit() {
            return;
        }
        if let Some(miss) = self.miss.fruitless_search(search_start) {
            bus.bump(Counter::Btb1MissesReported);
            if s.btb2.is_some() {
                if let Some(req) = s.trackers.on_btb1_miss(miss.addr, self.pred_cycle) {
                    self.schedule_request(req, cfg, s);
                }
            }
            self.phantom_trigger(miss.addr, s);
        }
    }

    /// Phantom-BTB miss handling: look up the stored temporal group for
    /// this trigger (scheduling its prefetch) and open a new group.
    fn phantom_trigger(&mut self, addr: InstAddr, s: &mut Structures) {
        let Some(phantom) = &mut s.phantom else { return };
        let latency = phantom.config().access_latency;
        if let Some(entries) = phantom.lookup_trigger(addr) {
            for (i, e) in entries.into_iter().enumerate() {
                self.phantom_pending.push_back((self.pred_cycle + latency + i as u64, e));
            }
        }
        phantom.on_miss(addr);
    }

    /// Expands a tracker request into row reads on the transfer engine.
    ///
    /// Rows are enumerated in the BTB2's own congruence-class units, so
    /// the §6 future-work study of wider BTB2 rows (64 B / 128 B) simply
    /// schedules proportionally fewer reads per block.
    fn schedule_request(&mut self, req: SearchRequest, cfg: &PredictorConfig, s: &mut Structures) {
        let Some(btb2) = &s.btb2 else { return };
        let line_bytes = u64::from(btb2.geometry().line_bytes);
        debug_assert!(line_bytes <= SECTOR_BYTES, "BTB2 rows wider than a sector");
        let lines_per_sector = (SECTOR_BYTES / line_bytes).max(1);
        debug_assert!(lines_per_sector <= 4, "exclude buffer sized for >=32 B rows");
        // First line of the aligned 128 B sector containing an anchor
        // address (instruction address bits 0:56).
        let sector_first_line =
            |anchor: InstAddr| (anchor.raw() & !(SECTOR_BYTES - 1)) / line_bytes;
        let lines = &mut self.lines_scratch;
        lines.clear();
        match &req.kind {
            SearchKind::Partial { from } => {
                let base = sector_first_line(*from);
                lines.extend((0..lines_per_sector).map(|i| base + i));
            }
            SearchKind::Full { entry, exclude_partial } => {
                let steering: &dyn SteeringPolicy =
                    if cfg.steering { &s.ordering } else { &SequentialSteering };
                steering.search_order_into(req.block, *entry, &mut self.order_scratch);
                // A sector spans at most four 32 B rows; a sentinel that
                // no real line number reaches marks unused slots.
                let mut exclude = [u64::MAX; 4];
                if let Some(anchor) = exclude_partial {
                    let base = sector_first_line(*anchor);
                    for (i, slot) in exclude.iter_mut().take(lines_per_sector as usize).enumerate()
                    {
                        *slot = base + i as u64;
                    }
                }
                let block_first_line = (req.block * BLOCK_BYTES) / line_bytes;
                for &sec in &self.order_scratch {
                    for i in 0..lines_per_sector {
                        let line = block_first_line + u64::from(sec) * lines_per_sector + i;
                        if !exclude.contains(&line) {
                            lines.push(line);
                        }
                    }
                }
            }
        }
        let partial = matches!(req.kind, SearchKind::Partial { .. });
        s.transfer.schedule(req.block, lines, req.earliest_start, partial);
    }

    /// Inserts into the BTB1, routing the victim to the BTBP and BTB2
    /// per the exclusivity policy.
    fn insert_btb1(
        &mut self,
        entry: BtbEntry,
        now: u64,
        cfg: &PredictorConfig,
        s: &mut Structures,
        bus: &mut StatsBus,
    ) {
        if let Some(victim) = s.btb1.insert(entry, now) {
            bus.bump(Counter::Btb1Victims);
            #[cfg(feature = "audit")]
            self.auditor.note_btbp_install();
            s.btbp.insert(victim, now);
            if let Some(phantom) = &mut s.phantom {
                phantom.record(victim);
            }
            if let Some(btb2) = &mut s.btb2 {
                cfg.exclusivity.place_victim(btb2, victim, now);
                // §3.3: an exclusive-policy victim write-back lands in
                // the BTB2's LRU way and becomes MRU; the inclusive
                // variant refreshes the resident copy in place instead.
                #[cfg(feature = "audit")]
                if !cfg.exclusivity.refresh_on_use() {
                    crate::audit::assert_mru(btb2, victim.addr, "post-victim write-back");
                }
            }
        }
    }
}
