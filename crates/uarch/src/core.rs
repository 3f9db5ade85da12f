//! The cycle-accounting front-end model.
//!
//! [`CoreModel`] replays a trace through the branch prediction hierarchy
//! and a finite L1I, charging penalties per the zEC12 front-end behaviour
//! described in the paper:
//!
//! * decode consumes `decode_width` instructions per cycle plus a fixed
//!   back-end overhead (the execution core is not simulated — the paper's
//!   reported numbers are relative CPI improvements, which this model
//!   preserves);
//! * in-time dynamic taken predictions steer fetch: the target line is
//!   prefetched at prediction-broadcast time, hiding some or all of the
//!   L2 latency (§3.2);
//! * mispredictions and taken surprises restart the pipeline with the
//!   configured penalties;
//! * surprise branches resolved and guessed not-taken cost nothing;
//! * every penalizing branch is classified per Figure 4.

use crate::cache::{Access, Cache};
use crate::classify::{BadOutcome, OutcomeCounts, SurpriseClassifier};
use crate::config::UarchConfig;
use crate::penalty::PenaltyAccounting;
use zbp_predictor::{BranchPredictor, Counter, PredictorConfig, PredictorStats};
use zbp_trace::compact::{CompactTrace, Run, GROUP_LUT};
use zbp_trace::{BranchKind, InstAddr, Trace, TraceInstr};

/// I-cache side statistics.
///
/// Accumulated on the predictor's [`StatsBus`](zbp_predictor::StatsBus)
/// — the core model bumps the `Icache*` counters there, and this struct
/// is rebuilt from the bus when a run finishes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ICacheStats {
    /// Demand misses (full latency paid).
    pub demand_misses: u64,
    /// Accesses that waited on an in-flight prefetch.
    pub late_prefetch_hits: u64,
    /// Prefetches issued by taken predictions.
    pub prefetches: u64,
    /// Distinct fetch-line transitions.
    pub line_accesses: u64,
    /// Wrong-path lines pulled into the L1I (only with
    /// [`UarchConfig::wrong_path_fetch`](crate::UarchConfig) enabled).
    pub wrong_path_fetches: u64,
}

/// Result of one simulated run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoreResult {
    /// Trace name.
    pub name: String,
    /// Instructions executed.
    pub instructions: u64,
    /// Total cycles.
    pub cycles: u64,
    /// Branch outcome taxonomy (Figure 4).
    pub outcomes: OutcomeCounts,
    /// Stall cycles by cause.
    pub penalties: PenaltyAccounting,
    /// I-cache behaviour.
    pub icache: ICacheStats,
    /// Predictor-side counters.
    pub predictor: PredictorStats,
    /// Distinct branch sites encountered.
    pub distinct_branches: u64,
}

impl CoreResult {
    /// Cycles per instruction.
    pub fn cpi(&self) -> f64 {
        self.cycles as f64 / self.instructions.max(1) as f64
    }
}

/// Measurement of one replay window of a [`ReplayPlan::Windows`] plan
/// ([`LaneGroup::measures`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowMeasure {
    /// Requested window start, in retired-instruction coordinates
    /// (identifies which window this measure belongs to).
    pub start: u64,
    /// Instructions retired inside the window.
    pub instructions: u64,
    /// Cycles accumulated inside the window.
    pub cycles: u64,
    /// Wrong-direction mispredictions inside the window.
    pub dir_mispredicts: u64,
    /// Wrong-target mispredictions inside the window.
    pub target_mispredicts: u64,
}

impl WindowMeasure {
    /// Cycles per instruction inside this window.
    pub fn cpi(&self) -> f64 {
        self.cycles as f64 / self.instructions.max(1) as f64
    }

    /// Wrong-direction mispredictions per thousand instructions.
    pub fn dir_mpki(&self) -> f64 {
        self.dir_mispredicts as f64 * 1000.0 / self.instructions.max(1) as f64
    }
}

/// The trace-driven front-end model.
///
/// ```
/// use zbp_predictor::PredictorConfig;
/// use zbp_trace::profile::WorkloadProfile;
/// use zbp_uarch::core::CoreModel;
/// use zbp_uarch::UarchConfig;
///
/// let trace = WorkloadProfile::tpf_airline().build(1).with_len(10_000);
/// let model = CoreModel::new(UarchConfig::zec12(), PredictorConfig::zec12());
/// let result = model.run(&trace);
/// assert_eq!(result.instructions, 10_000);
/// assert!(result.cpi() > 0.5);
/// ```
#[derive(Debug)]
pub struct CoreModel {
    cfg: UarchConfig,
    predictor: BranchPredictor,
    icache: Cache,
    classifier: SurpriseClassifier,
    outcomes: OutcomeCounts,
    penalties: PenaltyAccounting,
    cycle: f64,
    /// Decode cost per instruction, `1/decode_width + base_cpi_overhead`,
    /// precomputed so the per-step path carries no float division.
    step_cycles: f64,
    instructions: u64,
    cur_line: Option<u64>,
    /// Address the stream should continue at; a mismatch is an
    /// asynchronous control transfer (context switch / interrupt) that
    /// restarts the prediction search like any pipeline restart.
    expected_addr: Option<zbp_trace::InstAddr>,
}

impl CoreModel {
    /// Creates a model around a fresh predictor.
    pub fn new(cfg: UarchConfig, predictor_cfg: PredictorConfig) -> Self {
        let latency_window = predictor_cfg.install_delay + cfg.resolve_delay;
        Self {
            icache: Cache::new(cfg.l1i, cfg.l2_latency),
            predictor: BranchPredictor::new(predictor_cfg),
            classifier: SurpriseClassifier::new(latency_window),
            outcomes: OutcomeCounts::default(),
            penalties: PenaltyAccounting::default(),
            cycle: 0.0,
            step_cycles: 1.0 / cfg.decode_width as f64 + cfg.base_cpi_overhead,
            instructions: 0,
            cur_line: None,
            expected_addr: None,
            cfg,
        }
    }

    /// Runs a whole trace, one record at a time, and returns the
    /// result. This is the reference replay: it takes any [`Trace`]
    /// (including instruction lengths the compact form rejects), and the
    /// differential oracle ([`crate::oracle`]) checks the compact lane
    /// kernel ([`LaneGroup`]) against it.
    pub fn run<T: Trace>(mut self, trace: &T) -> CoreResult {
        for instr in trace.iter() {
            self.step(&instr);
        }
        self.finish(trace.name())
    }

    /// Like [`Self::run`], invoking `observe` after every retired branch
    /// instruction. Branch points are the only stream positions both the
    /// record replay and the lane kernel visit one by one, which makes
    /// them the alignment points of the differential oracle
    /// ([`crate::oracle`]).
    pub fn run_observed<T: Trace>(
        mut self,
        trace: &T,
        mut observe: impl FnMut(&CoreModel),
    ) -> CoreResult {
        for instr in trace.iter() {
            let retired_branch = !instr.wrong_path && instr.branch.is_some();
            self.step(&instr);
            if retired_branch {
                observe(&self);
            }
        }
        self.finish(trace.name())
    }

    /// Executes one instruction.
    pub fn step(&mut self, instr: &TraceInstr) {
        if instr.wrong_path {
            // Wrong-path records never retire: they carry no cycle or
            // completion weight (the model synthesizes its own wrong-path
            // fetch effects from resolved mispredictions instead).
            return;
        }
        self.instructions += 1;
        self.cycle += self.step_cycles;

        // Stream start and asynchronous control transfers (time-slice
        // switches, interrupts): prediction search restarts at the new
        // stream position.
        match self.expected_addr {
            Some(expected) if expected == instr.addr => {}
            _ => self.predictor.restart(instr.addr, self.cycle as u64),
        }
        self.expected_addr = Some(instr.next_addr());

        // Instruction fetch: charged per 256 B line transition.
        let line = self.icache.line_of(instr.addr);
        if self.cur_line != Some(line) {
            self.line_access(line, instr.addr);
        }

        self.predictor.note_completion(instr.addr);

        if instr.branch.is_some() {
            self.branch(instr);
        }
    }

    /// Replays the non-branch run described by `spans`, the run's
    /// maximal same-line address spans for *this* model's L1I line size,
    /// in order. `end` is the address one past the run (the terminating
    /// point's own address).
    ///
    /// Equivalence with per-instruction [`Self::step`]: the span
    /// boundaries are exactly the line transitions the per-instruction
    /// walk observes (spans are a pure function of the run's addresses
    /// and the line size); the discontinuity check can only fire on the
    /// first instruction (runs are sequential by construction); the
    /// cycle accumulator sees the same sequence of serial f64 additions,
    /// one per instruction, round-tripped through `self` only at span
    /// boundaries; and completions flush as one
    /// [`BranchPredictor::note_completion_run`] per span, after that
    /// line's access and before the next line's, which is the
    /// interleaving the per-instruction path produces.
    fn step_spans(&mut self, spans: &[LineSpan], end: InstAddr) {
        let first = spans[0];
        self.predictor.prefetch(end);

        // First instruction: stream-start / discontinuity check, then
        // the line-transition charge, exactly as step() orders them.
        self.instructions += 1;
        self.cycle += self.step_cycles;
        match self.expected_addr {
            Some(expected) if expected == first.first => {}
            _ => self.predictor.restart(first.first, self.cycle as u64),
        }
        let line = self.icache.line_of(first.first);
        if self.cur_line != Some(line) {
            self.line_access(line, first.first);
        }

        let step = self.step_cycles;
        let mut cycle = self.cycle;
        let mut instructions = self.instructions;
        for _ in 1..first.count {
            cycle += step;
        }
        instructions += first.count - 1;
        let mut prev = first;
        for &span in &spans[1..] {
            // The span's first instruction crosses into a new line:
            // charge its step, flush, complete the previous span, take
            // the line access (which may stall), then stay
            // register-resident for the rest of the span.
            instructions += 1;
            cycle += step;
            self.cycle = cycle;
            self.instructions = instructions;
            self.predictor.note_completion_run(prev.first, prev.last);
            let line = self.icache.line_of(span.first);
            self.line_access(line, span.first);
            cycle = self.cycle;
            for _ in 1..span.count {
                cycle += step;
            }
            instructions += span.count - 1;
            prev = span;
        }
        self.cycle = cycle;
        self.instructions = instructions;
        self.predictor.note_completion_run(prev.first, prev.last);
        self.expected_addr = Some(end);
    }

    /// Charges one 256 B fetch-line transition at `addr`.
    fn line_access(&mut self, line: u64, addr: InstAddr) {
        self.cur_line = Some(line);
        self.predictor.bus_mut().bump(Counter::IcacheLineAccesses);
        let now = self.cycle as u64;
        match self.icache.access(addr, now) {
            Access::Hit => {}
            Access::InFlight { ready_at } => {
                self.predictor.bus_mut().bump(Counter::IcacheLatePrefetchHits);
                let wait = ready_at.saturating_sub(now);
                self.penalties.icache_late_prefetch += wait;
                self.cycle += wait as f64;
            }
            Access::Miss { ready_at } => {
                self.predictor.bus_mut().bump(Counter::IcacheDemandMisses);
                self.predictor.note_icache_miss(addr, now);
                let wait = ready_at - now;
                self.penalties.icache_demand += wait;
                self.cycle += wait as f64;
            }
        }
    }

    /// Pulls the first lines of a wrong path into the L1I (fetch ran down
    /// that path until the branch resolved).
    fn fetch_wrong_path(&mut self, from: zbp_trace::InstAddr, at: u64) {
        if !self.cfg.wrong_path_fetch {
            return;
        }
        let line_bytes = u64::from(self.cfg.l1i.line_bytes);
        for k in 0..u64::from(self.cfg.wrong_path_lines) {
            if self.icache.prefetch(from.add(k * line_bytes), at) {
                self.predictor.bus_mut().bump(Counter::WrongPathFetches);
            }
        }
    }

    fn branch(&mut self, instr: &TraceInstr) {
        let b = instr.branch.expect("caller checked");
        let decode_cycle = self.cycle as u64;
        let pred = self.predictor.predict_branch(instr, decode_cycle);
        let resolve_cycle = decode_cycle + self.cfg.resolve_delay;
        self.outcomes.branches += 1;

        if pred.dynamic() {
            let dir_correct = pred.taken == b.taken;
            let target_correct = !b.taken || pred.target == Some(b.target);
            if dir_correct && target_correct {
                self.outcomes.good_dynamic += 1;
                if b.taken {
                    // Prediction steers fetch: target line prefetch begins
                    // at broadcast time.
                    if self.icache.prefetch(b.target, pred.ready_cycle) {
                        self.predictor.bus_mut().bump(Counter::IcachePrefetches);
                    }
                }
            } else {
                let outcome = if dir_correct {
                    BadOutcome::MispredictTarget
                } else {
                    BadOutcome::MispredictDirection
                };
                self.outcomes.record_bad(outcome);
                self.penalties.mispredict += self.cfg.mispredict_penalty;
                // Fetch followed the predicted (wrong) path until
                // resolution.
                let wrong = if pred.taken {
                    pred.target.unwrap_or_else(|| instr.fallthrough())
                } else {
                    instr.fallthrough()
                };
                self.fetch_wrong_path(wrong, decode_cycle);
                // The engine restarts as soon as the branch resolves;
                // decode resumes only after the full refill, giving the
                // lookahead search its head start.
                self.predictor.restart(instr.next_addr(), resolve_cycle);
                self.cycle += self.cfg.mispredict_penalty as f64;
            }
        } else {
            // Surprise (entry absent, or present but broadcast too late).
            let guess = pred.static_guess_taken;
            // §3.4 alternative miss definition: decode-stage surprise
            // reports (no-op unless the configuration enables them).
            self.predictor.note_decode_surprise(instr.addr, decode_cycle, guess);
            let benign = !b.taken && !guess;
            if benign {
                self.outcomes.benign_surprises += 1;
                if pred.present() {
                    // The engine followed its (unconsumed) prediction;
                    // realign it with the sequential path.
                    self.predictor.restart(instr.next_addr(), decode_cycle);
                }
            } else {
                let outcome = self.classifier.classify(instr.addr, decode_cycle, pred.present());
                self.outcomes.record_bad(outcome);
                let target_at_decode = matches!(
                    b.kind,
                    BranchKind::Conditional | BranchKind::Unconditional | BranchKind::Call
                );
                let (penalty, restart_at) = if b.taken && guess && target_at_decode {
                    // Statically guessed taken, target computable: a
                    // decode-time redirect; the engine restarts now.
                    self.penalties.surprise_redirect += self.cfg.surprise_redirect_penalty;
                    (self.cfg.surprise_redirect_penalty, decode_cycle)
                } else if b.taken && guess {
                    // Correct taken guess but the target waits for
                    // execution (returns, indirect branches).
                    self.penalties.surprise_resolve += self.cfg.surprise_resolve_penalty;
                    (self.cfg.surprise_resolve_penalty, resolve_cycle)
                } else {
                    // Wrong static guess, fixed at resolution; fetch ran
                    // down the guessed path meanwhile.
                    let wrong = if guess { b.target } else { instr.fallthrough() };
                    self.fetch_wrong_path(wrong, decode_cycle);
                    self.penalties.surprise_resolve += self.cfg.mispredict_penalty;
                    (self.cfg.mispredict_penalty, resolve_cycle)
                };
                self.predictor.restart(instr.next_addr(), restart_at);
                self.cycle += penalty as f64;
            }
        }

        // Only taken resolutions install into the hierarchy, so only they
        // count as "seen" for the compulsory/capacity split: a branch that
        // was never taken was never installable, and its first taken
        // execution is a compulsory surprise no capacity could avoid.
        if b.taken {
            self.classifier.note_resolution(instr.addr, resolve_cycle);
        }
        self.predictor.resolve(instr, &pred, resolve_cycle);
    }

    /// Finalizes the run.
    pub fn finish(mut self, name: &str) -> CoreResult {
        self.predictor.advance_transfers(u64::MAX);
        #[cfg(feature = "audit")]
        self.predictor.audit_check();
        let bus = self.predictor.bus();
        let icache = ICacheStats {
            demand_misses: bus.get(Counter::IcacheDemandMisses),
            late_prefetch_hits: bus.get(Counter::IcacheLatePrefetchHits),
            prefetches: bus.get(Counter::IcachePrefetches),
            line_accesses: bus.get(Counter::IcacheLineAccesses),
            wrong_path_fetches: bus.get(Counter::WrongPathFetches),
        };
        CoreResult {
            name: name.to_string(),
            instructions: self.instructions,
            cycles: self.cycle as u64,
            outcomes: self.outcomes,
            penalties: self.penalties,
            icache,
            predictor: self.predictor.stats_snapshot(),
            distinct_branches: self.classifier.distinct_branches() as u64,
        }
    }

    /// The predictor being driven (diagnostics).
    pub fn predictor(&self) -> &BranchPredictor {
        &self.predictor
    }

    /// Mutable access to the predictor, for external write sources like
    /// software branch preload instructions (Figure 1's BTBP inputs).
    pub fn predictor_mut(&mut self) -> &mut BranchPredictor {
        &mut self.predictor
    }

    /// Current cycle.
    pub fn cycle(&self) -> u64 {
        self.cycle as u64
    }

    /// Branch outcomes accumulated so far (Figure 4 taxonomy). Useful
    /// for per-branch delta tracking under [`Self::step`] driving.
    pub fn outcomes(&self) -> &OutcomeCounts {
        &self.outcomes
    }

    /// Instructions retired so far.
    pub fn instructions(&self) -> u64 {
        self.instructions
    }

    /// The counters a window measure subtracts, as of now.
    fn window_mark(&self, start: u64) -> WindowMeasure {
        WindowMeasure {
            start,
            instructions: self.instructions,
            cycles: self.cycle as u64,
            dir_mispredicts: self.outcomes.mispredict_direction,
            target_mispredicts: self.outcomes.mispredict_target,
        }
    }

    /// The window measured since `mark` was taken.
    fn measure_since(&self, mark: &WindowMeasure) -> WindowMeasure {
        let now = self.window_mark(mark.start);
        WindowMeasure {
            start: mark.start,
            instructions: now.instructions - mark.instructions,
            cycles: now.cycles - mark.cycles,
            dir_mispredicts: now.dir_mispredicts - mark.dir_mispredicts,
            target_mispredicts: now.target_mispredicts - mark.target_mispredicts,
        }
    }
}

/// One maximal same-line address span inside a non-branch run: `count`
/// sequential instructions from `first` to `last`, all inside one
/// I-cache line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct LineSpan {
    first: InstAddr,
    last: InstAddr,
    count: u64,
}

/// Decodes one run's length codes into its maximal same-line spans for
/// a given line shift (`line = addr >> shift`), reusing `out`'s
/// capacity, and returns the run's end address (the decode walks every
/// length code anyway, so the end — what [`CompactTrace::run_end`]
/// would recompute with a second walk — falls out for free). A
/// [`GROUP_LUT`] lookup advances four instructions when the group's
/// last address stays in
/// the current line (addresses within a run are strictly increasing,
/// so the whole group does), per-instruction decode otherwise. The
/// caller must not pass an empty run.
fn decode_spans(trace: &CompactTrace, run: &Run, shift: u32, out: &mut Vec<LineSpan>) -> InstAddr {
    out.clear();
    let mut addr = run.start;
    let mut code = run.first_code;
    let end = run.first_code + run.count;
    let codes = trace.len_code_stream();

    let mut cur_line = addr.raw() >> shift;
    let mut first = addr;
    let mut last = addr;
    let mut count = 1u64;
    addr = addr.add(u64::from(trace.len_at(code)));
    code += 1;

    macro_rules! per_instr {
        () => {{
            let line = addr.raw() >> shift;
            if line != cur_line {
                out.push(LineSpan { first, last, count });
                cur_line = line;
                first = addr;
                count = 0;
            }
            last = addr;
            count += 1;
            addr = addr.add(u64::from(trace.len_at(code)));
            code += 1;
        }};
    }

    while code < end && (code & 3) != 0 {
        per_instr!();
    }
    while code + 4 <= end {
        let span = GROUP_LUT[usize::from(codes[(code >> 2) as usize])];
        let group_last = addr.add(u64::from(span.last_off));
        if group_last.raw() >> shift == cur_line {
            count += 4;
            last = group_last;
            addr = addr.add(u64::from(span.total));
            code += 4;
        } else {
            per_instr!();
            per_instr!();
            per_instr!();
            per_instr!();
        }
    }
    while code < end {
        per_instr!();
    }
    out.push(LineSpan { first, last, count });
    addr
}

/// What one [`LaneGroup::replay`] call models of a compact trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplayPlan<'a> {
    /// Every instruction: the exact replay behind every grid cell. It
    /// is one window spanning the whole trace, so the measures it
    /// leaves are the full replay's cycles and instructions.
    Whole,
    /// Only the given windows: the replay kernel behind SimPoint-style
    /// weighted sampling, where a clustering pass picks representative
    /// intervals and this plan measures each one.
    Windows {
        /// `(start, len)` pairs in retired-instruction coordinates,
        /// sorted by start and non-overlapping.
        windows: &'a [(u64, u64)],
        /// Instructions replayed uncounted before each window,
        /// re-warming predictor and I-cache state after the skip
        /// (clamped when the previous window ends closer than this).
        warmup: u64,
    },
}

/// [`ReplayPlan::Whole`] as a window list.
const WHOLE: [(u64, u64); 1] = [(0, u64::MAX)];

/// Where a windowed walk stands: the window it approaches or measures,
/// and the retired-instruction position of its next phase change.
struct Phase {
    /// Index of the window being approached or measured.
    next: usize,
    /// Inside window `next`.
    measuring: bool,
    /// Before window `next`'s warmup: cursor-only fast-walk.
    fast: bool,
    /// Position at which the phase next changes.
    edge: u64,
}

/// Decode-once lane-batched replay: the one loop that replays a compact
/// trace.
///
/// A lane group walks one [`SegmentCursor`](zbp_trace::compact::SegmentCursor)
/// over a compact trace and feeds every decoded run to N independent
/// [`CoreModel`] lanes: the run/point structure and the length-code
/// stream are decoded once per run (once per *distinct* L1I line size
/// when lanes differ in geometry). Each lane owns its predictor,
/// I-cache and cycle accounting, so a lane's result does not depend on
/// its neighbours, and equals [`CoreModel::run`] over the same stream.
///
/// The span scratch, window marks and measures are reused across runs
/// and calls, keeping the replay walk allocation-free once they reach
/// steady-state capacity.
#[derive(Debug)]
pub struct LaneGroup {
    lanes: Vec<CoreModel>,
    /// Distinct L1I line shifts among the lanes.
    shifts: Vec<u32>,
    /// Per-lane index into `shifts` / `spans`.
    shift_of: Vec<usize>,
    /// Reusable span scratch, one buffer per distinct shift.
    spans: Vec<Vec<LineSpan>>,
    /// Per-lane state at the start of the window being measured.
    marks: Vec<WindowMeasure>,
    /// Per-lane window measures of the last replay.
    measures: Vec<Vec<WindowMeasure>>,
}

impl LaneGroup {
    /// Groups the given lanes for a shared decode walk.
    pub fn new(lanes: Vec<CoreModel>) -> Self {
        let mut shifts: Vec<u32> = Vec::new();
        let shift_of = lanes
            .iter()
            .map(|lane| {
                let shift = lane.cfg.l1i.line_bytes.trailing_zeros();
                shifts.iter().position(|&s| s == shift).unwrap_or_else(|| {
                    shifts.push(shift);
                    shifts.len() - 1
                })
            })
            .collect();
        let spans = shifts.iter().map(|_| Vec::new()).collect();
        let marks = lanes.iter().map(|lane| lane.window_mark(0)).collect();
        let measures = lanes.iter().map(|_| Vec::new()).collect();
        Self { lanes, shifts, shift_of, spans, marks, measures }
    }

    /// Replays `trace` through every lane from a single cursor walk,
    /// modelling what `plan` asks for and fast-walking the rest with
    /// the cursor alone. `observe(lane, model, instr)` runs after every
    /// retired branch a lane models (warmup included); a no-op closure
    /// compiles away.
    ///
    /// Callable repeatedly: each call continues every lane where the
    /// last one left it, so replaying a stream chunk by chunk equals
    /// replaying it whole as long as each chunk boundary falls on a run
    /// boundary (right after a retired branch). Window positions count
    /// retired instructions from the start of `trace`, and phase
    /// transitions land on run boundaries, so window edges can
    /// overshoot by a partial run. A windowed replay stops as soon as
    /// its last window flushes. Re-entry after a skipped region needs
    /// no special casing: the skip leaves a lane's expected address
    /// stale, so the first modelled instruction restarts the prediction
    /// search, the same path an asynchronous control transfer takes.
    ///
    /// # Panics
    ///
    /// When a window is empty, or windows are unsorted or overlapping.
    pub fn replay<O>(&mut self, trace: &CompactTrace, plan: ReplayPlan<'_>, mut observe: O)
    where
        O: FnMut(usize, &CoreModel, &TraceInstr),
    {
        let (windows, warmup) = match plan {
            ReplayPlan::Whole => (&WHOLE[..], 0),
            ReplayPlan::Windows { windows, warmup } => {
                let mut prev_end = 0u64;
                for &(start, len) in windows {
                    assert!(len > 0, "windowed replay: empty window");
                    assert!(start >= prev_end, "windowed replay: windows unsorted or overlapping");
                    prev_end = start.saturating_add(len);
                }
                (windows, warmup)
            }
        };
        for measures in &mut self.measures {
            measures.clear();
        }
        let mut phase = Phase { next: 0, measuring: false, fast: false, edge: 0 };
        let mut done = 0u64; // retired instructions, all phases
        let mut cursor = trace.segments();
        while let Some(run) = cursor.next_run() {
            if done >= phase.edge && !self.advance(&mut phase, windows, warmup, done) {
                return;
            }
            // The span decode yields the run's end address as a
            // by-product, so the group pays one length-code walk per run
            // (per distinct shift); a fast-walk pays only the length sum.
            let end = if phase.fast || run.count == 0 || self.shifts.is_empty() {
                trace.run_end(&run)
            } else {
                let mut end = run.start;
                for (spans, &shift) in self.spans.iter_mut().zip(&self.shifts) {
                    end = decode_spans(trace, &run, shift, spans);
                }
                for (lane, &si) in self.lanes.iter_mut().zip(&self.shift_of) {
                    lane.step_spans(&self.spans[si], end);
                }
                end
            };
            done += run.count;
            if let Some(instr) = cursor.finish_run(end) {
                done += u64::from(!instr.wrong_path);
                if !phase.fast {
                    let retired_branch = !instr.wrong_path && instr.branch.is_some();
                    for (i, lane) in self.lanes.iter_mut().enumerate() {
                        lane.step(&instr);
                        if retired_branch {
                            observe(i, lane, &instr);
                        }
                    }
                }
            }
        }
        // The trace ended inside a window: flush it, partial or not
        // (the trailing intervals of a trace are shorter than the
        // nominal interval length).
        if phase.measuring {
            let complete = done >= phase.edge;
            for ((lane, mark), out) in self.lanes.iter().zip(&self.marks).zip(&mut self.measures) {
                if complete || lane.instructions > mark.instructions {
                    out.push(lane.measure_since(mark));
                }
            }
        }
    }

    /// Moves `phase` across the run boundary at retired position
    /// `done`: flushes the window being measured once `done` reaches its
    /// end, then marks the next window once `done` reaches its start, or
    /// sets the edge of its warmup or fast-walk otherwise. Returns
    /// `false` once every window has flushed.
    fn advance(
        &mut self,
        phase: &mut Phase,
        windows: &[(u64, u64)],
        warmup: u64,
        done: u64,
    ) -> bool {
        if phase.measuring {
            for ((lane, mark), out) in self.lanes.iter().zip(&self.marks).zip(&mut self.measures) {
                out.push(lane.measure_since(mark));
            }
            phase.measuring = false;
            phase.next += 1;
        }
        let Some(&(start, len)) = windows.get(phase.next) else {
            return false;
        };
        let warm_start = start.saturating_sub(warmup);
        if done >= start {
            for (mark, lane) in self.marks.iter_mut().zip(&self.lanes) {
                *mark = lane.window_mark(start);
            }
            phase.measuring = true;
            phase.fast = false;
            phase.edge = start.saturating_add(len);
        } else {
            phase.fast = done < warm_start;
            phase.edge = if phase.fast { warm_start } else { start };
        }
        true
    }

    /// Lane `lane`'s window measures from the last [`Self::replay`], in
    /// window order; a window the trace ended before reaching is
    /// missing.
    pub fn measures(&self, lane: usize) -> &[WindowMeasure] {
        &self.measures[lane]
    }

    /// Finalizes every lane, in lane order.
    pub fn finish(self, name: &str) -> Vec<CoreResult> {
        self.lanes.into_iter().map(|lane| lane.finish(name)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zbp_trace::{BranchRec, InstAddr, VecTrace};

    fn model() -> CoreModel {
        CoreModel::new(UarchConfig::zec12(), PredictorConfig::zec12())
    }

    /// A trace looping `iters` times over a small body ending in a taken
    /// branch back to the start.
    fn loop_trace(iters: usize) -> VecTrace {
        let mut v = Vec::new();
        for _ in 0..iters {
            v.push(TraceInstr::plain(InstAddr::new(0x1000), 4));
            v.push(TraceInstr::plain(InstAddr::new(0x1004), 4));
            v.push(TraceInstr::branch(
                InstAddr::new(0x1008),
                4,
                BranchRec::taken(BranchKind::Conditional, InstAddr::new(0x1000)),
            ));
        }
        VecTrace::new("loop", v)
    }

    #[test]
    fn branch_outcome_counts_are_complete() {
        let r = model().run(&loop_trace(500));
        assert_eq!(r.outcomes.branches, 500);
        assert_eq!(
            r.outcomes.branches,
            r.outcomes.good_dynamic + r.outcomes.benign_surprises + r.outcomes.bad_total(),
            "every branch must be categorized exactly once"
        );
        assert_eq!(r.instructions, 1500);
    }

    #[test]
    fn hot_loop_becomes_well_predicted() {
        let r = model().run(&loop_trace(2000));
        // After warmup the loop branch must predict dynamically.
        assert!(
            r.outcomes.good_dynamic > 1900,
            "good={} of {}",
            r.outcomes.good_dynamic,
            r.outcomes.branches
        );
        // CPI approaches the base cost.
        let base = 1.0 / 3.0 + UarchConfig::zec12().base_cpi_overhead;
        assert!(r.cpi() < base + 0.2, "cpi={}", r.cpi());
    }

    #[test]
    fn first_iteration_is_compulsory_surprise() {
        let r = model().run(&loop_trace(3));
        assert!(r.outcomes.surprise_compulsory >= 1);
        assert!(r.distinct_branches == 1);
    }

    #[test]
    fn cold_sequential_code_pays_icache_misses() {
        // 4 KB of straight-line code: 16 lines of 256 B.
        let mut v = Vec::new();
        for i in 0..1024u64 {
            v.push(TraceInstr::plain(InstAddr::new(0x8000 + i * 4), 4));
        }
        let r = model().run(&VecTrace::new("seq", v));
        assert_eq!(r.icache.demand_misses, 16);
        assert_eq!(r.penalties.icache_demand, 16 * UarchConfig::zec12().l2_latency);
        assert_eq!(r.outcomes.branches, 0);
    }

    #[test]
    fn taken_prediction_prefetches_target_line() {
        // A loop whose body spans two cache lines; the backward target is
        // re-fetched every iteration but stays resident, so only the very
        // first touches miss.
        let r = model().run(&loop_trace(100));
        assert!(r.icache.demand_misses <= 2);
    }

    #[test]
    fn wrong_static_guess_costs_full_penalty() {
        // A branch alternating taken/not-taken with no warmup: its first
        // taken execution surprises with a not-taken guess.
        let v = vec![
            TraceInstr::branch(
                InstAddr::new(0x1000),
                4,
                BranchRec::taken(BranchKind::Conditional, InstAddr::new(0x2000)),
            ),
            TraceInstr::plain(InstAddr::new(0x2000), 4),
        ];
        let r = model().run(&VecTrace::new("t", v));
        assert_eq!(r.outcomes.surprise_compulsory, 1);
        assert!(r.penalties.surprise_resolve >= UarchConfig::zec12().mispredict_penalty);
    }

    #[test]
    fn benign_surprises_cost_nothing() {
        // Never-taken branch: after the first execution the static 1-bit
        // BHT guesses not-taken; branch is never installed; zero penalty
        // beyond base.
        let mut v = Vec::new();
        for _ in 0..50 {
            v.push(TraceInstr::branch(
                InstAddr::new(0x1000),
                4,
                BranchRec::not_taken(InstAddr::new(0x2000)),
            ));
            v.push(TraceInstr::plain(InstAddr::new(0x1004), 4));
            // jump back
            v.push(TraceInstr::branch(
                InstAddr::new(0x1008),
                4,
                BranchRec::taken(BranchKind::Unconditional, InstAddr::new(0x1000)),
            ));
        }
        let r = model().run(&VecTrace::new("nt", v));
        assert!(r.outcomes.benign_surprises >= 49, "benign={}", r.outcomes.benign_surprises);
        assert_eq!(r.penalties.mispredict, 0);
    }

    #[test]
    fn cpi_is_cycles_over_instructions() {
        let r = model().run(&loop_trace(100));
        assert!((r.cpi() - r.cycles as f64 / r.instructions as f64).abs() < 1e-12);
        assert!(r.cpi() > 0.0);
    }

    /// Replays `trace` whole through one group of `models`.
    fn replay_lanes(models: Vec<CoreModel>, trace: &CompactTrace) -> Vec<CoreResult> {
        let mut group = LaneGroup::new(models);
        group.replay(trace, ReplayPlan::Whole, |_, _, _| {});
        group.finish(trace.name())
    }

    /// One lane's measures of a windowed replay.
    fn window_measures(
        model: CoreModel,
        trace: &CompactTrace,
        windows: &[(u64, u64)],
        warmup: u64,
    ) -> Vec<WindowMeasure> {
        let mut group = LaneGroup::new(vec![model]);
        group.replay(trace, ReplayPlan::Windows { windows, warmup }, |_, _, _| {});
        group.measures(0).to_vec()
    }

    #[test]
    fn whole_trace_window_matches_full_replay_exactly() {
        let trace = loop_trace(2000);
        let compact = CompactTrace::capture(&trace).unwrap();
        let full = model().run(&trace);
        let measures = window_measures(model(), &compact, &[(0, u64::MAX)], 0);
        assert_eq!(measures.len(), 1);
        let w = measures[0];
        assert_eq!(w.start, 0);
        assert_eq!(w.instructions, full.instructions);
        assert_eq!(w.cycles, full.cycles);
        assert_eq!(w.dir_mispredicts, full.outcomes.mispredict_direction);
        assert_eq!(w.target_mispredicts, full.outcomes.mispredict_target);
        assert!((w.cpi() - full.cpi()).abs() < 1e-12);
        // A whole replay is that same window.
        let mut group = LaneGroup::new(vec![model()]);
        group.replay(&compact, ReplayPlan::Whole, |_, _, _| {});
        assert_eq!(group.measures(0), &measures[..]);
        assert_eq!(group.finish(compact.name()), vec![full]);
    }

    #[test]
    fn windowed_replay_is_deterministic_and_respects_bounds() {
        use zbp_trace::profile::WorkloadProfile;
        let trace = WorkloadProfile::tpf_airline().build_with_len(11, 60_000);
        let compact = CompactTrace::capture(&trace).unwrap();
        let windows = [(5_000u64, 4_000u64), (20_000, 4_000), (50_000, 4_000)];
        let a = window_measures(model(), &compact, &windows, 1_000);
        let b = window_measures(model(), &compact, &windows, 1_000);
        assert_eq!(a, b, "windowed replay must be deterministic");
        assert_eq!(a.len(), 3);
        for (w, &(start, len)) in a.iter().zip(&windows) {
            assert_eq!(w.start, start);
            // Edges land on run boundaries: entry and exit each slip
            // by at most one run, so the measured length stays within
            // a run of the nominal window.
            assert!(w.instructions >= len - 1_000, "window at {start} measured {}", w.instructions);
            assert!(w.instructions < len + 1_000, "overshoot {}", w.instructions);
            assert!(w.cycles > 0);
        }
        // A warmup-free run differs (cold predictor at window entry).
        let cold = window_measures(model(), &compact, &windows, 0);
        assert_ne!(a, cold);
        // A window past the end of the trace is never reached.
        let beyond = window_measures(model(), &compact, &[(5_000, 4_000), (90_000, 10)], 0);
        assert_eq!(beyond.len(), 1);
        assert_eq!(beyond[0], cold[0]);
    }

    #[test]
    #[should_panic(expected = "unsorted or overlapping")]
    fn windowed_replay_rejects_overlap() {
        let compact = CompactTrace::capture(&loop_trace(100)).unwrap();
        let _ = window_measures(model(), &compact, &[(0, 50), (20, 30)], 0);
    }

    #[test]
    #[should_panic(expected = "empty window")]
    fn windowed_replay_rejects_empty_windows() {
        let compact = CompactTrace::capture(&loop_trace(100)).unwrap();
        let _ = window_measures(model(), &compact, &[(0, 50), (60, 0)], 0);
    }

    #[test]
    fn multi_lane_windows_match_width_one_groups() {
        use zbp_trace::profile::WorkloadProfile;
        let trace = WorkloadProfile::zos_lspr_cb84().build_with_len(5, 50_000);
        let compact = CompactTrace::capture(&trace).unwrap();
        let windows = [(2_000u64, 3_000u64), (9_000, 6_000), (15_000, 1), (30_000, 40_000)];
        let mut small_lines = UarchConfig::zec12();
        small_lines.l1i.line_bytes = 64;
        let lanes = || {
            lane_configs()
                .into_iter()
                .map(|pc| CoreModel::new(UarchConfig::zec12(), pc))
                .chain([CoreModel::new(small_lines, PredictorConfig::zec12())])
        };
        let mut group = LaneGroup::new(lanes().collect());
        group.replay(
            &compact,
            ReplayPlan::Windows { windows: &windows, warmup: 1_500 },
            |_, _, _| {},
        );
        for (i, lane) in lanes().enumerate() {
            let alone = window_measures(lane, &compact, &windows, 1_500);
            assert_eq!(alone.len(), windows.len(), "the last window ends with the trace");
            assert_eq!(group.measures(i), &alone[..], "lane {i}");
        }
    }

    #[test]
    fn empty_trace_is_harmless() {
        let r = model().run(&VecTrace::default());
        assert_eq!(r.instructions, 0);
        assert_eq!(r.cycles, 0);
        assert_eq!(r.cpi(), 0.0);
    }

    #[test]
    fn wrong_path_records_do_not_retire() {
        let mut v = loop_trace(100).into_records();
        // Interleave off-path noise: it must not perturb anything.
        for k in 0..v.len() / 7 {
            v.insert(
                k * 8,
                TraceInstr::plain(InstAddr::new(0x9000 + k as u64 * 2), 2).wrong_path(),
            );
        }
        let noisy = model().run(&VecTrace::new("loop", v));
        let clean = model().run(&loop_trace(100));
        assert_eq!(noisy, clean);
    }

    /// The lane configurations the lane tests sweep: differing BTB
    /// geometries stress per-lane predictor isolation.
    fn lane_configs() -> Vec<PredictorConfig> {
        vec![
            PredictorConfig::zec12(),
            PredictorConfig::no_btb2(),
            PredictorConfig::large_btb1(),
            PredictorConfig::zec12(), // duplicate lane: must still isolate
        ]
    }

    #[test]
    fn lane_replay_is_bit_identical_to_record_replay() {
        use zbp_trace::profile::WorkloadProfile;
        for (seed, len) in [(7u64, 40_000u64), (0xEC12, 25_000)] {
            for p in [WorkloadProfile::tpf_airline(), WorkloadProfile::zos_lspr_cb84()] {
                let gen = p.build_with_len(seed, len);
                let compact = CompactTrace::capture(&gen).expect("encodable");
                let lanes = lane_configs()
                    .into_iter()
                    .map(|pc| CoreModel::new(UarchConfig::zec12(), pc))
                    .collect();
                let batched = replay_lanes(lanes, &compact);
                for (lane, pc) in batched.iter().zip(lane_configs()) {
                    let alone = replay_lanes(
                        vec![CoreModel::new(UarchConfig::zec12(), pc.clone())],
                        &compact,
                    );
                    let by_record = CoreModel::new(UarchConfig::zec12(), pc).run(&gen);
                    assert_eq!(*lane, by_record, "{} seed {seed:#x}", gen.name());
                    assert_eq!(alone, vec![by_record], "{} seed {seed:#x}", gen.name());
                }
            }
        }
    }

    #[test]
    fn lane_replay_handles_discontinuities_and_empty_runs() {
        // Back-to-back branches (empty runs), a discontinuity, and a
        // trailing branchless tail.
        let mut v = Vec::new();
        let b = |a: u64, t: u64| {
            TraceInstr::branch(
                InstAddr::new(a),
                4,
                BranchRec::taken(BranchKind::Unconditional, InstAddr::new(t)),
            )
        };
        v.push(b(0x1000, 0x2000));
        v.push(b(0x2000, 0x3000)); // empty run between branches
        v.push(TraceInstr::plain(InstAddr::new(0x9000), 4)); // discontinuity
        for i in 0..600u64 {
            v.push(TraceInstr::plain(InstAddr::new(0x9004 + i * 6), 6));
        }
        let vt = VecTrace::new("disc", v);
        let compact = CompactTrace::capture(&vt).unwrap();
        let no_btb2 = || CoreModel::new(UarchConfig::zec12(), PredictorConfig::no_btb2());
        let batched = replay_lanes(vec![model(), no_btb2()], &compact);
        assert_eq!(batched, vec![model().run(&vt), no_btb2().run(&vt)]);
    }

    #[test]
    fn lane_replay_with_mixed_line_sizes_stays_bit_identical() {
        use zbp_trace::profile::WorkloadProfile;
        // Lanes with different L1I line sizes decode separate span
        // lists from the same cursor walk; each must match its own
        // record replay exactly.
        let mut small_lines = UarchConfig::zec12();
        small_lines.l1i.line_bytes = 64;
        let gen = WorkloadProfile::tpf_airline().build_with_len(3, 25_000);
        let compact = CompactTrace::capture(&gen).unwrap();
        let small = || CoreModel::new(small_lines, PredictorConfig::zec12());
        let batched = replay_lanes(vec![model(), small()], &compact);
        assert_eq!(batched, vec![model().run(&gen), small().run(&gen)]);
    }

    #[test]
    fn empty_lane_group_is_harmless() {
        let compact = CompactTrace::capture(&loop_trace(50)).unwrap();
        assert!(replay_lanes(Vec::new(), &compact).is_empty());
    }
}

zbp_support::impl_json_struct!(ICacheStats {
    demand_misses,
    late_prefetch_hits,
    prefetches,
    line_accesses,
    wrong_path_fetches,
});
zbp_support::impl_json_struct!(CoreResult {
    name,
    instructions,
    cycles,
    outcomes,
    penalties,
    icache,
    predictor,
    distinct_branches,
});
