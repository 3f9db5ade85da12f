//! Pluggable direction-prediction backends.
//!
//! The search engine asks one [`DirectionPredictor`] (the trait lives in
//! [`crate::traits`]) for every first-level hit's direction and target.
//! This module owns the backends themselves:
//!
//! * [`PaperDirection`] — the zEC12 stack extracted verbatim from the
//!   engine: the per-entry bimodal counter, the path-indexed PHT
//!   direction override and the CTB target override. The default, and
//!   bit-identical to the pre-refactor goldens.
//! * [`TwoBitCounters`] — a tagless PC-indexed 2-bit counter table, the
//!   classic Smith predictor baseline.
//! * [`TwoLevelLocal`] — Yeh/Patt two-level adaptive prediction: a file
//!   of per-branch history registers indexing a shared pattern table.
//! * [`Gshare`] — McFarling's global-history predictor: one global shift
//!   register XORed with the PC into a 2-bit counter table.
//! * [`Tage`] — a parameterized TAGE with geometric history lengths,
//!   partially tagged tables and usefulness counters (see
//!   [`crate::tage`]).
//!
//! Every backend embeds an [`AuxStack`] — the CTB target override, the
//! surprise BHT and the global path history — so the surprise-guess and
//! target paths are common across backends and the tournament isolates
//! the *direction* algorithm as the experimental variable.
//!
//! [`DirectionBackend`] is the config-driven dispatch enum; adding a
//! backend means a new struct here (or a sibling module), a
//! [`DirectionConfig`] variant and a match arm in the enum.

use crate::bht::{Bimodal2, SurpriseBht};
use crate::config::PredictorConfig;
use crate::ctb::Ctb;
use crate::entry::BtbEntry;
use crate::history::PathHistory;
use crate::pht::Pht;
use crate::statsbus::{Counter, StatsBus};
use crate::tage::Tage;
use crate::traits::{DirDecision, DirectionPredictor, TrainingContext};
use zbp_trace::{BranchKind, InstAddr};

/// Data-driven selection and sizing of a direction backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DirectionConfig {
    /// The paper's PHT/CTB/BHT stack (the default).
    #[default]
    Paper,
    /// Tagless PC-indexed 2-bit counters.
    TwoBit {
        /// Counter table entries (power of two).
        entries: usize,
    },
    /// Two-level adaptive prediction with per-branch local histories.
    TwoLevelLocal {
        /// Local history registers (power of two).
        regs: usize,
        /// Bits of local history per register.
        history_bits: u32,
        /// Pattern table entries (power of two, `>= 2^history_bits`).
        pht_entries: usize,
    },
    /// Global history XOR PC into a shared counter table.
    Gshare {
        /// Global history bits folded into the index.
        history_bits: u32,
        /// Counter table entries (power of two).
        entries: usize,
    },
    /// Tagged geometric-history-length predictor.
    Tage {
        /// Base (bimodal) table entries (power of two).
        base_entries: usize,
        /// Number of tagged tables.
        tables: usize,
        /// Entries per tagged table (power of two).
        table_entries: usize,
        /// Partial tag width in bits (`<= 16`).
        tag_bits: u32,
        /// Shortest geometric history length.
        min_history: u32,
        /// Longest geometric history length (`<= 128`).
        max_history: u32,
    },
}

impl DirectionConfig {
    /// The tournament's default 2-bit counter sizing (16 k entries —
    /// 32 kbit of state, matching the surprise BHT budget).
    pub fn two_bit() -> Self {
        Self::TwoBit { entries: 16 * 1024 }
    }

    /// The tournament's default two-level local sizing (1 k registers of
    /// 10 bits into a 16 k-entry pattern table).
    pub fn two_level_local() -> Self {
        Self::TwoLevelLocal { regs: 1024, history_bits: 10, pht_entries: 16 * 1024 }
    }

    /// The tournament's default gshare sizing (14 bits of global history
    /// over 16 k counters).
    pub fn gshare() -> Self {
        Self::Gshare { history_bits: 14, entries: 16 * 1024 }
    }

    /// The tournament's default TAGE sizing: a 4 k bimodal base plus four
    /// 1 k-entry tagged tables with history lengths 4..64.
    pub fn tage() -> Self {
        Self::Tage {
            base_entries: 4096,
            tables: 4,
            table_entries: 1024,
            tag_bits: 11,
            min_history: 4,
            max_history: 64,
        }
    }

    /// Short stable identifier (report rows, config names).
    pub fn label(&self) -> &'static str {
        match self {
            Self::Paper => "paper",
            Self::TwoBit { .. } => "two-bit",
            Self::TwoLevelLocal { .. } => "two-level-local",
            Self::Gshare { .. } => "gshare",
            Self::Tage { .. } => "tage",
        }
    }
}

zbp_support::impl_json_enum!(DirectionConfig {
    Paper,
    TwoBit { entries },
    TwoLevelLocal { regs, history_bits, pht_entries },
    Gshare { history_bits, entries },
    Tage { base_entries, tables, table_entries, tag_bits, min_history, max_history },
});

/// The auxiliary prediction state every backend carries: the CTB target
/// override, the surprise-guess BHT and the global path history feeding
/// both. Shared so backend comparisons vary only the direction
/// algorithm.
#[derive(Debug, Clone)]
pub struct AuxStack {
    /// Path-indexed target override.
    pub ctb: Ctb,
    /// Tagless static-guess table for surprise branches.
    pub surprise_bht: SurpriseBht,
    /// Global path history feeding the CTB (and PHT) indices.
    pub history: PathHistory,
}

impl AuxStack {
    /// Builds the auxiliary stack from the configuration.
    pub fn new(cfg: &PredictorConfig) -> Self {
        Self {
            ctb: Ctb::new(cfg.ctb_entries),
            surprise_bht: SurpriseBht::new(cfg.surprise_bht_entries),
            history: PathHistory::new(),
        }
    }
}

/// The paper's direction stack: the entry's bimodal counter, possibly
/// overridden by the tagged, path-indexed PHT (§3.1).
#[derive(Debug, Clone)]
pub struct PaperDirection {
    aux: AuxStack,
    /// Path-indexed direction override.
    pub pht: Pht,
}

impl PaperDirection {
    /// Builds the paper stack from the configuration.
    pub fn new(cfg: &PredictorConfig) -> Self {
        Self { aux: AuxStack::new(cfg), pht: Pht::new(cfg.pht_entries) }
    }
}

impl DirectionPredictor for PaperDirection {
    fn aux(&self) -> &AuxStack {
        &self.aux
    }

    fn aux_mut(&mut self) -> &mut AuxStack {
        &mut self.aux
    }

    fn predict(&mut self, entry: &BtbEntry, addr: InstAddr, bus: &mut StatsBus) -> DirDecision {
        // Direction: bimodal, possibly overridden by the PHT.
        let bht_dir = entry.bht_taken();
        let mut taken = bht_dir;
        let mut used_dir = false;
        if entry.use_pht {
            let idx = self.aux.history.pht_index(self.pht.len());
            if let Some(dir) = self.pht.lookup(idx, PathHistory::tag_for(addr)) {
                used_dir = true;
                if dir != bht_dir {
                    bus.bump(Counter::PhtOverrides);
                }
                taken = dir;
            }
        }
        DirDecision { taken, used_dir }
    }

    fn train(&mut self, cx: &TrainingContext, _bus: &mut StatsBus) {
        // Index folded against the pre-branch history (`finish_resolve`
        // has not pushed yet), computed only on the training paths —
        // most branches train nothing, and the folds are the costliest
        // part of resolution.
        if cx.bht_mispredicted || cx.used_dir {
            let idx = self.aux.history.pht_index(self.pht.len());
            self.pht.update(idx, PathHistory::tag_for(cx.addr), cx.taken, cx.bht_mispredicted);
        }
    }

    fn finish_resolve(
        &mut self,
        addr: InstAddr,
        taken: bool,
        _kind: BranchKind,
        _bus: &mut StatsBus,
    ) {
        self.aux.history.push(addr, taken);
    }
}

/// Tagless PC-indexed 2-bit counter table (the classic Smith predictor).
#[derive(Debug, Clone)]
pub struct TwoBitCounters {
    aux: AuxStack,
    table: Vec<Bimodal2>,
    mask: u64,
}

impl TwoBitCounters {
    /// Builds a table of `entries` counters (power of two).
    pub fn new(cfg: &PredictorConfig, entries: usize) -> Self {
        assert!(entries.is_power_of_two(), "two-bit table size must be a power of two");
        Self {
            aux: AuxStack::new(cfg),
            table: vec![Bimodal2::weak_not_taken(); entries],
            mask: entries as u64 - 1,
        }
    }

    fn index(&self, addr: InstAddr) -> usize {
        // Instructions are halfword aligned; drop the trivial zero bit.
        ((addr.raw() >> 1) & self.mask) as usize
    }
}

impl DirectionPredictor for TwoBitCounters {
    fn aux(&self) -> &AuxStack {
        &self.aux
    }

    fn aux_mut(&mut self) -> &mut AuxStack {
        &mut self.aux
    }

    fn predict(&mut self, entry: &BtbEntry, addr: InstAddr, bus: &mut StatsBus) -> DirDecision {
        let taken = self.table[self.index(addr)].taken();
        if taken != entry.bht_taken() {
            bus.bump(Counter::DirectionOverrides);
        }
        DirDecision { taken, used_dir: true }
    }

    fn train(&mut self, _cx: &TrainingContext, _bus: &mut StatsBus) {
        // The counter table trains on every resolved conditional in
        // `finish_resolve`, surprises included.
    }

    fn finish_resolve(
        &mut self,
        addr: InstAddr,
        taken: bool,
        kind: BranchKind,
        _bus: &mut StatsBus,
    ) {
        if kind.is_conditional() {
            let i = self.index(addr);
            self.table[i] = self.table[i].update(taken);
        }
        self.aux.history.push(addr, taken);
    }
}

/// Yeh/Patt two-level adaptive prediction: per-branch history registers
/// select a pattern in a shared 2-bit counter table.
#[derive(Debug, Clone)]
pub struct TwoLevelLocal {
    aux: AuxStack,
    /// Per-branch local history registers.
    local: Vec<u16>,
    reg_mask: u64,
    history_bits: u32,
    history_mask: u16,
    /// Pattern table, organized as PC sets × 2^history_bits patterns.
    pht: Vec<Bimodal2>,
    set_mask: u64,
}

impl TwoLevelLocal {
    /// Builds `regs` history registers of `history_bits` bits over a
    /// `pht_entries`-counter pattern table.
    pub fn new(cfg: &PredictorConfig, regs: usize, history_bits: u32, pht_entries: usize) -> Self {
        assert!(regs.is_power_of_two(), "local register count must be a power of two");
        assert!(pht_entries.is_power_of_two(), "pattern table size must be a power of two");
        assert!(history_bits <= 16, "local history registers are 16 bits wide");
        assert!(
            pht_entries >= (1 << history_bits),
            "pattern table must hold at least one full history's patterns"
        );
        let sets = pht_entries >> history_bits;
        Self {
            aux: AuxStack::new(cfg),
            local: vec![0; regs],
            reg_mask: regs as u64 - 1,
            history_bits,
            history_mask: ((1u32 << history_bits) - 1) as u16,
            pht: vec![Bimodal2::weak_not_taken(); pht_entries],
            set_mask: sets as u64 - 1,
        }
    }

    fn reg_index(&self, addr: InstAddr) -> usize {
        ((addr.raw() >> 1) & self.reg_mask) as usize
    }

    fn pht_index(&self, addr: InstAddr) -> usize {
        let set = (addr.raw() >> 1) & self.set_mask;
        let hist = u64::from(self.local[self.reg_index(addr)]);
        ((set << self.history_bits) | hist) as usize
    }
}

impl DirectionPredictor for TwoLevelLocal {
    fn aux(&self) -> &AuxStack {
        &self.aux
    }

    fn aux_mut(&mut self) -> &mut AuxStack {
        &mut self.aux
    }

    fn predict(&mut self, entry: &BtbEntry, addr: InstAddr, bus: &mut StatsBus) -> DirDecision {
        let taken = self.pht[self.pht_index(addr)].taken();
        if taken != entry.bht_taken() {
            bus.bump(Counter::DirectionOverrides);
        }
        DirDecision { taken, used_dir: true }
    }

    fn train(&mut self, _cx: &TrainingContext, _bus: &mut StatsBus) {
        // Pattern table and local registers train in `finish_resolve`.
    }

    fn finish_resolve(
        &mut self,
        addr: InstAddr,
        taken: bool,
        kind: BranchKind,
        _bus: &mut StatsBus,
    ) {
        if kind.is_conditional() {
            let i = self.pht_index(addr);
            self.pht[i] = self.pht[i].update(taken);
            let r = self.reg_index(addr);
            self.local[r] = ((self.local[r] << 1) | u16::from(taken)) & self.history_mask;
        }
        self.aux.history.push(addr, taken);
    }
}

/// McFarling's gshare: global history XOR PC indexes a shared 2-bit
/// counter table.
#[derive(Debug, Clone)]
pub struct Gshare {
    aux: AuxStack,
    /// Global direction history, bit 0 = most recent.
    ghr: u64,
    ghr_mask: u64,
    table: Vec<Bimodal2>,
    mask: u64,
}

impl Gshare {
    /// Builds a gshare with `history_bits` of global history over an
    /// `entries`-counter table.
    pub fn new(cfg: &PredictorConfig, history_bits: u32, entries: usize) -> Self {
        assert!(entries.is_power_of_two(), "gshare table size must be a power of two");
        assert!(history_bits <= 63, "gshare history register is 64 bits wide");
        Self {
            aux: AuxStack::new(cfg),
            ghr: 0,
            ghr_mask: (1u64 << history_bits) - 1,
            table: vec![Bimodal2::weak_not_taken(); entries],
            mask: entries as u64 - 1,
        }
    }

    fn index(&self, addr: InstAddr) -> usize {
        (((addr.raw() >> 1) ^ self.ghr) & self.mask) as usize
    }
}

impl DirectionPredictor for Gshare {
    fn aux(&self) -> &AuxStack {
        &self.aux
    }

    fn aux_mut(&mut self) -> &mut AuxStack {
        &mut self.aux
    }

    fn predict(&mut self, entry: &BtbEntry, addr: InstAddr, bus: &mut StatsBus) -> DirDecision {
        let taken = self.table[self.index(addr)].taken();
        if taken != entry.bht_taken() {
            bus.bump(Counter::DirectionOverrides);
        }
        DirDecision { taken, used_dir: true }
    }

    fn train(&mut self, _cx: &TrainingContext, _bus: &mut StatsBus) {
        // Counter table and global history train in `finish_resolve`.
    }

    fn finish_resolve(
        &mut self,
        addr: InstAddr,
        taken: bool,
        kind: BranchKind,
        _bus: &mut StatsBus,
    ) {
        // The index is recomputed here against the same pre-update
        // history `predict` saw: the core resolves each branch before
        // the next predict, so the states agree.
        if kind.is_conditional() {
            let i = self.index(addr);
            self.table[i] = self.table[i].update(taken);
        }
        self.ghr = ((self.ghr << 1) | u64::from(taken)) & self.ghr_mask;
        self.aux.history.push(addr, taken);
    }
}

/// The configured direction backend (static dispatch over every
/// implementation).
#[derive(Debug, Clone)]
pub enum DirectionBackend {
    /// The paper's PHT/CTB/BHT stack.
    Paper(PaperDirection),
    /// PC-indexed 2-bit counters.
    TwoBit(TwoBitCounters),
    /// Two-level adaptive local prediction.
    TwoLevelLocal(TwoLevelLocal),
    /// Global-history gshare.
    Gshare(Gshare),
    /// Tagged geometric-history TAGE.
    Tage(Tage),
}

impl DirectionBackend {
    /// Builds the backend selected by `cfg.direction`.
    pub fn new(cfg: &PredictorConfig) -> Self {
        match cfg.direction {
            DirectionConfig::Paper => Self::Paper(PaperDirection::new(cfg)),
            DirectionConfig::TwoBit { entries } => Self::TwoBit(TwoBitCounters::new(cfg, entries)),
            DirectionConfig::TwoLevelLocal { regs, history_bits, pht_entries } => {
                Self::TwoLevelLocal(TwoLevelLocal::new(cfg, regs, history_bits, pht_entries))
            }
            DirectionConfig::Gshare { history_bits, entries } => {
                Self::Gshare(Gshare::new(cfg, history_bits, entries))
            }
            DirectionConfig::Tage {
                base_entries,
                tables,
                table_entries,
                tag_bits,
                min_history,
                max_history,
            } => Self::Tage(Tage::new(
                cfg,
                base_entries,
                tables,
                table_entries,
                tag_bits,
                min_history,
                max_history,
            )),
        }
    }

    /// The paper backend's PHT, when active (diagnostics).
    pub fn pht(&self) -> Option<&Pht> {
        match self {
            Self::Paper(p) => Some(&p.pht),
            _ => None,
        }
    }
}

/// Delegates one method call to whichever backend is active.
macro_rules! each_backend {
    ($self:expr, $b:ident => $e:expr) => {
        match $self {
            DirectionBackend::Paper($b) => $e,
            DirectionBackend::TwoBit($b) => $e,
            DirectionBackend::TwoLevelLocal($b) => $e,
            DirectionBackend::Gshare($b) => $e,
            DirectionBackend::Tage($b) => $e,
        }
    };
}

impl DirectionPredictor for DirectionBackend {
    fn aux(&self) -> &AuxStack {
        each_backend!(self, b => b.aux())
    }

    fn aux_mut(&mut self) -> &mut AuxStack {
        each_backend!(self, b => b.aux_mut())
    }

    fn predict(&mut self, entry: &BtbEntry, addr: InstAddr, bus: &mut StatsBus) -> DirDecision {
        each_backend!(self, b => b.predict(entry, addr, bus))
    }

    fn train(&mut self, cx: &TrainingContext, bus: &mut StatsBus) {
        each_backend!(self, b => b.train(cx, bus))
    }

    fn finish_resolve(
        &mut self,
        addr: InstAddr,
        taken: bool,
        kind: BranchKind,
        bus: &mut StatsBus,
    ) {
        each_backend!(self, b => b.finish_resolve(addr, taken, kind, bus))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cond_entry(addr: u64, taken: bool) -> BtbEntry {
        BtbEntry::surprise_install(
            InstAddr::new(addr),
            InstAddr::new(addr + 0x40),
            BranchKind::Conditional,
            taken,
        )
    }

    fn cfg_with(direction: DirectionConfig) -> PredictorConfig {
        PredictorConfig { direction, ..PredictorConfig::zec12() }
    }

    #[test]
    fn direction_config_roundtrips_through_json() {
        for dc in [
            DirectionConfig::Paper,
            DirectionConfig::two_bit(),
            DirectionConfig::two_level_local(),
            DirectionConfig::gshare(),
            DirectionConfig::tage(),
        ] {
            let json = zbp_support::json::to_string(&dc);
            let back: DirectionConfig = zbp_support::json::from_str(&json).unwrap();
            assert_eq!(dc, back, "{json}");
        }
    }

    #[test]
    fn labels_are_distinct() {
        let labels: Vec<_> = [
            DirectionConfig::Paper,
            DirectionConfig::two_bit(),
            DirectionConfig::two_level_local(),
            DirectionConfig::gshare(),
            DirectionConfig::tage(),
        ]
        .iter()
        .map(|d| d.label())
        .collect();
        let mut unique = labels.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), labels.len());
    }

    #[test]
    fn backend_construction_matches_config() {
        assert!(matches!(
            DirectionBackend::new(&cfg_with(DirectionConfig::Paper)),
            DirectionBackend::Paper(_)
        ));
        assert!(matches!(
            DirectionBackend::new(&cfg_with(DirectionConfig::two_bit())),
            DirectionBackend::TwoBit(_)
        ));
        assert!(matches!(
            DirectionBackend::new(&cfg_with(DirectionConfig::two_level_local())),
            DirectionBackend::TwoLevelLocal(_)
        ));
        assert!(matches!(
            DirectionBackend::new(&cfg_with(DirectionConfig::gshare())),
            DirectionBackend::Gshare(_)
        ));
        assert!(matches!(
            DirectionBackend::new(&cfg_with(DirectionConfig::tage())),
            DirectionBackend::Tage(_)
        ));
    }

    #[test]
    fn two_bit_learns_a_biased_branch() {
        let cfg = cfg_with(DirectionConfig::TwoBit { entries: 64 });
        let mut b = TwoBitCounters::new(&cfg, 64);
        let mut bus = StatsBus::new();
        let addr = InstAddr::new(0x100);
        let entry = cond_entry(0x100, false);
        assert!(!b.predict(&entry, addr, &mut bus).taken);
        for _ in 0..4 {
            b.finish_resolve(addr, true, BranchKind::Conditional, &mut bus);
        }
        assert!(b.predict(&entry, addr, &mut bus).taken);
    }

    #[test]
    fn two_bit_counts_disagreements_with_the_entry() {
        let cfg = cfg_with(DirectionConfig::TwoBit { entries: 64 });
        let mut b = TwoBitCounters::new(&cfg, 64);
        let mut bus = StatsBus::new();
        // Entry says taken, the cold counter says not-taken: an override.
        let entry = cond_entry(0x100, true);
        b.predict(&entry, InstAddr::new(0x100), &mut bus);
        assert_eq!(bus.get(Counter::DirectionOverrides), 1);
    }

    #[test]
    fn two_level_local_learns_an_alternating_pattern() {
        let cfg = cfg_with(DirectionConfig::two_level_local());
        let mut b = TwoLevelLocal::new(&cfg, 64, 8, 4096);
        let mut bus = StatsBus::new();
        let addr = InstAddr::new(0x200);
        let entry = cond_entry(0x200, false);
        // Warm up a strict alternation: after training, the pattern table
        // entry reached from "last bit was taken" predicts not-taken and
        // vice versa.
        let mut taken = false;
        for _ in 0..200 {
            b.finish_resolve(addr, taken, BranchKind::Conditional, &mut bus);
            taken = !taken;
        }
        // Whatever phase we stopped in, the prediction must match the
        // alternation's next step.
        let next = taken;
        assert_eq!(b.predict(&entry, addr, &mut bus).taken, next);
    }

    #[test]
    fn gshare_separates_contexts_a_two_bit_table_aliases() {
        let cfg = cfg_with(DirectionConfig::gshare());
        let mut b = Gshare::new(&cfg, 8, 1024);
        let mut bus = StatsBus::new();
        let addr = InstAddr::new(0x300);
        // Outcome depends on the previous branch's direction: global
        // history disambiguates what a PC-only index cannot.
        for round in 0..200u32 {
            let context_taken = round % 2 == 0;
            b.finish_resolve(
                InstAddr::new(0x500),
                context_taken,
                BranchKind::Conditional,
                &mut bus,
            );
            b.finish_resolve(addr, context_taken, BranchKind::Conditional, &mut bus);
        }
        let entry = cond_entry(0x300, false);
        b.finish_resolve(InstAddr::new(0x500), true, BranchKind::Conditional, &mut bus);
        assert!(b.predict(&entry, addr, &mut bus).taken);
        b.finish_resolve(addr, true, BranchKind::Conditional, &mut bus);
        b.finish_resolve(InstAddr::new(0x500), false, BranchKind::Conditional, &mut bus);
        assert!(!b.predict(&entry, addr, &mut bus).taken);
    }

    #[test]
    fn unconditional_resolves_leave_direction_tables_alone() {
        let cfg = cfg_with(DirectionConfig::TwoBit { entries: 64 });
        let mut b = TwoBitCounters::new(&cfg, 64);
        let mut bus = StatsBus::new();
        let addr = InstAddr::new(0x100);
        for _ in 0..4 {
            b.finish_resolve(addr, true, BranchKind::Unconditional, &mut bus);
        }
        let entry = cond_entry(0x100, false);
        assert!(!b.predict(&entry, addr, &mut bus).taken, "unconditionals must not train");
    }

    #[test]
    fn default_target_override_follows_the_ctb() {
        // The provided target path is shared: train the CTB through the
        // trait defaults and observe the override on a use_ctb entry.
        let cfg = cfg_with(DirectionConfig::two_bit());
        let mut b = DirectionBackend::new(&cfg);
        let mut bus = StatsBus::new();
        let addr = InstAddr::new(0x400);
        let mut entry = cond_entry(0x400, true);
        entry.use_ctb = true;
        let resolved = InstAddr::new(0x9000);
        let cx = TrainingContext {
            addr,
            taken: true,
            target: resolved,
            kind: BranchKind::Indirect,
            bht_mispredicted: false,
            target_mispredicted: true,
            used_dir: false,
            used_ctb: false,
        };
        b.train_target(&cx);
        let (target, used_ctb) = b.target_override(&entry, addr, &mut bus);
        assert!(used_ctb);
        assert_eq!(target, resolved);
        assert_eq!(bus.get(Counter::CtbOverrides), 1);
    }
}
