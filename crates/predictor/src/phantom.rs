//! Phantom-BTB: the virtualized second level of Burcea & Moshovos
//! (ASPLOS 2009), implemented as a comparison baseline.
//!
//! The paper's §2 positions bulk preloading against predictor
//! virtualization: a "phantom" BTB stores *temporal groups* of evicted /
//! missed branch entries in the ordinary L2 cache and prefetches a group
//! when its trigger address misses again — relying on temporal
//! correlation in the miss stream rather than on spatial (4 KB block)
//! bulk transfers. This module provides a faithful-in-spirit simplified
//! implementation:
//!
//! * groups are formed from the hierarchy's miss/victim stream: a
//!   perceived BTB1 miss opens a group keyed by its address; subsequent
//!   installs and victims fill it (up to [`PhantomConfig::group_size`]);
//! * groups live in a set-associative virtual table whose access costs
//!   [`PhantomConfig::access_latency`] cycles (an L2 round trip — higher
//!   than the dedicated BTB2 array the zEC12 builds);
//! * a trigger hit returns the group's entries for injection into the
//!   BTBP, one per cycle after the latency.
//!
//! The `comparison_phantom` experiment pits this against the paper's
//! design at matched metadata capacity.

use crate::entry::BtbEntry;
use zbp_trace::InstAddr;

/// Phantom-BTB configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhantomConfig {
    /// Maximum entries per temporal group.
    pub group_size: usize,
    /// Number of group slots in the virtual table.
    pub table_groups: usize,
    /// Virtual-table associativity.
    pub ways: usize,
    /// L2 round-trip latency to fetch a group (cycles).
    pub access_latency: u64,
}

impl PhantomConfig {
    /// A phantom BTB with metadata capacity matched to the zEC12 BTB2:
    /// 4096 groups × 6 entries = 24 k entries, fetched at L2-ish latency.
    pub const fn matched_to_btb2() -> Self {
        Self { group_size: 6, table_groups: 4096, ways: 4, access_latency: 40 }
    }
}

impl Default for PhantomConfig {
    fn default() -> Self {
        Self::matched_to_btb2()
    }
}

/// One temporal group.
#[derive(Debug, Clone, PartialEq)]
struct Group {
    /// Trigger line (32 B granularity).
    trigger_line: u64,
    entries: Vec<BtbEntry>,
}

/// Phantom-BTB statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhantomStats {
    /// Groups closed and stored.
    pub groups_stored: u64,
    /// Trigger lookups that hit a stored group.
    pub trigger_hits: u64,
    /// Trigger lookups that missed.
    pub trigger_misses: u64,
    /// Entries handed back for prefetching.
    pub entries_prefetched: u64,
}

/// The virtualized second-level predictor.
#[derive(Debug, Clone)]
pub struct PhantomBtb {
    cfg: PhantomConfig,
    /// Set-associative group table, MRU first per set.
    sets: Vec<Vec<Group>>,
    /// Group currently being filled.
    open: Option<Group>,
    /// Accumulated statistics.
    pub stats: PhantomStats,
}

impl PhantomBtb {
    /// Creates an empty phantom BTB.
    ///
    /// # Panics
    ///
    /// Panics on a degenerate configuration (zero sizes or a
    /// non-power-of-two set count).
    pub fn new(cfg: PhantomConfig) -> Self {
        assert!(cfg.group_size > 0, "group size must be positive");
        assert!(
            cfg.ways > 0 && cfg.table_groups.is_multiple_of(cfg.ways),
            "groups must divide into ways"
        );
        let sets = cfg.table_groups / cfg.ways;
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        Self { cfg, sets: vec![Vec::new(); sets], open: None, stats: PhantomStats::default() }
    }

    /// The configuration.
    pub fn config(&self) -> PhantomConfig {
        self.cfg
    }

    fn set_of(&self, trigger_line: u64) -> usize {
        let h = trigger_line.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        (h >> 17) as usize & (self.sets.len() - 1)
    }

    fn close_open_group(&mut self) {
        let Some(group) = self.open.take() else { return };
        if group.entries.is_empty() {
            return;
        }
        self.stats.groups_stored += 1;
        let set_idx = self.set_of(group.trigger_line);
        let ways = self.cfg.ways;
        let set = &mut self.sets[set_idx];
        if let Some(pos) = set.iter().position(|g| g.trigger_line == group.trigger_line) {
            set.remove(pos);
        }
        set.insert(0, group);
        if set.len() > ways {
            set.pop();
        }
    }

    /// A perceived first-level miss at `addr`: closes any group being
    /// filled and opens a new one triggered by this miss.
    pub fn on_miss(&mut self, addr: InstAddr) {
        self.close_open_group();
        self.open = Some(Group { trigger_line: addr.line(), entries: Vec::new() });
    }

    /// Feeds the miss/victim stream: appends an entry to the open group.
    pub fn record(&mut self, entry: BtbEntry) {
        let full = match &mut self.open {
            Some(g) => {
                if g.entries.iter().all(|e| e.addr != entry.addr) {
                    g.entries.push(entry);
                }
                g.entries.len() >= self.cfg.group_size
            }
            None => false,
        };
        if full {
            self.close_open_group();
        }
    }

    /// Trigger lookup: returns the stored group's entries for
    /// prefetching (MRU-refreshing the group).
    pub fn lookup_trigger(&mut self, addr: InstAddr) -> Option<Vec<BtbEntry>> {
        let line = addr.line();
        let set_idx = self.set_of(line);
        let set = &mut self.sets[set_idx];
        match set.iter().position(|g| g.trigger_line == line) {
            Some(pos) => {
                let g = set.remove(pos);
                let entries = g.entries.clone();
                set.insert(0, g);
                self.stats.trigger_hits += 1;
                self.stats.entries_prefetched += entries.len() as u64;
                Some(entries)
            }
            None => {
                self.stats.trigger_misses += 1;
                None
            }
        }
    }

    /// Groups currently stored.
    pub fn occupancy(&self) -> usize {
        self.sets.iter().map(|s| s.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zbp_trace::BranchKind;

    fn entry(addr: u64) -> BtbEntry {
        BtbEntry::surprise_install(
            InstAddr::new(addr),
            InstAddr::new(addr + 0x40),
            BranchKind::Conditional,
            true,
        )
    }

    fn phantom() -> PhantomBtb {
        PhantomBtb::new(PhantomConfig {
            group_size: 3,
            table_groups: 16,
            ways: 2,
            access_latency: 40,
        })
    }

    #[test]
    fn groups_form_from_the_miss_stream() {
        let mut p = phantom();
        p.on_miss(InstAddr::new(0x1000));
        p.record(entry(0x1010));
        p.record(entry(0x1020));
        // Next miss closes the open group and opens a new one.
        p.on_miss(InstAddr::new(0x5000));
        assert_eq!(p.stats.groups_stored, 1);
        let g = p.lookup_trigger(InstAddr::new(0x1000)).expect("stored group");
        assert_eq!(g.len(), 2);
        assert_eq!(g[0].addr.raw(), 0x1010);
    }

    #[test]
    fn full_groups_close_automatically() {
        let mut p = phantom();
        p.on_miss(InstAddr::new(0x1000));
        for i in 0..5u64 {
            p.record(entry(0x1010 + i * 16));
        }
        // Group size 3: the first 3 entries stored, the rest dropped
        // (no open group).
        assert_eq!(p.stats.groups_stored, 1);
        let g = p.lookup_trigger(InstAddr::new(0x1000)).unwrap();
        assert_eq!(g.len(), 3);
    }

    #[test]
    fn duplicate_entries_within_a_group_collapse() {
        let mut p = phantom();
        p.on_miss(InstAddr::new(0x1000));
        p.record(entry(0x1010));
        p.record(entry(0x1010));
        p.on_miss(InstAddr::new(0x2000));
        let g = p.lookup_trigger(InstAddr::new(0x1000)).unwrap();
        assert_eq!(g.len(), 1);
    }

    #[test]
    fn trigger_granularity_is_the_32b_line() {
        let mut p = phantom();
        p.on_miss(InstAddr::new(0x1000));
        p.record(entry(0x1010));
        p.on_miss(InstAddr::new(0x9000));
        assert!(p.lookup_trigger(InstAddr::new(0x100F)).is_some(), "same line triggers");
        assert!(p.lookup_trigger(InstAddr::new(0x1020)).is_none(), "next line does not");
    }

    #[test]
    fn empty_groups_are_not_stored() {
        let mut p = phantom();
        p.on_miss(InstAddr::new(0x1000));
        p.on_miss(InstAddr::new(0x2000));
        assert_eq!(p.stats.groups_stored, 0);
        assert_eq!(p.occupancy(), 0);
    }

    #[test]
    fn table_replacement_is_lru_per_set() {
        let mut p = PhantomBtb::new(PhantomConfig {
            group_size: 2,
            table_groups: 2,
            ways: 2,
            access_latency: 1,
        });
        for t in [0x1000u64, 0x2000, 0x3000] {
            p.on_miss(InstAddr::new(t));
            p.record(entry(t + 16));
        }
        p.on_miss(InstAddr::new(0x9000)); // close the third group
        assert_eq!(p.occupancy(), 2);
        assert!(p.lookup_trigger(InstAddr::new(0x1000)).is_none(), "oldest evicted");
    }

    #[test]
    fn rewritten_trigger_replaces_the_group() {
        let mut p = phantom();
        p.on_miss(InstAddr::new(0x1000));
        p.record(entry(0x1010));
        p.on_miss(InstAddr::new(0x1000)); // stores, reopens same trigger
        p.record(entry(0x1020));
        p.on_miss(InstAddr::new(0x9000)); // stores the second version
        let g = p.lookup_trigger(InstAddr::new(0x1000)).unwrap();
        assert_eq!(g.len(), 1);
        assert_eq!(g[0].addr.raw(), 0x1020, "latest group wins");
        assert_eq!(p.occupancy(), 1, "no duplicate trigger groups");
    }

    #[test]
    fn matched_capacity_preset() {
        let cfg = PhantomConfig::matched_to_btb2();
        assert_eq!(cfg.group_size * cfg.table_groups, 24 * 1024);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_bad_geometry() {
        PhantomBtb::new(PhantomConfig {
            group_size: 1,
            table_groups: 12,
            ways: 2,
            access_latency: 1,
        });
    }
}

zbp_support::impl_json_struct!(PhantomConfig { group_size, table_groups, ways, access_latency });
zbp_support::impl_json_struct!(PhantomStats {
    groups_stored,
    trigger_hits,
    trigger_misses,
    entries_prefetched,
});
