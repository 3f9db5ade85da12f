//! BTB1/BTB2 content management policies (§3.3).
//!
//! Capacity-wise the ideal hierarchy is *truly exclusive* — every entry
//! lives in exactly one level — but guaranteeing that costs extra BTB2
//! writes (explicit invalidation of hits) and extra BTBP state (the BTB2
//! way of each hit). The zEC12 instead ships a **semi-exclusive** design:
//!
//! * a BTB2 hit copied into the BTBP is made *LRU* in the BTB2, so a
//!   subsequent BTB1 victim or surprise install most likely replaces it;
//! * a BTB1 victim is written into the BTB2's LRU way and made *MRU*,
//!   so the BTB2 always holds the most recently learned behaviour.
//!
//! The [`ExclusivityPolicy`] enum also provides the true-exclusive and
//! inclusive alternatives the paper argues against, for the
//! `ablation_exclusivity` experiment.

use crate::btb::BtbArray;
use crate::entry::BtbEntry;

/// How BTB2 content relates to first-level content.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExclusivityPolicy {
    /// The shipped design: BTB2 hits become LRU, victims overwrite LRU
    /// ways. Duplicates are possible but short-lived.
    #[default]
    SemiExclusive,
    /// Guaranteed single-copy: BTB2 hits are invalidated when copied into
    /// the first level (costing the extra write the paper avoids).
    TrueExclusive,
    /// The BTB2 retains (and refreshes) everything the first level holds;
    /// victims update the existing BTB2 copy instead of consuming a way.
    Inclusive,
}

impl ExclusivityPolicy {
    /// Whether a BTB2 hit transferred to the BTBP should be invalidated.
    pub const fn invalidate_on_hit(self) -> bool {
        matches!(self, ExclusivityPolicy::TrueExclusive)
    }

    /// Whether a BTB2 hit transferred to the BTBP should be made LRU.
    pub const fn demote_on_hit(self) -> bool {
        matches!(self, ExclusivityPolicy::SemiExclusive)
    }

    /// Whether a first-level prediction should refresh (make MRU) the
    /// corresponding BTB2 entry.
    pub const fn refresh_on_use(self) -> bool {
        matches!(self, ExclusivityPolicy::Inclusive)
    }

    /// Writes a BTB1 victim into the second level.
    pub fn place_victim(self, btb2: &mut BtbArray, victim: BtbEntry, now: u64) {
        match self {
            // Written into the BTB2's LRU way and made MRU.
            ExclusivityPolicy::SemiExclusive | ExclusivityPolicy::TrueExclusive => {
                btb2.insert(victim, now);
            }
            // Refresh the existing copy in place.
            ExclusivityPolicy::Inclusive => {
                if !btb2.update_entry(victim.addr, |e| *e = victim) {
                    btb2.insert(victim, now);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::btb::BtbGeometry;
    use zbp_trace::{BranchKind, InstAddr};

    #[test]
    fn semi_exclusive_demotes_but_keeps_hits() {
        let p = ExclusivityPolicy::SemiExclusive;
        assert!(p.demote_on_hit());
        assert!(!p.invalidate_on_hit());
        assert!(!p.refresh_on_use());
    }

    #[test]
    fn true_exclusive_invalidates_hits() {
        let p = ExclusivityPolicy::TrueExclusive;
        assert!(p.invalidate_on_hit());
        assert!(!p.demote_on_hit());
    }

    #[test]
    fn inclusive_refreshes_on_use() {
        let p = ExclusivityPolicy::Inclusive;
        assert!(p.refresh_on_use());
        assert!(!p.invalidate_on_hit());
        assert!(!p.demote_on_hit());
    }

    #[test]
    fn default_matches_shipped_design() {
        assert_eq!(ExclusivityPolicy::default(), ExclusivityPolicy::SemiExclusive);
    }

    #[test]
    fn place_victim_routes_per_exclusivity() {
        let mut btb2 = BtbArray::new(BtbGeometry::zec12_btb2());
        let victim = BtbEntry::surprise_install(
            InstAddr::new(0x1000),
            InstAddr::new(0x5000),
            BranchKind::Conditional,
            true,
        );
        ExclusivityPolicy::SemiExclusive.place_victim(&mut btb2, victim, 0);
        assert!(btb2.lookup(victim.addr, u64::MAX).is_some());
        // Inclusive refreshes the stored copy in place instead of
        // consuming another way.
        let mut updated = victim;
        updated.target = InstAddr::new(0x9999);
        ExclusivityPolicy::Inclusive.place_victim(&mut btb2, updated, 0);
        let hit = btb2.lookup(victim.addr, u64::MAX).unwrap();
        assert_eq!(hit.entry.target, InstAddr::new(0x9999));
        assert_eq!(btb2.occupancy(), 1);
    }
}

zbp_support::impl_json_enum!(ExclusivityPolicy { SemiExclusive, TrueExclusive, Inclusive });
