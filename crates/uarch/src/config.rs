//! Core model configuration (Table 5 plus penalty constants).
//!
//! Table 5 fixes the cache geometry; the penalty constants are *not*
//! published for the zEC12, so this module uses values consistent with
//! the public description of the machine (5.5 GHz, deep pipeline,
//! asynchronous lookahead prediction): they set the absolute CPI scale,
//! while the paper's reported results are all *relative* improvements.

use crate::cache::CacheGeometry;

/// Front-end model configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UarchConfig {
    /// L1 instruction cache (Table 5: 64 KB, 4-way).
    pub l1i: CacheGeometry,
    /// L1 data cache (Table 5: 96 KB, 6-way; reported for completeness,
    /// the front-end model does not exercise it).
    pub l1d: CacheGeometry,
    /// Decode width in instructions per cycle (the zEC12 decodes three).
    pub decode_width: u32,
    /// L1I miss / L2 hit latency in cycles. The paper's model treats the
    /// L2 as infinite, so every L1I miss costs exactly this.
    pub l2_latency: u64,
    /// Full pipeline restart after a resolved misprediction.
    pub mispredict_penalty: u64,
    /// Decode-time redirect for a surprise branch statically guessed
    /// taken with a decode-computable target.
    pub surprise_redirect_penalty: u64,
    /// Penalty for a taken surprise whose target is only known at
    /// execution (returns and indirect branches).
    pub surprise_resolve_penalty: u64,
    /// Decode-to-resolution distance (branch resolution depth).
    pub resolve_delay: u64,
    /// Base cost per instruction beyond decode bandwidth (models the
    /// execution back end the front-end model does not simulate),
    /// in cycles per instruction.
    pub base_cpi_overhead: f64,
    /// Model wrong-path instruction fetch: mispredicted branches pull the
    /// wrong path's cache lines into the L1I until resolution (the
    /// paper's model "simulates what the hardware would encounter down
    /// this path"). Off by default; the `ablation_wrongpath` experiment
    /// studies its effect.
    pub wrong_path_fetch: bool,
    /// Wrong-path lines fetched per misprediction when
    /// [`Self::wrong_path_fetch`] is on.
    pub wrong_path_lines: u32,
}

impl UarchConfig {
    /// zEC12-like defaults.
    pub fn zec12() -> Self {
        Self {
            l1i: CacheGeometry::zec12_l1i(),
            l1d: CacheGeometry::zec12_l1d(),
            decode_width: 3,
            l2_latency: 35,
            mispredict_penalty: 26,
            surprise_redirect_penalty: 13,
            surprise_resolve_penalty: 24,
            resolve_delay: 12,
            base_cpi_overhead: 0.35,
            wrong_path_fetch: false,
            wrong_path_lines: 2,
        }
    }
}

impl Default for UarchConfig {
    fn default() -> Self {
        Self::zec12()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table5_cache_configuration() {
        let c = UarchConfig::zec12();
        assert_eq!(c.l1i.bytes, 64 * 1024);
        assert_eq!(c.l1i.ways, 4);
        assert_eq!(c.l1d.bytes, 96 * 1024);
        assert_eq!(c.l1d.ways, 6);
        assert_eq!(c.decode_width, 3);
    }

    #[test]
    fn penalties_are_ordered_sensibly() {
        let c = UarchConfig::zec12();
        assert!(c.surprise_redirect_penalty < c.surprise_resolve_penalty);
        assert!(c.surprise_resolve_penalty <= c.mispredict_penalty);
    }

    #[test]
    fn serde_roundtrip() {
        let c = UarchConfig::zec12();
        let json = zbp_support::json::to_string(&c);
        assert_eq!(zbp_support::json::from_str::<UarchConfig>(&json).unwrap(), c);
    }
}

zbp_support::impl_json_struct!(UarchConfig {
    l1i,
    l1d,
    decode_width,
    l2_latency,
    mispredict_penalty,
    surprise_redirect_penalty,
    surprise_resolve_penalty,
    resolve_delay,
    base_cpi_overhead,
    wrong_path_fetch,
    wrong_path_lines,
});
