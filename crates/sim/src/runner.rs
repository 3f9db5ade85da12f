//! Single-run simulation driver.

use crate::config::SimConfig;
use zbp_trace::{CompactTrace, Trace};
use zbp_uarch::core::{CoreModel, CoreResult, LaneGroup, ReplayPlan};

/// A configured simulator, ready to replay traces.
#[derive(Debug, Clone)]
pub struct Simulator {
    config: SimConfig,
}

/// Result of one simulation: the core-model result plus the
/// configuration it ran under.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// Name of the configuration.
    pub config_name: String,
    /// The core model's measurements.
    pub core: CoreResult,
}

impl SimResult {
    /// Cycles per instruction.
    pub fn cpi(&self) -> f64 {
        self.core.cpi()
    }

    /// Percentage CPI improvement of this run over a baseline run of the
    /// same trace: positive means this run is faster.
    pub fn improvement_over(&self, baseline: &SimResult) -> f64 {
        100.0 * (1.0 - self.cpi() / baseline.cpi())
    }
}

impl Simulator {
    /// Creates a simulator for the given configuration.
    pub fn new(config: SimConfig) -> Self {
        Self { config }
    }

    /// The configuration.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Replays `trace` and returns the result.
    pub fn run<T: Trace>(&self, trace: &T) -> SimResult {
        Self::run_config(&self.config, trace)
    }

    /// Replays `trace` under a borrowed configuration, without cloning
    /// it into a [`Simulator`] first (grid runs share one config per
    /// column across every workload row).
    pub fn run_config<T: Trace>(config: &SimConfig, trace: &T) -> SimResult {
        let model = CoreModel::new(config.uarch, config.predictor.clone());
        SimResult { config_name: config.name.clone(), core: model.run(trace) }
    }

    /// Replays one compact capture under several borrowed
    /// configurations through the decode-once lane kernel
    /// ([`LaneGroup`]): the trace is walked and decoded once, with every
    /// configuration riding the shared decode as an isolated lane. Each
    /// result is bit-identical to [`Self::run_config`] on the
    /// equivalent record stream.
    pub fn run_configs_compact_lanes(
        configs: &[&SimConfig],
        trace: &CompactTrace,
    ) -> Vec<SimResult> {
        let mut group = LaneGroup::new(
            configs.iter().map(|c| CoreModel::new(c.uarch, c.predictor.clone())).collect(),
        );
        group.replay(trace, ReplayPlan::Whole, |_, _, _| {});
        group
            .finish(trace.name())
            .into_iter()
            .zip(configs)
            .map(|(core, c)| SimResult { config_name: c.name.clone(), core })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zbp_trace::profile::WorkloadProfile;

    #[test]
    fn runs_a_profile_trace() {
        let trace = WorkloadProfile::tpf_airline().build_with_len(1, 30_000);
        let r = Simulator::new(SimConfig::no_btb2()).run(&trace);
        assert_eq!(r.core.instructions, 30_000);
        assert!(r.cpi() > 0.5, "cpi={}", r.cpi());
        assert_eq!(r.config_name, "No BTB2");
    }

    #[test]
    fn improvement_math() {
        let trace = WorkloadProfile::tpf_airline().build_with_len(1, 20_000);
        let a = Simulator::new(SimConfig::no_btb2()).run(&trace);
        let same = Simulator::new(SimConfig::no_btb2()).run(&trace);
        assert!(a.improvement_over(&same).abs() < 1e-9, "identical runs: 0% improvement");
    }

    #[test]
    fn deterministic_across_runs() {
        let trace = WorkloadProfile::zlinux_informix().build_with_len(7, 20_000);
        let s = Simulator::new(SimConfig::btb2_enabled());
        let a = s.run(&trace);
        let b = s.run(&trace);
        assert_eq!(a.core.cycles, b.core.cycles);
        assert_eq!(a.core.outcomes, b.core.outcomes);
    }

    #[test]
    fn lane_batched_replay_matches_record_replay() {
        let trace = WorkloadProfile::tpf_airline().build_with_len(5, 25_000);
        let compact = CompactTrace::capture(&trace).expect("generator streams encode");
        let configs = [SimConfig::no_btb2(), SimConfig::btb2_enabled(), SimConfig::large_btb1()];
        let refs: Vec<&SimConfig> = configs.iter().collect();
        let batched = Simulator::run_configs_compact_lanes(&refs, &compact);
        assert_eq!(batched.len(), configs.len());
        for (lane, config) in batched.iter().zip(&configs) {
            let reference = Simulator::run_config(config, &trace);
            assert_eq!(lane.config_name, reference.config_name);
            assert_eq!(lane.core, reference.core, "{}", config.name);
        }
    }
}

zbp_support::impl_json_struct!(SimResult { config_name, core });
