//! Acceptance test for the lane kernel: every cell of the registry's
//! figure-2 grid must equal, bit for bit, the per-record reference
//! replay ([`Simulator::run_config`]) of the regenerated workload.

use zbp_sim::cache::CellCache;
use zbp_sim::experiments::ExperimentOptions;
use zbp_sim::registry;
use zbp_sim::{SimConfig, Simulator};

#[test]
fn fig2_grid_equals_the_record_reference_cell_by_cell() {
    let spec = registry::find("fig2").expect("fig2 is registered");
    let opts = ExperimentOptions::quick(12_000, 7);
    let session = spec.grid_session(&opts).expect("fig2 is a grid");
    let (grid, stats) = session.run_cached(&CellCache::disabled());
    let configs = SimConfig::table3();
    let names: Vec<String> = configs.iter().map(|c| c.name.clone()).collect();
    assert_eq!(grid.configs(), &names[..], "fig2's columns are the Table-3 configurations");
    let sources = spec.sources(&opts);
    assert_eq!(stats.cells as usize, sources.len() * configs.len());
    for s in &sources {
        let gen = s.build_with_len(opts.seed, opts.len_for_source(s));
        for c in &configs {
            let reference = Simulator::run_config(c, &gen);
            assert_eq!(
                grid.result(s.name(), &c.name).core,
                reference.core,
                "({}, {}): the lane kernel must reproduce the record replay",
                s.name(),
                c.name
            );
        }
    }
}
