//! The offline compile pipeline behind `Catalog::build`, re-run step by
//! step so the traced run can time each layer: RTL generation,
//! decomposition, partitioning and registration in the mapping database.

use vfpga_accel::{
    generate_rtl, leaf_resource_estimator, CONTROL_PATH_MODULE, MOVED_TO_CONTROL, TOP_MODULE,
};
use vfpga_bench::catalog::Catalog;
use vfpga_core::{decompose, partition, DecomposeOptions, MappingDatabase};
use vfpga_hsabs::HsCompiler;

use crate::spans::Tracer;

/// Compiles every instance of `catalog` again under `compile.*` spans and
/// checks that each yields as many deployment options as the catalog's own
/// entry.
pub fn retime(catalog: &Catalog, t: &mut Tracer) -> Result<(), String> {
    let types = catalog.cluster.device_types();
    let compiler = HsCompiler::default();
    let mut db = MappingDatabase::new();
    for (name, spec) in &catalog.instances {
        let config = &spec.config;
        let design = t.span("compile.generate_rtl", |_| generate_rtl(config));
        let mut opts = DecomposeOptions::new(CONTROL_PATH_MODULE);
        opts.move_to_control = MOVED_TO_CONTROL.iter().map(|s| s.to_string()).collect();
        opts.intra_parallelism
            .insert("dpu_array".to_string(), config.rows_per_cycle);
        let est = leaf_resource_estimator(config);
        let decomp = t
            .span("compile.decompose", |_| {
                decompose(&design, TOP_MODULE, &opts, &est)
            })
            .map_err(|e| format!("{name}: {e}"))?;
        let plan = t.span("compile.partition", |_| {
            partition(&decomp.tree, spec.iterations)
        });
        let options = t
            .span("compile.register", |_| {
                db.register(name, &decomp, &plan, &types, &compiler, true)
                    .map(|entry| entry.options.len())
            })
            .map_err(|e| format!("{name}: {e}"))?;
        let expected = catalog.db.entry(name).map_or(0, |e| e.options.len());
        if options != expected {
            return Err(format!(
                "{name}: recompiled {options} deployment options, the catalog holds {expected}"
            ));
        }
    }
    Ok(())
}
