//! The metric registry: every end-to-end and per-layer metric the
//! benchmark reports, with its unit, whether it measures the host or the
//! modelled hardware, whether it repeats exactly for a seed, and which way
//! is better.

use vfpga_sim::Json;

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// Measures the modelled hardware rather than the host.
    sim: bool,
    /// Repeats exactly for a seed, so a change to it is a count change,
    /// not a speed-up.
    exact: bool,
    higher_is_better: bool,
}

/// A host measurement that varies from run to run.
const fn host(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        sim: false,
        exact: false,
        higher_is_better: false,
    }
}

/// Work the host did, counted: exact for a seed.
const fn count(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        exact: true,
        ..host(name, unit)
    }
}

/// An output of the modelled hardware: exact for a seed.
const fn sim(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        sim: true,
        ..count(name, unit)
    }
}

impl MetricDef {
    const fn higher(self) -> MetricDef {
        MetricDef {
            higher_is_better: true,
            ..self
        }
    }

    pub fn to_json(&self) -> Json {
        Json::obj()
            .with("name", self.name)
            .with("unit", self.unit)
            .with("side", if self.sim { "sim" } else { "host" })
            .with("exact", self.exact)
            .with(
                "better",
                if self.higher_is_better {
                    "higher"
                } else {
                    "lower"
                },
            )
    }
}

/// End-to-end metrics, reported by untraced runs in this order.
pub const END_TO_END: [MetricDef; 8] = [
    host("setup_s", "s"),
    host("work_per_s", "1/s").higher(),
    host("peak_rss_mb", "MB"),
    host("success_ratio", "share").higher(),
    sim("sim_throughput_per_s", "1/s").higher(),
    sim("sim_latency_p50_ms", "ms"),
    sim("sim_latency_p99_ms", "ms"),
    sim("sim_makespan_ms", "ms"),
];

/// Per-layer metrics, reported by traced runs in this order.
pub const PER_LAYER: [MetricDef; 55] = [
    host("catalog.build_s", "s"),
    host("compile.generate_rtl_s", "s"),
    host("compile.decompose_s", "s"),
    host("compile.partition_s", "s"),
    host("compile.register_s", "s"),
    host("workload.generate_s", "s"),
    host("controller.new_s", "s"),
    host("cloudsim.self_s", "s"),
    count("cloudsim.rejected_attempts", "count"),
    sim("cloudsim.peak_queue_depth", "count"),
    host("cloudsim.scaling_ratio", "ratio"),
    sim("cloudsim.migrated", "count"),
    sim("cloudsim.promotions", "count").higher(),
    sim("cloudsim.preemptions", "count"),
    sim("cloudsim.link_reroutes", "count"),
    count("controller.probes", "count"),
    count("controller.cache_hits", "count"),
    count("controller.probes_per_admission", "ratio"),
    count("controller.deploys", "count"),
    count("controller.releases", "count"),
    count("catalog.instance_for.calls", "count"),
    host("catalog.instance_for_s", "s"),
    count("catalog.service_time.calls", "count"),
    host("catalog.service_time_s", "s"),
    count("telemetry.spans", "count"),
    count("telemetry.spans_per_task", "ratio"),
    host("telemetry.critical_path_s", "s"),
    count("telemetry.trace_dropped", "count"),
    count("telemetry.monitor_windows", "count"),
    host("export.report_json_s", "s"),
    host("export.chrome_trace_s", "s"),
    count("export.bytes", "bytes"),
    host("workload.generate_program_s", "s"),
    host("scaleout.insert_communication_s", "s"),
    host("scaleout.reorder_for_overlap_s", "s"),
    host("isa.depgraph_build_s", "s"),
    host("isa.encode_s", "s"),
    count("isa.insts", "count"),
    host("accel.cycle_sim_new_s", "s"),
    host("scaleout_sim.co_simulate_timing_s", "s"),
    sim("scaleout_sim.messages", "count"),
    sim("scaleout_sim.queue_wait_total_us", "us"),
    count("scaling.full.probes_per_task", "ratio"),
    count("scaling.quarter.probes_per_task", "ratio"),
    count("scaling.full.instance_for_per_task", "ratio"),
    count("scaling.quarter.instance_for_per_task", "ratio"),
    count("scaling.full.rejected_attempts_per_task", "ratio"),
    count("scaling.quarter.rejected_attempts_per_task", "ratio"),
    host("scaling.full.host_us_per_task", "us"),
    host("scaling.quarter.host_us_per_task", "us"),
    host("trace.body_s", "s"),
    host("trace.unattributed_share", "share"),
    host("trace.overhead_ratio", "ratio"),
    host("trace.traced_work_per_s", "1/s").higher(),
    host("trace.untraced_work_per_s", "1/s").higher(),
];
