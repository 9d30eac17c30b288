//! The traced run: per-layer metrics from the benchmark's own spans, the
//! scaling probe, and the span file.

use std::collections::BTreeMap;

use vfpga_sim::Json;

use crate::metrics::PER_LAYER;
use crate::spans::Tracer;
use crate::{median, Body, Kind, Metric, Outcome, Prepared, Workload};

/// Bodies of the scaling probe at a quarter of the task count.
const QUARTER_BODIES: usize = 3;
/// Run id of the traced quarter-size body.
const QUARTER_RUN: u32 = 1_000;

/// Set-up spans whose self time is a per-layer metric, with the metric.
const SETUP_SELF_TIMES: [(&str, &str); 6] = [
    ("catalog.build", "catalog.build_s"),
    ("workload.generate", "workload.generate_s"),
    ("compile.generate_rtl", "compile.generate_rtl_s"),
    ("compile.decompose", "compile.decompose_s"),
    ("compile.partition", "compile.partition_s"),
    ("compile.register", "compile.register_s"),
];

/// Body and inspection spans whose median self time per traced body is a
/// per-layer metric, with the metric.
const BODY_SELF_TIMES: [(&str, &str); 14] = [
    ("controller.new", "controller.new_s"),
    ("cloudsim.run", "cloudsim.self_s"),
    ("catalog.instance_for", "catalog.instance_for_s"),
    ("catalog.service_time", "catalog.service_time_s"),
    ("telemetry.critical_path", "telemetry.critical_path_s"),
    ("export.report_json", "export.report_json_s"),
    ("export.chrome_trace", "export.chrome_trace_s"),
    ("workload.generate_program", "workload.generate_program_s"),
    (
        "scaleout.insert_communication",
        "scaleout.insert_communication_s",
    ),
    (
        "scaleout.reorder_for_overlap",
        "scaleout.reorder_for_overlap_s",
    ),
    ("isa.depgraph_build", "isa.depgraph_build_s"),
    ("isa.encode", "isa.encode_s"),
    ("accel.cycle_sim_new", "accel.cycle_sim_new_s"),
    (
        "scaleout_sim.co_simulate_timing",
        "scaleout_sim.co_simulate_timing_s",
    ),
];

/// The scaling probe's per-task counts: (metric at full size, metric at a
/// quarter of the tasks, the count they divide).
const SCALING_COUNTS: [(&str, &str, &str); 3] = [
    (
        "scaling.full.probes_per_task",
        "scaling.quarter.probes_per_task",
        "controller.probes",
    ),
    (
        "scaling.full.instance_for_per_task",
        "scaling.quarter.instance_for_per_task",
        "catalog.instance_for.calls",
    ),
    (
        "scaling.full.rejected_attempts_per_task",
        "scaling.quarter.rejected_attempts_per_task",
        "cloudsim.rejected_attempts",
    ),
];

/// The traced run's per-layer metrics. For the saturated workload it also
/// runs the scaling probe at a quarter of the task count.
pub fn per_layer(
    w: &Workload,
    p: &Prepared,
    t: &mut Tracer,
    bodies: &[Body],
    problems: &mut Vec<String>,
) -> Vec<Metric> {
    let mut values: BTreeMap<&'static str, f64> = BTreeMap::new();
    let setup = t.self_times(0);
    for (span, metric) in SETUP_SELF_TIMES {
        values.insert(metric, setup.get(span).copied().unwrap_or(0.0));
    }

    let traced: Vec<&Body> = bodies.iter().filter(|b| b.traced).collect();
    let untraced: Vec<&Body> = bodies.iter().filter(|b| !b.traced).collect();
    let selfs: Vec<BTreeMap<&str, f64>> = traced.iter().map(|b| t.self_times(b.run)).collect();
    for (span, metric) in BODY_SELF_TIMES {
        let per_body = selfs
            .iter()
            .map(|s| s.get(span).copied().unwrap_or(0.0))
            .collect();
        values.insert(metric, median(per_body));
    }
    for &(name, value) in &traced[0].outcome.counts {
        values.insert(name, value);
    }
    let body_s = median(traced.iter().map(|b| t.total_s("body", b.run)).collect());
    values.insert("trace.body_s", body_s);
    values.insert(
        "trace.unattributed_share",
        median(
            traced
                .iter()
                .zip(&selfs)
                .map(|(b, s)| s.get("body").copied().unwrap_or(0.0) / t.total_s("body", b.run))
                .collect(),
        ),
    );
    let traced_rate = median(traced.iter().map(|b| b.work_per_s()).collect());
    let untraced_rate = median(untraced.iter().map(|b| b.work_per_s()).collect());
    values.insert("trace.traced_work_per_s", traced_rate);
    values.insert("trace.untraced_work_per_s", untraced_rate);
    values.insert("trace.overhead_ratio", untraced_rate / traced_rate);

    if let Kind::Cloud(spec) = w.kind {
        if !spec.observed {
            scaling_probe(
                p,
                spec.tasks,
                t,
                traced[0],
                &untraced,
                &mut values,
                problems,
            );
        }
    }
    write_trace(w.name, &t.to_json());
    print_self_times(w.name, &selfs);

    PER_LAYER
        .iter()
        .map(|m| (m.name, values.get(m.name).copied().unwrap_or(0.0), m.unit))
        .collect()
}

/// Runs the saturated workload at a quarter of its task count and
/// records per-task work and host time at both sizes.
fn scaling_probe(
    p: &Prepared,
    full: usize,
    t: &mut Tracer,
    full_traced: &Body,
    full_untraced: &[&Body],
    values: &mut BTreeMap<&'static str, f64>,
    problems: &mut Vec<String>,
) {
    let quarter = full / 4;
    let run = |t: &mut Tracer, traced: bool, run: u32| {
        t.set_enabled(traced);
        t.set_run(run);
        p.run(quarter, false, t)
    };
    let (_, counted) = run(t, true, QUARTER_RUN);
    problems.extend(counted.problems.iter().cloned());
    let quarter_secs: Vec<f64> = (0..QUARTER_BODIES)
        .map(|i| run(t, false, QUARTER_RUN + 1 + i as u32).0)
        .collect();
    t.set_enabled(false);

    let count =
        |o: &Outcome, name: &str| o.counts.iter().find(|c| c.0 == name).map_or(0.0, |c| c.1);
    for (at_full, at_quarter, name) in SCALING_COUNTS {
        values.insert(at_full, count(&full_traced.outcome, name) / full as f64);
        values.insert(at_quarter, count(&counted, name) / quarter as f64);
    }
    let full_us = median(full_untraced.iter().map(|b| b.secs).collect()) / full as f64 * 1e6;
    let quarter_us = median(quarter_secs) / quarter as f64 * 1e6;
    values.insert("scaling.full.host_us_per_task", full_us);
    values.insert("scaling.quarter.host_us_per_task", quarter_us);
    values.insert("cloudsim.scaling_ratio", full_us / quarter_us);
}

/// Writes the run's spans under `perfbench/out/`.
fn write_trace(workload: &str, spans: &Json) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("{workload}.trace.json"));
    let written =
        std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, spans.compact()));
    match written {
        Ok(()) => eprintln!("{workload}: spans written to {}", path.display()),
        Err(e) => eprintln!("{workload}: cannot write {}: {e}", path.display()),
    }
}

/// Prints the median self time per span name over the traced bodies.
fn print_self_times(workload: &str, selfs: &[BTreeMap<&str, f64>]) {
    let mut names: Vec<&str> = selfs.iter().flat_map(|s| s.keys().copied()).collect();
    names.sort_unstable();
    names.dedup();
    let mut rows: Vec<(f64, &str)> = names
        .into_iter()
        .map(|n| {
            let per_body = selfs.iter().map(|s| s.get(n).copied().unwrap_or(0.0));
            (median(per_body.collect()), n)
        })
        .collect();
    rows.sort_by(|a, b| b.0.total_cmp(&a.0));
    let total: f64 = rows.iter().map(|r| r.0).sum();
    eprintln!("{workload}: median self time per traced body and inspection");
    for (secs, name) in rows {
        eprintln!(
            "  {name:<34} {secs:>10.4} s {:>6.1}%",
            100.0 * secs / total.max(f64::MIN_POSITIVE)
        );
    }
}
