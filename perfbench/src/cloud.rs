//! The two cloud workloads: a saturated admission run and an observed
//! chaos run, both served by the paper cluster under the full policy.

use vfpga_bench::catalog::Catalog;
use vfpga_bench::netchaos::NetChaosConfig;
use vfpga_runtime::{
    run_cloud_sim_tuned, AdmissionTuning, CloudReport, ElasticityPolicy, MonitorConfig, Policy,
    RecoveryPolicy, SystemController, DEFAULT_TRACE_CAPACITY,
};
use vfpga_sim::{
    chrome_trace_events, CriticalPath, FaultPlan, FaultPlanParams, Json, LinkFaultParams, SimTime,
    SloSpec,
};
use vfpga_workload::{generate_workload, Composition, TaskArrival};

use crate::spans::{CallCounter, Tracer};
use crate::{fnv1a, Outcome, SimOutcome};

/// The parameters of one cloud workload.
#[derive(Debug, Clone, Copy)]
pub struct CloudSpec {
    /// Table 1 workload set, numbered from 1 as in the paper.
    pub table1_set: usize,
    pub tasks: usize,
    pub mean_gap: SimTime,
    /// Device and ring-segment faults, elasticity, the monitor and spans.
    pub observed: bool,
}

/// `admission-saturated`: about twice the cluster's service capacity, so
/// the backlog grows and admission scanning dominates.
pub const ADMISSION_SATURATED: CloudSpec = CloudSpec {
    table1_set: 5,
    tasks: 40_000,
    mean_gap: SimTime::from_ps(20_000_000),
    observed: false,
};

/// `observed-chaos`: about 70% occupancy under device and link faults with
/// every telemetry channel on. Busier or faultier settings put the queue
/// near saturation, where one seed's latencies differ from the next by
/// 30% or more.
pub const OBSERVED_CHAOS: CloudSpec = CloudSpec {
    table1_set: 7,
    tasks: 3_000,
    mean_gap: SimTime::from_ps(175_000_000),
    observed: true,
};

/// Per-device and per-segment fault rates of `observed-chaos`.
const DEVICE_MTTF_MS: f64 = 100.0;
const DEVICE_MTTR_MS: f64 = 2.0;
const LINK_MTTF_MS: f64 = 50.0;
const LINK_MTTR_MS: f64 = 2.0;
/// The p95 latency objective the monitor evaluates.
const SLO_P95_MS: f64 = 5.0;

/// Everything a cloud run needs, built once per set-up.
pub struct Prepared {
    pub spec: CloudSpec,
    pub catalog: Catalog,
    pub arrivals: Vec<TaskArrival>,
    pub plan: FaultPlan,
}

/// Builds the catalog and generates the arrivals and fault plan from
/// `seed`. A body may simulate any prefix of the arrivals.
pub fn setup(spec: CloudSpec, seed: u64, t: &mut Tracer) -> Prepared {
    let catalog = t.span("catalog.build", |_| Catalog::build());
    let (arrivals, plan) = t.span("workload.generate", |_| {
        let arrivals = generate_workload(
            Composition::TABLE1[spec.table1_set - 1],
            spec.tasks,
            spec.mean_gap,
            seed,
        );
        let plan = if spec.observed {
            fault_plan(&catalog, &arrivals, seed)
        } else {
            FaultPlan::none()
        };
        (arrivals, plan)
    });
    Prepared {
        spec,
        catalog,
        arrivals,
        plan,
    }
}

/// Device and ring-segment fault waves over 1.5x the arrival span, with
/// the link parameters of the network-chaos scenario.
fn fault_plan(catalog: &Catalog, arrivals: &[TaskArrival], seed: u64) -> FaultPlan {
    let last = arrivals.last().map_or(SimTime::ZERO, |a| a.at);
    let horizon = SimTime::from_secs(last.as_secs() * 1.5);
    let net = NetChaosConfig::default();
    FaultPlan::generate(
        FaultPlanParams {
            mttf: SimTime::from_ms(DEVICE_MTTF_MS),
            mttr: SimTime::from_ms(DEVICE_MTTR_MS),
            configure_failure_prob: 0.0,
            horizon,
        },
        catalog.cluster.len(),
        seed,
    )
    .with_link_faults(
        LinkFaultParams {
            mttf: SimTime::from_ms(LINK_MTTF_MS),
            mttr: SimTime::from_ms(LINK_MTTR_MS),
            degraded_fraction: net.degraded_fraction,
            bandwidth_factor: 0.25,
            extra_latency: SimTime::from_ns(250.0),
            corruption_prob: net.corruption_prob,
            max_retransmits: net.max_retransmits,
            retransmit_backoff: SimTime::from_ns(200.0),
            horizon,
        },
        catalog.cluster.ring().segments(),
    )
}

/// The workload's parameters, for the registry.
pub fn describe(spec: CloudSpec) -> Json {
    let params = Json::obj()
        .with("table1_set", spec.table1_set as u64)
        .with("tasks", spec.tasks as u64)
        .with("mean_gap_us", spec.mean_gap.as_us())
        .with("policy", "Full")
        .with("feasibility_cache", true)
        .with("wave_gating", true)
        .with("trace_capacity", DEFAULT_TRACE_CAPACITY as u64);
    if !spec.observed {
        return params.with("faults", false).with("spans", false);
    }
    params
        .with("device_mttf_ms", DEVICE_MTTF_MS)
        .with("device_mttr_ms", DEVICE_MTTR_MS)
        .with("link_mttf_ms", LINK_MTTF_MS)
        .with("link_mttr_ms", LINK_MTTR_MS)
        .with("elasticity", "FULL")
        .with("slo_p95_ms", SLO_P95_MS)
        .with("spans", true)
}

fn tuning(observed: bool) -> AdmissionTuning {
    if observed {
        AdmissionTuning {
            elasticity: ElasticityPolicy::FULL,
            monitor: MonitorConfig::enabled(
                MonitorConfig::default().window,
                vec![SloSpec::latency(
                    "p95-latency",
                    0.95,
                    SimTime::from_ms(SLO_P95_MS),
                )],
            ),
            ..AdmissionTuning::default()
        }
    } else {
        AdmissionTuning {
            trace_spans: false,
            ..AdmissionTuning::default()
        }
    }
}

/// What the timed body leaves for the untimed checks.
pub struct Finished {
    report: CloudReport,
    controller: SystemController,
    instance_for_calls: u64,
    service_time_calls: u64,
    /// The serialized report and Chrome trace (observed workload only).
    exports: Vec<String>,
}

/// The timed body: one simulation of the whole workload and, for the
/// observed workload, the report and Chrome-trace serialization `repro
/// trace` performs.
pub fn body(p: &Prepared, tasks: usize, t: &mut Tracer) -> Finished {
    let catalog = &p.catalog;
    let mut controller = t.span("controller.new", |_| {
        SystemController::new(catalog.cluster.clone(), catalog.db.clone(), Policy::Full)
    });
    let instance_for = CallCounter::new(t);
    let service_time = CallCounter::new(t);
    let report = t.span("cloudsim.run", |t| {
        let report = run_cloud_sim_tuned(
            &mut controller,
            &p.arrivals[..tasks],
            &|task| instance_for.call(|| catalog.instance_for(task)),
            &|task, deployment| {
                service_time.call(|| catalog.service_time(task, deployment, Policy::Full))
            },
            &p.plan,
            RecoveryPolicy::default(),
            DEFAULT_TRACE_CAPACITY,
            tuning(p.spec.observed),
        );
        t.aggregate("catalog.instance_for", &instance_for);
        t.aggregate("catalog.service_time", &service_time);
        report
    });
    let report = report.expect("the benchmark's cloud workloads are valid inputs");
    let mut exports = Vec::new();
    if p.spec.observed {
        exports.push(t.span("export.report_json", |_| report.to_json().pretty()));
        exports.push(t.span("export.chrome_trace", |_| {
            chrome_trace_events(&[&report.spans]).pretty()
        }));
    }
    Finished {
        report,
        controller,
        instance_for_calls: instance_for.calls(),
        service_time_calls: service_time.calls(),
        exports,
    }
}

/// Checks one finished run and collects its outcome and exact counts.
/// With the tracer on, also re-times the critical-path analysis over the
/// run's spans, outside the timed body.
pub fn inspect(p: &Prepared, tasks: usize, f: Finished, t: &mut Tracer) -> Outcome {
    let r = &f.report;
    let mut problems = Vec::new();
    if !r.accounts_for_all_arrivals() || r.arrivals != tasks as u64 {
        problems.push(format!(
            "accounting: {} completed + {} never deployed + {} lost != {} arrivals",
            r.completed, r.never_deployed, r.lost, r.arrivals
        ));
    }
    if r.spans.open_count() != 0 {
        problems.push(format!("{} spans left open", r.spans.open_count()));
    }
    let digest = if p.spec.observed {
        f.exports
            .iter()
            .fold(0u64, |d, text| d.rotate_left(1) ^ fnv1a(text.as_bytes()))
    } else {
        fnv1a(r.to_json().compact().as_bytes())
    };
    let export_bytes: usize = f.exports.iter().map(String::len).sum();
    if t.enabled() && p.spec.observed {
        t.span("telemetry.critical_path", |_| {
            std::hint::black_box(CriticalPath::analyze(&r.spans))
        });
    }
    let stats = f.controller.stats();
    let counts = vec![
        ("cloudsim.rejected_attempts", r.total_rejections() as f64),
        ("cloudsim.peak_queue_depth", r.peak_queue_depth as f64),
        ("cloudsim.migrated", r.migrated as f64),
        ("cloudsim.promotions", r.promotions as f64),
        ("cloudsim.preemptions", r.preemptions as f64),
        ("cloudsim.link_reroutes", r.link_reroutes as f64),
        ("controller.probes", stats.probes as f64),
        ("controller.cache_hits", stats.cache_hits as f64),
        (
            "controller.probes_per_admission",
            stats.probes as f64 / stats.deploys.max(1) as f64,
        ),
        ("controller.deploys", stats.deploys as f64),
        ("controller.releases", stats.releases as f64),
        ("catalog.instance_for.calls", f.instance_for_calls as f64),
        ("catalog.service_time.calls", f.service_time_calls as f64),
        ("telemetry.spans", r.spans.len() as f64),
        (
            "telemetry.spans_per_task",
            r.spans.len() as f64 / r.arrivals.max(1) as f64,
        ),
        ("telemetry.trace_dropped", r.trace.dropped() as f64),
        (
            "telemetry.monitor_windows",
            r.monitor.as_ref().map_or(0, |m| m.rollups.len()) as f64,
        ),
        ("export.bytes", export_bytes as f64),
    ];
    let ms = |s: Option<f64>| s.unwrap_or(f64::NAN) * 1e3;
    Outcome {
        work: r.arrivals as f64,
        attempted: r.arrivals,
        failed: r.never_deployed + r.lost,
        digest,
        problems,
        sim: SimOutcome {
            throughput_per_s: r.throughput_per_s,
            latency_p50_ms: ms(r.latency_p50),
            latency_p99_ms: ms(r.latency_p99),
            makespan_ms: r.elapsed.as_ms(),
        },
        counts,
    }
}
