//! Golden digests of every export an observed cloud run writes.
//!
//! One small observed run per seed — spans on, the monitor evaluating one
//! SLO, device and ring-segment fault waves, full elasticity — is
//! serialized through each exporter: the report JSON (pretty and
//! compact), the Chrome trace, the registry's Prometheus exposition and
//! the monitor's. The FNV-1a digests of those texts are pinned, so any
//! change to the serializers or to what the run records that moves a
//! single byte of an artifact fails here, by exporter and seed.

use vfpga::runtime::{
    run_cloud_sim_tuned, AdmissionTuning, CloudReport, ElasticityPolicy, MonitorConfig, Policy,
    RecoveryPolicy, SystemController, DEFAULT_TRACE_CAPACITY,
};
use vfpga::sim::{
    chrome_trace_events, prometheus_text, FaultPlan, FaultPlanParams, LinkFaultParams, SimTime,
    SloSpec,
};
use vfpga::workload::{generate_workload, Composition};
use vfpga_bench::Catalog;

/// The exports in digest order.
const EXPORTS: [&str; 5] = [
    "report pretty",
    "report compact",
    "chrome trace pretty",
    "metrics prometheus",
    "monitor prometheus",
];

/// `(seed, digests in EXPORTS order)`.
const GOLDEN: [(u64, [u64; 5]); 2] = [
    (
        42,
        [
            0xddfb_bc89_442b_7213,
            0xb0ab_3113_4721_4d53,
            0x6428_ecdb_b78e_1a3b,
            0x54d3_794f_87d8_526a,
            0x3c0c_2aed_6f1f_12ab,
        ],
    ),
    (
        2024,
        [
            0x31c6_132c_b035_b169,
            0x2e32_28ec_99ae_0b7d,
            0x8e02_78ea_997d_5b49,
            0x4868_0bc8_ef66_37d9,
            0x76a6_9e7a_07e4_c96e,
        ],
    ),
];

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// A 400-task Table 1 set-7 run at about 70% occupancy with device and
/// link faults throughout the arrival span.
fn observed_run(catalog: &Catalog, seed: u64) -> CloudReport {
    let arrivals = generate_workload(Composition::TABLE1[6], 400, SimTime::from_us(175.0), seed);
    let last = arrivals.last().expect("non-empty workload").at;
    let horizon = SimTime::from_secs(last.as_secs() * 1.5);
    let plan = FaultPlan::generate(
        FaultPlanParams {
            mttf: SimTime::from_ms(20.0),
            mttr: SimTime::from_ms(1.0),
            configure_failure_prob: 0.0,
            horizon,
        },
        catalog.cluster.len(),
        seed,
    )
    .with_link_faults(
        LinkFaultParams {
            mttf: SimTime::from_ms(10.0),
            mttr: SimTime::from_ms(1.0),
            degraded_fraction: 0.5,
            bandwidth_factor: 0.25,
            extra_latency: SimTime::from_ns(250.0),
            corruption_prob: 0.35,
            max_retransmits: 3,
            retransmit_backoff: SimTime::from_ns(200.0),
            horizon,
        },
        catalog.cluster.ring().segments(),
    );
    let tuning = AdmissionTuning {
        elasticity: ElasticityPolicy::FULL,
        monitor: MonitorConfig::enabled(
            MonitorConfig::default().window,
            vec![SloSpec::latency("p95-latency", 0.95, SimTime::from_ms(5.0))],
        ),
        ..AdmissionTuning::default()
    };
    let mut controller =
        SystemController::new(catalog.cluster.clone(), catalog.db.clone(), Policy::Full);
    run_cloud_sim_tuned(
        &mut controller,
        &arrivals,
        &|task| catalog.instance_for(task),
        &|task, deployment| catalog.service_time(task, deployment, Policy::Full),
        &plan,
        RecoveryPolicy::default(),
        DEFAULT_TRACE_CAPACITY,
        tuning,
    )
    .expect("observed simulation completes")
}

#[test]
fn observed_run_exports_match_golden_digests() {
    let catalog = Catalog::build();
    let mut mismatches = Vec::new();
    for (seed, want) in GOLDEN {
        let report = observed_run(&catalog, seed);
        // The digests pin something only if every exporter has content.
        assert!(report.interrupted > 0, "seed {seed}: no device fault hit");
        assert!(
            report.link_failures + report.link_degradations > 0,
            "seed {seed}: no link fault hit"
        );
        assert!(!report.spans.is_empty(), "seed {seed}: no spans");
        let monitor = report.monitor.as_ref().expect("monitor on");
        let json = report.to_json();
        let texts = [
            json.pretty(),
            json.compact(),
            chrome_trace_events(&[&report.spans]).pretty(),
            prometheus_text(&report.metrics),
            monitor.prometheus_text(),
        ];
        for ((name, text), want) in EXPORTS.iter().zip(&texts).zip(want) {
            let got = fnv1a(text.as_bytes());
            if got != want {
                mismatches.push(format!(
                    "seed {seed} {name}: {got:#018x}, pinned {want:#018x}"
                ));
            }
        }
    }
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}
