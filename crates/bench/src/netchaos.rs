//! Network-chaos scenario: a Fig. 12-style workload served while a seeded
//! [`FaultPlan`] fails devices *and* ring segments under it.
//!
//! Where the [`chaos`](crate::chaos) scenario drives the device
//! fault/recovery stack, this one adds the interconnect fault model on
//! top: link waves degrade or fail ring segments, degraded segments
//! corrupt in-flight transfers (retransmitted under a bounded backoff
//! budget), failed segments force multi-FPGA deployments to re-route the
//! other way around the bidirectional ring — or, when every path between
//! their units is severed, into the same migration machinery device
//! failures use. Everything is seeded, so a run is exactly reproducible:
//! same seed, byte-identical report.

use vfpga_runtime::{
    run_cloud_sim_tuned, AdmissionTuning, CloudReport, Policy, RecoveryPolicy, SystemController,
};
use vfpga_sim::{FaultPlan, FaultPlanParams, Json, LinkFaultParams, SimTime, TraceEventKind};
use vfpga_workload::{generate_workload, Composition};

use crate::catalog::Catalog;
use crate::chaos::{check_fault_run, fault_run_json};

/// Trace-ring capacity for network-chaos runs. Link waves add
/// per-transfer `Retransmit` events on top of the scheduler lifecycle, and
/// the byte-reconciliation gate needs *every* one retained — so the ring
/// is sized well past what the default workload emits.
pub const NETCHAOS_TRACE_CAPACITY: usize = 32_768;

/// Parameters of one network-chaos run.
#[derive(Debug, Clone, Copy)]
pub struct NetChaosConfig {
    /// Tasks in the workload set.
    pub tasks: usize,
    /// Seed for the workload, the device plan, and the link plan.
    pub seed: u64,
    /// Per-device mean time to failure.
    pub mttf: SimTime,
    /// Per-device mean time to recovery.
    pub mttr: SimTime,
    /// Probability that an otherwise-valid partial reconfiguration fails
    /// transiently.
    pub configure_failure_prob: f64,
    /// Per-link mean time to a fault wave.
    pub link_mttf: SimTime,
    /// Per-link mean time to repair.
    pub link_mttr: SimTime,
    /// Fraction of link waves that degrade (vs fail) the segment.
    pub degraded_fraction: f64,
    /// Per-transfer corruption probability while link faults are active.
    pub corruption_prob: f64,
    /// Retransmission budget per corrupted transfer.
    pub max_retransmits: u32,
    /// Migration retry/backoff policy.
    pub recovery: RecoveryPolicy,
}

impl Default for NetChaosConfig {
    fn default() -> Self {
        NetChaosConfig {
            tasks: 120,
            seed: 2024,
            // Device faults stay on, but milder than the device-chaos
            // scenario: the interconnect is the protagonist here.
            mttf: SimTime::from_ms(3.0),
            mttr: SimTime::from_ms(0.4),
            configure_failure_prob: 0.02,
            link_mttf: SimTime::from_ms(1.0),
            link_mttr: SimTime::from_ms(0.35),
            degraded_fraction: 0.5,
            corruption_prob: 0.35,
            max_retransmits: 3,
            recovery: RecoveryPolicy::default(),
        }
    }
}

/// One network-chaos run: the plan that was injected and the resulting
/// report.
#[derive(Debug, Clone)]
pub struct NetChaosReport {
    /// The seed the run was generated from.
    pub seed: u64,
    /// The injected fault plan (device and link schedules).
    pub plan: FaultPlan,
    /// The instrumented simulation report (link accounting included).
    pub report: CloudReport,
}

impl NetChaosReport {
    /// Whether the run exercised the interconnect fault machinery end to
    /// end: segments failed, at least one deployment re-routed around a
    /// dead segment, and at least one transfer was retransmitted.
    pub fn exercised_link_faults(&self) -> bool {
        self.report.link_failures > 0
            && self.report.link_reroutes > 0
            && self.report.link_retransmits > 0
    }

    /// Sum of the bytes carried by the trace's `Retransmit` events.
    pub fn traced_retransmit_bytes(&self) -> u64 {
        self.report
            .trace
            .iter()
            .filter_map(|e| match &e.kind {
                TraceEventKind::Retransmit { bytes, .. } => Some(*bytes),
                _ => None,
            })
            .sum()
    }

    /// Cross-layer invariants every network-chaos run must satisfy,
    /// regardless of seed. Returns the first violation as an error
    /// message.
    pub fn check_invariants(&self) -> Result<(), String> {
        check_fault_run(&self.report)?;
        if self.report.link_severed > self.report.interrupted {
            return Err(format!(
                "{} link severs exceed {} interruptions",
                self.report.link_severed, self.report.interrupted
            ));
        }
        if self.report.trace.dropped() > 0 {
            return Err(format!(
                "trace ring dropped {} events; the byte reconciliation needs all of them",
                self.report.trace.dropped()
            ));
        }
        let traced = self.traced_retransmit_bytes();
        if traced != self.report.link_retransmit_bytes {
            return Err(format!(
                "retransmit bytes disagree: report says {}, trace events sum to {}",
                self.report.link_retransmit_bytes, traced
            ));
        }
        Ok(())
    }

    /// Serializes the run: seed, plan, and full report.
    pub fn to_json(&self) -> Json {
        fault_run_json(self.seed, &self.plan, &self.report)
    }
}

/// Runs the network-chaos scenario: workload set 5 (the mixed composition)
/// under the full policy on the paper cluster, with device and link fault
/// schedules injected.
pub fn run(catalog: &Catalog, config: &NetChaosConfig) -> NetChaosReport {
    let composition = Composition::TABLE1[4];
    let arrivals = generate_workload(
        composition,
        config.tasks,
        SimTime::from_us(50.0),
        config.seed,
    );
    // Faults keep arriving for 1.5x the expected workload span so the
    // queue-drain tail is exposed too.
    let horizon = SimTime::from_us(50.0 * config.tasks as f64 * 1.5);
    let plan = FaultPlan::generate(
        FaultPlanParams {
            mttf: config.mttf,
            mttr: config.mttr,
            configure_failure_prob: config.configure_failure_prob,
            horizon,
        },
        catalog.cluster.len(),
        config.seed,
    )
    .with_link_faults(
        LinkFaultParams {
            mttf: config.link_mttf,
            mttr: config.link_mttr,
            degraded_fraction: config.degraded_fraction,
            bandwidth_factor: 0.25,
            extra_latency: SimTime::from_ns(250.0),
            corruption_prob: config.corruption_prob,
            max_retransmits: config.max_retransmits,
            retransmit_backoff: SimTime::from_ns(200.0),
            horizon,
        },
        catalog.cluster.ring().segments(),
    );
    let mut controller =
        SystemController::new(catalog.cluster.clone(), catalog.db.clone(), Policy::Full);
    let report = run_cloud_sim_tuned(
        &mut controller,
        &arrivals,
        &|task| catalog.instance_for(task),
        &|task, deployment| catalog.service_time(task, deployment, Policy::Full),
        &plan,
        config.recovery,
        NETCHAOS_TRACE_CAPACITY,
        AdmissionTuning::default(),
    )
    .expect("network-chaos simulation completes");
    NetChaosReport {
        seed: config.seed,
        plan,
        report,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_netchaos_run_reroutes_and_retransmits() {
        let catalog = Catalog::build();
        let chaos = run(&catalog, &NetChaosConfig::default());
        chaos.check_invariants().unwrap();
        assert!(chaos.plan.link_failures() > 0, "plan must fail segments");
        assert!(
            chaos.exercised_link_faults(),
            "default config must fail, reroute, and retransmit: {} failures, {} reroutes, {} retransmits",
            chaos.report.link_failures,
            chaos.report.link_reroutes,
            chaos.report.link_retransmits
        );
        assert!(chaos.report.link_degraded_time > SimTime::ZERO);
    }

    #[test]
    fn netchaos_runs_are_reproducible() {
        let catalog = Catalog::build();
        let cfg = NetChaosConfig {
            tasks: 60,
            seed: 7,
            ..NetChaosConfig::default()
        };
        let a = run(&catalog, &cfg).to_json().pretty();
        let b = run(&catalog, &cfg).to_json().pretty();
        assert_eq!(a, b);
    }
}
