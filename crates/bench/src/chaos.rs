//! Chaos scenario: a Fig. 12-style workload served while a seeded
//! [`FaultPlan`] fails and recovers devices under it.
//!
//! The scenario drives the full fault/recovery stack end to end: the
//! fault plan schedules fail/recover waves and flaky partial
//! reconfiguration, the low-level controller evicts allocations on failed
//! devices, and the system controller migrates interrupted deployments to
//! surviving devices (scaling down to deeper partition variants when the
//! original footprint no longer fits). Everything is seeded, so a chaos
//! run is exactly reproducible: same seed, byte-identical report.

use vfpga_runtime::{
    run_cloud_sim_tuned, AdmissionTuning, CloudReport, Policy, RecoveryPolicy, SystemController,
    DEFAULT_TRACE_CAPACITY,
};
use vfpga_sim::{FaultPlan, FaultPlanParams, Json, SimTime};
use vfpga_workload::{generate_workload, Composition};

use crate::catalog::Catalog;

/// Parameters of one chaos run.
#[derive(Debug, Clone, Copy)]
pub struct ChaosConfig {
    /// Tasks in the workload set.
    pub tasks: usize,
    /// Seed for both the workload and the fault plan.
    pub seed: u64,
    /// Per-device mean time to failure.
    pub mttf: SimTime,
    /// Per-device mean time to recovery.
    pub mttr: SimTime,
    /// Probability that an otherwise-valid partial reconfiguration fails
    /// transiently.
    pub configure_failure_prob: f64,
    /// Migration retry/backoff policy.
    pub recovery: RecoveryPolicy,
    /// Whether the controller's capacity-epoch feasibility cache is on
    /// (the default). The cache replays capacity rejections, so a run is
    /// byte-identical either way — the A/B determinism suite pins that —
    /// and this knob exists exactly so that suite (and the admission
    /// bench) can measure the uncached path.
    pub feasibility_cache: bool,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            tasks: 120,
            seed: 2024,
            mttf: SimTime::from_ms(1.5),
            mttr: SimTime::from_ms(0.4),
            configure_failure_prob: 0.05,
            recovery: RecoveryPolicy::default(),
            feasibility_cache: true,
        }
    }
}

/// One chaos run: the plan that was injected and the resulting report.
#[derive(Debug, Clone)]
pub struct ChaosReport {
    /// The seed the run was generated from.
    pub seed: u64,
    /// The injected fault plan.
    pub plan: FaultPlan,
    /// The instrumented simulation report (recovery accounting included).
    pub report: CloudReport,
}

impl ChaosReport {
    /// Whether the run exercised the recovery machinery: at least one
    /// deployment was interrupted and at least one migration completed.
    pub fn exercised_recovery(&self) -> bool {
        self.report.interrupted > 0
            && self
                .report
                .trace
                .iter()
                .any(|e| e.kind.label() == "migration_completed")
    }

    /// Cross-layer invariants every chaos run must satisfy, regardless of
    /// seed. Returns the first violation as an error message.
    pub fn check_invariants(&self) -> Result<(), String> {
        check_fault_run(&self.report)
    }

    /// Serializes the run: seed, plan, and full report.
    pub fn to_json(&self) -> Json {
        fault_run_json(self.seed, &self.plan, &self.report)
    }
}

/// The arrivals accounting every fault-injected run must keep: each
/// arrival completed, was never deployed, or was lost.
pub(crate) fn check_accounting(report: &CloudReport) -> Result<(), String> {
    if !report.accounts_for_all_arrivals() {
        return Err(format!(
            "accounting broken: {} completed + {} never deployed + {} lost != {}",
            report.completed, report.never_deployed, report.lost, report.arrivals
        ));
    }
    Ok(())
}

/// The invariants the chaos and network-chaos runs share:
/// [`check_accounting`], peak occupancy within `[0, 1]`, and no more
/// migrations plus losses than interruptions.
pub(crate) fn check_fault_run(report: &CloudReport) -> Result<(), String> {
    check_accounting(report)?;
    if !(0.0..=1.0).contains(&report.peak_occupancy) {
        return Err(format!(
            "peak occupancy {} outside [0, 1]",
            report.peak_occupancy
        ));
    }
    if report.migrated + report.lost > report.interrupted {
        return Err(format!(
            "{} migrated + {} lost exceed {} interruptions",
            report.migrated, report.lost, report.interrupted
        ));
    }
    Ok(())
}

/// Serializes a fault-injected run: seed, plan, and full report.
pub(crate) fn fault_run_json(seed: u64, plan: &FaultPlan, report: &CloudReport) -> Json {
    Json::obj()
        .with("seed", seed)
        .with("plan", plan.to_json())
        .with("report", report.to_json())
}

/// Runs the chaos scenario: workload set 5 (the mixed composition) under
/// the full policy on the paper cluster, with the configured fault plan
/// injected.
pub fn run(catalog: &Catalog, config: &ChaosConfig) -> ChaosReport {
    let composition = Composition::TABLE1[4];
    let arrivals = generate_workload(
        composition,
        config.tasks,
        SimTime::from_us(50.0),
        config.seed,
    );
    // Failures keep arriving for 1.5x the expected workload span so the
    // queue-drain tail is exposed to faults too.
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
    );
    let mut controller =
        SystemController::new(catalog.cluster.clone(), catalog.db.clone(), Policy::Full);
    controller.set_feasibility_cache(config.feasibility_cache);
    let report = run_cloud_sim_tuned(
        &mut controller,
        &arrivals,
        &|task| catalog.instance_for(task),
        &|task, deployment| catalog.service_time(task, deployment, Policy::Full),
        &plan,
        config.recovery,
        DEFAULT_TRACE_CAPACITY,
        AdmissionTuning::default(),
    )
    .expect("chaos simulation completes");
    ChaosReport {
        seed: config.seed,
        plan,
        report,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_chaos_run_interrupts_and_recovers() {
        let catalog = Catalog::build();
        let chaos = run(&catalog, &ChaosConfig::default());
        chaos.check_invariants().unwrap();
        assert!(chaos.report.device_failures > 0);
        assert!(
            chaos.exercised_recovery(),
            "default config must interrupt and migrate: {} interrupted, {} migrated",
            chaos.report.interrupted,
            chaos.report.migrated
        );
    }

    #[test]
    fn chaos_runs_are_reproducible() {
        let catalog = Catalog::build();
        let cfg = ChaosConfig {
            tasks: 60,
            seed: 7,
            ..ChaosConfig::default()
        };
        let a = run(&catalog, &cfg).to_json().pretty();
        let b = run(&catalog, &cfg).to_json().pretty();
        assert_eq!(a, b);
    }
}
