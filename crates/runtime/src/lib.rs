//! # vfpga-runtime — the runtime management system
//!
//! The top layer of the framework (Section 2.3): a **system controller**
//! that owns the mapping database and allocates physical FPGAs to deploy
//! decomposed accelerators, sending configuration requests to the HS
//! abstraction's low-level controller (Fig. 7).
//!
//! * [`SystemController`] — deployment/release with the paper's **greedy
//!   policy** (scan mapping results by ascending soft-block count, i.e.
//!   fewest FPGAs first, minimizing inter-FPGA communication), plus the two
//!   comparison policies of the evaluation: [`Policy::Baseline`] (AS ISA
//!   only: one whole FPGA per accelerator, the paper's baseline system) and
//!   [`Policy::Restricted`] (multi-FPGA deployments confined to devices of
//!   one type, emulating the homogeneous-only multi-FPGA support of
//!   existing HS abstractions — the Fig. 12 middle bar).
//! * [`run_cloud_sim`] — the discrete-event simulation of the cluster
//!   serving a workload set: arrivals queue, deploy, run, release;
//!   aggregated throughput in tasks/second is Fig. 12's metric. Every run
//!   returns a fully instrumented [`CloudReport`]: latency percentiles,
//!   occupancy/queue-depth time series, rejection-reason breakdowns (see
//!   [`RejectReason`]), a metrics registry, and a scheduler-event trace —
//!   with the accounting invariant `completed + never_deployed + lost ==
//!   arrivals` (queued tasks are never silently dropped).
//! * [`run_cloud_sim_tuned`] — the same simulation with every knob
//!   explicit: a [`vfpga_sim::FaultPlan`]'s device and ring-segment fault
//!   waves, where interrupted deployments migrate to surviving devices
//!   with bounded exponential backoff (see [`RecoveryPolicy`]), falling
//!   back to deeper partition variants when the original footprint no
//!   longer fits, and the report gains recovery accounting
//!   (interruptions, migrations, mean time-to-recovery, degraded-mode
//!   occupancy); the trace-ring capacity; and the [`AdmissionTuning`]
//!   (admission fast path, spans, elasticity, streaming telemetry).
//! * [`co_simulate_timing`]/[`co_simulate_functional`] — coupled simulation
//!   of scaled-down accelerators exchanging state over the inter-FPGA ring,
//!   with a configurable added link latency (the paper's programmable
//!   latency-insertion module) — the machinery behind Fig. 11.

mod cloudsim;
mod controller;
mod monitor;
mod scaleout_sim;
#[cfg(test)]
mod testutil;

pub use cloudsim::{
    run_cloud_sim, run_cloud_sim_tuned, AdmissionTuning, CloudReport, ElasticityPolicy,
    RecoveryPolicy, DEFAULT_TRACE_CAPACITY,
};
pub use controller::{
    ControllerStats, Deployment, DeploymentId, Placement, Policy, RejectReason, ScaleDown,
    SystemController,
};
pub use monitor::{MonitorConfig, MonitorReport, RunMonitor};
pub use scaleout_sim::{
    co_simulate_functional, co_simulate_timing, co_simulate_timing_faulted, LinkChaos,
    ScaleOutTiming,
};

use std::fmt;

/// Errors from the runtime layer.
#[derive(Debug)]
pub enum RuntimeError {
    /// The instance is not in the mapping database.
    UnknownInstance(String),
    /// The HS abstraction rejected a configuration request.
    Hs(vfpga_hsabs::HsError),
    /// Communicating machines deadlocked (each waiting on the other).
    Deadlock {
        /// Machines still blocked when progress stopped.
        blocked: usize,
    },
    /// Communicating machines starved on messages that were sent but can
    /// never be delivered (the link failed for good, retransmissions were
    /// exhausted, or delivery would pass the deadline).
    Timeout {
        /// Machines still blocked when progress stopped.
        blocked: usize,
    },
    /// A functional simulation error during co-simulation.
    Sim(Box<dyn std::error::Error>),
    /// A cloud-simulation run invariant failed. Checked in every build
    /// profile: a run that breaks one would otherwise return a wrong
    /// report.
    InvariantViolated(Invariant),
}

/// The run invariants the cloud simulator checks before it returns a
/// report (see [`RuntimeError::InvariantViolated`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Invariant {
    /// A completion fired for a task that holds no deployment.
    CompletionNotRunning {
        /// The task's arrival index.
        task: usize,
    },
    /// Tasks still held deployments when the event queue drained.
    RunningAtDrain {
        /// How many tasks were still running.
        running: usize,
    },
    /// Spans were still open after the run closed every task's spans.
    SpanOpenPastRun {
        /// How many spans were still open.
        open: usize,
    },
    /// The controller interrupted a deployment no task holds.
    UnknownDeployment {
        /// The interrupted deployment's id.
        deployment: u64,
    },
    /// An interruption, preemption or resize targeted a task that holds
    /// no deployment.
    TaskNotRunning {
        /// The task's arrival index.
        task: usize,
    },
    /// A redeployment was booked as a recovery for a task with no pending
    /// interruption.
    RecoveryWithoutInterruption {
        /// The task's arrival index.
        task: usize,
    },
    /// `completed + never_deployed + lost != arrivals`.
    ArrivalsUnaccounted {
        /// Tasks that arrived.
        arrivals: u64,
        /// Tasks completed.
        completed: u64,
        /// Tasks stranded in the queue at drain.
        never_deployed: u64,
        /// Tasks dropped after exhausting migration retries.
        lost: u64,
    },
}

impl fmt::Display for Invariant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Invariant::CompletionNotRunning { task } => {
                write!(f, "completion for task {task}, which is not running")
            }
            Invariant::RunningAtDrain { running } => write!(
                f,
                "{running} tasks still running after the event queue drained"
            ),
            Invariant::UnknownDeployment { deployment } => {
                write!(f, "deployment {deployment} was interrupted but no task holds it")
            }
            Invariant::TaskNotRunning { task } => {
                write!(f, "task {task} was to be interrupted or resized but is not running")
            }
            Invariant::RecoveryWithoutInterruption { task } => {
                write!(f, "task {task} recovered without a pending interruption")
            }
            Invariant::SpanOpenPastRun { open } => {
                write!(f, "{open} spans still open past the run")
            }
            Invariant::ArrivalsUnaccounted {
                arrivals,
                completed,
                never_deployed,
                lost,
            } => write!(
                f,
                "arrivals unaccounted for: {completed} completed + {never_deployed} never deployed + {lost} lost != {arrivals}"
            ),
        }
    }
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::UnknownInstance(name) => {
                write!(f, "instance `{name}` not in mapping database")
            }
            RuntimeError::Hs(e) => write!(f, "hs abstraction error: {e}"),
            RuntimeError::Deadlock { blocked } => {
                write!(f, "scale-out deadlock with {blocked} machines blocked")
            }
            RuntimeError::Timeout { blocked } => {
                write!(
                    f,
                    "scale-out timeout with {blocked} machines starved on undeliverable messages"
                )
            }
            RuntimeError::Sim(e) => write!(f, "simulation error: {e}"),
            RuntimeError::InvariantViolated(inv) => write!(f, "run invariant violated: {inv}"),
        }
    }
}

impl std::error::Error for RuntimeError {}

impl From<Invariant> for RuntimeError {
    fn from(inv: Invariant) -> Self {
        RuntimeError::InvariantViolated(inv)
    }
}

impl From<vfpga_hsabs::HsError> for RuntimeError {
    fn from(e: vfpga_hsabs::HsError) -> Self {
        RuntimeError::Hs(e)
    }
}
