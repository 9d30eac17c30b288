//! Admission-path benchmark: the saturated scheduler with and without the
//! fast path (`repro bench`, writes `BENCH_admission.json`).
//!
//! The scenario floods the paper cluster with a 10k-task workload set
//! arriving far above service capacity, so the admission queue saturates
//! and the scheduler's cost is dominated by re-probing queued tasks. Each
//! scenario runs twice over identical inputs:
//!
//! * **current** — the shipped configuration: `Arc`-shared catalog
//!   entries, the capacity-epoch feasibility cache, and wave gating.
//! * **baseline** — cache off, gating off: the pre-optimization admission
//!   loop that re-ran a full placement probe for every queued task after
//!   every event (O(events × window)). The counter values recorded in
//!   this block are what the `probe_ratio` is measured against.
//!
//! The headline numbers are `deploy_attempts` (full placement probes, the
//! expensive operation), `deploy_attempts_per_admission`, and wall-clock.
//!
//! A third block, **scaling**, runs the fast path alone (steady, no
//! faults) at `scaling_tasks / 16`, `/ 4` and `scaling_tasks` tasks and
//! records per-task cost at each size. Its gated figure is the
//! deterministic `queue_touches_per_admission`: queue elements the
//! admission waves visited while removing admitted tasks, per admission.
//! Window-local removal keeps it at or under the scan window however long
//! the backlog grows; a removal that walks the whole queue would make it
//! grow with the task count. Wall-clock is recorded beside it but never
//! gated.
//! Outcomes must agree between the two runs — the fast path changes how
//! much work admission does, never what it admits — and the bench fails
//! loudly if they diverge (the byte-level version of that guarantee lives
//! in the A/B determinism suite, `tests/ab_admission.rs`).

use std::time::Instant;

use vfpga_runtime::{
    run_cloud_sim_tuned, AdmissionTuning, CloudReport, ElasticityPolicy, Policy, RecoveryPolicy,
    SystemController,
};
use vfpga_sim::{FaultPlan, FaultPlanParams, Json, SimTime};
use vfpga_workload::{generate_workload, Composition};

use crate::catalog::Catalog;

/// Parameters of one admission-bench run.
#[derive(Debug, Clone, Copy)]
pub struct BenchConfig {
    /// Tasks in the workload set.
    pub tasks: usize,
    /// Workload / fault-plan seed.
    pub seed: u64,
    /// Mean interarrival time. The default saturates the paper cluster by
    /// a wide margin, which is the regime the fast path exists for.
    pub mean_interarrival: SimTime,
    /// Largest task count of the scaling curve, which also runs at a
    /// sixteenth and a quarter of it.
    pub scaling_tasks: usize,
}

impl Default for BenchConfig {
    fn default() -> Self {
        BenchConfig {
            tasks: 10_000,
            seed: 2024,
            mean_interarrival: SimTime::from_us(20.0),
            scaling_tasks: 160_000,
        }
    }
}

/// Counters from one timed run of the scenario.
#[derive(Debug, Clone, Copy)]
pub struct RunCost {
    /// Wall-clock the simulation took, in milliseconds.
    pub wall_ms: f64,
    /// Full placement probes (database lookup + option scan + device
    /// scan) — the expensive admission operation.
    pub probes: u64,
    /// Attempts answered by the feasibility cache (0 with the cache off).
    pub cache_hits: u64,
    /// Successful controller deploys (admissions + redeployments).
    pub admissions: u64,
    /// Tasks completed.
    pub completed: u64,
    /// Tasks never deployed (stranded at drain).
    pub never_deployed: u64,
    /// Tasks lost.
    pub lost: u64,
    /// Final sim time.
    pub elapsed: SimTime,
    /// Queue elements visited by admission removal
    /// ([`CloudReport::queue_touches`]); reported in the scaling block
    /// only.
    pub queue_touches: u64,
}

impl RunCost {
    /// Full probes per successful admission — the artifact's regression
    /// ceiling watches this.
    pub fn attempts_per_admission(&self) -> f64 {
        self.probes as f64 / (self.admissions.max(1)) as f64
    }

    /// Queue elements admission removal visited per successful admission
    /// — the scaling gate's figure.
    pub fn queue_touches_per_admission(&self) -> f64 {
        self.queue_touches as f64 / (self.admissions.max(1)) as f64
    }

    fn to_json(self) -> Json {
        Json::obj()
            .with("wall_ms", self.wall_ms)
            .with("deploy_attempts", self.probes)
            .with("cache_hits", self.cache_hits)
            .with("admissions", self.admissions)
            .with(
                "deploy_attempts_per_admission",
                self.attempts_per_admission(),
            )
            .with("completed", self.completed)
            .with("never_deployed", self.never_deployed)
            .with("lost", self.lost)
            .with("elapsed_s", self.elapsed.as_secs())
    }
}

/// One scenario measured in both modes.
#[derive(Debug, Clone)]
pub struct ScenarioResult {
    /// `"steady"` or `"chaos"`.
    pub name: &'static str,
    /// The shipped fast path.
    pub current: RunCost,
    /// Cache and gating disabled (pre-optimization behavior).
    pub baseline: RunCost,
    /// Whether both runs admitted/completed identically (they must).
    pub outcomes_match: bool,
}

impl ScenarioResult {
    /// How many times fewer full probes the fast path ran.
    pub fn probe_ratio(&self) -> f64 {
        self.baseline.probes as f64 / (self.current.probes.max(1)) as f64
    }

    /// Wall-clock speedup of the fast path.
    pub fn wall_ratio(&self) -> f64 {
        self.baseline.wall_ms / self.current.wall_ms.max(1e-9)
    }

    /// Serializes the scenario block.
    pub fn to_json(&self) -> Json {
        Json::obj()
            .with("name", self.name)
            .with("current", self.current.to_json())
            .with("baseline", self.baseline.to_json())
            .with("probe_ratio", self.probe_ratio())
            .with("wall_ratio", self.wall_ratio())
            .with("outcomes_match", self.outcomes_match)
    }
}

/// One point of the scaling curve: the fast path at one task count.
#[derive(Debug, Clone, Copy)]
pub struct ScalingPoint {
    /// Tasks in the workload set.
    pub tasks: usize,
    /// What the run cost.
    pub cost: RunCost,
}

impl ScalingPoint {
    /// Host microseconds per task (wall-clock; recorded, never gated).
    pub fn host_us_per_task(&self) -> f64 {
        self.cost.wall_ms * 1e3 / self.tasks.max(1) as f64
    }

    fn to_json(self) -> Json {
        Json::obj()
            .with("tasks", self.tasks as u64)
            .with("wall_ms", self.cost.wall_ms)
            .with("host_us_per_task", self.host_us_per_task())
            .with("deploy_attempts", self.cost.probes)
            .with("cache_hits", self.cost.cache_hits)
            .with("admissions", self.cost.admissions)
            .with("queue_touches", self.cost.queue_touches)
            .with(
                "queue_touches_per_admission",
                self.cost.queue_touches_per_admission(),
            )
    }
}

/// The full bench result: both scenarios, the scaling curve, and the
/// headline aggregates CI greps and gates on.
#[derive(Debug, Clone)]
pub struct AdmissionBench {
    /// The seed everything was generated from.
    pub seed: u64,
    /// Tasks per scenario.
    pub tasks: usize,
    /// Saturated steady-state (no faults) and chaos scenarios.
    pub scenarios: Vec<ScenarioResult>,
    /// The fast path at increasing task counts, smallest first.
    pub scaling: Vec<ScalingPoint>,
}

impl AdmissionBench {
    /// The worst (largest) probes-per-admission across scenarios in the
    /// shipped configuration — the value the CI ceiling checks.
    pub fn attempts_per_admission(&self) -> f64 {
        self.scenarios
            .iter()
            .map(|s| s.current.attempts_per_admission())
            .fold(0.0, f64::max)
    }

    /// The smallest probe-reduction factor across scenarios.
    pub fn min_probe_ratio(&self) -> f64 {
        self.scenarios
            .iter()
            .map(ScenarioResult::probe_ratio)
            .fold(f64::INFINITY, f64::min)
    }

    /// Whether every scenario's two runs agreed on outcomes.
    pub fn outcomes_match(&self) -> bool {
        self.scenarios.iter().all(|s| s.outcomes_match)
    }

    /// The worst (largest) queue touches per admission along the scaling
    /// curve — the value the scaling gate checks.
    pub fn queue_touches_per_admission(&self) -> f64 {
        self.scaling
            .iter()
            .map(|p| p.cost.queue_touches_per_admission())
            .fold(0.0, f64::max)
    }

    /// Serializes the artifact body (the caller adds `schema_version`).
    /// `queue_touches_ceiling` is the scaling gate's bound, recorded in
    /// the scaling block.
    pub fn to_json(&self, queue_touches_ceiling: f64) -> Json {
        let scenarios: Vec<Json> = self.scenarios.iter().map(ScenarioResult::to_json).collect();
        let points: Vec<Json> = self.scaling.iter().map(|p| p.to_json()).collect();
        let host_ratio = match (self.scaling.first(), self.scaling.last()) {
            (Some(small), Some(large)) => {
                large.host_us_per_task() / small.host_us_per_task().max(1e-9)
            }
            _ => 0.0,
        };
        let scaling = Json::obj()
            .with("points", Json::Arr(points))
            .with(
                "queue_touches_per_admission",
                self.queue_touches_per_admission(),
            )
            .with("queue_touches_per_admission_ceiling", queue_touches_ceiling)
            .with("host_us_per_task_ratio", host_ratio);
        Json::obj()
            .with("seed", self.seed)
            .with("tasks", self.tasks as u64)
            .with("scenarios", Json::Arr(scenarios))
            .with(
                "deploy_attempts_per_admission",
                self.attempts_per_admission(),
            )
            .with("min_probe_ratio", self.min_probe_ratio())
            .with("outcomes_match", self.outcomes_match())
            .with("scaling", scaling)
    }
}

/// A chaos plan sized for the bench horizon: failures keep arriving over
/// the whole (saturated) workload span.
fn bench_fault_plan(config: &BenchConfig, devices: usize) -> FaultPlan {
    let horizon = SimTime::from_us(config.mean_interarrival.as_us() * config.tasks as f64 * 1.5);
    FaultPlan::generate(
        FaultPlanParams {
            mttf: SimTime::from_ms(5.0),
            mttr: SimTime::from_ms(1.0),
            configure_failure_prob: 0.0,
            horizon,
        },
        devices,
        config.seed,
    )
}

/// One timed run. `fast` selects the shipped configuration; `false` turns
/// the feasibility cache *and* wave gating off, reproducing the
/// pre-optimization admission loop.
fn timed_run(
    catalog: &Catalog,
    arrivals: &[vfpga_workload::TaskArrival],
    faults: &FaultPlan,
    fast: bool,
) -> (RunCost, CloudReport) {
    let mut controller =
        SystemController::new(catalog.cluster.clone(), catalog.db.clone(), Policy::Full);
    controller.set_feasibility_cache(fast);
    let tuning = AdmissionTuning {
        wave_gating: fast,
        // Spans are off in both modes: at bench scale the forest would
        // dominate wall-clock and memory, and the comparison must time
        // the scheduler, not the tracer.
        trace_spans: false,
        elasticity: ElasticityPolicy::DISABLED,
        ..AdmissionTuning::default()
    };
    let start = Instant::now();
    let report = run_cloud_sim_tuned(
        &mut controller,
        arrivals,
        &|task| catalog.instance_for(task),
        &|task, deployment| catalog.service_time(task, deployment, Policy::Full),
        faults,
        RecoveryPolicy::default(),
        // The ring only keeps a window; a small one avoids measuring it.
        1024,
        tuning,
    )
    .expect("bench simulation completes");
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    let stats = controller.stats();
    let cost = RunCost {
        wall_ms,
        probes: stats.probes,
        cache_hits: stats.cache_hits,
        admissions: stats.deploys,
        completed: report.completed,
        never_deployed: report.never_deployed,
        lost: report.lost,
        elapsed: report.elapsed,
        queue_touches: report.queue_touches,
    };
    (cost, report)
}

/// Outcome agreement between the two modes: identical admissions at
/// identical sim-times (summarized by the fields that pin them).
fn outcomes_match(a: &CloudReport, b: &CloudReport) -> bool {
    a.completed == b.completed
        && a.never_deployed == b.never_deployed
        && a.lost == b.lost
        && a.elapsed == b.elapsed
        && a.latency_p99 == b.latency_p99
        && a.rejected_tasks == b.rejected_tasks
        && a.migrated == b.migrated
        && a.redeployments == b.redeployments
}

/// The bench's saturating workload set at `tasks` tasks.
fn workload(config: &BenchConfig, tasks: usize) -> Vec<vfpga_workload::TaskArrival> {
    generate_workload(
        Composition::TABLE1[4],
        tasks,
        config.mean_interarrival,
        config.seed,
    )
}

/// Runs one scenario (fast path first, then the baseline) over identical
/// inputs.
fn run_scenario(
    catalog: &Catalog,
    config: &BenchConfig,
    name: &'static str,
    faults: &FaultPlan,
) -> ScenarioResult {
    let arrivals = workload(config, config.tasks);
    let (current, current_report) = timed_run(catalog, &arrivals, faults, true);
    let (baseline, baseline_report) = timed_run(catalog, &arrivals, faults, false);
    ScenarioResult {
        name,
        current,
        baseline,
        outcomes_match: outcomes_match(&current_report, &baseline_report),
    }
}

/// Runs the full admission bench: the saturated steady-state scenario,
/// the same workload under a chaos plan, and the fast path's scaling
/// curve.
pub fn run(catalog: &Catalog, config: &BenchConfig) -> AdmissionBench {
    let steady = run_scenario(catalog, config, "steady", &FaultPlan::none());
    let plan = bench_fault_plan(config, catalog.cluster.len());
    let chaos = run_scenario(catalog, config, "chaos", &plan);
    let scaling = [16, 4, 1]
        .map(|div| config.scaling_tasks / div)
        .into_iter()
        .map(|tasks| {
            let arrivals = workload(config, tasks);
            let (cost, _) = timed_run(catalog, &arrivals, &FaultPlan::none(), true);
            ScalingPoint { tasks, cost }
        })
        .collect();
    AdmissionBench {
        seed: config.seed,
        tasks: config.tasks,
        scenarios: vec![steady, chaos],
        scaling,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A scaled-down config so the test suite stays fast; the real 10k
    /// bench runs via `repro bench` (and in CI's bench rows).
    fn small() -> BenchConfig {
        BenchConfig {
            tasks: 400,
            seed: 7,
            scaling_tasks: 1_600,
            ..BenchConfig::default()
        }
    }

    #[test]
    fn fast_path_cuts_probes_without_changing_outcomes() {
        let catalog = Catalog::build();
        let bench = run(&catalog, &small());
        assert_eq!(bench.scenarios.len(), 2);
        assert!(bench.outcomes_match(), "fast path changed admissions");
        for s in &bench.scenarios {
            assert!(
                s.probe_ratio() >= 3.0,
                "{}: probe ratio {:.2} below the 3x bar ({} vs {})",
                s.name,
                s.probe_ratio(),
                s.baseline.probes,
                s.current.probes
            );
            assert!(s.current.admissions > 0);
        }
    }

    #[test]
    fn scaling_curve_keeps_queue_touches_within_one_window() {
        let catalog = Catalog::build();
        let bench = run(&catalog, &small());
        let sizes: Vec<usize> = bench.scaling.iter().map(|p| p.tasks).collect();
        assert_eq!(sizes, [100, 400, 1_600]);
        for p in &bench.scaling {
            assert!(p.cost.admissions > 0);
            assert!(
                p.cost.queue_touches_per_admission() <= 64.0,
                "{} tasks: {:.2} queue touches per admission",
                p.tasks,
                p.cost.queue_touches_per_admission()
            );
        }
    }

    #[test]
    fn artifact_json_carries_the_gated_fields() {
        let catalog = Catalog::build();
        let bench = run(&catalog, &small());
        let text = bench.to_json(64.0).pretty();
        for key in [
            "\"deploy_attempts_per_admission\"",
            "\"min_probe_ratio\"",
            "\"outcomes_match\"",
            "\"baseline\"",
            "\"current\"",
            "\"wall_ms\"",
            "\"scaling\"",
            "\"queue_touches_per_admission\"",
            "\"queue_touches_per_admission_ceiling\"",
        ] {
            assert!(text.contains(key), "missing {key} in {text}");
        }
        assert!(Json::parse(&text).is_ok());
    }
}
