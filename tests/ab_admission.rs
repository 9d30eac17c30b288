//! A/B determinism suite for the admission fast path: the capacity-epoch
//! feasibility cache must change how much work admission does, never what
//! it admits. Every artifact the repro harness writes — the metrics
//! report body, the chaos document, the trace export — must come out
//! byte-identical with the cache on and off, across seeds; and the cache
//! epoch must invalidate on every operation that can increase capacity
//! (release, evict, recover — including the sibling releases behind a
//! scale-down redeploy).
//!
//! The fast-vs-reference checks run a backlog over a thousand tasks deep
//! with spans on, so the wave-local parts of admission — window-local
//! queue removal and the fast path's rejected-instance memo — carry the
//! run, and every span they book or skip shows in the trace export.

use vfpga::fabric::DeviceId;
use vfpga::runtime::{
    run_cloud_sim_tuned, AdmissionTuning, CloudReport, Policy, RecoveryPolicy, RejectReason,
    SystemController, DEFAULT_TRACE_CAPACITY,
};
use vfpga::sim::{chrome_trace_events, FaultPlan, FaultPlanParams, Json, SimTime};
use vfpga::workload::{generate_workload, Composition};
use vfpga_bench::chaos::{self, ChaosConfig};
use vfpga_bench::Catalog;

/// The two seeds the A/B comparisons fan over (a subset of the chaos
/// sweep's seed matrix, kept small because every check runs each seed
/// twice).
const AB_SEEDS: [u64; 2] = [7, 2024];

/// One saturated steady-state run (no faults) with the cache on or off.
fn steady_run(catalog: &Catalog, seed: u64, cache: bool) -> CloudReport {
    let arrivals = generate_workload(Composition::TABLE1[4], 300, SimTime::from_us(20.0), seed);
    let mut controller =
        SystemController::new(catalog.cluster.clone(), catalog.db.clone(), Policy::Full);
    controller.set_feasibility_cache(cache);
    run_cloud_sim_tuned(
        &mut controller,
        &arrivals,
        &|task| catalog.instance_for(task),
        &|task, deployment| catalog.service_time(task, deployment, Policy::Full),
        &FaultPlan::none(),
        RecoveryPolicy::default(),
        DEFAULT_TRACE_CAPACITY,
        AdmissionTuning::default(),
    )
    .expect("steady simulation completes")
}

#[test]
fn cache_ab_steady_reports_are_byte_identical() {
    let catalog = Catalog::build();
    for seed in AB_SEEDS {
        let on = steady_run(&catalog, seed, true).to_json().pretty();
        let off = steady_run(&catalog, seed, false).to_json().pretty();
        assert_eq!(
            on, off,
            "seed {seed}: cached report diverged from uncached under saturation"
        );
    }
}

#[test]
fn cache_ab_chaos_artifacts_are_byte_identical() {
    let catalog = Catalog::build();
    for seed in AB_SEEDS {
        let run_with = |feasibility_cache: bool| {
            chaos::run(
                &catalog,
                &ChaosConfig {
                    seed,
                    feasibility_cache,
                    ..ChaosConfig::default()
                },
            )
        };
        let on = run_with(true);
        let off = run_with(false);
        assert_eq!(
            on.to_json().pretty(),
            off.to_json().pretty(),
            "seed {seed}: chaos artifact diverged with the cache on vs off"
        );
        // The comparison is meaningful only if the cache actually served
        // attempts and chaos actually interrupted work.
        assert!(on.report.interrupted > 0, "seed {seed}: chaos was a no-op");
    }
}

#[test]
fn cache_ab_trace_exports_are_byte_identical() {
    let catalog = Catalog::build();
    let run_with = |feasibility_cache: bool| {
        chaos::run(
            &catalog,
            &ChaosConfig {
                seed: 7,
                feasibility_cache,
                ..ChaosConfig::default()
            },
        )
    };
    let on = run_with(true);
    let off = run_with(false);
    // The trace artifact's payload: the Chrome trace-event array plus the
    // critical-path decomposition, both derived from the span forest. A
    // cache hit replays the exact probe outcome (capacity rejections have
    // no reconfigure children), so the forests must match span for span.
    let export = |run: &chaos::ChaosReport| {
        Json::obj()
            .with("critical_path", run.report.critical_path.to_json())
            .with("traceEvents", chrome_trace_events(&[&run.report.spans]))
            .pretty()
    };
    assert!(!on.report.spans.is_empty());
    assert_eq!(
        export(&on),
        export(&off),
        "trace export diverged with the cache on vs off"
    );
}

/// Which admission configuration a run takes.
#[derive(Clone, Copy, Debug)]
struct Path {
    wave_gating: bool,
    feasibility_cache: bool,
}

/// The shipped fast path: gating and the cache on, which also turns on
/// the rejected-instance memo.
const FAST: Path = Path {
    wave_gating: true,
    feasibility_cache: true,
};

/// Gating on, cache off: every attempt goes through a full probe. Wave
/// gating is the same as on the fast path, so the artifacts must match it
/// byte for byte.
const GATED_UNCACHED: Path = Path {
    wave_gating: true,
    feasibility_cache: false,
};

/// The reference path: gating and the cache off.
const REFERENCE: Path = Path {
    wave_gating: false,
    feasibility_cache: false,
};

/// Tasks in the deep-backlog workload, arriving at ten times the mean
/// rate of the other A/B runs: nearly all of them queue, so the backlog
/// passes a thousand tasks, far beyond the 64-task scan window.
const DEEP_TASKS: usize = 1_100;
const DEEP_GAP_US: f64 = 2.0;

/// Device fail/recover waves plus transient configure faults over the
/// deep workload's drain.
fn deep_fault_plan(catalog: &Catalog, seed: u64) -> FaultPlan {
    FaultPlan::generate(
        FaultPlanParams {
            mttf: SimTime::from_ms(20.0),
            mttr: SimTime::from_ms(2.0),
            configure_failure_prob: 0.05,
            horizon: SimTime::from_ms(250.0),
        },
        catalog.cluster.len(),
        seed,
    )
}

/// One deep-backlog run with spans on.
fn deep_run(catalog: &Catalog, seed: u64, faults: &FaultPlan, path: Path) -> CloudReport {
    let arrivals = generate_workload(
        Composition::TABLE1[4],
        DEEP_TASKS,
        SimTime::from_us(DEEP_GAP_US),
        seed,
    );
    let mut controller =
        SystemController::new(catalog.cluster.clone(), catalog.db.clone(), Policy::Full);
    controller.set_feasibility_cache(path.feasibility_cache);
    run_cloud_sim_tuned(
        &mut controller,
        &arrivals,
        &|task| catalog.instance_for(task),
        &|task, deployment| catalog.service_time(task, deployment, Policy::Full),
        faults,
        RecoveryPolicy::default(),
        DEFAULT_TRACE_CAPACITY,
        AdmissionTuning {
            wave_gating: path.wave_gating,
            ..AdmissionTuning::default()
        },
    )
    .unwrap_or_else(|e| panic!("{path:?} run fails: {e}"))
}

/// The report body and Chrome trace export of a run.
fn artifacts(report: &CloudReport) -> (String, String) {
    (
        report.to_json().compact(),
        chrome_trace_events(&[&report.spans]).compact(),
    )
}

/// [`artifacts`] without what wave gating legitimately changes: the
/// gated path skips waves that could only replay rejections, so the
/// per-attempt rejection counters, the span count, and the zero-duration
/// `deploy` spans of rejected attempts differ. Every admission, its
/// sim-time, every phase span and every other count must still match.
fn admission_artifacts(report: &CloudReport) -> (String, String) {
    let Json::Obj(fields) = report.to_json() else {
        panic!("report serializes as an object");
    };
    let body = Json::Obj(
        fields
            .into_iter()
            .filter(|(key, _)| key != "spans")
            .map(|(key, value)| match (key.as_ref(), value) {
                ("rejections", Json::Obj(views)) => (
                    key,
                    Json::Obj(views.into_iter().filter(|(k, _)| k != "attempts").collect()),
                ),
                (_, value) => (key, value),
            })
            .collect(),
    );
    let Json::Arr(events) = chrome_trace_events(&[&report.spans]) else {
        panic!("trace export is an array");
    };
    let rejected_deploy = |e: &Json| {
        e.field("name").and_then(Json::as_str) == Some("deploy")
            && e.field("args")
                .and_then(|a| a.field("outcome"))
                .and_then(Json::as_str)
                == Some("rejected")
    };
    let trace = Json::Arr(events.into_iter().filter(|e| !rejected_deploy(e)).collect());
    (body.compact(), trace.compact())
}

/// Runs the deep workload on the fast path and on `other`, returning the
/// fast report for sanity checks.
fn assert_fast_matches(
    catalog: &Catalog,
    seed: u64,
    faults: &FaultPlan,
    other: Path,
    project: fn(&CloudReport) -> (String, String),
) -> CloudReport {
    let fast = deep_run(catalog, seed, faults, FAST);
    let slow = deep_run(catalog, seed, faults, other);
    let (fast_body, fast_trace) = project(&fast);
    let (slow_body, slow_trace) = project(&slow);
    assert!(
        fast_body == slow_body,
        "seed {seed}: fast report diverged from {other:?}"
    );
    assert!(
        fast_trace == slow_trace,
        "seed {seed}: fast trace export diverged from {other:?}"
    );
    fast
}

#[test]
fn fast_path_matches_gated_uncached_path_byte_for_byte_with_spans() {
    let catalog = Catalog::build();
    for seed in AB_SEEDS {
        for faults in [FaultPlan::none(), deep_fault_plan(&catalog, seed)] {
            let fast = assert_fast_matches(&catalog, seed, &faults, GATED_UNCACHED, artifacts);
            // The comparison only means something if the backlog grew far
            // past the scan window and, under the plan, faults struck.
            assert!(
                fast.peak_queue_depth >= 1_000,
                "seed {seed}: backlog only {}",
                fast.peak_queue_depth
            );
            assert!(fast.queue_touches > 0);
            if faults.configure_failure_prob() > 0.0 {
                assert!(fast.interrupted > 0, "seed {seed}: no device fault struck");
                assert!(
                    fast.rejections_for(RejectReason::TransientFault) > 0,
                    "seed {seed}: no transient fault struck"
                );
            }
        }
    }
}

#[test]
fn fast_path_admits_exactly_as_the_reference_path_with_spans() {
    let catalog = Catalog::build();
    for seed in AB_SEEDS {
        for faults in [FaultPlan::none(), deep_fault_plan(&catalog, seed)] {
            assert_fast_matches(&catalog, seed, &faults, REFERENCE, admission_artifacts);
        }
    }
}

/// Fills the cluster with deployments of `instance` until the controller
/// rejects one, returning what was deployed.
fn fill_with(controller: &mut SystemController, instance: &str) -> Vec<vfpga::runtime::Deployment> {
    let mut live = Vec::new();
    loop {
        match controller.try_deploy(instance).expect("known instance") {
            Some(d) => live.push(d),
            None => return live,
        }
    }
}

#[test]
fn capacity_epoch_invalidates_on_every_capacity_changing_operation() {
    let catalog = Catalog::build();
    let mut c = SystemController::new(catalog.cluster.clone(), catalog.db.clone(), Policy::Full);
    let live = fill_with(&mut c, "bw-l");
    assert!(!live.is_empty(), "cluster must hold at least one bw-l");

    // The rejection that ended the fill is now cached: replaying the
    // attempt must answer from the cache, not probe.
    let probes_before = c.stats().probes;
    let epoch = c.capacity_epoch();
    for _ in 0..3 {
        let outcome = c.try_deploy_explained("bw-l", None).unwrap();
        assert_eq!(outcome.unwrap_err(), RejectReason::InsufficientCapacity);
    }
    assert_eq!(
        c.stats().probes,
        probes_before,
        "cached replay must not probe"
    );
    assert_eq!(
        c.capacity_epoch(),
        epoch,
        "rejections must not move the epoch"
    );

    // Release: capacity grows, the epoch must move, and the next attempt
    // must probe (and here, succeed).
    let released = live.last().unwrap();
    c.release(released).unwrap();
    assert_ne!(c.capacity_epoch(), epoch, "release must invalidate");
    let probes_before = c.stats().probes;
    let redeployed = c
        .try_deploy("bw-l")
        .unwrap()
        .expect("released capacity admits again");
    assert!(
        c.stats().probes > probes_before,
        "fresh epoch must re-probe"
    );
    // A successful configure only shrinks capacity: cached rejections
    // stay valid, so deploys must NOT move the epoch.
    let epoch = c.capacity_epoch();

    // Evict: a device failure frees the victims' surviving units (the
    // capacity a scale-down redeploy then claims) — the epoch must move
    // even though the failed device itself left the pool.
    let victim_device = redeployed.placements[0].device;
    let interrupted = c.handle_device_failure(victim_device, None);
    assert!(!interrupted.is_empty(), "the failed device held units");
    assert_ne!(c.capacity_epoch(), epoch, "evict must invalidate");
    let epoch = c.capacity_epoch();

    // Scale-down redeploy: with the original device gone, the interrupted
    // instance redeploys onto the freed sibling capacity. The deploy
    // itself (a configure) must not move the epoch.
    let scale_down = c.try_deploy("bw-l").unwrap();
    if let Some(d) = &scale_down {
        assert_eq!(c.capacity_epoch(), epoch, "configure must not invalidate");
        c.release(d).unwrap();
        assert_ne!(c.capacity_epoch(), epoch, "release must invalidate");
    }
    let epoch = c.capacity_epoch();

    // Recover: the device rejoins with every slot free — the epoch must
    // move so cached capacity rejections are re-probed against it.
    c.handle_device_recovery(victim_device);
    assert_ne!(c.capacity_epoch(), epoch, "recover must invalidate");

    // Idempotent no-ops must not churn the epoch: recovering a healthy
    // device or failing an already-failed one changes no capacity.
    let epoch = c.capacity_epoch();
    c.handle_device_recovery(victim_device);
    assert_eq!(
        c.capacity_epoch(),
        epoch,
        "no-op recovery must not invalidate"
    );
    let other = DeviceId(victim_device.0);
    c.handle_device_failure(other, None);
    let failed_epoch = c.capacity_epoch();
    c.handle_device_failure(other, None);
    assert_eq!(
        c.capacity_epoch(),
        failed_epoch,
        "re-failing a failed device must not invalidate"
    );
}
