//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name|all> [--seed N] [--seconds S] [--trace 0|1] [--describe]
//! ```
//!
//! One process runs one workload, single-threaded: it sets the workload up
//! several times (the median is `setup_s`), runs the timed body once to
//! warm lazy caches, then repeats the body for `--seconds` and reports
//! medians. Every body's outputs are checked; the last line of standard
//! output is one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`. `--trace 0` reports the end-to-end metrics; `--trace 1`
//! alternates traced and untraced bodies and reports the per-layer
//! metrics, writing the spans to `perfbench/out/`. `--workload all` runs
//! every workload in a child process of its own. See `perfbench/README.md`.

mod cloud;
mod compile;
mod layers;
mod metrics;
mod scaleout;
mod spans;

use std::process::{Command, ExitCode};
use std::time::Instant;

use vfpga_sim::Json;

use crate::cloud::CloudSpec;
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::spans::Tracer;

/// Extra set-ups timed before each measured body, so that `setup_s`, the
/// median of all set-ups, samples the same stretch of time as the bodies.
const SETUPS_PER_BODY: usize = 3;
/// Fewest measured bodies per run, however long they take.
const MIN_BODIES: usize = 3;

/// What the simulated hardware did in one body (deterministic per seed).
#[derive(Debug, Clone, Copy)]
pub struct SimOutcome {
    pub throughput_per_s: f64,
    pub latency_p50_ms: f64,
    pub latency_p99_ms: f64,
    pub makespan_ms: f64,
}

/// The checked result of one body.
#[derive(Debug)]
pub struct Outcome {
    /// Units of work the body did: tasks simulated, or instructions
    /// compiled and co-simulated.
    pub work: f64,
    pub attempted: u64,
    pub failed: u64,
    /// Digest of everything the body simulated; identical across bodies.
    pub digest: u64,
    /// Failed output checks.
    pub problems: Vec<String>,
    pub sim: SimOutcome,
    /// Exact per-layer counts.
    pub counts: Vec<(&'static str, f64)>,
}

/// 64-bit FNV-1a.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

#[derive(Debug, Clone, Copy)]
enum Kind {
    Cloud(CloudSpec),
    Scaleout,
}

/// One named workload and what it is for.
struct Workload {
    name: &'static str,
    kind: Kind,
    why: &'static str,
    stresses: &'static str,
    bypasses: &'static str,
    default_seed: u64,
    held_out_seed: u64,
}

const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "admission-saturated",
        kind: Kind::Cloud(cloud::ADMISSION_SATURATED),
        why: "backlog grows to ~31k tasks, so queue scans, controller probes and instance_for calls dominate",
        stresses: "runtime::cloudsim admission waves, runtime::controller probes and feasibility cache, bench catalog instance_for",
        bypasses: "faults, elasticity, spans, monitor, exports, ISA scale-out tools",
        default_seed: 7,
        held_out_seed: 31_337,
    },
    Workload {
        name: "observed-chaos",
        kind: Kind::Cloud(cloud::OBSERVED_CHAOS),
        why: "the user-facing observed run: faults, elasticity, monitor and spans on, then report and Chrome-trace export",
        stresses: "sim telemetry (spans, critical path, trace ring, monitor), export, controller deploy/release, catalog service_time",
        bypasses: "saturated admission scanning, ISA scale-out tools",
        default_seed: 2024,
        held_out_seed: 8_675_309,
    },
    Workload {
        name: "scaleout-compile",
        kind: Kind::Scaleout,
        why: "54 program slices through the ISA scale-out tools, then Fig. 11 timing co-simulation of every deployment",
        stresses: "workload codegen, core::scaleout insert/reorder (isa DepGraph::build), isa encode, runtime::scaleout_sim",
        bypasses: "runtime::cloudsim, runtime::controller, sim telemetry",
        default_seed: 42,
        held_out_seed: 1_234_567,
    },
];

/// A workload's inputs, built by one set-up.
enum Prepared {
    Cloud(cloud::Prepared),
    Scaleout(scaleout::Prepared),
}

impl Prepared {
    fn setup(kind: Kind, seed: u64, t: &mut Tracer) -> Prepared {
        t.span("setup", |t| match kind {
            Kind::Cloud(spec) => Prepared::Cloud(cloud::setup(spec, seed, t)),
            Kind::Scaleout => Prepared::Scaleout(scaleout::setup(seed, t)),
        })
    }

    fn catalog(&self) -> &vfpga_bench::catalog::Catalog {
        match self {
            Prepared::Cloud(p) => &p.catalog,
            Prepared::Scaleout(p) => &p.catalog,
        }
    }

    fn full_size(&self) -> usize {
        match self {
            Prepared::Cloud(p) => p.spec.tasks,
            Prepared::Scaleout(_) => 0,
        }
    }

    /// Runs one timed body of `size` tasks (cloud) under a `body` span,
    /// then checks it under an `inspect` span. Returns the body's host
    /// seconds and outcome.
    fn run(&self, size: usize, full_checks: bool, t: &mut Tracer) -> (f64, Outcome) {
        match self {
            Prepared::Cloud(p) => {
                let start = Instant::now();
                let finished = t.span("body", |t| cloud::body(p, size, t));
                let secs = start.elapsed().as_secs_f64();
                let outcome = t.span("inspect", |t| cloud::inspect(p, size, finished, t));
                (secs, outcome)
            }
            Prepared::Scaleout(p) => {
                let start = Instant::now();
                let finished = t.span("body", |t| scaleout::body(p, t));
                let secs = start.elapsed().as_secs_f64();
                let outcome = t.span("inspect", |t| {
                    scaleout::inspect(p, finished, full_checks, t)
                });
                (secs, outcome)
            }
        }
    }
}

/// One measured body.
struct Body {
    run: u32,
    traced: bool,
    secs: f64,
    outcome: Outcome,
}

impl Body {
    fn work_per_s(&self) -> f64 {
        self.outcome.work / self.secs
    }
}

fn median(mut xs: Vec<f64>) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// The process's resident-set high-water mark in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

struct Args {
    workload: String,
    seed: Option<u64>,
    seconds: f64,
    trace: bool,
    describe: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: None,
        seconds: 10.0,
        trace: false,
        describe: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--describe" {
            args.describe = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !args.describe && args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    if !(args.seconds.is_finite() && args.seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
            eprintln!("{e}");
            eprintln!(
                "usage: perfbench --workload <{}|all> [--seed N] [--seconds S] [--trace 0|1] [--describe]",
                names.join("|")
            );
            return ExitCode::from(2);
        }
    };
    if args.describe {
        println!("{}", describe().pretty());
        return ExitCode::SUCCESS;
    }
    if args.workload == "all" {
        return run_all(&args);
    }
    let Some(w) = WORKLOADS.iter().find(|w| w.name == args.workload) else {
        eprintln!("unknown workload {}", args.workload);
        return ExitCode::from(2);
    };
    let seed = args.seed.unwrap_or(w.default_seed);
    let (result, ok) = measure(w, seed, args.seconds, args.trace);
    println!("{}", result.compact());
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs every workload in a child process of its own and prints each
/// one's result line, then a table of all metrics.
fn run_all(args: &Args) -> ExitCode {
    let exe = std::env::current_exe().expect("the running executable has a path");
    let mut all_ok = true;
    for w in &WORKLOADS {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", w.name])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }]);
        if let Some(seed) = args.seed {
            cmd.args(["--seed", &seed.to_string()]);
        }
        let out = match cmd.output() {
            Ok(out) => out,
            Err(e) => {
                eprintln!("{}: cannot start: {e}", w.name);
                all_ok = false;
                continue;
            }
        };
        eprint!("{}", String::from_utf8_lossy(&out.stderr));
        let stdout = String::from_utf8_lossy(&out.stdout);
        let last = stdout.lines().last().unwrap_or("");
        all_ok &= out.status.success();
        println!("== {} ({})", w.name, out.status);
        match Json::parse(last)
            .ok()
            .and_then(|j| j.field("metrics").cloned())
        {
            Some(Json::Obj(metrics)) => {
                for (name, m) in metrics {
                    let value = m.field("value").and_then(Json::as_num).unwrap_or(f64::NAN);
                    let unit = m.field("unit").and_then(Json::as_str).unwrap_or("");
                    println!("  {name:<44} {value:>16.6} {unit}");
                }
            }
            _ => println!("  no result"),
        }
        println!("  {last}");
    }
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Measures one workload. Returns the result object and whether every
/// check passed.
fn measure(w: &Workload, seed: u64, seconds: f64, traced: bool) -> (Json, bool) {
    let mut t = Tracer::new(traced);
    let mut setup_secs = Vec::new();
    let mut timed_setup = |t: &mut Tracer| {
        let start = Instant::now();
        let p = Prepared::setup(w.kind, seed, t);
        setup_secs.push(start.elapsed().as_secs_f64());
        p
    };
    let p = timed_setup(&mut t);
    let mut problems = Vec::new();
    if traced {
        if let Err(e) = t.span("compile", |t| compile::retime(p.catalog(), t)) {
            problems.push(e);
        }
    }

    // Warm-up body: fills the catalog's latency memo and gives the
    // reference digest every later body must reproduce.
    t.set_enabled(false);
    t.set_run(1);
    let size = p.full_size();
    let (_, warm) = p.run(size, true, &mut t);
    let reference = warm.digest;
    let mut attempted = warm.attempted;
    let mut failed = warm.failed;
    problems.extend(warm.problems.iter().cloned());

    let mut bodies: Vec<Body> = Vec::new();
    let start = Instant::now();
    let min_bodies = if traced { 2 } else { MIN_BODIES };
    while bodies.len() < min_bodies || start.elapsed().as_secs_f64() < seconds {
        let run = bodies.len() as u32 + 2;
        t.set_enabled(false);
        for _ in 0..SETUPS_PER_BODY {
            timed_setup(&mut t);
        }
        let traced_body = traced && bodies.len().is_multiple_of(2);
        t.set_enabled(traced_body);
        t.set_run(run);
        let (secs, outcome) = p.run(size, false, &mut t);
        attempted += outcome.attempted;
        failed += outcome.failed;
        problems.extend(outcome.problems.iter().cloned());
        if outcome.digest != reference {
            problems.push(format!("body {run} simulated a different result"));
        }
        bodies.push(Body {
            run,
            traced: traced_body,
            secs,
            outcome,
        });
    }
    t.set_enabled(false);
    if let Prepared::Scaleout(s) = &p {
        if let Err(e) = scaleout::functional_check(s) {
            problems.push(e);
        }
    }

    let layer_metrics = traced.then(|| layers::per_layer(w, &p, &mut t, &bodies, &mut problems));
    for e in &problems {
        eprintln!("{}: check failed: {e}", w.name);
    }
    let correct = problems.is_empty();
    if !correct {
        failed = attempted;
    }
    let metrics =
        layer_metrics.unwrap_or_else(|| end_to_end(&setup_secs, &bodies, attempted, failed));
    let mut out = Json::obj();
    for (name, value, unit) in metrics {
        out = out.with(name, Json::obj().with("value", value).with("unit", unit));
    }
    let result = Json::obj()
        .with("correct", correct)
        .with("attempted", attempted)
        .with("failed", failed)
        .with("metrics", out);
    (result, correct)
}

type Metric = (&'static str, f64, &'static str);

fn end_to_end(setup_secs: &[f64], bodies: &[Body], attempted: u64, failed: u64) -> Vec<Metric> {
    let sim = bodies[0].outcome.sim;
    let values = [
        median(setup_secs.to_vec()),
        median(bodies.iter().map(|b| b.work_per_s()).collect()),
        peak_rss_mb(),
        1.0 - failed as f64 / attempted.max(1) as f64,
        sim.throughput_per_s,
        sim.latency_p50_ms,
        sim.latency_p99_ms,
        sim.makespan_ms,
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(m, v)| (m.name, v, m.unit))
        .collect()
}

/// The workload and metric registry as JSON: parameters, seeds, the layer
/// each workload stresses and bypasses, and which metrics are host, sim
/// or exact.
fn describe() -> Json {
    let workloads = WORKLOADS
        .iter()
        .map(|w| {
            let params = match w.kind {
                Kind::Cloud(spec) => cloud::describe(spec),
                Kind::Scaleout => scaleout::describe(),
            };
            Json::obj()
                .with("name", w.name)
                .with("why", w.why)
                .with("stresses", w.stresses)
                .with("bypasses", w.bypasses)
                .with("default_seed", w.default_seed)
                .with("held_out_seed", w.held_out_seed)
                .with("params", params)
        })
        .collect();
    Json::obj()
        .with("workloads", Json::Arr(workloads))
        .with(
            "end_to_end",
            Json::Arr(END_TO_END.iter().map(|m| m.to_json()).collect()),
        )
        .with(
            "per_layer",
            Json::Arr(PER_LAYER.iter().map(|m| m.to_json()).collect()),
        )
}
