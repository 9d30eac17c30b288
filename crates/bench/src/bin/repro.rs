//! Regenerates every table and figure of the paper's evaluation section,
//! and runs the fault, tracing, benchmark, monitoring and fuzzing
//! scenarios built on the same stack.
//!
//! ```text
//! cargo run --release -p vfpga-bench --bin repro -- [EXPERIMENT|all] [--json PATH] [--seed N] [--tasks N] [--cases N] [--oracle NAME] [--replay PATH]
//! ```
//!
//! The experiments are the rows of [`SCENARIOS`], in the order `all`
//! runs them; an unknown name prints the usage line that lists them. The
//! `print_*` functions of the opt-in experiments document their gates.
//!
//! Runs covering Fig. 11, Fig. 12 or the chaos scenario also write a
//! machine-readable metrics artifact to `target/repro-metrics.json`, or to
//! the path given with `--json`. The opt-in experiments (those `all`
//! skips) each write their own artifact, at the path in their row or at
//! `--json`. Every artifact root carries a `schema_version` so downstream
//! consumers can detect layout changes. `--seed` re-seeds the chaos
//! scenario and every opt-in experiment (default 2024).

use std::str::FromStr;

use vfpga_bench::{
    ablations, admission, catalog::Catalog, chaos, density, elastic, fig11, fig12, isolation,
    monitor, netchaos, overhead, tables,
};
use vfpga_sim::{chrome_trace_events, prometheus_text, Json, SpanTracer};
use vfpga_workload::fig11_tasks;

/// Where the combined metrics artifact of fig11, fig12 and chaos goes.
const METRICS_ARTIFACT: &str = "target/repro-metrics.json";

/// One `repro` experiment.
struct Scenario {
    /// The experiment's name on the command line.
    name: &'static str,
    /// Whether `repro all` runs it.
    in_all: bool,
    /// Default artifact path, overridden by `--json`; `None` for the
    /// experiments that only print.
    artifact: Option<&'static str>,
    /// Runs the experiment with the options and the artifact path. A
    /// returned section goes into the combined metrics artifact under
    /// `name`; an experiment returning `None` wrote its own artifact, if
    /// it has one.
    run: fn(&Opts, &str) -> Option<Json>,
}

impl Scenario {
    const fn new(
        name: &'static str,
        in_all: bool,
        artifact: Option<&'static str>,
        run: fn(&Opts, &str) -> Option<Json>,
    ) -> Scenario {
        Scenario {
            name,
            in_all,
            artifact,
            run,
        }
    }
}

/// Every experiment, in the order `all` runs them.
#[rustfmt::skip]
const SCENARIOS: &[Scenario] = &[
    Scenario::new("table2", true, None, print_table2),
    Scenario::new("table3", true, None, print_table3),
    Scenario::new("table4", true, None, print_table4),
    Scenario::new("fig11", true, Some(METRICS_ARTIFACT), print_fig11),
    Scenario::new("fig12", true, Some(METRICS_ARTIFACT), print_fig12),
    Scenario::new("overhead", true, None, print_overhead),
    Scenario::new("ablations", true, None, print_ablations),
    Scenario::new("density", true, None, print_density),
    Scenario::new("isolation", true, None, print_isolation),
    Scenario::new("chaos", true, Some(METRICS_ARTIFACT), print_chaos),
    Scenario::new("trace", false, Some("target/repro-trace.json"), print_trace),
    Scenario::new("bench", false, Some("target/BENCH_admission.json"), print_bench),
    Scenario::new("elastic", false, Some("target/BENCH_elastic.json"), print_elastic),
    Scenario::new("netchaos", false, Some("target/repro-netchaos.json"), print_netchaos),
    Scenario::new("monitor", false, Some("target/repro-monitor.json"), print_monitor),
    Scenario::new("fuzz", false, Some("target/repro-fuzz.json"), print_fuzz),
];

/// The options every experiment reads.
struct Opts {
    /// `--seed`: seeds the workloads, fault plans and fuzz cases.
    seed: u64,
    /// `--tasks`: the largest size of the bench's scaling curve.
    tasks: Option<usize>,
    /// `--cases`: fuzz cases per oracle.
    cases: usize,
    /// `--oracle`: the one fuzz oracle to run.
    oracle: Option<String>,
    /// `--replay`: a fuzz reproducer to re-run instead of fuzzing.
    replay: Option<String>,
}

/// Where the `fuzz` experiment writes shrunk reproducers.
const FUZZ_FAILURE_DIR: &str = "target/fuzz-failures";

/// Regression ceiling on the bench's `deploy_attempts_per_admission`
/// (worst scenario, shipped configuration). The current fast path lands
/// well under this; `repro bench` (and CI's bench row) fails when a
/// change pushes the admission hot loop back above it.
const ATTEMPTS_PER_ADMISSION_CEILING: f64 = 8.0;

/// Ceiling on the scaling curve's `queue_touches_per_admission`: queue
/// elements admission removal visits per admitted task. Window-local
/// removal touches at most one scan window (64 tasks) per productive
/// wave, so the figure cannot exceed it at any backlog; a removal that
/// walks the whole queue grows with the backlog and breaks it once the
/// queue outgrows the window.
const QUEUE_TOUCHES_PER_ADMISSION_CEILING: f64 = 64.0;

/// Version of every artifact's layout. Bump it when a layout changes
/// incompatibly; DESIGN.md's "JSON artifact" paragraph records what each
/// version added.
const ARTIFACT_SCHEMA_VERSION: u64 = 9;

// The fuzz summary carries its own layout under the same version number.
const _: () = assert!(
    vfpga_fuzz::FUZZ_SCHEMA_VERSION == ARTIFACT_SCHEMA_VERSION,
    "fuzz and repro artifact schemas must move together"
);

fn main() {
    let mut args = std::env::args().skip(1);
    let mut which = "all".to_string();
    let mut json_path: Option<String> = None;
    let mut opts = Opts {
        seed: 2024,
        tasks: None,
        cases: 200,
        oracle: None,
        replay: None,
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => json_path = Some(value(&mut args, &arg, "a path")),
            "--seed" => opts.seed = value(&mut args, &arg, "an integer"),
            // The scaling curve runs at N/16, N/4 and N tasks.
            "--tasks" => opts.tasks = Some(count(&mut args, &arg, 16)),
            "--cases" => opts.cases = count(&mut args, &arg, 1),
            "--oracle" => opts.oracle = Some(value(&mut args, &arg, "a name")),
            "--replay" => opts.replay = Some(value(&mut args, &arg, "a path")),
            _ => which = arg,
        }
    }
    let selected: Vec<&Scenario> = match which.as_str() {
        "all" => SCENARIOS.iter().filter(|s| s.in_all).collect(),
        name => match SCENARIOS.iter().find(|s| s.name == name) {
            Some(s) => vec![s],
            None => {
                let names: Vec<&str> = SCENARIOS.iter().map(|s| s.name).collect();
                exit(2, format!(
                    "unknown experiment `{which}`\nusage: repro [{}|all] [--json PATH] [--seed N] [--tasks N] [--cases N] [--oracle NAME] [--replay PATH]",
                    names.join("|")
                ))
            }
        },
    };
    let mut sections = Vec::new();
    for s in selected {
        let path = json_path.as_deref().or(s.artifact).unwrap_or_default();
        if let Some(section) = (s.run)(&opts, path) {
            sections.push((s.name, section));
        }
    }
    if !sections.is_empty() {
        let path = json_path.as_deref().unwrap_or(METRICS_ARTIFACT);
        write_document(path, &which, sections);
    }
}

/// Takes the value after `flag` off `args`; exits 2 unless it parses.
fn value<T: FromStr>(args: &mut impl Iterator<Item = String>, flag: &str, what: &str) -> T {
    match args.next().and_then(|s| s.parse().ok()) {
        Some(v) => v,
        None => exit(2, format!("{flag} requires {what}")),
    }
}

/// [`value`] for a count that must be at least `min`.
fn count(args: &mut impl Iterator<Item = String>, flag: &str, min: usize) -> usize {
    let what = format!("an integer of at least {min}");
    let n = value(args, flag, &what);
    if n < min {
        exit(2, format!("{flag} requires {what}"));
    }
    n
}

/// The Prometheus sidecar of the artifact at `json_path`: one trailing
/// `.json` swapped for `.prom`, or `.prom` appended.
fn sidecar_path(json_path: &str) -> String {
    format!(
        "{}.prom",
        json_path.strip_suffix(".json").unwrap_or(json_path)
    )
}

/// Builds an artifact document — `schema_version`, `experiment`, then
/// `fields` — pretty-printed and checked to parse back; exits 1 if it
/// does not.
fn document(experiment: &str, fields: Vec<(&'static str, Json)>) -> String {
    let mut root = Json::obj()
        .with("schema_version", ARTIFACT_SCHEMA_VERSION)
        .with("experiment", experiment);
    for (key, value) in fields {
        root = root.with(key, value);
    }
    let text = root.pretty();
    if let Err(e) = Json::parse(&text) {
        exit(
            1,
            format!("{experiment} artifact failed self-validation: {e:?}"),
        );
    }
    text
}

/// Writes [`document`]`(experiment, fields)` to `path`.
fn write_document(path: &str, experiment: &str, fields: Vec<(&'static str, Json)>) {
    write_artifact(path, &document(experiment, fields));
}

/// Writes an artifact, creating parent directories; exits on failure.
fn write_artifact(path: &str, text: &str) {
    if let Some(parent) = std::path::Path::new(path).parent() {
        let _ = std::fs::create_dir_all(parent);
    }
    match std::fs::write(path, text) {
        Ok(()) => eprintln!("wrote {path}"),
        Err(e) => exit(1, format!("failed to write {path}: {e}")),
    }
}

/// Prints `message` to stderr and exits with `code`: 1 for a failed run
/// or gate, 2 for bad input.
fn exit(code: i32, message: impl std::fmt::Display) -> ! {
    eprintln!("{message}");
    std::process::exit(code)
}

fn print_ablations(_: &Opts, _: &str) -> Option<Json> {
    println!("== Ablations (DESIGN.md D1/D3/D4) ==");
    let catalog = Catalog::build();
    let d1 = ablations::partitioner(&catalog);
    println!(
        "D1 partitioner: pattern-aware overhead {} vs pattern-oblivious {}",
        pct(d1.aware_overhead),
        pct(d1.oblivious_overhead)
    );
    let d3 = ablations::reordering();
    println!(
        "D3 reordering (2 FPGAs, +800ns link): {:.3} ms optimized vs {:.3} ms plain",
        d3.optimized.as_ms(),
        d3.plain.as_ms()
    );
    let d4 = ablations::instruction_buffer();
    println!(
        "D4 instruction buffer: {:.3} ms with vs {:.3} ms fetching from DRAM",
        d4.with_buffer.as_ms(),
        d4.without_buffer.as_ms()
    );
    println!();
    None
}

fn pct(x: f64) -> String {
    format!("{:.1}%", 100.0 * x)
}

fn print_table2(_: &Opts, _: &str) -> Option<Json> {
    println!("== Table 2: baseline accelerator implementations ==");
    println!(
        "{:<8} {:<9} {:>6} {:>12} {:>12} {:>12} {:>12} {:>10} {:>7} {:>7}",
        "name", "device", "tiles", "LUTs", "DFFs", "BRAM", "URAM", "DSPs", "MHz", "TFLOPS"
    );
    for r in tables::table2() {
        let (ul, uf, ub, uu, ud) = r.utilization;
        println!(
            "{:<8} {:<9} {:>6} {:>5}k ({:>5}) {:>5}k ({:>5}) {:>5.1}Mb ({:>5}) {:>5.1}Mb ({:>5}) {:>4} ({:>5}) {:>7.0} {:>7.1}",
            r.name,
            r.device.name(),
            r.tiles,
            r.resources.luts / 1000,
            pct(ul),
            r.resources.ffs / 1000,
            pct(uf),
            r.resources.bram_mb(),
            pct(ub),
            r.resources.uram_mb(),
            pct(uu),
            r.resources.dsps,
            pct(ud),
            r.freq_mhz,
            r.peak_tflops
        );
    }
    println!();
    None
}

fn print_table3(_: &Opts, _: &str) -> Option<Json> {
    println!("== Table 3: one virtual block of the decomposed accelerator ==");
    println!(
        "{:<9} {:>8} {:>14} {:>14} {:>14} {:>12} {:>7} {:>7}",
        "device", "blocks", "LUTs", "DFFs", "BRAM", "DSPs", "MHz", "TFLOPS"
    );
    for r in tables::table3() {
        let (ul, uf, ub, _uu, ud) = r.utilization;
        println!(
            "{:<9} {:>8} {:>6.1}k ({:>5}) {:>6.1}k ({:>5}) {:>5.1}Mb ({:>5}) {:>4} ({:>5}) {:>7.0} {:>7.2}",
            r.device.name(),
            r.blocks,
            r.per_block.luts as f64 / 1000.0,
            pct(ul),
            r.per_block.ffs as f64 / 1000.0,
            pct(uf),
            r.per_block.bram_mb(),
            pct(ub),
            r.per_block.dsps,
            pct(ud),
            r.freq_mhz,
            r.peak_tflops
        );
    }
    println!();
    None
}

fn print_table4(_: &Opts, _: &str) -> Option<Json> {
    println!("== Table 4: LSTM/GRU inference latency (batch 1) ==");
    let catalog = Catalog::build();
    println!(
        "{:<22} {:<9} {:>14} {:>14} {:>9}",
        "benchmark", "device", "baseline (ms)", "this work (ms)", "overhead"
    );
    for r in tables::table4(&catalog) {
        match (r.baseline, r.this_work, r.overhead) {
            (Some(b), Some(v), Some(o)) => println!(
                "{:<22} {:<9} {:>14.4} {:>14.4} {:>9}",
                r.task.to_string(),
                r.device,
                b.as_ms(),
                v.as_ms(),
                pct(o)
            ),
            _ => println!(
                "{:<22} {:<9} {:>14} {:>14} {:>9}",
                r.task.to_string(),
                r.device,
                "-",
                "-",
                "-"
            ),
        }
    }
    println!();
    None
}

fn print_fig11(_: &Opts, _: &str) -> Option<Json> {
    println!("== Fig 11: impact of inter-FPGA communication latency (2 FPGAs) ==");
    let added = fig11::default_sweep_points();
    let mut series_json = Vec::new();
    for task in fig11_tasks() {
        for optimized in [true, false] {
            let series = fig11::sweep(task, 2, &added, optimized);
            let label = if optimized { "overlap" } else { "no-overlap" };
            print!("{task:<20} [{label:>10}] latency(ms):");
            for p in &series.points {
                print!(" {:.4}", p.latency.as_ms());
            }
            println!();
            if optimized {
                let hidden = series
                    .hidden_up_to(0.02)
                    .map(|t| format!("{:.1} ns", t.as_ns()))
                    .unwrap_or_else(|| "none".to_string());
                println!(
                    "{:<20}  added latency hidden up to: {hidden}; single-FPGA ref: {:.4} ms",
                    "",
                    series.single_fpga.as_ms()
                );
            }
            series_json.push(series.to_json());
        }
    }
    println!();
    Some(Json::obj().with("series", Json::Arr(series_json)))
}

fn print_fig12(_: &Opts, _: &str) -> Option<Json> {
    println!("== Fig 12: aggregated system throughput (tasks/s) ==");
    let catalog = Catalog::build();
    let reports = fig12::run_all_sets_detailed(&catalog, 120, 2024);
    let rows: Vec<fig12::Fig12Row> = reports.iter().map(fig12::Fig12SetReport::row).collect();
    println!(
        "{:>4} {:>12} {:>12} {:>12} {:>9}",
        "set", "baseline", "restricted", "this work", "speedup"
    );
    for r in &rows {
        println!(
            "{:>4} {:>12.1} {:>12.1} {:>12.1} {:>8.2}x",
            r.set,
            r.baseline,
            r.restricted,
            r.full,
            r.speedup()
        );
    }
    println!(
        "mean speedup over baseline: {:.2}x (paper: 2.54x)",
        fig12::mean_speedup(&rows)
    );
    let restricted_gain: f64 = rows
        .iter()
        .map(|r| r.full / r.restricted.max(1e-9))
        .product::<f64>()
        .powf(1.0 / rows.len() as f64);
    println!(
        "full vs restricted policy: {:.1}% (paper: 16%)",
        100.0 * (restricted_gain - 1.0)
    );
    println!();
    Some(fig12::to_json(&reports))
}

fn print_chaos(&Opts { seed, .. }: &Opts, _: &str) -> Option<Json> {
    println!("== Chaos: workload set 5 under injected device failures (seed {seed}) ==");
    let catalog = Catalog::build();
    let config = chaos::ChaosConfig {
        seed,
        ..chaos::ChaosConfig::default()
    };
    let run = chaos::run(&catalog, &config);
    let r = &run.report;
    println!(
        "fault plan: {} failures (max {} concurrent), transient configure p={}",
        run.plan.failures(),
        run.plan.max_concurrent_failures(),
        config.configure_failure_prob
    );
    println!(
        "arrivals {} | completed {} | never deployed {} | lost {}",
        r.arrivals, r.completed, r.never_deployed, r.lost
    );
    println!(
        "interrupted {} | migrated {} (scale-down {}) | requeued {}",
        r.interrupted, r.migrated, r.scale_down_redeployments, r.requeued
    );
    println!(
        "mean time-to-recovery: {} | degraded {:.3} ms at {:.1}% occupancy",
        r.mean_time_to_recovery_s()
            .map(|s| format!("{:.1} us", s * 1e6))
            .unwrap_or_else(|| "n/a".to_string()),
        r.degraded_time.as_ms(),
        100.0 * r.degraded_mean_occupancy
    );
    if let Err(violation) = run.check_invariants() {
        exit(1, format!("chaos invariant violated: {violation}"));
    }
    if !run.exercised_recovery() {
        exit(
            1,
            format!("chaos run did not exercise recovery (seed {seed}): no interruption migrated"),
        );
    }
    warn_on_dropped_trace_events(&run.report);
    println!();
    Some(run.to_json())
}

/// Surfaces trace-ring evictions: a dropped event means the ring was too
/// small for the run and the retained window is partial.
fn warn_on_dropped_trace_events(report: &vfpga_runtime::CloudReport) {
    let dropped = report.trace.dropped();
    if dropped > 0 {
        eprintln!(
            "warning: scheduler trace ring dropped {dropped} events (retained {}); \
             rerun with a larger trace capacity for a complete window",
            report.trace.len()
        );
    }
}

/// `trace`: the chaos scenario with spans on. Writes the critical-path
/// decomposition and a Chrome trace-event array (open it in Perfetto or
/// `chrome://tracing`), and the run's metrics as a Prometheus sidecar.
fn print_trace(&Opts { seed, .. }: &Opts, json_path: &str) -> Option<Json> {
    println!("== Trace: span-instrumented chaos run (seed {seed}) ==");
    let mut compile_spans = SpanTracer::new();
    let catalog = Catalog::build_traced(&mut compile_spans);
    let config = chaos::ChaosConfig {
        seed,
        ..chaos::ChaosConfig::default()
    };
    let run = chaos::run(&catalog, &config);
    if let Err(violation) = run.check_invariants() {
        exit(1, format!("chaos invariant violated: {violation}"));
    }
    warn_on_dropped_trace_events(&run.report);
    let r = &run.report;
    let cp = &r.critical_path;
    println!(
        "spans: {} compile-flow + {} runtime ({} completed tasks)",
        compile_spans.len(),
        r.spans.len(),
        cp.tasks.len()
    );
    for (label, q) in [("p50", 0.5), ("p95", 0.95), ("p99", 0.99)] {
        if let Some(task) = cp.quantile_task(q) {
            let (phase, d) = task.dominant();
            println!(
                "{label} task {}: {:.3} ms end-to-end, dominated by {phase} ({:.3} ms)",
                task.trace.0,
                task.total.as_ms(),
                d.as_ms()
            );
        }
    }
    let events = chrome_trace_events(&[&compile_spans, &r.spans]);
    write_document(
        json_path,
        "trace",
        vec![
            ("seed", seed.into()),
            ("trace_dropped", r.trace.dropped().into()),
            (
                "spans",
                ((compile_spans.len() + r.spans.len()) as u64).into(),
            ),
            ("critical_path", cp.to_json()),
            ("displayTimeUnit", "ms".into()),
            ("traceEvents", events),
        ],
    );
    write_artifact(&sidecar_path(json_path), &prometheus_text(&r.metrics));
    println!();
    None
}

/// `bench`: the [`admission`] fast path vs. its cache-and-gating-off
/// baseline, plus the fast path's scaling curve at `--tasks` N, N/4 and
/// N/16. Exits 1 if outcomes diverge, the probe reduction falls under 3x,
/// or a ceiling above is crossed.
fn print_bench(&Opts { seed, tasks, .. }: &Opts, json_path: &str) -> Option<Json> {
    println!(
        "== Bench: saturated admission, fast path vs pre-optimization baseline (seed {seed}) =="
    );
    let catalog = Catalog::build();
    let defaults = admission::BenchConfig::default();
    let config = admission::BenchConfig {
        seed,
        scaling_tasks: tasks.unwrap_or(defaults.scaling_tasks),
        ..defaults
    };
    let bench = admission::run(&catalog, &config);
    for s in &bench.scenarios {
        for (name, label, cost) in [
            (s.name, "current: ", &s.current),
            ("", "baseline:", &s.baseline),
        ] {
            println!(
                "{name:<7} {label} {:>8} probes ({:>9} cache hits), {:>6.2} per admission, {:>9.1} ms wall",
                cost.probes,
                cost.cache_hits,
                cost.attempts_per_admission(),
                cost.wall_ms
            );
        }
        println!(
            "{:<7} ratio: {:.1}x fewer probes, {:.1}x wall-clock; outcomes match: {}",
            "",
            s.probe_ratio(),
            s.wall_ratio(),
            s.outcomes_match
        );
    }
    for p in &bench.scaling {
        println!(
            "scaling {:>7} tasks: {:>8} probes, {:>6.2} queue touches per admission, {:>6.2} us/task host",
            p.tasks,
            p.cost.probes,
            p.cost.queue_touches_per_admission(),
            p.host_us_per_task()
        );
    }
    // The bench is also the regression gate: fail loudly rather than
    // writing an artifact that records a regression as if it were fine.
    if !bench.outcomes_match() {
        exit(1, "bench FAILED: fast path changed admission outcomes");
    }
    let ratio = bench.min_probe_ratio();
    if ratio < 3.0 {
        exit(
            1,
            format!("bench FAILED: probe reduction {ratio:.2}x is below the required 3x"),
        );
    }
    let per_admission = bench.attempts_per_admission();
    if per_admission > ATTEMPTS_PER_ADMISSION_CEILING {
        exit(1, format!(
            "bench FAILED: {per_admission:.2} deploy attempts per admission exceeds the ceiling {ATTEMPTS_PER_ADMISSION_CEILING}"
        ));
    }
    let touches = bench.queue_touches_per_admission();
    if touches > QUEUE_TOUCHES_PER_ADMISSION_CEILING {
        exit(1, format!(
            "bench FAILED: {touches:.2} queue touches per admission exceeds the ceiling {QUEUE_TOUCHES_PER_ADMISSION_CEILING}"
        ));
    }
    write_document(
        json_path,
        "bench",
        vec![
            (
                "attempts_per_admission_ceiling",
                ATTEMPTS_PER_ADMISSION_CEILING.into(),
            ),
            ("bench", bench.to_json(QUEUE_TOUCHES_PER_ADMISSION_CEILING)),
        ],
    );
    println!();
    None
}

/// `elastic`: the [`elastic`] on/off A/B. Exits 1 unless p95 latency
/// strictly improves, both levers fire, and every outcome invariant holds
/// in both modes.
fn print_elastic(&Opts { seed, .. }: &Opts, json_path: &str) -> Option<Json> {
    println!("== Bench: elastic reprovisioning on vs off, bursty workload (seed {seed}) ==");
    let catalog = Catalog::build();
    let config = elastic::ElasticConfig {
        seed,
        ..elastic::ElasticConfig::default()
    };
    let bench = elastic::run(&catalog, &config);
    for (label, run) in [("on", &bench.on), ("off", &bench.off)] {
        println!(
            "elasticity {label:<3} p50 {:>8.3} ms, p95 {:>8.3} ms, p99 {:>8.3} ms, qwait {:>7.3} ms, {:>9.1} ms wall",
            run.p50 * 1e3,
            run.p95 * 1e3,
            run.p99 * 1e3,
            run.mean_queue_wait * 1e3,
            run.wall_ms
        );
    }
    println!(
        "reprovisioner: {} promotions (+{} units, {:.3} ms saved each), {} preemptions (-{} units)",
        bench.on.promotions,
        bench.on.units_gained,
        bench.on.promotion_saved_mean * 1e3,
        bench.on.preemptions,
        bench.on.units_lost
    );
    println!(
        "p95: {:.3} ms -> {:.3} ms ({:.2}x, {:.3} ms shorter)",
        bench.off.p95 * 1e3,
        bench.on.p95 * 1e3,
        bench.p95_ratio(),
        bench.p95_delta() * 1e3
    );
    // The bench is also the regression gate: fail loudly rather than
    // writing an artifact that records a regression as if it were fine.
    if !bench.passes() {
        for failure in bench.failures() {
            eprintln!("elastic FAILED: {failure}");
        }
        std::process::exit(1);
    }
    write_document(json_path, "elastic", vec![("bench", bench.to_json())]);
    println!();
    None
}

/// `netchaos`: the [`netchaos`] scenario. Exits 1 unless its invariants
/// hold and the run failed segments, re-routed around them, and
/// retransmitted corrupted transfers.
fn print_netchaos(&Opts { seed, .. }: &Opts, json_path: &str) -> Option<Json> {
    println!("== NetChaos: workload set 5 under device and link fault waves (seed {seed}) ==");
    let catalog = Catalog::build();
    let config = netchaos::NetChaosConfig {
        seed,
        ..netchaos::NetChaosConfig::default()
    };
    let run = netchaos::run(&catalog, &config);
    let r = &run.report;
    println!(
        "fault plan: {} device failures, {} link events ({} segment failures), corruption p={}",
        run.plan.failures(),
        run.plan.link_events().len(),
        run.plan.link_failures(),
        config.corruption_prob
    );
    println!(
        "arrivals {} | completed {} | never deployed {} | lost {}",
        r.arrivals, r.completed, r.never_deployed, r.lost
    );
    println!(
        "links: {} failed / {} degraded / {} recovered | degraded {:.3} ms",
        r.link_failures,
        r.link_degradations,
        r.link_recoveries,
        r.link_degraded_time.as_ms()
    );
    println!(
        "transfers: {} retransmits ({} bytes) | {} reroutes | {} severed -> migration",
        r.link_retransmits, r.link_retransmit_bytes, r.link_reroutes, r.link_severed
    );
    // The scenario is also the regression gate: fail loudly rather than
    // writing an artifact that records a broken run as if it were fine.
    if let Err(violation) = run.check_invariants() {
        exit(1, format!("netchaos invariant violated: {violation}"));
    }
    if !run.exercised_link_faults() {
        exit(
            1,
            format!(
                "netchaos run did not exercise the link fault machinery (seed {seed}): \
             {} failures, {} reroutes, {} retransmits",
                r.link_failures, r.link_reroutes, r.link_retransmits
            ),
        );
    }
    write_document(json_path, "netchaos", vec![("netchaos", run.to_json())]);
    println!();
    None
}

/// `monitor`: the [`monitor`] scenario, run twice, with its rollups as a
/// Prometheus sidecar. Exits 1 unless its invariants hold (alerts only in
/// fault windows, one resolved, sketches within their error bound) and
/// both runs give the same bytes.
fn print_monitor(&Opts { seed, .. }: &Opts, json_path: &str) -> Option<Json> {
    println!("== Monitor: SLO burn-rate alerting under chaos+elastic (seed {seed}) ==");
    let catalog = Catalog::build();
    let config = monitor::MonitorBenchConfig {
        seed,
        ..monitor::MonitorBenchConfig::default()
    };
    let bench = monitor::run(&catalog, &config);
    let m = bench.report.monitor.as_ref().expect("monitored run");
    println!(
        "calibration: worst healthy window p95 {:.1} us -> target {:.1} us (x{})",
        bench.baseline_worst_p95 * 1e6,
        bench.target.as_us(),
        config.target_margin
    );
    println!(
        "fault plan: {} device failures, {} link events | {} disturbed intervals",
        bench.plan.failures(),
        bench.plan.link_events().len(),
        bench.disturbed.len()
    );
    println!(
        "arrivals {} | completed {} | never deployed {} | lost {}",
        bench.report.arrivals,
        bench.report.completed,
        bench.report.never_deployed,
        bench.report.lost
    );
    println!(
        "monitor: {} alerts fired / {} resolved | max burn {:.2} | min health {:.3} | {} truncated windows",
        m.alerts_fired(),
        m.alerts_resolved(),
        m.max_burn(),
        m.min_health(),
        m.truncated_windows
    );
    for alert in bench.alerts() {
        let state = match alert.resolved_at {
            Some(resolved) => format!("resolved {:.0} us", resolved.as_us()),
            None => "still firing".to_string(),
        };
        println!(
            "  alert `{}` on `{}`: fired {:.0} us, {state} (peak burn {:.2})",
            alert.slo,
            alert.key,
            alert.fired_at.as_us(),
            alert.peak_burn
        );
    }
    // The scenario is also the regression gate: fail loudly rather than
    // writing an artifact that records a broken run as if it were fine.
    if let Err(violation) = bench.check_invariants() {
        exit(1, format!("monitor invariant violated: {violation}"));
    }
    let text = document("monitor", vec![("monitor", bench.to_json())]);
    // Determinism gate: the whole scenario again, from scratch — the
    // artifact must come out byte-identical.
    let rerun = monitor::run(&catalog, &config);
    if text != document("monitor", vec![("monitor", rerun.to_json())]) {
        exit(
            1,
            format!("monitor runs diverged: same seed {seed}, different artifact bytes"),
        );
    }
    write_artifact(json_path, &text);
    write_artifact(&sidecar_path(json_path), &m.prometheus_text());
    println!();
    None
}

fn print_overhead(_: &Opts, _: &str) -> Option<Json> {
    println!("== Section 4.3: compilation overhead ==");
    let r = overhead::report();
    println!(
        "decompose+partition tool time:      {:.3} s per instance",
        r.tool_seconds
    );
    println!(
        "baseline compile time ({} instances): {:.0} s",
        r.instances, r.baseline_seconds
    );
    println!(
        "tool time fraction:                 {} (paper: <1%)",
        pct(r.tool_fraction)
    );
    println!(
        "scaled-down compiles ({} distinct):  {:.0} s",
        r.distinct_scaledowns, r.scaledown_seconds
    );
    println!(
        "total overhead (amortized):         {} (paper: 24.6%)",
        pct(r.total_overhead_fraction)
    );
    println!();
    None
}

fn print_density(_: &Opts, _: &str) -> Option<Json> {
    println!("== Code density: AS ISA vs general-purpose SIMD ==");
    println!(
        "{:<22} {:>14} {:>16} {:>9}",
        "benchmark", "AS ISA (bytes)", "GP SIMD (bytes)", "ratio"
    );
    for r in density::compare() {
        println!(
            "{:<22} {:>14} {:>16} {:>8.0}x",
            r.task.to_string(),
            r.as_isa_bytes,
            r.gp_bytes,
            r.ratio()
        );
    }
    println!();
    None
}

fn print_isolation(_: &Opts, _: &str) -> Option<Json> {
    println!("== Section 4.4: performance isolation under spatial sharing ==");
    let task = vfpga_workload::RnnTask::new(vfpga_workload::RnnKind::Lstm, 512, 25);
    for r in isolation::measure(task, 3.0) {
        println!(
            "{:<26} alone {:.4} ms | shared {:.4} ms | slowdown {}",
            if r.instruction_buffer {
                "with instruction buffer"
            } else {
                "without instruction buffer"
            },
            r.alone.as_ms(),
            r.shared.as_ms(),
            pct(r.slowdown())
        );
    }
    println!();
    None
}

/// `fuzz`: `--cases` differential-fuzzing cases per oracle (or only for
/// `--oracle`), derived from `--seed`. Writes the summary, and shrunk
/// reproducers under [`FUZZ_FAILURE_DIR`]; exits 1 on any failure.
fn print_fuzz(opts: &Opts, path: &str) -> Option<Json> {
    if let Some(replay) = &opts.replay {
        print_fuzz_replay(replay);
        return None;
    }
    let (seed, cases) = (opts.seed, opts.cases);
    println!("== Differential fuzzing: {cases} cases/oracle, seed {seed} ==");
    let mut config = vfpga_fuzz::FuzzConfig::new(seed, cases);
    config.oracle = opts.oracle.clone();
    config.failure_dir = Some(std::path::PathBuf::from(FUZZ_FAILURE_DIR));
    let summary = vfpga_fuzz::run_fuzz(&config).unwrap_or_else(|e| exit(2, e));
    for o in &summary.oracles {
        match &o.first_failure {
            None => println!("{:<24} {:>6} cases  ok", o.name, o.cases),
            Some(f) => println!(
                "{:<24} {:>6} cases  {} FAILED (first at case {}, shrunk {} -> {}, {})",
                o.name,
                o.cases,
                o.failures,
                f.case_index,
                f.original_size,
                f.shrunk_size,
                f.reproducer.as_deref().unwrap_or("reproducer not written"),
            ),
        }
    }
    println!();
    write_artifact(path, &(summary.to_json().pretty() + "\n"));
    if !summary.passed() {
        exit(
            1,
            format!(
                "{} of {} cases violated an oracle; reproducers in {FUZZ_FAILURE_DIR}",
                summary.total_failures(),
                summary.total_cases()
            ),
        );
    }
    None
}

/// `fuzz --replay PATH`: re-runs a saved reproducer through its oracle;
/// exits 1 while the bug it captures still reproduces.
fn print_fuzz_replay(path: &str) {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| exit(2, format!("cannot read reproducer {path}: {e}")));
    let doc = Json::parse(&text)
        .unwrap_or_else(|e| exit(2, format!("reproducer {path} is not JSON: {e}")));
    match vfpga_fuzz::replay(&doc) {
        Ok((oracle, vfpga_fuzz::Verdict::Pass)) => {
            println!("replay {path}: oracle `{oracle}` passes (bug no longer reproduces)");
        }
        Ok((oracle, vfpga_fuzz::Verdict::Fail(error))) => exit(
            1,
            format!("replay {path}: oracle `{oracle}` still fails: {error}"),
        ),
        Err(e) => exit(2, format!("replay {path}: {e}")),
    }
}

#[cfg(test)]
mod tests {
    use super::sidecar_path;

    #[test]
    fn sidecar_swaps_one_trailing_json_for_prom() {
        assert_eq!(sidecar_path("a.json"), "a.prom");
        assert_eq!(sidecar_path("a"), "a.prom");
        assert_eq!(sidecar_path("d.json/a.json"), "d.json/a.prom");
    }
}
