//! Regenerates every table and figure of the paper's evaluation section.
//!
//! ```text
//! cargo run --release -p vfpga-bench --bin repro -- [table2|table3|table4|fig11|fig12|overhead|ablations|density|isolation|chaos|trace|bench|elastic|netchaos|monitor|fuzz|all] [--json PATH] [--seed N] [--tasks N] [--cases N] [--oracle NAME] [--replay PATH]
//! ```
//!
//! Runs covering Fig. 11, Fig. 12, or the chaos scenario also write a
//! machine-readable metrics artifact (per-run throughput, latency
//! percentiles, occupancy time series, rejection-reason counts, recovery
//! accounting) to `target/repro-metrics.json`, or to the path given with
//! `--json`. The artifact root carries a `schema_version` so downstream
//! consumers can detect layout changes; `--seed` re-seeds the chaos fault
//! plan (default 2024).
//!
//! `trace` (not part of `all`) runs the span-instrumented chaos scenario
//! and writes `target/repro-trace.json`: the critical-path latency
//! decomposition plus a Chrome trace-event array — open the file directly
//! in Perfetto (<https://ui.perfetto.dev>) or `chrome://tracing`. A
//! Prometheus text exposition of the run's metrics lands next to it as
//! `.prom`. Both artifacts are byte-identical across same-seed runs.
//!
//! `bench` (not part of `all` either) runs the saturated-admission
//! benchmark — the shipped fast path vs. the cache-and-gating-off
//! baseline over identical 10k-task inputs — writes
//! `target/BENCH_admission.json`, and exits non-zero if outcomes
//! diverge, the probe reduction falls under 3x, or
//! `deploy_attempts_per_admission` exceeds the checked-in ceiling. Its
//! `scaling` block runs the fast path alone at `--tasks N` tasks (default
//! 160000) and at a quarter and a sixteenth of that, and the bench also
//! exits non-zero if queue elements touched per admission exceed their
//! ceiling at any size.
//!
//! `elastic` (also opt-in) runs the elastic-reprovisioning A/B — the
//! scheduler with [`vfpga_runtime::ElasticityPolicy::FULL`] vs. the
//! plain scheduler over an identical bursty 10k-task workload — writes
//! `target/BENCH_elastic.json`, and exits non-zero unless p95 latency
//! strictly improves, both levers fire, and every outcome invariant
//! holds in both modes.
//!
//! `netchaos` (also opt-in) runs the network-chaos scenario — the chaos
//! workload under seeded device *and* ring-segment fault waves — writes
//! `target/repro-netchaos.json`, and exits non-zero unless every
//! cross-layer invariant holds (accounting, trace completeness, the
//! report's retransmitted-byte counter reconciling with the trace's
//! `retransmit` events) and the run actually failed segments, re-routed
//! around them, and retransmitted corrupted transfers.
//!
//! `fuzz` (also opt-in) runs the deterministic differential-fuzzing
//! subsystem: `--cases N` structure-aware cases per cross-layer oracle
//! (default 200), all derived from `--seed`, writing a byte-deterministic
//! summary to `target/repro-fuzz.json` and shrunk reproducers for any
//! failures to `target/fuzz-failures/<oracle>-<seed>.json`. `--oracle
//! NAME` restricts the run to one oracle; `--replay PATH` re-runs a
//! saved reproducer through its oracle instead of fuzzing and exits
//! non-zero while the bug it captures still reproduces.
//!
//! `monitor` (also opt-in) runs the SLO-monitoring scenario — a
//! self-calibrating chaos+elastic run with the streaming-telemetry
//! monitor collecting windowed rollups, mergeable latency sketches, and
//! multi-window burn-rate alerts — writes `target/repro-monitor.json`
//! (with a Prometheus rollup exposition next to it as `.prom`), runs the
//! whole scenario twice, and exits non-zero unless every alert fired
//! inside a planned fault window, at least one alert resolved after the
//! waves passed, the sketch quantiles match the exact percentiles within
//! the configured relative error, and the two runs' artifacts are
//! byte-identical.

use vfpga_bench::{
    ablations, admission, catalog::Catalog, chaos, density, elastic, fig11, fig12, isolation,
    monitor, netchaos, overhead, tables,
};
use vfpga_sim::{chrome_trace_events, prometheus_text, Json, SimTime, SpanTracer};
use vfpga_workload::fig11_tasks;

/// Default location of the metrics artifact.
const DEFAULT_ARTIFACT: &str = "target/repro-metrics.json";

/// Default location of the trace artifact (the `trace` experiment).
const DEFAULT_TRACE_ARTIFACT: &str = "target/repro-trace.json";

/// Default location of the admission-bench artifact (the `bench`
/// experiment).
const DEFAULT_BENCH_ARTIFACT: &str = "target/BENCH_admission.json";

/// Default location of the elastic-reprovisioning artifact (the
/// `elastic` experiment).
const DEFAULT_ELASTIC_ARTIFACT: &str = "target/BENCH_elastic.json";

/// Default location of the network-chaos artifact (the `netchaos`
/// experiment).
const DEFAULT_NETCHAOS_ARTIFACT: &str = "target/repro-netchaos.json";

/// Default location of the SLO-monitoring artifact (the `monitor`
/// experiment).
const DEFAULT_MONITOR_ARTIFACT: &str = "target/repro-monitor.json";

/// Default location of the fuzzing summary artifact (the `fuzz`
/// experiment).
const DEFAULT_FUZZ_ARTIFACT: &str = "target/repro-fuzz.json";

/// Where the `fuzz` experiment writes shrunk reproducers.
const FUZZ_FAILURE_DIR: &str = "target/fuzz-failures";

/// Default fuzzing budget per oracle.
const DEFAULT_FUZZ_CASES: usize = 200;

/// Regression ceiling on the bench's `deploy_attempts_per_admission`
/// (worst scenario, shipped configuration). The current fast path lands
/// well under this; `repro bench` (and CI's bench job) fails when a
/// change pushes the admission hot loop back above it.
const ATTEMPTS_PER_ADMISSION_CEILING: f64 = 8.0;

/// Ceiling on the scaling curve's `queue_touches_per_admission`: queue
/// elements admission removal visits per admitted task. Window-local
/// removal touches at most one scan window (64 tasks) per productive
/// wave, so the figure cannot exceed it at any backlog; a removal that
/// walks the whole queue grows with the backlog and breaks it once the
/// queue outgrows the window.
const QUEUE_TOUCHES_PER_ADMISSION_CEILING: f64 = 64.0;

/// Version of the metrics-artifact layout. Bump when the artifact's shape
/// changes incompatibly (v1 was the unversioned PR-1 layout; v2 added this
/// field and the chaos/recovery sections; v3 added span counts, the
/// critical-path section, and the `trace` experiment's artifact; v4 split
/// the report's `rejections` into attempt/distinct-task views, added the
/// `requeue_wait_s` and recovery `redeployments` fields, and added the
/// `bench` experiment's `BENCH_admission.json`; v5 added the elasticity
/// block to the report serialization — `promotions`, `preemptions`,
/// `units_gained`, `units_lost`, the saved/added service summaries — and
/// the `elastic` experiment's `BENCH_elastic.json`; v6 added the report's
/// conditional `links` block — failures/degradations/recoveries,
/// retransmit and reroute counts, bytes retransmitted, severed paths,
/// degraded time — the fault plan's `link_*` section, and the `netchaos`
/// experiment's `repro-netchaos.json`; v7 added the report's optional
/// `monitor` section — windowed rollups with mergeable quantile
/// sketches, SLO specs/outcomes, and burn-rate alerts — the
/// `points_kept`/`points_folded` fields the occupancy and queue-depth
/// series gain when the time-series cap folds them, and the `monitor`
/// experiment's `repro-monitor.json`; v8 added the `fuzz` experiment's
/// `repro-fuzz.json` summary, the `fuzz_reproducer` documents under
/// `target/fuzz-failures/`, and their shared `fuzz_summary`/
/// `fuzz_reproducer` layouts; v9 added the `scaling` block of
/// `BENCH_admission.json`).
const ARTIFACT_SCHEMA_VERSION: u64 = 9;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut which = "all".to_string();
    let mut json_path: Option<String> = None;
    let mut seed: u64 = 2024;
    let mut scaling_tasks: Option<usize> = None;
    let mut fuzz_cases: usize = DEFAULT_FUZZ_CASES;
    let mut fuzz_oracle: Option<String> = None;
    let mut fuzz_replay: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        if args[i] == "--tasks" {
            // The scaling curve runs at N/16, N/4 and N tasks.
            match args.get(i + 1).and_then(|s| s.parse().ok()) {
                Some(n) if n >= 16 => scaling_tasks = Some(n),
                _ => {
                    eprintln!("--tasks requires an integer of at least 16");
                    std::process::exit(2);
                }
            }
            i += 2;
        } else if args[i] == "--cases" {
            match args.get(i + 1).and_then(|s| s.parse().ok()) {
                Some(n) => fuzz_cases = n,
                None => {
                    eprintln!("--cases requires an integer");
                    std::process::exit(2);
                }
            }
            i += 2;
        } else if args[i] == "--oracle" {
            match args.get(i + 1) {
                Some(name) => fuzz_oracle = Some(name.clone()),
                None => {
                    eprintln!("--oracle requires a name");
                    std::process::exit(2);
                }
            }
            i += 2;
        } else if args[i] == "--replay" {
            match args.get(i + 1) {
                Some(p) => fuzz_replay = Some(p.clone()),
                None => {
                    eprintln!("--replay requires a path");
                    std::process::exit(2);
                }
            }
            i += 2;
        } else if args[i] == "--json" {
            match args.get(i + 1) {
                Some(p) => json_path = Some(p.clone()),
                None => {
                    eprintln!("--json requires a path");
                    std::process::exit(2);
                }
            }
            i += 2;
        } else if args[i] == "--seed" {
            match args.get(i + 1).and_then(|s| s.parse().ok()) {
                Some(s) => seed = s,
                None => {
                    eprintln!("--seed requires an integer");
                    std::process::exit(2);
                }
            }
            i += 2;
        } else {
            which = args[i].clone();
            i += 1;
        }
    }
    let all = which == "all";
    let mut artifact: Vec<(&str, Json)> = Vec::new();
    if all || which == "table2" {
        print_table2();
    }
    if all || which == "table3" {
        print_table3();
    }
    if all || which == "table4" {
        print_table4();
    }
    if all || which == "fig11" {
        artifact.push(("fig11", print_fig11()));
    }
    if all || which == "fig12" {
        artifact.push(("fig12", print_fig12()));
    }
    if all || which == "overhead" {
        print_overhead();
    }
    if all || which == "ablations" {
        print_ablations();
    }
    if all || which == "density" {
        print_density();
    }
    if all || which == "isolation" {
        print_isolation();
    }
    if all || which == "chaos" {
        artifact.push(("chaos", print_chaos(seed)));
    }
    if which == "trace" {
        // The trace experiment writes its own artifact (a loadable Chrome
        // trace, not a metrics document) and is opt-in, not part of `all`.
        let path = json_path
            .clone()
            .unwrap_or_else(|| DEFAULT_TRACE_ARTIFACT.to_string());
        print_trace(seed, &path);
    }
    if which == "bench" {
        // The admission bench is opt-in (not part of `all`): it runs the
        // 10k-task saturated scenario four times plus the fast path's
        // scaling curve, and its artifact is a perf document, not a
        // metrics one.
        let path = json_path
            .clone()
            .unwrap_or_else(|| DEFAULT_BENCH_ARTIFACT.to_string());
        print_bench(seed, scaling_tasks, &path);
    }
    if which == "elastic" {
        // The elastic A/B is opt-in (not part of `all`): it runs the 10k
        // bursty scenario twice and its artifact is a perf document.
        let path = json_path
            .clone()
            .unwrap_or_else(|| DEFAULT_ELASTIC_ARTIFACT.to_string());
        print_elastic(seed, &path);
    }
    if which == "netchaos" {
        // The network-chaos scenario is opt-in (not part of `all`): it
        // layers link waves on the chaos scenario and its artifact is a
        // fault-injection document.
        let path = json_path
            .clone()
            .unwrap_or_else(|| DEFAULT_NETCHAOS_ARTIFACT.to_string());
        print_netchaos(seed, &path);
    }
    if which == "monitor" {
        // The SLO-monitoring scenario is opt-in (not part of `all`): it
        // runs the monitored chaos scenario twice (the second run is the
        // byte-determinism gate) and its artifact is a telemetry document.
        let path = json_path
            .clone()
            .unwrap_or_else(|| DEFAULT_MONITOR_ARTIFACT.to_string());
        print_monitor(seed, &path);
    }
    if which == "fuzz" {
        // The differential fuzzer is opt-in (not part of `all`): its
        // artifact is a fuzzing summary, not a metrics document.
        let path = json_path
            .clone()
            .unwrap_or_else(|| DEFAULT_FUZZ_ARTIFACT.to_string());
        match &fuzz_replay {
            Some(replay_path) => print_fuzz_replay(replay_path),
            None => print_fuzz(seed, fuzz_cases, fuzz_oracle.clone(), &path),
        }
    }
    if !all
        && ![
            "table2",
            "table3",
            "table4",
            "fig11",
            "fig12",
            "overhead",
            "ablations",
            "density",
            "isolation",
            "chaos",
            "trace",
            "bench",
            "elastic",
            "netchaos",
            "monitor",
            "fuzz",
        ]
        .contains(&which.as_str())
    {
        eprintln!("unknown experiment `{which}`");
        eprintln!("usage: repro [table2|table3|table4|fig11|fig12|overhead|ablations|density|isolation|chaos|trace|bench|elastic|netchaos|monitor|fuzz|all] [--json PATH] [--seed N] [--tasks N] [--cases N] [--oracle NAME] [--replay PATH]");
        std::process::exit(2);
    }
    if !artifact.is_empty() {
        let json_path = json_path.unwrap_or_else(|| DEFAULT_ARTIFACT.to_string());
        let mut root = Json::obj()
            .with("schema_version", ARTIFACT_SCHEMA_VERSION)
            .with("experiment", which.as_str());
        for (key, value) in artifact {
            root = root.with(key, value);
        }
        write_artifact(&json_path, &root.pretty(), "metrics");
    }
}

/// Writes an artifact, creating parent directories; exits on failure.
fn write_artifact(path: &str, text: &str, what: &str) {
    if let Some(parent) = std::path::Path::new(path).parent() {
        let _ = std::fs::create_dir_all(parent);
    }
    match std::fs::write(path, text) {
        Ok(()) => eprintln!("wrote {what} artifact to {path}"),
        Err(e) => {
            eprintln!("failed to write {what} artifact {path}: {e}");
            std::process::exit(1);
        }
    }
}

fn print_ablations() {
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
}

fn pct(x: f64) -> String {
    format!("{:.1}%", 100.0 * x)
}

fn print_table2() {
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
}

fn print_table3() {
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
}

fn print_table4() {
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
}

fn print_fig11() -> Json {
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
    Json::obj().with("series", Json::Arr(series_json))
}

fn print_fig12() -> Json {
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
    fig12::to_json(&reports)
}

fn print_chaos(seed: u64) -> Json {
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
        eprintln!("chaos invariant violated: {violation}");
        std::process::exit(1);
    }
    if !run.exercised_recovery() {
        eprintln!("chaos run did not exercise recovery (seed {seed}): no interruption migrated");
        std::process::exit(1);
    }
    warn_on_dropped_trace_events(&run.report);
    println!();
    run.to_json()
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

fn print_trace(seed: u64, json_path: &str) {
    println!("== Trace: span-instrumented chaos run (seed {seed}) ==");
    let mut compile_spans = SpanTracer::new();
    let catalog = Catalog::build_traced(&mut compile_spans);
    let config = chaos::ChaosConfig {
        seed,
        ..chaos::ChaosConfig::default()
    };
    let run = chaos::run(&catalog, &config);
    if let Err(violation) = run.check_invariants() {
        eprintln!("chaos invariant violated: {violation}");
        std::process::exit(1);
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
    let root = Json::obj()
        .with("schema_version", ARTIFACT_SCHEMA_VERSION)
        .with("experiment", "trace")
        .with("seed", seed)
        .with("trace_dropped", r.trace.dropped())
        .with("spans", (compile_spans.len() + r.spans.len()) as u64)
        .with("critical_path", cp.to_json())
        .with("displayTimeUnit", "ms")
        .with("traceEvents", events);
    let text = root.pretty();
    // Self-validate before writing: the artifact must round-trip through
    // the parser (CI re-checks this on the written file).
    if let Err(e) = Json::parse(&text) {
        eprintln!("trace artifact failed self-validation: {e:?}");
        std::process::exit(1);
    }
    write_artifact(json_path, &text, "trace");
    let prom_path = format!("{}.prom", json_path.trim_end_matches(".json"));
    write_artifact(&prom_path, &prometheus_text(&r.metrics), "prometheus");
    println!();
}

fn print_bench(seed: u64, scaling_tasks: Option<usize>, json_path: &str) {
    println!(
        "== Bench: saturated admission, fast path vs pre-optimization baseline (seed {seed}) =="
    );
    let catalog = Catalog::build();
    let defaults = admission::BenchConfig::default();
    let config = admission::BenchConfig {
        seed,
        scaling_tasks: scaling_tasks.unwrap_or(defaults.scaling_tasks),
        ..defaults
    };
    let bench = admission::run(&catalog, &config);
    for s in &bench.scenarios {
        println!(
            "{:<7} current:  {:>8} probes ({:>9} cache hits), {:>6.2} per admission, {:>9.1} ms wall",
            s.name,
            s.current.probes,
            s.current.cache_hits,
            s.current.attempts_per_admission(),
            s.current.wall_ms
        );
        println!(
            "{:<7} baseline: {:>8} probes ({:>9} cache hits), {:>6.2} per admission, {:>9.1} ms wall",
            "",
            s.baseline.probes,
            s.baseline.cache_hits,
            s.baseline.attempts_per_admission(),
            s.baseline.wall_ms
        );
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
        eprintln!("bench FAILED: fast path changed admission outcomes");
        std::process::exit(1);
    }
    if bench.min_probe_ratio() < 3.0 {
        eprintln!(
            "bench FAILED: probe reduction {:.2}x is below the required 3x",
            bench.min_probe_ratio()
        );
        std::process::exit(1);
    }
    let per_admission = bench.attempts_per_admission();
    if per_admission > ATTEMPTS_PER_ADMISSION_CEILING {
        eprintln!(
            "bench FAILED: {per_admission:.2} deploy attempts per admission exceeds the ceiling {ATTEMPTS_PER_ADMISSION_CEILING}"
        );
        std::process::exit(1);
    }
    let touches = bench.queue_touches_per_admission();
    if touches > QUEUE_TOUCHES_PER_ADMISSION_CEILING {
        eprintln!(
            "bench FAILED: {touches:.2} queue touches per admission exceeds the ceiling {QUEUE_TOUCHES_PER_ADMISSION_CEILING}"
        );
        std::process::exit(1);
    }
    let root = Json::obj()
        .with("schema_version", ARTIFACT_SCHEMA_VERSION)
        .with("experiment", "bench")
        .with(
            "attempts_per_admission_ceiling",
            ATTEMPTS_PER_ADMISSION_CEILING,
        )
        .with("bench", bench.to_json(QUEUE_TOUCHES_PER_ADMISSION_CEILING));
    let text = root.pretty();
    if let Err(e) = Json::parse(&text) {
        eprintln!("bench artifact failed self-validation: {e:?}");
        std::process::exit(1);
    }
    write_artifact(json_path, &text, "bench");
    println!();
}

fn print_elastic(seed: u64, json_path: &str) {
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
    let root = Json::obj()
        .with("schema_version", ARTIFACT_SCHEMA_VERSION)
        .with("experiment", "elastic")
        .with("bench", bench.to_json());
    let text = root.pretty();
    if let Err(e) = Json::parse(&text) {
        eprintln!("elastic artifact failed self-validation: {e:?}");
        std::process::exit(1);
    }
    write_artifact(json_path, &text, "elastic");
    println!();
}

fn print_netchaos(seed: u64, json_path: &str) {
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
        eprintln!("netchaos invariant violated: {violation}");
        std::process::exit(1);
    }
    if !run.exercised_link_faults() {
        eprintln!(
            "netchaos run did not exercise the link fault machinery (seed {seed}): \
             {} failures, {} reroutes, {} retransmits",
            r.link_failures, r.link_reroutes, r.link_retransmits
        );
        std::process::exit(1);
    }
    let root = Json::obj()
        .with("schema_version", ARTIFACT_SCHEMA_VERSION)
        .with("experiment", "netchaos")
        .with("netchaos", run.to_json());
    let text = root.pretty();
    if let Err(e) = Json::parse(&text) {
        eprintln!("netchaos artifact failed self-validation: {e:?}");
        std::process::exit(1);
    }
    write_artifact(json_path, &text, "netchaos");
    println!();
}

fn print_monitor(seed: u64, json_path: &str) {
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
        match alert.resolved_at {
            Some(resolved) => println!(
                "  alert `{}` on `{}`: fired {:.0} us, resolved {:.0} us (peak burn {:.2})",
                alert.slo,
                alert.key,
                alert.fired_at.as_us(),
                resolved.as_us(),
                alert.peak_burn
            ),
            None => println!(
                "  alert `{}` on `{}`: fired {:.0} us, still firing (peak burn {:.2})",
                alert.slo,
                alert.key,
                alert.fired_at.as_us(),
                alert.peak_burn
            ),
        }
    }
    // The scenario is also the regression gate: fail loudly rather than
    // writing an artifact that records a broken run as if it were fine.
    if let Err(violation) = bench.check_invariants() {
        eprintln!("monitor invariant violated: {violation}");
        std::process::exit(1);
    }
    let root = Json::obj()
        .with("schema_version", ARTIFACT_SCHEMA_VERSION)
        .with("experiment", "monitor")
        .with("monitor", bench.to_json());
    let text = root.pretty();
    if let Err(e) = Json::parse(&text) {
        eprintln!("monitor artifact failed self-validation: {e:?}");
        std::process::exit(1);
    }
    // Determinism gate: the whole scenario again, from scratch — the
    // artifact must come out byte-identical.
    let rerun = monitor::run(&catalog, &config);
    let rerun_text = Json::obj()
        .with("schema_version", ARTIFACT_SCHEMA_VERSION)
        .with("experiment", "monitor")
        .with("monitor", rerun.to_json())
        .pretty();
    if text != rerun_text {
        eprintln!("monitor runs diverged: same seed {seed}, different artifact bytes");
        std::process::exit(1);
    }
    write_artifact(json_path, &text, "monitor");
    let prom_path = json_path.replace(".json", ".prom");
    write_artifact(&prom_path, &m.prometheus_text(), "monitor exposition");
    println!();
}

fn print_overhead() {
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
    let _ = SimTime::ZERO; // keep the sim import for the shared prelude
    println!();
}

fn print_density() {
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
}

fn print_isolation() {
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
}

fn print_fuzz(seed: u64, cases: usize, oracle: Option<String>, path: &str) {
    println!("== Differential fuzzing: {cases} cases/oracle, seed {seed} ==");
    let mut config = vfpga_fuzz::FuzzConfig::new(seed, cases);
    config.oracle = oracle;
    config.failure_dir = Some(std::path::PathBuf::from(FUZZ_FAILURE_DIR));
    let summary = match vfpga_fuzz::run_fuzz(&config) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
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
    assert_eq!(
        vfpga_fuzz::FUZZ_SCHEMA_VERSION,
        ARTIFACT_SCHEMA_VERSION,
        "fuzz and repro artifact schemas must move together"
    );
    write_artifact(path, &(summary.to_json().pretty() + "\n"), "fuzz");
    if !summary.passed() {
        eprintln!(
            "{} of {} cases violated an oracle; reproducers in {}",
            summary.total_failures(),
            summary.total_cases(),
            FUZZ_FAILURE_DIR
        );
        std::process::exit(1);
    }
}

fn print_fuzz_replay(path: &str) {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read reproducer {path}: {e}");
            std::process::exit(2);
        }
    };
    let doc = match Json::parse(&text) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("reproducer {path} is not JSON: {e}");
            std::process::exit(2);
        }
    };
    match vfpga_fuzz::replay(&doc) {
        Ok((oracle, vfpga_fuzz::Verdict::Pass)) => {
            println!("replay {path}: oracle `{oracle}` passes (bug no longer reproduces)");
        }
        Ok((oracle, vfpga_fuzz::Verdict::Fail(error))) => {
            eprintln!("replay {path}: oracle `{oracle}` still fails: {error}");
            std::process::exit(1);
        }
        Err(e) => {
            eprintln!("replay {path}: {e}");
            std::process::exit(2);
        }
    }
}
