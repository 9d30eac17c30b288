//! `scaleout-compile`: every DeepBench task scaled out to 2 and to 4
//! FPGAs, each slice compiled through the ISA scale-out tools, and each
//! deployment co-simulated over the ring at the Fig. 11 added latencies.

use std::collections::HashMap;

use vfpga_accel::{AcceleratorConfig, CycleSim, FuncSim, RemoteWindow, TimingModel};
use vfpga_bench::catalog::{ring_link, storage_bfp, Catalog};
use vfpga_bench::fig11::default_sweep_points;
use vfpga_core::scaleout::{insert_communication, remote_window, reorder_for_overlap};
use vfpga_isa::{encode, DepGraph, Instruction, Program};
use vfpga_runtime::{co_simulate_functional, co_simulate_timing, RuntimeError};
use vfpga_sim::{Json, Rng, SimTime};
use vfpga_workload::{
    deepbench_tasks, generate_program, RnnProgram, RnnTask, RnnWeights, SizeClass, SliceSpec,
    H_LOCAL_SLOT,
};

use crate::spans::Tracer;
use crate::{fnv1a, Outcome, SimOutcome};

/// FPGA counts every task is scaled out to.
const MACHINES: [usize; 2] = [2, 4];
/// Clock of the co-simulated XCVU37P-class devices, as in Fig. 11.
const FREQ_MHZ: f64 = 400.0;
/// Largest relative change of a task's sequence length a seed draws.
const SEQ_JITTER: f64 = 0.05;

/// The inputs of one run: the compiled catalog every workload sets up,
/// the tasks and the seeded added-latency points.
pub struct Prepared {
    pub catalog: Catalog,
    tasks: Vec<RnnTask>,
    added: Vec<SimTime>,
    seed: u64,
}

/// Builds the catalog and draws the inputs from `seed`: each DeepBench
/// task keeps its cell and hidden size and gets a sequence length within
/// 5% of its DeepBench length, and the Fig. 11 added-latency grid shifts
/// by one offset below its 200 ns step.
pub fn setup(seed: u64, t: &mut Tracer) -> Prepared {
    let catalog = t.span("catalog.build", |_| Catalog::build());
    t.span("workload.generate", |_| {
        let mut rng = Rng::seed_from_u64(seed);
        let tasks = deepbench_tasks()
            .into_iter()
            .map(|task| {
                let scale = rng.range_f64(1.0 - SEQ_JITTER, 1.0 + SEQ_JITTER);
                let timesteps = (task.timesteps as f64 * scale).round().max(1.0) as usize;
                RnnTask::new(task.kind, task.hidden, timesteps)
            })
            .collect();
        let offset = rng.range_f64(0.0, 200.0);
        Prepared {
            catalog,
            tasks,
            added: default_sweep_points()
                .into_iter()
                .map(|p| SimTime::from_ns(p.as_ns() + offset))
                .collect(),
            seed,
        }
    })
}

/// The workload's fixed parameters, for the registry.
pub fn describe() -> Json {
    let tasks = deepbench_tasks()
        .iter()
        .map(|t| Json::from(t.to_string()))
        .collect();
    Json::obj()
        .with("tasks", Json::Arr(tasks))
        .with(
            "machines",
            Json::Arr(MACHINES.iter().map(|&m| Json::from(m as u64)).collect()),
        )
        .with(
            "added_latency_ns",
            "0, 200, ..., 2000 plus one seeded offset in [0, 200)",
        )
        .with("sequence_length_jitter", SEQ_JITTER)
        .with("freq_mhz", FREQ_MHZ)
}

/// The accelerator one machine of a `machines`-FPGA deployment runs: the
/// demand-sized full accelerator of Fig. 11, scaled down.
fn scaled_config(task: &RnnTask, machines: usize) -> AcceleratorConfig {
    let full_tiles = match task.size_class() {
        SizeClass::Small => 2,
        SizeClass::Medium => 8,
        SizeClass::Large => 21,
    };
    AcceleratorConfig::new("perfbench", full_tiles)
        .with_bfp(storage_bfp())
        .scaled_down(machines)
}

/// One compiled machine of a deployment.
struct Slice {
    rnn: RnnProgram,
    window: RemoteWindow,
    communicating: Program,
    reordered: Program,
}

/// What the timed body leaves for the untimed checks.
pub struct Finished {
    slices: Vec<Slice>,
    failed_slices: u64,
    makespans_ms: Vec<f64>,
    messages: u64,
    queue_wait_total_us: f64,
    encoded_digest: u64,
    errors: Vec<String>,
}

/// Compiles one slice: program generation, communication insertion,
/// reordering for overlap, encoding. Returns the slice and its encoding.
fn compile_slice(
    task: RnnTask,
    cfg: &AcceleratorConfig,
    m: usize,
    machines: usize,
    t: &mut Tracer,
) -> Result<(Slice, Vec<u8>), String> {
    let rnn = t.span("workload.generate_program", |_| {
        generate_program(task, SliceSpec::new(m, machines))
    });
    let window = remote_window(&cfg.isa, m, machines).map_err(|e| e.to_string())?;
    let communicating = t
        .span("scaleout.insert_communication", |_| {
            insert_communication(&rnn.program, &rnn.state_slots, &window)
        })
        .map_err(|e| e.to_string())?;
    let reordered = t
        .span("scaleout.reorder_for_overlap", |_| {
            reorder_for_overlap(&communicating, &window)
        })
        .map_err(|e| e.to_string())?;
    let bytes = t.span("isa.encode", |_| encode(&reordered));
    Ok((
        Slice {
            rnn,
            window,
            communicating,
            reordered,
        },
        bytes,
    ))
}

/// The timed body: compile every slice, then co-simulate every deployment
/// at every added-latency point.
pub fn body(p: &Prepared, t: &mut Tracer) -> Finished {
    let mut out = Finished {
        slices: Vec::new(),
        failed_slices: 0,
        makespans_ms: Vec::new(),
        messages: 0,
        queue_wait_total_us: 0.0,
        encoded_digest: 0,
        errors: Vec::new(),
    };
    for &task in &p.tasks {
        for machines in MACHINES {
            let cfg = scaled_config(&task, machines);
            let first = out.slices.len();
            for m in 0..machines {
                match compile_slice(task, &cfg, m, machines, t) {
                    Ok((slice, bytes)) => {
                        out.encoded_digest = out.encoded_digest.rotate_left(5) ^ fnv1a(&bytes);
                        out.slices.push(slice);
                    }
                    Err(e) => out.errors.push(format!("{task} slice {m}/{machines}: {e}")),
                }
            }
            let deployment = &out.slices[first..];
            if deployment.len() != machines {
                out.failed_slices += machines as u64;
                out.slices.truncate(first);
                continue;
            }
            let model = TimingModel::for_config(&cfg, FREQ_MHZ);
            let mut deployment_failed = false;
            for &added in &p.added {
                let mut sims: Vec<CycleSim> = t.span("accel.cycle_sim_new", |_| {
                    deployment
                        .iter()
                        .map(|s| {
                            let mut sim = CycleSim::new(
                                model,
                                &s.reordered,
                                s.rnn.mat_shapes.clone(),
                                s.rnn.dram_lens.clone(),
                            );
                            sim.set_remote_window(Some(s.window));
                            sim
                        })
                        .collect()
                });
                let result = t.span("scaleout_sim.co_simulate_timing", |_| {
                    co_simulate_timing(&mut sims, ring_link(), added)
                });
                match result {
                    Ok(r) => {
                        out.makespans_ms.push(r.makespan.as_ms());
                        out.messages += r.messages;
                        out.queue_wait_total_us += r.queue_wait_total.as_us();
                    }
                    Err(e) => {
                        deployment_failed = true;
                        out.errors.push(format!("{task} on {machines} FPGAs: {e}"));
                    }
                }
            }
            if deployment_failed {
                out.failed_slices += machines as u64;
            }
        }
    }
    out
}

/// Whether `after` holds exactly the instructions of `before`.
fn same_multiset(before: &[Instruction], after: &[Instruction]) -> bool {
    let mut counts: HashMap<&Instruction, i64> = HashMap::new();
    for i in before {
        *counts.entry(i).or_insert(0) += 1;
    }
    for i in after {
        *counts.entry(i).or_insert(0) -= 1;
    }
    before.len() == after.len() && counts.values().all(|&c| c == 0)
}

/// Checks one finished run and collects its outcome and exact counts.
/// `full_checks` adds the per-slice instruction-multiset check; with the
/// tracer on, `DepGraph::build` is re-timed over every communicating
/// program, outside the timed body.
pub fn inspect(p: &Prepared, f: Finished, full_checks: bool, t: &mut Tracer) -> Outcome {
    let mut problems = f.errors;
    if full_checks {
        for s in &f.slices {
            if !same_multiset(s.communicating.instructions(), s.reordered.instructions()) {
                problems.push(format!(
                    "reordering changed the instructions of {} slice {:?}",
                    s.rnn.task, s.rnn.slice
                ));
            }
        }
    }
    if t.enabled() {
        for s in &f.slices {
            t.span("isa.depgraph_build", |_| {
                std::hint::black_box(DepGraph::build(s.communicating.instructions()))
            });
        }
    }
    let insts: usize = f.slices.iter().map(|s| s.reordered.len()).sum();
    let slices: usize = p.tasks.len() * MACHINES.iter().sum::<usize>();
    let mut digest = f.encoded_digest;
    for ms in &f.makespans_ms {
        digest = digest.rotate_left(7) ^ ms.to_bits();
    }
    let n = f.makespans_ms.len().max(1) as f64;
    let geo_mean = (f.makespans_ms.iter().map(|m| m.ln()).sum::<f64>() / n).exp();
    let total_s: f64 = f.makespans_ms.iter().sum::<f64>() * 1e-3;
    let mut sorted = f.makespans_ms.clone();
    sorted.sort_by(f64::total_cmp);
    Outcome {
        work: insts as f64,
        attempted: slices as u64,
        failed: f.failed_slices,
        digest,
        problems,
        sim: SimOutcome {
            throughput_per_s: n / total_s,
            latency_p50_ms: nearest_rank(&sorted, 0.50),
            latency_p99_ms: nearest_rank(&sorted, 0.99),
            makespan_ms: geo_mean,
        },
        counts: vec![
            ("isa.insts", insts as f64),
            ("scaleout_sim.messages", f.messages as f64),
            ("scaleout_sim.queue_wait_total_us", f.queue_wait_total_us),
        ],
    }
}

/// The `q` quantile of sorted values by the nearest-rank rule.
fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The functional cross-check, run once per process outside the timed
/// body: the smallest DeepBench task on two co-simulated FPGAs must
/// compute bit-exactly what one monolithic `FuncSim` computes, with
/// weights drawn from `seed`.
pub fn functional_check(p: &Prepared) -> Result<(), String> {
    let task = *p
        .tasks
        .iter()
        .min_by_key(|t| (t.hidden, t.timesteps))
        .expect("the DeepBench pool is not empty");
    let weights = RnnWeights::generate(task, p.seed);
    let full = scaled_config(&task, 1);
    let rnn = generate_program(task, SliceSpec::FULL);
    let mut single = FuncSim::new(&full);
    weights.load_into(&mut single, SliceSpec::FULL);
    single.run(&rnn.program).map_err(|e| e.to_string())?;
    let expected = single
        .read_dram(H_LOCAL_SLOT)
        .ok_or("monolithic run left no hidden state")?
        .to_vec();

    let machines = 2;
    let cfg = scaled_config(&task, machines);
    let mut sims = Vec::new();
    let mut programs = Vec::new();
    for m in 0..machines {
        let rnn = generate_program(task, SliceSpec::new(m, machines));
        let window = remote_window(&cfg.isa, m, machines).map_err(|e| e.to_string())?;
        let program = insert_communication(&rnn.program, &rnn.state_slots, &window)
            .and_then(|p| reorder_for_overlap(&p, &window))
            .map_err(|e| e.to_string())?;
        let mut sim = FuncSim::new(&cfg);
        sim.set_remote_window(Some(window));
        weights.load_into(&mut sim, SliceSpec::new(m, machines));
        sims.push(sim);
        programs.push(program);
    }
    co_simulate_functional(&mut sims, &programs).map_err(|e: RuntimeError| e.to_string())?;
    let mut got = Vec::new();
    for sim in &sims {
        got.extend_from_slice(sim.read_dram(H_LOCAL_SLOT).ok_or("slice left no state")?);
    }
    let same = got.len() == expected.len()
        && got
            .iter()
            .zip(&expected)
            .all(|(a, b)| a.to_bits() == b.to_bits());
    if same {
        Ok(())
    } else {
        Err(format!(
            "two-FPGA functional co-simulation of {task} differs from the monolithic run"
        ))
    }
}
