//! End-to-end correctness of the scale-out optimization: scaled-down
//! accelerators exchanging state through the synchronization template
//! module must compute exactly what one big accelerator computes.

use vfpga::accel::{AcceleratorConfig, CycleSim, FuncSim, RemoteWindow, TimingModel};
use vfpga::core::scaleout::{insert_communication, remote_window, reorder_for_overlap};
use vfpga::isa::{encode, Program, F16};
use vfpga::runtime::{
    co_simulate_functional, co_simulate_timing, co_simulate_timing_faulted, LinkChaos, RuntimeError,
};
use vfpga::sim::{DegradedMode, LinkFaultKind, LinkParams, RetransmitPolicy, SimTime};
use vfpga::workload::{
    generate_program, reference_run, RnnKind, RnnProgram, RnnTask, RnnWeights, SliceSpec,
    H_LOCAL_SLOT,
};

/// Runs `task` on `machines` cooperating scaled-down accelerators and
/// returns the final hidden state (concatenated slices).
fn run_scaled(task: RnnTask, weights: &RnnWeights, machines: usize, reorder: bool) -> Vec<F16> {
    let full = AcceleratorConfig::new("test", 8);
    let scaled = full.scaled_down(machines);
    let mut programs = Vec::new();
    let mut sims = Vec::new();
    for m in 0..machines {
        let rnn = generate_program(task, SliceSpec::new(m, machines));
        let window = remote_window(&scaled.isa, m, machines).expect("window fits");
        let mut program =
            insert_communication(&rnn.program, &rnn.state_slots, &window).expect("insert");
        if reorder {
            program = reorder_for_overlap(&program, &window).expect("reorder");
        }
        programs.push(program);
        let mut sim = FuncSim::new(&scaled);
        sim.set_remote_window(Some(window));
        weights.load_into(&mut sim, SliceSpec::new(m, machines));
        sims.push(sim);
    }
    co_simulate_functional(&mut sims, &programs).expect("co-simulation");
    let mut h = Vec::new();
    for sim in &sims {
        h.extend_from_slice(sim.read_dram(H_LOCAL_SLOT).expect("h slice"));
    }
    h
}

fn run_single(task: RnnTask, weights: &RnnWeights) -> Vec<F16> {
    let full = AcceleratorConfig::new("test", 8);
    let rnn = generate_program(task, SliceSpec::FULL);
    let mut sim = FuncSim::new(&full);
    weights.load_into(&mut sim, SliceSpec::FULL);
    sim.run(&rnn.program).expect("single-machine run");
    sim.read_dram(H_LOCAL_SLOT).expect("h").to_vec()
}

#[test]
fn gru_two_machines_bit_exact() {
    let task = RnnTask::new(RnnKind::Gru, 96, 5);
    let weights = RnnWeights::generate(task, 11);
    let single = run_single(task, &weights);
    let scaled = run_scaled(task, &weights, 2, true);
    assert_eq!(single.len(), scaled.len());
    for (a, b) in single.iter().zip(&scaled) {
        assert_eq!(a.to_bits(), b.to_bits(), "row-sliced GRU must be bit-exact");
    }
}

#[test]
fn lstm_two_machines_bit_exact() {
    let task = RnnTask::new(RnnKind::Lstm, 64, 6);
    let weights = RnnWeights::generate(task, 13);
    let single = run_single(task, &weights);
    let scaled = run_scaled(task, &weights, 2, true);
    for (a, b) in single.iter().zip(&scaled) {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "row-sliced LSTM must be bit-exact"
        );
    }
}

#[test]
fn four_machines_with_uneven_rows() {
    // 70 rows over 4 machines: slices of 18/18/17/17.
    let task = RnnTask::new(RnnKind::Gru, 70, 3);
    let weights = RnnWeights::generate(task, 17);
    let single = run_single(task, &weights);
    let scaled = run_scaled(task, &weights, 4, true);
    assert_eq!(scaled.len(), 70);
    for (a, b) in single.iter().zip(&scaled) {
        assert_eq!(a.to_bits(), b.to_bits());
    }
}

#[test]
fn reordering_does_not_change_results() {
    let task = RnnTask::new(RnnKind::Lstm, 48, 4);
    let weights = RnnWeights::generate(task, 19);
    let plain = run_scaled(task, &weights, 2, false);
    let reordered = run_scaled(task, &weights, 2, true);
    assert_eq!(plain, reordered);
}

#[test]
fn scaled_results_track_f32_reference() {
    let task = RnnTask::new(RnnKind::Gru, 128, 6);
    let weights = RnnWeights::generate(task, 23);
    let scaled = run_scaled(task, &weights, 2, true);
    let reference = reference_run(&weights);
    let max_err = scaled
        .iter()
        .zip(&reference)
        .map(|(a, b)| (a.to_f32() - b).abs())
        .fold(0.0f32, f32::max);
    assert!(max_err < 0.05, "max error {max_err}");
}

#[test]
fn missing_peer_data_deadlocks_cleanly() {
    // One machine runs a program that receives without any peer sending:
    // the co-simulator must report a deadlock, not hang.
    let cfg = AcceleratorConfig::new("t", 2);
    let window = RemoteWindow {
        send_base: 100,
        recv_base: 200,
        channels: 1,
        machine_index: 0,
        num_machines: 2,
    };
    let program = vfpga::isa::assemble("vload v0, 200\nhalt\n").unwrap();
    let mut starved = FuncSim::new(&cfg);
    starved.set_remote_window(Some(window));
    let mut silent = FuncSim::new(&cfg);
    silent.set_remote_window(Some(RemoteWindow {
        machine_index: 1,
        ..window
    }));
    let halt_only = vfpga::isa::assemble("halt\n").unwrap();
    let err = co_simulate_functional(&mut [starved, silent], &[program, halt_only]).unwrap_err();
    assert!(matches!(err, RuntimeError::Deadlock { blocked: 1 }));
}

#[test]
fn fuzz_counterexample_minimal_two_row_gru() {
    // Checked-in shrunk counterexample from the differential fuzzer's
    // scaleout-differential oracle (seed 42, case 0) against a mutant of
    // `insert_communication` that left the first cross-machine receive
    // reading the machine's own local slice instead of the ring window.
    // The smallest shape that exposes the class: the hidden state must
    // actually cross machines (2 rows over 2 machines) and the skipped
    // receive must feed a later step (2 timesteps — one step passes
    // vacuously because h0 starts local everywhere). On the mutant this
    // deadlocks the co-simulation; on correct code it is bit-exact.
    let task = RnnTask::new(RnnKind::Gru, 2, 2);
    let weights = RnnWeights::generate(task, 12032836648555590000);
    let single = run_single(task, &weights);
    let scaled = run_scaled(task, &weights, 2, true);
    assert_eq!(single.len(), scaled.len());
    for (a, b) in single.iter().zip(&scaled) {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "minimal cross-machine GRU must be bit-exact"
        );
    }
}

// ---------------------------------------------------------------------
// Golden pins: exact outputs of the Fig. 11 compile-and-co-simulate path.
// The digests were computed before the dependence graph, the co-simulator's
// arrival table and the cycle simulator were optimised; any change to an
// edge (redundant ones included), to the schedule or to a simulated time
// moves them.
// ---------------------------------------------------------------------

/// One small, one medium and one large DeepBench task, each with the tile
/// count of its demand-sized full accelerator.
const GOLDEN_TASKS: [(RnnKind, usize, usize, usize); 3] = [
    (RnnKind::Lstm, 512, 25, 2),
    (RnnKind::Lstm, 1536, 50, 8),
    (RnnKind::Gru, 2560, 64, 21),
];
const GOLDEN_MACHINES: [usize; 2] = [2, 4];

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn ring() -> LinkParams {
    LinkParams::new(SimTime::from_ns(500.0), 25.0)
}

/// Every golden deployment, compiled through `insert_communication` and
/// `reorder_for_overlap`: `(config, slices)` with one
/// `(program, window, reordered)` per machine, in (task, machines) order.
#[allow(clippy::type_complexity)]
fn golden_deployments() -> Vec<(AcceleratorConfig, Vec<(RnnProgram, RemoteWindow, Program)>)> {
    let mut out = Vec::new();
    for (kind, hidden, timesteps, tiles) in GOLDEN_TASKS {
        let task = RnnTask::new(kind, hidden, timesteps);
        for machines in GOLDEN_MACHINES {
            let cfg = AcceleratorConfig::new("golden", tiles).scaled_down(machines);
            let slices = (0..machines)
                .map(|m| {
                    let rnn = generate_program(task, SliceSpec::new(m, machines));
                    let window = remote_window(&cfg.isa, m, machines).expect("window fits");
                    let reordered = insert_communication(&rnn.program, &rnn.state_slots, &window)
                        .and_then(|p| reorder_for_overlap(&p, &window))
                        .expect("compile");
                    (rnn, window, reordered)
                })
                .collect();
            out.push((cfg, slices));
        }
    }
    out
}

fn timing_sims(
    cfg: &AcceleratorConfig,
    slices: &[(RnnProgram, RemoteWindow, Program)],
) -> Vec<CycleSim> {
    let model = TimingModel::for_config(cfg, 400.0);
    slices
        .iter()
        .map(|(rnn, window, reordered)| {
            let mut sim = CycleSim::new(
                model,
                reordered,
                rnn.mat_shapes.clone(),
                rnn.dram_lens.clone(),
            );
            sim.set_remote_window(Some(*window));
            sim
        })
        .collect()
}

#[test]
fn golden_reordered_encodings() {
    let digests: Vec<u64> = golden_deployments()
        .iter()
        .map(|(_, slices)| {
            let bytes: Vec<u8> = slices.iter().flat_map(|(_, _, p)| encode(p)).collect();
            fnv1a(&bytes)
        })
        .collect();
    assert_eq!(digests, GOLDEN_ENCODINGS, "{digests:#x?}");
}

#[test]
fn golden_timing_cosimulation() {
    let mut digests = Vec::new();
    for (cfg, slices) in golden_deployments() {
        for added_ns in [0.0, 1000.0] {
            let mut sims = timing_sims(&cfg, &slices);
            let timing =
                co_simulate_timing(&mut sims, ring(), SimTime::from_ns(added_ns)).expect("cosim");
            digests.push(fnv1a(timing.to_json().compact().as_bytes()));
        }
    }
    assert_eq!(digests, GOLDEN_TIMINGS, "{digests:#x?}");
}

#[test]
fn golden_faulted_timing_cosimulation() {
    let deployments = golden_deployments();
    let (cfg, slices) = &deployments[0];
    let mut sims = timing_sims(cfg, slices);
    let chaos = LinkChaos {
        events: vec![
            (SimTime::from_us(5.0), LinkFaultKind::Degraded),
            (SimTime::from_us(40.0), LinkFaultKind::Recovered),
        ],
        degraded: DegradedMode::new(0.5, SimTime::from_ns(300.0)),
        corruption_prob: 0.2,
        retransmit: RetransmitPolicy {
            max_retransmits: 16,
            base_backoff: SimTime::from_ns(50.0),
        },
        deadline: None,
        seed: 11,
    };
    let timing = co_simulate_timing_faulted(&mut sims, ring(), SimTime::from_ns(200.0), &chaos)
        .expect("faulted cosim");
    assert!(timing.retransmits > 0, "the pin must cover retransmission");
    let digest = fnv1a(timing.to_json().compact().as_bytes());
    assert_eq!(digest, GOLDEN_FAULTED, "{digest:#x}");
}

const GOLDEN_ENCODINGS: [u64; 6] = [
    0x46c4ad3254422f3d,
    0x15f976c1c9e99815,
    0xc567771b08a67171,
    0x61dcb839a66aef1d,
    0xdf9062bd06af0e7b,
    0x20612d352989b371,
];
const GOLDEN_TIMINGS: [u64; 12] = [
    0x23ac025c98255c7f,
    0x8412876c4a7985a8,
    0xaf4037a0aff7aef6,
    0xd4ffc429480adf90,
    0x18c1552b89acc875,
    0xe3cc43d2c51cb2dd,
    0xcac6fa926c2359c6,
    0x8a284f8668c0b938,
    0xe48b2827aee661b4,
    0xaf5a0ba2abaf5251,
    0xea74dbbb5fe15c2e,
    0x9cbac1fecb963546,
];
const GOLDEN_FAULTED: u64 = 0xc1c9f232b3736f74;
