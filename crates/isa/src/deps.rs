//! Instruction dependency analysis.
//!
//! The scale-out optimization reorders instructions "under the dependency
//! constraint to maximally overlap the communication and computation"
//! (Section 2.3). This module computes the dependency graph that constrains
//! any such reordering: register RAW/WAR/WAW hazards plus exact per-slot
//! memory ordering (DRAM addresses are static in this ISA, so alias analysis
//! is exact).

use std::collections::HashMap;

use crate::inst::Instruction;

/// The kind of a dependency edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DepKind {
    /// Read-after-write through a vector register.
    Raw,
    /// Write-after-read through a vector register.
    War,
    /// Write-after-write through a vector register.
    Waw,
    /// Ordering through a DRAM slot (load/store on the same address).
    Mem,
    /// Ordering against a `halt` (everything precedes program end).
    Control,
}

/// One dependency edge: instruction `from` must execute before `to`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DepEdge {
    /// Earlier instruction index.
    pub from: usize,
    /// Later instruction index.
    pub to: usize,
    /// Why the order is required.
    pub kind: DepKind,
}

/// The dependency graph of a program: a DAG over instruction indices in
/// original program order (edges always point from lower to higher index).
///
/// Adjacency is stored in compressed (CSR) form: the predecessors of `i`
/// are `pred_list[pred_start[i]..pred_start[i + 1]]`, ascending and
/// without duplicates, and likewise for successors.
#[derive(Debug, Clone)]
pub struct DepGraph {
    len: usize,
    edges: Vec<DepEdge>,
    pred_start: Vec<usize>,
    pred_list: Vec<usize>,
    succ_start: Vec<usize>,
    succ_list: Vec<usize>,
}

/// Number of architectural vector register names (`VReg` is a `u8`).
const VREG_NAMES: usize = 256;

impl DepGraph {
    /// Builds the dependency graph of an instruction sequence.
    pub fn build(insts: &[Instruction]) -> Self {
        let n = insts.len();
        // Every edge into `i` is emitted while visiting `i`, so `emitted`
        // is in ascending `to`.
        let mut emitted = Vec::new();
        // Register hazards, indexed by register number.
        let mut last_def: [Option<usize>; VREG_NAMES] = [None; VREG_NAMES];
        let mut uses_since_def: Vec<Vec<usize>> = vec![Vec::new(); VREG_NAMES];
        let mut mem = SlotHazards::default();

        for (i, inst) in insts.iter().enumerate() {
            let mut edge = |from: usize, kind: DepKind| {
                emitted.push(DepEdge { from, to: i, kind });
            };
            if matches!(inst, Instruction::Halt) {
                // A halt is a full barrier: it must stay after everything
                // before it.
                for j in 0..i {
                    edge(j, DepKind::Control);
                }
                continue;
            }
            for r in inst.uses() {
                if let Some(d) = last_def[usize::from(r.0)] {
                    edge(d, DepKind::Raw);
                }
            }
            if let Some(addr) = inst.mem_read() {
                let (last_store, loads) = mem.slot(addr);
                if let Some(s) = *last_store {
                    edge(s, DepKind::Mem);
                }
                loads.push(i);
            }
            if let Some(addr) = inst.mem_write() {
                let (last_store, loads) = mem.slot(addr);
                for &l in loads.iter() {
                    edge(l, DepKind::Mem);
                }
                if let Some(s) = *last_store {
                    edge(s, DepKind::Mem);
                }
                *last_store = Some(i);
                loads.clear();
            }
            if let Some(d) = inst.defs() {
                let d = usize::from(d.0);
                for &r in &uses_since_def[d] {
                    if r != i {
                        edge(r, DepKind::War);
                    }
                }
                if let Some(prev) = last_def[d] {
                    edge(prev, DepKind::Waw);
                }
                last_def[d] = Some(i);
                uses_since_def[d].clear();
            }
            // Record uses after handling the def so `vadd v1, v1, v2` does
            // not produce a spurious WAR on itself.
            for r in inst.uses() {
                uses_since_def[usize::from(r.0)].push(i);
            }
        }

        // `emitted` is in ascending `to`, so a stable counting sort by
        // `from` orders it exactly as a stable sort by `(from, to)`.
        let mut next = vec![0; n + 1];
        for e in &emitted {
            next[e.from + 1] += 1;
        }
        prefix_sum(&mut next);
        let mut edges = emitted.clone();
        for &e in &emitted {
            edges[next[e.from]] = e;
            next[e.from] += 1;
        }
        edges.dedup_by_key(|e| (e.from, e.to, e.kind));

        // The distinct (from, to) pairs, in edge order, are the successor
        // lists back to back. Scattering them by `to` in that order (a
        // stable counting sort) gives ascending predecessor lists.
        let mut succ_start = vec![0; n + 1];
        let mut pred_start = vec![0; n + 1];
        let mut succ_list = Vec::with_capacity(edges.len());
        let mut prev = None;
        for e in &edges {
            if prev != Some((e.from, e.to)) {
                prev = Some((e.from, e.to));
                succ_start[e.from + 1] += 1;
                pred_start[e.to + 1] += 1;
                succ_list.push(e.to);
            }
        }
        prefix_sum(&mut succ_start);
        prefix_sum(&mut pred_start);
        next.copy_from_slice(&pred_start);
        let mut pred_list = vec![0; succ_list.len()];
        for from in 0..n {
            for &to in &succ_list[succ_start[from]..succ_start[from + 1]] {
                pred_list[next[to]] = from;
                next[to] += 1;
            }
        }

        DepGraph {
            len: n,
            edges,
            pred_start,
            pred_list,
            succ_start,
            succ_list,
        }
    }

    /// Number of instructions covered by the graph.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the graph covers no instructions.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// All dependency edges.
    pub fn edges(&self) -> &[DepEdge] {
        &self.edges
    }

    /// Indices of instructions that must execute before `i`.
    pub fn preds(&self, i: usize) -> &[usize] {
        &self.pred_list[self.pred_start[i]..self.pred_start[i + 1]]
    }

    /// Indices of instructions that must execute after `i`.
    pub fn succs(&self, i: usize) -> &[usize] {
        &self.succ_list[self.succ_start[i]..self.succ_start[i + 1]]
    }

    /// Checks that `order` (a permutation of `0..len`) respects every
    /// dependency edge — the correctness condition for the reordering tool.
    pub fn is_valid_order(&self, order: &[usize]) -> bool {
        if order.len() != self.len {
            return false;
        }
        let mut position = vec![usize::MAX; self.len];
        for (pos, &idx) in order.iter().enumerate() {
            if idx >= self.len || position[idx] != usize::MAX {
                return false; // not a permutation
            }
            position[idx] = pos;
        }
        self.edges.iter().all(|e| position[e.from] < position[e.to])
    }
}

/// Memory hazard state, exact per DRAM slot. Slots are interned to dense
/// ids, so each access costs one map lookup.
#[derive(Default)]
struct SlotHazards {
    ids: HashMap<u32, usize>,
    /// Per slot id: the last store and the loads since it.
    slots: Vec<(Option<usize>, Vec<usize>)>,
}

impl SlotHazards {
    fn slot(&mut self, addr: u32) -> &mut (Option<usize>, Vec<usize>) {
        let next = self.slots.len();
        let id = *self.ids.entry(addr).or_insert(next);
        if id == next {
            self.slots.push((None, Vec::new()));
        }
        &mut self.slots[id]
    }
}

/// Turns per-key counts stored at `key + 1` into run offsets in place.
fn prefix_sum(counts: &mut [usize]) {
    for i in 1..counts.len() {
        counts[i] += counts[i - 1];
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::{Instruction as I, MReg, VReg};

    fn sample() -> Vec<I> {
        vec![
            I::VLoad {
                dst: VReg(0),
                addr: 0,
            }, // 0
            I::MvMul {
                dst: VReg(1),
                mat: MReg(0),
                src: VReg(0),
            }, // 1: RAW on v0
            I::VAdd {
                dst: VReg(2),
                a: VReg(1),
                b: VReg(0),
            }, // 2: RAW on v1, v0
            I::VLoad {
                dst: VReg(0),
                addr: 1,
            }, // 3: WAR on v0 (vs 1, 2), WAW vs 0
            I::VStore {
                src: VReg(2),
                addr: 5,
            }, // 4: RAW on v2
            I::Halt, // 5: control
        ]
    }

    #[test]
    fn register_hazards_detected() {
        let g = DepGraph::build(&sample());
        let has = |from, to, kind| g.edges().contains(&DepEdge { from, to, kind });
        assert!(has(0, 1, DepKind::Raw));
        assert!(has(1, 2, DepKind::Raw));
        assert!(has(0, 2, DepKind::Raw));
        assert!(has(1, 3, DepKind::War));
        assert!(has(2, 3, DepKind::War));
        assert!(has(0, 3, DepKind::Waw));
        assert!(has(2, 4, DepKind::Raw));
        assert!(has(4, 5, DepKind::Control));
    }

    #[test]
    fn memory_hazards_are_per_slot() {
        let insts = vec![
            I::VStore {
                src: VReg(0),
                addr: 10,
            }, // 0
            I::VLoad {
                dst: VReg(1),
                addr: 10,
            }, // 1: mem RAW
            I::VLoad {
                dst: VReg(2),
                addr: 11,
            }, // 2: different slot, no edge to 0
            I::VStore {
                src: VReg(3),
                addr: 10,
            }, // 3: mem WAR vs 1, WAW vs 0
        ];
        let g = DepGraph::build(&insts);
        let pairs: Vec<(usize, usize)> = g.edges().iter().map(|e| (e.from, e.to)).collect();
        assert!(pairs.contains(&(0, 1)));
        assert!(pairs.contains(&(1, 3)));
        assert!(pairs.contains(&(0, 3)));
        assert!(!pairs.contains(&(0, 2)));
        assert!(!pairs.contains(&(2, 3)));
    }

    #[test]
    fn original_order_is_always_valid() {
        let insts = sample();
        let g = DepGraph::build(&insts);
        let order: Vec<usize> = (0..insts.len()).collect();
        assert!(g.is_valid_order(&order));
    }

    #[test]
    fn independent_instructions_may_swap() {
        let insts = vec![
            I::VLoad {
                dst: VReg(0),
                addr: 0,
            },
            I::VLoad {
                dst: VReg(1),
                addr: 1,
            },
        ];
        let g = DepGraph::build(&insts);
        assert!(g.is_valid_order(&[1, 0]));
    }

    #[test]
    fn dependent_swap_rejected() {
        let g = DepGraph::build(&sample());
        // Moving the mvmul before its input load violates the RAW edge.
        assert!(!g.is_valid_order(&[1, 0, 2, 3, 4, 5]));
        // Non-permutations are rejected.
        assert!(!g.is_valid_order(&[0, 0, 2, 3, 4, 5]));
        assert!(!g.is_valid_order(&[0, 1, 2]));
    }

    #[test]
    fn self_read_write_has_no_self_edge() {
        let insts = vec![
            I::VZero { dst: VReg(1) },
            I::VAdd {
                dst: VReg(1),
                a: VReg(1),
                b: VReg(1),
            },
        ];
        let g = DepGraph::build(&insts);
        assert!(g.edges().iter().all(|e| e.from != e.to));
        // But the RAW edge from the vzero is present.
        assert!(g.edges().contains(&DepEdge {
            from: 0,
            to: 1,
            kind: DepKind::Raw
        }));
    }
}
