//! Control Flow Checking by Software Signatures (CFCSS) baseline.
//!
//! The paper contrasts its look-up-table PFC with "the widely discussed
//! method of using embedded signatures as proposed in \[10\]" — Oh, Shirvani,
//! McCluskey, *Control-Flow Checking by Software Signatures*, IEEE Trans.
//! Reliability 51(1), 2002 — rejected for "high performance overhead and
//! low flexibility with regard to modification of programs". This module
//! implements CFCSS at basic-block granularity so the overhead experiment
//! (T-OVH in DESIGN.md) can quantify that trade-off:
//!
//! * every basic block `v` carries a compile-time signature `s_v`;
//! * a run-time signature register `G` is updated on block entry with the
//!   XOR difference `d_v = s_v ⊕ s_{p0(v)}` (`p0` = designated predecessor);
//! * branch-fan-in blocks additionally XOR a run-time adjusting signature
//!   `D`, assigned in the predecessor, so every legal path re-derives
//!   `G = s_v`;
//! * `G ≠ s_v` on entry signals a control-flow error.

use easis_sim::cpu::CostMeter;
use easis_sim::rng::SimRng;
use serde::{Deserialize, Serialize};

/// Instrumentation cost per executed block: XOR-update, compare, branch.
pub const BLOCK_CHECK_COST_CYCLES: u64 = 5;
/// Extra cost in predecessors of branch-fan-in blocks: assigning `D`.
pub const ADJUST_COST_CYCLES: u64 = 2;

/// Index of a basic block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct BlockId(pub u32);

impl BlockId {
    fn index(self) -> usize {
        self.0 as usize
    }
}

/// A program's control-flow graph over basic blocks.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ControlFlowGraph {
    succs: Vec<Vec<u32>>,
}

impl ControlFlowGraph {
    /// Creates a graph with `blocks` isolated blocks.
    pub fn new(blocks: usize) -> Self {
        ControlFlowGraph {
            succs: vec![Vec::new(); blocks],
        }
    }

    /// A straight-line chain `0 → 1 → … → n-1 → 0` (a periodic runnable
    /// body).
    pub fn chain(blocks: usize) -> Self {
        assert!(blocks > 0, "need at least one block");
        let mut g = ControlFlowGraph::new(blocks);
        for i in 0..blocks {
            g.add_edge(BlockId(i as u32), BlockId(((i + 1) % blocks) as u32));
        }
        g
    }

    /// Adds a legal edge.
    ///
    /// # Panics
    ///
    /// Panics if either block is out of range.
    fn add_edge(&mut self, from: BlockId, to: BlockId) {
        assert!(from.index() < self.succs.len(), "unknown source block");
        assert!(to.index() < self.succs.len(), "unknown target block");
        if !self.succs[from.index()].contains(&to.0) {
            self.succs[from.index()].push(to.0);
        }
    }

    /// Number of blocks.
    fn block_count(&self) -> usize {
        self.succs.len()
    }

    /// `true` if `from → to` is a legal edge.
    fn has_edge(&self, from: BlockId, to: BlockId) -> bool {
        self.succs[from.index()].contains(&to.0)
    }

    fn predecessors(&self, v: usize) -> Vec<usize> {
        (0..self.succs.len())
            .filter(|&p| self.succs[p].contains(&(v as u32)))
            .collect()
    }
}

/// A CFCSS-instrumented program: graph + signature/diff tables.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CfcssProgram {
    graph: ControlFlowGraph,
    signatures: Vec<u32>,
    /// `d_v = s_v ⊕ s_{p0(v)}` (entry blocks use `d = 0`).
    diffs: Vec<u32>,
    /// Designated predecessor per block (usize::MAX for entry blocks).
    designated: Vec<usize>,
    fan_in: Vec<bool>,
}

impl CfcssProgram {
    /// Instruments a graph, assigning unique random signatures from `seed`.
    pub fn instrument(graph: ControlFlowGraph, seed: u64) -> Self {
        let n = graph.block_count();
        let mut rng = SimRng::seed_from(seed);
        let mut signatures = Vec::with_capacity(n);
        while signatures.len() < n {
            let s = rng.next_u64() as u32;
            if !signatures.contains(&s) {
                signatures.push(s);
            }
        }
        let mut diffs = vec![0u32; n];
        let mut designated = vec![usize::MAX; n];
        let mut fan_in = vec![false; n];
        for v in 0..n {
            let preds = graph.predecessors(v);
            if let Some(&p0) = preds.first() {
                designated[v] = p0;
                diffs[v] = signatures[v] ^ signatures[p0];
                fan_in[v] = preds.len() > 1;
            }
        }
        CfcssProgram {
            graph,
            signatures,
            diffs,
            designated,
            fan_in,
        }
    }

    /// Signature of a block.
    pub fn signature(&self, b: BlockId) -> u32 {
        self.signatures[b.index()]
    }

    /// The instrumented graph.
    pub fn graph(&self) -> &ControlFlowGraph {
        &self.graph
    }
}

/// The run-time part of CFCSS: the `G`/`D` registers plus error counting.
#[derive(Debug, Clone)]
pub struct CfcssMonitor {
    program: CfcssProgram,
    g: u32,
    d: u32,
    current: Option<usize>,
    errors: u64,
}

impl CfcssMonitor {
    /// Starts monitoring at `entry` (initialises `G = s_entry`, as the
    /// instrumented prologue would).
    pub fn new(program: CfcssProgram, entry: BlockId) -> Self {
        let g = program.signature(entry);
        CfcssMonitor {
            program,
            g,
            d: 0,
            current: Some(entry.index()),
            errors: 0,
        }
    }

    /// Simulates entering block `v`; returns `true` if the signature check
    /// failed (control-flow error detected). `costs` is charged the
    /// per-block instrumentation overhead.
    pub fn enter(&mut self, v: BlockId, costs: &mut CostMeter) -> bool {
        let vi = v.index();
        costs.charge(BLOCK_CHECK_COST_CYCLES);
        // The predecessor's instrumentation only runs on *legal* edges: an
        // illegal jump skips the D assignment, leaving a stale D.
        if let Some(cur) = self.current {
            let legal = self.program.graph.has_edge(BlockId(cur as u32), v);
            if legal && self.program.fan_in[vi] {
                costs.charge(ADJUST_COST_CYCLES);
                let p0 = self.program.designated[vi];
                self.d = self.program.signatures[p0] ^ self.program.signatures[cur];
            }
        }
        let mut g = self.g ^ self.program.diffs[vi];
        if self.program.fan_in[vi] {
            g ^= self.d;
        }
        let failed = g != self.program.signatures[vi];
        if failed {
            self.errors += 1;
            // Resynchronise so monitoring continues past the error handler.
            g = self.program.signatures[vi];
        }
        self.g = g;
        self.current = Some(vi);
        failed
    }

    /// Cumulative detected control-flow errors.
    pub fn errors(&self) -> u64 {
        self.errors
    }

    /// The current signature register (for tests/diagnostics).
    pub fn g(&self) -> u32 {
        self.g
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(n: u32) -> BlockId {
        BlockId(n)
    }

    /// Diamond: 0 → {1, 2} → 3 → 0 (3 is branch-fan-in).
    fn diamond() -> ControlFlowGraph {
        let mut g = ControlFlowGraph::new(4);
        g.add_edge(b(0), b(1));
        g.add_edge(b(0), b(2));
        g.add_edge(b(1), b(3));
        g.add_edge(b(2), b(3));
        g.add_edge(b(3), b(0));
        g
    }

    #[test]
    fn legal_chain_never_flags() {
        let prog = CfcssProgram::instrument(ControlFlowGraph::chain(6), 1);
        let mut mon = CfcssMonitor::new(prog, b(0));
        let mut costs = CostMeter::new();
        for round in 0..10 {
            for i in 1..6 {
                assert!(!mon.enter(b(i), &mut costs), "round {round} block {i}");
            }
            assert!(!mon.enter(b(0), &mut costs));
        }
        assert_eq!(mon.errors(), 0);
    }

    #[test]
    fn both_diamond_paths_are_legal() {
        let prog = CfcssProgram::instrument(diamond(), 2);
        let mut mon = CfcssMonitor::new(prog, b(0));
        let mut costs = CostMeter::new();
        // Path via 1.
        assert!(!mon.enter(b(1), &mut costs));
        assert!(!mon.enter(b(3), &mut costs));
        assert!(!mon.enter(b(0), &mut costs));
        // Path via 2 (fan-in adjusting signature must fix G up).
        assert!(!mon.enter(b(2), &mut costs));
        assert!(!mon.enter(b(3), &mut costs));
        assert!(!mon.enter(b(0), &mut costs));
        assert_eq!(mon.errors(), 0);
    }

    #[test]
    fn illegal_jump_is_detected() {
        let prog = CfcssProgram::instrument(ControlFlowGraph::chain(6), 3);
        let mut mon = CfcssMonitor::new(prog, b(0));
        let mut costs = CostMeter::new();
        assert!(!mon.enter(b(1), &mut costs));
        // Corrupted program counter: jump 1 → 4 (legal is 1 → 2).
        assert!(mon.enter(b(4), &mut costs));
        assert_eq!(mon.errors(), 1);
        // After resync, the legal continuation is clean again.
        assert!(!mon.enter(b(5), &mut costs));
    }

    #[test]
    fn illegal_jump_into_fan_in_is_detected() {
        let prog = CfcssProgram::instrument(diamond(), 4);
        let mut mon = CfcssMonitor::new(prog, b(0));
        let mut costs = CostMeter::new();
        assert!(!mon.enter(b(1), &mut costs));
        assert!(!mon.enter(b(3), &mut costs));
        // Illegal: 3 → 2 (legal successor of 3 is only 0).
        assert!(mon.enter(b(2), &mut costs));
        assert_eq!(mon.errors(), 1);
    }

    #[test]
    fn per_block_cost_exceeds_nothing_but_accumulates() {
        let prog = CfcssProgram::instrument(ControlFlowGraph::chain(4), 5);
        let mut mon = CfcssMonitor::new(prog, b(0));
        let mut costs = CostMeter::new();
        for i in [1u32, 2, 3, 0, 1, 2, 3, 0] {
            mon.enter(b(i), &mut costs);
        }
        assert_eq!(costs.total_cycles(), 8 * BLOCK_CHECK_COST_CYCLES);
        assert_eq!(costs.operations(), 8);
    }

    #[test]
    fn signatures_are_unique() {
        let prog = CfcssProgram::instrument(ControlFlowGraph::chain(64), 7);
        let mut sigs: Vec<u32> = (0..64).map(|i| prog.signature(b(i))).collect();
        sigs.sort_unstable();
        sigs.dedup();
        assert_eq!(sigs.len(), 64);
    }

    #[test]
    #[should_panic(expected = "unknown target block")]
    fn edge_to_unknown_block_rejected() {
        let mut g = ControlFlowGraph::new(2);
        g.add_edge(b(0), b(5));
    }
}
