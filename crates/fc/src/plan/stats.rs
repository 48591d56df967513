//! Execution counters for the compiled evaluator.

use std::time::Duration;

/// Counters exposed by [`super::Plan::eval_with_stats`] for benchmarks,
/// experiment reports and `fc check --stats` / `fc solve --stats`.
///
/// The first three fields describe the *plan* (they are set, not
/// accumulated, on every instrumented eval); the remaining counters
/// accumulate across evals so a windowed workload can report totals from a
/// single struct.
#[derive(Clone, Copy, Debug, Default)]
pub struct EvalStats {
    /// Number of nodes in the compiled plan.
    pub plan_nodes: usize,
    /// Number of variable slots in the plan's frame.
    pub slots: usize,
    /// Number of *distinct* DFAs compiled for the plan's regular
    /// constraints (structural deduplication — see `docs/EVAL.md`).
    pub dfas: usize,
    /// Number of quantifier blocks resolved to guard-directed enumeration
    /// at plan time.
    pub guarded_blocks: usize,
    /// Quantifier bindings tried by plain (unguarded) enumeration.
    pub frames_explored: u64,
    /// Guard solutions enumerated by guard-directed blocks.
    pub guard_hits: u64,
    /// Regular-constraint membership tests run.
    pub dfa_checks: u64,
    /// Wall time accumulated inside instrumented evals.
    pub wall: Duration,
}

impl EvalStats {
    /// Folds another eval's *run* counters into this one (frames, guard
    /// hits, DFA checks, wall). Plan-shape fields are per-plan facts, not
    /// accumulators: they are taken from `other` (last writer wins), the
    /// same convention as [`super::Plan::seed_stats`].
    pub fn absorb(&mut self, other: &EvalStats) {
        self.plan_nodes = other.plan_nodes;
        self.slots = other.slots;
        self.dfas = other.dfas;
        self.guarded_blocks = other.guarded_blocks;
        self.frames_explored += other.frames_explored;
        self.guard_hits += other.guard_hits;
        self.dfa_checks += other.dfa_checks;
        self.wall += other.wall;
    }

    /// One-line human rendering (used by `fc check --stats`).
    pub fn render(&self) -> String {
        format!(
            "plan: {} nodes, {} slots, {} dfas, {} guarded blocks; run: {} frames, {} guard hits, {} dfa checks, {:.3?} wall",
            self.plan_nodes,
            self.slots,
            self.dfas,
            self.guarded_blocks,
            self.frames_explored,
            self.guard_hits,
            self.dfa_checks,
            self.wall
        )
    }
}
