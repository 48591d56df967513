//! The plan executor: a frame-based recursive evaluator.
//!
//! The frame is a flat `Vec<FactorId>` indexed by slot. Every binder owns
//! a distinct slot and a slot is only ever read inside its binder's scope,
//! after the binder wrote it — so quantifier loops just overwrite their
//! slot with no save/restore (the interpreter cloned and patched a
//! `BTreeMap` per iteration).
//!
//! Guarded blocks enumerate the solutions of their word-equation guard —
//! splits of the left-hand side's bytes across the parts — exactly like
//! the interpreter's `chain_solutions`, but over slot positions instead
//! of variable names. The soundness argument is unchanged (see
//! `docs/EVAL.md`): every assignment of the block slots satisfying the
//! guard corresponds to a split of the guard's left-hand side, and
//! assignments violating the guard cannot satisfy the ∃-conjunction
//! (dually: cannot falsify the ∀-disjunction).
//!
//! The whole-word id that φ_w's leaf and binding guards compare against
//! is resolved by the caller once per run and passed in; plans without
//! the idiom get ⊥ and never look it up.

use super::stats::EvalStats;
use super::{PNode, PTerm, Plan};
use crate::structure::{FactorId, FactorStructure};
use std::collections::HashSet;

pub(crate) struct Exec<'a> {
    plan: &'a Plan,
    s: &'a FactorStructure,
    /// The id of `w` itself (⊥ when the plan has no whole-word node).
    whole: FactorId,
    stats: &'a mut EvalStats,
}

impl<'a> Exec<'a> {
    pub(crate) fn new(
        plan: &'a Plan,
        s: &'a FactorStructure,
        whole: FactorId,
        stats: &'a mut EvalStats,
    ) -> Exec<'a> {
        Exec {
            plan,
            s,
            whole,
            stats,
        }
    }

    pub(crate) fn run(mut self, mut frame: Vec<FactorId>) -> bool {
        let plan = self.plan;
        self.eval(&plan.root, &mut frame)
    }

    fn resolve(&self, t: PTerm, frame: &[FactorId]) -> FactorId {
        match t {
            PTerm::Slot(s) => frame[s as usize],
            PTerm::Sym(c) => self.s.constant(c),
            PTerm::Epsilon => self.s.epsilon(),
            PTerm::Whole => self.whole,
        }
    }

    fn eval(&mut self, node: &PNode, frame: &mut Vec<FactorId>) -> bool {
        match node {
            PNode::Eq(x, y, z) => {
                let (a, b, c) = (
                    self.resolve(*x, frame),
                    self.resolve(*y, frame),
                    self.resolve(*z, frame),
                );
                self.s.concat_holds(a, b, c)
            }
            PNode::EqChain(x, parts) => {
                let st = self.s;
                let lhs = self.resolve(*x, frame);
                if lhs.is_bottom() {
                    return false;
                }
                let target = st.bytes_of(lhs);
                let mut pos = 0usize;
                for p in parts {
                    let id = self.resolve(*p, frame);
                    if id.is_bottom() {
                        return false;
                    }
                    let chunk = st.bytes_of(id);
                    if pos + chunk.len() > target.len() || &target[pos..pos + chunk.len()] != chunk
                    {
                        return false;
                    }
                    pos += chunk.len();
                }
                pos == target.len()
            }
            PNode::In(x, dfa_idx) => {
                let id = self.resolve(*x, frame);
                if id.is_bottom() {
                    return false;
                }
                self.stats.dfa_checks += 1;
                self.plan.dfas[*dfa_idx as usize].accepts(self.s.bytes_of(id))
            }
            PNode::WholeWord(x) => {
                let id = self.resolve(*x, frame);
                id.is_bottom() || id == self.whole
            }
            PNode::Not(inner) => !self.eval(inner, frame),
            PNode::And(items) => items.iter().all(|g| self.eval(g, frame)),
            PNode::Or(items) => items.iter().any(|g| self.eval(g, frame)),
            PNode::Exists(slot, body) => {
                let st = self.s;
                for u in st.universe() {
                    self.stats.frames_explored += 1;
                    frame[*slot as usize] = u;
                    if self.eval(body, frame) {
                        return true;
                    }
                }
                false
            }
            PNode::Forall(slot, body) => {
                let st = self.s;
                for u in st.universe() {
                    self.stats.frames_explored += 1;
                    frame[*slot as usize] = u;
                    if !self.eval(body, frame) {
                        return false;
                    }
                }
                true
            }
            PNode::GuardedExists {
                slots,
                lhs,
                parts,
                rest,
            } => {
                let sols = self.chain_solutions(*lhs, parts, slots, frame);
                for sol in &sols {
                    self.stats.guard_hits += 1;
                    for (&slot, &id) in slots.iter().zip(sol.iter()) {
                        frame[slot as usize] = id;
                    }
                    if rest.iter().all(|g| self.eval(g, frame)) {
                        return true;
                    }
                }
                false
            }
            PNode::GuardedForall {
                slots,
                lhs,
                parts,
                rest,
            } => {
                let sols = self.chain_solutions(*lhs, parts, slots, frame);
                for sol in &sols {
                    self.stats.guard_hits += 1;
                    for (&slot, &id) in slots.iter().zip(sol.iter()) {
                        frame[slot as usize] = id;
                    }
                    if !rest.iter().any(|g| self.eval(g, frame)) {
                        return false;
                    }
                }
                true
            }
        }
    }

    /// All assignments of the block `slots` (as id tuples, in slot order)
    /// solving `lhs ≐ parts₁⋯parts_m`, given the outer `frame`.
    fn chain_solutions(
        &self,
        lhs: PTerm,
        parts: &[PTerm],
        slots: &[u32],
        frame: &[FactorId],
    ) -> Vec<Vec<FactorId>> {
        let s = self.s;
        let block_pos = |t: PTerm| -> Option<usize> {
            match t {
                PTerm::Slot(sl) => slots.iter().position(|&x| x == sl),
                _ => None,
            }
        };
        let resolve = |t: PTerm| self.resolve(t, frame);
        let mut out: Vec<Vec<FactorId>> = Vec::new();

        // `lhs ≐ v` with `lhs` bound outside the block (the whole-word
        // guard's shape): the one solution is v := lhs, no split scan.
        if let ([part], [_], None) = (parts, slots, block_pos(lhs)) {
            if block_pos(*part).is_some() {
                let id = resolve(lhs);
                if !id.is_bottom() {
                    out.push(vec![id]);
                }
                return out;
            }
        }

        let mut seen: HashSet<Vec<FactorId>> = HashSet::new();
        let mut local: Vec<Option<FactorId>> = vec![None; slots.len()];

        let lhs_candidates: Vec<FactorId> = match block_pos(lhs) {
            Some(_) => s.universe().collect(),
            None => {
                let id = resolve(lhs);
                if id.is_bottom() {
                    return out;
                }
                vec![id]
            }
        };
        for lhs_id in lhs_candidates {
            if let Some(p) = block_pos(lhs) {
                local[p] = Some(lhs_id);
            }
            let target = s.bytes_of(lhs_id).to_vec();
            match_parts(
                s,
                &target,
                0,
                parts,
                &block_pos,
                &resolve,
                &mut local,
                &mut |local| {
                    // All block slots must be determined (the lowering's
                    // coverage check guarantees each occurs in the chain).
                    if let Some(sol) = local.iter().copied().collect::<Option<Vec<FactorId>>>() {
                        if seen.insert(sol.clone()) {
                            out.push(sol);
                        }
                    }
                },
            );
            if let Some(p) = block_pos(lhs) {
                local[p] = None;
            }
        }
        out
    }
}

#[allow(clippy::too_many_arguments)]
fn match_parts(
    s: &FactorStructure,
    target: &[u8],
    pos: usize,
    parts: &[PTerm],
    block_pos: &impl Fn(PTerm) -> Option<usize>,
    resolve: &impl Fn(PTerm) -> FactorId,
    local: &mut Vec<Option<FactorId>>,
    emit: &mut impl FnMut(&[Option<FactorId>]),
) {
    let Some((&first, rest)) = parts.split_first() else {
        if pos == target.len() {
            emit(local);
        }
        return;
    };
    match block_pos(first) {
        Some(slot) => match local[slot] {
            Some(id) => {
                let chunk = s.bytes_of(id);
                if pos + chunk.len() <= target.len() && &target[pos..pos + chunk.len()] == chunk {
                    match_parts(
                        s,
                        target,
                        pos + chunk.len(),
                        rest,
                        block_pos,
                        resolve,
                        local,
                        emit,
                    );
                }
            }
            None => {
                for len in 0..=target.len() - pos {
                    let chunk = &target[pos..pos + len];
                    // Any substring of a factor is a factor, so the id
                    // lookup always succeeds; guard anyway.
                    if let Some(id) = s.id_of(chunk) {
                        local[slot] = Some(id);
                        match_parts(s, target, pos + len, rest, block_pos, resolve, local, emit);
                        local[slot] = None;
                    }
                }
            }
        },
        None => {
            let id = resolve(first);
            if id.is_bottom() {
                return;
            }
            let chunk = s.bytes_of(id);
            if pos + chunk.len() <= target.len() && &target[pos..pos + chunk.len()] == chunk {
                match_parts(
                    s,
                    target,
                    pos + chunk.len(),
                    rest,
                    block_pos,
                    resolve,
                    local,
                    emit,
                );
            }
        }
    }
}
