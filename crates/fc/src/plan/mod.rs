//! The compiled evaluation pipeline: lower a [`Formula`] **once** into an
//! executable [`Plan`], then run the plan against any number of factor
//! structures.
//!
//! The tree-walking interpreter this replaces ([`crate::eval::holds_naive`]
//! remains as the definitional reference) re-did three kinds of work on
//! every `holds()` call:
//!
//! 1. **regular-constraint compilation** — every call rebuilt one DFA per
//!    `Rc`-pointer-distinct regex (so structurally identical constraints in
//!    cloned formulas compiled separate DFAs, and a dropped/reallocated
//!    `Rc` could alias a stale cache key);
//! 2. **guard discovery** — the `∃v⃗: (x ≐ t₁⋯t_m) ∧ ψ` blocks that make
//!    φ_fib tractable were re-discovered *at every quantifier node visit*,
//!    allocating name sets each time;
//! 3. **environment bookkeeping** — assignments lived in a
//!    `BTreeMap<VarName, FactorId>` with clone/insert/remove churn per
//!    quantifier iteration.
//!
//! [`Plan::compile`] hoists all three to compile time: regular constraints
//! are deduplicated **structurally** (by regex value, not pointer) and
//! compiled to minimal DFAs exactly once per formula; quantifier blocks are
//! resolved to guard-directed nodes ([`PNode::GuardedExists`] /
//! [`PNode::GuardedForall`]) during lowering; and every variable binder
//! gets a dense **slot** in a flat `Vec<FactorId>` frame, so variable
//! resolution is an array index. Because each binder owns a distinct slot,
//! shadowed names cost nothing and no save/restore is needed. The
//! φ_w ("x is the whole word") idiom is recognised there too and runs in
//! O(1) ([`PNode::WholeWord`], or a guard pinning its variable to `w`).
//!
//! A `Plan` holds no `Rc` and is `Send + Sync`, which is what lets
//! [`crate::language`]'s windowed checks fan words out over
//! `std::thread::scope` workers sharing one plan (mirroring the EF
//! solver's `equivalent_par`).
//!
//! See `docs/EVAL.md` for the pipeline walk-through and the soundness
//! argument for guard-directed enumeration.

mod cache;
mod exec;
mod lower;
mod stats;

pub use cache::{structural_key, PlanCache, PlanCacheStats};
pub use stats::EvalStats;

use crate::eval::Assignment;
use crate::formula::Formula;
use crate::structure::{FactorId, FactorStructure};
use fc_reglang::Dfa;
use std::time::Instant;

/// A term lowered to slot form: variables are frame indices, constants are
/// raw bytes resolved against the structure at run time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum PTerm {
    /// A variable, by frame slot.
    Slot(u32),
    /// A letter constant `a ∈ Σ` (interpreted per structure; may be ⊥).
    Sym(u8),
    /// The empty-word constant ε.
    Epsilon,
    /// The whole input word `w` (the solution of a φ_w guard).
    Whole,
}

/// A compiled plan node. Mirrors [`Formula`] except that quantifier blocks
/// with a covering word-equation guard are pre-resolved into the
/// `Guarded*` forms.
#[derive(Clone, Debug)]
pub(crate) enum PNode {
    /// `lhs ≐ r₁·r₂`.
    Eq(PTerm, PTerm, PTerm),
    /// Wide equation `lhs ≐ t₁⋯t_m`.
    EqChain(PTerm, Vec<PTerm>),
    /// Regular constraint; the index points into [`Plan::dfas`].
    In(PTerm, u32),
    /// φ_w(x), "x is the whole word" (Example 2.3), recognised at lowering:
    /// true iff x is ⊥ or x = w.
    WholeWord(PTerm),
    Not(Box<PNode>),
    And(Vec<PNode>),
    Or(Vec<PNode>),
    /// Plain (unguarded) existential over one slot.
    Exists(u32, Box<PNode>),
    /// Plain (unguarded) universal over one slot.
    Forall(u32, Box<PNode>),
    /// `∃ slots: (lhs ≐ parts) ∧ rest₁ ∧ … ∧ rest_n`, with the guard chain
    /// covering every block slot: evaluated by enumerating the guard's
    /// solutions instead of the `|U|^{|slots|}` grid.
    GuardedExists {
        slots: Vec<u32>,
        lhs: PTerm,
        parts: Vec<PTerm>,
        rest: Vec<PNode>,
    },
    /// `∀ slots: ¬(lhs ≐ parts) ∨ rest₁ ∨ … ∨ rest_n` — the dual form:
    /// only the guard's solutions can falsify the disjunction.
    GuardedForall {
        slots: Vec<u32>,
        lhs: PTerm,
        parts: Vec<PTerm>,
        rest: Vec<PNode>,
    },
}

/// A formula compiled for repeated execution.
///
/// Compile once with [`Plan::compile`], then call [`Plan::eval`] (or
/// [`Plan::eval_with_stats`] / [`Plan::satisfying_assignments`]) per word.
/// The plan is structure-independent: DFAs are built over each regex's own
/// alphabet (a word containing a symbol foreign to the regex is rejected
/// by the complete DFA's sink exactly as it is by the definition), so one
/// plan serves a whole `Σ^{≤n}` window.
#[derive(Clone, Debug)]
pub struct Plan {
    pub(crate) root: PNode,
    /// Slot index → variable name. Free slots come first, in sorted name
    /// order; binder slots follow in lowering order. Owned `String`s keep
    /// the plan `Send + Sync` (`VarName` is an `Rc<str>`).
    pub(crate) slot_names: Vec<String>,
    /// The free variables and their slots, in sorted name order.
    pub(crate) free: Vec<(String, u32)>,
    /// Structurally deduplicated DFAs for the regular constraints.
    pub(crate) dfas: Vec<Dfa>,
    /// Total node count (for stats).
    pub(crate) nodes: usize,
    /// Number of quantifier blocks resolved to guard-directed form.
    pub(crate) guarded_blocks: usize,
    /// Number of φ_w idioms lowered to a [`PNode::WholeWord`] leaf or a
    /// whole-word binding guard; zero means no run resolves `w`'s id.
    pub(crate) whole_word_guards: usize,
}

impl Plan {
    /// Lowers a formula into an executable plan. This is the only place
    /// regular constraints are compiled and guard structure is analyzed.
    pub fn compile(formula: &Formula) -> Plan {
        lower::lower(formula)
    }

    /// Number of nodes in the plan.
    pub fn node_count(&self) -> usize {
        self.nodes
    }

    /// Number of frame slots (free + bound variables).
    pub fn slot_count(&self) -> usize {
        self.slot_names.len()
    }

    /// Number of distinct DFAs compiled for the plan.
    pub fn dfa_count(&self) -> usize {
        self.dfas.len()
    }

    /// Number of quantifier blocks resolved to guard-directed enumeration.
    pub fn guarded_block_count(&self) -> usize {
        self.guarded_blocks
    }

    /// Number of φ_w ("x is the whole word") idioms evaluated in O(1)
    /// instead of by enumeration: leaves plus whole-word binding guards.
    pub fn whole_word_guard_count(&self) -> usize {
        self.whole_word_guards
    }

    /// The free variables of the compiled formula, in sorted order.
    pub fn free_vars(&self) -> impl Iterator<Item = &str> {
        self.free.iter().map(|(name, _)| name.as_str())
    }

    /// Seeds the plan-shape fields of an [`EvalStats`].
    pub fn seed_stats(&self, stats: &mut EvalStats) {
        stats.plan_nodes = self.nodes;
        stats.slots = self.slot_names.len();
        stats.dfas = self.dfas.len();
        stats.guarded_blocks = self.guarded_blocks;
    }

    /// Builds the initial frame from an assignment of the free variables.
    ///
    /// # Panics
    /// Panics when a free variable is missing from `sigma` (the formula is
    /// not a sentence and the assignment does not close it).
    fn frame_from(&self, sigma: &Assignment) -> Vec<FactorId> {
        let mut frame = vec![FactorId::BOTTOM; self.slot_names.len()];
        for (name, slot) in &self.free {
            let id = sigma
                .get(name.as_str())
                .unwrap_or_else(|| panic!("unbound variable {name} — not a sentence?"));
            frame[*slot as usize] = *id;
        }
        frame
    }

    /// The id of `w` itself for the whole-word nodes, or ⊥ when the plan
    /// has none (so idiom-free plans never pay the lookup).
    fn whole_word_id(&self, structure: &FactorStructure) -> FactorId {
        if self.whole_word_guards > 0 {
            structure.full_word_id()
        } else {
            FactorId::BOTTOM
        }
    }

    /// `(𝔄_w, σ) ⊨ φ` via the compiled plan. Free variables must all be
    /// bound in `sigma`; extra bindings are ignored.
    pub fn eval(&self, structure: &FactorStructure, sigma: &Assignment) -> bool {
        let mut stats = EvalStats::default();
        let frame = self.frame_from(sigma);
        let whole = self.whole_word_id(structure);
        exec::Exec::new(self, structure, whole, &mut stats).run(frame)
    }

    /// [`Plan::eval`] with instrumentation: plan-shape fields are set and
    /// run counters are *accumulated* into `stats`, so one struct can
    /// total a whole window sweep.
    pub fn eval_with_stats(
        &self,
        structure: &FactorStructure,
        sigma: &Assignment,
        stats: &mut EvalStats,
    ) -> bool {
        self.seed_stats(stats);
        let t0 = Instant::now();
        let frame = self.frame_from(sigma);
        let whole = self.whole_word_id(structure);
        let verdict = exec::Exec::new(self, structure, whole, stats).run(frame);
        stats.wall += t0.elapsed();
        verdict
    }

    /// ⟦φ⟧(w): all assignments of the free variables satisfying the
    /// compiled formula, in lexicographic order of the assignment (free
    /// variables are enumerated in sorted name order, ids ascending).
    pub fn satisfying_assignments(&self, structure: &FactorStructure) -> Vec<Assignment> {
        let mut stats = EvalStats::default();
        self.satisfying_assignments_with_stats(structure, &mut stats)
    }

    /// [`Plan::satisfying_assignments`] with instrumentation, in the same
    /// accumulate-into-`stats` style as [`Plan::eval_with_stats`].
    pub fn satisfying_assignments_with_stats(
        &self,
        structure: &FactorStructure,
        stats: &mut EvalStats,
    ) -> Vec<Assignment> {
        self.seed_stats(stats);
        let t0 = Instant::now();
        let mut out = Vec::new();
        let mut frame = vec![FactorId::BOTTOM; self.slot_names.len()];
        let whole = self.whole_word_id(structure);
        self.enumerate_free(structure, whole, 0, &mut frame, stats, &mut out);
        stats.wall += t0.elapsed();
        out
    }

    fn enumerate_free(
        &self,
        structure: &FactorStructure,
        whole: FactorId,
        i: usize,
        frame: &mut Vec<FactorId>,
        stats: &mut EvalStats,
        out: &mut Vec<Assignment>,
    ) {
        if i == self.free.len() {
            if exec::Exec::new(self, structure, whole, stats).run(frame.clone()) {
                let mut sigma = Assignment::new();
                for (name, slot) in &self.free {
                    sigma.insert(std::rc::Rc::from(name.as_str()), frame[*slot as usize]);
                }
                out.push(sigma);
            }
            return;
        }
        let slot = self.free[i].1 as usize;
        for u in structure.universe() {
            frame[slot] = u;
            self.enumerate_free(structure, whole, i + 1, frame, stats, out);
        }
        frame[slot] = FactorId::BOTTOM;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::formula::Term;
    use crate::library;
    use fc_reglang::Regex;
    use fc_words::Alphabet;

    fn v(name: &str) -> Term {
        Term::var(name)
    }

    #[test]
    fn plan_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Plan>();
        assert_send_sync::<EvalStats>();
    }

    #[test]
    fn structurally_equal_regexes_share_one_dfa() {
        // Two independently parsed copies of the same pattern: the old
        // interpreter keyed by `Rc::as_ptr` and compiled two DFAs.
        let phi = Formula::exists(
            &["x", "y"],
            Formula::and([
                Formula::constraint(v("x"), Regex::parse("(ab)*").unwrap()),
                Formula::constraint(v("y"), Regex::parse("(ab)*").unwrap()),
                Formula::constraint(v("y"), Regex::parse("a*").unwrap()),
            ]),
        );
        let plan = Plan::compile(&phi);
        assert_eq!(plan.dfa_count(), 2, "(ab)* deduped, a* separate");
    }

    #[test]
    fn cloned_formulas_compile_identically() {
        let phi = library::phi_input_is_power_of(b"ab");
        let clone = phi.clone();
        assert_eq!(
            Plan::compile(&phi).dfa_count(),
            Plan::compile(&clone).dfa_count()
        );
    }

    #[test]
    fn guard_blocks_are_resolved_at_compile_time() {
        // φ_fib's ∀x,y1,y2,y3 block and φ_struc's ∃ blocks are all guarded.
        let plan = Plan::compile(&library::phi_fib());
        assert!(
            plan.guarded_block_count() >= 2,
            "expected ≥ 2 guarded blocks, got {}",
            plan.guarded_block_count()
        );
    }

    #[test]
    fn stats_are_populated() {
        let phi = library::phi_square();
        let plan = Plan::compile(&phi);
        let s = FactorStructure::of_str("abab", &Alphabet::ab());
        let mut stats = EvalStats::default();
        assert!(plan.eval_with_stats(&s, &Assignment::new(), &mut stats));
        assert_eq!(stats.plan_nodes, plan.node_count());
        assert!(stats.frames_explored + stats.guard_hits > 0);
        let rendered = stats.render();
        assert!(rendered.contains("nodes"), "{rendered}");
    }

    #[test]
    fn one_plan_serves_a_whole_window() {
        let phi = library::phi_square();
        let plan = Plan::compile(&phi);
        let sigma = Alphabet::ab();
        for w in sigma.words_up_to(5) {
            let s = FactorStructure::new(w.clone(), &sigma);
            assert_eq!(
                plan.eval(&s, &Assignment::new()),
                crate::eval::holds_naive(&phi, &s, &Assignment::new()),
                "w={w}"
            );
        }
    }

    #[test]
    fn foreign_symbols_reject_like_the_definition() {
        // The plan compiles (ab)*'s DFA over {a,b} only; a word containing
        // c must still be rejected, as the definition demands.
        let phi = Formula::exists(
            &["x"],
            Formula::and([
                Formula::constraint(v("x"), Regex::parse("(ab)*").unwrap()),
                library::phi_whole_word("x"),
            ]),
        );
        let plan = Plan::compile(&phi);
        let sigma = Alphabet::abc();
        for (w, want) in [("abab", true), ("abcab", false), ("c", false), ("", true)] {
            let s = FactorStructure::of_str(w, &sigma);
            assert_eq!(plan.eval(&s, &Assignment::new()), want, "w={w}");
        }
    }
}
