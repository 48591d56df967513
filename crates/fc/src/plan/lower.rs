//! Lowering: `Formula` → `Plan`.
//!
//! Three things happen exactly once here instead of on every `holds()`:
//!
//! * **Slot assignment.** Free variables get the first slots (in sorted
//!   name order, so enumeration order matches the interpreter's
//!   `BTreeMap`), then every binder allocates a fresh slot. Name
//!   resolution is innermost-wins over a scope stack, so shadowing just
//!   produces distinct slots — the executor never saves or restores.
//! * **DFA compilation.** Regular constraints are deduplicated by
//!   *structural* regex identity (`HashMap<Rc<Regex>, _>` hashes through
//!   the `Rc`), replacing the interpreter's `Rc::as_ptr` keying that
//!   compiled one DFA per allocation and could alias a dropped pointer.
//!   Each DFA is built over its own regex's alphabet (already sorted and
//!   deduplicated by `Regex::symbols`), which keeps the plan
//!   structure-independent: symbols outside the regex's alphabet reject
//!   via the `next() → None` path just as a complete DFA over a larger
//!   alphabet would route them to a dead sink.
//! * **Guard extraction.** A maximal same-kind quantifier block
//!   `∃v₁…v_n: And(items)` (dually `∀v⃗: Or(items)`) is scanned for a
//!   word-equation item `lhs ≐ t₁⋯t_m` (dually `¬(lhs ≐ …)`) covering a
//!   *suffix* of the block's slots; the longest covered suffix becomes a
//!   guarded node and the uncovered prefix stays as plain quantifiers.
//!   Coverage is checked on slots, not names, so a shadowed binder
//!   (whose slot cannot occur in any term) simply falls out of the
//!   guarded suffix instead of disabling the optimization for the whole
//!   block as the interpreter did.
//! * **Whole-word idiom.** φ_w(x) = `¬∃z₁,z₂: (z₁ ≐ z₂·x ∨ z₁ ≐ x·z₂) ∧
//!   ¬(z₂ ≐ ε)` ("x is the whole word", Example 2.3) is matched
//!   structurally and lowered to a [`PNode::WholeWord`] leaf instead of a
//!   Facs(w)² enumeration: a proper factor extends by one letter on the
//!   left or the right, `w` does not, and ⊥ falsifies every atom. As an
//!   ∃-conjunct (dually a ∀-disjunct ¬φ_w(v)) on a block variable v it is
//!   a guard with the single solution v := w, so v is pinned first and
//!   the rest of the block is lowered with v already bound.

use super::{PNode, PTerm, Plan};
use crate::formula::{Formula, Term, VarName};
use fc_reglang::{Dfa, Regex};
use std::collections::HashMap;
use std::rc::Rc;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Quant {
    Exists,
    Forall,
}

pub(crate) fn lower(formula: &Formula) -> Plan {
    let mut lw = Lowerer::default();
    let mut free = Vec::new();
    for name in formula.free_vars() {
        let slot = lw.alloc(&name);
        free.push((name.to_string(), slot));
    }
    let root = lw.lower(formula);
    debug_assert_eq!(
        lw.scope.len(),
        free.len(),
        "scope must unwind to the free frame"
    );
    let nodes = count_nodes(&root);
    Plan {
        root,
        slot_names: lw.slot_names,
        free,
        dfas: lw.dfas,
        nodes,
        guarded_blocks: lw.guarded,
        whole_word_guards: lw.whole_word,
    }
}

fn count_nodes(n: &PNode) -> usize {
    1 + match n {
        PNode::Eq(..) | PNode::EqChain(..) | PNode::In(..) | PNode::WholeWord(..) => 0,
        PNode::Not(inner) => count_nodes(inner),
        PNode::And(items) | PNode::Or(items) => items.iter().map(count_nodes).sum(),
        PNode::Exists(_, inner) | PNode::Forall(_, inner) => count_nodes(inner),
        PNode::GuardedExists { rest, .. } | PNode::GuardedForall { rest, .. } => {
            rest.iter().map(count_nodes).sum()
        }
    }
}

#[derive(Default)]
struct Lowerer {
    /// Slot → variable name (owned, keeping the plan `Send + Sync`).
    slot_names: Vec<String>,
    /// Lexical scope stack; resolution searches from the top.
    scope: Vec<(VarName, u32)>,
    dfas: Vec<Dfa>,
    /// Structural regex → DFA index (the `Rc` map hashes the value).
    dfa_index: HashMap<Rc<Regex>, u32>,
    guarded: usize,
    /// φ_w idioms lowered to a leaf or a whole-word binding guard.
    whole_word: usize,
}

impl Lowerer {
    fn alloc(&mut self, name: &VarName) -> u32 {
        let slot = self.slot_names.len() as u32;
        self.slot_names.push(name.to_string());
        self.scope.push((name.clone(), slot));
        slot
    }

    fn term(&self, t: &Term) -> PTerm {
        match t {
            Term::Var(v) => {
                let slot = self
                    .scope
                    .iter()
                    .rev()
                    .find(|(name, _)| name == v)
                    .map(|&(_, s)| s)
                    .unwrap_or_else(|| unreachable!("variable {v} neither bound nor free"));
                PTerm::Slot(slot)
            }
            Term::Sym(c) => PTerm::Sym(*c),
            Term::Epsilon => PTerm::Epsilon,
        }
    }

    fn dfa_idx(&mut self, re: &Rc<Regex>) -> u32 {
        if let Some(&i) = self.dfa_index.get(re) {
            return i;
        }
        // `Regex::symbols()` is already sorted and deduplicated — the
        // interpreter's `alpha.extend(...)` duplicate push is gone.
        let dfa = Dfa::from_regex(re, &re.symbols());
        let i = self.dfas.len() as u32;
        self.dfas.push(dfa);
        self.dfa_index.insert(re.clone(), i);
        i
    }

    fn lower(&mut self, f: &Formula) -> PNode {
        match f {
            Formula::Eq(x, y, z) => PNode::Eq(self.term(x), self.term(y), self.term(z)),
            Formula::EqChain(x, parts) => {
                PNode::EqChain(self.term(x), parts.iter().map(|p| self.term(p)).collect())
            }
            Formula::In(x, re) => {
                let i = self.dfa_idx(re);
                PNode::In(self.term(x), i)
            }
            Formula::Not(inner) => match whole_word_block(inner) {
                Some(x) => self.whole_word_leaf(x),
                None => PNode::Not(Box::new(self.lower(inner))),
            },
            Formula::And(items) => PNode::And(items.iter().map(|g| self.lower(g)).collect()),
            Formula::Or(items) => PNode::Or(items.iter().map(|g| self.lower(g)).collect()),
            Formula::Exists(..) => match whole_word_block(f) {
                // ¬φ_w(x), e.g. a ∀-disjunct not on a block variable.
                Some(x) => PNode::Not(Box::new(self.whole_word_leaf(x))),
                None => self.lower_quant(Quant::Exists, f),
            },
            Formula::Forall(..) => self.lower_quant(Quant::Forall, f),
        }
    }

    fn whole_word_leaf(&mut self, x: &Term) -> PNode {
        self.whole_word += 1;
        PNode::WholeWord(self.term(x))
    }

    fn lower_quant(&mut self, kind: Quant, f: &Formula) -> PNode {
        // Collect the maximal block of same-kind quantifiers.
        let mut vars: Vec<VarName> = Vec::new();
        let mut body = f;
        loop {
            match (kind, body) {
                (Quant::Exists, Formula::Exists(v, inner)) => {
                    vars.push(v.clone());
                    body = inner;
                }
                (Quant::Forall, Formula::Forall(v, inner)) => {
                    vars.push(v.clone());
                    body = inner;
                }
                _ => break,
            }
        }
        let slots: Vec<u32> = vars.iter().map(|v| self.alloc(v)).collect();
        let node = self.lower_block(kind, &slots, body);
        self.scope.truncate(self.scope.len() - vars.len());
        node
    }

    /// Lowers a quantifier block over `slots` with the given body,
    /// resolving guard structure.
    fn lower_block(&mut self, kind: Quant, slots: &[u32], body: &Formula) -> PNode {
        // View the body as connective items + per-item guard candidates.
        // ∃: body is And(items), a guard item is a chain atom.
        // ∀: body is Or(items), a guard item is ¬(chain atom).
        // A bare guard atom counts as a singleton item list (the
        // interpreter required an explicit And/Or and missed these).
        match (kind, body) {
            (Quant::Exists, Formula::And(items)) | (Quant::Forall, Formula::Or(items)) => {
                let items: Vec<&Formula> = items.iter().collect();
                self.lower_items(kind, slots, &items)
            }
            _ => self.lower_items(kind, slots, &[body]),
        }
    }

    /// Lowers the block `Q slots: ⊙ items` (⊙ = ∧ for ∃, ∨ for ∀). First
    /// pins every block variable a φ_w item binds to `w`; then takes the
    /// longest suffix of the remaining slots covered by a word-equation
    /// guard; and falls back to plain nesting when there is none.
    fn lower_items(&mut self, kind: Quant, slots: &[u32], items: &[&Formula]) -> PNode {
        let pin = items.iter().enumerate().find_map(|(i, item)| {
            let x = whole_word_item(kind, item)?;
            match self.term(x) {
                PTerm::Slot(slot) if slots.contains(&slot) => Some((i, slot)),
                _ => None,
            }
        });
        if let Some((pin_idx, slot)) = pin {
            let inner_slots: Vec<u32> = slots.iter().copied().filter(|&s| s != slot).collect();
            let inner_items: Vec<&Formula> = items
                .iter()
                .enumerate()
                .filter(|&(i, _)| i != pin_idx)
                .map(|(_, item)| *item)
                .collect();
            let inner = self.lower_items(kind, &inner_slots, &inner_items);
            self.guarded += 1;
            self.whole_word += 1;
            return guarded(
                kind,
                vec![slot],
                PTerm::Whole,
                vec![PTerm::Slot(slot)],
                vec![inner],
            );
        }

        let chain_of = |item: &Formula| -> Option<(Term, Vec<Term>)> {
            let atom = match kind {
                Quant::Exists => item,
                Quant::Forall => match item {
                    Formula::Not(inner) => inner,
                    _ => return None,
                },
            };
            match atom {
                Formula::Eq(x, y, z) => Some((x.clone(), vec![y.clone(), z.clone()])),
                Formula::EqChain(x, parts) => Some((x.clone(), parts.clone())),
                _ => None,
            }
        };
        let lowered_chains: Vec<Option<(PTerm, Vec<PTerm>)>> = items
            .iter()
            .map(|item| {
                chain_of(item).map(|(lhs, parts)| {
                    (
                        self.term(&lhs),
                        parts.iter().map(|p| self.term(p)).collect(),
                    )
                })
            })
            .collect();

        // Longest covered suffix wins: try start = 0, 1, … and take the
        // first guard item whose slot set covers `slots[start..]`.
        for start in 0..slots.len() {
            let suffix = &slots[start..];
            let hit = lowered_chains.iter().enumerate().find_map(|(i, ch)| {
                ch.as_ref()
                    .filter(|(lhs, parts)| covers(lhs, parts, suffix))
                    .map(|ch| (i, ch.clone()))
            });
            let Some((guard_idx, (lhs, parts))) = hit else {
                continue;
            };
            let rest: Vec<PNode> = items
                .iter()
                .enumerate()
                .filter(|&(i, _)| i != guard_idx)
                .map(|(_, item)| self.lower(item))
                .collect();
            self.guarded += 1;
            let node = guarded(kind, suffix.to_vec(), lhs, parts, rest);
            return nest(kind, &slots[..start], node);
        }

        // No guard anywhere: plain nested enumeration.
        let node = match items {
            [item] => self.lower(item),
            _ => {
                let nodes = items.iter().map(|item| self.lower(item)).collect();
                match kind {
                    Quant::Exists => PNode::And(nodes),
                    Quant::Forall => PNode::Or(nodes),
                }
            }
        };
        nest(kind, slots, node)
    }
}

fn guarded(kind: Quant, slots: Vec<u32>, lhs: PTerm, parts: Vec<PTerm>, rest: Vec<PNode>) -> PNode {
    match kind {
        Quant::Exists => PNode::GuardedExists {
            slots,
            lhs,
            parts,
            rest,
        },
        Quant::Forall => PNode::GuardedForall {
            slots,
            lhs,
            parts,
            rest,
        },
    }
}

/// Wraps `node` in plain quantifiers over `slots`, outermost first.
fn nest(kind: Quant, slots: &[u32], mut node: PNode) -> PNode {
    for &slot in slots.iter().rev() {
        node = match kind {
            Quant::Exists => PNode::Exists(slot, Box::new(node)),
            Quant::Forall => PNode::Forall(slot, Box::new(node)),
        };
    }
    node
}

/// The x of a block item that is φ_w(x) (for ∃) or ¬φ_w(x) (for ∀), the
/// forms whose only satisfying (dually falsifying) x in Facs(w) is `w`.
fn whole_word_item(kind: Quant, item: &Formula) -> Option<&Term> {
    match (kind, item) {
        (Quant::Exists, Formula::Not(block)) => whole_word_block(block),
        (Quant::Forall, block) => whole_word_block(block),
        _ => None,
    }
}

/// Matches φ_w's inner block `∃z₁,z₂: (z₁ ≐ z₂·x ∨ z₁ ≐ x·z₂) ∧ ¬(z₂ ≐ ε)`
/// (binders in either order, `∨` branches and `∧` conjuncts in either
/// order; z₁ ≠ z₂ and x is neither) and returns x. This is exactly what
/// `library::phi_whole_word` builds and what `to_source` →
/// `parse_formula` gives back.
///
/// The block holds iff x is a factor other than `w`: a proper factor of
/// `w` extends by one letter on the left or the right (z₂ that letter),
/// `w` itself extends to nothing in Facs(w), and ⊥ falsifies every atom.
/// So φ_w(x) is true iff x is ⊥ or x = `w`.
fn whole_word_block<'f>(f: &'f Formula) -> Option<&'f Term> {
    let Formula::Exists(b1, inner) = f else {
        return None;
    };
    let Formula::Exists(b2, body) = inner.as_ref() else {
        return None;
    };
    let Formula::And(conjuncts) = body.as_ref() else {
        return None;
    };
    let [c1, c2] = conjuncts.as_slice() else {
        return None;
    };
    // ¬(z₂ ≐ ε) names z₂; z₁ is the other binder.
    let nonempty = |c: &'f Formula| match c {
        Formula::Not(atom) => match atom.as_ref() {
            Formula::Eq(Term::Var(z), Term::Epsilon, Term::Epsilon) => Some(z),
            _ => None,
        },
        _ => None,
    };
    let (z2, disjunction) = match (nonempty(c1), nonempty(c2)) {
        (Some(z), None) => (z, c2),
        (None, Some(z)) => (z, c1),
        _ => return None,
    };
    let z1 = if z2 == b2 && b1 != b2 {
        b1
    } else if z2 == b1 && b1 != b2 {
        b2
    } else {
        return None;
    };
    let Formula::Or(branches) = disjunction else {
        return None;
    };
    let [d1, d2] = branches.as_slice() else {
        return None;
    };
    // z₁ ≐ z₂·x and z₁ ≐ x·z₂, with the same x.
    let left = |d: &'f Formula| match d {
        Formula::Eq(Term::Var(a), Term::Var(b), x) if a == z1 && b == z2 => Some(x),
        _ => None,
    };
    let right = |d: &'f Formula| match d {
        Formula::Eq(Term::Var(a), x, Term::Var(b)) if a == z1 && b == z2 => Some(x),
        _ => None,
    };
    let x = [(d1, d2), (d2, d1)]
        .into_iter()
        .find_map(|(l, r)| left(l).zip(right(r)).filter(|(x, y)| x == y))
        .map(|(x, _)| x)?;
    match x {
        Term::Var(v) if v == z1 || v == z2 => None,
        _ => Some(x),
    }
}

/// `true` iff every slot in `block` occurs in the chain `lhs ≐ parts`.
/// Slot-based (not name-based): a shadowed binder's slot cannot occur in
/// any lowered term, so it is never reported as covered.
fn covers(lhs: &PTerm, parts: &[PTerm], block: &[u32]) -> bool {
    let occurs = |slot: u32| *lhs == PTerm::Slot(slot) || parts.contains(&PTerm::Slot(slot));
    block.iter().all(|&s| occurs(s))
}
