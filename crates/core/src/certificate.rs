//! Distinguishing-formula synthesis: turning Spoiler wins into FC
//! certificates.
//!
//! Theorem 3.5's proof is constructive in the textbook treatment: if
//! Spoiler wins the k-round game on (𝔄_w, 𝔅_v), there is an FC sentence
//! of quantifier rank ≤ k true in 𝔄_w and false in 𝔅_v. This module
//! implements that construction on top of the exact solver — from a
//! Spoiler winning strategy it synthesizes an actual [`Formula`], which
//! the model checker then verifies on both words. The formula is an
//! independently checkable *certificate* of `w ≢_k v`.
//!
//! Construction (standard back-and-forth): at a losing-for-Duplicator
//! state, either the current tuples already violate the partial
//! isomorphism — then some atom `(t_l ≐ t_i·t_j)` over the chosen terms
//! and constants separates the structures — or Spoiler has a move such
//! that *every* response loses one round earlier; picking in 𝔄 yields
//! `∃x: ⋀_b ψ_b` (one recursive certificate per Duplicator response),
//! picking in 𝔅 yields the dual `¬∃x: ⋀_a ψ_a` with the roles swapped.
//!
//! Spoiler's moves come from `EfSolver::spoiler_move` on the caller's
//! solver. A role swap only changes which side the hunt tries first and
//! which side the atoms read as true; positions keep the game's own
//! (𝔄, 𝔅) orientation, so one solver and one memo serve both roles.

use crate::arena::{GamePair, Side};
use crate::partial_iso::Pair;
use crate::solver::EfSolver;
use fc_logic::{FactorId, Formula, Term};

/// Synthesizes a rank-≤ k sentence with `𝔄_w ⊨ φ` and `𝔅_v ⊭ φ` for the
/// game of `solver`, or `None` if `w ≡_k v`. Every strategy query goes to
/// `solver`, so a solver that has already decided the game answers from
/// its memo.
pub fn distinguishing_sentence(solver: &mut EfSolver, k: u32) -> Option<Formula> {
    if solver.equivalent(k) {
        return None;
    }
    // Terms for the seeded constant pairs: the constants themselves.
    let game = solver.game();
    let syms = game.a.alphabet().symbols();
    let terms: Vec<Term> = (0..game.constant_pairs.len())
        .map(|i| syms.get(i).map_or(Term::Epsilon, |&s| Term::Sym(s)))
        .collect();
    let state = game.constant_pairs.clone();
    let mut ctx = CertCtx { solver, fresh: 0 };
    Some(ctx.distinguish(&state, &terms, k, Side::A))
}

struct CertCtx<'s> {
    solver: &'s mut EfSolver,
    fresh: usize,
}

impl CertCtx<'_> {
    /// Builds a formula over the given terms that is true in the structure
    /// on side `truth` and false in the other one. `state` always keeps
    /// the game's own (𝔄, 𝔅) orientation.
    fn distinguish(&mut self, state: &[Pair], terms: &[Term], k: u32, truth: Side) -> Formula {
        // 1. Current-state violation: find a separating atom.
        if let Some(atom) = separating_atom(self.solver.game(), state, terms, truth) {
            return atom;
        }
        debug_assert!(k > 0, "Spoiler must win within the budget");
        if k == 0 {
            return Formula::top(); // defensive; unreachable for real wins
        }
        // 2. Spoiler's winning move, truth side first. On the truth side
        //    it yields `∃x: ⋀_b ψ_b`, one conjunct per Duplicator response
        //    `b`; on the other side the dual `¬∃x: ⋀_a ψ_a`, whose
        //    conjuncts are true where Spoiler's element lives. FC witnesses
        //    range over factors, so the ⊥ response needs no conjunct.
        let (side, element) = self
            .solver
            .spoiler_move(state, k, truth)
            .expect("Spoiler has a winning move in every losing state");
        self.fresh += 1;
        let var_name = format!("__c{}", self.fresh);
        let mut new_terms = terms.to_vec();
        new_terms.push(Term::var(&var_name));
        let mut conjuncts: Vec<Formula> = Vec::new();
        let mut seen = std::collections::HashSet::new();
        for response in self.solver.game().structure(side.other()).universe() {
            let mut next = state.to_vec();
            next.push(self.solver.game().as_ab_pair(side, element, response));
            let psi = self.distinguish(&next, &new_terms, k - 1, side);
            if seen.insert(format!("{psi}")) {
                conjuncts.push(psi);
            }
        }
        let exists = Formula::Exists(
            std::rc::Rc::from(var_name.as_str()),
            Box::new(Formula::and(conjuncts)),
        );
        if side == truth {
            exists
        } else {
            Formula::not(exists)
        }
    }
}

/// Finds an atom over `terms` (R∘ triples, including the equality-with-ε
/// and constant facts) that holds in the `truth`-side tuple but not the
/// other tuple, or is false on the `truth` side and true on the other
/// (returned negated).
fn separating_atom(
    game: &GamePair,
    state: &[Pair],
    terms: &[Term],
    truth: Side,
) -> Option<Formula> {
    let n = state.len();
    debug_assert_eq!(n, terms.len());
    let (st, sf) = (game.structure(truth), game.structure(truth.other()));
    let elem = |i: usize| -> (FactorId, FactorId) {
        let (x, y) = state[i];
        match truth {
            Side::A => (x, y),
            Side::B => (y, x),
        }
    };
    for l in 0..n {
        for i in 0..n {
            for j in 0..n {
                let (lt, lf) = elem(l);
                let (it, iff) = elem(i);
                let (jt, jf) = elem(j);
                let holds_truth = st.concat_holds(lt, it, jt);
                let holds_false = sf.concat_holds(lf, iff, jf);
                if holds_truth != holds_false {
                    let atom =
                        Formula::eq_cat(terms[l].clone(), terms[i].clone(), terms[j].clone());
                    return Some(if holds_truth {
                        atom
                    } else {
                        Formula::not(atom)
                    });
                }
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use fc_logic::eval::{holds, Assignment};
    use fc_logic::FactorStructure;
    use fc_words::Alphabet;

    fn verify_certificate(w: &str, v: &str, k: u32) {
        let phi = distinguishing_sentence(&mut EfSolver::of(w, v), k)
            .unwrap_or_else(|| panic!("{w} and {v} should be ≢_{k}"));
        assert!(phi.qr() <= k as usize, "qr({phi}) = {} > {k}", phi.qr());
        let sigma = Alphabet::ab()
            .extended_by(&fc_words::Word::from(w))
            .extended_by(&fc_words::Word::from(v));
        let sw = FactorStructure::of_str(w, &sigma);
        let sv = FactorStructure::of_str(v, &sigma);
        assert!(
            holds(&phi, &sw, &Assignment::new()),
            "certificate not true on {w}: {phi}"
        );
        assert!(
            !holds(&phi, &sv, &Assignment::new()),
            "certificate not false on {v}: {phi}"
        );
    }

    #[test]
    fn certifies_unary_inequivalences() {
        verify_certificate("a", "aa", 1);
        verify_certificate("aa", "aaa", 1);
        verify_certificate("aaaa", "aaa", 2);
    }

    #[test]
    fn certifies_binary_inequivalences() {
        verify_certificate("ab", "ba", 1);
        verify_certificate("aab", "aba", 2);
        verify_certificate("abab", "abba", 2);
    }

    #[test]
    fn certifies_mismatched_alphabet_at_rank_zero_or_one() {
        // "ab" vs "aa": the letter b is missing on one side.
        verify_certificate("ab", "aa", 1);
    }

    #[test]
    fn returns_none_on_equivalent_pairs() {
        assert!(distinguishing_sentence(&mut EfSolver::of("aaa", "aaaa"), 1).is_none());
        assert!(distinguishing_sentence(&mut EfSolver::of("ab", "ab"), 2).is_none());
        assert!(
            distinguishing_sentence(&mut EfSolver::of(&"a".repeat(12), &"a".repeat(14)), 2)
                .is_none()
        );
    }

    #[test]
    fn certificate_for_example_3_3() {
        // a^4 vs a^3 at rank 2 — the paper's opening example, certified by
        // an actual sentence.
        let phi = distinguishing_sentence(&mut EfSolver::of("aaaa", "aaa"), 2).unwrap();
        assert!(phi.qr() <= 2);
        verify_certificate("aaaa", "aaa", 2);
        // And the certificate transfers: it distinguishes other pairs of
        // the same shape iff the structures realise the same facts (spot
        // check: it must be a sentence).
        assert!(phi.is_sentence());
    }
}
