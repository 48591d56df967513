//! Solver-backed optimal play ("table" strategy).
//!
//! A [`TableStrategy`] replays the exact solver's winning responses. Given
//! a solver-established fact `w ≡_k v`, the table strategy *is* a winning
//! strategy for the k-round game — this is how abstract equivalence facts
//! (e.g. Lemma 3.6's `aᵖ ≡_k a^q`) become the playable look-up games that
//! the Pseudo-Congruence and Primitive Power compositions consume.
//!
//! All clones of a table strategy share one memo table (via `Arc<Mutex>`,
//! so clones may be handed to worker threads), and exhaustive validation
//! does not re-solve subgames.

use crate::arena::{GamePair, Side};
use crate::partial_iso::Pair;
use crate::solver::EfSolver;
use crate::strategy::DuplicatorStrategy;
use fc_logic::FactorId;
use std::sync::{Arc, Mutex};

/// Optimal Duplicator play for a fixed game and round budget.
#[derive(Clone)]
pub struct TableStrategy {
    solver: Arc<Mutex<EfSolver>>,
    pairs: Vec<Pair>,
    remaining: u32,
}

impl TableStrategy {
    /// A table strategy for the `rounds`-round game on `game`.
    ///
    /// If `w ≢_rounds v` the strategy still plays (best effort) but will
    /// lose some line — callers should have established equivalence first
    /// (e.g. via [`TableStrategy::for_equivalent`]).
    pub fn new(game: GamePair, rounds: u32) -> TableStrategy {
        let mut pairs = game.constant_pairs.clone();
        pairs.sort_unstable();
        pairs.dedup();
        TableStrategy {
            solver: Arc::new(Mutex::new(EfSolver::new(game))),
            pairs,
            remaining: rounds,
        }
    }

    /// Builds the strategy only if the solver confirms `w ≡_rounds v`.
    pub fn for_equivalent(game: GamePair, rounds: u32) -> Option<TableStrategy> {
        let s = TableStrategy::new(game, rounds);
        if s.solver.lock().unwrap().equivalent(rounds) {
            Some(s)
        } else {
            None
        }
    }

    /// Rounds still available.
    pub fn remaining(&self) -> u32 {
        self.remaining
    }

    /// The game this strategy plays on.
    pub fn game(&self) -> GamePair {
        self.solver.lock().unwrap().game().clone()
    }
}

impl DuplicatorStrategy for TableStrategy {
    fn respond(&mut self, _game: &GamePair, side: Side, element: FactorId) -> FactorId {
        let budget = self.remaining.max(1);
        let mut solver = self.solver.lock().unwrap();
        let response = solver
            .best_response_from(&self.pairs, side, element, budget)
            // Losing position: salvage any consistent response.
            .or_else(|| solver.salvage_response(&self.pairs, side, element))
            .unwrap_or(FactorId::BOTTOM);
        let pair = solver.game().as_ab_pair(side, element, response);
        if !self.pairs.contains(&pair) {
            self.pairs.push(pair);
            self.pairs.sort_unstable();
        }
        self.remaining = self.remaining.saturating_sub(1);
        response
    }

    fn skip_round(&mut self) {
        self.remaining = self.remaining.saturating_sub(1);
    }

    fn boxed_clone(&self) -> Box<dyn DuplicatorStrategy> {
        Box::new(self.clone())
    }

    fn name(&self) -> String {
        format!("table({} rounds left)", self.remaining)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::validate_strategy;

    #[test]
    fn replays_solver_equivalences() {
        // a^3 ≡_1 a^4 (see solver tests): the table strategy must win all
        // 1-round lines.
        let game = GamePair::of("aaa", "aaaa");
        let s = TableStrategy::for_equivalent(game.clone(), 1).expect("a^3 ≡_1 a^4");
        assert!(validate_strategy(&game, &s, 1).is_none());
    }

    #[test]
    fn refuses_inequivalent_games() {
        let game = GamePair::of("a", "aa");
        assert!(TableStrategy::for_equivalent(game, 1).is_none());
    }

    #[test]
    fn wins_multi_round_games_on_equal_words() {
        let game = GamePair::of("aba", "aba");
        let s = TableStrategy::for_equivalent(game.clone(), 2).expect("w ≡_2 w");
        assert!(validate_strategy(&game, &s, 2).is_none());
    }

    #[test]
    fn wins_nontrivial_unary_equivalence() {
        // The minimal rank-2 unary pair is a^12 ≡_2 a^14 (experiment E03);
        // the table strategy must replay it.
        let (p, q) = (12usize, 14usize);
        let game = GamePair::of(&"a".repeat(p), &"a".repeat(q));
        let s = TableStrategy::for_equivalent(game.clone(), 2).expect("a^12 ≡_2 a^14");
        assert!(validate_strategy(&game, &s, 2).is_none(), "p={p} q={q}");
    }
}
