//! Game state for EF games over a fixed pair of factor structures.
//!
//! A [`GamePair`] owns the two structures 𝔄_w and 𝔅_v and the constant
//! vector seeding of §3 (the winning condition appends ⟨𝔄⟩, ⟨𝔅⟩ to the
//! chosen tuples, so the game *starts* from those pairs). Both the exact
//! solver and the strategy validator operate on a `GamePair`.
//!
//! The structures are shared via `Arc`, so a `GamePair` clone is two
//! pointer bumps — cheap enough to hand one to every worker thread of the
//! solver's parallel top-level search. Mirror translations (same factor
//! word on the other side) are precomputed in both directions at build
//! time, making [`GamePair::mirror`] an O(1) array lookup.

use crate::partial_iso::Pair;
use crate::partial_iso::{check_partial_iso, consistent_extension, consistent_extension_seeded};
use fc_logic::{FactorId, FactorStructure};
use fc_words::{Alphabet, Word};
use std::sync::Arc;

/// Which structure a move is played in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Side {
    /// The left structure 𝔄_w.
    A,
    /// The right structure 𝔅_v.
    B,
}

impl Side {
    /// The opposite side.
    pub fn other(self) -> Side {
        match self {
            Side::A => Side::B,
            Side::B => Side::A,
        }
    }
}

/// The fixed part of an EF game: the two structures and the seeded
/// constant pairs.
#[derive(Clone)]
pub struct GamePair {
    /// 𝔄_w.
    pub a: Arc<FactorStructure>,
    /// 𝔅_v.
    pub b: Arc<FactorStructure>,
    /// The constant pairs (⟨𝔄⟩ zipped with ⟨𝔅⟩).
    pub constant_pairs: Vec<Pair>,
    /// Per 𝔄-element: the 𝔅-id of the same factor word, or ⊥ if absent.
    mirror_ab: Vec<FactorId>,
    /// Per 𝔅-element: the 𝔄-id of the same factor word, or ⊥ if absent.
    mirror_ba: Vec<FactorId>,
}

impl GamePair {
    /// Builds the game over `w` and `v`, with Σ the union of their symbols
    /// and `sigma`.
    pub fn new(w: impl Into<Word>, v: impl Into<Word>, sigma: &Alphabet) -> GamePair {
        let w: Word = w.into();
        let v: Word = v.into();
        let sigma = sigma.extended_by(&w).extended_by(&v);
        let a = Arc::new(FactorStructure::new(w, &sigma));
        let b = Arc::new(FactorStructure::new(v, &sigma));
        let constant_pairs = a
            .constants_vector()
            .into_iter()
            .zip(b.constants_vector())
            .collect();
        GamePair::from_parts(a, b, constant_pairs)
    }

    /// Assembles a game from pre-built structures and seeding (the batch
    /// engine shares one structure per word); computes the mirror tables.
    pub fn from_parts(
        a: Arc<FactorStructure>,
        b: Arc<FactorStructure>,
        constant_pairs: Vec<Pair>,
    ) -> GamePair {
        let mirror_into = |from: &FactorStructure, to: &FactorStructure| -> Vec<FactorId> {
            from.universe()
                .map(|id| to.id_of(from.bytes_of(id)).unwrap_or(FactorId::BOTTOM))
                .collect()
        };
        let mirror_ab = mirror_into(&a, &b);
        let mirror_ba = mirror_into(&b, &a);
        GamePair {
            a,
            b,
            constant_pairs,
            mirror_ab,
            mirror_ba,
        }
    }

    /// Builds the game from two strings over their joint alphabet.
    pub fn of(w: &str, v: &str) -> GamePair {
        GamePair::new(Word::from(w), Word::from(v), &Alphabet::from_symbols(b""))
    }

    /// `true` iff the constant seeding itself is a partial isomorphism
    /// (it can fail when one word lacks a letter the other has).
    pub fn constants_consistent(&self) -> bool {
        check_partial_iso(&self.a, &self.b, &self.constant_pairs).is_ok()
    }

    /// Whether adding `new` to `pairs` (all assumed consistent and seeded
    /// with the constant pairs) stays a partial isomorphism.
    pub fn consistent(&self, pairs: &[Pair], new: Pair) -> bool {
        consistent_extension(&self.a, &self.b, pairs, new)
    }

    /// [`GamePair::consistent`] for a solver state: the constant seeding is
    /// implicit, `played` holds only the packed moves made so far.
    #[inline]
    pub fn consistent_seeded(&self, played: &[u64], new: Pair) -> bool {
        consistent_extension_seeded(&self.a, &self.b, &self.constant_pairs, played, new)
    }

    /// The structure on `side`.
    pub fn structure(&self, side: Side) -> &FactorStructure {
        match side {
            Side::A => &self.a,
            Side::B => &self.b,
        }
    }

    /// Translates an element of `side` into the same word on the other
    /// side, if that word is also a factor there (⊥ ↦ ⊥). O(1).
    #[inline]
    pub fn mirror(&self, side: Side, id: FactorId) -> Option<FactorId> {
        if id.is_bottom() {
            return Some(FactorId::BOTTOM);
        }
        let m = match side {
            Side::A => self.mirror_ab[id.0 as usize],
            Side::B => self.mirror_ba[id.0 as usize],
        };
        if m.is_bottom() {
            None
        } else {
            Some(m)
        }
    }

    /// Orders a pair `(spoiler element, duplicator response)` into an
    /// (A, B) pair according to the side Spoiler played in.
    pub fn as_ab_pair(&self, side: Side, spoiler: FactorId, duplicator: FactorId) -> Pair {
        match side {
            Side::A => (spoiler, duplicator),
            Side::B => (duplicator, spoiler),
        }
    }

    /// Renders a pair for traces, e.g. `(abaab, ab)`.
    pub fn render_pair(&self, pair: Pair) -> String {
        format!("({}, {})", self.a.render(pair.0), self.b.render(pair.1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_seeding() {
        let g = GamePair::of("abab", "ba");
        // Σ = {a, b}: 2 letter pairs + ε pair.
        assert_eq!(g.constant_pairs.len(), 3);
        assert!(g.constants_consistent());
    }

    #[test]
    fn mismatched_alphabets_are_distinguished_at_rank_zero() {
        // w has c, v does not: constant pair (c-id, ⊥). The ground atom
        // (c ≐ c·ε) holds in 𝔄 but not in 𝔅 (⊥ never participates in R∘),
        // so the seeding itself is NOT a partial isomorphism — matching the
        // fact that a quantifier-rank-0 sentence distinguishes the words.
        let g = GamePair::of("abc", "ab");
        assert_eq!(g.constant_pairs.len(), 4);
        assert!(!g.constants_consistent());
    }

    #[test]
    fn mirror_elements() {
        let g = GamePair::of("abaab", "aab");
        let aab_in_a = g.a.id_of(b"aab").unwrap();
        let mirrored = g.mirror(Side::A, aab_in_a).unwrap();
        assert_eq!(g.b.bytes_of(mirrored), b"aab");
        // abaab is not a factor of aab.
        let full = g.a.full_word_id();
        assert_eq!(g.mirror(Side::A, full), None);
        // ⊥ mirrors to ⊥.
        assert_eq!(g.mirror(Side::B, FactorId::BOTTOM), Some(FactorId::BOTTOM));
    }

    #[test]
    fn mirror_table_matches_interner() {
        let g = GamePair::of("abaabb", "babaa");
        for side in [Side::A, Side::B] {
            for id in g.structure(side).universe() {
                let expected = g
                    .structure(side.other())
                    .id_of(g.structure(side).bytes_of(id));
                assert_eq!(g.mirror(side, id), expected);
            }
        }
    }

    #[test]
    fn ab_pair_orientation() {
        let g = GamePair::of("a", "b");
        let x = g.a.epsilon();
        let y = g.b.epsilon();
        assert_eq!(g.as_ab_pair(Side::A, x, y), (x, y));
        assert_eq!(g.as_ab_pair(Side::B, y, x), (x, y));
    }

    #[test]
    fn consistency_delegates() {
        let g = GamePair::of("aa", "aaa");
        let pairs = g.constant_pairs.clone();
        let x = g.a.id_of(b"aa").unwrap();
        let y = g.b.id_of(b"aa").unwrap();
        assert!(g.consistent(&pairs, (x, y)));
        // aa ↦ a violates (a-side aa = a·a, b-side a = a·a is false).
        let y2 = g.b.id_of(b"a").unwrap();
        assert!(!g.consistent(&pairs, (x, y2)));
    }
}
