//! The Fooling Lemma (Lemma 4.13) as an executable driver.
//!
//! **Lemma 4.13.** Let `u, v` be co-primitive, `f : ℕ → ℕ` injective. If
//! `w₁·uᵖ·w₂·v^{f(p)}·w₃ ∈ L(φ)` for all `p`, then
//! `w₁·uˢ·w₂·vᵗ·w₃ ∈ L(φ)` for some `t ≠ f(s)` — so the language
//! `{w₁·uᵖ·w₂·v^{f(p)}·w₃}` is not FC-definable (Prop 4.14).
//!
//! The driver takes a [`FoolingInstance`], searches (with the exact
//! solver) for `p ≠ q` with `w₁·uᵖ·w₂ ≡_k w₁·u^q·w₂`, assembles the
//! *fooling pair* — a word inside the language and a word outside it that
//! are ≡_k — and confirms the pair with the solver. This machine-checks
//! the lemma's conclusion instance by instance, and produces the witnesses
//! reported in EXPERIMENTS.md (E14/E15).

use crate::batch::{BatchConfig, BatchSolver, BatchStats, StructureArena, WordId};
use crate::solver::EfSolver;
use crate::GamePair;
use fc_words::conjugacy::are_coprimitive;
use fc_words::{Alphabet, Word};

/// One Fooling Lemma instance: the frame `w₁ · u^p · w₂ · v^{f(p)} · w₃`.
pub struct FoolingInstance {
    /// Left frame word w₁.
    pub w1: Word,
    /// The pumped block u (must be primitive; co-primitive with `v`).
    pub u: Word,
    /// Middle frame word w₂.
    pub w2: Word,
    /// The dependent block v.
    pub v: Word,
    /// Right frame word w₃.
    pub w3: Word,
    /// The injective exponent function f.
    pub f: Box<dyn Fn(usize) -> usize>,
}

/// A verified fooling pair for a language window.
#[derive(Clone, Debug)]
pub struct FoolingPair {
    /// The member word `w₁·uᵖ·w₂·v^{f(p)}·w₃ ∈ L`.
    pub inside: Word,
    /// The non-member `w₁·u^q·w₂·v^{f(p)}·w₃ ∉ L` (q ≠ p, f injective).
    pub outside: Word,
    /// The exponent of the member.
    pub p: usize,
    /// The exponent of the non-member.
    pub q: usize,
    /// The rank at which the two words are ≡_k (solver-confirmed).
    pub k: u32,
}

impl FoolingInstance {
    /// Builds an instance, checking the co-primitivity precondition.
    ///
    /// # Errors
    /// Returns a message if `u, v` are not co-primitive.
    pub fn new(
        w1: impl Into<Word>,
        u: impl Into<Word>,
        w2: impl Into<Word>,
        v: impl Into<Word>,
        w3: impl Into<Word>,
        f: impl Fn(usize) -> usize + 'static,
    ) -> Result<FoolingInstance, String> {
        let (w1, u, w2, v, w3) = (w1.into(), u.into(), w2.into(), v.into(), w3.into());
        if !are_coprimitive(u.bytes(), v.bytes()) {
            return Err(format!("u = {u} and v = {v} are not co-primitive"));
        }
        Ok(FoolingInstance {
            w1,
            u,
            w2,
            v,
            w3,
            f: Box::new(f),
        })
    }

    /// The language member for exponent `p`.
    pub fn member(&self, p: usize) -> Word {
        self.assemble(p, (self.f)(p))
    }

    /// The word `w₁·uᵖ·w₂·vᵗ·w₃` for arbitrary exponents.
    pub fn assemble(&self, p: usize, t: usize) -> Word {
        let mut out = self.w1.clone();
        out = out.concat(&self.u.pow(p));
        out = out.concat(&self.w2);
        out = out.concat(&self.v.pow(t));
        out.concat(&self.w3)
    }

    /// Membership of `w` in the instance language `{member(p) : p ≤ bound}`.
    pub fn is_member(&self, w: &Word, bound: usize) -> bool {
        (0..=bound).any(|p| &self.member(p) == w)
    }

    /// The prefix `w₁·uᵖ·w₂` (Claim C.2's intermediate word).
    pub fn prefix(&self, p: usize) -> Word {
        self.w1.concat(&self.u.pow(p)).concat(&self.w2)
    }

    /// The union alphabet of the instance's five block words — every word
    /// this instance can assemble is a word over it, so one
    /// [`StructureArena`] serves the whole exponent scan.
    fn block_alphabet(&self) -> Alphabet {
        [&self.w1, &self.u, &self.w2, &self.v, &self.w3]
            .into_iter()
            .fold(Alphabet::from_symbols(b""), |s, w| s.extended_by(w))
    }

    /// A batch solver for this instance's scans, inner solver in
    /// auto-parallel mode (the confirmations at rank ≥ 2 are the few heavy
    /// games where the solver's top-level fan-out pays off). The cascade's
    /// rank-2 profile tier refutes most surviving scan pairs: its O(|U|)
    /// pass is far cheaper than the rank-2/3 games it prunes.
    fn batch(&self) -> BatchSolver {
        BatchSolver::with_config(
            StructureArena::new(self.block_alphabet()),
            BatchConfig {
                solver_threads: 0,
                ..BatchConfig::default()
            },
        )
    }

    /// Searches for `p < q ≤ limit` with `prefix(p) ≡_k prefix(q)`
    /// (Claim C.2: such pairs exist for every k). The scan runs on the
    /// batch engine: `prefix(p)` is interned once and reused across every
    /// `q`, and fingerprint-refuted pairs never start a game.
    pub fn find_prefix_pair(&self, k: u32, limit: usize) -> Option<(usize, usize)> {
        let mut batch = self.batch();
        let ids: Vec<WordId> = (0..=limit).map(|p| batch.intern(&self.prefix(p))).collect();
        let mut pairs: Vec<(WordId, WordId)> = Vec::new();
        let mut exps: Vec<(usize, usize)> = Vec::new();
        for q in 1..=limit {
            for p in 0..q {
                pairs.push((ids[p], ids[q]));
                exps.push((p, q));
            }
        }
        batch.find_first_equivalent(&pairs, k).map(|idx| exps[idx])
    }

    /// Constructs a fooling pair for rank `k` (searching exponents up to
    /// `limit`), confirming with the exact solver that the two full words
    /// are ≡_k. The `inside` word is in the language; the `outside` word is
    /// not (as long as `f` is injective and `q ≠ p`).
    pub fn fooling_pair(&self, k: u32, limit: usize) -> Option<FoolingPair> {
        self.fooling_pair_with_stats(k, limit).0
    }

    /// [`FoolingInstance::fooling_pair`] plus the batch engine's counters
    /// for the E15/P6 report rows. The candidate order (by `(q, p)`,
    /// skipping points where `f` collides) matches the definitional scan
    /// exactly; the batch layer shares each `inside(p)` structure across
    /// all `q` and prunes fingerprint-refutable candidates.
    pub fn fooling_pair_with_stats(
        &self,
        k: u32,
        limit: usize,
    ) -> (Option<FoolingPair>, BatchStats) {
        let mut batch = self.batch();
        for q in 1..=limit {
            for p in 0..q {
                if (self.f)(q) == (self.f)(p) {
                    continue; // f not injective at these points
                }
                let inside = self.assemble(p, (self.f)(p));
                let outside = self.assemble(q, (self.f)(p));
                // Interning is lazy: `inside(p)` is shared across every q,
                // and no structure is built past the first hit.
                let i = batch.intern(&inside);
                let j = batch.intern(&outside);
                if batch.equivalent(i, j, k) {
                    let stats = batch.stats();
                    return (
                        Some(FoolingPair {
                            inside,
                            outside,
                            p,
                            q,
                            k,
                        }),
                        stats,
                    );
                }
            }
        }
        (None, batch.stats())
    }

    /// Verifies a fooling pair end to end: membership of `inside`,
    /// non-membership of `outside`, and solver-confirmed ≡_k.
    pub fn verify(&self, pair: &FoolingPair, bound: usize) -> Result<(), String> {
        if !self.is_member(&pair.inside, bound) {
            return Err(format!("inside word {} is not a member", pair.inside));
        }
        if self.is_member(&pair.outside, bound) {
            return Err(format!("outside word {} is a member", pair.outside));
        }
        let mut solver = EfSolver::new(GamePair::new(
            pair.inside.clone(),
            pair.outside.clone(),
            &Alphabet::from_symbols(b""),
        ));
        if !solver.equivalent_auto(pair.k) {
            return Err(format!("{} ≢_{} {}", pair.inside, pair.k, pair.outside));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coprimitivity_is_enforced() {
        // u = ab, v = ba are conjugate → rejected.
        assert!(FoolingInstance::new("", "ab", "", "ba", "", |p| p).is_err());
        // u = abab imprimitive → rejected.
        assert!(FoolingInstance::new("", "abab", "", "b", "", |p| p).is_err());
        // u = a, v = b co-primitive → accepted.
        assert!(FoolingInstance::new("", "a", "", "b", "", |p| p).is_ok());
    }

    #[test]
    fn assembles_members() {
        let inst = FoolingInstance::new("c", "a", "c", "b", "c", |p| 2 * p).unwrap();
        assert_eq!(inst.member(2).as_str(), "caacbbbbc");
        assert_eq!(inst.assemble(1, 0).as_str(), "cacc");
        assert!(inst.is_member(&Word::from("caacbbbbc"), 5));
        assert!(!inst.is_member(&Word::from("caacbbbc"), 5));
    }

    #[test]
    fn anbn_fooling_pair_at_rank_1() {
        // Example 4.5 / L(a^n b^n): u = a, v = b, f = id.
        let inst = FoolingInstance::new("", "a", "", "b", "", |p| p).unwrap();
        let pair = inst.fooling_pair(1, 8).expect("fooling pair at k=1");
        inst.verify(&pair, 16).expect("pair verifies");
        assert_ne!(pair.p, pair.q);
    }

    #[test]
    fn prefix_pair_search_matches_pseudo_congruence_route() {
        let inst = FoolingInstance::new("", "a", "", "b", "", |p| p).unwrap();
        let (p, q) = inst.find_prefix_pair(1, 8).expect("prefix pair");
        assert!(p < q);
    }

    #[test]
    fn a_ba_instance_from_prop_4_6() {
        // L1 = {a^n (ba)^n}: u = a, v = ba — co-primitive (r = 1).
        let inst = FoolingInstance::new("", "a", "", "ba", "", |p| p).unwrap();
        let pair = inst.fooling_pair(1, 8).expect("fooling pair");
        inst.verify(&pair, 16).expect("verifies");
    }
}
