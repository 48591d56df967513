//! Rank-aware invariant fingerprints: refuting `w ≡_k v` without playing
//! the game.
//!
//! A fingerprint is a tuple of cheap hashes of ≡_k-**invariants** — values
//! that `w ≡_k v` forces to coincide. Whenever two fingerprints disagree
//! at rank `k`, the words are provably inequivalent and the batch engine
//! ([`crate::batch`]) can record a `false` verdict without constructing a
//! solver. The converse direction is *not* claimed: equal fingerprints say
//! nothing, and the pair proceeds to the exact solver.
//!
//! ## Soundness
//!
//! The components, and why each is an invariant:
//!
//! - **Letter profile** (rank ≥ 0). The ground atoms of τ_Σ are exactly
//!   the `c ≐ c'·c''` facts over letter constants and ε, and (since the
//!   constants are single letters) these hold iff the involved letters
//!   occur. So `w ≡_0 v` iff the occurring-letter sets agree — and
//!   `≡_k ⊆ ≡_0` makes the profile an invariant at every rank.
//! - **Rank-1 type profile** (rank ≥ 1). For an element `x` of 𝔄_w, its
//!   **seed type** (`partial_iso::SeedTypes`) is the truth vector of the
//!   equalities `x = c` and of every atom `t₁ ≐ t₂·t₃` over the terms
//!   `{x} ∪ {letter constants, ε}` that mentions `x`. A
//!   Duplicator response to `x` keeps the constant-seeded tuples a
//!   partial isomorphism iff its seed type equals that of `x` — exactly
//!   what the solver's first round tests, and what its guide groups
//!   responses by. So `w ≡_1 v` forces the *sets* of realised seed types
//!   to coincide; by monotonicity the profile is invariant for every
//!   `k ≥ 1`. (The atoms over constants alone are left out: they are
//!   fixed by the letter profile, which [`Fingerprint::refutes`] checks
//!   first.)
//! - **Truncated factor sets** (rank ≥ 1). A factor `u` with `|u| ≤ k+1`
//!   is pinned by the rank-k sentence
//!   `∃x₁…∃x_{|u|−1}: x₁ ≐ c·c' ∧ x₂ ≐ x₁·c'' ∧ …` (left-to-right
//!   chain), so `w ≡_k v` implies `Facs(w)` and `Facs(v)` agree on all
//!   words of length ≤ k+1. The fingerprint stores one running hash per
//!   truncation level up to [`FACTOR_LEVEL_CAP`].
//!
//! A fourth, heavier invariant lives beside the `Fingerprint` proper: the
//! **rank-2 type profile** ([`rank2_type_profile`], rank ≥ 2). One level
//! of back-and-forth type refinement: for each first-round move
//! `x ∈ U ∪ {⊥}`, the rank-1 type of the expansion `(𝔄, x)` is the pair
//! (atom type of `x`, *set* of two-move atom types `vec₂(x, x')` over all
//! second moves `x'`), where `vec₂` is the truth vector of every atom
//! `t₁ ≐ t₂·t₃` over the terms `{x, x'} ∪ constants` plus the equality
//! bit `x = x'`. Two pinned pairs extend the constant seeding
//! consistently **iff** their `vec₂` vectors coincide (Definition 3.1
//! quantifies exactly these atoms and the equality pattern; `t ≐ c·ε`
//! decides `t = c`, and `x ≐ x·ε` separates ⊥ from every real element).
//! So `w ≡_2 v` forces a winning first-round response of *equal expansion
//! type* for every first-round move — the realised sets of expansion
//! types coincide, and by `≡_k ⊆ ≡_2` the profile is an invariant for
//! every `k ≥ 2`. This is the component that refutes inequivalent unary
//! pairs like `a⁵ ≢₂ a⁹`, which letter/type1/factor profiles cannot see.
//! Because it costs O(|U|²) per word — more than a small window game, far
//! less than a long-word game — it is not part of the eagerly-built
//! `Fingerprint`: [`crate::batch::StructureArena`] memoizes it lazily,
//! only for words that survive the cheap layers, and only under the
//! batch's universe cap ([`crate::batch::BatchConfig::rank2_universe_cap`],
//! usually [`TYPE2_UNIVERSE_CAP`]).
//!
//! Note what is deliberately **absent**: raw length and per-letter Parikh
//! counts are *not* ≡_k-invariants (`a³ ≡₁ a⁴` is the paper's minimal
//! rank-1 pair), so the fingerprint uses their sound saturated
//! counterparts instead — the truncated factor set encodes run lengths and
//! letter multiplicities exactly up to the cap and not beyond.
//!
//! Hash collisions only ever *weaken* the filter (a collision makes two
//! different profiles look equal, so the pair falls through to the
//! solver); they can never refute an equivalent pair, because equal
//! profiles hash equally under the deterministic fold. The batch engine
//! additionally carries a `debug_assert` differential path proving every
//! fingerprint-refuted pair solver-inequivalent, and the property suite
//! replays the same claim on random windows.
//!
//! Fingerprints are only comparable between structures built over the
//! **same alphabet** Σ (the constant term order enters the seed types);
//! [`crate::batch::StructureArena`] guarantees this by construction.

use crate::partial_iso::SeedTypes;
use fc_logic::FactorStructure;

/// Highest factor-set truncation level the fingerprint stores. Ranks with
/// `k + 1 > FACTOR_LEVEL_CAP` compare at the cap (still sound — a coarser
/// invariant refutes less, never more).
pub const FACTOR_LEVEL_CAP: usize = 8;

/// Universe-size cap for the rank-2 type profile. The profile costs
/// O(|U|²) per word, which is negligible for scan-sized universes but
/// would dominate a long fooling word's intern-plus-solve budget; the
/// arena never computes the profile above the cap (still sound — a
/// missing invariant only weakens the filter).
pub const TYPE2_UNIVERSE_CAP: usize = 64;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

#[inline]
fn fnv_u64(mut h: u64, x: u64) -> u64 {
    for byte in x.to_le_bytes() {
        h ^= u64::from(byte);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

#[inline]
fn fnv_bytes(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// The invariant fingerprint of one word (relative to a fixed Σ).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Fingerprint {
    /// Hash of the occurring-letter set (the rank-0 profile).
    letters: u64,
    /// Hash of the realised rank-1 atom-type set.
    type1: u64,
    /// `factor_levels[l-1]` hashes the set of factors of length ≤ `l`.
    factor_levels: [u64; FACTOR_LEVEL_CAP],
}

impl Fingerprint {
    /// Computes the fingerprint of `s` (one pass over the universe; the
    /// arena calls this once per word at build time).
    pub fn of(s: &FactorStructure) -> Fingerprint {
        // Letter profile: which constants are non-⊥, in Σ order.
        let mut letters = FNV_OFFSET;
        for &c in s.alphabet().symbols() {
            if !s.constant(c).is_bottom() {
                letters = fnv_bytes(letters, &[c]);
            }
        }

        // Rank-1 type profile: the realised set of exact seed types.
        let types = SeedTypes::of(s, &s.constants_vector());
        let mut realised: Vec<&[u64]> = s.universe().map(|x| types.get(x)).collect();
        realised.sort_unstable();
        realised.dedup();
        let mut type1 = FNV_OFFSET;
        for &word in realised.into_iter().flatten() {
            type1 = fnv_u64(type1, word);
        }

        // Truncated factor sets, as **commutative** per-length folds: each
        // short factor contributes a per-factor FNV hash, and a length
        // bucket is the wrapping sum of its factors' hashes. Summation is
        // order-independent, which matters twice over: the two structure
        // backends enumerate factors in different orders (dense: (length,
        // lex); succinct: automaton discovery), and fingerprints must stay
        // comparable across them — equal factor *sets* must hash equally
        // no matter which backend produced either side. Collisions (two
        // different sets with equal sums) only ever weaken the filter, as
        // with any hash. `short_factor_ids` keeps this O(short factors)
        // instead of O(|U|) on long-word structures.
        let mut buckets = [0u64; FACTOR_LEVEL_CAP + 1];
        for id in s.short_factor_ids(FACTOR_LEVEL_CAP) {
            let bytes = s.bytes_of(id);
            let h = fnv_bytes(fnv_u64(FNV_OFFSET, bytes.len() as u64), bytes);
            // Bit-mix before summing so near-identical FNV outputs do not
            // cancel structurally.
            buckets[bytes.len()] = buckets[bytes.len()].wrapping_add(h ^ h.rotate_left(31));
        }
        // factor_levels[l-1] covers the factors of length ≤ l.
        let mut factor_levels = [0u64; FACTOR_LEVEL_CAP];
        let mut acc = buckets[0];
        for (l, level) in factor_levels.iter_mut().enumerate() {
            acc = acc.wrapping_add(buckets[l + 1]);
            *level = acc;
        }

        Fingerprint {
            letters,
            type1,
            factor_levels,
        }
    }

    /// `true` iff the fingerprints *prove* the two words inequivalent at
    /// rank `k`. `false` is non-committal (the pair may still be
    /// inequivalent — only the exact solver decides).
    #[inline]
    pub fn refutes(&self, other: &Fingerprint, k: u32) -> bool {
        if self.letters != other.letters {
            return true; // rank-0 invariant, sound for every k
        }
        if k == 0 {
            return false;
        }
        if self.type1 != other.type1 {
            return true;
        }
        let level = (k as usize + 1).min(FACTOR_LEVEL_CAP);
        self.factor_levels[level - 1] != other.factor_levels[level - 1]
    }

    /// The bucket key words must share to *possibly* be ≡_k:
    /// fingerprint-level refutation is exactly key inequality, so hashing
    /// on the key partitions a window into fingerprint-compatible groups.
    /// (The lazily-computed [`rank2_type_profile`] sits outside this key;
    /// the batch layer consults it separately.)
    #[inline]
    pub fn bucket_key(&self, k: u32) -> (u64, u64, u64) {
        if k == 0 {
            return (self.letters, 0, 0);
        }
        let level = (k as usize + 1).min(FACTOR_LEVEL_CAP);
        (self.letters, self.type1, self.factor_levels[level - 1])
    }
}

/// Folds the truth bits of the atom triples in `tris` (term index 0 = `x`,
/// 1 = `y`, ≥ 2 = constants), chunked so any triple count is safe.
fn fold_triples(
    s: &FactorStructure,
    consts: &[fc_logic::FactorId],
    tris: &[(u8, u8, u8)],
    x: fc_logic::FactorId,
    y: fc_logic::FactorId,
) -> u64 {
    let term = |i: u8| match i {
        0 => x,
        1 => y,
        _ => consts[i as usize - 2],
    };
    let mut h = FNV_OFFSET;
    let mut bits = 0u64;
    let mut nbits = 0u32;
    for &(l, i, j) in tris {
        bits = (bits << 1) | u64::from(s.concat_holds(term(l), term(i), term(j)));
        nbits += 1;
        if nbits == 64 {
            h = fnv_u64(h, bits);
            bits = 0;
            nbits = 0;
        }
    }
    fnv_u64(h, bits ^ u64::from(nbits))
}

/// The rank-2 type profile (see the module docs): the folded set of
/// expansion types, where the type of the expansion `(𝔄, x)` folds `x`'s
/// one-move atom mask with the *set* of two-move codes over all second
/// moves `y`. A two-move code names the truth vector of every atom
/// `t₁ ≐ t₂·t₃` over `{x, y} ∪ consts` plus the equality bit `x = y` (the
/// partial-isomorphism equality pattern for a replayed move; equality
/// against constants and ⊥-ness are already decided by the atoms
/// `t ≐ c·ε` and `t ≐ t·ε`), so two pinned second-round extensions are
/// consistent with the constant seeding iff their codes coincide.
///
/// The atom triples split by which moves they mention: constant-only
/// triples are already forced by the letter profile (checked first in
/// [`Fingerprint::refutes`]) and are dropped; x-only and y-only triples
/// are precomputed once per element; only the triples mentioning *both*
/// moves — O(nterms) many of the nterms³ — are evaluated per pair,
/// keeping the whole profile near-quadratic instead of cubic.
///
/// Both move loops range over `U ∪ {⊥}` — Spoiler may play ⊥ in either
/// round, and the ⊥ expansion matches only ⊥ expansions across words
/// (its `x ≐ x·ε` atom is false, unlike every real element's).
///
/// Like every fingerprint component, the profile is only comparable
/// between structures over the same Σ, and `w ≡_k v` for any `k ≥ 2`
/// forces equal profiles — unequal profiles refute. Callers are expected
/// to gate on [`TYPE2_UNIVERSE_CAP`]; the computation itself has no cap.
pub fn rank2_type_profile(s: &FactorStructure) -> u64 {
    let consts = &s.constants_vector();
    let elems: Vec<fc_logic::FactorId> = s
        .universe()
        .chain(std::iter::once(fc_logic::FactorId::BOTTOM))
        .collect();
    let nterms = consts.len() + 2;

    let (mut tri_x, mut tri_y, mut tri_xy) = (Vec::new(), Vec::new(), Vec::new());
    for l in 0..nterms as u8 {
        for i in 0..nterms as u8 {
            for j in 0..nterms as u8 {
                let has_x = l == 0 || i == 0 || j == 0;
                let has_y = l == 1 || i == 1 || j == 1;
                match (has_x, has_y) {
                    (true, false) => tri_x.push((l, i, j)),
                    (false, true) => tri_y.push((l, i, j)),
                    (true, true) => tri_xy.push((l, i, j)),
                    (false, false) => {} // constant-only: forced by the letter profile
                }
            }
        }
    }

    // One-move masks, precomputed per element (the unused move index never
    // occurs in these triple lists, so any placeholder id works).
    let mask_x: Vec<u64> = elems
        .iter()
        .map(|&e| fold_triples(s, consts, &tri_x, e, e))
        .collect();
    let mask_y: Vec<u64> = elems
        .iter()
        .map(|&e| fold_triples(s, consts, &tri_y, e, e))
        .collect();

    let mut expansion_types: Vec<u64> = elems
        .iter()
        .enumerate()
        .map(|(xi, &x)| {
            let mut vecs: Vec<u64> = elems
                .iter()
                .enumerate()
                .map(|(yi, &y)| {
                    let mut h = fnv_u64(FNV_OFFSET, u64::from(x == y));
                    h = fnv_u64(h, mask_x[xi]);
                    h = fnv_u64(h, mask_y[yi]);
                    fnv_u64(h, fold_triples(s, consts, &tri_xy, x, y))
                })
                .collect();
            vecs.sort_unstable();
            vecs.dedup();
            let mut h = fnv_u64(FNV_OFFSET, mask_x[xi]);
            for v in vecs {
                h = fnv_u64(h, v);
            }
            h
        })
        .collect();
    expansion_types.sort_unstable();
    expansion_types.dedup();
    let mut h = FNV_OFFSET;
    for t in expansion_types {
        h = fnv_u64(h, t);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::equivalent;
    use fc_words::{Alphabet, Word};

    fn fp(w: &str, sigma: &Alphabet) -> Fingerprint {
        Fingerprint::of(&FactorStructure::of_str(w, sigma))
    }

    #[test]
    fn identical_words_share_fingerprints() {
        let sigma = Alphabet::ab();
        for w in ["", "a", "ab", "abaab", "bbbb"] {
            assert_eq!(fp(w, &sigma), fp(w, &sigma));
            for k in 0..=4 {
                assert!(!fp(w, &sigma).refutes(&fp(w, &sigma), k), "w={w} k={k}");
            }
        }
    }

    #[test]
    fn letter_profile_refutes_at_rank_zero() {
        let sigma = Alphabet::ab();
        // ab vs aa: different letter sets → refuted at every rank.
        for k in 0..=3 {
            assert!(fp("ab", &sigma).refutes(&fp("aa", &sigma), k), "k={k}");
        }
        // ab vs ba: same letters — rank 0 cannot refute.
        assert!(!fp("ab", &sigma).refutes(&fp("ba", &sigma), 0));
    }

    #[test]
    fn type_profile_refutes_ab_vs_ba_at_rank_one() {
        let sigma = Alphabet::ab();
        // ab ≢₁ ba (the factor ab exists only on one side) and the rank-1
        // profile sees it.
        assert!(fp("ab", &sigma).refutes(&fp("ba", &sigma), 1));
        assert!(!equivalent("ab", "ba", 1));
    }

    #[test]
    fn equivalent_pairs_are_never_refuted() {
        let sigma = Alphabet::unary();
        // a³ ≡₁ a⁴ — the minimal rank-1 pair must survive the filter.
        assert!(equivalent("aaa", "aaaa", 1));
        assert!(!fp("aaa", &sigma).refutes(&fp("aaaa", &sigma), 1));
        // a¹² ≡₂ a¹⁴ (E03's rank-2 minimal pair).
        assert!(!fp(&"a".repeat(12), &sigma).refutes(&fp(&"a".repeat(14), &sigma), 2));
    }

    #[test]
    fn refutation_is_sound_on_the_exhaustive_window() {
        // Every refuted pair must be solver-inequivalent at that rank.
        let sigma = Alphabet::ab();
        let words: Vec<Word> = sigma.words_up_to(4).collect();
        let prints: Vec<Fingerprint> = words
            .iter()
            .map(|w| Fingerprint::of(&FactorStructure::new(w.clone(), &sigma)))
            .collect();
        for (i, w) in words.iter().enumerate() {
            for (j, v) in words.iter().enumerate().skip(i + 1) {
                for k in 0..=2u32 {
                    if prints[i].refutes(&prints[j], k) {
                        assert!(
                            !equivalent(w.as_str(), v.as_str(), k),
                            "fingerprint wrongly refuted {w} ≡_{k} {v}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn refutation_is_symmetric() {
        let sigma = Alphabet::ab();
        let words: Vec<Word> = sigma.words_up_to(3).collect();
        for w in &words {
            for v in &words {
                for k in 0..=3u32 {
                    assert_eq!(
                        fp(w.as_str(), &sigma).refutes(&fp(v.as_str(), &sigma), k),
                        fp(v.as_str(), &sigma).refutes(&fp(w.as_str(), &sigma), k),
                    );
                }
            }
        }
    }

    #[test]
    fn bucket_key_equality_is_exactly_non_refutation() {
        let sigma = Alphabet::ab();
        let words: Vec<Word> = sigma.words_up_to(3).collect();
        for w in &words {
            for v in &words {
                for k in 0..=3u32 {
                    let a = fp(w.as_str(), &sigma);
                    let b = fp(v.as_str(), &sigma);
                    assert_eq!(a.bucket_key(k) == b.bucket_key(k), !a.refutes(&b, k));
                }
            }
        }
    }

    fn rank2(w: &str, sigma: &Alphabet) -> u64 {
        rank2_type_profile(&FactorStructure::of_str(w, sigma))
    }

    #[test]
    fn rank2_profile_separates_inequivalent_unary_pairs() {
        // a^p ≢₂ a^q for p < q ≤ 11 (every exponent below the minimal
        // pair (12, 14) is its own ≡₂-class) — letter/type1/factor
        // components all coincide from p, q ≥ 3 onward, so only the
        // rank-2 type profile can see these. It must see every one of
        // them for the E03 scan to skip the games.
        let sigma = Alphabet::unary();
        for q in 4..=11usize {
            for p in 3..q {
                assert_ne!(
                    rank2(&"a".repeat(p), &sigma),
                    rank2(&"a".repeat(q), &sigma),
                    "rank-2 profile failed to separate a^{p} ≢₂ a^{q}"
                );
            }
        }
    }

    #[test]
    fn rank2_profile_is_invariant_on_equivalent_pairs() {
        // ≡₂ forces equal profiles: the minimal rank-2 pair a¹² ≡₂ a¹⁴
        // must not be separated, nor may any ≡₂-equivalent window pair.
        let unary = Alphabet::unary();
        assert!(equivalent(&"a".repeat(12), &"a".repeat(14), 2));
        assert_eq!(
            rank2(&"a".repeat(12), &unary),
            rank2(&"a".repeat(14), &unary)
        );
        let sigma = Alphabet::ab();
        let words: Vec<Word> = sigma.words_up_to(4).collect();
        for (i, w) in words.iter().enumerate() {
            for v in words.iter().skip(i + 1) {
                if equivalent(w.as_str(), v.as_str(), 2) {
                    assert_eq!(
                        rank2(w.as_str(), &sigma),
                        rank2(v.as_str(), &sigma),
                        "rank-2 profile separated the ≡₂ pair {w}, {v}"
                    );
                }
            }
        }
    }
}
