//! The languages of Lemma 4.15 (L₁…L₆) and friends.
//!
//! For each language: a membership predicate, a member generator, and a
//! **fooling-pair search** — finding `(w ∈ L, v ∉ L)` with `w ≡_k v`,
//! confirmed by the exact EF solver. Each confirmed pair is a concrete,
//! machine-checked witness that no FC sentence of quantifier rank ≤ k
//! defines `L` (Lemma 3.5), reproducing the paper's route to
//! `L ∉ 𝓛(FC)`.

use fc_games::batch::{BatchConfig, BatchSolver, BatchStats, StructureArena};
use fc_games::fingerprint::TYPE2_UNIVERSE_CAP;
use fc_words::{Alphabet, Word};

/// A solver-confirmed fooling pair for a language at rank `k`.
#[derive(Clone, Debug)]
pub struct LanguageFoolingPair {
    /// The member word.
    pub inside: Word,
    /// The equivalent non-member.
    pub outside: Word,
    /// The confirmed rank.
    pub k: u32,
    /// The exponents `(p, q)` that generated the pair.
    pub exponents: (usize, usize),
}

/// A language from the paper's Lemma 4.15 battery.
pub struct PaperLanguage {
    /// Short name (`L1`…`L6`, `anbn`, …).
    pub name: &'static str,
    /// Membership predicate.
    pub member: fn(&[u8]) -> bool,
    /// A member for parameter `n`.
    pub generate: fn(usize) -> Word,
    /// A ≡_k-candidate *non*-member variant for parameters `(p, q)`
    /// (the fooled word: pumped copy with mismatched exponents).
    pub variant: fn(usize, usize) -> Word,
}

fn reps(s: &str, n: usize) -> Word {
    Word::from(s).pow(n)
}

// ---- membership predicates -------------------------------------------------

/// `aⁿbⁿ` (Example 4.5).
pub fn is_anbn(w: &[u8]) -> bool {
    let n = w.len() / 2;
    w.len().is_multiple_of(2)
        && w[..n].iter().all(|&c| c == b'a')
        && w[n..].iter().all(|&c| c == b'b')
}

/// L₁ = `{aⁿ(ba)ⁿ}`.
pub fn is_l1(w: &[u8]) -> bool {
    (0..=w.len() / 3 + 1).any(|n| reps("a", n).concat(&reps("ba", n)).bytes() == w)
}

/// L₂ = `{aⁱ(ba)ʲ : 1 ≤ i ≤ j}`.
pub fn is_l2(w: &[u8]) -> bool {
    let i = w.iter().take_while(|&&c| c == b'a').count();
    if i == 0 || i > w.len() {
        return false;
    }
    let rest = &w[i..];
    if !rest.len().is_multiple_of(2) {
        return false;
    }
    let j = rest.len() / 2;
    rest.chunks(2).all(|c| c == b"ba") && 1 <= i && i <= j
}

/// L₃ = `{bⁿ aᵐ b^{n+m}}`.
pub fn is_l3(w: &[u8]) -> bool {
    // The b-prefix/b-suffix split is ambiguous when m = 0 (e.g. bb = b¹a⁰b¹),
    // so try every admissible reading.
    let b_prefix = w.iter().take_while(|&&c| c == b'b').count();
    for n in 0..=b_prefix {
        let m = w[n..].iter().take_while(|&&c| c == b'a').count();
        let tail = &w[n + m..];
        if tail.iter().all(|&c| c == b'b') && tail.len() == n + m {
            return true;
        }
    }
    false
}

/// L₄ = `{bⁿ aᵐ b^{n·m}}`.
pub fn is_l4(w: &[u8]) -> bool {
    // Note the split b-prefix/b-suffix is ambiguous when m = 0; try all
    // admissible (n, m) readings.
    let b_prefix = w.iter().take_while(|&&c| c == b'b').count();
    for n in 0..=b_prefix {
        let m = w[n..].iter().take_while(|&&c| c == b'a').count();
        let tail = &w[n + m..];
        if tail.iter().all(|&c| c == b'b') && tail.len() == n * m {
            return true;
        }
    }
    false
}

/// L₅ = `{(abaabb)ᵐ(bbaaba)ᵐ}`.
pub fn is_l5(w: &[u8]) -> bool {
    (0..=w.len() / 12 + 1).any(|m| reps("abaabb", m).concat(&reps("bbaaba", m)).bytes() == w)
}

/// L₆ = `{aⁿbⁿ(ab)ⁿ}`.
pub fn is_l6(w: &[u8]) -> bool {
    (0..=w.len() / 4 + 1).any(|n| {
        reps("a", n)
            .concat(&reps("b", n))
            .concat(&reps("ab", n))
            .bytes()
            == w
    })
}

/// The catalogue of Lemma 4.15 languages plus `aⁿbⁿ`.
pub fn catalogue() -> Vec<PaperLanguage> {
    vec![
        PaperLanguage {
            name: "anbn",
            member: is_anbn,
            generate: |n| reps("a", n).concat(&reps("b", n)),
            variant: |p, q| reps("a", q).concat(&reps("b", p)),
        },
        PaperLanguage {
            name: "L1",
            member: is_l1,
            generate: |n| reps("a", n).concat(&reps("ba", n)),
            variant: |p, q| reps("a", q).concat(&reps("ba", p)),
        },
        PaperLanguage {
            name: "L2",
            member: is_l2,
            generate: |n| reps("a", n.max(1)).concat(&reps("ba", n.max(1))),
            // Variant with i > j: pump the a-block up.
            variant: |p, q| reps("a", q).concat(&reps("ba", p)),
        },
        PaperLanguage {
            name: "L3",
            member: is_l3,
            generate: |n| reps("a", n).concat(&reps("b", n)), // the n = 0 slice
            variant: |p, q| reps("a", q).concat(&reps("b", p)),
        },
        PaperLanguage {
            name: "L4",
            member: is_l4,
            generate: |n| Word::from("b").concat(&reps("a", n)).concat(&reps("b", n)),
            variant: |p, q| Word::from("b").concat(&reps("a", q)).concat(&reps("b", p)),
        },
        PaperLanguage {
            name: "L5",
            member: is_l5,
            generate: |n| reps("abaabb", n).concat(&reps("bbaaba", n)),
            variant: |p, q| reps("abaabb", q).concat(&reps("bbaaba", p)),
        },
        PaperLanguage {
            name: "L6",
            member: is_l6,
            generate: |n| reps("a", n).concat(&reps("b", n)).concat(&reps("ab", n)),
            variant: |p, q| reps("a", q).concat(&reps("b", p)).concat(&reps("ab", p)),
        },
    ]
}

impl PaperLanguage {
    /// Searches for a solver-confirmed fooling pair at rank `k` with
    /// exponents ≤ `limit`: a member `generate(p)` and a non-member
    /// `variant(p, q)` with `p ≠ q` that the solver certifies ≡_k.
    pub fn fooling_pair(&self, k: u32, limit: usize) -> Option<LanguageFoolingPair> {
        self.fooling_pair_with_stats(k, limit).0
    }

    /// [`PaperLanguage::fooling_pair`] plus the batch engine's counters
    /// for the E15/P6 report rows.
    ///
    /// The search runs in two passes: first the candidate `(inside,
    /// outside)` pairs surviving the membership prechecks are collected
    /// (cheap — just words), fixing the union alphabet; then one
    /// [`StructureArena`] over that alphabet drives the scan in the
    /// original `(q, p)` order. Every `generate(p)` structure is shared
    /// across all `q`, fingerprint-refuted candidates never start a game,
    /// and the scan still exits at the first confirmed pair.
    pub fn fooling_pair_with_stats(
        &self,
        k: u32,
        limit: usize,
    ) -> (Option<LanguageFoolingPair>, BatchStats) {
        let mut candidates: Vec<(Word, Word, (usize, usize))> = Vec::new();
        let mut sigma = Alphabet::from_symbols(b"");
        for q in 1..=limit {
            for p in 0..q {
                let inside = (self.generate)(p);
                let outside = (self.variant)(p, q);
                if !(self.member)(inside.bytes()) || (self.member)(outside.bytes()) {
                    continue;
                }
                sigma = sigma.extended_by(&inside).extended_by(&outside);
                candidates.push((inside, outside, (p, q)));
            }
        }
        let mut batch = BatchSolver::with_config(
            StructureArena::new(sigma),
            BatchConfig {
                rank2_universe_cap: Some(TYPE2_UNIVERSE_CAP),
                solver_threads: 1,
                ..BatchConfig::default()
            },
        );
        for (inside, outside, exponents) in candidates {
            let i = batch.intern(&inside);
            let j = batch.intern(&outside);
            if batch.equivalent(i, j, k) {
                let stats = batch.stats();
                return (
                    Some(LanguageFoolingPair {
                        inside,
                        outside,
                        k,
                        exponents,
                    }),
                    stats,
                );
            }
        }
        (None, batch.stats())
    }

    /// All members with parameter up to `n_max` (deduplicated).
    pub fn members_up_to(&self, n_max: usize) -> Vec<Word> {
        let mut v: Vec<Word> = (0..=n_max).map(|n| (self.generate)(n)).collect();
        v.sort();
        v.dedup();
        v
    }
}

/// The unary non-semilinear language `L_pow = {a^{2ⁿ}}` behind Lemma 3.6.
pub fn is_l_pow(w: &[u8]) -> bool {
    w.iter().all(|&c| c == b'a') && fc_words::semilinear::is_power_of_two(w.len() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn membership_predicates() {
        assert!(is_anbn(b""));
        assert!(is_anbn(b"aabb"));
        assert!(!is_anbn(b"aab"));
        assert!(!is_anbn(b"abab"));

        assert!(is_l1(b""));
        assert!(is_l1(b"aba"));
        assert!(is_l1(b"aababa"));
        assert!(!is_l1(b"aaba"));
        assert!(!is_l1(b"ba"));

        assert!(is_l2(b"aba"));
        assert!(is_l2(b"ababa"));
        assert!(!is_l2(b"ba")); // i = 0
        assert!(!is_l2(b"aaba")); // i = 2 > j = 1

        assert!(is_l3(b"")); // n = m = 0
        assert!(is_l3(b"babb")); // n=1, m=1 → b a b²

        assert!(is_l4(b"")); // n = 0, m = 0
        assert!(is_l4(b"baabb")); // n=1, m=2 → b aa b²
        assert!(!is_l4(b"baab"));

        assert!(is_l5(b""));
        assert!(is_l5(b"abaabbbbaaba"));
        assert!(!is_l5(b"abaabb"));

        assert!(is_l6(b""));
        assert!(is_l6(b"abab")); // n = 1
        assert!(!is_l6(b"ab"));
    }

    #[test]
    fn l3_semantics() {
        // b^n a^m b^{n+m}
        assert!(!is_l3(b"abb")); // a¹b¹: tail "bb"? w=abb: n=0,m=1,tail="bb" len 2 ≠ 1 → false ✓
        assert!(is_l3(b"ab")); // n=0, m=1, tail "b" len 1 = 0+1 ✓
        assert!(is_l3(b"bbabbb")); // n=2, m=1, tail b³ = 2+1 ✓
        assert!(!is_l3(b"bbabb"));
    }

    #[test]
    fn l6_semantics() {
        assert!(is_l6(b"abab")); // n=1: a b ab
        assert!(is_l6(b"aabbabab")); // n=2: aa bb abab
        assert!(!is_l6(b"aabbab"));
    }

    #[test]
    fn catalogue_generators_produce_members() {
        for lang in catalogue() {
            for n in 0..5 {
                let w = (lang.generate)(n);
                assert!(
                    (lang.member)(w.bytes()),
                    "{}: generate({n}) = {w} not a member",
                    lang.name
                );
            }
        }
    }

    #[test]
    fn catalogue_variants_leave_the_language() {
        for lang in catalogue() {
            // p < q mismatched exponents must exit the language (that is
            // the fooling argument's second leg).
            for p in 0..4usize {
                for q in p + 1..5 {
                    let v = (lang.variant)(p, q);
                    assert!(
                        !(lang.member)(v.bytes()),
                        "{}: variant({p},{q}) = {v} is unexpectedly a member",
                        lang.name
                    );
                }
            }
        }
    }

    #[test]
    fn anbn_fooling_pair_rank_1() {
        let cat = catalogue();
        let anbn = &cat[0];
        let pair = anbn.fooling_pair(1, 8).expect("rank-1 fooling pair");
        assert!((anbn.member)(pair.inside.bytes()));
        assert!(!(anbn.member)(pair.outside.bytes()));
    }

    #[test]
    fn l_pow_membership() {
        assert!(is_l_pow(b"a"));
        assert!(is_l_pow(b"aa"));
        assert!(!is_l_pow(b"aaa"));
        assert!(is_l_pow(b"aaaa"));
        assert!(!is_l_pow(b""));
        assert!(!is_l_pow(b"ab"));
    }
}
