//! Lemma 3.6 ("pow2") made executable: witness pairs `aᵖ ≡_k a^q` and
//! unary ≡_k class structure.
//!
//! The paper proves non-constructively (via semilinearity of unary FC
//! languages and the non-semilinearity of `{2ⁿ}`) that for every `k` there
//! are `p ≠ q` with `aᵖ ≡_k a^q`. On concrete ranks the exact solver finds
//! the *minimal* such pair, and computes the full ≡_k-partition of
//! `{aⁿ : n ≤ limit}` — the quantitative table behind experiment E03.
//!
//! Both the minimal-pair scan and the class tables run on the bulk engine
//! of [`crate::batch`]: one [`StructureArena`] interns `a⁰ … a^limit` once
//! (the scan previously rebuilt `a^q`'s O(q²) concat table for every `p`),
//! fingerprints refute inequivalent pairs without a game, and the verdict
//! memo is shared across the whole scan. The definitional per-pair loops
//! live in the test module as `*_naive`, the differential baseline.

use crate::batch::{BatchConfig, BatchSolver, BatchStats, StructureArena, WordId};
use crate::fingerprint::TYPE2_UNIVERSE_CAP;
use fc_words::semilinear::{LinearSet, SemilinearSet};
use fc_words::{Alphabet, Word};

/// The minimal pair `p < q ≤ limit` with `aᵖ ≡_k a^q`, ordered by `(q, p)`
/// (i.e. the first `q` admitting a smaller equivalent power), or `None`
/// if no pair exists within the limit.
pub fn minimal_unary_pair(k: u32, limit: usize) -> Option<(usize, usize)> {
    minimal_unary_pair_with_stats(k, limit).0
}

/// [`minimal_unary_pair`] plus the batch engine's counters for the E03
/// report row. The scan order (by `(q, p)`) is the result's definition
/// and is preserved exactly: the batch layer only removes redundant
/// structure builds and fingerprint-refutable game runs.
pub fn minimal_unary_pair_with_stats(k: u32, limit: usize) -> (Option<(usize, usize)>, BatchStats) {
    let mut batch =
        BatchSolver::with_config(StructureArena::new(Alphabet::unary()), unary_config());
    // Interning is lazy: `a^q` is only built (and fingerprinted) when the
    // scan reaches `q`, so an early hit — the common case once the limit
    // exceeds the minimal pair — never pays for the words beyond it.
    let mut ids: Vec<WordId> = Vec::with_capacity(limit + 1);
    let a = Word::from("a");
    for q in 0..=limit {
        ids.push(batch.intern(&a.pow(q)));
        for p in 1..q {
            if batch.equivalent(ids[p], ids[q], k) {
                return (Some((p, q)), batch.stats());
            }
        }
    }
    (None, batch.stats())
}

/// The ≡_k classes of `{aⁿ : 0 ≤ n ≤ limit}`, each class a sorted list of
/// exponents. Classes are found by comparing against representatives
/// (≡_k is an equivalence relation by Theorem 3.5).
pub fn unary_classes(k: u32, limit: usize) -> Vec<Vec<usize>> {
    unary_classes_with_stats(k, limit).0
}

/// [`unary_classes`] plus the batch engine's counters.
pub fn unary_classes_with_stats(k: u32, limit: usize) -> (Vec<Vec<usize>>, BatchStats) {
    let (mut batch, ids) = unary_batch(limit);
    let classes = batch.classify(&ids, k);
    (classes, batch.stats())
}

/// One batch solver over `{aⁿ : n ≤ limit}`. Interning in exponent order
/// makes the arena id of `aⁿ` exactly `n`, so class/position lists read
/// directly as exponent lists.
fn unary_batch(limit: usize) -> (BatchSolver, Vec<WordId>) {
    let mut arena = StructureArena::new(Alphabet::unary());
    let ids: Vec<WordId> = (0..=limit)
        .map(|n| arena.intern(&Word::from("a").pow(n)))
        .collect();
    (BatchSolver::with_config(arena, unary_config()), ids)
}

/// Unary pairs past tiny exponents share every cheap fingerprint
/// component, while their rank-2 games are the scan's whole cost — the
/// lazily-memoized rank-2 type profile is exactly the trade worth making
/// here (see [`BatchConfig::rank2_universe_cap`]).
fn unary_config() -> BatchConfig {
    BatchConfig {
        rank2_universe_cap: Some(TYPE2_UNIVERSE_CAP),
        ..BatchConfig::default()
    }
}

/// A compact rendering of the class table for reports: one line per class.
pub fn render_classes(classes: &[Vec<usize>]) -> String {
    classes
        .iter()
        .enumerate()
        .map(|(i, c)| {
            let members: Vec<String> = c.iter().map(|n| format!("a^{n}")).collect();
            format!("class {}: {{{}}}", i + 1, members.join(", "))
        })
        .collect::<Vec<_>>()
        .join("\n")
}

/// Fits a semilinear description to the *tail class* of the ≡_k partition:
/// the paper's argument implies each ≡_k class of unary words is
/// semilinear, and all large enough exponents coalesce. Returns the fitted
/// set for the class containing `limit`, if the tail is periodic on the
/// observed window.
pub fn fit_tail_class(k: u32, limit: usize) -> Option<SemilinearSet> {
    let classes = unary_classes(k, limit);
    let tail = classes.iter().find(|c| c.contains(&limit))?;
    let profile: Vec<bool> = (0..=limit).map(|n| tail.contains(&n)).collect();
    SemilinearSet::fit(&profile, limit / 2)
}

/// The semilinearity-based refutation behind Lemma 3.6, in executable
/// form: the set `{2ⁿ : n ≤ log₂(limit)}` cannot be a union of the ≡_k
/// classes once two distinct powers of two fall in one class. Returns the
/// offending class (as exponent list) — evidence that any FC sentence of
/// rank k accepting all of `L_pow` accepts a non-member.
pub fn pow2_collision(k: u32, limit: usize) -> Option<Vec<usize>> {
    let classes = unary_classes(k, limit);
    classes.into_iter().find(|c| {
        let pows: Vec<&usize> = c.iter().filter(|&&n| n > 0 && (n & (n - 1)) == 0).collect();
        let non_pows = c.iter().any(|&n| n == 0 || (n & (n - 1)) != 0);
        !pows.is_empty() && non_pows
    })
}

/// The singleton linear sets realised by small classes (for E03's table):
/// classes that are finite windows vs the coalesced tail.
pub fn classes_as_semilinear(k: u32, limit: usize) -> Vec<SemilinearSet> {
    unary_classes(k, limit)
        .into_iter()
        .map(|c| {
            // Heuristic fit: if the class has a periodic tail, fit it;
            // otherwise report it as a finite set (true on the window).
            let profile: Vec<bool> = (0..=limit).map(|n| c.contains(&n)).collect();
            SemilinearSet::fit(&profile, limit / 2).unwrap_or_else(|| {
                SemilinearSet::new(c.into_iter().map(|n| LinearSet::singleton(n as u64)))
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::equivalent;

    /// `aᵖ ≡_k a^q`, by a fresh solver.
    fn unary_equivalent(p: usize, q: usize, k: u32) -> bool {
        equivalent(&"a".repeat(p), &"a".repeat(q), k)
    }

    /// The definitional `(q, p)` scan with a fresh solver per probe.
    fn minimal_unary_pair_naive(k: u32, limit: usize) -> Option<(usize, usize)> {
        (1..=limit).find_map(|q| (1..q).find(|&p| unary_equivalent(p, q, k)).map(|p| (p, q)))
    }

    /// The definitional representative loop, a fresh solver per
    /// comparison.
    fn unary_classes_naive(k: u32, limit: usize) -> Vec<Vec<usize>> {
        let mut classes: Vec<Vec<usize>> = Vec::new();
        'next: for n in 0..=limit {
            for class in classes.iter_mut() {
                if unary_equivalent(class[0], n, k) {
                    class.push(n);
                    continue 'next;
                }
            }
            classes.push(vec![n]);
        }
        classes
    }

    #[test]
    fn rank_zero_and_one_pairs_exist() {
        // ≡_0 identifies everything with the same alphabet: a^1 ≡_0 a^2.
        assert_eq!(minimal_unary_pair(0, 4), Some((1, 2)));
        // ≡_1: a^3 ≡_1 a^4 (and nothing smaller).
        let (p, q) = minimal_unary_pair(1, 8).expect("rank-1 pair");
        assert!(unary_equivalent(p, q, 1));
        assert!(q <= 5, "minimal rank-1 pair should be small, got ({p},{q})");
    }

    #[test]
    fn batch_scan_matches_naive() {
        for (k, limit) in [(0, 10), (1, 10), (2, 16), (2, 20)] {
            assert_eq!(
                minimal_unary_pair(k, limit),
                minimal_unary_pair_naive(k, limit),
                "k={k} limit={limit}"
            );
        }
        // No pair below the minimum: both agree on None.
        assert_eq!(minimal_unary_pair(1, 3), None);
        assert_eq!(minimal_unary_pair_naive(1, 3), None);
    }

    #[test]
    fn batch_classes_match_naive() {
        for k in 0..=2u32 {
            for limit in [10, 12] {
                assert_eq!(
                    unary_classes(k, limit),
                    unary_classes_naive(k, limit),
                    "k={k} limit={limit}"
                );
            }
        }
    }

    #[test]
    fn classes_partition_and_respect_equivalence() {
        let classes = unary_classes(1, 8);
        // Partition: every exponent in exactly one class.
        let mut seen = [false; 9];
        for c in &classes {
            for &n in c {
                assert!(!seen[n], "duplicate exponent {n}");
                seen[n] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
        // Within-class equivalence; cross-class inequivalence of reps.
        for (i, c) in classes.iter().enumerate() {
            for &n in c.iter().skip(1) {
                assert!(unary_equivalent(c[0], n, 1));
            }
            for c2 in classes.iter().skip(i + 1) {
                assert!(!unary_equivalent(c[0], c2[0], 1));
            }
        }
    }

    #[test]
    fn class_count_grows_with_k() {
        let c1 = unary_classes(1, 8).len();
        let c2 = unary_classes(2, 8).len();
        assert!(c2 >= c1, "higher rank distinguishes at least as much");
    }

    #[test]
    fn tail_class_is_cofinite_on_window() {
        // At rank 1 the big exponents coalesce; the tail class fit exists.
        let s = fit_tail_class(1, 10).expect("periodic tail");
        // All large n in the window are members.
        assert!(s.contains(9) && s.contains(10));
    }

    #[test]
    fn pow2_collision_found_at_rank_1() {
        // Within exponents ≤ 10, some rank-1 class contains both a power
        // of two and a non-power — the engine of Lemma 3.6.
        let c = pow2_collision(1, 10).expect("collision");
        assert!(c.len() >= 2);
    }

    #[test]
    fn render_is_reasonable() {
        let classes = unary_classes(0, 3);
        let text = render_classes(&classes);
        assert!(text.contains("class 1"));
    }
}
