//! ≡_k partitions of word sets (the finite-window analogue of rank-k
//! Hintikka types).
//!
//! By Theorem 3.5, `≡_k` is an equivalence relation on words, with one
//! class per rank-k type realised. Partitioning a window of words into
//! classes quantifies "how much FC can see at rank k" — used by the
//! experiment harness to chart class counts against `k` and word length.
//!
//! All entry points run on the bulk engine of [`crate::batch`]: one
//! [`StructureArena`] over the window's union alphabet builds each word's
//! structure exactly once, fingerprints refute cross-class pairs without a
//! game, and the verdict memo makes symmetric comparisons free. Every word
//! of the window enters one arena over the *union* Σ; this is sound
//! because padding Σ with letters absent from both words of a pair never
//! changes a verdict (the extra (⊥, ⊥) constant pairs only pre-pin the
//! already-forced ⊥ ↦ ⊥ response — see [`crate::batch`] and the
//! `alphabet_padding_is_verdict_invariant` regression test). The
//! definitional per-pair loop is kept as [`classes_naive`] for the
//! differential suite and the benchmark's output checks.

use crate::batch::{BatchSolver, BatchStats, StructureArena, WordId};
use crate::solver::EfSolver;
use crate::GamePair;
use fc_words::Word;

/// Partitions `words` into ≡_k classes (each class keeps input order;
/// classes ordered by first member).
pub fn classes(words: &[Word], k: u32) -> Vec<Vec<Word>> {
    classes_with_stats(words, k).0
}

/// [`classes`] plus the batch engine's counters, for report rows.
pub fn classes_with_stats(words: &[Word], k: u32) -> (Vec<Vec<Word>>, BatchStats) {
    let (mut batch, ids) = batch_over(words);
    let partition = batch.classify(&ids, k);
    (materialize(words, partition), batch.stats())
}

/// The definitional representative loop: a fresh solver and two fresh
/// structures per comparison. Kept as the differential baseline for the
/// batch engine (`classes == classes_naive` on the exhaustive window) and
/// as the reference the benchmark checks `classify` outputs against.
pub fn classes_naive(words: &[Word], k: u32) -> Vec<Vec<Word>> {
    let mut classes: Vec<Vec<Word>> = Vec::new();
    'next: for w in words {
        for class in classes.iter_mut() {
            let rep = &class[0];
            let mut solver = EfSolver::new(GamePair::new(
                rep.clone(),
                w.clone(),
                &fc_words::Alphabet::from_symbols(b""),
            ));
            if solver.equivalent(k) {
                class.push(w.clone());
                continue 'next;
            }
        }
        classes.push(vec![w.clone()]);
    }
    classes
}

/// Class count only (cheaper to report).
pub fn class_count(words: &[Word], k: u32) -> usize {
    classes(words, k).len()
}

/// Checks that `≡_k` behaved as an equivalence relation on the window
/// (reflexive by construction; symmetric/transitivity spot-check via
/// cross-comparisons). Returns a violating triple if any — which would
/// contradict Theorem 3.5.
///
/// The verdict matrix is produced by [`BatchSolver::all_pairs`]: only the
/// upper triangle is solved (the memo mirrors the lower half), the
/// diagonal is reflexivity, and fingerprint-refuted pairs never reach the
/// solver. The symmetry leg of the check is therefore structural; the
/// transitivity scan over the matrix is unchanged.
pub fn check_equivalence_laws(words: &[Word], k: u32) -> Option<(Word, Word, Word)> {
    let (mut batch, ids) = batch_over(words);
    let eq = batch.all_pairs(&ids, k);
    let n = words.len();
    for i in 0..n {
        if !eq[i][i] {
            return Some((words[i].clone(), words[i].clone(), words[i].clone()));
        }
        for j in 0..n {
            if eq[i][j] != eq[j][i] {
                return Some((words[i].clone(), words[j].clone(), words[j].clone()));
            }
            for l in 0..n {
                if eq[i][j] && eq[j][l] && !eq[i][l] {
                    return Some((words[i].clone(), words[j].clone(), words[l].clone()));
                }
            }
        }
    }
    None
}

/// One batch solver over the window's union alphabet, plus the interned
/// ids aligned with `words`.
fn batch_over(words: &[Word]) -> (BatchSolver, Vec<WordId>) {
    let (arena, ids) = StructureArena::for_words(words);
    (BatchSolver::new(arena), ids)
}

/// Turns a position partition back into word classes.
fn materialize(words: &[Word], partition: Vec<Vec<usize>>) -> Vec<Vec<Word>> {
    partition
        .into_iter()
        .map(|class| class.into_iter().map(|pos| words[pos].clone()).collect())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fc_words::Alphabet;

    #[test]
    fn partition_of_short_binary_words() {
        let sigma = Alphabet::ab();
        let words: Vec<Word> = sigma.words_up_to(2).collect();
        // Rank 2 should distinguish all 7 words of length ≤ 2 pairwise…
        let c2 = classes(&words, 2);
        // … and rank 0 at most groups by occurring-symbol sets.
        let c0 = classes(&words, 0);
        assert!(c2.len() >= c0.len());
        assert!(c0.len() <= 4); // symbol sets: {}, {a}, {b}, {a,b}
    }

    #[test]
    fn rank_zero_groups_by_alphabet() {
        let words = vec![
            Word::from("a"),
            Word::from("aa"),
            Word::from("b"),
            Word::from("ab"),
            Word::from("ba"),
        ];
        let c = classes(&words, 0);
        // {a, aa}, {b}, {ab, ba}
        assert_eq!(c.len(), 3);
    }

    #[test]
    fn batch_partition_matches_naive() {
        let sigma = Alphabet::ab();
        let words: Vec<Word> = sigma.words_up_to(3).collect();
        for k in 0..=2u32 {
            assert_eq!(classes(&words, k), classes_naive(&words, k), "k={k}");
        }
    }

    #[test]
    fn stats_report_batch_activity() {
        let sigma = Alphabet::ab();
        let words: Vec<Word> = sigma.words_up_to(3).collect();
        let (_, stats) = classes_with_stats(&words, 1);
        // Lazy arena: at most one structure per word, and the unary words
        // the arithmetic tier fully absorbs may build none at all.
        assert!(stats.structures_built <= words.len() as u64);
        assert!(stats.structures_built > 0);
        assert!(stats.fingerprint_refutations > 0);
        assert!(stats.pairs_solved > 0);
    }

    #[test]
    fn equivalence_laws_hold_on_window() {
        let sigma = Alphabet::unary();
        let words: Vec<Word> = sigma.words_up_to(6).collect();
        assert_eq!(check_equivalence_laws(&words, 1), None);
    }

    #[test]
    fn class_count_monotone_in_rank() {
        let sigma = Alphabet::unary();
        let words: Vec<Word> = sigma.words_up_to(8).collect();
        let c0 = class_count(&words, 0);
        let c1 = class_count(&words, 1);
        let c2 = class_count(&words, 2);
        assert!(c0 <= c1 && c1 <= c2, "{c0} {c1} {c2}");
    }
}
