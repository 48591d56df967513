//! Differential suite for the batch ≡_k engine: every optimisation of
//! `crates/core/src/batch.rs` (shared arena, verdict memo, fingerprint
//! and rank-2 profile pruning) must be byte-identical to the definitional
//! per-pair solver on the exhaustive Σ^{≤4} window.

use fc_games::batch::{BatchConfig, BatchSolver, StructureArena};
use fc_games::fingerprint::TYPE2_UNIVERSE_CAP;
use fc_games::hintikka;
use fc_games::solver::EfSolver;
use fc_games::GamePair;
use fc_words::{Alphabet, Word};

fn window(max_len: usize) -> Vec<Word> {
    Alphabet::ab().words_up_to(max_len).collect()
}

#[test]
fn classify_equals_naive_on_exhaustive_window() {
    // The tentpole differential: batch classify (arena + memo +
    // fingerprints + union-find) vs the naive representative loop, on all
    // 31 words of Σ^{≤4}, for every rank ≤ 2.
    let words = window(4);
    for k in 0..=2u32 {
        assert_eq!(
            hintikka::classes(&words, k),
            hintikka::classes_naive(&words, k),
            "k={k}"
        );
    }
}

#[test]
fn batch_verdicts_equal_fresh_solver_verdicts() {
    // Every single verdict the batch engine hands out — memoized,
    // fingerprint-refuted, or solver-decided — must equal a fresh
    // per-pair solver run over the same (window-union) alphabet.
    let words = window(3);
    let (arena, ids) = StructureArena::for_words(&words);
    let sigma = arena.alphabet().clone();
    let mut batch = BatchSolver::new(arena);
    for k in 0..=2u32 {
        let eq = batch.all_pairs(&ids, k);
        for (i, w) in words.iter().enumerate() {
            for (j, v) in words.iter().enumerate() {
                let direct =
                    EfSolver::new(GamePair::new(w.clone(), v.clone(), &sigma)).equivalent(k);
                assert_eq!(eq[i][j], direct, "w={w} v={v} k={k}");
            }
        }
    }
}

#[test]
fn rank2_profile_path_is_invisible() {
    // The lazily-computed rank-2 type profile is a pure filter: enabling
    // it on the exhaustive binary window must not change a single class
    // (every profile-refuted pair is also solver-inequivalent). In debug
    // builds the engine additionally replays the solver on each
    // profile-refuted pair via its internal debug_assert.
    let words = window(4);
    for k in 0..=2u32 {
        let (arena, ids) = StructureArena::for_words(&words);
        let mut with_rank2 = BatchSolver::with_config(
            arena,
            BatchConfig {
                rank2_universe_cap: Some(TYPE2_UNIVERSE_CAP),
                ..BatchConfig::default()
            },
        );
        let (arena2, ids2) = StructureArena::for_words(&words);
        let mut default = BatchSolver::new(arena2);
        assert_eq!(
            with_rank2.classify(&ids, k),
            default.classify(&ids2, k),
            "k={k}"
        );
        if k == 2 {
            assert!(
                with_rank2.stats().rank2_refutations > 0,
                "the profile should decide at least one rank-2 pair on this window"
            );
        }
    }
}

#[test]
fn window_alphabet_padding_never_changes_verdicts() {
    // Satellite regression: the batch engine plays every pair over the
    // *window-union* alphabet, while the old per-pair loop used the joint
    // alphabet of just the two words. Padding Σ with letters absent from
    // both words must not change any verdict (the padded constants
    // interpret as consistent (⊥, ⊥) pairs that only pre-pin the forced
    // ⊥ ↦ ⊥ response).
    let words = window(3);
    let wide = Alphabet::abc(); // 'c' occurs in no window word
    for w in &words {
        for v in &words {
            for k in 0..=2u32 {
                let joint = EfSolver::new(GamePair::of(w.as_str(), v.as_str())).equivalent(k);
                let padded =
                    EfSolver::new(GamePair::new(w.clone(), v.clone(), &wide)).equivalent(k);
                assert_eq!(joint, padded, "w={w} v={v} k={k}");
            }
        }
    }
}
