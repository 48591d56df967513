//! Differential suite for the semilinear arithmetic fast path: every
//! verdict the [`fc_games::arith`] oracle hands out must be byte-identical
//! to the exact game solver on the `u^p ≡_k u^q` grid.
//!
//! Grid sizes are build-dependent: release runs the full `|u| ≤ 3`,
//! `p, q ≤ 20`, `k ≤ 2` acceptance grid (`scripts/check.sh` has a release
//! leg for this file); debug builds shrink the exponent range so the suite
//! stays inside the tier-1 budget — and in debug the batch engine's
//! internal `debug_assert` replays every arith verdict against a fresh
//! per-pair solver anyway, so the reduced grid loses breadth, not depth.

use fc_games::arith::{ArithOracle, ArithRoute};
use fc_games::batch::{periodic_table_builder, BatchConfig, BatchSolver, StructureArena};
use fc_games::solver::EfSolver;
use fc_games::GamePair;
use fc_words::Word;

/// Exponent ceiling of the grid (the acceptance grid is `p, q ≤ 20`).
const MAX_EXP: usize = if cfg!(debug_assertions) { 10 } else { 20 };

/// The oracle under test, with the solver-backed periodic builder the
/// batch tier uses. The window always covers the full grid.
fn arith(w: &Word, v: &Word, k: u32) -> Option<bool> {
    ArithOracle::global()
        .verdict_words(w.bytes(), v.bytes(), k, false, |root| {
            periodic_table_builder(k, root, 28)
        })
        .map(|verdict| verdict.equivalent)
}

#[test]
fn unary_grid_matches_fresh_solver() {
    // |u| = 1: every pair of the grid against a fresh per-pair EfSolver.
    // This is the ≥100×-speedup route, so it gets the direct comparison.
    let words: Vec<Word> = (0..=MAX_EXP).map(|p| Word::from("a").pow(p)).collect();
    for k in 0..=2u32 {
        for (p, w) in words.iter().enumerate() {
            for (q, v) in words.iter().enumerate() {
                let direct = EfSolver::new(GamePair::of(w.as_str(), v.as_str())).equivalent(k);
                assert_eq!(
                    arith(w, v, k),
                    Some(direct),
                    "a^{p} vs a^{q} at k={k}: oracle must be eligible and agree"
                );
            }
        }
    }
}

#[test]
fn periodic_grid_matches_exact_batch_engine() {
    // |u| ∈ {2, 3}: the oracle's solver-backed exponent tables against the
    // exact batch engine with the arith tier disabled (itself pinned
    // byte-identical to per-pair EfSolver runs by `tests/batch_diff.rs`).
    let roots = ["ab", "ba", "aab", "aba", "abb", "baa", "bab", "bba"];
    for root in roots {
        let words: Vec<Word> = (0..=MAX_EXP).map(|p| Word::from(root).pow(p)).collect();
        for k in 0..=2u32 {
            let (arena, ids) = StructureArena::for_words(&words);
            let mut exact = BatchSolver::with_config(
                arena,
                BatchConfig {
                    use_arith: false,
                    ..BatchConfig::default()
                },
            );
            let eq = exact.all_pairs(&ids, k);
            for (p, w) in words.iter().enumerate() {
                for (q, v) in words.iter().enumerate() {
                    match arith(w, v, k) {
                        Some(fast) => assert_eq!(
                            fast, eq[p][q],
                            "{root}^{p} vs {root}^{q} at k={k}: oracle disagrees with solver"
                        ),
                        // The only grid points outside the oracle's case
                        // split: ε against a non-unary power.
                        None => assert!(
                            p == 0 || q == 0,
                            "{root}^{p} vs {root}^{q} at k={k}: oracle unexpectedly ineligible"
                        ),
                    }
                }
            }
        }
    }
}

#[test]
fn oracle_routes_are_as_documented() {
    let oracle = ArithOracle::global();
    let route = |w: &str, v: &str, k: u32| {
        oracle
            .verdict_words(w.as_bytes(), v.as_bytes(), k, false, |root| {
                periodic_table_builder(k, root, 28)
            })
            .map(|verdict| verdict.route)
    };
    assert_eq!(route("abab", "abab", 2), Some(ArithRoute::Equal));
    assert_eq!(route("aaa", "aaaa", 1), Some(ArithRoute::Unary));
    assert_eq!(route("", "aa", 2), Some(ArithRoute::Unary)); // ε = a⁰
    assert_eq!(route("abab", "ababab", 0), Some(ArithRoute::RootRankZero));
    assert_eq!(route("abab", "ababab", 1), Some(ArithRoute::Periodic));
    assert_eq!(route("ab", "ba", 1), None); // different primitive roots
    assert_eq!(route("", "ab", 1), None); // ε vs a non-unary power
    assert_eq!(route("aa", "aaa", 9), None); // beyond the exact tables
}

#[test]
fn unary_tables_pin_known_minimal_pairs() {
    // The semilinear certificates must reproduce the solver-established
    // minimal unary pairs: (1, 2) at k = 0, (3, 4) at k = 1, (12, 14) at
    // k = 2 (EXPERIMENTS.md E03).
    let oracle = ArithOracle::global();
    let expected = [(0u32, (1u64, 2u64)), (1, (3, 4)), (2, (12, 14))];
    for (k, pair) in expected {
        let table = oracle.unary_table(k).expect("k <= 2 tables always build");
        assert_eq!(table.minimal_pair(), Some(pair), "k={k}");
        let (p, q) = pair;
        assert!(table.verdict(p, q), "k={k}: the minimal pair is equivalent");
        for b in 0..p {
            assert!(
                !table.verdict(b, q),
                "k={k}: a^{b} ≡ a^{q} contradicts minimality"
            );
        }
    }
}
