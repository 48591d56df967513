//! Hot-path perf smokes: the E08 fooling confirmation and the batch
//! classify of a word window must stay fast.
//!
//! `a¹²b¹² ≡₂ a¹⁴b¹²` took 47 s (release) on the pre-optimization solver;
//! the optimized solver decides it in well under a second. The budgets here
//! are deliberately generous (they must also pass unoptimized debug builds
//! of the *optimized* code on slow CI), but any return to the old
//! byte-comparison search — or to per-pair structure rebuilding in the
//! batch engine — blows through them by an order of magnitude;
//! `scripts/check.sh` runs these tests in release mode as tripwires.

use fc_games::hintikka;
use fc_games::solver::EfSolver;
use fc_games::{GamePair, TransTable};
use fc_words::{Alphabet, Word};
use std::sync::Arc;
use std::time::{Duration, Instant};

#[test]
fn e08_rank2_confirmation_within_budget() {
    let budget = Duration::from_secs(30);
    let start = Instant::now();
    let mut solver = EfSolver::new(GamePair::new(
        format!("{}{}", "a".repeat(12), "b".repeat(12)),
        format!("{}{}", "a".repeat(14), "b".repeat(12)),
        &Alphabet::ab(),
    ));
    assert!(solver.equivalent(2), "E08 verdict regressed");
    let elapsed = start.elapsed();
    let stats = solver.stats();
    println!(
        "E08 a12b12 ≡₂ a14b12: {elapsed:.3?} wall, {} states, {} memo hits, {} pruned",
        stats.states_explored, stats.memo_hits, stats.pruned_moves
    );
    assert!(
        elapsed < budget,
        "solver perf regression: E08 took {elapsed:?} (budget {budget:?})"
    );
}

#[test]
fn batch_classify_window4_rank2_within_budget() {
    // The batch-classify tripwire: classify all 31 words of Σ^{≤4} at
    // k = 2. The arena builds 31 structures (the naive loop built
    // ~2 per comparison), fingerprints refute most cross-class pairs, and
    // the verdict memo absorbs the rest — regressing any of those layers
    // shows up as an order-of-magnitude wall-time jump.
    let budget = Duration::from_secs(30);
    let words: Vec<Word> = Alphabet::ab().words_up_to(4).collect();
    let start = Instant::now();
    let (classes, stats) = hintikka::classes_with_stats(&words, 2);
    let elapsed = start.elapsed();
    println!(
        "batch classify Σ^≤4 k=2: {elapsed:.3?} wall, {} classes, [batch: {stats}]",
        classes.len()
    );
    assert_eq!(
        stats.structures_built,
        words.len() as u64,
        "arena must build each word exactly once"
    );
    assert!(
        elapsed < budget,
        "batch classify perf regression: took {elapsed:?} (budget {budget:?})"
    );
}

#[test]
fn e08_e09_fooling_scan_within_budget_and_profile_pruned() {
    // PR-9 regression tripwire: the E08/E09 fooling scans at limit 20 had
    // crept from ~0.21 s / ~0.72 s (PR-2) to ~0.86 s / ~2.7 s because the
    // scan words' rank-2 type profiles were silently skipped — their
    // universes exceed the default `rank2_universe_cap`, so every
    // same-class candidate pair went to the full solver. `fooling::batch`
    // now raises the cap to 512; the stats assertions below pin the
    // *mechanism* (nearly everything profile- or arith-refuted, at most a
    // few games played), which trips deterministically even on noisy or
    // contended machines, and the generous wall budget catches only
    // order-of-magnitude collapses.
    use fc_games::fooling::FoolingInstance;
    let budget = Duration::from_secs(25);
    for (name, part_b, expected_states) in [("E08", "b", 3292u64), ("E09", "ba", 7015)] {
        let inst = FoolingInstance::new("", "a", "", part_b, "", |p| p).expect("co-primitive");
        let start = Instant::now();
        let (pair, stats) = inst.fooling_pair_with_stats(2, 20);
        let elapsed = start.elapsed();
        let pair = pair.expect("rank-2 fooling pair exists at limit 20");
        assert_eq!((pair.p, pair.q), (12, 14), "{name} scan verdict regressed");
        println!("{name} scan limit 20: {elapsed:.3?} wall, [batch: {stats}]");
        assert!(
            stats.pairs_solved <= 5,
            "{name}: {} pairs reached the solver — the rank-2 profile gate \
             is no longer firing on the scan words",
            stats.pairs_solved
        );
        assert!(
            stats.rank2_refutations >= 50,
            "{name}: only {} rank-2 profile refutations",
            stats.rank2_refutations
        );
        // The one game that is played must stay the optimized-solver size.
        assert!(
            stats.solver.states_explored <= 4 * expected_states,
            "{name}: solver explored {} states (expected ~{expected_states})",
            stats.solver.states_explored
        );
        assert!(
            elapsed < budget,
            "{name} scan perf regression: took {elapsed:?} (budget {budget:?})"
        );
    }
}

#[test]
fn pr10_guided_confirmation_state_budgets() {
    // PR-10 tripwire: the guided move ordering (compat lists + delta
    // consistency + k == 1 shortcut, docs/SOLVER.md §9.4) shrank the E08
    // confirmation from 3,292 explored states to 516 and E09 from 7,015
    // to 794. State counts are deterministic — unlike wall time they trip
    // identically on slow CI — so they are the primary assertion; the
    // wall budget only catches an order-of-magnitude collapse (and must
    // still clear unoptimized debug builds).
    let budget = Duration::from_secs(30);
    for (name, w, v, max_states) in [
        (
            "E08",
            format!("{}{}", "a".repeat(12), "b".repeat(12)),
            format!("{}{}", "a".repeat(14), "b".repeat(12)),
            1200u64,
        ),
        (
            "E09",
            format!("{}{}", "a".repeat(12), "ba".repeat(12)),
            format!("{}{}", "a".repeat(14), "ba".repeat(12)),
            2000,
        ),
    ] {
        let start = Instant::now();
        let mut solver = EfSolver::new(GamePair::new(w, v, &Alphabet::ab()));
        assert!(solver.equivalent(2), "{name} verdict regressed");
        let elapsed = start.elapsed();
        let stats = solver.stats();
        println!(
            "{name} guided confirmation: {elapsed:.3?} wall, {} states, {} memo hits, {} pruned",
            stats.states_explored, stats.memo_hits, stats.pruned_moves
        );
        assert!(
            stats.states_explored <= max_states,
            "{name}: guided ordering regressed — {} states explored (budget {max_states})",
            stats.states_explored
        );
        assert!(
            elapsed < budget,
            "{name} confirmation perf regression: took {elapsed:?} (budget {budget:?})"
        );
    }
}

#[test]
fn pr10_shared_table_hit_rate_floor_on_e09_reconfirmation() {
    // PR-10 tripwire: re-deciding a game against a shared transposition
    // table must be answered out of the table, not re-searched. A fresh
    // solver attached to the populated table has an empty L1 memo, so its
    // root probe goes straight to the shared entries: zero states, and
    // the table's overall hit rate clears a hard floor. A broken key
    // (fingerprint drift between solvers) or an eviction bug drops the
    // rate to ~0 long before it shows up in wall time.
    let table = Arc::new(TransTable::new(1 << 16));
    let w = format!("{}{}", "a".repeat(12), "ba".repeat(12));
    let v = format!("{}{}", "a".repeat(14), "ba".repeat(12));
    let game = GamePair::new(w, v, &Alphabet::ab());
    assert!(EfSolver::new(game.clone())
        .with_table(Arc::clone(&table))
        .equivalent(2));
    let mut second = EfSolver::new(game).with_table(Arc::clone(&table));
    let start = Instant::now();
    assert!(second.equivalent(2), "rescan verdict regressed");
    let elapsed = start.elapsed();
    let stats = second.stats();
    let t = table.stats();
    // The table's global counters include the first pass's populating
    // misses, so the floor is on the *second solver's* probe ledger: it
    // should be all hits (ideally one — the root).
    let rate = stats.table_hits as f64 / (stats.table_hits + stats.table_misses).max(1) as f64;
    println!(
        "E09 reconfirmation: {elapsed:.3?} wall, {} states, solver probes {} hits / {} misses \
         (rate {rate:.3}), table {t:?}",
        stats.states_explored, stats.table_hits, stats.table_misses
    );
    assert_eq!(
        stats.states_explored, 0,
        "rescan re-searched {} states instead of hitting the shared table",
        stats.states_explored
    );
    assert!(stats.table_hits >= 1, "{stats:?}");
    assert!(
        rate >= 0.9,
        "shared-table rescan hit rate {rate:.3} below floor 0.9: {stats:?}"
    );
}
