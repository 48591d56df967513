//! Count tripwire for the solver's guided search: on fixed pairs, the
//! verdict and the deterministic search counters must match the values
//! the pairwise guide construction produced. The guide's response lists
//! (seed-compatible responses, mirror first, then by length distance,
//! ties by id) steer which states the search visits, so a reordered or
//! widened list moves `states_explored`, `memo_hits` or `pruned_moves`
//! here, even when every verdict stays right.

use fc_games::solver::EfSolver;
use fc_games::GamePair;
use fc_words::Alphabet;

/// `(w, v, k, verdict, states_explored, memo_hits, pruned_moves)`.
type Case = (String, String, u32, bool, u64, u64, u64);

fn cases() -> Vec<Case> {
    let s = |w: &str| w.to_string();
    vec![
        // E08: the Fooling-Lemma confirmation a¹²b¹² ≡₂ a¹⁴b¹².
        (
            "a".repeat(12) + &"b".repeat(12),
            "a".repeat(14) + &"b".repeat(12),
            2,
            true,
            516,
            189,
            3089,
        ),
        // Batch-sized refutations: near-periodic, renamed, same-root and
        // block-power words of 8–16 letters.
        (s("abaababaabaab"), s("abaababaababa"), 2, false, 48, 0, 160),
        (s("aaaaabababab"), s("aaaaababababab"), 2, false, 66, 0, 258),
        (
            s("aabbaabbaabbaabb"),
            s("aabbaabbaabbaab"),
            2,
            false,
            71,
            0,
            334,
        ),
        (
            s("abbbabbbabbb"),
            s("abbbabbbabbbabbb"),
            2,
            false,
            74,
            0,
            343,
        ),
        (s("abababababab"), s("babababababa"), 2, false, 28, 0, 127),
        (s("aaabbbbbb"), s("aaabbbbbbbb"), 2, false, 41, 0, 178),
        // A rank-1 confirmation: every first move has a compatible reply.
        (s("aaabaaab"), s("aaabaaaab"), 1, true, 1, 0, 6),
        // Two random 72-letter words on the succinct backend, |U| = 2276 ×
        // 2298 > 2²²: games this large are guided like any other, so this
        // pins their search order too.
        (
            s("abababbbabbbbabbbaabbbbababaaaabbaaaaabababaaaaaaabbbbaaaaaaaabaaaaaaaab"),
            s("aabaaabaabbbabbaaaaabbbbaaabbbbbbaabaaabbaaabbabbbaaaaaaabbbabaaaabbbbba"),
            2,
            false,
            2,
            0,
            6,
        ),
    ]
}

#[test]
fn guided_search_counters_are_pinned() {
    for (w, v, k, verdict, states, memo_hits, pruned) in cases() {
        let mut solver = EfSolver::new(GamePair::new(w.as_str(), v.as_str(), &Alphabet::ab()));
        assert_eq!(solver.equivalent(k), verdict, "{w} vs {v} at k = {k}");
        let stats = solver.stats();
        assert_eq!(
            (stats.states_explored, stats.memo_hits, stats.pruned_moves),
            (states, memo_hits, pruned),
            "{w} vs {v} at k = {k}: (states, memo hits, pruned moves) moved"
        );
    }
}
