//! # fc-bench — benchmark harness
//!
//! Criterion benches, one group per performance table of EXPERIMENTS.md:
//!
//! - `bench_solver` (P1): exact ≡_k decision vs word length and rank —
//!   the exponential baseline every strategy is measured against;
//! - `bench_modelcheck` (P3): FC model checking, guarded vs naive
//!   (the φ_fib ablation);
//! - `bench_strategy` (P4): composed-strategy responses vs solver
//!   decisions — the "composition beats brute force" crossover;
//! - `bench_words` (P5): suffix-automaton factor indexing vs naive
//!   enumeration, primitivity, exponents;
//! - `bench_fooling` (P6): fooling-pair search;
//! - `bench_reglang` (P7): regex → NFA → DFA → minimize → boundedness;
//! - `bench_spanners` (P8): regex-formula evaluation and the algebra.
//!
//! Shared workload generators live here in the library so benches and the
//! report binary agree on inputs.

use fc_words::Word;

/// Deterministic "pseudo-random" word over {a, b}: linear congruential,
/// reproducible across runs (no external RNG needed for workloads).
pub fn lcg_word(len: usize, seed: u64) -> Word {
    let mut state = seed
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    let mut bytes = Vec::with_capacity(len);
    for _ in 0..len {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        bytes.push(if (state >> 33) & 1 == 0 { b'a' } else { b'b' });
    }
    Word::from_bytes(bytes)
}

/// The unary powers workload: `a^n`.
pub fn unary(n: usize) -> Word {
    Word::from("a").pow(n)
}

/// The periodic workload: `(ab)^n`.
pub fn periodic(n: usize) -> Word {
    Word::from("ab").pow(n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lcg_is_deterministic() {
        assert_eq!(lcg_word(16, 7), lcg_word(16, 7));
        assert_ne!(lcg_word(16, 7), lcg_word(16, 8));
        assert_eq!(lcg_word(16, 7).len(), 16);
    }

    #[test]
    fn workload_shapes() {
        assert_eq!(unary(3).as_str(), "aaa");
        assert_eq!(periodic(2).as_str(), "abab");
    }
}
