//! Release-mode performance smoke: model checking φ_fib on the n = 4
//! member of L_fib must finish comfortably inside a generous budget.
//!
//! This is a regression tripwire for the staged evaluator, not a
//! benchmark: before guard-directed evaluation this check was
//! astronomically out of reach (the naive grid is |U|^{#quantifiers}),
//! and a plan-layer regression that silently dropped guard blocks would
//! blow the budget by orders of magnitude. `scripts/check.sh` runs this
//! with `--release`; in debug builds the test is skipped so `cargo test`
//! stays fast.

use fc_logic::eval::Assignment;
use fc_logic::plan::{EvalStats, Plan};
use fc_logic::{library, BackendKind, FactorStructure};
use fc_words::{fibonacci, Alphabet, Word};
use std::time::{Duration, Instant};

#[test]
fn phi_fib_accepts_the_n4_member_within_budget() {
    if cfg!(debug_assertions) {
        eprintln!("perf smoke skipped in debug build (run with --release)");
        return;
    }
    let budget = Duration::from_secs(30);
    let phi = library::phi_fib();
    let member = fibonacci::l_fib_member(4);
    let sigma = Alphabet::abc();

    let t = Instant::now();
    let plan = Plan::compile(&phi);
    let compile_time = t.elapsed();

    let s = FactorStructure::new(member.clone(), &sigma);
    let mut stats = EvalStats::default();
    let accepted = plan.eval_with_stats(&s, &Assignment::new(), &mut stats);
    let total = t.elapsed();

    assert!(accepted, "φ_fib rejected the n = 4 member of L_fib");
    eprintln!(
        "perf smoke: |w| = {}, compile {compile_time:.2?}, total {total:.2?}; {}",
        member.len(),
        stats.render()
    );
    assert!(
        total < budget,
        "φ_fib on the n = 4 member took {total:?} (budget {budget:?})"
    );
}

#[test]
fn dense_build_stays_linear_in_the_table() {
    if cfg!(debug_assertions) {
        eprintln!("dense build perf smoke skipped in debug build (run with --release)");
        return;
    }
    // Tripwire for `DenseBackend::build`: all 4,096 words of {a,b}^12 and
    // 500 seeded random 40-letter words over {a,b,c}. The budget is ~20×
    // the measured time; a return to hashing owned factors or probing an
    // interner per split would not blow it, but a super-cubic build would.
    let budget = Duration::from_secs(2);
    let sigma = Alphabet::abc();
    let mut words: Vec<Word> = (0u32..1 << 12)
        .map(|bits| {
            let bytes: Vec<u8> = (0..12)
                .map(|i| if bits >> i & 1 == 0 { b'a' } else { b'b' })
                .collect();
            Word::from(bytes.as_slice())
        })
        .collect();
    let mut seed = 0x9e3779b97f4a7c15u64;
    for _ in 0..500 {
        let bytes: Vec<u8> = (0..40)
            .map(|_| {
                seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
                b"abc"[(seed >> 33) as usize % 3]
            })
            .collect();
        words.push(Word::from(bytes.as_slice()));
    }

    let t = Instant::now();
    let mut factors = 0usize;
    for w in &words {
        let s = FactorStructure::with_backend(w.clone(), &sigma, BackendKind::Dense);
        factors += s.universe_len();
    }
    let total = t.elapsed();
    eprintln!(
        "dense build perf smoke: {} structures, {factors} factors, total {total:.2?}, \
         {:.1} µs per structure",
        words.len(),
        total.as_secs_f64() * 1e6 / words.len() as f64
    );
    assert!(
        total < budget,
        "dense build of {} words took {total:?} (budget {budget:?})",
        words.len()
    );
}

#[test]
fn succinct_backend_scales_to_ten_thousand_letters() {
    if cfg!(debug_assertions) {
        eprintln!("structure perf smoke skipped in debug build (run with --release)");
        return;
    }
    // Tripwire for the suffix-automaton backend: building 𝔄_w for
    // |w| = 10⁴ and answering 10³ id_of probes must stay well under a
    // second (perfbench's `structure.build_us_per_kletter` tracks the
    // real figure; this budget only has to catch an accidental return to
    // Θ(m²) behaviour, which would blow it by orders of magnitude).
    let build_budget = Duration::from_secs(2);
    let probe_budget = Duration::from_secs(1);
    let w = Word::from("ab").pow(5_000); // |w| = 10⁴
    let sigma = Alphabet::abc();

    let t = Instant::now();
    let s = FactorStructure::with_backend(w.clone(), &sigma, BackendKind::Succinct);
    let build = t.elapsed();
    assert_eq!(s.backend_kind(), BackendKind::Succinct);

    let n = w.len();
    let mut seed = 0x9e3779b97f4a7c15u64;
    let mut sample = |bound: usize| {
        seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        (seed >> 33) as usize % bound
    };
    let t = Instant::now();
    let mut hits = 0usize;
    for _ in 0..1_000 {
        let i = sample(n + 1);
        let j = i + sample(n + 1 - i);
        if s.id_of(&w.bytes()[i..j]).is_some() {
            hits += 1;
        }
    }
    let probes = t.elapsed();
    assert_eq!(hits, 1_000, "every window of w is a factor");

    let bytes_per_factor = s.memory_bytes() as f64 / s.universe_len() as f64;
    eprintln!(
        "structure perf smoke: |w| = {n}, {} factors, build {build:.2?}, \
         10³ probes {probes:.2?}, {bytes_per_factor:.1} bytes/factor",
        s.universe_len()
    );
    assert!(
        build < build_budget,
        "succinct build of |w| = 10⁴ took {build:?} (budget {build_budget:?})"
    );
    assert!(
        probes < probe_budget,
        "10³ id_of probes took {probes:?} (budget {probe_budget:?})"
    );
}
