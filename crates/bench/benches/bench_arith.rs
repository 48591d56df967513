//! P10 — the semilinear arithmetic tier: O(1) unary/periodic ≡_k
//! verdicts vs the exact solver, table build costs, and the arith-tier
//! ablation on the E03 unary scan. The ≥100× unary-verdict acceptance
//! bound of the arith tier is measured here (its figures are recorded in
//! the frozen BENCH_PR9.json).

use criterion::{criterion_group, criterion_main, Criterion};
use fc_games::arith::{unary_class_table, ArithOracle};
use fc_games::batch::{periodic_table_builder, BatchConfig, BatchSolver, StructureArena};
use fc_games::solver::EfSolver;
use fc_games::{pow2, GamePair};
use fc_words::Word;

/// The headline: the k = 2 minimal-pair verdict `a¹² ≡₂ a¹⁴` as a warm
/// table lookup vs a fresh exact solver run. The acceptance bound of the
/// arith-tier PR (≥100×) is the ratio of these two legs.
fn arith_unary_verdict(c: &mut Criterion) {
    let oracle = ArithOracle::global();
    oracle.unary_table(2); // warm: the tier amortises the build per process
    let mut g = c.benchmark_group("P10-unary-verdict");
    g.bench_function("oracle-a12-a14-k2", |b| {
        b.iter(|| oracle.unary_verdict(12, 14, 2))
    });
    g.bench_function("solver-a12-a14-k2", |b| {
        b.iter(|| EfSolver::of(&"a".repeat(12), &"a".repeat(14)).equivalent(2))
    });
    g.finish();
}

/// Cold table builds (k ≤ 2 are the on-demand ones; k = 3 is opt-in and
/// benched out-of-band by the E03 runner, not here — minutes, not µs).
fn arith_table_build(c: &mut Criterion) {
    let mut g = c.benchmark_group("P10-table-build");
    g.sample_size(10);
    for k in 0..=2u32 {
        g.bench_function(format!("unary-table-k{k}"), |b| {
            b.iter(|| unary_class_table(k, fc_games::arith::default_window(k)).unwrap())
        });
    }
    g.bench_function("periodic-table-ab-k2-window28", |b| {
        b.iter(|| periodic_table_builder(2, &Word::from("ab"), 28).unwrap())
    });
    g.finish();
}

/// The E03 minimal-pair scan and a purely-unary batch classify, with and
/// without the arith tier (the tier answers every pair, so the batch
/// builds zero structures and plays zero games).
fn arith_batch_ablation(c: &mut Criterion) {
    ArithOracle::global().unary_table(2);
    let words: Vec<Word> = (0..=20).map(|p| Word::from("a").pow(p)).collect();
    let mut g = c.benchmark_group("P10-batch-ablation");
    g.bench_function("scan-k2-limit20", |b| {
        b.iter(|| pow2::minimal_unary_pair(2, 20))
    });
    for (name, use_arith) in [("classify-arith", true), ("classify-exact", false)] {
        g.bench_function(format!("{name}-k2-limit20"), |b| {
            b.iter(|| {
                let (arena, ids) = StructureArena::for_words(&words);
                let mut batch = BatchSolver::with_config(
                    arena,
                    BatchConfig {
                        use_arith,
                        ..BatchConfig::default()
                    },
                );
                batch.classify(&ids, 2)
            })
        });
    }
    g.finish();
}

/// The periodic route: `(ab)¹² ≡₂ (ab)¹⁴` as a warm exponent-table
/// lookup vs a fresh solver game on the length-24/28 pair.
fn arith_periodic_verdict(c: &mut Criterion) {
    let oracle = ArithOracle::global();
    let root = Word::from("ab");
    oracle.periodic_table(2, &root, || {
        Some(periodic_table_builder(2, &root, 28).unwrap())
    });
    let w = root.pow(12);
    let v = root.pow(14);
    let mut g = c.benchmark_group("P10-periodic-verdict");
    g.bench_function("oracle-ab12-ab14-k2", |b| {
        b.iter(|| ArithOracle::global().verdict_words(w.bytes(), v.bytes(), 2, false, |_| None))
    });
    g.bench_function("solver-ab12-ab14-k2", |b| {
        b.iter(|| EfSolver::new(GamePair::of(w.as_str(), v.as_str())).equivalent(2))
    });
    g.finish();
}

criterion_group!(
    benches,
    arith_unary_verdict,
    arith_table_build,
    arith_batch_ablation,
    arith_periodic_verdict
);
criterion_main!(benches);
