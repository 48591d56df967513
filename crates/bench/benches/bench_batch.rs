//! P9 — the bulk ≡_k engine: batch classify vs the naive per-pair loop,
//! fingerprint ablation, and the parallel pair grid. The ≥5× acceptance
//! bound of the batch engine is measured here (its figures are recorded
//! in the frozen BENCH_PR5.json).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fc_games::batch::{BatchConfig, BatchSolver, StructureArena};
use fc_games::{hintikka, pow2};
use fc_words::{Alphabet, Word};

fn window(max_len: usize) -> Vec<Word> {
    Alphabet::ab().words_up_to(max_len).collect()
}

/// The headline ablation: naive per-pair loop vs arena (no fingerprints)
/// vs arena + fingerprints vs the parallel grid, all on Σ^{≤4} at k = 2.
fn batch_classify(c: &mut Criterion) {
    let words = window(4);
    let mut g = c.benchmark_group("P9-batch-classify");
    g.sample_size(10);
    g.bench_function("naive-window4-k2", |b| {
        b.iter(|| hintikka::classes_naive(&words, 2))
    });
    g.bench_function("arena-window4-k2", |b| {
        b.iter(|| {
            let (arena, ids) = StructureArena::for_words(&words);
            let mut batch = BatchSolver::with_config(
                arena,
                BatchConfig {
                    use_fingerprints: false,
                    use_rank2_profiles: false,
                    use_arith: false,
                    ..BatchConfig::default()
                },
            );
            batch.classify(&ids, 2)
        })
    });
    g.bench_function("arena-fp-window4-k2", |b| {
        b.iter(|| hintikka::classes(&words, 2))
    });
    for threads in [2usize, 4] {
        g.bench_with_input(
            BenchmarkId::new("parallel-window4-k2", threads),
            &threads,
            |b, &threads| b.iter(|| hintikka::classes_parallel(&words, 2, threads)),
        );
    }
    g.finish();
}

/// The E03 minimal-pair scan: batch vs naive at the rank-2 Full limit.
fn batch_minimal_pair(c: &mut Criterion) {
    let mut g = c.benchmark_group("P9-minimal-pair");
    g.sample_size(10);
    g.bench_function("naive-k2-limit20", |b| {
        b.iter(|| pow2::minimal_unary_pair_naive(2, 20))
    });
    g.bench_function("batch-k2-limit20", |b| {
        b.iter(|| pow2::minimal_unary_pair(2, 20))
    });
    g.bench_function("batch-k2-limit40", |b| {
        b.iter(|| pow2::minimal_unary_pair(2, 40))
    });
    g.finish();
}

/// Unary class tables, batch vs naive (the other half of E03).
fn batch_unary_classes(c: &mut Criterion) {
    let mut g = c.benchmark_group("P9-unary-classes");
    g.sample_size(10);
    g.bench_function("naive-k2-limit14", |b| {
        b.iter(|| pow2::unary_classes_naive(2, 14))
    });
    g.bench_function("batch-k2-limit14", |b| {
        b.iter(|| pow2::unary_classes(2, 14))
    });
    g.bench_function("batch-par4-k2-limit14", |b| {
        b.iter(|| pow2::unary_classes_parallel(2, 14, 4))
    });
    g.finish();
}

criterion_group!(
    benches,
    batch_classify,
    batch_minimal_pair,
    batch_unary_classes
);
criterion_main!(benches);
