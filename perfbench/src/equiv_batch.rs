//! `equiv_batch`: bulk ≡₂ jobs through the library, one thread.
//!
//! Most ops classify a seeded batch of words at k = 2 the way
//! `hintikka::classes` does (`StructureArena::for_words` + a fresh
//! `BatchSolver` + `classify`). The batch mixes random words, unary and
//! same-root powers, fooling-family words aᵖbᵠ / aᵖ(ba)ᵠ, letter-renamed
//! copies and exact duplicates, so every tier of the cascade sees work:
//! on random words alone fingerprints refute ~95% of pairs and the arith
//! and canonical tiers see nothing. A fixed share of ops are Fooling-Lemma
//! searches (`FoolingInstance::fooling_pair`), which run the rank-2 tier
//! and `equivalent_auto`.

use crate::common::{self, Cfg, Layers, Outcome, Rng, Timing};
use crate::trace::Tracer;
use fc_games::fooling::{FoolingInstance, FoolingPair};
use fc_games::{
    hintikka, ArithOracle, BatchSolver, BatchStats, EfSolver, GamePair, StructureArena, WordId,
};
use fc_words::{Alphabet, Word};
use std::ops::Range;
use std::time::Instant;

/// Ops per second of `--seconds` (sets the fixed op count of a run).
const NOMINAL_OPS_PER_S: u64 = 320;
const K: u32 = 2;
const BATCH: usize = 16;
/// Op `i` is a rank-2 fooling search when `i % 200 == 100` (0.5% of ops,
/// so `p99_us` sits in the classify tail rather than on the boundary
/// between the two op kinds) and a rank-1 search when `i % 100 == 50`.
const FOOLING2_EVERY: usize = 200;
const FOOLING1_EVERY: usize = 100;
const FOOLING_LIMIT: usize = 20;
/// Rank-2 instances whose searches cost about the same (150–210 ms on a
/// 2-core container); [`jobs`] takes them in turn.
const FOOLING2: [[&str; 5]; 4] = [
    ["", "a", "", "b", ""],
    ["b", "a", "", "b", ""],
    ["", "a", "b", "b", ""],
    ["", "ab", "", "b", ""],
];
const FOOLING1: [[&str; 5]; 4] = [
    ["", "a", "", "ba", ""],
    ["", "aab", "", "b", ""],
    ["a", "ab", "", "b", "a"],
    ["", "a", "bb", "b", ""],
];
/// Classify ops whose partition is re-derived with `classes_naive`.
const NAIVE_SAMPLES: usize = 24;
const WARMUP_BATCHES: usize = 80;

enum Job {
    Classify(Vec<Word>),
    Fooling { k: u32, blocks: [&'static str; 5] },
}

fn batch(rng: &mut Rng) -> Vec<Word> {
    let mut words: Vec<String> = Vec::with_capacity(BATCH);
    for _ in 0..4 {
        let len = rng.range(8, 16) as usize;
        words.push(rng.word(b"ab", len));
    }
    for _ in 0..2 {
        let letter = ["a", "b"][rng.below(2)];
        words.push(letter.repeat(rng.range(1, 40) as usize));
    }
    for _ in 0..2 {
        let root = ["ab", "aab", "abb"][rng.below(3)];
        words.push(root.repeat(rng.range(1, 6) as usize));
    }
    for _ in 0..3 {
        let p = "a".repeat(rng.range(1, 6) as usize);
        words.push(if rng.below(2) == 0 {
            p + &"b".repeat(rng.range(1, 6) as usize)
        } else {
            p + &"ba".repeat(rng.range(1, 4) as usize)
        });
    }
    for _ in 0..3 {
        let src = &words[rng.below(words.len())];
        let renamed = src
            .chars()
            .map(|c| if c == 'a' { 'b' } else { 'a' })
            .collect();
        words.push(renamed);
    }
    for _ in 0..2 {
        let src = words[rng.below(words.len())].clone();
        words.push(src);
    }
    debug_assert_eq!(words.len(), BATCH);
    rng.shuffle(&mut words);
    words.iter().map(|w| Word::from(w.as_str())).collect()
}

/// The jobs of a run. The fooling searches take their instances in turn
/// (from a seeded start), so every run of whole rounds searches each
/// instance equally often. The rank-2 searches take about a third of the
/// run's time, so even their instances' small cost differences would
/// otherwise move throughput from seed to seed.
fn jobs(seed: u64, n: usize) -> Vec<Job> {
    let mut rng = Rng::new(seed);
    let start = rng.below(FOOLING2.len());
    (0..n)
        .map(|i| {
            if i % FOOLING2_EVERY == FOOLING2_EVERY / 2 {
                Job::Fooling {
                    k: 2,
                    blocks: FOOLING2[(start + i / FOOLING2_EVERY) % FOOLING2.len()],
                }
            } else if i % FOOLING1_EVERY == FOOLING1_EVERY / 2 {
                Job::Fooling {
                    k: 1,
                    blocks: FOOLING1[(start + i / FOOLING1_EVERY) % FOOLING1.len()],
                }
            } else {
                Job::Classify(batch(&mut rng))
            }
        })
        .collect()
}

pub fn input_digest(seed: u64) -> Vec<u8> {
    let mut out = Vec::new();
    for job in jobs(seed, 400) {
        match job {
            Job::Classify(words) => {
                for w in words {
                    out.extend_from_slice(w.bytes());
                    out.push(b',');
                }
            }
            Job::Fooling { k, blocks } => {
                out.extend_from_slice(format!("fool{k}:{}", blocks.join("|")).as_bytes())
            }
        }
        out.push(b'\n');
    }
    out
}

fn instance(blocks: &[&str; 5]) -> FoolingInstance {
    let [w1, u, w2, v, w3] = *blocks;
    FoolingInstance::new(w1, u, w2, v, w3, |p| p).expect("instances are co-primitive")
}

/// What one op produced, kept for the output checks and layer metrics.
enum Answer {
    Classes {
        classes: Vec<Vec<usize>>,
        ids: Vec<WordId>,
        stats: BatchStats,
        evictions: u64,
    },
    Fooling(Option<FoolingPair>, BatchStats),
}

/// Runs one op; `tr` adds spans around the calls into the library.
fn execute(job: &Job, op: u64, mut tr: Option<&mut Tracer>) -> Answer {
    match job {
        Job::Classify(words) => {
            let (arena, ids) = match tr.as_deref_mut() {
                Some(t) => t.leaf("for_words", op, || StructureArena::for_words(words)),
                None => StructureArena::for_words(words),
            };
            let mut solver = BatchSolver::new(arena);
            let classes = match tr {
                Some(t) => t.leaf("classify", op, || solver.classify(&ids, K)),
                None => solver.classify(&ids, K),
            };
            // Table counters come from the table itself: `BatchStats`
            // folds root probes and in-search probes together.
            let table = solver.table_stats();
            let mut stats = solver.stats();
            stats.solver.table_hits = table.hits;
            stats.solver.table_misses = table.misses;
            Answer::Classes {
                classes,
                ids,
                stats,
                evictions: table.evictions,
            }
        }
        Job::Fooling { k, blocks } => {
            let inst = instance(blocks);
            let (pair, stats) = match tr {
                Some(t) => t.leaf("fooling_pair", op, || {
                    inst.fooling_pair_with_stats(*k, FOOLING_LIMIT)
                }),
                None => inst.fooling_pair_with_stats(*k, FOOLING_LIMIT),
            };
            Answer::Fooling(pair, stats)
        }
    }
}

/// Non-reflexive pair queries `BatchSolver::classify` made for this
/// partition: the representative scan replayed on the known classes (each
/// candidate stops at its own class's representative; a query of a word
/// against itself is answered before any tier).
fn classify_queries(ids: &[WordId], classes: &[Vec<usize>]) -> u64 {
    let mut class_of = vec![0usize; ids.len()];
    for (c, members) in classes.iter().enumerate() {
        for &m in members {
            class_of[m] = c;
        }
    }
    let mut queries = 0u64;
    let mut reps: Vec<usize> = Vec::new();
    'next: for pos in 0..ids.len() {
        for &rep in &reps {
            if ids[rep] != ids[pos] {
                queries += 1;
            }
            if class_of[rep] == class_of[pos] {
                continue 'next;
            }
        }
        reps.push(pos);
    }
    queries
}

fn warmup() {
    for job in jobs(0x3a11_f00d, WARMUP_BATCHES) {
        execute(&job, 0, None);
    }
    execute(
        &Job::Fooling {
            k: 1,
            blocks: FOOLING1[0],
        },
        0,
        None,
    );
}

/// The set-up of a fresh process, timed: the warm-up pass, which also
/// builds the arithmetic oracle's tables on first use.
pub fn setup_probe() -> f64 {
    let t0 = Instant::now();
    warmup();
    t0.elapsed().as_secs_f64()
}

/// Times every op of `jobs[range]`, appending the answers.
fn pass(
    jobs: &[Job],
    range: Range<usize>,
    answers: &mut Vec<Answer>,
    mut tr: Option<&mut Tracer>,
) -> Timing {
    let mut latency_ns = Vec::with_capacity(range.len());
    let t0 = Instant::now();
    for i in range {
        let t = Instant::now();
        let answer = match tr.as_deref_mut() {
            Some(tracer) => {
                let span = tracer.begin("op", i as u64);
                let a = execute(&jobs[i], i as u64, Some(&mut *tracer));
                tracer.end(span);
                a
            }
            None => execute(&jobs[i], i as u64, None),
        };
        latency_ns.push(t.elapsed().as_nanos() as u64);
        answers.push(answer);
    }
    Timing {
        wall_s: t0.elapsed().as_secs_f64(),
        latency_ns,
        control_ms: 0.0,
    }
}

/// Untimed output checks; returns the number of failed ops.
fn check(jobs: &[Job], answers: &[Answer], seed: u64) -> u64 {
    let classify_ops: Vec<usize> = (0..jobs.len())
        .filter(|&i| matches!(jobs[i], Job::Classify(_)))
        .collect();
    let mut rng = Rng::new(seed ^ 0xc4ec);
    let sampled: Vec<usize> = (0..NAIVE_SAMPLES.min(classify_ops.len()))
        .map(|_| classify_ops[rng.below(classify_ops.len())])
        .collect();
    let mut failed = 0;
    for (i, (job, answer)) in jobs.iter().zip(answers).enumerate() {
        let ok = match (job, answer) {
            (Job::Classify(words), Answer::Classes { classes, .. }) => {
                !sampled.contains(&i) || {
                    let got: Vec<Vec<Word>> = classes
                        .iter()
                        .map(|c| c.iter().map(|&p| words[p].clone()).collect())
                        .collect();
                    got == hintikka::classes_naive(words, K)
                }
            }
            (Job::Fooling { k, blocks }, Answer::Fooling(Some(pair), _)) => {
                pair.k == *k && instance(blocks).verify(pair, 2 * FOOLING_LIMIT).is_ok()
            }
            _ => false,
        };
        if !ok {
            eprintln!("equiv_batch: op {i} failed its output check");
            failed += 1;
        }
    }
    failed
}

fn layer_metrics(jobs: &[Job], answers: &[Answer], n_ops: usize, tr: &mut Tracer) -> Layers {
    let mut total = BatchStats::default();
    let (mut queried, mut evictions, mut duplicates, mut words) = (0u64, 0u64, 0u64, 0u64);
    for (job, answer) in jobs.iter().zip(answers) {
        match (job, answer) {
            (
                Job::Classify(ws),
                Answer::Classes {
                    classes,
                    ids,
                    stats,
                    evictions: ev,
                },
            ) => {
                queried += classify_queries(ids, classes);
                total.absorb(stats);
                total.solver.wall += stats.solver.wall;
                evictions += ev;
                let mut distinct = ids.clone();
                distinct.sort_unstable();
                distinct.dedup();
                duplicates += (ids.len() - distinct.len()) as u64;
                words += ws.len() as u64;
            }
            (Job::Fooling { .. }, Answer::Fooling(Some(pair), stats)) => {
                // Candidates are scanned by (q, p), p < q; f is injective.
                let q = pair.q as u64;
                queried += q * (q - 1) / 2 + pair.p as u64 + 1;
                total.absorb(stats);
                total.solver.wall += stats.solver.wall;
            }
            _ => {}
        }
    }
    let q = queried as f64;
    let arith = (total.arith_confirmations + total.arith_refutations) as f64;
    let decided = total.memo_hits as f64
        + arith
        + total.fingerprint_refutations as f64
        + total.rank2_refutations as f64
        + total.canon_hits as f64
        + total.pairs_solved as f64;
    let s = &total.solver;
    let mut m = Layers::new();
    m.insert("batch.pairs_per_op", common::ratio(q, n_ops as f64));
    m.insert("batch.memo_share", common::ratio(total.memo_hits as f64, q));
    m.insert("batch.arith_share", common::ratio(arith, q));
    m.insert(
        "batch.fingerprint_share",
        common::ratio(total.fingerprint_refutations as f64, q),
    );
    m.insert(
        "batch.rank2_share",
        common::ratio(total.rank2_refutations as f64, q),
    );
    m.insert(
        "batch.canon_share",
        common::ratio(total.canon_hits as f64, q),
    );
    m.insert(
        "batch.table_root_share",
        common::ratio((q - decided).max(0.0), q),
    );
    m.insert(
        "batch.solver_share",
        common::ratio(total.pairs_solved as f64, q),
    );
    m.insert(
        "batch.intern_share",
        common::ratio(duplicates as f64, words as f64),
    );
    let states = s.states_explored as f64;
    m.insert(
        "solver.states_per_solved_pair",
        common::ratio(states, total.pairs_solved as f64),
    );
    m.insert(
        "solver.ns_per_state",
        common::ratio(s.wall.as_nanos() as f64, states),
    );
    m.insert(
        "solver.memo_hit_rate",
        common::ratio(s.memo_hits as f64, s.memo_hits as f64 + states),
    );
    m.insert(
        "solver.pruned_per_state",
        common::ratio(s.pruned_moves as f64, states),
    );
    m.insert(
        "ttable.hit_rate",
        common::ratio(s.table_hits as f64, (s.table_hits + s.table_misses) as f64),
    );
    m.insert("ttable.evictions", evictions as f64);

    // Probes: the arith oracle on every adjacent same-root pair of the
    // first batches, and the bare solver on a few adjacent pairs.
    let mut eligible = Vec::new();
    for (op, job) in jobs.iter().enumerate().take(200) {
        let Job::Classify(ws) = job else { continue };
        for pair in ws.windows(2) {
            let (w, v) = (pair[0].bytes(), pair[1].bytes());
            let t = Instant::now();
            let verdict = tr.leaf("verdict_words", op as u64, || {
                ArithOracle::global().verdict_words(w, v, K, false, |_| None)
            });
            if verdict.is_some() {
                eligible.push(t.elapsed().as_nanos() as u64);
            }
        }
        if op < 20 {
            for pair in ws.windows(2).take(6) {
                tr.leaf("equivalent", op as u64, || {
                    let game = GamePair::new(pair[0].clone(), pair[1].clone(), &Alphabet::ab());
                    EfSolver::new(game).equivalent(K)
                });
            }
        }
    }
    eligible.sort_unstable();
    m.insert("arith.verdict_ns", common::quantile(&eligible, 0.5) as f64);
    m
}

pub fn run(cfg: &Cfg, tr: &mut Tracer) -> Outcome {
    let n = cfg.ops(NOMINAL_OPS_PER_S, FOOLING2_EVERY);
    let jobs = jobs(cfg.seed, n);
    warmup();
    let mut answers = Vec::with_capacity(n);
    let (rounds, setups) = common::timed_rounds("equiv_batch", n, FOOLING2_EVERY, |range| {
        pass(&jobs, range, &mut answers, None)
    });
    let failed = check(&jobs, &answers, cfg.seed);
    let mut layers = Layers::new();
    if cfg.trace {
        let mut traced_answers = Vec::with_capacity(n);
        let traced = pass(&jobs, 0..n, &mut traced_answers, Some(tr));
        layers = layer_metrics(&jobs, &traced_answers, n, tr);
        let untraced: f64 = rounds.iter().map(|r| r.wall_s).sum();
        layers.insert("trace.overhead_ratio", traced.wall_s / untraced);
    }
    Outcome {
        attempted: n as u64,
        failed,
        setups,
        rounds,
        layers,
    }
}
