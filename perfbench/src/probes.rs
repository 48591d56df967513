//! Readers of the engine's `stats` answer and single-layer probes shared
//! by the traced runs of the workloads.

use crate::common::{self, Layers, Rng};
use crate::trace::Tracer;
use fc_games::ShardedArena;
use fc_logic::eval::Assignment;
use fc_logic::parser::parse_formula;
use fc_logic::{EvalStats, FactorStructure, PlanCache};
use fc_serve::json::Value;
use fc_words::Word;
use std::time::Instant;

/// A counter of an engine `stats` answer (0 when absent).
pub fn stat(stats: &Value, path: &[&str]) -> f64 {
    path.iter()
        .try_fold(stats, |v, key| v.get(key))
        .and_then(Value::as_f64)
        .unwrap_or(0.0)
}

/// The planner's counters over a phase, from the `stats` answers taken
/// before and after it.
pub fn plan_counters(m: &mut Layers, before: &Value, after: &Value) {
    let d = |path: &[&str]| stat(after, path) - stat(before, path);
    let evals = d(&["eval", "evals"]);
    for (key, counter) in [
        ("plan.frames_per_eval", "frames_explored"),
        ("plan.guard_hits_per_eval", "guard_hits"),
        ("plan.dfa_checks_per_eval", "dfa_checks"),
    ] {
        m.insert(key, common::ratio(d(&["eval", counter]), evals));
    }
    let (hits, misses) = (d(&["plan_cache", "hits"]), d(&["plan_cache", "misses"]));
    m.insert("plan.cache_hit_rate", common::ratio(hits, hits + misses));
}

/// Times the planner on `check` sentences, each call in its own span:
/// `PlanCache::get_or_compile` on a fresh cache (a miss is a compile),
/// then `Plan::eval_with_stats`.
pub struct PlanProbe {
    fresh: PlanCache,
    compile_ns: Vec<u64>,
}

impl PlanProbe {
    pub fn new() -> PlanProbe {
        PlanProbe {
            fresh: PlanCache::new(256),
            compile_ns: Vec::new(),
        }
    }

    pub fn check(&mut self, tr: &mut Tracer, op: u64, src: &str, structure: &FactorStructure) {
        let phi = parse_formula(src).expect("workload formulas parse");
        let misses = self.fresh.stats().misses;
        let t = Instant::now();
        let plan = tr.leaf("get_or_compile", op, || self.fresh.get_or_compile(&phi));
        if self.fresh.stats().misses > misses {
            self.compile_ns.push(t.elapsed().as_nanos() as u64);
        }
        let mut stats = EvalStats::default();
        tr.leaf("eval_with_stats", op, || {
            plan.eval_with_stats(structure, &Assignment::new(), &mut stats)
        });
    }

    /// Median compile time in µs.
    pub fn compile_us(&mut self) -> f64 {
        self.compile_ns.sort_unstable();
        common::quantile(&self.compile_ns, 0.5) as f64 / 1e3
    }
}

/// The structure layer: builds seeded {a,b} documents of 10³–10⁴ letters
/// (a log-spaced ladder) with `ShardedArena::intern`, then probes each
/// with `FactorStructure::id_of` on seeded 4–11-letter words.
pub fn structure_probes(m: &mut Layers, tr: &mut Tracer, seed: u64) {
    const DOCS: usize = 10;
    const PATTERNS: usize = 64;
    let mut rng = Rng::new(seed ^ 0x57a7);
    let texts: Vec<String> = (0..DOCS)
        .map(|j| {
            let len = 1000.0 * 10f64.powf((j as f64 + 0.5) / DOCS as f64);
            rng.word(b"ab", len as usize)
        })
        .collect();
    let patterns: Vec<String> = (0..PATTERNS)
        .map(|_| {
            let len = rng.range(4, 11) as usize;
            rng.word(b"ab", len)
        })
        .collect();
    let arena = ShardedArena::new();
    let mut build_ns = 0u64;
    let refs: Vec<_> = texts
        .iter()
        .enumerate()
        .map(|(i, text)| {
            let word = Word::from(text.as_str());
            let t = Instant::now();
            let r = tr.leaf("intern", i as u64, || arena.intern(&word));
            build_ns += t.elapsed().as_nanos() as u64;
            r
        })
        .collect();
    let letters: usize = texts.iter().map(String::len).sum();
    m.insert(
        "structure.build_us_per_kletter",
        common::ratio(build_ns as f64 / 1e3, letters as f64 / 1e3),
    );
    m.insert(
        "structure.bytes_per_letter",
        common::ratio(arena.memory_bytes() as f64, letters as f64),
    );
    let t = Instant::now();
    for (i, &r) in refs.iter().enumerate() {
        let s = arena.structure(r);
        for p in &patterns {
            tr.leaf("id_of", i as u64, || s.id_of(p.as_bytes()));
        }
    }
    m.insert(
        "structure.id_of_ns",
        t.elapsed().as_nanos() as f64 / (DOCS * PATTERNS) as f64,
    );
}
