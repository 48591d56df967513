//! The shared service engine: one handle through which every workload of
//! the suite — lint, model checking, assignment enumeration, language
//! windows, spanner-style extraction, EF games, bulk classification, the
//! FC-definability oracle — runs against *long-lived shared state*.
//!
//! The state is three-fold:
//!
//! - a [`PlanCache`]: formulas are keyed by their canonical source
//!   rendering (`fc_logic::plan::structural_key`), so cosmetically
//!   different requests share one compiled [`fc_logic::Plan`];
//! - a [`ShardedArena`] document store: `put` interns a corpus document
//!   once (content-deduplicated, dense or succinct backend chosen by
//!   length) and every later `check`/`solve`/`extract` on it reuses the
//!   built structure;
//! - metric accumulators: per-endpoint request/error/wall counters, plus
//!   engine-wide totals of the plain [`EvalStats`], [`SolverStats`] and
//!   [`BatchStats`] every request produces, folded in once per request
//!   under one mutex; all surfaced by the `stats` endpoint.
//!
//! Requests and responses are single-line JSON objects. Responses are
//! *deterministic functions of the request and the document store*: no
//! timing, cache or interleaving-dependent field appears outside the
//! `stats` endpoint. The concurrency differential suite relies on this.

use crate::json::{self, Value};
use fc_games::{
    ArithOracle, BatchConfig, BatchSolver, BatchStats, ShardRef, ShardedArena, SolverStats,
    StructureArena, TransTable, DEFAULT_TABLE_CAPACITY,
};
use fc_logic::analysis::{self, AnalysisConfig, Analyzer};
use fc_logic::eval::Assignment;
use fc_logic::language;
use fc_logic::parser::parse_formula;
use fc_logic::{EvalStats, FactorStructure, Formula, PlanCache};
use fc_reglang::definable::{fc_definable_regex, DefinabilityBudget, FcDefinability, Inconclusive};
use fc_reglang::Regex;
use fc_words::{Alphabet, Word};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::Instant;

/// Every operation the line protocol knows, in the order the `stats`
/// endpoint's metric table is indexed.
const OPS: [&str; 13] = [
    "ping",
    "lint",
    "check",
    "solve",
    "window",
    "extract",
    "game",
    "classify",
    "definable",
    "put",
    "doc",
    "stats",
    "shutdown",
];

/// Resource limits and defaults for a [`ServiceEngine`].
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// Compiled-plan cache capacity (entries across all shards).
    pub plan_cache_capacity: usize,
    /// Default (and maximum) number of assignments a `solve` response
    /// carries; the total count is always reported.
    pub solve_limit: usize,
    /// Longest accepted document / ad-hoc word, in bytes.
    pub max_doc_len: usize,
    /// Largest `max_len` a `window` request may ask for.
    pub max_window_len: usize,
    /// Largest number of rounds a `game` or `classify` request may play.
    pub max_game_k: u32,
    /// Longest word admitted into a game position.
    pub max_game_word_len: usize,
    /// Most words a single `classify` request may submit.
    pub max_classify_words: usize,
    /// Slot budget of the engine-held game transposition table
    /// ([`fc_games::ttable::TransTable`]). The table's memory is fixed at
    /// construction and generationally evicted under churn, so this is a
    /// hard ceiling, like `plan_cache_capacity`.
    pub game_table_capacity: usize,
}

impl Default for EngineConfig {
    fn default() -> EngineConfig {
        EngineConfig {
            plan_cache_capacity: 256,
            solve_limit: 64,
            max_doc_len: 1 << 20,
            max_window_len: 8,
            max_game_k: 3,
            max_game_word_len: 256,
            max_classify_words: 256,
            game_table_capacity: DEFAULT_TABLE_CAPACITY >> 2,
        }
    }
}

/// Per-worker scratch state, handed to every request a worker serves. It
/// carries nothing today: each `game` request runs a private two-word
/// [`BatchSolver`] whose state worth keeping lives in the engine's shared
/// transposition table.
#[derive(Default)]
pub struct WorkerScratch {}

/// One handled request: the serialized response line (no trailing
/// newline) and whether it asked the server to shut down.
pub struct Response {
    /// The JSON response, rendered deterministically.
    pub line: String,
    /// `true` exactly for a successful `shutdown` request.
    pub shutdown: bool,
}

/// Log₂-bucketed latency histogram: bucket `b` counts requests with
/// round-trip time in `[2^b, 2^(b+1))` microseconds (bucket 0 also takes
/// sub-microsecond requests). 32 buckets reach ~71 minutes — far beyond
/// any request this engine serves.
const LATENCY_BUCKETS: usize = 32;

/// Per-endpoint counters (all relaxed atomics; read by `stats`).
struct EndpointMetrics {
    count: AtomicU64,
    errors: AtomicU64,
    wall_nanos: AtomicU64,
    latency: [AtomicU64; LATENCY_BUCKETS],
}

impl Default for EndpointMetrics {
    fn default() -> EndpointMetrics {
        EndpointMetrics {
            count: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            wall_nanos: AtomicU64::new(0),
            latency: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

impl EndpointMetrics {
    fn record_latency(&self, nanos: u64) {
        let micros = nanos / 1_000;
        let bucket = (u64::BITS - micros.leading_zeros()).saturating_sub(1) as usize;
        self.latency[bucket.min(LATENCY_BUCKETS - 1)].fetch_add(1, Ordering::Relaxed);
    }

    /// The `q`-quantile as the upper edge of the histogram bucket holding
    /// it, in milliseconds (0 when nothing was recorded). Bucket edges are
    /// exact powers of two of a microsecond, so the estimate is within 2×
    /// — plenty for the tail-visibility question the endpoint answers.
    fn quantile_ms(&self, q: f64) -> f64 {
        let counts: Vec<u64> = self
            .latency
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let rank = ((total as f64 * q).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (b, &c) in counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return (1u64 << (b + 1)) as f64 / 1e3;
            }
        }
        (1u64 << LATENCY_BUCKETS) as f64 / 1e3
    }
}

/// Engine-wide counter totals. Requests count into private plain structs
/// and fold them in here once, when they finish.
#[derive(Clone, Copy, Default)]
struct Totals {
    /// Plan evaluations recorded (`check`, `solve`, `window`, `extract`).
    evals: u64,
    eval: EvalStats,
    /// `game` requests that ran the exact solver.
    games: u64,
    solver: SolverStats,
    /// `game` requests answered by the arithmetic tier (identical words
    /// included), with no structure and no game.
    arith_game_hits: u64,
    /// `game` requests answered by the table's canonical root entry (a
    /// repeat, renamed, or swapped pair), with no game.
    canon_game_hits: u64,
    /// `classify` requests recorded.
    batches: u64,
    batch: BatchStats,
}

/// The shared engine. One instance serves every connection and worker;
/// all methods take `&self`.
pub struct ServiceEngine {
    config: EngineConfig,
    plans: PlanCache,
    docs: ShardedArena,
    names: RwLock<HashMap<String, ShardRef>>,
    totals: Mutex<Totals>,
    endpoints: Vec<EndpointMetrics>,
    /// The engine-held transposition table, shared by the batch of every
    /// `game` and `classify` request. Bounded (see
    /// [`EngineConfig::game_table_capacity`]).
    game_table: Arc<TransTable>,
    requests: AtomicU64,
    protocol_errors: AtomicU64,
    started: Instant,
}

type Payload = BTreeMap<String, Value>;

fn num(n: u64) -> Value {
    Value::Number(n as f64)
}

fn jstr(s: impl Into<String>) -> Value {
    Value::String(s.into())
}

fn req_str<'a>(req: &'a Value, key: &str) -> Result<&'a str, String> {
    req.get(key)
        .and_then(Value::as_str)
        .ok_or_else(|| format!("missing string member \"{key}\""))
}

fn opt_u64(req: &Value, key: &str) -> Result<Option<u64>, String> {
    match req.get(key) {
        None => Ok(None),
        Some(v) => {
            let n = v
                .as_f64()
                .filter(|n| n.fract() == 0.0 && *n >= 0.0 && *n < 9e15)
                .ok_or_else(|| format!("member \"{key}\" must be a non-negative integer"))?;
            Ok(Some(n as u64))
        }
    }
}

fn parse_request_formula(req: &Value) -> Result<Formula, String> {
    parse_formula(req_str(req, "formula")?).map_err(|e| format!("formula: {e}"))
}

impl ServiceEngine {
    /// Builds an engine with the given limits and an empty document store.
    ///
    /// Warms the rank ≤ 2 unary class tables of the process-wide
    /// [`ArithOracle`] (a few milliseconds, once per process), so the
    /// `game`/`classify` arithmetic fast path is hot — and its route
    /// deterministic — from the first request. The rank-3 table is *not*
    /// warmed: its build is minutes, which only deliberate offline
    /// callers (the E03 runner, `fc game --fast`) should pay for.
    pub fn new(config: EngineConfig) -> ServiceEngine {
        for k in 0..=2 {
            let _ = ArithOracle::global().unary_table(k);
        }
        ServiceEngine {
            plans: PlanCache::new(config.plan_cache_capacity),
            game_table: Arc::new(TransTable::new(config.game_table_capacity)),
            config,
            docs: ShardedArena::new(),
            names: RwLock::new(HashMap::new()),
            totals: Mutex::new(Totals::default()),
            endpoints: (0..OPS.len()).map(|_| EndpointMetrics::default()).collect(),
            requests: AtomicU64::new(0),
            protocol_errors: AtomicU64::new(0),
            started: Instant::now(),
        }
    }

    /// The plan cache (exposed for tests and the bench harness).
    pub fn plan_cache(&self) -> &PlanCache {
        &self.plans
    }

    /// Handles one request line with a caller-provided worker scratch.
    pub fn handle_request(&self, line: &str, _scratch: &mut WorkerScratch) -> Response {
        self.requests.fetch_add(1, Ordering::Relaxed);
        let request = match json::parse(line) {
            Ok(v @ Value::Object(_)) => v,
            Ok(_) => return self.protocol_error(None, "request must be a JSON object"),
            Err(e) => return self.protocol_error(None, &format!("bad JSON: {e}")),
        };
        let id = request.get("id").cloned();
        let Some(op) = request.get("op").and_then(Value::as_str).map(String::from) else {
            return self.protocol_error(id, "missing string member \"op\"");
        };
        let Some(idx) = OPS.iter().position(|o| *o == op) else {
            return self.protocol_error(id, &format!("unknown op \"{op}\""));
        };

        let t0 = Instant::now();
        let result = match op.as_str() {
            "ping" | "shutdown" => Ok(Payload::new()),
            "lint" => self.op_lint(&request),
            "check" => self.op_check(&request),
            "solve" => self.op_solve(&request),
            "window" => self.op_window(&request),
            "extract" => self.op_extract(&request),
            "game" => self.op_game(&request),
            "classify" => self.op_classify(&request),
            "definable" => self.op_definable(&request),
            "put" => self.op_put(&request),
            "doc" => self.op_doc(&request),
            "stats" => Ok(self.op_stats()),
            _ => unreachable!("op membership checked above"),
        };
        let metrics = &self.endpoints[idx];
        metrics.count.fetch_add(1, Ordering::Relaxed);
        let nanos = t0.elapsed().as_nanos() as u64;
        metrics.wall_nanos.fetch_add(nanos, Ordering::Relaxed);
        metrics.record_latency(nanos);

        let mut members = match result {
            Ok(payload) => {
                let mut m = payload;
                m.insert("ok".to_string(), Value::Bool(true));
                m
            }
            Err(e) => {
                metrics.errors.fetch_add(1, Ordering::Relaxed);
                let mut m = Payload::new();
                m.insert("ok".to_string(), Value::Bool(false));
                m.insert("error".to_string(), jstr(e));
                m
            }
        };
        members.insert("op".to_string(), jstr(op.as_str()));
        if let Some(id) = id {
            members.insert("id".to_string(), id);
        }
        let ok = matches!(members.get("ok"), Some(Value::Bool(true)));
        Response {
            line: Value::Object(members).to_string(),
            shutdown: ok && op == "shutdown",
        }
    }

    /// Handles one request line with a throwaway scratch (test- and
    /// sequential-replay convenience).
    pub fn handle(&self, line: &str) -> String {
        self.handle_request(line, &mut WorkerScratch::default())
            .line
    }

    fn protocol_error(&self, id: Option<Value>, message: &str) -> Response {
        self.protocol_errors.fetch_add(1, Ordering::Relaxed);
        let mut m = Payload::new();
        m.insert("ok".to_string(), Value::Bool(false));
        m.insert("error".to_string(), jstr(message));
        if let Some(id) = id {
            m.insert("id".to_string(), id);
        }
        Response {
            line: Value::Object(m).to_string(),
            shutdown: false,
        }
    }

    /// Resolves the structure a request evaluates on: a stored document
    /// (`"doc"`) or an ad-hoc word (`"word"`, built per request).
    fn structure_for(&self, req: &Value) -> Result<Arc<FactorStructure>, String> {
        if let Some(name) = req.get("doc") {
            let name = name
                .as_str()
                .ok_or_else(|| "member \"doc\" must be a string".to_string())?;
            let names = self.names.read().expect("names lock");
            let r = names
                .get(name)
                .ok_or_else(|| format!("unknown document \"{name}\""))?;
            Ok(self.docs.structure(*r))
        } else if let Some(word) = req.get("word") {
            let word = word
                .as_str()
                .ok_or_else(|| "member \"word\" must be a string".to_string())?;
            if word.len() > self.config.max_doc_len {
                return Err(format!(
                    "word length {} exceeds the limit of {}",
                    word.len(),
                    self.config.max_doc_len
                ));
            }
            Ok(Arc::new(FactorStructure::of_word(word)))
        } else {
            Err("need a \"doc\" (stored document) or \"word\" member".to_string())
        }
    }

    fn totals(&self) -> std::sync::MutexGuard<'_, Totals> {
        self.totals.lock().expect("totals lock")
    }

    fn record_eval(&self, stats: &EvalStats) {
        let mut t = self.totals();
        t.evals += 1;
        t.eval.absorb(stats);
    }

    fn op_lint(&self, req: &Value) -> Result<Payload, String> {
        let src = req_str(req, "formula")?;
        let diags = Analyzer::new(AnalysisConfig::default()).analyze_source(src);
        let (errors, warnings, notes) = analysis::counts(&diags);
        let rendered: Vec<Value> = diags
            .iter()
            .map(|d| {
                let mut m = Payload::new();
                m.insert("code".to_string(), jstr(d.code));
                m.insert("severity".to_string(), jstr(d.severity.as_str()));
                m.insert("message".to_string(), jstr(d.message.as_str()));
                if let Some(note) = &d.note {
                    m.insert("note".to_string(), jstr(note.as_str()));
                }
                Value::Object(m)
            })
            .collect();
        let mut payload = Payload::new();
        payload.insert("errors".to_string(), num(errors as u64));
        payload.insert("warnings".to_string(), num(warnings as u64));
        payload.insert("notes".to_string(), num(notes as u64));
        payload.insert("diagnostics".to_string(), Value::Array(rendered));
        Ok(payload)
    }

    fn op_check(&self, req: &Value) -> Result<Payload, String> {
        let phi = parse_request_formula(req)?;
        if !phi.is_sentence() {
            return Err("\"check\" needs a sentence; use \"solve\" for open formulas".to_string());
        }
        let structure = self.structure_for(req)?;
        let plan = self.plans.get_or_compile(&phi);
        let mut stats = EvalStats::default();
        let verdict = plan.eval_with_stats(&structure, &Assignment::new(), &mut stats);
        self.record_eval(&stats);
        let mut payload = Payload::new();
        payload.insert("verdict".to_string(), Value::Bool(verdict));
        Ok(payload)
    }

    fn op_solve(&self, req: &Value) -> Result<Payload, String> {
        let phi = parse_request_formula(req)?;
        let structure = self.structure_for(req)?;
        let limit = opt_u64(req, "limit")?
            .map_or(self.config.solve_limit, |n| n as usize)
            .min(self.config.solve_limit);
        let plan = self.plans.get_or_compile(&phi);
        let mut stats = EvalStats::default();
        let sols = plan.satisfying_assignments_with_stats(&structure, &mut stats);
        self.record_eval(&stats);
        let shown: Vec<Value> = sols
            .iter()
            .take(limit)
            .map(|m| {
                Value::Object(
                    m.iter()
                        .map(|(var, &id)| (var.to_string(), jstr(structure.word_of(id).as_str())))
                        .collect(),
                )
            })
            .collect();
        let mut payload = Payload::new();
        payload.insert("total".to_string(), num(sols.len() as u64));
        payload.insert("assignments".to_string(), Value::Array(shown));
        Ok(payload)
    }

    fn op_window(&self, req: &Value) -> Result<Payload, String> {
        let phi = parse_request_formula(req)?;
        if !phi.is_sentence() {
            return Err("\"window\" needs a sentence".to_string());
        }
        let max_len = opt_u64(req, "max_len")?.map_or(4, |n| n as usize);
        if max_len > self.config.max_window_len {
            return Err(format!(
                "max_len {} exceeds the limit of {}",
                max_len, self.config.max_window_len
            ));
        }
        let letters = req
            .get("alphabet")
            .map(|v| {
                v.as_str()
                    .ok_or_else(|| "member \"alphabet\" must be a string".to_string())
            })
            .transpose()?
            .unwrap_or("ab");
        if letters.is_empty() || letters.len() > 4 || !letters.is_ascii() {
            return Err("\"alphabet\" must be 1–4 ASCII letters".to_string());
        }
        let sigma = Alphabet::from_symbols(letters.as_bytes());
        let plan = self.plans.get_or_compile(&phi);
        let (words, stats) = language::language_window_stats_plan(&plan, &sigma, max_len);
        self.record_eval(&stats);
        let mut payload = Payload::new();
        payload.insert("count".to_string(), num(words.len() as u64));
        payload.insert(
            "words".to_string(),
            Value::Array(words.iter().map(|w| jstr(w.as_str())).collect()),
        );
        Ok(payload)
    }

    fn op_extract(&self, req: &Value) -> Result<Payload, String> {
        let phi = parse_request_formula(req)?;
        let name = req_str(req, "doc")?;
        let structure = {
            let names = self.names.read().expect("names lock");
            let r = names
                .get(name)
                .ok_or_else(|| format!("unknown document \"{name}\""))?;
            self.docs.structure(*r)
        };
        let vars_val = req
            .get("vars")
            .and_then(Value::as_array)
            .ok_or_else(|| "missing array member \"vars\"".to_string())?;
        let vars: Vec<&str> = vars_val
            .iter()
            .map(|v| {
                v.as_str()
                    .ok_or_else(|| "\"vars\" entries must be strings".to_string())
            })
            .collect::<Result<_, _>>()?;
        if vars.is_empty() {
            return Err("\"vars\" must name at least one variable".to_string());
        }
        let plan = self.plans.get_or_compile(&phi);
        for v in &vars {
            if !plan.free_vars().any(|f| f == *v) {
                return Err(format!("variable \"{v}\" is not free in the formula"));
            }
        }
        let mut stats = EvalStats::default();
        let tuples = language::relation_on_plan_stats(&plan, &vars, &structure, &mut stats);
        self.record_eval(&stats);
        let mut payload = Payload::new();
        payload.insert("count".to_string(), num(tuples.len() as u64));
        payload.insert(
            "tuples".to_string(),
            Value::Array(
                tuples
                    .iter()
                    .map(|t| Value::Array(t.iter().map(|w| jstr(w.as_str())).collect()))
                    .collect(),
            ),
        );
        Ok(payload)
    }

    fn game_rounds(&self, req: &Value) -> Result<u32, String> {
        let k = opt_u64(req, "k")?.map_or(1, |n| n as u32);
        if k > self.config.max_game_k {
            return Err(format!(
                "k = {k} exceeds the limit of {}",
                self.config.max_game_k
            ));
        }
        Ok(k)
    }

    fn op_game(&self, req: &Value) -> Result<Payload, String> {
        let w = req_str(req, "w")?;
        let v = req_str(req, "v")?;
        for word in [w, v] {
            if word.len() > self.config.max_game_word_len {
                return Err(format!(
                    "game word length {} exceeds the limit of {}",
                    word.len(),
                    self.config.max_game_word_len
                ));
            }
        }
        let k = self.game_rounds(req)?;
        // A two-word batch walks the whole ≡_k cascade against the engine
        // table: arithmetic (unary and same-root pairs; rank 3 only from an
        // already-warm table, see [`ServiceEngine::new`]; the periodic
        // route classifies `u^0..u^window` once per (k, root)), fingerprint,
        // the canonical root entry a repeat, renamed or swapped pair left
        // behind, and only then the solver. Which tier answered is visible
        // only in `stats`.
        let (arena, ids) = StructureArena::for_words(&[Word::from(w), Word::from(v)]);
        let mut batch = BatchSolver::with_config(
            arena,
            BatchConfig {
                arith_periodic: true,
                ..BatchConfig::default()
            },
        );
        batch.share_table(Arc::clone(&self.game_table));
        let equivalent = batch.equivalent(ids[0], ids[1], k);
        let s = batch.stats();
        {
            let mut t = self.totals();
            t.games += s.pairs_solved;
            t.solver.absorb(&s.solver);
            t.solver.wall += s.solver.wall;
            // Identical words are answered by reflexivity before any tier;
            // they count as arithmetic hits, the oracle's equal-words route.
            let arith = ids[0] == ids[1] || s.arith_confirmations + s.arith_refutations > 0;
            t.arith_game_hits += u64::from(arith);
            t.canon_game_hits += s.table_root_hits;
        }
        let mut payload = Payload::new();
        payload.insert("equivalent".to_string(), Value::Bool(equivalent));
        payload.insert("k".to_string(), num(u64::from(k)));
        Ok(payload)
    }

    fn op_classify(&self, req: &Value) -> Result<Payload, String> {
        let words_val = req
            .get("words")
            .and_then(Value::as_array)
            .ok_or_else(|| "missing array member \"words\"".to_string())?;
        if words_val.is_empty() || words_val.len() > self.config.max_classify_words {
            return Err(format!(
                "\"words\" must hold 1–{} entries",
                self.config.max_classify_words
            ));
        }
        let mut words = Vec::with_capacity(words_val.len());
        for v in words_val {
            let s = v
                .as_str()
                .ok_or_else(|| "\"words\" entries must be strings".to_string())?;
            if s.len() > self.config.max_game_word_len {
                return Err(format!(
                    "classify word length {} exceeds the limit of {}",
                    s.len(),
                    self.config.max_game_word_len
                ));
            }
            words.push(Word::from(s));
        }
        let k = self.game_rounds(req)?;
        let (arena, ids) = StructureArena::for_words(&words);
        let mut batch = BatchSolver::new(arena);
        batch.share_table(Arc::clone(&self.game_table));
        let classes = batch.classify(&ids, k);
        {
            let mut t = self.totals();
            t.batches += 1;
            t.batch.absorb(&batch.stats());
        }
        let mut payload = Payload::new();
        payload.insert(
            "classes".to_string(),
            Value::Array(
                classes
                    .iter()
                    .map(|c| Value::Array(c.iter().map(|&i| num(i as u64)).collect()))
                    .collect(),
            ),
        );
        Ok(payload)
    }

    fn op_definable(&self, req: &Value) -> Result<Payload, String> {
        let pattern = req_str(req, "regex")?;
        let re = Regex::parse(pattern).map_err(|e| format!("regex: {e}"))?;
        let mut alpha = re.symbols();
        if alpha.is_empty() {
            alpha = b"ab".to_vec();
        }
        let budget = opt_u64(req, "budget")?.map_or_else(DefinabilityBudget::default, |n| {
            DefinabilityBudget::with_states(n as usize)
        });
        let mut payload = Payload::new();
        match fc_definable_regex(&re, &alpha, &budget) {
            FcDefinability::Definable(expr) => {
                payload.insert("verdict".to_string(), jstr("definable"));
                payload.insert("witness".to_string(), jstr(expr.to_string()));
            }
            FcDefinability::NotDefinable(ob) => {
                payload.insert("verdict".to_string(), jstr("not-definable"));
                payload.insert("obstruction".to_string(), jstr(ob.describe()));
            }
            FcDefinability::Inconclusive(why) => {
                payload.insert("verdict".to_string(), jstr("inconclusive"));
                let reason = match why {
                    Inconclusive::BudgetExceeded { states, budget } => {
                        format!("minimal DFA has {states} states, budget is {budget}")
                    }
                    Inconclusive::Unresolved => "no witness or obstruction found".to_string(),
                };
                payload.insert("reason".to_string(), jstr(reason));
            }
        }
        Ok(payload)
    }

    fn doc_payload(&self, name: &str, r: ShardRef) -> Payload {
        let s = self.docs.structure(r);
        let mut payload = Payload::new();
        payload.insert("doc".to_string(), jstr(name));
        payload.insert("len".to_string(), num(s.word().len() as u64));
        payload.insert("factors".to_string(), num(s.universe_len() as u64));
        payload.insert("backend".to_string(), jstr(s.backend_kind().to_string()));
        payload
    }

    fn op_put(&self, req: &Value) -> Result<Payload, String> {
        let name = req_str(req, "name")?;
        if name.is_empty() || name.len() > 256 {
            return Err("\"name\" must be 1–256 bytes".to_string());
        }
        let text = req_str(req, "text")?;
        if text.len() > self.config.max_doc_len {
            return Err(format!(
                "document length {} exceeds the limit of {}",
                text.len(),
                self.config.max_doc_len
            ));
        }
        let r = self.docs.intern(&Word::from(text));
        self.names
            .write()
            .expect("names lock")
            .insert(name.to_string(), r);
        Ok(self.doc_payload(name, r))
    }

    fn op_doc(&self, req: &Value) -> Result<Payload, String> {
        let name = req_str(req, "name")?;
        let r = {
            let names = self.names.read().expect("names lock");
            *names
                .get(name)
                .ok_or_else(|| format!("unknown document \"{name}\""))?
        };
        Ok(self.doc_payload(name, r))
    }

    fn op_stats(&self) -> Payload {
        let mut endpoints = BTreeMap::new();
        for (i, name) in OPS.iter().enumerate() {
            let m = &self.endpoints[i];
            endpoints.insert(
                (*name).to_string(),
                Value::object([
                    ("count", num(m.count.load(Ordering::Relaxed))),
                    ("errors", num(m.errors.load(Ordering::Relaxed))),
                    (
                        "wall_ms",
                        Value::Number(m.wall_nanos.load(Ordering::Relaxed) as f64 / 1e6),
                    ),
                    ("p50_ms", Value::Number(m.quantile_ms(0.50))),
                    ("p99_ms", Value::Number(m.quantile_ms(0.99))),
                ]),
            );
        }
        let pc = self.plans.stats();
        let t = *self.totals();
        let (eval, solver, batch) = (t.eval, t.solver, t.batch);
        let mut payload = Payload::new();
        payload.insert(
            "uptime_ms".to_string(),
            num(self.started.elapsed().as_millis() as u64),
        );
        payload.insert(
            "requests".to_string(),
            num(self.requests.load(Ordering::Relaxed)),
        );
        payload.insert(
            "protocol_errors".to_string(),
            num(self.protocol_errors.load(Ordering::Relaxed)),
        );
        payload.insert("endpoints".to_string(), Value::Object(endpoints));
        payload.insert(
            "plan_cache".to_string(),
            Value::object([
                ("hits", num(pc.hits)),
                ("misses", num(pc.misses)),
                ("evictions", num(pc.evictions)),
                ("entries", num(pc.entries)),
                ("capacity", num(pc.capacity)),
            ]),
        );
        payload.insert(
            "docs".to_string(),
            Value::object([
                (
                    "documents",
                    num(self.names.read().expect("names lock").len() as u64),
                ),
                ("structures", num(self.docs.len() as u64)),
                ("built", num(self.docs.structures_built())),
                ("dedup_hits", num(self.docs.intern_hits())),
                ("bytes", num(self.docs.memory_bytes() as u64)),
                ("shards", num(self.docs.shard_count() as u64)),
            ]),
        );
        payload.insert(
            "eval".to_string(),
            Value::object([
                ("evals", num(t.evals)),
                ("frames_explored", num(eval.frames_explored)),
                ("guard_hits", num(eval.guard_hits)),
                ("dfa_checks", num(eval.dfa_checks)),
                ("wall_ms", Value::Number(eval.wall.as_nanos() as f64 / 1e6)),
            ]),
        );
        payload.insert(
            "solver".to_string(),
            Value::object([
                ("games", num(t.games)),
                ("states_explored", num(solver.states_explored)),
                ("memo_hits", num(solver.memo_hits)),
                ("pruned_moves", num(solver.pruned_moves)),
                ("table_hits", num(solver.table_hits)),
                ("table_misses", num(solver.table_misses)),
                (
                    "wall_ms",
                    Value::Number(solver.wall.as_nanos() as f64 / 1e6),
                ),
            ]),
        );
        payload.insert(
            "batch".to_string(),
            Value::object([
                ("batches", num(t.batches)),
                ("structures_built", num(batch.structures_built)),
                ("arith_confirmations", num(batch.arith_confirmations)),
                ("arith_refutations", num(batch.arith_refutations)),
                (
                    "fingerprint_refutations",
                    num(batch.fingerprint_refutations),
                ),
                ("rank2_refutations", num(batch.rank2_refutations)),
                ("pairs_solved", num(batch.pairs_solved)),
                ("memo_hits", num(batch.memo_hits)),
                ("canon_hits", num(batch.canon_hits)),
                ("table_root_hits", num(batch.table_root_hits)),
                ("solver_states", num(batch.solver.states_explored)),
                ("wall_ms", Value::Number(batch.wall.as_nanos() as f64 / 1e6)),
            ]),
        );
        payload.insert(
            "arith".to_string(),
            Value::object([("game_hits", num(t.arith_game_hits))]),
        );
        let tt = self.game_table.stats();
        payload.insert(
            "table".to_string(),
            Value::object([
                ("hits", num(tt.hits)),
                ("misses", num(tt.misses)),
                ("inserts", num(tt.inserts)),
                ("evictions", num(tt.evictions)),
                ("capacity", num(tt.capacity)),
                ("bytes", num(self.game_table.bytes() as u64)),
                ("canon_game_hits", num(t.canon_game_hits)),
            ]),
        );
        payload
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fc_games::{EfSolver, GamePair};

    fn engine() -> ServiceEngine {
        ServiceEngine::new(EngineConfig::default())
    }

    #[test]
    fn ping_round_trips_with_id() {
        let e = engine();
        assert_eq!(
            e.handle(r#"{"op":"ping","id":7}"#),
            r#"{"id":7,"ok":true,"op":"ping"}"#
        );
    }

    #[test]
    fn malformed_lines_yield_error_responses() {
        let e = engine();
        for bad in ["{not json", "42", r#"{"noop":1}"#, r#"{"op":"fly"}"#] {
            let resp = e.handle(bad);
            assert!(resp.contains(r#""ok":false"#), "{bad} -> {resp}");
        }
        // The engine survived and still answers.
        assert!(e.handle(r#"{"op":"ping"}"#).contains(r#""ok":true"#));
    }

    #[test]
    fn put_then_check_hits_the_plan_cache() {
        let e = engine();
        let put = e.handle(r#"{"op":"put","name":"d","text":"aabaab"}"#);
        assert!(put.contains(r#""backend":"dense""#), "{put}");
        let q = r#"{"op":"check","formula":"E x, y: (x = y.y)","doc":"d"}"#;
        assert!(e.handle(q).contains(r#""verdict":true"#));
        let before = e.plan_cache().stats();
        assert!(e.handle(q).contains(r#""verdict":true"#));
        let after = e.plan_cache().stats();
        assert_eq!(after.hits, before.hits + 1);
    }

    #[test]
    fn solve_enumerates_and_respects_limit() {
        let e = engine();
        let resp = e.handle(r#"{"op":"solve","formula":"(x = y.y)","word":"aa","limit":1}"#);
        let v = json::parse(&resp).unwrap();
        assert!(v.get("total").unwrap().as_f64().unwrap() >= 2.0, "{resp}");
        assert_eq!(v.get("assignments").unwrap().as_array().unwrap().len(), 1);
    }

    #[test]
    fn extract_projects_the_relation_on_a_stored_doc() {
        let e = engine();
        e.handle(r#"{"op":"put","name":"d","text":"abab"}"#);
        let resp = e.handle(r#"{"op":"extract","formula":"(x = y.y)","vars":["x","y"],"doc":"d"}"#);
        let v = json::parse(&resp).unwrap();
        let tuples = v.get("tuples").unwrap().as_array().unwrap();
        // (ε,ε), (abab,ab), (baba,ba), plus aa/bb are not factors of abab.
        assert!(tuples
            .iter()
            .any(|t| t.as_array().unwrap()[0].as_str() == Some("abab")));
        // Unknown free variable is a request error, not a panic.
        let bad = e.handle(r#"{"op":"extract","formula":"(x = y.y)","vars":["z"],"doc":"d"}"#);
        assert!(bad.contains(r#""ok":false"#));
    }

    #[test]
    fn game_and_classify_agree_on_unary_words() {
        let e = engine();
        let resp = e.handle(r#"{"op":"game","w":"aaa","v":"aaaa","k":1}"#);
        let eq1 = resp.contains(r#""equivalent":true"#);
        let resp = e.handle(r#"{"op":"classify","words":["aaa","aaaa"],"k":1}"#);
        let one_class = resp.contains("[[0,1]]");
        assert_eq!(eq1, one_class, "{resp}");
    }

    #[test]
    fn game_fast_path_hits_and_agrees_with_solver() {
        let e = engine();
        // Unary pair: answered arithmetically, counted in stats.
        let resp = e.handle(r#"{"op":"game","w":"aaaaaaaaaaaa","v":"aaaaaaaaaaaaaa","k":2}"#);
        assert!(resp.contains(r#""equivalent":true"#), "{resp}"); // a¹² ≡₂ a¹⁴
                                                                  // Same primitive root: periodic route (table built on first use).
        let resp = e.handle(r#"{"op":"game","w":"ababab","v":"abababab","k":1}"#);
        let direct = EfSolver::new(GamePair::of("ababab", "abababab")).equivalent(1);
        assert_eq!(resp.contains(r#""equivalent":true"#), direct, "{resp}");
        let stats = e.handle(r#"{"op":"stats"}"#);
        let v = json::parse(&stats).unwrap();
        let hits = v.get("arith").unwrap().get("game_hits").unwrap().as_f64();
        assert_eq!(hits, Some(2.0), "{stats}");
        // Aperiodic pair: solver route, counter unchanged.
        e.handle(r#"{"op":"game","w":"ab","v":"ba","k":1}"#);
        let stats = e.handle(r#"{"op":"stats"}"#);
        let v = json::parse(&stats).unwrap();
        let hits = v.get("arith").unwrap().get("game_hits").unwrap().as_f64();
        assert_eq!(hits, Some(2.0), "{stats}");
    }

    #[test]
    fn game_canonical_root_path_answers_repeats_and_renamings() {
        let e = engine();
        // Aperiodic pair with agreeing fingerprints: solver route, root
        // verdict recorded.
        let first = e.handle(r#"{"op":"game","w":"aabaa","v":"abaab","k":2}"#);
        // Repeat, argument-swapped, and letter-renamed variants are all
        // answered from the canonical root entry — byte-identical verdict.
        let repeat = e.handle(r#"{"op":"game","w":"aabaa","v":"abaab","k":2}"#);
        let swapped = e.handle(r#"{"op":"game","w":"abaab","v":"aabaa","k":2}"#);
        let renamed = e.handle(r#"{"op":"game","w":"bbabb","v":"babba","k":2}"#);
        let verdict = |resp: &str| resp.contains(r#""equivalent":true"#);
        assert_eq!(verdict(&first), verdict(&repeat));
        assert_eq!(verdict(&first), verdict(&swapped));
        assert_eq!(verdict(&first), verdict(&renamed));
        let stats = json::parse(&e.handle(r#"{"op":"stats"}"#)).unwrap();
        let table = stats.get("table").unwrap();
        assert_eq!(
            table.get("canon_game_hits").unwrap().as_f64(),
            Some(3.0),
            "{stats:?}"
        );
        assert!(table.get("inserts").unwrap().as_f64().unwrap() >= 1.0);
        // A different k is a different root entry — no false sharing.
        let k1 = e.handle(r#"{"op":"game","w":"aabaa","v":"abaab","k":1}"#);
        let direct = EfSolver::of("aabaa", "abaab").equivalent(1);
        assert_eq!(verdict(&k1), direct);
    }

    #[test]
    fn game_table_stays_bounded_under_churn() {
        // 10⁴ distinct aperiodic game requests against a deliberately tiny
        // table: memory must stay flat (the table's byte footprint is
        // fixed at construction) while generational eviction recycles
        // slots — the PlanCache discipline, applied to game state.
        let e = ServiceEngine::new(EngineConfig {
            game_table_capacity: 1 << 10,
            ..EngineConfig::default()
        });
        let bits = |n: usize| -> String {
            (0..7)
                .map(|b| if n >> b & 1 == 1 { 'b' } else { 'a' })
                .collect()
        };
        let bytes_before = {
            let v = json::parse(&e.handle(r#"{"op":"stats"}"#)).unwrap();
            v.get("table").unwrap().get("bytes").unwrap().as_f64()
        };
        for i in 0..100usize {
            for j in 0..100usize {
                let line = format!(
                    r#"{{"op":"game","w":"ab{}","v":"ba{}","k":1}}"#,
                    bits(i),
                    bits(j)
                );
                assert!(e.handle(&line).contains(r#""ok":true"#));
            }
        }
        let stats = json::parse(&e.handle(r#"{"op":"stats"}"#)).unwrap();
        let table = stats.get("table").unwrap();
        assert_eq!(
            table.get("bytes").unwrap().as_f64(),
            bytes_before,
            "table memory must not grow under churn"
        );
        assert!(
            table.get("evictions").unwrap().as_f64().unwrap() > 0.0,
            "a 1k-slot table under 10⁴ games must have evicted"
        );
        assert!(table.get("inserts").unwrap().as_f64().unwrap() > 1_000.0);
    }

    #[test]
    fn endpoint_stats_carry_latency_quantiles() {
        let e = engine();
        for _ in 0..20 {
            e.handle(r#"{"op":"ping"}"#);
        }
        let v = json::parse(&e.handle(r#"{"op":"stats"}"#)).unwrap();
        let ping = v.get("endpoints").unwrap().get("ping").unwrap();
        let p50 = ping.get("p50_ms").unwrap().as_f64().unwrap();
        let p99 = ping.get("p99_ms").unwrap().as_f64().unwrap();
        assert!(p50 > 0.0 && p99 >= p50, "p50={p50} p99={p99}");
    }

    #[test]
    fn stats_reports_endpoint_and_cache_counters() {
        let e = engine();
        e.handle(r#"{"op":"check","formula":"E x: (x = \"a\")","word":"ab"}"#);
        e.handle(r#"{"op":"check","formula":"E x: (x = \"a\")","word":"ba"}"#);
        let resp = e.handle(r#"{"op":"stats"}"#);
        let v = json::parse(&resp).unwrap();
        let check = v.get("endpoints").unwrap().get("check").unwrap();
        assert_eq!(check.get("count").unwrap().as_f64(), Some(2.0));
        let pc = v.get("plan_cache").unwrap();
        assert_eq!(pc.get("hits").unwrap().as_f64(), Some(1.0));
        assert_eq!(
            v.get("eval").unwrap().get("evals").unwrap().as_f64(),
            Some(2.0)
        );
    }
}
