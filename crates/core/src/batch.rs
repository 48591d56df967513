//! Bulk ≡_k workloads: the structure arena and the batch game engine.
//!
//! The drivers behind the paper's quantitative tables — ≡_k class tables
//! over Σ^{≤n} (E24), the Lemma 3.6 minimal-pair scan (E03), the fooling
//! searches of Lemma 4.13 / Lemma 4.15 (E08/E09/E15) — are all *pair
//! grids*: O(n²) games over a window of n words. Solving each pair in
//! isolation rebuilds both words' dense [`FactorStructure`] tables (an
//! O(m²) concat table per word, per pair) and re-decides verdicts the grid
//! already knows. This module amortizes all of that:
//!
//! - [`StructureArena`] interns each distinct word **once** and builds its
//!   structure and its invariant [`Fingerprint`] **lazily**, on the first
//!   pair that actually needs them, sharing the structure via `Arc` across
//!   every pair the word participates in. Interning itself only records
//!   the word and its primitive-root decomposition (O(|w|)), so a batch
//!   whose pairs are all decided arithmetically never builds a structure
//!   at all;
//! - [`BatchSolver`] adds a cross-pair verdict memo (symmetric pairs and
//!   repeat queries are free), an **arithmetic tier** (the process-wide
//!   [`ArithOracle`]: O(1) class-table verdicts for unary and
//!   same-primitive-root pairs, confirming *and* refuting, before any
//!   structure exists), fingerprint-based refutation of inequivalent
//!   pairs *without* entering the game, canonical-pair sharing through a
//!   verdict memo and, on a table shared with an outer engine
//!   ([`BatchSolver::share_table`]), the table's root entries (one tier
//!   cascade, see [`BatchSolver`]) and union-find class merging for
//!   [`BatchSolver::classify`].
//!
//! The batch is one sequential cascade. Its only parallelism is the inner
//! two-ply search of one game ([`EfSolver::equivalent_par`], chosen by
//! [`BatchConfig::solver_threads`]). `classify` needs no pair grid: ≡_k
//! is an equivalence relation (Theorem 3.5), so a candidate's scan stops
//! at the one representative that matches it.
//!
//! Solves use the table shared through [`BatchSolver::share_table`], or
//! none; a parallel search without one creates its own
//! ([`EfSolver::equivalent_par`]).
//!
//! Every optimisation is semantically invisible: fingerprint refutations
//! are debug-asserted against the exact solver, and the differential
//! suite pins `classify == hintikka::classes_naive` on the exhaustive
//! Σ^{≤4} window.
//!
//! All words in one arena share a single alphabet Σ, fixed at
//! construction. Padding Σ with letters absent from both words of a pair
//! does not change ≡_k verdicts: the padded constants interpret as ⊥ on
//! both sides, the extra (⊥, ⊥) constant pairs are consistent (⊥ never
//! participates in R∘ and the equality pattern forces ⊥ ↦ ⊥, which was
//! already Duplicator's only consistent answer to a ⊥ move), so they only
//! pre-pin a move that was trivially answerable. The regression test
//! `alphabet_padding_is_verdict_invariant` pins this.

use crate::arena::GamePair;
use crate::arith::{ArithOracle, PeriodicTable};
use crate::canon;
use crate::fingerprint::{rank2_type_profile, Fingerprint, TYPE2_UNIVERSE_CAP};
use crate::semilinear::fit_tail;
use crate::solver::{EfSolver, SolverStats};
use crate::ttable::{TransTable, TransTableStats};
use fc_logic::FactorStructure;
use fc_words::{primitive_root, Alphabet, Word};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Index of an interned word within a [`StructureArena`].
pub type WordId = usize;

/// Interns words and builds each word's [`FactorStructure`] and
/// [`Fingerprint`] lazily, at most once, over one shared alphabet.
///
/// Interning records only the word and its primitive-root decomposition;
/// the O(|w|²) structure is built on the first [`StructureArena::structure`]
/// / [`StructureArena::fingerprint`] call (all `OnceLock`, so lookups take
/// `&self`). Pairs decided by the arithmetic tier therefore cost no
/// structure at all.
pub struct StructureArena {
    sigma: Alphabet,
    /// Forced structure backend for every interned word, or `None` for the
    /// per-word automatic choice ([`fc_logic::FactorStructure::new`]).
    backend: Option<fc_logic::BackendKind>,
    words: Vec<Word>,
    structures: Vec<OnceLock<Arc<FactorStructure>>>,
    fingerprints: Vec<OnceLock<Fingerprint>>,
    /// Lazily-memoized rank-2 type profiles (see
    /// [`crate::fingerprint::rank2_type_profile`]): O(|U|²) per word, so
    /// only computed for words whose pairs actually survive the cheap
    /// fingerprint layers.
    rank2: Vec<OnceLock<u64>>,
    /// `(primitive root, exponent)` per word, computed at intern (O(|w|)
    /// border scan) — the arithmetic tier's eligibility data.
    roots: Vec<(Word, usize)>,
    index: HashMap<Word, WordId>,
    structures_built: AtomicU64,
}

impl StructureArena {
    /// An empty arena over the alphabet `sigma`. Every word later interned
    /// must be a word over `sigma` (asserted), so that all structures share
    /// one signature and fingerprints stay comparable.
    pub fn new(sigma: Alphabet) -> StructureArena {
        StructureArena {
            sigma,
            backend: None,
            words: Vec::new(),
            structures: Vec::new(),
            fingerprints: Vec::new(),
            rank2: Vec::new(),
            roots: Vec::new(),
            index: HashMap::new(),
            structures_built: AtomicU64::new(0),
        }
    }

    /// An empty arena that builds every interned word's structure on the
    /// given backend instead of the word-length automatic choice. Verdicts
    /// are backend-independent (the differential suite
    /// `tests/backend_diff.rs` pins `all_pairs` equality), so this is a
    /// performance/memory knob, not a semantic one.
    pub fn with_backend(sigma: Alphabet, backend: fc_logic::BackendKind) -> StructureArena {
        let mut arena = StructureArena::new(sigma);
        arena.backend = Some(backend);
        arena
    }

    /// Builds an arena over the union alphabet of `words` and interns them
    /// all, returning the arena plus one id per input position (duplicate
    /// words share an id).
    pub fn for_words(words: &[Word]) -> (StructureArena, Vec<WordId>) {
        let sigma = words
            .iter()
            .fold(Alphabet::from_symbols(b""), |s, w| s.extended_by(w));
        let mut arena = StructureArena::new(sigma);
        let ids = words.iter().map(|w| arena.intern(w)).collect();
        (arena, ids)
    }

    /// Interns `word`: records it and its primitive-root decomposition.
    /// The structure and fingerprint are *not* built here — they
    /// materialise on first use. Repeat interns are a hash lookup.
    ///
    /// # Panics
    /// Panics if `word` uses a symbol outside the arena's alphabet.
    pub fn intern(&mut self, word: &Word) -> WordId {
        if let Some(&id) = self.index.get(word) {
            return id;
        }
        assert!(
            word.bytes().iter().all(|&c| self.sigma.contains(c)),
            "arena alphabet {:?} does not cover word {word}",
            self.sigma
        );
        let id = self.words.len();
        self.roots.push(primitive_root(word.bytes()));
        self.words.push(word.clone());
        self.structures.push(OnceLock::new());
        self.fingerprints.push(OnceLock::new());
        self.rank2.push(OnceLock::new());
        self.index.insert(word.clone(), id);
        id
    }

    /// The interned word.
    pub fn word(&self, id: WordId) -> &Word {
        &self.words[id]
    }

    /// The word as `root^exponent` with `root` primitive (ε ↦ (ε, 0)),
    /// precomputed at intern — no structure involved.
    pub fn primitive_power(&self, id: WordId) -> (&Word, usize) {
        let (root, exp) = &self.roots[id];
        (root, *exp)
    }

    /// The word's shared structure, built on first request.
    pub fn structure(&self, id: WordId) -> &Arc<FactorStructure> {
        self.structures[id].get_or_init(|| {
            self.structures_built.fetch_add(1, Ordering::Relaxed);
            Arc::new(match self.backend {
                Some(kind) => {
                    FactorStructure::with_backend(self.words[id].clone(), &self.sigma, kind)
                }
                None => FactorStructure::new(self.words[id].clone(), &self.sigma),
            })
        })
    }

    /// The word's invariant fingerprint, built (with its structure) on
    /// first request.
    pub fn fingerprint(&self, id: WordId) -> &Fingerprint {
        self.fingerprints[id].get_or_init(|| Fingerprint::of(self.structure(id)))
    }

    /// The word's rank-2 type profile, computed on first request and
    /// memoized; `None` above the `cap` on universe size (the O(|U|²)
    /// pass would cost more than the games it could save on long words —
    /// see [`BatchConfig::rank2_universe_cap`]).
    pub fn rank2_profile(&self, id: WordId, cap: usize) -> Option<u64> {
        let s = self.structure(id);
        if s.universe_len() > cap {
            return None;
        }
        Some(*self.rank2[id].get_or_init(|| rank2_type_profile(s)))
    }

    /// Number of structures actually built so far (≤ words interned).
    pub fn structures_built(&self) -> u64 {
        self.structures_built.load(Ordering::Relaxed)
    }

    /// Number of distinct words interned.
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// `true` iff nothing has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// The shared alphabet.
    pub fn alphabet(&self) -> &Alphabet {
        &self.sigma
    }

    /// Assembles the game 𝔄_{w_i} vs 𝔅_{w_j} from the shared structures —
    /// two `Arc` bumps plus the constant zip and mirror tables; no factor
    /// table is rebuilt.
    pub fn game(&self, i: WordId, j: WordId) -> GamePair {
        let a = self.structure(i).clone();
        let b = self.structure(j).clone();
        let constant_pairs = a
            .constants_vector()
            .into_iter()
            .zip(b.constants_vector())
            .collect();
        GamePair::from_parts(a, b, constant_pairs)
    }
}

/// Counters exposed by the batch engine for benches and report rows.
#[derive(Clone, Copy, Debug, Default)]
pub struct BatchStats {
    /// Distinct structures built by the arena (each word at most once;
    /// words whose pairs were all decided arithmetically build none).
    pub structures_built: u64,
    /// Pairs *confirmed* equivalent by the arithmetic tier — no structure,
    /// no solver.
    pub arith_confirmations: u64,
    /// Pairs *refuted* by the arithmetic tier — no structure, no solver.
    pub arith_refutations: u64,
    /// Pairs refuted by fingerprint inequality, no solver constructed.
    pub fingerprint_refutations: u64,
    /// Pairs refuted by the lazily-computed rank-2 type profile.
    pub rank2_refutations: u64,
    /// Pairs decided by the exact solver.
    pub pairs_solved: u64,
    /// Queries answered from the cross-pair verdict memo.
    pub memo_hits: u64,
    /// Queries answered from the *canonical* verdict memo — a pair whose
    /// letter-renamed or swapped image was already decided ([`crate::canon`]).
    pub canon_hits: u64,
    /// Queries answered from the canonical root entry of the transposition
    /// table — a pair some earlier solve (possibly of another batch sharing
    /// the table) decided; no solver ran.
    pub table_root_hits: u64,
    /// Entries currently held in the verdict memo.
    pub memo_entries: u64,
    /// Aggregated counters of every solver run by this batch.
    pub solver: SolverStats,
    /// Wall time accumulated inside the batch entry points.
    pub wall: Duration,
}

impl BatchStats {
    /// Folds another batch's counters into this one (wall times add).
    pub fn absorb(&mut self, other: &BatchStats) {
        self.structures_built += other.structures_built;
        self.arith_confirmations += other.arith_confirmations;
        self.arith_refutations += other.arith_refutations;
        self.fingerprint_refutations += other.fingerprint_refutations;
        self.rank2_refutations += other.rank2_refutations;
        self.pairs_solved += other.pairs_solved;
        self.memo_hits += other.memo_hits;
        self.canon_hits += other.canon_hits;
        self.table_root_hits += other.table_root_hits;
        self.memo_entries += other.memo_entries;
        self.solver.absorb(&other.solver);
        self.wall += other.wall;
    }
}

impl std::fmt::Display for BatchStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} structures built, {} arith-confirmed, {} arith-refuted, \
             {} fingerprint-refuted, {} rank2-refuted, \
             {} solver-decided, {} memo hits ({} entries), {} canon hits, \
             {} table-root hits, {} solver states, {} table hits, {:.3?} wall",
            self.structures_built,
            self.arith_confirmations,
            self.arith_refutations,
            self.fingerprint_refutations,
            self.rank2_refutations,
            self.pairs_solved,
            self.memo_hits,
            self.memo_entries,
            self.canon_hits,
            self.table_root_hits,
            self.solver.states_explored,
            self.solver.table_hits,
            self.wall
        )
    }
}

/// Tuning knobs for a [`BatchSolver`].
#[derive(Clone, Copy, Debug)]
pub struct BatchConfig {
    /// Consult the lazily-memoized rank-2 type profile of words whose
    /// universe has at most this many elements; `None` turns the tier
    /// off (the default). Sound at every rank ≥ 2 and never changes
    /// verdicts, but the O(|U|²) per-word pass only *pays* when individual
    /// games are expensive relative to the window: small-word window
    /// classifies keep it off, the unary scans and periodic tables use
    /// [`TYPE2_UNIVERSE_CAP`], and the fooling searches (E08/E09), whose
    /// saved games are far dearer, use 512.
    pub rank2_universe_cap: Option<usize>,
    /// Consult the arithmetic oracle ([`ArithOracle`]) before any
    /// structure or fingerprint exists: unary pairs `aᵖ` vs `a^q` (rank-3
    /// only from an already-warm table) and same-primitive-root pairs are
    /// confirmed *or* refuted in O(1) from semilinear class tables.
    /// Sound by the brute/solver audits (`arith_diff.rs` and the tier's
    /// own debug assertion); disabling it never changes verdicts.
    pub use_arith: bool,
    /// Let the arithmetic tier *build* solver-backed exponent tables for
    /// non-unary primitive roots ([`PeriodicTable`]). Off by default: the
    /// build is itself a classify over `u^0..u^window`, worth paying only
    /// for callers that replay many exponent pairs of one root (`fc game
    /// --fast`, the serve warm paths). Already-built tables are consulted
    /// either way.
    pub arith_periodic: bool,
    /// Threads for the per-pair solver: `1` = sequential search, `0` =
    /// `equivalent_auto` (one worker per CPU), `t` = `equivalent_par(k,
    /// t)`. This is the batch's only parallelism.
    pub solver_threads: usize,
}

impl Default for BatchConfig {
    fn default() -> BatchConfig {
        BatchConfig {
            rank2_universe_cap: None,
            use_arith: true,
            arith_periodic: false,
            solver_threads: 1,
        }
    }
}

/// A memoizing bulk ≡_k engine over one [`StructureArena`].
///
/// Every query walks one cascade of sound shortcut tiers, cheapest first,
/// and stops at the first tier that answers: identity → pair
/// memo → arithmetic oracle → fingerprint → rank-2 profile → canonical
/// memo → shared transposition-table root → exact solver. This is the
/// only place the order is written down; `fc serve`'s `game` and
/// `classify` requests answer through it too.
pub struct BatchSolver {
    arena: StructureArena,
    config: BatchConfig,
    /// `(min id, max id, k) → verdict`; queries are canonicalised, so the
    /// symmetric half of any grid is free.
    verdicts: HashMap<(WordId, WordId, u32), bool>,
    /// L2 verdict memo keyed by the *canonical* pair ([`crate::canon`]):
    /// letter-renamed and swapped images of a solved pair are free. Exact
    /// (full canonical words in the key), unlike the hashed table below.
    canon_verdicts: HashMap<(Box<[u8]>, u32), bool>,
    /// The transposition table shared with an outer engine (`fc serve`):
    /// probed at the canonical root before the exact search and fed by
    /// every search, so verdicts outlive the batch. Without one, solves
    /// attach no table: a batch-owned table's root entries would only
    /// repeat `canon_verdicts` (same canonical key, same 26-letter cap,
    /// probed after it), a search's own states are covered by its
    /// solver's exact memo, and the game fingerprint keeps every other
    /// pair's entries out of reach.
    shared_table: Option<Arc<TransTable>>,
    stats: BatchStats,
}

/// The cascade tier that answered a pair, in walk order.
#[derive(Clone, Copy, Debug)]
enum Tier {
    Memo,
    Arith,
    Fingerprint,
    Rank2,
    CanonMemo,
    TableRoot,
    Solver,
}

impl BatchSolver {
    /// A batch solver with the default configuration.
    pub fn new(arena: StructureArena) -> BatchSolver {
        BatchSolver::with_config(arena, BatchConfig::default())
    }

    /// A batch solver with explicit tuning.
    pub fn with_config(arena: StructureArena, config: BatchConfig) -> BatchSolver {
        BatchSolver {
            arena,
            config,
            verdicts: HashMap::new(),
            canon_verdicts: HashMap::new(),
            shared_table: None,
            stats: BatchStats::default(),
        }
    }

    /// Gives the batch an externally shared transposition table (e.g. `fc
    /// serve`'s per-engine table): every solve uses it, and its root
    /// entries join the cascade, so verdicts persist beyond this batch's
    /// lifetime.
    pub fn share_table(&mut self, table: Arc<TransTable>) {
        self.shared_table = Some(table);
    }

    /// The transposition table's own counters (hits, misses, inserts,
    /// evictions, capacity); all zero for a batch with no shared table.
    pub fn table_stats(&self) -> TransTableStats {
        self.shared_table
            .as_ref()
            .map(|t| t.stats())
            .unwrap_or_default()
    }

    /// The underlying arena.
    pub fn arena(&self) -> &StructureArena {
        &self.arena
    }

    /// Interns a word into the arena (see [`StructureArena::intern`]).
    pub fn intern(&mut self, word: &Word) -> WordId {
        self.arena.intern(word)
    }

    /// Counters snapshot (memo entry count taken at call time).
    pub fn stats(&self) -> BatchStats {
        let mut s = self.stats;
        s.structures_built = self.arena.structures_built();
        s.memo_entries = self.verdicts.len() as u64;
        s
    }

    /// Decides `w_i ≡_k w_j` through the tier cascade.
    pub fn equivalent(&mut self, i: WordId, j: WordId, k: u32) -> bool {
        let t0 = Instant::now();
        let verdict = self.verdict(i, j, k);
        self.stats.wall += t0.elapsed();
        verdict
    }

    /// [`BatchSolver::equivalent`] without the wall-clock bookkeeping —
    /// the internal hot path shared by the scan entry points.
    fn verdict(&mut self, i: WordId, j: WordId, k: u32) -> bool {
        if i == j {
            return true; // reflexivity (identical structure on both sides)
        }
        let (lo, hi) = (i.min(j), i.max(j));
        let (verdict, tier) = match self.cheap_verdict(i, j, k) {
            Some(hit) => hit,
            None => (self.solve(lo, hi, k), Tier::Solver),
        };
        self.record(lo, hi, k, verdict, tier);
        verdict
    }

    /// The cheap tiers of the cascade, in order, without side effects on
    /// the batch: the verdict and the tier that gave it, or `None` when
    /// only the exact solver can decide the pair (`i ≠ j`).
    fn cheap_verdict(&self, i: WordId, j: WordId, k: u32) -> Option<(bool, Tier)> {
        let (lo, hi) = (i.min(j), i.max(j));
        if let Some(&v) = self.verdicts.get(&(lo, hi, k)) {
            return Some((v, Tier::Memo));
        }
        if let Some(eq) = self.arith_verdict(i, j, k) {
            return Some((eq, Tier::Arith));
        }
        if self
            .arena
            .fingerprint(i)
            .refutes(self.arena.fingerprint(j), k)
        {
            return Some((false, Tier::Fingerprint));
        }
        if let Some(cap) = self.config.rank2_universe_cap.filter(|_| k >= 2) {
            if let (Some(a), Some(b)) = (
                self.arena.rank2_profile(i, cap),
                self.arena.rank2_profile(j, cap),
            ) {
                if a != b {
                    return Some((false, Tier::Rank2));
                }
            }
        }
        // The canonical layers: first the exact canonical memo (letter-
        // renamed / swapped images of an already-decided pair), then a
        // root probe of the shared transposition table under the canonical
        // fingerprint — a hit solves the pair without a game.
        if let Some(ck) = self.canon_key_of(lo, hi, k) {
            if let Some(&v) = self.canon_verdicts.get(&ck) {
                return Some((v, Tier::CanonMemo));
            }
        }
        let table = self.shared_table.as_ref()?;
        let fp = self.root_fp_of(lo, hi, k)?;
        let v = table.probe_root(fp, k)?;
        Some((v, Tier::TableRoot))
    }

    /// Runs the exact solver on `lo` vs `hi`, folding its counters into
    /// the batch's. The solver gets the shared table if there is one and
    /// no table otherwise (a parallel search then makes its own).
    fn solve(&mut self, lo: WordId, hi: WordId, k: u32) -> bool {
        let mut solver = EfSolver::new(self.arena.game(lo, hi));
        if let Some(table) = &self.shared_table {
            solver.attach_table(Arc::clone(table));
        }
        let verdict = match self.config.solver_threads {
            0 => solver.equivalent_auto(k),
            1 => solver.equivalent(k),
            t => solver.equivalent_par(k, t),
        };
        let stats = solver.stats();
        self.stats.solver.absorb(&stats);
        self.stats.solver.wall += stats.wall;
        verdict
    }

    /// Books the answer `tier` gave for `lo` vs `hi`: its counter, plus the
    /// memo entries that let later queries stop earlier in the cascade.
    fn record(&mut self, lo: WordId, hi: WordId, k: u32, verdict: bool, tier: Tier) {
        #[cfg(debug_assertions)]
        self.replay(lo, hi, k, verdict, tier);
        match tier {
            Tier::Memo => {
                self.stats.memo_hits += 1;
                return;
            }
            Tier::Arith if verdict => self.stats.arith_confirmations += 1,
            Tier::Arith => self.stats.arith_refutations += 1,
            Tier::Fingerprint => self.stats.fingerprint_refutations += 1,
            Tier::Rank2 => self.stats.rank2_refutations += 1,
            Tier::CanonMemo => self.stats.canon_hits += 1,
            Tier::TableRoot => {
                self.stats.table_root_hits += 1;
                self.record_canonical(lo, hi, k, verdict);
            }
            Tier::Solver => {
                self.stats.pairs_solved += 1;
                self.record_canonical(lo, hi, k, verdict);
                if let (Some(table), Some(fp)) = (&self.shared_table, self.root_fp_of(lo, hi, k)) {
                    table.insert_root(fp, k, verdict);
                }
            }
        }
        self.verdicts.insert((lo, hi, k), verdict);
    }

    fn record_canonical(&mut self, lo: WordId, hi: WordId, k: u32, verdict: bool) {
        if let Some(ck) = self.canon_key_of(lo, hi, k) {
            self.canon_verdicts.insert(ck, verdict);
        }
    }

    /// Differential path: a shortcut tier's verdict must agree with the
    /// exact solver — an unsound tier is a correctness bug, not a missed
    /// optimisation. Refutations by invariant are always replayed; the
    /// arithmetic and table-root answers (which identify pairs by class
    /// table or hash tag) on instances small enough for the solver. The
    /// game is built directly, not through the arena, so debug builds keep
    /// the arena's laziness observable.
    #[cfg(debug_assertions)]
    fn replay(&self, lo: WordId, hi: WordId, k: u32, verdict: bool, tier: Tier) {
        let (w, v) = (self.arena.word(lo), self.arena.word(hi));
        let replay = match tier {
            Tier::Fingerprint | Tier::Rank2 => true,
            Tier::Arith | Tier::TableRoot => k <= 2 && w.len() <= 48 && v.len() <= 48,
            Tier::Memo | Tier::CanonMemo | Tier::Solver => false,
        };
        if replay {
            let game = GamePair::new(w.clone(), v.clone(), self.arena.alphabet());
            assert_eq!(
                EfSolver::new(game).equivalent(k),
                verdict,
                "{tier:?} tier unsoundness: {w} vs {v} at k={k}"
            );
        }
    }

    /// The canonical memo key of a pair at rank `k` (`None` above the
    /// canonicalizer's alphabet cap — the pair simply loses L2 sharing).
    fn canon_key_of(&self, i: WordId, j: WordId, k: u32) -> Option<(Box<[u8]>, u32)> {
        canon::canonical_key(self.arena.word(i).bytes(), self.arena.word(j).bytes())
            .map(|ck| (ck, k))
    }

    /// The canonical root fingerprint of a pair for transposition-table
    /// root entries.
    fn root_fp_of(&self, i: WordId, j: WordId, k: u32) -> Option<u64> {
        canon::root_fingerprint(self.arena.word(i).bytes(), self.arena.word(j).bytes(), k)
    }

    /// Partitions the positions of `items` into ≡_k classes. Classes are
    /// ordered by first member; members keep input order (the exact output
    /// contract of the naive representative loop it replaces). Duplicate
    /// ids are free; cross-fingerprint pairs never reach the solver.
    pub fn classify(&mut self, items: &[WordId], k: u32) -> Vec<Vec<usize>> {
        let t0 = Instant::now();
        let mut dsu = Dsu::new(items.len());
        let mut reps: Vec<usize> = Vec::new();
        'next: for pos in 0..items.len() {
            for rep in reps.iter().copied() {
                if self.verdict(items[rep], items[pos], k) {
                    dsu.union(rep, pos);
                    continue 'next;
                }
            }
            reps.push(pos);
        }
        let out = dsu.classes_by_first_member();
        self.stats.wall += t0.elapsed();
        out
    }

    /// The full verdict matrix over the positions of `items`: only the
    /// upper triangle is solved, the diagonal is reflexivity, the lower
    /// half is mirrored.
    pub fn all_pairs(&mut self, items: &[WordId], k: u32) -> Vec<Vec<bool>> {
        let t0 = Instant::now();
        let n = items.len();
        let mut eq = vec![vec![false; n]; n];
        for i in 0..n {
            eq[i][i] = true;
            for j in i + 1..n {
                let v = self.verdict(items[i], items[j], k);
                eq[i][j] = v;
                eq[j][i] = v;
            }
        }
        self.stats.wall += t0.elapsed();
        eq
    }

    /// The first pair (in the given order) that *is* ≡_k, as an index into
    /// `pairs` — the shape of the E03 minimal-pair scan and the fooling
    /// searches, where the scan order is the result's definition.
    pub fn find_first_equivalent(&mut self, pairs: &[(WordId, WordId)], k: u32) -> Option<usize> {
        let t0 = Instant::now();
        let hit = (0..pairs.len()).find(|&idx| self.verdict(pairs[idx].0, pairs[idx].1, k));
        self.stats.wall += t0.elapsed();
        hit
    }

    /// The first pair (in the given order) that is *not* ≡_k.
    pub fn find_first_inequivalent(&mut self, pairs: &[(WordId, WordId)], k: u32) -> Option<usize> {
        let t0 = Instant::now();
        let hit = (0..pairs.len()).find(|&idx| !self.verdict(pairs[idx].0, pairs[idx].1, k));
        self.stats.wall += t0.elapsed();
        hit
    }

    /// The arithmetic tier: O(1) verdicts for unary and same-primitive-root
    /// pairs from the process-wide [`ArithOracle`] class tables, before
    /// any structure or fingerprint exists. `None` when the pair is not
    /// eligible (distinct primitive roots) or the oracle declines (rank
    /// above its tables; periodic route disabled or outside its window).
    ///
    /// Rank-3 unary verdicts are served only from an *already-warm* table
    /// ([`ArithOracle::unary_table_ready`]) — a bulk query must not hide
    /// the multi-second rank-3 build behind one pair.
    fn arith_verdict(&self, i: WordId, j: WordId, k: u32) -> Option<bool> {
        if !self.config.use_arith {
            return None;
        }
        // Eligibility pre-filter on the interned roots: different
        // primitive roots (with neither side ε) can never reach a table.
        let (ri, _) = self.arena.primitive_power(i);
        let (rj, _) = self.arena.primitive_power(j);
        let (wi, wj) = (self.arena.word(i), self.arena.word(j));
        if ri != rj && !wi.bytes().is_empty() && !wj.bytes().is_empty() {
            return None;
        }
        let periodic = self.config.arith_periodic;
        let max_len = wi.bytes().len().max(wj.bytes().len());
        let verdict =
            ArithOracle::global().verdict_words(wi.bytes(), wj.bytes(), k, false, |root| {
                if !periodic {
                    return None;
                }
                // Window past both queried exponents, with tail margin.
                let window = (max_len / root.bytes().len()) as u64 + 8;
                periodic_table_builder(k, root, window.max(16))
            })?;
        Some(verdict.equivalent)
    }
}

/// Classifies `root⁰..root^window` with the exact batch solver (one shared
/// arena, arithmetic tier off — the build must not re-enter the oracle it
/// is building for) and fits the tail: the solver-backed builder behind
/// [`ArithOracle::periodic_table`]. Every in-window verdict the resulting
/// [`PeriodicTable`] serves is a cached exact-solver verdict, so the table
/// is unconditionally sound; the fitted tail is display-only.
pub fn periodic_table_builder(k: u32, root: &Word, window: u64) -> Option<PeriodicTable> {
    if root.bytes().is_empty() {
        return None;
    }
    let words: Vec<Word> = (0..=window).map(|e| root.pow(e as usize)).collect();
    let (arena, ids) = StructureArena::for_words(&words);
    let mut batch = BatchSolver::with_config(
        arena,
        BatchConfig {
            rank2_universe_cap: Some(TYPE2_UNIVERSE_CAP),
            use_arith: false,
            ..BatchConfig::default()
        },
    );
    let classes = batch.classify(&ids, k);
    let mut class_of = vec![0u32; ids.len()];
    for (ci, members) in classes.iter().enumerate() {
        for &pos in members {
            class_of[pos] = ci as u32;
        }
    }
    let as_hashes: Vec<u128> = class_of.iter().map(|&c| c as u128).collect();
    Some(PeriodicTable {
        k,
        root: root.clone(),
        window,
        class_of,
        tail: fit_tail(&as_hashes),
    })
}

/// Minimal union-find over `0..n` with path halving; classes are read back
/// in first-member order so the partition matches the representative loop
/// it replaces.
struct Dsu {
    parent: Vec<usize>,
}

impl Dsu {
    fn new(n: usize) -> Dsu {
        Dsu {
            parent: (0..n).collect(),
        }
    }

    fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] != x {
            self.parent[x] = self.parent[self.parent[x]];
            x = self.parent[x];
        }
        x
    }

    /// Merges keeping the smaller root (so roots stay first members).
    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            let (lo, hi) = (ra.min(rb), ra.max(rb));
            self.parent[hi] = lo;
        }
    }

    /// The partition as position lists: classes ordered by their first
    /// member, members ascending (== input order).
    fn classes_by_first_member(&mut self) -> Vec<Vec<usize>> {
        let n = self.parent.len();
        let mut by_root: HashMap<usize, usize> = HashMap::new();
        let mut classes: Vec<Vec<usize>> = Vec::new();
        for pos in 0..n {
            let root = self.find(pos);
            let slot = *by_root.entry(root).or_insert_with(|| {
                classes.push(Vec::new());
                classes.len() - 1
            });
            classes[slot].push(pos);
        }
        classes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn window(max_len: usize) -> Vec<Word> {
        Alphabet::ab().words_up_to(max_len).collect()
    }

    /// aabaa / abaab and its a↔b renaming bbabb / babba: a pair the
    /// fingerprint does not refute at k = 2, so it reaches the solver.
    fn renamed_pairs() -> Vec<Word> {
        ["aabaa", "abaab", "bbabb", "babba"]
            .into_iter()
            .map(Word::from)
            .collect()
    }

    #[test]
    fn arena_interns_each_word_once_and_builds_lazily() {
        let words = vec![Word::from("ab"), Word::from("ba"), Word::from("ab")];
        let (arena, ids) = StructureArena::for_words(&words);
        assert_eq!(arena.len(), 2);
        assert_eq!(ids, vec![0, 1, 0]);
        assert_eq!(arena.word(0).as_str(), "ab");
        // Interning alone builds nothing; first touches build each once.
        assert_eq!(arena.structures_built(), 0);
        let first = Arc::as_ptr(arena.structure(0));
        let _ = arena.fingerprint(0);
        let _ = arena.fingerprint(1);
        assert_eq!(
            Arc::as_ptr(arena.structure(0)),
            first,
            "shared, not rebuilt"
        );
        assert_eq!(arena.structures_built(), 2);
    }

    #[test]
    fn arena_precomputes_primitive_powers() {
        let words = vec![Word::from("abab"), Word::from("aaa"), Word::from("")];
        let (arena, ids) = StructureArena::for_words(&words);
        assert_eq!(arena.primitive_power(ids[0]), (&Word::from("ab"), 2));
        assert_eq!(arena.primitive_power(ids[1]), (&Word::from("a"), 3));
        assert_eq!(arena.primitive_power(ids[2]).1, 0);
        assert_eq!(arena.structures_built(), 0);
    }

    #[test]
    fn arena_game_matches_direct_construction() {
        let words = vec![Word::from("abaab"), Word::from("aab")];
        let (arena, ids) = StructureArena::for_words(&words);
        let g = arena.game(ids[0], ids[1]);
        let direct = GamePair::new(words[0].clone(), words[1].clone(), arena.alphabet());
        assert_eq!(g.constant_pairs, direct.constant_pairs);
        for k in 0..=2 {
            assert_eq!(
                EfSolver::new(g.clone()).equivalent(k),
                EfSolver::new(direct.clone()).equivalent(k)
            );
        }
    }

    #[test]
    #[should_panic(expected = "does not cover")]
    fn arena_rejects_foreign_symbols() {
        let mut arena = StructureArena::new(Alphabet::ab());
        arena.intern(&Word::from("abc"));
    }

    #[test]
    fn batch_verdicts_match_per_pair_solver() {
        let words = window(3);
        let (arena, ids) = StructureArena::for_words(&words);
        let sigma = arena.alphabet().clone();
        let mut batch = BatchSolver::new(arena);
        for (p, w) in words.iter().enumerate() {
            for (q, v) in words.iter().enumerate() {
                for k in 0..=2u32 {
                    let direct =
                        EfSolver::new(GamePair::new(w.clone(), v.clone(), &sigma)).equivalent(k);
                    assert_eq!(
                        batch.equivalent(ids[p], ids[q], k),
                        direct,
                        "w={w} v={v} k={k}"
                    );
                }
            }
        }
        let stats = batch.stats();
        assert!(stats.fingerprint_refutations > 0, "filter should fire");
        assert!(stats.memo_hits > 0, "symmetric half should be free");
        assert!(stats.pairs_solved > 0);
        assert!(
            stats.arith_confirmations + stats.arith_refutations > 0,
            "the window's unary pairs should be decided arithmetically"
        );
        assert!(stats.structures_built <= words.len() as u64);
    }

    #[test]
    fn classify_matches_representative_loop_semantics() {
        let words = vec![
            Word::from("a"),
            Word::from("aa"),
            Word::from("b"),
            Word::from("ab"),
            Word::from("ba"),
        ];
        let (arena, ids) = StructureArena::for_words(&words);
        let mut batch = BatchSolver::new(arena);
        // Rank 0 groups by occurring-letter set: {a, aa}, {b}, {ab, ba}.
        let classes = batch.classify(&ids, 0);
        assert_eq!(classes, vec![vec![0, 1], vec![2], vec![3, 4]]);
    }

    #[test]
    fn find_first_scans_respect_order() {
        let words: Vec<Word> = (0..=6).map(|n| Word::from("a").pow(n)).collect();
        let (arena, ids) = StructureArena::for_words(&words);
        let mut batch = BatchSolver::new(arena);
        // (p, q) pairs ordered by (q, p), exponents ≥ 1 — the E03 scan.
        let mut pairs = Vec::new();
        let mut exps = Vec::new();
        for q in 1..=6usize {
            for p in 1..q {
                pairs.push((ids[p], ids[q]));
                exps.push((p, q));
            }
        }
        let hit = batch.find_first_equivalent(&pairs, 1).expect("rank-1 pair");
        assert_eq!(exps[hit], (3, 4), "minimal rank-1 unary pair");
        // And the first inequivalent pair is the very first probed.
        assert_eq!(batch.find_first_inequivalent(&pairs, 1), Some(0));
    }

    #[test]
    fn arith_tier_decides_unary_batches_without_structures() {
        // A purely unary batch is decided entirely by the semilinear
        // class tables: zero structures, zero solver runs.
        let words: Vec<Word> = (0..=20).map(|n| Word::from("a").pow(n)).collect();
        let (arena, ids) = StructureArena::for_words(&words);
        let mut batch = BatchSolver::new(arena);
        for k in 0..=2u32 {
            let classes = batch.classify(&ids, k);
            let table = crate::arith::unary_class_table(k, crate::arith::default_window(k))
                .expect("unary table");
            // Class partition must match the table's (first-member order).
            let mut expect: Vec<Vec<usize>> = Vec::new();
            let mut rep_class: Vec<u32> = Vec::new();
            for n in 0..=20u64 {
                let c = table.class_index(n);
                match rep_class.iter().position(|&r| r == c) {
                    Some(slot) => expect[slot].push(n as usize),
                    None => {
                        rep_class.push(c);
                        expect.push(vec![n as usize]);
                    }
                }
            }
            assert_eq!(classes, expect, "k={k}");
        }
        let stats = batch.stats();
        assert_eq!(stats.structures_built, 0, "no structure should be built");
        assert_eq!(stats.pairs_solved, 0, "no game should be played");
        assert!(stats.arith_confirmations > 0 && stats.arith_refutations > 0);
    }

    #[test]
    fn arith_ablation_is_verdict_invariant() {
        // Mixed window: unary, periodic, and aperiodic words. Turning the
        // arithmetic tier off must not change a single verdict.
        let words = window(3);
        for k in 0..=2u32 {
            let (arena, ids) = StructureArena::for_words(&words);
            let mut with_arith = BatchSolver::new(arena);
            let (arena2, ids2) = StructureArena::for_words(&words);
            let mut without_arith = BatchSolver::with_config(
                arena2,
                BatchConfig {
                    use_arith: false,
                    ..BatchConfig::default()
                },
            );
            assert_eq!(
                with_arith.all_pairs(&ids, k),
                without_arith.all_pairs(&ids2, k),
                "k={k}"
            );
        }
    }

    #[test]
    fn periodic_builder_matches_solver_and_fits_tail() {
        let root = Word::from("ab");
        let table = periodic_table_builder(1, &root, 16).expect("builder");
        for p in 0..=16u64 {
            for q in 0..=16u64 {
                let direct = EfSolver::new(GamePair::of(
                    root.pow(p as usize).as_str(),
                    root.pow(q as usize).as_str(),
                ))
                .equivalent(1);
                assert_eq!(table.verdict(p, q), Some(direct), "p={p} q={q}");
            }
        }
        assert_eq!(table.verdict(3, 17), None, "outside the window: decline");
        assert!(table.tail.is_some(), "(ab)^n classes stabilise quickly");
    }

    #[test]
    fn arith_periodic_route_confirms_same_root_pairs() {
        let words = vec![Word::from("abababab"), Word::from("ababababab")];
        let (arena, ids) = StructureArena::for_words(&words);
        let mut batch = BatchSolver::with_config(
            arena,
            BatchConfig {
                arith_periodic: true,
                ..BatchConfig::default()
            },
        );
        let verdict = batch.equivalent(ids[0], ids[1], 1);
        let direct = EfSolver::new(GamePair::of("abababab", "ababababab")).equivalent(1);
        assert_eq!(verdict, direct);
        let stats = batch.stats();
        assert_eq!(stats.arith_confirmations + stats.arith_refutations, 1);
        assert_eq!(stats.structures_built, 0, "decided without structures");
    }

    #[test]
    fn canonical_tier_collapses_renamed_and_swapped_pairs() {
        // (aabaa, abaab), (bbabb, babba) [letter swap], (abaab, aabaa)
        // [argument swap] share one canonical pair: after the first is
        // solved, the others are canon-memo hits — no extra game, no extra
        // structure beyond the words themselves. The fingerprint does not
        // refute the pair at k = 2, so it reaches the canonical tier.
        let words = renamed_pairs();
        let (arena, ids) = StructureArena::for_words(&words);
        let sigma = arena.alphabet().clone();
        let table = Arc::new(TransTable::new(1 << 12));
        let mut batch = BatchSolver::new(arena);
        batch.share_table(Arc::clone(&table));
        let first = batch.equivalent(ids[0], ids[1], 2);
        let solved_after_first = batch.stats().pairs_solved;
        assert_eq!(
            solved_after_first, 1,
            "the first pair must reach the solver"
        );
        let renamed = batch.equivalent(ids[2], ids[3], 2);
        let swapped = batch.equivalent(ids[1], ids[0], 2);
        assert_eq!(first, renamed);
        assert_eq!(first, swapped);
        let stats = batch.stats();
        assert_eq!(
            stats.pairs_solved, solved_after_first,
            "renamed/swapped pairs must not reach the solver"
        );
        assert!(stats.canon_hits >= 1, "canonical memo should fire");
        assert_eq!(
            stats.table_root_hits, 0,
            "the exact canonical memo answers before the table root"
        );
        // And the collapsed verdicts are the true ones.
        let direct =
            EfSolver::new(GamePair::new(words[2].clone(), words[3].clone(), &sigma)).equivalent(2);
        assert_eq!(renamed, direct);
        // A fresh batch on the same table has an empty canonical memo: the
        // renamed pair is answered by the table's canonical root entry.
        let (arena2, ids2) = StructureArena::for_words(&words);
        let mut second = BatchSolver::new(arena2);
        second.share_table(table);
        assert_eq!(second.equivalent(ids2[2], ids2[3], 2), first);
        let stats = second.stats();
        assert_eq!((stats.table_root_hits, stats.pairs_solved), (1, 0));
        assert_eq!(
            stats.solver.table_hits + stats.solver.table_misses,
            0,
            "a table-root answer runs no solver"
        );
    }

    #[test]
    fn shared_table_persists_across_batches() {
        // An engine-owned table outlives one batch: a second batch over
        // the same pair starts with the root verdict already present.
        let table = Arc::new(TransTable::new(1 << 12));
        let words = &renamed_pairs()[..2];
        let (arena, ids) = StructureArena::for_words(words);
        let mut first = BatchSolver::new(arena);
        first.share_table(Arc::clone(&table));
        let v1 = first.equivalent(ids[0], ids[1], 2);
        assert_eq!(first.stats().pairs_solved, 1);
        let (arena2, ids2) = StructureArena::for_words(words);
        let mut second = BatchSolver::new(arena2);
        second.share_table(Arc::clone(&table));
        let v2 = second.equivalent(ids2[0], ids2[1], 2);
        assert_eq!(v1, v2);
        assert_eq!(
            second.stats().pairs_solved,
            0,
            "the shared table's root entry must decide the repeat pair"
        );
        assert_eq!(second.stats().table_root_hits, 1);
    }

    #[test]
    fn sequential_solves_without_a_shared_table_allocate_none() {
        // A batch with no shared table runs its sequential solves
        // table-free: no transposition table is probed even after the
        // solver has run, and the partition is still the exact one.
        let mut words: Vec<Word> = Alphabet::ab().words_up_to(3).collect();
        words.extend(renamed_pairs());
        let (arena, ids) = StructureArena::for_words(&words);
        let mut batch = BatchSolver::new(arena);
        let classes = batch.classify(&ids, 2);
        let stats = batch.stats();
        assert!(stats.pairs_solved > 0, "the solver must run: {stats}");
        assert_eq!(batch.table_stats(), TransTableStats::default());
        assert_eq!(stats.table_root_hits, 0);
        assert_eq!(
            stats.solver.table_hits + stats.solver.table_misses,
            0,
            "a table-free solve probes no table"
        );
        let classes: Vec<Vec<Word>> = classes
            .iter()
            .map(|class| class.iter().map(|&pos| words[pos].clone()).collect())
            .collect();
        assert_eq!(classes, crate::hintikka::classes_naive(&words, 2));
    }

    #[test]
    fn alphabet_padding_is_verdict_invariant() {
        // Σ padded with letters absent from *both* words must not change
        // any verdict — this is what lets one arena serve a whole window.
        let words = window(3);
        let padded = Alphabet::abc(); // 'c' occurs in no window word
        for w in &words {
            for v in &words {
                for k in 0..=2u32 {
                    let joint = EfSolver::new(GamePair::of(w.as_str(), v.as_str())).equivalent(k);
                    let wide =
                        EfSolver::new(GamePair::new(w.clone(), v.clone(), &padded)).equivalent(k);
                    assert_eq!(joint, wide, "w={w} v={v} k={k}");
                }
            }
        }
    }
}
