//! The exact EF-game solver: deciding `𝔄_w ≡_k 𝔅_v`.
//!
//! The solver performs the alternating search that *is* the game semantics
//! of §3: Duplicator wins the `k`-round game iff for **every** Spoiler move
//! (a side and an element, including ⊥) there **exists** a Duplicator
//! response keeping the chosen tuples a partial isomorphism such that
//! Duplicator wins the remaining `k − 1` rounds. States (canonicalised
//! pair sets) are memoized.
//!
//! By Theorem 3.5, the verdict coincides with "`w` and `v` agree on every
//! FC sentence of quantifier rank ≤ k"; the integration tests validate
//! this against the model checker for small ranks, and a differential
//! suite validates this optimized search against the definitional
//! reference solver in [`crate::reference`].
//!
//! Complexity is `O((|U_A|·|U_B|)^k)` in the worst case — exponential in
//! the round count, as the theory demands. This implementation makes the
//! search constant-factor lean (see `docs/SOLVER.md`):
//!
//! - **id arithmetic** — every atom probe is an O(1) lookup into the
//!   per-structure concatenation tables built by `FactorStructure`;
//! - **packed states** — a game state is the sorted vector of played
//!   pairs, each packed into one `u64`; the constant seeding is identical
//!   in every state and lives outside the memo keys, which are probed by
//!   borrowed slice (no clone per lookup);
//! - **move pruning** — Spoiler moves that replay a pinned element are
//!   forced replays and collapse into a single memoized check (usually
//!   skipped outright by a monotonicity argument), and identical-word
//!   subgames are accepted immediately via the identity strategy;
//! - **guided move ordering** (§9) — a per-game [`Guide`] groups each
//!   side's elements, ⊥ included, by exact *seed type*, so every
//!   element's *seed-compatible* responses (those consistent with the
//!   constant seeding alone; by monotonicity any other response is
//!   inconsistent in every reachable state) are one group of the other
//!   side. Every Duplicator response of the search comes from that group
//!   — mirror first, then by factor-length proximity, ⊥ last — and
//!   per-state consistency reduces to the delta check
//!   [`crate::partial_iso::consistent_extension_delta`]. Spoiler moves
//!   are ordered by ascending compatible-response count, so profile-
//!   disagreeing elements (zero compatible responses — exactly the moves
//!   a rank-1 type mismatch flags) surface refutations first;
//! - **shared transposition table** ([`crate::ttable::TransTable`]) —
//!   an optional lock-free memo layered under the exact per-solver one,
//!   shared by the parallel search's workers, by `fc serve` across
//!   requests, and by the batch engine across pairs;
//! - **deep parallel search** — [`EfSolver::equivalent_par`] expands the
//!   game two plies deep into (Spoiler move, Duplicator response) jobs,
//!   drained work-stealing style by workers that share the transposition
//!   table and abort sibling subtrees through an atomic cutoff flag the
//!   moment a refutation is found.
//!
//! The crate's strategies exist precisely to beat the exponential search
//! on structured instances; `fc-bench` measures the crossover.

use crate::arena::{GamePair, Side};
use crate::partial_iso::{consistent_extension_delta, pack_pair, unpack_pair, Pair, SeedTypes};
use crate::ttable::{TransTable, DEFAULT_TABLE_CAPACITY};
use fc_logic::{FactorId, FactorStructure};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Counters exposed by the solver for benchmarks and reports.
#[derive(Clone, Copy, Debug, Default)]
pub struct SolverStats {
    /// Number of distinct (state, k) entries computed (memo inserts).
    pub states_explored: u64,
    /// Number of memo-table hits (the exact per-solver layer).
    pub memo_hits: u64,
    /// Number of Spoiler moves discharged by pruning instead of search.
    pub pruned_moves: u64,
    /// Shared transposition-table hits (probed on memo misses only).
    pub table_hits: u64,
    /// Shared transposition-table misses.
    pub table_misses: u64,
    /// Wall time accumulated inside `equivalent`/`equivalent_par`.
    pub wall: Duration,
}

impl SolverStats {
    /// Folds another solver's counters into this one. Wall time is *not*
    /// summed: it is measured by the coordinating call (worker shards run
    /// concurrently, so summing their walls would overcount); batch
    /// aggregators that do want additive wall time add it explicitly.
    pub fn absorb(&mut self, other: &SolverStats) {
        self.states_explored += other.states_explored;
        self.memo_hits += other.memo_hits;
        self.pruned_moves += other.pruned_moves;
        self.table_hits += other.table_hits;
        self.table_misses += other.table_misses;
        // wall time is measured by the coordinating call, not summed over
        // workers.
    }
}

/// Guided-search tables, built once per game on first use (docs/SOLVER.md
/// §9.4). [`Guide::responses`] walks the *seed-compatible responses* of
/// an element `e`: every opposite-side element `r` such that the single
/// pair for `(e, r)` extends the constant seeding consistently. Soundness
/// of restricting response searches to them is the monotonicity of
/// Definition 3.1: its conditions quantify universally over the chosen
/// pairs, so a pair inconsistent with a *subset* of a state (here: the
/// seeding, a subset of every state) is inconsistent with the state
/// itself. ⊥ is an element like any other here, as a move and as a
/// response. Responses come mirror-first, then by factor-length
/// proximity (ties by id), ⊥ last — the replay/identity heuristic that
/// makes confirmations close on the first candidate almost always.
///
/// `order` sorts each universe by ascending compatible-response count:
/// an element with *no* compatible response is precisely one whose seed
/// type (the per-element component of [`crate::fingerprint`]'s rank-1
/// profile) is realised on one side only, and playing it refutes the
/// game immediately — profile-disagreeing moves surface first.
struct Guide {
    a: GuideSide,
    b: GuideSide,
}

/// One side's half of a [`Guide`]: how its elements find their responses
/// among the other side's elements.
struct GuideSide {
    /// The other side's elements and ⊥ as `(len, id)` (⊥'s length is
    /// [`BOTTOM_LEN`]), sorted by exact seed type, then length, then id:
    /// each type's group is one run, ⊥ last in its group.
    members: Box<[(u32, u32)]>,
    /// Per element of this side, then ⊥'s.
    entries: Vec<GuideEntry>,
    /// This side's real elements by ascending response count, ties by
    /// id (⊥, whose response in a constants-vector seeding is only ⊥, is
    /// played last by [`Guide::moves`]).
    order: Box<[FactorId]>,
}

#[derive(Clone, Copy)]
struct GuideEntry {
    /// `members[start..end]` is the group with this element's seed type
    /// (empty: no compatible response).
    start: u32,
    end: u32,
    /// The element's length key ([`len_key`]).
    len: u32,
    /// The element's mirror, when it is compatible.
    mirror: Option<FactorId>,
}

/// ⊥'s length key: above every factor length, so ⊥ sorts last in its
/// group and is the farthest response of every real element, yet below
/// the `u32::MAX` that [`Responses::advance`] reads as "no run left".
const BOTTOM_LEN: u32 = u32::MAX - 1;

/// The length key of `x` in `s`: its factor length, or [`BOTTOM_LEN`].
fn len_key(s: &FactorStructure, x: FactorId) -> u32 {
    if x.is_bottom() {
        BOTTOM_LEN
    } else {
        s.len_of(x) as u32
    }
}

impl Guide {
    /// Builds both halves from exact seed types ([`SeedTypes`]): `(x, y)`
    /// is seed-compatible iff the two types are equal, so an element's
    /// responses are the other side's group of its type. Cost:
    /// O((|U_A| + |U_B|)·n²) probes for an `n`-pair seeding and one sort
    /// per side; the responses are walked on demand.
    fn build(game: &GamePair) -> Guide {
        let seeding_a: Vec<FactorId> = game.constant_pairs.iter().map(|p| p.0).collect();
        let seeding_b: Vec<FactorId> = game.constant_pairs.iter().map(|p| p.1).collect();
        let types_a = SeedTypes::of(&game.a, &seeding_a);
        let types_b = SeedTypes::of(&game.b, &seeding_b);
        Guide {
            a: GuideSide::build(game, Side::A, &types_a, &types_b),
            b: GuideSide::build(game, Side::B, &types_b, &types_a),
        }
    }

    fn side(&self, side: Side) -> &GuideSide {
        match side {
            Side::A => &self.a,
            Side::B => &self.b,
        }
    }

    /// The seed-compatible responses to `element` (an element of `side`
    /// or ⊥), in search order.
    fn responses(&self, side: Side, element: FactorId) -> Responses<'_> {
        let half = self.side(side);
        let at = if element.is_bottom() {
            half.entries.len() - 1
        } else {
            element.0 as usize
        };
        let entry = half.entries[at];
        let group = &half.members[entry.start as usize..entry.end as usize];
        Responses::new(group, entry.len, entry.mirror)
    }

    /// The Spoiler moves on `side`: the guided order, then ⊥ (its forced
    /// (⊥, ⊥) response never refutes anything).
    fn moves(&self, side: Side) -> impl Iterator<Item = FactorId> + '_ {
        let order = self.side(side).order.iter().copied();
        order.chain(std::iter::once(FactorId::BOTTOM))
    }
}

impl GuideSide {
    /// The half of `side`, whose elements have the seed types `own`,
    /// against the other side's types `other`.
    fn build(game: &GamePair, side: Side, own: &SeedTypes, other: &SeedTypes) -> GuideSide {
        let own_s = game.structure(side);
        let other_s = game.structure(side.other());
        let ty = |r: u32| other.get(FactorId(r));
        let mut members: Vec<(u32, u32)> = other_s
            .universe()
            .chain([FactorId::BOTTOM])
            .map(|r| (len_key(other_s, r), r.0))
            .collect();
        members.sort_unstable_by(|&x, &y| ty(x.1).cmp(ty(y.1)).then(x.cmp(&y)));
        // The first member of each group, for the lookups below.
        let heads: Vec<usize> = (0..members.len())
            .filter(|&m| m == 0 || ty(members[m - 1].1) != ty(members[m].1))
            .collect();
        let entries: Vec<GuideEntry> = own_s
            .universe()
            .chain([FactorId::BOTTOM])
            .map(|e| {
                let own_ty = own.get(e);
                let (start, end) = match heads.binary_search_by(|&h| ty(members[h].1).cmp(own_ty)) {
                    Ok(g) => (heads[g], heads.get(g + 1).copied().unwrap_or(members.len())),
                    Err(_) => (0, 0),
                };
                GuideEntry {
                    start: start as u32,
                    end: end as u32,
                    len: len_key(own_s, e),
                    mirror: game.mirror(side, e).filter(|&m| other.get(m) == own_ty),
                }
            })
            .collect();
        let mut order: Vec<FactorId> = own_s.universe().collect();
        order.sort_by_key(|&e| {
            let entry = &entries[e.0 as usize];
            (entry.end - entry.start, e.0)
        });
        GuideSide {
            members: members.into_boxed_slice(),
            entries,
            order: order.into_boxed_slice(),
        }
    }
}

/// One element's responses: a compatibility group, sorted by `(len, id)`,
/// walked in the guide's order — the mirror first (when given, it is a
/// group member), then the rest by `(|len − len_e|, id)`. The walk goes
/// outward from `len_e` and merges the two runs at each distance (one
/// shorter, one longer, each ascending by id), one element per step: no
/// list is built and nothing is sorted, so a search pays only for the
/// responses it tries.
struct Responses<'g> {
    group: &'g [(u32, u32)],
    len_e: u32,
    /// The mirror, skipped by the walk; `lead` yields it first.
    mirror: Option<FactorId>,
    lead: Option<FactorId>,
    /// The current distance's runs: `group[i..i_end]` (shorter) and
    /// `group[j..j_end]` (longer or equal); `group[..i_start]` and
    /// `group[j_end..]` are not reached yet.
    i_start: usize,
    i: usize,
    i_end: usize,
    j: usize,
    j_end: usize,
}

impl<'g> Responses<'g> {
    fn new(group: &'g [(u32, u32)], len_e: u32, mirror: Option<FactorId>) -> Responses<'g> {
        let split = group.partition_point(|&(len, _)| len < len_e);
        Responses {
            group,
            len_e,
            mirror,
            lead: mirror,
            i_start: split,
            i: split,
            i_end: split,
            j: split,
            j_end: split,
        }
    }

    /// Moves to the runs at the next distance; `false` when none is left.
    fn advance(&mut self) -> bool {
        let (group, len_e) = (self.group, self.len_e);
        let (lo, hi) = (self.i_start, self.j_end);
        let d_lo = if lo > 0 {
            len_e - group[lo - 1].0
        } else {
            u32::MAX
        };
        let d_hi = if hi < group.len() {
            group[hi].0 - len_e
        } else {
            u32::MAX
        };
        let d = d_lo.min(d_hi);
        if d == u32::MAX {
            return false;
        }
        let mut below = lo;
        if d_lo == d {
            while below > 0 && group[below - 1].0 == len_e - d {
                below -= 1;
            }
        }
        let mut above = hi;
        if d_hi == d {
            while above < group.len() && group[above].0 == len_e + d {
                above += 1;
            }
        }
        (self.i_start, self.i, self.i_end) = (below, below, lo);
        (self.j, self.j_end) = (hi, above);
        true
    }
}

impl Iterator for Responses<'_> {
    type Item = FactorId;

    fn next(&mut self) -> Option<FactorId> {
        if let Some(m) = self.lead.take() {
            return Some(m);
        }
        loop {
            let shorter = self.i < self.i_end;
            let longer = self.j < self.j_end;
            let r = if shorter && (!longer || self.group[self.i].1 < self.group[self.j].1) {
                self.i += 1;
                self.group[self.i - 1].1
            } else if longer {
                self.j += 1;
                self.group[self.j - 1].1
            } else if self.advance() {
                continue;
            } else {
                return None;
            };
            if Some(FactorId(r)) != self.mirror {
                return Some(FactorId(r));
            }
        }
    }
}

/// A memoizing exact solver bound to one [`GamePair`].
pub struct EfSolver {
    game: GamePair,
    /// `memo[k]` maps a packed played-pair state to the verdict of the
    /// k-rounds-remaining subgame. Keys are probed via `&[u64]` borrows.
    /// This exact layer always fronts the (lossy, shared) transposition
    /// table.
    memo: Vec<HashMap<Box<[u64]>, bool>>,
    stats: SolverStats,
    /// `w == v`: enables the identity-strategy early accept.
    identical: bool,
    /// Optional shared transposition table (probed on memo misses).
    table: Option<Arc<TransTable>>,
    /// Key prefix isolating this game's states in the shared table:
    /// hashes both words, the alphabet, and the backend kinds (ids are
    /// backend-specific, so states from different backends must never
    /// alias).
    game_fp: u64,
    /// Guided-search tables, built on first search (`None` until then).
    guide: Option<Arc<Guide>>,
}

/// One step of a Spoiler winning line (for traces and reports).
#[derive(Clone, Debug)]
pub struct SpoilerMove {
    /// The structure Spoiler chose.
    pub side: Side,
    /// The element Spoiler picked.
    pub element: FactorId,
}

/// Hashes the identity of a game for transposition-table keys.
fn game_fingerprint(game: &GamePair) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = 0x6a09_e667_f3bc_c908u64;
    let eat = |h: &mut u64, bytes: &[u8]| {
        *h = (*h ^ bytes.len() as u64).wrapping_mul(PRIME);
        for &b in bytes {
            *h = (*h ^ u64::from(b)).wrapping_mul(PRIME);
        }
    };
    eat(&mut h, game.a.word().bytes());
    eat(&mut h, game.b.word().bytes());
    eat(&mut h, game.a.alphabet().symbols());
    eat(
        &mut h,
        &[game.a.backend_kind() as u8, game.b.backend_kind() as u8],
    );
    h
}

impl EfSolver {
    /// Creates a solver for the game over `game`.
    pub fn new(game: GamePair) -> EfSolver {
        let identical = game.a.word() == game.b.word();
        let game_fp = game_fingerprint(&game);
        EfSolver {
            game,
            memo: Vec::new(),
            stats: SolverStats::default(),
            identical,
            table: None,
            game_fp,
            guide: None,
        }
    }

    /// Convenience: a solver for the words `w`, `v` over their joint
    /// alphabet.
    pub fn of(w: &str, v: &str) -> EfSolver {
        EfSolver::new(GamePair::of(w, v))
    }

    /// Attaches a shared transposition table (builder form).
    pub fn with_table(mut self, table: Arc<TransTable>) -> EfSolver {
        self.table = Some(table);
        self
    }

    /// Attaches a shared transposition table.
    pub fn attach_table(&mut self, table: Arc<TransTable>) {
        self.table = Some(table);
    }

    /// The attached shared table, if any.
    pub fn shared_table(&self) -> Option<Arc<TransTable>> {
        self.table.clone()
    }

    /// The underlying game.
    pub fn game(&self) -> &GamePair {
        &self.game
    }

    /// Decides `w ≡_k v`.
    pub fn equivalent(&mut self, k: u32) -> bool {
        let t0 = Instant::now();
        let verdict = if self.game.constants_consistent() {
            self.duplicator_wins(Vec::new(), k)
        } else {
            false
        };
        self.stats.wall += t0.elapsed();
        verdict
    }

    /// Decides `w ≡_k v` with a deep parallel search: the game is
    /// expanded two plies into (Spoiler move, Duplicator response) jobs
    /// drained by `threads` workers over an atomic cursor. All workers
    /// share this solver's transposition table (one is created if none is
    /// attached), so a subgame solved by any worker is solved for all —
    /// unlike the pre-table design, where each memo shard re-derived
    /// every shared state. An atomic cutoff flag stops every sibling
    /// subtree as soon as one Spoiler move is refuted (no winning
    /// response remains), and per-move "satisfied" flags skip the
    /// remaining response jobs of already-confirmed moves. Counters from
    /// all workers are absorbed into this solver's [`SolverStats`].
    ///
    /// The verdict is the game value — a deterministic function of the
    /// pair — so it is byte-identical to [`EfSolver::equivalent`]; the
    /// differential suite pins this across the exhaustive window.
    pub fn equivalent_par(&mut self, k: u32, threads: usize) -> bool {
        let t0 = Instant::now();
        if !self.game.constants_consistent() {
            self.stats.wall += t0.elapsed();
            return false;
        }
        if k == 0 {
            self.stats.wall += t0.elapsed();
            return true;
        }
        if threads <= 1 {
            self.stats.wall += t0.elapsed();
            return self.equivalent(k);
        }
        let table = match &self.table {
            Some(t) => Arc::clone(t),
            None => {
                let t = Arc::new(TransTable::new(DEFAULT_TABLE_CAPACITY >> 4));
                self.table = Some(Arc::clone(&t));
                t
            }
        };
        let guide = self.ensure_guide();
        // Top-level non-replay moves in guided order (replays are
        // discharged by the same monotonicity argument as in the
        // sequential search).
        let mut moves: Vec<(Side, FactorId)> = Vec::new();
        for side in [Side::A, Side::B] {
            for element in guide.moves(side) {
                if self.is_pinned(side, &[], element) {
                    self.stats.pruned_moves += 1;
                } else {
                    moves.push((side, element));
                }
            }
        }
        if moves.is_empty() {
            // Degenerate games (every element pinned): the sequential
            // path handles the collapsed replay check.
            self.stats.wall += t0.elapsed();
            return self.equivalent(k);
        }
        // Two-ply job expansion: one job per (move, response candidate).
        // At the root the state *is* the constant seeding, so the
        // seed-compatible responses are exactly the consistent ones.
        struct MoveCell {
            satisfied: AtomicBool,
            remaining: AtomicU32,
        }
        let mut jobs: Vec<(u32, FactorId)> = Vec::new();
        let mut cells: Vec<MoveCell> = Vec::with_capacity(moves.len());
        for (mi, &(side, element)) in moves.iter().enumerate() {
            let candidates: Vec<FactorId> = guide.responses(side, element).collect();
            if candidates.is_empty() {
                // No response can ever extend the seeding: Spoiler wins
                // by playing this element immediately.
                self.stats.wall += t0.elapsed();
                return false;
            }
            cells.push(MoveCell {
                satisfied: AtomicBool::new(false),
                remaining: AtomicU32::new(candidates.len() as u32),
            });
            for r in candidates {
                jobs.push((mi as u32, r));
            }
        }
        let spoiler_won = AtomicBool::new(false);
        let cursor = AtomicUsize::new(0);
        let shard_stats: Vec<SolverStats> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    let game = self.game.clone();
                    let table = Arc::clone(&table);
                    let guide = Arc::clone(&guide);
                    let (jobs, moves, cells) = (&jobs, &moves, &cells);
                    let (flag, cursor) = (&spoiler_won, &cursor);
                    scope.spawn(move || {
                        let mut shard = EfSolver::new(game).with_table(table);
                        shard.guide = Some(guide);
                        loop {
                            if flag.load(Ordering::Relaxed) {
                                break;
                            }
                            let j = cursor.fetch_add(1, Ordering::Relaxed);
                            let Some(&(mi, response)) = jobs.get(j) else {
                                break;
                            };
                            let cell = &cells[mi as usize];
                            if cell.satisfied.load(Ordering::Relaxed) {
                                continue;
                            }
                            let (side, element) = moves[mi as usize];
                            let pair = shard.game.as_ab_pair(side, element, response);
                            let win = k == 1 || shard.duplicator_wins(vec![pack_pair(pair)], k - 1);
                            if win {
                                cell.satisfied.store(true, Ordering::Relaxed);
                            } else if cell.remaining.fetch_sub(1, Ordering::Relaxed) == 1 {
                                // Every response to this move failed:
                                // Spoiler wins — cut every sibling off.
                                flag.store(true, Ordering::Relaxed);
                            }
                        }
                        shard.stats
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for s in &shard_stats {
            self.stats.absorb(s);
        }
        self.stats.wall += t0.elapsed();
        !spoiler_won.load(Ordering::Relaxed)
    }

    /// [`EfSolver::equivalent_par`] with one worker per available CPU.
    pub fn equivalent_auto(&mut self, k: u32) -> bool {
        let threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        if threads > 1 {
            self.equivalent_par(k, threads)
        } else {
            self.equivalent(k)
        }
    }

    /// Duplicator wins `k` more rounds continuing from an arbitrary
    /// consistent mid-game `state` (pairs including the constant seeding).
    pub fn wins_from(&mut self, state: &[Pair], k: u32) -> bool {
        let played = self.pack_played(state);
        self.duplicator_wins(played, k)
    }

    /// The least `k ≤ max_k` such that Spoiler wins the `k`-round game, or
    /// `None` if Duplicator survives through `max_k` rounds.
    pub fn distinguishing_rounds(&mut self, max_k: u32) -> Option<u32> {
        (0..=max_k).find(|&k| !self.equivalent(k))
    }

    /// Strips the constant seeding (identical in every state) from a full
    /// pair list and packs the remainder into canonical (sorted, deduped)
    /// form.
    fn pack_played(&self, state: &[Pair]) -> Vec<u64> {
        let mut played: Vec<u64> = state
            .iter()
            .filter(|p| !self.game.constant_pairs.contains(p))
            .map(|&p| pack_pair(p))
            .collect();
        played.sort_unstable();
        played.dedup();
        played
    }

    /// The guided-search tables, built on first demand.
    fn ensure_guide(&mut self) -> Arc<Guide> {
        let game = &self.game;
        Arc::clone(
            self.guide
                .get_or_insert_with(|| Arc::new(Guide::build(game))),
        )
    }

    /// Duplicator wins the `k`-round game continued from the packed,
    /// canonical played-pair state.
    fn duplicator_wins(&mut self, state: Vec<u64>, k: u32) -> bool {
        if k == 0 {
            return true;
        }
        // Mirror-closed early accept. Soundness: `identical` means the two
        // structures are built from the same word over the same Σ, so they
        // intern the same factors with the same ids. If additionally every
        // played pair maps an element to itself (and the constant pairs do
        // so by construction), the identity map wins all remaining rounds:
        // whatever Spoiler plays, Duplicator copies it on the other side,
        // and every atom trivially evaluates identically on both sides.
        // The differential suite exercises this against the reference
        // solver on all identical-word instances of the window.
        if self.identical
            && state.iter().all(|&p| {
                let (x, y) = unpack_pair(p);
                x == y
            })
        {
            self.stats.pruned_moves += 1;
            return true;
        }
        let ki = k as usize;
        if ki >= self.memo.len() {
            self.memo.resize_with(ki + 1, HashMap::new);
        } else if let Some(&cached) = self.memo[ki].get(state.as_slice()) {
            self.stats.memo_hits += 1;
            return cached;
        }
        // Exact memo missed: probe the shared transposition table. A hit
        // is promoted into the exact layer so this solver never pays the
        // (hashing) probe for the same state twice.
        if let Some(table) = &self.table {
            if let Some(verdict) = table.probe(self.game_fp, &state, k) {
                self.stats.table_hits += 1;
                #[cfg(debug_assertions)]
                self.debug_replay_table_hit(&state, k, verdict);
                self.memo[ki].insert(state.into_boxed_slice(), verdict);
                return verdict;
            }
            self.stats.table_misses += 1;
        }
        let result = self.search_spoiler_moves(&state, k);
        self.stats.states_explored += 1;
        if let Some(table) = &self.table {
            table.insert(self.game_fp, &state, k, result);
        }
        self.memo[ki].insert(state.into_boxed_slice(), result);
        result
    }

    /// Replays a transposition-table hit on small instances (the same
    /// debug discipline as the batch engine's arithmetic-tier verdicts):
    /// the shared table identifies states by hash tags, and this pins any
    /// tag collision the moment it would matter.
    #[cfg(debug_assertions)]
    fn debug_replay_table_hit(&mut self, state: &[u64], k: u32, verdict: bool) {
        if k <= 2 && self.game.a.universe_len() <= 24 && self.game.b.universe_len() <= 24 {
            let replayed = self.search_spoiler_moves(state, k);
            debug_assert_eq!(
                replayed, verdict,
                "transposition-table verdict diverged from a fresh search"
            );
        }
    }

    /// The ∀-Spoiler layer: `true` iff every Spoiler move admits a winning
    /// Duplicator response.
    fn search_spoiler_moves(&mut self, state: &[u64], k: u32) -> bool {
        let guide = self.ensure_guide();
        let mut had_replay = false;
        let mut had_fresh = false;
        for side in [Side::A, Side::B] {
            for element in guide.moves(side) {
                if self.is_pinned(side, state, element) {
                    // Replay pruning. If `element` is already pinned by a
                    // pair (element, r₀) of the state (or the constant
                    // seeding), the equality pattern of Definition 3.1
                    // forces Duplicator's response to be exactly r₀ — any
                    // other response r makes (element = element) ⇎ (r = r₀).
                    // Replaying (element, r₀) leaves the canonical state
                    // unchanged, so the move's outcome is precisely
                    // `duplicator_wins(state, k−1)`; all replay moves on
                    // both sides collapse into that single check.
                    self.stats.pruned_moves += 1;
                    had_replay = true;
                    continue;
                }
                had_fresh = true;
                if self
                    .guided_response(&guide, state, side, element, k)
                    .is_none()
                {
                    return false;
                }
            }
        }
        // Discharging the collapsed replay check. If some fresh move
        // succeeded, its witness says wins(state ∪ {p}, k−1) for a strict
        // superset state — and winning from a superstate implies winning
        // from the substate (restrict the superstate strategy: any tuple
        // set that is a partial isomorphism stays one after dropping
        // pairs, because Definition 3.1 quantifies universally over the
        // pairs). So wins(state, k−1) holds and the replay check is free.
        // Only when *every* element of both universes is pinned (tiny
        // games) must it be computed explicitly.
        if had_replay && !had_fresh {
            return self.duplicator_wins(state.to_vec(), k - 1);
        }
        true
    }

    /// `true` iff `element` already occurs on `side` in the constant
    /// seeding or the played state.
    fn is_pinned(&self, side: Side, state: &[u64], element: FactorId) -> bool {
        let pick = |p: Pair| match side {
            Side::A => p.0,
            Side::B => p.1,
        };
        self.game.constant_pairs.iter().any(|&p| pick(p) == element)
            || state.iter().any(|&x| pick(unpack_pair(x)) == element)
    }

    /// A winning Duplicator response to Spoiler playing `element` on
    /// `side`, with `k` rounds remaining (this move included), continuing
    /// from `state` — or `None` if every response loses.
    ///
    /// Public so solver-backed table strategies can replay optimal moves.
    /// `state` is a full pair list including the constant seeding.
    pub fn best_response_from(
        &mut self,
        state: &[Pair],
        side: Side,
        element: FactorId,
        k: u32,
    ) -> Option<FactorId> {
        let played = self.pack_played(state);
        self.best_response_packed(&played, side, element, k)
    }

    /// Core response search over a packed state, through the guide.
    fn best_response_packed(
        &mut self,
        state: &[u64],
        side: Side,
        element: FactorId,
        k: u32,
    ) -> Option<FactorId> {
        let guide = self.ensure_guide();
        self.guided_response(&guide, state, side, element, k)
    }

    /// Response search: the candidates are exactly the seed-compatible
    /// responses, ⊥ included (mirror first, then length proximity, ⊥
    /// last), for a real `element` and for ⊥ alike. Per-state consistency
    /// is the delta check: the guide already certifies compatibility with
    /// the seeding, the state was reachable hence consistent, so only
    /// conditions touching the played pairs remain.
    fn guided_response(
        &mut self,
        guide: &Guide,
        state: &[u64],
        side: Side,
        element: FactorId,
        k: u32,
    ) -> Option<FactorId> {
        debug_assert!(k >= 1);
        for response in guide.responses(side, element) {
            let pair = self.game.as_ab_pair(side, element, response);
            if !state.is_empty()
                && !consistent_extension_delta(
                    &self.game.a,
                    &self.game.b,
                    &self.game.constant_pairs,
                    state,
                    pair,
                )
            {
                continue;
            }
            // With one round left, a consistent extension is already a
            // win (the 0-round subgame is a Duplicator win by
            // definition): skip the allocation and the recursion.
            if k == 1 || self.duplicator_wins(extended(state, pack_pair(pair)), k - 1) {
                return Some(response);
            }
        }
        None
    }

    /// Spoiler's first winning move from `state` with `k` rounds left:
    /// the first universe element, on side `first` and then on the other
    /// side, that no Duplicator response survives — or `None` if
    /// Duplicator wins from `state`. ⊥ is never a candidate: Duplicator
    /// answers it with ⊥, which adds no constraint.
    ///
    /// `state` is a full pair list including the constant seeding. The
    /// one move hunt behind [`EfSolver::spoiler_winning_line`] and the
    /// certificates of [`crate::certificate`].
    pub(crate) fn spoiler_move(
        &mut self,
        state: &[Pair],
        k: u32,
        first: Side,
    ) -> Option<(Side, FactorId)> {
        let played = self.pack_played(state);
        for side in [first, first.other()] {
            for element in self.game.structure(side).universe() {
                if self
                    .best_response_packed(&played, side, element, k)
                    .is_none()
                {
                    return Some((side, element));
                }
            }
        }
        None
    }

    /// Any consistent response to Spoiler playing `element` on `side` from
    /// `state` (a full pair list including the constant seeding): the
    /// mirror first, then universe order, then ⊥. This is how play goes on
    /// through positions where every response eventually loses.
    pub(crate) fn salvage_response(
        &self,
        state: &[Pair],
        side: Side,
        element: FactorId,
    ) -> Option<FactorId> {
        let played = self.pack_played(state);
        let ok = |r: FactorId| {
            self.game
                .consistent_seeded(&played, self.game.as_ab_pair(side, element, r))
        };
        let mirror = self.game.mirror(side, element);
        if let Some(m) = mirror {
            if ok(m) {
                return Some(m);
            }
        }
        self.game
            .structure(side.other())
            .universe()
            .filter(|&r| Some(r) != mirror)
            .chain((!element.is_bottom()).then_some(FactorId::BOTTOM))
            .find(|&r| ok(r))
    }

    /// A Spoiler winning line of length ≤ k (a sequence of moves such that
    /// after each, every Duplicator response loses against optimal play),
    /// or `None` if Duplicator wins the k-round game. Between moves,
    /// Duplicator plays `salvage_response`; the line ends early
    /// once no consistent response is left.
    pub fn spoiler_winning_line(&mut self, k: u32) -> Option<Vec<SpoilerMove>> {
        if self.equivalent(k) {
            return None;
        }
        let mut line = Vec::new();
        if !self.game.constants_consistent() {
            return Some(line);
        }
        let mut state = self.game.constant_pairs.clone();
        for rounds in (1..=k).rev() {
            let (side, element) = self
                .spoiler_move(&state, rounds, Side::A)
                .expect("Spoiler has a winning move in every losing state");
            line.push(SpoilerMove { side, element });
            match self.salvage_response(&state, side, element) {
                None => break,
                Some(r) => state.push(self.game.as_ab_pair(side, element, r)),
            }
        }
        Some(line)
    }

    /// Number of distinct solver states computed so far (for benchmarks
    /// and reports). Counter-based, so it also reflects work done inside
    /// the worker solvers of [`EfSolver::equivalent_par`].
    pub fn states_explored(&self) -> usize {
        self.stats.states_explored as usize
    }

    /// All counters (states, memo hits, pruned moves, table hits/misses,
    /// wall time).
    pub fn stats(&self) -> SolverStats {
        self.stats
    }
}

/// `state ∪ {p}` in canonical (sorted, deduped) packed form.
fn extended(state: &[u64], p: u64) -> Vec<u64> {
    match state.binary_search(&p) {
        Ok(_) => state.to_vec(),
        Err(pos) => {
            let mut v = Vec::with_capacity(state.len() + 1);
            v.extend_from_slice(&state[..pos]);
            v.push(p);
            v.extend_from_slice(&state[pos..]);
            v
        }
    }
}

/// Decides `w ≡_k v` in one call (fresh solver).
pub fn equivalent(w: &str, v: &str, k: u32) -> bool {
    EfSolver::of(w, v).equivalent(k)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fc_logic::{BackendKind, FactorStructure};
    use fc_words::{Alphabet, Word};

    #[test]
    fn identical_words_are_equivalent_at_any_feasible_rank() {
        for w in ["", "a", "ab", "abaab"] {
            for k in 0..=3 {
                assert!(equivalent(w, w, k), "w={w} k={k}");
            }
        }
    }

    #[test]
    fn example_3_3_spoiler_wins_two_rounds_on_even_vs_odd_powers() {
        // a^{2i} vs a^{2i−1}: Spoiler wins the 2-round game (paper Ex. 3.3).
        for i in 1..=3u32 {
            let w = "a".repeat(2 * i as usize);
            let v = "a".repeat(2 * i as usize - 1);
            assert!(!equivalent(&w, &v, 2), "i={i}");
        }
    }

    #[test]
    fn short_unary_words_distinguished_quickly() {
        // a vs aa: Spoiler wins with 1 round (pick aa; any response j must
        // satisfy j = a·a ⟺ picked = a·a …).
        assert!(!equivalent("a", "aa", 2));
        // and ≡_0 always holds for same-alphabet words.
        assert!(equivalent("a", "aa", 0));
    }

    #[test]
    fn rank_zero_fails_for_mismatched_alphabets() {
        assert!(!equivalent("ab", "aa", 0));
        assert!(equivalent("ab", "ba", 0));
    }

    #[test]
    fn ab_vs_ba_distinguished() {
        // ab vs ba: distinguishable (e.g. ∃x: x ≐ a·b — qr 1).
        assert!(!equivalent("ab", "ba", 1));
        assert!(equivalent("ab", "ba", 0));
    }

    #[test]
    fn distinguishing_rounds_finds_minimal_k() {
        let mut s = EfSolver::of("ab", "ba");
        assert_eq!(s.distinguishing_rounds(3), Some(1));
        let mut s = EfSolver::of("aa", "aa");
        assert_eq!(s.distinguishing_rounds(3), None);
    }

    #[test]
    fn spoiler_line_exists_iff_not_equivalent() {
        let mut s = EfSolver::of("aaaa", "aaa");
        if let Some(k) = s.distinguishing_rounds(3) {
            let line = s.spoiler_winning_line(k);
            assert!(line.is_some());
            assert!(line.unwrap().len() as u32 <= k);
        } else {
            panic!("aaaa vs aaa should be distinguishable within 3 rounds");
        }
        let mut s = EfSolver::of("ab", "ab");
        assert!(s.spoiler_winning_line(2).is_none());
    }

    #[test]
    fn equivalence_is_monotone_in_k() {
        // If w ≡_k v then w ≡_j v for j ≤ k.
        let pairs = [("aaaa", "aaaaa"), ("ab", "ba"), ("aab", "aba")];
        for (w, v) in pairs {
            for k in (0..=3).rev() {
                if equivalent(w, v, k) {
                    // all lower ranks must also be equivalent
                    for j in 0..k {
                        assert!(equivalent(w, v, j), "w={w} v={v} j={j} k={k}");
                    }
                }
            }
        }
    }

    #[test]
    fn unary_equivalences_small_table() {
        // Hand-checkable rank-1 facts: a^3 ≡_1 a^4 (responses exist for all
        // single picks), but a^1 ≢_1 a^2 (pick aa: needs an element equal to
        // a·a on the other side).
        assert!(equivalent("aaa", "aaaa", 1));
        assert!(!equivalent("a", "aa", 1));
        assert!(!equivalent("aa", "aaa", 2)); // pick aaa; then a·(response) mismatches
    }

    #[test]
    fn epsilon_vs_nonempty() {
        assert!(!equivalent("", "a", 1));
        // ≡_0: "" lacks the letter a, so the constant atom distinguishes.
        assert!(!equivalent("", "a", 0));
    }

    #[test]
    fn parallel_agrees_with_sequential() {
        let cases = [
            ("aaa", "aaaa", 1),
            ("a", "aa", 1),
            ("ab", "ba", 1),
            ("aab", "aba", 2),
            ("abab", "abba", 2),
            ("aaaa", "aaa", 2),
            ("", "a", 1),
            ("abc", "ab", 2),
        ];
        for (w, v, k) in cases {
            for rounds in 0..=k {
                let seq = EfSolver::of(w, v).equivalent(rounds);
                for threads in [1usize, 2, 3, 7] {
                    let par = EfSolver::of(w, v).equivalent_par(rounds, threads);
                    assert_eq!(seq, par, "w={w} v={v} k={rounds} threads={threads}");
                }
            }
        }
    }

    #[test]
    fn shared_table_is_reused_across_solvers() {
        // Two solvers on the same pair share the table: the second one's
        // root probe resolves the whole game without exploring states.
        let table = Arc::new(TransTable::new(1 << 12));
        let mut first = EfSolver::of("aabb", "abab").with_table(Arc::clone(&table));
        let verdict = first.equivalent(2);
        assert!(first.stats().table_misses > 0);
        let mut second = EfSolver::of("aabb", "abab").with_table(Arc::clone(&table));
        assert_eq!(second.equivalent(2), verdict);
        assert!(
            second.stats().table_hits >= 1,
            "second solver must hit the shared table"
        );
        assert_eq!(
            second.stats().states_explored,
            0,
            "the root hit should resolve the game outright"
        );
    }

    #[test]
    fn different_games_never_share_entries() {
        // Same state shapes, different pairs: fingerprints must isolate.
        let table = Arc::new(TransTable::new(1 << 12));
        let mut s1 = EfSolver::of("ab", "ba").with_table(Arc::clone(&table));
        let mut s2 = EfSolver::of("ab", "ab").with_table(Arc::clone(&table));
        assert!(!s1.equivalent(1));
        assert!(s2.equivalent(1));
        let mut s3 = EfSolver::of("ab", "ba").with_table(Arc::clone(&table));
        assert!(!s3.equivalent(1));
    }

    #[test]
    fn stats_counters_populate() {
        // A confirmation: Duplicator wins, so the search visits every
        // Spoiler move — including the pinned (constant) replays the
        // pruning discharges. (A refutation may stop at the first
        // zero-compatibility move, before any pinned one, now that the
        // guide fronts profile-disagreeing moves.)
        let mut s = EfSolver::of("aaa", "aaaa");
        assert!(s.equivalent(1));
        let st = s.stats();
        assert!(st.states_explored > 0);
        assert!(st.pruned_moves > 0, "replay pruning should fire");
        assert!(st.wall > Duration::ZERO);
        assert_eq!(s.states_explored(), st.states_explored as usize);
    }

    #[test]
    fn stats_absorb_covers_table_counters() {
        let table = Arc::new(TransTable::new(1 << 10));
        let mut first = EfSolver::of("aabb", "abab").with_table(Arc::clone(&table));
        let _ = first.equivalent(2);
        let mut second = EfSolver::of("aabb", "abab").with_table(table);
        let _ = second.equivalent(2);
        let (a, b) = (first.stats(), second.stats());
        assert!(
            b.table_hits >= 1,
            "the second solver reads the first's entries"
        );
        let mut sum = SolverStats::default();
        sum.absorb(&a);
        sum.absorb(&b);
        assert_eq!(sum.table_hits, a.table_hits + b.table_hits);
        assert_eq!(sum.table_misses, a.table_misses + b.table_misses);
    }

    /// The pairwise construction of the guide lists, ⊥ included on both
    /// ends: for every `e ∈ U ∪ {⊥}`, every response `r ∈ U ∪ {⊥}` with
    /// `consistent_seeded(&[], (e, r))`, sorted by the key
    /// `(≠ mirror, |Δlen|, id)` (⊥'s length is [`BOTTOM_LEN`], so it
    /// comes last in a real element's list).
    fn pairwise_lists(game: &GamePair, side: Side) -> Vec<Vec<FactorId>> {
        let (own, other) = (game.structure(side), game.structure(side.other()));
        own.universe()
            .chain([FactorId::BOTTOM])
            .map(|e| {
                let mirror = game.mirror(side, e);
                let le = len_key(own, e);
                let mut list: Vec<FactorId> = other
                    .universe()
                    .chain([FactorId::BOTTOM])
                    .filter(|&r| game.consistent_seeded(&[], game.as_ab_pair(side, e, r)))
                    .collect();
                list.sort_by_key(|&r| (Some(r) != mirror, len_key(other, r).abs_diff(le), r.0));
                list
            })
            .collect()
    }

    fn assert_guide_matches_pairwise(game: &GamePair) {
        let guide = Guide::build(game);
        let name = format!("{} vs {}", game.a.word(), game.b.word());
        for side in [Side::A, Side::B] {
            let lists = pairwise_lists(game, side);
            let elements = game.structure(side).universe().chain([FactorId::BOTTOM]);
            for (e, list) in elements.zip(&lists) {
                assert_eq!(
                    &guide.responses(side, e).collect::<Vec<_>>(),
                    list,
                    "{name}: {side:?} {e:?}"
                );
            }
            let real = &lists[..lists.len() - 1];
            let mut order: Vec<FactorId> = (0..real.len() as u32).map(FactorId).collect();
            order.sort_by_key(|&e| (real[e.0 as usize].len(), e.0));
            order.push(FactorId::BOTTOM);
            assert_eq!(
                guide.moves(side).collect::<Vec<_>>(),
                order,
                "{name}: {side:?} order"
            );
        }
    }

    #[test]
    fn guide_matches_pairwise_definition() {
        // Every pair of Σ^{≤4}, Σ = {a, b}.
        let ab = Alphabet::ab();
        let words: Vec<Word> = ab.words_up_to(4).collect();
        for w in &words {
            for v in &words {
                assert_guide_matches_pairwise(&GamePair::new(w.clone(), v.clone(), &ab));
            }
        }
        // Σ = {a, b, c} with c absent from both words: (⊥, ⊥) constant
        // pairs. And c in one word only: an inconsistent seeding still
        // gets exact lists.
        let abc = Alphabet::abc();
        for (w, v) in [
            ("abaab", "aabab"),
            ("abba", "baab"),
            ("", "ab"),
            ("abc", "ab"),
            ("acbca", "abcab"),
        ] {
            assert_guide_matches_pairwise(&GamePair::new(w, v, &abc));
        }
        // Unary words.
        let unary = Alphabet::unary();
        for p in 0..=9usize {
            for q in [0, 1, 3, 7, 12] {
                assert_guide_matches_pairwise(&GamePair::new("a".repeat(p), "a".repeat(q), &unary));
            }
        }
        // A seeding that pairs a with b: a mirror can be incompatible
        // while its group is not empty.
        let (a, b) = (
            Arc::new(FactorStructure::new(Word::from("abaab"), &ab)),
            Arc::new(FactorStructure::new(Word::from("babba"), &ab)),
        );
        let swapped = vec![
            (a.constant(b'a'), b.constant(b'b')),
            (a.epsilon(), b.epsilon()),
        ];
        assert_guide_matches_pairwise(&GamePair::from_parts(a, b, swapped));
        // Seedings without the ε pair, where ⊥ has real compatible
        // responses (and real elements have ⊥): the empty seeding, and
        // {(a, a)} alone.
        let small: Vec<Word> = ab.words_up_to(3).collect();
        for w in &small {
            for v in &small {
                let a = Arc::new(FactorStructure::new(w.clone(), &ab));
                let b = Arc::new(FactorStructure::new(v.clone(), &ab));
                let aa = vec![(a.constant(b'a'), b.constant(b'a'))];
                let empty = GamePair::from_parts(Arc::clone(&a), Arc::clone(&b), Vec::new());
                assert_guide_matches_pairwise(&empty);
                assert_guide_matches_pairwise(&GamePair::from_parts(a, b, aa));
            }
        }
        // The succinct backend (> 64 letters), whose ids are not ordered
        // by length: a Thue–Morse prefix against a dense partner.
        let thue_morse = |n: u32| -> Word {
            let w: String = (0..n)
                .map(|i| if i.count_ones() % 2 == 0 { 'a' } else { 'b' })
                .collect();
            Word::from(w.as_str())
        };
        let long = FactorStructure::with_backend(thue_morse(66), &ab, BackendKind::Succinct);
        let short = FactorStructure::new(thue_morse(8), &ab);
        let constant_pairs = long
            .constants_vector()
            .into_iter()
            .zip(short.constants_vector())
            .collect();
        let game = GamePair::from_parts(Arc::new(long), Arc::new(short), constant_pairs);
        assert_eq!(game.a.backend_kind(), BackendKind::Succinct);
        assert_guide_matches_pairwise(&game);
        // Two succinct structures, which share their long seed-type row
        // (every element longer than 2) in discovery order, not as a
        // suffix of the ids.
        let (a, b) = (
            Arc::new(FactorStructure::with_backend(
                thue_morse(12),
                &ab,
                BackendKind::Succinct,
            )),
            Arc::new(FactorStructure::with_backend(
                Word::from("aabbabaabba"),
                &ab,
                BackendKind::Succinct,
            )),
        );
        let constant_pairs = a
            .constants_vector()
            .into_iter()
            .zip(b.constants_vector())
            .collect();
        assert_guide_matches_pairwise(&GamePair::from_parts(a, b, constant_pairs));
        // A seeding that holds a 2-letter element, so the shared row
        // starts above length 4.
        let (a, b) = (
            Arc::new(FactorStructure::new(Word::from("abaababaab"), &ab)),
            Arc::new(FactorStructure::new(Word::from("ababaabab"), &ab)),
        );
        let ab_pair = (a.id_of(b"ab").unwrap(), b.id_of(b"ab").unwrap());
        let mut with_ab = vec![ab_pair];
        with_ab.extend(a.constants_vector().into_iter().zip(b.constants_vector()));
        assert_guide_matches_pairwise(&GamePair::from_parts(a, b, with_ab));
    }
}
