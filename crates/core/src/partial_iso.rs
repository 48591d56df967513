//! Partial isomorphisms between factor structures (Definition 3.1).
//!
//! `(ā, b̄)` is a partial isomorphism between 𝔄_w and 𝔅_v iff
//!
//! 1. for every constant symbol `c`: `aᵢ = c^𝔄 ⟺ bᵢ = c^𝔅`,
//! 2. `aᵢ = aⱼ ⟺ bᵢ = bⱼ`,
//! 3. `aᵢ = aⱼ·a_k ⟺ bᵢ = bⱼ·b_k` (as R∘ facts).
//!
//! When the constant vectors ⟨𝔄⟩, ⟨𝔅⟩ are appended to the tuples (as the
//! winning condition of §3 prescribes), condition 1 follows from condition
//! 2 — the checker still verifies it independently for defence in depth.

use fc_logic::{ConcatOracle, FactorId, FactorStructure};

/// A matched pair of chosen elements.
pub type Pair = (FactorId, FactorId);

/// Packs a pair into one `u64` (𝔄-id in the high half). The packing is
/// order-preserving: `pack(p) < pack(q) ⟺ p < q` lexicographically, so a
/// sorted packed state is a sorted pair state.
#[inline]
pub fn pack_pair(p: Pair) -> u64 {
    ((p.0 .0 as u64) << 32) | p.1 .0 as u64
}

/// Inverse of [`pack_pair`].
#[inline]
pub fn unpack_pair(x: u64) -> Pair {
    (FactorId((x >> 32) as u32), FactorId(x as u32))
}

/// The outcome of a partial-isomorphism check: either fine, or the first
/// violated condition with the offending indices.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum IsoViolation {
    /// Condition 1 violated at index `i` for constant `sym`.
    Constant { index: usize, sym: u8 },
    /// Condition 2 violated for indices `(i, j)`.
    Equality { i: usize, j: usize },
    /// Condition 3 violated for indices `(l, i, j)` (`a_l =? a_i·a_j`).
    Concat { l: usize, i: usize, j: usize },
}

/// Checks Definition 3.1 exhaustively over the given pairs.
pub fn check_partial_iso(
    a: &FactorStructure,
    b: &FactorStructure,
    pairs: &[Pair],
) -> Result<(), IsoViolation> {
    let n = pairs.len();
    // Condition 1: constants.
    for (idx, &(ai, bi)) in pairs.iter().enumerate() {
        for &sym in a.alphabet().symbols() {
            let ca = a.constant(sym);
            let cb = b.constant(sym);
            if (ai == ca) != (bi == cb) {
                return Err(IsoViolation::Constant { index: idx, sym });
            }
        }
        // ε constant.
        if (ai == a.epsilon()) != (bi == b.epsilon()) {
            return Err(IsoViolation::Constant { index: idx, sym: 0 });
        }
    }
    // Condition 2: equality pattern.
    for i in 0..n {
        for j in i + 1..n {
            if (pairs[i].0 == pairs[j].0) != (pairs[i].1 == pairs[j].1) {
                return Err(IsoViolation::Equality { i, j });
            }
        }
    }
    // Condition 3: concatenation facts.
    for l in 0..n {
        for i in 0..n {
            for j in 0..n {
                let lhs = a.concat_holds(pairs[l].0, pairs[i].0, pairs[j].0);
                let rhs = b.concat_holds(pairs[l].1, pairs[i].1, pairs[j].1);
                if lhs != rhs {
                    return Err(IsoViolation::Concat { l, i, j });
                }
            }
        }
    }
    Ok(())
}

/// Incremental check: assuming `pairs` is already a partial isomorphism, is
/// `pairs ∪ {new}` one too? Only conditions involving `new` are examined.
///
/// The constants conditions are implied when the constant vectors are among
/// `pairs` (as in every game state built by [`crate::arena::GamePair`]).
pub fn consistent_extension(
    a: &FactorStructure,
    b: &FactorStructure,
    pairs: &[Pair],
    new: Pair,
) -> bool {
    extension_ok(a, b, |i| pairs[i], pairs.len(), new)
}

/// [`consistent_extension`] over a game state split into the constant
/// seeding (`base`, plain pairs) and the packed played pairs (`played`) —
/// the solver's hot path, avoiding any concatenation of the two slices.
pub fn consistent_extension_seeded(
    a: &FactorStructure,
    b: &FactorStructure,
    base: &[Pair],
    played: &[u64],
    new: Pair,
) -> bool {
    let nb = base.len();
    extension_ok(
        a,
        b,
        |i| {
            if i < nb {
                base[i]
            } else {
                unpack_pair(played[i - nb])
            }
        },
        nb + played.len(),
        new,
    )
}

/// The **seed type** of every element of one structure: the truth vector
/// of each condition [`consistent_extension_seeded`]`(base, &[], new)`
/// evaluates on the element `x` of `new` on this side, in a fixed order.
/// The conditions are the equality `x = sᵢ` against each seeding element,
/// and every concat triple over `seeding ∪ {x}` that mentions `x`. Each
/// condition of that check compares one side's bit with the other's, so
/// for a seeding of zipped pairs `(s_A, s_B)`:
///
/// `base ∪ {(x, y)}` is consistent ⟺ `type_A(x) == type_B(y)` (exactly).
///
/// So seed compatibility is equality of a per-element key, not a pairwise
/// relation (docs/SOLVER.md §9.4). The vectors sit in one flat buffer with
/// a fixed stride of `⌈bits / 64⌉` words, where a seeding of `n` elements
/// gives `n + (n+1)² + n(n+1) + n²` bits. Cost: that many probes per
/// element, through the monomorphized [`ConcatOracle`] — but only for
/// elements up to twice the longest seeded one and one longer element;
/// every longer element shares that row ([`SeedTypes::of`]).
///
/// ⊥ has a row too, after the universe's: its concat bits are all false
/// (every ⊥ argument fails `R∘`) and it equals only the seeding's ⊥s, so
/// `(x, ⊥)` and `(⊥, y)` are decided by the same type equality.
pub(crate) struct SeedTypes {
    stride: usize,
    words: Vec<u64>,
}

impl SeedTypes {
    /// The seed types of every element of `s` against `seeding` (this
    /// side's half of the constant pairs).
    ///
    /// Every element longer than twice the longest non-⊥ seeded element
    /// has the same type: it equals no seeded element and no product of
    /// two, is never an operand of a seeded element, is not its own
    /// square, and `x = x·s`, `x = s·x` hold iff `s = ε`. So only the
    /// first such element is probed, and its row is copied to the rest.
    pub(crate) fn of(s: &FactorStructure, seeding: &[FactorId]) -> SeedTypes {
        use fc_logic::ConcatView as V;
        let longest = seeding
            .iter()
            .filter(|e| !e.is_bottom())
            .map(|&e| s.len_of(e))
            .max()
            .unwrap_or(0);
        let is_long = |e: usize| s.len_of(FactorId(e as u32)) > 2 * longest;
        match s.concat_view() {
            V::Dense(v) => SeedTypes::of_on(v, s.universe_len(), seeding, is_long),
            V::Succinct(v) => SeedTypes::of_on(v, s.universe_len(), seeding, is_long),
        }
    }

    fn of_on(
        view: impl ConcatOracle,
        universe_len: usize,
        seeding: &[FactorId],
        is_long: impl Fn(usize) -> bool,
    ) -> SeedTypes {
        let n = seeding.len();
        let bits = n + (n + 1) * (n + 1) + n * (n + 1) + n * n;
        let stride = bits.div_ceil(64);
        let mut words = vec![0u64; stride * (universe_len + 1)];
        let mut long_row = None;
        for e in 0..=universe_len {
            let at = e * stride;
            let x = if e == universe_len {
                FactorId::BOTTOM
            } else {
                if is_long(e) {
                    if let Some(first) = long_row {
                        words.copy_within(first..first + stride, at);
                        continue;
                    }
                    long_row = Some(at);
                }
                FactorId(e as u32)
            };
            let row = &mut words[at..at + stride];
            let ext = |i: usize| if i < n { seeding[i] } else { x };
            let mut bit = 0usize;
            let mut push = |holds: bool| {
                row[bit / 64] |= u64::from(holds) << (bit % 64);
                bit += 1;
            };
            for &s in seeding {
                push(x == s);
            }
            for i in 0..=n {
                for j in 0..=n {
                    push(view.concat_holds(x, ext(i), ext(j)));
                }
            }
            for &l in seeding {
                for j in 0..=n {
                    push(view.concat_holds(l, x, ext(j)));
                }
            }
            for &l in seeding {
                for &i in seeding {
                    push(view.concat_holds(l, i, x));
                }
            }
        }
        SeedTypes { stride, words }
    }

    /// Number of real elements (the structure's universe size; ⊥ not
    /// counted).
    pub(crate) fn len(&self) -> usize {
        self.words.len() / self.stride - 1
    }

    /// The seed type of element `x` (⊥ included).
    #[inline]
    pub(crate) fn get(&self, x: FactorId) -> &[u64] {
        let row = if x.is_bottom() {
            self.len()
        } else {
            x.0 as usize
        };
        let at = row * self.stride;
        &self.words[at..at + self.stride]
    }
}

/// Second-order incremental check, the guided solver's hot path
/// (docs/SOLVER.md §9): assuming `base ∪ {new}` is consistent (the seed
/// compatibility precomputed per response candidate) **and** `base ∪
/// played` is consistent (the invariant of every reachable game state),
/// decides whether `base ∪ played ∪ {new}` is consistent. Only the
/// conditions mentioning both `new` and at least one played pair remain:
/// the equality pattern of `new` against `played`, and every concat
/// triple whose slots include `new` and touch `played`. For a state with
/// `p` played pairs over a `b`-pair seeding this is ~`3p(b+p)` probes
/// instead of the full incremental check's `3(b+p)² + 3(b+p) + 1`.
///
/// Soundness of the split: Definition 3.1 quantifies universally over
/// triples of pairs, so consistency of a set is exactly the conjunction
/// of its per-triple conditions — partitioning the triples between the
/// precomputed part (all slots in `base ∪ {new}`) and this delta (some
/// slot in `played`) loses nothing. `partial_iso_delta_matches_full` in
/// the test module replays the claim exhaustively.
pub fn consistent_extension_delta(
    a: &FactorStructure,
    b: &FactorStructure,
    base: &[Pair],
    played: &[u64],
    new: Pair,
) -> bool {
    use fc_logic::ConcatView as V;
    match (a.concat_view(), b.concat_view()) {
        (V::Dense(x), V::Dense(y)) => extension_delta_on(x, y, base, played, new),
        (V::Dense(x), V::Succinct(y)) => extension_delta_on(x, y, base, played, new),
        (V::Succinct(x), V::Dense(y)) => extension_delta_on(x, y, base, played, new),
        (V::Succinct(x), V::Succinct(y)) => extension_delta_on(x, y, base, played, new),
    }
}

/// Monomorphized body of [`consistent_extension_delta`]. The slot space
/// is indexed `0..nb` = base, `nb..nb+np` = played, `last` = new; the
/// triple loop skips (with integer compares, no table probes) every
/// triple that does not mention `new` or does not touch `played`.
fn extension_delta_on(
    a: impl ConcatOracle,
    b: impl ConcatOracle,
    base: &[Pair],
    played: &[u64],
    new: Pair,
) -> bool {
    let (na, nb_el) = new;
    let nb = base.len();
    let np = played.len();
    // Equality pattern against the played pairs (base was covered by the
    // seed-compatibility precompute).
    for &q in played {
        let (pa, pb) = unpack_pair(q);
        if (na == pa) != (nb_el == pb) {
            return false;
        }
    }
    let last = nb + np;
    let total = last + 1;
    let get = |i: usize| {
        if i < nb {
            base[i]
        } else if i < last {
            unpack_pair(played[i - nb])
        } else {
            new
        }
    };
    let in_played = |i: usize| i >= nb && i < last;
    for l in 0..total {
        for i in 0..total {
            for j in 0..total {
                let has_new = l == last || i == last || j == last;
                if !has_new {
                    continue; // forced by consistency of base ∪ played
                }
                if !(in_played(l) || in_played(i) || in_played(j)) {
                    continue; // forced by seed compatibility of base ∪ {new}
                }
                let (la, lb) = get(l);
                let (ia, ib) = get(i);
                let (ja, jb) = get(j);
                if a.concat_holds(la, ia, ja) != b.concat_holds(lb, ib, jb) {
                    return false;
                }
            }
        }
    }
    true
}

/// Shared core of the incremental checks: `get(0..n)` enumerates the
/// existing pairs; `new` is the candidate extension. Instead of filtering
/// the (n+1)³ triple space for triples touching `new` (the old O(n³)
/// loop), the three positions `new` can occupy are enumerated directly —
/// (n+1)² + n(n+1) + n² = 3n² + 3n + 1 triples, each an O(1) concat-table
/// probe.
///
/// The backend dispatch happens here, once per extension check: the body
/// is generic over two [`ConcatOracle`]s, so the dominant dense×dense
/// instantiation keeps its probes as bare table reads (per-probe dispatch
/// through `FactorStructure::concat_holds` costs ~35% on the solver).
#[inline]
fn extension_ok(
    a: &FactorStructure,
    b: &FactorStructure,
    get: impl Fn(usize) -> Pair,
    n: usize,
    new: Pair,
) -> bool {
    use fc_logic::ConcatView as V;
    match (a.concat_view(), b.concat_view()) {
        (V::Dense(x), V::Dense(y)) => extension_ok_on(x, y, get, n, new),
        (V::Dense(x), V::Succinct(y)) => extension_ok_on(x, y, get, n, new),
        (V::Succinct(x), V::Dense(y)) => extension_ok_on(x, y, get, n, new),
        (V::Succinct(x), V::Succinct(y)) => extension_ok_on(x, y, get, n, new),
    }
}

/// Monomorphized body of [`extension_ok`].
fn extension_ok_on(
    a: impl ConcatOracle,
    b: impl ConcatOracle,
    get: impl Fn(usize) -> Pair,
    n: usize,
    new: Pair,
) -> bool {
    let (na, nb) = new;
    // Equality pattern against existing pairs.
    for i in 0..n {
        let (ai, bi) = get(i);
        if (na == ai) != (nb == bi) {
            return false;
        }
    }
    // Triples with `new` in the result slot: (new, i, j) over the extension.
    let ext = |i: usize| if i < n { get(i) } else { new };
    for i in 0..=n {
        let (ia, ib) = ext(i);
        for j in 0..=n {
            let (ja, jb) = ext(j);
            if a.concat_holds(na, ia, ja) != b.concat_holds(nb, ib, jb) {
                return false;
            }
        }
    }
    // `new` in the left operand slot, result ranging over the old pairs.
    for l in 0..n {
        let (la, lb) = get(l);
        for j in 0..=n {
            let (ja, jb) = ext(j);
            if a.concat_holds(la, na, ja) != b.concat_holds(lb, nb, jb) {
                return false;
            }
        }
    }
    // `new` in the right operand slot only.
    for l in 0..n {
        let (la, lb) = get(l);
        for i in 0..n {
            let (ia, ib) = get(i);
            if a.concat_holds(la, ia, na) != b.concat_holds(lb, ib, nb) {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use fc_words::Alphabet;

    fn st(w: &str) -> FactorStructure {
        FactorStructure::of_str(w, &Alphabet::ab())
    }

    fn id(s: &FactorStructure, u: &str) -> FactorId {
        s.id_of(u.as_bytes())
            .unwrap_or_else(|| panic!("{u} not a factor of {}", s.word()))
    }

    fn constant_pairs(a: &FactorStructure, b: &FactorStructure) -> Vec<Pair> {
        a.constants_vector()
            .into_iter()
            .zip(b.constants_vector())
            .collect()
    }

    #[test]
    fn constants_alone_form_partial_iso_for_same_alphabet_words() {
        let a = st("abab");
        let b = st("baab");
        let pairs = constant_pairs(&a, &b);
        assert_eq!(check_partial_iso(&a, &b, &pairs), Ok(()));
    }

    #[test]
    fn equality_pattern_violation() {
        let a = st("aa");
        let b = st("aa");
        let pairs = vec![
            (id(&a, "a"), id(&b, "a")),
            (id(&a, "a"), id(&b, "aa")), // same left, different right
        ];
        // The checker reports a violation — the constants condition also
        // trips here (a ↦ aa clashes with the seeded letter interpretation),
        // so accept either kind.
        assert!(check_partial_iso(&a, &b, &pairs).is_err());
    }

    #[test]
    fn concat_violation() {
        let a = st("aaa");
        let b = st("aa");
        // a-side: aa = a·a true; b-side: a = a·a false.
        let pairs = vec![(id(&a, "aa"), id(&b, "a")), (id(&a, "a"), id(&b, "a"))];
        // equality violated too (a-side distinct, b-side equal) — use
        // distinct b elements.
        let pairs2 = vec![(id(&a, "aa"), id(&b, "aa")), (id(&a, "a"), id(&b, "aa"))];
        assert!(check_partial_iso(&a, &b, &pairs).is_err());
        assert!(check_partial_iso(&a, &b, &pairs2).is_err());
    }

    #[test]
    fn constant_violation_detected() {
        let a = st("ab");
        let b = st("ab");
        // Map the constant a to something else without including constants.
        let pairs = vec![(a.constant(b'a'), id(&b, "b"))];
        assert!(matches!(
            check_partial_iso(&a, &b, &pairs),
            Err(IsoViolation::Constant { .. })
        ));
    }

    #[test]
    fn incremental_matches_full_check() {
        // Exhaustive: for small structures, every (pairs, new) combo agrees
        // with the full checker.
        let a = st("aba");
        let b = st("aab");
        let base = constant_pairs(&a, &b);
        assert_eq!(check_partial_iso(&a, &b, &base), Ok(()));
        let a_ids: Vec<FactorId> = a.universe().collect();
        let b_ids: Vec<FactorId> = b.universe().collect();
        for &x in &a_ids {
            for &y in &b_ids {
                let mut pairs = base.clone();
                if !consistent_extension(&a, &b, &pairs, (x, y)) {
                    pairs.push((x, y));
                    assert!(
                        check_partial_iso(&a, &b, &pairs).is_err(),
                        "x={x:?} y={y:?}"
                    );
                    continue;
                }
                pairs.push((x, y));
                assert_eq!(check_partial_iso(&a, &b, &pairs), Ok(()), "x={x:?} y={y:?}");
                // one more level
                for &x2 in &a_ids {
                    for &y2 in &b_ids {
                        let ok = consistent_extension(&a, &b, &pairs, (x2, y2));
                        let mut p2 = pairs.clone();
                        p2.push((x2, y2));
                        assert_eq!(
                            check_partial_iso(&a, &b, &p2).is_ok(),
                            ok,
                            "x2={x2:?} y2={y2:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn partial_iso_delta_matches_full() {
        // Exhaustive: whenever base ∪ {new} and base ∪ played are both
        // consistent, the delta check agrees with the full incremental
        // check on base ∪ played ∪ {new} — for every played pair and
        // every candidate extension of two small structures.
        let a = st("abaab");
        let b = st("aabab");
        let base = constant_pairs(&a, &b);
        let a_ids: Vec<FactorId> = a.universe().collect();
        let b_ids: Vec<FactorId> = b.universe().collect();
        let mut checked = 0u64;
        for &x in &a_ids {
            for &y in &b_ids {
                if !consistent_extension(&a, &b, &base, (x, y)) {
                    continue; // (x, y) is the played pair: must be consistent
                }
                let played = [pack_pair((x, y))];
                let mut with_played = base.clone();
                with_played.push((x, y));
                for &x2 in &a_ids {
                    for &y2 in &b_ids {
                        if !consistent_extension(&a, &b, &base, (x2, y2)) {
                            continue; // new must be seed-compatible
                        }
                        let full = consistent_extension(&a, &b, &with_played, (x2, y2));
                        let delta = consistent_extension_delta(&a, &b, &base, &played, (x2, y2));
                        assert_eq!(full, delta, "x={x:?} y={y:?} x2={x2:?} y2={y2:?}");
                        checked += 1;
                    }
                }
            }
        }
        assert!(checked > 100, "window too small to be meaningful");
    }

    #[test]
    fn bottom_pairs_are_consistent() {
        let a = st("ab");
        let b = st("ba");
        let mut pairs = constant_pairs(&a, &b);
        assert!(consistent_extension(
            &a,
            &b,
            &pairs,
            (FactorId::BOTTOM, FactorId::BOTTOM)
        ));
        pairs.push((FactorId::BOTTOM, FactorId::BOTTOM));
        assert_eq!(check_partial_iso(&a, &b, &pairs), Ok(()));
        // ⊥ paired with a real element violates equality vs the ⊥ pair.
        assert!(!consistent_extension(
            &a,
            &b,
            &pairs,
            (FactorId::BOTTOM, b.epsilon())
        ));
    }
}
