//! The factor structure 𝔄_w (Definition of §2, "The logic FC").
//!
//! For `w ∈ Σ*`, 𝔄_w has universe `Facs(w) ∪ {⊥}`, the concatenation
//! relation `R∘ = {(a,b,c) ∈ Facs(w)³ : a = b·c}`, one constant per letter
//! (interpreted as ⊥ when the letter does not occur in `w`), and ε.
//!
//! The universe is *interned*: each distinct factor gets a dense
//! [`FactorId`]; equality is id comparison. ⊥ is a dedicated sentinel id.
//!
//! ## Backends
//!
//! How the universe and `R∘` are *represented* is a [`FactorBackend`]
//! choice (see `docs/STRUCTURE.md`):
//!
//! - [`dense::DenseBackend`] stores every factor as a span of `w` plus an
//!   m×m concat table — O(1) probes, Θ(m²) memory, the right trade for the
//!   game-sized words (|w| ≲ 10²) the EF solver plays on;
//! - [`succinct::SuccinctBackend`] stores only the suffix automaton of `w`
//!   (O(|w|) states) and resolves probes by automaton traversal — the only
//!   viable representation at |w| = 10⁴–10⁵, where m = |Facs(w)| is Θ(|w|²).
//!
//! [`FactorStructure::new`] picks the backend by word length
//! ([`DENSE_MAX_WORD_LEN`]); [`FactorStructure::with_backend`] overrides.
//! Every consumer goes through the facade, so solver, batch engine,
//! fingerprints and the plan evaluator run over either backend unchanged.
//!
//! The two backends number factors differently (dense: (length, lex);
//! succinct: automaton discovery order, ε first in both), so ids are only
//! meaningful relative to one structure — which was already the contract.
//! All *semantic* observations (`bytes_of`, `id_of`, `concat_id` up to
//! bytes, `is_prefix`, `is_suffix`) agree between backends; the
//! differential suite `tests/backend_diff.rs` pins this.

mod dense;
mod packed;
mod succinct;

pub use packed::PackedVec;

use dense::DenseBackend;
use fc_words::{Alphabet, Word};
use succinct::SuccinctBackend;

/// A dense identifier for an element of the universe of 𝔄_w.
///
/// `FactorId::BOTTOM` is the null element ⊥; all other ids index the
/// interned factor universe.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FactorId(pub u32);

impl FactorId {
    /// The null element ⊥.
    pub const BOTTOM: FactorId = FactorId(u32::MAX);

    /// `true` iff this is ⊥.
    #[inline]
    pub fn is_bottom(self) -> bool {
        self == FactorId::BOTTOM
    }
}

/// Which representation backs a [`FactorStructure`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BackendKind {
    /// Materialized factor vector + m×m concat table (O(1) probes).
    Dense,
    /// Suffix automaton + packed per-state arrays (O(|w|) memory).
    Succinct,
}

impl std::fmt::Display for BackendKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            BackendKind::Dense => "dense",
            BackendKind::Succinct => "succinct",
        })
    }
}

/// Longest word that [`FactorStructure::new`] still builds densely. Game
/// words (the EF solver's domain) are far below this, so auto-selection
/// never changes their representation; long-document workloads get the
/// succinct backend automatically.
pub const DENSE_MAX_WORD_LEN: usize = 64;

/// The storage contract behind [`FactorStructure`].
///
/// Implementations may assume the ⊥-freedom the facade guarantees: ids
/// passed to probe methods are non-⊥ and within the universe.
pub trait FactorBackend {
    /// The represented word.
    fn word(&self) -> &Word;
    /// |Facs(w)| (excluding ⊥).
    fn universe_len(&self) -> usize;
    /// The id of `u` if `u ⊑ w`.
    fn id_of(&self, u: &[u8]) -> Option<FactorId>;
    /// The bytes of a factor (borrowed from backend storage).
    fn bytes_of(&self, id: FactorId) -> &[u8];
    /// |u| for the factor with this id.
    fn len_of(&self, id: FactorId) -> usize;
    /// The id of `b · c` if the concatenation is again a factor of `w`.
    fn concat_id(&self, b: FactorId, c: FactorId) -> Option<FactorId>;
    /// `R∘` membership `a = b · c` (all non-⊥).
    fn concat_holds(&self, a: FactorId, b: FactorId, c: FactorId) -> bool;
    /// `true` iff the factor is a prefix of `w`.
    fn is_prefix(&self, id: FactorId) -> bool;
    /// `true` iff the factor is a suffix of `w`.
    fn is_suffix(&self, id: FactorId) -> bool;
    /// The ids of all factors of length ≤ `max_len`, each exactly once,
    /// in no particular order. O(output) on both backends — used by the
    /// order-independent fingerprint folds.
    fn short_factor_ids(&self, max_len: usize) -> Vec<FactorId>;
    /// Approximate heap footprint of the representation in bytes.
    fn memory_bytes(&self) -> usize;
    /// Which backend this is.
    fn kind(&self) -> BackendKind;
    /// Recounts the universe from first principles (debug cross-check for
    /// the `universe_len` consistency asserts).
    #[cfg(any(debug_assertions, test))]
    fn universe_len_recount(&self) -> usize;
}

/// Static dispatch over the two backends: each arm monomorphizes, so the
/// dense fast paths stay as cheap as before the refactor. The succinct
/// variant is boxed to keep the enum (and thus every structure) small.
#[derive(Clone, Debug)]
enum BackendImpl {
    Dense(DenseBackend),
    Succinct(Box<SuccinctBackend>),
}

/// A borrowed `R∘` oracle that lets hot loops pay the backend dispatch
/// **once per loop, not once per probe**: callers match a
/// [`ConcatView`] outside their loops and run a body generic over
/// `ConcatOracle`, so the dense arm compiles down to the bare
/// `table[b·m + c] == a` read. Going through
/// [`FactorStructure::concat_holds`] instead re-reads the backend
/// discriminant on every probe, which measurably degrades
/// concat-saturated loops like the solver's partial-isomorphism check.
pub trait ConcatOracle: Copy {
    /// `R∘` membership `a = b · c`; any ⊥ argument makes this false.
    fn concat_holds(&self, a: FactorId, b: FactorId, c: FactorId) -> bool;
}

/// [`ConcatOracle`] over the dense backend's concat table.
#[derive(Clone, Copy)]
pub struct DenseConcatView<'a> {
    table: &'a [FactorId],
    m: usize,
}

impl ConcatOracle for DenseConcatView<'_> {
    #[inline(always)]
    fn concat_holds(&self, a: FactorId, b: FactorId, c: FactorId) -> bool {
        if a.is_bottom() || b.is_bottom() || c.is_bottom() {
            return false;
        }
        self.table[b.0 as usize * self.m + c.0 as usize] == a
    }
}

/// [`ConcatOracle`] over the succinct backend (memoised automaton walks).
#[derive(Clone, Copy)]
pub struct SuccinctConcatView<'a>(&'a SuccinctBackend);

impl ConcatOracle for SuccinctConcatView<'_> {
    #[inline]
    fn concat_holds(&self, a: FactorId, b: FactorId, c: FactorId) -> bool {
        if a.is_bottom() || b.is_bottom() || c.is_bottom() {
            return false;
        }
        FactorBackend::concat_holds(self.0, a, b, c)
    }
}

/// One structure's oracle, to be matched apart before a hot loop.
#[derive(Clone, Copy)]
pub enum ConcatView<'a> {
    /// Probes resolve against the dense concat table.
    Dense(DenseConcatView<'a>),
    /// Probes resolve by automaton walk (plus memo).
    Succinct(SuccinctConcatView<'a>),
}

impl ConcatOracle for ConcatView<'_> {
    #[inline]
    fn concat_holds(&self, a: FactorId, b: FactorId, c: FactorId) -> bool {
        match self {
            ConcatView::Dense(v) => v.concat_holds(a, b, c),
            ConcatView::Succinct(v) => v.concat_holds(a, b, c),
        }
    }
}

macro_rules! via {
    ($self:ident, $b:ident => $e:expr) => {
        match &$self.backend {
            BackendImpl::Dense($b) => $e,
            BackendImpl::Succinct($b) => $e,
        }
    };
}

/// An exact-size, allocation-free iterator over the universe ids of one
/// structure (⊥ excluded). Ids are dense, so this is a plain counter.
#[derive(Clone, Debug)]
pub struct Universe {
    next: u32,
    end: u32,
}

impl Iterator for Universe {
    type Item = FactorId;

    #[inline]
    fn next(&mut self) -> Option<FactorId> {
        if self.next == self.end {
            return None;
        }
        let id = FactorId(self.next);
        self.next += 1;
        Some(id)
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = (self.end - self.next) as usize;
        (rem, Some(rem))
    }
}

impl ExactSizeIterator for Universe {}

impl DoubleEndedIterator for Universe {
    #[inline]
    fn next_back(&mut self) -> Option<FactorId> {
        if self.next == self.end {
            return None;
        }
        self.end -= 1;
        Some(FactorId(self.end))
    }
}

/// The τ_Σ-structure 𝔄_w representing a word `w`.
#[derive(Clone, Debug)]
pub struct FactorStructure {
    sigma: Alphabet,
    backend: BackendImpl,
    /// Per alphabet letter: the id of the single-letter factor, or ⊥.
    constants: Vec<(u8, FactorId)>,
    /// Dense byte-indexed constant interpretations (⊥ for non-letters and
    /// letters absent from `w`): `constant()` in O(1).
    constant_table: Vec<FactorId>,
}

impl FactorStructure {
    /// Builds 𝔄_w over the alphabet of `w` extended by `sigma`, choosing
    /// the backend by word length (≤ [`DENSE_MAX_WORD_LEN`] → dense).
    pub fn new(word: Word, sigma: &Alphabet) -> FactorStructure {
        let kind = if word.len() <= DENSE_MAX_WORD_LEN {
            BackendKind::Dense
        } else {
            BackendKind::Succinct
        };
        FactorStructure::with_backend(word, sigma, kind)
    }

    /// Builds 𝔄_w with an explicit backend choice.
    pub fn with_backend(word: Word, sigma: &Alphabet, kind: BackendKind) -> FactorStructure {
        let sigma = sigma.extended_by(&word);
        let backend = match kind {
            BackendKind::Dense => BackendImpl::Dense(DenseBackend::build(word)),
            BackendKind::Succinct => BackendImpl::Succinct(Box::new(SuccinctBackend::build(word))),
        };
        let id_of = |u: &[u8]| match &backend {
            BackendImpl::Dense(b) => b.id_of(u),
            BackendImpl::Succinct(b) => b.id_of(u),
        };
        let constants: Vec<(u8, FactorId)> = sigma
            .symbols()
            .iter()
            .map(|&c| (c, id_of(&[c]).unwrap_or(FactorId::BOTTOM)))
            .collect();
        let mut constant_table = vec![FactorId::BOTTOM; 256];
        for &(c, id) in &constants {
            constant_table[c as usize] = id;
        }
        FactorStructure {
            sigma,
            backend,
            constants,
            constant_table,
        }
    }

    /// Builds 𝔄_w using exactly the symbols occurring in `w` as Σ.
    pub fn of_word(word: impl Into<Word>) -> FactorStructure {
        let word = word.into();
        let sigma = Alphabet::from_symbols(&word.symbols());
        FactorStructure::new(word, &sigma)
    }

    /// Builds 𝔄_w from a `&str` over a named alphabet.
    pub fn of_str(word: &str, sigma: &Alphabet) -> FactorStructure {
        FactorStructure::new(Word::from(word), sigma)
    }

    /// The backend this structure runs on.
    #[inline]
    pub fn backend_kind(&self) -> BackendKind {
        via!(self, b => b.kind())
    }

    /// Approximate heap footprint of the factor representation in bytes
    /// (excluding the constant tables, which are backend-independent).
    pub fn memory_bytes(&self) -> usize {
        via!(self, b => b.memory_bytes())
    }

    /// The represented word.
    #[inline]
    pub fn word(&self) -> &Word {
        via!(self, b => b.word())
    }

    /// The alphabet Σ of the signature τ_Σ.
    #[inline]
    pub fn alphabet(&self) -> &Alphabet {
        &self.sigma
    }

    /// Number of factor elements (excluding ⊥).
    #[inline]
    pub fn universe_len(&self) -> usize {
        via!(self, b => b.universe_len())
    }

    /// Iterates over all factor ids (not including ⊥): exact-size and
    /// allocation-free.
    pub fn universe(&self) -> Universe {
        let len = self.universe_len();
        #[cfg(debug_assertions)]
        {
            let recount = via!(self, b => b.universe_len_recount());
            debug_assert_eq!(
                len, recount,
                "universe_len disagrees with the backend recount"
            );
        }
        Universe {
            next: 0,
            end: len as u32,
        }
    }

    /// The id of ε (both backends intern ε first).
    #[inline]
    pub fn epsilon(&self) -> FactorId {
        FactorId(0)
    }

    /// The interpretation `a^{𝔄_w}` of a letter constant: the single-letter
    /// factor if the letter occurs in `w`, else ⊥. O(1).
    #[inline]
    pub fn constant(&self, sym: u8) -> FactorId {
        self.constant_table[sym as usize]
    }

    /// The constants vector ⟨𝔄_w⟩ = (a₁^{𝔄}, …, a_m^{𝔄}, ε^{𝔄}) used in the
    /// EF winning condition (§3).
    pub fn constants_vector(&self) -> Vec<FactorId> {
        let mut v: Vec<FactorId> = self.constants.iter().map(|&(_, id)| id).collect();
        v.push(self.epsilon());
        v
    }

    /// The bytes of a factor element.
    ///
    /// # Panics
    /// Panics on ⊥ or an out-of-range id.
    #[inline]
    pub fn bytes_of(&self, id: FactorId) -> &[u8] {
        assert!(!id.is_bottom(), "⊥ has no bytes");
        via!(self, b => b.bytes_of(id))
    }

    /// The [`Word`] of a factor element, materialized (the succinct
    /// backend stores no per-factor `Word`s; use [`Self::bytes_of`] when a
    /// borrowed slice suffices).
    #[inline]
    pub fn word_of(&self, id: FactorId) -> Word {
        Word::from(self.bytes_of(id))
    }

    /// Length of the factor (|⊥| is undefined; panics).
    #[inline]
    pub fn len_of(&self, id: FactorId) -> usize {
        assert!(!id.is_bottom(), "⊥ has no length");
        via!(self, b => b.len_of(id))
    }

    /// The id of a factor, if `u ⊑ w`. Allocation-free on both backends.
    #[inline]
    pub fn id_of(&self, u: &[u8]) -> Option<FactorId> {
        // Fast path: too-long candidates cannot be factors.
        if u.len() > self.word().len() {
            return None;
        }
        via!(self, b => b.id_of(u))
    }

    /// R∘ membership: `a = b · c` with all three in `Facs(w)`.
    /// Any ⊥ argument makes this false.
    #[inline]
    pub fn concat_holds(&self, a: FactorId, b: FactorId, c: FactorId) -> bool {
        if a.is_bottom() || b.is_bottom() || c.is_bottom() {
            return false;
        }
        via!(self, be => be.concat_holds(a, b, c))
    }

    /// The borrowed `R∘` oracle of this structure, for hot loops that
    /// want to dispatch on the backend once instead of per probe (see
    /// [`ConcatOracle`]).
    #[inline]
    pub fn concat_view(&self) -> ConcatView<'_> {
        match &self.backend {
            BackendImpl::Dense(d) => ConcatView::Dense(d.concat_view()),
            BackendImpl::Succinct(s) => ConcatView::Succinct(SuccinctConcatView(s)),
        }
    }

    /// The id of `b · c` if the concatenation is again a factor of `w`.
    #[inline]
    pub fn concat_id(&self, b: FactorId, c: FactorId) -> Option<FactorId> {
        if b.is_bottom() || c.is_bottom() {
            return None;
        }
        via!(self, be => be.concat_id(b, c))
    }

    /// The id of the full word `w` itself.
    pub fn full_word_id(&self) -> FactorId {
        self.id_of(self.word().bytes()).expect("w ⊑ w")
    }

    /// `true` iff the factor is a prefix of `w`.
    #[inline]
    pub fn is_prefix(&self, id: FactorId) -> bool {
        !id.is_bottom() && via!(self, b => b.is_prefix(id))
    }

    /// `true` iff the factor is a suffix of `w`.
    #[inline]
    pub fn is_suffix(&self, id: FactorId) -> bool {
        !id.is_bottom() && via!(self, b => b.is_suffix(id))
    }

    /// The ids of all factors of length ≤ `max_len` (each exactly once, no
    /// order guarantee): O(output) on both backends, where a full
    /// `universe()` scan would be Θ(|w|²) on long words.
    pub fn short_factor_ids(&self, max_len: usize) -> Vec<FactorId> {
        via!(self, b => b.short_factor_ids(max_len))
    }

    /// Renders an element for traces (⊥ or the factor text).
    pub fn render(&self, id: FactorId) -> String {
        if id.is_bottom() {
            "⊥".to_string()
        } else {
            self.word_of(id).to_string()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn universe_of_abaab() {
        let s = FactorStructure::of_word("abaab");
        // 11 non-empty factors + ε.
        assert_eq!(s.universe_len(), 12);
        assert_eq!(s.bytes_of(s.epsilon()), b"");
        assert!(s.id_of(b"aab").is_some());
        assert!(s.id_of(b"bb").is_none());
    }

    #[test]
    fn constants_interpretation() {
        let sigma = Alphabet::abc();
        let s = FactorStructure::of_str("abab", &sigma);
        assert!(!s.constant(b'a').is_bottom());
        assert!(!s.constant(b'b').is_bottom());
        // c does not occur → ⊥.
        assert!(s.constant(b'c').is_bottom());
        assert_eq!(s.bytes_of(s.constant(b'a')), b"a");
        // Constants vector has |Σ| + 1 entries, ending in ε.
        let cv = s.constants_vector();
        assert_eq!(cv.len(), 4);
        assert_eq!(*cv.last().unwrap(), s.epsilon());
    }

    #[test]
    fn concat_relation() {
        let s = FactorStructure::of_word("abaab");
        let ab = s.id_of(b"ab").unwrap();
        let a = s.id_of(b"a").unwrap();
        let b = s.id_of(b"b").unwrap();
        let aba = s.id_of(b"aba").unwrap();
        assert!(s.concat_holds(ab, a, b));
        assert!(!s.concat_holds(ab, b, a));
        assert!(s.concat_holds(aba, ab, a));
        assert!(s.concat_holds(aba, a, s.id_of(b"ba").unwrap()));
        // ε is a unit.
        assert!(s.concat_holds(a, a, s.epsilon()));
        assert!(s.concat_holds(a, s.epsilon(), a));
        // ⊥ never participates.
        assert!(!s.concat_holds(FactorId::BOTTOM, a, b));
        assert!(!s.concat_holds(ab, FactorId::BOTTOM, b));
    }

    #[test]
    fn concat_id_round_trip() {
        let s = FactorStructure::of_word("abaab");
        let a = s.id_of(b"a").unwrap();
        let b = s.id_of(b"b").unwrap();
        assert_eq!(s.concat_id(a, b), s.id_of(b"ab"));
        // "ba" + "ba" = "baba" is not a factor of abaab.
        let ba = s.id_of(b"ba").unwrap();
        assert_eq!(s.concat_id(ba, ba), None);
    }

    #[test]
    fn prefix_suffix_flags() {
        let s = FactorStructure::of_word("abaab");
        assert!(s.is_prefix(s.id_of(b"aba").unwrap()));
        assert!(!s.is_prefix(s.id_of(b"baab").unwrap()));
        assert!(s.is_suffix(s.id_of(b"aab").unwrap()));
        assert!(s.is_suffix(s.id_of(b"abaab").unwrap()));
        assert!(s.is_prefix(s.epsilon()) && s.is_suffix(s.epsilon()));
    }

    #[test]
    fn concat_table_matches_byte_definition() {
        // Both backends must agree with the definitional byte check
        // (length split + prefix/suffix match) on every triple.
        for w in ["", "a", "abaab", "aabbab", "abcacb"] {
            for kind in [BackendKind::Dense, BackendKind::Succinct] {
                let s = FactorStructure::with_backend(Word::from(w), &Alphabet::abc(), kind);
                let ids: Vec<FactorId> = s.universe().collect();
                for &a in &ids {
                    for &b in &ids {
                        for &c in &ids {
                            let (ba, bb, bc) = (s.bytes_of(a), s.bytes_of(b), s.bytes_of(c));
                            let naive = ba.len() == bb.len() + bc.len()
                                && ba.starts_with(bb)
                                && ba.ends_with(bc);
                            assert_eq!(
                                s.concat_holds(a, b, c),
                                naive,
                                "kind={kind} w={w} a={ba:?} b={bb:?} c={bc:?}"
                            );
                            let bytes: Vec<u8> = [bb, bc].concat();
                            assert_eq!(s.concat_id(b, c), s.id_of(&bytes));
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn empty_word_structure() {
        let s = FactorStructure::of_str("", &Alphabet::ab());
        assert_eq!(s.universe_len(), 1); // just ε
        assert!(s.constant(b'a').is_bottom());
        assert_eq!(s.full_word_id(), s.epsilon());
        assert!(s.concat_holds(s.epsilon(), s.epsilon(), s.epsilon()));
    }

    #[test]
    fn render_elements() {
        let s = FactorStructure::of_word("ab");
        assert_eq!(s.render(FactorId::BOTTOM), "⊥");
        assert_eq!(s.render(s.epsilon()), "ε");
        assert_eq!(s.render(s.id_of(b"ab").unwrap()), "ab");
    }

    #[test]
    fn auto_selection_by_word_length() {
        let short = FactorStructure::of_word("ab");
        assert_eq!(short.backend_kind(), BackendKind::Dense);
        let exactly = FactorStructure::of_word("ab".repeat(32)); // |w| = 64
        assert_eq!(exactly.backend_kind(), BackendKind::Dense);
        let long = FactorStructure::of_word("ab".repeat(33)); // |w| = 66
        assert_eq!(long.backend_kind(), BackendKind::Succinct);
    }

    #[test]
    fn with_backend_overrides_selection() {
        let sigma = Alphabet::ab();
        let s = FactorStructure::with_backend(Word::from("abaab"), &sigma, BackendKind::Succinct);
        assert_eq!(s.backend_kind(), BackendKind::Succinct);
        assert_eq!(s.universe_len(), 12);
        let d =
            FactorStructure::with_backend(Word::from("ab").pow(100), &sigma, BackendKind::Dense);
        assert_eq!(d.backend_kind(), BackendKind::Dense);
    }

    #[test]
    fn universe_iterator_is_exact_size() {
        let s = FactorStructure::of_word("abaab");
        let u = s.universe();
        assert_eq!(u.len(), s.universe_len());
        assert_eq!(u.count(), s.universe_len());
        // Double-ended: reverse iteration covers the same ids.
        let fwd: Vec<FactorId> = s.universe().collect();
        let mut bwd: Vec<FactorId> = s.universe().rev().collect();
        bwd.reverse();
        assert_eq!(fwd, bwd);
    }

    #[test]
    fn word_of_materializes() {
        let s = FactorStructure::of_word("abaab");
        let id = s.id_of(b"aab").unwrap();
        assert_eq!(s.word_of(id), Word::from("aab"));
        assert_eq!(s.word_of(s.epsilon()), Word::epsilon());
    }

    #[test]
    fn short_factor_ids_agree_across_backends() {
        let sigma = Alphabet::ab();
        for w in ["", "a", "abaab", "aabbab"] {
            for cap in [0usize, 1, 3, 8] {
                let mut sets: Vec<Vec<Vec<u8>>> = [BackendKind::Dense, BackendKind::Succinct]
                    .iter()
                    .map(|&kind| {
                        let s = FactorStructure::with_backend(Word::from(w), &sigma, kind);
                        let mut v: Vec<Vec<u8>> = s
                            .short_factor_ids(cap)
                            .iter()
                            .map(|&id| s.bytes_of(id).to_vec())
                            .collect();
                        v.sort();
                        v
                    })
                    .collect();
                let succ = sets.pop().unwrap();
                let dense = sets.pop().unwrap();
                assert_eq!(dense, succ, "w={w} cap={cap}");
            }
        }
    }

    #[test]
    fn memory_accounting_orders_backends_correctly() {
        // At |w| = 200 the dense table is already far bigger than the
        // automaton.
        let w = Word::from("ab").pow(100);
        let sigma = Alphabet::ab();
        let d = FactorStructure::with_backend(w.clone(), &sigma, BackendKind::Dense);
        let s = FactorStructure::with_backend(w, &sigma, BackendKind::Succinct);
        assert_eq!(d.universe_len(), s.universe_len());
        assert!(
            d.memory_bytes() > 10 * s.memory_bytes(),
            "dense {} vs succinct {}",
            d.memory_bytes(),
            s.memory_bytes()
        );
    }
}
