//! The dense table backend: factor spans + Θ(m²) concat table.
//!
//! The fastest backend for small words: every probe is a single array
//! read. [`DenseBackend::build`] is one pass over the word with no
//! hashing of owned keys and no per-factor allocation:
//!
//! - **Ids by per-length rank refinement.** For each length l = 1..n the
//!   positions i are ranked by the pair (id of `w[i..i+l−1]`, `w[i+l−1]`).
//!   Ids of one length are handed out in lex order, so that pair orders
//!   the length-l factors lexicographically; each distinct pair gets the
//!   next id. The result is the (length, lex) order of
//!   [`fc_words::factors_of`], with ε at id 0. The build records
//!   `pos_id[l][i]`, the id of `w[i..i+l]`, in one (n+1)×(n+1) scratch
//!   table.
//! - **Spans, not words.** A factor is stored as its first occurrence, a
//!   `(start, len)` span into the backend's one [`Word`]: 8 bytes per
//!   factor, and `bytes_of` borrows the word.
//! - **The concat table from `pos_id`.** For the factor `a = w[s..s+l]`
//!   and every split t, `b = pos_id[t][s]` and `c = pos_id[l−t][s+t]`,
//!   so `concat_table[b·m + c] = a` costs O(1) per split.
//! - **`id_of`** goes through [`FactorInterner`], an open-addressing table
//!   of bare ids probed against the spans. Its FNV-1a hashes are extended
//!   one letter per length during the ranking pass, so no factor is
//!   hashed from scratch.
//!
//! The probe methods are `#[inline]` so the solver's 3m²+3m+1 atom loop
//! (`partial_iso::extension_ok`) inlines the table reads.

use super::{BackendKind, FactorBackend, FactorId};
use fc_words::Word;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// One FNV-1a step: extends the hash of `u` to the hash of `u · byte`.
#[inline]
fn fnv_step(h: u64, byte: u8) -> u64 {
    (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
}

/// FNV-1a over a byte slice (the interner's probe hash).
#[inline]
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(FNV_OFFSET, |h, &b| fnv_step(h, b))
}

const EMPTY: u32 = u32::MAX;

/// A factor as its first occurrence `word[start..start + len]`.
#[derive(Clone, Copy, Debug)]
struct Span {
    start: u32,
    len: u32,
}

impl Span {
    #[inline]
    fn of(self, word: &[u8]) -> &[u8] {
        &word[self.start as usize..(self.start + self.len) as usize]
    }
}

/// Open-addressing byte-slice → id table. Slots hold ids only; probes
/// compare against the factor spans, so no key bytes are duplicated.
#[derive(Clone, Debug)]
struct FactorInterner {
    mask: usize,
    slots: Vec<u32>,
}

impl FactorInterner {
    /// Builds the table from each factor's FNV-1a hash, in id order.
    fn build(hashes: &[u64]) -> FactorInterner {
        let cap = (hashes.len() * 2).next_power_of_two().max(8);
        let mask = cap - 1;
        let mut slots = vec![EMPTY; cap];
        for (i, &h) in hashes.iter().enumerate() {
            let mut pos = h as usize & mask;
            while slots[pos] != EMPTY {
                pos = (pos + 1) & mask;
            }
            slots[pos] = i as u32;
        }
        FactorInterner { mask, slots }
    }

    /// Looks up the id of `u`, comparing candidate slots against the
    /// spans of `word`. Allocation-free.
    #[inline]
    fn get(&self, word: &[u8], spans: &[Span], u: &[u8]) -> Option<FactorId> {
        let mut pos = fnv1a(u) as usize & self.mask;
        loop {
            let slot = self.slots[pos];
            if slot == EMPTY {
                return None;
            }
            if spans[slot as usize].of(word) == u {
                return Some(FactorId(slot));
            }
            pos = (pos + 1) & self.mask;
        }
    }

    #[cfg(any(debug_assertions, test))]
    fn occupied(&self) -> usize {
        self.slots.iter().filter(|&&s| s != EMPTY).count()
    }
}

/// The dense backend: O(1) probes, Θ(m²) memory.
#[derive(Clone, Debug)]
pub struct DenseBackend {
    word: Word,
    /// The distinct factors as spans of `word`, sorted by (length, lex);
    /// `spans[0]` is ε.
    spans: Vec<Span>,
    interner: FactorInterner,
    /// `concat_table[b·m + c]` is the id of `b · c`, or ⊥ when the
    /// concatenation is not a factor of `w`, so `R∘` membership and
    /// `concat_id` are O(1) array lookups.
    concat_table: Vec<FactorId>,
}

impl DenseBackend {
    /// The borrowed concat-table oracle for once-per-loop dispatch.
    pub(super) fn concat_view(&self) -> super::DenseConcatView<'_> {
        super::DenseConcatView {
            table: &self.concat_table,
            m: self.spans.len(),
        }
    }

    /// Builds the dense tables for `word` (see the module docs).
    pub fn build(word: Word) -> DenseBackend {
        let w = word.bytes();
        let n = w.len();
        assert!(n < 1 << 24, "dense backend: |w| = {n} is too long");
        let stride = n + 1;
        // pos_id[l·stride + i] is the id of w[i..i+l]; row 0 is ε.
        let mut pos_id = vec![0u32; stride * stride];
        let mut spans = vec![Span { start: 0, len: 0 }];
        let mut hashes = vec![FNV_OFFSET];
        // run_hash[i] is the FNV-1a hash of w[i..i+l] for the current l.
        let mut run_hash = vec![FNV_OFFSET; n];
        // Sort keys: id of w[i..i+l−1] (32 bits), w[i+l−1] (8), i (24).
        let mut keys: Vec<u64> = Vec::with_capacity(n);
        for l in 1..=n {
            let prev = &pos_id[(l - 1) * stride..l * stride];
            keys.clear();
            for i in 0..=n - l {
                let last = w[i + l - 1];
                run_hash[i] = fnv_step(run_hash[i], last);
                keys.push(u64::from(prev[i]) << 32 | u64::from(last) << 24 | i as u64);
            }
            keys.sort_unstable();
            let row = &mut pos_id[l * stride..(l + 1) * stride];
            let mut group = u64::MAX;
            for &key in &keys {
                let i = (key & 0xff_ffff) as usize;
                if key >> 24 != group {
                    group = key >> 24;
                    spans.push(Span {
                        start: i as u32,
                        len: l as u32,
                    });
                    hashes.push(run_hash[i]);
                }
                row[i] = spans.len() as u32 - 1;
            }
        }
        let interner = FactorInterner::build(&hashes);
        // Every split a = b · c of a factor has factor halves, so one pass
        // over all (factor, split point) pairs enumerates R∘ exactly:
        // concat_table[b·m + c] = a ⟺ (a, b, c) ∈ R∘.
        let m = spans.len();
        // `repeat` fills by doubling copies, which stays fast in debug
        // builds too (a plain `vec![⊥; m²]` is an element loop there).
        let mut concat_table = vec![FactorId::BOTTOM; m].repeat(m);
        for (a, span) in spans.iter().enumerate() {
            let (s, l) = (span.start as usize, span.len as usize);
            for t in 0..=l {
                let b = pos_id[t * stride + s] as usize;
                let c = pos_id[(l - t) * stride + s + t] as usize;
                concat_table[b * m + c] = FactorId(a as u32);
            }
        }
        DenseBackend {
            word,
            spans,
            interner,
            concat_table,
        }
    }
}

impl FactorBackend for DenseBackend {
    #[inline]
    fn word(&self) -> &Word {
        &self.word
    }

    #[inline]
    fn universe_len(&self) -> usize {
        self.spans.len()
    }

    #[inline]
    fn id_of(&self, u: &[u8]) -> Option<FactorId> {
        self.interner.get(self.word.bytes(), &self.spans, u)
    }

    #[inline]
    fn bytes_of(&self, id: FactorId) -> &[u8] {
        self.spans[id.0 as usize].of(self.word.bytes())
    }

    #[inline]
    fn len_of(&self, id: FactorId) -> usize {
        self.spans[id.0 as usize].len as usize
    }

    #[inline]
    fn concat_id(&self, b: FactorId, c: FactorId) -> Option<FactorId> {
        let m = self.spans.len();
        let id = self.concat_table[b.0 as usize * m + c.0 as usize];
        if id.is_bottom() {
            None
        } else {
            Some(id)
        }
    }

    #[inline]
    fn concat_holds(&self, a: FactorId, b: FactorId, c: FactorId) -> bool {
        let m = self.spans.len();
        self.concat_table[b.0 as usize * m + c.0 as usize] == a
    }

    #[inline]
    fn is_prefix(&self, id: FactorId) -> bool {
        // A span is the factor's first occurrence, which starts at 0
        // exactly when the factor is a prefix.
        self.spans[id.0 as usize].start == 0
    }

    #[inline]
    fn is_suffix(&self, id: FactorId) -> bool {
        self.word.has_suffix(self.bytes_of(id))
    }

    fn short_factor_ids(&self, max_len: usize) -> Vec<FactorId> {
        // The spans are (length, lex)-sorted, so the short factors are
        // exactly an id prefix.
        let cnt = self.spans.partition_point(|s| s.len as usize <= max_len);
        (0..cnt as u32).map(FactorId).collect()
    }

    fn memory_bytes(&self) -> usize {
        self.word.len()
            + self.spans.len() * std::mem::size_of::<Span>()
            + self.interner.slots.len() * 4
            + self.concat_table.len() * std::mem::size_of::<FactorId>()
    }

    #[inline]
    fn kind(&self) -> BackendKind {
        BackendKind::Dense
    }

    #[cfg(any(debug_assertions, test))]
    fn universe_len_recount(&self) -> usize {
        // Every factor occupies exactly one interner slot.
        self.interner.occupied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fc_words::factors_of;

    #[test]
    fn interner_probes_against_spans() {
        let b = DenseBackend::build(Word::from("abaab"));
        for f in factors_of(b"abaab") {
            let id = b.id_of(f.bytes()).expect("factor");
            assert_eq!(b.bytes_of(id), f.bytes(), "factor {f}");
        }
        assert_eq!(b.id_of(b"bb"), None);
        assert_eq!(b.id_of(b"abaabx"), None);
    }

    #[test]
    fn short_factor_prefix_matches_sorted_order() {
        let b = DenseBackend::build(Word::from("abaab"));
        for cap in 0..=6 {
            let ids = b.short_factor_ids(cap);
            assert!(ids.iter().all(|&id| b.len_of(id) <= cap));
            let expect = b.spans.iter().filter(|s| s.len as usize <= cap).count();
            assert_eq!(ids.len(), expect, "cap={cap}");
        }
    }
}
