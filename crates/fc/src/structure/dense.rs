//! The dense table backend: interned factor vector + Θ(m²) concat table.
//!
//! This is the original `FactorStructure` representation, kept as the
//! fastest backend for small words (every probe is a single array read).
//! Two things changed relative to the pre-backend code:
//!
//! - the `HashMap<Word, FactorId>` index — which duplicated every factor's
//!   bytes as an owned key — is replaced by [`FactorInterner`], an
//!   open-addressing table of bare ids probed against the factor vector
//!   itself, so each factor's bytes are stored exactly once;
//! - the probe methods are `#[inline]` so the solver's 3m²+3m+1 atom loop
//!   (`partial_iso::extension_ok`) inlines the table reads.

use super::{BackendKind, FactorBackend, FactorId};
use fc_words::{factors_of, Word};

/// FNV-1a over a byte slice (the interner's probe hash).
#[inline]
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

const EMPTY: u32 = u32::MAX;

/// Open-addressing byte-slice → id table. Slots hold ids only; probes
/// compare against the backend's factor vector, so no key bytes are
/// duplicated (the old `HashMap<Word, _>` cloned every factor).
#[derive(Clone, Debug)]
struct FactorInterner {
    mask: usize,
    slots: Vec<u32>,
}

impl FactorInterner {
    /// Builds the table over distinct, already-deduplicated `factors`.
    fn build(factors: &[Word]) -> FactorInterner {
        let cap = (factors.len() * 2).next_power_of_two().max(8);
        let mask = cap - 1;
        let mut slots = vec![EMPTY; cap];
        for (i, f) in factors.iter().enumerate() {
            let mut pos = fnv1a(f.bytes()) as usize & mask;
            while slots[pos] != EMPTY {
                pos = (pos + 1) & mask;
            }
            slots[pos] = i as u32;
        }
        FactorInterner { mask, slots }
    }

    /// Looks up the id of `u`, comparing candidate slots against
    /// `factors`. Allocation-free.
    #[inline]
    fn get(&self, factors: &[Word], u: &[u8]) -> Option<FactorId> {
        let mut pos = fnv1a(u) as usize & self.mask;
        loop {
            let slot = self.slots[pos];
            if slot == EMPTY {
                return None;
            }
            if factors[slot as usize].bytes() == u {
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
    /// Interned distinct factors, sorted by (length, lex); `factors[0] = ε`.
    factors: Vec<Word>,
    interner: FactorInterner,
    /// `concat_table[b·m + c]` is the id of `b · c`, or ⊥ when the
    /// concatenation is not a factor of `w`. Filled at build time by
    /// indexing every factor's length-splits, so `R∘` membership and
    /// `concat_id` are O(1) array lookups.
    concat_table: Vec<FactorId>,
}

impl DenseBackend {
    /// The borrowed concat-table oracle for once-per-loop dispatch.
    pub(super) fn concat_view(&self) -> super::DenseConcatView<'_> {
        super::DenseConcatView {
            table: &self.concat_table,
            m: self.factors.len(),
        }
    }

    /// Builds the dense tables for `word`.
    pub fn build(word: Word) -> DenseBackend {
        let factors = factors_of(word.bytes());
        let m = factors.len();
        let interner = FactorInterner::build(&factors);
        // Every split u = u[..i] · u[i..] of a factor u has factor halves,
        // so one pass over all (factor, split point) pairs enumerates R∘
        // exactly: concat_table[b·m + c] = a ⟺ (a, b, c) ∈ R∘.
        let mut concat_table = vec![FactorId::BOTTOM; m * m];
        for (a, f) in factors.iter().enumerate() {
            let bytes = f.bytes();
            for split in 0..=bytes.len() {
                let b = interner.get(&factors, &bytes[..split]).expect("prefix ⊑ w");
                let c = interner.get(&factors, &bytes[split..]).expect("suffix ⊑ w");
                concat_table[b.0 as usize * m + c.0 as usize] = FactorId(a as u32);
            }
        }
        DenseBackend {
            word,
            factors,
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
        self.factors.len()
    }

    #[inline]
    fn id_of(&self, u: &[u8]) -> Option<FactorId> {
        self.interner.get(&self.factors, u)
    }

    #[inline]
    fn bytes_of(&self, id: FactorId) -> &[u8] {
        self.factors[id.0 as usize].bytes()
    }

    #[inline]
    fn len_of(&self, id: FactorId) -> usize {
        self.factors[id.0 as usize].len()
    }

    #[inline]
    fn concat_id(&self, b: FactorId, c: FactorId) -> Option<FactorId> {
        let m = self.factors.len();
        let id = self.concat_table[b.0 as usize * m + c.0 as usize];
        if id.is_bottom() {
            None
        } else {
            Some(id)
        }
    }

    #[inline]
    fn concat_holds(&self, a: FactorId, b: FactorId, c: FactorId) -> bool {
        let m = self.factors.len();
        self.concat_table[b.0 as usize * m + c.0 as usize] == a
    }

    #[inline]
    fn is_prefix(&self, id: FactorId) -> bool {
        self.word.has_prefix(self.bytes_of(id))
    }

    #[inline]
    fn is_suffix(&self, id: FactorId) -> bool {
        self.word.has_suffix(self.bytes_of(id))
    }

    fn short_factor_ids(&self, max_len: usize) -> Vec<FactorId> {
        // The factor vector is (length, lex)-sorted, so the short factors
        // are exactly an id prefix.
        let cnt = self.factors.partition_point(|f| f.len() <= max_len);
        (0..cnt as u32).map(FactorId).collect()
    }

    fn memory_bytes(&self) -> usize {
        let factor_bytes: usize = self
            .factors
            .iter()
            .map(|f| f.len() + std::mem::size_of::<Word>())
            .sum();
        factor_bytes
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

    #[test]
    fn interner_probes_without_duplicating_keys() {
        let factors = factors_of(b"abaab");
        let interner = FactorInterner::build(&factors);
        for (i, f) in factors.iter().enumerate() {
            assert_eq!(
                interner.get(&factors, f.bytes()),
                Some(FactorId(i as u32)),
                "factor {f}"
            );
        }
        assert_eq!(interner.get(&factors, b"bb"), None);
        assert_eq!(interner.get(&factors, b"abaabx"), None);
    }

    #[test]
    fn short_factor_prefix_matches_sorted_order() {
        let b = DenseBackend::build(Word::from("abaab"));
        for cap in 0..=6 {
            let ids = b.short_factor_ids(cap);
            assert!(ids.iter().all(|&id| b.len_of(id) <= cap));
            let expect = b.factors.iter().filter(|f| f.len() <= cap).count();
            assert_eq!(ids.len(), expect, "cap={cap}");
        }
    }
}
