//! The dense backend's build against the byte-level definitions.
//!
//! `DenseBackend::build` assigns ids by per-length rank refinement and
//! fills the concat table from its position→id table, without hashing a
//! factor or allocating one. This suite pins that build to the
//! definitional references: the ids enumerate `fc_words::factors_of(w)`
//! in its (length, lex) order, `id_of` inverts `bytes_of`, `concat_id`
//! agrees with `id_of` of the concatenated bytes, and the prefix/suffix
//! flags agree with the bytes. It covers every word over {a, b, c} of
//! length ≤ 6 and 300 seeded random words of length ≤ 64 over 2–4
//! letters.

use fc_suite::logic::{BackendKind, FactorId, FactorStructure};
use fc_suite::words::{factors_of, Alphabet, Word};

/// Longest word whose concat table is checked pair by pair.
const PAIR_CHECK_MAX_LEN: usize = 24;

fn check(w: &Word) {
    let s = FactorStructure::with_backend(w.clone(), &Alphabet::abc(), BackendKind::Dense);
    let ids: Vec<FactorId> = s.universe().collect();
    let want = factors_of(w.bytes());
    assert_eq!(ids.len(), want.len(), "w={w}: universe size");
    for (&id, f) in ids.iter().zip(&want) {
        assert_eq!(s.bytes_of(id), f.bytes(), "w={w}: id {} out of order", id.0);
        assert_eq!(s.len_of(id), f.len(), "w={w} f={f}");
        assert_eq!(s.id_of(f.bytes()), Some(id), "w={w} f={f}: id_of");
        assert_eq!(s.is_prefix(id), w.has_prefix(f.bytes()), "w={w} f={f}");
        assert_eq!(s.is_suffix(id), w.has_suffix(f.bytes()), "w={w} f={f}");
    }
    if w.len() > PAIR_CHECK_MAX_LEN {
        return;
    }
    let mut bc = Vec::with_capacity(2 * w.len());
    for &b in &ids {
        for &c in &ids {
            bc.clear();
            bc.extend_from_slice(s.bytes_of(b));
            bc.extend_from_slice(s.bytes_of(c));
            assert_eq!(
                s.concat_id(b, c),
                s.id_of(&bc),
                "w={w} b={:?} c={:?}",
                s.render(b),
                s.render(c)
            );
        }
    }
}

#[test]
fn every_short_word_over_abc_matches_the_definitions() {
    let mut words = vec![Word::epsilon()];
    let mut layer = vec![Vec::new()];
    for _ in 0..6 {
        layer = layer
            .iter()
            .flat_map(|w: &Vec<u8>| {
                b"abc".iter().map(move |&c| {
                    let mut v = w.clone();
                    v.push(c);
                    v
                })
            })
            .collect();
        words.extend(layer.iter().map(|v| Word::from(v.as_slice())));
    }
    assert_eq!(words.len(), 1093);
    for w in &words {
        check(w);
    }
}

#[test]
fn seeded_random_words_match_the_definitions() {
    let mut seed = 0x2545_f491_4f6c_dd1du64;
    let mut next = |bound: usize| {
        seed = seed
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (seed >> 33) as usize % bound
    };
    for _ in 0..300 {
        let letters = 2 + next(3);
        let len = next(65);
        let bytes: Vec<u8> = (0..len).map(|_| b"abcd"[next(letters)]).collect();
        check(&Word::from(bytes.as_slice()));
    }
}
