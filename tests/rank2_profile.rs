//! The rank-2 type profile against its pairwise definition.
//!
//! `fingerprint::rank2_type_profile` probes, for each first move `x`, only
//! the few second moves that can share an atom with `x`, and accounts for
//! every other second move by its one-move mask alone. This suite keeps
//! the definitional computation — every pair `(x, y) ∈ (U ∪ {⊥})²`,
//! every atom over `{x, y} ∪ constants` — as a local reference and asserts
//! the same `u64` on both structure backends for: every word of
//! {a,b}^{≤8} and {a,b,c}^{≤5}, the unary words a⁰…a⁴⁰, 200 seeded
//! random words of ≤ 24 letters in a 4-letter Σ, and the fooling-search
//! shapes `w₁·uᵖ·w₂·vᵠ·w₃` with p, q ≤ 14. The reference costs |U|² pair
//! folds, so a debug build checks every fourth random word and a sample
//! of the exponents; `scripts/check.sh` runs the whole grid in release.

use fc_suite::games::fingerprint::rank2_type_profile;
use fc_suite::logic::{BackendKind, FactorId, FactorStructure};
use fc_suite::words::{Alphabet, Word};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv_u64(mut h: u64, x: u64) -> u64 {
    for byte in x.to_le_bytes() {
        h ^= u64::from(byte);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// The profile by definition: the code of every pair of moves. Elements
/// are numbered by row, ids first and ⊥ last; `concat[b·n + c]` is the row
/// of `b·c`, or ⊥'s row, so `a = b·c` holds iff `a` is not ⊥ and
/// `concat[b·n + c] == a`.
fn pairwise_profile(s: &FactorStructure) -> u64 {
    let elems: Vec<FactorId> = s.universe().chain([FactorId::BOTTOM]).collect();
    let n = elems.len();
    let bottom = n - 1;
    let row = |e: Option<FactorId>| match e {
        Some(e) if !e.is_bottom() => e.0 as usize,
        _ => bottom,
    };
    let concat: Vec<usize> = elems
        .iter()
        .flat_map(|&b| elems.iter().map(move |&c| s.concat_id(b, c)))
        .map(row)
        .collect();
    // Terms: 0 = x, 1 = y, then the constants.
    let mut terms: Vec<usize> = vec![0, 0];
    terms.extend(s.constants_vector().into_iter().map(|c| row(Some(c))));
    let nterms = terms.len();
    let (mut tri_x, mut tri_y, mut tri_xy) = (Vec::new(), Vec::new(), Vec::new());
    for l in 0..nterms {
        for i in 0..nterms {
            for j in 0..nterms {
                let t = [l, i, j];
                match (t.contains(&0), t.contains(&1)) {
                    (true, false) => tri_x.push(t),
                    (false, true) => tri_y.push(t),
                    (true, true) => tri_xy.push(t),
                    (false, false) => {}
                }
            }
        }
    }
    // Folds the truth bits of `tris`, 64 bits per FNV step.
    let fold = |terms: &[usize], tris: &[[usize; 3]]| {
        let (mut h, mut bits, mut nbits) = (FNV_OFFSET, 0u64, 0u32);
        for &[l, i, j] in tris {
            let holds = terms[l] != bottom && concat[terms[i] * n + terms[j]] == terms[l];
            bits = (bits << 1) | u64::from(holds);
            nbits += 1;
            if nbits == 64 {
                h = fnv_u64(h, bits);
                bits = 0;
                nbits = 0;
            }
        }
        fnv_u64(h, bits ^ u64::from(nbits))
    };
    let (mut mask_x, mut mask_y) = (Vec::new(), Vec::new());
    for e in 0..n {
        terms[0] = e;
        terms[1] = e;
        mask_x.push(fold(&terms, &tri_x));
        mask_y.push(fold(&terms, &tri_y));
    }
    let mut types: Vec<u64> = (0..n)
        .map(|x| {
            terms[0] = x;
            let mut codes: Vec<u64> = (0..n)
                .map(|y| {
                    terms[1] = y;
                    let h = fnv_u64(FNV_OFFSET, u64::from(x == y));
                    let h = fnv_u64(fnv_u64(h, mask_x[x]), mask_y[y]);
                    fnv_u64(h, fold(&terms, &tri_xy))
                })
                .collect();
            codes.sort_unstable();
            codes.dedup();
            codes
                .into_iter()
                .fold(fnv_u64(FNV_OFFSET, mask_x[x]), fnv_u64)
        })
        .collect();
    types.sort_unstable();
    types.dedup();
    types.into_iter().fold(FNV_OFFSET, fnv_u64)
}

/// The profile is a value of the word and Σ alone, so one reference (on
/// the dense backend) serves both backends.
fn assert_profiles_agree(w: &Word, sigma: &Alphabet) {
    let want = pairwise_profile(&FactorStructure::with_backend(
        w.clone(),
        sigma,
        BackendKind::Dense,
    ));
    for kind in [BackendKind::Dense, BackendKind::Succinct] {
        let s = FactorStructure::with_backend(w.clone(), sigma, kind);
        assert_eq!(
            rank2_type_profile(&s),
            want,
            "w={w} Σ={:?} backend={kind}",
            sigma.symbols()
        );
    }
}

#[test]
fn every_short_word_matches_the_pairwise_profile() {
    let ab = Alphabet::ab();
    for w in ab.words_up_to(8) {
        assert_profiles_agree(&w, &ab);
    }
    let abc = Alphabet::abc();
    for w in abc.words_up_to(5) {
        assert_profiles_agree(&w, &abc);
    }
    let unary = Alphabet::unary();
    for n in 0..=40 {
        assert_profiles_agree(&Word::from("a".repeat(n).as_str()), &unary);
    }
}

#[test]
fn seeded_random_words_in_a_padded_alphabet_match_the_pairwise_profile() {
    // Σ = {a, b, c, d}, words over its first 2–4 letters: the absent
    // letters are ⊥ constants.
    let sigma = Alphabet::from_symbols(b"abcd");
    let mut seed = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = |bound: usize| {
        seed = seed
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (seed >> 33) as usize % bound
    };
    // The pairwise reference is |U|² pair folds; a debug build checks
    // every fourth word.
    let stride = if cfg!(debug_assertions) { 4 } else { 1 };
    for n in 0..200 {
        let letters = 2 + next(3);
        let len = next(25);
        let bytes: Vec<u8> = (0..len).map(|_| b"abcd"[next(letters)]).collect();
        if n % stride == 0 {
            assert_profiles_agree(&Word::from(bytes.as_slice()), &sigma);
        }
    }
}

#[test]
fn fooling_search_shapes_match_the_pairwise_profile() {
    // The blocks (w₁, u, w₂, v, w₃) of the rank-1 and rank-2 fooling
    // searches the equiv_batch benchmark runs.
    let shapes: [[&str; 5]; 8] = [
        ["", "a", "", "b", ""],
        ["b", "a", "", "b", ""],
        ["", "a", "b", "b", ""],
        ["", "ab", "", "b", ""],
        ["", "a", "", "ba", ""],
        ["", "aab", "", "b", ""],
        ["a", "ab", "", "b", "a"],
        ["", "a", "bb", "b", ""],
    ];
    // A debug build checks the exponents {0, 1, 2, 5, 14} with p + q ≤ 16.
    let checked = |p: usize, q: usize| {
        !cfg!(debug_assertions)
            || ([0, 1, 2, 5, 14].contains(&p) && [0, 1, 2, 5, 14].contains(&q) && p + q <= 16)
    };
    let ab = Alphabet::ab();
    for [w1, u, w2, v, w3] in shapes {
        for p in 0..=14 {
            for q in (0..=14).filter(|&q| checked(p, q)) {
                let w = format!("{w1}{}{w2}{}{w3}", u.repeat(p), v.repeat(q));
                assert_profiles_agree(&Word::from(w.as_str()), &ab);
            }
        }
    }
}
