//! Factors (contiguous infixes) of a word, and a suffix-automaton index.
//!
//! The universe of the paper's factor structure 𝔄_w is
//! `Facs(w) = { u : u ⊑ w }` (plus ⊥). This module provides:
//!
//! - [`is_factor`] — the relation `u ⊑ w`;
//! - [`factors_of`] / [`factor_set`] — enumeration of the *distinct* factors;
//! - [`FactorIndex`] — a suffix automaton over `w`, giving `O(|u|)` factor
//!   membership, `O(|w|)` distinct-factor counting, and factor enumeration
//!   without materialising duplicate occurrences.
//!
//! The suffix automaton is the classic online construction (Blumer et al.);
//! its states correspond to equivalence classes of right extensions, and the
//! number of distinct factors of `w` equals `Σ_v (len(v) − len(link(v)))`.
//! It is the workspace's only one: fc-logic's succinct factor-structure
//! backend freezes [`FactorIndex::states`] into packed arrays.

use crate::search;
use crate::word::Word;
use std::collections::HashSet;

/// `true` iff `u ⊑ w` (u is a contiguous factor of w).
///
/// ε is a factor of every word.
#[inline]
pub fn is_factor(u: &[u8], w: &[u8]) -> bool {
    search::contains(w, u)
}

/// `true` iff `u ⊏ w` (a factor with `u ≠ w`).
#[inline]
pub fn is_strict_factor(u: &[u8], w: &[u8]) -> bool {
    u != w && is_factor(u, w)
}

/// The set of distinct factors of `w`, including ε and `w` itself.
pub fn factor_set(w: &[u8]) -> HashSet<Word> {
    let mut set = HashSet::with_capacity(w.len() * (w.len() + 1) / 2 + 1);
    set.insert(Word::epsilon());
    for i in 0..w.len() {
        for j in i + 1..=w.len() {
            set.insert(Word::from(&w[i..j]));
        }
    }
    set
}

/// The distinct factors of `w`, sorted by (length, lexicographic).
///
/// This is the reference for the id order of fc-logic's dense factor
/// structure: its ids enumerate exactly this vector, ε at id 0.
pub fn factors_of(w: &[u8]) -> Vec<Word> {
    let mut v: Vec<Word> = factor_set(w).into_iter().collect();
    v.sort_by(|a, b| (a.len(), a.bytes()).cmp(&(b.len(), b.bytes())));
    v
}

/// The intersection `Facs(u) ∩ Facs(v)` as a sorted vector.
pub fn common_factors(u: &[u8], v: &[u8]) -> Vec<Word> {
    let fu = factor_set(u);
    let fv = factor_set(v);
    let mut out: Vec<Word> = fu.intersection(&fv).cloned().collect();
    out.sort_by(|a, b| (a.len(), a.bytes()).cmp(&(b.len(), b.bytes())));
    out
}

/// The length of the longest word in `Facs(u) ∩ Facs(v)` — the `r` of the
/// Pseudo-Congruence Lemma (Lemma 4.4).
pub fn max_common_factor_len(u: &[u8], v: &[u8]) -> usize {
    // The longest common factor; dynamic programming over suffix matches.
    // ε is always common, so the result is ≥ 0 and well defined.
    let (n, m) = (u.len(), v.len());
    if n == 0 || m == 0 {
        return 0;
    }
    let mut best = 0usize;
    let mut prev = vec![0usize; m + 1];
    let mut cur = vec![0usize; m + 1];
    for i in 1..=n {
        for j in 1..=m {
            cur[j] = if u[i - 1] == v[j - 1] {
                prev[j - 1] + 1
            } else {
                0
            };
            best = best.max(cur[j]);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    best
}

/// One state of a [`FactorIndex`] automaton, as the online construction
/// leaves it. Its class holds the suffixes of its longest string with
/// lengths in `(len(link), len]`, all sharing one end-position set.
#[derive(Clone, Debug)]
pub struct SamState {
    /// Length of the longest string in the class.
    pub len: u32,
    /// Suffix link (`-1` for the root).
    pub link: i32,
    /// End position of the occurrence that created the state: `i + 1` for
    /// the state added on reading `w[i]`, 0 for the root (ε ends at 0),
    /// `u32::MAX` for clones. The minimum over a state's suffix-link
    /// subtree is `min(endpos)`.
    pub first_end: u32,
    /// Outgoing transitions `(symbol, target)`, in insertion order.
    pub next: Vec<(u8, u32)>,
}

impl SamState {
    fn step(&self, c: u8) -> Option<u32> {
        self.next.iter().find(|t| t.0 == c).map(|t| t.1)
    }
}

/// A suffix automaton over a fixed word `w`: the minimal DFA of the set of
/// suffixes of `w`, doubling as an index of all factors. States are
/// numbered in creation order, root first.
///
/// # Examples
///
/// ```
/// use fc_words::FactorIndex;
/// let idx = FactorIndex::build(b"abaab");
/// assert!(idx.contains(b"aab"));
/// assert!(!idx.contains(b"bb"));
/// // "abaab" has 11 distinct non-empty factors.
/// assert_eq!(idx.distinct_factors(), 11);
/// ```
#[derive(Clone, Debug)]
pub struct FactorIndex {
    states: Vec<SamState>,
    /// The state of `w` itself.
    last: usize,
}

impl FactorIndex {
    /// Builds the suffix automaton of `w` in O(|w|·|Σ|).
    ///
    /// # Panics
    /// Panics if `|w| ≥ 2³¹`: the ≤ 2|w| states are numbered in `u32`.
    pub fn build(w: &[u8]) -> Self {
        assert!(w.len() < 1 << 31, "FactorIndex: |w| = {} ≥ 2³¹", w.len());
        let mut st: Vec<SamState> = Vec::with_capacity(2 * w.len() + 1);
        st.push(SamState {
            len: 0,
            link: -1,
            first_end: 0,
            next: Vec::new(),
        });
        let mut last = 0usize;
        for (pos, &ch) in w.iter().enumerate() {
            let cur = st.len();
            st.push(SamState {
                len: st[last].len + 1,
                link: -1,
                first_end: (pos + 1) as u32,
                next: Vec::new(),
            });
            let mut p = last as i32;
            loop {
                if p < 0 {
                    st[cur].link = 0;
                    break;
                }
                let pu = p as usize;
                if let Some(q) = st[pu].step(ch) {
                    let q = q as usize;
                    if st[q].len == st[pu].len + 1 {
                        st[cur].link = q as i32;
                    } else {
                        // Split: clone q at length len(p)+1.
                        let clone = st.len();
                        st.push(SamState {
                            len: st[pu].len + 1,
                            link: st[q].link,
                            first_end: u32::MAX,
                            next: st[q].next.clone(),
                        });
                        st[q].link = clone as i32;
                        st[cur].link = clone as i32;
                        let mut r = p;
                        while r >= 0 {
                            let ru = r as usize;
                            match st[ru].next.iter_mut().find(|t| t.0 == ch) {
                                Some(t) if t.1 as usize == q => t.1 = clone as u32,
                                _ => break,
                            }
                            r = st[ru].link;
                        }
                    }
                    break;
                }
                st[pu].next.push((ch, cur as u32));
                p = st[pu].link;
            }
            last = cur;
        }
        FactorIndex { states: st, last }
    }

    /// The automaton's states, root first, in creation order.
    #[inline]
    pub fn states(&self) -> &[SamState] {
        &self.states
    }

    /// The state of the whole word: its suffix-link chain is exactly the
    /// classes of the suffixes of `w`.
    #[inline]
    pub fn last(&self) -> usize {
        self.last
    }

    /// Length of the indexed word.
    #[inline]
    pub fn word_len(&self) -> usize {
        self.states[self.last].len as usize
    }

    /// `O(|u|)` membership test: `u ⊑ w`?
    pub fn contains(&self, u: &[u8]) -> bool {
        let mut s = 0usize;
        for &c in u {
            match self.states[s].step(c) {
                Some(t) => s = t as usize,
                None => return false,
            }
        }
        true
    }

    /// Number of distinct *non-empty* factors of `w`.
    pub fn distinct_factors(&self) -> usize {
        self.states
            .iter()
            .skip(1)
            .map(|st| (st.len - self.states[st.link as usize].len) as usize)
            .sum()
    }

    /// Number of elements of the factor-structure universe `Facs(w) ∪ {⊥}`:
    /// distinct factors including ε, plus ⊥.
    pub fn universe_size(&self) -> usize {
        self.distinct_factors() + 2
    }

    /// Enumerates all distinct factors (including ε) by DFS over the
    /// automaton, in (length-agnostic) DFS order. Output size is the number
    /// of distinct factors; no duplicates are produced.
    pub fn enumerate(&self) -> Vec<Word> {
        let mut out = Vec::with_capacity(self.distinct_factors() + 1);
        let mut path = Vec::new();
        self.dfs(0, &mut path, &mut out);
        out
    }

    fn dfs(&self, s: usize, path: &mut Vec<u8>, out: &mut Vec<Word>) {
        out.push(Word::from(path.as_slice()));
        for &(c, t) in &self.states[s].next {
            path.push(c);
            self.dfs(t as usize, path, out);
            path.pop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epsilon_is_factor_of_everything() {
        assert!(is_factor(b"", b""));
        assert!(is_factor(b"", b"abc"));
        assert!(!is_strict_factor(b"", b""));
        assert!(is_strict_factor(b"", b"a"));
    }

    #[test]
    fn factor_relation() {
        assert!(is_factor(b"ba", b"abab"));
        assert!(!is_factor(b"bb", b"abab"));
        assert!(is_factor(b"abab", b"abab"));
        assert!(!is_strict_factor(b"abab", b"abab"));
    }

    #[test]
    fn factor_set_counts() {
        // |Facs(a^n)| = n + 1.
        for n in 0..6 {
            let w = Word::from("a").pow(n);
            assert_eq!(factor_set(w.bytes()).len(), n + 1);
        }
        // "ab": ε, a, b, ab.
        assert_eq!(factor_set(b"ab").len(), 4);
        // "aba": ε, a, b, ab, ba, aba.
        assert_eq!(factor_set(b"aba").len(), 6);
    }

    #[test]
    fn factors_sorted_by_length() {
        let f = factors_of(b"aba");
        assert_eq!(f[0], Word::epsilon());
        assert!(f.windows(2).all(|p| p[0].len() <= p[1].len()));
        assert_eq!(f.len(), 6);
    }

    #[test]
    fn common_factor_basics() {
        // Facs(a^m) ∩ Facs((ba)^n) = {ε, a}  (Prop 4.6's r = 1 case).
        let c = common_factors(b"aaaa", b"bababa");
        let names: Vec<&str> = c.iter().map(|w| w.as_str()).collect();
        assert_eq!(names, vec!["", "a"]);
        assert_eq!(max_common_factor_len(b"aaaa", b"bababa"), 1);
        // Facs(a^n) ∩ Facs(b^m) = {ε}  (Example 4.5's r = 0 case).
        assert_eq!(max_common_factor_len(b"aaa", b"bb"), 0);
        // Example 4.15 L6: Facs(a^i b^j) ∩ Facs((ab)^l) = {ε, a, b, ab}, r = 2.
        assert_eq!(max_common_factor_len(b"aaabbb", b"abababab"), 2);
    }

    #[test]
    fn suffix_automaton_membership_matches_naive() {
        let words = ["", "a", "ab", "abaab", "aabbaabb", "abcabcab"];
        for w in words {
            let idx = FactorIndex::build(w.as_bytes());
            let facs = factor_set(w.as_bytes());
            // every factor is found
            for f in &facs {
                assert!(idx.contains(f.bytes()), "w={w} f={f}");
            }
            // some non-factors are rejected
            for probe in ["ba", "cc", "aaa", "abc", "bb"] {
                assert_eq!(
                    idx.contains(probe.as_bytes()),
                    facs.contains(&Word::from(probe)),
                    "w={w} probe={probe}"
                );
            }
        }
    }

    #[test]
    fn distinct_factor_count_matches_naive() {
        let words = ["", "a", "aa", "ab", "abaab", "aabbaabb", "abcba"];
        for w in words {
            let idx = FactorIndex::build(w.as_bytes());
            let naive = factor_set(w.as_bytes()).len() - 1; // minus ε
            assert_eq!(idx.distinct_factors(), naive, "w={w}");
        }
    }

    #[test]
    fn enumeration_matches_factor_set() {
        for w in ["", "a", "abaab", "aabb"] {
            let idx = FactorIndex::build(w.as_bytes());
            let mut got: Vec<Word> = idx.enumerate();
            got.sort_by(|a, b| (a.len(), a.bytes()).cmp(&(b.len(), b.bytes())));
            let want = factors_of(w.as_bytes());
            assert_eq!(got, want, "w={w}");
        }
    }

    #[test]
    fn universe_size_counts_bottom_and_epsilon() {
        let idx = FactorIndex::build(b"ab");
        // factors: ε, a, b, ab → plus ⊥ = 5.
        assert_eq!(idx.universe_size(), 5);
    }
}
