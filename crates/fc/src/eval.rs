//! The FC / FC[REG] model checker (Definition 2.2 and §5).
//!
//! Quantifiers range over `Facs(w)` (never ⊥, per the paper's convention
//! `σ(x) ≠ ⊥`). Atoms `x ≐ y·z` hold when `(σx, σy, σz) ∈ R∘`; any ⊥
//! argument falsifies an atom. Regular constraints `(x ∈̇ γ)` hold when
//! `σ(x) ⊑ w` (automatic) and `σ(x) ∈ L(γ)`.
//!
//! [`holds`] and [`satisfying_assignments`] are thin wrappers over the
//! compiled pipeline in [`crate::plan`]: the formula is lowered once into
//! a [`crate::plan::Plan`] (slot frames, structurally deduplicated DFAs,
//! guard-directed quantifier blocks) and executed against the structure.
//! Callers evaluating one formula against many words should compile the
//! plan themselves — or use the windowed helpers in [`crate::language`],
//! which do — so the lowering cost is paid once per formula instead of
//! once per word.
//!
//! [`holds_naive`] is the *definitional reference*: a direct recursive
//! transcription of Definition 2.2 with plain `O(|Facs(w)|^{qr})`
//! quantifier enumeration and none of the plan's optimizations. It exists
//! so the differential tests (`tests/plan_diff.rs`, the proptests) can
//! check the compiled evaluator against something independently simple.
//! Its DFA cache is keyed by **structural** regex identity — the old
//! interpreter keyed by `Rc::as_ptr`, so structurally identical regexes
//! in cloned or independently built formulas compiled separate DFAs, and
//! a dropped/reallocated `Rc` could alias a stale key.

use crate::formula::{Formula, Term, VarName};
use crate::plan::Plan;
use crate::structure::{FactorId, FactorStructure};
use fc_reglang::{Dfa, Regex};
use std::collections::{BTreeMap, HashMap};
use std::rc::Rc;

/// A variable assignment σ (restricted to the variables of interest).
pub type Assignment = BTreeMap<VarName, FactorId>;

/// `(𝔄_w, σ) ⊨ φ`, via the compiled evaluator.
/// Free variables of `φ` must all be bound in `sigma`.
pub fn holds(formula: &Formula, structure: &FactorStructure, sigma: &Assignment) -> bool {
    Plan::compile(formula).eval(structure, sigma)
}

/// ⟦φ⟧(w): all assignments of the free variables of `φ` (to factors of `w`)
/// that satisfy the formula, in lexicographic order of the assignment.
pub fn satisfying_assignments(formula: &Formula, structure: &FactorStructure) -> Vec<Assignment> {
    Plan::compile(formula).satisfying_assignments(structure)
}

/// Reference semantics: a direct transcription of Definition 2.2 with
/// plain `O(|U|^{qr})` enumeration — no guard-directed blocks, no slot
/// frames, no plan. Used by differential tests and ablation benchmarks.
pub fn holds_naive(formula: &Formula, structure: &FactorStructure, sigma: &Assignment) -> bool {
    let ctx = NaiveCtx::new(formula, structure);
    let mut sigma = sigma.clone();
    ctx.eval(formula, &mut sigma)
}

struct NaiveCtx<'a> {
    structure: &'a FactorStructure,
    /// Compiled DFAs keyed by structural regex identity (the map hashes
    /// through the `Rc`).
    dfas: HashMap<Rc<Regex>, Dfa>,
}

impl<'a> NaiveCtx<'a> {
    fn new(formula: &Formula, structure: &'a FactorStructure) -> Self {
        let mut dfas = HashMap::new();
        for (_, regex) in formula.constraints() {
            dfas.entry(regex.clone())
                // `Regex::symbols()` is sorted and deduplicated; symbols of
                // `w` outside the regex's alphabet reject in `accepts`.
                .or_insert_with_key(|re| Dfa::from_regex(re, &re.symbols()));
        }
        NaiveCtx { structure, dfas }
    }

    fn resolve(&self, term: &Term, sigma: &Assignment) -> FactorId {
        match term {
            Term::Var(v) => *sigma
                .get(v)
                .unwrap_or_else(|| panic!("unbound variable {v} — not a sentence?")),
            Term::Sym(c) => self.structure.constant(*c),
            Term::Epsilon => self.structure.epsilon(),
        }
    }

    fn eval(&self, f: &Formula, sigma: &mut Assignment) -> bool {
        match f {
            Formula::Eq(x, y, z) => {
                let (a, b, c) = (
                    self.resolve(x, sigma),
                    self.resolve(y, sigma),
                    self.resolve(z, sigma),
                );
                self.structure.concat_holds(a, b, c)
            }
            Formula::EqChain(x, parts) => {
                let lhs = self.resolve(x, sigma);
                if lhs.is_bottom() {
                    return false;
                }
                let target = self.structure.bytes_of(lhs);
                let mut pos = 0usize;
                for p in parts {
                    let id = self.resolve(p, sigma);
                    if id.is_bottom() {
                        return false;
                    }
                    let chunk = self.structure.bytes_of(id);
                    if pos + chunk.len() > target.len() || &target[pos..pos + chunk.len()] != chunk
                    {
                        return false;
                    }
                    pos += chunk.len();
                }
                pos == target.len()
            }
            Formula::In(x, regex) => {
                let id = self.resolve(x, sigma);
                if id.is_bottom() {
                    return false;
                }
                self.dfas[regex].accepts(self.structure.bytes_of(id))
            }
            Formula::Not(inner) => !self.eval(inner, sigma),
            Formula::And(fs) => fs.iter().all(|g| self.eval(g, sigma)),
            Formula::Or(fs) => fs.iter().any(|g| self.eval(g, sigma)),
            Formula::Exists(v, inner) => {
                let saved = sigma.get(v).copied();
                let mut found = false;
                for u in self.structure.universe() {
                    sigma.insert(v.clone(), u);
                    if self.eval(inner, sigma) {
                        found = true;
                        break;
                    }
                }
                restore(sigma, v, saved);
                found
            }
            Formula::Forall(v, inner) => {
                let saved = sigma.get(v).copied();
                let mut all = true;
                for u in self.structure.universe() {
                    sigma.insert(v.clone(), u);
                    if !self.eval(inner, sigma) {
                        all = false;
                        break;
                    }
                }
                restore(sigma, v, saved);
                all
            }
        }
    }
}

fn restore(sigma: &mut Assignment, v: &VarName, saved: Option<FactorId>) {
    match saved {
        Some(old) => {
            sigma.insert(v.clone(), old);
        }
        None => {
            sigma.remove(v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::formula::Formula as F;
    use fc_words::Alphabet;

    fn v(name: &str) -> Term {
        Term::var(name)
    }

    fn structure(w: &str) -> FactorStructure {
        FactorStructure::of_str(w, &Alphabet::ab())
    }

    #[test]
    fn intro_example_no_cube() {
        // φ := ∀z: (¬(z ≐ ε) → ¬∃x,y: (x ≐ z·y) ∧ (y ≐ z·z))
        // defines words containing no uuu with u ≠ ε.
        let phi = F::forall(
            &["z"],
            F::implies(
                F::not(F::eq(v("z"), Term::Epsilon)),
                F::not(F::exists(
                    &["x", "y"],
                    F::and([
                        F::eq_cat(v("x"), v("z"), v("y")),
                        F::eq_cat(v("y"), v("z"), v("z")),
                    ]),
                )),
            ),
        );
        assert!(phi.models(&structure("abab")));
        assert!(phi.models(&structure("")));
        assert!(!phi.models(&structure("aaa")));
        assert!(!phi.models(&structure("bababab"))); // contains (ba)^3
    }

    #[test]
    fn exists_and_forall_range_over_factors_only() {
        // ∃x: ¬(x ≐ x·ε) is unsatisfiable (every factor equals itself·ε).
        let phi = F::exists(&["x"], F::not(F::eq_cat(v("x"), v("x"), Term::Epsilon)));
        assert!(!phi.models(&structure("ab")));
        // ∀x: (x ≐ x·ε) holds.
        let psi = F::forall(&["x"], F::eq_cat(v("x"), v("x"), Term::Epsilon));
        assert!(psi.models(&structure("ab")));
    }

    #[test]
    fn constants_map_to_bottom_when_absent() {
        // ∃x: (x ≐ b·ε) fails on a word without b.
        let phi = F::exists(&["x"], F::eq_cat(v("x"), Term::Sym(b'b'), Term::Epsilon));
        assert!(!phi.models(&structure("aaa")));
        assert!(phi.models(&structure("ab")));
    }

    #[test]
    fn wide_equation_matches_desugared_semantics() {
        let sigma = Alphabet::ab();
        let chain = F::exists(&["x"], F::eq_word(v("x"), b"aba"));
        let desugared = chain.desugar();
        for w in sigma.words_up_to(5) {
            let s = FactorStructure::new(w.clone(), &sigma);
            assert_eq!(chain.models(&s), desugared.models(&s), "w={w}");
            assert_eq!(
                chain.models(&s),
                fc_words::is_factor(b"aba", w.bytes()),
                "w={w}"
            );
        }
    }

    #[test]
    fn compiled_and_naive_agree_on_mixed_shapes() {
        let sigma = Alphabet::ab();
        // A grab-bag of shapes exercising guarded paths and fallbacks.
        let formulas = [
            F::exists(
                &["x", "y"],
                F::and([
                    F::eq_chain(v("x"), vec![v("y"), Term::Sym(b'a'), v("y")]),
                    F::not(F::eq(v("y"), Term::Epsilon)),
                ]),
            ),
            F::forall(
                &["x", "y"],
                F::implies(
                    F::eq_cat(v("x"), v("y"), v("y")),
                    F::eq(v("y"), Term::Epsilon),
                ),
            ),
            F::exists(
                &["x"],
                F::forall(
                    &["y"],
                    F::implies(F::eq_cat(v("x"), v("y"), v("y")), F::eq(v("y"), v("y"))),
                ),
            ),
            F::forall(
                &["z"],
                F::or([
                    F::not(F::eq_chain(
                        v("z"),
                        vec![Term::Sym(b'a'), v("z2"), Term::Sym(b'b')],
                    )),
                    F::eq(v("z2"), Term::Epsilon),
                ]),
            ),
        ];
        for (fi, phi) in formulas.iter().enumerate() {
            let free = phi.free_vars();
            for w in sigma.words_up_to(4) {
                let s = FactorStructure::new(w.clone(), &sigma);
                if free.is_empty() {
                    assert_eq!(
                        holds(phi, &s, &Assignment::new()),
                        holds_naive(phi, &s, &Assignment::new()),
                        "formula #{fi} w={w}"
                    );
                } else {
                    // Bind free vars to ε for a quick smoke comparison.
                    let mut m = Assignment::new();
                    for fv in &free {
                        m.insert(fv.clone(), s.epsilon());
                    }
                    assert_eq!(
                        holds(phi, &s, &m),
                        holds_naive(phi, &s, &m),
                        "formula #{fi} w={w}"
                    );
                }
            }
        }
    }

    #[test]
    fn quantified_blocks_with_shadowed_vars() {
        // ∀x ∀x: (x ≐ ε) — inner x shadows outer; only ε satisfies.
        let phi = F::forall(&["x", "x"], F::eq(v("x"), Term::Epsilon));
        assert!(!phi.models(&structure("a")));
        assert!(phi.models(&structure("")));
    }

    #[test]
    fn empty_chain_is_epsilon() {
        let phi = F::exists(&["x"], F::and([F::eq_chain(v("x"), vec![])]));
        assert!(phi.models(&structure("")));
        let phi2 = F::forall(&["x"], F::eq_chain(v("x"), vec![]));
        assert!(phi2.models(&structure("")));
        assert!(!phi2.models(&structure("a")));
    }

    #[test]
    fn regular_constraints() {
        use fc_reglang::Regex;
        let phi = F::exists(
            &["x"],
            F::and([F::constraint(v("x"), Regex::parse("(ab)+").unwrap())]),
        );
        assert!(phi.models(&structure("aabb")));
        assert!(!phi.models(&structure("bbaa")));
        assert!(phi.models(&structure("ab")));
        assert!(!phi.models(&structure("")));
    }

    #[test]
    fn satisfying_assignments_enumeration() {
        // φ(x, y) := (x ≐ y·y) on w = aa: pairs (ε,ε), (aa,a).
        let phi = F::eq_cat(v("x"), v("y"), v("y"));
        let s = structure("aa");
        let sols = satisfying_assignments(&phi, &s);
        assert_eq!(sols.len(), 2);
        let x: VarName = Rc::from("x");
        let y: VarName = Rc::from("y");
        let rendered: Vec<(String, String)> = sols
            .iter()
            .map(|m| (s.render(m[&x]), s.render(m[&y])))
            .collect();
        assert!(rendered.contains(&("ε".into(), "ε".into())));
        assert!(rendered.contains(&("aa".into(), "a".into())));
    }

    #[test]
    fn scoping_restores_outer_bindings() {
        let phi = F::and([
            F::exists(&["x"], F::eq(v("x"), Term::Sym(b'a'))),
            F::eq(v("x"), Term::Epsilon),
        ]);
        let s = structure("a");
        let sols = satisfying_assignments(&phi, &s);
        assert_eq!(sols.len(), 1);
        let x: VarName = Rc::from("x");
        assert_eq!(s.render(sols[0][&x]), "ε");
    }

    #[test]
    #[should_panic(expected = "unbound variable")]
    fn unbound_variable_panics() {
        let phi = F::eq(v("x"), Term::Epsilon);
        holds(&phi, &structure("a"), &Assignment::new());
    }

    #[test]
    #[should_panic(expected = "unbound variable")]
    fn unbound_variable_panics_naive() {
        let phi = F::eq(v("x"), Term::Epsilon);
        holds_naive(&phi, &structure("a"), &Assignment::new());
    }
}
