//! Property tests for the FC logic: random formulas on random structures,
//! guarded-vs-naive evaluator agreement, desugaring soundness, and
//! semantic laws.

use fc_logic::eval::{holds, holds_naive, satisfying_assignments, Assignment};
use fc_logic::{FactorStructure, Formula, Plan, Term};
use fc_reglang::Regex;
use fc_words::{Alphabet, Word};
use proptest::prelude::*;
use std::rc::Rc;

fn word(max_len: usize) -> impl Strategy<Value = Word> {
    prop::collection::vec(prop::sample::select(vec![b'a', b'b']), 0..=max_len)
        .prop_map(Word::from_bytes)
}

const VARS: [&str; 3] = ["x", "y", "z"];

fn term() -> impl Strategy<Value = Term> {
    prop_oneof![
        prop::sample::select(VARS.to_vec()).prop_map(Term::var),
        Just(Term::Sym(b'a')),
        Just(Term::Sym(b'b')),
        Just(Term::Epsilon),
    ]
}

/// Random quantified formulas over variables x, y, z (all eventually
/// bound by the harness before evaluation).
fn formula() -> impl Strategy<Value = Formula> {
    let atom = prop_oneof![
        (term(), term(), term()).prop_map(|(a, b, c)| Formula::Eq(a, b, c)),
        (term(), prop::collection::vec(term(), 0..4)).prop_map(|(l, ps)| Formula::EqChain(l, ps)),
    ];
    atom.prop_recursive(3, 16, 3, |inner| {
        prop_oneof![
            inner.clone().prop_map(|f| Formula::Not(Box::new(f))),
            prop::collection::vec(inner.clone(), 0..3).prop_map(Formula::And),
            prop::collection::vec(inner.clone(), 0..3).prop_map(Formula::Or),
            (prop::sample::select(VARS.to_vec()), inner.clone())
                .prop_map(|(v, f)| Formula::Exists(std::rc::Rc::from(v), Box::new(f))),
            (prop::sample::select(VARS.to_vec()), inner)
                .prop_map(|(v, f)| Formula::Forall(std::rc::Rc::from(v), Box::new(f))),
        ]
    })
}

/// Random regular expressions over {a, b}, small enough that DFA
/// construction stays cheap but deep enough to exercise ε/∅ smart
/// constructors, unions with repeated subterms (dedup bait), and stars.
fn regex() -> impl Strategy<Value = Rc<Regex>> {
    let leaf = prop_oneof![
        Just(Regex::sym(b'a')),
        Just(Regex::sym(b'b')),
        Just(Regex::epsilon()),
        Just(Regex::empty()),
    ];
    leaf.prop_recursive(3, 12, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(l, r)| Regex::concat(l, r)),
            (inner.clone(), inner.clone()).prop_map(|(l, r)| Regex::union(l, r)),
            inner.prop_map(Regex::star),
        ]
    })
}

/// Like [`formula`], but with regular constraints `(t ∈̇ γ)` in the atom
/// pool — the FC[REG] fragment the compiled plan caches DFAs for.
fn formula_reg() -> impl Strategy<Value = Formula> {
    let atom = prop_oneof![
        (term(), term(), term()).prop_map(|(a, b, c)| Formula::Eq(a, b, c)),
        (term(), prop::collection::vec(term(), 0..4)).prop_map(|(l, ps)| Formula::EqChain(l, ps)),
        (term(), regex()).prop_map(|(t, g)| Formula::In(t, g)),
    ];
    atom.prop_recursive(3, 16, 3, |inner| {
        prop_oneof![
            inner.clone().prop_map(|f| Formula::Not(Box::new(f))),
            prop::collection::vec(inner.clone(), 0..3).prop_map(Formula::And),
            prop::collection::vec(inner.clone(), 0..3).prop_map(Formula::Or),
            (prop::sample::select(VARS.to_vec()), inner.clone())
                .prop_map(|(v, f)| Formula::Exists(std::rc::Rc::from(v), Box::new(f))),
            (prop::sample::select(VARS.to_vec()), inner)
                .prop_map(|(v, f)| Formula::Forall(std::rc::Rc::from(v), Box::new(f))),
        ]
    })
}

/// Closes a formula into a sentence by existentially quantifying every
/// free variable.
fn to_sentence(phi: &Formula) -> Formula {
    phi.free_vars()
        .into_iter()
        .fold(phi.clone(), |acc, v| Formula::Exists(v, Box::new(acc)))
}

/// Closes a formula by binding all free variables to ε in the assignment.
fn close(phi: &Formula, s: &FactorStructure) -> Assignment {
    let mut m = Assignment::new();
    for v in phi.free_vars() {
        m.insert(v, s.epsilon());
    }
    m
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn guarded_and_naive_agree(phi in formula(), w in word(4)) {
        let s = FactorStructure::new(w.clone(), &Alphabet::ab());
        let m = close(&phi, &s);
        prop_assert_eq!(
            holds(&phi, &s, &m),
            holds_naive(&phi, &s, &m),
            "phi={} w={}", phi, w
        );
    }

    #[test]
    fn desugaring_preserves_semantics(phi in formula(), w in word(4)) {
        let s = FactorStructure::new(w.clone(), &Alphabet::ab());
        let m = close(&phi, &s);
        let desugared = phi.desugar();
        // Desugaring introduces only fresh bound variables, so the same
        // closing assignment applies.
        prop_assert_eq!(
            holds(&phi, &s, &m),
            holds(&desugared, &s, &m),
            "phi={} w={}", phi, w
        );
    }

    #[test]
    fn negation_is_classical(phi in formula(), w in word(4)) {
        let s = FactorStructure::new(w.clone(), &Alphabet::ab());
        let m = close(&phi, &s);
        let neg = Formula::Not(Box::new(phi.clone()));
        prop_assert_eq!(holds(&neg, &s, &m), !holds(&phi, &s, &m));
    }

    #[test]
    fn de_morgan(phi in formula(), psi in formula(), w in word(3)) {
        let s = FactorStructure::new(w.clone(), &Alphabet::ab());
        let conj = Formula::and([phi.clone(), psi.clone()]);
        let m = close(&conj, &s);
        let lhs = Formula::Not(Box::new(conj.clone()));
        let rhs = Formula::or([
            Formula::Not(Box::new(phi.clone())),
            Formula::Not(Box::new(psi.clone())),
        ]);
        prop_assert_eq!(holds(&lhs, &s, &m), holds(&rhs, &s, &m));
    }

    #[test]
    fn quantifier_duality(phi in formula(), w in word(3)) {
        // ∀x φ ⟺ ¬∃x ¬φ.
        let s = FactorStructure::new(w.clone(), &Alphabet::ab());
        let x: fc_logic::VarName = std::rc::Rc::from("x");
        let forall = Formula::Forall(x.clone(), Box::new(phi.clone()));
        let not_exists_not = Formula::Not(Box::new(Formula::Exists(
            x,
            Box::new(Formula::Not(Box::new(phi.clone()))),
        )));
        let m = close(&forall, &s);
        prop_assert_eq!(holds(&forall, &s, &m), holds(&not_exists_not, &s, &m));
    }

    #[test]
    fn qr_bounds_desugared_qr(phi in formula()) {
        prop_assert!(phi.qr() <= phi.qr_desugared());
    }

    #[test]
    fn satisfying_assignments_agree_with_holds(phi in formula(), w in word(3)) {
        let s = FactorStructure::new(w.clone(), &Alphabet::ab());
        let sols = satisfying_assignments(&phi, &s);
        for m in sols.iter().take(8) {
            prop_assert!(holds(&phi, &s, m), "phi={} w={} m={:?}", phi, w, m);
        }
    }

    #[test]
    fn sentences_ignore_the_assignment(phi in formula(), w in word(3)) {
        prop_assume!(phi.is_sentence());
        let s = FactorStructure::new(w.clone(), &Alphabet::ab());
        let empty = Assignment::new();
        let mut junk = Assignment::new();
        junk.insert(std::rc::Rc::from("unused"), s.epsilon());
        prop_assert_eq!(holds(&phi, &s, &empty), holds(&phi, &s, &junk));
    }

    #[test]
    fn eq_chain_matches_explicit_concatenation(w in word(6), parts in prop::collection::vec(word(3), 0..4)) {
        // (x ≐ w₁⋯w_m) with all parts constant words: holds iff the
        // concatenation is a factor and x maps to it.
        let s = FactorStructure::new(w.clone(), &Alphabet::ab());
        let concat = fc_words::word::concat_all(parts.iter());
        let phi = Formula::exists(
            &["x"],
            Formula::EqChain(
                Term::var("x"),
                parts
                    .iter()
                    .flat_map(|p| p.bytes().iter().map(|&c| Term::Sym(c)).collect::<Vec<_>>())
                    .collect(),
            ),
        );
        prop_assert_eq!(
            holds(&phi, &s, &Assignment::new()),
            fc_words::is_factor(concat.bytes(), w.bytes()),
            "w={} concat={}", w, concat
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn to_source_round_trips_semantically(phi in formula(), w in word(3)) {
        let src = fc_logic::parser::to_source(&phi);
        let back = fc_logic::parser::parse_formula(&src)
            .unwrap_or_else(|e| panic!("{src}: {e}"));
        let s = FactorStructure::new(w.clone(), &Alphabet::ab());
        let m = close(&phi, &s);
        prop_assert_eq!(
            holds(&phi, &s, &m),
            holds(&back, &s, &m),
            "src={} w={}", src, w
        );
    }

    #[test]
    fn round_trip_preserves_qr_and_free_vars(phi in formula()) {
        // The span-tracking parser lowers through the same smart
        // constructors `to_source`'s input was built with, so the measured
        // invariants — quantifier rank (plain and desugared) and the free
        // variable set — must survive the printer/parser cycle exactly.
        let src = fc_logic::parser::to_source(&phi);
        let back = fc_logic::parser::parse_formula(&src)
            .unwrap_or_else(|e| panic!("{src}: {e}"));
        prop_assert_eq!(phi.qr(), back.qr(), "src={}", src);
        prop_assert_eq!(phi.qr_desugared(), back.qr_desugared(), "src={}", src);
        let mut fv_phi = phi.free_vars();
        let mut fv_back = back.free_vars();
        fv_phi.sort();
        fv_back.sort();
        prop_assert_eq!(fv_phi, fv_back, "src={}", src);
    }

    #[test]
    fn spanned_parse_agrees_with_plain_parse(phi in formula()) {
        // parse_formula is specified to be exactly
        // parse_formula_spanned(..).to_formula().
        let src = fc_logic::parser::to_source(&phi);
        let plain = fc_logic::parser::parse_formula(&src)
            .unwrap_or_else(|e| panic!("{src}: {e}"));
        let spanned = fc_logic::parser::parse_formula_spanned(&src)
            .unwrap_or_else(|e| panic!("{src}: {e:?}"));
        prop_assert_eq!(plain, spanned.to_formula(), "src={}", src);
    }

    #[test]
    fn compiled_plan_agrees_with_naive_on_fc_reg(phi in formula_reg(), w in word(4)) {
        // The central soundness property of the staged engine: one
        // compiled plan (slots, deduped DFAs, guard blocks) computes the
        // same truth value as the definitional interpreter, now on
        // formulas *with* regular constraints.
        let s = FactorStructure::new(w.clone(), &Alphabet::ab());
        let m = close(&phi, &s);
        let plan = Plan::compile(&phi);
        prop_assert_eq!(
            plan.eval(&s, &m),
            holds_naive(&phi, &s, &m),
            "phi={} w={}", phi, w
        );
    }

    #[test]
    fn whole_word_guards_agree_with_naive(
        psi in formula_reg(),
        var in prop::sample::select(VARS.to_vec()),
        w in word(4),
    ) {
        // φ_w(v) as an ∃-conjunct and ¬φ_w(v) as a ∀-disjunct are the
        // shapes the planner pins to v := w; ψ may mention v freely.
        let whole = fc_logic::library::phi_whole_word(var);
        let s = FactorStructure::new(w.clone(), &Alphabet::ab());
        for phi in [
            Formula::exists(&[var], Formula::and([whole.clone(), psi.clone()])),
            Formula::forall(&[var], Formula::or([Formula::not(whole.clone()), psi.clone()])),
        ] {
            let m = close(&phi, &s);
            let plan = Plan::compile(&phi);
            prop_assert!(plan.whole_word_guard_count() > 0, "phi={}", phi);
            prop_assert_eq!(
                plan.eval(&s, &m),
                holds_naive(&phi, &s, &m),
                "phi={} w={}", phi, w
            );
        }
    }

    #[test]
    fn plan_reuse_across_a_window_matches_per_word_naive(phi in formula_reg()) {
        // One plan, many words: compiling once and sweeping the window
        // must match recompiling (or interpreting) per word.
        let sentence = to_sentence(&phi);
        let plan = Plan::compile(&sentence);
        let sigma = Alphabet::ab();
        for word in sigma.words_up_to(3) {
            let s = FactorStructure::new(word.clone(), &sigma);
            prop_assert_eq!(
                plan.eval(&s, &Assignment::new()),
                holds_naive(&sentence, &s, &Assignment::new()),
                "phi={} word={}", sentence, word
            );
        }
    }

    #[test]
    fn plan_solutions_hold_under_the_naive_evaluator(phi in formula_reg(), w in word(3)) {
        let s = FactorStructure::new(w.clone(), &Alphabet::ab());
        let plan = Plan::compile(&phi);
        for m in plan.satisfying_assignments(&s).iter().take(8) {
            prop_assert!(holds_naive(&phi, &s, m), "phi={} w={} m={:?}", phi, w, m);
        }
    }

    #[test]
    fn parallel_window_equals_sequential_on_random_sentences(phi in formula_reg(), workers in 2usize..5) {
        let sentence = to_sentence(&phi);
        let sigma = Alphabet::ab();
        let seq = fc_logic::language::language_window(&sentence, &sigma, 3);
        let par = fc_logic::language::language_window_par(&sentence, &sigma, 3, workers);
        prop_assert_eq!(seq, par, "phi={} workers={}", sentence, workers);
    }

    #[test]
    fn lift_lower_preserves_lint_verdicts(phi in formula()) {
        // Analyzing a built formula (via lift) gives the same rule codes
        // as analyzing its parsed source text, up to FC004/FC005 findings
        // that the smart constructors erase before `lift` ever runs.
        use fc_logic::analysis::Analyzer;
        let analyzer = Analyzer::default();
        let lifted: Vec<&str> = analyzer.analyze_formula(&phi).iter().map(|d| d.code).collect();
        let src = fc_logic::parser::to_source(&phi);
        let parsed: Vec<&str> = analyzer.analyze_source(&src).iter().map(|d| d.code).collect();
        let mut a = lifted;
        let mut b = parsed;
        a.sort_unstable();
        b.sort_unstable();
        prop_assert_eq!(a, b, "src={}", src);
    }
}
