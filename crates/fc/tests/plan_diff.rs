//! Exhaustive differential suite: the compiled plan against the
//! definitional interpreter [`holds_naive`], over the paper's whole
//! formula library and every word of a small window — for open formulas,
//! additionally over **every** assignment of the free variables.
//!
//! This is the ground-truth check behind `docs/EVAL.md`'s soundness
//! argument: guard-directed blocks, slot frames, and structurally-deduped
//! DFAs are pure evaluation strategy; the truth value they compute must be
//! the textbook one on every input we can afford to enumerate.

use fc_logic::eval::{holds_naive, Assignment};
use fc_logic::{library, FactorId, FactorStructure, Formula, Plan, Term};
use fc_words::Alphabet;
use std::rc::Rc;

/// The library corpus with, per formula, the alphabet it speaks about and
/// the window length the *naive* evaluator can afford (its cost is
/// |U|^{#quantifiers} per word, so the Fibonacci-layer sentences get a
/// shorter window; everything else runs the full Σ^{≤4}).
fn corpus() -> Vec<(&'static str, Formula, Alphabet, usize)> {
    let ab = Alphabet::ab();
    let abc = Alphabet::abc();
    vec![
        (
            "phi_whole_word",
            library::phi_whole_word("x"),
            ab.clone(),
            4,
        ),
        ("phi_square", library::phi_square(), ab.clone(), 4),
        ("r_copy", library::r_copy("x", "y"), ab.clone(), 4),
        (
            "r_k_copies",
            library::r_k_copies("x", "y", 3),
            ab.clone(),
            4,
        ),
        ("phi_cube_free", library::phi_cube_free(), ab.clone(), 4),
        ("phi_vbv", library::phi_vbv(), ab.clone(), 4),
        (
            "phi_contains",
            library::phi_contains("x", b'a'),
            ab.clone(),
            4,
        ),
        ("phi_struc", library::phi_struc(), abc.clone(), 3),
        ("phi_fib", library::phi_fib(), abc.clone(), 3),
        (
            "phi_star_primitive",
            library::phi_star_primitive("x", b"ab"),
            ab.clone(),
            4,
        ),
        (
            "phi_star_word",
            library::phi_star_word("x", b"ab"),
            ab.clone(),
            4,
        ),
        (
            "phi_star_word_paper_literal",
            library::phi_star_word_paper_literal("x", b"ab"),
            ab.clone(),
            4,
        ),
        (
            "phi_input_is_power_of",
            library::phi_input_is_power_of(b"ab"),
            ab.clone(),
            4,
        ),
        (
            "phi_input_equals",
            library::phi_input_equals(b"aba"),
            ab.clone(),
            4,
        ),
        (
            "constraint_from_pattern",
            library::constraint_from_pattern("x", "(ab)+"),
            ab.clone(),
            4,
        ),
    ]
}

/// Every assignment of `vars` over the structure's universe, in no
/// particular order (the empty assignment if `vars` is empty).
fn all_assignments(vars: &[Rc<str>], s: &FactorStructure) -> Vec<Assignment> {
    let mut out = vec![Assignment::new()];
    for v in vars {
        let mut next = Vec::new();
        for m in &out {
            for id in s.universe() {
                let mut m2 = m.clone();
                m2.insert(v.clone(), id);
                next.push(m2);
            }
        }
        out = next;
    }
    out
}

#[test]
fn plan_matches_naive_on_the_whole_library() {
    for (name, phi, sigma, max_len) in corpus() {
        let plan = Plan::compile(&phi);
        let mut vars = phi.free_vars();
        vars.sort();
        let mut checked = 0u64;
        for w in sigma.words_up_to(max_len) {
            let s = FactorStructure::new(w.clone(), &sigma);
            for m in all_assignments(&vars, &s) {
                let compiled = plan.eval(&s, &m);
                let reference = holds_naive(&phi, &s, &m);
                assert_eq!(
                    compiled, reference,
                    "{name} on w={w} m={m:?}: plan={compiled}, naive={reference}"
                );
                checked += 1;
            }
        }
        assert!(checked > 0, "{name}: empty differential window");
    }
}

#[test]
fn plan_enumeration_matches_brute_force() {
    // `satisfying_assignments` must return exactly the assignments the
    // naive evaluator approves, in the documented order (free variables
    // sorted by name, universe ascending per variable).
    let sigma = Alphabet::ab();
    for (name, phi) in [
        ("r_copy", library::r_copy("x", "y")),
        ("phi_whole_word", library::phi_whole_word("x")),
        ("phi_contains", library::phi_contains("x", b'b')),
    ] {
        let plan = Plan::compile(&phi);
        let mut vars = phi.free_vars();
        vars.sort();
        for w in sigma.words_up_to(4) {
            let s = FactorStructure::new(w.clone(), &sigma);
            // Both sides enumerate sorted-name-major, universe-ascending,
            // so the comparison pins the order as well as the set.
            let brute: Vec<Assignment> = all_assignments(&vars, &s)
                .into_iter()
                .filter(|m| holds_naive(&phi, &s, m))
                .collect();
            let enumerated = plan.satisfying_assignments(&s);
            assert_eq!(
                enumerated, brute,
                "{name} on w={w}: enumeration differs from brute force"
            );
        }
    }
}

#[test]
fn sentences_need_no_assignment() {
    // The plan path must agree with the naive one on sentences when
    // called with the canonical empty assignment.
    let sigma = Alphabet::abc();
    let phi = library::phi_fib();
    let plan = Plan::compile(&phi);
    for w in sigma.words_up_to(3) {
        let s = FactorStructure::new(w.clone(), &sigma);
        assert_eq!(
            plan.eval(&s, &Assignment::new()),
            holds_naive(&phi, &s, &Assignment::new()),
            "phi_fib on {w}"
        );
    }
}

// ---- the φ_w ("x is the whole word") idiom -------------------------------

fn v(name: &str) -> Term {
    Term::var(name)
}

/// `¬∃b₁,b₂: body`, spelled out without the library helper so the
/// near-misses below can perturb one piece at a time.
fn not_exists2(b1: &str, b2: &str, body: Formula) -> Formula {
    Formula::not(Formula::exists(&[b1, b2], body))
}

/// φ_w(x) built by hand with the branches in either order.
fn whole_word(x: &str, swap_branches: bool) -> Formula {
    let mut branches = vec![
        Formula::eq_cat(v("z1"), v("z2"), v(x)),
        Formula::eq_cat(v("z1"), v(x), v("z2")),
    ];
    if swap_branches {
        branches.reverse();
    }
    not_exists2(
        "z1",
        "z2",
        Formula::and([
            Formula::or(branches),
            Formula::not(Formula::eq(v("z2"), Term::Epsilon)),
        ]),
    )
}

/// `(name, formula, recognised)`: whether the plan must lower the idiom
/// to its O(1) form. Every entry must agree with `holds_naive` either way.
fn whole_word_cases() -> Vec<(&'static str, Formula, bool)> {
    let ab = || Formula::eq_word(v("x"), b"ab");
    vec![
        ("library phi_w", library::phi_whole_word("x"), true),
        ("branches swapped", whole_word("x", true), true),
        (
            "binders swapped",
            not_exists2(
                "z2",
                "z1",
                Formula::and([
                    Formula::or([
                        Formula::eq_cat(v("z1"), v("z2"), v("x")),
                        Formula::eq_cat(v("z1"), v("x"), v("z2")),
                    ]),
                    Formula::not(Formula::eq(v("z2"), Term::Epsilon)),
                ]),
            ),
            true,
        ),
        (
            "on_whole_word(contains a)",
            library::on_whole_word(|x| library::phi_contains(x, b'a')),
            true,
        ),
        ("phi_square", library::phi_square(), true),
        ("phi_input_equals", library::phi_input_equals(b"ab"), true),
        (
            "forall dual",
            Formula::forall(
                &["x"],
                Formula::or([Formula::not(library::phi_whole_word("x")), ab()]),
            ),
            true,
        ),
        (
            "pinned before a later guard",
            Formula::exists(
                &["y", "x"],
                Formula::and([
                    Formula::eq_cat(v("x"), v("y"), v("y")),
                    library::phi_whole_word("x"),
                ]),
            ),
            true,
        ),
        (
            "two pins",
            Formula::exists(
                &["x", "y"],
                Formula::and([
                    library::phi_whole_word("x"),
                    library::phi_whole_word("y"),
                    Formula::eq(v("x"), v("y")),
                ]),
            ),
            true,
        ),
        (
            "raw triple negation",
            Formula::exists(
                &["x"],
                Formula::and([
                    Formula::Not(Box::new(Formula::Not(Box::new(library::phi_whole_word(
                        "x",
                    ))))),
                    ab(),
                ]),
            ),
            true,
        ),
        (
            "nonempty conjunct dropped",
            not_exists2(
                "z1",
                "z2",
                Formula::or([
                    Formula::eq_cat(v("z1"), v("z2"), v("x")),
                    Formula::eq_cat(v("z1"), v("x"), v("z2")),
                ]),
            ),
            false,
        ),
        (
            "z1 and z2 swapped in roles",
            not_exists2(
                "z1",
                "z2",
                Formula::and([
                    Formula::or([
                        Formula::eq_cat(v("z1"), v("z2"), v("x")),
                        Formula::eq_cat(v("z1"), v("x"), v("z2")),
                    ]),
                    Formula::not(Formula::eq(v("z1"), Term::Epsilon)),
                ]),
            ),
            false,
        ),
        ("x named like z1 (shadowed)", whole_word("z1", false), false),
        (
            "shadowed idiom in a block",
            Formula::exists(&["z1"], Formula::and([whole_word("z1", false), ab()])),
            false,
        ),
        (
            "one binder twice",
            not_exists2(
                "z",
                "z",
                Formula::and([
                    Formula::or([
                        Formula::eq_cat(v("z"), v("z"), v("x")),
                        Formula::eq_cat(v("z"), v("x"), v("z")),
                    ]),
                    Formula::not(Formula::eq(v("z"), Term::Epsilon)),
                ]),
            ),
            false,
        ),
        (
            "branches disagree on x",
            not_exists2(
                "z1",
                "z2",
                Formula::and([
                    Formula::or([
                        Formula::eq_cat(v("z1"), v("z2"), v("x")),
                        Formula::eq_cat(v("z1"), v("y"), v("z2")),
                    ]),
                    Formula::not(Formula::eq(v("z2"), Term::Epsilon)),
                ]),
            ),
            false,
        ),
    ]
}

#[test]
fn whole_word_idiom_matches_naive_under_every_assignment_and_bottom() {
    let sigma = Alphabet::ab();
    for (name, phi, recognised) in whole_word_cases() {
        let plan = Plan::compile(&phi);
        assert_eq!(
            plan.whole_word_guard_count() > 0,
            recognised,
            "{name}: whole-word guards = {}",
            plan.whole_word_guard_count()
        );
        let mut vars = phi.free_vars();
        vars.sort();
        for w in sigma.words_up_to(4) {
            let s = FactorStructure::new(w.clone(), &sigma);
            let mut assignments = all_assignments(&vars, &s);
            // ⊥ is no quantifier's value but a free variable may hold it:
            // φ_w(⊥) is true, since ⊥ falsifies both equations.
            if let Some(x) = vars.first() {
                let mut m = Assignment::new();
                for u in &vars {
                    m.insert(u.clone(), s.epsilon());
                }
                m.insert(x.clone(), FactorId::BOTTOM);
                assignments.push(m);
            }
            for m in assignments {
                assert_eq!(
                    plan.eval(&s, &m),
                    holds_naive(&phi, &s, &m),
                    "{name} on w={w} m={m:?}"
                );
            }
            if !vars.is_empty() {
                let brute: Vec<Assignment> = all_assignments(&vars, &s)
                    .into_iter()
                    .filter(|m| holds_naive(&phi, &s, m))
                    .collect();
                assert_eq!(plan.satisfying_assignments(&s), brute, "{name} on w={w}");
            }
        }
    }
}

#[test]
fn whole_word_idiom_survives_the_source_round_trip() {
    // Serve compiles what `parse_formula` returns for `to_source`'s text.
    for (name, phi, recognised) in whole_word_cases() {
        let src = fc_logic::parser::to_source(&phi);
        let back = fc_logic::parser::parse_formula(&src).unwrap_or_else(|e| panic!("{src}: {e}"));
        assert_eq!(
            Plan::compile(&back).whole_word_guard_count() > 0,
            recognised,
            "{name}: {src}"
        );
    }
}
