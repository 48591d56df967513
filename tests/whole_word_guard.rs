//! Count tripwire for the planner's φ_w guard: the three `fc-loadgen`
//! sentences built on φ_w(x) ("x is the whole word"), compiled from the
//! source text `fc serve` receives, must decide every evaluation document
//! of the load generator without enumerating a single quantifier frame.
//! Enumerating Facs(w)² for φ_w cost 460k–640k frames per 16-letter
//! document; a lost guard shows up here as a nonzero count, not as a
//! timing.

use fc_logic::eval::Assignment;
use fc_logic::parser::{parse_formula, to_source};
use fc_logic::{library, EvalStats, FactorStructure, Formula, Plan};
use fc_serve::loadgen;
use fc_words::Alphabet;

fn is_square(w: &[u8]) -> bool {
    let (left, right) = w.split_at(w.len() / 2);
    left == right
}

#[test]
fn whole_word_sentences_explore_no_frames_on_loadgen_documents() {
    type Direct = fn(&[u8]) -> bool;
    let sentences: [(&str, Formula, Direct); 3] = [
        (
            "contains a",
            library::on_whole_word(|x| library::phi_contains(x, b'a')),
            |w| w.contains(&b'a'),
        ),
        ("square", library::phi_square(), is_square),
        ("equals ab", library::phi_input_equals(b"ab"), |w| {
            w == b"ab"
        }),
    ];
    let sigma = Alphabet::ab();
    let docs: Vec<String> = (0..16)
        .filter(|i| i % 4 != 3)
        .map(loadgen::doc_text)
        .collect();
    assert_eq!(docs.len(), 12);
    for (name, phi, direct) in sentences {
        let src = to_source(&phi);
        let plan = Plan::compile(&parse_formula(&src).unwrap_or_else(|e| panic!("{src}: {e}")));
        for doc in &docs {
            let s = FactorStructure::of_str(doc, &sigma);
            let mut stats = EvalStats::default();
            let verdict = plan.eval_with_stats(&s, &Assignment::new(), &mut stats);
            assert_eq!(verdict, direct(doc.as_bytes()), "{name} on {doc}");
            assert_eq!(
                stats.frames_explored,
                0,
                "{name} on {doc} enumerated: {}",
                stats.render()
            );
        }
    }
}
