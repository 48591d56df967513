//! Logic workbench: parse FC formulas from text, model-check them, convert
//! to normal forms, and synthesize distinguishing certificates.
//!
//! ```text
//! cargo run --release --example logic_workbench
//! ```

use fc_suite::games::certificate::distinguishing_sentence;
use fc_suite::games::EfSolver;
use fc_suite::logic::eval::{holds, satisfying_assignments, Assignment};
use fc_suite::logic::normal_form::{to_nnf, to_prenex};
use fc_suite::logic::parser::parse_formula;
use fc_suite::logic::FactorStructure;

fn main() {
    // 1. Parse a sentence from the ASCII syntax (the paper's φ_ww).
    let src = r#"E x, y: (x = y.y) & !(E z1, z2: ((z1 = z2.x) | (z1 = x.z2)) & !(z2 = eps))"#;
    let phi = parse_formula(src).expect("parse");
    println!("parsed: {phi}");
    println!(
        "qr = {}, pure FC = {}, sentence = {}\n",
        phi.qr(),
        phi.is_pure_fc(),
        phi.is_sentence()
    );

    for w in ["abab", "aba", "aabb", ""] {
        let s = FactorStructure::of_word(if w.is_empty() { "a" } else { w });
        let s = if w.is_empty() {
            FactorStructure::of_str("", s.alphabet())
        } else {
            s
        };
        println!("  {w:6} ⊨ φ_ww ? {}", holds(&phi, &s, &Assignment::new()));
    }

    // 2. Normal forms.
    let nnf = to_nnf(&phi);
    println!("\nNNF: {nnf}");
    let prenex = to_prenex(&phi);
    println!(
        "prenex prefix: {} quantifier(s); matrix qr = {}",
        prenex.prefix.len(),
        prenex.matrix.qr()
    );

    // 3. Free-variable formulas: solve for assignments.
    let open = parse_formula("E z: (x = z.z) & !(z = eps)").expect("parse");
    let s = FactorStructure::of_word("aabaab");
    let sols = satisfying_assignments(&open, &s);
    println!("\n⟦∃z: x = z·z ∧ z ≠ ε⟧(aabaab):");
    for m in &sols {
        for (v, id) in m {
            println!("  {v} ↦ {}", s.render(*id));
        }
    }

    // 4. Certificates: an actual FC sentence separating two words, derived
    //    from Spoiler's winning strategy and verified by the model checker.
    for (w, v, k) in [("ab", "ba", 1u32), ("aaaa", "aaa", 2)] {
        match distinguishing_sentence(&mut EfSolver::of(w, v), k) {
            Some(cert) => {
                let sw = FactorStructure::of_word(w);
                let sv = FactorStructure::of_word(v);
                println!(
                    "\ncertificate for {w} ≢_{k} {v} (qr ≤ {k}):\n  {cert}\n  ⊨ on {w}: {} | on {v}: {}",
                    holds(&cert, &sw, &Assignment::new()),
                    holds(&cert, &sv, &Assignment::new())
                );
            }
            None => println!("\n{w} ≡_{k} {v} — no certificate exists"),
        }
    }
}
