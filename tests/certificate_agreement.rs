//! Certificates and Spoiler winning lines on every refuted pair of
//! {a,b}^{≤4} at rank k ≤ 2.
//!
//! Every certificate must have quantifier rank ≤ k and must separate the
//! two words under the reference semantics `holds_naive`, which shares no
//! code with the planner. Two FNV-1a digests pin the rendered certificates
//! and the rendered winning lines, so a refactor of the strategy readers
//! that changes a single printed character fails here.

use fc_suite::games::certificate::distinguishing_sentence;
use fc_suite::games::solver::EfSolver;
use fc_suite::logic::eval::{holds_naive, Assignment};

/// Refuted (w, v, k) cases over {a,b}^{≤4} × {a,b}^{≤4}, k ∈ {0, 1, 2}.
const REFUTED: usize = 2268;
/// FNV-1a over every rendered certificate, in enumeration order.
const CERTIFICATE_DIGEST: u64 = 0x31f6_46ec_67d0_cbb6;
/// FNV-1a over every rendered Spoiler winning line, in enumeration order.
const LINE_DIGEST: u64 = 0x7183_d396_d7ac_e010;

/// All words over {a,b} of length ≤ `max_len`, shortest first.
fn words(max_len: usize) -> Vec<String> {
    let mut out = vec![String::new()];
    let mut layer = vec![String::new()];
    for _ in 0..max_len {
        layer = layer
            .iter()
            .flat_map(|w| [format!("{w}a"), format!("{w}b")])
            .collect();
        out.extend(layer.iter().cloned());
    }
    out
}

fn fnv(h: &mut u64, text: &str) {
    for &b in text.as_bytes() {
        *h = (*h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
}

#[test]
fn certificates_separate_and_strategy_readers_are_pinned() {
    let universe = words(4);
    let (mut refuted, mut cert_digest, mut line_digest) =
        (0usize, 0xcbf2_9ce4_8422_2325u64, 0xcbf2_9ce4_8422_2325u64);
    for k in 0..=2u32 {
        for w in &universe {
            for v in &universe {
                let mut solver = EfSolver::of(w, v);
                if solver.equivalent(k) {
                    continue;
                }
                refuted += 1;
                let phi = distinguishing_sentence(&mut solver, k)
                    .unwrap_or_else(|| panic!("{w:?} ≢_{k} {v:?} has no certificate"));
                assert!(phi.qr() <= k as usize, "qr({phi}) > {k}");
                let game = solver.game().clone();
                assert!(
                    holds_naive(&phi, &game.a, &Assignment::new()),
                    "certificate false on {w:?}: {phi}"
                );
                assert!(
                    !holds_naive(&phi, &game.b, &Assignment::new()),
                    "certificate true on {v:?}: {phi}"
                );
                fnv(&mut cert_digest, &format!("{w}|{v}|{k}|{phi}\n"));

                let line = solver
                    .spoiler_winning_line(k)
                    .unwrap_or_else(|| panic!("{w:?} ≢_{k} {v:?} has no winning line"));
                let mut rendered = format!("{w}|{v}|{k}");
                for mv in &line {
                    assert!(
                        !mv.element.is_bottom(),
                        "{w:?} vs {v:?} at k = {k}: the winning line plays ⊥"
                    );
                    let word = game.structure(mv.side).render(mv.element);
                    rendered.push_str(&format!("|{:?}:{word}", mv.side));
                }
                fnv(&mut line_digest, &format!("{rendered}\n"));
            }
        }
    }
    assert_eq!(refuted, REFUTED);
    assert_eq!(cert_digest, CERTIFICATE_DIGEST, "certificate digest");
    assert_eq!(line_digest, LINE_DIGEST, "winning-line digest");
}
