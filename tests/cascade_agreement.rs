//! One ≡_k cascade, three entry points: `fc serve`'s `game` request, its
//! `classify` request on the same pair, and the bare exact solver must
//! give the same verdict on every pair of short words. A replay of the
//! window — every pair again, plus its a↔b-renamed copy — must be answered
//! by the cascade's shortcut tiers without playing a single new game.

use fc_games::EfSolver;
use fc_serve::json;
use fc_serve::{EngineConfig, ServiceEngine};
use fc_words::{Alphabet, Word};

fn game(engine: &ServiceEngine, w: &str, v: &str, k: u32) -> bool {
    let resp = engine.handle(&format!(r#"{{"op":"game","w":"{w}","v":"{v}","k":{k}}}"#));
    assert!(resp.contains(r#""ok":true"#), "{resp}");
    resp.contains(r#""equivalent":true"#)
}

fn classify_pair(engine: &ServiceEngine, w: &str, v: &str, k: u32) -> bool {
    let resp = engine.handle(&format!(
        r#"{{"op":"classify","words":["{w}","{v}"],"k":{k}}}"#
    ));
    assert!(resp.contains(r#""ok":true"#), "{resp}");
    resp.contains("[[0,1]]")
}

fn games_played(engine: &ServiceEngine) -> f64 {
    let stats = json::parse(&engine.handle(r#"{"op":"stats"}"#)).expect("stats parses");
    stats
        .get("solver")
        .and_then(|s| s.get("games"))
        .and_then(|g| g.as_f64())
        .expect("stats.solver.games")
}

fn renamed(w: &str) -> String {
    w.chars()
        .map(|c| if c == 'a' { 'b' } else { 'a' })
        .collect()
}

#[test]
fn serve_game_classify_and_solver_agree_on_short_words() {
    let engine = ServiceEngine::new(EngineConfig::default());
    let words: Vec<Word> = Alphabet::ab().words_up_to(3).collect();
    let mut verdicts = Vec::new();
    for k in 1..=2u32 {
        for w in &words {
            for v in &words {
                let (w, v) = (w.as_str(), v.as_str());
                let direct = EfSolver::of(w, v).equivalent(k);
                assert_eq!(game(&engine, w, v, k), direct, "game {w} vs {v}, k={k}");
                assert_eq!(
                    classify_pair(&engine, w, v, k),
                    direct,
                    "classify {w} vs {v}, k={k}"
                );
                verdicts.push((w, v, k, direct));
            }
        }
    }
    let played = games_played(&engine);
    assert!(played > 0.0, "the window has pairs only the solver decides");
    for &(w, v, k, direct) in &verdicts {
        assert_eq!(game(&engine, w, v, k), direct, "replay {w} vs {v}, k={k}");
        let (rw, rv) = (renamed(w), renamed(v));
        assert_eq!(
            game(&engine, &rw, &rv, k),
            direct,
            "renamed {rw} vs {rv}, k={k}"
        );
    }
    assert_eq!(
        games_played(&engine),
        played,
        "repeats and renamings must not reach the solver"
    );
}
