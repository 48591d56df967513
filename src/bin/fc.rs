//! `fc` — command-line front end for the FC / EF-games toolkit.
//!
//! ```text
//! fc check  '<formula>' <word> [--stats] [--backend B]  model-check a sentence
//! fc solve  '<formula>' <word> [--stats] [--backend B]  print all assignments
//! fc lint   '<formula>' [flags]       diagnostics (see docs/ANALYSIS.md)
//! fc game   <w> <v> <k> [--fast] [--stats]   decide w ≡_k v, show a winning line
//!                                     (--fast: semilinear arithmetic oracle
//!                                     for powers of a shared primitive root,
//!                                     with the certificate; falls back to
//!                                     the solver when ineligible)
//! fc classes <k> <max_exponent>       unary ≡_k class table (Lemma 3.6)
//! fc fooling <lang> <k> [limit]       fooling pair for anbn | L1..L6
//! fc bounded '<regex>'                boundedness of a regular language
//! fc definable '<regex>' [--budget N] FC-definability verdict + certificate
//! fc serve [--addr A] [--workers N] [--plan-cache N] [--port-file P]
//!                                     long-running query service (docs/SERVE.md)
//! ```
//!
//! `fc lint` flags: `--json` (machine-readable report), `--deny-warnings`
//! (warnings fail the exit code), `--sentence` (require a sentence, FC006),
//! `--pure` (forbid regular constraints, FC007), `--allow <CODE>`
//! (suppress a rule), `--qr-budget <N>` (FC104 threshold), `--fc2-budget <N>`
//! (FC2xx DFA-state cap, 0 disables), `--no-semantic`
//! (skip the DFA-backed rules), `--rules` (print the rule registry).
//! Exit codes: 0 clean, 1 findings (errors, or warnings under
//! `--deny-warnings`), 2 usage error. `fc check` and `fc solve` run the
//! same analysis first: lint errors abort, warnings go to stderr.
//! With `--stats`, both print the compiled evaluator's `EvalStats` line
//! (plan size, DFA count, frames explored, guard hits, wall time). With
//! `--backend <dense|succinct|auto>`, both force the factor-structure
//! backend (default `auto`: dense up to |w| = 64, succinct beyond — see
//! docs/STRUCTURE.md).
//!
//! Every command writes stdout through one fallible writer. When the
//! reader closes stdout early (`fc game … | head -1`), `fc` stops at the
//! next line quietly with exit status 0; any other write error prints
//! `error: writing to stdout: …` and exits with status 1.
//!
//! Formula syntax: see `fc_logic::parser` — e.g.
//! `fc check 'E x, y: x = y.y & !(E z1, z2: ((z1 = z2.x) | (z1 = x.z2)) & !(z2 = eps))' abab`

use fc_suite::games::pow2;
use fc_suite::games::solver::EfSolver;
use fc_suite::games::Side;
use fc_suite::logic::analysis::{self, AnalysisConfig, Analyzer, Severity};
use fc_suite::logic::eval::Assignment;
use fc_suite::logic::parser::parse_formula;
use fc_suite::logic::plan::{EvalStats, Plan};
use fc_suite::logic::reg_to_fc::definable_to_fc;
use fc_suite::logic::{BackendKind, FactorStructure, Formula};
use fc_suite::reglang::definable::{
    fc_definable_regex, DefinabilityBudget, FcDefinability, Inconclusive,
};
use fc_suite::reglang::{bounded, Dfa, Regex};
use fc_suite::relations::languages;
use fc_suite::serve::{Server, ServerConfig};
use fc_suite::words::{Alphabet, Word};
use std::io::{self, Write};
use std::process::ExitCode;

/// `println!` that hands the write error back instead of panicking. Every
/// line `fc` prints to stdout goes through it, so a reader that closes the
/// pipe early (`fc game … | head -1`) stops the command quietly.
macro_rules! out {
    ($($arg:tt)*) => {
        writeln!(io::stdout(), $($arg)*)
    };
}

/// A command's failure: a message (a bad argument or a rejected input)
/// or the `io::Error` of a stdout write.
type CliError = Box<dyn std::error::Error>;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let done = |r: Result<(), CliError>| r.map(|()| ExitCode::SUCCESS);
    let result = match args.first().map(String::as_str) {
        Some("check") => done(cmd_check(&args[1..])),
        Some("solve") => done(cmd_solve(&args[1..])),
        Some("lint") => cmd_lint(&args[1..]),
        Some("game") => done(cmd_game(&args[1..])),
        Some("classes") => done(cmd_classes(&args[1..])),
        Some("fooling") => done(cmd_fooling(&args[1..])),
        Some("bounded") => done(cmd_bounded(&args[1..])),
        Some("definable") => done(cmd_definable(&args[1..])),
        Some("serve") => done(cmd_serve(&args[1..])),
        _ => {
            eprintln!(
                "usage: fc <check|solve|lint|game|classes|fooling|bounded|definable|serve> …"
            );
            eprintln!("see the module docs (src/bin/fc.rs) for details");
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(code) => code,
        Err(e) => match e.downcast_ref::<io::Error>() {
            // The reader closed stdout and has everything it asked for.
            Some(io) if io.kind() == io::ErrorKind::BrokenPipe => ExitCode::SUCCESS,
            Some(io) => {
                eprintln!("error: writing to stdout: {io}");
                ExitCode::FAILURE
            }
            None => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        },
    }
}

fn need<'a>(args: &'a [String], i: usize, what: &str) -> Result<&'a str, String> {
    args.get(i)
        .map(String::as_str)
        .ok_or_else(|| format!("missing argument: {what}"))
}

/// Runs the analyzer before evaluation: lint errors (including parse
/// errors, FC000) abort the command; warnings and notes go to stderr.
fn lint_gate(src: &str, expect_sentence: bool) -> Result<Formula, String> {
    let config = AnalysisConfig {
        expect_sentence,
        ..Default::default()
    };
    let diags = Analyzer::new(config).analyze_source(src);
    let (errors, _, _) = analysis::counts(&diags);
    if errors > 0 {
        let rendered: Vec<String> = diags
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .map(|d| d.render_human(Some(src)))
            .collect();
        let hint = if diags.iter().any(|d| d.code == "FC006") {
            "\nhint: use `fc solve` to enumerate assignments for open formulas"
        } else {
            ""
        };
        return Err(format!(
            "formula rejected by lint:\n{}{hint}",
            rendered.join("\n")
        ));
    }
    for d in &diags {
        eprintln!("{}", d.render_human(Some(src)));
    }
    parse_formula(src)
}

/// Splits `args` into positional arguments and the `--stats` /
/// `--backend <dense|succinct|auto>` flags (shared by `fc check` and
/// `fc solve`).
fn split_stats_flag(args: &[String]) -> Result<(Vec<&str>, bool, Option<BackendKind>), String> {
    let mut pos = Vec::new();
    let mut stats = false;
    let mut backend = None;
    let mut args = args.iter();
    while let Some(a) = args.next() {
        match a.as_str() {
            "--stats" => stats = true,
            "--backend" => {
                backend = match args.next().map(String::as_str) {
                    Some("dense") => Some(BackendKind::Dense),
                    Some("succinct") => Some(BackendKind::Succinct),
                    Some("auto") => None,
                    Some(other) => {
                        return Err(format!(
                            "--backend: expected dense|succinct|auto, got '{other}'"
                        ))
                    }
                    None => return Err("--backend needs a value (dense|succinct|auto)".into()),
                };
            }
            flag if flag.starts_with("--") => return Err(format!("unknown flag '{flag}'")),
            other => pos.push(other),
        }
    }
    Ok((pos, stats, backend))
}

/// Builds the word's structure on the requested backend (`None` = the
/// word-length automatic choice).
fn build_structure(word: &str, backend: Option<BackendKind>) -> FactorStructure {
    match backend {
        Some(kind) => {
            let word = Word::from(word);
            let sigma = Alphabet::from_symbols(&word.symbols());
            FactorStructure::with_backend(word, &sigma, kind)
        }
        None => FactorStructure::of_word(word),
    }
}

fn cmd_check(args: &[String]) -> Result<(), CliError> {
    let (pos, want_stats, backend) = split_stats_flag(args)?;
    let phi = lint_gate(pos.first().ok_or("missing argument: formula")?, true)?;
    let word = *pos.get(1).ok_or("missing argument: word")?;
    let s = build_structure(word, backend);
    let plan = Plan::compile(&phi);
    let mut stats = EvalStats::default();
    let verdict = plan.eval_with_stats(&s, &Assignment::new(), &mut stats);
    out!(
        "{word} ⊨ φ ? {verdict}   (qr = {}, desugared qr = {})",
        phi.qr(),
        phi.qr_desugared()
    )?;
    if want_stats {
        out!("stats: {}", stats.render())?;
    }
    Ok(())
}

fn cmd_solve(args: &[String]) -> Result<(), CliError> {
    let (pos, want_stats, backend) = split_stats_flag(args)?;
    let phi = lint_gate(pos.first().ok_or("missing argument: formula")?, false)?;
    let word = *pos.get(1).ok_or("missing argument: word")?;
    let s = build_structure(word, backend);
    let plan = Plan::compile(&phi);
    let mut stats = EvalStats::default();
    let sols = plan.satisfying_assignments_with_stats(&s, &mut stats);
    out!("⟦φ⟧({word}) has {} assignment(s):", sols.len())?;
    for m in sols.iter().take(50) {
        let cells: Vec<String> = m
            .iter()
            .map(|(v, id)| format!("{v} ↦ {}", s.render(*id)))
            .collect();
        out!("  {{{}}}", cells.join(", "))?;
    }
    if sols.len() > 50 {
        out!("  … and {} more", sols.len() - 50)?;
    }
    if want_stats {
        out!("stats: {}", stats.render())?;
    }
    Ok(())
}

fn cmd_lint(args: &[String]) -> Result<ExitCode, CliError> {
    let usage = |msg: &str| -> Result<ExitCode, CliError> {
        eprintln!("{msg}");
        eprintln!(
            "usage: fc lint '<formula>' [--json] [--deny-warnings] [--sentence] [--pure] \
             [--allow <CODE>] [--qr-budget <N>] [--fc2-budget <N>] [--no-semantic] [--rules]"
        );
        Ok(ExitCode::from(2))
    };
    let mut config = AnalysisConfig::default();
    let mut json = false;
    let mut deny_warnings = false;
    let mut show_rules = false;
    let mut formula: Option<&str> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--json" => json = true,
            "--deny-warnings" => deny_warnings = true,
            "--sentence" => config.expect_sentence = true,
            "--pure" => config.expect_pure_fc = true,
            "--no-semantic" => config.semantic = false,
            "--rules" => show_rules = true,
            "--allow" => match it.next() {
                Some(code) => {
                    if analysis::rule(code).is_none() {
                        return usage(&format!("--allow: unknown rule code '{code}'"));
                    }
                    config.allow.insert(code.clone());
                }
                None => return usage("--allow needs a rule code (e.g. FC103)"),
            },
            "--qr-budget" => match it.next().and_then(|n| n.parse().ok()) {
                Some(n) => config.qr_blowup_threshold = n,
                None => return usage("--qr-budget needs a number"),
            },
            "--fc2-budget" => match it.next().and_then(|n| n.parse().ok()) {
                Some(n) => config.fc2_budget = n,
                None => return usage("--fc2-budget needs a number"),
            },
            flag if flag.starts_with("--") => {
                return usage(&format!("unknown flag '{flag}'"));
            }
            src => {
                if formula.replace(src).is_some() {
                    return usage("expected exactly one formula argument");
                }
            }
        }
    }
    if show_rules {
        out!("{:<6} {:<28} {:<8} summary", "code", "name", "severity")?;
        for r in analysis::rules() {
            out!(
                "{:<6} {:<28} {:<8} {}",
                r.code,
                r.name,
                r.default_severity.as_str(),
                r.summary.split_whitespace().collect::<Vec<_>>().join(" ")
            )?;
        }
        return Ok(ExitCode::SUCCESS);
    }
    let Some(src) = formula else {
        return usage("missing formula argument");
    };
    let diags = Analyzer::new(config).analyze_source(src);
    let (errors, warnings, notes) = analysis::counts(&diags);
    if json {
        let body: Vec<String> = diags.iter().map(analysis::Diagnostic::to_json).collect();
        out!(
            "{{\"formula\":\"{}\",\"diagnostics\":[{}],\"counts\":{{\"error\":{errors},\"warning\":{warnings},\"note\":{notes}}}}}",
            analysis::json_escape(src),
            body.join(",")
        )?;
    } else {
        for d in &diags {
            out!("{}", d.render_human(Some(src)))?;
        }
        out!(
            "{} error(s), {} warning(s), {} note(s)",
            errors,
            warnings,
            notes
        )?;
    }
    Ok(if errors > 0 || (deny_warnings && warnings > 0) {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

fn cmd_game(args: &[String]) -> Result<(), CliError> {
    let mut pos: Vec<&str> = Vec::new();
    let mut fast = false;
    let mut show_stats = false;
    for arg in args {
        match arg.as_str() {
            "--fast" => fast = true,
            "--stats" => show_stats = true,
            flag if flag.starts_with("--") => return Err(format!("unknown flag '{flag}'").into()),
            other => pos.push(other),
        }
    }
    let w = *pos.first().ok_or("missing argument: w")?;
    let v = *pos.get(1).ok_or("missing argument: v")?;
    let k: u32 = pos
        .get(2)
        .ok_or("missing argument: k")?
        .parse()
        .map_err(|_| "k must be a number".to_string())?;
    if fast && game_fast(w, v, k)? {
        return Ok(());
    }
    let mut solver = EfSolver::of(w, v);
    if show_stats {
        solver.attach_table(std::sync::Arc::new(fc_suite::games::TransTable::new(
            fc_suite::games::DEFAULT_TABLE_CAPACITY >> 4,
        )));
    }
    let verdict = solver.equivalent_auto(k);
    let stats = solver.stats();
    out!(
        "{w} ≡_{k} {v} ? {verdict}   ({} states explored, {} memo hits, {} moves pruned, {:.3?} wall)",
        solver.states_explored(),
        stats.memo_hits,
        stats.pruned_moves,
        stats.wall
    )?;
    if show_stats {
        if let Some((cw, cv)) = fc_suite::games::canon::canonical_pair(w.as_bytes(), v.as_bytes()) {
            out!(
                "  canonical pair: {} / {}",
                String::from_utf8_lossy(&cw),
                String::from_utf8_lossy(&cv)
            )?;
        }
        out!(
            "  solver table probes: {} hits, {} misses",
            stats.table_hits,
            stats.table_misses
        )?;
        if let Some(table) = solver.shared_table() {
            let t = table.stats();
            out!(
                "  shared table: {} inserts, {} hits, {} misses, {} evictions, {} slots, {} bytes",
                t.inserts,
                t.hits,
                t.misses,
                t.evictions,
                t.capacity,
                table.bytes()
            )?;
        }
    }
    if !verdict {
        if let Some(line) = solver.spoiler_winning_line(k) {
            out!("Spoiler winning line:")?;
            for (i, mv) in line.iter().enumerate() {
                let (side, word) = match mv.side {
                    Side::A => ("A", solver.game().a.render(mv.element)),
                    Side::B => ("B", solver.game().b.render(mv.element)),
                };
                out!("  round {}: pick {side}:{word}", i + 1)?;
            }
        }
        if let Some(min_k) = solver.distinguishing_rounds(k) {
            if let Some(phi) =
                fc_suite::games::certificate::distinguishing_sentence(&mut solver, min_k)
            {
                let printed = phi.to_string();
                if printed.len() <= 400 {
                    out!("certificate (qr ≤ {min_k}): {printed}")?;
                } else {
                    out!(
                        "certificate (qr ≤ {min_k}): {} … ({} chars)",
                        &printed.chars().take(200).collect::<String>(),
                        printed.len()
                    )?;
                }
            }
        }
    }
    Ok(())
}

/// `fc game --fast`: try the semilinear arithmetic oracle before touching
/// the game solver. Returns `Ok(true)` when the oracle was eligible (the
/// verdict plus its certificate have been printed), `Ok(false)` to fall
/// back to the solver. This is the one entry point that deliberately pays
/// for the rank-3 unary table build (seconds to minutes; every later
/// `--fast` call in the process reuses it).
fn game_fast(w: &str, v: &str, k: u32) -> Result<bool, CliError> {
    use fc_suite::games::arith::{ArithOracle, ArithRoute};
    use fc_suite::games::batch::periodic_table_builder;
    use fc_suite::words::primitive_root;

    let oracle = ArithOracle::global();
    let t0 = std::time::Instant::now();
    let verdict = oracle.verdict_words(w.as_bytes(), v.as_bytes(), k, true, |root| {
        let max_exp = (w.len().max(v.len()) / root.len()) as u64;
        periodic_table_builder(k, root, (max_exp + 8).max(16))
    });
    let Some(verdict) = verdict else {
        eprintln!(
            "note: --fast is ineligible here (rank {k} beyond the exact tables, or the words \
             are not powers of a shared primitive root); using the game solver"
        );
        return Ok(false);
    };
    fn show(s: &str) -> &str {
        if s.is_empty() {
            "ε"
        } else {
            s
        }
    }
    out!(
        "{} ≡_{k} {} ? {}   (arithmetic route, {:.3?} wall)",
        show(w),
        show(v),
        verdict.equivalent,
        t0.elapsed()
    )?;
    match verdict.route {
        ArithRoute::Equal => out!("certificate: the words are identical")?,
        ArithRoute::Unary => {
            let table = oracle
                .unary_table_ready(k)
                .expect("unary route implies a cached table");
            let cert = table.certificate();
            if table.classes.len() <= 32 {
                out!("{cert}")?;
            } else {
                // Hundreds of classes at k = 3: keep the header and the
                // two classes the verdict actually compared.
                let mut lines = cert.lines();
                out!("{}", lines.next().unwrap_or_default())?;
                let (p, q) = (w.len() as u64, v.len() as u64);
                let (cp, cq) = (table.class_index(p), table.class_index(q));
                for (i, line) in lines.enumerate() {
                    if i as u32 == cp || i as u32 == cq {
                        out!("{line}")?;
                    }
                }
                out!(
                    "  ({} further classes elided; the full table is `UnaryClassTable::certificate()`)",
                    table.classes.len() - if cp == cq { 1 } else { 2 }
                )?;
            }
        }
        ArithRoute::RootRankZero => out!(
            "certificate: same primitive root ⇒ same occurring symbols, and rank 0 only \
             compares the constant seeds"
        )?,
        ArithRoute::Periodic => {
            let (root, _) = primitive_root(w.as_bytes());
            let table = oracle
                .periodic_table_cached(k, &root)
                .expect("periodic route implies a cached table");
            out!(
                "certificate: exponent table for root {root}, solver-classified on 0..={}",
                table.window
            )?;
            match table.tail {
                Some((t, p)) => out!("  tail: periodic with threshold {t}, period {p}")?,
                None => out!("  tail: not yet stable inside the window")?,
            }
            if let Some((p, q)) = table.minimal_pair() {
                out!("  minimal pair: {root}^{p} ≡_{k} {root}^{q}")?;
            }
        }
    }
    Ok(true)
}

fn cmd_classes(args: &[String]) -> Result<(), CliError> {
    let k: u32 = need(args, 0, "k")?
        .parse()
        .map_err(|_| "k must be a number".to_string())?;
    let limit: usize = need(args, 1, "max exponent")?
        .parse()
        .map_err(|_| "limit must be a number".to_string())?;
    let classes = pow2::unary_classes(k, limit);
    out!("≡_{k} classes of a^0 .. a^{limit}:")?;
    out!("{}", pow2::render_classes(&classes))?;
    match pow2::minimal_unary_pair(k, limit) {
        Some((p, q)) => out!("minimal pair: a^{p} ≡_{k} a^{q}")?,
        None => out!("no pair with exponents ≤ {limit}")?,
    }
    Ok(())
}

fn cmd_fooling(args: &[String]) -> Result<(), CliError> {
    let name = need(args, 0, "language (anbn|L1..L6)")?;
    let k: u32 = need(args, 1, "k")?
        .parse()
        .map_err(|_| "k must be a number".to_string())?;
    let limit: usize = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(16);
    let catalogue = languages::catalogue();
    let lang = catalogue
        .iter()
        .find(|l| l.name.eq_ignore_ascii_case(name))
        .ok_or_else(|| format!("unknown language {name}; try anbn, L1, …, L6"))?;
    match lang.fooling_pair(k, limit) {
        Some(pair) => {
            out!("inside  (∈ {}): {}", lang.name, pair.inside)?;
            out!("outside (∉ {}): {}", lang.name, pair.outside)?;
            out!("solver-confirmed ≡_{k}; exponents {:?}", pair.exponents)?;
            Ok(())
        }
        None => Err(format!("no rank-{k} fooling pair with exponents ≤ {limit}").into()),
    }
}

fn cmd_bounded(args: &[String]) -> Result<(), CliError> {
    let pattern = need(args, 0, "regex")?;
    let re = Regex::parse(pattern)?;
    let mut alpha = re.symbols();
    if alpha.is_empty() {
        alpha = b"ab".to_vec();
    }
    let dfa = Dfa::from_regex(&re, &alpha);
    if bounded::is_bounded(&dfa) {
        let witness = bounded::bounded_witness(&dfa).expect("bounded");
        let rendered: Vec<String> = witness
            .iter()
            .filter(|w| !w.is_empty())
            .map(|w| format!("{w}*"))
            .collect();
        out!("L({pattern}) is BOUNDED")?;
        if rendered.len() <= 24 {
            out!("witness: {}", rendered.join("·"))?;
        } else {
            out!(
                "witness: {}· … ({} factors)",
                rendered[..8].join("·"),
                rendered.len()
            )?;
        }
    } else {
        out!("L({pattern}) is UNBOUNDED")?;
    }
    // Also enumerate a few members for orientation.
    let members = fc_suite::reglang::enumerate::enumerate_dfa(&dfa, 5);
    let names: Vec<String> = members.iter().take(12).map(Word::to_string).collect();
    out!("members up to length 5: {}", names.join(", "))?;
    let _ = Alphabet::ab();
    Ok(())
}

fn cmd_definable(args: &[String]) -> Result<(), CliError> {
    let mut pattern: Option<&str> = None;
    let mut budget = DefinabilityBudget::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--budget" => match it.next().and_then(|n| n.parse().ok()) {
                Some(n) => budget = DefinabilityBudget::with_states(n),
                None => return Err("--budget needs a number".into()),
            },
            flag if flag.starts_with("--") => return Err(format!("unknown flag '{flag}'").into()),
            src => {
                if pattern.replace(src).is_some() {
                    return Err("expected exactly one regex argument".into());
                }
            }
        }
    }
    let pattern = pattern.ok_or("missing argument: regex")?;
    let re = Regex::parse(pattern)?;
    let mut alpha = re.symbols();
    if alpha.is_empty() {
        alpha = b"ab".to_vec();
    }
    match fc_definable_regex(&re, &alpha, &budget) {
        FcDefinability::Definable(expr) => {
            out!("L({pattern}) is FC-DEFINABLE")?;
            out!("witness: {expr}")?;
            let phi = definable_to_fc("x", &expr, &alpha);
            let printed = phi.to_string();
            if printed.len() <= 400 {
                out!("FC sentence for x: {printed}")?;
            } else {
                out!(
                    "FC sentence for x: {} … ({} chars)",
                    printed.chars().take(200).collect::<String>(),
                    printed.len()
                )?;
            }
        }
        FcDefinability::NotDefinable(ob) => {
            out!("L({pattern}) is NOT FC-DEFINABLE")?;
            out!("obstruction: {}", ob.describe())?;
            out!("separating family (i, word, accepted):")?;
            for (i, (w, acc)) in ob.separating_family(2).into_iter().enumerate() {
                let shown = if w.is_empty() {
                    "ε".to_string()
                } else {
                    w.to_string()
                };
                out!("  i={i}: {shown}  {}", if acc { "∈ L" } else { "∉ L" })?;
            }
        }
        FcDefinability::Inconclusive(why) => {
            out!("L({pattern}) is INCONCLUSIVE within budget")?;
            match why {
                Inconclusive::BudgetExceeded { states, budget } => out!(
                    "minimal DFA has {states} states, exceeding the budget of {budget}; \
                     raise --budget"
                )?,
                Inconclusive::Unresolved => out!(
                    "the language lies outside the witness class and no permutation \
                     obstruction was found — the oracle never guesses"
                )?,
            }
        }
    }
    Ok(())
}

/// `fc serve [--addr A] [--workers N] [--plan-cache N] [--port-file P]` —
/// bind the line-protocol query service and block until a client sends
/// `{"op":"shutdown"}`. With `--port-file`, the resolved address (useful
/// with an ephemeral `--addr 127.0.0.1:0`) is written to the given path
/// once the socket is bound — scripts wait on that file instead of racing
/// the bind.
fn cmd_serve(args: &[String]) -> Result<(), CliError> {
    let mut config = ServerConfig::default();
    let mut port_file: Option<&str> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--addr" => {
                config.addr = it.next().ok_or("--addr needs an address")?.clone();
            }
            "--workers" => match it.next().and_then(|n| n.parse().ok()) {
                Some(n) => config.workers = n,
                None => return Err("--workers needs a number".into()),
            },
            "--plan-cache" => match it.next().and_then(|n| n.parse().ok()) {
                Some(n) => config.engine.plan_cache_capacity = n,
                None => return Err("--plan-cache needs a number".into()),
            },
            "--port-file" => {
                port_file = Some(it.next().ok_or("--port-file needs a path")?);
            }
            other => return Err(format!("unknown argument '{other}'").into()),
        }
    }
    let server = Server::bind(config).map_err(|e| format!("bind failed: {e}"))?;
    let addr = server.local_addr();
    out!(
        "fc-serve listening on {addr} ({} workers)",
        server.worker_count()
    )?;
    if let Some(path) = port_file {
        std::fs::write(path, format!("{addr}\n")).map_err(|e| format!("writing {path}: {e}"))?;
    }
    server
        .run()
        .map_err(|e| format!("serve failed: {e}").into())
}
