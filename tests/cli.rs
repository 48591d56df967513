//! End-to-end tests of the `fc` command-line binary.

use std::process::{Command, Stdio};

fn fc(args: &[&str]) -> (String, String, bool) {
    let out = Command::new(env!("CARGO_BIN_EXE_fc"))
        .args(args)
        .output()
        .expect("spawn fc");
    (
        String::from_utf8_lossy(&out.stdout).to_string(),
        String::from_utf8_lossy(&out.stderr).to_string(),
        out.status.success(),
    )
}

#[test]
fn check_command_model_checks() {
    let (stdout, _, ok) = fc(&["check", "E x, y: (x = y.y)", "abab"]);
    assert!(ok);
    assert!(stdout.contains("true"), "{stdout}");
    let (stdout, _, ok) = fc(&["check", "E x, y: (x = y.y) & !(y = eps)", "aba"]);
    assert!(ok);
    assert!(stdout.contains("false"), "{stdout}");
}

#[test]
fn solve_command_lists_assignments() {
    let (stdout, _, ok) = fc(&["solve", "x = y.y", "aa"]);
    assert!(ok);
    assert!(stdout.contains("2 assignment"), "{stdout}");
}

#[test]
fn stats_flag_reports_plan_and_run_counters() {
    let (stdout, _, ok) = fc(&["check", "E x, y: (x = y.y)", "abab", "--stats"]);
    assert!(ok);
    assert!(stdout.contains("true"), "{stdout}");
    assert!(stdout.contains("stats: plan:"), "{stdout}");
    assert!(stdout.contains("guarded blocks"), "{stdout}");
    assert!(stdout.contains("frames"), "{stdout}");
    let (stdout, _, ok) = fc(&["solve", "x = y.y", "aa", "--stats"]);
    assert!(ok);
    assert!(stdout.contains("2 assignment"), "{stdout}");
    assert!(stdout.contains("stats: plan:"), "{stdout}");
    // Unknown flags are rejected, not silently ignored.
    let (_, stderr, ok) = fc(&["check", "x = eps", "a", "--frobnicate"]);
    assert!(!ok);
    assert!(stderr.contains("unknown flag"), "{stderr}");
}

#[test]
fn game_command_reports_verdict_and_certificate() {
    let (stdout, _, ok) = fc(&["game", "ab", "ba", "1"]);
    assert!(ok);
    assert!(stdout.contains("false"), "{stdout}");
    assert!(stdout.contains("certificate"), "{stdout}");
    let (stdout, _, ok) = fc(&["game", "aaa", "aaaa", "1"]);
    assert!(ok);
    assert!(stdout.contains("true"), "{stdout}");
    // A pair refuted at rank 2 but not at rank 1: the winning line and the
    // certificate's rank are pinned.
    let (stdout, _, ok) = fc(&["game", "aaba", "abaa", "2"]);
    assert!(ok);
    assert!(
        stdout.contains(
            "Spoiler winning line:\n  round 1: pick A:aa\n  round 2: pick A:aab\ncertificate (qr ≤ 2): "
        ),
        "{stdout}"
    );
}

#[test]
fn closed_stdout_stops_quietly() {
    // The read end is closed before the child starts, so its first line
    // already meets a broken pipe: no panic, no message, exit status 0.
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    let out = Command::new(env!("CARGO_BIN_EXE_fc"))
        .args(["game", "abab", "baba", "2"])
        .stdout(writer)
        .stderr(Stdio::piped())
        .output()
        .expect("spawn fc");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.is_empty(), "{stderr}");
    assert_eq!(out.status.code(), Some(0));
}

#[test]
fn classes_command_prints_the_table() {
    let (stdout, _, ok) = fc(&["classes", "1", "8"]);
    assert!(ok);
    assert!(stdout.contains("minimal pair: a^3 ≡_1 a^4"), "{stdout}");
}

#[test]
fn fooling_command_produces_verified_pairs() {
    let (stdout, _, ok) = fc(&["fooling", "anbn", "1"]);
    assert!(ok);
    assert!(stdout.contains("solver-confirmed"), "{stdout}");
}

#[test]
fn bounded_command_decides() {
    let (stdout, _, ok) = fc(&["bounded", "a*b*"]);
    assert!(ok);
    assert!(stdout.contains("BOUNDED"), "{stdout}");
    let (stdout, _, ok) = fc(&["bounded", "(a|b)*"]);
    assert!(ok);
    assert!(stdout.contains("UNBOUNDED"), "{stdout}");
}

#[test]
fn bad_usage_fails_with_message() {
    let (_, stderr, ok) = fc(&["frobnicate"]);
    assert!(!ok);
    assert!(stderr.contains("usage"), "{stderr}");
    let (_, stderr, ok) = fc(&["check", "E x (x = eps)", "a"]);
    assert!(!ok);
    assert!(!stderr.is_empty());
}

fn fc_code(args: &[&str]) -> (String, String, i32) {
    let out = Command::new(env!("CARGO_BIN_EXE_fc"))
        .args(args)
        .output()
        .expect("spawn fc");
    (
        String::from_utf8_lossy(&out.stdout).to_string(),
        String::from_utf8_lossy(&out.stderr).to_string(),
        out.status.code().expect("exit code"),
    )
}

#[test]
fn lint_clean_formula_exits_zero() {
    let (stdout, _, code) = fc_code(&["lint", "E x, y: y = x.x"]);
    assert_eq!(code, 0, "{stdout}");
    assert!(
        stdout.contains("0 error(s), 0 warning(s), 0 note(s)"),
        "{stdout}"
    );
}

#[test]
fn lint_deny_warnings_turns_warnings_into_failure() {
    // A vacuous quantifier is a warning: exit 0 normally, 1 under
    // --deny-warnings.
    let (stdout, _, code) = fc_code(&["lint", "E x, y: x = eps"]);
    assert_eq!(code, 0, "{stdout}");
    assert!(stdout.contains("warning[FC003]"), "{stdout}");
    let (stdout, _, code) = fc_code(&["lint", "E x, y: x = eps", "--deny-warnings"]);
    assert_eq!(code, 1, "{stdout}");
}

#[test]
fn lint_errors_exit_one_even_without_deny() {
    let (stdout, _, code) = fc_code(&["lint", "E x: x in /!/"]);
    assert_eq!(code, 1, "{stdout}");
    assert!(stdout.contains("error[FC101]"), "{stdout}");
}

#[test]
fn lint_usage_errors_exit_two() {
    let (_, stderr, code) = fc_code(&["lint", "--frobnicate", "x = eps"]);
    assert_eq!(code, 2, "{stderr}");
    assert!(stderr.contains("usage"), "{stderr}");
    let (_, _, code) = fc_code(&["lint"]);
    assert_eq!(code, 2);
    let (_, stderr, code) = fc_code(&["lint", "x = eps", "--allow", "FC999"]);
    assert_eq!(code, 2, "{stderr}");
    let (_, _, code) = fc_code(&["lint", "x = eps", "--qr-budget", "many"]);
    assert_eq!(code, 2);
}

#[test]
fn lint_json_output_is_stable_and_parseable() {
    let src = "E x: E x: x = eps";
    let (stdout, _, code) = fc_code(&["lint", src, "--json"]);
    assert_eq!(code, 0, "{stdout}");
    let v = fc_suite::json::parse(&stdout).expect("valid JSON");
    assert_eq!(v.get("formula").and_then(|f| f.as_str()), Some(src));
    let diags = v
        .get("diagnostics")
        .and_then(|d| d.as_array())
        .expect("diagnostics");
    assert_eq!(diags.len(), 2, "{stdout}");
    let codes: Vec<&str> = diags
        .iter()
        .filter_map(|d| d.get("code").and_then(|c| c.as_str()))
        .collect();
    assert_eq!(codes, ["FC001", "FC002"], "{stdout}");
    for d in diags {
        for key in ["code", "severity", "start", "end", "message"] {
            assert!(d.get(key).is_some(), "missing {key} in {stdout}");
        }
    }
    let counts = v.get("counts").expect("counts");
    assert_eq!(
        counts.get("warning").and_then(|n| n.as_f64()),
        Some(2.0),
        "{stdout}"
    );
    // Byte-stable across runs.
    let (again, _, _) = fc_code(&["lint", src, "--json"]);
    assert_eq!(stdout, again);
}

#[test]
fn lint_json_reports_parse_errors_as_fc000() {
    let (stdout, _, code) = fc_code(&["lint", "E x x = eps", "--json"]);
    assert_eq!(code, 1, "{stdout}");
    let v = fc_suite::json::parse(&stdout).expect("valid JSON");
    let diags = v
        .get("diagnostics")
        .and_then(|d| d.as_array())
        .expect("diagnostics");
    assert_eq!(diags.len(), 1);
    assert_eq!(diags[0].get("code").and_then(|c| c.as_str()), Some("FC000"));
    assert_eq!(diags[0].get("start").and_then(|s| s.as_f64()), Some(4.0));
}

#[test]
fn lint_flags_tune_the_analysis() {
    // --sentence promotes free variables to an error…
    let (stdout, _, code) = fc_code(&["lint", "x = y.y", "--sentence"]);
    assert_eq!(code, 1, "{stdout}");
    assert!(stdout.contains("error[FC006]"), "{stdout}");
    // …--pure rejects constraints…
    let (stdout, _, code) = fc_code(&["lint", "E x: x in /ab*/", "--pure"]);
    assert_eq!(code, 1, "{stdout}");
    assert!(stdout.contains("error[FC007]"), "{stdout}");
    // …and --allow suppresses a rule.
    let (stdout, _, code) = fc_code(&["lint", "E x, y: x = eps", "--allow", "FC003"]);
    assert_eq!(code, 0, "{stdout}");
    assert!(!stdout.contains("FC003"), "{stdout}");
}

#[test]
fn lint_rules_prints_the_registry() {
    let (stdout, _, code) = fc_code(&["lint", "--rules"]);
    assert_eq!(code, 0);
    for code in ["FC000", "FC001", "FC104"] {
        assert!(stdout.contains(code), "{stdout}");
    }
}

#[test]
fn definable_command_prints_witnesses() {
    let (stdout, _, ok) = fc(&["definable", "(ab)*"]);
    assert!(ok);
    assert!(stdout.contains("FC-DEFINABLE"), "{stdout}");
    assert!(stdout.contains("witness: (ab)*"), "{stdout}");
    assert!(stdout.contains("FC sentence"), "{stdout}");
}

#[test]
fn definable_command_prints_obstructions() {
    let (stdout, _, ok) = fc(&["definable", "(b|ab*a)*"]);
    assert!(ok);
    assert!(stdout.contains("NOT FC-DEFINABLE"), "{stdout}");
    assert!(stdout.contains("counts mod 2"), "{stdout}");
    assert!(stdout.contains("separating family"), "{stdout}");
    assert!(stdout.contains("∉ L"), "{stdout}");
}

#[test]
fn definable_command_reports_frontier_and_budget() {
    let (stdout, _, ok) = fc(&["definable", "(ab|ba)*"]);
    assert!(ok);
    assert!(stdout.contains("INCONCLUSIVE"), "{stdout}");
    assert!(stdout.contains("never guesses"), "{stdout}");
    let (stdout, _, ok) = fc(&["definable", "(b|ab*a)*", "--budget", "1"]);
    assert!(ok);
    assert!(stdout.contains("INCONCLUSIVE"), "{stdout}");
    assert!(stdout.contains("raise --budget"), "{stdout}");
    // Usage errors fail.
    let (_, stderr, ok) = fc(&["definable"]);
    assert!(!ok);
    assert!(stderr.contains("missing argument"), "{stderr}");
    let (_, stderr, ok) = fc(&["definable", "a*", "--frobnicate"]);
    assert!(!ok);
    assert!(stderr.contains("unknown flag"), "{stderr}");
}

#[test]
fn lint_fc201_notes_definable_constraints() {
    let (stdout, _, code) = fc_code(&["lint", "E x: x in /b(ab)*/"]);
    assert_eq!(code, 0, "{stdout}");
    assert!(stdout.contains("note[FC201]"), "{stdout}");
    assert!(stdout.contains("witness"), "{stdout}");
}

#[test]
fn lint_fc202_warns_and_respects_deny_and_allow() {
    let src = "E x: x in /(b|ab*a)*/";
    let (stdout, _, code) = fc_code(&["lint", src]);
    assert_eq!(code, 0, "{stdout}");
    assert!(stdout.contains("warning[FC202]"), "{stdout}");
    assert!(stdout.contains("load-bearing"), "{stdout}");
    let (_, _, code) = fc_code(&["lint", src, "--deny-warnings"]);
    assert_eq!(code, 1);
    let (stdout, _, code) = fc_code(&["lint", src, "--allow", "FC202", "--deny-warnings"]);
    assert_eq!(code, 0, "{stdout}");
    assert!(!stdout.contains("FC202"), "{stdout}");
}

#[test]
fn lint_fc2_budget_flag_gates_the_family() {
    let src = "E x: x in /(b|ab*a)*/";
    let (stdout, _, code) = fc_code(&["lint", src, "--fc2-budget", "0"]);
    assert_eq!(code, 0, "{stdout}");
    assert!(!stdout.contains("FC202"), "{stdout}");
    let (_, _, code) = fc_code(&["lint", src, "--fc2-budget", "many"]);
    assert_eq!(code, 2);
}

#[test]
fn lint_json_carries_fc2_diagnostics() {
    let (stdout, _, code) = fc_code(&[
        "lint",
        "E x, y: (x in /b(ab)*/) & (y in /(b|ab*a)*/)",
        "--json",
    ]);
    assert_eq!(code, 0, "{stdout}");
    let v = fc_suite::json::parse(&stdout).expect("valid JSON");
    let diags = v
        .get("diagnostics")
        .and_then(|d| d.as_array())
        .expect("diagnostics");
    let codes: Vec<&str> = diags
        .iter()
        .filter_map(|d| d.get("code").and_then(|c| c.as_str()))
        .collect();
    assert!(codes.contains(&"FC201"), "{stdout}");
    assert!(codes.contains(&"FC202"), "{stdout}");
    let counts = v.get("counts").expect("counts");
    assert_eq!(counts.get("warning").and_then(|n| n.as_f64()), Some(1.0));
    assert_eq!(counts.get("note").and_then(|n| n.as_f64()), Some(1.0));
}

#[test]
fn lint_rules_lists_the_fc2_family() {
    let (stdout, _, code) = fc_code(&["lint", "--rules"]);
    assert_eq!(code, 0);
    assert!(stdout.contains("FC201"), "{stdout}");
    assert!(stdout.contains("FC202"), "{stdout}");
}

#[test]
fn check_and_solve_are_lint_gated() {
    // Lint errors abort `fc check` before evaluation…
    let (_, stderr, ok) = fc(&["check", "E x: x in /!/", "ab"]);
    assert!(!ok);
    assert!(stderr.contains("FC101"), "{stderr}");
    // …and `fc solve` too, while warnings only go to stderr.
    let (_, stderr, ok) = fc(&["solve", "E y: x = y.y", "aa"]);
    assert!(ok, "{stderr}");
    assert!(stderr.contains("FC002") || stderr.is_empty(), "{stderr}");
    let (stdout, stderr, ok) = fc(&["solve", "E u: (u = eps) & (x = x)", "a"]);
    assert!(ok);
    assert!(stderr.contains("FC005"), "{stderr}");
    assert!(stdout.contains("assignment"), "{stdout}");
}
