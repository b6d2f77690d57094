//! Lint self-tests: the lexer corner cases, and each rule against its
//! committed fixture (`crates/lint/fixtures/`, excluded from workspace
//! scans so the findings asserted here never gate CI).

use super::*;

fn fixture(name: &str) -> &'static str {
    match name {
        "panics" => include_str!("../fixtures/panics.rs"),
        "fma" => include_str!("../fixtures/fma.rs"),
        "nondet" => include_str!("../fixtures/nondet.rs"),
        "unsafe" => include_str!("../fixtures/unsafe_no_safety.rs"),
        "hot" => include_str!("../fixtures/hot_path_alloc.rs"),
        other => panic!("unknown fixture {other}"),
    }
}

fn p(name: &str) -> PathBuf {
    PathBuf::from(format!("crates/lint/fixtures/{name}.rs"))
}

// --- lexer ---------------------------------------------------------------

#[test]
fn lexer_strips_line_comments() {
    let l = lex("let x = 1; // SAFETY: not really\n");
    assert_eq!(l[0].code.trim_end(), "let x = 1;");
    assert!(l[0].comment.contains("SAFETY:"));
}

#[test]
fn lexer_blanks_string_contents() {
    let l = lex(r#"let s = "call .unwrap() and panic!";"#);
    assert!(!l[0].code.contains("unwrap"));
    assert!(!l[0].code.contains("panic"));
    assert!(l[0].code.starts_with("let s = \""));
}

#[test]
fn lexer_handles_escaped_quote_in_string() {
    let l = lex(r#"let s = "a\"b.unwrap()"; x.unwrap();"#);
    assert_eq!(l[0].code.matches(".unwrap()").count(), 1, "{:?}", l[0]);
}

#[test]
fn lexer_handles_raw_strings() {
    let l = lex(r##"let s = r#"mul_add inside"#; y.mul_add(a, b);"##);
    assert_eq!(l[0].code.matches("mul_add").count(), 1, "{:?}", l[0]);
}

#[test]
fn lexer_tracks_multiline_block_comments() {
    let text = "a();\n/* commented\n .unwrap()\n still */ b();\n";
    let l = lex(text);
    assert!(l[2].code.is_empty());
    assert!(l[2].comment.contains(".unwrap()"));
    assert!(l[3].code.contains("b();"));
}

#[test]
fn lexer_char_literal_vs_lifetime() {
    let l = lex("fn f<'a>(c: char) -> bool { c == '\"' }");
    // The quote inside the char literal must not open a string.
    assert!(l[0].code.contains("'a"), "{:?}", l[0]);
    assert!(l[0].code.ends_with('}'), "{:?}", l[0]);
}

#[test]
fn lexer_multiline_string_carries_state() {
    let text = "let s = \"first\n.unwrap() second\";\nx.unwrap();";
    let l = lex(text);
    assert!(!l[1].code.contains(".unwrap()"), "{:?}", l[1]);
    assert!(l[2].code.contains(".unwrap()"));
}

#[test]
fn test_region_mask_covers_cfg_test_mod() {
    let lines = lex("fn a() {}\n#[cfg(test)]\nmod tests {\n  fn b() {}\n}\nfn c() {}\n");
    let mask = test_region_mask(&lines);
    assert_eq!(mask, vec![false, true, true, true, true, false]);
}

// --- rules vs fixtures ---------------------------------------------------

#[test]
fn panic_rule_on_fixture() {
    let f = scan_panics(&p("panics"), &lex(fixture("panics")));
    assert_eq!(f.len(), 4, "{f:#?}");
    assert!(f.iter().all(|x| x.rule == Rule::PanicFree));
    // All findings in `trips()` (lines 4..=14), none in the test mod.
    assert!(f.iter().all(|x| x.line <= 14), "{f:#?}");
}

#[test]
fn fma_rule_on_fixture() {
    let f = scan_fma(&p("fma"), &lex(fixture("fma")));
    assert_eq!(f.len(), 2, "{f:#?}");
    assert!(f.iter().all(|x| x.rule == Rule::NoFma));
}

#[test]
fn determinism_rule_on_fixture() {
    let f = scan_determinism(&p("nondet"), &lex(fixture("nondet")));
    assert_eq!(f.len(), 7, "{f:#?}");
    assert!(f.iter().all(|x| x.rule == Rule::Determinism));
    // The wrapper-ident function must contribute nothing.
    let does_not_trip_line = fixture("nondet")
        .lines()
        .position(|l| l.contains("fn does_not_trip"))
        .unwrap()
        + 1;
    assert!(f.iter().all(|x| x.line < does_not_trip_line), "{f:#?}");
}

#[test]
fn safety_rule_on_fixture() {
    let f = scan_safety(&p("unsafe"), &lex(fixture("unsafe")));
    assert_eq!(f.len(), 1, "{f:#?}");
    assert_eq!(f[0].rule, Rule::SafetyComment);
    assert_eq!(f[0].line, 5, "must flag only the undocumented block");
}

#[test]
fn hot_path_rule_on_fixture() {
    let f = scan_hot_path(&p("hot"), &lex(fixture("hot")));
    assert_eq!(f.len(), 5, "{f:#?}");
    assert!(f.iter().all(|x| x.rule == Rule::HotPathAlloc));
    // The untagged function below must contribute nothing.
    let untagged_line = fixture("hot")
        .lines()
        .position(|l| l.contains("fn does_not_trip"))
        .unwrap()
        + 1;
    assert!(f.iter().all(|x| x.line < untagged_line), "{f:#?}");
}

#[test]
fn scan_file_applies_scopes() {
    // The same text under a sparse path trips no-fma; under a core path
    // it does not (FMA is legal outside the bitwise kernels).
    let text = "pub fn f(a: f64) -> f64 { a.mul_add(a, a) }\n";
    let (sparse, _) = scan_file(Path::new("crates/sparse/src/x.rs"), text);
    let (core, _) = scan_file(Path::new("crates/core/src/x.rs"), text);
    assert_eq!(sparse.len(), 1);
    assert!(core.is_empty());
}

#[test]
fn scan_file_separates_panic_findings() {
    let text = "pub fn f(v: Option<u8>) -> u8 { v.unwrap() }\n";
    let (f, panics) = scan_file(Path::new("crates/core/src/x.rs"), text);
    assert!(f.is_empty());
    assert_eq!(panics.len(), 1);
    // Non-library paths skip the panic rule entirely.
    let (_, none) = scan_file(Path::new("crates/bench/src/x.rs"), text);
    assert!(none.is_empty());
}

#[test]
fn single_report_rule_flags_a_hand_built_report_in_library_code() {
    let text =
        "pub fn f() -> SolveReport {\n    SolveReport {\n        converged: true,\n    }\n}\n";
    let (f, _) = scan_file(Path::new("crates/net/src/lib.rs"), text);
    assert_eq!(f.len(), 1, "{f:#?}");
    assert_eq!((f[0].rule, f[0].line), (Rule::SingleReport, 2));
}

#[test]
fn single_report_rule_spares_report_rs_tests_declarations_and_other_crates() {
    let literal = "fn f() -> SolveReport { SolveReport { converged: true } }\n";
    for path in ["crates/core/src/report.rs", "crates/bench/src/lib.rs"] {
        let (f, _) = scan_file(Path::new(path), literal);
        assert!(f.is_empty(), "{path}: {f:#?}");
    }
    let text =
        "pub struct SolveReport {\n}\nimpl SolveReport {\n}\nimpl Clone for SolveReport {\n}\n\
                fn g() -> SolveReport {\n}\nstruct MySolveReport {\n}\n\
                #[cfg(test)]\nmod tests {\n    fn r() { SolveReport { x: 1 }; }\n}\n";
    let (f, _) = scan_file(Path::new("crates/core/src/fabric.rs"), text);
    assert!(f.is_empty(), "{f:#?}");
}

#[test]
fn single_scorer_rule_flags_a_private_residual_or_rms_in_core_and_net() {
    let text = "pub fn f(a: &Csr, x: &[f64], b: &[f64]) -> f64 {\n    \
                let rms = dtm_sparse::vector::rms_error(x, b);\n    \
                a.residual_norm(x, b) + rms\n}\n\
                fn g(ss: &SplitSystem) -> Csr { ss.reconstruct().0 }\n";
    for path in ["crates/net/src/runner.rs", "crates/core/src/fabric.rs"] {
        let (f, _) = scan_file(Path::new(path), text);
        let at: Vec<_> = f.iter().map(|f| (f.rule, f.line)).collect();
        assert_eq!(
            at,
            [
                (Rule::SingleScorer, 2),
                (Rule::SingleScorer, 3),
                (Rule::SingleScorer, 5)
            ],
            "{path}"
        );
    }
    // The scorer's home may score, but not re-sum the split either.
    let (f, _) = scan_file(Path::new("crates/core/src/monitor.rs"), text);
    let at: Vec<_> = f.iter().map(|f| (f.rule, f.line)).collect();
    assert_eq!(at, [(Rule::SingleScorer, 5)]);
}

#[test]
fn single_scorer_rule_spares_the_monitor_tests_other_names_and_other_crates() {
    let call = "pub fn f(a: &Csr, x: &[f64]) -> f64 { a.residual_norm(x, x) }\n";
    for path in [
        "crates/core/src/monitor.rs",
        "crates/sparse/src/csr.rs",
        "crates/bench/src/perf.rs",
        "crates/net/tests/distributed.rs",
    ] {
        let (f, _) = scan_file(Path::new(path), call);
        assert!(f.is_empty(), "{path}: {f:#?}");
    }
    let text = "fn g(m: &M) -> f64 { m.my_rms_error(1) + check_reconstruction(m) }\n\
                #[cfg(test)]\nmod tests {\n    fn r(a: &Csr) { a.residual_norm(&[], &[]); }\n    \
                fn s(ss: &SplitSystem) { ss.reconstruct(); }\n}\n";
    let (f, _) = scan_file(Path::new("crates/core/src/session.rs"), text);
    assert!(f.is_empty(), "{f:#?}");
}

#[test]
fn checked_index_rule_flags_a_bare_u32_cast_in_sparse_library_code() {
    let text = "fn f(i: usize) -> u32 {\n    i as u32\n}\n\
                fn g(v: &[usize]) -> Vec<u32> { v.iter().map(|&i| i as  u32).collect() }\n";
    let (f, _) = scan_file(Path::new("crates/sparse/src/csr.rs"), text);
    let at: Vec<_> = f.iter().map(|f| (f.rule, f.line)).collect();
    assert_eq!(
        at,
        [(Rule::CheckedIndex, 2), (Rule::CheckedIndex, 4)],
        "{f:#?}"
    );
}

#[test]
fn checked_index_rule_spares_checked_narrowing_tests_and_other_crates() {
    let checked = "fn f(i: usize, c: u32) -> usize {\n    \
                   let n = u32::try_from(i).unwrap_or(u32::MAX);\n    \
                   c as usize + n.as_u32() as usize // a cast as u32 in prose\n}\n\
                   #[cfg(test)]\nmod tests {\n    fn t(i: usize) -> u32 { i as u32 }\n}\n";
    let (f, _) = scan_file(Path::new("crates/sparse/src/coo.rs"), checked);
    assert!(f.is_empty(), "{f:#?}");
    let cast = "fn f(i: usize) -> u32 { i as u32 }\n";
    for path in [
        "crates/core/src/impedance.rs",
        "crates/sparse/tests/block_solve_props.rs",
        "crates/net/src/wire.rs",
    ] {
        let (f, _) = scan_file(Path::new(path), cast);
        assert!(f.is_empty(), "{path}: {f:#?}");
    }
}

// --- allowlist -----------------------------------------------------------

#[test]
fn allowlist_roundtrip() {
    let mut counts = BTreeMap::new();
    counts.insert("crates/core/src/a.rs".to_string(), 3);
    counts.insert("crates/core/src/b.rs".to_string(), 0);
    let text = render_allowlist(&counts);
    let back = parse_allowlist(&text);
    assert_eq!(back.get("crates/core/src/a.rs"), Some(&3));
    assert!(!back.contains_key("crates/core/src/b.rs"), "zeros dropped");
}

#[test]
fn allowlist_ignores_comments_and_garbage() {
    let m = parse_allowlist("# header\n\nnot-a-count x.rs\n2 crates/a.rs\n");
    assert_eq!(m.len(), 1);
    assert_eq!(m.get("crates/a.rs"), Some(&2));
}

// --- the real tree -------------------------------------------------------

#[test]
fn workspace_is_lint_clean() {
    let root = find_root(Path::new(env!("CARGO_MANIFEST_DIR"))).expect("workspace root");
    let s = run(&root, false).expect("lint run");
    assert!(s.files_scanned > 30, "scanned only {}", s.files_scanned);
    let report: Vec<String> = s.findings.iter().map(ToString::to_string).collect();
    assert!(
        s.findings.is_empty(),
        "tree not lint-clean:\n{}",
        report.join("\n")
    );
}
