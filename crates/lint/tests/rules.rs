//! Fixture tests: each rule fires on its fixture, clean code passes, each
//! waiver form works, and stale waivers are reported.
//!
//! The fixtures under `tests/fixtures/` are lexed, never compiled; each one
//! is linted as if it lived at a path inside the rule's scope. Deleting any
//! rule's implementation makes at least one of these tests fail.

use peercache_lint::waivers::{current_pr_from_changes, stale_waivers};
use peercache_lint::{
    apply_waivers, lint_source, parse_waivers, unreferenced_pub_fns, ParsedFile, Violation,
};

fn fixture(name: &str) -> String {
    let path = format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {path}: {e}"))
}

fn rules_fired(violations: &[Violation]) -> Vec<&'static str> {
    let mut rules: Vec<&'static str> = violations.iter().map(|v| v.rule).collect();
    rules.sort_unstable();
    rules.dedup();
    rules
}

#[test]
fn d1_fires_on_hash_collections() {
    let v = lint_source(
        "core",
        "crates/core/src/fixture.rs",
        &fixture("d1_hash_collections.rs"),
    );
    assert_eq!(rules_fired(&v), ["D1"]);
    // Both the `use` paths and the type annotations fire.
    assert!(v.len() >= 4, "expected every HashMap/HashSet token: {v:#?}");
}

#[test]
fn d1_is_scoped_to_deterministic_crates() {
    let v = lint_source(
        "obs",
        "crates/obs/src/fixture.rs",
        &fixture("d1_hash_collections.rs"),
    );
    assert!(v.is_empty(), "obs is outside D1 scope: {v:#?}");
}

#[test]
fn d2_fires_on_ambient_time_and_rng() {
    let v = lint_source(
        "core",
        "crates/core/src/fixture.rs",
        &fixture("d2_ambient_time.rs"),
    );
    assert_eq!(rules_fired(&v), ["D2"]);
    let snippets: String = v.iter().map(|x| x.snippet.as_str()).collect();
    assert!(snippets.contains("Instant"));
    assert!(snippets.contains("SystemTime"));
    assert!(snippets.contains("thread_rng"));
}

#[test]
fn d2_exempts_obs_and_bench() {
    for crate_name in ["obs", "bench"] {
        let v = lint_source(
            crate_name,
            &format!("crates/{crate_name}/src/fixture.rs"),
            &fixture("d2_ambient_time.rs"),
        );
        assert!(v.is_empty(), "{crate_name} is D2-exempt: {v:#?}");
    }
}

#[test]
fn p1_fires_on_every_panic_vector() {
    let v = lint_source(
        "dist",
        "crates/dist/src/fixture.rs",
        &fixture("p1_panic_paths.rs"),
    );
    assert_eq!(rules_fired(&v), ["P1"]);
    let snippets: String = v.iter().map(|x| x.snippet.as_str()).collect();
    for vector in ["unwrap", "expect", "panic!", "todo!", "unreachable!"] {
        assert!(snippets.contains(vector), "missing {vector}: {v:#?}");
    }
}

#[test]
fn p1_is_scoped_to_protocol_paths() {
    // The same code outside dist / core::world is not P1's business.
    let v = lint_source(
        "core",
        "crates/core/src/planner.rs",
        &fixture("p1_panic_paths.rs"),
    );
    assert!(v.is_empty(), "P1 scope leaked: {v:#?}");
    // ...but core::world is in scope.
    let v = lint_source(
        "core",
        "crates/core/src/world.rs",
        &fixture("p1_panic_paths.rs"),
    );
    assert_eq!(rules_fired(&v), ["P1"]);
}

#[test]
fn n1_fires_on_float_and_cost_equality() {
    let v = lint_source(
        "core",
        "crates/core/src/fixture.rs",
        &fixture("n1_float_eq.rs"),
    );
    assert_eq!(rules_fired(&v), ["N1"]);
    assert_eq!(
        v.len(),
        3,
        "literal, cost-ident, and fairness sites: {v:#?}"
    );
}

#[test]
fn n1_exempts_the_helper_module() {
    let v = lint_source(
        "core",
        "crates/core/src/costs.rs",
        &fixture("n1_float_eq.rs"),
    );
    assert!(v.is_empty(), "core::costs defines the helpers: {v:#?}");
}

#[test]
fn s1_fires_on_dense_apsp_outside_the_allowed_files() {
    // The scoped store solves only its blocks' rows, so an all-pairs
    // compute there is as much a regression as one in the planner.
    for path in ["crates/core/src/planner.rs", "crates/core/src/scoped.rs"] {
        let v = lint_source("core", path, &fixture("s1_dense_apsp.rs"));
        assert_eq!(rules_fired(&v), ["S1"], "{path}");
        assert_eq!(
            v.len(),
            2,
            "compute and compute_with call sites in {path}; doc links and \
             cfg(test) regions stay quiet: {v:#?}"
        );
    }
}

#[test]
fn s1_exempts_the_sanctioned_files() {
    for (crate_name, path) in [
        ("graph", "crates/graph/src/paths.rs"),
        ("core", "crates/core/src/costs.rs"),
    ] {
        let v = lint_source(crate_name, path, &fixture("s1_dense_apsp.rs"));
        assert!(
            !v.iter().any(|x| x.rule == "S1"),
            "S1 must not fire in {path}: {v:#?}"
        );
    }
}

#[test]
fn s1_violations_are_waivable_by_snippet() {
    let violations = lint_source(
        "dist",
        "crates/dist/src/view.rs",
        &fixture("s1_dense_apsp.rs"),
    );
    let s1_count = violations.iter().filter(|v| v.rule == "S1").count();
    assert_eq!(s1_count, 2);
    let waivers = parse_waivers(
        r#"
[[waiver]]
rule = "S1"
file = "crates/dist/src/view.rs"
contains = "AllPairsPaths::compute(g, costs"
justification = "fixture: bounded-subgraph compute, deliberately waived"
added_in = "PR 9"
re_audit_after = "PR 14"
"#,
    )
    .unwrap();
    let report = apply_waivers(violations, &waivers);
    assert_eq!(report.waived.len(), 1);
    assert!(report.unused.is_empty());
}

#[test]
fn clean_code_passes_everywhere() {
    for (crate_name, path) in [
        ("core", "crates/core/src/world.rs"),
        ("dist", "crates/dist/src/sim.rs"),
        ("graph", "crates/graph/src/paths.rs"),
        ("lp", "crates/lp/src/simplex.rs"),
    ] {
        let v = lint_source(crate_name, path, &fixture("clean.rs"));
        assert!(v.is_empty(), "clean fixture flagged in {path}: {v:#?}");
    }
}

#[test]
fn test_only_code_is_exempt() {
    let v = lint_source(
        "dist",
        "crates/dist/src/fixture.rs",
        &fixture("test_exempt.rs"),
    );
    assert!(v.is_empty(), "cfg(test) region not exempted: {v:#?}");
}

#[test]
fn waivers_silence_matching_violations_only() {
    let violations = lint_source(
        "dist",
        "crates/dist/src/fixture.rs",
        &fixture("p1_panic_paths.rs"),
    );
    let total = violations.len();
    assert!(total >= 5);
    let waivers = parse_waivers(
        r#"
# One matching waiver, keyed by snippet.
[[waiver]]
rule = "P1"
file = "crates/dist/src/fixture.rs"
contains = "slot.expect("
justification = "fixture: deliberately waived"
added_in = "PR 9"
re_audit_after = "PR 14"
"#,
    )
    .unwrap();
    let report = apply_waivers(violations, &waivers);
    assert_eq!(report.waived.len(), 1);
    assert_eq!(report.unwaived.len(), total - 1);
    assert!(report.unused.is_empty());
}

#[test]
fn stale_waivers_are_reported() {
    let violations = lint_source(
        "core",
        "crates/core/src/fixture.rs",
        &fixture("n1_float_eq.rs"),
    );
    let waivers = parse_waivers(
        r#"
[[waiver]]
rule = "N1"
file = "crates/core/src/fixture.rs"
contains = "this snippet no longer exists"
justification = "stale entry"
added_in = "PR 9"
re_audit_after = "PR 14"
"#,
    )
    .unwrap();
    let report = apply_waivers(violations, &waivers);
    assert_eq!(report.waived.len(), 0);
    assert_eq!(report.unused, vec![0]);
}

/// Runs U1 over `(path, source)` pairs and returns one message per flagged
/// function.
fn u1(files: &[(&str, &str)]) -> Vec<String> {
    let files: Vec<ParsedFile> = files
        .iter()
        .map(|(p, s)| ParsedFile::lex("fixture", p, s))
        .collect();
    unreferenced_pub_fns(&files)
        .into_iter()
        .map(|v| {
            assert_eq!(v.rule, "U1");
            v.message
        })
        .collect()
}

const U1_LIB: &str = "crates/core/src/lib_fixture.rs";

#[test]
fn u1_fires_on_an_unreferenced_pub_fn() {
    let v = u1(&[(
        U1_LIB,
        "pub fn orphan() -> u32 { 7 }\npub(crate) fn internal() {}\n",
    )]);
    assert_eq!(v.len(), 1, "{v:?}");
    assert!(v[0].contains("`pub fn orphan`"), "{}", v[0]);
}

#[test]
fn u1_fires_on_a_pub_fn_named_only_in_its_own_tests() {
    let src = "pub fn only_tested() -> u32 { 7 }\n\
               #[cfg(test)]\nmod tests {\n    #[test]\n    \
               fn t() { assert_eq!(super::only_tested(), 7); }\n}\n";
    let v = u1(&[(U1_LIB, src)]);
    assert_eq!(v.len(), 1, "{v:?}");
    assert!(v[0].contains("only_tested"), "{}", v[0]);
    // Test-only `pub fn`s are not candidates themselves.
    let v = u1(&[(U1_LIB, "#[cfg(test)]\nmod tests { pub fn helper() {} }\n")]);
    assert!(v.is_empty(), "{v:?}");
}

#[test]
fn u1_is_quiet_when_anything_else_names_the_function() {
    let def = "pub fn used() -> u32 { 7 }\n";
    // Another workspace file: a sibling source, an integration test.
    for user in [
        "crates/dist/src/x.rs",
        "crates/core/tests/x.rs",
        "tests/x.rs",
    ] {
        let v = u1(&[(U1_LIB, def), (user, "fn f() { core::used(); }")]);
        assert!(v.is_empty(), "{user}: {v:?}");
    }
    // The benchmark package, which calls layer functions directly.
    let v = u1(&[
        (U1_LIB, def),
        ("benchmark/src/plan.rs", "fn f() { used(); }"),
    ]);
    assert!(v.is_empty(), "{v:?}");
    // Its own file's non-test code.
    let v = u1(&[(
        U1_LIB,
        "pub fn used() -> u32 { 7 }\npub fn caller() { used(); }\n",
    )]);
    assert_eq!(v.len(), 1, "only `caller` is unreferenced: {v:?}");
    assert!(v[0].contains("`pub fn caller`"), "{}", v[0]);
    // Files outside `crates/*/src` are references, never candidates.
    let v = u1(&[("benchmark/src/plan.rs", def), ("tests/x.rs", def)]);
    assert!(v.is_empty(), "{v:?}");
}

#[test]
fn u1_cannot_be_waived() {
    let err = parse_waivers(&entry("U1", 0)).unwrap_err();
    assert!(err.contains("cannot be waived"), "{err}");
}

/// A complete, valid waiver entry with the given rule, for budget tests.
fn entry(rule: &str, n: usize) -> String {
    format!(
        "[[waiver]]\nrule = \"{rule}\"\nfile = \"crates/x/src/f{n}.rs\"\n\
         contains = \"site{n}\"\n\
         justification = \"budget fixture entry with a long enough justification text\"\n\
         added_in = \"PR 9\"\nre_audit_after = \"PR 14\"\n"
    )
}

#[test]
fn waiver_parser_rejects_malformed_entries() {
    // Missing justification (stamps present so the gap is unambiguous).
    let err = parse_waivers(
        "[[waiver]]\nrule = \"D1\"\nfile = \"x.rs\"\ncontains = \"HashMap\"\n\
         added_in = \"PR 9\"\nre_audit_after = \"PR 14\"\n",
    )
    .unwrap_err();
    assert!(err.contains("justification"), "{err}");
    // Unknown key.
    let err = parse_waivers("[[waiver]]\nrule = \"D1\"\nline = \"12\"\n").unwrap_err();
    assert!(err.contains("unknown key"), "{err}");
    // Value outside any entry.
    let err = parse_waivers("rule = \"D1\"\n").unwrap_err();
    assert!(err.contains("before any"), "{err}");
    // Unquoted value.
    let err = parse_waivers("[[waiver]]\nrule = D1\n").unwrap_err();
    assert!(err.contains("double-quoted"), "{err}");
}

#[test]
fn waiver_parser_requires_pr_stamps() {
    // Missing added_in.
    let err = parse_waivers(
        "[[waiver]]\nrule = \"D1\"\nfile = \"x.rs\"\ncontains = \"HashMap\"\n\
         justification = \"a justification long enough to clear the length gate\"\n",
    )
    .unwrap_err();
    assert!(err.contains("added_in"), "{err}");
    // Malformed stamp.
    let err = parse_waivers(
        "[[waiver]]\nrule = \"D1\"\nfile = \"x.rs\"\ncontains = \"HashMap\"\n\
         justification = \"a justification long enough to clear the length gate\"\n\
         added_in = \"nine\"\nre_audit_after = \"PR 14\"\n",
    )
    .unwrap_err();
    assert!(err.contains("PR 9"), "{err}");
    // re_audit_after before added_in.
    let err = parse_waivers(
        "[[waiver]]\nrule = \"D1\"\nfile = \"x.rs\"\ncontains = \"HashMap\"\n\
         justification = \"a justification long enough to clear the length gate\"\n\
         added_in = \"PR 9\"\nre_audit_after = \"PR 8\"\n",
    )
    .unwrap_err();
    assert!(err.contains("precedes"), "{err}");
}

#[test]
fn waiver_budgets_are_hard_limits() {
    // 11 entries breach the total budget of 10.
    let text: String = (0..11)
        .map(|n| entry(["D1", "D2", "P1", "N1"][n % 4], n))
        .collect();
    let err = parse_waivers(&text).unwrap_err();
    assert!(err.contains("budget"), "{err}");
    // 5 entries for one rule breach the per-rule budget of 4.
    let text: String = (0..5).map(|n| entry("N1", n)).collect();
    let err = parse_waivers(&text).unwrap_err();
    assert!(err.contains("per-rule"), "{err}");
    // 10 total with at most 4 per rule parses.
    let text: String = (0..10)
        .map(|n| entry(["D1", "D2", "P1", "N1"][n % 4], n))
        .collect();
    assert_eq!(parse_waivers(&text).unwrap().len(), 10);
}

#[test]
fn stale_waiver_metadata_is_reported() {
    let waivers = parse_waivers(&entry("N1", 0)).unwrap();
    // At or before the re-audit PR: fresh.
    assert!(stale_waivers(&waivers, 9).is_empty());
    assert!(stale_waivers(&waivers, 14).is_empty());
    // Past it: stale, with an actionable message.
    let stale = stale_waivers(&waivers, 15);
    assert_eq!(stale.len(), 1);
    assert!(stale[0].1.contains("re-audit"), "{}", stale[0].1);
}

#[test]
fn current_pr_is_derived_from_changes_md() {
    assert_eq!(current_pr_from_changes(""), 1);
    assert_eq!(
        current_pr_from_changes("- PR 3: things\n- PR 8: more things\n- PR 5: other\n"),
        9
    );
}

#[test]
fn the_committed_waiver_file_parses_within_budget() {
    let path = format!("{}/../../lint-waivers.toml", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(path).unwrap();
    let waivers = parse_waivers(&text).unwrap();
    assert!(waivers.len() <= 10, "waiver budget exceeded");
    for w in &waivers {
        assert!(
            w.justification.len() >= 40,
            "waiver for {} needs a real justification",
            w.file
        );
    }
}
