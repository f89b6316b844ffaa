//! Semantic-rule fixture tests (T1 / C1 / A1) and the parse-coverage
//! self-test.
//!
//! The fixtures under `tests/fixtures/` are parsed into a one-file
//! workspace and run through the full semantic pipeline (item parser →
//! call graph → dataflow → rules), as if each lived at a path inside the
//! rule's scope. Every rule has a positive fixture (each escape vector
//! fires) and a negative one (the sanctioned/sanitized twin stays
//! quiet). The coverage test at the bottom pins the item parser against
//! the real workspace: every `.rs` file must parse with zero recorded
//! errors, so the parser's approximations can never silently drift away
//! from the code the semantic rules run on.

use std::path::{Path, PathBuf};

use peercache_lint::dataflow::Workspace;
use peercache_lint::parser::parse_file;
use peercache_lint::semantic::analyze;
use peercache_lint::Violation;

fn fixture(name: &str) -> String {
    let path = format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {path}: {e}"))
}

/// Parse one fixture as a single-file workspace and run the semantic
/// rules over it.
fn analyze_fixture(crate_name: &str, rel_path: &str, name: &str) -> Vec<Violation> {
    let src = fixture(name);
    let file = parse_file(crate_name, rel_path, &src);
    assert!(
        file.errors.is_empty(),
        "fixture {name} must parse: {:?}",
        file.errors
    );
    analyze(&Workspace::build(vec![file]))
}

fn rules_fired(violations: &[Violation]) -> Vec<&'static str> {
    let mut rules: Vec<&'static str> = violations.iter().map(|v| v.rule).collect();
    rules.sort_unstable();
    rules.dedup();
    rules
}

// ---------------------------------------------------------------- T1

#[test]
fn t1_fires_on_cross_function_taint() {
    let v = analyze_fixture("core", "crates/core/src/fixture.rs", "t1_taint_flow.rs");
    assert_eq!(rules_fired(&v), ["T1"], "{v:#?}");
    assert_eq!(v.len(), 2, "digest sink + emission sink: {v:#?}");

    // The ambient-time flow into `state_digest` crosses two call edges,
    // so its trace must walk the chain back to the `Instant` read.
    let digest = v
        .iter()
        .find(|x| x.message.contains("state_digest"))
        .expect("digest finding");
    assert!(
        digest.message.contains("ambient-time"),
        "{}",
        digest.message
    );
    assert!(
        digest.trace.len() >= 3,
        "expected a multi-hop flow trace: {:#?}",
        digest.trace
    );
    assert!(
        digest.trace.iter().any(|t| t.contains("ambient_seed")),
        "trace must reach the source: {:#?}",
        digest.trace
    );

    // The hash-order flow is local evidence feeding a telemetry sink.
    let report = v
        .iter()
        .find(|x| x.message.contains("obs::event!"))
        .expect("emission finding");
    assert!(
        report.message.contains("hash-iteration-order"),
        "{}",
        report.message
    );
}

#[test]
fn t1_exempt_crates_stay_quiet() {
    for crate_name in ["bench", "lint"] {
        let v = analyze_fixture(
            crate_name,
            &format!("crates/{crate_name}/src/fixture.rs"),
            "t1_taint_flow.rs",
        );
        assert!(
            !v.iter().any(|x| x.rule == "T1"),
            "{crate_name} is T1-exempt: {v:#?}"
        );
    }
}

#[test]
fn t1_sanctioned_boundaries_and_sanitizers_cut_the_flow() {
    let v = analyze_fixture("core", "crates/core/src/fixture.rs", "t1_clean.rs");
    assert!(v.is_empty(), "clean T1 fixture flagged: {v:#?}");
}

// ---------------------------------------------------------------- C1

#[test]
fn c1_fires_on_every_escape_vector() {
    let v = analyze_fixture("core", "crates/core/src/fixture.rs", "c1_shard_escape.rs");
    assert_eq!(rules_fired(&v), ["C1"], "{v:#?}");
    let messages: String = v.iter().map(|x| x.message.as_str()).collect();
    for vector in [
        "&mut acc",        // outer &mut capture
        "obs::counter",    // direct emission from a worker
        "emit_progress",   // resolved call reaching emission
        "caller-supplied", // unresolvable Fn-param call
    ] {
        assert!(messages.contains(vector), "missing {vector}: {v:#?}");
    }
    assert!(v.len() >= 4, "every escape vector fires once: {v:#?}");
}

#[test]
fn c1_exempt_crates_stay_quiet() {
    for crate_name in ["obs", "bench", "lint"] {
        let v = analyze_fixture(
            crate_name,
            &format!("crates/{crate_name}/src/fixture.rs"),
            "c1_shard_escape.rs",
        );
        assert!(
            !v.iter().any(|x| x.rule == "C1"),
            "{crate_name} is C1-exempt: {v:#?}"
        );
    }
}

#[test]
fn c1_quiet_wrapping_discharges_the_obligations() {
    let v = analyze_fixture("core", "crates/core/src/fixture.rs", "c1_clean.rs");
    assert!(v.is_empty(), "clean C1 fixture flagged: {v:#?}");
}

// ---------------------------------------------------------------- A1

#[test]
fn a1_fires_inside_the_digest_closure() {
    let v = analyze_fixture("core", "crates/core/src/fixture.rs", "a1_arith.rs");
    assert_eq!(rules_fired(&v), ["A1"], "{v:#?}");
    assert_eq!(v.len(), 2, "raw `<<` and raw `+`: {v:#?}");
    assert!(v.iter().any(|x| x.message.contains("`<<`")), "{v:#?}");
    assert!(v.iter().any(|x| x.message.contains("`+`")), "{v:#?}");
    for x in &v {
        assert!(
            x.trace.iter().any(|t| t.contains("state_digest")),
            "trace must reach the digest root: {x:#?}"
        );
    }
}

#[test]
fn a1_is_scoped_to_digest_paths_and_wrapping_ops_pass() {
    let v = analyze_fixture("core", "crates/core/src/fixture.rs", "a1_clean.rs");
    assert!(v.is_empty(), "clean A1 fixture flagged: {v:#?}");
    // Outside A1's crates the same raw arithmetic is not its business.
    let v = analyze_fixture("lp", "crates/lp/src/fixture.rs", "a1_arith.rs");
    assert!(
        !v.iter().any(|x| x.rule == "A1"),
        "lp is outside A1: {v:#?}"
    );
}

// --------------------------------------------------- parse coverage

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let mut paths: Vec<PathBuf> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
    paths.sort();
    for path in paths {
        if path.is_dir() {
            collect_rs(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// The item parser is total over this workspace: every `.rs` file —
/// every crate's sources, tests and benches, the root package, its
/// integration tests and examples, and the lint fixtures themselves —
/// parses with zero recorded errors. This is the invariant the semantic
/// rules rely on (every lint run hard-fails on a parse error in a linted
/// file).
#[test]
fn every_workspace_rs_file_parses_with_zero_errors() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root");
    let mut files = Vec::new();
    collect_rs(&root.join("crates"), &mut files);
    collect_rs(&root.join("src"), &mut files);
    collect_rs(&root.join("tests"), &mut files);
    collect_rs(&root.join("examples"), &mut files);
    assert!(
        files.len() >= 40,
        "workspace walk looks wrong: only {} files",
        files.len()
    );

    let mut failures = Vec::new();
    let mut functions = 0usize;
    for path in &files {
        let src = std::fs::read_to_string(path).expect("readable source");
        let rel = path
            .strip_prefix(&root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        let parsed = parse_file("coverage", &rel, &src);
        functions += parsed.fns.len();
        for err in &parsed.errors {
            failures.push(format!("{rel}: {err}"));
        }
    }
    assert!(
        failures.is_empty(),
        "parse failures across the workspace:\n{}",
        failures.join("\n")
    );
    assert!(
        functions >= 500,
        "parser found suspiciously few functions: {functions}"
    );
}
