//! `peercache-lint`: zero-dependency domain-rule linter for the workspace.
//!
//! Enforces the invariants that the repo's headline guarantees
//! (byte-identical replans, deterministic churn replays, panic-free
//! distributed bidding, a closed observability vocabulary, sub-quadratic
//! planning, shard-isolated mutation) rest on.
//!
//! Token-level rules (fast pass, every check):
//!
//! | Rule | Statement | Scope |
//! |------|-----------|-------|
//! | D1 | no `HashMap`/`HashSet` | `core`, `dist`, `graph`, `lp` |
//! | D2 | no `Instant`/`SystemTime`/`thread_rng` | everywhere except `obs`, `bench` |
//! | P1 | no `unwrap`/`expect`/`panic!`-family macros | `crates/dist/src/**`, `core::world` |
//! | N1 | no direct `==`/`!=` on cost-valued f64 | `core`, `dist`, `graph` (helpers in `core::costs` exempt) |
//! | O1 | `obs::span!`/`event!`/counter/gauge/histogram/`TimeSeries` names must be string literals registered in `obs::names`; registered names must also be emitted somewhere | everywhere except `obs`, `lint` |
//! | S1 | no `AllPairsPaths::compute`/`compute_with` call sites | everywhere except `graph::paths`, `graph::oracle`, `core::costs` |
//! | U1 | a non-test `pub fn` must be named somewhere besides its own definition and its own file's tests; never waivable ([`unreferenced_pub_fns`]) | `crates/*/src` |
//!
//! Semantic rules (`--deep` pass: item parser + call graph + dataflow,
//! see [`parser`], [`dataflow`], [`semantic`]):
//!
//! | Rule | Statement | Scope |
//! |------|-----------|-------|
//! | T1 | hash-order / ambient-time / thread-identity taint must not reach ordering-sensitive sinks (`state_digest`, JSONL emission) across function boundaries; injected clocks and sort/BTree sanitizers cut the flow | sinks everywhere except `bench`, `lint` |
//! | C1 | closures under a thread fan-out must not capture outer `&mut` state or reach observability emission outside `obs::with_quiet` | everywhere except `obs`, `bench`, `lint` |
//! | A1 | raw `+`/`*`/`<<` on integers in the downward call closure of any digest function must be `wrapping_*`/`checked_*` | `core`, `dist`, `graph` |
//!
//! The pass is dependency-free (no `syn`, no network): comments, strings,
//! and test-only regions never fire. Violations are suppressed only
//! through the committed `lint-waivers.toml`, which requires a per-site
//! justification plus `added_in`/`re_audit_after` PR stamps; stale or
//! over-budget waivers fail the run.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dataflow;
pub mod lexer;
pub mod parser;
pub mod rules;
pub mod semantic;
pub mod waivers;

pub use rules::{NameRegistry, Violation};
pub use waivers::{apply_waivers, parse_waivers, Waiver, WaiverReport};

/// Rule O1, reverse direction: names in the registry that no non-test
/// source outside the registry file ever mentions are dead vocabulary.
///
/// `usages` holds every string literal seen outside test regions in the
/// workspace (excluding `names.rs` itself); `names_src` is the registry
/// source, re-scanned here so each dead name can be reported on its own
/// definition line.
pub fn dead_registered_names(
    names_src: &str,
    names_rel_path: &str,
    usages: &std::collections::BTreeSet<String>,
) -> Vec<Violation> {
    let toks = lexer::tokenize(names_src);
    let in_test = lexer::mark_test_regions(&toks);
    let lines: Vec<&str> = names_src.lines().collect();
    toks.iter()
        .zip(&in_test)
        .filter_map(|(t, &test)| match (&t.kind, test) {
            (lexer::TokKind::Str(name), false) if !usages.contains(name) => Some(Violation {
                rule: "O1",
                file: names_rel_path.to_string(),
                line: t.line,
                snippet: lines
                    .get(t.line as usize - 1)
                    .map(|l| l.trim().to_string())
                    .unwrap_or_default(),
                message: format!(
                    "registered name \"{name}\" is never emitted by any non-test code; \
                     remove it from `REGISTERED_NAMES` — a closed vocabulary only stays \
                     trustworthy if every entry is live"
                ),
                trace: Vec::new(),
            }),
            _ => None,
        })
        .collect()
}

/// Rule U1: a non-test `pub fn` under `crates/*/src` whose name appears
/// as an identifier token in no other file, and in its own file only
/// inside test regions, is public surface nothing uses.
///
/// `files` holds `(workspace-relative path, source)` for every file that
/// may name a function: each member's `src/`, `tests/` and `benches/`,
/// the root package's `src/`, `tests/` and `examples/`, and the benchmark
/// package's `src/` and `tests/`. Definitions are taken only from
/// `crates/<member>/src/` paths. A reference is any identifier token with
/// the function's name, not a resolved call edge, so a name shared with
/// any live item keeps the function; rustc's `dead_code` already covers
/// private and `pub(crate)` items, which this rule leaves alone.
pub fn unreferenced_pub_fns(files: &[(String, String)]) -> Vec<Violation> {
    struct Scanned<'a> {
        rel: &'a str,
        src: &'a str,
        toks: Vec<lexer::Tok>,
        in_test: Vec<bool>,
    }
    let scanned: Vec<Scanned> = files
        .iter()
        .map(|(rel, src)| {
            let toks = lexer::tokenize(src);
            let in_test = lexer::mark_test_regions(&toks);
            Scanned {
                rel,
                src,
                toks,
                in_test,
            }
        })
        .collect();
    fn ident(t: &lexer::Tok) -> Option<&str> {
        match &t.kind {
            lexer::TokKind::Ident(s) => Some(s),
            _ => None,
        }
    }
    // How many files name each identifier anywhere, tests included.
    let mut files_naming: std::collections::BTreeMap<&str, usize> = Default::default();
    for f in &scanned {
        let names: std::collections::BTreeSet<&str> = f.toks.iter().filter_map(ident).collect();
        for name in names {
            *files_naming.entry(name).or_default() += 1;
        }
    }

    let mut out = Vec::new();
    for f in &scanned {
        let mut parts = f.rel.split('/');
        if parts.next() != Some("crates") || parts.nth(1) != Some("src") {
            continue;
        }
        let live = |i: usize| {
            if f.in_test[i] {
                None
            } else {
                ident(&f.toks[i])
            }
        };
        for i in 0..f.toks.len() {
            if live(i) != Some("pub") {
                continue;
            }
            // `pub [const|async|unsafe]* fn name`; `pub(crate) fn` stops
            // at the `(`.
            let mut j = i + 1;
            while j < f.toks.len() && matches!(live(j), Some("const" | "async" | "unsafe")) {
                j += 1;
            }
            if j + 1 >= f.toks.len() || live(j) != Some("fn") {
                continue;
            }
            let Some(name) = live(j + 1) else { continue };
            if files_naming.get(name) != Some(&1)
                || (0..f.toks.len()).any(|k| k != j + 1 && live(k) == Some(name))
            {
                continue;
            }
            let line = f.toks[j + 1].line;
            out.push(Violation {
                rule: "U1",
                file: f.rel.to_string(),
                line,
                snippet: f
                    .src
                    .lines()
                    .nth(line as usize - 1)
                    .map(|l| l.trim().to_string())
                    .unwrap_or_default(),
                message: format!(
                    "`pub fn {name}` is named nowhere but its own definition and its own \
                     file's tests; delete it, or move it under `#[cfg(test)]` if a test is \
                     its only caller (U1 cannot be waived)"
                ),
                trace: Vec::new(),
            });
        }
    }
    out
}

/// Lint a single source file given as a string, without an O1 registry
/// (rules D1/D2/P1/N1 only).
///
/// `crate_name` is the workspace member (`core`, `dist`, ..., `peercache`
/// for the root package); `rel_path` is the workspace-relative path with
/// `/` separators.
pub fn lint_source(crate_name: &str, rel_path: &str, source: &str) -> Vec<Violation> {
    lint_source_with_registry(crate_name, rel_path, source, None)
}

/// Lint a single source file, with rule O1 armed when `registry` is
/// provided.
pub fn lint_source_with_registry(
    crate_name: &str,
    rel_path: &str,
    source: &str,
    registry: Option<&NameRegistry>,
) -> Vec<Violation> {
    let toks = lexer::tokenize(source);
    let in_test = lexer::mark_test_regions(&toks);
    let lines: Vec<&str> = source.lines().collect();
    rules::check_tokens(crate_name, rel_path, &toks, &in_test, &lines, registry)
}

/// Build the O1 name registry from the source of `crates/obs/src/names.rs`:
/// every plain string literal outside test regions is a registered name.
///
/// Parsing the literals (rather than linking against `obs`) keeps the
/// linter dependency-free and means the registry file is the single
/// source of truth for both the runtime `is_registered` check and lint.
pub fn registry_from_names_source(source: &str) -> NameRegistry {
    let toks = lexer::tokenize(source);
    let in_test = lexer::mark_test_regions(&toks);
    NameRegistry::from_names(toks.iter().zip(&in_test).filter_map(|(t, test)| {
        match (&t.kind, test) {
            (lexer::TokKind::Str(s), false) => Some(s.clone()),
            _ => None,
        }
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use lexer::{tokenize, TokKind};

    #[test]
    fn strings_and_comments_are_skipped() {
        let src = r##"
            // HashMap in a comment
            /* Instant in a block */
            fn f() { let s = "HashMap"; let r = r#"SystemTime"#; }
        "##;
        let v = lint_source("core", "crates/core/src/x.rs", src);
        assert!(v.is_empty(), "unexpected: {v:?}");
    }

    #[test]
    fn lifetimes_do_not_break_lexing() {
        let toks = tokenize("fn f<'a>(x: &'a str) -> &'a str { x }");
        assert!(toks.iter().any(|t| t.kind == TokKind::Ident("str".into())));
    }

    #[test]
    fn float_literals_are_classified() {
        let toks = tokenize("let x = 1.5 + 2e-9 + 3 + 0xff + 1f64;");
        let floats = toks
            .iter()
            .filter(|t| matches!(t.kind, TokKind::Float(_)))
            .count();
        let ints = toks.iter().filter(|t| t.kind == TokKind::Int).count();
        assert_eq!(floats, 3, "{toks:?}");
        assert_eq!(ints, 2, "{toks:?}");
    }

    #[test]
    fn cfg_test_regions_are_exempt() {
        let src = r#"
            pub fn prod() {}
            #[cfg(test)]
            mod tests {
                use std::collections::HashMap;
                #[test]
                fn t() { let _: Option<u8> = None; let _ = None::<u8>.unwrap(); }
            }
        "#;
        let v = lint_source("dist", "crates/dist/src/engine.rs", src);
        assert!(v.is_empty(), "unexpected: {v:?}");
    }

    #[test]
    fn unwrap_or_variants_do_not_fire_p1() {
        let src = "pub fn f(x: Option<u32>) -> u32 { x.unwrap_or(0).min(x.unwrap_or_default()) }";
        let v = lint_source("dist", "crates/dist/src/engine.rs", src);
        assert!(v.is_empty(), "unexpected: {v:?}");
    }

    #[test]
    fn node_id_equality_does_not_fire_n1() {
        let src = "pub fn f(i: usize, j: usize) -> bool { i == j }";
        let v = lint_source("core", "crates/core/src/x.rs", src);
        assert!(v.is_empty(), "unexpected: {v:?}");
    }

    fn o1_registry() -> NameRegistry {
        registry_from_names_source(
            r#"pub const REGISTERED_NAMES: &[&str] = &["dist.round", "world.components"];"#,
        )
    }

    #[test]
    fn registry_parses_literals_outside_tests() {
        let reg = registry_from_names_source(
            r#"
            pub const REGISTERED_NAMES: &[&str] = &["a.b", "c.d"];
            #[cfg(test)]
            mod tests { const SCRATCH: &str = "test.scratch"; }
            "#,
        );
        assert_eq!(reg.len(), 2);
        assert!(reg.contains("a.b") && reg.contains("c.d"));
        assert!(!reg.contains("test.scratch"));
    }

    #[test]
    fn o1_accepts_registered_literal_names() {
        let reg = o1_registry();
        let src = r#"
            pub fn f() {
                let _s = obs::span!("dist.round", chunk = 3);
                obs::event!("dist.round", fate = "ok");
                obs::counter("dist.round", 1);
                let _t = obs::TimeSeries::new("world.components");
            }
        "#;
        let v = lint_source_with_registry("dist", "crates/dist/src/x.rs", src, Some(&reg));
        assert!(v.is_empty(), "unexpected: {v:?}");
    }

    #[test]
    fn o1_fires_on_unregistered_name() {
        let reg = o1_registry();
        let src = r#"pub fn f() { obs::counter("dist.mystery", 1); }"#;
        let v = lint_source_with_registry("dist", "crates/dist/src/x.rs", src, Some(&reg));
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "O1");
        assert!(v[0].message.contains("dist.mystery"), "{}", v[0].message);
    }

    #[test]
    fn o1_fires_on_non_literal_name() {
        let reg = o1_registry();
        let src = r#"pub fn f(name: &'static str) { let _s = obs::span!(name); }"#;
        let v = lint_source_with_registry("dist", "crates/dist/src/x.rs", src, Some(&reg));
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "O1");
        assert!(v[0].message.contains("string literal"), "{}", v[0].message);
    }

    #[test]
    fn o1_covers_bare_timeseries_constructors() {
        let reg = o1_registry();
        let src = r#"pub fn f() { let _t = TimeSeries::with_capacity("nope", 8); }"#;
        let v = lint_source_with_registry("core", "crates/core/src/x.rs", src, Some(&reg));
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "O1");
    }

    #[test]
    fn o1_exempts_obs_lint_and_test_regions() {
        let reg = o1_registry();
        let src = r#"pub fn f() { obs::counter("scratch", 1); }"#;
        for (krate, path) in [
            ("obs", "crates/obs/src/x.rs"),
            ("lint", "crates/lint/src/x.rs"),
        ] {
            let v = lint_source_with_registry(krate, path, src, Some(&reg));
            assert!(v.is_empty(), "{krate}: {v:?}");
        }
        let test_src = r#"
            #[cfg(test)]
            mod tests { fn t() { obs::counter("scratch", 1); } }
        "#;
        let v = lint_source_with_registry("dist", "crates/dist/src/x.rs", test_src, Some(&reg));
        assert!(v.is_empty(), "{v:?}");
        // Without a registry the rule is disarmed entirely.
        let v = lint_source("dist", "crates/dist/src/x.rs", src);
        assert!(v.is_empty(), "{v:?}");
    }
}
