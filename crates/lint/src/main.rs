//! Workspace driver for `peercache-lint`.
//!
//! Walks every workspace member's `src/` tree (plus the root package's
//! `src/`), reads and tokenizes each `.rs` file once, and runs all ten
//! rules over those token streams: the token rules, O1 in both
//! directions, U1, and the semantic pass (item parser, call graph, rules
//! T1/C1/A1). Rule U1 also reads the members' `tests/` and `benches/`,
//! the root `tests/` and `examples/`, and the benchmark package's `src/`
//! and `tests/`, for references only. After the findings it prints one
//! row per rule (total, waived, open findings) and a summary line.
//!
//! The binary takes no arguments. It exits 1 on any unwaived violation,
//! stale waiver, stale waiver metadata, or a run longer than
//! [`BUDGET_MS`], and 2 on a usage error, an unreadable file, or a linted
//! file the item parser cannot parse.

#![forbid(unsafe_code)]

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use peercache_lint::parser::parse_file;
use peercache_lint::rules::check_tokens;
use peercache_lint::waivers::{current_pr_from_changes, stale_waivers};
use peercache_lint::{
    apply_waivers, dataflow, dead_registered_names, parse_waivers, semantic, unreferenced_pub_fns,
    NameRegistry, ParsedFile, Violation, Waiver,
};

/// Every rule identifier, in report order.
const ALL_RULES: &[&str] = &["D1", "D2", "P1", "N1", "O1", "S1", "U1", "T1", "C1", "A1"];

/// Wall-time budget of one whole run, so the linter can never quietly
/// grow past interactive use.
const BUDGET_MS: u64 = 5000;

/// The obs name registry: rule O1's closed vocabulary.
const NAMES_FILE: &str = "crates/obs/src/names.rs";

fn main() -> ExitCode {
    if let Some(arg) = std::env::args().nth(1) {
        eprintln!(
            "peercache-lint: usage error: unexpected argument `{arg}`; the linter takes none"
        );
        return ExitCode::from(2);
    }
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("peercache-lint: error: {e}");
            ExitCode::from(2)
        }
    }
}

fn run() -> Result<bool, String> {
    let started = Instant::now();
    let root = workspace_root()?;
    let waivers = load_waivers(&root)?;

    // Waiver metadata staleness, judged against the PR currently in
    // flight per CHANGES.md.
    let changes = std::fs::read_to_string(root.join("CHANGES.md")).unwrap_or_default();
    let current_pr = current_pr_from_changes(&changes);
    let stale = stale_waivers(&waivers, current_pr);
    for (_, msg) in &stale {
        eprintln!("peercache-lint: {msg}");
    }

    let mut paths: Vec<(String, PathBuf)> = Vec::new();
    // Files rule U1 reads only for references: tests, benches, examples
    // and the benchmark package.
    let mut reference_paths: Vec<(String, PathBuf)> = Vec::new();
    let crates_dir = root.join("crates");
    let mut members: Vec<PathBuf> = std::fs::read_dir(&crates_dir)
        .map_err(|e| format!("reading {}: {e}", crates_dir.display()))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.is_dir())
        .collect();
    members.sort();
    for member in &members {
        let name = member
            .file_name()
            .and_then(|n| n.to_str())
            .ok_or_else(|| format!("non-utf8 crate dir under {}", crates_dir.display()))?
            .to_string();
        collect_rs(&member.join("src"), &name, &mut paths)?;
        for dir in ["tests", "benches"] {
            collect_rs(&member.join(dir), &name, &mut reference_paths)?;
        }
    }
    // The root `peercache` package (library + repro binary).
    collect_rs(&root.join("src"), "peercache", &mut paths)?;
    // The benchmark package calls library layer functions directly, so
    // its sources count as references too.
    for dir in ["tests", "examples", "benchmark/src", "benchmark/tests"] {
        collect_rs(&root.join(dir), "peercache", &mut reference_paths)?;
    }
    // Lint fixtures are lexed, never compiled: they name nothing.
    let fixtures = root.join("crates/lint/tests/fixtures");
    reference_paths.retain(|(_, p)| !p.starts_with(&fixtures));

    // Read and tokenize each file once. Linted files are also parsed into
    // items; reference-only files need only their tokens.
    let read = |path: &Path| {
        std::fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))
    };
    let mut files = Vec::with_capacity(paths.len());
    for (crate_name, path) in &paths {
        files.push(parse_file(crate_name, &rel_path(&root, path), &read(path)?));
    }
    let mut references = Vec::with_capacity(reference_paths.len());
    for (crate_name, path) in &reference_paths {
        references.push(ParsedFile::lex(
            crate_name,
            &rel_path(&root, path),
            &read(path)?,
        ));
    }
    // The parser's coverage of this workspace is itself an invariant: a
    // file it cannot parse would silently drop out of T1/C1/A1.
    let parse_failures: Vec<String> = files
        .iter()
        .flat_map(|f| f.errors.iter().map(move |e| format!("{}: {e}", f.rel_path)))
        .collect();
    if !parse_failures.is_empty() {
        for f in &parse_failures {
            eprintln!("peercache-lint: parse failure: {f}");
        }
        return Err(format!(
            "{} parse failure(s); the item parser must cover the whole workspace",
            parse_failures.len()
        ));
    }

    // Rule O1's closed vocabulary. A missing or empty registry is a hard
    // error: it would silently disarm the rule.
    let names = files
        .iter()
        .find(|f| f.rel_path == NAMES_FILE)
        .ok_or_else(|| format!("{NAMES_FILE} not found; rule O1 cannot run"))?;
    let registry = NameRegistry::from_file(names);
    if registry.is_empty() {
        return Err(format!(
            "{NAMES_FILE} yielded no registered names; rule O1 cannot run"
        ));
    }
    let mut violations: Vec<_> = files
        .iter()
        .flat_map(|f| check_tokens(f, Some(&registry)))
        .collect();
    violations.extend(dead_registered_names(&files, names));
    violations.extend(unreferenced_pub_fns(files.iter().chain(&references)));
    let scanned = files.len();
    let ws = dataflow::Workspace::build(files);
    violations.extend(semantic::analyze(&ws));

    let report = apply_waivers(violations, &waivers);
    for v in &report.unwaived {
        eprintln!(
            "peercache-lint: {}:{}: [{}] {}\n    {}",
            v.file, v.line, v.rule, v.message, v.snippet
        );
        for step in &v.trace {
            eprintln!("    flow: {step}");
        }
    }
    for &idx in &report.unused {
        let w = &waivers[idx];
        eprintln!(
            "peercache-lint: stale waiver #{} ({} in {}, contains {:?}) matched nothing; \
             remove it from lint-waivers.toml",
            idx + 1,
            w.rule,
            w.file,
            w.contains
        );
    }
    let duration_ms = started.elapsed().as_millis() as u64;
    let within_budget = duration_ms <= BUDGET_MS;
    if !within_budget {
        eprintln!("peercache-lint: run took {duration_ms} ms, over the {BUDGET_MS} ms budget");
    }

    println!("rule  total  waived  open");
    for rule in ALL_RULES {
        let count = |vs: &[Violation]| vs.iter().filter(|v| v.rule == *rule).count();
        let (waived, open) = (count(&report.waived), count(&report.unwaived));
        println!("{rule:<4}  {:>5}  {waived:>6}  {open:>4}", waived + open);
    }
    println!(
        "peercache-lint: {scanned} files scanned, {} functions analyzed, {} violation(s), \
         {} waived, {} stale waiver(s), {duration_ms} ms",
        ws.nodes.len(),
        report.unwaived.len(),
        report.waived.len(),
        report.unused.len() + stale.len()
    );
    Ok(report.unwaived.is_empty() && report.unused.is_empty() && stale.is_empty() && within_budget)
}

/// Locate the workspace root: walk up from the current directory until a
/// `Cargo.toml` containing a `[workspace]` table is found.
fn workspace_root() -> Result<PathBuf, String> {
    let mut dir = std::env::current_dir().map_err(|e| format!("getting cwd: {e}"))?;
    loop {
        let manifest = dir.join("Cargo.toml");
        if manifest.is_file() {
            let text = std::fs::read_to_string(&manifest)
                .map_err(|e| format!("reading {}: {e}", manifest.display()))?;
            if text.lines().any(|l| l.trim() == "[workspace]") {
                return Ok(dir);
            }
        }
        if !dir.pop() {
            return Err("no workspace Cargo.toml found above the current directory".into());
        }
    }
}

fn load_waivers(root: &Path) -> Result<Vec<Waiver>, String> {
    let path = root.join("lint-waivers.toml");
    if !path.is_file() {
        return Ok(Vec::new());
    }
    let text =
        std::fs::read_to_string(&path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    parse_waivers(&text).map_err(|e| format!("lint-waivers.toml: {e}"))
}

/// Recursively collect `.rs` files under `dir`, in sorted order for
/// deterministic reporting. Missing directories are fine (crates without a
/// `src/`, which cannot happen today, would simply contribute nothing).
fn collect_rs(
    dir: &Path,
    crate_name: &str,
    out: &mut Vec<(String, PathBuf)>,
) -> Result<(), String> {
    if !dir.is_dir() {
        return Ok(());
    }
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("reading {}: {e}", dir.display()))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            collect_rs(&path, crate_name, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push((crate_name.to_string(), path));
        }
    }
    Ok(())
}

fn rel_path(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}
