//! Workspace driver for `peercache-lint`.
//!
//! Walks every workspace member's `src/` tree (plus the root package's
//! `src/`), lints each `.rs` file, applies `lint-waivers.toml`, and exits
//! nonzero on any unwaived violation, stale waiver, or stale waiver
//! metadata. Rule U1 also reads the members' `tests/` and `benches/`,
//! the root `tests/` and `examples/`, and the benchmark package's `src/`
//! and `tests/`, for references only.
//!
//! Flags:
//! - `--deep` — additionally run the semantic pass (item parser, call
//!   graph, rules T1/C1/A1) over the whole workspace; any parse failure
//!   is a hard error.
//! - `--json <path>` — write a machine-readable findings report
//!   (consumed by `repro lint`).
//! - `--budget-ms <n>` — fail if the whole run exceeds this wall-time
//!   budget (keeps the deep stage honest in `scripts/check.sh`).

#![forbid(unsafe_code)]

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use peercache_lint::waivers::{current_pr_from_changes, stale_waivers};
use peercache_lint::{
    apply_waivers, dataflow, dead_registered_names, lint_source_with_registry, parse_waivers,
    parser, registry_from_names_source, semantic, unreferenced_pub_fns, Violation, Waiver,
};

/// All rule identifiers, for stable JSON report ordering.
const ALL_RULES: &[&str] = &[
    "D1", "D2", "P1", "N1", "O1", "S1", "R1", "U1", "T1", "C1", "A1",
];

struct Args {
    deep: bool,
    json: Option<PathBuf>,
    budget_ms: Option<u64>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        deep: false,
        json: None,
        budget_ms: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--deep" => args.deep = true,
            "--json" => {
                let path = it.next().ok_or("--json requires a path")?;
                args.json = Some(PathBuf::from(path));
            }
            "--budget-ms" => {
                let n = it.next().ok_or("--budget-ms requires a number")?;
                args.budget_ms = Some(
                    n.parse::<u64>()
                        .map_err(|_| format!("--budget-ms: not a number: {n}"))?,
                );
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("peercache-lint: usage error: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("peercache-lint: error: {e}");
            ExitCode::from(2)
        }
    }
}

fn run(args: &Args) -> Result<bool, String> {
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

    // Rule O1's closed vocabulary: the string literals of the obs name
    // registry. A missing or empty registry is a hard error — it would
    // silently disarm the rule.
    let names_path = root.join("crates/obs/src/names.rs");
    let names_src = std::fs::read_to_string(&names_path)
        .map_err(|e| format!("reading {}: {e}", names_path.display()))?;
    let registry = registry_from_names_source(&names_src);
    if registry.is_empty() {
        return Err(format!(
            "{} yielded no registered names; rule O1 cannot run",
            names_path.display()
        ));
    }

    let mut files: Vec<(String, PathBuf)> = Vec::new();
    // Files rule U1 reads only for references: tests, benches, examples
    // and the benchmark package.
    let mut reference_only: Vec<(String, PathBuf)> = Vec::new();
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
        collect_rs(&member.join("src"), &name, &mut files)?;
        for dir in ["tests", "benches"] {
            collect_rs(&member.join(dir), &name, &mut reference_only)?;
        }
    }
    // The root `peercache` package (library + repro binary).
    collect_rs(&root.join("src"), "peercache", &mut files)?;
    // The benchmark package calls library layer functions directly, so
    // its sources count as references too.
    for dir in ["tests", "examples", "benchmark/src", "benchmark/tests"] {
        collect_rs(&root.join(dir), "peercache", &mut reference_only)?;
    }
    // Lint fixtures are lexed, never compiled: they name nothing.
    let fixtures = root.join("crates/lint/tests/fixtures");
    reference_only.retain(|(_, p)| !p.starts_with(&fixtures));

    let mut violations = Vec::new();
    // Every non-test string literal outside names.rs, for reverse-O1.
    let mut literal_usages: BTreeSet<String> = BTreeSet::new();
    let names_rel = "crates/obs/src/names.rs";
    let mut sources: Vec<(String, String, String)> = Vec::new(); // (crate, rel, source)
    for (crate_name, path) in &files {
        let source = std::fs::read_to_string(path)
            .map_err(|e| format!("reading {}: {e}", path.display()))?;
        let rel = rel_path(&root, path);
        violations.extend(lint_source_with_registry(
            crate_name,
            &rel,
            &source,
            Some(&registry),
        ));
        if rel != names_rel {
            let toks = peercache_lint::lexer::tokenize(&source);
            let in_test = peercache_lint::lexer::mark_test_regions(&toks);
            for (t, &test) in toks.iter().zip(&in_test) {
                if let (peercache_lint::lexer::TokKind::Str(s), false) = (&t.kind, test) {
                    literal_usages.insert(s.clone());
                }
            }
        }
        sources.push((crate_name.clone(), rel, source));
    }
    violations.extend(dead_registered_names(
        &names_src,
        names_rel,
        &literal_usages,
    ));
    let mut u1_files: Vec<(String, String)> = sources
        .iter()
        .map(|(_, rel, source)| (rel.clone(), source.clone()))
        .collect();
    for (_, path) in &reference_only {
        let source = std::fs::read_to_string(path)
            .map_err(|e| format!("reading {}: {e}", path.display()))?;
        u1_files.push((rel_path(&root, path), source));
    }
    violations.extend(unreferenced_pub_fns(&u1_files));
    let scanned = files.len();

    // Deep pass: parse every file into items, build the call graph, run
    // the semantic rules. Parse failures are hard errors — the parser's
    // coverage over this workspace is itself an invariant.
    let mut functions = 0usize;
    if args.deep {
        let mut parsed = Vec::with_capacity(sources.len());
        let mut parse_failures = Vec::new();
        for (crate_name, rel, source) in &sources {
            let file = parser::parse_file(crate_name, rel, source);
            for err in &file.errors {
                parse_failures.push(format!("{rel}: {err}"));
            }
            parsed.push(file);
        }
        if !parse_failures.is_empty() {
            for f in &parse_failures {
                eprintln!("peercache-lint: parse failure: {f}");
            }
            return Err(format!(
                "{} parse failure(s); the item parser must cover the whole workspace",
                parse_failures.len()
            ));
        }
        let ws = dataflow::Workspace::build(parsed);
        functions = ws.nodes.len();
        violations.extend(semantic::analyze(&ws));
    }

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
    // In the fast token pass the semantic rules never run, so their
    // waivers legitimately match nothing — only deep mode may call
    // them stale.
    let unused: Vec<usize> = report
        .unused
        .iter()
        .copied()
        .filter(|&idx| args.deep || !semantic::SEMANTIC_RULES.contains(&waivers[idx].rule.as_str()))
        .collect();
    for &idx in &unused {
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
    if let Some(path) = &args.json {
        write_json_report(
            path,
            args.deep,
            duration_ms,
            scanned,
            functions,
            &report,
            &waivers,
        )?;
    }

    let mut ok = report.unwaived.is_empty() && unused.is_empty() && stale.is_empty();
    if let Some(budget) = args.budget_ms {
        if duration_ms > budget {
            eprintln!("peercache-lint: run took {duration_ms} ms, over the {budget} ms budget");
            ok = false;
        }
    }
    println!(
        "peercache-lint: {scanned} files scanned{}, {} violation(s), {} waived, {} stale \
         waiver(s), {duration_ms} ms",
        if args.deep {
            format!(", {functions} functions analyzed")
        } else {
            String::new()
        },
        report.unwaived.len(),
        report.waived,
        unused.len() + stale.len()
    );
    Ok(ok)
}

/// Minimal JSON string escaping for the report.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn finding_json(v: &Violation, waived: bool, justification: Option<&str>) -> String {
    let trace = v
        .trace
        .iter()
        .map(|t| format!("\"{}\"", json_escape(t)))
        .collect::<Vec<_>>()
        .join(",");
    let just = justification
        .map(|j| format!(",\"justification\":\"{}\"", json_escape(j)))
        .unwrap_or_default();
    format!(
        "{{\"rule\":\"{}\",\"file\":\"{}\",\"line\":{},\"snippet\":\"{}\",\
         \"message\":\"{}\",\"waived\":{waived},\"trace\":[{trace}]{just}}}",
        v.rule,
        json_escape(&v.file),
        v.line,
        json_escape(&v.snippet),
        json_escape(&v.message),
    )
}

/// Write the machine-readable findings report consumed by `repro lint`.
fn write_json_report(
    path: &Path,
    deep: bool,
    duration_ms: u64,
    files: usize,
    functions: usize,
    report: &peercache_lint::WaiverReport,
    waivers: &[Waiver],
) -> Result<(), String> {
    let mut per_rule: Vec<(&str, usize, usize)> = ALL_RULES.iter().map(|r| (*r, 0, 0)).collect();
    let mut bump = |rule: &str, waived: bool| {
        if let Some(slot) = per_rule.iter_mut().find(|(r, _, _)| *r == rule) {
            slot.1 += 1;
            if waived {
                slot.2 += 1;
            }
        }
    };
    for v in &report.unwaived {
        bump(v.rule, false);
    }
    for (v, _) in &report.waived_violations {
        bump(v.rule, true);
    }
    let rules = per_rule
        .iter()
        .map(|(r, total, waived)| format!("\"{r}\":{{\"total\":{total},\"waived\":{waived}}}"))
        .collect::<Vec<_>>()
        .join(",");
    let mut findings: Vec<String> = report
        .unwaived
        .iter()
        .map(|v| finding_json(v, false, None))
        .collect();
    findings.extend(
        report
            .waived_violations
            .iter()
            .map(|(v, idx)| finding_json(v, true, Some(waivers[*idx].justification.as_str()))),
    );
    let body = format!(
        "{{\"schema\":\"peercache-lint/1\",\"deep\":{deep},\"duration_ms\":{duration_ms},\
         \"files\":{files},\"functions\":{functions},\"rules\":{{{rules}}},\
         \"findings\":[{}]}}\n",
        findings.join(",")
    );
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)
                .map_err(|e| format!("creating {}: {e}", parent.display()))?;
        }
    }
    std::fs::write(path, body).map_err(|e| format!("writing {}: {e}", path.display()))
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
