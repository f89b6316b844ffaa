//! Domain rules D1/D2/P1/N1/O1/S1 over the token stream.
//!
//! Each rule is scoped by crate name or file path; scope decisions are
//! documented on the rule itself. All rules skip test-only regions
//! (`#[cfg(test)]` / `#[test]` items) as marked by
//! [`crate::lexer::mark_test_regions`].

use crate::lexer::{Tok, TokKind};

/// A single rule violation at a source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Rule identifier: `"D1"`, `"D2"`, `"P1"`, `"N1"`, `"O1"`, `"S1"`,
    /// `"U1"`, or one of the semantic rules `"T1"` / `"C1"` / `"A1"`.
    pub rule: &'static str,
    /// Workspace-relative path of the offending file.
    pub file: String,
    /// 1-based line number.
    pub line: u32,
    /// The full source line, for reporting and waiver `contains` matching.
    pub snippet: String,
    /// Human-readable explanation of the rule.
    pub message: String,
    /// Cross-function flow trace for the semantic rules (T1/C1/A1);
    /// empty for the token-level rules.
    pub trace: Vec<String>,
}

/// Identifier substrings that mark an operand as cost-valued for rule N1.
///
/// These cover the paper's cost vocabulary (access / dissemination /
/// fairness / contention costs) and the dual variables of the ConFL
/// primal-dual scheme (alpha / beta / gamma bids).
const COSTY: &[&str] = &[
    "cost",
    "fairness",
    "access",
    "dissem",
    "contention",
    "alpha",
    "beta",
    "gamma",
    "price",
];

/// Crates whose deterministic layers must not use hash-ordered collections.
const D1_CRATES: &[&str] = &["core", "dist", "graph", "lp"];
/// Crates allowed ambient time / randomness (everything else is checked).
const D2_EXEMPT_CRATES: &[&str] = &["obs", "bench", "lint"];
/// Crates whose cost comparisons must go through `core::costs` helpers.
const N1_CRATES: &[&str] = &["core", "dist", "graph"];
/// The sanctioned definition site for the epsilon / exact-tie helpers:
/// exempt from N1 so the helpers themselves can compare floats directly.
const N1_EXEMPT_FILE: &str = "crates/core/src/costs.rs";
/// Crates exempt from rule O1: `obs` hosts the registry and the
/// primitives themselves (its docs and demos use scratch names), and
/// `lint` quotes observability names in its own fixtures.
const O1_EXEMPT_CRATES: &[&str] = &["obs", "lint"];
/// The sanctioned `AllPairsPaths::compute` call sites for rule S1: the
/// definition and its incremental-update internals, and the dense
/// reference matrix. The scoped store's blocks solve only their rows
/// (`paths::induced_rows`). Anywhere else, a dense all-pairs compute is
/// the `O(N²)` wall creeping back in.
const S1_ALLOWED_FILES: &[&str] = &["crates/graph/src/paths.rs", "crates/core/src/costs.rs"];

/// The closed vocabulary of observability names for rule O1, built from
/// the string literals in `crates/obs/src/names.rs`.
#[derive(Debug, Default, Clone)]
pub struct NameRegistry {
    names: Vec<String>,
}

impl NameRegistry {
    /// Build a registry from an iterator of names (sorted and deduped).
    pub fn from_names<I: IntoIterator<Item = String>>(names: I) -> Self {
        let mut names: Vec<String> = names.into_iter().collect();
        names.sort();
        names.dedup();
        Self { names }
    }

    /// Number of distinct registered names.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True when no names are registered.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Membership test.
    pub fn contains(&self, name: &str) -> bool {
        self.names
            .binary_search_by(|n| n.as_str().cmp(name))
            .is_ok()
    }
}

fn is_p1_scope(rel_path: &str) -> bool {
    // Protocol and event paths that must be panic-free: the whole dist
    // crate's sources (the retry/timeout/chaos paths plus the SWIM
    // membership detector and the versioned-replica exchange) and, in
    // core, the world event layer, the partition-tracking network
    // model, and the replication top-up that repair invokes mid-event.
    (rel_path.starts_with("crates/dist/src/") && rel_path.ends_with(".rs"))
        || rel_path == "crates/core/src/world.rs"
        || rel_path == "crates/core/src/model.rs"
        || rel_path == "crates/core/src/replication.rs"
}

/// Run all rules over one file's token stream.
///
/// `crate_name` is the workspace member name (`core`, `dist`, ... or
/// `peercache` for the root package); `rel_path` is workspace-relative with
/// `/` separators; `lines` holds the raw source lines for snippets.
pub fn check_tokens(
    crate_name: &str,
    rel_path: &str,
    toks: &[Tok],
    in_test: &[bool],
    lines: &[&str],
    registry: Option<&NameRegistry>,
) -> Vec<Violation> {
    let mut out = Vec::new();
    let snippet = |line: u32| -> String {
        lines
            .get(line as usize - 1)
            .map(|l| l.trim().to_string())
            .unwrap_or_default()
    };
    let mut push = |rule: &'static str, line: u32, message: String| {
        out.push(Violation {
            rule,
            file: rel_path.to_string(),
            line,
            snippet: snippet(line),
            message,
            trace: Vec::new(),
        });
    };

    let d1 = D1_CRATES.contains(&crate_name);
    let d2 = !D2_EXEMPT_CRATES.contains(&crate_name);
    let p1 = is_p1_scope(rel_path);
    let n1 = N1_CRATES.contains(&crate_name) && rel_path != N1_EXEMPT_FILE;
    let o1 = registry.filter(|_| !O1_EXEMPT_CRATES.contains(&crate_name));
    let s1 = crate_name != "lint" && !S1_ALLOWED_FILES.contains(&rel_path);

    for (i, tok) in toks.iter().enumerate() {
        if in_test[i] {
            continue;
        }
        match &tok.kind {
            TokKind::Ident(id) => {
                if d1 && (id == "HashMap" || id == "HashSet") {
                    push(
                        "D1",
                        tok.line,
                        format!(
                            "`{id}` has nondeterministic iteration order; use BTreeMap/BTreeSet \
                             or an indexed Vec in deterministic crates"
                        ),
                    );
                }
                if d2 && (id == "Instant" || id == "SystemTime" || id == "thread_rng") {
                    push(
                        "D2",
                        tok.line,
                        format!(
                            "`{id}` is an ambient time/randomness source; inject a clock from \
                             `obs` or a seeded rng instead"
                        ),
                    );
                }
                if p1 {
                    let next_is =
                        |c: char| matches!(toks.get(i + 1), Some(t) if t.kind == TokKind::Punct(c));
                    let prev_is_dot = i > 0 && toks[i - 1].kind == TokKind::Punct('.');
                    if prev_is_dot && (id == "unwrap" || id == "expect") && next_is('(') {
                        push(
                            "P1",
                            tok.line,
                            format!(
                                "`.{id}()` in a protocol/event path; return a typed \
                                 `ProtocolError` / `CoreError` instead"
                            ),
                        );
                    }
                    if !prev_is_dot
                        && matches!(
                            id.as_str(),
                            "panic" | "todo" | "unimplemented" | "unreachable"
                        )
                        && next_is('!')
                    {
                        push(
                            "P1",
                            tok.line,
                            format!(
                                "`{id}!` in a protocol/event path; these paths must be \
                                 panic-free under adversarial schedules"
                            ),
                        );
                    }
                }
                if s1 && id == "AllPairsPaths" && s1_is_compute_call(toks, i) {
                    push(
                        "S1",
                        tok.line,
                        "dense `AllPairsPaths::compute` outside the sanctioned files; \
                         it is `O(N²)` in the ambient graph — use the scoped contention \
                         store / landmark oracle, or compute on a bounded induced \
                         subgraph inside an allowed module"
                            .to_string(),
                    );
                }
                if let Some(reg) = o1 {
                    if let Some(slot) = o1_name_slot(toks, i) {
                        match toks.get(slot).map(|t| &t.kind) {
                            Some(TokKind::Str(name)) => {
                                if !reg.contains(name) {
                                    push(
                                        "O1",
                                        tok.line,
                                        format!(
                                            "observability name \"{name}\" is not registered; \
                                             add it to `REGISTERED_NAMES` in \
                                             crates/obs/src/names.rs"
                                        ),
                                    );
                                }
                            }
                            _ => push(
                                "O1",
                                tok.line,
                                "observability names must be 'static string literals from \
                                 `obs::names::REGISTERED_NAMES` so traces and metrics keep \
                                 a closed, greppable vocabulary"
                                    .to_string(),
                            ),
                        }
                    }
                }
            }
            TokKind::Op(_) if n1 && comparison_is_floaty(toks, i) => {
                push(
                    "N1",
                    tok.line,
                    "direct `==`/`!=` on a cost-valued f64; use the epsilon helper \
                     `approx_zero` (on the difference, for two costs) or the documented \
                     exact-tie helper `cost_tie_eq` in `core::costs`"
                        .to_string(),
                );
            }
            _ => {}
        }
    }
    out
}

/// For O1: if the identifier at `i` opens an observability call whose
/// first argument is a metric/span/series name, return the token index
/// where that name must appear.
///
/// Covered shapes: `obs::counter(` / `obs::gauge(` / `obs::histogram(`,
/// `obs::span!(` / `obs::event!(`, and `TimeSeries::new(` /
/// `TimeSeries::with_capacity(` (qualified `obs::TimeSeries::...` is
/// caught at its `TimeSeries` token). `emit_span` is deliberately not
/// covered: it is the plumbing layer that receives names computed by
/// registered-name helpers such as `message_span_name`.
fn o1_name_slot(toks: &[Tok], i: usize) -> Option<usize> {
    let ident = |j: usize| match toks.get(j).map(|t| &t.kind) {
        Some(TokKind::Ident(s)) => Some(s.as_str()),
        _ => None,
    };
    let punct = |j: usize, c: char| matches!(toks.get(j), Some(t) if t.kind == TokKind::Punct(c));
    match ident(i)? {
        "obs" if punct(i + 1, ':') && punct(i + 2, ':') => match ident(i + 3)? {
            "counter" | "gauge" | "histogram" if punct(i + 4, '(') => Some(i + 5),
            "span" | "event" if punct(i + 4, '!') && punct(i + 5, '(') => Some(i + 6),
            _ => None,
        },
        "TimeSeries" if punct(i + 1, ':') && punct(i + 2, ':') => match ident(i + 3)? {
            "new" | "with_capacity" if punct(i + 4, '(') => Some(i + 5),
            _ => None,
        },
        _ => None,
    }
}

/// For S1: does the `AllPairsPaths` identifier at `i` open a
/// `AllPairsPaths::compute(` or `AllPairsPaths::compute_with(` call?
/// Doc references and type positions (`-> AllPairsPaths`) never match.
fn s1_is_compute_call(toks: &[Tok], i: usize) -> bool {
    let punct = |j: usize, c: char| matches!(toks.get(j), Some(t) if t.kind == TokKind::Punct(c));
    let method = match toks.get(i + 3).map(|t| &t.kind) {
        Some(TokKind::Ident(s)) => s.as_str(),
        _ => return false,
    };
    punct(i + 1, ':')
        && punct(i + 2, ':')
        && matches!(method, "compute" | "compute_with")
        && punct(i + 4, '(')
}

/// Heuristic for N1: does the `==`/`!=` at token index `op` compare
/// cost-valued floats?
///
/// Token-level analysis has no types, so this flags a comparison when either
/// operand is a float literal, or when an identifier inside the operand
/// expression (a short window bounded by expression punctuation) matches the
/// cost vocabulary in [`COSTY`]. Integer-only comparisons such as
/// `i == j` on node ids never match.
fn comparison_is_floaty(toks: &[Tok], op: usize) -> bool {
    const WINDOW: usize = 6;
    let operand_tok = |t: &Tok| -> bool {
        matches!(
            t.kind,
            TokKind::Ident(_)
                | TokKind::Int
                | TokKind::Float(_)
                | TokKind::Punct('.')
                | TokKind::Punct('[')
                | TokKind::Punct(']')
                | TokKind::Punct('(')
                | TokKind::Punct(')')
                | TokKind::Punct(':')
        )
    };
    let floaty = |t: &Tok| -> bool {
        match &t.kind {
            TokKind::Float(_) => true,
            // Only snake_case identifiers count: cost *values* are locals and
            // fields, while CamelCase names are types/variants (e.g. the
            // `BaselineMetric::StaticContention` variant), which are never
            // f64s.
            TokKind::Ident(id) if !id.starts_with(char::is_uppercase) => {
                let lower = id.to_ascii_lowercase();
                COSTY.iter().any(|k| lower.contains(k))
            }
            _ => false,
        }
    };
    // Backward over the left operand.
    let mut steps = 0usize;
    let mut i = op;
    while i > 0 && steps < WINDOW {
        i -= 1;
        if !operand_tok(&toks[i]) {
            break;
        }
        if floaty(&toks[i]) {
            return true;
        }
        steps += 1;
    }
    // Forward over the right operand.
    steps = 0;
    i = op;
    while i + 1 < toks.len() && steps < WINDOW {
        i += 1;
        if !operand_tok(&toks[i]) {
            break;
        }
        if floaty(&toks[i]) {
            return true;
        }
        steps += 1;
    }
    false
}
