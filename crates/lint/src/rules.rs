//! Domain rules D1/D2/P1/N1/O1/S1 over the token stream.
//!
//! Each rule is scoped by crate name or file path; scope decisions are
//! documented on the rule itself. All rules skip test-only regions
//! (`#[cfg(test)]` / `#[test]` items) as marked by
//! [`crate::lexer::mark_test_regions`].

use crate::lexer::{ident_at, punct_at, Tok, TokKind};
use crate::parser::ParsedFile;

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
    /// Build the registry from the lexed `crates/obs/src/names.rs`:
    /// every plain string literal outside test regions is a registered
    /// name. Reading the literals, rather than linking against `obs`,
    /// keeps the linter dependency-free and makes the registry file the
    /// one source of truth for both the runtime `is_registered` check and
    /// lint.
    pub fn from_file(names_file: &ParsedFile) -> Self {
        let mut names: Vec<String> = names_file
            .live_literals()
            .map(|(_, s)| s.to_string())
            .collect();
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

/// Run the token rules over one lexed file, with rule O1 armed when
/// `registry` is given.
pub fn check_tokens(file: &ParsedFile, registry: Option<&NameRegistry>) -> Vec<Violation> {
    let (crate_name, rel_path, toks) =
        (file.crate_name.as_str(), file.rel_path.as_str(), &file.toks);
    let mut out = Vec::new();
    let mut push = |rule: &'static str, line: u32, message: String| {
        out.push(Violation {
            rule,
            file: rel_path.to_string(),
            line,
            snippet: file.snippet(line),
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
        if file.in_test[i] {
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
                    let prev_is_dot = i > 0 && toks[i - 1].is_punct('.');
                    if prev_is_dot
                        && (id == "unwrap" || id == "expect")
                        && punct_at(toks, i + 1, '(')
                    {
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
                        && punct_at(toks, i + 1, '!')
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
    if !(punct_at(toks, i + 1, ':') && punct_at(toks, i + 2, ':')) {
        return None;
    }
    let call = punct_at(toks, i + 4, '(');
    match (ident_at(toks, i)?, ident_at(toks, i + 3)?) {
        ("obs", "counter" | "gauge" | "histogram") if call => Some(i + 5),
        ("obs", "span" | "event") if punct_at(toks, i + 4, '!') && punct_at(toks, i + 5, '(') => {
            Some(i + 6)
        }
        ("TimeSeries", "new" | "with_capacity") if call => Some(i + 5),
        _ => None,
    }
}

/// For S1: does the `AllPairsPaths` identifier at `i` open a
/// `AllPairsPaths::compute(` or `AllPairsPaths::compute_with(` call?
/// Doc references and type positions (`-> AllPairsPaths`) never match.
fn s1_is_compute_call(toks: &[Tok], i: usize) -> bool {
    punct_at(toks, i + 1, ':')
        && punct_at(toks, i + 2, ':')
        && matches!(ident_at(toks, i + 3), Some("compute" | "compute_with"))
        && punct_at(toks, i + 4, '(')
}

/// Heuristic for N1: does the `==`/`!=` at token index `op` compare
/// cost-valued floats?
///
/// Token-level analysis has no types, so this flags a comparison when either
/// operand is a float literal, or when an identifier inside the operand
/// expression (a short window bounded by expression punctuation) matches the
/// cost vocabulary in [`COSTY`]. Integer-only comparisons such as
/// `i == j` on node ids never match, nor does a compare whose left
/// operand or whole right operand ends in `.to_bits()`: that side is a
/// `u64`, so the other side is one too.
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
    let to_bits_before = |end: usize| {
        end >= 3
            && ident_at(toks, end - 3) == Some("to_bits")
            && punct_at(toks, end - 2, '(')
            && punct_at(toks, end - 1, ')')
    };
    let end = (op + 1..toks.len())
        .find(|&j| !operand_tok(&toks[j]))
        .unwrap_or(toks.len());
    if to_bits_before(op) || to_bits_before(end) {
        return false;
    }
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
