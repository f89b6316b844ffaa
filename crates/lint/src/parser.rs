//! A lightweight item-level Rust parser on top of [`crate::lexer`].
//!
//! This is not a full grammar: it recovers exactly the structure the
//! semantic rules (T1/C1/A1, see [`crate::semantic`]) need — function
//! items with their signature and body token ranges, the `impl`/`trait`
//! type a method belongs to, `use` declarations, and local closure
//! bindings inside function bodies. Everything else (expressions,
//! types, patterns) stays a flat token stream that the dataflow layer
//! scans positionally.
//!
//! The parser is total: it never fails, it records recoverable
//! confusion in [`ParsedFile::errors`] instead. The parse-coverage
//! self-test in `tests/semantic.rs` asserts that every `.rs` file in
//! the workspace parses with zero errors, so the approximations here
//! are pinned against the real code they must understand.

use crate::lexer::{mark_test_regions, tokenize, Tok, TokKind};

/// One parsed function item (free function, inherent/trait method, or a
/// default method in a trait definition).
#[derive(Debug, Clone)]
pub struct FnItem {
    /// The function's bare name.
    pub name: String,
    /// The `impl`/`trait` type the item is defined on, if any.
    pub self_type: Option<String>,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Token index range `[start, end)` of the signature: from the `fn`
    /// token up to (excluding) the body `{` or the terminating `;`.
    pub sig: (usize, usize),
    /// Token index range `[start, end)` strictly inside the body braces;
    /// `None` for body-less trait signatures.
    pub body: Option<(usize, usize)>,
    /// Parameter identifiers bound by the signature.
    pub params: Vec<String>,
    /// Whether the item sits in a `#[cfg(test)]`/`#[test]` region.
    pub is_test: bool,
    /// Local `let name = |...| ...` closure bindings inside the body.
    pub closures: Vec<ClosureItem>,
}

impl FnItem {
    /// `Type::name` when the item has a self type, else the bare name.
    #[must_use]
    pub fn qualified(&self) -> String {
        match &self.self_type {
            Some(t) => format!("{t}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// A `let name = |...| ...` binding inside a function body. Treated as
/// a pseudo-function so the call graph can flow through locally named
/// closures (e.g. the per-region `run` closure handed to a fan-out).
#[derive(Debug, Clone)]
pub struct ClosureItem {
    /// The binding name.
    pub name: String,
    /// 1-based line of the binding.
    pub line: u32,
    /// Token index range `[start, end)` of the closure body.
    pub body: (usize, usize),
    /// Parameter identifiers bound between the pipes.
    pub params: Vec<String>,
}

/// A fully tokenized and item-parsed source file.
#[derive(Debug)]
pub struct ParsedFile {
    /// Workspace member name (`core`, `dist`, ..., `peercache`).
    pub crate_name: String,
    /// Workspace-relative path with `/` separators.
    pub rel_path: String,
    /// The significant tokens of the file.
    pub toks: Vec<Tok>,
    /// Per-token test-region flags (parallel to `toks`).
    pub in_test: Vec<bool>,
    /// Every function item found, in source order.
    pub fns: Vec<FnItem>,
    /// Raw source lines, for snippets in reports.
    pub lines: Vec<String>,
    /// Structural confusion encountered while parsing (empty on the
    /// whole workspace — asserted by the parse-coverage self-test).
    pub errors: Vec<String>,
}

impl ParsedFile {
    /// Tokenize one file and mark its test regions, with no items
    /// parsed: all that the token rules, and rule U1's reference-only
    /// files, read. This is the one place a source file is tokenized.
    #[must_use]
    pub fn lex(crate_name: &str, rel_path: &str, source: &str) -> Self {
        let toks = tokenize(source);
        let in_test = mark_test_regions(&toks);
        ParsedFile {
            crate_name: crate_name.to_string(),
            rel_path: rel_path.to_string(),
            toks,
            in_test,
            fns: Vec::new(),
            lines: source.lines().map(str::to_string).collect(),
            errors: Vec::new(),
        }
    }

    /// The plain string literals outside test regions, with their
    /// 1-based lines, in source order.
    pub fn live_literals(&self) -> impl Iterator<Item = (u32, &str)> {
        self.toks
            .iter()
            .zip(&self.in_test)
            .filter_map(|(t, &test)| match &t.kind {
                TokKind::Str(s) if !test => Some((t.line, s.as_str())),
                _ => None,
            })
    }

    /// The trimmed source line at 1-based `line`, for reports.
    #[must_use]
    pub fn snippet(&self, line: u32) -> String {
        self.lines
            .get(line as usize - 1)
            .map(|l| l.trim().to_string())
            .unwrap_or_default()
    }
}

/// Find the index of the matching close delimiter for the open
/// delimiter at `open` (which must hold `open_c`). Returns `None` when
/// the stream ends first.
fn match_delim(toks: &[Tok], open: usize, open_c: char, close_c: char) -> Option<usize> {
    let mut depth = 0usize;
    let mut i = open;
    while i < toks.len() {
        if toks[i].is_punct(open_c) {
            depth += 1;
        } else if toks[i].is_punct(close_c) {
            depth -= 1;
            if depth == 0 {
                return Some(i);
            }
        }
        i += 1;
    }
    None
}

/// Skip a balanced `<...>` generic-argument list starting at `i`
/// (which must hold `<`). `->` arrows inside (closure/function bounds)
/// do not close the list. Returns the index just past the closing `>`.
fn skip_generics(toks: &[Tok], mut i: usize) -> usize {
    let mut depth = 0usize;
    while i < toks.len() {
        if toks[i].is_punct('<') {
            depth += 1;
        } else if toks[i].is_punct('>') {
            // `->` return arrows inside bounds: the `>` does not close.
            let arrow = i > 0 && toks[i - 1].is_punct('-');
            if !arrow {
                depth -= 1;
                if depth == 0 {
                    return i + 1;
                }
            }
        }
        i += 1;
    }
    i
}

/// Collect parameter identifiers from the token range strictly inside a
/// param list: identifiers immediately followed by a single `:` (not a
/// path `::`), plus bare `self`.
fn collect_params(toks: &[Tok], start: usize, end: usize) -> Vec<String> {
    let mut out = Vec::new();
    let mut i = start;
    while i < end {
        if let Some(id) = toks[i].ident() {
            let typed = i + 1 < end
                && toks[i + 1].is_punct(':')
                && !(i + 2 < end && toks[i + 2].is_punct(':'))
                && id != "mut"
                && id != "dyn"
                && id != "impl";
            if id == "self" || typed {
                out.push(id.to_string());
            }
        }
        i += 1;
    }
    out.sort();
    out.dedup();
    out
}

/// Collect `let`-bound closures inside a body token range.
fn collect_closures(
    toks: &[Tok],
    start: usize,
    end: usize,
    errors: &mut Vec<String>,
) -> Vec<ClosureItem> {
    let mut out = Vec::new();
    let mut i = start;
    while i + 3 < end {
        // `let [mut] name = [move] | ... | body`
        if !toks[i].is_ident("let") {
            i += 1;
            continue;
        }
        let mut j = i + 1;
        if j < end && toks[j].is_ident("mut") {
            j += 1;
        }
        let Some(name) = toks[j].ident().map(str::to_string) else {
            i += 1;
            continue;
        };
        if !(j + 1 < end && toks[j + 1].is_punct('=')) {
            i += 1;
            continue;
        }
        let mut k = j + 2;
        if k < end && toks[k].is_ident("move") {
            k += 1;
        }
        if !(k < end && toks[k].is_punct('|')) {
            i = j + 1;
            continue;
        }
        let line = toks[k].line;
        // Parameters: up to the closing `|` at bracket depth 0 (or the
        // immediately following `|` of an empty `||` list).
        let (params, after_pipes) = if k + 1 < end && toks[k + 1].is_punct('|') {
            (Vec::new(), k + 2)
        } else {
            let mut depth = 0i32;
            let mut p = k + 1;
            let mut close = None;
            while p < end {
                match &toks[p].kind {
                    TokKind::Punct('(' | '[' | '<') => depth += 1,
                    TokKind::Punct(')' | ']' | '>') => depth -= 1,
                    TokKind::Punct('|') if depth == 0 => {
                        close = Some(p);
                        break;
                    }
                    _ => {}
                }
                p += 1;
            }
            match close {
                Some(c) => (collect_params(toks, k + 1, c), c + 1),
                None => {
                    errors.push(format!("line {line}: unterminated closure parameter list"));
                    i = k + 1;
                    continue;
                }
            }
        };
        // Body: a brace block, or an expression up to the binding's `;`
        // (or an unbracketed `,`/`)` — conservative for nested forms).
        let body = if after_pipes < end && toks[after_pipes].is_punct('{') {
            match match_delim(toks, after_pipes, '{', '}') {
                Some(close) if close <= end => Some((after_pipes + 1, close)),
                _ => {
                    errors.push(format!("line {line}: unterminated closure body"));
                    None
                }
            }
        } else {
            let mut depth = 0i32;
            let mut p = after_pipes;
            let mut stop = end;
            while p < end {
                match &toks[p].kind {
                    TokKind::Punct('(' | '[' | '{') => depth += 1,
                    TokKind::Punct(')' | ']' | '}') => {
                        if depth == 0 {
                            stop = p;
                            break;
                        }
                        depth -= 1;
                    }
                    TokKind::Punct(';' | ',') if depth == 0 => {
                        stop = p;
                        break;
                    }
                    _ => {}
                }
                p += 1;
            }
            Some((after_pipes, stop))
        };
        if let Some(body) = body {
            out.push(ClosureItem {
                name,
                line,
                body,
                params,
            });
            i = body.1;
        } else {
            i = after_pipes;
        }
    }
    out
}

/// Parse one source file into items. Never fails; confusion is recorded
/// in [`ParsedFile::errors`].
#[must_use]
pub fn parse_file(crate_name: &str, rel_path: &str, source: &str) -> ParsedFile {
    let mut file = ParsedFile::lex(crate_name, rel_path, source);
    (file.fns, file.errors) = parse_items(&file.toks, &file.in_test);
    file
}

/// The function items and parse errors of one token stream.
fn parse_items(toks: &[Tok], in_test: &[bool]) -> (Vec<FnItem>, Vec<String>) {
    let mut errors = Vec::new();
    let mut fns = Vec::new();

    // Stack of `(self_type, close_token_index)` for impl/trait blocks.
    let mut type_frames: Vec<(String, usize)> = Vec::new();

    let n = toks.len();
    let mut i = 0usize;
    while i < n {
        // Pop expired impl/trait frames.
        while type_frames.last().is_some_and(|&(_, close)| i > close) {
            type_frames.pop();
        }
        let tok = &toks[i];
        match tok.ident() {
            Some("macro_rules") => {
                // `macro_rules! name { ... }` — skip the whole body; its
                // contents are a token grammar, not item code.
                let mut j = i + 1;
                while j < n && !toks[j].is_punct('{') {
                    j += 1;
                }
                match match_delim(toks, j, '{', '}') {
                    Some(close) => i = close + 1,
                    None => {
                        errors.push(format!("line {}: unterminated macro_rules body", tok.line));
                        i = n;
                    }
                }
                continue;
            }
            Some("use") => {
                // `use ...;` names no item; skip to its `;`, so group
                // braces never read as a body.
                let mut j = i + 1;
                while j < n && !toks[j].is_punct(';') {
                    j += 1;
                }
                i = j + 1;
                continue;
            }
            Some(kw @ ("impl" | "trait")) => {
                // Header: optional generics, then a path; `impl Trait for
                // Type` names the type after `for`. Stops at `{` / `;`
                // (a `;` covers `impl Trait for Type;`-style macros —
                // none in tree, but stay total).
                let mut j = i + 1;
                if kw == "trait" {
                    // `trait Name<...>: Bound {`
                    // the self type is the trait name itself
                }
                if j < n && toks[j].is_punct('<') {
                    j = skip_generics(toks, j);
                }
                let mut last_ident: Option<String> = None;
                let mut after_for: Option<String> = None;
                let mut saw_for = false;
                while j < n && !toks[j].is_punct('{') && !toks[j].is_punct(';') {
                    if toks[j].is_punct('<') {
                        j = skip_generics(toks, j);
                        continue;
                    }
                    match toks[j].ident() {
                        Some("for") => saw_for = true,
                        Some("where") => break,
                        Some(id) => {
                            if saw_for {
                                if after_for.is_none() || after_for.is_some() {
                                    after_for = Some(id.to_string());
                                }
                            } else {
                                last_ident = Some(id.to_string());
                            }
                        }
                        None => {}
                    }
                    j += 1;
                }
                // Skip a `where` clause up to the opening brace.
                while j < n && !toks[j].is_punct('{') && !toks[j].is_punct(';') {
                    if toks[j].is_punct('<') {
                        j = skip_generics(toks, j);
                        continue;
                    }
                    j += 1;
                }
                let self_type = after_for.or(last_ident);
                if j < n && toks[j].is_punct('{') {
                    match match_delim(toks, j, '{', '}') {
                        Some(close) => {
                            if let Some(t) = self_type {
                                type_frames.push((t, close));
                            }
                            i = j + 1;
                        }
                        None => {
                            errors.push(format!("line {}: unterminated {kw} block", tok.line));
                            i = n;
                        }
                    }
                } else {
                    i = j + 1;
                }
                continue;
            }
            Some("fn") => {
                let line = tok.line;
                let sig_start = i;
                // `fn(` / `fn (` with no name is a function-pointer
                // *type* (e.g. `pub fresh: fn() -> String`), not an
                // item — skip the keyword and keep scanning.
                if toks.get(i + 1).is_some_and(|t| t.is_punct('(')) {
                    i += 1;
                    continue;
                }
                let Some(name) = toks.get(i + 1).and_then(Tok::ident).map(str::to_string) else {
                    errors.push(format!("line {line}: `fn` without a name"));
                    i += 1;
                    continue;
                };
                let mut j = i + 2;
                if j < n && toks[j].is_punct('<') {
                    j = skip_generics(toks, j);
                }
                if !(j < n && toks[j].is_punct('(')) {
                    errors.push(format!("line {line}: fn `{name}` without a parameter list"));
                    i += 1;
                    continue;
                }
                let Some(params_close) = match_delim(toks, j, '(', ')') else {
                    errors.push(format!("line {line}: unterminated parameters of `{name}`"));
                    i = n;
                    continue;
                };
                let params = collect_params(toks, j + 1, params_close);
                // Scan the return type / where clause to the body brace
                // or a trait-signature `;`.
                let mut k = params_close + 1;
                while k < n && !toks[k].is_punct('{') && !toks[k].is_punct(';') {
                    if toks[k].is_punct('<') {
                        k = skip_generics(toks, k);
                        continue;
                    }
                    if toks[k].is_punct('(') {
                        match match_delim(toks, k, '(', ')') {
                            Some(close) => {
                                k = close + 1;
                                continue;
                            }
                            None => break,
                        }
                    }
                    k += 1;
                }
                let self_type = type_frames.last().map(|(t, _)| t.clone());
                if k < n && toks[k].is_punct('{') {
                    match match_delim(toks, k, '{', '}') {
                        Some(close) => {
                            let body = (k + 1, close);
                            let closures = collect_closures(toks, body.0, body.1, &mut errors);
                            fns.push(FnItem {
                                name,
                                self_type,
                                line,
                                sig: (sig_start, k),
                                body: Some(body),
                                params,
                                is_test: in_test[i],
                                closures,
                            });
                            // Continue INSIDE the body so nested fns and
                            // items are found too.
                            i = k + 1;
                        }
                        None => {
                            errors.push(format!("line {line}: unterminated body of `{name}`"));
                            i = n;
                        }
                    }
                } else if k < n {
                    // Trait signature without a body.
                    fns.push(FnItem {
                        name,
                        self_type,
                        line,
                        sig: (sig_start, k),
                        body: None,
                        params,
                        is_test: in_test[i],
                        closures: Vec::new(),
                    });
                    i = k + 1;
                } else {
                    errors.push(format!("line {line}: fn `{name}` runs off the file"));
                    i = n;
                }
                continue;
            }
            _ => {}
        }
        i += 1;
    }

    (fns, errors)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finds_free_functions_and_methods() {
        let f = parse_file(
            "core",
            "crates/core/src/x.rs",
            r#"
            pub fn alpha(x: u32, y: &str) -> u32 { x }
            impl Widget {
                fn beta(&self, cost: f64) -> f64 { cost }
            }
            impl Display for Gadget {
                fn fmt(&self, f: &mut Formatter<'_>) -> fmt::Result { Ok(()) }
            }
            trait Oracle {
                fn guess(&self) -> u64;
                fn default_guess(&self) -> u64 { 7 }
            }
            "#,
        );
        assert!(f.errors.is_empty(), "{:?}", f.errors);
        let names: Vec<String> = f.fns.iter().map(FnItem::qualified).collect();
        assert_eq!(
            names,
            [
                "alpha",
                "Widget::beta",
                "Gadget::fmt",
                "Oracle::guess",
                "Oracle::default_guess"
            ]
        );
        assert_eq!(f.fns[0].params, ["x", "y"]);
        assert!(f.fns[3].body.is_none(), "trait sig has no body");
    }

    #[test]
    fn generic_signatures_parse() {
        let f = parse_file(
            "core",
            "crates/core/src/x.rs",
            "fn fan_out<T: Sync, R: Send>(items: &[T], task: impl Fn(&T) -> R + Sync) -> Vec<R> { Vec::new() }",
        );
        assert!(f.errors.is_empty(), "{:?}", f.errors);
        assert_eq!(f.fns.len(), 1);
        assert_eq!(f.fns[0].params, ["items", "task"]);
    }

    #[test]
    fn nested_fns_and_closures_are_found() {
        let f = parse_file(
            "core",
            "crates/core/src/x.rs",
            r#"
            fn outer() -> u64 {
                fn inner(q: u64) -> u64 { q }
                let run = |r: usize| -> u64 { inner(r as u64) };
                let short = |x: u64| x + 1;
                run(3) + short(4)
            }
            "#,
        );
        assert!(f.errors.is_empty(), "{:?}", f.errors);
        let names: Vec<&str> = f.fns.iter().map(|x| x.name.as_str()).collect();
        assert_eq!(names, ["outer", "inner"]);
        let closures: Vec<&str> = f.fns[0].closures.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(closures, ["run", "short"]);
        assert_eq!(f.fns[0].closures[0].params, ["r"]);
    }

    #[test]
    fn macro_rules_bodies_are_opaque() {
        let f = parse_file(
            "obs",
            "crates/obs/src/x.rs",
            r#"
            macro_rules! span {
                ($name:expr) => { $crate::span::span($name) };
            }
            pub fn after() {}
            "#,
        );
        assert!(f.errors.is_empty(), "{:?}", f.errors);
        let names: Vec<&str> = f.fns.iter().map(|x| x.name.as_str()).collect();
        assert_eq!(names, ["after"]);
    }

    #[test]
    fn test_region_items_are_marked() {
        let f = parse_file(
            "core",
            "crates/core/src/x.rs",
            r#"
            pub fn prod() {}
            #[cfg(test)]
            mod tests {
                #[test]
                fn t() {}
            }
            "#,
        );
        assert!(f.errors.is_empty());
        assert!(!f.fns[0].is_test);
        assert!(f.fns[1].is_test);
    }

    #[test]
    fn use_declarations_are_skipped() {
        let f = parse_file(
            "core",
            "crates/core/src/x.rs",
            "use std::collections::{BTreeMap, BTreeSet};\nuse peercache_obs as obs;\n",
        );
        assert!(f.errors.is_empty(), "{:?}", f.errors);
        assert!(f.fns.is_empty());
    }
}
