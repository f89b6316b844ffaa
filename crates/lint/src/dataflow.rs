//! Approximate call graph and dataflow fixpoints over parsed files.
//!
//! The graph is deliberately conservative about *resolution* rather
//! than *coverage*: a call edge is only added when the callee can be
//! pinned down — qualified `Type::method` paths through an impl index,
//! locally `let`-bound closures, same-file bare names, or names defined
//! exactly once in the whole workspace. Ambiguous by-name calls are
//! dropped instead of unioned, so one popular method name cannot smear
//! taint across unrelated crates. The semantic rules built on top
//! ([`crate::semantic`]) are tuned for this: they report at *local*
//! evidence (a source used here, an emission reached through resolved
//! edges) and accept that an unresolvable call is a silent edge.

use std::collections::BTreeMap;

use crate::lexer::{ident_at, punct_at};
use crate::parser::ParsedFile;

/// Taint class: hash-ordered iteration reached this function's data.
pub const TAINT_HASH: u8 = 1;
/// Taint class: ambient wall-clock time or ambient randomness.
pub const TAINT_TIME: u8 = 2;
/// Taint class: thread identity or host thread-count.
pub const TAINT_THREAD: u8 = 4;

/// Human names for the taint classes, for messages and traces.
#[must_use]
pub fn taint_names(mask: u8) -> String {
    let mut parts = Vec::new();
    if mask & TAINT_HASH != 0 {
        parts.push("hash-iteration-order");
    }
    if mask & TAINT_TIME != 0 {
        parts.push("ambient-time/randomness");
    }
    if mask & TAINT_THREAD != 0 {
        parts.push("thread-identity");
    }
    parts.join(" + ")
}

/// One analyzable unit: a function item or a `let`-bound closure.
#[derive(Debug)]
pub struct FnNode {
    /// Index into [`Workspace::files`].
    pub file: usize,
    /// Bare name (closure nodes use their binding name).
    pub name: String,
    /// `impl`/`trait` self type, when the node is a method.
    pub self_type: Option<String>,
    /// 1-based definition line.
    pub line: u32,
    /// Token range `[start, end)` of the signature; `None` for closure
    /// nodes. Taint seeding scans it: a function whose signature
    /// mentions `HashMap` handles hash-ordered data.
    pub sig: Option<(usize, usize)>,
    /// Token range `[start, end)` of the body, when present.
    pub body: Option<(usize, usize)>,
    /// Parameter identifiers.
    pub params: Vec<String>,
    /// In a `#[cfg(test)]` / `#[test]` region.
    pub is_test: bool,
    /// True for `let`-bound closure pseudo-functions.
    pub is_closure: bool,
    /// Enclosing function node, for closures.
    pub parent: Option<usize>,
}

impl FnNode {
    /// `Type::name` or the bare name, for traces.
    #[must_use]
    pub fn qualified(&self) -> String {
        match &self.self_type {
            Some(t) => format!("{t}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// A resolved call edge out of a node.
#[derive(Debug, Clone, Copy)]
pub struct Call {
    /// Callee node index.
    pub callee: usize,
    /// 1-based line of the call site.
    pub line: u32,
    /// Token index of the call site (callee-name token).
    pub tok: usize,
}

/// A call to a caller-supplied `Fn`-typed parameter — unresolvable,
/// surfaced to rule C1 as a proof obligation.
#[derive(Debug, Clone)]
pub struct ParamCall {
    /// The parameter's name.
    pub param: String,
    /// 1-based line of the call.
    pub line: u32,
    /// Token index of the call.
    pub tok: usize,
}

/// A direct observability-emission site inside a node's own tokens:
/// `obs::span!(` / `obs::event!(` / `obs::counter|gauge|histogram(`.
#[derive(Debug, Clone)]
pub struct EmissionSite {
    /// What the site is, for messages (`obs::span!`, ...).
    pub what: &'static str,
    /// 1-based line.
    pub line: u32,
    /// Token index of the leading `obs` identifier.
    pub tok: usize,
}

/// Where a propagated property entered a node, for flow traces.
#[derive(Debug, Clone, Copy)]
pub enum Witness {
    /// Introduced by the node's own tokens at this line.
    Local(u32),
    /// Inherited through a call to `callee` at this line.
    Via(u32, usize),
}

/// The parsed workspace with its resolved call graph.
pub struct Workspace {
    /// All parsed files, in the order given.
    pub files: Vec<ParsedFile>,
    /// All function/closure nodes across every file.
    pub nodes: Vec<FnNode>,
    /// Resolved call edges per node.
    pub calls: Vec<Vec<Call>>,
    /// Calls to `Fn`-typed parameters per node.
    pub param_calls: Vec<Vec<ParamCall>>,
    /// Direct emission sites per node.
    pub emissions: Vec<Vec<EmissionSite>>,
    /// Token subranges of each node's *own* code: its body minus the
    /// bodies of nested items and `let`-bound closures (those are
    /// nodes of their own).
    pub segments: Vec<Vec<(usize, usize)>>,
}

const KEYWORDS: &[&str] = &[
    "if",
    "else",
    "match",
    "while",
    "for",
    "loop",
    "return",
    "break",
    "continue",
    "fn",
    "let",
    "move",
    "mut",
    "ref",
    "in",
    "as",
    "unsafe",
    "where",
    "impl",
    "dyn",
    "pub",
    "use",
    "mod",
    "struct",
    "enum",
    "trait",
    "const",
    "static",
    "type",
    "assert",
    "debug_assert",
    "drop",
];

impl Workspace {
    /// Build the workspace graph from parsed files.
    #[must_use]
    pub fn build(files: Vec<ParsedFile>) -> Self {
        let mut nodes: Vec<FnNode> = Vec::new();
        // (file index, fn index in file) -> node, plus closure nodes.
        for (fi, file) in files.iter().enumerate() {
            for f in &file.fns {
                let parent_idx = nodes.len();
                nodes.push(FnNode {
                    file: fi,
                    name: f.name.clone(),
                    self_type: f.self_type.clone(),
                    line: f.line,
                    sig: Some(f.sig),
                    body: f.body,
                    params: f.params.clone(),
                    is_test: f.is_test,
                    is_closure: false,
                    parent: None,
                });
                for c in &f.closures {
                    nodes.push(FnNode {
                        file: fi,
                        name: c.name.clone(),
                        self_type: None,
                        line: c.line,
                        sig: None,
                        body: Some(c.body),
                        params: c.params.clone(),
                        is_test: f.is_test,
                        is_closure: true,
                        parent: Some(parent_idx),
                    });
                }
            }
        }

        // Indexes over non-test, non-closure nodes.
        let mut methods: BTreeMap<(String, String), Vec<usize>> = BTreeMap::new();
        let mut by_name_method: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        let mut by_name_free: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        for (idx, n) in nodes.iter().enumerate() {
            if n.is_test || n.is_closure {
                continue;
            }
            match &n.self_type {
                Some(t) => {
                    methods
                        .entry((t.clone(), n.name.clone()))
                        .or_default()
                        .push(idx);
                    by_name_method.entry(n.name.clone()).or_default().push(idx);
                }
                None => by_name_free.entry(n.name.clone()).or_default().push(idx),
            }
        }

        // Own-code segments: body minus nested node bodies in the same file.
        let mut segments: Vec<Vec<(usize, usize)>> = vec![Vec::new(); nodes.len()];
        for (idx, n) in nodes.iter().enumerate() {
            let Some((start, end)) = n.body else { continue };
            // Collect holes: bodies (and signatures, for fns) of other
            // nodes strictly nested inside this one.
            let mut holes: Vec<(usize, usize)> = Vec::new();
            for (j, m) in nodes.iter().enumerate() {
                if j == idx || m.file != n.file {
                    continue;
                }
                if let Some((ms, me)) = m.body {
                    if ms > start && me <= end {
                        holes.push((ms, me));
                    }
                }
            }
            holes.sort_unstable();
            let mut segs = Vec::new();
            let mut cur = start;
            for (hs, he) in holes {
                if hs > cur {
                    segs.push((cur, hs));
                }
                cur = cur.max(he);
            }
            if cur < end {
                segs.push((cur, end));
            }
            segments[idx] = segs;
        }

        let mut calls: Vec<Vec<Call>> = vec![Vec::new(); nodes.len()];
        let mut param_calls: Vec<Vec<ParamCall>> = vec![Vec::new(); nodes.len()];
        let mut emissions: Vec<Vec<EmissionSite>> = vec![Vec::new(); nodes.len()];

        for idx in 0..nodes.len() {
            let n = &nodes[idx];
            let toks = &files[n.file].toks;
            // Sibling closures visible to this node: its own closures
            // (fn nodes), or — for a closure — the parent's closures.
            let scope_of = if n.is_closure {
                n.parent.unwrap_or(idx)
            } else {
                idx
            };
            for &(start, end) in &segments[idx] {
                let mut i = start;
                while i < end {
                    let Some(id) = ident_at(toks, i) else {
                        i += 1;
                        continue;
                    };
                    // Emission sites: obs::counter( / obs::span!( ...
                    if id == "obs" && punct_at(toks, i + 1, ':') && punct_at(toks, i + 2, ':') {
                        match ident_at(toks, i + 3) {
                            Some(m @ ("counter" | "gauge" | "histogram"))
                                if punct_at(toks, i + 4, '(') =>
                            {
                                let what = match m {
                                    "counter" => "obs::counter",
                                    "gauge" => "obs::gauge",
                                    _ => "obs::histogram",
                                };
                                emissions[idx].push(EmissionSite {
                                    what,
                                    line: toks[i].line,
                                    tok: i,
                                });
                                i += 5;
                                continue;
                            }
                            Some(m @ ("span" | "event"))
                                if punct_at(toks, i + 4, '!') && punct_at(toks, i + 5, '(') =>
                            {
                                let what = if m == "span" {
                                    "obs::span!"
                                } else {
                                    "obs::event!"
                                };
                                emissions[idx].push(EmissionSite {
                                    what,
                                    line: toks[i].line,
                                    tok: i,
                                });
                                i += 6;
                                continue;
                            }
                            _ => {}
                        }
                    }
                    // Qualified call: `Type::method(`.
                    if id.starts_with(char::is_uppercase)
                        && punct_at(toks, i + 1, ':')
                        && punct_at(toks, i + 2, ':')
                        && punct_at(toks, i + 4, '(')
                    {
                        if let Some(m) = ident_at(toks, i + 3) {
                            let ty = if id == "Self" {
                                n.self_type.clone().unwrap_or_else(|| id.to_string())
                            } else {
                                id.to_string()
                            };
                            if let Some(cands) = methods.get(&(ty, m.to_string())) {
                                for &c in cands.iter().take(4) {
                                    calls[idx].push(Call {
                                        callee: c,
                                        line: toks[i].line,
                                        tok: i,
                                    });
                                }
                            }
                            i += 5;
                            continue;
                        }
                    }
                    // Method call: `.method(`.
                    let prev_dot = i > 0 && punct_at(toks, i - 1, '.');
                    let prev_colon = i > 0 && punct_at(toks, i - 1, ':');
                    if prev_dot && punct_at(toks, i + 1, '(') {
                        if let Some(&c) = Self::pick_method(&by_name_method, &nodes, n, id) {
                            calls[idx].push(Call {
                                callee: c,
                                line: toks[i].line,
                                tok: i,
                            });
                        }
                        i += 2;
                        continue;
                    }
                    // Bare call: `name(` — not a path segment, not a
                    // macro, lowercase start, not a keyword.
                    if !prev_dot
                        && !prev_colon
                        && punct_at(toks, i + 1, '(')
                        && id.starts_with(|c: char| c.is_lowercase() || c == '_')
                        && !KEYWORDS.contains(&id)
                    {
                        // Innermost visible `let`-bound closure first.
                        let closure = nodes.iter().enumerate().find(|(j, m)| {
                            m.is_closure && m.parent == Some(scope_of) && m.name == id && *j != idx
                        });
                        if let Some((c, _)) = closure {
                            calls[idx].push(Call {
                                callee: c,
                                line: toks[i].line,
                                tok: i,
                            });
                        } else if n.params.iter().any(|p| p == id) {
                            param_calls[idx].push(ParamCall {
                                param: id.to_string(),
                                line: toks[i].line,
                                tok: i,
                            });
                        } else if let Some(&c) =
                            Self::pick_free(&by_name_free, &by_name_method, &nodes, n, id)
                        {
                            calls[idx].push(Call {
                                callee: c,
                                line: toks[i].line,
                                tok: i,
                            });
                        }
                        i += 2;
                        continue;
                    }
                    i += 1;
                }
            }
        }

        Workspace {
            files,
            nodes,
            calls,
            param_calls,
            emissions,
            segments,
        }
    }

    /// Resolve a `.method(` call: prefer a unique same-file candidate
    /// (same self type first), else a workspace-unique name.
    fn pick_method<'a>(
        by_name: &'a BTreeMap<String, Vec<usize>>,
        nodes: &[FnNode],
        caller: &FnNode,
        name: &str,
    ) -> Option<&'a usize> {
        let cands = by_name.get(name)?;
        let same_type: Vec<&usize> = cands
            .iter()
            .filter(|&&c| nodes[c].file == caller.file && nodes[c].self_type == caller.self_type)
            .collect();
        if same_type.len() == 1 {
            return Some(same_type[0]);
        }
        let same_file: Vec<&usize> = cands
            .iter()
            .filter(|&&c| nodes[c].file == caller.file)
            .collect();
        if same_file.len() == 1 {
            return Some(same_file[0]);
        }
        if cands.len() == 1 {
            return Some(&cands[0]);
        }
        None
    }

    /// Resolve a bare `name(` call: same-file free fn, else a
    /// workspace-unique free fn, else a workspace-unique method.
    fn pick_free<'a>(
        free: &'a BTreeMap<String, Vec<usize>>,
        by_name_method: &'a BTreeMap<String, Vec<usize>>,
        nodes: &[FnNode],
        caller: &FnNode,
        name: &str,
    ) -> Option<&'a usize> {
        if let Some(cands) = free.get(name) {
            let same_file: Vec<&usize> = cands
                .iter()
                .filter(|&&c| nodes[c].file == caller.file)
                .collect();
            if same_file.len() == 1 {
                return Some(same_file[0]);
            }
            if cands.len() == 1 {
                return Some(&cands[0]);
            }
            return None;
        }
        let cands = by_name_method.get(name)?;
        if cands.len() == 1 {
            return Some(&cands[0]);
        }
        None
    }

    /// Crate name of the node's file.
    #[must_use]
    pub fn crate_of(&self, node: usize) -> &str {
        &self.files[self.nodes[node].file].crate_name
    }

    /// Workspace-relative path of the node's file.
    #[must_use]
    pub fn path_of(&self, node: usize) -> &str {
        &self.files[self.nodes[node].file].rel_path
    }

    /// Generic upward fixpoint: each node's mask is its `seed` plus the
    /// union of every callee's mask, except callees for which `cut`
    /// returns true (boundaries that consume rather than propagate).
    /// `allow[i]` masks which classes node `i` can hold at all — a
    /// sanitizing node (e.g. one that sorts hash-collection contents)
    /// simply disallows the hash-order class. Returns `(mask,
    /// witness-per-class)` per node; witnesses record where each class
    /// first entered the node.
    #[must_use]
    pub fn propagate(
        &self,
        seeds: &[(u8, Option<u32>)],
        allow: &[u8],
        cut: &dyn Fn(usize) -> bool,
    ) -> (Vec<u8>, Vec<[Option<Witness>; 3]>) {
        let n = self.nodes.len();
        let mut mask = vec![0u8; n];
        let mut wit: Vec<[Option<Witness>; 3]> = vec![[None; 3]; n];
        for i in 0..n {
            let (m, line) = seeds[i];
            mask[i] = m & allow[i];
            for (bit, w) in wit[i].iter_mut().enumerate() {
                if mask[i] & (1 << bit) != 0 {
                    *w = Some(Witness::Local(line.unwrap_or(self.nodes[i].line)));
                }
            }
        }
        let mut changed = true;
        while changed {
            changed = false;
            for i in 0..n {
                for call in &self.calls[i] {
                    if cut(call.callee) {
                        continue;
                    }
                    let incoming = mask[call.callee] & allow[i] & !mask[i];
                    if incoming != 0 {
                        mask[i] |= incoming;
                        for (bit, w) in wit[i].iter_mut().enumerate() {
                            if incoming & (1 << bit) != 0 {
                                *w = Some(Witness::Via(call.line, call.callee));
                            }
                        }
                        changed = true;
                    }
                }
            }
        }
        (mask, wit)
    }

    /// Render the flow chain that carried class `bit` into `node`, as
    /// human-readable steps ending at the local introduction point.
    #[must_use]
    pub fn trace(&self, node: usize, bit: usize, wit: &[[Option<Witness>; 3]]) -> Vec<String> {
        let mut out = Vec::new();
        let mut cur = node;
        let mut guard = 0usize;
        loop {
            guard += 1;
            if guard > 32 {
                out.push("... (trace truncated)".to_string());
                break;
            }
            match wit[cur][bit] {
                Some(Witness::Local(line)) => {
                    out.push(format!(
                        "fn `{}` introduces it at {}:{line}",
                        self.nodes[cur].qualified(),
                        self.path_of(cur),
                    ));
                    break;
                }
                Some(Witness::Via(line, callee)) => {
                    out.push(format!(
                        "fn `{}` inherits it via call to `{}` at {}:{line}",
                        self.nodes[cur].qualified(),
                        self.nodes[callee].qualified(),
                        self.path_of(cur),
                    ));
                    cur = callee;
                }
                None => break,
            }
        }
        out
    }
}
