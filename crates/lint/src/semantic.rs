//! Semantic cross-file rules T1 / C1 / A1 over the call graph.
//!
//! These are the rules the token scanner cannot express: each one
//! needs to know where a value *came from* or where control *goes*,
//! across function and file boundaries.
//!
//! - **T1 determinism taint** — hash-iteration-order, ambient-time,
//!   and thread-identity sources must not reach ordering-sensitive
//!   sinks (`state_digest`, trace/JSONL emission via the `obs` layer).
//!   Taint propagates callee → caller
//!   through resolved call edges; `MonotonicClock::{now_us,elapsed_us}`,
//!   `Parallelism::threads`, and `Stopwatch::{start,lap_us}` are
//!   sanctioned injection boundaries that consume their own taint, and
//!   a function that sorts its data (`.sort*()` / `BTreeMap` /
//!   `BTreeSet`) sanitizes the hash-order class at function
//!   granularity.
//! - **C1 shard-escape** — a closure handed to a thread fan-out
//!   (`s.spawn(..)` under `thread::scope` / `thread::spawn`) must not
//!   capture `&mut` state declared outside itself and must not reach
//!   observability emission — the JSONL stream and span counters
//!   are shared ordering-sensitive state — unless the emitting call is
//!   wrapped in `obs::with_quiet`. Calls to caller-supplied `Fn`
//!   parameters inside a spawn body are unresolvable and therefore
//!   carry the same quiet-wrapping obligation.
//! - **A1 arithmetic audit** — inside the downward call closure of any
//!   digest function, raw `+` / `*` / `<<` on integers must be
//!   `wrapping_*` / `checked_*` (or both-literal, which the compiler
//!   const-folds and bounds-checks). Silent release-mode wraparound in
//!   a digest fold diverges from the debug-profile behavior the
//!   determinism suites test.

use crate::dataflow::{taint_names, Witness, Workspace, TAINT_HASH, TAINT_THREAD, TAINT_TIME};
use crate::lexer::{Tok, TokKind};
use crate::rules::Violation;

/// Crates whose sinks are exempt from T1: `bench` timestamps its own
/// artifacts by design and `lint` quotes sources in fixtures.
const T1_EXEMPT_CRATES: &[&str] = &["bench", "lint"];
/// Crates exempt from C1: `obs` owns the emission machinery itself,
/// `bench`/`lint` run outside the determinism envelope.
const C1_EXEMPT_CRATES: &[&str] = &["obs", "bench", "lint"];
/// Crates in scope for A1's digest-path arithmetic audit.
const A1_CRATES: &[&str] = &["core", "dist", "graph"];

/// Sink-primitive function names for T1: the digest fold and the JSONL
/// writer.
const SINK_PRIMITIVES: &[&str] = &["state_digest", "write_record"];

/// The rules this module produces. Waivers for these rules are only
/// stale-checked in deep mode — the fast token pass never runs them,
/// so their waivers legitimately match nothing there.
pub const SEMANTIC_RULES: &[&str] = &["T1", "C1", "A1"];

/// Sanctioned taint boundaries `(self_type, name)`: the monotonic
/// clock, the parallelism knob, and the obs phase stopwatch. Their
/// ambient reads are the point: clock readings feed only wall-time
/// report fields, the thread count only sizes a fan-out whose result
/// is byte-identical for every count (tests pin it with
/// `Parallelism::Threads`), and `Stopwatch` laps flow only into span
/// *fields* (telemetry payload, like `write_record`'s `ts_us`), never
/// into program state.
const SANCTIONED: &[(&str, &str)] = &[
    ("MonotonicClock", "now_us"),
    ("MonotonicClock", "elapsed_us"),
    ("Parallelism", "threads"),
    ("Stopwatch", "start"),
    ("Stopwatch", "lap_us"),
];

fn ident_at(toks: &[Tok], i: usize) -> Option<&str> {
    match toks.get(i).map(|t| &t.kind) {
        Some(TokKind::Ident(s)) => Some(s.as_str()),
        _ => None,
    }
}

fn punct_at(toks: &[Tok], i: usize, c: char) -> bool {
    matches!(toks.get(i), Some(t) if t.kind == TokKind::Punct(c))
}

fn violation(
    ws: &Workspace,
    node: usize,
    rule: &'static str,
    line: u32,
    message: String,
    trace: Vec<String>,
) -> Violation {
    let file = &ws.files[ws.nodes[node].file];
    Violation {
        rule,
        file: file.rel_path.clone(),
        line,
        snippet: file.snippet(line),
        message,
        trace,
    }
}

/// How a node qualifies as a T1 sink, if it does.
struct SinkOp {
    desc: String,
}

/// Run all semantic rules over the workspace graph.
#[must_use]
pub fn analyze(ws: &Workspace) -> Vec<Violation> {
    let mut out = Vec::new();

    // ---- Shared per-node facts ------------------------------------
    let n = ws.nodes.len();
    let mut sanctioned = vec![false; n];
    for (i, node) in ws.nodes.iter().enumerate() {
        if let Some(t) = &node.self_type {
            sanctioned[i] = SANCTIONED
                .iter()
                .any(|&(st, nm)| st == t && nm == node.name);
        }
    }

    // T1 sink-ops: own emission site, primitive name, or a direct call
    // edge to a primitive-named / emitting node.
    let mut sink_op: Vec<Option<SinkOp>> = Vec::with_capacity(n);
    for i in 0..n {
        let node = &ws.nodes[i];
        let op = if let Some(site) = ws.emissions[i].first() {
            Some(SinkOp {
                desc: format!("emits via `{}` (line {})", site.what, site.line),
            })
        } else if SINK_PRIMITIVES.contains(&node.name.as_str()) {
            Some(SinkOp {
                desc: format!("is the ordering-sensitive primitive `{}`", node.name),
            })
        } else {
            ws.calls[i]
                .iter()
                .find(|c| {
                    SINK_PRIMITIVES.contains(&ws.nodes[c.callee].name.as_str())
                        || !ws.emissions[c.callee].is_empty()
                })
                .map(|c| SinkOp {
                    desc: format!(
                        "feeds sink `{}` (line {})",
                        ws.nodes[c.callee].qualified(),
                        c.line
                    ),
                })
        };
        sink_op.push(op);
    }

    // ---- T1: determinism taint ------------------------------------
    let mut seeds: Vec<(u8, Option<u32>)> = vec![(0, None); n];
    let mut allow: Vec<u8> = vec![TAINT_HASH | TAINT_TIME | TAINT_THREAD; n];
    for i in 0..n {
        let toks = &ws.files[ws.nodes[i].file].toks;
        let mut mask = 0u8;
        let mut line = None;
        let mut sanitizes = false;
        let mut ranges: Vec<(usize, usize)> = ws.segments[i].clone();
        if let Some(sig) = ws.nodes[i].sig {
            ranges.push(sig);
        }
        for &(start, end) in &ranges {
            let mut j = start;
            while j < end {
                if let Some(id) = ident_at(toks, j) {
                    let class = match id {
                        "HashMap" | "HashSet" | "RandomState" => TAINT_HASH,
                        "Instant" | "SystemTime" | "thread_rng" => TAINT_TIME,
                        "ThreadId" | "available_parallelism" => TAINT_THREAD,
                        "current"
                            if j >= 3
                                && ident_at(toks, j - 3) == Some("thread")
                                && punct_at(toks, j - 2, ':')
                                && punct_at(toks, j - 1, ':') =>
                        {
                            TAINT_THREAD
                        }
                        _ => 0,
                    };
                    if class != 0 {
                        mask |= class;
                        line.get_or_insert(toks[j].line);
                    }
                    if (id.starts_with("sort") && j > 0 && punct_at(toks, j - 1, '.'))
                        || id == "BTreeMap"
                        || id == "BTreeSet"
                    {
                        sanitizes = true;
                    }
                }
                j += 1;
            }
        }
        if sanitizes {
            allow[i] &= !TAINT_HASH;
        }
        seeds[i] = (mask, line);
    }
    let cut = |callee: usize| sanctioned[callee] || sink_op[callee].is_some();
    let (taint, wit) = ws.propagate(&seeds, &allow, &cut);
    for i in 0..n {
        let node = &ws.nodes[i];
        if node.is_test || T1_EXEMPT_CRATES.contains(&ws.crate_of(i)) {
            continue;
        }
        let (Some(op), mask) = (&sink_op[i], taint[i]) else {
            continue;
        };
        if mask == 0 {
            continue;
        }
        let bit = (0..3).find(|b| mask & (1 << b) != 0).unwrap_or(0);
        out.push(violation(
            ws,
            i,
            "T1",
            node.line,
            format!(
                "`{}` {} while carrying {} taint; cut the flow at a sanctioned \
                 boundary (injected `MonotonicClock`, `Parallelism::threads`) or \
                 sanitize with a sort/BTree collection before the sink",
                node.qualified(),
                op.desc,
                taint_names(mask),
            ),
            ws.trace(i, bit, &wit),
        ));
    }

    // ---- C1: shard-escape -----------------------------------------
    // Emission reachability over resolved edges: a node reaches
    // emission when it emits directly, is the JSONL writer, or calls a
    // node that does (transitively). No boundaries: quiet-wrapping is
    // judged at each spawn-site call below, not inside the graph.
    let mut em_seeds: Vec<(u8, Option<u32>)> = vec![(0, None); n];
    for (i, seed) in em_seeds.iter_mut().enumerate() {
        if let Some(site) = ws.emissions[i].first() {
            *seed = (1, Some(site.line));
        } else if ws.nodes[i].name == "write_record" {
            *seed = (1, Some(ws.nodes[i].line));
        }
    }
    let em_allow = vec![1u8; n];
    let (reaches_emission, em_wit) = ws.propagate(&em_seeds, &em_allow, &|_| false);

    for i in 0..n {
        let node = &ws.nodes[i];
        if node.is_test || C1_EXEMPT_CRATES.contains(&ws.crate_of(i)) {
            continue;
        }
        let toks = &ws.files[node.file].toks;
        for &(start, end) in &ws.segments[i] {
            let mut j = start;
            while j < end {
                if ident_at(toks, j) == Some("spawn") && punct_at(toks, j + 1, '(') {
                    let dotted = j > 0 && punct_at(toks, j - 1, '.');
                    let pathed = j >= 3
                        && punct_at(toks, j - 1, ':')
                        && punct_at(toks, j - 2, ':')
                        && ident_at(toks, j - 3) == Some("thread");
                    if dotted || pathed {
                        if let Some((body, params)) = spawn_closure(toks, j + 1, end) {
                            check_spawn_body(
                                ws,
                                i,
                                toks,
                                body,
                                &params,
                                &reaches_emission,
                                &em_wit,
                                &mut out,
                            );
                            j = body.1;
                            continue;
                        }
                    }
                }
                j += 1;
            }
        }
    }

    // ---- A1: arithmetic audit -------------------------------------
    // Downward closure from digest roots, with predecessor links for
    // the flow trace.
    let mut pred: Vec<Option<(usize, u32)>> = vec![None; n];
    let mut in_digest = vec![false; n];
    let mut queue: Vec<usize> = Vec::new();
    for (i, node) in ws.nodes.iter().enumerate() {
        if !node.is_test
            && !node.is_closure
            && node.name.contains("digest")
            && A1_CRATES.contains(&ws.crate_of(i))
        {
            in_digest[i] = true;
            queue.push(i);
        }
    }
    while let Some(i) = queue.pop() {
        for call in &ws.calls[i] {
            if !in_digest[call.callee] && !ws.nodes[call.callee].is_test {
                in_digest[call.callee] = true;
                pred[call.callee] = Some((i, call.line));
                queue.push(call.callee);
            }
        }
    }
    for (i, &on_path) in in_digest.iter().enumerate() {
        if !on_path || ws.nodes[i].is_test || !A1_CRATES.contains(&ws.crate_of(i)) {
            continue;
        }
        let toks = &ws.files[ws.nodes[i].file].toks;
        for &(start, end) in &ws.segments[i] {
            let mut j = start;
            while j < end {
                if let Some(op) = raw_int_op(toks, j, end) {
                    let mut trace = vec![format!(
                        "fn `{}` is on a digest path",
                        ws.nodes[i].qualified()
                    )];
                    let mut cur = i;
                    let mut guard = 0;
                    while let Some((p, line)) = pred[cur] {
                        guard += 1;
                        if guard > 32 {
                            break;
                        }
                        trace.push(format!(
                            "called from `{}` at {}:{line}",
                            ws.nodes[p].qualified(),
                            ws.path_of(p),
                        ));
                        cur = p;
                    }
                    out.push(violation(
                        ws,
                        i,
                        "A1",
                        toks[j].line,
                        format!(
                            "raw `{op}` on an integer inside digest path `{}`; use \
                             `wrapping_*`/`checked_*` so release-mode wraparound \
                             cannot silently diverge from the checked profiles",
                            ws.nodes[i].qualified(),
                        ),
                        trace,
                    ));
                    if op == "<<" {
                        j += 2;
                        continue;
                    }
                }
                j += 1;
            }
        }
    }

    out.sort_by(|a, b| {
        (a.rule, &a.file, a.line, &a.message).cmp(&(b.rule, &b.file, b.line, &b.message))
    });
    out.dedup_by(|a, b| {
        a.rule == b.rule && a.file == b.file && a.line == b.line && a.message == b.message
    });
    out
}

/// Parse the closure argument of a spawn call whose `(` sits at
/// `open`. Returns the closure body token range and its parameter
/// names, or `None` when the argument is not a literal closure.
fn spawn_closure(toks: &[Tok], open: usize, limit: usize) -> Option<((usize, usize), Vec<String>)> {
    // Matching `)` of the spawn call.
    let mut depth = 0usize;
    let mut close = None;
    let mut i = open;
    while i < toks.len() {
        if punct_at(toks, i, '(') {
            depth += 1;
        } else if punct_at(toks, i, ')') {
            depth -= 1;
            if depth == 0 {
                close = Some(i);
                break;
            }
        }
        i += 1;
    }
    let close = close?.min(limit);
    let mut j = open + 1;
    if ident_at(toks, j) == Some("move") {
        j += 1;
    }
    if !punct_at(toks, j, '|') {
        return None;
    }
    // Parameters up to the closing `|`.
    let (params, after) = if punct_at(toks, j + 1, '|') {
        (Vec::new(), j + 2)
    } else {
        let mut p = j + 1;
        let mut d = 0i32;
        let mut names = Vec::new();
        let mut closed = None;
        while p < close {
            match &toks[p].kind {
                TokKind::Punct('(' | '[' | '<') => d += 1,
                TokKind::Punct(')' | ']' | '>') => d -= 1,
                TokKind::Punct('|') if d == 0 => {
                    closed = Some(p);
                    break;
                }
                TokKind::Ident(id) if id != "mut" && id != "ref" => names.push(id.clone()),
                _ => {}
            }
            p += 1;
        }
        (names, closed? + 1)
    };
    let body = if punct_at(toks, after, '{') {
        let mut d = 0usize;
        let mut p = after;
        let mut end = None;
        while p < toks.len() {
            if punct_at(toks, p, '{') {
                d += 1;
            } else if punct_at(toks, p, '}') {
                d -= 1;
                if d == 0 {
                    end = Some(p);
                    break;
                }
            }
            p += 1;
        }
        (after + 1, end?.min(close))
    } else {
        (after, close)
    };
    Some((body, params))
}

/// Check one spawn-closure body for shard-escape violations.
#[allow(clippy::too_many_arguments)]
fn check_spawn_body(
    ws: &Workspace,
    node: usize,
    toks: &[Tok],
    body: (usize, usize),
    params: &[String],
    reaches_emission: &[u8],
    em_wit: &[[Option<Witness>; 3]],
    out: &mut Vec<Violation>,
) {
    let (start, end) = body;
    // Locals declared inside the body: `let [mut] name`.
    let mut locals: Vec<&str> = Vec::new();
    let mut j = start;
    while j < end {
        if ident_at(toks, j) == Some("let") {
            let mut k = j + 1;
            if ident_at(toks, k) == Some("mut") {
                k += 1;
            }
            if let Some(name) = ident_at(toks, k) {
                locals.push(name);
            }
        }
        j += 1;
    }
    // `obs::with_quiet(...)` wrapped ranges inside the body.
    let mut quiet: Vec<(usize, usize)> = Vec::new();
    j = start;
    while j < end {
        if ident_at(toks, j) == Some("with_quiet") && punct_at(toks, j + 1, '(') {
            let mut d = 0usize;
            let mut k = j + 1;
            while k < end {
                if punct_at(toks, k, '(') {
                    d += 1;
                } else if punct_at(toks, k, ')') {
                    d -= 1;
                    if d == 0 {
                        break;
                    }
                }
                k += 1;
            }
            quiet.push((j + 1, k));
        }
        j += 1;
    }
    let in_quiet = |t: usize| quiet.iter().any(|&(a, b)| t > a && t < b);

    j = start;
    while j < end {
        // `&mut name` capturing an outer binding.
        if punct_at(toks, j, '&') && ident_at(toks, j + 1) == Some("mut") {
            if let Some(name) = ident_at(toks, j + 2) {
                if name != "self" && !params.iter().any(|p| p == name) && !locals.contains(&name) {
                    out.push(violation(
                        ws,
                        node,
                        "C1",
                        toks[j].line,
                        format!(
                            "fan-out closure in `{}` takes `&mut {name}` on a binding \
                             declared outside the closure; worker threads must only \
                             write their own result slot — route shared-state changes \
                             through the caller's serial merge",
                            ws.nodes[node].qualified(),
                        ),
                        vec![format!(
                            "spawn body in `{}` at {}:{}",
                            ws.nodes[node].qualified(),
                            ws.path_of(node),
                            toks[j].line
                        )],
                    ));
                }
            }
        }
        j += 1;
    }

    // Emission escapes: direct sites, resolved emitting calls, and
    // unresolvable caller-supplied `Fn` parameter calls.
    for site in &ws.emissions[node] {
        if site.tok >= start && site.tok < end && !in_quiet(site.tok) {
            out.push(violation(
                ws,
                node,
                "C1",
                site.line,
                format!(
                    "`{}` emitted from inside a fan-out closure in `{}`; the JSONL \
                     stream and span counters are shared ordering-sensitive state — \
                     wrap the call in `obs::with_quiet`",
                    site.what,
                    ws.nodes[node].qualified(),
                ),
                Vec::new(),
            ));
        }
    }
    for call in &ws.calls[node] {
        if call.tok >= start
            && call.tok < end
            && reaches_emission[call.callee] != 0
            && !in_quiet(call.tok)
        {
            out.push(violation(
                ws,
                node,
                "C1",
                call.line,
                format!(
                    "fan-out closure in `{}` calls `{}`, which reaches observability \
                     emission; wrap the call in `obs::with_quiet` so worker threads \
                     cannot interleave the JSONL stream or skew span counts",
                    ws.nodes[node].qualified(),
                    ws.nodes[call.callee].qualified(),
                ),
                ws.trace(call.callee, 0, em_wit),
            ));
        }
    }
    for pc in &ws.param_calls[node] {
        if pc.tok >= start && pc.tok < end && !in_quiet(pc.tok) {
            out.push(violation(
                ws,
                node,
                "C1",
                pc.line,
                format!(
                    "caller-supplied closure `{}` invoked inside a fan-out closure \
                     in `{}`; it cannot be resolved statically, so it must be wrapped \
                     in `obs::with_quiet` to discharge the emission obligation",
                    pc.param,
                    ws.nodes[node].qualified(),
                ),
                Vec::new(),
            ));
        }
    }
}

/// Classify the token at `j` as a raw integer arithmetic operator for
/// A1 (`+`, `*`, or `<<`), applying the documented escapes: float
/// neighbors, both-literal operands, unary/deref `*`, and trait-bound
/// `+` shapes.
fn raw_int_op(toks: &[Tok], j: usize, end: usize) -> Option<&'static str> {
    let floaty = |k: usize| matches!(toks.get(k).map(|t| &t.kind), Some(TokKind::Float(_)));
    let int_lit = |k: usize| matches!(toks.get(k).map(|t| &t.kind), Some(TokKind::Int));
    match toks.get(j).map(|t| &t.kind) {
        Some(TokKind::Punct('<')) if j + 1 < end && punct_at(toks, j + 1, '<') => {
            // `<<`: skip when both operands are integer literals.
            if j > 0 && int_lit(j - 1) && int_lit(j + 2) {
                return None;
            }
            if j > 0 && (floaty(j - 1) || floaty(j + 2)) {
                return None;
            }
            Some("<<")
        }
        Some(TokKind::Punct('+')) => {
            if j == 0 || floaty(j - 1) || floaty(j + 1) {
                return None;
            }
            if int_lit(j - 1) && int_lit(j + 1) {
                return None;
            }
            // Operand must precede: ident / literal / `)` / `]`.
            let prev_operand = matches!(
                toks[j - 1].kind,
                TokKind::Ident(_) | TokKind::Int | TokKind::Punct(')') | TokKind::Punct(']')
            );
            if !prev_operand {
                return None;
            }
            // Trait-bound shape `Fn() + Send` / `impl Trait + Sync`.
            if let Some(TokKind::Ident(next)) = toks.get(j + 1).map(|t| &t.kind) {
                if next.starts_with(char::is_uppercase) {
                    return None;
                }
            }
            Some("+")
        }
        Some(TokKind::Punct('*')) => {
            if j == 0 || floaty(j - 1) || floaty(j + 1) {
                return None;
            }
            if int_lit(j - 1) && int_lit(j + 1) {
                return None;
            }
            // Multiplication needs a value on the left; anything else
            // (`(`, `=`, `,`, `&`, `;`, `{`, another op) is a deref,
            // glob, or raw-pointer type position.
            let prev_operand = matches!(
                toks[j - 1].kind,
                TokKind::Ident(_) | TokKind::Int | TokKind::Punct(')') | TokKind::Punct(']')
            );
            if !prev_operand {
                return None;
            }
            Some("*")
        }
        _ => None,
    }
}
