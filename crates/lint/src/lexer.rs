//! A minimal Rust token scanner.
//!
//! This is not a full lexer: it produces just enough token structure for the
//! domain rules in [`crate::rules`] — identifiers, numeric literals (with a
//! float/integer distinction), plain string literals (kept, with their
//! content, for the observability-name rule O1), the `==`/`!=` operators,
//! and single-character punctuation. Comments (line, block, doc), byte and
//! raw string literals, character literals, and lifetimes are consumed and
//! discarded so that rule keywords appearing in prose never fire.

/// The classified content of one significant token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TokKind {
    /// An identifier or keyword (`HashMap`, `unwrap`, `fn`, ...).
    Ident(String),
    /// A numeric literal containing a decimal point or exponent (`0.0`, `1e-9`).
    Float(String),
    /// An integer literal (`42`, `0xff`, `7usize`).
    Int,
    /// A plain double-quoted string literal, with its raw body (escape
    /// sequences left as written). Byte and raw strings are discarded.
    Str(String),
    /// A two-character comparison operator: only `==` and `!=` are merged.
    Op([char; 2]),
    /// Any other single punctuation character.
    Punct(char),
}

/// One significant token with its 1-based source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tok {
    /// 1-based line number the token starts on.
    pub line: u32,
    /// Classified token content.
    pub kind: TokKind,
}

impl Tok {
    /// The identifier's text, when the token is one.
    #[must_use]
    pub fn ident(&self) -> Option<&str> {
        match &self.kind {
            TokKind::Ident(s) => Some(s),
            _ => None,
        }
    }

    /// True when the token is the identifier `s`.
    #[must_use]
    pub fn is_ident(&self, s: &str) -> bool {
        self.ident() == Some(s)
    }

    /// True when the token is the punctuation character `c`.
    #[must_use]
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokKind::Punct(c)
    }
}

/// The identifier at index `i`, if `toks` has one there.
#[must_use]
pub fn ident_at(toks: &[Tok], i: usize) -> Option<&str> {
    toks.get(i).and_then(Tok::ident)
}

/// True when `toks` holds the punctuation `c` at index `i`.
#[must_use]
pub fn punct_at(toks: &[Tok], i: usize, c: char) -> bool {
    toks.get(i).is_some_and(|t| t.is_punct(c))
}

/// Scan `src` into significant tokens, discarding comments, strings,
/// character literals, and lifetimes.
pub fn tokenize(src: &str) -> Vec<Tok> {
    let b: Vec<char> = src.chars().collect();
    let n = b.len();
    let mut toks = Vec::new();
    let mut i = 0usize;
    let mut line = 1u32;

    // Advance past a quoted body, honouring backslash escapes. Returns the
    // index just past the closing quote (or `n` if unterminated).
    fn skip_quoted(b: &[char], mut i: usize, quote: char, line: &mut u32) -> usize {
        while i < b.len() {
            match b[i] {
                '\\' => i += 2,
                '\n' => {
                    *line += 1;
                    i += 1;
                }
                c if c == quote => return i + 1,
                _ => i += 1,
            }
        }
        i
    }

    // Advance past a raw string body `r##"..."##` starting at the first `#`
    // or `"`. Returns the index just past the closing delimiter.
    fn skip_raw(b: &[char], mut i: usize, line: &mut u32) -> usize {
        let mut hashes = 0usize;
        while i < b.len() && b[i] == '#' {
            hashes += 1;
            i += 1;
        }
        if i >= b.len() || b[i] != '"' {
            return i; // not actually a raw string; give up gracefully
        }
        i += 1;
        while i < b.len() {
            if b[i] == '\n' {
                *line += 1;
                i += 1;
            } else if b[i] == '"' {
                let mut j = i + 1;
                let mut seen = 0usize;
                while j < b.len() && b[j] == '#' && seen < hashes {
                    seen += 1;
                    j += 1;
                }
                if seen == hashes {
                    return j;
                }
                i += 1;
            } else {
                i += 1;
            }
        }
        i
    }

    while i < n {
        let c = b[i];
        match c {
            '\n' => {
                line += 1;
                i += 1;
            }
            c if c.is_whitespace() => i += 1,
            '/' if i + 1 < n && b[i + 1] == '/' => {
                while i < n && b[i] != '\n' {
                    i += 1;
                }
            }
            '/' if i + 1 < n && b[i + 1] == '*' => {
                let mut depth = 1usize;
                i += 2;
                while i < n && depth > 0 {
                    if b[i] == '\n' {
                        line += 1;
                        i += 1;
                    } else if b[i] == '/' && i + 1 < n && b[i + 1] == '*' {
                        depth += 1;
                        i += 2;
                    } else if b[i] == '*' && i + 1 < n && b[i + 1] == '/' {
                        depth -= 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
            }
            '"' => {
                let start_line = line;
                let body_start = i + 1;
                i = skip_quoted(&b, i + 1, '"', &mut line);
                let mut end = i.min(n);
                // skip_quoted stops just past the closing quote; drop it
                // (an unterminated string keeps everything).
                if end > body_start && b[end - 1] == '"' {
                    end -= 1;
                }
                toks.push(Tok {
                    line: start_line,
                    kind: TokKind::Str(b[body_start..end].iter().collect()),
                });
            }
            '\'' => {
                // Distinguish a lifetime (`'a`) from a char literal (`'a'`).
                if i + 1 < n && b[i + 1] == '\\' {
                    i = skip_quoted(&b, i + 1, '\'', &mut line);
                } else if i + 2 < n
                    && (b[i + 1].is_alphanumeric() || b[i + 1] == '_')
                    && b[i + 2] != '\''
                {
                    // Lifetime: consume the identifier, no closing quote.
                    i += 1;
                    while i < n && (b[i].is_alphanumeric() || b[i] == '_') {
                        i += 1;
                    }
                } else {
                    i = skip_quoted(&b, i + 1, '\'', &mut line);
                }
            }
            c if c.is_ascii_digit() => {
                let start = i;
                let mut is_float = false;
                if c == '0' && i + 1 < n && matches!(b[i + 1], 'x' | 'o' | 'b') {
                    i += 2;
                    while i < n && (b[i].is_alphanumeric() || b[i] == '_') {
                        i += 1;
                    }
                } else {
                    while i < n && (b[i].is_ascii_digit() || b[i] == '_') {
                        i += 1;
                    }
                    if i + 1 < n && b[i] == '.' && b[i + 1].is_ascii_digit() {
                        is_float = true;
                        i += 1;
                        while i < n && (b[i].is_ascii_digit() || b[i] == '_') {
                            i += 1;
                        }
                    }
                    if i < n && matches!(b[i], 'e' | 'E') {
                        let mut j = i + 1;
                        if j < n && matches!(b[j], '+' | '-') {
                            j += 1;
                        }
                        if j < n && b[j].is_ascii_digit() {
                            is_float = true;
                            i = j;
                            while i < n && (b[i].is_ascii_digit() || b[i] == '_') {
                                i += 1;
                            }
                        }
                    }
                    // Type suffix (`f64`, `usize`): a suffix containing `f`
                    // marks a float literal like `1f64`.
                    let suffix_start = i;
                    while i < n && (b[i].is_alphanumeric() || b[i] == '_') {
                        i += 1;
                    }
                    if b[suffix_start..i].contains(&'f') {
                        is_float = true;
                    }
                }
                let text: String = b[start..i].iter().collect();
                toks.push(Tok {
                    line,
                    kind: if is_float {
                        TokKind::Float(text)
                    } else {
                        TokKind::Int
                    },
                });
            }
            c if c.is_alphabetic() || c == '_' => {
                let start = i;
                while i < n && (b[i].is_alphanumeric() || b[i] == '_') {
                    i += 1;
                }
                let ident: String = b[start..i].iter().collect();
                // Raw / byte string prefixes: `r"..."`, `r#"..."#`, `b"..."`,
                // `br#"..."#`.
                let next = b.get(i).copied();
                match (ident.as_str(), next) {
                    ("r" | "br", Some('"' | '#')) => {
                        i = skip_raw(&b, i, &mut line);
                    }
                    ("b", Some('"')) => {
                        i = skip_quoted(&b, i + 1, '"', &mut line);
                    }
                    _ => toks.push(Tok {
                        line,
                        kind: TokKind::Ident(ident),
                    }),
                }
            }
            '=' if i + 1 < n && b[i + 1] == '=' => {
                toks.push(Tok {
                    line,
                    kind: TokKind::Op(['=', '=']),
                });
                i += 2;
            }
            '!' if i + 1 < n && b[i + 1] == '=' => {
                toks.push(Tok {
                    line,
                    kind: TokKind::Op(['!', '=']),
                });
                i += 2;
            }
            _ => {
                toks.push(Tok {
                    line,
                    kind: TokKind::Punct(c),
                });
                i += 1;
            }
        }
    }
    toks
}

/// Mark tokens belonging to test-only code: bodies of items annotated
/// `#[cfg(test)]` or `#[test]`. Returns one flag per token.
///
/// The scan is purely structural: after a test attribute, every subsequent
/// attribute is skipped, then the next item's body (`{ ... }`, by brace
/// matching) or terminating `;` is marked.
pub fn mark_test_regions(toks: &[Tok]) -> Vec<bool> {
    let mut flags = vec![false; toks.len()];

    let mut i = 0usize;
    while i < toks.len() {
        // Match `#[cfg(test)]` or `#[test]` starting at i.
        let cfg_test = i + 6 < toks.len()
            && toks[i].is_punct('#')
            && toks[i + 1].is_punct('[')
            && toks[i + 2].is_ident("cfg")
            && toks[i + 3].is_punct('(')
            && toks[i + 4].is_ident("test")
            && toks[i + 5].is_punct(')')
            && toks[i + 6].is_punct(']');
        let plain_test = i + 3 < toks.len()
            && toks[i].is_punct('#')
            && toks[i + 1].is_punct('[')
            && toks[i + 2].is_ident("test")
            && toks[i + 3].is_punct(']');
        if !(cfg_test || plain_test) {
            i += 1;
            continue;
        }
        let attr_len = if cfg_test { 7 } else { 4 };
        for f in flags.iter_mut().skip(i).take(attr_len) {
            *f = true;
        }
        let mut j = i + attr_len;
        // Skip any further attributes on the same item.
        while j + 1 < toks.len() && toks[j].is_punct('#') && toks[j + 1].is_punct('[') {
            let mut depth = 0usize;
            while j < toks.len() {
                if toks[j].is_punct('[') {
                    depth += 1;
                } else if toks[j].is_punct(']') {
                    depth -= 1;
                    if depth == 0 {
                        j += 1;
                        break;
                    }
                }
                flags[j] = true;
                j += 1;
            }
        }
        // Mark up to the item body and through its matching close brace, or
        // to a terminating `;` for body-less items (`#[cfg(test)] use ...`).
        while j < toks.len() && !toks[j].is_punct('{') && !toks[j].is_punct(';') {
            flags[j] = true;
            j += 1;
        }
        if j < toks.len() && toks[j].is_punct('{') {
            let mut depth = 0usize;
            while j < toks.len() {
                if toks[j].is_punct('{') {
                    depth += 1;
                } else if toks[j].is_punct('}') {
                    depth -= 1;
                    flags[j] = true;
                    if depth == 0 {
                        j += 1;
                        break;
                    }
                }
                flags[j] = true;
                j += 1;
            }
        } else if j < toks.len() {
            flags[j] = true; // the `;`
            j += 1;
        }
        i = j;
    }
    flags
}
