//! A minimal std-only Rust lexer for the concurrency analyzer.
//!
//! The line-based scanner in `lib.rs` is fine for single-line patterns,
//! but lock-order and guard-lifetime analysis need a token stream:
//! receiver chains (`self.inner.stale`), statement boundaries, brace
//! scopes, and attributes all span lines. This lexer produces exactly
//! what [`crate::model`] needs and nothing more:
//!
//! - identifiers and keywords (one token kind — the parser decides),
//! - single-character punctuation (`::` arrives as two `:` tokens),
//! - literals collapsed to placeholder kinds (contents dropped, so
//!   `"panic!(x.lock())"` can never confuse the analysis),
//! - lifetimes distinguished from char literals,
//! - comments skipped entirely (suppression markers are matched against
//!   the raw file text by line, not against tokens).
//!
//! It is resilient rather than strict: unknown bytes are skipped, an
//! unterminated literal ends at end-of-file. The analyzer must degrade
//! gracefully on any source text the workspace can throw at it.

/// What a token is. Literal contents are deliberately dropped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Tok {
    /// Identifier or keyword (`self`, `fn`, `query_reported`, ...).
    Ident(String),
    /// One punctuation character (`{`, `.`, `:`, `#`, ...).
    Punct(char),
    /// String / raw-string / byte-string literal.
    Str,
    /// Character literal (`'a'`, `'\n'`).
    Char,
    /// Numeric literal.
    Num,
    /// Lifetime (`'a`, `'static`).
    Lifetime,
}

/// A token plus the 1-based source line it starts on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    pub kind: Tok,
    pub line: usize,
}

impl Token {
    /// The identifier text, if this is an identifier token.
    pub fn ident(&self) -> Option<&str> {
        match &self.kind {
            Tok::Ident(s) => Some(s),
            _ => None,
        }
    }

    /// True when this token is the punctuation character `c`.
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == Tok::Punct(c)
    }

    /// True when this token is the identifier `s`.
    pub fn is_ident(&self, s: &str) -> bool {
        matches!(&self.kind, Tok::Ident(t) if t == s)
    }
}

/// Tokenize Rust source text. Never fails; see module docs.
pub fn lex(text: &str) -> Vec<Token> {
    Lexer {
        bytes: text.as_bytes(),
        text,
        pos: 0,
        line: 1,
        out: Vec::new(),
    }
    .run()
}

struct Lexer<'a> {
    bytes: &'a [u8],
    text: &'a str,
    pos: usize,
    line: usize,
    out: Vec<Token>,
}

impl<'a> Lexer<'a> {
    fn run(mut self) -> Vec<Token> {
        while self.pos < self.bytes.len() {
            let line = self.line;
            let b = self.bytes[self.pos];
            match b {
                b'\n' => {
                    self.line += 1;
                    self.pos += 1;
                }
                b' ' | b'\t' | b'\r' => self.pos += 1,
                b'/' if self.peek(1) == Some(b'/') => self.skip_line_comment(),
                b'/' if self.peek(1) == Some(b'*') => self.skip_block_comment(),
                b'"' => {
                    self.pos += 1;
                    self.skip_string_body();
                    self.push(Tok::Str, line);
                }
                b'r' | b'b' if self.raw_or_byte_string() => {
                    // raw_or_byte_string consumed the literal.
                    self.push(Tok::Str, line);
                }
                b'\'' => self.char_or_lifetime(line),
                b'0'..=b'9' => {
                    self.skip_number();
                    self.push(Tok::Num, line);
                }
                _ if b == b'_' || b.is_ascii_alphabetic() => {
                    // Raw identifier `r#match`: skip the prefix, lex the
                    // ident proper (the raw-string case was tried above).
                    if b == b'r'
                        && self.peek(1) == Some(b'#')
                        && self
                            .peek(2)
                            .is_some_and(|c| c == b'_' || c.is_ascii_alphabetic())
                    {
                        self.pos += 2;
                    }
                    let start = self.pos;
                    while self.pos < self.bytes.len()
                        && (self.bytes[self.pos] == b'_'
                            || self.bytes[self.pos].is_ascii_alphanumeric())
                    {
                        self.pos += 1;
                    }
                    let ident = self.text[start..self.pos].to_owned();
                    self.push(Tok::Ident(ident), line);
                }
                _ if b.is_ascii() => {
                    self.push(Tok::Punct(b as char), line);
                    self.pos += 1;
                }
                // Non-ASCII byte (inside an identifier we don't care
                // about, or stray): skip it.
                _ => self.pos += 1,
            }
        }
        self.out
    }

    fn push(&mut self, kind: Tok, line: usize) {
        self.out.push(Token { kind, line });
    }

    fn peek(&self, ahead: usize) -> Option<u8> {
        self.bytes.get(self.pos + ahead).copied()
    }

    fn skip_line_comment(&mut self) {
        while self.pos < self.bytes.len() && self.bytes[self.pos] != b'\n' {
            self.pos += 1;
        }
    }

    /// Rust block comments nest.
    fn skip_block_comment(&mut self) {
        self.pos += 2;
        let mut depth = 1usize;
        while self.pos < self.bytes.len() && depth > 0 {
            match self.bytes[self.pos] {
                b'\n' => {
                    self.line += 1;
                    self.pos += 1;
                }
                b'/' if self.peek(1) == Some(b'*') => {
                    depth += 1;
                    self.pos += 2;
                }
                b'*' if self.peek(1) == Some(b'/') => {
                    depth -= 1;
                    self.pos += 2;
                }
                _ => self.pos += 1,
            }
        }
    }

    /// Body of a normal string literal; opening quote already consumed.
    fn skip_string_body(&mut self) {
        while self.pos < self.bytes.len() {
            match self.bytes[self.pos] {
                b'\\' => self.pos += 2,
                b'\n' => {
                    self.line += 1;
                    self.pos += 1;
                }
                b'"' => {
                    self.pos += 1;
                    return;
                }
                _ => self.pos += 1,
            }
        }
    }

    /// If the cursor sits on `r"`, `r#"`, `b"`, `br#"`, ... consume the
    /// whole literal and return true. A raw *identifier* (`r#match`) or
    /// a plain ident starting with r/b returns false and consumes
    /// nothing.
    fn raw_or_byte_string(&mut self) -> bool {
        let rest = &self.bytes[self.pos..];
        let mut i = 0;
        // Optional b, optional r (in either br order Rust allows: b, r, br, rb? only br).
        if rest.get(i) == Some(&b'b') {
            i += 1;
        }
        let raw = rest.get(i) == Some(&b'r');
        if raw {
            i += 1;
        }
        let mut hashes = 0;
        while rest.get(i + hashes) == Some(&b'#') {
            hashes += 1;
        }
        if !raw && hashes > 0 {
            return false; // `b#` is not a thing
        }
        if hashes > 0 && !raw {
            return false;
        }
        if rest.get(i + hashes) != Some(&b'"') {
            return false; // raw ident (`r#match`) or plain ident
        }
        if !raw && hashes == 0 && i == 0 {
            return false; // plain `"` handled elsewhere
        }
        // Consume: prefix + hashes + quote.
        self.pos += i + hashes + 1;
        if raw {
            // Scan for `"` followed by `hashes` hashes; no escapes.
            while self.pos < self.bytes.len() {
                if self.bytes[self.pos] == b'\n' {
                    self.line += 1;
                    self.pos += 1;
                } else if self.bytes[self.pos] == b'"'
                    && self.bytes[self.pos + 1..]
                        .iter()
                        .take(hashes)
                        .filter(|&&b| b == b'#')
                        .count()
                        == hashes
                {
                    self.pos += 1 + hashes;
                    return true;
                } else {
                    self.pos += 1;
                }
            }
        } else {
            self.skip_string_body();
        }
        true
    }

    /// Distinguish `'a'` / `'\n'` (char literal) from `'a` (lifetime).
    fn char_or_lifetime(&mut self, line: usize) {
        if self.peek(1) == Some(b'\\') {
            // Escaped char literal: skip to the closing quote.
            self.pos += 2;
            while self.pos < self.bytes.len() && self.bytes[self.pos] != b'\'' {
                self.pos += 1;
            }
            self.pos += 1;
            self.push(Tok::Char, line);
            return;
        }
        // `'X'` where X is any single char -> char literal. Otherwise a
        // lifetime: consume the identifier after the quote.
        let close_soon = {
            // A char is at most 4 utf8 bytes; find a `'` within 5 bytes
            // with at least one byte between.
            let mut found = None;
            for n in 2..=5 {
                if self.peek(n) == Some(b'\'') {
                    found = Some(n);
                    break;
                }
            }
            // `''` is invalid rust; `'a'` gives n == 2.
            found.filter(|&n| {
                // Reject `'a': ...` style false positives: a lifetime
                // followed by a char literal is rare enough to ignore.
                // Only accept if the bytes between are not ident chars
                // beyond position 1 (i.e. short enough to be one char).
                n == 2 || !self.bytes[self.pos + 1].is_ascii_alphanumeric()
            })
        };
        if let Some(n) = close_soon {
            self.pos += n + 1;
            self.push(Tok::Char, line);
        } else {
            // Lifetime: `'` + ident.
            self.pos += 1;
            while self.pos < self.bytes.len()
                && (self.bytes[self.pos] == b'_' || self.bytes[self.pos].is_ascii_alphanumeric())
            {
                self.pos += 1;
            }
            self.push(Tok::Lifetime, line);
        }
    }

    fn skip_number(&mut self) {
        while self.pos < self.bytes.len() {
            let b = self.bytes[self.pos];
            if b == b'_' || b.is_ascii_alphanumeric() {
                self.pos += 1;
            } else if b == b'.'
                && self
                    .peek(1)
                    .is_some_and(|n| n.is_ascii_digit())
            {
                // `1.5` but not `1.max(2)` and not `x.0.1` chains.
                self.pos += 1;
            } else {
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(text: &str) -> Vec<String> {
        lex(text)
            .into_iter()
            .filter_map(|t| match t.kind {
                Tok::Ident(s) => Some(s),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn basic_tokens_and_lines() {
        let toks = lex("fn f() {\n  x.lock()\n}\n");
        assert!(toks[0].is_ident("fn"));
        assert!(toks[1].is_ident("f"));
        let lock = toks.iter().find(|t| t.is_ident("lock")).unwrap();
        assert_eq!(lock.line, 2);
        let close = toks.iter().find(|t| t.is_punct('}')).unwrap();
        assert_eq!(close.line, 3);
    }

    #[test]
    fn strings_are_opaque() {
        let toks = lex("let s = \"a.lock() // not code\"; done");
        assert_eq!(idents("let s = \"a.lock()\"; done"), vec!["let", "s", "done"]);
        assert!(toks.iter().any(|t| t.kind == Tok::Str));
        assert!(!toks.iter().any(|t| t.is_ident("lock")));
    }

    #[test]
    fn raw_strings_span_lines_and_keep_line_count() {
        let toks = lex("let q = r#\"\n panic!() .lock()\n\"#;\nnext");
        assert!(!toks.iter().any(|t| t.is_ident("lock")));
        let next = toks.iter().find(|t| t.is_ident("next")).unwrap();
        assert_eq!(next.line, 4);
    }

    #[test]
    fn raw_identifiers_are_identifiers() {
        assert_eq!(idents("r#match x"), vec!["match", "x"]);
    }

    #[test]
    fn comments_are_skipped_including_nested_blocks() {
        let src = "a // b.lock()\n/* c /* nested */ still */ d";
        assert_eq!(idents(src), vec!["a", "d"]);
    }

    #[test]
    fn char_literals_vs_lifetimes() {
        let toks = lex("let c = 'x'; fn f<'a>(v: &'a str) {}");
        assert!(toks.iter().any(|t| t.kind == Tok::Char));
        assert_eq!(toks.iter().filter(|t| t.kind == Tok::Lifetime).count(), 2);
        // The lifetime ident must not leak as an Ident token.
        assert!(!toks.iter().any(|t| t.is_ident("a")));
    }

    #[test]
    fn escaped_char_literal() {
        let toks = lex("let c = '\\n'; x");
        assert!(toks.iter().any(|t| t.kind == Tok::Char));
        assert!(toks.iter().any(|t| t.is_ident("x")));
    }

    #[test]
    fn numbers_do_not_eat_method_calls() {
        let toks = lex("1.max(2) 1.5 0xff_u32");
        assert!(toks.iter().any(|t| t.is_ident("max")));
        // `1`, `2`, `1.5`, `0xff_u32`.
        assert_eq!(toks.iter().filter(|t| t.kind == Tok::Num).count(), 4);
    }

    #[test]
    fn double_colon_is_two_puncts() {
        let toks = lex("std::thread::sleep");
        assert_eq!(toks.iter().filter(|t| t.is_punct(':')).count(), 4);
    }

    #[test]
    fn byte_string_is_opaque() {
        let toks = lex("let b = b\"lock()\"; z");
        assert!(!toks.iter().any(|t| t.is_ident("lock")));
        assert!(toks.iter().any(|t| t.is_ident("z")));
    }
}
