//! `xdmod_check::json` held to the recursive tree parser it replaced.
//!
//! `reference` is that parser as it was (less the `push_f64` writer), but
//! for one rule added since, RFC 8259 §7's: a raw control byte in a string
//! is an error. It is a `JsonValue` enum with a `Vec` per container. On every input both parsers must agree on
//! `Ok` or `Err`, on the error's message and byte offset, on the compact
//! `Display` text, and on every accessor of every value. The inputs are
//! the example configs, pre-flight-shaped topologies of 3, 30 and 300
//! satellites, seeded storage-simulator documents, and seeded byte and
//! token mutations of all of them.

mod common;

use std::panic::{catch_unwind, AssertUnwindSafe};

use xdmod_chaos::DeterministicRng;
use xdmod_check::json::{self, JsonValue};
use xdmod_sim::StorageSim;

/// The tree parser `json` used before its flat document.
mod reference {
    use std::borrow::Cow;
    use std::fmt;

    /// A parsed JSON value, borrowing its strings from the input text.
    #[derive(Debug, Clone, PartialEq)]
    pub enum JsonValue<'a> {
        /// `null`
        Null,
        /// `true` / `false`
        Bool(bool),
        /// A number, as its source text. A number token holds no escape, so
        /// it is always a slice of the input.
        Number(&'a str),
        /// A string; borrowed unless it contained an escape.
        String(Cow<'a, str>),
        /// An array.
        Array(Vec<JsonValue<'a>>),
        /// An object's members, in document order.
        Object(Vec<(Cow<'a, str>, JsonValue<'a>)>),
    }

    impl<'a> JsonValue<'a> {
        /// Member of an object, if this is an object. A duplicated key
        /// resolves to its last value.
        pub fn get(&self, key: &str) -> Option<&JsonValue<'a>> {
            match self {
                JsonValue::Object(members) => {
                    members.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v)
                }
                _ => None,
            }
        }

        /// The string payload, if this is a string.
        pub fn as_str(&self) -> Option<&str> {
            match self {
                JsonValue::String(s) => Some(s),
                _ => None,
            }
        }

        /// The numeric payload, if this is a number: the nearest `f64` to its
        /// text (`str::parse` rounds correctly), infinite past `f64::MAX`.
        pub fn as_f64(&self) -> Option<f64> {
            match self {
                JsonValue::Number(n) => n.parse().ok(),
                _ => None,
            }
        }

        /// The integer payload, if this is an integer token (no fraction, no
        /// exponent) that fits an `i64`. `-0` is not one: serde's JSON reader,
        /// whose reading the storage schema keeps, makes it the float `-0.0`.
        pub fn as_i64(&self) -> Option<i64> {
            match self {
                JsonValue::Number(n) if *n != "-0" && !n.contains(['.', 'e', 'E']) => {
                    n.parse().ok()
                }
                _ => None,
            }
        }

        /// The boolean payload, if this is a boolean.
        pub fn as_bool(&self) -> Option<bool> {
            match self {
                JsonValue::Bool(b) => Some(*b),
                _ => None,
            }
        }

        /// The element list, if this is an array.
        pub fn as_array(&self) -> Option<&[JsonValue<'a>]> {
            match self {
                JsonValue::Array(items) => Some(items),
                _ => None,
            }
        }

        /// Convenience: an array of strings under `key`, empty when absent.
        pub fn string_list(&self, key: &str) -> Vec<String> {
            self.get(key)
                .and_then(JsonValue::as_array)
                .map(|items| {
                    items
                        .iter()
                        .filter_map(JsonValue::as_str)
                        .map(str::to_owned)
                        .collect()
                })
                .unwrap_or_default()
        }
    }

    /// Compact JSON text: numbers as written, strings through [`escape`],
    /// members in document order.
    impl fmt::Display for JsonValue<'_> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                JsonValue::Null => f.write_str("null"),
                JsonValue::Bool(b) => write!(f, "{b}"),
                JsonValue::Number(n) => f.write_str(n),
                JsonValue::String(s) => f.write_str(&escape(s)),
                JsonValue::Array(items) => {
                    f.write_str("[")?;
                    for (i, item) in items.iter().enumerate() {
                        let sep = if i == 0 { "" } else { "," };
                        write!(f, "{sep}{item}")?;
                    }
                    f.write_str("]")
                }
                JsonValue::Object(members) => {
                    f.write_str("{")?;
                    for (i, (key, value)) in members.iter().enumerate() {
                        let sep = if i == 0 { "" } else { "," };
                        write!(f, "{sep}{}:{value}", escape(key))?;
                    }
                    f.write_str("}")
                }
            }
        }
    }

    /// A parse failure with byte offset context.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct JsonError {
        /// What went wrong.
        pub message: String,
        /// Byte offset in the input.
        pub offset: usize,
    }

    impl fmt::Display for JsonError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "{} at byte {}", self.message, self.offset)
        }
    }

    impl std::error::Error for JsonError {}

    /// Parse a complete JSON document (trailing whitespace allowed, trailing
    /// garbage rejected).
    pub fn parse(input: &str) -> Result<JsonValue<'_>, JsonError> {
        let mut p = Parser::new(input);
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after document"));
        }
        Ok(value)
    }

    /// Escape a string into a quoted JSON string literal.
    pub fn escape(s: &str) -> String {
        let mut out = String::with_capacity(s.len() + 2);
        out.push('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out.push('"');
        out
    }

    /// How deep arrays and objects may nest: far deeper than any document
    /// here, far shallower than a thread's stack allows.
    pub const MAX_DEPTH: usize = 128;

    struct Parser<'a> {
        text: &'a str,
        bytes: &'a [u8],
        pos: usize,
        /// Containers open around `pos`.
        depth: usize,
    }

    impl<'a> Parser<'a> {
        fn new(text: &'a str) -> Self {
            Parser {
                text,
                bytes: text.as_bytes(),
                pos: 0,
                depth: 0,
            }
        }

        fn err(&self, message: &str) -> JsonError {
            JsonError {
                message: message.to_owned(),
                offset: self.pos,
            }
        }

        fn peek(&self) -> Option<u8> {
            self.bytes.get(self.pos).copied()
        }

        fn skip_ws(&mut self) {
            let rest = &self.bytes[self.pos..];
            self.pos += rest
                .iter()
                .position(|b| !matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
                .unwrap_or(rest.len());
        }

        fn consume(&mut self, byte: u8) -> Result<(), JsonError> {
            if self.peek() == Some(byte) {
                self.pos += 1;
                Ok(())
            } else {
                Err(self.err(&format!("expected '{}'", byte as char)))
            }
        }

        fn literal(
            &mut self,
            word: &str,
            value: JsonValue<'a>,
        ) -> Result<JsonValue<'a>, JsonError> {
            if self.bytes[self.pos..].starts_with(word.as_bytes()) {
                self.pos += word.len();
                Ok(value)
            } else {
                Err(self.err(&format!("expected '{word}'")))
            }
        }

        fn value(&mut self) -> Result<JsonValue<'a>, JsonError> {
            match self.peek() {
                Some(open @ (b'{' | b'[')) => {
                    if self.depth == MAX_DEPTH {
                        return Err(self.err("containers nest too deep"));
                    }
                    self.depth += 1;
                    let container = if open == b'{' {
                        self.object()
                    } else {
                        self.array()
                    };
                    self.depth -= 1;
                    container
                }
                Some(b'"') => self.string().map(JsonValue::String),
                Some(b't') => self.literal("true", JsonValue::Bool(true)),
                Some(b'f') => self.literal("false", JsonValue::Bool(false)),
                Some(b'n') => self.literal("null", JsonValue::Null),
                Some(b'-' | b'0'..=b'9') => self.number(),
                _ => Err(self.err("expected a JSON value")),
            }
        }

        fn object(&mut self) -> Result<JsonValue<'a>, JsonError> {
            self.consume(b'{')?;
            let mut members = Vec::new();
            self.skip_ws();
            if self.peek() == Some(b'}') {
                self.pos += 1;
                return Ok(JsonValue::Object(members));
            }
            loop {
                self.skip_ws();
                let key = self.string()?;
                self.skip_ws();
                self.consume(b':')?;
                self.skip_ws();
                let value = self.value()?;
                members.push((key, value));
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b'}') => {
                        self.pos += 1;
                        return Ok(JsonValue::Object(members));
                    }
                    _ => return Err(self.err("expected ',' or '}' in object")),
                }
            }
        }

        fn array(&mut self) -> Result<JsonValue<'a>, JsonError> {
            self.consume(b'[')?;
            let mut items = Vec::new();
            self.skip_ws();
            if self.peek() == Some(b']') {
                self.pos += 1;
                return Ok(JsonValue::Array(items));
            }
            loop {
                self.skip_ws();
                items.push(self.value()?);
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b']') => {
                        self.pos += 1;
                        return Ok(JsonValue::Array(items));
                    }
                    _ => return Err(self.err("expected ',' or ']' in array")),
                }
            }
        }

        /// The run from `pos` up to the next `"`, `\` or control byte (or
        /// the end of input), consumed. `pos` starts on a char boundary and
        /// the run ends at an ASCII byte or the end, so the slice is whole
        /// UTF-8.
        fn plain_run(&mut self) -> &'a str {
            let start = self.pos;
            let rest = &self.bytes[start..];
            self.pos += rest
                .iter()
                .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
                .unwrap_or(rest.len());
            &self.text[start..self.pos]
        }

        /// A string literal; borrowed from the input unless it has an escape.
        fn string(&mut self) -> Result<Cow<'a, str>, JsonError> {
            self.consume(b'"')?;
            let head = self.plain_run();
            if self.peek() == Some(b'"') {
                self.pos += 1;
                return Ok(Cow::Borrowed(head));
            }
            let mut out = String::from(head);
            loop {
                match self.peek() {
                    None => return Err(self.err("unterminated string")),
                    Some(b'"') => {
                        self.pos += 1;
                        return Ok(Cow::Owned(out));
                    }
                    // RFC 8259 §7: a control byte must be escaped.
                    Some(b) if b < 0x20 => {
                        return Err(
                            self.err(&format!("unescaped control character U+{b:04X} in string"))
                        );
                    }
                    Some(_) => {
                        self.pos += 1;
                        let esc = self.peek().ok_or_else(|| self.err("bad escape"))?;
                        self.pos += 1;
                        match esc {
                            b'"' => out.push('"'),
                            b'\\' => out.push('\\'),
                            b'/' => out.push('/'),
                            b'n' => out.push('\n'),
                            b'r' => out.push('\r'),
                            b't' => out.push('\t'),
                            b'b' => out.push('\u{0008}'),
                            b'f' => out.push('\u{000c}'),
                            b'u' => out.push(self.unicode_escape()?),
                            _ => return Err(self.err("unknown escape")),
                        }
                    }
                }
                out.push_str(self.plain_run());
            }
        }

        /// The scalar of a `\u` escape whose digits start at `pos`. A high
        /// surrogate followed by an escaped low one decodes as the pair; a
        /// lone surrogate becomes U+FFFD.
        fn unicode_escape(&mut self) -> Result<char, JsonError> {
            let cp = self.hex4()?;
            if !(0xd800..0xdc00).contains(&cp) {
                return Ok(char::from_u32(cp).unwrap_or('\u{fffd}'));
            }
            let resume = self.pos;
            if self.bytes.get(self.pos..self.pos + 2) == Some(b"\\u") {
                self.pos += 2;
                if let Ok(low @ 0xdc00..=0xdfff) = self.hex4() {
                    let pair = 0x10000 + ((cp - 0xd800) << 10) + (low - 0xdc00);
                    return Ok(char::from_u32(pair).unwrap_or('\u{fffd}'));
                }
                self.pos = resume;
            }
            Ok('\u{fffd}')
        }

        /// Exactly four ASCII hex digits at `pos` (no sign), consumed.
        fn hex4(&mut self) -> Result<u32, JsonError> {
            let hex = self
                .bytes
                .get(self.pos..self.pos + 4)
                .ok_or_else(|| self.err("truncated \\u escape"))?;
            let hex = std::str::from_utf8(hex).map_err(|_| self.err("non-ascii \\u escape"))?;
            let cp = hex
                .chars()
                .try_fold(0, |cp, c| Some(cp * 16 + c.to_digit(16)?))
                .ok_or_else(|| self.err("bad \\u escape"))?;
            self.pos += 4;
            Ok(cp)
        }

        /// A number: the longest run of number bytes, which must be one
        /// token of RFC 8259's grammar.
        fn number(&mut self) -> Result<JsonValue<'a>, JsonError> {
            let start = self.pos;
            if self.peek() == Some(b'-') {
                self.pos += 1;
            }
            while matches!(
                self.peek(),
                Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
            ) {
                self.pos += 1;
            }
            // Every byte of the run is ASCII, so the slice is on char boundaries.
            let text = &self.text[start..self.pos];
            if is_number(text.as_bytes()) {
                Ok(JsonValue::Number(text))
            } else {
                Err(JsonError {
                    message: format!("invalid number '{text}'"),
                    offset: start,
                })
            }
        }
    }

    /// Whether `b` is exactly `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`.
    fn is_number(b: &[u8]) -> bool {
        let digits = |b: &[u8]| b.iter().take_while(|c| c.is_ascii_digit()).count();
        let b = b.strip_prefix(b"-").unwrap_or(b);
        let int = digits(b);
        if int == 0 || (int > 1 && b[0] == b'0') {
            return false;
        }
        let mut rest = &b[int..];
        if let Some(fraction) = rest.strip_prefix(b".") {
            let n = digits(fraction);
            if n == 0 {
                return false;
            }
            rest = &fraction[n..];
        }
        if let Some(exponent) = rest.strip_prefix(b"e").or_else(|| rest.strip_prefix(b"E")) {
            let exponent = exponent
                .strip_prefix(b"+")
                .or_else(|| exponent.strip_prefix(b"-"))
                .unwrap_or(exponent);
            let n = digits(exponent);
            if n == 0 {
                return false;
            }
            rest = &exponent[n..];
        }
        rest.is_empty()
    }
}

const SEED: u64 = 8259;

/// Every input family, as `(name, text)`.
fn corpus() -> Vec<(String, String)> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/configs");
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "json"))
        .collect();
    paths.sort();
    assert!(paths.len() >= 5, "{paths:?}");
    let mut docs: Vec<(String, String)> = paths
        .iter()
        .map(|path| {
            (
                path.display().to_string(),
                std::fs::read_to_string(path).unwrap(),
            )
        })
        .collect();
    for satellites in [3, 30, 300] {
        docs.push((
            format!("topology({satellites})"),
            common::topology(satellites),
        ));
    }
    for (seed, month) in [(SEED, 1), (SEED + 1, 6), (SEED + 2, 12)] {
        let doc = StorageSim::ccr(seed).json_document(2017, month);
        docs.push((format!("storage sim {seed} month {month}"), doc));
    }
    docs
}

/// Both parsers on `input`: the same outcome, text and values.
fn agree(input: &str, what: &str) -> bool {
    match (json::parse(input), reference::parse(input)) {
        (Ok(new), Ok(old)) => {
            assert_eq!(new.to_string(), old.to_string(), "{what}");
            same(new.root(), &old, what);
            true
        }
        (Err(new), Err(old)) => {
            assert_eq!(
                (new.message.as_str(), new.offset),
                (old.message.as_str(), old.offset),
                "{what}"
            );
            false
        }
        (new, old) => panic!(
            "{what}: new {:?}, reference {:?}",
            new.map(|_| ()),
            old.map(|_| ())
        ),
    }
}

/// Every accessor of `new` answers as the reference's does, recursively.
fn same(new: JsonValue, old: &reference::JsonValue, what: &str) {
    assert_eq!(new.is_null(), *old == reference::JsonValue::Null, "{what}");
    assert_eq!(new.as_bool(), old.as_bool(), "{what}");
    assert_eq!(new.as_str(), old.as_str(), "{what}");
    assert_eq!(
        new.as_f64().map(f64::to_bits),
        old.as_f64().map(f64::to_bits),
        "{what}"
    );
    assert_eq!(new.as_i64(), old.as_i64(), "{what}");
    match (new.as_array(), old.as_array()) {
        (Some(items), Some(want)) => {
            assert_eq!(items.len(), want.len(), "{what}");
            for (item, want) in items.zip(want) {
                same(item, want, what);
            }
        }
        (None, None) => {}
        _ => panic!("{what}: array or not"),
    }
    let reference::JsonValue::Object(want) = old else {
        assert!(new.members().is_none(), "{what}");
        assert!(new.get("").is_none(), "{what}");
        return;
    };
    let members = new.members().unwrap();
    assert_eq!(members.len(), want.len(), "{what}");
    for ((key, value), (want_key, want_value)) in members.zip(want) {
        assert_eq!(key, want_key.as_ref(), "{what}");
        same(value, want_value, what);
        // A duplicated key resolves to the same (last) member in both.
        let got = new.get(key).map(|v| v.to_string());
        assert_eq!(got, old.get(key).map(|v| v.to_string()), "{what}: {key}");
        assert_eq!(new.string_list(key), old.string_list(key), "{what}: {key}");
    }
    assert!(new.get("\u{0}absent").is_none(), "{what}");
}

#[test]
fn every_corpus_document_parses_identically() {
    for (name, text) in corpus() {
        assert!(agree(&text, &name), "{name} must parse");
    }
}

/// Text spliced into a document: broken structure, broken escapes,
/// number edge cases and bytes JSON forbids.
const TOKENS: &[&str] = &[
    "[",
    "]",
    "{",
    "}",
    ",",
    ":",
    "\"",
    "\\",
    "\\u",
    "\\ud800",
    "\\udc00",
    "\\ud83d\\ude00",
    "\\u12",
    "\\u00e9",
    "\\n",
    "\\x",
    "-0",
    "1e400",
    "-1",
    "12.0",
    "1e3",
    "01",
    "1.",
    ".5",
    "-",
    "+1",
    "0x1",
    "NaN",
    "null",
    "nul",
    "true",
    "tru",
    "false",
    "\"\"",
    "[]",
    "{}",
    "\"k\":1,",
    "\"name\":\"a\",",
    "é",
    "😀",
    "\u{0}",
    "\u{7f}",
    " ",
    "\n",
];

/// One byte or token mutation of `doc`, in place.
fn mutate(doc: &mut Vec<u8>, rng: &mut DeterministicRng) {
    let at = rng.gen_range(0, doc.len() as u64 + 1) as usize;
    let span = (rng.gen_range(0, 8) as usize).min(doc.len() - at);
    match rng.gen_range(0, 9) {
        // Bytes: overwrite, insert, delete, truncate.
        0 | 1 if at < doc.len() => doc[at] = rng.gen_range(0, 128) as u8,
        2 => doc.insert(at, rng.gen_range(0, 128) as u8),
        3 if at < doc.len() => {
            doc.remove(at);
        }
        4 => doc.truncate(at),
        // Tokens: over a short span, or between two bytes.
        5 | 6 => {
            let token = TOKENS[rng.gen_range(0, TOKENS.len() as u64) as usize];
            doc.splice(at..at + span, token.bytes());
        }
        // Copy a span of the document somewhere else.
        7 => {
            let copy = doc[at..at + span].to_vec();
            let to = rng.gen_range(0, doc.len() as u64 + 1) as usize;
            doc.splice(to..to, copy);
        }
        // Nesting past the depth bound.
        _ => {
            let open = if rng.gen_range(0, 2) == 0 {
                "["
            } else {
                "{\"a\":["
            };
            doc.splice(
                at..at,
                open.repeat(rng.gen_range(100, 200) as usize).bytes(),
            );
        }
    }
}

#[test]
fn seeded_mutations_parse_identically() {
    let corpus = corpus();
    // A document is picked in inverse proportion to its length, so each
    // gets about the same bytes of parsing and small ones many cases.
    let weights: Vec<f64> = corpus
        .iter()
        .map(|(_, text)| 1.0 / text.len() as f64)
        .collect();
    let total: f64 = weights.iter().sum();
    let mut rng = DeterministicRng::new(SEED);
    let (mut cases, mut mutations, mut accepted) = (0u64, 0u64, 0u64);
    let mut picked = vec![0u64; corpus.len()];
    while mutations < 100_000 {
        let mut x = rng.next_f64() * total;
        let pick = weights
            .iter()
            .position(|w| {
                x -= w;
                x < 0.0
            })
            .unwrap_or(corpus.len() - 1);
        picked[pick] += 1;
        let (name, text) = &corpus[pick];
        let mut doc = text.clone().into_bytes();
        for _ in 0..rng.gen_range(1, 4) {
            mutate(&mut doc, &mut rng);
            mutations += 1;
        }
        let input = String::from_utf8_lossy(&doc);
        let what = format!("case {cases} ({name})");
        if agree(&input, &what) {
            accepted += 1;
        }
        cases += 1;
    }
    // Every family was mutated, and mutations both broke documents and
    // left some whole (a changed digit, a duplicated member).
    assert!(picked.iter().all(|n| *n > 0), "{picked:?}");
    assert!(
        accepted > cases / 100 && accepted < cases / 2,
        "{accepted} of {cases}"
    );
}

#[test]
fn nesting_ten_thousand_deep_stops_where_it_always_did() {
    let arrays = format!("{}{}", "[".repeat(10_000), "]".repeat(10_000));
    let objects = "{\"a\":".repeat(10_000);
    for (input, offset) in [(arrays, json::MAX_DEPTH), (objects, 5 * json::MAX_DEPTH)] {
        let err = json::parse(&input).unwrap_err();
        assert_eq!(
            (err.message.as_str(), err.offset),
            ("containers nest too deep", offset)
        );
        agree(&input, "deep nesting");
    }
}

#[test]
fn every_truncation_is_a_typed_error() {
    // Compact, so the quadratic sweep stays short: about 19 KB.
    let text = reference::parse(&common::topology(30)).unwrap().to_string();
    assert!(json::parse(&text).is_ok());
    for cut in 0..text.len() {
        let prefix = &text[..cut];
        let outcome = catch_unwind(AssertUnwindSafe(|| json::parse(prefix).map(|_| ())));
        let err = match outcome {
            Ok(Err(err)) => err,
            Ok(Ok(())) => panic!("a {cut}-byte prefix parsed"),
            Err(_) => panic!("a {cut}-byte prefix panicked"),
        };
        assert!(err.offset <= cut, "{cut}: {err}");
        // The reference on a sample of the cuts, for the same message.
        if cut % 64 == 0 {
            agree(prefix, &format!("{cut}-byte prefix"));
        }
    }
}

/// `doc` as the root, then shifted by a 0–8 byte string element before
/// it, so every scan starts at each offset within a word.
fn shifted(doc: &str) -> impl Iterator<Item = (Option<usize>, String)> + '_ {
    std::iter::once((None, doc.to_owned()))
        .chain((0..=8).map(move |k| (Some(k), format!("[\"{}\",{doc}]", "p".repeat(k)))))
}

/// The whitespace bytes, one at a time and mixed.
const GAP_KINDS: [&[char]; 5] = [
    &[' '],
    &['\t'],
    &['\n'],
    &['\r'],
    &['\n', ' ', '\t', ' ', '\r'],
];

/// A run of `len` whitespace bytes of `kind`, in turn.
fn gap(kind: &[char], len: usize) -> String {
    kind.iter().copied().cycle().take(len).collect()
}

#[test]
fn whitespace_runs_at_every_length_and_alignment_parse_identically() {
    // `G` marks every gap: around each token kind, before the root and
    // after it, then documents whose error follows a gap.
    let templates = [
        r#"G{G"k"G:G[G1G,G-2.5e3G,G"s"G,GtrueG,GfalseG,GnullG,G{G}G,G[G]G]G,G"e\n"G:G"x"G}G"#,
        "G[G0G]G",
        "G",
        "[1G2]",
        r#"{"a"G1}"#,
        r#"{"a":1G"b":2}"#,
        "[1,G]",
        "[1G",
        r#"{"a":1}Gx"#,
    ];
    let mut cases = 0;
    for template in templates {
        for kind in GAP_KINDS {
            for len in 0..=24 {
                let doc = template.replace('G', &gap(kind, len));
                for (shift, input) in shifted(&doc) {
                    agree(&input, &format!("{doc:?} shifted {shift:?}"));
                    cases += 1;
                }
            }
        }
    }
    // A byte that is not JSON whitespace at each place in a run: the
    // error names its offset.
    for stray in ["x", "!", "\u{0}", "\u{b}", "\u{c}", "\u{a0}", "\u{2028}"] {
        for kind in GAP_KINDS {
            for len in 1..=24 {
                for at in 0..len {
                    let run = gap(kind, len);
                    let run = format!("{}{stray}{}", &run[..at], &run[at + 1..]);
                    let doc = format!("[1,{run}2]");
                    for (shift, input) in shifted(&doc) {
                        assert!(!agree(&input, &format!("{doc:?} shifted {shift:?}")));
                        cases += 1;
                    }
                }
            }
        }
    }
    assert!(cases > 20_000, "{cases}");
}

#[test]
fn string_bodies_at_every_length_and_alignment_parse_identically() {
    // What a body's scan must stop at, or must not: a quote, a backslash
    // (alone, and opening a valid escape), a control byte and multi-byte
    // UTF-8.
    let pieces = [
        "\"", "\\", "\\n", "\\u00e9", "\u{1}", "\u{1f}", "é", "€", "😀",
    ];
    let mut cases = 0;
    for piece in pieces {
        for len in 0..=24 {
            for at in 0..=len {
                let body = format!("{}{piece}{}", "b".repeat(at), "b".repeat(len - at));
                let docs = [
                    format!("\"{body}\""),
                    format!("{{\"{body}\":\"{body}\"}}"),
                    format!("[\"{body}\",\"{body}\"]"),
                    // Unterminated at the end of input.
                    format!("\"{body}"),
                    format!("{{\"{body}"),
                ];
                for doc in &docs {
                    for (shift, input) in shifted(doc) {
                        agree(&input, &format!("{doc:?} shifted {shift:?}"));
                        cases += 1;
                    }
                }
            }
        }
        // The piece alone, and plain bodies of each length.
        for len in 0..=24 {
            for doc in [format!("\"{}\"", "b".repeat(len)), piece.to_owned()] {
                for (shift, input) in shifted(&doc) {
                    agree(&input, &format!("{doc:?} shifted {shift:?}"));
                    cases += 1;
                }
            }
        }
    }
    assert!(cases > 100_000, "{cases}");
}

#[test]
fn control_bytes_in_strings_follow_rfc_8259() {
    // RFC 8259 §7: `unescaped = %x20-21 / %x23-5B / %x5D-10FFFF`, so each
    // byte below 0x20 may appear in a string only escaped, as `\u00XX`
    // (either case) or, for five of them, a short escape. Written out
    // here from the grammar, not from either parser.
    let short = [
        (0x08, "\\b"),
        (0x09, "\\t"),
        (0x0a, "\\n"),
        (0x0c, "\\f"),
        (0x0d, "\\r"),
    ];
    let mut cases = 0;
    for b in 0u8..0x20 {
        let raw = char::from(b);
        let mut escapes = vec![format!("\\u{:04x}", b), format!("\\u{:04X}", b)];
        escapes.extend(
            short
                .iter()
                .filter(|(c, _)| *c == b)
                .map(|(_, e)| e.to_string()),
        );
        for (before, after) in [(0, 0), (1, 0), (3, 9), (7, 1), (8, 8), (15, 2)] {
            let (head, tail) = ("h".repeat(before), "t".repeat(after));
            let want = format!("{head}{raw}{tail}");
            // As a value, as a key, and in an array after a shifted element.
            for (open, close, at) in [("", "", 0), ("{", ":1}", 1), ("[\"ab\",", "]", 6)] {
                let doc = format!("{open}\"{head}{raw}{tail}\"{close}");
                let err = json::parse(&doc).unwrap_err();
                let message = format!("unescaped control character U+{b:04X} in string");
                assert_eq!(
                    (err.message, err.offset),
                    (message, at + 1 + before),
                    "{doc:?}"
                );
                assert!(!agree(&doc, &format!("{doc:?}")));
                for escape in &escapes {
                    let doc = format!("{open}\"{head}{escape}{tail}\"{close}");
                    assert!(agree(&doc, &doc), "{doc}");
                    let parsed = json::parse(&doc).unwrap();
                    let value = match open {
                        "" => parsed.root().as_str().map(str::to_owned),
                        "{" => parsed
                            .root()
                            .members()
                            .and_then(|mut m| m.next())
                            .map(|(k, _)| k.to_owned()),
                        _ => parsed
                            .root()
                            .as_array()
                            .and_then(|mut a| a.nth(1))
                            .and_then(|v| v.as_str())
                            .map(str::to_owned),
                    };
                    assert_eq!(value.as_deref(), Some(want.as_str()), "{doc}");
                    cases += 1;
                }
            }
        }
    }
    // The bytes just past the range, raw, are plain string bytes.
    for raw in [" ", "!", "\u{7f}", "\u{80}", "\u{9f}"] {
        let doc = format!("\"a{raw}b\"");
        assert!(agree(&doc, &doc), "{doc:?}");
        assert_eq!(
            json::parse(&doc).unwrap().root().as_str(),
            Some(&doc[1..doc.len() - 1])
        );
    }
    assert_eq!(cases, 32 * 6 * 3 * 2 + 5 * 6 * 3);
}
