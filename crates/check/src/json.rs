//! A minimal JSON reader/escaper, std-only, and the workspace's one JSON
//! reader: the federation config, the storage realm's sample documents,
//! the gateway's login body and the tests that read back chart datasets
//! all parse with it. It has no dependency, so `xdmod-check` can be
//! compiled and run anywhere a bare `rustc` exists (pre-flight tooling
//! must not depend on the system it validates). It reads objects, arrays,
//! strings (with escapes), numbers, booleans and null. A string may not
//! hold a raw control byte (U+0000–U+001F), which RFC 8259 §7 requires to
//! be escaped; one is an error at its offset. A `\u` escape
//! takes exactly four hex digits; an escaped surrogate pair decodes to its
//! one scalar, and a lone surrogate to U+FFFD. A number must match RFC
//! 8259's grammar and keeps its source text. Containers nest at most
//! [`MAX_DEPTH`] deep. Parsing is linear in the input.
//!
//! [`parse`] fills a flat [`Document`]: one vector of 12-byte nodes in
//! document order (simdjson's "tape"), so a document costs one growing
//! allocation however many containers it has, and dropping it frees that
//! one vector. A number, and a string (value or key) without an escape,
//! is a byte range of the input; only an escaped string is decoded into
//! a side list. A container node holds its element count and the index
//! one past its subtree, so stepping over a sibling is O(1).
//!
//! The tokenizer is one loop, not a recursive descent. It reads a value;
//! once a value is complete, an inner loop closes the containers it
//! completes and reads the `,` (and an object's next key and `:`) before
//! the next value. An open container's node holds its parent's index and
//! element count until it closes, so the stack of open containers lives
//! in the tape: no block of its own, and no recursion for hostile input
//! to exhaust the thread's stack with. A string without an escape is
//! scanned eight bytes at a time for its closing `"` (or a `\` or a
//! control byte), and so
//! is the run of spaces that indents a line; escaped strings, `\u`
//! escapes and numbers are read a byte at a time, out of line.
//!
//! [`JsonValue`] is a `Copy` handle to one node. An object keeps its
//! members in document order; [`JsonValue::get`] returns the last member
//! of a duplicated key, and [`JsonValue::fields`] finds several members
//! as `get` would in one walk over the object.

use std::borrow::Cow;
use std::fmt::{self, Write as _};

/// A parsed JSON document, borrowing its strings from the input text.
/// Read it through [`Document::root`] (or [`Document::get`] for a
/// top-level member).
pub struct Document<'a> {
    text: &'a str,
    /// Every value and object key, in document order; the root is first.
    nodes: Vec<Node>,
    /// The decoded text of each escaped string, in document order.
    strings: Vec<String>,
}

/// One value or object key. Offsets and indices are `u32`, which
/// [`parse`] guarantees by refusing longer input ([`check_len`]): every
/// node starts at its own input byte, so there are never more nodes
/// than bytes.
#[derive(Debug, Clone, Copy)]
enum Node {
    Null,
    Bool(bool),
    /// A number's source text, as a byte range of the input.
    Number {
        start: u32,
        end: u32,
    },
    /// A string without an escape: its body's byte range in the input.
    Str {
        start: u32,
        end: u32,
    },
    /// A string with an escape: its index in `Document::strings`.
    Escaped(u32),
    /// `len` elements follow; `end` is the node index past the last.
    Array {
        len: u32,
        end: u32,
    },
    /// `len` members follow, each a key node and then its value;
    /// `end` is the node index past the last.
    Object {
        len: u32,
        end: u32,
    },
}

impl Document<'_> {
    /// The document's top-level value.
    pub fn root(&self) -> JsonValue<'_> {
        JsonValue { doc: self, at: 0 }
    }

    /// Member `key` of the top-level object: `self.root().get(key)`.
    pub fn get(&self, key: &str) -> Option<JsonValue<'_>> {
        self.root().get(key)
    }

    /// The input between two node offsets.
    fn slice(&self, start: u32, end: u32) -> &str {
        &self.text[start as usize..end as usize]
    }

    /// The text of a string node.
    fn text_of(&self, node: Node) -> Option<&str> {
        match node {
            Node::Str { start, end } => Some(self.slice(start, end)),
            Node::Escaped(i) => Some(&self.strings[i as usize]),
            _ => None,
        }
    }

    /// Whether a string node (a key or a value) spells `key`. An
    /// unescaped one is compared as bytes, with no char-boundary checks.
    fn is_key(&self, node: Node, key: &str) -> bool {
        match node {
            Node::Str { start, end } => {
                (end - start) as usize == key.len()
                    && self.text.as_bytes()[start as usize..end as usize] == *key.as_bytes()
            }
            Node::Escaped(i) => self.strings[i as usize] == key,
            _ => false,
        }
    }

    /// The node index just past the subtree rooted at `at`.
    fn skip(&self, at: usize) -> usize {
        match self.nodes[at] {
            Node::Array { end, .. } | Node::Object { end, .. } => end as usize,
            _ => at + 1,
        }
    }
}

/// Compact JSON text of the root value, as [`JsonValue`] writes it.
impl fmt::Display for Document<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.root().fmt(f)
    }
}

/// The document's compact JSON text.
impl fmt::Debug for Document<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.root().fmt(f)
    }
}

/// One value of a parsed [`Document`]: a copyable handle that reads its
/// node on demand. Strings it returns live as long as the document.
#[derive(Clone, Copy)]
pub struct JsonValue<'a> {
    doc: &'a Document<'a>,
    at: usize,
}

impl<'a> JsonValue<'a> {
    fn node(self) -> Node {
        self.doc.nodes[self.at]
    }

    /// Member of an object, if this is an object. A duplicated key
    /// resolves to its last value.
    pub fn get(self, key: &str) -> Option<JsonValue<'a>> {
        let Node::Object { len, .. } = self.node() else {
            return None;
        };
        let doc = self.doc;
        let (mut at, mut found) = (self.at + 1, None);
        for _ in 0..len {
            if doc.is_key(doc.nodes[at], key) {
                found = Some(at + 1);
            }
            at = doc.skip(at + 1);
        }
        found.map(|at| JsonValue { doc, at })
    }

    /// Members `keys` of an object, found in one walk over its members:
    /// entry `i` is `self.get(keys[i])`, so a duplicated key resolves to
    /// its last value. Every entry is `None` when this is not an object.
    pub fn fields<const N: usize>(self, keys: [&str; N]) -> [Option<JsonValue<'a>>; N] {
        let mut found = [None; N];
        let Node::Object { len, .. } = self.node() else {
            return found;
        };
        let doc = self.doc;
        // Each key is read as bytes once, with no char-boundary checks.
        let mut at = self.at + 1;
        for _ in 0..len {
            let name = match doc.nodes[at] {
                Node::Str { start, end } => &doc.text.as_bytes()[start as usize..end as usize],
                Node::Escaped(i) => doc.strings[i as usize].as_bytes(),
                _ => &[],
            };
            for (slot, key) in found.iter_mut().zip(keys) {
                if name == key.as_bytes() {
                    *slot = Some(JsonValue { doc, at: at + 1 });
                }
            }
            at = doc.skip(at + 1);
        }
        found
    }

    /// The members of an object in document order, if this is an object.
    pub fn members(self) -> Option<Members<'a>> {
        match self.node() {
            Node::Object { len, .. } => Some(Members {
                doc: self.doc,
                at: self.at + 1,
                left: len as usize,
            }),
            _ => None,
        }
    }

    /// The elements of an array in document order, if this is an array.
    pub fn as_array(self) -> Option<Elements<'a>> {
        match self.node() {
            Node::Array { len, .. } => Some(Elements {
                doc: self.doc,
                at: self.at + 1,
                left: len as usize,
            }),
            _ => None,
        }
    }

    /// Whether this is the string `s`: [`JsonValue::as_str`] equal to
    /// it, compared as bytes without slicing the input.
    pub(crate) fn is_str(self, s: &str) -> bool {
        self.doc.is_key(self.node(), s)
    }

    /// The string payload, if this is a string.
    pub fn as_str(self) -> Option<&'a str> {
        self.doc.text_of(self.node())
    }

    /// The string payload for as long as `text` lives, if this is a
    /// string. `text` must be the input this value's document was parsed
    /// from: an unescaped string is a slice of it, so it outlives the
    /// document; an escaped one is decoded, and owned.
    pub(crate) fn str_of<'t>(self, text: &'t str) -> Option<Cow<'t, str>> {
        debug_assert!(std::ptr::eq(self.doc.text, text));
        match self.node() {
            Node::Str { start, end } => Some(Cow::Borrowed(&text[start as usize..end as usize])),
            Node::Escaped(i) => Some(Cow::Owned(self.doc.strings[i as usize].clone())),
            _ => None,
        }
    }

    /// The input text this value's document was parsed from.
    pub(crate) fn input(self) -> &'a str {
        self.doc.text
    }

    /// A number's source text, if this is a number.
    fn number(self) -> Option<&'a str> {
        match self.node() {
            Node::Number { start, end } => Some(self.doc.slice(start, end)),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number: the nearest `f64` to its
    /// text (`str::parse` rounds correctly), infinite past `f64::MAX`.
    pub fn as_f64(self) -> Option<f64> {
        self.number()?.parse().ok()
    }

    /// The integer payload, if this is an integer token (no fraction, no
    /// exponent) that fits an `i64`. `-0` is not one: serde's JSON reader,
    /// whose reading the storage schema keeps, makes it the float `-0.0`.
    pub fn as_i64(self) -> Option<i64> {
        let n = self.number()?;
        if n == "-0" || n.contains(['.', 'e', 'E']) {
            return None;
        }
        n.parse().ok()
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(self) -> Option<bool> {
        match self.node() {
            Node::Bool(b) => Some(b),
            _ => None,
        }
    }

    /// Whether this is `null`.
    pub fn is_null(self) -> bool {
        matches!(self.node(), Node::Null)
    }

    /// Convenience: an array of strings under `key`, empty when absent.
    /// Elements that are not strings are skipped.
    pub fn string_list(self, key: &str) -> Vec<String> {
        let Some(items) = self.get(key).and_then(JsonValue::as_array) else {
            return Vec::new();
        };
        let mut out = Vec::with_capacity(items.len());
        out.extend(items.filter_map(JsonValue::as_str).map(str::to_owned));
        out
    }
}

/// Compact JSON text: numbers as written, strings through [`escape`],
/// members in document order.
impl fmt::Display for JsonValue<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.node() {
            Node::Null => f.write_str("null"),
            Node::Bool(b) => write!(f, "{b}"),
            Node::Number { start, end } => f.write_str(self.doc.slice(start, end)),
            node @ (Node::Str { .. } | Node::Escaped(_)) => {
                f.write_str(&escape(self.doc.text_of(node).unwrap_or_default()))
            }
            Node::Array { .. } => {
                f.write_str("[")?;
                for (i, item) in self.as_array().into_iter().flatten().enumerate() {
                    let sep = if i == 0 { "" } else { "," };
                    write!(f, "{sep}{item}")?;
                }
                f.write_str("]")
            }
            Node::Object { .. } => {
                f.write_str("{")?;
                for (i, (key, value)) in self.members().into_iter().flatten().enumerate() {
                    let sep = if i == 0 { "" } else { "," };
                    write!(f, "{sep}{}:{value}", escape(key))?;
                }
                f.write_str("}")
            }
        }
    }
}

/// The value's compact JSON text.
impl fmt::Debug for JsonValue<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

/// The elements of an array, from [`JsonValue::as_array`].
#[derive(Clone)]
pub struct Elements<'a> {
    doc: &'a Document<'a>,
    at: usize,
    left: usize,
}

impl<'a> Iterator for Elements<'a> {
    type Item = JsonValue<'a>;

    fn next(&mut self) -> Option<JsonValue<'a>> {
        self.left = self.left.checked_sub(1)?;
        let item = JsonValue {
            doc: self.doc,
            at: self.at,
        };
        self.at = self.doc.skip(self.at);
        Some(item)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl ExactSizeIterator for Elements<'_> {}

/// The `(key, value)` members of an object, from [`JsonValue::members`].
#[derive(Clone)]
pub struct Members<'a> {
    doc: &'a Document<'a>,
    /// The next member's key node.
    at: usize,
    left: usize,
}

impl<'a> Iterator for Members<'a> {
    type Item = (&'a str, JsonValue<'a>);

    fn next(&mut self) -> Option<(&'a str, JsonValue<'a>)> {
        self.left = self.left.checked_sub(1)?;
        let key = self
            .doc
            .text_of(self.doc.nodes[self.at])
            .unwrap_or_default();
        let value = JsonValue {
            doc: self.doc,
            at: self.at + 1,
        };
        self.at = self.doc.skip(self.at + 1);
        Some((key, value))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl ExactSizeIterator for Members<'_> {}

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
pub fn parse(input: &str) -> Result<Document<'_>, JsonError> {
    check_len(input.len())?;
    let mut p = Parser::new(input);
    p.document()?;
    Ok(Document {
        text: input,
        nodes: p.nodes,
        strings: p.strings,
    })
}

/// Refuse input whose byte offsets do not fit the nodes' `u32`s.
fn check_len(len: usize) -> Result<(), JsonError> {
    match u32::try_from(len) {
        Ok(_) => Ok(()),
        Err(_) => Err(JsonError {
            message: format!("document longer than {} bytes", u32::MAX),
            offset: 0,
        }),
    }
}

/// An offset or node index as a node field: [`check_len`] has bounded
/// both by the input length.
fn narrow(at: usize) -> u32 {
    at as u32
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

/// Append `x` as a JSON number: `{:?}`, the shortest text that parses
/// back to the same bits (`100.0`, `1e16`, `1.5e-7`), or `null` when `x`
/// is not finite, since JSON has no such number.
pub fn push_f64(out: &mut String, x: f64) {
    if x.is_finite() {
        let _ = write!(out, "{x:?}");
    } else {
        out.push_str("null");
    }
}

/// How deep arrays and objects may nest: far deeper than any document
/// here. The parser keeps no stack of its own, so the bound is the
/// format's, not the thread's.
pub const MAX_DEPTH: usize = 128;

/// Each byte of a word: `from_le_bytes` puts the first byte lowest.
const EACH: u64 = 0x0101_0101_0101_0101;

/// 0x80 in exactly the bytes of `v` that are zero. Per byte: adding 0x7f
/// to the low seven bits carries into the top bit unless they are all
/// zero, and never into the next byte.
fn zero_bytes(v: u64) -> u64 {
    const LOW7: u64 = EACH * 0x7f;
    !(((v & LOW7) + LOW7) | v | LOW7)
}

/// 0x80 in every byte of `word` that ends a plain string run: `"`, `\`,
/// or a control byte (below 0x20: its top three bits are zero).
fn quote_mask(word: u64) -> u64 {
    zero_bytes(word & (EACH * 0xe0))
        | zero_bytes(word ^ (EACH * b'"' as u64))
        | zero_bytes(word ^ (EACH * b'\\' as u64))
}

/// 0x80 in every byte of `word` that is not a space.
fn non_space_mask(word: u64) -> u64 {
    !zero_bytes(word ^ (EACH * b' ' as u64)) & (EACH * 0x80)
}

fn is_ws(b: u8) -> bool {
    matches!(b, b' ' | b'\t' | b'\n' | b'\r')
}

/// The index of the first byte at or after `from` that `mask` flags in
/// its word, read eight bytes at a time, else `bytes.len()`.
#[inline(always)]
fn scan(bytes: &[u8], from: usize, mask: impl Fn(u64) -> u64) -> usize {
    let (words, tail) = bytes[from..].as_chunks::<8>();
    for (n, word) in words.iter().enumerate() {
        let flags = mask(u64::from_le_bytes(*word));
        if flags != 0 {
            return from + n * 8 + (flags.trailing_zeros() / 8) as usize;
        }
    }
    // The last, short word, zero-padded: a flag on the padding, or none,
    // is the end of the input.
    let mut last = [0; 8];
    last[..tail.len()].copy_from_slice(tail);
    let flags = mask(u64::from_le_bytes(last));
    bytes.len() - tail.len() + ((flags.trailing_zeros() / 8) as usize).min(tail.len())
}

/// The first byte at or after `pos` that is not whitespace. Most gaps
/// are empty or one byte (after `:` or `,`); past those, an indented
/// line break's run of spaces is scanned a word at a time, and any other
/// whitespace byte is stepped over by itself.
#[inline(always)]
fn skip_ws(bytes: &[u8], pos: usize) -> usize {
    if !bytes.get(pos).is_some_and(|&b| is_ws(b)) {
        return pos;
    }
    if !bytes.get(pos + 1).is_some_and(|&b| is_ws(b)) {
        return pos + 1;
    }
    let mut pos = pos + 2;
    loop {
        pos = scan(bytes, pos, non_space_mask);
        if !bytes.get(pos).is_some_and(|&b| is_ws(b)) {
            return pos;
        }
        pos += 1;
    }
}

fn err_at(offset: usize, message: &str) -> JsonError {
    JsonError {
        message: message.to_owned(),
        offset,
    }
}

/// The innermost open container. Its own node holds its parent's `at`
/// and `len` (as `end` and `len`) until it closes, so the parser's
/// stack lives in the tape and costs no block of its own.
#[derive(Clone, Copy)]
struct Open {
    /// Its node index.
    at: usize,
    /// Elements (or members) read so far.
    len: u32,
    object: bool,
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    nodes: Vec<Node>,
    strings: Vec<String>,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Self {
        Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
            nodes: Vec::new(),
            strings: Vec::new(),
        }
    }

    fn err(&self, message: &str) -> JsonError {
        err_at(self.pos, message)
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    /// The whole document: one value, then only whitespace. One loop
    /// reads a value at `pos`; once a value is complete, an inner loop
    /// closes the containers it completes and reads the `,` (and, in an
    /// object, the key and `:`) before the next. The position is a local
    /// here; `self.pos` carries it only into the out-of-line readers.
    fn document(&mut self) -> Result<(), JsonError> {
        let bytes = self.bytes;
        let mut open = Open {
            at: 0,
            len: 0,
            object: false,
        };
        let mut depth = 0;
        let mut pos = skip_ws(bytes, 0);
        loop {
            match bytes.get(pos) {
                Some(&b @ (b'{' | b'[')) => {
                    if depth == MAX_DEPTH {
                        return Err(err_at(pos, "containers nest too deep"));
                    }
                    depth += 1;
                    let (len, end) = (open.len, narrow(open.at));
                    let object = b == b'{';
                    open = Open {
                        at: self.nodes.len(),
                        len: 0,
                        object,
                    };
                    self.nodes.push(if object {
                        Node::Object { len, end }
                    } else {
                        Node::Array { len, end }
                    });
                    pos = skip_ws(bytes, pos + 1);
                    if bytes.get(pos) != Some(if object { &b'}' } else { &b']' }) {
                        if object {
                            pos = self.key(pos)?;
                        }
                        continue;
                    }
                    // Empty: it closes before it holds anything.
                    pos += 1;
                    open = self.close(open);
                    depth -= 1;
                }
                Some(b'"') => pos = self.string(pos)?,
                Some(b't') => pos = self.literal(pos, "true", Node::Bool(true))?,
                Some(b'f') => pos = self.literal(pos, "false", Node::Bool(false))?,
                Some(b'n') => pos = self.literal(pos, "null", Node::Null)?,
                Some(b'-' | b'0'..=b'9') => {
                    self.pos = pos;
                    self.number()?;
                    pos = self.pos;
                }
                _ => return Err(err_at(pos, "expected a JSON value")),
            }
            // A value is complete: it is one more element of `open`.
            loop {
                if depth == 0 {
                    pos = skip_ws(bytes, pos);
                    if pos != bytes.len() {
                        return Err(err_at(pos, "trailing characters after document"));
                    }
                    return Ok(());
                }
                open.len += 1;
                pos = skip_ws(bytes, pos);
                let (close, expected) = if open.object {
                    (b'}', "expected ',' or '}' in object")
                } else {
                    (b']', "expected ',' or ']' in array")
                };
                match bytes.get(pos) {
                    Some(b',') => {
                        pos = skip_ws(bytes, pos + 1);
                        if open.object {
                            pos = self.key(pos)?;
                        }
                        break;
                    }
                    Some(&b) if b == close => {
                        pos += 1;
                        open = self.close(open);
                        depth -= 1;
                    }
                    _ => return Err(err_at(pos, expected)),
                }
            }
        }
    }

    /// Fill in `open`'s node now that its subtree ends here, and return
    /// the container it was an element of, as its node held it.
    fn close(&mut self, open: Open) -> Open {
        let end = narrow(self.nodes.len());
        let (len, at) = match self.nodes[open.at] {
            Node::Object { len, end } | Node::Array { len, end } => (len, end as usize),
            _ => (0, 0),
        };
        self.nodes[open.at] = if open.object {
            Node::Object { len: open.len, end }
        } else {
            Node::Array { len: open.len, end }
        };
        Open {
            at,
            len,
            object: matches!(self.nodes[at], Node::Object { .. }),
        }
    }

    /// `word` at `pos`, pushed as `node`; the position after it.
    fn literal(&mut self, pos: usize, word: &str, node: Node) -> Result<usize, JsonError> {
        if self.bytes[pos..].starts_with(word.as_bytes()) {
            self.nodes.push(node);
            Ok(pos + word.len())
        } else {
            Err(err_at(pos, &format!("expected '{word}'")))
        }
    }

    /// An object member's key at `pos` and the `:` after it; the position
    /// of its value.
    #[inline(always)]
    fn key(&mut self, pos: usize) -> Result<usize, JsonError> {
        let pos = skip_ws(self.bytes, self.string(pos)?);
        if self.bytes.get(pos) != Some(&b':') {
            return Err(err_at(pos, "expected ':'"));
        }
        Ok(skip_ws(self.bytes, pos + 1))
    }

    /// The run from `pos` up to the next `"`, `\` or control byte (or the
    /// end of input), consumed. `pos` starts on a char boundary and the
    /// run ends at an ASCII byte or the end, so the slice is whole UTF-8.
    fn plain_run(&mut self) -> &'a str {
        let start = self.pos;
        self.pos = scan(self.bytes, start, quote_mask);
        &self.text[start..self.pos]
    }

    /// The string literal at `pos`, pushed as its node: a range of the
    /// input unless it has an escape, else its decoded text appended to
    /// `strings`. Returns the position after it.
    #[inline(always)]
    fn string(&mut self, pos: usize) -> Result<usize, JsonError> {
        if self.bytes.get(pos) != Some(&b'"') {
            return Err(err_at(pos, "expected '\"'"));
        }
        let start = pos + 1;
        let stop = scan(self.bytes, start, quote_mask);
        if self.bytes.get(stop) == Some(&b'"') {
            self.nodes.push(Node::Str {
                start: narrow(start),
                end: narrow(stop),
            });
            return Ok(stop + 1);
        }
        self.pos = stop;
        let node = self.escaped(&self.text[start..stop])?;
        self.nodes.push(node);
        Ok(self.pos)
    }

    /// The rest of a string literal from its first `\` (or control byte,
    /// or the end of input) at `pos`, decoded after its plain `head`. A
    /// control byte must be escaped (RFC 8259 §7): one is an error at its
    /// offset.
    #[inline(never)]
    fn escaped(&mut self, head: &str) -> Result<Node, JsonError> {
        let mut out = String::from(head);
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    self.strings.push(out);
                    return Ok(Node::Escaped(narrow(self.strings.len() - 1)));
                }
                Some(b @ 0..=0x1f) => {
                    let message = format!("unescaped control character U+{b:04X} in string");
                    return Err(self.err(&message));
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
    fn number(&mut self) -> Result<(), JsonError> {
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
        if is_number(&self.bytes[start..self.pos]) {
            self.nodes.push(Node::Number {
                start: narrow(start),
                end: narrow(self.pos),
            });
            Ok(())
        } else {
            // Every byte of the run is ASCII, so the slice is on char
            // boundaries.
            Err(JsonError {
                message: format!("invalid number '{}'", &self.text[start..self.pos]),
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_document() {
        let doc = parse(
            r#"{"hub": "h", "n": -2.5e1, "ok": true, "none": null,
               "list": [1, "two", {"three": 3}]}"#,
        )
        .unwrap();
        assert_eq!(doc.get("hub").and_then(JsonValue::as_str), Some("h"));
        assert_eq!(doc.get("n").and_then(JsonValue::as_f64), Some(-25.0));
        assert_eq!(doc.get("ok").and_then(JsonValue::as_bool), Some(true));
        assert!(doc.get("none").is_some_and(JsonValue::is_null));
        assert!(!doc.get("ok").is_some_and(JsonValue::is_null));
        let list: Vec<_> = doc
            .get("list")
            .and_then(JsonValue::as_array)
            .unwrap()
            .collect();
        assert_eq!(list.len(), 3);
        assert_eq!(list[1].as_str(), Some("two"));
        assert_eq!(list[2].get("three").and_then(JsonValue::as_f64), Some(3.0));
        let keys: Vec<&str> = doc.root().members().unwrap().map(|(k, _)| k).collect();
        assert_eq!(keys, ["hub", "n", "ok", "none", "list"]);
        assert!(doc.root().as_array().is_none());
        assert!(list[0].members().is_none());
    }

    #[test]
    fn iterators_know_their_length() {
        let doc = parse(r#"[[1, [2, 3], {"a": [4]}], {"x": {}, "y": [], "z": 5}]"#).unwrap();
        let mut items = doc.root().as_array().unwrap();
        assert_eq!(items.len(), 2);
        let first = items.next().unwrap();
        assert_eq!(items.len(), 1);
        assert_eq!(first.as_array().unwrap().len(), 3);
        let second = items.next().unwrap();
        assert!(items.next().is_none());
        assert_eq!(items.len(), 0);
        let members = second.members().unwrap();
        assert_eq!(members.len(), 3);
        let texts: Vec<String> = members.map(|(k, v)| format!("{k}={v}")).collect();
        assert_eq!(texts, ["x={}", "y=[]", "z=5"]);
    }

    #[test]
    fn parses_escapes() {
        let doc = parse(r#""a\"b\\c\ndA""#).unwrap();
        assert_eq!(doc.root().as_str(), Some("a\"b\\c\ndA"));
    }

    #[test]
    fn escape_round_trips() {
        let original = "quote \" slash \\ newline \n tab \t unicode é";
        let escaped = escape(original);
        assert_eq!(parse(&escaped).unwrap().root().as_str(), Some(original));
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{\"a\" 1}").is_err());
        assert!(parse("12 34").is_err());
        assert!(parse("\"unterminated").is_err());
        assert!(parse("nul").is_err());
    }

    #[test]
    fn string_list_helper() {
        let doc = parse(r#"{"xs": ["a", "b"], "mixed": ["a", 1]}"#).unwrap();
        let v = doc.root();
        assert_eq!(v.string_list("xs"), vec!["a", "b"]);
        assert_eq!(v.string_list("mixed"), vec!["a"]); // non-strings skipped
        assert!(v.string_list("missing").is_empty());
    }

    #[test]
    fn empty_containers() {
        let object = parse("{}").unwrap();
        assert_eq!(object.root().members().map(|m| m.len()), Some(0));
        assert_eq!(object.to_string(), "{}");
        let array = parse("[]").unwrap();
        assert_eq!(array.root().as_array().map(|a| a.len()), Some(0));
        assert_eq!(array.to_string(), "[]");
    }

    #[test]
    fn duplicated_key_resolves_to_its_last_value() {
        let doc = parse(r#"{"a": 1, "b": "x", "a": 2, "c": {"d": true, "d": false}}"#).unwrap();
        assert_eq!(doc.get("a").and_then(JsonValue::as_f64), Some(2.0));
        assert_eq!(doc.get("b").and_then(JsonValue::as_str), Some("x"));
        let c = doc.get("c").unwrap();
        assert_eq!(c.get("d").and_then(JsonValue::as_bool), Some(false));
        assert!(doc.get("missing").is_none());
    }

    #[test]
    fn fields_finds_each_member_as_get_does() {
        let doc = parse(r#"{"a": 1, "b": "x", "a": 2, "k\u0065y": [], "c": {"a": 3}}"#).unwrap();
        let keys = ["a", "missing", "key", "b", "a", "c"];
        let found = doc.root().fields(keys);
        for (key, value) in keys.iter().zip(found) {
            let want = doc.get(key).map(|v| v.to_string());
            assert_eq!(value.map(|v| v.to_string()), want, "{key}");
        }
        // The last duplicate wins, and a nested member is not a field.
        assert_eq!(found[0].and_then(JsonValue::as_f64), Some(2.0));
        assert!(found[1].is_none());
        assert!(doc.root().fields([]).is_empty());
        for not_object in ["[1, 2]", "\"a\"", "null", "{}"] {
            let doc = parse(not_object).unwrap();
            assert!(doc.root().fields(["a", "0"]).iter().all(Option::is_none));
        }
    }

    #[test]
    fn strings_with_and_without_escapes_decode_identically() {
        let pairs = [
            (r#""plain""#, r#""\u0070lain""#),
            (r#""café""#, r#""caf\u00e9""#),
            (r#""a/b""#, r#""a\/b""#),
            (r#"{"key": "v"}"#, r#"{"k\u0065y": "\u0076"}"#),
        ];
        for (plain, escaped) in pairs {
            assert_eq!(
                parse(plain).unwrap().to_string(),
                parse(escaped).unwrap().to_string(),
                "{plain} vs {escaped}"
            );
        }
        let doc = parse(r#"{"k\u0065y": "\u0076"}"#).unwrap();
        assert_eq!(doc.get("key").and_then(JsonValue::as_str), Some("v"));
    }

    #[test]
    fn numbers_keep_their_text() {
        let doc = parse("[0, -0, 12.50, 1E+3, 9007199254740993, 1e400]").unwrap();
        let items: Vec<JsonValue> = doc.root().as_array().unwrap().collect();
        let text: Vec<&str> = items.iter().filter_map(|n| n.number()).collect();
        assert_eq!(
            text,
            ["0", "-0", "12.50", "1E+3", "9007199254740993", "1e400"]
        );
        assert_eq!(
            items[1].as_f64().map(f64::to_bits),
            Some((-0.0f64).to_bits())
        );
        assert_eq!(items[3].as_f64(), Some(1000.0));
        assert_eq!(items[4].as_f64(), Some(9007199254740992.0));
        assert_eq!(items[5].as_f64(), Some(f64::INFINITY));
        assert_eq!(parse("true").unwrap().root().as_f64(), None);
        assert_eq!(parse("\"1\"").unwrap().root().as_f64(), None);
    }

    #[test]
    fn as_i64_takes_integer_tokens_only() {
        let int = |text: &str| parse(text).unwrap().root().as_i64();
        assert_eq!(int("0"), Some(0));
        assert_eq!(int("-12"), Some(-12));
        assert_eq!(int("9223372036854775807"), Some(i64::MAX));
        assert_eq!(int("-9223372036854775808"), Some(i64::MIN));
        for not_int in [
            "-0",
            "12.0",
            "1e3",
            "1E3",
            "9223372036854775808",
            "\"12\"",
            "null",
        ] {
            assert_eq!(int(not_int), None, "{not_int}");
        }
    }

    #[test]
    fn numbers_follow_the_json_grammar() {
        for good in [
            "0", "-0", "7", "-10", "0.5", "1.25e-3", "2E+8", "1e0", "-0.0e00",
        ] {
            assert!(parse(good).is_ok(), "{good}");
        }
        for bad in [
            "01", "-01", "1.", ".5", "-.5", "1.e5", "1e", "1e+", "--1", "-", "+1", "1-2", "0x10",
        ] {
            assert!(parse(bad).is_err(), "{bad}");
        }
        let err = parse("[1, 01]").unwrap_err();
        assert_eq!(
            (err.message.as_str(), err.offset),
            ("invalid number '01'", 4)
        );
    }

    #[test]
    fn nesting_is_bounded() {
        let nest = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(parse(&nest(MAX_DEPTH)).is_ok());
        let err = parse(&nest(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(
            (err.message.as_str(), err.offset),
            ("containers nest too deep", MAX_DEPTH)
        );
        // Far past any stack: an error, not an overflow.
        assert!(parse(&"[{\"a\":".repeat(100_000)).is_err());
    }

    #[test]
    fn display_writes_compact_json() {
        let text = r#"{"n":-1.50E2,"s":"a\"b\u0001","list":[true,null,{}],"e":[]}"#;
        let doc = parse(text).unwrap();
        assert_eq!(doc.to_string(), text);
        assert_eq!(format!("{doc:?}"), text);
        assert_eq!(parse(&doc.to_string()).unwrap().to_string(), text);
        let list = doc.get("list").unwrap();
        assert_eq!(list.to_string(), "[true,null,{}]");
    }

    #[test]
    fn nodes_stay_small() {
        assert_eq!(std::mem::size_of::<Node>(), 12);
        // A container, its keys and its values: one node each, no more.
        let doc = parse(r#"{"a": [1, "x\n", {}], "b": null}"#).unwrap();
        assert_eq!(doc.nodes.len(), 8);
        assert_eq!(doc.strings, ["x\n"]);
    }

    #[cfg(target_pointer_width = "64")]
    #[test]
    fn input_past_u32_offsets_is_a_typed_error() {
        let max = u32::MAX as usize;
        assert_eq!(check_len(0), Ok(()));
        assert_eq!(check_len(max), Ok(()));
        for len in [max + 1, usize::MAX] {
            let err = check_len(len).unwrap_err();
            assert_eq!(
                err.to_string(),
                "document longer than 4294967295 bytes at byte 0"
            );
        }
    }

    impl Parser<'_> {
        fn consume(&mut self, byte: u8) -> Result<(), JsonError> {
            if self.peek() == Some(byte) {
                self.pos += 1;
                Ok(())
            } else {
                Err(self.err(&format!("expected '{}'", byte as char)))
            }
        }

        /// `string()` as it was before the run copy: one `from_utf8` over
        /// the whole remaining input per character (quadratic), and
        /// `from_str_radix` for `\u` digits; since then it refuses a raw
        /// control byte, as RFC 8259 §7 does.
        fn reference_string(&mut self) -> Result<String, JsonError> {
            self.consume(b'"')?;
            let mut out = String::new();
            loop {
                match self.peek() {
                    None => return Err(self.err("unterminated string")),
                    Some(b'"') => {
                        self.pos += 1;
                        return Ok(out);
                    }
                    Some(b) if b < 0x20 => {
                        return Err(
                            self.err(&format!("unescaped control character U+{b:04X} in string"))
                        );
                    }
                    Some(b'\\') => {
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
                            b'u' => {
                                let hex = self
                                    .bytes
                                    .get(self.pos..self.pos + 4)
                                    .ok_or_else(|| self.err("truncated \\u escape"))?;
                                let hex = std::str::from_utf8(hex)
                                    .map_err(|_| self.err("non-ascii \\u escape"))?;
                                let cp = u32::from_str_radix(hex, 16)
                                    .map_err(|_| self.err("bad \\u escape"))?;
                                self.pos += 4;
                                out.push(char::from_u32(cp).unwrap_or('\u{fffd}'));
                            }
                            _ => return Err(self.err("unknown escape")),
                        }
                    }
                    Some(_) => {
                        let rest = &self.bytes[self.pos..];
                        let s = std::str::from_utf8(rest)
                            .map_err(|_| self.err("invalid utf-8 in string"))?;
                        let c = s
                            .chars()
                            .next()
                            .ok_or_else(|| self.err("empty string tail"))?;
                        out.push(c);
                        self.pos += c.len_utf8();
                    }
                }
            }
        }
    }

    /// Pieces of a string literal's body. Left out on purpose, because the
    /// reference decodes them differently: `\u` with a sign and escaped
    /// high surrogates (the test after this one covers both).
    const PIECES: &[&str] = &[
        "a", "config ", "0", "{}[],:", "é", "ß", "→", "€", "中", "😀", "𝄞", "\u{1}", "\\\"",
        "\\\\", "\\/", "\\n", "\\r", "\\t", "\\b", "\\f", "\\u0041", "\\u00e9", "\\u20AC",
        "\\uFfFf", "\\u0000", "\\udc00", "\\uDFFF", "\\u12G4", "\\u-041", "\\u 041", "\\ué12",
        "\\u123é", "\\x", "\\é", "\\u12", "\\",
    ];

    #[test]
    fn string_matches_the_reference_on_seeded_inputs() {
        let mut state = 0x6a73_6f6e_u64;
        let mut next = move |n: usize| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) % n as u64) as usize
        };
        for case in 0..2_000 {
            let mut input = String::from("\"");
            for _ in 0..next(12) {
                input.push_str(PIECES[next(PIECES.len())]);
            }
            match next(10) {
                0 => {}                         // unterminated
                1 => input.push_str("\" tail"), // trailing bytes after the string
                _ => input.push('"'),
            }
            if next(8) == 0 {
                // Truncate at a random char boundary.
                let cuts: Vec<usize> = input.char_indices().map(|(i, _)| i).collect();
                input.truncate(cuts[next(cuts.len())]);
            }
            let (mut new, mut old) = (Parser::new(&input), Parser::new(&input));
            let got = new.string(0).map(|end| {
                new.pos = end;
                new.nodes[0]
            });
            let want = old.reference_string();
            // A string is decoded aside exactly when it has an escape.
            let got = got.map(|node| {
                let escaped = input[..new.pos].contains('\\');
                assert_eq!(
                    matches!(node, Node::Escaped(_)),
                    escaped,
                    "case {case}: {input:?}"
                );
                match node {
                    Node::Str { start, end } => input[start as usize..end as usize].to_owned(),
                    Node::Escaped(i) => new.strings[i as usize].clone(),
                    other => panic!("case {case}: {other:?}"),
                }
            });
            assert_eq!(got, want, "case {case}: {input:?}");
            assert_eq!(new.pos, old.pos, "case {case}: {input:?}");
        }
    }

    #[test]
    fn unicode_escapes_take_four_hex_digits_and_pair_surrogates() {
        let bad = parse(r#""\u+041""#).unwrap_err();
        assert_eq!((bad.message.as_str(), bad.offset), ("bad \\u escape", 3));
        // A quoted string of `\u` escapes, one per UTF-16 code unit.
        let escaped = |units: &[&str]| -> String {
            let body: String = units.iter().map(|u| format!("\\u{u}")).collect();
            format!("\"{body}\"")
        };
        let cases = [
            (escaped(&["d83d", "de00"]), "\u{1f600}"),
            (escaped(&["D834", "DD1E"]), "\u{1d11e}"),
            (escaped(&["d83d", "d83d", "de00"]), "\u{fffd}\u{1f600}"),
            (escaped(&["de00", "d83d"]), "\u{fffd}\u{fffd}"),
            (escaped(&["d83d"]), "\u{fffd}"),
            (escaped(&["d83d", "0041"]), "\u{fffd}A"),
            (r#""\ud83dx""#.to_owned(), "\u{fffd}x"),
            (r#""\ud83d\n""#.to_owned(), "\u{fffd}\n"),
            ("\"\\ud83d\u{1f600}\"".to_owned(), "\u{fffd}\u{1f600}"),
        ];
        for (input, want) in cases {
            assert_eq!(
                parse(&input).unwrap().root().as_str(),
                Some(want),
                "{input}"
            );
        }
        // A malformed escape after a high surrogate is reported where it is.
        let bad = parse(r#""\ud83d\u12G4""#).unwrap_err();
        assert_eq!((bad.message.as_str(), bad.offset), ("bad \\u escape", 9));
        let bad = parse(r#""\ud83d\u12""#).unwrap_err();
        assert_eq!(
            (bad.message.as_str(), bad.offset),
            ("truncated \\u escape", 9)
        );
    }
}
