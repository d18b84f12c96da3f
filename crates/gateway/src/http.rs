//! A hand-rolled, bounded HTTP/1.1 subset: exactly what the gateway
//! needs to serve JSON to browsers and `curl`, and nothing more.
//!
//! Std-only on purpose. The serving tier fronts the federation for
//! operators; pulling a full HTTP stack into the trust boundary for six
//! endpoints trades auditability for features nobody uses. Everything
//! here is defensive: every line, header count, and body is bounded, and
//! any malformed input becomes a typed [`HttpError`] the server maps to
//! a 400 — never a panic in a worker thread.

use std::fmt::{self, Write as _};
use std::io::{self, BufRead, IoSlice, Read, Write};
use std::ops::Range;

/// Longest accepted request line or header line, bytes.
pub const MAX_LINE_BYTES: usize = 8 * 1024;
/// Most headers accepted on one request.
pub const MAX_HEADERS: usize = 64;
/// Largest accepted request body, bytes.
pub const MAX_BODY_BYTES: usize = 64 * 1024;

/// Why a request could not be read.
#[derive(Debug)]
pub enum HttpError {
    /// The peer closed the connection before a full request arrived
    /// (includes the idle keep-alive close — not an error worth logging).
    ConnectionClosed,
    /// Socket-level failure (including read timeouts).
    Io(io::Error),
    /// Syntactically invalid request — maps to 400.
    Malformed(&'static str),
    /// A declared or actual size exceeded a bound — maps to 413/431.
    TooLarge(&'static str),
}

impl fmt::Display for HttpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HttpError::ConnectionClosed => write!(f, "connection closed"),
            HttpError::Io(e) => write!(f, "i/o: {e}"),
            HttpError::Malformed(what) => write!(f, "malformed request: {what}"),
            HttpError::TooLarge(what) => write!(f, "request too large: {what}"),
        }
    }
}

impl From<io::Error> for HttpError {
    fn from(e: io::Error) -> Self {
        HttpError::Io(e)
    }
}

/// Capacity the head buffer starts with: a browser request with a
/// session cookie is 1–2 KiB, so most heads never regrow it.
const HEAD_CAPACITY: usize = 2048;

/// A byte range into [`Request`]'s head buffer.
type Span = Range<usize>;
/// Names and values, as ranges into the head buffer.
type Pairs = Vec<(Span, Span)>;

/// One parsed request.
///
/// The request line and the header lines are kept once, back to back, in
/// one buffer; header names and values and query components are ranges
/// into it (names lower-cased and escapes decoded in place). Parsing
/// therefore allocates a fixed handful of buffers, not one `String` per
/// token.
#[derive(Debug, Clone)]
pub struct Request {
    /// Upper-cased method (`GET`, `POST`, ...).
    pub method: String,
    /// Path component, percent-decoded (`/query`).
    pub path: String,
    /// Request body (empty unless `Content-Length` said otherwise).
    pub body: String,
    /// Request line and header lines, terminators stripped.
    head: String,
    /// Decoded query parameters in arrival order.
    query: Pairs,
    /// Headers in arrival order, names lower-cased.
    headers: Pairs,
}

impl Request {
    /// Every header in arrival order, names lower-cased.
    pub fn headers(&self) -> impl Iterator<Item = (&str, &str)> + '_ {
        self.pairs(&self.headers)
    }

    /// Every decoded query parameter in arrival order.
    pub fn query(&self) -> impl Iterator<Item = (&str, &str)> + '_ {
        self.pairs(&self.query)
    }

    fn pairs<'a>(&'a self, spans: &'a [(Span, Span)]) -> impl Iterator<Item = (&'a str, &'a str)> {
        spans
            .iter()
            .map(|(n, v)| (&self.head[n.clone()], &self.head[v.clone()]))
    }

    /// First value of a header, case-insensitive name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v)
    }

    /// First value of a query parameter.
    pub fn query_param(&self, name: &str) -> Option<&str> {
        self.query().find(|(n, _)| *n == name).map(|(_, v)| v)
    }

    /// Every value of a repeatable query parameter, in order.
    pub fn query_params<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a str> {
        self.query()
            .filter(move |(n, _)| *n == name)
            .map(|(_, v)| v)
    }

    /// A cookie by name, from the `Cookie` header.
    pub fn cookie(&self, name: &str) -> Option<&str> {
        self.header("cookie")?
            .split(';')
            .map(str::trim)
            .find_map(|pair| pair.strip_prefix(name)?.strip_prefix('='))
    }
}

/// Read one request off a buffered connection. Blocks until a full
/// request arrives, the reader's timeout fires, or a bound trips.
pub fn read_request(reader: &mut impl BufRead) -> Result<Request, HttpError> {
    let mut head = Vec::with_capacity(HEAD_CAPACITY);
    let line = read_line(reader, &mut head)?;
    let (method, target) = parse_request_line(&head, line)?;
    let (path, query) = parse_target(&mut head, target)?;

    let mut headers = Pairs::with_capacity(16); // a browser sends 8–16
    loop {
        let line = read_line(reader, &mut head)?;
        let text = utf8(&head[line.clone()])?;
        if text.is_empty() {
            break;
        }
        if headers.len() >= MAX_HEADERS {
            return Err(HttpError::TooLarge("header count"));
        }
        let (name, value) = text
            .split_once(':')
            .ok_or(HttpError::Malformed("header without colon"))?;
        if name.is_empty() || name.contains(' ') {
            return Err(HttpError::Malformed("bad header name"));
        }
        let name = line.start..line.start + name.len();
        let value_start = name.end + 1 + (value.len() - value.trim_start().len());
        let value = value_start..value_start + value.trim().len();
        head[name.clone()].make_ascii_lowercase();
        headers.push((name, value));
    }

    // Every line was validated as it arrived and the in-place edits keep
    // the buffer valid, so this conversion cannot fail.
    let head = String::from_utf8(head).map_err(|_| HttpError::Malformed("line is not utf-8"))?;
    let mut request = Request {
        method,
        path,
        body: String::new(),
        head,
        query,
        headers,
    };
    let content_length = match request.header("content-length") {
        None => 0,
        Some(v) => v
            .parse::<usize>()
            .map_err(|_| HttpError::Malformed("bad content-length"))?,
    };
    if content_length > MAX_BODY_BYTES {
        return Err(HttpError::TooLarge("body"));
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;
    request.body =
        String::from_utf8(body).map_err(|_| HttpError::Malformed("body is not utf-8"))?;
    Ok(request)
}

fn utf8(bytes: &[u8]) -> Result<&str, HttpError> {
    std::str::from_utf8(bytes).map_err(|_| HttpError::Malformed("line is not utf-8"))
}

/// Append one CRLF- (or bare-LF-) terminated line to `head`, terminator
/// stripped, and return where it lies. `read_until` scans the reader's
/// own buffer and copies each run once; the `take` keeps an unterminated
/// input from buffering more than one bounded line. The bound is on the
/// line's content: the terminator does not count.
fn read_line(reader: &mut impl BufRead, head: &mut Vec<u8>) -> Result<Span, HttpError> {
    let start = head.len();
    let wire_limit = MAX_LINE_BYTES as u64 + 2; // content, `\r`, `\n`
    reader.by_ref().take(wire_limit).read_until(b'\n', head)?;
    let raw = &head[start..];
    let (line, terminated) = match raw.split_last() {
        Some((b'\n', line)) => (line, true),
        _ => (raw, false),
    };
    let content = line.strip_suffix(b"\r").unwrap_or(line);
    if content.len() > MAX_LINE_BYTES {
        return Err(HttpError::TooLarge("line"));
    }
    if !terminated {
        return Err(if raw.is_empty() {
            HttpError::ConnectionClosed
        } else {
            HttpError::Malformed("truncated line")
        });
    }
    let end = start + content.len();
    head.truncate(end);
    Ok(start..end)
}

/// Check the request line lying at `head[line]`; returns the method and
/// where the target lies.
fn parse_request_line(head: &[u8], line: Span) -> Result<(String, Span), HttpError> {
    let text = utf8(&head[line.clone()])?;
    if text.is_empty() {
        return Err(HttpError::Malformed("empty request line"));
    }
    let mut parts = text.split(' ');
    let method = parts
        .next()
        .filter(|m| !m.is_empty() && m.bytes().all(|b| b.is_ascii_uppercase()))
        .ok_or(HttpError::Malformed("bad method"))?;
    let target = parts.next().ok_or(HttpError::Malformed("missing target"))?;
    match parts.next() {
        Some("HTTP/1.1") | Some("HTTP/1.0") => {}
        _ => return Err(HttpError::Malformed("bad http version")),
    }
    if parts.next().is_some() {
        return Err(HttpError::Malformed("extra tokens on request line"));
    }
    let target_start = line.start + method.len() + 1;
    Ok((method.to_owned(), target_start..target_start + target.len()))
}

/// Split the request target lying at `head[target]` into decoded path +
/// query pairs, decoding each component where it lies.
fn parse_target(head: &mut [u8], target: Span) -> Result<(String, Pairs), HttpError> {
    if head[target.clone()].first() != Some(&b'/') {
        return Err(HttpError::Malformed("target must be absolute"));
    }
    let find = |head: &[u8], within: Span, byte: u8| {
        head[within.clone()]
            .iter()
            .position(|&b| b == byte)
            .map(|i| within.start + i)
    };
    let path_end = find(head, target.clone(), b'?').unwrap_or(target.end);
    let path = decode_in_place(head, target.start..path_end)
        .ok_or(HttpError::Malformed("bad path escape"))?;
    let path = utf8(&head[path])?.to_owned();

    let separators = head[path_end..target.end]
        .iter()
        .filter(|&&b| b == b'?' || b == b'&');
    let mut query = Pairs::with_capacity(separators.count());
    let mut at = path_end + 1;
    while at < target.end {
        let pair_end = find(head, at..target.end, b'&').unwrap_or(target.end);
        if pair_end > at {
            let (k, v) = match find(head, at..pair_end, b'=') {
                Some(eq) => (at..eq, eq + 1..pair_end),
                None => (at..pair_end, pair_end..pair_end),
            };
            let k = decode_in_place(head, k).ok_or(HttpError::Malformed("bad query escape"))?;
            let v = decode_in_place(head, v).ok_or(HttpError::Malformed("bad query escape"))?;
            query.push((k, v));
        }
        at = pair_end + 1;
    }
    Ok((path, query))
}

fn hex_value(digit: u8) -> Option<u8> {
    (digit as char).to_digit(16).map(|d| d as u8)
}

/// Decode `%XX` escapes and `+`-as-space within `buf[span]`, where they
/// lie: decoding only shrinks, so the result is a prefix of the span, and
/// the freed tail is blanked to keep the buffer valid UTF-8. A span
/// without `%` or `+` is returned untouched. `None` on a bad escape or a
/// non-UTF-8 result.
fn decode_in_place(buf: &mut [u8], span: Span) -> Option<Span> {
    let bytes = &mut buf[span.clone()];
    let Some(first) = bytes.iter().position(|&b| b == b'%' || b == b'+') else {
        return Some(span);
    };
    let (mut read, mut write) = (first, first);
    while read < bytes.len() {
        bytes[write] = match bytes[read] {
            b'%' => {
                let hi = hex_value(*bytes.get(read + 1)?)?;
                let lo = hex_value(*bytes.get(read + 2)?)?;
                read += 2;
                hi * 16 + lo
            }
            b'+' => b' ',
            b => b,
        };
        read += 1;
        write += 1;
    }
    bytes[write..].fill(b' ');
    std::str::from_utf8(&bytes[..write]).ok()?;
    Some(span.start..span.start + write)
}

/// Decode `%XX` escapes and `+`-as-space. `None` on a bad escape or
/// non-UTF-8 result.
pub fn percent_decode(s: &str) -> Option<String> {
    let mut bytes = s.as_bytes().to_vec();
    let decoded = decode_in_place(&mut bytes, 0..s.len())?;
    bytes.truncate(decoded.end);
    String::from_utf8(bytes).ok()
}

/// A response under construction.
#[derive(Debug, Clone)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Extra headers (Content-Type/Length and Connection are automatic).
    pub headers: Vec<(String, String)>,
    /// Body bytes (already serialized).
    pub body: String,
    /// Content type for the body.
    pub content_type: &'static str,
}

impl Response {
    /// A JSON response.
    pub fn json(status: u16, body: String) -> Self {
        Response {
            status,
            headers: Vec::new(),
            body,
            content_type: "application/json",
        }
    }

    /// A plain-text response.
    pub fn text(status: u16, body: &str) -> Self {
        Response {
            status,
            headers: Vec::new(),
            body: body.to_owned(),
            content_type: "text/plain; charset=utf-8",
        }
    }

    /// A JSON error envelope: `{"error": "..."}`.
    pub fn error(status: u16, message: &str) -> Self {
        Response::json(status, format!("{{\"error\":{}}}", json_string(message)))
    }

    /// A bodiless 304 revalidation response.
    pub fn not_modified(etag: &str) -> Self {
        let mut r = Response::json(304, String::new());
        r.headers.push(("ETag".to_owned(), etag.to_owned()));
        r
    }

    /// Add a header.
    pub fn with_header(mut self, name: &str, value: &str) -> Self {
        self.headers.push((name.to_owned(), value.to_owned()));
        self
    }

    /// Serialize onto the wire. Connections are not reused: the gateway
    /// answers `Connection: close` and the client reads to EOF.
    ///
    /// The server hands this a bare `TcpStream`, where every write is a
    /// syscall and may be a segment: the status line and headers are
    /// assembled in one buffer and go out with the body in one vectored
    /// write (a sink without vectored writes sees two: head, body).
    pub fn write_to(&self, w: &mut impl Write) -> io::Result<()> {
        let extra: usize = self
            .headers
            .iter()
            .map(|(name, value)| name.len() + value.len() + 4)
            .sum();
        let mut head = String::with_capacity(128 + extra);
        // Writing into a `String` cannot fail.
        let _ = write!(
            head,
            "HTTP/1.1 {} {}\r\n",
            self.status,
            reason_phrase(self.status)
        );
        for (name, value) in &self.headers {
            head.push_str(name);
            head.push_str(": ");
            head.push_str(value);
            head.push_str("\r\n");
        }
        if self.status != 304 {
            let _ = write!(
                head,
                "Content-Type: {}\r\nContent-Length: {}\r\n",
                self.content_type,
                self.body.len()
            );
        }
        head.push_str("Connection: close\r\n\r\n");

        let (head, body) = (head.as_bytes(), self.body.as_bytes());
        let sent = match w.write_vectored(&[IoSlice::new(head), IoSlice::new(body)]) {
            Ok(sent) => sent,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => 0,
            Err(e) => return Err(e),
        };
        if sent < head.len() {
            w.write_all(&head[sent..])?;
            w.write_all(body)?;
        } else {
            w.write_all(&body[sent - head.len()..])?;
        }
        w.flush()
    }
}

/// The standard reason phrase for the codes the gateway emits.
pub fn reason_phrase(status: u16) -> &'static str {
    match status {
        200 => "OK",
        304 => "Not Modified",
        400 => "Bad Request",
        401 => "Unauthorized",
        403 => "Forbidden",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// What follows the backslash when `json_string` escapes a byte: `u` for
/// the `\u00XX` form, 0 for bytes copied as they are.
const JSON_ESCAPE: [u8; 256] = {
    let mut table = [0u8; 256];
    let mut control = 0;
    while control < 0x20 {
        table[control] = b'u';
        control += 1;
    }
    table[b'"' as usize] = b'"';
    table[b'\\' as usize] = b'\\';
    table[b'\n' as usize] = b'n';
    table[b'\r' as usize] = b'r';
    table[b'\t' as usize] = b't';
    table
};

/// The bytes `JSON_ESCAPE` escapes, found eight at a time: 0x80 in every
/// byte of `word` that is a control character, `"` or `\`.
fn escape_mask(word: u64) -> u64 {
    const LOW7: u64 = 0x7f7f_7f7f_7f7f_7f7f;
    const EACH: u64 = 0x0101_0101_0101_0101;
    // Per byte: adding 0x7f to the low seven bits carries into the top
    // bit unless they are all zero, and never into the next byte.
    let zero_bytes = |v: u64| !(((v & LOW7) + LOW7) | v | LOW7);
    zero_bytes(word & (EACH * 0xe0))
        | zero_bytes(word ^ (EACH * b'"' as u64))
        | zero_bytes(word ^ (EACH * b'\\' as u64))
}

/// Serialize a string as a JSON string literal (quotes included). Clean
/// runs are copied whole; only the escaped bytes are written one by one.
pub fn json_string(s: &str) -> String {
    let bytes = s.as_bytes();
    // Room for one escape per eight bytes before the buffer regrows.
    let mut out = String::with_capacity(bytes.len() + bytes.len() / 8 + 2);
    out.push('"');
    let mut clean_from = 0;
    // Every escaped byte is ASCII, so each run ends on a char boundary.
    let mut escape = |out: &mut String, i: usize| {
        out.push_str(&s[clean_from..i]);
        clean_from = i + 1;
        let letter = JSON_ESCAPE[bytes[i] as usize];
        out.push('\\');
        out.push(letter as char);
        if letter == b'u' {
            out.push_str("00");
            out.extend(char::from_digit(u32::from(bytes[i] >> 4), 16));
            out.extend(char::from_digit(u32::from(bytes[i] & 0xf), 16));
        }
    };
    let (words, tail) = bytes.as_chunks::<8>();
    for (n, word) in words.iter().enumerate() {
        let mut mask = escape_mask(u64::from_le_bytes(*word));
        while mask != 0 {
            escape(&mut out, n * 8 + (mask.trailing_zeros() / 8) as usize);
            mask &= mask - 1;
        }
    }
    for (i, &b) in tail.iter().enumerate() {
        if JSON_ESCAPE[b as usize] != 0 {
            escape(&mut out, words.len() * 8 + i);
        }
    }
    out.push_str(&s[clean_from..]);
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    /// The reader, decoder, escaper and serializer as they were before the
    /// buffer-scanning rewrite: one `Read::read` per byte, one `String` per
    /// token, one `char` at a time, one `write!` per header. The
    /// differential tests hold the code above to these, byte for byte.
    /// `read_line` carries the one deliberate change, the bound on content
    /// bytes.
    mod reference {
        use super::super::{reason_phrase, HttpError, Response};
        use super::super::{MAX_BODY_BYTES, MAX_HEADERS, MAX_LINE_BYTES};
        use std::io::{self, BufRead, Write};

        pub struct Request {
            pub method: String,
            pub path: String,
            pub query: Vec<(String, String)>,
            pub headers: Vec<(String, String)>,
            pub body: String,
        }

        pub fn read_request(reader: &mut impl BufRead) -> Result<Request, HttpError> {
            let request_line = read_line(reader)?;
            if request_line.is_empty() {
                return Err(HttpError::Malformed("empty request line"));
            }
            let mut parts = request_line.split(' ');
            let method = parts
                .next()
                .filter(|m| !m.is_empty() && m.bytes().all(|b| b.is_ascii_uppercase()))
                .ok_or(HttpError::Malformed("bad method"))?
                .to_owned();
            let target = parts.next().ok_or(HttpError::Malformed("missing target"))?;
            match parts.next() {
                Some("HTTP/1.1") | Some("HTTP/1.0") => {}
                _ => return Err(HttpError::Malformed("bad http version")),
            }
            if parts.next().is_some() {
                return Err(HttpError::Malformed("extra tokens on request line"));
            }
            let (path, query) = parse_target(target)?;

            let mut headers = Vec::new();
            loop {
                let line = read_line(reader)?;
                if line.is_empty() {
                    break;
                }
                if headers.len() >= MAX_HEADERS {
                    return Err(HttpError::TooLarge("header count"));
                }
                let (name, value) = line
                    .split_once(':')
                    .ok_or(HttpError::Malformed("header without colon"))?;
                if name.is_empty() || name.contains(' ') {
                    return Err(HttpError::Malformed("bad header name"));
                }
                headers.push((name.to_ascii_lowercase(), value.trim().to_owned()));
            }

            let content_length = match headers.iter().find(|(n, _)| n == "content-length") {
                None => 0,
                Some((_, v)) => v
                    .parse::<usize>()
                    .map_err(|_| HttpError::Malformed("bad content-length"))?,
            };
            if content_length > MAX_BODY_BYTES {
                return Err(HttpError::TooLarge("body"));
            }
            let mut body_bytes = vec![0u8; content_length];
            io::Read::read_exact(reader, &mut body_bytes)?;
            let body = String::from_utf8(body_bytes)
                .map_err(|_| HttpError::Malformed("body is not utf-8"))?;

            Ok(Request {
                method,
                path,
                query,
                headers,
                body,
            })
        }

        fn read_line(reader: &mut impl BufRead) -> Result<String, HttpError> {
            let mut buf = Vec::new();
            loop {
                let mut byte = [0u8; 1];
                match io::Read::read(reader, &mut byte)? {
                    0 => {
                        if buf.is_empty() {
                            return Err(HttpError::ConnectionClosed);
                        }
                        return Err(HttpError::Malformed("truncated line"));
                    }
                    _ => {
                        if byte[0] == b'\n' {
                            if buf.last() == Some(&b'\r') {
                                buf.pop();
                            }
                            return String::from_utf8(buf)
                                .map_err(|_| HttpError::Malformed("line is not utf-8"));
                        }
                        buf.push(byte[0]);
                        // A `\r` right after a full line may be the
                        // terminator's: it counts only if no `\n` follows.
                        let maybe_terminator = buf.len() == MAX_LINE_BYTES + 1 && byte[0] == b'\r';
                        if buf.len() > MAX_LINE_BYTES && !maybe_terminator {
                            return Err(HttpError::TooLarge("line"));
                        }
                    }
                }
            }
        }

        fn parse_target(target: &str) -> Result<(String, Vec<(String, String)>), HttpError> {
            if !target.starts_with('/') {
                return Err(HttpError::Malformed("target must be absolute"));
            }
            let (raw_path, raw_query) = match target.split_once('?') {
                None => (target, ""),
                Some((p, q)) => (p, q),
            };
            let path = percent_decode(raw_path).ok_or(HttpError::Malformed("bad path escape"))?;
            let mut query = Vec::new();
            for pair in raw_query.split('&').filter(|p| !p.is_empty()) {
                let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
                let k = percent_decode(k).ok_or(HttpError::Malformed("bad query escape"))?;
                let v = percent_decode(v).ok_or(HttpError::Malformed("bad query escape"))?;
                query.push((k, v));
            }
            Ok((path, query))
        }

        pub fn percent_decode(s: &str) -> Option<String> {
            let bytes = s.as_bytes();
            let mut out = Vec::with_capacity(bytes.len());
            let mut i = 0;
            while i < bytes.len() {
                match bytes[i] {
                    b'%' => {
                        let hex = bytes.get(i + 1..i + 3)?;
                        let hi = (hex[0] as char).to_digit(16)?;
                        let lo = (hex[1] as char).to_digit(16)?;
                        out.push((hi * 16 + lo) as u8);
                        i += 3;
                    }
                    b'+' => {
                        out.push(b' ');
                        i += 1;
                    }
                    b => {
                        out.push(b);
                        i += 1;
                    }
                }
            }
            String::from_utf8(out).ok()
        }

        pub fn write_to(r: &Response, w: &mut impl Write) -> io::Result<()> {
            write!(w, "HTTP/1.1 {} {}\r\n", r.status, reason_phrase(r.status))?;
            for (name, value) in &r.headers {
                write!(w, "{name}: {value}\r\n")?;
            }
            if r.status != 304 {
                write!(w, "Content-Type: {}\r\n", r.content_type)?;
                write!(w, "Content-Length: {}\r\n", r.body.len())?;
            }
            write!(w, "Connection: close\r\n\r\n")?;
            w.write_all(r.body.as_bytes())?;
            w.flush()
        }

        pub fn json_string(s: &str) -> String {
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
    }

    fn parse(raw: &str) -> Result<Request, HttpError> {
        read_request(&mut BufReader::new(raw.as_bytes()))
    }

    #[test]
    fn parses_a_get_with_query_and_cookies() {
        let req = parse(
            "GET /query?realm=jobs&metric=total%20su&filter=resource%3Drush HTTP/1.1\r\n\
             Host: localhost\r\n\
             Cookie: a=1; xdmod_session=deadbeef; b=2\r\n\
             \r\n",
        )
        .unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/query");
        assert_eq!(req.query_param("realm"), Some("jobs"));
        assert_eq!(req.query_param("metric"), Some("total su"));
        assert_eq!(req.query_param("filter"), Some("resource=rush"));
        assert_eq!(req.cookie("xdmod_session"), Some("deadbeef"));
        assert_eq!(req.cookie("missing"), None);
        assert_eq!(req.header("HOST"), Some("localhost"));
    }

    #[test]
    fn parses_a_post_body_by_content_length() {
        let req = parse("POST /login HTTP/1.1\r\nContent-Length: 7\r\n\r\n{\"a\":1}").unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.body, "{\"a\":1}");
    }

    #[test]
    fn malformed_requests_are_typed_errors_not_panics() {
        for raw in [
            "\r\n\r\n",
            "GET\r\n\r\n",
            "get /x HTTP/1.1\r\n\r\n",
            "GET /x HTTP/9.9\r\n\r\n",
            "GET x HTTP/1.1\r\n\r\n",
            "GET /x HTTP/1.1 extra\r\n\r\n",
            "GET /%zz HTTP/1.1\r\n\r\n",
            "GET /x HTTP/1.1\r\nno-colon\r\n\r\n",
            "POST /x HTTP/1.1\r\nContent-Length: nope\r\n\r\n",
            " \r\n\r\n",
            "GET  HTTP/1.1\r\n\r\n",
            "GET /x\r\n\r\n",
            "GET /x  HTTP/1.1\r\n\r\n",
            "GET /x HTTP/1.1\r\r\n\r\n",
            "GET /x HTTP/1.1\r\n: v\r\n\r\n",
            "GET /x HTTP/1.1\r\nbad name: v\r\n\r\n",
            "GET /x HTTP/1.1\r\n\r\r\n\r\n",
            "GET /x?a=%41%e2%82 HTTP/1.1\r\n\r\n",
        ] {
            assert!(
                matches!(parse(raw), Err(HttpError::Malformed(_))),
                "{raw:?}"
            );
            assert_matches_reference(raw.as_bytes(), "malformed");
        }
    }

    #[test]
    fn bounds_are_enforced() {
        // The line bound counts content bytes: neither terminator does.
        for eol in ["\r\n", "\n"] {
            for (content, fits) in [(MAX_LINE_BYTES, true), (MAX_LINE_BYTES + 1, false)] {
                let target = "a".repeat(content - "GET / HTTP/1.1".len());
                let value = "a".repeat(content - "h: ".len());
                for raw in [
                    format!("GET /{target} HTTP/1.1{eol}{eol}"),
                    format!("GET / HTTP/1.1{eol}h: {value}{eol}{eol}"),
                ] {
                    match parse(&raw) {
                        Ok(_) => assert!(fits, "{content} bytes before {eol:?}"),
                        Err(HttpError::TooLarge("line")) => {
                            assert!(!fits, "{content} bytes before {eol:?}")
                        }
                        Err(e) => panic!("{content} bytes before {eol:?}: {e}"),
                    }
                }
            }
        }

        let many_headers = format!(
            "GET / HTTP/1.1\r\n{}\r\n",
            (0..MAX_HEADERS + 1)
                .map(|i| format!("h{i}: v\r\n"))
                .collect::<String>()
        );
        assert!(matches!(parse(&many_headers), Err(HttpError::TooLarge(_))));

        let big_body = format!(
            "POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        assert!(matches!(parse(&big_body), Err(HttpError::TooLarge(_))));
    }

    #[test]
    fn closed_connection_is_distinguished_from_garbage() {
        assert!(matches!(parse(""), Err(HttpError::ConnectionClosed)));
        assert!(matches!(parse("GET / HT"), Err(HttpError::Malformed(_))));
    }

    #[test]
    fn responses_serialize_with_length_and_close() {
        let mut out = Vec::new();
        Response::json(200, "{}".to_owned())
            .with_header("ETag", "\"abc\"")
            .write_to(&mut out)
            .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("ETag: \"abc\"\r\n"));
        assert!(text.contains("Content-Length: 2\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.ends_with("\r\n\r\n{}"));

        let mut out = Vec::new();
        Response::not_modified("\"v1\"").write_to(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 304 Not Modified\r\n"));
        assert!(!text.contains("Content-Length"));
    }

    #[test]
    fn json_strings_escape_controls() {
        assert_eq!(json_string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_string("\u{1}"), "\"\\u0001\"");
    }

    /// Seeded generator for the differential tests (xorshift64*).
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 >> 12;
            self.0 ^= self.0 << 25;
            self.0 ^= self.0 >> 27;
            self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
        }

        /// Uniform in `lo..hi`.
        fn range(&mut self, lo: usize, hi: usize) -> usize {
            lo + (self.next() % (hi - lo) as u64) as usize
        }

        fn one_in(&mut self, n: usize) -> bool {
            self.range(0, n) == 0
        }

        fn pick<'a>(&mut self, items: &[&'a str]) -> &'a str {
            items[self.range(0, items.len())]
        }

        fn text(&mut self, len: usize, alphabet: &[&str]) -> String {
            (0..len).map(|_| self.pick(alphabet)).collect()
        }
    }

    const ALNUM: &[&str] = &[
        "a", "b", "c", "d", "e", "f", "g", "h", "x", "y", "z", "A", "F", "Q", "Z", "0", "1", "7",
        "9",
    ];
    /// Query values before encoding: what the benchmark draws, plus `+`,
    /// `%` and multi-byte characters.
    const VALUE: &[&str] = &[
        "a", "b", "c", "m", "n", "o", "p", " ", "=", ":", "&", "0", "5", "9", "+", "%", "é", "€",
    ];
    /// Body text: plain, the escaped ASCII, controls, 2/3/4-byte UTF-8.
    const BODY: &[&str] = &[
        "a", "b", "k", "z", "0", "9", " ", ",", ":", "{", "}", "[", "]", "\"", "\\", "\n", "\r",
        "\t", "\u{1}", "\u{1f}", "\u{7f}", "é", "€", "😀",
    ];

    /// Encode as a browser might: unreserved ASCII as it is, spaces as `+`
    /// or `%20`, hex in either case, other characters encoded or raw.
    fn percent_encode(rng: &mut Rng, value: &str) -> String {
        let mut out = String::new();
        for c in value.chars() {
            match c {
                ' ' if rng.one_in(2) => out.push('+'),
                'a'..='z' | '0'..='9' => out.push(c),
                c if !c.is_ascii() && rng.one_in(2) => out.push(c),
                c => {
                    for b in c.to_string().bytes() {
                        out.push_str(&if rng.one_in(2) {
                            format!("%{b:02X}")
                        } else {
                            format!("%{b:02x}")
                        });
                    }
                }
            }
        }
        out
    }

    /// A well-formed request of the benchmark's shapes: 8–12 encoded query
    /// parameters, a 1–2 KiB cookie, `If-None-Match` lists, POST bodies.
    fn generate(rng: &mut Rng) -> Vec<u8> {
        let eol = if rng.one_in(8) { "\n" } else { "\r\n" };
        let post = rng.one_in(4);
        let mut raw = String::new();
        raw.push_str(if post { "POST /login" } else { "GET /query" });
        for i in 0..rng.range(8, 13) {
            raw.push(if i == 0 { '?' } else { '&' });
            if rng.one_in(16) {
                continue; // an empty pair
            }
            let len = rng.range(1, 8);
            let name = rng.text(len, ALNUM);
            raw.push_str(&percent_encode(rng, &name));
            if rng.one_in(12) {
                continue; // a name without `=`
            }
            raw.push('=');
            let len = rng.range(0, 24);
            let value = rng.text(len, VALUE);
            raw.push_str(&percent_encode(rng, &value));
        }
        raw.push_str(if rng.one_in(8) {
            " HTTP/1.0"
        } else {
            " HTTP/1.1"
        });
        raw.push_str(eol);

        raw.push_str(&format!("Host: hub.xdmod.example.org{eol}"));
        raw.push_str(&format!("accept:application/json, text/plain, */*{eol}"));
        raw.push_str(&format!("X-Note: \t caf\u{e9} \u{a0}{eol}"));
        let pad = rng.range(700, 1700);
        raw.push_str(&format!(
            "{}: theme=dark; xdmod_session={:016x}; prefs={}{eol}",
            rng.pick(&["Cookie", "cookie", "COOKIE"]),
            rng.next(),
            rng.text(pad, ALNUM)
        ));
        if rng.one_in(3) {
            let tags = (0..rng.range(1, 4))
                .map(|_| format!("\"xd-{:016x}\"", rng.next()))
                .collect::<Vec<_>>();
            raw.push_str(&format!("If-None-Match: {}{eol}", tags.join(", ")));
        }
        if post {
            let len = if rng.one_in(50) {
                rng.range(4096, 30_000)
            } else {
                rng.range(0, 2048)
            };
            let body = rng.text(len, BODY);
            raw.push_str(&format!("Content-Length: {}{eol}{eol}{body}", body.len()));
        } else {
            raw.push_str(eol);
        }
        raw.into_bytes()
    }

    /// One byte-level fault, or one of the three bounds approached or
    /// overrun. Half the faults land in the first 400 bytes, where the
    /// request line and the short headers are.
    fn mutate(rng: &mut Rng, raw: &mut Vec<u8>) {
        let reach = if rng.one_in(2) {
            raw.len().min(400)
        } else {
            raw.len()
        };
        let at = rng.range(0, reach);
        let positions = |raw: &[u8], byte: u8| {
            (0..raw.len())
                .filter(|&i| raw[i] == byte)
                .collect::<Vec<_>>()
        };
        let after_request_line = positions(raw, b'\n')[0] + 1;
        match rng.range(0, 11) {
            0 => {
                let crs = positions(raw, b'\r');
                if !crs.is_empty() {
                    raw.remove(crs[rng.range(0, crs.len())]);
                }
            }
            1 => raw.insert(at, 0x00),
            2 => raw.insert(at, 0x80),
            3 => {
                // A doubled `\n`, or a `\r` too many before one.
                let lfs = positions(raw, b'\n');
                let doubled = if rng.one_in(2) { b'\n' } else { b'\r' };
                raw.insert(lfs[rng.range(0, lfs.len())], doubled);
            }
            4 => raw.truncate(at),
            5 => {
                raw.remove(at);
            }
            6 => {
                raw[at] = if rng.one_in(2) {
                    rng.next() as u8
                } else {
                    b" :\r\n?&=%+/"[rng.range(0, 10)]
                }
            }
            7 => {
                // One line padded to the bound, or one byte either side.
                let start = raw[..at]
                    .iter()
                    .rposition(|&b| b == b'\n')
                    .map_or(0, |i| i + 1);
                let end = raw[at..]
                    .iter()
                    .position(|&b| b == b'\n')
                    .map_or(raw.len(), |i| at + i);
                let line = &raw[start..end];
                let content = line.strip_suffix(b"\r").unwrap_or(line).len();
                let pad = (MAX_LINE_BYTES + rng.range(0, 3) - 1).saturating_sub(content);
                let inside = start + content.min(6);
                raw.splice(inside..inside, vec![b'a'; pad]);
            }
            8 => {
                // Headers up to the allowed count, or past it.
                let extra = (0..MAX_HEADERS - rng.range(0, 8))
                    .flat_map(|i| format!("x-pad-{i}: v\r\n").into_bytes())
                    .collect::<Vec<_>>();
                raw.splice(after_request_line..after_request_line, extra);
            }
            9 => {
                // A declared body at the bound, past it, or unparseable.
                let declared = rng.pick(&["65536", "65537", "70000", "-1", "1e3", ""]);
                let header = format!("Content-Length: {declared}\r\n").into_bytes();
                raw.splice(after_request_line..after_request_line, header);
            }
            _ => {
                // A bad escape somewhere in the target.
                let spaces = positions(&raw[..after_request_line], b' ');
                let inside = rng.range(spaces[0] + 2, spaces[1] + 1);
                let bad = rng.pick(&["%", "%4", "%zz", "%G1", "%ff", "%C3"]);
                raw.splice(inside..inside, bad.bytes());
            }
        }
    }

    /// A reader that hands out at most `fill` bytes per `fill_buf`, as a
    /// socket delivering a request in pieces does.
    struct Fills<'a> {
        data: &'a [u8],
        fill: usize,
    }

    impl io::Read for Fills<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let n = buf.len().min(self.fill).min(self.data.len());
            buf[..n].copy_from_slice(&self.data[..n]);
            self.data = &self.data[n..];
            Ok(n)
        }
    }

    impl BufRead for Fills<'_> {
        fn fill_buf(&mut self) -> io::Result<&[u8]> {
            Ok(&self.data[..self.fill.min(self.data.len())])
        }

        fn consume(&mut self, amt: usize) {
            self.data = &self.data[amt..];
        }
    }

    fn describe_error(e: &HttpError) -> String {
        match e {
            HttpError::ConnectionClosed => "closed".to_owned(),
            HttpError::Io(e) => format!("io: {:?}", e.kind()),
            HttpError::Malformed(what) => format!("malformed: {what}"),
            HttpError::TooLarge(what) => format!("too large: {what}"),
        }
    }

    /// Everything a caller can observe of one parse: the request's fields
    /// and how much input was left unread, or the error and its reason.
    fn outcome_of_reference(raw: &[u8]) -> String {
        let mut reader = raw;
        match reference::read_request(&mut reader) {
            Ok(r) => format!(
                "{:?}",
                (r.method, r.path, r.query, r.headers, r.body, reader.len())
            ),
            Err(e) => describe_error(&e),
        }
    }

    fn outcome(raw: &[u8], fill: usize) -> String {
        let mut reader = Fills { data: raw, fill };
        let owned = |(a, b): (&str, &str)| (a.to_owned(), b.to_owned());
        match read_request(&mut reader) {
            Ok(r) => format!(
                "{:?}",
                (
                    &r.method,
                    &r.path,
                    r.query().map(owned).collect::<Vec<_>>(),
                    r.headers().map(owned).collect::<Vec<_>>(),
                    &r.body,
                    reader.data.len()
                )
            ),
            Err(e) => describe_error(&e),
        }
    }

    /// Whole buffer, 7-byte fills, 1-byte fills.
    const FILLS: [usize; 3] = [usize::MAX, 7, 1];

    /// Returns the outcome all four parses agreed on.
    fn assert_matches_reference(raw: &[u8], context: &str) -> String {
        let want = outcome_of_reference(raw);
        for fill in FILLS {
            assert_eq!(
                outcome(raw, fill),
                want,
                "{context}, fill {fill}: {:?}",
                String::from_utf8_lossy(raw)
            );
        }
        want
    }

    #[test]
    fn parser_matches_the_reference_on_generated_and_mutated_requests() {
        let mut rng = Rng(0x5eed_0013);
        let (mut accepted, mut refused) = (0, 0);
        for case in 0..10_000 {
            let mut raw = generate(&mut rng);
            if case % 2 == 1 {
                mutate(&mut rng, &mut raw);
            }
            let agreed = assert_matches_reference(&raw, &format!("case {case}"));
            if agreed.starts_with('(') {
                accepted += 1;
            } else {
                refused += 1;
            }
        }
        // The mix exercises both sides: every clean request parses, and
        // most mutations are refused.
        assert!(
            accepted >= 5_000 && refused >= 2_000,
            "{accepted}/{refused}"
        );
    }

    #[test]
    fn parser_matches_the_reference_at_every_truncation() {
        let mut rng = Rng(0x5eed_0014);
        for _ in 0..4 {
            let raw = generate(&mut rng);
            for cut in 0..=raw.len() {
                assert_matches_reference(&raw[..cut], &format!("cut at {cut}"));
            }
        }
    }

    #[test]
    fn percent_decode_matches_the_reference() {
        let mut rng = Rng(0x5eed_0015);
        let alphabet = [
            "%",
            "%",
            "+",
            "4",
            "1",
            "c",
            "3",
            "a",
            "9",
            "F",
            "f",
            "G",
            "z",
            " ",
            "é",
            "€",
            "%C3%A9",
            "%e2%82%ac",
        ];
        for _ in 0..20_000 {
            let len = rng.range(0, 12);
            let s = rng.text(len, &alphabet);
            assert_eq!(percent_decode(&s), reference::percent_decode(&s), "{s:?}");
        }
    }

    #[test]
    fn json_string_matches_the_reference() {
        // The word-at-a-time scan flags exactly the bytes the table escapes,
        // in every lane.
        for b in 0..=255u8 {
            for lane in 0..8 {
                let mut word = [b'a'; 8];
                word[lane] = b;
                let want = u64::from(JSON_ESCAPE[b as usize] != 0) << (lane * 8 + 7);
                assert_eq!(
                    escape_mask(u64::from_le_bytes(word)),
                    want,
                    "{b:#x} lane {lane}"
                );
            }
        }
        // Every ASCII byte and 2/3/4-byte UTF-8, at every alignment.
        let singles = (0u8..0x80).map(|b| (b as char).to_string());
        let wide = [
            "é",
            "€",
            "😀",
            "\u{80}",
            "\u{7ff}",
            "\u{ffff}",
            "\u{10ffff}",
        ];
        for c in singles.chain(wide.iter().map(|s| (*s).to_owned())) {
            for lead in 0..=8 {
                for trail in [0, 3, 9] {
                    let s = format!("{}{c}{c}{}", "a".repeat(lead), "b".repeat(trail));
                    assert_eq!(json_string(&s), reference::json_string(&s), "{s:?}");
                }
            }
        }
        let mut rng = Rng(0x5eed_0016);
        for _ in 0..5_000 {
            let len = rng.range(0, 200);
            let s = rng.text(len, BODY);
            assert_eq!(json_string(&s), reference::json_string(&s), "{s:?}");
        }
    }

    /// A sink that takes at most `per_call` bytes per call and counts the
    /// calls; `vectored` says whether it gathers slices as a socket does.
    struct Sink {
        bytes: Vec<u8>,
        calls: usize,
        per_call: usize,
        vectored: bool,
    }

    impl Write for Sink {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.calls += 1;
            let n = buf.len().min(self.per_call);
            self.bytes.extend_from_slice(&buf[..n]);
            Ok(n)
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
            if !self.vectored {
                let first = bufs.iter().find(|b| !b.is_empty());
                return self.write(first.map_or(&[][..], |b| &b[..]));
            }
            self.calls += 1;
            let mut room = self.per_call;
            for buf in bufs {
                let n = buf.len().min(room);
                self.bytes.extend_from_slice(&buf[..n]);
                room -= n;
            }
            Ok(self.per_call - room)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn responses_go_out_in_at_most_two_writes_with_the_same_bytes() {
        let statuses = [200, 304, 400, 401, 403, 404, 405, 413, 429, 500, 503, 418];
        for status in statuses {
            for extra in [false, true] {
                let mut response = match status {
                    304 => Response::not_modified("\"xd-0000000000000007\""),
                    200 => Response::json(200, "{\"dataset\":[1,2,3]}".repeat(40)),
                    404 => Response::text(404, "no such endpoint"),
                    _ => Response::error(status, "it went wrong"),
                };
                if extra {
                    response = response
                        .with_header("Retry-After", "1")
                        .with_header("X-Request-Id", "0123456789abcdef");
                }
                let mut want = Vec::new();
                reference::write_to(&response, &mut want).unwrap();

                for (per_call, vectored, most_calls) in [
                    (usize::MAX, false, 2),
                    (usize::MAX, true, 1),
                    (3, false, usize::MAX),
                    (100, true, usize::MAX),
                ] {
                    let mut sink = Sink {
                        bytes: Vec::new(),
                        calls: 0,
                        per_call,
                        vectored,
                    };
                    response.write_to(&mut sink).unwrap();
                    let context = format!("status {status}, extra {extra}, {per_call}/{vectored}");
                    assert_eq!(sink.bytes, want, "{context}");
                    assert!(sink.calls <= most_calls, "{context}: {} calls", sink.calls);
                }
                let mut plain = Vec::new();
                response.write_to(&mut plain).unwrap();
                assert_eq!(plain, want);
            }
        }
    }
}
