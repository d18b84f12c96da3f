//! Item extraction and per-function concurrency summaries.
//!
//! Built on [`crate::lex`], this module turns workspace sources into a
//! [`Workspace`] of [`FnSummary`] records: for every function (free or
//! in an `impl` block, excluding `#[cfg(test)]` regions and `#[test]`
//! functions) a linear stream of concurrency [`Event`]s —
//!
//! - **Acquire/Release** pairs for lock guards, with lifetimes inferred
//!   from Rust scoping rules: `let`-bound guards live to the end of the
//!   enclosing block (or an explicit `drop(guard)`); temporaries live to
//!   the end of their statement; `if let` / `while let` / `match` / `for`
//!   scrutinee temporaries live to the end of the whole construct
//!   (including `else` chains — the classic edition-2021 deadlock
//!   footgun); plain `if`/`while` condition temporaries are dropped
//!   before the block.
//! - **Call** events for every function/method call, so the analysis in
//!   [`crate::locks`] can propagate held-lock sets one level into
//!   callees.
//! - **Blocking** events for operations that can park the thread:
//!   channel `send`/`recv`, socket `accept`/`read_exact`/`write_all`/
//!   `flush`, `thread::sleep`, condvar waits, and chaos fault-point
//!   calls (`next_fault` — an injected fault may stall or fail the op).
//! - **UnboundedChannel** events for `mpsc::channel()` construction
//!   (the workspace convention is bounded `sync_channel`).
//!
//! Lock identity is a *field-path heuristic*, not type resolution:
//! `self.db.read()` inside `impl FederationHub` is the lock
//! `FederationHub::db`; a local `db.read()` is keyed to the enclosing
//! function unless a recorded alias (`let db = self.db.clone()`,
//! `Arc::clone(&self.db)`, `let db = &self.db`) resolves it back to a
//! field. `.lock()` is a Mutex acquisition; zero-argument `.read()` /
//! `.write()` are RwLock acquisitions (the zero-arg form cannot be
//! `io::Read`/`io::Write`, which take a buffer). Functions whose return
//! type names a `*Guard` type are *guard helpers*: a call
//! `lock(&self.bucket)` is an acquisition of `self.bucket` at the call
//! site (second extraction pass, once all signatures are known).
//!
//! Closure bodies are analyzed inline as part of the enclosing
//! function: a guard visibly held at the point a closure runs is
//! usually held by the thread executing it (worker-pool jobs are the
//! exception, and are what `xc-allow` is for).

use crate::lex::{lex, Tok, Token};

/// How a lock is acquired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// `Mutex::lock` (or a guard-returning helper).
    Lock,
    /// `RwLock::read`.
    Read,
    /// `RwLock::write`.
    Write,
}

impl Mode {
    /// Method-name rendering for messages.
    pub fn as_str(self) -> &'static str {
        match self {
            Mode::Lock => "lock()",
            Mode::Read => "read()",
            Mode::Write => "write()",
        }
    }
}

/// One concurrency-relevant step in a function body, in source order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event {
    /// A lock guard comes into existence. `idx` pairs it with its
    /// `Release`; `path` is the alias-resolved receiver (`self.db`,
    /// `receiver`, ...); `via_helper` names the guard-returning helper
    /// if the acquisition went through one.
    Acquire {
        idx: usize,
        path: String,
        mode: Mode,
        line: usize,
        via_helper: Option<String>,
    },
    /// The guard from `Acquire { idx }` is dropped.
    Release { idx: usize, line: usize },
    /// A call to `callee` (last path segment only).
    Call { callee: String, line: usize },
    /// A potentially thread-parking operation.
    Blocking { what: String, line: usize },
    /// `mpsc::channel()` — unbounded, against workspace convention.
    UnboundedChannel { line: usize },
}

/// Per-function concurrency summary.
#[derive(Debug, Clone)]
pub struct FnSummary {
    /// Workspace crate (`core`, `warehouse`, ... or `xdmod` for the
    /// top-level `src/`).
    pub crate_name: String,
    /// Workspace-relative file path.
    pub file: String,
    /// Function name.
    pub name: String,
    /// Enclosing `impl` type, if any.
    pub impl_ty: Option<String>,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// Inside `#[cfg(test)]` / `#[test]` — excluded from analysis.
    pub is_test: bool,
    /// Return type names a `*Guard` type.
    pub returns_guard: bool,
    /// Concurrency events in source order.
    pub events: Vec<Event>,
}

impl FnSummary {
    /// `Type::name` or bare `name`.
    pub fn qual_name(&self) -> String {
        match &self.impl_ty {
            Some(ty) => format!("{ty}::{}", self.name),
            None => self.name.clone(),
        }
    }

    /// Direct lock acquisitions (the `Acquire` events).
    pub fn direct_acquires(&self) -> impl Iterator<Item = &Event> {
        self.events
            .iter()
            .filter(|e| matches!(e, Event::Acquire { .. }))
    }
}

/// All function summaries for a set of sources.
#[derive(Debug, Default)]
pub struct Workspace {
    pub fns: Vec<FnSummary>,
}

/// Derive the crate name from a workspace-relative path.
pub fn crate_of(rel_path: &str) -> String {
    rel_path
        .strip_prefix("crates/")
        .and_then(|rest| rest.split('/').next())
        .unwrap_or("xdmod")
        .to_owned()
}

/// Extract summaries from `(rel_path, text)` sources. Two passes: the
/// first finds every function and its signature (so guard-returning
/// helpers are known workspace-wide), the second generates events.
pub fn extract(files: &[(String, String)]) -> Workspace {
    let tokens: Vec<Vec<Token>> = files.iter().map(|(_, text)| lex(text)).collect();
    let items: Vec<(usize, Item)> = tokens
        .iter()
        .enumerate()
        .flat_map(|(file_idx, toks)| scan(toks).items.into_iter().map(move |f| (file_idx, f)))
        .collect();

    // Guard-returning helper names, workspace-wide (pass 1 result).
    let guard_fns: std::collections::BTreeSet<String> = items
        .iter()
        .filter(|(_, f)| f.returns_guard)
        .map(|(_, f)| f.name.clone())
        .collect();

    let fns = items
        .into_iter()
        .map(|(file_idx, f)| {
            let rel_path = &files[file_idx].0;
            FnSummary {
                crate_name: crate_of(rel_path),
                file: rel_path.clone(),
                events: body_events(&tokens[file_idx][f.body], &guard_fns),
                name: f.name,
                impl_ty: f.impl_ty,
                line: f.line,
                is_test: f.is_test,
                returns_guard: f.returns_guard,
            }
        })
        .collect();
    Workspace { fns }
}

// ---------------------------------------------------------------------------
// Item extraction
// ---------------------------------------------------------------------------

/// A function with a body, as found by [`scan`].
pub struct Item {
    pub name: String,
    pub impl_ty: Option<String>,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// Declared `pub fn` (not `pub(crate)`, not `pub async`).
    pub is_pub: bool,
    pub is_test: bool,
    pub returns_guard: bool,
    /// Token range of the body, *excluding* the outer braces.
    pub body: std::ops::Range<usize>,
}

/// One scope walk over a file's tokens: its function items, and which
/// tokens are test code.
pub struct Scan {
    pub items: Vec<Item>,
    /// `test[i]`: token `i` lies inside a `#[cfg(test)]` / `#[test]`
    /// item (module, impl, function, or any other braced item).
    pub test: Vec<bool>,
}

/// True when a flattened attribute ident list marks a test item:
/// contains `test` without a `not(...)` (so `#[cfg(not(test))]` does
/// not count).
fn attr_is_test(idents: &[String]) -> bool {
    idents.iter().any(|s| s == "test") && !idents.iter().any(|s| s == "not")
}

/// Walk `toks` once, tracking `mod` / `impl` / item scopes and test
/// attributes. This is the single decision of what is test code.
pub fn scan(toks: &[Token]) -> Scan {
    let mut items = Vec::new();
    let mut test = vec![false; toks.len()];
    struct Scope {
        /// Brace depth *inside* the scope.
        depth: i32,
        /// Token index of the scope's `{`.
        open: usize,
        impl_ty: Option<String>,
        test: bool,
    }
    let mut scopes: Vec<Scope> = Vec::new();
    let mut depth: i32 = 0;
    let mut pending_test = false;
    let mut i = 0;
    while i < toks.len() {
        let t = &toks[i];
        match &t.kind {
            Tok::Punct('#') if toks.get(i + 1).is_some_and(|n| n.is_punct('[')) => {
                // Attribute: collect idents to the matching `]`.
                let mut j = i + 2;
                let mut bdepth = 1;
                let mut idents = Vec::new();
                while j < toks.len() && bdepth > 0 {
                    match &toks[j].kind {
                        Tok::Punct('[') => bdepth += 1,
                        Tok::Punct(']') => bdepth -= 1,
                        Tok::Ident(s) => idents.push(s.clone()),
                        _ => {}
                    }
                    j += 1;
                }
                if attr_is_test(&idents) {
                    pending_test = true;
                }
                i = j;
            }
            Tok::Ident(kw) if kw == "impl" => {
                // Parse to the opening `{`; extract the implemented type.
                let mut j = i + 1;
                let mut angle = 0i32;
                let mut ty: Option<String> = None;
                while j < toks.len() {
                    match &toks[j].kind {
                        Tok::Punct('<') => angle += 1,
                        Tok::Punct('>') => angle -= 1,
                        // `impl Trait for Type`: the type is what counts.
                        Tok::Ident(s) if angle <= 0 && s == "for" => ty = None,
                        Tok::Ident(s) if angle <= 0 && s == "where" => break,
                        Tok::Ident(s) if angle <= 0 => ty = Some(s.clone()),
                        Tok::Punct('{') => break,
                        _ => {}
                    }
                    j += 1;
                }
                // Skip to the `{` itself (the `where` clause carries no
                // braces of its own).
                while j < toks.len() && !toks[j].is_punct('{') {
                    j += 1;
                }
                let parent_test = scopes.last().is_some_and(|s| s.test);
                depth += 1;
                scopes.push(Scope {
                    depth,
                    open: j,
                    impl_ty: ty,
                    test: parent_test || pending_test,
                });
                pending_test = false;
                i = j + 1;
            }
            Tok::Ident(kw) if kw == "mod" => {
                // `mod name {` opens a scope; `mod name;` does not.
                let mut j = i + 1;
                while j < toks.len() && !toks[j].is_punct('{') && !toks[j].is_punct(';') {
                    j += 1;
                }
                if toks.get(j).is_some_and(|t| t.is_punct('{')) {
                    let parent_test = scopes.last().is_some_and(|s| s.test);
                    depth += 1;
                    scopes.push(Scope {
                        depth,
                        open: j,
                        impl_ty: None,
                        test: parent_test || pending_test,
                    });
                }
                pending_test = false;
                i = j + 1;
            }
            Tok::Ident(kw) if kw == "fn" => {
                let Some(name) = toks.get(i + 1).and_then(|t| t.ident()) else {
                    i += 1;
                    continue;
                };
                let name = name.to_owned();
                let line = t.line;
                // Signature: to the body `{` or a trait-decl `;`, at
                // paren depth 0. Generics can contain parens (Fn traits),
                // so track both.
                let mut j = i + 2;
                let mut paren = 0i32;
                let mut arrow_at: Option<usize> = None;
                let mut body_open: Option<usize> = None;
                while j < toks.len() {
                    match &toks[j].kind {
                        Tok::Punct('(') | Tok::Punct('[') => paren += 1,
                        Tok::Punct(')') | Tok::Punct(']') => paren -= 1,
                        // `->` ends in '>': note where the return type
                        // starts (the last arrow wins, which is the real
                        // one — earlier arrows live inside Fn() bounds).
                        Tok::Punct('>')
                            if toks.get(j.wrapping_sub(1)).is_some_and(|p| p.is_punct('-')) =>
                        {
                            arrow_at = Some(j + 1);
                        }
                        Tok::Punct('{') if paren == 0 => {
                            body_open = Some(j);
                            break;
                        }
                        Tok::Punct(';') if paren == 0 => break,
                        _ => {}
                    }
                    j += 1;
                }
                let is_test = pending_test || scopes.last().is_some_and(|s| s.test);
                pending_test = false;
                let Some(open) = body_open else {
                    i = j + 1;
                    continue;
                };
                // Match braces to find the body end.
                let mut k = open + 1;
                let mut bd = 1i32;
                while k < toks.len() && bd > 0 {
                    match &toks[k].kind {
                        Tok::Punct('{') => bd += 1,
                        Tok::Punct('}') => bd -= 1,
                        _ => {}
                    }
                    k += 1;
                }
                if is_test {
                    test[i..k].fill(true);
                }
                items.push(Item {
                    name,
                    impl_ty: scopes.iter().rev().find_map(|s| s.impl_ty.clone()),
                    line,
                    is_pub: i > 0 && toks[i - 1].is_ident("pub"),
                    is_test,
                    returns_guard: arrow_at.is_some_and(|a| {
                        toks[a..open]
                            .iter()
                            .any(|t| t.ident().is_some_and(|s| s.ends_with("Guard")))
                    }),
                    body: open + 1..k.saturating_sub(1),
                });
                i = k;
            }
            Tok::Punct('{') => {
                depth += 1;
                // A test attribute on any other braced item (`struct`,
                // `enum`, `trait`, ...) makes the whole item test code.
                if pending_test {
                    scopes.push(Scope {
                        depth,
                        open: i,
                        impl_ty: None,
                        test: true,
                    });
                    pending_test = false;
                }
                i += 1;
            }
            Tok::Punct('}') => {
                while let Some(s) = scopes.pop_if(|s| s.depth >= depth) {
                    if s.test {
                        test[s.open..=i].fill(true);
                    }
                }
                depth -= 1;
                i += 1;
            }
            Tok::Punct(';') => {
                pending_test = false;
                i += 1;
            }
            _ => i += 1,
        }
    }
    for s in scopes.iter().filter(|s| s.test) {
        test[s.open..].fill(true);
    }
    Scan { items, test }
}

// ---------------------------------------------------------------------------
// Body event generation
// ---------------------------------------------------------------------------

/// Methods that can park the calling thread. `join` is deliberately
/// absent (`Vec<String>::join` would swamp the signal); worker joins on
/// shutdown paths are cold and covered by review.
const BLOCKING_METHODS: &[&str] = &[
    "recv",
    "recv_timeout",
    "send",
    "accept",
    "read_exact",
    "write_all",
    "read_to_end",
    "read_to_string",
    "flush",
    "wait",
    "wait_timeout",
    "park",
    "sleep",
    "next_fault",
];

/// Guard lifetime classification while walking a body.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Life {
    /// `let g = ...` — to end of enclosing block (or `drop(g)`).
    LetBound,
    /// Temporary — to end of statement.
    TempStmt,
    /// `if let` / `match` / `for` scrutinee — to end of the construct.
    Scrutinee,
    /// Plain `if`/`while` condition — dropped at the block `{`.
    Cond,
}

struct Active {
    idx: usize,
    name: Option<String>,
    life: Life,
    /// Brace depth the guard's block lives at (LetBound) or the depth
    /// the construct started at (Scrutinee/Cond).
    depth: i32,
    /// Construct frame id for Scrutinee/Cond guards.
    frame: usize,
}

struct Frame {
    id: usize,
    depth: i32,
    /// `if`/`while let` chains continue over `else`.
    if_like: bool,
    /// Seen the construct's block `{` yet?
    in_block: bool,
    /// Scrutinee-extending construct (`if let`/`while let`/`match`/
    /// `for`) vs a plain condition.
    extends_temps: bool,
}

struct Walker<'a> {
    toks: &'a [Token],
    guard_fns: &'a std::collections::BTreeSet<String>,
    events: Vec<Event>,
    active: Vec<Active>,
    aliases: std::collections::BTreeMap<String, String>,
    next_idx: usize,
    next_frame: usize,
    depth: i32,
    /// Paren/bracket depth within the current statement.
    paren: i32,
    /// Saved paren depths across `{ ... }` (closure/block expressions
    /// inside a statement restore the outer depth on close).
    paren_stack: Vec<i32>,
    /// Current statement: `let` binding name (simple pattern only).
    let_name: Option<String>,
    /// Statement began with `let` (any pattern shape).
    stmt_is_let: bool,
    /// Pending construct kind seen at statement start.
    frames: Vec<Frame>,
    stmt_start: bool,
}

/// Generate the event stream for one function body.
fn body_events(toks: &[Token], guard_fns: &std::collections::BTreeSet<String>) -> Vec<Event> {
    let mut w = Walker {
        toks,
        guard_fns,
        events: Vec::new(),
        active: Vec::new(),
        aliases: std::collections::BTreeMap::new(),
        next_idx: 0,
        next_frame: 0,
        depth: 0,
        paren: 0,
        paren_stack: Vec::new(),
        let_name: None,
        stmt_is_let: false,
        frames: Vec::new(),
        stmt_start: true,
    };
    w.run();
    // Guards still alive at the end of the body die with the function.
    let end_line = toks.last().map(|t| t.line).unwrap_or(0);
    let remaining: Vec<usize> = w.active.iter().map(|a| a.idx).collect();
    for idx in remaining {
        w.events.push(Event::Release {
            idx,
            line: end_line,
        });
    }
    w.events
}

impl<'a> Walker<'a> {
    fn run(&mut self) {
        let mut i = 0;
        while i < self.toks.len() {
            i = self.step(i);
        }
    }

    /// Process the token at `i`; return the next index.
    fn step(&mut self, i: usize) -> usize {
        let t = &self.toks[i];
        if self.stmt_start {
            if let Some(next) = self.at_stmt_start(i) {
                return next;
            }
        }
        match &t.kind {
            Tok::Punct('(') | Tok::Punct('[') => {
                self.paren += 1;
                i + 1
            }
            Tok::Punct(')') | Tok::Punct(']') => {
                self.paren -= 1;
                i + 1
            }
            Tok::Punct('{') => {
                // A construct waiting for its block enters it now.
                if let Some(f) = self.frames.last_mut() {
                    if !f.in_block && self.paren == 0 {
                        f.in_block = true;
                        // Plain-condition guards drop before the block.
                        let fid = f.id;
                        self.release_frame_guards(fid, Life::Cond, t.line);
                    }
                }
                self.depth += 1;
                self.paren_stack.push(self.paren);
                self.begin_stmt();
                i + 1
            }
            Tok::Punct('}') => {
                let line = t.line;
                // Let-bound guards of the closing block die here.
                self.release_let_guards_at(self.depth, line);
                self.depth -= 1;
                // Construct frames whose block just closed: an if-chain
                // survives into an immediate `else`.
                while let Some(f) = self.frames.last() {
                    if !f.in_block || f.depth != self.depth {
                        break;
                    }
                    let continues =
                        f.if_like && self.toks.get(i + 1).is_some_and(|n| n.is_ident("else"));
                    if continues {
                        // Stay in the frame; the else arm re-opens it.
                        break;
                    }
                    let fid = f.id;
                    self.frames.pop();
                    self.release_frame_guards(fid, Life::Scrutinee, line);
                }
                self.begin_stmt();
                self.paren = self.paren_stack.pop().unwrap_or(0);
                i + 1
            }
            Tok::Punct(';') if self.paren == 0 => {
                self.end_stmt(t.line);
                self.begin_stmt();
                i + 1
            }
            Tok::Ident(kw) if kw == "else" => {
                // `else {` or `else if ...`: frame continues either way;
                // a following `if` must not open a second frame.
                if self.toks.get(i + 1).is_some_and(|n| n.is_ident("if")) {
                    if let Some(f) = self.frames.last_mut() {
                        f.in_block = false;
                    }
                    return i + 2;
                }
                i + 1
            }
            Tok::Ident(name) => self.at_ident(i, name.clone(), t.line),
            _ => i + 1,
        }
    }

    /// Statement-start bookkeeping: `let` bindings and construct
    /// keywords. Returns `Some(next_index)` when tokens were consumed.
    fn at_stmt_start(&mut self, i: usize) -> Option<usize> {
        let t = &self.toks[i];
        let kw = t.ident()?;
        match kw {
            "let" => {
                self.stmt_is_let = true;
                self.stmt_start = false;
                // Simple `let [mut] name =` (or `: Ty =`) binds by name;
                // any other pattern binds anonymously (scope lifetime).
                let mut j = i + 1;
                if self.toks.get(j).is_some_and(|t| t.is_ident("mut")) {
                    j += 1;
                }
                if let Some(name) = self.toks.get(j).and_then(|t| t.ident()) {
                    let nxt = self.toks.get(j + 1);
                    if nxt.is_some_and(|t| t.is_punct('=') || t.is_punct(':')) {
                        self.let_name = Some(name.to_owned());
                        self.try_record_alias(j);
                    }
                }
                Some(i + 1)
            }
            "if" | "while" => {
                let is_let = self.toks.get(i + 1).is_some_and(|t| t.is_ident("let"));
                self.open_frame(true, is_let);
                self.stmt_start = false;
                Some(i + 1 + usize::from(is_let))
            }
            "match" | "for" => {
                self.open_frame(false, true);
                self.stmt_start = false;
                Some(i + 1)
            }
            _ => {
                self.stmt_start = false;
                None
            }
        }
    }

    fn open_frame(&mut self, if_like: bool, extends_temps: bool) {
        self.next_frame += 1;
        self.frames.push(Frame {
            id: self.next_frame,
            depth: self.depth,
            if_like,
            in_block: false,
            extends_temps,
        });
    }

    /// Identifier that is not a statement keyword: detect acquisitions,
    /// blocking ops, calls, channel construction.
    fn at_ident(&mut self, i: usize, name: String, line: usize) -> usize {
        let is_method = i > 0 && self.toks[i - 1].is_punct('.');
        let next_is_paren = self.toks.get(i + 1).is_some_and(|t| t.is_punct('('));
        let next_is_bang = self.toks.get(i + 1).is_some_and(|t| t.is_punct('!'));
        if next_is_bang {
            return i + 1; // macro call: skip the name
        }

        // `.lock()` / zero-arg `.read()` / `.write()` — an acquisition.
        if is_method
            && matches!(name.as_str(), "lock" | "read" | "write")
            && next_is_paren
            && self.toks.get(i + 2).is_some_and(|t| t.is_punct(')'))
        {
            let mode = match name.as_str() {
                "lock" => Mode::Lock,
                "read" => Mode::Read,
                _ => Mode::Write,
            };
            let path = self.receiver_path(i - 1);
            let consumed = self.chain_consumes_guard(i + 3);
            self.emit_acquire(path, mode, line, None, consumed);
            return i + 3;
        }

        // Guard-returning helper call: `lock(&self.bucket)`.
        if !is_method && next_is_paren && self.guard_fns.contains(&name) {
            let arg = self.first_arg_path(i + 1);
            let path = arg.unwrap_or_else(|| format!("{name}(..)"));
            let consumed = self
                .matching_paren(i + 1)
                .is_some_and(|close| self.chain_consumes_guard(close + 1));
            self.emit_acquire(path, Mode::Lock, line, Some(name), consumed);
            return i + 1; // the `(` is processed normally
        }

        // Unbounded channel construction: `channel()` / `channel::<T>()`.
        if name == "channel" && !is_method {
            let zero_arg = self.toks.get(i + 1).is_some_and(|t| t.is_punct('('))
                && self.toks.get(i + 2).is_some_and(|t| t.is_punct(')'));
            let turbofish = self.toks.get(i + 1).is_some_and(|t| t.is_punct(':'))
                && self.toks.get(i + 2).is_some_and(|t| t.is_punct(':'))
                && self.toks.get(i + 3).is_some_and(|t| t.is_punct('<'));
            if zero_arg || turbofish {
                self.events.push(Event::UnboundedChannel { line });
                return i + 1;
            }
        }

        // `drop(g)` / `mem::drop(g)` — explicit guard release.
        if name == "drop" && next_is_paren {
            if let Some(arg) = self.first_arg_path(i + 1) {
                if let Some(pos) = self
                    .active
                    .iter()
                    .rposition(|a| a.name.as_deref() == Some(arg.as_str()))
                {
                    let idx = self.active[pos].idx;
                    self.active.remove(pos);
                    self.events.push(Event::Release { idx, line });
                }
            }
            return i + 1;
        }

        // Blocking operations (method or path call).
        if next_is_paren && BLOCKING_METHODS.contains(&name.as_str()) {
            let what = if is_method {
                format!("{}.{name}()", self.receiver_path(i - 1))
            } else {
                format!("{name}()")
            };
            self.events.push(Event::Blocking { what, line });
            return i + 1;
        }

        // Anything else followed by `(` is a plain call.
        if next_is_paren && !Self::is_keyword(&name) {
            self.events.push(Event::Call { callee: name, line });
        }
        i + 1
    }

    /// After an acquisition's closing paren: does the method chain
    /// consume the guard (`.read().binlog_position()`)? `.unwrap()`,
    /// `.expect(..)` and `.unwrap_or_else(..)` forward the guard
    /// (poison recovery) and are skipped. A consumed guard is a
    /// statement temporary even under `let` — the binding holds the
    /// chained call's result, not the guard.
    fn chain_consumes_guard(&self, mut j: usize) -> bool {
        loop {
            if !self.toks.get(j).is_some_and(|t| t.is_punct('.')) {
                return false; // chain ends: the guard is the value
            }
            let Some(name) = self.toks.get(j + 1).and_then(|t| t.ident()) else {
                return false;
            };
            if !matches!(name, "unwrap" | "expect" | "unwrap_or_else") {
                return true;
            }
            match self.matching_paren(j + 2) {
                Some(close) => j = close + 1,
                None => return false,
            }
        }
    }

    /// Index of the `)` matching the `(` at `open`, if any.
    fn matching_paren(&self, open: usize) -> Option<usize> {
        if !self.toks.get(open)?.is_punct('(') {
            return None;
        }
        let mut depth = 0usize;
        for (k, t) in self.toks.iter().enumerate().skip(open) {
            if t.is_punct('(') {
                depth += 1;
            } else if t.is_punct(')') {
                depth -= 1;
                if depth == 0 {
                    return Some(k);
                }
            }
        }
        None
    }

    /// Record an acquisition with the lifetime the current statement
    /// context implies.
    fn emit_acquire(
        &mut self,
        path: String,
        mode: Mode,
        line: usize,
        via_helper: Option<String>,
        consumed: bool,
    ) {
        let path = self.resolve_alias(&path);
        let (life, name, depth, frame) = if let Some(f) = self.frames.last() {
            if !f.in_block {
                // Inside a condition / scrutinee. Scrutinee temporaries
                // live to the end of the construct even when the guard
                // is consumed by a chained call (the 2021 footgun).
                let life = if f.extends_temps {
                    Life::Scrutinee
                } else {
                    Life::Cond
                };
                (life, None, f.depth, f.id)
            } else {
                self.stmt_life(consumed)
            }
        } else {
            self.stmt_life(consumed)
        };
        self.next_idx += 1;
        let idx = self.next_idx - 1;
        self.events.push(Event::Acquire {
            idx,
            path,
            mode,
            line,
            via_helper,
        });
        self.active.push(Active {
            idx,
            name,
            life,
            depth,
            frame,
        });
    }

    /// Lifetime for an acquisition in an ordinary statement. A guard
    /// consumed by its method chain never reaches the binding, so the
    /// `let` does not extend it past the statement.
    fn stmt_life(&self, consumed: bool) -> (Life, Option<String>, i32, usize) {
        if self.stmt_is_let && !consumed {
            (Life::LetBound, self.let_name.clone(), self.depth, 0)
        } else {
            (Life::TempStmt, None, self.depth, 0)
        }
    }

    fn begin_stmt(&mut self) {
        self.stmt_start = true;
        self.stmt_is_let = false;
        self.let_name = None;
        self.paren = 0;
    }

    /// Keywords that must never be mistaken for call targets.
    fn is_keyword(name: &str) -> bool {
        matches!(
            name,
            "if" | "while"
                | "match"
                | "for"
                | "loop"
                | "let"
                | "else"
                | "return"
                | "in"
                | "move"
                | "as"
                | "ref"
                | "mut"
                | "break"
                | "continue"
                | "unsafe"
                | "await"
                | "fn"
                | "impl"
                | "dyn"
                | "where"
                | "use"
                | "pub"
                | "self"
                | "Self"
                | "super"
                | "crate"
        )
    }

    /// Statement end (`;`): temporaries die.
    fn end_stmt(&mut self, line: usize) {
        let mut released = Vec::new();
        self.active.retain(|a| {
            if a.life == Life::TempStmt {
                released.push(a.idx);
                false
            } else {
                true
            }
        });
        for idx in released {
            self.events.push(Event::Release { idx, line });
        }
    }

    /// Block close: let-bound guards (and stray temporaries from a tail
    /// expression) of blocks at `depth` die.
    fn release_let_guards_at(&mut self, depth: i32, line: usize) {
        let mut released = Vec::new();
        self.active.retain(|a| {
            let dies = match a.life {
                Life::LetBound | Life::TempStmt => a.depth >= depth,
                _ => false,
            };
            if dies {
                released.push(a.idx);
            }
            !dies
        });
        for idx in released {
            self.events.push(Event::Release { idx, line });
        }
    }

    /// Release guards belonging to construct frame `fid` with the given
    /// lifetime class.
    fn release_frame_guards(&mut self, fid: usize, life: Life, line: usize) {
        let mut released = Vec::new();
        self.active.retain(|a| {
            if a.frame == fid && a.life == life {
                released.push(a.idx);
                false
            } else {
                true
            }
        });
        for idx in released {
            self.events.push(Event::Release { idx, line });
        }
    }

    /// Walk backwards from the `.` at `dot` to build the receiver path:
    /// `self.inner.stale`, `member.source_db`, `instance.database()`.
    /// `Arc::clone(&x)` and trailing `.clone()` normalize away.
    fn receiver_path(&self, dot: usize) -> String {
        let mut segs: Vec<String> = Vec::new();
        let mut k = dot as isize - 1;
        loop {
            if k < 0 {
                break;
            }
            let t = &self.toks[k as usize];
            match &t.kind {
                Tok::Ident(s) => {
                    segs.push(s.clone());
                    k -= 1;
                    // Continue over `.` or `::`.
                    if k >= 0 && self.toks[k as usize].is_punct('.') {
                        segs.push(".".into());
                        k -= 1;
                        continue;
                    }
                    if k >= 1
                        && self.toks[k as usize].is_punct(':')
                        && self.toks[(k - 1) as usize].is_punct(':')
                    {
                        segs.push("::".into());
                        k -= 2;
                        continue;
                    }
                    break;
                }
                Tok::Punct(')') => {
                    // Balanced-paren call: capture the call's argument
                    // path for clone-normalization, then the callee.
                    let close = k as usize;
                    let mut depth = 1i32;
                    let mut m = close as isize - 1;
                    while m >= 0 && depth > 0 {
                        match &self.toks[m as usize].kind {
                            Tok::Punct(')') => depth += 1,
                            Tok::Punct('(') => depth -= 1,
                            _ => {}
                        }
                        m -= 1;
                    }
                    // m now sits before the '('.
                    if m >= 0 {
                        if let Some(callee) = self.toks[m as usize].ident() {
                            if callee == "clone" {
                                // `Arc::clone(&path)` or `x.clone()`:
                                // normalize to the underlying path.
                                if close > (m + 2) as usize {
                                    // Args present: use them.
                                    if let Some(arg) =
                                        self.arg_path_between((m + 2) as usize, close)
                                    {
                                        segs.push(arg);
                                        break;
                                    }
                                }
                                // `.clone()` chained: skip callee and the
                                // `.` and keep walking the receiver.
                                k = m - 1;
                                if k >= 0 && self.toks[k as usize].is_punct('.') {
                                    k -= 1;
                                    continue;
                                }
                                break;
                            }
                            segs.push(format!("{callee}()"));
                            k = m - 1;
                            if k >= 0 && self.toks[k as usize].is_punct('.') {
                                segs.push(".".into());
                                k -= 1;
                                continue;
                            }
                            break;
                        }
                    }
                    break;
                }
                _ => break,
            }
        }
        segs.reverse();
        let joined: String = segs.concat();
        // `Foo::bar` receivers (statics/consts) keep the path; strip a
        // leading `&`-free representation is already token-based.
        if joined.is_empty() {
            "<expr>".to_owned()
        } else {
            joined
        }
    }

    /// The first argument of a call whose `(` is at `open`: a pure
    /// `&`/`mut`-stripped ident path, if that is all there is.
    fn first_arg_path(&self, open: usize) -> Option<String> {
        let mut close = open + 1;
        let mut depth = 1i32;
        while close < self.toks.len() && depth > 0 {
            match &self.toks[close].kind {
                Tok::Punct('(') => depth += 1,
                Tok::Punct(')') => depth -= 1,
                _ => {}
            }
            close += 1;
        }
        self.arg_path_between(open + 1, close - 1)
    }

    /// Parse `&[mut] ident(.ident)*` between token indices, rejecting
    /// anything more complex.
    fn arg_path_between(&self, from: usize, to: usize) -> Option<String> {
        let mut path = String::new();
        let mut expect_ident = true;
        for t in &self.toks[from..to] {
            match &t.kind {
                Tok::Punct('&') => continue,
                Tok::Ident(s) if s == "mut" => continue,
                Tok::Ident(s) if expect_ident => {
                    path.push_str(s);
                    expect_ident = false;
                }
                Tok::Punct('.') if !expect_ident => {
                    path.push('.');
                    expect_ident = true;
                }
                _ => return None,
            }
        }
        if path.is_empty() || expect_ident {
            None
        } else {
            Some(path)
        }
    }

    /// `let x = self.db.clone();` / `= Arc::clone(&self.db);` /
    /// `= &self.db;` — record `x -> self.db`. `j` indexes the bound
    /// name.
    fn try_record_alias(&mut self, j: usize) {
        // Find the `=` (skip a type annotation).
        let mut k = j + 1;
        let mut angle = 0i32;
        while k < self.toks.len() {
            match &self.toks[k].kind {
                Tok::Punct('<') => angle += 1,
                Tok::Punct('>') => angle -= 1,
                Tok::Punct('=') if angle <= 0 => break,
                Tok::Punct(';') | Tok::Punct('{') => return,
                _ => {}
            }
            k += 1;
        }
        if k >= self.toks.len() {
            return;
        }
        // RHS tokens to the `;`.
        let start = k + 1;
        let mut end = start;
        let mut depth = 0i32;
        while end < self.toks.len() {
            match &self.toks[end].kind {
                Tok::Punct('(') => depth += 1,
                Tok::Punct(')') => depth -= 1,
                Tok::Punct(';') if depth <= 0 => break,
                _ => {}
            }
            end += 1;
        }
        let rhs = &self.toks[start..end];
        let name = match self.toks[j].ident() {
            Some(n) => n.to_owned(),
            None => return,
        };
        // `Arc::clone(&path)` / `Rc::clone(&path)`.
        if rhs.len() >= 6
            && rhs[0].ident().is_some_and(|s| s == "Arc" || s == "Rc")
            && rhs[3].is_ident("clone")
        {
            if let Some(arg) = self.arg_path_between(start + 5, end - 1) {
                let resolved = self.resolve_alias(&arg);
                self.aliases.insert(name, resolved);
            }
            return;
        }
        // `path.clone()` — strip the trailing clone.
        if rhs.len() >= 4
            && rhs[rhs.len() - 1].is_punct(')')
            && rhs[rhs.len() - 2].is_punct('(')
            && rhs[rhs.len() - 3].is_ident("clone")
            && rhs[rhs.len() - 4].is_punct('.')
        {
            if let Some(path) = self.arg_path_between(start, end - 4) {
                let resolved = self.resolve_alias(&path);
                self.aliases.insert(name, resolved);
            }
            return;
        }
        // `&path` / `path` (pure path only).
        if let Some(path) = self.arg_path_between(start, end) {
            let resolved = self.resolve_alias(&path);
            self.aliases.insert(name, resolved);
        }
    }

    /// Resolve a path's first segment through recorded aliases.
    fn resolve_alias(&self, path: &str) -> String {
        let mut current = path.to_owned();
        for _ in 0..8 {
            let first_end = current.find(['.', ':']).unwrap_or(current.len());
            let first = &current[..first_end];
            match self.aliases.get(first) {
                Some(base) if base != first => {
                    current = format!("{base}{}", &current[first_end..]);
                }
                _ => break,
            }
        }
        current
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summaries(src: &str) -> Vec<FnSummary> {
        extract(&[("crates/core/src/a.rs".to_owned(), src.to_owned())]).fns
    }

    fn events_of(src: &str, name: &str) -> Vec<Event> {
        summaries(src)
            .into_iter()
            .find(|f| f.name == name)
            .map(|f| f.events)
            .unwrap_or_default()
    }

    fn acquire_paths(events: &[Event]) -> Vec<String> {
        events
            .iter()
            .filter_map(|e| match e {
                Event::Acquire { path, .. } => Some(path.clone()),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn finds_fns_with_impl_types_and_test_regions() {
        let src = r#"
impl Hub {
    pub fn go(&self) { self.db.read(); }
}
#[cfg(test)]
mod tests {
    fn helper() {}
    #[test]
    fn t() {}
}
fn free() {}
"#;
        let fns = summaries(src);
        let go = fns.iter().find(|f| f.name == "go").unwrap();
        assert_eq!(go.impl_ty.as_deref(), Some("Hub"));
        assert!(!go.is_test);
        assert!(fns.iter().find(|f| f.name == "helper").unwrap().is_test);
        assert!(fns.iter().find(|f| f.name == "t").unwrap().is_test);
        assert!(!fns.iter().find(|f| f.name == "free").unwrap().is_test);
    }

    #[test]
    fn cfg_not_test_is_not_test() {
        let src = "#[cfg(not(test))]\nfn real() { x.lock(); }\n";
        assert!(!summaries(src)[0].is_test);
    }

    #[test]
    fn acquire_and_release_let_bound() {
        let src = "fn f(&self) {\n    let g = self.db.write();\n    use_it(&g);\n}\n";
        let ev = events_of(src, "f");
        assert_eq!(acquire_paths(&ev), vec!["self.db"]);
        // Release comes after the call.
        let rel = ev
            .iter()
            .position(|e| matches!(e, Event::Release { .. }))
            .unwrap();
        let call = ev
            .iter()
            .position(|e| matches!(e, Event::Call { callee, .. } if callee == "use_it"))
            .unwrap();
        assert!(rel > call);
    }

    #[test]
    fn consumed_let_guard_is_a_statement_temporary() {
        // The binding holds the u64, not the guard: the guard dies at
        // the semicolon, before the next statement's call.
        let src = "fn f(&self) {\n    let head = self.db.read().binlog_position();\n    self.seek(head);\n}\n";
        let ev = events_of(src, "f");
        let rel = ev
            .iter()
            .position(|e| matches!(e, Event::Release { .. }))
            .unwrap();
        let call = ev
            .iter()
            .position(|e| matches!(e, Event::Call { callee, .. } if callee == "seek"))
            .unwrap();
        assert!(rel < call, "consumed guard must die at the `;`: {ev:?}");
    }

    #[test]
    fn unwrap_chain_preserves_the_let_guard() {
        let src = "fn f(&self) {\n    let g = self.db.read().unwrap_or_else(PoisonError::into_inner);\n    use_it(&g);\n}\n";
        let ev = events_of(src, "f");
        let rel = ev
            .iter()
            .position(|e| matches!(e, Event::Release { .. }))
            .unwrap();
        let call = ev
            .iter()
            .position(|e| matches!(e, Event::Call { callee, .. } if callee == "use_it"))
            .unwrap();
        assert!(rel > call, "unwrap chain keeps the guard let-bound: {ev:?}");
    }

    #[test]
    fn consumed_helper_guard_is_a_statement_temporary() {
        let src = "fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> { m.lock().unwrap() }\nfn f(&self) {\n    let n = lock(&self.bucket).len();\n    after(n);\n}\n";
        let ev = events_of(src, "f");
        let rel = ev
            .iter()
            .position(|e| matches!(e, Event::Release { .. }))
            .unwrap();
        let call = ev
            .iter()
            .position(|e| matches!(e, Event::Call { callee, .. } if callee == "after"))
            .unwrap();
        assert!(rel < call, "consumed helper guard dies at the `;`: {ev:?}");
    }

    #[test]
    fn temporary_released_at_statement_end() {
        let src = "fn f(&self) {\n    self.m.lock().insert(1);\n    other();\n}\n";
        let ev = events_of(src, "f");
        let rel = ev
            .iter()
            .position(|e| matches!(e, Event::Release { .. }))
            .unwrap();
        let other = ev
            .iter()
            .position(|e| matches!(e, Event::Call { callee, .. } if callee == "other"))
            .unwrap();
        assert!(
            rel < other,
            "temp guard must die before the next stmt: {ev:?}"
        );
    }

    #[test]
    fn explicit_drop_releases_early() {
        let src = "fn f(&self) {\n    let g = self.m.lock();\n    drop(g);\n    after();\n}\n";
        let ev = events_of(src, "f");
        let rel = ev
            .iter()
            .position(|e| matches!(e, Event::Release { .. }))
            .unwrap();
        let after = ev
            .iter()
            .position(|e| matches!(e, Event::Call { callee, .. } if callee == "after"))
            .unwrap();
        assert!(rel < after);
    }

    #[test]
    fn if_let_scrutinee_held_through_else() {
        let src = r#"
fn f(&self) {
    if let Some(x) = self.m.lock().get(1) {
        a();
    } else {
        b();
    }
    after();
}
"#;
        let ev = events_of(src, "f");
        let rel = ev
            .iter()
            .position(|e| matches!(e, Event::Release { .. }))
            .unwrap();
        let b = ev
            .iter()
            .position(|e| matches!(e, Event::Call { callee, .. } if callee == "b"))
            .unwrap();
        let after = ev
            .iter()
            .position(|e| matches!(e, Event::Call { callee, .. } if callee == "after"))
            .unwrap();
        assert!(rel > b, "2021 scrutinee lives through else: {ev:?}");
        assert!(rel < after, "but dies before the next stmt: {ev:?}");
    }

    #[test]
    fn plain_if_condition_dropped_before_block() {
        let src = "fn f(&self) {\n    if self.m.lock().is_empty() {\n        a();\n    }\n}\n";
        let ev = events_of(src, "f");
        let rel = ev
            .iter()
            .position(|e| matches!(e, Event::Release { .. }))
            .unwrap();
        let a = ev
            .iter()
            .position(|e| matches!(e, Event::Call { callee, .. } if callee == "a"))
            .unwrap();
        assert!(rel < a, "plain-if cond temp dies at the block: {ev:?}");
    }

    #[test]
    fn zero_arg_read_write_only() {
        let src =
            "fn f(&self, buf: &mut [u8]) {\n    self.db.read();\n    self.stream.read(buf);\n}\n";
        let ev = events_of(src, "f");
        assert_eq!(acquire_paths(&ev), vec!["self.db"]);
    }

    #[test]
    fn alias_resolution_through_clone() {
        let src = "fn f(&self) {\n    let db = self.db.clone();\n    let g = db.write();\n}\n";
        assert_eq!(acquire_paths(&events_of(src, "f")), vec!["self.db"]);
        let src2 = "fn f(&self) {\n    let db = Arc::clone(&self.db);\n    db.read();\n}\n";
        assert_eq!(acquire_paths(&events_of(src2, "f")), vec!["self.db"]);
    }

    #[test]
    fn guard_helper_call_is_an_acquisition() {
        let src = r#"
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> { m.lock().unwrap() }
fn f(&self) {
    lock(&self.buckets).insert(1);
}
"#;
        let fns = summaries(src);
        assert!(fns.iter().find(|f| f.name == "lock").unwrap().returns_guard);
        let ev = fns.iter().find(|f| f.name == "f").unwrap().events.clone();
        let acq = ev
            .iter()
            .find_map(|e| match e {
                Event::Acquire {
                    path, via_helper, ..
                } => Some((path.clone(), via_helper.clone())),
                _ => None,
            })
            .unwrap();
        assert_eq!(acq.0, "self.buckets");
        assert_eq!(acq.1.as_deref(), Some("lock"));
    }

    #[test]
    fn blocking_ops_detected() {
        let src = "fn f(&self) {\n    self.rx.recv();\n    std::thread::sleep(d);\n}\n";
        let ev = events_of(src, "f");
        let blocking: Vec<_> = ev
            .iter()
            .filter_map(|e| match e {
                Event::Blocking { what, .. } => Some(what.clone()),
                _ => None,
            })
            .collect();
        assert_eq!(blocking, vec!["self.rx.recv()", "sleep()"]);
    }

    #[test]
    fn unbounded_channel_flagged_bounded_not() {
        let src = "fn f() {\n    let (a, b) = channel();\n    let (c, d) = sync_channel(4);\n    let (e, g) = channel::<u8>();\n}\n";
        let ev = events_of(src, "f");
        assert_eq!(
            ev.iter()
                .filter(|e| matches!(e, Event::UnboundedChannel { .. }))
                .count(),
            2
        );
    }

    #[test]
    fn helper_guard_temp_held_across_recv_in_same_statement() {
        let src = r#"
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> { m.lock().unwrap() }
fn worker(receiver: &Mutex<Receiver<Job>>) {
    let job = match lock(receiver).recv() { Ok(j) => j, Err(_) => return };
}
"#;
        let fns = summaries(src);
        let ev = fns
            .iter()
            .find(|f| f.name == "worker")
            .unwrap()
            .events
            .clone();
        let acq = ev
            .iter()
            .position(|e| matches!(e, Event::Acquire { .. }))
            .unwrap();
        let blk = ev
            .iter()
            .position(|e| matches!(e, Event::Blocking { .. }))
            .unwrap();
        let rel = ev
            .iter()
            .position(|e| matches!(e, Event::Release { .. }))
            .unwrap();
        assert!(acq < blk && blk < rel, "recv under the guard: {ev:?}");
    }

    #[test]
    fn receiver_through_method_call() {
        let src = "fn f(&self) {\n    instance.database().read();\n}\n";
        assert_eq!(
            acquire_paths(&events_of(src, "f")),
            vec!["instance.database()"]
        );
    }

    #[test]
    fn crate_names() {
        assert_eq!(crate_of("crates/core/src/hub.rs"), "core");
        assert_eq!(crate_of("src/lib.rs"), "xdmod");
    }
}
