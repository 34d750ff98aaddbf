//! `pesos-lint`: hand-rolled static-analysis passes for the Pesos workspace.
//!
//! The compiler cannot see the invariants Pesos' concurrency and security
//! arguments rest on, so this crate checks them lexically — a small
//! hand-written Rust lexer (the build environment has no registry, so no
//! `syn`) plus per-function token analyzers. Five passes:
//!
//! 1. **lock-hierarchy** (`lock_hierarchy`) — the workspace declares one
//!    global lock-acquisition order in [`parking_lot::lock_order`] (the
//!    same rank table the shim's opt-in runtime checker enforces). This
//!    pass reads each lock field's rank from the `with_rank` constructor
//!    that builds it ("The lock-rank table" below) and flags any
//!    lexically nested `.lock()`/`.read()`/`.write()` whose rank is not
//!    strictly above every guard still live, or that takes two locks of
//!    one sharded family without ordered indices.
//! 2. **guard-across-I/O** (`guard_across_io`) — no lock guard may be
//!    lexically live across a drive-I/O submission
//!    (`submit`/`submit_batch` or a drive
//!    `exchange`/`handle_envelope`): the submission parks the thread on a
//!    completion, so a held guard turns drive latency into lock hold
//!    time (or a deadlock when the service path needs the same lock).
//! 3. **panic-freedom** (`panic_freedom`) — request-path crates must
//!    return typed `PesosError`s, not panic inside the (logical)
//!    enclave: `unwrap()`, `expect(…)`, `panic!` and slice-indexing are
//!    flagged outside `#[cfg(test)]` code.
//! 4. **acked ⇒ logged** (`acked_logged`) — a mutation handler marked
//!    with `// pesos-lint: invariant(acked_logged)` must lexically
//!    append a replication-log record (a `.append(…)` call) before every
//!    `Ok(...)` it can return: an acknowledgement that escapes without a log append is a
//!    lost write after failover.
//! 5. **unreached-module** (`unreached_module`) — the enforcement layer is
//!    meant to be small enough to read, so a `pub mod m;` of a linted
//!    crate's `lib.rs` must be *reached*: one of `m`'s top-level `pub`
//!    names, or the path `m::` (bare, or under `crate::`/`self::`/
//!    `super::`/the crate's own name), is named in some `.rs` file outside
//!    `m`'s own (crates, root tests, examples, the benchmark package). A `pub
//!    use` in a linted `lib.rs` is a re-export, not a use. This is a name
//!    census over the whole tree, so it runs only in [`lint_workspace`].
//!
//! # Suppressions
//!
//! A finding is suppressed only by an allow comment **with a written
//! reason** (see [`parse_directive`] for the grammar):
//!
//! ```text
//! // pesos-lint: allow(<pass>, "<reason>")
//! ```
//!
//! placed either at the end of the offending line or alone on the line
//! directly above it. An allow with an empty or missing reason, or an
//! unknown pass slug, is itself reported (`bad_allow`) — the suppression
//! mechanism cannot be used silently.
//!
//! # The lock-rank table
//!
//! Ranks live in `parking_lot::lock_order` (ascending = outermost to
//! innermost): cluster topology → ops gate → routing state → cluster
//! client/policy registries → migration stripes/state → key locks → the
//! sharded metadata/cache/session maps → the VLL lock table and the
//! open-transaction table → the
//! replication log → the deferred-put count → asyscall internals → drive
//! internals → backend actuator. The lint keeps no table of its own:
//! [`lint_workspace`] first lexes every linted file and reads each
//! non-test `with_rank(…)` or `with_rank_indexed(…)` call. The
//! struct-literal field the call initializes gets the rank its first
//! argument names, sharded exactly when it is built `_indexed`; a rank
//! name `lock_order` does not declare is a finding, and a call that
//! initializes no field is skipped. A field name resolves throughout the
//! crate that constructs it, unless that crate constructs the name at two
//! ranks (`shards` in `core` and in `policy`): then it resolves only
//! inside each constructing file's module (see [`in_scope`]).
//! [`lint_source`] reads the constructors of its one file. A receiver the
//! table does not name is unchecked here.

use std::collections::HashMap;
use std::fmt;

use parking_lot::lock_order::{rank_name, NAMES};

// ---------------------------------------------------------------------------
// Findings
// ---------------------------------------------------------------------------

/// Which analysis produced a finding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Pass {
    LockHierarchy,
    GuardAcrossIo,
    PanicFreedom,
    AckedLogged,
    UnreachedModule,
    /// A malformed suppression comment (empty reason, unknown pass).
    BadAllow,
}

impl Pass {
    /// The slug used in `pesos-lint: allow(<slug>, "...")` comments.
    pub fn slug(self) -> &'static str {
        match self {
            Pass::LockHierarchy => "lock_hierarchy",
            Pass::GuardAcrossIo => "guard_across_io",
            Pass::PanicFreedom => "panic_freedom",
            Pass::AckedLogged => "acked_logged",
            Pass::UnreachedModule => "unreached_module",
            Pass::BadAllow => "bad_allow",
        }
    }

    fn from_slug(slug: &str) -> Option<Pass> {
        Some(match slug {
            "lock_hierarchy" => Pass::LockHierarchy,
            "guard_across_io" => Pass::GuardAcrossIo,
            "panic_freedom" => Pass::PanicFreedom,
            "acked_logged" => Pass::AckedLogged,
            "unreached_module" => Pass::UnreachedModule,
            _ => return None,
        })
    }
}

impl fmt::Display for Pass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.slug())
    }
}

/// One reported violation.
#[derive(Debug, Clone)]
pub struct Finding {
    pub pass: Pass,
    /// Path as given to [`lint_source`].
    pub file: String,
    /// 1-based line number.
    pub line: u32,
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.pass, self.message
        )
    }
}

// ---------------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Ident,
    Number,
    Str,
    CharLit,
    Lifetime,
    Punct,
    Comment,
}

#[derive(Debug, Clone)]
struct Token {
    kind: Kind,
    text: String,
    line: u32,
}

/// Tokenises Rust source. Comments are retained (the directives live in
/// them); string/char/raw-string/byte-string contents are opaque single
/// tokens so nothing inside them can pattern-match; `'a` lifetimes are
/// distinguished from `'a'` char literals; block comments nest.
fn lex(source: &str) -> Vec<Token> {
    let bytes = source.as_bytes();
    let mut tokens = Vec::new();
    let mut i = 0usize;
    let mut line = 1u32;
    let n = bytes.len();

    let count_lines = |s: &[u8]| s.iter().filter(|&&b| b == b'\n').count() as u32;

    while i < n {
        let b = bytes[i];
        match b {
            b'\n' => {
                line += 1;
                i += 1;
            }
            b' ' | b'\t' | b'\r' => i += 1,
            b'/' if i + 1 < n && bytes[i + 1] == b'/' => {
                let start = i;
                while i < n && bytes[i] != b'\n' {
                    i += 1;
                }
                tokens.push(Token {
                    kind: Kind::Comment,
                    text: source[start..i].to_string(),
                    line,
                });
            }
            b'/' if i + 1 < n && bytes[i + 1] == b'*' => {
                let start = i;
                let start_line = line;
                let mut depth = 1;
                i += 2;
                while i < n && depth > 0 {
                    if bytes[i] == b'\n' {
                        line += 1;
                        i += 1;
                    } else if bytes[i] == b'/' && i + 1 < n && bytes[i + 1] == b'*' {
                        depth += 1;
                        i += 2;
                    } else if bytes[i] == b'*' && i + 1 < n && bytes[i + 1] == b'/' {
                        depth -= 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
                tokens.push(Token {
                    kind: Kind::Comment,
                    text: source[start..i].to_string(),
                    line: start_line,
                });
            }
            b'"' => {
                let start = i;
                let start_line = line;
                i += 1;
                while i < n {
                    match bytes[i] {
                        b'\\' => {
                            // A `\` line-continuation escapes the newline;
                            // it still has to be counted.
                            if i + 1 < n && bytes[i + 1] == b'\n' {
                                line += 1;
                            }
                            i += 2;
                        }
                        b'"' => {
                            i += 1;
                            break;
                        }
                        b'\n' => {
                            line += 1;
                            i += 1;
                        }
                        _ => i += 1,
                    }
                }
                tokens.push(Token {
                    kind: Kind::Str,
                    text: source[start..i.min(n)].to_string(),
                    line: start_line,
                });
            }
            b'r' | b'b' if is_raw_or_byte_string(bytes, i) => {
                let start = i;
                let start_line = line;
                // Skip the prefix letters.
                while i < n && (bytes[i] == b'r' || bytes[i] == b'b') {
                    i += 1;
                }
                if i < n && bytes[i] == b'\'' {
                    // Byte char literal b'x'.
                    i += 1;
                    if i < n && bytes[i] == b'\\' {
                        i += 1;
                    }
                    while i < n && bytes[i] != b'\'' {
                        i += 1;
                    }
                    i += 1;
                    tokens.push(Token {
                        kind: Kind::CharLit,
                        text: source[start..i.min(n)].to_string(),
                        line: start_line,
                    });
                } else {
                    let mut hashes = 0usize;
                    while i < n && bytes[i] == b'#' {
                        hashes += 1;
                        i += 1;
                    }
                    debug_assert!(i < n && bytes[i] == b'"');
                    i += 1; // opening quote
                    let raw = hashes > 0 || source[start..i].contains('r');
                    loop {
                        if i >= n {
                            break;
                        }
                        // Escaped newlines need no counting here: this
                        // branch tallies every newline post-hoc via
                        // `count_lines` over the whole literal.
                        if !raw && bytes[i] == b'\\' {
                            i += 2;
                            continue;
                        }
                        if bytes[i] == b'"' {
                            let mut j = i + 1;
                            let mut seen = 0usize;
                            while j < n && bytes[j] == b'#' && seen < hashes {
                                seen += 1;
                                j += 1;
                            }
                            if seen == hashes {
                                i = j;
                                break;
                            }
                        }
                        i += 1;
                    }
                    let text = &source[start..i.min(n)];
                    line += count_lines(text.as_bytes());
                    tokens.push(Token {
                        kind: Kind::Str,
                        text: text.to_string(),
                        line: start_line,
                    });
                }
            }
            b'\'' => {
                // Lifetime ('a) or char literal ('a', '\n', '\'').
                let start = i;
                if i + 1 < n
                    && (bytes[i + 1].is_ascii_alphabetic() || bytes[i + 1] == b'_')
                    && !(i + 2 < n && bytes[i + 2] == b'\'')
                {
                    i += 1;
                    while i < n && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                        i += 1;
                    }
                    tokens.push(Token {
                        kind: Kind::Lifetime,
                        text: source[start..i].to_string(),
                        line,
                    });
                } else {
                    i += 1;
                    if i < n && bytes[i] == b'\\' {
                        i += 2;
                        while i < n && bytes[i] != b'\'' {
                            i += 1;
                        }
                    } else {
                        while i < n && bytes[i] != b'\'' {
                            if bytes[i] == b'\n' {
                                line += 1;
                            }
                            i += 1;
                        }
                    }
                    i += 1;
                    tokens.push(Token {
                        kind: Kind::CharLit,
                        text: source[start..i.min(n)].to_string(),
                        line,
                    });
                }
            }
            b'0'..=b'9' => {
                let start = i;
                while i < n
                    && (bytes[i].is_ascii_alphanumeric()
                        || bytes[i] == b'_'
                        || (bytes[i] == b'.'
                            && i + 1 < n
                            && bytes[i + 1].is_ascii_digit()
                            && !source[start..i].contains('.')))
                {
                    i += 1;
                }
                tokens.push(Token {
                    kind: Kind::Number,
                    text: source[start..i].to_string(),
                    line,
                });
            }
            b if b.is_ascii_alphabetic() || b == b'_' => {
                let start = i;
                while i < n && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                    i += 1;
                }
                tokens.push(Token {
                    kind: Kind::Ident,
                    text: source[start..i].to_string(),
                    line,
                });
            }
            _ => {
                // Compound punctuation the passes care about; everything
                // else is a single-character punct.
                let two = if i + 1 < n { &source[i..i + 2] } else { "" };
                let text = match two {
                    "=>" | "->" | "::" | ".." => {
                        i += 2;
                        two.to_string()
                    }
                    _ => {
                        i += 1;
                        source[i - 1..i].to_string()
                    }
                };
                tokens.push(Token {
                    kind: Kind::Punct,
                    text,
                    line,
                });
            }
        }
    }
    tokens
}

fn is_raw_or_byte_string(bytes: &[u8], i: usize) -> bool {
    // r"...", r#"..."#, b"...", br"...", rb-prefixes, b'x'
    let n = bytes.len();
    let mut j = i;
    while j < n && (bytes[j] == b'r' || bytes[j] == b'b') && j - i < 2 {
        j += 1;
    }
    if j == i || j >= n {
        return false;
    }
    bytes[j] == b'"' || bytes[j] == b'#' || (bytes[i] == b'b' && bytes[j] == b'\'')
}

// ---------------------------------------------------------------------------
// Directives (allow / invariant comments)
// ---------------------------------------------------------------------------

#[derive(Debug)]
enum Directive {
    Allow { pass: String, reason: String },
    Invariant { name: String },
}

/// Parses a `pesos-lint:` directive out of a comment, if present.
///
/// Grammar (whitespace-tolerant):
///
/// ```text
/// directive  := "pesos-lint:" ( allow | invariant )
/// allow      := "allow(" slug "," '"' reason '"' ")"
/// invariant  := "invariant(" name ")"
/// slug       := lock_hierarchy | guard_across_io | panic_freedom | acked_logged
///             | unreached_module
/// ```
fn parse_directive(comment: &str) -> Option<Directive> {
    let idx = comment.find("pesos-lint:")?;
    let rest = comment[idx + "pesos-lint:".len()..].trim_start();
    if let Some(args) = rest.strip_prefix("allow") {
        let args = args.trim_start();
        let inner = args.strip_prefix('(')?;
        let close = inner.rfind(')')?;
        let inner = &inner[..close];
        let (slug, reason) = match inner.find(',') {
            Some(comma) => (inner[..comma].trim(), inner[comma + 1..].trim()),
            None => (inner.trim(), ""),
        };
        let reason = reason
            .strip_prefix('"')
            .and_then(|r| r.strip_suffix('"'))
            .unwrap_or("")
            .trim();
        return Some(Directive::Allow {
            pass: slug.to_string(),
            reason: reason.to_string(),
        });
    }
    if let Some(args) = rest.strip_prefix("invariant") {
        let inner = args.trim_start().strip_prefix('(')?;
        // `find`, not `rfind`: invariant names carry no parentheses, and
        // trailing comment text after the directive may contain some.
        let close = inner.find(')')?;
        return Some(Directive::Invariant {
            name: inner[..close].trim().to_string(),
        });
    }
    None
}

// ---------------------------------------------------------------------------
// The lock-rank table, read from the constructors
// ---------------------------------------------------------------------------

/// The rank a `with_rank` constructor gives a lock field, and whether the
/// family is sharded (built `with_rank_indexed`: same-rank nesting legal
/// only with ordered indices, which a lexical pass cannot prove — so
/// same-family nesting is always reported and must be allow-annotated
/// where the indices are provably ordered).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Family {
    rank: u16,
    sharded: bool,
}

/// One constructor site: the struct-literal field a `with_rank` call
/// initializes, in `file`.
struct RankSite {
    file: String,
    field: String,
    family: Family,
}

/// Field name → family, derived from the constructor sites of the files
/// given to [`RankTable::add_file`].
#[derive(Default)]
struct RankTable {
    sites: Vec<RankSite>,
}

impl RankTable {
    /// Reads every non-test `with_rank(…)`/`with_rank_indexed(…)` call of
    /// one file. A rank name `lock_order` does not declare is a finding; a
    /// call that initializes no struct-literal field is skipped.
    fn add_file(&mut self, file: &str, tokens: &[Token], findings: &mut Vec<Finding>) {
        let mask = test_code_mask(tokens);
        let sig: Vec<usize> = (0..tokens.len())
            .filter(|&i| tokens[i].kind != Kind::Comment)
            .collect();
        let text = |s: usize| sig.get(s).map_or("", |&i| tokens[i].text.as_str());
        for s in 1..sig.len() {
            let call = text(s);
            if !matches!(call, "with_rank" | "with_rank_indexed")
                || text(s - 1) != "::"
                || text(s + 1) != "("
                || mask[sig[s]]
            {
                continue;
            }
            // The rank is the last segment of the first argument's path.
            let mut rank_at = s + 2;
            while text(rank_at + 1) == "::" {
                rank_at += 2;
            }
            let rank_ident = text(rank_at);
            let Some(&(rank, _)) = NAMES.iter().find(|(_, name)| *name == rank_ident) else {
                findings.push(Finding {
                    pass: Pass::LockHierarchy,
                    file: file.to_string(),
                    line: tokens[sig[s]].line,
                    message: format!(
                        "{call}() names rank `{rank_ident}`, which lock_order does not declare"
                    ),
                });
                continue;
            };
            if let Some(field) = initialized_field(&sig, tokens, s) {
                self.sites.push(RankSite {
                    file: file.to_string(),
                    field,
                    family: Family {
                        rank,
                        sharded: call == "with_rank_indexed",
                    },
                });
            }
        }
    }

    /// The family a receiver ident names in `file`. A field resolves
    /// throughout the crate that constructs it; a name that crate
    /// constructs at two ranks resolves only in each constructing file's
    /// module.
    fn family(&self, file: &str, ident: &str) -> Option<Family> {
        let sites: Vec<&RankSite> = self
            .sites
            .iter()
            .filter(|site| site.field == ident && crate_of(&site.file) == crate_of(file))
            .collect();
        let first = sites.first()?;
        if sites.iter().all(|site| site.family == first.family) {
            return Some(first.family);
        }
        sites
            .iter()
            .find(|site| in_scope(file, &site.file))
            .map(|site| site.family)
    }
}

/// `crates/<name>` for a file under `crates/<name>/src/`; a file outside
/// any `src/` tree is a crate of its own.
fn crate_of(file: &str) -> &str {
    file.split_once("/src/").map_or(file, |(krate, _)| krate)
}

/// Whether `file` belongs to the module whose root file is `scope`: that
/// file itself or any file of the module's directory —
/// `cluster/src/cluster.rs` also scopes `cluster/src/cluster/migration.rs`,
/// so splitting a module into sub-modules cannot silently unrank its locks.
fn in_scope(file: &str, scope: &str) -> bool {
    let directory = scope.strip_suffix(".rs").unwrap_or(scope);
    file == scope || file.starts_with(&format!("{directory}/"))
}

/// The struct-literal field whose initializer holds the call at `call`:
/// walks back out of the groups that wrap it (`migration_locks:
/// Arc::new(Sharded::new_indexed(n, |i| Mutex::with_rank_indexed(…)))`)
/// to the `field:` that opens the expression. `None` when the call
/// initializes no field (a `let`, a static, a closure handed to a method).
fn initialized_field(sig: &[usize], tokens: &[Token], call: usize) -> Option<String> {
    let text = |s: usize| tokens[sig[s]].text.as_str();
    let mut s = call;
    while s > 0 {
        s -= 1;
        match text(s) {
            ")" | "]" | "}" => s = matching_open(sig, tokens, s),
            // A closure body is part of the expression; any other block
            // (a function body, a match arm) ends the search.
            "{" if s == 0 || text(s - 1) != "|" => return None,
            ";" | "=" | "=>" => return None,
            ":" if s >= 2
                && tokens[sig[s - 1]].kind == Kind::Ident
                && matches!(text(s - 2), "{" | ",") =>
            {
                return Some(text(s - 1).to_string());
            }
            _ => {}
        }
    }
    None
}

/// The position of the bracket that opens the group `close` ends.
fn matching_open(sig: &[usize], tokens: &[Token], close: usize) -> usize {
    let close_text = tokens[sig[close]].text.as_str();
    let open_text = match close_text {
        ")" => "(",
        "]" => "[",
        _ => "{",
    };
    let mut depth = 1usize;
    let mut s = close;
    while s > 0 && depth > 0 {
        s -= 1;
        let t = tokens[sig[s]].text.as_str();
        if t == close_text {
            depth += 1;
        } else if t == open_text {
            depth -= 1;
        }
    }
    s
}

/// Method names that submit drive I/O and park on completion.
const IO_CALLS: &[&str] = &[
    "submit",
    "submit_batch",
    "submit_joined",
    "handle_envelope",
    "exchange",
];

// ---------------------------------------------------------------------------
// Analysis
// ---------------------------------------------------------------------------

struct Allows {
    /// pass slug -> lines on which findings of that pass are suppressed.
    lines: HashMap<Pass, Vec<u32>>,
}

impl Allows {
    fn permits(&self, pass: Pass, line: u32) -> bool {
        self.lines
            .get(&pass)
            .is_some_and(|lines| lines.contains(&line))
    }
}

/// Collects allow directives and reports malformed ones.
fn collect_allows(file: &str, tokens: &[Token], findings: &mut Vec<Finding>) -> Allows {
    let mut lines: HashMap<Pass, Vec<u32>> = HashMap::new();
    for (i, token) in tokens.iter().enumerate() {
        if token.kind != Kind::Comment {
            continue;
        }
        let Some(Directive::Allow { pass, reason }) = parse_directive(&token.text) else {
            continue;
        };
        let Some(pass) = Pass::from_slug(&pass) else {
            findings.push(Finding {
                pass: Pass::BadAllow,
                file: file.to_string(),
                line: token.line,
                message: format!("allow names unknown pass `{pass}`"),
            });
            continue;
        };
        if reason.is_empty() {
            findings.push(Finding {
                pass: Pass::BadAllow,
                file: file.to_string(),
                line: token.line,
                message: format!(
                    "allow({}) carries no reason; suppressions must say why",
                    pass.slug()
                ),
            });
            continue;
        }
        // Trailing on a code line -> applies to that line. Standalone ->
        // applies to the next significant token's line.
        let standalone = !tokens[..i]
            .iter()
            .rev()
            .take_while(|t| t.line == token.line)
            .any(|t| t.kind != Kind::Comment);
        let applies_to = if standalone {
            tokens[i + 1..]
                .iter()
                .find(|t| t.kind != Kind::Comment)
                .map(|t| t.line)
        } else {
            Some(token.line)
        };
        if let Some(line) = applies_to {
            lines.entry(pass).or_default().push(line);
        }
    }
    Allows { lines }
}

/// Marks every token inside `#[cfg(test)]` / `#[test]` items, so the
/// panic-freedom pass skips test code. A file that opens with the inner
/// attribute `#![cfg(test)]` — a test module moved out of its parent's
/// file, where the outer attribute stays behind on the `mod` line — is
/// test code throughout.
fn test_code_mask(tokens: &[Token]) -> Vec<bool> {
    let mut mask = vec![false; tokens.len()];
    let sig: Vec<usize> = (0..tokens.len())
        .filter(|&i| tokens[i].kind != Kind::Comment)
        .collect();
    let opening: Vec<&str> = sig
        .iter()
        .take(8)
        .map(|&i| tokens[i].text.as_str())
        .collect();
    if opening == ["#", "!", "[", "cfg", "(", "test", ")", "]"] {
        return vec![true; tokens.len()];
    }
    let mut s = 0usize;
    while s < sig.len() {
        let i = sig[s];
        let is_attr_open =
            tokens[i].text == "#" && s + 1 < sig.len() && tokens[sig[s + 1]].text == "[";
        if !is_attr_open {
            s += 1;
            continue;
        }
        // Collect the attribute tokens up to the matching `]`.
        let mut depth = 0usize;
        let mut t = s + 1;
        let mut attr_text = String::new();
        while t < sig.len() {
            let tok = &tokens[sig[t]];
            if tok.text == "[" {
                depth += 1;
            } else if tok.text == "]" {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            } else {
                attr_text.push_str(&tok.text);
                attr_text.push(' ');
            }
            t += 1;
        }
        let is_test_attr = attr_text.contains("cfg ( test )")
            || attr_text.trim() == "test"
            || attr_text.starts_with("test ");
        if !is_test_attr {
            s = t + 1;
            continue;
        }
        // Skip any further attributes, then the item: everything through
        // its balanced `{ ... }` (or to the terminating `;`).
        let mut u = t + 1;
        while u + 1 < sig.len() && tokens[sig[u]].text == "#" && tokens[sig[u + 1]].text == "[" {
            let mut d = 0usize;
            let mut v = u + 1;
            while v < sig.len() {
                if tokens[sig[v]].text == "[" {
                    d += 1;
                } else if tokens[sig[v]].text == "]" {
                    d -= 1;
                    if d == 0 {
                        break;
                    }
                }
                v += 1;
            }
            u = v + 1;
        }
        let mut brace = 0usize;
        let mut entered = false;
        let start_tok = i;
        let mut end_tok = tokens.len() - 1;
        let mut v = u;
        while v < sig.len() {
            let tok = &tokens[sig[v]];
            if tok.text == "{" {
                brace += 1;
                entered = true;
            } else if tok.text == "}" {
                brace = brace.saturating_sub(1);
                if entered && brace == 0 {
                    end_tok = sig[v];
                    break;
                }
            } else if tok.text == ";" && !entered {
                end_tok = sig[v];
                break;
            }
            v += 1;
        }
        for m in mask.iter_mut().take(end_tok + 1).skip(start_tok) {
            *m = true;
        }
        s = v + 1;
    }
    mask
}

/// A lock guard the analyzer currently considers live.
#[derive(Debug)]
struct LiveGuard {
    family: Option<Family>,
    /// Receiver ident (for messages) or bound variable name.
    label: String,
    /// Binding name when `let`-bound (killable by `drop(name)`).
    bound_name: Option<String>,
    /// Brace depth at which the guard dies (`let`-bound: its block;
    /// temporary: the statement's enclosing block).
    depth: usize,
    /// Temporaries die at the next `;` at their depth.
    temp: bool,
    line: u32,
}

/// Lexical lock analysis: lock-hierarchy (pass 1) and guard-across-I/O
/// (pass 2) over one file.
fn lock_passes(
    file: &str,
    tokens: &[Token],
    table: &RankTable,
    allows: &Allows,
    findings: &mut Vec<Finding>,
) {
    let sig: Vec<usize> = (0..tokens.len())
        .filter(|&i| tokens[i].kind != Kind::Comment)
        .collect();
    let tok = |s: usize| -> &Token { &tokens[sig[s]] };

    let mut guards: Vec<LiveGuard> = Vec::new();
    let mut brace_depth = 0usize;
    let mut paren_depth = 0usize;
    let mut bracket_depth = 0usize;
    let mut stmt_let_name: Option<String> = None;
    let mut stmt_seen_let = false;
    // `let x = *recv.lock();` binds the deref-copied value, not the
    // guard — the guard is a statement temporary.
    let mut stmt_deref_init = false;
    // A plain `if`/`while` condition is a terminating scope: its
    // temporaries drop before the block runs. (`if let` / `while let`
    // scrutinee temporaries live to the end of the whole expression in
    // edition 2021, so those do NOT set this.)
    let mut cond_start: Option<usize> = None;

    let mut s = 0usize;
    while s < sig.len() {
        let t = tok(s);
        match t.text.as_str() {
            "{" => {
                if paren_depth == 0 && cond_start == Some(brace_depth) {
                    // End of a plain `if`/`while` condition: its
                    // temporaries drop before the block is entered.
                    guards.retain(|g| !(g.temp && g.depth == brace_depth));
                    cond_start = None;
                }
                brace_depth += 1;
                s += 1;
                continue;
            }
            "}" => {
                brace_depth = brace_depth.saturating_sub(1);
                guards.retain(|g| g.depth <= brace_depth);
                stmt_seen_let = false;
                stmt_let_name = None;
                stmt_deref_init = false;
                s += 1;
                continue;
            }
            "(" => {
                paren_depth += 1;
                s += 1;
                continue;
            }
            ")" => {
                paren_depth = paren_depth.saturating_sub(1);
                s += 1;
                continue;
            }
            "[" => {
                bracket_depth += 1;
                s += 1;
                continue;
            }
            "]" => {
                bracket_depth = bracket_depth.saturating_sub(1);
                s += 1;
                continue;
            }
            ";" if paren_depth == 0 && bracket_depth == 0 => {
                guards.retain(|g| !(g.temp && g.depth == brace_depth));
                stmt_seen_let = false;
                stmt_let_name = None;
                stmt_deref_init = false;
                s += 1;
                continue;
            }
            "if" | "while" if t.kind == Kind::Ident && paren_depth == 0 => {
                let next_is_let = s + 1 < sig.len() && tok(s + 1).text == "let";
                if !next_is_let {
                    cond_start = Some(brace_depth);
                }
                s += 1;
                continue;
            }
            "=" if paren_depth == 0 && bracket_depth == 0 && stmt_seen_let => {
                if s + 1 < sig.len() && tok(s + 1).text == "*" {
                    stmt_deref_init = true;
                }
                s += 1;
                continue;
            }
            "let" if t.kind == Kind::Ident && paren_depth == 0 => {
                stmt_seen_let = true;
                // Binding name: first ident after `let` (skipping `mut`).
                let mut u = s + 1;
                while u < sig.len() && tok(u).text == "mut" {
                    u += 1;
                }
                if u < sig.len() && tok(u).kind == Kind::Ident {
                    stmt_let_name = Some(tok(u).text.clone());
                }
                s += 1;
                continue;
            }
            "drop" if t.kind == Kind::Ident => {
                // drop(name) releases a bound guard early.
                if s + 2 < sig.len() && tok(s + 1).text == "(" && tok(s + 2).kind == Kind::Ident {
                    let name = tok(s + 2).text.clone();
                    if s + 3 < sig.len() && tok(s + 3).text == ")" {
                        guards.retain(|g| g.bound_name.as_deref() != Some(name.as_str()));
                    }
                }
                s += 1;
                continue;
            }
            _ => {}
        }

        // Acquisition: `.lock()` / `.read()` / `.write()` with no args.
        let is_acquire = t.kind == Kind::Ident
            && matches!(t.text.as_str(), "lock" | "read" | "write")
            && s >= 1
            && tok(s - 1).text == "."
            && s + 2 < sig.len()
            && tok(s + 1).text == "("
            && tok(s + 2).text == ")";
        if is_acquire {
            let receiver = receiver_idents(&sig, tokens, s - 1);
            let family = receiver.iter().find_map(|ident| table.family(file, ident));
            if let Some(new) = family {
                for held in &guards {
                    let Some(old) = held.family else { continue };
                    let inverted = old.rank > new.rank;
                    let same_family = old.rank == new.rank;
                    if (inverted || same_family) && !allows.permits(Pass::LockHierarchy, t.line) {
                        let message = if inverted {
                            format!(
                                "acquires {}({}) while holding {}({}) from line {}: inverts the declared lock hierarchy",
                                rank_name(new.rank), new.rank, rank_name(old.rank), old.rank, held.line
                            )
                        } else if new.sharded {
                            format!(
                                "nests two {} locks (line {} and here); sharded families may nest only with ordered indices",
                                rank_name(new.rank), held.line
                            )
                        } else {
                            format!(
                                "reacquires {} while already holding it (line {}); self-deadlock",
                                rank_name(new.rank),
                                held.line
                            )
                        };
                        findings.push(Finding {
                            pass: Pass::LockHierarchy,
                            file: file.to_string(),
                            line: t.line,
                            message,
                        });
                    }
                }
            }
            // Record the guard. `let`-bound iff the statement began with
            // `let` and the call is the end of the initializer.
            let after = s + 3;
            let is_final = after >= sig.len() || tok(after).text == ";";
            let bound = stmt_seen_let && is_final && !stmt_deref_init;
            guards.push(LiveGuard {
                family,
                label: receiver.first().cloned().unwrap_or_default(),
                bound_name: if bound { stmt_let_name.clone() } else { None },
                depth: brace_depth,
                temp: !bound,
                line: t.line,
            });
            s += 3;
            continue;
        }

        // I/O submission with a live guard.
        let is_io = t.kind == Kind::Ident
            && IO_CALLS.contains(&t.text.as_str())
            && s >= 1
            && tok(s - 1).text == "."
            && s + 1 < sig.len()
            && tok(s + 1).text == "(";
        if is_io {
            for held in &guards {
                if allows.permits(Pass::GuardAcrossIo, t.line) {
                    break;
                }
                let family = held
                    .family
                    .map(|f| rank_name(f.rank).to_string())
                    .unwrap_or_else(|| format!("`{}`", held.label));
                findings.push(Finding {
                    pass: Pass::GuardAcrossIo,
                    file: file.to_string(),
                    line: t.line,
                    message: format!(
                        "calls {}() while a {} guard from line {} is live; no lock may be held across drive I/O",
                        t.text, family, held.line
                    ),
                });
            }
        }
        s += 1;
    }
}

/// Walks backwards from the `.` before an acquisition and collects the
/// receiver chain's idents, nearest first (`self.a.b.get(k).lock()` ->
/// `["get", "b", "a", "self"]`), skipping balanced call parentheses and
/// index brackets.
fn receiver_idents(sig: &[usize], tokens: &[Token], dot: usize) -> Vec<String> {
    let mut idents = Vec::new();
    let mut s = dot; // points at the `.`
    loop {
        if s == 0 {
            break;
        }
        s -= 1; // token before the dot
        let t = &tokens[sig[s]];
        match t.text.as_str() {
            ")" | "]" => {
                s = matching_open(sig, tokens, s);
                continue; // the token before the open paren is next
            }
            _ if t.kind == Kind::Ident => {
                idents.push(t.text.clone());
                if s == 0 || tokens[sig[s - 1]].text != "." {
                    break;
                }
                s -= 1; // consume the `.` and continue up the chain
                continue;
            }
            _ => break,
        }
    }
    idents
}

/// Panic-freedom (pass 3): `unwrap()`, `expect(`, `panic!`, and
/// slice-indexing outside test code.
fn panic_freedom_pass(file: &str, tokens: &[Token], allows: &Allows, findings: &mut Vec<Finding>) {
    let mask = test_code_mask(tokens);
    let sig: Vec<usize> = (0..tokens.len())
        .filter(|&i| tokens[i].kind != Kind::Comment)
        .collect();
    let mut report = |line: u32, message: String| {
        if !allows.permits(Pass::PanicFreedom, line) {
            findings.push(Finding {
                pass: Pass::PanicFreedom,
                file: file.to_string(),
                line,
                message,
            });
        }
    };
    for (s, &i) in sig.iter().enumerate() {
        if mask[i] {
            continue;
        }
        let t = &tokens[i];
        let next = |k: usize| sig.get(s + k).map(|&j| &tokens[j]);
        let prev = |k: usize| s.checked_sub(k).map(|p| &tokens[sig[p]]);
        match t.text.as_str() {
            "unwrap" | "expect" if t.kind == Kind::Ident => {
                // `.expect(` counts only with a string-literal argument:
                // `Option::expect`/`Result::expect` take a `&str` message,
                // while same-named fallible helpers (e.g. a parser's
                // `self.expect(&Token::RParen)?`) take other arguments.
                let arg_ok = t.text == "unwrap" || next(2).is_some_and(|a| a.kind == Kind::Str);
                if prev(1).is_some_and(|p| p.text == ".")
                    && next(1).is_some_and(|n| n.text == "(")
                    && arg_ok
                {
                    report(
                        t.line,
                        format!(
                            ".{}() can panic; return a typed PesosError on the request path",
                            t.text
                        ),
                    );
                }
            }
            "panic" if t.kind == Kind::Ident && next(1).is_some_and(|n| n.text == "!") => {
                report(
                    t.line,
                    "panic! aborts the (logical) enclave; return a typed PesosError".into(),
                );
            }
            "[" => {
                // Slice/array indexing: `expr[...]` — the token before the
                // bracket ends an expression (ident, `)`, `]`, or a number)
                // and is not a keyword that puts the bracket in type or
                // pattern position (`pub [u8; 32]`, `dyn [..]`, …).
                let Some(p) = prev(1) else { continue };
                let is_index_base = matches!(p.kind, Kind::Ident | Kind::Number)
                    && !matches!(
                        p.text.as_str(),
                        "let"
                            | "mut"
                            | "ref"
                            | "in"
                            | "return"
                            | "box"
                            | "match"
                            | "else"
                            | "pub"
                            | "const"
                            | "static"
                            | "dyn"
                            | "impl"
                            | "as"
                            | "move"
                            | "async"
                            | "unsafe"
                            | "where"
                            | "crate"
                            | "fn"
                    )
                    || p.text == ")"
                    || p.text == "]";
                // Full-range `expr[..]` cannot panic.
                let full_range = next(1).is_some_and(|a| a.text == "..")
                    && next(2).is_some_and(|b| b.text == "]");
                if is_index_base && !full_range {
                    report(
                        t.line,
                        "slice indexing can panic; use get()/split-at-checked or annotate why the bound holds"
                            .into(),
                    );
                }
            }
            _ => {}
        }
    }
}

/// acked ⇒ logged (pass 4): every `Ok(...)` an invariant-marked handler
/// can return must be preceded (lexically) by a replication-log append.
fn acked_logged_pass(file: &str, tokens: &[Token], allows: &Allows, findings: &mut Vec<Finding>) {
    // Find invariant markers and the function bodies that follow them.
    for (i, token) in tokens.iter().enumerate() {
        if token.kind != Kind::Comment {
            continue;
        }
        let Some(Directive::Invariant { name }) = parse_directive(&token.text) else {
            continue;
        };
        if name != "acked_logged" {
            findings.push(Finding {
                pass: Pass::BadAllow,
                file: file.to_string(),
                line: token.line,
                message: format!("unknown invariant `{name}`"),
            });
            continue;
        }
        let sig: Vec<usize> = (i + 1..tokens.len())
            .filter(|&j| tokens[j].kind != Kind::Comment)
            .collect();
        // Locate `fn name ... {` then the balanced body.
        let Some(fn_pos) = sig
            .iter()
            .position(|&j| tokens[j].kind == Kind::Ident && tokens[j].text == "fn")
        else {
            continue;
        };
        let fn_name = sig
            .get(fn_pos + 1)
            .map(|&j| tokens[j].text.clone())
            .unwrap_or_default();
        let Some(body_open) = sig[fn_pos..]
            .iter()
            .position(|&j| tokens[j].text == "{")
            .map(|p| p + fn_pos)
        else {
            continue;
        };
        let mut depth = 0usize;
        let mut body_close = sig.len() - 1;
        for (p, &j) in sig.iter().enumerate().skip(body_open) {
            match tokens[j].text.as_str() {
                "{" => depth += 1,
                "}" => {
                    depth -= 1;
                    if depth == 0 {
                        body_close = p;
                        break;
                    }
                }
                _ => {}
            }
        }
        let body = &sig[body_open..=body_close];

        // Append sites: `.append(...)`.
        let append_positions: Vec<usize> = body
            .iter()
            .enumerate()
            .filter(|&(p, &j)| {
                let t = &tokens[j];
                t.kind == Kind::Ident
                    && t.text == "append"
                    && p > 0
                    && tokens[body[p - 1]].text == "."
            })
            .map(|(p, _)| p)
            .collect();

        // Ack sites: expression-position `Ok(...)`.
        for (p, &j) in body.iter().enumerate() {
            let t = &tokens[j];
            if t.kind != Kind::Ident || t.text != "Ok" {
                continue;
            }
            if body.get(p + 1).map(|&k| tokens[k].text.as_str()) != Some("(") {
                continue;
            }
            let prev_ok = p == 0
                || matches!(
                    tokens[body[p - 1]].text.as_str(),
                    ";" | "{" | "}" | "=>" | "return" | "," | "="
                );
            if !prev_ok {
                continue;
            }
            // Skip match *patterns*: after the balanced close paren the
            // next token is `=>` or `|`.
            let mut depth = 0usize;
            let mut close = p + 1;
            for (q, &k) in body.iter().enumerate().skip(p + 1) {
                match tokens[k].text.as_str() {
                    "(" => depth += 1,
                    ")" => {
                        depth -= 1;
                        if depth == 0 {
                            close = q;
                            break;
                        }
                    }
                    _ => {}
                }
            }
            if matches!(
                body.get(close + 1).map(|&k| tokens[k].text.as_str()),
                Some("=>") | Some("|")
            ) {
                continue;
            }
            let has_earlier_append = append_positions.iter().any(|&a| a < p);
            if !has_earlier_append && !allows.permits(Pass::AckedLogged, t.line) {
                findings.push(Finding {
                    pass: Pass::AckedLogged,
                    file: file.to_string(),
                    line: t.line,
                    message: format!(
                        "`{fn_name}` acknowledges here without a lexically earlier log append; an acked write must be logged before the ack escapes"
                    ),
                });
            }
        }
    }
}

/// Directories (workspace-relative) whose `.rs` files count as users in
/// the unreached-module census.
const CENSUS_DIRS: &[&str] = &[
    "crates",
    "src",
    "tests",
    "examples",
    "benchmark/src",
    "benchmark/tests",
];

/// The non-comment tokens of a file, each with its brace depth.
fn with_depth(tokens: &[Token]) -> Vec<(usize, &Token)> {
    let mut depth = 0usize;
    let mut out = Vec::new();
    for t in tokens.iter().filter(|t| t.kind != Kind::Comment) {
        if t.text == "}" {
            depth = depth.saturating_sub(1);
        }
        out.push((depth, t));
        if t.text == "{" {
            depth += 1;
        }
    }
    out
}

/// Names of the top-level `pub` types, traits, consts, statics and free
/// functions of a module file (`pub(crate)` and narrower are skipped).
fn public_names(tokens: &[Token]) -> Vec<String> {
    let sig = with_depth(tokens);
    let text = |i: usize| sig.get(i).map_or("", |(_, t)| t.text.as_str());
    let mut names = Vec::new();
    for i in 0..sig.len() {
        if sig[i].0 != 0 || text(i) != "pub" || text(i + 1) == "(" {
            continue;
        }
        // `pub const fn f` / `pub unsafe fn f` name a function; `pub
        // const N` names a constant.
        let mut j = i + 1;
        while matches!(text(j), "const" | "unsafe" | "async")
            && matches!(text(j + 1), "fn" | "unsafe" | "async")
        {
            j += 1;
        }
        let is_item = matches!(
            text(j),
            "struct" | "enum" | "union" | "type" | "trait" | "const" | "static" | "fn"
        );
        if is_item && sig.get(j + 1).is_some_and(|(_, t)| t.kind == Kind::Ident) {
            names.push(text(j + 1).to_string());
        }
    }
    names
}

/// Unreached-module (pass 5). See the crate docs for the rule.
fn unreached_module_pass(
    root: &std::path::Path,
    findings: &mut Vec<Finding>,
) -> std::io::Result<()> {
    let mut paths = Vec::new();
    for dir in CENSUS_DIRS {
        let dir = root.join(dir);
        if dir.is_dir() {
            collect_rs_files(&dir, &mut paths)?;
        }
    }
    let mut files: Vec<(String, Vec<Token>)> = Vec::new();
    for path in paths {
        files.push((relative(root, &path), lex(&std::fs::read_to_string(&path)?)));
    }
    let lib_of = |krate: &str| format!("crates/{krate}/src/lib.rs");

    // ident (or `ident::` / `qualifier::ident::` for a path prefix) -> files
    // that name it.
    let mut named_in: HashMap<String, Vec<usize>> = HashMap::new();
    for (id, (rel, tokens)) in files.iter().enumerate() {
        let linted_lib = LINTED_CRATES.iter().any(|(k, _)| *rel == lib_of(k));
        let sig = with_depth(tokens);
        let mut in_reexport = false;
        for (i, (_, t)) in sig.iter().enumerate() {
            let next = sig.get(i + 1).map_or("", |(_, n)| n.text.as_str());
            if linted_lib && t.text == "pub" && next == "use" {
                in_reexport = true;
            } else if t.text == ";" {
                in_reexport = false;
            }
            if in_reexport || t.kind != Kind::Ident {
                continue;
            }
            let mut note = |name: String| {
                let seen = named_in.entry(name).or_default();
                if seen.last() != Some(&id) {
                    seen.push(id);
                }
            };
            note(t.text.clone());
            if next == "::" {
                // `crate::m::` and a bare `m::` name this workspace's `m`;
                // `other::m::` is kept apart so that another crate's
                // module of the same name is not a use.
                let qualifier = match i.checked_sub(2).map(|q| sig[q].1) {
                    Some(q) if sig[i - 1].1.text == "::" => q.text.as_str(),
                    _ => "",
                };
                match qualifier {
                    "" | "crate" | "self" | "super" => note(format!("{}::", t.text)),
                    q => note(format!("{q}::{}::", t.text)),
                }
            }
        }
    }

    for (krate, _) in LINTED_CRATES {
        let lib = lib_of(krate);
        let Some((_, lib_tokens)) = files.iter().find(|(rel, _)| *rel == lib) else {
            continue;
        };
        let allows = collect_allows(&lib, lib_tokens, &mut Vec::new());
        let sig = with_depth(lib_tokens);
        for w in sig.windows(4) {
            let [(0, p), (_, m), (_, name), (_, end)] = w else {
                continue;
            };
            if p.text != "pub" || m.text != "mod" || name.kind != Kind::Ident || end.text != ";" {
                continue;
            }
            let module = &name.text;
            let stem = format!("crates/{krate}/src/{module}");
            let own =
                |rel: &str| rel == format!("{stem}.rs") || rel.starts_with(&format!("{stem}/"));
            let root_file = [format!("{stem}.rs"), format!("{stem}/mod.rs")];
            let mut names = vec![
                format!("{module}::"),
                format!("{krate}::{module}::"),
                format!("pesos_{krate}::{module}::"),
            ];
            for (rel, tokens) in &files {
                if root_file.contains(rel) {
                    names.extend(public_names(tokens));
                }
            }
            let reached = names.iter().any(|n| {
                named_in
                    .get(n)
                    .is_some_and(|ids| ids.iter().any(|&id| !own(&files[id].0)))
            });
            if !reached && !allows.permits(Pass::UnreachedModule, name.line) {
                findings.push(Finding {
                    pass: Pass::UnreachedModule,
                    file: lib.clone(),
                    line: name.line,
                    message: format!(
                        "module `{krate}::{module}` is named by nothing outside its own file(s) but a re-export: no request, test, example or benchmark reaches it"
                    ),
                });
            }
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Entry points
// ---------------------------------------------------------------------------

/// Lints one source file, reading lock ranks from its own constructors.
/// `file` is used for path-scoped family lookup and in findings; it
/// should be workspace-relative. `request_path` turns panic-freedom on.
pub fn lint_source(file: &str, source: &str, request_path: bool) -> Vec<Finding> {
    lint_files(&[(file.to_string(), lex(source), request_path)])
}

/// Passes 1–4 over lexed files, each with its crate's request-path flag.
/// Lock ranks are read from the constructors of every file before any
/// file is linted.
fn lint_files(files: &[(String, Vec<Token>, bool)]) -> Vec<Finding> {
    let mut findings = Vec::new();
    let mut table = RankTable::default();
    for (file, tokens, _) in files {
        table.add_file(file, tokens, &mut findings);
    }
    for (file, tokens, request_path) in files {
        let allows = collect_allows(file, tokens, &mut findings);
        lock_passes(file, tokens, &table, &allows, &mut findings);
        if *request_path {
            panic_freedom_pass(file, tokens, &allows, &mut findings);
        }
        acked_logged_pass(file, tokens, &allows, &mut findings);
    }
    findings
        .sort_by(|a, b| (&a.file, a.line, a.pass.slug()).cmp(&(&b.file, b.line, b.pass.slug())));
    findings
}

/// Crates whose `src/` trees are linted, and whether they are on the
/// request path (panic-freedom applies).
pub const LINTED_CRATES: &[(&str, bool)] = &[
    ("core", true),
    ("cluster", true),
    ("kinetic", true),
    ("policy", true),
    ("sgx", true),
    ("telemetry", true),
    ("wire", false),
    ("crypto", false),
    ("ycsb", false),
    ("bench", false),
];

/// Lints every workspace crate under `root` (the directory holding the
/// workspace `Cargo.toml`). Returns findings sorted by file and line.
pub fn lint_workspace(root: &std::path::Path) -> std::io::Result<Vec<Finding>> {
    let mut findings = lint_files(&lex_linted_crates(root)?);
    unreached_module_pass(root, &mut findings)?;
    findings.sort_by_key(|f| (f.file.clone(), f.line));
    Ok(findings)
}

/// Every `.rs` file of the linted crates' `src/` trees, workspace-relative
/// and lexed, with its crate's request-path flag.
fn lex_linted_crates(root: &std::path::Path) -> std::io::Result<Vec<(String, Vec<Token>, bool)>> {
    let mut files = Vec::new();
    for (krate, request_path) in LINTED_CRATES {
        let src = root.join("crates").join(krate).join("src");
        if !src.is_dir() {
            continue;
        }
        let mut paths = Vec::new();
        collect_rs_files(&src, &mut paths)?;
        paths.sort();
        for path in paths {
            let tokens = lex(&std::fs::read_to_string(&path)?);
            files.push((relative(root, &path), tokens, *request_path));
        }
    }
    Ok(files)
}

/// `path` relative to the workspace root, with `/` separators.
fn relative(root: &std::path::Path, path: &std::path::Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}

fn collect_rs_files(
    dir: &std::path::Path,
    out: &mut Vec<std::path::PathBuf>,
) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            collect_rs_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Locates the workspace root by walking up from `start` until a
/// directory containing both `Cargo.toml` and `crates/` is found.
pub fn find_workspace_root(start: &std::path::Path) -> Option<std::path::PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        if dir.join("Cargo.toml").is_file() && dir.join("crates").is_dir() {
            return Some(dir);
        }
        if !dir.pop() {
            return None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lexer_handles_strings_comments_and_lifetimes() {
        let src = r##"
            fn f<'a>(x: &'a str) -> char {
                let _s = "quoted // not a comment [0] .lock()";
                let _r = r#"raw "both" kinds"#;
                let _b = b"bytes";
                let _c = 'x';
                let _e = '\n';
                /* block /* nested */ still comment .unwrap() */
                'y'
            }
        "##;
        let tokens = lex(src);
        assert!(tokens
            .iter()
            .any(|t| t.kind == Kind::Lifetime && t.text == "'a"));
        assert!(tokens
            .iter()
            .any(|t| t.kind == Kind::CharLit && t.text == "'x'"));
        // Nothing inside strings or comments surfaces as idents.
        assert!(!tokens
            .iter()
            .any(|t| t.kind == Kind::Ident && (t.text == "unwrap" || t.text == "lock")));
    }

    #[test]
    fn directive_parsing() {
        match parse_directive("// pesos-lint: allow(panic_freedom, \"bounded by len\")") {
            Some(Directive::Allow { pass, reason }) => {
                assert_eq!(pass, "panic_freedom");
                assert_eq!(reason, "bounded by len");
            }
            other => panic!("unexpected {other:?}"),
        }
        match parse_directive("// pesos-lint: invariant(acked_logged)") {
            Some(Directive::Invariant { name }) => assert_eq!(name, "acked_logged"),
            other => panic!("unexpected {other:?}"),
        }
        assert!(parse_directive("// plain comment").is_none());
    }

    #[test]
    fn receiver_chains_resolve_through_calls_and_indexing() {
        let src = "fn f() { self.shards.get(&key).lock(); }";
        let tokens = lex(src);
        let sig: Vec<usize> = (0..tokens.len())
            .filter(|&i| tokens[i].kind != Kind::Comment)
            .collect();
        let lock_pos = sig.iter().position(|&i| tokens[i].text == "lock").unwrap();
        let idents = receiver_idents(&sig, &tokens, lock_pos - 1);
        assert_eq!(idents, vec!["get", "shards", "self"]);
    }

    #[test]
    fn unranked_receivers_are_unchecked() {
        let src = "fn new() -> S { S { ops_gate: RwLock::with_rank(lock_order::OPS_GATE, ()) } }
                   fn f() { let a = self.mystery.lock(); let b = self.ops_gate.read(); }";
        // `mystery` is unknown -> no hierarchy finding even though a guard
        // is live when ops_gate is taken.
        let findings = lint_source("x.rs", src, false);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn a_constructor_ranks_the_field_its_initializer_opens() {
        let src = "fn new() -> C { C {
                migration_locks: Arc::new(Sharded::new_indexed(n, |i| {
                    Mutex::with_rank_indexed(lock_order::MIGRATION_STRIPE, i, ())
                })),
                routing: RwLock::with_rank(lock_order::ROUTING_STATE, Arc::new(State { table, n: 1 })),
            } }
            fn lock_for(&self) -> Arc<Mutex<()>> {
                self.map.lock().entry(k).or_insert_with(|| Arc::new(Mutex::with_rank(lock_order::KEY_LOCK, ())))
            }";
        let mut table = RankTable::default();
        table.add_file("x.rs", &lex(src), &mut Vec::new());
        let sites: Vec<(&str, &str, bool)> = table
            .sites
            .iter()
            .map(|site| {
                (
                    site.field.as_str(),
                    rank_name(site.family.rank),
                    site.family.sharded,
                )
            })
            .collect();
        // A lock built in a method body initializes no field: skipped.
        assert_eq!(
            sites,
            [
                ("migration_locks", "MIGRATION_STRIPE", true),
                ("routing", "ROUTING_STATE", false)
            ]
        );
    }

    #[test]
    fn every_rank_is_read_from_a_field() {
        let manifest = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
        let root = find_workspace_root(manifest).expect("workspace root");
        let mut findings = Vec::new();
        let mut table = RankTable::default();
        for (file, tokens, _) in lex_linted_crates(&root).expect("workspace lexes") {
            table.add_file(&file, &tokens, &mut findings);
        }
        assert!(findings.is_empty(), "{findings:?}");
        // A ranked lock rebuilt with plain `new` drops out of this list.
        let unread: Vec<&str> = NAMES
            .iter()
            .filter(|&&(rank, _)| !table.sites.iter().any(|site| site.family.rank == rank))
            .map(|&(_, name)| name)
            .collect();
        assert!(unread.is_empty(), "no constructor ranks a field {unread:?}");
    }
}
