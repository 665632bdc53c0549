//! The one source view every rule reads: comment and string-literal
//! stripping, `#[cfg(test)]` region tracking, and lightweight item parsing
//! (function extents, enclosing `impl` blocks, call sites, and the
//! `// abr-lint: hot-path` / `// abr-lint: cold` marker comments).
//!
//! The linter has no parser dependency (shims-only build environment), so
//! rules operate on a *code view* of each file: the raw text with comment
//! bodies and string/char-literal contents blanked out (replaced by spaces,
//! delimiters and newlines kept). That is enough to make substring rules
//! such as "`Instant::now` appears" immune to doc comments, `//` prose, and
//! format strings, which is where most naive greps go wrong.
//!
//! Test code is exempt from most rules. A `#[cfg(test)]` attribute marks
//! the item it annotates as a test region: a braced item up to its matching
//! closing brace, a `;`-terminated item (`use …;`, `mod tests;`) up to its
//! `;`. Files under `tests/`, `benches/`, or `examples/` directories are
//! excluded wholesale by the walker (see [`crate::rules`]).
//!
//! On top of the code view, [`ParsedFile::parse`] recovers the smallest
//! amount of structure the semantic rules (R7/R8) need. It is *not* a Rust
//! parser:
//!
//! * every `fn` item: its name, 1-based start/end lines, and the byte span
//!   of its body in the stripped text;
//! * the `impl` block (self type + optional trait) each function sits in,
//!   so diagnostics can say `SessionStore::decide` instead of `decide`;
//! * the identifiers that appear in call position inside each body
//!   (`foo(..)`, `x.foo(..)`, `Path::foo(..)`), which is what the
//!   conservative call-graph approximation in [`crate::graph`] consumes;
//! * marker comments read from the **raw** lines immediately above the
//!   `fn` (markers are comments, so the code view cannot see them):
//!   `// abr-lint: hot-path` declares a hot-path root,
//!   `// abr-lint: cold` cuts the function out of hot-path reachability
//!   (for opt-in diagnostic paths a hot function calls by name).
//!
//! The parser is intentionally conservative: a construct it does not
//! understand yields *more* reachability (extra call edges, wider spans),
//! never less, so rule R7 over-reports rather than under-reports and the
//! allowlist absorbs the difference.

/// Words that look like calls (`if (x)`) or constructors (`Some(x)`) but
/// never name a function defined in this workspace.
const NON_CALL_WORDS: &[&str] = &[
    "if", "while", "for", "match", "return", "loop", "fn", "let", "else", "move", "in", "as",
    "ref", "mut", "pub", "use", "where", "impl", "dyn", "box", "Some", "None", "Ok", "Err",
];

/// One parsed `fn` item.
#[derive(Debug, Clone)]
pub struct FnItem {
    /// Bare function name (`decide`).
    pub name: String,
    /// Qualified name for diagnostics (`SessionStore::decide` inside an
    /// impl block, else the bare name).
    pub qualified: String,
    /// Trait the enclosing impl block implements (`AbrAlgorithm` for a
    /// function in `impl AbrAlgorithm for Rba`).
    pub trait_name: Option<String>,
    /// 1-based line of the `fn` keyword.
    pub start_line: usize,
    /// 1-based line of the body's closing brace.
    pub end_line: usize,
    /// Byte range of the body (including both braces) in the stripped text.
    pub body: (usize, usize),
    /// Whether the function sits inside a `#[cfg(test)]` region.
    pub is_test: bool,
    /// `// abr-lint: hot-path` appeared immediately above (or on) the
    /// `fn` line: this function roots hot-path reachability (rule R7).
    pub hot_marker: bool,
    /// `// abr-lint: cold` appeared immediately above (or on) the `fn`
    /// line: reachability does not propagate into this function.
    pub cold_marker: bool,
    /// Identifiers in call position inside the body, deduplicated,
    /// lexicographic.
    pub calls: Vec<String>,
}

/// One source line in both views.
#[derive(Debug, Clone, Copy)]
pub struct Line<'a> {
    /// 1-based line number.
    pub number: usize,
    /// The raw line, exactly as read (no line terminator).
    pub raw: &'a str,
    /// The code view of the line: comments and literal contents blanked.
    pub code: &'a str,
    /// Whether the line sits inside a `#[cfg(test)]` item.
    pub in_test: bool,
}

/// A source file in every view the rules need: raw lines, the stripped
/// code view, per-line test marks, and the `fn` items found in it.
#[derive(Debug, Clone)]
pub struct ParsedFile {
    /// The stripped code view ([`strip`]) the spans index.
    pub stripped: String,
    /// Every `fn` item found, in source order.
    pub fns: Vec<FnItem>,
    /// The raw lines (`str::lines`), in order.
    raw_lines: Vec<String>,
    /// Byte offset of the first character of each line in `stripped`.
    line_starts: Vec<usize>,
    /// Per-line (0-based) `#[cfg(test)]` marks.
    test_mask: Vec<bool>,
}

impl ParsedFile {
    /// Parse `source` (raw text; stripping happens internally).
    pub fn parse(source: &str) -> ParsedFile {
        let stripped = strip(source);
        let line_starts = line_starts(&stripped);
        let test_mask = test_mask(&stripped, &line_starts);
        let mut file = ParsedFile {
            raw_lines: source.lines().map(str::to_string).collect(),
            stripped,
            fns: Vec::new(),
            line_starts,
            test_mask,
        };
        let impls = impl_spans(&file.stripped);
        file.fns = word_occurrences(&file.stripped, "fn")
            .into_iter()
            .filter_map(|at| file.parse_fn(at, &impls))
            .collect();
        file
    }

    /// 1-based line number of byte `offset` in the stripped text.
    pub fn line_of(&self, offset: usize) -> usize {
        line_of(&self.line_starts, offset)
    }

    /// Line `number` (1-based), or `None` past the end of the file.
    pub fn line(&self, number: usize) -> Option<Line<'_>> {
        let raw = self.raw_lines.get(number.checked_sub(1)?)?;
        let start = *self.line_starts.get(number - 1)?;
        let code = match self.line_starts.get(number) {
            // Same terminator handling as `str::lines`.
            Some(&next) => {
                let line = &self.stripped[start..next - 1];
                line.strip_suffix('\r').unwrap_or(line)
            }
            None => &self.stripped[start..],
        };
        Some(Line {
            number,
            raw,
            code,
            in_test: self.test_mask.get(number - 1).copied().unwrap_or(false),
        })
    }

    /// Every line, in order.
    pub fn lines(&self) -> impl Iterator<Item = Line<'_>> {
        (1..=self.raw_lines.len()).filter_map(|n| self.line(n))
    }

    /// Parse the `fn` item whose keyword sits at byte `fn_at`; `None` for
    /// a bodiless declaration or a `fn` that is not an item.
    fn parse_fn(&self, fn_at: usize, impls: &[ImplSpan]) -> Option<FnItem> {
        let stripped = self.stripped.as_str();
        let bytes = stripped.as_bytes();
        // Name: the next identifier after `fn`.
        let after = &stripped[fn_at + 2..];
        let name_rel = after.find(|c: char| c.is_ascii_alphabetic() || c == '_')?;
        // Only whitespace may sit between `fn` and its name.
        if !after[..name_rel].trim().is_empty() {
            return None;
        }
        let name_start = fn_at + 2 + name_rel;
        let name_end = stripped[name_start..]
            .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
            .map(|i| name_start + i)
            .unwrap_or(stripped.len());
        let name = stripped[name_start..name_end].to_string();
        // Body: the first `{` after the signature — unless a `;` at
        // signature level arrives first (trait method declaration, extern
        // fn).
        let mut i = name_end;
        let mut angle = 0i64;
        let mut paren = 0i64;
        let open = loop {
            let b = *bytes.get(i)?;
            match b {
                b'<' => angle += 1,
                b'>' => angle = (angle - 1).max(0), // `->` also lands here; harmless
                b'(' => paren += 1,
                b')' => paren -= 1,
                b';' if paren == 0 && angle == 0 => return None,
                b'{' if paren == 0 => break i,
                _ => {}
            }
            i += 1;
        };
        let close = matching_brace(bytes, open).unwrap_or(bytes.len() - 1);
        let start_line = self.line_of(fn_at);
        let end_line = self.line_of(close);
        let is_test = self.test_mask.get(start_line - 1).copied().unwrap_or(false);
        let (hot_marker, cold_marker) = markers_for(&self.raw_lines, start_line);
        let enclosing = impls.iter().find(|(_, _, (a, b))| fn_at > *a && fn_at < *b);
        let qualified = enclosing
            .map(|(self_type, _, _)| format!("{self_type}::{name}"))
            .unwrap_or_else(|| name.clone());
        let trait_name = enclosing.and_then(|(_, t, _)| t.clone());
        let calls = extract_calls(&stripped[open..=close]);
        Some(FnItem {
            name,
            qualified,
            trait_name,
            start_line,
            end_line,
            body: (open, close),
            is_test,
            hot_marker,
            cold_marker,
            calls,
        })
    }
}

/// Lexer state for [`strip`].
enum State {
    Code,
    LineComment,
    BlockComment(u32),
    Str,
    RawStr(u32),
}

/// Blank comment bodies and string/char-literal contents with spaces,
/// preserving newlines (so line numbers survive) and literal delimiters (so
/// tokens don't merge across a blanked region).
pub fn strip(source: &str) -> String {
    let chars: Vec<char> = source.chars().collect();
    let mut out = String::with_capacity(source.len());
    let mut state = State::Code;
    let mut i = 0;
    while i < chars.len() {
        let c = chars[i];
        let next = chars.get(i + 1).copied();
        match state {
            State::Code => match c {
                '/' if next == Some('/') => {
                    state = State::LineComment;
                    out.push_str("  ");
                    i += 2;
                }
                '/' if next == Some('*') => {
                    state = State::BlockComment(1);
                    out.push_str("  ");
                    i += 2;
                }
                '"' => {
                    state = State::Str;
                    out.push('"');
                    i += 1;
                }
                'b' if next == Some('"') => {
                    // Plain byte string: treat like a normal string literal.
                    out.push(' ');
                    out.push('"');
                    state = State::Str;
                    i += 2;
                }
                'r' | 'b' => {
                    // Possible raw-string start: r", r#", br#"...
                    let (consumed, hashes) = raw_string_open(&chars, i);
                    if consumed > 0 {
                        for _ in 0..consumed {
                            out.push(' ');
                        }
                        out.pop();
                        out.push('"');
                        state = State::RawStr(hashes);
                        i += consumed;
                    } else {
                        out.push(c);
                        i += 1;
                    }
                }
                '\'' => {
                    // Char literal vs lifetime. A char literal closes within
                    // a few characters; a lifetime never has a closing quote.
                    if let Some(len) = char_literal_len(&chars, i) {
                        out.push('\'');
                        for _ in 1..len - 1 {
                            out.push(' ');
                        }
                        out.push('\'');
                        i += len;
                    } else {
                        out.push('\'');
                        i += 1;
                    }
                }
                _ => {
                    out.push(c);
                    i += 1;
                }
            },
            State::LineComment => {
                if c == '\n' {
                    state = State::Code;
                    out.push('\n');
                } else {
                    out.push(' ');
                }
                i += 1;
            }
            State::BlockComment(depth) => {
                if c == '*' && next == Some('/') {
                    state = if depth == 1 {
                        State::Code
                    } else {
                        State::BlockComment(depth - 1)
                    };
                    out.push_str("  ");
                    i += 2;
                } else if c == '/' && next == Some('*') {
                    state = State::BlockComment(depth + 1);
                    out.push_str("  ");
                    i += 2;
                } else {
                    out.push(if c == '\n' { '\n' } else { ' ' });
                    i += 1;
                }
            }
            State::Str => {
                if c == '\\' {
                    // Preserve the newline of a `\`-continuation so line
                    // numbering stays aligned with the source.
                    out.push(' ');
                    out.push(if next == Some('\n') { '\n' } else { ' ' });
                    i += 2;
                } else if c == '"' {
                    state = State::Code;
                    out.push('"');
                    i += 1;
                } else {
                    out.push(if c == '\n' { '\n' } else { ' ' });
                    i += 1;
                }
            }
            State::RawStr(hashes) => {
                if c == '"' && closes_raw(&chars, i, hashes) {
                    out.push('"');
                    for _ in 0..hashes {
                        out.push(' ');
                    }
                    state = State::Code;
                    i += 1 + hashes as usize;
                } else {
                    out.push(if c == '\n' { '\n' } else { ' ' });
                    i += 1;
                }
            }
        }
    }
    out
}

/// If `chars[at..]` opens a raw (byte) string (`r"`, `r#"`, `br##"`, ...),
/// return `(consumed chars, hash count)`; else `(0, 0)`.
fn raw_string_open(chars: &[char], at: usize) -> (usize, u32) {
    let mut i = at;
    if chars.get(i) == Some(&'b') {
        i += 1;
    }
    if chars.get(i) != Some(&'r') {
        return (0, 0);
    }
    i += 1;
    let mut hashes = 0u32;
    while chars.get(i) == Some(&'#') {
        hashes += 1;
        i += 1;
    }
    if chars.get(i) == Some(&'"') {
        (i - at + 1, hashes)
    } else {
        (0, 0)
    }
}

/// Whether the `"` at `chars[at]` is followed by `hashes` `#`s, closing a
/// raw string.
fn closes_raw(chars: &[char], at: usize, hashes: u32) -> bool {
    (1..=hashes as usize).all(|k| chars.get(at + k) == Some(&'#'))
}

/// If `chars[at]` (a `'`) starts a char literal, return its total length in
/// chars (including both quotes); `None` for lifetimes.
fn char_literal_len(chars: &[char], at: usize) -> Option<usize> {
    match chars.get(at + 1)? {
        '\\' => {
            // Escaped char: scan to the closing quote (bounded; covers
            // \n, \x7f, \u{10FFFF}).
            for len in 3..=12 {
                if chars.get(at + len - 1) == Some(&'\'') {
                    return Some(len);
                }
            }
            None
        }
        _ => {
            if chars.get(at + 2) == Some(&'\'') {
                Some(3)
            } else {
                None
            }
        }
    }
}

fn line_starts(text: &str) -> Vec<usize> {
    let mut starts = vec![0usize];
    for (i, b) in text.bytes().enumerate() {
        if b == b'\n' {
            starts.push(i + 1);
        }
    }
    starts
}

/// 1-based line number of byte `offset`, given each line's start offset.
fn line_of(line_starts: &[usize], offset: usize) -> usize {
    match line_starts.binary_search(&offset) {
        Ok(idx) => idx + 1,
        Err(idx) => idx.max(1),
    }
}

/// Whether `b` can be part of an identifier.
pub(crate) fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Byte offsets of word-boundary occurrences of `word` in `text`.
pub(crate) fn word_occurrences(text: &str, word: &str) -> Vec<usize> {
    let bytes = text.as_bytes();
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(pos) = text[from..].find(word) {
        let at = from + pos;
        let end = at + word.len();
        let before_ok = at == 0 || !is_ident_byte(bytes[at - 1]);
        let after_ok = end >= bytes.len() || !is_ident_byte(bytes[end]);
        if before_ok && after_ok {
            out.push(at);
        }
        from = at + word.len();
    }
    out
}

/// Per-line (0-based) test mask: `true` for lines inside a `#[cfg(test)]`
/// item, from the attribute's line to the line where the item ends (see
/// [`item_end`]).
fn test_mask(stripped: &str, line_starts: &[usize]) -> Vec<bool> {
    const NEEDLE: &str = "#[cfg(test)]";
    let bytes = stripped.as_bytes();
    let mut mask = vec![false; line_starts.len()];
    let mut search_from = 0usize;
    while let Some(pos) = stripped[search_from..].find(NEEDLE) {
        let attr = search_from + pos;
        let Some(end) = item_end(bytes, attr + NEEDLE.len()) else {
            break;
        };
        let first = line_of(line_starts, attr);
        let last = line_of(line_starts, end);
        mask[first - 1..last].fill(true);
        search_from = end;
    }
    mask
}

/// Byte offset where the item starting at `from` ends. Attributes between
/// the `#[cfg(test)]` and the item (`#[allow(...)]`) are skipped over: only
/// a `;`, `,`, `{` or `}` outside parentheses and brackets counts. A `;`
/// first ends a bodiless item (`use …;`, `mod tests;`, `const X: [u8; 2] =
/// …;`) right there; so does a `,` outside `<…>` (a struct field or enum
/// variant, `probe: Map<K, V>,`, but not `fn helper<T, U>()`) or a `}`
/// closing the enclosing struct or enum. After `where`, commas separate
/// bounds instead. A `{` first ends the item at the matching `}` (or the
/// end of the text). `None` when none of them follows.
fn item_end(bytes: &[u8], from: usize) -> Option<usize> {
    let (mut depth, mut angle) = (0i64, 0i64);
    let mut in_where = false;
    for (k, &b) in bytes.iter().enumerate().skip(from) {
        match b {
            b'(' | b'[' => depth += 1,
            b')' | b']' => depth -= 1,
            b'<' => angle += 1,
            // `->` and `=>` are arrows, not closing brackets.
            b'>' if !matches!(bytes[k - 1], b'-' | b'=') => angle = (angle - 1).max(0),
            b';' | b'}' if depth == 0 => return Some(k),
            b',' if depth == 0 && angle == 0 && !in_where => return Some(k),
            b'{' if depth == 0 => {
                return Some(matching_brace(bytes, k).unwrap_or(bytes.len() - 1));
            }
            b'w' if bytes[k..].starts_with(b"where")
                && !is_ident_byte(bytes[k - 1])
                && !bytes.get(k + 5).is_some_and(|&c| is_ident_byte(c)) =>
            {
                in_where = true;
            }
            _ => {}
        }
    }
    None
}

/// Byte offset of the `}` matching the `{` at `open`, or `None` if the
/// text ends first.
fn matching_brace(bytes: &[u8], open: usize) -> Option<usize> {
    let mut depth = 0i64;
    for (k, &b) in bytes.iter().enumerate().skip(open) {
        match b {
            b'{' => depth += 1,
            b'}' => {
                depth -= 1;
                if depth == 0 {
                    return Some(k);
                }
            }
            _ => {}
        }
    }
    None
}

/// `(self_type, trait_name, body_span)` of one `impl` block.
type ImplSpan = (String, Option<String>, (usize, usize));

/// Every `impl` block in the stripped text.
fn impl_spans(stripped: &str) -> Vec<ImplSpan> {
    let bytes = stripped.as_bytes();
    let mut out = Vec::new();
    for at in word_occurrences(stripped, "impl") {
        let Some(open_rel) = stripped[at..].find('{') else {
            continue;
        };
        let open = at + open_rel;
        // `impl` headers never contain `{` or `;`; a `;` first means this
        // was something else (e.g. a type alias mentioning impl Trait).
        if stripped[at..open].contains(';') {
            continue;
        }
        let Some(close) = matching_brace(bytes, open) else {
            continue;
        };
        let header = &stripped[at + "impl".len()..open];
        let header = strip_generics(header);
        let (trait_name, self_type) = match header.split_once(" for ") {
            Some((t, s)) => (Some(last_segment(t)), last_segment(s)),
            None => (None, last_segment(&header)),
        };
        out.push((self_type, trait_name, (open, close)));
    }
    out
}

/// Drop `<...>` generic argument lists (depth-tracked) from a type path.
fn strip_generics(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut depth = 0i64;
    for c in s.chars() {
        match c {
            '<' => depth += 1,
            '>' => depth = (depth - 1).max(0),
            _ if depth == 0 => out.push(c),
            _ => {}
        }
    }
    out.trim().to_string()
}

/// Final path segment of a (possibly `::`-qualified) type name.
fn last_segment(s: &str) -> String {
    s.trim()
        .rsplit("::")
        .next()
        .unwrap_or("")
        .trim()
        .trim_start_matches('&')
        .trim()
        .to_string()
}

/// Look for marker comments in the run of comment/attribute lines directly
/// above the `fn` line. A marker only counts as a *standalone* plain
/// comment whose trimmed text starts with `// abr-lint:` — doc-comment
/// prose that merely mentions the marker syntax (like this paragraph)
/// never creates a root.
fn markers_for(raw_lines: &[String], start_line: usize) -> (bool, bool) {
    let mut hot = false;
    let mut cold = false;
    let mut check = |line: &str| {
        if let Some(directive) = line.strip_prefix("// abr-lint:") {
            let directive = directive.trim();
            if directive.starts_with("hot-path") {
                hot = true;
            }
            if directive.starts_with("cold") {
                cold = true;
            }
        }
    };
    let mut idx = start_line - 1; // 0-based index of the fn line
    while idx > 0 {
        idx -= 1;
        let line = raw_lines[idx].trim();
        if line.starts_with("//") || line.starts_with("#[") || line.starts_with("#!") {
            check(line);
        } else {
            break;
        }
    }
    (hot, cold)
}

/// Identifiers in call position inside `body` (stripped text): `name(`,
/// `.name(`, `Path::name(`, and `name!(`. For path calls the last *two*
/// segments are kept (`Cur::new(` → `"Cur::new"`) so the call graph can
/// resolve them against qualified function names before falling back to
/// the bare-name over-approximation; a `Self::` prefix is dropped (it
/// resolves like a bare name). Deduplicated, sorted.
fn extract_calls(body: &str) -> Vec<String> {
    let bytes = body.as_bytes();
    let mut out: Vec<String> = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        if !is_ident_byte(bytes[i]) || bytes[i].is_ascii_digit() {
            i += 1;
            continue;
        }
        let start = i;
        while i < bytes.len() && is_ident_byte(bytes[i]) {
            i += 1;
        }
        let ident = &body[start..i];
        // Skip whitespace and at most one `!` (macro) before the paren.
        let mut j = i;
        while j < bytes.len() && (bytes[j] == b' ' || bytes[j] == b'\n') {
            j += 1;
        }
        if j < bytes.len() && bytes[j] == b'!' {
            j += 1;
        }
        if j < bytes.len() && bytes[j] == b'(' && !NON_CALL_WORDS.contains(&ident) {
            let key = match path_prefix(body, start) {
                Some(prefix) if prefix != "Self" => format!("{prefix}::{ident}"),
                _ => ident.to_string(),
            };
            if let Err(pos) = out.binary_search(&key) {
                out.insert(pos, key);
            }
        }
    }
    out
}

/// If the identifier starting at `start` is preceded by `::`, the path
/// segment before it (`Cur::new` → `Some("Cur")`).
fn path_prefix(body: &str, start: usize) -> Option<&str> {
    let head = body.get(..start)?;
    let head = head.strip_suffix("::")?;
    let seg_start = head
        .rfind(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        .map(|i| i + 1)
        .unwrap_or(0);
    let seg = &head[seg_start..];
    (!seg.is_empty() && !seg.starts_with(|c: char| c.is_ascii_digit())).then_some(seg)
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn strips_line_and_block_comments() {
        let src = "let x = 1; // Instant::now\n/* HashMap */ let y = 2;\n";
        let out = strip(src);
        assert!(!out.contains("Instant::now"));
        assert!(!out.contains("HashMap"));
        assert!(out.contains("let x = 1;"));
        assert!(out.contains("let y = 2;"));
        assert_eq!(out.lines().count(), src.lines().count());
    }

    #[test]
    fn strips_string_contents_but_keeps_delimiters() {
        let src = r#"let s = "thread_rng inside a string"; s.unwrap();"#;
        let out = strip(src);
        assert!(!out.contains("thread_rng"));
        assert!(out.contains(".unwrap()"));
        assert!(out.contains('"'));
    }

    #[test]
    fn strips_raw_strings_and_char_literals() {
        let src = "let s = r#\"OsRng\"#; let c = 'x'; let l: &'static str = \"\";";
        let out = strip(src);
        assert!(!out.contains("OsRng"));
        assert!(out.contains("'static"), "lifetime survives: {out}");
    }

    #[test]
    fn backslash_continuation_keeps_line_numbering() {
        // A `\` before the newline inside a string must not swallow the
        // newline, or every later violation would report a shifted line.
        let src = "let s = \"one \\\n   two\";\nx.unwrap();\n";
        let out = strip(src);
        assert_eq!(out.lines().count(), src.lines().count());
        assert_eq!(out.lines().nth(2), Some("x.unwrap();"));
    }

    #[test]
    fn doc_comments_are_comments() {
        let src = "/// let ed = Dataset::by_name(\"x\").unwrap();\nfn f() {}\n";
        let out = strip(src);
        assert!(!out.contains("unwrap"));
    }

    #[test]
    fn marks_cfg_test_regions() {
        let src = "fn prod() { a.unwrap(); }\n#[cfg(test)]\nmod tests {\n    fn t() { b.unwrap(); }\n}\nfn prod2() {}\n";
        let f = ParsedFile::parse(src);
        let in_test: Vec<bool> = f.lines().map(|l| l.in_test).collect();
        assert_eq!(in_test, [false, true, true, true, true, false]);
    }

    #[test]
    fn nested_block_comments() {
        let src = "/* outer /* inner */ still comment */ let z = 3;";
        let out = strip(src);
        assert!(out.contains("let z = 3;"));
        assert!(!out.contains("inner"));
    }

    const SRC: &str = r#"
struct Store;

impl Store {
    // abr-lint: hot-path
    fn decide(&self, x: usize) -> usize {
        self.helper(x)
    }

    fn helper(&self, x: usize) -> usize {
        other(x) + 1
    }
}

// abr-lint: cold
fn other(x: usize) -> usize { x }

trait T {
    fn declared_only(&self);
}

#[cfg(test)]
mod tests {
    fn in_tests() { decide(); }
}
"#;

    #[test]
    fn finds_functions_and_extents() {
        let p = ParsedFile::parse(SRC);
        let names: Vec<&str> = p.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["decide", "helper", "other", "in_tests"]);
        let decide = &p.fns[0];
        assert_eq!(decide.qualified, "Store::decide");
        assert!(decide.start_line < decide.end_line);
        assert!(p.stripped[decide.body.0..=decide.body.1].contains("helper"));
    }

    #[test]
    fn markers_are_read_from_raw_comments() {
        let p = ParsedFile::parse(SRC);
        assert!(p.fns[0].hot_marker);
        assert!(!p.fns[0].cold_marker);
        assert!(!p.fns[1].hot_marker);
        assert!(p.fns[2].cold_marker);
    }

    #[test]
    fn trait_declarations_without_body_are_skipped() {
        let p = ParsedFile::parse(SRC);
        assert!(p.fns.iter().all(|f| f.name != "declared_only"));
    }

    #[test]
    fn test_region_functions_are_marked() {
        let p = ParsedFile::parse(SRC);
        let t = p.fns.iter().find(|f| f.name == "in_tests").unwrap();
        assert!(t.is_test);
        assert!(!p.fns[0].is_test);
    }

    #[test]
    fn calls_cover_method_and_free_forms() {
        let p = ParsedFile::parse(SRC);
        assert_eq!(p.fns[0].calls, ["helper"]);
        assert_eq!(p.fns[1].calls, ["other"]);
    }

    #[test]
    fn impl_trait_for_type_qualifies_by_self_type() {
        let src = "impl AbrAlgorithm for Rba<'_> {\n    fn choose_level(&mut self) -> usize { pick() }\n}\n";
        let p = ParsedFile::parse(src);
        assert_eq!(p.fns[0].qualified, "Rba::choose_level");
        assert_eq!(p.fns[0].trait_name.as_deref(), Some("AbrAlgorithm"));
        let p = ParsedFile::parse("impl Rba { fn new() -> Rba { Rba } }\n");
        assert_eq!(p.fns[0].trait_name, None);
    }

    #[test]
    fn marker_on_attribute_run_is_found() {
        let src = "// abr-lint: hot-path\n#[inline]\nfn fast() -> usize { 1 }\n";
        let p = ParsedFile::parse(src);
        assert!(p.fns[0].hot_marker, "marker above an attribute run");
    }

    #[test]
    fn doc_comment_prose_mentioning_the_marker_is_not_a_marker() {
        let src = "/// Roots are declared with `// abr-lint: hot-path` comments.\nfn document_markers() -> usize { 1 }\n";
        let p = ParsedFile::parse(src);
        assert!(!p.fns[0].hot_marker, "doc prose must not create a root");
        // A marker with a trailing explanation still counts.
        let src = "// abr-lint: cold — diagnostics only\nfn slow() -> usize { 1 }\n";
        let p = ParsedFile::parse(src);
        assert!(p.fns[0].cold_marker);
    }

    #[test]
    fn generic_fn_with_where_clause_parses() {
        let src = "fn f<T: Ord>(x: T) -> T\nwhere\n    T: Clone,\n{\n    helper(x)\n}\n";
        let p = ParsedFile::parse(src);
        assert_eq!(p.fns.len(), 1);
        assert_eq!(p.fns[0].calls, ["helper"]);
    }
}
