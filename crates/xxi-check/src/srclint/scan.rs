//! The file model the source-lint rules run against.
//!
//! [`ScannedFile`] wraps one lexed `.rs` file with the structure every
//! rule needs but no rule wants to recompute:
//!
//! * a **line table** (token → 1-based line, code/comment content per
//!   line) for diagnostics and comment-tag adjacency;
//! * **test regions** — `#[cfg(test)]`-guarded items (`;`-terminated
//!   ones such as `#[cfg(test)] mod x;` included) and fields, `#[test]`
//!   fns, files compiled only through such a `mod x;` (marked by the
//!   engine, which sees every file), and whole files under `tests/`,
//!   `benches/`, or `examples/` — because most rules only police
//!   production code;
//! * **suppressions** — `// xxi-allow: <rule>[, <rule>] [-- reason]`
//!   per-line and `// xxi-allow-file: <rule> [-- reason]` per-file, with
//!   use tracking so the engine can flag suppressions that no longer
//!   suppress anything;
//! * **enclosing-call lookup**, so a rule can ask "is this
//!   `Ordering::SeqCst` an argument of `fetch_add`, or just a match arm
//!   in the model checker?".

use std::collections::BTreeMap;

use super::lexer::{lex, TokKind, Token};

/// The keywords that lead an item or statement, whose generics, `where`
/// clause or type may hold commas outside any bracket.
const ITEM_KEYWORDS: [&str; 12] = [
    "fn", "struct", "enum", "union", "trait", "impl", "type", "const", "static", "mod", "use",
    "let",
];

/// One `xxi-allow` suppression found in a comment.
#[derive(Debug)]
pub struct Allow {
    /// Line the comment sits on (1-based).
    pub comment_line: usize,
    /// The line of code this suppression covers (for a trailing comment,
    /// its own line; for a comment-only line, the next line with code).
    pub target_line: usize,
    /// Rule ids listed after the colon.
    pub rules: Vec<String>,
    /// `xxi-allow-file`: covers the whole file rather than one line.
    pub file_level: bool,
    /// Set by the engine when the suppression absorbed a diagnostic.
    pub used: std::cell::Cell<bool>,
}

/// Per-line derived info.
struct LineInfo {
    /// Concatenated text of every comment token on the line.
    comments: String,
    /// Last byte of non-comment code on the line (0 = none).
    code_end_byte: u8,
    /// Whether any non-comment, non-whitespace token is on the line.
    has_code: bool,
}

/// A lexed and indexed source file.
pub struct ScannedFile<'a> {
    /// Workspace-relative path with forward slashes.
    pub rel_path: &'a str,
    pub src: &'a str,
    pub tokens: Vec<Token>,
    pub lex_errors: Vec<String>,
    /// Whole file is test/bench/example collateral.
    pub is_test_file: bool,
    /// Byte offset of each line start.
    line_starts: Vec<usize>,
    lines: Vec<LineInfo>,
    /// `test_lines[l]` (1-based) — the line is inside a `#[cfg(test)]`
    /// or `#[test]` region.
    test_lines: Vec<bool>,
    /// All suppressions in the file.
    pub allows: Vec<Allow>,
}

impl<'a> ScannedFile<'a> {
    /// Lex and index `src`. `rel_path` decides test-file status and is
    /// echoed into diagnostics.
    pub fn new(rel_path: &'a str, src: &'a str) -> ScannedFile<'a> {
        let lexed = lex(src);
        let tokens = lexed.tokens;

        let mut line_starts = vec![0usize];
        for (i, b) in src.bytes().enumerate() {
            if b == b'\n' {
                line_starts.push(i + 1);
            }
        }
        let n_lines = line_starts.len();

        let mut lines: Vec<LineInfo> = (0..=n_lines)
            .map(|_| LineInfo {
                comments: String::new(),
                code_end_byte: 0,
                has_code: false,
            })
            .collect();
        for t in &tokens {
            let l = line_of(&line_starts, t.start);
            match t.kind {
                TokKind::Ws => {}
                TokKind::LineComment | TokKind::BlockComment => {
                    // A block comment may span lines; credit every line it
                    // touches so tags inside multi-line comments count.
                    let last = line_of(&line_starts, t.end.saturating_sub(1));
                    for (piece, ln) in t.text(src).split('\n').zip(l..=last) {
                        lines[ln].comments.push_str(piece);
                        lines[ln].comments.push(' ');
                    }
                }
                _ => {
                    let last = line_of(&line_starts, t.end.saturating_sub(1));
                    for line in &mut lines[l..=last] {
                        line.has_code = true;
                    }
                    lines[last].code_end_byte = *t.text(src).as_bytes().last().unwrap_or(&0);
                }
            }
        }

        let is_test_file = {
            let p = rel_path;
            p.starts_with("tests/")
                || p.contains("/tests/")
                || p.starts_with("benches/")
                || p.contains("/benches/")
                || p.starts_with("examples/")
                || p.contains("/examples/")
        };

        let mut f = ScannedFile {
            rel_path,
            src,
            tokens,
            lex_errors: lexed.errors,
            is_test_file,
            line_starts,
            lines,
            test_lines: vec![false; n_lines + 1],
            allows: Vec::new(),
        };
        f.mark_test_regions();
        f.collect_allows();
        f
    }

    /// 1-based line of a byte offset.
    pub fn line_of_byte(&self, byte: usize) -> usize {
        line_of(&self.line_starts, byte)
    }

    /// 1-based line of a token (by index).
    pub fn line_of_tok(&self, idx: usize) -> usize {
        self.line_of_byte(self.tokens[idx].start)
    }

    /// Token text.
    pub fn text(&self, idx: usize) -> &str {
        self.tokens[idx].text(self.src)
    }

    /// Is this line inside test code (test file, `#[cfg(test)]` region,
    /// or `#[test]` fn)?
    pub fn is_test_line(&self, line: usize) -> bool {
        self.is_test_file || self.in_cfg_test(line)
    }

    /// Is this line compiled only for tests: a `#[cfg(test)]` item, a
    /// `#[test]` fn, or a file marked by [`ScannedFile::mark_test_only`]?
    /// Unlike [`ScannedFile::is_test_line`], an example's `main` is not.
    pub fn in_cfg_test(&self, line: usize) -> bool {
        self.test_lines.get(line).copied().unwrap_or(false)
    }

    /// Index of the next token that is not whitespace or a comment,
    /// starting at `idx` inclusive.
    pub fn next_code(&self, mut idx: usize) -> Option<usize> {
        while idx < self.tokens.len() {
            match self.tokens[idx].kind {
                TokKind::Ws | TokKind::LineComment | TokKind::BlockComment => idx += 1,
                _ => return Some(idx),
            }
        }
        None
    }

    /// Index of the previous non-whitespace, non-comment token strictly
    /// before `idx`.
    pub fn prev_code(&self, idx: usize) -> Option<usize> {
        let mut i = idx;
        while i > 0 {
            i -= 1;
            match self.tokens[i].kind {
                TokKind::Ws | TokKind::LineComment | TokKind::BlockComment => {}
                _ => return Some(i),
            }
        }
        None
    }

    /// The name of the innermost function/macro call whose argument list
    /// encloses token `idx` (e.g. `fetch_add` for the `Ordering` token in
    /// `x.fetch_add(1, Ordering::Relaxed)`). `None` when the token is not
    /// inside any call parentheses (match arms, comparisons, type
    /// positions).
    pub fn enclosing_call(&self, idx: usize) -> Option<&str> {
        let mut depth = 0i32;
        let mut i = idx;
        while i > 0 {
            i -= 1;
            let t = &self.tokens[i];
            if t.kind != TokKind::Punct {
                continue;
            }
            match t.text(self.src) {
                ")" | "]" | "}" => depth += 1,
                "(" if depth == 0 => {
                    // Opening paren of the enclosing group: a call when an
                    // ident (optionally a macro `!`) sits directly before.
                    let mut p = self.prev_code(i)?;
                    if self.text(p) == "!" {
                        p = self.prev_code(p)?;
                    }
                    if self.tokens[p].kind == TokKind::Ident {
                        return Some(self.text(p));
                    }
                    return None;
                }
                "(" | "[" | "{" => depth -= 1,
                _ => {}
            }
        }
        None
    }

    /// Does line `line` (or the comment block/statement prefix directly
    /// above it) carry a comment containing `tag`?
    ///
    /// Searches the line itself, then upward: comment-only/blank lines are
    /// always part of the adjacent block; a code line is part of the same
    /// statement (and searched) unless it ends with `;`, `{`, or `}`,
    /// which terminates the statement above and stops the search.
    pub fn has_adjacent_tag(&self, line: usize, tag: &str) -> bool {
        if self.line_comment(line).contains(tag) {
            return true;
        }
        let mut l = line;
        for _ in 0..12 {
            if l <= 1 {
                return false;
            }
            l -= 1;
            let info = &self.lines[l];
            if info.has_code {
                if info.comments.contains(tag) {
                    return true;
                }
                if matches!(info.code_end_byte, b';' | b'{' | b'}' | b',') {
                    // End of the previous statement/item: stop.
                    return false;
                }
            } else if info.comments.contains(tag) {
                return true;
            }
        }
        false
    }

    /// Concatenated comment text on a line.
    pub fn line_comment(&self, line: usize) -> &str {
        self.lines
            .get(line)
            .map(|l| l.comments.as_str())
            .unwrap_or("")
    }

    /// Whether the line has any non-comment code.
    pub fn line_has_code(&self, line: usize) -> bool {
        self.lines.get(line).map(|l| l.has_code).unwrap_or(false)
    }

    /// Mark the item following each `#[cfg(test)]` / `#[test]` attribute
    /// as test code.
    fn mark_test_regions(&mut self) {
        let toks = &self.tokens;
        let mut i = 0usize;
        while i < toks.len() {
            if toks[i].kind == TokKind::Punct && toks[i].text(self.src) == "#" {
                if let Some(open) = self.next_code(i + 1).filter(|&j| self.text(j) == "[") {
                    if let Some((close, is_test)) = self.attr_is_test(open) {
                        if is_test {
                            if let Some((lo, hi)) = self.region_after(close) {
                                let (l0, l1) = (self.line_of_byte(lo), self.line_of_byte(hi));
                                for l in l0..=l1 {
                                    self.test_lines[l] = true;
                                }
                            }
                        }
                        i = close;
                        continue;
                    }
                }
            }
            i += 1;
        }
    }

    /// For an attribute starting at the `[` at `open`, return the index
    /// of its closing `]` and whether the attribute mentions the `test`
    /// cfg (`#[test]`, `#[cfg(test)]`, `#[cfg(all(test, …))]`).
    fn attr_is_test(&self, open: usize) -> Option<(usize, bool)> {
        let mut depth = 0i32;
        let mut saw_test = false;
        let mut saw_cfg_or_bare = false;
        let mut first = true;
        let mut i = open;
        while i < self.tokens.len() {
            let t = &self.tokens[i];
            match t.kind {
                TokKind::Punct => match t.text(self.src) {
                    "[" | "(" => depth += 1,
                    ")" => depth -= 1,
                    "]" => {
                        depth -= 1;
                        if depth == 0 {
                            return Some((i, saw_test && saw_cfg_or_bare));
                        }
                    }
                    _ => {}
                },
                TokKind::Ident => {
                    let text = t.text(self.src);
                    if first {
                        // The attribute's head ident: `test` or `cfg`.
                        saw_cfg_or_bare = text == "cfg" || text == "test";
                        first = false;
                    }
                    if text == "test" {
                        saw_test = true;
                    }
                }
                _ => {}
            }
            i += 1;
        }
        None
    }

    /// The byte span of the item the attribute closing at token `idx`
    /// guards: from its first token after any further attributes through
    /// the `}` that closes its body, or through its `;` when it has none
    /// (`#[cfg(test)] use …;`, `#[cfg(test)] mod x;`). Brackets are
    /// counted, so a `;` in `[u8; 4]` or a `}` in a nested block does not
    /// end it. A guarded field also ends at its `,`, and any region ends
    /// before a closer of the brackets around it.
    fn region_after(&self, mut idx: usize) -> Option<(usize, usize)> {
        loop {
            idx = self.next_code(idx + 1)?;
            if self.text(idx) != "#" {
                break;
            }
            let open = self.next_code(idx + 1)?;
            if self.text(open) != "[" {
                break;
            }
            idx = self.attr_is_test(open)?.0;
        }
        let lo = self.tokens[idx].start;
        // A struct or struct-literal field, enum variant or other list
        // element: led by no item keyword, it also ends at a `,`.
        let element = (idx..self.tokens.len())
            .map(|i| self.text(i))
            .find(|t| ITEM_KEYWORDS.contains(t) || [":", ",", "=", ";", "{"].contains(t))
            .is_some_and(|t| !ITEM_KEYWORDS.contains(&t));
        let mut depth = 0i32;
        for i in idx..self.tokens.len() {
            if self.tokens[i].kind != TokKind::Punct {
                continue;
            }
            match self.text(i) {
                "(" | "[" | "{" => depth += 1,
                "}" if depth == 1 => return Some((lo, self.tokens[i].end - 1)),
                ";" if depth == 0 => return Some((lo, self.tokens[i].end - 1)),
                "," if depth == 0 && element => return Some((lo, self.tokens[i].end - 1)),
                ")" | "]" | "}" if depth == 0 => {
                    let last = self.prev_code(i).map_or(lo, |p| self.tokens[p].end - 1);
                    return Some((lo, last.max(lo)));
                }
                ")" | "]" | "}" => depth -= 1,
                _ => {}
            }
        }
        Some((lo, self.src.len().saturating_sub(1)))
    }

    /// Every out-of-line module declaration `mod name;` (any visibility),
    /// as (1-based line, name, whether it is a bare `pub mod`).
    pub fn mod_decls(&self) -> Vec<(usize, &str, bool)> {
        let mut out = Vec::new();
        for (i, t) in self.tokens.iter().enumerate() {
            if t.kind != TokKind::Ident || self.text(i) != "mod" {
                continue;
            }
            let Some(name) = self.next_code(i + 1) else {
                continue;
            };
            let semi = self.next_code(name + 1);
            if self.tokens[name].kind == TokKind::Ident && semi.is_some_and(|j| self.text(j) == ";")
            {
                let public = self.prev_code(i).is_some_and(|p| self.text(p) == "pub");
                out.push((self.line_of_tok(i), self.text(name), public));
            }
        }
        out
    }

    /// Mark the whole file as test code: it is compiled only through a
    /// `#[cfg(test)] mod x;` somewhere up its module tree.
    pub fn mark_test_only(&mut self) {
        self.test_lines.fill(true);
    }

    /// Parse every `xxi-allow` / `xxi-allow-file` comment.
    fn collect_allows(&mut self) {
        let mut allows = Vec::new();
        for line in 1..self.lines.len() {
            let text = self.lines[line].comments.clone();
            for (needle, file_level) in [("xxi-allow-file:", true), ("xxi-allow:", false)] {
                let Some(pos) = text.find(needle) else {
                    continue;
                };
                let rest = &text[pos + needle.len()..];
                let rest = rest.split("--").next().unwrap_or("");
                // Only known rule ids count — this keeps prose like
                // "suppressible via `xxi-allow: <rule>`" in doc comments
                // from parsing as a directive.
                let rules: Vec<String> = rest
                    .split(',')
                    .map(|r| r.trim().trim_end_matches('.').to_string())
                    .filter(|r| super::rules::RULES.iter().any(|(id, _)| id == r))
                    .collect();
                if rules.is_empty() {
                    continue;
                }
                // A trailing comment covers its own line; a comment-only
                // line covers the next line that has code.
                let target_line = if self.lines[line].has_code {
                    line
                } else {
                    let mut l = line + 1;
                    while l < self.lines.len() && !self.lines[l].has_code {
                        l += 1;
                    }
                    l
                };
                allows.push(Allow {
                    comment_line: line,
                    target_line,
                    rules,
                    file_level,
                    used: std::cell::Cell::new(false),
                });
                break; // at most one directive per line
            }
        }
        self.allows = allows;
    }
}

/// Each file's index in `files`, by its path.
pub fn by_path<'a>(files: &[ScannedFile<'a>]) -> BTreeMap<&'a str, usize> {
    files
        .iter()
        .enumerate()
        .map(|(i, f)| (f.rel_path, i))
        .collect()
}

/// The two files a `mod name;` in the file at `parent` can live in:
/// `name.rs` or `name/mod.rs`, beside a `lib.rs`, `main.rs` or `mod.rs`
/// and under a directory named for any other file.
pub fn mod_file_candidates(parent: &str, name: &str) -> [String; 2] {
    let file = parent.rsplit('/').next().unwrap_or(parent);
    let dir = match file {
        "lib.rs" | "main.rs" | "mod.rs" => parent[..parent.len() - file.len()].to_string(),
        _ => format!("{}/", parent.trim_end_matches(".rs")),
    };
    [format!("{dir}{name}.rs"), format!("{dir}{name}/mod.rs")]
}

fn line_of(line_starts: &[usize], byte: usize) -> usize {
    line_starts.partition_point(|&s| s <= byte)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lines_and_comments_are_indexed() {
        let src = "let a = 1; // trailing\n// only comment\nlet b = 2;\n";
        let f = ScannedFile::new("x.rs", src);
        assert!(f.line_has_code(1));
        assert!(f.line_comment(1).contains("trailing"));
        assert!(!f.line_has_code(2));
        assert!(f.line_comment(2).contains("only comment"));
        assert!(f.line_has_code(3));
    }

    #[test]
    fn cfg_test_regions_are_marked() {
        let src = "fn prod() {}\n#[cfg(test)]\nmod tests {\n    fn t() {}\n}\nfn prod2() {}\n";
        let f = ScannedFile::new("x.rs", src);
        assert!(!f.is_test_line(1));
        assert!(f.is_test_line(3));
        assert!(f.is_test_line(4));
        assert!(f.is_test_line(5));
        assert!(!f.is_test_line(6));
    }

    #[test]
    fn cfg_test_fields_end_at_their_comma_but_generic_items_do_not() {
        let src = "pub struct S {\n    #[cfg(test)]\n    pub(crate) probe: u8,\n    pub a: u8,\n\
                   \x20   #[cfg(test)]\n    last: u8\n}\n\
                   #[cfg(test)]\npub(crate) fn g<A, B>(a: A, b: B)\nwhere A: Copy, B: Copy {\n}\n\
                   fn prod() {}\n";
        let f = ScannedFile::new("x.rs", src);
        let test: Vec<usize> = (1..=13).filter(|&l| f.is_test_line(l)).collect();
        assert_eq!(test, [3, 6, 9, 10, 11]);
    }

    #[test]
    fn semicolon_terminated_cfg_test_items_are_marked() {
        let src = "#[cfg(test)]\nuse crate::oracle::Old;\nuse crate::live::New;\n\
                   #[cfg(test)]\n#[path = \"r.rs\"]\nmod reference;\n\
                   #[cfg(test)]\nconst T: [u8; 2] = [0; 2];\npub mod live;\n";
        let f = ScannedFile::new("x.rs", src);
        let test: Vec<usize> = (1..=10).filter(|&l| f.is_test_line(l)).collect();
        assert_eq!(test, [2, 6, 8]);
        assert_eq!(f.mod_decls(), [(6, "reference", false), (9, "live", true)]);
    }

    #[test]
    fn test_attr_fn_is_marked_but_cfg_feature_is_not() {
        let src = "#[test]\nfn check() { body(); }\n#[cfg(feature = \"x\")]\nfn gated() {}\n";
        let f = ScannedFile::new("x.rs", src);
        assert!(f.is_test_line(2));
        assert!(!f.is_test_line(4));
    }

    #[test]
    fn enclosing_call_sees_the_innermost_call() {
        let src = "a.fetch_add(1, Ordering::Relaxed); matches!(o, Ordering::SeqCst); let x = Ordering::SeqCst;";
        let f = ScannedFile::new("x.rs", src);
        let idents: Vec<(usize, &str)> = f
            .tokens
            .iter()
            .enumerate()
            .filter(|(_, t)| t.kind == TokKind::Ident)
            .map(|(i, t)| (i, t.text(src)))
            .collect();
        let calls: Vec<Option<&str>> = idents
            .iter()
            .filter(|(_, s)| *s == "SeqCst" || *s == "Relaxed")
            .map(|(i, _)| f.enclosing_call(*i))
            .collect();
        assert_eq!(calls, [Some("fetch_add"), Some("matches"), None]);
    }

    #[test]
    fn adjacent_tag_spans_statement_prefix_lines() {
        let src = "\
// ORDERING: epoch publish
let ok = a == 0\n    && b.compare_exchange(0, 1, Ordering::SeqCst, Ordering::SeqCst).is_ok();
let plain = c.load(Ordering::SeqCst);
";
        let f = ScannedFile::new("x.rs", src);
        assert!(f.has_adjacent_tag(3, "ORDERING:"), "prefix comment found");
        assert!(!f.has_adjacent_tag(4, "ORDERING:"), "`;` stops the search");
    }

    #[test]
    fn allows_attach_to_the_next_code_line() {
        let src = "\
// xxi-allow: determinism -- bench timing
let t = now();
let u = now(); // xxi-allow: determinism, panic-path
";
        let f = ScannedFile::new("x.rs", src);
        assert_eq!(f.allows.len(), 2);
        assert_eq!(f.allows[0].target_line, 2);
        assert_eq!(f.allows[0].rules, ["determinism"]);
        assert_eq!(f.allows[1].target_line, 3);
        assert_eq!(f.allows[1].rules, ["determinism", "panic-path"]);
    }
}
