//! The source-lint rule table, and the per-file rules R1–R6.
//!
//! Each per-file rule is a function over a [`ScannedFile`] pushing raw
//! findings (before suppression filtering, which the engine in `mod.rs`
//! owns). R7, `model-reach`, needs the whole file set and lives in
//! [`super::reach`].
//! Detection is token-stream based — see the module docs on each rule for
//! exactly what is matched and what the sanctioned escapes are.

use super::scan::ScannedFile;
use crate::lint::Severity;

/// A raw finding, before suppressions are applied.
pub struct Finding {
    pub rule: &'static str,
    pub severity: Severity,
    pub line: usize,
    pub message: String,
}

/// Rule ids, in reporting order.
pub const RULES: &[(&str, &str)] = &[
    (
        "determinism",
        "wall-clock time, sleeps, and unseeded randomness are forbidden outside \
         sanctioned timing code (`xxi bench`, pool parking, host metadata)",
    ),
    (
        "hashmap-order",
        "iterating a HashMap/HashSet yields arbitrary order; sort first or use \
         BTreeMap when the result feeds a Report or golden output",
    ),
    (
        "atomics-discipline",
        "every Ordering::SeqCst, and every Ordering::Relaxed outside a plain \
         counter op, must carry an adjacent `// ORDERING:` justification",
    ),
    (
        "unsafe-audit",
        "every `unsafe` block, fn, or impl must carry an adjacent `// SAFETY:` \
         comment",
    ),
    (
        "sync-facade",
        "code in crates/xxi-stack/src must import std::sync::atomic and \
         std::thread through the crate `sync` facade so `--features check` \
         model-checks it",
    ),
    (
        "panic-path",
        "unwrap()/expect() in non-test library code (lock-poisoning \
         propagation via .lock()/.join()/.wait() receivers is exempt)",
    ),
    (
        "model-reach",
        "every pub mod of a model crate, and every pub item in a reached one, \
         must be named by code an experiment, kernel or perfbench workload \
         runs",
    ),
];

/// Run every per-file rule (R1–R6) over one file.
pub fn run_all(f: &ScannedFile<'_>, out: &mut Vec<Finding>) {
    determinism(f, out);
    hashmap_order(f, out);
    atomics_discipline(f, out);
    unsafe_audit(f, out);
    sync_facade(f, out);
    panic_path(f, out);
}

/// Collect the `::`-joined path segments ending at ident token `idx`
/// (walking backward over `seg::seg::…::idx`).
fn path_segments<'a>(f: &'a ScannedFile<'_>, idx: usize) -> Vec<&'a str> {
    let mut segs = vec![f.text(idx)];
    let mut i = idx;
    while let Some(sep) = f.prev_code(i) {
        if f.tokens[sep].kind != super::lexer::TokKind::PathSep {
            break;
        }
        let Some(prev) = f.prev_code(sep) else { break };
        if f.tokens[prev].kind != super::lexer::TokKind::Ident {
            break;
        }
        segs.push(f.text(prev));
        i = prev;
    }
    segs.reverse();
    segs
}

/// The ident tokens of the file, as (token index, text) pairs.
fn idents<'a>(f: &'a ScannedFile<'_>) -> impl Iterator<Item = (usize, &'a str)> {
    f.tokens
        .iter()
        .enumerate()
        .filter(|(_, t)| t.kind == super::lexer::TokKind::Ident)
        .map(|(i, t)| (i, t.text(f.src)))
}

// --- R1: determinism ------------------------------------------------------

fn determinism(f: &ScannedFile<'_>, out: &mut Vec<Finding>) {
    for (i, text) in idents(f) {
        let line = f.line_of_tok(i);
        if f.is_test_line(line) {
            continue;
        }
        match text {
            // `Instant::now()` / `SystemTime::now()` — only when `Instant`
            // is a path segment followed by `::`, so the `Phase::Instant`
            // enum variant and prose in strings/comments stay clean.
            "Instant" | "SystemTime" => {
                let followed_by_path = f
                    .next_code(i + 1)
                    .is_some_and(|j| f.tokens[j].kind == super::lexer::TokKind::PathSep);
                let segs = path_segments(f, i);
                let from_std_time = segs.len() == 1 || segs.contains(&"time");
                // `Phase::Instant`, `Trace::Instant` etc. have a non-time
                // leading segment.
                let enum_use = segs.len() > 1 && !segs.contains(&"time");
                if followed_by_path && from_std_time && !enum_use {
                    out.push(Finding {
                        rule: "determinism",
                        severity: Severity::Error,
                        line,
                        message: format!(
                            "wall-clock `{text}` use; experiments must be deterministic \
                             (model time, not host time)"
                        ),
                    });
                }
            }
            // `thread::sleep` / `std::thread::sleep`; a method `.sleep()`
            // on some model type is fine.
            "sleep" => {
                let segs = path_segments(f, i);
                if segs.len() > 1 && segs[segs.len() - 2] == "thread" {
                    out.push(Finding {
                        rule: "determinism",
                        severity: Severity::Error,
                        line,
                        message: "thread::sleep stalls the host clock, not model time".to_string(),
                    });
                }
            }
            // Unseeded randomness: anything that reaches for entropy. The
            // repo's `Rng64` is always explicitly seeded; `from_entropy`,
            // `thread_rng`, `random` (as a call) are the escape hatches
            // this rule closes.
            "thread_rng" | "from_entropy" => {
                out.push(Finding {
                    rule: "determinism",
                    severity: Severity::Error,
                    line,
                    message: format!("unseeded randomness via `{text}`; seed explicitly"),
                });
            }
            _ => {}
        }
    }
}

// --- R2: hashmap-order ----------------------------------------------------

fn hashmap_order(f: &ScannedFile<'_>, out: &mut Vec<Finding>) {
    // Flag `for … in` loops (and `.iter()/.keys()/.values()` chains) over
    // bindings whose type on this line or a nearby declaration is
    // HashMap/HashSet. Without types we use a file-local heuristic: if the
    // file never mentions HashMap/HashSet, skip entirely; otherwise flag
    // iteration constructs adjacent to the unordered types.
    let mentions: Vec<usize> = idents(f)
        .filter(|(_, t)| *t == "HashMap" || *t == "HashSet")
        .map(|(i, _)| i)
        .collect();
    if mentions.is_empty() {
        return;
    }

    // Heuristic A: `for … in &map` / `map.iter()` where `map` is declared
    // with HashMap/HashSet in this file. Collect declared names:
    // `name: HashMap<…>` or `let name … = HashMap::new()` patterns.
    let mut unordered_names: Vec<&str> = Vec::new();
    for &i in &mentions {
        // `name : HashMap` (field or binding annotation).
        if let Some(colon) = f.prev_code(i) {
            if f.text(colon) == ":" {
                if let Some(name) = f.prev_code(colon) {
                    if f.tokens[name].kind == super::lexer::TokKind::Ident {
                        unordered_names.push(f.text(name));
                    }
                }
            }
        }
    }
    unordered_names.sort_unstable();
    unordered_names.dedup();

    // Iteration sites: `for pat in expr` — find `in`, then look at the
    // expression's leading ident (after optional `&`/`&mut`).
    let toks = &f.tokens;
    for (i, text) in idents(f) {
        if text != "in" {
            continue;
        }
        // `for` must appear earlier on the statement for this to be a loop.
        let Some(mut j) = f.next_code(i + 1) else {
            continue;
        };
        while matches!(f.text(j), "&" | "mut") {
            let Some(n) = f.next_code(j + 1) else { break };
            j = n;
        }
        if toks[j].kind != super::lexer::TokKind::Ident {
            continue;
        }
        let line = f.line_of_tok(j);
        if f.is_test_line(line) {
            continue;
        }
        let head = f.text(j);
        // Either the iterated binding itself is a known unordered
        // container, or the expression is `self.<field>` where the field
        // is one.
        let field = (head == "self")
            .then(|| {
                let dot = f.next_code(j + 1)?;
                if f.text(dot) != "." {
                    return None;
                }
                let fi = f.next_code(dot + 1)?;
                (toks[fi].kind == super::lexer::TokKind::Ident).then(|| f.text(fi))
            })
            .flatten();
        let name = field.unwrap_or(head);
        if unordered_names.binary_search(&name).is_ok() {
            out.push(Finding {
                rule: "hashmap-order",
                severity: Severity::Error,
                line,
                message: format!(
                    "iterating `{name}` (HashMap/HashSet) yields arbitrary order; \
                     sort the keys or use BTreeMap"
                ),
            });
        }
    }
}

// --- R3: atomics discipline ----------------------------------------------

/// Atomic operations whose `Ordering` argument the rule inspects; counter
/// read-modify-writes where `Relaxed` needs no justification.
const COUNTER_OPS: &[&str] = &[
    "fetch_add",
    "fetch_sub",
    "load",
    "store",
    "fetch_or",
    "fetch_and",
];

/// All atomic ops that take an `Ordering` (superset of COUNTER_OPS).
const ATOMIC_OPS: &[&str] = &[
    "load",
    "store",
    "swap",
    "fetch_add",
    "fetch_sub",
    "fetch_or",
    "fetch_and",
    "fetch_xor",
    "fetch_update",
    "compare_exchange",
    "compare_exchange_weak",
    "fence",
    "compiler_fence",
];

fn atomics_discipline(f: &ScannedFile<'_>, out: &mut Vec<Finding>) {
    for (i, text) in idents(f) {
        if text != "SeqCst" && text != "Relaxed" {
            continue;
        }
        let segs = path_segments(f, i);
        // Must be `Ordering::SeqCst` / `…::atomic::Ordering::Relaxed`; the
        // checker's own `StdOrdering::` alias also counts, `cmp::Ordering`
        // has no SeqCst/Relaxed variants so no collision there.
        let is_ordering = segs
            .iter()
            .rev()
            .skip(1)
            .any(|s| *s == "Ordering" || *s == "StdOrdering");
        if !is_ordering {
            continue;
        }
        let line = f.line_of_tok(i);
        if f.is_test_line(line) {
            continue;
        }
        // Only orderings used as an argument of an atomic op need
        // justification — match arms / comparisons in the model checker's
        // own shadow-atomic implementation are data, not synchronization.
        let Some(call) = f.enclosing_call(i) else {
            continue;
        };
        if !ATOMIC_OPS.contains(&call) {
            continue;
        }
        let seqcst = text == "SeqCst";
        // Relaxed on a plain counter op is the sanctioned idiom for stats.
        if !seqcst && COUNTER_OPS.contains(&call) {
            continue;
        }
        if f.has_adjacent_tag(line, "ORDERING:") {
            continue;
        }
        out.push(Finding {
            rule: "atomics-discipline",
            severity: Severity::Error,
            line,
            message: format!(
                "`Ordering::{text}` on `{call}` without an adjacent `// ORDERING:` \
                 justification"
            ),
        });
    }
}

// --- R4: unsafe audit -----------------------------------------------------

fn unsafe_audit(f: &ScannedFile<'_>, out: &mut Vec<Finding>) {
    for (i, text) in idents(f) {
        if text != "unsafe" {
            continue;
        }
        let line = f.line_of_tok(i);
        // `unsafe` in tests still wants a SAFETY: note, but the audit's
        // scope (per the issue) is library code.
        if f.is_test_line(line) {
            continue;
        }
        if f.has_adjacent_tag(line, "SAFETY:") {
            continue;
        }
        let what = match f.next_code(i + 1).map(|j| f.text(j)) {
            Some("fn") => "fn",
            Some("impl") => "impl",
            Some("{") => "block",
            Some("trait") => "trait",
            _ => "use",
        };
        out.push(Finding {
            rule: "unsafe-audit",
            severity: Severity::Error,
            line,
            message: format!("`unsafe` {what} without an adjacent `// SAFETY:` comment"),
        });
    }
}

// --- R5: sync-facade ------------------------------------------------------

fn sync_facade(f: &ScannedFile<'_>, out: &mut Vec<Finding>) {
    // Applies only to the runtime crate's library sources; its `sync.rs`
    // IS the facade and carries explicit allows.
    if !f.rel_path.starts_with("crates/xxi-stack/src/") {
        return;
    }
    for (i, text) in idents(f) {
        if text != "std" {
            continue;
        }
        let line = f.line_of_tok(i);
        if f.is_test_line(line) {
            continue;
        }
        // Only path uses `std::…`.
        let Some(sep) = f.next_code(i + 1) else {
            continue;
        };
        if f.tokens[sep].kind != super::lexer::TokKind::PathSep {
            continue;
        }
        let Some(seg1) = f.next_code(sep + 1) else {
            continue;
        };
        match f.text(seg1) {
            "thread" => {
                out.push(Finding {
                    rule: "sync-facade",
                    severity: Severity::Error,
                    line,
                    message: "`std::thread` in xxi-stack; use the crate `sync` facade so \
                              `--features check` model-checks it"
                        .to_string(),
                });
            }
            "sync" => {
                let seg2 = f
                    .next_code(seg1 + 1)
                    .filter(|&j| f.tokens[j].kind == super::lexer::TokKind::PathSep)
                    .and_then(|j| f.next_code(j + 1))
                    .map(|j| f.text(j));
                if seg2 == Some("atomic") {
                    out.push(Finding {
                        rule: "sync-facade",
                        severity: Severity::Error,
                        line,
                        message: "`std::sync::atomic` in xxi-stack; use the crate `sync` \
                                  facade so `--features check` model-checks it"
                            .to_string(),
                    });
                }
            }
            _ => {}
        }
    }
}

// --- R6: panic-path -------------------------------------------------------

/// Receivers whose `unwrap()` propagates lock poisoning / thread panics —
/// the sanctioned idiom, not a new panic path.
const POISON_SOURCES: &[&str] = &[
    "lock",
    "join",
    "wait",
    "wait_timeout",
    "read",
    "write",
    "into_inner",
];

/// Is the `(` at `open` closed by a `)` whose next code token is `?`?
fn followed_by_question(f: &ScannedFile<'_>, open: usize) -> bool {
    let mut depth = 0i32;
    let mut i = open;
    while i < f.tokens.len() {
        match f.text(i) {
            "(" => depth += 1,
            ")" => {
                depth -= 1;
                if depth == 0 {
                    return f.next_code(i + 1).is_some_and(|j| f.text(j) == "?");
                }
            }
            _ => {}
        }
        i += 1;
    }
    false
}

fn panic_path(f: &ScannedFile<'_>, out: &mut Vec<Finding>) {
    // Binaries own their process; the warning is
    // aimed at library code that a caller can't recover around.
    if f.rel_path.ends_with("main.rs") || f.rel_path.contains("/bin/") {
        return;
    }
    for (i, text) in idents(f) {
        if text != "unwrap" && text != "expect" {
            continue;
        }
        let line = f.line_of_tok(i);
        if f.is_test_line(line) {
            continue;
        }
        // Must be a method call: `.unwrap(` — not `unwrap_or`, which the
        // exact ident match already excludes, and not a definition.
        let Some(dot) = f.prev_code(i) else { continue };
        if f.text(dot) != "." {
            continue;
        }
        let Some(open) = f.next_code(i + 1).filter(|&j| f.text(j) == "(") else {
            continue;
        };
        // `self.expect(b'{')?` — a same-named *Result-returning* method
        // whose error propagates via `?` is not a panic path.
        if followed_by_question(f, open) {
            continue;
        }
        // `.lock().unwrap()` and friends: poisoning propagation is fine.
        if let Some(recv_paren) = f.prev_code(dot) {
            if f.text(recv_paren) == ")" {
                // Walk back over the receiver's argument list to its name
                // (depth starts at 1 for `recv_paren` itself).
                let mut depth = 1i32;
                let mut j = recv_paren;
                let recv = loop {
                    let Some(p) = f.prev_code(j) else {
                        break None;
                    };
                    j = p;
                    match f.text(p) {
                        ")" => depth += 1,
                        "(" => {
                            depth -= 1;
                            if depth == 0 {
                                break f.prev_code(p);
                            }
                        }
                        _ => {}
                    }
                };
                if let Some(r) = recv {
                    if POISON_SOURCES.contains(&f.text(r)) {
                        continue;
                    }
                }
            }
        }
        out.push(Finding {
            rule: "panic-path",
            severity: Severity::Warning,
            line,
            message: format!(
                "`.{text}()` in library code panics on failure; return an error or \
                 document why it cannot fail"
            ),
        });
    }
}
