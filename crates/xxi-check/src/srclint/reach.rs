//! R7 `model-reach`: every model module, and every `pub` item in one, is
//! reached by a report.
//!
//! The repository's contract is that each model answers a paper claim in
//! an experiment that prints it. This rule walks the code the reports run
//! and reports any `pub mod` of a model crate that none of it reaches, so
//! a model cannot sit in the tree with only its own unit tests for
//! company. It is the one rule that needs the whole file set.
//!
//! - **Roots**: every file under `crates/xxi-bench/src` (each experiment
//!   and kernel) and `perfbench/src` (each benchmark workload). Examples
//!   are not roots: they show the models off, but print no report.
//! - **Module uses**: a module is reached when reached code names it by
//!   path: `xxi_<crate>::<mod>`, `xxi::<alias>::<mod>` (aliases read from
//!   the facade `src/lib.rs`), a name the crate's `lib.rs` re-exports from
//!   it (through either prefix, grouped `use { … }` lists included), or
//!   `crate::<mod>`/`super::<mod>` inside its own crate. The walk is
//!   transitive through the non-test code of every module reached,
//!   directory modules included. Comments, string literals, test code and
//!   plain words do not count: a word grep takes `pipeline` for reached
//!   through a same-named item elsewhere.
//! - **Item uses**: a `pub` `fn`, `const fn`, `struct`, `enum`, `const`,
//!   `trait` or `type` in a reached module is reported when its name is
//!   no identifier anywhere else in reached non-test code (the crate's
//!   `lib.rs` re-exports are plumbing, not uses). Without types a method
//!   call cannot be resolved, so this works on names: it can miss a dead
//!   item, never report a used one.
//!
//! An item kept for a reason (say, a test oracle or an `xxi lint` check)
//! carries an `xxi-allow` comment for this rule, with the reason, on its
//! line. The engine's unused-suppression warning makes those comments
//! exact and shrink-only: one left on an item that becomes reached or
//! goes is itself a finding.

use std::collections::{BTreeMap, BTreeSet};

use super::lexer::TokKind;
use super::rules::Finding;
use super::scan::{self, mod_file_candidates, ScannedFile};
use crate::lint::Severity;

/// The model crates whose modules are checked, by directory suffix.
const MODEL_CRATES: [&str; 12] = [
    "core", "tech", "mem", "noc", "cpu", "accel", "rel", "sec", "approx", "sensor", "cloud",
    "stack",
];

/// The code that runs reports: a file under one of these is a root.
const ROOTS: [&str; 2] = ["crates/xxi-bench/src/", "perfbench/src/"];

/// The facade crate, whose `pub use xxi_<crate> as <alias>;` lines name
/// the aliases `xxi::<alias>::…` paths go through.
const FACADE: &str = "src/lib.rs";

/// Item keywords checked after `pub`.
const ITEM_KINDS: [&str; 6] = ["fn", "struct", "enum", "const", "trait", "type"];

/// Run R7 over the whole file set, pushing each finding onto its file's
/// list in `out` (one list per file, in the order of `files`).
pub fn model_reach(files: &[ScannedFile<'_>], out: &mut [Vec<Finding>]) {
    let by_path = scan::by_path(files);
    let codes: Vec<Code<'_, '_>> = files.iter().map(Code::of).collect();
    let ws = Workspace::load(&codes, &by_path);

    // The module walk, from every root file.
    let mut reached = BTreeSet::new();
    let mut reached_files = Vec::new();
    let mut todo: Vec<(Option<&str>, bool, usize)> = files
        .iter()
        .enumerate()
        .filter(|(_, f)| ROOTS.iter().any(|r| f.rel_path.starts_with(r)))
        .map(|(i, _)| (None, false, i))
        .collect();
    let roots: Vec<usize> = todo.iter().map(|&(_, _, i)| i).collect();
    while let Some((home, top, file)) = todo.pop() {
        for (krate, m) in ws.uses(home, top, &codes[file]) {
            if !reached.insert((krate, m)) {
                continue;
            }
            for (idx, top) in ws.crates[krate].module_files(files, &by_path, m) {
                reached_files.push((krate, m, idx));
                todo.push((Some(krate), top, idx));
            }
        }
    }

    for (krate, c) in &ws.crates {
        for (m, &line) in &c.mods {
            if !reached.contains(&(krate.as_str(), m.as_str())) {
                let message = format!(
                    "`{}::{m}` is reached by no experiment, kernel or perfbench workload; \
                     give it a report or delete it",
                    krate.replace('_', "-")
                );
                out[c.lib].push(finding(line, message));
            }
        }
    }

    // The `pub` items of reached modules (as `pub` token, kind and name
    // token), and every name reached code uses apart from their own.
    let pub_items = |file: usize| {
        let code = &codes[file];
        (0..code.len()).filter_map(move |at| {
            let (kind, name) = code.pub_item(at)?;
            Some((code.toks[at], kind, name))
        })
    };
    let defs: BTreeSet<(usize, usize)> = reached_files
        .iter()
        .flat_map(|&(_, _, file)| pub_items(file).map(move |(_, _, name)| (file, name)))
        .collect();
    let mut named = BTreeSet::new();
    for &file in roots.iter().chain(reached_files.iter().map(|(_, _, f)| f)) {
        let code = &codes[file];
        for &t in &code.toks {
            if code.f.tokens[t].kind == TokKind::Ident && !defs.contains(&(file, t)) {
                named.insert(code.f.text(t));
            }
        }
    }
    // `pub use m::item as alias;` in `lib.rs`: a use of `alias` is a use
    // of `item`.
    for c in ws.crates.values() {
        for (alias, item) in &c.renames {
            if named.contains(alias.as_str()) {
                named.insert(item);
            }
        }
    }
    for &(krate, module, file) in &reached_files {
        for (pub_tok, kind, name) in pub_items(file) {
            let name = files[file].text(name);
            if named.contains(name) {
                continue;
            }
            let message = format!(
                "`pub {kind} {name}` in `{}::{module}` is named by no reached non-test \
                 code; delete it, make it private, or keep it with a reason",
                krate.replace('_', "-")
            );
            out[file].push(finding(files[file].line_of_tok(pub_tok), message));
        }
    }
}

fn finding(line: usize, message: String) -> Finding {
    Finding {
        rule: "model-reach",
        severity: Severity::Error,
        line,
        message,
    }
}

/// The tokens of a file that a build without tests compiles: no
/// whitespace, no comments, nothing on a `#[cfg(test)]` line.
struct Code<'f, 'a> {
    f: &'f ScannedFile<'a>,
    /// Indices into `f.tokens`.
    toks: Vec<usize>,
}

impl<'f, 'a> Code<'f, 'a> {
    fn of(f: &'f ScannedFile<'a>) -> Code<'f, 'a> {
        let toks = (0..f.tokens.len())
            .filter(|&i| {
                !matches!(
                    f.tokens[i].kind,
                    TokKind::Ws | TokKind::LineComment | TokKind::BlockComment
                ) && !f.in_cfg_test(f.line_of_tok(i))
            })
            .collect();
        Code { f, toks }
    }

    fn len(&self) -> usize {
        self.toks.len()
    }

    /// The text of code token `at`, empty past the end.
    fn text(&self, at: usize) -> &'f str {
        self.toks.get(at).map_or("", |&t| self.f.text(t))
    }

    /// The identifier at `at`, if that token is one.
    fn ident(&self, at: usize) -> Option<&'f str> {
        let &t = self.toks.get(at)?;
        (self.f.tokens[t].kind == TokKind::Ident).then(|| self.f.text(t))
    }

    /// Does the identifier at `at` start a path: not a segment after
    /// `::`, nor `$crate`, nor glued to a `:`?
    fn starts_path(&self, at: usize) -> bool {
        let t = self.toks[at];
        t == 0 || {
            let before = self.f.text(t - 1);
            !(before.ends_with(':') || before == "$")
        }
    }

    /// The item kind and name-token index of a `pub` item at `at`:
    /// `pub [const|unsafe] fn name`, `pub struct name`, `pub const NAME`…
    /// Restricted visibility (`pub(crate)`) is no `pub` item.
    fn pub_item(&self, at: usize) -> Option<(&'static str, usize)> {
        if self.text(at) != "pub" {
            return None;
        }
        let mut k = at + 1;
        if matches!(self.text(k), "const" | "unsafe") && self.text(k + 1) == "fn" {
            k += 1;
        }
        let kind = ITEM_KINDS.into_iter().find(|&w| w == self.text(k))?;
        self.ident(k + 1)
            .filter(|&n| n != "_")
            .map(|_| (kind, self.toks[k + 1]))
    }

    /// Every path the use tree or expression path at `*at` names, as its
    /// segments and `as` alias: `a::{b, c::d as e}` is `a::b` and
    /// `a::c::d` (alias `e`). A path ends at the first token that is not
    /// `::` and a name, as in `a::f(…)` or `a::T::<u8>`.
    fn tree(&self, at: &mut usize) -> Vec<(Vec<&'f str>, Option<&'f str>)> {
        if self.text(*at) == "{" {
            *at += 1;
            let mut out = Vec::new();
            while *at < self.len() {
                match self.text(*at) {
                    "}" => {
                        *at += 1;
                        break;
                    }
                    "," => *at += 1,
                    _ => {
                        let from = *at;
                        out.extend(self.tree(at).into_iter().filter(|(s, _)| !s.is_empty()));
                        *at = (*at).max(from + 1);
                    }
                }
            }
            return out;
        }
        let Some(name) = self.ident(*at) else {
            return vec![(Vec::new(), None)];
        };
        *at += 1;
        if self.toks.get(*at).map(|&t| self.f.tokens[t].kind) == Some(TokKind::PathSep) {
            *at += 1;
            let mut paths = self.tree(at);
            for (segs, _) in &mut paths {
                segs.insert(0, name);
            }
            return paths;
        }
        let alias = match self.text(*at) {
            "as" => self.ident(*at + 1),
            _ => None,
        };
        if alias.is_some() {
            *at += 2;
        }
        vec![(vec![name], alias)]
    }
}

/// One model crate: its `lib.rs` and the names it exposes.
struct Crate {
    /// The index of its `lib.rs`.
    lib: usize,
    /// Its top-level `pub mod`s, with the line each is declared on.
    mods: BTreeMap<String, usize>,
    /// Each name `lib.rs` re-exports, with the module it comes from.
    exports: BTreeMap<String, String>,
    /// Each `as` alias of a re-export, with the item it renames.
    renames: BTreeMap<String, String>,
}

impl Crate {
    fn new(lib: usize, code: &Code<'_, '_>) -> Crate {
        let f = code.f;
        let mods: BTreeMap<String, usize> = f
            .mod_decls()
            .into_iter()
            .filter(|&(line, _, public)| public && !f.in_cfg_test(line))
            .map(|(line, name, _)| (name.to_string(), line))
            .collect();
        let (mut exports, mut renames) = (BTreeMap::new(), BTreeMap::new());
        for at in 0..code.len() {
            if code.text(at) != "pub" || code.text(at + 1) != "use" {
                continue;
            }
            for (segs, alias) in code.tree(&mut (at + 2)) {
                let segs = segs.strip_prefix(&["self"]).unwrap_or(&segs);
                if let [m, .., name] = segs {
                    if mods.contains_key(*m) {
                        let name = alias.unwrap_or(name).to_string();
                        exports.insert(name, m.to_string());
                    }
                }
                if let (Some(item), Some(alias)) = (segs.last(), alias) {
                    renames.insert(alias.to_string(), item.to_string());
                }
            }
        }
        Crate {
            lib,
            mods,
            exports,
            renames,
        }
    }

    /// The files of module `m` (index, and whether its `super` is the
    /// crate root): `m.rs` or `m/mod.rs`, then every file a non-test
    /// `mod x;` in one of them declares.
    fn module_files(
        &self,
        files: &[ScannedFile<'_>],
        by_path: &BTreeMap<&str, usize>,
        m: &str,
    ) -> Vec<(usize, bool)> {
        let mut out = Vec::new();
        let lib = files[self.lib].rel_path;
        let mut todo = vec![(mod_file_candidates(lib, m), true)];
        while let Some((candidates, top)) = todo.pop() {
            let Some(&idx) = candidates.iter().find_map(|p| by_path.get(p.as_str())) else {
                continue;
            };
            let f = &files[idx];
            for (line, child, _) in f.mod_decls() {
                if !f.in_cfg_test(line) {
                    todo.push((mod_file_candidates(f.rel_path, child), false));
                }
            }
            out.push((idx, top));
        }
        out
    }
}

/// The checked crates, keyed by crate name (`xxi_mem`), and the facade's
/// aliases for them (`mem` for `xxi::mem`).
struct Workspace {
    crates: BTreeMap<String, Crate>,
    aliases: BTreeMap<String, String>,
}

impl Workspace {
    /// The model crates that have a `lib.rs`, and the facade's aliases if
    /// there is a facade. Missing files mean fewer checks, never a panic:
    /// the root is whatever directory the linter was pointed at.
    fn load(codes: &[Code<'_, '_>], by_path: &BTreeMap<&str, usize>) -> Workspace {
        let mut crates = BTreeMap::new();
        for name in MODEL_CRATES {
            if let Some(&lib) = by_path.get(format!("crates/xxi-{name}/src/lib.rs").as_str()) {
                crates.insert(format!("xxi_{name}"), Crate::new(lib, &codes[lib]));
            }
        }
        let mut aliases = BTreeMap::new();
        if let Some(&facade) = by_path.get(FACADE) {
            let code = &codes[facade];
            for at in 0..code.len() {
                if code.text(at) != "use" || !code.starts_path(at) {
                    continue;
                }
                for (segs, alias) in code.tree(&mut (at + 1)) {
                    if let ([krate], Some(alias)) = (&segs[..], alias) {
                        if crates.contains_key(*krate) {
                            aliases.insert(alias.to_string(), krate.to_string());
                        }
                    }
                }
            }
        }
        Workspace { crates, aliases }
    }

    /// The `(crate, module)`s that `code` names by path. `home` is the
    /// crate the code belongs to, if any; `top` says its `super` is the
    /// crate root. (An inline module's `super` is read the same way.)
    fn uses<'w>(
        &'w self,
        home: Option<&'w str>,
        top: bool,
        code: &Code<'_, '_>,
    ) -> Vec<(&'w str, &'w str)> {
        let mut out = Vec::new();
        for at in 0..code.len() {
            let Some(word) = code.ident(at) else { continue };
            let prefix =
                matches!(word, "xxi" | "crate" | "super") || self.crates.contains_key(word);
            if !prefix || !code.starts_path(at) {
                continue;
            }
            for (segs, _) in code.tree(&mut at.clone()) {
                let (krate, rest) = match (segs[0], home) {
                    ("xxi", _) => match segs.get(1).and_then(|a| self.aliases.get(*a)) {
                        Some(k) => (k.as_str(), &segs[2..]),
                        None => continue,
                    },
                    ("crate", Some(h)) => (h, &segs[1..]),
                    ("super", Some(h)) if top => (h, &segs[1..]),
                    (k, _) => match self.crates.get_key_value(k) {
                        Some((k, _)) => (k.as_str(), &segs[1..]),
                        None => continue,
                    },
                };
                let (Some(c), Some(first)) = (self.crates.get(krate), rest.first()) else {
                    continue;
                };
                let module = match c.mods.get_key_value(*first) {
                    Some((m, _)) => m,
                    None => match c.exports.get(*first) {
                        Some(m) => m,
                        None => continue,
                    },
                };
                out.push((krate, module.as_str()));
            }
        }
        out
    }
}
