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
//! - **Item uses**: a free `pub` `fn`, `const fn`, `struct`, `enum`,
//!   `const`, `trait` or `type` in a reached module is reported when its
//!   name is no identifier anywhere else in reached non-test code (the
//!   crate's `lib.rs` re-exports and an `impl` naming its type are no
//!   uses). Below that, uses resolve by path:
//!   - a `pub fn` or `pub const` in `impl T` needs `T::item`, `Self::item`
//!     inside an impl of `T`, or, for a method taking `self`, `.item`;
//!   - a variant of a reached `pub enum E` needs a build: `E::V`,
//!     `Self::V`, or a bare `V` that `use …E::*` or `use …E::V` brings in,
//!     outside a pattern (a match arm, a `let` or `matches!`). A variant
//!     that is only matched is dead;
//!   - a `pub` field of a reached `pub struct` needs a read: `.f` not
//!     assigned with a plain `=`, or `f` in a destructuring pattern.
//!
//!   Type names resolve by text, through `use … as` renames. Without
//!   types this can miss a dead item; it never reports one that reached
//!   code builds, calls or reads.
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

    // What the code reports run does with names: roots and reached model
    // files, each with its impl and pattern structure.
    let shapes: BTreeMap<usize, _> = roots
        .iter()
        .chain(reached_files.iter().map(|(_, _, f)| f))
        .map(|&file| (file, (codes[file].impls(), codes[file].patterns())))
        .collect();
    let mut uses = Uses::default();
    for (&file, (impls, pattern)) in &shapes {
        uses.add(&codes[file], impls, pattern, !roots.contains(&file));
    }
    // `pub use m::item as alias;` in `lib.rs`: a use of `alias` is a use
    // of `item`.
    for c in ws.crates.values() {
        for (alias, item) in &c.renames {
            uses.renames.insert(alias, item);
        }
    }
    uses.resolve_renames();

    for &(krate, module, file) in &reached_files {
        let (code, impls) = (&codes[file], &shapes[&file].0);
        for (at, owner) in impls.iter().enumerate() {
            let Some((kind, n)) = code.pub_item(at) else {
                continue;
            };
            let name = code.text(n);
            // (token, what, how it would be used) for each dead part.
            let mut dead = Vec::new();
            if let Some(ty) = owner.filter(|_| matches!(kind, "fn" | "const")) {
                let method = kind == "fn" && code.takes_self(n);
                if !(uses.paths.contains(&(ty, name)) || method && uses.reads.contains(name)) {
                    let how = if method {
                        format!("used as `{ty}::{name}`, `Self::{name}` or `.{name}`")
                    } else {
                        format!("used as `{ty}::{name}` or `Self::{name}`")
                    };
                    dead.push((at, format!("pub {kind} {name}` of `{ty}"), how));
                }
            } else if !uses.named.contains(name) {
                dead.push((at, format!("pub {kind} {name}"), "named".into()));
            } else {
                for m in code.members(kind, n) {
                    let member = code.text(m);
                    if kind == "enum" && !uses.built.contains(&(name, member)) {
                        dead.push((m, format!("{name}::{member}"), "built".into()));
                    } else if kind == "struct" && !uses.reads.contains(member) {
                        dead.push((m, format!("{name}.{member}"), "read".into()));
                    }
                }
            }
            for (tok, what, how) in dead {
                let message = format!(
                    "`{what}` in `{}::{module}` is {how} by no reached non-test code; \
                     delete it, or keep it with a reason",
                    krate.replace('_', "-")
                );
                out[file].push(finding(files[file].line_of_tok(code.toks[tok]), message));
            }
        }
    }
}

/// What reached non-test code does with names, resolved as far as tokens
/// and `use` trees allow, without types.
#[derive(Default)]
struct Uses<'a> {
    /// Every identifier apart from the names of model `pub` items.
    named: BTreeSet<&'a str>,
    /// `(T, item)` for each path `T::item`, and for `Self::item` inside an
    /// impl of `T`.
    paths: BTreeSet<(&'a str, &'a str)>,
    /// The enum variants built: `paths` outside pattern position, and
    /// `(E, V)` for a bare `V` that `use …E::*` or `use …E::V` brings in.
    built: BTreeSet<(&'a str, &'a str)>,
    /// `x` for each `.x` that is not the target of a plain `=`, and each
    /// field name a destructuring pattern binds.
    reads: BTreeSet<&'a str>,
    /// Each `use … as alias` with the name it renames.
    renames: BTreeMap<&'a str, &'a str>,
}

impl<'a> Uses<'a> {
    /// Add one file's uses, given its [`Code::impls`] and
    /// [`Code::patterns`]. An `impl` naming its type is no use, nor, in a
    /// model file, the names its own `pub` items declare.
    fn add(
        &mut self,
        code: &Code<'a, '_>,
        impls: &[Option<&'a str>],
        pattern: &[bool],
        model: bool,
    ) {
        let n = code.len();
        let defs: BTreeSet<usize> = (0..n)
            .filter_map(|at| {
                let item = code.pub_item(at).filter(|_| model).map(|(_, name)| name);
                code.impl_type(at).or(item)
            })
            .collect();
        // The tokens of `use` trees, each `E::*` glob and each `E::V [as W]`.
        let (mut in_use, mut globs, mut imports) = (vec![false; n], Vec::new(), BTreeMap::new());
        for at in (0..n).filter(|&at| code.text(at) == "use" && code.starts_path(at)) {
            let mut end = at + 1;
            for (segs, alias) in code.tree(&mut end) {
                match segs[..] {
                    [.., ty, "*"] => globs.push(ty),
                    [.., ty, item] => {
                        imports.insert(alias.unwrap_or(item), (ty, item));
                    }
                    _ => {}
                }
                if let (Some(&item), Some(alias)) = (segs.last(), alias) {
                    self.renames.insert(alias, item);
                }
            }
            in_use[at..end.min(n)].fill(true);
        }
        for at in 1..n {
            let range = code.glued(at - 1) && code.text(at - 1) == ".";
            if code.text(at) == "." && !range && !code.plain_eq(at + 2) {
                self.reads.extend(code.ident(at + 1));
            }
            let Some(word) = code.ident(at) else { continue };
            if !defs.contains(&at) {
                self.named.insert(word);
            }
            let (before, after) = (code.text(at - 1), code.text(at + 1));
            if in_use[at] {
                continue;
            } else if pattern[at]
                && matches!(before, "{" | "," | "ref" | "mut")
                && matches!(after, "," | "}" | ":")
            {
                self.reads.insert(word);
            }
            if before == "::" {
                let ty = match code.ident(at.wrapping_sub(2)) {
                    Some("Self") => impls[at],
                    ty => ty,
                };
                self.paths.extend(ty.map(|ty| (ty, word)));
                self.built
                    .extend(ty.filter(|_| !pattern[at]).map(|ty| (ty, word)));
            } else if !pattern[at] && before != "." && after != "::" {
                self.built.extend(imports.get(word).copied());
                self.built.extend(globs.iter().map(|&ty| (ty, word)));
            }
        }
    }

    /// Credit each alias's uses to the name it renames.
    fn resolve_renames(&mut self) {
        let renames = &self.renames;
        for set in [&mut self.paths, &mut self.built] {
            let renamed: Vec<_> = set
                .iter()
                .filter_map(|&(ty, item)| Some((*renames.get(ty)?, item)))
                .collect();
            set.extend(renamed);
        }
        let named: Vec<_> = renames
            .iter()
            .filter(|(alias, _)| self.named.contains(*alias))
            .map(|(_, &i)| i)
            .collect();
        self.named.extend(named);
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

    /// Is code token `at + 1` glued to `at`, with nothing between?
    fn glued(&self, at: usize) -> bool {
        matches!((self.toks.get(at), self.toks.get(at + 1)), (Some(&a), Some(&b)) if b == a + 1)
    }

    /// Is the `=` at `at` an assignment or a binding, not part of `==`,
    /// `=>`, `<=`, `+=` or another operator?
    fn plain_eq(&self, at: usize) -> bool {
        let punct_before = at > 0 && self.glued(at - 1) && self.ident(at - 1).is_none();
        self.text(at) == "="
            && !punct_before
            && !(self.glued(at) && matches!(self.text(at + 1), "=" | ">"))
    }

    /// Does a match arm's `=>` start at `at`?
    fn fat_arrow(&self, at: usize) -> bool {
        self.text(at) == "=" && self.glued(at) && self.text(at + 1) == ">"
    }

    /// Is the `>` at `at` the head of a `->`, not a closing angle?
    fn thin_arrow(&self, at: usize) -> bool {
        at > 0 && self.glued(at - 1) && self.text(at - 1) == "-"
    }

    /// The first index in `from..end` at bracket depth 0 where `stop`
    /// holds or a closing bracket leaves the group `from` is in; `end` if
    /// none.
    fn scan(&self, from: usize, end: usize, mut stop: impl FnMut(usize) -> bool) -> usize {
        let mut depth = 0usize;
        for k in from..end {
            if depth == 0 && stop(k) {
                return k;
            }
            match self.text(k) {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" if depth == 0 => return k,
                ")" | "]" | "}" => depth -= 1,
                _ => {}
            }
        }
        end
    }

    /// The index of the bracket that closes the one at `at`.
    fn close(&self, at: usize) -> usize {
        self.scan(at + 1, self.len(), |_| false)
    }

    /// The index just past the generics `<…>` that start at `at`, or `at`
    /// if none do.
    fn skip_angles(&self, at: usize) -> usize {
        let mut depth = 0usize;
        for k in at..self.len() {
            match self.text(k) {
                "<" => depth += 1,
                ">" if depth > 0 && !self.thin_arrow(k) => depth -= 1,
                _ => {}
            }
            if depth == 0 {
                return if k == at { at } else { k + 1 };
            }
        }
        self.len()
    }

    /// The item kind and name index of a `pub` item at `at`:
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
            .map(|_| (kind, k + 1))
    }

    /// Does the `fn` named at `name` take `self` first?
    fn takes_self(&self, name: usize) -> bool {
        let open = self.skip_angles(name + 1);
        let end = self.scan(open + 1, self.len(), |k| self.text(k) == ",");
        self.text(open) == "(" && (open + 1..end).any(|k| self.text(k) == "self")
    }

    /// The name indices of the variants of the `enum`, or the `pub` fields
    /// of the `struct`, named at `name`.
    fn members(&self, kind: &str, name: usize) -> Vec<usize> {
        let from = self.skip_angles(name + 1);
        let open = self.scan(from, self.len(), |k| {
            matches!(self.text(k), "{" | "(" | ";")
        });
        if !matches!(kind, "enum" | "struct") || self.text(open) != "{" {
            return Vec::new();
        }
        let end = self.close(open);
        let mut out = Vec::new();
        let mut k = open + 1;
        while k < end {
            while self.text(k) == "#" {
                k = self.close(k + 1) + 1;
            }
            let member = match kind {
                "enum" => k,
                _ if self.text(k) == "pub" => k + 1,
                _ => end,
            };
            if member < end && self.ident(member).is_some() {
                out.push(member);
            }
            // The next `,` outside the member's generics.
            let mut angle = 0i32;
            k = 1 + self.scan(k, end, |j| {
                angle += match self.text(j) {
                    "<" => 1,
                    ">" if !self.thin_arrow(j) => -1,
                    _ => 0,
                };
                angle <= 0 && self.text(j) == ","
            });
        }
        out
    }

    /// For each code token, the type of the innermost `impl` block around
    /// it (see [`Code::impl_type`]).
    fn impls(&self) -> Vec<Option<&'f str>> {
        let mut out = Vec::with_capacity(self.len());
        let (mut open, mut header): (Vec<Option<&'f str>>, _) = (Vec::new(), None);
        for at in 0..self.len() {
            match self.text(at) {
                "impl" => header = self.impl_type(at).map(|k| self.text(k)),
                "{" => {
                    let inner = header.take().or(open.last().copied().flatten());
                    open.push(inner);
                }
                "}" => {
                    open.pop();
                }
                _ => {}
            }
            out.push(open.last().copied().flatten());
        }
        out
    }

    /// The index of the self type that an item `impl` at `at` names:
    /// `Foo` in `impl Foo` and in `impl<T> Tr for Foo<T>`. None for an
    /// `impl Trait` type, or a macro's `impl $t`.
    fn impl_type(&self, at: usize) -> Option<usize> {
        let item = at == 0 || matches!(self.text(at - 1), "}" | ";" | "{" | "]" | "unsafe");
        if self.text(at) != "impl" || !item {
            return None;
        }
        let (mut ty, mut depth) = (None, 0usize);
        let mut k = self.skip_angles(at + 1);
        while k < self.len() && !(depth == 0 && matches!(self.text(k), "{" | ";" | "where")) {
            match self.text(k) {
                "<" => depth += 1,
                ">" if !self.thin_arrow(k) => depth = depth.saturating_sub(1),
                "for" if depth == 0 => ty = None,
                _ if depth == 0 && self.ident(k).is_some() => {
                    ty = Some(k).filter(|_| self.text(k - 1) != "$");
                }
                _ => {}
            }
            k += 1;
        }
        ty
    }

    /// For each code token, is it in a pattern: a match arm's (up to its
    /// guard), a `let`'s (up to its `=` or type), or `matches!`'s?
    fn patterns(&self) -> Vec<bool> {
        let n = self.len();
        let mut mask = vec![false; n];
        for at in 0..n {
            match self.text(at) {
                "let" => {
                    let end = self.scan(at + 1, n, |k| {
                        matches!(self.text(k), ";" | ":") || self.plain_eq(k)
                    });
                    mask[at + 1..end].fill(true);
                }
                "matches" if self.text(at + 1) == "!" && self.text(at + 2) == "(" => {
                    let end = self.close(at + 2);
                    let comma = self.scan(at + 3, end, |k| self.text(k) == ",");
                    let guard = self.scan(comma, end, |k| self.text(k) == "if");
                    mask[comma..guard].fill(true);
                }
                "match" => {
                    let open = self.scan(at + 1, n, |k| self.text(k) == "{");
                    if self.text(open) != "{" {
                        continue;
                    }
                    let end = self.close(open);
                    let mut k = open + 1;
                    while k < end {
                        let arrow = self.scan(k, end, |j| self.fat_arrow(j));
                        let guard = self.scan(k, arrow, |j| self.text(j) == "if");
                        mask[k..guard].fill(true);
                        k = arrow + 2;
                        k = if self.text(k) == "{" {
                            let after = self.close(k) + 1;
                            after + usize::from(self.text(after) == ",")
                        } else {
                            self.scan(k, end, |j| self.text(j) == ",") + 1
                        };
                    }
                }
                _ => {}
            }
        }
        mask
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
        if self.text(*at) == "*" {
            *at += 1;
            return vec![(vec!["*"], None)];
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
