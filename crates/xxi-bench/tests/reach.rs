//! Every model module must be reached by a report.
//!
//! The repository's contract is that each model answers a paper claim in
//! an experiment that prints it. This test walks the code the reports run
//! and fails on any `pub mod` of a model crate that none of it reaches,
//! so a model cannot sit in the tree with only its own unit tests for
//! company.
//!
//! - **Roots**: `crates/xxi-bench/src` (every experiment and kernel),
//!   `perfbench/src` and `examples/`, read as text.
//! - **Uses**: a module is reached when reached code names it by path:
//!   `xxi_<crate>::<mod>`, `xxi::<alias>::<mod>`, a name `lib.rs`
//!   re-exports from it (through either prefix, grouped `use { … }`
//!   lists included), or `crate::<mod>`/`super::<mod>` inside its own
//!   crate. The walk is transitive through the non-test code of every
//!   module reached, directory modules included.
//! - **Not uses**: comments, string literals and `#[cfg(test)]` items.
//!   Plain words do not count either: a word grep takes `pipeline` and
//!   `locality` for reached through same-named items elsewhere, such as
//!   an `Op`, a `Task` or a `simulate` function.
//!
//! [`PENDING_FOLD_IN`] names the modules still waiting for their
//! experiment. It must match the unreached set exactly, so it can only
//! shrink: a listed module that becomes reached (or is deleted) fails the
//! test until its entry goes.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::Path;

/// The model crates whose modules are checked, by directory suffix.
const MODEL_CRATES: [&str; 11] = [
    "tech", "mem", "noc", "cpu", "accel", "rel", "sec", "approx", "sensor", "cloud", "stack",
];

/// Unreached modules, each with the experiment it is to be folded into.
const PENDING_FOLD_IN: [(&str, &str); 4] = [
    ("xxi-cpu::pipeline", "E2"),
    ("xxi-noc::crossbar", "E13"),
    ("xxi-rel::tmr", "E15"),
    ("xxi-stack::locality", "E18"),
];

#[test]
fn every_model_module_is_reached_by_a_report() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let ws = Workspace::load(&root);
    let mut roots = BTreeMap::new();
    for dir in ["crates/xxi-bench/src", "perfbench/src", "examples"] {
        read_sources(&root.join(dir), &format!("{dir}/"), &mut roots);
    }
    let roots: Vec<String> = roots.into_values().collect();
    let unreached = ws.unreached(&roots);
    let pending: BTreeSet<String> = PENDING_FOLD_IN.iter().map(|(m, _)| m.to_string()).collect();
    let orphans: Vec<&String> = unreached.difference(&pending).collect();
    let folded: Vec<&String> = pending.difference(&unreached).collect();
    assert!(
        orphans.is_empty(),
        "no experiment, kernel, example or perfbench workload reaches {orphans:?}: \
         give each a report or delete it"
    );
    assert!(
        folded.is_empty(),
        "{folded:?} are reached or gone now: drop them from PENDING_FOLD_IN"
    );
}

#[test]
fn the_scanner_counts_paths_in_code_and_nothing_else() {
    let lib = "//! [`quiet`] is only named in docs.\n\
               pub mod alpha;\npub mod beta;\npub mod gamma;\npub mod quiet;\n\
               pub mod tested;\npub mod zeta;\npub mod eta;\npub mod theta;\n\
               pub mod iota;\npub mod kappa;\npub mod lambda;\npub mod core;\n\
               pub use zeta::{Zed, make as make_zed};\npub use self::core::Engine;\n";
    let files = [
        ("lib.rs", lib),
        // Reached from alpha through `crate::` and `super::`.
        (
            "alpha.rs",
            "use crate::beta::B;\nfn f() { super::gamma::g() }\n",
        ),
        // Named only in a comment, a block comment and a string.
        (
            "gamma.rs",
            "// xxi_mem::quiet\n/* crate::quiet::Q */\nfn g() { \"xxi_mem::quiet\"; }\n",
        ),
        // Named only by test code, in both `#[cfg(test)]` item forms.
        (
            "beta.rs",
            "#[cfg(test)]\nuse crate::tested::T;\n\
             #[cfg(test)]\nmod tests {\n    use super::super::tested::{self, T};\n\
             fn t() { crate::tested::t(); }\n}\npub struct B;\n",
        ),
        // A directory module: `eta/mod.rs`, one child that counts and an
        // out-of-line test module that does not.
        ("eta/mod.rs", "mod inner;\n#[cfg(test)]\nmod reference;\n"),
        // `super` here is eta, so `super::tested` is not the crate's.
        ("eta/inner.rs", "use crate::theta::T;\nuse super::tested;\n"),
        ("eta/reference.rs", "use crate::iota::I;\n"),
        // The `kappa.rs` + `kappa/` layout.
        ("kappa.rs", "pub(crate) mod sub;\n"),
        ("kappa/sub.rs", "fn s() -> crate::lambda::L { todo!() }\n"),
    ]
    .map(|(p, s)| (p.to_string(), s.to_string()));
    let ws = Workspace {
        crates: BTreeMap::from([("xxi_mem".to_string(), Crate::new(BTreeMap::from(files)))]),
        aliases: BTreeMap::from([("mem".to_string(), "xxi_mem".to_string())]),
    };
    let unreached = |root: &str| -> Vec<String> {
        ws.unreached(&[root.to_string()])
            .into_iter()
            .map(|m| m.trim_start_matches("xxi-mem::").to_string())
            .collect()
    };
    let all = [
        "alpha", "beta", "core", "eta", "gamma", "iota", "kappa", "lambda", "quiet", "tested",
        "theta", "zeta",
    ];
    assert_eq!(unreached("fn main() {}"), all);
    // A grouped import reaches alpha and, through it, beta and gamma; a
    // crate-root re-export under its alias reaches zeta, one through
    // `self::` reaches core, and the facade path reaches the directory
    // modules and what their non-test files name.
    let root = "use xxi_mem::{alpha::{self, A}, make_zed};\n\
                fn main() { xxi::mem::Engine::new(); xxi::mem::eta::run(); }\n\
                fn k() { xxi::\n    mem::kappa::go() }\n";
    assert_eq!(unreached(root), ["iota", "quiet", "tested"]);
    // A bare word is no path: `Zed` and `make` alone reach nothing, nor
    // does a path behind another crate's prefix.
    let words = "use other::zeta;\nfn main() { Zed; make(); alpha(); my_xxi_mem::alpha(); }\n";
    assert_eq!(unreached(words), all);
    // Only `pub mod` declarations are checked modules.
    let private = Crate::new(BTreeMap::from([(
        "lib.rs".to_string(),
        "mod hidden;\npub(crate) mod internal;\npub mod shown;\n".to_string(),
    )]));
    assert_eq!(private.mods, BTreeSet::from(["shown".to_string()]));
}

/// One model crate's sources and the names its `lib.rs` exposes.
struct Crate {
    /// Its top-level `pub mod`s.
    mods: BTreeSet<String>,
    /// Each name `lib.rs` re-exports, with the module it comes from.
    exports: BTreeMap<String, String>,
    /// Source text by path under `src/`, e.g. `"des/fault.rs"`.
    files: BTreeMap<String, String>,
}

impl Crate {
    fn new(files: BTreeMap<String, String>) -> Crate {
        let lib = strip(&files["lib.rs"]);
        let b = lib.as_bytes();
        let (mut mods, mut uses) = (BTreeSet::new(), Vec::new());
        for mut i in starts(b, &["pub"]) {
            i += 3;
            match next_ident(b, &mut i).as_str() {
                "mod" => mods.extend(declared_mod(b, i)),
                "use" => uses.extend(tree(b, &mut i)),
                _ => {}
            }
        }
        let mut exports = BTreeMap::new();
        for (segs, alias) in uses {
            let segs = segs.strip_prefix(&["self".to_string()]).unwrap_or(&segs);
            if let [m, .., name] = segs {
                if mods.contains(m) {
                    exports.insert(alias.unwrap_or_else(|| name.clone()), m.clone());
                }
            }
        }
        Crate {
            mods,
            exports,
            files,
        }
    }

    /// The non-test code of module `m`, with whether each file's `super`
    /// is the crate root. A directory module's files are found by
    /// following its non-test `mod x;` declarations.
    fn module_code(&self, m: &str) -> Vec<(String, bool)> {
        let mut out = Vec::new();
        let mut todo = vec![(m.to_string(), true)];
        while let Some((module, top)) = todo.pop() {
            let candidates = [format!("{module}.rs"), format!("{module}/mod.rs")];
            let Some(text) = candidates.iter().find_map(|p| self.files.get(p)) else {
                continue;
            };
            let code = strip(text);
            let b = code.as_bytes();
            for i in starts(b, &["mod"]) {
                if let Some(child) = declared_mod(b, i + 3) {
                    todo.push((format!("{module}/{child}"), false));
                }
            }
            out.push((code, top));
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
    fn load(root: &Path) -> Workspace {
        let mut crates = BTreeMap::new();
        for name in MODEL_CRATES {
            let mut files = BTreeMap::new();
            read_sources(&root.join(format!("crates/xxi-{name}/src")), "", &mut files);
            crates.insert(format!("xxi_{name}"), Crate::new(files));
        }
        let facade = strip(&fs::read_to_string(root.join("src/lib.rs")).expect("facade lib.rs"));
        let b = facade.as_bytes();
        let mut aliases = BTreeMap::new();
        for mut i in starts(b, &["use"]) {
            i += 3;
            for (segs, alias) in tree(b, &mut i) {
                if let ([krate], Some(alias)) = (&segs[..], alias) {
                    if crates.contains_key(krate) {
                        aliases.insert(alias, krate.clone());
                    }
                }
            }
        }
        Workspace { crates, aliases }
    }

    /// Every checked module (`xxi-mem::cache`) that `roots` do not reach.
    fn unreached(&self, roots: &[String]) -> BTreeSet<String> {
        let mut reached = BTreeSet::new();
        let mut todo: Vec<(Option<String>, bool, String)> =
            roots.iter().map(|r| (None, false, strip(r))).collect();
        while let Some((home, top, code)) = todo.pop() {
            for (krate, m) in self.uses(home.as_deref(), top, &code) {
                if reached.insert((krate.clone(), m.clone())) {
                    for (code, top) in self.crates[&krate].module_code(&m) {
                        todo.push((Some(krate.clone()), top, code));
                    }
                }
            }
        }
        let all = self
            .crates
            .iter()
            .flat_map(|(k, c)| c.mods.iter().map(|m| (k.clone(), m.clone())));
        all.filter(|km| !reached.contains(km))
            .map(|(k, m)| format!("{}::{m}", k.replace('_', "-")))
            .collect()
    }

    /// The `(crate, module)`s that stripped `code` names by path. `home`
    /// is the crate the code belongs to, if any; `top` says its `super` is
    /// the crate root. (An inline module's `super` is read the same way.)
    fn uses(&self, home: Option<&str>, top: bool, code: &str) -> Vec<(String, String)> {
        let b = code.as_bytes();
        let mut prefixes = vec!["xxi", "crate", "super"];
        prefixes.extend(self.crates.keys().map(String::as_str));
        let mut out = Vec::new();
        for mut i in starts(b, &prefixes) {
            for (segs, _) in tree(b, &mut i) {
                let (krate, rest) = match (segs[0].as_str(), home) {
                    ("xxi", _) => match segs.get(1).and_then(|a| self.aliases.get(a)) {
                        Some(k) => (k.as_str(), &segs[2..]),
                        None => continue,
                    },
                    ("crate", Some(h)) => (h, &segs[1..]),
                    ("super", Some(h)) if top => (h, &segs[1..]),
                    (k, _) if self.crates.contains_key(k) => (k, &segs[1..]),
                    _ => continue,
                };
                let c = &self.crates[krate];
                let Some(first) = rest.first() else { continue };
                let module = match c.exports.get(first) {
                    _ if c.mods.contains(first) => first,
                    Some(m) => m,
                    None => continue,
                };
                out.push((krate.to_string(), module.clone()));
            }
        }
        out
    }
}

/// Read every `.rs` file under `dir` into `out`, keyed by its path
/// relative to `dir`.
fn read_sources(dir: &Path, rel: &str, out: &mut BTreeMap<String, String>) {
    let mut entries: Vec<_> = fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("read {}: {e}", dir.display()))
        .map(|e| e.expect("dir entry").path())
        .collect();
    entries.sort();
    for path in entries {
        let name = path.file_name().unwrap().to_string_lossy();
        let key = format!("{rel}{name}");
        if path.is_dir() {
            read_sources(&path, &format!("{key}/"), out);
        } else if name.ends_with(".rs") {
            out.insert(key, fs::read_to_string(&path).expect("source file"));
        }
    }
}

/// `src` as a build without tests sees it: comments removed, string and
/// char literals emptied, and every `#[cfg(test)]` item dropped.
fn strip(src: &str) -> String {
    let s: Vec<char> = src.chars().collect();
    let at = |i: usize| s.get(i).copied().unwrap_or('\0');
    let word = |i: usize| {
        i.checked_sub(1)
            .is_some_and(|j| at(j).is_alphanumeric() || at(j) == '_')
    };
    let mut code = String::with_capacity(src.len());
    let mut i = 0;
    while i < s.len() {
        // `r"…"`, `r#"…"#` and `br#"…"#`, with the count of their `#`s.
        let raw_hashes = (at(i) == 'r' && (!word(i) || at(i - 1) == 'b' && !word(i - 1)))
            .then(|| s[i + 1..].iter().take_while(|&&c| c == '#').count())
            .filter(|&n| at(i + 1 + n) == '"');
        if at(i) == '/' && at(i + 1) == '/' {
            while i < s.len() && s[i] != '\n' {
                i += 1;
            }
        } else if at(i) == '/' && at(i + 1) == '*' {
            let mut depth = 0;
            while i < s.len() {
                if at(i) == '/' && at(i + 1) == '*' {
                    depth += 1;
                    i += 2;
                } else if at(i) == '*' && at(i + 1) == '/' {
                    depth -= 1;
                    i += 2;
                    if depth == 0 {
                        break;
                    }
                } else {
                    i += 1;
                }
            }
            code.push(' ');
        } else if let Some(n) = raw_hashes {
            i += n + 2;
            while i < s.len() && !(s[i] == '"' && (1..=n).all(|k| at(i + k) == '#')) {
                i += 1;
            }
            i += n + 1;
            code.push_str("\"\"");
        } else if at(i) == '"' {
            i += 1;
            while i < s.len() && s[i] != '"' {
                i += if s[i] == '\\' { 2 } else { 1 };
            }
            i += 1;
            code.push_str("\"\"");
        } else if at(i) == '\'' && (at(i + 1) == '\\' || at(i + 2) == '\'') {
            // A char literal; a lone `'` is a lifetime and stays.
            i += if at(i + 1) == '\\' { 3 } else { 2 };
            while i < s.len() && s[i] != '\'' {
                i += 1;
            }
            i += 1;
            code.push_str("' '");
        } else {
            code.push(s[i]);
            i += 1;
        }
    }
    let mut out = String::with_capacity(code.len());
    let mut rest = code.as_str();
    while let Some(at) = rest.find("#[cfg(test)]") {
        out.push_str(&rest[..at]);
        rest = &rest[at + "#[cfg(test)]".len()..];
        rest = &rest[item_len(rest.as_bytes())..];
    }
    out.push_str(rest);
    out
}

/// The length of the item at the start of `b`: through its `;` or the
/// `}` that closes its body, brackets counted.
fn item_len(b: &[u8]) -> usize {
    let mut depth = 0usize;
    for (i, &c) in b.iter().enumerate() {
        match c {
            b'(' | b'[' | b'{' => depth += 1,
            b'}' if depth == 1 => return i + 1,
            b';' if depth == 0 => return i + 1,
            b')' | b']' | b'}' => depth = depth.saturating_sub(1),
            _ => {}
        }
    }
    b.len()
}

fn is_ident(c: u8) -> bool {
    c.is_ascii_alphanumeric() || c == b'_'
}

/// Positions in `b` where one of the identifiers `words` starts a path:
/// a whole token, not inside a longer name, after `$` or after `::`.
fn starts<'a>(b: &'a [u8], words: &'a [&'a str]) -> impl Iterator<Item = usize> + 'a {
    (0..b.len()).filter(move |&i| {
        let before = i.checked_sub(1).map(|j| b[j]);
        !before.is_some_and(|c| is_ident(c) || c == b'$' || c == b':')
            && words.iter().any(|w| {
                b[i..].starts_with(w.as_bytes())
                    && !b.get(i + w.len()).is_some_and(|&c| is_ident(c))
            })
    })
}

fn skip_ws(b: &[u8], i: &mut usize) {
    while b.get(*i).is_some_and(u8::is_ascii_whitespace) {
        *i += 1;
    }
}

/// The identifier at `*i` after any whitespace, advancing past it; empty
/// when there is none.
fn next_ident(b: &[u8], i: &mut usize) -> String {
    skip_ws(b, i);
    let from = *i;
    while b.get(*i).copied().is_some_and(is_ident) {
        *i += 1;
    }
    String::from_utf8_lossy(&b[from..*i]).into_owned()
}

/// The name of a `mod name;` whose `name` starts at or after `i`, or
/// `None` for an inline `mod name { … }`.
fn declared_mod(b: &[u8], mut i: usize) -> Option<String> {
    let name = next_ident(b, &mut i);
    skip_ws(b, &mut i);
    (!name.is_empty() && b.get(i) == Some(&b';')).then_some(name)
}

/// Every path the use tree or expression path at `*i` names, as its
/// segments and `as` alias: `a::{b, c::d as e}` is `a::b` and `a::c::d`
/// (alias `e`). A path ends at the first token that is not `::` and a
/// name, as in `a::f(…)` or `a::T::<u8>`.
fn tree(b: &[u8], i: &mut usize) -> Vec<(Vec<String>, Option<String>)> {
    skip_ws(b, i);
    if b.get(*i) == Some(&b'{') {
        *i += 1;
        let mut out = Vec::new();
        loop {
            skip_ws(b, i);
            match b.get(*i) {
                None => return out,
                Some(b'}') => {
                    *i += 1;
                    return out;
                }
                Some(b',') => *i += 1,
                _ => {
                    let from = *i;
                    out.extend(tree(b, i).into_iter().filter(|(s, _)| !s.is_empty()));
                    *i = (*i).max(from + 1);
                }
            }
        }
    }
    let name = next_ident(b, i);
    if name.is_empty() {
        return vec![(Vec::new(), None)];
    }
    let mut j = *i;
    skip_ws(b, &mut j);
    if b[j..].starts_with(b"::") {
        *i = j + 2;
        let mut paths = tree(b, i);
        for (segs, _) in &mut paths {
            segs.insert(0, name.clone());
        }
        return paths;
    }
    let alias = (next_ident(b, &mut j) == "as").then(|| {
        *i = j;
        next_ident(b, i)
    });
    vec![(vec![name], alias)]
}
