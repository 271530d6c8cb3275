//! Source-linter tests: fixture goldens, `model-reach` on in-memory
//! workspaces, and lexer properties.
//!
//! Each `tests/srclint/fixtures/r*.rs` file plants violations for one
//! per-file rule *and* an `// xxi-allow:` suppression the linter must
//! honor. The rendered diagnostics are pinned against a sibling
//! `.expected` golden; re-bless with
//! `XXI_BLESS=1 cargo test --test srclint -p xxi-check`.
//!
//! R7 (`model-reach`) needs a whole workspace, so its cases build one in
//! memory: a model crate `xxi-mem`, the facade aliasing it as `mem`, and
//! a root file, all handed to `lint_files`.
//!
//! The property tests then run the lexer over **every** `.rs` file in the
//! workspace (fixtures included) and assert the token spans tile each
//! file exactly and that nothing trips a lexical error.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

use xxi_check::srclint::{self, lexer};

fn fixtures_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/srclint/fixtures")
}

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root resolves")
}

/// Fixture files, sorted for deterministic iteration.
fn fixture_files() -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = fs::read_dir(fixtures_dir())
        .expect("fixtures dir exists")
        .map(|e| e.expect("readable entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "rs"))
        .collect();
    files.sort();
    assert_eq!(files.len(), 6, "one fixture per rule R1..R6");
    files
}

/// The path a fixture is linted *as*: its `//@ lint-path:` directive if
/// present (R5 needs to look like xxi-stack code), else `fixtures/<name>`.
fn lint_path(fixture: &Path, src: &str) -> String {
    if let Some(rest) = src
        .lines()
        .next()
        .and_then(|l| l.strip_prefix("//@ lint-path:"))
    {
        return rest.trim().to_string();
    }
    format!(
        "fixtures/{}",
        fixture.file_name().unwrap().to_string_lossy()
    )
}

/// Every workspace `.rs` file the linter walks, plus the fixtures it
/// skips.
fn workspace_rs_files() -> Vec<PathBuf> {
    let root = workspace_root();
    let mut rel = Vec::new();
    srclint::collect_rs_files(&root, &root, &mut rel).expect("workspace walk");
    let mut out: Vec<PathBuf> = rel.into_iter().map(|p| root.join(p)).collect();
    out.extend(fixture_files());
    out.sort();
    assert!(
        out.len() > 100,
        "workspace walk looks truncated: {}",
        out.len()
    );
    out
}

#[test]
fn fixture_goldens() {
    let bless = std::env::var_os("XXI_BLESS").is_some();
    for fixture in fixture_files() {
        let src = fs::read_to_string(&fixture).expect("readable fixture");
        let rel = lint_path(&fixture, &src);
        let diags = srclint::lint_files(&[(rel, src)], None);
        let mut rendered = String::new();
        for d in &diags {
            rendered.push_str(&d.to_string());
            rendered.push('\n');
        }
        let golden = fixture.with_extension("expected");
        if bless {
            fs::write(&golden, &rendered).expect("bless golden");
            continue;
        }
        let want = fs::read_to_string(&golden).unwrap_or_else(|_| {
            panic!(
                "missing golden {} — run with XXI_BLESS=1 to create it",
                golden.display()
            )
        });
        assert_eq!(
            rendered,
            want,
            "fixture {} diverged from its golden; re-bless with XXI_BLESS=1 if intended",
            fixture.display()
        );
    }
}

#[test]
fn each_fixture_catches_its_rule_and_honors_suppressions() {
    let expect_rule = [
        ("r1_", "determinism"),
        ("r2_", "hashmap-order"),
        ("r3_", "atomics-discipline"),
        ("r4_", "unsafe-audit"),
        ("r5_", "sync-facade"),
        ("r6_", "panic-path"),
    ];
    for fixture in fixture_files() {
        let name = fixture.file_name().unwrap().to_string_lossy().into_owned();
        let (_, rule) = expect_rule
            .iter()
            .find(|(p, _)| name.starts_with(p))
            .unwrap_or_else(|| panic!("fixture {name} matches no rN_ prefix"));
        let src = fs::read_to_string(&fixture).expect("readable fixture");
        let rel = lint_path(&fixture, &src);
        let diags = srclint::lint_files(&[(rel.clone(), src.clone())], None);

        // The planted violation is caught…
        assert!(
            diags.iter().any(|d| d.rule == *rule),
            "{name}: no {rule} finding among {diags:?}"
        );
        // …and every planted `xxi-allow:` absorbed a finding (an unused
        // suppression would surface here as its own warning).
        assert!(
            diags.iter().all(|d| d.rule != "unused-suppression"),
            "{name}: a planted xxi-allow was not honored: {diags:?}"
        );
        // Restricting to the fixture's rule yields the same count for
        // that rule — the --rule filter does not change detection.
        let only = srclint::lint_files(&[(rel.clone(), src.clone())], Some(rule));
        assert_eq!(
            only.len(),
            diags.iter().filter(|d| d.rule == *rule).count(),
            "{name}: --rule {rule} filter disagrees with the full run"
        );
    }
}

/// The model-crate modules R7 reports unreached when `root` is the only
/// root file and `files` are `crates/xxi-mem/src`, sorted.
fn unreached(files: &[(&str, &str)], root: &str) -> Vec<String> {
    let lib = "crates/xxi-mem/src/lib.rs";
    let diags = srclint::lint_files(&workspace(files, root), Some("model-reach"));
    let mods: BTreeSet<String> = diags
        .iter()
        .filter(|d| d.path == lib)
        .filter_map(|d| d.message.strip_prefix("`xxi-mem::")?.split('`').next())
        .map(String::from)
        .collect();
    mods.into_iter().collect()
}

/// `files` under `crates/xxi-mem/src`, a facade that aliases the crate as
/// `mem`, and `root` as a file of the bench crate.
fn workspace(files: &[(&str, &str)], root: &str) -> Vec<(String, String)> {
    let mut set: Vec<(String, String)> = files
        .iter()
        .map(|(p, s)| (format!("crates/xxi-mem/src/{p}"), s.to_string()))
        .collect();
    set.push(("src/lib.rs".into(), "pub use xxi_mem as mem;\n".into()));
    set.push(("crates/xxi-bench/src/root.rs".into(), root.into()));
    set
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
    ];
    let all = [
        "alpha", "beta", "core", "eta", "gamma", "iota", "kappa", "lambda", "quiet", "tested",
        "theta", "zeta",
    ];
    assert_eq!(unreached(&files, "fn main() {}"), all);
    // A grouped import reaches alpha and, through it, beta and gamma; a
    // crate-root re-export under its alias reaches zeta, one through
    // `self::` reaches core, and the facade path reaches the directory
    // modules and what their non-test files name.
    let root = "use xxi_mem::{alpha::{self, A}, make_zed};\n\
                fn main() { xxi::mem::Engine::new(); xxi::mem::eta::run(); }\n\
                fn k() { xxi::\n    mem::kappa::go() }\n";
    assert_eq!(unreached(&files, root), ["iota", "quiet", "tested"]);
    // A bare word is no path: `Zed` and `make` alone reach nothing, nor
    // does a path behind another crate's prefix.
    let words = "use other::zeta;\nfn main() { Zed; make(); alpha(); my_xxi_mem::alpha(); }\n";
    assert_eq!(unreached(&files, words), all);
    // Only `pub mod` declarations are checked modules.
    let private = [(
        "lib.rs",
        "mod hidden;\npub(crate) mod internal;\npub mod shown;\n",
    )];
    assert_eq!(unreached(&private, "fn main() {}"), ["shown"]);
}

#[test]
fn a_module_only_an_example_names_is_unreached() {
    // Examples print no report, so naming a module there reaches nothing.
    let lib = "pub mod shown;\npub mod used;\n";
    let files = [("lib.rs", lib), ("shown.rs", ""), ("used.rs", "")];
    let mut set = workspace(&files, "fn main() { xxi_mem::used::go(); }\n");
    set.push((
        "examples/demo.rs".into(),
        "fn main() { xxi_mem::shown::go(); xxi::mem::shown::go(); }\n".into(),
    ));
    let diags = srclint::lint_files(&set, Some("model-reach"));
    let found: Vec<&str> = diags.iter().map(|d| d.message.as_str()).collect();
    let want = "`xxi-mem::shown` is reached by no experiment, kernel or perfbench workload; \
                give it a report or delete it";
    assert_eq!(found, [want], "{diags:#?}");
}

#[test]
fn a_pub_item_no_reached_code_names_is_a_finding() {
    let lib = "pub mod cache;\npub mod later; // xxi-allow: model-reach -- kept for a reason\n\
               pub use cache::renamed as alias;\n";
    let cache = "pub struct Cache;\nimpl Cache {\n    pub fn used(&self) {}\n\
                 pub fn dead(&self) {}\n    pub(crate) fn internal(&self) {}\n}\n\
                 /// `helper` is only named in docs, tests and strings.\n\
                 pub const fn helper() -> u8 { 1 }\npub const LIMIT: u8 = 2;\n\
                 pub fn renamed() {}\n\
                 // xxi-allow: model-reach -- oracle for a test\npub fn kept() {}\n\
                 #[cfg(test)]\nmod tests {\n    #[test]\n\
                 fn t() { super::Cache.dead(); super::helper(); super::kept(); }\n}\n";
    let later = "pub fn orphan() {}\n";
    let root = "use xxi_mem::cache::Cache;\nuse xxi_mem::alias;\n\
                fn main() { Cache.used(); alias(); let _ = (\"helper\", LIMIT); }\n";
    let files = [("lib.rs", lib), ("cache.rs", cache), ("later.rs", later)];
    let diags = srclint::lint_files(&workspace(&files, root), None);
    let found: Vec<(&str, usize, &str)> = diags
        .iter()
        .map(|d| {
            let what = d.message.split('`').nth(1).unwrap_or_default();
            (d.path.as_str(), d.line, what)
        })
        .collect();
    assert_eq!(
        found,
        [
            ("crates/xxi-mem/src/cache.rs", 4, "pub fn dead"),
            ("crates/xxi-mem/src/cache.rs", 8, "pub fn helper"),
        ],
        "{diags:#?}"
    );
}

/// Path-resolved R7: an associated item counts only as `T::item`,
/// `Self::item` or (for a method) `.item`; a variant only where reached
/// code builds it; a field only where reached code reads it; an `impl`
/// does not name its own type.
#[test]
fn variants_fields_and_associated_items_resolve_by_path() {
    let lib = "pub mod shapes;\n";
    let shapes = "pub enum Mode { Built, Dead, Matched, ViaSelf, ViaGlob }\n\
                  impl Mode {\n    pub fn fresh() -> Mode { Self::ViaSelf }\n\
                  pub fn cost(&self) -> u8 { match self { Mode::Matched => 1, _ => 0 } }\n}\n\
                  pub struct Perms(pub u8);\n\
                  impl Perms {\n    pub const R: Perms = Perms(1);\n\
                  pub const RW: Perms = Perms(3);\n}\n\
                  pub struct Stats { pub read: u8, pub split: u8,\n\
                  pub tested: u8,\n    pub written: u8 }\n\
                  pub struct Idle;\nimpl Idle {}\n\
                  #[cfg(test)]\nmod tests {\n    fn t(s: super::Stats) -> u8 { s.tested }\n}\n";
    let root = "use xxi_mem::shapes::{Mode, Perms, Stats};\nuse xxi_mem::shapes::Mode::*;\n\
                fn main<R>(_: R) {\n    let m = Mode::Built;\n    let g = ViaGlob;\n\
                Mode::fresh().cost();\n    let mut s = Stats { read: 0, split: 0, tested: 0, written: 0 };\n\
                s.written = 1;\n    let Stats { split, .. } = s;\n\
                if let Mode::Matched = m {}\n    let _ = (s.read, split, g, Perms::RW);\n}\n";
    let files = [("lib.rs", lib), ("shapes.rs", shapes)];
    let diags = srclint::lint_files(&workspace(&files, root), None);
    let found: Vec<(usize, &str)> = diags
        .iter()
        .map(|d| (d.line, d.message.split('`').nth(1).unwrap_or_default()))
        .collect();
    assert_eq!(
        found,
        [
            (1, "Mode::Dead"),
            (1, "Mode::Matched"),
            (8, "pub const R"),
            (12, "Stats.tested"),
            (13, "Stats.written"),
            (14, "pub struct Idle"),
        ],
        "{diags:#?}"
    );
}

#[test]
fn token_spans_tile_every_workspace_file() {
    for path in workspace_rs_files() {
        let src = fs::read_to_string(&path).expect("readable source");
        let lexed = lexer::lex(&src);
        let mut pos = 0usize;
        for t in &lexed.tokens {
            assert_eq!(
                t.start,
                pos,
                "{}: token {:?} starts at {} but previous ended at {pos}",
                path.display(),
                t.kind,
                t.start
            );
            assert!(t.end > t.start, "{}: empty token {t:?}", path.display());
            pos = t.end;
        }
        assert_eq!(
            pos,
            src.len(),
            "{}: tokens cover {pos} of {} bytes",
            path.display(),
            src.len()
        );
    }
}

#[test]
fn every_workspace_file_lexes_without_error() {
    for path in workspace_rs_files() {
        let src = fs::read_to_string(&path).expect("readable source");
        let lexed = lexer::lex(&src);
        assert!(
            lexed.errors.is_empty(),
            "{}: lexical errors {:?}",
            path.display(),
            lexed.errors
        );
    }
}
