//! The workspace source linter — `xxi-check src`.
//!
//! The third pillar of `xxi-check`: where the concurrency checker explores
//! *interleavings* and the model linter checks *model invariants*, the
//! source linter enforces the repo's *code-level* invariants statically —
//! the conventions that keep experiments deterministic and the runtime
//! model-checkable, which until now were enforced only by review:
//!
//! | rule | invariant |
//! |------|-----------|
//! | `determinism` | no wall-clock time, sleeps, or unseeded randomness outside sanctioned timing code |
//! | `hashmap-order` | no HashMap/HashSet iteration feeding deterministic output |
//! | `atomics-discipline` | SeqCst (and non-counter Relaxed) orderings carry `// ORDERING:` justifications |
//! | `unsafe-audit` | every `unsafe` carries a `// SAFETY:` comment |
//! | `sync-facade` | xxi-stack synchronization goes through its `sync` facade |
//! | `panic-path` | `.unwrap()/.expect()` in library code is a warning |
//! | `model-reach` | every model-crate `pub mod`, and every `pub` item in a reached one, is named by code a report runs |
//!
//! Built on a hand-rolled lexer ([`lexer`]) whose token spans provably
//! tile each file, and a line/region scanner ([`scan`]). Zero
//! dependencies, fully offline. R1–R6 ([`rules`]) look at one file at a
//! time; R7 ([`reach`]) walks paths across the whole set, so the engine
//! reads every file before it applies any suppression.
//!
//! Findings are suppressible in source (`// xxi-allow: <rule> -- reason`,
//! or `// xxi-allow-file: <rule>` for a whole file); suppressions that no
//! longer suppress anything are themselves diagnostics. Output is
//! deterministic (sorted by path, line, rule) in text or
//! `schema_version`'d JSON.

pub mod lexer;
pub mod reach;
pub mod rules;
pub mod scan;

use std::collections::BTreeSet;
use std::fmt;
use std::path::{Path, PathBuf};

use crate::lint::Severity;
use scan::ScannedFile;
use xxi_core::report::json::Json;

/// JSON schema version for `SrcReport::to_json`.
pub const SCHEMA_VERSION: u32 = 2;

/// One source-lint finding, located by file and line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SrcDiagnostic {
    /// Rule id, e.g. `"atomics-discipline"`.
    pub rule: String,
    pub severity: Severity,
    /// Workspace-relative path, forward slashes.
    pub path: String,
    /// 1-based line.
    pub line: usize,
    pub message: String,
}

impl fmt::Display for SrcDiagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Same shape as the model linter's diagnostics, with a file:line
        // source so editors can jump to it.
        write!(
            f,
            "{}[{}] {}:{}: {}",
            self.severity, self.rule, self.path, self.line, self.message
        )
    }
}

/// Options for a source-lint run.
pub struct SrcOptions {
    /// Workspace root to walk.
    pub root: PathBuf,
    /// Restrict to one rule id (plus the meta checks), if set.
    pub rule: Option<String>,
    /// Treat warnings as errors.
    pub deny_warnings: bool,
}

/// The outcome of a run: filtered findings plus counts.
pub struct SrcReport {
    pub diags: Vec<SrcDiagnostic>,
    pub files_scanned: usize,
    pub deny_warnings: bool,
}

impl SrcReport {
    pub fn errors(&self) -> usize {
        self.diags
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .count()
    }

    pub fn warnings(&self) -> usize {
        self.diags
            .iter()
            .filter(|d| d.severity == Severity::Warning)
            .count()
    }

    /// Clean means exit 0: no errors, and no warnings under
    /// `--deny warnings`.
    pub fn is_clean(&self) -> bool {
        self.errors() == 0 && (!self.deny_warnings || self.warnings() == 0)
    }

    /// Machine-readable JSON, aligned with the model linter's shape.
    /// Byte-deterministic: diagnostics are sorted and carry no timestamps
    /// or absolute paths.
    pub fn to_json(&self) -> Json {
        let diags = self.diags.iter().map(|d| {
            Json::obj([
                ("rule", Json::str(&d.rule)),
                ("severity", Json::str(d.severity.name())),
                ("path", Json::str(&d.path)),
                ("line", Json::int(d.line as u64)),
                ("message", Json::str(&d.message)),
            ])
        });
        Json::obj([
            ("schema_version", Json::int(SCHEMA_VERSION.into())),
            ("files_scanned", Json::int(self.files_scanned as u64)),
            ("errors", Json::int(self.errors() as u64)),
            ("warnings", Json::int(self.warnings() as u64)),
            ("diagnostics", Json::Array(diags.collect())),
        ])
    }
}

impl fmt::Display for SrcReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for d in &self.diags {
            writeln!(f, "{d}")?;
        }
        write!(
            f,
            "{} file(s) scanned: {} error(s), {} warning(s)",
            self.files_scanned,
            self.errors(),
            self.warnings()
        )
    }
}

/// Lint a set of source files as one workspace: R1–R6 on each file, R7
/// (`model-reach`) over the set, then each file's suppressions and
/// unused-suppression check. `files` are (workspace-relative path with
/// forward slashes, source) pairs; the fixture tests drive this in
/// memory, and the workspace walk is just this over every file.
/// Diagnostics come back sorted by path, line, rule and message.
pub fn lint_files(files: &[(String, String)], rule: Option<&str>) -> Vec<SrcDiagnostic> {
    let mut scanned: Vec<ScannedFile<'_>> =
        files.iter().map(|(p, s)| ScannedFile::new(p, s)).collect();
    mark_test_only_files(&mut scanned);

    let mut raw: Vec<Vec<rules::Finding>> = scanned
        .iter()
        .map(|f| {
            let mut out = Vec::new();
            rules::run_all(f, &mut out);
            out
        })
        .collect();
    reach::model_reach(&scanned, &mut raw);

    let mut diags = Vec::new();
    for (f, raw) in scanned.iter().zip(raw) {
        let diag = |rule: &str, severity, line, message| SrcDiagnostic {
            rule: rule.to_string(),
            severity,
            path: f.rel_path.to_string(),
            line,
            message,
        };
        for fi in raw {
            if rule.is_some_and(|only| fi.rule != only) || suppressed(f, fi.rule, fi.line) {
                continue;
            }
            diags.push(diag(fi.rule, fi.severity, fi.line, fi.message));
        }

        // Lexical errors are findings too: a file the lexer cannot tile is
        // a file the rules cannot vouch for.
        for e in &f.lex_errors {
            diags.push(diag("lex", Severity::Error, 1, e.clone()));
        }

        // Unused suppressions: an `xxi-allow` that absorbed nothing is
        // stale and must go, or it will silently mask a future regression.
        if rule.is_none() {
            for a in f.allows.iter().filter(|a| !a.used.get()) {
                let message = format!(
                    "xxi-allow for [{}] suppresses nothing; remove it",
                    a.rules.join(", ")
                );
                diags.push(diag(
                    "unused-suppression",
                    Severity::Warning,
                    a.comment_line,
                    message,
                ));
            }
        }
    }

    diags.sort_by(|a, b| {
        (&a.path, a.line, &a.rule, &a.message).cmp(&(&b.path, b.line, &b.rule, &b.message))
    });
    diags
}

/// Mark every file compiled only through a `#[cfg(test)] mod x;` as test
/// code, and every file such a file declares in turn.
fn mark_test_only_files(files: &mut [ScannedFile<'_>]) {
    let by_path = scan::by_path(files);
    let children = |f: &ScannedFile<'_>, only_test: bool| -> Vec<usize> {
        f.mod_decls()
            .into_iter()
            .filter(|&(line, _, _)| !only_test || f.in_cfg_test(line))
            .filter_map(|(_, name, _)| {
                scan::mod_file_candidates(f.rel_path, name)
                    .iter()
                    .find_map(|p| by_path.get(p.as_str()).copied())
            })
            .collect()
    };
    let mut todo: Vec<usize> = files.iter().flat_map(|f| children(f, true)).collect();
    let mut done = BTreeSet::new();
    while let Some(i) = todo.pop() {
        if done.insert(i) {
            files[i].mark_test_only();
            todo.extend(children(&files[i], false));
        }
    }
}

/// Does an allow cover (rule, line)? Marks the allow used.
fn suppressed(f: &ScannedFile<'_>, rule: &str, line: usize) -> bool {
    let mut hit = false;
    for a in &f.allows {
        if !a.rules.iter().any(|r| r == rule) {
            continue;
        }
        if a.file_level || a.target_line == line {
            a.used.set(true);
            hit = true;
        }
    }
    hit
}

/// Walk the workspace, read every `.rs` file once, and lint them as one
/// set.
pub fn run(opts: &SrcOptions) -> Result<SrcReport, String> {
    let mut files = Vec::new();
    collect_rs_files(&opts.root, &opts.root, &mut files)
        .map_err(|e| format!("walking {}: {e}", opts.root.display()))?;
    files.sort();

    let mut sources = Vec::with_capacity(files.len());
    for rel in &files {
        let abs = opts.root.join(rel);
        let src =
            std::fs::read_to_string(&abs).map_err(|e| format!("reading {}: {e}", abs.display()))?;
        sources.push((rel.to_string_lossy().replace('\\', "/"), src));
    }
    let diags = lint_files(&sources, opts.rule.as_deref());

    Ok(SrcReport {
        diags,
        files_scanned: files.len(),
        deny_warnings: opts.deny_warnings,
    })
}

/// Recursively collect `.rs` files under `dir` as paths relative to
/// `root`. Skips build output, VCS metadata, and lint-fixture trees
/// (fixtures contain *planted* violations).
pub fn collect_rs_files(root: &Path, dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if entry.file_type()?.is_dir() {
            if matches!(name.as_ref(), "target" | ".git" | "fixtures" | ".github") {
                continue;
            }
            collect_rs_files(root, &path, out)?;
        } else if name.ends_with(".rs") {
            if let Ok(rel) = path.strip_prefix(root) {
                out.push(rel.to_path_buf());
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint(src: &str) -> Vec<SrcDiagnostic> {
        lint_files(&[("lib.rs".to_string(), src.to_string())], None)
    }

    #[test]
    fn clean_source_yields_no_findings() {
        let src = "pub fn add(a: u64, b: u64) -> u64 { a + b }\n";
        assert!(lint(src).is_empty());
    }

    #[test]
    fn unsafe_without_safety_fires_and_allow_suppresses() {
        let bad = "pub fn f(p: *const u8) -> u8 { unsafe { *p } }\n";
        let diags = lint(bad);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule, "unsafe-audit");

        let ok = "// SAFETY: caller guarantees p is valid\npub fn f(p: *const u8) -> u8 { unsafe { *p } }\n";
        assert!(lint(ok).is_empty());

        let allowed =
            "pub fn f(p: *const u8) -> u8 { unsafe { *p } } // xxi-allow: unsafe-audit -- test\n";
        assert!(lint(allowed).is_empty());
    }

    #[test]
    fn unused_suppression_is_flagged() {
        let src = "// xxi-allow: determinism -- stale\npub fn f() {}\n";
        let diags = lint(src);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule, "unused-suppression");
        assert_eq!(diags[0].severity, Severity::Warning);
    }

    #[test]
    fn a_file_compiled_only_for_tests_is_test_code() {
        let files = [
            ("src/lib.rs", "#[cfg(test)]\nmod digest;\npub mod live;\n"),
            (
                "src/digest.rs",
                "mod deeper;\npub fn f(x: Option<u8>) -> u8 { x.unwrap() }\n",
            ),
            (
                "src/digest/deeper.rs",
                "pub fn g(x: Option<u8>) -> u8 { x.unwrap() }\n",
            ),
            (
                "src/live.rs",
                "pub fn h(x: Option<u8>) -> u8 { x.unwrap() }\n",
            ),
        ]
        .map(|(p, s)| (p.to_string(), s.to_string()));
        let paths: Vec<String> = lint_files(&files, None)
            .into_iter()
            .map(|d| format!("{}:{}", d.path, d.rule))
            .collect();
        assert_eq!(paths, ["src/live.rs:panic-path"]);
    }

    #[test]
    fn json_is_deterministic() {
        let src = "pub fn f(p: *const u8) -> u8 { unsafe { *p } }\n";
        let mk = || SrcReport {
            diags: lint(src),
            files_scanned: 1,
            deny_warnings: true,
        };
        let (a, b) = (mk().to_json().to_string(), mk().to_json().to_string());
        assert_eq!(a, b);
        assert!(a.starts_with("{\"schema_version\":2,"), "{a}");
    }
}
