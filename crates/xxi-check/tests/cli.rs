//! End-to-end tests of the `xxi-check` binary: the exit-code contract
//! (0 clean, 1 findings, 2 usage), `src` output formats and determinism,
//! and the acceptance run — the whole workspace is clean under
//! `--deny warnings`.

use std::path::PathBuf;
use std::process::{Command, Output};

use xxi_core::report::json;

fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root resolves")
}

fn xxi_check(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_xxi-check"))
        .args(args)
        .current_dir(workspace_root())
        .output()
        .expect("xxi-check runs")
}

fn stdout_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// A per-test scratch file that cleans up after itself.
struct TempFile(PathBuf);

impl TempFile {
    fn new(name: &str) -> TempFile {
        TempFile(std::env::temp_dir().join(format!("xxi-check-cli-{}-{name}", std::process::id())))
    }
    fn path(&self) -> &str {
        self.0.to_str().unwrap()
    }
}

impl Drop for TempFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

#[test]
fn unknown_command_and_flags_exit_2_with_usage() {
    let out = xxi_check(&["frobnicate"]);
    assert_eq!(out.status.code(), Some(2));
    let err = stderr_of(&out);
    assert!(err.contains("unknown command \"frobnicate\""), "{err}");
    assert!(err.contains("usage: xxi-check <command>"), "{err}");

    let out = xxi_check(&["src", "--bogus"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr_of(&out).contains("unknown flag"));

    // There is no baseline to grandfather findings into.
    let out = xxi_check(&["src", "--baseline", "srclint.baseline"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr_of(&out).contains("unknown flag \"--baseline\""));

    let out = xxi_check(&["lint", "--bogus"]);
    assert_eq!(out.status.code(), Some(2));

    let out = xxi_check(&["src", "--format", "yaml"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr_of(&out).contains("--format must be text or json"));

    let out = xxi_check(&["src", "--rule", "no-such-rule"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr_of(&out).contains("unknown rule"));

    // Missing value for a flag that needs one.
    let out = xxi_check(&["src", "--rule"]);
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn help_and_list_exit_0() {
    let out = xxi_check(&["--help"]);
    assert_eq!(out.status.code(), Some(0));
    assert!(stdout_of(&out).contains("exit codes: 0 clean, 1 findings, 2 usage error"));

    let out = xxi_check(&["src", "--list"]);
    assert_eq!(out.status.code(), Some(0));
    let listing = stdout_of(&out);
    for rule in [
        "determinism",
        "hashmap-order",
        "atomics-discipline",
        "unsafe-audit",
        "sync-facade",
        "panic-path",
        "model-reach",
    ] {
        assert!(listing.contains(rule), "missing {rule} in: {listing}");
    }
}

/// The acceptance criterion: the whole workspace is clean under
/// `--deny warnings`.
#[test]
fn workspace_is_clean_under_deny_warnings() {
    let out = xxi_check(&["src", "--deny", "warnings"]);
    let text = stdout_of(&out);
    assert_eq!(out.status.code(), Some(0), "findings:\n{text}");
    assert!(text.contains("0 error(s), 0 warning(s)"), "{text}");
}

#[test]
fn json_output_is_byte_deterministic() {
    let a = TempFile::new("json-a");
    let b = TempFile::new("json-b");
    let out = xxi_check(&["src", "--format", "json", "--out", a.path()]);
    assert_eq!(out.status.code(), Some(0));
    let out = xxi_check(&["src", "--format=json", "--out", b.path()]);
    assert_eq!(out.status.code(), Some(0));

    let ja = std::fs::read(a.path()).expect("first json written");
    let jb = std::fs::read(b.path()).expect("second json written");
    assert_eq!(ja, jb, "two runs must serialize identically");

    let text = String::from_utf8(ja).expect("utf-8 json");
    let doc = json::parse(&text).unwrap_or_else(|e| panic!("{e}: {text}"));
    let obj = doc.as_object().expect("an object");
    assert_eq!(json::get_u64(obj, "schema_version"), Ok(2), "{text}");
    assert!(!text.contains("baselined"), "{text}");
    assert_eq!(json::get_u64(obj, "errors"), Ok(0), "{text}");
    assert_eq!(json::get_array(obj, "diagnostics"), Ok(&[][..]), "{text}");
}

#[test]
fn lint_reads_flags_like_src() {
    let out = xxi_check(&["lint", "--format=json", "--rule=cache-geometry"]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr_of(&out));
    let text = stdout_of(&out);
    let doc = json::parse(text.trim()).unwrap_or_else(|e| panic!("{e}: {text}"));
    let obj = doc.as_object().expect("an object");
    assert_eq!(json::get_u64(obj, "rules_run"), Ok(1), "{text}");

    let out = xxi_check(&["lint", "--format", "text", "--rule", "cache-geometry"]);
    assert_eq!(out.status.code(), Some(0));
    assert!(stdout_of(&out).starts_with("1 rule(s), "));

    // `--json` is gone, and `src`-only flags stay unknown to `lint`.
    for bad in [
        &["lint", "--json"][..],
        &["lint", "--root", "."],
        &["lint", "--format"],
    ] {
        let out = xxi_check(bad);
        assert_eq!(out.status.code(), Some(2), "{bad:?}");
        assert!(stderr_of(&out).contains("usage: xxi-check"), "{bad:?}");
    }
}

#[test]
fn single_rule_run_is_clean() {
    for rule in ["unsafe-audit", "model-reach"] {
        let out = xxi_check(&["src", "--rule", rule]);
        assert_eq!(out.status.code(), Some(0), "{rule}: {}", stdout_of(&out));
    }
}

/// `--root` is whatever directory the caller names: a tree without the
/// facade `src/lib.rs`, or with a model crate that has no `lib.rs`, gets
/// fewer `model-reach` checks, not a panic.
#[test]
fn a_root_without_the_workspace_layout_lints_without_panicking() {
    let root = std::env::temp_dir().join(format!("xxi-check-cli-{}-root", std::process::id()));
    let write = |rel: &str, src: &str| {
        let path = root.join(rel);
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(path, src).unwrap();
    };
    write("src/main.rs", "fn main() {}\n");
    write("crates/xxi-mem/src/cache.rs", "pub fn dead() {}\n");
    write("crates/xxi-tech/src/lib.rs", "pub mod gone;\n");
    let out = xxi_check(&["src", "--root", root.to_str().unwrap()]);
    let text = stdout_of(&out);
    let _ = std::fs::remove_dir_all(&root);
    assert_eq!(out.status.code(), Some(1), "{text}{}", stderr_of(&out));
    assert!(stderr_of(&out).is_empty(), "{}", stderr_of(&out));
    assert!(
        text.starts_with("error[model-reach] crates/xxi-tech/src/lib.rs:1: `xxi-tech::gone`"),
        "{text}"
    );
    assert!(
        text.ends_with("3 file(s) scanned: 1 error(s), 0 warning(s)\n"),
        "{text}"
    );
}
