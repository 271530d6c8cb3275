//! The paper-reach contract on the real workspace: every `pub mod` of a
//! model crate is reached from a report root, and every module still
//! waiting to be folded into an experiment carries a `model-reach`
//! suppression (reason `pending: fold into E<n>`) that is still needed.
//! The rule itself is `srclint::reach` (R7); its scanner cases live in
//! `tests/srclint.rs`. The crate graph is held to the same standard: a
//! crate depends on a workspace crate only if its code names it.

use std::fs;
use std::path::{Path, PathBuf};

use xxi_check::srclint::lexer::{lex, TokKind};
use xxi_check::srclint::{self, SrcOptions};

fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root resolves")
}

#[test]
fn every_model_module_is_reached_by_a_report() {
    let opts = SrcOptions {
        root: workspace_root(),
        rule: None,
        deny_warnings: true,
    };
    let report = srclint::run(&opts).expect("workspace lints");
    let orphans: Vec<String> = report
        .diags
        .iter()
        .filter(|d| d.rule == "model-reach" && d.message.contains("is reached by no"))
        .map(|d| format!("{}:{}: {}", d.path, d.line, d.message))
        .collect();
    let folded: Vec<String> = report
        .diags
        .iter()
        .filter(|d| d.rule == "unused-suppression" && d.message.contains("[model-reach]"))
        .map(|d| format!("{}:{}", d.path, d.line))
        .collect();
    assert!(
        orphans.is_empty(),
        "no experiment, kernel, example or perfbench workload reaches {orphans:#?}: \
         give each a report or delete it"
    );
    assert!(
        folded.is_empty(),
        "{folded:?} suppress a module that is reached or gone now: drop them"
    );
}

/// The `xxi-*` crates a manifest lists under `[dependencies]` or
/// `[dev-dependencies]`.
fn workspace_deps(manifest: &str) -> Vec<String> {
    let mut section = "";
    let mut deps = Vec::new();
    for line in manifest.lines().map(str::trim) {
        if line.starts_with('[') {
            section = line;
        } else if section == "[dependencies]" || section == "[dev-dependencies]" {
            let key = line.split(['.', '=', ' ']).next().unwrap_or("");
            if key.starts_with("xxi-") {
                deps.push(key.to_string());
            }
        }
    }
    deps
}

/// Every identifier outside comments and literals in the `.rs` files
/// under `dir`.
fn idents_under(dir: &Path, out: &mut Vec<String>) {
    for entry in fs::read_dir(dir).expect("crate directory reads") {
        let path = entry.expect("directory entry reads").path();
        if path.is_dir() {
            idents_under(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            let src = fs::read_to_string(&path).expect("source reads");
            let tokens = lex(&src).tokens;
            let idents = tokens.iter().filter(|t| t.kind == TokKind::Ident);
            out.extend(idents.map(|t| t.text(&src).to_string()));
        }
    }
}

#[test]
fn every_workspace_dependency_is_named_by_its_crate() {
    let crates = workspace_root().join("crates");
    let mut unused = Vec::new();
    let mut checked = 0;
    for entry in fs::read_dir(&crates).expect("crates/ reads") {
        let dir = entry.expect("directory entry reads").path();
        let Ok(manifest) = fs::read_to_string(dir.join("Cargo.toml")) else {
            continue;
        };
        let mut idents = Vec::new();
        idents_under(&dir, &mut idents);
        for dep in workspace_deps(&manifest) {
            checked += 1;
            if !idents.contains(&dep.replace('-', "_")) {
                let name = dir.file_name().unwrap_or_default().to_string_lossy();
                unused.push(format!("{name} -> {dep}"));
            }
        }
    }
    unused.sort();
    assert!(checked > 20, "only {checked} workspace dependencies found");
    assert!(
        unused.is_empty(),
        "no code in the crate names these dependencies: {unused:#?}; drop them from its Cargo.toml"
    );
}
