//! The paper-reach contract on the real workspace: every `pub mod` of a
//! model crate is reached from a report root, and every module still
//! waiting to be folded into an experiment carries a `model-reach`
//! suppression (reason `pending: fold into E<n>`) that is still needed.
//! The rule itself is `srclint::reach` (R7); its scanner cases live in
//! `tests/srclint.rs`.

use std::path::PathBuf;

use xxi_check::srclint::{self, SrcOptions};

#[test]
fn every_model_module_is_reached_by_a_report() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root resolves");
    let opts = SrcOptions {
        root,
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
