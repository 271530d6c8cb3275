//! Integration tests for the cross-layer model linter.

use xxi_check::lint::{self, check_ledger_text, Severity};
use xxi_core::report::json;

/// The shipped model configurations must lint clean — this is the same
/// gate `xxi lint` (and CI) enforces.
#[test]
fn shipped_configs_lint_clean() {
    let report = lint::run(None);
    assert_eq!(report.rules_run, 9, "a rule went missing from the registry");
    assert!(report.checks > 1_000, "suspiciously few checks ran");
    assert!(
        report.is_clean(),
        "shipped models must lint clean:\n{report}"
    );
}

/// Rule filters restrict execution to one rule.
#[test]
fn rule_filter_runs_only_that_rule() {
    let report = lint::run(Some("units-dimensional"));
    assert_eq!(report.rules_run, 1);
    let none = lint::run(Some("no-such-rule"));
    assert_eq!(none.rules_run, 0);
}

/// The JSON emitter produces well-formed output with the summary counters
/// and one object per diagnostic.
#[test]
fn json_report_is_well_formed() {
    let report = lint::run(Some("cache-geometry"));
    let text = report.to_json().to_string();
    let doc = json::parse(&text).unwrap_or_else(|e| panic!("{e}: {text}"));
    let obj = doc.as_object().expect("an object");
    assert_eq!(json::get_u64(obj, "rules_run"), Ok(1), "{text}");
    assert_eq!(json::get_u64(obj, "errors"), Ok(0), "{text}");
    assert_eq!(json::get_array(obj, "diagnostics"), Ok(&[][..]), "{text}");
    // Diagnostics embed correctly too, including string escaping.
    let diags = check_ledger_text("mem", "mcu net\"work 0.25\n");
    assert!(!diags.is_empty());
    let mut report = lint::run(Some("no-such-rule"));
    report.diags.extend(diags);
    let text = report.to_json().to_string();
    assert!(
        text.contains(r#"net\\\"work"#),
        "quotes must be escaped: {text}"
    );
}

/// A conserving ledger dump passes; a broken one reports errors.
#[test]
fn ledger_file_conservation() {
    let good = "# ok\nmcu compute 0.25\nradio network 0.5\nsleep idle 0.25\nsolar harvest 9.0\ntotal 1.0\n";
    assert!(check_ledger_text("good", good).is_empty());

    let broken = "mcu compute 0.25\nradio network 0.5\ntotal 1.0\n";
    let diags = check_ledger_text("broken", broken);
    assert!(
        diags
            .iter()
            .any(|d| d.severity == Severity::Error && d.message.contains("does not match")),
        "conservation violation must be reported: {diags:?}"
    );

    let garbage = "mcu thermal 0.25\nradio network nan\n";
    let diags = check_ledger_text("garbage", garbage);
    assert!(diags.iter().any(|d| d.message.contains("unknown layer")));
    assert!(diags.iter().any(|d| d.message.contains("bad energy")));

    let empty = "# nothing\n";
    let diags = check_ledger_text("empty", empty);
    assert!(diags
        .iter()
        .any(|d| d.message.contains("no ledger entries")));
}

/// The shipped testdata files behave as documented: the good dump is
/// clean, the broken one errors.
#[test]
fn shipped_testdata_ledgers() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/testdata");
    let good = std::fs::read_to_string(format!("{dir}/ledger_good.txt")).unwrap();
    assert!(check_ledger_text("ledger_good.txt", &good).is_empty());
    let broken = std::fs::read_to_string(format!("{dir}/ledger_broken.txt")).unwrap();
    let diags = check_ledger_text("ledger_broken.txt", &broken);
    assert!(diags.len() >= 2, "expected both planted defects: {diags:?}");
}
