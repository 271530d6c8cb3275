//! End-to-end tests of the `xxi` driver binary: exit-code contract,
//! machine-readable `list`, stdin validation, and the bench -> compare
//! perf-gate loop, all through the real executable
//! (`CARGO_BIN_EXE_xxi`).

use std::io::Write as _;
use std::path::PathBuf;
use std::process::{Command, Output, Stdio};

use xxi_bench::bench::BenchRun;
use xxi_core::report::json;

fn xxi(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_xxi"))
        .args(args)
        .output()
        .expect("xxi runs")
}

fn stderr_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

fn stdout_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

/// A per-test scratch file that cleans up after itself.
struct TempFile(PathBuf);

impl TempFile {
    fn new(name: &str) -> TempFile {
        TempFile(std::env::temp_dir().join(format!("xxi-cli-{}-{name}", std::process::id())))
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
fn unknown_subcommand_prints_usage_and_exits_2() {
    let out = xxi(&["frobnicate"]);
    assert_eq!(out.status.code(), Some(2));
    let err = stderr_of(&out);
    assert!(err.contains("unknown command: frobnicate"), "{err}");
    assert!(err.contains("usage: xxi <command>"), "{err}");
    assert!(
        err.contains("compare <base> <new>"),
        "usage lists it: {err}"
    );

    let none = xxi(&[]);
    assert_eq!(none.status.code(), Some(2));
    assert!(stderr_of(&none).contains("usage: xxi <command>"));
}

#[test]
fn bench_only_flags_are_rejected_outside_bench() {
    let out = xxi(&["run", "e1", "--iters", "3"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr_of(&out).contains("--iters is only valid"));

    let out = xxi(&["bench", "e1", "--threshold", "5"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr_of(&out).contains("--threshold is only valid"));
}

#[test]
fn list_format_json_emits_one_document_per_experiment() {
    let out = xxi(&["list", "--format", "json"]);
    assert_eq!(out.status.code(), Some(0));
    let text = stdout_of(&out);
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 21);
    for line in &lines {
        let v = json::parse(line).expect("each line is a JSON document");
        let obj = v.as_object().unwrap();
        assert!(json::get_str(obj, "id").is_ok());
        assert!(json::get_str(obj, "title").is_ok());
        assert!(json::get(obj, "parallel").unwrap().as_bool().is_some());
        assert!(json::get(obj, "trace").unwrap().as_bool().is_some());
    }
    assert!(lines[8].contains("\"id\":\"e9\""));
    assert!(lines[8].contains("\"parallel\":true"));
}

#[test]
fn validate_dash_reads_reports_from_stdin() {
    let report = stdout_of(&xxi(&["run", "e1", "--format", "json"]));
    let mut child = Command::new(env!("CARGO_BIN_EXE_xxi"))
        .args(["validate", "-"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("xxi spawns");
    child
        .stdin
        .take()
        .unwrap()
        .write_all(report.as_bytes())
        .unwrap();
    let out = child.wait_with_output().unwrap();
    assert_eq!(out.status.code(), Some(0), "{}", stderr_of(&out));
    assert!(stdout_of(&out).contains("1 report(s) valid"));

    // Garbage on stdin fails with the stdin name, not a file error.
    let mut child = Command::new(env!("CARGO_BIN_EXE_xxi"))
        .args(["validate", "-"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    child.stdin.take().unwrap().write_all(b"").unwrap();
    let out = child.wait_with_output().unwrap();
    assert_eq!(out.status.code(), Some(1));
    assert!(stderr_of(&out).contains("<stdin>"));
}

#[test]
fn validate_reports_malformed_input_and_exits_1() {
    let wide_row = r#"{"schema_version":3,"experiment":"e0","paper_claim":"c","seed":1,"params":{},"findings":[],"items":[{"kind":"table","caption":null,"headers":["a"],"rows":[[{"text":"1"},{"text":"2"}]]}],"runtime":null}"#;
    let deep = "[".repeat(100_000);
    for (name, doc, message) in [
        (
            "wide.jsonl",
            wide_row,
            "row has 2 cells but table has 1 columns",
        ),
        ("deep.jsonl", deep.as_str(), "nesting deeper than"),
    ] {
        let file = TempFile::new(name);
        std::fs::write(&file.0, doc).unwrap();
        let out = xxi(&["validate", file.path()]);
        assert_eq!(out.status.code(), Some(1), "{name}: {}", stderr_of(&out));
        assert!(
            stderr_of(&out).contains(message),
            "{name}: {}",
            stderr_of(&out)
        );
    }
}

#[test]
fn bench_then_self_compare_passes_and_doctored_regression_fails() {
    let bench_file = TempFile::new("bench.json");
    let out = xxi(&[
        "bench",
        "e1",
        "--iters",
        "3",
        "--warmup",
        "0",
        "--out",
        bench_file.path(),
    ]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr_of(&out));

    let text = std::fs::read_to_string(bench_file.path()).unwrap();
    let run = BenchRun::parse_json(text.trim()).expect("bench file parses");
    assert_eq!(run.results.len(), 1);
    assert_eq!(run.results[0].id, "e1");
    assert!(run.results[0].wall.min_s <= run.results[0].wall.max_s);

    // Identical files: no regression, exit 0.
    let same = xxi(&["compare", bench_file.path(), bench_file.path()]);
    assert_eq!(same.status.code(), Some(0), "{}", stderr_of(&same));
    assert!(stdout_of(&same).contains("no regressions"));

    // Doctor a 10x slowdown into a copy; the gate must trip (exit 3).
    let mut slow = run.clone();
    for r in &mut slow.results {
        r.wall.p50_s *= 10.0;
    }
    let doctored = TempFile::new("doctored.json");
    std::fs::write(doctored.path(), slow.render_json()).unwrap();
    let reg = xxi(&[
        "compare",
        bench_file.path(),
        doctored.path(),
        "--threshold",
        "50",
    ]);
    assert_eq!(reg.status.code(), Some(3), "{}", stderr_of(&reg));
    assert!(stdout_of(&reg).contains("REGRESSED"));

    // The same doctored file passes under a huge threshold.
    let loose = xxi(&[
        "compare",
        bench_file.path(),
        doctored.path(),
        "--threshold",
        "100000",
    ]);
    assert_eq!(loose.status.code(), Some(0));
}

#[test]
fn bench_without_out_prints_json_to_stdout() {
    let out = xxi(&["bench", "e1", "--iters", "1", "--warmup", "0"]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr_of(&out));
    let doc = stdout_of(&out);
    let run = BenchRun::parse_json(doc.trim()).expect("stdout is one bench document");
    assert_eq!(run.config.iters, 1);
    // Progress lines went to stderr, keeping stdout machine-clean.
    assert!(stderr_of(&out).contains("e1"));
}
