//! End-to-end tests of the `xxi` driver binary: exit-code contract,
//! machine-readable `list`, stdin validation, the bench -> compare
//! perf-gate loop, and both linters (`lint`, `src`, including the check
//! that the whole workspace is clean under `--deny warnings`), all
//! through the real executable (`CARGO_BIN_EXE_xxi`); plus a seeded
//! mutation fuzz of the binary's input paths, in-process and through the
//! executable.

use std::io::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};

use xxi_bench::bench::{self, BenchConfig, BenchRun};
use xxi_bench::{cli, experiments};
use xxi_core::report::json;
use xxi_core::rng::Rng64;

fn xxi(args: &[&str]) -> Output {
    xxi_in(&workspace_root(), args)
}

/// Run `xxi` with `dir` as its current directory.
fn xxi_in(dir: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_xxi"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("xxi runs")
}

fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root resolves")
}

fn stderr_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

fn stdout_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

/// A per-test scratch file that cleans up after itself.
struct TempFile(PathBuf);

/// A scratch path unique to this test process.
fn temp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("xxi-cli-{}-{name}", std::process::id()))
}

impl TempFile {
    fn new(name: &str) -> TempFile {
        TempFile(temp_path(name))
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

/// A per-test scratch directory of `.rs` files for `xxi src --root`.
struct TempRoot(PathBuf);

impl TempRoot {
    fn new(name: &str, files: &[(&str, &str)]) -> TempRoot {
        let root = TempRoot(temp_path(name));
        for (rel, src) in files {
            let path = root.0.join(rel);
            std::fs::create_dir_all(path.parent().unwrap()).unwrap();
            std::fs::write(path, src).unwrap();
        }
        root
    }
}

impl Drop for TempRoot {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
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
fn threads_above_the_cap_exit_2_without_panicking() {
    for (command, flag) in [("run", "--threads"), ("bench", "--iters")] {
        let out = xxi(&[command, "e1", flag, "18446744073709551615"]);
        assert_eq!(out.status.code(), Some(2), "{}", stderr_of(&out));
        let err = stderr_of(&out);
        assert!(err.contains(&format!("invalid value for {flag}")), "{err}");
        assert!(!err.contains("panicked"), "{err}");
    }
}

#[test]
fn bench_only_flags_are_rejected_outside_bench() {
    let out = xxi(&["run", "e1", "--iters", "3"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr_of(&out).contains("--iters is only valid"));

    let out = xxi(&["bench", "e1", "--threshold", "5"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr_of(&out).contains("--threshold is only valid"));

    // `list` and `compare` take only their own flags too.
    let out = xxi(&["list", "--seed", "1"]);
    assert_eq!(out.status.code(), Some(2));
    let err = stderr_of(&out);
    assert!(
        err.contains("--seed is only valid with `xxi run`/`xxi bench`"),
        "{err}"
    );
    let out = xxi(&["compare", "a.json", "b.json", "--threads", "2"]);
    assert_eq!(out.status.code(), Some(2));
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

#[test]
fn unknown_command_and_flags_exit_2_with_usage() {
    let out = xxi(&["src", "--bogus"]);
    assert_eq!(out.status.code(), Some(2));
    let err = stderr_of(&out);
    assert!(err.contains("unknown flag: --bogus"), "{err}");
    assert!(err.contains("usage: xxi <command>"), "{err}");

    // There is no baseline to grandfather findings into.
    let out = xxi(&["src", "--baseline", "srclint.baseline"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr_of(&out).contains("unknown flag: --baseline"));

    let out = xxi(&["lint", "--bogus"]);
    assert_eq!(out.status.code(), Some(2));

    let out = xxi(&["validate", "--foo"]);
    assert_eq!(out.status.code(), Some(2));
    let err = stderr_of(&out);
    assert!(err.contains("unknown flag: --foo"), "{err}");
    assert!(err.contains("usage: xxi <command>"), "{err}");

    let out = xxi(&["src", "--format", "yaml"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr_of(&out).contains("invalid value for --format: yaml"));

    let out = xxi(&["src", "--rule", "no-such-rule"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr_of(&out).contains("unknown rule"));

    // Missing value for a flag that needs one.
    let out = xxi(&["src", "--rule"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr_of(&out).contains("missing value for --rule"));
}

#[test]
fn help_and_list_exit_0() {
    let out = xxi(&["--help"]);
    assert_eq!(out.status.code(), Some(0));
    let help = stdout_of(&out);
    assert!(help.contains("exit codes: 0 clean, 1 findings, 2 usage error"));
    for (command, _, flags) in cli::COMMANDS {
        assert!(help.contains(&format!("  {command} ")), "{command}: {help}");
        for flag in flags {
            assert!(help.contains(flag), "{command} {flag} missing: {help}");
        }
    }

    let out = xxi(&["src", "--list"]);
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
    let out = xxi(&["lint", "--list"]);
    assert_eq!(out.status.code(), Some(0));
    assert!(stdout_of(&out).contains("ledger-conservation"));
}

/// The whole workspace is clean under `--deny warnings`.
#[test]
fn workspace_is_clean_under_deny_warnings() {
    let out = xxi(&["src", "--deny", "warnings"]);
    let text = stdout_of(&out);
    assert_eq!(out.status.code(), Some(0), "findings:\n{text}");
    assert!(text.contains("0 error(s), 0 warning(s)"), "{text}");
}

#[test]
fn json_output_is_byte_deterministic() {
    let a = TempFile::new("json-a");
    let b = TempFile::new("json-b");
    let out = xxi(&["src", "--format", "json", "--out", a.path()]);
    assert_eq!(out.status.code(), Some(0));
    let out = xxi(&["src", "--format=json", "--out", b.path()]);
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
    let out = xxi(&["lint", "--format=json", "--rule=cache-geometry"]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr_of(&out));
    let text = stdout_of(&out);
    let doc = json::parse(text.trim()).unwrap_or_else(|e| panic!("{e}: {text}"));
    let obj = doc.as_object().expect("an object");
    assert_eq!(json::get_u64(obj, "rules_run"), Ok(1), "{text}");

    let out = xxi(&["lint", "--format", "text", "--rule", "cache-geometry"]);
    assert_eq!(out.status.code(), Some(0));
    assert!(stdout_of(&out).starts_with("1 rule(s), "));

    // `--json` is gone, and `src`-only flags stay unknown to `lint`.
    for (bad, message) in [
        (&["lint", "--json"][..], "unknown flag: --json"),
        (
            &["lint", "--root", "."],
            "--root is only valid with `xxi src`",
        ),
        (&["lint", "--format"], "missing value for --format"),
    ] {
        let out = xxi(bad);
        assert_eq!(out.status.code(), Some(2), "{bad:?}");
        let err = stderr_of(&out);
        assert!(err.contains(message), "{bad:?}: {err}");
        assert!(err.contains("usage: xxi <command>"), "{bad:?}");
    }
}

#[test]
fn single_rule_run_is_clean() {
    for rule in ["unsafe-audit", "model-reach"] {
        let out = xxi(&["src", "--rule", rule]);
        assert_eq!(out.status.code(), Some(0), "{rule}: {}", stdout_of(&out));
    }
}

/// `--root` is whatever directory the caller names: a tree without the
/// facade `src/lib.rs`, or with a model crate that has no `lib.rs`, gets
/// fewer `model-reach` checks, not a panic.
#[test]
fn a_root_without_the_workspace_layout_lints_without_panicking() {
    let root = TempRoot::new(
        "root",
        &[
            ("src/main.rs", "fn main() {}\n"),
            ("crates/xxi-mem/src/cache.rs", "pub fn dead() {}\n"),
            ("crates/xxi-tech/src/lib.rs", "pub mod gone;\n"),
        ],
    );
    let out = xxi(&["src", "--root", root.0.to_str().unwrap()]);
    let text = stdout_of(&out);
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

/// Numbers no input should be able to crash on: out of range for `u64`
/// or `f64`, non-finite spellings, and lexemes JSON does not allow.
const NASTY_NUMBERS: [&str; 16] = [
    "1e999",
    "-1e999",
    "1e-999",
    "NaN",
    "Infinity",
    "-Infinity",
    "18446744073709551616",
    "-1",
    "-0",
    "0.5",
    "1e308",
    "99999999999999999999999999999",
    "0x1F",
    ".5",
    "--1",
    "1e",
];

/// One seeded mutation of `doc`: byte flips, a truncation, a run of
/// brackets, or a number swapped for a [`NASTY_NUMBERS`] lexeme.
fn mutate(rng: &mut Rng64, doc: &str) -> Vec<u8> {
    let mut b = doc.as_bytes().to_vec();
    let at = |rng: &mut Rng64, b: &[u8]| rng.below(b.len() as u64 + 1) as usize;
    match rng.below(4) {
        0 => {
            for _ in 0..=rng.below(8) {
                let i = rng.below(b.len() as u64) as usize;
                b[i] = rng.next_u64() as u8;
            }
        }
        1 => b.truncate(at(rng, &b)),
        2 => {
            let bracket = *rng.choose(b"[]{}");
            let run = *rng.choose(&[1, 10, 129, 1_000, 100_000]);
            let i = at(rng, &b);
            b.splice(i..i, std::iter::repeat_n(bracket, run));
        }
        _ => {
            let starts: Vec<usize> = (1..b.len())
                .filter(|&i| b[i].is_ascii_digit() && b":,[".contains(&b[i - 1]))
                .collect();
            if let Some(&i) = starts.get(rng.below(starts.len().max(1) as u64) as usize) {
                let end = (i..b.len())
                    .find(|&j| !b"0123456789.eE+-".contains(&b[j]))
                    .unwrap_or(b.len());
                b.splice(i..end, rng.choose(&NASTY_NUMBERS).bytes());
            }
        }
    }
    b
}

/// Random argv: real and misspelled flags, ids, and hostile values.
fn random_argv(rng: &mut Rng64) -> Vec<String> {
    const WORDS: [&str; 37] = [
        "--rule",
        "--rule=panic-path",
        "cache-geometry",
        "--ledger",
        "--list",
        "--root",
        "--deny",
        "warnings",
        "--deny=warnings",
        "--seed",
        "--threads",
        "--trace",
        "--format",
        "--out",
        "--iters",
        "--warmup",
        "--threshold",
        "--all",
        "--thraeds",
        "--seed=",
        "--threads=0",
        "--format=json=x",
        "-",
        "--",
        "=",
        "e1",
        "e99",
        "NOC/MESH",
        "json",
        "xml",
        "0",
        "-1",
        "1e999",
        "NaN",
        "",
        "\u{e9}",
        "\u{0}",
    ];
    (0..rng.below(8))
        .map(|_| match rng.below(8) {
            0 => rng.choose(&NASTY_NUMBERS).to_string(),
            1 => {
                let bytes: Vec<u8> = (0..rng.below(6)).map(|_| rng.next_u64() as u8).collect();
                String::from_utf8_lossy(&bytes).into_owned()
            }
            _ => rng.choose(&WORDS).to_string(),
        })
        .collect()
}

/// A real `xxi run e1 --format json` report and a real two-entry bench
/// document (an experiment and a kernel, with pool stats).
fn real_inputs() -> (String, String) {
    let flags = cli::parse_flags(&["e1".into(), "--format".into(), "json".into()], "run").unwrap();
    let report = cli::render_reports(&cli::select(&flags).unwrap(), &flags);
    let exps = [
        experiments::find("e1").unwrap(),
        experiments::find_kernel("cpu/hillmarty-best-r").unwrap() as &dyn experiments::Experiment,
    ];
    let cfg = BenchConfig {
        iters: 1,
        warmup: 0,
        threads: 2,
        seed: None,
    };
    (report, bench::run_bench(&exps, cfg, |_| {}).render_json())
}

fn no_panic(what: &str, case: u64, f: impl FnOnce()) {
    assert!(
        catch_unwind(AssertUnwindSafe(f)).is_ok(),
        "{what} panicked on fuzz case {case}"
    );
}

/// The driver's input paths never panic on mutated reports, bench files
/// or argv: they answer `Ok` or `Err`.
#[test]
fn fuzzed_reports_bench_files_and_argv_never_panic() {
    let (report, bench_doc) = real_inputs();
    let base = BenchRun::parse_json(&bench_doc).expect("the real bench document parses");
    let mut rng = Rng64::new(0x5eed_f022);
    for case in 0..400 {
        for doc in [&report, &bench_doc] {
            let text = String::from_utf8_lossy(&mutate(&mut rng, doc)).into_owned();
            no_panic("json::parse", case, || {
                let _ = json::parse(&text);
            });
            no_panic("validate", case, || {
                let _ = cli::validate_text(&text, "fuzz");
            });
            no_panic("bench parse and compare", case, || {
                if let Ok(new) = BenchRun::parse_json(&text) {
                    for (b, n) in [(&base, &new), (&new, &base), (&new, &new)] {
                        let _ = bench::compare(b, n, 10.0).render_text();
                    }
                    let _ = BenchRun::parse_json(&new.render_json());
                }
            });
        }
        let argv = random_argv(&mut rng);
        no_panic("parse_flags", case, || {
            for (command, ..) in cli::COMMANDS {
                if let Ok(f) = cli::parse_flags(&argv, command) {
                    let _ = (cli::select(&f), cli::select_bench(&f));
                }
            }
        });
    }
}

/// A few fuzz cases through the binary: every exit is a clean 0, 1 or 2.
/// Each runs in a one-file scratch tree, which `xxi src` lints, so any
/// relative path an argv names lands there and each case stays fast.
#[test]
fn fuzzed_inputs_through_the_binary_exit_0_1_or_2() {
    let (report, bench_doc) = real_inputs();
    let mut rng = Rng64::new(0xb1_7a27);
    let (report_file, bench_file) = (TempFile::new("fuzz.jsonl"), TempFile::new("fuzz.json"));
    let root = TempRoot::new(
        "fuzz-root",
        &[(
            "src/lib.rs",
            "pub fn f(x: Option<u8>) -> u8 { x.unwrap() }\n",
        )],
    );
    for case in 0..6 {
        std::fs::write(&report_file.0, mutate(&mut rng, &report)).unwrap();
        std::fs::write(&bench_file.0, mutate(&mut rng, &bench_doc)).unwrap();
        let mut argvs = vec![
            vec!["validate".to_string(), report_file.path().into()],
            vec![
                "compare".into(),
                bench_file.path().into(),
                bench_file.path().into(),
            ],
        ];
        for command in ["compare", "list", "lint", "src --root ."] {
            let mut argv: Vec<String> = command.split(' ').map(String::from).collect();
            argv.extend(random_argv(&mut rng));
            argvs.push(argv);
        }
        for argv in argvs {
            // A process argument cannot carry a nul byte.
            let argv: Vec<String> = argv.into_iter().filter(|a| !a.contains('\0')).collect();
            let args: Vec<&str> = argv.iter().map(String::as_str).collect();
            let out = xxi_in(&root.0, &args);
            assert!(
                matches!(out.status.code(), Some(0..=2)),
                "case {case}, xxi {argv:?}: {:?}\n{}",
                out.status,
                stderr_of(&out)
            );
        }
    }
}
