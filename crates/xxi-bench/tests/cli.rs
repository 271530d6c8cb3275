//! End-to-end tests of the `xxi` driver binary: exit-code contract,
//! machine-readable `list`, stdin validation, and the bench -> compare
//! perf-gate loop, all through the real executable
//! (`CARGO_BIN_EXE_xxi`); plus a seeded mutation fuzz of the driver's
//! input paths, in-process and through the binary.

use std::io::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::process::{Command, Output, Stdio};

use xxi_bench::bench::{self, BenchConfig, BenchRun};
use xxi_bench::{cli, experiments};
use xxi_core::report::json;
use xxi_core::rng::Rng64;

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
fn threads_above_the_cap_exit_2_without_panicking() {
    let out = xxi(&["run", "e1", "--threads", "18446744073709551615"]);
    assert_eq!(out.status.code(), Some(2), "{}", stderr_of(&out));
    let err = stderr_of(&out);
    assert!(err.contains("invalid value for --threads"), "{err}");
    assert!(!err.contains("panicked"), "{err}");
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
    const WORDS: [&str; 28] = [
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
    let flags = cli::parse_flags(&["e1".into(), "--format".into(), "json".into()]).unwrap();
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
            if let Ok(f) = cli::parse_flags(&argv) {
                let _ = (cli::select(&f), cli::select_bench(&f));
            }
        });
    }
}

/// A few fuzz cases through the binary: every exit is a clean 0, 1 or 2.
#[test]
fn fuzzed_inputs_through_the_binary_exit_0_1_or_2() {
    let (report, bench_doc) = real_inputs();
    let mut rng = Rng64::new(0xb1_7a27);
    let (report_file, bench_file) = (TempFile::new("fuzz.jsonl"), TempFile::new("fuzz.json"));
    for case in 0..6 {
        std::fs::write(&report_file.0, mutate(&mut rng, &report)).unwrap();
        std::fs::write(&bench_file.0, mutate(&mut rng, &bench_doc)).unwrap();
        let mut compare_argv = vec!["compare".to_string()];
        compare_argv.extend(random_argv(&mut rng));
        let mut list_argv = vec!["list".to_string()];
        list_argv.extend(random_argv(&mut rng));
        for argv in [
            vec!["validate".to_string(), report_file.path().into()],
            vec![
                "compare".into(),
                bench_file.path().into(),
                bench_file.path().into(),
            ],
            compare_argv,
            list_argv,
        ] {
            // A process argument cannot carry a nul byte.
            let argv: Vec<String> = argv.into_iter().filter(|a| !a.contains('\0')).collect();
            let out = Command::new(env!("CARGO_BIN_EXE_xxi"))
                .args(&argv)
                .output()
                .expect("xxi runs");
            assert!(
                matches!(out.status.code(), Some(0..=2)),
                "case {case}, xxi {argv:?}: {:?}\n{}",
                out.status,
                stderr_of(&out)
            );
        }
    }
}
