//! The benchmark's output checks, exercised through the built binary.
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::process::{Command, Output};

fn bench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_xxi-perfbench"))
        .args(args)
        .output()
        .expect("the benchmark binary runs")
}

/// `(attempted, failed, correct)` from the result line.
fn result(out: &Output) -> (u64, u64, bool) {
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().expect("a result line");
    let field = |key: &str| -> String {
        let at = last.find(&format!("\"{key}\": ")).expect("key present") + key.len() + 4;
        last[at..]
            .chars()
            .take_while(|c| c.is_ascii_alphanumeric())
            .collect()
    };
    (
        field("attempted").parse().expect("a count"),
        field("failed").parse().expect("a count"),
        field("correct") == "true",
    )
}

#[test]
fn a_doctored_digest_fails_every_call_and_the_run() {
    let out = bench(&[
        "--workload",
        "tail-serving",
        "--seconds",
        "0",
        "--expect-digest",
        "0xdead",
    ]);
    assert_eq!(out.status.code(), Some(1));
    let (attempted, failed, correct) = result(&out);
    assert!(attempted > 0);
    assert_eq!(failed, attempted, "failed_frac must be 1");
    assert!(!correct);
}

#[test]
fn canonical_seeds_reproduce_the_recorded_digests() {
    for w in ["tail-serving", "noc-mem-fabric", "sensor-epochs"] {
        let out = bench(&["--workload", w, "--seconds", "0"]);
        let (attempted, failed, correct) = result(&out);
        assert_eq!((failed, correct), (0, true), "{w}: {out:?}");
        assert!(attempted > 0);
        assert_eq!(out.status.code(), Some(0));
    }
}

#[test]
fn usage_errors_exit_2_without_a_result() {
    for args in [
        &["--workload", "nope"][..],
        &["--seconds", "1"],
        &["--workload", "tail-serving", "--trace", "2"],
        &["--workload"],
    ] {
        let out = bench(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty());
    }
}
