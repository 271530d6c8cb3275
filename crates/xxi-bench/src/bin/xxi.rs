//! `xxi` — the repo's one command-line program.
//!
//! ```text
//! xxi list [--format json]     every experiment: id, capabilities, title
//! xxi run <id>... [flags]      run experiments by id (e1 .. e21)
//! xxi run --all [flags]        run the whole registry in id order
//! xxi validate <file|->        validate a JSON report file (one doc/line)
//! xxi bench <id>...|--all      time experiments and kernels, emit bench JSON
//! xxi compare <base> <new>     diff two bench files (the perf gate's check)
//! xxi lint [flags]             the cross-layer model linter
//! xxi src [flags]              the workspace source linter
//! ```
//!
//! `xxi run e9` prints the text report pinned by the goldens; `--format
//! json` emits the schema-version-3 report documents. Each command takes
//! the flags `cli::COMMANDS` lists for it. Exit codes: 0 clean, 1 on
//! errors or linter findings, 2 on usage errors (unknown command or flag,
//! missing value), 3 when `xxi compare` finds a regression above the
//! threshold.

use std::fmt::Display;
use std::path::{Path, PathBuf};

use xxi_bench::bench::{self, BenchConfig};
use xxi_bench::cli::{self, Flags, Format, FLAG_USAGE};
use xxi_bench::experiments;
use xxi_check::lint::{self, Diagnostic, Severity};
use xxi_check::srclint::{self, SrcOptions};
use xxi_core::report::json::Json;

const USAGE: &str = "\
usage: xxi <command> [args]

commands:
  list [--format json]          list all experiments
  run <id>... [flags]           run experiments by id (e1 .. e21)
  run --all [flags]             run every experiment in id order
  validate <file|->             validate a JSON report file (one document
                                per line); `-` reads stdin
  bench <id>...|--all [flags]   time experiments and the layer/kernel
                                throughput kernels (mem/dram-random,
                                stack/pool-sum, ...; --all is every
                                experiment, then every kernel); --iters N,
                                --warmup K, --threads N, --seed S,
                                --out bench.json
  compare <base> <new>          diff two bench JSON files by median wall
                                time; --threshold <pct> (default 10) sets
                                the regression gate (exit 3 when exceeded)
  lint [flags]                  run the cross-layer model linter;
                                --format <text|json>, --rule <id>,
                                --ledger <path> (repeatable), --list
  src [flags]                   run the workspace source linter;
                                --root <dir>, --rule <id>, --format
                                <text|json>, --out <path>, --deny warnings,
                                --list

exit codes: 0 clean, 1 findings, 2 usage error, 3 regression (compare)
";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("--help" | "-h" | "help") => {
            print!("{USAGE}\n{FLAG_USAGE}\n");
            0
        }
        Some(command) => match cli::parse_flags(&args[1..], command) {
            Ok(flags) => match command {
                "list" => list(&flags),
                "run" => run(&flags),
                "validate" => validate(&flags),
                "bench" => run_bench(&flags),
                "compare" => compare(&flags),
                "lint" => lint(&flags),
                "src" => src(&flags),
                _ => usage_error(&format!("unknown command: {command}")),
            },
            Err(e) => usage_error(&e),
        },
        None => {
            eprintln!("{USAGE}");
            2
        }
    };
    std::process::exit(code);
}

/// Print `msg` and the usage on stderr; the usage-error exit code.
fn usage_error(msg: &str) -> i32 {
    eprintln!("error: {msg}\n\n{USAGE}\n{FLAG_USAGE}");
    2
}

fn list(flags: &Flags) -> i32 {
    match flags.format {
        Format::Text => {
            println!("{:<5} {:<7} title", "id", "flags");
            for e in experiments::registry() {
                let mut caps = String::new();
                if e.parallel() {
                    caps.push('P');
                }
                if e.emits_trace() {
                    caps.push('T');
                }
                println!("{:<5} {:<7} {}", e.id(), caps, e.title());
            }
            println!("\nP = --threads speeds it up   T = accepts --trace <path>");
        }
        Format::Json => {
            // One experiment object per line, like `xxi run --format json`.
            for e in experiments::registry() {
                let doc = Json::obj([
                    ("id", Json::str(e.id())),
                    ("title", Json::str(e.title())),
                    ("parallel", Json::Bool(e.parallel())),
                    ("trace", Json::Bool(e.emits_trace())),
                ]);
                println!("{doc}");
            }
        }
    }
    0
}

fn run(flags: &Flags) -> i32 {
    let exps = match cli::select(flags) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("error: {e}");
            return 2;
        }
    };
    let rendered = cli::render_reports(&exps, flags);
    cli::deliver(&rendered, flags)
}

fn validate(flags: &Flags) -> i32 {
    let [path] = flags.ids.as_slice() else {
        eprintln!("usage: xxi validate <file|->");
        return 2;
    };
    let (ok, msg) = cli::validate_file(Path::new(path));
    if ok {
        println!("{msg}");
        0
    } else {
        eprintln!("error: {msg}");
        1
    }
}

fn run_bench(flags: &Flags) -> i32 {
    let exps = match cli::select_bench(flags) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("error: {e}");
            return 2;
        }
    };
    let cfg = BenchConfig {
        iters: flags.iters.unwrap_or(5),
        warmup: flags.warmup.unwrap_or(1),
        threads: flags.threads,
        seed: flags.seed,
    };
    // Progress to stderr so stdout stays a clean JSON document when no
    // --out was given.
    let run = bench::run_bench(&exps, cfg, |line| eprintln!("{line}"));
    let code = cli::deliver(&format!("{}\n", run.render_json()), flags);
    if let (0, Some(path)) = (code, &flags.out) {
        eprintln!(
            "wrote {} result(s) -> {}",
            run.results.len(),
            path.display()
        );
    }
    code
}

fn compare(flags: &Flags) -> i32 {
    let [base_path, new_path] = flags.ids.as_slice() else {
        eprintln!("usage: xxi compare <base.json> <new.json> [--threshold <pct>]");
        return 2;
    };
    let load = |path: &str| -> Result<bench::BenchRun, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        bench::BenchRun::parse_json(text.trim()).map_err(|e| format!("{path}: {e}"))
    };
    let (base, new) = match (load(base_path), load(new_path)) {
        (Ok(b), Ok(n)) => (b, n),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("error: {e}");
            return 1;
        }
    };
    let threshold = flags.threshold.unwrap_or(10.0);
    let cmp = bench::compare(&base, &new, threshold);
    print!("{}", cmp.render_text());
    if cmp.regressed() {
        3
    } else {
        0
    }
}

/// `xxi lint`: the model linter, plus an audit of each `--ledger` file.
fn lint(flags: &Flags) -> i32 {
    let rules: Vec<_> = lint::RULES.iter().map(|r| (r.id, r.description)).collect();
    if let Some(code) = list_or_check_rule(flags, &rules) {
        return code;
    }
    let mut report = lint::run(flags.rule.as_deref());
    for path in &flags.ledgers {
        match std::fs::read_to_string(path) {
            Ok(text) => report.diags.extend(lint::check_ledger_text(path, &text)),
            Err(e) => report.diags.push(Diagnostic {
                rule: "ledger-conservation",
                severity: Severity::Error,
                source: path.clone(),
                message: format!("cannot read ledger file: {e}"),
            }),
        }
    }
    linted(&report, report.to_json(), report.is_clean(), flags)
}

/// `xxi src`: the source linter over every `.rs` file under `--root`.
fn src(flags: &Flags) -> i32 {
    if let Some(code) = list_or_check_rule(flags, srclint::rules::RULES) {
        return code;
    }
    let report = match srclint::run(&SrcOptions {
        root: flags.root.clone().unwrap_or_else(workspace_root),
        rule: flags.rule.clone(),
        deny_warnings: flags.deny_warnings,
    }) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return 1;
        }
    };
    linted(&report, report.to_json(), report.is_clean(), flags)
}

/// `--list` prints a linter's `(id, description)` rules (exit 0); a
/// `--rule` naming none of them is a usage error. `None`: go on and lint.
fn list_or_check_rule(flags: &Flags, rules: &[(&str, &str)]) -> Option<i32> {
    if flags.list {
        for (id, desc) in rules {
            println!("{id:<20} {desc}");
        }
        return Some(0);
    }
    match &flags.rule {
        Some(id) if !rules.iter().any(|(rid, _)| rid == id) => {
            Some(usage_error(&format!("unknown rule {id:?} (see --list)")))
        }
        _ => None,
    }
}

/// Deliver a linter's report, as `text` or `json` by `--format`: 0 when
/// it is clean, else 1.
fn linted(text: &dyn Display, json: Json, clean: bool, flags: &Flags) -> i32 {
    let rendered = match flags.format {
        Format::Text => format!("{text}\n"),
        Format::Json => format!("{json}\n"),
    };
    match cli::deliver(&rendered, flags) {
        0 if !clean => 1,
        code => code,
    }
}

/// The workspace root: the nearest ancestor of the current directory
/// whose `Cargo.toml` holds a `[workspace]` table, else `.`.
fn workspace_root() -> PathBuf {
    let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    cwd.ancestors()
        .find(|dir| {
            std::fs::read_to_string(dir.join("Cargo.toml"))
                .is_ok_and(|text| text.contains("[workspace]"))
        })
        .map_or_else(|| PathBuf::from("."), Path::to_path_buf)
}
