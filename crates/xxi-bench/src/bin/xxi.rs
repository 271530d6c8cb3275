//! `xxi` — the experiment driver.
//!
//! ```text
//! xxi list [--format json]     every experiment: id, capabilities, title
//! xxi run <id>... [flags]      run experiments by id (e1 .. e21)
//! xxi run --all [flags]        run the whole registry in id order
//! xxi validate <file|->        validate a JSON report file (one doc/line)
//! xxi bench <id>...|--all      time experiments, emit bench JSON
//! xxi compare <base> <new>     diff two bench files (the CI perf gate)
//! ```
//!
//! `xxi run e9` prints exactly what the historical `exp_e9_tail` binary
//! printed; `--format json` emits the schema-version-2 report documents.
//! Unknown commands and flags exit 2 with usage; `xxi compare` exits 3
//! when a regression exceeds the threshold.

use xxi_bench::bench::{self, BenchConfig};
use xxi_bench::cli::{self, FLAG_USAGE};
use xxi_bench::experiments;

const USAGE: &str = "\
usage: xxi <command> [args]

commands:
  list [--format json]          list all experiments
  run <id>... [flags]           run experiments by id (e1 .. e21)
  run --all [flags]             run every experiment in id order
  validate <file|->             validate a JSON report file (one document
                                per line); `-` reads stdin
  bench <id>...|--all [flags]   time experiments (--iters N, --warmup K,
                                --threads N, --seed S, --out bench.json);
                                also accepts the des-* and noc-mesh
                                microbenches, and --all includes them
  compare <base> <new>          diff two bench JSON files by median wall
                                time; --threshold <pct> (default 10) sets
                                the regression gate (exit 3 when exceeded)
";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("list") => list(&args[1..]),
        Some("run") => run(&args[1..]),
        Some("validate") => validate(&args[1..]),
        Some("bench") => run_bench(&args[1..]),
        Some("compare") => compare(&args[1..]),
        Some("--help" | "-h" | "help") => {
            print!("{USAGE}\n{FLAG_USAGE}\n");
            0
        }
        Some(other) => {
            eprintln!("error: unknown command: {other}\n\n{USAGE}");
            2
        }
        None => {
            eprintln!("{USAGE}");
            2
        }
    };
    std::process::exit(code);
}

fn list(args: &[String]) -> i32 {
    let flags = match cli::parse_flags(args) {
        Ok(f) if f.ids.is_empty() => f,
        Ok(_) => {
            eprintln!("error: xxi list takes no positional arguments\n\n{USAGE}");
            return 2;
        }
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return 2;
        }
    };
    match flags.format {
        cli::Format::Text => {
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
        cli::Format::Json => {
            // One experiment object per line, like `xxi run --format json`.
            use xxi_core::report::json::escape;
            for e in experiments::registry() {
                println!(
                    "{{\"id\":\"{}\",\"title\":\"{}\",\"parallel\":{},\"trace\":{}}}",
                    escape(e.id()),
                    escape(e.title()),
                    e.parallel(),
                    e.emits_trace()
                );
            }
        }
    }
    0
}

fn run(args: &[String]) -> i32 {
    let flags = match cli::parse_flags(args) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}\n{FLAG_USAGE}");
            return 2;
        }
    };
    if let Some(flag) = flags.bench_only_flag() {
        eprintln!("error: {flag} is only valid with `xxi bench`/`xxi compare`\n\n{USAGE}");
        return 2;
    }
    let exps = match cli::select(&flags) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("error: {e}");
            return 2;
        }
    };
    let rendered = cli::render_reports(&exps, &flags);
    cli::deliver(&rendered, &flags)
}

fn validate(args: &[String]) -> i32 {
    let [path] = args else {
        eprintln!("usage: xxi validate <file|->");
        return 2;
    };
    let (ok, msg) = cli::validate_file(std::path::Path::new(path));
    if ok {
        println!("{msg}");
        0
    } else {
        eprintln!("error: {msg}");
        1
    }
}

fn run_bench(args: &[String]) -> i32 {
    let flags = match cli::parse_flags(args) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return 2;
        }
    };
    if flags.trace.is_some() || flags.format != cli::Format::Text {
        eprintln!("error: xxi bench takes --iters/--warmup/--threads/--seed/--out only\n\n{USAGE}");
        return 2;
    }
    if flags.threshold.is_some() {
        eprintln!("error: --threshold is only valid with `xxi compare`\n\n{USAGE}");
        return 2;
    }
    let exps = match cli::select_bench(&flags) {
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
    let doc = run.render_json();
    match &flags.out {
        None => {
            println!("{doc}");
            0
        }
        Some(path) => match std::fs::write(path, format!("{doc}\n")) {
            Ok(()) => {
                eprintln!(
                    "wrote {} result(s) -> {}",
                    run.results.len(),
                    path.display()
                );
                0
            }
            Err(e) => {
                eprintln!("error: cannot write {}: {e}", path.display());
                1
            }
        },
    }
}

fn compare(args: &[String]) -> i32 {
    let flags = match cli::parse_flags(args) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return 2;
        }
    };
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
