//! The `xxi-check` command-line tool.
//!
//! ```text
//! xxi-check lint [--format text|json] [--rule <id>] [--ledger <path>] [--list]
//! xxi-check src  [--root <dir>] [--rule <id>] [--format text|json]
//!                [--out <path>] [--deny warnings] [--list]
//! ```
//!
//! `lint` runs the cross-layer model linter over the shipped model
//! constructors (the same configurations experiments E10/E17/E18 use);
//! `src` runs the workspace source linter over every `.rs` file.
//!
//! Exit codes follow the `xxi` driver's contract: **0** clean, **1** when
//! findings fail the run (any error, or any warning under
//! `--deny warnings`), **2** on usage errors (unknown subcommand, unknown
//! flag, missing value). Both subcommands read their flags with one loop:
//! every `--flag value` also accepts `--flag=value`, like the `xxi` driver.

use std::path::PathBuf;
use std::process::ExitCode;

use xxi_check::lint::{self, check_ledger_text, Diagnostic, Severity, RULES};
use xxi_check::srclint;

const USAGE: &str = "\
usage: xxi-check <command> [flags]

commands:
  lint   run the cross-layer model linter
         [--format text|json] [--rule <id>] [--ledger <path>] [--list]
  src    run the workspace source linter
         [--root <dir>] [--rule <id>] [--format text|json] [--out <path>]
         [--deny warnings] [--list]

exit codes: 0 clean, 1 findings, 2 usage error";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (accepted, rules): (&[&str], Vec<(&str, &str)>) = match args.first().map(String::as_str) {
        Some("lint") => (
            &["--format", "--rule", "--ledger", "--list"],
            RULES.iter().map(|r| (r.id, r.description)).collect(),
        ),
        Some("src") => (
            &["--root", "--rule", "--format", "--out", "--deny", "--list"],
            srclint::rules::RULES.to_vec(),
        ),
        Some("--help") | Some("-h") | Some("help") | None => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Some(other) => return usage_error(&format!("unknown command {other:?}")),
    };
    let flags = match parse_flags(&args[1..], accepted) {
        Ok(f) => f,
        Err(e) => return usage_error(&e),
    };
    if flags.list {
        for (id, desc) in &rules {
            println!("{id:<20} {desc}");
        }
        return ExitCode::SUCCESS;
    }
    if let Some(id) = &flags.rule {
        if !rules.iter().any(|(rid, _)| rid == id) {
            return usage_error(&format!("unknown rule {id:?} (see --list)"));
        }
    }

    let run = if args[0] == "lint" {
        Ok(lint(&flags))
    } else {
        src(&flags)
    };
    let (rendered, clean) = match run {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    match &flags.out {
        Some(path) => {
            if let Err(e) = std::fs::write(path, rendered + "\n") {
                eprintln!("error: writing {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
        None => println!("{rendered}"),
    }
    if clean {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The flags of both subcommands; each accepts a subset.
#[derive(Default)]
struct Flags {
    root: Option<PathBuf>,
    rule: Option<String>,
    json: bool,
    out: Option<PathBuf>,
    deny_warnings: bool,
    list: bool,
    ledgers: Vec<String>,
}

/// Read `args` against the flag names in `accepted`; `Err` is a usage
/// error message.
fn parse_flags(args: &[String], accepted: &[&str]) -> Result<Flags, String> {
    let mut f = Flags::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let (flag, inline) = match arg.split_once('=') {
            Some((f, v)) => (f, Some(v.to_string())),
            None => (arg.as_str(), None),
        };
        if !accepted.contains(&flag) {
            return Err(format!("unknown flag {flag:?}"));
        }
        if flag == "--list" {
            f.list = true;
            continue;
        }
        let Some(v) = inline.or_else(|| it.next().cloned()) else {
            return Err(format!("{flag} needs a value"));
        };
        match flag {
            "--root" => f.root = Some(PathBuf::from(v)),
            "--rule" => f.rule = Some(v),
            "--format" if v == "text" || v == "json" => f.json = v == "json",
            "--format" => return Err(format!("--format must be text or json, got {v:?}")),
            "--out" => f.out = Some(PathBuf::from(v)),
            "--deny" if v == "warnings" => f.deny_warnings = true,
            "--deny" => return Err(format!("--deny only accepts warnings, got {v:?}")),
            "--ledger" => f.ledgers.push(v),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(f)
}

/// Run the model linter (plus any `--ledger` audits): the rendered report
/// and whether it is clean.
fn lint(flags: &Flags) -> (String, bool) {
    let mut report = lint::run(flags.rule.as_deref());
    for path in &flags.ledgers {
        match std::fs::read_to_string(path) {
            Ok(text) => report.diags.extend(check_ledger_text(path, &text)),
            Err(e) => report.diags.push(Diagnostic {
                rule: "ledger-conservation",
                severity: Severity::Error,
                source: path.clone(),
                message: format!("cannot read ledger file: {e}"),
            }),
        }
    }
    let rendered = if flags.json {
        report.to_json().to_string()
    } else {
        report.to_string()
    };
    (rendered, report.is_clean())
}

/// Run the source linter: the rendered report and whether it is clean.
fn src(flags: &Flags) -> Result<(String, bool), String> {
    let report = srclint::run(&srclint::SrcOptions {
        root: flags.root.clone().unwrap_or_else(find_workspace_root),
        rule: flags.rule.clone(),
        deny_warnings: flags.deny_warnings,
    })?;
    let rendered = if flags.json {
        report.to_json().to_string()
    } else {
        report.to_string()
    };
    Ok((rendered, report.is_clean()))
}

/// The workspace root: walk up from the current directory to the first
/// ancestor holding a `Cargo.toml` with a `[workspace]` table.
fn find_workspace_root() -> PathBuf {
    let mut dir = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return dir;
            }
        }
        if !dir.pop() {
            return PathBuf::from(".");
        }
    }
}

fn usage_error(msg: &str) -> ExitCode {
    eprintln!("{msg}\n{USAGE}");
    ExitCode::from(2)
}
