//! The `xxi-check` command-line tool.
//!
//! ```text
//! xxi-check lint [--json] [--rule <id>] [--ledger <path>] [--list]
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
//! flag, missing value).

use std::path::PathBuf;
use std::process::ExitCode;

use xxi_check::lint::{self, check_ledger_text, LintReport, Severity, RULES};
use xxi_check::srclint;

const USAGE: &str = "\
usage: xxi-check <command> [flags]

commands:
  lint   run the cross-layer model linter
         [--json] [--rule <id>] [--ledger <path>] [--list]
  src    run the workspace source linter
         [--root <dir>] [--rule <id>] [--format text|json] [--out <path>]
         [--deny warnings] [--list]

exit codes: 0 clean, 1 findings, 2 usage error";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => lint(&args[1..]),
        Some("src") => src(&args[1..]),
        Some("--help") | Some("-h") | Some("help") | None => {
            println!("{USAGE}");
            ExitCode::SUCCESS
        }
        Some(other) => usage_error(&format!("unknown command {other:?}")),
    }
}

fn lint(args: &[String]) -> ExitCode {
    let mut json = false;
    let mut list = false;
    let mut rule: Option<String> = None;
    let mut ledgers: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--json" => json = true,
            "--list" => list = true,
            "--rule" => match it.next() {
                Some(id) => rule = Some(id.clone()),
                None => return usage_error("--rule needs an id"),
            },
            "--ledger" => match it.next() {
                Some(p) => ledgers.push(p.clone()),
                None => return usage_error("--ledger needs a path"),
            },
            other => return usage_error(&format!("unknown flag {other:?}")),
        }
    }

    if list {
        for r in &RULES {
            println!("{:<20} {}", r.id, r.description);
        }
        return ExitCode::SUCCESS;
    }
    if let Some(id) = &rule {
        if !RULES.iter().any(|r| r.id == id) {
            return usage_error(&format!("unknown rule {id:?} (see --list)"));
        }
    }

    let mut report: LintReport = lint::run(rule.as_deref());
    for path in &ledgers {
        match std::fs::read_to_string(path) {
            Ok(text) => report.diags.extend(check_ledger_text(path, &text)),
            Err(e) => report.diags.push(xxi_check::lint::Diagnostic {
                rule: "ledger-conservation",
                severity: Severity::Error,
                source: path.clone(),
                message: format!("cannot read ledger file: {e}"),
            }),
        }
    }

    if json {
        println!("{}", report.to_json());
    } else {
        println!("{report}");
    }
    if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn src(args: &[String]) -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut rule: Option<String> = None;
    let mut format = "text".to_string();
    let mut out: Option<PathBuf> = None;
    let mut deny_warnings = false;
    let mut list = false;

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        // Accept both `--flag value` and `--flag=value`, like the xxi
        // driver.
        let (flag, inline) = match arg.split_once('=') {
            Some((f, v)) => (f, Some(v.to_string())),
            None => (arg.as_str(), None),
        };
        let mut value = |name: &str| -> Result<String, ExitCode> {
            inline
                .clone()
                .or_else(|| it.next().cloned())
                .ok_or_else(|| usage_error(&format!("{name} needs a value")))
        };
        match flag {
            "--root" => match value("--root") {
                Ok(v) => root = Some(PathBuf::from(v)),
                Err(e) => return e,
            },
            "--rule" => match value("--rule") {
                Ok(v) => rule = Some(v),
                Err(e) => return e,
            },
            "--format" => match value("--format") {
                Ok(v) if v == "text" || v == "json" => format = v,
                Ok(v) => return usage_error(&format!("--format must be text or json, got {v:?}")),
                Err(e) => return e,
            },
            "--out" => match value("--out") {
                Ok(v) => out = Some(PathBuf::from(v)),
                Err(e) => return e,
            },
            "--deny" => match value("--deny") {
                Ok(v) if v == "warnings" => deny_warnings = true,
                Ok(v) => return usage_error(&format!("--deny only accepts warnings, got {v:?}")),
                Err(e) => return e,
            },
            "--list" => list = true,
            other => return usage_error(&format!("unknown flag {other:?}")),
        }
    }

    if list {
        for (id, desc) in srclint::rules::RULES {
            println!("{id:<20} {desc}");
        }
        return ExitCode::SUCCESS;
    }
    if let Some(id) = &rule {
        if !srclint::rules::RULES.iter().any(|(rid, _)| rid == id) {
            return usage_error(&format!("unknown rule {id:?} (see --list)"));
        }
    }

    let report = match srclint::run(&srclint::SrcOptions {
        root: root.unwrap_or_else(find_workspace_root),
        rule,
        deny_warnings,
    }) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };

    let rendered = if format == "json" {
        report.to_json()
    } else {
        report.to_string()
    };
    match &out {
        Some(path) => {
            if let Err(e) = std::fs::write(path, rendered + "\n") {
                eprintln!("error: writing {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
        None => println!("{rendered}"),
    }

    if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
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
