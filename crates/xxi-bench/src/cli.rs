//! The command-line layer: the flag parser and report plumbing behind
//! the `xxi` binary.
//!
//! [`COMMANDS`] lists every command and the flags each accepts;
//! [`parse_flags`] reads any command's arguments against it. The
//! experiment flags are:
//!
//! ```text
//! --seed <u64>          reseed every RNG stream (default: canonical seeds)
//! --threads <N>         worker threads, 1 <= N <= 1024 (output is byte-identical)
//! --trace <path>        Chrome trace_event JSON (e10/e17/e18/e21 only)
//! --format <text|json>  report format (default: text)
//! --out <path>          write the report(s) to a file instead of stdout
//! ```
//!
//! Unknown flags are an error (exit 2 with usage), so `xxi run e9
//! --thraeds 8` fails loudly instead of running serial, and so is a flag
//! of another command (`xxi run e9 --iters 3`). `--trace` on an
//! experiment that declares no trace capability is likewise exit 2.

use std::path::PathBuf;

use xxi_core::report::json::{self, Json};
use xxi_core::report::SCHEMA_VERSION;
use xxi_core::Report;

use crate::experiments::{self, Experiment, RunCtx};

/// Output format for a rendered report.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Format {
    #[default]
    Text,
    Json,
}

/// Every command: its name, whether it takes positional arguments
/// (experiment ids, `validate`'s file, `compare`'s two files), and exactly
/// the flags it honours.
#[rustfmt::skip]
pub const COMMANDS: [(&str, bool, &[&str]); 7] = [
    ("list", false, &["--format"]),
    ("run", true, &["--all", "--seed", "--threads", "--trace", "--format", "--out"]),
    ("validate", true, &[]),
    ("bench", true, &["--all", "--iters", "--warmup", "--threads", "--seed", "--out"]),
    ("compare", true, &["--threshold"]),
    ("lint", false, &["--format", "--rule", "--ledger", "--list"]),
    ("src", false, &["--root", "--rule", "--format", "--out", "--deny", "--list"]),
];

/// Parsed command-line flags (plus positional arguments).
#[derive(Debug, Default)]
pub struct Flags {
    /// Positional arguments (experiment ids, or `compare`'s two files).
    pub ids: Vec<String>,
    /// `--all`: run or bench the whole registry.
    pub all: bool,
    pub seed: Option<u64>,
    pub threads: usize,
    pub trace: Option<PathBuf>,
    pub format: Format,
    pub out: Option<PathBuf>,
    /// `--iters` (`None` = flag not given).
    pub iters: Option<u64>,
    pub warmup: Option<u64>,
    /// `--threshold` percent.
    pub threshold: Option<f64>,
    /// `--root`: the tree `xxi src` lints (default: the workspace root).
    pub root: Option<PathBuf>,
    /// `--rule`: run one linter rule only.
    pub rule: Option<String>,
    /// `--ledger`, repeatable: ledger files `xxi lint` audits.
    pub ledgers: Vec<String>,
    /// `--deny warnings`: warnings fail the run.
    pub deny_warnings: bool,
    /// `--list`: print the linter's rules and exit.
    pub list: bool,
}

/// The flag block of the `xxi` usage message.
pub const FLAG_USAGE: &str = "\
flags:
  --seed <u64>          reseed every RNG stream (default: the canonical seeds)
  --threads <N>         worker threads, 1 <= N <= 1024; output is byte-identical
  --trace <path>        write a Chrome trace_event JSON file (e10/e17/e18/e21)
  --format <text|json>  report format (default: text)
  --out <path>          write the report(s) to <path> instead of stdout";

/// The most worker threads `--threads` accepts. A fixed cap, so no
/// argument can make `Pool::new` allocate without bound.
const MAX_THREADS: usize = 1024;

/// Parse the arguments of `xxi <command>` (after the command name)
/// against the flags [`COMMANDS`] lists for it. Every `--flag value` also
/// accepts `--flag=value`. Returns an error message for unknown flags,
/// flags of other commands, stray positional arguments, missing values,
/// or unparsable values.
pub fn parse_flags(args: &[String], command: &str) -> Result<Flags, String> {
    let Some(&(_, positional, accepted)) = COMMANDS.iter().find(|c| c.0 == command) else {
        return Err(format!("unknown command: {command}"));
    };
    let mut f = Flags {
        threads: 1,
        ..Flags::default()
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let (name, inline) = match a.split_once('=') {
            Some((n, v)) if n.starts_with("--") => (n, Some(v.to_string())),
            _ => (a.as_str(), None),
        };
        // A bare `-` is a positional argument: `xxi validate -` reads stdin.
        if !name.starts_with('-') || name == "-" {
            if !positional {
                return Err(format!("xxi {command} takes no positional arguments"));
            }
            f.ids.push(a.clone());
            continue;
        }
        if !accepted.contains(&name) {
            return Err(rejection(name));
        }
        match name {
            "--all" | "--list" if inline.is_some() => return Err(format!("{name} takes no value")),
            "--all" => f.all = true,
            "--list" => f.list = true,
            _ => {
                let v = inline
                    .or_else(|| it.next().cloned())
                    .ok_or_else(|| format!("missing value for {name}"))?;
                set_value(&mut f, name, v)?;
            }
        }
    }
    Ok(f)
}

/// Why a flag `parse_flags` does not accept for this command is refused:
/// the commands that do take it, from [`COMMANDS`], or none.
fn rejection(flag: &str) -> String {
    let takers: Vec<String> = COMMANDS
        .iter()
        .filter(|c| c.2.contains(&flag))
        .map(|c| format!("`xxi {}`", c.0))
        .collect();
    if takers.is_empty() {
        format!("unknown flag: {flag}")
    } else {
        format!("{flag} is only valid with {}", takers.join("/"))
    }
}

/// Store the value `v` of the valued flag `name`.
fn set_value(f: &mut Flags, name: &str, v: String) -> Result<(), String> {
    let invalid = |need: &str| format!("invalid value for {name}: {v} ({need})");
    match name {
        "--seed" => f.seed = Some(v.parse().map_err(|_| invalid("need a u64"))?),
        "--threads" => {
            f.threads = match v.parse::<usize>() {
                Ok(n) if (1..=MAX_THREADS).contains(&n) => n,
                _ => return Err(invalid(&format!("need an integer from 1 to {MAX_THREADS}"))),
            }
        }
        "--iters" => {
            f.iters = match v.parse::<u64>() {
                Ok(n) if n >= 1 => Some(n),
                _ => return Err(invalid("need an integer >= 1")),
            }
        }
        "--warmup" => f.warmup = Some(v.parse().map_err(|_| invalid("need a u64"))?),
        "--threshold" => {
            f.threshold = match v.parse::<f64>() {
                Ok(t) if t >= 0.0 && t.is_finite() => Some(t),
                _ => return Err(invalid("need a percentage >= 0")),
            }
        }
        "--format" => {
            f.format = match v.as_str() {
                "text" => Format::Text,
                "json" => Format::Json,
                _ => return Err(invalid("text or json")),
            }
        }
        "--deny" if v == "warnings" => f.deny_warnings = true,
        "--deny" => return Err(invalid("only warnings")),
        "--trace" => f.trace = Some(PathBuf::from(v)),
        "--out" => f.out = Some(PathBuf::from(v)),
        "--root" => f.root = Some(PathBuf::from(v)),
        "--rule" => f.rule = Some(v),
        "--ledger" => f.ledgers.push(v),
        _ => return Err(format!("unknown flag: {name}")),
    }
    Ok(())
}

/// Resolve the experiments selected by `flags` (ids or `--all`) and check
/// the flag/capability contract. Returns an error message for unknown
/// ids, `--trace` on a non-tracing experiment, or `--trace` spread over
/// several experiments at once.
pub fn select(flags: &Flags) -> Result<Vec<&'static dyn Experiment>, String> {
    let exps: Vec<&dyn Experiment> = if flags.all {
        if !flags.ids.is_empty() {
            return Err("pass either --all or experiment ids, not both".into());
        }
        experiments::registry().to_vec()
    } else {
        if flags.ids.is_empty() {
            return Err("no experiment ids given (try `xxi list` or `xxi run --all`)".into());
        }
        let mut v = Vec::new();
        for id in &flags.ids {
            v.push(
                experiments::find(id)
                    .ok_or_else(|| format!("unknown experiment: {id} (see `xxi list`)"))?,
            );
        }
        v
    };
    if flags.trace.is_some() {
        if exps.len() != 1 {
            return Err("--trace requires exactly one experiment".into());
        }
        let e = exps[0];
        if !e.emits_trace() {
            return Err(format!("experiment {} does not emit traces", e.id()));
        }
    }
    Ok(exps)
}

/// Resolve what `xxi bench` should time. Same id grammar as [`select`],
/// plus the `layer/kernel` ids of the kernel registry: ids resolve against
/// both, and `--all` means the 21 experiments followed by every kernel.
/// The run/list/golden paths never see the kernels.
pub fn select_bench(flags: &Flags) -> Result<Vec<&'static dyn Experiment>, String> {
    let kernels = experiments::kernels::KERNELS
        .iter()
        .map(|k| k as &dyn Experiment);
    if flags.all {
        if !flags.ids.is_empty() {
            return Err("pass either --all or experiment ids, not both".into());
        }
        return Ok(experiments::registry()
            .iter()
            .copied()
            .chain(kernels)
            .collect());
    }
    if flags.ids.is_empty() {
        return Err("no experiment ids given (try `xxi bench --all`)".into());
    }
    let mut v = Vec::new();
    for id in &flags.ids {
        v.push(
            experiments::find(id)
                .or_else(|| experiments::find_kernel(id).map(|k| k as &dyn Experiment))
                .ok_or_else(|| {
                    format!(
                        "unknown experiment or kernel: {id} (see `xxi list` and EXPERIMENTS.md)"
                    )
                })?,
        );
    }
    Ok(v)
}

/// Run `exps` under `flags` and render them in the requested format:
/// text reports are concatenated with a blank line between experiments;
/// JSON is one document per line.
pub fn render_reports(exps: &[&dyn Experiment], flags: &Flags) -> String {
    let mut out = String::new();
    for (i, e) in exps.iter().enumerate() {
        let ctx = RunCtx::new(flags.seed, flags.threads, flags.trace.clone());
        let report = e.run(&ctx);
        match flags.format {
            Format::Text => {
                if i > 0 {
                    out.push('\n');
                }
                out.push_str(&report.render_text());
            }
            Format::Json => {
                out.push_str(&report.render_json());
                out.push('\n');
            }
        }
    }
    out
}

/// Deliver `rendered` to `--out` or stdout. Returns the process exit code.
pub fn deliver(rendered: &str, flags: &Flags) -> i32 {
    match &flags.out {
        None => {
            print!("{rendered}");
            0
        }
        Some(path) => match std::fs::write(path, rendered) {
            Ok(()) => 0,
            Err(e) => {
                eprintln!("error: cannot write {}: {e}", path.display());
                1
            }
        },
    }
}

/// Validate a file of JSON reports (one document per line, as written by
/// `xxi run --format json`): each line must parse, round-trip, and carry
/// the current schema version. The path `-` reads the documents from
/// stdin (`xxi run --all --format json | xxi validate -`). Returns
/// (ok, message).
pub fn validate_file(path: &std::path::Path) -> (bool, String) {
    let (text, name) = if path == std::path::Path::new("-") {
        let mut buf = String::new();
        match std::io::Read::read_to_string(&mut std::io::stdin().lock(), &mut buf) {
            Ok(_) => (buf, "<stdin>".to_string()),
            Err(e) => return (false, format!("cannot read stdin: {e}")),
        }
    } else {
        match std::fs::read_to_string(path) {
            Ok(t) => (t, path.display().to_string()),
            Err(e) => return (false, format!("cannot read {}: {e}", path.display())),
        }
    };
    validate_text(&text, &name)
}

/// [`validate_file`]'s checks over documents already read; `name` labels
/// an input with no documents.
pub fn validate_text(text: &str, name: &str) -> (bool, String) {
    let mut n = 0usize;
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let parsed = json::parse(line).and_then(|doc| Ok((Report::from_json(&doc)?, doc)));
        let (report, doc) = match parsed {
            Ok(p) => p,
            Err(e) => return (false, format!("line {}: {e}", lineno + 1)),
        };
        // The emitter must agree with what we just parsed (stable schema).
        match Report::parse_json(&report.render_json()) {
            Ok(r2) if r2 == report => {}
            Ok(_) => return (false, format!("line {}: unstable round-trip", lineno + 1)),
            Err(e) => return (false, format!("line {}: re-parse failed: {e}", lineno + 1)),
        }
        // And the document must carry the current schema version, not
        // just one `from_json` still reads.
        let version = doc
            .as_object()
            .and_then(|o| json::find(o, "schema_version"))
            .and_then(Json::as_u64);
        if version != Some(SCHEMA_VERSION) {
            return (
                false,
                format!("line {}: bad schema_version {version:?}", lineno + 1),
            );
        }
        n += 1;
    }
    if n == 0 {
        return (false, format!("{name}: no reports found"));
    }
    (
        true,
        format!("{n} report(s) valid, schema version {SCHEMA_VERSION}"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &[&str]) -> Vec<String> {
        s.iter().map(|a| a.to_string()).collect()
    }

    fn run_flags(s: &[&str]) -> Result<Flags, String> {
        parse_flags(&args(s), "run")
    }

    #[test]
    fn parses_the_full_flag_set() {
        let f = run_flags(&[
            "e9",
            "--seed",
            "7",
            "--threads=4",
            "--format",
            "json",
            "--out",
            "r.json",
        ])
        .unwrap();
        assert_eq!(f.ids, ["e9"]);
        assert_eq!(f.seed, Some(7));
        assert_eq!(f.threads, 4);
        assert_eq!(f.format, Format::Json);
        assert_eq!(f.out.as_deref(), Some(std::path::Path::new("r.json")));

        let f = parse_flags(
            &args(&[
                "--root=r",
                "--rule",
                "panic-path",
                "--deny",
                "warnings",
                "--list",
            ]),
            "src",
        )
        .unwrap();
        assert_eq!(f.root.as_deref(), Some(std::path::Path::new("r")));
        assert_eq!(f.rule.as_deref(), Some("panic-path"));
        assert!(f.deny_warnings && f.list);
        let f = parse_flags(&args(&["--ledger", "a", "--ledger=b"]), "lint").unwrap();
        assert_eq!(f.ledgers, ["a", "b"]);
    }

    #[test]
    fn trace_usage_names_exactly_the_tracing_experiments() {
        let line = FLAG_USAGE
            .lines()
            .find(|l| l.trim_start().starts_with("--trace"))
            .expect("a --trace line");
        let named = &line[line.find('(').unwrap() + 1..line.rfind(')').unwrap()];
        let tracing: Vec<&str> = experiments::registry()
            .iter()
            .filter(|e| e.emits_trace())
            .map(|e| e.id())
            .collect();
        assert_eq!(named.split('/').collect::<Vec<_>>(), tracing, "{line}");
    }

    #[test]
    fn rejects_unknown_and_misspelled_flags() {
        assert!(run_flags(&["--thraeds", "8"])
            .unwrap_err()
            .contains("unknown flag: --thraeds"));
        assert!(run_flags(&["--frmt=json"])
            .unwrap_err()
            .contains("unknown flag"));
        assert_eq!(
            parse_flags(&args(&["e1"]), "list").unwrap_err(),
            "xxi list takes no positional arguments"
        );
        assert_eq!(
            parse_flags(&args(&["--seed", "1"]), "list").unwrap_err(),
            "--seed is only valid with `xxi run`/`xxi bench`"
        );
        assert_eq!(
            parse_flags(&args(&["--root", "."]), "lint").unwrap_err(),
            "--root is only valid with `xxi src`"
        );
    }

    #[test]
    fn rejects_bad_values() {
        assert!(run_flags(&["--threads", "0"]).is_err());
        assert!(run_flags(&["--threads", "x"]).is_err());
        assert!(run_flags(&["--threads", "1025"]).is_err());
        assert!(run_flags(&["--threads", "18446744073709551615"]).is_err());
        assert_eq!(run_flags(&["--threads", "1024"]).unwrap().threads, 1024);
        assert!(run_flags(&["--seed"]).is_err());
        assert!(run_flags(&["--format", "xml"]).is_err());
        assert!(parse_flags(&args(&["--deny", "errors"]), "src").is_err());
        assert!(parse_flags(&args(&["--rule"]), "lint").is_err());
        assert_eq!(
            run_flags(&["--all=no"]).unwrap_err(),
            "--all takes no value"
        );
    }

    #[test]
    fn parses_and_fences_bench_only_flags() {
        let f = parse_flags(&args(&["e9", "--iters", "7", "--warmup=2"]), "bench").unwrap();
        assert_eq!(f.iters, Some(7));
        assert_eq!(f.warmup, Some(2));
        let f = parse_flags(&args(&["a", "b", "--threshold", "12.5"]), "compare").unwrap();
        assert_eq!(f.threshold, Some(12.5));
        assert_eq!(
            run_flags(&["e9", "--iters", "7"]).unwrap_err(),
            "--iters is only valid with `xxi bench`"
        );
        assert_eq!(
            parse_flags(&args(&["e9", "--threshold=1"]), "bench").unwrap_err(),
            "--threshold is only valid with `xxi compare`"
        );
        assert!(parse_flags(&args(&["e9", "--format", "text"]), "bench").is_err());
        assert!(parse_flags(&args(&["--iters", "0"]), "bench").is_err());
        assert!(parse_flags(&args(&["--warmup", "x"]), "bench").is_err());
        assert!(parse_flags(&args(&["--threshold", "-1"]), "compare").is_err());
    }

    #[test]
    fn select_enforces_the_trace_capability() {
        let mut f = run_flags(&["e1", "--trace", "t.json"]).unwrap();
        assert_eq!(
            select(&f).err().unwrap(),
            "experiment e1 does not emit traces"
        );
        f.ids = vec!["e10".into()];
        assert_eq!(select(&f).unwrap()[0].id(), "e10");
        f.ids = vec!["e10".into(), "e17".into()];
        assert!(select(&f).err().unwrap().contains("exactly one"));
    }

    #[test]
    fn select_resolves_all_and_rejects_unknown_ids() {
        let f = run_flags(&["--all"]).unwrap();
        assert_eq!(select(&f).unwrap().len(), 21);
        let f = run_flags(&["e99"]).unwrap();
        assert!(select(&f).err().unwrap().contains("unknown experiment"));
        let f = run_flags(&[]).unwrap();
        assert!(select(&f).is_err());
    }

    #[test]
    fn select_bench_adds_the_kernel_registry() {
        let bench_flags = |s: &[&str]| parse_flags(&args(s), "bench").unwrap();
        let f = bench_flags(&["--all"]);
        let ids: Vec<&str> = select_bench(&f).unwrap().iter().map(|e| e.id()).collect();
        assert_eq!(ids.len(), 21 + experiments::kernels::KERNELS.len());
        assert_eq!(ids[20], "e21");
        assert!(ids[21..].iter().all(|id| id.contains('/')), "{ids:?}");
        for id in [
            "des/hold",
            "des/churn",
            "des/cancel",
            "des/drain",
            "noc/mesh",
            "cloud/fanout",
            "cloud/quantile",
            "cloud/cluster",
            "stack/pool-sum",
            "stack/stm-bank",
        ] {
            assert!(ids.contains(&id), "{id} missing");
        }
        let f = bench_flags(&["NOC/MESH", "e13"]);
        let ids: Vec<&str> = select_bench(&f).unwrap().iter().map(|e| e.id()).collect();
        assert_eq!(ids, ["noc/mesh", "e13"]);
        let f = bench_flags(&["noc/mesh"]);
        assert!(select(&f).is_err(), "run/list never see the kernels");
        let f = bench_flags(&["noc-mesh"]);
        assert!(select_bench(&f).is_err());
    }
}
