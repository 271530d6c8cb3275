//! The unified experiment CLI: the flag parser and report plumbing behind
//! the `xxi` driver.
//!
//! All experiments accept the same flags:
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
//! --thraeds 8` fails loudly instead of running serial. `--trace` on an
//! experiment that declares no trace capability is likewise exit 2.

use std::path::PathBuf;

use xxi_core::report::json::{self, Json};
use xxi_core::report::SCHEMA_VERSION;
use xxi_core::Report;

use crate::experiments::{self, Experiment, RunCtx};

/// Output format for a rendered report.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Format {
    Text,
    Json,
}

/// Parsed command-line flags (plus positional experiment ids).
#[derive(Debug)]
pub struct Flags {
    /// Positional arguments (experiment ids for `xxi run`).
    pub ids: Vec<String>,
    /// `--all`: run the whole registry (driver only).
    pub all: bool,
    pub seed: Option<u64>,
    pub threads: usize,
    pub trace: Option<PathBuf>,
    pub format: Format,
    pub out: Option<PathBuf>,
    /// `--iters` (xxi bench only; `None` = flag not given).
    pub iters: Option<u64>,
    /// `--warmup` (xxi bench only).
    pub warmup: Option<u64>,
    /// `--threshold` percent (xxi compare only).
    pub threshold: Option<f64>,
}

impl Default for Flags {
    fn default() -> Flags {
        Flags {
            ids: Vec::new(),
            all: false,
            seed: None,
            threads: 1,
            trace: None,
            format: Format::Text,
            out: None,
            iters: None,
            warmup: None,
            threshold: None,
        }
    }
}

impl Flags {
    /// The first bench/compare-only flag present, for `xxi run`, which
    /// must reject them.
    pub fn bench_only_flag(&self) -> Option<&'static str> {
        if self.iters.is_some() {
            Some("--iters")
        } else if self.warmup.is_some() {
            Some("--warmup")
        } else if self.threshold.is_some() {
            Some("--threshold")
        } else {
            None
        }
    }
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

/// Parse `args` (without the program name). Every `--flag value` also
/// accepts `--flag=value`. Returns an error message for unknown flags,
/// missing values, or unparsable values.
pub fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut f = Flags::default();
    let mut it = args.iter().peekable();
    while let Some(a) = it.next() {
        let (name, inline) = match a.split_once('=') {
            Some((n, v)) if n.starts_with("--") => (n, Some(v.to_string())),
            _ => (a.as_str(), None),
        };
        let value = |it: &mut std::iter::Peekable<std::slice::Iter<String>>| match inline.clone() {
            Some(v) => Ok(v),
            None => it
                .next()
                .cloned()
                .ok_or_else(|| format!("missing value for {name}")),
        };
        match name {
            "--all" => f.all = true,
            "--seed" => {
                let v = value(&mut it)?;
                f.seed = Some(
                    v.parse::<u64>()
                        .map_err(|_| format!("invalid value for --seed: {v} (need a u64)"))?,
                );
            }
            "--threads" => {
                let v = value(&mut it)?;
                f.threads = match v.parse::<usize>() {
                    Ok(n) if (1..=MAX_THREADS).contains(&n) => n,
                    _ => {
                        return Err(format!(
                            "invalid value for --threads: {v} (need an integer from 1 to {MAX_THREADS})"
                        ))
                    }
                };
            }
            "--trace" => f.trace = Some(PathBuf::from(value(&mut it)?)),
            "--iters" => {
                let v = value(&mut it)?;
                f.iters = match v.parse::<u64>() {
                    Ok(n) if n >= 1 => Some(n),
                    _ => {
                        return Err(format!(
                            "invalid value for --iters: {v} (need an integer >= 1)"
                        ))
                    }
                };
            }
            "--warmup" => {
                let v = value(&mut it)?;
                f.warmup = Some(
                    v.parse::<u64>()
                        .map_err(|_| format!("invalid value for --warmup: {v} (need a u64)"))?,
                );
            }
            "--threshold" => {
                let v = value(&mut it)?;
                f.threshold = match v.parse::<f64>() {
                    Ok(t) if t >= 0.0 && t.is_finite() => Some(t),
                    _ => {
                        return Err(format!(
                            "invalid value for --threshold: {v} (need a percentage >= 0)"
                        ))
                    }
                };
            }
            "--format" => {
                let v = value(&mut it)?;
                f.format = match v.as_str() {
                    "text" => Format::Text,
                    "json" => Format::Json,
                    _ => return Err(format!("invalid value for --format: {v} (text or json)")),
                };
            }
            "--out" => f.out = Some(PathBuf::from(value(&mut it)?)),
            _ if name.starts_with('-') => return Err(format!("unknown flag: {name}")),
            _ => f.ids.push(a.clone()),
        }
    }
    Ok(f)
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

    #[test]
    fn parses_the_full_flag_set() {
        let f = parse_flags(&args(&[
            "e9",
            "--seed",
            "7",
            "--threads=4",
            "--format",
            "json",
            "--out",
            "r.json",
        ]))
        .unwrap();
        assert_eq!(f.ids, ["e9"]);
        assert_eq!(f.seed, Some(7));
        assert_eq!(f.threads, 4);
        assert_eq!(f.format, Format::Json);
        assert_eq!(f.out.as_deref(), Some(std::path::Path::new("r.json")));
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
        assert!(parse_flags(&args(&["--thraeds", "8"]))
            .unwrap_err()
            .contains("unknown flag: --thraeds"));
        assert!(parse_flags(&args(&["--frmt=json"]))
            .unwrap_err()
            .contains("unknown flag"));
    }

    #[test]
    fn rejects_bad_values() {
        assert!(parse_flags(&args(&["--threads", "0"])).is_err());
        assert!(parse_flags(&args(&["--threads", "x"])).is_err());
        assert!(parse_flags(&args(&["--threads", "1025"])).is_err());
        assert!(parse_flags(&args(&["--threads", "18446744073709551615"])).is_err());
        assert_eq!(
            parse_flags(&args(&["--threads", "1024"])).unwrap().threads,
            1024
        );
        assert!(parse_flags(&args(&["--seed"])).is_err());
        assert!(parse_flags(&args(&["--format", "xml"])).is_err());
    }

    #[test]
    fn parses_and_fences_bench_only_flags() {
        let f = parse_flags(&args(&[
            "e9",
            "--iters",
            "7",
            "--warmup=2",
            "--threshold",
            "12.5",
        ]))
        .unwrap();
        assert_eq!(f.iters, Some(7));
        assert_eq!(f.warmup, Some(2));
        assert_eq!(f.threshold, Some(12.5));
        assert_eq!(f.bench_only_flag(), Some("--iters"));
        assert_eq!(parse_flags(&args(&["e9"])).unwrap().bench_only_flag(), None);
        assert!(parse_flags(&args(&["--iters", "0"])).is_err());
        assert!(parse_flags(&args(&["--warmup", "x"])).is_err());
        assert!(parse_flags(&args(&["--threshold", "-1"])).is_err());
    }

    #[test]
    fn select_enforces_the_trace_capability() {
        let mut f = parse_flags(&args(&["e1", "--trace", "t.json"])).unwrap();
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
        let f = parse_flags(&args(&["--all"])).unwrap();
        assert_eq!(select(&f).unwrap().len(), 21);
        let f = parse_flags(&args(&["e99"])).unwrap();
        assert!(select(&f).err().unwrap().contains("unknown experiment"));
        let f = parse_flags(&args(&[])).unwrap();
        assert!(select(&f).is_err());
    }

    #[test]
    fn select_bench_adds_the_kernel_registry() {
        let f = parse_flags(&args(&["--all"])).unwrap();
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
        let f = parse_flags(&args(&["NOC/MESH", "e13"])).unwrap();
        let ids: Vec<&str> = select_bench(&f).unwrap().iter().map(|e| e.id()).collect();
        assert_eq!(ids, ["noc/mesh", "e13"]);
        let f = parse_flags(&args(&["noc/mesh"])).unwrap();
        assert!(select(&f).is_err(), "run/list never see the kernels");
        let f = parse_flags(&args(&["noc-mesh"])).unwrap();
        assert!(select_bench(&f).is_err());
    }
}
