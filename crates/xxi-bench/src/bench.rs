//! `xxi bench` and `xxi compare`: the one place host code is timed, and
//! the perf-regression gate.
//!
//! `run_bench` times whole experiment runs and the per-layer kernels of
//! [`crate::experiments::kernels`] alike (`Experiment::run` under a
//! reused [`RunCtx`], so the pool is warm and its stats can be windowed
//! with [`PoolStats::since`]) and emits a stable JSON schema, built as a
//! [`Json`] tree and printed by its one writer — the generator of the
//! repo's `BENCH_*.json` trajectory. `compare` diffs
//! two such files by median wall time and flags regressions past a
//! threshold; CI runs it against `tests/bench/baseline.json`.
//!
//! Wall-clock numbers are inherently volatile, which is exactly why they
//! live here and not in the golden reports: the bench file pins the
//! *schema*, the baseline comparison pins the *trend*.

// xxi-allow-file: determinism -- whole-experiment wall timing and host
// metadata are this module's purpose; results are volatile by schema.
use std::time::{Instant, SystemTime};

use xxi_core::report::json::{self, Json};
use xxi_core::table::fnum;
use xxi_core::Table;
use xxi_stack::pool::PoolStats;

use crate::experiments::{Experiment, RunCtx};

/// Version of the bench JSON layout. Bump on any breaking change.
pub const BENCH_SCHEMA_VERSION: u64 = 1;

/// Bench run configuration (`xxi bench` flags).
#[derive(Clone, Copy, Debug)]
pub struct BenchConfig {
    /// Measured iterations per experiment (`--iters`, >= 1).
    pub iters: u64,
    /// Discarded warm-up iterations per experiment (`--warmup`).
    pub warmup: u64,
    /// Worker threads for the run context (`--threads`).
    pub threads: usize,
    /// `--seed` override, forwarded to the experiments.
    pub seed: Option<u64>,
}

impl Default for BenchConfig {
    fn default() -> BenchConfig {
        BenchConfig {
            iters: 5,
            warmup: 1,
            threads: 1,
            seed: None,
        }
    }
}

/// Order statistics over the measured per-iteration wall times (seconds).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WallStats {
    pub min_s: f64,
    pub p50_s: f64,
    pub mean_s: f64,
    pub max_s: f64,
}

impl WallStats {
    /// Summarize a non-empty sample set. The median is the lower-middle
    /// sample (deterministic, no interpolation).
    pub fn of(samples: &[f64]) -> WallStats {
        assert!(!samples.is_empty(), "WallStats of an empty sample set");
        let mut s = samples.to_vec();
        s.sort_by(|a, b| a.total_cmp(b));
        WallStats {
            min_s: s[0],
            p50_s: s[(s.len() - 1) / 2],
            mean_s: s.iter().sum::<f64>() / s.len() as f64,
            max_s: s[s.len() - 1],
        }
    }
}

/// One experiment's bench outcome.
#[derive(Clone, Debug)]
pub struct BenchResult {
    /// Experiment id (`"e9"`).
    pub id: String,
    /// Experiment title, for human readers of the JSON.
    pub title: String,
    /// Wall-time stats over the measured iterations.
    pub wall: WallStats,
    /// `(unit, units/s at the median)` when the experiment declares
    /// [`Experiment::work_units`].
    pub throughput: Option<(String, f64)>,
    /// Scheduler stats windowed over the measured iterations (absent at
    /// `threads = 1`, where no pool runs).
    pub pool: Option<PoolStats>,
}

/// A full bench run: host/config metadata plus per-experiment results.
#[derive(Clone, Debug)]
pub struct BenchRun {
    /// Seconds since the Unix epoch when the run started.
    pub created_unix: u64,
    /// `std::env::consts::OS` / `::ARCH`.
    pub os: String,
    pub arch: String,
    /// Host logical CPU count (0 when undetectable).
    pub cpus: usize,
    /// The build E10's sensor lane kernel runs on
    /// ([`xxi_sensor::lane_isa`]); sensor timings differ ~1.5× by build.
    /// `None` for files written before it was recorded.
    pub simd: Option<String>,
    pub config: BenchConfig,
    pub results: Vec<BenchResult>,
}

/// Time `iters` runs of each experiment (after `warmup` discarded runs),
/// reusing one context per experiment so pool workers stay warm.
/// `progress` receives one line per finished experiment (pass
/// `|_| {}` to silence).
pub fn run_bench(
    exps: &[&dyn Experiment],
    cfg: BenchConfig,
    mut progress: impl FnMut(&str),
) -> BenchRun {
    assert!(cfg.iters >= 1, "bench needs at least one iteration");
    let mut results = Vec::with_capacity(exps.len());
    for e in exps {
        let ctx = RunCtx::new(cfg.seed, cfg.threads, None);
        // `Experiment::run` drains the metrics sink itself, so iterations
        // don't leak counters into each other.
        for _ in 0..cfg.warmup {
            std::hint::black_box(e.run(&ctx));
        }
        let pool_before = ctx.pool().map(|p| p.stats());
        let mut samples = Vec::with_capacity(cfg.iters as usize);
        for _ in 0..cfg.iters {
            let t0 = Instant::now();
            std::hint::black_box(e.run(&ctx));
            samples.push(t0.elapsed().as_secs_f64());
        }
        let wall = WallStats::of(&samples);
        let r = BenchResult {
            id: e.id().to_string(),
            title: e.title().to_string(),
            throughput: e
                .work_units()
                .map(|(unit, n)| (unit.to_string(), n / wall.p50_s)),
            pool: ctx
                .pool()
                .map(|p| p.stats().since(&pool_before.expect("pool existed before"))), // xxi-allow: panic-path -- see the expect message
            wall,
        };
        let rate = match &r.throughput {
            Some((unit, per_s)) => format!("  {} M {unit}/s", fnum(per_s / 1e6)),
            None => String::new(),
        };
        progress(&format!(
            "{:<20} p50 {}{rate}  ({} iters)",
            r.id,
            fmt_secs(wall.p50_s),
            cfg.iters
        ));
        results.push(r);
    }
    BenchRun {
        created_unix: SystemTime::now()
            .duration_since(SystemTime::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0),
        os: std::env::consts::OS.to_string(),
        arch: std::env::consts::ARCH.to_string(),
        cpus: std::thread::available_parallelism().map_or(0, |n| n.get()),
        simd: Some(xxi_sensor::lane_isa().to_string()),
        config: cfg,
        results,
    }
}

impl BenchRun {
    /// Render the stable bench JSON document (one object, single line).
    pub fn render_json(&self) -> String {
        let results = self.results.iter().map(|r| {
            let throughput = r.throughput.as_ref().map_or(Json::Null, |(unit, rate)| {
                Json::obj([
                    ("unit", Json::str(unit)),
                    ("units_per_sec", Json::num(*rate)),
                ])
            });
            let pool = r.pool.as_ref().map_or(Json::Null, |p| {
                Json::obj([
                    ("threads", Json::int(p.threads as u64)),
                    ("executed", Json::int(p.executed)),
                    ("local_pops", Json::int(p.local_pops)),
                    ("steals", Json::int(p.steals)),
                    ("failed_steals", Json::int(p.failed_steals)),
                    ("injector_pushes", Json::int(p.injector_pushes)),
                    ("injector_pops", Json::int(p.injector_pops)),
                    ("parks", Json::int(p.parks)),
                    ("wakeups", Json::int(p.wakeups)),
                    ("scope_helps", Json::int(p.scope_helps)),
                ])
            });
            Json::obj([
                ("experiment", Json::str(&r.id)),
                ("title", Json::str(&r.title)),
                (
                    "wall_s",
                    Json::obj([
                        ("min", Json::num(r.wall.min_s)),
                        ("p50", Json::num(r.wall.p50_s)),
                        ("mean", Json::num(r.wall.mean_s)),
                        ("max", Json::num(r.wall.max_s)),
                    ]),
                ),
                ("throughput", throughput),
                ("pool", pool),
            ])
        });
        Json::obj([
            ("bench_schema_version", Json::int(BENCH_SCHEMA_VERSION)),
            ("created_unix", Json::int(self.created_unix)),
            ("os", Json::str(&self.os)),
            ("arch", Json::str(&self.arch)),
            ("cpus", Json::int(self.cpus as u64)),
            ("simd", self.simd.as_ref().map_or(Json::Null, Json::str)),
            ("threads", Json::int(self.config.threads as u64)),
            ("iters", Json::int(self.config.iters)),
            ("warmup", Json::int(self.config.warmup)),
            ("seed", self.config.seed.map_or(Json::Null, Json::int)),
            ("results", Json::Array(results.collect())),
        ])
        .to_string()
    }

    /// Parse a bench JSON document (everything `compare` and the tests
    /// need; unknown members are ignored for forward compatibility).
    pub fn parse_json(text: &str) -> Result<BenchRun, String> {
        let v = json::parse(text)?;
        let obj = v.as_object().ok_or("bench: expected an object")?;
        let version = json::get_u64(obj, "bench_schema_version")?;
        if version != BENCH_SCHEMA_VERSION {
            return Err(format!(
                "unsupported bench_schema_version {version} (expected {BENCH_SCHEMA_VERSION})"
            ));
        }
        let u64_of = |key| json::get_u64(obj, key);
        let mut run = BenchRun {
            created_unix: u64_of("created_unix")?,
            os: json::get_str(obj, "os")?,
            arch: json::get_str(obj, "arch")?,
            cpus: u64_of("cpus")? as usize,
            simd: json::find(obj, "simd").and_then(Json::as_str),
            config: BenchConfig {
                iters: u64_of("iters")?,
                warmup: u64_of("warmup")?,
                threads: u64_of("threads")? as usize,
                seed: json::get(obj, "seed")?.as_u64(),
            },
            results: Vec::new(),
        };
        for r in json::get_array(obj, "results")? {
            let ro = r.as_object().ok_or("result: expected an object")?;
            let wo = json::get_object(ro, "wall_s")?;
            let wall_num = |key| json::get_f64(wo, key);
            let throughput = match json::get(ro, "throughput")? {
                Json::Null => None,
                t => {
                    let to = t.as_object().ok_or("throughput: expected an object")?;
                    Some((
                        json::get_str(to, "unit")?,
                        json::get_f64(to, "units_per_sec")?,
                    ))
                }
            };
            let pool = match json::get(ro, "pool")? {
                Json::Null => None,
                p => {
                    let po = p.as_object().ok_or("pool: expected an object")?;
                    let c = |key| json::get_u64(po, key);
                    Some(PoolStats {
                        threads: c("threads")? as usize,
                        executed: c("executed")?,
                        local_pops: c("local_pops")?,
                        steals: c("steals")?,
                        failed_steals: c("failed_steals")?,
                        injector_pushes: c("injector_pushes")?,
                        injector_pops: c("injector_pops")?,
                        parks: c("parks")?,
                        wakeups: c("wakeups")?,
                        scope_helps: c("scope_helps")?,
                    })
                }
            };
            run.results.push(BenchResult {
                id: json::get_str(ro, "experiment")?,
                title: json::get_str(ro, "title")?,
                wall: WallStats {
                    min_s: wall_num("min")?,
                    p50_s: wall_num("p50")?,
                    mean_s: wall_num("mean")?,
                    max_s: wall_num("max")?,
                },
                throughput,
                pool,
            });
        }
        Ok(run)
    }
}

/// The verdict of one `compare` row.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Median wall time moved by less than the threshold either way.
    Ok,
    /// New median is faster than base by more than the threshold.
    Faster,
    /// New median is slower than base by more than the threshold.
    Regressed,
    /// Experiment present in only one of the two files (never a failure).
    Unmatched,
}

/// One row of the comparison: experiment id, base/new medians, and the
/// relative delta (`None` when unmatched).
#[derive(Clone, Debug)]
pub struct CompareRow {
    pub id: String,
    pub base_p50_s: Option<f64>,
    pub new_p50_s: Option<f64>,
    pub delta_pct: Option<f64>,
    pub verdict: Verdict,
}

/// The full comparison of two bench runs.
#[derive(Clone, Debug)]
pub struct Comparison {
    pub rows: Vec<CompareRow>,
    pub threshold_pct: f64,
    /// Set when the two runs name different sensor lane builds.
    pub simd_note: Option<String>,
}

/// Diff two bench runs by median wall time. A row regresses when the new
/// median is more than `threshold_pct` percent above the base median;
/// experiments present in only one file are reported but never fail the
/// gate.
pub fn compare(base: &BenchRun, new: &BenchRun, threshold_pct: f64) -> Comparison {
    assert!(threshold_pct >= 0.0, "threshold must be non-negative");
    let mut rows = Vec::new();
    for n in &new.results {
        let b = base.results.iter().find(|b| b.id == n.id);
        match b {
            None => rows.push(CompareRow {
                id: n.id.clone(),
                base_p50_s: None,
                new_p50_s: Some(n.wall.p50_s),
                delta_pct: None,
                verdict: Verdict::Unmatched,
            }),
            Some(b) => {
                // A zero-time base (sub-resolution run) can't express a
                // relative change; treat it as 0% rather than dividing.
                let delta = if b.wall.p50_s > 0.0 {
                    (n.wall.p50_s - b.wall.p50_s) / b.wall.p50_s * 100.0
                } else {
                    0.0
                };
                let verdict = if delta > threshold_pct {
                    Verdict::Regressed
                } else if delta < -threshold_pct {
                    Verdict::Faster
                } else {
                    Verdict::Ok
                };
                rows.push(CompareRow {
                    id: n.id.clone(),
                    base_p50_s: Some(b.wall.p50_s),
                    new_p50_s: Some(n.wall.p50_s),
                    delta_pct: Some(delta),
                    verdict,
                });
            }
        }
    }
    for b in &base.results {
        if !new.results.iter().any(|n| n.id == b.id) {
            rows.push(CompareRow {
                id: b.id.clone(),
                base_p50_s: Some(b.wall.p50_s),
                new_p50_s: None,
                delta_pct: None,
                verdict: Verdict::Unmatched,
            });
        }
    }
    fn simd(run: &BenchRun) -> &str {
        run.simd.as_deref().unwrap_or("unrecorded")
    }
    Comparison {
        rows,
        threshold_pct,
        simd_note: (base.simd != new.simd).then(|| {
            format!(
                "note: sensor lane build differs (base {}, new {}); sensor timings differ by build\n",
                simd(base),
                simd(new)
            )
        }),
    }
}

impl Comparison {
    /// True when any matched experiment regressed past the threshold.
    pub fn regressed(&self) -> bool {
        self.rows.iter().any(|r| r.verdict == Verdict::Regressed)
    }

    /// The human-readable regression table plus a one-line verdict.
    pub fn render_text(&self) -> String {
        let mut t = Table::new(&["experiment", "base p50", "new p50", "delta", "status"]);
        for r in &self.rows {
            let fmt_opt = |v: Option<f64>| v.map_or("-".to_string(), fmt_secs);
            t.row(&[
                r.id.clone(),
                fmt_opt(r.base_p50_s),
                fmt_opt(r.new_p50_s),
                r.delta_pct.map_or("-".to_string(), |d| format!("{d:+.1}%")),
                match r.verdict {
                    Verdict::Ok => "ok".to_string(),
                    Verdict::Faster => "faster".to_string(),
                    Verdict::Regressed => "REGRESSED".to_string(),
                    Verdict::Unmatched => "unmatched".to_string(),
                },
            ]);
        }
        let mut out = t.render();
        if let Some(note) = &self.simd_note {
            out.push_str(note);
        }
        let regs = self
            .rows
            .iter()
            .filter(|r| r.verdict == Verdict::Regressed)
            .count();
        if regs > 0 {
            out.push_str(&format!(
                "\n{regs} experiment(s) regressed past {:.1}% on median wall time\n",
                self.threshold_pct
            ));
        } else {
            out.push_str(&format!(
                "\nno regressions past {:.1}% on median wall time\n",
                self.threshold_pct
            ));
        }
        out
    }
}

/// Human-readable duration with an auto-picked unit (`xxi bench`'s
/// progress lines and `xxi compare`'s table).
fn fmt_secs(s: f64) -> String {
    if s < 1e-6 {
        format!("{:.1} ns", s * 1e9)
    } else if s < 1e-3 {
        format!("{:.2} us", s * 1e6)
    } else if s < 1.0 {
        format!("{:.2} ms", s * 1e3)
    } else {
        format!("{s:.3} s")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::{Experiment, RunCtx};
    use xxi_core::Report;

    struct Fast;
    impl Experiment for Fast {
        fn id(&self) -> &'static str {
            "e0"
        }
        fn title(&self) -> &'static str {
            "fast probe"
        }
        fn paper_claim(&self) -> &'static str {
            "claim"
        }
        fn work_units(&self) -> Option<(&'static str, f64)> {
            Some(("units", 100.0))
        }
        fn fill(&self, ctx: &RunCtx, _r: &mut Report) {
            ctx.exec().for_tasks(16, &|_| {
                std::hint::black_box((0..100).sum::<u64>());
            });
        }
    }

    #[test]
    fn fmt_secs_picks_sane_units() {
        assert_eq!(fmt_secs(3.2e-9), "3.2 ns");
        assert_eq!(fmt_secs(4.5e-5), "45.00 us");
        assert_eq!(fmt_secs(0.012), "12.00 ms");
        assert_eq!(fmt_secs(2.5), "2.500 s");
    }

    #[test]
    fn wall_stats_order_statistics() {
        let w = WallStats::of(&[3.0, 1.0, 2.0]);
        assert_eq!(w.min_s, 1.0);
        assert_eq!(w.p50_s, 2.0);
        assert_eq!(w.max_s, 3.0);
        assert!((w.mean_s - 2.0).abs() < 1e-12);
        // Even count: lower-middle median, deterministically.
        assert_eq!(WallStats::of(&[4.0, 1.0, 2.0, 3.0]).p50_s, 2.0);
    }

    #[test]
    fn bench_json_round_trips_serial_and_parallel() {
        for threads in [1, 2] {
            let cfg = BenchConfig {
                iters: 3,
                warmup: 1,
                threads,
                seed: None,
            };
            let run = run_bench(&[&Fast], cfg, |_| {});
            assert_eq!(run.results.len(), 1);
            let r = &run.results[0];
            assert!(r.wall.min_s <= r.wall.p50_s && r.wall.p50_s <= r.wall.max_s);
            let (unit, rate) = r.throughput.clone().expect("work units declared");
            assert_eq!(unit, "units");
            assert!(rate > 0.0);
            assert_eq!(r.pool.is_some(), threads > 1);
            if let Some(p) = &r.pool {
                assert!(p.executed > 0, "measured window saw pool work: {p:?}");
            }

            let back = BenchRun::parse_json(&run.render_json()).expect("parses");
            assert_eq!(back.results[0].id, "e0");
            assert_eq!(back.results[0].wall, r.wall);
            assert_eq!(back.results[0].pool, r.pool);
            assert_eq!(back.config.threads, threads);
            assert_eq!(back.simd.as_deref(), Some(xxi_sensor::lane_isa()));
            assert!(["avx512f", "avx2", "plain"].contains(&xxi_sensor::lane_isa()));
        }
    }

    #[test]
    fn files_without_the_simd_field_parse_and_compare_notes_a_change() {
        let old = include_str!("../../../tests/bench/baseline.json");
        assert!(!old.contains("\"simd\""));
        let old = BenchRun::parse_json(old.trim()).expect("the committed baseline parses");
        assert_eq!(old.simd, None);
        assert_eq!(old.render_json().matches("\"simd\":null").count(), 1);

        let base = run_with_p50("e10", 1.0);
        assert_eq!(compare(&base, &base.clone(), 10.0).simd_note, None);
        let mut wide = run_with_p50("e10", 1.0);
        wide.simd = Some("avx512f".into());
        let text = compare(&base, &wide, 10.0).render_text();
        assert_eq!(text.matches("note:").count(), 1, "{text}");
        assert!(text.contains("base avx2, new avx512f"), "{text}");
        wide.simd = None;
        let text = compare(&base, &wide, 10.0).render_text();
        assert!(text.contains("base avx2, new unrecorded"), "{text}");
    }

    #[test]
    fn parse_rejects_wrong_bench_schema() {
        let run = run_bench(&[&Fast], BenchConfig::default(), |_| {});
        let doc = run.render_json().replacen(
            "\"bench_schema_version\":1",
            "\"bench_schema_version\":9",
            1,
        );
        assert!(BenchRun::parse_json(&doc).is_err());
    }

    fn run_with_p50(id: &str, p50: f64) -> BenchRun {
        BenchRun {
            created_unix: 0,
            os: "linux".into(),
            arch: "x86_64".into(),
            cpus: 1,
            simd: Some("avx2".into()),
            config: BenchConfig::default(),
            results: vec![BenchResult {
                id: id.into(),
                title: "t".into(),
                wall: WallStats {
                    min_s: p50,
                    p50_s: p50,
                    mean_s: p50,
                    max_s: p50,
                },
                throughput: None,
                pool: None,
            }],
        }
    }

    #[test]
    fn render_json_bytes_are_pinned() {
        let mut run = run_with_p50("e9", 1.5);
        run.created_unix = 1_700_000_000;
        run.cpus = 2;
        run.config = BenchConfig {
            iters: 3,
            warmup: 1,
            threads: 2,
            seed: Some(u64::MAX),
        };
        let r = &mut run.results[0];
        r.title = "fan-out \"tail\"".into();
        r.wall = WallStats {
            min_s: 0.1 + 0.2,
            p50_s: 1.5,
            mean_s: 2.0,
            max_s: 1e-7,
        };
        r.throughput = Some(("requests".into(), 2.5e6));
        r.pool = Some(PoolStats {
            threads: 2,
            executed: 10,
            local_pops: 3,
            steals: 4,
            failed_steals: 5,
            injector_pushes: 6,
            injector_pops: 7,
            parks: 8,
            wakeups: 9,
            scope_helps: 1,
        });
        let mut nulls = run_with_p50("des/hold", 0.25).results.remove(0);
        nulls.wall.min_s = 0.0;
        nulls.wall.mean_s = 0.5;
        nulls.wall.max_s = f64::NAN;
        run.results.push(nulls);
        assert_eq!(
            run.render_json(),
            "{\"bench_schema_version\":1,\"created_unix\":1700000000,\"os\":\"linux\",\"arch\":\"x86_64\",\"cpus\":2,\"simd\":\"avx2\",\"threads\":2,\"iters\":3,\"warmup\":1,\"seed\":18446744073709551615,\"results\":[{\"experiment\":\"e9\",\"title\":\"fan-out \\\"tail\\\"\",\"wall_s\":{\"min\":0.30000000000000004,\"p50\":1.5,\"mean\":2,\"max\":0.0000001},\"throughput\":{\"unit\":\"requests\",\"units_per_sec\":2500000},\"pool\":{\"threads\":2,\"executed\":10,\"local_pops\":3,\"steals\":4,\"failed_steals\":5,\"injector_pushes\":6,\"injector_pops\":7,\"parks\":8,\"wakeups\":9,\"scope_helps\":1}},{\"experiment\":\"des/hold\",\"title\":\"t\",\"wall_s\":{\"min\":0,\"p50\":0.25,\"mean\":0.5,\"max\":null},\"throughput\":null,\"pool\":null}]}"
        );
        run.simd = None;
        run.config.seed = None;
        let doc = run.render_json();
        assert!(doc.contains("\"simd\":null,") && doc.contains("\"seed\":null,"));
    }

    #[test]
    fn compare_flags_regressions_past_threshold_only() {
        let base = run_with_p50("e9", 1.0);
        let same = compare(&base, &run_with_p50("e9", 1.05), 10.0);
        assert!(!same.regressed());
        assert_eq!(same.rows[0].verdict, Verdict::Ok);

        let slow = compare(&base, &run_with_p50("e9", 1.5), 10.0);
        assert!(slow.regressed());
        assert!(slow.render_text().contains("REGRESSED"));
        assert!(slow.render_text().contains("+50.0%"));

        let fast = compare(&base, &run_with_p50("e9", 0.5), 10.0);
        assert!(!fast.regressed(), "speedups never fail the gate");
        assert_eq!(fast.rows[0].verdict, Verdict::Faster);
    }

    #[test]
    fn compare_reports_unmatched_without_failing() {
        let c = compare(&run_with_p50("e1", 1.0), &run_with_p50("e2", 1.0), 10.0);
        assert!(!c.regressed());
        assert_eq!(c.rows.len(), 2);
        assert!(c.rows.iter().all(|r| r.verdict == Verdict::Unmatched));
        assert!(c.render_text().contains("unmatched"));
    }

    #[test]
    fn identical_files_always_pass_even_at_zero_threshold() {
        let base = run_with_p50("e9", 1.0);
        assert!(!compare(&base, &base.clone(), 0.0).regressed());
    }
}
