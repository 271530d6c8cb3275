//! Structured experiment reports: named sections of [`Table`]s, free text,
//! and scalar findings, rendered both as the classic plain-text experiment
//! output (byte-identical to what the historical `exp_*` binaries printed)
//! and as a stable JSON document.
//!
//! The text renderer is the source of truth for golden-output regression
//! tests; the JSON renderer is the scriptable surface (`xxi run --format
//! json`). Every item is a pure function of the seed: host timing lives
//! only in `xxi bench`, never in a report.
//!
//! ## JSON schema (version 3)
//!
//! ```json
//! {
//!   "schema_version": 3,
//!   "experiment": "e9",
//!   "paper_claim": "…",
//!   "seed": 0,
//!   "params": {"threads": "1"},
//!   "findings": [{"name": "straggler_frac", "value": 0.652, "unit": "frac"}],
//!   "items": [
//!     {"kind": "section", "title": "…"},
//!     {"kind": "table", "caption": null,
//!      "headers": ["fan-out", "p99 (ms)"],
//!      "rows": [[{"text": "100", "value": 100.0}, {"text": "63.4", "value": 63.4}]]},
//!     {"kind": "text", "text": "…"}
//!   ],
//!   "runtime": {
//!     "counters": {"mc.trials": 1020000, "pool.steals": 37},
//!     "gauges": {"pool.threads": 4.0},
//!     "hists": {"fanout.p99_ms": {"count": 6, "mean": 41.0, "min": 11.2,
//!               "p50": 38.0, "p90": 63.0, "p99": 63.0, "p999": 63.0, "max": 63.4}}
//!   }
//! }
//! ```
//!
//! `seed` is the user's `--seed` override, or `0` meaning "the experiment's
//! canonical per-call-site seeds" (the values every number in
//! EXPERIMENTS.md was produced with). Cells carry `value` only when the
//! rendered text is a plain finite number.
//!
//! `runtime` (version 2, `null` when the run recorded no telemetry) is the
//! run's [`RunMetrics`]: counters/gauges/histogram summaries snapshotted
//! from the experiment's metrics sink and the thread pool's scheduler
//! stats. It renders as a trailing "Runtime" text section that golden
//! renderings mask, because pool counters vary with `--threads`.
//! Version-1 documents (no `runtime` key) still parse, and so do version-2
//! documents, whose per-item `volatile` key is ignored.

use std::fmt::Write as _;

use crate::metrics::Metrics;
use crate::obs::LogHistogram;
use crate::table::{fill, Cell, Table};

pub mod json;

use json::Json;

/// Version of the JSON document layout. Bump on any breaking change.
/// Version history: 1 = initial report model; 2 = added the `runtime`
/// telemetry member; 3 = dropped the per-item `volatile` flag (older
/// documents still parse).
pub const SCHEMA_VERSION: u64 = 3;

/// A named scalar result, e.g. the headline number of an experiment.
#[derive(Clone, Debug, PartialEq)]
pub struct Finding {
    /// Short snake_case name, stable across runs.
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Unit label (`"x"`, `"ms"`, `"frac"`, `""` for dimensionless).
    pub unit: String,
}

/// Fixed-quantile summary of one runtime histogram — the serializable
/// projection of a [`LogHistogram`] (the full bucket array is not part of
/// the report schema).
#[derive(Clone, Debug, PartialEq)]
pub struct HistSummary {
    pub count: u64,
    pub mean: f64,
    pub min: f64,
    pub p50: f64,
    pub p90: f64,
    pub p99: f64,
    pub p999: f64,
    pub max: f64,
}

impl HistSummary {
    /// Summarize a histogram. Callers only build summaries for histograms
    /// that received at least one sample, so every field is finite.
    pub fn of(h: &LogHistogram) -> HistSummary {
        HistSummary {
            count: h.count(),
            mean: h.mean(),
            min: h.min(),
            p50: h.p50(),
            p90: h.p90(),
            p99: h.p99(),
            p999: h.p999(),
            max: h.max(),
        }
    }

    /// One-line rendering: `n=… mean=… p50=… p90=… p99=… p99.9=… max=…`.
    pub fn summary_line(&self) -> String {
        if self.count == 0 {
            return "n=0".to_string();
        }
        format!(
            "n={} mean={:.4} p50={:.4} p90={:.4} p99={:.4} p99.9={:.4} max={:.4}",
            self.count, self.mean, self.p50, self.p90, self.p99, self.p999, self.max
        )
    }
}

/// Runtime telemetry attached to a report: the run's [`Metrics`] flattened
/// into serializable, name-ordered lists. Rendered as a trailing "Runtime"
/// section; pool counters depend on the thread count, so golden renderings
/// mask the values while pinning the member counts.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct RunMetrics {
    /// Monotonic counters, name-ordered.
    pub counters: Vec<(String, u64)>,
    /// Last-write-wins gauges, name-ordered. Keep values finite: JSON has
    /// no NaN/inf lexeme, so non-finite gauges serialize as `null` and
    /// fail to round-trip.
    pub gauges: Vec<(String, f64)>,
    /// Histogram summaries, name-ordered.
    pub hists: Vec<(String, HistSummary)>,
}

impl RunMetrics {
    /// Snapshot a metrics registry.
    pub fn of(m: &Metrics) -> RunMetrics {
        RunMetrics {
            counters: m.counters().map(|(k, v)| (k.to_string(), v)).collect(),
            gauges: m.gauges().map(|(k, v)| (k.to_string(), v)).collect(),
            hists: m
                .hists()
                .map(|(k, h)| (k.to_string(), HistSummary::of(h)))
                .collect(),
        }
    }

    /// True when nothing was recorded (the runtime section is omitted).
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.hists.is_empty()
    }

    /// Read a counter back (zero if absent) — convenience for tests and
    /// `xxi compare`.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    }
}

/// One report item, in document order.
#[derive(Clone, Debug, PartialEq)]
pub enum Item {
    /// A section header (`== title ==`).
    Section(String),
    /// A rendered table.
    Table(Table),
    /// One free-text block, printed followed by a newline.
    Text(String),
}

/// A structured experiment report.
///
/// Built incrementally by an experiment (sections, tables, text,
/// findings), then rendered with [`Report::render_text`] (the classic
/// stdout format) or [`Report::render_json`].
#[derive(Clone, Debug, PartialEq)]
pub struct Report {
    /// Lowercase experiment id (`"e9"`).
    pub id: String,
    /// The paper claim this experiment reproduces (the banner anchor).
    pub paper_claim: String,
    /// `--seed` override, or 0 for the canonical per-call-site seeds.
    pub seed: u64,
    /// Run parameters (`threads`, `trace`, …) as ordered key/value pairs.
    pub params: Vec<(String, String)>,
    /// Items in document order.
    pub items: Vec<Item>,
    /// Scalar findings.
    pub findings: Vec<Finding>,
    /// Runtime telemetry (schema v2); `None` when the run recorded none.
    pub runtime: Option<RunMetrics>,
}

impl Report {
    /// Start an empty report for experiment `id`.
    pub fn new(id: impl Into<String>, paper_claim: impl Into<String>) -> Report {
        Report {
            id: id.into(),
            paper_claim: paper_claim.into(),
            seed: 0,
            params: Vec::new(),
            items: Vec::new(),
            findings: Vec::new(),
            runtime: None,
        }
    }

    /// Attach the run's metrics as the trailing Runtime section. Empty
    /// registries are dropped (no section, `"runtime":null` in JSON).
    pub fn set_runtime(&mut self, m: &Metrics) {
        let rt = RunMetrics::of(m);
        self.runtime = if rt.is_empty() { None } else { Some(rt) };
    }

    /// Record a run parameter.
    pub fn param(&mut self, key: impl Into<String>, value: impl Into<String>) {
        self.params.push((key.into(), value.into()));
    }

    /// Append a section header.
    pub fn section(&mut self, title: impl Into<String>) {
        self.items.push(Item::Section(title.into()));
    }

    /// Append a table.
    pub fn table(&mut self, t: Table) {
        self.items.push(Item::Table(t));
    }

    /// Append a text block (rendered as the string plus a newline).
    pub fn text(&mut self, s: impl Into<String>) {
        self.items.push(Item::Text(s.into()));
    }

    /// Record a scalar finding.
    pub fn finding(&mut self, name: impl Into<String>, value: f64, unit: impl Into<String>) {
        self.findings.push(Finding {
            name: name.into(),
            value,
            unit: unit.into(),
        });
    }

    /// Render the classic experiment stdout: banner, then every item.
    ///
    /// Byte-identical to what the historical stand-alone binaries printed
    /// (`banner()` + `section()` + `Table::render` + `println!`).
    pub fn render_text(&self) -> String {
        self.render_text_with(false)
    }

    /// Render for golden-output comparison: identical to
    /// [`Report::render_text`] except the Runtime section collapses to a
    /// placeholder that pins its member counts.
    // xxi-allow: model-reach -- the golden tests (xxi-bench tests/golden.rs) compare this
    pub fn render_text_golden(&self) -> String {
        self.render_text_with(true)
    }

    fn render_text_with(&self, golden: bool) -> String {
        let mut out = String::new();
        let rule = "#".repeat(70);
        let _ = writeln!(out, "{rule}");
        let _ = writeln!(out, "# Experiment {}", self.id.to_uppercase());
        let _ = writeln!(out, "# Paper anchor: {}", self.paper_claim);
        let _ = writeln!(out, "{rule}");
        for item in &self.items {
            match item {
                Item::Section(t) => {
                    let _ = writeln!(out, "\n== {t} ==\n");
                }
                Item::Table(t) => out.push_str(&t.render()),
                Item::Text(s) => {
                    let _ = writeln!(out, "{s}");
                }
            }
        }
        if let Some(rt) = &self.runtime {
            if !rt.is_empty() {
                let _ = writeln!(out, "\n== Runtime ==\n");
                if golden {
                    // Thread-dependent values are masked; the member counts
                    // pin the section's shape (a lost counter still fails
                    // the golden diff).
                    let _ = writeln!(
                        out,
                        "<volatile runtime: {} counter(s), {} gauge(s), {} histogram(s)>",
                        rt.counters.len(),
                        rt.gauges.len(),
                        rt.hists.len()
                    );
                } else {
                    let width = rt
                        .counters
                        .iter()
                        .map(|(k, _)| k.len())
                        .chain(rt.gauges.iter().map(|(k, _)| k.len()))
                        .chain(rt.hists.iter().map(|(k, _)| k.len()))
                        .max()
                        .unwrap_or(0);
                    for (k, v) in &rt.counters {
                        let _ = writeln!(out, "{k}{}  {v}", fill(width, k));
                    }
                    for (k, v) in &rt.gauges {
                        let _ = writeln!(out, "{k}{}  {v}", fill(width, k));
                    }
                    for (k, h) in &rt.hists {
                        let _ = writeln!(out, "{k}{}  {}", fill(width, k), h.summary_line());
                    }
                }
            }
        }
        out
    }

    /// Render the schema-version-3 JSON document (see the module docs).
    pub fn render_json(&self) -> String {
        self.to_json().to_string()
    }

    /// The schema-version-3 document as a [`Json`] tree; the inverse of
    /// [`Report::from_json`].
    pub fn to_json(&self) -> Json {
        let kind = |k: &'static str| ("kind", Json::str(k));
        let items = self.items.iter().map(|item| match item {
            Item::Section(t) => Json::obj([kind("section"), ("title", Json::str(t))]),
            Item::Text(txt) => Json::obj([kind("text"), ("text", Json::str(txt))]),
            Item::Table(t) => {
                let cell = |c: &Cell| {
                    let value = c.value.map(|v| ("value", Json::num(v)));
                    Json::obj([("text", Json::str(&c.text))].into_iter().chain(value))
                };
                let row = |r: &Vec<Cell>| Json::Array(r.iter().map(cell).collect());
                Json::obj([
                    kind("table"),
                    ("caption", t.caption_text().map_or(Json::Null, Json::str)),
                    (
                        "headers",
                        Json::Array(t.headers().iter().map(Json::str).collect()),
                    ),
                    ("rows", Json::Array(t.rows().iter().map(row).collect())),
                ])
            }
        });
        let runtime = self.runtime.as_ref().map_or(Json::Null, |rt| {
            let summary = |h: &HistSummary| {
                Json::obj([
                    ("count", Json::int(h.count)),
                    ("mean", Json::num(h.mean)),
                    ("min", Json::num(h.min)),
                    ("p50", Json::num(h.p50)),
                    ("p90", Json::num(h.p90)),
                    ("p99", Json::num(h.p99)),
                    ("p999", Json::num(h.p999)),
                    ("max", Json::num(h.max)),
                ])
            };
            let counters = rt.counters.iter().map(|(k, v)| (k.as_str(), Json::int(*v)));
            let gauges = rt.gauges.iter().map(|(k, v)| (k.as_str(), Json::num(*v)));
            let hists = rt.hists.iter().map(|(k, h)| (k.as_str(), summary(h)));
            Json::obj([
                ("counters", Json::obj(counters)),
                ("gauges", Json::obj(gauges)),
                ("hists", Json::obj(hists)),
            ])
        });
        let params = self.params.iter().map(|(k, v)| (k.as_str(), Json::str(v)));
        let findings = self.findings.iter().map(|f| {
            Json::obj([
                ("name", Json::str(&f.name)),
                ("value", Json::num(f.value)),
                ("unit", Json::str(&f.unit)),
            ])
        });
        Json::obj([
            ("schema_version", Json::int(SCHEMA_VERSION)),
            ("experiment", Json::str(&self.id)),
            ("paper_claim", Json::str(&self.paper_claim)),
            ("seed", Json::int(self.seed)),
            ("params", Json::obj(params)),
            ("findings", Json::Array(findings.collect())),
            ("items", Json::Array(items.collect())),
            ("runtime", runtime),
        ])
    }

    /// Parse a JSON document (schema version 1, 2 or 3) back into a
    /// [`Report`].
    ///
    /// The inverse of [`Report::render_json`]: `parse_json(render_json(r))
    /// == r` for every report (the round-trip is tested over all golden
    /// reports). Also the validator behind `xxi validate`. Version-1
    /// documents (pre-telemetry) parse with `runtime: None`; version-2
    /// items' `volatile` keys are ignored.
    pub fn parse_json(text: &str) -> Result<Report, String> {
        let v = json::parse(text)?;
        Report::from_json(&v)
    }

    /// Build a report from a parsed JSON value, validating the schema.
    pub fn from_json(v: &Json) -> Result<Report, String> {
        let obj = v.as_object().ok_or("report: expected an object")?;
        let version = json::get_u64(obj, "schema_version")?;
        if !(1..=SCHEMA_VERSION).contains(&version) {
            return Err(format!(
                "unsupported schema_version {version} (expected 1..={SCHEMA_VERSION})"
            ));
        }
        let mut r = Report::new(
            json::get_str(obj, "experiment")?,
            json::get_str(obj, "paper_claim")?,
        );
        r.seed = json::get_u64(obj, "seed")?;
        for (k, v) in json::get_object(obj, "params")? {
            r.param(k.clone(), v.as_str().ok_or("param: expected a string")?);
        }
        for f in json::get_array(obj, "findings")? {
            let fo = f.as_object().ok_or("finding: expected an object")?;
            r.finding(
                json::get_str(fo, "name")?,
                json::get_f64(fo, "value")?,
                json::get_str(fo, "unit")?,
            );
        }
        for item in json::get_array(obj, "items")? {
            let io = item.as_object().ok_or("item: expected an object")?;
            let item = match json::get_str(io, "kind")?.as_str() {
                "section" => Item::Section(json::get_str(io, "title")?),
                "text" => Item::Text(json::get_str(io, "text")?),
                "table" => {
                    let headers: Vec<String> = json::get_array(io, "headers")?
                        .iter()
                        .map(|h| h.as_str().ok_or("header: expected a string"))
                        .collect::<Result<_, _>>()?;
                    let hrefs: Vec<&str> = headers.iter().map(|h| h.as_str()).collect();
                    let mut t = Table::new(&hrefs);
                    if let Some(c) = json::get(io, "caption")?.as_str() {
                        t = t.caption(c);
                    }
                    for row in json::get_array(io, "rows")? {
                        let cells: Vec<String> = row
                            .as_array()
                            .ok_or("row: expected an array")?
                            .iter()
                            .map(|c| {
                                c.as_object()
                                    .and_then(|o| json::find(o, "text"))
                                    .and_then(Json::as_str)
                                    .ok_or("cell: expected an object with text")
                            })
                            .collect::<Result<_, _>>()?;
                        if cells.len() > headers.len() {
                            return Err(format!(
                                "row has {} cells but table has {} columns",
                                cells.len(),
                                headers.len()
                            ));
                        }
                        t.row(&cells);
                    }
                    Item::Table(t)
                }
                k => return Err(format!("item: unknown kind {k:?}")),
            };
            r.items.push(item);
        }
        // `runtime` arrived with schema v2; absent (v1) and null both mean
        // "no telemetry recorded".
        match json::find(obj, "runtime") {
            None | Some(Json::Null) => {}
            Some(rv) => {
                let ro = rv.as_object().ok_or("runtime: expected an object")?;
                let mut rt = RunMetrics::default();
                for (k, v) in json::get_object(ro, "counters")? {
                    let v = v.as_u64().ok_or("runtime counter: expected a u64")?;
                    rt.counters.push((k.clone(), v));
                }
                for (k, v) in json::get_object(ro, "gauges")? {
                    let v = v.as_f64().ok_or("runtime gauge: expected a number")?;
                    rt.gauges.push((k.clone(), v));
                }
                for (k, v) in json::get_object(ro, "hists")? {
                    let ho = v.as_object().ok_or("runtime hist: expected an object")?;
                    let num = |key| json::get_f64(ho, key);
                    rt.hists.push((
                        k.clone(),
                        HistSummary {
                            count: json::get_u64(ho, "count")?,
                            mean: num("mean")?,
                            min: num("min")?,
                            p50: num("p50")?,
                            p90: num("p90")?,
                            p99: num("p99")?,
                            p999: num("p999")?,
                            max: num("max")?,
                        },
                    ));
                }
                r.runtime = Some(rt);
            }
        }
        Ok(r)
    }

    /// Tables in document order.
    // xxi-allow: model-reach -- the golden tests (xxi-bench tests/golden.rs) check every table
    pub fn tables(&self) -> impl Iterator<Item = &Table> {
        self.items.iter().filter_map(|i| match i {
            Item::Table(t) => Some(t),
            _ => None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng64;
    use crate::table::fnum;

    fn sample() -> Report {
        let mut r = Report::new("e0", "Table 0: a \"quoted\" claim");
        r.seed = 7;
        r.param("threads", "4");
        r.section("First section");
        let mut t = Table::new(&["node", "pJ"]).caption("cap");
        t.row(&["180nm".into(), "45.0".into()]);
        t.row(&["90nm".into(), "12.5".into()]);
        r.table(t);
        r.text("a free\nmultiline block");
        r.finding("ratio", 3.6, "x");
        let mut m = Metrics::new();
        m.count("pool.steals", 37);
        m.count("mc.trials", 1 << 55); // u64 precision must survive JSON
        m.gauge("pool.threads", 4.0);
        m.observe("op_ms", 1.5);
        m.observe("op_ms", 3.0);
        r.set_runtime(&m);
        r
    }

    #[test]
    fn text_render_matches_legacy_layout() {
        let s = sample().render_text();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines[0], "#".repeat(70));
        assert_eq!(lines[1], "# Experiment E0");
        assert!(lines[2].starts_with("# Paper anchor: Table 0"));
        assert!(s.contains("\n== First section ==\n\n"));
        assert!(s.contains("cap\nnode"));
        assert!(s.contains("a free\nmultiline block\n"));
        // Runtime telemetry renders as an aligned trailing section.
        assert!(s.contains("\n== Runtime ==\n\n"));
        assert!(s.contains("pool.steals   37"));
        assert!(s.contains("pool.threads  4"));
        assert!(s.contains("op_ms         n=2 mean=2.25"));
    }

    #[test]
    fn runtime_names_longer_than_a_format_width_render() {
        let long = "k".repeat(70_000);
        let mut r = sample();
        let rt = r.runtime.as_mut().unwrap();
        rt.counters.push((long.clone(), 5));
        rt.gauges.push(("é".into(), 0.5));
        let s = r.render_text();
        assert!(s.contains(&format!("\n{long}  5\n")));
        assert!(s.contains(&format!("\npool.steals{}  37\n", " ".repeat(70_000 - 11))));
        assert!(s.contains(&format!("\né{}  0.5\n", " ".repeat(69_999))));
    }

    #[test]
    fn golden_render_masks_only_the_runtime_section() {
        let r = sample();
        let g = r.render_text_golden();
        let t = r.render_text();
        // The runtime section is masked, but its shape is pinned.
        assert!(g.contains("\n== Runtime ==\n\n"));
        assert!(!g.contains("pool.steals"));
        assert!(g.contains("<volatile runtime: 2 counter(s), 1 gauge(s), 1 histogram(s)>"));
        // Everything before it is rendered verbatim.
        let cut = "== Runtime ==\n\n";
        assert_eq!(
            &g[..g.find(cut).unwrap() + cut.len()],
            &t[..t.find(cut).unwrap() + cut.len()]
        );
    }

    #[test]
    fn json_round_trips() {
        let r = sample();
        let j = r.render_json();
        let back = Report::parse_json(&j).expect("parses");
        assert_eq!(back, r);
    }

    #[test]
    fn json_has_typed_cells_and_schema_fields() {
        let j = sample().render_json();
        assert!(j.starts_with("{\"schema_version\":3,\"experiment\":\"e0\""));
        assert!(j.contains("{\"text\":\"45.0\",\"value\":45}"));
        assert!(j.contains("{\"text\":\"180nm\"}"));
        assert!(j.contains("\"findings\":[{\"name\":\"ratio\",\"value\":3.6,\"unit\":\"x\"}]"));
        assert!(j.contains("{\"kind\":\"text\",\"text\":\"a free\\nmultiline block\"}"));
        assert!(!j.contains("volatile"));
        // Runtime telemetry: counters stay integer (2^55 > f64 mantissa),
        // histograms carry the fixed quantile set.
        assert!(j.contains(&format!("\"mc.trials\":{}", 1u64 << 55)));
        assert!(j.contains("\"gauges\":{\"pool.threads\":4}"));
        assert!(j.contains("\"op_ms\":{\"count\":2,\"mean\":2.25,"));
    }

    #[test]
    fn parse_rejects_wrong_schema_version() {
        let j = sample()
            .render_json()
            .replacen("\"schema_version\":3", "\"schema_version\":99", 1);
        assert!(Report::parse_json(&j).is_err());
    }

    #[test]
    fn parse_rejects_a_row_wider_than_its_headers() {
        let j = sample().render_json();
        assert!(j.contains("\"headers\":[\"node\",\"pJ\"]"));
        let j = j.replacen("\"headers\":[\"node\",\"pJ\"]", "\"headers\":[\"node\"]", 1);
        assert_eq!(
            Report::parse_json(&j).unwrap_err(),
            "row has 2 cells but table has 1 columns"
        );
    }

    #[test]
    fn parse_accepts_version_1_documents() {
        // A pre-telemetry (v1) document: no `runtime` member at all.
        let mut r = sample();
        r.runtime = None;
        let j = r
            .render_json()
            .replacen("\"schema_version\":3", "\"schema_version\":1", 1)
            .replace(",\"runtime\":null", "");
        let back = Report::parse_json(&j).expect("v1 parses");
        assert_eq!(back.runtime, None);
        assert_eq!(back.items, r.items);
    }

    #[test]
    fn parse_ignores_version_2_volatile_flags() {
        let r = sample();
        let j = r
            .render_json()
            .replacen("\"schema_version\":3", "\"schema_version\":2", 1)
            .replace(
                "{\"kind\":\"table\"",
                "{\"kind\":\"table\",\"volatile\":true",
            )
            .replace(
                "{\"kind\":\"text\"",
                "{\"kind\":\"text\",\"volatile\":false",
            );
        assert!(j.contains("\"volatile\":true"));
        let back = Report::parse_json(&j).expect("v2 parses");
        assert_eq!(back, r);
    }

    #[test]
    fn runtime_json_round_trips() {
        let r = sample();
        let back = Report::parse_json(&r.render_json()).expect("parses");
        assert_eq!(back.runtime, r.runtime);
        let rt = back.runtime.unwrap();
        assert_eq!(rt.counter("mc.trials"), 1 << 55);
        assert_eq!(rt.counter("absent"), 0);
        assert_eq!(rt.hists[0].1.count, 2);
    }

    #[test]
    fn empty_metrics_attach_nothing() {
        let mut r = Report::new("e0", "claim");
        r.set_runtime(&Metrics::new());
        assert_eq!(r.runtime, None);
        assert!(!r.render_text().contains("Runtime"));
        assert!(r.render_json().contains("\"runtime\":null"));
    }

    /// Property: for seeded-random reports, (a) `render_text` embeds every
    /// table exactly as `Table::render` produces it (the pre-Report
    /// format), and (b) the JSON round-trip is lossless.
    #[test]
    fn random_reports_render_tables_verbatim_and_round_trip() {
        let mut rng = Rng64::new(0x5EED_0001);
        for case in 0..50 {
            let mut r = Report::new(format!("e{case}"), "claim");
            r.seed = rng.next_u64();
            let mut tables = Vec::new();
            for _ in 0..rng.below(4) + 1 {
                r.section(format!("s{}", rng.below(1000)));
                let ncols = rng.below(4) as usize + 1;
                let headers: Vec<String> = (0..ncols).map(|c| format!("col{c}")).collect();
                let hrefs: Vec<&str> = headers.iter().map(|h| h.as_str()).collect();
                let mut t = Table::new(&hrefs);
                for _ in 0..rng.below(5) {
                    let row: Vec<String> =
                        (0..ncols).map(|_| fnum(rng.range_f64(-1e4, 1e4))).collect();
                    t.row(&row);
                }
                r.table(t.clone());
                tables.push(t);
                if rng.chance(0.5) {
                    r.text(format!("note {}", rng.below(100)));
                }
                if rng.chance(0.3) {
                    r.finding(format!("f{}", rng.below(10)), rng.next_f64(), "");
                }
            }
            let text = r.render_text();
            for t in &tables {
                assert!(
                    text.contains(&t.render()),
                    "case {case}: table block not rendered verbatim"
                );
            }
            assert_eq!(text, r.render_text_golden(), "no runtime section => equal");
            let back = Report::parse_json(&r.render_json()).expect("parses");
            assert_eq!(back, r, "case {case}: JSON round-trip");
        }
    }
}
