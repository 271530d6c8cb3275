//! The cross-layer model linter.
//!
//! The second pillar of `xxi-check`: where the concurrency checker
//! explores *interleavings* of the runtime, the linter checks *invariants*
//! of the analytical models — the cross-layer contracts that no single
//! crate's unit tests own. Each [`Rule`] instantiates shipped model
//! constructors (the same configurations the experiment binaries use) and
//! emits [`Diagnostic`]s when an invariant fails:
//!
//! * `units-dimensional` — dimensional identities of `xxi_core::units`
//!   (period·frequency, energy/power/time conversions) and physicality of
//!   shipped quantities.
//! * `ledger-conservation` — per-layer debits of an [`EnergyLedger`] sum
//!   to the spend total, on synthetic ledgers, on merges, and on a live
//!   E10 sensor-node run.
//! * `tech-node-sanity` — the `NodeDb::standard()` ladder is monotone the
//!   way the paper's scaling story requires (density doubling, voltage
//!   scaling stalling, leakage growing, costs rising).
//! * `noc-well-formed` — mesh topologies (including E18's 32×32) have
//!   symmetric links, progress-making routes, and sane global metrics.
//! * `cache-geometry`, `cloud-power-sanity`, `rel-checkpoint`,
//!   `sensor-energy`, `model-constructors` — per-crate constructor checks
//!   spanning the rest of the model zoo.
//!
//! Diagnostics carry a rule id, severity, and a source tag naming the
//! offending constructor, and render as text or as a compact JSON
//! document built with `xxi_core`'s one JSON writer. `xxi lint` runs
//! this and exits non-zero when any error-severity diagnostic fires, so
//! CI can gate on it.

use std::fmt;

use xxi_core::obs::{EnergyLedger, Layer};
use xxi_core::report::json::Json;
use xxi_core::units::{gops_per_watt, ops_per_joule, Energy, Frequency, Ops, Power, Seconds};

// --- diagnostics ----------------------------------------------------------

/// How bad a finding is. Only [`Severity::Error`] fails the lint run.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Informational: a checked property, reported for visibility.
    Info,
    /// Suspicious but not a correctness violation.
    Warning,
    /// A model invariant is violated; the CLI exits non-zero.
    Error,
}

impl Severity {
    /// Lower-case name, as used in text and JSON output.
    pub fn name(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One linter finding.
#[derive(Clone, Debug)]
pub struct Diagnostic {
    /// Id of the rule that fired, e.g. `"tech-node-sanity"`.
    pub rule: &'static str,
    /// Finding severity.
    pub severity: Severity,
    /// Span-like source tag naming the model element checked, e.g.
    /// `"xxi-tech::NodeDb::standard()[45nm]"`.
    pub source: String,
    /// Human-readable description of the violation.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}] {}: {}",
            self.severity, self.rule, self.source, self.message
        )
    }
}

/// Where rules deposit findings while running.
pub struct Sink {
    rule: &'static str,
    diags: Vec<Diagnostic>,
    checks: u64,
}

impl Sink {
    fn new(rule: &'static str) -> Sink {
        Sink {
            rule,
            diags: Vec::new(),
            checks: 0,
        }
    }

    /// Record an error-severity finding against `source`.
    pub fn error(&mut self, source: impl Into<String>, message: impl Into<String>) {
        self.push(Severity::Error, source, message);
    }

    /// Record a warning against `source`.
    pub fn warn(&mut self, source: impl Into<String>, message: impl Into<String>) {
        self.push(Severity::Warning, source, message);
    }

    fn push(&mut self, severity: Severity, source: impl Into<String>, message: impl Into<String>) {
        self.diags.push(Diagnostic {
            rule: self.rule,
            severity,
            source: source.into(),
            message: message.into(),
        });
    }

    /// Assert `cond`; on failure record an error. Counts toward the
    /// checks-performed total either way.
    pub fn check(&mut self, cond: bool, source: impl Into<String>, message: impl Into<String>) {
        self.checks += 1;
        if !cond {
            self.error(source, message);
        }
    }

    /// Like [`Sink::check`] but for floats: `|a - b| ≤ tol·max(|a|,|b|,1)`.
    pub fn check_close(&mut self, a: f64, b: f64, tol: f64, source: impl Into<String>, what: &str) {
        let scale = a.abs().max(b.abs()).max(1.0);
        self.check(
            (a - b).abs() <= tol * scale,
            source,
            format!("{what}: {a} vs {b} (tol {tol})"),
        );
    }
}

// --- rules ----------------------------------------------------------------

/// A linter rule: a named bundle of invariant checks over shipped models.
pub struct Rule {
    /// Stable kebab-case id (used in output and `--rule` filters).
    pub id: &'static str,
    /// One-line description for `--list`.
    pub description: &'static str,
    /// Run every check, reporting into the sink.
    pub run: fn(&mut Sink),
}

/// Every shipped rule, in execution order.
pub static RULES: [Rule; 9] = [
    Rule {
        id: "units-dimensional",
        description: "dimensional identities and physicality of xxi-core units",
        run: units_dimensional,
    },
    Rule {
        id: "ledger-conservation",
        description: "EnergyLedger layer debits sum to the spend total (incl. a live E10 run)",
        run: ledger_conservation,
    },
    Rule {
        id: "tech-node-sanity",
        description: "NodeDb::standard ladder is monotone and within physical envelopes",
        run: tech_node_sanity,
    },
    Rule {
        id: "noc-well-formed",
        description: "mesh topologies: symmetric links, progressing routes, sane metrics",
        run: noc_well_formed,
    },
    Rule {
        id: "cache-geometry",
        description: "shipped cache configs are geometrically valid and ordered",
        run: cache_geometry,
    },
    Rule {
        id: "cloud-power-sanity",
        description: "server/datacenter power curves are monotone and PUE >= 1",
        run: cloud_power_sanity,
    },
    Rule {
        id: "rel-checkpoint",
        description: "Young-Daly checkpointing and availability arithmetic (e17 config)",
        run: rel_checkpoint,
    },
    Rule {
        id: "sensor-energy",
        description: "sensor-node energy asymmetry and lifetime accounting (e10 config)",
        run: sensor_energy,
    },
    Rule {
        id: "model-constructors",
        description: "remaining model-crate constructors produce physical, coherent models",
        run: model_constructors,
    },
];

/// Run the rules (all, or only the one whose id is `filter`) and collect
/// the report. Unknown filters yield a report with zero rules run.
pub fn run(filter: Option<&str>) -> LintReport {
    let mut report = LintReport::default();
    for rule in RULES.iter().filter(|r| filter.is_none_or(|f| r.id == f)) {
        let mut sink = Sink::new(rule.id);
        (rule.run)(&mut sink);
        report.rules_run += 1;
        report.checks += sink.checks;
        report.diags.extend(sink.diags);
    }
    report
}

/// The outcome of a lint run.
#[derive(Default)]
pub struct LintReport {
    /// Every finding, in rule order.
    pub diags: Vec<Diagnostic>,
    /// Rules executed.
    pub rules_run: usize,
    /// Individual invariant checks performed.
    pub checks: u64,
}

impl LintReport {
    /// Number of error-severity findings.
    pub fn errors(&self) -> usize {
        self.diags
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .count()
    }

    /// Number of warnings.
    pub fn warnings(&self) -> usize {
        self.diags
            .iter()
            .filter(|d| d.severity == Severity::Warning)
            .count()
    }

    /// True when no error-severity findings fired.
    pub fn is_clean(&self) -> bool {
        self.errors() == 0
    }

    /// Machine-readable JSON: one compact object with the counts and the
    /// diagnostics in rule order.
    pub fn to_json(&self) -> Json {
        let diags = self.diags.iter().map(|d| {
            Json::obj([
                ("rule", Json::str(d.rule)),
                ("severity", Json::str(d.severity.name())),
                ("source", Json::str(&d.source)),
                ("message", Json::str(&d.message)),
            ])
        });
        Json::obj([
            ("rules_run", Json::int(self.rules_run as u64)),
            ("checks", Json::int(self.checks)),
            ("errors", Json::int(self.errors() as u64)),
            ("warnings", Json::int(self.warnings() as u64)),
            ("diagnostics", Json::Array(diags.collect())),
        ])
    }
}

impl fmt::Display for LintReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for d in &self.diags {
            writeln!(f, "{d}")?;
        }
        write!(
            f,
            "{} rule(s), {} check(s): {} error(s), {} warning(s)",
            self.rules_run,
            self.checks,
            self.errors(),
            self.warnings()
        )
    }
}

// --- rule: units-dimensional ----------------------------------------------

fn units_dimensional(s: &mut Sink) {
    let src = "xxi-core::units";
    // SI-prefix conversion round-trips.
    s.check_close(Energy::from_pj(1.0).value(), 1e-12, 1e-12, src, "pJ");
    s.check_close(Energy::from_nj(1.0).value(), 1e-9, 1e-12, src, "nJ");
    s.check_close(Energy::from_mj(2.0).mj(), 2.0, 1e-12, src, "mJ round-trip");
    s.check_close(
        Energy::from_kwh(1.0).value(),
        3.6e6,
        1e-12,
        src,
        "1 kWh is 3.6 MJ",
    );
    s.check_close(Power::from_mw(1.0).value(), 1e-3, 1e-12, src, "mW");
    s.check_close(
        Seconds::from_hours(1.0).value(),
        3600.0,
        1e-12,
        src,
        "hours",
    );
    s.check_close(Seconds::from_ms(1.0).ms(), 1.0, 1e-12, src, "ms round-trip");
    // Dimensional identities.
    let f = Frequency::from_ghz(2.5);
    s.check_close(
        f.period().value() * f.value(),
        1.0,
        1e-12,
        src,
        "period x frequency = 1",
    );
    s.check_close(
        (Power(2.0) * Seconds(3.0)).value(),
        6.0,
        1e-12,
        src,
        "power x time = energy",
    );
    s.check_close(
        ops_per_joule(Ops::from_gops(1.0), Energy(1.0)),
        1e9,
        1e-12,
        src,
        "1 Gop / 1 J = 1e9 ops/J",
    );
    s.check_close(
        gops_per_watt(Frequency(2e9), Power(1.0)),
        2.0,
        1e-12,
        src,
        "2e9 ops/s at 1 W = 2 Gops/W",
    );
    // Physicality detection must reject NaN, infinities, negatives.
    s.check(
        !Energy(f64::NAN).is_physical(),
        src,
        "NaN energy must be non-physical",
    );
    s.check(
        !Power(f64::INFINITY).is_physical(),
        src,
        "infinite power must be non-physical",
    );
    s.check(
        !Seconds(-1.0).is_physical(),
        src,
        "negative time must be non-physical",
    );
    s.check(Energy(1.0).is_physical(), src, "1 J must be physical");
}

// --- rule: ledger-conservation --------------------------------------------

/// Check that `ledger` conserves energy: non-harvest layer totals sum to
/// the spend total, and per-component energies sum to their layer totals.
fn check_ledger(s: &mut Sink, src: &str, ledger: &EnergyLedger) {
    let spent = ledger.total_spent().value();
    let layer_sum: f64 = Layer::ALL
        .iter()
        .filter(|&&l| l != Layer::Harvest)
        .map(|&l| ledger.layer_total(l).value())
        .sum();
    s.check_close(
        layer_sum,
        spent,
        1e-9,
        src,
        "sum of layer debits vs total spent",
    );
    for layer in Layer::ALL {
        let comp_sum: f64 = ledger
            .components()
            .filter(|(_, l, ..)| *l == layer)
            .map(|(_, _, e, _)| e.value())
            .sum();
        s.check_close(
            comp_sum,
            ledger.layer_total(layer).value(),
            1e-9,
            src,
            &format!("components vs {layer} subtotal"),
        );
    }
    for (name, _, e, events) in ledger.components() {
        s.check(
            e.is_physical(),
            format!("{src}[{name}]"),
            format!("component energy must be physical, got {}", e.value()),
        );
        s.check(
            events > 0,
            format!("{src}[{name}]"),
            "a charged component must have >= 1 event",
        );
    }
}

fn ledger_conservation(s: &mut Sink) {
    // Synthetic ledger spanning every layer.
    let mut a = EnergyLedger::new();
    a.charge("alu", Layer::Compute, Energy::from_nj(3.0));
    a.charge("l2", Layer::Memory, Energy::from_nj(2.0));
    a.charge("link", Layer::Network, Energy::from_nj(1.5));
    a.charge("sleep", Layer::Idle, Energy::from_nj(0.5));
    a.charge("solar", Layer::Harvest, Energy::from_nj(4.0));
    check_ledger(s, "xxi-core::EnergyLedger[synthetic]", &a);
    s.check(
        (a.total_spent().nj() - 7.0).abs() < 1e-9,
        "xxi-core::EnergyLedger[synthetic]",
        "harvest must not count as spend",
    );
    // Merge must conserve: total(a ∪ b) = total(a) + total(b).
    let mut b = EnergyLedger::new();
    b.charge("alu", Layer::Compute, Energy::from_nj(1.0));
    b.charge("dram", Layer::Memory, Energy::from_nj(2.0));
    let (ta, tb) = (a.total_spent().value(), b.total_spent().value());
    a.merge(&b);
    s.check_close(
        a.total_spent().value(),
        ta + tb,
        1e-12,
        "xxi-core::EnergyLedger::merge",
        "merge conserves spend",
    );
    check_ledger(s, "xxi-core::EnergyLedger[merged]", &a);
    // A live ledger from the E10 observed sensor run (short horizon).
    let (_, obs) = e10_node().run_observed(
        xxi_sensor::node::NodePolicy::FilterThenSend,
        xxi_sensor::power::Battery::new(Energy(1.0)),
        Some(e10_harvester()),
        Seconds::from_hours(50.0),
        3,
        xxi_core::obs::Trace::disabled(),
    );
    let src = "xxi-sensor::SensorNode::run_observed[e10]";
    s.check(
        !obs.ledger.is_empty(),
        src,
        "E10 run must charge the ledger",
    );
    check_ledger(s, src, &obs.ledger);
}

// --- rule: tech-node-sanity -----------------------------------------------

fn tech_node_sanity(s: &mut Sink) {
    let db = xxi_tech::NodeDb::standard();
    let nodes = db.all();
    s.check(
        nodes.len() >= 8,
        "xxi-tech::NodeDb::standard()",
        format!(
            "expected the full 180nm..7nm ladder, got {} nodes",
            nodes.len()
        ),
    );
    for n in nodes {
        let src = format!("xxi-tech::NodeDb::standard()[{}]", n.name);
        s.check(
            n.feature_nm > 0.0 && n.feature_nm.is_finite(),
            &src,
            "feature size must be positive",
        );
        s.check(
            (0.0..1.0).contains(&n.leakage_frac),
            &src,
            format!("leakage fraction must be in [0,1), got {}", n.leakage_frac),
        );
        s.check(
            n.vdd.value() > n.vth.value() && n.vth.value() > 0.0,
            &src,
            format!(
                "need vdd > vth > 0, got vdd={} vth={}",
                n.vdd.value(),
                n.vth.value()
            ),
        );
        let ghz = n.freq.ghz();
        s.check(
            (0.1..=6.0).contains(&ghz),
            &src,
            format!("shipping frequency {ghz} GHz outside the 0.1-6 GHz envelope"),
        );
        s.check(
            n.density_mtr_mm2 > 0.0 && n.cap_rel > 0.0,
            &src,
            "density and relative capacitance must be positive",
        );
        s.check(
            n.ser_fit_per_mbit > 0.0,
            &src,
            "soft-error rate must be positive",
        );
        s.check(
            n.mask_cost_musd > 0.0 && n.design_cost_musd > 0.0,
            &src,
            "mask and design costs must be positive",
        );
        // The lookups must agree with the ladder entry.
        match db.by_name(n.name) {
            Ok(found) => s.check(
                found.feature_nm == n.feature_nm,
                &src,
                "by_name returns a different node",
            ),
            Err(e) => s.error(&src, format!("by_name failed: {e}")),
        }
        match db.by_feature(n.feature_nm) {
            Ok(found) => s.check(
                found.name == n.name,
                &src,
                "by_feature returns a different node",
            ),
            Err(e) => s.error(&src, format!("by_feature failed: {e}")),
        }
    }
    for w in nodes.windows(2) {
        let (a, b) = (&w[0], &w[1]);
        let src = format!("xxi-tech::NodeDb::standard()[{}->{}]", a.name, b.name);
        s.check(
            b.feature_nm < a.feature_nm,
            &src,
            "feature size must shrink monotonically",
        );
        s.check(b.year >= a.year, &src, "years must not go backwards");
        s.check(
            b.vdd.value() <= a.vdd.value() + 1e-9,
            &src,
            "supply voltage must never rise across generations",
        );
        let density_ratio = b.density_mtr_mm2 / a.density_mtr_mm2;
        s.check(
            (1.4..=2.8).contains(&density_ratio),
            &src,
            format!("density must ~double per generation, got {density_ratio:.2}x"),
        );
        s.check(
            b.leakage_frac >= a.leakage_frac,
            &src,
            "leakage fraction must grow (or hold) across generations",
        );
        s.check(
            b.gate_energy_rel() <= a.gate_energy_rel() + 1e-12,
            &src,
            "gate switching energy must fall across generations",
        );
        s.check(
            b.mask_cost_musd >= a.mask_cost_musd,
            &src,
            "mask cost must not fall across generations",
        );
    }
    // Dennard boundary: the predicate must flip exactly once along the
    // ladder (scaling broke once, around 90 nm — it did not come back).
    let flips = nodes
        .windows(2)
        .filter(|w| w[0].is_dennard_era() != w[1].is_dennard_era())
        .count();
    s.check(
        flips == 1,
        "xxi-tech::TechNode::is_dennard_era",
        format!("the Dennard-era predicate must flip exactly once, flipped {flips}x"),
    );
}

// --- rule: noc-well-formed ------------------------------------------------

fn check_mesh(s: &mut Sink, src: &str, mesh: xxi_noc::Mesh, exhaustive_routes: bool) {
    use xxi_noc::Dir;
    let n = mesh.nodes();
    s.check(n > 0, src, "mesh must have nodes");
    for id in 0..n {
        let (x, y, z) = mesh.coords(id);
        s.check(
            mesh.id(x, y, z) == id,
            format!("{src}[node {id}]"),
            "coords/id round-trip failed",
        );
        // Link symmetry: the reverse hop through the opposite port must
        // come back here.
        for dir in Dir::ALL {
            if dir == Dir::Local {
                continue;
            }
            if let Some(m) = mesh.neighbor(id, dir) {
                let back = mesh.neighbor(m, dir.opposite());
                s.check(
                    back == Some(id),
                    format!("{src}[node {id} {dir:?}]"),
                    format!("asymmetric link: {id} -> {m} but reverse is {back:?}"),
                );
            }
        }
    }
    // Dimension-order routes must make progress: each hop reduces the
    // remaining hop count by exactly one.
    let pairs: Vec<(usize, usize)> = if exhaustive_routes {
        (0..n).flat_map(|a| (0..n).map(move |b| (a, b))).collect()
    } else {
        (0..n).map(|a| (a, (a * 7 + n / 2) % n)).collect()
    };
    for (a, b) in pairs {
        let mut cur = a;
        let mut left = mesh.hops(a, b);
        let mut steps = 0usize;
        while cur != b {
            let dir = mesh.route(cur, b);
            if dir == Dir::Local {
                s.error(
                    format!("{src}[route {a}->{b}]"),
                    "router ejects before reaching the destination",
                );
                break;
            }
            let Some(next) = mesh.neighbor(cur, dir) else {
                s.error(
                    format!("{src}[route {a}->{b}]"),
                    format!("route points off the mesh at node {cur} ({dir:?})"),
                );
                break;
            };
            let nleft = mesh.hops(next, b);
            if nleft + 1 != left {
                s.error(
                    format!("{src}[route {a}->{b}]"),
                    format!("hop does not make progress: {left} -> {nleft} at node {cur}"),
                );
                break;
            }
            cur = next;
            left = nleft;
            steps += 1;
            if steps > n {
                s.error(format!("{src}[route {a}->{b}]"), "route does not terminate");
                break;
            }
        }
        s.checks += 1;
    }
    s.check(
        mesh.bisection_links() > 0,
        src,
        "bisection width must be positive",
    );
    let mh = mesh.mean_hops_uniform();
    s.check(
        mh > 0.0 && mh.is_finite(),
        src,
        format!("mean hop count must be positive and finite, got {mh}"),
    );
}

fn noc_well_formed(s: &mut Sink) {
    check_mesh(
        s,
        "xxi-noc::Mesh::new_2d(8,8)",
        xxi_noc::Mesh::new_2d(8, 8),
        true,
    );
    // E18's ~1000-core mesh: route checks sampled, structure exhaustive.
    check_mesh(
        s,
        "xxi-noc::Mesh::new_2d(32,32)[e18]",
        xxi_noc::Mesh::new_2d(32, 32),
        false,
    );
    check_mesh(
        s,
        "xxi-noc::Mesh::new_3d(4,4,4)",
        xxi_noc::Mesh::new_3d(4, 4, 4),
        true,
    );
}

// --- rule: cache-geometry -------------------------------------------------

fn cache_geometry(s: &mut Sink) {
    use xxi_mem::cache::{Cache, CacheConfig};
    let levels = [
        ("l1", CacheConfig::l1()),
        ("l2", CacheConfig::l2()),
        ("l3", CacheConfig::l3()),
    ];
    for (name, cfg) in &levels {
        let src = format!("xxi-mem::CacheConfig::{name}()");
        s.check(
            cfg.line_bytes.is_power_of_two(),
            &src,
            "line size must be a power of two",
        );
        s.check(cfg.ways >= 1, &src, "associativity must be >= 1");
        s.check(
            cfg.size_bytes % (cfg.line_bytes * cfg.ways) == 0,
            &src,
            "capacity must be an integral number of sets",
        );
        s.check(
            Cache::new(cfg.clone()).is_ok(),
            &src,
            "constructor must accept its own shipped config",
        );
    }
    s.check(
        levels[0].1.size_bytes < levels[1].1.size_bytes
            && levels[1].1.size_bytes < levels[2].1.size_bytes,
        "xxi-mem::CacheConfig",
        "the hierarchy must grow: |L1| < |L2| < |L3|",
    );
    // The side-channel-hardened partitioned cache accepts the same
    // geometry (its constructor asserts way divisibility internally).
    let _pc = xxi_sec::PartitionedCache::new(CacheConfig::l1(), 4);
    s.checks += 1;
}

// --- rule: cloud-power-sanity ---------------------------------------------

fn cloud_power_sanity(s: &mut Sink) {
    use xxi_cloud::power::{DatacenterPower, ServerPower};
    let srv = ServerPower::commodity_2012();
    let src = "xxi-cloud::ServerPower::commodity_2012()";
    s.check(
        srv.idle.value() >= 0.0 && srv.idle.value() <= srv.peak.value(),
        src,
        "need 0 <= idle <= peak",
    );
    s.check(
        (0.0..=1.0).contains(&srv.mem_storage_frac),
        src,
        "memory+storage fraction must be in [0,1]",
    );
    s.check(
        srv.at_load(0.0) == srv.idle && srv.at_load(1.0) == srv.peak,
        src,
        "load curve must interpolate idle..peak",
    );
    let (p1, p5, p10) = (
        srv.proportionality(0.1),
        srv.proportionality(0.5),
        srv.proportionality(1.0),
    );
    s.check(
        p1 < p5 && p5 < p10 && (p10 - 1.0).abs() < 1e-9,
        src,
        format!("proportionality must rise with load to 1.0 at peak, got {p1:.2}/{p5:.2}/{p10:.2}"),
    );
    let dc = DatacenterPower {
        server: srv,
        servers: 10_000,
        pue: 1.9,
    };
    let src = "xxi-cloud::DatacenterPower[commodity x 10k]";
    s.check(
        dc.pue >= 1.0,
        src,
        "PUE below 1 is thermodynamically impossible",
    );
    s.check_close(
        dc.facility_power(1.0).value(),
        srv.peak.value() * 10_000.0 * 1.9,
        1e-9,
        src,
        "facility power at full load",
    );
    s.check(
        dc.ops_per_joule(0.1) < dc.ops_per_joule(1.0),
        src,
        "efficiency must improve toward full load",
    );
    s.check(
        dc.mem_storage_power(1.0).value() < dc.facility_power(1.0).value(),
        src,
        "memory+storage share must be a strict subset of facility power",
    );
}

// --- rule: rel-checkpoint -------------------------------------------------

fn rel_checkpoint(s: &mut Sink) {
    use xxi_rel::checkpoint::{
        availability, efficiency, nines, young_daly_interval, CheckpointSim,
    };
    // E17's configuration: delta = 30 s, restart = 120 s.
    let delta = Seconds(30.0);
    let restart = Seconds(120.0);
    let mut prev_tau = 0.0;
    for hours in [1.0, 4.0, 24.0, 24.0 * 7.0] {
        let mtbf = Seconds::from_hours(hours);
        let tau = young_daly_interval(delta, mtbf);
        let src = format!("xxi-rel::young_daly_interval[mtbf={hours}h]");
        s.check(
            tau.is_physical() && tau.value() > 0.0,
            &src,
            "optimal interval must be positive and finite",
        );
        s.check(
            tau.value() > prev_tau,
            &src,
            "optimal interval must grow with MTBF",
        );
        prev_tau = tau.value();
        let e_star = efficiency(tau, delta, restart, mtbf);
        s.check(
            (0.0..=1.0).contains(&e_star),
            &src,
            format!("efficiency must be a fraction, got {e_star}"),
        );
        // tau* must beat checkpointing 4x more / 4x less often.
        let e_fast = efficiency(Seconds(tau.value() / 4.0), delta, restart, mtbf);
        let e_slow = efficiency(Seconds(tau.value() * 4.0), delta, restart, mtbf);
        s.check(
            e_star >= e_fast && e_star >= e_slow,
            &src,
            format!("tau* must be optimal: {e_star:.4} vs /4 {e_fast:.4}, x4 {e_slow:.4}"),
        );
    }
    // Simulated E17 job: 100 h of work at MTBF 4 h.
    let mtbf = Seconds::from_hours(4.0);
    let sim = CheckpointSim {
        tau: young_daly_interval(delta, mtbf),
        delta,
        restart,
        mtbf,
    };
    let out = sim.run(Seconds::from_hours(100.0), 1);
    let src = "xxi-rel::CheckpointSim[e17: 100h at mtbf 4h]";
    s.check_close(
        out.work.value(),
        Seconds::from_hours(100.0).value(),
        1e-9,
        src,
        "completed work equals the job size",
    );
    s.check(
        out.wall.value() >= out.work.value(),
        src,
        "wall-clock cannot beat the work lower bound",
    );
    s.check(
        (0.0..=1.0).contains(&out.efficiency),
        src,
        format!("efficiency must be a fraction, got {}", out.efficiency),
    );
    // Availability arithmetic.
    let a = availability(Seconds::from_hours(1000.0), Seconds::from_hours(1.0));
    s.check(
        (0.0..=1.0).contains(&a),
        "xxi-rel::availability",
        format!("availability must be a fraction, got {a}"),
    );
    s.check(
        availability(Seconds::from_hours(1000.0), Seconds::from_hours(0.1)) > a,
        "xxi-rel::availability",
        "faster repair must improve availability",
    );
    s.check(
        nines(0.999) == 3 && nines(0.99999) == 5,
        "xxi-rel::nines",
        "nines(0.999) must be 3 and nines(0.99999) must be 5",
    );
}

// --- rule: sensor-energy --------------------------------------------------

/// The E10 sensor node: default config, Cortex-M-class MCU, BLE radio.
fn e10_node() -> xxi_sensor::node::SensorNode {
    use xxi_sensor::{mcu::Mcu, node::SensorNode, node::SensorNodeConfig, radio::Radio};
    SensorNode::new(
        SensorNodeConfig::default(),
        Mcu::cortex_m_class(),
        Radio::new(xxi_sensor::radio::RadioTech::BleClass),
    )
}

/// The E10 harvester: 150 µW indoor solar on a 24 h cycle.
fn e10_harvester() -> xxi_sensor::power::Harvester {
    use xxi_sensor::power::{HarvestProfile, Harvester};
    let cfg = xxi_sensor::node::SensorNodeConfig::default();
    let epoch_dt = cfg.epoch_samples as f64 / cfg.sample_hz;
    let day_epochs = ((24.0 * 3600.0) / epoch_dt) as u64;
    Harvester::new(
        HarvestProfile::Solar,
        Power::from_uw(150.0),
        day_epochs.max(1),
        3,
    )
}

fn sensor_energy(s: &mut Sink) {
    use xxi_sensor::{
        mcu::Mcu,
        node::NodePolicy,
        power::Battery,
        radio::{Radio, RadioTech},
    };
    let mcu = Mcu::cortex_m_class();
    let src = "xxi-sensor::Mcu::cortex_m_class()";
    s.check(
        mcu.sleep_power.value() > 0.0 && mcu.sleep_power.value() < mcu.active_power.value(),
        src,
        "need 0 < sleep power < active power",
    );
    s.check(
        mcu.energy_per_op.is_physical() && mcu.energy_per_op.value() > 0.0,
        src,
        "per-op energy must be physical and positive",
    );
    // The sensing-layer asymmetry: transmitting a bit costs far more
    // than computing an op, on every shipped radio class.
    for tech in [
        RadioTech::WifiClass,
        RadioTech::BleClass,
        RadioTech::ZigbeeClass,
        RadioTech::LoraClass,
    ] {
        let r = Radio::new(tech);
        let src = format!("xxi-sensor::Radio::new({tech:?})");
        s.check(
            r.tx_per_bit.is_physical() && r.tx_per_bit.value() > 0.0 && r.rate_bps > 0.0,
            &src,
            "radio parameters must be physical and positive",
        );
        s.check(
            r.tx_per_bit.value() > mcu.energy_per_op.value(),
            &src,
            "a transmitted bit must cost more than an MCU op (the sensing asymmetry)",
        );
    }
    // E10 lifetime accounting on a 1 J budget.
    let node = e10_node();
    let horizon = Seconds::from_hours(100_000.0);
    let raw = node.run(NodePolicy::SendRaw, Battery::new(Energy(1.0)), horizon, 1);
    let filt = node.run(
        NodePolicy::FilterThenSend,
        Battery::new(Energy(1.0)),
        horizon,
        1,
    );
    let src = "xxi-sensor::SensorNode::run[e10: BLE, 1 J]";
    for (policy, o) in [("send-raw", &raw), ("filter", &filt)] {
        let psrc = format!("{src}[{policy}]");
        s.check(
            o.lifetime.value() > 0.0 && o.lifetime.is_physical(),
            &psrc,
            "lifetime must be positive",
        );
        s.check(
            (0.0..=1.0).contains(&o.recall),
            &psrc,
            format!("recall must be a fraction, got {}", o.recall),
        );
        s.check(
            (o.radio_energy.value() + o.compute_energy.value()) <= 1.0 + 1e-9,
            &psrc,
            "radio + compute energy cannot exceed the battery",
        );
    }
    s.check(
        filt.lifetime.value() > raw.lifetime.value(),
        src,
        "on-sensor filtering must extend lifetime (the E10 headline)",
    );
    s.check(
        filt.bits_sent < raw.bits_sent,
        src,
        "filtering must reduce transmitted bits",
    );
}

// --- rule: model-constructors ---------------------------------------------

fn model_constructors(s: &mut Sink) {
    // xxi-cpu: cores on the 45 nm anchor node.
    let db = xxi_tech::NodeDb::standard();
    let node45 = db.by_name("45nm").expect("45nm in the standard ladder"); // xxi-allow: panic-path -- see the expect message
    let mut small_ppw = 0.0;
    for kind in [
        xxi_cpu::CoreKind::InOrderSmall,
        xxi_cpu::CoreKind::OoOMedium,
        xxi_cpu::CoreKind::OoOBig,
    ] {
        let core = xxi_cpu::CoreModel::new(kind, node45.clone());
        let src = format!("xxi-cpu::CoreModel::new({kind:?}, 45nm)");
        s.check(
            core.area().value() > 0.0 && core.power().value() > 0.0,
            &src,
            "area and power must be positive",
        );
        s.check_close(
            core.perf(),
            kind.bce().sqrt(),
            1e-12,
            &src,
            "Pollack's rule: perf = sqrt(area)",
        );
        if kind == xxi_cpu::CoreKind::InOrderSmall {
            small_ppw = core.perf_per_watt();
        } else {
            s.check(
                core.perf_per_watt() < small_ppw,
                &src,
                "big cores must lose on perf/W to the small core",
            );
        }
    }
    // xxi-accel: a 4x4 CGRA exposes 16 FUs.
    let cgra = xxi_accel::Cgra::new(4, 4, node45.clone());
    s.check(
        cgra.fus() == 16,
        "xxi-accel::Cgra::new(4,4,45nm)",
        "a 4x4 grid must expose 16 FUs",
    );
    // xxi-approx: quantization honors its own error bound.
    let x = std::f64::consts::PI;
    let q = xxi_approx::ApproxReal::new(x, 8);
    let rel_err = ((q.value() - x) / x).abs();
    s.check(
        rel_err <= q.quantization_bound(),
        "xxi-approx::ApproxReal::new(pi, 8)",
        format!(
            "quantization error {rel_err:.2e} exceeds the declared bound {:.2e}",
            q.quantization_bound()
        ),
    );
    // xxi-sec: the protection matrix is default-deny and rejects
    // overlapping regions.
    use xxi_sec::protection::Perms;
    use xxi_sec::{AccessKind, DomainId, ProtectionMatrix, RegionId};
    let mut pm = ProtectionMatrix::new();
    let src = "xxi-sec::ProtectionMatrix";
    s.check(
        pm.define_region(RegionId(0), 0, 64).is_ok(),
        src,
        "defining a fresh region must succeed",
    );
    s.check(
        pm.define_region(RegionId(1), 32, 64).is_err(),
        src,
        "overlapping regions must be rejected",
    );
    s.check(
        pm.check(DomainId(0), 10, AccessKind::Read).is_err(),
        src,
        "ungranted access must fault (default deny)",
    );
    pm.grant(DomainId(0), RegionId(0), Perms::R);
    s.check(
        pm.check(DomainId(0), 10, AccessKind::Read).is_ok(),
        src,
        "granted read must pass",
    );
    s.check(
        pm.check(DomainId(0), 10, AccessKind::Write).is_err(),
        src,
        "read grant must not imply write",
    );
}

// --- external ledger files ------------------------------------------------

/// Check an energy-ledger dump for conservation.
///
/// Format: one `component layer joules` triple per line (`#` comments and
/// blank lines ignored), plus an optional `total <joules>` line declaring
/// the expected spend total. Errors: unknown layer names, non-finite or
/// negative energies, and a declared total that the non-harvest entries do
/// not sum to (relative tolerance 1e-6).
pub fn check_ledger_text(path: &str, text: &str) -> Vec<Diagnostic> {
    let mut sink = Sink::new("ledger-conservation");
    let mut declared_total: Option<f64> = None;
    let mut sum_spend = 0.0f64;
    let mut entries = 0usize;
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let src = format!("{path}:{}", lineno + 1);
        let fields: Vec<&str> = line.split_whitespace().collect();
        if fields.len() == 2 && fields[0] == "total" {
            match fields[1].parse::<f64>() {
                Ok(v) if v.is_finite() && v >= 0.0 => declared_total = Some(v),
                _ => sink.error(&src, format!("bad total {:?}", fields[1])),
            }
            continue;
        }
        if fields.len() != 3 {
            sink.error(&src, "expected `component layer joules` or `total joules`");
            continue;
        }
        let Some(layer) = Layer::ALL.iter().find(|l| l.name() == fields[1]) else {
            sink.error(&src, format!("unknown layer {:?}", fields[1]));
            continue;
        };
        match fields[2].parse::<f64>() {
            Ok(j) if j.is_finite() && j >= 0.0 => {
                entries += 1;
                if *layer != Layer::Harvest {
                    sum_spend += j;
                }
            }
            _ => sink.error(&src, format!("bad energy {:?}", fields[2])),
        }
        sink.checks += 1;
    }
    if entries == 0 {
        sink.error(path, "no ledger entries found");
    }
    if let Some(total) = declared_total {
        let scale = total.abs().max(sum_spend.abs()).max(1e-30);
        sink.check(
            (total - sum_spend).abs() <= 1e-6 * scale,
            path,
            format!(
                "declared total {total} J does not match the sum of non-harvest debits {sum_spend} J"
            ),
        );
    }
    sink.diags
}
