//! The experiment registry: every experiment from DESIGN.md's index as an
//! [`Experiment`] implementation producing a structured
//! [`Report`], plus the [`RunCtx`] that carries the unified run
//! configuration (seed, threads/executor, tracing) to all of them, and the
//! [`kernels`] registry that only `xxi bench` reaches.
//!
//! The `xxi` driver binary (`xxi list` / `xxi run` / `xxi bench`) is a
//! thin wrapper over this module; the golden-output tests run it
//! in-process.

use std::path::PathBuf;
use std::sync::Mutex;

use xxi_core::metrics::Metrics;
use xxi_core::obs::Trace;
use xxi_core::par::Parallelism;
use xxi_core::Report;
use xxi_stack::pool::Pool;

mod des_kernels;
mod e10_sensor;
mod e11_ntv;
mod e12_nvm;
mod e13_noc;
mod e14_approx;
mod e15_invariant;
mod e16_offload;
mod e17_availability;
mod e18_scaling;
mod e19_security;
mod e1_scaling;
mod e20_tm;
mod e21_faults;
mod e2_cpudb;
mod e3_reliability;
mod e4_comm_energy;
mod e5_nre;
mod e6_multicore;
mod e7_specialization;
mod e8_pyramid;
mod e9_tail;
pub mod kernels;

/// Run configuration shared by every experiment: deterministic seeding,
/// the executor seam, tracing, and the run's metrics sink, parsed once by
/// the unified CLI.
pub struct RunCtx {
    /// `--seed` override; `None` means each call site's canonical seed
    /// (the values all EXPERIMENTS.md numbers were produced with).
    pub seed: Option<u64>,
    /// `--threads` worker count (1 = serial). Experiment output is
    /// byte-identical at every thread count; only the wall clock changes.
    pub threads: usize,
    /// `--trace` output path, for experiments that declare
    /// [`Experiment::emits_trace`].
    pub trace_path: Option<PathBuf>,
    /// The thread pool behind [`RunCtx::exec`] when `threads > 1` —
    /// kept concrete so its scheduler stats are reachable.
    pool: Option<Pool>,
    /// Metrics recorded by the experiment's `fill` (interior-mutable
    /// because `fill` takes `&RunCtx`; contention is nil — experiments
    /// record from the driving thread, between parallel regions).
    metrics: Mutex<Metrics>,
}

impl RunCtx {
    /// Build a context; spins up the thread pool when `threads > 1`.
    pub fn new(seed: Option<u64>, threads: usize, trace_path: Option<PathBuf>) -> RunCtx {
        RunCtx {
            seed,
            threads,
            trace_path,
            pool: (threads > 1).then(|| Pool::new(threads)),
            metrics: Mutex::new(Metrics::new()),
        }
    }

    /// The executor for Monte Carlo fan-out: the pool when `--threads N>1`
    /// was given, [`xxi_core::par::Serial`] otherwise.
    pub fn exec(&self) -> &dyn Parallelism {
        match &self.pool {
            Some(p) => p,
            None => &xxi_core::par::Serial,
        }
    }

    /// The thread pool, when one exists ([`Pool::stats`] is the
    /// scheduler-stats source for reports and `xxi bench`).
    pub fn pool(&self) -> Option<&Pool> {
        self.pool.as_ref()
    }

    /// Add `n` to run counter `name` (creating it at zero).
    pub fn count(&self, name: &'static str, n: u64) {
        self.metrics.lock().unwrap().count(name, n);
    }

    /// Increment run counter `name` by one.
    pub fn incr(&self, name: &'static str) {
        self.count(name, 1);
    }

    /// Set run gauge `name` (keep it finite; see
    /// [`xxi_core::report::RunMetrics`]).
    pub fn gauge(&self, name: &'static str, value: f64) {
        self.metrics.lock().unwrap().gauge(name, value);
    }

    /// Record sample `x` into run histogram `name`.
    pub fn observe(&self, name: &'static str, x: f64) {
        self.metrics.lock().unwrap().observe(name, x);
    }

    /// Drain the metrics recorded since the last take (used by
    /// [`Experiment::run`] to build the report's Runtime section, and by
    /// `xxi bench` to reset between iterations).
    pub fn take_metrics(&self) -> Metrics {
        std::mem::take(&mut *self.metrics.lock().unwrap())
    }

    /// The seed for a call site whose canonical seed is `default`.
    ///
    /// Without `--seed`, returns `default` unchanged so output stays
    /// byte-identical to the goldens. With `--seed s`, derives
    /// a per-call-site substream by mixing `s` with `default` (splitmix64
    /// finalizer), so one override reseeds every stream without
    /// correlating them.
    pub fn seed_or(&self, default: u64) -> u64 {
        match self.seed {
            None => default,
            Some(s) => {
                let mut z = s
                    .wrapping_add(default.wrapping_mul(0x9E37_79B9_7F4A_7C15))
                    .wrapping_add(0x9E37_79B9_7F4A_7C15);
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^ (z >> 31)
            }
        }
    }

    /// A trace recorder: enabled iff `--trace` was given.
    pub fn trace(&self) -> Trace {
        if self.trace_path.is_some() {
            Trace::enabled()
        } else {
            Trace::disabled()
        }
    }

    /// Save `trace` to the `--trace` path (no-op when tracing is off) and
    /// append the confirmation line to the report.
    pub fn emit_trace(&self, r: &mut Report, trace: &Trace) {
        let Some(path) = &self.trace_path else {
            return;
        };
        if let Err(e) = trace.save_chrome_json(path) {
            eprintln!("failed to write trace {}: {e}", path.display());
            std::process::exit(1);
        }
        let mut line = format!(
            "\ntrace: {} events -> {} (chrome://tracing)",
            trace.len(),
            path.display()
        );
        if trace.dropped() > 0 {
            line.push_str(&format!(
                "  [{} events dropped at the cap]",
                trace.dropped()
            ));
        }
        r.text(line);
    }
}

/// One registered experiment. `run` has a provided implementation that
/// stamps the report header (id, claim, seed, params) and delegates to
/// [`Experiment::fill`] for the content.
pub trait Experiment: Sync {
    /// Stable lowercase id (`"e9"`), the name used by `xxi run`.
    fn id(&self) -> &'static str;

    /// One-line human title, shown by `xxi list`.
    fn title(&self) -> &'static str;

    /// The paper claim this experiment reproduces (the banner anchor).
    fn paper_claim(&self) -> &'static str;

    /// True when the experiment can emit a Chrome trace (`--trace`).
    /// The driver rejects `--trace` for experiments that return false.
    fn emits_trace(&self) -> bool {
        false
    }

    /// True when the experiment has a parallel Monte Carlo hot path that
    /// `--threads` actually speeds up (all experiments accept the flag).
    fn parallel(&self) -> bool {
        false
    }

    /// Throughput declaration for `xxi bench`: the unit name and how many
    /// units one `fill` completes (e.g. Monte Carlo trials), or `None`
    /// when wall-clock is the only meaningful number.
    fn work_units(&self) -> Option<(&'static str, f64)> {
        None
    }

    /// Append the experiment's sections, tables, text, and findings.
    fn fill(&self, ctx: &RunCtx, r: &mut Report);

    /// Run the experiment under `ctx`, producing a structured report. The
    /// metrics `fill` recorded through `ctx`, plus the pool's scheduler
    /// stats when one is running, become the report's Runtime section.
    fn run(&self, ctx: &RunCtx) -> Report {
        let mut r = Report::new(self.id(), self.paper_claim());
        r.seed = ctx.seed.unwrap_or(0);
        r.param("threads", ctx.threads.to_string());
        if let Some(p) = &ctx.trace_path {
            r.param("trace", p.display().to_string());
        }
        self.fill(ctx, &mut r);
        let mut m = ctx.take_metrics();
        if let Some(pool) = ctx.pool() {
            // Cumulative over the context's lifetime; windowed views are
            // `xxi bench`'s job (PoolStats::since).
            pool.stats().record(&mut m);
        }
        r.set_runtime(&m);
        r
    }
}

/// All experiments, in id order.
pub fn registry() -> &'static [&'static dyn Experiment] {
    static REGISTRY: [&dyn Experiment; 21] = [
        &e1_scaling::E1Scaling,
        &e2_cpudb::E2CpuDb,
        &e3_reliability::E3Reliability,
        &e4_comm_energy::E4CommEnergy,
        &e5_nre::E5Nre,
        &e6_multicore::E6Multicore,
        &e7_specialization::E7Specialization,
        &e8_pyramid::E8Pyramid,
        &e9_tail::E9Tail,
        &e10_sensor::E10Sensor,
        &e11_ntv::E11Ntv,
        &e12_nvm::E12Nvm,
        &e13_noc::E13Noc,
        &e14_approx::E14Approx,
        &e15_invariant::E15Invariant,
        &e16_offload::E16Offload,
        &e17_availability::E17Availability,
        &e18_scaling::E18Scaling,
        &e19_security::E19Security,
        &e20_tm::E20Tm,
        &e21_faults::E21Faults,
    ];
    &REGISTRY
}

/// Look up an experiment by id, case-insensitively (`e9` or `E9`).
pub fn find(id: &str) -> Option<&'static dyn Experiment> {
    registry()
        .iter()
        .copied()
        .find(|e| e.id().eq_ignore_ascii_case(id))
}

/// Look up a kernel by its `layer/kernel` id, case-insensitively
/// (`mem/dram-random`).
pub fn find_kernel(id: &str) -> Option<&'static kernels::Kernel> {
    kernels::KERNELS
        .iter()
        .find(|k| k.id.eq_ignore_ascii_case(id))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_ids_are_unique_ordered_and_resolvable() {
        let ids: Vec<&str> = registry().iter().map(|e| e.id()).collect();
        assert_eq!(ids.len(), 21);
        for (i, id) in ids.iter().enumerate() {
            assert_eq!(*id, format!("e{}", i + 1));
            assert!(find(id).is_some());
            assert!(find(&id.to_uppercase()).is_some());
        }
        assert!(find("e22").is_none());
    }

    #[test]
    fn trace_capability_matches_the_instrumented_set() {
        let tracing: Vec<&str> = registry()
            .iter()
            .filter(|e| e.emits_trace())
            .map(|e| e.id())
            .collect();
        assert_eq!(tracing, ["e10", "e17", "e18", "e21"]);
        let par: Vec<&str> = registry()
            .iter()
            .filter(|e| e.parallel())
            .map(|e| e.id())
            .collect();
        assert_eq!(par, ["e9", "e17", "e21"]);
    }

    #[test]
    fn run_attaches_recorded_metrics_and_pool_stats() {
        struct Probe;
        impl Experiment for Probe {
            fn id(&self) -> &'static str {
                "e0"
            }
            fn title(&self) -> &'static str {
                "probe"
            }
            fn paper_claim(&self) -> &'static str {
                "claim"
            }
            fn fill(&self, ctx: &RunCtx, _r: &mut Report) {
                ctx.incr("probe.calls");
                ctx.count("probe.items", 7);
                ctx.observe("probe.x", 2.0);
                ctx.exec().for_tasks(64, &|_| {});
            }
        }
        let serial = Probe.run(&RunCtx::new(None, 1, None));
        let rt = serial.runtime.expect("recorded metrics attach");
        assert_eq!(rt.counter("probe.calls"), 1);
        assert_eq!(rt.counter("probe.items"), 7);
        assert_eq!(
            rt.counter("pool.tasks_executed"),
            0,
            "no pool stats at --threads 1"
        );

        let parallel = Probe.run(&RunCtx::new(None, 2, None));
        let rt = parallel.runtime.expect("recorded metrics attach");
        assert!(
            rt.counter("pool.tasks_executed") > 0,
            "pool stats folded in: {rt:?}"
        );
        assert!(rt
            .gauges
            .iter()
            .any(|(k, v)| k == "pool.threads" && *v == 2.0));
    }

    #[test]
    fn take_metrics_drains_the_sink() {
        let ctx = RunCtx::new(None, 1, None);
        ctx.incr("a");
        assert_eq!(ctx.take_metrics().counter("a"), 1);
        assert!(ctx.take_metrics().is_empty(), "second take sees a reset");
    }

    #[test]
    fn seed_or_is_identity_without_override_and_mixes_with_one() {
        let base = RunCtx::new(None, 1, None);
        assert_eq!(base.seed_or(42), 42);
        let over = RunCtx::new(Some(1), 1, None);
        assert_ne!(over.seed_or(42), 42);
        assert_ne!(
            over.seed_or(42),
            over.seed_or(43),
            "call sites decorrelated"
        );
        assert_eq!(over.seed_or(42), over.seed_or(42), "deterministic");
    }
}
