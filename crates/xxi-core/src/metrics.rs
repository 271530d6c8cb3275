//! A lightweight named-counter/gauge registry.
//!
//! Simulators across the workspace (caches, routers, servers, sensor nodes)
//! need to expose dozens of counters — hits, misses, retries, drops,
//! checkpoints — without each defining bespoke bookkeeping structs for
//! rarely-read values. `Metrics` is a string-keyed map of integer counters,
//! float gauges, and [`LogHistogram`]s with ordered, stable iteration for
//! reporting. `Display` renders an aligned dump of all three.

use std::collections::BTreeMap;
use std::fmt;

use crate::obs::LogHistogram;
use crate::report::HistSummary;
use crate::table::fill;

/// Named counters (u64, monotonic), gauges (f64, last-write-wins), and
/// sample distributions ([`LogHistogram`], fed via [`Metrics::observe`]).
#[derive(Clone, Debug, Default)]
pub struct Metrics {
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, f64>,
    hists: BTreeMap<&'static str, LogHistogram>,
}

impl Metrics {
    /// Empty registry.
    pub fn new() -> Metrics {
        Metrics::default()
    }

    /// True when nothing has been recorded (no counters, gauges, or
    /// histograms exist — a counter created at zero still counts).
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.hists.is_empty()
    }

    /// Add `n` to counter `name` (creating it at zero).
    #[inline]
    pub fn count(&mut self, name: &'static str, n: u64) {
        *self.counters.entry(name).or_insert(0) += n;
    }

    /// Increment counter `name` by one.
    #[inline]
    pub fn incr(&mut self, name: &'static str) {
        self.count(name, 1);
    }

    /// Read counter `name` (zero if absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Set gauge `name`.
    #[inline]
    pub fn gauge(&mut self, name: &'static str, value: f64) {
        self.gauges.insert(name, value);
    }

    /// Read gauge `name` (NaN if absent, so misuse is visible).
    pub fn gauge_value(&self, name: &str) -> f64 {
        self.gauges.get(name).copied().unwrap_or(f64::NAN)
    }

    /// Record sample `x` into the histogram `name` (creating it empty).
    /// Quantiles are then available via [`Metrics::hist`].
    #[inline]
    pub fn observe(&mut self, name: &'static str, x: f64) {
        self.hists.entry(name).or_default().add(x);
    }

    /// Read histogram `name`, if any samples were observed under it.
    pub fn hist(&self, name: &str) -> Option<&LogHistogram> {
        self.hists.get(name)
    }

    /// Ratio of two counters; 0 when the denominator is zero.
    pub fn ratio(&self, num: &str, den: &str) -> f64 {
        let d = self.counter(den);
        if d == 0 {
            0.0
        } else {
            self.counter(num) as f64 / d as f64
        }
    }

    /// Iterate counters in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.counters.iter().map(|(k, v)| (*k, *v))
    }

    /// Iterate gauges in name order.
    pub fn gauges(&self) -> impl Iterator<Item = (&'static str, f64)> + '_ {
        self.gauges.iter().map(|(k, v)| (*k, *v))
    }

    /// Iterate histograms in name order.
    pub fn hists(&self) -> impl Iterator<Item = (&'static str, &LogHistogram)> + '_ {
        self.hists.iter().map(|(k, v)| (*k, v))
    }

    /// Merge another registry: counters add, histograms merge, gauges take
    /// the other's value.
    pub fn merge(&mut self, other: &Metrics) {
        for (k, v) in &other.counters {
            *self.counters.entry(k).or_insert(0) += v;
        }
        // Gauges are last-write-wins by definition: when rolling shards up,
        // `other` is the later observation, so its value replaces ours.
        // Callers needing an aggregate (mean, max) should use a counter or
        // `observe` a histogram instead.
        for (k, v) in &other.gauges {
            self.gauges.insert(k, *v);
        }
        for (k, h) in &other.hists {
            self.hists.entry(k).or_default().merge(h);
        }
    }
}

/// Aligned dump: counters, then gauges, then histogram summary lines, each
/// name-ordered, name column padded to the longest name.
impl fmt::Display for Metrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let width = self
            .counters
            .keys()
            .chain(self.gauges.keys())
            .chain(self.hists.keys())
            .map(|k| k.len())
            .max()
            .unwrap_or(0);
        for (k, v) in &self.counters {
            writeln!(f, "{k}{}  {v}", fill(width, k))?;
        }
        for (k, v) in &self.gauges {
            writeln!(f, "{k}{}  {v}", fill(width, k))?;
        }
        for (k, h) in &self.hists {
            let line = HistSummary::of(h).summary_line();
            writeln!(f, "{k}{}  {line}", fill(width, k))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn is_empty_tracks_any_kind() {
        let mut m = Metrics::new();
        assert!(m.is_empty());
        m.count("zero", 0);
        assert!(!m.is_empty(), "a created counter is recorded state");
        let mut m = Metrics::new();
        m.observe("h", 1.0);
        assert!(!m.is_empty());
    }

    #[test]
    fn counters_accumulate() {
        let mut m = Metrics::new();
        m.incr("hits");
        m.count("hits", 4);
        assert_eq!(m.counter("hits"), 5);
        assert_eq!(m.counter("absent"), 0);
    }

    #[test]
    fn gauges_overwrite() {
        let mut m = Metrics::new();
        m.gauge("temp", 1.0);
        m.gauge("temp", 2.0);
        assert_eq!(m.gauge_value("temp"), 2.0);
        assert!(m.gauge_value("absent").is_nan());
    }

    #[test]
    fn ratio_handles_zero_denominator() {
        let mut m = Metrics::new();
        m.count("hits", 3);
        assert_eq!(m.ratio("hits", "accesses"), 0.0);
        m.count("accesses", 4);
        assert!((m.ratio("hits", "accesses") - 0.75).abs() < 1e-12);
    }

    #[test]
    fn iteration_is_name_ordered() {
        let mut m = Metrics::new();
        m.incr("zeta");
        m.incr("alpha");
        let names: Vec<&str> = m.counters().map(|(k, _)| k).collect();
        assert_eq!(names, vec!["alpha", "zeta"]);
    }

    #[test]
    fn merge_adds_counters_and_takes_gauges() {
        let mut a = Metrics::new();
        a.count("x", 1);
        a.gauge("g", 1.0);
        let mut b = Metrics::new();
        b.count("x", 2);
        b.count("y", 3);
        b.gauge("g", 9.0);
        a.merge(&b);
        assert_eq!(a.counter("x"), 3);
        assert_eq!(a.counter("y"), 3);
        assert_eq!(a.gauge_value("g"), 9.0);
    }

    #[test]
    fn observe_feeds_histograms() {
        let mut m = Metrics::new();
        for i in 1..=100 {
            m.observe("latency_ms", i as f64);
        }
        let h = m.hist("latency_ms").unwrap();
        assert_eq!(h.count(), 100);
        assert!(h.p50() > 40.0 && h.p50() < 60.0);
        assert!(m.hist("absent").is_none());
    }

    #[test]
    fn merge_merges_histograms() {
        let mut a = Metrics::new();
        let mut b = Metrics::new();
        a.observe("x", 1.0);
        b.observe("x", 2.0);
        b.observe("y", 3.0);
        a.merge(&b);
        assert_eq!(a.hist("x").unwrap().count(), 2);
        assert_eq!(a.hist("y").unwrap().count(), 1);
    }

    #[test]
    fn display_pads_names_longer_than_a_format_width() {
        let long: &'static str = "k".repeat(70_000).leak();
        let mut m = Metrics::new();
        m.count(long, 1);
        m.count("é", 2);
        m.gauge("g", 0.5);
        let s = m.to_string();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines[0], format!("{long}  1"));
        assert_eq!(lines[1], format!("é{}  2", " ".repeat(69_999)));
        assert_eq!(lines[2], format!("g{}  0.5", " ".repeat(69_999)));
    }

    #[test]
    fn display_is_aligned_and_complete() {
        let mut m = Metrics::new();
        m.count("hits", 7);
        m.gauge("utilization", 0.5);
        m.observe("latency", 3.0);
        let s = m.to_string();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 3);
        // All value columns start at the same offset.
        assert!(lines[0].starts_with("hits         "), "{s}");
        assert!(lines[1].starts_with("utilization  "), "{s}");
        assert!(lines[2].starts_with("latency      "), "{s}");
        assert!(s.contains("n=1"), "{s}");
    }
}
