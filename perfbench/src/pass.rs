//! One pass over a workload's call list. Each layer call runs under
//! `catch_unwind`, is timed as a span when the pass is traced, has its
//! outputs folded into a digest, and has its conservation laws checked.

use std::panic::{catch_unwind, AssertUnwindSafe};

use xxi_core::metrics::Metrics;
use xxi_core::obs::{EnergyLedger, LogHistogram};

use crate::probe;

/// The experiments' seeding rule (`RunCtx::seed_or` in xxi-bench). With
/// no workload seed every call site keeps its canonical seed; with seed
/// `s` each call site gets a decorrelated substream, the same one
/// `xxi run eN --seed s` gives it.
#[derive(Clone, Copy, Debug)]
pub struct Seeds(pub Option<u64>);

impl Seeds {
    /// The seed for a call site whose canonical seed is `canonical`.
    pub fn or(self, canonical: u64) -> u64 {
        match self.0 {
            None => canonical,
            Some(s) => {
                let mut z = s
                    .wrapping_add(canonical.wrapping_mul(0x9E37_79B9_7F4A_7C15))
                    .wrapping_add(0x9E37_79B9_7F4A_7C15);
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^ (z >> 31)
            }
        }
    }
}

/// FNV-1a over the little-endian bytes of 64-bit words.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Digest(pub u64);

impl Digest {
    pub const EMPTY: Digest = Digest(0xCBF2_9CE4_8422_2325);

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
}

/// One host-time span. `start`/`end` are seconds on [`probe::now`]'s
/// clock; `parent` indexes the same span list.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start: f64,
    pub end: f64,
    pub parent: Option<usize>,
    pub pass: u32,
    pub allocs: u64,
    pub alloc_bytes: u64,
}

/// The name of every pass's root span; layer calls are its children.
pub const ROOT: &str = "pass";

/// One layer call's result: its span family, output digest, and the
/// first check it failed, if any.
pub struct Call {
    pub name: &'static str,
    pub digest: Digest,
    pub failure: Option<String>,
}

/// What a call's check closure works with.
pub struct Check<'a> {
    digest: Digest,
    failure: Option<String>,
    counts: &'a mut Metrics,
    dump: Option<(&'static str, usize)>,
}

impl Check<'_> {
    /// Fold a returned number into the call's digest, bit for bit.
    pub fn num(&mut self, label: &str, x: f64) {
        self.digest.word(x.to_bits());
        if let Some((name, i)) = self.dump {
            eprintln!("dump {name}#{i} {label} = {x}");
        }
    }

    /// Fold a returned counter into the call's digest.
    pub fn int(&mut self, label: &str, n: u64) {
        self.digest.word(n);
        if let Some((name, i)) = self.dump {
            eprintln!("dump {name}#{i} {label} = {n}");
        }
    }

    /// Require a conservation law; `law` describes it when it fails.
    pub fn law(&mut self, holds: bool, law: impl FnOnce() -> String) {
        if !holds && self.failure.is_none() {
            self.failure = Some(law());
        }
    }

    /// Add to a per-layer work count (never part of the digest).
    pub fn count(&mut self, name: &'static str, n: u64) {
        self.counts.count(name, n);
    }

    /// Fold a histogram's row as the experiments print it.
    pub fn hist(&mut self, h: &LogHistogram) {
        self.int("n", h.count());
        for (label, x) in [
            ("mean", h.mean()),
            ("p50", h.p50()),
            ("p90", h.p90()),
            ("p99", h.p99()),
            ("p99.9", h.p999()),
            ("max", h.max()),
        ] {
            self.num(label, x);
        }
    }

    /// Fold every ledger component's joules and event count.
    pub fn ledger(&mut self, ledger: &EnergyLedger) {
        for (name, _, e, events) in ledger.components() {
            self.num(name, e.value());
            self.int(name, events);
        }
    }

    /// Fold the fault accounting and check it. A model that fires the
    /// plan's remainder when its run ends (`drained`) must settle every
    /// planned fault: `scheduled == fired + cancelled`. One that stops at
    /// its last event may leave later faults pending, so there only
    /// `fired + cancelled <= scheduled` holds.
    pub fn faults(&mut self, m: &Metrics, drained: bool) {
        let (sched, fired, cancelled) = (
            m.counter("fault.scheduled"),
            m.counter("fault.fired"),
            m.counter("fault.cancelled"),
        );
        self.int("fault.scheduled", sched);
        self.int("fault.fired", fired);
        self.int("fault.cancelled", cancelled);
        let settled = fired + cancelled;
        self.law(settled == sched || (!drained && settled < sched), || {
            format!("fault.scheduled {sched} vs fired {fired} + cancelled {cancelled}")
        });
    }
}

/// A pass in progress.
pub struct Pass<'s> {
    id: u32,
    spans: Option<&'s mut Vec<Span>>,
    root: usize,
    digest: Digest,
    calls: Vec<Call>,
    /// Per-layer work counts (`sensor.epochs`, `des.cancelled`, ...).
    counts: Metrics,
    /// Seconds per policy-grid cell, timed inside the cell (traced only).
    pub cell_times: Vec<f64>,
    dump: bool,
}

impl<'s> Pass<'s> {
    /// Start pass `id`; `spans` is where a traced pass records.
    pub fn new(id: u32, spans: Option<&'s mut Vec<Span>>, dump: bool) -> Pass<'s> {
        let mut p = Pass {
            id,
            spans,
            root: 0,
            digest: Digest::EMPTY,
            calls: Vec::with_capacity(32),
            counts: Metrics::new(),
            cell_times: Vec::new(),
            dump,
        };
        p.root = p.open(ROOT, None);
        p
    }

    /// True when this pass records spans.
    pub fn traced(&self) -> bool {
        self.spans.is_some()
    }

    fn open(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let pass = self.id;
        let Some(spans) = self.spans.as_deref_mut() else {
            return 0;
        };
        // The span list is preallocated, so this push never allocates.
        let (allocs, alloc_bytes) = probe::alloc_counts();
        spans.push(Span {
            name,
            start: probe::now(),
            end: 0.0,
            parent,
            pass,
            allocs,
            alloc_bytes,
        });
        spans.len() - 1
    }

    fn close(&mut self, idx: usize) {
        let Some(spans) = self.spans.as_deref_mut() else {
            return;
        };
        let end = probe::now();
        let (allocs, bytes) = probe::alloc_counts();
        let s = &mut spans[idx];
        s.end = end;
        s.allocs = allocs - s.allocs;
        s.alloc_bytes = bytes - s.alloc_bytes;
    }

    /// Run one layer call: `run` inside a span named `name`, then `check`
    /// on its output. Returns the output unless the call panicked.
    pub fn call<T>(
        &mut self,
        name: &'static str,
        run: impl FnOnce() -> T,
        check: impl FnOnce(&T, &mut Check<'_>),
    ) -> Option<T> {
        let span = self.open(name, Some(self.root));
        let out = catch_unwind(AssertUnwindSafe(run));
        self.close(span);
        let mut c = Check {
            digest: Digest::EMPTY,
            failure: None,
            counts: &mut self.counts,
            dump: self.dump.then_some((name, self.calls.len())),
        };
        let out = match out {
            Ok(v) => {
                check(&v, &mut c);
                Some(v)
            }
            Err(_) => {
                c.failure = Some("panicked".to_string());
                None
            }
        };
        self.digest.word(c.digest.0);
        self.calls.push(Call {
            name,
            digest: c.digest,
            failure: c.failure,
        });
        out
    }

    /// Close the root span and hand back the pass's results.
    pub fn finish(mut self) -> (Digest, Vec<Call>, Metrics, Vec<f64>) {
        self.close(self.root);
        (self.digest, self.calls, self.counts, self.cell_times)
    }
}
