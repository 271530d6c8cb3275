//! Property-based tests on the workspace's core invariants.
//!
//! The build environment is offline, so instead of `proptest` these are
//! driven by the workspace's own deterministic [`Rng64`]: each test runs
//! `CASES` randomized trials from fixed per-test seeds. Failures print the
//! case seed so a trial can be replayed exactly.

use xxi::core::obs::LogHistogram;
use xxi::core::rng::{Rng64, Zipf};
use xxi::core::stats::{Streaming, Summary};
use xxi::cpu::hillmarty::{speedup_amdahl, speedup_asymmetric, speedup_dynamic, speedup_symmetric};
use xxi::mem::cache::{AccessKind, Cache, CacheConfig, Replacement};
use xxi::mem::nvm::{NvmDevice, NvmTech};
use xxi::mem::wear::StartGap;
use xxi::rel::ecc::{decode, encode, flip, DecodeResult};

/// Randomized trials per property. Each trial gets its own derived seed.
const CASES: u64 = 64;

/// Run `body` for `CASES` deterministic seeds; `salt` keeps the streams of
/// different tests independent.
fn cases(salt: u64, mut body: impl FnMut(&mut Rng64)) {
    for case in 0..CASES {
        let seed = salt
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(case + 1);
        let mut rng = Rng64::new(seed);
        body(&mut rng);
    }
}

fn random_vec(rng: &mut Rng64, len_lo: u64, len_hi: u64, lo: f64, hi: f64) -> Vec<f64> {
    let n = rng.range_u64(len_lo, len_hi);
    (0..n).map(|_| rng.range_f64(lo, hi)).collect()
}

/// SECDED corrects any single flip of any data word.
#[test]
fn ecc_corrects_any_single_flip() {
    cases(1, |rng| {
        let data = rng.next_u64();
        let pos = rng.range_u64(1, 72) as u32;
        let cw = encode(data);
        let out = decode(flip(cw, pos));
        assert_eq!(out.data(), Some(data), "data={data:#x} pos={pos}");
    });
}

/// SECDED detects (and never silently mis-corrects) any double flip.
#[test]
fn ecc_detects_any_double_flip() {
    cases(2, |rng| {
        let data = rng.next_u64();
        let a = rng.range_u64(1, 72) as u32;
        let mut b = rng.range_u64(1, 72) as u32;
        if a == b {
            b = if b == 72 { 1 } else { b + 1 };
        }
        let out = decode(flip(flip(encode(data), a), b));
        assert_eq!(out, DecodeResult::DoubleError, "data={data:#x} a={a} b={b}");
    });
}

/// Start-Gap's logical→physical map stays a bijection under any write
/// workload.
#[test]
fn start_gap_stays_bijective() {
    cases(3, |rng| {
        let n = rng.range_u64(2, 60) as usize;
        let psi = rng.range_u64(1, 20);
        let writes = rng.range_u64(0, 300);
        let mut sg = StartGap::new(NvmDevice::new(NvmTech::Pcm, n + 1), psi);
        for _ in 0..writes {
            sg.write(rng.below(1000) as usize % n);
            let mut seen = std::collections::HashSet::new();
            for la in 0..n {
                assert!(seen.insert(sg.translate(la)), "collision (n={n} psi={psi})");
            }
        }
    });
}

/// Cache occupancy never exceeds capacity and hits never exceed accesses,
/// for any trace and any replacement policy.
#[test]
fn cache_conservation() {
    let policies = [
        Replacement::Lru,
        Replacement::Fifo,
        Replacement::Random,
        Replacement::TreePlru,
    ];
    cases(4, |rng| {
        let policy = *rng.choose(&policies);
        let mut c = Cache::new(CacheConfig {
            size_bytes: 4096,
            line_bytes: 64,
            ways: 4,
            replacement: policy,
            write_allocate: true,
        })
        .unwrap();
        let n = rng.range_u64(1, 500);
        for i in 0..n {
            let a = rng.below(100_000);
            let kind = if i % 3 == 0 {
                AccessKind::Write
            } else {
                AccessKind::Read
            };
            c.access(a, kind);
        }
        assert!(c.occupancy() as u64 <= 4096 / 64);
        let m = &c.metrics;
        assert_eq!(
            m.counter("hits") + m.counter("misses"),
            m.counter("accesses")
        );
        assert!(m.counter("writebacks") <= m.counter("evictions"));
    });
}

/// Hill–Marty speedups are bounded below by 1 (when r=1 exists) and above
/// by ideal, and symmetric ≤ asymmetric ≤ dynamic.
#[test]
fn hillmarty_ordering_and_bounds() {
    cases(6, |rng| {
        let f = rng.next_f64();
        let n_exp = rng.range_u64(2, 9) as u32;
        let r_exp = (rng.below(8) as u32).min(n_exp);
        let n = 2f64.powi(n_exp as i32);
        let r = 2f64.powi(r_exp as i32);
        let s = speedup_symmetric(f, n, r);
        let a = speedup_asymmetric(f, n, r);
        let d = speedup_dynamic(f, n, r);
        assert!(s <= a + 1e-9, "f={f} n={n} r={r}: sym {s} > asym {a}");
        assert!(a <= d + 1e-9, "f={f} n={n} r={r}: asym {a} > dyn {d}");
        assert!(d <= n + n.sqrt() + 1e-9);
        assert!(s > 0.0);
        // Amdahl with unit cores is the r=1 symmetric special case.
        assert!((speedup_symmetric(f, n, 1.0) - speedup_amdahl(f, n)).abs() < 1e-9);
    });
}

/// Summary percentiles are monotone in p and bounded by min/max.
#[test]
fn summary_percentiles_monotone() {
    cases(7, |rng| {
        let xs = random_vec(rng, 1, 200, -1e6, 1e6);
        let s = Summary::from_slice(&xs);
        let (p1, p2) = (rng.range_f64(0.0, 100.0), rng.range_f64(0.0, 100.0));
        let (lo, hi) = (p1.min(p2), p1.max(p2));
        assert!(s.percentile(lo) <= s.percentile(hi));
        assert!(s.percentile(0.0) >= s.min() - 1e-12);
        assert!(s.percentile(100.0) <= s.max() + 1e-12);
    });
}

/// Streaming merge is equivalent to streaming over the concatenation.
#[test]
fn streaming_merge_associative() {
    cases(8, |rng| {
        let xs = random_vec(rng, 0, 100, -1e3, 1e3);
        let ys = random_vec(rng, 0, 100, -1e3, 1e3);
        let mut a = Streaming::new();
        for &x in &xs {
            a.add(x);
        }
        let mut b = Streaming::new();
        for &y in &ys {
            b.add(y);
        }
        a.merge(&b);
        let mut all = Streaming::new();
        for &x in xs.iter().chain(&ys) {
            all.add(x);
        }
        assert_eq!(a.count(), all.count());
        if all.count() > 0 {
            assert!((a.mean() - all.mean()).abs() < 1e-6);
            assert!((a.variance() - all.variance()).abs() < 1e-4);
        }
    });
}

/// Zipf pmf sums to 1 and is non-increasing in rank.
#[test]
fn zipf_pmf_valid() {
    cases(9, |rng| {
        let n = rng.range_u64(1, 500) as usize;
        let s = rng.range_f64(0.0, 3.0);
        let z = Zipf::new(n, s);
        let total: f64 = (0..n).map(|k| z.pmf(k)).sum();
        assert!((total - 1.0).abs() < 1e-9);
        for k in 1..n {
            assert!(z.pmf(k) <= z.pmf(k - 1) + 1e-12);
        }
    });
}

/// Deterministic RNG: same seed, same stream; and below() respects its
/// bound.
#[test]
fn rng_determinism_and_bounds() {
    cases(11, |rng| {
        let seed = rng.next_u64();
        let n = rng.range_u64(1, 1_000_000);
        let mut a = Rng64::new(seed);
        let mut b = Rng64::new(seed);
        for _ in 0..50 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        for _ in 0..50 {
            assert!(a.below(n) < n);
        }
    });
}

/// The observability quantile estimator agrees with ground truth: on
/// random non-negative inputs [`LogHistogram`] tracks the exact
/// `Summary::percentile` within its documented relative bucket error.
/// Each case is scaled by a random power of two, so the occupied span
/// starts anywhere in the bucket range, and some cases carry a share of
/// exact zeros, which rank below every positive sample.
#[test]
fn log_histogram_tracks_exact_percentiles() {
    cases(12, |rng| {
        // Mix of distributions so both mid-range and tail shapes appear.
        let n = rng.range_u64(2_000, 20_000);
        let heavy = rng.chance(0.5);
        let scale = (rng.range_u64(0, 80) as f64 - 40.0).exp2();
        let zero_share = if rng.chance(0.25) {
            rng.range_f64(0.0, 0.5)
        } else {
            0.0
        };
        let xs: Vec<f64> = (0..n)
            .map(|_| {
                let x = if heavy {
                    rng.pareto(1e-3, 1.2)
                } else {
                    rng.lognormal(0.0, 1.5)
                };
                if rng.chance(zero_share) {
                    0.0
                } else {
                    scale * x
                }
            })
            .collect();
        let mut hist = LogHistogram::new();
        for &x in &xs {
            hist.add(x);
        }
        let exact = Summary::from_slice(&xs);
        for p in [10.0, 50.0, 90.0, 99.0] {
            let truth = exact.percentile(p);
            let est = hist.quantile(p / 100.0);
            let rel = (est - truth).abs() / truth.abs().max(1e-300);
            // One bucket of slack past the documented per-bucket error
            // covers rank-rounding differences at distribution knees.
            let tol = 2.0 * LogHistogram::MAX_REL_ERROR;
            assert!(
                rel <= tol,
                "p{p}: hist {est} vs exact {truth} (rel {rel:.4} > {tol})"
            );
        }
        // And the histogram never leaves the observed range.
        assert!(hist.min() >= exact.min() && hist.max() <= exact.max());
    });
}

/// Merging shard histograms is equivalent to one histogram over the
/// concatenated stream — the property that makes per-shard collection
/// sound.
#[test]
fn histogram_merge_matches_concatenation() {
    cases(13, |rng| {
        let xs = random_vec(rng, 0, 500, 1e-6, 1e6);
        let ys = random_vec(rng, 0, 500, 1e-6, 1e6);
        let mut a = LogHistogram::new();
        for &x in &xs {
            a.add(x);
        }
        let mut b = LogHistogram::new();
        for &y in &ys {
            b.add(y);
        }
        a.merge(&b);
        let mut all = LogHistogram::new();
        for &x in xs.iter().chain(&ys) {
            all.add(x);
        }
        assert_eq!(a.count(), all.count());
        if !all.is_empty() {
            for p in [1.0, 25.0, 50.0, 75.0, 99.0] {
                assert_eq!(a.quantile(p / 100.0), all.quantile(p / 100.0), "p{p}");
            }
            assert_eq!(a.min(), all.min());
            assert_eq!(a.max(), all.max());
        }
    });
}

/// STM: sequential transactions always commit and reads see the last
/// write (single-threaded linearizability).
#[test]
fn stm_sequential_semantics() {
    use xxi::stack::stm::TxArray;
    cases(14, |rng| {
        let arr = TxArray::new(16);
        let mut model = [0u64; 16];
        let n = rng.range_u64(1, 100);
        for _ in 0..n {
            let i = rng.below(16) as usize;
            let v = rng.below(1000);
            arr.run(|tx| {
                let old = tx.read(i)?;
                tx.write(i, old.wrapping_add(v));
                Ok(())
            });
            model[i] = model[i].wrapping_add(v);
        }
        for (i, &m) in model.iter().enumerate() {
            assert_eq!(arr.read_direct(i), m);
        }
        assert_eq!(arr.aborts(), 0, "no concurrency, no aborts");
    });
}

/// DIFT: taint is never forged — a program with no In instructions can
/// never trap, regardless of its shape.
#[test]
fn dift_no_input_no_taint() {
    use xxi::sec::ift::{Instr, Machine, Outcome, Policy};
    cases(15, |rng| {
        let n = rng.range_u64(1, 50);
        let mut prog: Vec<Instr> = (0..n)
            .map(|_| {
                let a = rng.below(8) as u8;
                let b = rng.below(8) as u8;
                match rng.below(5) {
                    0 => Instr::Const {
                        d: a,
                        imm: rng.below(64),
                    },
                    1 => Instr::Add { d: a, a: b, b: a },
                    2 => Instr::Load { d: a, a: b },
                    3 => Instr::Store { a, v: b },
                    _ => Instr::Out { v: a },
                }
            })
            .collect();
        prog.push(Instr::Halt);
        let mut m = Machine::new(Policy::confidentiality(), 64, vec![]);
        match m.run(&prog, 1_000) {
            Outcome::Finished(_) => {}
            Outcome::Trapped { kind, pc } => {
                panic!("clean program trapped: {kind:?} at {pc}");
            }
        }
    });
}

/// Protection: an access is allowed iff the exact permission was granted
/// on the containing region.
#[test]
fn protection_matrix_is_exact() {
    use xxi::sec::protection::{AccessKind, DomainId, Perms, ProtectionMatrix, RegionId};
    cases(16, |rng| {
        let mut pm = ProtectionMatrix::new();
        for r in 0..4u32 {
            pm.define_region(RegionId(r), (r as usize) * 100, 100)
                .unwrap();
        }
        let mut expected = std::collections::HashMap::new();
        let n = rng.below(20);
        for _ in 0..n {
            let d = rng.below(4) as u32;
            let r = rng.below(4) as u32;
            let bits = (rng.below(8) as u8) & 7;
            pm.grant(DomainId(d), RegionId(r), Perms(bits));
            expected.insert((d, r), bits);
        }
        let probe_domain = rng.below(4) as u32;
        let probe_region = rng.below(4) as u32;
        let (kind, need) = match rng.below(2) {
            0 => (AccessKind::Read, 1u8),
            _ => (AccessKind::Write, 2),
        };
        let addr = probe_region as usize * 100 + 50;
        let allowed = pm.check(DomainId(probe_domain), addr, kind).is_ok();
        let granted = expected
            .get(&(probe_domain, probe_region))
            .map(|&b| b & need != 0)
            .unwrap_or(false);
        assert_eq!(allowed, granted);
    });
}

/// Build a random vector clock by ticking random components.
fn random_vclock(rng: &mut xxi::core::rng::Rng64, threads: u64) -> xxi::check::vclock::VClock {
    let mut c = xxi::check::vclock::VClock::new();
    for _ in 0..rng.range_u64(0, 12) {
        c.tick(rng.below(threads) as usize);
    }
    c
}

/// Vector clocks: `join` is the least upper bound — it dominates both
/// inputs, is commutative, idempotent, and adds nothing beyond the
/// pointwise max.
#[test]
fn vclock_join_is_least_upper_bound() {
    cases(20, |rng| {
        let a = random_vclock(rng, 4);
        let b = random_vclock(rng, 4);
        let mut ab = a.clone();
        ab.join(&b);
        let mut ba = b.clone();
        ba.join(&a);
        assert!(a.le(&ab) && b.le(&ab), "join must dominate both inputs");
        assert_eq!(ab, ba, "join must be commutative");
        let mut twice = ab.clone();
        twice.join(&b);
        assert_eq!(twice, ab, "join must be idempotent");
        for tid in 0..4 {
            assert_eq!(ab.get(tid), a.get(tid).max(b.get(tid)), "pointwise max");
        }
    });
}

/// Vector clocks: the happens-before relation is a partial order —
/// reflexive, antisymmetric, transitive — and `concurrent` is exactly
/// its incomparability.
#[test]
fn vclock_happens_before_is_a_partial_order() {
    use std::cmp::Ordering as CmpOrdering;
    cases(21, |rng| {
        let a = random_vclock(rng, 4);
        let b = random_vclock(rng, 4);
        let c = random_vclock(rng, 4);
        assert!(a.le(&a), "reflexive");
        if a.le(&b) && b.le(&a) {
            assert_eq!(a, b, "antisymmetric");
        }
        if a.le(&b) && b.le(&c) {
            assert!(a.le(&c), "transitive");
        }
        assert_eq!(
            a.concurrent(&b),
            a.partial_cmp(&b).is_none(),
            "concurrent == incomparable"
        );
        assert_eq!(
            a.concurrent(&b),
            b.concurrent(&a),
            "concurrent is symmetric"
        );
        match a.partial_cmp(&b) {
            Some(CmpOrdering::Less) => assert!(a.lt(&b) && !b.lt(&a)),
            Some(CmpOrdering::Greater) => assert!(b.lt(&a) && !a.lt(&b)),
            Some(CmpOrdering::Equal) => assert_eq!(a, b),
            None => assert!(!a.lt(&b) && !b.lt(&a)),
        }
    });
}

/// Vector clocks: a message hand-off (`join` then `tick`) puts the sender
/// strictly before the receiver, and a third party that never
/// synchronizes stays concurrent with both.
#[test]
fn vclock_message_passing_orders_sender_before_receiver() {
    cases(22, |rng| {
        let mut sender = random_vclock(rng, 2);
        sender.tick(0);
        let mut receiver = random_vclock(rng, 2);
        receiver.join(&sender);
        receiver.tick(1);
        assert!(sender.lt(&receiver), "send must happen-before receive");
        let mut loner = xxi::check::vclock::VClock::new();
        loner.tick(3);
        assert!(loner.concurrent(&sender) && loner.concurrent(&receiver));
    });
}

/// Build a metrics registry with random counters, gauges, and histogram
/// samples over a small shared name pool (so merges actually collide).
fn random_metrics(rng: &mut Rng64) -> xxi::core::metrics::Metrics {
    const NAMES: [&str; 6] = ["alpha", "beta", "gamma", "delta", "eps", "zeta"];
    let mut m = xxi::core::metrics::Metrics::new();
    for _ in 0..rng.range_u64(1, 14) {
        let name = NAMES[rng.below(NAMES.len() as u64) as usize];
        match rng.below(3) {
            0 => m.count(name, rng.below(1_000)),
            1 => m.gauge(name, rng.range_f64(-10.0, 10.0)),
            _ => m.observe(name, rng.range_f64(0.01, 1e4)),
        }
    }
    m
}

/// Histogram equality for merge laws: bucket-derived quantiles and exact
/// extremes must match exactly (integer bucket counts, min/max via
/// fmin/fmax); the mean may differ by float-summation order only.
fn assert_metrics_hists_match(x: &xxi::core::metrics::Metrics, y: &xxi::core::metrics::Metrics) {
    let xs: Vec<_> = x.hists().collect();
    let ys: Vec<_> = y.hists().collect();
    assert_eq!(
        xs.iter().map(|(k, _)| *k).collect::<Vec<_>>(),
        ys.iter().map(|(k, _)| *k).collect::<Vec<_>>()
    );
    for ((k, hx), (_, hy)) in xs.iter().zip(&ys) {
        assert_eq!(hx.count(), hy.count(), "{k}: counts");
        assert_eq!(hx.min(), hy.min(), "{k}: min");
        assert_eq!(hx.max(), hy.max(), "{k}: max");
        for q in [0.5, 0.9, 0.99, 0.999] {
            assert_eq!(hx.quantile(q), hy.quantile(q), "{k}: q{q}");
        }
        let tol = 1e-9 * hx.mean().abs().max(1.0);
        assert!((hx.mean() - hy.mean()).abs() <= tol, "{k}: means");
    }
}

/// Metrics::merge commutes on counters and histograms: shard roll-up
/// order cannot change totals or distributions. (Gauges are exempt by
/// contract — last write wins; see the dedicated property below.)
#[test]
fn metrics_merge_counters_and_hists_commute() {
    cases(23, |rng| {
        let a = random_metrics(rng);
        let b = random_metrics(rng);
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(
            ab.counters().collect::<Vec<_>>(),
            ba.counters().collect::<Vec<_>>()
        );
        for (name, v) in ab.counters() {
            assert_eq!(v, a.counter(name) + b.counter(name), "{name}: sums");
        }
        assert_metrics_hists_match(&ab, &ba);
    });
}

/// Metrics::merge is associative across all three kinds — merging shards
/// pairwise or in one pass lands on the same registry (gauges resolve to
/// the rightmost writer either way).
#[test]
fn metrics_merge_is_associative() {
    cases(24, |rng| {
        let a = random_metrics(rng);
        let b = random_metrics(rng);
        let c = random_metrics(rng);
        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut right = a.clone();
        right.merge(&bc);
        assert_eq!(
            left.counters().collect::<Vec<_>>(),
            right.counters().collect::<Vec<_>>()
        );
        let lg: Vec<_> = left.gauges().collect();
        let rg: Vec<_> = right.gauges().collect();
        assert_eq!(lg, rg, "gauges resolve identically");
        assert_metrics_hists_match(&left, &right);
    });
}

/// Gauges are last-write-wins by contract: whichever operand of the merge
/// is `other` supplies the surviving value.
#[test]
fn metrics_merge_gauges_take_the_latest_writer() {
    cases(25, |rng| {
        let va = rng.next_f64();
        let vb = rng.next_f64();
        let mut a = xxi::core::metrics::Metrics::new();
        a.gauge("g", va);
        let mut b = xxi::core::metrics::Metrics::new();
        b.gauge("g", vb);
        let mut ab = a.clone();
        ab.merge(&b);
        assert_eq!(ab.gauge_value("g"), vb);
        let mut ba = b;
        ba.merge(&a);
        assert_eq!(ba.gauge_value("g"), va);
    });
}

/// The fault-injection seam's accounting invariant: every planned fault is
/// eventually either fired or cancelled — never both, never lost — no
/// matter how the model slices its `advance` calls.
#[test]
fn fault_injector_accounting_conserved_under_any_advance_schedule() {
    use xxi::core::des::fault::{FaultInjector, FaultMix, FaultPlan};
    use xxi::core::time::SimTime;
    cases(26, |rng| {
        let comps = rng.range_u64(1, 40) as u32;
        let rate = rng.next_f64();
        let horizon = SimTime::from_ns(rng.range_u64(1, 2_000) * 1_000_000);
        let mix = if rng.chance(0.5) {
            FaultMix::kills_only()
        } else {
            FaultMix::gray()
        };
        let plan = FaultPlan::seeded(rng.next_u64(), horizon, comps, rate, mix);
        let mut inj = FaultInjector::new(&plan, comps);
        let mut now = SimTime::ZERO;
        for _ in 0..rng.range_u64(1, 50) {
            // Random increments, including zero-width re-advances.
            now = now.saturating_add(SimTime::from_ps(rng.below(horizon.ps() / 8 + 1)));
            inj.advance(now);
            assert!(inj.fired() + inj.cancelled() <= inj.scheduled());
        }
        inj.advance(SimTime::MAX);
        assert_eq!(inj.scheduled(), plan.len() as u64);
        assert_eq!(
            inj.scheduled(),
            inj.fired() + inj.cancelled(),
            "rate={rate} comps={comps}"
        );
    });
}

/// Seeded fault plans are pure functions of their arguments: replaying
/// the same (seed, horizon, components, rate, mix) reproduces the exact
/// fault schedule, event by event.
#[test]
fn seeded_fault_plans_replay_identically() {
    use xxi::core::des::fault::{FaultMix, FaultPlan};
    use xxi::core::time::SimTime;
    cases(27, |rng| {
        let seed = rng.next_u64();
        let comps = rng.range_u64(1, 60) as u32;
        let rate = rng.next_f64();
        let horizon = SimTime::from_ns(rng.range_u64(1, 500) * 1_000_000);
        let a = FaultPlan::seeded(seed, horizon, comps, rate, FaultMix::gray());
        let b = FaultPlan::seeded(seed, horizon, comps, rate, FaultMix::gray());
        assert_eq!(a.len(), b.len());
        for (x, y) in a.events().iter().zip(b.events()) {
            assert_eq!(x.at, y.at);
            assert_eq!(x.comp, y.comp);
            assert_eq!(x.fault, y.fault);
        }
    });
}

/// Correlated plans are scope blasts: every drawn fault expands to the
/// full membership of one scope, every member struck at the same instant
/// with the same fault, and nothing else sneaks into the plan.
#[test]
fn correlated_fault_plans_blast_whole_scopes_at_one_instant() {
    use xxi::core::des::fault::{FaultMix, FaultPlan, Topology};
    use xxi::core::time::SimTime;
    cases(28, |rng| {
        let comps = rng.range_u64(2, 80) as u32;
        let scopes = rng.range_u64(1, comps as u64) as u32;
        let topo = if rng.chance(0.5) {
            Topology::striped(comps, scopes)
        } else {
            Topology::blocks(comps, comps.div_ceil(scopes))
        };
        let rate = rng.next_f64();
        let horizon = SimTime::from_ns(rng.range_u64(1, 2_000) * 1_000_000);
        let mix = if rng.chance(0.5) {
            FaultMix::kills_only()
        } else {
            FaultMix::gray()
        };
        let plan = FaultPlan::correlated(rng.next_u64(), horizon, &topo, rate, mix);
        let draws = (rate * topo.scopes() as f64).ceil() as usize * usize::from(rate > 0.0);
        let events = plan.events();
        let mut idx = 0;
        for _ in 0..draws {
            let scope = topo.scope_of(events[idx].comp);
            let members = topo.members(scope);
            let blast = &events[idx..idx + members.len()];
            for (e, m) in blast.iter().zip(&members) {
                assert_eq!(e.comp, *m, "a blast covers its whole scope in order");
                assert_eq!(e.at, blast[0].at, "scope members share the instant");
                assert_eq!(e.fault, blast[0].fault, "and the fault");
            }
            idx += members.len();
        }
        assert_eq!(idx, events.len(), "every event belongs to some blast");
    });
}
