//! Benches for the simulator kernels: these are the inner loops every
//! experiment pays for, so their throughput bounds experiment scale. Run
//! with `cargo bench --bench simulators` (optionally a substring filter).

use xxi_bench::Bench;
use xxi_cloud::latency::LatencyDist;
use xxi_cloud::queueing::MG1Queue;
use xxi_core::des::Sim;
use xxi_core::obs::Trace;
use xxi_core::rng::Rng64;
use xxi_core::time::SimTime;
use xxi_mem::cache::{AccessKind, Cache, CacheConfig, Replacement};
use xxi_mem::dram::{Dram, DramConfig};
use xxi_mem::trace::TraceGen;

fn bench_des_engine(h: &mut Bench) {
    let mut g = h.group("des");
    g.throughput(100_000);
    g.bench("event_chain_100k", || {
        let mut sim = Sim::new(0u64);
        fn ev(sim: &mut Sim<u64>) {
            sim.state += 1;
            if sim.state < 100_000 {
                sim.schedule_in(SimTime::from_ps(13), ev);
            }
        }
        sim.schedule_at(SimTime::ZERO, ev);
        sim.run();
        assert_eq!(sim.state, 100_000);
        sim.state
    });
}

/// The observability acceptance check: an event chain that *calls* the
/// span API every event, with tracing disabled vs enabled. The disabled
/// row must match `des/event_chain_100k` (the single-branch fast path),
/// and the assertion guards the stronger claim that a disabled trace
/// never allocates even under 100k record calls.
fn bench_des_trace_overhead(h: &mut Bench) {
    let mut g = h.group("des_trace");
    g.throughput(100_000);
    fn ev(sim: &mut Sim<u64>) {
        let span = sim.trace_begin("ev", "des", 0);
        sim.state += 1;
        if sim.state < 100_000 {
            sim.schedule_in(SimTime::from_ps(13), ev);
        }
        sim.trace_end(span);
    }
    g.bench("spans_disabled_100k", || {
        let mut sim = Sim::new(0u64);
        sim.schedule_at(SimTime::ZERO, ev);
        sim.run();
        assert_eq!(
            sim.trace.events_capacity(),
            0,
            "disabled tracing must not allocate"
        );
        sim.state
    });
    g.bench("spans_enabled_100k", || {
        let mut sim = Sim::with_trace(0u64, Trace::enabled());
        sim.schedule_at(SimTime::ZERO, ev);
        sim.run();
        assert_eq!(sim.trace.len(), 100_000);
        sim.state
    });
}

fn bench_cache(h: &mut Bench) {
    let mut gen = TraceGen::new(1);
    let trace = gen.zipf(100_000, 0, 1 << 14, 64, 0.9, 0.2);
    let mut g = h.group("cache");
    g.throughput(100_000);
    for (name, policy) in [
        ("lru", Replacement::Lru),
        ("plru", Replacement::TreePlru),
        ("random", Replacement::Random),
    ] {
        g.bench(&format!("l1_zipf_{name}"), || {
            let mut cache = Cache::new(CacheConfig {
                replacement: policy,
                ..CacheConfig::l1()
            })
            .unwrap();
            for a in &trace {
                let kind = if a.write {
                    AccessKind::Write
                } else {
                    AccessKind::Read
                };
                cache.access(a.addr, kind);
            }
            cache.hit_rate()
        });
    }
}

fn bench_dram(h: &mut Bench) {
    let mut gen = TraceGen::new(2);
    let seq = gen.sequential(100_000, 0, 64, 0.0);
    let rand = gen.uniform(100_000, 0, 1 << 28, 64, 0.0);
    let mut g = h.group("dram");
    g.throughput(100_000);
    for (name, trace) in [("sequential", &seq), ("random", &rand)] {
        g.bench(name, || {
            let mut dram = Dram::new(DramConfig::default());
            for a in trace {
                dram.access(a.addr);
            }
            dram.row_hit_rate()
        });
    }
}

fn bench_queueing(h: &mut Bench) {
    let mut g = h.group("queueing");
    g.bench("mg1_50k_requests", || {
        MG1Queue {
            lambda_per_ms: 0.7,
            service: LatencyDist::Exp { mean_ms: 1.0 },
        }
        .run(50_000, 4)
        .completed
    });
}

fn bench_rng(h: &mut Bench) {
    let mut g = h.group("rng");
    g.throughput(1_000_000);
    let mut rng = Rng64::new(5);
    g.bench("xoshiro_1m_u64", || {
        let mut acc = 0u64;
        for _ in 0..1_000_000 {
            acc = acc.wrapping_add(rng.next_u64());
        }
        acc
    });
    let mut rng = Rng64::new(6);
    g.bench("lognormal_1m", || {
        let mut acc = 0.0;
        for _ in 0..1_000_000 {
            acc += rng.lognormal(0.0, 0.5);
        }
        acc
    });
}

fn main() {
    let mut h = Bench::from_args();
    bench_des_engine(&mut h);
    bench_des_trace_overhead(&mut h);
    bench_cache(&mut h);
    bench_dram(&mut h);
    bench_queueing(&mut h);
    bench_rng(&mut h);
    h.finish();
}
