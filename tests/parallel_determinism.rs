//! Parallel Monte Carlo must be *byte-identical* to serial.
//!
//! The experiment loops in `xxi-cloud` run on the `xxi_core::par`
//! executor seam with fixed-grain chunking and per-chunk RNG substreams;
//! `xxi-stack`'s pool is the multi-threaded implementation. These tests
//! pin the whole contract: every number an experiment prints is the same
//! for `Serial` and for pools of any size — the thread count changes the
//! wall clock and nothing else.

use xxi::cloud::cluster::{cluster_sweep_on, ClusterConfig, Hedging, Routing};
use xxi::cloud::fanout::fanout_sweep_on;
use xxi::cloud::hedge::hedge_experiment_on;
use xxi::cloud::latency::LatencyDist;
use xxi::cloud::queueing::{mg1_sweep_on, MG1Queue};
use xxi::core::des::fault::FaultMix;
use xxi::core::par::Serial;
use xxi::stack::Pool;

#[test]
fn fanout_pool_matches_serial_bit_for_bit() {
    let dist = LatencyDist::typical_leaf();
    let serial = fanout_sweep_on(dist, &[50], 30_000, 42, &Serial).remove(0);
    for threads in [1, 4] {
        let pool = Pool::new(threads);
        let par = fanout_sweep_on(dist, &[50], 30_000, 42, &pool).remove(0);
        assert_eq!(par.p50.to_bits(), serial.p50.to_bits());
        assert_eq!(par.p99.to_bits(), serial.p99.to_bits());
        assert_eq!(par.mean.to_bits(), serial.mean.to_bits());
        assert_eq!(par.frac_hit_by_leaf_p99, serial.frac_hit_by_leaf_p99);
    }
}

#[test]
fn fanout_sweep_pool_matches_serial_bit_for_bit() {
    let dist = LatencyDist::typical_leaf();
    let fanouts = [1u32, 10, 100];
    let serial = fanout_sweep_on(dist, &fanouts, 10_000, 7, &Serial);
    let pool = Pool::new(4);
    let par = fanout_sweep_on(dist, &fanouts, 10_000, 7, &pool);
    assert_eq!(serial.len(), par.len());
    for (s, p) in serial.iter().zip(&par) {
        assert_eq!(s.fanout, p.fanout);
        assert_eq!(s.p50.to_bits(), p.p50.to_bits());
        assert_eq!(s.p99.to_bits(), p.p99.to_bits());
    }
}

#[test]
fn hedge_pool_matches_serial_bit_for_bit() {
    let dist = LatencyDist::typical_leaf();
    let hs = hedge_experiment_on(dist, 0.95, 50_000, 10, &Serial);
    let pool = Pool::new(4);
    let hp = hedge_experiment_on(dist, 0.95, 50_000, 10, &pool);
    assert_eq!(hs.deadline_ms.to_bits(), hp.deadline_ms.to_bits());
    assert_eq!(hs.p50.to_bits(), hp.p50.to_bits());
    assert_eq!(hs.p99.to_bits(), hp.p99.to_bits());
    assert_eq!(hs.p999.to_bits(), hp.p999.to_bits());
    assert_eq!(hs.extra_load, hp.extra_load);
}

#[test]
fn mg1_sweep_pool_matches_serial_bit_for_bit() {
    let queues: Vec<MG1Queue> = [0.3, 0.6, 0.85]
        .iter()
        .map(|&rho| MG1Queue {
            lambda_per_ms: rho,
            service: LatencyDist::Exp { mean_ms: 1.0 },
        })
        .collect();
    let serial = mg1_sweep_on(&queues, 30_000, 8, &Serial);
    let pool = Pool::new(4);
    let par = mg1_sweep_on(&queues, 30_000, 8, &pool);
    for (s, p) in serial.iter().zip(&par) {
        assert_eq!(s.rho.to_bits(), p.rho.to_bits());
        assert_eq!(s.mean_ms.to_bits(), p.mean_ms.to_bits());
        assert_eq!(s.p99.to_bits(), p.p99.to_bits());
        assert_eq!(s.completed, p.completed);
    }
}

#[test]
fn cluster_sweep_pool_matches_serial_bit_for_bit() {
    // The fault-injected serving sweep: each rate's DES run (including
    // its seeded fault plan) is a pure function of the sweep seed, so
    // pool scheduling can reorder the points but not change a bit.
    let base = ClusterConfig {
        requests: 500,
        ..ClusterConfig::default()
    };
    let rates = [0.0, 0.02, 0.1];
    let serial = cluster_sweep_on(&base, &rates, FaultMix::gray(), &Serial);
    for threads in [2, 8] {
        let pool = Pool::new(threads);
        let par = cluster_sweep_on(&base, &rates, FaultMix::gray(), &pool);
        for (s, p) in serial.iter().zip(&par) {
            assert_eq!(s.p50.to_bits(), p.p50.to_bits());
            assert_eq!(s.p999.to_bits(), p.p999.to_bits());
            assert_eq!(s.goodput_rps.to_bits(), p.goodput_rps.to_bits());
            assert_eq!((s.full, s.partial, s.failed), (p.full, p.partial, p.failed));
            assert_eq!(
                s.metrics.counter("cluster.attempts"),
                p.metrics.counter("cluster.attempts")
            );
            assert_eq!(
                s.metrics.counter("fault.fired"),
                p.metrics.counter("fault.fired")
            );
        }
    }
}

#[test]
fn timer_cancellation_is_thread_count_invariant() {
    // First-class cancellation lives entirely inside each DES run: the
    // number of timers reaped (`des.cancelled`), the events that still
    // fired, and the stale-fire tripwire are pure functions of the sweep
    // seed, whatever pool runs the sweep. Power-of-two routing rides
    // along: its probes come from a dedicated substream, not anything
    // executor-ordered.
    let base = ClusterConfig {
        requests: 500,
        routing: Routing::PowerOfTwo,
        hedging: Hedging::adaptive_capped(0.80),
        ..ClusterConfig::default()
    };
    let rates = [0.0, 0.02, 0.1];
    let serial = cluster_sweep_on(&base, &rates, FaultMix::gray(), &Serial);
    for s in &serial {
        assert_eq!(s.metrics.counter("cluster.stale_fires"), 0);
    }
    for threads in [2, 8] {
        let pool = Pool::new(threads);
        let par = cluster_sweep_on(&base, &rates, FaultMix::gray(), &pool);
        for (s, p) in serial.iter().zip(&par) {
            assert_eq!(s.p999.to_bits(), p.p999.to_bits());
            assert_eq!(
                s.metrics.counter("des.events_fired"),
                p.metrics.counter("des.events_fired")
            );
            assert_eq!(
                s.metrics.counter("des.cancelled"),
                p.metrics.counter("des.cancelled")
            );
            assert!(p.metrics.counter("des.cancelled") > 0);
            assert_eq!(p.metrics.counter("cluster.stale_fires"), 0);
            assert_eq!(
                s.metrics.counter("des.arena_high_water"),
                p.metrics.counter("des.arena_high_water")
            );
        }
    }
}

#[test]
fn trial_prefix_property_of_fixed_grain_chunks() {
    // Fixed-grain substreams mean a longer run's first chunks equal a
    // shorter run's chunks: growing an experiment never rewrites history.
    use xxi::core::par::{mc_chunks, MC_GRAIN};
    let long = mc_chunks(&Serial, 3 * MC_GRAIN, 5, |r, rng| {
        r.map(|_| rng.next_u64()).collect::<Vec<u64>>()
    });
    let short = mc_chunks(&Serial, 2 * MC_GRAIN, 5, |r, rng| {
        r.map(|_| rng.next_u64()).collect::<Vec<u64>>()
    });
    assert_eq!(long[..2], short[..]);
}

#[test]
fn policy_grid_cluster_sweep_pool_matches_serial_bit_for_bit() {
    // The new policy seams must not leak executor state into the DES:
    // least-outstanding routing reads per-replica in-flight counters and
    // adaptive hedging reads a per-shard latency digest, both inside the
    // single-threaded simulation — the sweep fan-out around them cannot
    // change a bit.
    let base = ClusterConfig {
        requests: 500,
        routing: Routing::LeastOutstanding,
        hedging: Hedging::adaptive(0.95),
        ..ClusterConfig::default()
    };
    let rates = [0.0, 0.02, 0.1];
    let serial = cluster_sweep_on(&base, &rates, FaultMix::gray(), &Serial);
    for threads in [2, 8] {
        let pool = Pool::new(threads);
        let par = cluster_sweep_on(&base, &rates, FaultMix::gray(), &pool);
        for (s, p) in serial.iter().zip(&par) {
            assert_eq!(s.p50.to_bits(), p.p50.to_bits());
            assert_eq!(s.p99.to_bits(), p.p99.to_bits());
            assert_eq!(s.p999.to_bits(), p.p999.to_bits());
            assert_eq!(s.goodput_rps.to_bits(), p.goodput_rps.to_bits());
            assert_eq!((s.full, s.partial, s.failed), (p.full, p.partial, p.failed));
            assert_eq!(
                s.metrics.counter("cluster.hedges"),
                p.metrics.counter("cluster.hedges")
            );
            assert_eq!(
                s.metrics.counter("cluster.retries"),
                p.metrics.counter("cluster.retries")
            );
        }
    }
}
