//! The kernel registry: per-layer throughput kernels that `xxi bench`
//! times next to the 21 experiments, one [`Kernel`] row per kernel.
//!
//! Each kernel is a `layer/kernel` id, its work units per call, and a
//! fixed-seed function that runs the workload and returns a checksum
//! (recorded as the report's one finding, so the work cannot be optimized
//! away). Inputs such as traces, ECC words, FPC lines and sample vectors
//! are built once in a `OnceLock`, which `xxi bench`'s warm-up run fills,
//! so the timed iterations cover the kernel alone. `xxi run`/`xxi list`
//! and the golden suite never see this registry.
//!
//! Kernels that use threads read the bench's `--threads`:
//! `xxi bench stack/pool-sum --threads N` is one row of a strong-scaling
//! table, and `stack/stm-bank` gives the STM's commit rate at N threads.

use std::sync::{Mutex, OnceLock};

use xxi_cloud::cluster::{ClusterConfig, Hedging, Routing};
use xxi_cloud::latency::LatencyDist;
use xxi_cloud::queueing::MG1Queue;
use xxi_core::obs::{LogHistogram, Trace};
use xxi_core::par;
use xxi_core::rng::{Rng64, Zipf};
use xxi_core::stats::{percentiles, Summary};
use xxi_core::units::{Power, Seconds};
use xxi_core::Report;
use xxi_cpu::hillmarty::{best_symmetric_r, speedup_symmetric};
use xxi_mem::cache::{AccessKind, Cache, CacheConfig, Replacement};
use xxi_mem::compress::{compressed_bits, Line};
use xxi_mem::dram::{Dram, DramConfig};
use xxi_mem::hybrid::{HybridConfig, HybridMemory};
use xxi_mem::nvm::{NvmDevice, NvmTech};
use xxi_mem::trace::{Access, TraceGen};
use xxi_mem::wear::StartGap;
use xxi_noc::sim::{NocConfig, NocSim};
use xxi_noc::traffic::Pattern;
use xxi_rel::ecc::{decode, encode, flip, Codeword};
use xxi_sec::ift::{Instr, Machine, Outcome, Policy};
use xxi_sensor::mcu::Mcu;
use xxi_sensor::node::{NodePolicy, SensorNode, SensorNodeConfig};
use xxi_sensor::power::{Battery, HarvestProfile, Harvester};
use xxi_sensor::radio::{Radio, RadioTech};
use xxi_stack::stm::TxArray;

use super::des_kernels as des;
use super::e20_tm;
use super::e21_faults;
use super::{Experiment, RunCtx};

/// One throughput kernel.
pub struct Kernel {
    /// `layer/kernel` id (`mem/dram-random`), the name `xxi bench` takes.
    pub id: &'static str,
    /// One-line description, carried into the bench JSON.
    pub title: &'static str,
    /// Name of the work unit the throughput is counted in.
    pub unit: &'static str,
    /// Work units one call completes.
    pub units: u64,
    /// The workload: fixed seeds, returns a checksum.
    pub run: fn(&RunCtx) -> f64,
}

impl Experiment for Kernel {
    fn id(&self) -> &'static str {
        self.id
    }

    fn title(&self) -> &'static str {
        self.title
    }

    fn paper_claim(&self) -> &'static str {
        self.title
    }

    fn work_units(&self) -> Option<(&'static str, f64)> {
        Some((self.unit, self.units as f64))
    }

    fn fill(&self, ctx: &RunCtx, r: &mut Report) {
        r.finding("checksum", (self.run)(ctx), "");
    }
}

const fn k(
    id: &'static str,
    title: &'static str,
    unit: &'static str,
    units: u64,
    run: fn(&RunCtx) -> f64,
) -> Kernel {
    Kernel {
        id,
        title,
        unit,
        units,
        run,
    }
}

/// Every kernel, grouped by layer in stack order.
#[rustfmt::skip]
pub static KERNELS: [Kernel; 41] = [
    k("core/rng-u64", "xoshiro256++: 1M next_u64", "draws", 1_000_000, rng_u64),
    k("core/rng-lognormal", "1M lognormal draws", "draws", 1_000_000, rng_lognormal),
    k("core/zipf", "1M Zipf(0.99) samples over 100k ranks", "samples", 1_000_000, zipf),
    k("core/log-histogram", "p99 of 200k samples via LogHistogram", "samples", 200_000, log_histogram),
    k("core/sort-p99", "p99 of 200k samples via retain-and-sort", "samples", 200_000, sort_p99),
    k("core/select-p99", "p99 of 200k samples via order-key selection", "samples", 200_000, select_p99),
    k("des/chain", "DES: one self-rescheduling event, 100k times", "events", 100_000, des::chain),
    k("des/spans-off", "DES chain calling the span API, tracing off", "events", 100_000, des::spans_off),
    k("des/spans-on", "DES chain calling the span API, tracing on", "events", 100_000, des::spans_on),
    k("des/hold", "DES: steady-state timer hold (self-rescheduling population)", "events", des::HOLD_EVENTS, des::hold),
    k("des/churn", "DES: burst churn across wheel levels 0-5", "events", des::CHURN_EVENTS, des::churn),
    k("des/cancel", "DES: cancel-heavy cluster shape (hedge/timeout/deadline reaped)", "events", des::CANCEL_EVENTS, des::cancel),
    k("des/drain", "DES: drain a pre-scheduled backlog with same-tick bursts", "events", des::DRAIN_EVENTS, des::drain),
    k("mem/l1-lru", "L1 (LRU) over a 100k-access Zipf trace", "accesses", 100_000, l1_lru),
    k("mem/l1-plru", "L1 (tree-PLRU) over a 100k-access Zipf trace", "accesses", 100_000, l1_plru),
    k("mem/l1-random", "L1 (random) over a 100k-access Zipf trace", "accesses", 100_000, l1_random),
    k("mem/l2-lru", "L2 (LRU) over a 200k-read Zipf trace", "accesses", 200_000, l2_lru),
    k("mem/l2-fifo", "L2 (FIFO) over a 200k-read Zipf trace", "accesses", 200_000, l2_fifo),
    k("mem/l2-plru", "L2 (tree-PLRU) over a 200k-read Zipf trace", "accesses", 200_000, l2_plru),
    k("mem/dram-seq", "DRAM: 100k sequential accesses", "accesses", 100_000, dram_seq),
    k("mem/dram-random", "DRAM: 100k uniform-random accesses", "accesses", 100_000, dram_random),
    k("mem/start-gap", "PCM behind Start-Gap: 100k writes", "writes", 100_000, start_gap),
    k("mem/nvm-raw", "raw PCM: 100k writes", "writes", 100_000, nvm_raw),
    k("mem/hybrid", "hybrid DRAM+PCM: E12's 300k-access Zipf trace, 1k DRAM pages", "accesses", HYBRID_ACCESSES as u64, hybrid),
    k("mem/fpc", "FPC-compress 10k cache lines", "lines", 10_000, fpc),
    k("noc/mesh", "NoC: 8x8 uniform mesh at 0.2 flits/node/cycle", "router-cycles", NOC_ROUTER_CYCLES, noc_mesh),
    k("noc/mesh-light", "NoC: 8x8 uniform mesh at 0.02 flits/node/cycle", "router-cycles", NOC_ROUTER_CYCLES, noc_mesh_light),
    k("rel/ecc-encode", "SECDED-encode 10k words", "words", 10_000, ecc_encode),
    k("rel/ecc-decode", "SECDED-decode 10k corrupted words", "words", 10_000, ecc_decode),
    k("cpu/hillmarty-best-r", "Hill-Marty best symmetric core size at n=4096", "scans", 1, hillmarty_best_r),
    k("cpu/hillmarty-grid", "Hill-Marty symmetric speedup over a 100x100 grid", "evaluations", 10_000, hillmarty_grid),
    k("cloud/mg1", "M/G/1 queue as a Lindley loop: 50k requests", "requests", 50_000, mg1),
    k("cloud/fanout", "Cloud: fan-out 100 max over the typical leaf", "leaf-draws", FANOUT_LEAF_DRAWS, fanout),
    k("cloud/quantile", "Cloud: E9's leaf-p99 calibration, p99 of 200k typical-leaf draws", "draws", QUANTILE_DRAWS as u64, quantile),
    k("cloud/cluster", "Cloud: E21 grid cell (least-outstanding, adaptive p80) under the two-rack blast", "requests", CLUSTER_REQUESTS as u64, cluster),
    k("sensor/epochs", "sensor node: FilterThenSend epochs with a solar harvester (run_observed)", "samples", SENSOR_SAMPLES, sensor_epochs),
    k("sec/dift", "DIFT machine: a tracked 150k-instruction loop", "instructions", 150_001, dift),
    k("stack/pool-sum", "thread pool: par::map over 60 chunks of 1k sqrt chains at --threads", "items", POOL_ITEMS as u64, pool_sum),
    k("stack/stm-counter", "STM: 50k single-thread counter transactions", "transactions", 50_000, stm_counter),
    k("stack/mutex-counter", "Mutex<u64>: 50k single-thread increments", "increments", 50_000, mutex_counter),
    k("stack/stm-bank", "STM bank: 80k random transfers over 64 accounts at --threads", "transfers", BANK_TRANSFERS as u64, stm_bank),
];

// --- core -----------------------------------------------------------------

fn rng_u64(_: &RunCtx) -> f64 {
    let mut rng = Rng64::new(5);
    (0..1_000_000).fold(0u64, |acc, _| acc.wrapping_add(rng.next_u64())) as f64
}

fn rng_lognormal(_: &RunCtx) -> f64 {
    let mut rng = Rng64::new(6);
    (0..1_000_000).map(|_| rng.lognormal(0.0, 0.5)).sum()
}

fn zipf(_: &RunCtx) -> f64 {
    static Z: OnceLock<Zipf> = OnceLock::new();
    let z = Z.get_or_init(|| Zipf::new(100_000, 0.99));
    let mut rng = Rng64::new(8);
    (0..1_000_000).fold(0usize, |acc, _| acc.wrapping_add(z.sample(&mut rng))) as f64
}

/// 200k lognormal samples, the quantile kernels' input.
fn samples() -> &'static [f64] {
    static XS: OnceLock<Vec<f64>> = OnceLock::new();
    XS.get_or_init(|| {
        let mut rng = Rng64::new(1);
        (0..200_000).map(|_| rng.lognormal(0.0, 0.5)).collect()
    })
}

fn log_histogram(_: &RunCtx) -> f64 {
    let mut hist = LogHistogram::new();
    for &x in samples() {
        hist.add(x);
    }
    hist.p99()
}

fn sort_p99(_: &RunCtx) -> f64 {
    Summary::from_slice(samples()).percentile(99.0)
}

fn select_p99(_: &RunCtx) -> f64 {
    percentiles(samples(), [99.0])[0]
}

// --- mem ------------------------------------------------------------------

fn cache_run(config: CacheConfig, trace: &[Access]) -> f64 {
    let mut cache = Cache::new(config).expect("stock cache geometry is valid"); // xxi-allow: panic-path -- fixed, valid config
    for a in trace {
        let kind = if a.write {
            AccessKind::Write
        } else {
            AccessKind::Read
        };
        cache.access(a.addr, kind);
    }
    cache.hit_rate()
}

fn l1(replacement: Replacement) -> f64 {
    static TRACE: OnceLock<Vec<Access>> = OnceLock::new();
    let trace = TRACE.get_or_init(|| TraceGen::new(1).zipf(100_000, 0, 1 << 14, 64, 0.9, 0.2));
    cache_run(
        CacheConfig {
            replacement,
            ..CacheConfig::l1()
        },
        trace,
    )
}

fn l1_lru(_: &RunCtx) -> f64 {
    l1(Replacement::Lru)
}

fn l1_plru(_: &RunCtx) -> f64 {
    l1(Replacement::TreePlru)
}

fn l1_random(_: &RunCtx) -> f64 {
    l1(Replacement::Random)
}

fn l2(replacement: Replacement) -> f64 {
    static TRACE: OnceLock<Vec<Access>> = OnceLock::new();
    let trace = TRACE.get_or_init(|| TraceGen::new(2).zipf(200_000, 0, 1 << 15, 64, 0.8, 0.0));
    cache_run(
        CacheConfig {
            replacement,
            ..CacheConfig::l2()
        },
        trace,
    )
}

fn l2_lru(_: &RunCtx) -> f64 {
    l2(Replacement::Lru)
}

fn l2_fifo(_: &RunCtx) -> f64 {
    l2(Replacement::Fifo)
}

fn l2_plru(_: &RunCtx) -> f64 {
    l2(Replacement::TreePlru)
}

/// The sequential and the uniform-random DRAM traces, drawn in that order
/// from one generator.
fn dram_traces() -> &'static (Vec<Access>, Vec<Access>) {
    static TRACES: OnceLock<(Vec<Access>, Vec<Access>)> = OnceLock::new();
    TRACES.get_or_init(|| {
        let mut gen = TraceGen::new(2);
        let seq = gen.sequential(100_000, 0, 64, 0.0);
        (seq, gen.uniform(100_000, 0, 1 << 28, 64, 0.0))
    })
}

fn dram_run(trace: &[Access]) -> f64 {
    let mut dram = Dram::new(DramConfig::default());
    for a in trace {
        dram.access(a.addr);
    }
    dram.row_hit_rate()
}

fn dram_seq(_: &RunCtx) -> f64 {
    dram_run(&dram_traces().0)
}

fn dram_random(_: &RunCtx) -> f64 {
    dram_run(&dram_traces().1)
}

fn start_gap(_: &RunCtx) -> f64 {
    let mut sg = StartGap::new(NvmDevice::new(NvmTech::Pcm, 4097), 100);
    for i in 0..100_000usize {
        sg.write(i % 4096);
    }
    sg.gap_moves() as f64
}

fn nvm_raw(_: &RunCtx) -> f64 {
    let mut dev = NvmDevice::new(NvmTech::Pcm, 4097);
    for i in 0..100_000usize {
        dev.write(i % 4096);
    }
    dev.max_wear() as f64
}

const HYBRID_ACCESSES: usize = 300_000;

/// E12's hybrid design: its Zipf page trace (seed 7, 30 % writes) through
/// the default 1 024-page DRAM tier in front of PCM.
fn hybrid(_: &RunCtx) -> f64 {
    static TRACE: OnceLock<Vec<Access>> = OnceLock::new();
    let trace =
        TRACE.get_or_init(|| TraceGen::new(7).zipf(HYBRID_ACCESSES, 0, 100_000, 4096, 1.1, 0.3));
    let mut m = HybridMemory::new(HybridConfig::default());
    m.run(trace);
    m.metrics.counter("promotions") as f64 + m.avg_latency().value()
}

fn fpc(_: &RunCtx) -> f64 {
    static LINES: OnceLock<Vec<Line>> = OnceLock::new();
    let lines = LINES.get_or_init(|| {
        let mut rng = Rng64::new(3);
        (0..10_000)
            .map(|i| {
                let mut l = [0u32; 16];
                for (j, w) in l.iter_mut().enumerate() {
                    *w = match i % 3 {
                        0 => (j as u32) % 5,        // compressible
                        1 => rng.next_u64() as u32, // random
                        _ => 0,                     // zeros
                    };
                }
                l
            })
            .collect()
    });
    lines.iter().map(|l| compressed_bits(l) as u64).sum::<u64>() as f64
}

// --- noc ------------------------------------------------------------------

const NOC_WARMUP: u64 = 1_000;
const NOC_MEASURE: u64 = 4_000;
/// Every one of the 64 routers pays a switch decision per cycle.
const NOC_ROUTER_CYCLES: u64 = 64 * (NOC_WARMUP + NOC_MEASURE);

fn noc_mesh(_: &RunCtx) -> f64 {
    let config = NocConfig::mesh8x8(Pattern::Uniform, 0.2, 3);
    NocSim::new(config).run(NOC_WARMUP, NOC_MEASURE).delivered as f64
}

/// `noc/mesh` at a tenth of the load: most cycles switch a handful of
/// flits, so the switch's fixed per-cycle cost dominates.
fn noc_mesh_light(_: &RunCtx) -> f64 {
    let config = NocConfig::mesh8x8(Pattern::Uniform, 0.02, 3);
    NocSim::new(config).run(NOC_WARMUP, NOC_MEASURE).delivered as f64
}

// --- rel ------------------------------------------------------------------

fn ecc_encode(_: &RunCtx) -> f64 {
    static DATA: OnceLock<Vec<u64>> = OnceLock::new();
    let data = DATA.get_or_init(|| {
        let mut rng = Rng64::new(1);
        (0..10_000).map(|_| rng.next_u64()).collect()
    });
    data.iter().fold(0u128, |acc, &d| acc ^ encode(d).0) as f64
}

fn ecc_decode(_: &RunCtx) -> f64 {
    static WORDS: OnceLock<Vec<Codeword>> = OnceLock::new();
    let words = WORDS.get_or_init(|| {
        let mut rng = Rng64::new(2);
        (0..10_000)
            .map(|_| flip(encode(rng.next_u64()), rng.range_u64(1, 72) as u32))
            .collect()
    });
    words
        .iter()
        .filter(|&&w| decode(w).data().is_some())
        .count() as f64
}

// --- cpu ------------------------------------------------------------------

fn hillmarty_best_r(_: &RunCtx) -> f64 {
    best_symmetric_r(0.975, 4096.0)
}

fn hillmarty_grid(_: &RunCtx) -> f64 {
    let mut acc = 0.0;
    for fi in 1..=100 {
        let f = fi as f64 / 101.0;
        for ri in 1..=100 {
            acc += speedup_symmetric(f, 256.0, ri as f64 * 2.56);
        }
    }
    acc
}

// --- cloud ----------------------------------------------------------------

fn mg1(_: &RunCtx) -> f64 {
    MG1Queue {
        lambda_per_ms: 0.7,
        service: LatencyDist::Exp { mean_ms: 1.0 },
    }
    .run(50_000, 4)
    .completed as f64
}

const FANOUT: usize = 100;
const FANOUT_TRIALS: usize = 5_000;
const FANOUT_LEAF_DRAWS: u64 = (FANOUT * FANOUT_TRIALS) as u64;

/// E9's fan-out max alone: each request takes
/// [`LatencyDist::sample_max`] over 100 typical leaves. Only the trials
/// are timed, not the p99 calibration `fanout_sweep_on` also runs.
fn fanout(_: &RunCtx) -> f64 {
    let dist = LatencyDist::typical_leaf();
    let mut rng = Rng64::new(7);
    (0..FANOUT_TRIALS)
        .map(|_| dist.sample_max(FANOUT, &mut rng))
        .sum()
}

const QUANTILE_DRAWS: usize = 200_000;

/// E9's fan-out calibration alone: the single-leaf p99 of 200 000
/// typical-leaf draws, on one thread as in `fanout_sweep_on`'s map, via
/// the screened [`LatencyDist::quantile_on`].
fn quantile(_: &RunCtx) -> f64 {
    LatencyDist::typical_leaf().quantile_on(QUANTILE_DRAWS, 11, 99.0, &par::Serial)
}

const CLUSTER_REQUESTS: u32 = 1_500;

/// One cell of E21's policy grid, the serving DES alone:
/// least-outstanding routing with adaptive p80 hedging under the
/// correlated two-rack blast, at the grid's seed.
fn cluster(_: &RunCtx) -> f64 {
    let cfg = ClusterConfig {
        requests: CLUSTER_REQUESTS,
        seed: 67,
        routing: Routing::LeastOutstanding,
        hedging: Hedging::adaptive(0.80),
        ..ClusterConfig::default()
    };
    let (_, blast) = e21_faults::two_rack_blast(&cfg);
    let out = cfg.run(&blast);
    out.p999 + out.metrics.counter("cluster.attempts") as f64
}

// --- sensor ---------------------------------------------------------------

const SENSOR_EPOCHS: u64 = 20_000;
/// E10's 250-sample epochs.
const SENSOR_SAMPLES: u64 = 250 * SENSOR_EPOCHS;

/// E10's long harvested run, shortened: a BLE node filtering on-node
/// while a 150 uW solar cell tops up its coin cell, through
/// [`SensorNode::run_observed`]. The battery outlives the horizon, so
/// every call runs exactly [`SENSOR_EPOCHS`] epochs.
fn sensor_epochs(_: &RunCtx) -> f64 {
    let cfg = SensorNodeConfig::default();
    let epoch_s = cfg.epoch_samples as f64 / cfg.sample_hz;
    let node = SensorNode::new(cfg, Mcu::cortex_m_class(), Radio::new(RadioTech::BleClass));
    let day_epochs = (86_400.0 / epoch_s) as u64;
    let sun = Harvester::new(HarvestProfile::Solar, Power::from_uw(150.0), day_epochs, 3);
    let (out, obs) = node.run_observed(
        NodePolicy::FilterThenSend,
        Battery::coin_cell(),
        Some(sun),
        Seconds(SENSOR_EPOCHS as f64 * epoch_s),
        3,
        Trace::disabled(),
    );
    assert_eq!(
        obs.epoch_energy.count(),
        SENSOR_EPOCHS,
        "the node died early"
    );
    out.bits_sent as f64 + obs.ledger.total_spent().value()
}

// --- sec ------------------------------------------------------------------

/// A tight arithmetic loop, 50k iterations of three instructions, then
/// its sum is output: the taint machinery's interpretive cost.
fn dift(_: &RunCtx) -> f64 {
    let prog = [
        Instr::Const { d: 0, imm: 50_000 },
        Instr::Const { d: 1, imm: 0 },
        Instr::Const {
            d: 2,
            imm: u64::MAX,
        },
        Instr::Add { d: 1, a: 1, b: 0 },
        Instr::Add { d: 0, a: 0, b: 2 },
        Instr::Bnz { c: 0, target: 3 },
        Instr::Out { v: 1 },
        Instr::Halt,
    ];
    match Machine::new(Policy::integrity(), 16, vec![]).run(&prog, 1_000_000) {
        Outcome::Finished(out) => out[0] as f64,
        Outcome::Trapped { kind, pc } => panic!("untainted loop trapped: {kind:?} at {pc}"),
    }
}

// --- stack ----------------------------------------------------------------

const POOL_ITEMS: usize = 60_000;
/// Items per `stack/pool-sum` task: fixed, so the chunk sums and their
/// order, and with them the checksum, do not depend on `--threads`.
const POOL_GRAIN: usize = 1_000;

fn sqrt_chain(i: usize) -> f64 {
    let mut x = i as f64 + 1.0;
    for _ in 0..500 {
        x = (x * 1.0000001).sqrt() + 0.25;
    }
    x
}

/// `par::map` over fixed chunks on the bench's executor, summed in chunk
/// order; at `--threads 1` (`Serial`) it is the baseline the scaling rows
/// divide by.
fn pool_sum(ctx: &RunCtx) -> f64 {
    par::map(ctx.exec(), POOL_ITEMS / POOL_GRAIN, |c| {
        (c * POOL_GRAIN..(c + 1) * POOL_GRAIN)
            .map(sqrt_chain)
            .sum::<f64>()
    })
    .into_iter()
    .sum()
}

fn stm_counter(_: &RunCtx) -> f64 {
    let arr = TxArray::new(4);
    for _ in 0..50_000 {
        arr.run(|tx| {
            let v = tx.read(0)?;
            tx.write(0, v + 1);
            Ok(())
        });
    }
    arr.read_direct(0) as f64
}

fn mutex_counter(_: &RunCtx) -> f64 {
    let m = Mutex::new(0u64);
    for _ in 0..50_000 {
        *m.lock().unwrap_or_else(|e| e.into_inner()) += 1;
    }
    m.into_inner().unwrap_or_else(|e| e.into_inner()) as f64
}

const BANK_TRANSFERS: usize = 80_000;

/// E20's bank on 64 accounts, one thread per `--threads`, the transfers
/// split evenly: throughput is commits per second.
fn stm_bank(ctx: &RunCtx) -> f64 {
    let seeds: Vec<u64> = (1..=ctx.threads as u64).collect();
    let arr = e20_tm::run_bank(64, BANK_TRANSFERS, &seeds);
    assert!(e20_tm::conserved(&arr), "the bank lost money");
    assert_eq!(arr.commits(), BANK_TRANSFERS as u64);
    arr.commits() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_unique_layered_and_resolvable() {
        let mut seen = std::collections::BTreeSet::new();
        for kernel in &KERNELS {
            let (layer, name) = kernel.id.split_once('/').expect("layer/kernel id");
            assert!(!layer.is_empty() && !name.is_empty(), "{}", kernel.id);
            assert!(seen.insert(kernel.id), "duplicate id {}", kernel.id);
            assert!(kernel.units > 0, "{} declares no work", kernel.id);
            assert!(super::super::find_kernel(&kernel.id.to_uppercase()).is_some());
        }
        let epoch_samples = SensorNodeConfig::default().epoch_samples as u64;
        assert_eq!(epoch_samples * SENSOR_EPOCHS, SENSOR_SAMPLES);
        let mesh = NocConfig::mesh8x8(Pattern::Uniform, 0.2, 3).mesh;
        assert_eq!(
            mesh.nodes() as u64 * (NOC_WARMUP + NOC_MEASURE),
            NOC_ROUTER_CYCLES
        );
    }

    /// Every kernel runs, and a second call returns the same checksum: a
    /// kernel is a pure function of its fixed seeds, bit-equal at 1 and 2
    /// threads.
    #[test]
    fn every_kernel_runs_and_is_deterministic() {
        let ctxs = [RunCtx::new(None, 1, None), RunCtx::new(None, 2, None)];
        for kernel in &KERNELS {
            let sums: Vec<f64> = ctxs
                .iter()
                .flat_map(|ctx| [(kernel.run)(ctx), (kernel.run)(ctx)])
                .collect();
            assert!(sums[0].is_finite(), "{}: checksum {}", kernel.id, sums[0]);
            assert!(
                sums.iter().all(|s| s.to_bits() == sums[0].to_bits()),
                "{}: checksums at 1, 1, 2, 2 threads: {sums:?}",
                kernel.id
            );
        }
    }
}
