//! `noc-mem-fabric`: the hardware models, single-threaded. E13's NoC
//! load sweeps and E18's two observed mesh runs (cycle-by-cycle
//! `NocSim::step`, below and near saturation), E12's hybrid memory and
//! Start-Gap wear runs, and E3's SECDED fault-injection sweep.
//!
//! E18's strong-scaling section is left out: it times the host's `sqrt`
//! throughput, and its thread count follows the machine.

use xxi_mem::hybrid::{HybridConfig, HybridMemory};
use xxi_mem::nvm::{NvmDevice, NvmTech};
use xxi_mem::trace::{Access, TraceGen};
use xxi_mem::wear::StartGap;
use xxi_noc::sim::{load_sweep, NocConfig, NocSim};
use xxi_noc::topology::Mesh;
use xxi_noc::traffic::Pattern;
use xxi_rel::inject::FaultInjector;

use crate::pass::{Check, Pass, Seeds};

/// `load_sweep` runs every rate for 2 000 warm-up plus 8 000 measured
/// cycles, as do E18's observed runs.
const WARMUP: u64 = 2_000;
const MEASURE: u64 = 8_000;

const RATES: [f64; 5] = [0.02, 0.1, 0.2, 0.3, 0.4];
const HAMMER_WRITES: u64 = 1_000_000;
const ECC_WORDS: usize = 4096;
const FLIPS: [u64; 4] = [8, 64, 512, 4096];

pub struct Inputs {
    /// (mesh, pattern, rates, seed) per E13 `load_sweep` call.
    sweeps: Vec<(Mesh, Pattern, Vec<f64>, u64)>,
    observed: [NocConfig; 2],
    /// E12's Zipf page trace; E12 generates it twice from one seed, so
    /// one copy serves both designs.
    trace: Vec<Access>,
    ecc_seed: u64,
}

pub fn setup(seeds: Seeds) -> Inputs {
    let mut sweeps = vec![
        (
            Mesh::new_2d(8, 8),
            Pattern::Uniform,
            RATES.to_vec(),
            seeds.or(5),
        ),
        (
            Mesh::new_3d(4, 4, 4),
            Pattern::Uniform,
            RATES.to_vec(),
            seeds.or(5),
        ),
    ];
    for p in [
        Pattern::Uniform,
        Pattern::Neighbor,
        Pattern::Transpose,
        Pattern::Hotspot {
            node: 27,
            permille: 200,
        },
    ] {
        sweeps.push((Mesh::new_2d(8, 8), p, vec![0.25], seeds.or(6)));
    }
    let observed = [0.1, 0.4].map(|rate| NocConfig::mesh8x8(Pattern::Uniform, rate, seeds.or(18)));
    let trace = TraceGen::new(seeds.or(7)).zipf(300_000, 0, 100_000, 4096, 1.1, 0.3);
    Inputs {
        sweeps,
        observed,
        trace,
        ecc_seed: seeds.or(3),
    }
}

fn wear(dev: &NvmDevice, c: &mut Check<'_>) {
    c.int("max_wear", dev.max_wear());
    c.num("mean_wear", dev.mean_wear());
    c.num("imbalance", dev.wear_imbalance());
}

pub fn pass(inp: &Inputs, p: &mut Pass<'_>) {
    // --- E13: load sweeps.
    for (mesh, pattern, rates, seed) in &inp.sweeps {
        p.call(
            "noc.load_sweep",
            || load_sweep(*mesh, *pattern, rates, *seed),
            |rows, c| {
                let nodes = mesh.nodes() as u64;
                for &(rate, latency, throughput) in rows {
                    c.num("rate", rate);
                    c.num("latency", latency);
                    c.num("throughput", throughput);
                    c.law(latency.is_finite() && throughput >= 0.0, || {
                        format!("rate {rate}: latency {latency}, throughput {throughput}")
                    });
                    c.count("noc.router_cycles", nodes * (WARMUP + MEASURE));
                    // throughput = delivered / (MEASURE x nodes), so this
                    // recovers the exact delivered count.
                    let delivered = throughput * (MEASURE * nodes) as f64;
                    c.count("noc.flits_delivered", delivered.round() as u64);
                }
            },
        );
    }

    // --- E18: observed 8x8 mesh at a moderate and a near-saturation load.
    for cfg in &inp.observed {
        p.call(
            "noc.run_observed",
            || NocSim::new(*cfg).run_observed(WARMUP, MEASURE),
            |o, c| {
                let r = &o.result;
                c.hist(&o.latency);
                c.hist(&o.hops);
                c.ledger(&o.ledger);
                c.int("delivered", r.delivered);
                c.int("offered", r.offered);
                c.int("throttled", r.throttled);
                c.int("link_traversals", r.link_traversals);
                c.num("throughput", r.throughput);
                c.num("mean_latency", r.mean_latency);
                // The window also delivers flits injected before it
                // opened: at most one per queue slot (seven input queues
                // of `queue_depth` flits per router).
                let slots = cfg.mesh.nodes() as u64 * 7 * cfg.queue_depth as u64;
                let accepted = r.offered - r.throttled;
                c.law(r.delivered <= accepted + slots, || {
                    format!(
                        "delivered {} > accepted {accepted} + {slots} queue slots",
                        r.delivered
                    )
                });
                c.count(
                    "noc.router_cycles",
                    cfg.mesh.nodes() as u64 * (WARMUP + MEASURE),
                );
                c.count("noc.flits_delivered", r.delivered);
            },
        );
    }

    // --- E12: hybrid DRAM+PCM placement, then wear leveling.
    for dram_pages in [1usize, 1024] {
        p.call(
            "mem.hybrid",
            || {
                let mut m = HybridMemory::new(HybridConfig {
                    dram_pages,
                    ..HybridConfig::default()
                });
                m.run(&inp.trace);
                m
            },
            |m, c| {
                c.num("avg_latency_s", m.avg_latency().value());
                c.num("avg_energy_j", m.avg_energy().value());
                c.num("dram_hit_rate", m.dram_hit_rate());
                let k = &m.metrics;
                let (hits, reads, writes) = (
                    k.counter("dram_hits"),
                    k.counter("nvm_reads"),
                    k.counter("nvm_writes"),
                );
                for (label, n) in [
                    ("dram_hits", hits),
                    ("nvm_reads", reads),
                    ("nvm_writes", writes),
                    ("promotions", k.counter("promotions")),
                    ("demotions", k.counter("demotions")),
                ] {
                    c.int(label, n);
                }
                let accesses = inp.trace.len() as u64;
                c.law(hits + reads + writes == accesses, || {
                    format!("hits {hits} + nvm reads {reads} + writes {writes} != {accesses}")
                });
                c.count("mem.accesses", accesses);
            },
        );
    }
    p.call(
        "mem.startgap",
        || {
            let mut raw = NvmDevice::new(NvmTech::Pcm, 257);
            for _ in 0..HAMMER_WRITES {
                raw.write(0);
            }
            raw
        },
        wear,
    );
    p.call(
        "mem.startgap",
        || {
            let mut sg = StartGap::new(NvmDevice::new(NvmTech::Pcm, 257), 100);
            for _ in 0..HAMMER_WRITES {
                sg.write(0);
            }
            sg
        },
        |sg, c| {
            wear(sg.device(), c);
            c.int("gap_moves", sg.gap_moves());
        },
    );

    // --- E3: SECDED scrub after N injected flips.
    for flips in FLIPS {
        p.call(
            "rel.ecc",
            || {
                let mut fi = FaultInjector::new(ECC_WORDS, inp.ecc_seed);
                fi.inject(flips);
                fi.scrub_pass()
            },
            |&(clean, corrected, due, sdc), c| {
                for (label, n) in [
                    ("clean", clean),
                    ("corrected", corrected),
                    ("due", due),
                    ("sdc", sdc),
                ] {
                    c.int(label, n);
                }
                let words = ECC_WORDS as u64;
                c.law(clean + corrected + due + sdc == words, || {
                    format!(
                        "clean+corrected+due+sdc = {} != {words} words",
                        clean + corrected + due + sdc
                    )
                });
                c.count("rel.flips", flips);
            },
        );
    }
}
