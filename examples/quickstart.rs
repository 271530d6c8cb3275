//! Quickstart: a five-minute tour of the framework.
//!
//! Reproduces, in one screen of output, the paper's three headline
//! quantitative claims: the end of Dennard scaling (Table 1), the ~80×
//! architecture contribution since 1985 (§1), and the 63% fan-out tail
//! claim (§2.1).
//!
//! Run with: `cargo run --example quickstart`

use xxi::cloud::fanout::{analytic_straggler_prob, fanout_sweep_on};
use xxi::cloud::latency::LatencyDist;
use xxi::core::table::{fnum, xfactor};
use xxi::core::{Serial, Table};
use xxi::cpu::cpudb;
use xxi::tech::{NodeDb, ScalingRule, ScalingTrajectory};

fn main() {
    let db = NodeDb::standard();

    // ---- Claim 1: "Dennard Scaling — Gone" (Table 1) -------------------
    println!("== Table 1, rows 1-2: Moore continues, Dennard is gone ==\n");
    let dennard = ScalingTrajectory::compute(&db, ScalingRule::Dennard);
    let real = ScalingTrajectory::compute(&db, ScalingRule::PostDennard);
    let mut t = Table::new(&[
        "node",
        "year",
        "transistors",
        "P/chip (Dennard rules)",
        "P/chip (observed)",
    ]);
    for (d, r) in dennard.points.iter().zip(&real.points) {
        t.row(&[
            d.node.to_string(),
            d.year.to_string(),
            xfactor(d.transistors_rel),
            xfactor(d.full_power_rel),
            xfactor(r.full_power_rel),
        ]);
    }
    t.print();
    println!(
        "\nFull-die power at 7nm would be {} the 180nm level — \"not viable\".\n",
        xfactor(real.final_power_growth())
    );

    // ---- Claim 2: architecture credited with ~80× since 1985 (§1) ------
    println!("== §1: CPU-DB attribution, 1985 -> 2012 ==\n");
    let a = cpudb::overall();
    println!(
        "total single-thread growth: {}   technology (gate speed): {}   architecture: {}",
        xfactor(a.total),
        xfactor(a.technology),
        xfactor(a.architecture)
    );
    println!("(paper: \"architecture credited with ~80x improvement since 1985\")\n");

    // ---- Claim 3: the 63% tail claim (§2.1) ----------------------------
    println!("== §2.1: \"63% of requests will incur the 99-percentile delay\" ==\n");
    let mut t = Table::new(&[
        "fan-out",
        "analytic 1-0.99^n",
        "simulated",
        "p50 (ms)",
        "p99 (ms)",
    ]);
    let dist = LatencyDist::typical_leaf();
    for r in fanout_sweep_on(dist, &[1, 10, 100, 1000], 20_000, 42, &Serial) {
        let analytic = analytic_straggler_prob(r.fanout, 0.99);
        t.row(&[
            r.fanout.to_string(),
            fnum(analytic),
            fnum(r.frac_hit_by_leaf_p99),
            fnum(r.p50),
            fnum(r.p99),
        ]);
    }
    t.print();
    println!("\nAt fan-out 100 the simulated fraction matches 1 - 0.99^100 = 0.634.");
}
