//! Rethinking the memory/storage stack (§2.3).
//!
//! Three demonstrations on one synthetic "big data" workload (Zipf-skewed
//! page accesses, 30% writes):
//!
//! 1. the per-access **energy ladder** that makes data movement the budget
//!    (Table 1 row 4),
//! 2. a **hybrid DRAM+PCM** main memory vs the incumbent all-DRAM design,
//! 3. **Start-Gap wear leveling** turning PCM's endurance from a bug into
//!    a parameter.
//!
//! Run with: `cargo run --example memory_futures`

use xxi::core::table::{fnum, xfactor};
use xxi::core::Table;
use xxi::mem::energy::MemEnergyTable;
use xxi::mem::hybrid::{HybridConfig, HybridMemory};
use xxi::mem::nvm::{NvmDevice, NvmTech};
use xxi::mem::trace::TraceGen;
use xxi::mem::wear::StartGap;
use xxi::tech::ops::OpEnergies;
use xxi::tech::NodeDb;

fn main() {
    let db = NodeDb::standard();

    // ---- 1. The energy ladder -------------------------------------------
    println!("== Per-64-bit-access energy vs one FMA, across nodes ==\n");
    let mut t = Table::new(&[
        "node",
        "FMA (pJ)",
        "L1 (pJ)",
        "L3 (pJ)",
        "DRAM (pJ)",
        "DRAM/FMA",
    ]);
    for name in ["90nm", "45nm", "22nm", "7nm"] {
        let node = db.by_name(name).unwrap();
        let e = MemEnergyTable::at(node);
        let ops = OpEnergies::at(node);
        t.row(&[
            name.to_string(),
            fnum(ops.fp_fma.pj()),
            fnum(e.l1.pj()),
            fnum(e.l3.pj()),
            fnum(e.dram.pj()),
            xfactor(e.dram_to_fma_ratio(&ops)),
        ]);
    }
    t.print();
    println!("(the gap widens every node: communication buys the lunch)");

    // ---- 2. Hybrid main memory -------------------------------------------
    println!("\n== Hybrid DRAM+PCM vs all-DRAM on a Zipf page workload ==\n");
    let mut gen = TraceGen::new(7);
    let trace = gen.zipf(400_000, 0, 100_000, 4096, 1.1, 0.3);

    let mut hybrid = HybridMemory::new(HybridConfig::default());
    hybrid.run(&trace);

    // All-DRAM baseline: every access at DRAM cost.
    let dram_lat_ns = 60.0;
    let hybrid_lat_ns = hybrid.avg_latency().value() * 1e9;
    let mut t = Table::new(&["design", "avg latency (ns)", "capacity tier"]);
    t.row(&[
        "all-DRAM (64 GiB)".into(),
        fnum(dram_lat_ns),
        "volatile".into(),
    ]);
    t.row(&[
        "DRAM 4 MiB + PCM".into(),
        fnum(hybrid_lat_ns),
        "non-volatile".into(),
    ]);
    t.print();
    println!(
        "hybrid DRAM hit rate: {:.0}%  (hot Zipf head lives in DRAM)",
        hybrid.dram_hit_rate() * 100.0
    );

    // ---- 3. Start-Gap wear leveling ---------------------------------------
    println!("\n== PCM endurance: hotspot writes with and without Start-Gap ==\n");
    let lines = 256;
    let writes = 2_000_000u64;
    let mut hot = TraceGen::new(8);
    let hot_trace: Vec<usize> = hot
        .zipf(writes as usize, 0, lines, 1, 1.2, 1.0)
        .iter()
        .map(|a| a.addr as usize)
        .collect();

    let mut raw = NvmDevice::new(NvmTech::Pcm, lines + 1);
    for &l in &hot_trace {
        raw.write(l);
    }
    let mut leveled = StartGap::new(NvmDevice::new(NvmTech::Pcm, lines + 1), 100);
    for &l in &hot_trace {
        leveled.write(l);
    }

    let mut t = Table::new(&["design", "max/mean wear", "projected lifetime vs ideal"]);
    let ideal = 1.0;
    for (name, imb) in [
        ("no leveling", raw.wear_imbalance()),
        ("Start-Gap (psi=100)", leveled.device().wear_imbalance()),
    ] {
        t.row(&[
            name.to_string(),
            fnum(imb),
            format!("{:.0}%", ideal / imb * 100.0),
        ]);
    }
    t.print();
    println!("\nStart-Gap costs 1% extra writes and recovers most of the device's");
    println!("endurance budget — \"device wear out\" becomes an engineering margin.");
}
