//! Human network analytics at warehouse scale (Table A.1, scenario 3).
//!
//! An interactive graph-analytics frontend fans each query out to 100 leaf
//! servers. This example walks the whole §2.1 cloud story: run the leaves
//! hotter → queueing inflates their tail → fan-out amplifies it into most
//! requests → hedged requests buy the tail back for ~5% extra load.
//!
//! Run with: `cargo run --example search_frontend`

use xxi::cloud::fanout::fanout_sweep_on;
use xxi::cloud::hedge::hedge_experiment_on;
use xxi::cloud::latency::LatencyDist;
use xxi::cloud::queueing::MG1Queue;
use xxi::core::table::fnum;
use xxi::core::{Serial, Table};

fn main() {
    // ---- Step 1: utilization inflates the leaf tail ---------------------
    println!("== Leaf server tail vs utilization (M/G/1, straggler service) ==\n");
    let service = LatencyDist::typical_leaf();
    let mean_ms = {
        let mut rng = xxi::core::Rng64::new(1);
        service.sample_summary(100_000, &mut rng).mean()
    };
    let mut t = Table::new(&["utilization", "mean (ms)", "p50 (ms)", "p99 (ms)"]);
    for rho in [0.3, 0.5, 0.7, 0.85] {
        let q = MG1Queue {
            lambda_per_ms: rho / mean_ms,
            service,
        };
        let r = q.run(120_000, 11);
        t.row(&[fnum(rho), fnum(r.mean_ms), fnum(r.p50), fnum(r.p99)]);
    }
    print!("{}", t.render());

    // ---- Step 2: fan-out amplifies the tail ------------------------------
    println!("\n== Query latency vs fan-out (unloaded leaves) ==\n");
    let mut t = Table::new(&["fan-out", "p50 (ms)", "p99 (ms)", "frac > leaf p99"]);
    for r in fanout_sweep_on(service, &[1, 10, 50, 100, 500], 20_000, 21, &Serial) {
        t.row(&[
            r.fanout.to_string(),
            fnum(r.p50),
            fnum(r.p99),
            fnum(r.frac_hit_by_leaf_p99),
        ]);
    }
    print!("{}", t.render());

    // ---- Step 3: hedged requests buy the tail back -----------------------
    println!("\n== Hedged requests (duplicate after the p95 deadline) ==\n");
    let mut rng = xxi::core::Rng64::new(31);
    let base = service.sample_summary(300_000, &mut rng);
    let hedged = hedge_experiment_on(service, 0.95, 300_000, 32, &Serial);
    let mut t = Table::new(&["metric", "no hedge", "hedged", "change"]);
    let rows: [(&str, f64, f64); 3] = [
        ("p50 (ms)", base.median(), hedged.p50),
        ("p99 (ms)", base.percentile(99.0), hedged.p99),
        ("p99.9 (ms)", base.percentile(99.9), hedged.p999),
    ];
    for (name, before, after) in rows {
        t.row(&[
            name.to_string(),
            fnum(before),
            fnum(after),
            format!("{:+.0}%", (after / before - 1.0) * 100.0),
        ]);
    }
    print!("{}", t.render());
    println!("extra load from hedging: {:.1}%", hedged.extra_load * 100.0);
    println!("\nLesson: the tail is a systems property — queueing creates it, fan-out");
    println!("amplifies it, hedging buys it back.");
}
