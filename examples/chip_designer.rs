//! Design a 21st-century chip: parallelism + specialization + dark silicon.
//!
//! Walks the §2.2 design space for a fixed 200 mm² / 95 W desktop socket
//! across technology nodes: how many cores fit vs how many can be powered
//! (dark silicon), which core size wins at which parallel fraction
//! (Hill–Marty), and how much energy specialization saves per kernel.
//!
//! Run with: `cargo run --example chip_designer`

use xxi::accel::ladder::{efficiency_factor, ImplKind, Kernel};
use xxi::core::table::{fnum, xfactor};
use xxi::core::Table;
use xxi::cpu::chip::{Chip, ChipConfig};
use xxi::cpu::CoreKind;
use xxi::tech::NodeDb;

fn main() {
    let db = NodeDb::standard();

    // ---- Dark silicon across nodes --------------------------------------
    println!("== A 200 mm^2 / 95 W socket across nodes (big OoO cores) ==\n");
    let mut t = Table::new(&["node", "cores fit", "cores powered", "dark fraction"]);
    for name in ["90nm", "45nm", "22nm", "14nm", "7nm"] {
        let chip = Chip::compose(ChipConfig::desktop(
            db.by_name(name).unwrap().clone(),
            CoreKind::OoOBig,
        ))
        .unwrap();
        t.row(&[
            name.to_string(),
            chip.cores_fit.to_string(),
            chip.cores_powered.to_string(),
            fnum(chip.dark_fraction()),
        ]);
    }
    t.print();

    // ---- Core-size choice vs parallel fraction ---------------------------
    println!("\n== Hill-Marty at 22nm: which core size wins? ==\n");
    let mut t = Table::new(&[
        "parallel fraction",
        "small cores",
        "medium cores",
        "big cores",
    ]);
    let chips: Vec<Chip> = [
        CoreKind::InOrderSmall,
        CoreKind::OoOMedium,
        CoreKind::OoOBig,
    ]
    .into_iter()
    .map(|k| Chip::compose(ChipConfig::desktop(db.by_name("22nm").unwrap().clone(), k)).unwrap())
    .collect();
    for f in [0.5, 0.9, 0.975, 0.99, 0.999] {
        let s: Vec<f64> = chips.iter().map(|c| c.speedup(f)).collect();
        t.row(&[fnum(f), fnum(s[0]), fnum(s[1]), fnum(s[2])]);
    }
    t.print();
    println!("(speedup relative to one base core; big cores win serial code,");
    println!(" small cores win \"big data = big parallelism\")");

    // ---- Specialization ladder -------------------------------------------
    println!("\n== The specialization ladder at 45nm (energy-efficiency factors) ==\n");
    let node = db.by_name("45nm").unwrap();
    let mut t = Table::new(&[
        "kernel",
        "in-order",
        "SIMDx16",
        "GPU warp32",
        "fixed-function",
    ]);
    for k in [
        Kernel::Fir,
        Kernel::AesRound,
        Kernel::Fft,
        Kernel::Stencil,
        Kernel::Irregular,
    ] {
        t.row(&[
            format!("{k:?}"),
            xfactor(efficiency_factor(node, ImplKind::ScalarInOrder, k)),
            xfactor(efficiency_factor(node, ImplKind::Simd { lanes: 16 }, k)),
            xfactor(efficiency_factor(node, ImplKind::Manycore { warp: 32 }, k)),
            xfactor(efficiency_factor(node, ImplKind::FixedFunction, k)),
        ]);
    }
    t.print();
    println!("(vs a big OoO core; the paper's \"100x\" is the fixed-function column)");
}
