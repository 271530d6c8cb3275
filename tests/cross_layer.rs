//! Integration tests spanning crates: the cross-layer stories the paper
//! tells must hold when the models are composed, not just in isolation.

use xxi::accel::ladder::{efficiency_factor, ImplKind, Kernel};
use xxi::core::units::{gops_per_watt, Power};
use xxi::cpu::chip::{Chip, ChipConfig};
use xxi::cpu::CoreKind;
use xxi::mem::energy::MemEnergyTable;
use xxi::tech::ops::OpEnergies;
use xxi::tech::{DarkSilicon, NodeDb, NtvModel};

/// §2.2's three levers — parallelism (small cores), specialization, and
/// NTV — must each improve energy efficiency on the same 22 nm substrate,
/// and must compose into an order-of-magnitude gain.
#[test]
fn the_three_levers_compose() {
    let db = NodeDb::standard();
    let node = db.by_name("22nm").unwrap();

    // Lever 1: small cores vs big cores on a full chip.
    let big = Chip::compose(ChipConfig::desktop(node.clone(), CoreKind::OoOBig)).unwrap();
    let small = Chip::compose(ChipConfig::desktop(node.clone(), CoreKind::InOrderSmall)).unwrap();
    let parallelism_gain = small.efficiency() / big.efficiency();
    assert!(
        parallelism_gain > 2.0,
        "parallelism gain {parallelism_gain}"
    );

    // Lever 2: specialization on a regular kernel.
    let specialization_gain = efficiency_factor(node, ImplKind::FixedFunction, Kernel::Fir);
    assert!(specialization_gain > 20.0);

    // Lever 3: NTV on the same node.
    let ntv = NtvModel::new(
        node.clone(),
        xxi::core::units::Energy::from_pj(10.0),
        Power::from_mw(50.0),
    );
    let (mep_v, mep_e) = ntv.minimum_energy_point();
    let ntv_gain = ntv.e_op(node.vdd).value() / mep_e.value();
    assert!(ntv_gain > 2.0, "NTV gain {ntv_gain}");
    assert!(mep_v.value() < node.vdd.value());

    // Composition (multiplicative in this model space — the paper's
    // "two-to-three orders of magnitude" roadmap).
    assert!(parallelism_gain * specialization_gain > 100.0);
}

/// The mobile-efficiency anchor: the paper says today's (2012) devices do
/// ~10 GOPS/W and the tera-op@10 W tier needs 100. Our 22 nm chip model
/// must land near the first number, and the gap to the second must be
/// roughly 10×.
#[test]
fn mobile_efficiency_anchor_and_gap() {
    let db = NodeDb::standard();
    let node = db.by_name("22nm").unwrap();
    let chip = Chip::compose(ChipConfig {
        node: node.clone(),
        die: xxi::core::units::Area(80.0),
        uncore_frac: 0.4,
        tdp: Power(2.0), // phone-class sustained
        core_kind: CoreKind::OoOMedium,
    })
    .unwrap();
    // Calibration: one Hill–Marty perf unit ≈ 8 Gops (a 2-wide base core
    // at ~2 GHz effective mobile clocks, 2 ops/instruction SIMD-ish mix).
    let gops = chip.throughput() * 8.0;
    let eff = gops_per_watt(xxi::core::units::Frequency(gops * 1e9), chip.power());
    assert!(
        (2.0..50.0).contains(&eff),
        "2012-class mobile efficiency should be ~10 GOPS/W, got {eff}"
    );
    let target = 1e12 / 10.0 / 1e9; // tera-op @ 10 W = 100 GOPS/W
    let gap = target / eff;
    assert!((2.0..50.0).contains(&gap), "gap to the pyramid tier: {gap}");
}

/// Dark silicon must be consistent between the two independent models that
/// compute it: the technology-level DarkSilicon calculator (pessimistic:
/// every transistor switches every cycle) and the chip-composer's
/// powered-core accounting (realistic core activity). Both must darken
/// monotonically with scaling and agree that late nodes are power-bound.
#[test]
fn dark_silicon_models_agree_qualitatively() {
    let db = NodeDb::standard();
    let calc = DarkSilicon::new(140.0, Power(76.0)); // chip composer's usable area/power
    let mut prev_tech = 1.0f64;
    let mut prev_chip = 1.0f64;
    for name in ["90nm", "22nm", "7nm"] {
        let node = db.by_name(name).unwrap();
        let tech_active = calc.active_fraction(&db, node);
        let chip =
            Chip::compose(ChipConfig::desktop(node.clone(), CoreKind::InOrderSmall)).unwrap();
        let chip_active = chip.cores_powered as f64 / chip.cores_fit as f64;
        assert!(tech_active <= prev_tech + 1e-9, "{name}: tech not monotone");
        assert!(chip_active <= prev_chip + 1e-9, "{name}: chip not monotone");
        // The full-switching model is always at least as pessimistic.
        assert!(
            tech_active <= chip_active + 1e-9,
            "{name}: tech={tech_active} chip={chip_active}"
        );
        prev_tech = tech_active;
        prev_chip = chip_active;
    }
    // And at 7 nm both agree the chip is mostly dark under full activity /
    // substantially power-bound under realistic activity.
    let n7 = db.by_name("7nm").unwrap();
    assert!(calc.active_fraction(&db, n7) < 0.2);
    let chip7 = Chip::compose(ChipConfig::desktop(n7.clone(), CoreKind::InOrderSmall)).unwrap();
    assert!((chip7.cores_powered as f64) < 0.8 * chip7.cores_fit as f64);
}

/// Memory-ladder energies and compute energies must stay mutually
/// consistent across every node: the paper's operand-fetch claim is a
/// *relationship*, not a point value.
#[test]
fn operand_fetch_claim_holds_on_every_node() {
    let db = NodeDb::standard();
    for node in db.all() {
        let mem = MemEnergyTable::at(node);
        let ops = OpEnergies::at(node);
        let ratio = mem.dram_to_fma_ratio(&ops);
        assert!(
            ratio > 10.0,
            "{}: operand fetch must dwarf compute (ratio {ratio})",
            node.name
        );
    }
    // And at 45 nm specifically, the published 1-2 orders of magnitude.
    let node = db.by_name("45nm").unwrap();
    let r = MemEnergyTable::at(node).dram_to_fma_ratio(&OpEnergies::at(node));
    assert!((100.0..1000.0).contains(&r));
}

/// NTV + the SER model: dropping voltage to the minimum-energy point must
/// raise the soft-error rate substantially — the coupled claim behind
/// "resiliency-centered design".
#[test]
fn ntv_and_ser_couple() {
    let db = NodeDb::standard();
    let node = db.by_name("22nm").unwrap();
    let ntv = NtvModel::new(
        node.clone(),
        xxi::core::units::Energy::from_pj(10.0),
        Power::from_mw(50.0),
    );
    let (mep_v, _) = ntv.minimum_energy_point();
    let ser = xxi::tech::SoftErrorModel::new(node.clone(), 10.0);
    let boost = ser.fit_chip(mep_v) / ser.fit_chip(node.vdd);
    assert!(boost > 2.0, "SER at MEP must be much worse: {boost}");
    // But resilient execution still nets an energy win.
    let (res_v, res_e) = ntv.resilient_optimum();
    assert!(res_e.value() < ntv.e_op_resilient(node.vdd, 0.05).value());
    assert!(res_v.value() <= node.vdd.value());
}

/// 3D stacking cuts communication distance: at equal node count, a
/// 4-high stack of 4x4 layers has ~29% fewer mean hops than an 8x8 mesh.
#[test]
fn stacking_cuts_mean_hops_at_equal_node_count() {
    use xxi::noc::topology::Mesh;

    let planar = Mesh::new_2d(8, 8);
    let stacked = Mesh::new_3d(4, 4, 4);
    let hop_gain = 1.0 - stacked.mean_hops_uniform() / planar.mean_hops_uniform();
    assert!(hop_gain > 0.2, "hop gain {hop_gain}");
}
