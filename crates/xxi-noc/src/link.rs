//! Link energy models: electrical, photonic, TSV, off-chip.
//!
//! §2.3: *"Photonic interconnects can be exploited among or even on
//! chips"*; §1.2: photonics and 3D stacking *"change communication costs
//! radically enough to affect the entire system design."* The radical
//! change is structural, and the models preserve it:
//!
//! * **Electrical** wires cost energy *per bit per millimetre* — long
//!   links are proportionally expensive.
//! * **Photonic** waveguides pay a *standing* laser + thermal-tuning power
//!   whether or not data flows, but per-bit modulation energy is tiny and
//!   **distance-independent** — so photonics wins on long, highly-utilized
//!   links and loses on short or idle ones. Experiment E13 locates the
//!   crossover.
//! * **TSVs** (3D stacking) are extremely short vertical wires: near-zero
//!   energy, but only available between stacked dies.
//!
//! Anchors (45 nm era, consistent with the Keckler/ISSCC budgets used in
//! `xxi-mem::energy`): electrical ≈ 0.2 pJ/bit/mm; photonic ≈ 0.1 pJ/bit
//! modulation + ~2 mW standing per link; TSV ≈ 0.02 pJ/bit; off-chip
//! SerDes ≈ 2 pJ/bit.

use xxi_core::units::{Energy, Power, Seconds};
use xxi_tech::node::TechNode;

/// 45 nm anchor constants.
mod anchor45 {
    pub const ELECTRICAL_PJ_PER_BIT_MM: f64 = 0.2;
    pub const PHOTONIC_PJ_PER_BIT: f64 = 0.1;
    pub const PHOTONIC_STANDING_MW: f64 = 2.0;
    pub const TSV_PJ_PER_BIT: f64 = 0.02;
    pub const OFFCHIP_PJ_PER_BIT: f64 = 2.0;
    /// gate_energy_rel of 45 nm in the standard ladder.
    pub const GATE_ENERGY_REL: f64 = 0.240 / (1.8 * 1.8);
}

/// Physical link technology.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum LinkKind {
    /// On-chip electrical wire of the given length in millimetres.
    Electrical {
        /// Wire length in mm.
        mm: f64,
    },
    /// On- or off-chip photonic waveguide (distance-independent energy).
    Photonic,
    /// Through-silicon via between stacked dies.
    Tsv,
    /// Off-chip electrical SerDes link.
    OffChip,
}

/// A link instance on a given node.
#[derive(Clone, Copy, Debug)]
pub struct Link {
    /// Technology and geometry.
    pub kind: LinkKind,
    /// Dynamic energy for one bit.
    pub energy_per_bit: Energy,
    /// Standing power (laser/tuning/PLL) drawn even when idle.
    pub standing_power: Power,
}

impl Link {
    /// Build a link of `kind` on `node`. Electrical and TSV energies scale
    /// with logic `C·V²`; photonic modulation and off-chip I/O scale with
    /// its square root (they are dominated by optics and pad capacitance).
    pub fn on(node: &TechNode, kind: LinkKind) -> Link {
        let logic = node.gate_energy_rel() / anchor45::GATE_ENERGY_REL;
        let slow = logic.sqrt();
        match kind {
            LinkKind::Electrical { mm } => Link {
                kind,
                energy_per_bit: Energy::from_pj(
                    anchor45::ELECTRICAL_PJ_PER_BIT_MM * mm * logic.sqrt(),
                ),
                standing_power: Power::ZERO,
            },
            LinkKind::Photonic => Link {
                kind,
                energy_per_bit: Energy::from_pj(anchor45::PHOTONIC_PJ_PER_BIT * slow),
                standing_power: Power::from_mw(anchor45::PHOTONIC_STANDING_MW),
            },
            LinkKind::Tsv => Link {
                kind,
                energy_per_bit: Energy::from_pj(anchor45::TSV_PJ_PER_BIT * logic),
                standing_power: Power::ZERO,
            },
            LinkKind::OffChip => Link {
                kind,
                energy_per_bit: Energy::from_pj(anchor45::OFFCHIP_PJ_PER_BIT * slow),
                standing_power: Power::from_mw(5.0),
            },
        }
    }

    /// Dynamic energy to move `bits` across this link.
    pub fn transfer_energy(&self, bits: u64) -> Energy {
        self.energy_per_bit * bits as f64
    }

    /// Total energy over an interval in which `bits` were moved: dynamic +
    /// standing.
    pub fn total_energy(&self, bits: u64, interval: Seconds) -> Energy {
        self.transfer_energy(bits) + self.standing_power * interval
    }

    /// Utilization (bits/s) above which this link beats `other` in energy
    /// over an interval, or `None` if it never does (or always does).
    /// Solves `E_dyn·r + P_stand = E'_dyn·r + P'_stand` for rate `r`.
    pub fn energy_crossover_bits_per_sec(&self, other: &Link) -> Option<f64> {
        let de = self.energy_per_bit.value() - other.energy_per_bit.value();
        let dp = other.standing_power.value() - self.standing_power.value();
        if de == 0.0 {
            return None;
        }
        let r = dp / de;
        if r.is_finite() && r > 0.0 {
            Some(r)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xxi_tech::node::NodeDb;

    fn node() -> TechNode {
        NodeDb::standard().by_name("45nm").unwrap().clone()
    }

    #[test]
    fn electrical_energy_scales_with_length() {
        let n = node();
        let short = Link::on(&n, LinkKind::Electrical { mm: 1.0 });
        let long = Link::on(&n, LinkKind::Electrical { mm: 10.0 });
        assert!((long.energy_per_bit.value() / short.energy_per_bit.value() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn photonic_energy_is_distance_independent_with_standing_cost() {
        let n = node();
        let p = Link::on(&n, LinkKind::Photonic);
        assert!(p.standing_power.value() > 0.0);
        // Dynamic cost beats a 10 mm electrical wire per bit.
        let e10 = Link::on(&n, LinkKind::Electrical { mm: 10.0 });
        assert!(p.energy_per_bit.value() < e10.energy_per_bit.value());
        // But a 1 mm wire beats photonics per bit.
        let e1 = Link::on(&n, LinkKind::Electrical { mm: 1.0 });
        assert!(p.energy_per_bit.value() < e1.energy_per_bit.value() * 10.0);
    }

    #[test]
    fn photonic_wins_only_at_high_utilization() {
        // The E13 crossover: below some traffic rate, the electrical link's
        // zero standing power wins; above it, photonics wins.
        let n = node();
        let p = Link::on(&n, LinkKind::Photonic);
        let e = Link::on(&n, LinkKind::Electrical { mm: 20.0 });
        let r = p
            .energy_crossover_bits_per_sec(&e)
            .expect("crossover exists");
        // Sanity: at double the crossover rate photonics is cheaper over 1 s.
        let interval = Seconds(1.0);
        let bits_hi = (2.0 * r) as u64;
        assert!(
            p.total_energy(bits_hi, interval).value() < e.total_energy(bits_hi, interval).value()
        );
        let bits_lo = (0.5 * r) as u64;
        assert!(
            p.total_energy(bits_lo, interval).value() > e.total_energy(bits_lo, interval).value()
        );
    }

    #[test]
    fn tsv_is_the_cheapest_hop() {
        let n = node();
        let tsv = Link::on(&n, LinkKind::Tsv);
        let e1 = Link::on(&n, LinkKind::Electrical { mm: 1.0 });
        let off = Link::on(&n, LinkKind::OffChip);
        assert!(tsv.energy_per_bit.value() < e1.energy_per_bit.value());
        assert!(e1.energy_per_bit.value() < off.energy_per_bit.value());
    }

    #[test]
    fn offchip_vs_onchip_gap_is_an_order_of_magnitude() {
        // Table 1 row 4: "Restricted inter-chip … communication".
        let n = node();
        let on = Link::on(&n, LinkKind::Electrical { mm: 1.0 });
        let off = Link::on(&n, LinkKind::OffChip);
        assert!(off.energy_per_bit.value() / on.energy_per_bit.value() >= 9.0);
    }

    #[test]
    fn transfer_energy_is_linear_in_bits() {
        let n = node();
        let l = Link::on(&n, LinkKind::Tsv);
        let e1 = l.transfer_energy(512);
        let e2 = l.transfer_energy(1024);
        assert!((e2.value() - 2.0 * e1.value()).abs() < 1e-21);
    }

    #[test]
    fn scaling_across_nodes_keeps_ordering() {
        let db = NodeDb::standard();
        for node in db.all() {
            let tsv = Link::on(node, LinkKind::Tsv);
            let e = Link::on(node, LinkKind::Electrical { mm: 2.0 });
            let off = Link::on(node, LinkKind::OffChip);
            assert!(tsv.energy_per_bit.value() < e.energy_per_bit.value());
            assert!(e.energy_per_bit.value() < off.energy_per_bit.value());
        }
    }
}
